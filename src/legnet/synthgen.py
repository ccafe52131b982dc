"""Synthetic cohorts: healthy-subject simulation plus artificial lesions.

Healthy signals follow a three-level model: latent community time series,
per-ROI series (community signal plus ROI noise), and per-voxel series (ROI
series plus independent voxel noise of scale sigma_voxel). ROIs of one
designated "language" territory share a community whose per-subject
coupling strength varies, so the pre-lesion score y0 carries a learnable
connectivity signal.

No voxel signal is ever drawn. A subject holds only the sum S_i of each
ROI's n_i voxel signals, which is exactly normal given the ROI series:
S_i = n_i roi_ts_i + sigma_voxel sqrt(n_i) z_i. Given S_i, the sum over k_i
lesioned voxels is normal with mean (k_i / n_i) S_i and variance
sigma_voxel^2 k_i (n_i - k_i) / n_i, so a lesioned subject's ROI series
draws that sum and keeps the rest; both draws match the voxel model in
distribution.

Lesions are grown by seeded region growing inside a single left-hemisphere
arterial territory, and every cavity the growth encloses is filled, so the
mask has no holes. The start voxel and every frontier pick are the
integers `rng.integers(k)` gives, computed in Python from the bit
generator's raw output with numpy's own method, so a pick makes no numpy
call. Cavities are found by one flood of the unset voxels of a box whose
outer shell is never grown: that shell is one face-connected set, so the
flood seeded from it reaches the whole outside, and every unset voxel it
misses lies in a cavity. A step that sets one voxel skips the pass when the voxel's unset
face neighbours are joined through its unset edge neighbours: every unset
path through the voxel then has a detour beside it, so no cavity forms.
Lesioning a subject also diminishes and noises connectivity entries touching
damaged ROIs as X'_ij = clip(X_ij^(min(p_i,p_j)^gamma) + eta_ij, min X, max X)
(diminution shrinks the correlation log X toward 0), and rescales the
language score by the territory's spared fraction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

from .connectome import (
    InputError,
    LesionMask,
    SubjectRecord,
    ToyAtlas,
    check_number,
    check_seed,
    check_types,
    correlation_matrix,
    exponentiate,
    fill_cavities,
    keep_python_scalars,
    lesioned_counts,
    spared_fractions,
)

FRACTION_MIN = 0.05
FRACTION_MAX = 0.20
HOLE_FILL_SLACK = 0.02  # relative overshoot allowed from cavity filling
_MAX_GROW_ATTEMPTS = 64
_RAW_BLOCK = 512  # 64-bit outputs per block of bounded draws
_TWO_32 = 1 << 32
_LOW_32 = _TWO_32 - 1


def _check_range(name: str, pair, floor: float = -np.inf, ceiling: float = np.inf) -> None:
    """InputError unless `pair` is two finite numbers floor <= low <= high <= ceiling."""
    try:
        low, high = pair
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a (low, high) pair, got {pair!r}") from None
    for value in (low, high):
        check_number(name, value)
    if not floor <= low <= high <= ceiling:
        raise InputError(f"{name} {pair} must be ordered and inside [{floor}, {ceiling}]")


@dataclass(frozen=True)
class LesionSpec:
    territory: int
    target_fraction: float
    seed: int

    def __post_init__(self):
        check_number("territory", self.territory, 1, integral=True)
        check_seed("seed", self.seed)
        check_number("target_fraction", self.target_fraction)
        if not (FRACTION_MIN <= self.target_fraction <= FRACTION_MAX):
            raise InputError(
                f"target_fraction {self.target_fraction} outside "
                f"[{FRACTION_MIN}, {FRACTION_MAX}]"
            )


@dataclass(frozen=True)
class CohortParams:
    """Healthy-signal model and score model for one synthetic cohort. Numpy
    scalars are kept as the equal Python scalars, which JSON can write."""

    t_len: int = 100
    n_communities: int = 8
    sigma_roi: float = 0.6
    sigma_voxel: float = 1.0
    coherence_range: tuple[float, float] = (0.7, 1.5)
    language_territory: int = 2
    score_mu: float = 30.0
    score_beta: float = 16.0
    score_eps: float = 2.0
    corruption_gamma: float = 1.0
    corruption_sigma_rel: float = 0.1

    def __post_init__(self):
        keep_python_scalars(self)
        # community 0 is the language network; the others need at least one
        for name, low in (("t_len", 2), ("n_communities", 2), ("language_territory", 1)):
            check_number(name, getattr(self, name), low, integral=True)
        for name in ("sigma_roi", "sigma_voxel", "score_eps", "corruption_gamma",
                     "corruption_sigma_rel"):
            check_number(name, getattr(self, name), 0)
        for name in ("score_mu", "score_beta"):
            check_number(name, getattr(self, name))
        _check_range("coherence_range", self.coherence_range)


@dataclass(frozen=True)
class LesionPolicy:
    """Cohort flavor: lesion-size distribution and score offset. Numpy
    scalars are kept as the equal Python scalars, which JSON can write."""

    name: str
    fraction_range: tuple[float, float] = (FRACTION_MIN, FRACTION_MAX)
    score_mu: float | None = None  # overrides CohortParams.score_mu when set

    def __post_init__(self):
        keep_python_scalars(self)
        check_types(("policy name", self.name, str))
        if self.score_mu is not None:
            check_number("score_mu", self.score_mu)
        _check_range("fraction_range", self.fraction_range, FRACTION_MIN, FRACTION_MAX)


POLICIES = {
    "hcp-sl": LesionPolicy(name="hcp-sl"),
    "ds1-like": LesionPolicy(name="ds1-like"),
    "ds2-like": LesionPolicy(name="ds2-like", fraction_range=(0.08, 0.20), score_mu=27.0),
}


def policy_by_name(name: str) -> LesionPolicy:
    try:
        return POLICIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InputError(f"unknown lesion policy {name!r}; choices: {sorted(POLICIES)}")


@dataclass(eq=False)
class HealthySubject:
    """A pre-lesion subject: the (N, Tlen) sums of its ROIs' voxel signals,
    the voxel noise scale they were drawn with, and the score y0.

    Lesioning conditions on these sums (`lesioned_roi_series`), so any
    number of lesions can be applied to one healthy subject. Construction
    raises an InputError, naming the subject, unless the id is a str, the
    sums a finite real (N, Tlen >= 2) ndarray, sigma_voxel a finite number
    >= 0 and y0 a number in [0, 100]. The sums are not copied.
    """

    id: str
    roi_sums: np.ndarray  # (n_rois, t_len)
    sigma_voxel: float
    y0: float

    def __post_init__(self):
        check_types(("healthy subject id", self.id, str))
        sums = self.roi_sums
        try:
            check_types(("roi_sums", sums, np.ndarray))
            if sums.dtype.kind not in "biuf" or sums.ndim != 2 or sums.shape[0] < 1 \
                    or sums.shape[1] < 2:
                raise InputError(f"roi_sums must be a real (N, Tlen >= 2) array, got {sums.dtype} "
                                 f"{sums.shape}")
            if not np.isfinite(sums).all():
                raise InputError("roi_sums has non-finite entries")
            check_number("sigma_voxel", self.sigma_voxel, 0)
            check_number("y0", self.y0, 0)
            if self.y0 > 100.0:
                raise InputError(f"y0 {self.y0} outside [0, 100]")
        except InputError as exc:
            raise InputError(f"healthy subject {self.id!r}: {exc}") from None


def _language_rois(atlas: ToyAtlas, params: CohortParams) -> np.ndarray:
    rois = atlas.territory_rois(params.language_territory)
    if rois.size < 2:
        raise InputError("language territory must contain at least two ROIs")
    return rois


def mean_language_connectivity(x: np.ndarray, atlas: ToyAtlas, params: CohortParams) -> float:
    """Mean off-diagonal connectivity within the language-network ROIs."""
    idx = _language_rois(atlas, params)
    sub = x[np.ix_(idx, idx)]
    n = idx.size
    return float((sub.sum() - np.trace(sub)) / (n * (n - 1)))


def _latent_roi_series(rng: np.random.Generator, atlas: ToyAtlas,
                       cp: CohortParams) -> np.ndarray:
    """(N, Tlen) ROI series: community signal plus ROI noise."""
    n, t_len = atlas.n_rois, cp.t_len
    language = _language_rois(atlas, cp)
    community_of_roi = 1 + np.arange(n) % (cp.n_communities - 1)
    community_of_roi[language] = 0

    community_ts = rng.standard_normal((cp.n_communities, t_len))
    coherence = rng.uniform(*cp.coherence_range)
    weight = np.ones(n)
    weight[language] = coherence
    roi_ts = weight[:, None] * community_ts[community_of_roi]
    return roi_ts + cp.sigma_roi * rng.standard_normal((n, t_len))


def generate_healthy_subject(
    atlas: ToyAtlas,
    seed,
    cohort_params: CohortParams,
    subject_id: str = "healthy",
) -> HealthySubject:
    """Simulate one pre-lesion subject.

    The score is y0 = clip(mu + beta * m + eps, 0, 100), where m is the mean
    within-language-network connectivity measured through the same ROI-mean
    pipeline the model inputs use.
    """
    check_types(("atlas", atlas, ToyAtlas), ("cohort_params", cohort_params, CohortParams))
    check_seed("seed", seed, sequence=True)
    cp = cohort_params
    rng = np.random.default_rng(seed)
    roi_ts = _latent_roi_series(rng, atlas, cp)
    sizes = atlas.roi_sizes()
    sums = sizes[:, None] * roi_ts
    sums += (cp.sigma_voxel * np.sqrt(sizes))[:, None] * rng.standard_normal(roi_ts.shape)

    x = exponentiate(correlation_matrix(sums / sizes[:, None]))
    m = mean_language_connectivity(x, atlas, cp)
    y0 = float(np.clip(cp.score_mu + cp.score_beta * m + cp.score_eps * rng.standard_normal(),
                       0.0, 100.0))
    return HealthySubject(id=subject_id, roi_sums=sums, sigma_voxel=cp.sigma_voxel, y0=y0)


def lesioned_roi_series(healthy: HealthySubject, atlas: ToyAtlas, lesion: LesionMask,
                        seed) -> np.ndarray:
    """(N, Tlen) mean series of the voxels the lesion spares in each ROI.

    The lesioned voxels' sum is drawn given the healthy ROI sums from the
    `seed` stream and subtracted. ROIs the lesion misses keep their healthy
    mean exactly; ROIs it covers whole get an all-zero row.
    """
    check_types(("healthy", healthy, HealthySubject), ("atlas", atlas, ToyAtlas),
                ("lesion", lesion, LesionMask))
    check_seed("seed", seed, sequence=True)
    sums = healthy.roi_sums
    if sums.shape[0] != atlas.n_rois:
        raise InputError(f"healthy subject has {sums.shape[0]} ROIs, atlas {atlas.n_rois}")
    sizes = atlas.roi_sizes()
    cut = lesioned_counts(atlas, lesion)
    rng = np.random.default_rng(seed)
    spread = healthy.sigma_voxel * np.sqrt(cut * (sizes - cut) / sizes)
    removed = (cut / sizes)[:, None] * sums + spread[:, None] * rng.standard_normal(sums.shape)
    kept = sizes - cut
    series = np.zeros(sums.shape)
    alive = kept > 0
    series[alive] = (sums - removed)[alive] / kept[alive, None]
    return series


# ----------------------------------------------------------------------
# lesion growth
# ----------------------------------------------------------------------


def _bounded_draws(rng: np.random.Generator):
    """A `draw(n)` that returns what `rng.integers(n)` would, for 1 <= n < 2**32.

    numpy draws such an integer with Lemire's method on the next 32-bit
    output of the bit generator, and PCG64 (the `default_rng` generator)
    serves those as the low, then the high half of each 64-bit output. Here
    the halves come from blocks of `random_raw(512)` as Python ints, so a
    draw makes no numpy call. The blocks run ahead of the draws, so the
    generator must serve nothing else afterwards. n == 1 consumes nothing,
    as in numpy; any other n outside the range is an InputError.
    """
    bits = rng.bit_generator
    # little-endian words, so each output's low half comes first
    next_half = chain.from_iterable(
        iter(lambda: bits.random_raw(_RAW_BLOCK).astype("<u8").view("<u4").tolist(), None)
    ).__next__

    def draw(n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n < _TWO_32:
            raise InputError(f"bounded draws need a bound in [1, 2**32), got {n!r}")
        m = next_half() * n
        if m & _LOW_32 < n:
            threshold = _TWO_32 % n  # the rest of 2**32 is a multiple of n
            while m & _LOW_32 < threshold:
                m = next_half() * n
        return m >> 32

    return draw


def _stays_joined(grown: np.ndarray, vox: int) -> bool:
    """True when setting flat index `vox` of the C-order grid `grown` cannot
    split its unset voxels.

    Call it with `vox` set and away from the grid's faces. Two unset face
    neighbours vox + a and vox + b with a, b perpendicular are joined when
    the edge neighbour vox + a + b is unset too; True means every unset face
    neighbour is joined to every other that way, directly or through
    others. Then any unset path through `vox` has a detour around it, so no
    cavity appears. False decides nothing: the path may still close
    elsewhere.
    """
    sy = grown.shape[2]
    sx = grown.shape[1] * sy
    flat = grown.reshape(-1)
    open_faces = [step for step in (sx, -sx, sy, -sy, 1, -1) if not flat[vox + step]]
    joined = set(open_faces[:1])
    todo = list(joined)
    while todo:
        a = todo.pop()
        # for b == -a, vox + a + b is vox itself, which is set
        for b in open_faces:
            if b not in joined and not flat[vox + a + b]:
                joined.add(b)
                todo.append(b)
    return len(joined) == len(open_faces)


def grow_lesion(atlas: ToyAtlas, spec: LesionSpec) -> LesionMask:
    """Seeded region growing inside one left-hemisphere territory.

    Face-adjacent in-territory voxels are added in random frontier order;
    enclosed cavities are absorbed after every growth step. Growth tracks
    the filled size so the final mask lands on
    round(target_fraction * |territory|) up to a 2% slack; attempts whose
    last filling step overshoots the slack are regrown from the same random
    stream, keeping the result a pure function of the spec.

    The start voxel and every frontier pick are `rng.integers(k)` on the
    stream SeedSequence(spec.seed), drawn by `_bounded_draws` from the raw
    bits without a numpy call each.

    Growth runs on flat indices into the territory padded by one empty voxel,
    so neighbours need no bounds check. Any cavity is enclosed by grown
    voxels, so cavities are sought in the grown voxels' bounding box plus
    that one-voxel margin, which the padding keeps inside the grid. The
    margin is never grown, and a box shell is one face-connected set, so
    `fill_cavities` floods the ungrown voxels from the shell and sets every
    voxel the flood misses. The tests check the result against iterated hole
    filling on the box.

    A step that adds one voxel to a mask without cavities skips the flood
    when `_stays_joined` holds: the ungrown voxels stay one component, so
    the filled size rises by exactly one. Near the target every step adds
    one voxel, so most of those steps skip it.
    """
    check_types(("atlas", atlas, ToyAtlas), ("spec", spec, LesionSpec))
    if spec.territory not in atlas.left_territories():
        raise InputError(f"territory {spec.territory} is not a left-hemisphere territory")
    # C order, as np.argwhere gives; one byte per padded voxel, 1 where in territory
    territory_voxels, open_voxels = atlas.padded_territory(spec.territory)
    shape = tuple(d + 2 for d in atlas.grid_dims)
    territory_size = territory_voxels.size
    target = int(round(spec.target_fraction * territory_size))
    if target < 1 or target > territory_size:
        raise InputError(
            f"territory {spec.territory} ({territory_size} voxels) cannot host "
            f"a lesion of {target} voxels"
        )

    draw = _bounded_draws(np.random.default_rng(np.random.SeedSequence(spec.seed)))
    slack = int(np.ceil(HOLE_FILL_SLACK * target))
    sy, sx = shape[2], shape[1] * shape[2]
    steps = (sx, -sx, sy, -sy, 1, -1)  # +x, -x, +y, -y, +z, -z

    for _ in range(_MAX_GROW_ATTEMPTS):
        free = bytearray(open_voxels)  # in territory, neither grown nor queued
        grown = np.zeros(shape, dtype=bool)  # with its cavities filled
        start = int(territory_voxels[draw(territory_size)])
        free[start] = 0
        grown.flat[start] = True
        frontier = [start + step for step in steps if free[start + step]]
        for vox in frontier:
            free[vox] = 0
        lo = hi = np.unravel_index(start, shape)
        filled_count = 1
        while filled_count < target and frontier:
            # approach the target geometrically, one voxel at a time near the
            # end, so the final fill step closes at most a tiny pocket
            deficit = target - filled_count
            chunk = []
            for _ in range(max(1, deficit // 2) if deficit > slack else 1):
                if not frontier:
                    break
                pick = draw(len(frontier))
                vox = frontier[pick]
                frontier[pick] = frontier[-1]
                frontier.pop()
                chunk.append(vox)
                for step in steps:
                    if free[vox + step]:
                        free[vox + step] = 0
                        frontier.append(vox + step)
            if len(chunk) == 1 and grown.flat[chunk[0]]:
                continue  # a voxel of a filled cavity: the mask is unchanged
            grown.flat[chunk] = True
            chunk_xyz = np.unravel_index(chunk, shape)
            lo = np.minimum(lo, [a.min() for a in chunk_xyz])
            hi = np.maximum(hi, [a.max() for a in chunk_xyz])
            if len(chunk) == 1 and _stays_joined(grown, chunk[0]):
                filled_count += 1
                continue
            # filling a mask whose cavities are already filled gives the
            # same as filling the grown voxels alone
            box = tuple(slice(a - 1, b + 2) for a, b in zip(lo, hi))
            filled = fill_cavities(grown[box])
            if filled is not None:
                grown[box] = filled
            filled_count = int(np.count_nonzero(grown[box]))

        if 0 <= filled_count - target <= slack:
            return LesionMask(np.flatnonzero(grown[1:-1, 1:-1, 1:-1]), atlas.grid_dims)

    raise InputError(
        f"could not grow a lesion within the hole-fill slack after "
        f"{_MAX_GROW_ATTEMPTS} attempts (spec: {spec})"
    )


# ----------------------------------------------------------------------
# connectivity corruption and score rescaling
# ----------------------------------------------------------------------


def corrupt_connectivity(x: np.ndarray, p: np.ndarray, params: CohortParams, seed) -> np.ndarray:
    """Diminish and noise off-diagonal entries touching damaged ROIs.

    Entries (i, j) with min(p_i, p_j) < 1 become clip(X_ij^(min(p_i, p_j)^gamma)
    + eta_ij), gamma = params.corruption_gamma, with symmetric gaussian noise
    eta of scale params.corruption_sigma_rel * std(X) from SeedSequence(seed);
    clipping keeps the original [min X, max X] range. As X = exp(r), diminution
    shrinks the correlation r = log X toward 0 with its sign kept: a fully
    lesioned ROI (p = 0) goes to X = 1 plus noise. Intact pairs and the
    diagonal are untouched. A non-finite X, or a p entry outside [0, 1], is
    an InputError.
    """
    check_types(("X", x, np.ndarray), ("p", p, np.ndarray), ("params", params, CohortParams))
    n = x.shape[0] if x.ndim == 2 else 0
    if not n or x.shape != (n, n) or p.shape != (n,):
        raise InputError(f"need X (N, N) and p (N,) with N >= 1, got X {x.shape}, p {p.shape}")
    if x.dtype.kind not in "biuf" or p.dtype.kind not in "biuf":
        raise InputError(f"X and p must hold real numbers, got dtypes {x.dtype} and {p.dtype}")
    check_seed("seed", seed)
    lo, hi = x.min(), x.max()  # NaN if X holds one
    if not -np.inf < lo <= hi < np.inf:
        raise InputError("X has non-finite entries")
    if not 0.0 <= p.min() <= p.max() <= 1.0:  # NaN fails
        raise InputError(f"spared fractions p must lie in [0, 1], got [{p.min()}, {p.max()}]")
    pmin = np.minimum.outer(p, p)
    modified = pmin < 1.0
    np.fill_diagonal(modified, False)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = rng.standard_normal((n, n))
    eta = np.triu(noise, 1)
    eta = (eta + eta.T) * (params.corruption_sigma_rel * float(np.std(x)))

    with np.errstate(invalid="ignore"):
        damped = np.power(x, np.power(pmin, params.corruption_gamma)) + eta
    damped = np.clip(damped, lo, hi)
    return np.where(modified, damped, x)


def territory_spared_fraction(atlas: ToyAtlas, lesion: LesionMask) -> float:
    """Fraction of the lesioned territory's voxels outside the lesion."""
    return 1.0 - lesion.size / atlas.territory_size(lesion.territory(atlas))


def rescale_score(y0: float, atlas: ToyAtlas, lesion: LesionMask) -> float:
    """Scale the pre-lesion score, a finite number >= 0, by the territory's
    spared fraction."""
    check_number("y0", y0, 0)
    return float(y0) * territory_spared_fraction(atlas, lesion)


# ----------------------------------------------------------------------
# cohort assembly
# ----------------------------------------------------------------------


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def lesion_subject(healthy: HealthySubject, atlas: ToyAtlas, spec: LesionSpec,
                   params: CohortParams, corruption_seed) -> tuple[SubjectRecord, LesionMask]:
    """Apply one artificial lesion to a healthy subject.

    The mask comes from `grow_lesion`'s stream SeedSequence(spec.seed), the
    lesioned voxels' signal from the independent SeedSequence((spec.seed, 1))
    and the connectivity noise, set by `params`' corruption_* fields, from
    SeedSequence(corruption_seed); the record is a pure function of these.
    """
    lesion = grow_lesion(atlas, spec)
    ts = lesioned_roi_series(healthy, atlas, lesion, np.random.SeedSequence((spec.seed, 1)))
    x = exponentiate(correlation_matrix(ts))
    encoding = spared_fractions(atlas, lesion)
    x = corrupt_connectivity(x, encoding.p, params, corruption_seed)
    y = rescale_score(healthy.y0, atlas, lesion)
    record = SubjectRecord(id=healthy.id, x=x, lesion=encoding, y=y)
    return record, lesion


def generate_cohort(
    n: int,
    atlas: ToyAtlas,
    master_seed: int,
    cohort_params: CohortParams | None = None,
    policy: LesionPolicy | None = None,
) -> tuple[list[SubjectRecord], dict]:
    """Run the full pipeline for `n` subjects and return records + manifest.

    Every subject derives its own random streams from
    (master_seed, subject index, stage), so generation is order-independent
    and reproducible byte-for-byte.
    """
    check_number("cohort size", n, 1, integral=True)
    check_seed("master_seed", master_seed)
    policy = POLICIES["hcp-sl"] if policy is None else policy
    params = CohortParams() if cohort_params is None else cohort_params
    check_types(("atlas", atlas, ToyAtlas), ("cohort_params", params, CohortParams),
                ("policy", policy, LesionPolicy))
    if policy.score_mu is not None:
        params = replace(params, score_mu=policy.score_mu)

    left = atlas.left_territories()
    if not left:
        raise InputError("atlas has no left-hemisphere territories")

    records: list[SubjectRecord] = []
    manifest_subjects = []
    for i in range(n):
        subject_id = f"{policy.name}-{i:04d}"
        draw_rng = np.random.default_rng(np.random.SeedSequence((master_seed, i, 0)))
        territory = int(draw_rng.choice(left))
        fraction = float(draw_rng.uniform(*policy.fraction_range))
        spec = LesionSpec(territory=territory, target_fraction=fraction,
                          seed=_derived_seed(master_seed, i, 1))
        corruption_seed = _derived_seed(master_seed, i, 2)
        healthy = generate_healthy_subject(
            atlas, np.random.SeedSequence((master_seed, i, 3)), params, subject_id)
        record, lesion = lesion_subject(healthy, atlas, spec, params, corruption_seed)
        records.append(record)
        manifest_subjects.append({
            "id": subject_id,
            "territory": territory,
            "target_fraction": fraction,
            "lesion_seed": spec.seed,
            "corruption_seed": corruption_seed,
            "lesion_size": lesion.size,
            "territory_spared": territory_spared_fraction(atlas, lesion),
            "y0": healthy.y0,
            "y": record.y,
        })

    manifest = {
        "master_seed": int(master_seed),
        "n": int(n),
        "policy": {
            "name": policy.name,
            "fraction_range": list(policy.fraction_range),
            "score_mu": policy.score_mu,
        },
        "cohort_params": asdict(params),
        "atlas": {
            "grid_dims": list(atlas.grid_dims),
            "n_rois": atlas.n_rois,
            "n_territories": atlas.n_territories,
        },
        "subjects": manifest_subjects,
    }
    return records, manifest
