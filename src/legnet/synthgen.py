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
arterial territory, then hole-filled so the mask is simply connected.
Lesioning a subject also diminishes and noises connectivity entries touching
damaged ROIs as X'_ij = clip(X_ij^(min(p_i,p_j)^gamma) + eta_ij, min X, max X)
(diminution shrinks the correlation log X toward 0), and rescales the
language score by the territory's spared fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .connectome import (
    FACE_STRUCTURE,
    InputError,
    LesionEncoding,
    LesionMask,
    SubjectRecord,
    ToyAtlas,
    check_number,
    correlation_matrix,
    exponentiate,
    lesioned_counts,
    spared_fractions,
)

FRACTION_MIN = 0.05
FRACTION_MAX = 0.20
HOLE_FILL_SLACK = 0.02  # relative overshoot allowed from cavity filling
_MAX_GROW_ATTEMPTS = 64


class LesionSpecError(ValueError):
    """The requested lesion cannot be grown in the given territory."""


@dataclass(frozen=True)
class LesionSpec:
    territory: int
    target_fraction: float
    seed: int

    def __post_init__(self):
        if not (FRACTION_MIN <= self.target_fraction <= FRACTION_MAX):
            raise LesionSpecError(
                f"target_fraction {self.target_fraction} outside "
                f"[{FRACTION_MIN}, {FRACTION_MAX}]"
            )


@dataclass(frozen=True)
class CorruptionParams:
    """Connectivity corruption: X'_ij = clip(X_ij^(min(p_i,p_j)^gamma) + eta).

    Since X = exp(r), the power scales the correlation r = log X toward 0.
    """

    gamma: float = 1.0
    sigma_rel: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_number("gamma", self.gamma, 0)
        check_number("sigma_rel", self.sigma_rel, 0)


@dataclass(frozen=True)
class CohortParams:
    """Healthy-signal model and score model for one synthetic cohort."""

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
        # community 0 is the language network; the others need at least one
        for name, low in (("t_len", 2), ("n_communities", 2), ("language_territory", 1)):
            check_number(name, getattr(self, name), low, integral=True)
        for name in ("sigma_roi", "sigma_voxel", "score_eps", "corruption_gamma",
                     "corruption_sigma_rel"):
            check_number(name, getattr(self, name), 0)
        for name in ("score_mu", "score_beta"):
            check_number(name, getattr(self, name))
        low, high = self.coherence_range
        for value in (low, high):
            check_number("coherence_range", value)
        if low > high:
            raise InputError(f"coherence_range {self.coherence_range} is inverted")


@dataclass(frozen=True)
class LesionPolicy:
    """Cohort flavor: lesion-size distribution and score offset."""

    name: str
    fraction_range: tuple[float, float] = (FRACTION_MIN, FRACTION_MAX)
    score_mu: float | None = None  # overrides CohortParams.score_mu when set

    def __post_init__(self):
        if self.score_mu is not None:
            check_number("score_mu", self.score_mu)
        low, high = self.fraction_range
        if not FRACTION_MIN <= low <= high <= FRACTION_MAX:
            raise InputError(f"fraction_range {self.fraction_range} must be ordered and "
                             f"inside [{FRACTION_MIN}, {FRACTION_MAX}]")


POLICIES = {
    "hcp-sl": LesionPolicy(name="hcp-sl"),
    "ds1-like": LesionPolicy(name="ds1-like"),
    "ds2-like": LesionPolicy(name="ds2-like", fraction_range=(0.08, 0.20), score_mu=27.0),
}


def policy_by_name(name: str) -> LesionPolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise InputError(f"unknown lesion policy {name!r}; choices: {sorted(POLICIES)}")


@dataclass(eq=False)
class HealthySubject:
    """A pre-lesion subject: the (N, Tlen) sums of its ROIs' voxel signals,
    the voxel noise scale they were drawn with, and the score y0.

    Lesioning conditions on these sums (`lesioned_roi_series`), so any
    number of lesions can be applied to one healthy subject.
    """

    id: str
    roi_sums: np.ndarray  # (n_rois, t_len)
    sigma_voxel: float
    y0: float


def _language_rois(atlas: ToyAtlas, params: CohortParams) -> np.ndarray:
    rois = np.unique(atlas.roi_of_voxel[atlas.territory_of_voxel == params.language_territory])
    rois = rois[rois > 0]
    if rois.size < 2:
        raise InputError("language territory must contain at least two ROIs")
    return rois - 1  # 0-based matrix indices


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


def grow_lesion(atlas: ToyAtlas, spec: LesionSpec) -> LesionMask:
    """Seeded region growing inside one left-hemisphere territory.

    Face-adjacent in-territory voxels are added in random frontier order;
    enclosed cavities are absorbed by hole filling. Growth tracks the
    hole-filled size so the final mask lands on
    round(target_fraction * |territory|) up to a 2% slack; attempts whose
    last filling step overshoots the slack are regrown from the same random
    stream, keeping the result a pure function of the spec.

    Growth runs on flat indices into the territory padded by one empty voxel,
    so neighbours need no bounds check. Any cavity is enclosed by grown
    voxels, so hole filling runs on the grown voxels' bounding box plus that
    one-voxel margin, which the padding keeps inside the grid.
    """
    if spec.territory not in atlas.left_territories():
        raise LesionSpecError(f"territory {spec.territory} is not a left-hemisphere territory")
    padded = np.pad(atlas.territory_of_voxel == spec.territory, 1)
    territory_voxels = np.flatnonzero(padded)  # C order, as np.argwhere gives
    territory_size = territory_voxels.size
    target = int(round(spec.target_fraction * territory_size))
    if target < 1 or target > territory_size:
        raise LesionSpecError(
            f"territory {spec.territory} ({territory_size} voxels) cannot host "
            f"a lesion of {target} voxels"
        )

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    slack = int(np.ceil(HOLE_FILL_SLACK * target))
    sy, sx = padded.shape[2], padded.shape[1] * padded.shape[2]
    steps = (sx, -sx, sy, -sy, 1, -1)  # +x, -x, +y, -y, +z, -z
    open_voxels = padded.tobytes()  # 1 where in territory

    for _ in range(_MAX_GROW_ATTEMPTS):
        free = bytearray(open_voxels)  # in territory, neither grown nor queued
        grown = np.zeros(padded.shape, dtype=bool)  # with its cavities filled
        start = int(territory_voxels[rng.integers(territory_size)])
        free[start] = 0
        grown.flat[start] = True
        frontier = [start + step for step in steps if free[start + step]]
        for vox in frontier:
            free[vox] = 0
        lo = hi = np.unravel_index(start, padded.shape)
        filled_count = 1
        while filled_count < target and frontier:
            # approach the target geometrically, one voxel at a time near the
            # end, so the final fill step closes at most a tiny pocket
            deficit = target - filled_count
            chunk = []
            for _ in range(max(1, deficit // 2) if deficit > slack else 1):
                if not frontier:
                    break
                pick = int(rng.integers(len(frontier)))
                vox = frontier[pick]
                frontier[pick] = frontier[-1]
                frontier.pop()
                chunk.append(vox)
                for step in steps:
                    if free[vox + step]:
                        free[vox + step] = 0
                        frontier.append(vox + step)
            grown.flat[chunk] = True
            chunk_xyz = np.unravel_index(chunk, padded.shape)
            lo = np.minimum(lo, [a.min() for a in chunk_xyz])
            hi = np.maximum(hi, [a.max() for a in chunk_xyz])
            # filling a mask whose cavities are already filled gives the
            # same as filling the grown voxels alone
            box = tuple(slice(a - 1, b + 2) for a, b in zip(lo, hi))
            grown[box] = ndimage.binary_fill_holes(grown[box], structure=FACE_STRUCTURE)
            filled_count = int(np.count_nonzero(grown[box]))

        if 0 <= filled_count - target <= slack:
            return LesionMask(voxels=frozenset(map(tuple, (np.argwhere(grown) - 1).tolist())))

    raise LesionSpecError(
        f"could not grow a lesion within the hole-fill slack after "
        f"{_MAX_GROW_ATTEMPTS} attempts (spec: {spec})"
    )


# ----------------------------------------------------------------------
# connectivity corruption and score rescaling
# ----------------------------------------------------------------------


def corrupt_connectivity(
    x: np.ndarray,
    lesion: LesionEncoding | np.ndarray,
    cp: CorruptionParams,
) -> np.ndarray:
    """Diminish and noise off-diagonal entries touching damaged ROIs.

    Entries (i, j) with min(p_i, p_j) < 1 become
    clip(X_ij^(min(p_i, p_j)^gamma) + eta_ij) with symmetric gaussian noise
    of scale sigma_rel * std(X); clipping keeps the original [min X, max X]
    range. As X = exp(r), diminution shrinks the correlation r = log X toward
    0 with its sign kept: a fully lesioned ROI (p = 0) goes to X = 1 plus
    noise. Intact pairs and the diagonal are untouched.
    """
    p = lesion.p if isinstance(lesion, LesionEncoding) else np.asarray(lesion, dtype=float)
    n = x.shape[0]
    if x.shape != (n, n) or p.shape != (n,):
        raise InputError(f"shape mismatch: X {x.shape}, p {p.shape}")
    pmin = np.minimum.outer(p, p)
    modified = pmin < 1.0
    np.fill_diagonal(modified, False)
    if not modified.any():
        return x.copy()

    rng = np.random.default_rng(np.random.SeedSequence(cp.seed))
    noise = rng.standard_normal((n, n))
    eta = np.triu(noise, 1)
    eta = (eta + eta.T) * (cp.sigma_rel * float(np.std(x)))

    with np.errstate(invalid="ignore"):
        damped = np.power(x, np.power(pmin, cp.gamma)) + eta
    damped = np.clip(damped, x.min(), x.max())
    return np.where(modified, damped, x)


def territory_spared_fraction(atlas: ToyAtlas, lesion: LesionMask) -> float:
    """Fraction of the lesioned territory's voxels outside the lesion."""
    territory = lesion.territory(atlas)
    size = atlas.territory_size(territory)
    return 1.0 - lesion.size / size


def rescale_score(y0: float, atlas: ToyAtlas, lesion: LesionMask) -> float:
    """Scale the pre-lesion score by the territory's spared fraction."""
    return float(y0) * territory_spared_fraction(atlas, lesion)


# ----------------------------------------------------------------------
# cohort assembly
# ----------------------------------------------------------------------


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def lesion_subject(
    healthy: HealthySubject,
    atlas: ToyAtlas,
    spec: LesionSpec,
    corruption: CorruptionParams,
) -> tuple[SubjectRecord, LesionMask]:
    """Apply one artificial lesion to a healthy subject.

    The mask comes from `grow_lesion`'s stream SeedSequence(spec.seed) and the
    lesioned voxels' signal from the independent SeedSequence((spec.seed, 1)),
    so the record is a pure function of the healthy subject and the spec.
    """
    lesion = grow_lesion(atlas, spec)
    ts = lesioned_roi_series(healthy, atlas, lesion, np.random.SeedSequence((spec.seed, 1)))
    x = exponentiate(correlation_matrix(ts))
    encoding = spared_fractions(atlas, lesion)
    x = corrupt_connectivity(x, encoding, corruption)
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
    policy = policy or POLICIES["hcp-sl"]
    params = cohort_params or CohortParams()
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
        corruption = CorruptionParams(gamma=params.corruption_gamma,
                                      sigma_rel=params.corruption_sigma_rel,
                                      seed=_derived_seed(master_seed, i, 2))
        healthy = generate_healthy_subject(
            atlas, np.random.SeedSequence((master_seed, i, 3)), params, subject_id)
        record, lesion = lesion_subject(healthy, atlas, spec, corruption)
        records.append(record)
        manifest_subjects.append({
            "id": subject_id,
            "territory": territory,
            "target_fraction": fraction,
            "lesion_seed": spec.seed,
            "corruption_seed": corruption.seed,
            "lesion_size": lesion.size,
            "territory_spared": territory_spared_fraction(atlas, lesion),
            "y0": healthy.y0,
            "y": record.y,
        })

    manifest = {
        "master_seed": master_seed,
        "n": n,
        "policy": {
            "name": policy.name,
            "fraction_range": list(policy.fraction_range),
            "score_mu": policy.score_mu,
        },
        "cohort_params": {f.name: getattr(params, f.name)
                          for f in params.__dataclass_fields__.values()},
        "atlas": {
            "grid_dims": list(atlas.grid_dims),
            "n_rois": atlas.n_rois,
            "n_territories": atlas.n_territories,
        },
        "subjects": manifest_subjects,
    }
    return records, manifest
