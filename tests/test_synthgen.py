import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from legnet import synthgen
from legnet.connectome import (
    FACE_STRUCTURE,
    InputError,
    LesionEncoding,
    LesionMask,
    ToyAtlas,
    build_toy_atlas,
    lesioned_counts,
    save_cohort,
)
from legnet.synthgen import (
    FRACTION_MAX,
    FRACTION_MIN,
    CohortParams,
    CorruptionParams,
    LesionPolicy,
    LesionSpec,
    LesionSpecError,
    corrupt_connectivity,
    generate_cohort,
    generate_healthy_subject,
    grow_lesion,
    lesioned_roi_series,
    policy_by_name,
    rescale_score,
    territory_spared_fraction,
)


@pytest.fixture(scope="module")
def atlas():
    return build_toy_atlas(n_rois=24, grid_dims=(16, 16, 12), n_territories=6)


@pytest.fixture(scope="module")
def cohort_params():
    return CohortParams(t_len=60)


def cohort_bytes(records):
    import tempfile, os
    with tempfile.NamedTemporaryFile(delete=False) as fh:
        path = fh.name
    try:
        save_cohort(path, records)
        with open(path, "rb") as fh:
            return fh.read()
    finally:
        os.unlink(path)


class TestLesionSpec:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(LesionSpecError):
            LesionSpec(territory=1, target_fraction=0.03, seed=0)
        with pytest.raises(LesionSpecError):
            LesionSpec(territory=1, target_fraction=0.25, seed=0)

    def test_right_territory_rejected(self, atlas):
        with pytest.raises(LesionSpecError):
            grow_lesion(atlas, LesionSpec(territory=5, target_fraction=0.1, seed=0))

    def test_too_small_territory_rejected(self):
        tiny = build_toy_atlas(n_rois=6, grid_dims=(4, 4, 3), n_territories=6)
        # territories have 8 voxels; 5% rounds to zero target voxels
        with pytest.raises(LesionSpecError):
            grow_lesion(tiny, LesionSpec(territory=1, target_fraction=0.05, seed=0))


class TestGrowLesion:
    def test_determinism(self, atlas):
        spec = LesionSpec(territory=2, target_fraction=0.12, seed=42)
        assert grow_lesion(atlas, spec).voxels == grow_lesion(atlas, spec).voxels

    def test_mask_invariants_and_size(self, atlas):
        rng = np.random.default_rng(5)
        for _ in range(25):
            territory = int(rng.choice(atlas.left_territories()))
            fraction = float(rng.uniform(0.05, 0.20))
            spec = LesionSpec(territory=territory, target_fraction=fraction,
                              seed=int(rng.integers(1 << 31)))
            mask = grow_lesion(atlas, spec)
            mask.validate(atlas)  # left hemisphere, one territory, connected, no holes
            assert mask.territory(atlas) == territory
            tsize = atlas.territory_size(territory)
            target = round(fraction * tsize)
            assert 0 <= mask.size - target <= np.ceil(0.02 * target)

    def test_target_size_near_minimum(self, atlas):
        tsize = atlas.territory_size(1)
        mask = grow_lesion(atlas, LesionSpec(territory=1, target_fraction=0.05, seed=7))
        assert mask.size == pytest.approx(0.05 * tsize, abs=np.ceil(0.02 * 0.05 * tsize) + 0.5)

    def test_one_voxel_lesion_is_the_start_voxel(self):
        # territories of 12 voxels: a 5% lesion is one voxel, so the growth
        # loop never runs and the mask is the first draw's voxel
        tiny = build_toy_atlas(n_rois=6, grid_dims=(6, 4, 3), n_territories=6)
        for territory in tiny.left_territories():
            assert round(0.05 * tiny.territory_size(territory)) == 1
            voxels = np.argwhere(tiny.territory_of_voxel == territory)
            for seed in range(8):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                start = tuple(voxels[rng.integers(len(voxels))].tolist())
                mask = grow_lesion(tiny, LesionSpec(territory, 0.05, seed))
                assert mask.voxels == {start}
                mask.validate(tiny)


# ----------------------------------------------------------------------
# lesion growth against a straightforward reference implementation
# ----------------------------------------------------------------------


def _reference_grow_lesion(atlas, spec):
    """Region growing on voxel tuples with bounds checks, hole filling on the
    territory's box at every step. Returns (voxels, attempts), or the
    exception type when no attempt lands within the slack."""
    in_territory = atlas.territory_of_voxel == spec.territory
    territory_voxels = np.argwhere(in_territory)
    territory_size = territory_voxels.shape[0]
    target = int(round(spec.target_fraction * territory_size))
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    dims = atlas.grid_dims
    slack = int(np.ceil(synthgen.HOLE_FILL_SLACK * target))
    lo = np.maximum(territory_voxels.min(axis=0) - 1, 0)
    hi = np.minimum(territory_voxels.max(axis=0) + 2, dims)
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))

    for attempt in range(1, synthgen._MAX_GROW_ATTEMPTS + 1):
        grown = np.zeros(dims, dtype=bool)
        start = tuple(int(v) for v in territory_voxels[rng.integers(territory_size)])
        grown[start] = True
        frontier, in_frontier = [], set()

        def push_neighbors(vox):
            x, y, z = vox
            for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                cand = (x + dx, y + dy, z + dz)
                if all(0 <= c < d for c, d in zip(cand, dims)):
                    if in_territory[cand] and not grown[cand] and cand not in in_frontier:
                        in_frontier.add(cand)
                        frontier.append(cand)

        push_neighbors(start)
        filled_count = 1
        filled_box = grown[box]
        while filled_count < target and frontier:
            deficit = target - filled_count
            for _ in range(max(1, deficit // 2) if deficit > slack else 1):
                if not frontier:
                    break
                pick = int(rng.integers(len(frontier)))
                vox = frontier[pick]
                frontier[pick] = frontier[-1]
                frontier.pop()
                in_frontier.discard(vox)
                grown[vox] = True
                push_neighbors(vox)
            filled_box = ndimage.binary_fill_holes(grown[box], structure=FACE_STRUCTURE)
            filled_count = int(filled_box.sum())

        if 0 <= filled_count - target <= slack:
            filled = np.zeros(dims, dtype=bool)
            filled[box] = filled_box
            return frozenset(map(tuple, np.argwhere(filled).tolist())), attempt
    return LesionSpecError, synthgen._MAX_GROW_ATTEMPTS


def _padded_atlas(atlas, pad):
    """The atlas inside a background margin, so no territory meets the grid edge."""
    roi, terr, hemi = (np.pad(a, pad) for a in (atlas.roi_of_voxel, atlas.territory_of_voxel,
                                                  atlas.hemisphere_of_voxel))
    padded = ToyAtlas(grid_dims=roi.shape, roi_of_voxel=roi, territory_of_voxel=terr,
                      hemisphere_of_voxel=hemi, n_rois=atlas.n_rois,
                      n_territories=atlas.n_territories)
    padded.validate()
    return padded


class TestGrowLesionOracle:
    """`grow_lesion` returns the reference's voxels spec for spec: the same
    random stream, the same frontier order and the same hole-filled sizes."""

    N_SPECS = 100

    @staticmethod
    def specs(atlas, count, seed):
        rng = np.random.default_rng(seed)
        left = atlas.left_territories()
        return [LesionSpec(territory=int(rng.choice(left)),
                           target_fraction=float(rng.uniform(FRACTION_MIN, FRACTION_MAX)),
                           seed=int(rng.integers(1 << 31))) for _ in range(count)]

    @staticmethod
    def outcome(atlas, spec):
        try:
            return grow_lesion(atlas, spec).voxels
        except LesionSpecError:
            return LesionSpecError

    @pytest.fixture(scope="class", params=["90 ROIs, 32^3", "90 ROIs, 16^3", "12 ROIs, 8^3",
                                           "padded 90 ROIs, 16^3"])
    def oracle_atlas(self, request):
        return {
            "90 ROIs, 32^3": lambda: build_toy_atlas(n_rois=90, grid_dims=(32, 32, 32)),
            "90 ROIs, 16^3": lambda: build_toy_atlas(n_rois=90, grid_dims=(16, 16, 16)),
            "12 ROIs, 8^3": lambda: build_toy_atlas(n_rois=12, grid_dims=(8, 8, 8)),
            "padded 90 ROIs, 16^3": lambda: _padded_atlas(
                build_toy_atlas(n_rois=90, grid_dims=(16, 16, 16)), ((1, 2), (2, 1), (1, 3))),
        }[request.param]()

    def test_same_voxels(self, oracle_atlas):
        for spec in self.specs(oracle_atlas, self.N_SPECS, seed=17):
            want, _ = _reference_grow_lesion(oracle_atlas, spec)
            assert self.outcome(oracle_atlas, spec) == want, spec

    def test_same_voxels_when_attempts_are_retried(self, monkeypatch):
        # with no slack, an attempt whose last fill overshoots by one voxel
        # is regrown from the same stream
        monkeypatch.setattr(synthgen, "HOLE_FILL_SLACK", 0.0)
        atlas = build_toy_atlas(n_rois=90, grid_dims=(32, 32, 32))
        retried = 0
        for spec in self.specs(atlas, self.N_SPECS, seed=23):
            want, attempts = _reference_grow_lesion(atlas, spec)
            retried += attempts > 1
            assert self.outcome(atlas, spec) == want, spec
        assert retried >= 3


class TestCorruptConnectivity:
    def x_fixture(self):
        rng = np.random.default_rng(0)
        corr = rng.uniform(-0.9, 0.9, (5, 5))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        return np.exp(corr)

    def test_intact_subject_unchanged(self):
        x = self.x_fixture()
        out = corrupt_connectivity(x, np.ones(5), CorruptionParams(seed=3))
        assert np.array_equal(out, x)

    def test_deterministic_diminution(self):
        x = self.x_fixture()
        p = np.array([0.5, 1.0, 1.0, 1.0, 1.0])
        out = corrupt_connectivity(x, p, CorruptionParams(gamma=1.0, sigma_rel=0.0, seed=0))
        expected = np.clip(x[0, 1] ** 0.5, x.min(), x.max())
        assert out[0, 1] == pytest.approx(expected)
        # without noise, every damaged pair keeps the sign of its correlation
        # log X and moves no further from 0
        damaged = np.minimum.outer(p, p) < 1.0
        np.fill_diagonal(damaged, False)
        r, r_out = np.log(x[damaged]), np.log(out[damaged])
        assert np.all(np.sign(r_out) == np.sign(r))
        assert np.all(np.abs(r_out) <= np.abs(r))
        assert out[2, 3] == x[2, 3]

    def test_range_symmetry_and_modified_set(self):
        x = self.x_fixture()
        p = np.array([0.0, 0.4, 1.0, 1.0, 0.9])
        out = corrupt_connectivity(x, LesionEncoding(p=p),
                                   CorruptionParams(gamma=1.0, sigma_rel=0.2, seed=9))
        assert np.array_equal(out, out.T)
        assert out.min() >= x.min() and out.max() <= x.max()
        pmin = np.minimum.outer(p, p)
        # intact off-diagonal pairs and the diagonal are untouched
        untouched = (pmin >= 1.0) | np.eye(5, dtype=bool)
        assert np.array_equal(out[untouched], x[untouched])
        # every damaged pair is actually rewritten (noise makes ties unlikely)
        assert np.all(out[~untouched] != x[~untouched])

    def test_same_seed_same_noise(self):
        x = self.x_fixture()
        p = np.array([0.2, 1.0, 0.7, 1.0, 1.0])
        cp = CorruptionParams(sigma_rel=0.3, seed=21)
        assert np.array_equal(corrupt_connectivity(x, p, cp), corrupt_connectivity(x, p, cp))


class TestRescaleScore:
    def test_scales_by_spared_fraction(self, atlas):
        mask = grow_lesion(atlas, LesionSpec(territory=3, target_fraction=0.1, seed=11))
        s = territory_spared_fraction(atlas, mask)
        tsize = atlas.territory_size(3)
        assert s == pytest.approx(1.0 - mask.size / tsize)
        assert rescale_score(80.0, atlas, mask) == pytest.approx(80.0 * s)

    def test_multiplication_example(self, atlas):
        mask = grow_lesion(atlas, LesionSpec(territory=1, target_fraction=0.1, seed=3))
        y = rescale_score(80.0, atlas, mask)
        assert 0.0 <= y <= 80.0

    def test_monotone_in_lesion_size(self, atlas):
        # nested boxes inside territory 1: a larger lesion never scores higher
        vox = np.argwhere(atlas.territory_of_voxel == 1)
        x0, y0, z0 = vox.min(axis=0)
        small = LesionMask(frozenset(
            (x, y, z) for x in range(x0, x0 + 2) for y in range(y0, y0 + 3)
            for z in range(z0, z0 + 2)))
        big = LesionMask(small.voxels | frozenset(
            (x, y, z) for x in range(x0, x0 + 4) for y in range(y0, y0 + 3)
            for z in range(z0, z0 + 2)))
        small.validate(atlas)
        big.validate(atlas)
        assert rescale_score(70.0, atlas, big) <= rescale_score(70.0, atlas, small)


class TestHealthySubjects:
    def test_same_seed_identical_subject(self, atlas, cohort_params):
        a = generate_healthy_subject(atlas, 123, cohort_params)
        b = generate_healthy_subject(atlas, 123, cohort_params)
        assert a.y0 == b.y0
        assert a.roi_sums.tobytes() == b.roi_sums.tobytes()

    def test_degenerate_cohort_is_constant(self, atlas, cohort_params):
        from dataclasses import replace
        flat = replace(cohort_params, score_beta=0.0, score_eps=0.0, score_mu=55.0)
        scores = [generate_healthy_subject(atlas, seed, flat).y0 for seed in range(5)]
        assert scores == [55.0] * 5

    def test_connectivity_drives_scores(self, atlas, cohort_params):
        from legnet.connectome import correlation_matrix, exponentiate
        from legnet.synthgen import mean_language_connectivity
        ms, y0s = [], []
        for i in range(200):
            hs = generate_healthy_subject(atlas, np.random.SeedSequence((7, i)), cohort_params)
            ts = hs.roi_sums / atlas.roi_sizes()[:, None]
            x = exponentiate(correlation_matrix(ts))
            ms.append(mean_language_connectivity(x, atlas, cohort_params))
            y0s.append(hs.y0)
        assert np.corrcoef(ms, y0s)[0, 1] > 0.5


class TestGenerateCohort:
    def test_deterministic_bytes(self, atlas, cohort_params):
        a, _ = generate_cohort(3, atlas, master_seed=5, cohort_params=cohort_params)
        b, _ = generate_cohort(3, atlas, master_seed=5, cohort_params=cohort_params)
        assert cohort_bytes(a) == cohort_bytes(b)

    def test_lesioned_scores_never_exceed_healthy(self, atlas, cohort_params):
        records, manifest = generate_cohort(12, atlas, master_seed=6,
                                            cohort_params=cohort_params)
        for rec, meta in zip(records, manifest["subjects"]):
            assert rec.y <= meta["y0"]
            assert rec.id == meta["id"]

    def test_spared_fraction_predicts_score(self, atlas, cohort_params):
        records, manifest = generate_cohort(100, atlas, master_seed=11,
                                            cohort_params=cohort_params)
        spared = [s["territory_spared"] for s in manifest["subjects"]]
        ys = [r.y for r in records]
        assert np.corrcoef(spared, ys)[0, 1] > 0.5

    def test_records_are_valid_model_inputs(self, atlas, cohort_params):
        from legnet.connectome import validate_connectivity
        records, _ = generate_cohort(4, atlas, master_seed=8, cohort_params=cohort_params)
        for rec in records:
            rec.validate()
            validate_connectivity(rec.x)
            rec.lesion.validate()
            assert rec.x.shape == (atlas.n_rois, atlas.n_rois)

    def test_ds2_policy_shifts_scores_down(self, atlas, cohort_params):
        base, _ = generate_cohort(30, atlas, master_seed=9, cohort_params=cohort_params,
                                  policy=policy_by_name("ds1-like"))
        shifted, _ = generate_cohort(30, atlas, master_seed=9, cohort_params=cohort_params,
                                     policy=policy_by_name("ds2-like"))
        assert np.mean([r.y for r in shifted]) < np.mean([r.y for r in base])

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_cohort_size_must_be_a_positive_integer(self, atlas, n):
        # 2.5 used to raise TypeError from range()
        with pytest.raises(InputError, match="cohort size"):
            generate_cohort(n, atlas, master_seed=0)

    def test_unknown_policy_rejected(self):
        from legnet.connectome import InputError
        with pytest.raises(InputError):
            policy_by_name("nope")

    @pytest.mark.parametrize("fraction_range", [
        (0.3, 0.5), (0.15, 0.10), (FRACTION_MIN - 0.01, FRACTION_MAX)])
    def test_policy_checks_its_fraction_range(self, fraction_range):
        # (0.3, 0.5) used to construct, then raise LesionSpecError in generate_cohort
        with pytest.raises(InputError, match="fraction_range"):
            LesionPolicy("x", fraction_range)
        LesionPolicy("x", (FRACTION_MIN, FRACTION_MIN))


# ----------------------------------------------------------------------
# the voxel model: every voxel signal drawn, then reduced per ROI
# ----------------------------------------------------------------------


def _reference_healthy_subject(atlas, seed, cp):
    """Voxel v of ROI i carries roi_ts_i + sigma_voxel * eps_v; S_i sums them."""
    rng = np.random.default_rng(seed)
    roi_ts = synthgen._latent_roi_series(rng, atlas, cp)
    labels = atlas.roi_of_voxel
    inside = labels > 0
    volume = np.zeros(atlas.grid_dims + (cp.t_len,))
    volume[inside] = roi_ts[labels[inside] - 1]
    volume[inside] += cp.sigma_voxel * rng.standard_normal((int(inside.sum()), cp.t_len))
    sums = np.stack([volume[labels == roi].sum(axis=0) for roi in range(1, atlas.n_rois + 1)])
    return SimpleNamespace(volume_ts=volume, roi_sums=sums)


def _reference_spared_sums(healthy, atlas, lesion):
    """(N, Tlen) sums of each ROI's voxels outside the lesion."""
    spared = ~lesion.to_dense(atlas.grid_dims)
    return np.stack([healthy.volume_ts[(atlas.roi_of_voxel == roi) & spared].sum(axis=0)
                     for roi in range(1, atlas.n_rois + 1)])


class TestVoxelModelMoments:
    """S and the spared remainder R of the generator and of the voxel model
    against the analytic moments given fixed ROI series c_i: S_i has mean
    n_i c_i and variance sigma^2 n_i, R_i mean (n_i - k_i) c_i, variance and
    covariance with S_i sigma^2 (n_i - k_i). Time points are independent
    samples; every moment must lie within 5 standard errors."""

    T_LEN = 10_000
    SIGMA = 1.5
    LEVELS = np.linspace(-1.0, 1.0, 12)  # c_i

    @pytest.fixture(scope="class")
    def small(self):
        # two ROIs of 8 and 12 voxels per territory; the lesion covers all
        # of ROI 1, 3 voxels of ROI 2 and 5 of ROI 3
        atlas = build_toy_atlas(n_rois=12, grid_dims=(8, 5, 3), n_territories=6)
        voxels = [np.argwhere(atlas.roi_of_voxel == roi)[:k] for roi, k in ((1, 8), (2, 3), (3, 5))]
        lesion = LesionMask(frozenset(map(tuple, np.concatenate(voxels).tolist())))
        return atlas, lesion

    def draw(self, build, atlas, lesion, kept, monkeypatch):
        """(S, R), each (N, T_LEN), from the generator or the voxel model."""
        monkeypatch.setattr(synthgen, "_latent_roi_series", lambda rng, atlas, cp:
                            np.repeat(self.LEVELS[:, None], cp.t_len, axis=1))
        cp = CohortParams(t_len=self.T_LEN, sigma_voxel=self.SIGMA)
        if build == "voxel model":
            healthy = _reference_healthy_subject(atlas, 1, cp)
            return healthy.roi_sums, _reference_spared_sums(healthy, atlas, lesion)
        healthy = generate_healthy_subject(atlas, 1, cp)
        return healthy.roi_sums, lesioned_roi_series(healthy, atlas, lesion, 2) * kept[:, None]

    @pytest.mark.parametrize("build", ["generator", "voxel model"])
    def test_sums_and_spared_remainder(self, small, build, monkeypatch):
        atlas, lesion = small
        n = atlas.roi_sizes().astype(float)
        kept = n - lesioned_counts(atlas, lesion)
        s, r = self.draw(build, atlas, lesion, kept, monkeypatch)
        levels = self.LEVELS
        var_s, var_r, t = self.SIGMA ** 2 * n, self.SIGMA ** 2 * kept, self.T_LEN
        cov = ((s - s.mean(axis=1, keepdims=True)) * (r - r.mean(axis=1, keepdims=True))).sum(axis=1)
        for name, got, want, se in [
            ("mean S", s.mean(axis=1), n * levels, np.sqrt(var_s / t)),
            ("var S", s.var(axis=1, ddof=1), var_s, var_s * np.sqrt(2 / (t - 1))),
            ("mean R", r.mean(axis=1), kept * levels, np.sqrt(var_r / t)),
            ("var R", r.var(axis=1, ddof=1), var_r, var_r * np.sqrt(2 / (t - 1))),
            ("cov S R", cov / (t - 1), var_r, np.sqrt((var_s * var_r + var_r ** 2) / t)),
        ]:
            assert np.all(np.abs(got - want) <= 5 * se), (name, got, want, se)


class TestCohortParams:
    @pytest.mark.parametrize("bad", [
        {"t_len": 1},
        {"n_communities": 1},
        {"n_communities": 0},
        {"sigma_roi": -0.1},
        {"sigma_voxel": -1.0},
        {"score_eps": -2.0},
        {"coherence_range": (2.0, 1.0)},
        {"sigma_roi": float("nan")},
        {"sigma_voxel": float("nan")},
        {"sigma_voxel": float("inf")},
        {"score_mu": float("nan")},
        {"score_beta": float("-inf")},
        {"score_eps": float("nan")},
        {"corruption_gamma": float("nan")},
        {"corruption_gamma": -1.0},
        {"corruption_sigma_rel": float("nan")},
        {"coherence_range": (float("nan"), 1.0)},
        {"t_len": 2.5},
        {"n_communities": True},
        {"language_territory": 2.0},
    ])
    def test_rejected(self, bad):
        # n_communities 1 and 0 used to raise IndexError and an inverted
        # coherence range numpy's "high - low < 0", inside the simulation;
        # a NaN sigma gave X = 1 for every subject, other NaNs surfaced only
        # in save_cohort, a NaN coherence bound raised OverflowError and a
        # fractional t_len TypeError
        with pytest.raises(InputError):
            CohortParams(**bad)

    @pytest.mark.parametrize("make", [
        lambda: CorruptionParams(gamma=float("nan")),
        lambda: CorruptionParams(sigma_rel=float("inf")),
        lambda: CorruptionParams(sigma_rel=-0.1),
        lambda: LesionPolicy("x", score_mu=float("nan")),
        lambda: LesionPolicy("x", score_mu=True),
    ], ids=["gamma-nan", "sigma-inf", "sigma-negative", "policy-mu-nan", "policy-mu-bool"])
    def test_corruption_and_policy_reject_non_finite(self, make):
        with pytest.raises(InputError):
            make()

    def test_smallest_valid_model_simulates(self, atlas):
        cp = CohortParams(t_len=2, n_communities=2, sigma_roi=0.0, sigma_voxel=0.0,
                          score_eps=0.0, coherence_range=(1.0, 1.0))
        assert generate_healthy_subject(atlas, 0, cp).roi_sums.shape == (atlas.n_rois, 2)


class TestMemory:
    def test_cohort_peak_stays_near_one_volume(self):
        # no voxel volume is allocated: a subject's peak stays a small
        # fraction of the 26 MB one volume of signals would take
        atlas = build_toy_atlas(n_rois=90, grid_dims=(32, 32, 32))
        cp = CohortParams()
        generate_cohort(1, atlas, master_seed=0, cohort_params=cp)  # fills atlas caches
        tracemalloc.start()
        try:
            generate_cohort(1, atlas, master_seed=1, cohort_params=cp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        volume_bytes = np.prod(atlas.grid_dims) * cp.t_len * 8
        assert peak <= 0.1 * volume_bytes
