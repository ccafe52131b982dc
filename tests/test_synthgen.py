import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from legnet import synthgen
from legnet.connectome import (
    InputError,
    LesionEncoding,
    LesionMask,
    RoiTimeSeries,
    SubjectRecord,
    ToyAtlas,
    build_toy_atlas,
    compute_roi_timeseries,
    correlation_matrix,
    exponentiate,
    roi_series_from_sums,
    save_cohort,
    spared_fractions,
)
from legnet.synthgen import (
    CohortParams,
    CorruptionParams,
    LesionSpec,
    LesionSpecError,
    _language_rois,
    corrupt_connectivity,
    generate_cohort,
    generate_healthy_subject,
    grow_lesion,
    mean_language_connectivity,
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
        vox = atlas.territory_voxels(1)
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
        assert np.array_equal(a.volume_ts, b.volume_ts)

    def test_degenerate_cohort_is_constant(self, atlas, cohort_params):
        from dataclasses import replace
        flat = replace(cohort_params, score_beta=0.0, score_eps=0.0, score_mu=55.0)
        scores = [generate_healthy_subject(atlas, seed, flat).y0 for seed in range(5)]
        assert scores == [55.0] * 5

    def test_connectivity_drives_scores(self, atlas, cohort_params):
        from legnet.connectome import compute_roi_timeseries, correlation_matrix, exponentiate
        from legnet.synthgen import mean_language_connectivity
        ms, y0s = [], []
        for i in range(200):
            hs = generate_healthy_subject(atlas, np.random.SeedSequence((7, i)), cohort_params)
            ts = compute_roi_timeseries(hs.volume_ts, atlas)
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

    def test_unknown_policy_rejected(self):
        from legnet.connectome import InputError
        with pytest.raises(InputError):
            policy_by_name("nope")


# ----------------------------------------------------------------------
# byte-identity oracle: the straightforward voxel build and double reduction
# ----------------------------------------------------------------------


def _reference_roi_timeseries(volume_ts, atlas, lesion=None):
    """Gather every voxel into ROI order, reduce, subtract lesioned voxels."""
    t_len = volume_ts.shape[3]
    flat = volume_ts.reshape(-1, t_len)
    labels = atlas.roi_of_voxel.reshape(-1)
    nonbg = np.flatnonzero(labels)
    order = nonbg[np.argsort(labels[nonbg], kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels[nonbg],
                                                        minlength=atlas.n_rois + 1)[1:])])
    sums = np.add.reduceat(flat[order], bounds[:-1], axis=0)
    counts = np.diff(bounds).astype(np.float64)
    if lesion is not None and lesion.voxels:
        flat_idx = np.ravel_multi_index(tuple(lesion.coords(atlas.grid_dims).T), atlas.grid_dims)
        rois = labels[flat_idx]
        keep = rois > 0
        flat_idx, rois = flat_idx[keep], rois[keep]
        np.subtract.at(sums, rois - 1, flat[flat_idx])
        np.subtract.at(counts, rois - 1, 1.0)
    series = np.zeros((atlas.n_rois, t_len))
    alive = counts > 0
    series[alive] = sums[alive] / counts[alive, None]
    return RoiTimeSeries(series=series)


def _reference_healthy_subject(atlas, seed, cp, subject_id="healthy"):
    """Whole-volume voxel build: zeros, ROI gather, one full noise draw."""
    rng = np.random.default_rng(seed)
    n, t_len = atlas.n_rois, cp.t_len
    language = _language_rois(atlas, cp)
    community_of_roi = 1 + np.arange(n) % max(1, cp.n_communities - 1)
    community_of_roi[language] = 0
    community_ts = rng.standard_normal((cp.n_communities, t_len))
    coherence = rng.uniform(*cp.coherence_range)
    weight = np.ones(n)
    weight[language] = coherence
    roi_ts = weight[:, None] * community_ts[community_of_roi]
    roi_ts = roi_ts + cp.sigma_roi * rng.standard_normal((n, t_len))

    flat_roi = atlas.roi_of_voxel.reshape(-1)
    volume = np.zeros((flat_roi.size, t_len))
    nonbg = flat_roi > 0
    volume[nonbg] = roi_ts[flat_roi[nonbg] - 1]
    volume[nonbg] += cp.sigma_voxel * rng.standard_normal((int(nonbg.sum()), t_len))
    volume = volume.reshape(atlas.grid_dims + (t_len,))

    x = exponentiate(correlation_matrix(_reference_roi_timeseries(volume, atlas)))
    m = mean_language_connectivity(x, atlas, cp)
    y0 = float(np.clip(cp.score_mu + cp.score_beta * m + cp.score_eps * rng.standard_normal(),
                       0.0, 100.0))
    return SimpleNamespace(id=subject_id, volume_ts=volume, y0=y0)


def _reference_lesion_subject(healthy, atlas, spec, corruption):
    lesion = grow_lesion(atlas, spec)
    ts = _reference_roi_timeseries(healthy.volume_ts, atlas, lesion)
    x = exponentiate(correlation_matrix(ts))
    encoding = spared_fractions(atlas, lesion)
    x = corrupt_connectivity(x, encoding, corruption)
    y = rescale_score(healthy.y0, atlas, lesion)
    return SubjectRecord(id=healthy.id, x=x, lesion=encoding, y=y), lesion


def _padded(atlas, pad):
    """The atlas inside a larger grid; the added voxels are background."""
    roi, terr, hemi = (np.pad(a, pad) for a in (atlas.roi_of_voxel, atlas.territory_of_voxel,
                                                 atlas.hemisphere_of_voxel))
    return ToyAtlas(roi.shape, roi, terr, hemi, atlas.n_rois, atlas.n_territories)


@pytest.fixture(scope="module", params=["default", "padded"])
def oracle_atlas(request):
    atlas = build_toy_atlas()
    if request.param == "padded":
        atlas = _padded(atlas, ((1, 2), (0, 3), (2, 1)))
    atlas.validate()
    return atlas


class TestByteIdentityOracle:
    def test_healthy_and_lesioned_signals(self, oracle_atlas):
        cp = CohortParams()
        seed = np.random.SeedSequence((4, 0, 3))
        got = generate_healthy_subject(oracle_atlas, seed, cp)
        ref = _reference_healthy_subject(oracle_atlas, seed, cp)
        assert got.volume_ts.tobytes() == ref.volume_ts.tobytes()
        assert got.y0 == ref.y0
        lesion = grow_lesion(oracle_atlas, LesionSpec(territory=2, target_fraction=0.15, seed=3))
        for mask in (lesion, None):  # the lesioned pass must leave the sums intact
            want = _reference_roi_timeseries(ref.volume_ts, oracle_atlas, mask).series.tobytes()
            kept = roi_series_from_sums(got.roi_sums, got.volume_ts, oracle_atlas, mask)
            assert kept.series.tobytes() == want
            assert compute_roi_timeseries(got.volume_ts, oracle_atlas, mask).series.tobytes() \
                == want

    def test_cohort_bytes(self, oracle_atlas, monkeypatch):
        got, _ = generate_cohort(2, oracle_atlas, master_seed=4)
        monkeypatch.setattr(synthgen, "generate_healthy_subject", _reference_healthy_subject)
        monkeypatch.setattr(synthgen, "lesion_subject", _reference_lesion_subject)
        ref, _ = generate_cohort(2, oracle_atlas, master_seed=4)
        assert cohort_bytes(got) == cohort_bytes(ref)


class TestCohortParams:
    @pytest.mark.parametrize("bad", [
        {"t_len": 1},
        {"n_communities": 1},
        {"n_communities": 0},
        {"sigma_roi": -0.1},
        {"sigma_voxel": -1.0},
        {"score_eps": -2.0},
        {"coherence_range": (2.0, 1.0)},
    ])
    def test_rejected(self, bad):
        # n_communities 1 and 0 used to raise IndexError and an inverted
        # coherence range numpy's "high - low < 0", inside the simulation
        with pytest.raises(InputError):
            CohortParams(**bad)

    def test_smallest_valid_model_simulates(self, atlas):
        cp = CohortParams(t_len=2, n_communities=2, sigma_roi=0.0, sigma_voxel=0.0,
                          score_eps=0.0, coherence_range=(1.0, 1.0))
        assert generate_healthy_subject(atlas, 0, cp).volume_ts.shape == atlas.grid_dims + (2,)


class TestMemory:
    def test_cohort_peak_stays_near_one_volume(self):
        # one subject allocates its voxel volume once; block temporaries and
        # ROI-group gathers stay small beside it (3.0x with whole-volume
        # temporaries)
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
        assert peak <= 1.5 * volume_bytes
