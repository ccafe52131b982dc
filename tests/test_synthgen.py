import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from legnet import synthgen
from legnet.connectome import (
    HEMI_LEFT,
    HEMI_RIGHT,
    InputError,
    LesionMask,
    ToyAtlas,
    build_toy_atlas,
    fill_cavities,
    lesioned_counts,
    save_cohort,
    spared_fractions,
)
from legnet.synthgen import (
    FRACTION_MAX,
    FRACTION_MIN,
    CohortParams,
    HealthySubject,
    LesionPolicy,
    LesionSpec,
    corrupt_connectivity,
    generate_cohort,
    generate_healthy_subject,
    grow_lesion,
    lesioned_roi_series,
    policy_by_name,
    rescale_score,
    territory_spared_fraction,
)

# the oracle's 6-connectivity: voxels are neighbours when they share a face
FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


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
        with pytest.raises(InputError):
            LesionSpec(territory=1, target_fraction=0.03, seed=0)
        with pytest.raises(InputError):
            LesionSpec(territory=1, target_fraction=0.25, seed=0)

    def test_right_territory_rejected(self, atlas):
        with pytest.raises(InputError):
            grow_lesion(atlas, LesionSpec(territory=5, target_fraction=0.1, seed=0))

    def test_too_small_territory_rejected(self):
        tiny = build_toy_atlas(n_rois=6, grid_dims=(4, 4, 3), n_territories=6)
        # territories have 8 voxels; 5% rounds to zero target voxels
        with pytest.raises(InputError):
            grow_lesion(tiny, LesionSpec(territory=1, target_fraction=0.05, seed=0))

    @pytest.mark.parametrize("field, value", [
        ("seed", None),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", True),
        ("territory", True),
        ("territory", 1.0),
        ("territory", 0),
        ("target_fraction", "0.1"),
    ])
    def test_fields_checked(self, field, value):
        # a None seed grew a different mask on every call (SeedSequence(None)
        # draws OS entropy), -1 raised numpy's ValueError, 1.5 and "7" a
        # TypeError, and True was read as seed or territory 1
        with pytest.raises(InputError, match=field):
            LesionSpec(**{"territory": 1, "target_fraction": 0.1, "seed": 0, field: value})


class TestGrowLesion:
    def test_determinism(self, atlas):
        spec = LesionSpec(territory=2, target_fraction=0.12, seed=42)
        assert np.array_equal(grow_lesion(atlas, spec).flat, grow_lesion(atlas, spec).flat)

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

    def test_no_attempt_left_is_an_input_error(self, atlas, monkeypatch):
        monkeypatch.setattr(synthgen, "_MAX_GROW_ATTEMPTS", 0)
        with pytest.raises(InputError, match="could not grow a lesion .* after 0 attempts"):
            grow_lesion(atlas, LesionSpec(territory=1, target_fraction=0.1, seed=0))

    def test_one_voxel_lesion_is_the_start_voxel(self):
        # territories of 12 voxels: a 5% lesion is one voxel, so the growth
        # loop never runs and the mask is the first draw's voxel
        tiny = build_toy_atlas(n_rois=6, grid_dims=(6, 4, 3), n_territories=6)
        for territory in tiny.left_territories():
            assert round(0.05 * tiny.territory_size(territory)) == 1
            voxels = np.flatnonzero(tiny.territory_mask(territory))
            for seed in range(8):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                start = int(voxels[rng.integers(len(voxels))])
                mask = grow_lesion(tiny, LesionSpec(territory, 0.05, seed))
                assert mask.flat.tolist() == [start]
                mask.validate(tiny)


# ----------------------------------------------------------------------
# lesion growth against a straightforward reference implementation
# ----------------------------------------------------------------------


def _reference_grow_lesion(atlas, spec):
    """Region growing on voxel tuples with bounds checks, hole filling on the
    territory's box at every step. Returns (the mask's sorted flat indices,
    attempts), or the exception type when no attempt lands within the slack."""
    in_territory = atlas.territory_mask(spec.territory)
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
            return np.flatnonzero(filled).tolist(), attempt
    return InputError, synthgen._MAX_GROW_ATTEMPTS


def _padded_atlas(atlas, pad):
    """The atlas inside a background margin, so no territory meets the grid edge."""
    return ToyAtlas(np.pad(atlas.roi_of_voxel, pad), atlas.territory_of_roi,
                    atlas.hemisphere_of_roi, atlas.n_territories)


class TestGrowLesionOracle:
    """`grow_lesion` returns the reference's mask spec for spec: the same
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
            return grow_lesion(atlas, spec).flat.tolist()
        except InputError:
            return InputError

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


class TestGrowLesionPinned:
    """The masks of 200 seeded specs on each of two atlases hash to the
    digest of the plain growth, with a `rng.integers` call per pick and a
    labelling pass per step. Masks are integers only, so the digest does
    not depend on the BLAS."""

    DIGEST = "6517080cfbfd5b8117b87df5d086e6a52d601166b015e3545bb96d94103746e0"

    def test_masks_hash_as_pinned(self):
        digest = hashlib.sha256()
        for dims in ((32, 32, 32), (16, 16, 16)):
            atlas = build_toy_atlas(n_rois=90, grid_dims=dims)
            for spec in TestGrowLesionOracle.specs(atlas, 200, seed=2024):
                digest.update(grow_lesion(atlas, spec).flat.astype("<i8").tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestBoundedDraws:
    """`_bounded_draws(rng)(n)` is `rng.integers(n)`, draw for draw."""

    @staticmethod
    def bounds(rng, count):
        # 1 consumes nothing; near 2**32 Lemire's method rejects up to half the draws
        pools = (lambda: 1, lambda: int(rng.integers(2, 50)),
                 lambda: int(rng.integers(50, 1 << 20)),
                 lambda: int(rng.integers(1 << 31, (1 << 32) - 1)))
        return [pools[int(i)]() for i in rng.integers(len(pools), size=count)]

    @pytest.mark.parametrize("seed", range(100))
    def test_same_as_generator_integers(self, seed):
        bounds = self.bounds(np.random.default_rng(seed + 1000), 1500)
        draw = synthgen._bounded_draws(np.random.default_rng(np.random.SeedSequence(seed)))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        assert [draw(n) for n in bounds] == [int(rng.integers(n)) for n in bounds]

    @pytest.mark.parametrize("n", [0, -3, 1 << 32, 1 << 40])
    def test_bound_outside_one_to_two_to_the_32_rejected(self, n):
        draw = synthgen._bounded_draws(np.random.default_rng(0))
        with pytest.raises(InputError, match="bounded draws"):
            draw(n)


def _set_and_test(box, voxel):
    """Set `voxel` of a box whose cavities are filled; return the local
    test's verdict and what labelling finds."""
    box = box.copy()
    box[voxel] = True
    flat = int(np.ravel_multi_index(voxel, box.shape))
    return synthgen._stays_joined(box, flat), fill_cavities(box)


class TestStaysJoined:
    """`_stays_joined` never skips a labelling that would find a cavity."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(inner=st.tuples(*[st.integers(4, 7)] * 3), density=st.floats(0.6, 0.9),
           seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16))
    def test_joined_means_no_cavity(self, inner, density, seed, pick):
        # hypothesis's own boolean arrays are nearly empty, where setting a
        # voxel never closes a cavity; a seeded grid of a drawn density is not
        box = np.pad(np.random.default_rng(seed).random(inner) < density, 1)
        filled = fill_cavities(box)
        if filled is not None:
            box = filled
        unset = np.argwhere(~box[1:-1, 1:-1, 1:-1]) + 1
        assume(len(unset))
        joined, cavities = _set_and_test(box, tuple(unset[pick % len(unset)]))
        assert not joined or cavities is None

    def test_both_verdicts_occur_on_random_boxes(self):
        rng = np.random.default_rng(8)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            box = np.pad(rng.random((5, 5, 5)) < 0.4, 1)
            filled = fill_cavities(box)
            box = box if filled is None else filled
            unset = np.argwhere(~box[1:-1, 1:-1, 1:-1]) + 1
            joined, cavities = _set_and_test(box, tuple(unset[rng.integers(len(unset))]))
            assert not joined or cavities is None
            verdicts[joined] += 1
        assert min(verdicts.values()) >= 20, verdicts

    def test_closing_a_one_voxel_pocket_is_caught_and_filled(self):
        box = np.zeros((5, 5, 5), dtype=bool)
        box[1:4, 1:4, 1:4] = True
        box[2, 2, 2] = box[1, 2, 2] = False  # a pocket open through (1, 2, 2)
        assert fill_cavities(box) is None
        joined, cavities = _set_and_test(box, (1, 2, 2))
        assert not joined
        assert cavities[2, 2, 2] and cavities.sum() == 27

    def test_closing_a_ring_falls_back_to_labelling(self):
        # walls of height 3 around a hole open along z; closing the gap in
        # one wall leaves the ungrown voxels joined, but only far from it
        box = np.zeros((7, 7, 7), dtype=bool)
        box[1:6, 1:6, 2:5] = True
        box[2:5, 2:5, :] = False
        box[1, 3, 3] = False
        assert fill_cavities(box) is None
        joined, cavities = _set_and_test(box, (1, 3, 3))
        assert not joined and cavities is None

    def test_a_voxel_on_a_flat_face_stays_joined(self):
        box = np.zeros((5, 5, 5), dtype=bool)
        box[1:4, 1:4, 1:3] = True
        assert _set_and_test(box, (2, 2, 3)) == (True, None)


class TestCorruptConnectivity:
    def x_fixture(self):
        rng = np.random.default_rng(0)
        corr = rng.uniform(-0.9, 0.9, (5, 5))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        return np.exp(corr)

    def test_intact_subject_unchanged(self):
        x = self.x_fixture()
        out = corrupt_connectivity(x, np.ones(5), CohortParams(), 3)
        assert np.array_equal(out, x)

    def test_deterministic_diminution(self):
        x = self.x_fixture()
        p = np.array([0.5, 1.0, 1.0, 1.0, 1.0])
        out = corrupt_connectivity(x, p, CohortParams(corruption_sigma_rel=0.0), 0)
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
        out = corrupt_connectivity(x, p, CohortParams(corruption_sigma_rel=0.2), 9)
        assert np.array_equal(out, out.T)
        assert out.min() >= x.min() and out.max() <= x.max()
        pmin = np.minimum.outer(p, p)
        # intact off-diagonal pairs and the diagonal are untouched
        untouched = (pmin >= 1.0) | np.eye(5, dtype=bool)
        assert np.array_equal(out[untouched], x[untouched])
        # every damaged pair is actually rewritten (noise makes ties unlikely)
        assert np.all(out[~untouched] != x[~untouched])

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7", True])
    def test_seed_checked(self, seed):
        x = self.x_fixture()
        for spared in (np.ones(5), np.array([0.5, 1.0, 1.0, 1.0, 1.0])):
            with pytest.raises(InputError, match="seed"):
                corrupt_connectivity(x, spared, CohortParams(), seed)

    def test_same_seed_same_noise(self):
        x = self.x_fixture()
        p = np.array([0.2, 1.0, 0.7, 1.0, 1.0])
        cp = CohortParams(corruption_sigma_rel=0.3)
        assert np.array_equal(corrupt_connectivity(x, p, cp, 21),
                              corrupt_connectivity(x, p, cp, 21))


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
        vox = np.argwhere(atlas.territory_mask(1))
        x0, y0, z0 = vox.min(axis=0)
        dense = np.zeros(atlas.grid_dims, dtype=bool)
        dense[x0:x0 + 2, y0:y0 + 3, z0:z0 + 2] = True
        small = LesionMask(np.flatnonzero(dense), atlas.grid_dims)
        dense[x0:x0 + 4, y0:y0 + 3, z0:z0 + 2] = True
        big = LesionMask(np.flatnonzero(dense), atlas.grid_dims)
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


class TestSeedsChecked:
    """A seed is an integer >= 0, or a SeedSequence where `generate_cohort`
    passes one. None seeded from OS entropy, so two calls differed; -1
    raised numpy's ValueError, 1.5 a TypeError, and True was read as 1."""

    @pytest.fixture(scope="class")
    def subject(self, atlas, cohort_params):
        healthy = generate_healthy_subject(atlas, 0, cohort_params)
        return healthy, grow_lesion(atlas, LesionSpec(territory=1, target_fraction=0.1, seed=0))

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True], ids=repr)
    @pytest.mark.parametrize("entry, name", [
        (lambda atlas, cp, subject, seed: generate_healthy_subject(atlas, seed, cp), "seed"),
        (lambda atlas, cp, subject, seed: lesioned_roi_series(subject[0], atlas, subject[1],
                                                              seed), "seed"),
        (lambda atlas, cp, subject, seed: generate_cohort(1, atlas, seed, cp), "master_seed"),
    ], ids=["generate_healthy_subject", "lesioned_roi_series", "generate_cohort"])
    def test_rejected(self, atlas, cohort_params, subject, entry, name, seed):
        with pytest.raises(InputError, match=f"{name} must be an integer >= 0"):
            entry(atlas, cohort_params, subject, seed)

    @pytest.mark.parametrize("entry", [
        lambda atlas, cp, seed: LesionSpec(territory=1, target_fraction=0.1, seed=seed),
        lambda atlas, cp, seed: corrupt_connectivity(np.ones((2, 2)), np.zeros(2), cp, seed),
        lambda atlas, cp, seed: generate_cohort(1, atlas, seed, cp),
    ], ids=["LesionSpec", "corrupt_connectivity", "generate_cohort"])
    def test_seed_sequence_rejected_where_the_manifest_records_an_integer(
            self, atlas, cohort_params, entry):
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            entry(atlas, cohort_params, np.random.SeedSequence(5))

    def test_numpy_integers_and_seed_sequences_accepted(self, atlas, cohort_params, subject):
        healthy, lesion = subject
        want = generate_healthy_subject(atlas, 5, cohort_params).roi_sums.tobytes()
        for seed in (np.int64(5), np.uint8(5), np.random.SeedSequence(5)):
            assert generate_healthy_subject(atlas, seed, cohort_params).roi_sums.tobytes() == want
            assert (lesioned_roi_series(healthy, atlas, lesion, seed).tobytes()
                    == lesioned_roi_series(healthy, atlas, lesion, 5).tobytes())
        records, manifest = generate_cohort(2, atlas, np.uint16(5), cohort_params)
        assert cohort_bytes(records) == cohort_bytes(generate_cohort(2, atlas, 5, cohort_params)[0])
        # the manifest records the seed as a JSON number
        assert json.loads(json.dumps(manifest))["master_seed"] == 5


class TestManifestIsJson:
    def test_numpy_scalar_inputs_give_the_python_scalar_manifest(self, atlas):
        # json.dumps raised "Object of type int64 is not JSON serializable" for
        # the cohort size, t_len and the atlas' n_territories, and the same
        # for float32 in the policy
        plain = generate_cohort(2, atlas, 5, CohortParams(t_len=20, coherence_range=(0.75, 1.5)),
                                LesionPolicy("x", fraction_range=(0.125, 0.2), score_mu=27.0))
        numpy = generate_cohort(
            np.int64(2),
            build_toy_atlas(n_rois=np.int64(24), grid_dims=(16, 16, 12),
                            n_territories=np.int64(6)),
            np.int64(5),
            CohortParams(t_len=np.int64(20), coherence_range=(np.float32(0.75), 1.5)),
            LesionPolicy("x", fraction_range=(np.float32(0.125), 0.2),
                         score_mu=np.float32(27.0)))
        assert json.dumps(numpy[1], allow_nan=False) == json.dumps(plain[1], allow_nan=False)
        assert numpy[1] == plain[1]
        assert cohort_bytes(numpy[0]) == cohort_bytes(plain[0])

    def test_range_pairs_keep_python_scalars_and_their_container(self):
        params = CohortParams(coherence_range=[np.float32(0.75), np.int64(2)])
        assert params.coherence_range == [0.75, 2]
        assert [type(v) for v in params.coherence_range] == [float, int]
        policy = LesionPolicy(np.str_("x"), fraction_range=(np.float32(0.125), 0.2))
        assert type(policy.name) is str and type(policy.fraction_range[0]) is float


class TestStageArgumentTypes:
    """Each generator stage checks its argument types as `generate_cohort`
    does. A dict, a list or None in their place raised AttributeError, and
    a complex X passed `corrupt_connectivity`."""

    @pytest.fixture(scope="class")
    def subject(self, atlas, cohort_params):
        healthy = generate_healthy_subject(atlas, 0, cohort_params)
        return healthy, grow_lesion(atlas, LesionSpec(territory=1, target_fraction=0.1, seed=0))

    @pytest.mark.parametrize("call, message", [
        (lambda atlas, cp, subj: generate_healthy_subject(atlas, 0, {"t_len": 5}),
         "cohort_params must be a CohortParams, got dict"),
        (lambda atlas, cp, subj: generate_healthy_subject(None, 0, cp),
         "atlas must be a ToyAtlas, got NoneType"),
        (lambda atlas, cp, subj: grow_lesion(None, LesionSpec(1, 0.1, 0)),
         "atlas must be a ToyAtlas"),
        (lambda atlas, cp, subj: grow_lesion(atlas, {"territory": 1}),
         "spec must be a LesionSpec"),
        (lambda atlas, cp, subj: lesioned_roi_series(None, atlas, subj[1], 0),
         "healthy must be a HealthySubject"),
        (lambda atlas, cp, subj: lesioned_roi_series(subj[0], None, subj[1], 0),
         "atlas must be a ToyAtlas"),
        (lambda atlas, cp, subj: lesioned_roi_series(subj[0], atlas, subj[1].flat, 0),
         "lesion must be a LesionMask, got ndarray"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), np.zeros(2), {}, 0),
         "params must be a CohortParams"),
        (lambda atlas, cp, subj: corrupt_connectivity([[1.0] * 2] * 2, np.zeros(2), cp, 0),
         "X must be a ndarray, got list"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), [0.0, 0.0], cp, 0),
         "p must be a ndarray, got list"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2), complex), np.zeros(2),
                                                      cp, 0),
         "X and p must hold real numbers, got dtypes complex128 and float64"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), np.zeros(2, complex),
                                                      cp, 0),
         "X and p must hold real numbers, got dtypes float64 and complex128"),
        # no ROIs: nothing to corrupt, and an empty X has no range to clip to
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((0, 0)), np.ones(0), cp, 0),
         r"N >= 1, got X \(0, 0\), p \(0,\)"),
        # p = -0.5 flipped the sign of log X, NaN and 1.5 left the row as it
        # was, and a non-finite X came back non-finite
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), np.array([-0.5, 1.0]),
                                                      cp, 0),
         r"spared fractions p must lie in \[0, 1\], got \[-0.5, 1.0\]"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), np.array([np.nan, 1.0]),
                                                      cp, 0),
         r"spared fractions p must lie in \[0, 1\]"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.ones((2, 2)), np.array([1.5, 1.0]),
                                                      cp, 0),
         r"spared fractions p must lie in \[0, 1\], got \[1.0, 1.5\]"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.array([[1.0, np.nan], [np.nan, 1.0]]),
                                                      np.ones(2), cp, 0),
         "X has non-finite entries"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.array([[1.0, np.inf], [np.inf, 1.0]]),
                                                      np.zeros(2), cp, 0),
         "X has non-finite entries"),
        # a negative entry's fractional power came back NaN; 0 has no log X
        (lambda atlas, cp, subj: corrupt_connectivity(np.array([[1.0, -0.5], [-0.5, 1.0]]),
                                                      np.array([0.5, 1.0]), cp, 0),
         r"X must be positive, got min -0.5"),
        (lambda atlas, cp, subj: corrupt_connectivity(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                                      np.array([0.5, 1.0]), cp, 0),
         r"X must be positive, got min 0.0"),
        # a list of sums raised AttributeError in lesioned_roi_series, and a
        # NaN sigma_voxel surfaced as NaN ROI series rows in correlation_matrix
        (lambda atlas, cp, subj: HealthySubject(5, subj[0].roi_sums, 1.0, 50.0),
         "healthy subject id must be a str, got int"),
        (lambda atlas, cp, subj: HealthySubject("h", subj[0].roi_sums.tolist(), 1.0, 50.0),
         "healthy subject 'h': roi_sums must be a ndarray, got list"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 1)), 1.0, 50.0),
         r"roi_sums must be a real \(N, Tlen >= 2\) array, got float64 \(3, 1\)"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 4), complex), 1.0, 50.0),
         r"roi_sums must be a real .* got complex128 \(3, 4\)"),
        (lambda atlas, cp, subj: HealthySubject("h", np.full((3, 4), np.inf), 1.0, 50.0),
         "healthy subject 'h': roi_sums has non-finite entries"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 4)), np.nan, 50.0),
         "healthy subject 'h': sigma_voxel must be a finite number >= 0, got nan"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 4)), -1.0, 50.0),
         "sigma_voxel must be a finite number >= 0"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 4)), 1.0, "50"),
         "healthy subject 'h': y0 must be a finite number >= 0, got '50'"),
        (lambda atlas, cp, subj: HealthySubject("h", np.ones((3, 4)), 1.0, 100.5),
         r"healthy subject 'h': y0 100.5 outside \[0, 100\]"),
        # name 5 gave subject ids 5-0000
        (lambda atlas, cp, subj: LesionPolicy(name=5),
         "policy name must be a str, got int"),
        # "50" scored 44.79, and a NaN y0 scored NaN
        (lambda atlas, cp, subj: rescale_score("50", atlas, subj[1]),
         "y0 must be a finite number >= 0, got '50'"),
        (lambda atlas, cp, subj: rescale_score(float("nan"), atlas, subj[1]),
         "y0 must be a finite number >= 0, got nan"),
        (lambda atlas, cp, subj: rescale_score(-1.0, atlas, subj[1]),
         "y0 must be a finite number >= 0, got -1.0"),
    ], ids=["healthy-params", "healthy-atlas", "grow-atlas", "grow-spec", "series-healthy",
            "series-atlas", "series-lesion", "corrupt-params", "corrupt-list-X", "corrupt-list-p",
            "corrupt-complex-X", "corrupt-complex-p", "corrupt-no-ROIs", "corrupt-negative-p",
            "corrupt-nan-p", "corrupt-p-above-1", "corrupt-nan-X", "corrupt-inf-X",
            "corrupt-negative-X", "corrupt-zero-X", "healthy-id", "healthy-list-sums",
            "healthy-tlen-1", "healthy-complex-sums", "healthy-inf-sums", "healthy-nan-sigma",
            "healthy-negative-sigma", "healthy-str-y0", "healthy-y0-above-100", "policy-name",
            "rescale-str-y0", "rescale-nan-y0", "rescale-negative-y0"])
    def test_rejected(self, atlas, cohort_params, subject, call, message):
        with pytest.raises(InputError, match=message):
            call(atlas, cohort_params, subject)


class TestBackgroundVoxels:
    """In an atlas inside a background margin, a lesion voxel outside every
    ROI is an InputError that names it."""

    @pytest.fixture(scope="class")
    def padded(self):
        return _padded_atlas(build_toy_atlas(n_rois=12, grid_dims=(8, 8, 8)),
                             ((1, 2), (2, 1), (1, 3)))

    def test_padded_atlas_is_valid(self, padded):
        assert padded.grid_dims == (11, 11, 12)
        assert padded.roi_sizes().sum() == 8 ** 3
        assert padded.territory_size(1) == 96
        mask = grow_lesion(padded, LesionSpec(territory=1, target_fraction=0.2, seed=3))
        mask.validate(padded)

    @pytest.mark.parametrize("use", [
        lambda atlas, lesion: lesion.validate(atlas),
        lambda atlas, lesion: lesion.territory(atlas),
        spared_fractions,
    ], ids=["validate", "territory", "spared_fractions"])
    def test_lesion_on_background_is_an_input_error(self, padded, use):
        # (1, 2, 1) is territory 1's corner voxel and (0, 2, 1) the margin beside it
        corner = np.ravel_multi_index(([0, 1], [2, 2], [1, 1]), padded.grid_dims)
        lesion = LesionMask(corner, padded.grid_dims)
        assert padded.roi_of_voxel[1, 2, 1] == 1 and padded.roi_of_voxel[0, 2, 1] == 0
        with pytest.raises(InputError, match=r"lesion voxel \(0, 2, 1\) is background"):
            use(padded, lesion)


class TestGenerateCohort:
    def test_atlas_without_a_left_territory_is_an_input_error(self, atlas):
        right = ToyAtlas(atlas.roi_of_voxel, atlas.territory_of_roi,
                         np.full(atlas.n_rois, HEMI_RIGHT), atlas.n_territories)
        assert right.left_territories() == []
        with pytest.raises(InputError, match="atlas has no left-hemisphere territories"):
            generate_cohort(1, right, master_seed=0)

    def test_language_territory_of_one_roi_is_an_input_error(self):
        # two one-voxel ROIs, each its own territory
        atlas = ToyAtlas(np.array([[[1]], [[2]]]), [1, 2], [HEMI_LEFT, HEMI_LEFT], 2)
        with pytest.raises(InputError, match="language territory must contain at least two"):
            generate_healthy_subject(atlas, 0, CohortParams(language_territory=2))

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

    def test_lesion_of_no_voxels_is_an_input_error(self):
        # in 8-voxel territories a lesion fraction under 1/16 rounds to 0 voxels
        with pytest.raises(InputError, match="cannot host a lesion of 0 voxels"):
            generate_cohort(40, build_toy_atlas(12, (4, 4, 3)), 0)

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_cohort_size_must_be_a_positive_integer(self, atlas, n):
        # 2.5 used to raise TypeError from range()
        with pytest.raises(InputError, match="cohort size"):
            generate_cohort(n, atlas, master_seed=0)

    def test_policy_must_be_a_lesion_policy(self, atlas):
        # an AttributeError: 'str' object has no attribute 'score_mu' before
        with pytest.raises(InputError, match="policy must be a LesionPolicy"):
            generate_cohort(1, atlas, master_seed=0, policy="hcp-sl")

    @pytest.mark.parametrize("kwargs, message", [
        ({"cohort_params": {"t_len": 5}}, "cohort_params must be a CohortParams"),
        ({"cohort_params": {}}, "cohort_params must be a CohortParams"),
        ({"policy": ""}, "policy must be a LesionPolicy"),
        ({"atlas": None}, "atlas must be a ToyAtlas"),
    ], ids=["dict params", "empty dict params", "empty policy", "no atlas"])
    def test_arguments_of_the_wrong_type_are_rejected(self, atlas, kwargs, message):
        # a dict or None raised AttributeError; an empty dict and "" used to
        # stand for the defaults
        with pytest.raises(InputError, match=message):
            generate_cohort(**{"n": 1, "atlas": atlas, "master_seed": 0, **kwargs})

    def test_unknown_policy_rejected(self):
        from legnet.connectome import InputError
        with pytest.raises(InputError):
            policy_by_name("nope")

    def test_unhashable_policy_name_lists_the_choices(self):
        # a list used to raise TypeError (unhashable) from the dict lookup
        with pytest.raises(InputError, match=r"unknown lesion policy \['hcp-sl'\]; choices: \["):
            policy_by_name(["hcp-sl"])

    @pytest.mark.parametrize("fraction_range", [
        (0.3, 0.5), (0.15, 0.10), (FRACTION_MIN - 0.01, FRACTION_MAX), ("a", "b"), (0.1,)])
    def test_policy_checks_its_fraction_range(self, fraction_range):
        # (0.3, 0.5) used to construct, then fail to grow a lesion in
        # generate_cohort; ("a", "b") raised TypeError and (0.1,) ValueError
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
    spared = ~lesion.to_dense()
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
        flat = np.concatenate([np.flatnonzero(atlas.roi_of_voxel == roi)[:k]
                               for roi, k in ((1, 8), (2, 3), (3, 5))])
        lesion = LesionMask(np.sort(flat), atlas.grid_dims)
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
        {"corruption_sigma_rel": float("inf")},
        {"corruption_sigma_rel": -0.1},
        {"coherence_range": (0.1, 0.2, 0.3)},
    ])
    def test_rejected(self, bad):
        # n_communities 1 and 0 used to raise IndexError and an inverted
        # coherence range numpy's "high - low < 0", inside the simulation;
        # a NaN sigma gave X = 1 for every subject, other NaNs surfaced only
        # in save_cohort, a NaN coherence bound raised OverflowError and a
        # fractional t_len TypeError; a three-number range raised ValueError
        with pytest.raises(InputError):
            CohortParams(**bad)

    @pytest.mark.parametrize("make", [
        lambda: LesionPolicy("x", score_mu=float("nan")),
        lambda: LesionPolicy("x", score_mu=True),
    ], ids=["policy-mu-nan", "policy-mu-bool"])
    def test_corruption_and_policy_reject_non_finite(self, make):
        # the corruption settings are CohortParams fields, checked in test_rejected
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
