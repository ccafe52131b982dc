import dataclasses
import hashlib
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from legnet.connectome import (
    HEMI_LEFT,
    InputError,
    LesionEncoding,
    LesionMask,
    SubjectRecord,
    ToyAtlas,
    _bounding_boxes,
    _range_chunks,
    _region_is_face_connected,
    build_toy_atlas,
    correlation_matrix,
    exponentiate,
    fill_cavities,
    lesioned_counts,
    load_cohort,
    save_cohort,
    spared_fractions,
    validate_connectivity,
)
from legnet.model import MODEL_LEGNET, HyperParams, init_params, load_checkpoint, save_checkpoint
from legnet.synthgen import (
    CohortParams,
    HealthySubject,
    generate_healthy_subject,
    lesioned_roi_series,
)


# the oracle's 6-connectivity: voxels are neighbours when they share a face
FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


@pytest.fixture(scope="module")
def small_atlas():
    return build_toy_atlas(n_rois=24, grid_dims=(16, 16, 16), n_territories=6)


def damage(path, cut, flips) -> tuple[bool, bool]:
    """XOR the (position, mask) flips into the file at `path`, then keep its
    first `cut` bytes. Returns (whole, flipped): whether the cut kept every
    byte, and whether a flip landed inside the file."""
    data = bytearray(path.read_bytes())
    assert len(data) <= 1024  # every cut and flip position is reachable
    flipped = False
    for at, mask in flips:
        if at < len(data):
            data[at] ^= mask
            flipped = True
    path.write_bytes(bytes(data[:cut]))
    return cut >= len(data), flipped


DAMAGE = dict(cut=st.integers(0, 1024),
              flips=st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 255)), max_size=3))


def box(x0, x1, y0, y1, z0, z1) -> frozenset:
    """Voxels of the half-open box [x0, x1) x [y0, y1) x [z0, z1)."""
    return frozenset(itertools.product(range(x0, x1), range(y0, y1), range(z0, z1)))


def mask_of(voxels, grid_dims=(16, 16, 16)) -> LesionMask:
    """The LesionMask of some (x, y, z) voxels of a grid."""
    coords = np.array(list(voxels), dtype=np.intp).reshape(-1, 3)
    return LesionMask(np.sort(np.ravel_multi_index(tuple(coords.T), grid_dims)), grid_dims)


# Corruptions of the 24-ROI small atlas, given its ROI grid and its per-ROI
# territories and hemispheres. Its ROIs are boxes: ROI 1 is x 0-7, y 0-7,
# z 0-1 (territory 1, left); territory 3 spans z 11-15, also left; ROI 4 is
# x 0-7, y 8-15, z 2-4 and ROI 24 the far corner x 8-15, y 8-15, z 13-15.
def _merge_roi_24_into_23(roi, terr, hemi):
    roi[roi == 24] = 23


def _move_corner_of_roi_4_to_roi_1(roi, terr, hemi):
    roi[7, 15, 4] = 1


def _move_roi_1_to_territory_3(roi, terr, hemi):
    terr[0] = 3


def _roi_label_past_n_rois(roi, terr, hemi):
    roi[15, 15, 15] = 25


def _territory_label_past_n_territories(roi, terr, hemi):
    terr[0] = 7


def _hemisphere_value_2(roi, terr, hemi):
    hemi[0] = 2


def corrupted(atlas: ToyAtlas, corrupt) -> ToyAtlas:
    roi, terr, hemi = (a.copy() for a in (atlas.roi_of_voxel, atlas.territory_of_roi,
                                          atlas.hemisphere_of_roi))
    corrupt(roi, terr, hemi)
    return ToyAtlas(roi, terr, hemi, atlas.n_territories)


class TestToyAtlas:
    def test_default_atlas_satisfies_invariants(self):
        atlas = build_toy_atlas()
        assert atlas.n_rois == 90
        atlas.validate()

    def test_246_roi_atlas_supported(self):
        atlas = build_toy_atlas(n_rois=246)
        atlas.validate()
        assert int(atlas.roi_of_voxel.max()) == 246

    def test_small_atlas_invariants(self, small_atlas):
        small_atlas.validate()

    def test_left_territories_are_half(self, small_atlas):
        left = small_atlas.left_territories()
        assert left == [1, 2, 3]
        for t in left:
            assert np.all(small_atlas.hemisphere_of_roi[small_atlas.territory_rois(t)] == HEMI_LEFT)
            assert np.argwhere(small_atlas.territory_mask(t))[:, 0].max() < 8

    def test_left_territories_list_is_a_fresh_copy(self, small_atlas):
        small_atlas.left_territories().append(99)
        assert small_atlas.left_territories() == [1, 2, 3]

    def test_roi_sizes_cover_grid(self, small_atlas):
        assert small_atlas.roi_sizes().sum() == np.prod(small_atlas.grid_dims)

    def test_labels_are_read_only_copies(self):
        atlas = build_toy_atlas(n_rois=12, grid_dims=(8, 8, 8))
        for labels in (atlas.roi_of_voxel, atlas.territory_of_roi, atlas.hemisphere_of_roi):
            with pytest.raises(ValueError):
                labels[0] = 1
        # merging ROI 2 into ROI 1 in place left the sizes at [48 48 32]; now
        # the atlas holds its own copies, so the caller's later edits miss it
        roi, terr = atlas.roi_of_voxel.copy(), atlas.territory_of_roi.copy()
        own = ToyAtlas(roi, terr, atlas.hemisphere_of_roi, atlas.n_territories)
        roi[roi == 2] = 1
        terr[0] = 2
        assert own.roi_of_voxel.tobytes() == atlas.roi_of_voxel.tobytes()
        assert own.territory_of_roi.tolist() == atlas.territory_of_roi.tolist()
        assert own.roi_sizes()[:3].tolist() == [48, 48, 32]
        with pytest.raises(ValueError):
            own.roi_sizes()[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            own.roi_of_voxel = roi

    @pytest.mark.parametrize("name", ["roi_of_voxel", "territory_of_roi", "hemisphere_of_roi"])
    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_labels_must_have_an_integer_dtype(self, small_atlas, name, dtype):
        # a float roi_of_voxel passed validate() and then raised TypeError in roi_sizes()
        labels = getattr(small_atlas, name).astype(dtype)
        with pytest.raises(InputError, match=f"{name} must have an integer dtype"):
            dataclasses.replace(small_atlas, **{name: labels})

    @pytest.mark.parametrize("name", ["roi_of_voxel", "territory_of_roi", "hemisphere_of_roi"])
    def test_ragged_labels_are_named(self, small_atlas, name):
        # numpy's "setting an array element with a sequence" ValueError before
        with pytest.raises(InputError, match=f"{name} is not a rectangular array"):
            dataclasses.replace(small_atlas, **{name: [[1], [1, 2]]})

    @pytest.mark.parametrize("changes, message", [
        (lambda a: {"roi_of_voxel": a.roi_of_voxel[0]}, r"3-D roi_of_voxel .* \(16, 16\), "),
        (lambda a: {"territory_of_roi": a.territory_of_roi[:-1]}, r"per ROI.* \(23,\), \(24,\)"),
        (lambda a: {"hemisphere_of_roi": a.hemisphere_of_roi[None]}, r"per ROI.* \(1, 24\)$"),
        (lambda a: {"n_territories": 6.0}, "n_territories must be an integer"),
        (lambda a: {"n_territories": 7}, "territory 7 is empty"),
    ], ids=["2-D grid", "short territories", "2-D hemispheres", "float n_territories",
            "territory without ROIs"])
    def test_malformed_layout_is_rejected(self, small_atlas, changes, message):
        with pytest.raises(InputError, match=message):
            dataclasses.replace(small_atlas, **changes(small_atlas))

    def test_replace_recomputes_the_derived_constants(self):
        atlas = build_toy_atlas(n_rois=12, grid_dims=(8, 8, 8))
        assert atlas.roi_sizes()[:3].tolist() == [48, 48, 32]
        # ROI 2 joins ROI 1, and the ROIs after it move down one label
        roi = atlas.roi_of_voxel
        merged_roi = dataclasses.replace(
            atlas, roi_of_voxel=np.where(roi >= 2, np.maximum(roi - 1, 1), roi),
            territory_of_roi=np.delete(atlas.territory_of_roi, 1),
            hemisphere_of_roi=np.delete(atlas.hemisphere_of_roi, 1))
        assert merged_roi.n_rois == 11
        assert merged_roi.roi_sizes()[:3].tolist() == [96, 32, 32]
        assert merged_roi.territory_rois(1).tolist() == [0]

        # territory 1 holds ROIs 1-2, and territory 2 (ROIs 3-4) joins it in a copy
        flat, mask_bytes = atlas.padded_territory(1)
        assert atlas.territory_rois(1).tolist() == [0, 1]
        assert flat.size == 96
        with pytest.raises(ValueError):
            flat[0] = 0
        assert np.array_equal(flat, np.flatnonzero(np.pad(atlas.territory_mask(1), 1)))
        assert np.array_equal(np.flatnonzero(np.frombuffer(mask_bytes, dtype=np.uint8)), flat)
        terr = atlas.territory_of_roi
        merged = dataclasses.replace(atlas, territory_of_roi=np.where(terr >= 2, terr - 1, terr),
                                     n_territories=5)
        assert merged.territory_rois(1).tolist() == [0, 1, 2, 3]
        assert merged.territory_size(1) == 160
        assert merged.left_territories() == [1, 2]
        merged_flat, merged_bytes = merged.padded_territory(1)
        assert merged_flat.size == 160
        assert np.array_equal(np.flatnonzero(np.frombuffer(merged_bytes, dtype=np.uint8)),
                              merged_flat)
        assert atlas.territory_rois(1).tolist() == [0, 1]
        assert atlas.padded_territory(1)[0].size == 96
        assert atlas.left_territories() == [1, 2, 3]

    @pytest.mark.parametrize("kwargs", [{"n_territories": 5},
                                        {"n_rois": 18, "grid_dims": (6, 6, 3)}])
    def test_impossible_layout_is_an_input_error(self, kwargs):
        with pytest.raises(InputError):
            build_toy_atlas(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"grid_dims": (1, 16, 16)}, r"grid \(1, 16, 16\) too small for 6 territories"),
        ({"grid_dims": (16, 16, 2)}, r"grid \(16, 16, 2\) too small for 6 territories"),
        ({"n_rois": 4}, "every territory needs at least one ROI"),
        # each raised a TypeError or ValueError from inside the build before
        ({"n_rois": 2.5}, "n_rois must be an integer >= 1, got 2.5"),
        ({"n_rois": None}, "n_rois must be an integer >= 1, got None"),
        ({"grid_dims": (32, 32.0, 32)}, "grid size must be an integer >= 1, got 32.0"),
        ({"n_territories": 6.0}, "n_territories must be an integer >= 1, got 6.0"),
        ({"grid_dims": (32, 32)}, r"grid_dims must hold three sizes, got \(32, 32\)"),
        ({"n_territories": 5}, "n_territories must be even, got 5"),
    ], ids=["one x slice", "fewer z slices than territories", "fewer ROIs than territories",
            "fractional n_rois", "no n_rois", "float grid size", "float n_territories",
            "two-axis grid", "odd n_territories"])
    def test_layout_that_cannot_be_built_names_the_reason(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            build_toy_atlas(**kwargs)

    @pytest.mark.parametrize("grid_dims, n_rois, digest", [
        ((32, 32, 32), 90, "2348979af45892b0146539d21e887ec06e11fb509b5586fa7c147bf3e35a9d90"),
        ((16, 16, 16), 90, "57cefe26716be63a51edd6ee542a2a3a2b97113dc040ea36ebdd57fab07aac47"),
        ((12, 10, 9), 17, "1609b44f1550887ae0785edef2f5260e004e4867aa6592127f2d4422d3b9614a"),
        ((20, 7, 13), 40, "512c2fdae5ce19efe18a0ac3454a6f14d048b8397bd5b14a3a1fa8ba123b7019"),
    ], ids=["90 ROIs, 32^3", "90 ROIs, 16^3", "17 ROIs, 12x10x9", "40 ROIs, 20x7x13"])
    def test_labels_hash_as_pinned(self, grid_dims, n_rois, digest):
        # the ROI, territory and hemisphere labels as little-endian int64:
        # the split of ROIs into stripes and slabs shows here
        atlas = build_toy_atlas(n_rois=n_rois, grid_dims=grid_dims)
        sha = hashlib.sha256()
        for labels in (atlas.roi_of_voxel, atlas.territory_of_roi, atlas.hemisphere_of_roi):
            sha.update(labels.astype("<i8").tobytes())
        assert sha.hexdigest() == digest

    def test_range_chunks_are_never_empty(self):
        # build_toy_atlas splits an extent into at most that many parts and
        # relies on every part holding a voxel: the parts tile [0, extent)
        # with parts + 1 distinct bounds
        for extent in range(1, 400):
            for parts in range(1, extent + 1):
                chunks = _range_chunks(extent, parts)
                bounds = set(itertools.chain.from_iterable(chunks))
                assert len(bounds) == parts + 1 and chunks[-1][1] == extent, (extent, parts)

    @pytest.mark.parametrize("corrupt, message", [
        (_merge_roi_24_into_23, "ROI 24 is empty"),
        (_move_corner_of_roi_4_to_roi_1, "ROI 1 is not face-connected"),
        (_move_roi_1_to_territory_3, "territory 3 is not face-connected"),
    ])
    def test_validate_rejects_corruption(self, small_atlas, corrupt, message):
        # construction runs validate, so a corrupt atlas is never built
        with pytest.raises(InputError, match=message):
            corrupted(small_atlas, corrupt)

    @pytest.mark.parametrize("corrupt", [
        _roi_label_past_n_rois,
        _territory_label_past_n_territories,
        _hemisphere_value_2,
    ])
    def test_validate_rejects_labels_out_of_range(self, small_atlas, corrupt):
        # an ROI label past n_rois used to pass and then raise IndexError in
        # compute_roi_timeseries
        with pytest.raises(InputError, match="outside"):
            corrupted(small_atlas, corrupt)


class TestLesionMask:
    VALID = box(2, 5, 2, 5, 1, 4)  # inside territory 1, left hemisphere

    @pytest.mark.parametrize("voxels", [
        VALID,
        # a pocket open to the grid boundary is not a cavity
        box(0, 3, 0, 5, 0, 5) - {(0, 2, 2), (1, 2, 2)},
    ])
    def test_valid_lesion_passes(self, small_atlas, voxels):
        mask_of(voxels).validate(small_atlas)
        assert mask_of(voxels).territory(small_atlas) == 1

    @pytest.mark.parametrize("flat, message", [
        ([0, 4096], r"indices 0\.\.4096 outside grid"),
        ([-1, 0], r"indices -1\.\.0 outside grid"),
        ([5, 3], "sorted and distinct"),
        ([3, 3], "sorted and distinct"),
        ([[0, 1]], "1-D"),
        ([0.5, 1.7, 2.2], "integer dtype, got float64"),
        ([0.0, 1.0], "integer dtype, got float64"),
        ([False, True], "integer dtype, got bool"),
    ], ids=["past-the-end", "negative", "unsorted", "repeated", "2-D", "fractional",
            "whole-floats", "bool"])
    def test_construction_rejects(self, flat, message):
        with pytest.raises(InputError, match=message):
            LesionMask(np.array(flat), (16, 16, 16))

    def test_ragged_indices_are_named(self):
        # numpy's "setting an array element with a sequence" ValueError before
        with pytest.raises(InputError, match="lesion indices is not a rectangular array"):
            LesionMask([[1], [2, 3]], (16, 16, 16))

    def test_flat_is_a_read_only_copy(self):
        flat = np.array([3, 17, 40])
        lesion = LesionMask(flat, (4, 4, 4))
        flat[0] = 0
        assert lesion.flat.tolist() == [3, 17, 40]
        with pytest.raises(ValueError):
            lesion.flat[0] = 1
        assert np.flatnonzero(lesion.to_dense()).tolist() == [3, 17, 40]

    @pytest.mark.parametrize("grid_dims, message", [
        (None, "grid_dims must hold three sizes, got None"),
        ((4, 4), r"grid_dims must hold three sizes, got \(4, 4\)"),
        ((2.5, 3, 4), "grid size must be an integer >= 1, got 2.5"),
        ((0, 3, 4), "grid size must be an integer >= 1, got 0"),
    ], ids=["None", "two sizes", "fractional", "zero"])
    def test_grid_dims_must_be_three_positive_integers(self, grid_dims, message):
        # None raised a TypeError from math.prod, and (2.5, 3, 4) was accepted
        with pytest.raises(InputError, match=message):
            LesionMask(np.array([0]), grid_dims)

    def test_grid_dims_are_kept_as_a_tuple(self, small_atlas):
        lesion = LesionMask(np.array([3]), np.array([16, 16, 16]))
        assert lesion.grid_dims == small_atlas.grid_dims == (16, 16, 16)
        assert lesion.rois(small_atlas).size == 1

    @pytest.mark.parametrize("grid_dims", [(16, 16, 17), (32, 16, 8)])
    def test_mask_on_another_grid_rejected(self, small_atlas, grid_dims):
        lesion = mask_of(self.VALID, grid_dims)
        message = re.escape(f"lesion on grid {grid_dims} read against grid (16, 16, 16)")
        for use in (lesioned_counts, spared_fractions, lambda atlas, m: m.validate(atlas)):
            with pytest.raises(InputError, match=message):
                use(small_atlas, lesion)

    @pytest.mark.parametrize("voxels, message", [
        (frozenset(), "empty"),
        (box(6, 10, 2, 4, 1, 3), "left hemisphere"),
        (box(2, 4, 2, 4, 3, 7), "spans territories"),
        (frozenset({(2, 2, 2), (4, 4, 2)}), "not face-connected"),
        (box(2, 5, 2, 5, 1, 4) - {(3, 3, 2)}, "cavity"),
        (frozenset({(2, 2, 2), (3, 3, 3)}), "not face-connected"),  # corners touch
        # the centre meets the outside only along an edge of (2, 2, 2)
        (box(2, 5, 2, 5, 1, 4) - {(3, 3, 2), (2, 2, 2)}, "cavity"),
    ])
    def test_validate_rejects(self, small_atlas, voxels, message):
        with pytest.raises(InputError, match=message):
            mask_of(voxels).validate(small_atlas)

    def test_cavity_verdict_matches_hole_filling(self):
        # the left half of an 8x6x6 grid is one territory; each mask is the
        # largest face-connected part of a random fill of that half, so it
        # reaches the cavity check, and most touch the grid boundary, where
        # pockets open to the outside are not cavities
        atlas = build_toy_atlas(n_rois=2, grid_dims=(8, 6, 6), n_territories=2)
        rng = np.random.default_rng(41)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            half = rng.random((4, 6, 6)) < rng.uniform(0.3, 0.7)
            labels, _ = ndimage.label(half, FACE_STRUCTURE)
            dense = np.zeros(atlas.grid_dims, dtype=bool)
            dense[:4] = labels == 1 + np.argmax(np.bincount(labels.reshape(-1))[1:])
            want = not np.array_equal(ndimage.binary_fill_holes(dense, FACE_STRUCTURE), dense)
            try:
                LesionMask(np.flatnonzero(dense), atlas.grid_dims).validate(atlas)
                got = False
            except InputError as exc:
                assert "cavity" in str(exc)
                got = True
            assert got == want
            verdicts[got] += 1
        assert min(verdicts.values()) >= 100, verdicts


class TestFillCavities:
    """`fill_cavities` against scipy's iterated hole filling, on boxes whose
    outer shell is unset."""

    @staticmethod
    def check(box) -> bool:
        """Assert the helper agrees with binary_fill_holes; True if a cavity."""
        got = fill_cavities(box)
        want = ndimage.binary_fill_holes(box, structure=FACE_STRUCTURE)
        if got is None:
            assert np.array_equal(want, box)
            return False
        assert np.array_equal(got, want)
        assert not np.array_equal(want, box)
        return True

    @staticmethod
    def solid(shape, lo, hi) -> np.ndarray:
        box = np.zeros(shape, dtype=bool)
        box[lo:hi, lo:hi, lo:hi] = True
        return box

    def test_random_boxes(self):
        rng = np.random.default_rng(43)
        cavities = 0
        for _ in range(300):
            shape = tuple(int(d) for d in rng.integers(5, 12, size=3))
            box = np.zeros(shape, dtype=bool)
            box[1:-1, 1:-1, 1:-1] = rng.random(tuple(d - 2 for d in shape)) < rng.uniform(0.3, 0.7)
            cavities += self.check(box)
        assert 30 <= cavities <= 270, cavities

    def test_island_with_a_cavity_inside_a_cavity_is_filled_whole(self):
        box = self.solid((9, 9, 9), 1, 8)
        box[2:7, 2:7, 2:7] = False
        box[3:6, 3:6, 3:6] = True
        box[4, 4, 4] = False
        assert self.check(box)
        assert np.array_equal(fill_cavities(box), self.solid((9, 9, 9), 1, 8))

    def test_cavity_meeting_the_outside_only_along_an_edge(self):
        box = self.solid((5, 5, 5), 1, 4)
        box[2, 2, 2] = False
        box[1, 1, 2] = False  # shares an edge, not a face, with (2, 2, 2)
        assert self.check(box)
        filled = fill_cavities(box)
        assert filled[2, 2, 2] and not filled[1, 1, 2]

    @pytest.mark.parametrize("centre", [True, False])
    def test_smallest_box_has_no_cavity(self, centre):
        box = np.zeros((3, 3, 3), dtype=bool)
        box[1, 1, 1] = centre
        assert fill_cavities(box) is None
        assert not self.check(box)

    def test_pocket_open_to_the_shell_is_no_cavity(self):
        box = self.solid((5, 5, 5), 1, 4)
        box[1, 2, 2] = box[2, 2, 2] = False
        assert fill_cavities(box) is None
        assert not self.check(box)


class TestNumpyOracles:
    """The numpy face-connectivity check and label boxes against
    scipy.ndimage's `label` and `find_objects`."""

    def test_connectivity_matches_label(self):
        rng = np.random.default_rng(47)
        verdicts = {True: 0, False: 0}
        thin = 0
        for _ in range(500):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=3))
            cells = rng.random(shape) < rng.uniform(0.2, 1.0)
            got = _region_is_face_connected(cells)
            assert got == (ndimage.label(cells, FACE_STRUCTURE)[1] == 1), cells
            verdicts[got] += 1
            thin += min(shape) <= 2
        assert min(verdicts.values()) >= 100 and thin >= 250, (verdicts, thin)

    @pytest.mark.parametrize("shape, voxels, want", [
        ((0, 3, 3), [], False),
        ((2, 2, 2), [], False),
        ((1, 1, 1), [(0, 0, 0)], True),
        # consecutive in flat C order across a row end and a plane end
        ((1, 2, 3), [(0, 0, 2), (0, 1, 0)], False),
        ((2, 2, 1), [(0, 1, 0), (1, 0, 0)], False),
        ((1, 1, 4), [(0, 0, 0), (0, 0, 1), (0, 0, 3)], False),
        ((3, 1, 2), [(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 0, 0)], True),
    ])
    def test_connectivity_edge_cases(self, shape, voxels, want):
        cells = np.zeros(shape, dtype=bool)
        for v in voxels:
            cells[v] = True
        assert _region_is_face_connected(cells) == want
        assert (ndimage.label(cells, FACE_STRUCTURE)[1] == 1) == want

    def test_bounding_boxes_match_find_objects(self):
        rng = np.random.default_rng(53)
        absent = 0
        for trial in range(300):
            shape = tuple(int(d) for d in rng.integers(1, 8, size=3))
            count = int(rng.integers(1, 12))
            dtype = (np.uint8, np.int16, np.int32, np.int64)[trial % 4]
            labels = (rng.integers(0, count + 1, size=shape)
                      * (rng.random(shape) < rng.uniform(0.05, 1.0))).astype(dtype)
            found, lo, hi = _bounding_boxes(labels, count)
            want = ndimage.find_objects(labels, max_label=count)
            assert found.tolist() == [box is not None for box in want]
            for label, box in enumerate(want):
                if box is not None:
                    assert list(zip(lo[label], hi[label])) == [(s.start, s.stop) for s in box]
            absent += len(want) - int(found.sum())
        assert absent >= 100, absent

    def test_atlas_verdict_matches_label(self):
        # the atlas builds iff every ROI and every territory is one face
        # component, and else names the first region that is not, ROIs first
        base = build_toy_atlas(n_rois=12, grid_dims=(8, 8, 8), n_territories=6)
        hemi = base.hemisphere_of_roi
        rng = np.random.default_rng(59)
        verdicts = {"built": 0, "ROI": 0, "territory": 0}
        for _ in range(200):
            roi, terr = base.roi_of_voxel.copy(), base.territory_of_roi.copy()
            for _ in range(int(rng.integers(1, 4))):
                voxel = tuple(int(rng.integers(8)) for _ in range(3))
                # most moves take a face neighbour's label, which can keep both
                # ROIs connected; the rest take any label or background
                axis, step = int(rng.integers(3)), int(rng.choice((-1, 1)))
                near = list(voxel)
                near[axis] = min(max(near[axis] + step, 0), 7)
                roi[voxel] = (roi[tuple(near)] if rng.random() < 0.75
                              else int(rng.integers(0, base.n_rois + 1)))
            # half the atlases also move one ROI to any territory
            if rng.random() < 0.5:
                terr[rng.integers(base.n_rois)] = rng.integers(1, base.n_territories + 1)
            want = None
            for name, grid, count in (("ROI", roi, base.n_rois),
                                      ("territory", np.append(0, terr)[roi], base.n_territories)):
                for label in range(1, count + 1):
                    components = ndimage.label(grid == label, FACE_STRUCTURE)[1]
                    if want is None and components != 1:
                        want = f"{name} {label} is {'empty' if not components else 'not face-'}"
            if want is None:
                ToyAtlas(roi, terr, hemi, base.n_territories)
            else:
                with pytest.raises(InputError, match=f"^{want}"):
                    ToyAtlas(roi, terr, hemi, base.n_territories)
            verdicts[want.split()[0] if want else "built"] += 1
        assert min(verdicts.values()) >= 30, verdicts


class TestRoiTimeseries:
    """Lesioned ROI mean series (`synthgen.lesioned_roi_series`) on a 3x1x1
    grid: ROI 1 is the voxels x = 0, 1 and ROI 2 the voxel x = 2."""

    SUMS = np.array([[2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])

    def grid_atlas(self):
        roi = np.array([1, 1, 2], dtype=np.int32).reshape(3, 1, 1)
        return ToyAtlas(roi, np.ones(2, dtype=np.int32), np.zeros(2, dtype=np.uint8),
                        n_territories=1)

    def series(self, voxels, sums=SUMS, sigma_voxel=1.0):
        healthy = HealthySubject(id="h", roi_sums=sums, sigma_voxel=sigma_voxel, y0=50.0)
        return lesioned_roi_series(healthy, self.grid_atlas(), mask_of(voxels, (3, 1, 1)), 0)

    def test_unmasked_mean(self):
        assert np.array_equal(self.series(set()), [[1, 2, 3], [1, 1, 1]])

    def test_masked_mean_skips_lesioned_voxel(self):
        # without voxel noise both voxels carry the ROI signal: the mean holds
        assert np.array_equal(self.series({(0, 0, 0)}, sigma_voxel=0.0), [[1, 2, 3], [1, 1, 1]])
        # with it, ROI 1's row is its one spared voxel, which scatters around
        # the healthy mean with variance sigma^2 k / (n (n - k)) = sigma^2 / 2
        t_len, var = 20_000, 2.0 ** 2 / 2
        sums = np.stack([np.full(t_len, 2.0), np.full(t_len, 1.0)])
        ts = self.series({(0, 0, 0)}, sums=sums, sigma_voxel=2.0)
        assert np.array_equal(ts[1], sums[1])
        assert abs(ts[0].mean() - 1.0) <= 5 * math.sqrt(var / t_len)
        assert abs(ts[0].var() - var) <= 5 * var * math.sqrt(2 / t_len)

    def test_fully_lesioned_roi_is_zero(self):
        ts = self.series({(0, 0, 0), (1, 0, 0)})
        assert np.array_equal(ts, [[0, 0, 0], [1, 1, 1]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="ROIs"):
            self.series(set(), sums=np.ones((3, 3)))

    def test_empty_lesion_equals_unmasked(self, small_atlas):
        healthy = generate_healthy_subject(small_atlas, 0, CohortParams(t_len=5))
        got = lesioned_roi_series(healthy, small_atlas, mask_of([]), 0)
        assert got.tobytes() == (healthy.roi_sums / small_atlas.roi_sizes()[:, None]).tobytes()


class TestCorrelation:
    def test_self_correlation_is_one(self):
        ts = np.array([[1.0, 2.0, 4.0]])
        corr = correlation_matrix(ts)
        assert corr[0, 0] == 1.0

    def test_zero_variance_row_gives_zero(self):
        ts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        corr = correlation_matrix(ts)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0 and corr[0, 0] == 0.0
        assert corr[1, 1] == 1.0

    def test_anticorrelated_rows(self):
        # hand computation: [1,2,3] vs [3,2,1] is exactly -1
        ts = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        corr = correlation_matrix(ts)
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry_and_unit_diagonal_on_random_input(self):
        rng = np.random.default_rng(3)
        ts = rng.normal(size=(12, 40))
        corr = correlation_matrix(ts)
        assert np.array_equal(corr, corr.T)
        assert np.all(np.diag(corr) == 1.0)
        assert corr.min() >= -1.0 and corr.max() <= 1.0

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_extreme_row_scale_gives_the_unscaled_matrix(self, factor):
        # x 1e160 overflowed the row's squares: zero correlations and a
        # warning; x 1e-170 underflowed them and the row came out dead
        ts = np.random.default_rng(6).normal(size=(3, 6))
        expected = correlation_matrix(ts)
        ts[1] *= factor
        with np.errstate(all="raise"):
            corr = correlation_matrix(ts)
        assert np.abs(corr - expected).max() <= 1e-15

    def test_ordinary_rows_keep_the_bytes_of_the_unscaled_formula(self):
        # the power-of-two row scale is exact, so away from float64's limits
        # the result is the plain formula's, byte for byte
        scales = np.array([[1.0], [1e3], [1e-3], [7.0], [0.1]])
        ts = np.random.default_rng(7).normal(size=(5, 20)) * scales + 3.0
        centered = ts - ts.mean(axis=1, keepdims=True)
        unit = centered / np.sqrt((centered * centered).sum(axis=1))[:, None]
        expected = np.clip(unit @ unit.T, -1.0, 1.0)
        np.fill_diagonal(expected, 1.0)
        assert correlation_matrix(ts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_an_input_error(self, bad):
        # a NaN norm fails `norm > 0`, so the row used to come out all-zero, as if dead
        ts = np.random.default_rng(5).normal(size=(4, 10))
        ts[2, 3] = bad
        with pytest.raises(InputError, match=r"rows \[2\] hold NaN or inf"):
            correlation_matrix(ts)


    @pytest.mark.parametrize("shape", [(5,), (3, 1), (2, 3, 4)], ids=["1-D", "Tlen-1", "3-D"])
    def test_series_that_is_not_n_by_tlen_is_an_input_error(self, shape):
        with pytest.raises(InputError, match=r"correlations need an \(N, Tlen >= 2\) series"):
            correlation_matrix(np.ones(shape))

    def test_series_that_is_not_an_ndarray_is_an_input_error(self):
        # a nested list raised AttributeError: no attribute 'ndim'
        with pytest.raises(InputError, match="ROI series must be a ndarray, got list"):
            correlation_matrix([[0.0, 1.0], [1.0, 0.0]])


class TestExponentiate:
    def test_anchor_values(self):
        out = exponentiate(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert out[0, 0] == pytest.approx(math.e)
        assert out[0, 1] == 1.0
        assert out[1, 1] == pytest.approx(1.0 / math.e)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            exponentiate(np.array([[1.5]]))

    def test_nan_rejected(self):
        # abs(NaN) > 1 is False, so a NaN used to pass through as exp(NaN)
        with pytest.raises(InputError, match="must lie in \\[-1, 1\\], got nan"):
            exponentiate(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_preserves_symmetry_and_validates(self):
        rng = np.random.default_rng(4)
        ts = rng.normal(size=(8, 30))
        x = exponentiate(correlation_matrix(ts))
        validate_connectivity(x)


class TestValidateConnectivity:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)], ids=["1-D", "2x3", "3-D"])
    def test_matrix_that_is_not_square_is_rejected(self, shape):
        with pytest.raises(InputError, match="connectivity must be square"):
            validate_connectivity(np.ones(shape))

    @pytest.mark.parametrize("value", [math.exp(1.0) + 1e-11, math.exp(-1.0) - 1e-11, 0.0],
                             ids=["above e", "below 1/e", "zero"])
    def test_entry_outside_the_exponentiated_range_is_rejected(self, value):
        x = np.ones((3, 3))
        validate_connectivity(x)
        x[0, 2] = x[2, 0] = value
        with pytest.raises(InputError, match=r"outside \[1/e, e\]"):
            validate_connectivity(x)

    def test_matrix_that_is_not_an_ndarray_is_rejected(self):
        # a nested list raised AttributeError: no attribute 'ndim'
        with pytest.raises(InputError, match="connectivity must be a ndarray, got list"):
            validate_connectivity([[1.0]])

    def test_matrix_without_rois_is_rejected(self):
        # the range check's max() used to raise numpy's zero-size ValueError
        with pytest.raises(InputError, match="connectivity has no ROIs"):
            validate_connectivity(np.zeros((0, 0)))

    def test_range_ends_are_inside(self):
        x = np.full((2, 2), math.exp(1.0))
        x[0, 1] = x[1, 0] = math.exp(-1.0)
        validate_connectivity(x)


class TestSparedFractions:
    def test_fractions(self, small_atlas):
        # lesion 4 voxels of one ROI in a left territory
        roi_id = int(small_atlas.roi_of_voxel[small_atlas.territory_mask(1)][0])
        coords = np.argwhere(small_atlas.roi_of_voxel == roi_id)
        lesion = mask_of(coords[:4])
        enc = spared_fractions(small_atlas, lesion)
        size = small_atlas.roi_sizes()[roi_id - 1]
        assert enc.p[roi_id - 1] == pytest.approx(1.0 - 4.0 / size)
        untouched = np.delete(enc.p, roi_id - 1)
        assert np.all(untouched == 1.0)

    def test_fully_covered_roi_is_zero(self, small_atlas):
        roi_id = 1
        coords = np.argwhere(small_atlas.roi_of_voxel == roi_id)
        lesion = mask_of(coords)
        enc = spared_fractions(small_atlas, lesion)
        assert enc.p[0] == 0.0

    def test_conservation(self, small_atlas):
        rng = np.random.default_rng(9)
        coords = np.argwhere(small_atlas.territory_mask(2))
        chosen = coords[rng.choice(len(coords), size=30, replace=False)]
        lesion = mask_of(chosen)
        enc = spared_fractions(small_atlas, lesion)
        sizes = small_atlas.roi_sizes()
        spared_voxels = float(np.dot(enc.p, sizes))
        total = sizes.sum()
        assert spared_voxels == pytest.approx(total - 30)


class TestSubjectIO:
    def make_records(self, n=5, n_rois=7, seed=0):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            ts = rng.normal(size=(n_rois, 20))
            x = exponentiate(correlation_matrix(ts))
            p = np.clip(rng.uniform(0, 1.4, size=n_rois), 0, 1)
            records.append(
                SubjectRecord(id=f"s{i:03d}", x=x, lesion=LesionEncoding(p=p),
                              y=float(rng.uniform(0, 100)))
            )
        return records

    def test_round_trip_is_lossless(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "cohort.bin"
        save_cohort(path, records)
        loaded = load_cohort(path)
        assert [r.id for r in loaded] == [r.id for r in records]
        for a, b in zip(records, loaded):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.lesion.p, b.lesion.p)
            assert a.y == b.y
            b.validate()

    def test_save_is_byte_deterministic(self, tmp_path):
        records = self.make_records()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_cohort(p1, records)
        save_cohort(p2, records)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("field", ["x", "y", "p"])
    def test_record_that_load_would_refuse_cannot_be_built(self, field):
        # each of these used to save, then fail on load ("truncated" for p);
        # now no such record exists to be saved
        rec = self.make_records(n=2, n_rois=4)[1]
        x = rec.x.copy()
        x[0, 1] = x[1, 0] = np.nan
        change = {"x": {"x": x}, "y": {"y": 150.0},
                  "p": {"lesion": LesionEncoding(p=rec.lesion.p[:3])}}[field]
        with pytest.raises(InputError, match="subject 's001'"):
            dataclasses.replace(rec, **change)

    @pytest.mark.parametrize("shape, message", [
        ("empty", "empty cohort"),
        ("mixed-n", "must share N"),
    ], ids=["empty", "mixed-n"])
    def test_save_rejects_a_cohort_it_cannot_write(self, tmp_path, shape, message):
        records = [] if shape == "empty" else self.make_records(n=1) + self.make_records(
            n=1, n_rois=6)
        path = tmp_path / "cohort.bin"
        with pytest.raises(InputError, match=message):
            save_cohort(path, records)
        assert not path.exists()

    def test_save_rejects_id_longer_than_its_length_field(self, tmp_path):
        # a 70,000-byte id used to raise struct.error mid-file
        rec = self.make_records(n=1)[0]
        with pytest.raises(InputError, match="65535"):
            save_cohort(tmp_path / "cohort.bin", [dataclasses.replace(rec, id="a" * 70_000)])
        records = [dataclasses.replace(rec, id="\u00e9" * 32_767)]  # 65,534 UTF-8 bytes
        save_cohort(tmp_path / "cohort.bin", records)
        assert load_cohort(tmp_path / "cohort.bin")[0].id == records[0].id

    def test_save_rejects_an_id_utf8_cannot_encode(self, tmp_path):
        # a lone surrogate used to raise UnicodeEncodeError; load turns
        # undecodable id bytes into an InputError already
        rec = dataclasses.replace(self.make_records(n=1)[0], id="s\ud800")
        path = tmp_path / "cohort.bin"
        with pytest.raises(InputError, match=r"subject 's\\ud800': id is not UTF-8 encodable"):
            save_cohort(path, [rec])
        assert not path.exists()

    def test_subject_validation(self):
        rec = self.make_records(n=1)[0]
        with pytest.raises(InputError, match=r"subject 's000': score 150.0 outside \[0, 100\]"):
            dataclasses.replace(rec, y=150.0)

    @pytest.mark.parametrize("y", [None, "abc", np.array([40.0, 50.0]), True],
                             ids=["None", "str", "2-vector", "bool"])
    def test_score_that_is_not_a_real_number_is_an_input_error(self, y):
        # math.isfinite used to raise TypeError
        rec = self.make_records(n=2)[1]
        with pytest.raises(InputError, match="subject 's001': score must be a finite number"):
            dataclasses.replace(rec, y=y)

    @pytest.mark.parametrize("length", [14, "half", "one short", "one long"])
    def test_load_requires_exact_length(self, tmp_path, length):
        # cuts at byte 14 and at half length used to raise struct.error and
        # a reshape ValueError
        path = tmp_path / "cohort.bin"
        save_cohort(path, self.make_records(n=2))
        data = path.read_bytes()
        size = {"half": len(data) // 2, "one short": len(data) - 1,
                "one long": len(data) + 1}.get(length, length)
        path.write_bytes((data + b"\0")[:size])
        with pytest.raises(InputError, match="truncated|trailing"):
            load_cohort(path)

    @pytest.mark.parametrize("offset, patch, message", [
        (4, struct.pack("<I", 2), "unsupported cohort version 2"),
        (18, b"\xff", "subject id is not utf-8"),  # first byte of record 's000's id
    ], ids=["version-2", "id-not-utf8"])
    def test_load_rejects_a_bad_version_or_id(self, tmp_path, offset, patch, message):
        path = tmp_path / "cohort.bin"
        save_cohort(path, self.make_records(n=1))
        data = bytearray(path.read_bytes())
        data[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match=message):
            load_cohort(path)

    def test_load_rejects_header_without_rois(self, tmp_path):
        path = tmp_path / "cohort.bin"
        save_cohort(path, self.make_records(n=1))
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 12, 0)  # N: magic, version and count in
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match="no ROIs"):
            load_cohort(path)

    @pytest.mark.parametrize("field, value, message", [
        ("x", np.nan, "non-finite"),
        ("x", 5.0, "not symmetric|outside"),
        ("p", 1.5, "spared fractions"),
        ("y", np.inf, "score"),
    ])
    def test_load_validates_records(self, tmp_path, field, value, message):
        # save_cohort refuses such records, so the value is written into the
        # file: after the header and record 's000', past record 's001's id
        records = self.make_records(n=2)
        path = tmp_path / "cohort.bin"
        save_cohort(path, records)
        n = records[0].x.shape[0]
        record_1 = 16 + 2 + 4 + 8 * (1 + n + n * n)
        offset = {"y": 0, "p": 8, "x": 8 + 8 * n + 8}[field]  # y, p[0], X[0, 1]
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, record_1 + 2 + 4 + offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match=f"subject 's001'.*({message})"):
            load_cohort(path)

    def test_symmetry_is_checked_against_atol_alone(self, tmp_path):
        # np.allclose added rtol=1e-5 of |X^T|, so an asymmetry of 5e-6 passed
        records = self.make_records(n=2)
        x = records[1].x.copy()
        validate_connectivity(x)
        x[0, 1] = x[1, 0] + 1e-13
        validate_connectivity(x)
        dataclasses.replace(records[1], x=x)
        x[0, 1] = x[1, 0] + 5e-6
        with pytest.raises(InputError, match="not symmetric"):
            validate_connectivity(x)
        with pytest.raises(InputError, match="subject 's001': connectivity matrix is not symm"):
            dataclasses.replace(records[1], x=x)
        # written into the file, as no such record can be built: X[0, 1] of 's001'
        path = tmp_path / "cohort.bin"
        save_cohort(path, records)
        n = x.shape[0]
        record_1 = 16 + 2 + 4 + 8 * (1 + n + n * n)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, record_1 + 2 + 4 + 8 + 8 * n + 8, x[1, 0] + 5e-6)
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match="subject 's001': connectivity matrix is not symm"):
            load_cohort(path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**DAMAGE)
    def test_damaged_file_loads_or_raises_input_error(self, tmp_path_factory, cut, flips):
        records = self.make_records(n=2)
        path = tmp_path_factory.mktemp("cohort") / "cohort.bin"
        save_cohort(path, records)
        whole, flipped = damage(path, cut, flips)
        try:
            loaded = load_cohort(path)
        except InputError:
            assert not whole or flipped
            return
        assert whole
        if not flipped:
            assert all(a.x.tobytes() == b.x.tobytes() for a, b in zip(records, loaded))


class TestRecordsCheckedAtConstruction:
    def make_record(self, **changes):
        rng = np.random.default_rng(3)
        fields = dict(id="s007", x=exponentiate(correlation_matrix(rng.normal(size=(4, 12)))),
                      lesion=LesionEncoding(p=np.array([1.0, 0.5, 0.0, 1.0])), y=42.0)
        return SubjectRecord(**{**fields, **changes})

    def test_fields_and_arrays_are_read_only(self):
        rec = self.make_record()
        for obj, name, value in ((rec, "y", 50.0), (rec, "id", "s008"), (rec, "x", rec.x),
                                 (rec.lesion, "p", rec.lesion.p)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        with pytest.raises(ValueError, match="read-only"):
            rec.x[0, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rec.lesion.p[0] = 0.5

    def test_record_keeps_float64_copies_of_the_callers_arrays(self):
        x = self.make_record().x.copy()
        p = np.array([1, 0, 1, 1])  # integers: stored as float64
        rec = self.make_record(x=x, lesion=LesionEncoding(p=p))
        x[0, 1] = x[1, 0] = np.nan
        p[0] = 7
        assert rec.x.dtype == rec.lesion.p.dtype == np.float64
        assert np.isfinite(rec.x).all() and rec.lesion.p.tolist() == [1.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("ident", [7, None, b"s007"], ids=["int", "None", "bytes"])
    def test_id_that_is_not_a_str_is_an_input_error(self, ident):
        # an int id used to pass validate() and then raise AttributeError
        # ('int' object has no attribute 'encode') inside save_cohort
        with pytest.raises(InputError, match="subject id must be a str"):
            self.make_record(id=ident)

    @pytest.mark.parametrize("x, message", [
        (np.ones((4, 5)), "connectivity must be square"),
        (np.ones(4), "connectivity must be square"),
        (np.full((4, 4), 3.0), r"connectivity entries outside \[1/e, e\]"),
        # the next raised numpy's ValueError or lost an imaginary part with a
        # ComplexWarning
        (np.zeros((0, 0)), "connectivity has no ROIs"),
        (np.ones((4, 4)) + 0.5j, "X must hold real numbers, got dtype complex128"),
        (np.ones((4, 4), dtype=complex), "X must hold real numbers, got dtype complex128"),
        (np.full((4, 4), "1.0"), "X must hold real numbers, got dtype <U3"),
        ([[1.0] * 4, [1.0] * 3, [1.0] * 4, [1.0] * 4], "X is not a rectangular array"),
    ], ids=["4x5", "1-D", "out of range", "0 ROIs", "complex", "complex, zero imaginary part",
            "str", "ragged"])
    def test_bad_x_names_the_subject(self, x, message):
        with pytest.raises(InputError, match=f"subject 's007': {message}"):
            self.make_record(x=x)

    @pytest.mark.parametrize("p, message", [
        (np.array([1.0, 0.5j, 0.0, 1.0]), "must hold real numbers, got dtype complex128"),
        (np.array(["1", "0", "1", "1"]), "must hold real numbers, got dtype <U1"),
        ([[1.0], [0.5, 0.0]], "is not a rectangular array"),
    ], ids=["complex", "str", "ragged"])
    def test_spared_fractions_that_are_not_a_real_array_are_rejected(self, p, message):
        # a ComplexWarning or numpy's ValueError before
        with pytest.raises(InputError, match=f"spared fractions {message}"):
            LesionEncoding(p=p)

    def test_bool_integer_float_and_list_inputs_are_kept(self):
        x = np.ones((4, 4), dtype=np.int32)
        rec = self.make_record(x=x, lesion=LesionEncoding(p=np.array([True, False, True, True])))
        assert rec.x.dtype == rec.lesion.p.dtype == np.float64
        assert rec.lesion.p.tolist() == [1.0, 0.0, 1.0, 1.0] and (rec.x == 1.0).all()
        rec = self.make_record(x=x.astype(bool).tolist(), lesion=LesionEncoding(p=[1, 0.5, 0, 1]))
        assert rec.x.tolist() == x.tolist() and rec.lesion.p.tolist() == [1.0, 0.5, 0.0, 1.0]
        x32 = self.make_record().x.astype(np.float32)
        assert np.array_equal(self.make_record(x=x32).x, x32.astype(np.float64))

    def test_lesion_that_is_not_an_encoding_names_the_subject(self):
        with pytest.raises(InputError, match="subject 's007': lesion must be a LesionEncoding"):
            self.make_record(lesion=np.ones(4))

    @pytest.mark.parametrize("p", [np.ones((2, 2)), np.float64(0.5)], ids=["2-D", "0-D"])
    def test_lesion_encoding_must_be_a_vector(self, p):
        with pytest.raises(InputError, match="lesion encoding must be a vector"):
            LesionEncoding(p=p)

    @pytest.mark.parametrize("p", [[0.5, np.nan], [0.5, np.inf], [1.5], [-0.1]],
                             ids=["NaN", "inf", "above 1", "below 0"])
    def test_spared_fraction_outside_zero_one_is_rejected(self, p):
        with pytest.raises(InputError, match=r"spared fractions must lie in \[0, 1\]"):
            LesionEncoding(p=np.array(p))


class TestCheckpointIO:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**DAMAGE)
    def test_damaged_checkpoint_loads_or_raises_input_error(self, tmp_path_factory, cut, flips):
        # checkpoints read through the same exact-length reader as cohorts
        hyper = HyperParams(n_rois=3, k=2, d0=1, d1=2, d2=1, d3=2)
        params = init_params(MODEL_LEGNET, hyper, 0)
        path = tmp_path_factory.mktemp("checkpoint") / "model.ckpt"
        save_checkpoint(path, MODEL_LEGNET, hyper, params)
        whole, flipped = damage(path, cut, flips)
        try:
            kind, loaded_hyper, loaded = load_checkpoint(path)
        except InputError:
            assert not whole or flipped
            return
        assert whole
        if not flipped:
            assert (kind, loaded_hyper) == (MODEL_LEGNET, hyper)
            assert all(np.array_equal(params[name], loaded[name]) for name in params)
