"""Data model for parcellated brains, lesions, connectivity and subject files.

A :class:`ToyAtlas` labels each voxel of a grid with an ROI, and each ROI
with an arterial territory and a hemisphere; it is checked when it is built.
A :class:`LesionMask` holds the damaged voxels as sorted flat indices into
that grid; per ROI it removes :func:`lesioned_counts` voxels and leaves the
spared fractions p_i, held in :class:`LesionEncoding`. Model
inputs come from (N, Tlen) ROI mean time series:

    ROI mean series -> Pearson correlation -> exponentiation -> X

Connectivity matrices are plain (N, N) float64 arrays; their invariants can
be asserted with :func:`validate_connectivity`. A :class:`SubjectRecord`
holds one subject's X, p and score y. Records and lesion encodings are
frozen and checked once, when they are built, so code that takes one (the
cohort file writer, the model) does not check it again.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

HEMI_LEFT = 0
HEMI_RIGHT = 1

_COHORT_MAGIC = b"LEGC"
_FORMAT_VERSION = 1

# entrywise slack of the connectivity checks: symmetry and the [1/e, e] range
CONNECTIVITY_ATOL = 1e-12


class InputError(ValueError):
    """Rejected input: dimension mismatch, out-of-range or non-finite entries,
    bad file, or an atlas layout or lesion spec that cannot be built."""


def check_number(name: str, value, low: float = -math.inf, integral: bool = False) -> None:
    """InputError unless `value` is a finite number >= low, and an integer
    if `integral`. A bool is not a number here."""
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not -math.inf < value < math.inf or value < low):
        floor = f" >= {low}" if low > -math.inf else ""
        raise InputError(f"{name} must be {'an integer' if integral else 'a finite number'}"
                         f"{floor}, got {value!r}")


def check_types(*checks) -> None:
    """InputError, naming the argument, unless each (name, value, cls) has
    `value` an instance of `cls`."""
    for name, value, cls in checks:
        if not isinstance(value, cls):
            raise InputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def keep_python_scalars(obj) -> None:
    """Replace each numpy scalar in a frozen dataclass's fields, and in its
    tuple or list fields, with the equal Python scalar, which JSON can write."""
    def plain(v):
        return v.item() if isinstance(v, np.generic) else v
    for name, value in vars(obj).items():
        pair = isinstance(value, (tuple, list))
        object.__setattr__(obj, name, type(value)(map(plain, value)) if pair else plain(value))


def check_seed(name: str, seed, sequence: bool = False) -> None:
    """InputError unless `seed` is an integer >= 0, or a SeedSequence if
    `sequence`. None is rejected: numpy would seed it from OS entropy."""
    if not (sequence and isinstance(seed, np.random.SeedSequence)):
        check_number(name, seed, 0, integral=True)


def _grid_dims(value) -> tuple[int, int, int]:
    """`value` as three Python ints; InputError unless it holds three integers >= 1."""
    dims = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(dims, (tuple, list)) or len(dims) != 3:
        raise InputError(f"grid_dims must hold three sizes, got {value!r}")
    for size in dims:
        check_number("grid size", size, 1, integral=True)
    return tuple(map(int, dims))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _rectangular(name: str, value) -> np.ndarray:
    """np.asarray(value); ragged nesting is an InputError naming the array."""
    try:
        return np.asarray(value)
    except ValueError:
        raise InputError(f"{name} is not a rectangular array") from None


def _real_array(name: str, value) -> np.ndarray:
    """A read-only float64 copy of `value`, an array of bools, integers or
    real floats. Ragged nesting or any other dtype (complex, str, object) is
    an InputError naming the array."""
    a = _rectangular(name, value)
    if a.dtype.kind not in "biuf":
        raise InputError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return _read_only(a.astype(np.float64))


def _int_array(name: str, value, dtype=None) -> np.ndarray:
    """A read-only C-order copy of `value`, an array of integers, as `dtype`
    if given. Ragged nesting or any other dtype (bool, float, str, object)
    is an InputError naming the array."""
    a = _rectangular(name, value)
    if not np.issubdtype(a.dtype, np.integer):
        raise InputError(f"{name} must have an integer dtype, got {a.dtype}")
    return _read_only(a.astype(dtype or a.dtype, order="C"))


# ----------------------------------------------------------------------
# atlas
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ToyAtlas:
    """Voxel-grid parcellation: an ROI per voxel, a territory and a
    hemisphere per ROI.

    `roi_of_voxel` is a 3-D grid, 0 for background and 1..N for the ROIs;
    entry i of `territory_of_roi` (1..T) and of `hemisphere_of_roi`
    (HEMI_LEFT or HEMI_RIGHT) belongs to ROI i + 1. Construction keeps
    read-only copies of the three integer arrays and a Python int
    n_territories, and runs `validate`, so every atlas has non-empty,
    face-connected ROIs and territories. It then computes its ROI sizes and
    padded territories once.
    """

    roi_of_voxel: np.ndarray
    territory_of_roi: np.ndarray
    hemisphere_of_roi: np.ndarray
    n_territories: int

    def __post_init__(self):
        keep_python_scalars(self)
        for name in ("roi_of_voxel", "territory_of_roi", "hemisphere_of_roi"):
            object.__setattr__(self, name, _int_array(name, getattr(self, name)))
        self.validate()
        sizes = np.bincount(self.roi_of_voxel.reshape(-1), minlength=self.n_rois + 1)[1:]
        object.__setattr__(self, "_roi_sizes", _read_only(sizes))
        grids = {t: np.pad(self.territory_mask(t), 1) for t in range(1, self.n_territories + 1)}
        object.__setattr__(self, "_padded", {t: (_read_only(np.flatnonzero(g)), g.tobytes())
                                             for t, g in grids.items()})

    @property
    def grid_dims(self) -> tuple[int, int, int]:
        return self.roi_of_voxel.shape

    @property
    def n_rois(self) -> int:
        return self.territory_of_roi.size

    def roi_sizes(self) -> np.ndarray:
        """Read-only voxel count per ROI, index i holds the size of ROI i+1."""
        return self._roi_sizes

    def territory_rois(self, territory: int) -> np.ndarray:
        """Sorted 0-based indices of the ROIs inside a territory."""
        return np.flatnonzero(self.territory_of_roi == territory)

    def territory_size(self, territory: int) -> int:
        return int(self._roi_sizes[self.territory_of_roi == territory].sum())

    def territory_mask(self, territory: int) -> np.ndarray:
        """Boolean grid, True on the voxels of the territory's ROIs."""
        return np.take(np.append(False, self.territory_of_roi == territory), self.roi_of_voxel)

    def padded_territory(self, territory: int) -> tuple[np.ndarray, bytes]:
        """A territory in the grid padded by one empty voxel on every side:
        its voxels as read-only sorted flat indices into the padded grid, and
        the padded grid as one byte per voxel, 1 inside the territory."""
        return self._padded[territory]

    def left_territories(self) -> list[int]:
        """Territories whose ROIs all lie in the left hemisphere."""
        right = set(self.territory_of_roi[self.hemisphere_of_roi != HEMI_LEFT].tolist())
        return [t for t in range(1, self.n_territories + 1) if t not in right]

    def validate(self) -> None:
        """Raise InputError on any violated atlas invariant."""
        check_number("n_territories", self.n_territories, 1, integral=True)
        n, terr, hemi = self.n_rois, self.territory_of_roi, self.hemisphere_of_roi
        if self.roi_of_voxel.ndim != 3 or terr.ndim != 1 or hemi.shape != terr.shape:
            raise InputError(f"need a 3-D roi_of_voxel and one territory and hemisphere per "
                             f"ROI, got shapes {self.roi_of_voxel.shape}, {terr.shape}, {hemi.shape}")
        # the box table indexes by label, so range errors go first
        for name, labels, low, top in (("roi_of_voxel", self.roi_of_voxel, 0, n),
                                       ("territory_of_roi", terr, 1, self.n_territories),
                                       ("hemisphere_of_roi", hemi, HEMI_LEFT, HEMI_RIGHT)):
            if np.any((labels < low) | (labels > top)):
                raise InputError(f"{name} has labels outside [{low}, {top}]")

        found, lo, hi = _bounding_boxes(self.roi_of_voxel, n)
        for roi in range(1, n + 1):
            if not found[roi - 1]:
                raise InputError(f"ROI {roi} is empty")
            bbox = tuple(map(slice, lo[roi - 1], hi[roi - 1]))
            if not _region_is_face_connected(self.roi_of_voxel[bbox] == roi):
                raise InputError(f"ROI {roi} is not face-connected")
        # a territory lies inside the box around its ROIs' boxes
        for t in range(1, self.n_territories + 1):
            members = terr == t
            if not members.any():
                raise InputError(f"territory {t} is empty")
            bbox = tuple(map(slice, lo[members].min(axis=0), hi[members].max(axis=0)))
            if not _region_is_face_connected(self.territory_mask(t)[bbox]):
                raise InputError(f"territory {t} is not face-connected")


def _bounding_boxes(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each label 1..count of a grid with labels in [0, count] is
    present, and the start and stop of its box per axis, each (count, ndim),
    from one (label, coordinate) presence table per axis."""
    lo, hi = [], []
    for axis, size in enumerate(labels.shape):
        keys = np.multiply(labels, size, dtype=np.intp)
        keys += np.arange(size).reshape([-1 if a == axis else 1 for a in range(labels.ndim)])
        present = np.bincount(keys.reshape(-1),
                              minlength=(count + 1) * size).reshape(count + 1, size)[1:] > 0
        lo.append(np.where(present, np.arange(size), size).min(axis=1, initial=size))
        hi.append(np.where(present, np.arange(1, size + 1), 0).max(axis=1, initial=0))
    return present.any(axis=1), np.stack(lo, axis=1), np.stack(hi, axis=1)


def _range_chunks(extent: int, parts: int) -> list[tuple[int, int]]:
    """`parts` near-equal ranges tiling [0, extent), none empty when parts <=
    extent: np.linspace's bounds i * (extent / parts), rounded half to even."""
    bounds = [round(i * (extent / parts)) for i in range(parts)] + [extent]
    return list(zip(bounds, bounds[1:]))


def build_toy_atlas(
    n_rois: int = 90,
    grid_dims: tuple[int, int, int] = (32, 32, 32),
    n_territories: int = 6,
) -> ToyAtlas:
    """Construct the default procedural atlas.

    The left hemisphere is x < grid_dims[0] // 2. Territories are contiguous
    z-slabs within each hemisphere, ROIs are contiguous sub-blocks of their
    territory. ROI counts are distributed across territories proportionally
    to territory volume. Sizes and counts must be integers, checked first.
    """
    grid_dims = _grid_dims(grid_dims)
    for name, value in (("n_rois", n_rois), ("n_territories", n_territories)):
        check_number(name, value, 1, integral=True)
    if n_territories % 2:
        raise InputError(f"n_territories must be even, got {n_territories}")
    gx, gy, gz = grid_dims
    per_hemi = n_territories // 2
    if gz < per_hemi or gx < 2:
        raise InputError(f"grid {grid_dims} too small for {n_territories} territories")

    roi = np.zeros(grid_dims, dtype=np.int32)
    mid = gx // 2
    territory_boxes = [((x0, x1), (z0, z1)) for x0, x1 in ((0, mid), (mid, gx))
                       for z0, z1 in _range_chunks(gz, per_hemi)]  # (x range, z range)
    sizes = [(x1 - x0) * gy * (z1 - z0) for (x0, x1), (z0, z1) in territory_boxes]
    quotas = _largest_remainder_quotas(n_rois, sizes)

    territory_of_roi, hemisphere_of_roi = [], []
    for territory, (((x0, x1), (z0, z1)), quota) in enumerate(zip(territory_boxes, quotas), 1):
        if quota == 0:
            raise InputError("every territory needs at least one ROI")
        sz = z1 - z0
        stripes = min(gy, max(1, math.isqrt(quota - 1) + 1))
        stripe_counts = _largest_remainder_quotas(quota, [1] * stripes)
        if max(stripe_counts) > sz:
            raise InputError(f"cannot fit {quota} ROIs into a {x1 - x0}x{gy}x{sz} territory")
        # stripes <= gy and count <= sz, so no stripe or chunk is empty
        for (y0, y1), count in zip(_range_chunks(gy, stripes), stripe_counts):
            for zz0, zz1 in _range_chunks(sz, count):
                roi[x0:x1, y0:y1, z0 + zz0:z0 + zz1] = len(territory_of_roi) + 1
                territory_of_roi.append(territory)
                hemisphere_of_roi.append(HEMI_LEFT if x0 == 0 else HEMI_RIGHT)

    return ToyAtlas(roi, np.array(territory_of_roi, np.int32),
                    np.array(hemisphere_of_roi, np.uint8), n_territories)


def _largest_remainder_quotas(total: int, sizes: list[int]) -> list[int]:
    weight = sum(sizes)
    raw = [total * s / weight for s in sizes]
    quotas = [int(x) for x in raw]
    remainders = sorted(range(len(sizes)), key=lambda i: raw[i] - quotas[i], reverse=True)
    for i in remainders[: total - sum(quotas)]:
        quotas[i] += 1
    return quotas


# ----------------------------------------------------------------------
# lesion masks
# ----------------------------------------------------------------------


def _flood(reached: np.ndarray, allowed: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Grow `reached` (in `allowed`; flat C-order boolean grids of shape
    (a, b, c)) in place by face steps through `allowed`, and return it. Each
    pass ORs in the six shifts by 1, c and b*c and keeps the allowed voxels,
    until a pass adds nothing or all are reached. A shift also pairs the last
    voxel of a row or plane with the first of the next: callers keep both
    out of `allowed`, or reached from the start."""
    strides = (1, shape[2], shape[1] * shape[2])
    total, count = np.count_nonzero(allowed), np.count_nonzero(reached)
    grown = np.empty_like(reached)
    # views made once: on small boxes, call overhead sets a pass's cost
    shifts = ([(grown[s:], reached[:-s]) for s in strides]
              + [(grown[:-s], reached[s:]) for s in strides])
    while count < total:
        np.copyto(grown, reached)
        for dst, src in shifts:
            dst |= src
        grown &= allowed
        before, count = count, np.count_nonzero(grown)
        if count == before:
            break
        np.copyto(reached, grown)
    return reached


def _region_is_face_connected(cells: np.ndarray) -> bool:
    """True if the set voxels of a 3-D boolean grid form one face-connected
    component: a flood from the first set voxel reaches all of them. The
    grid is padded by one unset voxel, so no flat shift crosses a row end."""
    # a grid with every voxel set is one component; flooding it is the slow part
    if cells.size > 0 and cells.all():
        return True
    allowed = np.pad(cells, 1)
    flat = allowed.reshape(-1)
    first = int(np.argmax(flat))
    if not flat[first]:
        return False
    seed = np.zeros_like(flat)
    seed[first] = True
    return np.array_equal(_flood(seed, flat, allowed.shape), flat)


def fill_cavities(box: np.ndarray) -> np.ndarray | None:
    """`box` with its cavities set, or None when it has no cavity.

    A cavity is a face-connected set of unset voxels with no face-adjacent
    path to the box's outer shell. The shell must be unset. A box shell is
    a single face-connected set, so a flood of the unset voxels seeded from
    the whole shell reaches the outside, and every voxel it does not reach
    is set or in a cavity. Both voxels of every pair that a flat shift joins
    across a row or plane end lie on the shell, so they are reached from the
    start and the flood only makes face steps.
    """
    open_voxels = ~box.reshape(-1)
    shell = np.ones(box.shape, dtype=bool)
    shell[1:-1, 1:-1, 1:-1] = False
    outside = _flood(shell.reshape(-1) & open_voxels, open_voxels, box.shape)
    if np.array_equal(outside, open_voxels):
        return None
    return ~outside.reshape(box.shape)


@dataclass(frozen=True, eq=False)
class LesionMask:
    """Damaged voxels of a `grid_dims` grid (three integers >= 1, kept as a
    tuple) as `flat`, a read-only intp copy of their sorted, distinct C-order
    flat indices, given as integers. Valid masks are non-empty,
    face-connected, hole-free, inside the atlas's ROIs, entirely
    left-hemisphere, and confined to one arterial territory."""

    flat: np.ndarray
    grid_dims: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "grid_dims", _grid_dims(self.grid_dims))
        # a cast would truncate fractional indices or read booleans as 0/1
        flat = _int_array("lesion indices", self.flat, np.intp)
        if flat.ndim != 1:
            raise InputError(f"lesion indices must be 1-D, got shape {flat.shape}")
        if np.any(flat[1:] <= flat[:-1]):
            raise InputError("lesion indices must be sorted and distinct")
        if flat.size and (flat[0] < 0 or flat[-1] >= math.prod(self.grid_dims)):
            raise InputError(f"lesion indices {flat[0]}..{flat[-1]} outside grid {self.grid_dims}")
        object.__setattr__(self, "flat", flat)

    @property
    def size(self) -> int:
        return self.flat.size

    def rois(self, atlas: ToyAtlas) -> np.ndarray:
        """The 0-based ROI of each of the lesion's voxels. A lesion on another
        grid, or with a voxel in the background, is an InputError."""
        if atlas.grid_dims != self.grid_dims:
            raise InputError(f"lesion on grid {self.grid_dims} read against grid {atlas.grid_dims}")
        labels = atlas.roi_of_voxel.reshape(-1)[self.flat]
        if not labels.all():
            voxel = np.unravel_index(self.flat[np.argmin(labels)], self.grid_dims)
            raise InputError(f"lesion voxel {tuple(map(int, voxel))} is background, in no ROI")
        return labels - 1

    def to_dense(self) -> np.ndarray:
        mask = np.zeros(self.grid_dims, dtype=bool)
        mask.reshape(-1)[self.flat] = True
        return mask

    def territory(self, atlas: ToyAtlas) -> int:
        """The single territory containing the mask (raises if mixed)."""
        territories = atlas.territory_of_roi[self.rois(atlas)]
        if not territories.size or territories.min() != territories.max():
            raise InputError(f"lesion spans territories {np.unique(territories).tolist()}")
        return int(territories[0])

    def validate(self, atlas: ToyAtlas) -> None:
        if not self.size:
            raise InputError("lesion mask is empty")
        if np.any(atlas.hemisphere_of_roi[self.rois(atlas)] != HEMI_LEFT):
            raise InputError("lesion leaves the left hemisphere")
        self.territory(atlas)
        # connectivity and cavities read only the lesion's bounding box
        xyz = np.unravel_index(self.flat, self.grid_dims)
        box = self.to_dense()[tuple(slice(a.min(), a.max() + 1) for a in xyz)]
        if not _region_is_face_connected(box):
            raise InputError("lesion is not face-connected")
        # a cavity: non-mask voxels with no face-adjacent path to the box's
        # boundary; the empty padding joins every such path into one outside
        if fill_cavities(np.pad(box, 1)) is not None:
            raise InputError("lesion encloses a cavity")


# ----------------------------------------------------------------------
# signals and connectivity
# ----------------------------------------------------------------------


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Pearson correlation between the rows of an (N, Tlen) ROI series; 0
    wherever a row has zero variance (the no-information convention for
    fully lesioned ROIs). A row holding NaN or inf, or a series that is not
    an ndarray, is an InputError."""
    check_types(("ROI series", data, np.ndarray))
    if data.ndim != 2 or data.shape[1] < 2:
        raise InputError(f"correlations need an (N, Tlen >= 2) series, got {data.shape}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():  # NaN > 0 is False, so the norm test below would call the row dead
        raise InputError(f"ROI series rows {np.flatnonzero(~finite).tolist()} hold NaN or inf")
    # correlation is scale-free: scaling each row by a power of two that
    # brings its largest magnitude into [0.5, 1) is exact, so it changes no
    # ordinary row's bytes, and the squares of rows near float64's limits
    # neither overflow nor underflow
    _, exponent = np.frexp(np.abs(data).max(axis=1, keepdims=True))
    scaled = np.ldexp(data, -exponent)
    centered = scaled - scaled.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    alive = norms > 0.0
    safe = np.where(alive, norms, 1.0)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    corr[~alive, :] = 0.0
    corr[:, ~alive] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, np.where(alive, 1.0, 0.0))
    return corr


def exponentiate(corr: np.ndarray) -> np.ndarray:
    """Entrywise exp of a correlation matrix, mapping [-1, 1] to [1/e, e]."""
    outside = ~(np.abs(corr) <= 1.0 + 1e-9)  # NaN is outside too
    if outside.any():
        raise InputError(f"correlation entries must lie in [-1, 1], got {corr[outside][0]}")
    return np.exp(np.clip(corr, -1.0, 1.0))


def validate_connectivity(x: np.ndarray) -> None:
    """Assert the connectivity-matrix invariants: square with N >= 1, finite,
    symmetric and in [1/e, e], each to within CONNECTIVITY_ATOL entrywise.
    A non-ndarray is an InputError too."""
    check_types(("connectivity", x, np.ndarray))
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"connectivity must be square, got {x.shape}")
    if x.shape[0] < 1:
        raise InputError("connectivity has no ROIs")
    if not np.isfinite(x).all():
        raise InputError("connectivity has non-finite entries")
    asymmetry = float(np.abs(x - x.T).max())
    if asymmetry > CONNECTIVITY_ATOL:
        raise InputError(f"connectivity matrix is not symmetric: max |X - X^T| = {asymmetry:.3g}")
    lo, hi = math.exp(-1.0), math.exp(1.0)
    if x.min() < lo - CONNECTIVITY_ATOL or x.max() > hi + CONNECTIVITY_ATOL:
        raise InputError("connectivity entries outside [1/e, e]")


# ----------------------------------------------------------------------
# lesion encoding and subject records
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LesionEncoding:
    """Per-ROI spared gray matter fractions p_i in [0, 1]. An intact ROI has
    p_i = 1, a fully lesioned one p_i = 0. Construction keeps a read-only
    float64 copy of p (see `_real_array`) and runs `validate`."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _real_array("spared fractions", self.p))
        self.validate()

    def validate(self) -> None:
        if self.p.ndim != 1:
            raise InputError("lesion encoding must be a vector")
        if not ((self.p >= 0.0) & (self.p <= 1.0)).all():  # NaN fails both
            raise InputError("spared fractions must lie in [0, 1]")


def lesioned_counts(atlas: ToyAtlas, lesion: LesionMask) -> np.ndarray:
    """Number of each ROI's voxels that the lesion covers, shape (N,)."""
    return np.bincount(lesion.rois(atlas), minlength=atlas.n_rois)


def spared_fractions(atlas: ToyAtlas, lesion: LesionMask) -> LesionEncoding:
    """Fraction of each ROI's voxels that the lesion spares."""
    total = atlas.roi_sizes()
    return LesionEncoding(p=(total - lesioned_counts(atlas, lesion)) / total)


@dataclass(frozen=True, eq=False)
class SubjectRecord:
    """One subject: connectivity matrix X, lesion encoding, and score y.
    Construction keeps a read-only float64 copy of X (see `_real_array`) and
    runs `validate`; an InputError from either names the subject."""

    id: str
    x: np.ndarray
    lesion: LesionEncoding
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _real_array(f"subject {self.id!r}: X", self.x))
        self.validate()

    def validate(self) -> None:
        """InputError, naming the subject, unless the id is a str, X passes
        `validate_connectivity`, p has one entry per row of X and y is a real
        number in [0, 100]."""
        if not isinstance(self.id, str):
            raise InputError(f"subject id must be a str, got {self.id!r}")
        try:
            validate_connectivity(self.x)
            if not isinstance(self.lesion, LesionEncoding):
                raise InputError(f"lesion must be a LesionEncoding, got {type(self.lesion)}")
            if self.lesion.p.shape != (self.x.shape[0],):
                raise InputError("lesion encoding length does not match X")
            check_number("score", self.y)
            if not 0.0 <= self.y <= 100.0:
                raise InputError(f"score {self.y} outside [0, 100]")
        except InputError as exc:
            raise InputError(f"subject {self.id!r}: {exc}") from None


# ----------------------------------------------------------------------
# cohort file format (layout in the save_cohort docstring)
# ----------------------------------------------------------------------


class _ExactReader:
    """Exact-length reads over the bytes of one file, which must start with
    `magic` and the uint32 `version`.

    Every read must find all its bytes and `finish` requires the file to end
    there, so a truncated or overlong file is an InputError whatever field
    it cuts, even when a corrupt header asks for more bytes than exist.
    """

    def __init__(self, path, kind: str, magic: bytes, version: int):
        with open(path, "rb") as fh:
            self._data = memoryview(fh.read())
        self._pos = 0
        self._kind = kind
        head = bytes(self.take(len(magic)))
        if head != magic:
            raise InputError(f"not a {kind} file (magic {head!r})")
        if (found := self.unpack("<I")[0]) != version:
            raise InputError(f"unsupported {kind} version {found}")

    def take(self, size: int) -> memoryview:
        end = self._pos + size
        if end > len(self._data):
            raise InputError(f"truncated {self._kind} file: {len(self._data)} bytes, "
                             f"need at least {end}")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise InputError(f"trailing bytes in {self._kind} file")


def save_cohort(path, records: list[SubjectRecord]) -> None:
    """Write the binary cohort format: LEGC header + one record per subject.

    Per subject: uint16 id length, utf-8 id, float64 y, float64 p[N],
    float64 X[N*N] row-major. Round trips are lossless. Records are checked
    when built, so this checks, before writing, only what the format needs:
    some records, one N, and ids that UTF-8 encodes in at most 65535 bytes.
    """
    if not records:
        raise InputError("refusing to write an empty cohort")
    n = records[0].x.shape[0]
    idents = []
    for rec in records:
        if rec.x.shape != (n, n):
            raise InputError("all subjects in a cohort must share N")
        try:
            idents.append(rec.id.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise InputError(f"subject {rec.id!r}: id is not UTF-8 encodable: {exc}") from None
        if len(idents[-1]) > 0xFFFF:
            raise InputError(f"subject id of {len(idents[-1])} UTF-8 bytes exceeds 65535")
    with open(path, "wb") as fh:
        fh.write(_COHORT_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, len(records), n))
        for rec, ident in zip(records, idents):
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<d", float(rec.y)))
            fh.write(np.ascontiguousarray(rec.lesion.p, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(rec.x, dtype="<f8").tobytes())


def load_cohort(path) -> list[SubjectRecord]:
    """Read a cohort file. Each record is checked as it is built; an
    InputError names the subject."""
    reader = _ExactReader(path, "cohort", _COHORT_MAGIC, _FORMAT_VERSION)
    count, n = reader.unpack("<II")
    if n < 1:
        raise InputError("cohort header gives no ROIs")
    records = []
    for _ in range(count):
        (id_len,) = reader.unpack("<H")
        try:
            ident = str(reader.take(id_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"subject id is not utf-8: {exc}") from None
        (y,) = reader.unpack("<d")
        p = reader.array("<f8", n)
        x = reader.array("<f8", n * n).reshape(n, n)
        try:
            lesion = LesionEncoding(p=p)
        except InputError as exc:
            raise InputError(f"subject {ident!r}: {exc}") from None
        records.append(SubjectRecord(id=ident, x=x, lesion=lesion, y=y))
    reader.finish()
    return records
