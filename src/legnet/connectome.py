"""Data model for parcellated brains, lesions, connectivity and subject files.

A :class:`ToyAtlas` labels a voxel grid with ROIs, arterial territories, and
hemispheres. A :class:`LesionMask` holds the damaged voxels as sorted flat
indices into that grid; per ROI it removes :func:`lesioned_counts` voxels and
leaves the spared fractions p_i, held in :class:`LesionEncoding`. Model
inputs come from (N, Tlen) ROI mean time series:

    ROI mean series -> Pearson correlation -> exponentiation -> X

Connectivity matrices are plain (N, N) float64 arrays; their invariants can
be asserted with :func:`validate_connectivity`.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

HEMI_LEFT = 0
HEMI_RIGHT = 1

_COHORT_MAGIC = b"LEGC"
_FORMAT_VERSION = 1

# 6-connectivity: voxels are neighbours when they share a face
FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


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


# ----------------------------------------------------------------------
# atlas
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ToyAtlas:
    """Voxel-grid parcellation with hemisphere, ROI, and territory labels.

    Labels are dense integer grids: 0 means background, ROIs are 1..N,
    territories 1..T. Every ROI lies in exactly one hemisphere and one
    territory, and every ROI and territory is a non-empty face-connected
    region. It is frozen, so its cached ROI sizes and per-territory
    constants always match its labels.
    """

    grid_dims: tuple[int, int, int]
    roi_of_voxel: np.ndarray        # int32, shape grid_dims
    territory_of_voxel: np.ndarray  # int32, shape grid_dims
    hemisphere_of_voxel: np.ndarray  # uint8, shape grid_dims
    n_rois: int
    n_territories: int
    _roi_cache: dict = field(default_factory=dict, init=False, repr=False)

    def roi_sizes(self) -> np.ndarray:
        """Read-only voxel count per ROI, index i holds the size of ROI i+1."""
        if "sizes" not in self._roi_cache:
            sizes = np.bincount(self.roi_of_voxel.reshape(-1), minlength=self.n_rois + 1)[1:]
            sizes.flags.writeable = False
            self._roi_cache["sizes"] = sizes
        return self._roi_cache["sizes"]

    def territory_size(self, territory: int) -> int:
        return int(np.count_nonzero(self.territory_of_voxel == territory))

    def territory_rois(self, territory: int) -> np.ndarray:
        """Read-only sorted 0-based indices of the ROIs inside a territory."""
        key = ("rois", territory)
        if key not in self._roi_cache:
            rois = np.unique(self.roi_of_voxel[self.territory_of_voxel == territory])
            rois = rois[rois > 0] - 1
            rois.flags.writeable = False
            self._roi_cache[key] = rois
        return self._roi_cache[key]

    def padded_territory(self, territory: int) -> tuple[np.ndarray, bytes]:
        """A territory in the grid padded by one empty voxel on every side:
        its voxels as read-only sorted flat indices into the padded grid, and
        the padded grid as one byte per voxel, 1 inside the territory."""
        key = ("padded", territory)
        if key not in self._roi_cache:
            padded = np.pad(self.territory_of_voxel == territory, 1)
            flat = np.flatnonzero(padded)
            flat.flags.writeable = False
            self._roi_cache[key] = (flat, padded.tobytes())
        return self._roi_cache[key]

    def left_territories(self) -> list[int]:
        """Territories whose voxels all lie in the left hemisphere."""
        if "left" not in self._roi_cache:
            out = []
            for t in range(1, self.n_territories + 1):
                hemi = self.hemisphere_of_voxel[self.territory_of_voxel == t]
                if hemi.size and np.all(hemi == HEMI_LEFT):
                    out.append(t)
            self._roi_cache["left"] = out
        return list(self._roi_cache["left"])

    def validate(self) -> None:
        """Raise InputError on any violated atlas invariant."""
        dims = self.grid_dims
        for name, arr in (
            ("roi_of_voxel", self.roi_of_voxel),
            ("territory_of_voxel", self.territory_of_voxel),
            ("hemisphere_of_voxel", self.hemisphere_of_voxel),
        ):
            if arr.shape != dims:
                raise InputError(f"{name} shape {arr.shape} does not match grid {dims}")

        # find_objects skips labels past max_label, so range errors go first
        for name, arr, top in (
            ("roi_of_voxel", self.roi_of_voxel, self.n_rois),
            ("territory_of_voxel", self.territory_of_voxel, self.n_territories),
            ("hemisphere_of_voxel", self.hemisphere_of_voxel, HEMI_RIGHT),
        ):
            if np.any((arr < 0) | (arr > top)):
                raise InputError(f"{name} has labels outside [0, {top}]")
        if np.any((self.roi_of_voxel > 0) != (self.territory_of_voxel > 0)):
            raise InputError("ROI and territory backgrounds disagree")

        boxes = ndimage.find_objects(self.roi_of_voxel, max_label=self.n_rois)
        for roi, bbox in enumerate(boxes, start=1):
            if bbox is None:
                raise InputError(f"ROI {roi} is empty")
            cells = self.roi_of_voxel[bbox] == roi
            if not _region_is_face_connected(cells):
                raise InputError(f"ROI {roi} is not face-connected")
            if len(np.unique(self.hemisphere_of_voxel[bbox][cells])) != 1:
                raise InputError(f"ROI {roi} spans hemispheres")
            if len(np.unique(self.territory_of_voxel[bbox][cells])) != 1:
                raise InputError(f"ROI {roi} spans territories")
        boxes = ndimage.find_objects(self.territory_of_voxel, max_label=self.n_territories)
        for t, bbox in enumerate(boxes, start=1):
            if bbox is None:
                raise InputError(f"territory {t} is empty")
            if not _region_is_face_connected(self.territory_of_voxel[bbox] == t):
                raise InputError(f"territory {t} is not face-connected")


def _split_counts(total: int, parts: int) -> list[int]:
    """Near-equal integer split, larger shares first."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _range_chunks(extent: int, parts: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, extent, parts + 1).round().astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


def build_toy_atlas(
    n_rois: int = 90,
    grid_dims: tuple[int, int, int] = (32, 32, 32),
    n_territories: int = 6,
) -> ToyAtlas:
    """Construct the default procedural atlas.

    The left hemisphere is x < grid_dims[0] // 2. Territories are contiguous
    z-slabs within each hemisphere, ROIs are contiguous sub-blocks of their
    territory. ROI counts are distributed across territories proportionally
    to territory volume.
    """
    gx, gy, gz = grid_dims
    if n_territories < 2 or n_territories % 2:
        raise InputError("n_territories must be even and >= 2")
    per_hemi = n_territories // 2
    if gz < per_hemi or gx < 2:
        raise InputError(f"grid {grid_dims} too small for {n_territories} territories")

    roi = np.zeros(grid_dims, dtype=np.int32)
    territory = np.zeros(grid_dims, dtype=np.int32)
    hemisphere = np.zeros(grid_dims, dtype=np.uint8)
    mid = gx // 2
    hemisphere[mid:, :, :] = HEMI_RIGHT

    territory_boxes: list[tuple[tuple[int, int], tuple[int, int]]] = []  # (x range, z range)
    for x0, x1 in ((0, mid), (mid, gx)):
        for z0, z1 in _range_chunks(gz, per_hemi):
            territory[x0:x1, :, z0:z1] = len(territory_boxes) + 1
            territory_boxes.append(((x0, x1), (z0, z1)))

    sizes = [(x1 - x0) * gy * (z1 - z0) for (x0, x1), (z0, z1) in territory_boxes]
    quotas = _largest_remainder_quotas(n_rois, sizes)

    next_roi = 1
    for ((x0, x1), (z0, z1)), quota in zip(territory_boxes, quotas):
        if quota == 0:
            raise InputError("every territory needs at least one ROI")
        sz = z1 - z0
        stripes = min(gy, max(1, math.isqrt(quota - 1) + 1))
        stripe_counts = _split_counts(quota, stripes)
        if max(stripe_counts) > sz:
            raise InputError(
                f"cannot fit {quota} ROIs into a {x1 - x0}x{gy}x{sz} territory"
            )
        y_chunks = _range_chunks(gy, stripes)
        for (y0, y1), count in zip(y_chunks, stripe_counts):
            if y1 <= y0:
                raise InputError("empty y stripe; raise grid resolution")
            for zz0, zz1 in _range_chunks(sz, count):
                if zz1 <= zz0:
                    raise InputError("empty z chunk; raise grid resolution")
                roi[x0:x1, y0:y1, z0 + zz0:z0 + zz1] = next_roi
                next_roi += 1

    atlas = ToyAtlas(
        grid_dims=grid_dims,
        roi_of_voxel=roi,
        territory_of_voxel=territory,
        hemisphere_of_voxel=hemisphere,
        n_rois=n_rois,
        n_territories=n_territories,
    )
    return atlas


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


def _region_is_face_connected(cells: np.ndarray) -> bool:
    """True if the set bits of a boolean grid form one 6-connected component."""
    return ndimage.label(cells, structure=FACE_STRUCTURE)[1] == 1


def fill_cavities(box: np.ndarray) -> np.ndarray | None:
    """`box` with its cavities set, or None when it has no cavity.

    A cavity is a face-connected set of unset voxels with no face-adjacent
    path to the box's outer shell. The shell must be unset. A box shell is
    a single face-connected set, so the outside is then the one component
    of the unset voxels that holds the corner [0, 0, 0], and every other
    component is a cavity. One `ndimage.label` pass finds them all; scipy's
    hole filling gives the same voxels but repeats a dilation until nothing
    changes.
    """
    labels, count = ndimage.label(~box, FACE_STRUCTURE)
    if count < 2:
        return None
    return labels != labels[0, 0, 0]


@dataclass(frozen=True, eq=False)
class LesionMask:
    """Damaged voxels of a `grid_dims` grid as `flat`, a read-only intp copy
    of their sorted, distinct C-order flat indices, given as integers. Valid
    masks are non-empty, face-connected, hole-free, entirely left-hemisphere,
    and confined to one arterial territory."""

    flat: np.ndarray
    grid_dims: tuple[int, int, int]

    def __post_init__(self):
        flat = np.asarray(self.flat)
        # a cast would truncate fractional indices or read booleans as 0/1
        if not np.issubdtype(flat.dtype, np.integer):
            raise InputError(f"lesion indices must have an integer dtype, got {flat.dtype}")
        flat = flat.astype(np.intp)
        if flat.ndim != 1:
            raise InputError(f"lesion indices must be 1-D, got shape {flat.shape}")
        if np.any(flat[1:] <= flat[:-1]):
            raise InputError("lesion indices must be sorted and distinct")
        if flat.size and (flat[0] < 0 or flat[-1] >= math.prod(self.grid_dims)):
            raise InputError(f"lesion indices {flat[0]}..{flat[-1]} outside grid {self.grid_dims}")
        flat.flags.writeable = False
        object.__setattr__(self, "flat", flat)

    @property
    def size(self) -> int:
        return self.flat.size

    def labels(self, grid: np.ndarray) -> np.ndarray:
        """The entries of an atlas label grid at the lesion's voxels."""
        if grid.shape != self.grid_dims:
            raise InputError(f"lesion on grid {self.grid_dims} read against grid {grid.shape}")
        return grid.reshape(-1)[self.flat]

    def to_dense(self) -> np.ndarray:
        mask = np.zeros(self.grid_dims, dtype=bool)
        mask.reshape(-1)[self.flat] = True
        return mask

    def territory(self, atlas: ToyAtlas) -> int:
        """The single territory containing the mask (raises if mixed)."""
        territories = np.unique(self.labels(atlas.territory_of_voxel))
        if len(territories) != 1:
            raise InputError(f"lesion spans territories {territories.tolist()}")
        return int(territories[0])

    def validate(self, atlas: ToyAtlas) -> None:
        if not self.size:
            raise InputError("lesion mask is empty")
        if np.any(self.labels(atlas.hemisphere_of_voxel) != HEMI_LEFT):
            raise InputError("lesion leaves the left hemisphere")
        self.territory(atlas)
        dense = self.to_dense()
        if not _region_is_face_connected(dense):
            raise InputError("lesion is not face-connected")
        # a cavity: non-mask voxels with no face-adjacent path to the grid
        # boundary; the empty padding joins every such path into one outside
        if fill_cavities(np.pad(dense, 1)) is not None:
            raise InputError("lesion encloses a cavity")


# ----------------------------------------------------------------------
# signals and connectivity
# ----------------------------------------------------------------------


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Pearson correlation between the rows of an (N, Tlen) ROI series; 0
    wherever a row has zero variance (the no-information convention for
    fully lesioned ROIs)."""
    if data.ndim != 2 or data.shape[1] < 2:
        raise InputError(f"correlations need an (N, Tlen >= 2) series, got {data.shape}")
    centered = data - data.mean(axis=1, keepdims=True)
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
    if np.any(np.abs(corr) > 1.0 + 1e-9):
        raise InputError("correlation entries must lie in [-1, 1]")
    return np.exp(np.clip(corr, -1.0, 1.0))


def validate_connectivity(x: np.ndarray, atol: float = 1e-12) -> None:
    """Assert the connectivity-matrix invariants: symmetric, range [1/e, e]."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"connectivity must be square, got {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("connectivity has non-finite entries")
    if not np.allclose(x, x.T, atol=atol):
        raise InputError("connectivity matrix is not symmetric")
    lo, hi = math.exp(-1.0), math.exp(1.0)
    if x.min() < lo - atol or x.max() > hi + atol:
        raise InputError("connectivity entries outside [1/e, e]")


# ----------------------------------------------------------------------
# lesion encoding and subject records
# ----------------------------------------------------------------------


@dataclass(eq=False)
class LesionEncoding:
    """Per-ROI spared gray matter fractions p_i in [0, 1]. An intact ROI has
    p_i = 1, a fully lesioned one p_i = 0."""

    p: np.ndarray

    def validate(self) -> None:
        if self.p.ndim != 1:
            raise InputError("lesion encoding must be a vector")
        if not ((self.p >= 0.0) & (self.p <= 1.0)).all():  # NaN fails both
            raise InputError("spared fractions must lie in [0, 1]")


def lesioned_counts(atlas: ToyAtlas, lesion: LesionMask) -> np.ndarray:
    """Number of each ROI's voxels that the lesion covers, shape (N,)."""
    return np.bincount(lesion.labels(atlas.roi_of_voxel), minlength=atlas.n_rois + 1)[1:]


def spared_fractions(atlas: ToyAtlas, lesion: LesionMask) -> LesionEncoding:
    """Fraction of each ROI's voxels that the lesion spares."""
    total = atlas.roi_sizes()
    return LesionEncoding(p=(total - lesioned_counts(atlas, lesion)) / total)


@dataclass(eq=False)
class SubjectRecord:
    """One subject: connectivity matrix X, lesion encoding, and score y."""

    id: str
    x: np.ndarray
    lesion: LesionEncoding
    y: float

    def validate(self) -> None:
        """InputError unless X is square, p is a valid N-vector and 0 <= y <= 100."""
        if self.x.ndim != 2 or self.x.shape[0] != self.x.shape[1]:
            raise InputError(f"X must be square, got {self.x.shape}")
        if self.lesion.p.shape != (self.x.shape[0],):
            raise InputError("lesion encoding length does not match X")
        check_number("score", self.y)
        if not 0.0 <= self.y <= 100.0:
            raise InputError(f"score {self.y} outside [0, 100]")
        self.lesion.validate()


# ----------------------------------------------------------------------
# cohort file format (layout in the save_cohort docstring)
# ----------------------------------------------------------------------


class _ExactReader:
    """Exact-length reads over the bytes of one file.

    Every read must find all its bytes and `finish` requires the file to end
    there, so a truncated or overlong file is an InputError whatever field
    it cuts, even when a corrupt header asks for more bytes than exist.
    """

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self._data = memoryview(fh.read())
        self._pos = 0
        self._kind = kind

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


def _check_record(record: SubjectRecord) -> None:
    """The checks every record passes on save and on load."""
    try:
        record.validate()
        validate_connectivity(record.x)
    except InputError as exc:
        raise InputError(f"subject {record.id!r}: {exc}") from None


def save_cohort(path, records: list[SubjectRecord]) -> None:
    """Write the binary cohort format: LEGC header + one record per subject.

    Per subject: uint16 id length, utf-8 id, float64 y, float64 p[N],
    float64 X[N*N] row-major. Round trips are lossless. Every record is
    checked as `load_cohort` checks it before anything is written.
    """
    if not records:
        raise InputError("refusing to write an empty cohort")
    n = records[0].x.shape[0]
    idents = []
    for rec in records:
        if rec.x.shape != (n, n):
            raise InputError("all subjects in a cohort must share N")
        _check_record(rec)
        idents.append(rec.id.encode("utf-8"))
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
    """Read a cohort file; every record must pass `SubjectRecord.validate`
    and `validate_connectivity`."""
    reader = _ExactReader(path, "cohort")
    magic = bytes(reader.take(4))
    if magic != _COHORT_MAGIC:
        raise InputError(f"not a cohort file (magic {magic!r})")
    version, count, n = reader.unpack("<III")
    if version != _FORMAT_VERSION:
        raise InputError(f"unsupported cohort format version {version}")
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
        p = reader.array("<f8", n).astype(np.float64)
        x = reader.array("<f8", n * n).astype(np.float64).reshape(n, n)
        record = SubjectRecord(id=ident, x=x, lesion=LesionEncoding(p=p), y=y)
        _check_record(record)
        records.append(record)
    reader.finish()
    return records
