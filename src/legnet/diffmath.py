"""Minimal dense-tensor math with reverse-mode gradient support.

Tensors are 64-bit float arrays with at most four axes. Operations are
recorded on a :class:`Tape`; calling :func:`backward` on a scalar output
propagates gradients to every leaf in reverse recording order. The primitive
set is intentionally small, nine primitives: `matmul`, `add`, `mul` (a
constant factor is a 0-d constant), `softmax_lastaxis`, `l2_norm_sq` (a
loss's sums of squares), `reshape`, `transpose`, and two fused ones that
save passes over the largest arrays: `add_relu`, relu(a + b), the one relu,
and `outer_add_relu_matmul`, which writes the edge tensor of an edge-based
graph network, every relu(row_i + col_j) of two (..., N, d) operands, with
one product and contracts it with a weight matrix, keeping it off the tape;
its backward writes the edge tensor's gradient over the edge tensor.

Every primitive accepts leading batch axes: elementwise operations broadcast
by numpy's rules and `matmul`, whose operands have two or more axes, by
`np.matmul`'s, so a minibatch stacked on a leading axis runs as one tape.
The gradient of an operand that broadcast over the batch (a shared weight)
is summed over the batch axes. Entries are not checked for finiteness:
callers check their inputs where they enter.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Arrays up to MMAP_THRESHOLD bytes come from the heap; callers that batch
# size their largest array to fit. Up to TRIM_THRESHOLD bytes of free heap
# stay mapped between tapes.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 32 << 20


def _keep_freed_tape_memory() -> None:
    """Let glibc reuse one tape's freed arrays for the next tape.

    A minibatch tape at N = 90 allocates and frees its (B, N, N, d0) arrays:
    a legnet loss and its gradients peak at ~0.6 MB for one subject and
    ~3.4 MB for the 8 that `model` puts in one chunk (tracemalloc).
    Under glibc's adaptive defaults, unless the process has already freed a
    multi-megabyte block, each freed heap top goes back to the OS and the
    next tape faults it in again. Without this call, a four-kind training
    step at B = 8 and N = 90 takes ~94 minor faults against ~0.5 with it,
    and its median time is 5.7-8.3 ms against 5.5-6.6 ms (200 steps, three
    runs each, 2-core VM); perfbench's `predict-single` `call_ms_p90` read
    0.559 ms against 0.519 ms (medians of five alternating 10 s pairs). The
    call stays because it costs two library calls at import and nothing per
    tape. It serves blocks up to MMAP_THRESHOLD (4 MiB) from the heap and
    keeps up to TRIM_THRESHOLD (32 MiB, far above a chunk's peak) of free
    heap. A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_tape_memory()


MAX_AXES = 4
_FLOAT64 = np.dtype(np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with a primitive."""


class Tensor:
    """Dense 64-bit float array with an optional gradient slot.

    `requires_grad=False` marks constant inputs (data matrices, one-hot
    helpers); backward skips gradient computation for them. Finiteness of
    the entries is the caller's check.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True):
        # a float64 ndarray is already what np.asarray would return
        if type(data) is np.ndarray and data.dtype is _FLOAT64:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_AXES:
            raise ShapeError(f"tensors support at most {MAX_AXES} axes, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tape:
    """Ordered record of primitive applications.

    Recording order is topological by construction, so the backward pass
    visits nodes in reverse recording order exactly once. A tape is a
    single-threaded object; build a fresh one per forward pass and run
    backward on it once.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        # each node: (output tensor, input tensors, backward closure)
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def _emit(self, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
        requires = False
        for t in inputs:
            if t.requires_grad:
                requires = True
                break
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            self.nodes.append((out, inputs, backward_fn))
        return out

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product with np.matmul's broadcasting of leading axes. A
        1-D operand is a ShapeError: write a vector as a (1, n) or (n, 1)."""
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeError(f"matmul needs operands with at least two axes, "
                             f"got {a.shape} @ {b.shape}")
        try:
            out = np.matmul(a.data, b.data)
        except ValueError as exc:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc

        def backward(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            return ga, gb

        return self._emit(out, (a, b), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; the smaller operand may broadcast (numpy rules). A
        constant operand gets no gradient."""
        try:
            out = a.data + b.data
        except ValueError as exc:
            raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from exc

        def backward(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return self._emit(out, (a, b), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise product with numpy broadcasting; a constant operand gets no gradient."""
        try:
            out = a.data * b.data
        except ValueError as exc:
            raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from exc

        def backward(g):
            return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

        return self._emit(out, (a, b), backward)

    def add_relu(self, a: Tensor, b: Tensor) -> Tensor:
        """relu(a + b) as one node with add's broadcasting and constant
        operands; keeps only its output, whose positive entries are where the
        gradient passes, so the derivative at exactly 0 is 0."""
        try:
            out = a.data + b.data
        except ValueError as exc:
            raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from exc
        np.maximum(out, 0.0, out=out)

        def backward(g):
            g = g * (out > 0.0)
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return self._emit(out, (a, b), backward)

    def outer_add_relu_matmul(self, row: Tensor, col: Tensor, w: Tensor) -> Tensor:
        """H @ w for the edge tensor H_i,jd+k = relu(row_ik + col_jk) of two
        (..., N, d) operands and w (N d, d1), shape (..., N, d1). One product
        [row | 1] @ [T ; vec(col)], with T = [I I ... I] (d, N d), writes H
        and the relu runs in place; every other term of a sum is an exact 0,
        so each entry is row + col rounded once, as `add` rounds it. H stays
        in the node until backward writes H's gradient, g @ w^T zeroed where
        H is not positive, over H: backward adds half of H's one-byte mask,
        not a second H. A second backward through the node raises
        RuntimeError."""
        if row.shape != col.shape or len(row.shape) < 2 or len(w.shape) != 2 \
                or w.shape[0] != row.shape[-2] * row.shape[-1]:
            raise ShapeError(f"outer_add_relu_matmul needs two (..., N, d) operands of one "
                             f"shape and w (N d, d1), got {row.shape}, {col.shape} and {w.shape}")
        lead, (n, d) = row.shape[:-2], row.shape[-2:]
        tile = _eye_tile(n, d)
        left = np.empty(lead + (n, d + 1))
        left[..., :d] = row.data
        left[..., d] = 1.0
        right = np.empty(lead + (d + 1, n * d))
        right[..., :d, :] = tile
        right[..., d, :] = col.data.reshape(lead + (n * d,))
        h = np.matmul(left, right)
        np.maximum(h, 0.0, out=h)
        out = np.matmul(h, w.data)

        def backward(g):
            nonlocal h
            if h is None:
                raise RuntimeError("outer_add_relu_matmul ran its backward once already: "
                                   "its edge tensor now holds that gradient")
            gh, h = h, None
            gw = _unbroadcast(np.swapaxes(gh, -1, -2) @ g, w.data.shape)
            # one half of the first axis at a time; each half's mask is
            # freed before the next is made
            half = (len(gh) + 1) // 2
            for part in (slice(half), slice(half, None)):
                gh_part = gh[part]
                positive = gh_part > 0.0
                np.matmul(g[part], np.swapaxes(w.data, -1, -2), out=gh_part)
                gh_part *= positive
                del positive
            return gh @ tile.T, gh.sum(axis=-2).reshape(col.data.shape), gw

        return self._emit(out, (row, col, w), backward)

    def softmax_lastaxis(self, a: Tensor) -> Tensor:
        """Softmax over the last axis, with max-subtraction for stability."""
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return self._emit(out, (a,), backward)

    def l2_norm_sq(self, a: Tensor) -> Tensor:
        """Sum of squared entries, a 0-d scalar."""
        out = np.asarray(np.sum(a.data * a.data))

        def backward(g):
            return ((2.0 * float(g)) * a.data,)

        return self._emit(out, (a,), backward)

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        """Reshape without changing the row-major element order."""
        if len(shape) > MAX_AXES:
            raise ShapeError(f"tensors support at most {MAX_AXES} axes")
        try:
            out = a.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(f"cannot reshape {a.shape} to {shape}") from exc

        def backward(g):
            return (g.reshape(a.data.shape),)

        return self._emit(out, (a,), backward)

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes."""
        if a.data.ndim < 2:
            raise ShapeError(f"transpose needs at least two axes, got shape {a.shape}")

        def backward(g):
            return (g.swapaxes(-1, -2),)

        return self._emit(a.data.swapaxes(-1, -2), (a,), backward)


@functools.lru_cache(maxsize=8)
def _eye_tile(n: int, d: int) -> np.ndarray:
    """The read-only (d, N d) matrix [I I ... I] that `outer_add_relu_matmul`
    repeats row terms with, built once per shape."""
    tile = np.tile(np.eye(d), n)
    tile.flags.writeable = False
    return tile


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) to every gradient-enabled leaf on the tape.

    `loss` must be a 0-d tensor produced on the tape. A leaf is a
    gradient-enabled input that the tape did not produce, even if another
    tape did. After the call every leaf has `.grad` set, a zero gradient if
    it does not influence the loss. An output's `.grad` is dropped once its
    node has run, so none is left set. Constants are left alone. Returns
    the leaf gradients keyed by tensor. Run it once per tape: an
    `outer_add_relu_matmul` node spends its edge tensor on its gradient, so
    a second call through one raises RuntimeError.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")

    outputs = [out for out, _, _ in tape.nodes]
    produced = set(map(id, outputs))
    leaves = dict.fromkeys(t for _, inputs, _ in tape.nodes for t in inputs
                           if t.requires_grad and id(t) not in produced)
    for t in outputs + list(leaves):
        t.grad = None

    loss.grad = np.ones(())
    for out, inputs, backward_fn in reversed(tape.nodes):
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        out.grad = None
        for t, g in zip(inputs, grads):
            if not t.requires_grad:
                continue
            t.grad = g if t.grad is None else t.grad + g

    for t in leaves:
        if t.grad is None:
            t.grad = np.zeros(t.data.shape)
        leaves[t] = t.grad
    return leaves
