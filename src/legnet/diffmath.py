"""Minimal dense-tensor math with reverse-mode gradient support.

Tensors are 64-bit float arrays with at most four axes. Operations are
recorded on a :class:`Tape`; calling :func:`backward` on a scalar output
propagates gradients to every leaf in reverse recording order. The primitive
set is intentionally small: exactly what a dense edge-based graph network
needs, plus a central-difference gradient checker.

Every primitive accepts leading batch axes: elementwise operations broadcast
by numpy's rules and `matmul` by `np.matmul`'s, so a minibatch stacked on a
leading axis runs as one tape. The gradient of an operand that broadcast
over the batch (a shared weight) is summed over the batch axes.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Sequence

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
    its loss and gradients peak at ~1.5 MB for one subject, ~10 MB for 8
    and ~20 MB for the 16 that `model` puts in one chunk (tracemalloc). Under glibc's adaptive defaults, unless
    the process has already freed a multi-megabyte block, each freed heap
    top goes back to the OS and the next tape faults it in again (~2,500
    minor faults and ~30% more time per four-kind training step at one
    subject per tape). This serves blocks up to MMAP_THRESHOLD (4 MiB) from
    the heap and keeps up to TRIM_THRESHOLD (32 MiB, above a full chunk's
    peak) of free heap. A C library without mallopt is left as it is.
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


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with a primitive."""


class GradientCheckError(RuntimeError):
    """Raised when a gradient check hits a non-finite value."""


class Tensor:
    """Dense 64-bit float array with an optional gradient slot.

    `requires_grad=False` marks constant inputs (data matrices, one-hot
    helpers); backward skips gradient computation for them.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = True, validate: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > MAX_AXES:
            raise ShapeError(f"tensors support at most {MAX_AXES} axes, got shape {arr.shape}")
        if validate and not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
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
    single-threaded object; build a fresh one per forward pass.
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
        out = Tensor(out_data, requires_grad=requires, validate=False)
        if requires:
            self.nodes.append((out, inputs, backward_fn))
        return out

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """Matrix product with np.matmul semantics: 1-D operands are
        promoted, leading axes broadcast."""
        try:
            out = np.matmul(a.data, b.data)
        except ValueError as exc:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc

        def backward(g):
            ad, bd = a.data, b.data
            # np.matmul's promotion of 1-D operands, undone on the way out
            a2 = ad[None, :] if ad.ndim == 1 else ad
            b2 = bd[:, None] if bd.ndim == 1 else bd
            if bd.ndim == 1:
                g = g[..., None]
            if ad.ndim == 1:
                g = np.expand_dims(g, -2)
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(b2, -1, -2), a2.shape).reshape(ad.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(a2, -1, -2) @ g, b2.shape).reshape(bd.shape)
            return ga, gb

        return self._emit(out, (a, b), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; the smaller operand may broadcast (numpy rules)."""
        try:
            out = a.data + b.data
        except ValueError as exc:
            raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from exc

        def backward(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return self._emit(out, (a, b), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise product with numpy broadcasting."""
        try:
            out = a.data * b.data
        except ValueError as exc:
            raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}") from exc

        def backward(g):
            return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

        return self._emit(out, (a, b), backward)

    def scale(self, a: Tensor, s: float) -> Tensor:
        """Multiply by a python float constant."""
        s = float(s)

        def backward(g):
            return (g * s,)

        return self._emit(a.data * s, (a,), backward)

    def relu(self, a: Tensor) -> Tensor:
        """max(x, 0); the derivative at exactly 0 is defined as 0."""
        out = np.maximum(a.data, 0.0)

        def backward(g):
            return (g * (a.data > 0.0),)

        return self._emit(out, (a,), backward)

    def add_relu(self, a: Tensor, b: Tensor) -> Tensor:
        """relu(a + b) as one node with add's broadcasting; keeps only its
        output, whose positive entries are where the gradient passes."""
        try:
            out = a.data + b.data
        except ValueError as exc:
            raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}") from exc
        np.maximum(out, 0.0, out=out)

        def backward(g):
            g = g * (out > 0.0)
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return self._emit(out, (a, b), backward)

    def softmax_lastaxis(self, a: Tensor) -> Tensor:
        """Softmax over the last axis, with max-subtraction for stability."""
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return self._emit(out, (a,), backward)

    def mse(self, a: Tensor, b: Tensor) -> Tensor:
        """Mean squared difference over all entries, a 0-d scalar."""
        if a.data.shape != b.data.shape:
            raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
        diff = a.data - b.data
        out = np.asarray(np.mean(diff * diff))
        n = diff.size

        def backward(g):
            d = (2.0 * float(g) / n) * diff
            return d, -d

        return self._emit(out, (a, b), backward)

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

    def transpose(self, a: Tensor, axes: tuple[int, ...]) -> Tensor:
        """Permute axes."""
        if sorted(axes) != list(range(a.data.ndim)):
            raise ShapeError(f"invalid axes {axes} for shape {a.shape}")
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(g):
            return (np.transpose(g, inverse),)

        return self._emit(np.transpose(a.data, axes), (a,), backward)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) to every gradient-enabled leaf on the tape.

    `loss` must be a 0-d tensor produced on the tape. A leaf is a
    gradient-enabled input that the tape did not produce, even if another
    tape did. After the call every leaf has `.grad` set, a zero gradient if
    it does not influence the loss; so has every output the loss depends
    on. Constants are left alone. Returns the leaf gradients keyed by tensor.
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
        for t, g in zip(inputs, grads):
            if not t.requires_grad:
                continue
            t.grad = g if t.grad is None else t.grad + g

    for t in leaves:
        if t.grad is None:
            t.grad = np.zeros(t.data.shape)
        leaves[t] = t.grad
    return leaves


def gradient_check(
    build: Callable[[Tape, list[Tensor]], Tensor],
    inputs: Sequence[np.ndarray],
    step: float = 1e-5,
) -> float:
    """Compare tape gradients against central finite differences.

    `build(tape, tensors)` must construct a scalar loss from the given leaf
    tensors. Returns the maximum over all input coordinates of
    |analytic - numeric| / max(1, |numeric|). Raises
    :class:`GradientCheckError` (naming the offending coordinate) if any
    value involved is non-finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    arrays = [np.array(x, dtype=np.float64) for x in inputs]

    tape = Tape()
    tensors = [Tensor(x) for x in arrays]
    loss = build(tape, tensors)
    backward(tape, loss)
    analytic = [t.grad.copy() for t in tensors]

    def evaluate(current: list[np.ndarray]) -> float:
        t = Tape()
        out = build(t, [Tensor(x, validate=False) for x in current])
        return float(out.data)

    max_err = 0.0
    for i, base in enumerate(arrays):
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = evaluate(arrays)
            flat[j] = orig - step
            down = evaluate(arrays)
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            analytic_j = analytic[i].reshape(-1)[j]
            if not (np.isfinite(numeric) and np.isfinite(analytic_j)):
                raise GradientCheckError(
                    f"non-finite gradient at input {i}, coordinate {j}: "
                    f"analytic={analytic_j}, numeric={numeric}"
                )
            err = abs(analytic_j - numeric) / max(1.0, abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
