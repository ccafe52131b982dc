"""Central-difference gradient check for the tape, shared by the diffmath
and model tests."""

from typing import Callable, Sequence

import numpy as np

from legnet.diffmath import Tape, Tensor, backward


class GradientCheckError(RuntimeError):
    """Raised when a gradient check hits a non-finite value."""


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
        out = build(t, [Tensor(x) for x in current])
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
