"""Outside-in span tracer for the benchmark.

The tracer wraps public functions of the `legnet` package from outside: it
replaces module attributes, `model.FORWARDS` entries, `ToyAtlas.validate`
and the `Tape` methods with timing wrappers, and puts every original back
when the `installed()` block ends. The program itself is not changed.

Each wrapped call records one span (name, parent span, start, end). Spans
stay in memory during the run; `summary()` turns them into per-name call
counts, total time and self time (a span's duration minus the time its
child spans cover) once measuring is over.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from legnet import connectome, diffmath, model, synthgen

# Span names follow "<module>.<function>", so that spans recorded inside the
# program later can take over the same names.
SYNTHGEN_FUNCS = ("generate_cohort", "generate_healthy_subject", "lesion_subject",
                  "grow_lesion", "corrupt_connectivity", "rescale_score")
CONNECTOME_FUNCS = ("compute_roi_timeseries", "correlation_matrix", "exponentiate",
                    "spared_fractions", "save_cohort", "load_cohort")
MODEL_FUNCS = ("edge_to_edge", "edge_to_node", "assignment_scores", "subgraph_filters",
               "subgraph_conv", "predict_head", "regularizer_grads", "prepare_subject",
               "batch_loss_and_grads", "predict")
TAPE_OPS = ("matmul", "add", "mul", "scale", "relu", "softmax_lastaxis", "mse",
            "l2_norm_sq", "reshape", "transpose")


def _targets():
    """(owner, key, span name) for every traced callable.

    An owner is a module, a class or a dict. Functions that `synthgen`
    imports from `connectome` (and `backward`, which `model` imports from
    `diffmath`) are patched where the caller looks them up, under the name
    of the module that defines them.
    """
    out = [(synthgen, f, f"synthgen.{f}") for f in SYNTHGEN_FUNCS]
    for f in CONNECTOME_FUNCS:
        out += [(connectome, f, f"connectome.{f}"), (synthgen, f, f"connectome.{f}")]
    out.append((connectome.ToyAtlas, "validate", "connectome.ToyAtlas.validate"))
    out += [(model, f, f"model.{f}") for f in MODEL_FUNCS]
    out.append((model, "backward", "diffmath.backward"))
    out += [(model.FORWARDS, kind, f"model.forward.{kind}") for kind in model.MODEL_KINDS]
    out += [(diffmath.Tape, op, f"diffmath.Tape.{op}") for op in TAPE_OPS]
    # skips what an owner does not have: save_cohort is not imported into
    # synthgen, and a function a later version drops reads as zero work
    return [t for t in out if t[1] in _namespace(t[0])]


def _namespace(owner) -> dict:
    return owner if isinstance(owner, dict) else vars(owner)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Collects nested spans from wrapped callables (single thread).

    While `recording` is false the wrappers call straight through, so work
    outside the measured calls (warm-up, output checks) leaves no spans.
    """

    def __init__(self):
        self.recording = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, parent span index (-1 at top level),
        # start and end in perf_counter seconds
        self.spans: list[tuple[int, int, float, float]] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, parent, start, end)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, key, name in _targets():
                original = _namespace(owner)[key]
                saved.append((owner, key, original))
                _set(owner, key, self._wrap(name, original))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_ms and self_ms over all spans."""
        if not self.spans:
            return {}
        rows = np.array(self.spans, dtype=np.float64)
        name_id = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros(len(rows))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_time = np.bincount(name_id, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_ms": 1e3 * float(total[i]),
                       "self_ms": 1e3 * float(self_time[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the raw spans (names plus one row per span) as .npz."""
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), spans=rows)
