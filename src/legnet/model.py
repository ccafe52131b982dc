"""Lesion-aware edge-based graph network (LEGNet) and its baselines.

A model maps a dense connectivity matrix X (one edge feature per ROI pair)
and per-ROI spared fractions p to a scalar score. Each kind stacks shared
modules and ends in one dense head (predict_head):

  edge module      edge_to_node, h1_i = relu(sum_n g_n H_in + b1) of the edge
                   tensor H_ij = relu(sum_n r_n X_in + sum_n c_n X_nj). The
                   row terms X r and column terms X^T c are tape products;
                   one tape op, `outer_add_relu_matmul`, writes H from them
                   and contracts it with g; H never leaves that op, whose
                   backward writes H's gradient over H.
  subgraph module  assignment_scores, row j = softmax(p_j theta1[:, j]) (the
                   lesion encoding); subgraph_filters, row j of V is vec(W_j)
                   = theta2 S_j + b2; subgraph_conv, h2_i = relu(sum_j W_j h1_j).

  legnet           edge module, then the subgraph module driven by p.
  braingnn-dagger  node embedding relu(X node_w^T + node_b), then the subgraph
                   module with p = 1, S = softmax(theta1^T), which the batch
                   shares: no edge module and no lesion input.
  bnc-mask         edge module on X with the rows and columns of ROIs with
                   p < 0.3 zeroed; no subgraph module.
  bnc-2channel     edge module on two channels, X and the rank-one lesion
                   channel B = p p^T, filters summed over channels; B r2 is
                   computed as p (p^T r2), so B is never built.

`KINDS` gives each kind one row: its node stage and its subgraph choice
(S from p, a shared S, or none). A row is its own forward: calling it
composes those stages and the head. `param_spec` reads the row, taking the
node stage's tensors from one table keyed by the stage, and the ridge term
covers every tensor but the head's. The neighbourhood is the complete node
set including self. Every stage is a tape operation, so the loss is
differentiable end to end.

Every forward runs on a batch, and one subject is a batch of one: X as x
(B, N, N) and p as pcol (B, N, 1) give row and column terms (B, N, d0), h1
(B, N, d1), S (B, N, k), V (B, N, d1 d2), h2 (B, N, d2) and scores (B, 1).
The stages before the head broadcast over any leading axes, written "...".
`predict` runs a batch of one; `batch_loss_and_grads` stacks a minibatch
into chunks of `chunk_subjects(hyper)` subjects, 8 at N = 90, and runs each
chunk through the same forward as one tape that holds the chunk's share of
the objective.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .connectome import (InputError, SubjectRecord, _ExactReader, check_number, check_seed,
                         check_types, keep_python_scalars)
from .diffmath import Tape, Tensor, backward

MODEL_LEGNET = "legnet"
MODEL_BRAINGNN_DAGGER = "braingnn-dagger"
MODEL_BNC_MASK = "bnc-mask"
MODEL_BNC_2CHANNEL = "bnc-2channel"

BNC_MASK_THRESHOLD = 0.3  # spared fraction below which bnc-mask drops an ROI

# a chunk's (C, N, N, d0) edge tensor: 8 subjects at N = 90, so a minibatch
# of 8 is one tape. The edge op writes H's gradient over H, so the chunk's
# heap peak stays inside the heap threshold (see diffmath). One tape of 8
# steps 11-15% faster than two of 4 (cv-train call_ms_p90, 2-core VM, see
# CHANGES.md)
CHUNK_BYTES = 2 << 20

_CHECKPOINT_MAGIC = b"LEGP"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class HyperParams:
    """Model dimensions and the ridge weight lam, checked at construction. A
    numpy scalar is kept as the equal Python scalar, which JSON can write."""

    n_rois: int
    k: int = 8
    d0: int = 4
    d1: int = 8
    d2: int = 2
    d3: int = 8
    lam: float = 0.005

    def __post_init__(self):
        keep_python_scalars(self)
        for name in ("n_rois", "k", "d0", "d1", "d2", "d3"):
            check_number(f"hyperparameter {name}", getattr(self, name), 1, integral=True)
        check_number("lam", self.lam, 0)


def param_spec(kind: str, hyper: HyperParams) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Ordered (name, shape, fan_in, fan_out) table for one model kind: the
    tensors of its node stage, then its subgraph module's, then the head's."""
    check_types(("hyper", hyper, HyperParams))
    spec = _kind(kind)
    n, k = hyper.n_rois, hyper.k
    d0, d1, d2, d3 = hyper.d0, hyper.d1, hyper.d2, hyper.d3
    tensors = _NODE_TENSORS[spec.nodes](n, d0, d1)
    if spec.subgraph:
        tensors += [("theta1", (k, n), n, k), ("theta2", (d2 * d1, k), k, d2 * d1),
                    ("b2", (d2 * d1,), d2 * d1, d2 * d1)]
    width = n * (d2 if spec.subgraph else d1)
    return tensors + [
        ("head_w1", (d3, width), width, d3),
        ("head_b1", (d3,), d3, d3),
        ("head_w2", (1, d3), d3, 1),
        ("head_b2", (1,), 1, 1),
    ]


def init_params(kind: str, hyper: HyperParams, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform [-a, a] init with a = sqrt(6 / (fan_in + fan_out))."""
    check_seed("seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    for name, shape, fan_in, fan_out in param_spec(kind, hyper):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-a, a, size=shape)
    return params


# ----------------------------------------------------------------------
# model stages (tape ops)
# ----------------------------------------------------------------------


def edge_to_node(tape: Tape, row: Tensor, col: Tensor, g: Tensor, b1: Tensor) -> Tensor:
    """h1_i = relu(sum_n g_n H_in + b1) with H_ij = relu(row_i + col_j), from
    the (..., N, d0) row and column terms of the edge filter; shape (..., N, d1)."""
    n, d0 = row.shape[-2:]
    if col.shape != row.shape or g.shape[0] != n or g.shape[2] != d0 or b1.shape != (g.shape[1],):
        raise InputError(f"edge_to_node shapes disagree: row {row.shape}, col {col.shape}, "
                         f"g {g.shape}, b1 {b1.shape}")
    gr = tape.reshape(tape.transpose(g), (n * d0, g.shape[1]))
    return tape.add_relu(tape.outer_add_relu_matmul(row, col, gr), b1)


def assignment_scores(tape: Tape, pcol: Tensor, theta1: Tensor) -> Tensor:
    """Row j = softmax(p_j * theta1[:, j]): subgraph membership per node,
    shape (..., N, k)."""
    k, n = theta1.shape
    if pcol.shape[-2:] != (n, 1):
        raise InputError(f"lesion column {pcol.shape} does not match theta1 {theta1.shape}")
    logits = tape.mul(tape.transpose(theta1), pcol)
    return tape.softmax_lastaxis(logits)


def subgraph_filters(tape: Tape, s: Tensor, theta2: Tensor, b2: Tensor) -> Tensor:
    """V with row j = vec(W_j) = theta2 S_j + b2, shape (..., N, d1 d2): the
    column-major vec of the (d2, d1) filter W_j."""
    k, (dd, k2) = s.shape[-1], theta2.shape
    if k != k2 or b2.shape != (dd,):
        raise InputError(f"subgraph_filters shapes disagree: S {s.shape}, theta2 {theta2.shape}")
    return tape.add(tape.matmul(s, tape.transpose(theta2)), b2)


def subgraph_conv(tape: Tape, h1: Tensor, v: Tensor) -> Tensor:
    """h2_i = relu(sum_j W_j h1_j) from V's rows vec(W_j), shape (..., N, d2).

    The sum is one product, vec(h1)^T times V read as (N d1, d2); a V without
    batch axes is shared by h1's batch. With the complete-graph neighborhood
    the sum is the same for every i: add_relu with an (N, d2) zero copies it.
    """
    lead, (n, d1) = h1.shape[:-2], h1.shape[-2:]
    if v.shape[:-1] not in (lead + (n,), (n,)) or not d1 or v.shape[-1] % d1:
        raise InputError(f"subgraph_conv shapes disagree: h1 {h1.shape}, V {v.shape}")
    pooled = tape.matmul(tape.reshape(h1, lead + (1, n * d1)),
                         tape.reshape(v, v.shape[:-2] + (n * d1, v.shape[-1] // d1)))
    return tape.add_relu(pooled, Tensor(np.zeros((n, pooled.shape[-1])), requires_grad=False))


def predict_head(tape: Tape, features: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Flatten the last two axes of (B, N, d) features + dense(d3) + relu +
    dense(1); returns shape (B, 1)."""
    lead, (n, d) = features.shape[:-2], features.shape[-2:]
    flat = tape.reshape(features, lead + (n * d,))
    if w1.shape[1] != n * d:
        raise InputError(f"head expects {w1.shape[1]} features, got {n * d}")
    hidden = tape.add_relu(tape.matmul(flat, tape.transpose(w1)), b1)
    return tape.add(tape.matmul(hidden, tape.transpose(w2)), b2)


# ----------------------------------------------------------------------
# prepared subjects and full forwards
# ----------------------------------------------------------------------


@dataclass(eq=False)
class PreparedSubject:
    """Constant leaf tensors of a batch, reusable across tapes: X as x
    (B, N, N), p as pcol (B, N, 1), the targets (B, 1) and the B subject
    ids. One subject is a batch of one (`prepare_subject`)."""

    ids: tuple[str, ...]
    x: Tensor
    pcol: Tensor
    target: Tensor


def _check_fits(subj: PreparedSubject, hyper: HyperParams) -> None:
    """Raise InputError, naming the subjects, unless `subj` is a
    PreparedSubject of one subject whose x and pcol hold a hyper.n_rois-ROI
    input and whose target is (1, 1): a target of another shape would
    broadcast against the (B, 1) predictions in the loss."""
    check_types(("a batch entry", subj, PreparedSubject))
    n, names = hyper.n_rois, ", ".join(map(repr, subj.ids))
    if len(subj.ids) != 1:
        raise InputError(f"a batch entry holds one subject, got {len(subj.ids)}: {names}")
    if subj.x.shape != (1, n, n) or subj.pcol.shape != (1, n, 1):
        raise InputError(f"subject {names} has X {subj.x.shape[1:]} and lesion column "
                         f"{subj.pcol.shape[1:]}; the model expects {n} ROIs")
    if subj.target.shape != (1, 1):
        raise InputError(f"subject {names} has target {subj.target.shape}, not (1, 1)")


def _check_batch(name: str, batch, empty_ok: bool = False) -> None:
    """InputError unless `batch` is a list or tuple, non-empty unless
    `empty_ok`: a generator or None would fail late, or read as empty."""
    if not isinstance(batch, (list, tuple)):
        raise InputError(f"{name} must be a list or tuple, got {type(batch).__name__}")
    if not (batch or empty_ok):
        raise InputError("empty batch")


def stack_subjects(prepared: list[PreparedSubject], hyper: HyperParams) -> PreparedSubject:
    """Join one-subject batches on the batch axis, for one tape. An
    InputError says the list is empty or not a list or tuple, or names the
    first entry that is not one subject fitting `hyper.n_rois`. Entries are
    not checked: records are checked when they are built."""
    _check_batch("prepared", prepared)
    for subj in prepared:
        _check_fits(subj, hyper)

    def join(name):
        data = np.concatenate([getattr(subj, name).data for subj in prepared])
        return Tensor(data, requires_grad=False)

    ids = tuple(i for subj in prepared for i in subj.ids)
    return PreparedSubject(ids, join("x"), join("pcol"), join("target"))


def _edge_module(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor]) -> Tensor:
    row, col = tape.matmul(subj.x, params["r"]), tape.matmul(tape.transpose(subj.x), params["c"])
    return edge_to_node(tape, row, col, params["g"], params["b1"])


def _masked_edge_module(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor]) -> Tensor:
    """The edge module on X with ROIs of p < 0.3 masked, a tape constant."""
    keep = subj.pcol.data >= BNC_MASK_THRESHOLD
    x = Tensor(subj.x.data * (keep & np.swapaxes(keep, -1, -2)), requires_grad=False)
    return _edge_module(tape, replace(subj, x=x), params)


def _two_channel_edge_module(tape: Tape, subj: PreparedSubject,
                             params: dict[str, Tensor]) -> Tensor:
    """The edge module on X and B = p p^T, with B r2 = p (p^T r2)."""
    xt, pt = tape.transpose(subj.x), tape.transpose(subj.pcol)
    row = tape.add(tape.matmul(subj.x, params["r"]),
                   tape.matmul(subj.pcol, tape.matmul(pt, params["r2"])))
    col = tape.add(tape.matmul(xt, params["c"]),
                   tape.matmul(subj.pcol, tape.matmul(pt, params["c2"])))
    return edge_to_node(tape, row, col, params["g"], params["b1"])


def _node_embedding(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor]) -> Tensor:
    """Linear per-row node embedding of X: relu(X node_w^T + node_b)."""
    return tape.add_relu(tape.matmul(subj.x, tape.transpose(params["node_w"])),
                         params["node_b"])


def _edge_tensors(*projections: str):
    """The edge module's tensors: one (N, d0) projection per name, then g and b1."""
    return lambda n, d0, d1: ([(name, (n, d0), n, d0) for name in projections]
                              + [("g", (n, d1, d0), n * d0, d1), ("b1", (d1,), d1, d1)])


# each node stage's tensors, (name, shape, fan_in, fan_out), from (N, d0, d1)
_NODE_TENSORS = {
    _edge_module: _edge_tensors("r", "c"),
    _masked_edge_module: _edge_tensors("r", "c"),
    _two_channel_edge_module: _edge_tensors("r", "c", "r2", "c2"),
    _node_embedding: lambda n, d0, d1: [("node_w", (d1, n), n, d1), ("node_b", (d1,), d1, d1)],
}


@dataclass(frozen=True)
class ModelKind:
    """One kind as a row of stage choices, called as its forward: the node
    stage, then the subgraph module with S "lesion" (from p), "shared"
    (softmax(theta1^T)) or None (no module), then the head. Stages are
    looked up in this module when called. A node stage that is not a key of
    `_NODE_TENSORS`, or another subgraph choice, is an InputError."""

    nodes: Callable[[Tape, PreparedSubject, dict[str, Tensor]], Tensor]
    subgraph: str | None = None

    def __post_init__(self):
        if not any(self.nodes is stage for stage in _NODE_TENSORS):
            raise InputError(f"node stage {self.nodes!r} has no tensor table")
        if self.subgraph not in (None, "lesion", "shared"):
            raise InputError(f"subgraph must be None, 'lesion' or 'shared', got {self.subgraph!r}")

    def __call__(self, tape: Tape, subj: PreparedSubject, params: dict[str, Tensor],
                 hyper: HyperParams) -> Tensor:
        h = self.nodes(tape, subj, params)
        if self.subgraph is not None:
            s = (assignment_scores(tape, subj.pcol, params["theta1"]) if self.subgraph == "lesion"
                 else tape.softmax_lastaxis(tape.transpose(params["theta1"])))
            h = subgraph_conv(tape, h, subgraph_filters(tape, s, params["theta2"], params["b2"]))
        return predict_head(tape, h, params["head_w1"], params["head_b1"],
                            params["head_w2"], params["head_b2"])


KINDS = {
    MODEL_LEGNET: ModelKind(_edge_module, "lesion"),
    MODEL_BRAINGNN_DAGGER: ModelKind(_node_embedding, "shared"),
    MODEL_BNC_MASK: ModelKind(_masked_edge_module),
    MODEL_BNC_2CHANNEL: ModelKind(_two_channel_edge_module),
}
# a copy, so a tracer that replaces an entry leaves the rows param_spec reads
FORWARDS = dict(KINDS)
MODEL_KINDS = tuple(KINDS)


def _kind(kind: str) -> ModelKind:
    if not isinstance(kind, str) or kind not in KINDS:
        raise InputError(f"unknown model kind {kind!r}")
    return KINDS[kind]


def prepare_subject(record: SubjectRecord) -> PreparedSubject:
    """One record as a batch of one, which every kind reads: x and pcol view
    the record's read-only arrays, which were checked when it was built. A
    record that is not a SubjectRecord is an InputError."""
    check_types(("record", record, SubjectRecord))
    arrays = record.x[None], record.lesion.p[None, :, None], np.array([[float(record.y)]])
    return PreparedSubject((record.id,), *(Tensor(a, requires_grad=False) for a in arrays))


def prepare_dataset(records: list[SubjectRecord], kind: str) -> list[PreparedSubject]:
    """`prepare_subject` of each record. Preparation is the same for every
    kind; `kind` is only checked, and an unknown one is an InputError, as
    are `records` that are not a list or tuple."""
    _kind(kind)
    _check_batch("records", records, empty_ok=True)
    return [prepare_subject(r) for r in records]


@functools.lru_cache(maxsize=32)
def _shape_table(kind: str, hyper: HyperParams) -> MappingProxyType:
    """The kind's {name: shape} tensor table, built once per (kind, hyper)."""
    return MappingProxyType({name: shape for name, shape, *_ in param_spec(kind, hyper)})


def check_params(kind: str, hyper: HyperParams, params: dict) -> None:
    """Raise InputError, naming the tensor, unless `params` is a dict mapping
    tensor names to ndarrays or Tensors with exactly the names and shapes of
    the kind's tensor table. Entries are not read. The kind and `hyper` are
    checked first, so an unhashable one never reaches the cached table."""
    _kind(kind)
    check_types(("hyper", hyper, HyperParams), ("params", params, dict))
    spec = _shape_table(kind, hyper)
    shapes = {name: t.shape if isinstance(t, (np.ndarray, Tensor)) else None
              for name, t in params.items()}
    if shapes == spec:
        return
    for name, t in params.items():
        if shapes[name] is None:
            raise InputError(f"parameter tensor {name!r} is a {type(t).__name__}, "
                             f"not an ndarray or Tensor")
    mismatch = f"tensors do not match the {kind} tensor table"
    for name, shape in spec.items():
        if name not in shapes:
            raise InputError(f"{mismatch}: {name!r} is missing")
        if shapes[name] != shape:
            raise InputError(f"{mismatch}: {name!r} has shape {shapes[name]}, expected {shape}")
    extra = sorted(map(repr, shapes.keys() - spec.keys()))
    raise InputError(f"{mismatch}: {extra[0]} is not in it")


def _check_finite(params: dict[str, np.ndarray]) -> None:
    """Raise InputError naming the first tensor that is not an ndarray of
    real numbers (integer or float) or has a non-finite entry. One pass
    reads every entry; the loop that names the offender runs only if it fails."""
    arrays = params.values()
    if all(isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf" for arr in arrays) and \
            (not arrays or np.isfinite(np.concatenate([arr.ravel() for arr in arrays])).all()):
        return
    for name, arr in params.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):
            what = f"{arr.dtype} ndarray" if isinstance(arr, np.ndarray) else type(arr).__name__
            raise InputError(f"parameter tensor {name!r} is a {what}, not an ndarray of "
                             f"real numbers")
        if not np.isfinite(arr).all():
            raise InputError(f"parameter tensor {name!r} has non-finite entries")


def as_tensors(params: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Tensor]:
    """Wrap parameter arrays as leaves. Arrays are shared, not copied, so
    in-place optimizer updates stay visible. An InputError names a tensor
    with a non-finite entry, or `params` if it is not a dict."""
    check_types(("params", params, dict))
    _check_finite(params)
    return {name: Tensor(arr, requires_grad=requires_grad) for name, arr in params.items()}


def predict(record: SubjectRecord, params: dict[str, np.ndarray], hyper: HyperParams,
            kind: str = MODEL_LEGNET) -> float:
    check_params(kind, hyper, params)
    subj = prepare_subject(record)
    _check_fits(subj, hyper)
    out = FORWARDS[kind](Tape(), subj, as_tensors(params, requires_grad=False), hyper)
    return float(out.data[0, 0])


def _ridge(tape: Tape, params_t: dict[str, Tensor], lam: float) -> Tensor:
    """lam * sum of squares of every tensor but the head's."""
    total = None
    for name in sorted(params_t):
        if not name.startswith("head_"):
            term = tape.l2_norm_sq(params_t[name])
            total = term if total is None else tape.add(total, term)
    return tape.mul(total, Tensor(lam, requires_grad=False))


def _chunk_objective(tape: Tape, batch: PreparedSubject, params_t: dict[str, Tensor],
                     hyper: HyperParams, kind: str, m: int,
                     lam: float) -> tuple[Tensor, Tensor]:
    """The chunk's share of the objective over m subjects, (1/m) sum (yhat - y)^2,
    plus the ridge term when lam != 0; returns (objective, predictions)."""
    yhat = FORWARDS[kind](tape, batch, params_t, hyper)
    err = tape.add(yhat, Tensor(-batch.target.data, requires_grad=False))
    out = tape.mul(tape.l2_norm_sq(err), Tensor(1.0 / m, requires_grad=False))
    if lam != 0.0:
        out = tape.add(out, _ridge(tape, params_t, lam))
    return out, yhat


def chunk_subjects(hyper: HyperParams) -> int:
    """Subjects per tape: as many as keep one (C, N, N, d0) array within
    CHUNK_BYTES (8 at N = 90 and d0 = 4)."""
    return max(1, CHUNK_BYTES // (hyper.n_rois ** 2 * hyper.d0 * 8))


def batch_loss_and_grads(
    prepared: list[PreparedSubject],
    params_t: dict[str, Tensor],
    hyper: HyperParams,
    kind: str,
    lam: float,
    want_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None, np.ndarray]:
    """Mean squared prediction error plus ridge term, with gradients.

    Returns (loss, grads or None, predictions). Gradients are averaged over
    the batch exactly as the loss is. Each chunk of `chunk_subjects(hyper)`
    subjects runs as one tape holding its share of the objective
    (`_chunk_objective`): the first chunk's also holds the ridge term. With
    `want_grads`, each chunk's tape gets one backward; without, none runs.
    An entry of `prepared` that is not a one-subject PreparedSubject fitting
    `hyper` is an InputError (see `_check_fits`), as is a `prepared` that is
    empty or not a list or tuple.
    """
    _check_batch("prepared", prepared)
    check_params(kind, hyper, params_t)
    for name, t in params_t.items():
        if not (isinstance(t, Tensor) and (t.requires_grad or not want_grads)):
            raise InputError(f"parameter tensor {name!r} is not a Tensor"
                             f"{' that requires gradients' if want_grads else ''} (see as_tensors)")
    check_number("lam", lam, 0)
    m = len(prepared)
    chunk = chunk_subjects(hyper)
    preds = np.empty(m)
    loss = 0.0
    grads = None
    for start in range(0, m, chunk):
        batch = stack_subjects(prepared[start:start + chunk], hyper)
        tape = Tape()
        objective, yhat = _chunk_objective(tape, batch, params_t, hyper, kind, m,
                                           lam if start == 0 else 0.0)
        preds[start:start + chunk] = yhat.data[:, 0]
        loss += float(objective.data)
        if want_grads:
            backward(tape, objective)
            grads = {name: t.grad if grads is None else grads[name] + t.grad
                     for name, t in params_t.items()}
    return loss, grads, preds


def single_tape_batch_loss(tape: Tape, prepared: list[PreparedSubject],
                           params_t: dict[str, Tensor], hyper: HyperParams,
                           kind: str, lam: float) -> Tensor:
    """The sum of each subject's `_chunk_objective` on one tape, the first's
    with the ridge term: the per-subject reference batch_loss_and_grads is
    tested against. An InputError names an entry not one subject fitting it,
    or says `prepared` is empty or not a list or tuple."""
    _check_batch("prepared", prepared)
    total, m = None, len(prepared)
    for i, subj in enumerate(prepared):
        _check_fits(subj, hyper)
        term, _ = _chunk_objective(tape, subj, params_t, hyper, kind, m, lam if i == 0 else 0.0)
        total = term if total is None else tape.add(total, term)
    return total


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


def _checkpoint_header(kind: str, hyper: HyperParams) -> bytes:
    """The one header a (kind, hyper) checkpoint has: JSON of the kind, the
    hyperparameters and the [name, shape] table in name order."""
    tensors = [[name, list(shape)] for name, shape, *_ in sorted(param_spec(kind, hyper))]
    return json.dumps({"model": kind, "hyper": asdict(hyper), "tensors": tensors},
                      sort_keys=True).encode("utf-8")


def save_checkpoint(path, kind: str, hyper: HyperParams,
                    params: dict[str, np.ndarray]) -> None:
    """Binary checkpoint: LEGP, version, header length, the header
    `_checkpoint_header(kind, hyper)`, then float64 tensors in name order.
    Params that load_checkpoint would refuse (not the kind's tensor table,
    or a non-finite entry) are an InputError, and no file is written."""
    check_params(kind, hyper, params)
    _check_finite(params)
    header = _checkpoint_header(kind, hyper)
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for name in sorted(params):
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[str, HyperParams, dict[str, np.ndarray]]:
    """Read a checkpoint. Its header must be `_checkpoint_header(kind,
    hyper)` byte for byte, for the kind and hyperparameters it names, so
    load refuses what save refuses. A file that is cut or overlong, a
    header that differs, and a non-finite entry are each an InputError."""
    reader = _ExactReader(path, "checkpoint", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION)
    (header_len,) = reader.unpack("<I")
    raw = bytes(reader.take(header_len))
    try:
        header = json.loads(raw.decode("utf-8"))
        kind, hyper = header["model"], HyperParams(**header["hyper"])
    except (ValueError, TypeError, KeyError, RecursionError) as exc:  # and HyperParams' InputError
        raise InputError("checkpoint header is not UTF-8 JSON naming a model kind and "
                         f"valid hyperparameters: {exc}") from exc
    if raw != _checkpoint_header(kind, hyper):
        raise InputError(f"checkpoint header is not the one save_checkpoint writes for "
                         f"a {kind!r} model with {hyper}")
    params = {name: reader.array("<f8", math.prod(shape)).astype(np.float64).reshape(shape)
              for name, shape, *_ in sorted(param_spec(kind, hyper))}
    _check_finite(params)
    reader.finish()
    return kind, hyper, params
