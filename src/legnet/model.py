"""Lesion-aware edge-based graph network (LEGNet) and its baselines.

A model maps a dense connectivity matrix X (one edge feature per ROI pair)
and per-ROI spared fractions p to a scalar score. Each kind stacks shared
modules and ends in one dense head (predict_head):

  edge module      edge_to_edge, H_ij = relu(sum_n r_n X_in + sum_n c_n X_nj),
                   then edge_to_node, h1_i = relu(sum_n g_n H_in + b1).
  subgraph module  assignment_scores, row j = softmax(p_j theta1[:, j]) (the
                   lesion encoding); subgraph_filters, vec(W_j) = theta2 S_j
                   + b2; subgraph_conv, h2_i = relu(sum_j W_j h1_j).

  legnet           edge module, then the subgraph module driven by p.
  braingnn-dagger  node embedding relu(X node_w^T + node_b), then the subgraph
                   module with p = 1: no edge module and no lesion input.
  bnc-mask         edge module on X with the rows and columns of ROIs with
                   p < 0.3 zeroed; no subgraph module.
  bnc-2channel     edge module on two channels, X and the rank-one lesion
                   channel B = p p^T, filters summed over channels; B r2 is
                   computed as p (p^T r2), so B is never built.

`KINDS` defines each kind once: its modules fix its tensor table, and the
ridge term covers every tensor but the head's. The neighbourhood is the
complete node set including self. All stages are tape operations, so the
loss is differentiable end to end.

Every stage takes optional leading batch axes, written "...": X (..., N, N)
and p as pcol (..., N, 1) give H (..., N, N, d0), h1 (..., N, d1), S
(..., N, k), W (..., N, d2, d1), h2 (..., N, d2) and a score (..., 1). One
subject has no leading axis (`predict`); `batch_loss_and_grads` stacks a
minibatch into chunks of `chunk_subjects(hyper)` subjects and runs each
chunk through the same forward as one tape that holds the chunk's share of
the objective.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .connectome import InputError, SubjectRecord, _ExactReader, check_number
from .diffmath import MMAP_THRESHOLD, Tape, Tensor, backward

MODEL_LEGNET = "legnet"
MODEL_BRAINGNN_DAGGER = "braingnn-dagger"
MODEL_BNC_MASK = "bnc-mask"
MODEL_BNC_2CHANNEL = "bnc-2channel"

BNC_MASK_THRESHOLD = 0.3  # spared fraction below which bnc-mask drops an ROI

# a chunk's largest array, (C, N, N, d0), stays on the heap (see diffmath)
CHUNK_BYTES = MMAP_THRESHOLD

_CHECKPOINT_MAGIC = b"LEGP"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class HyperParams:
    """Model dimensions and the ridge weight lam."""

    n_rois: int
    k: int = 8
    d0: int = 4
    d1: int = 8
    d2: int = 2
    d3: int = 8
    lam: float = 0.005

    def validate(self) -> None:
        for name in ("n_rois", "k", "d0", "d1", "d2", "d3"):
            check_number(f"hyperparameter {name}", getattr(self, name), 1, integral=True)
        check_number("lam", self.lam, 0)


def param_spec(kind: str, hyper: HyperParams) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Ordered (name, shape, fan_in, fan_out) table for one model kind: the
    tensors of its modules, then the head's."""
    modules = _kind(kind).modules
    n, k = hyper.n_rois, hyper.k
    d0, d1, d2, d3 = hyper.d0, hyper.d1, hyper.d2, hyper.d3
    tensors = {
        "edge": [("r", (n, d0), n, d0), ("c", (n, d0), n, d0)],
        "lesion_edge": [("r2", (n, d0), n, d0), ("c2", (n, d0), n, d0)],
        "node": [("g", (n, d1, d0), n * d0, d1), ("b1", (d1,), d1, d1)],
        "embed": [("node_w", (d1, n), n, d1), ("node_b", (d1,), d1, d1)],
        "subgraph": [
            ("theta1", (k, n), n, k),
            ("theta2", (d2 * d1, k), k, d2 * d1),
            ("b2", (d2 * d1,), d2 * d1, d2 * d1),
        ],
    }
    width = n * (d2 if "subgraph" in modules else d1)
    return [row for module in modules for row in tensors[module]] + [
        ("head_w1", (d3, width), width, d3),
        ("head_b1", (d3,), d3, d3),
        ("head_w2", (1, d3), d3, 1),
        ("head_b2", (1,), 1, 1),
    ]


def init_params(kind: str, hyper: HyperParams, seed: int) -> dict[str, np.ndarray]:
    """Seeded uniform [-a, a] init with a = sqrt(6 / (fan_in + fan_out))."""
    hyper.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params: dict[str, np.ndarray] = {}
    for name, shape, fan_in, fan_out in param_spec(kind, hyper):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-a, a, size=shape)
    return params


# ----------------------------------------------------------------------
# model stages (tape ops)
# ----------------------------------------------------------------------


def _swap_last(tape: Tape, a: Tensor) -> Tensor:
    """Transpose the last two axes."""
    lead = tuple(range(len(a.shape) - 2))
    return tape.transpose(a, lead + (len(lead) + 1, len(lead)))


def edge_to_edge(tape: Tape, x: Tensor, r: Tensor, c: Tensor) -> Tensor:
    """H_ij = relu(sum_n r_n X_in + sum_n c_n X_nj), shape (..., N, N, d0)."""
    n, d0 = r.shape
    if x.shape[-2:] != (n, n) or c.shape != (n, d0):
        raise InputError(f"edge_to_edge shapes disagree: X {x.shape}, r {r.shape}, c {c.shape}")
    return _edge_relu(tape, tape.matmul(x, r), tape.matmul(_swap_last(tape, x), c))


def _edge_relu(tape: Tape, row: Tensor, col: Tensor) -> Tensor:
    """H_ij = relu(row_i + col_j) from per-node row/column terms (..., N, d0).

    row_i is repeated over j as a product with the 0/1 matrix [I I ... I]
    (d0, N d0), which is exact. Every pass over H then runs along rows of
    N d0 contiguous entries instead of d0.
    """
    lead, (n, d0) = row.shape[:-2], row.shape[-2:]
    tile = Tensor(np.tile(np.eye(d0), n), requires_grad=False)
    h = tape.add_relu(tape.matmul(row, tile), tape.reshape(col, lead + (1, n * d0)))
    return tape.reshape(h, lead + (n, n, d0))


def edge_to_node(tape: Tape, h: Tensor, g: Tensor, b1: Tensor) -> Tensor:
    """h1_i = relu(sum_n g_n H_in + b1), shape (..., N, d1)."""
    lead, (n, n2, d0) = h.shape[:-3], h.shape[-3:]
    if n != n2 or g.shape[0] != n or g.shape[2] != d0 or b1.shape != (g.shape[1],):
        raise InputError(f"edge_to_node shapes disagree: H {h.shape}, g {g.shape}, b1 {b1.shape}")
    d1 = g.shape[1]
    hr = tape.reshape(h, lead + (n, n * d0))
    gr = tape.reshape(tape.transpose(g, (0, 2, 1)), (n * d0, d1))
    return tape.add_relu(tape.matmul(hr, gr), b1)


def assignment_scores(tape: Tape, pcol: Tensor, theta1: Tensor) -> Tensor:
    """Row j = softmax(p_j * theta1[:, j]): subgraph membership per node,
    shape (..., N, k)."""
    k, n = theta1.shape
    if pcol.shape[-2:] != (n, 1):
        raise InputError(f"lesion column {pcol.shape} does not match theta1 {theta1.shape}")
    logits = tape.mul(tape.transpose(theta1, (1, 0)), pcol)
    return tape.softmax_lastaxis(logits)


def subgraph_filters(tape: Tape, s: Tensor, theta2: Tensor, b2: Tensor, d2: int) -> Tensor:
    """W_j with vec(W_j) = theta2 S_j + b2 (column-major vec), shape (..., N, d2, d1)."""
    lead, (n, k) = s.shape[:-2], s.shape[-2:]
    dd, k2 = theta2.shape
    if k != k2 or b2.shape != (dd,) or dd % d2:
        raise InputError(f"subgraph_filters shapes disagree: S {s.shape}, theta2 {theta2.shape}")
    d1 = dd // d2
    flat = tape.add(tape.matmul(s, tape.transpose(theta2, (1, 0))), b2)
    return _swap_last(tape, tape.reshape(flat, lead + (n, d1, d2)))


def subgraph_conv(tape: Tape, h1: Tensor, w: Tensor) -> Tensor:
    """h2_i = relu(sum_j W_j h1_j), shape (..., N, d2).

    With the complete-graph neighborhood the inner sum is the same for every
    i; the per-node output layout is kept anyway.
    """
    lead, (n, d1) = h1.shape[:-2], h1.shape[-2:]
    if w.shape[:-3] != lead or w.shape[-3] != n or w.shape[-1] != d1:
        raise InputError(f"subgraph_conv shapes disagree: h1 {h1.shape}, W {w.shape}")
    d2 = w.shape[-2]
    axes = tuple(range(len(lead)))
    node, row, col = len(lead), len(lead) + 1, len(lead) + 2
    wc = tape.reshape(tape.transpose(w, axes + (row, node, col)), lead + (d2, n * d1))
    pooled = tape.matmul(wc, tape.reshape(h1, lead + (n * d1, 1)))
    ones = Tensor(np.ones((n, 1)), requires_grad=False)
    return tape.relu(tape.matmul(ones, tape.reshape(pooled, lead + (1, d2))))


def predict_head(tape: Tape, features: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Flatten the last two axes + dense(d3) + relu + dense(1); returns
    shape (..., 1)."""
    lead, (n, d) = features.shape[:-2], features.shape[-2:]
    flat = tape.reshape(features, lead + (n * d,))
    if w1.shape[1] != n * d:
        raise InputError(f"head expects {w1.shape[1]} features, got {n * d}")
    hidden = tape.add_relu(tape.matmul(flat, tape.transpose(w1, (1, 0))), b1)
    return tape.add(tape.matmul(hidden, tape.transpose(w2, (1, 0))), b2)


# ----------------------------------------------------------------------
# prepared subjects and full forwards
# ----------------------------------------------------------------------


@dataclass(eq=False)
class PreparedSubject:
    """Constant leaf tensors for one subject, reusable across tapes: the
    kind's inputs x (N, N) and pcol (N, 1), and the target (1,)."""

    id: str
    x: Tensor
    pcol: Tensor
    target: Tensor


@dataclass(eq=False)
class PreparedBatch:
    """Prepared subjects stacked on a leading axis: x (B, N, N), pcol
    (B, N, 1) and target (B, 1). A forward reads only x and pcol, so it
    takes a PreparedBatch or one PreparedSubject alike."""

    x: Tensor
    pcol: Tensor
    target: Tensor


Prepared = PreparedSubject | PreparedBatch


def stack_subjects(prepared: list[PreparedSubject], hyper: HyperParams) -> PreparedBatch:
    """Stack subjects for one tape. An InputError names the first subject
    whose x or pcol does not fit `hyper.n_rois`. Entries are not checked
    again: `prepare_subject` checked them."""
    n = hyper.n_rois
    for subj in prepared:
        if subj.x.shape != (n, n) or subj.pcol.shape != (n, 1):
            raise InputError(f"subject {subj.id!r} has X {subj.x.shape} and lesion column "
                             f"{subj.pcol.shape}; the model expects {n} ROIs")

    def stack(name):
        data = np.stack([getattr(subj, name).data for subj in prepared])
        return Tensor(data, requires_grad=False, validate=False)

    return PreparedBatch(stack("x"), stack("pcol"), stack("target"))


def _edge_module(tape: Tape, subj: Prepared, params: dict[str, Tensor],
                 hyper: HyperParams) -> Tensor:
    h = edge_to_edge(tape, subj.x, params["r"], params["c"])
    return edge_to_node(tape, h, params["g"], params["b1"])


def _two_channel_edge_module(tape: Tape, subj: Prepared, params: dict[str, Tensor],
                             hyper: HyperParams) -> Tensor:
    """The edge module on X and B = p p^T, with B r2 = p (p^T r2)."""
    xt, pt = _swap_last(tape, subj.x), _swap_last(tape, subj.pcol)
    row = tape.add(tape.matmul(subj.x, params["r"]),
                   tape.matmul(subj.pcol, tape.matmul(pt, params["r2"])))
    col = tape.add(tape.matmul(xt, params["c"]),
                   tape.matmul(subj.pcol, tape.matmul(pt, params["c2"])))
    return edge_to_node(tape, _edge_relu(tape, row, col), params["g"], params["b1"])


def _subgraph_module(tape: Tape, h1: Tensor, subj: Prepared,
                     params: dict[str, Tensor], hyper: HyperParams) -> Tensor:
    s = assignment_scores(tape, subj.pcol, params["theta1"])
    w = subgraph_filters(tape, s, params["theta2"], params["b2"], hyper.d2)
    return subgraph_conv(tape, h1, w)


def _legnet_features(tape: Tape, subj: Prepared, params: dict[str, Tensor],
                     hyper: HyperParams) -> Tensor:
    return _subgraph_module(tape, _edge_module(tape, subj, params, hyper), subj, params, hyper)


def _braingnn_dagger_features(tape: Tape, subj: Prepared, params: dict[str, Tensor],
                              hyper: HyperParams) -> Tensor:
    """Linear per-row node embedding of X, then the subgraph module."""
    h1 = tape.add_relu(tape.matmul(subj.x, tape.transpose(params["node_w"], (1, 0))),
                       params["node_b"])
    return _subgraph_module(tape, h1, subj, params, hyper)


def _mask_damaged(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = p >= BNC_MASK_THRESHOLD
    return x * np.outer(keep, keep), p


@dataclass(frozen=True)
class ModelKind:
    """One model kind: the tensor groups of its modules in table order (see
    param_spec; the head's follow), its feature stack, and the map from a
    record's (X, p) to the kind's inputs."""

    modules: tuple[str, ...]
    features: Callable[[Tape, Prepared, dict[str, Tensor], HyperParams], Tensor]
    inputs: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] = (
        lambda x, p: (x, p))


KINDS = {
    MODEL_LEGNET: ModelKind(("edge", "node", "subgraph"), _legnet_features),
    MODEL_BRAINGNN_DAGGER: ModelKind(("embed", "subgraph"), _braingnn_dagger_features,
                                     lambda x, p: (x, np.ones_like(p))),
    MODEL_BNC_MASK: ModelKind(("edge", "node"), _edge_module, _mask_damaged),
    MODEL_BNC_2CHANNEL: ModelKind(("edge", "lesion_edge", "node"), _two_channel_edge_module),
}
MODEL_KINDS = tuple(KINDS)


def _kind(kind: str) -> ModelKind:
    if kind not in KINDS:
        raise InputError(f"unknown model kind {kind!r}")
    return KINDS[kind]


def prepare_subject(record: SubjectRecord, kind: str) -> PreparedSubject:
    x, p = _kind(kind).inputs(record.x, record.lesion.p)
    return PreparedSubject(
        id=record.id,
        x=Tensor(x, requires_grad=False),
        pcol=Tensor(p[:, None], requires_grad=False),
        target=Tensor(np.array([float(record.y)]), requires_grad=False),
    )


def prepare_dataset(records: list[SubjectRecord], kind: str) -> list[PreparedSubject]:
    return [prepare_subject(r, kind) for r in records]


def _with_head(features):
    def forward(tape: Tape, subj: Prepared, params: dict[str, Tensor],
                hyper: HyperParams) -> Tensor:
        return predict_head(tape, features(tape, subj, params, hyper), params["head_w1"],
                            params["head_b1"], params["head_w2"], params["head_b2"])
    return forward


FORWARDS = {kind: _with_head(spec.features) for kind, spec in KINDS.items()}


def check_params(kind: str, hyper: HyperParams, shapes: dict) -> None:
    """Raise InputError, naming the tensor, unless `shapes` (tensor name ->
    shape) is exactly the kind's tensor table. Entries are not read."""
    spec = {name: shape for name, shape, *_ in param_spec(kind, hyper)}
    if shapes == spec:
        return
    mismatch = f"tensors do not match the {kind} tensor table"
    for name, shape in spec.items():
        if name not in shapes:
            raise InputError(f"{mismatch}: {name!r} is missing")
        if shapes[name] != shape:
            raise InputError(f"{mismatch}: {name!r} has shape {shapes[name]}, expected {shape}")
    extra = sorted(map(repr, shapes.keys() - spec.keys()))
    raise InputError(f"{mismatch}: {extra[0]} is not in it")


def as_tensors(params: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Tensor]:
    """Wrap parameter arrays as leaves. Arrays are shared, not copied, so
    in-place optimizer updates stay visible."""
    return {name: Tensor(arr, requires_grad=requires_grad) for name, arr in params.items()}


def predict(record: SubjectRecord, params: dict[str, np.ndarray], hyper: HyperParams,
            kind: str = MODEL_LEGNET) -> float:
    check_params(kind, hyper, {name: arr.shape for name, arr in params.items()})
    subj = prepare_subject(record, kind)
    out = FORWARDS[kind](Tape(), subj, as_tensors(params, requires_grad=False), hyper)
    return float(out.data[0])


def _ridge(tape: Tape, params_t: dict[str, Tensor], lam: float) -> Tensor:
    """lam * sum of squares of every tensor but the head's."""
    total = None
    for name in sorted(params_t):
        if not name.startswith("head_"):
            term = tape.l2_norm_sq(params_t[name])
            total = term if total is None else tape.add(total, term)
    return tape.scale(total, lam)


def _chunk_objective(tape: Tape, batch: PreparedBatch, params_t: dict[str, Tensor],
                     hyper: HyperParams, kind: str, weight: float,
                     lam: float) -> tuple[Tensor, Tensor]:
    """weight * (the chunk's mean squared error), plus the ridge term when
    lam != 0; returns (objective, predictions)."""
    yhat = FORWARDS[kind](tape, batch, params_t, hyper)
    out = tape.scale(tape.mse(yhat, batch.target), weight)
    if lam != 0.0:
        out = tape.add(out, _ridge(tape, params_t, lam))
    return out, yhat


def chunk_subjects(hyper: HyperParams) -> int:
    """Subjects per tape: as many as keep one (C, N, N, d0) array within
    CHUNK_BYTES (16 at N = 90 and d0 = 4)."""
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
    subjects runs as one tape holding its share of the objective: the first
    chunk's also holds the ridge term. With `want_grads`, each chunk's tape
    gets one backward; without, none runs.
    """
    if not prepared:
        raise InputError("empty batch")
    check_params(kind, hyper, {name: t.shape for name, t in params_t.items()})
    m = len(prepared)
    chunk = chunk_subjects(hyper)
    preds = np.empty(m)
    loss = 0.0
    grads = {name: np.zeros_like(t.data) for name, t in params_t.items()} if want_grads else None
    for start in range(0, m, chunk):
        batch = stack_subjects(prepared[start:start + chunk], hyper)
        tape = Tape()
        objective, yhat = _chunk_objective(tape, batch, params_t, hyper, kind,
                                           len(batch.target.data) / m, lam if start == 0 else 0.0)
        preds[start:start + chunk] = yhat.data[:, 0]
        loss += float(objective.data)
        if want_grads:
            backward(tape, objective)
            for name, t in params_t.items():
                grads[name] += t.grad
    return loss, grads, preds


def loss(batch: list[SubjectRecord], params: dict[str, np.ndarray], hyper: HyperParams,
         kind: str = MODEL_LEGNET) -> float:
    """Training objective on a batch: (1/M) sum (yhat - y)^2 + lam * R."""
    prepared = prepare_dataset(batch, kind)
    value, _, _ = batch_loss_and_grads(prepared, as_tensors(params), hyper, kind,
                                       lam=hyper.lam, want_grads=False)
    return value


def single_tape_batch_loss(tape: Tape, prepared: list[PreparedSubject],
                           params_t: dict[str, Tensor], hyper: HyperParams,
                           kind: str, lam: float) -> Tensor:
    """The whole objective as one tape node graph, one forward per subject:
    the per-subject reference that batch_loss_and_grads is tested against."""
    forward = FORWARDS[kind]
    total = None
    for subj in prepared:
        sq = tape.mse(forward(tape, subj, params_t, hyper), subj.target)
        total = sq if total is None else tape.add(total, sq)
    out = tape.scale(total, 1.0 / len(prepared))
    if lam != 0.0:
        out = tape.add(out, _ridge(tape, params_t, lam))
    return out


# ----------------------------------------------------------------------
# gradient checks
# ----------------------------------------------------------------------


def _random_subject(rng, n: int) -> SubjectRecord:
    from .connectome import LesionEncoding, correlation_matrix, exponentiate

    x = exponentiate(correlation_matrix(rng.normal(size=(n, 3 * n))))
    p = np.clip(rng.uniform(-0.2, 1.4, size=n), 0.0, 1.0)
    return SubjectRecord(id="gradcheck", x=x, lesion=LesionEncoding(p=p),
                         y=float(rng.uniform(20, 90)))


def run_gradient_checks(module: str = "all", seed: int = 0,
                        hyper: HyperParams | None = None,
                        step: float = 1e-5) -> dict[str, float]:
    """Max relative error of tape gradients vs central differences, per stage.

    Instances are seeded random, sized by `hyper` (default: 6 ROIs with a
    scaled-down k=3). `module` picks one of e2e, e2n, subgraph, head, loss
    (LEGNet's full objective), loss-braingnn-dagger, loss-bnc-mask,
    loss-bnc-2channel, or all. The full objectives run a 2-subject batch as
    one tape through the chunk objective that batch_loss_and_grads uses.
    """
    from .diffmath import gradient_check

    if hyper is None:
        hyper = HyperParams(n_rois=6, k=3)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, k = hyper.n_rois, hyper.k
    d0, d1, d2, d3 = hyper.d0, hyper.d1, hyper.d2, hyper.d3
    record = _random_subject(rng, n)
    x_const = Tensor(record.x, requires_grad=False)
    pcol_const = Tensor(record.lesion.p[:, None], requires_grad=False)

    checks: dict[str, float] = {}

    def check(name, build, inputs):
        if module in ("all", name):
            checks[name] = gradient_check(build, inputs, step=step)

    check("e2e", lambda tape, ts: tape.l2_norm_sq(edge_to_edge(tape, x_const, ts[0], ts[1])),
          [rng.uniform(-1, 1, size=(n, d0)), rng.uniform(-1, 1, size=(n, d0))])
    h_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, n, d0)), requires_grad=False)
    check("e2n", lambda tape, ts: tape.l2_norm_sq(edge_to_node(tape, h_fixed, ts[0], ts[1])),
          [rng.uniform(-1, 1, size=(n, d1, d0)), rng.uniform(-1, 1, size=(d1,))])
    h1_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, d1)), requires_grad=False)

    def build_subgraph(tape, ts):
        s = assignment_scores(tape, pcol_const, ts[0])
        w = subgraph_filters(tape, s, ts[1], ts[2], d2)
        return tape.l2_norm_sq(subgraph_conv(tape, h1_fixed, w))

    check("subgraph", build_subgraph,
          [rng.uniform(-1, 1, size=(k, n)), rng.uniform(-1, 1, size=(d2 * d1, k)),
           rng.uniform(-1, 1, size=(d2 * d1,))])
    h2_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, d2)), requires_grad=False)
    check("head", lambda tape, ts: tape.l2_norm_sq(predict_head(tape, h2_fixed, *ts)),
          [rng.uniform(-1, 1, size=(d3, n * d2)), rng.uniform(-1, 1, size=(d3,)),
           rng.uniform(-1, 1, size=(1, d3)), rng.uniform(-1, 1, size=(1,))])
    records = [record, _random_subject(rng, n)]
    for kind in MODEL_KINDS:
        names = [row[0] for row in param_spec(kind, hyper)]
        init = init_params(kind, hyper, seed=seed + 1)
        batch = stack_subjects(prepare_dataset(records, kind), hyper)

        def build_loss(tape, ts, kind=kind, names=names, batch=batch):
            params_t = dict(zip(names, ts))
            return _chunk_objective(tape, batch, params_t, hyper, kind, 1.0, hyper.lam)[0]

        check("loss" if kind == MODEL_LEGNET else f"loss-{kind}", build_loss,
              [init[name] for name in names])
    if not checks:
        raise InputError(f"unknown gradcheck module {module!r}")
    return checks


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


def save_checkpoint(path, kind: str, hyper: HyperParams,
                    params: dict[str, np.ndarray]) -> None:
    """Binary checkpoint: LEGP header (json: kind, hyper, tensor table)
    followed by float64 tensor data in table order. Byte-stable."""
    names = sorted(params)
    header = json.dumps(
        {
            "model": kind,
            "hyper": asdict(hyper),
            "tensors": [[name, list(params[name].shape)] for name in names],
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(params[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[str, HyperParams, dict[str, np.ndarray]]:
    """Read a checkpoint. A file that is cut, overlong or not UTF-8 JSON, or
    whose tensor table is not its kind's `param_spec`, is an InputError."""
    reader = _ExactReader(path, "checkpoint")
    magic = bytes(reader.take(4))
    if magic != _CHECKPOINT_MAGIC:
        raise InputError(f"not a checkpoint file (magic {magic!r})")
    version, header_len = reader.unpack("<II")
    if version != _CHECKPOINT_VERSION:
        raise InputError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(bytes(reader.take(header_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"checkpoint header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"model", "hyper", "tensors"}:
        raise InputError("checkpoint header must hold exactly model, hyper and tensors")
    kind, hyper_fields = header["model"], header["hyper"]
    if kind not in MODEL_KINDS:
        raise InputError(f"unknown model kind {kind!r} in checkpoint")
    names = sorted(f.name for f in fields(HyperParams))
    if not isinstance(hyper_fields, dict) or sorted(hyper_fields) != names:
        raise InputError(f"checkpoint hyperparameters must be exactly {names}")
    hyper = HyperParams(**hyper_fields)
    hyper.validate()
    try:
        shapes = {name: tuple(shape) for name, shape in header["tensors"]}
    except (TypeError, ValueError):
        raise InputError("checkpoint tensor table must be a list of [name, shape]") from None
    if len(shapes) != len(header["tensors"]):
        raise InputError("checkpoint tensor table names a tensor twice")
    check_params(kind, hyper, shapes)
    if list(shapes) != sorted(shapes):
        raise InputError("checkpoint tensor table is not in name order")
    params: dict[str, np.ndarray] = {}
    for name, shape, *_ in sorted(param_spec(kind, hyper)):
        params[name] = reader.array("<f8", math.prod(shape)).astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(params[name])):
            raise InputError(f"checkpoint tensor {name} has non-finite entries")
    reader.finish()
    return kind, hyper, params
