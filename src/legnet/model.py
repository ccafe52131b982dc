"""Lesion-aware edge-based graph network and the in-scope baselines.

The network runs on a dense connectivity matrix X (one edge feature per ROI
pair) and a per-ROI lesion encoding p. Stages:

  1. edge_to_edge: convolve edge features over rows/columns sharing an
     end-node (per-node filters r_n, c_n).
  2. edge_to_node: aggregate each node's incident edge features (filters g_n).
  3. assignment_scores: softmax subgraph memberships driven by the lesion
     encoding (theta1 acting on the diagonal lesion matrix).
  4. subgraph_filters + subgraph_conv: lesion-parameterized node update
     (theta2, b2 mapping memberships to per-node filters W_j).
  5. predict_head: two-layer dense head to the scalar score.

The neighborhood is the complete node set including self. All stages are
expressed with tape primitives so the training loss is differentiable
end-to-end. Baselines: a subgraph-only variant that ignores lesions
("braingnn-dagger"), and two edge-convolution variants without subgraph
learning ("bnc-mask", "bnc-2channel").
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .connectome import InputError, SubjectRecord
from .diffmath import Tape, Tensor, backward

MODEL_LEGNET = "legnet"
MODEL_BRAINGNN_DAGGER = "braingnn-dagger"
MODEL_BNC_MASK = "bnc-mask"
MODEL_BNC_2CHANNEL = "bnc-2channel"
MODEL_KINDS = (MODEL_LEGNET, MODEL_BRAINGNN_DAGGER, MODEL_BNC_MASK, MODEL_BNC_2CHANNEL)

BNC_MASK_THRESHOLD = 0.3  # spared fraction below which bnc-mask drops an ROI

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
            if getattr(self, name) < 1:
                raise InputError(f"hyperparameter {name} must be positive")
        if self.lam < 0:
            raise InputError("lam must be nonnegative")


def param_spec(kind: str, hyper: HyperParams) -> list[tuple[str, tuple[int, ...], int, int]]:
    """Ordered (name, shape, fan_in, fan_out) table for one model kind."""
    n, k = hyper.n_rois, hyper.k
    d0, d1, d2, d3 = hyper.d0, hyper.d1, hyper.d2, hyper.d3

    def head(in_dim: int):
        return [
            ("head_w1", (d3, in_dim), in_dim, d3),
            ("head_b1", (d3,), d3, d3),
            ("head_w2", (1, d3), d3, 1),
            ("head_b2", (1,), 1, 1),
        ]

    edge = [
        ("r", (n, d0), n, d0),
        ("c", (n, d0), n, d0),
    ]
    node_agg = [
        ("g", (n, d1, d0), n * d0, d1),
        ("b1", (d1,), d1, d1),
    ]
    subgraph = [
        ("theta1", (k, n), n, k),
        ("theta2", (d2 * d1, k), k, d2 * d1),
        ("b2", (d2 * d1,), d2 * d1, d2 * d1),
    ]

    if kind == MODEL_LEGNET:
        return edge + node_agg + subgraph + head(n * d2)
    if kind == MODEL_BRAINGNN_DAGGER:
        return [
            ("node_w", (d1, n), n, d1),
            ("node_b", (d1,), d1, d1),
        ] + subgraph + head(n * d2)
    if kind == MODEL_BNC_MASK:
        return edge + node_agg + head(n * d1)
    if kind == MODEL_BNC_2CHANNEL:
        return edge + [
            ("r2", (n, d0), n, d0),
            ("c2", (n, d0), n, d0),
        ] + node_agg + head(n * d1)
    raise InputError(f"unknown model kind {kind!r}")


# tensors covered by the ridge term; heads are not regularized
REG_KEYS = {
    MODEL_LEGNET: ("theta1", "theta2", "b1", "b2", "r", "c", "g"),
    MODEL_BRAINGNN_DAGGER: ("theta1", "theta2", "b2", "node_w", "node_b"),
    MODEL_BNC_MASK: ("r", "c", "g", "b1"),
    MODEL_BNC_2CHANNEL: ("r", "c", "r2", "c2", "g", "b1"),
}


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


def edge_to_edge(tape: Tape, x: Tensor, r: Tensor, c: Tensor) -> Tensor:
    """H_ij = relu(sum_n r_n X_in + sum_n c_n X_nj), shape (N, N, d0)."""
    n, d0 = r.shape
    if x.shape != (n, n) or c.shape != (n, d0):
        raise InputError(f"edge_to_edge shapes disagree: X {x.shape}, r {r.shape}, c {c.shape}")
    row = tape.matmul(x, r)
    col = tape.matmul(tape.transpose(x, (1, 0)), c)
    return _edge_relu(tape, row, col)


def _edge_relu(tape: Tape, row: Tensor, col: Tensor) -> Tensor:
    """H_ij = relu(row_i + col_j) from per-node row/column terms (N, d0)."""
    n, d0 = row.shape
    return tape.relu(tape.add(tape.reshape(row, (n, 1, d0)), tape.reshape(col, (1, n, d0))))


def edge_to_node(tape: Tape, h: Tensor, g: Tensor, b1: Tensor) -> Tensor:
    """h1_i = relu(sum_n g_n H_in + b1), shape (N, d1)."""
    n, n2, d0 = h.shape
    if n != n2 or g.shape[0] != n or g.shape[2] != d0 or b1.shape != (g.shape[1],):
        raise InputError(f"edge_to_node shapes disagree: H {h.shape}, g {g.shape}, b1 {b1.shape}")
    d1 = g.shape[1]
    hr = tape.reshape(h, (n, n * d0))
    gr = tape.reshape(tape.transpose(g, (0, 2, 1)), (n * d0, d1))
    return tape.relu(tape.add(tape.matmul(hr, gr), b1))


def assignment_scores(tape: Tape, pcol: Tensor, theta1: Tensor) -> Tensor:
    """Row j = softmax(p_j * theta1[:, j]): subgraph membership per node."""
    k, n = theta1.shape
    if pcol.shape != (n, 1):
        raise InputError(f"lesion column {pcol.shape} does not match theta1 {theta1.shape}")
    logits = tape.mul(tape.transpose(theta1, (1, 0)), pcol)
    return tape.softmax_lastaxis(logits)


def subgraph_filters(tape: Tape, s: Tensor, theta2: Tensor, b2: Tensor, d2: int) -> Tensor:
    """W_j with vec(W_j) = theta2 S_j + b2 (column-major vec), shape (N, d2, d1)."""
    n, k = s.shape
    dd, k2 = theta2.shape
    if k != k2 or b2.shape != (dd,) or dd % d2:
        raise InputError(f"subgraph_filters shapes disagree: S {s.shape}, theta2 {theta2.shape}")
    d1 = dd // d2
    flat = tape.add(tape.matmul(s, tape.transpose(theta2, (1, 0))), b2)
    return tape.transpose(tape.reshape(flat, (n, d1, d2)), (0, 2, 1))


def subgraph_conv(tape: Tape, h1: Tensor, w: Tensor) -> Tensor:
    """h2_i = relu(sum_j W_j h1_j), shape (N, d2).

    With the complete-graph neighborhood the inner sum is the same for every
    i; the per-node output layout is kept anyway.
    """
    n, d1 = h1.shape
    if w.shape[0] != n or w.shape[2] != d1:
        raise InputError(f"subgraph_conv shapes disagree: h1 {h1.shape}, W {w.shape}")
    d2 = w.shape[1]
    wc = tape.reshape(tape.transpose(w, (1, 0, 2)), (d2, n * d1))
    pooled = tape.matmul(wc, tape.reshape(h1, (n * d1,)))
    ones = Tensor(np.ones((n, 1)), requires_grad=False)
    return tape.relu(tape.matmul(ones, tape.reshape(pooled, (1, d2))))


def predict_head(tape: Tape, features: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Flatten + dense(d3) + relu + dense(1); returns shape (1,)."""
    flat = tape.reshape(features, (int(np.prod(features.shape)),))
    if w1.shape[1] != flat.shape[0]:
        raise InputError(f"head expects {w1.shape[1]} features, got {flat.shape[0]}")
    hidden = tape.relu(tape.add(tape.matmul(w1, flat), b1))
    return tape.add(tape.matmul(w2, hidden), b2)


# ----------------------------------------------------------------------
# prepared subjects and full forwards
# ----------------------------------------------------------------------


@dataclass(eq=False)
class PreparedSubject:
    """Constant leaf tensors for one subject, reusable across tapes."""

    id: str
    y: float
    x: Tensor
    pcol: Tensor
    target: Tensor
    x_masked: Tensor | None = None
    lesion_channel: Tensor | None = None


def prepare_subject(record: SubjectRecord, kind: str) -> PreparedSubject:
    p = record.lesion.p
    prepared = PreparedSubject(
        id=record.id,
        y=float(record.y),
        x=Tensor(record.x, requires_grad=False),
        pcol=Tensor(p[:, None], requires_grad=False),
        target=Tensor(np.array([float(record.y)]), requires_grad=False),
    )
    if kind == MODEL_BNC_MASK:
        keep = p >= BNC_MASK_THRESHOLD
        masked = record.x * np.outer(keep, keep)
        prepared.x_masked = Tensor(masked, requires_grad=False)
    elif kind == MODEL_BNC_2CHANNEL:
        prepared.lesion_channel = Tensor(np.outer(p, p), requires_grad=False)
    return prepared


def prepare_dataset(records: list[SubjectRecord], kind: str) -> list[PreparedSubject]:
    return [prepare_subject(r, kind) for r in records]


def legnet_forward(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor],
                   hyper: HyperParams) -> Tensor:
    h = edge_to_edge(tape, subj.x, params["r"], params["c"])
    h1 = edge_to_node(tape, h, params["g"], params["b1"])
    s = assignment_scores(tape, subj.pcol, params["theta1"])
    w = subgraph_filters(tape, s, params["theta2"], params["b2"], hyper.d2)
    h2 = subgraph_conv(tape, h1, w)
    return predict_head(tape, h2, params["head_w1"], params["head_b1"],
                        params["head_w2"], params["head_b2"])


def braingnn_dagger_forward(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor],
                            hyper: HyperParams) -> Tensor:
    """Subgraph pathway only: linear per-row node embedding of X, no edge
    convolution, and assignment scores that ignore the lesion (p == 1)."""
    h1 = tape.relu(tape.add(tape.matmul(subj.x, tape.transpose(params["node_w"], (1, 0))),
                            params["node_b"]))
    s = tape.softmax_lastaxis(tape.transpose(params["theta1"], (1, 0)))
    w = subgraph_filters(tape, s, params["theta2"], params["b2"], hyper.d2)
    h2 = subgraph_conv(tape, h1, w)
    return predict_head(tape, h2, params["head_w1"], params["head_b1"],
                        params["head_w2"], params["head_b2"])


def bnc_mask_forward(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor],
                     hyper: HyperParams) -> Tensor:
    """Edge convolution on X with rows/columns of badly damaged ROIs
    (p < 0.3) zeroed out; no subgraph module."""
    h = edge_to_edge(tape, subj.x_masked, params["r"], params["c"])
    h1 = edge_to_node(tape, h, params["g"], params["b1"])
    return predict_head(tape, h1, params["head_w1"], params["head_b1"],
                        params["head_w2"], params["head_b2"])


def bnc_2channel_forward(tape: Tape, subj: PreparedSubject, params: dict[str, Tensor],
                         hyper: HyperParams) -> Tensor:
    """Two-channel edge convolution: X plus the rank-one lesion channel
    B_ij = p_i p_j, filters summed over channels; no subgraph module."""
    row = tape.add(tape.matmul(subj.x, params["r"]),
                   tape.matmul(subj.lesion_channel, params["r2"]))
    col = tape.add(tape.matmul(tape.transpose(subj.x, (1, 0)), params["c"]),
                   tape.matmul(tape.transpose(subj.lesion_channel, (1, 0)), params["c2"]))
    h = _edge_relu(tape, row, col)
    h1 = edge_to_node(tape, h, params["g"], params["b1"])
    return predict_head(tape, h1, params["head_w1"], params["head_b1"],
                        params["head_w2"], params["head_b2"])


FORWARDS = {
    MODEL_LEGNET: legnet_forward,
    MODEL_BRAINGNN_DAGGER: braingnn_dagger_forward,
    MODEL_BNC_MASK: bnc_mask_forward,
    MODEL_BNC_2CHANNEL: bnc_2channel_forward,
}


def as_tensors(params: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Tensor]:
    """Wrap parameter arrays as leaves. Arrays are shared, not copied, so
    in-place optimizer updates stay visible."""
    return {name: Tensor(arr, requires_grad=requires_grad) for name, arr in params.items()}


def predict(record: SubjectRecord, params: dict[str, np.ndarray], hyper: HyperParams,
            kind: str = MODEL_LEGNET) -> float:
    subj = prepare_subject(record, kind)
    out = FORWARDS[kind](Tape(), subj, as_tensors(params, requires_grad=False), hyper)
    return float(out.data[0])


def regularizer_grads(params_t: dict[str, Tensor], kind: str,
                      lam: float) -> tuple[float, dict[str, np.ndarray]]:
    """Value and gradients of lam * sum of squared regularized tensors."""
    tape = Tape()
    total = None
    for name in REG_KEYS[kind]:
        term = tape.l2_norm_sq(params_t[name])
        total = term if total is None else tape.add(total, term)
    reg = tape.scale(total, lam)
    backward(tape, reg)
    grads = {name: params_t[name].grad for name in REG_KEYS[kind]}
    return float(reg.data), grads


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
    the batch exactly as the loss is.
    """
    if not prepared:
        raise InputError("empty batch")
    forward = FORWARDS[kind]
    m = len(prepared)
    preds = np.empty(m)
    total_sq = 0.0
    grads = {name: np.zeros_like(t.data) for name, t in params_t.items()} if want_grads else None
    for i, subj in enumerate(prepared):
        tape = Tape()
        yhat = forward(tape, subj, params_t, hyper)
        preds[i] = float(yhat.data[0])
        sq = tape.mse(yhat, subj.target)
        total_sq += float(sq.data)
        if want_grads:
            backward(tape, sq)
            for name, t in params_t.items():
                if t.grad is not None:
                    grads[name] += t.grad
    loss = total_sq / m
    if want_grads:
        for name in grads:
            grads[name] /= m
    if lam != 0.0:
        reg_val, reg_grads = regularizer_grads(params_t, kind, lam)
        loss += reg_val
        if want_grads:
            for name, g in reg_grads.items():
                grads[name] += g
    return loss, grads, preds


def loss(batch: list[SubjectRecord], params: dict[str, np.ndarray], hyper: HyperParams,
         kind: str = MODEL_LEGNET) -> float:
    """Training objective on a batch: (1/M) sum (yhat - y)^2 + lam * R."""
    if not batch:
        raise InputError("empty batch")
    prepared = prepare_dataset(batch, kind)
    value, _, _ = batch_loss_and_grads(prepared, as_tensors(params), hyper, kind,
                                       lam=hyper.lam, want_grads=False)
    return value


def single_tape_batch_loss(tape: Tape, prepared: list[PreparedSubject],
                           params_t: dict[str, Tensor], hyper: HyperParams,
                           kind: str, lam: float) -> Tensor:
    """The whole objective as one tape node graph (used by gradient checks)."""
    forward = FORWARDS[kind]
    total = None
    for subj in prepared:
        sq = tape.mse(forward(tape, subj, params_t, hyper), subj.target)
        total = sq if total is None else tape.add(total, sq)
    out = tape.scale(total, 1.0 / len(prepared))
    if lam != 0.0:
        reg = None
        for name in REG_KEYS[kind]:
            term = tape.l2_norm_sq(params_t[name])
            reg = term if reg is None else tape.add(reg, term)
        out = tape.add(out, tape.scale(reg, lam))
    return out


# ----------------------------------------------------------------------
# gradient checks
# ----------------------------------------------------------------------


def _random_subject(rng, n: int) -> SubjectRecord:
    from .connectome import LesionEncoding, RoiTimeSeries, correlation_matrix, exponentiate

    ts = RoiTimeSeries(series=rng.normal(size=(n, 3 * n)))
    x = exponentiate(correlation_matrix(ts))
    p = np.clip(rng.uniform(-0.2, 1.4, size=n), 0.0, 1.0)
    return SubjectRecord(id="gradcheck", x=x, lesion=LesionEncoding(p=p),
                         y=float(rng.uniform(20, 90)))


def run_gradient_checks(module: str = "all", seed: int = 0,
                        hyper: HyperParams | None = None,
                        step: float = 1e-5) -> dict[str, float]:
    """Max relative error of tape gradients vs central differences, per stage.

    Instances are seeded random, sized by `hyper` (default: 6 ROIs with a
    scaled-down k=3). `module` picks one of e2e, e2n, subgraph, head, loss,
    or all.
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

    check(
        "e2e",
        lambda tape, ts: tape.l2_norm_sq(edge_to_edge(tape, x_const, ts[0], ts[1])),
        [rng.uniform(-1, 1, size=(n, d0)), rng.uniform(-1, 1, size=(n, d0))],
    )
    h_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, n, d0)), requires_grad=False)
    check(
        "e2n",
        lambda tape, ts: tape.l2_norm_sq(edge_to_node(tape, h_fixed, ts[0], ts[1])),
        [rng.uniform(-1, 1, size=(n, d1, d0)), rng.uniform(-1, 1, size=(d1,))],
    )
    h1_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, d1)), requires_grad=False)

    def build_subgraph(tape, ts):
        s = assignment_scores(tape, pcol_const, ts[0])
        w = subgraph_filters(tape, s, ts[1], ts[2], d2)
        return tape.l2_norm_sq(subgraph_conv(tape, h1_fixed, w))

    check(
        "subgraph",
        build_subgraph,
        [rng.uniform(-1, 1, size=(k, n)), rng.uniform(-1, 1, size=(d2 * d1, k)),
         rng.uniform(-1, 1, size=(d2 * d1,))],
    )
    h2_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, d2)), requires_grad=False)
    check(
        "head",
        lambda tape, ts: tape.l2_norm_sq(
            predict_head(tape, h2_fixed, ts[0], ts[1], ts[2], ts[3])),
        [rng.uniform(-1, 1, size=(d3, n * d2)), rng.uniform(-1, 1, size=(d3,)),
         rng.uniform(-1, 1, size=(1, d3)), rng.uniform(-1, 1, size=(1,))],
    )
    if module in ("all", "loss"):
        spec = param_spec(MODEL_LEGNET, hyper)
        names = [name for name, *_ in spec]
        arrays = [init_params(MODEL_LEGNET, hyper, seed=seed + 1)[name] for name in names]
        prepared = [prepare_subject(record, MODEL_LEGNET)]

        def build_loss(tape, ts):
            params_t = dict(zip(names, ts))
            return single_tape_batch_loss(tape, prepared, params_t, hyper,
                                          MODEL_LEGNET, lam=hyper.lam)

        checks["loss"] = gradient_check(build_loss, arrays, step=step)
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
            "hyper": {
                "n_rois": hyper.n_rois, "k": hyper.k, "d0": hyper.d0, "d1": hyper.d1,
                "d2": hyper.d2, "d3": hyper.d3, "lam": hyper.lam,
            },
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
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHECKPOINT_MAGIC:
            raise InputError(f"not a checkpoint file (magic {magic!r})")
        version, header_len = struct.unpack("<II", fh.read(8))
        if version != _CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        params: dict[str, np.ndarray] = {}
        for name, shape in header["tensors"]:
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(np.float64)
            params[name] = data.reshape(shape)
        if fh.read(1):
            raise InputError("trailing bytes in checkpoint")
    hyper = HyperParams(**header["hyper"])
    return header["model"], hyper, params
