import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from legnet.connectome import (
    InputError,
    LesionEncoding,
    SubjectRecord,
    check_seed,
    correlation_matrix,
    exponentiate,
)
from legnet import diffmath, model
from legnet.diffmath import (
    MMAP_THRESHOLD,
    TRIM_THRESHOLD,
    Tape,
    Tensor,
    backward,
)
from legnet.model import (
    FORWARDS,
    MODEL_BNC_2CHANNEL,
    MODEL_BNC_MASK,
    MODEL_BRAINGNN_DAGGER,
    MODEL_KINDS,
    MODEL_LEGNET,
    HyperParams,
    ModelKind,
    as_tensors,
    assignment_scores,
    batch_loss_and_grads,
    chunk_subjects,
    edge_to_node,
    init_params,
    load_checkpoint,
    param_spec,
    predict,
    predict_head,
    prepare_dataset,
    prepare_subject,
    save_checkpoint,
    single_tape_batch_loss,
    stack_subjects,
    subgraph_conv,
    subgraph_filters,
)

from gradcheck import gradient_check


# ----------------------------------------------------------------------
# naive loop oracles, written independently from the tape implementation
# ----------------------------------------------------------------------


def oracle_edge_to_edge(x, r, c):
    n, d0 = r.shape
    h = np.zeros((n, n, d0))
    for i in range(n):
        for j in range(n):
            acc = np.zeros(d0)
            for m in range(n):
                acc = acc + r[m] * x[i, m]
            for m in range(n):
                acc = acc + c[m] * x[m, j]
            h[i, j] = np.maximum(acc, 0.0)
    return h


def oracle_edge_to_node(h, g, b1):
    n = h.shape[0]
    out = np.zeros((n, g.shape[1]))
    for i in range(n):
        acc = b1.copy()
        for m in range(n):
            acc = acc + g[m] @ h[i, m]
        out[i] = np.maximum(acc, 0.0)
    return out


def oracle_scores(p, theta1):
    k, n = theta1.shape
    s = np.zeros((n, k))
    for j in range(n):
        v = p[j] * theta1[:, j]
        e = np.exp(v - v.max())
        s[j] = e / e.sum()
    return s


def oracle_filters(s, theta2, b2, d2):
    n = s.shape[0]
    d1 = theta2.shape[0] // d2
    w = np.zeros((n, d2, d1))
    for j in range(n):
        vec = theta2 @ s[j] + b2
        for col in range(d1):          # column-major stacking of the d2 x d1 matrix
            for row in range(d2):
                w[j, row, col] = vec[col * d2 + row]
    return w


def vec_rows(w):
    """Row j = vec(W_j), column-major: the layout subgraph_filters writes."""
    return w.transpose(0, 2, 1).reshape(len(w), -1)


def oracle_conv(h1, w):
    n = h1.shape[0]
    pooled = np.zeros(w.shape[1])
    for j in range(n):
        pooled = pooled + w[j] @ h1[j]
    return np.maximum(np.tile(pooled, (n, 1)), 0.0)


def oracle_head(h2, w1, b1, w2, b2):
    hidden = np.maximum(w1 @ h2.reshape(-1) + b1, 0.0)
    return float((w2 @ hidden + b2)[0])


def random_subject(rng, n):
    ts = rng.normal(size=(n, 3 * n))
    x = exponentiate(correlation_matrix(ts))
    p = np.clip(rng.uniform(-0.3, 1.5, size=n), 0.0, 1.0)
    return SubjectRecord(id="t", x=x, lesion=LesionEncoding(p=p), y=float(rng.uniform(0, 100)))


def assert_rel_close(a, b, rtol, what):
    """max |a - b| <= rtol * max(|a|, |b|), over all entries."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    assert np.max(np.abs(a - b)) <= rtol * scale, what


def loss(records, params, hyper, kind=MODEL_LEGNET):
    """The training objective on a batch, with the ridge weight hyper.lam."""
    return batch_loss_and_grads(prepare_dataset(records, kind), as_tensors(params), hyper,
                                kind, hyper.lam, want_grads=False)[0]


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=float), **kw)


def edge_stage(tape, x, r, c, g, b1):
    """The edge module on a constant X: row terms X r, column terms X^T c,
    then edge_to_node."""
    subj = model.PreparedSubject(("t",), t(x, requires_grad=False), None, None)
    return model._edge_module(tape, subj, {"r": t(r), "c": t(c), "g": t(g), "b1": t(b1)})


class TestEdgeToNode:
    def test_single_node_reduction(self):
        out = edge_stage(Tape(), [[math.e]], [[0.7]], [[0.2]], [[[1.5]]], [0.0])
        assert out.data[0, 0] == pytest.approx(1.5 * (0.7 + 0.2) * math.e)

    def test_zero_edge_filters_give_the_bias(self):
        rng = np.random.default_rng(0)
        b1 = np.array([1.0, -2.0, 0.5])
        out = edge_stage(Tape(), rng.uniform(0.5, 2.5, (4, 4)), np.zeros((4, 2)),
                         np.zeros((4, 2)), rng.uniform(-1, 1, (4, 3, 2)), b1)
        assert np.array_equal(out.data, np.tile(np.maximum(b1, 0.0), (4, 1)))

    def test_zero_node_filters_give_the_bias(self):
        rng = np.random.default_rng(1)
        b1 = np.array([1.0, -2.0, 0.5])
        out = edge_stage(Tape(), rng.uniform(0.5, 2.5, (3, 3)), rng.uniform(-1, 1, (3, 2)),
                         rng.uniform(-1, 1, (3, 2)), np.zeros((3, 3, 2)), b1)
        assert np.array_equal(out.data, np.tile(np.maximum(b1, 0.0), (3, 1)))

    def test_single_node(self):
        row, col = np.array([[0.3, -0.5]]), np.array([[0.1, 0.2]])
        g = np.array([[[0.5, 1.0], [2.0, -1.0]]])
        b1 = np.array([0.1, 0.2])
        out = edge_to_node(Tape(), t(row), t(col), t(g), t(b1))
        h = np.maximum(row[0] + col[0], 0.0)  # [0.4, 0]: the second entry is cut
        assert np.allclose(out.data[0], np.maximum(g[0] @ h + b1, 0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (4, 4))
        r, c = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))
        g, b1 = rng.uniform(-1, 1, (4, 2, 3)), rng.uniform(-1, 1, 2)
        out = edge_stage(Tape(), x, r, c, g, b1)
        expected = oracle_edge_to_node(oracle_edge_to_edge(x, r, c), g, b1)
        assert np.allclose(out.data, expected, atol=1e-12)


class TestEdgeTile:
    """The [I I ... I] constant that `outer_add_relu_matmul` builds H with."""

    def test_is_a_read_only_constant(self):
        tile = diffmath._eye_tile(5, 3)
        assert np.array_equal(tile, np.tile(np.eye(3), 5))
        with pytest.raises(ValueError):
            tile[0, 0] = 2.0

    def test_one_constant_per_shape(self):
        assert diffmath._eye_tile(5, 3) is diffmath._eye_tile(5, 3)
        assert diffmath._eye_tile(5, 3) is not diffmath._eye_tile(6, 3)
        assert diffmath._eye_tile(5, 3).shape == (3, 15)
        assert diffmath._eye_tile(6, 3).shape == (3, 18)
        assert diffmath._eye_tile(5, 2).shape == (2, 10)

    def test_predictions_unchanged_across_roi_counts(self):
        rng = np.random.default_rng(4)
        sizes = list(range(3, 15))  # more shapes than the cache holds
        cases = {}
        for n in sizes:
            hyper = HyperParams(n_rois=n)
            cases[n] = (random_subject(rng, n), hyper,
                        {kind: init_params(kind, hyper, n) for kind in MODEL_KINDS})

        def predictions(order):
            return {(n, kind): predict(rec, params[kind], hyper, kind)
                    for n in order for rec, hyper, params in [cases[n]] for kind in MODEL_KINDS}

        first = predictions(sizes)
        assert predictions(sizes[::-1]) == first
        assert predictions(sizes[::2] + sizes[1::2]) == first


class TestAssignmentScores:
    def test_fully_lesioned_node_is_uniform(self):
        theta1 = np.random.default_rng(2).uniform(-3, 3, (4, 3))
        p = np.array([0.0, 0.5, 1.0])
        s = assignment_scores(Tape(), t(p[:, None], requires_grad=False), t(theta1))
        assert np.allclose(s.data[0], 0.25, atol=1e-15)

    def test_k_equal_one_gives_all_ones(self):
        theta1 = np.array([[0.3, -2.0]])
        s = assignment_scores(Tape(), t(np.ones((2, 1)), requires_grad=False), t(theta1))
        assert np.allclose(s.data, 1.0)

    def test_hand_softmax(self):
        # column [ln 2, ln 1] with p = 1 gives [2/3, 1/3]
        theta1 = np.array([[math.log(2.0)], [0.0]])
        s = assignment_scores(Tape(), t(np.ones((1, 1)), requires_grad=False), t(theta1))
        assert np.allclose(s.data[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        theta1 = rng.uniform(-5, 5, (6, 9))
        p = np.clip(rng.uniform(-0.2, 1.2, 9), 0, 1)
        s = assignment_scores(Tape(), t(p[:, None], requires_grad=False), t(theta1))
        assert np.all(s.data >= 0.0)
        assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-12)


class TestSubgraphFilters:
    def test_bias_only(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(size=(3, 2))
        b2 = rng.uniform(-1, 1, 6)
        w = subgraph_filters(Tape(), t(s), t(np.zeros((6, 2))), t(b2))
        expected = vec_rows(oracle_filters(s, np.zeros((6, 2)), b2, 2))
        assert np.allclose(w.data, expected)
        assert np.allclose(w.data[0], w.data[1])

    def test_single_subgraph(self):
        theta2 = np.random.default_rng(5).uniform(-1, 1, (4, 1))
        b2 = np.array([0.1, 0.2, 0.3, 0.4])
        w = subgraph_filters(Tape(), t(np.ones((2, 1))), t(theta2), t(b2))
        assert np.allclose(w.data, vec_rows(oracle_filters(np.ones((2, 1)), theta2, b2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        s = rng.uniform(size=(5, 3))
        s /= s.sum(axis=1, keepdims=True)
        theta2 = rng.uniform(-1, 1, (8, 3))
        b2 = rng.uniform(-1, 1, 8)
        w = subgraph_filters(Tape(), t(s), t(theta2), t(b2))
        assert np.allclose(w.data, vec_rows(oracle_filters(s, theta2, b2, 2)), atol=1e-12)


class TestSubgraphConv:
    def test_zero_filters(self):
        out = subgraph_conv(Tape(), t(np.ones((3, 4))), t(vec_rows(np.zeros((3, 2, 4)))))
        assert np.all(out.data == 0.0)

    def test_single_node(self):
        h1 = np.array([[1.0, -1.0]])
        w = np.array([[[0.5, 0.25], [2.0, 1.0]]])
        out = subgraph_conv(Tape(), t(h1), t(vec_rows(w)))
        assert np.allclose(out.data[0], np.maximum(w[0] @ h1[0], 0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(30 + seed)
        h1 = rng.uniform(-1, 1, (4, 3))
        w = rng.uniform(-1, 1, (4, 2, 3))
        out = subgraph_conv(Tape(), t(h1), t(vec_rows(w)))
        assert np.allclose(out.data, oracle_conv(h1, w), atol=1e-12)

    def test_unbatched_v_equals_v_broadcast_to_the_batch_as_bytes(self):
        # braingnn-dagger's V is one (N, d1 d2) tensor that the batch shares
        rng = np.random.default_rng(35)
        h1, v = rng.uniform(-1, 1, (3, 4, 3)), rng.uniform(-1, 1, (4, 6))
        target = rng.uniform(0, 1, (3, 4, 2))
        runs = []
        for v_in in (v, np.broadcast_to(v, (3, 4, 6)).copy()):
            tape, th1, tv = Tape(), t(h1), t(v_in)
            out = subgraph_conv(tape, th1, tv)
            sq = tape.l2_norm_sq(tape.add(out, t(-target, requires_grad=False)))
            backward(tape, tape.mul(sq, t(1.0 / target.size, requires_grad=False)))
            runs.append((out.data, th1.grad, tv.grad))
        (out, gh1, gv), (out_b, gh1_b, gv_b) = runs
        assert out.tobytes() == out_b.tobytes() and gh1.tobytes() == gh1_b.tobytes()
        assert gv.tobytes() == gv_b.sum(axis=0).tobytes()


class TestPredictHead:
    # the head reads a batch: one subject's (N, d) features are a (1, N, d) batch
    def test_bias_passthrough(self):
        out = predict_head(Tape(), t(np.zeros((1, 3, 2))), t(np.zeros((4, 6))),
                           t(np.zeros(4)), t(np.zeros((1, 4))), t([50.0]))
        assert out.data[0, 0] == 50.0

    def test_zero_features(self):
        rng = np.random.default_rng(6)
        w1, b1 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 4)
        w2, b2 = rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1)
        out = predict_head(Tape(), t(np.zeros((1, 3, 2))), t(w1), t(b1), t(w2), t(b2))
        assert out.data[0, 0] == pytest.approx(float((w2 @ np.maximum(b1, 0.0) + b2)[0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_evaluation(self, seed):
        rng = np.random.default_rng(40 + seed)
        h2 = rng.uniform(-1, 1, (3, 2))
        w1, b1 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 4)
        w2, b2 = rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1)
        out = predict_head(Tape(), t(h2[None]), t(w1), t(b1), t(w2), t(b2))
        assert out.data[0, 0] == pytest.approx(oracle_head(h2, w1, b1, w2, b2), abs=1e-12)


def ones(*shape):
    return t(np.ones(shape))


class TestStageShapeChecks:
    @pytest.mark.parametrize("stage, call", [
        ("edge_to_node", lambda: edge_to_node(Tape(), ones(3, 2), ones(3, 2), ones(4, 5, 2),
                                              ones(5))),
        ("edge_to_node", lambda: edge_to_node(Tape(), ones(3, 2), ones(3, 2), ones(3, 5, 2),
                                              ones(4))),
        ("edge_to_node", lambda: edge_to_node(Tape(), ones(2, 3, 2), ones(3, 2), ones(3, 5, 2),
                                              ones(5))),
        ("lesion column", lambda: assignment_scores(Tape(), ones(4, 1), ones(2, 3))),
        ("subgraph_filters", lambda: subgraph_filters(Tape(), ones(3, 2), ones(6, 3), ones(6))),
        ("subgraph_conv", lambda: subgraph_conv(Tape(), ones(3, 4), ones(3, 6))),
        ("head expects", lambda: predict_head(Tape(), ones(3, 2), ones(4, 5), ones(4),
                                              ones(1, 4), ones(1))),
    ], ids=["edge_to_node-g", "edge_to_node-b1", "edge_to_node-col", "assignment_scores",
            "subgraph_filters", "subgraph_conv-width",
            "predict_head"])
    def test_stage_rejects_shapes_that_disagree(self, stage, call):
        with pytest.raises(InputError, match=stage):
            call()


class TestFullForward:
    def hyper(self, n):
        return HyperParams(n_rois=n, k=3, d0=2, d1=4, d2=2, d3=4)

    @pytest.mark.parametrize("kind, nodes", [(MODEL_LEGNET, 23), (MODEL_BRAINGNN_DAGGER, 19),
                                             (MODEL_BNC_MASK, 13), (MODEL_BNC_2CHANNEL, 19)])
    def test_forward_tape_node_count_is_pinned(self, kind, nodes):
        # a reshape or transpose round trip between stages shows here
        hyper = self.hyper(5)
        subj = prepare_subject(random_subject(np.random.default_rng(0), 5))
        tape = Tape()
        FORWARDS[kind](tape, subj, as_tensors(init_params(kind, hyper, 0)), hyper)
        assert len(tape.nodes) == nodes

    def test_prepare_subject_is_a_batch_of_one_viewing_the_record(self):
        rng = np.random.default_rng(0)
        first, second = random_subject(rng, 5), random_subject(rng, 5)
        subj = prepare_subject(first)
        assert subj.ids == ("t",)
        assert (subj.x.shape, subj.pcol.shape, subj.target.shape) == ((1, 5, 5), (1, 5, 1), (1, 1))
        assert np.shares_memory(subj.x.data, first.x)
        assert np.shares_memory(subj.pcol.data, first.lesion.p)
        assert subj.target.data[0, 0] == first.y
        second = dataclasses.replace(second, id="u")
        both = stack_subjects([subj, prepare_subject(second)], self.hyper(5))
        assert both.ids == ("t", "u") and both.x.shape == (2, 5, 5)
        assert np.array_equal(both.x.data[1], second.x)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_equals_a_one_subject_batch_as_bytes(self, kind):
        # one forward layout: predict runs the batch forward on a batch of one
        hyper = HyperParams(n_rois=12)
        rng = np.random.default_rng(21)
        params = init_params(kind, hyper, 7)
        for rec in [random_subject(rng, 12) for _ in range(3)]:
            preds = batch_loss_and_grads([prepare_subject(rec)], as_tensors(params), hyper,
                                         kind, hyper.lam, want_grads=False)[2]
            assert np.float64(predict(rec, params, hyper, kind)).tobytes() == preds.tobytes()

    def test_one_prepared_list_scores_every_kind_as_predict_does(self):
        # preparation is kind-free: one prepare_dataset list serves all kinds
        hyper = HyperParams(n_rois=12)
        rng = np.random.default_rng(22)
        records = [random_subject(rng, 12) for _ in range(3)]
        prepared = prepare_dataset(records, MODEL_LEGNET)
        for kind in MODEL_KINDS:
            params = init_params(kind, hyper, 7)
            preds = [batch_loss_and_grads([subj], as_tensors(params), hyper, kind, hyper.lam,
                                          want_grads=False)[2] for subj in prepared]
            want = [predict(rec, params, hyper, kind) for rec in records]
            assert np.concatenate(preds).tobytes() == np.array(want).tobytes(), kind

    # each stage perfbench's tracer patches, and the kinds whose forward reaches it
    STAGES = {
        "edge_to_node": {MODEL_LEGNET, MODEL_BNC_MASK, MODEL_BNC_2CHANNEL},
        "assignment_scores": {MODEL_LEGNET},
        "subgraph_filters": {MODEL_LEGNET, MODEL_BRAINGNN_DAGGER},
        "subgraph_conv": {MODEL_LEGNET, MODEL_BRAINGNN_DAGGER},
        "predict_head": set(MODEL_KINDS),
    }

    def test_every_stage_is_reached_through_the_model_module(self, monkeypatch):
        # the tracer times a stage by replacing model's attribute, and a kind
        # by replacing its FORWARDS entry: a forward that held the function
        # object would leave the stage's span at 0, and KINDS must keep the
        # rows param_spec reads
        expected = {**self.STAGES, **{f"forward.{kind}": {kind} for kind in MODEL_KINDS}}
        reached = {name: set() for name in expected}
        running = [None]

        def counting(name, stage):
            @functools.wraps(stage)
            def wrapper(*args):
                reached[name].add(running[0])
                return stage(*args)
            return wrapper

        for name in self.STAGES:
            monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
        for kind in MODEL_KINDS:
            monkeypatch.setitem(FORWARDS, kind, counting(f"forward.{kind}", FORWARDS[kind]))
        hyper = self.hyper(5)
        rec = random_subject(np.random.default_rng(3), 5)
        for kind in MODEL_KINDS:
            running[0] = kind
            params = init_params(kind, hyper, 0)
            predict(rec, params, hyper, kind)
            batch_loss_and_grads([prepare_subject(rec)], as_tensors(params), hyper, kind, 0.0)
            assert isinstance(model.KINDS[kind], ModelKind), kind
        assert reached == expected

    @pytest.mark.parametrize("subgraph", ["lesions", "", 1, ("lesion",)])
    def test_a_row_refuses_an_unknown_subgraph_choice(self, subgraph):
        # a misspelt choice once built a row that ran as "shared"
        with pytest.raises(InputError, match=re.escape(f"got {subgraph!r}")):
            ModelKind(model._edge_module, subgraph)

    def test_a_tuple_batch_scores_as_a_list_does(self):
        hyper = self.hyper(5)
        rng = np.random.default_rng(23)
        records = [dataclasses.replace(random_subject(rng, 5), id=f"s{i}") for i in range(3)]
        params = init_params(MODEL_LEGNET, hyper, 1)
        as_list = prepare_dataset(records, MODEL_LEGNET)
        as_tuple = tuple(prepare_dataset(tuple(records), MODEL_LEGNET))
        runs = [batch_loss_and_grads(batch, as_tensors(params), hyper, MODEL_LEGNET, 0.01)
                for batch in (as_list, as_tuple)]
        assert runs[0][0] == runs[1][0] and runs[0][2].tobytes() == runs[1][2].tobytes()
        for name, grad in runs[0][1].items():
            assert grad.tobytes() == runs[1][1][name].tobytes(), name
        single = [single_tape_batch_loss(Tape(), batch, as_tensors(params), hyper, MODEL_LEGNET,
                                         0.01).data for batch in (as_list, as_tuple)]
        assert single[0] == single[1]

    def test_prepare_dataset_rejects_an_unknown_kind(self):
        with pytest.raises(InputError, match="unknown model kind 'nope'"):
            prepare_dataset([random_subject(np.random.default_rng(0), 5)], "nope")

    def test_zero_weights_bias_head_is_constant(self):
        rng = np.random.default_rng(7)
        hyper = self.hyper(5)
        params = {k: np.zeros_like(v) for k, v in
                  init_params(MODEL_LEGNET, hyper, 0).items()}
        params["head_b2"] = np.array([42.0])
        for _ in range(3):
            assert predict(random_subject(rng, 5), params, hyper) == 42.0

    def test_determinism_for_identical_inputs(self):
        rng = np.random.default_rng(8)
        hyper = self.hyper(5)
        params = init_params(MODEL_LEGNET, hyper, 1)
        rec = random_subject(rng, 5)
        twin = SubjectRecord(id="twin", x=rec.x.copy(),
                             lesion=LesionEncoding(p=rec.lesion.p.copy()), y=rec.y)
        assert predict(rec, params, hyper) == predict(twin, params, hyper)

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_matches_stacked_oracles(self, seed):
        rng = np.random.default_rng(50 + seed)
        hyper = self.hyper(6)
        params = init_params(MODEL_LEGNET, hyper, seed)
        rec = random_subject(rng, 6)

        h = oracle_edge_to_edge(rec.x, params["r"], params["c"])
        h1 = oracle_edge_to_node(h, params["g"], params["b1"])
        s = oracle_scores(rec.lesion.p, params["theta1"])
        w = oracle_filters(s, params["theta2"], params["b2"], hyper.d2)
        h2 = oracle_conv(h1, w)
        expected = oracle_head(h2, params["head_w1"], params["head_b1"],
                               params["head_w2"], params["head_b2"])
        assert predict(rec, params, hyper) == pytest.approx(expected, abs=1e-10)


class TestLoss:
    def test_perfect_predictions_zero_lambda(self):
        hyper = HyperParams(n_rois=4, k=2, d0=2, d1=2, d2=2, d3=2, lam=0.0)
        params = {k: np.zeros_like(v) for k, v in init_params(MODEL_LEGNET, hyper, 0).items()}
        params["head_b2"] = np.array([60.0])
        rec = dataclasses.replace(random_subject(np.random.default_rng(9), 4), y=60.0)
        assert loss([rec], params, hyper) == 0.0

    def test_single_subject_residual(self):
        hyper = HyperParams(n_rois=4, k=2, d0=2, d1=2, d2=2, d3=2, lam=0.0)
        params = {k: np.zeros_like(v) for k, v in init_params(MODEL_LEGNET, hyper, 0).items()}
        params["head_b2"] = np.array([52.0])
        rec = dataclasses.replace(random_subject(np.random.default_rng(10), 4), y=50.0)
        assert loss([rec], params, hyper) == pytest.approx(4.0)

    def test_ridge_term_on_unit_theta1(self):
        # lam = 0.005, theta1 all ones with shape (8, 6): 0.005 * 48 = 0.24
        hyper = HyperParams(n_rois=6, lam=0.005)
        params = {k: np.zeros_like(v) for k, v in init_params(MODEL_LEGNET, hyper, 0).items()}
        params["theta1"] = np.ones((8, 6))
        rec = dataclasses.replace(random_subject(np.random.default_rng(11), 6), y=0.0)
        assert loss([rec], params, hyper) == pytest.approx(0.24, abs=1e-12)

    @pytest.mark.parametrize("entry", [
        lambda hyper, params: loss([], params, hyper),
        # a ZeroDivisionError before
        lambda hyper, params: single_tape_batch_loss(Tape(), [], as_tensors(params), hyper,
                                                     MODEL_LEGNET, hyper.lam),
        # numpy's "need at least one array to stack" before
        lambda hyper, params: stack_subjects([], hyper),
    ], ids=["batch_loss_and_grads", "single_tape_batch_loss", "stack_subjects"])
    def test_empty_batch_rejected(self, entry):
        hyper = HyperParams(n_rois=4)
        with pytest.raises(InputError, match="empty batch"):
            entry(hyper, init_params(MODEL_LEGNET, hyper, 0))

    @pytest.mark.parametrize("entry", [
        # numpy's "could not broadcast" ValueError before
        lambda batch, params_t, hyper: batch_loss_and_grads(batch, params_t, hyper,
                                                            MODEL_LEGNET, 0.0),
        # a mean of chunk means before, with no error
        lambda batch, params_t, hyper: single_tape_batch_loss(Tape(), batch, params_t, hyper,
                                                              MODEL_LEGNET, 0.0),
        lambda batch, params_t, hyper: stack_subjects(batch, hyper),
    ], ids=["batch_loss_and_grads", "single_tape_batch_loss", "stack_subjects"])
    def test_an_entry_of_several_subjects_is_named(self, entry):
        hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3)
        rng = np.random.default_rng(3)
        records = [dataclasses.replace(random_subject(rng, 5), id=f"s{i}") for i in range(4)]
        prepared = prepare_dataset(records, MODEL_LEGNET)
        batch = [stack_subjects(prepared[:3], hyper), prepared[3]]
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError, match=r"one subject, got 3: 's0', 's1', 's2'"):
            entry(batch, params_t, hyper)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_accumulated_grads_match_single_tape(self, kind):
        self.check_batch_against_references(kind, n_subjects=3)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_several_chunks_match_single_tape(self, kind, monkeypatch):
        # two subjects per tape: chunks of 2, 2 and 1
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 5 * 5 * 2 * 8)
        assert chunk_subjects(HyperParams(n_rois=5, d0=2)) == 2
        self.check_batch_against_references(kind, n_subjects=5)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_one_subject_single_tape_equals_the_batch_as_bytes(self, kind):
        # both run the one batch layout, so even the signs of zero gradients
        # agree (an unbatched head gave -0.0 where the batch sums to +0.0)
        hyper = HyperParams(n_rois=7, lam=0.01)
        params = init_params(kind, hyper, 3)
        rng = np.random.default_rng(5)
        batch = prepare_dataset([random_subject(rng, 7)], kind)
        value, grads, _ = batch_loss_and_grads(batch, as_tensors(params), hyper, kind, hyper.lam)
        tape, params_t = Tape(), as_tensors(params)
        out = single_tape_batch_loss(tape, batch, params_t, hyper, kind, hyper.lam)
        backward(tape, out)
        assert np.float64(value).tobytes() == out.data.tobytes()
        assert {name: g.tobytes() for name, g in grads.items()} == \
            {name: t.grad.tobytes() for name, t in params_t.items()}

    @pytest.mark.parametrize("want_grads, backwards", [(True, 3), (False, 0)])
    def test_one_backward_per_chunk_and_none_without_grads(self, monkeypatch, want_grads,
                                                           backwards):
        # chunks of 2, 2 and 1; the ridge term rides on the first chunk's tape
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 5 * 5 * 2 * 8)
        calls = []

        def counting_backward(tape, loss):
            calls.append(tape)
            return backward(tape, loss)

        monkeypatch.setattr(model, "backward", counting_backward)
        hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3, lam=0.01)
        rng = np.random.default_rng(13)
        batch = prepare_dataset([random_subject(rng, 5) for _ in range(5)], MODEL_LEGNET)
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        batch_loss_and_grads(batch, params_t, hyper, MODEL_LEGNET, hyper.lam, want_grads)
        assert len(calls) == backwards

    @staticmethod
    def check_batch_against_references(kind, n_subjects):
        """Loss and gradients equal one per-subject tape; predictions equal
        `predict`."""
        hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3, lam=0.01)
        params = init_params(kind, hyper, 3)
        rng = np.random.default_rng(12)
        records = [random_subject(rng, 5) for _ in range(n_subjects)]
        batch = prepare_dataset(records, kind)

        params_t = as_tensors(params)
        value, grads, preds = batch_loss_and_grads(batch, params_t, hyper, kind, lam=hyper.lam)

        tape = Tape()
        params_t2 = as_tensors({k: v.copy() for k, v in params.items()})
        out = single_tape_batch_loss(tape, batch, params_t2, hyper, kind, hyper.lam)
        backward(tape, out)
        assert value == pytest.approx(float(out.data), rel=1e-12, abs=0)
        for name, tensor in params_t2.items():
            assert_rel_close(grads[name], tensor.grad, 1e-10, name)
        single = [predict(rec, params, hyper, kind) for rec in records]
        assert_rel_close(preds, np.array(single), 1e-12, "predictions")

    @pytest.mark.parametrize("wrong", ["x", "pcol", "n_rois"])
    def test_batch_with_a_mismatched_subject_raises_input_error(self, wrong):
        hyper = HyperParams(n_rois=6, k=3, d0=2, d1=3, d2=2, d3=3)
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        rng = np.random.default_rng(1)
        batch = prepare_dataset([random_subject(rng, 6) for _ in range(3)], MODEL_LEGNET)
        if wrong == "x":
            batch[1] = prepare_subject(random_subject(rng, 5))
        elif wrong == "pcol":
            batch[1].pcol = t(np.ones((5, 1)), requires_grad=False)
        else:
            hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3)
            params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError):
            batch_loss_and_grads(batch, params_t, hyper, MODEL_LEGNET, lam=0.0)

    def test_full_chunk_stays_within_the_allocator_thresholds(self):
        # at N = 90 a chunk is 8 subjects; its (8, 90, 90, 4) H is 2.1 MB
        hyper = HyperParams(n_rois=90)
        c = chunk_subjects(hyper)
        assert c == 8
        h_bytes = 90 * 90 * hyper.d0 * 8
        assert c * h_bytes <= model.CHUNK_BYTES < (c + 1) * h_bytes
        assert model.CHUNK_BYTES <= MMAP_THRESHOLD
        rng = np.random.default_rng(2)
        batch = prepare_dataset([random_subject(rng, 90) for _ in range(8)], MODEL_LEGNET)
        # one chunk of 8 per kind, about 3% over its measured peak. legnet's
        # ~3.4 MB holds because H's gradient is written over H: a second
        # H-sized gradient array would take it to ~5.7 MB. bnc-mask's 3.64 MB
        # includes its masked copy of X
        bounds = {MODEL_LEGNET: 3.5e6, MODEL_BRAINGNN_DAGGER: 0.88e6,
                  MODEL_BNC_MASK: 3.75e6, MODEL_BNC_2CHANNEL: 3.32e6}
        assert bounds.keys() == set(MODEL_KINDS)
        for kind, bound in bounds.items():
            params_t = as_tensors(init_params(kind, hyper, 0))
            tracemalloc.start()
            try:
                batch_loss_and_grads(batch, params_t, hyper, kind, lam=hyper.lam)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound < TRIM_THRESHOLD, kind

        # H and its gradient stay inside the edge op: in no kind that has
        # one does a tape tensor hold even one subject's share of H
        stacked = stack_subjects(batch[:c], hyper)
        for kind in (MODEL_LEGNET, MODEL_BNC_MASK, MODEL_BNC_2CHANNEL):
            tape = Tape()
            FORWARDS[kind](tape, stacked, as_tensors(init_params(kind, hyper, 0)), hyper)
            assert max(out.data.nbytes for out, _, _ in tape.nodes) < h_bytes, kind


class TestBaselines:
    def hyper(self, n):
        return HyperParams(n_rois=n, k=3, d0=2, d1=4, d2=2, d3=4)

    def test_braingnn_scores_ignore_lesion(self):
        rng = np.random.default_rng(13)
        hyper = self.hyper(5)
        params = init_params(MODEL_BRAINGNN_DAGGER, hyper, 2)
        rec = random_subject(rng, 5)
        damaged = SubjectRecord(id="d", x=rec.x.copy(),
                                lesion=LesionEncoding(p=np.zeros(5)), y=rec.y)
        a = predict(rec, params, hyper, MODEL_BRAINGNN_DAGGER)
        b = predict(damaged, params, hyper, MODEL_BRAINGNN_DAGGER)
        assert a == b

    def test_braingnn_matches_its_oracle(self):
        rng = np.random.default_rng(14)
        hyper = self.hyper(4)
        params = init_params(MODEL_BRAINGNN_DAGGER, hyper, 3)
        rec = random_subject(rng, 4)
        h1 = np.maximum(rec.x @ params["node_w"].T + params["node_b"], 0.0)
        s = oracle_scores(np.ones(4), params["theta1"])
        w = oracle_filters(s, params["theta2"], params["b2"], hyper.d2)
        h2 = oracle_conv(h1, w)
        expected = oracle_head(h2, params["head_w1"], params["head_b1"],
                               params["head_w2"], params["head_b2"])
        assert predict(rec, params, hyper, MODEL_BRAINGNN_DAGGER) == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_bnc_mask_noop_when_all_spared(self):
        rng = np.random.default_rng(15)
        hyper = self.hyper(4)
        params = init_params(MODEL_BNC_MASK, hyper, 4)
        rec = random_subject(rng, 4)
        rec = dataclasses.replace(rec, lesion=LesionEncoding(p=np.clip(rec.lesion.p, 0.3, 1.0)))
        h = oracle_edge_to_edge(rec.x, params["r"], params["c"])
        h1 = oracle_edge_to_node(h, params["g"], params["b1"])
        expected = oracle_head(h1, params["head_w1"], params["head_b1"],
                               params["head_w2"], params["head_b2"])
        assert predict(rec, params, hyper, MODEL_BNC_MASK) == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_bnc_mask_invariant_to_masked_entries(self):
        rng = np.random.default_rng(16)
        hyper = self.hyper(5)
        params = init_params(MODEL_BNC_MASK, hyper, 5)
        rec = random_subject(rng, 5)
        p = rec.lesion.p.copy()
        p[2] = 0.2  # below threshold: row/col 2 must not matter
        rec = dataclasses.replace(rec, lesion=LesionEncoding(p=p))
        before = predict(rec, params, hyper, MODEL_BNC_MASK)
        x = rec.x.copy()
        x[2, :] = np.exp(rng.uniform(-1, 1, 5))
        x[:, 2] = x[2, :]
        after = predict(dataclasses.replace(rec, x=x), params, hyper, MODEL_BNC_MASK)
        assert before == after

    def test_bnc_2channel_matches_its_oracle(self):
        rng = np.random.default_rng(17)
        hyper = self.hyper(4)
        params = init_params(MODEL_BNC_2CHANNEL, hyper, 6)
        rec = random_subject(rng, 4)
        b = np.outer(rec.lesion.p, rec.lesion.p)
        n, d0 = 4, hyper.d0
        h = np.zeros((n, n, d0))
        for i in range(n):
            for j in range(n):
                acc = np.zeros(d0)
                for m in range(n):
                    acc = acc + params["r"][m] * rec.x[i, m] + params["r2"][m] * b[i, m]
                for m in range(n):
                    acc = acc + params["c"][m] * rec.x[m, j] + params["c2"][m] * b[m, j]
                h[i, j] = np.maximum(acc, 0.0)
        h1 = oracle_edge_to_node(h, params["g"], params["b1"])
        expected = oracle_head(h1, params["head_w1"], params["head_b1"],
                               params["head_w2"], params["head_b2"])
        assert predict(rec, params, hyper, MODEL_BNC_2CHANNEL) == pytest.approx(
            expected, rel=1e-12, abs=0)


def three_op_edge_relu(tape, row, col):
    """H as the model built it before `outer_add_relu`: row terms repeated by
    a product with [I I ... I], column terms reshaped, then add + relu."""
    lead, (n, d0) = row.shape[:-2], row.shape[-2:]
    tile = Tensor(np.tile(np.eye(d0), n), requires_grad=False)
    h = tape.add_relu(tape.matmul(row, tile), tape.reshape(col, lead + (1, n * d0)))
    return tape.reshape(h, lead + (n, n, d0))


def reference_edge_op(tape, row, col, w):
    """The edge op as tape ops, as the model chained them before
    `outer_add_relu_matmul`: H from three ops, reshaped to (..., N, N d0),
    then contracted with w by `matmul`."""
    lead, (n, d0) = row.shape[:-2], row.shape[-2:]
    return tape.matmul(tape.reshape(three_op_edge_relu(tape, row, col), lead + (n, n * d0)), w)


class TestEdgeTensorPinned:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_outputs_equal_the_reference_chain_as_bytes(self, kind, monkeypatch):
        rng = np.random.default_rng(90)
        hyper = HyperParams(n_rois=90)
        records = [random_subject(rng, 90) for _ in range(9)]
        prepared = prepare_dataset(records[:8], kind)
        params = init_params(kind, hyper, 5)
        h_bytes = 90 * 90 * hyper.d0 * 8
        runs, ties = [], []
        for edge_op in (Tape.outer_add_relu_matmul, reference_edge_op):
            outs = []

            def recording(tape, row, col, w, edge_op=edge_op, outs=outs):
                ties.append(np.count_nonzero(row.data[..., :, None, :] + col.data[..., None, :, :]
                                             == 0.0))
                out = edge_op(tape, row, col, w)
                outs.append(out.data.tobytes())
                return out

            monkeypatch.setattr(Tape, "outer_add_relu_matmul", recording)
            monkeypatch.setattr(model, "CHUNK_BYTES", 8 * h_bytes)  # one tape of 8
            value, grads, preds = batch_loss_and_grads(prepared, as_tensors(params), hyper, kind,
                                                       hyper.lam)
            monkeypatch.setattr(model, "CHUNK_BYTES", 4 * h_bytes)  # two tapes of 4
            chunked = batch_loss_and_grads(prepared, as_tensors(params), hyper, kind, hyper.lam,
                                           want_grads=False)[2]
            assert chunked.tobytes() == preds.tobytes()
            single = predict(records[8], params, hyper, kind)
            runs.append((outs, np.float64(value).tobytes(), preds.tobytes(),
                         np.float64(single).tobytes(),
                         {name: g.tobytes() for name, g in grads.items()}))
        assert len(runs[0][0]) == (0 if kind == MODEL_BRAINGNN_DAGGER else 4)
        assert runs[0] == runs[1]
        if kind == MODEL_BNC_MASK:
            # zeroed rows and columns give row_i + col_j == 0 exactly, where
            # relu'(0) = 0 in both the op and add_relu
            assert min(ties) > 0


def run_gradient_checks(module: str = "all", seed: int = 0,
                        hyper: HyperParams | None = None,
                        step: float = 1e-5) -> dict[str, float]:
    """Max relative error of tape gradients vs central differences, per stage.

    Instances are seeded random, sized by `hyper` (default: 6 ROIs with a
    scaled-down k=3). `module` picks one of edge, subgraph, head, loss
    (LEGNet's full objective), loss-braingnn-dagger, loss-bnc-mask,
    loss-bnc-2channel, or all. The full objectives run a 2-subject batch as
    one tape through the chunk objective that batch_loss_and_grads uses.
    """
    check_seed("seed", seed)
    if hyper is None:
        hyper = HyperParams(n_rois=6, k=3)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n, k = hyper.n_rois, hyper.k
    d0, d1, d2, d3 = hyper.d0, hyper.d1, hyper.d2, hyper.d3
    record = random_subject(rng, n)
    x_const = Tensor(record.x, requires_grad=False)
    pcol_const = Tensor(record.lesion.p[:, None], requires_grad=False)

    checks: dict[str, float] = {}

    def check(name, build, inputs):
        if module in ("all", name):
            checks[name] = gradient_check(build, inputs, step=step)

    subj_const = model.PreparedSubject((record.id,), x_const, pcol_const, None)
    check("edge", lambda tape, ts: tape.l2_norm_sq(
              model._edge_module(tape, subj_const, dict(zip(("r", "c", "g", "b1"), ts)))),
          [rng.uniform(-1, 1, size=(n, d0)), rng.uniform(-1, 1, size=(n, d0)),
           rng.uniform(-1, 1, size=(n, d1, d0)), rng.uniform(-1, 1, size=(d1,))])
    h1_fixed = Tensor(rng.uniform(0.1, 2.0, size=(n, d1)), requires_grad=False)

    def build_subgraph(tape, ts):
        s = assignment_scores(tape, pcol_const, ts[0])
        v = subgraph_filters(tape, s, ts[1], ts[2])
        return tape.l2_norm_sq(subgraph_conv(tape, h1_fixed, v))

    check("subgraph", build_subgraph,
          [rng.uniform(-1, 1, size=(k, n)), rng.uniform(-1, 1, size=(d2 * d1, k)),
           rng.uniform(-1, 1, size=(d2 * d1,))])
    h2_fixed = Tensor(rng.uniform(0.1, 2.0, size=(1, n, d2)), requires_grad=False)
    check("head", lambda tape, ts: tape.l2_norm_sq(predict_head(tape, h2_fixed, *ts)),
          [rng.uniform(-1, 1, size=(d3, n * d2)), rng.uniform(-1, 1, size=(d3,)),
           rng.uniform(-1, 1, size=(1, d3)), rng.uniform(-1, 1, size=(1,))])
    records = [record, random_subject(rng, n)]
    for kind in MODEL_KINDS:
        names = [row[0] for row in param_spec(kind, hyper)]
        init = init_params(kind, hyper, seed=seed + 1)
        batch = stack_subjects(prepare_dataset(records, kind), hyper)

        def build_loss(tape, ts, kind=kind, names=names, batch=batch):
            params_t = dict(zip(names, ts))
            return model._chunk_objective(tape, batch, params_t, hyper, kind, len(records),
                                          hyper.lam)[0]

        check("loss" if kind == MODEL_LEGNET else f"loss-{kind}", build_loss,
              [init[name] for name in names])
    if not checks:
        raise InputError(f"unknown gradcheck module {module!r}")
    return checks


class TestGradientChecks:
    def test_each_stage_within_tolerance(self):
        checks = run_gradient_checks("all", seed=0)
        assert set(checks) == {"edge", "subgraph", "head", "loss", "loss-braingnn-dagger",
                               "loss-bnc-mask", "loss-bnc-2channel"}
        for name, err in checks.items():
            assert err <= 1e-4, f"{name}: {err}"

    def test_single_module_selection(self):
        checks = run_gradient_checks("head", seed=1)
        assert list(checks) == ["head"]

    def test_unknown_module_rejected(self):
        with pytest.raises(InputError):
            run_gradient_checks("nope")


NOT_SAVED = "checkpoint header is not the one save_checkpoint writes for"


class TestParamsAndCheckpoints:
    def test_init_is_deterministic(self):
        hyper = HyperParams(n_rois=6)
        a = init_params(MODEL_LEGNET, hyper, 7)
        b = init_params(MODEL_LEGNET, hyper, 7)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_checkpoint_round_trip_is_byte_identical(self, tmp_path):
        hyper = HyperParams(n_rois=6, k=3)
        params = init_params(MODEL_LEGNET, hyper, 9)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, MODEL_LEGNET, hyper, params)
        kind, hyper2, loaded = load_checkpoint(first)
        assert kind == MODEL_LEGNET and hyper2 == hyper
        for name in params:
            assert np.array_equal(params[name], loaded[name])
        save_checkpoint(second, kind, hyper2, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_checkpoint_rejects_an_unsupported_version(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"LEGP" + struct.pack("<II", 2, 0))
        with pytest.raises(InputError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_kind_round_trips(self, tmp_path, kind):
        hyper = HyperParams(n_rois=5, k=3)
        params = init_params(kind, hyper, 2)
        save_checkpoint(tmp_path / "a.ckpt", kind, hyper, params)
        loaded_kind, loaded_hyper, loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert (loaded_kind, loaded_hyper) == (kind, hyper)
        assert all(np.array_equal(params[name], loaded[name]) for name in params)
        assert loaded.keys() == params.keys()

    def test_predict_names_a_missing_tensor(self):
        # a KeyError: 'g' inside the forward before
        hyper = HyperParams(n_rois=6)
        params = init_params(MODEL_LEGNET, hyper, 0)
        del params["g"]
        with pytest.raises(InputError, match="'g' is missing"):
            predict(random_subject(np.random.default_rng(0), 6), params, hyper)

    def test_predict_rejects_another_kinds_tensors(self):
        # a late "head expects 12 features, got 48" from the head before
        hyper = HyperParams(n_rois=6)
        params = init_params(MODEL_LEGNET, hyper, 0)
        with pytest.raises(InputError, match="bnc-mask tensor table: 'head_w1' has shape"):
            predict(random_subject(np.random.default_rng(0), 6), params, hyper, MODEL_BNC_MASK)

    def test_predict_names_a_tensor_not_in_the_table(self):
        hyper = HyperParams(n_rois=6)
        params = init_params(MODEL_LEGNET, hyper, 0)
        params["extra"] = np.zeros(2)
        with pytest.raises(InputError, match="'extra' is not in it"):
            predict(random_subject(np.random.default_rng(0), 6), params, hyper)

    @pytest.mark.parametrize("lists", ["one", "all"])
    @pytest.mark.parametrize("use", ["predict", "save_checkpoint"])
    def test_a_list_in_place_of_an_array_is_named(self, tmp_path, use, lists):
        # an AttributeError: 'list' object has no attribute 'shape' before
        hyper = HyperParams(n_rois=6)
        params = init_params(MODEL_LEGNET, hyper, 0)
        for name in (["g"] if lists == "one" else list(params)):
            params[name] = params[name].tolist()
        first = next(name for name, value in params.items() if isinstance(value, list))
        with pytest.raises(InputError, match=f"parameter tensor '{first}' is a list, not an"):
            if use == "predict":
                predict(random_subject(np.random.default_rng(0), 6), params, hyper)
            else:
                save_checkpoint(tmp_path / "a.ckpt", MODEL_LEGNET, hyper, params)
        assert not (tmp_path / "a.ckpt").exists()

    def test_batch_loss_rejects_unknown_kind(self):
        # a KeyError: 'nope' before
        hyper = HyperParams(n_rois=6)
        batch = prepare_dataset([random_subject(np.random.default_rng(0), 6)], MODEL_LEGNET)
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError, match="unknown model kind 'nope'"):
            batch_loss_and_grads(batch, params_t, hyper, "nope", lam=0.0)

    def saved_legnet(self, tmp_path):
        hyper = HyperParams(n_rois=8)
        path = tmp_path / "legnet.ckpt"
        save_checkpoint(path, MODEL_LEGNET, hyper, init_params(MODEL_LEGNET, hyper, 0))
        return path

    @pytest.mark.parametrize("cut", [6, 14, "half"])
    def test_checkpoint_load_requires_exact_length(self, tmp_path, cut):
        # these cuts used to raise struct.error, JSONDecodeError and ValueError
        path = self.saved_legnet(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2 if cut == "half" else cut])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        # a TypeError from HyperParams before
        (lambda h: h["hyper"].update(extra=1), "unexpected keyword argument 'extra'"),
        # a KeyError in predict before
        (lambda h: h.update(model="gcn"), "unknown model kind"),
        # a late "head expects" error in the forward before
        (lambda h: h.update(model=MODEL_BNC_MASK), f"{NOT_SAVED} a 'bnc-mask' model"),
        # loaded and predicted before
        (lambda h: h["hyper"].update(k=0), "k must be an integer >= 1"),
        (lambda h: h["hyper"].update(d0="4"), "d0 must be an integer >= 1"),
        # true was the integer 1 before: with a dimension of 1 in the table
        # the file loaded, then the forward raised TypeError
        (lambda h: h["hyper"].update(k=True), "k must be an integer >= 1"),
        (lambda h: h["hyper"].update(lam=True), "lam must be"),
        (lambda h: h["hyper"].update(lam=-1.0), "lam must be"),
        (lambda h: h["tensors"].remove(["g", [8, 8, 4]]), f"{NOT_SAVED} a 'legnet' model"),
        (lambda h: h.pop("hyper"), "valid hyperparameters: 'hyper'"),
        (lambda h: h.update(tensors={"g": [8, 8, 4]}), NOT_SAVED),
        (lambda h: h["tensors"].append(["g", [8, 8, 4]]), NOT_SAVED),
        (lambda h: h["tensors"].reverse(), NOT_SAVED),
        # the same content in another key order loaded before; save writes
        # one format, so the header is compared byte for byte
        (lambda h: h.update(hyper=dict(reversed(h["hyper"].items()))),
         rf"{NOT_SAVED} a 'legnet' model with HyperParams\(n_rois=8, k=8"),
    ], ids=["extra-hyper-key", "unknown-kind", "other-kinds-tensors", "k-zero", "string-dim",
            "bool-dim", "bool-lam", "negative-lam", "missing-tensor", "no-hyper",
            "table-not-a-list", "repeated-name", "out-of-order", "reformatted"])
    def test_checkpoint_load_checks_header_against_param_spec(self, tmp_path, edit, message):
        path = self.saved_legnet(tmp_path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<I", data, 8)
        header = json.loads(data[12:12 + length])
        edit(header)
        text = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + length:])
        with pytest.raises(InputError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"{not json", b"\xff\xfe",
        # the decoder's ValueError (int digit limit) and RecursionError escaped before
        pytest.param(b'{"model": "legnet", "hyper": {"n_rois": ' + b"1" * 5000 + b"}}",
                     id="5000-digit-int"),
        pytest.param(b"[" * 100000 + b"]" * 100000, id="deep-nesting"),
    ])
    def test_checkpoint_load_rejects_header_that_is_not_json(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"LEGP" + struct.pack("<II", 1, len(header)) + header)
        with pytest.raises(InputError, match="not UTF-8 JSON"):
            load_checkpoint(path)

    def test_checkpoint_load_rejects_non_finite_tensors(self, tmp_path):
        path = self.saved_legnet(tmp_path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.nan))
        with pytest.raises(InputError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda p: {n: a for n, a in p.items() if n != "g"}, "'g' is missing"),
        (lambda p: {**p, "r": p["r"][:, :2]}, r"'r' has shape \(8, 2\), expected \(8, 4\)"),
        (lambda p: init_params(MODEL_BNC_MASK, HyperParams(n_rois=8), 0), "'theta1' is missing"),
        (lambda p: {**p, "theta1": np.full((8, 8), np.nan)}, "'theta1' has non-finite"),
    ], ids=["missing-tensor", "wrong-shape", "other-kinds-tensors", "nan-entry"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, damage, message):
        # each was written before, and then refused by load_checkpoint
        hyper = HyperParams(n_rois=8)
        path = tmp_path / "bad.ckpt"
        with pytest.raises(InputError, match=message):
            save_checkpoint(path, MODEL_LEGNET, hyper, damage(init_params(MODEL_LEGNET, hyper, 0)))
        assert not path.exists()

    def test_numpy_scalar_hyperparameters_save_and_load_back_equal(self, tmp_path):
        # save_checkpoint raised "Object of type int64 is not JSON serializable"
        plain = HyperParams(n_rois=6, k=3, d0=2, lam=0.0)
        hyper = HyperParams(n_rois=np.int64(6), k=np.uint8(3), d0=np.int32(2), lam=np.float64(0.0))
        assert hyper == plain and all(type(v) in (int, float) for v in vars(hyper).values())
        params = init_params(MODEL_LEGNET, hyper, 0)
        save_checkpoint(tmp_path / "np.ckpt", MODEL_LEGNET, hyper, params)
        save_checkpoint(tmp_path / "plain.ckpt", MODEL_LEGNET, plain, params)
        assert (tmp_path / "np.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()
        assert load_checkpoint(tmp_path / "np.ckpt")[1] == hyper

    def test_integer_lam_is_kept_as_written(self):
        assert type(HyperParams(n_rois=6, lam=0).lam) is int


class TestCheckpointPinned:
    """`save_checkpoint` output for every kind, at init seed 0 and two
    hyperparameter settings, hashes to the digest of the field-by-field
    header writer it replaced. Init is numpy's uniform draw scaled by a
    square root, so the bytes do not depend on the BLAS."""

    DIGEST = "0c8186d027fd53ceec04cd5ac6988db21ce68b38c2cf320a5024e2fe5fd6faa9"

    def test_checkpoint_bytes_hash_as_pinned(self, tmp_path):
        digest = hashlib.sha256()
        path = tmp_path / "a.ckpt"
        for hyper in (HyperParams(n_rois=90), HyperParams(n_rois=6, k=3, d0=2, lam=0.0)):
            for kind in MODEL_KINDS:
                save_checkpoint(path, kind, hyper, init_params(kind, hyper, 0))
                digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGEST


class TestInputsCheckedWhereTheyEnter:
    """Bad values raise an InputError, naming the problem, where they enter
    the model; the tensor engine does not check entries."""

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, np.random.SeedSequence(4)],
                             ids=["None", "-1", "1.5", "True", "SeedSequence"])
    @pytest.mark.parametrize("entry", [
        lambda seed: init_params(MODEL_LEGNET, HyperParams(n_rois=6, k=3), seed),
        lambda seed: run_gradient_checks("edge", seed),
    ], ids=["init_params", "run_gradient_checks"])
    def test_seed_must_be_an_integer_at_least_zero(self, entry, seed):
        # None seeded from OS entropy, so two inits differed; -1 raised
        # numpy's ValueError, 1.5 a TypeError, and True was read as 1; a
        # checkpoint's record holds an integer seed
        with pytest.raises(InputError, match="seed must be an integer >= 0"):
            entry(seed)

    def test_numpy_integer_seed_gives_the_same_init(self):
        hyper = HyperParams(n_rois=6, k=3)
        for name, arr in init_params(MODEL_LEGNET, hyper, np.uint32(4)).items():
            assert arr.tobytes() == init_params(MODEL_LEGNET, hyper, 4)[name].tobytes()

    @pytest.mark.parametrize("bad", [{"lam": float("nan")}, {"lam": -1.0}, {"k": 0}])
    def test_hyperparams_checked_at_construction(self, bad):
        with pytest.raises(InputError):
            HyperParams(n_rois=6, **bad)

    @pytest.mark.parametrize("what, message", [
        ("X", "connectivity has non-finite entries"),
        ("p", r"spared fractions must lie in \[0, 1\]"),
        ("y", "score must be a finite number, got nan"),
    ], ids=["X", "p", "y"])
    def test_non_finite_input_is_rejected_when_the_record_is_built(self, what, message):
        # predict checked X, p and y on every call; a record now checks them
        # once, and names the subject. An encoding is built before its record,
        # so its error cannot name one.
        rec = random_subject(np.random.default_rng(0), 6)
        if what == "p":
            p = rec.lesion.p.copy()
            p[2] = np.inf
            with pytest.raises(InputError, match=message):
                LesionEncoding(p=p)
            return
        x = rec.x.copy()
        x[0, 1] = np.nan
        change = {"x": x} if what == "X" else {"y": np.nan}
        with pytest.raises(InputError, match=f"subject 's007': {message}"):
            dataclasses.replace(rec, id="s007", **change)

    @pytest.mark.parametrize("y", [None, "abc", np.array([40.0, 50.0])],
                             ids=["None", "str", "2-vector"])
    def test_score_that_is_not_a_number_is_rejected_when_the_record_is_built(self, y):
        # float(y) and math.isfinite inside predict used to raise TypeError or ValueError
        rec = random_subject(np.random.default_rng(0), 6)
        with pytest.raises(InputError, match="subject 's007': score must be a finite number"):
            dataclasses.replace(rec, id="s007", y=y)

    @pytest.mark.parametrize("p, message", [
        (np.full(5, 0.5), "subject 's007': lesion encoding length does not match X"),
        (np.full(6, 1.5), r"spared fractions must lie in \[0, 1\]"),
        (np.full(6, -3.0), r"spared fractions must lie in \[0, 1\]"),
    ], ids=["length-5", "p-1.5", "p-minus-3"])
    def test_bad_lesion_encoding_is_rejected_before_predict(self, p, message):
        # numpy's broadcast ValueError or a ShapeError used to surface from
        # inside the forward, and out-of-range fractions were scored
        rec = random_subject(np.random.default_rng(0), 6)
        with pytest.raises(InputError, match=message):
            dataclasses.replace(rec, id="s007", lesion=LesionEncoding(p=p))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_predict_names_the_subject_whose_roi_count_does_not_fit(self, kind):
        # braingnn-dagger and bnc-2channel raised diffmath's ShapeError from
        # inside the forward; legnet and bnc-mask did not name the subject
        hyper = HyperParams(n_rois=6)
        rec = dataclasses.replace(random_subject(np.random.default_rng(0), 5), id="s007")
        with pytest.raises(InputError, match=r"subject 's007' has X \(5, 5\).* expects 6 ROIs"):
            predict(rec, init_params(kind, hyper, 0), hyper, kind)

    def test_predict_names_a_non_finite_parameter(self):
        hyper = HyperParams(n_rois=6)
        params = init_params(MODEL_LEGNET, hyper, 0)
        params["r"][0, 0] = np.inf
        with pytest.raises(InputError, match="'r' has non-finite"):
            predict(random_subject(np.random.default_rng(0), 6), params, hyper)

    @pytest.mark.parametrize("wrap, message", [
        # AttributeError: 'numpy.ndarray' object has no attribute 'requires_grad' before
        (dict, "parameter tensor 'r' is not a Tensor"),
        # numpy's UFuncTypeError from adding a None gradient before
        (lambda p: as_tensors(p, requires_grad=False),
         "parameter tensor 'r' is not a Tensor that requires gradients"),
    ], ids=["ndarrays", "frozen-tensors"])
    def test_batch_loss_names_a_tensor_it_cannot_use(self, wrap, message):
        hyper = HyperParams(n_rois=12, k=3)
        batch = prepare_dataset([random_subject(np.random.default_rng(0), 12)], MODEL_LEGNET)
        params = wrap(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError, match=message):
            batch_loss_and_grads(batch, params, hyper, MODEL_LEGNET, hyper.lam)

    @pytest.mark.parametrize("lam", [float("nan"), -1.0, True])
    def test_batch_loss_rejects_a_bad_ridge_weight(self, lam):
        hyper = HyperParams(n_rois=6, k=3)
        batch = prepare_dataset([random_subject(np.random.default_rng(0), 6)], MODEL_LEGNET)
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError, match="lam must be"):
            batch_loss_and_grads(batch, params_t, hyper, MODEL_LEGNET, lam)

    @pytest.mark.parametrize("use", ["predict", "save_checkpoint", "as_tensors"])
    @pytest.mark.parametrize("bad", ["tensors", "complex", "str", "object"])
    def test_parameter_values_must_be_real_ndarrays(self, tmp_path, use, bad):
        # Tensors, str and object arrays raised numpy's "ufunc 'isfinite' not
        # supported"; a complex array was scored and saved as its real part
        hyper = HyperParams(n_rois=12)
        params = init_params(MODEL_LEGNET, hyper, 0)
        if bad == "tensors":
            name, params = "r", {n: Tensor(a) for n, a in params.items()}
        else:
            name = "g"
            params["g"] = {"complex": params["g"] + 0j, "str": np.full(params["g"].shape, "a"),
                           "object": params["g"].astype(object)}[bad]
        with pytest.raises(InputError, match=f"parameter tensor '{name}' is a .*, not an "
                                             f"ndarray of real numbers"):
            if use == "predict":
                predict(random_subject(np.random.default_rng(0), 12), params, hyper)
            elif use == "save_checkpoint":
                save_checkpoint(tmp_path / "a.ckpt", MODEL_LEGNET, hyper, params)
            else:
                as_tensors(params)
        assert not (tmp_path / "a.ckpt").exists()

    @pytest.mark.parametrize("use", ["predict", "save_checkpoint", "as_tensors"])
    def test_the_first_tensor_at_fault_is_named(self, tmp_path, use):
        # a NaN in an early tensor is named before a str array in a later one
        hyper = HyperParams(n_rois=12)
        params = init_params(MODEL_LEGNET, hyper, 0)
        params["r"][1, 2] = np.nan
        params["head_w1"] = np.full(params["head_w1"].shape, "a")
        with pytest.raises(InputError, match="parameter tensor 'r' has non-finite entries"):
            if use == "predict":
                predict(random_subject(np.random.default_rng(0), 12), params, hyper)
            elif use == "save_checkpoint":
                save_checkpoint(tmp_path / "a.ckpt", MODEL_LEGNET, hyper, params)
            else:
                as_tensors(params)

    def test_an_empty_parameter_dict_has_nothing_to_check(self):
        assert as_tensors({}) == {}

    @pytest.mark.parametrize("call, message", [
        # TypeError: unhashable type: 'list', from the cached tensor table
        (lambda rec, params, hyper: predict(rec, params, hyper, ["legnet"]),
         r"unknown model kind \['legnet'\]"),
        # the same TypeError, from the kind lookup
        (lambda rec, params, hyper: init_params(["legnet"], hyper, 0),
         r"unknown model kind \['legnet'\]"),
        # TypeError: unhashable type: 'dict'
        (lambda rec, params, hyper: predict(rec, params, {"n_rois": 12}, MODEL_LEGNET),
         "hyper must be a HyperParams, got dict"),
        # AttributeError: 'dict' object has no attribute 'n_rois'
        (lambda rec, params, hyper: init_params(MODEL_LEGNET, {"n_rois": 12}, 0),
         "hyper must be a HyperParams, got dict"),
        # AttributeError: no attribute 'ids'
        (lambda rec, params, hyper: batch_loss_and_grads([rec], as_tensors(params), hyper,
                                                         MODEL_LEGNET, 0.0),
         "a batch entry must be a PreparedSubject, got SubjectRecord"),
        # AttributeError from the record's fields
        (lambda rec, params, hyper: predict(None, params, hyper),
         "record must be a SubjectRecord, got NoneType"),
        # AttributeError: 'list' object has no attribute 'items'
        (lambda rec, params, hyper: predict(rec, list(params.values()), hyper),
         "params must be a dict, got list"),
        # AttributeError: 'NoneType' object has no attribute 'items'
        (lambda rec, params, hyper: predict(rec, None, hyper),
         "params must be a dict, got NoneType"),
        (lambda rec, params, hyper: model.check_params(MODEL_LEGNET, hyper, [1]),
         "params must be a dict, got list"),
        # the same AttributeError, before the file was opened
        (lambda rec, params, hyper: save_checkpoint(os.devnull, MODEL_LEGNET, hyper, [1]),
         "params must be a dict, got list"),
        # AttributeError: 'list' object has no attribute 'values'
        (lambda rec, params, hyper: as_tensors([1]), "params must be a dict, got list"),
        # TypeError: object of type 'generator' has no len()
        (lambda rec, params, hyper: batch_loss_and_grads(
            (prepare_subject(rec) for _ in range(2)), as_tensors(params), hyper, MODEL_LEGNET,
            0.0), "prepared must be a list or tuple, got generator"),
        # TypeError: 'NoneType' object is not iterable
        (lambda rec, params, hyper: prepare_dataset(None, MODEL_LEGNET),
         "records must be a list or tuple, got NoneType"),
        # InputError: empty batch
        (lambda rec, params, hyper: stack_subjects(None, hyper),
         "prepared must be a list or tuple, got NoneType"),
        # ValueError: need at least one array to concatenate
        (lambda rec, params, hyper: stack_subjects(iter([prepare_subject(rec)]), hyper),
         "prepared must be a list or tuple, got list_iterator"),
        # TypeError: object of type 'generator' has no len()
        (lambda rec, params, hyper: single_tape_batch_loss(
            Tape(), (prepare_subject(rec) for _ in range(2)), as_tensors(params), hyper,
            MODEL_LEGNET, 0.0), "prepared must be a list or tuple, got generator"),
    ], ids=["predict-kind", "init_params-kind", "predict-hyper", "init_params-hyper",
            "batch-records", "predict-none", "predict-params-list", "predict-params-none",
            "check_params-list", "save_checkpoint-list", "as_tensors-list",
            "batch_loss_and_grads-generator", "prepare_dataset-none", "stack_subjects-none",
            "stack_subjects-iterator", "single_tape_batch_loss-generator"])
    def test_entry_points_name_a_wrong_argument_type(self, call, message):
        hyper = HyperParams(n_rois=12)
        rec = random_subject(np.random.default_rng(0), 12)
        with pytest.raises(InputError, match=message):
            call(rec, init_params(MODEL_LEGNET, hyper, 0), hyper)

    @pytest.mark.parametrize("entry", [
        lambda batch, params_t, hyper: batch_loss_and_grads(batch, params_t, hyper,
                                                            MODEL_LEGNET, 0.0),
        lambda batch, params_t, hyper: single_tape_batch_loss(Tape(), batch, params_t, hyper,
                                                              MODEL_LEGNET, 0.0),
        lambda batch, params_t, hyper: stack_subjects(batch, hyper),
    ], ids=["batch_loss_and_grads", "single_tape_batch_loss", "stack_subjects"])
    def test_a_target_that_is_not_one_by_one_is_named(self, entry):
        # a (1,) target made numpy's concatenate raise ValueError and the
        # per-subject loss a ShapeError; a (B,) target would broadcast against
        # the (B, 1) predictions
        hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3)
        rng = np.random.default_rng(4)
        records = [dataclasses.replace(random_subject(rng, 5), id=f"s{i}") for i in range(3)]
        batch = prepare_dataset(records, MODEL_LEGNET)
        batch[1] = dataclasses.replace(batch[1], target=t([records[1].y], requires_grad=False))
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError, match=r"subject 's1' has target \(1,\), not \(1, 1\)"):
            entry(batch, params_t, hyper)
