import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from legnet.connectome import (
    InputError,
    LesionEncoding,
    SubjectRecord,
    correlation_matrix,
    exponentiate,
)
from legnet import model
from legnet.diffmath import MMAP_THRESHOLD, TRIM_THRESHOLD, Tape, Tensor, backward
from legnet.model import (
    FORWARDS,
    MODEL_BNC_2CHANNEL,
    MODEL_BNC_MASK,
    MODEL_BRAINGNN_DAGGER,
    MODEL_KINDS,
    MODEL_LEGNET,
    HyperParams,
    as_tensors,
    assignment_scores,
    batch_loss_and_grads,
    chunk_subjects,
    edge_to_edge,
    edge_to_node,
    init_params,
    load_checkpoint,
    loss,
    predict,
    predict_head,
    prepare_dataset,
    prepare_subject,
    run_gradient_checks,
    save_checkpoint,
    single_tape_batch_loss,
    stack_subjects,
    subgraph_conv,
    subgraph_filters,
)


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


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=float), **kw)


class TestEdgeToEdge:
    def test_single_node_reduction(self):
        x = t([[math.e]], requires_grad=False)
        out = edge_to_edge(Tape(), x, t([[0.7]]), t([[0.2]]))
        assert out.data[0, 0, 0] == pytest.approx(max((0.7 + 0.2) * math.e, 0.0))

    def test_zero_filters_give_zero(self):
        rng = np.random.default_rng(0)
        x = t(rng.uniform(0.5, 2.5, (4, 4)), requires_grad=False)
        out = edge_to_edge(Tape(), x, t(np.zeros((4, 2))), t(np.zeros((4, 2))))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (4, 4))
        r = rng.uniform(-1, 1, (4, 2))
        c = rng.uniform(-1, 1, (4, 2))
        out = edge_to_edge(Tape(), t(x, requires_grad=False), t(r), t(c))
        assert np.allclose(out.data, oracle_edge_to_edge(x, r, c), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            edge_to_edge(Tape(), t(np.ones((3, 3))), t(np.ones((4, 2))), t(np.ones((4, 2))))


class TestEdgeToNode:
    def test_bias_only(self):
        b1 = np.array([1.0, -2.0, 0.5])
        out = edge_to_node(Tape(), t(np.random.default_rng(1).uniform(size=(3, 3, 2))),
                           t(np.zeros((3, 3, 2))), t(b1))
        assert np.allclose(out.data, np.tile(np.maximum(b1, 0.0), (3, 1)))

    def test_single_node(self):
        h = np.array([[[0.4, -0.3]]])
        g = np.array([[[0.5, 1.0], [2.0, -1.0]]])
        b1 = np.array([0.1, 0.2])
        out = edge_to_node(Tape(), t(h), t(g), t(b1))
        expected = np.maximum(g[0] @ h[0, 0] + b1, 0.0)
        assert np.allclose(out.data[0], expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        h = rng.uniform(-1, 1, (4, 4, 3))
        g = rng.uniform(-1, 1, (4, 2, 3))
        b1 = rng.uniform(-1, 1, 2)
        out = edge_to_node(Tape(), t(h, requires_grad=False), t(g), t(b1))
        assert np.allclose(out.data, oracle_edge_to_node(h, g, b1), atol=1e-12)


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
        w = subgraph_filters(Tape(), t(s), t(np.zeros((6, 2))), t(b2), d2=2)
        expected = oracle_filters(s, np.zeros((6, 2)), b2, 2)
        assert np.allclose(w.data, expected)
        assert np.allclose(w.data[0], w.data[1])

    def test_single_subgraph(self):
        theta2 = np.random.default_rng(5).uniform(-1, 1, (4, 1))
        b2 = np.array([0.1, 0.2, 0.3, 0.4])
        w = subgraph_filters(Tape(), t(np.ones((2, 1))), t(theta2), t(b2), d2=2)
        assert np.allclose(w.data, oracle_filters(np.ones((2, 1)), theta2, b2, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        s = rng.uniform(size=(5, 3))
        s /= s.sum(axis=1, keepdims=True)
        theta2 = rng.uniform(-1, 1, (8, 3))
        b2 = rng.uniform(-1, 1, 8)
        w = subgraph_filters(Tape(), t(s), t(theta2), t(b2), d2=2)
        assert np.allclose(w.data, oracle_filters(s, theta2, b2, 2), atol=1e-12)


class TestSubgraphConv:
    def test_zero_filters(self):
        out = subgraph_conv(Tape(), t(np.ones((3, 4))), t(np.zeros((3, 2, 4))))
        assert np.all(out.data == 0.0)

    def test_single_node(self):
        h1 = np.array([[1.0, -1.0]])
        w = np.array([[[0.5, 0.25], [2.0, 1.0]]])
        out = subgraph_conv(Tape(), t(h1), t(w))
        assert np.allclose(out.data[0], np.maximum(w[0] @ h1[0], 0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(30 + seed)
        h1 = rng.uniform(-1, 1, (4, 3))
        w = rng.uniform(-1, 1, (4, 2, 3))
        out = subgraph_conv(Tape(), t(h1), t(w))
        assert np.allclose(out.data, oracle_conv(h1, w), atol=1e-12)


class TestPredictHead:
    def test_bias_passthrough(self):
        out = predict_head(Tape(), t(np.zeros((3, 2))), t(np.zeros((4, 6))),
                           t(np.zeros(4)), t(np.zeros((1, 4))), t([50.0]))
        assert out.data[0] == 50.0

    def test_zero_features(self):
        rng = np.random.default_rng(6)
        w1, b1 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 4)
        w2, b2 = rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1)
        out = predict_head(Tape(), t(np.zeros((3, 2))), t(w1), t(b1), t(w2), t(b2))
        assert out.data[0] == pytest.approx(float((w2 @ np.maximum(b1, 0.0) + b2)[0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_evaluation(self, seed):
        rng = np.random.default_rng(40 + seed)
        h2 = rng.uniform(-1, 1, (3, 2))
        w1, b1 = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, 4)
        w2, b2 = rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1)
        out = predict_head(Tape(), t(h2), t(w1), t(b1), t(w2), t(b2))
        assert out.data[0] == pytest.approx(oracle_head(h2, w1, b1, w2, b2), abs=1e-12)


class TestFullForward:
    def hyper(self, n):
        return HyperParams(n_rois=n, k=3, d0=2, d1=4, d2=2, d3=4)

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
        rec = random_subject(np.random.default_rng(9), 4)
        rec.y = 60.0
        assert loss([rec], params, hyper) == 0.0

    def test_single_subject_residual(self):
        hyper = HyperParams(n_rois=4, k=2, d0=2, d1=2, d2=2, d3=2, lam=0.0)
        params = {k: np.zeros_like(v) for k, v in init_params(MODEL_LEGNET, hyper, 0).items()}
        params["head_b2"] = np.array([52.0])
        rec = random_subject(np.random.default_rng(10), 4)
        rec.y = 50.0
        assert loss([rec], params, hyper) == pytest.approx(4.0)

    def test_ridge_term_on_unit_theta1(self):
        # lam = 0.005, theta1 all ones with shape (8, 6): 0.005 * 48 = 0.24
        hyper = HyperParams(n_rois=6, lam=0.005)
        params = {k: np.zeros_like(v) for k, v in init_params(MODEL_LEGNET, hyper, 0).items()}
        params["theta1"] = np.ones((8, 6))
        rec = random_subject(np.random.default_rng(11), 6)
        rec.y = 0.0
        assert loss([rec], params, hyper) == pytest.approx(0.24, abs=1e-12)

    def test_empty_batch_rejected(self):
        hyper = HyperParams(n_rois=4)
        with pytest.raises(InputError):
            loss([], init_params(MODEL_LEGNET, hyper, 0), hyper)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_accumulated_grads_match_single_tape(self, kind):
        self.check_batch_against_references(kind, n_subjects=3)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_several_chunks_match_single_tape(self, kind, monkeypatch):
        # two subjects per tape: chunks of 2, 2 and 1
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 5 * 5 * 2 * 8)
        assert chunk_subjects(HyperParams(n_rois=5, d0=2)) == 2
        self.check_batch_against_references(kind, n_subjects=5)

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
            batch[1] = prepare_subject(random_subject(rng, 5), MODEL_LEGNET)
        elif wrong == "pcol":
            batch[1].pcol = t(np.ones((5, 1)), requires_grad=False)
        else:
            hyper = HyperParams(n_rois=5, k=3, d0=2, d1=3, d2=2, d3=3)
            params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))
        with pytest.raises(InputError):
            batch_loss_and_grads(batch, params_t, hyper, MODEL_LEGNET, lam=0.0)

    def test_full_chunk_stays_within_the_allocator_thresholds(self):
        # at N = 90 a chunk is 16 subjects; its (16, 90, 90, 4) H is 4.1 MB
        hyper = HyperParams(n_rois=90)
        c = chunk_subjects(hyper)
        assert c == 16
        rng = np.random.default_rng(2)
        batch = prepare_dataset([random_subject(rng, 90) for _ in range(c)], MODEL_LEGNET)
        params_t = as_tensors(init_params(MODEL_LEGNET, hyper, 0))

        tracemalloc.start()
        try:
            batch_loss_and_grads(batch, params_t, hyper, MODEL_LEGNET, lam=hyper.lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < TRIM_THRESHOLD

        tape = Tape()
        stacked = stack_subjects(batch, hyper)
        yhat = FORWARDS[MODEL_LEGNET](tape, stacked, params_t, hyper)
        backward(tape, tape.mse(yhat, stacked.target))
        largest = max(max(out.data.nbytes, out.grad.nbytes) for out, _, _ in tape.nodes)
        assert largest == c * 90 * 90 * hyper.d0 * 8 <= MMAP_THRESHOLD


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
        rec.lesion.p[:] = np.clip(rec.lesion.p, 0.3, 1.0)
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
        rec.lesion.p[2] = 0.2  # below threshold: row/col 2 must not matter
        before = predict(rec, params, hyper, MODEL_BNC_MASK)
        rec.x[2, :] = np.exp(rng.uniform(-1, 1, 5))
        rec.x[:, 2] = rec.x[2, :]
        after = predict(rec, params, hyper, MODEL_BNC_MASK)
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


class TestGradientChecks:
    def test_each_stage_within_tolerance(self):
        checks = run_gradient_checks("all", seed=0)
        assert set(checks) == {"e2e", "e2n", "subgraph", "head", "loss", "loss-braingnn-dagger",
                               "loss-bnc-mask", "loss-bnc-2channel"}
        for name, err in checks.items():
            assert err <= 1e-4, f"{name}: {err}"

    def test_single_module_selection(self):
        checks = run_gradient_checks("head", seed=1)
        assert list(checks) == ["head"]

    def test_unknown_module_rejected(self):
        with pytest.raises(InputError):
            run_gradient_checks("nope")


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
        (lambda h: h["hyper"].update(extra=1), "hyperparameters must be exactly"),
        # a KeyError in predict before
        (lambda h: h.update(model="gcn"), "unknown model kind"),
        # a late "head expects" error in the forward before
        (lambda h: h.update(model=MODEL_BNC_MASK), "do not match the bnc-mask"),
        # loaded and predicted before
        (lambda h: h["hyper"].update(k=0), "k must be an integer >= 1"),
        (lambda h: h["hyper"].update(d0="4"), "d0 must be an integer >= 1"),
        # true was the integer 1 before: with a dimension of 1 in the table
        # the file loaded, then the forward raised TypeError
        (lambda h: h["hyper"].update(k=True), "k must be an integer >= 1"),
        (lambda h: h["hyper"].update(lam=True), "lam must be"),
        (lambda h: h["hyper"].update(lam=-1.0), "lam must be"),
        (lambda h: h["tensors"].remove(["g", [8, 8, 4]]), "do not match the legnet"),
        (lambda h: h.pop("hyper"), "exactly model, hyper and tensors"),
    ], ids=["extra-hyper-key", "unknown-kind", "other-kinds-tensors", "k-zero", "string-dim",
            "bool-dim", "bool-lam", "negative-lam", "missing-tensor", "no-hyper"])
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

    @pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe"])
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
