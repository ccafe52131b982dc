import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legnet.diffmath import (
    ShapeError,
    Tape,
    Tensor,
    backward,
)

from gradcheck import GradientCheckError, gradient_check


# relu(a) is add_relu(a, ZERO)
ZERO = Tensor(0.0, requires_grad=False)


def const(value):
    return Tensor(value, requires_grad=False)


def mean_sq(tape, a, b):
    """The mean of (a - b)^2 over a's entries, for a constant array b, as
    mul(l2_norm_sq(add(a, -b)), 1/n)."""
    diff = tape.add(a, const(-np.asarray(b, dtype=float)))
    return tape.mul(tape.l2_norm_sq(diff), const(1.0 / diff.data.size))


def finite(shape, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=shape)


class TestPrimitives:
    def test_relu_definition(self):
        out = Tape().add_relu(Tensor([-1.0, 0.0, 2.0]), ZERO)
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_uniform_on_equal_logits(self):
        out = Tape().softmax_lastaxis(Tensor([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_matmul_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            Tape().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_rejects_incompatible(self):
        with pytest.raises(ShapeError):
            Tape().add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_tensor_rejects_five_axes(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_add_relu_equals_relu_of_add(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 1, 4)))
        b = Tensor(rng.normal(size=(2, 1, 3, 4)))
        fused = Tape().add_relu(a, b)
        assert np.array_equal(fused.data, np.maximum(a.data + b.data, 0.0))

    def test_matmul_broadcasts_leading_axes(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        out = Tape().matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, np.matmul(a, b))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_are_distributions(self, logits):
        out = Tape().softmax_lastaxis(Tensor(np.array(logits)))
        assert np.all(out.data > 0)
        assert abs(out.data.sum() - 1.0) <= 1e-12


def three_op_chain(tape, row, col, w):
    """The edge op as separate tape ops: row terms repeated by a product with
    [I I ... I], column terms reshaped, add + relu, then a product with w."""
    lead, (n, d) = row.shape[:-2], row.shape[-2:]
    tile = Tensor(np.tile(np.eye(d), n), requires_grad=False)
    return tape.matmul(tape.add_relu(tape.matmul(row, tile),
                                     tape.reshape(col, lead + (1, n * d))), w)


def with_exact_zero_sums(shape, seed):
    rng = np.random.default_rng(seed)
    row, col = rng.normal(size=shape), rng.normal(size=shape)
    # sums that are exactly 0: x + (-x), 0 + 0 and -0 + -0
    col[..., 1, :] = -row[..., 2, :]
    row[..., 0, 0] = col[..., 3, 0] = 0.0
    row[..., 4, 1] = col[..., 4, 1] = -0.0
    return row, col


class TestOuterAddReluMatmul:
    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)], ids=["unbatched", "batched"])
    def test_equals_the_relu_of_the_broadcast_sum_times_w_as_bytes(self, shape):
        row, col = with_exact_zero_sums(shape, seed=8)
        w = finite((15, 4), seed=9)
        out = Tape().outer_add_relu_matmul(Tensor(row), Tensor(col), Tensor(w))
        h = np.maximum(row[..., :, None, :] + col[..., None, :, :], 0.0)
        expected = np.matmul(h.reshape(shape[:-1] + (15,)), w)
        assert out.shape == expected.shape == shape[:-1] + (4,)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3)], ids=["unbatched", "batched"])
    def test_gradients_equal_the_three_op_chain_as_bytes(self, shape):
        # exact zero sums pass no gradient in either: relu'(0) = 0
        row, col = with_exact_zero_sums(shape, seed=10)
        w, target = finite((15, 4), seed=11), finite(shape[:-1] + (4,), seed=12)
        grads = []
        for op in (Tape.outer_add_relu_matmul, three_op_chain):
            tape = Tape()
            leaves = [Tensor(row), Tensor(col), Tensor(w)]
            loss = mean_sq(tape, op(tape, *leaves), target)
            backward(tape, loss)
            grads.append([t.grad.tobytes() for t in leaves])
        assert grads[0] == grads[1]

    def test_gradient_counts_the_positive_pairs(self):
        # with w a column of ones and every output's gradient 1, d/d row_ik
        # counts the j with row_ik + col_jk > 0, d/d col_jk the i, and d/d w
        # sums H over i; an exact 0 counts for neither
        row = np.array([[1.0, -2.0], [0.5, 0.0], [-1.0, 3.0]])
        col = np.array([[-1.0, 2.0], [0.25, 0.0], [-0.5, -3.0]])
        tape = Tape()
        trow, tcol, tw = Tensor(row), Tensor(col), Tensor(np.ones((6, 1)))
        out = tape.outer_add_relu_matmul(trow, tcol, tw)
        ones = Tensor(np.ones((1, 3)), requires_grad=False)
        backward(tape, tape.reshape(tape.matmul(ones, out), ()))
        h = np.maximum(row[:, None, :] + col[None, :, :], 0.0)
        assert np.array_equal(trow.grad, (h > 0.0).sum(axis=1))
        assert np.array_equal(tcol.grad, (h > 0.0).sum(axis=0))
        assert np.array_equal(tw.grad, h.sum(axis=0).reshape(6, 1))

    @pytest.mark.parametrize("row, col, w", [
        ((5, 3), (5, 2), (15, 2)), ((2, 5, 3), (5, 3), (15, 2)), ((5, 3), (4, 3), (15, 2)),
        ((3,), (3,), (3, 2)), ((5, 3), (5, 3), (12, 2)), ((5, 3), (5, 3), (15,)),
    ])
    def test_rejects_operands_that_do_not_fit(self, row, col, w):
        with pytest.raises(ShapeError):
            Tape().outer_add_relu_matmul(Tensor(np.ones(row)), Tensor(np.ones(col)),
                                         Tensor(np.ones(w)))

    @staticmethod
    def edge_loss(shape, seed):
        row, col = (Tensor(finite(shape, seed + i)) for i in range(2))
        w = Tensor(finite((shape[-2] * shape[-1], 8), seed + 2))
        tape = Tape()
        return tape, tape.l2_norm_sq(tape.outer_add_relu_matmul(row, col, w))

    def test_backward_writes_h_gradient_over_h(self):
        # a minibatch of 8 at N = 90 and d = 4: H is (8, 90, 360), 2.1 MB; its
        # gradient takes its place and half of its one-byte mask is held at once
        tape, loss = self.edge_loss((8, 90, 4), seed=30)
        h_bytes = 8 * 90 * 90 * 4 * 8
        tracemalloc.start()
        try:
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < h_bytes / 2

    def test_a_second_backward_raises(self):
        tape, loss = self.edge_loss((2, 5, 3), seed=31)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="backward once"):
            backward(tape, loss)


class TestConstantOperands:
    @pytest.mark.parametrize("op", [Tape.add, Tape.add_relu, Tape.mul])
    @pytest.mark.parametrize("const_first", [False, True], ids=["const-right", "const-left"])
    def test_a_constant_operand_gets_no_gradient(self, op, const_first):
        tape, x, c = Tape(), Tensor(finite((3, 2), seed=40)), const(finite((2,), seed=41))
        op(tape, *((c, x) if const_first else (x, c)))
        (_, inputs, backward_fn), = tape.nodes
        grads = dict(zip(map(id, inputs), backward_fn(np.ones((3, 2)))))
        assert grads[id(c)] is None
        assert grads[id(x)].shape == x.shape


class TestTranspose:
    # the last two axes differ in length, so a backward that did not swap
    # them back would give a gradient of the wrong shape
    SHAPES = [(3, 4), (2, 3, 4), (2, 3, 4, 5)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["2-D", "3-D", "4-D"])
    def test_forward_swaps_the_last_two_axes(self, shape):
        a = finite(shape, seed=20)
        out = Tape().transpose(Tensor(a))
        assert np.array_equal(out.data, np.swapaxes(a, -1, -2))

    @pytest.mark.parametrize("shape", SHAPES, ids=["2-D", "3-D", "4-D"])
    def test_backward_matches_central_differences(self, shape):
        # a weight on the output makes the loss depend on the entry order
        weight = Tensor(finite(shape[:-2] + shape[:-3:-1], seed=21), requires_grad=False)

        def build(tape, ts):
            return tape.l2_norm_sq(tape.mul(tape.transpose(ts[0]), weight))

        assert gradient_check(build, [finite(shape, seed=22)], step=1e-5) <= 1e-6

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["0-D", "1-D"])
    def test_rejects_fewer_than_two_axes(self, shape):
        with pytest.raises(ShapeError, match="at least two axes"):
            Tape().transpose(Tensor(np.zeros(shape)))


class TestShapeErrors:
    @pytest.mark.parametrize("op, message", [
        (lambda tape: tape.add(Tensor(np.ones((2, 3))), Tensor(np.ones(4))), "add shape mismatch"),
        (lambda tape: tape.mul(Tensor(np.ones((2, 3))), Tensor(np.ones(4))), "mul shape mismatch"),
        (lambda tape: tape.add_relu(Tensor(np.ones((2, 3))), Tensor(np.ones(4))),
         r"add shape mismatch: \(2, 3\) \+ \(4,\)"),
        (lambda tape: tape.reshape(Tensor(np.ones(32)), (2, 2, 2, 2, 2)), "at most 4 axes"),
        (lambda tape: tape.reshape(Tensor(np.ones(6)), (4,)), r"cannot reshape \(6,\) to \(4,\)"),
        # a vector is a (1, n) row or an (n, 1) column: np.matmul's promotion is not kept
        (lambda tape: tape.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
         r"at least two axes, got \(3,\) @ \(3, 2\)"),
        (lambda tape: tape.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3))),
         r"at least two axes, got \(2, 3\) @ \(3,\)"),
        (lambda tape: tape.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones(3))),
         "at least two axes"),
    ], ids=["add", "mul", "add_relu", "reshape-too-many-axes", "reshape-bad-shape",
            "matmul-1-D-left", "matmul-1-D-right", "matmul-batched-at-1-D"])
    def test_incompatible_shapes_raise_shape_error(self, op, message):
        with pytest.raises(ShapeError, match=message):
            op(Tape())


class TestBackward:
    def test_sum_gradient_is_ones(self):
        # the sum of a column x as its product with a constant row of ones
        tape = Tape()
        x = Tensor([[1.0], [-2.0], [5.0]])
        total = tape.matmul(Tensor(np.ones((1, 3)), requires_grad=False), x)
        backward(tape, tape.reshape(total, ()))
        assert np.array_equal(x.grad, [[1.0], [1.0], [1.0]])

    def test_mse_gradient_matches_quadratic(self):
        tape = Tape()
        x = Tensor([3.0])
        backward(tape, mean_sq(tape, x, [0.0]))
        assert np.allclose(x.grad, [6.0])

    def test_unused_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = Tensor([1.0, 2.0])
        unused = Tensor([7.0])
        loss = tape.l2_norm_sq(x)
        tape.l2_norm_sq(unused)  # recorded but not feeding the loss
        leaves = backward(tape, loss)
        assert np.array_equal(unused.grad, [0.0])
        assert unused in leaves

    def test_leaf_reused_on_a_second_tape_gets_only_that_tapes_gradient(self):
        x = Tensor([1.0, -2.0])
        first = Tape()
        backward(first, first.l2_norm_sq(x))  # 2x
        second = Tape()
        backward(second, mean_sq(second, x, [0.0, 0.0]))
        assert np.array_equal(x.grad, x.data)  # mean over 2 entries: x, not 2x + x

    def test_output_of_another_tape_is_a_leaf_there(self):
        x = Tensor([1.0, 2.0])
        first = Tape()
        h, u = first.mul(x, const(3.0)), first.mul(x, const(-1.0))
        backward(first, first.add(first.l2_norm_sq(h), first.l2_norm_sq(u)))
        second = Tape()
        loss = second.l2_norm_sq(h)
        second.l2_norm_sq(u)  # recorded but not feeding the loss
        leaves = backward(second, loss)
        assert list(leaves) == [h, u]
        assert np.array_equal(h.grad, 2.0 * h.data)
        assert np.array_equal(u.grad, [0.0, 0.0])  # not the first tape's -2 u

    def test_two_use_leaf_accumulates_both_paths(self):
        # loss = |x + x|^2 = 4 |x|^2 has gradient 8x; one path alone gives 4x
        tape = Tape()
        x = Tensor([1.5, -2.0, 0.5])
        backward(tape, tape.l2_norm_sq(tape.add(x, x)))
        assert np.allclose(x.grad, 8.0 * x.data, atol=1e-15)

    def test_outputs_drop_their_gradients_and_leaves_keep_theirs(self):
        tape = Tape()
        x, w, unused = Tensor([[1.0], [-2.0]]), Tensor([[0.5, 1.0], [2.0, -1.0]]), Tensor([7.0])
        h = tape.add_relu(tape.matmul(w, x), ZERO)
        loss = tape.add(tape.l2_norm_sq(h), tape.l2_norm_sq(tape.mul(x, const(2.0))))
        tape.l2_norm_sq(unused)  # recorded but not feeding the loss
        backward(tape, loss)
        assert len(tape.nodes) == 7
        assert all(out.grad is None for out, _, _ in tape.nodes)
        # h = relu([-1.5, 4]) = [0, 4]; d/dx = w^T [0, 8] + 8 x
        assert np.array_equal(x.grad, [[24.0], [-24.0]])
        assert np.array_equal(w.grad, [[0.0, 0.0], [8.0, -16.0]])
        assert np.array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = Tensor([1.0, 2.0])
        y = tape.add_relu(x, ZERO)
        with pytest.raises(ShapeError):
            backward(tape, y)

    def test_constant_leaves_skipped(self):
        tape = Tape()
        x = Tensor([2.0])
        c = Tensor([3.0], requires_grad=False)
        leaves = backward(tape, tape.l2_norm_sq(tape.mul(x, c)))
        assert np.allclose(x.grad, [36.0])  # 2 c^2 x
        assert c.grad is None and c not in leaves

    def test_three_layer_composition_matches_finite_differences(self):
        w1 = finite((4, 3), seed=1)
        w2 = finite((2, 4), seed=2)
        x = finite((3, 1), seed=3)

        def build(tape, ts):
            a, b, v = ts
            h = tape.add_relu(tape.matmul(a, v), ZERO)
            h2 = tape.add_relu(tape.matmul(b, h), ZERO)
            return mean_sq(tape, h2, np.array([[0.3], [-0.1]]))

        assert gradient_check(build, [w1, w2, x], step=1e-5) <= 1e-6


class TestGradientCheck:
    def test_relu_away_from_kink(self):
        x = finite((6,), seed=10)
        x[np.abs(x) < 0.1] += 0.5  # keep clear of the kink

        def build(tape, ts):
            return tape.l2_norm_sq(tape.add_relu(ts[0], ZERO))

        assert gradient_check(build, [x], step=1e-5) <= 1e-6

    def test_softmax_random_vector(self):
        x = finite((8,), seed=11)

        def build(tape, ts):
            s = tape.softmax_lastaxis(ts[0])
            return tape.l2_norm_sq(s)

        assert gradient_check(build, [x], step=1e-5) <= 1e-6

    def test_reports_non_finite_with_coordinate(self):
        def build(tape, ts):
            # log-free recipe for a NaN: 0 * inf via a mean square of huge values
            big = tape.mul(ts[0], const(1e200))
            return mean_sq(tape, tape.mul(big, big), np.zeros(2))

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(GradientCheckError, match="coordinate"):
                gradient_check(build, [np.array([1e200, 1.0])], step=1e-5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            gradient_check(lambda tape, ts: tape.l2_norm_sq(ts[0]), [np.ones(2)], step=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_every_primitive_matches_central_differences(seed):
    """Backward of each primitive agrees with finite differences at random
    inputs kept away from relu kinks (|x| > 1e-3)."""
    rng = np.random.default_rng(seed)

    def away_from_zero(shape):
        return rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    a = away_from_zero((3, 4))
    b = rng.uniform(0.2, 1.5, size=(4, 2))
    v = rng.uniform(0.2, 1.5, size=(3, 4))
    batched = rng.uniform(-1.0, 1.0, size=(2, 3, 4))
    row = away_from_zero((2, 3, 1, 2))
    col = rng.uniform(-0.1, 0.1, size=(2, 1, 3, 2))  # |row + col| >= 0.1
    edge_w = rng.uniform(-1.0, 1.0, size=(6, 3))
    # constants are drawn once: build() must be the same function on every call
    shift = Tensor(rng.uniform(0.3, 0.9, size=(2,)), requires_grad=False)
    weight = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=False)

    def build(tape, ts):
        ta, tb, tv, tbatch, trow, tcol, tw = ts
        m = tape.add(tape.matmul(ta, tb), shift)     # (3, 2)
        s = tape.softmax_lastaxis(tape.add_relu(m, ZERO))
        mixed = tape.mul(ta, tv)                     # (3, 4)
        t = tape.transpose(tape.reshape(mixed, (4, 3)))
        t = tape.mul(t, weight)                      # (3, 4)
        total = tape.add(tape.l2_norm_sq(s), tape.l2_norm_sq(t))
        total = tape.add(total, tape.mul(tape.l2_norm_sq(tv), const(0.3)))
        total = tape.add(total, mean_sq(tape, tv, np.zeros((3, 4))))
        # leading batch axes: 3-D @ 2-D (also strided), 2-D @ 3-D
        wide = tape.transpose(tbatch)                                     # (2, 4, 3)
        for x, y in ((tbatch, tb), (wide, ta), (ta, wide)):
            total = tape.add(total, tape.l2_norm_sq(tape.matmul(x, y)))
        # 4-D reshape and transpose, then the fused add + relu and outer sum
        four = tape.transpose(tape.reshape(tbatch, (2, 3, 4, 1)))         # (2, 3, 1, 4)
        total = tape.add(total, tape.l2_norm_sq(tape.mul(four, four)))
        # a mean square against ones: its gradient is nonzero where relu outputs 0
        fused = tape.add_relu(trow, tcol)
        total = tape.add(total, mean_sq(tape, fused, np.ones(fused.shape)))
        # the outer sum of every pair of rows, batched, times a shared w; no
        # pair sum lies within 0.1 of 0
        outer = tape.outer_add_relu_matmul(tape.reshape(trow, (2, 3, 2)),
                                           tape.reshape(tcol, (2, 3, 2)), tw)
        return tape.add(total, mean_sq(tape, outer, np.ones(outer.shape)))

    assert gradient_check(build, [a, b, v, batched, row, col, edge_w], step=1e-5) <= 1e-4
