import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legnet.diffmath import (
    GradientCheckError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    gradient_check,
)


def finite(shape, seed, low=-2.0, high=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=shape)


class TestPrimitives:
    def test_relu_definition(self):
        out = Tape().relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_uniform_on_equal_logits(self):
        out = Tape().softmax_lastaxis(Tensor([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_mse_identity_case(self):
        out = Tape().mse(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))
        assert out.data == 0.0

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
        fused, tape = Tape().add_relu(a, b), Tape()
        assert np.array_equal(fused.data, tape.relu(tape.add(a, b)).data)

    def test_matmul_broadcasts_leading_axes(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        out = Tape().matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, np.matmul(a, b))

    def test_tensor_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_are_distributions(self, logits):
        out = Tape().softmax_lastaxis(Tensor(np.array(logits)))
        assert np.all(out.data > 0)
        assert abs(out.data.sum() - 1.0) <= 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        # the sum of x as its dot product with a constant vector of ones
        tape = Tape()
        x = Tensor([1.0, -2.0, 5.0])
        backward(tape, tape.matmul(Tensor(np.ones(3), requires_grad=False), x))
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_mse_gradient_matches_quadratic(self):
        tape = Tape()
        x = Tensor([3.0])
        backward(tape, tape.mse(x, Tensor([0.0], requires_grad=False)))
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
        backward(second, second.mse(x, Tensor([0.0, 0.0], requires_grad=False)))
        assert np.array_equal(x.grad, x.data)  # mse over 2 entries: x, not 2x + x

    def test_output_of_another_tape_is_a_leaf_there(self):
        x = Tensor([1.0, 2.0])
        first = Tape()
        h, u = first.scale(x, 3.0), first.scale(x, -1.0)
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

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = Tensor([1.0, 2.0])
        y = tape.relu(x)
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
        x = finite((3,), seed=3)

        def build(tape, ts):
            a, b, v = ts
            h = tape.relu(tape.matmul(a, v))
            h2 = tape.relu(tape.matmul(b, h))
            return tape.mse(h2, Tensor(np.array([0.3, -0.1]), requires_grad=False))

        assert gradient_check(build, [w1, w2, x], step=1e-5) <= 1e-6


class TestGradientCheck:
    def test_relu_away_from_kink(self):
        x = finite((6,), seed=10)
        x[np.abs(x) < 0.1] += 0.5  # keep clear of the kink

        def build(tape, ts):
            return tape.l2_norm_sq(tape.relu(ts[0]))

        assert gradient_check(build, [x], step=1e-5) <= 1e-6

    def test_softmax_random_vector(self):
        x = finite((8,), seed=11)

        def build(tape, ts):
            s = tape.softmax_lastaxis(ts[0])
            return tape.l2_norm_sq(s)

        assert gradient_check(build, [x], step=1e-5) <= 1e-6

    def test_reports_non_finite_with_coordinate(self):
        def build(tape, ts):
            # log-free recipe for a NaN: 0 * inf via mse against huge values
            big = tape.scale(ts[0], 1e200)
            return tape.mse(tape.mul(big, big), Tensor(np.zeros(2), requires_grad=False))

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
    u = rng.uniform(-1.0, 1.0, size=(4,))
    row = away_from_zero((2, 3, 1, 2))
    col = rng.uniform(-0.1, 0.1, size=(2, 1, 3, 2))  # |row + col| >= 0.1
    # constants are drawn once: build() must be the same function on every call
    shift = Tensor(rng.uniform(0.3, 0.9, size=(2,)), requires_grad=False)
    weight = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=False)

    def build(tape, ts):
        ta, tb, tv, tbatch, tu, trow, tcol = ts
        m = tape.add(tape.matmul(ta, tb), shift)     # (3, 2)
        s = tape.softmax_lastaxis(tape.relu(m))
        mixed = tape.mul(ta, tv)                     # (3, 4)
        t = tape.transpose(tape.reshape(mixed, (4, 3)), (1, 0))
        t = tape.mul(t, weight)                      # (3, 4)
        total = tape.add(tape.l2_norm_sq(s), tape.l2_norm_sq(t))
        total = tape.add(total, tape.scale(tape.l2_norm_sq(tv), 0.3))
        total = tape.add(total, tape.mse(tv, Tensor(np.zeros((3, 4)), requires_grad=False)))
        # leading batch axes: 3-D @ 2-D (also strided and @ 1-D), 2-D @ 3-D, 1-D @ 3-D
        wide = tape.transpose(tbatch, (0, 2, 1))                          # (2, 4, 3)
        for x, y in ((tbatch, tb), (wide, ta), (tbatch, tu), (ta, wide), (tu, wide)):
            total = tape.add(total, tape.l2_norm_sq(tape.matmul(x, y)))
        # 4-D reshape and transpose, then the fused add + relu
        four = tape.transpose(tape.reshape(tbatch, (2, 3, 2, 2)), (0, 2, 1, 3))
        total = tape.add(total, tape.l2_norm_sq(tape.mul(four, four)))
        # mse against ones: its gradient is nonzero where relu outputs 0
        fused = tape.add_relu(trow, tcol)
        return tape.add(total, tape.mse(fused, Tensor(np.ones(fused.shape), requires_grad=False)))

    assert gradient_check(build, [a, b, v, batched, u, row, col], step=1e-5) <= 1e-4
