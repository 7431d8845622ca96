import math

import numpy as np
import pytest

from scaat.autodiff import (
    Tensor,
    backward_grad,
    conv2d,
    conv2d_bias_relu_pool,
    cross_entropy,
    cross_entropy_rows,
    matmul,
    max_pool2d,
    mul,
    relu,
    reshape,
    softmax,
    softmax_np,
    tlog,
    tmean,
    tsum,
)
from conftest import fd_grad, kept_bytes


def check_op(op, x_shape, rng, trials=5, make_input=None, rtol=1e-3):
    """Gradient check an op against central differences through a fixed
    random linear functional (so the loss is scalar)."""
    for _ in range(trials):
        x = rng.standard_normal(x_shape) if make_input is None else make_input(rng)
        probe = rng.standard_normal(np.asarray(op(Tensor(x)).data).shape)

        def loss_np(arr):
            return float((op(Tensor(arr)).data * probe).sum())

        xt = Tensor(x, requires_grad=True)
        loss = tsum(mul(op(xt), Tensor(probe)))
        (g,) = backward_grad(loss, [xt])
        np.testing.assert_allclose(g, fd_grad(loss_np, x), rtol=rtol, atol=1e-8)


class TestPrimitiveGradients:
    def test_add(self, rng):
        other = rng.standard_normal((3, 4))
        check_op(lambda t: t + Tensor(other), (3, 4), rng)

    def test_add_broadcast_bias(self, rng):
        b = rng.standard_normal(4)
        check_op(lambda t: t + Tensor(b), (3, 4), rng)

    def test_mul(self, rng):
        other = rng.standard_normal((2, 5))
        check_op(lambda t: mul(t, Tensor(other)), (2, 5), rng)

    def test_mul_scalar_broadcast(self, rng):
        check_op(lambda t: mul(t, Tensor(2.5)), (4, 3), rng)

    def test_matmul_both_sides(self, rng):
        m = rng.standard_normal((4, 3))
        check_op(lambda t: matmul(t, Tensor(m)), (2, 4), rng)
        a = rng.standard_normal((2, 4))
        check_op(lambda t: matmul(Tensor(a), t), (4, 3), rng)

    def test_matmul_vector(self, rng):
        m = rng.standard_normal((4, 3))
        check_op(lambda t: matmul(t, Tensor(m)), (4,), rng)
        v = rng.standard_normal(3)
        check_op(lambda t: matmul(t, Tensor(v)), (4, 3), rng)

    def test_relu(self, rng):
        # keep inputs away from the kink
        def make(r):
            x = r.standard_normal((3, 5))
            return np.where(np.abs(x) < 0.05, 0.1, x)

        check_op(relu, None, rng, make_input=make)

    def test_log(self, rng):
        check_op(tlog, None, rng, make_input=lambda r: r.uniform(0.05, 3.0, (4, 4)))

    def test_reshape(self, rng):
        check_op(lambda t: reshape(t, (6, 2)), (3, 4), rng)

    def test_sum_mean_axes(self, rng):
        check_op(lambda t: tsum(t), (3, 4), rng)
        check_op(lambda t: tsum(t, axis=1), (3, 4), rng)
        check_op(lambda t: tmean(t), (3, 4), rng)
        check_op(lambda t: tmean(t, axis=0), (3, 4), rng)

    def test_softmax(self, rng):
        check_op(lambda t: softmax(t), (5,), rng)
        check_op(lambda t: softmax(t), (3, 6), rng)

    def test_conv2d(self, rng):
        w = rng.standard_normal((3, 2, 3, 3))
        check_op(lambda t: conv2d(t, Tensor(w), padding=1), (2, 2, 6, 6), rng, trials=3)
        x = rng.standard_normal((2, 2, 6, 6))
        check_op(lambda t: conv2d(Tensor(x), t, padding=1), (3, 2, 3, 3), rng, trials=3)

    def test_conv2d_stride(self, rng):
        w = rng.standard_normal((2, 1, 3, 3))
        check_op(lambda t: conv2d(t, Tensor(w), stride=2, padding=1), (1, 1, 7, 7), rng, trials=3)
        x = rng.standard_normal((1, 1, 7, 7))
        check_op(lambda t: conv2d(Tensor(x), t, stride=2), (2, 1, 3, 3), rng, trials=3)

    def test_max_pool(self, rng):
        check_op(lambda t: max_pool2d(t, 2), (2, 3, 6, 6), rng, trials=3)


def unfused_conv_block(a, w, b, padding, k):
    """The oracle for conv2d_bias_relu_pool: conv, bias add, ReLU and
    max-pool as four nodes."""
    return max_pool2d(relu(conv2d(a, w, padding=padding) + reshape(b, (1, -1, 1, 1))), k)


class TestConvBiasRelu:
    """conv2d_bias_relu_pool, the CNN's conv + bias + ReLU + max-pool node."""

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        op = lambda a, k, c: conv2d_bias_relu_pool(a, k, c, padding=1)  # noqa: E731
        check_op(lambda t: op(t, Tensor(w), Tensor(b)), x.shape, rng, trials=3)
        check_op(lambda t: op(Tensor(x), t, Tensor(b)), w.shape, rng, trials=3)
        check_op(lambda t: op(Tensor(x), Tensor(w), t), b.shape, rng, trials=3)

    def test_matches_unfused_composition_bitwise(self, rng):
        # ties at 0 and -0.0 (within pool windows too), NaN windows and a
        # non-finite, signed-zero upstream gradient: value and all three
        # gradients must carry the same bits as the four-node composition
        def pick(values, shape, p_normal=0.5):
            arr = rng.choice(values, size=shape)
            return np.where(rng.random(shape) < p_normal, rng.standard_normal(shape), arr)

        for case in range(40):
            n, c, f = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 5)
            padding, k = int(rng.integers(0, 2)), int(rng.integers(2, 4))
            side = k * int(rng.integers(1, 4))  # the conv output's extent
            nan = [np.nan] if case % 2 else []
            x = pick([0.0, -0.0, 1.0, -1.0] + nan, (n, c, side + 2 - 2 * padding, side + 2 - 2 * padding))
            w = pick([0.0, -0.0, 0.5, -0.5], (f, c, 3, 3))
            b = pick([0.0, -0.0] + nan, (f,))
            wants = [bool(v) for v in rng.integers(0, 2, 3)]
            wants[case % 3] = True
            g = pick([0.0, -0.0, np.inf, -np.inf, np.nan], (n, f, side // k, side // k))

            results = []
            for fused in (True, False):
                a_t, w_t, b_t = (Tensor(v, requires_grad=r) for v, r in zip((x, w, b), wants))
                block = conv2d_bias_relu_pool if fused else unfused_conv_block
                out = block(a_t, w_t, b_t, padding, k)
                with np.errstate(invalid="ignore"):
                    tsum(mul(out, Tensor(g))).backward()
                results.append([out.data] + [t.grad for t in (a_t, w_t, b_t)])
            for got, want in zip(*results):
                if want is None:
                    assert got is None
                else:
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), f"case {case}"

    @pytest.mark.parametrize("fused", [False, True])
    def test_unfold_kept_only_for_dw(self, rng, fused):
        # only dW reads the unfold, so a node whose weights are frozen
        # keeps its activations alone: the conv output, and for the fused
        # node its pooled output too
        x = Tensor(rng.standard_normal((4, 3, 16, 16)), requires_grad=True)
        act_bytes, cols_bytes = 4 * 8 * 16 * 16 * 8, 27 * 4 * 16 * 16 * 8
        out_bytes = act_bytes // 4 if fused else act_bytes
        acts = act_bytes + out_bytes if fused else act_bytes
        for w_grad in (False, True):
            w = Tensor(rng.standard_normal((8, 3, 3, 3)), requires_grad=w_grad)
            b = Tensor(np.zeros(8))
            op = (lambda: conv2d_bias_relu_pool(x, w, b, padding=1)) if fused else (lambda: conv2d(x, w, padding=1))
            out, kept = kept_bytes(op)
            assert out.data.nbytes == out_bytes
            if w_grad:
                assert kept >= acts + cols_bytes
            else:
                assert acts <= kept < acts + cols_bytes // 2

    def test_pool_must_divide_conv_extents(self, rng):
        x, w, b = Tensor(rng.standard_normal((1, 1, 5, 5))), Tensor(np.ones((2, 1, 3, 3))), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match=r"pool size 2 must divide spatial extents \(5, 5\)"):
            conv2d_bias_relu_pool(x, w, b, padding=1)


def argmax_pool(x, g, k):
    """Oracle pool: each k x k window transposed into a row, its first
    maximum taken by argmax, and g scattered back to that position."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(n, c, h // k, w // k, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    dflat = np.zeros(flat.shape)
    np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
    dx = dflat.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, dx


def pool_and_grad(x, g, k):
    """max_pool2d's output and its input gradient for upstream gradient g."""
    xt = Tensor(x, requires_grad=True)
    out = max_pool2d(xt, k)
    with np.errstate(invalid="ignore"):  # the loss value of non-finite g
        tsum(mul(out, Tensor(g))).backward()
    return out.data, xt.grad


class TestMaxPoolKernel:
    @pytest.mark.parametrize(
        "shape,k",
        [((1, 2, 4, 4), 2), ((24, 3, 8, 8), 2), ((1, 3, 8, 8), 4), ((20, 4, 8, 16), 4)],
    )
    @pytest.mark.parametrize("values", ["ties", "ties_nan", "normal"])
    def test_matches_argmax_oracle_bitwise(self, rng, shape, k, values):
        if values == "normal":
            x = rng.standard_normal(shape)
        else:
            pool = [-1.0, -0.0, 0.0, 0.5, 1.0] + ([np.nan] if values == "ties_nan" else [])
            x = rng.choice(pool, size=shape)
        n, c, h, w = shape
        # negative, signed-zero and non-finite upstream values: the routed
        # gradient must be g itself and every other slot exactly +0.0
        g = rng.choice([-2.5, -0.0, 0.0, 1.5, np.inf, np.nan], size=(n, c, h // k, w // k))
        out, dx = pool_and_grad(x, g, k)
        ref_out, ref_dx = argmax_pool(x, g, k)
        assert out.tobytes() == ref_out.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()

    @pytest.mark.parametrize("k", [2, 4])
    def test_tie_routes_to_first_maximum(self, k):
        x = np.zeros((1, 1, k, k))
        x[0, 0, k - 1, 0] = 3.0
        x[0, 0, 0, k - 1] = 3.0  # the first of the three in row-major order
        x[0, 0, k - 1, k - 1] = 3.0
        out, dx = pool_and_grad(x, np.full((1, 1, 1, 1), 7.0), k)
        assert out[0, 0, 0, 0] == 3.0
        expected = np.zeros((k, k))
        expected[0, k - 1] = 7.0
        np.testing.assert_array_equal(dx[0, 0], expected)

    def test_signed_zero_tie_keeps_first(self):
        x = np.array([[[[-0.0, 0.0], [0.0, 0.0]], [[0.0, -0.0], [-0.0, -0.0]]]])
        out, dx = pool_and_grad(x, np.ones((1, 2, 1, 1)), 2)
        assert np.signbit(out[0, 0, 0, 0]) and not np.signbit(out[0, 1, 0, 0])
        np.testing.assert_array_equal(dx[0, :, 0, 0], [1.0, 1.0])
        assert dx.sum() == 2.0

    @pytest.mark.parametrize("k", [2, 4])
    def test_nan_window_pools_to_nan(self, rng, k):
        x = rng.uniform(0.0, 1.0, (2, 1, 2 * k, 2 * k))
        x[1, 0, k + 1, 1] = np.nan
        out, dx = pool_and_grad(x, np.ones((2, 1, 2, 2)), k)
        assert np.isnan(out[1, 0, 1, 0])
        assert np.isfinite(np.delete(out.ravel(), 6)).all()
        assert dx[1, 0, k + 1, 1] == 1.0
        assert dx.sum() == 8.0


class TestBackwardContract:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        (g,) = backward_grad(tsum(mul(x, x)), [x])
        np.testing.assert_allclose(g, [6.0])

    def test_unused_leaf_gets_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = backward_grad(tsum(mul(x, x)), [x, unused])
        np.testing.assert_array_equal(grads[1], np.zeros(1))

    def test_non_scalar_loss_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            mul(x, x).backward()

    def test_double_backward_raises(self):
        x = Tensor([1.0], requires_grad=True)
        loss = tsum(mul(x, x))
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()

    def test_backward_linearity(self, rng):
        x_val = rng.standard_normal(6)
        gs = []
        for a, b in [(1.0, 0.0), (0.0, 1.0), (2.5, -1.25)]:
            x = Tensor(x_val, requires_grad=True)
            l1 = tsum(mul(x, x))
            l2 = tsum(tlog(relu(x) + Tensor(np.full(6, 3.0))))
            loss = mul(l1, Tensor(a)) + mul(l2, Tensor(b))
            (g,) = backward_grad(loss, [x])
            gs.append(g)
        np.testing.assert_allclose(2.5 * gs[0] - 1.25 * gs[1], gs[2], atol=1e-6)

    def test_fanout_accumulates(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        y = mul(x, x)
        loss = tsum(y) + tsum(mul(y, Tensor(3.0)))
        (g,) = backward_grad(loss, [x])
        np.testing.assert_allclose(g, 8.0 * x.data, rtol=1e-12)

    def test_shared_gradient_not_written_through(self):
        # add hands the same gradient buffer to both parents, so a's second
        # contribution (from 2a) must not land in b's gradient
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        loss = tsum(a + b) + tsum(mul(a, Tensor(2.0)))
        loss.backward()
        np.testing.assert_array_equal(b.grad, np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 3.0))

    def test_reshape_view_gradient_not_written_through(self):
        # reshape hands a a view of the buffer add shares with b
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(6), requires_grad=True)
        loss = tsum(reshape(a, (6,)) + b) + tsum(mul(a, Tensor(2.0)))
        loss.backward()
        np.testing.assert_array_equal(b.grad, np.ones(6))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))

    def test_determinism_bit_identical(self, rng):
        x_val = rng.standard_normal((4, 4))
        runs = []
        for _ in range(2):
            x = Tensor(x_val, requires_grad=True)
            loss = tsum(softmax(mul(x, x) + Tensor(1.0)))
            (g,) = backward_grad(loss, [x])
            runs.append((loss.data.copy(), g.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_values_finite_after_passes(self, rng):
        x = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        loss = tsum(tlog(softmax(x)))
        loss.backward()
        assert np.all(np.isfinite(loss.data))
        assert np.all(np.isfinite(x.grad))


class TestSoftmaxValues:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax_np(np.zeros(2)), [0.5, 0.5])

    def test_ln2_case(self):
        # direct evaluation: e^ln2 / (e^ln2 + 1) = 2/3
        out = softmax_np(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_simplex(self, rng):
        z = rng.standard_normal((50, 7)) * 10
        p = softmax_np(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


class TestCrossEntropy:
    def test_perfect_prediction_zero(self):
        scores = Tensor(np.array([1000.0, 0.0]))
        assert cross_entropy(scores, 0).item() == 0.0

    def test_uniform_four_classes(self):
        val = cross_entropy(Tensor(np.zeros(4)), 2).item()
        np.testing.assert_allclose(val, math.log(4.0), rtol=1e-12)

    def test_ln2_scores(self):
        val = cross_entropy(Tensor(np.array([math.log(2.0), 0.0])), 1).item()
        np.testing.assert_allclose(val, math.log(3.0), rtol=1e-12)

    def test_positive_unless_certain(self, rng):
        for _ in range(20):
            z = rng.standard_normal(5)
            assert cross_entropy(Tensor(z), int(rng.integers(5))).item() > 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor(np.zeros(3)), 3)

    def test_input_gradient_matches_softmax_minus_onehot(self, rng):
        z_val = rng.standard_normal(5)
        label = 2
        z = Tensor(z_val, requires_grad=True)
        (g,) = backward_grad(cross_entropy(z, label), [z])
        onehot = np.eye(5)[label]
        np.testing.assert_allclose(g, softmax_np(z_val) - onehot, rtol=1e-10)
        fd = fd_grad(lambda arr: cross_entropy(Tensor(arr), label).item(), z_val)
        np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-8)

    def test_batch_matches_single(self, rng):
        z = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        batch = tmean(cross_entropy_rows(softmax(Tensor(z)), labels)).item()
        singles = [cross_entropy(Tensor(z[i]), int(labels[i])).item() for i in range(4)]
        np.testing.assert_allclose(batch, np.mean(singles), rtol=1e-12)
