import math
import weakref

import numpy as np
import pytest

from scaat import autodiff
from scaat.autodiff import (
    Tensor,
    backward_grad,
    conv2d,
    conv2d_bias_relu_pool,
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

    def test_matmul_rejects_vectors(self, rng):
        m = rng.standard_normal((4, 3))
        for a, b in ((m[:, 0], m), (m, m[0]), (m[:, 0], m[:, 0])):
            with pytest.raises(ValueError, match="2-D operands"):
                matmul(Tensor(a), Tensor(b))

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

    def test_conv2d_unpadded(self, rng):
        # an odd extent, then dW through the padding-0 unfold
        w = rng.standard_normal((2, 1, 3, 3))
        check_op(lambda t: conv2d(t, Tensor(w), padding=1), (1, 1, 7, 7), rng, trials=3)
        x = rng.standard_normal((1, 1, 7, 7))
        check_op(lambda t: conv2d(Tensor(x), t), (2, 1, 3, 3), rng, trials=3)

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
        # keeps its output alone: the conv output, or for the fused node
        # its pooled output and one uint8 routing code per pooled element,
        # with no pre-activation; a node whose input needs no gradient
        # keeps the padded input, 7x smaller here, in place of the unfold
        xv = rng.standard_normal((4, 3, 16, 16))
        act_bytes, cols_bytes = 4 * 8 * 16 * 16 * 8, 27 * 4 * 16 * 16 * 8
        padded_bytes = 4 * 3 * 18 * 18 * 8
        out_bytes = act_bytes // 4 if fused else act_bytes
        acts = out_bytes + out_bytes // 8 if fused else act_bytes
        for x_grad, w_grad, for_dw in ((True, False, 0), (True, True, cols_bytes), (False, True, padded_bytes)):
            x = Tensor(xv, requires_grad=x_grad)
            w = Tensor(rng.standard_normal((8, 3, 3, 3)), requires_grad=w_grad)
            b = Tensor(np.zeros(8))
            op = (lambda: conv2d_bias_relu_pool(x, w, b, padding=1)) if fused else (lambda: conv2d(x, w, padding=1))
            out, kept = kept_bytes(op)
            assert out.data.nbytes == out_bytes
            assert acts + for_dw <= kept < acts + for_dw + 2**12

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("side", [8, 14, 16, 28, 32])
    def test_kept_padded_input_gives_unfold_dw_bitwise(self, rng, side, c, fused):
        # a node whose input needs no gradient unfolds its kept padded
        # input again for dW; the unfold is a copy, so dW (and the bias
        # gradient and output) carry the bits of a node that kept the
        # unfold, with signed zeros, NaN and inf in the input and the
        # upstream gradient, and an inf weight
        def pick(values, shape):
            return np.where(rng.random(shape) < 0.8, rng.standard_normal(shape), rng.choice(values, size=shape))

        special = [0.0, -0.0, np.nan, np.inf, -np.inf]
        for n in (1, 3, 53, 64):
            x = pick(special, (n, c, side, side))
            w = rng.standard_normal((4, c, 3, 3))
            if n % 2:
                w[1, 0, 1, 2] = np.inf
            b = rng.standard_normal(4)
            out_side = side // 2 if fused else side
            g = pick(special, (n, 4, out_side, out_side))
            results = []
            for x_grad in (False, True):
                a_t, w_t, b_t = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
                with np.errstate(invalid="ignore", over="ignore"):
                    out = conv2d_bias_relu_pool(a_t, w_t, b_t, padding=1) if fused else conv2d(a_t, w_t, padding=1)
                    tsum(mul(out, Tensor(g))).backward()
                results.append([out.data, w_t.grad] + ([b_t.grad] if fused else []))
            for got, want in zip(*results):
                assert got.tobytes() == want.tobytes(), f"batch {n}"

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_write_into_input_after_forward_leaves_dw(self, rng, fused, padding):
        # the node keeps a private padded copy of an input that needs no
        # gradient, so writing into the caller's array before the sweep
        # cannot reach dW
        x = rng.standard_normal((3, 2, 8, 8))
        w = rng.standard_normal((4, 2, 3, 3))
        b = np.zeros(4)
        grads = []
        for overwrite in (False, True):
            arr = x.copy()
            w_t = Tensor(w, requires_grad=True)
            if fused:
                out = conv2d_bias_relu_pool(Tensor(arr), w_t, Tensor(b), padding=padding)
            else:
                out = conv2d(Tensor(arr), w_t, padding=padding)
            if overwrite:
                arr[...] = rng.standard_normal(arr.shape)
            tsum(out).backward()
            grads.append(w_t.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

    @pytest.mark.parametrize("fused", [False, True])
    def test_unfold_freed_before_dx(self, rng, monkeypatch, fused):
        # dW is the unfold's last read, so the backward drops it before
        # the input-gradient part allocates its padded buffer
        unfolds, dead_at_dx = [], []
        unfold, conv2d_dx = autodiff._unfold, autodiff._conv2d_dx

        def tracked_unfold(*args):
            out = unfold(*args)
            unfolds.append(weakref.ref(out))
            return out

        def checked_dx(*args):
            dead_at_dx.append(unfolds[-1]() is None)
            return conv2d_dx(*args)

        monkeypatch.setattr(autodiff, "_unfold", tracked_unfold)
        monkeypatch.setattr(autodiff, "_conv2d_dx", checked_dx)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3, 8, 8), (4, 3, 3, 3), (4,)))
        out = conv2d_bias_relu_pool(x, w, b, padding=1) if fused else conv2d(x, w, padding=1)
        assert unfolds[-1]() is not None  # held for dW
        tsum(out).backward()
        assert dead_at_dx == [True]
        assert x.grad is not None and w.grad is not None

    @pytest.mark.parametrize("fused", [False, True])
    def test_graph_keeps_no_input_without_grad(self, rng, fused):
        # a trainable node keeps the shape of an input it sends no
        # gradient, not the input, so dropping the input frees it
        x = rng.standard_normal((2, 3, 8, 8))
        ref = weakref.ref(x)
        w, b = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True), Tensor(np.ones(4), requires_grad=True)
        out = conv2d_bias_relu_pool(Tensor(x), w, b, padding=1) if fused else conv2d(Tensor(x), w, padding=1)
        del x
        assert ref() is None
        tsum(out).backward()
        assert w.grad is not None

    def test_pool_must_divide_conv_extents(self, rng):
        x, w, b = Tensor(rng.standard_normal((1, 1, 5, 5))), Tensor(np.ones((2, 1, 3, 3))), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match=r"pool size 2 must divide spatial extents \(5, 5\)"):
            conv2d_bias_relu_pool(x, w, b, padding=1)


def per_offset_dx(gm, w, x_shape, padding):
    """Oracle conv input gradient for the whole batch: per kernel offset,
    one transposed GEMM ``w[:, :, dy, dx].T @ gm`` scatter-added, in
    (dy, dx) order, into a zeroed padded input buffer."""
    f, c, kh, kw = w.shape
    n, _, h, wd = x_shape
    _, _, ho, wo = gm.shape
    gm = gm.reshape(f, n * ho * wo)
    dxq = np.zeros((c, n, h + 2 * padding, wd + 2 * padding))
    for dy in range(kh):
        for dx in range(kw):
            wk = np.ascontiguousarray(w[:, :, dy, dx])
            dxq[:, :, dy : dy + ho, dx : dx + wo] += (wk.T @ gm).reshape(c, n, ho, wo)
    return np.ascontiguousarray(dxq[:, :, padding : padding + h, padding : padding + wd].swapaxes(0, 1))


def routed_gradient(rng, shape):
    """A conv output gradient as a pool routes it, (F, N, Ho, Wo): three
    in four entries are zeros, a fifth of those -0.0, and each sample
    holds one each of inf, -inf and NaN."""
    f, n, ho, wo = shape
    g = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.75
    g[zero] = np.where(rng.random(shape) < 0.2, -0.0, 0.0)[zero]
    for value in (np.inf, -np.inf, np.nan):
        g[rng.integers(0, f, n), np.arange(n), rng.integers(0, ho, n), rng.integers(0, wo, n)] = value
    return g


def conv_dx_pair(gm, w, x_shape, padding=1):
    """``_conv2d_dx``'s result and the per-offset oracle's."""
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 in the sums
        return autodiff._conv2d_dx(gm, w, x_shape, padding), per_offset_dx(gm, w, x_shape, padding)


def assert_dx_within_rounding(gm, w, x_shape, padding, may_add_nan=None):
    """``_conv2d_dx`` against the oracle where the two may round apart:
    NaN and +-inf at the same positions (a NaN's payload may differ), and
    each finite entry within (F + kh*kw) * eps * sum|terms|.

    The bound: both kernels sum each element's terms offset by offset in
    (dy, dx) order, and differ at most in how they sum each offset's F
    products. A sum of m rounded products is within about m * eps/2 of
    its exact value, relative to the sum of the products' magnitudes;
    two such F-long dot products per offset, then two kh*kw-long sums
    over offsets, give (F + kh*kw) * eps * sum|terms|. With
    ``may_add_nan``, a boolean NCHW array, ``_conv2d_dx`` may also give
    NaN there, where the oracle does not.
    """
    f, _, kh, kw = w.shape
    got, want = conv_dx_pair(gm, w, x_shape, padding)
    with np.errstate(invalid="ignore"):
        mass = per_offset_dx(np.abs(gm), np.abs(w), x_shape, padding)  # sum|terms| per element
    extra = np.isnan(got) & ~np.isnan(want)
    if may_add_nan is not None:
        assert not (extra & ~may_add_nan).any()
        got = np.where(extra, want, got)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    infinite = np.isinf(want)
    np.testing.assert_array_equal(got[infinite], want[infinite])
    finite = np.isfinite(want)
    assert np.isfinite(got[finite]).all()
    err = np.abs(got[finite] - want[finite])
    assert (err <= (f + kh * kw) * np.finfo(np.float64).eps * mass[finite]).all()


class TestConvInputGradient:
    BATCHES = (1, 2, 3, 16, 17, 50, 64, 65)  # around and across DX_CHUNK

    @pytest.mark.parametrize("f", [1, 16, 32])
    @pytest.mark.parametrize("c", [2, 3, 16])
    @pytest.mark.parametrize("h", [4, 5, 7, 8, 12, 14, 16, 20, 28, 32])
    def test_stacked_matches_per_offset_bitwise(self, rng, h, c, f):
        # the models' domain: 3x3 kernels, padding 1, at least two input
        # channels, finite weights; Ho*Wo need not be a multiple of 8
        # (14 x 14 is the conv2 of a 28 x 28 IDX input)
        w = rng.standard_normal((f, c, 3, 3))
        full = routed_gradient(rng, (f, max(self.BATCHES), h, h))
        for n in self.BATCHES:
            got, want = conv_dx_pair(np.ascontiguousarray(full[:, :n]), w, (n, c, h, h))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=f"batch {n}")

    @pytest.mark.parametrize("h", [14, 16, 28])
    def test_one_channel_within_rounding(self, rng, h):
        # with one input channel OpenBLAS runs the oracle's per-offset
        # product as a GEMV, which rounds apart from the stacked GEMM
        w = rng.standard_normal((16, 1, 3, 3))
        for n in (3, 17, 65):
            assert_dx_within_rounding(routed_gradient(rng, (16, n, h, h)), w, (n, 1, h, h), 1)

    def test_kernel_sizes_and_paddings_within_rounding(self, rng):
        for k in (1, 2, 5):
            for padding in (0, 2):
                for c, n in ((1, 3), (3, 17)):
                    w = rng.standard_normal((16, c, k, k))
                    side = 10 + 2 * padding - k + 1
                    gm = routed_gradient(rng, (16, n, side, side))
                    assert_dx_within_rounding(gm, w, (n, c, 10, 10), padding)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weight_adds_nan_only_from_padding(self, rng, value):
        # the stacked product's padding terms are w @ 0: NaN once a weight
        # is not finite, where the oracle adds nothing; so NaN may appear
        # only where that weight's offset reaches past the output
        w = rng.standard_normal((16, 3, 3, 3))
        w[0, 1, 0, 0] = value
        gm = routed_gradient(rng, (16, 4, 8, 8))
        may_add_nan = np.zeros((4, 3, 8, 8), dtype=bool)
        # offset (0, 0) reaches past the 8 x 8 output from the last row and column
        may_add_nan[:, 1, -1, :] = may_add_nan[:, 1, :, -1] = True
        assert_dx_within_rounding(gm, w, (4, 3, 8, 8), 1, may_add_nan)


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


def cross_entropy(scores: Tensor, label: int) -> Tensor:
    """Cross-entropy of one score vector, through the batched loss's ops."""
    return tsum(cross_entropy_rows(softmax(reshape(scores, (1, -1))), [label]))


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
