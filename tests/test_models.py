import math
import re
import weakref

import numpy as np
import pytest

from scaat import models
from scaat.autodiff import Tensor, conv2d, matmul, max_pool2d, mul, relu, reshape, softmax_np, tsum
from scaat.models import ModelSpec, ParamSet, forward_eval, init_model, predict_proba, scores_np
from conftest import kept_bytes, linear_model


class TestModelSpec:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="architecture"):
            ModelSpec("transformer", (1, 8, 8), 2)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="n_classes"):
            ModelSpec("mlp", (1, 8, 8), 1)

    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError, match="input_shape"):
            ModelSpec("mlp", (1, 0, 8), 2)

    def test_cnn_needs_divisible_extents(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec("cnn", (1, 30, 32), 2)


class TestInit:
    def test_deterministic(self):
        spec = ModelSpec("mlp", (1, 2, 2), 3, hidden=(5,), seed=9)
        a, b = init_model(spec), init_model(spec)
        for name, t in a.items():
            assert np.array_equal(t.data, b[name].data)

    def test_mlp_param_count(self):
        # 4->3->2 dense stack: 4*3 + 3 + 3*2 + 2 = 23
        spec = ModelSpec("mlp", (1, 2, 2), 2, hidden=(3,))
        assert sum(t.size for _, t in init_model(spec).items()) == 23

    def test_conv_weight_shape(self):
        spec = ModelSpec("cnn", (1, 8, 8), 2, channels=(2, 4))
        params = init_model(spec)
        assert params["conv1.w"].shape == (2, 1, 3, 3)

    def test_fan_in_bound(self):
        spec = ModelSpec("mlp", (1, 4, 4), 2, hidden=(8,), seed=3)
        params = init_model(spec)
        bound = math.sqrt(1.0 / 16)
        w = params["fc0.w"].data
        assert np.all(np.abs(w) <= bound)
        assert w.std() > 0.1 * bound

    def test_from_arrays_checks_layout(self):
        spec = ModelSpec("cnn", (1, 8, 8), 2, channels=(2, 3), seed=0)
        arrays = init_model(spec).arrays()
        cases = [
            ({"conv1.w": arrays["conv1.w"]}, "parameter 1 .*'conv1.b'.*got None"),
            ({**arrays, "extra": np.zeros(1)}, "parameter 6 .*expected None"),
            ({**arrays, "conv2.w": np.zeros((3, 2, 3, 1))}, r"parameter 2 .*\(3, 2, 3, 3\).*\(3, 2, 3, 1\)"),
            (dict(reversed(list(arrays.items()))), "parameter 0 .*'conv1.w'.*'fc.b'"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                ParamSet.from_arrays(spec, bad)

    def test_zero_sized_layer_rejected(self):
        with pytest.raises(ValueError, match="zero-sized"):
            init_model(ModelSpec("mlp", (1, 2, 2), 2, hidden=(0,)))


class TestForward:
    def test_identity_linear_model(self):
        params = linear_model(np.eye(2))
        np.testing.assert_allclose(scores_np(params, np.array([[[1.0, 2.0]]])), [1.0, 2.0])

    # The two tests below check forward_eval against a plain numpy
    # forward written out here, independent of the engine's kernels.
    def test_graph_matches_plain_mlp(self, rng):
        spec = ModelSpec("mlp", (1, 3, 3), 4, hidden=(7,), seed=1)
        params = init_model(spec)
        x = rng.uniform(0, 1, (5, 1, 3, 3))
        w = params.arrays()
        hidden = np.maximum(x.reshape(5, 9) @ w["fc0.w"] + w["fc0.b"], 0.0)
        want = hidden @ w["fc1.w"] + w["fc1.b"]
        np.testing.assert_allclose(forward_eval(params, x).data, want, rtol=1e-12, atol=0)

    def test_graph_matches_plain_cnn(self, rng):
        spec = ModelSpec("cnn", (3, 8, 8), 5, channels=(4, 6), seed=2)
        params = init_model(spec)
        x = rng.uniform(0, 1, (3, 3, 8, 8))
        w = params.arrays()

        def conv_relu(a, k, b):
            # direct 3x3 sliding-window correlation, zero padding 1
            n, _, h, wd = a.shape
            ap = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
            out = np.empty((n, k.shape[0], h, wd))
            for i in range(h):
                for j in range(wd):
                    out[:, :, i, j] = np.einsum("ncyx,fcyx->nf", ap[:, :, i : i + 3, j : j + 3], k)
            return np.maximum(out + b[None, :, None, None], 0.0)

        def pool(a):
            n, c, h, wd = a.shape
            return a.reshape(n, c, h // 2, 2, wd // 2, 2).max(axis=(3, 5))

        h = pool(conv_relu(pool(conv_relu(x, w["conv1.w"], w["conv1.b"])), w["conv2.w"], w["conv2.b"]))
        want = h.reshape(3, -1) @ w["fc.w"] + w["fc.b"]
        np.testing.assert_allclose(forward_eval(params, x).data, want, rtol=1e-12, atol=0)

    def test_single_sample_shape(self, rng):
        spec = ModelSpec("cnn", (1, 8, 8), 3, channels=(2, 2), seed=0)
        params = init_model(spec)
        out = scores_np(params, rng.uniform(0, 1, (1, 8, 8)))
        assert out.shape == (3,)

    def test_shape_mismatch_names_shapes(self, rng):
        spec = ModelSpec("cnn", (3, 8, 8), 2, seed=0)
        params = init_model(spec)
        with pytest.raises(ValueError, match=r"expected \(3, 8, 8\).*got \(3, 7, 8\)"):
            scores_np(params, rng.uniform(0, 1, (3, 7, 8)))

    def test_forward_eval_takes_batches_only(self, rng):
        params = linear_model(np.eye(4), input_shape=(1, 2, 2))
        for shape in ((1, 2, 2), (4,), (3, 4), (3, 1, 4, 1)):
            with pytest.raises(ValueError, match=rf"expected \(1, 2, 2\).*got {re.escape(str(shape))}"):
                forward_eval(params, rng.uniform(0, 1, shape))


def unfused_cnn(params, xt):
    """The CNN forward with each conv, bias add, ReLU and max-pool as four
    nodes: the oracle for forward_eval's conv2d_bias_relu_pool."""
    n = xt.data.shape[0]
    h = relu(conv2d(xt, params["conv1.w"], padding=1) + reshape(params["conv1.b"], (1, -1, 1, 1)))
    h = max_pool2d(h, 2)
    h = relu(conv2d(h, params["conv2.w"], padding=1) + reshape(params["conv2.b"], (1, -1, 1, 1)))
    h = reshape(max_pool2d(h, 2), (n, -1))
    return matmul(h, params["fc.w"]) + params["fc.b"]


class TestFusedCnnForward:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_matches_unfused_forward_and_backward_bitwise(self, rng, frozen):
        spec = ModelSpec("cnn", (3, 8, 8), 5, channels=(4, 6), seed=3)
        arrays = init_model(spec).arrays()
        # pixels at 0 and a zero bias channel put pre-activations on the
        # ReLU's kink; the upstream gradient has signed zeros
        x = np.where(rng.random((4, 3, 8, 8)) < 0.3, 0.0, rng.uniform(0, 1, (4, 3, 8, 8)))
        arrays["conv1.b"][0] = 0.0
        g = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(4, 5))
        results = []
        for forward in (forward_eval, unfused_cnn):
            params = ParamSet.from_arrays(spec, arrays)
            params = params.frozen() if frozen else params
            xt = Tensor(x, requires_grad=True)
            scores = forward(params, xt)
            tsum(mul(scores, Tensor(g))).backward()
            grads = [t.grad for _, t in params.items()]
            results.append([scores.data, xt.grad] + grads)
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                assert got.tobytes() == want.tobytes()


class TestGraphMemory:
    """Bytes one batch-64 forward graph of the gate's CNN keeps alive."""

    N = 64
    SPEC = ModelSpec("cnn", (3, 32, 32), 10, channels=(16, 32), seed=0)

    def graph_bytes(self, params, x) -> int:
        scores, kept = kept_bytes(lambda: forward_eval(params, x))
        assert scores.requires_grad
        return kept

    def sizes(self):
        n, (c, h, w), (c1, c2) = self.N, self.SPEC.input_shape, self.SPEC.channels
        pooled = n * (c1 * h * w // 4 + c2 * h * w // 16)
        # both blocks' pooled float64 outputs and one uint8 routing code per
        # pooled element (no pre-activation), then fc's matmul and bias add
        activations = 8 * pooled + pooled + 8 * n * 2 * self.SPEC.n_classes
        # for dW: conv1, whose input needs no gradient, keeps its padded
        # input (padding 1); conv2 keeps its unfold
        for_dw = 8 * n * (c * (h + 2) * (w + 2) + 9 * c1 * h * w // 4)
        return activations, for_dw

    def test_frozen_weights_keep_activations_only(self, rng):
        # the saliency and search passes: only the input requires grad
        params = init_model(self.SPEC).frozen()
        x = Tensor(rng.uniform(0, 1, (self.N, *self.SPEC.input_shape)), requires_grad=True)
        activations, _ = self.sizes()
        assert activations <= self.graph_bytes(params, x) <= activations + 2**20

    def test_trainable_weights_keep_conv1_padded_input_and_conv2_unfold(self, rng):
        # about 23.1 MiB; 34.9 while conv1 kept its unfold, 9x its input
        params = init_model(self.SPEC)
        x = rng.uniform(0, 1, (self.N, *self.SPEC.input_shape))
        activations, for_dw = self.sizes()
        assert activations + for_dw <= self.graph_bytes(params, x) <= activations + for_dw + 2**20

    def test_trainable_graph_keeps_no_batch(self, rng):
        # the training loss's clean graph: no backward reads the batch, so
        # the graph does not keep it once the caller drops it
        params = init_model(self.SPEC)
        x = rng.uniform(0, 1, (self.N, *self.SPEC.input_shape))
        ref = weakref.ref(x)
        scores = forward_eval(params, x)
        del x
        assert ref() is None
        tsum(scores).backward()
        assert all(t.grad is not None for _, t in params.items())


class TestPredictProba:
    def test_simplex(self, rng):
        spec = ModelSpec("mlp", (1, 4, 4), 6, seed=5)
        params = init_model(spec)
        p = predict_proba(params, rng.uniform(0, 1, (20, 1, 4, 4)))
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_weights_uniform(self):
        spec = ModelSpec("mlp", (1, 1, 3), 4, hidden=())
        params = ParamSet.from_arrays(spec, {"fc0.w": np.zeros((3, 4)), "fc0.b": np.zeros(4)})
        np.testing.assert_allclose(predict_proba(params, np.array([[[0.3, 0.7, 0.1]]])), 0.25)

    def test_hand_built_two_feature(self):
        params = linear_model(np.eye(2))
        p = predict_proba(params, np.array([[[math.log(2.0), 0.0]]]))
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_argmax_matches_scores(self, rng):
        spec = ModelSpec("cnn", (1, 8, 8), 5, channels=(2, 3), seed=4)
        params = init_model(spec)
        x = rng.uniform(0, 1, (30, 1, 8, 8))
        s = scores_np(params, x)
        p = predict_proba(params, x)
        assert np.array_equal(s.argmax(axis=1), p.argmax(axis=1))

    def test_one_forward_and_no_scores_np(self, rng, monkeypatch):
        # a tracer wrapping both public names counts each prediction once
        params = init_model(ModelSpec("cnn", (1, 8, 8), 5, channels=(2, 3), seed=4))
        x = rng.uniform(0, 1, (3, 1, 8, 8))
        want = [softmax_np(scores_np(params, b), axis=-1) for b in (x, x[0])]
        calls = []
        forward = models.forward_eval
        monkeypatch.setattr(models, "scores_np", lambda *args: calls.append("scores_np"))
        monkeypatch.setattr(models, "forward_eval", lambda *args: calls.append("forward_eval") or forward(*args))
        got = [predict_proba(params, b) for b in (x, x[0])]
        assert calls == ["forward_eval", "forward_eval"]
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)

    def test_pure_function(self, rng):
        spec = ModelSpec("mlp", (1, 2, 2), 2, seed=0)
        params = init_model(spec)
        x = rng.uniform(0, 1, (4, 1, 2, 2))
        assert np.array_equal(predict_proba(params, x), predict_proba(params, x))
