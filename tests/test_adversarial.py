import math

import numpy as np
import pytest

from scaat import adversarial
from scaat.adversarial import (
    AdvConfig,
    _objective,
    fgsm_masked,
    js_bits,
    js_bits_np,
    kl_div,
    perturb_batch,
    pgd_masked,
)
from scaat.autodiff import Tensor, softmax, softmax_np
from scaat.models import ModelSpec, forward_eval, init_model, predict_proba
from scaat.saliency import batch_gsmap_scores
from scaat.training import _batch_loss
from scaat import seeds
from conftest import linear_model

# frozen oracle values, evaluated directly from the definition
KL_HALF_QUARTER = 1.0 - 0.5 * math.log2(3.0)      # 0.20751874963942187
JS_DISJOINT_FLOORED = math.log2(1e12)             # flooring keeps it finite


def random_simplex(rng, n):
    p = rng.exponential(size=n)
    return p / p.sum()


class TestDivergences:
    def test_kl_self_zero(self, rng):
        for _ in range(50):
            p = random_simplex(rng, 6)
            assert kl_div(p, p) == 0.0

    def test_kl_derived_values(self):
        got = kl_div([0.5, 0.5], [0.25, 0.75])
        assert abs(got - KL_HALF_QUARTER) < 1e-12
        assert abs(got - 0.20752) < 5e-6
        assert abs(kl_div([1.0, 0.0], [0.5, 0.5]) - 1.0) < 1e-12

    def test_kl_nonnegative(self, rng):
        for _ in range(200):
            p, q = random_simplex(rng, 5), random_simplex(rng, 5)
            assert kl_div(p, q) >= 0.0

    def test_js_symmetry_and_self(self, rng):
        for _ in range(100):
            p, q = random_simplex(rng, 4), random_simplex(rng, 4)
            assert float(js_bits_np(p, p)) == 0.0
            np.testing.assert_allclose(float(js_bits_np(p, q)), float(js_bits_np(q, p)), rtol=1e-12)

    def test_js_disjoint_under_flooring(self):
        np.testing.assert_allclose(float(js_bits_np([1.0, 0.0], [0.0, 1.0])), JS_DISJOINT_FLOORED, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            kl_div([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_simplex_validation(self):
        with pytest.raises(ValueError, match="sums to"):
            kl_div([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            kl_div([-0.1, 1.1], [0.5, 0.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        # NaN fails both the sign and the sum check, so it is named first
        with pytest.raises(ValueError, match="P has non-finite entries"):
            kl_div([value, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="Q has non-finite entries"):
            js_bits_np([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [1.0, value]])

    def test_vectorized_matches_scalar(self, rng):
        p = np.stack([random_simplex(rng, 5) for _ in range(8)])
        q = np.stack([random_simplex(rng, 5) for _ in range(8)])
        vec = js_bits_np(p, q)
        for i in range(8):
            np.testing.assert_allclose(vec[i], float(js_bits_np(p[i], q[i])), rtol=1e-12)

    def test_graph_pair_matches_plain(self, rng):
        p = np.stack([random_simplex(rng, 5) for _ in range(4)])
        q = np.stack([random_simplex(rng, 5) for _ in range(4)])
        got = js_bits(Tensor(p), Tensor(q)).data
        lp, lq = np.log(np.maximum(p, 1e-12)), np.log(np.maximum(q, 1e-12))
        plain = 0.5 * ((p * (lp - lq)).sum(axis=1) + (q * (lq - lp)).sum(axis=1)) / math.log(2.0)
        np.testing.assert_allclose(got, plain, rtol=1e-12)
        np.testing.assert_array_equal(got, js_bits_np(p, q))


def tiny_model(seed=0):
    return init_model(ModelSpec("mlp", (1, 2, 2), 3, hidden=(6,), seed=seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            AdvConfig(epsilon=-0.1)
        with pytest.raises(ValueError, match="k must"):
            AdvConfig(k=0)
        with pytest.raises(ValueError, match="alpha"):
            AdvConfig(alpha=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                AdvConfig(epsilon=bad)
            with pytest.raises(ValueError, match="alpha must be finite"):
                AdvConfig(alpha=bad)
        with pytest.raises(ValueError, match="variant"):
            AdvConfig(variant="bim")

    def test_default_step(self):
        assert AdvConfig(epsilon=0.2).step_size == 0.1
        assert AdvConfig(epsilon=0.2, alpha=0.05).step_size == 0.05


class TestSearchContracts:
    def test_zero_epsilon(self, rng):
        params = tiny_model()
        x = rng.uniform(0, 1, (1, 2, 2))
        pert = pgd_masked(params, x, 0, AdvConfig(epsilon=0.0), np.arange(4), rng=3)
        np.testing.assert_array_equal(pert.delta, 0.0)
        assert pert.objective == 0.0

    def test_empty_mask(self, rng):
        params = tiny_model()
        x = rng.uniform(0, 1, (1, 2, 2))
        pert = pgd_masked(params, x, 1, AdvConfig(epsilon=0.1), np.array([], dtype=np.int64), rng=3)
        np.testing.assert_array_equal(pert.delta, 0.0)
        assert pert.objective == 0.0

    def test_variant_mismatch(self, rng):
        params = tiny_model()
        with pytest.raises(ValueError, match="variant"):
            pgd_masked(params, np.zeros((1, 2, 2)), 0, AdvConfig(variant="fgsm"), np.arange(4))
        with pytest.raises(ValueError, match="variant"):
            fgsm_masked(params, np.zeros((1, 2, 2)), 0, AdvConfig(variant="pgd"), np.arange(4))

    def test_mask_index_validation(self):
        params = tiny_model()
        with pytest.raises(ValueError, match="out of range"):
            pgd_masked(params, np.zeros((1, 2, 2)), 0, AdvConfig(), np.array([4]))

    @pytest.mark.parametrize("variant", ["pgd", "fgsm"])
    def test_constraints_exact(self, variant, rng):
        # acceptance runs the full 1000; this is the fast sample
        for trial in range(60):
            params = tiny_model(seed=trial % 5)
            x = rng.uniform(0, 1, (1, 2, 2))
            eps = float(rng.choice([2 / 255, 8 / 255, 0.1]))
            mask = np.flatnonzero(rng.uniform(size=4) < 0.5)
            cfg = AdvConfig(epsilon=eps, k=2, variant=variant)
            fn = pgd_masked if variant == "pgd" else fgsm_masked
            pert = fn(params, x, 0, cfg, mask, rng=int(rng.integers(1 << 30)))
            assert np.abs(pert.delta).max() <= eps
            off = np.setdiff1d(np.arange(4), mask)
            assert np.all(pert.delta.reshape(1, 4)[:, off] == 0.0)
            assert np.all((x + pert.delta >= 0) & (x + pert.delta <= 1))

    def test_fgsm_magnitudes(self, rng):
        params = tiny_model(seed=2)
        x = rng.uniform(0.3, 0.7, (1, 2, 2))  # interior: range clip inactive
        eps = 0.05
        mask = np.array([0, 2])
        pert = fgsm_masked(params, x, 1, AdvConfig(epsilon=eps, variant="fgsm"), mask, rng=9)
        flat = pert.delta.reshape(4)
        nz = flat[flat != 0]
        np.testing.assert_allclose(np.abs(nz), eps, rtol=1e-12)
        assert flat[1] == 0.0 and flat[3] == 0.0

    def test_fgsm_zero_gradient_zero_delta(self, rng):
        params = linear_model(np.zeros((4, 2)))  # constant model, gradient 0 everywhere
        x = rng.uniform(0, 1, (1, 1, 4))
        pert = fgsm_masked(params, x, 0, AdvConfig(epsilon=0.1, variant="fgsm"), np.arange(4), rng=5)
        np.testing.assert_array_equal(pert.delta, 0.0)

    def test_pgd_one_step_equals_fgsm(self, rng):
        # alpha = 2 eps guarantees the single clipped step saturates the
        # budget from any start, matching the signed full-magnitude step
        for seed in range(5):
            params = tiny_model(seed=seed)
            x = rng.uniform(0.3, 0.7, (1, 2, 2))
            eps = 0.03
            mask = np.arange(4)
            p = pgd_masked(params, x, 0, AdvConfig(epsilon=eps, k=1, alpha=2 * eps), mask, rng=seed + 100)
            f = fgsm_masked(params, x, 0, AdvConfig(epsilon=eps, variant="fgsm"), mask, rng=seed + 100)
            np.testing.assert_array_equal(p.delta, f.delta)

    def test_caller_p_clean_checked(self, rng):
        params = tiny_model(seed=3)
        x = rng.uniform(0, 1, (2, 1, 2, 2))
        masks = np.ones((2, 4), dtype=bool)
        cfg = AdvConfig(epsilon=0.1, k=2)
        good = predict_proba(params, x)
        nan_row = np.where([[True], [False]], np.nan, good)
        for bad, message in (
            (good * 1.5, "sums to"), (-good, "negative"), (good[:1], "mismatch"), (nan_row, "P has non-finite"),
        ):
            with pytest.raises(ValueError, match=message):
                perturb_batch(params, x, cfg, masks, seeds.stream(0, seeds.PGD), p_clean=bad)

    @pytest.mark.parametrize("search, variant", [(pgd_masked, "pgd"), (fgsm_masked, "fgsm")], ids=["pgd", "fgsm"])
    def test_single_passes_the_computed_p_clean(self, search, variant, rng):
        # the one-sample searches predict p_clean themselves; the result is
        # the batch search's with p_clean computed from the search's forward
        params = tiny_model(seed=3)
        x = rng.uniform(0, 1, (1, 2, 2))
        cfg = AdvConfig(epsilon=0.1, k=2, variant=variant)
        given = search(params, x, 0, cfg, np.arange(4), rng=5)
        computed = softmax(forward_eval(params.frozen(), x[None])).data
        delta, obj, probs = perturb_batch(params, x[None], cfg, np.ones((1, 4), bool), seeds.stream(5, seeds.PGD), p_clean=computed)
        for a, b in zip((given.delta, given.objective, given.adv_proba), (delta, obj, probs.data)):
            np.testing.assert_array_equal(a, b[0])

    @pytest.mark.parametrize(
        "spec, cfg",
        [
            (ModelSpec("mlp", (1, 2, 2), 3, hidden=(6,), seed=8), dict(epsilon=0.3, alpha=0.6)),
            (ModelSpec("cnn", (3, 8, 8), 4, channels=(4, 6), seed=3), dict(epsilon=0.1)),
        ],
        ids=["mlp", "cnn"],
    )
    def test_more_steps_never_score_lower(self, spec, cfg, rng):
        # Same seed, same start: a k = j search's iterates are the first j
        # of the k = 5 search's, so best-of selection can only gain. These
        # settings have iterates that score below an earlier one.
        params = init_model(spec)
        x = rng.uniform(0, 1, (8, *spec.input_shape))
        masks = np.ones((8, spec.input_shape[1] * spec.input_shape[2]), dtype=bool)

        def obj(k):
            return perturb_batch(params, x, AdvConfig(k=k, **cfg), masks, seeds.stream(7, seeds.PGD), predict_proba(params, x))[1]

        full = obj(5)
        for j in range(1, 5):
            assert np.all(full >= obj(j))

    def test_deterministic_given_seed(self, rng):
        params = tiny_model(seed=1)
        x = rng.uniform(0, 1, (1, 2, 2))
        a = pgd_masked(params, x, 0, AdvConfig(epsilon=0.1), np.arange(4), rng=77)
        b = pgd_masked(params, x, 0, AdvConfig(epsilon=0.1), np.arange(4), rng=77)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_objective_monotone_in_epsilon(self, rng):
        hits = total = 0
        for case in range(40):
            params = tiny_model(seed=case)
            x = rng.uniform(0, 1, (1, 2, 2))
            mask = np.flatnonzero(rng.uniform(size=4) < 0.7)
            objs = []
            for eps in (0.0, 2 / 255, 4 / 255, 8 / 255):
                pert = pgd_masked(params, x, 0, AdvConfig(epsilon=eps), mask, rng=case)
                objs.append(pert.objective)
            total += 1
            hits += all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        assert hits / total >= 0.95


def project(delta, x, eps, mask_pix):
    """The search's projection, with its range bounds taken from x."""
    return np.clip(np.clip(delta, -eps, eps) * mask_pix, -x, 1.0 - x)


def two_branch_search(params, x, cfg, masks, rng, p_clean=None):
    """The search as it stood with a separate FGSM branch beside the PGD
    loop, kept as the bitwise oracle for the single loop; it computes
    ``p_clean`` from its own forward when not given."""
    frozen = params.frozen()
    n, c, h, w = x.shape
    mask_pix = masks.reshape(n, 1, h, w)
    eps = cfg.epsilon
    if p_clean is None:
        p_clean = softmax(forward_eval(frozen, x)).data
    draw = rng.uniform(-eps, eps, size=x.shape) * mask_pix
    d_plus = project(draw, x, eps, mask_pix)
    d_minus = project(-draw, x, eps, mask_pix)
    j_plus = _objective(frozen, x + d_plus, p_clean)[0]
    j_minus = _objective(frozen, x + d_minus, p_clean)[0]
    delta = np.where((j_plus >= j_minus)[:, None, None, None], d_plus, d_minus)

    if cfg.variant == "fgsm":
        grad = _objective(frozen, x + delta, p_clean, grad=True)[1]
        delta = project(eps * np.sign(grad) * mask_pix, x, eps, mask_pix)
        obj, _, probs = _objective(frozen, x + delta, p_clean)
        return delta, obj, probs.data

    alpha = cfg.step_size
    cand_deltas = np.empty((cfg.k, *x.shape))
    cand_objs = np.empty((cfg.k, n))
    cand_probs = np.empty((cfg.k, n, p_clean.shape[-1]))
    for t in range(cfg.k):
        obj, grad, probs = _objective(frozen, x + delta, p_clean, grad=True)
        if t > 0:
            cand_objs[t - 1] = obj
            cand_probs[t - 1] = probs.data
        delta = project(delta + alpha * np.sign(grad), x, eps, mask_pix)
        cand_deltas[t] = delta
    cand_objs[-1], _, probs = _objective(frozen, x + delta, p_clean)
    cand_probs[-1] = probs.data
    best = cand_objs.argmax(axis=0)
    rows = np.arange(n)
    return cand_deltas[best, rows], cand_objs[best, rows], cand_probs[best, rows]


SEARCH_MODELS = {
    "cnn": ModelSpec("cnn", (3, 8, 8), 4, channels=(4, 6), seed=3),
    "mlp": ModelSpec("mlp", (1, 6, 6), 3, hidden=(10,), seed=4),
}


class TestSingleLoop:
    @pytest.mark.parametrize("arch", sorted(SEARCH_MODELS))
    @pytest.mark.parametrize(
        "cfg",
        [
            AdvConfig(epsilon=0.1, k=1),
            AdvConfig(epsilon=0.1, k=4),
            AdvConfig(epsilon=0.05, k=1, alpha=0.1),
            AdvConfig(epsilon=0.2, k=4, alpha=0.4),
            AdvConfig(epsilon=0.0, k=4),
            AdvConfig(epsilon=0.1, variant="fgsm"),
            AdvConfig(epsilon=0.0, variant="fgsm"),
        ],
        ids=["pgd1", "pgd4", "pgd1-alpha2eps", "pgd4-alpha2eps", "pgd4-eps0", "fgsm", "fgsm-eps0"],
    )
    @pytest.mark.parametrize("zero_grad", [False, True], ids=["model", "zero-grad"])
    @pytest.mark.parametrize("foreign_p", [False, True], ids=["own-p", "foreign-p"])
    def test_matches_two_branch_oracle(self, arch, cfg, zero_grad, foreign_p, rng):
        # A foreign reference distribution gives a nonzero gradient at the
        # clean input, so at epsilon 0 the steps are signed zeros whose
        # sign bits must survive.
        spec = SEARCH_MODELS[arch]
        params = init_model(spec)
        if zero_grad:  # constant scores: the gradient is exactly zero everywhere
            for _, t in params.items():
                t.data[...] = 0.0
        x = rng.uniform(0, 1, (5, *spec.input_shape))
        masks = rng.uniform(size=(5, spec.input_shape[1] * spec.input_shape[2])) < 0.6
        p_clean = np.stack([random_simplex(rng, spec.n_classes) for _ in range(5)]) if foreign_p else predict_proba(params, x)
        delta, obj, probs = perturb_batch(params, x, cfg, masks, seeds.stream(11, seeds.PGD), p_clean=p_clean)
        want = two_branch_search(params, x, cfg, masks, seeds.stream(11, seeds.PGD), p_clean=p_clean if foreign_p else None)
        for a, b in zip((delta, obj, probs.data), want):
            np.testing.assert_array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("arch", sorted(SEARCH_MODELS))
    @pytest.mark.parametrize(
        "cfg, earlier_best",
        [
            (AdvConfig(epsilon=0.1, k=3), False),
            (AdvConfig(epsilon=0.05, k=4, alpha=0.15), True),
            (AdvConfig(epsilon=0.1, variant="fgsm"), False),
        ],
        ids=["pgd", "pgd-alpha3eps", "fgsm"],
    )
    def test_objective_is_loss_js(self, arch, cfg, earlier_best, rng, monkeypatch):
        # Training logs L_adv from the search objective and builds its loss
        # on the returned softmax graph: the objective must be the loss's JS
        # term, and that loss must be the one a fresh forward at x + delta
        # gives, in value and in every parameter gradient, bit for bit.
        spec = SEARCH_MODELS[arch]
        params = init_model(spec)
        x = rng.uniform(0, 1, (6, *spec.input_shape))
        y = rng.integers(0, spec.n_classes, 6)
        masks = rng.uniform(size=(6, spec.input_shape[1] * spec.input_shape[2])) < 0.5
        forwards = []
        monkeypatch.setattr(adversarial, "forward_eval", lambda *a: forwards.append(1) or forward_eval(*a))
        p_train = softmax_np(batch_gsmap_scores(params, x, y)[1], axis=-1)
        steps = cfg.k if cfg.variant == "pgd" else 1
        for p_clean in (predict_proba(params, x), p_train):
            forwards.clear()
            delta, obj, probs = perturb_batch(params, x, cfg, masks, seeds.stream(2, seeds.PGD), p_clean=p_clean)
            # one more forward exactly when some row's best iterate is an earlier one
            assert len(forwards) == steps + 3 + earlier_best
            loss_js = js_bits(softmax(forward_eval(params, x + delta)), softmax(forward_eval(params, x))).data
            np.testing.assert_array_equal(obj, loss_js)
            results = []
            for probs_adv in (probs, softmax(forward_eval(params, x + delta))):
                loss = _batch_loss(params, x, probs_adv, y, 0.7)[0]
                loss.backward()
                results.append((loss.data, {name: t.grad for name, t in params.items()}))
                for _, t in params.items():
                    t.grad = None
            (reused, g_reused), (fresh, g_fresh) = results
            assert reused.tobytes() == fresh.tobytes()
            for name, g in g_fresh.items():
                assert g_reused[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("arch", sorted(SEARCH_MODELS))
    def test_running_best_keeps_argmax_ties_and_nans(self, arch, rng, monkeypatch):
        # Scripted objectives, one column per row, one line per PGD-4
        # iterate: equal values keep the earlier iterate, and a NaN beats
        # any number, the first NaN kept, as argmax over the stack picks.
        nan = np.nan
        script = np.array([
            [0.5, 0.1, 0.1, nan, 0.2, 0.4],
            [0.5, 0.7, nan, nan, 0.3, 0.2],
            [0.5, 0.7, 0.9, 0.3, 0.3, 0.4],
            [0.5, 0.2, nan, 0.3, nan, 0.9],
        ])
        k, n = script.shape
        spec = SEARCH_MODELS[arch]
        params = init_model(spec)
        x = rng.uniform(0, 1, (n, *spec.input_shape))
        masks = rng.uniform(size=(n, spec.input_shape[1] * spec.input_shape[2])) < 0.6
        inputs, objective = [], adversarial._objective

        def scripted(params, x_adv, p_clean, grad=False):
            js, g, probs = objective(params, x_adv, p_clean, grad)
            inputs.append(x_adv)
            # calls: two starts, then each step scores the iterate before it
            # and the last call the final iterate; iterate t is call t + 3
            t = len(inputs) - 4
            return (script[t].copy() if 0 <= t < k else js), g, probs

        monkeypatch.setattr(adversarial, "_objective", scripted)
        cfg = AdvConfig(epsilon=0.1, k=k)
        delta, obj, probs = perturb_batch(params, x, cfg, masks, seeds.stream(4, seeds.PGD), predict_proba(params, x))
        best, rows = script.argmax(axis=0), np.arange(n)
        assert best.tolist() == [0, 1, 1, 0, 3, 3]
        np.testing.assert_array_equal(obj, script[best, rows])
        iterates = np.stack(inputs[3 : 3 + k])
        assert (x + delta).tobytes() == iterates[best, rows].tobytes()
        assert inputs[-1].tobytes() == (x + delta).tobytes()
        assert probs.data.tobytes() == softmax(forward_eval(params, x + delta)).data.tobytes()


def grid_oracle(params, x, mask_idx, eps, grid=0.01):
    """Exhaustive search over one masked feature, the independent oracle."""
    flat = x.reshape(-1)
    p_clean = predict_proba(params, x)
    best = 0.0
    for d in np.arange(-eps, eps + grid / 2, grid):
        cand = flat.copy()
        cand[mask_idx] = np.clip(cand[mask_idx] + d, 0.0, 1.0)
        best = max(best, float(js_bits_np(predict_proba(params, cand.reshape(x.shape)), p_clean)))
    return best


class TestGridOracle:
    def test_pgd_near_bruteforce_max(self, rng):
        # acceptance runs 200 cases; mirror-start ascent must track the
        # exhaustive grid despite the one-sided objective asymmetry
        ok = total = 0
        for case in range(40):
            w = rng.normal(0, 1.0, (2, 2))
            params = linear_model(w, b=rng.normal(0, 1.0, 2))
            x = rng.uniform(0.35, 0.65, (1, 1, 2))
            mask_idx = int(rng.integers(2))
            eps = 0.3
            oracle = grid_oracle(params, x, mask_idx, eps)
            pert = pgd_masked(
                params, x, 0, AdvConfig(epsilon=eps, k=4), np.array([mask_idx]), rng=case
            )
            total += 1
            if pert.objective >= 0.95 * oracle:
                ok += 1
        assert ok / total >= 0.95
