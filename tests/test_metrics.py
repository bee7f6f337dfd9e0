import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BoundaryModel, ConstantModel, LinearPooledModel,
                      TailRoundingModel, _two_class, exact_soft_value,
                      indicator_embeddings, planted_token_model,
                      reference_gini,
                      reference_normalize, reference_sensitivity,
                      reference_soft_rows, reference_sparsity,
                      random_tiny_model, scaled_classifier)
from explaudit import attribution as attrib
from explaudit import metrics as met
from explaudit import textmodel as tm
from explaudit.errors import ConfigError


def _attr(scores, method="GXI", target=1):
    scores = np.asarray(scores, dtype=float)
    return attrib.Attribution(method, [f"t{i}" for i in range(len(scores))],
                              scores, target)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"thresholds": ()}, {"thresholds": (0.2, 0.1)},
        {"thresholds": (0.0, 0.5)}, {"thresholds": (0.5, 1.1)},
        {"sparsity_tau": 0.0}, {"soft_samples": 0},
    ])
    def test_invalid_metric_config(self, kwargs):
        with pytest.raises(ConfigError):
            met.MetricConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"radius": -1.0}, {"steps": 0}, {"restarts": 0}, {"restarts": -1},
        {"step_size": 0.0}, {"step_size": -0.1},
    ])
    def test_invalid_pgd_config(self, kwargs):
        with pytest.raises(ConfigError):
            met.PGDConfig(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda x: met.PGDConfig(radius=x),
        lambda x: met.PGDConfig(step_size=x),
        lambda x: met.MetricConfig(thresholds=(0.5, x)),
        lambda x: met.MetricConfig(sparsity_tau=x),
        lambda x: attrib.AttributionConfig(lime_kernel_width=x),
    ], ids=["radius", "step_size", "thresholds", "sparsity_tau",
            "lime_kernel_width"])
    def test_non_finite_rejected(self, make, bad):
        # a NaN compares False everywhere, so each check must fail on it
        with pytest.raises(ConfigError):
            make(bad)


class TestAopcComprehensiveness:
    def test_all_zero_attribution(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (4, 3))
        assert met.evaluate("comprehensiveness", model, X,
                            _attr([0, 0, 0, 0])) == 0

    def test_constant_model(self):
        X = indicator_embeddings(3)
        v = met.evaluate("comprehensiveness", ConstantModel(0.6), X,
                         _attr([1, 0, 0]))
        assert v == 0

    def test_planted_single_feature(self):
        # removing the scored token drops p from 0.8 to 0.5 at every threshold
        model = planted_token_model([0.3, 0.0, 0.0])
        X = indicator_embeddings(3)
        v = met.evaluate("comprehensiveness", model, X, _attr([1.0, 0.0, 0.0]))
        assert v == pytest.approx(0.3, abs=1e-9)

    def test_in_unit_interval(self, rng):
        for _ in range(10):
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (4, 3))
            v = met.evaluate("comprehensiveness", model, X,
                             _attr(rng.uniform(-1, 1, 4)))
            assert 0.0 <= v <= 1.0


class TestAopcSufficiency:
    def test_everything_kept(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (4, 3))
        assert met.evaluate("sufficiency", model, X, _attr([1, 1, 1, 1])) == 0

    def test_constant_model(self):
        X = indicator_embeddings(2)
        assert met.evaluate("sufficiency", ConstantModel(), X,
                            _attr([1, 0])) == 0

    def test_kept_token_carries_effect(self):
        model = planted_token_model([0.3, 0.0, 0.0])
        X = indicator_embeddings(3)
        v = met.evaluate("sufficiency", model, X, _attr([1.0, 0.0, 0.0]))
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_effect_token_always_dropped(self):
        model = planted_token_model([0.3, 0.0, 0.0])
        X = indicator_embeddings(3)
        v = met.evaluate("sufficiency", model, X, _attr([0.0, 1.0, 0.0]))
        assert v == pytest.approx(0.3, abs=1e-9)


class TestAopcTies:
    @pytest.mark.parametrize("metric", ["comprehensiveness", "sufficiency"])
    def test_top_scores_one_ulp_apart_count_as_tied(self, metric):
        # both top tokens carry effect, so removing one of them alone at
        # threshold 1.0 would move the value
        model = planted_token_model([0.3, 0.2, 0.0])
        X = indicator_embeddings(3)
        tied = met.evaluate(metric, model, X, _attr([1.0, 1.0, 0.2]))
        apart = met.evaluate(metric, model, X,
                             _attr([1.0, np.nextafter(1.0, 0.0), 0.2]))
        assert tied == apart


class TestSoftMetrics:
    def test_retain_everything(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        assert met.evaluate("soft_sufficiency", model, X,
                            _attr([1, 1, 1])) == 1.0

    def test_constant_model_sufficiency(self):
        X = indicator_embeddings(3)
        v = met.evaluate("soft_sufficiency", ConstantModel(0.8), X,
                         _attr([1, 0.5, 0]))
        assert v == 1.0

    def test_zero_scores_comprehensiveness(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        assert met.evaluate("soft_comprehensiveness", model, X,
                            _attr([0, 0, 0])) == 0.0

    def test_constant_model_comprehensiveness(self):
        X = indicator_embeddings(2)
        v = met.evaluate("soft_comprehensiveness", ConstantModel(0.3), X,
                         _attr([1, 0]))
        assert v == 0.0

    def test_exact_enumeration_oracle(self):
        # retain prob 0.5 for token 0 after max-normalization of (0.5, 1.0)
        model = LinearPooledModel([0.2, -0.1], base=0.5)
        X = indicator_embeddings(2)
        a = _attr([0.5, 1.0])
        cfg = met.MetricConfig(soft_samples=4096)
        q = attrib.normalize_scores(a)
        exact_s = exact_soft_value(model, X, q, 1, "sufficiency")
        got = met.evaluate("soft_sufficiency", model, X, a, cfg)
        assert got == pytest.approx(exact_s, abs=0.03)  # ~3 standard errors

        exact_c = exact_soft_value(model, X, 1.0 - q, 1, "comprehensiveness")
        got_c = met.evaluate("soft_comprehensiveness", model, X, a, cfg)
        assert got_c == pytest.approx(exact_c, abs=0.03)

    def test_shared_mask_complementarity(self, rng):
        # normalized scores of (0,1,2) are (0,0.5,1); of (2,1,0) they are
        # the complement, so with a shared seed the same element masks are
        # drawn and Soft-C(complement) = 1 - Soft-S identically.
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        cfg = met.MetricConfig(soft_samples=32, soft_seed=9)
        s = met.evaluate("soft_sufficiency", model, X,
                         _attr([0.0, 1.0, 2.0]), cfg)
        c = met.evaluate("soft_comprehensiveness", model, X,
                         _attr([2.0, 1.0, 0.0]), cfg)
        assert c == pytest.approx(1.0 - s, abs=1e-12)


class TestScoreInput:
    @pytest.mark.parametrize("model", [
        LinearPooledModel([0.2, -0.1, 0.05], base=0.5), ConstantModel(0.7)])
    @pytest.mark.parametrize("metrics", [
        met.METRICS[:-1], ("soft_sufficiency", "gini", "sufficiency")])
    def test_batch_matches_one_attribution_calls(self, model, metrics, rng):
        # every cell is a one-cell evaluate seeded by the input seed
        X = indicator_embeddings(3)
        attrs = [_attr(rng.uniform(-1, 1, 3)) for _ in range(4)]
        cfg = met.MetricConfig(soft_samples=8)
        got = met.score_input(model, X, attrs, metrics, cfg, seed=7)
        assert len(got) == len(attrs)
        one = replace(cfg, soft_seed=7)
        for k, attr in enumerate(attrs):
            for i, metric in enumerate(metrics):
                assert got[k][i] == met.evaluate(metric, model, X, attr, one)

    def test_sensitivity_cell_is_evaluate(self, rng):
        # a sensitivity cell is evaluate's PGD search with the input seed
        # as its PGD seed and the attribution's own method and config; a
        # soft cell is evaluate's draw with the input seed as soft seed
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (5, 3))
        attrs = [attrib.explain(m, model, X, 1, attrib.AttributionConfig(
                     lime_samples=64, seed=s))
                 for m, s in zip(("GXI", "LIME", "SHAP"), (1, 2, 3))]
        metrics = ("gini", "sensitivity", "soft_sufficiency")
        cfg = met.MetricConfig(soft_samples=4, pgd=met.PGDConfig(steps=3))
        got = met.score_input(model, X, attrs, metrics, cfg, seed=7)
        one = replace(cfg, soft_seed=7, pgd=replace(cfg.pgd, seed=7))
        for k, attr in enumerate(attrs):
            want = met.evaluate("sensitivity", model, X, attr, one)
            assert got[k][1] == want
            assert got[k][1] != met.evaluate("sensitivity", model, X, attr,
                                             cfg)
            assert got[k][2] == met.evaluate("soft_sufficiency", model, X,
                                             attr, one)

    @pytest.mark.parametrize("kind", ["tiny", "tail"])
    def test_cell_independent_of_other_cells(self, rng, kind):
        # a cell's bits depend only on the input, its attribution and the
        # seed: scoring it with more or fewer other cells never moves it
        n = 9
        metrics = met.METRICS if kind == "tiny" else met.METRICS[:-1]
        cfg = met.MetricConfig(soft_samples=5, pgd=met.PGDConfig(steps=2))
        for _ in range(5):
            if kind == "tiny":
                model, X = random_tiny_model(rng), rng.uniform(-1, 1, (n, 3))
            else:
                model = TailRoundingModel(rng)
                X = rng.uniform(-1, 1, (n, 16))
            attrs = [_attr(rng.uniform(-1, 1, n)) for _ in range(6)]
            full = met.score_input(model, X, attrs, metrics, cfg, seed=3)
            for keep in ([1], [0, 4], [2, 3, 5], [5]):
                for some in (metrics[:4], metrics[2:], metrics[3:4],
                             ("sufficiency", "soft_comprehensiveness")):
                    got = met.score_input(model, X, [attrs[k] for k in keep],
                                          some, cfg, seed=3)
                    for row, k in zip(got, keep):
                        assert row == [full[k][metrics.index(m)]
                                       for m in some]

    def test_mixed_target_classes_rejected(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        attrs = [attrib.explain("GXI", model, X, t) for t in (0, 1)]
        with pytest.raises(ConfigError, match="different classes"):
            met.score_input(model, X, attrs, ("gini",))

    def test_batch_rows_of_different_lengths_rejected(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 4, 3))
        attrs = [[attrib.explain(m, model, x, 1) for m in methods]
                 for x, methods in zip(X, (["GXI", "IG"], ["GXI"],
                                           ["GXI", "IG", "IGXI"]))]
        with pytest.raises(ConfigError, match="numbers of attributions"):
            met.score_input(model, X, attrs, ("gini",))


class TestExplainedClass:
    """Metrics score the class an attribution explains, also when the
    model predicts the other one."""

    def test_faithfulness_uses_attribution_class(self):
        # presence masks: p1 = 0.5 + 0.2 x0 - 0.1 x1 + 0.05 x2 is 0.65
        # (class 1 predicted); removing token 1 moves it to 0.75, so p0
        # drops by 0.1 and p1 does not drop
        model = LinearPooledModel([0.2, -0.1, 0.05], base=0.5)
        X = indicator_embeddings(3)
        for target, want in ((0, 0.1), (1, 0.0)):
            v = met.evaluate("comprehensiveness", model, X,
                             _attr([0.0, 1.0, 0.0], target=target))
            assert v == pytest.approx(want, abs=1e-12)

    def test_sensitivity_searches_attribution_class(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (4, 3))
        predicted = tm.forward(model, X).predicted_class
        acfg = attrib.AttributionConfig(lime_samples=64, seed=2)
        a = attrib.explain("LIME", model, X, 1 - predicted, acfg)
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=3))
        want = reference_sensitivity(model, "LIME", X, a, cfg,
                                     1 - predicted, acfg)
        assert met.sensitivity(model, X, a, cfg) == want
        assert want != reference_sensitivity(model, "LIME", X, a, cfg,
                                             predicted, acfg)


class TestSparsity:
    def test_direct_count(self):
        assert met.sparsity(_attr([0.5, 0.05, -0.2, 0.0])) == 0.5

    def test_all_zeros(self):
        assert met.sparsity(_attr([0.0, 0.0, 0.0])) == 0.0

    def test_boundary_inclusive(self):
        assert met.sparsity(_attr([0.1, -0.1, 0.1])) == 1.0

    def test_custom_tau(self):
        cfg = met.MetricConfig(sparsity_tau=0.3)
        assert met.sparsity(_attr([0.5, 0.2, 0.31, 0.29]), cfg) == 0.5


class TestGini:
    def test_uniform_is_zero(self):
        assert met.gini_index(_attr([0.25] * 4)) == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_one_hot_n4(self):
        assert met.gini_index(_attr([0, 0, 1, 0])) == pytest.approx(0.75)

    def test_hand_computed_pair(self):
        # shares (1/4, 3/4) ascending; 1 - 2*[(1/4)(1.5/2) + (3/4)(0.5/2)]
        # = 1 - 2*(0.1875 + 0.1875) = 0.25, matching the classical Gini
        # (mean absolute difference form: 2*2 / (2*4*2) = 0.25)
        assert met.gini_index(_attr([3.0, 1.0])) == pytest.approx(0.25)

    def test_sign_invariant(self):
        assert met.gini_index(_attr([-3.0, 1.0])) == pytest.approx(0.25)

    @pytest.mark.parametrize("value", [0.1, -3.7, 1e-300, 7e5])
    def test_constant_is_exactly_zero(self, value):
        # the paired terms of a constant vector cancel exactly, where the
        # rank form read about 1e-16
        for n in range(1, 41):
            assert met.gini_index(_attr([value] * n)) == 0.0

    def test_all_zero_warns(self):
        with pytest.warns(UserWarning):
            assert met.gini_index(_attr([0.0, 0.0])) == 0.0


class TestSensitivity:
    def test_zero_radius(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        cfg = met.MetricConfig(pgd=met.PGDConfig(radius=0.0))
        a = attrib.explain("GXI", model, X, 1)
        assert met.sensitivity(model, X, a, cfg) == 0.0

    def test_constant_explainer_exactly_zero(self):
        model = ConstantModel(0.7)
        X = indicator_embeddings(3)
        acfg = attrib.AttributionConfig(lime_samples=64, seed=4)
        a = attrib.explain("LIME", model, X, 1, acfg)
        cfg = met.MetricConfig(pgd=met.PGDConfig(radius=0.5, steps=3))
        v = met.sensitivity(model, X, a, cfg)
        assert v == 0.0

    def test_zero_attribution_is_missing(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (2, 3))
        v = met.sensitivity(model, X, _attr([0.0, 0.0]))
        assert math.isnan(v)

    def test_boundary_monotonicity(self):
        model = BoundaryModel()
        X = np.array([[1.4], [1.2]])  # mean 1.3, boundary at 1.0
        a = attrib.explain("GXI", model, X, 1)
        big = met.MetricConfig(pgd=met.PGDConfig(radius=1.0, steps=10))
        small = met.MetricConfig(pgd=met.PGDConfig(radius=0.1, steps=10))
        v_big = met.sensitivity(model, X, a, big)
        v_small = met.sensitivity(model, X, a, small)
        assert v_big > v_small


class TestSensitivityDesignReuse:
    """The PGD search runs its restarts as one stack and its re-explains
    reuse one memoized design; it must give the bits of re-explaining
    each restart from a fresh design at every step."""

    @pytest.mark.parametrize("n", [6, 13])  # SHAP exact / sampled
    @pytest.mark.parametrize("hook", [False, True])
    @pytest.mark.parametrize("method", attrib.METHODS)
    def test_equals_fresh_explain_loop(self, rng, method, hook, n):
        if hook:
            model = LinearPooledModel(rng.uniform(-0.1, 0.1, 3), base=0.5)
        else:
            model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (n, 3))
        acfg = attrib.AttributionConfig(seed=3)
        a = attrib.explain(method, model, X, 1, acfg)
        for restarts in (1, 2, 3):
            cfg = met.MetricConfig(pgd=met.PGDConfig(
                steps=3, restarts=restarts, seed=5))
            expected = reference_sensitivity(model, method, X, a, cfg, 1,
                                             acfg)
            assert met.sensitivity(model, X, a, cfg) == expected
            # GRAD of a linear model is the same for every input
            assert (expected == 0) == (hook and method == "GRAD")


class FlatBelowZeroModel:
    """p1 = 0.5 + 0.3 max(pooled_0, 0): the gradient is zero wherever
    pooled dimension 0 is at most 0."""

    def pooled_forward(self, pooled):
        x0 = np.asarray(pooled, dtype=float)[..., 0]
        return _two_class(0.5 + 0.3 * np.maximum(x0, 0.0))

    def pooled_grad(self, pooled, target):
        pooled = np.asarray(pooled, dtype=float)
        g = np.zeros_like(pooled)
        g[..., 0] = np.where(pooled[..., 0] > 0,
                             0.3 if target == 1 else -0.3, 0.0)
        return g


class NaNGradientModel:
    """p1 = 0.5 + 0.2 pooled_0, with a NaN gradient wherever pooled
    dimension 1 exceeds ``edge``."""

    def __init__(self, edge):
        self.edge = edge

    def pooled_forward(self, pooled):
        return _two_class(0.5 + 0.2 * np.asarray(pooled, dtype=float)[..., 0])

    def pooled_grad(self, pooled, target):
        pooled = np.asarray(pooled, dtype=float)
        g = np.zeros_like(pooled)
        g[..., 0] = 0.2 if target == 1 else -0.2
        g[pooled[..., 1] > self.edge] = np.nan
        return g


class TestSensitivityEdgeStacks:
    """Stacks where the per-restart norms and the path max take their
    other branches; each must keep the bits of the per-restart loop."""

    @pytest.mark.parametrize("method", ["LIME", "SHAP"])
    def test_zero_and_nonzero_gradient_restarts(self, rng, monkeypatch,
                                                method):
        model = FlatBelowZeroModel()
        X = rng.uniform(-1, 1, (6, 3))
        X[:, 0] = np.repeat(rng.uniform(0.2, 1.0, 3), 2) * [1, -1, 1, -1,
                                                             1, -1]
        assert X.mean(axis=0)[0] == 0  # restart 0 starts on the flat side
        acfg = attrib.AttributionConfig(lime_samples=64, seed=3)
        a = attrib.explain(method, model, X, 1, acfg)
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=3, restarts=4,
                                                 seed=6))
        grads = []
        grad = tm.grad_wrt_embeddings_matrix

        def spy(*args):
            grads.append(grad(*args))
            return grads[-1]

        monkeypatch.setattr(tm, "grad_wrt_embeddings_matrix", spy)
        got = met.sensitivity(model, X, a, cfg)
        monkeypatch.undo()
        assert any(not np.any(g[0]) and np.any(g[1:]) for g in grads)
        want = reference_sensitivity(model, method, X, a, cfg, 1, acfg)
        assert got == want and want > 0

    def test_nan_rows_on_path(self, rng):
        X = rng.uniform(-1, 1, (5, 3))
        model = NaNGradientModel(X.mean(axis=0)[1])
        a = attrib.explain("GXI", model, X, 1)
        assert np.all(np.isfinite(a.scores))
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=3, restarts=4,
                                                 seed=5))
        path = met._pgd_points(model, X, 1, cfg.pgd, cfg.pgd.seed)
        nan_rows = np.isnan(attrib.explain("GXI", model, path, 1).scores)
        assert nan_rows.any() and not nan_rows.all()
        want = reference_sensitivity(model, "GXI", X, a, cfg, 1)
        assert met.sensitivity(model, X, a, cfg) == want
        assert 0 < want < math.inf


def _copy_at(a, offset):
    """A contiguous copy of ``a`` whose data starts ``offset`` bytes past
    a 16-byte boundary."""
    buf = np.empty(a.nbytes + 16 + offset, dtype=np.uint8)
    start = -buf.ctypes.data % 16 + offset
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


class TestNorms:
    """Every L2 norm of the PGD search and of ``sensitivity`` sums its
    squares in numpy, with no BLAS dot, so its bits do not depend on where
    its operand lies in memory (Prescott's BLAS ``ddot`` rounds by the
    operands' 16-byte alignment)."""

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 30),
                           st.integers(1, 20)),
           broadcast=st.booleans(), exp=st.integers(-150, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_equal_per_slice_sum(self, shape, broadcast, exp, seed):
        # a gradient is a broadcast (R, 1, d) -> (R, n, d) view; with
        # d == 1 its flat rows have stride 0
        rng = np.random.default_rng(seed)
        r, n, d = shape
        a = rng.standard_normal((r, 1 if broadcast else n, d)) * 10.0**exp
        a = np.broadcast_to(a, shape)
        want = [np.sqrt(np.sum(x * x)) for x in np.ascontiguousarray(a)]
        for b in (a, _copy_at(a, 0), _copy_at(a, 8)):
            assert _same_bits(met._norms(b), want)

    @pytest.mark.parametrize("method", attrib.GRADIENT_METHODS)
    def test_sensitivity_of_a_stacked_row(self, method):
        # the audit scores a gradient attribution as a row of its stacked
        # explain; rows of 13 scores alternate between 16-byte-aligned and
        # 8-byte-offset starts, and a fresh copy of either gives the bits
        rng = np.random.default_rng(7)
        model = scaled_classifier(7)
        X = rng.normal(size=(4, 13, 16))
        stacked = attrib.explain(method, model, X, 1).scores
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=3, seed=5))
        for x, row in zip(X, stacked):
            got = [met.sensitivity(model, x, _attr(scores, method), cfg)
                   for scores in (row, _copy_at(row, 0), _copy_at(row, 8))]
            assert got[0] > 0 and _same_bits(got[1:], got[:1] * 2)


@st.composite
def score_stacks(draw):
    """(k, n) attribution scores whose rows are random, tied, constant or
    all zero, at scales from 1e-300 to 1e6."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["random", "ties", "constant", "zero"]))
        scale = 10.0 ** draw(st.integers(-300, 6))
        if kind == "random":
            row = [draw(st.floats(-1, 1)) for _ in range(n)]
        elif kind == "ties":
            row = [draw(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 3.0]))
                   for _ in range(n)]
        else:
            row = [0.0 if kind == "zero" else -1.5] * n
        rows.append(np.array(row) * scale)
    return np.array(rows)


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == \
        np.asarray(b, dtype=float).tobytes()


class TestRowWiseScores:
    """``score_input`` computes sparsity, Gini and the normalization of
    all attributions of an input row by row on one (k, n) array; each row
    must keep the bits of the one-attribution formulas."""

    @settings(max_examples=150, deadline=None)
    @given(stack=score_stacks(), tau_exp=st.integers(-300, 6))
    def test_rows_equal_one_attribution_calls(self, stack, tau_exp):
        cfg = met.MetricConfig(sparsity_tau=10.0 ** tau_exp)
        attrs = [_attr(row) for row in stack]
        zero_rows = int(np.sum(~np.any(stack != 0, axis=1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = met.score_input(None, np.zeros((stack.shape[1], 1)), attrs,
                                  ("sparsity", "gini"), cfg)
            ones = [(met.sparsity(a, cfg), met.gini_index(a)) for a in attrs]
        zero_warnings = [w for w in caught if "all-zero" in str(w.message)]
        assert len(zero_warnings) == 2 * zero_rows  # per row, in each pass
        norms = attrib.normalized(attrs)
        for row, attr, (sp, gi), one, norm in zip(stack, attrs, got, ones,
                                                  norms):
            assert _same_bits(sp, reference_sparsity(row, cfg.sparsity_tau))
            assert _same_bits(gi, reference_gini(row))
            assert _same_bits((sp, gi), one)
            assert _same_bits(norm, reference_normalize(row))
            assert _same_bits(attrib.normalize_scores(attr), norm)


class TestSoftRows:
    """The soft cells of ``score_input`` share one draw of the input seed
    and go with p(X) and the AOPC rows into one forward call; their pooled
    rows must equal each cell's own fresh draw and mean, bit for bit."""

    @pytest.mark.parametrize("default_model", [False, True])
    def test_rows_equal_reference_draws(self, rng, monkeypatch,
                                        default_model):
        n, samples = 7, 8
        if default_model:
            model = tm.init_model(20, seed=4)
            X = tm.embed(model, tm.TokenSeq(rng.integers(2, 20, n),
                                            [f"t{i}" for i in range(n)]))
        else:
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (n, 3))
        attrs = [attrib.explain(m, model, X, 1, attrib.AttributionConfig(
                     lime_samples=64, seed=k))
                 for k, m in enumerate(("GXI", "LIME", "SHAP"))]
        attrs.append(_attr(np.zeros(n)))
        metrics = ("comprehensiveness", "soft_comprehensiveness",
                   "sufficiency", "soft_sufficiency")
        cfg = met.MetricConfig(soft_samples=samples)
        batches = []
        forward_pooled = tm.forward_pooled

        def spy(model, pooled):
            batches.append(np.array(pooled))
            return forward_pooled(model, pooled)

        monkeypatch.setattr(tm, "forward_pooled", spy)
        got = met.score_input(model, X, attrs, metrics, cfg, seed=40)
        monkeypatch.undo()
        assert len(batches) == 1  # p(X) is a row of the one batch
        want = []
        for attr in attrs:
            q = reference_normalize(attr.scores)
            want += [reference_soft_rows(X, 1.0 - q, 40, samples),
                     reference_soft_rows(X, q, 40, samples)]
        start = 1 + 2 * len(attrs) * len(cfg.thresholds)  # p(X), AOPC
        start += -start % 4
        end = start + len(want) * samples
        assert len(batches[0]) % 4 == 0
        assert _same_bits(batches[0][start:end], np.concatenate(want))
        probs = tm.forward_pooled(model, batches[0])[0][:, 1]
        drops = np.maximum(0.0, probs[0] - probs[start:end])
        for k, (comp, suff) in enumerate(
                drops.reshape(-1, samples).mean(axis=1).reshape(-1, 2)):
            assert got[k][1] == comp and got[k][3] == 1.0 - suff


class TestSharedSearch:
    """``score_input`` runs one PGD search per input for all its
    sensitivity cells and re-explains each cell's path in one call; every
    cell must keep the bits of ``sensitivity`` searching alone with the
    input seed (``cfg.pgd.seed`` when none is given)."""

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("restarts", [1, 2, 3])
    @pytest.mark.parametrize("default_model", [False, True])
    def test_cells_equal_own_search(self, rng, default_model, restarts,
                                    seeded):
        n = 13  # KernelSHAP samples its coalitions
        if default_model:
            model = tm.init_model(20, seed=4)
            X = tm.embed(model, tm.TokenSeq(rng.integers(2, 20, n),
                                            [f"t{i}" for i in range(n)]))
        else:
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (n, 3))
        attrs = [attrib.explain(m, model, X, 1, attrib.AttributionConfig(
                     lime_samples=200, seed=k))
                 for k, m in enumerate(attrib.METHODS)]
        attrs.append(_attr(np.zeros(n), "LIME"))  # zero reference: NaN
        metrics = ("sparsity", "sensitivity")
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=3,
                                                 restarts=restarts))
        seed = 30 if seeded else None
        got = met.score_input(model, X, attrs, metrics, cfg, seed)
        one = cfg if seed is None else replace(cfg, pgd=replace(cfg.pgd,
                                                                seed=seed))
        for k, attr in enumerate(attrs):
            want = met.sensitivity(model, X, attr, one)
            assert got[k][1] == want or math.isnan(got[k][1]) \
                and math.isnan(want)
        assert math.isnan(got[-1][1])
        assert all(row[1] > 0 for row in got[:-1])


class TestDispatchAndIO:
    def test_dispatch_all_metrics(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        a = attrib.explain("GXI", model, X, 1)
        cfg = met.MetricConfig(soft_samples=4,
                               pgd=met.PGDConfig(radius=0.05, steps=2,
                                                 restarts=1))
        for metric in met.METRICS:
            v = met.evaluate(metric, model, X, a, cfg)
            assert isinstance(v, float)

    def test_unknown_metric(self, rng):
        model = random_tiny_model(rng)
        with pytest.raises(ConfigError, match="unknown metric"):
            met.evaluate("faithfulness", model, np.ones((2, 3)),
                         _attr([1, 0]))

    def test_scores_csv_roundtrip(self, tmp_path):
        samples = [
            met.ScoreSample("p1", "MALE", "IG", "gini", 0.25),
            met.ScoreSample("p1", "FEMALE", "IG", "gini", 0.75),
            met.ScoreSample("p2", "MALE", "SHAP", "sensitivity",
                            float("nan")),
        ]
        path = tmp_path / "scores.csv"
        met.write_scores_csv(samples, path)
        back = met.read_scores_csv(path)
        assert len(back) == 3
        for a, b in zip(samples, back):
            assert (a.pair_id, a.subgroup, a.method, a.metric) == \
                (b.pair_id, b.subgroup, b.method, b.metric)
            assert (math.isnan(a.value) and math.isnan(b.value)) \
                or a.value == b.value
