import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (LinearPooledModel, ConstantModel, DeadInputModel,
                      clear_design_memos, exact_shapley, indicator_embeddings,
                      masked_prob, planted_token_model,
                      finite_diff_input_grad, random_tiny_model,
                      scaled_classifier, all_coalition_probs,
                      reference_sampled_coalitions, reference_surrogate,
                      shapley_from_values)
from explaudit import attribution as attrib
from explaudit import metrics as met
from explaudit import textmodel as tm
from explaudit.errors import ConfigError, NumericalError


class TestConfig:
    def test_defaults_valid(self):
        attrib.AttributionConfig()

    @pytest.mark.parametrize("kwargs", [
        {"ig_steps": 0}, {"lime_samples": 0}, {"shap_samples": 0},
        {"lime_kernel_width": -1.0}, {"ridge": -1e-3}, {"ridge": np.nan},
        {"ridge": np.inf},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            attrib.AttributionConfig(**kwargs)


class TestGradSaliency:
    def test_zero_output_weights(self, rng):
        model = random_tiny_model(rng)
        model.w2 = np.zeros_like(model.w2)
        X = rng.uniform(-1, 1, (4, 3))
        a = attrib.explain("GRAD", model, X, 1)
        assert np.all(a.scores == 0)

    def test_dead_input_positions(self):
        # every token shares the pooled gradient, so GRAD cannot single out
        # a token; GXI scores exactly 0 where a token lives only in the
        # dead embedding dimensions
        X = np.eye(3)
        grad = attrib.explain("GRAD", DeadInputModel(), X, 1)
        assert np.all(grad.scores == grad.scores[0])
        a = attrib.explain("GXI", DeadInputModel(), X, 1)
        assert a.scores[0] == 0 and a.scores[2] == 0
        assert a.scores[1] > 0

    def test_matches_finite_difference_norms(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        fd = finite_diff_input_grad(model, X, 1)
        a = attrib.explain("GRAD", model, X, 1)
        assert np.allclose(a.scores, np.linalg.norm(fd, axis=1),
                           rtol=1e-4, atol=1e-7)

    def test_scores_nonnegative(self, rng):
        model = random_tiny_model(rng)
        a = attrib.explain("GRAD", model, rng.uniform(-1, 1, (5, 3)), 0)
        assert np.all(a.scores >= 0)


class TestGradXInput:
    def test_zero_embedding_row(self):
        model = LinearPooledModel([0.2, 0.1], base=0.4)
        X = np.array([[0.0, 0.0], [1.0, 2.0]])
        a = attrib.explain("GXI", model, X, 1)
        assert a.scores[0] == 0.0

    def test_linear_model_closed_form_d1(self):
        # p1 = 0.5 + 0.2 * mean(x); grad row = 0.2/n, s_i = 0.2 * x_i / n
        model = LinearPooledModel([0.2])
        X = np.array([[1.0], [-0.5], [0.25]])
        a = attrib.explain("GXI", model, X, 1)
        assert a.scores == pytest.approx(0.2 * X[:, 0] / 3, abs=1e-12)

    def test_product_against_finite_differences(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (4, 3))
        fd = finite_diff_input_grad(model, X, 0)
        a = attrib.explain("GXI", model, X, 0)
        assert np.allclose(a.scores, (fd * X).sum(axis=1),
                           rtol=1e-4, atol=1e-7)


class TestIntegratedGradients:
    def test_baseline_input_is_zero(self, rng):
        model = random_tiny_model(rng)
        a = attrib.explain("IG", model, np.zeros((3, 3)), 1)
        assert np.all(a.scores == 0)

    def test_completeness(self, rng):
        cfg = attrib.AttributionConfig(ig_steps=256)
        for _ in range(5):
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (4, 3))
            a = attrib.explain("IG", model, X, 1, cfg)
            f_x = tm.forward(model, X).probs[1]
            f_base = tm.forward(model, np.zeros_like(X)).probs[1]
            assert a.scores.sum() == pytest.approx(f_x - f_base, abs=1e-2)

    def test_batched_path_matches_per_step_loop(self, rng):
        # reference: one embedding-gradient call per path point
        for _ in range(20):
            d, h = int(rng.integers(1, 17)), int(rng.integers(1, 33))
            model = random_tiny_model(rng, d=d, h=h)
            X = rng.uniform(-1, 1, (int(rng.integers(1, 19)), d))
            target = int(rng.integers(0, 2))
            steps = int(rng.integers(1, 65))
            total = np.zeros_like(X)
            for k in range(1, steps + 1):
                total += tm.grad_wrt_embeddings_matrix(
                    model, (k / steps) * X, target)
            expected = X * total / steps
            got = attrib._ig_per_dim(model, X, target, steps)
            assert np.linalg.norm(got - expected) <= \
                1e-12 * np.linalg.norm(expected)

    def test_linear_model_exact_path_integral(self):
        # Constant gradient => IG is exact for any step count.
        w = np.array([0.3, -0.1])
        model = LinearPooledModel(w, base=0.5)
        X = np.array([[0.5, 1.0], [-0.25, 0.5]])
        cfg = attrib.AttributionConfig(ig_steps=1)
        a = attrib.explain("IG", model, X, 1, cfg)
        assert a.scores == pytest.approx(X @ w / 2, abs=1e-12)


class TestIGxInput:
    def test_zero_row_and_baseline(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        X[0] = 0.0
        a = attrib.explain("IGXI", model, X, 1)
        assert a.scores[0] == 0.0
        b = attrib.explain("IGXI", model, np.zeros((2, 3)), 1)
        assert np.all(b.scores == 0)

    def test_d1_equals_ig_times_input(self, rng):
        model = random_tiny_model(rng, d=1, h=3)
        X = rng.uniform(-1, 1, (4, 1))
        cfg = attrib.AttributionConfig(ig_steps=64)
        ig = attrib.explain("IG", model, X, 1, cfg)
        igxi = attrib.explain("IGXI", model, X, 1, cfg)
        assert igxi.scores == pytest.approx(ig.scores * X[:, 0], abs=1e-12)


class TestLime:
    def test_constant_model_zero_coefficients(self):
        X = indicator_embeddings(4)
        a = attrib.explain("LIME", ConstantModel(0.7), X, 1)
        assert np.all(np.abs(a.scores) < 1e-6)

    def test_planted_single_feature(self):
        model = planted_token_model([0.0, 0.0, 0.3, 0.0])
        X = indicator_embeddings(4)
        a = attrib.explain("LIME", model, X, 1)
        assert a.scores[2] == pytest.approx(0.3, abs=0.05)
        for i in (0, 1, 3):
            assert abs(a.scores[i]) < 0.05

    def test_deterministic_under_seed(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (5, 3))
        cfg = attrib.AttributionConfig(seed=11)
        a = attrib.explain("LIME", model, X, 1, cfg)
        b = attrib.explain("LIME", model, X, 1, cfg)
        assert np.array_equal(a.scores, b.scores)

    def test_seed_changes_samples(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (5, 3))
        a, b = (attrib.explain("LIME", model, X, 1,
                               attrib.AttributionConfig(seed=s))
                for s in (1, 2))
        assert not np.array_equal(a.scores, b.scores)


class TestKernelShap:
    def test_local_accuracy(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (6, 3))
        a = attrib.explain("SHAP", model, X, 1)
        delta = masked_prob(model, X, range(6)) - masked_prob(model, X, [])
        assert a.scores.sum() == pytest.approx(delta, abs=1e-6)

    def test_local_accuracy_sampled_branch(self, rng):
        # n = 1100: C(n, k) of the middle sizes overflows a float
        for n, samples in ((15, 256), (1100, 2048)):
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (n, 3))
            cfg = attrib.AttributionConfig(shap_samples=samples)
            a = attrib.explain("SHAP", model, X, 1, cfg)
            delta = masked_prob(model, X, range(n)) - masked_prob(model, X, [])
            assert np.all(np.isfinite(a.scores))
            assert a.scores.sum() == pytest.approx(delta, abs=1e-9)

    def test_additive_planted_model(self):
        c = [0.1, -0.05, 0.2, 0.0, 0.08]
        model = planted_token_model(c)
        X = indicator_embeddings(5)
        a = attrib.explain("SHAP", model, X, 1)
        assert np.allclose(a.scores, c, atol=0.02)

    def test_matches_exact_shapley_enumeration(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (5, 3))
        a = attrib.explain("SHAP", model, X, 1)
        oracle = exact_shapley(lambda s: masked_prob(model, X, s), 5)
        assert np.allclose(a.scores, oracle, atol=0.01)

    def test_single_token(self):
        model = planted_token_model([0.25])
        X = indicator_embeddings(1)
        a = attrib.explain("SHAP", model, X, 1)
        assert a.scores == pytest.approx([0.25], abs=1e-9)

    def test_exact_coalitions_match_combinations(self, rng):
        # the exact design's map on random values of every coalition
        # (indexed by bit code) against the Shapley formula, token by token
        for n in range(1, 12):
            v = rng.uniform(0, 1, 2**n)
            rows, _, W = attrib._exact_shap_design(n)
            codes = (rows @ 2 ** np.arange(n)).astype(int)
            assert np.allclose(W @ v[codes], shapley_from_values(v, n),
                               rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_exact_design_queries_each_coalition_once(self, n):
        class Counting(LinearPooledModel):
            def pooled_forward(self, pooled):
                queried.append(pooled.copy())
                return super().pooled_forward(pooled)

        queried = []
        attrib.explain("SHAP", Counting(np.full(n, 0.01)),
                       indicator_embeddings(n), 1)
        assert len(queried) == 1 and len(queried[0]) == 2**n
        codes = np.rint(queried[0] @ 2.0 ** np.arange(n)).astype(int)
        assert np.array_equal(np.sort(codes), np.arange(2**n))

    def test_exact_coalitions_cached_read_only(self):
        design = attrib._exact_shap_design(6)
        assert attrib._exact_shap_design(6) is design
        for a in design:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            design[-1][0, 0] = 1.0

    def test_sampled_rows_have_drawn_size(self):
        for n in (3, 12, 14, 18, 1030):  # C(1030, 515) overflows a float
            Z = attrib._sampled_coalitions(n, 2048,
                                           np.random.default_rng(n))
            sizes = np.arange(1, n)
            p = (n - 1) / (sizes * (n - sizes))
            drawn = np.random.default_rng(n).choice(
                sizes, size=2048, p=p / p.sum())
            assert set(np.unique(Z)) <= {0.0, 1.0}
            assert np.array_equal(Z.sum(axis=1), drawn)
            # every token is equally likely to be in a coalition
            assert np.allclose(Z.mean(axis=0), drawn.mean() / n, atol=0.05)

    def test_sampled_coalitions_equal_argsort_rule(self):
        for n in range(2, 26):
            for seed in range(10):
                assert np.array_equal(
                    attrib._sampled_coalitions(
                        n, 2048, np.random.default_rng(seed)),
                    reference_sampled_coalitions(
                        n, 2048, np.random.default_rng(seed)))

    def test_tied_keys_keep_drawn_size(self):
        class TiedKeys:
            """A generator whose uniform keys take 3 values, so that most
            rows tie at their k-th smallest key."""

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

            def random(self, shape):
                return np.floor(3 * self.rng.random(shape)) / 3

        for n in (3, 7, 13):
            Z = attrib._sampled_coalitions(n, 512, TiedKeys(n))
            assert np.array_equal(
                Z, reference_sampled_coalitions(n, 512, TiedKeys(n)))
            sizes = np.arange(1, n)
            p = (n - 1) / (sizes * (n - sizes))
            drawn = np.random.default_rng(n).choice(
                sizes, size=512, p=p / p.sum())
            assert np.array_equal(Z.sum(axis=1), drawn)

    def test_sampled_accuracy_against_exact_shapley(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (6, 3))
        assert np.allclose(
            shapley_from_values(all_coalition_probs(model, X), 6),
            exact_shapley(lambda s: masked_prob(model, X, s), 6),
            atol=1e-12)
        cfg = attrib.AttributionConfig(shap_samples=2048)
        errors = []
        for trial in range(20):
            n = 12 + trial % 3
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (n, 3))
            exact = shapley_from_values(all_coalition_probs(model, X), n)
            a = attrib.explain("SHAP", model, X, 1, cfg)
            errors.append(np.linalg.norm(a.scores - exact)
                          / np.linalg.norm(exact))
        assert np.median(errors) <= 0.02

    def test_deterministic_sampled(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (14, 3))
        cfg = attrib.AttributionConfig(shap_samples=200, seed=5)
        a = attrib.explain("SHAP", model, X, 1, cfg)
        b = attrib.explain("SHAP", model, X, 1, cfg)
        assert np.array_equal(a.scores, b.scores)


class TestWeightedRidge:
    """The fitted map that LIME's ridge fit and KernelSHAP's constrained
    fit share, built once per design."""

    def test_unsolvable_system_gives_up(self):
        # a kernel this narrow gives every mask but the all-ones one zero
        # weight, and no mask is all ones here, so the intercept is
        # unidentified for any ridge
        cfg = attrib.AttributionConfig(lime_kernel_width=1e-10,
                                       lime_samples=8)
        with pytest.raises(NumericalError, match="singular"):
            attrib.explain("LIME", ConstantModel(0.5),
                           indicator_embeddings(13), 1, cfg)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("method, n, samples", [
        ("LIME", 1, 1000), ("LIME", 6, 1000), ("LIME", 13, 999),
        ("LIME", 3, 1000), ("LIME", 8, 1000),  # most distinct rows repeat
        *[("SHAP", n, 2048) for n in range(1, 12)],
        ("SHAP", 12, 2048), ("SHAP", 15, 2047), ("SHAP", 6, 30)])
    def test_equals_per_input_solve(self, rng, method, n, samples,
                                    stacked):
        model = random_tiny_model(rng)
        cfg = attrib.AttributionConfig(lime_samples=samples,
                                       shap_samples=samples, seed=4)
        X = rng.uniform(-1, 1, (3, n, 3) if stacked else (n, 3))
        got = attrib.explain(method, model, X, 1, cfg).scores
        if method == "SHAP" and 2**n - 2 <= samples:  # exact Shapley values
            want = np.array([shapley_from_values(
                all_coalition_probs(model, x), n)
                for x in X.reshape(-1, n, 3)])
            assert np.allclose(got.reshape(-1, n), want, rtol=0, atol=1e-14)
            return
        want = reference_surrogate(method, model, X, 1, cfg)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["LIME", "SHAP"])
    @pytest.mark.parametrize("n", [1, 4, 13])  # SHAP: 1 token, exact, sampled
    def test_non_finite_model_output_raises(self, method, n):
        with pytest.raises(NumericalError, match="non-finite"):
            attrib.explain(method, ConstantModel(np.nan),
                           indicator_embeddings(n), 1)


class TestPreparedDesign:
    """LIME and KernelSHAP derive their design from (n, config); a query
    map keeps LIME's and sampled KernelSHAP's for the next explain, and
    reuse never changes a score."""

    # n = 6: KernelSHAP enumerates all coalitions; n = 13: it samples them
    @pytest.mark.parametrize("n", [6, 13])
    @pytest.mark.parametrize("method", ["LIME", "SHAP"])
    def test_same_scores_with_and_without(self, rng, method, n):
        model = random_tiny_model(rng)
        cfg = attrib.AttributionConfig(seed=9)
        queries = {}
        for _ in range(3):
            X = rng.uniform(-1, 1, (n, 3))
            fresh = attrib.explain(method, model, X, 1, cfg)
            queries = attrib.designs_of(queries)  # a new X's map
            for _ in range(2):
                reused = attrib.explain(method, model, X, 1, cfg,
                                        queries=queries)
                assert np.array_equal(fresh.scores, reused.scores)

    @pytest.mark.parametrize("method", ["LIME", "SHAP"])
    def test_memo_keyed_on_seed(self, rng, method):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (13, 3))  # sampled KernelSHAP
        cfgs = [attrib.AttributionConfig(seed=s) for s in (1, 2)]
        fresh = [attrib.explain(method, model, X, 1, cfg).scores
                 for cfg in cfgs]
        assert not np.array_equal(*fresh)
        # each explain follows one under the other seed in the same map,
        # so a map that ignored the seed would hand it the other's design
        queries = {}
        for cfg, scores in zip(cfgs * 2, fresh * 2):
            assert np.array_equal(attrib.explain(
                method, model, X, 1, cfg, queries=queries).scores, scores)

    def test_exact_shap_design_shared_across_seeds(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (6, 3))
        clear_design_memos()
        for seed in (1, 2):
            attrib.explain("SHAP", model, X, 1,
                           attrib.AttributionConfig(seed=seed))
        assert attrib._exact_shap_design.cache_info().misses == 1

    @pytest.mark.parametrize("n", [6, 13])
    @pytest.mark.parametrize("method", ["LIME", "SHAP"])
    def test_arrays_read_only_and_unchanged_by_fits(self, rng, monkeypatch,
                                                    method, n):
        builds = []
        for name in ("_lime_design", "_sampled_shap_design"):
            build = getattr(attrib, name)
            monkeypatch.setattr(attrib, name, lambda *a, build=build: (
                builds.append(a), build(*a))[1])
        model = random_tiny_model(rng)
        queries = {}
        attrib.explain(method, model, rng.uniform(-1, 1, (n, 3)), 1,
                       queries=queries)
        if method == "SHAP" and n == 6:  # the exact design, one per n
            arrays = attrib._exact_shap_design(n)
        else:
            (key,) = [key for key in queries if key[0] == "design"]
            arrays = queries[key]
        before = [a.copy() for a in arrays]
        for _ in range(20):
            queries = attrib.designs_of(queries)
            attrib.explain(method, model, rng.uniform(-1, 1, (n, 3)), 1,
                           queries=queries)
        assert len(builds) == (method == "LIME" or n == 13)
        assert arrays is (attrib._exact_shap_design(n) if not builds
                          else queries[key])
        for a, b in zip(arrays, before):
            assert not a.flags.writeable
            assert np.array_equal(a, b)


class TestDistinctRows:
    """LIME and sampled KernelSHAP query each distinct mask row once and
    fold each row's repeats into the fit's weights."""

    MODELS = {
        "tiny": lambda rng: random_tiny_model(rng),
        "default": lambda rng: tm.init_model(40, seed=int(rng.integers(99))),
        "linear": lambda rng: LinearPooledModel(
            rng.uniform(-0.1, 0.1, 16), base=0.5),
    }

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("method, samples", [
        ("LIME", 1000), ("LIME", 999), ("SHAP", 2048), ("SHAP", 2047)])
    def test_equal_to_query_of_every_row(self, rng, method, samples,
                                         stacked, model_kind):
        model = self.MODELS[model_kind](rng)
        d = 3 if model_kind == "tiny" else 16
        n = 13  # KernelSHAP samples coalitions at this length
        cfg = attrib.AttributionConfig(lime_samples=samples,
                                       shap_samples=samples, seed=5)
        X = rng.uniform(-1, 1, (3, n, d) if stacked else (n, d))
        got = attrib.explain(method, model, X, 1, cfg).scores
        want = reference_surrogate(method, model, X, 1, cfg)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        if method == "LIME":
            rows, _, W = attrib._lime_design(
                n, samples, cfg.lime_kernel_width, cfg.seed, cfg.ridge)
        else:
            rows, _, W = attrib._sampled_shap_design(n, samples, cfg.seed)
        assert len(rows) < samples  # rows repeat at this length
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert W.shape == (n, len(rows))

    @pytest.mark.parametrize("samples, n", [
        (1000, 8), (1003, 8), (3, 5), (4, 1), (400, 60), (402, 60)])
    def test_rows_cover_every_mask_row(self, rng, samples, n):
        # n = 60 spans two 52-bit code words; rows repeat
        Z = (rng.random((samples, n)) < 0.5).astype(float)
        Z[samples // 2:] = Z[:samples - samples // 2]
        Z[:, 10:50] = 1.0
        rows, counts = attrib._distinct_rows(Z)
        assert counts.sum() == len(Z) and np.all(counts >= 1)
        assert len(rows) == len(np.unique(Z, axis=0))
        assert len(np.unique(rows, axis=0)) == len(rows)
        # each row repeated by its count is Z up to the order of its rows
        expanded = np.repeat(rows, counts, axis=0)
        assert np.array_equal(expanded[np.lexsort(expanded.T)],
                              Z[np.lexsort(Z.T)])
        assert not rows.flags.writeable and not counts.flags.writeable


class TestStackedInput:
    """An (R, n, d) stack is explained as R inputs, each one bit for bit
    as its own 2-D call explains it; the PGD search relies on this."""

    @pytest.mark.parametrize("n", [6, 13])  # SHAP exact / sampled
    @pytest.mark.parametrize("hook", [False, True])
    @pytest.mark.parametrize("method", attrib.METHODS)
    def test_equals_per_slice_explains(self, rng, method, hook, n):
        if hook:
            model = LinearPooledModel(rng.uniform(-0.1, 0.1, 3), base=0.5)
        else:
            model = random_tiny_model(rng)
        cfg = attrib.AttributionConfig(seed=3)
        stack = rng.uniform(-1, 1, (3, n, 3))
        stacked = attrib.explain(method, model, stack, 1, cfg)
        assert stacked.scores.shape == (3, n)
        assert len(stacked.tokens) == n
        for X, scores in zip(stack, stacked.scores):
            alone = attrib.explain(method, model, X, 1, cfg)
            assert np.array_equal(alone.scores, scores)

    @pytest.mark.parametrize("n", [6, 13])
    @pytest.mark.parametrize("method", attrib.METHODS)
    def test_deeper_stack_equals_per_block_explains(self, rng, method, n):
        # a (steps, R, n, d) stack, whose surrogate explainers query the
        # model one (R, n, d) block at a time
        model = random_tiny_model(rng)
        cfg = attrib.AttributionConfig(seed=3)
        stack = rng.uniform(-1, 1, (4, 2, n, 3))
        stacked = attrib.explain(method, model, stack, 1, cfg)
        assert stacked.scores.shape == (4, 2, n)
        for block, scores in zip(stack, stacked.scores):
            alone = attrib.explain(method, model, block, 1, cfg)
            assert np.array_equal(alone.scores, scores)


class TestSharedQueries:
    """Sibling explainers share one model query per input through the
    caller's query map: GRAD and GXI one gradient, IG and IGXI one path,
    and LIME and KernelSHAP one all-coalitions query where KernelSHAP is
    exact. Every explain equals, bit for bit, the same method explained
    alone with no map."""

    @pytest.mark.parametrize("shape", [(), (3, 2)], ids=["2-D", "stack"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 11])
    @pytest.mark.parametrize("order", [
        attrib.METHODS, attrib.METHODS[::-1]], ids=["default", "reversed"])
    def test_equals_explain_alone(self, rng, order, n, shape):
        model = scaled_classifier(n)
        X = rng.normal(size=shape + (n, 16))  # or (steps, restarts, n, d)
        cfgs = {m: attrib.AttributionConfig(seed=seed)
                for seed, m in enumerate(attrib.METHODS)}
        queries = {}
        shared = {m: attrib.explain(m, model, X, 1, cfgs[m],
                                    queries=queries).scores for m in order}
        for m in order:
            assert np.array_equal(
                shared[m], attrib.explain(m, model, X, 1, cfgs[m]).scores)

    @pytest.mark.parametrize("change", ["other target", "other ig_steps"])
    @pytest.mark.parametrize("first, second", [
        ("GRAD", "GXI"), ("IG", "IGXI")])
    def test_changed_query_not_shared(self, rng, first, second, change):
        # a map keys each query on the target and the query's config
        model = scaled_classifier(1)
        X = rng.normal(size=(8, 16))
        cfg, target, queries = attrib.AttributionConfig(), 1, {}
        attrib.explain(first, model, X, target, cfg, queries=queries)
        if change == "other target":
            target = 0
        else:
            cfg = attrib.AttributionConfig(ig_steps=16)
        shared = attrib.explain(second, model, X, target, cfg,
                                queries=queries).scores
        assert np.array_equal(
            shared, attrib.explain(second, model, X, target, cfg).scores)

    def test_one_query_per_sibling_pair(self, rng, monkeypatch):
        calls = {"grad": 0, "pooled_grad": 0, "masked_probs": 0}

        def count(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(tm, "grad_wrt_embeddings_matrix",
                            count("grad", tm.grad_wrt_embeddings_matrix))
        monkeypatch.setattr(tm, "pooled_grad",
                            count("pooled_grad", tm.pooled_grad))
        monkeypatch.setattr(tm, "masked_probs",
                            count("masked_probs", tm.masked_probs))
        model, cfg = scaled_classifier(3), attrib.AttributionConfig()
        X, queries = rng.normal(size=(8, 16)), {}
        for method in attrib.METHODS[2:4]:  # IG, IGXI
            attrib.explain(method, model, X, 1, cfg, queries=queries)
        assert calls == {"grad": 0, "pooled_grad": 1, "masked_probs": 0}
        for method in attrib.METHODS[:2]:  # GRAD, GXI
            attrib.explain(method, model, X, 1, cfg, queries=queries)
        assert calls == {"grad": 1, "pooled_grad": 2, "masked_probs": 0}
        for method in attrib.METHODS[4:]:  # LIME, SHAP at exact n = 8
            attrib.explain(method, model, X, 1, cfg, queries=queries)
        assert calls["masked_probs"] == 1
        # a (steps, restarts, n, d) path: one query per (restarts, n, d)
        # block for both
        path, queries = rng.normal(size=(4, 2, 8, 16)), {}
        for method in attrib.METHODS[:0:-1]:  # all but GRAD, SHAP first
            attrib.explain(method, model, path, 1, cfg, queries=queries)
        assert calls == {"grad": 2, "pooled_grad": 4, "masked_probs": 5}

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_lime_matches_reference_fit(self, rng, shared, stacked):
        # at n <= 11 LIME reads its rows from the all-coalitions query
        cfg = attrib.AttributionConfig(seed=7)
        for n in range(1, 13):
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (2, 3, n, 3) if stacked else (n, 3))
            queries = {}
            if shared:
                attrib.explain("SHAP", model, X, 1, cfg, queries=queries)
            got = attrib.explain("LIME", model, X, 1, cfg, queries=queries)
            assert np.allclose(got.scores, reference_surrogate(
                "LIME", model, X, 1, cfg), rtol=0, atol=1e-12)

    def test_non_finite_values_raise_where_read(self, rng):
        # a coalition that LIME's masks leave out is non-finite: KernelSHAP
        # reads it and raises, LIME does not read it, shared or not
        n, cfg = 6, attrib.AttributionConfig(lime_samples=5, seed=2)
        rows = attrib._lime_design(n, 5, 0.0, 2, cfg.ridge)[0]
        missing = sorted(set(range(2**n))
                         - set((rows @ 2 ** np.arange(n)).astype(int)))[0]
        X = indicator_embeddings(n)
        pooled_gap = (missing >> np.arange(n)) & 1

        class HoleModel(LinearPooledModel):
            def pooled_forward(self, pooled):
                probs, logits = super().pooled_forward(pooled)
                hole = np.all(pooled * n == pooled_gap, axis=-1)
                probs[hole] = np.nan
                return probs, logits

        model = HoleModel(np.full(n, 0.01))
        alone = attrib.explain("LIME", model, X, 1, cfg).scores
        assert np.all(np.isfinite(alone))
        for order in (("LIME", "SHAP"), ("SHAP", "LIME")):
            queries = {}
            for method in order:
                if method == "SHAP":
                    with pytest.raises(NumericalError, match="non-finite"):
                        attrib.explain("SHAP", model, X, 1, cfg,
                                       queries=queries)
                else:
                    assert np.array_equal(alone, attrib.explain(
                        "LIME", model, X, 1, cfg, queries=queries).scores)

    @pytest.mark.parametrize("n", [6, 11, 13])  # SHAP exact / sampled
    def test_pgd_re_explain_builds_no_second_design(self, rng, monkeypatch,
                                                    n):
        builds = []
        for name in ("_lime_design", "_sampled_shap_design"):
            build = getattr(attrib, name)
            monkeypatch.setattr(attrib, name, lambda *a, build=build: (
                builds.append(a), build(*a))[1])
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (n, 3))
        cfg = met.MetricConfig(pgd=met.PGDConfig(steps=2))
        queries = {}
        attrs = [attrib.explain(m, model, X, 1, attrib.AttributionConfig(
            seed=s), queries=queries) for s, m in enumerate(attrib.METHODS)]
        built = len(builds)
        assert built == 1 + (n == 13)
        shared = met.score_input(model, X, attrs, ("sensitivity",), cfg, 5,
                                 queries)
        assert len(builds) == built
        # without the input's map, the path builds the designs again
        assert met.score_input(model, X, attrs, ("sensitivity",), cfg,
                               5) == shared
        assert len(builds) == 2 * built


class TestDegenerate:
    def test_constant_or_zero_magnitudes(self):
        rows = ([0.0, 0.0, 0.0], [2.0, -2.0, 2.0], [1.0, 1.0 + 1e-12, 1.0],
                [1e-300, -1e-300, 1e-300], [3.0], [1.0, 0.5, 1.0],
                [1.0, 1.0 + 1e-6, 1.0])
        attrs = [attrib.Attribution("GXI", [f"t{i}" for i in range(len(r))],
                                    np.array(r), 1) for r in rows]
        flags = [attrib.degenerate([a])[0] for a in attrs]
        assert flags == [True, True, True, True, True, False, False]

    @pytest.mark.parametrize("hook", [False, True])
    def test_only_grad_degenerate_on_pooled_model(self, rng, hook):
        # every token of a mean-pooled input shares one gradient, so GRAD
        # gives each token ||g|| / n; the other methods rank tokens
        if hook:
            model = LinearPooledModel(rng.uniform(-0.1, 0.1, 3), base=0.5)
        else:
            model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (6, 3))
        cfg = attrib.AttributionConfig(lime_samples=200)
        attrs = [attrib.explain(m, model, X, 1, cfg) for m in attrib.METHODS]
        assert attrib.degenerate(attrs) == [m == "GRAD"
                                            for m in attrib.METHODS]


class TestNormalize:
    def test_example(self):
        a = attrib.Attribution("GXI", ["a", "b", "c"],
                               np.array([2.0, -1.0, 0.0]), 1)
        assert attrib.normalize_scores(a) == pytest.approx([1.0, 0.5, 0.0])

    def test_all_zero(self):
        a = attrib.Attribution("GXI", ["a"], np.array([0.0, 0.0]), 1)
        assert np.all(attrib.normalize_scores(a) == 0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=10))
    def test_max_is_one_unless_all_zero(self, values):
        a = attrib.Attribution("IG", ["t"] * len(values),
                               np.array(values), 0)
        norm = attrib.normalize_scores(a)
        if np.any(np.array(values) != 0):
            assert norm.max() == pytest.approx(1.0)
        assert np.all((norm >= 0) & (norm <= 1))


class TestDispatchAndIO:
    def test_unknown_method(self, rng):
        model = random_tiny_model(rng)
        with pytest.raises(ConfigError, match="unknown attribution method"):
            attrib.explain("DEEPLIFT", model, np.ones((2, 3)), 1)

    def test_dispatch_covers_all_methods(self, rng):
        model = random_tiny_model(rng)
        v = tm.build_vocab(["a b c"])
        seq = tm.tokenize(v, "a b c")
        for method in attrib.METHODS:
            a = attrib.explain(method, model, seq, 1)
            assert a.method == method
            assert len(a.scores) == seq.n
            assert a.tokens == seq.tokens
            assert a.target_class == 1
            assert a.cfg == attrib.AttributionConfig()
        # the record keeps what it was made with, for metrics to reuse
        cfg = attrib.AttributionConfig(seed=4)
        a = attrib.explain("gxi", model, seq, 0, cfg)
        assert (a.method, a.target_class, a.cfg) == ("GXI", 0, cfg)
