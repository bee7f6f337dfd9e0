import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BoundaryModel, ConstantModel, DeadInputModel,
                      LinearPooledModel, finite_diff_input_grad,
                      finite_diff_pooled_grad, random_tiny_model,
                      reference_forward_pooled, reference_pooled_grad,
                      reference_train)
from explaudit import dataset as ds
from explaudit import textmodel as tm
from explaudit.errors import ConfigError, DataError, NumericalError


class TestVocab:
    def test_basic_corpus(self):
        v = tm.build_vocab(["he runs", "she runs"])
        assert len(v) == 5  # he, she, runs + PAD + UNK
        assert set(v.id_to_token) == {"<pad>", "<unk>", "he", "she", "runs"}
        assert v.token_to_id["<pad>"] == 0

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty corpus"):
            tm.build_vocab([])

    def test_case_folding(self):
        v = tm.build_vocab(["A a A"])
        assert "a" in v.token_to_id
        assert "A" not in v.token_to_id
        assert len(v) == 3

    def test_aliases_share_id(self):
        v = tm.build_vocab(["he runs", "she runs"], aliases={"she": "he"})
        assert v.lookup("she") == v.lookup("he")

    def test_alias_map_ids(self):
        # sorted canonical tokens after <pad> and <unk>; a token aliased
        # onto <unk> takes no row of its own
        aliases = dict(ds.tied_alias_map(), zz="<unk>")
        v = tm.build_vocab(["She told her son .", "he and his daughter, zz!",
                            "the queen runs"], aliases=aliases)
        assert v.id_to_token == ["<pad>", "<unk>", "!", ",", ".", "and",
                                 "he", "king", "runs", "son", "the", "told"]
        assert v.token_to_id == {t: i for i, t in enumerate(v.id_to_token)}
        assert v.lookup("zz") == tm.UNK_ID


class TestTokenize:
    def test_splits_punctuation(self):
        v = tm.build_vocab(["she runs ."])
        seq = tm.tokenize(v, "She runs.")
        assert seq.tokens == ["she", "runs", "."]
        assert seq.n == 3

    def test_unknown_maps_to_unk(self):
        v = tm.build_vocab(["a b"])
        seq = tm.tokenize(v, "zzz")
        assert list(seq.ids) == [tm.UNK_ID]
        assert seq.n == 1

    def test_empty_text(self):
        v = tm.build_vocab(["a"])
        with pytest.raises(DataError):
            tm.tokenize(v, "   ")


class TestForward:
    def test_zero_everything_gives_half(self):
        cfg = tm.ModelConfig(embed_dim=2, hidden_dim=2)
        model = tm.ClassifierModel(
            emb=np.zeros((4, 2)), w1=np.zeros((2, 2)), b1=np.zeros(2),
            w2=np.zeros((2, 2)), b2=np.zeros(2), config=cfg)
        pred = tm.forward(model, np.zeros((3, 2)))
        assert pred.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_probs_sum_to_one(self, rng):
        model = random_tiny_model(rng)
        for _ in range(20):
            X = rng.uniform(-2, 2, (3, 3))
            pred = tm.forward(model, X)
            assert pred.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert pred.predicted_class == int(np.argmax(pred.probs))

    def test_hand_computed_tiny_network(self):
        # d=2, hidden=2, one token; every multiply written out by hand
        cfg = tm.ModelConfig(embed_dim=2, hidden_dim=2)
        model = tm.ClassifierModel(
            emb=np.zeros((2, 2)),
            w1=np.array([[1.0, 0.0], [0.0, -1.0]]),
            b1=np.array([0.1, 0.2]),
            w2=np.array([[0.5, -0.5], [1.0, 0.0]]),
            b2=np.array([0.0, 0.3]),
            config=cfg)
        x = np.array([[0.4, -0.6]])
        h1 = math.tanh(0.4 * 1.0 + (-0.6) * 0.0 + 0.1)
        h2 = math.tanh(0.4 * 0.0 + (-0.6) * -1.0 + 0.2)
        z0 = h1 * 0.5 + h2 * 1.0
        z1 = h1 * -0.5 + h2 * 0.0 + 0.3
        expect = math.exp(z1) / (math.exp(z0) + math.exp(z1))
        pred = tm.forward(model, x)
        assert pred.probs[1] == pytest.approx(expect, abs=1e-12)

    def test_rejects_nan(self, rng):
        model = random_tiny_model(rng)
        X = np.full((2, 3), np.nan)
        with pytest.raises(DataError):
            tm.forward(model, X)

    def test_pooling_permutation_symmetry(self, rng):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (5, 3))
        p1 = tm.forward(model, X).probs
        p2 = tm.forward(model, X[::-1]).probs
        assert p1 == pytest.approx(p2, abs=1e-12)


class TestGradient:
    def test_zero_output_weights_zero_grad(self, rng):
        model = random_tiny_model(rng)
        model.w2 = np.zeros_like(model.w2)
        seq = tm.TokenSeq(np.array([1, 2]), ["a", "b"])
        g = tm.grad_wrt_embeddings_matrix(model, tm.embed(model, seq), 0)
        assert np.all(g == 0)

    def test_matches_finite_differences(self, rng):
        for _ in range(25):
            model = random_tiny_model(rng)
            X = rng.uniform(-1, 1, (3, 3))
            for target in (0, 1):
                g = tm.grad_wrt_embeddings_matrix(model, X, target)
                fd = finite_diff_input_grad(model, X, target)
                assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_duplicated_token_identical_rows(self, rng):
        model = random_tiny_model(rng)
        seq = tm.TokenSeq(np.array([2, 3, 2]), ["a", "b", "a"])
        g = tm.grad_wrt_embeddings_matrix(model, tm.embed(model, seq), 1)
        assert g[0] == pytest.approx(g[2], abs=1e-15)

    def test_stack_equals_per_slice_calls(self, rng):
        stack = rng.uniform(-1, 1, (3, 5, 3))
        for model in (random_tiny_model(rng),
                      LinearPooledModel([0.2, -0.1, 0.05])):
            g = tm.grad_wrt_embeddings_matrix(model, stack, 1)
            assert g.shape == stack.shape
            for X, g_r in zip(stack, g):
                assert np.array_equal(
                    tm.grad_wrt_embeddings_matrix(model, X, 1), g_r)

    def test_result_is_read_only(self, rng):
        model = random_tiny_model(rng)
        g = tm.grad_wrt_embeddings_matrix(model, rng.uniform(-1, 1, (4, 3)),
                                          1)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 1.0


class TestDuckModels:
    """The test suite's duck models answer gradient queries through their
    own ``pooled_grad``; each must be the derivative of its own
    ``pooled_forward``, on single and batched pooled vectors."""

    @pytest.mark.parametrize("make, pooled", [
        (lambda: LinearPooledModel([0.2, -0.1, 0.05], base=0.4),
         [[0.5, 1.0, -2.0], [6.0, 0.0, 0.0], [-1.0, 0.5, 0.5]]),
        (lambda: ConstantModel(0.7),
         [[0.5, 1.0, -2.0], [3.0, 0.0, 0.0]]),
        (lambda: DeadInputModel(),
         [[0.5, 1.0, -2.0], [0.0, -3.0, 9.0], [0.0, 7.0, 0.0]]),
        (lambda: BoundaryModel(),
         [[1.02], [0.97], [1.1], [0.5]]),
    ], ids=["linear", "constant", "dead_input", "boundary"])
    @pytest.mark.parametrize("target", [0, 1])
    def test_pooled_grad_matches_central_differences(self, make, pooled,
                                                     target):
        model = make()
        pooled = np.asarray(pooled)
        batched = tm.pooled_grad(model, pooled, target)
        assert batched.shape == pooled.shape
        assert np.allclose(batched,
                           finite_diff_pooled_grad(model, pooled, target),
                           rtol=1e-6, atol=1e-9)
        for row, g in zip(pooled, batched):
            assert np.array_equal(tm.pooled_grad(model, row, target), g)


def _separable_task():
    v = tm.build_vocab(["good", "bad"])
    data = []
    for _ in range(20):
        data.append((tm.tokenize(v, "good"), 1))
        data.append((tm.tokenize(v, "bad"), 0))
    return v, data


class TestTrain:
    def test_separable_task_converges(self):
        v, data = _separable_task()
        cfg = tm.TrainConfig(epochs=50, warmup_steps=10, seed=3)
        model = tm.init_model(len(v), seed=3)
        trained, log = tm.train(model, data, cfg)
        assert log[-1]["accuracy"] >= 0.99
        assert len(log) == 50

    def test_deterministic(self):
        v, data = _separable_task()
        cfg = tm.TrainConfig(epochs=5, warmup_steps=10, seed=7)
        m0 = tm.init_model(len(v), seed=7)
        t1, _ = tm.train(m0, data, cfg)
        t2, _ = tm.train(m0, data, cfg)
        for k in t1.params():
            assert np.array_equal(t1.params()[k], t2.params()[k])

    def test_zero_epochs_rejected(self):
        v, data = _separable_task()
        with pytest.raises(ConfigError):
            tm.train(tm.init_model(len(v)), data,
                     tm.TrainConfig(epochs=0))

    @pytest.mark.parametrize("kwargs", [
        {"epochs": -1}, {"learning_rate": 0.0}, {"learning_rate": -1e-3},
        {"learning_rate": np.nan}, {"learning_rate": np.inf},
        {"batch_size": 0}, {"batch_size": -3},
    ])
    def test_invalid_config_rejected(self, kwargs):
        # batch_size 0 used to divide by zero in train(), and a negative
        # one to run no step and leave the model untrained
        with pytest.raises(ConfigError):
            tm.TrainConfig(**kwargs)

    def test_single_class_rejected(self):
        v = tm.build_vocab(["a"])
        data = [(tm.tokenize(v, "a"), 1)] * 4
        with pytest.raises(DataError):
            tm.train(tm.init_model(len(v)), data, tm.TrainConfig(epochs=1))

    def test_does_not_mutate_input_model(self):
        v, data = _separable_task()
        m0 = tm.init_model(len(v), seed=1)
        before = {k: p.copy() for k, p in m0.params().items()}
        tm.train(m0, data, tm.TrainConfig(epochs=2, warmup_steps=5))
        for k, p in m0.params().items():
            assert np.array_equal(p, before[k])


def _mixed_length_task(n_items=50, n_classes=2, seed=0):
    """Inputs of 1-14 tokens, so batches pad to different lengths."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    v = tm.build_vocab([" ".join(words)])
    data = [(tm.tokenize(v, " ".join(rng.choice(words, rng.integers(1, 15)))),
             i % n_classes) for i in range(n_items)]
    return v, data


class TestTrainMatchesReference:
    """The padded-once, bincount, flat-AdamW loop gives the reference
    loop's parameters and log bit for bit."""

    @pytest.mark.parametrize("task, n_classes", [
        ("separable", 2), ("mixed", 2), ("mixed", 3)])
    def test_bit_identical(self, task, n_classes):
        if task == "separable":
            v, data = _separable_task()
        else:
            v, data = _mixed_length_task(n_classes=n_classes)
        # 40 or 50 items in batches of 32: the last batch is short; the
        # schedule warms up, then decays to zero
        cfg = tm.TrainConfig(epochs=6, warmup_steps=4, seed=5)
        model = tm.init_model(len(v), tm.ModelConfig(n_classes=n_classes),
                              seed=5)
        trained, log = tm.train(model, data, cfg)
        ref, ref_log = reference_train(model, data, cfg)
        assert log == ref_log
        for k, p in ref.params().items():
            assert np.array_equal(trained.params()[k], p)
            assert trained.params()[k].flags.owndata

    def test_diverged_training_raises(self):
        v, data = _mixed_length_task()
        cfg = tm.TrainConfig(epochs=3, warmup_steps=1, learning_rate=1e300)
        with pytest.raises(NumericalError, match="non-finite"):
            tm.train(tm.init_model(len(v)), data, cfg)


def _mlp(rng, d=16, h=32, n_classes=2):
    return tm.ClassifierModel(
        emb=rng.normal(size=(4, d)), w1=rng.normal(size=(d, h)),
        b1=rng.normal(size=h), w2=rng.normal(size=(h, n_classes)),
        b2=rng.normal(size=n_classes),
        config=tm.ModelConfig(d, h, n_classes))


class TestForwardMatchesReference:
    """The in-place forward and the column-loop softmax give the reference
    formula's bits."""

    @pytest.mark.parametrize("rows", [1, 3, 4, 7, 2046, 2048])
    def test_batched_rows(self, rng, rows):
        model = _mlp(rng)
        pooled = rng.normal(size=(rows, 16))
        probs, logits = tm.forward_pooled(model, pooled)
        ref_probs, ref_logits = reference_forward_pooled(model, pooled)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(logits, ref_logits)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_single_vector_and_classes(self, rng, n_classes):
        model = _mlp(rng, n_classes=n_classes)
        for pooled in (rng.normal(size=16), rng.normal(size=(7, 16))):
            probs, logits = tm.forward_pooled(model, pooled)
            ref_probs, ref_logits = reference_forward_pooled(model, pooled)
            assert probs.shape == pooled.shape[:-1] + (n_classes,)
            assert np.array_equal(probs, ref_probs)
            assert np.array_equal(logits, ref_logits)

    def test_pooled_grad(self, rng):
        model = _mlp(rng, n_classes=3)
        pooled = rng.normal(size=(9, 16))
        for target in range(3):
            assert np.array_equal(
                tm.pooled_grad(model, pooled, target),
                reference_pooled_grad(model, pooled, target))


class TestMaskedProbs:
    """The masked-input query folds pooling into the first layer and reads
    p(target) from logit differences; it agrees with a forward pass on
    the pooled rows ``masks @ X / n``."""

    @staticmethod
    def _masks(rng, n):
        return (rng.random((37, n)) < 0.5).astype(float)

    @staticmethod
    def _ones(masks):
        return np.column_stack([masks, np.ones(len(masks))])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_agrees_with_forward_pooled(self, rng, stacked, n_classes):
        model = _mlp(rng, n_classes=n_classes)
        model.w1 *= 0.25  # logits of order one, so rounding stays relative
        model.w2 *= 0.25
        n = 9
        X = rng.normal(size=(4, n, 16) if stacked else (n, 16))
        masks = self._masks(rng, n)
        probs = tm.forward_pooled(model, masks @ X / n)[0]
        for target in range(n_classes):
            got = tm.masked_probs(model, X, self._ones(masks), target)
            assert got.shape == X.shape[:-2] + (len(masks),)
            assert np.allclose(got, probs[..., target], atol=0,
                               rtol=16 * np.finfo(float).eps)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_extreme_logits_finite(self, rng, n_classes):
        model = _mlp(rng, n_classes=n_classes)
        model.w2 *= 1e4  # logit gaps far past exp's range
        n = 6
        X = rng.normal(size=(n, 16))
        masks = self._masks(rng, n)
        probs = tm.forward_pooled(model, masks @ X / n)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([tm.masked_probs(model, X, self._ones(masks), t)
                            for t in range(n_classes)]).T
        assert np.all(np.isfinite(got))
        assert np.any(got == 0.0) and np.any(got == 1.0)
        assert np.allclose(got, probs, rtol=0, atol=1e-12)

    def test_duck_model_uses_pooled_forward(self, rng):
        model = LinearPooledModel(rng.uniform(-0.1, 0.1, 3), base=0.5)
        n = 5
        X = rng.uniform(-1, 1, (2, n, 3))
        masks = self._masks(rng, n)
        for target in (0, 1):
            want = model.pooled_forward(masks @ X / n)[0][..., target]
            assert np.array_equal(
                tm.masked_probs(model, X, self._ones(masks), target), want)


class TestPredictAndPersistence:
    def test_predict_deterministic(self, rng):
        v = tm.build_vocab(["the cat sat"])
        model = random_tiny_model(rng, vocab_size=len(v))
        p1 = tm.predict(model, tm.tokenize(v, "the cat sat"))
        p2 = tm.predict(model, tm.tokenize(v, "the cat sat"))
        assert np.array_equal(p1.probs, p2.probs)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8),
       st.integers(0, 2**31 - 1))
def test_softmax_normalization_property(values, seed):
    rng = np.random.default_rng(seed)
    model = random_tiny_model(rng, d=2, h=2)
    X = np.array(values, dtype=float).reshape(-1, 1) @ np.ones((1, 2))
    pred = tm.forward(model, X)
    assert abs(pred.probs.sum() - 1.0) <= 1e-9
