"""Shared fixtures and independent oracles used across the test suite."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from explaudit import textmodel as tm


def random_tiny_model(rng, vocab_size=6, d=3, h=3):
    """Random small classifier with weights large enough that gradients
    are non-trivial."""
    cfg = tm.ModelConfig(embed_dim=d, hidden_dim=h)
    model = tm.ClassifierModel(
        emb=rng.uniform(-1, 1, (vocab_size, d)),
        w1=rng.uniform(-1, 1, (d, h)),
        b1=rng.uniform(-0.5, 0.5, h),
        w2=rng.uniform(-1, 1, (h, 2)),
        b2=rng.uniform(-0.5, 0.5, 2),
        config=cfg,
    )
    return model


def finite_diff_embedding_grad(model, X, target, h=1e-4):
    """Central-difference gradient of p(target) w.r.t. each embedding
    element. Independent of the reverse-mode path."""
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            plus = X.copy()
            plus[i, j] += h
            minus = X.copy()
            minus[i, j] -= h
            p_plus = tm.forward(model, plus).probs[target]
            p_minus = tm.forward(model, minus).probs[target]
            out[i, j] = (p_plus - p_minus) / (2 * h)
    return out


class LinearPooledModel:
    """Duck-typed model with target-class probability base + w . pooled.

    Linear in the pooled embedding, hence in token masks when used with
    indicator embeddings; gradients and path integrals are closed-form.
    """

    def __init__(self, w, base=0.5):
        self.w = np.asarray(w, dtype=float)
        self.base = base

    def pooled_forward(self, pooled):
        pooled = np.asarray(pooled, dtype=float)
        p1 = self.base + pooled @ self.w
        p1 = np.clip(p1, 1e-9, 1 - 1e-9)
        probs = np.stack([1 - p1, p1], axis=-1)
        return probs, np.log(probs)

    def embedding_grad(self, X, target):
        n = X.shape[0]
        sign = 1.0 if target == 1 else -1.0
        return sign * np.tile(self.w / n, (n, 1))


def indicator_embeddings(n):
    """(n, n) embeddings with X = n * I so the mean-pooled vector equals
    the token presence mask."""
    return n * np.eye(n)


def planted_token_model(coeffs, base=0.5):
    """Model whose class-1 probability is base + sum_i c_i * presence_i
    when used with indicator embeddings."""
    return LinearPooledModel(np.asarray(coeffs, dtype=float), base)


class ConstantModel:
    """Model ignoring its input entirely."""

    def __init__(self, p1=0.5):
        self.p1 = p1

    def pooled_forward(self, pooled):
        pooled = np.asarray(pooled, dtype=float)
        shape = pooled.shape[:-1] + (2,)
        probs = np.broadcast_to(
            np.array([1 - self.p1, self.p1]), shape).copy()
        return probs, np.log(probs)

    def embedding_grad(self, X, target):
        return np.zeros_like(np.asarray(X, dtype=float))


def exact_shapley(value_fn, n):
    """Brute-force Shapley values over all 2^n coalitions."""
    phis = np.zeros(n)
    fact = math.factorial
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for k in range(n):
            for subset in combinations(others, k):
                weight = fact(k) * fact(n - k - 1) / fact(n)
                phis[i] += weight * (value_fn(set(subset) | {i})
                                     - value_fn(set(subset)))
    return phis


def shapley_from_values(values, n):
    """Exact Shapley values from the value of every coalition, where
    ``values[c]`` belongs to the coalition holding token i iff bit i of c
    is set. Same formula as ``exact_shapley``, vectorised over coalitions."""
    codes = np.arange(2**n)
    sizes = ((codes[:, None] >> np.arange(n)) & 1).sum(axis=1)
    fact = math.factorial
    weight = np.array([fact(k) * fact(n - k - 1) / fact(n)
                       for k in range(n)])
    phis = np.zeros(n)
    for i in range(n):
        without = codes[(codes >> i) & 1 == 0]
        phis[i] = np.sum(weight[sizes[without]]
                         * (values[without | (1 << i)] - values[without]))
    return phis


def all_coalition_probs(model, X, target=1):
    """Target-class probability for every coalition, indexed as in
    ``shapley_from_values``."""
    n = X.shape[0]
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    probs, _ = tm.forward_pooled(model, (masks @ X) / n)
    return probs[:, target]


def masked_prob(model, X, kept, target=1):
    """Target-class probability with only `kept` token rows retained."""
    n = X.shape[0]
    mask = np.zeros(n)
    for i in kept:
        mask[i] = 1.0
    pooled = (mask @ X) / n
    probs, _ = tm.forward_pooled(model, pooled)
    return float(probs[target])


def exact_soft_value(model, X, retain_q, target, kind):
    """Exact Bernoulli enumeration of the soft metrics over all 2^(n*d)
    element masks. ``retain_q`` is the per-token retain probability."""
    n, d = X.shape
    p_full, _ = tm.forward_pooled(model, X.mean(axis=0))
    p_full = p_full[target]
    expected_drop = 0.0
    for bits in product((0, 1), repeat=n * d):
        e = np.array(bits, dtype=float).reshape(n, d)
        prob = 1.0
        for i in range(n):
            for j in range(d):
                prob *= retain_q[i] if e[i, j] else 1 - retain_q[i]
        if prob == 0.0:
            continue
        pooled = (X * e).mean(axis=0)
        p_pert, _ = tm.forward_pooled(model, pooled)
        expected_drop += prob * max(0.0, p_full - p_pert[target])
    if kind == "sufficiency":
        return 1.0 - expected_drop
    return expected_drop


def exact_u_distribution_p(a, b):
    """Two-sided exact Mann-Whitney p via full enumeration of rank
    assignments (tie-free inputs only)."""
    n_a, n_b = len(a), len(b)
    pooled = sorted(a + b)
    assert len(set(pooled)) == len(pooled), "oracle requires tie-free data"
    ranks_a = [pooled.index(x) + 1 for x in a]
    u_a = sum(ranks_a) - n_a * (n_a + 1) / 2
    u_b = n_a * n_b - u_a
    u_min = min(u_a, u_b)
    hits = total = 0
    for picked in combinations(range(1, n_a + n_b + 1), n_a):
        ua = sum(picked) - n_a * (n_a + 1) / 2
        if min(ua, n_a * n_b - ua) <= u_min:
            hits += 1
        total += 1
    return hits / total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
