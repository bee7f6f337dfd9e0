"""Shared fixtures and independent oracles used across the test suite."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from explaudit import attribution as attrib
from explaudit import metrics as met
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


def scaled_classifier(seed):
    """The classifier at its default sizes (d = 16, h = 32), with weights
    scaled by 20 so that a product's last bits show in p."""
    model = tm.init_model(
        20, tm.ModelConfig(embed_dim=16, hidden_dim=32), seed=seed)
    for name in ("w1", "b1", "w2", "b2"):
        setattr(model, name, getattr(model, name) * 20)
    return model


def finite_diff_input_grad(model, X, target, h=1e-4):
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


def finite_diff_pooled_grad(model, pooled, target, h=1e-6):
    """Central-difference gradient of p(target) w.r.t. each element of
    pooled vectors of shape (..., d), from ``tm.forward_pooled`` only."""
    pooled = np.asarray(pooled, dtype=float)
    out = np.zeros_like(pooled)
    for j in range(pooled.shape[-1]):
        step = np.zeros(pooled.shape[-1])
        step[j] = h
        p_plus = tm.forward_pooled(model, pooled + step)[0][..., target]
        p_minus = tm.forward_pooled(model, pooled - step)[0][..., target]
        out[..., j] = (p_plus - p_minus) / (2 * h)
    return out


# Duck-typed models: ``pooled_forward(pooled)`` and ``pooled_grad(pooled,
# target)`` on pooled vectors of shape (..., d), as ``tm.forward_pooled``
# and ``tm.pooled_grad`` expect. Each gradient is the exact derivative of
# its own forward (checked by central differences in test_textmodel).


def _two_class(p1, floor=1e-12):
    probs = np.stack([1 - p1, p1], axis=-1)
    return probs, np.log(np.clip(probs, floor, None))


class LinearPooledModel:
    """Target-class probability base + w . pooled, clipped to (0, 1).

    Linear in the pooled embedding, hence in token masks when used with
    indicator embeddings; gradients and path integrals are closed-form.
    """

    def __init__(self, w, base=0.5):
        self.w = np.asarray(w, dtype=float)
        self.base = base

    def _p1(self, pooled):
        return self.base + np.asarray(pooled, dtype=float) @ self.w

    def pooled_forward(self, pooled):
        return _two_class(np.clip(self._p1(pooled), 1e-9, 1 - 1e-9))

    def pooled_grad(self, pooled, target):
        p1 = self._p1(pooled)[..., None]
        live = (p1 > 1e-9) & (p1 < 1 - 1e-9)
        return np.where(live, self.w if target == 1 else -self.w, 0.0)


class TailRoundingModel:
    """Target-class probability 1e-9 * exp(z), z the first logit of a
    random d -> 32 -> 2 tanh layer. On OpenBLAS the (32 -> 2) logit product
    rounds a call's rows past a multiple of 4 (and a 1-row call) through
    other kernels; scaling, not shifting, the logit keeps those last bits
    in the probability, where a softmax over two logits drops them."""

    def __init__(self, rng, d=16, h=32):
        self.w1 = rng.uniform(-1, 1, (d, h))
        self.w2 = rng.uniform(-1, 1, (h, 2))

    def pooled_forward(self, pooled):
        z = np.tanh(np.asarray(pooled, dtype=float) @ self.w1) @ self.w2
        return _two_class(1e-9 * np.exp(z[..., 0]))


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

    def pooled_grad(self, pooled, target):
        return np.zeros_like(np.asarray(pooled, dtype=float))


class DeadInputModel:
    """Output depends only on embedding dimension 1 of the pooled vector."""

    def _p1(self, pooled):
        return 0.5 + 0.1 * np.asarray(pooled, dtype=float)[..., 1]

    def pooled_forward(self, pooled):
        return _two_class(np.clip(self._p1(pooled), 0.01, 0.99))

    def pooled_grad(self, pooled, target):
        g = np.zeros_like(np.asarray(pooled, dtype=float))
        p1 = self._p1(pooled)
        g[..., 1] = np.where((p1 > 0.01) & (p1 < 0.99),
                             0.1 if target == 1 else -0.1, 0.0)
        return g


class BoundaryModel:
    """Steep sigmoid boundary at pooled dimension 0 = ``center``."""

    def __init__(self, slope=40.0, center=1.0):
        self.slope = slope
        self.center = center

    def _p1(self, pooled):
        z = self.slope * (np.asarray(pooled, dtype=float)[..., 0]
                          - self.center)
        return 1.0 / (1.0 + np.exp(-z))

    def pooled_forward(self, pooled):
        return _two_class(self._p1(pooled))

    def pooled_grad(self, pooled, target):
        g = np.zeros_like(np.asarray(pooled, dtype=float))
        p1 = self._p1(pooled)
        g[..., 0] = self.slope * p1 * (1 - p1) * (1 if target == 1 else -1)
        return g


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


def reference_softmax(logits):
    """Softmax as first written: numpy reductions over the class axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_forward_pooled(model, pooled):
    """The MLP forward formula as first written, one temporary per step."""
    hidden = np.tanh(pooled @ model.w1 + model.b1)
    logits = hidden @ model.w2 + model.b2
    return reference_softmax(logits), logits


def reference_pooled_grad(model, pooled, target_class):
    """``tm.pooled_grad`` as first written."""
    hidden = np.tanh(pooled @ model.w1 + model.b1)
    probs = reference_softmax(hidden @ model.w2 + model.b2)
    dlogits = probs[..., target_class, None] * (
        np.eye(probs.shape[-1])[target_class] - probs)
    return ((dlogits @ model.w2.T) * (1.0 - hidden**2)) @ model.w1.T


def reference_train(model, data, cfg):
    """The training loop as first written: each batch padded on its own,
    the embedding gradient by ``np.add.at`` and one AdamW update per
    parameter. ``tm.train`` must reproduce it bit for bit."""
    data = list(data)
    params = {k: v.copy() for k, v in model.params().items()}
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    rng = np.random.default_rng(cfg.seed)
    b1c, b2c = cfg.betas
    n_batches = (len(data) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * n_batches
    step = 0
    log = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(data), cfg.batch_size):
            batch = [data[i] for i in order[start:start + cfg.batch_size]]
            lengths = np.array([s.n for s, _ in batch])
            ids = np.zeros((len(batch), lengths.max()), dtype=np.int64)
            mask = np.zeros((len(batch), lengths.max()))
            for i, (s, _) in enumerate(batch):
                ids[i, :s.n] = s.ids
                mask[i, :s.n] = 1.0
            y = np.asarray([lbl for _, lbl in batch], dtype=np.int64)
            B = len(batch)

            pooled = (params["emb"][ids] * mask[:, :, None]).sum(axis=1)
            pooled /= lengths[:, None]
            hidden = np.tanh(pooled @ params["w1"] + params["b1"])
            logits = hidden @ params["w2"] + params["b2"]
            probs = reference_softmax(logits)
            p_true = probs[np.arange(B), y]
            epoch_loss += float(-np.log(np.clip(p_true, 1e-12, None)).sum())
            correct += int((probs.argmax(axis=1) == y).sum())

            dlogits = probs.copy()
            dlogits[np.arange(B), y] -= 1.0
            dlogits /= B
            grads = {"w2": hidden.T @ dlogits, "b2": dlogits.sum(axis=0)}
            dpre = (dlogits @ params["w2"].T) * (1.0 - hidden**2)
            grads["w1"] = pooled.T @ dpre
            grads["b1"] = dpre.sum(axis=0)
            dpooled = (dpre @ params["w1"].T) / lengths[:, None]
            demb = np.zeros_like(params["emb"])
            np.add.at(demb, ids.ravel(),
                      (dpooled[:, None, :] * mask[:, :, None])
                      .reshape(-1, demb.shape[1]))
            grads["emb"] = demb

            step += 1
            lr = tm._lr_at(step, total_steps, cfg)
            for k in params:
                g = grads[k]
                m_state[k] = b1c * m_state[k] + (1 - b1c) * g
                v_state[k] = b2c * v_state[k] + (1 - b2c) * g**2
                m_hat = m_state[k] / (1 - b1c**step)
                v_hat = v_state[k] / (1 - b2c**step)
                params[k] -= lr * (m_hat / (np.sqrt(v_hat) + cfg.eps)
                                   + cfg.weight_decay * params[k])
        log.append({"epoch": epoch, "loss": epoch_loss / len(data),
                    "accuracy": correct / len(data)})
    return tm.ClassifierModel(config=model.config, **params), log


def clear_design_memos():
    """Forget the memoized exact KernelSHAP designs, so the next explain
    builds its own (an explain with no query map builds every other
    design and makes every model query itself)."""
    attrib._exact_shap_design.cache_clear()


def reference_sampled_coalitions(n, samples, rng):
    """KernelSHAP's coalition sampler as first written: each row's drawn
    size, with the probability of size k the textbook Shapley kernel
    weight ``(n - 1) / (C(n, k) k (n - k))`` times the C(n, k) coalitions
    of that size, then its tokens by a row-wise ``argsort`` of uniform
    keys. ``attrib._sampled_coalitions`` must reproduce it bit for bit."""
    sizes = np.arange(1, n)
    size_p = np.array([(n - 1) / (math.comb(n, k) * k * (n - k))
                       * math.comb(n, k) for k in sizes])
    size_p /= size_p.sum()
    drawn = rng.choice(sizes, size=samples, p=size_p)
    order = rng.random((samples, n)).argsort(axis=1)
    Z = np.zeros((samples, n))
    np.put_along_axis(Z, order, np.arange(n) < drawn[:, None], axis=1)
    return Z


def _reference_probs(model, X, masks, target):
    """Target-class probability of every mask row, per (n, d) slice."""
    return tm.forward_pooled(model, masks @ X / X.shape[-2])[0][..., target]


def reference_surrogate(method, model, X, target, cfg):
    """LIME or sampled KernelSHAP scores as first written: every mask row
    queried, then one ``np.linalg.solve`` per input of LIME's ridge
    normal equations or of KernelSHAP's KKT system. ``attrib.explain``'s
    fitted map must agree with it to rounding."""
    X = np.asarray(X, dtype=float)
    n = X.shape[-2]
    if method == "LIME":
        rng = np.random.default_rng(cfg.seed)
        Z = (rng.random((cfg.lime_samples, n)) < 0.5).astype(float)
        width = cfg.lime_kernel_width or 0.75 * math.sqrt(n)
        w = np.exp(-((n - Z.sum(axis=1)) ** 2) / width**2)
        A = np.column_stack([np.ones(len(Z)), Z])
        system = A.T * w @ A + cfg.ridge * np.diag([0.0] + [1.0] * n)
        y = _reference_probs(model, X, Z, target)
        return np.linalg.solve(system, (A.T * w @ y[..., None]))[..., 1:, 0]
    full = _reference_probs(model, X, np.ones((1, n)), target)[..., 0]
    empty = _reference_probs(model, X, np.zeros((1, n)), target)[..., 0]
    Z = attrib._sampled_coalitions(n, cfg.shap_samples,
                                   np.random.default_rng(cfg.seed))
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = Z.T @ Z + 1e-10 * np.eye(n)
    kkt[:n, n] = 0.5
    kkt[n, :n] = 1.0
    y = _reference_probs(model, X, Z, target) - empty[..., None]
    rhs = np.concatenate([Z.T @ y[..., None],
                          (full - empty)[..., None, None]], axis=-2)
    return np.linalg.solve(kkt, rhs)[..., :n, 0]


def reference_sensitivity(model, method, X, attr, cfg, target,
                          attr_cfg=None):
    """The PGD search of ``met.sensitivity`` as first written: every step
    re-explains each restart on its own, from a freshly built design.
    ``met.sensitivity`` must reproduce it bit for bit. A whole array's L2
    norm is the square root of numpy's sum of its squares, one array at a
    time."""
    def norm(v):
        return np.sqrt(np.sum(v * v))

    pgd = cfg.pgd
    X = np.asarray(X, dtype=float)
    base = np.asarray(attr.scores, dtype=float)
    base_norm = norm(base)
    radius = pgd.radius
    if radius is None:
        radius = 0.1 * float(np.mean(np.linalg.norm(X, axis=1)))
    step_size = pgd.step_size if pgd.step_size is not None else radius / 5
    rng = np.random.default_rng(pgd.seed)
    worst = 0.0
    for restart in range(pgd.restarts):
        if restart == 0:
            delta = np.zeros_like(X)
        else:
            delta = rng.standard_normal(X.shape)
            delta *= radius / max(norm(delta), 1e-12)
        for _ in range(pgd.steps):
            g = tm.grad_wrt_embeddings_matrix(model, X + delta, target)
            g_norm = norm(g)
            if g_norm > 0:
                delta -= step_size * g / g_norm
            d_norm = norm(delta)
            if d_norm > radius:
                delta *= radius / d_norm
            clear_design_memos()
            perturbed = attrib.explain(method, model, X + delta, target,
                                       attr_cfg)
            change = norm(np.asarray(perturbed.scores, dtype=float) - base)
            worst = max(worst, change / base_norm)
    return float(worst)


def reference_normalize(scores):
    """``attrib.normalize_scores`` as first written, on one score vector."""
    s = np.abs(np.asarray(scores, dtype=float))
    m = s.max()
    return s / m if m > 0 else s


def reference_sparsity(scores, tau):
    """``met.sparsity`` as first written, on one score vector."""
    return float(np.mean(np.abs(np.asarray(scores, dtype=float)) >= tau))


def reference_gini(scores):
    """``met.gini_index`` on one score vector (the all-zero warning left
    out): the sorted form sum_k (2k - n - 1) s_(k) / (n sum s) with each
    pair of symmetric terms as one difference, clamped to [0, 1 - 1/n]."""
    s = np.sort(np.abs(np.asarray(scores, dtype=float)))
    total = s.sum()
    n = len(s)
    if total == 0:
        return 0.0
    k = np.arange(1, n // 2 + 1)
    pairs = (s[::-1][:n // 2] - s[:n // 2]) * (n + 1 - 2 * k)
    return float(min(max(np.sum(pairs) / (n * total), 0.0), 1 - 1 / n))


def reference_soft_rows(X, retain, seed, samples):
    """The pooled rows of one soft-metric cell as first drawn: a fresh
    (samples, n, d) Bernoulli draw keeping each element of token i with
    probability ``retain[i]``, then the mean over tokens. The rows of
    ``met.score_input``'s soft cells must equal it bit for bit."""
    n, d = X.shape
    e = np.random.default_rng(seed).random((samples, n, d)) \
        < retain[:, None]
    return (X[None] * e).mean(axis=1)


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
