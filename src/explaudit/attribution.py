"""Six local post-hoc feature-attribution methods behind ``explain``.

``explain`` returns one real score per token for a target class, in an
``Attribution`` that keeps the method, class and config. The classifier
mean-pools its input, so the gradient methods need only the model's
pooled gradient ``g``, which every token shares as ``g / n``: GRAD is
``||g|| / n`` for every token, GXI is ``x_i . g / n``, and IG and IGXI use
the mean of ``g`` over the path (one batched ``pooled_grad`` call). LIME
and KernelSHAP are linear in the model outputs they fit: each design
(LIME's masks, KernelSHAP's sampled coalitions with f(x) and f(empty),
or all 2^n coalitions for exact Shapley values in closed form) is built
per (n, config) as its distinct rows, their ``[rows | 1]`` and one
read-only map ``W``, and explains as ``W @ p(rows)``. Sibling explainers
share one model query per input in a query map that the caller owns:
GRAD and GXI one gradient, IG and IGXI one path, and LIME and KernelSHAP,
where KernelSHAP is exact, one all-coalitions query, which LIME reads
even when explained alone. The map also keeps the seeded designs for the
input's PGD path (``designs_of``). All methods also accept raw
(..., n, d) embeddings so that robustness search can re-explain a stack
of perturbed inputs, each slice bit for bit as its own 2-D call (checked
on the SkylakeX, Haswell, Sandybridge and Prescott kernels).
``degenerate`` flags attributions that rank no token above another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import textmodel
from .errors import ConfigError, NumericalError

METHODS = ("GRAD", "GXI", "IG", "IGXI", "LIME", "SHAP")
GRADIENT_METHODS = METHODS[:4]  # read no seed: one call explains a stack
TIE = 1e-9  # normalized scores closer than this rank as tied


@dataclass
class AttributionConfig:
    ig_steps: int = 32
    lime_samples: int = 1000
    lime_kernel_width: float = 0.0  # 0 -> 0.75 * sqrt(n)
    shap_samples: int = 2048
    ridge: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.ig_steps < 1:
            raise ConfigError("ig_steps must be >= 1")
        if self.lime_samples < 1 or self.shap_samples < 1:
            raise ConfigError("sample counts must be >= 1")
        if not 0 <= self.lime_kernel_width < math.inf:
            raise ConfigError("kernel width must be finite and >= 0")
        if not 0 <= self.ridge < math.inf:
            raise ConfigError("ridge must be finite and >= 0")


@dataclass
class Attribution:
    method: str
    tokens: list
    scores: np.ndarray
    target_class: int
    cfg: AttributionConfig = field(default_factory=AttributionConfig)


def resolve_input(model, seq):
    """(X, token names) of a TokenSeq or of raw (..., n, d) embeddings."""
    if isinstance(seq, textmodel.TokenSeq):
        return textmodel.embed(model, seq), list(seq.tokens)
    X = np.asarray(seq, dtype=float)
    return X, [f"tok{i}" for i in range(X.shape[-2])]


def _query(queries, key, query, *args):
    """``query(*args)``, kept in the caller's map ``queries`` (if any)
    under ``key`` for the next explain of the same input."""
    if queries is None:
        return query(*args)
    if key not in queries:
        queries[key] = query(*args)
    return queries[key]


def designs_of(queries):
    """A new query map, for an input's PGD path, with the designs (which
    depend on no input) but none of the model queries of ``queries``."""
    return {k: v for k, v in (queries or {}).items() if k[0] == "design"}


def _gradient(model, X, target, queries):
    return _query(queries, ("grad", target),
                  textmodel.grad_wrt_embeddings_matrix, model, X, target)


def _grad(model, X, target, cfg, queries):
    return np.linalg.norm(_gradient(model, X, target, queries), axis=-1)


def _grad_x_input(model, X, target, cfg, queries):
    return (_gradient(model, X, target, queries) * X).sum(axis=-1)


def _ig_per_dim(model, X, target, steps):
    """Integrated-gradients attribution per embedding element (..., n, d).

    Zero baseline, right Riemann sum with ``steps`` points on the straight
    path from the baseline to X. Every token of s * X has the gradient
    ``pooled_grad(s * mean(X)) / n``, so one batched call over the path
    points gives all of them.
    """
    scales = np.arange(1, steps + 1)[:, None] / steps
    path = scales * X.mean(axis=-2, keepdims=True)
    g = textmodel.pooled_grad(model, path, target)
    return X * (g.sum(axis=-2, keepdims=True) / X.shape[-2]) / steps


def _ig(model, X, target, cfg, queries):
    return _query(queries, ("ig", target, cfg.ig_steps), _ig_per_dim,
                  model, X, target, cfg.ig_steps)


def _integrated_gradients(model, X, target, cfg, queries):
    return _ig(model, X, target, cfg, queries).sum(axis=-1)


def _ig_x_input(model, X, target, cfg, queries):
    return (_ig(model, X, target, cfg, queries) * X).sum(axis=-1)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fit_map(system, rhs):
    """``inv(system) @ rhs``, read-only: the linear map of a surrogate fit
    (LIME's ridge normal equations, KernelSHAP's KKT system) from query
    values to coefficients; NumericalError if the system is singular."""
    try:
        W = np.linalg.inv(system) @ rhs
    except np.linalg.LinAlgError:
        W = None
    if W is None or not np.all(np.isfinite(W)):
        raise NumericalError("singular surrogate fit system")
    return _read_only(W)[0]


def _probs(model, X, target, rows1):
    """p(target) of X under each row of ``[rows | 1]``, one (R, n, d)
    block at a time, so a query holds no more rows than such an explain."""
    y = np.empty(X.shape[:-2] + (len(rows1),))
    for idx in np.ndindex(X.shape[:-3]):
        y[idx] = textmodel.masked_probs(model, X[idx], rows1, target)
    return y


def _fit(W, y):
    """Scores ``W @ y``; a non-finite value in ``y`` raises NumericalError."""
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite model output in surrogate fit")
    return np.matmul(W, y[..., None])[..., 0]


def _exact(n, cfg):
    """Whether KernelSHAP is exact (its budget covers all 2^n - 2 proper
    coalitions), and LIME and KernelSHAP read one all-coalitions query."""
    return 2**n - 2 <= cfg.shap_samples


def _coalition_probs(model, X, target, queries):
    """p(target) of X under all 2^n coalitions in bit-code order."""
    return _query(queries, ("coalitions", target), _probs, model, X, target,
                  _exact_shap_design(X.shape[-2])[1])


def _distinct_rows(Z):
    """The distinct rows of mask rows ``Z`` and each one's count in ``Z``,
    read-only: a least-squares fit over ``Z`` is the fit over the rows with
    each weight times the row's count. Rows are told apart by integer
    codes of 52 bits per word, exact in a float product."""
    bit = np.arange(Z.shape[1])
    weights = np.zeros((len(bit), bit[-1] // 52 + 1))
    weights[bit, bit // 52] = 2.0 ** (bit % 52)
    codes = (Z @ weights).T
    _, inverse = np.unique(codes[0], return_inverse=True)
    for word in codes[1:]:
        _, rank = np.unique(word, return_inverse=True)
        _, inverse = np.unique(inverse * len(Z) + rank, return_inverse=True)
    distinct = np.empty(inverse.max() + 1, dtype=np.intp)
    distinct[inverse] = np.arange(len(Z))  # any row of each code will do
    return _read_only(Z.take(distinct, axis=0), np.bincount(inverse))


def _with_ones(rows):
    """``rows`` as a view of ``[rows | 1]``, and ``[rows | 1]``, read-only:
    one copy of the rows, which no ``masked_probs`` query rebuilds."""
    rows1 = np.column_stack([rows, np.ones(len(rows))])
    return _read_only(rows1[:, :-1], rows1)


def _lime_design(n, samples, width, seed, ridge):
    """LIME's masks as their distinct ``rows``, ``[rows | 1]`` and the map
    of the kernel-weighted ridge fit, ``inv(A.T * w @ A + ridge * P) @
    (A.T * w)`` without the intercept row, where ``A = [1 | rows]``, ``w``
    is the kernel times each row's count and ``P`` leaves the intercept
    unpenalized; read-only."""
    Z = np.random.default_rng(seed).random((samples, n)) < 0.5
    rows, counts = _distinct_rows(Z.astype(float))
    width = width or 0.75 * math.sqrt(n)
    dist = n - rows @ np.ones(n)  # exact integers, like rows.sum(axis=1)
    w = counts * np.exp(-(dist**2) / width**2)
    A = np.column_stack([np.ones(len(rows)), rows])
    AtW = A.T * w
    system = AtW @ A + ridge * np.diag([0.0] + [1.0] * n)
    return (*_with_ones(rows), _fit_map(system, AtW)[1:])


def _lime(model, X, target, cfg, queries):
    """LIME with Bernoulli(0.5) token masks and an exponential kernel.

    Mask distance is the Hamming distance to the all-ones mask; masked
    tokens have their embedding rows zeroed. Where KernelSHAP is exact, the
    mask rows' values are read by bit code from the all-coalitions query,
    even with no KernelSHAP explain to share it (then up to 2.6x the rows)."""
    n = X.shape[-2]
    key = (n, cfg.lime_samples, cfg.lime_kernel_width, cfg.seed, cfg.ridge)
    rows, rows1, W = _query(queries, ("design", "LIME") + key,
                            _lime_design, *key)
    if not _exact(n, cfg):
        return _fit(W, _probs(model, X, target, rows1))
    codes = (rows @ 2.0 ** np.arange(n)).astype(np.intp)
    return _fit(W, _coalition_probs(model, X, target, queries)[..., codes])


def _sampled_coalitions(n, samples, rng):
    """``samples`` coalitions: sizes k = 1 .. n - 1 drawn in proportion to
    ``(n - 1) / (k (n - k))``, the Shapley kernel weight times the C(n, k)
    coalitions of size k, then a uniform subset of each size (the row's k
    tokens with the smallest uniform keys: those at or below its k-th
    smallest key, or by a row-wise ``argsort`` where that key is tied)."""
    k = np.arange(1, n)
    p = (n - 1) / (k * (n - k))
    drawn = rng.choice(k, size=samples, p=p / p.sum())
    keys = rng.random((samples, n))
    srt = np.sort(keys, axis=1)
    kth = np.take_along_axis(srt, drawn[:, None] - 1, 1)
    Z = (keys <= kth).astype(float)
    for row in np.flatnonzero(srt[np.arange(samples), drawn] == kth[:, 0]):
        Z[row, keys[row].argsort()] = np.arange(n) < drawn[row]
    return Z


@functools.lru_cache(maxsize=None)
def _exact_shap_design(n):
    """The Shapley formula as a design: all 2^n coalitions T in bit-code
    order (token i is bit i), each queried once, ``[rows | 1]``, and the
    map ``W[i, T] = w(|T| - 1)`` if i is in T, else ``-w(|T|)``, with the
    Shapley weights ``w(k) = k! (n - k - 1)! / n!`` and ``w(n) = 0``. It
    depends on n alone (at most log2 of the sample budget), so every input
    of that length shares it."""
    bits = (np.arange(2**n) >> np.arange(n)[:, None]) & 1
    size = bits.sum(axis=0)
    w = np.append([1 / (n * math.comb(n - 1, k)) for k in range(n)], 0.0)
    W = np.where(bits, w[size - 1], -w[size])
    return (*_with_ones(bits.T), *_read_only(W))


def _sampled_shap_design(n, samples, seed):
    """The design of ``samples`` sampled unit-weight coalitions ``Z``: its
    queries (full, empty, then the distinct rows of ``Z``), their
    ``[rows | 1]``, and the first n rows of ``inv(K) @ B``, with K the KKT
    matrix of the least squares ``Z @ phi ~ f(Z) - f(empty)`` subject to
    ``sum(phi) = f(x) - f(empty)`` and B the operator that builds its
    right-hand side from the values. Each distinct row enters both by its
    integer count, so K is ``Z.T @ Z`` bit for bit."""
    rows, counts = _distinct_rows(
        _sampled_coalitions(n, samples, np.random.default_rng(seed)))
    Zc = rows.T * counts
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = Zc @ rows + 1e-10 * np.eye(n)
    K[:n, n] = 0.5
    K[n, :n] = 1.0
    B = np.zeros((n + 1, len(rows) + 2))
    B[:n, 1] = -Zc.sum(axis=1)
    B[:n, 2:] = Zc
    B[n, :2] = 1.0, -1.0
    coalitions = np.concatenate([np.ones((1, n)), np.zeros((1, n)), rows])
    return (*_with_ones(coalitions), _fit_map(K, B)[:n])


def _kernel_shap(model, X, target, cfg, queries):
    """KernelSHAP with the efficiency constraint enforced exactly.

    When the sampling budget covers all 2^n - 2 proper coalitions, the
    scores are exact Shapley values, by the Shapley formula over all 2^n
    coalitions. Otherwise ``shap_samples`` coalitions are drawn with unit
    weight (each size k from the kernel's size distribution, proportional
    to (n - 1) / (k (n - k)), then a subset uniform among those of size
    k, seeded by ``cfg.seed``) and fitted under the constraint. f(x) and
    f(empty) are rows of the same model query as the coalitions, and
    sum(scores) = f(x) - f(empty) holds by construction of the map."""
    n = X.shape[-2]
    if _exact(n, cfg):
        return _fit(_exact_shap_design(n)[2],
                    _coalition_probs(model, X, target, queries))
    key = (n, cfg.shap_samples, cfg.seed)
    _, rows1, W = _query(queries, ("design", "SHAP") + key,
                         _sampled_shap_design, *key)
    return _fit(W, _probs(model, X, target, rows1))


def normalize_scores(attr):
    """Map scores to [0, 1] via |s_i| / max_j |s_j|; all-zero stays zero."""
    return normalized([attr])[0]


def normalized(attrs):
    """``normalize_scores`` of each attribution, row by row."""
    s = np.abs(np.array([attr.scores for attr in attrs], dtype=float))
    m = s.max(axis=1, keepdims=True)
    return np.divide(s, m, out=s, where=m > 0)


def degenerate(attrs):
    """Whether each attribution ranks no token above another: its |s| is
    all zero, or constant within a relative tolerance of ``TIE`` (GRAD on
    a mean-pooled model, whose tokens all share one gradient)."""
    s = np.abs(np.array([attr.scores for attr in attrs], dtype=float))
    top = s.max(axis=1)
    return (top - s.min(axis=1) <= TIE * top).tolist()


_EXPLAINERS = {"GRAD": _grad, "GXI": _grad_x_input,
               "IG": _integrated_gradients, "IGXI": _ig_x_input,
               "LIME": _lime, "SHAP": _kernel_shap}


def explain(method, model, seq, target, cfg=None, queries=None):
    """Attribution of ``seq`` (a TokenSeq or raw (..., n, d) embeddings)
    for class ``target`` by method tag, under ``cfg`` or the defaults, with
    the caller's query map ``queries`` (a dict for one model and input)."""
    fn = _EXPLAINERS.get(method.upper())
    if fn is None:
        raise ConfigError(f"unknown attribution method: {method}")
    cfg = cfg or AttributionConfig()
    X, tokens = resolve_input(model, seq)
    return Attribution(method.upper(), tokens,
                       fn(model, X, target, cfg, queries), target, cfg)
