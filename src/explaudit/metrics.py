"""Explanation-quality metrics.

Seven scalar metrics over (model, input, attribution): AOPC
comprehensiveness/sufficiency, their soft Bernoulli-masking variants,
sparsity, Gini concentration, and worst-case sensitivity under a
projected-gradient search in embedding space. Each reads the explained
class, and sensitivity also the method and config, from the attribution.

Token "removal" is zero-embedding throughout, keeping sequence length
fixed and matching the masking semantics of the surrogate explainers.
``score_input`` scores every attribution of one input with every metric,
the masked queries of all faithfulness cells in one batched forward call;
``evaluate`` scores one attribution with one metric.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import attribution as attrib
from . import textmodel
from .errors import ConfigError

METRICS = ("comprehensiveness", "sufficiency", "soft_comprehensiveness",
           "soft_sufficiency", "sparsity", "gini", "sensitivity")
SOFT_METRICS = ("soft_comprehensiveness", "soft_sufficiency")
SEEDED_METRICS = SOFT_METRICS + ("sensitivity",)  # draw random numbers


@dataclass
class PGDConfig:
    radius: float | None = None  # None -> 0.1 * mean embedding norm
    steps: int = 10
    step_size: float | None = None  # None -> radius / 5
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.radius is not None and self.radius < 0:
            raise ConfigError("radius must be >= 0")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ConfigError("step_size must be > 0")


@dataclass
class MetricConfig:
    thresholds: tuple = tuple(round(0.1 * k, 1) for k in range(1, 11))
    sparsity_tau: float = 0.1
    soft_samples: int = 16
    soft_seed: int = 0
    pgd: PGDConfig = field(default_factory=PGDConfig)

    def __post_init__(self):
        t = list(self.thresholds)
        if not t or any(b <= a for a, b in zip(t, t[1:])) \
                or t[0] <= 0 or t[-1] > 1:
            raise ConfigError("thresholds must be strictly increasing in (0, 1]")
        if self.sparsity_tau <= 0:
            raise ConfigError("sparsity threshold must be positive")
        if self.soft_samples < 1:
            raise ConfigError("soft_samples must be >= 1")


@dataclass
class ScoreSample:
    pair_id: str
    subgroup: str
    method: str
    metric: str
    value: float  # NaN marks a missing value (e.g. undefined sensitivity)


def sparsity(attr, cfg=None):
    """Share of raw scores with |s_i| >= tau (boundary inclusive)."""
    cfg = cfg or MetricConfig()
    s = np.abs(np.asarray(attr.scores, dtype=float))
    return float(np.mean(s >= cfg.sparsity_tau))


def gini_index(attr):
    """Concentration of absolute scores: 0 = uniform, 1 - 1/n = one-hot.

    Computed on the scores sorted ascending by absolute value. A zero
    attribution vector is defined as 0 (maximally non-concentrated).
    """
    s = np.sort(np.abs(np.asarray(attr.scores, dtype=float)))
    total = s.sum()
    n = len(s)
    if total == 0:
        warnings.warn("all-zero attribution: Gini index defined as 0")
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(1.0 - 2.0 * np.sum((s / total) * ((n - ranks + 0.5) / n)))


def sensitivity(model, seq, attr, cfg=None):
    """Worst-case relative explanation change under an L2-bounded
    perturbation of the input embeddings, searched with PGD.

    Each gradient step ascends the prediction error (descends the
    probability of the explained class), is projected back onto the radius
    ball, and the perturbed input is re-explained with the attribution's
    method, class and config, all restarts as one (restarts, n, d) stack:
    one gradient call and one re-explain per step; LIME and SHAP reuse one
    memoized design.
    Returns NaN when the reference explanation has zero norm.
    """
    cfg = cfg or MetricConfig()
    pgd = cfg.pgd
    X, _ = attrib.resolve_input(model, seq)
    j = attr.target_class
    base = np.asarray(attr.scores, dtype=float)
    base_norm = np.linalg.norm(base)
    if base_norm == 0:
        return float("nan")

    radius = pgd.radius
    if radius is None:
        radius = 0.1 * float(np.mean(np.linalg.norm(X, axis=1)))
    if radius == 0:
        return 0.0
    step_size = pgd.step_size if pgd.step_size is not None else radius / 5

    rng = np.random.default_rng(pgd.seed)
    delta = np.zeros((pgd.restarts,) + X.shape)
    for d_r in delta[1:]:  # restart 0 starts at X, the others on the sphere
        d_r[...] = rng.standard_normal(X.shape)
        d_r *= radius / max(np.linalg.norm(d_r), 1e-12)
    worst = 0.0
    for _ in range(pgd.steps):
        g = textmodel.grad_wrt_embeddings_matrix(model, X + delta, j)
        # norms per restart: an axis-wise norm would sum in another order
        for d_r, g_r in zip(delta, g):
            g_norm = np.linalg.norm(g_r)
            if g_norm > 0:
                d_r -= step_size * g_r / g_norm  # ascend the error on class j
            d_norm = np.linalg.norm(d_r)
            if d_norm > radius:
                d_r *= radius / d_norm
        perturbed = attrib.explain(attr.method, model, X + delta, j,
                                   attr.cfg)
        for scores in np.asarray(perturbed.scores, dtype=float):
            worst = max(worst, np.linalg.norm(scores - base) / base_norm)
    return float(worst)


def score_input(model, seq, attrs, metrics, cfg=None, seeds=None):
    """Every metric in ``metrics`` of every attribution in ``attrs`` of one
    input; returns ``values[k][i]`` for attribution k and metric i. All
    attributions must explain the same class (else ConfigError).

    The masked model queries of all faithfulness cells go into one batched
    forward call: each attribution's AOPC threshold masks, pooled as
    ``mask @ X / n``, then its soft-metric rows, where X' keeps each
    embedding element with its token's retain probability
    (comprehensiveness: 1 - normalized score; sufficiency: the normalized
    score). Each family compares against p(X) from one 1-row call. A
    sensitivity cell is ``evaluate``'s PGD search.
    ``seeds[k][i]`` seeds the draw of a soft cell and the search of a
    sensitivity cell; it defaults to ``cfg.soft_seed`` and ``cfg.pgd.seed``.
    """
    cfg = cfg or MetricConfig()
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ConfigError(f"unknown metric: {sorted(unknown)}")
    if len({attr.target_class for attr in attrs}) > 1:
        raise ConfigError("attributions explain different classes")
    values = [[sparsity(attr, cfg) if metric == "sparsity"
               else gini_index(attr) if metric == "gini" else None
               for metric in metrics] for attr in attrs]
    for k, attr in enumerate(attrs):
        for i, metric in enumerate(metrics):
            if metric == "sensitivity":
                one = cfg if seeds is None else replace(
                    cfg, pgd=replace(cfg.pgd, seed=seeds[k][i]))
                values[k][i] = evaluate(metric, model, seq, attr, one)
    cells = [(k, i, metric) for k in range(len(attrs))
             for i, metric in enumerate(metrics) if values[k][i] is None]
    if not cells:
        return values

    X, _ = attrib.resolve_input(model, seq)
    n, d = X.shape
    j = attrs[0].target_class
    thresholds = np.asarray(cfg.thresholds)[:, None]
    norms = [attrib.normalize_scores(attr) for attr in attrs]
    aopc, soft = [], []  # (k, i, rows) per cell
    for k, i, metric in cells:
        if metric == "comprehensiveness":
            aopc.append((k, i, (norms[k] < thresholds).astype(float)))
        elif metric == "sufficiency":
            aopc.append((k, i, (norms[k] >= thresholds).astype(float)))
        else:
            retain = norms[k] if metric == "soft_sufficiency" \
                else 1.0 - norms[k]
            seed = cfg.soft_seed if seeds is None else seeds[k][i]
            e = np.random.default_rng(seed).random(
                (cfg.soft_samples, n, d)) < retain[:, None]
            soft.append((k, i, (X[None] * e).mean(axis=1)))

    pooled = [np.concatenate([r for *_, r in aopc]) @ X / n] if aopc else []
    probs = textmodel.forward_pooled(
        model, np.concatenate(pooled + [r for *_, r in soft]))[0][:, j]
    # p(X) stays a 1-row call per family, pooled as each always was: BLAS
    # takes another kernel for a 1-row product than for a row of a batch,
    # so batching it would move its last bits
    start = 0
    for family, full in ((aopc, np.ones((1, n)) @ X / n),
                         (soft, X.mean(axis=0))):
        if not family:
            continue
        p_full = textmodel.forward_pooled(model, full)[0][..., j]
        # all cells of a family have as many rows, each reduced in turn
        shape = (len(family), len(family[0][2]))
        stop = start + shape[0] * shape[1]
        drops = np.maximum(0.0, p_full - probs[start:stop]).reshape(shape)
        start = stop
        for (k, i, _), mean in zip(family, drops.mean(axis=1)):
            flip = metrics[i] == "soft_sufficiency"
            values[k][i] = float(1.0 - mean if flip else mean)
    return values


def evaluate(metric, model, seq, attr, cfg=None):
    """One metric of one attribution, by name: the PGD search for
    sensitivity (``score_input`` calls it for each sensitivity cell),
    otherwise a one-cell ``score_input``."""
    if metric == "sensitivity":
        return sensitivity(model, seq, attr, cfg)
    return score_input(model, seq, [attr], (metric,), cfg)[0][0]


def write_scores_csv(samples, path):
    """Score table: pair_id, subgroup, method, metric, value.

    Missing values (NaN) are written as an empty field.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["pair_id", "subgroup", "method", "metric", "value"])
        for s in samples:
            value = "" if math.isnan(s.value) else repr(s.value)
            w.writerow([s.pair_id, s.subgroup, s.method, s.metric, value])


def read_scores_csv(path):
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            value = float(row["value"]) if row["value"] else float("nan")
            out.append(ScoreSample(row["pair_id"], row["subgroup"],
                                   row["method"], row["metric"], value))
    return out
