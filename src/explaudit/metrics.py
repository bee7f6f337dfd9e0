"""Explanation-quality metrics.

Seven scalar metrics over (model, input, attribution): AOPC
comprehensiveness/sufficiency, their soft Bernoulli-masking variants,
sparsity, Gini concentration, and worst-case sensitivity under a
projected-gradient search in embedding space.

Token "removal" is zero-embedding throughout, keeping sequence length
fixed and matching the masking semantics of the surrogate explainers.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import attribution as attrib
from . import textmodel
from .errors import ConfigError

METRICS = ("comprehensiveness", "sufficiency", "soft_comprehensiveness",
           "soft_sufficiency", "sparsity", "gini", "sensitivity")


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


@dataclass
class MetricConfig:
    thresholds: tuple = tuple(round(0.1 * k, 1) for k in range(1, 11))
    sparsity_tau: float = 0.1
    soft_samples: int = 16
    soft_seed: int = 0
    pgd: PGDConfig = field(default_factory=PGDConfig)
    use_gold_label: bool = False

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


def _input_matrix(model, seq):
    if isinstance(seq, textmodel.TokenSeq):
        return textmodel.embed(model, seq)
    return np.asarray(seq, dtype=float)


def _target_class(model, X, target):
    if target is not None:
        return target
    probs, _ = textmodel.forward_pooled(model, X.mean(axis=0))
    return int(np.argmax(probs))


def _prob_for_masks(model, X, token_masks, j):
    pooled = (token_masks @ X) / X.shape[0]
    probs, _ = textmodel.forward_pooled(model, pooled)
    return probs[:, j]


def aopc_comprehensiveness(model, seq, attr, cfg=None, target=None):
    """Mean clamped probability drop after removing top-scored tokens,
    over the threshold grid."""
    cfg = cfg or MetricConfig()
    X = _input_matrix(model, seq)
    j = _target_class(model, X, target)
    norm = attrib.normalize_scores(attr)
    keep = np.array([(norm < t).astype(float) for t in cfg.thresholds])
    p_full = _prob_for_masks(model, X, np.ones((1, X.shape[0])), j)[0]
    p_removed = _prob_for_masks(model, X, keep, j)
    return float(np.mean(np.maximum(0.0, p_full - p_removed)))


def aopc_sufficiency(model, seq, attr, cfg=None, target=None):
    """Mean clamped probability drop when only top-scored tokens are kept."""
    cfg = cfg or MetricConfig()
    X = _input_matrix(model, seq)
    j = _target_class(model, X, target)
    norm = attrib.normalize_scores(attr)
    keep = np.array([(norm >= t).astype(float) for t in cfg.thresholds])
    p_full = _prob_for_masks(model, X, np.ones((1, X.shape[0])), j)[0]
    p_kept = _prob_for_masks(model, X, keep, j)
    return float(np.mean(np.maximum(0.0, p_full - p_kept)))


def _soft_drop(model, X, retain_q, cfg, j):
    """Mean over Monte-Carlo draws of max(0, p(X) - p(X')) where X' keeps
    each embedding element with its token's retain probability."""
    n, d = X.shape
    rng = np.random.default_rng(cfg.soft_seed)
    e = rng.random((cfg.soft_samples, n, d)) < retain_q[None, :, None]
    pooled = (X[None] * e).mean(axis=1)
    probs, _ = textmodel.forward_pooled(model, pooled)
    p_full, _ = textmodel.forward_pooled(model, X.mean(axis=0))
    return float(np.mean(np.maximum(0.0, p_full[j] - probs[:, j])))


def soft_sufficiency(model, seq, attr, cfg=None, target=None):
    """1 - mean clamped drop, retaining elements with prob = normalized score."""
    cfg = cfg or MetricConfig()
    X = _input_matrix(model, seq)
    j = _target_class(model, X, target)
    return 1.0 - _soft_drop(model, X, attrib.normalize_scores(attr), cfg, j)


def soft_comprehensiveness(model, seq, attr, cfg=None, target=None):
    """Mean clamped drop, removing elements with prob = normalized score."""
    cfg = cfg or MetricConfig()
    X = _input_matrix(model, seq)
    j = _target_class(model, X, target)
    return _soft_drop(model, X, 1.0 - attrib.normalize_scores(attr), cfg, j)


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


def sensitivity(model, method, seq, attr, cfg=None, target=None,
                attr_cfg=None):
    """Worst-case relative explanation change under an L2-bounded
    perturbation of the input embeddings, searched with PGD.

    Each gradient step ascends the prediction error (descends the
    probability of the explained class), is projected back onto the radius
    ball, and the perturbed input is re-explained with the same method and
    seed. Returns NaN when the reference explanation has zero norm.
    """
    cfg = cfg or MetricConfig()
    pgd = cfg.pgd
    X = _input_matrix(model, seq)
    j = _target_class(model, X, target)
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
    worst = 0.0
    for restart in range(pgd.restarts):
        if restart == 0:
            delta = np.zeros_like(X)
        else:
            delta = rng.standard_normal(X.shape)
            delta *= radius / max(np.linalg.norm(delta), 1e-12)
        for _ in range(pgd.steps):
            g = textmodel.grad_wrt_embeddings_matrix(model, X + delta, j)
            g_norm = np.linalg.norm(g)
            if g_norm > 0:
                delta -= step_size * g / g_norm  # ascend the error on class j
            d_norm = np.linalg.norm(delta)
            if d_norm > radius:
                delta *= radius / d_norm
            perturbed = attrib.explain(method, model, X + delta, j, attr_cfg)
            change = np.linalg.norm(
                np.asarray(perturbed.scores, dtype=float) - base)
            worst = max(worst, change / base_norm)
    return float(worst)


def evaluate(metric, model, method, seq, attr, cfg=None, target=None,
             attr_cfg=None):
    """Dispatch a metric by name."""
    cfg = cfg or MetricConfig()
    if metric == "comprehensiveness":
        return aopc_comprehensiveness(model, seq, attr, cfg, target)
    if metric == "sufficiency":
        return aopc_sufficiency(model, seq, attr, cfg, target)
    if metric == "soft_comprehensiveness":
        return soft_comprehensiveness(model, seq, attr, cfg, target)
    if metric == "soft_sufficiency":
        return soft_sufficiency(model, seq, attr, cfg, target)
    if metric == "sparsity":
        return sparsity(attr, cfg)
    if metric == "gini":
        return gini_index(attr)
    if metric == "sensitivity":
        return sensitivity(model, method, seq, attr, cfg, target, attr_cfg)
    raise ConfigError(f"unknown metric: {metric}")


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
