"""Explanation-quality metrics.

Seven scalar metrics over (model, input, attribution): AOPC
comprehensiveness/sufficiency, their soft Bernoulli-masking variants,
sparsity, Gini concentration, and worst-case sensitivity under a
projected-gradient search in embedding space. Each reads the explained
class, and sensitivity also the method and config, from the attribution.

Token "removal" is zero-embedding throughout, keeping sequence length
fixed and matching the masking semantics of the surrogate explainers.
``score_input`` scores every attribution of one input with every metric,
the masked queries of all faithfulness cells in one batched forward call
and all sensitivity cells on one PGD search per input (restart 0 shared,
one gradient call per step), each cell re-explaining its whole path in
one call; ``evaluate`` scores one attribution with one metric.
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


def _pgd_scale(X, pgd):
    """(radius, step size) of the PGD search around X."""
    radius = pgd.radius
    if radius is None:
        radius = 0.1 * float(np.mean(np.linalg.norm(X, axis=1)))
    return radius, pgd.step_size if pgd.step_size is not None else radius / 5


def _pgd_points(model, X, j, pgd, seeds):
    """The points of one PGD search per seed in ``seeds``, each a (steps,
    restarts, n, d) array: ``X + delta`` after every step of every
    restart.

    Each step ascends the prediction error (descends the probability of
    class j) along the gradient at ``X + delta`` and projects delta back
    onto the radius ball. Restart 0 starts at X, the others on the sphere,
    drawn from their seed's generator. A step never reads an explanation,
    so restart 0 is one path for every seed: all searches run as one
    stack, restart 0 once and the other restarts once per distinct seed,
    with one gradient call per step.
    """
    radius, step_size = _pgd_scale(X, pgd)
    distinct = list(dict.fromkeys(seeds))
    rest = pgd.restarts - 1
    delta = np.zeros((1 + rest * len(distinct),) + X.shape)
    for s, seed in enumerate(distinct):
        rng = np.random.default_rng(seed)
        for d_r in delta[1 + s * rest:1 + (s + 1) * rest]:
            d_r[...] = rng.standard_normal(X.shape)
            d_r *= radius / max(np.linalg.norm(d_r), 1e-12)
    points = np.empty((pgd.steps,) + delta.shape)
    here = X + delta
    for step in range(pgd.steps):
        g = textmodel.grad_wrt_embeddings_matrix(model, here, j)
        # norms per restart: an axis-wise norm would sum in another order
        for d_r, g_r in zip(delta, g):
            g_norm = np.linalg.norm(g_r)
            if g_norm > 0:
                d_r -= step_size * g_r / g_norm  # ascend the error on class j
            d_norm = np.linalg.norm(d_r)
            if d_norm > radius:
                d_r *= radius / d_norm
        here = np.add(X, delta, out=points[step])
    return [points[:, np.r_[0, 1 + s * rest:1 + (s + 1) * rest]]
            for s in map(distinct.index, seeds)]


def sensitivity(model, seq, attr, cfg=None, points=None):
    """Worst-case relative explanation change under an L2-bounded
    perturbation of the input embeddings, searched with PGD.

    The attribution's method, class and config re-explain every point of
    the search (``_pgd_points``, seeded by ``cfg.pgd.seed``) in one
    explain call over its (steps, restarts, n, d) stack; LIME and
    KernelSHAP query the model one step's (restarts, n, d) block at a
    time. ``points`` passes a search already run, as ``score_input`` does
    for all sensitivity cells of one input.
    Returns NaN when the reference explanation has zero norm.
    """
    cfg = cfg or MetricConfig()
    X, _ = attrib.resolve_input(model, seq)
    j = attr.target_class
    base = np.asarray(attr.scores, dtype=float)
    base_norm = np.linalg.norm(base)
    if base_norm == 0:
        return float("nan")
    if _pgd_scale(X, cfg.pgd)[0] == 0:
        return 0.0
    if points is None:
        points, = _pgd_points(model, X, j, cfg.pgd, [cfg.pgd.seed])
    perturbed = attrib.explain(attr.method, model, points, j, attr.cfg)
    worst = 0.0
    # step by step, restart by restart: max skips a NaN by its position
    for scores in np.asarray(perturbed.scores, dtype=float).reshape(
            -1, base.size):
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
    score). Each family compares against p(X) from one 1-row call. All
    sensitivity cells share one PGD search (``_pgd_points``: restart 0
    once, the other restarts once per distinct seed), and each cell is
    one ``evaluate`` call that re-explains its own path in one call.
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
    X, _ = attrib.resolve_input(model, seq)
    sens = [(k, i) for k in range(len(attrs))
            for i, metric in enumerate(metrics) if metric == "sensitivity"]
    if sens:
        paths = _pgd_points(model, X, attrs[0].target_class, cfg.pgd, [
            cfg.pgd.seed if seeds is None else seeds[k][i] for k, i in sens])
        for k, i in sens:  # drop each path once explained: less peak memory
            values[k][i] = evaluate("sensitivity", model, seq, attrs[k], cfg,
                                    points=paths.pop(0))
    cells = [(k, i, metric) for k in range(len(attrs))
             for i, metric in enumerate(metrics) if values[k][i] is None]
    if not cells:
        return values

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


def evaluate(metric, model, seq, attr, cfg=None, points=None):
    """One metric of one attribution, by name: ``sensitivity`` (on the
    search ``points`` if given; ``score_input`` calls it for each
    sensitivity cell), otherwise a one-cell ``score_input``."""
    if metric == "sensitivity":
        return sensitivity(model, seq, attr, cfg, points)
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
