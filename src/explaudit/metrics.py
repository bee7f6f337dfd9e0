"""Explanation-quality metrics.

Seven scalar metrics over (model, input, attribution): AOPC
comprehensiveness/sufficiency, their soft Bernoulli-masking variants,
sparsity, Gini concentration, and worst-case sensitivity under a
projected-gradient search in embedding space. Each reads the explained
class, and sensitivity also the method and config, from the attribution.

Token "removal" is zero-embedding throughout, keeping sequence length
fixed and matching the masking semantics of the surrogate explainers.
``score_input`` scores every attribution of one input, or of each input
of a same-length stack, with every metric from one random draw per
input: its soft cells share one uniform array, and its sensitivity
cells one PGD search (one gradient call per step), each cell
re-explaining the search's whole path in one call with the path's query
map. p(X) and the masked queries of all faithfulness cells go into one
forward call. A cell has the bits of a one-cell ``evaluate`` under the
same seed, whatever other cells and inputs are scored with it (checked
on the SkylakeX, Haswell, Sandybridge and Prescott kernels).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import attribution as attrib
from . import textmodel
from .errors import ConfigError, DataError

METRICS = ("comprehensiveness", "sufficiency", "soft_comprehensiveness",
           "soft_sufficiency", "sparsity", "gini", "sensitivity")
SOFT_METRICS = ("soft_comprehensiveness", "soft_sufficiency")


@dataclass
class PGDConfig:
    radius: float | None = None  # None -> 0.1 * mean embedding norm
    steps: int = 10
    step_size: float | None = None  # None -> radius / 5
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.radius is not None and not 0 <= self.radius < math.inf:
            raise ConfigError("radius must be finite and >= 0")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.step_size is not None and not 0 < self.step_size < math.inf:
            raise ConfigError("step_size must be finite and > 0")


@dataclass
class MetricConfig:
    thresholds: tuple = tuple(round(0.1 * k, 1) for k in range(1, 11))
    sparsity_tau: float = 0.1
    soft_samples: int = 16
    soft_seed: int = 0
    pgd: PGDConfig = field(default_factory=PGDConfig)

    def __post_init__(self):
        t = list(self.thresholds)
        if not t or not all(a < b <= 1 for a, b in zip([0] + t, t)):
            raise ConfigError("thresholds must be strictly increasing in (0, 1]")
        if not 0 < self.sparsity_tau < math.inf:
            raise ConfigError("sparsity threshold must be finite and > 0")
        if self.soft_samples < 1:
            raise ConfigError("soft_samples must be >= 1")


@dataclass(slots=True)
class ScoreSample:
    pair_id: str
    subgroup: str
    method: str
    metric: str
    value: float  # NaN marks a missing value (e.g. undefined sensitivity)


def sparsity(attr, cfg=None):
    """Share of raw scores with |s_i| >= tau (boundary inclusive)."""
    return _row_scores("sparsity", [attr], cfg)[0]


def gini_index(attr):
    """Concentration of absolute scores: 0 = uniform, 1 - 1/n = one-hot.

    With |s| sorted ascending as s_(1) <= ... <= s_(n), the Gini index is
    sum_k (2k - n - 1) s_(k) / (n sum_k s_(k)). Its symmetric terms are
    paired as (n + 1 - 2k)(s_(n+1-k) - s_(k)), k <= n/2, so ties cancel
    exactly and a constant vector gives 0; the value is clamped to
    [0, 1 - 1/n] (Hurley & Rickard 2009). A zero attribution vector is
    defined as 0 (maximally non-concentrated).
    """
    return _row_scores("gini", [attr])[0]


def _row_scores(metric, attrs, cfg=None):
    """``sparsity`` or ``gini_index`` of each attribution, row by row on
    one array of |s|, each row reduced as alone: the bits are the same
    (checked on the SkylakeX, Haswell, Sandybridge and Prescott kernels)."""
    a = np.abs(np.array([attr.scores for attr in attrs], dtype=float))
    if metric == "sparsity":
        return np.mean(a >= (cfg or MetricConfig()).sparsity_tau, 1).tolist()
    a.sort(axis=1)
    total = a.sum(axis=1)
    for _ in np.flatnonzero(total == 0):
        warnings.warn("all-zero attribution: Gini index defined as 0")
    n, half = a.shape[1], a.shape[1] // 2
    spread = a[:, ::-1][:, :half] - a[:, :half]
    gini = np.sum(spread * (n + 1.0 - 2.0 * np.arange(1, half + 1)), 1)
    np.divide(gini, n * total, out=gini, where=total != 0)
    return np.clip(gini, 0.0, 1.0 - 1.0 / n).tolist()


def _norms(a):
    """L2 norm of each flattened a[r], the root of numpy's pairwise sum of
    its squares: no BLAS dot, so no bit depends on the other slices or on
    operand alignment (Prescott's ``ddot`` rounds by the latter)."""
    f = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt(np.add.reduce(f * f, axis=-1))


def _pgd_scale(X, pgd):
    """(radius, step size) of the PGD search around X."""
    radius = pgd.radius
    if radius is None:
        radius = 0.1 * float(np.mean(_norms(X)))
    return radius, pgd.step_size if pgd.step_size is not None else radius / 5


def _pgd_points(model, X, j, pgd, seed):
    """The points of the PGD search around X, a (steps, restarts, n, d)
    array: ``X + delta`` after every step of every restart.

    Each step ascends the prediction error (descends the probability of
    class j) along the gradient at ``X + delta`` and projects delta back
    onto the radius ball. Restart 0 starts at X, the others on the
    sphere, drawn from one generator seeded by ``seed``. The restarts run
    as one stack, with one gradient call per step.
    """
    radius, step_size = _pgd_scale(X, pgd)
    delta = np.zeros((pgd.restarts,) + X.shape)
    np.random.default_rng(seed).standard_normal(out=delta[1:])
    delta[1:] *= (radius / np.maximum(_norms(delta[1:]), 1e-12))[:, None, None]
    points = np.empty((pgd.steps,) + delta.shape)
    here = X + delta
    for step in range(pgd.steps):
        g = textmodel.grad_wrt_embeddings_matrix(model, here, j)
        g_norm = _norms(g)[:, None, None]
        g = step_size * g
        np.divide(g, g_norm, out=g, where=g_norm > 0)
        np.subtract(delta, g, out=delta, where=g_norm > 0)  # ascend error
        d_norm = _norms(delta)[:, None, None]
        delta *= np.divide(radius, d_norm, out=np.ones_like(d_norm),
                           where=d_norm > radius)
        here = np.add(X, delta, out=points[step])
    return points


def sensitivity(model, seq, attr, cfg=None, points=None, queries=None):
    """Worst-case relative explanation change under an L2-bounded
    perturbation of the input embeddings, searched with PGD.

    The attribution's method, class and config re-explain every point of
    the search (``_pgd_points``, seeded by ``cfg.pgd.seed``) in one
    explain call over its (steps, restarts, n, d) stack; LIME and
    KernelSHAP query the model one step's (restarts, n, d) block at a
    time. ``points`` passes a search already run and ``queries`` its
    path's query map, as ``score_input`` does for the sensitivity cells of
    one input. NaN changes are skipped. Returns NaN when the reference
    explanation has zero norm.
    """
    cfg = cfg or MetricConfig()
    X, _ = attrib.resolve_input(model, seq)
    j = attr.target_class
    base = np.asarray(attr.scores, dtype=float)
    base_norm = _norms(base[None])[0]
    if base_norm == 0:
        return float("nan")
    if _pgd_scale(X, cfg.pgd)[0] == 0:
        return 0.0
    if points is None:
        points = _pgd_points(model, X, j, cfg.pgd, cfg.pgd.seed)
    perturbed = attrib.explain(attr.method, model, points, j, attr.cfg,
                               queries=queries)
    change = _norms(np.asarray(perturbed.scores, dtype=float).reshape(
        -1, base.size) - base) / base_norm
    return float(np.fmax.reduce(change, initial=0.0))  # NaN changes skipped


def _body(rows):
    """``rows`` rounded up to a multiple of 4. OpenBLAS computes a
    product's 4-row body with one kernel and its ``rows % 4`` tail rows
    with others, and a row's bits depend only on which of the two it is
    in (numpy 2.4.6, scipy-openblas 0.3.31), so rows padded into the body
    keep their bits whatever rows share the call; that is checked on the
    SkylakeX, Haswell, Sandybridge and Prescott kernels. (On SkylakeX, where a
    product's output has 1 to 4 columns past a multiple of 8 and its
    inner size is 16 or more, the kernel also changes near 10^6
    multiply-adds, as ``hidden @ w2`` of the default 16 x 32 classifier
    does past about 15,600 rows. One input's rows stay far below that,
    and a batch stacks its inputs rather than concatenating them, so no
    product crosses the switch.)"""
    return rows + -rows % 4


def scoring_rows(attributions, metrics, cfg):
    """Rows of one input in ``score_input``'s forward call."""
    aopc = sum(m in ("comprehensiveness", "sufficiency") for m in metrics)
    soft = sum(m in SOFT_METRICS for m in metrics)
    return _body(_body(1 + attributions * aopc * len(cfg.thresholds))
                 + attributions * soft * cfg.soft_samples)


def score_input(model, seq, attrs, metrics, cfg=None, seed=None,
                queries=None):
    """Every metric in ``metrics`` of every attribution in ``attrs``, for
    one input or a batch. One input (``seq`` a TokenSeq or (n, d)
    embeddings, one ``seed``, one query map ``queries``) gives
    ``values[k][i]`` for attribution k and metric i; a (b, n, d) stack,
    with one equally long list of attributions, one seed and one map (or
    None) per input, gives ``values[p][k][i]`` for input p. All
    attributions must explain the same class (else ConfigError).

    ``seed`` seeds an input's two random draws, in place of
    ``cfg.soft_seed`` and ``cfg.pgd.seed``. An input's soft cells share
    one (soft_samples, n, d) uniform draw: X' keeps each embedding element
    whose draw lies below its token's retain probability
    (comprehensiveness: 1 - normalized score; sufficiency: the normalized
    score). An input's sensitivity cells share one PGD search
    (``_pgd_points``) and one query map for its path, which starts with
    the designs of the input's map (``attrib.designs_of``); each is one
    ``evaluate`` call that re-explains the whole path in one call.

    The masked model queries of all faithfulness cells and p(X) go into
    one forward call over the (b, rows, d) stack of each input's rows: the
    full input and each attribution's AOPC threshold masks, pooled as
    ``mask @ X / n``, then the soft rows. Stacked products run BLAS once
    per input, and each input's rows are padded to a multiple of 4
    (``_body``), so a cell's bits depend neither on the other cells nor
    on the other inputs of its batch. An AOPC mask removes the tokens
    whose normalized score is within ``attrib.TIE`` of a threshold or
    above it, so tied top tokens go together.
    """
    cfg = cfg or MetricConfig()
    unknown = set(metrics) - set(METRICS)
    if unknown:
        raise ConfigError(f"unknown metric: {sorted(unknown)}")
    X, _ = attrib.resolve_input(model, seq)
    lead, (n, d) = X.shape[:-2], X.shape[-2:]
    rows, seeds = ([attrs], [seed]) if not lead else (
        attrs, [None] * len(X) if seed is None else seed)
    maps = [queries] if not lead else queries or [None] * len(X)
    flat = [attr for row in rows for attr in row]
    if len({attr.target_class for attr in flat}) > 1:
        raise ConfigError("attributions explain different classes")
    m = len(rows[0])
    if any(len(row) != m for row in rows):
        raise ConfigError("inputs have different numbers of attributions")
    column = {metric: _row_scores(metric, flat, cfg)
              for metric in ("sparsity", "gini") if metric in metrics and m}
    values = [[[column[metric][p * m + k] if metric in column else None
                for metric in metrics] for k in range(m)]
              for p in range(len(rows))]
    Xs = X.reshape(-1, n, d)
    sens = [(k, i) for k in range(m)
            for i, metric in enumerate(metrics) if metric == "sensitivity"]
    for p, s in enumerate(seeds if sens else ()):
        path = _pgd_points(model, Xs[p], flat[0].target_class, cfg.pgd,
                           cfg.pgd.seed if s is None else s)
        path_map = attrib.designs_of(maps[p])
        for k, i in sens:
            values[p][k][i] = evaluate("sensitivity", model, Xs[p],
                                       rows[p][k], cfg, points=path,
                                       queries=path_map)
    cells = [(k, i, metric) for k in range(m)
             for i, metric in enumerate(metrics) if values[0][k][i] is None]
    if not cells:
        return values if lead else values[0]

    j = flat[0].target_class
    norms = attrib.normalized(flat).reshape(lead + (m, n))
    aopc = [(k, i) for k, i, metric in cells
            if metric in ("comprehensiveness", "sufficiency")]
    soft = [(k, i) for k, i, metric in cells if metric in SOFT_METRICS]
    t, samples = len(cfg.thresholds), cfg.soft_samples
    aopc_end = 1 + len(aopc) * t  # row 0 is p(X), then the AOPC rows
    soft_start = _body(aopc_end)
    soft_end = soft_start + len(soft) * samples
    masks = np.zeros(lead + (soft_start, n))
    masks[..., 0, :] = 1.0
    if aopc:  # comprehensiveness keeps the tokens below each threshold
        below = norms[..., None, :] < np.asarray(cfg.thresholds)[:, None] \
            - attrib.TIE
        masks[..., 1:aopc_end, :] = np.concatenate([
            below[..., k, :, :] if metrics[i] == "comprehensiveness"
            else ~below[..., k, :, :] for k, i in aopc], axis=-2)
    pooled = np.zeros(lead + (scoring_rows(m, metrics, cfg), d))
    np.matmul(masks, X, out=pooled[..., :soft_start, :])
    if soft:  # one draw per input, and two buffers that every cell reuses
        u = np.empty(lead + (samples, n, d))
        for s, out in zip(seeds, u.reshape(-1, samples, n, d)):
            np.random.default_rng(cfg.soft_seed if s is None else s) \
                .random(out=out)
        kept = np.empty(u.shape, dtype=bool)
        masked = np.empty(u.shape)
        for c, (k, i) in enumerate(soft):
            retain = norms[..., k, :] if metrics[i] == "soft_sufficiency" \
                else 1.0 - norms[..., k, :]
            np.less(u, retain[..., None, :, None], out=kept)
            np.multiply(X[..., None, :, :], kept, out=masked)
            start = soft_start + c * samples
            np.add.reduce(masked, axis=-2,
                          out=pooled[..., start:start + samples, :])
    pooled /= n
    probs = textmodel.forward_pooled(model, pooled)[0][..., j]
    drops = np.maximum(0.0, probs[..., :1] - probs)
    means = np.concatenate([
        drops[..., 1:aopc_end].reshape(lead + (len(aopc), t)).mean(-1),
        drops[..., soft_start:soft_end].reshape(lead + (len(soft), samples))
        .mean(-1)], axis=-1)
    for row, row_means in zip(values, means.reshape(len(rows), -1).tolist()):
        for (k, i), mean in zip(aopc + soft, row_means):
            flip = metrics[i] == "soft_sufficiency"
            row[k][i] = float(1.0 - mean if flip else mean)
    return values if lead else values[0]


def evaluate(metric, model, seq, attr, cfg=None, points=None,
             queries=None):
    """One metric of one attribution, by name: ``sensitivity`` (on the
    search ``points`` and its ``queries``, if given; ``score_input`` calls
    it for each sensitivity cell), otherwise a one-cell ``score_input``."""
    if metric == "sensitivity":
        return sensitivity(model, seq, attr, cfg, points, queries)
    return score_input(model, seq, [attr], (metric,), cfg)[0][0]


def group_values(samples):
    """Non-NaN score values per (method, metric, subgroup), in sample order."""
    groups = {}
    for s in samples:
        if not math.isnan(s.value):
            groups.setdefault((s.method, s.metric, s.subgroup),
                              []).append(s.value)
    return groups


SCORE_HEADER = ["pair_id", "subgroup", "method", "metric", "value"]


def write_scores_csv(samples, path, pair_ids=None):
    """Score table: pair_id, subgroup, method, metric, value.

    ``pair_ids``, if given, replaces each sample's pair id, in sample
    order. Missing values (NaN) are written as an empty field.
    """
    pairs = ((s.pair_id, s) for s in samples) if pair_ids is None \
        else zip(pair_ids, samples)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(SCORE_HEADER)
        w.writerows([pair_id, s.subgroup, s.method, s.metric,
                     "" if math.isnan(s.value) else repr(s.value)]
                    for pair_id, s in pairs)


def read_scores_csv(path):
    """The samples of a ``write_scores_csv`` table; DataError, naming the
    line, if its header is not ``SCORE_HEADER`` or a row is not five
    fields with an empty (NaN) or finite value."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != SCORE_HEADER:
            raise DataError(f"malformed report dir: {path} has no header "
                            + ",".join(SCORE_HEADER))
        for row in reader:
            try:
                pair_id, subgroup, method, metric, value = row
                value = float(value) if value else math.nan
                if math.isinf(value):
                    raise ValueError(value)
            except ValueError:
                raise DataError(
                    f"malformed report dir: {path}:{reader.line_num} is not "
                    "5 fields with an empty or finite value") from None
            out.append(ScoreSample(pair_id, subgroup, method, metric, value))
    return out
