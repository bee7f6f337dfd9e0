"""Disparity quantification and model bias analysis.

Mann-Whitney U (exact for small tie-free samples, normal approximation
with tie and continuity corrections otherwise), Cohen's d with the
root-mean pooled standard deviation, the significance / considerable-effect
classification of two subgroups' score lists, and the TPR / TNR / APD bias
report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

EXACT_LIMIT = 12  # max n_a + n_b for exact U-test enumeration


@dataclass
class DisparityResult:
    u_statistic: float | None
    p_value: float | None
    cohens_d: float | None
    significant: bool
    considerable: bool
    direction: str | None  # label of the subgroup with the larger mean
    n_a: int
    n_b: int
    mode: str  # "exact", "asymptotic" or "deg" (not tested)

    @classmethod
    def untested(cls, n_a, n_b):
        """A ``deg`` cell: a subgroup kept too few scores for a test."""
        return cls(None, None, None, False, False, None, n_a, n_b, "deg")

    def to_dict(self):
        return {"U": self.u_statistic, "p": self.p_value,
                "d": self.cohens_d, "significant": self.significant,
                "considerable": self.considerable, "direction": self.direction,
                "n_A": self.n_a, "n_B": self.n_b, "mode": self.mode}


@dataclass
class BiasReport:
    tpr: float
    tnr: float
    apd: float | None

    def to_dict(self):
        return {"TPR": self.tpr, "TNR": self.tnr, "APD": self.apd}


@functools.lru_cache(maxsize=None)
def _u_counts(n_a, n_b):
    """Count of rank assignments per U value 0 .. n_a * n_b; the top rank
    is in sample a, above all n_b others, or it is not."""
    if n_a == 0 or n_b == 0:
        return (1,)
    with_top, without = _u_counts(n_a - 1, n_b), _u_counts(n_a, n_b - 1)
    return tuple(map(sum, zip((0,) * n_b + with_top, without + (0,) * n_a)))


def _exact_two_sided_p(a, b, u_min):
    """Exact p from the null distribution of U (tie-free samples)."""
    n_a, n_b = len(a), len(b)
    # min(U_a, U_b) <= u_min already captures both tails of the symmetric
    # null distribution, so no doubling is needed.
    count = sum(c for u, c in enumerate(_u_counts(n_a, n_b))
                if min(u, n_a * n_b - u) <= u_min)
    return min(1.0, count / math.comb(n_a + n_b, n_a))


def mann_whitney_u(a, b):
    """Two-sided Mann-Whitney U test. Returns (U_a, p).

    Exact enumeration when the pooled sample is small and tie-free,
    otherwise normal approximation with tie and continuity corrections.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if not a or not b:
        raise DataError("both samples must be non-empty")
    if any(math.isnan(x) for x in a + b):
        raise DataError("NaN score in U test")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    # a tie group's midrank: its last rank minus half its extra members
    _, where, counts = np.unique(np.array(a + b), return_inverse=True,
                                 return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2
    u_a = midranks[where[:n_a]].sum() - n_a * (n_a + 1) / 2
    u_b = n_a * n_b - u_a

    if mann_whitney_mode(n_a, n_b, len(counts) < n) == "exact":
        return u_a, _exact_two_sided_p(a, b, min(u_a, u_b))

    # Normal approximation with tie correction
    tie_term = (counts**3 - counts).sum()
    sigma_sq = n_a * n_b / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0:
        return u_a, 1.0
    mu = n_a * n_b / 2
    z = (abs(u_a - mu) - 0.5) / math.sqrt(sigma_sq)  # continuity correction
    z = max(z, 0.0)
    p = math.erfc(z / math.sqrt(2))
    return u_a, min(1.0, p)


def mann_whitney_mode(n_a, n_b, has_ties):
    return "exact" if n_a + n_b <= EXACT_LIMIT and not has_ties \
        else "asymptotic"


def cohens_d(a, b):
    """Effect size (mean(a) - mean(b)) / sqrt((var_a + var_b) / 2).

    Sample (n-1) variances. If both variances are zero: 0 for equal means,
    signed infinity otherwise (degenerate case).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise DataError("cohens_d needs at least 2 values per group")
    diff = a.mean() - b.mean()
    s = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2)
    if s == 0:
        return 0.0 if diff == 0 else math.copysign(math.inf, diff)
    return float(diff / s)


def disparity_test(a, b, label_a, label_b, alpha=0.05, d_threshold=0.2):
    """Run the U test on subgroup scores ``a`` and ``b``; effect size is
    computed only for significant results. ``direction`` is the label of
    the subgroup with the larger mean."""
    u, p = mann_whitney_u(a, b)
    significant = p <= alpha
    d = None
    if significant and len(a) >= 2 and len(b) >= 2:
        d = cohens_d(a, b)
    considerable = bool(significant and d is not None
                        and math.isfinite(d) and abs(d) >= d_threshold)
    direction = label_a if np.mean(a) >= np.mean(b) else label_b
    has_ties = len(set(a) | set(b)) < len(a) + len(b)
    return DisparityResult(
        u_statistic=float(u), p_value=float(p), cohens_d=d,
        significant=bool(significant), considerable=considerable,
        direction=direction, n_a=len(a), n_b=len(b),
        mode=mann_whitney_mode(len(a), len(b), has_ties))


@dataclass
class LabeledPrediction:
    """One test-set prediction with its subgroup and optional pair identity."""
    subgroup: str
    true_label: int
    predicted_label: int
    probs: np.ndarray
    pair_id: str | None = None


def bias_analysis(predictions, positive_subgroup, negative_subgroup,
                  positive_class, negative_class):
    """TPR / TNR / APD over a paired test set.

    TPR is the accuracy on the positive subgroup's records, TNR on the
    negative subgroup's. APD is the mean absolute difference between the
    positive-class probability on the positive variant and the
    negative-class probability on the negative variant of each pair;
    omitted (None, with a warning) when no pairs exist.
    """
    pos = [p for p in predictions if p.subgroup == positive_subgroup]
    neg = [p for p in predictions if p.subgroup == negative_subgroup]
    if not pos or not neg:
        raise DataError("test set must contain both subgroups")
    tpr = sum(p.predicted_label == p.true_label for p in pos) / len(pos)
    tnr = sum(p.predicted_label == p.true_label for p in neg) / len(neg)

    by_pair = {}
    for p in predictions:
        if p.pair_id is not None:
            by_pair.setdefault(p.pair_id, {})[p.subgroup] = p
    diffs = []
    for variants in by_pair.values():
        if positive_subgroup in variants and negative_subgroup in variants:
            p_pos = variants[positive_subgroup].probs[positive_class]
            p_neg = variants[negative_subgroup].probs[negative_class]
            diffs.append(abs(float(p_pos) - float(p_neg)))
    if not diffs:
        import warnings
        warnings.warn("no subgroup pairs in test set: APD omitted")
        return BiasReport(tpr=tpr, tnr=tnr, apd=None)
    return BiasReport(tpr=tpr, tnr=tnr, apd=float(np.mean(diffs)))
