"""Workload definitions, input generation and output checks.

The benchmark writes its own input CSV rather than calling the program's
generator, so that a change to ``explaudit.dataset`` cannot change what the
benchmark measures. The shape of every pair (template, word-length class
of each gendered slot, number of injected tokens) comes from a fixed
stream, and ``--seed`` only picks the words that fill those shapes. The
program's split is seeded by the audit seed, which is pinned, so every
seed puts pairs of the same token lengths into the test set and the
amount of work per audit does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TEMPLATES = (
    "{g0} runs the corner bakery and {g1} loves the morning rush",
    "yesterday {g0} fixed the old radio in the attic",
    "{g0} writes long letters to {g1} every winter",
    "the neighbors say {g0} paints the fence each spring",
    "{g0} studied the map before the long drive north",
    "after dinner {g0} read quietly by the window",
    "{g0} planted tomatoes while {g1} watered the roses",
    "every friday {g0} visits the library downtown",
    "{g0} repaired the bicycle and rode it to the lake",
    "at the market {g0} bargained for fresh apples",
    "{g0} taught the evening class on river ecology",
    "during the storm {g0} secured the garden gate",
)

# Gendered fills per slot, grouped by token count so that the seed can
# change the words without changing the length of a pair.
SLOT_WORDS = {
    "g0": ((("he", "she"),),
           (("the man", "the woman"), ("her brother", "his sister"),
            ("the actor", "the actress"))),
    "g1": ((("him", "her"),),
           (("his father", "her mother"), ("the boy", "the girl"),
            ("his uncle", "her aunt"))),
}
# Probability that a slot takes a one-token fill (1 of the 4 word pairs).
ONE_TOKEN_SHARE = 0.25

FILLER = ("indeed", "certainly", "moreover", "however", "meanwhile",
          "notably", "apparently", "eventually")

SHAPE_SEED = 20250502

FAITHFULNESS = ("comprehensiveness", "sufficiency",
                "soft_comprehensiveness", "soft_sufficiency")
DEFAULT_METRICS = FAITHFULNESS + ("sparsity", "gini")
ALL_METHODS = ("GRAD", "GXI", "IG", "IGXI", "LIME", "SHAP")

# Direction of the planted disparity on the planted workload, per
# faithfulness metric: the subgroup whose mean score is higher. FEMALE
# variants carry 2-5 appended filler tokens, which the gender classifier
# learns as evidence for its label. Removing the top-scored tokens then
# lowers the FEMALE prediction more (higher comprehensiveness), and keeping
# only them keeps it closer to the full input (smaller AOPC sufficiency
# drop, higher soft sufficiency).
PLANTED_DIRECTION = {
    "comprehensiveness": "FEMALE",
    "sufficiency": "MALE",
    "soft_comprehensiveness": "FEMALE",
    "soft_sufficiency": "FEMALE",
}
PLANTED_METHODS = ("GXI", "IG", "IGXI", "LIME", "SHAP")

# Why each workload exists; see README.md for the layers each one stresses.
# Both audit all six methods with the six default metrics in one run. The
# planted-direction oracle holds for the 500-pair model; the 30-pair model
# of the sensitivity workload is too small for it, so only ranges are
# checked there.
WORKLOADS = {
    "planted": {"pairs": 500, "extra": (), "check_planted": True},
    "sensitivity": {"pairs": 30, "extra": ("--with-sensitivity",),
                    "check_planted": False},
}


def generate_pairs(n_pairs, seed):
    """Rows (pair_id, subgroup, text, label) of a gendered paired corpus
    with a planted LENGTH disparity: 2-5 filler tokens appended to every
    FEMALE variant.

    Pair shapes come from a fixed stream; ``seed`` picks the words.
    """
    shape = np.random.default_rng(SHAPE_SEED)
    words = np.random.default_rng(seed)
    rows = []
    for i in range(n_pairs):
        template = TEMPLATES[int(shape.integers(len(TEMPLATES)))]
        fills_m, fills_f = {}, {}
        for slot in ("g0", "g1"):
            one_token = shape.random() < ONE_TOKEN_SHARE
            if "{" + slot + "}" not in template:
                continue
            choices = SLOT_WORDS[slot][0 if one_token else 1]
            male, female = choices[int(words.integers(len(choices)))]
            fills_m[slot], fills_f[slot] = male, female
        text_m = template.format(**fills_m)
        text_f = template.format(**fills_f)
        extra = 2 + int(shape.integers(4))
        picks = words.integers(len(FILLER), size=extra)
        text_f += " " + " ".join(FILLER[p] for p in picks)
        pid = f"pair{i:05d}"
        rows.append((pid, "MALE", text_m, "male"))
        rows.append((pid, "FEMALE", text_f, "female"))
    return rows


def write_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["pair_id", "subgroup", "text", "label"])
        w.writerows(rows)


def audit_argv(spec, dataset, out_dir):
    return ["audit", "--dataset", dataset, "--out", out_dir,
            "--runs", "1", "--seed", "0", "--epochs", "20",
            "--methods", ",".join(ALL_METHODS),
            "--metrics", ",".join(DEFAULT_METRICS), *spec["extra"]]


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means the audit
# output passed. They are oracles on what the audit must find, not digests.

# Closed range of each metric. Gini's upper end depends on n, so it is
# checked against 1. The tolerance admits floating-point rounding at the
# range ends (a Gini of a constant attribution can come out at -3e-16).
RANGES = {
    "comprehensiveness": (0.0, 1.0), "sufficiency": (0.0, 1.0),
    "soft_comprehensiveness": (0.0, 1.0), "soft_sufficiency": (0.0, 1.0),
    "sparsity": (0.0, 1.0), "gini": (0.0, 1.0),
    "sensitivity": (0.0, math.inf),
}
RANGE_TOL = 1e-9


def read_scores(report_dir):
    """{(pair, subgroup, method): {metric: value}} with NaN for blanks."""
    cells = {}
    with open(os.path.join(report_dir, "scores.csv"), newline="",
              encoding="utf-8") as f:
        for row in csv.DictReader(f):
            value = float(row["value"]) if row["value"] else math.nan
            key = (row["pair_id"], row["subgroup"], row["method"])
            cells.setdefault(key, {})[row["metric"]] = value
    return cells


def check_ranges(cells):
    """Every value in its metric's range; NaN only for a sensitivity whose
    reference explanation is all zero (then sparsity and Gini are 0)."""
    problems = []
    for key, values in cells.items():
        for metric, v in values.items():
            lo, hi = RANGES[metric]
            if math.isnan(v):
                zero_ref = (metric == "sensitivity"
                            and values.get("sparsity") == 0.0
                            and values.get("gini") == 0.0)
                if not zero_ref:
                    problems.append(f"NaN {metric} at {key}")
            elif not lo - RANGE_TOL <= v <= hi + RANGE_TOL:
                problems.append(f"{metric}={v!r} out of [{lo}, {hi}] "
                                f"at {key}")
    return problems


def _aggregate(report_dir):
    with open(os.path.join(report_dir, "aggregate.json"),
              encoding="utf-8") as f:
        return json.load(f)


def check_planted(report_dir):
    """All 20 faithfulness cells of GXI, IG, IGXI, LIME and SHAP are
    significant in the planted direction."""
    agg = _aggregate(report_dir)
    by_key = {(c["method"], c["metric"]): c for c in agg["cells"]}
    problems = []
    for method in PLANTED_METHODS:
        for metric, direction in PLANTED_DIRECTION.items():
            c = by_key.get((method, metric))
            if c is None:
                problems.append(f"missing cell {method}/{metric}")
            elif c["significant_runs"] != agg["n_runs"] \
                    or c["direction"] != direction:
                problems.append(f"{method}/{metric}: {c['cell']} "
                                f"towards {c['direction']}")
    return problems


def check_output(spec, report_dir):
    """(problems, nan_cells, score_cells) for one audit's report."""
    cells = read_scores(report_dir)
    values = [v for vs in cells.values() for v in vs.values()]
    nan_cells = sum(math.isnan(v) for v in values)
    problems = check_ranges(cells)
    if spec["check_planted"]:
        problems += check_planted(report_dir)
    return problems, nan_cells, len(values)
