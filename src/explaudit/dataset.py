"""Audit dataset construction and ingestion.

Canonical record schema (CSV header or JSONL keys):
``pair_id, subgroup, text, label``. Paired datasets hold two subgroup
variants per pair id; unpaired data (COMPAS-style) uses one row per
record with an empty pair id. Also provides a synthetic paired-corpus
generator for desk-scale experiments.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

#: (male form, female form) pairs used by the synthetic generator and the
#: gender-tied embedding mode.
GENDER_PAIRS = (
    ("he", "she"), ("him", "her"), ("his", "hers"), ("himself", "herself"),
    ("man", "woman"), ("men", "women"), ("boy", "girl"),
    ("brother", "sister"), ("father", "mother"), ("son", "daughter"),
    ("uncle", "aunt"), ("king", "queen"), ("actor", "actress"),
    ("mr", "ms"), ("sir", "madam"),
)

#: pronouns whose male/female forms do not map one-to-one (e.g. "her"
#: covers both "him" and "his"), collapsed onto a single token when tying
_PRONOUNS = ("he", "she", "him", "his", "her", "hers", "himself", "herself")

#: every token that may differ between the two variants of a pair
GENDER_WORDS = frozenset(_PRONOUNS) | frozenset(
    w for pair in GENDER_PAIRS for w in pair)

SUBGROUP_A = "MALE"
SUBGROUP_B = "FEMALE"

INJECTIONS = ("NONE", "LENGTH", "NOISE")


@dataclass
class PairedRecord:
    pair_id: str
    text_a: str
    text_b: str
    label_a: str
    label_b: str
    subgroup_a: str = SUBGROUP_A
    subgroup_b: str = SUBGROUP_B

    def variants(self):
        return ((self.subgroup_a, self.text_a, self.label_a),
                (self.subgroup_b, self.text_b, self.label_b))


@dataclass
class UnpairedRecord:
    text: str
    subgroup: str
    label: str


@dataclass
class DatasetSplit:
    train: list
    test: list


def tied_alias_map():
    """Token aliases collapsing gendered words onto shared embedding rows.

    Pronouns all map to one token ("her" is the counterpart of both "him"
    and "his", so a one-to-one mapping cannot make paired sentences
    identical); each gendered noun pair maps to its male form.
    """
    aliases = {p: "he" for p in _PRONOUNS}
    for male, female in GENDER_PAIRS:
        if male not in aliases:
            aliases[female] = male
    return aliases


# ---------------------------------------------------------------------------
# Loading / saving


_FIELDS = ("pair_id", "subgroup", "text", "label")


def _complete(path, lineno, row):
    # a short CSV row holds None for the fields it lacks, as JSON null does
    missing = [k for k in _FIELDS if row.get(k) is None]
    if missing:
        raise DataError(f"{path}:{lineno}: missing fields {missing}")
    if not str(row["text"]).strip():
        raise DataError(f"{path}:{lineno}: empty text")
    return row


def _rows_from_csv(path):
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        missing = set(_FIELDS) - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            yield reader.line_num, _complete(path, reader.line_num, row)


def _rows_from_jsonl(path):
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}:{lineno}: invalid JSON") from None
            if not isinstance(row, dict):
                raise DataError(f"{path}:{lineno}: not a JSON object")
            yield lineno, _complete(path, lineno, row)


def _rows(path, fmt):
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"unknown format: {fmt}")
    try:
        yield from (_rows_from_csv if fmt == "csv" else _rows_from_jsonl)(path)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_paired(path, fmt="csv"):
    """Load PairedRecords from canonical CSV or JSONL.

    Errors (missing column or field, malformed JSONL line, duplicate
    pair/subgroup, empty text) name the offending line.
    """
    pairs = {}  # in order of first appearance
    for lineno, row in _rows(path, fmt):
        pid, sub = str(row["pair_id"]), str(row["subgroup"])
        text, label = str(row["text"]), str(row["label"])
        variants = pairs.setdefault(pid, {})
        if sub in variants:
            raise DataError(
                f"{path}:{lineno}: duplicate pair_id {pid!r} for "
                f"subgroup {sub!r}")
        variants[sub] = (text, label)
    records = []
    for pid, variants in pairs.items():
        if len(variants) != 2:
            raise DataError(
                f"{path}: pair {pid!r} has {len(variants)} variant(s), "
                "expected 2")
        (sub_a, (text_a, lab_a)), (sub_b, (text_b, lab_b)) = \
            sorted(variants.items(), key=lambda kv: subgroup_order(kv[0]))
        records.append(PairedRecord(pid, text_a, text_b, lab_a, lab_b,
                                    sub_a, sub_b))
    if not records:
        raise DataError(f"{path}: no records")
    return records


def subgroup_order(sub):
    """Sort key of the A/B order: MALE, FEMALE, then others by name."""
    return {SUBGROUP_A: 0, SUBGROUP_B: 1}.get(sub, 2), sub


def load_unpaired(path, fmt="csv"):
    records = [UnpairedRecord(str(row["text"]), str(row["subgroup"]),
                              str(row["label"]))
               for _, row in _rows(path, fmt)]
    if not records:
        raise DataError(f"{path}: no records")
    return records


def save_paired(records, path, fmt="csv"):
    rows = [dict(zip(_FIELDS, (rec.pair_id, *variant)))
            for rec in records for variant in rec.variants()]
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.DictWriter(f, _FIELDS)
            w.writeheader()
            w.writerows(rows)
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")
    else:
        raise ConfigError(f"unknown format: {fmt}")


# ---------------------------------------------------------------------------
# Splitting


def split(data, ratio=0.8, seed=0):
    """Deterministic stratified train/test split.

    Units are whole records; paired variants always land on the same side.
    Stratification is by label (for pairs: the sorted label signature), so
    per-class counts on each side differ by at most one record.
    """
    data = list(data)
    if not data:
        raise DataError("cannot split empty dataset")
    if not 0 < ratio < 1:
        raise ConfigError("ratio must be in (0, 1)")

    def signature(rec):
        if isinstance(rec, PairedRecord):
            return tuple(sorted((rec.label_a, rec.label_b)))
        return (rec.label,)

    strata = {}
    for rec in data:
        strata.setdefault(signature(rec), []).append(rec)

    rng = np.random.default_rng(seed)
    train, test = [], []
    for sig in sorted(strata):
        bucket = strata[sig]
        order = rng.permutation(len(bucket))
        n_train = round(len(bucket) * ratio)
        for pos, idx in enumerate(order):
            (train if pos < n_train else test).append(bucket[idx])
    if not train or not test:
        raise DataError("split produced an empty side; need more records")
    return DatasetSplit(train=train, test=test)


# ---------------------------------------------------------------------------
# Synthetic paired corpus

#: Templates use {g0}, {g1}, ... slots, filled left to right with gendered
#: word pairs chosen per template. Non-slot text is shared by both variants.
DEFAULT_TEMPLATES = (
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

_FILLER = ("indeed", "certainly", "moreover", "however", "meanwhile",
           "notably", "apparently", "eventually")

_NOISE = ("gravel", "lantern", "meadow", "harbor", "thicket", "orchard")

_SLOT_WORDS = {
    "g0": [("he", "she"), ("the man", "the woman"),
           ("her brother", "his sister"), ("the actor", "the actress")],
    "g1": [("his father", "her mother"), ("him", "her"),
           ("the boy", "the girl"), ("his uncle", "her aunt")],
}


def generate_synthetic_paired(n_pairs, injection="NONE", seed=0):
    """Generate gendered sentence pairs with an optional disparity injection.

    NONE: the two variants differ only in gender words. LENGTH: filler
    tokens are appended to the female variant. NOISE: a noise token is
    inserted into the female variant's non-gender text.
    """
    injection = injection.upper()
    if injection not in INJECTIONS:
        raise ConfigError(f"unknown injection: {injection}")
    if n_pairs < 1:
        raise ConfigError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_pairs):
        template = DEFAULT_TEMPLATES[
            int(rng.integers(len(DEFAULT_TEMPLATES)))]
        fills_m, fills_f = {}, {}
        for slot in ("g0", "g1"):
            if "{" + slot + "}" in template:
                male, female = _SLOT_WORDS[slot][
                    int(rng.integers(len(_SLOT_WORDS[slot])))]
                fills_m[slot], fills_f[slot] = male, female
        text_m = template.format(**fills_m)
        text_f = template.format(**fills_f)
        if injection == "LENGTH":
            extra = 2 + int(rng.integers(4))
            picks = rng.integers(len(_FILLER), size=extra)
            text_f = text_f + " " + " ".join(_FILLER[p] for p in picks)
        elif injection == "NOISE":
            words = text_f.split()
            pos = int(rng.integers(len(words)))
            noise = _NOISE[int(rng.integers(len(_NOISE)))]
            words.insert(pos, noise)
            text_f = " ".join(words)
        records.append(PairedRecord(
            pair_id=f"pair{i:05d}", text_a=text_m, text_b=text_f,
            label_a="male", label_b="female"))
    return records
