"""Audit orchestration: train, explain, score, test disparity, aggregate.

One audit runs R independent repetitions. Each repetition splits the
data, trains a fresh classifier, explains every test input once per
attribution method, scores every explanation with every metric, and runs
the subgroup disparity test per (method, metric) cell. Test inputs are
explained and scored in batches of one length and one predicted class
(``_score_batch``), with the bits of a per-input audit. A degenerate
attribution (``attrib.degenerate``) keeps its scores but enters no test,
and a cell where a subgroup keeps fewer than 2 scores is ``deg``, not
tested. Aggregation reports, per cell, how many runs were significant,
how many also had a considerable effect size, the mean effect size over
significant runs, and the majority direction; the significant and
considerable fractions count tested cells only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import attribution as attrib
from . import dataset as ds
from . import metrics as met
from . import stats
from . import textmodel as tm
from .errors import ConfigError, DataError

DEFAULT_METRICS = met.METRICS[:-1]  # all but the PGD sensitivity search
# Most scoring rows (``met.scoring_rows``) a batch of test inputs holds:
# the rows of the exact-SHAP query at n = 11, the explainers' largest.
BATCH_ROWS = 2**11


@dataclass
class AuditConfig:
    methods: tuple = attrib.METHODS
    metrics: tuple = DEFAULT_METRICS
    runs: int = 5
    base_seed: int = 0
    alpha: float = 0.05
    d_threshold: float = 0.2
    split_ratio: float = 0.8
    tied_embeddings: bool = False
    metric_cfg: met.MetricConfig = field(default_factory=met.MetricConfig)
    attr_cfg: attrib.AttributionConfig = field(
        default_factory=attrib.AttributionConfig)
    train_cfg: tm.TrainConfig = field(default_factory=tm.TrainConfig)
    model_cfg: tm.ModelConfig = field(default_factory=tm.ModelConfig)

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("run count must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0 <= self.d_threshold < math.inf:
            raise ConfigError("d_threshold must be finite and >= 0")
        if not self.methods or not self.metrics:
            raise ConfigError("method and metric lists must be non-empty")
        unknown = set(m.upper() for m in self.methods) - set(attrib.METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        unknown = set(self.metrics) - set(met.METRICS)
        if unknown:
            raise ConfigError(f"unknown metrics: {sorted(unknown)}")
        self.methods = tuple(m.upper() for m in self.methods)
        self.metrics = tuple(self.metrics)
        for name, items in (("methods", self.methods),
                            ("metrics", self.metrics)):
            dup = sorted({x for x in items if items.count(x) > 1})
            if dup:
                raise ConfigError(f"duplicate {name}: {dup}")

    def to_dict(self):
        return asdict(self)

    def content_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunResult:
    run_index: int
    seed: int
    samples: list  # ScoreSample
    disparity: dict  # (method, metric) -> DisparityResult
    bias: stats.BiasReport
    test_accuracy: float
    train_log: list
    subgroups: tuple  # labels A and B


@dataclass
class CellAggregate:
    significant_runs: int
    considerable_runs: int
    mean_d: float | None
    std_d: float | None
    direction: str | None  # majority direction over significant runs
    deg_runs: int = 0  # runs in which the cell was not tested

    def format_cell(self):
        """Paper-style aggregate cell: '(3) -.42±.10', '(0) NA', or 'deg'
        when the cell was tested in no run."""
        if self.deg_runs and self.direction is None:
            return "deg"
        if self.significant_runs == 0:
            return "(0) NA"
        return (f"({self.significant_runs}) "
                f"{_short(self.mean_d)}±{_short(self.std_d)}")


def _short(x):
    s = f"{x:.2f}"
    return s.replace("-0.", "-.").replace("0.", ".", 1) \
        if abs(x) < 1 else s


@dataclass
class RunAggregate:
    cells: dict  # (method, metric) -> CellAggregate
    n_runs: int
    significant_fraction: float | None  # None when no cell was tested
    considerable_fraction: float | None
    deg_cells: int = 0  # (cell, run) pairs not tested


@dataclass
class AuditReport:
    config: AuditConfig
    runs: list  # RunResult
    aggregate: RunAggregate


def _derive_seed(run_seed, *parts):
    """Stable per-input seed: run seed XOR a CRC of the identity string."""
    key = ":".join(str(p) for p in parts)
    return (run_seed ^ zlib.crc32(key.encode())) & 0x7FFFFFFF


def _expand_items(records):
    """Flatten records to (pair_id, subgroup, text, label) tuples.

    Paired records contribute both variants with a shared pair id;
    unpaired records get a unique synthetic id, so they pair with nothing.
    """
    items = []
    for i, rec in enumerate(records):
        if isinstance(rec, ds.PairedRecord):
            for sub, text, label in rec.variants():
                items.append((rec.pair_id, sub, text, label))
        else:
            items.append((f"rec{i:06d}", rec.subgroup, rec.text, rec.label))
    return items


def _subgroups_of(items):
    subs = sorted({sub for _, sub, _, _ in items}, key=ds.subgroup_order)
    if len(subs) != 2:
        raise DataError(f"need exactly 2 subgroups, found {subs}")
    return subs


@dataclass
class PreparedRun:
    train_items: list  # (pair_id, subgroup, text, label)
    test_items: list
    labels: list  # sorted; a label's index is its class
    label_idx: dict
    vocab: tm.Vocabulary
    train_data: list  # (TokenSeq, class index)


def prepare_run(records, seed, ratio=0.8, aliases=None):
    """Split, index the two labels, build the vocabulary from the
    training side and tokenize it."""
    part = ds.split(records, ratio, seed=seed)
    train_items = _expand_items(part.train)
    test_items = _expand_items(part.test)
    labels = sorted({lab for _, _, _, lab in train_items + test_items})
    if len(labels) != 2:
        raise DataError(f"need exactly 2 labels, found {labels}")
    label_idx = {lab: i for i, lab in enumerate(labels)}
    vocab = tm.build_vocab([t for _, _, t, _ in train_items], aliases=aliases)
    train_data = [(tm.tokenize(vocab, text), label_idx[lab])
                  for _, _, text, lab in train_items]
    return PreparedRun(train_items, test_items, labels, label_idx, vocab,
                       train_data)


def run_single_audit(records, cfg, run_seed, run_index=0):
    """One repetition: split, train, explain, score, test disparity."""
    aliases = ds.tied_alias_map() if cfg.tied_embeddings else None
    prep = prepare_run(records, run_seed, cfg.split_ratio, aliases)
    test_items, label_idx = prep.test_items, prep.label_idx
    sub_a, sub_b = _subgroups_of(prep.train_items + test_items)

    train_cfg = replace(cfg.train_cfg, seed=run_seed)
    model = tm.init_model(len(prep.vocab), cfg.model_cfg, seed=run_seed)
    model, train_log = tm.train(model, prep.train_data, train_cfg)

    seqs = [tm.tokenize(prep.vocab, text) for _, _, text, _ in test_items]
    predictions, correct, groups = [], 0, {}
    for i, ((pair_id, sub, _, lab), seq) in enumerate(zip(test_items, seqs)):
        pred = tm.predict(model, seq)
        correct += int(pred.predicted_class == label_idx[lab])
        predictions.append(stats.LabeledPrediction(
            subgroup=sub, true_label=label_idx[lab],
            predicted_label=pred.predicted_class, probs=pred.probs,
            pair_id=pair_id))
        groups.setdefault((seq.n, pred.predicted_class), []).append(i)
    size = max(1, BATCH_ROWS // met.scoring_rows(
        len(cfg.methods), cfg.metrics, cfg.metric_cfg))
    scored = [None] * len(test_items)  # per item: samples, tested samples
    # batches in the order of their first test item
    for batch in sorted(g[s:s + size] for g in groups.values()
                        for s in range(0, len(g), size)):
        for i, result in zip(batch, _score_batch(
                model, [(*test_items[i][:2], seqs[i]) for i in batch],
                predictions[batch[0]].predicted_label, cfg, run_seed)):
            scored[i], seqs[i] = result, None  # free the scored TokenSeq
    samples = [s for some, _ in scored for s in some]
    tested = [s for _, some in scored for s in some]
    test_accuracy = correct / len(test_items)

    # label convention for TPR/TNR: subgroup A's own label when the task is
    # gender classification, else fall back to class indices 0/1
    bias = stats.bias_analysis(
        predictions, sub_a, sub_b,
        positive_class=_subgroup_class(sub_a, prep.labels, label_idx, 0),
        negative_class=_subgroup_class(sub_b, prep.labels, label_idx, 1))

    scores = met.group_values(tested)
    disparity = {}
    for method in cfg.methods:
        for metric in cfg.metrics:
            a = scores.get((method, metric, sub_a), [])
            b = scores.get((method, metric, sub_b), [])
            disparity[method, metric] = stats.disparity_test(
                a, b, sub_a, sub_b, cfg.alpha, cfg.d_threshold) \
                if min(len(a), len(b)) >= 2 \
                else stats.DisparityResult.untested(len(a), len(b))

    return RunResult(run_index=run_index, seed=run_seed, samples=samples,
                     disparity=disparity, bias=bias,
                     test_accuracy=test_accuracy, train_log=train_log,
                     subgroups=(sub_a, sub_b))


def _score_batch(model, batch, target, cfg, run_seed):
    """Explain and score test inputs ``(pair_id, subgroup, TokenSeq)`` of
    one token length, predicted as class ``target``: per input, its score
    samples and those of them that enter the disparity tests. Each
    gradient explainer (which reads no seed) explains the (b, n, d) stack
    in one call under ``cfg.attr_cfg`` with the stack's query map, LIME
    and KernelSHAP each input with its own seed and map. An input's
    sensitivity cells reuse its map's designs right away, so a batch
    holds one input's designs at a time; every other metric in one batch
    call."""
    X = model.emb[np.stack([seq.ids for _, _, seq in batch])]
    stack = {}
    stacked = {m: attrib.explain(m, model, X, target, cfg.attr_cfg,
                                 queries=stack).scores
               for m in cfg.methods if m in attrib.GRADIENT_METHODS}
    sens = [m for m in cfg.metrics if m == "sensitivity"]
    rest = [m for m in cfg.metrics if m != "sensitivity"]
    attrs, seeds, sens_values = [], [], []
    for p, (pair_id, sub, seq) in enumerate(batch):
        queries = {}
        attrs.append([attrib.Attribution(m, list(seq.tokens), stacked[m][p],
                                         target, cfg.attr_cfg)
                      if m in stacked else
                      attrib.explain(m, model, seq, target, replace(
                          cfg.attr_cfg, seed=_derive_seed(
                              run_seed, pair_id, sub, m)), queries=queries)
                      for m in cfg.methods])
        seeds.append(_derive_seed(run_seed, pair_id, sub))
        sens_values.append(met.score_input(model, X[p], attrs[-1], sens,
                                           cfg.metric_cfg, seeds[-1],
                                           queries)
                           if sens else [[]] * len(cfg.methods))
    out = []
    for (pair_id, sub, _), row, sv, rv in zip(batch, attrs, sens_values, (
            met.score_input(model, X, attrs, rest, cfg.metric_cfg, seeds))):
        samples, tested = [], []
        for attr, flat, s, r in zip(row, attrib.degenerate(row), sv, rv):
            cell = dict(zip(sens + rest, s + r))
            for metric in cfg.metrics:
                samples.append(met.ScoreSample(pair_id, sub, attr.method,
                                               metric, cell[metric]))
                if not flat:
                    tested.append(samples[-1])
        out.append((samples, tested))
    return out


def _subgroup_class(sub, labels, label_idx, fallback):
    for lab in labels:
        if lab.upper() == sub.upper():
            return label_idx[lab]
    return fallback


def run_audit(records, cfg):
    """Full audit: R runs with seeds base, base+1, ... then aggregation."""
    runs = [run_single_audit(records, cfg, cfg.base_seed + i, run_index=i)
            for i in range(cfg.runs)]
    return AuditReport(config=cfg, runs=runs,
                       aggregate=aggregate_reports(runs))


def aggregate_reports(runs):
    """Fold per-run disparity results into per-cell counts and effect sizes."""
    runs = list(runs)
    if not runs:
        raise DataError("no run reports to aggregate")
    cells = {}
    n_sig = n_cons = n_deg = 0
    keys = list(runs[0].disparity)
    for key in keys:
        results = [r.disparity[key] for r in runs]
        tested = [r for r in results if r.mode != "deg"]
        sig = [r for r in tested if r.significant]
        cons = [r for r in tested if r.considerable]
        n_sig += len(sig)
        n_cons += len(cons)
        n_deg += len(results) - len(tested)
        ds_ = [r.cohens_d for r in sig
               if r.cohens_d is not None and math.isfinite(r.cohens_d)]
        mean_d = float(np.mean(ds_)) if ds_ else None
        std_d = float(np.std(ds_)) if ds_ else None
        votes = {}
        for r in sig or tested:  # empty only for a cell tested in no run
            votes[r.direction] = votes.get(r.direction, 0) + 1
        direction = max(sorted(votes), key=votes.get) if votes else None
        cells[key] = CellAggregate(
            significant_runs=len(sig), considerable_runs=len(cons),
            mean_d=mean_d, std_d=std_d, direction=direction,
            deg_runs=len(results) - len(tested))
    tested = len(keys) * len(runs) - n_deg
    sig_frac, cons_frac = (n_sig / tested, n_cons / tested) if tested \
        else (None, None)
    return RunAggregate(cells=cells, n_runs=len(runs),
                        significant_fraction=sig_frac,
                        considerable_fraction=cons_frac, deg_cells=n_deg)


# ---------------------------------------------------------------------------
# Report persistence: a directory with config.json, scores.csv,
# disparity.json, aggregate.json, bias.json. Written to a temporary
# directory first and renamed into place so failures leave no partial
# report behind.


def check_out_dir(out_dir):
    """ConfigError unless ``out_dir`` is absent or a previous report: a
    directory, not a link, holding config.json. save_report replaces it."""
    if os.path.lexists(out_dir) and (
            os.path.islink(out_dir)
            or not os.path.isfile(os.path.join(out_dir, "config.json"))):
        raise ConfigError(f"output path exists and is not a report "
                          f"directory: {out_dir}")


def save_report(report, out_dir):
    check_out_dir(out_dir)
    out_dir = os.path.abspath(out_dir)
    # a fresh directory next to the target, so no user path is touched;
    # mkdtemp makes it 0700, and a report gets a plain mkdir's mode
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=os.path.basename(out_dir) + ".",
                               dir=os.path.dirname(out_dir))
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_dir, 0o777 & ~umask)
        _write_report(report, tmp_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    # from here the temporary directory holds the only complete new
    # report; if the swap fails it stays behind rather than being lost
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp_dir, out_dir)


def _write_report(report, tmp_dir):
    cfg = report.config
    _dump(os.path.join(tmp_dir, "config.json"),
          {"config": cfg.to_dict(), "config_hash": cfg.content_hash(),
           "run_seeds": [r.seed for r in report.runs]})
    met.write_scores_csv(
        [s for r in report.runs for s in r.samples],
        os.path.join(tmp_dir, "scores.csv"),
        [f"run{r.run_index}:{s.pair_id}" for r in report.runs
         for s in r.samples])
    _dump(os.path.join(tmp_dir, "disparity.json"),
          [{"run": r.run_index, "method": m, "metric": k, **res.to_dict()}
           for r in report.runs for (m, k), res in r.disparity.items()])
    agg = report.aggregate
    _dump(os.path.join(tmp_dir, "aggregate.json"), {
        "n_runs": agg.n_runs,
        "subgroups": list(report.runs[0].subgroups),
        "significant_fraction": agg.significant_fraction,
        "considerable_fraction": agg.considerable_fraction,
        "deg_cells": agg.deg_cells,
        "cells": [{"method": m, "metric": k,
                   "significant_runs": c.significant_runs,
                   "considerable_runs": c.considerable_runs,
                   "deg_runs": c.deg_runs,
                   "mean_d": c.mean_d, "std_d": c.std_d,
                   "direction": c.direction, "cell": c.format_cell()}
                  for (m, k), c in agg.cells.items()]})
    _dump(os.path.join(tmp_dir, "bias.json"),
          [{"run": r.run_index, "test_accuracy": r.test_accuracy,
            **r.bias.to_dict()} for r in report.runs])


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True, default=_json_default)
        f.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")
