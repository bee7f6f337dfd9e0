"""Outside-in tracing of an audit.

``Tracer.install`` replaces the public module-level functions at each
layer boundary with wrappers that record a span. The program calls these
functions through module attributes (``attrib.explain``,
``textmodel.forward_pooled``, ...), so the wrappers see every call
without any change to ``src/``. Spans stay in memory until the audit ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

from explaudit import attribution as attrib
from explaudit import dataset as ds
from explaudit import metrics as met
from explaudit import pipeline, report, stats
from explaudit import textmodel as tm


def _rows(pooled):
    shape = getattr(pooled, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _shap_mode(seq, cfg):
    n = seq.n if isinstance(seq, tm.TokenSeq) else len(seq)
    samples = (cfg or attrib.AttributionConfig()).shap_samples
    return "exact" if 2**n - 2 <= samples else "sampled"


def _train_steps(data, cfg):
    return cfg.epochs * math.ceil(len(data) / cfg.batch_size)


# (module, function, span namer). A namer receives the call's arguments
# and returns (span name, attributes).
BOUNDARIES = (
    (ds, "load_paired", lambda *a, **k: ("dataset.load", None)),
    (ds, "split", lambda *a, **k: ("dataset.split", None)),
    (tm, "build_vocab", lambda *a, **k: ("textmodel.vocab", None)),
    (tm, "train", lambda model, data, cfg, *a, **k: (
        "textmodel.train", {"steps": _train_steps(data, cfg)})),
    (tm, "predict", lambda *a, **k: ("textmodel.predict", None)),
    (tm, "forward_pooled", lambda model, pooled, *a, **k: (
        "textmodel.forward", {"rows": _rows(pooled)})),
    (tm, "grad_wrt_embeddings_matrix",
     lambda *a, **k: ("textmodel.grad", None)),
    (attrib, "explain",
     lambda method, model, seq, target, cfg=None, *a, **k: (
        f"attribution.{method.upper()}",
        {"mode": _shap_mode(seq, cfg)} if method.upper() == "SHAP"
        else None)),
    (met, "evaluate", lambda metric, *a, **k: (f"metrics.{metric}", None)),
    (stats, "disparity_test", lambda *a, **k: ("stats.disparity", None)),
    (stats, "bias_analysis", lambda *a, **k: ("stats.bias", None)),
    (pipeline, "run_audit", lambda *a, **k: ("pipeline", None)),
    (pipeline, "save_report", lambda *a, **k: ("pipeline.save", None)),
    (report, "render", lambda report_dir, fmt="table", *a, **k: (
        f"report.{fmt}", None)),
)


class Tracer:
    """Records spans as [name, start, end, parent index, audit id, attrs]."""

    def __init__(self, audit_id):
        self.spans = []
        self._stack = []
        self.audit_id = audit_id

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.audit_id, attrs])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        self._open(name, attrs)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, namer):
        def traced(*args, **kwargs):
            self._open(*namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def install(self):
        """Wrap every boundary; return the names of those that are absent."""
        missing = []
        for module, attr, namer in BOUNDARIES:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
            else:
                setattr(module, attr, self._wrap(fn, namer))
        return missing

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, audit_id, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "audit": audit_id, "attrs": attrs})
                        + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Calls are serial, so children of one span never overlap and their
    durations add up to the time they cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i]
            for i, (_, start, end, _, _, _) in enumerate(spans)]


def summarize(spans):
    """Per-layer self times and counts of one traced audit."""
    selfs = self_times(spans)
    out = defaultdict(int)
    under_sensitivity = [False] * len(spans)
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        layer, _, part = name.partition(".")
        out[f"{name}_s" if part else f"{layer}.self_s"] += selfs[i]
        if layer in ("attribution", "metrics"):
            out[f"{name}_calls"] += 1
        if layer == "attribution":
            out[f"{name}_incl_s"] += end - start
        if parent >= 0:
            under_sensitivity[i] = (under_sensitivity[parent]
                                    or spans[parent][0]
                                    == "metrics.sensitivity")
        if name == "textmodel.forward":
            out["textmodel.forward_calls"] += 1
            out["textmodel.forward_rows"] += attrs["rows"]
        elif name == "textmodel.grad":
            out["textmodel.grad_calls"] += 1
        elif name == "textmodel.train":
            out["textmodel.train_steps"] += attrs["steps"]
        elif name == "stats.disparity":
            out["stats.disparity_tests"] += 1
        elif name == "attribution.SHAP":
            mode = attrs["mode"]
            out[f"attribution.shap_{mode}_inputs"] += 1
            out[f"attribution.SHAP_{mode}_s"] += selfs[i]
        if layer == "attribution" and under_sensitivity[i]:
            out["metrics.sensitivity_explain_calls"] += 1
        if name == "metrics.sensitivity":
            out["metrics.sensitivity_incl_s"] += end - start
    return dict(out)
