"""The benchmark traces an audit by wrapping program functions by name
(``perfbench/tracing.py``, ``BOUNDARIES``). A renamed or deleted function
would drop its spans from every traced count without an error, so each
name must resolve here, and a call that bypasses the module attribute
would go uncounted, so a traced audit must count every call."""

import importlib.util
import os
from dataclasses import replace

from explaudit import attribution as attrib
from explaudit import dataset as ds
from explaudit import metrics as met
from explaudit import pipeline
from explaudit import textmodel as tm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    boundaries = _load_tracing().BOUNDARIES
    assert boundaries
    missing = [f"{module.__name__}.{name}"
               for module, name, _ in boundaries
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_tracer_counts_every_explain(monkeypatch):
    # each batch of test inputs of one length and one predicted class
    # takes one explain call per gradient method over its stack, and each
    # input one LIME and one KernelSHAP explain; then six sensitivity
    # cells per input, each re-explaining its whole PGD path (every step
    # and restart) in one call. GXI reads GRAD's gradient both times, so a
    # batch takes one gradient call and an input one per PGD step and one
    # for the re-explain
    tracing = _load_tracing()
    for module, name, _ in tracing.BOUNDARIES:  # restored after the test
        monkeypatch.setattr(module, name, getattr(module, name))
    tracer = tracing.Tracer(0)
    assert tracer.install() == []
    steps = 3
    cfg = pipeline.AuditConfig(
        metrics=("gini", "sensitivity"), runs=1,
        metric_cfg=met.MetricConfig(pgd=met.PGDConfig(steps=steps)),
        train_cfg=tm.TrainConfig(epochs=2, warmup_steps=5),
        model_cfg=tm.ModelConfig(embed_dim=8, hidden_dim=8))
    records = ds.generate_synthetic_paired(10, "NONE", seed=0)
    report = pipeline.run_audit(records, cfg)
    inputs = len({(s.pair_id, s.subgroup) for s in report.runs[0].samples})
    counts = tracing.summarize(tracer.spans)
    monkeypatch.undo()

    prep = pipeline.prepare_run(records, 0, cfg.split_ratio)
    model = tm.init_model(len(prep.vocab), cfg.model_cfg, seed=0)
    model, _ = tm.train(model, prep.train_data,
                        replace(cfg.train_cfg, seed=0))
    batches = set()
    for _, _, text, _ in prep.test_items:
        seq = tm.tokenize(prep.vocab, text)
        batches.add((seq.n, tm.forward(model, tm.embed(model, seq))
                     .predicted_class))
    assert (inputs, len(batches)) == (4, 2)
    for method in attrib.METHODS:
        explains = len(batches) if method in attrib.GRADIENT_METHODS \
            else inputs
        assert counts[f"attribution.{method}_calls"] == explains + inputs
    assert counts["metrics.sensitivity_calls"] == inputs * 6
    assert counts["metrics.sensitivity_explain_calls"] == inputs * 6
    assert counts["textmodel.grad_calls"] == \
        len(batches) + inputs * (steps + 1)
