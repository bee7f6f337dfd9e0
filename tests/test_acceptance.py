"""End-to-end acceptance checks.

Each test is one acceptance criterion; the pytest -v line for each test
is its pass/fail record. Oracles are independent of the implementation
(hand computations, finite differences, exhaustive enumeration) and all
randomized checks run with frozen seeds.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from conftest import (LinearPooledModel, exact_shapley, exact_soft_value,
                      exact_u_distribution_p, finite_diff_input_grad,
                      indicator_embeddings, masked_prob, random_tiny_model)
from explaudit import attribution as attrib
from explaudit import dataset as ds
from explaudit import metrics as met
from explaudit import pipeline, report, stats
from explaudit import textmodel as tm

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _attr(scores):
    scores = np.asarray(scores, dtype=float)
    return attrib.Attribution("GXI", [f"t{i}" for i in range(len(scores))],
                              scores, 1)


def test_criterion_1_metric_oracles():
    """Gini and sparsity against hand-computed values."""
    t0 = time.time()
    for n in range(2, 17):
        uniform = _attr([1.0 / n] * n)
        assert abs(met.gini_index(uniform)) <= 1e-12
        one_hot = _attr([0.0] * (n - 1) + [1.0])
        assert abs(met.gini_index(one_hot) - (1 - 1 / n)) <= 1e-12
    # shares (1/4, 3/4) ascending: 1 - 2*[(1/4)(1.5/2) + (3/4)(0.5/2)]
    # = 0.25, equal to the classical mean-absolute-difference Gini
    assert abs(met.gini_index(_attr([3.0, 1.0])) - 0.25) <= 1e-12
    # sparsity boundary cases are exact
    assert met.sparsity(_attr([0.1, -0.1, 0.1])) == 1.0
    assert met.sparsity(_attr([0.5, 0.05, -0.2, 0.0])) == 0.5
    assert met.sparsity(_attr([0.0, 0.0])) == 0.0
    assert time.time() - t0 < 1.0


def test_criterion_2_soft_metric_enumeration():
    """Monte-Carlo soft metrics vs exact Bernoulli enumeration (n*d <= 12)."""
    t0 = time.time()
    cases = [
        ([0.04, -0.02, 0.03], [0.5, 1.0, 0.25]),
        ([0.05, 0.01, -0.03], [1.0, 0.0, 0.5]),
        ([0.03, 0.03], [0.6, 1.0]),
    ]
    for w, scores in cases:
        model = LinearPooledModel(w, base=0.5)
        X = indicator_embeddings(len(w))
        a = _attr(scores)
        q = attrib.normalize_scores(a)
        exact_s = exact_soft_value(model, X, q, 1, "sufficiency")
        exact_c = exact_soft_value(model, X, 1.0 - q, 1, "comprehensiveness")
        for seed in range(5):
            cfg = met.MetricConfig(soft_samples=1024, soft_seed=seed)
            for metric, exact in (("soft_sufficiency", exact_s),
                                  ("soft_comprehensiveness", exact_c)):
                assert abs(met.evaluate(metric, model, X, a, cfg)
                           - exact) <= 0.01
    assert time.time() - t0 < 30.0


def test_criterion_3_gradient_correctness():
    """Finite-difference agreement on 100 models; IG completeness."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (3, 3))
        for target in (0, 1):
            g = tm.grad_wrt_embeddings_matrix(model, X, target)
            fd = finite_diff_input_grad(model, X, target)
            assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)
    cfg = attrib.AttributionConfig(ig_steps=256)
    for _ in range(10):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (4, 3))
        a = attrib.explain("IG", model, X, 1, cfg)
        delta = tm.forward(model, X).probs[1] \
            - tm.forward(model, np.zeros_like(X)).probs[1]
        assert abs(a.scores.sum() - delta) <= 1e-2
    assert time.time() - t0 < 60.0


def test_criterion_4_shapley_brute_force():
    """KernelSHAP vs exhaustive Shapley enumeration; exact efficiency."""
    rng = np.random.default_rng(7)
    cfg = attrib.AttributionConfig(shap_samples=2048)
    for n in (2, 3, 4, 5, 6):
        model = random_tiny_model(rng)
        X = rng.uniform(-1, 1, (n, 3))
        a = attrib.explain("SHAP", model, X, 1, cfg)
        oracle = exact_shapley(lambda s: masked_prob(model, X, s), n)
        assert np.max(np.abs(a.scores - oracle)) <= 0.01
        delta = masked_prob(model, X, range(n)) - masked_prob(model, X, [])
        assert abs(a.scores.sum() - delta) <= 1e-6
    # efficiency also holds on the size-sampled branch
    model = random_tiny_model(rng)
    X = rng.uniform(-1, 1, (14, 3))
    a = attrib.explain("SHAP", model, X, 1,
                       attrib.AttributionConfig(shap_samples=300))
    delta = masked_prob(model, X, range(14)) - masked_prob(model, X, [])
    assert abs(a.scores.sum() - delta) <= 1e-6


def test_criterion_5_statistics_oracle(monkeypatch):
    """Exact U-test values, exact-vs-asymptotic gap, Cohen's d."""
    t0 = time.time()
    u, p = stats.mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0 and p == 0.1
    _, p = stats.mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert p == 1.0
    rng = np.random.default_rng(99)
    for _ in range(30):
        n_a = int(rng.integers(3, 7))
        n_b = int(rng.integers(3, 13 - n_a))
        a = rng.uniform(0, 1, n_a).tolist()
        b = rng.uniform(0, 1, n_b).tolist()
        _, p_exact = stats.mann_whitney_u(a, b)
        assert p_exact == pytest.approx(exact_u_distribution_p(a, b),
                                        abs=1e-12)
        monkeypatch.setattr(stats, "EXACT_LIMIT", 0)
        _, p_asym = stats.mann_whitney_u(a, b)
        monkeypatch.setattr(stats, "EXACT_LIMIT", 12)
        assert abs(p_exact - p_asym) <= 0.05
    d = stats.cohens_d([0.0, 2.0], [-1.0, 1.0])
    assert abs(d - 1 / math.sqrt(2)) <= 1e-9
    assert time.time() - t0 < 5.0


def test_criterion_6_null_calibration():
    """No disparity on symmetric data: zero cells when embeddings are
    tied; bounded per-cell false-positive rate without tying when the
    label is independent of gender."""
    t0 = time.time()

    # (a) gender-tied embeddings on clean pairs: identical variant scores
    tied_records = ds.generate_synthetic_paired(15, "NONE", seed=3)
    tied_cfg = pipeline.AuditConfig(
        runs=1, base_seed=0, tied_embeddings=True,
        train_cfg=tm.TrainConfig(epochs=5, warmup_steps=50))
    tied_run = pipeline.run_audit(tied_records, tied_cfg).runs[0]
    assert not any(r.significant for r in tied_run.disparity.values())

    # (b) untied, gender-balanced content labels: a true null. With gender
    # as the label the per-run disparity is real (the model must treat
    # gender tokens asymmetrically), so the false-positive framing only
    # applies when the label carries no gender information.
    base = ds.generate_synthetic_paired(100, "NONE", seed=0)
    records = []
    for i, rec in enumerate(base):
        if i % 2 == 0:
            records.append(ds.PairedRecord(rec.pair_id, rec.text_a,
                                           rec.text_b, "plain", "plain"))
        else:
            records.append(ds.PairedRecord(
                rec.pair_id, rec.text_a + " indeed",
                rec.text_b + " indeed", "marked", "marked"))
    n_audits = 20
    per_cell = {}
    for audit_seed in range(n_audits):
        cfg = pipeline.AuditConfig(
            runs=1, base_seed=audit_seed,
            train_cfg=tm.TrainConfig(epochs=20, warmup_steps=50))
        run = pipeline.run_audit(records, cfg).runs[0]
        for key, res in run.disparity.items():
            per_cell.setdefault(key, []).append(res.significant)
    bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / n_audits)
    for key, flags in per_cell.items():
        assert np.mean(flags) <= bound, key
    assert time.time() - t0 < 600.0


def test_criterion_7_planted_disparity_power():
    """LENGTH-injected data: >= 80% of cells significant with
    consistent direction across runs."""
    t0 = time.time()
    records = ds.generate_synthetic_paired(500, "LENGTH", seed=0)
    cfg = pipeline.AuditConfig(runs=5, base_seed=0,
                               train_cfg=tm.TrainConfig(epochs=20))
    audit = pipeline.run_audit(records, cfg)
    assert audit.aggregate.significant_fraction >= 0.8

    consistent = total = 0
    for key in audit.aggregate.cells:
        directions = {r.disparity[key].direction for r in audit.runs
                      if r.disparity[key].significant}
        if directions:
            total += 1
            consistent += len(directions) == 1
    assert total > 0
    assert consistent / total >= 0.9
    assert time.time() - t0 < 900.0


def test_criterion_8_reporting_shape_golden(tmp_path):
    """Counts-out-of-R grid and aggregate effect-size cells match the
    frozen golden rendering of a seeded audit."""
    records = ds.generate_synthetic_paired(40, "LENGTH", seed=0)
    cfg = pipeline.AuditConfig(
        methods=("GRAD", "LIME"), metrics=("comprehensiveness", "gini"),
        runs=3, base_seed=0,
        train_cfg=tm.TrainConfig(epochs=5, warmup_steps=50))
    out = str(tmp_path / "rep")
    pipeline.save_report(pipeline.run_audit(records, cfg), out)
    text = report.render(out, "table")
    with open(os.path.join(DATA_DIR, "golden_report.txt"),
              encoding="utf-8") as f:
        golden = f.read()
    assert text == golden


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed produce byte-identical report dirs."""
    records = ds.generate_synthetic_paired(12, "NONE", seed=1)
    cfg = pipeline.AuditConfig(
        methods=("GRAD", "SHAP"), metrics=("gini", "comprehensiveness"),
        runs=2, base_seed=5,
        train_cfg=tm.TrainConfig(epochs=3, warmup_steps=20))
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    pipeline.save_report(pipeline.run_audit(records, cfg), d1)
    pipeline.save_report(pipeline.run_audit(records, cfg), d2)
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                           shallow=False), name
