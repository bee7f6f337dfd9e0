import filecmp
import json
import math
import os
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import scaled_classifier
from explaudit import attribution as attrib
from explaudit import dataset as ds
from explaudit import metrics as met
from explaudit import pipeline
from explaudit import stats
from explaudit import textmodel as tm
from explaudit.errors import ConfigError, DataError, NumericalError


def _fast_cfg(**kwargs):
    defaults = dict(
        methods=("GRAD", "GXI"),
        metrics=("gini", "sparsity"),
        runs=1,
        train_cfg=tm.TrainConfig(epochs=2, warmup_steps=5),
        model_cfg=tm.ModelConfig(embed_dim=8, hidden_dim=8),
    )
    defaults.update(kwargs)
    return pipeline.AuditConfig(**defaults)


class TestAuditConfig:
    def test_methods_uppercased(self):
        cfg = _fast_cfg(methods=("grad", "shap"))
        assert cfg.methods == ("GRAD", "SHAP")

    @pytest.mark.parametrize("kwargs", [
        {"runs": 0}, {"methods": ()}, {"metrics": ()},
        {"methods": ("GRAD", "ANCHOR")}, {"metrics": ("gini", "auc")},
        {"methods": ("GXI", "gxi")}, {"metrics": ("sparsity", "sparsity")},
        {"alpha": 5.0}, {"alpha": 1.0}, {"alpha": 0.0}, {"alpha": -0.5},
        {"alpha": math.nan}, {"base_seed": -1}, {"d_threshold": -1.0},
        {"d_threshold": math.nan}, {"d_threshold": math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            _fast_cfg(**kwargs)

    def test_content_hash_stable_and_sensitive(self):
        assert _fast_cfg().content_hash() == _fast_cfg().content_hash()
        assert _fast_cfg().content_hash() != \
            _fast_cfg(alpha=0.01).content_hash()


class TestRunSingleAudit:
    def test_sample_and_disparity_counts(self):
        # 2 test pairs x 2 variants x 1 method x 1 metric -> 4 samples
        records = ds.generate_synthetic_paired(4, seed=0)
        cfg = _fast_cfg(methods=("GRAD",), metrics=("gini",),
                        split_ratio=0.5)
        run = pipeline.run_single_audit(records, cfg, run_seed=1)
        assert len(run.samples) == 4
        assert len(run.disparity) == 1
        assert ("GRAD", "gini") in run.disparity

    def test_one_explanation_per_method_and_input(self, monkeypatch):
        # gradient explainers explain a stack of inputs in one call: every
        # test input (as predicted) is explained exactly once per method,
        # as a 2-D input or as one slice of a stack
        explained = {"GRAD": [], "IG": []}
        predicted = []

        def counting_explain(method, model, seq, *args, **kwargs):
            X, _ = attrib.resolve_input(model, seq)
            explained[method] += [x.tobytes() for x in X.reshape(
                -1, *X.shape[-2:])]
            return explain(method, model, seq, *args, **kwargs)

        def counting_predict(model, seqs):
            predicted.extend(tm.embed(model, s).tobytes() for s in seqs)
            return predict(model, seqs)

        explain, predict = attrib.explain, tm.predict
        monkeypatch.setattr(attrib, "explain", counting_explain)
        monkeypatch.setattr(tm, "predict", counting_predict)
        records = ds.generate_synthetic_paired(10, seed=0)
        cfg = _fast_cfg(methods=("GRAD", "IG"), metrics=("gini", "sparsity"))
        run = pipeline.run_single_audit(records, cfg, run_seed=2)
        n_test_inputs = len({(s.pair_id, s.subgroup) for s in run.samples})
        assert len(predicted) == n_test_inputs
        for method, slices in explained.items():
            assert Counter(slices) == Counter(predicted), method
        assert len(run.samples) == 4 * n_test_inputs

    def test_batched_scores_match_single_cell_evaluate(self):
        # every cell of the per-input scoring equals, bit for bit, a
        # one-cell met.evaluate with the input's derived seed as its soft
        # seed and PGD seed, and the method's explainer config
        records = ds.generate_synthetic_paired(10, "LENGTH", seed=5)
        attr_cfg = attrib.AttributionConfig(ig_steps=4, lime_samples=32,
                                            shap_samples=64)
        metric_cfg = met.MetricConfig(pgd=met.PGDConfig(steps=2))
        cfg = _fast_cfg(methods=attrib.METHODS, metrics=met.METRICS,
                        attr_cfg=attr_cfg, metric_cfg=metric_cfg)
        run = pipeline.run_single_audit(records, cfg, run_seed=6)

        prep = pipeline.prepare_run(records, 6, cfg.split_ratio)
        model = tm.init_model(len(prep.vocab), cfg.model_cfg, seed=6)
        model, _ = tm.train(model, prep.train_data,
                            replace(cfg.train_cfg, seed=6))
        expected = []
        for pair_id, sub, text, _ in prep.test_items:
            seq = tm.tokenize(prep.vocab, text)
            X = tm.embed(model, seq)
            target = tm.forward(model, X).predicted_class
            for method in cfg.methods:
                a_cfg = replace(attr_cfg, seed=pipeline._derive_seed(
                    6, pair_id, sub, method))
                attr = attrib.explain(method, model, seq, target, a_cfg)
                seed = pipeline._derive_seed(6, pair_id, sub)
                m_cfg = replace(metric_cfg, soft_seed=seed,
                                pgd=replace(metric_cfg.pgd, seed=seed))
                for metric in cfg.metrics:
                    expected.append((pair_id, sub, method, metric,
                                     met.evaluate(metric, model, X, attr,
                                                  m_cfg)))
        assert len({tm.tokenize(prep.vocab, text).n
                    for _, _, text, _ in prep.test_items}) > 1
        assert len(run.samples) == len(expected) == 42 * len(prep.test_items)
        for s, (pair_id, sub, method, metric, value) in zip(run.samples,
                                                            expected):
            assert (s.pair_id, s.subgroup, s.method, s.metric) == \
                (pair_id, sub, method, metric)
            assert s.value == value or math.isnan(s.value) \
                and math.isnan(value)

    def test_cells_independent_of_other_methods_and_metrics(self):
        # a cell's value depends only on the input, its attribution and
        # the input seed, never on which other cells the audit scores
        records = ds.generate_synthetic_paired(10, "LENGTH", seed=5)
        fixed = dict(attr_cfg=attrib.AttributionConfig(
                         ig_steps=4, lime_samples=32, shap_samples=64),
                     metric_cfg=met.MetricConfig(pgd=met.PGDConfig(steps=2)))
        full = pipeline.run_single_audit(records, _fast_cfg(
            methods=attrib.METHODS, metrics=met.METRICS, **fixed), 6)
        part = pipeline.run_single_audit(records, _fast_cfg(
            methods=("SHAP", "GXI"), metrics=(
                "soft_sufficiency", "sensitivity", "comprehensiveness"),
            **fixed), 6)
        values = {(s.pair_id, s.subgroup, s.method, s.metric): s.value
                  for s in full.samples}
        assert part.samples
        for s in part.samples:
            want = values[s.pair_id, s.subgroup, s.method, s.metric]
            assert s.value == want or math.isnan(s.value) and math.isnan(want)

    def test_tied_embeddings_null(self):
        # weight tying makes paired variants tokenize identically, so all
        # per-pair scores match and no cell can be significant
        records = ds.generate_synthetic_paired(15, "NONE", seed=3)
        cfg = _fast_cfg(tied_embeddings=True,
                        metrics=("gini", "sparsity", "comprehensiveness"))
        run = pipeline.run_single_audit(records, cfg, run_seed=4)
        by_key = {}
        for s in run.samples:
            by_key.setdefault((s.pair_id, s.method, s.metric), {})[
                s.subgroup] = s.value
        for values in by_key.values():
            assert values["MALE"] == values["FEMALE"]
        assert not any(r.significant for r in run.disparity.values())

    def test_diverged_training_raises_numerical_error(self):
        # a diverged model used to stop later, in prediction, with a
        # DataError about its input embeddings
        records = ds.generate_synthetic_paired(10, "LENGTH", seed=0)
        cfg = _fast_cfg(train_cfg=tm.TrainConfig(
            epochs=5, warmup_steps=1, learning_rate=1e300))
        with pytest.raises(NumericalError, match="non-finite"):
            pipeline.run_single_audit(records, cfg, run_seed=0)

    @pytest.mark.parametrize("methods", [("SHAP",), ("GRAD", "IG")])
    def test_non_finite_model_output_raises_numerical_error(self, methods,
                                                            monkeypatch):
        # a trained model whose parameters are finite (up to 1e308) but
        # whose probabilities are NaN: both logits overflow to inf. The
        # audit used to explain class 0, drop every NaN score and stop
        # with a DataError about empty samples. The model is built here,
        # not by training at a huge learning rate, because whether such
        # training ends with finite parameters depends on the BLAS kernel
        def exploded(model, data, cfg):
            model.w1[:] = 0.0
            model.b1[:] = 1.0
            model.w2[:] = 1e308
            return model, []

        monkeypatch.setattr(tm, "train", exploded)
        records = ds.generate_synthetic_paired(10, "LENGTH", seed=0)
        cfg = _fast_cfg(methods=methods)
        with pytest.raises(NumericalError, match="non-finite model output"):
            pipeline.run_single_audit(records, cfg, run_seed=0)

    def test_single_label_rejected(self):
        records = [ds.UnpairedRecord(f"text number {i}", "MALE", "x")
                   for i in range(10)]
        records += [ds.UnpairedRecord(f"other text {i}", "FEMALE", "x")
                    for i in range(10)]
        with pytest.raises(DataError, match="labels"):
            pipeline.run_single_audit(records, _fast_cfg(), run_seed=0)


class TestBatchedScoring:
    """The audit explains and scores its test inputs in batches of one
    length and one predicted class: a stacked explain or ``score_input``
    gives each input the bits of its own call, so the report does not
    depend on the batches."""

    @pytest.mark.parametrize("target", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 7, 13])
    def test_stacked_score_input_equals_per_input_calls(self, target, n):
        rng = np.random.default_rng(n)
        model = scaled_classifier(n)
        X = rng.normal(size=(9, n, 16))
        attrs = [[attrib.explain(m, model, X[p], target,
                                 attrib.AttributionConfig(
                                     ig_steps=4, lime_samples=64,
                                     shap_samples=64, seed=10 * p + q))
                  for q, m in enumerate(attrib.METHODS)] for p in range(9)]
        seeds = [100 + p for p in range(9)]
        cfg = met.MetricConfig(soft_samples=8, pgd=met.PGDConfig(steps=2))
        alone = [met.score_input(model, X[p], attrs[p], met.METRICS, cfg,
                                 seeds[p]) for p in range(9)]
        for k in range(1, 10):
            got = met.score_input(model, X[:k], attrs[:k], met.METRICS, cfg,
                                  seeds[:k])
            assert np.array(got).tobytes() == np.array(alone[:k]).tobytes()
        unseeded = met.score_input(model, X[:3], attrs[:3], met.METRICS, cfg)
        assert np.array(unseeded).tobytes() == np.array([
            met.score_input(model, X[p], attrs[p], met.METRICS, cfg)
            for p in range(3)]).tobytes()

    @pytest.mark.parametrize("k", [1, 5, 9])
    @pytest.mark.parametrize("n", [1, 2, 7, 13])
    @pytest.mark.parametrize("method", attrib.GRADIENT_METHODS)
    def test_stacked_gradient_explain_equals_per_input(self, method, n, k):
        rng = np.random.default_rng(k * n)
        model = scaled_classifier(k)
        X = rng.normal(size=(k, n, 16))
        for target in (0, 1):
            stacked = attrib.explain(method, model, X, target).scores
            for x, scores in zip(X, stacked):
                alone = attrib.explain(method, model, x, target).scores
                assert scores.tobytes() == alone.tobytes()

    @staticmethod
    def _records(n_pairs):
        # inputs of one length, so that batches fill up
        rng = np.random.default_rng(3)
        words = ("quietly", "river", "garden", "lamp", "north", "winter",
                 "bread", "music", "stone", "letter")
        records = []
        for i in range(n_pairs):
            tail = " ".join(rng.choice(words, 5))
            records.append(ds.PairedRecord(f"pair{i:05d}", f"he {tail}",
                                           f"she {tail}", "male", "female"))
        return records

    @pytest.mark.parametrize("bound, soft_samples, min_rows", [
        (pipeline.BATCH_ROWS, 16, 0), (10**9, 200, 16000)],
        ids=["default", "stack-not-concatenate"])
    def test_report_independent_of_batches(self, tmp_path, monkeypatch,
                                           bound, soft_samples, min_rows):
        # past about 15,600 rows a (rows, 32) @ (32, 2) product switches
        # kernels on SkylakeX, so a batch forward of concatenated inputs
        # would move bits; a stack keeps each input's own product
        cfg = pipeline.AuditConfig(
            metrics=met.METRICS, runs=1,
            metric_cfg=met.MetricConfig(soft_samples=soft_samples,
                                        pgd=met.PGDConfig(steps=2)),
            attr_cfg=attrib.AttributionConfig(lime_samples=200,
                                              shap_samples=64),
            train_cfg=tm.TrainConfig(epochs=2, warmup_steps=5))
        records = self._records(60)
        forward_pooled, rows = tm.forward_pooled, []

        def spy(model, pooled):
            rows.append(math.prod(pooled.shape[:-1]))
            return forward_pooled(model, pooled)

        dirs = []
        for batch_rows in (1, bound):
            monkeypatch.setattr(pipeline, "BATCH_ROWS", batch_rows)
            monkeypatch.setattr(tm, "forward_pooled", spy)
            rows.clear()
            report = pipeline.run_audit(records, cfg)
            monkeypatch.undo()
            dirs.append(str(tmp_path / f"bound{batch_rows}"))
            pipeline.save_report(report, dirs[-1])
        batch = met.scoring_rows(6, met.METRICS, cfg.metric_cfg)
        assert max(rows) > max(batch, min_rows)  # a batch of 2 or more
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert filecmp.cmpfiles(*dirs, names, shallow=False)[0] == names


class TestRunAudit:
    def test_run_seeds_increment(self):
        records = ds.generate_synthetic_paired(8, seed=0)
        report = pipeline.run_audit(records, _fast_cfg(runs=3, base_seed=10))
        assert [r.seed for r in report.runs] == [10, 11, 12]
        assert [r.run_index for r in report.runs] == [0, 1, 2]
        assert report.aggregate.n_runs == 3


def _fake_result(significant, d, direction, considerable=None):
    if considerable is None:
        considerable = significant and d is not None and abs(d) >= 0.2
    return stats.DisparityResult(
        u_statistic=1.0, p_value=0.01 if significant else 0.5,
        cohens_d=d, significant=significant, considerable=considerable,
        direction=direction, n_a=5, n_b=5, mode="exact")


def _fake_run(idx, results):
    return SimpleNamespace(run_index=idx, disparity=results)


class TestAggregation:
    def test_all_significant_negative_d(self):
        runs = [_fake_run(i, {("IG", "gini"):
                              _fake_result(True, -0.5, "FEMALE")})
                for i in range(5)]
        agg = pipeline.aggregate_reports(runs)
        cell = agg.cells[("IG", "gini")]
        assert cell.significant_runs == 5
        assert cell.considerable_runs == 5
        assert cell.direction == "FEMALE"
        assert cell.mean_d == pytest.approx(-0.5)
        assert agg.significant_fraction == 1.0

    def test_disjoint_significance_fraction(self):
        runs = [_fake_run(0, {("IG", "gini"):
                              _fake_result(True, 0.4, "MALE")}),
                _fake_run(1, {("IG", "gini"):
                              _fake_result(False, None, "MALE")})]
        agg = pipeline.aggregate_reports(runs)
        assert agg.significant_fraction == 0.5

    def test_majority_direction(self):
        runs = [_fake_run(i, {("IG", "gini"): _fake_result(True, d, direc)})
                for i, (d, direc) in enumerate(
                    [(0.3, "MALE"), (-0.4, "FEMALE"), (-0.5, "FEMALE")])]
        agg = pipeline.aggregate_reports(runs)
        assert agg.cells[("IG", "gini")].direction == "FEMALE"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            pipeline.aggregate_reports([])

    def test_infinite_d_excluded_from_mean(self):
        runs = [_fake_run(0, {("IG", "gini"):
                              _fake_result(True, math.inf, "MALE")}),
                _fake_run(1, {("IG", "gini"):
                              _fake_result(True, 0.6, "MALE")})]
        agg = pipeline.aggregate_reports(runs)
        assert agg.cells[("IG", "gini")].mean_d == pytest.approx(0.6)


class TestDegenerateCells:
    def test_grad_cells_deg_on_pooled_model(self, tmp_path):
        # every GRAD attribution is degenerate: its scores stay in the
        # report but enter no U test, so every GRAD cell is deg
        records = ds.generate_synthetic_paired(20, "LENGTH", seed=0)
        cfg = _fast_cfg(methods=("GRAD", "GXI"),
                        metrics=("comprehensiveness", "gini"), runs=2)
        audit = pipeline.run_audit(records, cfg)
        for run in audit.runs:
            for (method, _), res in run.disparity.items():
                assert (res.mode == "deg") == (method == "GRAD")
            assert {s.method for s in run.samples} == {"GRAD", "GXI"}
        agg = audit.aggregate
        assert agg.deg_cells == 4
        tested = [c for (m, _), c in agg.cells.items() if m == "GXI"]
        assert agg.significant_fraction == \
            sum(c.significant_runs for c in tested) / 4
        out = tmp_path / "rep"
        pipeline.save_report(audit, str(out))
        doc = json.loads((out / "aggregate.json").read_text())
        assert doc["deg_cells"] == 4
        assert doc["subgroups"] == ["MALE", "FEMALE"]
        for cell in doc["cells"]:
            if cell["method"] == "GRAD":
                assert (cell["significant_runs"], cell["direction"],
                        cell["cell"], cell["deg_runs"]) == (0, None, "deg", 2)
            else:
                assert cell["cell"] != "deg" and cell["deg_runs"] == 0

    def test_deg_runs_leave_the_denominator(self):
        deg = stats.DisparityResult.untested(1, 0)
        runs = [_fake_run(0, {("IG", "gini"): _fake_result(True, 0.5, "MALE"),
                              ("GRAD", "gini"): deg}),
                _fake_run(1, {("IG", "gini"): deg,
                              ("GRAD", "gini"): deg})]
        agg = pipeline.aggregate_reports(runs)
        assert agg.deg_cells == 3
        assert agg.significant_fraction == agg.considerable_fraction == 1.0
        ig, grad = agg.cells["IG", "gini"], agg.cells["GRAD", "gini"]
        assert (ig.deg_runs, ig.format_cell()) == (1, "(1) .50±.00")
        assert (grad.deg_runs, grad.direction, grad.format_cell()) == \
            (2, None, "deg")

    def test_too_few_scores_is_deg(self):
        # one test pair: each subgroup keeps one score per cell
        records = ds.generate_synthetic_paired(2, seed=0)
        run = pipeline.run_single_audit(
            records, _fast_cfg(methods=("GXI",), split_ratio=0.5), 1)
        for res in run.disparity.values():
            assert (res.mode, res.n_a, res.n_b, res.significant,
                    res.p_value) == ("deg", 1, 1, False, None)


class TestCellFormatting:
    def test_not_significant(self):
        cell = pipeline.CellAggregate(0, 0, None, None, None)
        assert cell.format_cell() == "(0) NA"

    def test_paper_style_numbers(self):
        cell = pipeline.CellAggregate(3, 2, -0.42, 0.10, "MALE")
        assert cell.format_cell() == "(3) -.42±.10"
        cell = pipeline.CellAggregate(5, 5, -1.68, 1.28, "FEMALE")
        assert cell.format_cell() == "(5) -1.68±1.28"


class TestSaveReport:
    def test_report_files_and_determinism(self, tmp_path):
        records = ds.generate_synthetic_paired(8, seed=0)
        cfg = _fast_cfg(runs=2)
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        pipeline.save_report(pipeline.run_audit(records, cfg), d1)
        pipeline.save_report(pipeline.run_audit(records, cfg), d2)
        expected = {"config.json", "scores.csv", "disparity.json",
                    "aggregate.json", "bias.json"}
        assert set(os.listdir(d1)) == expected
        for name in sorted(expected):
            assert filecmp.cmp(os.path.join(d1, name),
                               os.path.join(d2, name), shallow=False), name

    def test_config_json_contents(self, tmp_path):
        records = ds.generate_synthetic_paired(8, seed=0)
        cfg = _fast_cfg(runs=2, base_seed=7)
        out = str(tmp_path / "rep")
        pipeline.save_report(pipeline.run_audit(records, cfg), out)
        with open(os.path.join(out, "config.json")) as f:
            doc = json.load(f)
        assert doc["run_seeds"] == [7, 8]
        assert doc["config_hash"] == cfg.content_hash()
        assert doc["config"]["alpha"] == 0.05

    def test_no_leftover_tmp_dir(self, tmp_path):
        records = ds.generate_synthetic_paired(8, seed=0)
        out = str(tmp_path / "rep")
        pipeline.save_report(
            pipeline.run_audit(records, _fast_cfg()), out)
        assert os.listdir(tmp_path) == ["rep"]

    def test_overwrites_existing_report(self, tmp_path):
        records = ds.generate_synthetic_paired(8, seed=0)
        out = str(tmp_path / "rep")
        pipeline.save_report(pipeline.run_audit(records, _fast_cfg()), out)
        pipeline.save_report(pipeline.run_audit(records, _fast_cfg()), out)
        assert os.path.exists(os.path.join(out, "scores.csv"))

    def test_failed_write_removes_only_its_temp_dir(self, tmp_path,
                                                    monkeypatch):
        report = pipeline.run_audit(ds.generate_synthetic_paired(8, seed=0),
                                    _fast_cfg())
        out = tmp_path / "rep"
        pipeline.save_report(report, str(out))
        (tmp_path / "rep.tmp").mkdir()
        (tmp_path / "rep.tmp" / "notes.txt").write_text("keep")
        before = {p: (out / p).read_text() for p in os.listdir(out)}

        def disk_full(*args):
            raise OSError("disk full")

        monkeypatch.setattr(met, "write_scores_csv", disk_full)
        with pytest.raises(OSError, match="disk full"):
            pipeline.save_report(report, str(out))
        assert sorted(os.listdir(tmp_path)) == ["rep", "rep.tmp"]
        assert {p: (out / p).read_text() for p in os.listdir(out)} == before
        assert (tmp_path / "rep.tmp" / "notes.txt").read_text() == "keep"

    def test_creates_missing_parent_dirs(self, tmp_path):
        out = tmp_path / "results" / "run1" / "rep"
        pipeline.save_report(
            pipeline.run_audit(ds.generate_synthetic_paired(8, seed=0),
                               _fast_cfg()), str(out))
        assert os.path.isfile(out / "scores.csv")
        assert os.listdir(out.parent) == ["rep"]

    def test_failed_swap_keeps_new_report(self, tmp_path, monkeypatch):
        # once the old report is gone, the staged copy is the only one
        # and must not be deleted
        report = pipeline.run_audit(ds.generate_synthetic_paired(8, seed=0),
                                    _fast_cfg())
        out = tmp_path / "rep"
        pipeline.save_report(report, str(out))

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.save_report(report, str(out))
        (staged,) = os.listdir(tmp_path)
        assert staged.startswith("rep.")
        assert os.path.isfile(tmp_path / staged / "scores.csv")

    def test_report_dir_has_mkdir_mode(self, tmp_path):
        pipeline.save_report(
            pipeline.run_audit(ds.generate_synthetic_paired(8, seed=0),
                               _fast_cfg()), str(tmp_path / "rep"))
        os.mkdir(tmp_path / "plain")
        assert (os.stat(tmp_path / "rep").st_mode
                == os.stat(tmp_path / "plain").st_mode)

    @pytest.mark.parametrize("kind", ["file", "dir", "link"])
    def test_refuses_path_that_is_not_a_report(self, tmp_path, kind):
        # only a real directory holding config.json is replaced
        report = pipeline.run_audit(ds.generate_synthetic_paired(8, seed=0),
                                    _fast_cfg())
        out = tmp_path / "out"
        if kind == "file":
            out.write_text("keep")
        elif kind == "dir":
            out.mkdir()
            (out / "notes.txt").write_text("keep")
        else:
            pipeline.save_report(report, str(tmp_path / "rep"))
            out.symlink_to(tmp_path / "rep")
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(ConfigError, match="not a report directory"):
            pipeline.save_report(report, str(out))
        assert sorted(os.listdir(tmp_path)) == before
        if kind != "link":
            kept = out if kind == "file" else out / "notes.txt"
            assert kept.read_text() == "keep"

    def test_disparity_rows_keyed_by_cell(self, tmp_path):
        records = ds.generate_synthetic_paired(8, seed=0)
        report = pipeline.run_audit(records, _fast_cfg(runs=2))
        out = str(tmp_path / "rep")
        pipeline.save_report(report, out)
        with open(os.path.join(out, "disparity.json")) as f:
            rows = json.load(f)
        assert [(row["run"], row["method"], row["metric"]) for row in rows] \
            == [(r.run_index, m, k) for r in report.runs
                for m, k in r.disparity]
        assert rows[0]["metric"] == "gini" and rows[0]["method"] == "GRAD"
        for row in rows:
            assert set(row) == {"run", "method", "metric", "U", "p", "d",
                                "significant", "considerable", "direction",
                                "n_A", "n_B", "mode"}
