import json
import math
import os
import shutil
from xml.dom import minidom

import pytest

from explaudit import dataset as ds
from explaudit import metrics as met
from explaudit import pipeline, report
from explaudit import textmodel as tm
from explaudit.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    records = ds.generate_synthetic_paired(8, seed=0)
    cfg = pipeline.AuditConfig(
        methods=("GRAD", "GXI"), metrics=("gini", "sparsity"), runs=2,
        train_cfg=tm.TrainConfig(epochs=2, warmup_steps=5),
        model_cfg=tm.ModelConfig(embed_dim=8, hidden_dim=8))
    out = str(tmp_path_factory.mktemp("rep") / "audit")
    pipeline.save_report(pipeline.run_audit(records, cfg), out)
    return out


class TestGridCell:
    def test_zero(self):
        cell = {"significant_runs": 0, "considerable_runs": 0,
                "direction": None}
        assert report.grid_cell(cell, "MALE") == "0"

    def test_direction_suffixes(self):
        cell = {"significant_runs": 4, "considerable_runs": 0,
                "direction": "MALE"}
        assert report.grid_cell(cell, "MALE") == "4+A"
        cell["direction"] = "FEMALE"
        assert report.grid_cell(cell, "MALE") == "4+B"

    def test_deg(self):
        cell = {"significant_runs": 0, "considerable_runs": 0,
                "direction": None, "cell": "deg"}
        assert report.grid_cell(cell, "MALE") == "deg"

    def test_considerable_star(self):
        cell = {"significant_runs": 5, "considerable_runs": 2,
                "direction": "MALE"}
        assert report.grid_cell(cell, "MALE") == "5+A*"


class TestGrids:
    CELLS = [
        {"method": "IG", "metric": "gini", "significant_runs": 3,
         "considerable_runs": 3, "direction": "FEMALE",
         "cell": "(3) -.50±.10"},
        {"method": "IG", "metric": "sparsity", "significant_runs": 0,
         "considerable_runs": 0, "direction": None, "cell": "(0) NA"},
    ]

    def test_significance_grid_layout(self):
        grid = report.significance_grid(
            self.CELLS, ["IG"], ["gini", "sparsity"],
            lambda c: report.grid_cell(c, "MALE"))
        lines = grid.splitlines()
        assert lines[0].split() == ["method", "gini", "sparsity"]
        assert lines[2].split() == ["IG", "3+B*", "0"]

    def test_missing_cell_dash(self):
        grid = report.significance_grid(
            self.CELLS, ["IG", "SHAP"], ["gini"],
            lambda c: report.grid_cell(c, "MALE"))
        assert grid.splitlines()[3].split() == ["SHAP", "-"]

    def test_aggregate_grid(self):
        grid = report.significance_grid(self.CELLS, ["IG"],
                                        ["gini", "sparsity"],
                                        lambda c: c["cell"])
        assert "(3) -.50±.10" in grid and "(0) NA" in grid


class TestFiveNumberSummary:
    def test_whisker_and_outlier(self):
        lo, q1, q2, q3, hi, outliers = report.five_number_summary(
            [0, 1, 2, 3, 100])
        assert q1 == 1.0 and q2 == 2.0 and q3 == 3.0
        assert lo == 0.0 and hi == 3.0  # 100 > Q3 + 1.5 * IQR = 6
        assert outliers == [100.0]

    def test_no_outliers(self):
        lo, q1, q2, q3, hi, outliers = report.five_number_summary(
            [1.0, 2.0, 3.0, 4.0])
        assert (lo, hi) == (1.0, 4.0)
        assert outliers == []

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            report.five_number_summary([])


class TestBoxplotSvg:
    def test_deterministic_and_valid_header(self):
        groups = {"MALE": [0.1, 0.2, 0.3], "FEMALE": [0.2, 0.4, 0.6]}
        s1 = report.boxplot_svg(groups, "IG / gini")
        s2 = report.boxplot_svg(groups, "IG / gini")
        assert s1 == s2
        assert s1.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                             'version="1.1"')
        assert s1.rstrip().endswith("</svg>")

    def test_identical_groups_identical_boxes(self):
        vals = [0.1, 0.3, 0.5, 0.7]
        s = report.boxplot_svg({"MALE": vals, "FEMALE": vals})
        a = report.five_number_summary(vals)
        b = report.five_number_summary(vals)
        assert a == b
        assert s.count("<rect") == 3  # background + one box per group

    def test_outlier_circles_drawn(self):
        s = report.boxplot_svg({"MALE": [0, 1, 2, 3, 100]})
        assert s.count("<circle") == 1

    def test_constant_data_does_not_crash(self):
        s = report.boxplot_svg({"MALE": [0.5, 0.5], "FEMALE": [0.5, 0.5]})
        assert "</svg>" in s

    def test_markup_in_labels_is_escaped(self):
        # subgroup labels come from the dataset as they are
        labels = ["M&<x>", 'F"]]>']
        svg = report.boxplot_svg({lab: [0.1, 0.2] for lab in labels},
                                 "GXI & <sparsity>")
        texts = [node.firstChild.data for node in
                 minidom.parseString(svg).getElementsByTagName("text")]
        assert texts[0] == "GXI & <sparsity>"
        assert texts[-2:] == labels


class TestRender:
    def test_table(self, report_dir):
        text = report.render(report_dir, "table")
        assert "significant runs out of 2" in text
        assert "+A=MALE" in text and "+B=FEMALE" in text
        assert "GRAD" in text and "gini" in text

    def test_table_marks_deg_cells(self, report_dir):
        # GRAD attributions are degenerate on the pooled classifier
        rows = [line.split() for line in
                report.render(report_dir, "table").splitlines()
                if line.startswith("GRAD")]
        assert rows == [["GRAD", "deg", "deg"]] * 2

    def test_table_reads_only_subgroup_labels(self, report_dir,
                                              monkeypatch):
        expected = report.render(report_dir, "table")

        def no_full_parse(path):
            raise AssertionError("table render parsed every score")

        monkeypatch.setattr(report.met, "read_scores_csv", no_full_parse)
        assert report.render(report_dir, "table") == expected

    def test_table_needs_subgroup_labels(self, report_dir, tmp_path):
        copy = shutil.copytree(report_dir, tmp_path / "copy")
        aggregate = json.loads((copy / "aggregate.json").read_text())
        assert aggregate.pop("subgroups") == ["MALE", "FEMALE"]
        (copy / "aggregate.json").write_text(json.dumps(aggregate))
        with pytest.raises(DataError, match="no subgroup labels"):
            report.render(str(copy), "table")

    def test_svg_per_cell(self, report_dir, tmp_path):
        paths = report.render(report_dir, "svg", str(tmp_path))
        assert len(paths) == 4  # 2 methods x 2 metrics
        names = {os.path.basename(p) for p in paths}
        assert "box_GRAD_gini.svg" in names

    def test_svg_equals_per_cell_filter(self, report_dir, tmp_path):
        # blank some scores (NaN), all FEMALE ones of one cell among them;
        # the one grouping pass must plot what filtering every sample per
        # cell and subgroup gives
        copy = shutil.copytree(report_dir, tmp_path / "copy")
        samples = met.read_scores_csv(copy / "scores.csv")
        for k, s in enumerate(samples):
            if k % 7 == 0 or (s.method, s.metric, s.subgroup) == (
                    "GXI", "gini", "FEMALE"):
                s.value = float("nan")
        met.write_scores_csv(samples, copy / "scores.csv")
        paths = report.render(str(copy), "svg", str(tmp_path / "svg"))
        assert len(paths) == 4
        for path in paths:
            method, metric = os.path.basename(path)[4:-4].split("_", 1)
            groups = {}
            for lab in ("MALE", "FEMALE"):
                vals = [s.value for s in samples
                        if s.method == method and s.metric == metric
                        and s.subgroup == lab and not math.isnan(s.value)]
                if vals:
                    groups[lab] = vals
            with open(path, encoding="utf-8") as f:
                assert f.read() == report.boxplot_svg(
                    groups, title=f"{method} / {metric}")

    def test_unknown_format(self, report_dir):
        with pytest.raises(ConfigError):
            report.render(report_dir, "pdf")

    def test_malformed_dir(self, tmp_path):
        with pytest.raises(DataError, match="malformed report dir"):
            report.render(str(tmp_path), "table")
