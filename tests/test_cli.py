import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ConstantModel
from explaudit import attribution as attrib
from explaudit import cli, pipeline, report
from explaudit.errors import ConfigError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def none_dataset(tmp_path, capsys):
    path = str(tmp_path / "pairs.csv")
    code, _, _ = run_cli(["gen-data", "--pairs", "12", "--seed", "3",
                          "--out", path], capsys)
    assert code == 0
    return path


class TestGenData:
    def test_row_and_pair_counts(self, tmp_path, capsys):
        path = str(tmp_path / "d.csv")
        code, out, _ = run_cli(["gen-data", "--pairs", "10", "--out", path],
                               capsys)
        assert code == 0
        assert "20 rows (10 pairs)" in out
        with open(path) as f:
            lines = f.read().splitlines()
        assert len(lines) == 21  # header + 20 rows
        pair_ids = {line.split(",")[0] for line in lines[1:]}
        assert len(pair_ids) == 10

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for p in (p1, p2):
            assert run_cli(["gen-data", "--pairs", "8", "--seed", "5",
                            "--out", p], capsys)[0] == 0
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_length_injection_token_counts(self, tmp_path, capsys):
        path = str(tmp_path / "d.jsonl")
        code, _, _ = run_cli(["gen-data", "--pairs", "10", "--injection",
                              "length", "--format", "jsonl", "--out", path],
                             capsys)
        assert code == 0
        counts = {"MALE": 0, "FEMALE": 0}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                counts[row["subgroup"]] += len(row["text"].split())
        assert counts["FEMALE"] > counts["MALE"]


    def test_out_directory_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(["gen-data", "--out", str(tmp_path)], capsys)
        assert code == 1 and "is a directory" in err
        assert os.listdir(tmp_path) == []
        # a path that does not exist yet but names a directory
        code, _, err = run_cli(["gen-data", "--out",
                                str(tmp_path / "newdir") + os.sep], capsys)
        assert code == 1 and "is a directory" in err
        assert os.listdir(tmp_path) == []

    def test_out_creates_missing_parents(self, tmp_path, capsys):
        path = tmp_path / "data" / "sets" / "d.csv"
        code, _, _ = run_cli(["gen-data", "--pairs", "3", "--out", str(path)],
                             capsys)
        assert code == 0
        assert len(path.read_text().splitlines()) == 7  # header + 6 rows

    def test_out_below_regular_file_exit_1(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("data")
        code, _, err = run_cli(["gen-data", "--pairs", "3", "--out",
                                str(tmp_path / "afile" / "x.csv")], capsys)
        assert code == 1
        assert "below a non-directory" in err
        assert (tmp_path / "afile").read_text() == "data"


class TestValidate:
    def test_ok(self, none_dataset, capsys):
        code, out, _ = run_cli(["validate", "--dataset", none_dataset],
                               capsys)
        assert code == 0
        assert "OK: 12 pairs" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        code, _, err = run_cli(["validate", "--dataset", missing], capsys)
        assert code == 2
        assert missing in err

    def test_bad_data_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("pair_id,subgroup,text,label\n1,MALE,he runs,male\n")
        code, _, err = run_cli(["validate", "--dataset", str(path)], capsys)
        assert code == 2

    def test_short_csv_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("pair_id,subgroup,text,label\n"
                        "p1,MALE,he runs,male\np1,FEMALE\n")
        code, out, err = run_cli(["validate", "--dataset", str(path)],
                                 capsys)
        assert code == 2
        assert "OK" not in out
        assert f"{path}:3: missing fields" in err

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON"),
        ("5", "not a JSON object"),
    ])
    @pytest.mark.parametrize("unpaired", [False, True])
    def test_malformed_jsonl_exit_2(self, tmp_path, capsys, line, message,
                                    unpaired):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pair_id": "", "subgroup": "MALE", '
                        '"text": "he runs", "label": "male"}\n' + line + "\n")
        code, _, err = run_cli(["validate", "--dataset", str(path),
                                "--format", "jsonl"]
                               + ["--unpaired"] * unpaired, capsys)
        assert code == 2
        assert f"data error: {path}:2: {message}" in err

    @pytest.mark.parametrize("fmt, content", [
        ("csv", b"pair_id,subgroup,text,label\n"
                b"p1,MALE,he runs \xff,male\np1,FEMALE,she runs,female\n"),
        ("jsonl", b'{"pair_id": "p1", "subgroup": "MALE", '
                  b'"text": "he runs \xff", "label": "male"}\n'),
    ], ids=["csv", "jsonl"])
    @pytest.mark.parametrize("unpaired", [False, True])
    def test_non_utf8_exit_2(self, tmp_path, capsys, fmt, content,
                             unpaired):
        path = tmp_path / f"latin1.{fmt}"
        path.write_bytes(content)
        code, out, err = run_cli(["validate", "--dataset", str(path),
                                  "--format", fmt]
                                 + ["--unpaired"] * unpaired, capsys)
        assert code == 2
        assert "OK" not in out
        assert f"data error: {path}: not UTF-8 text" in err

    def test_unknown_format_exit_1(self, none_dataset, capsys):
        code, _, err = run_cli(["validate", "--dataset", none_dataset,
                                "--unpaired", "--format", "xml"], capsys)
        assert code == 1
        assert "config error" in err


class TestAudit:
    def _audit(self, dataset, out, capsys, *extra):
        return run_cli(["audit", "--dataset", dataset, "--out", out,
                        "--runs", "2", "--epochs", "2",
                        "--methods", "GRAD,GXI",
                        "--metrics", "gini,sparsity", *extra], capsys)

    def test_tied_null_grid_all_zeros(self, none_dataset, tmp_path, capsys):
        out_dir = str(tmp_path / "rep")
        code, out, _ = self._audit(none_dataset, out_dir, capsys,
                                   "--tied-embeddings")
        assert code == 0
        grid_rows = [line for line in out.splitlines()
                     if line.startswith(("GRAD", "GXI"))]
        assert len(grid_rows) >= 2
        # significance grid rows; every GRAD attribution is degenerate
        assert grid_rows[0].split() == ["GRAD", "deg", "deg"]
        assert grid_rows[1].split() == ["GXI", "0", "0"]

    def test_metric_selection_controls_columns(self, none_dataset, tmp_path,
                                               capsys):
        out_dir = str(tmp_path / "rep")
        code, out, _ = self._audit(none_dataset, out_dir, capsys)
        assert code == 0
        header = next(line for line in out.splitlines()
                      if line.startswith("method"))
        assert header.split() == ["method", "gini", "sparsity"]

    def test_echoes_resolved_config(self, none_dataset, tmp_path, capsys):
        out_dir = str(tmp_path / "rep")
        code, out, _ = self._audit(none_dataset, out_dir, capsys)
        assert code == 0
        assert "[audit] resolved config:" in out
        assert '"alpha": 0.05' in out

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code, _, err = self._audit(str(tmp_path / "missing.csv"),
                                   str(tmp_path / "rep"), capsys)
        assert code == 2

    def test_report_dir_written(self, none_dataset, tmp_path, capsys):
        out_dir = str(tmp_path / "rep")
        assert self._audit(none_dataset, out_dir, capsys)[0] == 0
        assert set(os.listdir(out_dir)) == {
            "config.json", "scores.csv", "disparity.json",
            "aggregate.json", "bias.json"}

    def test_rerun_replaces_previous_report(self, none_dataset, tmp_path,
                                            capsys):
        out_dir = tmp_path / "rep"
        assert self._audit(none_dataset, str(out_dir), capsys)[0] == 0
        (out_dir / "box_GRAD_gini.svg").write_text("old render")
        assert self._audit(none_dataset, str(out_dir), capsys)[0] == 0
        assert set(os.listdir(out_dir)) == {
            "config.json", "scores.csv", "disparity.json",
            "aggregate.json", "bias.json"}
        assert not os.path.exists(str(out_dir) + ".tmp")

    def test_out_in_missing_parent_dir(self, none_dataset, tmp_path,
                                       capsys):
        out_dir = tmp_path / "results" / "rep"
        assert self._audit(none_dataset, str(out_dir), capsys)[0] == 0
        assert os.path.isfile(out_dir / "scores.csv")

    def test_leaves_user_tmp_dir_alone(self, none_dataset, tmp_path,
                                       capsys):
        # the report is staged in a fresh temporary directory, never in
        # a user's <out>.tmp
        (tmp_path / "rep.tmp").mkdir()
        (tmp_path / "rep.tmp" / "notes.txt").write_text("keep")
        before = set(os.listdir(tmp_path))
        assert self._audit(none_dataset, str(tmp_path / "rep"), capsys)[0] == 0
        assert (tmp_path / "rep.tmp" / "notes.txt").read_text() == "keep"
        assert set(os.listdir(tmp_path)) == before | {"rep"}

    @pytest.mark.parametrize("out", [".", "keep", "afile"])
    def test_existing_path_not_a_report_exit_1(self, out, none_dataset,
                                               tmp_path, capsys,
                                               monkeypatch):
        # the working directory, a directory of other files and a regular
        # file are kept, and the audit does not start
        (tmp_path / "keep").mkdir()
        (tmp_path / "keep" / "notes.txt").write_text("notes")
        (tmp_path / "afile").write_text("data")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")
                  if p.is_file()}
        audits = []
        monkeypatch.setattr(pipeline, "run_audit",
                            lambda *args: audits.append(args))
        monkeypatch.chdir(tmp_path)
        code, _, err = self._audit(none_dataset, out, capsys)
        assert code == 1
        assert "not a report directory" in err
        assert audits == []
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == before


    def test_out_below_regular_file_exit_1(self, none_dataset, tmp_path,
                                           capsys, monkeypatch):
        # refused before any work, not after the whole audit
        (tmp_path / "afile").write_text("data")
        audits = []
        monkeypatch.setattr(pipeline, "run_audit",
                            lambda *args: audits.append(args))
        code, _, err = self._audit(none_dataset,
                                   str(tmp_path / "afile" / "rep"), capsys)
        assert code == 1
        assert "below a non-directory" in err
        assert audits == []
        assert (tmp_path / "afile").read_text() == "data"


class TestReportCommand:
    @pytest.fixture
    def audit_dir(self, none_dataset, tmp_path, capsys):
        out_dir = str(tmp_path / "rep")
        code, _, _ = run_cli(["audit", "--dataset", none_dataset,
                              "--out", out_dir, "--runs", "1",
                              "--epochs", "2", "--methods", "GRAD",
                              "--metrics", "gini"], capsys)
        assert code == 0
        return out_dir

    def test_table(self, audit_dir, capsys):
        code, out, _ = run_cli(["report", audit_dir], capsys)
        assert code == 0
        assert "significant runs" in out

    def test_svg(self, audit_dir, tmp_path, capsys):
        dest = str(tmp_path / "plots")
        code, out, _ = run_cli(["report", audit_dir, "--format", "svg",
                                "--out", dest], capsys)
        assert code == 0
        assert "box_GRAD_gini.svg" in out

    def test_missing_dir_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(["report", str(tmp_path / "nope")], capsys)
        assert code == 2

    def _malformed(self, audit_dir, tmp_path, name, edit, capsys,
                   fmt="table"):
        copy = shutil.copytree(audit_dir, tmp_path / "copy")
        path = copy / name
        path.write_text(edit(path.read_text()))
        code, _, err = run_cli(["report", str(copy), "--format", fmt,
                                "--out", str(tmp_path / "plots")], capsys)
        assert code == 2
        assert "data error: malformed report dir" in err
        assert not os.path.exists(tmp_path / "plots")
        return err

    def test_config_without_methods_exit_2(self, audit_dir, tmp_path,
                                           capsys):
        def drop_methods(text):
            config = json.loads(text)
            del config["config"]["methods"]
            return json.dumps(config)

        err = self._malformed(audit_dir, tmp_path, "config.json",
                              drop_methods, capsys)
        assert "config.methods" in err

    def test_aggregate_not_json_exit_2(self, audit_dir, tmp_path, capsys):
        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              lambda text: text[:len(text) // 2], capsys)
        assert "aggregate.json is not JSON" in err

    def test_aggregate_without_cells_exit_2(self, audit_dir, tmp_path,
                                            capsys):
        def drop_cells(text):
            aggregate = json.loads(text)
            del aggregate["cells"]
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              drop_cells, capsys)
        assert "aggregate.json has no cells" in err

    def test_aggregate_list_exit_2(self, audit_dir, tmp_path, capsys):
        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              lambda text: "[" + text + "]", capsys)
        assert "aggregate.json has no cells" in err

    def test_aggregate_without_n_runs_exit_2(self, audit_dir, tmp_path,
                                             capsys):
        def drop_n_runs(text):
            aggregate = json.loads(text)
            del aggregate["n_runs"]
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              drop_n_runs, capsys)
        assert "aggregate.json has no n_runs" in err

    @pytest.mark.parametrize("key", ["cell", "method", "metric"])
    def test_aggregate_cell_without_key_exit_2(self, audit_dir, tmp_path,
                                               capsys, key):
        def drop_key(text):
            aggregate = json.loads(text)
            del aggregate["cells"][-1][key]
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              drop_key, capsys)
        assert "aggregate.json cell is not an object" in err

    @pytest.mark.parametrize("key, value", [
        ("cell", 5), ("method", ["GRAD"]), ("direction", 1),
        ("significant_runs", "7"), ("considerable_runs", 0.5),
        ("significant_runs", True)])
    def test_aggregate_cell_value_of_wrong_type_exit_2(
            self, audit_dir, tmp_path, capsys, key, value):
        def set_value(text):
            aggregate = json.loads(text)
            aggregate["cells"][-1][key] = value
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              set_value, capsys)
        assert "aggregate.json cell is not an object" in err

    def test_aggregate_string_counts_exit_2(self, audit_dir, tmp_path,
                                            capsys):
        def string_counts(text):
            aggregate = json.loads(text)
            aggregate["n_runs"] = "x"
            for cell in aggregate["cells"]:
                cell["significant_runs"] = 7
                cell["cell"] = "(7) 1.00±0.00"
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              string_counts, capsys)
        assert "aggregate.json has no n_runs count" in err

    def test_aggregate_cells_hold_non_object_exit_2(self, audit_dir,
                                                    tmp_path, capsys):
        def add_number(text):
            aggregate = json.loads(text)
            aggregate["cells"].append(3)
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              add_number, capsys)
        assert "aggregate.json cell is not an object" in err

    def test_config_methods_string_exit_2(self, audit_dir, tmp_path,
                                          capsys):
        def methods_string(text):
            config = json.loads(text)
            config["config"]["methods"] = "GXI"
            return json.dumps(config)

        err = self._malformed(audit_dir, tmp_path, "config.json",
                              methods_string, capsys)
        assert "config.methods" in err

    def test_svg_scores_without_header_exit_2(self, audit_dir, tmp_path,
                                              capsys):
        err = self._malformed(audit_dir, tmp_path, "scores.csv",
                              lambda text: text.split("\n", 1)[1], capsys,
                              fmt="svg")
        assert "pair_id,subgroup,method,metric,value" in err

    @pytest.mark.parametrize("tail", [",high", "", ",inf", ",nan"],
                             ids=["non-numeric", "short", "infinite", "nan"])
    def test_svg_scores_bad_row_exit_2(self, audit_dir, tmp_path, capsys,
                                       tail):
        def edit_line_2(text):  # the first row's value becomes ``tail``
            header, row, rest = text.split("\n", 2)
            return "\n".join([header, row.rsplit(",", 1)[0] + tail, rest])

        err = self._malformed(audit_dir, tmp_path, "scores.csv", edit_line_2,
                              capsys, fmt="svg")
        assert "scores.csv:2 is not 5 fields with an empty or finite" in err

    def test_aggregate_subgroups_string_exit_2(self, audit_dir, tmp_path,
                                               capsys):
        def subgroups_string(text):
            aggregate = json.loads(text)
            aggregate["subgroups"] = "AB"
            return json.dumps(aggregate)

        err = self._malformed(audit_dir, tmp_path, "aggregate.json",
                              subgroups_string, capsys)
        assert "aggregate.json has no subgroup labels" in err

    def test_config_methods_not_names_exit_2(self, audit_dir, tmp_path,
                                             capsys):
        def methods_numbers(text):
            config = json.loads(text)
            config["config"]["methods"] = [1, 2]
            return json.dumps(config)

        err = self._malformed(audit_dir, tmp_path, "config.json",
                              methods_numbers, capsys)
        assert "config.methods" in err

    def test_svg_out_is_file_exit_1(self, audit_dir, tmp_path, capsys,
                                    monkeypatch):
        dest = tmp_path / "afile"
        dest.write_text("data")
        renders = []
        monkeypatch.setattr(report, "render",
                            lambda *args: renders.append(args))
        code, _, err = run_cli(["report", audit_dir, "--format", "svg",
                                "--out", str(dest)], capsys)
        assert code == 1
        assert "not a directory" in err
        assert renders == []
        assert dest.read_text() == "data"


class TestNoStateBetweenAudits:
    def test_second_audit_equals_fresh_process(self, tmp_path, capsys):
        # two datasets audited back to back in one process: the second
        # report equals, byte for byte, the one a fresh process writes,
        # so no state of the first audit outlives its run
        paths = [str(tmp_path / f"d{k}.csv") for k in range(2)]
        for k, injection in enumerate(("none", "length")):
            assert run_cli(["gen-data", "--pairs", "14", "--seed", str(k),
                            "--injection", injection, "--out", paths[k]],
                           capsys)[0] == 0
        args = ["--runs", "1", "--epochs", "3", "--with-sensitivity",
                "--metrics", "comprehensiveness,gini"]
        for k, path in enumerate(paths):
            assert run_cli(["audit", "--dataset", path,
                            "--out", str(tmp_path / f"in{k}"), *args],
                           capsys)[0] == 0
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src")]
            + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
               else [])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from explaudit import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "audit", "--dataset",
             paths[1], "--out", str(tmp_path / "fresh"), *args],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        names = sorted(os.listdir(tmp_path / "fresh"))
        assert names == sorted(os.listdir(tmp_path / "in1"))
        assert filecmp.cmpfiles(tmp_path / "in1", tmp_path / "fresh", names,
                                shallow=False)[0] == names


class TestDatasetOptions:
    @pytest.mark.parametrize("command", ["validate", "audit"])
    def test_shared_defaults_and_choices(self, command):
        extra = ["--out", "rep"] if command == "audit" else []
        parse = cli.build_parser().parse_args
        args = parse([command, "--dataset", "d.csv"] + extra)
        assert (args.dataset, args.format, args.unpaired) == \
            ("d.csv", "csv", False)
        args = parse([command, "--dataset", "d.jsonl", "--format", "jsonl",
                      "--unpaired"] + extra)
        assert (args.format, args.unpaired) == ("jsonl", True)
        with pytest.raises(ConfigError, match="invalid choice"):
            parse([command, "--dataset", "d.csv", "--format", "xml"]
                  + extra)
        with pytest.raises(ConfigError, match="--dataset"):
            parse([command] + extra)


class TestErrorMapping:
    @pytest.mark.parametrize("command", ["validate", "audit"])
    def test_dataset_is_directory_exit_2(self, command, tmp_path, capsys):
        out = str(tmp_path / "rep")
        extra = ["--out", out] if command == "audit" else []
        code, _, err = run_cli([command, "--dataset", str(tmp_path)]
                               + extra, capsys)
        assert code == 2
        assert "dataset file not found" in err
        assert not os.path.exists(out)

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(["audit", "--bogus"], capsys)
        assert code == 1
        assert "config error" in err

    def test_unknown_subcommand_exit_1(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_unknown_method_exit_1(self, none_dataset, tmp_path, capsys):
        code, _, err = run_cli(["audit", "--dataset", none_dataset,
                                "--out", str(tmp_path / "rep"),
                                "--methods", "ANCHOR"], capsys)
        assert code == 1

    def test_duplicate_method_exit_1(self, none_dataset, tmp_path, capsys):
        code, _, err = run_cli(["audit", "--dataset", none_dataset,
                                "--out", str(tmp_path / "rep"),
                                "--methods", "GXI,gxi"], capsys)
        assert code == 1
        assert "duplicate methods" in err

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--seed", "-1"],
        ["gen-data", "--pairs", "0"],
        ["audit", "--seed", "-1"],
        ["audit", "--alpha", "5"],
        ["audit", "--alpha", "nan"],
        ["audit", "--alpha", "-0.5"],
        ["audit", "--d-threshold", "-1"],
        ["audit", "--epochs", "0"],
        ["audit", "--runs", "0"],
    ])
    def test_out_of_range_argument_exit_1(self, argv, none_dataset,
                                          tmp_path, capsys):
        out = str(tmp_path / "out")
        data = [] if argv[0] == "gen-data" else ["--dataset", none_dataset]
        code, _, err = run_cli(argv + data + ["--out", out], capsys)
        assert code == 1
        assert "config error" in err
        assert not os.path.exists(out)

    def test_numerical_failure_exit_3(self, none_dataset, tmp_path, capsys,
                                      monkeypatch):
        def failing_audit(records, cfg):
            attrib.explain("LIME", ConstantModel(np.nan), np.eye(3), 1)

        monkeypatch.setattr(pipeline, "run_audit", failing_audit)
        code, _, err = run_cli(["audit", "--dataset", none_dataset,
                                "--out", str(tmp_path / "rep")], capsys)
        assert code == 3
        assert "non-finite" in err
