import numpy as np
import pytest

from explaudit import dataset as ds
from explaudit import textmodel as tm
from explaudit.errors import ConfigError, DataError


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


CSV_HEADER = "pair_id,subgroup,text,label\n"


class TestLoadPaired:
    def test_single_pair(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "1,MALE,he runs,male\n"
                      + "1,FEMALE,she runs,female\n")
        records = ds.load_paired(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.pair_id == "1"
        assert rec.subgroup_a == "MALE" and rec.text_a == "he runs"
        assert rec.subgroup_b == "FEMALE" and rec.text_b == "she runs"

    def test_subgroup_order_canonical(self, tmp_path):
        # FEMALE listed first in the file still lands in slot B
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "1,FEMALE,she runs,female\n"
                      + "1,MALE,he runs,male\n")
        rec = ds.load_paired(path)[0]
        assert rec.subgroup_a == "MALE"

    def test_duplicate_pair_subgroup_names_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "1,MALE,he runs,male\n"
                      + "1,MALE,he walks,male\n")
        with pytest.raises(DataError, match=":3"):
            ds.load_paired(path)

    @pytest.mark.parametrize("fmt, text", [
        ("csv", CSV_HEADER + "1,MALE,he runs,male\n"
         "1,FEMALE,she runs,female\n"),
        ("jsonl", '{"pair_id": "1", "subgroup": "MALE", "text": '
         '"he runs", "label": "male"}\n{"pair_id": "1", "subgroup": '
         '"FEMALE", "text": "she runs", "label": "female"}\n'),
    ], ids=["csv", "jsonl"])
    def test_byte_order_mark(self, tmp_path, fmt, text):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        path = tmp_path / f"bom.{fmt}"
        path.write_text(text, encoding="utf-8-sig")
        assert ds.load_paired(str(path), fmt) == \
            ds.load_paired(_write(tmp_path / f"plain.{fmt}", text), fmt)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "d.csv",
                      "pair_id,subgroup,text\n1,MALE,he runs\n")
        with pytest.raises(DataError, match="label"):
            ds.load_paired(path)

    def test_empty_text_names_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "1,MALE,he runs,male\n"
                      + "1,FEMALE, ,female\n")
        with pytest.raises(DataError, match=":3"):
            ds.load_paired(path)

    def test_empty_jsonl_text_names_line(self, tmp_path):
        path = _write(tmp_path / "d.jsonl",
                      '{"pair_id": "p1", "subgroup": "MALE", '
                      '"text": "he runs", "label": "male"}\n'
                      '{"pair_id": "p1", "subgroup": "FEMALE", '
                      '"text": " ", "label": "female"}\n')
        for load in (ds.load_paired, ds.load_unpaired):
            with pytest.raises(DataError, match=r"d\.jsonl:2: empty text"):
                load(path, "jsonl")

    def test_odd_variant_count(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "1,MALE,he runs,male\n")
        with pytest.raises(DataError, match="1 variant"):
            ds.load_paired(path)

    def test_jsonl_roundtrip(self, tmp_path):
        records = ds.generate_synthetic_paired(5, seed=1)
        path = tmp_path / "d.jsonl"
        ds.save_paired(records, path, "jsonl")
        back = ds.load_paired(path, "jsonl")
        assert [(r.pair_id, r.text_a, r.text_b) for r in back] == \
            [(r.pair_id, r.text_a, r.text_b) for r in records]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            ds.load_paired(str(tmp_path / "d.xml"), "xml")

    def test_short_csv_row_names_line(self, tmp_path):
        # csv fills the missing fields with None; str(None) is no text
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + "p1,MALE,he runs,male\n"
                      + "p1,FEMALE\n")
        with pytest.raises(DataError, match=r"d\.csv:3: .*'text', 'label'"):
            ds.load_paired(path)

    def test_csv_line_numbers_count_blank_lines(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER + "\n"
                      + "p1,MALE,he runs,male\n"
                      + "p1,FEMALE,she runs\n")
        with pytest.raises(DataError, match=r"d\.csv:4: .*'label'"):
            ds.load_paired(path)

    @pytest.mark.parametrize("line, message", [
        ('{"pair_id": "p1", "subgroup": "FEMALE", "text": null, '
         '"label": "female"}', "missing fields"),
        ('{"pair_id": "p1", "subgroup": "FEMALE", "text": "she runs"}',
         "missing fields"),
        ('{"pair_id": "p1", "subgroup": "FEMALE",', "invalid JSON"),
        ("5", "not a JSON object"),
        ('["p1", "FEMALE", "she runs", "female"]', "not a JSON object"),
    ], ids=["null_value", "missing_key", "invalid_json", "number", "array"])
    def test_bad_jsonl_line_names_line(self, tmp_path, line, message):
        good = ('{"pair_id": "p1", "subgroup": "MALE", "text": "he runs", '
                '"label": "male"}')
        path = _write(tmp_path / "d.jsonl", good + "\n\n" + line + "\n")
        for load in (ds.load_paired, ds.load_unpaired):
            with pytest.raises(DataError, match=rf"d\.jsonl:3: {message}"):
                load(path, "jsonl")


class TestLoadUnpaired:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + ",MALE,5 priors,high\n"
                      + ",FEMALE,0 priors,low\n")
        records = ds.load_unpaired(path)
        assert len(records) == 2
        assert records[0].subgroup == "MALE"
        assert records[1].label == "low"

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER)
        with pytest.raises(DataError, match="no records"):
            ds.load_unpaired(path)

    def test_empty_text_names_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER
                      + ",MALE,5 priors,high\n"
                      + ",FEMALE, ,low\n")
        with pytest.raises(DataError, match=r"d\.csv:3: empty text"):
            ds.load_unpaired(path)

    def test_short_csv_row_names_line(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER + ",MALE,5 priors\n")
        with pytest.raises(DataError, match=r"d\.csv:2: .*'label'"):
            ds.load_unpaired(path)

    def test_unknown_format(self, tmp_path):
        path = _write(tmp_path / "d.csv", CSV_HEADER + ",MALE,5 priors,high\n")
        with pytest.raises(ConfigError, match="unknown format"):
            ds.load_unpaired(path, "xml")


class TestSplit:
    def test_balanced_unpaired_counts(self):
        records = [ds.UnpairedRecord(f"text {i}", "MALE", "high")
                   for i in range(50)]
        records += [ds.UnpairedRecord(f"text {i + 50}", "FEMALE", "low")
                    for i in range(50)]
        part = ds.split(records, ratio=0.8, seed=0)
        assert len(part.train) == 80 and len(part.test) == 20
        for side, expect in ((part.train, 40), (part.test, 10)):
            assert sum(r.label == "high" for r in side) == expect
            assert sum(r.label == "low" for r in side) == expect

    def test_deterministic(self):
        records = ds.generate_synthetic_paired(20, seed=3)
        p1 = ds.split(records, seed=5)
        p2 = ds.split(records, seed=5)
        assert [r.pair_id for r in p1.train] == [r.pair_id for r in p2.train]
        assert [r.pair_id for r in p1.test] == [r.pair_id for r in p2.test]

    def test_pairs_do_not_straddle(self):
        records = ds.generate_synthetic_paired(10, seed=0)
        part = ds.split(records, ratio=0.8, seed=1)
        train_ids = {r.pair_id for r in part.train}
        test_ids = {r.pair_id for r in part.test}
        assert not train_ids & test_ids
        assert len(train_ids) + len(test_ids) == 10

    def test_empty_side_rejected(self):
        records = ds.generate_synthetic_paired(1, seed=0)
        with pytest.raises(DataError):
            ds.split(records, ratio=0.8, seed=0)

    def test_bad_ratio(self):
        records = ds.generate_synthetic_paired(5, seed=0)
        with pytest.raises(ConfigError):
            ds.split(records, ratio=1.0)


def _mask_gender(text):
    return " ".join("_" if t in ds.GENDER_WORDS else t
                    for t in tm.split_text(text))


class TestSyntheticGenerator:
    def test_none_differs_only_in_gender_tokens(self):
        for rec in ds.generate_synthetic_paired(30, "NONE", seed=7):
            assert rec.text_a != rec.text_b
            assert _mask_gender(rec.text_a) == _mask_gender(rec.text_b)

    def test_tied_aliases_make_variants_identical(self):
        aliases = ds.tied_alias_map()
        vocab = tm.build_vocab(
            [t for rec in ds.generate_synthetic_paired(30, seed=2)
             for t in (rec.text_a, rec.text_b)], aliases=aliases)
        for rec in ds.generate_synthetic_paired(30, seed=2):
            ids_a = tm.tokenize(vocab, rec.text_a).ids
            ids_b = tm.tokenize(vocab, rec.text_b).ids
            assert np.array_equal(ids_a, ids_b)

    def test_length_injection(self):
        records = ds.generate_synthetic_paired(50, "LENGTH", seed=0)
        len_a = np.mean([len(r.text_a.split()) for r in records])
        len_b = np.mean([len(r.text_b.split()) for r in records])
        assert len_b > len_a
        for rec in records:
            assert len(rec.text_b.split()) > len(rec.text_a.split())

    def test_noise_injection_changes_non_gender_text(self):
        records = ds.generate_synthetic_paired(20, "NOISE", seed=4)
        assert any(_mask_gender(r.text_a) != _mask_gender(r.text_b)
                   for r in records)

    def test_labels_and_ids(self):
        records = ds.generate_synthetic_paired(10, seed=0)
        assert len({r.pair_id for r in records}) == 10
        assert all(r.label_a == "male" and r.label_b == "female"
                   for r in records)

    def test_deterministic(self):
        a = ds.generate_synthetic_paired(15, "LENGTH", seed=9)
        b = ds.generate_synthetic_paired(15, "LENGTH", seed=9)
        assert [(r.text_a, r.text_b) for r in a] == \
            [(r.text_a, r.text_b) for r in b]

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            ds.generate_synthetic_paired(0)
        with pytest.raises(ConfigError):
            ds.generate_synthetic_paired(5, "SHUFFLE")


class TestTiedAliasMap:
    def test_pronouns_collapse_to_one_token(self):
        aliases = ds.tied_alias_map()
        targets = {aliases.get(p, p) for p in
                   ("he", "she", "him", "his", "her", "hers")}
        assert targets == {"he"}

    def test_noun_pairs_map_female_to_male(self):
        aliases = ds.tied_alias_map()
        assert aliases["woman"] == "man"
        assert aliases["actress"] == "actor"
        assert "man" not in aliases
