import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import ingest_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexicorp
from conftest import dictionary_of, rows_of
from lexicorp import cli
from lexicorp import dictionary as dct
from lexicorp import lexstats
from lexicorp.cli import main
from lexicorp.config import InputError, default_config, load_config
from lexicorp.ingest import _COUNT_FIELDS, _HEADER_ALIASES, CORPUS_HEADER
from lexicorp.manifest import file_digest


def read(path):
    return Path(path).read_text(encoding="utf-8")


def snapshot(root):
    """The bytes of every file under `root`, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


def fail_slope(*args):
    raise ValueError("slope failed")


def fail_on_call(n, write_lines):
    """`write_lines` whose `n`-th call raises OSError after writing one line."""
    calls = itertools.count(1)

    def disk_full():
        raise OSError("disk full")
        yield

    def wrapper(path, lines):
        if next(calls) == n:
            lines = itertools.chain(["partial"], disk_full())
        write_lines(path, lines)
    return wrapper


class TestIngest:
    def test_five_row_fixture(self, export_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["ingest", str(export_file), "--out", str(out)])
        assert rc == 0
        report = dict(
            line.split("\t") for line in read(out / "ingest_report.tsv").splitlines()
        )
        assert report["n_parsed"] == "5"
        assert report["n_after_field_filter"] == "4"
        assert report["n_after_length_filter"] == "3"
        assert report["n_headings_split"] == "1"
        assert report["mean_length"] == "92.667"  # (35 + 200 + 43) / 3
        corpus_lines = read(out / "corpus.tsv").splitlines()
        assert len(corpus_lines) == 4  # header + 3 docs
        assert (out / "manifest.json").exists()
        assert (out / "lengths.csv").exists()

    def test_empty_file(self, tmp_path):
        src = tmp_path / "empty.tsv"
        src.write_text("AU\tTI\tAB\tWC\tSC\tZ9\tTC\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        report = read(out / "ingest_report.tsv")
        assert "n_parsed\t0" in report
        assert read(out / "corpus.tsv").splitlines()[1:] == []

    def test_zero_byte_export_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "zero.tsv"
        src.write_bytes(b"")
        assert main(["ingest", str(src), "--out", str(tmp_path / "out")]) == 2
        assert "no header row" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, export_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["ingest", str(export_file), "--out", str(out1)]) == 0
        assert main(["ingest", str(export_file), "--out", str(out2)]) == 0
        for name in ("corpus.tsv", "ingest_report.tsv", "lengths.csv"):
            assert read(out1 / name) == read(out2 / name)

    def test_missing_input_is_input_error(self, tmp_path):
        rc = main(["ingest", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bom_crlf_export_matches_plain(self, export_file, tmp_path):
        bom = tmp_path / "bom.tsv"
        text = export_file.read_text(encoding="utf-8").replace("\n", "\r\n")
        bom.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert main(["ingest", str(export_file), "--out", str(tmp_path / "plain")]) == 0
        assert main(["ingest", str(bom), "--out", str(tmp_path / "bom")]) == 0
        assert ((tmp_path / "bom" / "corpus.tsv").read_bytes()
                == (tmp_path / "plain" / "corpus.tsv").read_bytes())

    def test_crlf_and_lone_cr_export_pins_error_lines(self, tmp_path):
        good = "A\tT\t" + "word " * 40 + "\tP\tS\t0\t0"
        lines = ["AU\tTI\tAB\tWC\tSC\tZ9\tTC", good, "short\trow", good, "",
                 "A\tT\tx\tP\tS\tmany\t0", good, "bad"]
        mixed, plain = tmp_path / "mixed.tsv", tmp_path / "plain.tsv"
        eols = ["\r\n", "\r", "\r\n", "\n", "\r", "\r\n", "\r", ""]
        mixed.write_bytes("".join(map(str.__add__, lines, eols)).encode("utf-8"))
        plain.write_bytes("\n".join(lines).encode("utf-8"))
        for src in (mixed, plain):
            out = tmp_path / src.stem
            assert main(["ingest", str(src), "--out", str(out)]) == 0
            assert read(out / "ingest_errors.log") == (
                "line 3\texpected 7 columns, got 2\n"
                "line 6\tnon-integer value 'many' in column total_times_cited\n"
                "line 8\texpected 7 columns, got 1\n")
            assert "n_parsed\t3\n" in read(out / "ingest_report.tsv")
        assert ((tmp_path / "mixed" / "corpus.tsv").read_bytes()
                == (tmp_path / "plain" / "corpus.tsv").read_bytes())

    @pytest.mark.parametrize("header", ["AU\tTI\tAB\tWC\tSC\tZ9", "X\tY\tZ\tW\tV\tU\tT"])
    def test_bad_header_is_input_error(self, tmp_path, header, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text(header + "\n", encoding="utf-8")
        assert main(["ingest", str(src), "--out", str(tmp_path / "o")]) == 2
        assert "missing required columns" in capsys.readouterr().err

    def test_malformed_rows_warn_but_succeed(self, tmp_path, capsys):
        src = tmp_path / "rows.tsv"
        src.write_text(
            "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"
            "A\tT\t" + "word " * 40 + "\tP\tS\t0\t0\n"
            "short\trow\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        assert "1 malformed row" in capsys.readouterr().err
        assert (out / "ingest_errors.log").exists()

    def test_rerun_without_errors_removes_the_error_log(self, tmp_path):
        good = "A\tT\t" + "word " * 40 + "\tP\tS\t0\t0\n"
        bad, clean = tmp_path / "bad.tsv", tmp_path / "clean.tsv"
        bad.write_text("AU\tTI\tAB\tWC\tSC\tZ9\tTC\n" + good + "short\trow\n" + good,
                       encoding="utf-8")
        clean.write_text("AU\tTI\tAB\tWC\tSC\tZ9\tTC\n" + good + good, encoding="utf-8")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["ingest", str(bad), "--out", str(out)]) == 0
        assert read(out / "ingest_errors.log") == "line 3\texpected 7 columns, got 2\n"
        assert main(["ingest", str(clean), "--out", str(out)]) == 0
        assert main(["ingest", str(clean), "--out", str(fresh)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir()) == [
            "corpus.tsv", "ingest_report.tsv", "lengths.csv", "manifest.json"]


    @pytest.mark.parametrize("command", ["ingest", "pipeline"])
    @pytest.mark.parametrize("bounds,refused", [
        (["--min-len", "600"], "--min-len 600 exceeds --max-len 500"),  # the default --max-len
        (["--min-len", "50", "--max-len", "40"], "--min-len 50 exceeds --max-len 40"),
        (["--min-len", "-5"], "'--min-len'"),
        (["--max-len", "0"], "'--max-len'"),
    ], ids=["bounds0", "bounds1", "bounds2", "bounds3"])
    def test_bad_length_bounds_are_usage_errors(self, tmp_path, command, bounds, refused,
                                                capsys):
        # the export does not exist: the bounds are refused before any file is read
        out = tmp_path / "o"
        rc = main([command, str(tmp_path / "no.tsv"), *bounds, "--out", str(out)])
        assert rc == 1
        assert refused in capsys.readouterr().err
        assert not out.exists()

    def test_substitution_key_without_hyphen_is_input_error(self, export_file, tmp_path,
                                                            capsys):
        cfg = tmp_path / "cfg"
        cfg.mkdir()
        (cfg / "substitutions.tsv").write_text("foo\tbar\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["ingest", str(export_file), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg / "substitutions.tsv") in err and "'foo'" in err
        assert not out.exists()

    def test_failed_write_keeps_previous_output(self, export_file, tmp_path, monkeypatch,
                                                capsys):
        from lexicorp import ingest
        out = tmp_path / "out"
        assert main(["ingest", str(export_file), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail(records, stream):
            stream.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(ingest, "write_corpus", fail)
        capsys.readouterr()
        assert main(["ingest", str(export_file), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_below_a_regular_file_is_input_error(self, export_file, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("x", encoding="utf-8")
        assert main(["ingest", str(export_file), "--out", str(afile / "sub")]) == 2
        assert "input error" in capsys.readouterr().err
        assert afile.read_text(encoding="utf-8") == "x"

    def test_decode_error_leaves_no_new_directory(self, tmp_path, capsys):
        src = tmp_path / "export.tsv"
        line = "A\tT\t" + "word " * 40 + "\tP\tS\t0\t0\n"
        # The bad byte comes after many kept records, so some are written first.
        src.write_bytes(("AU\tTI\tAB\tWC\tSC\tZ9\tTC\n" + line * 500).encode()
                        + b"A\tT\tbad \xff byte\tP\tS\t0\t0\n")
        out = tmp_path / "a" / "b"
        assert main(["ingest", str(src), "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()
        assert not list(tmp_path.rglob("corpus.tsv*"))


class TestBuildAndPrune:
    def build_fixture(self, tmp_path):
        src = tmp_path / "corpus_src.tsv"
        rows = ["AU\tTI\tAB\tWC\tSC\tZ9\tTC"]
        # two documents with known token content (pipeline passes digit words)
        rows.append("A\tT1\t" + "alpha " * 20 + "w1 w1 w2" + "\tP\tS\t0\t0")
        rows.append("A\tT2\t" + "alpha " * 20 + "w1 w3" + "\tP\tS\t0\t0")
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "ing"
        assert main(["ingest", str(src), "--min-len", "5", "--out", str(out)]) == 0
        return out / "corpus.tsv"

    def test_build_matches_hand_count(self, tmp_path):
        corpus = self.build_fixture(tmp_path)
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", str(corpus), "--out", str(dict_path)]) == 0
        d = dct.load(dict_path)
        by_word = {w: (doc, corpus) for w, doc, corpus in rows_of(d)}
        assert by_word["alpha"] == (2, 40)
        assert by_word["w1"] == (2, 3)
        assert by_word["w2"] == (1, 1)
        assert by_word["w3"] == (1, 1)

    def test_build_rerun_byte_identical(self, tmp_path):
        corpus = self.build_fixture(tmp_path)
        p1, p2 = tmp_path / "d1.tsv", tmp_path / "d2.tsv"
        assert main(["build", str(corpus), "--out", str(p1)]) == 0
        assert main(["build", str(corpus), "--out", str(p2)]) == 0
        assert read(p1) == read(p2)

    def test_corpus_id_is_sha256_prefix(self, tmp_path):
        corpus = self.build_fixture(tmp_path)
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", str(corpus), "--out", str(dict_path)]) == 0
        digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
        assert f"corpus={digest[:12]}" in read(dict_path).splitlines()[0].split()

    def test_malformed_last_line_is_input_error(self, tmp_path, capsys):
        corpus = self.build_fixture(tmp_path)
        with open(corpus, "a", encoding="utf-8") as f:
            f.write("A\tT3\tw1 w2\tP\tS\tmany\t0\n")
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", str(corpus), "--out", str(dict_path)]) == 2
        assert "line 4: malformed corpus file: non-integer value" in capsys.readouterr().err
        assert not dict_path.exists()
        assert not Path(str(dict_path) + ".skipped.log").exists()

    def test_all_stopword_abstract_ledgered(self, tmp_path, capsys):
        src = tmp_path / "stop.tsv"
        src.write_text(
            "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"
            "A\tGood\t" + "w1 " * 30 + "\tP\tS\t0\t0\n"
            "A\tStops\t" + "the and or " * 10 + "\tP\tS\t0\t0\n",
            encoding="utf-8",
        )
        out = tmp_path / "ing"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        dict_path = tmp_path / "dict.tsv"
        assert main(["build", str(out / "corpus.tsv"), "--out", str(dict_path)]) == 0
        assert "no tokens" in read(str(dict_path) + ".skipped.log")
        d = dct.load(dict_path)
        assert d.words() == ["w1"]

    def test_rerun_without_empty_documents_removes_the_skipped_log(self, tmp_path):
        header = "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"
        good = "A\tGood\t" + "w1 " * 30 + "\tP\tS\t0\t0\n"
        empty, clean = tmp_path / "empty.tsv", tmp_path / "clean.tsv"
        empty.write_text(header + "A\tEmpty\tthe and or\tP\tS\t0\t0\n" + good, encoding="utf-8")
        clean.write_text(header + good, encoding="utf-8")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        dict_path, fresh_path = out / "d.tsv", fresh / "d.tsv"
        assert main(["build", str(empty), "--out", str(dict_path)]) == 0
        assert read(str(dict_path) + ".skipped.log") == "record 1\tno tokens after processing\tEmpty\n"
        assert main(["build", str(clean), "--out", str(dict_path)]) == 0
        assert main(["build", str(clean), "--out", str(fresh_path)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir()) == [
            "d.tsv", "d.tsv.manifest.json"]
        assert dict_path.read_bytes() == fresh_path.read_bytes()

    def test_failing_rerun_keeps_the_previous_set(self, tmp_path, monkeypatch, capsys):
        header = "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"
        good = "A\tGood\t" + "w1 " * 30 + "\tP\tS\t0\t0\n"
        empty, clean = tmp_path / "empty.tsv", tmp_path / "clean.tsv"
        empty.write_text(header + "A\tEmpty\tthe and or\tP\tS\t0\t0\n" + good, encoding="utf-8")
        clean.write_text(header + good, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["build", str(empty), "--out", str(out / "d.tsv")]) == 0
        before = snapshot(out)
        assert sorted(before) == ["d.tsv", "d.tsv.manifest.json", "d.tsv.skipped.log"]
        real_save = dct.save

        def save_then_fail(d, path):
            real_save(d, path)
            raise OSError("disk full")

        monkeypatch.setattr(dct, "save", save_then_fail)
        assert main(["build", str(clean), "--out", str(out / "d.tsv")]) == 2
        assert "disk full" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_prune_threshold_semantics(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        rows = [(f"w{c}", c, c) for c in (12, 10, 3)]
        dct.save(dictionary_of(rows), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--threshold", "10", "--out", str(out)]) == 0
        pruned = dct.load(out)
        assert pruned.words() == ["w12"]
        assert pruned.provenance.threshold == 10

    def test_prune_in_place_records_the_digest_it_read(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([("w12", 12, 12), ("w3", 3, 3)]), dict_path)
        before = file_digest(dict_path)
        assert main(["prune", str(dict_path), "--out", str(dict_path)]) == 0
        inputs = json.loads(read(str(dict_path) + ".manifest.json"))["inputs"]
        assert inputs == {str(dict_path): before} and file_digest(dict_path) != before

    def test_prune_default_threshold_is_ten(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        rows = [(f"w{c:02d}", c, c) for c in (11, 10, 9)]
        dct.save(dictionary_of(rows), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--out", str(out)]) == 0
        assert dct.load(out).words() == ["w11"]

    def test_prune_zero_copies(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([("a", 1, 2)]), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--threshold", "0", "--out", str(out)]) == 0
        assert rows_of(dct.load(out)) == rows_of(dct.load(dict_path))

    def test_prune_negative_threshold_usage_error(self, tmp_path, capsys):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([("a", 1, 2)]), dict_path)
        rc = main(["prune", str(dict_path), "--threshold", "-1",
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert "'--threshold'" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()

    def test_help_shows_default_and_range(self, capsys):
        assert main(["prune", "--help"]) == 0
        assert "[default: 10; x>=0]" in " ".join(capsys.readouterr().out.split())

    def test_corrupt_dictionary_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#lexicorp-dict v1 threshold=0 config=c\nw\tx\t3\n", encoding="utf-8")
        rc = main(["prune", str(bad), "--out", str(tmp_path / "p.tsv")])
        assert rc == 2

    def test_count_above_int64_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "big.tsv"
        bad.write_text("#lexicorp-dict v1 threshold=0 config=c\n"
                       "w\t1\t99999999999999999999\n", encoding="utf-8")
        assert main(["prune", str(bad), "--out", str(tmp_path / "p.tsv")]) == 2
        assert "line 2: count out of range" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()


def corpus_cells(name):
    """Cells of one column of a corpus file, some malformed or not canonical."""
    if name == "abstract":
        return st.sampled_from(["", "w1 w2 w1", " alpha beta gamma ", "the and or",
                                "Tau x-ray Ünïcode reductions", "ConclusionHigher tau"])
    if name == "title":
        return st.sampled_from(["", "T", " A title ", "Ünïcode title"])
    if name in _COUNT_FIELDS:
        return st.sampled_from(["0", "3", "", " 7 ", "+2", "\u0663"] * 4 + ["many", "-3"])
    return st.sampled_from(["", "P", "Physics; Optics", " a ;; b "])


@st.composite
def corpus_files(draw):
    """A corpus file: its header, rows and blank lines, a BOM or CRLF line ends."""
    header = draw(st.sampled_from([CORPUS_HEADER, "AU\tTI\tAB\tWC\tSC\tZ9\tTC",
                                   "AU\tTI\tAB\tWC\tSC\tTC\tZ9"]))
    names = [_HEADER_ALIASES[c.lower()] for c in header.split("\t")]
    lines = [header]
    for kind in draw(st.lists(st.sampled_from(["row"] * 8 + ["blank", "short", "long", "bad"]),
                              max_size=6)):
        if kind == "row":
            lines.append("\t".join(draw(corpus_cells(n)) for n in names))
        elif kind == "bad":  # both counts malformed: the first in the header is reported
            lines.append("\t".join(draw(st.sampled_from(["many", "-3"])) if n in _COUNT_FIELDS
                                    else "x" for n in names))
        elif kind == "blank":
            lines.append("")
        else:
            lines.append("\t".join(["x"] * (8 if kind == "long" else 5)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return ("\ufeff" if draw(st.booleans()) else "") + eol.join(lines) + eol


@settings(max_examples=200, deadline=None)
@given(text=corpus_files())
def test_build_matches_the_raw_record_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        corpus, dict_path = Path(tmp, "corpus.tsv"), Path(tmp, "out", "d.tsv")
        corpus.write_bytes(text.encode("utf-8"))
        try:
            want = reference.build_dictionary(corpus, file_digest(corpus)[:12], default_config())
        except InputError as e:
            want = e
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["build", str(corpus), "--out", str(dict_path)])
        if isinstance(want, InputError):
            assert (rc, err.getvalue()) == (2, f"input error: {want}\n")
            assert not dict_path.exists()
        else:
            dictionary_text, skipped = want
            assert rc == 0
            assert dict_path.read_bytes() == dictionary_text.encode("utf-8")
            skipped_log = Path(str(dict_path) + ".skipped.log")
            assert (read(skipped_log) if skipped_log.exists() else None) == skipped


class TestStats:
    def test_exact_power_law_dictionary(self, tmp_path):
        # doc counts at powers of two make the tail exactly 4096/x
        rows = []
        for k in range(1, 13):
            for i in range(2 ** (12 - k)):
                c = 2**k
                rows.append((f"w{k}_{i}", c, c))
        rows.append(("wtop", 2**13, 2**13))
        rows.extend((f"rare{i}", 1, 1) for i in range(100))
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of(rows), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--out", str(out)]) == 0
        summary = dict(
            line.split("\t") for line in read(out / "pareto_fit.txt").splitlines()
        )
        assert abs(float(summary["alpha"]) - 1.0) < 1e-6
        assert abs(float(summary["beta"]) - 4096.0) < 1e-3
        assert float(summary["mse"]) < 1e-9

    def test_fit_summary_echoes_range(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        doc_counts = [1] * 30 + [2] * 14 + [3] * 6 + [5] * 3 + [9, 9, 20]
        rows = [(f"w{i}", c, c) for i, c in enumerate(doc_counts)]
        dct.save(dictionary_of(rows), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--range", "1:9", "--out", str(out)]) == 0
        summary = read(out / "pareto_fit.txt")
        assert "requested_range\t1:9" in summary
        assert "alpha\t" in summary

    def test_three_entry_dictionary_csvs(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        rows = [("a", 3, 4), ("b", 2, 2), ("c", 1, 1)]
        dct.save(dictionary_of(rows), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--out", str(out)]) == 0
        assert read(out / "histogram.csv").splitlines() == [
            "documents,words", "1,1", "2,1", "3,1"]
        assert read(out / "cumulative.csv").splitlines() == [
            "documents,words_at_or_below", "1,1", "2,2", "3,3"]
        tail_lines = read(out / "tail.csv").splitlines()
        assert tail_lines[0] == "documents,words_above,fitted"
        assert tail_lines[1].startswith("1,2")
        assert tail_lines[3].startswith("3,0")
        # only 2 positive tail points: fit reports unavailable
        assert "unavailable" in read(out / "pareto_fit.txt")

    def test_empty_dictionary_is_input_error(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([]), dict_path)
        assert main(["stats", str(dict_path), "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("fit_range", ["10:1", "5:5", "nan:3"])
    def test_empty_range_is_usage_error(self, tmp_path, fit_range, capsys):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([("a", 3, 4)]), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--range", fit_range, "--out", str(out)]) == 1
        assert fit_range in capsys.readouterr().err
        assert not out.exists()

    def power_law_dictionary(self, path, n_rare):
        """A dictionary whose tail fit succeeds, so stats goes on to the log-log slope."""
        rows = [(f"w{k}_{i}", 2**k, 2**k) for k in range(1, 13) for i in range(2 ** (12 - k))]
        dct.save(dictionary_of(rows + [(f"rare{i}", 1, 1) for i in range(n_rare)]), path)

    def test_failure_leaves_no_new_directory(self, tmp_path, monkeypatch, capsys):
        dict_path = tmp_path / "d.tsv"
        self.power_law_dictionary(dict_path, 100)
        monkeypatch.setattr(lexstats, "loglog_slope", fail_slope)
        assert main(["stats", str(dict_path), "--out", str(tmp_path / "a" / "b")]) == 3
        assert "slope failed" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_failing_rerun_keeps_the_previous_set(self, tmp_path, monkeypatch):
        dict_path, out = tmp_path / "d.tsv", tmp_path / "stats"
        self.power_law_dictionary(dict_path, 100)
        assert main(["stats", str(dict_path), "--out", str(out)]) == 0
        before = snapshot(out)
        assert len(before) == 6
        self.power_law_dictionary(dict_path, 1)
        monkeypatch.setattr(lexstats, "loglog_slope", fail_slope)
        assert main(["stats", str(dict_path), "--out", str(out)]) == 3
        assert snapshot(out) == before


class TestCompare:
    def make_inputs(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        rows = [(w, 20 - i, 25 - i) for i, w in enumerate("abcdefghij")]
        dct.save(dictionary_of(rows), dict_path)
        wl_path = tmp_path / "wl.csv"
        wl_path.write_text(
            "headword,sfi\nb,90\na,80\nc,70\nf,60\ne,50\nd,40\nzz,30\n",
            encoding="utf-8",
        )
        return dict_path, wl_path

    def test_toy_comparison(self, tmp_path):
        dict_path, wl_path = self.make_inputs(tmp_path)
        out = tmp_path / "cmp"
        rc = main(["compare", str(dict_path), str(wl_path),
                   "--widths", "2,6", "--tops", "2,6", "--out", str(out)])
        assert rc == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["coverage_count"] == 6
        assert summary["missing_words"] == ["zz"]
        assert summary["top_overlap"]["2"] == 2
        assert summary["bottom_overlap"]["2"] == 1
        assert summary["interval_overlap_pct"]["2"] == pytest.approx(66.7)
        assert summary["interval_overlap_pct"]["6"] == 100.0
        assert (out / "correlations.tsv").exists()
        assert "c\t3" in read(out / "same_rank.tsv")

    def test_tops_above_the_common_words_warn(self, tmp_path, caplog):
        dict_path, wl_path = self.make_inputs(tmp_path)
        out = tmp_path / "cmp"
        with caplog.at_level("WARNING"):
            assert main(["compare", str(dict_path), str(wl_path),
                         "--tops", "1000,2,7", "--out", str(out)]) == 0
        assert caplog.messages == ["top/bottom size 7 dropped: only 6 common words",
                                   "top/bottom size 1000 dropped: only 6 common words"]
        assert read(out / "top_bottom_overlap.tsv") == "n\ttop_common\tbottom_common\n2\t2\t1\n"
        summary = json.loads(read(out / "summary.json"))
        assert summary["top_overlap"] == {"2": 2} and summary["bottom_overlap"] == {"2": 1}

    @pytest.mark.parametrize("sfi", ["nan", "-inf", "1e999"])
    def test_non_finite_sfi_is_input_error(self, tmp_path, sfi, capsys):
        dict_path, wl_path = self.make_inputs(tmp_path)
        wl_path.write_text(f"headword,sfi\nb,90\na,{sfi}\n", encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 2
        assert "row 3: sfi" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_missing_sfi_column_still_covers(self, tmp_path, caplog):
        dict_path, _ = self.make_inputs(tmp_path)
        wl_path = tmp_path / "plain.csv"
        wl_path.write_text("word\na\nb\nzz\n", encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["coverage_count"] == 2
        assert summary["src"] is None

    def test_some_stems_without_sfi_warn_with_count(self, tmp_path, caplog):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([(w, dc, dc + 1) for w, dc in
                                (("analysi", 9), ("model", 7), ("data", 5), ("the", 2))]),
                 dict_path)
        wl_path = tmp_path / "wl.csv"
        wl_path.write_text("headword,sfi\nanalysis,40\nmodel,50\ndata,\n", encoding="utf-8")
        out = tmp_path / "cmp"
        with caplog.at_level("WARNING"):
            assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        assert caplog.messages == [
            "1 of 3 stems have no frequency index (data); rank analyses skipped"]
        assert read(out / "correlations.tsv") == "test\tstatistic\n"
        assert read(out / "last_position.tsv") == "list_fragment\tlast_position\tpct_of_dictionary\n"

    def test_outputs_leave_no_temporary_files(self, tmp_path):
        dict_path, wl_path = self.make_inputs(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "correlations.tsv", "coverage.tsv", "fragments.tsv", "interval_overlaps.tsv",
            "last_position.tsv", "manifest.json", "same_rank.tsv", "summary.json",
            "top_bottom_overlap.tsv"]

    @pytest.mark.parametrize("rows,nulls,kept", [
        # an sfi of 0 leaves only the log correlation undefined
        ("analysis,0\nmodel,50\ndata,30\n", ["pcc_log"], ["PCC", "SRC"]),
        # one common word leaves every correlation undefined
        ("model,50\nzzz,30\n", ["src", "pcc", "pcc_log"], []),
    ])
    def test_undefined_correlation_is_null_and_every_table_written(
            self, tmp_path, rows, nulls, kept, caplog):
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([(w, dc, dc + 1) for w, dc in
                                (("analysi", 9), ("model", 7), ("data", 5), ("result", 2))]),
                 dict_path)
        wl_path = tmp_path / "wl.csv"
        wl_path.write_text("headword,sfi\n" + rows, encoding="utf-8")
        out = tmp_path / "cmp"
        with caplog.at_level("WARNING"):
            assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "correlations.tsv", "coverage.tsv", "fragments.tsv", "interval_overlaps.tsv",
            "last_position.tsv", "manifest.json", "same_rank.tsv", "summary.json",
            "top_bottom_overlap.tsv"]
        summary = json.loads(read(out / "summary.json"))
        assert [k for k in ("src", "pcc", "pcc_log") if summary[k] is None] == nulls
        assert [line.split("\t")[0] for line in read(out / "correlations.tsv").splitlines()[1:]] \
            == kept
        assert [m.split(" ")[0] for m in caplog.messages if "unavailable" in m] == nulls

    @pytest.mark.parametrize("header", ["", "headword,sfi\n"])
    def test_word_list_bom_is_ignored(self, tmp_path, header):
        dict_path, _ = self.make_inputs(tmp_path)
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            wl_path = tmp_path / f"wl{len(bom)}.csv"
            wl_path.write_bytes(bom + f"{header}b,90\na,80\nc,70\nzz,30\n".encode())
            out = tmp_path / f"cmp{len(bom)}"
            assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "manifest.json"})
        assert outputs[0] == outputs[1]
        assert b"missing\tzz\n" in outputs[1]["coverage.tsv"]
        assert json.loads(outputs[1]["summary.json"])["coverage_count"] == 3

    def test_failing_rerun_keeps_the_previous_set(self, tmp_path, monkeypatch, capsys):
        dict_path, wl_path = self.make_inputs(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        before = snapshot(out)
        wl_path.write_text("headword,sfi\na,90\nb,80\nyy,70\n", encoding="utf-8")
        monkeypatch.setattr(cli, "write_lines", fail_on_call(5, cli.write_lines))
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_manifest_records_the_dictionary_config_hash(self, tmp_path):
        dict_path, wl_path = self.make_inputs(tmp_path)
        dct.save(dictionary_of([("a", 2, 3)], dct.Provenance(config_hash="0123abcd4567")),
                 dict_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["config_hash"] == "0123abcd4567"
        assert list(manifest["inputs"]) == [str(dict_path), str(wl_path)]

    def test_empty_dictionary_is_input_error(self, tmp_path, capsys):
        # A fragment of size 0 would follow, a size that --fragments refuses.
        _, wl_path = self.make_inputs(tmp_path)
        dict_path, out = tmp_path / "empty.tsv", tmp_path / "c"
        dct.save(dictionary_of([]), dict_path)
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 2
        assert "input error: empty dictionary" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_word_list_is_input_error(self, tmp_path):
        dict_path, _ = self.make_inputs(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("headword,sfi\n", encoding="utf-8")
        rc = main(["compare", str(dict_path), str(empty), "--out", str(tmp_path / "c")])
        assert rc == 2

    @pytest.mark.parametrize("option,value", [("--widths", "5,0"), ("--tops", "2,-1"),
                                              ("--fragments", "5,0")])
    def test_out_of_range_sizes_are_usage_errors(self, tmp_path, option, value, capsys):
        # the inputs do not exist: the sizes are refused before any file is read
        out = tmp_path / "c"
        rc = main(["compare", str(tmp_path / "no.tsv"), str(tmp_path / "no.csv"),
                   option, value, "--out", str(out)])
        assert rc == 1
        assert f"'{option}'" in capsys.readouterr().err
        assert not out.exists()


class TestTableBytes:
    """The exact bytes of every table the commands write on small fixtures.
    The expected texts were taken from the code before the tables shared
    one line writer; manifest.json holds a timestamp and is left out."""

    def written(self, out):
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(out).iterdir())
                if p.name != "manifest.json"}

    def test_ingest_and_build_tables(self, tmp_path):
        src = tmp_path / "e.tsv"
        src.write_text(
            "AU\tTI\tAB\tWC\tSC\tZ9\tTC\n"
            "A\tGood\t" + "w1 " * 30 + "\tP\tS\t0\t0\n"
            "short\trow\n"
            "A\tStops\t" + "the and or " * 10 + "\tP\tS\t0\t0\n"
            "A\tMore\t" + "w2 " * 31 + "\tP\tS\t0\t0\n"
            "A\tB\tC\n", encoding="utf-8")
        out = tmp_path / "ing"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        got = self.written(out)
        assert got["lengths.csv"] == "length,documents\n30,2\n31,1\n"
        assert got["ingest_errors.log"] == ("line 3\texpected 7 columns, got 2\n"
                                            "line 6\texpected 7 columns, got 3\n")
        assert got["ingest_report.tsv"] == (
            "n_parsed\t3\nn_after_field_filter\t3\nn_after_length_filter\t3\n"
            "n_headings_split\t0\nmean_length\t30.333\n")
        dict_path = tmp_path / "d.tsv"
        assert main(["build", str(out / "corpus.tsv"), "--out", str(dict_path)]) == 0
        assert (read(str(dict_path) + ".skipped.log")
                == "record 2\tno tokens after processing\tStops\n")

    def test_stats_tables(self, tmp_path):
        doc_counts = [1] * 30 + [2] * 14 + [3] * 6 + [5] * 3 + [9, 9, 20]
        dict_path = tmp_path / "d.tsv"
        dct.save(dictionary_of([(f"w{i}", c, c + 1)
                                for i, c in enumerate(doc_counts)]), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--out", str(out)]) == 0
        assert self.written(out) == {
            "cumulative.csv": "documents,words_at_or_below\n"
                              "1,30\n2,44\n3,50\n5,53\n9,55\n20,56\n",
            "histogram.csv": "documents,words\n1,30\n2,14\n3,6\n5,3\n9,2\n20,1\n",
            "pareto_fit.txt": "requested_range\tfull positive tail\nalpha\t1.266414\n"
                              "beta\t26.231905\nmse\t0.418451\nfit_range\t1:9\nx_m\t1\n"
                              "n_points\t5\nloglog_slope\t-1.483122\n",
            "tail.csv": "documents,words_above,fitted\n1,26,26.231905\n2,12,10.904384\n"
                        "3,6,6.525242\n5,3,3.416994\n9,1,1.623168\n20,0,0.590455\n",
            "tail_loglog.csv": "documents,words_above,log_documents,log_words_above\n"
                               "1,26,0.000000000,3.258096538\n"
                               "2,12,0.693147181,2.484906650\n"
                               "3,6,1.098612289,1.791759469\n"
                               "5,3,1.609437912,1.098612289\n"
                               "9,1,2.197224577,0.000000000\n",
        }

    def test_compare_tables(self, tmp_path):
        dict_path, wl_path = TestCompare().make_inputs(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--widths", "4,2,6",
                     "--tops", "6,0,2", "--fragments", "3,5,10", "--out", str(out)]) == 0
        got = self.written(out)
        text = got.pop("summary.json")
        summary = json.loads(text)
        assert text == json.dumps(summary, indent=2) + "\n"
        # np.log may differ in the last bit between CPUs, so PCC-log is compared
        # to 12 places; every other value is exact.
        assert summary.pop("pcc_log") == pytest.approx(0.6480524511499637, abs=1e-12)
        assert list(summary.items()) == [
            ("headwords", 7), ("stems", 7), ("dictionary_words", 10), ("coverage_count", 6),
            ("coverage_pct", 85.7), ("missing_words", ["zz"]),
            ("src", 0.7142857142857143), ("pcc", 0.7142857142857143),
            ("same_rank_count", 2),
            ("top_overlap", {"0": 0, "2": 2, "6": 6}),
            ("bottom_overlap", {"0": 0, "2": 1, "6": 6}),
            ("interval_overlap_pct", {"2": 66.7, "4": 66.7, "6": 100.0}),
        ]
        assert list(summary["top_overlap"]) == list(summary["bottom_overlap"]) == ["0", "2", "6"]
        assert got == {
            "correlations.tsv": "test\tstatistic\nPCC\t0.71\nSRC\t0.71\nPCC-log\t0.65\n",
            "coverage.tsv": "headwords\tstems\tcovered\tcoverage_pct\n7\t7\t6\t85.7%\n"
                            "missing\tzz\n",
            "fragments.tsv": "fragment_size\tfound\tpct\tnewly_added\n3\t3\t42.9%\ta, b, c\n"
                             "5\t5\t71.4%\td, e\n10\t6\t85.7%\tf\n",
            "interval_overlaps.tsv": "width\tintervals\toverlap_pct\n2\t3\t66.7%\n"
                                     "4\t2\t66.7%\n6\t1\t100.0%\n",
            "last_position.tsv": "list_fragment\tlast_position\tpct_of_dictionary\n"
                                 "6\t6\t60.0%\n",
            "same_rank.tsv": "word\tposition\nc\t3\ne\t5\n",
            "top_bottom_overlap.tsv": "n\ttop_common\tbottom_common\n0\t0\t0\n2\t2\t1\n"
                                      "6\t6\t6\n",
        }


class TestGen:
    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["gen", "--docs", "5", "--vocab", "50", "--seed", "9"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert read(p1) == read(p2)

    def test_zero_docs_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--docs", "0", "--out", str(tmp_path / "x.tsv")]) == 1
        assert "'--docs'" in capsys.readouterr().err

    @pytest.mark.parametrize("zipf", ["-1", "nan"])
    def test_bad_zipf_usage_error_writes_nothing(self, tmp_path, zipf, capsys):
        out = tmp_path / "x.tsv"
        assert main(["gen", "--docs", "5", "--zipf", zipf, "--out", str(out)]) == 1
        assert "'--zipf'" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_generator_leaves_no_directory(self, tmp_path, monkeypatch, capsys):
        def one_then_fail(*args):
            yield ["w1"] * 3
            raise ValueError("generator failed")

        monkeypatch.setattr(lexstats, "gen_synthetic_corpus", one_then_fail)
        assert main(["gen", "--docs", "5", "--out", str(tmp_path / "a" / "b" / "x.tsv")]) == 3
        assert "generator failed" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("block", [1, 7])
    def test_drawing_in_blocks_keeps_the_corpus(self, tmp_path, block):
        args = ["gen", "--docs", "20", "--vocab", "30", "--length", "12", "--seed", "4", "--out"]
        assert main(args + [str(tmp_path / "default.tsv")]) == 0
        with mock.patch.object(lexstats, "_GEN_BLOCK", block):
            assert main(args + [str(tmp_path / "blocks.tsv")]) == 0
        assert read(tmp_path / "blocks.tsv") == read(tmp_path / "default.tsv")

    def test_corpus_bytes_pinned(self, tmp_path):
        # Written by the generator that drew all documents in one call;
        # 2,500 documents span three blocks of the default size.
        out = tmp_path / "synth.tsv"
        assert main(["gen", "--docs", "2500", "--vocab", "300", "--length", "40",
                     "--zipf", "1.1", "--seed", "5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5a59547b552dcea6801d5a7d5ef7134d7284dc4b821eab89578433a66a621a98")

    def test_manifest_records_the_argv_main_parsed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "tests/"])
        args = ["gen", "--docs", "3", "--vocab", "10", "--seed", "2",
                "--out", str(tmp_path / "a.tsv")]
        assert main(args) == 0
        assert json.loads(read(tmp_path / "a.tsv.manifest.json"))["command"] == args
        # Without an argv, `main` parses the process's own arguments.
        args[-1] = str(tmp_path / "b.tsv")
        monkeypatch.setattr(sys, "argv", ["lexicorp", *args])
        assert main() == 0
        assert json.loads(read(tmp_path / "b.tsv.manifest.json"))["command"] == args

    def test_generated_corpus_builds(self, tmp_path):
        corpus = tmp_path / "synth.tsv"
        assert main(["gen", "--docs", "8", "--vocab", "40", "--length", "50",
                     "--seed", "3", "--out", str(corpus)]) == 0
        dict_path = tmp_path / "d.tsv"
        assert main(["build", str(corpus), "--out", str(dict_path)]) == 0
        assert len(dct.load(dict_path)) > 0


class TestDumpConfig:
    def test_table_sizes(self, tmp_path):
        out = tmp_path / "cfg"
        assert main(["dump-config", "--out", str(out)]) == 0
        assert len(read(out / "prefixes.txt").splitlines()) == 55
        assert len(read(out / "stopwords.txt").splitlines()) == 174
        assert len(read(out / "substitutions.tsv").splitlines()) == 15
        assert len(read(out / "headings.txt").splitlines()) == 29

    def test_dump_reloads_identically(self, tmp_path):
        from lexicorp.config import default_config, load_config
        out = tmp_path / "cfg"
        assert main(["dump-config", "--out", str(out)]) == 0
        reloaded = load_config(out)
        assert reloaded.config_hash() == default_config().config_hash()

    def test_table_bytes_and_printed_paths_pinned(self, tmp_path, capsys):
        # Written by the dump_config that listed each table by name.
        out = tmp_path / "cfg"
        assert main(["dump-config", "--out", str(out)]) == 0
        names = ["prefixes.txt", "substitutions.tsv", "stopwords.txt", "headings.txt"]
        assert capsys.readouterr().out.splitlines() == [str(out / n) for n in names]
        assert {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names} == {
            "prefixes.txt": "09c7669e1152a93afe8c8215cd277703605e70c209122de4e5c1cdc13b65f4c3",
            "substitutions.tsv":
                "d1f93916cd8e17d25b38db38a47fd87554915d6ae3b92e8f109ad6d19105f369",
            "stopwords.txt": "0d876b7fd3c7d6ab718be03bfdcf38283b214defd91ca5c7a71bd9394da5772d",
            "headings.txt": "10f9030e1832dbf5ebc237e021fe64d08053c4cf88edc67d2e71ba4c143b919e",
        }
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])

    def test_failure_on_the_third_table_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        from lexicorp import config
        monkeypatch.setattr(config, "write_lines", fail_on_call(3, config.write_lines))
        out = tmp_path / "cfg"
        assert main(["dump-config", "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["ingest", "x.tsv"], ["stats", "d.tsv"], ["compare", "d.tsv", "wl.csv"], ["dump-config"],
    ["pipeline", "x.tsv"]])
def test_out_naming_a_regular_file_is_usage_error(tmp_path, command, capsys):
    # The inputs do not exist: --out is refused before any file is read.
    afile = tmp_path / "afile"
    afile.write_text("x", encoding="utf-8")
    assert main([*command, "--out", str(afile)]) == 1
    assert "'--out'" in capsys.readouterr().err
    assert afile.read_text(encoding="utf-8") == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


class TestPipelineCommand:
    def test_chained_run(self, tmp_path, export_file):
        out = tmp_path / "run"
        rc = main(["pipeline", str(export_file), "--threshold", "0", "--out", str(out)])
        assert rc == 0
        for name in ("corpus.tsv", "dictionary.tsv", "dictionary_pruned.tsv"):
            assert (out / name).exists()
        assert (out / "stats" / "histogram.csv").exists()

    def test_negative_threshold_is_refused_before_any_file_is_read(self, tmp_path, export_file,
                                                                   capsys):
        out = tmp_path / "run"
        assert main(["pipeline", str(export_file), "--threshold", "-1", "--out", str(out)]) == 1
        assert ("usage error: Invalid value for '--threshold': -1 is not in the range x>=0."
                in capsys.readouterr().err)
        assert not out.exists()

    def test_outputs_leave_no_temporary_files(self, tmp_path, export_file):
        out = tmp_path / "run"
        assert main(["pipeline", str(export_file), "--threshold", "0", "--out", str(out)]) == 0
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            "corpus.tsv", "dictionary.tsv", "dictionary.tsv.manifest.json",
            "dictionary_pruned.tsv", "dictionary_pruned.tsv.manifest.json",
            "ingest_report.tsv", "lengths.csv", "manifest.json", "stats",
            "stats/cumulative.csv", "stats/histogram.csv", "stats/manifest.json",
            "stats/pareto_fit.txt", "stats/tail.csv", "stats/tail_loglog.csv"]

    def test_usage_error_on_no_command(self):
        assert main([]) == 1

    def test_one_config_hash_per_run(self, tmp_path, export_file, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pytest"])
        out = tmp_path / "run"
        args = ["pipeline", str(export_file), "--min-len", "10", "--threshold", "0",
                "--out", str(out)]
        assert main(args) == 0
        want = load_config(min_len=10).config_hash()
        assert want != default_config().config_hash()
        for name in ("dictionary.tsv", "dictionary_pruned.tsv"):
            assert read(out / name).split("\n", 1)[0].split()[3] == f"config={want}"
        manifests = [json.loads(read(p)) for p in sorted(out.rglob("*manifest.json"))]
        assert len(manifests) == 4
        assert all(m["command"] == args for m in manifests)
        # prune and stats record the config hash of the dictionary they read.
        assert [m["config_hash"] for m in manifests] == [want] * 4

    def test_failing_stats_keeps_the_steps_before_it(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "synth.tsv"
        assert main(["gen", "--docs", "200", "--vocab", "300", "--length", "40", "--seed", "1",
                     "--out", str(corpus)]) == 0
        whole, out = tmp_path / "whole", tmp_path / "run"
        args = ["pipeline", str(corpus), "--threshold", "0", "--out"]
        assert main(args + [str(whole)]) == 0
        monkeypatch.setattr(lexstats, "loglog_slope", fail_slope)
        assert main(args + [str(out)]) == 3
        assert "slope failed" in capsys.readouterr().err
        want = {name: data for name, data in snapshot(whole).items() if "/" not in name}
        got = snapshot(out)
        assert sorted(got) == sorted(want)
        for name in got:
            if name.endswith("manifest.json"):
                manifest = json.loads(got[name])
                assert manifest["command"] == args + [str(out)] and manifest["finished"]
            else:
                assert got[name] == want[name]
        assert not (out / "stats").exists()
        assert not list(out.rglob("*.tmp"))

    def test_default_bounds_build_as_the_build_command(self, tmp_path, export_file):
        out = tmp_path / "run"
        assert main(["pipeline", str(export_file), "--threshold", "0", "--out", str(out)]) == 0
        assert main(["build", str(out / "corpus.tsv"), "--out", str(tmp_path / "d.tsv")]) == 0
        assert read(out / "dictionary.tsv") == read(tmp_path / "d.tsv")


# What pipeline's peak RSS may gain at 16 times the documents over the same
# vocabulary. Heap layout alone moves it by about 3 MiB. On 1,000 documents
# of 120 tokens the peak read 38.5 MiB at both sizes, and a build that held
# every document's token list read 38.5 -> 55.3 MiB (Linux x86-64, CPython 3.11).
PIPELINE_RSS_SLACK_KIB = 6 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_pipeline_memory_does_not_grow_with_documents(tmp_path):
    corpus = tmp_path / "synth.tsv"
    assert main(["gen", "--docs", "1000", "--length", "120", "--seed", "1",
                 "--out", str(corpus)]) == 0
    header, _, body = read(corpus).partition("\n")
    env = {**os.environ, "PYTHONPATH": str(Path(lexicorp.__file__).parents[1])}
    # Linux counts the resident set of the process that starts a program
    # into its ru_maxrss, so a small launcher, not this one, starts each run.
    launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    code = ("import resource, sys; from lexicorp.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    peaks = []
    for copies in (1, 16):
        export = tmp_path / f"x{copies}.tsv"
        export.write_text(header + "\n" + body * copies, encoding="utf-8")
        run = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code,
                              "pipeline", str(export), "--out", str(tmp_path / f"run{copies}")],
                             env=env, capture_output=True, text=True, check=True)
        rc, peak = map(int, run.stdout.split("\n")[-2].split())
        assert rc == 0
        peaks.append(peak)
    assert read(tmp_path / "run16" / "ingest_report.tsv").startswith("n_parsed\t16000\n")
    assert peaks[1] - peaks[0] <= PIPELINE_RSS_SLACK_KIB, peaks
