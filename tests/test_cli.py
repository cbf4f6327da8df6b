import json
from pathlib import Path

import pytest

from lexicorp import dictionary as dct
from lexicorp.cli import main


def read(path):
    return Path(path).read_text(encoding="utf-8")


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
        by_word = {e.word: (e.doc_count, e.corpus_count) for e in d.entries}
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

    def test_prune_threshold_semantics(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        entries = [dct.DictEntry(f"w{c}", c, c) for c in (12, 10, 3)]
        dct.save(dct.Dictionary(entries), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--threshold", "10", "--out", str(out)]) == 0
        pruned = dct.load(out)
        assert pruned.words() == ["w12"]
        assert pruned.provenance.threshold == 10

    def test_prune_default_threshold_is_ten(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        entries = [dct.DictEntry(f"w{c:02d}", c, c) for c in (11, 10, 9)]
        dct.save(dct.Dictionary(entries), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--out", str(out)]) == 0
        assert dct.load(out).words() == ["w11"]

    def test_prune_zero_copies(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dct.save(dct.Dictionary([dct.DictEntry("a", 1, 2)]), dict_path)
        out = tmp_path / "p.tsv"
        assert main(["prune", str(dict_path), "--threshold", "0", "--out", str(out)]) == 0
        assert dct.load(out).entries == dct.load(dict_path).entries

    def test_prune_negative_threshold_usage_error(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        dct.save(dct.Dictionary([dct.DictEntry("a", 1, 2)]), dict_path)
        rc = main(["prune", str(dict_path), "--threshold", "-1",
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1

    def test_corrupt_dictionary_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#lexicorp-dict v1 threshold=0 config=c\nw\tx\t3\n", encoding="utf-8")
        rc = main(["prune", str(bad), "--out", str(tmp_path / "p.tsv")])
        assert rc == 2


class TestStats:
    def test_exact_power_law_dictionary(self, tmp_path):
        # doc counts at powers of two make the tail exactly 4096/x
        entries = []
        for k in range(1, 13):
            for i in range(2 ** (12 - k)):
                c = 2**k
                entries.append(dct.DictEntry(f"w{k}_{i}", c, c))
        entries.append(dct.DictEntry("wtop", 2**13, 2**13))
        entries.extend(dct.DictEntry(f"rare{i}", 1, 1) for i in range(100))
        dict_path = tmp_path / "d.tsv"
        dct.save(dct.Dictionary(entries), dict_path)
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
        entries = [dct.DictEntry(f"w{i}", c, c) for i, c in enumerate(doc_counts)]
        dct.save(dct.Dictionary(entries), dict_path)
        out = tmp_path / "stats"
        assert main(["stats", str(dict_path), "--range", "1:9", "--out", str(out)]) == 0
        summary = read(out / "pareto_fit.txt")
        assert "requested_range\t1:9" in summary
        assert "alpha\t" in summary

    def test_three_entry_dictionary_csvs(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        entries = [dct.DictEntry("a", 3, 4), dct.DictEntry("b", 2, 2), dct.DictEntry("c", 1, 1)]
        dct.save(dct.Dictionary(entries), dict_path)
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
        dct.save(dct.Dictionary([]), dict_path)
        assert main(["stats", str(dict_path), "--out", str(tmp_path / "s")]) == 2


class TestCompare:
    def make_inputs(self, tmp_path):
        dict_path = tmp_path / "d.tsv"
        entries = [dct.DictEntry(w, 20 - i, 25 - i) for i, w in enumerate("abcdefghij")]
        dct.save(dct.Dictionary(entries), dict_path)
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

    def test_missing_sfi_column_still_covers(self, tmp_path, caplog):
        dict_path, _ = self.make_inputs(tmp_path)
        wl_path = tmp_path / "plain.csv"
        wl_path.write_text("word\na\nb\nzz\n", encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", str(dict_path), str(wl_path), "--out", str(out)]) == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["coverage_count"] == 2
        assert summary["src"] is None

    def test_empty_word_list_is_input_error(self, tmp_path):
        dict_path, _ = self.make_inputs(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("headword,sfi\n", encoding="utf-8")
        rc = main(["compare", str(dict_path), str(empty), "--out", str(tmp_path / "c")])
        assert rc == 2


class TestGen:
    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["gen", "--docs", "5", "--vocab", "50", "--seed", "9"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert read(p1) == read(p2)

    def test_zero_docs_usage_error(self, tmp_path):
        assert main(["gen", "--docs", "0", "--out", str(tmp_path / "x.tsv")]) == 1

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


class TestPipelineCommand:
    def test_chained_run(self, tmp_path, export_file):
        out = tmp_path / "run"
        rc = main(["pipeline", str(export_file), "--threshold", "0", "--out", str(out)])
        assert rc == 0
        for name in ("corpus.tsv", "dictionary.tsv", "dictionary_pruned.tsv"):
            assert (out / name).exists()
        assert (out / "stats" / "histogram.csv").exists()

    def test_usage_error_on_no_command(self):
        assert main([]) == 1
