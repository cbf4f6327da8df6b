import pytest

from lexicorp import ingest
from lexicorp import pipeline as pl
from lexicorp.cli import main
from lexicorp.config import (
    InputError,
    PipelineConfig,
    default_config,
    dump_config,
    load_config,
)


def test_defaults_round_trip_through_dump(tmp_path):
    cfg = default_config()
    dump_config(cfg, tmp_path)
    reloaded = load_config(tmp_path)
    assert reloaded.prefixes == cfg.prefixes
    assert reloaded.substitutions == cfg.substitutions
    assert reloaded.stop_words == cfg.stop_words
    assert reloaded.headings == cfg.headings
    assert reloaded.config_hash() == cfg.config_hash()


def test_partial_override_falls_back_to_defaults(tmp_path):
    (tmp_path / "prefixes.txt").write_text("giga\n", encoding="utf-8")
    cfg = load_config(tmp_path)
    assert cfg.prefixes == ("giga",)
    assert cfg.stop_words == default_config().stop_words
    assert pl._token_memo(cfg)._text_steps("giga-watt") == ["gigawatt"]
    assert pl._token_memo(cfg)._text_steps("anti-viral") == ["anti", "viral"]


def test_only_config_picks_the_tables(tmp_path, monkeypatch):
    # Only --config (or load_config's directory) picks the rule tables, not the environment.
    corpus = tmp_path / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8") as f:
        ingest.write_corpus([["A", "T", "the results result in a result", "C", "R", "0", "0"]], f)
    assert main(["build", str(corpus), "--out", str(tmp_path / "plain.tsv")]) == 0
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    (env_dir / "stopwords.txt").write_text("result\n", encoding="utf-8")
    monkeypatch.setenv("LEXICORP_CONFIG_DIR", str(env_dir))
    assert load_config().config_hash() == default_config().config_hash()
    assert main(["build", str(corpus), "--out", str(tmp_path / "env.tsv")]) == 0
    plain = (tmp_path / "plain.tsv").read_text(encoding="utf-8")
    assert (tmp_path / "env.tsv").read_text(encoding="utf-8") == plain
    assert "result\t1\t3\n" in plain


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope")


def test_malformed_substitution_line(tmp_path):
    (tmp_path / "substitutions.tsv").write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key<TAB>value"):
        load_config(tmp_path)


def test_hash_changes_with_content(tmp_path):
    base = default_config()
    changed = PipelineConfig(min_len=31)
    assert base.config_hash() != changed.config_hash()
    assert base.config_hash() == PipelineConfig().config_hash()


def test_overrides_apply(tmp_path):
    cfg = load_config(None, min_len=5, max_len=50)
    assert (cfg.min_len, cfg.max_len) == (5, 50)


def test_table_file_may_start_with_a_bom(tmp_path):
    (tmp_path / "headings.txt").write_bytes("\ufeffConclusion(s)\nResult(s)\n".encode("utf-8"))
    cfg = load_config(tmp_path)
    assert cfg.headings == ("Conclusion(s)", "Result(s)")
    text = "ResultsWe found. ConclusionThe end."
    assert ingest.split_concatenated_headings(text, cfg.heading_forms) == (
        "Results We found. Conclusion The end.", 2)
    assert cfg.config_hash() == "4475d743ebb2"


def test_empty_headings_file_turns_the_split_off(tmp_path):
    (tmp_path / "headings.txt").write_text("# no headings\n", encoding="utf-8")
    cfg = load_config(tmp_path)
    assert cfg.heading_forms == ()
    text = "Results We found DNA in São Paulo."
    assert ingest.split_concatenated_headings(text, cfg.heading_forms) == (text, 0)


@pytest.mark.parametrize("entry", ["", "(s)"])
def test_heading_entry_with_an_empty_form_is_refused(entry):
    with pytest.raises(ValueError, match="expands to an empty form"):
        PipelineConfig(headings=("Result(s)", entry))


def test_default_hash_is_pinned():
    # Dictionary headers carry this hash; it must not drift.
    assert default_config().config_hash() == "29990439226b"


@pytest.mark.parametrize("name,content,message", [
    ("substitutions.tsv", "foo\tbar\n", "without '-'"),
    ("substitutions.tsv", "no-tab-here\n", "key<TAB>value"),
    ("prefixes.txt", "# only a comment\n", "must not be empty"),
    ("prefixes.txt", "Anti\n", "not lowercase"),
    ("stopwords.txt", "The\n", "not lowercase"),
    ("prefixes.txt", "anti\nanti-self\n", "not all letters and digits"),
    ("substitutions.tsv", "z-score\u0307\tzscore\n", "other than letters, digits and '-'"),
    ("headings.txt", "Result(s)\n(s)\n", "expands to an empty form: '\\(s\\)'"),
])
def test_bad_table_is_input_error_naming_the_file(tmp_path, name, content, message):
    # A substitution key without "-" must be refused: the token memo passes
    # hyphen-free tokens straight to the stemmer.
    (tmp_path / name).write_text(content, encoding="utf-8")
    with pytest.raises(InputError, match=message) as info:
        load_config(tmp_path)
    assert str(tmp_path / name) in str(info.value)
