import pytest

from lexicorp import ingest
from lexicorp import pipeline as pl
from lexicorp.config import (
    CONFIG_DIR_ENV,
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


def test_env_var_names_config_dir(tmp_path, monkeypatch):
    (tmp_path / "stopwords.txt").write_text("zonk\n", encoding="utf-8")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    cfg = load_config()
    assert cfg.stop_words == ("zonk",)
    assert pl.process_document("zonk results", cfg) == ["result"]


def test_explicit_dir_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    (env_dir / "stopwords.txt").write_text("fromenv\n", encoding="utf-8")
    arg_dir = tmp_path / "arg"
    arg_dir.mkdir()
    (arg_dir / "stopwords.txt").write_text("fromarg\n", encoding="utf-8")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(env_dir))
    assert load_config(arg_dir).stop_words == ("fromarg",)


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
])
def test_bad_table_is_input_error_naming_the_file(tmp_path, name, content, message):
    # A substitution key without "-" must be refused: the token memo passes
    # hyphen-free tokens straight to the stemmer.
    (tmp_path / name).write_text(content, encoding="utf-8")
    with pytest.raises(InputError, match=message) as info:
        load_config(tmp_path)
    assert str(tmp_path / name) in str(info.value)
