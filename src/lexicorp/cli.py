"""Command-line driver: ingest, build, prune, stats, compare, gen,
dump-config, and the chained pipeline command.

Exit codes: 0 success (warnings allowed), 1 usage error, 2 input error,
3 computation error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import sys
from pathlib import Path

import click

from . import dictionary, ingest, lexstats, listcompare
from .atomic import atomic_open
from .config import PRUNE_THRESHOLD, InputError, PipelineConfig, dump_config, load_config
from .dictionary import DictionaryFormatError
from .manifest import RunManifest
from .pipeline import process_document


def _load_cfg(config_dir, min_len=PipelineConfig.min_len, max_len=PipelineConfig.max_len):
    # click checks each bound; this cross-check also runs before any file is read.
    if min_len > max_len:
        raise click.UsageError(f"--min-len {min_len} exceeds --max-len {max_len}")
    return load_config(config_dir, min_len=min_len, max_len=max_len)


def _manifest(*args, **kwargs) -> RunManifest:
    """A manifest recording the argv `main` parsed, else the command's name."""
    ctx = click.get_current_context()
    return RunManifest(ctx.obj or [ctx.info_name], *args, **kwargs)


# Options of more than one command; click checks them before any file is read.
_config = click.option("--config", "config_dir", type=click.Path(file_okay=False),
                       help="Directory with table files overriding the built-in rules.")
_min_len = click.option("--min-len", type=click.IntRange(min=0), default=PipelineConfig.min_len,
                        show_default=True, help="Minimum abstract length in words.")
_max_len = click.option("--max-len", type=click.IntRange(min=1), default=PipelineConfig.max_len,
                        show_default=True, help="Maximum abstract length in words.")
_threshold = click.option("--threshold", type=click.IntRange(min=0), default=PRUNE_THRESHOLD,
                          show_default=True, help="Keep words in more than this many documents.")


def _write_lines(path, lines) -> None:
    """Write each line plus a newline to `path` through `atomic_open`."""
    with atomic_open(path) as f:
        for line in lines:
            f.write(line + "\n")


@click.group()
def cli():
    """Corpus cleaning, dictionary building and word-list comparison."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")


@cli.command("ingest")
@click.argument("input_path", type=click.Path(dir_okay=False))
@_config
@_min_len
@_max_len
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_ingest(input_path, config_dir, min_len, max_len, out_dir):
    """Clean a tab-delimited export into a canonical corpus file."""
    cfg = _load_cfg(config_dir, min_len, max_len)
    manifest = _manifest(cfg.config_hash())
    manifest.add_input(input_path)

    out = Path(out_dir)
    with open(input_path, encoding="utf-8") as f:
        created = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        try:
            with atomic_open(out / "corpus.tsv") as corpus:
                lengths, report, errors = ingest.run_ingest(f, corpus, cfg)
        except BaseException:
            # atomic_open removed its temporary file, so these are empty again.
            for d in created:
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise
    with atomic_open(out / "ingest_report.tsv") as f:
        for key, value in vars(report).items():
            f.write(f"{key}\t{value}\n")
        if lengths:
            mean = sum(n * k for n, k in lengths.items()) / report.n_after_length_filter
            f.write(f"mean_length\t{mean:.3f}\n")
    _write_lines(out / "lengths.csv",
                 ["length,documents", *(f"{n},{lengths[n]}" for n in sorted(lengths))])
    if errors:
        _write_lines(out / "ingest_errors.log", (f"line {e.line_no}\t{e.reason}" for e in errors))
        click.echo(f"warning: {len(errors)} malformed row(s) skipped, "
                   f"see {out / 'ingest_errors.log'}", err=True)
    else:  # A log from an earlier run into the same --out would be stale.
        (out / "ingest_errors.log").unlink(missing_ok=True)
    manifest.write(out / "manifest.json")
    click.echo(f"{report.n_after_length_filter} documents written to {out / 'corpus.tsv'}")


@cli.command("build")
@click.argument("corpus_path", type=click.Path(dir_okay=False))
@_config
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_build(corpus_path, config_dir, out_path, **bounds):
    """Build the full word dictionary from a canonical corpus file."""
    # `pipeline` passes its length bounds, which are part of the config hash.
    cfg = _load_cfg(config_dir, **bounds)
    manifest = _manifest(cfg.config_hash())
    manifest.add_input(corpus_path)
    corpus_id = manifest.inputs[str(corpus_path)][:12]
    empty_docs = []

    def token_lists(records):
        for i, cells in enumerate(records, 1):
            if isinstance(cells, ingest.ParseError):
                raise DictionaryFormatError(cells.line_no, f"malformed corpus file: {cells.reason}")
            tokens = process_document(cells[ingest.ABSTRACT], cfg)
            if tokens:
                yield tokens
            else:
                empty_docs.append((i, cells[ingest.TITLE]))

    with open(corpus_path, encoding="utf-8") as f:
        d = dictionary.build(token_lists(ingest.parse_records(f)),
                             corpus_id=corpus_id, config_hash=cfg.config_hash())
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    dictionary.save(d, out)
    skipped = Path(str(out) + ".skipped.log")
    if empty_docs:
        _write_lines(skipped, (f"record {i}\tno tokens after processing\t{title}"
                               for i, title in empty_docs))
        click.echo(f"warning: {len(empty_docs)} document(s) produced no tokens", err=True)
    else:
        skipped.unlink(missing_ok=True)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{len(d)} words written to {out}")


@cli.command("prune")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@_threshold
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_prune(dict_path, threshold, out_path):
    """Drop words appearing in too few documents."""
    manifest = _manifest()
    manifest.add_input(dict_path)
    d = dictionary.load(dict_path)
    manifest.config_hash = d.provenance.config_hash
    pruned = dictionary.prune(d, threshold)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    dictionary.save(pruned, out)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{len(d)} -> {len(pruned)} words (threshold {threshold})")


def _parse_range(text):
    if text is None:
        return None
    try:
        lo, _, hi = text.partition(":")
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise click.UsageError("--range must look like 'xmin:xmax'") from None
    if not lo < hi:
        raise click.UsageError(f"--range {text!r} is empty: xmin must be below xmax")
    return lo, hi


@cli.command("stats")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@click.option("--range", "fit_range", default=None,
              help="Restrict the tail fit to xmin:xmax.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_stats(dict_path, fit_range, out_dir):
    """Histogram, cumulative and tail curves plus the power-law fit."""
    rng = _parse_range(fit_range)
    manifest = _manifest()
    manifest.add_input(dict_path)
    d = dictionary.load(dict_path)
    manifest.config_hash = d.provenance.config_hash
    if not len(d):
        raise InputError("empty dictionary")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    hist = lexstats.histogram(d)
    cum = lexstats.cumulative(hist)
    tail = lexstats.tail(hist)

    _write_lines(out / "histogram.csv",
                 ["documents,words", *(f"{n},{hist.counts[n]}" for n in sorted(hist.counts))])
    _write_lines(out / "cumulative.csv",
                 ["documents,words_at_or_below", *(f"{n},{g}" for n, g in cum)])

    fit = None
    fit_error = None
    try:
        fit = lexstats.fit_pareto(tail, rng)
    except ValueError as e:
        fit_error = str(e)
        click.echo(f"warning: tail fit skipped ({e})", err=True)

    _write_lines(out / "tail.csv", ["documents,words_above,fitted", *(
        f"{x},{n_x}," + (f"{fit.beta / x ** fit.alpha:.6f}" if fit else "")
        for x, n_x in tail.points)])
    _write_lines(out / "tail_loglog.csv", ["documents,words_above,log_documents,log_words_above", *(
        f"{x},{n_x},{math.log(x):.9f},{math.log(n_x):.9f}" for x, n_x in tail.points if n_x > 0)])

    with atomic_open(out / "pareto_fit.txt") as f:
        f.write(f"requested_range\t{fit_range if fit_range else 'full positive tail'}\n")
        if fit:
            f.write(f"alpha\t{fit.alpha:.6f}\n")
            f.write(f"beta\t{fit.beta:.6f}\n")
            f.write(f"mse\t{fit.mse:.6f}\n")
            f.write(f"fit_range\t{fit.fit_range[0]:g}:{fit.fit_range[1]:g}\n")
            f.write(f"x_m\t{fit.x_m:g}\n")
            f.write(f"n_points\t{fit.n_points}\n")
            slope = lexstats.loglog_slope(tail, rng)
            f.write(f"loglog_slope\t{slope:.6f}\n")
        else:
            f.write(f"fit\tunavailable ({fit_error})\n")
    manifest.write(out / "manifest.json")
    if fit:
        click.echo(f"alpha={fit.alpha:.4f} beta={fit.beta:.1f} mse={fit.mse:.1f}")


def _int_list(minimum, ctx, param, text):
    """A comma-separated list of integers of at least `minimum`, or None."""
    each = click.IntRange(min=minimum)
    return None if text is None else [each.convert(v, param, ctx)
                                      for v in text.replace(" ", "").split(",") if v]


@cli.command("compare")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@click.argument("wordlist_path", type=click.Path(dir_okay=False))
@click.option("--widths", callback=functools.partial(_int_list, 1),
              help="Interval widths (comma-separated, each >= 1).")
@click.option("--tops", callback=functools.partial(_int_list, 0),
              help="Top/bottom-n sizes (comma-separated, each >= 0).")
@click.option("--fragments", callback=functools.partial(_int_list, 1),
              help="Dictionary fragment sizes (comma-separated, each >= 1).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_compare(dict_path, wordlist_path, widths, tops, fragments, out_dir):
    """Coverage, overlap and rank agreement against a headword list."""
    manifest = _manifest()
    manifest.add_input(dict_path)
    manifest.add_input(wordlist_path)
    d = dictionary.load(dict_path)
    manifest.config_hash = d.provenance.config_hash
    with open(wordlist_path, encoding="utf-8-sig") as f:
        raw_list = listcompare.read_word_list(f)
    if not len(raw_list):
        raise InputError("empty word list")
    stemmed = listcompare.stem_merge(raw_list)
    report = listcompare.compare(d, stemmed, widths=widths, tops=tops, fragment_ks=fragments)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_comparison(report, out)
    manifest.write(out / "manifest.json")
    click.echo(f"coverage {report.coverage_count}/{report.n_stems} "
               f"({report.coverage_pct:.1%})")


def _write_comparison(report: listcompare.ComparisonReport, out: Path) -> None:
    _write_lines(out / "coverage.tsv", [
        "headwords\tstems\tcovered\tcoverage_pct",
        f"{report.n_headwords}\t{report.n_stems}\t{report.coverage_count}"
        f"\t{report.coverage_pct:.1%}",
        *(f"missing\t{w}" for w in report.missing_words)])
    _write_lines(out / "fragments.tsv", ["fragment_size\tfound\tpct\tnewly_added", *(
        f"{k}\t{found}\t{pct:.1%}\t{', '.join(added)}"
        for k, found, pct, added in report.fragment_table)])
    _write_lines(out / "last_position.tsv", ["list_fragment\tlast_position\tpct_of_dictionary", *(
        f"{m}\t{pos}\t{pct:.1%}" for m, pos, pct in report.last_position_table)])
    n = len(report.common_words)
    _write_lines(out / "interval_overlaps.tsv", ["width\tintervals\toverlap_pct", *(
        f"{w}\t{-(-n // w)}\t{frac:.1%}"
        for w, frac in sorted(report.interval_overlaps.items()))])
    _write_lines(out / "top_bottom_overlap.tsv", ["n\ttop_common\tbottom_common", *(
        f"{k}\t{report.top_overlap[k]}\t{report.bottom_overlap[k]}"
        for k in sorted(report.top_overlap))])
    correlations = (("PCC", report.pcc), ("SRC", report.src), ("PCC-log", report.pcc_log))
    _write_lines(out / "correlations.tsv", ["test\tstatistic", *(
        f"{name}\t{value:.2f}" for name, value in correlations if value is not None)])
    _write_lines(out / "same_rank.tsv",
                 ["word\tposition", *(f"{w}\t{pos}" for w, pos in report.same_rank_words)])
    summary = {
        "headwords": report.n_headwords,
        "stems": report.n_stems,
        "dictionary_words": report.n_dict_words,
        "coverage_count": report.coverage_count,
        "coverage_pct": round(report.coverage_pct * 100, 1),
        "missing_words": report.missing_words,
        "src": report.src,
        "pcc": report.pcc,
        "pcc_log": report.pcc_log,
        "same_rank_count": len(report.same_rank_words),
        "top_overlap": {str(k): v for k, v in sorted(report.top_overlap.items())},
        "bottom_overlap": {str(k): v for k, v in sorted(report.bottom_overlap.items())},
        "interval_overlap_pct": {str(k): round(v * 100, 1)
                                 for k, v in sorted(report.interval_overlaps.items())},
    }
    with atomic_open(out / "summary.json") as f:
        f.write(json.dumps(summary, indent=2) + "\n")


@cli.command("gen")
@click.option("--vocab", type=click.IntRange(min=1), default=5000, show_default=True,
              help="Vocabulary size.")
@click.option("--docs", type=click.IntRange(min=1), required=True, help="Number of documents.")
@click.option("--zipf", type=click.FloatRange(min=0), default=1.0, show_default=True,
              help="Rank-frequency exponent.")
@click.option("--length", "doc_len", type=click.IntRange(min=1), default=200, show_default=True,
              help="Words per document.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_gen(vocab, docs, zipf, doc_len, seed, out_path):
    """Generate a synthetic corpus with Zipfian word frequencies."""
    # FloatRange lets nan through, which the generator refuses only after opening --out.
    if math.isnan(zipf):
        raise click.BadParameter("nan is not a number.", param_hint="'--zipf'")
    manifest = _manifest(seed=seed)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    documents = lexstats.gen_synthetic_corpus(vocab, docs, zipf, seed, doc_len)
    rows = ([
        "Synthetic, A", f"Synthetic document doc{i}", " ".join(tokens),
        "Synthetic", "Synthetic", "0", "0",
    ] for i, tokens in enumerate(documents, 1))
    with atomic_open(out) as f:
        ingest.write_corpus(rows, f)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{docs} synthetic documents written to {out}")


@cli.command("dump-config")
@_config
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_dump_config(config_dir, out_dir):
    """Write the active rule tables as editable config files."""
    cfg = _load_cfg(config_dir)
    manifest = _manifest(cfg.config_hash())
    written = dump_config(cfg, out_dir)
    for path in written:
        click.echo(str(path))
    manifest.write(Path(out_dir) / "manifest.json")


@cli.command("pipeline")
@click.argument("input_path", type=click.Path(dir_okay=False))
@_config
@_min_len
@_max_len
@_threshold
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.pass_context
def cmd_pipeline(ctx, input_path, config_dir, min_len, max_len, threshold, out_dir):
    """Chain ingest, build, prune and stats over one input file."""
    out = Path(out_dir)
    ctx.invoke(cmd_ingest, input_path=input_path, config_dir=config_dir,
               min_len=min_len, max_len=max_len, out_dir=str(out))
    ctx.invoke(cmd_build, corpus_path=str(out / "corpus.tsv"), config_dir=config_dir,
               out_path=str(out / "dictionary.tsv"), min_len=min_len, max_len=max_len)
    ctx.invoke(cmd_prune, dict_path=str(out / "dictionary.tsv"),
               threshold=threshold, out_path=str(out / "dictionary_pruned.tsv"))
    ctx.invoke(cmd_stats, dict_path=str(out / "dictionary_pruned.tsv"),
               fit_range=None, out_dir=str(out / "stats"))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping; manifests record `argv`."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cli.main(args=argv, standalone_mode=False, obj=argv)
        return 0
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        return 1
    except (OSError, UnicodeDecodeError, InputError) as e:
        click.echo(f"input error: {e}", err=True)
        return 2
    except (ValueError, ArithmeticError) as e:
        click.echo(f"computation error: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
