"""Spans and counts around lexicorp's public functions, from outside the package.

`Tracer.install` replaces each function named in `SPANS` by a wrapper in
every lexicorp module that holds a reference to it, so both
`ingest.parse_records(...)` and a name imported with `from .x import y`
are traced. Each call records a span (name, start, end, parent, run id)
in memory; `layer_metrics` turns the spans and counts into per-layer
self times once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

# Traced function ("module.name") -> per-layer time metric its self time adds to.
SPANS = {
    "ingest.parse_records": "ingest.parse_s",
    "ingest.run_ingest": "ingest.clean_s",
    "ingest.write_corpus": "ingest.write_s",
    "pipeline.process_document": "pipeline.process_s",
    "dictionary.build": "dictionary.build_s",
    "dictionary.save": "dictionary.save_s",
    "dictionary.load": "dictionary.load_s",
    "dictionary.prune": "dictionary.prune_s",
    "lexstats.histogram": "lexstats.curve_s",
    "lexstats.cumulative": "lexstats.curve_s",
    "lexstats.tail": "lexstats.curve_s",
    "lexstats.fit_pareto": "lexstats.fit_s",
    "lexstats.loglog_slope": "lexstats.fit_s",
    "listcompare.read_word_list": "listcompare.read_s",
    "listcompare.stem_merge": "listcompare.stem_merge_s",
    "listcompare.compare": "listcompare.compare_s",
    "manifest.file_digest": "manifest.digest_s",
}
# The tracer's own counting runs in spans of this name, so that it is
# kept out of every layer and out of cli.other_s.
COUNT_SPAN = "trace.count"
COUNT_METRIC = "trace.count_s"

COUNTS = ("ingest.records_in", "ingest.records_kept", "ingest.parse_errors",
          "ingest.headings_split", "pipeline.docs", "pipeline.tokens_in",
          "pipeline.tokens_out", "dictionary.entries_built", "dictionary.entries_loaded",
          "lexstats.tail_points", "listcompare.common_words", "manifest.bytes_hashed")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._distinct_tokens: set[str] = set()

    def _open(self, name: str) -> list:
        span = [name, time.monotonic(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.monotonic()
        self._stack.pop()

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if inspect.isgenerator(result):
                return self._wrap_generator(name, result)
            if count is not None:
                span = self._open(COUNT_SPAN)
                try:
                    count(self, args, result)
                finally:
                    self._close(span)
            return result
        return wrapper

    def _wrap_generator(self, name: str, gen):
        """Trace a generator by a span around each resumption.

        A streaming rewrite of ingest turns traced functions into
        generators; without this their time would move to the consumer.
        """
        while True:
            span = self._open(name)
            try:
                item = next(gen)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(span)
            yield item

    def install(self, package) -> list[str]:
        """Patch every traced function of `package`; returns names not found."""
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        missing = []
        for name in SPANS:
            module_name, attr = name.split(".")
            fn = getattr(sys.modules.get(prefix + module_name), attr, None)
            if fn is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, fn, _COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        return missing

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counts; cli.other_s is wall_s minus all spans."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {m: 0.0 for m in set(SPANS.values())}
        out[COUNT_METRIC] = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            metric = COUNT_METRIC if name == COUNT_SPAN else SPANS[name]
            out[metric] += end - start - child_time[i]
        out["cli.other_s"] = wall_s - sum(out.values())
        for key in COUNTS:
            out[key] = float(self.counts[key])
        tokens_in = self.counts["pipeline.tokens_in"]
        out["pipeline.distinct_token_ratio"] = (
            len(self._distinct_tokens) / tokens_in if tokens_in else 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans]


def _count_process_document(tracer, args, tokens):
    raw = args[0].split()
    tracer.counts["pipeline.docs"] += 1
    tracer.counts["pipeline.tokens_in"] += len(raw)
    tracer.counts["pipeline.tokens_out"] += len(tokens)
    tracer._distinct_tokens.update(raw)


def _count_run_ingest(tracer, args, result):
    docs, report, errors = result
    tracer.counts["ingest.records_in"] += report.n_parsed + len(errors)
    tracer.counts["ingest.records_kept"] += report.n_after_length_filter
    tracer.counts["ingest.parse_errors"] += len(errors)
    tracer.counts["ingest.headings_split"] += report.n_headings_split


def _count_file_digest(tracer, args, result):
    tracer.counts["manifest.bytes_hashed"] += os.path.getsize(args[0])


def _count_len(key, of=lambda result: result):
    def count(tracer, args, result):
        tracer.counts[key] += len(of(result))
    return count


_COUNTERS = {
    "pipeline.process_document": _count_process_document,
    "ingest.run_ingest": _count_run_ingest,
    "manifest.file_digest": _count_file_digest,
    "dictionary.build": _count_len("dictionary.entries_built"),
    "dictionary.load": _count_len("dictionary.entries_loaded"),
    "lexstats.tail": _count_len("lexstats.tail_points", lambda t: t.points),
    "listcompare.compare": _count_len("listcompare.common_words", lambda r: r.common_words),
}
