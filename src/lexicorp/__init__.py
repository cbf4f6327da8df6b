"""lexicorp: corpus cleaning, document-frequency dictionaries, heavy-tail
statistics and word-list comparison for collections of scientific abstracts."""

__version__ = "0.1.0"

from .config import PipelineConfig, default_config, load_config
from .dictionary import Dictionary, build, prune
from .ingest import IngestReport, RawRecord, run_ingest
from .lexstats import ParetoFit, fit_pareto, gen_synthetic_corpus, histogram
from .listcompare import ComparisonReport, compare, stem_merge
from .pipeline import process_document
from .stemmer import stem

__all__ = [
    "PipelineConfig", "default_config", "load_config",
    "Dictionary", "build", "prune",
    "IngestReport", "RawRecord", "run_ingest",
    "ParetoFit", "fit_pareto", "gen_synthetic_corpus", "histogram",
    "ComparisonReport", "compare", "stem_merge",
    "process_document", "stem",
]
