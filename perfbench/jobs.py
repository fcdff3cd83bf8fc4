"""The benchmark's workloads: one public pipeline call each, plus its checks.

Each job reads a generated corpus and writes to a fresh output directory;
run.py runs them one at a time (closed loop, one client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from document_text_extraction_ray.pipelines.extract_pipeline import (
    run_extraction_job,
    run_sharded_extraction_job,
)
from document_text_extraction_ray.pipelines.training_data import (
    prepare_training_data,
)
from document_text_extraction_ray.sources.corpus import read_corpus

from checks import Outcome, check_committed, check_survivors, expected_survivors
from inputs import Corpus

# prepare_training_data's gate settings, passed explicitly so the survivor
# check restates the same gates (these are the library defaults).
MIN_CHARS = 80
MIN_SCORE = 0.25
LANGS = ("en",)


def run_sharded_fields(corpus: Corpus, out_dir: str, run_id: str) -> None:
    run_sharded_extraction_job(corpus.path, out_dir, run_id=run_id,
                               with_fields=True)


def run_bucketed_text(corpus: Corpus, out_dir: str, run_id: str) -> None:
    run_extraction_job(read_corpus(corpus.path), out_dir, run_id=run_id,
                       input_path=corpus.path, with_fields=False)


def run_curate_dups(corpus: Corpus, out_dir: str, run_id: str) -> None:
    survivors, _ = prepare_training_data(
        read_corpus(corpus.path), min_chars=MIN_CHARS, min_score=MIN_SCORE,
        langs=LANGS, near_dedup=False)
    survivors.write_parquet(out_dir)


def check_curate_dups(corpus: Corpus, out_dir: str) -> Outcome:
    return check_survivors(corpus, out_dir, expected_survivors(
        corpus.golden, MIN_CHARS, MIN_SCORE, LANGS))


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int          # input pages per job
    dup_share: float     # share of the input that is byte-identical copies
    run: Callable[[Corpus, str, str], None]
    check: Callable[[Corpus, str], Outcome]


# Input sizes keep one job near 2 s on one core, so a 25 s run holds about
# twelve jobs.  BENCHMARK.json lists sharded_fields and bucketed_text only:
# with curate_dups too, 25 s runs do not fit the time the full set of
# benchmark runs is given.  curate_dups stays runnable by name, and the
# traced pass of the other two measures its gate and dedup layers.
WORKLOADS = {
    w.name: w for w in (
        Workload("sharded_fields", 2000, 0.0, run_sharded_fields,
                 check_committed),
        Workload("bucketed_text", 2000, 0.0, run_bucketed_text,
                 check_committed),
        Workload("curate_dups", 1000, 0.2, run_curate_dups,
                 check_curate_dups),
    )
}
