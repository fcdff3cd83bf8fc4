"""Output checks.  A job passes only when every check holds; the counts feed
``error_share`` (error rows plus missing rows, over input rows).

Extraction jobs (``check_committed``):
  * every committed url is an input url, committed exactly once, with
    ``status == "ok"`` and ``extracted_text`` byte-identical to the golden
    text (compared as digests);
  * every input url is committed;
  * each manifest's ``row_count`` equals the rows in the files it lists.

Curation job (``check_survivors``):
  * no two survivors share text, and each survivor's text is golden;
  * the survivors are exactly the minimum url of every group of identical
    golden texts that passes the job's quality and language gates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow.parquet as pq

from document_text_extraction_ray.functions import textstats as T
from document_text_extraction_ray.state import checkpoint as ckpt

from inputs import Corpus, text_digest


@dataclass
class Outcome:
    rows: int = 0              # rows the job committed
    error_rows: int = 0        # committed rows that are wrong
    missing_rows: int = 0      # expected rows that were not committed
    out_bytes: int = 0         # committed Parquet bytes
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.error_rows or self.missing_rows or self.problems)


def _compare_rows(urls, texts, expected: dict, outcome: Outcome,
                  statuses=None) -> None:
    """Count wrong and missing rows of ``(urls, texts)`` against ``expected``
    (url -> golden text).  A url seen twice counts as a wrong row."""
    digests = {u: text_digest(t) for u, t in expected.items()}
    seen = set()
    for k, (url, text) in enumerate(zip(urls, texts)):
        bad = (url in seen or url not in digests
               or (statuses is not None and statuses[k] != "ok")
               or text_digest(text or "") != digests[url])
        seen.add(url)
        outcome.error_rows += bad
    outcome.missing_rows = len(digests.keys() - seen)
    outcome.rows = len(urls)


def _manifest_files(out_dir: str, manifest: dict) -> list:
    if "part" in manifest:   # sharded sink: basenames under part=K/
        return [os.path.join(out_dir, f"part={manifest['part']}", f)
                for f in manifest["files"]]
    return [os.path.join(out_dir, f) for f in manifest["files"]]


def check_committed(corpus: Corpus, out_dir: str) -> Outcome:
    """Checks for the checkpointed extraction sinks (sharded and bucketed)."""
    outcome = Outcome()
    files = []
    for m in ckpt.read_manifests(out_dir):
        m_files = _manifest_files(out_dir, m)
        m_rows = sum(pq.read_metadata(f).num_rows for f in m_files)
        if m_rows != m["row_count"]:
            outcome.problems.append(
                f"manifest {m.get('part', m.get('bucket'))}: row_count "
                f"{m['row_count']} != {m_rows} rows in its files")
        files.extend(m_files)
    if not files:
        outcome.missing_rows = corpus.n_docs
        outcome.problems.append("no committed files")
        return outcome
    table = pq.read_table(files, columns=["url", "extracted_text", "status"],
                          partitioning=None)
    _compare_rows(table.column("url").to_pylist(),
                  table.column("extracted_text").to_pylist(),
                  corpus.golden, outcome, table.column("status").to_pylist())
    outcome.out_bytes = sum(os.path.getsize(f) for f in files)
    return outcome


def passes_gates(text: str, min_chars: int, min_score: float, langs) -> bool:
    """The row-dropping gates of ``prepare_training_data`` restated from the
    public text-statistics functions."""
    q = T.quality_score(text)
    return (q["n_chars"] >= min_chars and q["score"] >= min_score
            and T.detect_language(text) in langs)


def expected_survivors(golden: dict, min_chars: int, min_score: float,
                       langs) -> dict:
    """url -> text of the rows exact dedup must keep: per group of identical
    golden texts that passes the gates, the group's minimum url."""
    keep = {}
    for url, text in golden.items():
        if text in keep:
            keep[text] = min(keep[text], url)
        elif passes_gates(text, min_chars, min_score, langs):
            keep[text] = url
    return {url: text for text, url in keep.items()}


def check_survivors(corpus: Corpus, out_dir: str, expected: dict) -> Outcome:
    """Checks for the curated training-data output under ``out_dir``."""
    outcome = Outcome()
    files = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                   if f.endswith(".parquet"))
    if not files:
        outcome.missing_rows = len(expected)
        outcome.problems.append("no output files")
        return outcome
    table = pq.read_table(files, columns=["url", "extracted_text"])
    texts = table.column("extracted_text").to_pylist()
    if len(set(texts)) != len(texts):
        outcome.problems.append(
            f"{len(texts) - len(set(texts))} survivors share text")
    _compare_rows(table.column("url").to_pylist(), texts, expected, outcome)
    outcome.out_bytes = sum(os.path.getsize(f) for f in files)
    return outcome
