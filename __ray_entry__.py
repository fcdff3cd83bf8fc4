"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``       — flagship extraction pipeline on /root/testdata/sf0.001
- ``queries()``     — one callable per implemented operator family
                      (SURVEY.md §2 + the training-data operators)
- ``oracle_sql()``  — DuckDB-equivalent SQL per query where expressible
                      (288 of 296, incl. SQL reconstructions of the
                      language-ID/quality/token/fingerprint kernels and
                      an unrolled 5-stage replay of BPE merge learning);
                      the QUERIES registry lists oracle-backed queries
                      FIRST (rows-only last) so a leading-window
                      correctness check covers them; the 8 rows-only
                      queries (wrapping-uint64 MinHash sketches, raw
                      approximate-ANN neighbor lists — recall-gated via
                      ann_recall — synthetic-corpus extraction, pinned
                      to local references in tests) sit at the tail.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: wrap documents into Common-Crawl-style pages ->
    boilerplate-strip extraction -> fields; returns the extracted Dataset."""
    from document_text_extraction_ray.pipelines.extract_pipeline import extract_dataset
    from document_text_extraction_ray.sources.corpus import corpus_from_documents

    corpus = corpus_from_documents(SF_SMOKE)
    out = extract_dataset(corpus, with_fields=True)
    return out.select_columns(
        ["url", "warc_ts", "lang", "bucket", "extracted_text",
         "n_blocks", "n_chars", "status"]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from document_text_extraction_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from document_text_extraction_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
