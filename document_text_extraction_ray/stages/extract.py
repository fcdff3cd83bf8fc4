"""Extraction stages: html -> main text (+spans), text -> fields.

Batch contract: ``batch_format="pyarrow"`` in and out (zero-copy from the
object store).  Parsing is inherently per-document, so the UDF body loops rows
*inside* one Arrow batch (the reference's per-file loop,
grid_detector_v4.py:369-378, shrunk to batch granularity) — but every
column materialization is Arrow-typed and built once per batch.

Error policy preserved from the reference (approach4_v1.py:236-243 /
llm_approach/1_batch.py:230-243): a poison document yields an in-band
``status='error'`` row; the task never dies.
"""

from __future__ import annotations

import zlib

import pyarrow as pa

from .. import schema as S
from ..functions import fields as F
from ..functions.html_extract import DEFAULT_CONFIG, ExtractConfig, extract_page

EXTRACTOR_VERSION = "dte-ray-0.1.0"


def url_bucket_array(urls, n_buckets: int) -> pa.Array:
    """crc32(url) % n_buckets — the engine's single partitioning key
    (SURVEY.md §7.4), reused by checkpointing, skew defusal and dedup."""
    return pa.array(
        [zlib.crc32(u.encode("utf-8")) % n_buckets for u in urls],
        type=pa.int32(),
    )


def extract_batch(batch: pa.Table, config: ExtractConfig = DEFAULT_CONFIG,
                  n_buckets: int = 64, with_fields: bool = True) -> pa.Table:
    """The extraction stage: one stateless task per Arrow batch.

    The kernel holds no state (regexes are module-level constants, already
    warm in reused Ray workers), so a task pool schedules elastically and
    skips actor-pool spin-up (~6s per pipeline execution measured at 32
    CPUs).  ``extract_page`` runs per row; with ``with_fields`` the batch's
    texts (an error row's is "") go through one ``F.batch_fields`` call,
    which imports polars on its first call in the process.  Both are looked
    up at call time, so a caller can swap either kernel for the whole
    batch.  ``F.extract_all_fields``, also looked up at call time, sees
    only the non-ASCII rows, which ``batch_fields`` hands to it."""
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    langs = (
        batch.column("lang").to_pylist()
        if "lang" in batch.column_names else [""] * len(urls)
    )

    texts, spans_col, titles, n_blocks, n_chars = [], [], [], [], []
    statuses, errors = [], []
    for html_bytes in htmls:
        try:
            page = extract_page(html_bytes, config)
            text = page["text"]
            texts.append(text)
            spans_col.append(
                [{"start": s, "end": e, "kind": k} for s, e, k in page["spans"]]
            )
            titles.append(page["title"])
            n_blocks.append(page["n_blocks"])
            n_chars.append(len(text))
            statuses.append("ok")
            errors.append("")
        except Exception as exc:  # in-band error row, batch keeps going
            texts.append("")
            spans_col.append([])
            titles.append("")
            n_blocks.append(0)
            n_chars.append(0)
            statuses.append("error")
            errors.append(f"{type(exc).__name__}: {exc}")

    text_array = pa.array(texts, type=pa.large_string())
    arrays = [
        batch.column("url"),
        batch.column("warc_ts"),
        pa.array(langs, type=pa.string()),
        url_bucket_array(urls, n_buckets),
        text_array,
        pa.array(spans_col, type=pa.large_list(S.SPAN_TYPE)),
        pa.array(titles, type=pa.string()),
        pa.array(n_blocks, type=pa.int32()),
        pa.array(n_chars, type=pa.int64()),
        pa.array([len(h) if h is not None else 0 for h in htmls], type=pa.int64()),
        pa.array(statuses, type=pa.string()),
        pa.array(errors, type=pa.string()),
    ]
    out_schema = S.EXTRACTED_SCHEMA
    if with_fields:
        arrays.append(F.batch_fields(text_array))
        out_schema = S.FIELDS_SCHEMA
    return pa.Table.from_arrays(arrays, schema=out_schema)


def extract_fields_batch(batch: pa.Table,
                         text_column: str = "extracted_text") -> pa.Table:
    """Standalone field-extraction stage over an ``extracted_text`` (or
    ``text``) column — M1-M13 in one ``F.batch_fields`` pass per batch
    (SURVEY.md §2.2); a null text reads as ""."""
    return batch.append_column(
        pa.field("fields", S.FIELDS_TYPE),
        F.batch_fields(batch.column(text_column)),
    )
