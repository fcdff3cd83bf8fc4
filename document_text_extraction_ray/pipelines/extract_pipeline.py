"""Flagship pipeline: corpus -> main-content extraction -> fields -> sink.

Ray-Data-native restatement of the reference lifecycle (SURVEY.md §3.4):

    read_parquet(corpus)                          # or synthetic generation
      -> map_batches(extract_batch, pyarrow)      # S2/M18 + L-analogues + M1-M13
      -> checkpointed sink                        # S7 + lineage manifests
    driver: groupby("status").count() summary     # G3

Two resumable jobs, two partitioning strategies:
  * ``run_sharded_extraction_job`` — NO shuffle; commit unit = partition of
    input files (lineage: input file + row counts); resume prunes whole input
    files before the read.  The throughput flagship.
  * ``run_extraction_job`` — one range shuffle on the url-hash ``bucket``
    key over its known domain ``[0, n_buckets)`` (one reduce task per CPU,
    at most n_buckets); commit unit = bucket (hash-partitioned output
    layout for downstream bucket joins / dedup); resume filters rows by
    committed bucket.

No stage materializes the dataset; the streaming executor pipelines read,
extraction and write with backpressure, and the whole chain FUSES into one
read->extract->write operator per block.  The sharded job reads its
input through ``sources.corpus.read_corpus``; the bucketed job takes a
Dataset, which its callers build with it.  ``read_corpus`` runs the read
in one task per Ray CPU when there are at least that many files and they
hold no more than one block target each, so the read runs in one wave of
fused tasks instead of Ray's plan of several small ones per CPU; otherwise
Ray's plan stands.  Giant-HTML-payload corpora are defused with
``target_block_mb``: once the input passes that block target per file,
Ray's plan splits files into blocks of that size, so one giant row cannot
blow a worker heap (SURVEY.md §7.5 item 2).
"""

from __future__ import annotations

import functools
import os

import ray.data

from ..functions.html_extract import DEFAULT_CONFIG, ExtractConfig
from ..sources.corpus import read_corpus
from ..stages.extract import EXTRACTOR_VERSION, extract_batch
from ..state import checkpoint as ckpt

# Partition pipelines the sharded job overlaps (each its own Dataset
# execution driven from a thread), so the cluster never idles during one
# partition's commit tail.
MAX_CONCURRENT_PARTITIONS = 2


def extract_dataset(
    corpus: ray.data.Dataset,
    *,
    config: ExtractConfig = DEFAULT_CONFIG,
    n_buckets: int = 64,
    with_fields: bool = True,
) -> ray.data.Dataset:
    """Attach the extraction stage (``extract_batch`` as stateless tasks)."""
    # No batch_size: an explicit one stops Ray fusing this map with the read.
    return corpus.map_batches(
        functools.partial(extract_batch, config=config, n_buckets=n_buckets,
                          with_fields=with_fields),
        batch_format="pyarrow",
    )


def run_extraction_job(
    corpus: ray.data.Dataset,
    out_dir: str,
    *,
    run_id: str,
    input_path: str = "",
    n_buckets: int = 64,
    with_fields: bool = True,
) -> dict:
    """End-to-end resumable job: extract -> skip committed buckets -> commit.

    Returns the commit summary; rerunning after a crash (or a no-op rerun)
    skips every committed bucket and converges to the same final table.
    """
    extracted = extract_dataset(corpus, n_buckets=n_buckets, with_fields=with_fields)
    resumed = extracted.map_batches(
        ckpt.make_resume_filter(out_dir), batch_format="pyarrow"
    )
    return ckpt.write_bucketed(
        resumed, out_dir, run_id=run_id, input_path=input_path,
        extractor_version=EXTRACTOR_VERSION, n_buckets=n_buckets,
    )


def run_sharded_extraction_job(
    corpus_path: str,
    out_dir: str,
    *,
    run_id: str,
    files_per_partition: int = 8,
    n_buckets: int = 64,
    with_fields: bool = True,
    skip_failed_partitions: bool = False,
    target_block_mb: int | None = None,
) -> dict:
    """No-shuffle resumable job: the commit unit is a PARTITION OF INPUT FILES
    (north-star lineage: input file + row counts), not a hash bucket.

    Extraction is embarrassingly parallel, so hash-partitioning the OUTPUT is
    pure shuffle cost; instead each partition of input files streams through
    read -> extract -> write and commits atomically.  Resume prunes committed
    partitions BEFORE the read — skipped input files are never opened (cheaper
    than any row filter).  Use ``write_bucketed`` instead when downstream
    needs hash-partitioned layout (e.g. bucket-join dedup).

    ``skip_failed_partitions``: a partition whose READ fails (corrupt file,
    truncated footer — row-level poison is already handled in-band by the
    extractor) is recorded in ``summary["failed"]`` and the job continues;
    the partition stays uncommitted, so a rerun retries exactly it.  Default
    False: fail fast (committed partitions are still resumable).

    Each partition is read by ``read_corpus``: one fused
    read->extract->write task per Ray CPU when the partition has at least
    that many files and holds at most one ``DataContext.target_max_block_size``
    per file; Ray's own plan (which may split files) otherwise.

    ``target_block_mb``: payload-skew defusal.  It sets that block target
    for the job, so a smaller one (e.g. 8) hands a partition of giant-page
    files (multi-MB html rows) to Ray's plan, which emits blocks of that
    size and spreads the giant rows across tasks instead of letting one
    task hold them while the cluster idles (measured 30.6 s -> 20.6 s on a
    20x5.6 MB-row skew corpus).  Leaves the global DataContext as it found
    it — but the override mutates the PROCESS-GLOBAL DataContext for the
    guarded region's duration, so it assumes ONE extraction job per driver
    process: a second concurrent ``run_sharded_extraction_job`` (or any
    other Ray Data work on the same driver) would race on the override,
    and the finally-restore can clobber the other caller's setting.  Run
    concurrent jobs from separate driver processes, or leave
    ``target_block_mb=None``.
    """
    import glob as _glob
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    from ray.data import DataContext

    from ..util import stabilize_fsspec_http

    stabilize_fsspec_http()

    files = sorted(_glob.glob(os.path.join(corpus_path, "*.parquet")))
    partitions = [
        files[i: i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]
    ckpt.sweep_staging(out_dir)

    done = ckpt.committed_keys(out_dir, "part")
    summary = {"committed": 0, "skipped": 0, "rows": 0, "partitions": len(partitions)}

    def process(pid_chunk):
        pid, chunk = pid_chunk
        staged = os.path.join(out_dir, ckpt.STAGING_DIR, run_id, f"part={pid}")
        os.makedirs(staged, exist_ok=True)
        ds = extract_dataset(
            read_corpus(chunk),
            n_buckets=n_buckets, with_fields=with_fields,
        )
        ds.write_parquet(staged)
        stats = ckpt.part_stats(staged)
        manifest = {
            "part": pid,
            "input_files": chunk,
            "row_range": [0, stats["row_count"]],
            "extractor_version": EXTRACTOR_VERSION,
            "run_id": run_id,
            "committed_at_us": int(_time.time() * 1e6),
            **stats,
        }
        ckpt.commit_part(out_dir, run_id, pid, staged, manifest)
        return stats["row_count"]

    def guarded(pid_chunk):
        if not skip_failed_partitions:
            return pid_chunk[0], process(pid_chunk), None
        try:
            return pid_chunk[0], process(pid_chunk), None
        except Exception as exc:
            return pid_chunk[0], None, f"{type(exc).__name__}: {exc}"

    todo = [(pid, chunk) for pid, chunk in enumerate(partitions) if pid not in done]
    summary["skipped"] = len(partitions) - len(todo)
    summary["failed"] = []
    # Mutate the global block-size override immediately before the guarded
    # region so no exception path can leak it process-wide.
    _ctx = DataContext.get_current()
    _prev_block = _ctx.target_max_block_size
    try:
        if target_block_mb is not None:
            _ctx.target_max_block_size = target_block_mb * 1024 * 1024
        if todo:
            with ThreadPoolExecutor(max_workers=MAX_CONCURRENT_PARTITIONS) as ex:
                for pid, rows, err in ex.map(guarded, todo):
                    if err is not None:
                        summary["failed"].append({"part": pid, "error": err})
                    else:
                        summary["committed"] += 1
                        summary["rows"] += rows
    finally:
        _ctx.target_max_block_size = _prev_block
    ckpt.sweep_staging(out_dir)
    return summary


def status_summary(extracted: ray.data.Dataset):
    """G3 — the one true dataset-level aggregation of the reference
    (grid_detector_v4.py:410-415): success/failure accounting."""
    return extracted.groupby("status").count()
