"""Flagship pipeline: corpus -> main-content extraction -> fields -> sink.

Ray-Data-native restatement of the reference lifecycle (SURVEY.md §3.4):

    read_parquet(corpus)                          # or synthetic generation
      -> map_batches(extract_batch, pyarrow)      # S2/M18 + L-analogues + M1-M13
      -> checkpointed sink                        # S7 + lineage manifests
    driver: groupby("status").count() summary     # G3

Two resumable jobs, two partitioning strategies:
  * ``run_sharded_extraction_job`` — NO shuffle, ONE Dataset execution per
    job: read -> tag -> extract -> write-and-report, fused into one
    operator; the commit unit is a partition of input files (lineage:
    input files + row counts), which is only the commit unit, never an
    execution unit; its manifest comes from in-task stats rows; resume
    prunes whole input files before the read.  The throughput flagship.
  * ``run_extraction_job`` — one range shuffle on the url-hash ``bucket``
    key over its known domain ``[0, n_buckets)`` (one reduce task per CPU,
    at most n_buckets); commit unit = one exchange range, written as one
    bucket-sorted file whose manifest lists its buckets and each one's row
    span (hash-partitioned output layout for downstream bucket joins /
    dedup); resume filters rows by committed bucket.

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

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.html_extract import DEFAULT_CONFIG, ExtractConfig
from ..sources.corpus import read_corpus
from ..stages.extract import EXTRACTOR_VERSION, extract_batch
from ..state import checkpoint as ckpt


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
    """End-to-end resumable job: extract -> skip committed buckets -> commit
    each exchange range as one file with its bucket list
    (``checkpoint.write_bucketed``).

    Returns the commit summary, counted in buckets; rerunning after a crash
    (or a no-op rerun) skips every committed bucket and converges to the
    same final table.
    """
    extracted = extract_dataset(corpus, n_buckets=n_buckets, with_fields=with_fields)
    resumed = extracted.map_batches(
        ckpt.make_resume_filter(out_dir), batch_format="pyarrow"
    )
    return ckpt.write_bucketed(
        resumed, out_dir, run_id=run_id, input_path=input_path,
        extractor_version=EXTRACTOR_VERSION, n_buckets=n_buckets,
    )


def _tag_inputs(batch: pa.Table, files: list, parts: list) -> pa.Table:
    """Replace Ray's ``path`` column by the row's input-file index
    (``file``) and partition id (``part``)."""
    file = pc.index_in(batch.column("path"), value_set=pa.array(files))
    if file.null_count:
        raise ValueError("a row came from a file outside the job's input")
    return (batch.drop_columns(["path"])
            .append_column("part", pc.take(pa.array(parts, pa.int32()), file))
            .append_column("file", file))


def _extract_tagged(batch: pa.Table, n_buckets: int,
                    with_fields: bool) -> pa.Table:
    """``extract_batch``, carrying the ``part`` and ``file`` tags along."""
    out = extract_batch(batch, n_buckets=n_buckets, with_fields=with_fields)
    return (out.append_column("part", batch.column("part"))
            .append_column("file", batch.column("file")))


def _read_columns(schemas: list) -> list | None:
    """The input columns ``extract_batch`` reads: ``url``, ``warc_ts``,
    ``html``, and ``lang`` when the files have it; None (every column)
    when only some files have ``lang``, since a projection must name
    columns that every file holds."""
    with_lang = ["lang" in names for names in schemas]
    if any(with_lang) and not all(with_lang):
        return None
    return ["url", "warc_ts", "html"] + (["lang"] if all(with_lang) else [])


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

    The job is ONE Dataset execution, one fused operator:
    ``read_corpus(todo files)`` -> tag each row with its input file and
    partition -> ``extract_batch`` -> ``ckpt.stage_parts``, which writes each
    partition's rows of its batch as one Parquet file of one row group under
    ``_staging/<run_id>/part=K/`` and returns one stats row per file.  The
    tag map is the first map after the read, so Ray hands extraction and the
    write one batch per read task (up to one block target), not one block
    per input file.  The driver reads each todo file's footer first (row
    count and columns), streams the stats rows, and ``ckpt.PartLedger``
    commits partition K once all of its rows have reported: a partition is
    only the commit unit, and its manifest (row, ok and error counts, chars,
    html bytes, error classes) comes from the stats rows, with no re-read.
    A task's stats rows reach the driver together, when the task ends (Ray
    gathers small output blocks), so no read task reads files of two
    partitions (``read_corpus(groups=...)``): partitions commit as the
    tasks that read them end, and a killed job keeps every partition
    committed by then.  At one CPU a partition of whole size is one task,
    one batch and one file; a shorter last partition can make Ray's even
    split of the files cut every partition into smaller tasks (8+8+4 files
    read as 5 tasks of 4).  The read asks only for the columns
    ``extract_batch`` reads.
    Resume prunes committed partitions BEFORE the read — their input files
    are never opened.  Use ``write_bucketed`` instead when downstream needs
    a hash-partitioned layout (e.g. bucket-join dedup).

    ``skip_failed_partitions``: a partition that fails is recorded in
    ``summary["failed"]`` and stays uncommitted, so a rerun retries exactly
    it; the job returns normally.  A file whose footer cannot be read
    (corrupt, truncated) fails only its own partition, before the
    execution starts.  A failure inside the one execution (a read error
    past the footer) fails EVERY partition not yet committed, since the
    execution stops; so does a partition whose reported rows never reach
    its footers' count.  Row-level poison never fails anything: the
    extractor turns it into an in-band error row.  Default False: raise
    (committed partitions stay committed and resumable).

    ``target_block_mb``: payload-skew defusal.  It sets the job Dataset's
    own block target (``read_corpus(block_target=...)``), so a smaller one
    (e.g. 8) hands giant-page files (multi-MB html rows) to Ray's read
    plan, which splits files into blocks of that size and spreads the
    giant rows across tasks (measured 30.6 s -> 20.6 s on a 20x5.6 MB-row
    skew corpus), and caps every batch of the job at that size.  The
    process-global ``DataContext`` is not touched, so concurrent jobs in
    one driver may use different targets.
    """
    import glob as _glob

    import pyarrow.parquet as pq

    from ..util import stabilize_fsspec_http

    stabilize_fsspec_http()

    files = sorted(_glob.glob(os.path.join(os.path.abspath(corpus_path),
                                           "*.parquet")))
    partitions = [
        files[i: i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]
    ckpt.sweep_staging(out_dir)
    done = ckpt.committed_keys(out_dir, "part")
    summary = {"committed": 0, "skipped": 0, "rows": 0,
               "partitions": len(partitions), "failed": []}

    def fail(pids, exc: Exception) -> None:
        if not skip_failed_partitions:
            raise exc
        error = f"{type(exc).__name__}: {exc}"
        summary["failed"] += [{"part": pid, "error": error} for pid in pids]

    ledger = ckpt.PartLedger(out_dir, run_id, EXTRACTOR_VERSION)
    todo_files, todo_parts, groups, schemas = [], [], [], []
    for pid, chunk in enumerate(partitions):
        if pid in done:
            summary["skipped"] += 1
            continue
        try:
            footers = [pq.read_metadata(f) for f in chunk]
        except Exception as exc:
            fail([pid], exc)
            continue
        todo_files += chunk
        todo_parts += [pid] * len(chunk)
        groups.append(len(chunk))
        schemas += [md.schema.to_arrow_schema().names for md in footers]
        ledger.expect(pid, chunk, sum(md.num_rows for md in footers))

    if ledger.pending:
        block_target = (None if target_block_mb is None
                        else target_block_mb * 1024 * 1024)
        stats = (
            read_corpus(todo_files, columns=_read_columns(schemas),
                        include_paths=True, block_target=block_target,
                        groups=groups)
            .map_batches(functools.partial(_tag_inputs, files=todo_files,
                                           parts=todo_parts),
                         batch_format="pyarrow")
            .map_batches(functools.partial(_extract_tagged,
                                           n_buckets=n_buckets,
                                           with_fields=with_fields),
                         batch_format="pyarrow")
            .map_batches(functools.partial(ckpt.stage_parts,
                                           staging=ledger.staging),
                         batch_format="pyarrow")
        )
        try:
            for batch in stats.iter_batches(batch_size=None,
                                            batch_format="pyarrow"):
                for row in batch.to_pylist():
                    ledger.report(row)
        except Exception as exc:
            fail(sorted(ledger.pending), exc)
        else:
            for pid, tally in sorted(ledger.pending.items()):
                fail([pid], RuntimeError(
                    f"partition {pid}: {tally['row_count']} of "
                    f"{tally['expected']} rows reported"))
    summary["committed"] = len(ledger.committed)
    summary["rows"] = sum(ledger.committed.values())
    ckpt.sweep_staging(out_dir)
    return summary


def status_summary(extracted: ray.data.Dataset):
    """G3 — the one true dataset-level aggregation of the reference
    (grid_detector_v4.py:410-415): success/failure accounting."""
    return extracted.groupby("status").count()
