"""Checkpointed, resumable Parquet output with per-unit lineage.

North-rule requirement (BASELINE.md "Resume gate"): each commit unit is
committed atomically with a lineage manifest (input, row counts, extractor
version, commit time).  A killed-and-restarted job skips committed units and
produces the same final table.  Both sinks run one protocol; only the unit
differs: ``bucket=K`` (one url-hash bucket, ``write_bucketed``) or
``part=K`` (one partition of input files, the sharded job's ``commit_part``).

Protocol (SURVEY.md §7.5 item 3 — sinks are at-least-once under retries):
  1. ``sweep_staging`` removes all of ``out/_staging`` (single-writer
     protocol: one job writes a given out_dir at a time);
  2. each unit is written under ``out/_staging/<run_id>/<unit>/``; task
     retries rewrite the same paths (idempotent); staging must be storage
     visible to the commit step (shared FS or object store on a cluster);
  3. ``_commit`` renames the staged dir to ``out/<unit>``, then atomically
     renames in ``out/_manifests/<unit>.json``.  **The manifest directory is
     the source of truth**, never a directory listing: files of a crashed
     run sit in staging or in an unlisted unit dir and are ignored;
  4. resume = ``committed_keys`` -> skip committed units (input files before
     the read, or a ``pc.is_in`` anti-filter on the bucket column).

A bucket manifest lists out_dir-relative paths, a part manifest basenames
under ``part=K/``; ``committed_files`` is the one reader that knows this.

The part sink is one execution per job: ``stage_parts`` runs in every task
of the sharded job, writes each partition's rows of its batch as one file
named by a digest of the batch's place in the execution and of its bytes,
and returns a stats row per file; the driver's ``PartLedger`` commits
partition K once the rows reported for it reach its input footers' row
count.  A partition is only the commit unit; its manifest (row, ok and
error counts, chars, html bytes, error-class histogram) is summed from
the stats rows, so nothing is re-read.
``part_stats`` (a re-read of a written part) stays for callers that
write a part by other means.

The bucket sink exchanges rows on the key domain it already knows,
``[0, n_buckets)``, through ``stages.exchange.bucket_exchange`` (fixed
range boundaries, no sampling stage, one reduce task per range), and every
task writes one file per bucket of its range.  Scale contract: see
``bucket_exchange`` (a task holds about 1/R of the rows).

On an object store (S3-style, no atomic rename) step 3 becomes
"manifest lists the staged file keys" — the manifest-as-truth protocol is
unchanged; only the rename is replaced.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST_DIR = "_manifests"
STAGING_DIR = "_staging"

# One row per file ``stage_parts`` writes.
PART_STATS_SCHEMA = pa.schema([
    ("part", pa.int32()), ("file", pa.string()),
    ("row_count", pa.int64()), ("ok_count", pa.int64()),
    ("total_chars", pa.int64()), ("html_bytes", pa.int64()),
    ("error_classes", pa.string()),
])


def committed_keys(out_dir: str, kind: str) -> set:
    """Ids of the committed ``kind`` units ("bucket" or "part"): those with
    a manifest, the only definition of 'done'."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return set()
    prefix = f"{kind}="
    return {
        int(n[len(prefix): -len(".json")])
        for n in os.listdir(mdir)
        if n.startswith(prefix) and n.endswith(".json")
    }


def sweep_staging(out_dir: str) -> None:
    """Remove all staging under ``out_dir`` (a crashed run's and this run's
    id alike: staging is never read before it is rewritten) and make sure
    the manifest dir exists."""
    shutil.rmtree(os.path.join(out_dir, STAGING_DIR), ignore_errors=True)
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)


def _commit(out_dir: str, run_id: str, unit: str, staged_dir: str,
            manifest: dict) -> None:
    """Atomically promote ``staged_dir`` to ``out_dir/unit`` + write its
    manifest ``unit.json``."""
    dst = os.path.join(out_dir, unit)
    if os.path.exists(dst):  # stale files from a crashed, uncommitted run
        shutil.rmtree(dst)
    os.rename(staged_dir, dst)
    path = os.path.join(out_dir, MANIFEST_DIR, f"{unit}.json")
    tmp = path + f".tmp.{run_id}"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh)
    os.rename(tmp, path)


def make_resume_filter(out_dir: str):
    """Vectorized batch filter dropping rows of already-committed buckets.

    Apply *after* the bucket column exists:
    ``ds.map_batches(make_resume_filter(out), batch_format="pyarrow")``.
    The committed set is captured once in the task closure (broadcast with the
    function, never re-shipped per batch).
    """
    import pyarrow as pa

    committed = pa.array(sorted(committed_keys(out_dir, "bucket")),
                         type=pa.int32())

    def _filter(batch):
        if len(committed) == 0:
            return batch
        mask = pc.is_in(pc.cast(batch.column("bucket"), pa.int32()),
                        value_set=committed)
        return batch.filter(pc.invert(mask))

    return _filter


def write_bucketed(
    ds,
    out_dir: str,
    run_id: str,
    input_path: str,
    extractor_version: str,
    n_buckets: int = 64,
) -> dict:
    """Stream ``ds`` (must carry a ``bucket`` column with values in
    ``[0, n_buckets)``) into checkpointed per-bucket Parquet under
    ``out_dir``; commit manifests; return summary.

    One ``bucket_exchange`` on the known key domain, then each bucket run
    is written to one file and its lineage stats are computed in-task.
    Scale contract: ``stages.exchange.bucket_exchange``.

    Idempotent: buckets already committed are never overwritten (their staged
    duplicates are discarded), so at-least-once task retries and job restarts
    both converge to exactly-once output.  A bucket that reaches the write
    step in two pieces (an unsorted block, or two stats rows) raises before
    any manifest is written: both pieces would write ``part-00000``.
    """
    import pyarrow as pa

    from ..stages.exchange import bucket_exchange

    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    sweep_staging(out_dir)

    def write_group(group: pa.Table) -> pa.Table:
        # The shuffle may dictionary-encode columns in some blocks; decode
        # so every committed file carries one uniform schema.
        for i, f in enumerate(group.schema):
            if pa.types.is_dictionary(f.type):
                group = group.set_column(
                    i, f.name, group.column(f.name).cast(f.type.value_type)
                )
        bucket = group.column("bucket")[0].as_py()
        bucket_dir = os.path.join(staging, f"bucket={bucket}")
        os.makedirs(bucket_dir, exist_ok=True)
        pq.write_table(group, os.path.join(bucket_dir, "part-00000.parquet"))
        stats = _table_stats(group)
        return pa.table({"bucket": [bucket], "row_count": [group.num_rows],
                         "ok_count": [stats["ok_count"]],
                         "total_chars": [stats["total_chars"]]})

    # Per-bucket writes, not write_parquet(partition_cols=...), which fans
    # every block into every bucket dir: blocks x buckets tiny files.
    stats_rows = bucket_exchange(ds, "bucket", n_buckets, write_group,
                                 "pyarrow").take_all()
    seen = collections.Counter(int(r["bucket"]) for r in stats_rows)
    split = sorted(b for b, n in seen.items() if n > 1)
    if split:
        raise RuntimeError(
            f"write_bucketed: buckets {split} were written in more than one "
            "piece; nothing committed")

    committed_before = committed_keys(out_dir, "bucket")
    summary = {"committed": 0, "skipped": 0, "rows": 0}
    for row in sorted(stats_rows, key=lambda r: r["bucket"]):
        bucket = int(row["bucket"])
        if bucket in committed_before:
            summary["skipped"] += 1
            continue
        unit = f"bucket={bucket}"
        src = os.path.join(staging, unit)
        files = sorted(f for f in os.listdir(src) if f.endswith(".parquet"))
        _commit(out_dir, run_id, unit, src, {
            "bucket": bucket,
            "input_path": input_path,
            "files": [os.path.join(unit, f) for f in files],
            "row_count": int(row["row_count"]),
            "ok_count": int(row["ok_count"]),
            "error_count": int(row["row_count"]) - int(row["ok_count"]),
            "total_chars": int(row["total_chars"]),
            "extractor_version": extractor_version,
            "run_id": run_id,
            "committed_at_us": int(time.time() * 1e6),
        })
        summary["committed"] += 1
        summary["rows"] += int(row["row_count"])
    sweep_staging(out_dir)
    return summary


def commit_part(out_dir: str, run_id: str, part_id: int, staged_dir: str,
                manifest: dict) -> None:
    """Atomically promote a staged partition dir + write its manifest."""
    _commit(out_dir, run_id, f"part={part_id}", staged_dir, manifest)


def _table_stats(table) -> dict:
    """``ok_count`` (rows whose ``status`` is "ok") and ``total_chars`` (the
    sum of ``n_chars``) of an extracted table; 0 for a column it lacks."""
    names = table.column_names
    ok = chars = 0
    if "status" in names:
        ok = pc.sum(pc.cast(pc.equal(table.column("status"), "ok"),
                            "int64")).as_py() or 0
    if "n_chars" in names:
        chars = pc.sum(table.column("n_chars")).as_py() or 0
    return {"ok_count": ok, "total_chars": chars}


def _batch_position() -> tuple:
    """``(task index, batch number)`` of the calling Ray Data map task:
    distinct for every batch of one execution, and the same again when Ray
    retries the task (same task index, same batches in the same order);
    ``()`` outside a Ray Data task."""
    try:
        from ray.data._internal.execution.interfaces.task_context import (
            TaskContext,
        )
    except ImportError:
        return ()
    ctx = TaskContext.get_current()
    if ctx is None:
        return ()
    seq = ctx.kwargs.get("stage_parts_batches", 0)
    ctx.kwargs["stage_parts_batches"] = seq + 1
    return (ctx.task_idx, seq)


def _error_classes(errors) -> dict:
    """Histogram of the ``Type`` prefix of in-band ``error`` strings
    ("Type: message"); empty strings (ok rows) are not counted."""
    return dict(collections.Counter(
        e.split(":", 1)[0] for e in errors.to_pylist() if e))


def stage_parts(batch, staging: str):
    """The sharded sink's write-and-report step, run in the task that
    extracted ``batch``.

    ``batch`` is extracted rows plus the job's ``part`` (partition id) and
    ``file`` (input file index) tags.  Each partition's rows are written,
    without the tags, as one Parquet file of one row group under
    ``staging/part=K/``, named by a digest of the batch's place in the
    execution (``_batch_position``), its input files and the file's bytes:
    a retried task rewrites the same file, and a stats row sent twice
    carries the same ``file``, which is the key the driver counts by,
    while two batches never share a name, even with identical rows.
    Returns one stats row per file: ``part``, ``file``, ``row_count``,
    ``ok_count``, ``total_chars``, ``html_bytes`` and ``error_classes`` (a
    JSON ``{Type: count}``).  No part re-read."""
    position = _batch_position()
    rows = []
    parts = batch.column("part")
    for pid in pc.unique(parts).to_pylist():
        group = batch.filter(pc.equal(parts, pid))
        files = pc.unique(group.column("file")).to_pylist()
        table = group.drop_columns(["part", "file"])
        sink = pa.BufferOutputStream()
        pq.write_table(table, sink, row_group_size=table.num_rows)
        data = sink.getvalue()
        digest = hashlib.blake2b(f"{pid}:{position}:{files}\0".encode(),
                                 digest_size=16)
        digest.update(data)
        name = f"{digest.hexdigest()}.parquet"
        part_dir = os.path.join(staging, f"part={pid}")
        os.makedirs(part_dir, exist_ok=True)
        with open(os.path.join(part_dir, name), "wb") as fh:
            fh.write(data)
        rows.append({
            "part": pid, "file": name, "row_count": table.num_rows,
            **_table_stats(table),
            "html_bytes": pc.sum(table.column("html_bytes")).as_py() or 0,
            "error_classes": json.dumps(
                _error_classes(table.column("error"))),
        })
    return pa.Table.from_pylist(rows, schema=PART_STATS_SCHEMA)


class PartLedger:
    """The driver's side of the sharded sink: tallies ``stage_parts`` stats
    rows per partition and commits partition K through ``commit_part`` as
    soon as the rows reported for it reach the row count its input files'
    footers declare.  The manifest is built from the stats rows alone.

    A stats row whose ``file`` was already counted (a retried task sent it
    again), or that names a partition already committed or never expected,
    is ignored, so no row is counted twice and no partition commits twice.
    """

    def __init__(self, out_dir: str, run_id: str, extractor_version: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.extractor_version = extractor_version
        self.staging = os.path.join(out_dir, STAGING_DIR, run_id)
        self.pending = {}       # part -> tally of its reported stats rows
        self.committed = {}     # part -> committed row count

    def expect(self, part: int, input_files: list, row_count: int) -> None:
        """Register partition ``part``: ``row_count`` rows from
        ``input_files``.  A partition with no rows commits at once."""
        self.pending[part] = {
            "input_files": input_files, "expected": row_count, "files": [],
            "row_count": 0, "ok_count": 0, "total_chars": 0, "html_bytes": 0,
            "error_classes": collections.Counter(),
        }
        if row_count == 0:
            self._commit(part)

    def report(self, row: dict) -> None:
        """Count one stats row; commit its partition once complete."""
        tally = self.pending.get(row["part"])
        if tally is None or row["file"] in tally["files"]:
            return
        tally["files"].append(row["file"])
        for key in ("row_count", "ok_count", "total_chars", "html_bytes"):
            tally[key] += row[key]
        tally["error_classes"].update(json.loads(row["error_classes"]))
        if tally["row_count"] == tally["expected"]:
            self._commit(row["part"])

    def _commit(self, part: int) -> None:
        tally = self.pending.pop(part)
        rows = tally["row_count"]
        staged = os.path.join(self.staging, f"part={part}")
        os.makedirs(staged, exist_ok=True)   # a partition of empty files
        commit_part(self.out_dir, self.run_id, part, staged, {
            "part": part,
            "input_files": tally["input_files"],
            "row_range": [0, rows],
            "extractor_version": self.extractor_version,
            "run_id": self.run_id,
            "committed_at_us": int(time.time() * 1e6),
            "files": sorted(tally["files"]),
            "row_count": rows,
            "ok_count": tally["ok_count"],
            "error_count": rows - tally["ok_count"],
            "total_chars": tally["total_chars"],
            "html_bytes": tally["html_bytes"],
            "error_classes": dict(tally["error_classes"].most_common()),
        })
        self.committed[part] = rows


def part_stats(part_dir: str) -> dict:
    """Lineage stats from the written files (footers + two thin columns)."""
    files = sorted(
        os.path.join(part_dir, f) for f in os.listdir(part_dir)
        if f.endswith(".parquet")
    )
    rows = ok = chars = 0
    for f in files:
        rows += pq.read_metadata(f).num_rows
        stats = _table_stats(pq.read_table(f, columns=["status", "n_chars"],
                                           partitioning=None))
        ok += stats["ok_count"]
        chars += stats["total_chars"]
    return {
        "files": [os.path.basename(f) for f in files],
        "row_count": rows,
        "ok_count": ok,
        "error_count": rows - ok,
        "total_chars": chars,
    }


def _manifests(out_dir: str):
    """(kind, key, manifest) of every committed manifest, buckets first."""
    for kind in ("bucket", "part"):
        for key in sorted(committed_keys(out_dir, kind)):
            path = os.path.join(out_dir, MANIFEST_DIR, f"{kind}={key}.json")
            with open(path) as fh:
                yield kind, key, json.load(fh)


def committed_files(out_dir: str) -> list:
    """The exact file list of the committed table (manifest-driven read),
    over bucket and part manifests alike."""
    files = []
    for kind, key, m in _manifests(out_dir):
        base = out_dir if kind == "bucket" else os.path.join(out_dir, f"part={key}")
        files.extend(os.path.join(base, f) for f in m["files"])
    return files


def read_committed_table(out_dir: str, columns=None):
    """Read the committed table via the manifest file list.

    ``partitioning=None`` is required: the ``bucket=K`` directory names would
    otherwise be hive-inferred as a dictionary-typed ``bucket`` column,
    conflicting with the physical int32 column stored in the files."""
    return pq.read_table(committed_files(out_dir), columns=columns,
                         partitioning=None)


def read_committed_dataset(out_dir: str, columns=None):
    """Ray Dataset over the committed files (manifest-driven, resumable
    read), sized by ``read_corpus``.

    Unlike ``pq.read_table``, Ray's reader does not hive-infer partition
    columns from the ``bucket=K`` paths by default (and passing
    ``partitioning=None`` trips a Ray 2.49 UnboundLocalError), so no
    override is needed here."""
    from ..sources.corpus import read_corpus

    return read_corpus(committed_files(out_dir), columns=columns)


def read_manifests(out_dir: str) -> list:
    """All committed manifests — bucket-keyed and part-keyed alike."""
    return [m for _, _, m in _manifests(out_dir)]


def export_snapshot(out_dir: str, snap_dir: str) -> dict:
    """Publish a CONSISTENT zero-copy snapshot of the committed table:
    hardlink every committed data file and copy the manifest set into
    ``snap_dir`` (mirroring the layout, so ``read_committed_table(snap_dir)``
    and ``read_committed_dataset(snap_dir)`` work unchanged).

    Snapshot isolation on a plain filesystem: a later run that recommits a
    partition ``rmtree``s + renames the live part dir, but the hardlinked
    inodes keep the snapshot's bytes alive — readers of ``snap_dir`` see
    the table exactly as of export, forever (the Iceberg snapshot idea
    without a table format: manifests ARE the snapshot spec, hardlinks
    make the data files immutable from the snapshot's viewpoint).
    Falls back to a byte copy where hardlinks are unsupported.

    Returns {"files": n, "rows": total} for the exported manifest set."""
    os.makedirs(os.path.join(snap_dir, MANIFEST_DIR), exist_ok=True)
    files = committed_files(out_dir)
    rows = 0
    for src in files:
        rel = os.path.relpath(src, out_dir)
        dst = os.path.join(snap_dir, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if os.path.exists(dst):
            os.remove(dst)
        try:
            os.link(src, dst)
        except OSError:
            shutil.copy2(src, dst)
        rows += pq.read_metadata(dst).num_rows
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    for name in os.listdir(mdir):
        if name.endswith(".json"):
            shutil.copy2(os.path.join(mdir, name),
                         os.path.join(snap_dir, MANIFEST_DIR, name))
    return {"files": len(files), "rows": rows}
