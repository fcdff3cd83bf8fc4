"""Checkpointed, resumable Parquet output with per-unit lineage.

North-rule requirement (BASELINE.md "Resume gate"): each commit unit is
committed atomically with a lineage manifest (input, row counts, extractor
version, commit time).  A killed-and-restarted job skips committed units and
produces the same final table.  Both sinks run one protocol; only the unit
differs: ``buckets=F-L`` (one file holding the url-hash buckets F..L of one
exchange range, ``write_bucketed``) or ``part=K`` (one partition of input
files, the sharded job's ``commit_part``).

Protocol (SURVEY.md §7.5 item 3 — sinks are at-least-once under retries):
  1. ``sweep_staging`` removes all of ``out/_staging`` (single-writer
     protocol: one job writes a given out_dir at a time);
  2. each unit is written under ``out/_staging/<run_id>/<unit>/``: a bucket
     unit as one file, a part as one file per task that read it; task
     retries rewrite the same paths (idempotent); staging must be storage
     visible to the commit step (shared FS or object store on a cluster);
  3. ``_commit`` renames the staged dir to ``out/<unit>``, then atomically
     renames in ``out/_manifests/<unit>.json``.  **The manifest directory is
     the source of truth**, never a directory listing: files of a crashed
     run sit in staging or in an unlisted unit dir and are ignored.  A
     bucket unit's manifest lists its buckets, each with its ``[start,
     end)`` row span in the unit's file and its counts;
  4. resume = ``committed_keys`` (part ids, or the union of the bucket
     units' bucket lists) -> skip committed units (input files before the
     read, or a ``pc.is_in`` anti-filter on the bucket column).

A bucket manifest lists out_dir-relative paths, a part manifest basenames
under ``part=K/``; ``committed_files`` is the one reader that knows this.
Both carry rows, ok, error and char counts, html bytes and an error-class
histogram, so ``summary`` reads a run from its manifests alone.

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
``[0, n_buckets)``, through ``stages.exchange.range_exchange`` (fixed
range boundaries, no sampling stage, one reduce task per range), and every
task writes its range, sorted by bucket, as one file: R = min(n_buckets,
Ray CPUs) files and manifests per run, so Parquet's per-file cost (footer,
schema, column-chunk set-up) is paid once per range, not once per bucket.
Scale contract: see ``range_exchange`` (a task holds about 1/R of the rows).

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages.exchange import bucket_runs, range_exchange

MANIFEST_DIR = "_manifests"
STAGING_DIR = "_staging"

# A bucket unit's name prefix: ``buckets=F-L``, F and L its first and last
# bucket (its data dir and, with ``.json``, its manifest).
_BUCKET_UNIT = "buckets="

# The counts of a stats row; ``error_classes`` is a JSON ``{Type: count}``.
_STATS_FIELDS = [
    ("row_count", pa.int64()), ("ok_count", pa.int64()),
    ("total_chars", pa.int64()), ("html_bytes", pa.int64()),
    ("error_classes", pa.string()),
]

# One row per file ``stage_parts`` writes.
PART_STATS_SCHEMA = pa.schema([
    ("part", pa.int32()), ("file", pa.string()), *_STATS_FIELDS,
])

# One row per bucket of a file ``_write_range`` writes; ``[start, end)`` is
# the bucket's row span in the file.
BUCKET_STATS_SCHEMA = pa.schema([
    ("bucket", pa.int32()), ("file", pa.string()),
    ("start", pa.int64()), ("end", pa.int64()), *_STATS_FIELDS,
])


def _manifest_names(out_dir: str, prefix: str) -> list:
    """Names of the committed manifests whose unit starts with ``prefix``."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return []
    return [n for n in os.listdir(mdir)
            if n.startswith(prefix) and n.endswith(".json")]


def _bucket_manifests(out_dir: str) -> list:
    """Every committed bucket-unit manifest, by first bucket."""
    found = []
    for name in _manifest_names(out_dir, _BUCKET_UNIT):
        with open(os.path.join(out_dir, MANIFEST_DIR, name)) as fh:
            found.append(json.load(fh))
    return sorted(found, key=lambda m: m["buckets"][0]["bucket"])


def committed_keys(out_dir: str, kind: str) -> set:
    """Ids of the committed ``kind`` units ("bucket" or "part"): those a
    manifest lists, the only definition of 'done'.  A part manifest is
    named by its part; a bucket-unit manifest lists its buckets."""
    if kind == "bucket":
        return {b["bucket"] for m in _bucket_manifests(out_dir)
                for b in m["buckets"]}
    prefix = f"{kind}="
    return {int(n[len(prefix): -len(".json")])
            for n in _manifest_names(out_dir, prefix)}


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
    ``[0, n_buckets)``) into checkpointed, bucket-sorted Parquet under
    ``out_dir``; commit manifests; return summary.

    One ``range_exchange`` on the known key domain, then each block of a
    reduce range is written as one file (``_write_range``) whose unit is
    named by its first and last bucket, and committed under one manifest
    listing the file and, per bucket, its row span and counts.  Scale
    contract: ``stages.exchange.range_exchange``.  The summary counts
    buckets: ``committed`` (this run) and ``rows``; ``skipped`` is always 0,
    since a committed bucket never reaches the write step.

    Idempotent: task retries rewrite the same staged file, and job
    restarts converge to exactly-once output, because ``ds`` has the
    committed buckets filtered out (``make_resume_filter``).  A bucket
    reported by two files (an unsorted block, or a range split in two) or
    one that a committed manifest already claims raises before any
    manifest is written.
    """
    staging = os.path.join(out_dir, STAGING_DIR, run_id)
    sweep_staging(out_dir)
    # One file per range, not write_parquet(partition_cols=...), which fans
    # every block into every bucket dir: blocks x buckets tiny files.
    stats_rows = range_exchange(ds, "bucket", n_buckets).map_batches(
        _write_range, fn_args=(staging,), batch_size=None,
        batch_format="pyarrow").take_all()
    seen = collections.Counter(r["bucket"] for r in stats_rows)
    split = sorted(b for b, n in seen.items() if n > 1)
    if split:
        raise RuntimeError(
            f"write_bucketed: buckets {split} were written in more than one "
            "piece; nothing committed")
    claimed = sorted(seen.keys() & committed_keys(out_dir, "bucket"))
    if claimed:
        raise RuntimeError(
            f"write_bucketed: buckets {claimed} are already committed; "
            "nothing committed")

    units = collections.defaultdict(list)   # file -> its rows, by bucket
    for row in sorted(stats_rows, key=lambda r: r["bucket"]):
        units[row["file"]].append(row)
    summary = {"committed": 0, "skipped": 0, "rows": 0}
    for name, rows in units.items():
        unit = os.path.dirname(name)
        tally = {k: sum(r[k] for r in rows) for k in
                 ("row_count", "ok_count", "total_chars", "html_bytes")}
        classes = collections.Counter()
        for r in rows:
            classes.update(json.loads(r["error_classes"]))
        _commit(out_dir, run_id, unit, os.path.join(staging, unit), {
            "buckets": [
                {"bucket": r["bucket"], "row_range": [r["start"], r["end"]],
                 "row_count": r["row_count"], "ok_count": r["ok_count"],
                 "total_chars": r["total_chars"]} for r in rows],
            "input_path": input_path,
            "files": [name],
            **tally,
            "error_count": tally["row_count"] - tally["ok_count"],
            "error_classes": dict(classes.most_common()),
            "extractor_version": extractor_version,
            "run_id": run_id,
            "committed_at_us": int(time.time() * 1e6),
        })
        summary["committed"] += len(rows)
        summary["rows"] += tally["row_count"]
    sweep_staging(out_dir)
    return summary


def _write_range(block: pa.Table, staging: str) -> pa.Table:
    """The bucket sink's write-and-report step, run on one block of the
    range exchange (rows sorted by ``bucket``).

    Writes the block as one Parquet file ``buckets=F-L/F-L.parquet`` under
    ``staging``, F and L its first and last bucket, and returns one stats
    row per bucket it holds (``BUCKET_STATS_SCHEMA``): the file, the
    bucket's ``[start, end)`` row span in it, and its counts.  A retried
    task rewrites the same file."""
    if block.num_rows == 0:
        return BUCKET_STATS_SCHEMA.empty_table()
    # The shuffle may dictionary-encode columns in some blocks; decode so
    # every committed file carries one uniform schema.
    for i, f in enumerate(block.schema):
        if pa.types.is_dictionary(f.type):
            block = block.set_column(
                i, f.name, block.column(i).cast(f.type.value_type))
    keys = block.column("bucket").to_numpy()
    starts = bucket_runs(keys, "bucket")
    first, last = int(keys[0]), int(keys[-1])
    name = os.path.join(f"{_BUCKET_UNIT}{first}-{last}",
                        f"{first}-{last}.parquet")
    os.makedirs(os.path.join(staging, os.path.dirname(name)), exist_ok=True)
    pq.write_table(block, os.path.join(staging, name))
    return pa.Table.from_pylist([
        {"bucket": int(keys[start]), "file": name, "start": start,
         "end": end, "row_count": end - start, **stats,
         "error_classes": json.dumps(stats["error_classes"])}
        for start, end, stats in zip(starts, starts[1:],
                                     _span_stats(block, starts))
    ], schema=BUCKET_STATS_SCHEMA)


def commit_part(out_dir: str, run_id: str, part_id: int, staged_dir: str,
                manifest: dict) -> None:
    """Atomically promote a staged partition dir + write its manifest."""
    _commit(out_dir, run_id, f"part={part_id}", staged_dir, manifest)


def _table_stats(table) -> dict:
    """``_span_stats`` of the whole of ``table``."""
    return _span_stats(table, [0, table.num_rows])[0]


def _span_stats(table, starts: list) -> list:
    """Per row span ``[starts[i], starts[i + 1])`` of an extracted table:
    ``ok_count`` (rows whose ``status`` is "ok"), ``total_chars`` (the sum
    of ``n_chars``), ``html_bytes`` (the sum of ``html_bytes``) and
    ``error_classes`` (``_error_classes`` of ``error``); 0 (or no class)
    for a column the table lacks.  One pass per column, not per span."""
    bounds = np.asarray(starts)
    names = table.column_names

    def sums(values) -> list:
        total = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
        return (total[bounds[1:]] - total[bounds[:-1]]).tolist()

    def column_sums(name, values) -> list:
        if name not in names:
            return [0] * (len(bounds) - 1)
        return sums(values(table.column(name)).to_numpy())

    ok = column_sums("status", lambda c: pc.fill_null(pc.equal(c, "ok"), False))
    chars = column_sums("n_chars", lambda c: pc.fill_null(c, 0))
    html = column_sums("html_bytes", lambda c: pc.fill_null(c, 0))
    classes = [{} for _ in ok]
    if "error" in names:
        errors = table.column("error")
        rows = np.flatnonzero(
            pc.fill_null(pc.not_equal(errors, ""), False).to_numpy())
        span = np.searchsorted(bounds, rows, side="right") - 1
        for i in np.unique(span):
            classes[i] = _error_classes(errors.take(rows[span == i]))
    return [{"ok_count": o, "total_chars": c, "html_bytes": h,
             "error_classes": e}
            for o, c, h, e in zip(ok, chars, html, classes)]


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
        stats = _table_stats(table)
        rows.append({
            "part": pid, "file": name, "row_count": table.num_rows,
            **stats, "error_classes": json.dumps(stats["error_classes"]),
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
    """(dir its files are relative to, manifest) of every committed
    manifest: bucket units by first bucket, then parts by id."""
    for m in _bucket_manifests(out_dir):
        yield out_dir, m
    for key in sorted(committed_keys(out_dir, "part")):
        unit = f"part={key}"
        with open(os.path.join(out_dir, MANIFEST_DIR, f"{unit}.json")) as fh:
            yield os.path.join(out_dir, unit), json.load(fh)


def read_manifests(out_dir: str) -> list:
    """All committed manifests — bucket units and parts alike."""
    return [m for _, m in _manifests(out_dir)]


def committed_files(out_dir: str) -> list:
    """The exact file list of the committed table (manifest-driven read),
    over bucket and part manifests alike."""
    return [os.path.join(base, f) for base, m in _manifests(out_dir)
            for f in m["files"]]


def read_committed_table(out_dir: str, columns=None):
    """Read the committed table via the manifest file list.

    ``partitioning=None`` is required: the ``buckets=F-L`` and ``part=K``
    directory names would otherwise be hive-inferred as extra dictionary
    columns that the files do not hold."""
    return pq.read_table(committed_files(out_dir), columns=columns,
                         partitioning=None)


def read_committed_dataset(out_dir: str, columns=None):
    """Ray Dataset over the committed files (manifest-driven, resumable
    read), sized by ``read_corpus``.

    Unlike ``pq.read_table``, Ray's reader does not hive-infer partition
    columns from the ``buckets=F-L`` paths by default (and passing
    ``partitioning=None`` trips a Ray 2.49 UnboundLocalError), so no
    override is needed here."""
    from ..sources.corpus import read_corpus

    return read_corpus(committed_files(out_dir), columns=columns)


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
