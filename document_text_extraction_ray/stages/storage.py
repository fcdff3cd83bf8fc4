"""Bucketed (co-partitioned) parquet storage: pay the partitioning cost at
WRITE time, then join / fold on the bucket key with ZERO exchanges forever
after.

The classic storage-layout optimization (Hive bucketing, Spark bucketBy,
Iceberg bucket transforms): two tables written with the same hash function,
same key, same bucket count are co-partitioned — bucket b of the left can
only ever match bucket b of the right, so a join is n_buckets independent
file-local merges.  No shuffle at read time; on a multi-node cluster each
bucket task reads only its own files from shared storage.

Scale notes:
  * ``write_bucketed`` is itself exchange-FREE: each input block fans its
    rows into per-bucket files under ``bucket=<b>/`` independently (hive
    layout, bucket column encoded in the path).  The "partitioning cost"
    is just the write you were doing anyway.
  * ``read_bucketed_join`` schedules one task per bucket; a task's memory
    is one bucket pair, so size ``n_buckets`` to make buckets task-sized
    (at 100 TB: thousands).  Output stays partitioned by the join key —
    downstream per-key folds are also exchange-free.
  * The bucket hash is ``join._key_hash`` — the SAME function the shuffle
    joins use, so a bucketed table can interoperate with live exchanges.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .join import _bucket_array, _bucket_array_multi, _keys, _local_join


def write_bucketed(ds, path: str, on, n_buckets: int = 32):
    """Write ``ds`` as hash-bucketed parquet under ``path/bucket=<b>/``.

    Row placement: ``join._key_hash(on) % n_buckets`` — the exchange hash,
    so every equal key lands in exactly one bucket directory (``on`` may
    be a list: composite keys use the same prime-mixed tuple hash the
    composite joins use).  The write is exchange-free (each block
    partitions its own rows); null keys land in bucket 0 and never
    equi-match, matching the join kernels."""

    def tag(t: pa.Table) -> pa.Table:
        if isinstance(on, (list, tuple)):
            b = _bucket_array_multi(t, list(on), n_buckets)
        else:
            b = _bucket_array(t.column(on), n_buckets)
        return t.append_column("bucket", pa.array(b, pa.int32()))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        path, partition_cols=["bucket"]
    )
    return path


def _read_bucket(path: str, b: int, schema: pa.Schema) -> pa.Table:
    """One bucket directory as one Arrow table in ``schema`` (whose names
    are the columns read); empty when the bucket never received a row
    (hive layout only creates directories for non-empty buckets)."""
    files = sorted(glob.glob(os.path.join(path, f"bucket={b}", "*.parquet")))
    return pa.concat_tables([schema.empty_table(), *(
        pq.read_table(f, columns=schema.names).cast(schema) for f in files)])


def _schema_of(path: str, columns=None) -> pa.Schema:
    files = sorted(glob.glob(os.path.join(path, "bucket=*", "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no bucketed parquet under {path}")
    schema = pq.read_schema(files[0])
    return pa.schema([schema.field(c) for c in columns]) if columns else schema


def read_bucketed_join(path_left: str, path_right: str, left_on: str,
                       right_on: str, n_buckets: int, how: str = "inner",
                       suffix: str = "_r", left_columns=None,
                       right_columns=None):
    """ZERO-exchange join of two co-bucketed tables (same hash, same
    ``n_buckets``): one task per bucket reads both sides' ``bucket=<b>``
    files and joins them with ``join._local_join``.  Returns the joined
    Dataset, still partitioned by the key, whose every block has the
    left's columns, then the right's (a right key named as its left key
    once, other names the left has suffixed), with the files' types.

    Column pruning (``left_columns`` / ``right_columns``) happens at the
    parquet read inside each task.  The join key columns must be included
    in the pruned sets.

    SQL null semantics: a null join key matches NOTHING; for
    ``how="left"`` a null-key left row is kept unmatched.  ``how`` is
    restricted to inner/left (the bucketed layout cannot express outer's
    unmatched-right rows without a second pass)."""
    if how not in ("inner", "left"):
        raise ValueError("read_bucketed_join supports how='inner'/'left'")
    ls = _schema_of(path_left, left_columns)
    rs = _schema_of(path_right, right_columns)
    lkeys, rkeys = _keys(left_on), _keys(right_on)
    shared = {r for l, r in zip(lkeys, rkeys) if l == r}
    renamed = [n + suffix if n in ls.names and n not in shared else n
               for n in rs.names]
    out_schema = pa.schema([*ls, *(
        f.with_name(n) for f, n in zip(rs, renamed) if n not in shared)])
    rkeys = [renamed[rs.names.index(r)] for r in rkeys]

    def join_bucket(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            _local_join(_read_bucket(path_left, b, ls),
                        _read_bucket(path_right, b, rs).rename_columns(renamed),
                        lkeys, how, out_schema, right_on=rkeys)
            for b in batch.column("id").to_pylist()])

    # range(n, one block per bucket) -> each bucket is its own task.
    return rd.range(n_buckets, override_num_blocks=n_buckets).map_batches(
        join_bucket, batch_format="pyarrow"
    )


def parquet_layout_stats(paths):
    """Distributed parquet LAYOUT sweep — the storage-health pre-flight
    for a 100-TB corpus: every task reads only the FOOTER of its files
    (no data pages) and reports rows / row groups / on-disk bytes per
    file.  Tiny-file soup and monster row groups are the two classic
    read-throughput killers; this is how you find them without scanning.

    Input: file paths (or dirs of .parquet).  One row per file:
    (file_name, n_rows, n_row_groups, n_columns, total_bytes)."""
    items = []
    for p in paths:
        if os.path.isdir(p):
            items.extend(sorted(glob.glob(os.path.join(p, "*.parquet"))))
        else:
            items.append(p)

    def footers(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for f in batch["item"].tolist():
            md = pq.ParquetFile(f).metadata
            rows.append({
                "file_name": os.path.basename(f),
                "n_rows": md.num_rows,
                "n_row_groups": md.num_row_groups,
                "n_columns": md.num_columns,
                "total_bytes": os.path.getsize(f),
            })
        return pd.DataFrame(rows)

    return rd.from_items(items).map_batches(footers, batch_format="pandas")


def compact_parquet(src_dir: str, dst_dir: str, target_rows: int = 1_000_000,
                    columns=None):
    """Tiny-file COMPACTION (the remediation for what
    ``parquet_layout_stats`` diagnoses): greedily group input files into
    runs of ~``target_rows`` by their FOOTER row counts, then one task per
    group streams its files into ONE output file.  Row content is
    untouched — compaction is a pure layout rewrite (identity
    oracle-checked); only file boundaries change.

    Planning reads footers via the distributed ``parquet_layout_stats``
    sweep and collects only the (file, n_rows) table — file-count-sized,
    never data-sized — so the plan step stays cheap at millions of files.
    The rewrite is one independent task per output group (resumable by
    rerunning: groups are deterministic for a fixed input listing)."""
    stats = parquet_layout_stats([src_dir]).to_pandas() \
        .sort_values("file_name").reset_index(drop=True)
    groups, cur, cur_rows = [], [], 0
    for _, r in stats.iterrows():
        cur.append(r["file_name"])
        cur_rows += int(r["n_rows"])
        if cur_rows >= target_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
    if cur:
        groups.append(cur)
    os.makedirs(dst_dir, exist_ok=True)
    items = [{"gid": i, "files": "\x00".join(g)}
             for i, g in enumerate(groups)]

    def rewrite(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for gid, joined in zip(batch["gid"], batch["files"]):
            names = joined.split("\x00")
            t = pa.concat_tables([
                pq.read_table(os.path.join(src_dir, n), columns=columns)
                for n in names
            ])
            out = os.path.join(dst_dir, f"compact-{int(gid):05d}.parquet")
            pq.write_table(t, out)
            rows.append({"gid": int(gid), "n_files_in": len(names),
                         "n_rows": t.num_rows,
                         "file_name": os.path.basename(out)})
        return pd.DataFrame(rows)

    if not items:
        return rd.from_items([]).map_batches(
            lambda b: b, batch_format="pandas")
    return rd.from_items(items).map_batches(rewrite, batch_format="pandas")


def build_zone_map(path: str, key: str) -> str:
    """Build a FILE-level zone map for ``key`` over a parquet directory:
    per file (key_min, key_max, n_rows), harvested from the row-group
    STATISTICS in each footer (no data pages read), written to
    ``path/_zonemap.parquet``.  The distributed footer sweep is one task
    per file batch; the manifest is file-count-sized."""
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))

    def footers(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for f in batch["item"].tolist():
            md = pq.ParquetFile(f).metadata
            idx = md.schema.to_arrow_schema().get_field_index(key)
            mins, maxs = [], []
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(idx).statistics
                if st is None or not st.has_min_max:
                    raise ValueError(
                        f"{f} row group {g} has no {key!r} statistics")
                mins.append(st.min)
                maxs.append(st.max)
            rows.append({"file_name": os.path.basename(f),
                         "key_min": min(mins), "key_max": max(maxs),
                         "n_rows": md.num_rows})
        return pd.DataFrame(rows)

    zm = rd.from_items(files).map_batches(
        footers, batch_format="pandas").to_pandas()
    out = os.path.join(path, "_zonemap.parquet")
    pq.write_table(pa.Table.from_pandas(zm.sort_values("file_name"),
                                        preserve_index=False), out)
    return out


def write_sorted_runs(ds, path: str, key: str) -> str:
    """Write ``ds`` globally SORTED by ``key`` as parquet runs plus a
    file-level zone map: the layout that turns any later key-range read
    into a handful of file opens.  The sort is Ray's native range-sample
    exchange (each output file covers a disjoint key range); the zone map
    comes from the footers (``build_zone_map``)."""
    ds.sort(key).write_parquet(path)
    build_zone_map(path, key)
    return path


def read_key_range(path: str, key: str, lo, hi):
    """Key-range read over a zone-mapped directory: consult the manifest
    (one tiny parquet read), open ONLY files whose [key_min, key_max]
    intersects [lo, hi], and apply the exact row-level predicate inside
    the scan.  Files are pruned WITHOUT opening their footers — at 100 TB
    a selective range touches a handful of the sorted runs."""
    import pyarrow.compute as pc

    zm = pq.read_table(os.path.join(path, "_zonemap.parquet")).to_pandas()
    keep = zm[(zm["key_max"] >= lo) & (zm["key_min"] <= hi)]
    files = [os.path.join(path, f) for f in keep["file_name"]]
    if not files:
        # schema-preserving empty: scan one file, the predicate empties it
        files = [os.path.join(path, zm["file_name"].iloc[0])]

    def row_filter(t: pa.Table) -> pa.Table:
        c = t.column(key)
        return t.filter(pc.and_(pc.greater_equal(c, pa.scalar(lo)),
                                pc.less_equal(c, pa.scalar(hi))))

    return rd.read_parquet(files).map_batches(
        row_filter, batch_format="pyarrow")


def range_partition_stats(ds, value_col: str, n_parts: int,
                          n_buckets: int = 32):
    """The sort/range-exchange planner primitive as a first-class op:
    compute exact PERCENTILE_DISC cut points over ``value_col``, assign
    every row to its range partition, and report per-partition
    (n_rows, min, max) — the balance report a range-partitioned write or
    a distributed sort would use.

    Exactness path: a (value, count) table (per-batch partials + one
    bucketed combine) replaces sampling — scale-sound when value
    CARDINALITY is bounded (prices, scores, dates), which is the case
    where exact bounds are even possible; unbounded-cardinality columns
    should sample instead.  The bounds list (n_parts-1 values) is the one
    driver-collected object — bounded by construction — and is broadcast
    once via ``ray.put``.  Assignment: part(v) = #bounds strictly below v
    (numpy searchsorted left), so a hot value spanning several quantile
    thresholds collapses its empty middle partitions identically to the
    SQL replay.  ``value_col`` must be integer-typed."""
    import ray as _ray

    from .aggregate import bucketed_combine

    def partial(t: pa.Table) -> pa.Table:
        t2 = t.select([value_col]).append_column(
            "pn", pa.array(np.ones(t.num_rows, np.int64)))
        g = t2.group_by(value_col).aggregate([("pn", "sum")])
        return pa.table({"v": g.column(value_col), "pn": g.column("pn_sum")})

    counts = bucketed_combine(
        ds.map_batches(partial, batch_format="pyarrow"),
        "v", lambda t: (lambda g: pa.table(
            {"v": g.column("v"), "n": g.column("pn_sum")}))(
                t.group_by("v").aggregate([("pn", "sum")])),
        n_buckets)

    def bounds_fold(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column("v"), dtype=np.int64)
        n = np.asarray(t.column("n"), dtype=np.int64)
        order = np.argsort(v, kind="stable")
        v, n = v[order], n[order]
        cum = np.cumsum(n)
        total = int(cum[-1]) if len(cum) else 0
        bs = []
        for i in range(1, n_parts):
            rank = -(-i * total // n_parts)    # ceil(i*N/n_parts)
            j = int(np.searchsorted(cum, rank, side="left"))
            bs.append(int(v[j]))
        return pa.table({"b": pa.array(bs, pa.int64())})

    bounds_rows = counts.repartition(1).map_batches(
        bounds_fold, batch_format="pyarrow").take(n_parts - 1)
    bounds = np.sort(np.array([r["b"] for r in bounds_rows], np.int64))
    bref = _ray.put(bounds)

    def assign(t: pa.Table) -> pa.Table:
        b = _ray.get(bref)
        v = np.asarray(t.column(value_col), dtype=np.int64)
        part = np.searchsorted(b, v, side="left").astype(np.int64)
        t2 = pa.table({"part": pa.array(part),
                       "v": pa.array(v),
                       "pn": pa.array(np.ones(len(v), np.int64))})
        g = t2.group_by("part").aggregate(
            [("pn", "sum"), ("v", "min"), ("v", "max")])
        return pa.table({"part": g.column("part"),
                         "pn": g.column("pn_sum"),
                         "vmin": g.column("v_min"),
                         "vmax": g.column("v_max")})

    def stats_combine(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate(
            [("pn", "sum"), ("vmin", "min"), ("vmax", "max")])
        return pa.table({"part": g.column("part"),
                         "n_rows": g.column("pn_sum"),
                         "min_v": g.column("vmin_min"),
                         "max_v": g.column("vmax_max")})

    return bucketed_combine(
        ds.map_batches(assign, batch_format="pyarrow"),
        "part", stats_combine, n_buckets=8)


def zorder_value(x: np.ndarray, y: np.ndarray, bits: int = 16) -> np.ndarray:
    """Morton / Z-ORDER interleave of two non-negative integer columns
    (bit k of x -> bit 2k, bit k of y -> bit 2k+1).  Vectorized; shared
    by the stage and the tests; the SQL replay uses the identical
    shift-sum over a generate_series of bit positions."""
    z = np.zeros(len(x), np.int64)
    for k in range(bits):
        z |= ((x >> k) & 1) << (2 * k)
        z |= ((y >> k) & 1) << (2 * k + 1)
    return z


def zorder_partition_stats(ds, x_col: str, y_col: str,
                           n_parts_log2: int = 4, bits: int = 16,
                           n_buckets: int = 8):
    """Multidimensional CLUSTERING via Z-ordering (the Delta/Iceberg
    ``OPTIMIZE ZORDER BY (x, y)`` primitive): rows map to the Morton
    interleave of their two keys and partition by the z-value's HIGH
    bits, so each partition covers a compact rectangle-ish region of
    (x, y) space — range predicates on EITHER column prune most
    partitions, which one-dimensional sorting only gives for its lead
    column.  Emits per-partition (n_rows, min/max of both dims) — the
    bounding boxes a zone-map pruner would consult.  Row-local z
    computation + one bucketed combine."""

    shift = 2 * bits - n_parts_log2

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t.column(x_col), dtype=np.int64)
        y = np.asarray(t.column(y_col), dtype=np.int64)
        part = zorder_value(x, y, bits) >> shift
        t2 = pa.table({"part": pa.array(part), "x": pa.array(x),
                       "y": pa.array(y),
                       "pn": pa.array(np.ones(len(x), np.int64))})
        g = t2.group_by("part").aggregate(
            [("pn", "sum"), ("x", "min"), ("x", "max"),
             ("y", "min"), ("y", "max")])
        return pa.table({"part": g.column("part"),
                         "pn": g.column("pn_sum"),
                         "xmin": g.column("x_min"), "xmax": g.column("x_max"),
                         "ymin": g.column("y_min"), "ymax": g.column("y_max")})

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate(
            [("pn", "sum"), ("xmin", "min"), ("xmax", "max"),
             ("ymin", "min"), ("ymax", "max")])
        return pa.table({"part": g.column("part"),
                         "n_rows": g.column("pn_sum"),
                         "x_min": g.column("xmin_min"),
                         "x_max": g.column("xmax_max"),
                         "y_min": g.column("ymin_min"),
                         "y_max": g.column("ymax_max")})

    from .aggregate import bucketed_combine
    return bucketed_combine(
        ds.select_columns([x_col, y_col]).map_batches(
            partial, batch_format="pyarrow"),
        "part", combine, n_buckets)


# ------------------------------------------------------- bloom file index

def build_bloom_index(path: str, key: str, m_bits: int = 1 << 16,
                      k: int = 4) -> str:
    """Per-FILE Bloom index over ``key`` for a parquet directory — the
    zone map's sibling for EQUALITY probes over unsorted data (Iceberg /
    Delta file-skipping bloom, Parquet BloomFilter header).  One Ray task
    per file reads ONLY the key column and scatters its hashes into an
    ``m_bits`` bloom; the manifest (``_bloomindex.parquet``: file_name,
    m_bits, k, bloom bytes) is m_bits/8 bytes per file — KB-scale driver
    state no matter how big the data files are.

    Hashing is ``dedup._hash64_column`` + splitmix double hashing — the
    same family as the broadcast ``bloom_semi_filter``, so the index is
    consistent with the live-probe path."""
    from .dedup import _hash64_column

    files = sorted(
        f for f in glob.glob(os.path.join(path, "**", "*.parquet"),
                             recursive=True)
        if not os.path.basename(f).startswith("_"))
    if not files:
        raise ValueError(f"no parquet files under {path}")

    from .dedup import _splitmix64

    def per_file(t: pa.Table) -> pa.Table:
        out_names, out_blooms = [], []
        for fname in t.column("file").to_pylist():
            col = pq.read_table(fname, columns=[key]).column(key)
            h1 = _hash64_column(col)
            h2 = _splitmix64(h1) | np.uint64(1)
            bloom = np.zeros(m_bits // 8, dtype=np.uint8)
            with np.errstate(over="ignore"):
                for i in range(k):
                    pos = ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)) \
                        .astype(np.int64)
                    np.bitwise_or.at(
                        bloom, pos >> 3,
                        (np.uint8(1) << (pos & 7).astype(np.uint8)))
            out_names.append(os.path.basename(fname))
            out_blooms.append(bloom.tobytes())
        return pa.table({"file_name": pa.array(out_names, pa.string()),
                         "bloom": pa.array(out_blooms, pa.binary())})

    rows = rd.from_items([{"file": f} for f in files]) \
        .map_batches(per_file, batch_format="pyarrow", batch_size=1) \
        .take_all()
    manifest = pa.table({
        "file_name": pa.array([r["file_name"] for r in rows], pa.string()),
        "m_bits": pa.array([m_bits] * len(rows), pa.int64()),
        "k": pa.array([k] * len(rows), pa.int64()),
        "bloom": pa.array([bytes(r["bloom"]) for r in rows], pa.binary()),
    })
    out = os.path.join(path, "_bloomindex.parquet")
    pq.write_table(manifest, out)
    return out


def read_bloom_lookup(path: str, key: str, values):
    """Point-IN lookup over a bloom-indexed directory: test the probe keys
    against each file's bloom (manifest only — no data file opened for the
    test), read ONLY candidate files, and apply the exact ``IN`` filter
    inside the scan so false positives die row-locally.  Result is exactly
    ``WHERE key IN (values)``; at 100 TB a point lookup touches the
    handful of shards whose blooms fire."""
    import pyarrow.compute as pc

    from .dedup import _hash64_column, _splitmix64

    zm = pq.read_table(os.path.join(path, "_bloomindex.parquet")).to_pandas()
    m_bits = int(zm["m_bits"].iloc[0])
    k = int(zm["k"].iloc[0])
    probe = pa.array(list(values))
    h1 = _hash64_column(probe)
    h2 = _splitmix64(h1) | np.uint64(1)
    with np.errstate(over="ignore"):
        pos = np.stack([
            ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)).astype(np.int64)
            for i in range(k)
        ])  # (k, n_probe)
    keep_files = []
    for fname, blob in zip(zm["file_name"], zm["bloom"]):
        bloom = np.frombuffer(bytes(blob), dtype=np.uint8)
        hits = ((bloom[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1) \
            .all(axis=0)  # per probe key: all k bits set?
        if hits.any():
            keep_files.append(os.path.join(path, fname))
    n_candidates = len(keep_files)
    if not keep_files:
        # No bloom fired -> the result is empty BY CONSTRUCTION (blooms
        # have no false negatives).  Return a typed empty dataset from
        # the first file's parquet SCHEMA (footer only — no data pages
        # read) instead of paying a full shard scan for a guaranteed
        #-empty result.
        schema = pq.read_schema(os.path.join(path, zm["file_name"].iloc[0]))
        return rd.from_arrow(schema.empty_table()), n_candidates

    def row_filter(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(key), value_set=probe))

    ds = rd.read_parquet(keep_files).map_batches(
        row_filter, batch_format="pyarrow")
    return ds, n_candidates
