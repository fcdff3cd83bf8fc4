"""Distributed joins, Ray-Data-native (SURVEY.md §2.5 — the reference has no
joins; these are the engine additions a real pipeline needs).

One equi-join kernel, plus a broadcast form for small sides (ray_guide
"Joins and lookups"):
  * broadcast_join — small side materialized once, ``ray.put``, merged into
    every batch with a pandas merge.  No shuffle.  Use when one side fits in
    a worker's heap (dimension tables, vocabularies).
  * partitioned_hash_join — both sides large: add ``__jbucket = hash(key) % B``
    to each side, tag provenance, align schemas with typed nulls, union, one
    ``bucket_exchange`` on the bucket id, and merge the two sides of each
    bucket in its fold.  Exactly one shuffle of each side; B sized so a bucket
    pair fits in one task.  Salt hot keys upstream when a single key
    dominates.  ``semi_join`` and ``anti_join`` are its filtering siblings.

Ray's own ``Dataset.join`` is not used: its hash-shuffle aggregator actors
never finish at ``num_cpus=1``, even for a 7x7-row join.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .exchange import bucket_exchange


def broadcast_join(
    ds,
    small: pd.DataFrame,
    on: str,
    how: str = "inner",
    suffix: str = "_r",
):
    """Join a Dataset against a small in-memory table (broadcast, no shuffle)."""
    small_ref = ray.put(small)

    def _merge(batch: pd.DataFrame) -> pd.DataFrame:
        rhs = ray.get(small_ref)
        return batch.merge(rhs, on=on, how=how, suffixes=("", suffix))

    return ds.map_batches(_merge, batch_format="pandas")


def _arrow_schema(ds) -> pa.Schema:
    """Robust schema fetch: pandas-block datasets report a PandasBlockSchema
    (names + numpy dtypes), not a pyarrow Schema."""
    sch = ds.schema().base_schema
    if isinstance(sch, pa.Schema):
        return sch
    fields = []
    for name, dt in zip(sch.names, sch.types):
        if isinstance(dt, pa.DataType):
            fields.append((name, dt))
        else:
            try:
                fields.append((name, pa.from_numpy_dtype(dt)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append((name, pa.string()))  # object dtype
    return pa.schema(fields)


def _key_hash(col) -> np.ndarray:
    """Deterministic per-row uint64 hash of one key column.  Integer keys
    hash via int64 two's-complement (negatives fine); null keys hash to 0
    instead of raising (they can never equi-match, so any deterministic
    value is correct).

    FLOAT columns whose values are all integral hash through the SAME
    integer path.  This is a correctness requirement, not a convenience:
    Ray's sort-shuffle reduce normalizes mixed pandas/arrow block sets to
    the PREVALENT type (``TableBlockAccessor.normalize_block_types``), and
    a pandas conversion turns typed-null int64 columns into NaN float64 —
    promoting the whole column to double on that reduce partition.  An
    int64 key and its double-promoted twin must land in the same bucket,
    or the two sides of the next exchange silently split (measured: every
    pagerank-loop node duplicated once the state block count exceeded the
    edge block count, flipping the normalization to pandas)."""
    if pa.types.is_integer(col.type):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        null_mask = np.asarray(arr.is_null())
        # fill_null keeps the INTEGER dtype (a to_numpy of a null-carrying
        # int column yields float64, which silently rounds keys above 2^53
        # — equal keys would land in different buckets and drop join rows).
        # The filled zeros are overridden to hash 0 via null_mask below.
        vals = arr.fill_null(0).to_numpy(zero_copy_only=False)
        v = vals.astype(np.int64).view(np.uint64)
        out = (v * np.uint64(2654435761)) % np.uint64(2 ** 32)
        if null_mask.any():
            out[null_mask] = 0
        return out
    if pa.types.is_floating(col.type):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        null_mask = np.asarray(arr.is_null())
        vals = arr.fill_null(0).to_numpy(zero_copy_only=False)
        integral = np.isfinite(vals) & (vals == np.floor(vals)) \
            & (np.abs(vals) < 2 ** 53)
        if integral.all():
            v = vals.astype(np.int64).view(np.uint64)
            out = (v * np.uint64(2654435761)) % np.uint64(2 ** 32)
            if null_mask.any():
                out[null_mask] = 0
            return out
        # genuinely fractional float keys: fall through to the string path
    return np.fromiter(
        ((0 if v is None else zlib.crc32(str(v).encode()))
         for v in col.to_pylist()),
        dtype=np.uint64, count=len(col),
    )


def _bucket_array(col: pa.ChunkedArray, n_buckets: int) -> np.ndarray:
    """Deterministic hash bucket per key (single column)."""
    return (_key_hash(col) % np.uint64(n_buckets)).astype(np.int32)


def _bucket_array_multi(tbl: pa.Table, on_cols, n_buckets: int) -> np.ndarray:
    """Composite-key bucket: per-column uint64 hashes mixed with a prime
    multiplier — equal key TUPLES land in the same bucket, unequal tuples
    spread, no key concatenation.  For one column it equals
    ``_bucket_array``."""
    h = np.zeros(tbl.num_rows, dtype=np.uint64)
    for c in on_cols:
        h = h * np.uint64(1000003) + _key_hash(tbl.column(c))
    return (h % np.uint64(n_buckets)).astype(np.int32)


def _typed_empty(names, arrow_types: dict) -> pd.DataFrame:
    """Typed empty frame: an untyped pd.DataFrame(columns=...) defaults
    every column to object dtype and poisons the output schema when Ray
    unifies it with non-empty blocks (ADVICE r2/r3)."""
    cols = {}
    for name in names:
        t = arrow_types[name]
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            # object-dtype empties trip Ray's block size estimator
            # (np.vectorize on size-0 input logs an error per block);
            # pandas' string dtype round-trips to Arrow string cleanly.
            cols[name] = pd.Series(dtype="string")
            continue
        try:
            cols[name] = pd.Series(dtype=t.to_pandas_dtype())
        except (NotImplementedError, TypeError):
            cols[name] = pd.Series(dtype=object)
    return pd.DataFrame(cols)


def _int_casts(df: pd.DataFrame, dtypes: dict) -> dict:
    """``astype`` map restoring the int columns ``dtypes`` names in ``df``:
    the numpy int dtype, or pandas' nullable int of the same width (Arrow:
    the same int type with nulls) for a column that holds a real null."""
    return {
        k: pd.array(np.empty(0, v)).dtype if df[k].isna().any() else v
        for k, v in dtypes.items() if k in df.columns
    }


def partitioned_hash_join(
    left,
    right,
    on,
    n_buckets: int = 32,
    how: str = "inner",
    suffix: str = "_r",
    left_schema=None,
    right_schema=None,
):
    """Bucketed hash join of two Datasets on one key column or a COMPOSITE
    key (``on`` may be a list of column names — TPC-H Q9-style plans join
    on (partkey, suppkey) tuples; no key concatenation needed).

    Deterministic bucket = Knuth multiplicative hash (ints) / crc32
    (strings) mod B, per-column hashes prime-mixed for composites.  Each
    side is shuffled exactly once; a bucket's two sides meet in a single
    fold call (``exchange.bucket_exchange``).  ``how`` supports 'inner',
    'left' and 'outer' (FULL OUTER — exact per bucket because equal key
    tuples land in the same bucket on both sides, so a row unmatched in its
    bucket is unmatched globally; null keys never equi-match — a tuple with
    ANY null component matches nothing, SQL semantics).

    Pass ``left_schema``/``right_schema`` (pyarrow) when a side sits behind
    map_batches: ``Dataset.schema()`` on such a side executes its upstream
    lineage for one block and the join then re-executes it — an avoidable
    full extra pass (profiled).
    """
    on_cols = [on] if isinstance(on, str) else list(on)
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    left_cols = [n for n in left_schema.names]
    right_cols = [n for n in right_schema.names]
    # Disambiguate overlapping non-key columns up front (suffix on the right).
    renamed_right = {
        n: (n + suffix if (n in left_cols and n not in on_cols) else n)
        for n in right_cols
    }
    all_fields = {}
    for f in left_schema:
        all_fields[f.name] = f.type
    for f in right_schema:
        name = renamed_right[f.name]
        if name not in all_fields:
            all_fields[name] = f.type
    union_names = list(all_fields)

    def pad(batch: pa.Table, side: int) -> pa.Table:
        n = batch.num_rows
        if side == 1:
            batch = batch.rename_columns([renamed_right[c] for c in batch.column_names])
        cols = {}
        for name in union_names:
            if name in batch.column_names:
                cols[name] = batch.column(name)
            else:
                cols[name] = pa.nulls(n, type=all_fields[name])
        out = pa.table(cols)
        out = out.append_column(
            "__jbucket", pa.array(_bucket_array_multi(out, on_cols, n_buckets),
                                  pa.int32())
        )
        return out.append_column(
            "__jside", pa.array(np.full(n, side, dtype=np.int8), pa.int8())
        )

    tagged = left.map_batches(lambda b: pad(b, 0), batch_format="pyarrow").union(
        right.map_batches(lambda b: pad(b, 1), batch_format="pyarrow")
    )

    right_out = [renamed_right[c] for c in right_cols
                 if renamed_right[c] not in on_cols]
    out_names = left_cols + right_out
    # Null padding promotes int columns to float in pandas; once a side's own
    # rows are isolated, cast them back (``_int_casts``).
    left_dtypes = {
        f.name: f.type.to_pandas_dtype() for f in left_schema
        if pa.types.is_integer(f.type)
    }
    right_dtypes = {
        renamed_right[f.name]: f.type.to_pandas_dtype() for f in right_schema
        if pa.types.is_integer(f.type)
    }

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g[g["__jside"] == 0][left_cols]
        rhs = g[g["__jside"] == 1][on_cols + right_out]
        # Null keys never equi-match (SQL semantics; pandas would match
        # NaN == NaN): drop them from the right for inner/left (kept
        # unmatched on the right for outer), and from the left for inner
        # joins (kept unmatched for left/outer — pandas NaN keys merge to
        # no match once the other side has none, which is correct).
        rhs_keyed = rhs[on_cols].notna().all(axis=1)
        rhs_nullkey = rhs[~rhs_keyed] if how == "outer" else None
        rhs = rhs[rhs_keyed]
        if how == "inner":
            lhs = lhs[lhs[on_cols].notna().all(axis=1)]
        lhs = lhs.astype({
            k: v for k, v in _int_casts(lhs, left_dtypes).items()
            if not (k in on_cols and lhs[k].isna().any())
        })
        rhs = rhs.astype(_int_casts(rhs, right_dtypes))
        if lhs.empty and (rhs.empty or how != "outer"):
            return _typed_empty(out_names, all_fields)
        if rhs.empty and how == "inner":
            return _typed_empty(out_names, all_fields)
        out = lhs.merge(rhs, on=on_cols, how=how)
        if out.empty and (rhs_nullkey is None or not len(rhs_nullkey)):
            # an empty MERGE RESULT carries object dtypes too (same
            # size-estimator noise as untyped empties) — re-type it
            return _typed_empty(out_names, all_fields)
        if how == "outer" and rhs_nullkey is not None and len(rhs_nullkey):
            # Right rows with a null key survive a FULL OUTER join
            # unmatched; re-append them with left columns null.
            out = pd.concat([out, rhs_nullkey], ignore_index=True)
        if how == "outer":
            # Unmatched rows null-pad the other side; keep integer columns
            # integer via pandas' nullable Int64 (Arrow: int64 with nulls)
            # so block schemas stay identical across buckets.
            for k in list(left_dtypes) + list(right_dtypes):
                if k in out.columns and out[k].dtype == np.float64:
                    out[k] = out[k].astype("Int64")
        return out

    return bucket_exchange(tagged, "__jbucket", n_buckets, join_bucket, "pandas")


def asof_join(
    left,
    right,
    by: str,
    left_on: str,
    right_on: str,
    n_buckets: int = 32,
    left_schema=None,
    right_schema=None,
):
    """As-of join (backward): for each left row, the latest right row with
    ``right_on <= left_on`` within the same ``by`` key.  Inner semantics
    (left rows with no match are dropped) — DuckDB's ``ASOF JOIN``.

    Physical plan: bucket both sides on the ``by`` key (one shuffle each),
    then ``pd.merge_asof`` per bucket over time-sorted frames (ray_guide
    "As-of / range join").  The right side must be unique per
    (by, right_on) — pre-aggregate upstream for deterministic output.
    Pass explicit schemas for map_batches-derived sides (see
    partitioned_hash_join).
    """
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    all_fields = {f.name: f.type for f in left_schema}
    for f in right_schema:
        if f.name not in all_fields:
            all_fields[f.name] = f.type
    union_names = list(all_fields)

    def pad(batch: pa.Table, side: int) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for name in union_names:
            if name in batch.column_names:
                cols[name] = batch.column(name)
            else:
                cols[name] = pa.nulls(n, type=all_fields[name])
        out = pa.table(cols)
        out = out.append_column(
            "__jbucket", pa.array(_bucket_array(out.column(by), n_buckets), pa.int32())
        )
        return out.append_column(
            "__jside", pa.array(np.full(n, side, dtype=np.int8), pa.int8())
        )

    tagged = left.map_batches(lambda b: pad(b, 0), batch_format="pyarrow").union(
        right.map_batches(lambda b: pad(b, 1), batch_format="pyarrow")
    )

    int_back_l = {
        f.name: f.type.to_pandas_dtype() for f in left_schema
        if pa.types.is_integer(f.type)
    }
    int_back_r = {
        f.name: f.type.to_pandas_dtype() for f in right_schema
        if pa.types.is_integer(f.type)
    }
    out_cols = left_cols + [c for c in right_cols if c not in left_cols]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g[g["__jside"] == 0][left_cols].astype(int_back_l)
        rhs = g[g["__jside"] == 1][right_cols].astype(int_back_r)
        if lhs.empty or rhs.empty:
            return pd.DataFrame(columns=out_cols)
        # Normalize datetime resolution (parquet us vs groupby-output s).
        if np.issubdtype(lhs[left_on].dtype, np.datetime64):
            lhs[left_on] = lhs[left_on].astype("datetime64[us]")
        if np.issubdtype(rhs[right_on].dtype, np.datetime64):
            rhs[right_on] = rhs[right_on].astype("datetime64[us]")
        lhs = lhs.sort_values(left_on, kind="mergesort")
        rhs = rhs.sort_values(right_on, kind="mergesort")
        merged = pd.merge_asof(
            lhs, rhs, left_on=left_on, right_on=right_on,
            left_by=by, right_by=by, direction="backward",
        )
        merged = merged.dropna(subset=[right_on])  # inner semantics
        # merge_asof leaves right ints as float when some rows unmatched.
        for c, dt in int_back_r.items():
            if c in merged.columns:
                merged[c] = merged[c].astype(dt)
        return merged[out_cols]

    return bucket_exchange(tagged, "__jbucket", n_buckets, join_bucket, "pandas")


def range_join(
    points,
    intervals,
    point_on: str,
    lo_col: str,
    hi_col: str,
    bucket_width: int,
    n_buckets: int = 32,
    suffix: str = "_r",
    point_schema=None,
    interval_schema=None,
):
    """Range (interval-containment) join: every point row pairs with every
    interval row satisfying ``lo_col <= point_on <= hi_col`` (inclusive both
    ends — SQL ``BETWEEN``).  Inner semantics: points with no containing
    interval are dropped.  All three join columns must be integer-valued
    (cast timestamps to epoch int64 upstream).

    Physical plan — the classic banded replication join:
      1. each point gets a coarse band ``cb = floor(point / bucket_width)``;
      2. each interval is REPLICATED to every band it overlaps
         (``floor(lo/W) .. floor(hi/W)``) — replication factor is
         ``len/W + 1``, so pick ``bucket_width`` on the order of the typical
         interval length (giant intervals replicate proportionally; they are
         the hot keys of this operator and should be routed separately);
      3. both sides exchange once on ``hash(cb) % n_buckets``; inside a
         task the match is per-band vectorized: points sorted once, each
         interval expands to its ``searchsorted(lo) .. searchsorted(hi)``
         slice via the arange/repeat trick — no per-pair Python, no
         cartesian blowup beyond the true output size.
    A (point, interval) pair is emitted EXACTLY once: only the interval
    replica whose band equals the point's band can produce it, and a point
    inside ``[lo, hi]`` always lands in one of the interval's bands.

    Ray Data has no native range join; this composition is (a) of the
    custom-operator ladder.  Partitioning assumption: output size is the
    true match count — a band whose intervals all contain all its points
    is quadratic in that band alone (bounded by ``bucket_width``)."""
    point_schema = point_schema or _arrow_schema(points)
    interval_schema = interval_schema or _arrow_schema(intervals)
    p_cols = list(point_schema.names)
    renamed_i = {
        n: (n + suffix if n in p_cols else n) for n in interval_schema.names
    }
    i_cols = [renamed_i[n] for n in interval_schema.names]
    all_fields = {f.name: f.type for f in point_schema}
    for f in interval_schema:
        all_fields[renamed_i[f.name]] = f.type
    union_names = list(all_fields)
    lo_out, hi_out = renamed_i[lo_col], renamed_i[hi_col]
    out_cols = p_cols + i_cols

    def pad_points(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column(point_on)))
        p = batch.column(point_on).to_numpy(zero_copy_only=False).astype(np.int64)
        cb = np.floor_divide(p, bucket_width)
        cols = {}
        for name in union_names:
            if name in batch.column_names:
                cols[name] = batch.column(name)
            else:
                cols[name] = pa.nulls(batch.num_rows, type=all_fields[name])
        out = pa.table(cols)
        out = out.append_column("__cband", pa.array(cb, pa.int64()))
        out = out.append_column(
            "__jbucket",
            pa.array(_bucket_array(pa.chunked_array([pa.array(cb)]), n_buckets),
                     pa.int32()))
        return out.append_column(
            "__jside", pa.array(np.zeros(out.num_rows, np.int8), pa.int8()))

    def pad_intervals(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            [renamed_i[c] for c in batch.column_names])
        ok = pc.and_(pc.is_valid(batch.column(lo_out)),
                     pc.is_valid(batch.column(hi_out)))
        batch = batch.filter(ok)
        lo = batch.column(lo_out).to_numpy(zero_copy_only=False).astype(np.int64)
        hi = batch.column(hi_out).to_numpy(zero_copy_only=False).astype(np.int64)
        cb_lo = np.floor_divide(lo, bucket_width)
        cb_hi = np.floor_divide(np.maximum(hi, lo), bucket_width)
        counts = cb_hi - cb_lo + 1
        total = int(counts.sum())
        # Replica r of interval i targets band cb_lo[i] + r (arange trick).
        starts = np.cumsum(counts) - counts
        bands = (np.arange(total, dtype=np.int64)
                 - np.repeat(starts, counts)
                 + np.repeat(cb_lo, counts))
        src = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
        rep = batch.take(pa.array(src))
        cols = {}
        for name in union_names:
            if name in rep.column_names:
                cols[name] = rep.column(name)
            else:
                cols[name] = pa.nulls(total, type=all_fields[name])
        out = pa.table(cols)
        out = out.append_column("__cband", pa.array(bands, pa.int64()))
        out = out.append_column(
            "__jbucket",
            pa.array(_bucket_array(pa.chunked_array([pa.array(bands)]),
                                   n_buckets), pa.int32()))
        return out.append_column(
            "__jside", pa.array(np.ones(total, np.int8), pa.int8()))

    tagged = points.map_batches(pad_points, batch_format="pyarrow").union(
        intervals.map_batches(pad_intervals, batch_format="pyarrow")
    )

    int_back_p = {
        f.name: f.type.to_pandas_dtype() for f in point_schema
        if pa.types.is_integer(f.type)
    }
    int_back_i = {
        renamed_i[f.name]: f.type.to_pandas_dtype() for f in interval_schema
        if pa.types.is_integer(f.type)
    }

    def typed_empty() -> pd.DataFrame:
        # Typed empty: an untyped pd.DataFrame(columns=...) defaults every
        # column to object/float64 and poisons the output schema (ADVICE r2).
        cols = {}
        for name in out_cols:
            try:
                cols[name] = pd.Series(dtype=all_fields[name].to_pandas_dtype())
            except (NotImplementedError, TypeError):
                cols[name] = pd.Series(dtype=object)
        return pd.DataFrame(cols)

    def match_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pts = g[g["__jside"] == 0]
        ivs = g[g["__jside"] == 1]
        if pts.empty or ivs.empty:
            return typed_empty()
        pts = pts.astype(int_back_p).sort_values(
            ["__cband", point_on], kind="mergesort")
        ivs = ivs.astype(int_back_i)
        out_parts = []
        p_by_band = dict(tuple(pts.groupby("__cband", sort=False)))
        for band, iv in ivs.groupby("__cband", sort=False):
            pb = p_by_band.get(band)
            if pb is None:
                continue
            pv = pb[point_on].to_numpy()
            lo = iv[lo_out].to_numpy()
            hi = iv[hi_out].to_numpy()
            a = np.searchsorted(pv, lo, side="left")
            b = np.searchsorted(pv, hi, side="right")
            counts = np.maximum(b - a, 0)  # inverted intervals match nothing
            a = np.minimum(a, len(pv))
            total = int(counts.sum())
            if total == 0:
                continue
            starts = np.cumsum(counts) - counts
            p_idx = (np.arange(total, dtype=np.int64)
                     - np.repeat(starts, counts) + np.repeat(a, counts))
            i_idx = np.repeat(np.arange(len(iv), dtype=np.int64), counts)
            part = pb.iloc[p_idx][p_cols].reset_index(drop=True)
            part[i_cols] = iv.iloc[i_idx][i_cols].reset_index(drop=True)
            out_parts.append(part)
        if not out_parts:
            return typed_empty()
        return pd.concat(out_parts, ignore_index=True)[out_cols]

    return bucket_exchange(tagged, "__jbucket", n_buckets, match_bucket,
                           "pandas")


def interval_overlap_join(
    left,
    right,
    left_lo: str,
    left_hi: str,
    right_lo: str,
    right_hi: str,
    bucket_width: int,
    n_buckets: int = 32,
    suffix: str = "_r",
    left_schema=None,
    right_schema=None,
):
    """Interval x interval OVERLAP join: every (left, right) row pair
    satisfying ``left_lo <= right_hi AND right_lo <= left_hi`` (inclusive
    — the SQL ``a.lo <= b.hi AND b.lo <= a.hi`` predicate).  Inner
    semantics; all four bound columns must be integer-valued (cast
    timestamps to epoch int64 upstream).  ``range_join`` is the
    point-in-interval special case; this is the general form (session x
    incident windows, span x span co-occurrence).

    Physical plan — banded replication on BOTH sides:
      1. each interval replicates to every coarse band
         ``floor(lo/W) .. floor(hi/W)`` it touches (replication factor
         ``len/W + 1`` — pick ``bucket_width`` near the LONGER side's
         typical length);
      2. one exchange of each side on ``hash(band) % n_buckets``;
      3. inside a band the match is vectorized (left sorted by lo once,
         per-right ``searchsorted`` prefix + arange/repeat expansion,
         boolean overlap mask);
      4. a true pair is emitted EXACTLY once: only in the band containing
         ``max(left_lo, right_lo)`` — that point lies inside both
         intervals whenever they overlap, so both replicas exist there,
         and the in-band guard drops every other co-located replica pair.

    Partitioning hazard (document per range_join): in-band candidate
    generation is (lefts-in-band x rights-with-lo<=hi) before the mask —
    a band stuffed with long overlapping intervals is quadratic in that
    band alone.  Bound it by choosing W >= typical interval length so
    per-band populations stay near the true match density."""
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    l_cols = list(left_schema.names)
    renamed_r = {
        n: (n + suffix if n in l_cols else n) for n in right_schema.names
    }
    r_cols = [renamed_r[n] for n in right_schema.names]
    all_fields = {f.name: f.type for f in left_schema}
    for f in right_schema:
        all_fields[renamed_r[f.name]] = f.type
    union_names = list(all_fields)
    rlo_out, rhi_out = renamed_r[right_lo], renamed_r[right_hi]
    out_cols = l_cols + r_cols

    def replicate(batch: pa.Table, lo_name: str, hi_name: str,
                  side: int) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch.column(lo_name)),
                     pc.is_valid(batch.column(hi_name)))
        batch = batch.filter(ok)
        lo = batch.column(lo_name).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        hi = batch.column(hi_name).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cb_lo = np.floor_divide(lo, bucket_width)
        cb_hi = np.floor_divide(np.maximum(hi, lo), bucket_width)
        counts = cb_hi - cb_lo + 1
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        bands = (np.arange(total, dtype=np.int64)
                 - np.repeat(starts, counts)
                 + np.repeat(cb_lo, counts))
        src = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
        rep = batch.take(pa.array(src))
        cols = {}
        for name in union_names:
            if name in rep.column_names:
                cols[name] = rep.column(name)
            else:
                cols[name] = pa.nulls(total, type=all_fields[name])
        out = pa.table(cols)
        out = out.append_column("__cband", pa.array(bands, pa.int64()))
        out = out.append_column(
            "__jbucket",
            pa.array(_bucket_array(pa.chunked_array([pa.array(bands)]),
                                   n_buckets), pa.int32()))
        return out.append_column(
            "__jside", pa.array(np.full(total, side, np.int8), pa.int8()))

    def pad_left(batch: pa.Table) -> pa.Table:
        return replicate(batch, left_lo, left_hi, 0)

    def pad_right(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            [renamed_r[c] for c in batch.column_names])
        return replicate(batch, rlo_out, rhi_out, 1)

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow"))

    int_back_l = {
        f.name: f.type.to_pandas_dtype() for f in left_schema
        if pa.types.is_integer(f.type)
    }
    int_back_r = {
        renamed_r[f.name]: f.type.to_pandas_dtype() for f in right_schema
        if pa.types.is_integer(f.type)
    }

    def typed_empty() -> pd.DataFrame:
        cols = {}
        for name in out_cols:
            try:
                cols[name] = pd.Series(
                    dtype=all_fields[name].to_pandas_dtype())
            except (NotImplementedError, TypeError):
                cols[name] = pd.Series(dtype=object)
        return pd.DataFrame(cols)

    def match_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ls = g[g["__jside"] == 0]
        rs = g[g["__jside"] == 1]
        if ls.empty or rs.empty:
            return typed_empty()
        ls = ls.astype(int_back_l).sort_values(
            ["__cband", left_lo], kind="mergesort")
        rs = rs.astype(int_back_r)
        out_parts = []
        l_by_band = dict(tuple(ls.groupby("__cband", sort=False)))
        for band, rb in rs.groupby("__cband", sort=False):
            lb = l_by_band.get(band)
            if lb is None:
                continue
            llo = lb[left_lo].to_numpy()
            lhi = lb[left_hi].to_numpy()
            rlo = rb[rlo_out].to_numpy()
            rhi = rb[rhi_out].to_numpy()
            # Candidates: lefts with lo <= right's hi (sorted prefix).
            k = np.searchsorted(llo, rhi, side="right")
            total = int(k.sum())
            if total == 0:
                continue
            starts = np.cumsum(k) - k
            l_idx = (np.arange(total, dtype=np.int64)
                     - np.repeat(starts, k))
            r_idx = np.repeat(np.arange(len(rb), dtype=np.int64), k)
            lo_max = np.maximum(llo[l_idx], rlo[r_idx])
            keep = ((lhi[l_idx] >= rlo[r_idx])
                    & (lo_max // bucket_width == band))
            if not keep.any():
                continue
            l_idx, r_idx = l_idx[keep], r_idx[keep]
            part = lb.iloc[l_idx][l_cols].reset_index(drop=True)
            part[r_cols] = rb.iloc[r_idx][r_cols].reset_index(drop=True)
            out_parts.append(part)
        if not out_parts:
            return typed_empty()
        return pd.concat(out_parts, ignore_index=True)[out_cols]

    return bucket_exchange(tagged, "__jbucket", n_buckets, match_bucket,
                           "pandas")


def semi_join(left, right, on: str):
    """Distributed semi-join: keep left rows whose key appears in ``right``.

    The right side is first reduced to DISTINCT keys (thin groupby — only the
    key column shuffles), then one inner hash join against the left.  Use
    this instead of a broadcast ``is_in`` whenever the key set derives from a
    FACT table (unbounded at corpus scale); keep the broadcast form for
    dimension-derived sets.  The keys take the left key's type."""
    from .aggregate import pre_aggregated_count

    left_schema = _arrow_schema(left)
    key_schema = pa.schema([left_schema.field(on)])
    # Distinct keys via the bucketed combine (the key is near-unique, so
    # Ray's key-sort groupby is the slow path — see bucketed_combine).
    keys = pre_aggregated_count(right, on, alias="__n").map_batches(
        lambda t: t if t.num_columns == 0 else t.select([on]).cast(key_schema),
        batch_format="pyarrow")
    return partitioned_hash_join(left, keys, on=on, n_buckets=16,
                                 left_schema=left_schema,
                                 right_schema=key_schema)


def anti_join(left, right, on: str, n_buckets: int = 32, left_schema=None):
    """Distributed anti-join: keep left rows whose key does NOT appear in
    ``right`` (which is projected to its distinct ``on`` keys — thin).

    Physical plan: both sides gain ``__jbucket = hash(key) % B``; the right
    side is padded to the left schema with typed nulls so the union is
    block-level; one ``bucket_exchange`` on the bucket id and a vectorized
    ``is_in``-invert per bucket.  ONE bounded full-row shuffle of the left
    side, arrow-native throughout, so it works with NESTED left columns
    (struct fields, span lists), which pyarrow joins reject.  This is the
    scale path for survivor filtering: the removed-id set is never
    collected to the driver or broadcast (VERDICT r2 #2).

    Null left keys are KEPT (a null equals nothing, so it can never match a
    removed id)."""
    left_schema = left_schema or _arrow_schema(left)
    left_names = list(left_schema.names)
    types = {f.name: f.type for f in left_schema}

    def pad_left(batch: pa.Table) -> pa.Table:
        out = batch.select(left_names)
        out = out.append_column(
            "__jbucket", pa.array(_bucket_array(out.column(on), n_buckets), pa.int32())
        )
        return out.append_column(
            "__jside", pa.array(np.zeros(batch.num_rows, dtype=np.int8), pa.int8())
        )

    def pad_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            name: (batch.column(on) if name == on else pa.nulls(n, type=types[name]))
            for name in left_names
        }
        out = pa.table(cols).cast(pa.schema([(c, types[c]) for c in left_names]))
        out = out.append_column(
            "__jbucket", pa.array(_bucket_array(out.column(on), n_buckets), pa.int32())
        )
        return out.append_column(
            "__jside", pa.array(np.ones(n, dtype=np.int8), pa.int8())
        )

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.select_columns([on]).map_batches(pad_right, batch_format="pyarrow")
    )

    def filter_bucket(g: pa.Table) -> pa.Table:
        # A bucket that crossed a pandas reduce carries the right side's
        # typed-null padding as float64 in the left's int columns: cast
        # back to the left schema.
        side = g.column("__jside")
        lhs = g.filter(pc.equal(side, 0)).select(left_names).cast(left_schema)
        rkeys = g.filter(pc.equal(side, 1)).column(on).cast(types[on]) \
            .combine_chunks()
        if len(rkeys) == 0:
            return lhs
        member = pc.is_in(lhs.column(on), value_set=rkeys)
        keep = pc.or_kleene(pc.invert(member), pc.is_null(lhs.column(on)))
        return lhs.filter(pc.fill_null(keep, True))

    return bucket_exchange(tagged, "__jbucket", n_buckets, filter_bucket,
                           "pyarrow")


def attach_column(big, slim, on: str, value_col: str, n_buckets: int = 32,
                  big_schema=None):
    """Inner-join-attach ONE column from a thin (key, value) table onto a
    wide dataset that may carry NESTED columns (structs, span lists):
    arrow-native throughout — pandas merges corrupt nested columns on the
    arrow round-trip, and the arrow hash join rejects them outright.

    Physical plan (the ``anti_join`` shape): both sides bucket on
    hash(key) and union; each bucket resolves the value with one
    vectorized ``index_in`` + ``take``.  Big rows whose key misses are
    dropped (inner semantics).  ONE bounded full-row shuffle of the big
    side; the slim side ships (key, value) only."""
    big_schema = big_schema or _arrow_schema(big)
    names = list(big_schema.names)
    types = {f.name: f.type for f in big_schema}
    slim_schema = _arrow_schema(slim)
    vtype = dict(zip(slim_schema.names, slim_schema.types))[value_col]
    out_names = names + [value_col]

    def pad_big(batch: pa.Table) -> pa.Table:
        out = batch.select(names)
        out = out.append_column(value_col, pa.nulls(batch.num_rows, vtype))
        out = out.append_column(
            "__jbucket",
            pa.array(_bucket_array(out.column(on), n_buckets), pa.int32()))
        return out.append_column(
            "__jside", pa.array(np.zeros(batch.num_rows, np.int8), pa.int8()))

    def pad_slim(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            name: (batch.column(on) if name == on
                   else pa.nulls(n, type=types[name]))
            for name in names
        }
        cols[value_col] = batch.column(value_col).cast(vtype)
        out = pa.table(cols)
        out = out.append_column(
            "__jbucket",
            pa.array(_bucket_array(out.column(on), n_buckets), pa.int32()))
        return out.append_column(
            "__jside", pa.array(np.ones(n, np.int8), pa.int8()))

    tagged = big.map_batches(pad_big, batch_format="pyarrow").union(
        slim.select_columns([on, value_col]).map_batches(
            pad_slim, batch_format="pyarrow")
    )

    def resolve_bucket(g: pa.Table) -> pa.Table:
        side = g.column("__jside")
        lhs = g.filter(pc.equal(side, 0)).drop_columns(
            ["__jbucket", "__jside"])
        rhs = g.filter(pc.equal(side, 1))
        idx = pc.index_in(lhs.column(on),
                          value_set=rhs.column(on).combine_chunks())
        hit = pc.is_valid(idx)
        lhs = lhs.filter(hit)
        vals = pc.take(rhs.column(value_col).combine_chunks(),
                       idx.filter(hit))
        return lhs.set_column(lhs.column_names.index(value_col),
                              value_col, vals)

    return bucket_exchange(
        tagged, "__jbucket", n_buckets, resolve_bucket, "pyarrow"
    ).map_batches(lambda t: t.select(out_names), batch_format="pyarrow")


def detect_hot_keys(ds, on: str, min_count: int):
    """Driver-side hot-key detection: keys whose row count >= ``min_count``.
    The per-key count table is produced distributed (bucketed combine);
    only keys ABOVE the threshold reach the driver — for a sane threshold
    (a multiple of the average per-task row count) that is a handful of
    keys by construction, never the key universe."""
    from .aggregate import pre_aggregated_count

    counts = pre_aggregated_count(ds, on, alias="__n")
    hot = counts.map_batches(
        lambda t: t if t.num_columns == 0
        else t.filter(pc.greater_equal(t.column("__n"), min_count)),
        batch_format="pyarrow",
    )
    return [r[on] for r in hot.iter_rows()]


def salted_join(left, right, on: str, hot_keys, n_salt: int = 8,
                n_buckets: int = 32, how: str = "inner", suffix: str = "_r",
                left_schema=None, right_schema=None):
    """Skew-defusing hash join: rows of ``left`` carrying a HOT key are
    spread across ``n_salt`` salted partitions, and the matching ``right``
    rows are REPLICATED to all ``n_salt`` salts — so one dominant key
    (a null-ish URL, a bot user, an empty-string hash) fans out over
    ``n_salt`` reducers instead of pinning one task while the cluster
    idles.  Non-hot keys pay nothing (salt 0, one copy).

    ``how`` is restricted to 'inner'/'left': for those, semantics are
    exactly ``partitioned_hash_join(left, right, on, how)`` — the salt
    only changes WHERE a pair is produced, never whether.  'outer' is
    REJECTED: a replicated hot right row whose salt has no matching left
    row would emit up to n_salt null-padded duplicates, and its key would
    survive only in the dropped suffixed column (ADVICE r3) — use
    ``partitioned_hash_join`` directly for FULL OUTER.
    ``hot_keys`` is explicit (see ``detect_hot_keys``); replication cost
    is ``n_salt x |right rows with hot keys|``, so hot keys should be few
    and the right side's hot rows small (the dimension side of a skewed
    fact-dim join).  The composite exchange key is ``str(key)#salt`` —
    typed key columns survive untouched; only the exchange keys on a
    string."""
    if how not in ("inner", "left"):
        raise ValueError(
            "salted_join supports how='inner'/'left' only; 'outer' would "
            "duplicate unmatched replicated hot right rows per salt — use "
            "partitioned_hash_join for FULL OUTER")
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    hot_set = pa.array([str(k) for k in hot_keys], pa.string())

    def salt_left(t: pa.Table) -> pa.Table:
        keys = pc.cast(t.column(on), pa.string())
        is_hot = pc.is_in(keys, value_set=hot_set)
        # Any spread works (the salt never changes the join result);
        # row-position round-robin is deterministic per block.
        salt = np.arange(t.num_rows, dtype=np.int64) % n_salt
        salt = np.where(is_hot.to_numpy(zero_copy_only=False), salt, 0)
        jkey = pc.binary_join_element_wise(
            keys, pa.array(salt.astype("U"), pa.string()), "#")
        return t.append_column("__jkey", jkey)

    def salt_right(t: pa.Table) -> pa.Table:
        keys = pc.cast(t.column(on), pa.string())
        is_hot = pc.is_in(keys, value_set=hot_set) \
                   .to_numpy(zero_copy_only=False)
        counts = np.where(is_hot, n_salt, 1).astype(np.int64)
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        salts = (np.arange(total, dtype=np.int64)
                 - np.repeat(starts, counts))
        src = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
        rep = t.take(pa.array(src))
        jkey = pc.binary_join_element_wise(
            pc.cast(rep.column(on), pa.string()),
            pa.array(salts.astype("U"), pa.string()), "#")
        return rep.append_column("__jkey", jkey)

    lschema = pa.schema(list(left_schema) + [pa.field("__jkey", pa.string())])
    rschema = pa.schema(list(right_schema) + [pa.field("__jkey", pa.string())])
    out = partitioned_hash_join(
        left.map_batches(salt_left, batch_format="pyarrow"),
        right.map_batches(salt_right, batch_format="pyarrow"),
        on="__jkey", n_buckets=n_buckets, how=how, suffix=suffix,
        left_schema=lschema, right_schema=rschema,
    )
    # Both sides carry the real key column, so the right copy comes back
    # suffixed; drop it along with the salted exchange key.
    drop = ["__jkey", on + suffix]
    return out.map_batches(
        lambda t: t.drop_columns([c for c in drop if c in t.column_names]),
        batch_format="pyarrow")


def join_size_estimate(left, right, on: str, n_buckets: int = 32):
    """EXACT equi-join output cardinality per key WITHOUT running the join
    — the shuffle pre-flight (the per-table sibling is
    ``key_skew_stats``): |A ⋈ B| = Σ_k c_A(k)·c_B(k), so the planner can
    see a quadratic hot key, pick a salted plan, or reject the join before
    paying its exchange.

    Physical plan: per-batch (key, count) pyarrow partials on each side,
    side-tagged, ONE bucketed combine on the key — only distinct keys per
    batch cross the wire, never rows.  Returns (key, n_left, n_right,
    n_out) for keys present on BOTH sides (keys on one side contribute 0
    to an inner join).  ``on`` must be the unified column name; rename
    upstream if the sides differ."""

    def partial(side: int):
        def f(t: pa.Table) -> pa.Table:
            t2 = t.select([on]).append_column(
                "pn", pa.array(np.ones(t.num_rows, np.int64)))
            g = t2.group_by(on).aggregate([("pn", "sum")])
            return pa.table({
                on: g.column(on),
                "pn": g.column("pn_sum"),
                "side": pa.array(
                    np.full(g.num_rows, side, np.int8), pa.int8()),
            })
        return f

    parts = left.map_batches(partial(0), batch_format="pyarrow").union(
        right.map_batches(partial(1), batch_format="pyarrow"))

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby([on, "side"], sort=False)["pn"].sum() \
              .unstack("side", fill_value=0)
        for c in (0, 1):
            if c not in g.columns:
                g[c] = 0
        g = g[(g[0] > 0) & (g[1] > 0)]
        out = pd.DataFrame({
            on: g.index,
            "n_left": g[0].to_numpy(np.int64),
            "n_right": g[1].to_numpy(np.int64),
        })
        out["n_out"] = out["n_left"] * out["n_right"]
        return pa.Table.from_pandas(out, preserve_index=False)

    from .aggregate import bucketed_combine
    return bucketed_combine(parts, on, combine, n_buckets)
