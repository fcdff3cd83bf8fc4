"""Distributed joins, Ray-Data-native (SURVEY.md §2.5 — the reference has no
joins; these are the engine additions a real pipeline needs).

Every equi-join folds in Arrow through one kernel, ``_local_join``:
``Table.join`` over the key columns plus a row index per side, then a
``take`` of each side's payload into the declared output schema.  The row
index is there because pyarrow refuses struct and list columns as non-key
join fields; ``take`` carries any type, and the cast into the declared
schema gives every output block the same exact types (an all-null int
column stays int, a bucket with no match keeps its columns).  Arrow's join
has SQL null keys: a null key, or a key tuple with a null, matches nothing.

  * broadcast_join — small side converted to Arrow once, ``ray.put``, and
    joined into every batch.  No shuffle.  Use when one side fits in a
    worker's heap (dimension tables, vocabularies).
  * partitioned_hash_join — both sides large: add ``__jbucket = hash(key) % B``
    to each side, tag provenance, cast both to one union schema with typed
    nulls, union, one ``bucket_exchange`` on the bucket id, and
    ``_local_join`` the two sides of each bucket in its fold.  Exactly one
    shuffle of each side; B sized so a bucket pair fits in one task.  Salt
    hot keys upstream when a single key dominates.  ``semi_join`` and
    ``anti_join`` are its filtering siblings.
  * asof_join, range_join, interval_overlap_join — the same exchange, with
    ``Table.join_asof`` or banded ``searchsorted`` index math per bucket
    and the same ``take`` into the declared schema.

Ray's own ``Dataset.join`` is not used: its hash-shuffle aggregator actors
never finish at ``num_cpus=1``, even for a 7x7-row join.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .exchange import bucket_exchange

_HOW = {"inner": "inner", "left": "left outer", "outer": "full outer"}


def _keys(on) -> list:
    return [on] if isinstance(on, str) else list(on)


def _rows(t: pa.Table) -> pa.Array:
    return pa.array(np.arange(t.num_rows, dtype=np.int64))


def _gather(out_schema: pa.Schema, lhs: pa.Table, li, rhs: pa.Table, ri,
            keys: pa.Table = None) -> pa.Table:
    """``out_schema``'s columns, each cast to its declared type: a join key
    from ``keys`` (coalesced for a full outer join), else the left's rows
    at ``li``, else the right's at ``ri`` (a null index, an unmatched row,
    takes a null)."""
    cols = []
    for f in out_schema:
        if keys is not None and f.name in keys.column_names:
            col = keys.column(f.name)
        elif f.name in lhs.column_names:
            col = lhs.column(f.name).take(li)
        else:
            col = rhs.column(f.name).take(ri)
        cols.append(col.cast(f.type))
    return pa.Table.from_arrays(cols, schema=out_schema)


def _local_join(lhs: pa.Table, rhs: pa.Table, on, how: str,
                out_schema: pa.Schema, right_on=None) -> pa.Table:
    """Equi-join two Arrow tables into exactly ``out_schema`` (``how``:
    'inner', 'left' or 'outer').  ``Table.join`` sees only the key columns
    (the right's, ``right_on`` when named differently, cast to the left's
    key types) and a row index per side; every other column is taken by
    that index (``_gather``), so nested payloads join too."""
    on = _keys(on)
    right_on = on if right_on is None else _keys(right_on)
    lk = pa.Table.from_arrays([*(lhs.column(c) for c in on), _rows(lhs)],
                              names=[*on, "__lrow"])
    rk = pa.Table.from_arrays(
        [*(rhs.column(r).cast(lk.schema.field(c).type)
           for c, r in zip(on, right_on)), _rows(rhs)],
        names=[*on, "__rrow"])
    j = lk.join(rk, on, join_type=_HOW[how])
    return _gather(out_schema, lhs, j.column("__lrow"), rhs,
                   j.column("__rrow"), j.select(on))


def broadcast_join(ds, small, on, how: str = "inner", suffix: str = "_r"):
    """Join a Dataset against a small in-memory table (a pandas DataFrame
    or an Arrow table; broadcast, no shuffle).  ``small`` goes to Arrow
    once before ``ray.put``; each batch joins it with ``_local_join``, so
    null keys never match.  Its non-key columns that the batch also has
    get ``suffix``."""
    on_cols = _keys(on)
    if not isinstance(small, pa.Table):
        small = pa.Table.from_pandas(small, preserve_index=False)
    small_ref = ray.put(small)

    def _join(batch: pa.Table) -> pa.Table:
        rhs = ray.get(small_ref)
        rhs = rhs.rename_columns([
            c + suffix if c in batch.column_names and c not in on_cols else c
            for c in rhs.column_names])
        out_schema = pa.schema(
            [*batch.schema, *(f for f in rhs.schema if f.name not in on_cols)])
        return _local_join(batch, rhs, on_cols, how, out_schema)

    return ds.map_batches(_join, batch_format="pyarrow")
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



def _conform(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """``batch`` in ``schema``: a column it lacks is all null and every
    column is cast to its declared type (Ray types an all-None column
    ``null``), so every block entering an exchange has one schema."""
    return pa.Table.from_arrays(
        [batch.column(f.name).cast(f.type) if f.name in batch.column_names
         else pa.nulls(batch.num_rows, f.type) for f in schema],
        schema=schema)


def _tag(t: pa.Table, buckets: np.ndarray, side: int, band=None) -> pa.Table:
    """``t`` plus the exchange's bucket id and side tag (and, for the
    banded joins, each row's band)."""
    if band is not None:
        t = t.append_column("__cband", pa.array(band, pa.int64()))
    t = t.append_column("__jbucket", pa.array(buckets, pa.int32()))
    return t.append_column(
        "__jside", pa.array(np.full(t.num_rows, side, np.int8), pa.int8()))


def _sides(g: pa.Table, left_names, right_names):
    """One bucket's left rows (``__jside`` 0) and right rows (1)."""
    side = g.column("__jside")
    return (g.filter(pc.equal(side, 0)).select(left_names),
            g.filter(pc.equal(side, 1)).select(right_names))


def _ints(col) -> np.ndarray:
    return col.to_numpy().astype(np.int64, copy=False)


def _expand(counts: np.ndarray):
    """Row ``i`` repeated ``counts[i]`` times: per output row its source
    row and its rank among that row's repeats (the arange/repeat trick)."""
    src = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return src, np.arange(len(src), dtype=np.int64) - starts[src]


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
    fold call (``exchange.bucket_exchange``), which ``_local_join``s them.
    ``how`` supports 'inner', 'left' and 'outer' (FULL OUTER — exact per
    bucket because equal key tuples land in the same bucket on both sides,
    so a row unmatched in its bucket is unmatched globally; null keys
    never equi-match — a tuple with ANY null component matches nothing,
    SQL semantics).  Every output block has the declared schema: the
    left's columns, then the right's non-key columns (suffixed where the
    left has the name), with the declared types.

    Pass ``left_schema``/``right_schema`` (pyarrow) when a side sits behind
    map_batches: ``Dataset.schema()`` on such a side executes its upstream
    lineage for one block and the join then re-executes it — an avoidable
    full extra pass (profiled).
    """
    on_cols = _keys(on)
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    left_cols = list(left_schema.names)
    # Disambiguate overlapping non-key columns up front (suffix on the right).
    renamed_right = {
        n: (n + suffix if (n in left_cols and n not in on_cols) else n)
        for n in right_schema.names
    }
    all_fields = {f.name: f.type for f in left_schema}
    for f in right_schema:
        all_fields.setdefault(renamed_right[f.name], f.type)
    union = pa.schema(list(all_fields.items()))

    def pad(batch: pa.Table, side: int) -> pa.Table:
        if side == 1:
            batch = batch.rename_columns(
                [renamed_right[c] for c in batch.column_names])
        t = _conform(batch, union)
        return _tag(t, _bucket_array_multi(t, on_cols, n_buckets), side)

    tagged = left.map_batches(lambda b: pad(b, 0), batch_format="pyarrow").union(
        right.map_batches(lambda b: pad(b, 1), batch_format="pyarrow")
    )

    right_out = [renamed_right[c] for c in right_schema.names
                 if renamed_right[c] not in on_cols]
    out_schema = pa.schema([(n, all_fields[n]) for n in left_cols + right_out])

    def join_bucket(g: pa.Table) -> pa.Table:
        lhs, rhs = _sides(g, left_cols, on_cols + right_out)
        return _local_join(lhs, rhs, on_cols, how, out_schema)

    return bucket_exchange(tagged, "__jbucket", n_buckets, join_bucket,
                           "pyarrow")


_UNITS = ("s", "ms", "us", "ns")


def _asof_ticks(a, b):
    """Two as-of time columns as comparable int64 ticks, both shifted so
    the smallest is 0: timestamps in the finer unit of the two (parquet µs
    meets a groupby's s), ints as they are.  The shift is needed: Arrow's
    ``join_asof`` misorders negative keys (a right key of -1 hid every
    right row after it)."""
    if pa.types.is_timestamp(a.type) and pa.types.is_timestamp(b.type):
        unit = max(a.type.unit, b.type.unit, key=_UNITS.index)
        a = a.cast(pa.timestamp(unit, a.type.tz))
        b = b.cast(pa.timestamp(unit, b.type.tz))
    a, b = a.cast(pa.int64()), b.cast(pa.int64())
    lo = min(pc.min(a).as_py(), pc.min(b).as_py())
    return pc.subtract_checked(a, lo), pc.subtract_checked(b, lo)


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
    (left rows with no match are dropped, and so are rows whose ``by`` or
    time is null) — DuckDB's ``ASOF JOIN``.

    Physical plan: bucket both sides on the ``by`` key (one shuffle each),
    then per bucket one ``Table.join_asof`` over the ``by`` key, the two
    time columns as int64 ticks (``_asof_ticks``) and a row index per side,
    whose matches ``take`` the payload into the declared schema (the
    left's columns, then the right's that the left lacks).  The right side
    must be unique per (by, right_on) — pre-aggregate upstream for
    deterministic output.  Pass explicit schemas for map_batches-derived
    sides (see partitioned_hash_join).
    """
    left_schema = left_schema or _arrow_schema(left)
    right_schema = right_schema or _arrow_schema(right)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    all_fields = {f.name: f.type for f in left_schema}
    for f in right_schema:
        all_fields.setdefault(f.name, f.type)
    union = pa.schema(list(all_fields.items()))
    out_schema = pa.schema([
        (n, all_fields[n])
        for n in left_cols + [c for c in right_cols if c not in left_cols]])

    def pad(batch: pa.Table, side: int) -> pa.Table:
        t = _conform(batch, union)
        return _tag(t, _bucket_array(t.column(by), n_buckets), side)

    tagged = left.map_batches(lambda b: pad(b, 0), batch_format="pyarrow").union(
        right.map_batches(lambda b: pad(b, 1), batch_format="pyarrow")
    )

    def keyed(t: pa.Table, on: str) -> pa.Table:
        return t.filter(pc.and_(pc.is_valid(t.column(by)),
                                pc.is_valid(t.column(on))))

    def join_bucket(g: pa.Table) -> pa.Table:
        lhs, rhs = _sides(g, left_cols, right_cols)
        lhs, rhs = keyed(lhs, left_on), keyed(rhs, right_on)
        if not (lhs.num_rows and rhs.num_rows):
            return out_schema.empty_table()
        lt, rt = _asof_ticks(lhs.column(left_on), rhs.column(right_on))
        lk = pa.table({by: lhs.column(by), "__t": lt, "__lrow": _rows(lhs)})
        rk = pa.table({by: rhs.column(by), "__t": rt, "__rrow": _rows(rhs)})
        j = lk.sort_by("__t").join_asof(rk.sort_by("__t"), "__t", by,
                                        -(2 ** 63 - 1))
        j = j.filter(pc.is_valid(j.column("__rrow")))
        return _gather(out_schema, lhs, j.column("__lrow"), rhs,
                       j.column("__rrow"), j.select([by]))

    return bucket_exchange(tagged, "__jbucket", n_buckets, join_bucket,
                           "pyarrow")


def _banded(batch: pa.Table, lo: str, hi: str, schema: pa.Schema,
            width: int, n_buckets: int, side: int) -> pa.Table:
    """``batch``'s rows whose ``lo`` and ``hi`` are both set, each
    REPLICATED to every band ``floor(x / width)`` that ``[lo, hi]`` touches
    (an inverted interval to its lo band only; a point, ``lo == hi``, to
    its own band), conformed to ``schema`` and tagged for the exchange on
    hash(band)."""
    batch = batch.filter(pc.and_(pc.is_valid(batch.column(lo)),
                                 pc.is_valid(batch.column(hi))))
    l, h = _ints(batch.column(lo)), _ints(batch.column(hi))
    first = np.floor_divide(l, width)
    src, rank = _expand(np.floor_divide(np.maximum(h, l), width) - first + 1)
    band = first[src] + rank
    t = _conform(batch.take(pa.array(src)), schema)
    return _tag(t, _bucket_array(pa.array(band), n_buckets), side, band)


_PAIR = np.dtype([("band", np.int64), ("v", np.int64)])


def _band_pairs(band, v, q_band, q_lo, q_hi):
    """(row, query) index pairs: the rows of a table sorted by (band, v)
    that sit in the query's band with ``q_lo <= v <= q_hi`` — two
    lexicographic ``searchsorted`` per query, then the arange/repeat
    expansion; no per-pair Python and no per-band loop."""
    keys = np.rec.fromarrays([band, v], dtype=_PAIR)
    a = np.searchsorted(keys, np.rec.fromarrays([q_band, q_lo], dtype=_PAIR),
                        "left")
    b = np.searchsorted(keys, np.rec.fromarrays([q_band, q_hi], dtype=_PAIR),
                        "right")
    q, rank = _expand(np.maximum(b - a, 0))  # inverted intervals: nothing
    return a[q] + rank, q


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
         task the match is vectorized: points sorted once by (band, point),
         each interval replica expands to its ``searchsorted`` slice of its
         band (``_band_pairs``) — no per-pair Python, no cartesian blowup
         beyond the true output size; the pairs ``take`` both sides into
         the declared schema (points' columns, then the intervals', suffixed
         where the points have the name).
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
    union = pa.schema([*point_schema, *(
        pa.field(renamed_i[f.name], f.type) for f in interval_schema)])
    lo_out, hi_out = renamed_i[lo_col], renamed_i[hi_col]

    def pad_points(batch: pa.Table) -> pa.Table:
        return _banded(batch, point_on, point_on, union, bucket_width,
                       n_buckets, 0)

    def pad_intervals(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            [renamed_i[c] for c in batch.column_names])
        return _banded(batch, lo_out, hi_out, union, bucket_width,
                       n_buckets, 1)

    tagged = points.map_batches(pad_points, batch_format="pyarrow").union(
        intervals.map_batches(pad_intervals, batch_format="pyarrow")
    )

    def match_bucket(g: pa.Table) -> pa.Table:
        pts, ivs = _sides(g, ["__cband", *p_cols], ["__cband", *i_cols])
        pts = pts.sort_by([("__cband", "ascending"),
                           (point_on, "ascending")])
        p, i = _band_pairs(_ints(pts.column("__cband")),
                           _ints(pts.column(point_on)),
                           _ints(ivs.column("__cband")),
                           _ints(ivs.column(lo_out)),
                           _ints(ivs.column(hi_out)))
        return _gather(union, pts, p, ivs, i)

    return bucket_exchange(tagged, "__jbucket", n_buckets, match_bucket,
                           "pyarrow")


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
      3. inside a bucket the match is vectorized (left sorted by (band, lo)
         once, per-right ``searchsorted`` prefix of its band + arange/repeat
         expansion, boolean overlap mask), and the pairs ``take`` both
         sides into the declared schema (the left's columns, then the
         right's, suffixed where the left has the name);
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
    union = pa.schema([*left_schema, *(
        pa.field(renamed_r[f.name], f.type) for f in right_schema)])
    rlo_out, rhi_out = renamed_r[right_lo], renamed_r[right_hi]

    def pad_left(batch: pa.Table) -> pa.Table:
        return _banded(batch, left_lo, left_hi, union, bucket_width,
                       n_buckets, 0)

    def pad_right(batch: pa.Table) -> pa.Table:
        batch = batch.rename_columns(
            [renamed_r[c] for c in batch.column_names])
        return _banded(batch, rlo_out, rhi_out, union, bucket_width,
                       n_buckets, 1)

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow"))

    def match_bucket(g: pa.Table) -> pa.Table:
        ls, rs = _sides(g, ["__cband", *l_cols], ["__cband", *r_cols])
        ls = ls.sort_by([("__cband", "ascending"), (left_lo, "ascending")])
        llo, lhi = _ints(ls.column(left_lo)), _ints(ls.column(left_hi))
        band = _ints(rs.column("__cband"))
        rlo, rhi = _ints(rs.column(rlo_out)), _ints(rs.column(rhi_out))
        # Candidates: lefts of the right's band with lo <= the right's hi.
        li, ri = _band_pairs(_ints(ls.column("__cband")), llo, band,
                             np.full(len(band), np.iinfo(np.int64).min), rhi)
        keep = ((lhi[li] >= rlo[ri])
                & (np.maximum(llo[li], rlo[ri]) // bucket_width == band[ri]))
        return _gather(union, ls, li[keep], rs, ri[keep])

    return bucket_exchange(tagged, "__jbucket", n_buckets, match_bucket,
                           "pyarrow")


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

    def pad(batch: pa.Table, side: int) -> pa.Table:
        # the right side: its keys in the left's key type, other columns null
        t = _conform(batch, left_schema)
        return _tag(t, _bucket_array(t.column(on), n_buckets), side)

    tagged = left.map_batches(lambda b: pad(b, 0), batch_format="pyarrow").union(
        right.select_columns([on]).map_batches(lambda b: pad(b, 1),
                                               batch_format="pyarrow")
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
        src, salts = _expand(np.where(is_hot, n_salt, 1).astype(np.int64))
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
        g = t.group_by([on, "side"]).aggregate([("pn", "sum")])
        side = g.column("side")
        lhs = g.filter(pc.equal(side, 0)).select([on, "pn_sum"]) \
            .rename_columns([on, "n_left"])
        rhs = g.filter(pc.equal(side, 1)).select([on, "pn_sum"]) \
            .rename_columns([on, "n_right"])
        out = lhs.join(rhs, on, join_type="inner")  # null keys never match
        return out.append_column(
            "n_out", pc.multiply(out.column("n_left"), out.column("n_right")))

    from .aggregate import bucketed_combine
    return bucketed_combine(parts, on, combine, n_buckets)
