"""Aggregation-at-scale helpers (ray_guide "Aggregation at scale"):
partial pre-aggregation before the shuffle, and hot-key salting.

A bare ``groupby(key).aggregate(...)`` shuffles every row.  These helpers
shrink the exchange:
  * ``pre_aggregated_sum`` — combine per batch first (one row per key per
    batch crosses the wire), then reduce the small partials;
  * ``salted_sum`` — skewed hot keys are split into ``n_salt`` sub-keys so
    no single reducer drowns, then a second tiny reduce folds the salt out.

Both are exactly equal to the naive aggregate (tests assert it) — they are
physical-plan rewrites, not approximations.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from ray.data.aggregate import Count, Sum

from .exchange import bucket_exchange
from .join import _bucket_array_multi

_TAG = "__gbucket"


def _tagged(ds, key_cols, n_buckets: int):
    """``ds`` plus ``__gbucket`` = hash(key tuple) % ``n_buckets``: every
    key's rows share one bucket, so any per-key fold inside a bucket is
    exact."""
    import pyarrow as pa

    return ds.map_batches(
        lambda t: t.append_column(_TAG, pa.array(
            _bucket_array_multi(t, key_cols, n_buckets), pa.int32())),
        batch_format="pyarrow",
    )


def bucketed_combine(partials, key: str, combine_fn, n_buckets: int = 32):
    """Final-combine partial aggregates on a hash bucket of the key: tag
    hash(key) % ``n_buckets``, exchange on the small bucket id
    (``exchange.bucket_exchange``: fixed range boundaries, no sampling
    stage), and run ``combine_fn`` (a pyarrow group_by reduce over one
    bucket's rows) per bucket.

    Ray's ``groupby(key)`` sorts the exchange by the full key — measured
    11x slower than a bucketed plan at 600k rows / 147k keys (its sort
    cost grows with key cardinality).  Every key lands wholly in one
    bucket, so the combine is exact."""
    return bucket_exchange(
        _tagged(partials, [key], n_buckets), _TAG, n_buckets,
        lambda t: combine_fn(t.drop_columns([_TAG])), "pyarrow")


def pre_aggregated_sum(ds, key: str, value: str, n_buckets: int = 32):
    """groupby(key) -> (sum(value), count) with per-batch partial combine
    and a bucketed final exchange (see ``bucketed_combine``).

    The partial is a pyarrow group_by so the shuffle receives Arrow blocks
    — a pandas partial forces pandas-block hashing in the exchange,
    measured 20x slower end-to-end."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key).aggregate([(value, "sum"), (value, "count")])
        cols = {key: g.column(key),
                "partial_sum": g.column(f"{value}_sum"),
                "partial_count": g.column(f"{value}_count")}
        return pa.table(cols)

    partials = ds.select_columns([key, value]).map_batches(
        partial, batch_format="pyarrow"
    )

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate(
            [("partial_sum", "sum"), ("partial_count", "sum")]
        )
        return pa.table({key: g.column(key),
                         f"sum_{value}": g.column("partial_sum_sum"),
                         "n_rows": g.column("partial_count_sum")})

    return bucketed_combine(partials, key, combine, n_buckets)


def bucketed_fold(ds, key_cols, bucket_fn, n_buckets: int = 32):
    """Bucket-hash exchange + whole-bucket VECTORIZED fold: like
    ``bucketed_map_groups`` but ``bucket_fn`` receives the ENTIRE bucket
    frame at once and must do its own (vectorized) per-key grouping.

    Use this instead of a per-group ``fold_fn`` when key cardinality is
    huge: a per-group fold constructs one tiny DataFrame per key (millions
    of Python objects through the exchange's reducer); a whole-bucket
    ``sort_values`` / ``drop_duplicates`` / ``groupby().agg`` fold is one
    vectorized pass.  Exactness argument is the same as
    ``bucketed_map_groups``: hashing the keys guarantees key-complete
    buckets.  ``bucket_fn`` must return typed output for empty input (it
    derives dtypes from the input frame, so vectorized folds do naturally)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    return bucket_exchange(
        _tagged(ds, key_cols, n_buckets), _TAG, n_buckets,
        lambda g: bucket_fn(g.drop(columns=[_TAG])), "pandas")


def bucketed_map_groups(ds, key_cols, fold_fn, empty_result=None,
                        n_buckets: int = 32):
    """``groupby(key_cols).map_groups(fold_fn)`` on a hash bucket of the
    keys: exchange on hash(keys) % ``n_buckets``
    (``exchange.bucket_exchange``) and run a pandas groupby + per-group
    fold inside each bucket task.

    Exact for any fold whose groups are key-complete (every key's rows land
    in one bucket — guaranteed by hashing the keys).  Same motivation as
    ``bucketed_combine``: Ray's groupby sorts the exchange by the full key,
    which is the dominant cost at high key cardinality; bucket-hash
    collisions are harmless because the in-bucket pandas groupby still
    separates real keys.  Null-key rows form their own group (dropna=False
    — matching Ray's groupby, which also keeps a null-key group).
    ``empty_result`` is returned for buckets where every group folds to
    nothing: either an empty DataFrame with the fold's output columns AND
    DTYPES (a dtype-less ``pd.DataFrame({"c": []})`` defaults every column
    to float64, emitting blocks whose schema disagrees with non-empty
    buckets — Ray logs a schema-mismatch warning and downstream relies on
    lenient pandas coercion), or a callable ``(bucket_frame) -> DataFrame``
    so output dtypes can be derived from the input's (e.g. id columns that
    inherit the input id dtype)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=[_TAG])
        outs = [
            fold_fn(sub)
            for _, sub in g.groupby(key_cols, sort=False, dropna=False)
        ]
        outs = [o for o in outs if len(o)]
        if not outs:
            if callable(empty_result):
                return empty_result(g)
            return empty_result if empty_result is not None else fold_fn(g.iloc[0:0])
        return pd.concat(outs, ignore_index=True)

    return bucket_exchange(_tagged(ds, key_cols, n_buckets), _TAG, n_buckets,
                           fold_bucket, "pandas")


def pre_aggregated_count(ds, key: str, n_buckets: int = 32,
                         alias: str = "n_rows"):
    """groupby(key) -> count(*) with per-batch partial combine and the
    bucketed final exchange — same plan as ``pre_aggregated_sum``."""
    import pyarrow as pa

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g.column(key),
                         "partial_count": g.column("count_all")})

    partials = ds.select_columns([key]).map_batches(
        partial, batch_format="pyarrow"
    )

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([("partial_count", "sum")])
        return pa.table({key: g.column(key),
                         alias: g.column("partial_count_sum")})

    return bucketed_combine(partials, key, combine, n_buckets)


def salted_sum(ds, key: str, value: str, hot_keys, n_salt: int = 8):
    """groupby(key) -> sum(value) with hot keys split across ``n_salt``
    sub-reducers (salt = crc32(row value) — deterministic, data-derived, no
    RNG).  Stage 1 reduces (key, salt) groups; stage 2 folds salts out.
    The second shuffle is tiny: |keys| + |hot| * n_salt rows."""
    hot = frozenset(hot_keys)

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        def salt_of(row_key, row_val):
            if row_key in hot:
                return zlib.crc32(repr(row_val).encode()) % n_salt
            return 0

        batch = batch[[key, value]].copy()
        batch["__salt"] = [
            salt_of(k, v) for k, v in zip(batch[key], batch[value])
        ]
        return batch

    salted = ds.map_batches(add_salt, batch_format="pandas")
    stage1 = salted.groupby([key, "__salt"]).aggregate(
        Sum(value, alias_name="partial_sum"),
        Count(alias_name="partial_count"),
    )
    return stage1.groupby(key).aggregate(
        Sum("partial_sum", alias_name=f"sum_{value}"),
        Sum("partial_count", alias_name="n_rows"),
    )


def exact_distinct_count(ds, group_col: str, value_col: str,
                         n_buckets: int = 32):
    """Exact COUNT(DISTINCT value) per group: per-batch distinct partial,
    value-hash bucketed final dedup (a pair's bucket depends only on the
    value, so each (group, value) pair meets exactly once), then per-group
    partial counts reduced by one tiny groupby on the (low-cardinality)
    group key.  The standard exact plan when the distinct set is too big to
    broadcast — with the near-unique-pair exchange bucketed rather than
    key-sorted (see ``bucketed_combine``)."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by([group_col, value_col]).aggregate([])

    partials = ds.select_columns([group_col, value_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def combine(t: pa.Table) -> pa.Table:
        d = t.group_by([group_col, value_col]).aggregate([])
        c = d.group_by(group_col).aggregate([([], "count_all")])
        return pa.table({group_col: c.column(group_col),
                         "partial_n": c.column("count_all")})

    per_bucket = bucketed_combine(partials, value_col, combine, n_buckets)
    return per_bucket.groupby(group_col).aggregate(
        Sum("partial_n", alias_name="n_distinct")
    )


def grouped_quantiles(ds, key: str, value: str, ps=(0.25, 0.5, 0.75),
                      n_buckets: int = 32):
    """Exact per-group discrete quantiles (PERCENTILE_DISC semantics: the
    first sorted value whose cumulative share reaches p — always an actual
    element).  One bucketed shuffle on the key; each group's values meet in
    one task.

    Scale note: exact quantiles need a whole group in one task — right for
    per-domain / per-category stats (bounded groups).  For corpus-wide
    quantiles over unbounded groups, sample first or use a mergeable sketch
    instead."""
    import math

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[value].sort_values(kind="mergesort").to_numpy()
        n = len(vals)
        row = {key: g[key].iloc[0], "n_rows": n}
        for p in ps:
            idx = max(int(math.ceil(p * n)) - 1, 0)
            row[f"p{int(p * 100)}"] = vals[idx]
        return pd.DataFrame([row])

    return bucketed_map_groups(ds.select_columns([key, value]), key, fold,
                               n_buckets=n_buckets)


def approx_distinct_count(ds, group_col: str, value_col: str, p: int = 12):
    """Approximate COUNT(DISTINCT value) per group via mergeable HLL
    sketches: one sketch per (group, batch) partial -> register-max merge.
    Error ~1.04/sqrt(2^p).  Partials are tiny (2^p bytes) regardless of
    cardinality — the sketch pattern from ray_guide 'Aggregation at scale'."""
    from ..functions.textstats import HyperLogLog

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for g, sub in batch.groupby(group_col, sort=False):
            h = HyperLogLog(p)
            for v in sub[value_col]:
                h.add(v)
            rows.append({group_col: g, "sketch": h.to_bytes()})
        return pd.DataFrame(rows)

    partials = ds.select_columns([group_col, value_col]).map_batches(
        partial, batch_format="pandas"
    )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        h = HyperLogLog(p)
        for blob in g["sketch"]:
            h = h.merge(HyperLogLog.from_bytes(bytes(blob), p))
        return pd.DataFrame(
            [{group_col: g[group_col].iloc[0],
              "approx_distinct": int(round(h.estimate()))}]
        )

    return partials.groupby(group_col).map_groups(merge_group, batch_format="pandas")


def running_total(ds, key_col: str, order_cols, value_col: str):
    """Per-key running (cumulative) sum ordered by ``order_cols`` — the window
    function family (SUM() OVER (PARTITION BY key ORDER BY a, b)).  One shuffle
    on the key, per-key sorted cumsum.

    ``order_cols`` may be one column name or a list; a multi-column mergesort
    inside the fold replaces any composite integer order key (a ts-scaled
    composite key silently wraps int64 for microsecond timestamps)."""
    if isinstance(order_cols, str):
        order_cols = [order_cols]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(list(order_cols), kind="mergesort").copy()
        g["running_total"] = g[value_col].cumsum()
        return g

    return bucketed_map_groups(ds, key_col, fold)


def pivot_counts(ds, key: str, cat_col: str, categories,
                 value_col: str = None, n_buckets: int = 32):
    """PIVOT: one output row per key, one ``n_<cat>`` count column per
    category (and, with ``value_col``, a ``sum_<cat>_e2`` integer-cents
    sum).  The category list is EXPLICIT — a distributed pivot cannot
    discover columns and keep a stable schema at the same time; unknown
    categories are ignored (they'd otherwise skew-poison the schema).

    Physical plan: per-batch vectorized partial (one groupby per batch
    emits the full pivoted row set for its keys), then one bucketed
    combine summing per key — only pivoted partials cross the wire, never
    input rows.  Equivalent SQL: conditional aggregation
    (SUM(CASE WHEN cat = c THEN 1 END) ...)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    categories = list(categories)
    cnt_cols = [f"n_{c}" for c in categories]
    sum_cols = [f"sum_{c}_e2" for c in categories] if value_col else []

    def partial(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        keys = t.column(key)
        cats = t.column(cat_col)
        df = {"k": keys.to_numpy(zero_copy_only=False)}
        uk, inv = np.unique(df["k"], return_inverse=True)
        out = {key: pa.array(uk)}
        cat_np = np.asarray(cats.to_pylist(), dtype=object)
        if value_col:
            raw = pc.cast(t.column(value_col), pa.float64()) \
                    .to_numpy(zero_copy_only=False)
            cents = np.where(raw >= 0, np.floor(raw * 100 + 0.5),
                             np.ceil(raw * 100 - 0.5)).astype(np.int64)
        for c in categories:
            m = cat_np == c
            out[f"n_{c}"] = pa.array(
                np.bincount(inv[m], minlength=len(uk)).astype(np.int64))
            if value_col:
                out[f"sum_{c}_e2"] = pa.array(
                    np.bincount(inv[m], weights=cents[m],
                                minlength=len(uk)).astype(np.int64))
        return pa.table(out)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate(
            [(c, "sum") for c in cnt_cols + sum_cols])
        cols = {key: g.column(key)}
        for c in cnt_cols + sum_cols:
            cols[c] = g.column(f"{c}_sum")
        return pa.table(cols)

    return bucketed_combine(partials, key, combine, n_buckets)


def grouped_concat(ds, key, value: str, order_cols, sep: str = "|",
                   out_column: str = "seq", n_buckets: int = 32,
                   max_items: int | None = None):
    """Per-key ORDERED concatenation (SQL ``string_agg(value, sep ORDER BY
    ...)`` / the string form of ``array_agg``): one bucketed exchange on
    the key (a single column or a COMPOSITE key list), then a whole-bucket
    vectorized fold (one sort + one groupby per BUCKET, not per key).
    ``order_cols`` must totally order rows within a key or the sequence is
    nondeterministic.

    Use for per-entity event sequences (session replay, user journeys,
    token streams).  ``max_items`` bounds the hot-key output row: the
    sequence keeps only the FIRST max_items values in order while ``n``
    still reports the key's TRUE row count (the ``inverted_index`` posting
    cap pattern, stages/lexicon.py).  Without it a key holding millions of
    rows produces one unbounded string row at its reducer — always set it
    when keys are unbounded."""
    keys = [key] if isinstance(key, str) else list(key)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + list(order_cols), kind="mergesort")
        grouped = g.groupby(keys, sort=False)
        n = grouped[value].size().astype("int64")
        if max_items is not None:
            # Vectorized per-key head: rows past the cap never enter the
            # join, so the reducer's output row is bounded at max_items.
            g = g[grouped.cumcount() < max_items]
            grouped = g.groupby(keys, sort=False)
        agg = grouped.agg(**{out_column: (value, sep.join)})
        agg["n"] = n
        return agg.reset_index()

    cols = keys + [value] + [c for c in order_cols
                             if c not in keys and c != value]
    return bucketed_fold(ds.select_columns(cols), keys, fold,
                         n_buckets=n_buckets)


def histogram_quantiles(ds, key: str, value: str, ps=(0.5, 0.9),
                        n_bins: int = 2048, lo: float = None,
                        hi: float = None, n_buckets: int = 32):
    """MERGEABLE per-group quantile sketch (fixed-grid histogram): the
    scale path for quantiles over groups too big for one task (see
    ``grouped_quantiles`` for the exact bounded-group fold).

    Per batch: one (key, bin) count table — only sparse histogram rows
    cross the wire, never values.  Per key: fold bin counts, take the
    first bin whose cumulative count reaches rank ceil(p*n), report the
    bin's UPPER edge.  Guarantee: the PERCENTILE_DISC exact value lies in
    that bin, so |approx - exact| <= bin width = (hi-lo)/n_bins — checked
    by the ``hist_quantiles`` oracle.  ``lo``/``hi`` default to a cheap
    global Min/Max pass (exact, deterministic); pass domain bounds to
    skip it."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if lo is None or hi is None:
        from ray.data.aggregate import Max as _Max
        from ray.data.aggregate import Min as _Min

        g = ds.aggregate(_Min(value, alias_name="__lo"),
                         _Max(value, alias_name="__hi"))
        lo = float(g["__lo"]) if lo is None else float(lo)
        hi = float(g["__hi"]) if hi is None else float(hi)
    w = (hi - lo) / n_bins
    if w <= 0:
        w = 1.0  # degenerate constant column: everything in bin 0

    def partial(t: pa.Table) -> pa.Table:
        v = pc.cast(t.column(value), pa.float64()) \
              .to_numpy(zero_copy_only=False)
        b = np.clip(((v - lo) // w).astype(np.int64), 0, n_bins - 1)
        tt = pa.table({key: t.column(key), "bin": pa.array(b, pa.int64())})
        g = tt.group_by([key, "bin"]).aggregate([([], "count_all")])
        return pa.table({key: g.column(key), "bin": g.column("bin"),
                         "n": g.column("count_all")})

    partials = ds.select_columns([key, value]).map_batches(
        partial, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby([key, "bin"], sort=False)["n"].sum().reset_index()
        g = g.sort_values([key, "bin"], kind="mergesort")
        rows = []
        for k, sub in g.groupby(key, sort=False):
            cum = sub["n"].cumsum().to_numpy()
            ntot = int(cum[-1])
            row = {key: k, "n_rows": ntot}
            for p in ps:
                r = max(int(np.ceil(p * ntot)), 1)
                i = int(np.searchsorted(cum, r))
                row[f"hq{int(p * 100)}"] = lo + (int(sub["bin"].iloc[i]) + 1) * w
            rows.append(row)
        out = pd.DataFrame(rows)
        out["n_rows"] = out["n_rows"].astype("int64")
        return out

    return bucketed_fold(partials, key, fold, n_buckets=n_buckets)


def unpivot(ds, key_cols, value_cols, cat_column: str = "metric",
            value_column: str = "value"):
    """UNPIVOT / melt: wide columns -> long (key..., metric, value) rows.
    Pure batch-local Arrow (concat of per-column slices) — zero shuffles,
    the exact inverse of ``pivot_counts``'s shape.  All ``value_cols``
    must share one Arrow type (cast upstream)."""
    import pyarrow as pa

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def melt(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: t.column(k) for k in key_cols}
            cols[cat_column] = pa.array([c] * t.num_rows, pa.string())
            cols[value_column] = t.column(c)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.select_columns(key_cols + list(value_cols)).map_batches(
        melt, batch_format="pyarrow")


def _mg_truncate(vals: np.ndarray, cnts: np.ndarray, k: int):
    """Misra-Gries truncation: subtract the (k+1)-th largest count from
    every counter and keep the positive ones (<= k survive)."""
    if len(vals) <= k:
        return vals, cnts
    thresh = np.partition(cnts, len(cnts) - (k + 1))[len(cnts) - (k + 1)]
    keep = cnts > thresh
    return vals[keep], cnts[keep] - thresh


def heavy_hitters(ds, value_col: str, k: int = 256):
    """Mergeable Misra-Gries heavy-hitters sketch over a value stream:
    per-batch exact counts truncated to ``k`` counters, one tiny final
    merge (sum + one more truncation).  Returns (value, est, n_total).

    Guarantees (classic MG, two truncation levels — batch and final):
      * est <= true count, and true - est <= 2 * n_total / (k + 1);
      * every value with true count > 2 * n_total / (k + 1) survives.
    Deterministic regardless of block/merge order: counter sums are
    commutative and both truncations see order-independent totals.  When
    ``k`` >= the stream's distinct-value count nothing ever truncates and
    the sketch is EXACT — the registered query exploits that for a
    hash-exact oracle; the truncation bound is asserted on a zipf fixture
    in tests.  Partials are <= k rows per batch — the exchange never
    carries the stream.  The value column keeps its INPUT type (string,
    int64, ...) end-to-end — counters are typed, not stringified (ADVICE
    r3)."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        vtype = t.schema.field(value_col).type
        g = t.select([value_col]).group_by(value_col).aggregate(
            [([], "count_all")])
        vals = np.asarray(g.column(value_col).to_pylist(), dtype=object)
        cnts = g.column("count_all").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        n = int(cnts.sum())
        vals, cnts = _mg_truncate(vals, cnts, k)
        # n_part rides on one row (summed in the merge).  A fully-uniform
        # batch can truncate to ZERO counters (every count equals the
        # threshold) — carry n on a null-value row then; the merge's
        # groupby drops null keys but sums n_part first.
        if len(vals) == 0:
            return pa.table({
                value_col: pa.array([None], vtype),
                "est": pa.array([0], pa.int64()),
                "n_part": pa.array([n], pa.int64()),
            })
        n_col = np.zeros(len(vals), np.int64)
        n_col[0] = n
        return pa.table({
            value_col: pa.array(list(vals), vtype),
            "est": pa.array(cnts, pa.int64()),
            "n_part": pa.array(n_col, pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        n_total = int(g["n_part"].sum())
        s = g.groupby(value_col, sort=False)["est"].sum().reset_index()
        vals, cnts = _mg_truncate(
            s[value_col].to_numpy(), s["est"].to_numpy().astype(np.int64), k)
        out = pd.DataFrame({value_col: vals, "est": cnts})
        out["n_total"] = np.int64(n_total)
        return out

    # The sketch is <= k rows per batch: one merge task sees everything.
    return bucket_exchange(
        partials.map_batches(
            lambda t: t.append_column("__g", pa_const(t.num_rows)),
            batch_format="pyarrow"),
        "__g", 1, lambda g: merge(g.drop(columns=["__g"])), "pandas")


def pa_const(n: int):
    import pyarrow as pa

    return pa.array(np.zeros(n, np.int8), pa.int8())


def rollup_sum(ds, keys, value: str, all_label: str = "ALL"):
    """``GROUP BY ROLLUP(keys...)`` over an integer value column: one
    distributed pre-aggregated pass at the FINEST level (per-batch partial
    keyed by the full key tuple, one exchange over group-count rows), then
    the coarser levels fold locally from the finest result — the rollup
    lattice is derived from the |groups|-sized table, never from the fact
    rows.  Rolled-up key slots carry ``all_label`` (not NULL) so the output
    hashes identically across engines.

    Returns a pyarrow Table (keys..., sum_<value>, n) sorted by keys —
    rollup outputs are group-count-sized, i.e. small by construction."""
    import pyarrow as pa

    keys = list(keys)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(keys + [value]).group_by(keys).aggregate(
            [(value, "sum"), (value, "count")])
        cols = {k: g.column(k) for k in keys}
        cols["psum"] = g.column(f"{value}_sum")
        cols["pn"] = g.column(f"{value}_count")
        return pa.table(cols)

    finest = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["psum", "pn"])
        .to_pandas()
    )
    finest = finest.rename(columns={"sum(psum)": f"sum_{value}", "sum(pn)": "n"})

    levels = [finest]
    cur = finest
    for i in range(len(keys) - 1, -1, -1):
        grp_keys = keys[:i]
        if grp_keys:
            up = cur.groupby(grp_keys, sort=False, as_index=False)[
                [f"sum_{value}", "n"]].sum()
        else:
            up = cur[[f"sum_{value}", "n"]].sum().to_frame().T
        for k in keys[i:]:
            up[k] = all_label
        levels.append(up[keys + [f"sum_{value}", "n"]])
        cur = up
    import pandas as pd

    out = pd.concat(levels, ignore_index=True)[keys + [f"sum_{value}", "n"]]
    out = out.sort_values(keys, kind="mergesort").reset_index(drop=True)
    out[f"sum_{value}"] = out[f"sum_{value}"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def set_membership(ds, key: str, flag_col: str, a_value, b_value,
                   n_buckets: int = 32):
    """Distributed INTERSECT / EXCEPT without a join: classify every key by
    which of two row predicates it satisfies ('both' = INTERSECT,
    'a_only' / 'b_only' = the two EXCEPTs).  Per-batch partial = one
    (key, has_a, has_b) bool-max row per key per batch; one bucketed
    combine folds the flags — set ops become a flag aggregation, so each
    side's rows shuffle once and nothing is broadcast."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        thin = pa.table({
            key: t.column(key),
            "ha": pc.cast(pc.equal(t.column(flag_col), a_value), pa.int8()),
            "hb": pc.cast(pc.equal(t.column(flag_col), b_value), pa.int8()),
        })
        g = thin.group_by(key).aggregate([("ha", "max"), ("hb", "max")])
        return pa.table({key: g.column(key), "ha": g.column("ha_max"),
                         "hb": g.column("hb_max")})

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([("ha", "max"), ("hb", "max")])
        ha = np.asarray(g.column("ha_max"), dtype=np.int8)
        hb = np.asarray(g.column("hb_max"), dtype=np.int8)
        member = np.where(ha & hb, "both", np.where(ha == 1, "a_only", "b_only"))
        keep = pa.array((ha | hb) == 1)
        return pa.table({key: g.column(key),
                         "membership": pa.array(member, pa.string())}
                        ).filter(keep)

    partials = ds.select_columns([key, flag_col]).map_batches(
        partial, batch_format="pyarrow")
    return bucketed_combine(partials, key, combine, n_buckets)


def cube_sum(ds, keys, value: str, all_label: str = "ALL"):
    """``GROUP BY CUBE(keys...)`` over an integer value column: every
    subset of the keys gets a grouping level.  Same physical shape as
    ``rollup_sum`` — ONE distributed pre-aggregated pass at the finest
    level, then all 2^k - 1 coarser levels fold locally from the
    group-count-sized finest table (never from the fact rows; k is 2-3 in
    practice).  Rolled-up slots carry ``all_label``, not NULL, so the
    output hashes identically across engines."""
    from itertools import combinations

    import pyarrow as pa

    keys = list(keys)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(keys + [value]).group_by(keys).aggregate(
            [(value, "sum"), (value, "count")])
        cols = {k: g.column(k) for k in keys}
        cols["psum"] = g.column(f"{value}_sum")
        cols["pn"] = g.column(f"{value}_count")
        return pa.table(cols)

    finest = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["psum", "pn"])
        .to_pandas()
    )
    finest = finest.rename(columns={"sum(psum)": f"sum_{value}",
                                    "sum(pn)": "n"})

    levels = [finest]
    for r in range(len(keys) - 1, -1, -1):
        for grp_keys in combinations(keys, r):
            grp_keys = list(grp_keys)
            if grp_keys == keys:
                continue
            if grp_keys:
                up = finest.groupby(grp_keys, sort=False, as_index=False)[
                    [f"sum_{value}", "n"]].sum()
            else:
                up = finest[[f"sum_{value}", "n"]].sum().to_frame().T
            for k in keys:
                if k not in grp_keys:
                    up[k] = all_label
            levels.append(up[keys + [f"sum_{value}", "n"]])

    out = pd.concat(levels, ignore_index=True)[keys + [f"sum_{value}", "n"]]
    out = out.sort_values(keys, kind="mergesort").reset_index(drop=True)
    out[f"sum_{value}"] = out[f"sum_{value}"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return pa.Table.from_pandas(out, preserve_index=False)


def grouped_topk(ds, key, order_cols, k: int, ascending=None,
                 out_rank: str = "rnk", n_buckets: int = 32):
    """EXACT per-key top-k with PARTIAL pushdown: top-k is a semigroup
    (top_k(A ∪ B) = top_k(top_k(A) ∪ top_k(B))), so each batch first
    reduces to at most k rows per key, and only those cross the exchange
    — at web scale the shuffle carries k rows per (key, batch) instead of
    the key's full history.  One bucketed fold then ranks the survivors.

    ``order_cols`` must totally order rows within a key (include a unique
    id as the last column) or ranks are nondeterministic; ``ascending``
    is a bool list per order column (default all False = descending)."""
    keys = [key] if isinstance(key, str) else list(key)
    order_cols = list(order_cols)
    if ascending is None:
        ascending = [False] * len(order_cols)

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_cols, ascending=ascending, kind="mergesort")
        return g.groupby(keys, sort=False).head(k)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + order_cols,
                          ascending=[True] * len(keys) + list(ascending),
                          kind="mergesort")
        g = g.groupby(keys, sort=False).head(k).copy()
        g[out_rank] = g.groupby(keys, sort=False).cumcount() + 1
        g[out_rank] = g[out_rank].astype("int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_fold(partials, keys, fold, n_buckets=n_buckets)


# ---------------------------------------------------------- t-digest sketch

def tdigest_compress(means: np.ndarray, weights: np.ndarray, n_total: float,
                     delta: int = 100):
    """One greedy pass of the MERGING t-digest (Dunning & Ertl, "Computing
    extremely accurate quantiles using t-digests"): a mean-sorted centroid
    stream is folded left-to-right, two neighbours merging while the merged
    weight stays under the scale-function size bound
    ``max(1, 4 * n * q * (1 - q) / delta)`` (q = the merged centroid's
    mid-rank share).  The bound pinches to 1 at the tails, so extreme
    quantiles stay near-exact; the price of that tail exactness is a
    centroid count of O(delta * ln n) rather than the k1 scale function's
    O(delta) (measured: 458 centroids for delta=100 over 50k values —
    still a ~100x reduction, and the sketch row count, not accuracy, is
    all that grows with n).

    Deterministic for a fixed (means, weights) MULTISET: inputs are sorted
    by (mean, weight) before folding.  Returns (means, weights) float64
    arrays; total weight is preserved exactly (sums, never renormalizes)."""
    order = np.lexsort((weights, means))
    means = np.asarray(means, np.float64)[order]
    weights = np.asarray(weights, np.float64)[order]
    out_m: list = []
    out_w: list = []
    cur_m = float(means[0])
    cur_w = float(weights[0])
    done_w = 0.0
    for m, w in zip(means[1:], weights[1:]):
        q = (done_w + cur_w + float(w) / 2.0) / n_total
        limit = max(1.0, 4.0 * n_total * q * (1.0 - q) / delta)
        if cur_w + w <= limit:
            cur_m += (float(m) - cur_m) * (float(w) / (cur_w + float(w)))
            cur_w += float(w)
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            done_w += cur_w
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m, np.float64), np.asarray(out_w, np.float64)


def tdigest_quantile(means: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Quantile estimate from a compressed digest: linear interpolation of
    the target rank ``p * n`` over centroid mid-ranks (cumsum - w/2),
    clamped to the first/last centroid mean at the edges."""
    n = float(weights.sum())
    cum = np.cumsum(weights) - weights / 2.0
    return float(np.interp(p * n, cum, means))


def tdigest_quantiles(ds, key: str, value: str, ps=(0.25, 0.5, 0.75, 0.9),
                      delta: int = 100, n_buckets: int = 32):
    """Mergeable t-digest quantile sketch per group — the UNBOUNDED-group
    scale path with tail accuracy that the fixed-grid ``histogram_quantiles``
    can't give (its error is one bin width everywhere; the t-digest's rank
    error shrinks as O(q(1-q)/delta) toward the tails, and it needs no
    lo/hi bounds pass).

    Plan: per (key, batch) partial digest — <= O(delta) (key, mean, weight)
    rows cross the exchange, never values — then ONE bucketed fold
    re-compresses each key's centroid stream and interpolates the
    requested quantiles.  Nulls in ``value`` are ignored (SQL aggregate
    semantics).

    Estimates depend (within the accuracy bound) on how rows were batched,
    so the registered query gates rank error against exact order statistics
    (``grouped_quantiles`` at p +/- eps) instead of hash-comparing floats.
    Output: (key, n_rows, tq{p}...) — n_rows is exact (weight is preserved
    by construction)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        # dropna=False: null keys form their own group (the repo's SQL
        # GROUP BY convention — see bucketed_map_groups)
        for k, sub in b.groupby(key, sort=False, dropna=False):
            v = sub[value].to_numpy(dtype=np.float64)
            v = v[~np.isnan(v)]
            if len(v) == 0:
                continue
            m, w = tdigest_compress(v, np.ones(len(v)), float(len(v)), delta)
            rows.append(pd.DataFrame(
                {key: k, "c_mean": m, "c_weight": w}))
        if not rows:
            return pd.DataFrame({key: pd.Series(dtype=b[key].dtype),
                                 "c_mean": pd.Series(dtype="float64"),
                                 "c_weight": pd.Series(dtype="float64")})
        return pd.concat(rows, ignore_index=True)

    partials = ds.select_columns([key, value]).map_batches(
        partial, batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, sub in g.groupby(key, sort=False, dropna=False):
            m = sub["c_mean"].to_numpy(dtype=np.float64)
            w = sub["c_weight"].to_numpy(dtype=np.float64)
            n = float(w.sum())
            m2, w2 = tdigest_compress(m, w, n, delta)
            row = {key: k, "n_rows": int(round(n))}
            for p in ps:
                row[f"tq{int(p * 100)}"] = tdigest_quantile(m2, w2, p)
            rows.append(row)
        out = pd.DataFrame(rows)
        out["n_rows"] = out["n_rows"].astype("int64")
        return out

    return bucketed_fold(partials, key, fold, n_buckets=n_buckets)


def grouped_mode(ds, key: str, value: str, n_buckets: int = 32):
    """Per-key MODE (most frequent value) with a deterministic tie-break
    (smallest value wins): per-batch (key, value) count partials — one row
    per distinct pair per batch crosses the wire — then ONE bucketed
    combine sums counts and takes the per-key argmax.  Returns
    (key, mode, mode_n); SQL replay is ROW_NUMBER over the pair counts."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key, value]).group_by([key, value]).aggregate(
            [([], "count_all")])
        return pa.table({key: g.column(key), value: g.column(value),
                         "pn": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.select_columns([key, value]).map_batches(
        partial, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False throughout: null keys/values group, not vanish
        # (pyarrow's group_by in the partial already keeps them)
        s = g.groupby([key, value], sort=False, dropna=False)["pn"] \
             .sum().reset_index()
        s = s.sort_values([key, "pn", value],
                          ascending=[True, False, True], kind="mergesort")
        best = s.groupby(key, sort=False, dropna=False).head(1).rename(
            columns={value: "mode", "pn": "mode_n"})
        best["mode_n"] = best["mode_n"].astype("int64")
        return best

    return bucketed_fold(partials, key, fold, n_buckets=n_buckets)


def profile_columns(ds, columns, n_buckets: int = 32):
    """ANALYZE-style table profile: per column, (n_rows, n_nulls,
    n_distinct) — the stats pass a pipeline runs before choosing join
    sides, salting hot keys, or sizing dictionaries.

    One pass, two thin exchanges: every batch emits per-batch DISTINCT
    (column, value-as-string) rows (int64/string columns only — int
    rendering is engine-identical, float formatting is not, so floats are
    rejected) plus a one-row-per-column (n, nulls) partial.  Distinct
    counting is the ``exact_distinct_count`` plan keyed by column name;
    null totals ride ``bucketed_fold``.  Null is not a value: it counts in
    n_nulls, never n_distinct (SQL COUNT(DISTINCT) semantics)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def values_partial(t: pa.Table) -> pa.Table:
        outs = []
        for c in columns:
            col = t.column(c)
            if not (pa.types.is_integer(col.type)
                    or pa.types.is_string(col.type)
                    or pa.types.is_large_string(col.type)):
                raise TypeError(
                    f"profile_columns: column {c!r} ({col.type}) has no "
                    "engine-stable string rendering (int/string only); "
                    "cast or bin it first")
            vals = pc.drop_null(pc.cast(col, pa.string())).unique()
            outs.append(pa.table({
                "col": pa.array([c] * len(vals), pa.string()),
                "v": vals,
            }))
        return pa.concat_tables(outs)

    def counts_partial(t: pa.Table) -> pa.Table:
        names, ns, nulls = [], [], []
        for c in columns:
            names.append(c)
            ns.append(t.num_rows)
            nulls.append(t.column(c).null_count)
        return pa.table({"col": pa.array(names, pa.string()),
                         "n": pa.array(ns, pa.int64()),
                         "nulls": pa.array(nulls, pa.int64())})

    proj = ds.select_columns(list(columns))
    distinct_rows = proj.map_batches(values_partial, batch_format="pyarrow")

    def distinct_fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["col", "v"])
        out = d.groupby("col", sort=False).size().reset_index(name="pd_n")
        out["pd_n"] = out["pd_n"].astype("int64")
        return out

    # bucket by VALUE so each (col, v) pair meets exactly once; per-bucket
    # partial distinct counts then reduce by one tiny groupby on col.
    per_bucket = bucketed_fold(distinct_rows, "v", distinct_fold,
                               n_buckets=n_buckets)
    n_distinct = per_bucket.groupby("col").aggregate(
        Sum("pd_n", alias_name="n_distinct"))

    counts = bucketed_fold(
        proj.map_batches(counts_partial, batch_format="pyarrow"), "col",
        lambda g: g.groupby("col", sort=False)[["n", "nulls"]].sum()
                   .astype("int64").reset_index(),
        n_buckets=8)

    from .join import partitioned_hash_join

    out = partitioned_hash_join(
        counts, n_distinct, on="col", n_buckets=4,
        left_schema=pa.schema([("col", pa.string()), ("n", pa.int64()),
                               ("nulls", pa.int64())]),
        right_schema=pa.schema([("col", pa.string()),
                                ("n_distinct", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table({
            "col": t.column("col"),
            "n_rows": _pc.cast(t.column("n"), pa.int64()),
            "n_nulls": _pc.cast(t.column("nulls"), pa.int64()),
            "n_distinct": _pc.cast(t.column("n_distinct"), pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def grouping_sets_sum(ds, sets, keys, value: str, all_label: str = "ALL"):
    """``GROUP BY GROUPING SETS(sets...)`` over an integer value column —
    the general form behind ROLLUP and CUBE: each requested set (a tuple
    of columns from ``keys``) becomes one grouping level.  Same physical
    shape as ``cube_sum``: ONE distributed pre-aggregated pass at the
    finest level (the union of all set columns), then each set folds
    LOCALLY from the group-count-sized finest table — never from the fact
    rows.  Rolled-up slots carry ``all_label``, not NULL, so output
    hashes identically across engines.  Exactness requires every set to
    be a subset of ``keys`` (asserted)."""
    import pyarrow as pa

    keys = list(keys)
    sets = [list(s) for s in sets]
    for s in sets:
        assert set(s) <= set(keys), (s, keys)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(keys + [value]).group_by(keys).aggregate(
            [(value, "sum"), (value, "count")])
        cols = {k: g.column(k) for k in keys}
        cols["psum"] = g.column(f"{value}_sum")
        cols["pn"] = g.column(f"{value}_count")
        return pa.table(cols)

    finest = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(keys)
        .sum(["psum", "pn"])
        .to_pandas()
    )
    finest = finest.rename(columns={"sum(psum)": f"sum_{value}",
                                    "sum(pn)": "n"})

    levels = []
    for grp_keys in sets:
        if grp_keys == keys:
            up = finest.copy()
        elif grp_keys:
            up = finest.groupby(grp_keys, sort=False, as_index=False)[
                [f"sum_{value}", "n"]].sum()
        else:
            up = finest[[f"sum_{value}", "n"]].sum().to_frame().T
        for k in keys:
            if k not in grp_keys:
                up[k] = all_label
        levels.append(up[keys + [f"sum_{value}", "n"]])

    out = pd.concat(levels, ignore_index=True)[keys + [f"sum_{value}", "n"]]
    out = out.sort_values(keys, kind="mergesort").reset_index(drop=True)
    out[f"sum_{value}"] = out[f"sum_{value}"].astype("int64")
    out["n"] = out["n"].astype("int64")
    import pyarrow as _pa

    return _pa.Table.from_pandas(out, preserve_index=False)


def grouped_moments(ds, key: str, x: str, y: str, n_buckets: int = 32):
    """Mergeable second-order MOMENTS per group over two INTEGER columns:
    (key, n, sum_x, sum_y, sum_xx, sum_yy, sum_xy) — the sufficient
    statistics behind variance, covariance, Pearson correlation and
    one-variable linear regression, kept as exact int64 sums so the
    distributed result is hash-identical to SQL (the float divide/sqrt
    happens at the consumer, off the wire).  Per-batch pyarrow partials
    (one row per key per batch), one bucketed combine.  Caller owns
    overflow headroom: |x|,|y| up to ~1e6 with ~1e6 rows/key fits int64
    products comfortably."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        xv = pc.cast(t.column(x), pa.int64())
        yv = pc.cast(t.column(y), pa.int64())
        base = pa.table({
            key: t.column(key),
            "px": xv, "py": yv,
            "pxx": pc.multiply(xv, xv),
            "pyy": pc.multiply(yv, yv),
            "pxy": pc.multiply(xv, yv),
        })
        g = base.group_by(key).aggregate(
            [("px", "sum"), ("py", "sum"), ("pxx", "sum"),
             ("pyy", "sum"), ("pxy", "sum"), ([], "count_all")])
        return pa.table({
            key: g.column(key),
            "pn": pc.cast(g.column("count_all"), pa.int64()),
            "px": g.column("px_sum"), "py": g.column("py_sum"),
            "pxx": g.column("pxx_sum"), "pyy": g.column("pyy_sum"),
            "pxy": g.column("pxy_sum"),
        })

    partials = ds.select_columns(list(dict.fromkeys([key, x, y]))).map_batches(
        partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate(
            [("pn", "sum"), ("px", "sum"), ("py", "sum"),
             ("pxx", "sum"), ("pyy", "sum"), ("pxy", "sum")])
        return pa.table({
            key: g.column(key),
            "n": g.column("pn_sum"),
            "sum_x": g.column("px_sum"), "sum_y": g.column("py_sum"),
            "sum_xx": g.column("pxx_sum"), "sum_yy": g.column("pyy_sum"),
            "sum_xy": g.column("pxy_sum"),
        })

    return bucketed_combine(partials, key, combine, n_buckets)


def _skyline_mask_2d(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the 2-D maximize-both Pareto frontier, exact
    NOT-EXISTS semantics (a row is dropped iff some row is >= on both dims
    and > on at least one; identical duplicate points all survive).
    Vectorized: sort by (x desc, y desc); within an x-group only rows at
    the group's max y can survive, and the group survives iff that max y
    strictly exceeds the best y seen at any greater x."""
    n = len(xa)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-ya, -xa))
    xs, ys = xa[order], ya[order]
    new_x = np.r_[True, xs[1:] != xs[:-1]]
    group_id = np.cumsum(new_x) - 1
    group_max_y = ys[new_x]                    # y desc within group
    best_upto = np.maximum.accumulate(group_max_y)
    prev_best = np.r_[np.int64(np.iinfo(np.int64).min), best_upto[:-1]]
    group_keep = group_max_y > prev_best
    keep_sorted = group_keep[group_id] & (ys == group_max_y[group_id])
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


def skyline_2d(ds, x: str, y: str):
    """Distributed 2-D skyline (Pareto frontier, maximize both INTEGER
    columns): per-block local skyline prunes row-locally (a block-dominated
    row is globally dominated — safe to drop; dominance is transitive, so
    the survivor set still contains a dominator for every globally
    dominated candidate), then ONE single-task merge re-runs the same
    kernel over the candidates.  Candidate count is bounded by
    #blocks x frontier size; frontiers are tiny in practice (<= distinct
    x values) — the documented assumption of every local-then-merge
    skyline plan.  The corpus itself never shuffles."""
    import pyarrow as pa

    def local(t: pa.Table) -> pa.Table:
        xa = t.column(x).to_numpy(zero_copy_only=False).astype(np.int64)
        ya = t.column(y).to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(_skyline_mask_2d(xa, ya)))

    return (ds.map_batches(local, batch_format="pyarrow")
            .repartition(1)
            .map_batches(local, batch_size=None, batch_format="pyarrow"))


def grouped_weighted_quantiles(ds, key: str, value: str, weight: str,
                               p_pcts=(25, 50, 75), n_buckets: int = 32):
    """Exact per-group WEIGHTED discrete quantiles: the first distinct
    value whose cumulative weight share reaches p — weighted
    PERCENTILE_DISC, the importance-weighted / mixture-sampling form of
    ``grouped_quantiles``.  Thresholds are INTEGER percents compared as
    ``cumw * 100 >= p * total`` (no float p, so a SQL window replay is
    bit-exact for integer weights).  Weights are pre-aggregated per
    (key, value) before the cumulative scan, so intra-tie row order can
    never change the answer.

    One bucketed exchange on the key; bounded-group contract as
    grouped_quantiles (a group's distinct values meet in one task)."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(value, as_index=False)[weight].sum() \
            .sort_values(value, kind="mergesort")
        cw = agg[weight].to_numpy().astype(np.int64).cumsum()
        tot = int(cw[-1])
        vals = agg[value].to_numpy()
        row = {key: g[key].iloc[0], "total_w": tot}
        for p in p_pcts:
            idx = int(np.searchsorted(cw * 100, p * tot, side="left"))
            row[f"wp{p}"] = vals[min(idx, len(vals) - 1)]
        return pd.DataFrame([row])

    return bucketed_map_groups(ds.select_columns([key, value, weight]),
                               key, fold, n_buckets=n_buckets)


def table_checksum(ds, cols, n_buckets: int = 4):
    """Order-independent TABLE CHECKSUM: XOR of a stable 64-bit row hash
    (md5_number_lower of the '|'-joined column values — the shared
    SQL-replayable hash) plus an exact row count.  The cross-snapshot
    integrity primitive: two 100-TB replicas compare by exchanging ONE
    (n_rows, checksum) row each, no data movement — XOR is commutative/
    associative, so per-batch partials fold in any order and any
    partitioning.  Integer/string columns only (float rendering is not
    engine-stable — the profile_columns contract).

    One row per batch leaves the map stage; the combine is a
    constant-size fold."""
    import pyarrow as pa

    from ..functions import textstats as T

    cols = list(cols)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"__g": pa.array([], pa.int64()),
                             "px": pa.array([], pa.uint64()),
                             "pn": pa.array([], pa.int64())})
        for c in cols:
            typ = t.schema.field(c).type
            if not (pa.types.is_integer(typ) or pa.types.is_string(typ)
                    or pa.types.is_large_string(typ)):
                raise TypeError(
                    f"table_checksum: column {c} has non-stable-rendering "
                    f"type {typ} (int/string only)")
        parts = [t.column(c).to_pylist() for c in cols]
        hs = np.fromiter(
            (T.md5_u64("|".join("" if v is None else str(v) for v in row))
             for row in zip(*parts)),
            np.uint64, t.num_rows)
        return pa.table({"__g": pa.array([0], pa.int64()),
                         "px": pa.array([np.bitwise_xor.reduce(hs)],
                                        pa.uint64()),
                         "pn": pa.array([t.num_rows], pa.int64())})

    partials = ds.select_columns(cols).map_batches(
        partial, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        x = np.bitwise_xor.reduce(g["px"].to_numpy().astype(np.uint64))
        return pd.DataFrame({"n_rows": [int(g["pn"].sum())],
                             "checksum": pd.array([x], dtype="UInt64")})

    return bucketed_fold(partials, "__g", fold, n_buckets=min(n_buckets, 2))


def grouped_heavy_hitters(ds, key_col: str, value_col: str, k: int = 64):
    """PER-KEY Misra-Gries heavy hitters (frequent values per domain /
    source with BOUNDED state): each batch reduces each of its keys'
    value stream to <= k sketch counters, one bucketed exchange on the
    key merges the sketches (sum then MG-truncate — the standard
    mergeable-MG argument), so the wire carries at most k rows per key
    per batch no matter how hot a value is.

    Same guarantees as the global ``heavy_hitters``, per key: est <=
    true, true - est <= 2 n_key/(k+1), and any value with true count >
    2 n_key/(k+1) survives.  With k above a key's distinct-value count
    the sketch is exact.  Returns (key, value, est, n_total) where
    n_total is the key's full stream length.  The per-batch fold loops
    over the batch's DISTINCT KEYS (not rows) — fine for domain-ish
    keys; for ultra-high-cardinality keys use ``topk_per_key``'s exact
    exchange instead."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pd.DataFrame:
        df = t.select([key_col, value_col]).to_pandas()
        rows = []
        for key, grp in df.groupby(key_col, sort=False):
            s = grp.groupby(value_col, sort=False).size()
            vals, cnts = _mg_truncate(
                s.index.to_numpy(), s.to_numpy().astype(np.int64), k)
            n = int(len(grp))
            if len(vals) == 0:
                rows.append((key, None, 0, n))
                continue
            for i, (v, c) in enumerate(zip(vals, cnts)):
                rows.append((key, v, int(c), n if i == 0 else 0))
        return pd.DataFrame(
            rows, columns=[key_col, value_col, "est", "n_part"])

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, grp in g.groupby(key_col, sort=False):
            n_total = int(grp["n_part"].sum())
            live = grp.dropna(subset=[value_col])
            s = live.groupby(value_col, sort=False)["est"].sum()
            vals, cnts = _mg_truncate(
                s.index.to_numpy(), s.to_numpy().astype(np.int64), k)
            for v, c in zip(vals, cnts):
                out.append((key, v, int(c), n_total))
        if not out:
            return pd.DataFrame({
                key_col: pd.Series(dtype=g[key_col].dtype),
                value_col: pd.Series(dtype=object),
                "est": pd.Series(dtype="int64"),
                "n_total": pd.Series(dtype="int64")})
        return pd.DataFrame(out,
                            columns=[key_col, value_col, "est", "n_total"])

    return bucketed_fold(partials, key_col, merge)


def ks_drift(ds, key: str, value: str, n_buckets: int = 32):
    """Pairwise two-sample KOLMOGOROV-SMIRNOV distance between the
    ``value`` distributions of every pair of ``key`` groups — the
    distribution-drift detector (did source X's length profile shift vs
    source Y's?), INTEGER-exact: the statistic sup|F_a - F_b| is reported
    as its cross-multiplied numerator ``ks_num = max over v of
    |cum_a(v)·n_b − cum_b(v)·n_a|`` (divide by n_a·n_b for the classical
    D — comparisons and thresholds stay in integers).

    Plan: per-batch (value, key, count) partials, one bucketed combine on
    the value, then ONE final fold over the |distinct values| × |keys|
    count matrix (bounded when the value is a bounded-cardinality
    feature — lengths, scores, buckets; sup over all sample points is
    evaluated exactly).  Returns (key_a, key_b, ks_num, n_a, n_b)."""
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        t2 = t.select([value, key]).append_column(
            "pn", pa.array(np.ones(t.num_rows, np.int64)))
        g = t2.group_by([value, key]).aggregate([("pn", "sum")])
        return pa.table({"v": g.column(value), "k": g.column(key),
                         "pn": g.column("pn_sum")})

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(["v", "k"]).aggregate([("pn", "sum")])
        return pa.table({"v": g.column("v"), "k": g.column("k"),
                         "n": g.column("pn_sum")})

    counts = bucketed_combine(
        ds.map_batches(partial, batch_format="pyarrow"),
        "v", combine, n_buckets)

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        keys = sorted(df["k"].unique())
        piv = df.pivot_table(index="v", columns="k", values="n",
                             aggfunc="sum", fill_value=0).sort_index()
        cum = piv.cumsum().to_numpy(dtype=np.int64)
        tot = cum[-1] if len(cum) else np.zeros(len(keys), np.int64)
        ka, kb, ks, na, nb = [], [], [], [], []
        cols = list(piv.columns)
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                d = np.abs(cum[:, i] * tot[j] - cum[:, j] * tot[i])
                ka.append(cols[i])
                kb.append(cols[j])
                ks.append(int(d.max()) if len(d) else 0)
                na.append(int(tot[i]))
                nb.append(int(tot[j]))
        return pa.table({"key_a": pa.array(ka), "key_b": pa.array(kb),
                         "ks_num": pa.array(ks, pa.int64()),
                         "n_a": pa.array(na, pa.int64()),
                         "n_b": pa.array(nb, pa.int64())})

    return counts.repartition(1).map_batches(fold, batch_format="pyarrow")


def kmv_distinct(ds, value_col: str, k: int = 32):
    """KMV (k-minimum-values) distinct sketch: keep the k SMALLEST
    md5_u64 hashes of the distinct values — simultaneously (a) a uniform
    sample of the DISTINCT values (not rows — hot values can't dominate)
    and (b) the classic cardinality estimator
    est = (k-1)·2^64 // h_k.  Fully deterministic (min-k is a
    semigroup), so unlike the HLL gate the ORACLE is hash-exact: DuckDB
    reproduces the same k hashes and the same estimate.

    Per-batch distinct-hash partials truncate to k rows before the
    exchange; one k·n_batches-row final fold.  Returns
    (rank, h, est) — h as uint64, est repeated on every row."""
    import pyarrow as pa

    from ..functions.textstats import md5_u64

    def partial(t: pa.Table) -> pa.Table:
        vals = set(t.column(value_col).to_pylist())
        hs = np.array(sorted(md5_u64(str(v)) for v in vals
                             if v is not None)[:k], dtype=np.uint64)
        return pa.table({"h": pa.array(hs, pa.uint64())})

    def fold(t: pa.Table) -> pa.Table:
        hs = np.unique(np.asarray(t.column("h"), dtype=np.uint64))[:k]
        kk = len(hs)
        # fewer than k distinct hashes => the sketch IS the exact set
        est = kk if kk < k else int((kk - 1) * (1 << 64) // int(hs[-1]))
        return pa.table({
            "rank": pa.array(np.arange(1, kk + 1, dtype=np.int64)),
            "h": pa.array(hs, pa.uint64()),
            "est": pa.array(np.full(kk, est, np.int64)),
        })

    return ds.select_columns([value_col]).map_batches(
        partial, batch_format="pyarrow").repartition(1).map_batches(
        fold, batch_format="pyarrow")


def kmv_set_ops(ds, side_col: str, value_col: str, k: int = 64):
    """KMV sketch SET OPERATIONS over two tagged sides (``side_col`` in
    {0, 1}): distinct-cardinality estimates for each side, their UNION
    and their INTERSECTION from k-minimum-value sketches — the
    audience-overlap / cross-corpus-contamination estimator that never
    shuffles the raw sets.  Deterministic md5 hashing makes every output
    integer SQL-replayable (``kmv_distinct``'s exactness rule per
    sketch: below k distinct hashes the sketch IS the set).

    The union sketch is the k smallest of the two side sketches' union
    (KMV's mergeable-semigroup property); the intersection estimate is
    the classic rho-scaling: rho = |{h in union sketch: h in BOTH side
    sketches}|, est = rho * est_union // k — exact (= rho) when the
    union sketch is not saturated.

    Per-batch partials keep k hashes per side; one single-block fold.
    Returns ONE row of integer estimates."""
    import pyarrow as pa

    from ..functions.textstats import md5_u64

    def partial(t: pa.Table) -> pa.Table:
        sides = np.asarray(t.column(side_col), dtype=np.int64)
        vals = t.column(value_col).to_pylist()
        out_s, out_h = [], []
        for s in (0, 1):
            vs = {v for v, sd in zip(vals, sides) if sd == s
                  if v is not None}
            hs = sorted(md5_u64(str(v)) for v in vs)[:k]
            out_s.extend([s] * len(hs))
            out_h.extend(hs)
        return pa.table({"side": pa.array(out_s, pa.int8()),
                         "h": pa.array(out_h, pa.uint64())})

    def est_of(hs: np.ndarray) -> int:
        kk = len(hs)
        if kk < k:
            return kk
        return int((kk - 1) * (1 << 64) // int(hs[-1]))

    def fold(t: pa.Table) -> pa.Table:
        sides = np.asarray(t.column("side"), dtype=np.int64)
        hs = np.asarray(t.column("h"), dtype=np.uint64)
        a = np.unique(hs[sides == 0])[:k]
        b = np.unique(hs[sides == 1])[:k]
        u = np.unique(np.concatenate([a, b]))[:k]
        rho = int(np.isin(u, a[np.isin(a, b)]).sum())
        est_u = est_of(u)
        inter = rho if len(u) < k else rho * est_u // k
        return pa.table({
            "n_a_est": pa.array([est_of(a)], pa.int64()),
            "n_b_est": pa.array([est_of(b)], pa.int64()),
            "n_union_est": pa.array([est_u], pa.int64()),
            "inter_members": pa.array([rho], pa.int64()),
            "n_inter_est": pa.array([inter], pa.int64()),
        })

    return ds.select_columns([side_col, value_col]).map_batches(
        partial, batch_format="pyarrow").repartition(1).map_batches(
        fold, batch_format="pyarrow", batch_size=None)


def basket_association(ds, basket_cols, item_col: str,
                       n_buckets: int = 32):
    """Market-basket association mining (the support/confidence/lift
    statistic family): for every unordered item pair (a < b), the number
    of BASKETS containing both, alongside per-item basket counts and the
    total basket count — confidence(a=>b) = n_both/n_a and lift =
    n_both*n_baskets/(n_a*n_b) are ratios of these integers, so
    consumers rank and threshold without floats.

    Contract: the ITEM domain is small (event types, categories — not
    open vocabularies); pair cardinality is items^2-bounded so the final
    fold runs on one block.  Baskets are unbounded: per-batch distinct
    (basket, item) partials, ONE basket-bucketed exchange whose fold
    re-distincts, emits per-basket item pairs (diagonal = per-item
    counts) and one basket-count row per bucket."""
    import pandas as pd

    basket_cols = [basket_cols] if isinstance(basket_cols, str) \
        else list(basket_cols)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(basket_cols + [item_col]) \
            .group_by(basket_cols + [item_col]).aggregate([])
        return g

    partials = ds.select_columns(basket_cols + [item_col]).map_batches(
        partial, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.drop_duplicates(basket_cols + [item_col])
        j = m.merge(m, on=basket_cols, suffixes=("_a", "_b"))
        a, b = f"{item_col}_a", f"{item_col}_b"
        j = j[j[a] <= j[b]]
        out = (j.groupby([a, b], sort=False).size()
               .reset_index(name="pn"))
        out = out.rename(columns={a: "item_a", b: "item_b"})
        n_baskets = len(m.drop_duplicates(basket_cols))
        out = pd.concat([out, pd.DataFrame(
            {"item_a": ["__total__"], "item_b": ["__total__"],
             "pn": [n_baskets]})], ignore_index=True)
        out["pn"] = out["pn"].astype("int64")
        return out

    pair_partials = bucketed_fold(partials, basket_cols, pairs,
                                  n_buckets=n_buckets)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby(["item_a", "item_b"], sort=False)["pn"].sum() \
            .reset_index(name="n")
        total = int(c.loc[(c["item_a"] == "__total__"), "n"].sum())
        c = c[c["item_a"] != "__total__"]
        sizes = dict(zip(c.loc[c["item_a"] == c["item_b"], "item_a"],
                         c.loc[c["item_a"] == c["item_b"], "n"]
                         .astype(int)))
        off = c[c["item_a"] != c["item_b"]].copy()
        off["n_both"] = off["n"].astype("int64")
        off["n_a"] = off["item_a"].map(sizes).astype("int64")
        off["n_b"] = off["item_b"].map(sizes).astype("int64")
        off["n_baskets"] = np.int64(total)
        return off[["item_a", "item_b", "n_both", "n_a", "n_b",
                    "n_baskets"]]

    return pair_partials.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None)


def countmin_freq(ds, key_col: str, probes, d: int = 4, w: int = 256,
                  n_buckets: int = 8):
    """Count-Min frequency sketch over a key stream, probed for a fixed
    key list: per batch a d x w int64 count matrix (cell = md5_u64(
    "i:key") % w — DuckDB ``md5_number_lower``, so the whole sketch is
    SQL-replayable), emitted as nonzero (row_i, cell, n) partials; ONE
    bucketed combine sums cells; the combined sketch is FIXED SIZE
    (<= d*w rows regardless of corpus size) so collecting it to score the
    probe list is bounded by construction — the broadcast-bounds pattern,
    not a corpus materialization.

    est(key) = min_i sketch[i, h_i(key)].  Classic CM guarantees:
    est >= true always (counts only collide upward), and
    est - true <= e/w * N with prob 1 - (1/2)^d over the hash draw.
    Mergeable and deterministic: cell sums are order-independent.
    Returns a pandas DataFrame (key_col, est) over ``probes``."""
    import pyarrow as pa

    from ..functions import textstats as T

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_col]).group_by(key_col).aggregate(
            [([], "count_all")])
        keys = g.column(key_col).to_pylist()
        cnts = g.column("count_all").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        mat = np.zeros((d, w), np.int64)
        for key, c in zip(keys, cnts):
            for i in range(d):
                mat[i, T.md5_u64(f"{i}:{key}") % w] += c
        rows, cells = np.nonzero(mat)
        return pa.table({"row_i": pa.array(rows.astype(np.int64)),
                         "cell": pa.array(cells.astype(np.int64)),
                         "n": pa.array(mat[rows, cells])})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["row_i", "cell"], as_index=False)["n"].sum()

    sketch = bucketed_fold(ds.map_batches(partial, batch_format="pyarrow"),
                           ["row_i", "cell"], combine,
                           n_buckets=n_buckets).to_pandas()
    mat = np.zeros((d, w), np.int64)
    mat[sketch["row_i"].to_numpy(np.int64),
        sketch["cell"].to_numpy(np.int64)] = sketch["n"].to_numpy(np.int64)
    ests = [int(min(mat[i, T.md5_u64(f"{i}:{key}") % w] for i in range(d)))
            for key in probes]
    return pd.DataFrame({key_col: list(probes),
                         "est": np.asarray(ests, np.int64)})


def grouped_gini(ds, key: str, value: str, n_buckets: int = 32):
    """Per-key Gini concentration as EXACT INTEGER sufficient statistics
    (the inequality / domain-concentration curation signal): with values
    sorted ascending within a key, gini = num/den where
    num = sum((2*rank - n - 1) * x) and den = n * sum(x) — rank ties
    cannot matter (tied equal values contribute a rank-sum that is
    permutation-invariant), so no tiebreak column is needed and the
    integers are hash-exact against a ROW_NUMBER SQL replay.  ONE
    bucketed exchange; whole-bucket vectorized fold (one sort + one
    groupby per bucket).  Returns (key, n, sum_value, gini_num);
    consumers divide gini_num / (n * sum_value) — kept as integers so
    float division never enters the comparison hash."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, value], kind="mergesort")
        grouped = g.groupby(key, sort=False)
        rank = grouped.cumcount().to_numpy(np.int64) + 1
        n = grouped[value].transform("size").to_numpy(np.int64)
        x = g[value].to_numpy(np.int64)
        g = g.assign(__term=(2 * rank - n - 1) * x)
        agg = g.groupby(key, sort=False).agg(
            n=(value, "size"), sum_value=(value, "sum"),
            gini_num=("__term", "sum"))
        agg["n"] = agg["n"].astype("int64")
        return agg.reset_index()

    return bucketed_fold(ds.select_columns([key, value]), key, fold,
                         n_buckets=n_buckets)


def grouped_bootstrap(ds, key_col, value_col, id_col, n_reps: int = 8,
                      scale: int = 100, n_buckets: int = 32):
    """Deterministic MULTIPLIER bootstrap for grouped sums: each row gets,
    per replicate r, an integer weight w = md5(id ':' r) % 3 (mean-1
    multiplier; the hash is DuckDB ``md5_number_lower``, so weights are
    reproducible under retries, resharding and cluster size — the
    engine-wide replacement for RNG resampling, whose row order is not
    retry-stable).  Output: one row per (key, replicate) with the exact
    integer weighted value sum and weight total — the replicate
    distribution downstream CI / stderr estimators consume (spread of
    wsum/wn across replicates ~ sampling error of the group mean).

    Plan: per-batch partial collapses to (key, rep) sums — n_keys x
    n_reps rows per batch on the wire regardless of batch size — then ONE
    bucketed combine.  Values are quantized to integers (``scale``) so
    both engines sum exactly."""
    import pyarrow as pa

    from ..functions.textstats import md5_u64

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        ids = t.column(id_col).to_pylist()
        vals = np.asarray(t.column(value_col).to_pylist(), dtype=np.float64)
        cents = np.round(vals * scale).astype(np.int64)
        acc: dict = {}
        for k, i, c in zip(keys, ids, cents):
            for r in range(n_reps):
                w = md5_u64(f"{i}:{r}") % 3
                if w:
                    s = acc.get((k, r))
                    if s is None:
                        acc[(k, r)] = [w * c, w]
                    else:
                        s[0] += w * c
                        s[1] += w
                else:
                    acc.setdefault((k, r), [0, 0])
        ks = list(acc)
        return pa.table({
            key_col: pa.array([k[0] for k in ks]),
            "rep": pa.array([k[1] for k in ks], pa.int64()),
            "wsum": pa.array([acc[k][0] for k in ks], pa.int64()),
            "wn": pa.array([acc[k][1] for k in ks], pa.int64())})

    partials = ds.select_columns([key_col, value_col, id_col]).map_batches(
        partial, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby([key_col, "rep"], sort=False)[["wsum", "wn"]] \
            .sum().reset_index()
        out["wsum"] = out["wsum"].astype("int64")
        out["wn"] = out["wn"].astype("int64")
        return out

    return bucketed_fold(partials, [key_col, "rep"], combine,
                         n_buckets=n_buckets)


def exact_percentiles(ds, value_col, percents=(25, 50, 75, 90, 99),
                      scale: int = 100, n_bins: int = 256,
                      max_passes: int = 10):
    """EXACT distributed PERCENTILE_DISC by iterative histogram narrowing
    (the classic distributed-selection plan): quantize values to integers
    once, then per pass count one ``n_bins``-bin histogram over each
    percentile's surviving [lo, hi] interval, descend into the bin holding
    the target rank, and stop when the interval is narrower than the bin
    count (bin width 1 = the answer).  ceil(log_{n_bins}(range)) passes —
    3-4 for cent-scale money columns — each pass ONE cheap counting
    execution: per-batch partials collapse to <= n_intervals x n_bins
    rows, one tiny bucketed combine, and the driver reads only the
    combined histogram (never values).  Strictly stronger than the
    histogram-quantile SKETCH (exact, not within-one-bin) at the price of
    the extra passes; the thin quantized column is materialized once and
    re-counted per pass.

    Rank rule matches DuckDB ``quantile_disc``: the value at 1-based rank
    ceil(p * n / 100) of the sorted column.  Integer percents only.
    Returns one row per percent: (pct, value, n_rows)."""
    import pyarrow as pa

    def quantize(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(value_col).to_pylist(), dtype=np.float64)
        return pa.table({"v": pa.array(np.round(v * scale).astype(np.int64))})

    vals = ds.select_columns([value_col]).map_batches(
        quantize, batch_format="pyarrow").materialize()

    def minmax_partial(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({"mn": pa.array([int(v.min())], pa.int64()),
                         "mx": pa.array([int(v.max())], pa.int64()),
                         "n": pa.array([len(v)], pa.int64())})

    mm = vals.map_batches(minmax_partial, batch_format="pyarrow").take_all()
    if not mm:
        raise ValueError("exact_percentiles: empty input")
    lo0 = min(r["mn"] for r in mm)
    hi0 = max(r["mx"] for r in mm)
    n_total = sum(r["n"] for r in mm)

    # state per percent: (lo, hi, remaining 1-based rank within [lo, hi])
    state = {int(p): [lo0, hi0, (int(p) * n_total + 99) // 100]
             for p in percents}
    result = {}

    for _ in range(max_passes):
        live = {p: s for p, s in state.items() if p not in result}
        if not live:
            break
        # narrow-enough intervals resolve with one exact-value histogram
        edges = {}
        for p, (lo, hi, rank) in live.items():
            width = hi - lo + 1
            if width <= n_bins:
                edges[p] = np.arange(lo, hi + 2, dtype=np.int64)
            else:
                edges[p] = np.linspace(lo, hi + 1, n_bins + 1).astype(np.int64)
        plist = sorted(live)
        edges_by_p = {p: edges[p] for p in plist}

        def hist_partial(t: pa.Table, _edges=edges_by_p, _ps=plist) -> pa.Table:
            v = t.column("v").to_numpy(zero_copy_only=False)
            pcol, bcol, ncol = [], [], []
            for p in _ps:
                e = _edges[p]
                sel = v[(v >= e[0]) & (v < e[-1])]
                if len(sel) == 0:
                    continue
                cnt, _ = np.histogram(sel, bins=e)
                nz = np.nonzero(cnt)[0]
                pcol.extend([p] * len(nz))
                bcol.extend(nz.tolist())
                ncol.extend(cnt[nz].tolist())
            return pa.table({"p": pa.array(pcol, pa.int64()),
                             "b": pa.array(bcol, pa.int64()),
                             "pn": pa.array(ncol, pa.int64())})

        partials = vals.map_batches(hist_partial, batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            g = t.group_by(["p", "b"]).aggregate([("pn", "sum")])
            return pa.table({"p": g.column("p"), "b": g.column("b"),
                             "n": g.column("pn_sum")})

        hist = bucketed_combine(
            partials.map_batches(
                lambda t: t.append_column(
                    "pb", pa.array(t.column("p").to_numpy(
                        zero_copy_only=False) * 100000
                        + t.column("b").to_numpy(zero_copy_only=False),
                        pa.int64())),
                batch_format="pyarrow"),
            "pb",
            lambda t: combine(t.drop_columns(["pb"])),
            n_buckets=4,
        ).take_all()
        by_p: dict = {}
        for r in hist:
            by_p.setdefault(r["p"], []).append((r["b"], r["n"]))
        for p in plist:
            lo, hi, rank = live[p]
            e = edges_by_p[p]
            rows = sorted(by_p.get(p, []))
            cum = 0
            for b, cnt in rows:
                if cum + cnt >= rank:
                    if hi - lo + 1 <= n_bins:
                        result[p] = int(e[b])
                    else:
                        state[p] = [int(e[b]), int(e[b + 1]) - 1, rank - cum]
                    break
                cum += cnt
            else:
                raise AssertionError(
                    "exact_percentiles: rank not found in histogram")
    missing = [p for p in state if p not in result]
    if missing:
        raise AssertionError(
            f"exact_percentiles: {missing} unresolved after {max_passes} passes")
    out = pa.table({
        "pct": pa.array(sorted(result), pa.int64()),
        "value": pa.array([result[p] for p in sorted(result)], pa.int64()),
        "n_rows": pa.array([n_total] * len(result), pa.int64()),
    })
    import ray.data as _rd
    return _rd.from_arrow(out)


# ----------------------------------------------------- time-decayed counts

def time_decayed_counts(ds, key_col: str, ts_col: str,
                        half_life_days: int = 1, horizon: int = 40,
                        n_buckets: int = 16):
    """Exponentially time-decayed counts per key — the trending/recency
    statistic (recent activity dominates, each ``half_life_days`` back
    halves the weight) in EXACT integers: weight = 2^(horizon - age_steps)
    for ages within ``horizon`` steps of the corpus max date, 0 beyond
    (the tail is below one quantum anyway).  Anchoring at the max date
    keeps the exponent non-negative and bounded, so BIGINT sums are exact
    and the SQL replay is a bit shift, not float POWER drift.

    Overflow headroom: max weight 2^horizon; with horizon=40 a key needs
    ~2^23 same-day rows to reach int64 — raise ``n`` awareness or lower
    horizon for denser corpora.  Two passes: a scalar max(ts) (tiny), then
    row-local weighting + one small bucketed combine."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc

    max_ts = ds.max(ts_col)
    if hasattr(max_ts, "date"):
        max_day = max_ts.date().toordinal()
    else:  # date already
        max_day = max_ts.toordinal()
    epoch_ord = _dt.date(1970, 1, 1).toordinal()
    max_day32 = max_day - epoch_ord  # date32 day index of the max date

    def partial(t: pa.Table) -> pa.Table:
        days = pc.cast(pc.cast(t.column(ts_col), pa.date32()),
                       pa.int32()).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        age = (max_day32 - days) // half_life_days
        capped = np.minimum(age, horizon)
        w = np.where(age <= horizon,
                     np.int64(1) << (horizon - capped), np.int64(0))
        df = pd.DataFrame({key_col: t.column(key_col).to_pandas(),
                           "dw": w, "pn": np.ones(len(w), np.int64)})
        g = df.groupby(key_col, sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.select_columns([key_col, ts_col]).map_batches(
        partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key_col).aggregate([("dw", "sum"), ("pn", "sum")])
        return pa.table({key_col: g.column(key_col),
                         "decayed": g.column("dw_sum"),
                         "n": g.column("pn_sum")})

    return bucketed_combine(partials, key_col, combine, n_buckets=n_buckets)
