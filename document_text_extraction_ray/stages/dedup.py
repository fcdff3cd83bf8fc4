"""Deduplication pipelines over a Dataset: exact, MinHash+LSH, SimHash.

Shuffle discipline (ray_guide "Aggregation at scale" + SURVEY.md §7.4):
  - exact dedup is ONE full-row exchange on a content-hash bucket that keeps
    the min-id row per hash (``exact_dedup``; ``exact_dedup_ids`` is the
    thin (hash, id) form);
  - near-dup explodes to (band_key, doc_id, sig) rows and exchanges them
    once on the band key; candidate pairs are then a tiny dataset, cluster
    labels come from bucket-exchange rounds over the pairs only, and the
    survivors from one ``join.anti_join`` against the removed ids — nothing
    is collected to the driver or broadcast.

Partitioning assumption (documented per the custom-operator mandate): doc ids
are unique; band groups fit in one task (bands of a skewed hot key — e.g.
millions of empty documents sharing a signature — should be pre-salted by
adding a `len(text)==0` guard upstream, which `minhash_candidates` applies).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions import dedup as D
from ..functions import textstats as T
from .exchange import bucket_exchange


# ---------------------------------------------------------------- exact dedup

def add_content_hash(ds, text_column: str, out_column: str = "content_hash"):
    def _hash(batch: pa.Table) -> pa.Table:
        vals = [T.content_hash(t or "") for t in batch.column(text_column).to_pylist()]
        return batch.append_column(out_column, pa.array(vals, pa.uint64()))

    return ds.map_batches(_hash, batch_format="pyarrow")


def exact_dedup_ids(ds, text_column: str, id_column: str):
    """Cheap scale path: (hash, id) projection -> groupby(hash) -> min(id).

    Returns a Dataset with columns (content_hash, {id_column}) — one row per
    distinct content, keeping the smallest id (deterministic 'first')."""
    from ray.data.aggregate import Min

    thin = add_content_hash(ds.select_columns([id_column, text_column]),
                            text_column).select_columns(["content_hash", id_column])
    return thin.groupby("content_hash").aggregate(Min(id_column, alias_name=id_column))


def exact_dedup(ds, text_column: str, id_column: str):
    """Full-row exact dedup: keep the min-id row per content hash.

    One full-row exchange: tag ``content_hash % 32``, exchange on the tag
    (``exchange.bucket_exchange``), and per bucket keep the first row of
    each hash run after one sort on (content_hash, id).  The fold is
    Arrow, so nested columns (field structs, span lists) pass intact —
    pyarrow joins reject them and a pandas round-trip corrupts them.  The
    survivor set is ~corpus cardinality, so it is never collected to the
    driver."""
    n_buckets = 32

    def tag(t: pa.Table) -> pa.Table:
        h = t.column("content_hash").to_numpy()
        return t.append_column("__dbucket", pa.array(
            (h % np.uint64(n_buckets)).astype(np.int32)))

    def keep_first(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t, [("content_hash", "ascending"),
                                    (id_column, "ascending")]).to_numpy()
        h = t.column("content_hash").to_numpy()[order]
        first = order[np.r_[True, h[1:] != h[:-1]]]
        return t.take(first).drop_columns(["content_hash", "__dbucket"])

    hashed = add_content_hash(ds, text_column).map_batches(
        tag, batch_format="pyarrow")
    return bucket_exchange(hashed, "__dbucket", n_buckets, keep_first,
                           "pyarrow")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constants)."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _hash64_column(col) -> np.ndarray:
    """Deterministic vectorized uint64 hash of an Arrow column: integer
    keys hash arithmetically (no Python), other types through pandas'
    cython siphash (fixed default key — stable across processes)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        v = col.fill_null(0).to_numpy(zero_copy_only=False) \
               .astype(np.int64).view(np.uint64)
        return _splitmix64(v)
    return pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))


def build_bloom(old_ds, key_column: str, m_bits: int = 1 << 23, k: int = 4,
                n_merge: int = 16) -> bytes:
    """Distributed Bloom filter over a corpus's key column: one partial
    bloom per batch (pure numpy bit scatter), an OR-fold exchange down to
    ``n_merge`` rows, and a final driver OR over ``n_merge`` blooms — the
    driver never sees keys, only ``n_merge × m_bits/8`` bytes.

    Size ``m_bits`` ~ 10 bits per expected distinct key for ~1% false
    positives at k=4.  At 100 TB the bloom for a full crawl's URL set is
    tens of GB — past what one worker should hold; use the anti-join
    method there, or shard blooms by key range."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "bloom": pa.array([], pa.binary())})
        h1 = _hash64_column(t.column(key_column))
        h2 = _splitmix64(h1) | np.uint64(1)
        bloom = np.zeros(m_bits // 8, dtype=np.uint8)
        with np.errstate(over="ignore"):
            for i in range(k):
                pos = ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)) \
                    .astype(np.int64)
                np.bitwise_or.at(bloom, pos >> 3,
                                 (np.uint8(1) << (pos & 7).astype(np.uint8)))
        part = int(h1[0] % np.uint64(n_merge))
        return pa.table({"part": pa.array([part], pa.int32()),
                         "bloom": pa.array([bloom.tobytes()], pa.binary())})

    partials = old_ds.select_columns([key_column]).map_batches(
        partial, batch_format="pyarrow"
    )

    def or_fold(g: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(m_bits // 8, dtype=np.uint8)
        for blob in g["bloom"]:
            acc |= np.frombuffer(bytes(blob), dtype=np.uint8)
        return pd.DataFrame({"part": [g["part"].iloc[0]],
                             "bloom": [acc.tobytes()]})

    merged = bucket_exchange(partials, "part", n_merge, or_fold, "pandas")
    acc = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in merged.take_all():  # <= n_merge rows, bounded
        acc |= np.frombuffer(bytes(row["bloom"]), dtype=np.uint8)
    return acc.tobytes()


def dedup_against_snapshot(new_ds, old_ds, key_column: str, id_column: str,
                           n_buckets: int = 32, method: str = "anti_join",
                           m_bits: int = 1 << 23, k: int = 4):
    """Incremental (snapshot-over-snapshot) dedup — the recurring-crawl
    scenario: a NEW slice arrives and must keep only content the EXISTING
    corpus has never seen, then first-occurrence-dedup within itself.

    Physical plan, both steps bounded and driver-free:
      1. distributed anti-join of the new slice against the old corpus's
         key column (``join.anti_join``: the old side ships only its keys,
         one bucketed exchange, no broadcast — at 100 TB the "old corpus"
         key set is itself corpus-sized and must never be collected);
      2. within-slice keep-min-id per key via one whole-bucket vectorized
         fold (``aggregate.bucketed_fold``).

    ``key_column`` is whatever equality key the caller prepared (a content
    hash, a canonical URL, a normalized-prefix fingerprint).

    ``method="bloom"`` replaces the anti-join with a Bloom filter built
    over the old corpus (``build_bloom``) and broadcast once: the NEW
    slice is never shuffled against the old keys — the standard
    production plan when the old key set is huge but its bloom fits a
    worker (~10 bits/key).  Semantics are CONSERVATIVE: no false
    negatives (every previously-seen key is dropped), but ~1% of
    genuinely-new rows are dropped as false positives at the default
    sizing — acceptable for crawl dedup, not for exact queries (the
    default stays ``anti_join``).  One further divergence: ``anti_join``
    keeps null-keyed new rows (SQL semantics — null equals nothing),
    while the bloom hashes null like any value, so a null key in the old
    corpus drops null-keyed new rows.  Pre-filter nulls if they matter."""
    from .aggregate import bucketed_fold
    from .join import anti_join

    if method == "bloom":
        bloom_ref = ray.put(build_bloom(old_ds, key_column,
                                        m_bits=m_bits, k=k))
        fresh = bloom_semi_filter(new_ds, key_column, bloom_ref,
                                  m_bits=m_bits, k=k, keep="non_member")
    else:
        fresh = anti_join(new_ds, old_ds.select_columns([key_column]),
                          on=key_column, n_buckets=n_buckets)

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(id_column, kind="mergesort") \
                .drop_duplicates(key_column, keep="first")

    return bucketed_fold(fresh, key_column, keep_first, n_buckets=n_buckets)


def exact_substring_dedup(ds, text_column: str, id_column: str, k: int = 8,
                          n_buckets: int = 32):
    """Exact substring deduplication (the Lee et al. 2021 "deduplicating
    training data" operator, at token-window granularity): every k-token
    window that occurs ANYWHERE else in the corpus keeps only its first
    occurrence (smallest doc id, smallest start); all other occurrences
    have their covered tokens removed, and documents reassemble from the
    surviving tokens in order.  This kills copy-pasted spans (licenses,
    boilerplate paragraphs, syndicated text) that document- and line-level
    dedup both miss.

    Keys are Rabin-Karp rolling hashes over md5 token hashes
    (``functions/textstats.rolling_hashes`` — the fingerprint kernel, so
    the SQL oracle replays them exactly); a 61-bit hash collision would
    remove a non-duplicate span — negligible here, and production systems
    verify candidates or widen the key.

    Physical plan — two bucketed exchanges plus a thin union, no driver
    collection:
      1. explode token rows (doc, idx, token) and window rows
         (wkey, doc, start); docs shorter than k tokens emit no windows;
      2. exchange on hash(wkey): whole-bucket vectorized fold marks every
         non-first occurrence — output is ONLY the removed (doc, start)
         rows, expanded to their covered token indexes (× k, thin);
      3. exchange on hash(doc): token rows union covered rows; each doc
         drops covered tokens and reassembles in one vectorized pass.

    Returns (id_column, dedup_text, n_tokens_total, n_tokens_kept), one
    row per document that has at least one token."""
    from ..functions.textstats import rolling_hashes
    from .aggregate import bucketed_fold

    id_type = ds.schema().base_schema.field(id_column).type
    thin = ds.select_columns([id_column, text_column])

    def explode_tokens(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        txt = pc.fill_null(t.column(text_column).cast(pa.string()), "")
        # split on whitespace runs, dropping empties — regexp \S+ semantics
        toks_list = pc.split_pattern_regex(txt, r"\s+")
        # split_pattern_regex leaves "" entries for leading/trailing ws;
        # flatten then filter them out (SQL's regexp_extract_all never
        # produces empties).
        flat = pc.list_flatten(toks_list)
        parent = pc.list_parent_indices(toks_list)
        nonempty = pc.not_equal(flat, "")
        flat = flat.filter(nonempty)
        parent = parent.filter(nonempty)
        # re-derive 1-based idx within each doc after the empty filter
        pn = parent.to_numpy(zero_copy_only=False)
        if len(pn):
            starts_new = np.flatnonzero(np.r_[True, pn[1:] != pn[:-1]])
            idx = np.arange(len(pn), dtype=np.int64) \
                - np.repeat(starts_new, np.diff(np.r_[starts_new, len(pn)])) + 1
        else:
            idx = np.array([], dtype=np.int64)
        return pa.table({
            id_column: pc.take(t.column(id_column), parent),
            "idx": pa.array(idx, pa.int64()),
            "token": flat.cast(pa.string()),
        })

    tokens = thin.map_batches(explode_tokens, batch_format="pyarrow")

    def explode_windows(t: pa.Table) -> pa.Table:
        ids, starts, keys = [], [], []
        for doc_id, txt in zip(t.column(id_column).to_pylist(),
                               t.column(text_column).to_pylist()):
            toks = (txt or "").split()
            if len(toks) < k:
                continue
            for s, h in enumerate(rolling_hashes(toks, k), start=1):
                ids.append(doc_id)
                starts.append(s)
                keys.append(h)
        return pa.table({
            "wkey": pa.array(keys, pa.int64()),
            id_column: pa.array(ids, id_type),
            "start": pa.array(starts, pa.int64()),
        })

    windows = thin.map_batches(explode_windows, batch_format="pyarrow")

    def mark_removed(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_column, "start"], kind="mergesort")
        dup = g.duplicated("wkey", keep="first")
        return g.loc[dup, [id_column, "start"]]

    removed = bucketed_fold(windows, "wkey", mark_removed,
                            n_buckets=n_buckets)

    def expand_covered(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        n = t.num_rows
        doc = pc.take(t.column(id_column),
                      pa.array(np.repeat(np.arange(n), k), pa.int64()))
        start = np.repeat(t.column("start").to_numpy(), k)
        off = np.tile(np.arange(k, dtype=np.int64), n)
        return pa.table({
            id_column: doc,
            "idx": pa.array(start + off, pa.int64()),
            "token": pa.nulls(n * k, pa.string()),
            "covered": pa.array(np.ones(n * k, bool)),
        })

    covered = removed.map_batches(expand_covered, batch_format="pyarrow")
    token_rows = tokens.map_batches(
        lambda t: t.append_column("covered",
                                  pa.array(np.zeros(t.num_rows, bool))),
        batch_format="pyarrow",
    )

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        toks = g.loc[~g["covered"]].sort_values([id_column, "idx"],
                                                kind="mergesort")
        cov = g.loc[g["covered"], [id_column, "idx"]].drop_duplicates()
        m = toks.merge(cov.assign(__c=1), on=[id_column, "idx"], how="left")
        keep = m["__c"].isna().to_numpy()
        agg = m.assign(__k=keep).groupby(id_column, sort=False).agg(
            n_tokens_total=("idx", "size"), n_tokens_kept=("__k", "sum"))
        texts = m.loc[keep].groupby(id_column, sort=False)["token"] \
                 .agg(" ".join)
        out = agg.join(texts.rename("dedup_text")).reset_index()
        out["dedup_text"] = out["dedup_text"].fillna("")
        out["n_tokens_total"] = out["n_tokens_total"].astype("int64")
        out["n_tokens_kept"] = out["n_tokens_kept"].astype("int64")
        return out[[id_column, "dedup_text", "n_tokens_total",
                    "n_tokens_kept"]]

    return bucketed_fold(token_rows.union(covered), id_column, reassemble,
                         n_buckets=n_buckets)


# ------------------------------------------------------------- MinHash + LSH

NUM_PERM = 128              # MinHash signature length
BANDS = 16                  # LSH bands (NUM_PERM // BANDS rows per band)
SHINGLE_K = 5               # character shingle width
DEDUP_EST_THRESHOLD = 0.5   # minhash_dedup's estimated-Jaccard cut
LABEL_ROUNDS = 32           # cluster_pairs_distributed's round cap

# cluster_pairs_distributed's row kinds
_VIEW, _ASK, _ANSWER = 0, 1, 2


def cluster_pairs_distributed(pairs_ds, id_type: pa.DataType | None = None):
    """Connected components of the ``(id_a, id_b)`` pair graph, as a
    Dataset of ``(node, label)`` with label = the component's min id —
    ``_cluster_pairs``'s assignment (equivalence-tested), computed without
    collecting anything to the driver.

    ``id_type`` types the empty label table of an empty pair set.  Left
    None, it is read from ``pairs_ds``'s schema, which executes a lazy
    ``pairs_ds`` a second time (an empty exchange carries no schema), so a
    caller that knows the id type passes it.

    State is one row per directed edge and one self row per node,
    ``(node, nbr, label)`` = ``node``'s view of ``nbr``'s label (ids to
    start), keyed by a hash bucket of ``node``.  A round is ONE
    ``bucket_exchange`` of the state: each node takes the min label it sees
    and sends it back along every edge (its row ``(node, nbr)`` returns as
    ``(nbr, node, new label)``), so the view rows keep their count.  Two
    extra kinds of row ride along:
      * a node whose label dropped while some neighbour's last label
        differs from the new one ASKS that label's node for its own label
        (pointer jumping: the answer arrives a round later, so chains of
        sorted ids converge in O(log length) rounds);
      * a node that is asked ANSWERS when its label is below the asker's.
    When no node asks, every edge joins equal labels, the fixpoint: on an
    edge u-v, u's new label is at most v's last one and vice versa, so
    "unchanged, or equal to the neighbour's last label" on both ends forces
    equality.  The round's materialized row count, a metadata read, is
    therefore the convergence test: it equals the view-row count once no
    ask or answer is left.  Before round 1 each input block's pairs
    contract to stars (node -> block-local min root, a batch-local
    union-find), so a component that one block holds converges in round
    1.  After ``LABEL_ROUNDS`` rounds one more round confirms; labels that
    still move raise ``RuntimeError``."""
    from ..util import ray_cpus
    from .join import _arrow_schema, _bucket_array

    n_buckets = ray_cpus()

    def rows(node, nbr, label, kind, id_type) -> pa.Table:
        node = pa.array(node, id_type)
        return pa.table({
            "node": node, "nbr": pa.array(nbr, id_type),
            "label": pa.array(label, id_type),
            "kind": pa.array(kind, pa.int8()),
            "__lbucket": pa.array(_bucket_array(node, n_buckets), pa.int32())})

    def contracted_views(t: pa.Table) -> pa.Table:
        av, bv = t.column("id_a").to_pylist(), t.column("id_b").to_pylist()
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for x, y in zip(av, bv):
            rx, ry = find(x), find(y)
            if rx != ry:
                # union by VALUE: the root is the block-local min id
                rx, ry = min(rx, ry), max(rx, ry)
                parent[ry] = rx
        nodes = list({*av, *bv})
        roots = [find(n) for n in nodes]
        leaves = [(n, r) for n, r in zip(nodes, roots) if n != r]
        node = nodes + [n for n, _ in leaves] + [r for _, r in leaves]
        nbr = nodes + [r for _, r in leaves] + [n for n, _ in leaves]
        # every view starts at the neighbour's own id
        return rows(node, nbr, nbr, np.full(len(node), _VIEW, np.int8),
                    t.schema.field("id_a").type)

    def distinct_views(t: pa.Table) -> pa.Table:
        t = t.group_by(["node", "nbr"]).aggregate([])
        nbr = t.column("nbr").to_numpy(zero_copy_only=False)
        return rows(t.column("node").to_numpy(zero_copy_only=False), nbr, nbr,
                    np.full(t.num_rows, _VIEW, np.int8),
                    t.schema.field("nbr").type)

    state = bucket_exchange(
        pairs_ds.map_batches(contracted_views, batch_format="pyarrow"),
        "__lbucket", n_buckets, distinct_views, "pyarrow").materialize()
    n_views = state.count()
    if n_views == 0:
        # Typed empty label table: node/label carry the pair id type.
        if id_type is None:
            id_type = _arrow_schema(pairs_ds).field("id_a").type
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], id_type), "label": pa.array([], id_type)}))
    id_type = _arrow_schema(state).field("node").type

    def label_round(g: pd.DataFrame) -> pa.Table:
        kind = g["kind"].to_numpy()
        views = g[kind == _VIEW]
        node = views["node"].to_numpy()
        nbr = views["nbr"].to_numpy()
        seen = views["label"].to_numpy()
        new = g[kind != _ASK].groupby("node", sort=False)["label"].min()
        own = node == nbr
        old = pd.Series(seen[own], index=node[own])
        new_of = new.reindex(node).to_numpy()
        unsettled = (new_of != old.reindex(node).to_numpy()) & ~own \
            & (seen != new_of)
        askers = pd.unique(node[unsettled])
        asked = new.reindex(askers).to_numpy()
        asks = g[kind == _ASK]
        reply = new.reindex(asks["node"]).to_numpy()
        better = reply < asks["label"].to_numpy()
        to = asks["nbr"].to_numpy()[better]
        return rows(
            np.concatenate([nbr, asked, to]),
            np.concatenate([node, askers, to]),
            np.concatenate([new_of, asked, reply[better]]),
            np.repeat(np.array([_VIEW, _ASK, _ANSWER], np.int8),
                      [len(node), len(askers), len(to)]),
            id_type)

    for _round in range(LABEL_ROUNDS + 1):
        state = bucket_exchange(state, "__lbucket", n_buckets, label_round,
                                "pandas").materialize()
        if state.count() == n_views:
            break
    else:
        raise RuntimeError(
            f"cluster_pairs_distributed: labels still moving after "
            f"{LABEL_ROUNDS} rounds and a confirming one")

    def labels_of(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.equal(t.column("kind"), _VIEW),
                             pc.equal(t.column("node"), t.column("nbr"))))
        return t.select(["node", "label"])

    return state.map_batches(labels_of, batch_format="pyarrow")


def _cluster_pairs(pairs: list) -> dict:
    """Union-find over candidate pairs -> {id: cluster_min_id}: the
    reference that ``cluster_pairs_distributed`` is tested against."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # Natural id ordering (min-id survivor, matching exact_dedup's
            # Min(id) convention); str() fallback only for mixed-type ids.
            try:
                lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            except TypeError:
                lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


def minhash_candidates(ds, text_column: str, id_column: str,
                       est_threshold: float = 0.5):
    """shingle -> minhash -> band -> candidate pairs, in ONE band exchange.

    Returns a Dataset of (id_a, id_b, est_jaccard), one row per pair, with
    id_a < id_b and signature-estimated Jaccard >= est_threshold.  Empty
    and blank documents are excluded up front (hot-key defusal).

    Each document explodes to one (band_key, id, sig) row per band; a
    bucketed exchange on band_key (``aggregate.bucketed_fold``) brings each
    band group into one task, where singleton groups (the vast majority)
    die in a vectorized size pass and each multi-member group pairs its
    members.  A pair is emitted only by the LOWEST band whose keys collide:
    the fold holds both signatures, so it recomputes their lower band keys,
    and no pair-dedup exchange follows."""
    from .aggregate import bucketed_fold
    from .join import _arrow_schema

    def explode(batch: pa.Table) -> pa.Table:
        band_keys, ids, sigs = [], [], []
        for doc_id, text in zip(
            batch.column(id_column).to_pylist(),
            batch.column(text_column).to_pylist(),
        ):
            if not text or not text.strip():
                continue
            sig = D.minhash_signature(text, NUM_PERM, SHINGLE_K)
            sig_bytes = sig.tobytes()
            for band, h in D.band_keys(sig, BANDS):
                # One uint64 LSH key: (band << 32) | chunk-hash — a single
                # integer column buckets/filters vectorized downstream.
                band_keys.append((band << 32) | h)
                ids.append(doc_id)
                sigs.append(sig_bytes)
        return pa.table(
            {
                "band_key": pa.array(band_keys, pa.uint64()),
                # Explicit id type: an all-empty batch would otherwise emit a
                # null-typed id column, poisoning the exploded schema.
                id_column: pa.array(ids, type=batch.column(id_column).type),
                "sig": pa.array(sigs, pa.large_binary()),
            }
        )

    # The pairs schema carries the INPUT id type (string-id corpora must not
    # get int64 empties — downstream joins on the id columns would mismatch).
    id_type = _arrow_schema(ds).field(id_column).type
    pairs_schema = pa.schema([("id_a", id_type), ("id_b", id_type),
                              ("est_jaccard", pa.float64())])

    def pairs_of_bucket(g: pd.DataFrame) -> pa.Table:
        sizes = g.groupby("band_key", sort=False)["band_key"] \
                 .transform("size")
        g = g[sizes.to_numpy() >= 2]
        a_out, b_out, est_out = [], [], []
        for key, grp in g.groupby("band_key", sort=False):
            band = int(key) >> 32
            grp = grp.sort_values(id_column)  # id_a < id_b
            ids = grp[id_column].tolist()
            sigs = [np.frombuffer(s, dtype=np.uint64) for s in grp["sig"]]
            lower = [np.array([h for _, h in D.band_keys(s, BANDS)[:band]],
                              np.uint64) for s in sigs]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if (lower[i] == lower[j]).any():
                        continue  # a lower band emits this pair
                    est = float((sigs[i] == sigs[j]).mean())
                    if est >= est_threshold:
                        a_out.append(ids[i])
                        b_out.append(ids[j])
                        est_out.append(est)
        return pa.table([pa.array(a_out, id_type), pa.array(b_out, id_type),
                         pa.array(est_out, pa.float64())],
                        schema=pairs_schema)

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")
    # A typed empty head block: an all-empty corpus's exchange carries no
    # rows, so no fold runs to give the result its schema.
    return ray.data.from_arrow(pairs_schema.empty_table()).union(
        bucketed_fold(exploded, "band_key", pairs_of_bucket))


def minhash_dedup(ds, text_column: str, id_column: str):
    """Full near-dedup: returns ``(kept, labels)`` — the rows of ``ds``
    that are not a non-min member of a near-duplicate cluster, and the
    Dataset of ``(node, label)`` for every clustered id.

    One plan, nothing collected to the driver or broadcast:
    ``minhash_candidates`` at ``DEDUP_EST_THRESHOLD``,
    ``cluster_pairs_distributed`` labels, and survivors by ONE
    ``join.anti_join`` against the removed ids (labelled nodes that are not
    their own label).  ``ds`` is read twice (signatures, survivors), so
    pass it materialized when its lineage is costly."""
    from .join import _arrow_schema, anti_join

    labels = cluster_pairs_distributed(
        minhash_candidates(ds, text_column, id_column, DEDUP_EST_THRESHOLD),
        id_type=_arrow_schema(ds).field(id_column).type)
    removed = labels.map_batches(
        lambda t: pa.table({id_column: t.filter(pc.not_equal(
            t.column("node"), t.column("label"))).column("node")}),
        batch_format="pyarrow")
    return anti_join(ds, removed, on=id_column), labels


# ------------------------------------------------------------------- SimHash

def simhash_pairs(ds, text_column: str, id_column: str,
                  max_hamming: int = 3, chunks: int = 4):
    """SimHash near-dup candidates: 16-bit chunk LSH -> hamming verify.

    Pigeonhole guarantee: hamming < chunks implies one shared chunk."""

    def explode(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch.column(text_column).to_pylist()]
        sims = D.simhash_batch(texts)
        c_keys, ids, vals = [], [], []
        for doc_id, sh, text in zip(batch.column(id_column).to_pylist(), sims, texts):
            if not text.strip():
                continue
            for chunk, key in D.simhash_band_keys(int(sh), chunks):
                # single uint64 LSH key: chunk id above the chunk's actual
                # bit width (64 // chunks; hardcoding 16 would collide
                # distinct (chunk, key) pairs for chunks < 4)
                c_keys.append((chunk << (64 // chunks)) | key)
                ids.append(doc_id)
                vals.append(int(sh))
        return pa.table(
            {
                "chunk_key": pa.array(c_keys, pa.uint64()),
                id_column: pa.array(ids),
                "simhash": pa.array(vals, pa.uint64()),
            }
        )

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow"
    )

    def pairs_of_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
        g = g.sort_values(id_column)
        ids = g[id_column].tolist()
        vals = g["simhash"].tolist()
        a_out, b_out, h_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                h = D.hamming64(vals[i], vals[j])
                if h <= max_hamming:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    h_out.append(h)
        return pd.DataFrame({"id_a": a_out, "id_b": b_out, "hamming": h_out})

    from .aggregate import bucketed_map_groups

    pairs = bucketed_map_groups(
        exploded, "chunk_key", pairs_of_group,
        # Typed empty: id columns inherit the input id dtype (string-id
        # corpora must not emit float64 id blocks — ADVICE r2).
        empty_result=lambda g: pd.DataFrame({
            "id_a": pd.Series(dtype=g[id_column].dtype),
            "id_b": pd.Series(dtype=g[id_column].dtype),
            "hamming": pd.Series(dtype="int64"),
        }),
    )
    # A pair appears once per agreeing chunk with the SAME hamming value:
    # a vectorized Min aggregate dedups it (no per-group Python).
    from ray.data.aggregate import Min

    return pairs.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


# ---------------------------------------------------------- n-gram verify

def verify_pairs_jaccard(pairs_ds, texts_by_id_ref, n: int = 3,
                         threshold: float = 0.8):
    """True n-gram Jaccard verification of candidate pairs.

    ``texts_by_id_ref`` is a ``ray.put`` dict {id: text} (broadcast small
    side).  At corpus scale use ``verify_pairs_jaccard_join`` — identical
    predicate, texts fetched by a single distributed join instead of a
    whole-corpus broadcast."""

    def _verify(batch: pa.Table) -> pa.Table:
        texts = ray.get(texts_by_id_ref)
        keep_a, keep_b, sims = [], [], []
        for a, b in zip(batch.column("id_a").to_pylist(),
                        batch.column("id_b").to_pylist()):
            sim = D.ngram_jaccard(texts.get(a, ""), texts.get(b, ""), n)
            if sim >= threshold:
                keep_a.append(a)
                keep_b.append(b)
                sims.append(sim)
        return pa.table({"id_a": pa.array(keep_a), "id_b": pa.array(keep_b),
                         "jaccard": pa.array(sims, pa.float64())})

    return pairs_ds.map_batches(_verify, batch_format="pyarrow")


def verify_pairs_jaccard_join(pairs_ds, docs, id_column: str, text_column: str,
                              n: int = 3, threshold: float = 0.8):
    """True n-gram Jaccard verification of candidate pairs, scale path.

    Never materializes the corpus: each pair is exploded into two thin rows
    (id_a, id_b, key=member id), texts are attached by ONE distributed hash
    join against the id-partitioned (id, text) projection — the document
    table shuffles exactly once, keyed the same way any downstream per-id
    stage would want it — then each (id_a, id_b) group (exactly two rows)
    computes the true word-n-gram Jaccard.  Same predicate and output as the
    broadcast ``verify_pairs_jaccard`` (equivalence-tested)."""
    from .join import _arrow_schema, partitioned_hash_join

    doc_schema = _arrow_schema(docs.select_columns([id_column, text_column]))
    id_type = doc_schema.field(id_column).type

    def explode(t: pa.Table) -> pa.Table:
        a = t.column("id_a").combine_chunks()
        b = t.column("id_b").combine_chunks()
        return pa.table(
            {
                "id_a": pa.concat_arrays([a, a]),
                "id_b": pa.concat_arrays([b, b]),
                "key": pa.concat_arrays([a, b]),
            }
        )

    exploded = pairs_ds.select_columns(["id_a", "id_b"]).map_batches(
        explode, batch_format="pyarrow"
    )
    texts = docs.select_columns([id_column, text_column]).map_batches(
        lambda t: pa.table({"key": t.column(id_column),
                            "text": t.column(text_column)}),
        batch_format="pyarrow",
    )
    joined = partitioned_hash_join(
        exploded, texts, on="key", n_buckets=16,
        left_schema=pa.schema([("id_a", id_type), ("id_b", id_type),
                               ("key", id_type)]),
        right_schema=pa.schema([("key", id_type),
                                ("text", doc_schema.field(text_column).type)]))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # Exactly two rows per pair (key == id_a and key == id_b).
        by_key = dict(zip(g["key"], g["text"]))
        a, b = g["id_a"].iloc[0], g["id_b"].iloc[0]
        sim = D.ngram_jaccard(by_key.get(a, "") or "", by_key.get(b, "") or "", n)
        if sim < threshold:
            return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
        return pd.DataFrame({"id_a": [a], "id_b": [b], "jaccard": [sim]})

    from .aggregate import bucketed_map_groups

    return bucketed_map_groups(
        joined, ["id_a", "id_b"], fold,
        empty_result=lambda g: pd.DataFrame({
            "id_a": pd.Series(dtype=g["id_a"].dtype),
            "id_b": pd.Series(dtype=g["id_b"].dtype),
            "jaccard": pd.Series(dtype="float64"),
        }),
    )


# ------------------------------------------- edit-distance similarity join

def _levenshtein(a: str, b: str, cap: int) -> int:
    """Levenshtein DP with row-min early exit above ``cap`` (returns cap+1
    for anything farther).  Strings here are SHORT keys (titles,
    normalized prefixes) — the full DP row is fine, and the row-min exit
    bounds work at cap+1 rows for far pairs."""
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(la + 1))
    for j in range(1, lb + 1):
        cj = b[j - 1]
        cur = [j] + [0] * la
        for i in range(1, la + 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1,
                         prev[i - 1] + (a[i - 1] != cj))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[la] if prev[la] <= cap else cap + 1


def edit_distance_join(ds, text_column: str, id_column: str,
                       max_dist: int = 1, n_buckets: int = 32):
    """Self-join: all pairs (id_a, id_b, dist) with Levenshtein distance
    <= ``max_dist`` between SHORT string keys — the string-similarity join
    the MinHash family can't express (shingles miss single-char edits on
    short strings).

    Physical plan — deletion-neighborhood blocking (the SymSpell /
    SymDelete scheme), provably complete for max_dist=1: every string
    emits itself plus each single-character deletion, keyed by a 64-bit
    hash; two strings within distance 1 ALWAYS share a variant (equal:
    identity key; substitution: delete the differing position on both;
    insert/delete: the longer one's deletion meets the shorter's
    identity).  One bucketed exchange of the (variant_hash, id, string)
    rows, per-group candidate pairs, exact banded-DP verification (hash
    collisions are filtered here), then a (id_a, id_b) groupby dedups the
    multi-variant hits.  max_dist >= 2 uses the same plan with the
    k-deletion neighborhood (key count ~len^k — only for short keys).

    Scale notes: keys per string = len+1 (dist 1); a HOT string value (one
    key shared by millions of rows) bounds at its reducer quadratically —
    pre-dedup identical strings upstream (exact_dedup) the way every
    published fuzzy-join pipeline does."""
    from .aggregate import bucketed_fold

    if max_dist < 1:
        raise ValueError("max_dist must be >= 1")

    def _variants(s: str, d: int) -> set:
        out = {s}
        frontier = {s}
        for _ in range(d):
            nxt = set()
            for v in frontier:
                for i in range(len(v)):
                    nxt.add(v[:i] + v[i + 1:])
            out |= nxt
            frontier = nxt
        return out

    id_type = None

    def explode(t: pa.Table) -> pa.Table:
        ids, keys, strs = [], [], []
        for doc_id, s in zip(t.column(id_column).to_pylist(),
                             t.column(text_column).to_pylist()):
            s = s or ""
            for v in _variants(s, max_dist):
                ids.append(doc_id)
                keys.append(int.from_bytes(
                    hashlib.blake2b(v.encode(), digest_size=8).digest(),
                    "big"))
                strs.append(s)
        return pa.table({
            "vkey": pa.array(keys, pa.uint64()),
            id_column: pa.array(ids, t.schema.field(id_column).type),
            "s": pa.array(strs, pa.string()),
        })

    from .join import _arrow_schema

    id_type = _arrow_schema(ds.select_columns([id_column])) \
        .field(id_column).type
    empty = pd.DataFrame({
        "id_a": pd.Series(dtype=pa.int64().to_pandas_dtype()
                          if pa.types.is_integer(id_type) else object),
        "id_b": pd.Series(dtype=pa.int64().to_pandas_dtype()
                          if pa.types.is_integer(id_type) else object),
        "dist": pd.Series(dtype="int64"),
    })

    def _key_of(s: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("vkey", sort=False)["vkey"].transform("size")
        g = g[sizes.to_numpy() >= 2]
        if g.empty:
            return empty
        a_out, b_out, d_out = [], [], []
        for vkey, sub in g.groupby("vkey", sort=False):
            sub = sub.drop_duplicates(subset=[id_column])
            # The DP runs once per DISTINCT string pair, never per id pair
            # (hot string values repeat across many rows); id pairs expand
            # from the verdict.  Distance-0 pairs (identical strings) emit
            # ONLY in the string's own identity-variant group — identical
            # strings share every variant, so emitting everywhere would
            # redo the quadratic expansion len(s)+1 times.
            by_s: dict = {}
            for i, s in zip(sub[id_column].tolist(), sub["s"].tolist()):
                by_s.setdefault(s, []).append(i)
            strs = sorted(by_s)
            for s in strs:
                ids = by_s[s]
                if len(ids) > 1 and _key_of(s) == vkey:
                    ids = sorted(ids)
                    for x in range(len(ids)):
                        for y in range(x + 1, len(ids)):
                            a_out.append(ids[x])
                            b_out.append(ids[y])
                            d_out.append(0)
            for x in range(len(strs)):
                for y in range(x + 1, len(strs)):
                    d = _levenshtein(strs[x], strs[y], max_dist)
                    if d <= max_dist:
                        for ia in by_s[strs[x]]:
                            for ib in by_s[strs[y]]:
                                lo, hi = (ia, ib) if ia <= ib else (ib, ia)
                                a_out.append(lo)
                                b_out.append(hi)
                                d_out.append(d)
        if not a_out:
            return empty
        out = pd.DataFrame({"id_a": a_out, "id_b": b_out, "dist": d_out})
        return out.astype({"dist": "int64"})

    raw = bucketed_fold(
        ds.select_columns([id_column, text_column]).map_batches(
            explode, batch_format="pyarrow"),
        "vkey", fold, n_buckets=n_buckets)
    empty_pairs = pa.table({
        "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
        "dist": pa.array([], pa.int64()),
    })
    raw = ray.data.from_arrow(empty_pairs).union(raw)
    # A pair appears once per shared variant: dedup with one groupby (dist
    # is pair-determined, Min is a no-op disambiguator).
    from ray.data.aggregate import Min

    pairs = raw.repartition(8).map_batches(lambda t: t,
                                           batch_format="pyarrow")
    grouped = pairs.groupby(["id_a", "id_b"]).aggregate(
        Min("dist", alias_name="dist"))
    return ray.data.from_arrow(empty_pairs).union(grouped)


# --------------------------------- prefix-filter set-similarity join (PPJoin)

def setsim_prefix_join(ds, text_column: str, id_column: str, n: int = 3,
                       threshold=(4, 5), n_buckets: int = 32):
    """EXACT Jaccard-threshold self-join over word n-gram SETS via prefix
    filtering with the positional filter (Chaudhuri et al. SSJoin; Xiao et
    al. PPJoin) — the exact-output companion to the MinHash family: every
    returned pair truly clears the threshold and NO qualifying pair is
    missed, without the all-pairs scan.

    ``threshold`` is a RATIONAL (num, den) — e.g. (4, 5) = 0.8 — so every
    filter and the final predicate are integer-exact end to end.  Sets are
    represented by their md5_u64 shingle hashes — exactly DuckDB's
    ``md5_number_lower``, so the SQL oracle hashes the same way and the
    comparison is exact BY CONSTRUCTION (both engines see identical sets;
    a collision, ~sz²/2⁶⁴ per doc, would merge the same two shingles on
    both sides).

    Plan (2 bucketed exchanges + one thin join; the corpus is read twice,
    never collected):
      1. Row-local explode: per doc, the distinct hash set (ascending =
         the global prefix order) is cut to the PREFIX — the first
         ``sz - ceil(t*sz) + 1`` hashes — emitted as (pkey, id, sz, pos)
         rows.  Completeness: jac(A,B) >= t forces |A∩B| >=
         ceil(t·max(|A|,|B|)), and two such sets must share a member of
         both prefixes under any common total order (the prefix-filtering
         lemma).  Empty documents emit nothing, so they never pair (SQL
         join semantics, not the jac(∅,∅)=1 convention).
      2. ONE bucketed exchange on pkey: singleton groups die vectorized
         (transform('size'), the minhash defusal); surviving groups emit
         pairs pruned by the SIZE filter (min·den >= num·max) and the
         POSITIONAL filter — the suffix beyond the shared hash bounds the
         overlap, min(sz_a - pos_a, sz_b - pos_b) >=
         ceil(num·(sz_a+sz_b)/(num+den)) — measured 222k -> 30k
         candidates on the templated sf0.1 corpus (every shingle there
         has df >= 2, so ordering tricks alone cannot rescue
         selectivity; the positional bound can).
      3. Exact verification: pair rows explode to two thin member rows,
         each doc's SORTED hash array attaches by ONE distributed hash
         join (the verify_pairs_jaccard_join choreography), and a
         whole-bucket vectorized fold intersects the two uint64 arrays
         per pair (np.intersect1d, assume_unique) — no shingle
         recomputation, no per-pair frames.  Candidate duplicates (one
         per shared prefix hash, measured ~5%) hash to the same bucket
         and die in a drop_duplicates there — no dedup exchange.
         Output: (id_a, id_b, shared, size_a, size_b), hash-exact vs
         the SQL replay.

    Hot-group contract (same as ``edit_distance_join``): byte-identical
    duplicated documents share identical prefixes and pair quadratically —
    run exact dedup upstream first, as every published set-similarity-join
    pipeline does."""
    num, den = threshold

    from .join import _arrow_schema

    id_type = _arrow_schema(ds.select_columns([id_column])).field(id_column).type
    empty_pairs = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
    })
    empty_fold = empty_pairs.to_pandas()

    def doc_hashes(text):
        return _setsim_doc_hashes(text, n)

    def explode(batch: pa.Table) -> pa.Table:
        keys, ids, szs, poss = [], [], [], []
        for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                batch.column(text_column).to_pylist()):
            hashes = doc_hashes(text)
            if hashes is None:
                continue
            sz = len(hashes)
            p = sz - (-(-num * sz // den)) + 1  # sz - ceil(t*sz) + 1
            for pos in range(min(p, sz)):
                keys.append(int(hashes[pos]))
                ids.append(doc_id)
                szs.append(sz)
                poss.append(pos)
        return pa.table({
            "pkey": pa.array(keys, pa.uint64()),
            id_column: pa.array(ids, type=batch.column(id_column).type),
            "sz": pa.array(szs, pa.int64()),
            "pos": pa.array(poss, pa.int64()),
        })

    from .aggregate import bucketed_fold

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")

    def pairs_of_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sz", id_column], kind="mergesort")
        ids = g[id_column].tolist()
        szs = g["sz"].tolist()
        poss = g["pos"].tolist()
        a_out, b_out = [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                # ascending sz: szs[i] <= szs[j]; size filter min >= t*max
                if szs[i] * den < num * szs[j]:
                    break  # szs[j..] only grow
                a, b = ids[i], ids[j]
                if a == b:
                    continue
                # positional filter: overlap <= 1 + remaining suffix length
                alpha = -(-num * (szs[i] + szs[j]) // (num + den))
                if min(szs[i] - poss[i], szs[j] - poss[j]) < alpha:
                    continue
                if b < a:
                    a, b = b, a
                a_out.append(a)
                b_out.append(b)
        return pd.DataFrame({"id_a": a_out, "id_b": b_out})

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("pkey", sort=False)["pkey"].transform("size")
        g = g[sizes.to_numpy() >= 2]
        if g.empty:
            return empty_fold
        outs = [pairs_of_group(sub)
                for _, sub in g.groupby("pkey", sort=False)]
        outs = [o for o in outs if len(o)]
        return pd.concat(outs, ignore_index=True) if outs else empty_fold

    raw = bucketed_fold(exploded, "pkey", fold_bucket, n_buckets=n_buckets)
    # A pair appears once per shared prefix hash (measured ~5% duplicates
    # on the sf0.1 corpus) — NOT worth its own dedup exchange: duplicates
    # of a pair hash to the same verification bucket, where one vectorized
    # drop_duplicates kills them for free.
    deduped = ray.data.from_arrow(empty_pairs).union(raw)

    # ---- verification: attach each member's sorted hash array, intersect
    from .join import partitioned_hash_join

    def member_explode(t: pa.Table) -> pa.Table:
        a = t.column("id_a").combine_chunks()
        b = t.column("id_b").combine_chunks()
        return pa.table({
            "id_a": pa.concat_arrays([a, a]),
            "id_b": pa.concat_arrays([b, b]),
            "key": pa.concat_arrays([a, b]),
        })

    def hash_sets(batch: pa.Table) -> pa.Table:
        keys, blobs = [], []
        for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                batch.column(text_column).to_pylist()):
            hashes = doc_hashes(text)
            if hashes is None:
                continue
            keys.append(doc_id)
            blobs.append(hashes.tobytes())
        return pa.table({
            "key": pa.array(keys, type=batch.column(id_column).type),
            "hs": pa.array(blobs, pa.large_binary()),
        })

    exploded_pairs = deduped.select_columns(["id_a", "id_b"]).map_batches(
        member_explode, batch_format="pyarrow")
    sets_tbl = ds.select_columns([id_column, text_column]).map_batches(
        hash_sets, batch_format="pyarrow")
    joined = partitioned_hash_join(
        exploded_pairs, sets_tbl, on="key", n_buckets=n_buckets,
        left_schema=pa.schema([("id_a", id_type), ("id_b", id_type),
                               ("key", id_type)]),
        right_schema=pa.schema([("key", id_type),
                                ("hs", pa.large_binary())]))

    empty_out = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
        "shared": pa.array([], pa.int64()),
        "size_a": pa.array([], pa.int64()),
        "size_b": pa.array([], pa.int64()),
    })
    empty_verify = empty_out.to_pandas()

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # Candidate duplicates (same pair via several shared prefix hashes)
        # all hash to this bucket — kill them here instead of upstream.
        g = g.drop_duplicates(["id_a", "id_b", "key"])
        # Exactly two rows per pair (key == id_a and key == id_b); sorting
        # by (id_a, id_b, key) makes them adjacent with the id_a member
        # first (id_a < id_b by construction).
        g = g.sort_values(["id_a", "id_b", "key"], kind="mergesort")
        ids_a = g["id_a"].to_numpy()
        ids_b = g["id_b"].to_numpy()
        blobs = g["hs"].tolist()
        out_a, out_b, out_sh, out_sa, out_sb = [], [], [], [], []
        i = 0
        while i < len(blobs) - 1:
            if ids_a[i] != ids_a[i + 1] or ids_b[i] != ids_b[i + 1]:
                i += 1  # partner row missing (cannot happen in a self-join)
                continue
            ha = np.frombuffer(bytes(blobs[i]), dtype=np.uint64)
            hb = np.frombuffer(bytes(blobs[i + 1]), dtype=np.uint64)
            shared = len(np.intersect1d(ha, hb, assume_unique=True))
            if shared * den >= num * (len(ha) + len(hb) - shared):
                out_a.append(ids_a[i])
                out_b.append(ids_b[i])
                out_sh.append(shared)
                out_sa.append(len(ha))
                out_sb.append(len(hb))
            i += 2
        if not out_a:
            return empty_verify
        return pd.DataFrame({"id_a": out_a, "id_b": out_b,
                             "shared": np.asarray(out_sh, np.int64),
                             "size_a": np.asarray(out_sa, np.int64),
                             "size_b": np.asarray(out_sb, np.int64)})

    verified = bucketed_fold(joined, ["id_a", "id_b"], verify_bucket,
                             n_buckets=n_buckets)
    return ray.data.from_arrow(empty_out).union(verified)


def _setsim_doc_hashes(text, n: int):
    """Distinct word-n-gram md5_u64 hashes of a doc, ASCENDING (= the
    global prefix order); None for shingle-less docs."""
    sh = D.word_ngrams(text or "", n)
    if not sh:
        return None
    return np.unique(np.fromiter(
        (T.md5_u64(s) for s in sh), dtype=np.uint64, count=len(sh)))


def setsim_snapshot_anti_join(new_ds, old_ds, text_column: str,
                              id_column: str, n: int = 3, threshold=(4, 5),
                              n_buckets: int = 32):
    """Cross-snapshot NEAR-dup anti-join, exact: keep the NEW rows that
    have no OLD document within word-n-gram-set Jaccard >= ``threshold``
    — incremental crawl near-dedup with the prefix-filter guarantee (no
    qualifying old match is ever missed — see ``setsim_prefix_join``;
    ``dedup_against_snapshot`` is the key-EQUALITY sibling, MinHash the
    probabilistic one).

    R-S variant of the self-join plan: both sides explode prefixes (a
    ``side`` tag rides along), candidate groups pair only ACROSS sides
    (with the same size + positional filters), verification intersects
    hash arrays after one distributed join against the union of both
    sides' set tables (member keys are side-prefixed strings so the two
    snapshots' id spaces may overlap), and one left anti-join drops the
    matched new ids.  Output: the surviving NEW (id, text) rows."""
    num, den = threshold

    from .aggregate import bucketed_fold
    from .join import _arrow_schema, anti_join, partitioned_hash_join

    id_type = _arrow_schema(
        new_ds.select_columns([id_column])).field(id_column).type
    empty_pairs = pa.table({
        "new_id": pa.array([], id_type),
        "old_id": pa.array([], id_type),
    })
    empty_fold = empty_pairs.to_pandas()

    def explode_side(side: int):
        def explode(batch: pa.Table) -> pa.Table:
            keys, ids, szs, poss = [], [], [], []
            for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                    batch.column(text_column).to_pylist()):
                hashes = _setsim_doc_hashes(text, n)
                if hashes is None:
                    continue
                sz = len(hashes)
                p = sz - (-(-num * sz // den)) + 1
                for pos in range(min(p, sz)):
                    keys.append(int(hashes[pos]))
                    ids.append(doc_id)
                    szs.append(sz)
                    poss.append(pos)
            return pa.table({
                "pkey": pa.array(keys, pa.uint64()),
                id_column: pa.array(ids, type=batch.column(id_column).type),
                "sz": pa.array(szs, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "side": pa.array([side] * len(ids), pa.int8()),
            })

        return explode

    new_pref = new_ds.select_columns([id_column, text_column]).map_batches(
        explode_side(0), batch_format="pyarrow")
    old_pref = old_ds.select_columns([id_column, text_column]).map_batches(
        explode_side(1), batch_format="pyarrow")
    exploded = new_pref.union(old_pref)

    def pairs_of_group(g: pd.DataFrame) -> pd.DataFrame:
        new_side = g[g["side"] == 0]
        old_side = g[g["side"] == 1]
        if new_side.empty or old_side.empty:
            return empty_fold
        n_ids = new_side[id_column].tolist()
        n_sz = new_side["sz"].tolist()
        n_pos = new_side["pos"].tolist()
        o_ids = old_side[id_column].tolist()
        o_sz = old_side["sz"].tolist()
        o_pos = old_side["pos"].tolist()
        a_out, b_out = [], []
        for i in range(len(n_ids)):
            for j in range(len(o_ids)):
                sa, sb = n_sz[i], o_sz[j]
                lo, hi = (sa, sb) if sa <= sb else (sb, sa)
                if lo * den < num * hi:
                    continue
                alpha = -(-num * (sa + sb) // (num + den))
                if min(sa - n_pos[i], sb - o_pos[j]) < alpha:
                    continue
                a_out.append(n_ids[i])
                b_out.append(o_ids[j])
        return pd.DataFrame({"new_id": a_out, "old_id": b_out})

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("pkey", sort=False)["pkey"].transform("size")
        g = g[sizes.to_numpy() >= 2]
        if g.empty:
            return empty_fold
        outs = [pairs_of_group(sub)
                for _, sub in g.groupby("pkey", sort=False)]
        outs = [o for o in outs if len(o)]
        return pd.concat(outs, ignore_index=True) if outs else empty_fold

    raw = bucketed_fold(exploded, "pkey", fold_bucket, n_buckets=n_buckets)
    pairs = ray.data.from_arrow(empty_pairs).union(raw)

    # ---- verification (side-prefixed member keys; ids may overlap)
    def member_explode(t: pa.Table) -> pa.Table:
        a = t.column("new_id").combine_chunks()
        b = t.column("old_id").combine_chunks()
        ka = pc.binary_join_element_wise(
            pa.array(["n"] * len(a)), pc.cast(a, pa.string()), ":")
        kb = pc.binary_join_element_wise(
            pa.array(["o"] * len(b)), pc.cast(b, pa.string()), ":")
        if isinstance(ka, pa.ChunkedArray):
            ka = ka.combine_chunks()
        if isinstance(kb, pa.ChunkedArray):
            kb = kb.combine_chunks()
        return pa.table({
            "new_id": pa.concat_arrays([a, a]),
            "old_id": pa.concat_arrays([b, b]),
            "key": pa.concat_arrays([ka, kb]),
        })

    def hash_sets(side: str):
        def f(batch: pa.Table) -> pa.Table:
            keys, blobs = [], []
            for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                    batch.column(text_column).to_pylist()):
                hashes = _setsim_doc_hashes(text, n)
                if hashes is None:
                    continue
                keys.append(f"{side}:{doc_id}")
                blobs.append(hashes.tobytes())
            return pa.table({"key": pa.array(keys, pa.string()),
                             "hs": pa.array(blobs, pa.large_binary())})

        return f

    exploded_pairs = pairs.select_columns(["new_id", "old_id"]).map_batches(
        member_explode, batch_format="pyarrow")
    sets_tbl = new_ds.select_columns([id_column, text_column]).map_batches(
        hash_sets("n"), batch_format="pyarrow").union(
        old_ds.select_columns([id_column, text_column]).map_batches(
            hash_sets("o"), batch_format="pyarrow"))
    joined = partitioned_hash_join(
        exploded_pairs, sets_tbl, on="key", n_buckets=n_buckets,
        left_schema=pa.schema([("new_id", id_type), ("old_id", id_type),
                               ("key", pa.string())]),
        right_schema=pa.schema([("key", pa.string()),
                                ("hs", pa.large_binary())]))

    empty_matched = pa.table({"new_id": pa.array([], id_type)}).to_pandas()

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["new_id", "old_id", "key"])
        # 2 rows per pair; "n:..." sorts before "o:..." lexicographically.
        g = g.sort_values(["new_id", "old_id", "key"], kind="mergesort")
        ids_a = g["new_id"].to_numpy()
        ids_b = g["old_id"].to_numpy()
        blobs = g["hs"].tolist()
        out = []
        i = 0
        while i < len(blobs) - 1:
            if ids_a[i] != ids_a[i + 1] or ids_b[i] != ids_b[i + 1]:
                i += 1
                continue
            ha = np.frombuffer(bytes(blobs[i]), dtype=np.uint64)
            hb = np.frombuffer(bytes(blobs[i + 1]), dtype=np.uint64)
            shared = len(np.intersect1d(ha, hb, assume_unique=True))
            if shared * den >= num * (len(ha) + len(hb) - shared):
                out.append(ids_a[i])
            i += 2
        if not out:
            return empty_matched
        return pd.DataFrame({"new_id": out}).drop_duplicates()

    matched = bucketed_fold(joined, ["new_id", "old_id"], verify_bucket,
                            n_buckets=n_buckets)
    # A new doc matching several old docs appears several times — the
    # anti-join excludes on ANY right match, so no dedup exchange is needed.
    matched_ids = ray.data.from_arrow(
        pa.table({"new_id": pa.array([], id_type)})).union(matched) \
        .map_batches(
            lambda t: t if t.num_columns == 0
            else pa.table({id_column: t.column("new_id")}),
            batch_format="pyarrow")

    # The bucketed anti-join IS the survivor filter — one exchange, no
    # marker column, no driver collection.
    return anti_join(new_ds, matched_ids, on=id_column, n_buckets=n_buckets)



def bloom_semi_filter(ds, key_column: str, bloom_ref, m_bits: int = 1 << 23,
                      k: int = 4, keep: str = "member"):
    """Row-local Bloom probe over a broadcast bloom (``ray.put`` of
    ``build_bloom``'s bytes): keep rows whose key IS (``keep='member'``)
    or IS NOT (``'non_member'``) possibly-in-the-set.

    ``member`` mode is the classic JOIN-PRUNING semi-filter: probe the
    fact side with the (small) dimension keyset's bloom BEFORE the join
    exchange, so non-matching fact rows never shuffle; bloom false
    positives pass the filter but die in the join, so the join result is
    EXACTLY the unpruned join's.  ``non_member`` mode is the snapshot
    anti-dedup probe (conservative: FPs drop ~1% of genuinely-new rows —
    see ``dedup_against_snapshot``)."""
    want_member = {"member": True, "non_member": False}[keep]

    def probe(t: pa.Table) -> pa.Table:
        bloom = np.frombuffer(ray.get(bloom_ref), dtype=np.uint8)
        h1 = _hash64_column(t.column(key_column))
        h2 = _splitmix64(h1) | np.uint64(1)
        member = np.ones(t.num_rows, dtype=bool)
        with np.errstate(over="ignore"):
            for i in range(k):
                pos = ((h1 + np.uint64(i) * h2) % np.uint64(m_bits)) \
                    .astype(np.int64)
                member &= (bloom[pos >> 3]
                           >> (pos & 7).astype(np.uint8)) & 1 == 1
        return t.filter(pa.array(member if want_member else ~member))

    return ds.map_batches(probe, batch_format="pyarrow")


def dedup_keep_best(ds, text_column: str, id_column: str, order_cols,
                    ascending=None, n_buckets: int = 32):
    """Canonical selection: per exact-duplicate cluster (content hash of
    ``text_column``), keep the single BEST row by ``order_cols`` —
    deterministic ties broken by ascending ``id_column``.  The curation
    form of exact dedup: instead of "first id wins" (``exact_dedup``),
    the survivor is chosen by quality/priority metadata (prefer the
    canonical source, the highest quality score, the newest snapshot).

    One bounded full-row exchange on the hash (the ``exact_dedup``
    plan) with a whole-bucket vectorized sort + ``drop_duplicates`` fold
    — no per-group Python.  Flat schemas only (the fold is pandas; nested
    columns should route through ``exact_dedup``'s arrow fold)."""
    from .aggregate import bucketed_fold

    order_cols = [order_cols] if isinstance(order_cols, str) \
        else list(order_cols)
    if ascending is None:
        ascending = [True] * len(order_cols)

    hashed = add_content_hash(ds, text_column)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["content_hash", *order_cols, id_column],
            ascending=[True, *ascending, True], kind="mergesort")
        return g.drop_duplicates("content_hash", keep="first") \
            .drop(columns=["content_hash"])

    return bucketed_fold(hashed, "content_hash", fold, n_buckets=n_buckets)


def merge_survivorship(ds, cluster_col: str, order_cols, value_cols,
                       ascending=None, n_buckets: int = 32):
    """Golden-record SURVIVORSHIP merge: per duplicate cluster, build ONE
    output row whose every field is the first NON-NULL value in priority
    order (``order_cols`` ascending/descending, then ``cluster_col`` row
    order is irrelevant — priority must be a total order per cluster for
    determinism).  The entity-resolution step after clustering:
    ``dedup_keep_best`` keeps one whole row; this coalesces the best
    value PER FIELD across the cluster (phone from the CRM row, email
    from the signup row).

    One bounded full-row exchange on the cluster key, whole-bucket
    vectorized fold (sort + pandas ``GroupBy.first``, which skips nulls
    per column — exactly the survivorship rule).  Flat schemas only."""
    from .aggregate import bucketed_fold

    order_cols = [order_cols] if isinstance(order_cols, str) \
        else list(order_cols)
    if ascending is None:
        ascending = [True] * len(order_cols)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([cluster_col, *order_cols],
                          ascending=[True, *ascending], kind="mergesort")
        out = g.groupby(cluster_col, sort=False)[list(value_cols)].first()
        return out.reset_index()

    cols = [cluster_col, *order_cols, *value_cols]
    return bucketed_fold(ds.select_columns(cols), cluster_col, fold,
                         n_buckets=n_buckets)


# ---------------------------------------------- content-defined chunking

CDC_P = 2147483647          # Mersenne prime 2^31-1
CDC_B = 257                 # polynomial base (coprime with P)
CDC_INVB = 16711935         # B^-1 mod P  (pow(257, P-2, P))
CDC_W = 16                  # rolling window bytes
CDC_MASK = 64               # boundary when H % 64 == 0 (avg ~64-byte chunks)


def _cdc_chunks(text: str):
    """One document's content-defined chunk list (FastCDC-style WITHOUT
    min/max guards — boundaries depend only on local bytes, so an insert
    early in the doc re-chunks only its neighborhood; the guard-free
    variant keeps the boundary rule stateless and SQL-replayable).

    Rolling hash over the trailing W bytes at position i (0-based):
      H_i = sum_{k=0..W-1} b_{i-k} * B^k  (mod P)
    computed via the prefix trick  H_i = (S_i - S_{i-W}) * B^i  with
    S_i = sum_{j<=i} b_j * invB^j — one vectorized numpy pass.  A
    position with H_i % MASK == 0 (i >= W-1) ENDS a chunk; the tail
    remainder is a chunk.  Returns the list of chunk strings."""
    b = np.frombuffer(text.encode("utf-8"), np.uint8).astype(np.int64)
    n = len(b)
    if n == 0:
        return []
    # inv_pows[j] = invB^j mod P ; fwd_pows[i] = B^i mod P
    inv_pows = np.empty(n, np.int64)
    fwd_pows = np.empty(n, np.int64)
    x = y = 1
    for j in range(n):
        inv_pows[j] = x
        fwd_pows[j] = y
        x = (x * CDC_INVB) % CDC_P
        y = (y * CDC_B) % CDC_P
    S = np.cumsum(b * inv_pows % CDC_P)          # raw sums fit int64
    S_lag = np.zeros(n, np.int64)
    if n > CDC_W:
        S_lag[CDC_W:] = S[:-CDC_W]
    diff = (S - S_lag) % CDC_P
    H = diff * fwd_pows % CDC_P
    boundary = (H % CDC_MASK == 0)
    boundary[:CDC_W - 1] = False                 # need a full window
    ends = np.flatnonzero(boundary) + 1          # chunk-end offsets
    starts = np.concatenate([[0], ends])
    stops = np.concatenate([ends, [n]])
    s = text
    return [s[a:z] for a, z in zip(starts, stops) if z > a]


def cdc_chunk_stats(ds, text_column: str = "text",
                    group_col: str = "source", n_buckets: int = 16):
    """Storage-dedup measurement via content-defined chunking: per
    ``group_col``, the total chunk count/bytes vs the DISTINCT chunk
    count/bytes — the dedup ratio a chunk store would achieve (shared
    boilerplate dedups even when documents differ elsewhere, the property
    fixed-size blocks lack).

    Per-batch: chunk each doc row-locally, emit per-(group, chunk-hash)
    partials (count + byte size, md5_u64 chunk identity); ONE bucketed
    combine on the hash dedups globally and re-aggregates per group.
    Returns (group, n_chunks, n_unique, bytes_total, bytes_unique)."""
    from ..functions.textstats import md5_u64
    from .aggregate import bucketed_combine

    def partial(t: pa.Table) -> pa.Table:
        gs, hs, cnt, size = [], [], [], []
        acc: dict = {}
        for grp, text in zip(t.column(group_col).to_pylist(),
                             t.column(text_column).to_pylist()):
            for ch in _cdc_chunks(text or ""):
                k = (grp, md5_u64(ch))
                c, sz = acc.get(k, (0, len(ch.encode("utf-8"))))
                acc[k] = (c + 1, sz)
        for (grp, h), (c, sz) in acc.items():
            gs.append(grp)
            hs.append(h)
            cnt.append(c)
            size.append(sz)
        return pa.table({
            group_col: pa.array(gs, t.schema.field(group_col).type),
            "h": pa.array(np.array(hs, np.uint64), pa.uint64()),
            "pn": pa.array(cnt, pa.int64()),
            "sz": pa.array(size, pa.int64()),
        })

    partials = ds.select_columns([group_col, text_column]).map_batches(
        partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        per = df.groupby([group_col, "h"], sort=False).agg(
            n=("pn", "sum"), sz=("sz", "first"))
        out = per.reset_index().groupby(group_col, sort=False).agg(
            n_chunks=("n", "sum"),
            n_unique=("n", "size"),
            bytes_total_u=("n", lambda s: 0),   # placeholder, set below
        )
        g2 = per.reset_index()
        g2["btot"] = g2["n"] * g2["sz"]
        agg2 = g2.groupby(group_col, sort=False).agg(
            bytes_total=("btot", "sum"), bytes_unique=("sz", "sum"))
        out = out.drop(columns=["bytes_total_u"]).join(agg2).reset_index()
        out = out.astype({"n_chunks": "int64", "n_unique": "int64",
                          "bytes_total": "int64", "bytes_unique": "int64"})
        return pa.Table.from_pandas(out, preserve_index=False)

    per_bucket = bucketed_combine(partials, "h", combine, n_buckets)

    def total(t: pa.Table) -> pa.Table:
        g = t.group_by(group_col).aggregate(
            [("n_chunks", "sum"), ("n_unique", "sum"),
             ("bytes_total", "sum"), ("bytes_unique", "sum")])
        return pa.table({
            group_col: g.column(group_col),
            "n_chunks": g.column("n_chunks_sum"),
            "n_unique": g.column("n_unique_sum"),
            "bytes_total": g.column("bytes_total_sum"),
            "bytes_unique": g.column("bytes_unique_sum")})

    return per_bucket.repartition(1).map_batches(
        total, batch_format="pyarrow")


def cdc_chunk_store(docs, id_column: str = "doc_id",
                    text_column: str = "text", n_buckets: int = 16):
    """Build a deduplicating CHUNK STORE from the corpus (the backup /
    object-store layout over ``_cdc_chunks``): returns (manifest, chunks)
    where manifest = (doc_id, pos, h) ordered chunk references and
    chunks = (h, chunk) UNIQUE chunk bodies (one bucketed dedup fold on
    the 64-bit chunk hash; hash identity — the md5_u64 collision
    probability is the usual content-address assumption).  Two passes
    over the corpus (manifests are thin; chunk partials dedup per batch
    before the exchange)."""
    from ..functions.textstats import md5_u64
    from .aggregate import bucketed_fold

    def manifest_rows(t: pa.Table) -> pa.Table:
        ids, poss, hs = [], [], []
        for did, text in zip(t.column(id_column).to_pylist(),
                             t.column(text_column).to_pylist()):
            for p, ch in enumerate(_cdc_chunks(text or "")):
                ids.append(did)
                poss.append(p)
                hs.append(np.int64(np.uint64(md5_u64(ch))))
        return pa.table({
            id_column: pa.array(ids, t.schema.field(id_column).type),
            "pos": pa.array(poss, pa.int64()),
            "h": pa.array(hs, pa.int64()),
        })

    def chunk_rows(t: pa.Table) -> pa.Table:
        acc: dict = {}
        for text in t.column(text_column).to_pylist():
            for ch in _cdc_chunks(text or ""):
                acc[np.int64(np.uint64(md5_u64(ch)))] = ch
        return pa.table({"h": pa.array(list(acc.keys()), pa.int64()),
                         "chunk": pa.array(list(acc.values()),
                                           pa.string())})

    manifest = docs.select_columns([id_column, text_column]).map_batches(
        manifest_rows, batch_format="pyarrow")
    chunks = bucketed_fold(
        docs.select_columns([text_column]).map_batches(
            chunk_rows, batch_format="pyarrow"),
        "h", lambda g: g.drop_duplicates("h"), n_buckets=n_buckets)
    return manifest, chunks


def cdc_restore(manifest, chunks, id_column: str = "doc_id",
                id_type: pa.DataType = None, n_buckets: int = 16):
    """Reassemble documents from the chunk store: ONE distributed hash
    join of manifest references against the chunk bodies (the chunk
    table is corpus-shaped — never broadcast), then a per-doc ordered
    concat fold.  Returns (doc_id, text), byte-identical to the
    originals."""
    from .aggregate import bucketed_map_groups
    from .join import partitioned_hash_join

    id_type = id_type or pa.int64()
    left_schema = pa.schema([(id_column, id_type), ("pos", pa.int64()),
                             ("h", pa.int64())])
    right_schema = pa.schema([("h", pa.int64()), ("chunk", pa.string())])
    joined = partitioned_hash_join(manifest, chunks, on="h",
                                   n_buckets=n_buckets,
                                   left_schema=left_schema,
                                   right_schema=right_schema)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("pos", kind="mergesort")
        return pd.DataFrame({id_column: [g[id_column].iloc[0]],
                             "text": ["".join(g["chunk"])]})

    return bucketed_map_groups(joined, id_column, fold)


def fingerprint_neardup_pairs(ds, fp_column: str, id_column: str,
                              max_hamming: int = 6, chunks: int = 7,
                              bits: int = 64):
    """Near-duplicate pairs over PRECOMPUTED 64-bit fingerprints
    (perceptual image dHash, audio fingerprints, any simhash-shaped
    signature): band LSH + exact hamming verification — the
    fingerprint-agnostic generalization of ``simhash_pairs`` (which
    fuses text hashing into the explode).  Pigeonhole recall guarantee:
    ``chunks`` >= max_hamming + 1 makes a shared band certain for every
    true pair (bits above chunks*(64//chunks) don't weaken it — a
    difference there leaves fewer banded differences, never more).

    ``bits`` is the MEANINGFUL fingerprint width: a 32-bit fingerprint
    banded as 64 bits would share its always-zero high bands across the
    whole corpus and regress to all-pairs — bands must tile the bits
    that actually vary.

    One band-bucketed exchange; candidate dups (one per agreeing band)
    die in a vectorized Min fold.  Returns (id_a, id_b, hamming)."""
    from ray.data.aggregate import Min

    from .aggregate import bucketed_map_groups

    if chunks < max_hamming + 1:
        raise ValueError(
            f"chunks={chunks} cannot guarantee recall for "
            f"max_hamming={max_hamming} (need >= max_hamming + 1)")
    width = bits // chunks
    mask = (1 << width) - 1

    def explode(batch: pa.Table) -> pa.Table:
        c_keys, ids, vals = [], [], []
        for iid, fp in zip(batch.column(id_column).to_pylist(),
                           batch.column(fp_column).to_pylist()):
            if fp is None:
                continue
            for chunk in range(chunks):
                key = (int(fp) >> (chunk * width)) & mask
                c_keys.append((chunk << width) | key)
                ids.append(iid)
                vals.append(int(fp))
        return pa.table({
            "chunk_key": pa.array(c_keys, pa.uint64()),
            id_column: pa.array(ids),
            "fp": pa.array(vals, pa.uint64()),
        })

    exploded = ds.select_columns([id_column, fp_column]).map_batches(
        explode, batch_format="pyarrow")

    def pairs_of_group(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
        g = g.drop_duplicates(id_column).sort_values(id_column)
        ids = g[id_column].tolist()
        vals = g["fp"].tolist()
        a_out, b_out, h_out = [], [], []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                h = D.hamming64(int(vals[i]), int(vals[j]))
                if h <= max_hamming:
                    a_out.append(ids[i])
                    b_out.append(ids[j])
                    h_out.append(h)
        return pd.DataFrame({"id_a": a_out, "id_b": b_out,
                             "hamming": h_out})

    pairs = bucketed_map_groups(
        exploded, "chunk_key", pairs_of_group,
        empty_result=lambda g: pd.DataFrame({
            "id_a": pd.Series(dtype=g[id_column].dtype),
            "id_b": pd.Series(dtype=g[id_column].dtype),
            "hamming": pd.Series(dtype="int64"),
        }),
    )
    return pairs.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming"))


def containment_pairs(ds, text_column: str, id_column: str, n: int = 3,
                      threshold=(1, 2), df_cap: int = 64,
                      n_buckets: int = 32):
    """ASYMMETRIC near-dup join: pairs whose word-n-gram-set max-
    containment |A∩B| / min(|A|,|B|) clears a rational ``threshold`` —
    the partial-copy / quotation / boilerplate-inclusion detector the
    symmetric Jaccard family misses (a 100-line doc quoting a 10-line
    doc verbatim has jaccard ~0.1 but containment 1.0).

    Exactness contract: shingles with document frequency > ``df_cap``
    are dropped BEFORE pairing (the standard stopword-shingle defusal —
    an intersection undercount, so the join is conservative), while the
    containment DENOMINATOR stays the full per-doc distinct-shingle
    count; the SQL replay applies the identical cap, so the output is
    hash-exact, not approximate.

    Plan (two thin exchanges, no all-pairs scan):
      1. explode per-doc DISTINCT shingle hashes (h, id, sz);
      2. bucketed fold on h: groups sized 2..df_cap self-merge
         vectorized into co-occurrence rows (id_a < id_b, sizes riding
         along) — a group of size s emits C(s,2) rows, bounded by the
         cap, so a hot shingle can never fan out quadratically;
      3. bucketed fold on the pair: shared = row count, then the
         integer filter shared * den >= num * min(size_a, size_b).

    Hot-pair contract (shared with ``setsim_prefix_join``): byte-equal
    duplicates pair on every shingle — exact-dedup upstream first."""
    num, den = threshold

    from .aggregate import bucketed_fold
    from .join import _arrow_schema

    id_type = _arrow_schema(ds.select_columns([id_column])).field(id_column).type
    empty_out = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
        "shared": pa.array([], pa.int64()),
        "size_a": pa.array([], pa.int64()),
        "size_b": pa.array([], pa.int64()),
    })
    empty_pair = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
        "size_a": pa.array([], pa.int64()),
        "size_b": pa.array([], pa.int64()),
    }).to_pandas()

    def explode(batch: pa.Table) -> pa.Table:
        keys, ids, szs = [], [], []
        for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                batch.column(text_column).to_pylist()):
            hashes = _setsim_doc_hashes(text, n)
            if hashes is None:
                continue
            keys.extend(int(h) for h in hashes)
            ids.extend([doc_id] * len(hashes))
            szs.extend([len(hashes)] * len(hashes))
        return pa.table({
            "h": pa.array(keys, pa.uint64()),
            id_column: pa.array(ids, type=batch.column(id_column).type),
            "sz": pa.array(szs, pa.int64()),
        })

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")

    def cooccur(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        g = g[(cnt >= 2) & (cnt <= df_cap)]
        if g.empty:
            return empty_pair
        m = g.merge(g, on="h", suffixes=("_a", "_b"))
        m = m[m[id_column + "_a"] < m[id_column + "_b"]]
        if m.empty:
            return empty_pair
        return pd.DataFrame({
            "id_a": m[id_column + "_a"].to_numpy(),
            "id_b": m[id_column + "_b"].to_numpy(),
            "size_a": m["sz_a"].to_numpy().astype(np.int64),
            "size_b": m["sz_b"].to_numpy().astype(np.int64)})

    co = bucketed_fold(exploded, "h", cooccur, n_buckets=n_buckets)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["id_a", "id_b"], sort=False).agg(
            shared=("size_a", "size"), size_a=("size_a", "first"),
            size_b=("size_b", "first")).reset_index()
        mn = np.minimum(out["size_a"].to_numpy(), out["size_b"].to_numpy())
        out = out[out["shared"].to_numpy() * den >= num * mn]
        out["shared"] = out["shared"].astype("int64")
        return out[["id_a", "id_b", "shared", "size_a", "size_b"]]

    verified = bucketed_fold(co, ["id_a", "id_b"], verify,
                             n_buckets=n_buckets)
    return ray.data.from_arrow(empty_out).union(verified)


def split_doc_pairs(ds, text_column: str, id_column: str, n: int = 3,
                    k: int = 8, min_common: int = 4, df_cap: int = 64,
                    n_buckets: int = 32):
    """Chunking-artifact detection: ordered pairs (id_a, id_b) where the
    TAIL of A continues as the HEAD of B — at least ``min_common`` of
    A's last-``k`` word-n-gram hashes appear among B's first-``k`` —
    the split-document signal (one logical page serialized as two crawl
    records) that symmetric whole-doc similarity misses entirely.

    Same exactness contract as ``containment_pairs``: shingle-hash
    groups with more than ``df_cap`` role rows are dropped before
    pairing (replayed identically in SQL), so a corpus-wide hot shingle
    can never fan out quadratically.  Plan: role-tagged boundary-
    shingle explode (2k rows per doc, payload never moves), one
    bucketed exchange on the hash pairing tails x heads, one pair-keyed
    count fold."""
    from .aggregate import bucketed_fold
    from .join import _arrow_schema

    id_type = _arrow_schema(ds.select_columns([id_column])).field(id_column).type
    empty_out = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
        "n_common": pa.array([], pa.int64()),
    })
    empty_pair = pa.table({
        "id_a": pa.array([], id_type),
        "id_b": pa.array([], id_type),
    }).to_pandas()

    def ordered_ngrams(text: str):
        toks = (text or "").lower().split()
        if not toks:
            return []
        if len(toks) < n:
            return [" ".join(toks)]
        return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]

    def explode(batch: pa.Table) -> pa.Table:
        keys, ids, roles = [], [], []
        for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                batch.column(text_column).to_pylist()):
            gs = ordered_ngrams(text)
            if not gs:
                continue
            for role, seg in ((0, gs[-k:]), (1, gs[:k])):
                for h in {T.md5_u64(s) for s in seg}:
                    keys.append(h)
                    ids.append(doc_id)
                    roles.append(role)
        return pa.table({
            "h": pa.array(keys, pa.uint64()),
            id_column: pa.array(ids, type=batch.column(id_column).type),
            "role": pa.array(roles, pa.int8()),
        })

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")

    def cooccur(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        g = g[(cnt >= 2) & (cnt <= df_cap)]
        if g.empty:
            return empty_pair
        tails = g[g["role"].to_numpy() == 0]
        heads = g[g["role"].to_numpy() == 1]
        m = tails.merge(heads, on="h", suffixes=("_a", "_b"))
        m = m[m[id_column + "_a"] != m[id_column + "_b"]]
        if m.empty:
            return empty_pair
        return pd.DataFrame({
            "id_a": m[id_column + "_a"].to_numpy(),
            "id_b": m[id_column + "_b"].to_numpy()})

    co = bucketed_fold(exploded, "h", cooccur, n_buckets=n_buckets)

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["id_a", "id_b"], sort=False).size() \
            .reset_index(name="n_common")
        out = out[out["n_common"].to_numpy() >= min_common]
        out["n_common"] = out["n_common"].astype("int64")
        return out

    verified = bucketed_fold(co, ["id_a", "id_b"], verify,
                             n_buckets=n_buckets)
    return ray.data.from_arrow(empty_out).union(verified)


# ------------------------------------------------- content-defined chunking

def content_defined_chunks(ds, id_column: str = "doc_id",
                           text_column: str = "text", window: int = 8,
                           base: int = 31, divisor: int = 32,
                           n_buckets: int = 32):
    """Content-defined chunking (CDC) storage-dedup audit: split every
    document at ROLLING-HASH boundaries (the rsync/casync/LBFS plan) and
    count, per document, how many chunk INSTANCES are duplicates of a
    chunk seen earlier in corpus order — the dedupable-bytes signal a
    storage layer reads before enabling chunk-level dedup.

    The boundary rule is position-local (a window-``window`` polynomial
    hash ``sum(code[p-j] * base**j) % divisor == 0``), so chunking
    RE-SYNCHRONIZES inside shared content regardless of differing
    prefixes — the property that makes CDC find shared boilerplate where
    fixed-size blocks cannot.  The hash is vectorized as one numpy
    convolution per document; chunk identity is ``md5_u64`` (= DuckDB
    ``md5_number_lower``), so the whole statistic is SQL-replayable
    (ASCII corpus assumed: SQL ``ascii(substr(..))`` is per CHARACTER,
    the kernel is per byte).

    Plan (the ``line_dedup`` two-exchange shape, join-free): explode to
    thin ``(id, instance_key, h)`` rows; ONE h-bucketed fold marks every
    instance that is not its hash's corpus-global first (min instance
    key) — key-complete buckets make the min exact; ONE per-doc combine
    folds ``(n_chunks, n_dup)``.  A hot chunk (boilerplate shared by
    every doc) concentrates at its own reducer as thin rows, never
    payload bytes."""
    from .aggregate import bucketed_combine, bucketed_fold

    weights = (base ** np.arange(window, dtype=np.int64))

    def chunk_hashes(text: str) -> list:
        codes = np.frombuffer(text.encode("utf-8"), dtype=np.uint8) \
            .astype(np.int64)
        n = codes.size
        if n == 0:
            return []
        cuts = []
        if n >= window:
            h = np.convolve(codes, weights)[window - 1:n]
            cuts = list((np.nonzero(h % divisor == 0)[0] + window).astype(int))
        if not cuts or cuts[-1] != n:
            cuts.append(n)
        out, prev = [], 0
        for c in cuts:
            out.append(T.md5_u64(text[prev:c]))
            prev = c
        return out

    def explode(t: pa.Table) -> pa.Table:
        ids, keys, hs = [], [], []
        for d, txt in zip(t.column(id_column).to_pylist(),
                          t.column(text_column).to_pylist()):
            for idx, h in enumerate(chunk_hashes(txt or "")):
                ids.append(d)
                keys.append((d << 20) | idx)
                hs.append(h)
        return pa.table({id_column: pa.array(ids, pa.int64()),
                         "ikey": pa.array(keys, pa.int64()),
                         "h": pa.array(hs, pa.uint64())})

    pairs = ds.select_columns([id_column, text_column]) \
        .map_batches(explode, batch_format="pyarrow")

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        first = g.groupby("h", sort=False)["ikey"].transform("min")
        return pd.DataFrame({
            id_column: g[id_column].to_numpy(np.int64),
            "dup": (g["ikey"].to_numpy() != first.to_numpy())
                   .astype(np.int64)})

    marked = bucketed_fold(pairs, "h", mark, n_buckets=n_buckets)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(id_column).aggregate([("dup", "sum"),
                                             ("dup", "count")])
        return pa.table({id_column: g.column(id_column),
                         "pd_": g.column("dup_sum"),
                         "pn_": g.column("dup_count")})

    partials = marked.map_batches(partial, batch_format="pyarrow")

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(id_column).aggregate([("pd_", "sum"), ("pn_", "sum")])
        return pa.table({
            id_column: g.column(id_column),
            "n_chunks": pc.cast(g.column("pn__sum"), pa.int64()),
            "n_dup": pc.cast(g.column("pd__sum"), pa.int64())})

    return bucketed_combine(partials, id_column, combine,
                            n_buckets=n_buckets)


def weighted_containment_pairs(ds, text_column: str, id_column: str,
                               n: int = 3, threshold=(2, 25),
                               df_cap: int = 64, n_buckets: int = 32):
    """TF-WEIGHTED containment near-dup join: pairs whose shared
    word-n-gram MASS ``sum_g min(tf_A(g), tf_B(g))`` clears a rational
    fraction of the smaller doc's TOTAL shingle mass.  The multiplicity-
    aware refinement of ``containment_pairs``: set containment counts a
    boilerplate block once however often it repeats, weighted containment
    counts the repeated MASS — the detector for template stuffing and
    repeated-quotation duplication.

    Exactness contract mirrors ``containment_pairs``: shingles whose
    DOCUMENT frequency exceeds ``df_cap`` are dropped before pairing
    (conservative undercount, replayed identically in SQL); the
    denominator stays each doc's FULL shingle-instance total
    (len(tokens) - n + 1), uncapped.

    Plan (two thin exchanges): explode per-doc (h, tf, total) rows —
    (doc, h) pre-aggregated batch-locally so the wire carries distinct
    shingles, not instances; h-bucketed fold self-merges groups of
    2..df_cap docs into pair rows carrying min(tf_a, tf_b); pair-bucketed
    fold sums the mass and applies the integer filter
    ``inter * den >= num * min(total_a, total_b)``."""
    num, den = threshold

    from collections import Counter

    from .aggregate import bucketed_fold
    from .curation import word_ngrams as _list_ngrams
    from .join import _arrow_schema

    id_type = _arrow_schema(ds.select_columns([id_column])) \
        .field(id_column).type
    empty_pair = pa.table({
        "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
        "mshared": pa.array([], pa.int64()),
        "total_a": pa.array([], pa.int64()),
        "total_b": pa.array([], pa.int64()),
    }).to_pandas()

    def explode(batch: pa.Table) -> pa.Table:
        keys, ids, tfs, tots = [], [], [], []
        for doc_id, text in zip(batch.column(id_column).to_pylist(),
                                batch.column(text_column).to_pylist()):
            sh = _list_ngrams(text or "", n)
            if not sh:
                continue
            c = Counter(T.md5_u64(s) for s in sh)
            keys.extend(c.keys())
            tfs.extend(c.values())
            ids.extend([doc_id] * len(c))
            tots.extend([len(sh)] * len(c))
        return pa.table({
            "h": pa.array(keys, pa.uint64()),
            id_column: pa.array(ids, id_type),
            "tf": pa.array(tfs, pa.int64()),
            "total": pa.array(tots, pa.int64()),
        })

    exploded = ds.select_columns([id_column, text_column]).map_batches(
        explode, batch_format="pyarrow")

    def cooccur(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby("h", sort=False)["h"].transform("size").to_numpy()
        g = g[(cnt >= 2) & (cnt <= df_cap)]
        if g.empty:
            return empty_pair
        m = g.merge(g, on="h", suffixes=("_a", "_b"))
        m = m[m[id_column + "_a"] < m[id_column + "_b"]]
        if m.empty:
            return empty_pair
        return pd.DataFrame({
            "id_a": m[id_column + "_a"].to_numpy(),
            "id_b": m[id_column + "_b"].to_numpy(),
            "mshared": np.minimum(m["tf_a"].to_numpy(),
                                  m["tf_b"].to_numpy()).astype(np.int64),
            "total_a": m["total_a"].to_numpy().astype(np.int64),
            "total_b": m["total_b"].to_numpy().astype(np.int64)})

    co = bucketed_fold(exploded, "h", cooccur, n_buckets=n_buckets)

    empty_verify = pa.table({
        "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
        "inter": pa.array([], pa.int64()),
        "total_a": pa.array([], pa.int64()),
        "total_b": pa.array([], pa.int64()),
    }).to_pandas()

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return empty_verify
        out = g.groupby(["id_a", "id_b"], sort=False).agg(
            inter=("mshared", "sum"), total_a=("total_a", "first"),
            total_b=("total_b", "first")).reset_index()
        keep = (out["inter"].to_numpy() * den
                >= num * np.minimum(out["total_a"].to_numpy(),
                                    out["total_b"].to_numpy()))
        out = out[keep]
        out["inter"] = out["inter"].astype("int64")
        return out[["id_a", "id_b", "inter", "total_a", "total_b"]]

    return bucketed_fold(co, ["id_a", "id_b"], verify, n_buckets=n_buckets)


# ------------------------------------------------------- span alignment

def dup_span_align(docs, key_col: str, id_column: str = "doc_id",
                   text_column: str = "text", k: int = 3,
                   n_buckets: int = 32):
    """Span-level ALIGNMENT of near-duplicate candidates: documents sharing
    a blocking key pair up, their word ``k``-gram position lists match on
    gram equality, and consecutive matches along each DIAGONAL
    (``i - j`` constant — the dotplot / BLAST-seed view of local
    alignment) form aligned runs.  Per pair: ``n_matches`` (all matched
    position pairs), ``max_run`` (longest consecutive diagonal run, i.e.
    the longest shared word window in gram units), ``best_diag`` (smallest
    diagonal achieving ``max_run`` — the offset between the copies).

    Near-dup detectors (MinHash, setsim) say THAT two docs overlap; this
    says WHERE and HOW LONG — the quotation/partial-copy forensics step.

    Plan: ONE bucketed exchange on the blocking key (full rows — the pair
    fold needs both texts); alignment is per-pair local inside the
    key-complete bucket.  Hot-key contract (the ``edit_distance_join``
    clause): a blocking key with c members emits C(c,2) pairs — block on a
    key tight enough that clusters are duplicate-cluster-sized."""
    from ..stages.lexicon import _tokens
    from .aggregate import bucketed_fold

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_n, out_run, out_diag = [], [], [], [], []
        for _, grp in g.groupby(key_col, sort=False):
            if len(grp) < 2:
                continue
            grp = grp.sort_values(id_column)
            ids = grp[id_column].tolist()
            grams = []
            for t in grp[text_column].tolist():
                ws = _tokens(t or "")
                grams.append([" ".join(ws[i:i + k])
                              for i in range(len(ws) - k + 1)])
            for x in range(len(ids)):
                pos_b: dict = {}
                for y in range(x + 1, len(ids)):
                    pos_b.clear()
                    for j, gram in enumerate(grams[y]):
                        pos_b.setdefault(gram, []).append(j)
                    diag_is: dict = {}
                    n_match = 0
                    for i, gram in enumerate(grams[x]):
                        for j in pos_b.get(gram, ()):
                            diag_is.setdefault(i - j, []).append(i)
                            n_match += 1
                    if not n_match:
                        continue
                    best_run, best_diag = 0, None
                    for diag in diag_is:
                        iis = diag_is[diag]  # strictly increasing
                        run = mx = 1
                        for t in range(1, len(iis)):
                            run = run + 1 if iis[t] == iis[t - 1] + 1 else 1
                            if run > mx:
                                mx = run
                        if mx > best_run or (mx == best_run
                                             and diag < best_diag):
                            best_run, best_diag = mx, diag
                    out_a.append(ids[x])
                    out_b.append(ids[y])
                    out_n.append(n_match)
                    out_run.append(best_run)
                    out_diag.append(best_diag)
        return pd.DataFrame({
            "a": pd.Series(out_a, dtype="int64"),
            "b": pd.Series(out_b, dtype="int64"),
            "n_matches": pd.Series(out_n, dtype="int64"),
            "max_run": pd.Series(out_run, dtype="int64"),
            "best_diag": pd.Series(out_diag, dtype="int64"),
        })

    return bucketed_fold(
        docs.select_columns([key_col, id_column, text_column]),
        key_col, fold, n_buckets=n_buckets)


# --------------------------------------------- sorted-neighborhood blocking

def sorted_neighborhood_pairs(ds, sort_cols, id_column: str,
                              window: int = 3, carry_cols=(),
                              bucket_size: int = 4096):
    """Sorted-Neighborhood Method (Hernandez/Stolfo) entity-resolution
    blocking: one global total order over ``sort_cols`` (must be per-row
    UNIQUE — add an id tie-break), then every record pairs with its
    ``window`` successors.  Output: one row per pair with ``dist`` (rank
    gap 1..window) and each carried column suffixed ``_a`` / ``_b``.

    Plan: ``global_row_number`` (one sort; driver holds one row per
    block), then banded replication — bucket ``rn // bucket_size`` owns
    each row, rows within ``window`` of a bucket's upper edge are ALSO
    copied to the next bucket, and a pair is emitted exactly once, by the
    bucket that OWNS its right element.  Row numbers are dense, so each
    bucket's rows form a contiguous rank range and pairing is a vectorized
    shift, never a scan.  Wire cost: one thin exchange of the carried
    columns; pairs-per-record is fixed at ``window`` regardless of key
    skew (the SNM advantage over equality blocking on hot keys)."""
    from .windows import global_row_number

    if bucket_size <= window:
        raise ValueError("bucket_size must exceed window")
    cols = list(dict.fromkeys(
        list(sort_cols) + [id_column] + list(carry_cols)))
    numbered = global_row_number(
        ds.select_columns(cols), sort_cols, out_column="__rn")
    B, w = bucket_size, window

    def route(t: pa.Table) -> pa.Table:
        rn = t.column("__rn").to_numpy()
        owned = t.append_column("__bkt", pa.array(rn // B, pa.int64()))
        tail = t.filter(pa.array((rn % B) >= B - w))
        if tail.num_rows == 0:
            return owned
        trn = tail.column("__rn").to_numpy()
        copies = tail.append_column("__bkt", pa.array(trn // B + 1, pa.int64()))
        return pa.concat_tables([owned, copies])

    exploded = numbered.map_batches(route, batch_format="pyarrow")
    out_cols = [id_column] + [c for c in carry_cols if c != id_column]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        bkt = int(g["__bkt"].iloc[0]) if len(g) else 0
        g = g.sort_values("__rn").reset_index(drop=True)
        rn = g["__rn"].to_numpy()
        if len(rn) > 1 and not (np.diff(rn) == 1).all():
            raise AssertionError(
                "sorted_neighborhood_pairs: non-contiguous rank range in "
                "bucket (row numbers must be dense)")
        frames = []
        for d in range(1, w + 1):
            if len(g) <= d:
                break
            left = g.iloc[:-d].reset_index(drop=True)
            right = g.iloc[d:].reset_index(drop=True)
            own = (right["__rn"].to_numpy() // B) == bkt
            if not own.any():
                continue
            part = {}
            for c in out_cols:
                part[c + "_a"] = left[c].to_numpy()[own]
                part[c + "_b"] = right[c].to_numpy()[own]
            part["dist"] = np.full(int(own.sum()), d, dtype=np.int64)
            frames.append(pd.DataFrame(part))
        if not frames:
            empty = {}
            for c in out_cols:
                empty[c + "_a"] = g[c].iloc[:0]
                empty[c + "_b"] = g[c].iloc[:0]
            empty["dist"] = pd.Series([], dtype="int64")
            return pd.DataFrame(empty)
        return pd.concat(frames, ignore_index=True)

    return exploded.groupby("__bkt").map_groups(fold, batch_format="pandas")
