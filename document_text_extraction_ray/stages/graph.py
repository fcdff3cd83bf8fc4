"""Iterative graph computation on Ray Data: integer-exact PageRank.

The dedup stack already has distributed connected components
(``dedup.cluster_pairs_distributed`` — min-label propagation with pointer
jumping); this module adds the other canonical iterative-join algorithm.
Everything is FIXED-POINT integer arithmetic (micro-units + floor
division) so a SQL replay reproduces every iteration bit for bit — float
PageRank diverges across engines at the ULP level because per-node
contribution sums are order-dependent.

Physical plan — TWO all-to-alls per iteration (measured: the naive
attach + sum + left-join plan costs three and ran 1.5x slower wall at
tiny scale, where fixed exchange costs dominate):
  1. attach each src's per-edge share (rank // out_deg, a THIN
     (node, share) table) onto the edge list, co-partitioned on src;
  2. union the (dst, share) contributions with a zero-share row per node
     that also carries out_deg, then ONE bucketed fold sums shares and
     recovers out_deg per node — every node is present (the zero row), so
     no join-back is needed for teleport-only nodes.
The share table is node-bounded and materialized per iteration (the same
call a 100-TB run makes — re-executing lineage would re-run every prior
iteration; at that scale the edge list should be a materialized/
checkpointed table too, not a lazy transform, or it re-reads per
iteration).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..util import materialize_compact

SCALE = 10**12  # fixed point: rank 1.0 == 10^12


def pagerank_int(edges, n_iters: int = 3, damping_pct: int = 85,
                 n_buckets: int = 16, src_col: str = "src",
                 dst_col: str = "dst", seeds=None):
    """Integer fixed-point PageRank over an edge Dataset (multi-edges
    count once per row).  Returns (node, rank) with rank in SCALE units;
    total rank <= SCALE (floor-division loss is deterministic).

    ``seeds`` turns this into TRUSTRANK (Gyongyi et al.): teleport mass
    goes ONLY to the seed nodes (uniformly), initial rank likewise — the
    canonical web-spam demotion ranking, where trust flows outward from
    a vetted seed set and pages unreachable from it converge to 0.  The
    seed set is POLICY-shaped (thousands of ids against a web-scale
    graph), so it rides the task closure as a sorted numpy array probed
    with np.isin per fold — never a shuffle side.

    Every node must appear as a src (no dangling-mass redistribution —
    synthesize self-loops upstream if the graph has sinks); nodes with no
    in-edges receive teleport only (seeds only, under TrustRank)."""
    from .aggregate import bucketed_fold, pre_aggregated_count
    from .join import attach_column

    # The edge list is consumed by the degree count AND every iteration's
    # attach join — a lazy lineage would re-run its upstream (read + edge
    # build) once per consumer, and a fragmented small read would fan
    # every exchange into tiny tasks.  Materialize-and-defragment once.
    edges = materialize_compact(edges.select_columns([src_col, dst_col]))

    # Node table + out-degrees (node-bounded, reused every iteration).
    deg = pre_aggregated_count(edges, src_col, alias="out_deg",
                               n_buckets=n_buckets)
    # Defragment: every iteration joins against this node table.
    deg = deg.repartition(4).materialize()
    n_nodes = deg.count()
    seed_arr = None
    if seeds is None:
        tele = (SCALE - damping_pct * SCALE // 100) // n_nodes
        r0 = SCALE // n_nodes
    else:
        seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), np.int64)
        if seed_arr.size == 0:
            raise ValueError("TrustRank needs a non-empty seed set")
        tele = (SCALE - damping_pct * SCALE // 100) // seed_arr.size
        r0 = SCALE // seed_arr.size

    def init_state(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return t
        nodes = t.column(src_col).to_numpy(zero_copy_only=False) \
                 .astype(np.int64)
        if seed_arr is None:
            ranks = np.full(t.num_rows, r0, np.int64)
        else:
            ranks = np.where(np.isin(nodes, seed_arr), r0, 0) \
                      .astype(np.int64)
        outd = t.column("out_deg").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
        return pa.table({
            "node": t.column(src_col),
            "out_deg": pa.array(outd, pa.int64()),
            "rank": pa.array(ranks, pa.int64()),
            "share": pa.array(ranks // outd, pa.int64()),
        })

    state = deg.map_batches(init_state, batch_format="pyarrow").materialize()
    edge_schema = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])

    for _ in range(n_iters):
        # (rename via an arrow map: Dataset.rename_columns chokes on the
        # pandas blocks the previous iteration's fold emitted)
        slim = state.map_batches(
            lambda t: pa.table({src_col: t.column("node"),
                                "share": t.column("share")}),
            batch_format="pyarrow",
        )
        contribs = attach_column(
            edges, slim,
            on=src_col, value_col="share", n_buckets=n_buckets,
            big_schema=edge_schema,
        ).map_batches(
            lambda t: pa.table({
                "node": t.column(dst_col),
                "share": t.column("share"),
                # null out_deg: recovered from the zero rows in the fold
                "out_deg": pa.nulls(t.num_rows, pa.int64()),
            }),
            batch_format="pyarrow",
        )
        zeros = state.map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "share": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                "out_deg": t.column("out_deg"),
            }),
            batch_format="pyarrow",
        )

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            a = g.groupby("node", sort=False).agg(
                s=("share", "sum"), out_deg=("out_deg", "max")).reset_index()
            s = a["s"].to_numpy().astype(np.int64)
            outd = a["out_deg"].to_numpy().astype(np.int64)
            if seed_arr is None:
                node_tele = tele
            else:
                node_tele = np.where(
                    np.isin(a["node"].to_numpy().astype(np.int64), seed_arr),
                    tele, 0).astype(np.int64)
            rank = node_tele + (damping_pct * s) // 100
            a["rank"] = rank
            a["share"] = rank // outd
            a["out_deg"] = outd
            return a[["node", "out_deg", "rank", "share"]]

        # Coalesce before materializing: the union+exchange multiplies
        # block count every iteration (measured 4 -> 88 -> 256 -> 592
        # blocks and 6.6 -> 17.6 -> 56.5 s/iter at 4 cpus without this —
        # thousands of near-empty blocks swamp the scheduler).  The state
        # table is node-bounded and thin, so the repartition is cheap.
        state = bucketed_fold(contribs.union(zeros), "node", fold,
                              n_buckets=n_buckets) \
            .repartition(n_buckets).materialize()

    return state.select_columns(["node", "rank"])


def triangle_count(edges, src_col: str = "src", dst_col: str = "dst",
                   n_buckets: int = 32):
    """Distributed triangle counting (node-iterator / compact-forward):
    the clustering-coefficient numerator over, e.g., a doc-similarity or
    co-occurrence graph — dense triangle neighborhoods are the classic
    template-spam signature in web corpora.

    Contract: ``edges`` must be DISTINCT and oriented ``src < dst``
    (dedup + orient upstream; orientation is what makes each triangle
    count exactly once and bounds the wedge fan-out by the FORWARD degree,
    the standard skew defense — a hub's wedges split across the ranks
    above it instead of exploding at the hub).

    Plan: one self-join on ``src`` builds wedges (u->v, u->w, v<w); one
    composite-key join closes them against the edge set (v,w).  Returns
    (node, n_triangles) counting each triangle at its MINIMUM node, via a
    thin pre-aggregated count.  Two join exchanges + one tiny combine;
    nothing materializes on the driver.  The edge table is MATERIALIZED
    once up front — three consumers (both wedge sides + the close) would
    each re-execute a lazy lineage."""
    from .aggregate import pre_aggregated_count
    from .join import partitioned_hash_join

    e = materialize_compact(edges.select_columns([src_col, dst_col]))

    wedges = partitioned_hash_join(e, e, on=src_col, n_buckets=n_buckets,
                                   suffix="_w")

    def orient(t: pa.Table) -> pa.Table:
        v = t.column(dst_col)
        w = t.column(f"{dst_col}_w")
        keep = pc.less(v, w)
        t = t.filter(keep)
        # Re-key the wedge endpoints as an edge (src, dst) = (v, w); the
        # pivot (minimum node) rides along for the per-node count.
        return pa.table({"pivot": t.column(src_col),
                         src_col: t.column(dst_col),
                         dst_col: t.column(f"{dst_col}_w")})

    wedges = wedges.map_batches(orient, batch_format="pyarrow")
    closed = partitioned_hash_join(wedges, e, on=[src_col, dst_col],
                                   n_buckets=n_buckets, suffix="_e")
    return pre_aggregated_count(closed, "pivot", alias="n_triangles",
                                n_buckets=min(n_buckets, 8))


HITS_NORM = 10**6  # hub/auth fixed point: score 1.0 == 10^6


def hits_int(edges, n_iters: int = 2, src_col: str = "src",
             dst_col: str = "dst", n_buckets: int = 16):
    """Integer-exact HITS (hubs & authorities) over an edge Dataset —
    the bipartite-reinforcement companion to ``pagerank_int``.  Each half
    step is: join the opposite score onto the edges (thin (node, score)
    table, co-partitioned attach), pre-aggregated sum, then SUM-normalize
    to ``HITS_NORM`` with floor division (a global scalar per half step —
    the one driver-sized value an iterative normalization needs).  All
    arithmetic stays under ~1e15, inside int64 (the classic SCALE=1e12
    normalization overflows int64 at the raw*scale product — that is why
    hub/auth use their own smaller fixed point).

    Returns (auth_ds, hub_ds): (node, auth) over distinct dst nodes and
    (node, hub) over distinct src nodes.  Only the UN-normalized sum table
    is materialized per half step (it is consumed twice: the scalar total
    and the next join); the floor-division normalization is a LAZY map
    over that node-bounded table, fused into the next half-step's join
    exchange — one fewer pipeline execution per half step (measured
    9.8 s -> ~7 s at sf0.01, all fixed per-execution overhead)."""
    from .aggregate import pre_aggregated_sum
    from .join import attach_column

    if n_iters < 1:
        raise ValueError("hits_int needs n_iters >= 1")

    # The edge list is consumed by every half step (2*n_iters joins) —
    # a lazy edges lineage would re-run its whole upstream (reads,
    # dedup exchanges) once per half step.  Same contract as
    # pagerank_int: materialize once.
    edges = materialize_compact(edges)

    def normed(raw, total, out_name: str):
        def norm(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return t
            v = t.column("raw").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                "node": t.column("node"),
                out_name: pa.array(v * HITS_NORM // total, pa.int64())})

        return raw.map_batches(norm, batch_format="pyarrow")

    def half_step(score_slim, join_on: str, group_on: str):
        if score_slim is None:
            # Iteration 1's hub scores are the CONSTANT HITS_NORM on every
            # src, so the first half step needs no score table and no
            # attach join at all: auth_raw = HITS_NORM * in_degree.  This
            # drops the up-front distinct-src groupby AND one join
            # exchange (measured ~3.6 s of pure fixed cost at sf0.1).
            def const(t: pa.Table) -> pa.Table:
                return t.append_column("__score", pa.array(
                    np.full(t.num_rows, HITS_NORM, np.int64)))

            ej = edges.map_batches(const, batch_format="pyarrow")
        else:
            ej = attach_column(edges, score_slim.map_batches(
                lambda t: t if t.num_columns == 0 else t.rename_columns(
                    [join_on, "__score"]),
                batch_format="pyarrow"), on=join_on, value_col="__score",
                n_buckets=n_buckets)
        raw = pre_aggregated_sum(ej, group_on, "__score",
                                 n_buckets=n_buckets)
        # Defragment: the next half step joins against this node table.
        raw = raw.map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {"node": t.column(group_on), "raw": t.column("sum___score")}),
            batch_format="pyarrow").repartition(4).materialize()
        return raw, raw.sum("raw")

    araw = atot = None
    hub_slim = None  # iteration 1: constant HITS_NORM per src (see above)
    for _ in range(n_iters):
        araw, atot = half_step(hub_slim, src_col, dst_col)
        hraw, htot = half_step(normed(araw, atot, "__score"),
                               dst_col, src_col)
        hub_slim = normed(hraw, htot, "__score")
    return normed(araw, atot, "auth"), normed(hraw, htot, "hub")


def kcore_int(edges, k: int, src_col: str = "src", dst_col: str = "dst",
              n_buckets: int = 16, max_iters: int = 32,
              local_finish_edges: int = 2_000_000):
    """k-CORE decomposition by iterative peeling: repeatedly delete nodes
    of degree < k (and their incident edges) until fixpoint; returns the
    surviving (node, degree) table — degree measured INSIDE the core.
    Input must be a SYMMETRIZED, de-duplicated edge list (u->v and v->u
    both present, no multi-edges), so out-degree == undirected degree.

    Physical plan per round: TWO chained full-edge bucketed folds (group
    by src: drop every src group smaller than k; then the same by dst),
    ONE pipeline execution + materialize; convergence is the (free,
    post-materialize) edge count.  The dst pass sees the src pass's
    output rather than the round-start edge set — legitimate because the
    k-core is UNIQUE under any peel order (removing a node of degree < k
    can never raise another node's degree), so asynchronous peeling
    reaches the same fixpoint, usually in fewer rounds (measured 17 s ->
    ~7 s at n=500/depth-3 vs the synchronized degree-exchange +
    two-semi-join plan: 4 executions/round collapsed into 1).  Rounds are
    bounded by the peeling cascade depth, NOT node count (each round
    peels a whole shell vectorized); the node set is never
    driver-collected (survivors can be corpus-sized).

    Size-adaptive tail (``local_finish_edges``): once the surviving edge
    table fits one task's heap (count is free post-materialize), the
    remaining cascade peels to FIXPOINT inside a single map task — deep
    pendant-path cascades stop paying one distributed exchange per shell.
    The k-core is peel-order-unique, so the local fixpoint equals the
    distributed one (equivalence-tested with the threshold forced to 0).
    At 100 TB the early distributed rounds shed the leaf mass; the tail
    fires only when survivors are genuinely small.  Set to 0 to disable."""
    from .aggregate import bucketed_fold, pre_aggregated_count

    def peel_pass(ds, key_col):
        def fold(g: pd.DataFrame) -> pd.DataFrame:
            return g[g.groupby(key_col)[key_col].transform("size") >= k]

        return bucketed_fold(ds, key_col, fold, n_buckets=n_buckets)

    def local_peel(g: pd.DataFrame) -> pd.DataFrame:
        while len(g):
            nxt = g[g.groupby(src_col)[src_col].transform("size") >= k]
            nxt = nxt[nxt.groupby(dst_col)[dst_col].transform("size") >= k]
            if len(nxt) == len(g):
                break
            g = nxt
        return g

    cur = materialize_compact(edges.select_columns([src_col, dst_col]))
    n_edges = cur.count()
    for _ in range(max_iters):
        if n_edges == 0:
            break
        if local_finish_edges and n_edges <= local_finish_edges:
            cur = bucketed_fold(
                cur.map_batches(
                    lambda t: t.append_column(
                        "__one", pa.array(np.zeros(t.num_rows, np.int8))),
                    batch_format="pyarrow"),
                "__one", lambda g: local_peel(g[[src_col, dst_col]]),
                n_buckets=1).materialize()
            break
        nxt = peel_pass(peel_pass(cur, src_col), dst_col).materialize()
        n_next = nxt.count()
        if n_next == n_edges:
            break
        cur, n_edges = nxt, n_next
    return pre_aggregated_count(cur, src_col, alias="degree",
                                n_buckets=n_buckets).map_batches(
        lambda t: t if t.num_columns == 0 else t.rename_columns(
            ["node", "degree"]),
        batch_format="pyarrow")


def bfs_hops(edges, seeds, max_hops: int = 4,
             src_col: str = "src", dst_col: str = "dst",
             n_buckets: int = 16):
    """Multi-source BFS shortest-hop labels: dist(node) = minimum number
    of edges from any seed, computed by frontier expansion (the distance
    sibling of min-label connected components — crawl-depth from seed
    hosts, blast-radius from flagged accounts).  Input must contain BOTH
    directions for undirected semantics.

    Per hop, TWO exchanges total: (1) the frontier joins the edge list on
    src (one distributed hash join); (2) neighbor dedup AND the
    already-labeled anti-filter fuse into ONE side-tagged bucketed fold —
    raw neighbor rows (side 0) union the accumulated label nodes (side 1)
    bucket on node, and a bucket keeps one row per node whose side-max is
    0.  BFS guarantees the first reach IS the minimum distance, so no
    re-labeling pass exists.  Labels are node-bounded and materialized
    per hop (the pagerank/HITS lesson: lazy lineage re-executes every
    prior round; the post-materialize count is the free convergence
    probe).  Stops early when a frontier empties.  Returns (node, dist).
    The edge list re-ships every hop — at real scale feed a MATERIALIZED
    (or bucket-stored, see ``stages/storage.py``) edge table."""
    import ray.data as rd

    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    edges = edges.select_columns([src_col, dst_col])
    labels = rd.from_items(
        [{"node": s, "dist": 0} for s in seeds]).materialize()
    frontier = labels.select_columns(["node"]).materialize()

    left_schema = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])
    right_schema = pa.schema([(src_col, pa.int64())])

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return t
            col = dst_col if side == 0 else "node"
            return pa.table({
                "node": t.column(col),
                "side": pa.array(np.full(t.num_rows, side, np.int8)),
            })
        return f

    def fresh_fold(g: pd.DataFrame) -> pd.DataFrame:
        mx = g.groupby("node", sort=False)["side"].transform("max")
        return g.loc[mx == 0, ["node"]].drop_duplicates("node")

    for h in range(1, max_hops + 1):
        fr = frontier.map_batches(
            lambda t: t if t.num_columns == 0 else t.rename_columns(
                [src_col]),
            batch_format="pyarrow")
        # Coalesced + materialized per hop: frontier-adjacency-bounded.
        # Without the repartition the join emits ~n_buckets x input-block
        # tiny UNKNOWN-SIZE blocks and the downstream groupby plans them
        # at target block size (measured: a "6 GB driver memory" shuffle
        # estimate and 120 s folds for 20k rows); 8 known blocks plan
        # correctly (hop cost 2-3 s total).
        nbrs = partitioned_hash_join(
            edges, fr, on=src_col, n_buckets=n_buckets,
            left_schema=left_schema, right_schema=right_schema,
        ).map_batches(tag(0), batch_format="pyarrow") \
            .repartition(8).materialize()
        seen = labels.select_columns(["node"]).map_batches(
            tag(1), batch_format="pyarrow")
        fresh = bucketed_fold(nbrs.union(seen), "node", fresh_fold,
                              n_buckets=n_buckets)
        new_labels = fresh.map_batches(
            lambda t, _h=h: t if t.num_columns == 0 else t.append_column(
                "dist", pa.array(np.full(t.num_rows, _h, np.int64))),
            batch_format="pyarrow")
        new_labels = new_labels.materialize()
        if new_labels.count() == 0:
            break
        # repartition keeps the label table's block count flat across
        # hops (union chains accumulate blocks otherwise).
        labels = labels.union(new_labels).repartition(4).materialize()
        frontier = new_labels.select_columns(["node"]).materialize()

    return labels


def lpa_communities(edges, n_iters: int = 3, src_col: str = "src",
                    dst_col: str = "dst", n_buckets: int = 16):
    """Synchronous LABEL PROPAGATION community detection (Raghavan et
    al.), fully deterministic: every node adopts the most frequent label
    among its in-neighbors each round (ties -> smallest label; input
    should be symmetrized for undirected semantics).  Communities differ
    from connected components: a 1-edge bridge between two cliques
    cannot outvote 7 intra-clique neighbors, so cliques keep distinct
    labels where min-label CC would merge them.

    Per round TWO exchanges: (1) labels attach to the edge list on src
    (distributed hash join); (2) ONE bucketed fold on dst computes the
    per-node label mode.  Isolated/teleport-free handling without an
    anti-join: every node contributes a WEIGHT-0 row of its own label,
    which wins only when no neighbor rows exist.  Labels are node-bounded
    and materialized per round.  Fixed ``n_iters`` (the SQL oracle
    unrolls the same rounds).  Returns (node, label)."""
    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    edges = materialize_compact(edges.select_columns([src_col, dst_col]))

    def node_partial(t: pa.Table) -> pa.Table:
        both = pa.concat_tables([
            pa.table({"node": t.column(src_col)}),
            pa.table({"node": t.column(dst_col)})])
        return both.group_by("node").aggregate([])

    labels = bucketed_fold(
        edges.map_batches(node_partial, batch_format="pyarrow"),
        "node", lambda g: g.drop_duplicates("node"),
        n_buckets=n_buckets).map_batches(
        lambda t: t if t.num_columns == 0 else t.append_column(
            "label", t.column("node")),
        batch_format="pyarrow").repartition(8).materialize()

    ls = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])
    rs = pa.schema([(src_col, pa.int64()), ("label", pa.int64())])

    def mode_fold(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(["node", "label"], sort=False)["n"].sum() \
            .reset_index()
        per = per.sort_values(["n", "label"],
                              ascending=[False, True], kind="mergesort")
        return per.drop_duplicates("node")[["node", "label"]]

    for _ in range(n_iters):
        lab_src = labels.map_batches(
            lambda t: t if t.num_columns == 0 else t.rename_columns(
                [src_col, "label"]),
            batch_format="pyarrow")
        contrib = partitioned_hash_join(
            edges, lab_src, on=src_col, n_buckets=n_buckets,
            left_schema=ls, right_schema=rs,
        ).map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {"node": t.column(dst_col), "label": t.column("label"),
                 "n": pa.array(np.ones(t.num_rows, np.int64))}),
            batch_format="pyarrow").repartition(8).materialize()
        selfrows = labels.map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {"node": t.column("node"), "label": t.column("label"),
                 "n": pa.array(np.zeros(t.num_rows, np.int64))}),
            batch_format="pyarrow")
        labels = bucketed_fold(
            contrib.union(selfrows), "node", mode_fold,
            n_buckets=n_buckets).repartition(8).materialize()

    return labels


def earliest_arrival(edges, seeds, n_rounds: int = 4,
                     src_col: str = "src", dst_col: str = "dst",
                     ts_col: str = "ts", n_buckets: int = 16):
    """TIME-RESPECTING reachability (temporal BFS): arr(node) = the
    earliest time the node can be reached from any seed along a path
    whose edge timestamps never decrease — information-flow /
    contagion analysis where plain BFS overcounts (an edge that fired
    BEFORE you arrived cannot carry you).  Seeds start at arr = 0.

    Per round: arrivals join the edge list on src (one distributed
    join), candidates keep edges with ts >= arr(src) and propose
    arr(dst) = ts; ONE bucketed min-fold merges candidates with the
    standing arrivals (min is idempotent — no anti-join, no dedup).
    Fixed ``n_rounds`` (the oracle unrolls the same rounds; a round
    without improvements is a no-op).  State is node-bounded,
    coalesced + materialized per round (the bfs_hops block-count
    lesson).  Returns (node, arr)."""
    import ray.data as rd

    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    edges = materialize_compact(edges.select_columns([src_col, dst_col, ts_col]))
    arrivals = rd.from_items(
        [{"node": s, "arr": 0} for s in seeds]).materialize()

    ls = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64()),
                    (ts_col, pa.int64())])
    rs = pa.schema([(src_col, pa.int64()), ("arr", pa.int64())])

    def min_fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=False, as_index=False)["arr"].min()

    for _ in range(n_rounds):
        arr_src = arrivals.map_batches(
            lambda t: t if t.num_columns == 0 else t.rename_columns(
                [src_col, "arr"]),
            batch_format="pyarrow")
        cand = partitioned_hash_join(
            edges, arr_src, on=src_col, n_buckets=n_buckets,
            left_schema=ls, right_schema=rs,
        ).map_batches(
            lambda t: t if t.num_columns == 0 else (lambda m: pa.table(
                {"node": t.filter(m).column(dst_col),
                 "arr": t.filter(m).column(ts_col)}))(
                pc.greater_equal(t.column(ts_col), t.column("arr"))),
            batch_format="pyarrow").repartition(8).materialize()
        arrivals = bucketed_fold(
            cand.union(arrivals), "node", min_fold,
            n_buckets=n_buckets).repartition(4).materialize()

    return arrivals


def degree_assortativity_sums(edges, src_col: str = "src",
                              dst_col: str = "dst", n_buckets: int = 16):
    """Degree-ASSORTATIVITY sufficient statistics, integer-exact: over
    every (directed) edge, with du = out-degree(src) and dv =
    in-degree(dst), the five sums (n_edges, Σdu, Σdv, Σdu·dv, Σdu²+Σdv²
    split) that assemble the Pearson degree-correlation — do hubs link to
    hubs (assortative, r>0, social graphs) or to leaves (disassortative,
    r<0, the web)?  Consumers form r from the integer sums; no float
    leaves the engine.

    Plan: two thin degree tables (pre-aggregated counts), each attached
    to the edge list by ONE hash join on its own end, then a fixed-width
    sum partial + single-row fold.  Returns one row
    (n_edges, s_du, s_dv, s_dudv, s_du2, s_dv2)."""
    from .aggregate import pre_aggregated_count
    from .join import partitioned_hash_join

    e = materialize_compact(edges.select_columns([src_col, dst_col]))
    # Defragment: each degree table is joined onto every edge.
    outd = pre_aggregated_count(e, src_col, alias="du",
                                n_buckets=n_buckets).repartition(4)
    ind = pre_aggregated_count(e, dst_col, alias="dv",
                               n_buckets=n_buckets).repartition(4)

    es = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])
    os_ = pa.schema([(src_col, pa.int64()), ("du", pa.int64())])
    with_du = partitioned_hash_join(e, outd, on=src_col,
                                    n_buckets=n_buckets,
                                    left_schema=es, right_schema=os_) \
        .repartition(8).materialize()
    ds_ = pa.schema([(dst_col, pa.int64()), ("dv", pa.int64())])
    ws = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64()),
                    ("du", pa.int64())])
    both = partitioned_hash_join(with_du, ind, on=dst_col,
                                 n_buckets=n_buckets,
                                 left_schema=ws, right_schema=ds_)

    def partial(t: pa.Table) -> pa.Table:
        du = np.asarray(t.column("du"), dtype=np.int64)
        dv = np.asarray(t.column("dv"), dtype=np.int64)
        return pa.table({
            "n_edges": pa.array([len(du)], pa.int64()),
            "s_du": pa.array([int(du.sum())], pa.int64()),
            "s_dv": pa.array([int(dv.sum())], pa.int64()),
            "s_dudv": pa.array([int((du * dv).sum())], pa.int64()),
            "s_du2": pa.array([int((du * du).sum())], pa.int64()),
            "s_dv2": pa.array([int((dv * dv).sum())], pa.int64()),
        })

    def total(t: pa.Table) -> pa.Table:
        cols = ["n_edges", "s_du", "s_dv", "s_dudv", "s_du2", "s_dv2"]
        return pa.table({
            c: pa.array([int(np.asarray(t.column(c)).sum())], pa.int64())
            for c in cols})

    return both.map_batches(partial, batch_format="pyarrow") \
        .repartition(1).map_batches(total, batch_format="pyarrow")


def _as_arrays(col):
    """List of plain Arrays from a cast column (ChunkedArray or Array)."""
    c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return list(c.chunks) if isinstance(c, pa.ChunkedArray) else [c]


def clustering_coefficient(edges, src_col: str = "src",
                           dst_col: str = "dst", n_buckets: int = 32):
    """Per-node local clustering coefficient as EXACT INTEGER sufficient
    statistics: for each node v, ``n_triangles`` (triangles containing v)
    and degree — the coefficient is 2*T(v) / (deg*(deg-1)), and the
    returned ``cc_numer`` / ``cc_denom`` columns carry exactly those
    integers so a SQL replay hash-matches without float division.  The
    per-node refinement of ``triangle_count`` (which credits each triangle
    only at its minimum node): here every closed wedge credits ALL THREE
    corners.

    Contract (same as ``triangle_count``): ``edges`` DISTINCT and oriented
    ``src < dst``; forward-degree orientation bounds the wedge fan-out.
    Plan: wedge self-join on the pivot, composite-key close against the
    edge set, explode each triangle to its 3 corners into a thin
    pre-aggregated count; degrees from an endpoint explode + count; one
    final bucketed fold merges the two node-bounded count tables.
    Isolated coefficients for degree-1 nodes are undefined — they emit
    ``cc_denom`` 0 (callers must not divide).

    The edge table is MATERIALIZED once up front: it feeds FOUR consumers
    (both wedge-join sides, the closing join, the degree count) and a
    lazy lineage would re-execute its upstream per consumer (the
    pagerank/HITS/walks lesson)."""
    from .aggregate import bucketed_fold, pre_aggregated_count
    from .join import partitioned_hash_join

    e = materialize_compact(edges.select_columns([src_col, dst_col]))

    wedges = partitioned_hash_join(e, e, on=src_col, n_buckets=n_buckets,
                                   suffix="_w")

    def orient(t: pa.Table) -> pa.Table:
        keep = pc.less(t.column(dst_col), t.column(f"{dst_col}_w"))
        t = t.filter(keep)
        return pa.table({"pivot": t.column(src_col),
                         src_col: t.column(dst_col),
                         dst_col: t.column(f"{dst_col}_w")})

    wedges = wedges.map_batches(orient, batch_format="pyarrow")
    closed = partitioned_hash_join(wedges, e, on=[src_col, dst_col],
                                   n_buckets=n_buckets, suffix="_e")

    def corners(t: pa.Table) -> pa.Table:
        chunks = []
        for c in ("pivot", src_col, dst_col):
            chunks.extend(_as_arrays(pc.cast(t.column(c), pa.int64())))
        return pa.table({"node": pa.concat_arrays(chunks)})

    tri = pre_aggregated_count(
        closed.map_batches(corners, batch_format="pyarrow"),
        "node", alias="cnt", n_buckets=n_buckets)

    def endpoints(t: pa.Table) -> pa.Table:
        a = _as_arrays(pc.cast(t.column(src_col), pa.int64()))
        b = _as_arrays(pc.cast(t.column(dst_col), pa.int64()))
        return pa.table({"node": pa.concat_arrays(a + b)})

    deg = pre_aggregated_count(
        e.map_batches(endpoints, batch_format="pyarrow"),
        "node", alias="cnt", n_buckets=n_buckets)

    def tag(is_tri: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            z = pa.array(np.zeros(n, np.int64), pa.int64())
            c = pc.cast(t.column("cnt"), pa.int64())
            return pa.table({"node": t.column("node"),
                             "n_triangles": c if is_tri else z,
                             "degree": z if is_tri else c})
        return f

    both = tri.map_batches(tag(1), batch_format="pyarrow").union(
        deg.map_batches(tag(0), batch_format="pyarrow"))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("node", sort=False).agg(
            n_triangles=("n_triangles", "sum"),
            degree=("degree", "sum")).reset_index()
        d = a["degree"].to_numpy().astype(np.int64)
        a["cc_numer"] = 2 * a["n_triangles"].astype("int64")
        a["cc_denom"] = d * (d - 1)
        return a[["node", "degree", "n_triangles", "cc_numer", "cc_denom"]]

    return bucketed_fold(both, "node", fold, n_buckets=min(n_buckets, 8))


def common_neighbor_pairs(edges, min_common: int = 2,
                          src_col: str = "src", dst_col: str = "dst",
                          n_buckets: int = 32):
    """Link prediction by common-neighbor counting: for every NON-adjacent
    node pair (v, w) with at least ``min_common`` shared neighbors, emit
    (v, w, n_common) — the classic missing-link score (Liben-Nowell &
    Kleinberg), and the 2-hop recommendation primitive ("users who share
    k neighbors").

    Contract: ``edges`` DISTINCT and oriented ``src < dst``; node ids must
    fit in int32 ranges (the pair anti-join keys pack as v * 2^32 + w).
    Hub hazard: wedge fan-out is quadratic in UNDIRECTED degree at the
    pivot (unlike the triangle plan, both directions must expand —
    common-neighborhood is symmetric), so cap or pre-filter hot nodes
    upstream for power-law graphs.

    Plan: symmetrize the adjacency (union both directions), self-join on
    the pivot, per-batch pair-count partials, ONE bucketed tuple combine
    with the ``min_common`` threshold applied inside the fold (thins the
    anti-join input), then a distributed anti-join against the packed
    edge keys removes already-adjacent pairs."""
    from .aggregate import bucketed_fold
    from .join import anti_join, partitioned_hash_join

    # Materialized: consumed by the adjacency build AND the edge-key
    # anti-join side.
    e = materialize_compact(edges.select_columns([src_col, dst_col]))

    def sym(t: pa.Table) -> pa.Table:
        a = _as_arrays(pc.cast(t.column(src_col), pa.int64()))
        b = _as_arrays(pc.cast(t.column(dst_col), pa.int64()))
        return pa.table({"u": pa.concat_arrays(a + b),
                         "nb": pa.concat_arrays(b + a)})

    # Materialized: both wedge sides consume it (lazy would re-execute).
    adj = e.map_batches(sym, batch_format="pyarrow").materialize()
    wedges = partitioned_hash_join(adj, adj, on="u", n_buckets=n_buckets,
                                   suffix="_w")

    def pair_partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column("nb"), dtype=np.int64)
        w = np.asarray(t.column("nb_w"), dtype=np.int64)
        keep = v < w
        g = pa.table({"v": pa.array(v[keep], pa.int64()),
                      "w": pa.array(w[keep], pa.int64())}) \
            .group_by(["v", "w"]).aggregate([([], "count_all")])
        return pa.table({"v": g.column("v"), "w": g.column("w"),
                         "pn": pc.cast(g.column("count_all"), pa.int64())})

    partials = wedges.map_batches(pair_partial, batch_format="pyarrow")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["v", "w"], sort=False)["pn"].sum().reset_index()
        out = out.rename(columns={"pn": "n_common"})
        out["n_common"] = out["n_common"].astype("int64")
        out = out[out["n_common"] >= min_common]
        out["pair_key"] = (out["v"].to_numpy().astype(np.int64) << 32) \
            + out["w"].to_numpy().astype(np.int64)
        return out[["pair_key", "v", "w", "n_common"]]

    cands = bucketed_fold(partials, ["v", "w"], combine,
                          n_buckets=n_buckets)

    def edge_keys(t: pa.Table) -> pa.Table:
        a = np.asarray(pc.cast(t.column(src_col), pa.int64()))
        b = np.asarray(pc.cast(t.column(dst_col), pa.int64()))
        return pa.table({"pair_key": pa.array((a << 32) + b, pa.int64())})

    ek = e.map_batches(edge_keys, batch_format="pyarrow")
    cand_schema = pa.schema([("pair_key", pa.int64()), ("v", pa.int64()),
                             ("w", pa.int64()), ("n_common", pa.int64())])
    out = anti_join(cands, ek, on="pair_key",
                    n_buckets=min(n_buckets, 16), left_schema=cand_schema)
    return out.drop_columns(["pair_key"])


def bellman_ford_int(edges, seeds, n_rounds: int = 4,
                     src_col: str = "src", dst_col: str = "dst",
                     w_col: str = "w", n_buckets: int = 16):
    """Bounded-round single-source(-set) WEIGHTED shortest paths:
    ``n_rounds`` Bellman-Ford relaxations over integer edge weights —
    dist(node) = cheapest path cost from any seed using at most
    ``n_rounds`` edges.  The weighted companion of ``bfs_hops`` (hop
    counts) and ``earliest_arrival`` (temporal constraint): crawl-cost /
    latency / routing analysis where edges are NOT unit cost.

    Per round: the standing distances join the edge list on src (one
    distributed join), every edge proposes dist(src) + w for its dst,
    ONE bucketed min-fold merges proposals with the standing table (min
    is idempotent — no frontier bookkeeping needed; a round without
    improvements is a no-op, exactly what the unrolled SQL replays).
    Negative weights are rejected (bounded-round semantics would expose
    order dependence on negative cycles).  State is node-bounded,
    coalesced + materialized per round (the bfs_hops block-count
    lesson).  Returns (node, dist)."""
    import ray.data as rd

    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    def check_w(t: pa.Table) -> pa.Table:
        w = np.asarray(pc.cast(t.column(w_col), pa.int64()))
        if (w < 0).any():
            raise ValueError("bellman_ford_int requires non-negative "
                             "integer weights")
        return pa.table({src_col: t.column(src_col),
                         dst_col: t.column(dst_col),
                         w_col: pa.array(w, pa.int64())})

    edges = edges.select_columns([src_col, dst_col, w_col]).map_batches(
        check_w, batch_format="pyarrow").materialize()
    dists = rd.from_items(
        [{"node": s, "dist": 0} for s in seeds]).materialize()

    ls = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64()),
                    (w_col, pa.int64())])
    rs = pa.schema([(src_col, pa.int64()), ("dist", pa.int64())])

    def min_fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=False, as_index=False)["dist"].min()

    for _ in range(n_rounds):
        d_src = dists.map_batches(
            lambda t: t if t.num_columns == 0 else t.rename_columns(
                [src_col, "dist"]),
            batch_format="pyarrow")
        cand = partitioned_hash_join(
            edges, d_src, on=src_col, n_buckets=n_buckets,
            left_schema=ls, right_schema=rs,
        ).map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {"node": t.column(dst_col),
                 "dist": pc.add(t.column("dist"), t.column(w_col))}),
            batch_format="pyarrow").repartition(8).materialize()
        dists = bucketed_fold(
            cand.union(dists), "node", min_fold,
            n_buckets=n_buckets).repartition(4).materialize()

    return dists


def modularity_stats(edges, labels, node_col: str = "node",
                     label_col: str = "comm", src_col: str = "src",
                     dst_col: str = "dst", node_type=None, comm_type=None,
                     n_buckets: int = 32):
    """Per-community Newman-modularity sufficient statistics over an
    undirected edge list (each edge once) and a (node, community) label
    table: ``in_edges`` = edges whose endpoints share the community,
    ``deg_sum`` = sum of member degrees (endpoint incidences).  Newman
    Q = sum_c [ in_c/m - (deg_c/(2m))^2 ] is a pure function of these
    rows plus the global edge count m — everything here stays integer,
    so the partition-quality report is hash-exact and a SQL replay
    matches bit for bit (float modularity is order-dependent).

    Plan: the label table is corpus-shaped (one row per node), so it is
    JOINED, not broadcast — one bucketed hash join per endpoint (the
    attribute-attach pattern pagerank/BFS use for state), then per-batch
    community count partials and one tiny comm-bucketed combine.  Wire
    cost after the two joins is O(#communities x n_batches).
    Communities never touched by an edge do not appear (an all-isolated
    community has in = deg = 0)."""
    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    node_type = node_type or pa.int64()
    comm_type = comm_type or pa.string()

    # Both inputs feed a chain of two bucketed joins whose exchange cost
    # is proportional to INPUT BLOCK COUNT; a small fragmented read (64
    # row-scarce blocks) snowballs into hundreds of tiny sort/reduce
    # tasks (measured 11.4 s for 9,850 edges).  materialize_compact
    # defragments only when blocks are row-scarce — a large well-blocked
    # table passes straight through, keeping the plan streaming-shaped.
    e = materialize_compact(edges.select_columns([src_col, dst_col]))
    labels = materialize_compact(labels)
    lsrc = labels.map_batches(
        lambda t: pa.table({src_col: t.column(node_col),
                            "comm_src": t.column(label_col)}),
        batch_format="pyarrow")
    ldst = labels.map_batches(
        lambda t: pa.table({dst_col: t.column(node_col),
                            "comm_dst": t.column(label_col)}),
        batch_format="pyarrow")

    j1 = partitioned_hash_join(
        e, lsrc, on=src_col, n_buckets=n_buckets,
        left_schema=pa.schema([(src_col, node_type), (dst_col, node_type)]),
        right_schema=pa.schema([(src_col, node_type),
                                ("comm_src", comm_type)]))
    j2 = partitioned_hash_join(
        j1, ldst, on=dst_col, n_buckets=n_buckets,
        left_schema=pa.schema([(src_col, node_type), (dst_col, node_type),
                               ("comm_src", comm_type)]),
        right_schema=pa.schema([(dst_col, node_type),
                                ("comm_dst", comm_type)]))

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"comm": pa.array([], comm_type),
                             "p_in": pa.array([], pa.int64()),
                             "p_deg": pa.array([], pa.int64())})
        cs = t.column("comm_src").to_pandas()
        cd = t.column("comm_dst").to_pandas()
        deg = pd.concat([cs, cd], ignore_index=True).value_counts()
        inn = cs[(cs == cd).to_numpy()].value_counts()
        out = pd.DataFrame({"comm": deg.index.to_numpy(),
                            "p_deg": deg.to_numpy().astype(np.int64)})
        out["p_in"] = out["comm"].map(inn).fillna(0).astype(np.int64)
        return pa.Table.from_pandas(out[["comm", "p_in", "p_deg"]],
                                    preserve_index=False)

    partials = j2.map_batches(partial, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("comm", sort=False).agg(
            in_edges=("p_in", "sum"), deg_sum=("p_deg", "sum")).reset_index()
        out["in_edges"] = out["in_edges"].astype("int64")
        out["deg_sum"] = out["deg_sum"].astype("int64")
        return out

    return bucketed_fold(partials, "comm", fold, n_buckets=min(n_buckets, 8))


def deterministic_walks(edges, seeds, n_steps: int = 3,
                        src_col: str = "src", dst_col: str = "dst",
                        n_buckets: int = 16, plan: str = "broadcast"):
    """Walk-corpus generation (the node2vec/DeepWalk input step) with a
    DETERMINISTIC next-step rule: from the current node the walk moves
    to the neighbor minimizing md5_u64("cur:dst:step") — a hash-seeded
    pseudo-random choice every engine replays bit-for-bit (DuckDB:
    ``md5_number_lower`` over the same string; real pipelines swap in a
    seeded RNG, the distributed plan is identical).  Input must carry
    BOTH directions for undirected semantics; dead-end walks stop early.

    ``plan="broadcast"`` (default): the walk state is SEED-BOUNDED (one
    row per surviving walk — seeds arrive as a driver list, so driver
    state is input-bounded by contract), so each step broadcasts the
    cur->walks map via ``ray.put`` and runs ONE exchange-free edge scan
    emitting per-batch PARTIAL argmins (<= n_walks rows per block);
    the driver finishes the tiny argmin.  Measured at sf0.1/32 cpus:
    ~14 s (join plan) -> ~6 s.  ``plan="join"`` keeps the two-exchange
    join + bucketed-fold rounds for CORPUS-SHAPED seed sets (walks from
    every node) where per-step driver state would be unbounded; the
    edge list is MATERIALIZED once up front either way (a lazy edge
    table re-executes its upstream lineage at every step — measured
    20.7 -> ~14 s).  Both plans are equivalence-tested.
    Returns (walk_id, step, node) including step 0 = seed."""
    import ray
    import ray.data as rd

    from ..functions import textstats as T
    from .aggregate import bucketed_fold
    from .join import partitioned_hash_join

    edges = materialize_compact(edges.select_columns([src_col, dst_col]))
    out_frames = [pd.DataFrame(
        {"walk_id": list(seeds), "step": 0, "node": list(seeds)})]

    if plan == "broadcast":
        cur_of = {int(s): int(s) for s in seeds}   # walk_id -> cur node
        for step in range(1, n_steps + 1):
            rev = {}
            for w, c in cur_of.items():
                rev.setdefault(c, []).append(w)
            ref = ray.put(rev)

            def partial(t: pa.Table, _step=step, _ref=ref) -> pa.Table:
                rv = ray.get(_ref)
                empty = pa.table({"walk_id": pa.array([], pa.int64()),
                                  "dst": pa.array([], pa.int64()),
                                  "h": pa.array([], pa.uint64())})
                if t.num_rows == 0:
                    return empty
                src = t.column(src_col).to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                curs = np.fromiter(rv.keys(), np.int64, len(rv))
                hit = np.nonzero(np.isin(src, curs))[0]
                if len(hit) == 0:
                    return empty
                dst = t.column(dst_col).to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                ws, ds_, hs = [], [], []
                for i in hit:
                    c, d = int(src[i]), int(dst[i])
                    h = T.md5_u64(f"{c}:{d}:{_step}")
                    for w in rv[c]:
                        ws.append(w)
                        ds_.append(d)
                        hs.append(h)
                p = pd.DataFrame({"walk_id": ws, "dst": ds_, "h": hs}) \
                    .sort_values(["walk_id", "h", "dst"]) \
                    .drop_duplicates("walk_id", keep="first")
                return pa.table({
                    "walk_id": pa.array(p["walk_id"].to_numpy(np.int64)),
                    "dst": pa.array(p["dst"].to_numpy(np.int64)),
                    "h": pa.array(p["h"].to_numpy(np.uint64))})

            parts = edges.map_batches(
                partial, batch_format="pyarrow").to_pandas()
            if parts.empty:
                break
            best = parts.sort_values(["walk_id", "h", "dst"],
                                     kind="mergesort") \
                .drop_duplicates("walk_id", keep="first")
            cur_of = dict(zip(best["walk_id"].astype(int),
                              best["dst"].astype(int)))
            out_frames.append(pd.DataFrame(
                {"walk_id": best["walk_id"].astype("int64").to_numpy(),
                 "step": step,
                 "node": best["dst"].astype("int64").to_numpy()}))
        res = pd.concat(out_frames, ignore_index=True)
        res["step"] = res["step"].astype("int64")
        return res.sort_values(["walk_id", "step"],
                               kind="mergesort").reset_index(drop=True)

    state = rd.from_items(
        [{"walk_id": s, "cur": s} for s in seeds]).materialize()

    es = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])

    for step in range(1, n_steps + 1):
        st = state.map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {src_col: t.column("cur"), "walk_id": t.column("walk_id")}),
            batch_format="pyarrow")
        cand = partitioned_hash_join(
            edges, st, on=src_col, n_buckets=n_buckets,
            left_schema=es,
            right_schema=pa.schema([(src_col, pa.int64()),
                                    ("walk_id", pa.int64())]))

        def score(t: pa.Table, _step=step) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"walk_id": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64()),
                                 "h": pa.array([], pa.uint64())})
            cur = t.column(src_col).to_pylist()
            dst = t.column(dst_col).to_pylist()
            hs = [T.md5_u64(f"{c}:{d}:{_step}")
                  for c, d in zip(cur, dst)]
            return pa.table({"walk_id": t.column("walk_id"),
                             "dst": t.column(dst_col),
                             "h": pa.array(hs, pa.uint64())})

        scored = cand.map_batches(score, batch_format="pyarrow")

        def argmin_fold(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["walk_id", "h", "dst"], kind="mergesort")
            best = g.drop_duplicates("walk_id", keep="first")
            return pd.DataFrame({
                "walk_id": best["walk_id"].to_numpy(np.int64),
                "cur": best["dst"].to_numpy(np.int64)})

        state = bucketed_fold(scored, "walk_id", argmin_fold,
                              n_buckets=n_buckets).materialize()
        step_df = state.to_pandas()
        if step_df.empty:
            break
        out_frames.append(pd.DataFrame(
            {"walk_id": step_df["walk_id"].astype("int64"),
             "step": step,
             "node": step_df["cur"].astype("int64")}))

    res = pd.concat(out_frames, ignore_index=True)
    res["step"] = res["step"].astype("int64")
    return res.sort_values(["walk_id", "step"],
                           kind="mergesort").reset_index(drop=True)


def resolve_pointers(redirects, src_col: str = "src", dst_col: str = "dst",
                     max_rounds: int = 16, n_buckets: int = 8):
    """Resolve pointer CHAINS to their terminal target with hop counts —
    redirect-map resolution (HTTP 301 chains, symlink farms, alias
    tables): every source maps to the END of its chain, hops = chain
    length walked.  Pointer DOUBLING with distance accumulation over
    map-bounded state (src, ptr, d): a chain of length L resolves in
    O(log2 L) exchanges (the same jumping trick as
    ``cluster_pairs_distributed`` but directional, distance-carrying).

    Each round is ONE fused exchange (the r4 fixed-cost lesson — the
    prior shape paid a 32-bucket generic join + two materializes + a sum
    per round, ~4 pipeline executions of multi-second fixed cost each):
    the state streams into the exchange twice (probe rows keyed on ptr,
    jump rows keyed on src — both map_batches over the SAME materialized
    blocks), equal keys meet in one bucket task that builds the jump map,
    left-merges, and advances in place.  The functional-map check (one
    outgoing pointer per src — duplicates of a src always share its
    bucket) runs inside round 1's bucket task, so it costs no separate
    exchange.  Convergence reads ``sum(moved)`` off the round's
    MATERIALIZED output — a metadata-sized scan, not a lineage replay —
    and the ``moved`` column rides along in the state (the next round's
    tag step projects it away) instead of paying a drop_columns
    materialize.

    The map must be FUNCTIONAL (enforced) and ACYCLIC: a cycle never
    stops advancing, so if anything would still move after ``max_rounds``
    doublings (reach 2^max_rounds) a ValueError names the surviving count
    rather than looping forever.  Returns a Dataset of (src, final,
    hops)."""
    from ..util import pool_size
    from .exchange import bucket_exchange
    from .join import _bucket_array

    n_buckets = max(1, min(n_buckets, pool_size()))

    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t.column(src_col), pa.int64()),
            "ptr": pc.cast(t.column(dst_col), pa.int64()),
            "d": pa.array(np.ones(len(t), np.int64))})

    # Defragment the map up front: it typically arrives as many tiny read
    # blocks (a 64-way SplitBlocks read of a small parquet = 6-row
    # blocks), and every per-round exchange inherits — then multiplies —
    # the block count, so per-task fixed cost dominates the round
    # (measured: 52 s/round at 437 rows fragmented, ~1 s coalesced).  A
    # large well-blocked map passes through with no extra exchange.
    state = materialize_compact(
        redirects.map_batches(init, batch_format="pyarrow"))

    def tag(t: pa.Table, side: int) -> pa.Table:
        key = t.column("ptr" if side == 0 else "src")
        return pa.table({
            "src": t.column("src"), "ptr": t.column("ptr"),
            "d": t.column("d"),
            "__jbucket": pa.array(_bucket_array(key, n_buckets), pa.int32()),
            "__jside": pa.array(
                np.full(t.num_rows, side, dtype=np.int8), pa.int8())})

    def step_bucket(g: pd.DataFrame, check_dups: bool) -> pd.DataFrame:
        lhs = g[g["__jside"] == 0]
        rhs = g[g["__jside"] == 1]
        if check_dups:
            dup = rhs["src"].duplicated()
            if dup.any():
                raise ValueError(
                    f"non-functional pointer map: src "
                    f"{rhs['src'][dup].iloc[0]} has multiple outgoing "
                    "pointers")
        jump = rhs[["src", "ptr", "d"]].rename(
            columns={"src": "__jk", "ptr": "nxt", "d": "d2"})
        m = lhs[["src", "ptr", "d"]].merge(
            jump, left_on="ptr", right_on="__jk", how="left")
        moved = m["nxt"].notna().to_numpy()
        return pd.DataFrame({
            "src": m["src"].to_numpy(np.int64),
            "ptr": np.where(moved, m["nxt"].fillna(0), m["ptr"])
                     .astype(np.int64),
            "d": (m["d"].to_numpy(np.int64)
                  + np.where(moved, m["d2"].fillna(0), 0).astype(np.int64)),
            "moved": moved.astype(np.int64)})

    # A round that still moved pointers says nothing about the next one, so
    # after max_rounds doublings one more round confirms: it raises only if
    # something would still advance.
    for _round in range(max_rounds + 1):
        check = _round == 0
        tagged = state.map_batches(
            lambda t: tag(t, 0), batch_format="pyarrow").union(
            state.map_batches(lambda t: tag(t, 1), batch_format="pyarrow"))
        state = bucket_exchange(
            tagged, "__jbucket", n_buckets,
            lambda g, _c=check: step_bucket(g, _c), "pandas").materialize()
        n_moved = state.sum("moved") or 0
        if n_moved == 0:
            break
    else:
        raise ValueError(
            f"{n_moved} pointers still advancing after {max_rounds} "
            "doubling rounds — cycle in the pointer map (or raise "
            "max_rounds)")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column("src"),
                         "final": t.column("ptr"),
                         "hops": t.column("d")})

    return state.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------- strongly connected comps

def directed_min_reach(edges, nodes, src_col: str = "src",
                       dst_col: str = "dst", n_buckets: int = 16,
                       max_iters: int = 64, jump_start: int = 3):
    """Fixpoint of ``label(v) = min({v} U {label(u) : u -> v})`` — i.e.
    the MINIMUM node id that can REACH v along edge direction.

    Round structure follows the ``cluster_pairs_distributed`` lazy-jump
    lesson: rounds 1..jump_start-1 are PROPAGATE-ONLY (one edge join +
    one bucketed min fold — web-shaped graphs with shallow diameter
    converge here and never pay a jump join); from ``jump_start`` on,
    each round adds a pointer jump (label <- label of label) so long
    chains still converge in O(log chain) rounds.  When jumping, the
    folded state is MATERIALIZED before the jump join — both jump sides
    derive from it, and lazy it would re-execute the propagate join +
    fold lineage twice per round (measured on the scc fixture: the lazy
    double-lineage + always-jump variant ran 276 s at sf0.001; this
    plan cuts the per-round executions ~3x).

    Convergence probe is one SCALAR per round (labels only decrease, so
    the label SUM is strictly monotone until fixpoint — no row-wise
    diff join).  State is node-bounded and repartitioned per round (the
    pagerank block-growth lesson).  Chaining rounds lazily inside one
    execution is known-bad on this Ray version (two chained groupby
    exchanges over map_groups output stall pathologically: 9 s -> 280 s
    on a 4-node graph).  Raises if ``max_iters`` rounds don't
    converge."""
    from .aggregate import bucketed_fold
    from .join import attach_column

    def init(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "label": t.column("node")})

    state = nodes.map_batches(init, batch_format="pyarrow").materialize()
    prev = state.sum("label")
    # clamp block count to node count: empty state blocks skip the
    # rename UDFs and poison the attach unions with their old schema
    # (see _trim_trivial) — node count is fixed across rounds, and
    # count() on a materialized dataset is a metadata read.
    n_blocks = max(1, min(n_buckets, state.count()))
    edge_schema = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])
    e = edges.select_columns([src_col, dst_col])
    int2 = pa.schema([("node", pa.int64()), ("label", pa.int64())])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("node", sort=False)["label"].min().reset_index()
        a["label"] = a["label"].astype("int64")
        return a

    def shrink(t: pa.Table) -> pa.Table:
        lab = t.column("label").to_numpy(zero_copy_only=False)
        pl = t.column("plabel").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node"),
            "label": pa.array(np.minimum(lab, pl), pa.int64())})

    for rnd in range(1, max_iters + 1):
        slim = state.map_batches(
            lambda t: pa.table({src_col: t.column("node"),
                                "label": t.column("label")}),
            batch_format="pyarrow")
        cand = attach_column(e, slim, on=src_col, value_col="label",
                             n_buckets=n_buckets,
                             big_schema=edge_schema) \
            .map_batches(
                lambda t: pa.table({"node": t.column(dst_col),
                                    "label": t.column("label")}),
                batch_format="pyarrow")
        merged = bucketed_fold(cand.union(state), "node", fold,
                               n_buckets=n_buckets) \
            .repartition(n_blocks)
        if rnd >= jump_start:
            merged = merged.materialize()
            parents = merged.map_batches(
                lambda t: pa.table({"label": t.column("node"),
                                    "plabel": t.column("label")}),
                batch_format="pyarrow")
            state = attach_column(
                merged, parents, on="label", value_col="plabel",
                n_buckets=n_buckets, big_schema=int2) \
                .map_batches(shrink, batch_format="pyarrow") \
                .repartition(n_blocks).materialize()
        else:
            state = merged.materialize()
        cur = state.sum("label")
        if cur == prev:
            return state
        prev = cur
    raise RuntimeError("directed_min_reach did not converge within "
                       f"{max_iters} rounds")


def _filter_edges_to(active_nodes, edges, src_col, dst_col, n_buckets,
                     edge_schema):
    """Keep only edges whose BOTH endpoints appear in ``active_nodes``
    (thin node table).  Two attach semi-joins; result materialized."""
    from .join import attach_column

    keep_s = active_nodes.map_batches(
        lambda t: pa.table({src_col: t.column("node"),
                            "k1": pa.nulls(t.num_rows, pa.int8())}),
        batch_format="pyarrow")
    keep_d = active_nodes.map_batches(
        lambda t: pa.table({dst_col: t.column("node"),
                            "k2": pa.nulls(t.num_rows, pa.int8())}),
        batch_format="pyarrow")
    out = attach_column(edges, keep_s, on=src_col, value_col="k1",
                        n_buckets=n_buckets, big_schema=edge_schema)
    out = attach_column(out, keep_d, on=dst_col, value_col="k2",
                        n_buckets=n_buckets,
                        big_schema=edge_schema.append(
                            pa.field("k1", pa.int8())))
    return out.select_columns([src_col, dst_col]).materialize()


def _trim_trivial(active_nodes, active_edges, src_col, dst_col,
                  n_buckets, edge_schema):
    """FW-BW-Trim: an active node with NO in-edge or NO out-edge among
    active edges cannot sit on a cycle — it is its own SCC.  Peel such
    nodes iteratively (removing a layer exposes the next) with ONE
    cheap degree fold per iteration instead of a full coloring round.
    On web-shaped graphs this is the dominant win: the bow-tie's IN/OUT
    tendrils are almost entirely trivial SCCs.  Returns
    (trimmed_parts, active_nodes, active_edges)."""
    from .aggregate import bucketed_fold
    from .join import anti_join

    parts = []
    while True:
        def tag(t: pa.Table) -> pa.Table:
            n_src = t.num_rows
            node = pa.concat_arrays([
                t.column(src_col).combine_chunks().cast(pa.int64()),
                t.column(dst_col).combine_chunks().cast(pa.int64())])
            has_out = np.zeros(len(node), np.int8)
            has_out[:n_src] = 1
            return pa.table({"node": node,
                             "has_out": pa.array(has_out),
                             "has_in": pa.array(1 - has_out)})

        def fold(g: pd.DataFrame) -> pd.DataFrame:
            a = g.groupby("node", sort=False)[["has_out", "has_in"]] \
                .max().reset_index()
            return a[(a["has_out"] == 1) & (a["has_in"] == 1)][["node"]]

        keep = bucketed_fold(
            active_edges.map_batches(tag, batch_format="pyarrow"),
            "node", fold, n_buckets=n_buckets).materialize()
        # clamp the block count to the row count: an EMPTY pandas block
        # skips every downstream rename UDF (Ray never calls a UDF on an
        # empty block), enters attach_column's union wearing its OLD
        # 'node' schema, and the exchange's pandas concat then promotes
        # the missing int columns to double — after which index_in
        # silently drops type-mismatched rows (measured: lost edges ->
        # wrong SCCs).  With blocks <= rows the even split leaves no
        # empty block.
        n_keep = keep.count()
        if n_keep == 0:
            # no node has both an in- and an out-edge: everything left
            # is trivial (e.g. the edge set emptied out entirely)
            parts.append(active_nodes.map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "scc": t.column("node")}),
                batch_format="pyarrow").materialize())
            return parts, keep, active_edges
        keep = keep.repartition(min(n_buckets, n_keep)).materialize()
        singles = anti_join(active_nodes, keep, on="node",
                            n_buckets=n_buckets).materialize()
        n_singles = singles.count()
        if n_singles == 0:
            return parts, active_nodes, active_edges
        parts.append(
            singles.repartition(min(n_buckets, n_singles))
            .map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "scc": t.column("node")}),
                batch_format="pyarrow").materialize())
        active_nodes = keep
        active_edges = _filter_edges_to(active_nodes, active_edges,
                                        src_col, dst_col, n_buckets,
                                        edge_schema)


def _local_scc_fold(g: pd.DataFrame, src_col: str, dst_col: str) \
        -> pd.DataFrame:
    """Iterative Tarjan over one in-task edge list: rows with null dst
    are bare (possibly isolated) nodes.  Labels = min member id, matching
    the distributed coloring's assignment."""
    adj: dict = {}
    nodes = set()
    dst_null = g[dst_col].isna().to_numpy()
    for u, v, nn in zip(g[src_col].to_numpy(), g[dst_col].to_numpy(),
                        dst_null):
        u = int(u)
        nodes.add(u)
        if nn:
            continue
        v = int(v)
        nodes.add(v)
        adj.setdefault(u, []).append(v)
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    out_n: list = []
    out_s: list = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            u, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    pushed = True
                    break
                if w in on and index[w] < low[u]:
                    low[u] = index[w]
            if pushed:
                continue
            work.pop()
            if work and low[u] < low[work[-1][0]]:
                low[work[-1][0]] = low[u]
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == u:
                        break
                m = min(comp)
                out_n.extend(comp)
                out_s.extend([m] * len(comp))
    return pd.DataFrame({"node": np.asarray(out_n, np.int64),
                         "scc": np.asarray(out_s, np.int64)})


def scc_labels(edges, src_col: str = "src", dst_col: str = "dst",
               n_buckets: int = 16, max_outer: int = 8,
               local_finish_edges: int = 2_000_000):
    """Strongly connected components by the distributed COLORING
    algorithm with trivial-SCC trimming (Orzan / the FW-BW-Trim
    family): per outer round, (0) TRIM — nodes with no in- or no
    out-edge among active nodes are their own SCC and peel via a cheap
    degree fold, iterated until stable (this absorbs DAG chains and the
    web bow-tie's tendrils, the coloring family's classical weakness);
    (1) a forward min-reach fixpoint colors every surviving node with
    the minimum node that reaches it, (2) a backward min-reach fixpoint
    over the SAME-color edge subgraph finds which nodes reach their
    color's root, and (3) nodes with ``backward == forward == root``
    form that root's SCC — correctness rests on the classical lemma
    that every path between two SCC members stays inside the SCC, so
    the same-color restriction loses nothing.  Assigned SCCs leave the
    graph; remaining nodes (later condensation layers) resolve in
    following rounds.

    Returns (node, scc) with scc = MIN member id — the exact SCC
    partition (labels match Tarjan; equivalence-tested).

    Scale contract: state is node-bounded, every step is a thin join or
    bucketed fold, nothing driver-side but per-round scalars.  Outer
    rounds = condensation root layers whose SCCs are non-trivial —
    shallow for web-shaped graphs; trim handles the trivial layers.

    Size-adaptive tail (``local_finish_edges``, same pattern as
    ``kcore_int``): when the ACTIVE subgraph fits one task (edge count is
    free — the active edge table is materialized every round), the
    remaining condensation resolves via iterative Tarjan inside a single
    fold instead of trim loops + two reach fixpoints per layer.  Tarjan
    labels by min member exactly like the coloring plan
    (equivalence-tested with the threshold forced to 0).  Set 0 to
    disable."""
    from .aggregate import pre_aggregated_count
    from .join import attach_column, partitioned_hash_join

    def both(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            t.column(src_col).combine_chunks().cast(pa.int64()),
            t.column(dst_col).combine_chunks().cast(pa.int64())])})

    e = edges.select_columns([src_col, dst_col])
    nodes = pre_aggregated_count(
        e.map_batches(both, batch_format="pyarrow"), "node",
        n_buckets=n_buckets).select_columns(["node"]).materialize()
    active_nodes, active_edges = nodes, e.materialize()
    parts = []
    int2 = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    edge_schema = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])

    def finish():
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    for _ in range(max_outer):
        if local_finish_edges and \
                active_edges.count() <= local_finish_edges and \
                active_nodes.count() <= local_finish_edges:
            from .aggregate import bucketed_fold

            def with_node_rows(t: pa.Table) -> pa.Table:
                return pa.table({
                    src_col: t.column("node").combine_chunks()
                    .cast(pa.int64()),
                    dst_col: pa.nulls(t.num_rows, pa.int64()),
                    "__one": pa.array(np.zeros(t.num_rows, np.int8))})

            def edge_rows(t: pa.Table) -> pa.Table:
                return pa.table({
                    src_col: t.column(src_col).combine_chunks()
                    .cast(pa.int64()),
                    dst_col: t.column(dst_col).combine_chunks()
                    .cast(pa.int64()),
                    "__one": pa.array(np.zeros(t.num_rows, np.int8))})

            union = active_edges.map_batches(
                edge_rows, batch_format="pyarrow").union(
                active_nodes.map_batches(
                    with_node_rows, batch_format="pyarrow"))
            parts.append(bucketed_fold(
                union, "__one",
                lambda g: _local_scc_fold(g, src_col, dst_col),
                n_buckets=1).materialize())
            return finish()
        trimmed, active_nodes, active_edges = _trim_trivial(
            active_nodes, active_edges, src_col, dst_col, n_buckets,
            edge_schema)
        parts.extend(trimmed)
        if active_nodes.count() == 0:
            return finish()
        color = directed_min_reach(active_edges, active_nodes,
                                   src_col, dst_col, n_buckets)
        # same-color edge subgraph: attach color at both endpoints
        cs = color.map_batches(
            lambda t: pa.table({src_col: t.column("node"),
                                "c_s": t.column("label")}),
            batch_format="pyarrow")
        cd = color.map_batches(
            lambda t: pa.table({dst_col: t.column("node"),
                                "c_d": t.column("label")}),
            batch_format="pyarrow")
        ec = attach_column(active_edges, cs, on=src_col, value_col="c_s",
                           n_buckets=n_buckets, big_schema=edge_schema)
        ec = attach_column(ec, cd, on=dst_col, value_col="c_d",
                           n_buckets=n_buckets,
                           big_schema=edge_schema.append(
                               pa.field("c_s", pa.int64())))

        def same(t: pa.Table) -> pa.Table:
            keep = pc.equal(t.column("c_s"), t.column("c_d"))
            f = t.filter(keep)
            # reversed: backward reach = forward reach on flipped edges
            return pa.table({src_col: f.column(dst_col),
                             dst_col: f.column(src_col)})

        # materialize: the reversed same-color edge list feeds EVERY
        # backward round's attach — lazy, it would re-run the two color
        # attaches per round (measured 3x outer-round wall)
        rev = ec.map_batches(same, batch_format="pyarrow").materialize()
        bwd = directed_min_reach(rev, active_nodes, src_col, dst_col,
                                 n_buckets)
        joined = partitioned_hash_join(
            color, bwd.map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "b": t.column("label")}),
                batch_format="pyarrow"),
            on="node", n_buckets=n_buckets,
            left_schema=int2,
            right_schema=pa.schema([("node", pa.int64()),
                                    ("b", pa.int64())]))

        def members(t: pa.Table) -> pa.Table:
            f = t.filter(pc.equal(t.column("label"), t.column("b")))
            return pa.table({"node": f.column("node"),
                             "scc": f.column("label")})

        part = joined.map_batches(members, batch_format="pyarrow") \
            .materialize()
        parts.append(part)
        from .join import anti_join
        active_nodes = anti_join(active_nodes, part, on="node",
                                 n_buckets=n_buckets).materialize()
        n_active = active_nodes.count()
        if n_active == 0:
            return finish()
        # clamped re-block: anti_join can leave empty blocks that would
        # skip the rename UDFs downstream (see _trim_trivial)
        active_nodes = active_nodes.repartition(
            min(n_buckets, n_active)).materialize()
        active_edges = _filter_edges_to(active_nodes, active_edges,
                                        src_col, dst_col, n_buckets,
                                        edge_schema)
    raise RuntimeError(f"scc_labels did not finish in {max_outer} rounds "
                       "(deep condensation — raise max_outer)")


# ---------------------------------------------------------- DAG layering

def topo_layers(edges, src_col: str = "src", dst_col: str = "dst",
                n_buckets: int = 16, max_rounds: int = 64):
    """Topological layering of a DAG: ``layer(v)`` = length of the
    LONGEST path ending at v (roots = 0) — the stage-scheduling /
    dependency-depth operator (build planners, lineage depth, curriculum
    ordering).  The max-path dual of ``bellman_ford_int``'s min fold.

    Per round: standing layers join the edge list on src (one
    distributed join), each edge proposes ``layer(src) + 1`` for its
    dst, one bucketed MAX-fold merges proposals with the standing table
    (max is idempotent, so no frontier bookkeeping).  Layers only
    increase and are bounded by the longest path, so the layer SUM is
    strictly monotone until fixpoint — one scalar probe per round.  On
    CYCLIC input the sum never stabilises; exceeding ``max_rounds``
    raises, which doubles as distributed cycle detection (use
    ``scc_labels`` to locate the cycles).  State is node-bounded,
    coalesced + materialized per round (the bfs_hops block-count
    lesson).  Returns (node, layer)."""
    from .aggregate import bucketed_fold, pre_aggregated_count
    from .join import partitioned_hash_join

    def both(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            t.column(src_col).combine_chunks().cast(pa.int64()),
            t.column(dst_col).combine_chunks().cast(pa.int64())])})

    e = materialize_compact(edges.select_columns([src_col, dst_col]))
    layers = pre_aggregated_count(
        e.map_batches(both, batch_format="pyarrow"), "node",
        n_buckets=n_buckets) \
        .map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "layer": pa.array(np.zeros(t.num_rows, np.int64))}),
            batch_format="pyarrow").materialize()
    n_blocks = max(1, min(n_buckets, layers.count()))
    layers = layers.repartition(n_blocks).materialize()
    prev = layers.sum("layer")

    ls = pa.schema([(src_col, pa.int64()), (dst_col, pa.int64())])
    rs = pa.schema([(src_col, pa.int64()), ("layer", pa.int64())])

    def max_fold(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("node", sort=False, as_index=False)["layer"].max()
        a["layer"] = a["layer"].astype("int64")
        return a

    for _ in range(max_rounds):
        l_src = layers.map_batches(
            lambda t: t if t.num_columns == 0 else t.rename_columns(
                [src_col, "layer"]),
            batch_format="pyarrow")
        cand = partitioned_hash_join(
            e, l_src, on=src_col, n_buckets=n_buckets,
            left_schema=ls, right_schema=rs,
        ).map_batches(
            lambda t: t if t.num_columns == 0 else pa.table(
                {"node": t.column(dst_col),
                 "layer": pc.add(t.column("layer"), pa.scalar(1))}),
            batch_format="pyarrow").repartition(n_blocks).materialize()
        layers = bucketed_fold(
            cand.union(layers), "node", max_fold,
            n_buckets=n_buckets).repartition(n_blocks).materialize()
        cur = layers.sum("layer")
        if cur == prev:
            return layers
        prev = cur
    raise RuntimeError(
        f"topo_layers did not converge in {max_rounds} rounds — the "
        "input has a cycle (or a longer longest-path); run scc_labels "
        "to locate cycles")
