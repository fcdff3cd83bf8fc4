"""Integer-exact PageRank (iterative join+aggregate)."""

import numpy as np
import ray.data as rd

from document_text_extraction_ray.stages.graph import SCALE, pagerank_int


def _ref_pagerank(edges, n, iters=3, dpct=85):
    """Pure-python integer replay."""
    from collections import defaultdict

    outd = defaultdict(int)
    for s, d in edges:
        outd[s] += 1
    tele = (SCALE - dpct * SCALE // 100) // n
    rank = {v: SCALE // n for v in outd}
    for _ in range(iters):
        s = defaultdict(int)
        for a, b in edges:
            s[b] += rank[a] // outd[a]
        rank = {v: tele + (dpct * s.get(v, 0)) // 100 for v in outd}
    return rank


def test_pagerank_int_matches_integer_reference():
    n = 40
    edges = [(d, (d * 7 + 3) % n) for d in range(n)] \
        + [(d, (d * d + 1) % n) for d in range(n)]
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    out = pagerank_int(ds, n_iters=3, n_buckets=4).to_pandas() \
        .set_index("node")["rank"].to_dict()
    ref = _ref_pagerank(edges, n)
    assert out == ref
    # ranks differ across nodes (the graph is not regular in-degree)
    assert len(set(out.values())) > 1
    # total mass bounded by SCALE (floor losses only shrink it)
    assert 0 < sum(out.values()) <= SCALE


def test_triangle_count_matches_brute_force():
    from itertools import combinations

    from document_text_extraction_ray.stages.graph import triangle_count

    # Deterministic graph with known dense spots: ring chords on 30 nodes.
    n = 30
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        if i % 3 == 0:
            edges.add((i, (i + 2) % n))
        if i % 5 == 0:
            edges.add((i, (i + 7) % n))
    oriented = sorted({(min(a, b), max(a, b)) for a, b in edges})
    eset = set(oriented)
    ref = {}
    for u, v, w in combinations(range(n), 3):
        if {(u, v), (u, w), (v, w)} <= eset:
            ref[u] = ref.get(u, 0) + 1

    ds = rd.from_items([{"src": a, "dst": b} for a, b in oriented])
    out = triangle_count(ds, n_buckets=4).to_pandas() \
        .set_index("pivot")["n_triangles"].to_dict()
    assert out == ref
    assert sum(ref.values()) > 0


def _ref_hits(edges, n_iters=2, norm=10**6):
    """Pure-python integer replay of hits_int's half steps."""
    from collections import defaultdict

    hub = {s: norm for s, _ in edges}
    auth = {}
    for _ in range(n_iters):
        raw = defaultdict(int)
        for s, d in edges:
            raw[d] += hub[s]
        total = sum(raw.values())
        auth = {v: r * norm // total for v, r in raw.items()}
        raw = defaultdict(int)
        for s, d in edges:
            raw[s] += auth[d]
        total = sum(raw.values())
        hub = {v: r * norm // total for v, r in raw.items()}
    return auth, hub


def test_hits_int_matches_integer_reference():
    from document_text_extraction_ray.stages.graph import HITS_NORM, hits_int

    # Bipartite-ish graph with uneven degrees: srcs 0..19, dsts "a".."f".
    edges = sorted({(s, "abcdef"[(s * s + j) % 6])
                    for s in range(20) for j in range(1 + s % 4)})
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    auth, hub = hits_int(ds, n_iters=2, n_buckets=4)
    got_auth = auth.to_pandas().set_index("node")["auth"].to_dict()
    got_hub = hub.to_pandas().set_index("node")["hub"].to_dict()
    ref_auth, ref_hub = _ref_hits(edges, n_iters=2, norm=HITS_NORM)
    assert got_auth == ref_auth
    assert got_hub == ref_hub
    # reinforcement differentiates the nodes
    assert len(set(got_hub.values())) > 1
    assert len(set(got_auth.values())) > 1
    # normalization: total mass within floor losses of HITS_NORM
    assert HITS_NORM - len(got_hub) < sum(got_hub.values()) <= HITS_NORM


def _ref_kcore(edges, k):
    """Synchronous reference peeling (order-independent fixpoint)."""
    from collections import Counter

    E = set(edges)
    while True:
        deg = Counter(u for u, _ in E)
        keep = {n for n, d in deg.items() if d >= k}
        E2 = {(u, v) for u, v in E if u in keep and v in keep}
        if E2 == E:
            break
        E = E2
    return Counter(u for u, _ in E)


def test_kcore_matches_reference_peeling():
    from document_text_extraction_ray.stages.graph import kcore_int

    # Tree (peels shell by shell) + embedded clique (the surviving core)
    # + a pendant path off the clique (stresses multi-round cascades).
    base = set()
    for i in range(1, 36):
        base.add((i, i // 6))
    for a in range(6):
        for b in range(6):
            if a != b:
                base.add((200 + a, 200 + b))
    base.add((205, 0))
    for i in range(300, 302):
        base.add((i, i + 1))
    base.add((300, 203))
    edges = sorted(base | {(b, a) for a, b in base})

    ds = rd.from_items([{"src": a, "dst": b} for a, b in edges])
    out = kcore_int(ds, k=2, n_buckets=4).to_pandas() \
        .set_index("node")["degree"].to_dict()
    ref = dict(_ref_kcore(edges, 2))
    assert out == ref
    # the 2-core is exactly the 6-clique (degree 5 each): tree, pendant
    # path and the two bridge edges all cascade away over multiple rounds
    assert set(ref) == set(range(200, 206))
    assert set(ref.values()) == {5}


def test_bfs_hops_min_distance_with_shortcuts():
    """BFS distances on a path graph with a shortcut: the shortcut must
    win (min distance), unreached nodes absent, early stop on empty
    frontier."""
    import ray.data as rd

    from document_text_extraction_ray.stages.graph import bfs_hops

    # path 0-1-2-3-4-5-6 plus shortcut 0-5
    pairs = [(i, i + 1) for i in range(6)] + [(0, 5)]
    edges = rd.from_items(
        [{"src": a, "dst": b} for a, b in pairs]
        + [{"src": b, "dst": a} for a, b in pairs])
    out = bfs_hops(edges, seeds=[0], max_hops=3, n_buckets=4) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    dist = dict(zip(out["node"], out["dist"]))
    assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 2}

    # multi-source: seeds at both ends
    out2 = bfs_hops(edges, seeds=[0, 6], max_hops=2, n_buckets=4) \
        .to_pandas()
    d2 = dict(zip(out2["node"], out2["dist"]))
    assert d2 == {0: 0, 6: 0, 1: 1, 5: 1, 2: 2, 4: 2}
    assert 3 not in d2               # beyond the 2-hop horizon


def test_lpa_cliques_resist_bridge():
    """Two 4-cliques joined by one bridge: LPA converges to one label per
    clique (the bridge's single vote cannot outvote 3 clique votes) —
    where min-label connected components would merge everything."""
    import ray.data as rd

    from document_text_extraction_ray.stages.graph import lpa_communities

    pairs = []
    for base in (0, 4):
        for a in range(base, base + 4):
            for b in range(base, base + 4):
                if a != b:
                    pairs.append((a, b))
    pairs += [(3, 4), (4, 3)]          # bridge
    edges = rd.from_items([{"src": a, "dst": b} for a, b in pairs])
    out = lpa_communities(edges, n_iters=4, n_buckets=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    labels = out["label"].to_numpy()
    assert len(set(labels[:4])) == 1          # clique 1 one community
    assert len(set(labels[4:])) == 1          # clique 2 one community
    assert labels[0] != labels[4]             # bridge did NOT merge them


def test_earliest_arrival_time_blocking():
    """Temporal semantics: an edge that fires BEFORE you arrive cannot
    carry you — path 0-1-2 with decreasing ts blocks at node 2 until a
    later parallel edge exists; plain reachability would pass."""
    import ray.data as rd

    from document_text_extraction_ray.stages.graph import earliest_arrival

    edges = rd.from_items([
        {"src": 0, "dst": 1, "ts": 5},
        {"src": 1, "dst": 2, "ts": 3},   # fires before arrival(1)=5: blocked
        {"src": 1, "dst": 2, "ts": 9},   # the later run carries
        {"src": 2, "dst": 3, "ts": 8},   # 8 < arr(2)=9: 3 unreachable
        {"src": 0, "dst": 4, "ts": 0},
    ])
    out = earliest_arrival(edges, seeds=[0], n_rounds=4, n_buckets=4) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    arr = dict(zip(out["node"], out["arr"]))
    assert arr == {0: 0, 1: 5, 2: 9, 4: 0}
    assert 3 not in arr


def test_clustering_coefficient_matches_brute_force():
    from itertools import combinations

    from document_text_extraction_ray.stages.graph import (
        clustering_coefficient,
    )

    n = 30
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        if i % 3 == 0:
            edges.add((i, (i + 2) % n))
        if i % 5 == 0:
            edges.add((i, (i + 7) % n))
    oriented = sorted({(min(a, b), max(a, b)) for a, b in edges})
    eset = set(oriented)
    tri = {v: 0 for v in range(n)}
    for u, v, w in combinations(range(n), 3):
        if {(u, v), (u, w), (v, w)} <= eset:
            tri[u] += 1
            tri[v] += 1
            tri[w] += 1
    deg = {v: 0 for v in range(n)}
    for a, b in oriented:
        deg[a] += 1
        deg[b] += 1

    ds = rd.from_items([{"src": a, "dst": b} for a, b in oriented])
    out = clustering_coefficient(ds, n_buckets=4).to_pandas() \
        .set_index("node").sort_index()
    assert set(out.index) == set(range(n))
    for v in range(n):
        assert out.loc[v, "degree"] == deg[v]
        assert out.loc[v, "n_triangles"] == tri[v]
        assert out.loc[v, "cc_numer"] == 2 * tri[v]
        assert out.loc[v, "cc_denom"] == deg[v] * (deg[v] - 1)
    # coefficients genuinely vary on this graph
    nz = out[out["cc_denom"] > 0]
    assert len(set(
        (nz["cc_numer"] / nz["cc_denom"]).round(6))) > 1


def test_common_neighbor_pairs_matches_brute_force():
    from document_text_extraction_ray.stages.graph import (
        common_neighbor_pairs,
    )

    n = 40
    edges = set()
    for i in range(n):
        edges.add((i, (i + 1) % n))
        if i % 4 != 3:
            edges.add((i, (i + 2) % n))
    oriented = sorted({(min(a, b), max(a, b)) for a, b in edges})
    eset = set(oriented)
    nbrs = {v: set() for v in range(n)}
    for a, b in oriented:
        nbrs[a].add(b)
        nbrs[b].add(a)
    ref = {}
    for v in range(n):
        for w in range(v + 1, n):
            if (v, w) in eset:
                continue
            c = len(nbrs[v] & nbrs[w])
            if c >= 2:
                ref[(v, w)] = c

    ds = rd.from_items([{"src": a, "dst": b} for a, b in oriented])
    out = common_neighbor_pairs(ds, min_common=2, n_buckets=4).to_pandas()
    got = {(int(r.v), int(r.w)): int(r.n_common)
           for r in out.itertuples()}
    assert got == ref
    assert len(ref) > 0


def test_bellman_ford_matches_reference():
    import heapq

    from document_text_extraction_ray.stages.graph import bellman_ford_int

    n = 40
    edges = [(i, (i + 1) % n, 1 + i % 5) for i in range(n)] + \
        [(i, (i + 7) % n, 3 + i % 4) for i in range(n)]
    seeds = [0, 20]

    # reference: Dijkstra truncated to <= 4 edges (Bellman-Ford rounds)
    ref = {s: 0 for s in seeds}
    frontier = dict(ref)
    for _ in range(4):
        nxt = dict(ref)
        for (a, b, w) in edges:
            if a in ref and ref[a] + w < nxt.get(b, 1 << 60):
                nxt[b] = ref[a] + w
        ref = nxt
    ds = rd.from_items([{"src": a, "dst": b, "w": w}
                        for a, b, w in edges])
    out = bellman_ford_int(ds, seeds, n_rounds=4, n_buckets=4) \
        .to_pandas().set_index("node")["dist"].to_dict()
    assert {int(k): int(v) for k, v in out.items()} == ref


def test_bellman_ford_rejects_negative_weights():
    import pytest

    from document_text_extraction_ray.stages.graph import bellman_ford_int

    ds = rd.from_items([{"src": 0, "dst": 1, "w": -2}])
    with pytest.raises(Exception, match="non-negative"):
        bellman_ford_int(ds, [0], n_rounds=1).to_pandas()


def test_modularity_stats_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages.graph import modularity_stats

    rng = np.random.RandomState(11)
    edges = set()
    while len(edges) < 80:
        a, b = rng.randint(0, 40), rng.randint(0, 40)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    edges = sorted(edges)
    label = {n: f"c{n % 5}" for n in range(40)}

    e_ds = rd.from_items([{"src": a, "dst": b} for a, b in edges])
    l_ds = rd.from_items([{"node": n, "comm": label[n]}
                          for n in range(40)])
    out = modularity_stats(e_ds, l_ds, n_buckets=4).to_pandas() \
        .set_index("comm").sort_index()

    ref_in, ref_deg = {}, {}
    for a, b in edges:
        ca, cb = label[a], label[b]
        ref_deg[ca] = ref_deg.get(ca, 0) + 1
        ref_deg[cb] = ref_deg.get(cb, 0) + 1
        if ca == cb:
            ref_in[ca] = ref_in.get(ca, 0) + 1
    for c in ref_deg:
        assert out.loc[c, "deg_sum"] == ref_deg[c]
        assert out.loc[c, "in_edges"] == ref_in.get(c, 0)
    assert set(out.index) == set(ref_deg)
    # modularity identity: the Q numerator reconstructs from the rows
    m = len(edges)
    q_num = sum(4 * m * out.loc[c, "in_edges"] - out.loc[c, "deg_sum"] ** 2
                for c in out.index)
    ref_q = sum(4 * m * ref_in.get(c, 0) - ref_deg[c] ** 2
                for c in ref_deg)
    assert q_num == ref_q


def test_deterministic_walks_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.functions.textstats import md5_u64
    from document_text_extraction_ray.stages.graph import (
        deterministic_walks,
    )

    e0 = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (7, 8)]
    adj = {}
    for a, b in e0:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    edges = rd.from_items(
        [{"src": a, "dst": b} for a, b in e0] +
        [{"src": b, "dst": a} for a, b in e0])

    out = deterministic_walks(edges, [0, 7, 9], n_steps=3, n_buckets=4)

    ref = []
    for seed in [0, 7, 9]:
        cur = seed
        ref.append((seed, 0, seed))
        for step in range(1, 4):
            nbrs = adj.get(cur)
            if not nbrs:
                break
            cur = min(nbrs, key=lambda d: (md5_u64(f"{cur}:{d}:{step}"), d))
            ref.append((seed, step, cur))
    got = [(int(w), int(s), int(n)) for w, s, n in
           zip(out["walk_id"], out["step"], out["node"])]
    assert sorted(got) == sorted(ref)
    # isolated seed 9 emits only its step-0 row
    assert [r for r in got if r[0] == 9] == [(9, 0, 9)]

    # the two-exchange join plan is equivalent to the broadcast plan
    outj = deterministic_walks(edges, [0, 7, 9], n_steps=3, n_buckets=4,
                               plan="join")
    gotj = [(int(w), int(s), int(n)) for w, s, n in
            zip(outj["walk_id"], outj["step"], outj["node"])]
    assert sorted(gotj) == sorted(ref)


def test_resolve_pointers_chains_cycle_and_nonfunctional():
    import pytest

    from document_text_extraction_ray.stages.graph import resolve_pointers

    # two chains with distinct terminals + one direct pointer
    rows = ([{"src": i, "dst": i - 1} for i in range(1, 8)]
            + [{"src": i, "dst": i - 1} for i in range(9, 16)]
            + [{"src": 50, "dst": 8}])
    out = resolve_pointers(rd.from_items(rows), n_buckets=4) \
        .to_pandas().sort_values("src").reset_index(drop=True)
    assert len(out) == 15
    for _i, r in out.iterrows():
        if r["src"] == 50:
            assert (r["final"], r["hops"]) == (8, 1)
        elif r["src"] < 8:
            assert (r["final"], r["hops"]) == (0, r["src"])
        else:
            assert (r["final"], r["hops"]) == (8, r["src"] - 8)

    # a cycle raises instead of looping forever
    cyc = [{"src": 1, "dst": 2}, {"src": 2, "dst": 3}, {"src": 3, "dst": 1}]
    with pytest.raises(ValueError, match="cycle"):
        resolve_pointers(rd.from_items(cyc), max_rounds=4, n_buckets=2)

    # a chain of 4 hops moves pointers in both of 2 rounds and is then
    # fully resolved: no spurious cycle error; 1 round is too few
    chain = [{"src": i, "dst": i - 1} for i in range(1, 5)]
    out = resolve_pointers(rd.from_items(chain), max_rounds=2, n_buckets=2) \
        .to_pandas().sort_values("src")
    assert out["final"].tolist() == [0, 0, 0, 0]
    assert out["hops"].tolist() == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="cycle"):
        resolve_pointers(rd.from_items(chain), max_rounds=1, n_buckets=2)

    # a src with two outgoing pointers is rejected (non-functional map)
    bad = [{"src": 1, "dst": 2}, {"src": 1, "dst": 3}]
    with pytest.raises(ValueError, match="non-functional"):
        resolve_pointers(rd.from_items(bad), n_buckets=2).to_pandas()


def _ref_trustrank(edges, seeds, iters=3, dpct=85):
    from collections import defaultdict

    outd = defaultdict(int)
    for s, d in edges:
        outd[s] += 1
    k = len(seeds)
    tele = (SCALE - dpct * SCALE // 100) // k
    rank = {v: (SCALE // k if v in seeds else 0) for v in outd}
    for _ in range(iters):
        s = defaultdict(int)
        for a, b in edges:
            s[b] += rank[a] // outd[a]
        rank = {v: (tele if v in seeds else 0) + (dpct * s.get(v, 0)) // 100
                for v in outd}
    return rank


def test_trustrank_seed_teleport_and_decay():
    # Two components: 0-4 reachable from seed 0; 5-9 a ring with no seed
    # and no path from the seeded side -> their trust decays to 0.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] \
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    seeds = {0}
    ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
    out = pagerank_int(ds, n_iters=3, n_buckets=4, seeds=seeds) \
        .to_pandas().set_index("node")["rank"].to_dict()
    assert out == _ref_trustrank(edges, seeds)
    assert all(out[v] == 0 for v in range(5, 10))
    # trust reaches exactly the <=3-hop frontier after 3 iterations
    assert all(out[v] > 0 for v in range(0, 4))
    assert out[4] == 0
    # seedless pagerank on the same graph gives everyone teleport mass
    base = pagerank_int(ds, n_iters=3, n_buckets=4).to_pandas()
    assert (base["rank"] > 0).all()


def _ref_scc_min_labels(edges, nodes):
    """Iterative Tarjan; label = min member of each SCC."""
    adj = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    label = {}
    counter = [0]
    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            for i in range(pi, len(adj.get(v, []))):
                w = adj[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                m = min(comp)
                for w in comp:
                    label[w] = m
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[v])
    return label


def test_scc_labels_match_tarjan():
    from document_text_extraction_ray.stages.graph import scc_labels

    # Two 3-cycles merged by cross edges plus pure tendrils (only-in /
    # only-out): trim genuinely fires (layered — peeling 50 exposes
    # nothing, but 51's removal is needed before the coloring round)
    # and the back edges genuinely merge two cycles into one SCC.  The
    # registered `scc` query's hub+rings fixture (comparator-verified
    # at two SFs against the recursive-CTE oracle) covers multi-layer
    # condensation peeling; this unit test pins label exactness.
    edges = (
        [(10 + i, 10 + (i + 1) % 3) for i in range(3)]       # {10,11,12}
        + [(20 + i, 20 + (i + 1) % 3) for i in range(3)]     # {20,21,22}
        + [(12, 20), (21, 10)]   # cross edges merge the two cycles
        + [(22, 50), (51, 10)]   # tendrils: 50 only-in, 51 only-out
    )
    nodes = sorted({v for e in edges for v in e})
    got = scc_labels(
        rd.from_items([{"src": s, "dst": d} for s, d in edges]),
        n_buckets=4, max_outer=8,
    ).to_pandas().set_index("node")["scc"].to_dict()
    assert got == _ref_scc_min_labels(edges, nodes)
    # the back edge really merged the two 3-cycles
    assert got[22] == got[10] == 10
    # tendrils are their own (trimmed) SCCs
    assert got[50] == 50 and got[51] == 51


def test_topo_layers_longest_path_and_cycle_guard():
    import pytest

    from document_text_extraction_ray.stages.graph import topo_layers

    # diamond + skip edge: longest path wins (0->1->2->3 beats 0->3)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (5, 6)]
    out = topo_layers(
        rd.from_items([{"src": s, "dst": d} for s, d in edges]),
        n_buckets=4,
    ).to_pandas().set_index("node")["layer"].to_dict()
    assert out == {0: 0, 1: 1, 2: 2, 3: 3, 5: 0, 6: 1}

    with pytest.raises(RuntimeError, match="cycle"):
        topo_layers(
            rd.from_items([{"src": s, "dst": d}
                           for s, d in [(0, 1), (1, 0)]]),
            n_buckets=4, max_rounds=6)


def test_kcore_local_finish_equals_distributed():
    """The size-adaptive local-finish tail must reach the same (unique)
    k-core as pure distributed peeling."""
    from document_text_extraction_ray.stages.graph import kcore_int

    base = set()
    for i in range(1, 36):
        base.add((i, i // 6))
    for a in range(6):
        for b in range(6):
            if a != b:
                base.add((200 + a, 200 + b))
    base.add((205, 0))
    edges = sorted(base | {(b, a) for a, b in base})
    ds = rd.from_items([{"src": a, "dst": b} for a, b in edges])
    as_dict = lambda d: d.to_pandas().set_index("node")["degree"].to_dict()
    local = as_dict(kcore_int(ds, k=2, n_buckets=4))
    dist = as_dict(kcore_int(ds, k=2, n_buckets=4, local_finish_edges=0))
    assert local == dist
    assert set(local) == set(range(200, 206))


def test_scc_local_finish_equals_distributed():
    """The Tarjan local-finish tail must produce exactly the coloring
    plan's labels, on a graph with merged cycles, tendrils and isolated
    condensation layers; fuzzed random digraphs included."""
    import numpy as np

    from document_text_extraction_ray.stages.graph import scc_labels

    rng = np.random.RandomState(31)
    for trial in range(3):
        n = 25
        m = rng.randint(15, 60)
        edges = sorted({(int(rng.randint(n)), int(rng.randint(n)))
                        for _ in range(m)})
        edges = [(a, b) for a, b in edges if a != b]
        if not edges:
            continue
        ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
        as_dict = lambda d: d.to_pandas().set_index("node")["scc"].to_dict()
        local = as_dict(scc_labels(ds, n_buckets=4))
        dist = as_dict(scc_labels(ds, n_buckets=4, max_outer=16,
                                  local_finish_edges=0))
        assert local == dist, (trial, edges)
