"""Dedup kernels + Dataset pipelines (exact, MinHash+LSH, SimHash, n-gram)."""

import numpy as np
import pyarrow as pa
import ray
import ray.data
from hypothesis import example, given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.functions import dedup as D
from document_text_extraction_ray.stages import dedup as SD

BASE = (
    "the quick brown fox jumps over the lazy dog while the sun sets slowly "
    "behind the tall mountains and the river flows gently through the valley"
)
NEAR = BASE.replace("gently", "softly")
OTHER = (
    "completely different content about cooking pasta with tomato sauce and "
    "fresh basil leaves picked from the garden early in the morning today"
)


def _docs():
    return ray.data.from_items(
        [
            {"doc_id": 1, "text": BASE},
            {"doc_id": 2, "text": BASE},          # exact dup of 1
            {"doc_id": 3, "text": NEAR},          # near dup of 1
            {"doc_id": 4, "text": OTHER},
            {"doc_id": 5, "text": ""},            # empty (hot-key guard)
        ]
    )


def test_minhash_estimates_jaccard():
    sig_a = D.minhash_signature(BASE)
    sig_b = D.minhash_signature(NEAR)
    sig_c = D.minhash_signature(OTHER)
    est_ab = (sig_a == sig_b).mean()
    est_ac = (sig_a == sig_c).mean()
    true_ab = D.jaccard(D.char_shingles(BASE), D.char_shingles(NEAR))
    assert abs(est_ab - true_ab) < 0.15
    assert est_ab > 0.6 > est_ac


def test_simhash_hamming():
    a, b, c = D.simhash(BASE), D.simhash(NEAR), D.simhash(OTHER)
    assert D.hamming64(a, a) == 0
    assert D.hamming64(a, b) < D.hamming64(a, c)
    assert D.simhash_batch([BASE, NEAR, OTHER]).tolist() == [a, b, c]


def test_simhash_band_pigeonhole():
    a, b = D.simhash(BASE), D.simhash(NEAR)
    if D.hamming64(a, b) < 4:
        ka = {k for k in D.simhash_band_keys(a)}
        kb = {k for k in D.simhash_band_keys(b)}
        assert ka & kb


def test_ngram_jaccard():
    assert D.ngram_jaccard(BASE, BASE) == 1.0
    assert D.ngram_jaccard(BASE, NEAR) > 0.5
    assert D.ngram_jaccard(BASE, OTHER) < 0.1
    assert D.ngram_jaccard("", "") == 1.0


def test_exact_dedup():
    kept = SD.exact_dedup(_docs(), "text", "doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == [1, 3, 4, 5]  # doc 2 removed, min-id kept


def test_exact_dedup_ids():
    out = SD.exact_dedup_ids(_docs(), "text", "doc_id").to_pandas()
    assert sorted(out["doc_id"]) == [1, 3, 4, 5]


def test_minhash_dedup_pipeline():
    kept_ds, labels_ds = SD.minhash_dedup(_docs(), "text", "doc_id")
    kept = sorted(kept_ds.to_pandas()["doc_id"])
    labels = {r["node"]: r["label"] for r in labels_ds.take_all()}
    # 1,2,3 cluster together (exact + near dup); min id 1 survives.
    assert 1 in kept and 4 in kept and 5 in kept
    assert 2 not in kept and 3 not in kept
    assert labels[2] == 1 and labels[3] == 1


def test_simhash_pairs_pipeline():
    pairs = SD.simhash_pairs(_docs(), "text", "doc_id", max_hamming=8).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (1, 2) in got            # identical docs, hamming 0
    assert all({1, 2, 3} >= set(p) for p in got)  # OTHER never pairs


def test_verify_pairs_jaccard():
    pairs = SD.minhash_candidates(_docs(), "text", "doc_id", est_threshold=0.5)
    texts_ref = ray.put({1: BASE, 2: BASE, 3: NEAR, 4: OTHER, 5: ""})
    verified = SD.verify_pairs_jaccard(pairs, texts_ref, threshold=0.8).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(verified["id_a"], verified["id_b"])}
    assert (1, 2) in got
    assert all(j >= 0.8 for j in verified["jaccard"])


def test_cluster_pairs_union_find():
    labels = SD._cluster_pairs([(1, 2), (2, 3), (7, 8)])
    assert labels[1] == labels[2] == labels[3] == 1
    assert labels[7] == labels[8] == 7


def test_cluster_pairs_min_id_is_natural_order():
    """Union-find survivor must be the NATURAL min id (9 beats 10), matching
    exact_dedup's Min(id) convention — not lexicographic ('10' < '9')."""
    labels = SD._cluster_pairs([(9, 10), (10, 11), (2, 30)])
    assert labels[9] == 9 and labels[10] == 9 and labels[11] == 9
    assert labels[30] == 2


def min_id_rows(rows):
    """Plain-Python exact-dedup oracle: the full min-id row per text."""
    best = {}
    for r in rows:
        if r["text"] not in best or r["doc_id"] < best[r["text"]]["doc_id"]:
            best[r["text"]] = r
    return sorted(best.values(), key=lambda r: r["doc_id"])


def test_exact_dedup_strategies_equivalent():
    """The min-id row per text survives whole, nested struct column and
    empty text included (oracle: plain Python)."""
    rows = [{"doc_id": i, "text": t, "meta": {"n": i, "tags": [t[:5], "x"]}}
            for i, t in [(4, OTHER), (2, BASE), (1, BASE), (3, NEAR),
                         (6, ""), (5, "")]]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    got = SD.exact_dedup(ds, "text", "doc_id").take_all()
    assert sorted(got, key=lambda r: r["doc_id"]) == min_id_rows(rows)
    assert [r["doc_id"] for r in min_id_rows(rows)] == [1, 3, 4, 5]


def test_cluster_pairs_distributed_matches_union_find():
    """Label rounds (propagation + pointer jumping) == driver union-find,
    including a long chain (pathological pair volume shape)."""
    import ray.data as rd

    # chain 0-1-2-...-8 (diameter 8: exercises pointer jumping — plain
    # propagation would need 8 rounds, jumping converges in ~4),
    # plus a separate triangle and an isolated pair.
    pairs = [(i, i + 1) for i in range(8)]
    pairs += [(100, 101), (101, 102), (100, 102), (200, 201)]
    ref = SD._cluster_pairs(pairs)
    pairs_ds = rd.from_items([{"id_a": a, "id_b": b} for a, b in pairs])
    got_rows = SD.cluster_pairs_distributed(pairs_ds).take_all()
    got = {r["node"]: r["label"] for r in got_rows}
    assert got == ref
    assert got[8] == 0 and got[102] == 100 and got[201] == 200


def test_verify_pairs_jaccard_join_equals_broadcast():
    ds = _docs()
    pairs = SD.minhash_candidates(ds, "text", "doc_id", est_threshold=0.3)
    texts = {r["doc_id"]: r["text"] for r in ds.take_all()}
    bc = SD.verify_pairs_jaccard(pairs, ray.put(texts), n=3,
                                 threshold=0.4).to_pandas()
    jn = SD.verify_pairs_jaccard_join(pairs, ds, "doc_id", "text", n=3,
                                      threshold=0.4).to_pandas()
    key = lambda df: sorted(zip(df["id_a"], df["id_b"],
                                df["jaccard"].round(9)))
    assert key(jn) == key(bc)
    assert (1, 2) in {(a, b) for a, b in zip(jn["id_a"], jn["id_b"])}


def candidates_oracle(rows, threshold):
    """Plain-Python MinHash candidates: every pair of non-blank docs that
    shares any band key, with its signature estimate, kept at
    ``est >= threshold`` — one entry per pair, ``id_a < id_b``."""
    sigs = {r["doc_id"]: D.minhash_signature(r["text"], SD.NUM_PERM,
                                             SD.SHINGLE_K)
            for r in rows if r["text"] and r["text"].strip()}
    keys = {i: set(D.band_keys(s, SD.BANDS)) for i, s in sigs.items()}
    ids = sorted(sigs)
    out = {}
    for x, a in enumerate(ids):
        for b in ids[x + 1:]:
            est = float((sigs[a] == sigs[b]).mean())
            if keys[a] & keys[b] and est >= threshold:
                out[(a, b)] = est
    return out


def dedup_oracle(rows):
    """Plain-Python near-dedup: union-find labels over the candidate
    oracle's pairs, and the ids that are not a non-min cluster member."""
    labels = SD._cluster_pairs(
        candidates_oracle(rows, SD.DEDUP_EST_THRESHOLD))
    kept = sorted(r["doc_id"] for r in rows
                  if labels.get(r["doc_id"], r["doc_id"]) == r["doc_id"])
    return kept, labels


def test_minhash_dedup_distributed_labeling_matches_driver():
    """The distributed labels and survivors equal the driver-side oracle
    (candidate oracle -> ``_cluster_pairs`` union-find)."""
    rows = _docs().take_all()
    kept, labels = SD.minhash_dedup(_docs(), "text", "doc_id")
    want_kept, want_labels = dedup_oracle(rows)
    assert {r["node"]: r["label"] for r in labels.take_all()} == want_labels
    assert sorted(kept.to_pandas()["doc_id"]) == want_kept == [1, 4, 5]


def test_minhash_candidates_all_empty_corpus():
    """All-empty/whitespace docs: no signatures exist, and the candidate
    stage must return an empty pairs dataset instead of KeyError-ing on the
    schemaless empty aggregate (review finding)."""
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import minhash_candidates

    ds = rd.from_items([{"doc_id": 1, "text": "   "}, {"doc_id": 2, "text": ""}])
    out = minhash_candidates(ds, "text", "doc_id")
    assert out.count() == 0
    # the empty result still carries the pairs schema (to_pandas on an
    # empty Dataset drops columns — a Ray quirk — so check schema())
    assert set(out.schema().names) >= {"id_a", "id_b"}


_TEXT_POOL = [BASE, NEAR, OTHER, BASE + " and then some", OTHER[:60], "",
              "   ", "x", BASE.upper()]


@settings(max_examples=12, deadline=None)
@example(picks=[5, 6, 5], string_ids=True, threshold=0.5)  # all blank
@example(picks=[0, 0, 1, 3, 2, 5], string_ids=False, threshold=0.5)
@given(picks=st.lists(st.integers(0, len(_TEXT_POOL) - 1), max_size=9),
       string_ids=st.booleans(),
       threshold=st.sampled_from([0.3, 0.5, 0.8]))
def test_minhash_candidates_distributed_matches_driver(picks, string_ids,
                                                       threshold):
    """The one-exchange candidates (each pair emitted once, from its lowest
    colliding band) equal the driver-side plain-Python oracle: one row per
    pair, same estimate; empty and blank texts never pair, string ids keep
    their type, and an all-blank corpus returns a typed empty table."""
    rows = [{"doc_id": f"d{i:02d}" if string_ids else i,
             "text": _TEXT_POOL[p]} for i, p in enumerate(picks)]
    id_type = pa.string() if string_ids else pa.int64()
    ds = ray.data.from_arrow(pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", id_type), ("text", pa.string())])))
    out = SD.minhash_candidates(ds, "text", "doc_id",
                                est_threshold=threshold)
    got = {(r["id_a"], r["id_b"]): r["est_jaccard"] for r in out.take_all()}
    assert got == candidates_oracle(rows, threshold)
    assert out.count() == len(got)  # no pair twice
    sch = out.schema().base_schema
    assert sch.field("id_a").type == sch.field("id_b").type == id_type


def test_minhash_dedup_string_ids_match_oracle():
    """String ids end to end: survivors and the label Dataset equal the
    driver-side oracle, and the labels keep the string id type."""
    texts = {1: BASE, 2: BASE, 3: NEAR, 4: OTHER, 5: ""}
    rows = [{"doc_id": f"u{i}", "text": t} for i, t in texts.items()]
    kept_s, lab_s = SD.minhash_dedup(ray.data.from_items(rows), "text",
                                     "doc_id")
    want_kept, want_labels = dedup_oracle(rows)
    assert sorted(kept_s.to_pandas()["doc_id"]) == want_kept \
        == ["u1", "u4", "u5"]
    got_s = {r["node"]: r["label"] for r in lab_s.take_all()}
    assert got_s == want_labels == {"u2": "u1", "u3": "u1", "u1": "u1"}
    assert pa.types.is_string(lab_s.schema().base_schema.field("node").type)


def test_minhash_dedup_distributed_no_dups():
    """No duplicate clusters: the plan returns the corpus unchanged
    and an EMPTY label dataset."""
    ds = ray.data.from_items(
        [{"doc_id": 3, "text": NEAR}, {"doc_id": 4, "text": OTHER}]
    )
    kept, labels = SD.minhash_dedup(ds, "text", "doc_id")
    assert sorted(kept.to_pandas()["doc_id"]) == [3, 4]
    assert labels.count() == 0


def test_minhash_candidates_distributed_string_empty_typed():
    """Zero duplicate band keys on a STRING-id corpus: the empty pairs
    dataset must carry the string id type, not int64 (ADVICE r2)."""
    ds = ray.data.from_items(
        [{"doc_id": "a", "text": NEAR}, {"doc_id": "b", "text": OTHER}]
    )
    out = SD.minhash_candidates(ds, "text", "doc_id")
    assert out.count() == 0
    sch = out.schema().base_schema
    assert pa.types.is_string(sch.field("id_a").type) or \
        pa.types.is_large_string(sch.field("id_a").type), sch


def test_edit_distance_join_matches_bruteforce():
    """Deletion-neighborhood blocking is COMPLETE at d=1 and d=2: every
    pair within the cap is found, every found pair verifies exactly."""
    strs = ["hello", "hellp", "hell", "shell", "world", "word", "wordl",
            "xyz", "", "h", "hello"]
    rows = [{"doc_id": i, "s": s} for i, s in enumerate(strs)]
    for md in (1, 2):
        out = SD.edit_distance_join(
            ray.data.from_items(rows).repartition(3), "s", "doc_id",
            max_dist=md).to_pandas()
        got = {(a, b): d for a, b, d in
               zip(out["id_a"], out["id_b"], out["dist"])}
        ref = {}
        for i in range(len(strs)):
            for j in range(i + 1, len(strs)):
                d = SD._levenshtein(strs[i], strs[j], md)
                if d <= md:
                    ref[(i, j)] = d
        assert got == ref, md
    # no-pairs corpus keeps the typed schema
    one = SD.edit_distance_join(
        ray.data.from_items([{"doc_id": 1, "s": "abcdef"}]), "s", "doc_id")
    assert one.count() == 0
    assert set(one.schema().names) == {"id_a", "id_b", "dist"}


def test_levenshtein_cap_semantics():
    assert SD._levenshtein("", "", 1) == 0
    assert SD._levenshtein("", "ab", 1) == 2  # cap+1 (far)
    assert SD._levenshtein("abc", "abd", 1) == 1
    assert SD._levenshtein("abc", "xyz", 2) == 3  # cap+1


def test_minhash_dedup_antijoin_survivors_keep_full_rows():
    """The anti-join survivors are the oracle's ids with every column of
    their input row intact (a nested struct column included), and the
    labels equal the oracle's."""
    rows = [{"doc_id": i, "text": t, "meta": {"n": i, "tags": [t[:5], "x"]}}
            for i, t in [(4, OTHER), (2, BASE), (1, BASE), (3, NEAR),
                         (6, ""), (5, BASE + " and then some")]]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    kept, labels = SD.minhash_dedup(ds, "text", "doc_id")
    want_kept, want_labels = dedup_oracle(rows)
    got = sorted(kept.take_all(), key=lambda r: r["doc_id"])
    assert got == sorted((r for r in rows if r["doc_id"] in want_kept),
                         key=lambda r: r["doc_id"])
    assert {r["node"]: r["label"] for r in labels.take_all()} == want_labels


def test_cluster_pairs_distributed_raises_past_round_cap(monkeypatch):
    """Labels still moving after LABEL_ROUNDS rounds and one confirming
    round raise instead of returning a partial merge; the same path graph
    converges at the default cap."""
    import pytest

    # A sorted path 0-1-...-40 whose blocks hold no two adjacent edges, so
    # the batch-local contraction leaves it a path.
    edges = [(i, i + 1) for i in range(0, 40, 2)] + \
            [(i, i + 1) for i in range(1, 40, 2)]
    ds = ray.data.from_items(
        [{"id_a": a, "id_b": b} for a, b in edges]).repartition(2)
    monkeypatch.setattr(SD, "LABEL_ROUNDS", 2)
    with pytest.raises(RuntimeError, match="still moving"):
        SD.cluster_pairs_distributed(ds).take_all()
    monkeypatch.undo()
    got = {r["node"]: r["label"]
           for r in SD.cluster_pairs_distributed(ds).take_all()}
    assert got == SD._cluster_pairs(edges)


def test_minhash_dedup_at_most_four_executions():
    """``minhash_dedup`` plus ``labels.count()`` runs at most 4 Ray Data
    executions on planted near-copies (candidates + label state, one label
    round, the label count), with the oracle's survivors and labels."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from document_text_extraction_ray.sources.corpus import (
        synth_corpus_table,
    )

    pages = synth_corpus_table(40, seed=42, include_golden=False)
    rows = [{"doc_id": u, "text": t} for u, t in zip(
        pages.column("url").to_pylist(), pages.column("text").to_pylist())]
    rows += [{"doc_id": r["doc_id"] + "?copy",
              "text": r["text"] + " one short closing note"}
             for r in rows[:3]]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).materialize()
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    StreamingExecutor.execute = counted
    try:
        kept, labels = SD.minhash_dedup(ds, "text", "doc_id")
        n_labeled = labels.count()
    finally:
        StreamingExecutor.execute = execute
    assert len(executions) <= 4, len(executions)
    want_kept, want_labels = dedup_oracle(rows)
    assert n_labeled == len(want_labels) == 6
    assert {r["node"]: r["label"] for r in labels.take_all()} == want_labels
    assert sorted(kept.to_pandas()["doc_id"]) == want_kept


# ----------------------------------------- prefix-filter set-similarity join

def _setsim_brute(df, num, den, n=3):
    from document_text_extraction_ray.functions.dedup import word_ngrams

    sets = {r.doc_id: word_ngrams(r.text, n)
            for r in df.itertuples() if word_ngrams(r.text, n)}
    out = []
    ids = sorted(sets)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            sh = len(sets[a] & sets[b])
            if sh * den >= num * (len(sets[a]) + len(sets[b]) - sh):
                out.append((a, b, sh, len(sets[a]), len(sets[b])))
    return sorted(out)


def _setsim_fixture():
    import pandas as pd

    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(300)]
    docs = []
    for c in range(30):
        base = [vocab[rng.randint(300)] for _ in range(rng.randint(20, 60))]
        docs.append(" ".join(base))
        for _ in range(rng.randint(0, 3)):
            mod = list(base)
            for _ in range(rng.randint(1, 3)):
                mod[rng.randint(len(mod))] = vocab[rng.randint(300)]
            docs.append(" ".join(mod))
    for _ in range(40):  # short/noise docs, incl. sub-n-token and empty
        docs.append(" ".join(vocab[rng.randint(300)]
                             for _ in range(rng.randint(0, 8))))
    docs.append("")
    return pd.DataFrame({"doc_id": range(len(docs)), "text": docs})


def test_setsim_prefix_join_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import setsim_prefix_join

    df = _setsim_fixture()
    ds = rd.from_pandas(df).repartition(6)
    for num, den in [(4, 5), (1, 2), (2, 3)]:
        got = setsim_prefix_join(ds, "text", "doc_id", n=3,
                                 threshold=(num, den)).to_pandas()
        got_t = sorted(map(tuple, got[
            ["id_a", "id_b", "shared", "size_a", "size_b"]].to_numpy())) \
            if len(got) else []
        want = _setsim_brute(df, num, den)
        assert want, (num, den)  # fixture must exercise non-empty output
        assert got_t == want, (num, den)


def test_setsim_prefix_join_empty_result_keeps_schema(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import setsim_prefix_join

    df = _setsim_fixture()
    out = setsim_prefix_join(rd.from_pandas(df).repartition(4), "text",
                             "doc_id", n=3, threshold=(99, 100))
    assert out.count() == 0
    # to_pandas on an empty Dataset drops columns (Ray quirk) — the typed
    # head pins schema() (the minhash all-empty-corpus convention).
    assert set(out.schema().names) >= {"id_a", "id_b", "shared",
                                       "size_a", "size_b"}


def test_setsim_snapshot_anti_join_matches_brute_force(ray_session):
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.functions.dedup import word_ngrams
    from document_text_extraction_ray.stages.dedup import (
        setsim_snapshot_anti_join)

    rng = np.random.RandomState(9)
    vocab = [f"w{i}" for i in range(300)]
    old_docs, new_docs = [], []
    for _ in range(25):
        base = [vocab[rng.randint(300)] for _ in range(rng.randint(20, 60))]
        old_docs.append(" ".join(base))
        if rng.rand() < 0.6:  # some new docs are near-dups of old ones
            mod = list(base)
            for _ in range(rng.randint(1, 3)):
                mod[rng.randint(len(mod))] = vocab[rng.randint(300)]
            new_docs.append(" ".join(mod))
    for _ in range(20):
        new_docs.append(" ".join(vocab[rng.randint(300)]
                                 for _ in range(rng.randint(5, 40))))
    new_docs.append("")  # empty new doc always survives (never matches)
    # OVERLAPPING id spaces on purpose — side-prefixed member keys
    old = pd.DataFrame({"doc_id": range(len(old_docs)), "text": old_docs})
    new = pd.DataFrame({"doc_id": range(len(new_docs)), "text": new_docs})

    def brute(num, den, n=3):
        osets = [word_ngrams(t, n) for t in old_docs]
        keep = []
        for i, t in enumerate(new_docs):
            s = word_ngrams(t, n)
            matched = False
            if s:
                for o in osets:
                    if not o:
                        continue
                    sh = len(s & o)
                    if sh * den >= num * (len(s) + len(o) - sh):
                        matched = True
                        break
            keep.append(not matched)
        return [i for i, k in enumerate(keep) if k]

    for num, den in [(4, 5), (1, 2)]:
        out = setsim_snapshot_anti_join(
            rd.from_pandas(new).repartition(4),
            rd.from_pandas(old).repartition(3),
            "text", "doc_id", n=3, threshold=(num, den)).to_pandas()
        assert sorted(out["doc_id"].tolist()) == sorted(brute(num, den)), \
            (num, den)


def test_dedup_keep_best_policy_and_ties():
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import dedup_keep_best

    rows = []
    # 3 clusters x 4 variants; score descending should win, ties -> min id
    for c in range(3):
        for v in range(4):
            rows.append({"id": c * 10 + v, "text": f"cluster-{c}",
                         "score": [5, 9, 9, 1][v]})
    rows.append({"id": 99, "text": "singleton", "score": 0})
    out = dedup_keep_best(
        rd.from_items(rows), "text", "id", ["score"],
        ascending=[False], n_buckets=4).to_pandas().sort_values("id")
    # winner per cluster: score 9 appears twice (v=1,2) -> min id wins
    assert sorted(out["id"]) == [1, 11, 21, 99]
    assert set(out.columns) == {"id", "text", "score"}


def test_merge_survivorship_field_level_coalesce():
    """Per-field first-non-null in priority order; all-null fields stay
    null; priority descending also works."""
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import merge_survivorship

    rows = [
        {"ent": 1, "pri": 0, "email": None, "phone": "a0"},
        {"ent": 1, "pri": 1, "email": "e1", "phone": "a1"},
        {"ent": 1, "pri": 2, "email": "e2", "phone": None},
        {"ent": 2, "pri": 0, "email": None, "phone": None},
        {"ent": 2, "pri": 1, "email": None, "phone": "b1"},
    ]
    out = merge_survivorship(rd.from_items(rows), "ent", "pri",
                             ["email", "phone"], n_buckets=4) \
        .to_pandas().sort_values("ent").reset_index(drop=True)
    assert out.loc[0, "email"] == "e1"      # first non-null by pri asc
    assert out.loc[0, "phone"] == "a0"
    assert out.loc[1, "email"] is None or out.loc[1, "email"] != out.loc[1, "email"]  # null
    assert out.loc[1, "phone"] == "b1"

    newest = merge_survivorship(rd.from_items(rows), "ent", "pri",
                                ["email", "phone"], ascending=[False],
                                n_buckets=4) \
        .to_pandas().sort_values("ent").reset_index(drop=True)
    assert newest.loc[0, "email"] == "e2"   # newest-wins policy
    assert newest.loc[0, "phone"] == "a1"


def test_cdc_chunks_brute_force_and_shift_property():
    """Vectorized CDC kernel == per-position brute force; a front
    insertion re-chunks only its neighborhood (the content-defined
    property fixed-size blocks lack)."""
    import random

    from document_text_extraction_ray.stages.dedup import (
        CDC_B,
        CDC_MASK,
        CDC_P,
        CDC_W,
        _cdc_chunks,
    )

    def brute(text):
        b = text.encode()
        n = len(b)
        bounds = []
        for i in range(CDC_W - 1, n):
            h = 0
            for k in range(CDC_W):
                h = (h + b[i - k] * pow(CDC_B, k, CDC_P)) % CDC_P
            if h % CDC_MASK == 0:
                bounds.append(i + 1)
        starts, stops = [0] + bounds, bounds + [n]
        return [text[a:z] for a, z in zip(starts, stops) if z > a]

    rng = random.Random(5)
    for n in [0, 1, 15, 16, 17, 100, 333]:
        t = "".join(rng.choice("abcdefgh \n.") for _ in range(n))
        assert _cdc_chunks(t) == brute(t), n
        assert "".join(_cdc_chunks(t)) == t        # lossless split

    base = "".join(rng.choice("abcdefgh ") for _ in range(2000))
    c1, c2 = _cdc_chunks(base), _cdc_chunks("XYZ" + base)
    shared = sum(1 for a, b in zip(reversed(c1), reversed(c2)) if a == b)
    assert shared >= len(c1) - 3               # only the head re-chunks


def test_cdc_chunk_stats_dedup_ratio():
    """Docs sharing a long boilerplate block dedup its chunks; unique
    tails stay unique."""
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import (
        _cdc_chunks,
        cdc_chunk_stats,
    )

    boiler = ("footer terms and conditions apply " * 20).strip()
    rows = [{"source": "s", "text": boiler + f" unique tail {i} xyz"}
            for i in range(10)]
    out = cdc_chunk_stats(rd.from_items(rows), n_buckets=4).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_chunks"] > r["n_unique"]           # real dedup happened
    assert r["bytes_total"] > r["bytes_unique"]
    # exact replay vs local reference
    from collections import Counter
    c = Counter()
    sizes = {}
    for row in rows:
        for ch in _cdc_chunks(row["text"]):
            c[ch] += 1
            sizes[ch] = len(ch.encode())
    assert r["n_chunks"] == sum(c.values())
    assert r["n_unique"] == len(c)
    assert r["bytes_total"] == sum(n * sizes[ch] for ch, n in c.items())
    assert r["bytes_unique"] == sum(sizes.values())


def test_fingerprint_neardup_pairs_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.functions.dedup import hamming64
    from document_text_extraction_ray.stages.dedup import (
        fingerprint_neardup_pairs,
    )

    rng = np.random.RandomState(3)
    fps = rng.randint(0, 2**63, size=60, dtype=np.int64).astype(np.uint64)
    # plant near-dups: flip <= 3 bits of earlier fingerprints
    fps[40] = fps[0] ^ np.uint64(1 << 5)
    fps[41] = fps[1] ^ np.uint64((1 << 10) | (1 << 63))
    fps[42] = fps[2]  # exact dup
    rows = [{"img_id": i, "fp": int(f)} for i, f in enumerate(fps)]

    ref = {}
    for i in range(60):
        for j in range(i + 1, 60):
            h = hamming64(int(fps[i]), int(fps[j]))
            if h <= 6:
                ref[(i, j)] = h

    ds = rd.from_items(rows)
    out = fingerprint_neardup_pairs(ds, "fp", "img_id",
                                    max_hamming=6).to_pandas()
    got = {(int(r.id_a), int(r.id_b)): int(r.hamming)
           for r in out.itertuples()}
    assert got == ref
    assert (0, 40) in got and (1, 41) in got and got[(2, 42)] == 0


def test_containment_pairs_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.functions.dedup import word_ngrams
    from document_text_extraction_ray.stages.dedup import containment_pairs

    base = "the quick brown fox jumps over the lazy dog again and again"
    docs = {
        0: base,
        1: base + " with a tail of extra words attached at the end here",
        2: "totally different content about ray data streaming engines",
        3: base,                        # exact duplicate of 0
        4: "the quick brown fox jumps",  # short prefix: contained in 0
    }
    rows = [{"doc_id": i, "text": t} for i, t in docs.items()]
    out = containment_pairs(rd.from_items(rows), "text", "doc_id",
                            n=3, threshold=(1, 2), df_cap=64,
                            n_buckets=4).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}

    sets = {i: set(word_ngrams(t, 3)) for i, t in docs.items()}
    ref = set()
    for a in docs:
        for b in docs:
            if a >= b:
                continue
            shared = len(sets[a] & sets[b])
            if shared * 2 >= min(len(sets[a]), len(sets[b])):
                ref.add((a, b))
    assert got == ref
    assert (0, 4) in got  # containment pair invisible to jaccard >= 0.5
    row = out[(out["id_a"] == 0) & (out["id_b"] == 4)].iloc[0]
    assert int(row["shared"]) == len(sets[0] & sets[4])
    assert int(row["size_a"]) == len(sets[0])
    assert int(row["size_b"]) == len(sets[4])


def test_containment_pairs_df_cap_drops_hot_shingles(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import containment_pairs

    # every doc shares ONE hot shingle; with df_cap below the corpus size
    # the hot shingle contributes nothing and no pair survives
    rows = [{"doc_id": i, "text": f"common shared prefix unique{i} "
                                  f"tail{i} word{i}"}
            for i in range(10)]
    out = containment_pairs(rd.from_items(rows), "text", "doc_id",
                            n=3, threshold=(1, 4), df_cap=5,
                            n_buckets=4).to_pandas()
    assert len(out) == 0


def test_split_doc_pairs_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import split_doc_pairs

    words = [f"w{i}" for i in range(40)]
    docs = {
        0: " ".join(words[:20]),    # tail = head of doc 1
        1: " ".join(words[12:32]),  # tail = head of doc 2
        2: " ".join(words[24:40]),
        3: "completely unrelated text about something else entirely",
    }
    rows = [{"doc_id": i, "text": t} for i, t in docs.items()]
    out = split_doc_pairs(rd.from_items(rows), "text", "doc_id",
                          n=3, k=8, min_common=4, n_buckets=4).to_pandas()
    got = {(int(a), int(b)): int(c) for a, b, c in
           zip(out["id_a"], out["id_b"], out["n_common"])}

    def grams(t):
        toks = t.lower().split()
        return [" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)]

    ref = {}
    for a, ta in docs.items():
        for b, tb in docs.items():
            if a == b:
                continue
            common = len(set(grams(ta)[-8:]) & set(grams(tb)[:8]))
            if common >= 4:
                ref[(a, b)] = common
    assert got == ref
    assert (0, 1) in got and (1, 2) in got
    assert (1, 0) not in got  # directional: head-of-A vs tail-of-B differs


def test_content_defined_chunks_resync_and_counts():
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.functions.textstats import md5_u64
    from document_text_extraction_ray.stages.dedup import (
        content_defined_chunks,
    )

    boiler = (" shared boilerplate tail that is long enough to span chunks"
              " and then some more words to force multiple interior content"
              " defined boundaries inside the shared suffix region of every"
              " document in the corpus")
    docs = [(0, "alpha beta gamma delta epsilon zeta" + boiler),
            (1, "completely different prefix words here" + boiler),
            (2, "third prefix" + boiler)]

    def ref_chunks(text, w=8, b=31, d=32):
        codes = np.frombuffer(text.encode(), dtype=np.uint8).astype(np.int64)
        cuts = [p + 1 for p in range(w - 1, len(codes))
                if sum(int(codes[p - j]) * b ** j for j in range(w)) % d == 0]
        if not cuts or cuts[-1] != len(codes):
            cuts.append(len(codes))
        out, prev = [], 0
        for c in cuts:
            out.append(md5_u64(text[prev:c]))
            prev = c
        return out

    seen, expect = set(), {}
    for did, txt in docs:
        hs = ref_chunks(txt)
        dup = 0
        for h in hs:
            if h in seen:
                dup += 1
            seen.add(h)
        expect[did] = (len(hs), dup)

    ds = rd.from_items([{"doc_id": d, "text": t} for d, t in docs])
    out = content_defined_chunks(ds).to_pandas().sort_values("doc_id")
    got = {int(r.doc_id): (int(r.n_chunks), int(r.n_dup))
           for r in out.itertuples()}
    assert got == expect
    # re-synchronization: later docs must dedup at least one boilerplate
    # chunk despite fully different prefixes
    assert expect[1][1] >= 1 and expect[2][1] >= 1


def test_weighted_containment_counts_mass_not_sets():
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import (
        weighted_containment_pairs,
    )

    # doc 1 repeats doc 0's trigram block 3x inside filler; set
    # containment sees 1 shared shingle type, weighted sees the mass.
    block = "alpha beta gamma"
    docs = [
        {"doc_id": 0, "text": block},                       # 1 instance
        {"doc_id": 1, "text": " ".join([block] * 3)},       # 3x block
        {"doc_id": 2, "text": "unrelated words only here"},
    ]
    out = weighted_containment_pairs(
        rd.from_items(docs), "text", "doc_id", n=3,
        threshold=(1, 1), df_cap=64).to_pandas()
    # pair (0,1): doc0 has 1 shingle 'alpha beta gamma' (tf 1); doc1's
    # tokens = block*3 -> 7 trigrams, 'alpha beta gamma' tf 3 -> min 1.
    # inter=1+cross-boundary overlaps? only exact type matches count.
    row = out[(out.id_a == 0) & (out.id_b == 1)]
    assert len(row) == 1
    assert int(row.inter.iloc[0]) == 1          # min(1, 3)
    assert int(row.total_a.iloc[0]) == 1
    assert int(row.total_b.iloc[0]) == 7
    # threshold filter: inter*1 >= 1*min(1,7) -> kept
    assert not ((out.id_a == 0) & (out.id_b == 2)).any()


def test_weighted_containment_df_cap_drops_stopword_shingles():
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import (
        weighted_containment_pairs,
    )

    # the shared shingle appears in 3 docs; df_cap=2 drops it entirely
    docs = [{"doc_id": i, "text": "common shared phrase"} for i in range(3)]
    out = weighted_containment_pairs(
        rd.from_items(docs), "text", "doc_id", n=3,
        threshold=(1, 100), df_cap=2).to_pandas()
    assert len(out) == 0


def test_dup_span_align_finds_copied_span(ray_session):
    """A verbatim span shared between two blocked docs shows up as one
    diagonal run of exactly (span_words - k + 1) grams at the offset
    between the copies; unrelated docs in other blocks emit nothing."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import dup_span_align

    span = "alpha beta gamma delta epsilon zeta"  # 6 words -> 4 grams
    rows = [
        {"doc_id": 1, "key": "K", "text": "intro words here " + span},
        {"doc_id": 2, "key": "K", "text": span + " closing remark words"},
        {"doc_id": 3, "key": "other", "text": "nothing shared at all"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    df = dup_span_align(ds, "key", text_column="text", k=3).to_pandas()
    assert len(df) == 1
    r = df.iloc[0]
    assert (r["a"], r["b"]) == (1, 2)
    assert r["max_run"] == 4          # 6-word span, k=3
    assert r["best_diag"] == 3        # doc1 has 3 lead words before span
    assert r["n_matches"] >= 4


def test_dup_span_align_tie_breaks_smallest_diag(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import dup_span_align

    # "a b c" appears twice in doc 9 -> two diagonals with equal run 1
    rows = [
        {"doc_id": 8, "key": "K", "text": "a b c x y z"},
        {"doc_id": 9, "key": "K", "text": "q q q a b c r r r a b c"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    df = dup_span_align(ds, "key", text_column="text", k=3).to_pandas()
    r = df.iloc[0]
    assert r["n_matches"] == 2
    assert r["max_run"] == 1
    assert r["best_diag"] == -9  # i=0 matches j in {3, 9}: diags -3, -9


def test_sorted_neighborhood_exactly_once_across_buckets(ray_session):
    """Tiny bucket_size forces pairs to straddle bucket edges; every
    (i, i+d) pair for d <= window must appear exactly once."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import (
        sorted_neighborhood_pairs)

    n, w, B = 23, 3, 5
    rows = [{"k": f"k{i:03d}", "rid": i} for i in range(n)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    df = sorted_neighborhood_pairs(ds, ["k"], id_column="rid",
                                   window=w, bucket_size=B).to_pandas()
    got = sorted(zip(df["rid_a"], df["rid_b"], df["dist"]))
    want = sorted((i, i + d, d)
                  for i in range(n) for d in range(1, w + 1) if i + d < n)
    assert got == want


def test_sorted_neighborhood_rejects_window_ge_bucket(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from document_text_extraction_ray.stages.dedup import (
        sorted_neighborhood_pairs)

    ds = rd.from_arrow(pa.Table.from_pylist([{"k": "a", "rid": 1}]))
    with pytest.raises(ValueError):
        sorted_neighborhood_pairs(ds, ["k"], id_column="rid",
                                  window=8, bucket_size=8)


_NO_NEAR_DUPS_ONE_CPU = r"""
import json, random
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ray.data._internal.execution.streaming_executor import StreamingExecutor
from document_text_extraction_ray.stages import dedup as SD

rng = random.Random(7)
words = [f"w{i}" for i in range(5000)]
texts = [" ".join(rng.choice(words) for _ in range(60)) for _ in range(40)]
execute = StreamingExecutor.execute
out = {}
for kind, ids in (("str", [f"d{i}" for i in range(40)]), ("int", range(40))):
    ds = ray.data.from_arrow(pa.Table.from_pylist(
        [{"doc_id": i, "text": t} for i, t in zip(ids, texts)])).materialize()
    runs = []

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    StreamingExecutor.execute = counted
    try:
        kept, labels = SD.minhash_dedup(ds, "text", "doc_id")
        n_labels = labels.count()
    finally:
        StreamingExecutor.execute = execute
    schema = labels.schema()
    out[kind] = {"executions": len(runs), "labels": n_labels,
                 "types": [str(t) for t in schema.types],
                 "names": list(schema.names), "kept": kept.count()}
print(json.dumps(out))
ray.shutdown()
"""


def test_minhash_dedup_without_near_dups_runs_its_pairs_once():
    """On a corpus with no near-duplicates (one CPU), ``minhash_dedup``
    plus ``labels.count()`` is ONE execution, not two: the empty label
    table takes its id type from the input, instead of re-running the
    signature pipeline for ``pairs_ds``'s schema.  The labels stay empty
    and typed by the id column, for string and int ids."""
    import json
    import os
    import sys

    from child import run_child

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = run_child(
        [sys.executable, "-c", _NO_NEAR_DUPS_ONE_CPU], timeout=180, cwd=root,
        env={**os.environ, "PYTHONPATH": root},
    )
    got = json.loads(r.stdout.strip().splitlines()[-1])
    for kind, id_type in (("str", "string"), ("int", "int64")):
        assert got[kind] == {"executions": 1, "labels": 0,
                             "types": [id_type, id_type],
                             "names": ["node", "label"], "kept": 40}, kind
