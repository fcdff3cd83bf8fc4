"""Corpus-lexicon operators: bigram LM scoring, TF-IDF top terms,
inverted index, BPE learning, plus the rollup / set-membership aggregates.

Every operator is checked against a plain-Python (pandas/Counter) local
reference over the same rows — the distributed plans are physical rewrites,
not approximations.
"""

import re
from collections import Counter

import pandas as pd
import pyarrow as pa
import ray.data as rd

from document_text_extraction_ray.stages.aggregate import (
    rollup_sum,
    set_membership,
)
from document_text_extraction_ray.stages.lexicon import (
    _apply_merges,
    bigram_lm_table,
    bpe_learn,
    bpe_pair_counts,
    inverted_index,
    lm_coverage_scores,
    tfidf_top_terms,
    word_counts,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick red fox",
    "lorem ipsum dolor sit amet the quick",
    "",  # no tokens -> no bigrams, must drop out of lm scores
    "single",  # one token -> no bigrams
    "dog dog dog the dog",  # repeated terms
    "Zebra 99 the QUICK brown",  # case folding + digits
]


def _docs():
    return rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(TEXTS)]
    ).repartition(3)


def _toks(t):
    return re.findall(r"[a-z0-9]+", (t or "").lower())


def test_bigram_lm_table_matches_counter():
    ref = Counter()
    for t in TEXTS:
        w = _toks(t)
        ref.update(a + " " + b for a, b in zip(w, w[1:]))
    got = bigram_lm_table(_docs()).to_pandas()
    assert dict(zip(got["bigram"], got["n"])) == dict(ref)


def test_lm_coverage_matches_reference():
    lm = Counter()
    per_doc = {}
    for i, t in enumerate(TEXTS):
        w = _toks(t)
        c = Counter(a + " " + b for a, b in zip(w, w[1:]))
        per_doc[i] = c
        lm.update(c)
    got = lm_coverage_scores(_docs()).to_pandas().sort_values("doc_id")
    expect = {
        i: (sum(c.values()), sum(k * lm[bg] for bg, k in c.items()))
        for i, c in per_doc.items() if c
    }
    assert dict(zip(got["doc_id"],
                    zip(got["n_bigrams"], got["coverage"]))) == expect
    # docs 3 and 4 have <2 tokens: absent by contract
    assert set(got["doc_id"]) == set(expect)


def test_tfidf_top_terms_ranking():
    tf = {i: Counter(_toks(t)) for i, t in enumerate(TEXTS)}
    df = Counter()
    for c in tf.values():
        df.update(c.keys())
    got = tfidf_top_terms(_docs(), k=2).to_pandas()
    for i, c in tf.items():
        if not c:
            continue
        ranked = sorted(c.items(), key=lambda kv: (-kv[1], df[kv[0]], kv[0]))
        sub = got[got["doc_id"] == i].sort_values("rnk")
        assert list(sub["term"]) == [t for t, _ in ranked[:2]]
        assert list(sub["tf"]) == [n for _, n in ranked[:2]]
        assert list(sub["df"]) == [df[t] for t, _ in ranked[:2]]


def test_inverted_index_postings_and_cap():
    got = inverted_index(_docs(), cap=2).to_pandas()
    row = got[got["term"] == "the"].iloc[0]
    # 'the' occurs in docs 0,1,2,5,6 -> df 5, postings capped at first 2
    assert row["df"] == 5
    assert row["postings"] == "0,1"
    row = got[got["term"] == "zebra"].iloc[0]
    assert row["df"] == 1 and row["postings"] == "6"


def _ref_bpe(texts, n_merges):
    wc = Counter()
    for t in texts:
        wc.update(_toks(t))
    merges, out = [], []
    for _ in range(n_merges):
        c = Counter()
        for w, n in wc.items():
            s = _apply_merges(w, merges)
            for a, b in zip(s, s[1:]):
                c[a + " " + b] += n
        if not c:
            break
        pair, cnt = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        a, b = pair.split(" ", 1)
        merges.append((a, b))
        out.append((a, b, cnt))
    return out


def test_bpe_learn_matches_local_reference():
    assert bpe_learn(_docs(), n_merges=4) == _ref_bpe(TEXTS, 4)


def test_bpe_pair_counts_first_iteration():
    wc_ds = word_counts(_docs())
    got = bpe_pair_counts(wc_ds).to_pandas()
    ref = Counter()
    wc = Counter()
    for t in TEXTS:
        wc.update(_toks(t))
    for w, n in wc.items():
        s = list(w) + ["</w>"]
        for a, b in zip(s, s[1:]):
            ref[a + " " + b] += n
    assert dict(zip(got["pair"], got["cnt"])) == dict(ref)


def test_rollup_sum_levels():
    rows = [
        {"a": "x", "b": "p", "v": 1},
        {"a": "x", "b": "q", "v": 2},
        {"a": "y", "b": "p", "v": 4},
        {"a": "y", "b": "p", "v": 8},
    ]
    out = rollup_sum(rd.from_items(rows).repartition(2), ["a", "b"],
                     "v").to_pandas()
    got = {(r["a"], r["b"]): (r["sum_v"], r["n"]) for _, r in out.iterrows()}
    assert got == {
        ("x", "p"): (1, 1), ("x", "q"): (2, 1), ("y", "p"): (12, 2),
        ("x", "ALL"): (3, 2), ("y", "ALL"): (12, 2),
        ("ALL", "ALL"): (15, 4),
    }


def test_set_membership_classes():
    rows = (
        [{"u": 1, "e": "click"}, {"u": 1, "e": "purchase"}]
        + [{"u": 2, "e": "click"}, {"u": 2, "e": "view"}]
        + [{"u": 3, "e": "purchase"}]
        + [{"u": 4, "e": "view"}]  # neither -> excluded
    )
    out = set_membership(rd.from_items(rows).repartition(3), "u", "e",
                         "click", "purchase").to_pandas()
    got = dict(zip(out["u"], out["membership"]))
    assert got == {1: "both", 2: "a_only", 3: "b_only"}


def test_term_cooccurrence_matches_reference():
    from itertools import combinations

    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens,
        term_cooccurrence,
    )

    texts = ["the cat sat on the mat", "the dog sat", "cat and dog",
             "mat cat the", ""]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    out = term_cooccurrence(rd.from_items(rows).repartition(3),
                            top_m=3, min_count=2).to_pandas()
    got = {(a, b): n for a, b, n in zip(out["a"], out["b"], out["n"])}
    ref = {}
    for t in texts:
        for a, b in combinations(sorted(set(_tokens(t)))[:3], 2):
            ref[(a, b)] = ref.get((a, b), 0) + 1
    ref = {k: v for k, v in ref.items() if v >= 2}
    assert got == ref


def test_bpe_encode_matches_local_reference():
    """Distributed encode == reference re-tokenization with the same
    learned merges (token counts, word counts, preview order)."""
    from document_text_extraction_ray.stages.lexicon import bpe_encode

    merges = bpe_learn(_docs(), n_merges=4)
    out = bpe_encode(_docs(), merges, preview_k=5).to_pandas() \
        .set_index("doc_id").sort_index()
    mg = [(a, b) for a, b, _ in merges]
    for i, t in enumerate(TEXTS):
        words = _toks(t)
        syms = [s for w in words for s in _apply_merges(w, mg)]
        assert out.loc[i, "n_words"] == len(words)
        assert out.loc[i, "n_tokens"] == len(syms)
        assert out.loc[i, "preview"] == " ".join(syms[:5])


def test_pmi_pair_stats_matches_local_reference(ray_session):
    from itertools import combinations

    from document_text_extraction_ray.stages.lexicon import (
        _tokens, pmi_pair_stats)

    texts = [
        "alpha beta gamma alpha",
        "alpha beta delta",
        "beta gamma epsilon zeta",
        "alpha beta gamma",
        "unrelated words only here",
        "",
    ]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})

    # local reference under the same per-doc cap
    capped = [sorted(set(_tokens(t)))[:20] for t in texts]
    pair_n = Counter()
    dfreq = Counter()
    for ts in capped:
        dfreq.update(ts)
        pair_n.update(combinations(ts, 2))
    want = sorted(
        (a, b, n, dfreq[a], dfreq[b], len(texts))
        for (a, b), n in pair_n.items() if n >= 2)

    out = pmi_pair_stats(rd.from_pandas(df).repartition(3),
                         top_m=20, min_count=2).to_pandas()
    got = sorted(map(tuple, out[
        ["a", "b", "n_pair", "df_a", "df_b", "n_docs"]].to_numpy()))
    assert got == want
    assert len(got) > 0


def test_index_delta_matches_local_reference(ray_session):
    from document_text_extraction_ray.stages.lexicon import (
        _tokens, index_delta)

    old_texts = {1: "alpha beta gamma", 2: "beta delta", 3: "solo unique",
                 4: ""}
    new_texts = {1: "alpha beta",          # gamma removed
                 2: "beta delta epsilon",  # epsilon added
                 3: "solo unique",         # unchanged -> absent from delta
                 5: "fresh doc words"}     # new doc: all terms added
    # doc 4 empty in old (no terms); doc 4 missing in new (no rows)
    old = rd.from_items([{"doc_id": k, "text": v}
                         for k, v in old_texts.items()])
    new = rd.from_items([{"doc_id": k, "text": v}
                         for k, v in new_texts.items()])

    out = index_delta(new, old).to_pandas().set_index("term")
    # local reference
    def postings(d):
        out = {}
        for doc, text in d.items():
            for term in set(_tokens(text)):
                out.setdefault(term, set()).add(doc)
        return out
    po, pn = postings(old_texts), postings(new_texts)
    want = {}
    for term in set(po) | set(pn):
        added = len(pn.get(term, set()) - po.get(term, set()))
        removed = len(po.get(term, set()) - pn.get(term, set()))
        if added or removed:
            want[term] = (added, removed)
    got = {t: (int(r["n_added"]), int(r["n_removed"]))
           for t, r in out.iterrows()}
    assert got == want
    assert "solo" not in got and "beta" not in got  # unchanged postings
    assert got["gamma"] == (0, 1) and got["epsilon"] == (1, 0)
    assert got["fresh"] == (1, 0)


def test_centroid_classify_matches_local_reference():
    """Distributed nearest-centroid classifier == Counter/dot local replay,
    including the deterministic smallest-label tie-break and the drop-out
    of docs with no centroid-overlapping tokens."""
    from document_text_extraction_ray.stages.lexicon import (
        _tokens,
        centroid_classify,
    )

    train_rows = [
        {"doc_id": 0, "label": "a", "text": "apple banana apple"},
        {"doc_id": 2, "label": "a", "text": "apple cherry"},
        {"doc_id": 4, "label": "b", "text": "dog cat dog"},
        {"doc_id": 6, "label": "b", "text": "cat mouse"},
        {"doc_id": 8, "label": "c", "text": "tie tie"},
        {"doc_id": 10, "label": "d", "text": "tie tie"},  # c/d tie on "tie"
    ]
    test_rows = [
        {"doc_id": 1, "label": "a", "text": "apple apple dog"},
        {"doc_id": 3, "label": "b", "text": "cat dog banana"},
        {"doc_id": 5, "label": "c", "text": "tie breaker"},  # tie -> "c"
        {"doc_id": 7, "label": "a", "text": "zzz qqq"},  # no overlap -> drops
        {"doc_id": 9, "label": "b", "text": ""},  # no tokens -> drops
    ]
    preds = centroid_classify(
        rd.from_items(train_rows), rd.from_items(test_rows),
        label_col="label", n_buckets=4,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    # local reference
    cent = Counter()
    for r in train_rows:
        for tok in _tokens(r["text"]):
            cent[(tok, r["label"])] += 1
    labels = sorted({r["label"] for r in train_rows})
    expected = {}
    for r in test_rows:
        tf = Counter(_tokens(r["text"]))
        scores = {
            lab: sum(k * cent.get((t, lab), 0) for t, k in tf.items())
            for lab in labels
        }
        scores = {lab: s for lab, s in scores.items() if s > 0}
        if not scores:
            continue
        best = max(scores.items(), key=lambda kv: (kv[1], [-ord(c) for c in kv[0]]))
        expected[r["doc_id"]] = (best[0], best[1])

    assert list(preds["doc_id"]) == sorted(expected)
    for _, row in preds.iterrows():
        lab, score = expected[row["doc_id"]]
        assert row["pred_label"] == lab, row
        assert row["score"] == score, row
    # the explicit tie doc
    tie = preds[preds["doc_id"] == 5].iloc[0]
    assert tie["pred_label"] == "c" and tie["score"] == 2


def test_simpson_diversity_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens, simpson_diversity,
    )

    rows = [{"source": f"s{i % 3}",
             "text": f"alpha beta w{i % 5} w{i % 7} alpha"}
            for i in range(40)]
    ds = rd.from_items(rows)
    out = simpson_diversity(ds, n_buckets=4).to_pandas() \
        .set_index("source").sort_index()

    from collections import Counter
    ref = {}
    for r in rows:
        c = ref.setdefault(r["source"], Counter())
        c.update(_tokens(r["text"]))
    assert set(out.index) == set(ref)
    for s, c in ref.items():
        assert out.loc[s, "n_tokens"] == sum(c.values())
        assert out.loc[s, "n_distinct"] == len(c)
        assert out.loc[s, "sum_sq"] == sum(v * v for v in c.values())


def test_vocab_overlap_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens, vocab_overlap,
    )

    rows = [{"source": f"s{i % 3}",
             "text": f"common w{i % 4} only{i % 3} x{i % 11}"}
            for i in range(30)]
    ds = rd.from_items(rows)
    out = vocab_overlap(ds, n_buckets=4).to_pandas()

    vocab = {}
    for r in rows:
        vocab.setdefault(r["source"], set()).update(_tokens(r["text"]))
    got = {(r.source_a, r.source_b):
           (int(r.n_common), int(r.n_a), int(r.n_b), int(r.n_union))
           for r in out.itertuples()}
    srcs = sorted(vocab)
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            inter = len(vocab[a] & vocab[b])
            assert got[(a, b)] == (inter, len(vocab[a]), len(vocab[b]),
                                   len(vocab[a] | vocab[b]))
    assert len(got) == 3


def test_vocab_coverage_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens, vocab_coverage,
    )

    rows = [{"text": f"common w{i % 9} rare{i} w{i % 3}"}
            for i in range(60)]
    out = vocab_coverage(rd.from_items(rows), sizes=(2, 10, 50),
                         n_buckets=4).to_pandas() \
        .set_index("vocab_size").sort_index()

    from collections import Counter
    c = Counter()
    for r in rows:
        c.update(_tokens(r["text"]))
    ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(c.values())
    for k in (2, 10, 50):
        cov = sum(n for _, n in ranked[:k])
        assert out.loc[k, "covered_tokens"] == cov
        assert out.loc[k, "total_tokens"] == total


def test_vocab_growth_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens,
        vocab_growth,
    )

    rows = [{"doc_id": i, "source": f"s{i % 2}",
             "text": f"alpha beta{i % 7} gamma{i % 3} delta{i}"}
            for i in range(40)]
    id_max = 39
    out = vocab_growth(rd.from_items(rows), id_max=id_max,
                       n_checkpoints=4, n_buckets=4).to_pandas()

    first = {}
    for r in rows:
        for w in set(_tokens(r["text"])):
            k = (r["source"], w)
            first[k] = min(first.get(k, r["doc_id"]), r["doc_id"])
    ref = {}
    for (src, _w), fid in first.items():
        ck = fid * 4 // (id_max + 1)
        ref.setdefault(src, {})[ck] = ref.get(src, {}).get(ck, 0) + 1
    for src, per in ref.items():
        cum = 0
        for ck in sorted(per):
            cum += per[ck]
            got = out[(out["source"] == src)
                      & (out["checkpoint"] == ck)]["vocab_size"]
            assert int(got.iloc[0]) == cum
    assert len(out) == sum(len(v) for v in ref.values())


def test_phrase_match_counts_and_overlaps():
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import phrase_match

    ds = rd.from_items([
        {"doc_id": 0, "text": "data slow data slow join"},   # 2 matches
        {"doc_id": 1, "text": "slow data"},                  # 0 (order)
        {"doc_id": 2, "text": "the data slow end"},          # 1
        {"doc_id": 3, "text": "nothing here"},               # absent
    ])
    out = phrase_match(ds, ["data", "slow"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["doc_id"]) == [0, 2]
    assert list(out["n_matches"]) == [2, 1]


def test_phrase_match_repeated_terms_overlapping():
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import phrase_match

    # "b b b b" contains "b b b" at positions 0 and 1 (overlap counts)
    ds = rd.from_items([{"doc_id": 0, "text": "b b b b"},
                        {"doc_id": 1, "text": "b b"}])
    out = phrase_match(ds, ["b", "b", "b"]).to_pandas()
    assert list(out["doc_id"]) == [0]
    assert list(out["n_matches"]) == [2]


def test_phrase_match_trigram_mixed():
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import phrase_match

    ds = rd.from_items([
        {"doc_id": 0, "text": "Merge SLOW join, merge slow join"},
        {"doc_id": 1, "text": "merge slow sort join"},
    ])
    out = phrase_match(ds, ["merge", "slow", "join"]).to_pandas()
    assert list(out["doc_id"]) == [0] and list(out["n_matches"]) == [2]


def test_skipgram_pairs_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        _tokens, skipgram_pairs,
    )

    rows = [{"text": f"a b c w{i % 4} b a w{i % 3}"} for i in range(30)]
    rows.append({"text": ""})
    rows.append({"text": "solo"})
    window, min_count = 2, 2
    out = skipgram_pairs(rd.from_items(rows), window=window,
                         min_count=min_count, n_buckets=4).to_pandas()
    got = {(r.center, r.context): r.n for r in out.itertuples()}

    from collections import Counter
    ref: Counter = Counter()
    for r in rows:
        w = _tokens(r["text"])
        for i, c in enumerate(w):
            for j in range(max(0, i - window), min(len(w), i + window + 1)):
                if j != i:
                    ref[(c, w[j])] += 1
    ref = {k: v for k, v in ref.items() if v >= min_count}
    assert got == ref


def test_textrank_keywords_matches_local_reference(ray_session):
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.functions.textstats import md5_u64
    from document_text_extraction_ray.stages.lexicon import (
        _tokens, skipgram_pairs, textrank_keywords,
    )

    rows = [{"text": f"data {['join','sort','scan'][i % 3]} engine "
                     f"w{i % 5} data engine"} for i in range(40)]
    k, window, min_count, SCALE, damp = 6, 2, 2, 10**12, 85
    out = textrank_keywords(rd.from_items(rows), window=window,
                            min_count=min_count, k=k, n_iters=3,
                            n_buckets=8).to_pandas()

    # local reference: same pair rule, same integer PR arithmetic
    from collections import Counter
    pc_: Counter = Counter()
    for r in rows:
        w = _tokens(r["text"])
        for d in range(1, window + 1):
            for a, b in zip(w, w[d:]):
                pc_[(a, b)] += 1
                pc_[(b, a)] += 1
    edges = sorted({p for p, n in pc_.items() if n >= min_count})
    nodes = sorted({a for a, _ in edges})
    outd = Counter(a for a, _ in edges)
    n = len(nodes)
    tele = (SCALE - damp * SCALE // 100) // n
    rank = {v: SCALE // n for v in nodes}
    for _ in range(3):
        s: Counter = Counter()
        for a, b in edges:
            s[b] += rank[a] // outd[a]
        rank = {v: tele + (damp * s[v]) // 100 for v in nodes}
    ref = sorted(((r, t) for t, r in rank.items()),
                 key=lambda x: (-x[0], x[1]))[:k]
    got = list(zip(out["rank"], out["term"]))
    assert got == ref


def test_textrank_local_equals_distributed(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        textrank_keywords,
    )

    rows = [{"text": f"alpha beta w{i % 7} gamma w{i % 3} alpha beta"}
            for i in range(50)]
    loc = textrank_keywords(rd.from_items(rows), window=2, min_count=2,
                            k=10, n_iters=3, n_buckets=8,
                            scale="local").to_pandas()
    dist = textrank_keywords(rd.from_items(rows), window=2, min_count=2,
                             k=10, n_iters=3, n_buckets=8,
                             scale="distributed").to_pandas()
    assert list(loc["term"]) == list(dist["term"])
    assert list(loc["rank"]) == list(dist["rank"])


def test_posting_compression_varint_boundaries(ray_session):
    """Gap byte lengths straddle the 7-bit group boundaries (127 -> 1 byte,
    128 -> 2, 16384 -> 3); round-trip is asserted inside the fold."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.lexicon import (
        posting_compression)

    rows = [
        {"doc_id": 0, "text": "edge"},
        {"doc_id": 127, "text": "edge"},      # gap 127 -> 1 byte
        {"doc_id": 255, "text": "edge"},      # gap 128 -> 2 bytes
        {"doc_id": 16639, "text": "edge"},    # gap 16384 -> 3 bytes
        {"doc_id": 5, "text": "solo"},
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    df = posting_compression(ds).to_pandas().set_index("term")
    # first id 0 -> 1 byte, then 1 + 2 + 3
    assert df.loc["edge", "packed_bytes"] == 1 + 1 + 2 + 3
    assert df.loc["edge", "df"] == 4
    assert df.loc["edge", "raw_bytes"] == 32
    assert df.loc["solo", "packed_bytes"] == 1


def test_sql_bpe_apply_replays_apply_merges_exactly():
    """The BPE oracle's SQL merge step against _apply_merges, in DuckDB only:
    runs of identical symbols (odd and even, up to 9 long), a merge whose
    halves differ, and a merge whose result feeds the next one."""
    import duckdb

    from document_text_extraction_ray.pipelines.queries import _sql_bpe_apply
    from document_text_extraction_ray.stages.lexicon import END_WORD

    words = ["b", "bb", "bbb", "bbbbb", "bbbbbb", "bbbbbbbbb", "abababa",
             "aab", "abbb", "baaaab", "xyz", "bbxbbb"]
    merges = [("b", "b"), ("a", "b"), ("bb", "bb"), ("ab", "ab"),
              ("b", END_WORD), ("a", "a")]
    con = duckdb.connect()
    for k in range(1, len(merges) + 1):
        expr = "s"
        for a, b in merges[:k]:
            expr = _sql_bpe_apply(expr, f"'{a}'", f"'{b}'")
        for w in words:
            s0 = "|".join(list(w) + [END_WORD])
            (got,) = con.execute(
                f"SELECT {expr} FROM (SELECT ? AS s) t", [s0]).fetchone()
            assert got.split("|") == _apply_merges(w, merges[:k]), (w, k)
