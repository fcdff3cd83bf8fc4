"""Property-based robustness: the kernels must never crash, always be
deterministic, and keep their structural invariants on arbitrary input —
poison documents become error rows only if the kernel itself raises, so the
kernel raising on weird bytes would silently degrade corpus coverage."""

from hypothesis import given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.functions import dedup as D
from document_text_extraction_ray.functions import fields as F
from document_text_extraction_ray.functions import textstats as T
from document_text_extraction_ray.functions.html_extract import (
    extract_main_text,
    visible_text,
)
from document_text_extraction_ray.functions.structured import (
    clean_llm_json,
    fold_structured,
)

html_like = st.binary(max_size=2000) | st.text(max_size=2000).map(
    lambda s: s.encode("utf-8", "replace")
)


@settings(max_examples=150, deadline=None)
@given(html_like)
def test_extract_never_crashes_and_is_deterministic(data):
    text1, spans1 = extract_main_text(data)
    text2, spans2 = extract_main_text(data)
    assert text1 == text2 and spans1 == spans2
    for start, end, kind in spans1:
        assert 0 <= start <= end <= len(data)
        assert isinstance(kind, str)
    # Normalization invariant: blocks carry no edge whitespace or runs.
    for block in text1.split("\n\n"):
        assert block == " ".join(block.split())


@settings(max_examples=100, deadline=None)
@given(html_like)
def test_visible_text_superset_property(data):
    visible = visible_text(data)
    assert visible == visible_text(data)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=1000))
def test_fields_never_crash_outputs_sorted(text):
    out = F.extract_all_fields(text)
    for key, vals in out.items():
        assert vals == sorted(vals), key
        assert len(set(vals)) == len(vals), key
    assert isinstance(F.extract_name(text), str)
    assert isinstance(F.extract_address(text), str)
    F.segment_sections(text)
    F.chunk_paragraphs(text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=500))
def test_textstats_invariants(text):
    assert 0 <= T.quality_score(text)["score"] <= 1
    assert T.detect_language(text) in set(T.STOPWORDS) | {"und"}
    assert T.count_tokens_ws(text) == len(text.split())
    h = T.content_hash(text)
    assert 0 <= h < 2 ** 63


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=500), st.text(max_size=500))
def test_dedup_kernel_invariants(a, b):
    assert 0.0 <= D.ngram_jaccard(a, b) <= 1.0
    assert D.ngram_jaccard(a, a) == 1.0
    sig = D.minhash_signature(a)
    assert sig.shape == (128,)
    assert (sig == D.minhash_signature(a)).all()
    assert 0 <= D.simhash(a) < 2 ** 64
    assert D.hamming64(D.simhash(a), D.simhash(a)) == 0


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=500))
def test_structured_fold_total(text):
    out = fold_structured(text)
    assert set(out) == {
        "name", "contact", "summary", "experience", "education",
        "skills", "references",
    }
    obj, err = clean_llm_json(text)
    assert (obj is None) == bool(err)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=500))
def test_fold_structured_graph_never_crashes(text):
    """The graph builder + $ref fold must handle arbitrary text and be
    deterministic (same guarantees as the line fold)."""
    from document_text_extraction_ray.functions.structured import (
        export_markdown,
        fold_structured_graph,
        text_to_block_graph,
    )

    g1, g2 = text_to_block_graph(text), text_to_block_graph(text)
    assert g1 == g2
    r1, r2 = fold_structured_graph(g1), fold_structured_graph(g2)
    assert r1 == r2
    assert set(r1) == {"name", "contact", "summary", "experience",
                       "education", "skills", "projects", "certifications",
                       "references"}
    assert isinstance(export_markdown(g1), str)


def test_cluster_pairs_distributed_random_graphs():
    """Randomized: distributed label propagation == driver union-find on
    arbitrary pair graphs (the two plans must agree everywhere)."""
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages import dedup as SD

    rng = np.random.RandomState(17)
    for trial in range(3):
        n = 30
        m = rng.randint(5, 25)
        pairs = [tuple(sorted(rng.choice(n, size=2, replace=False)))
                 for _ in range(m)]
        pairs = sorted({(int(a), int(b)) for a, b in pairs})
        ref = SD._cluster_pairs(pairs)
        ds = rd.from_items([{"id_a": a, "id_b": b} for a, b in pairs])
        got = {r["node"]: r["label"]
               for r in SD.cluster_pairs_distributed(ds).take_all()}
        assert got == ref, (trial, pairs)


def test_exact_dedup_strategies_random_equivalence():
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages import dedup as SD

    rng = np.random.RandomState(5)
    ids = rng.permutation(80)
    rows = []
    for i in range(80):
        k = rng.randint(0, 12)
        rows.append({"doc_id": int(ids[i]), "text": f"text {k}" if k else "",
                     "extra": i * 2, "meta": {"k": k, "ids": [i, i + 1]}})
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    got = SD.exact_dedup(ds, "text", "doc_id").take_all()
    # oracle: the full min-id row per distinct text
    best = {}
    for r in rows:
        if r["text"] not in best or r["doc_id"] < best[r["text"]]["doc_id"]:
            best[r["text"]] = r
    assert sorted(got, key=lambda r: r["doc_id"]) == \
        sorted(best.values(), key=lambda r: r["doc_id"])


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=500), st.integers(min_value=1, max_value=6))
def test_word_ngrams_kernel_invariants(text, n):
    from document_text_extraction_ray.stages.curation import (
        WORD_RE,
        word_ngrams,
    )

    grams = word_ngrams(text, n)
    words = WORD_RE.findall(text.lower())
    assert len(grams) == max(len(words) - n + 1, 0)
    for g in grams:
        assert len(g.split(" ")) == n
    # deterministic
    assert grams == word_ngrams(text, n)


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=400))
def test_repetition_fraction_brute_force(text):
    import numpy as np

    from document_text_extraction_ray.stages.curation import word_ngrams

    gs = word_ngrams(text, 2)
    total, uniq = len(gs), len(set(gs))
    frac = 0 if total == 0 else int(np.floor((total - uniq) * 10000.0 / total + 0.5))
    assert 0 <= frac <= 10000
    if total:
        assert (frac == 0) == (total == uniq)


def test_partitioned_hash_join_random_vs_pandas_all_hows():
    """Randomized: the bucketed join == pandas merge for inner/left/outer
    over int keys with nulls and duplicates on both sides (null keys never
    equi-match — SQL semantics — so nullable keys are dropped from the
    pandas reference's match set and re-appended per `how`)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    def _nullsort(t):
        return tuple((x is None, 0 if x is None else x) for x in t)

    rng = np.random.RandomState(23)
    for trial in range(3):
        nl, nr = rng.randint(3, 40), rng.randint(3, 40)
        lk = [int(x) if x >= 0 else None
              for x in rng.randint(-2, 8, size=nl)]
        rk = [int(x) if x >= 0 else None
              for x in rng.randint(-2, 8, size=nr)]
        left = pd.DataFrame({"k": pd.array(lk, dtype="Int64"),
                             "a": np.arange(nl, dtype="int64")})
        right = pd.DataFrame({"k": pd.array(rk, dtype="Int64"),
                              "b": np.arange(100, 100 + nr, dtype="int64")})

        def ref(how):
            l2 = left.copy()
            r2 = right[right["k"].notna()]
            matched = l2[l2["k"].notna()].merge(r2, on="k", how="inner")
            out = [matched]
            if how in ("left", "outer"):
                lone_l = l2.merge(r2[["k"]].drop_duplicates(), on="k",
                                  how="left", indicator=True)
                lone_l = l2[(lone_l["_merge"] == "left_only").to_numpy()
                            | l2["k"].isna().to_numpy()]
                out.append(lone_l.assign(b=pd.array([None] * len(lone_l),
                                                    dtype="Int64")))
            if how == "outer":
                unmatched_keys = set(r2["k"]) - set(l2["k"].dropna())
                lone_r = right[right["k"].isin(unmatched_keys)
                               | right["k"].isna()]
                out.append(lone_r.assign(a=pd.array([None] * len(lone_r),
                                                    dtype="Int64")))
            df = pd.concat(out, ignore_index=True)
            return sorted(
                ((None if pd.isna(k) else int(k),
                  None if pd.isna(a) else int(a),
                  None if pd.isna(b) else int(b))
                 for k, a, b in zip(df["k"], df["a"], df["b"])),
                key=_nullsort)

        lds = rd.from_pandas(left).repartition(3)
        rds = rd.from_pandas(right).repartition(2)
        for how in ("inner", "left", "outer"):
            got = partitioned_hash_join(lds, rds, on="k", how=how,
                                        n_buckets=4).to_pandas()
            gl = sorted(
                ((None if pd.isna(k) else int(k),
                  None if pd.isna(a) else int(a),
                  None if pd.isna(b) else int(b))
                 for k, a, b in zip(got["k"], got["a"], got["b"])),
                key=_nullsort)
            assert gl == ref(how), (trial, how)


# ------------------------------------------------ round-4 kernel properties

@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=4000),
       st.integers(min_value=1, max_value=7))
def test_tdigest_weight_and_rank_invariants(values, n_chunks):
    """For ANY value multiset and ANY split into partial digests: total
    weight is preserved exactly, centroid means stay sorted, and the p50
    estimate lands within the value range with rank error < 10% (loose —
    the registered gate asserts 2% at delta=100 on real group sizes)."""
    import numpy as np

    from document_text_extraction_ray.stages.aggregate import (
        tdigest_compress, tdigest_quantile)

    v = np.asarray(values, dtype=np.float64)
    parts = [tdigest_compress(c, np.ones(len(c)), float(len(c)), 100)
             for c in np.array_split(v, min(n_chunks, len(v))) if len(c)]
    m = np.concatenate([p[0] for p in parts])
    w = np.concatenate([p[1] for p in parts])
    m2, w2 = tdigest_compress(m, w, float(w.sum()), 100)
    assert w2.sum() == float(len(v))
    assert np.all(np.diff(m2) >= 0)
    est = tdigest_quantile(m2, w2, 0.5)
    assert v.min() <= est <= v.max()
    # two-sided rank band: with heavy ties the estimate's rank is an
    # interval [left, right]; 0.5 must fall within it (+/- 10%)
    sv = np.sort(v)
    lo = np.searchsorted(sv, est, side="left") / len(v)
    hi = np.searchsorted(sv, est, side="right") / len(v)
    assert lo - 0.1 <= 0.5 <= hi + 0.1 or len(v) < 10


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 100)),
                min_size=1, max_size=200))
def test_merge_intervals_fold_properties(spans):
    """Local fold invariants on arbitrary spans: output islands are
    disjoint with gaps > 0, cover exactly the input union, and
    n_intervals sums to the input count."""
    import numpy as np

    from document_text_extraction_ray.stages.windows import merge_interval_rows

    islands = merge_interval_rows(
        np.array([a for a, _ in spans], dtype=np.int64),
        np.array([a + d for a, d in spans], dtype=np.int64))
    assert sum(i[2] for i in islands) == len(spans)
    for (s1, e1, _), (s2, e2, _) in zip(islands, islands[1:]):
        assert s2 > e1  # disjoint with a true gap
    covered = set()
    for s, e, _ in islands:
        covered.update(range(s, e + 1))
    expect = set()
    for a, d in spans:
        expect.update(range(a, a + d + 1))
    assert covered == expect


def test_boilerplate_removal_random_vs_brute_force():
    """Random tiny corpora (lines from a 6-word alphabet so per-source
    collisions are dense): the distributed two-exchange plan must equal
    the obvious brute force — drop every line occurring in >= min_docs
    distinct docs of the same source — including counts."""
    import random

    import ray.data as rd

    from document_text_extraction_ray.stages.curation import (
        boilerplate_removal,
    )

    rng = random.Random(4242)
    words = ["nav", "foot", "body", "ad", "x", ""]
    for trial in range(6):
        docs = []
        for i in range(rng.randint(3, 14)):
            docs.append({
                "doc_id": i,
                "source": rng.choice(["s1", "s2"]),
                "text": "\n".join(
                    rng.choice(words)
                    for _ in range(rng.randint(1, 6))),
            })
        min_docs = rng.choice([2, 3])
        # brute force
        from collections import defaultdict
        per_key = defaultdict(set)
        for d in docs:
            for ln in d["text"].split("\n"):
                per_key[(d["source"], ln)].add(d["doc_id"])
        expect = {}
        for d in docs:
            lines = d["text"].split("\n")
            kept = [ln for ln in lines
                    if len(per_key[(d["source"], ln)]) < min_docs]
            expect[d["doc_id"]] = ("\n".join(kept), len(lines), len(kept))
        out = (boilerplate_removal(rd.from_items(docs), "text", "doc_id",
                                   "source", min_docs=min_docs, n_buckets=4)
               .to_pandas().set_index("doc_id"))
        assert len(out) == len(docs), f"trial {trial}"
        for did, (txt, tot, kept) in expect.items():
            row = out.loc[did]
            assert (row["clean_text"], row["n_lines_total"],
                    row["n_lines_kept"]) == (txt, tot, kept), \
                f"trial {trial} doc {did}"


def test_cluster_pairs_local_contract_equivalence(monkeypatch):
    """The batch-locally contracted label rounds equal the union-find
    oracle on random graphs with self-pairs (isolated nodes must stay
    visible) and components split across input blocks, at one exchange
    range and at four."""
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages import dedup as SD
    from document_text_extraction_ray.stages import exchange

    rng = np.random.RandomState(23)
    graphs = []
    for trial in range(3):
        n = 40
        pairs = [tuple(sorted(rng.choice(n, size=2, replace=False)))
                 for _ in range(rng.randint(8, 30))]
        pairs = sorted({(int(a), int(b)) for a, b in pairs})
        pairs.append((n + 5, n + 5))  # self-pair: isolated labeled node
        graphs.append(pairs)
    lab = lambda d: {r["node"]: r["label"] for r in d.take_all()}
    for ranges in (4, 1):
        if ranges == 1:
            monkeypatch.setattr(exchange, "ray_cpus", lambda: 1)
            monkeypatch.setattr("document_text_extraction_ray.util.ray_cpus",
                                lambda: 1)
        assert exchange.range_boundaries(4) == {4: [1, 2, 3], 1: [4]}[ranges]
        for pairs in graphs:
            ds = rd.from_items(
                [{"id_a": a, "id_b": b} for a, b in pairs]).repartition(4)
            got = lab(SD.cluster_pairs_distributed(ds))
            assert got == SD._cluster_pairs(pairs), (ranges, pairs)
            assert got[45] == 45
