"""Join operator tests (attach_column, range_join)."""

import numpy as np
import pandas as pd
import pytest


def test_attach_column_preserves_nested_columns():
    """attach_column must carry struct/list columns through the exchange
    untouched (the arrow join rejects them; pandas merges corrupt them)."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import attach_column

    big = rd.from_arrow(pa.table({
        "url": ["u1", "u2", "u3"],
        "spans": [[{"s": 1, "e": 4}], [], [{"s": 0, "e": 2}, {"s": 9, "e": 12}]],
        "n": [10, 20, 30],
    }))
    slim = rd.from_arrow(pa.table({
        "url": ["u3", "u1"],
        "dedup_text": ["three", "one"],
    }))
    out = attach_column(big, slim, on="url", value_col="dedup_text",
                        n_buckets=4).to_pandas().sort_values("url")
    assert list(out["url"]) == ["u1", "u3"]          # u2 missed -> dropped
    assert list(out["dedup_text"]) == ["one", "three"]
    assert list(out["n"]) == [10, 30]
    spans_u3 = list(out[out["url"] == "u3"]["spans"])[0]
    assert [dict(s) for s in spans_u3] == [{"s": 0, "e": 2}, {"s": 9, "e": 12}]


def _range_ref(pts: pd.DataFrame, ivs: pd.DataFrame) -> pd.DataFrame:
    """Reference: cartesian filter (tiny fixtures only)."""
    x = pts.merge(ivs, how="cross")
    x = x[(x["lo"] <= x["p"]) & (x["p"] <= x["hi"])]
    return x.sort_values(["pid", "iid"]).reset_index(drop=True)


def test_range_join_matches_cartesian_reference():
    import ray.data as rd

    from document_text_extraction_ray.stages.join import range_join

    rng = np.random.RandomState(7)
    pts = pd.DataFrame({
        "pid": np.arange(300, dtype=np.int64),
        "p": rng.randint(0, 1000, 300).astype(np.int64),
    })
    lo = rng.randint(0, 950, 40).astype(np.int64)
    ivs = pd.DataFrame({
        "iid": np.arange(40, dtype=np.int64),
        "lo": lo,
        # Mix of short intervals and band-spanning long ones.
        "hi": lo + rng.choice([3, 7, 120, 400], 40).astype(np.int64),
    })
    out = range_join(
        rd.from_pandas(pts), rd.from_pandas(ivs),
        point_on="p", lo_col="lo", hi_col="hi",
        bucket_width=50, n_buckets=8,
    ).to_pandas().sort_values(["pid", "iid"]).reset_index(drop=True)
    ref = _range_ref(pts, ivs)
    assert len(out) == len(ref)              # exactly once per true pair
    pd.testing.assert_frame_equal(
        out[["pid", "p", "iid", "lo", "hi"]], ref[["pid", "p", "iid", "lo", "hi"]]
    )


def test_range_join_edge_cases():
    import ray.data as rd

    from document_text_extraction_ray.stages.join import range_join

    pts = pd.DataFrame({"pid": [1, 2, 3], "p": np.array([5, 100, -7], np.int64)})
    ivs = pd.DataFrame({
        "iid": np.array([10, 11, 12], np.int64),
        "lo": np.array([5, 50, 200], np.int64),    # iid=10 inclusive both ends
        "hi": np.array([5, 40, 100], np.int64),    # iid=11 inverted: matches nothing
    })
    out = range_join(
        rd.from_pandas(pts), rd.from_pandas(ivs),
        point_on="p", lo_col="lo", hi_col="hi",
        bucket_width=16, n_buckets=4,
    ).to_pandas()
    # Only pid=1 in [5,5]; pid=2/3 uncovered -> dropped (inner).
    assert out[["pid", "iid"]].values.tolist() == [[1, 10]]


def test_range_join_suffixes_overlapping_columns():
    import ray.data as rd

    from document_text_extraction_ray.stages.join import range_join

    pts = pd.DataFrame({"pid": [1], "p": np.array([10], np.int64),
                        "tag": ["point"]})
    ivs = pd.DataFrame({"lo": np.array([0], np.int64),
                        "hi": np.array([20], np.int64), "tag": ["interval"]})
    out = range_join(
        rd.from_pandas(pts), rd.from_pandas(ivs),
        point_on="p", lo_col="lo", hi_col="hi", bucket_width=8, n_buckets=2,
    ).to_pandas()
    assert list(out["tag"]) == ["point"] and list(out["tag_r"]) == ["interval"]


def test_salted_join_equals_plain_join_under_skew():
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import (
        detect_hot_keys,
        partitioned_hash_join,
        salted_join,
    )

    # key 0 owns ~40% of the left side (the hot key).
    left = rd.from_items([
        {"k": 0 if i % 5 < 2 else i % 23, "lv": i} for i in range(500)
    ])
    right = rd.from_items([{"k": k, "name": f"n{k}"} for k in range(23)])
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.int64()), ("name", pa.string())])

    hot = detect_hot_keys(left, "k", min_count=100)
    assert hot == [0]

    out = (salted_join(left, right, on="k", hot_keys=hot, n_salt=4,
                       n_buckets=8, left_schema=ls, right_schema=rs)
           .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True))
    ref = (partitioned_hash_join(left, right, on="k", n_buckets=8,
                                 left_schema=ls, right_schema=rs)
           .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True))
    assert len(out) == len(ref) == 500
    pd.testing.assert_frame_equal(out[["k", "lv", "name"]],
                                  ref[["k", "lv", "name"]])


def test_salted_join_left_semantics():
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import salted_join

    left = rd.from_items([{"k": i % 4, "lv": i} for i in range(20)])
    right = rd.from_items([{"k": k, "name": f"n{k}"} for k in range(3)])
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.int64()), ("name", pa.string())])
    out = (salted_join(left, right, on="k", hot_keys=[0], n_salt=3,
                       n_buckets=4, how="left", left_schema=ls,
                       right_schema=rs).to_pandas())
    assert len(out) == 20
    assert out[out["k"] == 3]["name"].isna().all()


def test_full_outer_join_matches_pandas():
    import pyarrow as pa
    import ray
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 5], "a": [10, 20, 30, 50]})
    right = pd.DataFrame({"k": [2, 3, 4], "b": ["x", "y", "z"]})
    joined = partitioned_hash_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right).repartition(2),
        on="k", how="outer", n_buckets=4,
    ).materialize()
    out = joined.to_pandas().sort_values("k").reset_index(drop=True)
    ref = left.merge(right, on="k", how="outer").sort_values("k") \
              .reset_index(drop=True)
    assert list(out["k"]) == list(ref["k"])
    assert out["a"].fillna(-1).astype("int64").tolist() == \
        ref["a"].fillna(-1).astype("int64").tolist()
    assert out["b"].fillna("").tolist() == ref["b"].fillna("").tolist()
    # The int column stays int64 (with nulls) in every output block.
    blocks = ray.get(joined.to_arrow_refs())
    assert {t.schema.field("a").type for t in blocks if t.num_rows} == \
        {pa.int64()}


def test_full_outer_join_null_keys_never_match():
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    left = pa.table({"k": pa.array([1, None], pa.int64()),
                     "a": pa.array([10, 99], pa.int64())})
    right = pa.table({"k": pa.array([None, 1], pa.int64()),
                      "b": pa.array(["n", "one"], pa.string())})
    out = partitioned_hash_join(
        rd.from_arrow(left), rd.from_arrow(right), on="k", how="outer",
        n_buckets=4,
    ).to_pandas()
    # 1<->1 matches; each null-key row survives alone (SQL semantics).
    assert len(out) == 3
    matched = out[out["b"] == "one"]
    assert list(matched["a"]) == [10]
    assert out["a"].isna().sum() == 1  # right null-key row, left side null
    assert out["b"].isna().sum() == 1  # left null-key row, right side null


@pytest.mark.parametrize("cpus", [1, 4])
def test_hash_join_keeps_null_in_int_column(monkeypatch, cpus):
    """A real null in a non-key int column comes out of the join as a null
    of the same int type, whether the exchange runs one range (1 CPU) or
    four.  At four, k=2's bucket holds only the null, so one output block's
    ``v`` is all null and must still be int64."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                   "v": pa.array([5, None], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                    "w": pa.array([7, 8], pa.int64())}))
    out = partitioned_hash_join(left, right, on="k")
    blocks = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    got = pa.concat_tables(blocks, promote_options="default").sort_by("k")
    assert got.select(["k", "v", "w"]).to_pylist() == [
        {"k": 1, "v": 5, "w": 7}, {"k": 2, "v": None, "w": 8}]
    assert [t.schema.field("v").type for t in blocks] == \
        [pa.int64()] * len(blocks)


def _declared_schema_case(case, tmp_path):
    """(joined Dataset, declared schema, row count) for one join kernel over
    sides whose int column ``v`` is all null."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages import join as J
    from document_text_extraction_ray.stages.storage import (
        read_bucketed_join, write_bucketed,
    )

    i64 = pa.int64()

    def side(**cols):
        return rd.from_arrow(pa.table(
            {k: pa.array(v, pa.string() if k == "s" else i64)
             for k, v in cols.items()}))

    v = [None, None, None]
    left = side(k=[1, 2, 3], s=["a", "b", "c"], v=v)
    right = side(k=[1, 2, 4], s=["a", "b", "x"], w=[7, 8, 9])
    if case in ("inner", "left", "outer"):
        return (J.partitioned_hash_join(left.drop_columns(["s"]),
                                        right.drop_columns(["s"]), "k",
                                        n_buckets=8, how=case),
                pa.schema([("k", i64), ("v", i64), ("w", i64)]),
                {"inner": 2, "left": 3, "outer": 4}[case])
    if case == "composite":
        return (J.partitioned_hash_join(left, right, ["k", "s"], n_buckets=8),
                pa.schema([("k", i64), ("s", pa.string()), ("v", i64),
                           ("w", i64)]), 2)
    if case == "range":
        return (J.range_join(side(p=[1, 15, 30], v=v),
                             side(lo=[0, 10, 25], hi=[5, 20, 40], w=[7, 8, 9]),
                             "p", "lo", "hi", bucket_width=10, n_buckets=8),
                pa.schema([(c, i64) for c in ("p", "v", "lo", "hi", "w")]), 3)
    if case == "interval":
        return (J.interval_overlap_join(
                    side(lo=[0, 10, 25], hi=[5, 20, 40], v=v),
                    side(lo=[3, 18, 50], hi=[4, 19, 60], w=[7, 8, 9]),
                    "lo", "hi", "lo", "hi", bucket_width=10, n_buckets=8),
                pa.schema([(c, i64) for c in
                           ("lo", "hi", "v", "lo_r", "hi_r", "w")]), 2)
    if case == "asof":
        ts = pa.timestamp("us")
        lt = pa.table({"k": pa.array([1, 2, 3], i64),
                       "ts": pa.array([10, 20, 30], ts),
                       "v": pa.array(v, i64)})
        rt = pa.table({"k": pa.array([1, 2, 3], i64),
                       "rts": pa.array([5, 15, 25], ts),
                       "w": pa.array([7, 8, 9], i64)})
        return (J.asof_join(rd.from_arrow(lt), rd.from_arrow(rt), by="k",
                            left_on="ts", right_on="rts", n_buckets=8),
                pa.schema([("k", i64), ("ts", ts), ("v", i64), ("rts", ts),
                           ("w", i64)]), 3)
    assert case == "bucketed"
    lp, rp = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(left.drop_columns(["s"]), lp, "k", 4)
    write_bucketed(side(rk=[1, 2, 4], w=[7, 8, 9]), rp, "rk", 4)
    return (read_bucketed_join(lp, rp, "k", "rk", 4, how="left"),
            pa.schema([("k", i64), ("v", i64), ("rk", i64), ("w", i64)]), 3)


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("case", ["inner", "left", "outer", "composite",
                                  "range", "interval", "asof", "bucketed"])
def test_join_blocks_carry_declared_schema(monkeypatch, tmp_path, case, cpus):
    """Every non-empty output block of every join kernel has exactly the
    declared schema, at one exchange range (1 CPU) and at four, with its
    int column ``v`` all null."""
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    out, schema, n_rows = _declared_schema_case(case, tmp_path)
    blocks = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    assert sum(t.num_rows for t in blocks) == n_rows
    for t in blocks:
        assert t.schema.equals(schema), (t.schema, schema)


def test_sample_per_group_deterministic_uniform():
    import hashlib

    import ray.data as rd

    from document_text_extraction_ray.stages.sampling import sample_per_group

    rows = [{"g": f"g{i % 3}", "i": i} for i in range(60)]
    out = sample_per_group(rd.from_items(rows).repartition(4), "g", "i",
                           n=4).to_pandas()
    again = sample_per_group(rd.from_items(rows).repartition(7), "g", "i",
                             n=4).to_pandas()
    key = lambda df: sorted(map(tuple, df[["g", "i", "rnk"]].to_numpy()))
    assert key(out) == key(again)  # partitioning-independent
    for g in ("g0", "g1", "g2"):
        members = [i for i in range(60) if f"g{i % 3}" == g]
        ranked = sorted(members,
                        key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
        sub = out[out["g"] == g].sort_values("rnk")
        assert list(sub["i"]) == ranked[:4]
        assert list(sub["rnk"]) == [1, 2, 3, 4]


def test_composite_key_join_matches_pandas():
    """Two-column tuple key (VERDICT r3 #6): inner and FULL OUTER, no key
    concatenation; suffixing and int preservation per key tuple."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    left = pd.DataFrame({
        "pk": [1, 1, 2, 2, 3], "sk": [10, 11, 10, 12, 10],
        "qty": [5, 6, 7, 8, 9]})
    right = pd.DataFrame({
        "pk": [1, 2, 2, 4], "sk": [10, 10, 12, 10],
        "cost": [100, 200, 300, 400]})
    for how in ("inner", "left", "outer"):
        out = partitioned_hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            on=["pk", "sk"], how=how, n_buckets=4,
        ).to_pandas().sort_values(["pk", "sk", "qty"]).reset_index(drop=True)
        ref = left.merge(right, on=["pk", "sk"], how=how) \
                  .sort_values(["pk", "sk", "qty"]).reset_index(drop=True)
        assert len(out) == len(ref), how
        assert out["cost"].fillna(-1).astype("int64").tolist() == \
            ref["cost"].fillna(-1).astype("int64").tolist(), how
        # tuple keys: (1,11) must NOT match right (1,10) — per-column
        # equality, not concat-collision semantics
        if how == "inner":
            assert (1, 11) not in set(zip(out["pk"], out["sk"]))


def test_composite_key_join_null_component_never_matches():
    """A key tuple with ANY null component equi-matches nothing (SQL)."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    left = pa.table({"pk": pa.array([1, 1], pa.int64()),
                     "sk": pa.array([10, None], pa.int64()),
                     "a": pa.array([1, 2], pa.int64())})
    right = pa.table({"pk": pa.array([1, 1], pa.int64()),
                      "sk": pa.array([10, None], pa.int64()),
                      "b": pa.array([7, 8], pa.int64())})
    out = partitioned_hash_join(
        rd.from_arrow(left), rd.from_arrow(right), on=["pk", "sk"],
        how="inner", n_buckets=4).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["a"] == 1 and out.iloc[0]["b"] == 7


def test_composite_key_join_string_int_mixed():
    import ray.data as rd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    left = pd.DataFrame({"s": ["a", "a", "b"], "i": [1, 2, 1],
                         "v": [10, 20, 30]})
    right = pd.DataFrame({"s": ["a", "b"], "i": [2, 1], "w": [5, 6]})
    out = partitioned_hash_join(
        rd.from_pandas(left), rd.from_pandas(right), on=["s", "i"],
        n_buckets=4).to_pandas().sort_values("v").reset_index(drop=True)
    assert list(out["v"]) == [20, 30]
    assert list(out["w"]) == [5, 6]


def test_salted_join_rejects_outer():
    import pytest
    import ray.data as rd

    from document_text_extraction_ray.stages.join import salted_join

    ds = rd.from_items([{"k": 1, "v": 1}])
    with pytest.raises(ValueError, match="outer"):
        salted_join(ds, ds, on="k", hot_keys=[1], how="outer")


def test_composite_key_join_randomized_equivalence():
    """Seeded randomized corpora (nulls, skew, disjoint keys): composite
    join == pandas merge for inner/left/outer."""
    import ray.data as rd

    rng = np.random.RandomState(11)
    from document_text_extraction_ray.stages.join import partitioned_hash_join

    for trial in range(3):
        nl, nr = rng.randint(5, 40), rng.randint(5, 40)
        mk = lambda n: pd.DataFrame({
            "k1": rng.randint(0, 5, n),
            "k2": rng.randint(0, 4, n),
            "pay": rng.randint(0, 1000, n)})
        left, right = mk(nl), mk(nr).rename(columns={"pay": "rpay"})
        # inject null key components
        left.loc[left.index[:2], "k2"] = pd.NA
        right.loc[right.index[:1], "k1"] = pd.NA
        left = left.astype({"k2": "Int64"})
        right = right.astype({"k1": "Int64"})
        for how in ("inner", "left", "outer"):
            out = partitioned_hash_join(
                rd.from_pandas(left).repartition(3),
                rd.from_pandas(right).repartition(2),
                on=["k1", "k2"], how=how, n_buckets=4,
            ).to_pandas()
            ref = left.dropna() if False else left
            ref = left.merge(right.dropna(subset=["k1", "k2"])
                             if how != "outer" else right,
                             on=["k1", "k2"], how=how)
            if how == "inner":
                ref = ref.dropna(subset=["k1", "k2"])
            key = lambda df: sorted(
                (tuple(-1 if pd.isna(x) else int(x) for x in row))
                for row in df[["k1", "k2", "pay", "rpay"]].to_numpy())
            assert key(out) == key(ref), (trial, how)


def test_interval_overlap_join_matches_brute_force():
    import ray.data as rd

    from document_text_extraction_ray.stages.join import interval_overlap_join

    rng = np.random.default_rng(7)
    nl, nr = 150, 120
    l_lo = rng.integers(0, 5000, nl)
    l_hi = l_lo + rng.integers(0, 400, nl)          # mixed lengths
    r_lo = rng.integers(0, 5000, nr)
    r_hi = r_lo + rng.integers(0, 150, nr)
    left = rd.from_items([
        {"lid": int(i), "lo": int(l_lo[i]), "hi": int(l_hi[i])}
        for i in range(nl)])
    right = rd.from_items([
        {"rid": int(i), "lo": int(r_lo[i]), "hi": int(r_hi[i])}
        for i in range(nr)])
    out = interval_overlap_join(
        left, right, "lo", "hi", "lo", "hi",
        bucket_width=256, n_buckets=8).to_pandas()
    got = sorted(zip(out["lid"], out["rid"]))
    ref = sorted(
        (int(i), int(j))
        for i in range(nl) for j in range(nr)
        if l_lo[i] <= r_hi[j] and r_lo[j] <= l_hi[i])
    assert got == ref
    assert len(ref) > 100          # fixture actually overlaps
    # bound columns survive on both sides (right suffixed)
    assert {"lo", "hi", "lo_r", "hi_r"} <= set(out.columns)


def test_join_size_estimate_exact_and_one_sided_keys():
    """Per-key n_left*n_right equals the real inner-join cardinality;
    keys present on only one side are excluded."""
    import ray.data as rd

    from document_text_extraction_ray.stages.join import join_size_estimate

    left = rd.from_items([{"k": v} for v in [1] * 5 + [2] * 3 + [3]])
    right = rd.from_items([{"k": v} for v in [1] * 4 + [2] + [9] * 7])
    est = (join_size_estimate(left, right, on="k", n_buckets=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert list(est["k"]) == [1, 2]          # 3 and 9 are one-sided
    assert list(est["n_left"]) == [5, 3]
    assert list(est["n_right"]) == [4, 1]
    assert list(est["n_out"]) == [20, 3]
    # cross-check against the actual join size
    lj = left.to_pandas().merge(right.to_pandas(), on="k")
    assert est["n_out"].sum() == len(lj)


def test_fk_and_expectation_counts_on_synthetic_violations():
    """FK orphans (incl. NULL fact keys) and row-local expectations count
    exactly on a fixture with known violations."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from document_text_extraction_ray.stages.validate import (
        expectation_counts,
        fk_violation_counts,
    )

    fact = rd.from_items(
        [{"fk": 1, "v": 5}, {"fk": 1, "v": -2}, {"fk": 2, "v": 0},
         {"fk": 7, "v": 3}, {"fk": 7, "v": 9}, {"fk": None, "v": 1}])
    dim = rd.from_items([{"k": 1}, {"k": 2}, {"k": 3}])

    fk = fk_violation_counts(fact, "fk", dim, "k", "fk_check",
                             n_buckets=4).to_pandas()
    assert len(fk) == 1
    assert fk.iloc[0]["n_violations"] == 3    # two fk=7 rows + one NULL
    assert fk.iloc[0]["n_checked"] == 6

    exp = expectation_counts(fact, [
        ("v_positive", lambda t: _pc.less_equal(t.column("v"), 0)),
        ("fk_not_null", lambda t: _pc.is_null(t.column("fk"))),
    ]).to_pandas().set_index("check_name")
    assert exp.loc["v_positive", "n_violations"] == 2
    assert exp.loc["fk_not_null", "n_violations"] == 1
    assert (exp["n_checked"] == 6).all()


def test_fd_discovery_holds_and_violations_with_nulls():
    """FD verdicts match brute force, including null determinant/dependent
    values (a null is one distinct value, not ignored)."""
    import ray.data as rd

    from document_text_extraction_ray.stages.validate import fd_discovery

    rows = [
        {"a": 1, "b": "x", "c": None},
        {"a": 1, "b": "x", "c": "p"},
        {"a": 2, "b": "y", "c": "p"},
        {"a": 2, "b": "z", "c": "p"},   # a=2 -> two b values: a->b fails
        {"a": None, "b": "x", "c": "q"},
        {"a": None, "b": "x", "c": "q"},
    ]
    out = fd_discovery(
        rd.from_items(rows),
        [("a", "b"), ("b", "a"), ("a", "c")], n_buckets=4,
    ).to_pandas().set_index(["det", "dep"])
    # a->b: det values {1, 2, None}; a=2 maps to y and z -> 4 pairs
    assert out.loc[("a", "b"), "n_det"] == 3
    assert out.loc[("a", "b"), "n_pairs"] == 4
    assert out.loc[("a", "b"), "holds"] == 0
    # b->a: b=x maps to {1, None} -> fails too
    assert out.loc[("b", "a"), "holds"] == 0
    # a->c: a=1 maps to {None, p} -> fails; null dep is a value
    assert out.loc[("a", "c"), "n_pairs"] == 4
    assert out.loc[("a", "c"), "holds"] == 0


def test_json_key_profile_types_and_invalid(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.validate import (
        json_key_profile,
    )

    rows = [
        {"j": '{"a": 1, "b": "x", "c": true, "d": null, "e": [1]}'},
        {"j": '{"a": 2.5, "f": {"g": 1}}'},
        {"j": 'broken'},
        {"j": '[1, 2]'},  # non-object -> invalid
    ]
    out = json_key_profile(rd.from_items(rows), "j", n_buckets=2) \
        .to_pandas().set_index("key")
    assert out.loc["a", "n_present"] == 2
    assert out.loc["a", "n_number"] == 2  # int AND float are numbers
    assert out.loc["b", "n_string"] == 1
    assert out.loc["c", "n_bool"] == 1    # bool NOT counted as number
    assert out.loc["c", "n_number"] == 0
    assert out.loc["d", "n_null"] == 1
    assert out.loc["e", "n_container"] == 1
    assert out.loc["f", "n_container"] == 1
    assert out.loc["__invalid__", "n_present"] == 2


def test_l_diversity_stats_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.validate import (
        l_diversity_stats,
    )

    rows = [{"qa": i % 4, "qb": f"g{i % 2}", "s": (i * 3) % 5}
            for i in range(50)]
    out = l_diversity_stats(rd.from_items(rows), ["qa", "qb"], "s",
                            n_buckets=4).to_pandas()
    import pandas as pd
    df = pd.DataFrame(rows)
    ref = df.groupby(["qa", "qb"]).agg(
        n_rows=("s", "size"), n_sensitive=("s", "nunique")).reset_index()
    got = {(int(r.qa), r.qb): (int(r.n_rows), int(r.n_sensitive))
           for r in out.itertuples()}
    assert got == {(int(r.qa), r.qb): (int(r.n_rows), int(r.n_sensitive))
                   for r in ref.itertuples()}


def test_t_closeness_stats_matches_brute_force(ray_session):
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages.validate import (
        t_closeness_stats,
    )

    rng = np.random.RandomState(7)
    rows = [{"qa": int(rng.randint(0, 3)), "v": int(rng.randint(0, 5))}
            for _ in range(200)]
    out = t_closeness_stats(rd.from_items(rows), ["qa"], "v",
                            n_buckets=4).to_pandas().set_index("qa")

    domain = sorted({r["v"] for r in rows})
    n_total = len(rows)
    glob = np.array([sum(1 for r in rows if r["v"] == d) for d in domain])
    cumg = glob.cumsum()
    for qa in {r["qa"] for r in rows}:
        grp = [r["v"] for r in rows if r["qa"] == qa]
        cnt = np.array([sum(1 for v in grp if v == d) for d in domain])
        cumc = cnt.cumsum()
        emd = int(np.abs(cumc * n_total - cumg * len(grp)).sum())
        assert int(out.loc[qa, "n_rows"]) == len(grp)
        assert int(out.loc[qa, "emd_num"]) == emd


def test_key_hash_float_promoted_ints_match_int_path():
    import numpy as np
    import pyarrow as pa

    from document_text_extraction_ray.stages.join import _key_hash

    vals = [0, 5, -3, 2**52 - 1, 123456789012345]
    hi = _key_hash(pa.chunked_array([pa.array(vals, pa.int64())]))
    hf = _key_hash(pa.chunked_array([pa.array([float(v) for v in vals],
                                              pa.float64())]))
    assert (hi == hf).all()
    # nulls hash to 0 on both paths (typed-null int64 -> NaN float64 twin)
    hi_n = _key_hash(pa.chunked_array([pa.array([None, 7], pa.int64())]))
    hf_n = _key_hash(pa.chunked_array([pa.array([None, 7.0], pa.float64())]))
    assert (hi_n == hf_n).all() and hi_n[0] == 0
    # genuinely fractional floats keep the (consistent) string path
    hfr = _key_hash(pa.chunked_array([pa.array([1.5, 2.0], pa.float64())]))
    import zlib
    assert hfr[0] == zlib.crc32(b"1.5")
