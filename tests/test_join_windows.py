"""Joins (broadcast + partitioned hash) and streaming-shaped windows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.stages.join import broadcast_join, partitioned_hash_join
from document_text_extraction_ray.stages.windows import (
    sessionize,
    sliding_window,
    tumbling_window,
)


def _sides():
    left = ray.data.from_items(
        [{"k": i % 5, "lval": i} for i in range(50)]
    )
    right = ray.data.from_items(
        [{"k": k, "rname": f"name{k}"} for k in range(4)]  # k=4 unmatched on left
    )
    return left, right


def test_broadcast_join():
    left, _ = _sides()
    small = pd.DataFrame({"k": range(4), "rname": [f"name{k}" for k in range(4)]})
    out = broadcast_join(left, small, on="k").to_pandas()
    assert len(out) == 40  # k=4 rows dropped (inner)
    assert set(out["rname"]) == {f"name{k}" for k in range(4)}


@pytest.mark.parametrize("key_type", ["int64", "string"])
def test_broadcast_join_null_keys_never_match(key_type):
    """A null key on either side matches nothing, as in every other join
    kernel (a pandas merge pairs null with null)."""
    keys = [1, None, 2] if key_type == "int64" else ["a", None, "b"]
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, getattr(pa, key_type)()),
        "lval": pa.array([10, 20, 30], pa.int64())}))
    small = pd.DataFrame({
        "k": pd.array(keys[:2], dtype="Int64" if key_type == "int64"
                      else "string"),
        "rname": ["one", "null"]})
    out = broadcast_join(left, small, on="k").to_pandas()
    assert sorted(zip(out["lval"], out["rname"])) == [(10, "one")]


def test_partitioned_hash_join_inner():
    left, right = _sides()
    out = partitioned_hash_join(left, right, on="k", n_buckets=8).to_pandas()
    assert len(out) == 40
    ref = (
        left.to_pandas().merge(right.to_pandas(), on="k")
        .sort_values(["k", "lval"]).reset_index(drop=True)
    )
    got = out.sort_values(["k", "lval"]).reset_index(drop=True)[ref.columns.tolist()]
    pd.testing.assert_frame_equal(got, ref)


def test_partitioned_hash_join_left():
    left, right = _sides()
    out = partitioned_hash_join(left, right, on="k", n_buckets=8, how="left").to_pandas()
    assert len(out) == 50
    assert out[out["k"] == 4]["rname"].isna().all()


def test_partitioned_hash_join_string_key_and_overlap():
    left = ray.data.from_items([{"k": f"s{i%3}", "v": i} for i in range(9)])
    right = ray.data.from_items([{"k": f"s{j}", "v": 100 + j} for j in range(3)])
    out = partitioned_hash_join(left, right, on="k", n_buckets=4).to_pandas()
    assert len(out) == 9
    assert "v_r" in out.columns  # overlapping non-key column suffixed


def _events(n=200, users=5):
    rows = []
    for i in range(n):
        rows.append(
            {
                "ts": np.datetime64("2025-01-01T00:00:00", "us") + np.timedelta64(i * 300, "s"),
                "user_id": i % users,
                "value": float(i % 7),
            }
        )
    return ray.data.from_items(rows)


def test_tumbling_window():
    out = tumbling_window(_events(), "ts", "user_id", "value", width_s=3600).to_pandas()
    assert (out["window_s"] % 3600 == 0).all()
    assert out["n_events"].sum() == 200


def test_sliding_window_counts():
    out = sliding_window(_events(48), "ts", "user_id", "value",
                         width_s=3600, slide_s=900).to_pandas()
    # every event falls in exactly width/slide = 4 windows
    assert out["n_events"].sum() == 48 * 4
    assert (out["window_s"] % 900 == 0).all()


def test_sessionize():
    rows = []
    base = np.datetime64("2025-01-01T00:00:00", "us")
    # user 1: two sessions separated by a 2h gap; user 2: one session
    for off in (0, 60, 120, 8000, 8060):
        rows.append({"ts": base + np.timedelta64(off, "s"), "user_id": 1, "value": 1.0})
    for off in (0, 1700, 3300):  # gaps < 1800 chain into ONE session
        rows.append({"ts": base + np.timedelta64(off, "s"), "user_id": 2, "value": 1.0})
    out = sessionize(ray.data.from_items(rows), "ts", "user_id", gap_s=1800).to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("session_start_s")
    assert len(u1) == 2
    assert u1["n_events"].tolist() == [3, 2]
    u2 = out[out["user_id"] == 2]
    assert len(u2) == 1 and u2["n_events"].iloc[0] == 3
    assert (out["session_id"] == out["session_start_s"]).all()


def test_asof_join():
    import numpy as np

    from document_text_extraction_ray.stages.join import asof_join

    base = np.datetime64("2025-01-01T00:00:00", "us")
    left = ray.data.from_items(
        [{"eid": i, "k": i % 2, "ts": base + np.timedelta64(i * 100, "s")}
         for i in range(10)]
    )
    right = ray.data.from_items(
        [{"k": 0, "rts": base - np.timedelta64(1, "s"), "tag": 100},
         {"k": 0, "rts": base + np.timedelta64(450, "s"), "tag": 101},
         {"k": 1, "rts": base + np.timedelta64(150, "s"), "tag": 200}]
    )
    out = asof_join(left, right, by="k", left_on="ts", right_on="rts").to_pandas()
    got = dict(zip(out["eid"], out["tag"]))
    # k=0 events: eid 0,2,4 before 450s -> tag 100; eid 6,8 -> tag 101
    assert got[0] == 100 and got[4] == 100
    assert got[6] == 101 and got[8] == 101
    # k=1 events: eid 1 (100s) has no match (dropped); eid 3.. -> tag 200
    assert 1 not in got
    assert got[3] == 200 and got[9] == 200


_ASOF_CASE = st.tuples(
    st.sampled_from(["int", "ts", "ts_s_us"]),
    st.sampled_from(["int", "str"]),
    st.lists(st.tuples(st.integers(0, 2), st.integers(-6, 12)),
             min_size=1, max_size=30),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-6, 12)),
                    st.integers(0, 999), max_size=20),
    st.integers(1, 3),
)


@settings(max_examples=12, deadline=None)
@given(_ASOF_CASE)
def test_asof_join_matches_per_by_merge_asof(case):
    """``asof_join`` equals ``pd.merge_asof(direction="backward")`` run per
    ``by`` key, minus the left rows it leaves unmatched (inner).  Keys reach
    below zero (pre-1970 timestamps), sides share timestamps, and the
    left's ``ts`` may be second-resolution while the right's is µs."""
    from document_text_extraction_ray.stages.join import asof_join

    on_kind, by_kind, lrows, rrows, n_blocks = case
    by = (lambda b: b) if by_kind == "int" else (lambda b: f"u{b}")
    by_t = pa.int64() if by_kind == "int" else pa.string()
    if on_kind == "int":
        lt = rt = pa.int64()
        lv = rv = (lambda v: v)
    else:
        lt = pa.timestamp("s" if on_kind == "ts_s_us" else "us")
        rt = pa.timestamp("us")
        lv = (lambda v: v) if on_kind == "ts_s_us" else (lambda v: v * 10**6)
        rv = lambda v: v * 10**6
    left = pa.table({"eid": pa.array(range(len(lrows)), pa.int64()),
                     "k": pa.array([by(b) for b, _ in lrows], by_t),
                     "ts": pa.array([lv(v) for _, v in lrows], lt)})
    rkeys = sorted(rrows)
    right = pa.table({"k": pa.array([by(b) for b, _ in rkeys], by_t),
                      "rts": pa.array([rv(v) for _, v in rkeys], rt),
                      "tag": pa.array([rrows[x] for x in rkeys], pa.int64())})
    out = asof_join(rd.from_arrow(left).repartition(n_blocks),
                    rd.from_arrow(right), by="k", left_on="ts",
                    right_on="rts", n_buckets=4)
    got = sorted((r["eid"], r["tag"]) for r in out.take_all())

    # the oracle compares µs integers (merge_asof wants one key dtype)
    lf = pd.DataFrame({"eid": range(len(lrows)),
                       "k": [by(b) for b, _ in lrows],
                       "t": [v * 10**6 for _, v in lrows]})
    rf = pd.DataFrame({"k": [by(b) for b, _ in rkeys],
                       "t": np.array([v * 10**6 for _, v in rkeys], np.int64),
                       "tag": [rrows[x] for x in rkeys]})
    want = []
    for key, lg in lf.groupby("k"):
        m = pd.merge_asof(lg.sort_values("t"),
                          rf[rf["k"] == key].sort_values("t"),
                          on="t", direction="backward")
        m = m.dropna(subset=["tag"])
        want += zip(m["eid"].tolist(), m["tag"].astype("int64").tolist())
    assert got == sorted(want)


def test_streaming_sessionize_equals_batch():
    """Incremental keyed-actor sessionization == batch groupby sessionize."""
    import numpy as np

    from document_text_extraction_ray.stages.streaming import streaming_sessionize

    rng = np.random.RandomState(5)
    base = np.datetime64("2025-01-01T00:00:00", "us")
    rows = []
    for i in range(400):
        rows.append(
            {"ts": base + np.timedelta64(int(rng.randint(0, 50_000)), "s"),
             "user_id": int(rng.randint(0, 12)), "value": 1.0}
        )
    ds = ray.data.from_items(rows)

    stream = streaming_sessionize(ds, "ts", "user_id", gap_s=900, n_actors=4)
    batch = (
        sessionize(ds, "ts", "user_id", gap_s=900)
        .to_pandas()[["user_id", "session_start_s", "session_end_s", "n_events"]]
        .sort_values(["user_id", "session_start_s"])
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        stream.astype({"user_id": "int64"}), batch.astype({"user_id": "int64"})
    )


def test_streaming_open_sessions_introspection():
    import numpy as np

    import ray as _ray

    from document_text_extraction_ray.stages.streaming import SessionActor

    actor = SessionActor.remote(gap_s=100)
    _ray.get(actor.ingest.remote([1, 1, 2], [10, 50, 20]))
    open_now = _ray.get(actor.open_sessions.remote())
    assert (1, 10, 50, 2) in open_now and (2, 20, 20, 1) in open_now
    _ray.get(actor.ingest.remote([1], [500]))  # gap closes user 1's first
    final = _ray.get(actor.finalize.remote())
    assert (1, 10, 50, 2) in final and (1, 500, 500, 1) in final
    _ray.kill(actor)


def test_hash_join_randomized_vs_pandas():
    """Seeded random frames: partitioned_hash_join == pandas merge."""
    import pandas as pd

    from document_text_extraction_ray.stages.join import partitioned_hash_join

    rng = np.random.RandomState(11)
    for trial in range(3):
        nl, nr = rng.randint(50, 400), rng.randint(10, 120)
        left_df = pd.DataFrame({
            "k": rng.randint(0, 40, size=nl),
            "a": rng.randint(0, 1000, size=nl),
        })
        right_df = pd.DataFrame({
            "k": rng.randint(0, 40, size=nr),
            "b": rng.randint(0, 1000, size=nr),
        }).drop_duplicates("k")
        got = (
            partitioned_hash_join(
                ray.data.from_pandas(left_df), ray.data.from_pandas(right_df),
                on="k", n_buckets=7,
            )
            .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
        )
        ref = (
            left_df.merge(right_df, on="k")
            .sort_values(["k", "a"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[ref.columns.tolist()], ref,
                                      check_dtype=False)


def test_sessionize_randomized_vs_reference():
    """Seeded random event streams: distributed sessionize == a plain
    single-process reference fold."""
    rng = np.random.RandomState(23)
    base = np.datetime64("2025-01-01T00:00:00", "us")
    rows = [
        {"ts": base + np.timedelta64(int(rng.randint(0, 100_000)), "s"),
         "user_id": int(rng.randint(0, 7))}
        for _ in range(500)
    ]
    got = (
        sessionize(ray.data.from_items(rows), "ts", "user_id", gap_s=600)
        .to_pandas()
        .sort_values(["user_id", "session_start_s"])
        .reset_index(drop=True)
    )
    # Reference: per-user sorted gap fold in plain python.
    ref_rows = []
    import collections

    per_user = collections.defaultdict(list)
    for r in rows:
        per_user[r["user_id"]].append(
            int(r["ts"].astype("datetime64[s]").astype("int64"))
        )
    for uid, secs in per_user.items():
        secs.sort()
        start = prev = secs[0]
        n = 1
        for sec in secs[1:]:
            if sec - prev > 600:
                ref_rows.append((uid, start, prev, n))
                start, n = sec, 0
            prev = sec
            n += 1
        ref_rows.append((uid, start, prev, n))
    import pandas as pd

    ref = pd.DataFrame(
        ref_rows, columns=["user_id", "session_start_s", "session_end_s", "n_events"]
    ).sort_values(["user_id", "session_start_s"]).reset_index(drop=True)
    got = got[["user_id", "session_start_s", "session_end_s", "n_events"]]
    pd.testing.assert_frame_equal(got.astype("int64"), ref.astype("int64"))


def test_partitioned_hash_join_negative_and_null_keys():
    """Integer keys may be negative or null: buckets must stay deterministic
    (nulls isolated, never crash) and nulls never equi-match."""
    left = ray.data.from_items(
        [{"k": -3, "lval": 1}, {"k": -3, "lval": 2}, {"k": None, "lval": 3},
         {"k": 7, "lval": 4}]
    )
    right = ray.data.from_items(
        [{"k": -3, "rname": "neg"}, {"k": 7, "rname": "pos"},
         {"k": None, "rname": "nul"}]
    )
    out = partitioned_hash_join(left, right, on="k", n_buckets=4).to_pandas()
    got = sorted(zip(out["lval"], out["rname"]))
    assert got == [(1, "neg"), (2, "neg"), (4, "pos")]


def test_partitioned_hash_join_huge_keys_with_nulls():
    """Keys above 2^53 in a null-carrying column must keep integer
    precision: a float64 round-trip would silently bucket equal keys apart
    and drop matching rows."""
    k1, k2 = (1 << 53) + 1, (1 << 60) + 7
    left = ray.data.from_items(
        [{"k": k1, "lval": 1}, {"k": k2, "lval": 2}, {"k": None, "lval": 3}]
    )
    right = ray.data.from_items(
        [{"k": k1, "rname": "a"}, {"k": k2, "rname": "b"}]
    )
    out = partitioned_hash_join(left, right, on="k", n_buckets=8).to_pandas()
    assert sorted(zip(out["lval"], out["rname"])) == [(1, "a"), (2, "b")]


def test_global_row_number_multi_block():
    from document_text_extraction_ray.stages.windows import global_row_number

    # enough rows to span multiple blocks; unique tie-broken key (v, id)
    rows = [{"id": i, "v": (i * 37) % 500} for i in range(3000)]
    ds = ray.data.from_items(rows).repartition(13)
    out = global_row_number(ds, ["v", "id"], descending=[True, False],
                            out_column="rn").to_pandas()
    ref = sorted(rows, key=lambda r: (-r["v"], r["id"]))
    expect = {r["id"]: i + 1 for i, r in enumerate(ref)}
    got = dict(zip(out["id"], out["rn"]))
    assert got == expect


def test_moving_avg_matches_pandas_reference():
    import numpy as np
    import pandas as pd

    from document_text_extraction_ray.stages.windows import moving_avg

    rows = [{"k": i % 3, "o": i, "v": float((i * 7) % 11)} for i in range(60)]
    out = moving_avg(ray.data.from_items(rows), "k", "o", "v",
                     window=4).to_pandas()
    df = pd.DataFrame(rows).sort_values(["k", "o"])
    df["expect"] = df.groupby("k")["v"].transform(
        lambda s: s.rolling(4, min_periods=1).mean())
    merged = out.merge(df[["k", "o", "expect"]], on=["k", "o"])
    assert np.allclose(merged["moving_avg"], merged["expect"])


def test_streaming_sessionize_partitioned_equals_batch(tmp_path):
    """The production-shaped form (one pump per key-hash bucket shard, no
    driver data path) matches the batch sessionize output."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_text_extraction_ray.stages.streaming import (
        streaming_sessionize_partitioned,
    )

    rng = np.random.RandomState(9)
    base = np.datetime64("2025-03-01T00:00:00", "us")
    rows = []
    for i in range(600):
        rows.append(
            {"ts": base + np.timedelta64(int(rng.randint(0, 60_000)), "s"),
             "user_id": int(rng.randint(0, 15)), "value": 1.0}
        )
    df = pd.DataFrame(rows)
    # key-hash-partitioned layout (what the bucketed sink writes)
    n_buckets = 4
    paths = []
    for b in range(n_buckets):
        part = df[(df["user_id"].to_numpy().astype(np.uint64)
                   * np.uint64(2654435761)) % np.uint64(n_buckets) == b]
        p = tmp_path / f"bucket={b}.parquet"
        pq.write_table(pa.Table.from_pandas(part[["user_id", "ts"]],
                                            preserve_index=False), p)
        paths.append(str(p))

    stream = streaming_sessionize_partitioned(paths, "ts", "user_id",
                                              gap_s=900, batch_size=64)
    ds = ray.data.from_pandas(df)
    batch = (
        sessionize(ds, "ts", "user_id", gap_s=900)
        .to_pandas()[["user_id", "session_start_s", "session_end_s", "n_events"]]
        .sort_values(["user_id", "session_start_s"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        stream.astype({"user_id": "int64"}).reset_index(drop=True),
        batch.astype({"user_id": "int64"}),
    )


def test_anti_join_nested_columns_and_nulls():
    """anti_join keeps left rows whose key is absent from the right — with
    NESTED left columns (pyarrow joins reject those) and null keys kept."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import anti_join

    left = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3, 4, None], pa.int64()),
        "payload": pa.array([{"a": 1}, {"a": 2}, {"a": 3}, {"a": 4}, {"a": 5}],
                            pa.struct([("a", pa.int64())])),
        "tags": pa.array([["x"], [], ["y", "z"], ["w"], []],
                         pa.list_(pa.string())),
    }))
    removed = rd.from_arrow(pa.table({"id": pa.array([2, 4, 9], pa.int64())}))
    out = anti_join(left, removed, on="id").to_pandas()
    kept = sorted(x for x in out["id"] if x == x and x is not None)
    assert kept == [1, 3]
    assert out["id"].isna().sum() == 1  # null key kept
    assert {"payload", "tags"} <= set(out.columns)


def test_anti_join_empty_right():
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.join import anti_join

    left = rd.from_arrow(pa.table({"id": pa.array([1, 2], pa.int64()),
                                   "v": pa.array(["a", "b"])}))
    removed = rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))
    out = anti_join(left, removed, on="id").to_pandas()
    assert sorted(out["id"]) == [1, 2]


def test_anti_join_keeps_left_int_columns_at_one_range(monkeypatch):
    """At one range (R = 1) the right side's empty pandas aggregate blocks
    turn the sort reduce to pandas, where the right's typed-null padding
    makes the left's int64 columns float64; the result keeps the left
    schema."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count

    from document_text_extraction_ray.stages.join import anti_join

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    left = rd.from_arrow(pa.table({"id": pa.array([1, 2, 3, 4], pa.int64()),
                                   "w": pa.array([10, 20, 30, 40], pa.int64())}))
    removed = rd.from_pandas([pd.DataFrame({"id": [2]}),
                              pd.DataFrame({"id": [4]})]) \
        .groupby("id").aggregate(Count())
    out = anti_join(left, removed, on="id").to_pandas()
    assert sorted(out["id"]) == [1, 3]
    assert out["w"].dtype == np.int64


def test_merge_intervals_islands(ray_session):
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import merge_intervals

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 3,
        "s": [0, 5, 20, 21, 40,   0, 100, 100],
        "e": [10, 12, 25, 30, 45,  50, 110, 105],
    })
    out = merge_intervals(rd.from_pandas(df).repartition(3), "k", "s", "e") \
        .to_pandas().sort_values(["k", "s"]).reset_index(drop=True)
    want = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "s": [0, 20, 40, 0, 100],
        "e": [12, 30, 45, 50, 110],
        "n_intervals": [2, 2, 1, 1, 2],
    })
    assert out[["k", "s", "e", "n_intervals"]].astype(
        {"s": "int64", "e": "int64", "n_intervals": "int64"}) \
        .equals(want.astype({"s": "int64", "e": "int64",
                             "n_intervals": "int64"}))


def test_merge_intervals_touching_merge(ray_session):
    # touching (next.start == cur.end) merges — closed-interval semantics
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import merge_intervals

    df = pd.DataFrame({"k": [1, 1], "s": [0, 10], "e": [10, 20]})
    out = merge_intervals(rd.from_pandas(df), "k", "s", "e").to_pandas()
    assert len(out) == 1
    assert int(out["s"].iloc[0]) == 0 and int(out["e"].iloc[0]) == 20


def test_transition_counts_matches_pandas_lag():
    import pandas as pd

    from document_text_extraction_ray.stages.windows import transition_counts

    rows = []
    for i in range(400):
        rows.append({"k": i % 13, "t": (i * 7) % 97, "id": i,
                     "ev": "abcde"[(i * 3) % 5]})
    ds = rd.from_items(rows)
    out = transition_counts(ds, "k", ("t", "id"), "ev", n_buckets=4) \
        .to_pandas().sort_values(["from_type", "to_type"]) \
        .reset_index(drop=True)

    df = pd.DataFrame(rows).sort_values(["k", "t", "id"])
    prev = df.groupby("k")["ev"].shift(1)
    ref = (pd.DataFrame({"from_type": prev, "to_type": df["ev"]})
           .dropna().groupby(["from_type", "to_type"]).size()
           .rename("n").reset_index()
           .sort_values(["from_type", "to_type"]).reset_index(drop=True))
    ref["n"] = ref["n"].astype("int64")
    pd.testing.assert_frame_equal(out, ref)


def test_window_dedup_lag_semantics():
    import numpy as np
    import pandas as pd

    from document_text_extraction_ray.stages.windows import window_dedup

    # Bursts: events at 0s, 10s, 200s, 210s within one (k, ev) stream.
    rows = []
    for k in range(6):
        for ev in ("x", "y"):
            for j, off in enumerate((0, 10, 200, 210, 1000)):
                rows.append({"k": k, "ev": ev,
                             "ts": np.datetime64(100000 * k + off, "s"),
                             "id": len(rows)})
    ds = rd.from_items(rows)
    out = window_dedup(ds, ["k", "ev"], "ts", "id", min_gap_s=60,
                       n_buckets=4).to_pandas()
    kept = set(out["id"])

    df = pd.DataFrame(rows).sort_values(["k", "ev", "ts", "id"])
    secs = df["ts"].to_numpy().astype("datetime64[s]").astype("int64")
    prev_same = (df["k"].to_numpy()[1:] == df["k"].to_numpy()[:-1]) & (
        df["ev"].to_numpy()[1:] == df["ev"].to_numpy()[:-1])
    keep = np.ones(len(df), bool)
    keep[1:] = ~prev_same | (secs[1:] - secs[:-1] >= 60)
    ref = set(df["id"].to_numpy()[keep])
    assert kept == ref
    # each 5-event stream keeps offsets 0, 200, 1000 -> 3 of 5
    assert len(kept) == 6 * 2 * 3


def test_value_ranks_matches_pandas_window(ray_session):
    from document_text_extraction_ray.stages.windows import value_ranks

    rng = np.random.default_rng(11)
    n = 600
    df = pd.DataFrame({
        "k": rng.integers(0, 12, n),
        "v": rng.integers(0, 5, n),          # tie-heavy on purpose
        "rid": np.arange(n, dtype=np.int64),
    })
    out = value_ranks(rd.from_pandas(df), "k", "v", carry_cols=["rid"],
                      n_buckets=4).to_pandas() \
        .sort_values("rid").reset_index(drop=True)
    ref = df.sort_values("rid").reset_index(drop=True)
    ref["rnk"] = df.groupby("k")["v"].rank(method="min").astype("int64") \
        .reindex(ref.index)
    ref["drnk"] = df.groupby("k")["v"].rank(method="dense").astype("int64") \
        .reindex(ref.index)
    pd.testing.assert_frame_equal(
        out[["k", "v", "rid", "rnk", "drnk"]],
        ref[["k", "v", "rid", "rnk", "drnk"]])


def test_fill_forward_matches_pandas(ray_session):
    from document_text_extraction_ray.stages.windows import fill_forward

    rng = np.random.default_rng(17)
    n = 400
    df = pd.DataFrame({
        "k": rng.integers(0, 8, n),
        "o": np.arange(n, dtype=np.int64),
        "v": np.where(rng.random(n) < 0.7, np.nan,
                      rng.integers(1, 100, n).astype(float)),
    })
    out = fill_forward(rd.from_pandas(df), "k", ["o"], "v", n_buckets=4) \
        .to_pandas().sort_values("o").reset_index(drop=True)
    ref = df.sort_values(["k", "o"])
    ref["v"] = ref.groupby("k")["v"].ffill()
    ref = ref.sort_values("o").reset_index(drop=True)
    pd.testing.assert_frame_equal(out[["k", "o", "v"]], ref[["k", "o", "v"]])
    # leading rows of some key stay NaN (no prior non-null)
    assert out["v"].isna().any()


def test_time_weighted_stats_holds_value_until_next():
    """TWA semantics: v holds until the next observation; same-timestamp
    ties contribute zero-length segments deterministically (tiebreak id);
    single-event keys drop."""
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import (
        time_weighted_stats,
    )

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "c", "c"],
        "i": [1, 2, 3, 4, 5, 6],
        "sec": [0, 10, 30, 5, 7, 7],
        "v": [1.0, 2.0, 9.0, 3.0, 4.0, 5.0],
    })
    out = (time_weighted_stats(rd.from_pandas(df), "k", "sec", "v", "i",
                               scale=100)
           .to_pandas().set_index("k").sort_index())
    # a: 100*10 + 200*20 = 5000 over 30 s
    assert (out.loc["a", "twa_num"], out.loc["a", "twa_den"]) == (5000, 30)
    assert out.loc["a", "n_events"] == 3
    # b: single event -> dropped
    assert "b" not in out.index
    # c: two events at the SAME second: zero span, zero num, still emitted
    assert (out.loc["c", "twa_num"], out.loc["c", "twa_den"]) == (0, 0)


def test_rolling_distinct_trailing_window():
    """WAU semantics on a tiny fixture: a user counts toward every day in
    [event_day, event_day + W - 1]; duplicates within the window count
    once; disjoint users add."""
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import rolling_distinct

    df = pd.DataFrame({
        "u": [1, 1, 2, 3],
        "sec": [0 * 86400, 1 * 86400, 1 * 86400, 5 * 86400],
    })
    out = (rolling_distinct(rd.from_pandas(df), "sec", "u", window_days=3)
           .to_pandas().set_index("day").sort_index())
    # day 0: u1; day 1: u1 (twice) + u2 -> 2; day 2: u1,u2; day 3: u1,u2
    assert out.loc[0, "n_users"] == 1
    assert out.loc[1, "n_users"] == 2
    assert out.loc[2, "n_users"] == 2
    assert out.loc[3, "n_users"] == 2  # u1's day-1 event still in window
    assert out.loc[5, "n_users"] == 1 and out.loc[7, "n_users"] == 1
    assert 4 not in out.index  # no event in [2, 4]


def test_inversion_count_kernel_against_brute_force():
    """Mergesort inversion kernel == O(n^2) brute force on random arrays,
    including ties (not inversions) and sorted/reversed extremes."""
    import numpy as np

    from document_text_extraction_ray.stages.windows import _count_inversions

    rng = np.random.default_rng(11)
    for n in [0, 1, 2, 3, 7, 64, 100, 257]:
        a = rng.integers(0, 10, size=n)      # heavy ties
        brute = sum(int(a[i] > a[j])
                    for i in range(n) for j in range(i + 1, n))
        assert _count_inversions(a) == brute, n
    assert _count_inversions(np.arange(50)) == 0
    assert _count_inversions(np.arange(50)[::-1]) == 50 * 49 // 2
    f = rng.normal(size=123)                 # float comparisons
    brute = sum(int(f[i] > f[j])
                for i in range(123) for j in range(i + 1, 123))
    assert _count_inversions(f) == brute


def test_nearest_event_join_direction_and_ties():
    """Nearest in EITHER direction; equal distance picks the earlier
    right; keys with no right events drop out."""
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import (
        nearest_event_join,
    )

    def row(eid, uid, sec, typ):
        import datetime as dt
        return {"event_id": eid, "user_id": uid,
                "ts": dt.datetime(2024, 1, 1, 0, 0, sec),
                "event_type": typ}

    rows = [
        row(0, 1, 10, "A"),     # nearest B: 12 (after, d=2) vs 5 (d=5)
        row(1, 1, 30, "A"),     # equidistant 25/35 -> earlier (25)
        row(2, 1, 50, "A"),     # only earlier Bs exist
        row(10, 1, 5, "B"), row(11, 1, 12, "B"),
        row(12, 1, 25, "B"), row(13, 1, 35, "B"),
        row(20, 2, 7, "A"),     # user 2 has no B -> dropped
    ]
    out = nearest_event_join(rd.from_items(rows), "user_id", "ts",
                             "event_type", "A", "B", n_buckets=4) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert list(out["event_id"]) == [0, 1, 2]
    assert list(out["nearest_id"]) == [11, 12, 13]
    assert list(out["delta_us"]) == [-2_000_000, 5_000_000, 15_000_000]


def test_scd2_lookup_interval_semantics(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import scd2_lookup

    history = rd.from_items([
        # key 1: contiguous intervals + open tail
        {"k": 1, "valid_from_us": 10, "valid_to_us": 20, "state": "a"},
        {"k": 1, "valid_from_us": 20, "valid_to_us": 30, "state": "b"},
        {"k": 1, "valid_from_us": 30, "valid_to_us": -1, "state": "c"},
        # key 2: a GAP [20, 40) and an empty flap at 10
        {"k": 2, "valid_from_us": 10, "valid_to_us": 10, "state": "x"},
        {"k": 2, "valid_from_us": 10, "valid_to_us": 20, "state": "y"},
        {"k": 2, "valid_from_us": 40, "valid_to_us": -1, "state": "z"},
    ])
    probes = rd.from_items([
        {"k": 1, "us": 5, "pid": 1},    # before first -> missing
        {"k": 1, "us": 10, "pid": 2},   # boundary start -> a
        {"k": 1, "us": 20, "pid": 3},   # boundary handoff -> b
        {"k": 1, "us": 99, "pid": 4},   # open tail -> c
        {"k": 2, "us": 10, "pid": 5},   # empty flap skipped -> y
        {"k": 2, "us": 25, "pid": 6},   # inside the gap -> missing
        {"k": 2, "us": 40, "pid": 7},   # after gap -> z
        {"k": 3, "us": 1, "pid": 8},    # key with no history -> missing
    ])
    out = scd2_lookup(probes, history, "k", "us", "pid",
                      n_buckets=2).to_pandas().set_index("pid")
    expect = {1: "__none__", 2: "a", 3: "b", 4: "c",
              5: "y", 6: "__none__", 7: "z", 8: "__none__"}
    assert {int(i): s for i, s in out["state"].items()} == expect


def test_running_distinct_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import running_distinct

    rows = [{"k": i % 3, "ord": i, "v": f"x{(i * i) % 7}"}
            for i in range(60)]
    out = running_distinct(rd.from_items(rows), "k", "ord", "v",
                           n_buckets=4).to_pandas()
    seen = {}
    ref = {}
    for r in rows:
        s = seen.setdefault(r["k"], set())
        s.add(r["v"])
        ref[r["ord"]] = len(s)
    got = dict(zip(out["ord"].astype(int), out["n_distinct_so_far"].astype(int)))
    assert got == ref


def test_streaks_matches_brute_force(ray_session):
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import streaks

    rows = [{"k": 1, "v": d} for d in [3, 4, 5, 9, 10, 5, 20]] + \
           [{"k": 2, "v": d} for d in [7]] + \
           [{"k": 3, "v": d} for d in [1, 2, 3, 4]]
    out = streaks(rd.from_items(rows), "k", "v", n_buckets=4) \
        .to_pandas().set_index("k")
    # k=1: distinct {3,4,5,9,10,20} -> runs [3-5],[9-10],[20]
    assert (int(out.loc[1, "n_values"]), int(out.loc[1, "n_streaks"]),
            int(out.loc[1, "max_streak"])) == (6, 3, 3)
    assert (int(out.loc[2, "n_values"]), int(out.loc[2, "n_streaks"]),
            int(out.loc[2, "max_streak"])) == (1, 1, 1)
    assert (int(out.loc[3, "n_values"]), int(out.loc[3, "n_streaks"]),
            int(out.loc[3, "max_streak"])) == (4, 1, 4)


def test_ntile_cume_matches_sql_split_rule():
    import duckdb
    import pandas as pd
    import ray.data as rd

    from document_text_extraction_ray.stages.windows import ntile_cume

    # uneven partitions: sizes 7, 4, 1 -> NTILE(3) exercises the
    # first-(n%k)-tiles-get-the-extra-row rule and the size<k corner
    rows = [{"k": "a", "v": i * 3 % 50} for i in range(7)] \
        + [{"k": "b", "v": i * 7 % 50} for i in range(4)] \
        + [{"k": "c", "v": 5}]
    got = ntile_cume(rd.from_items(rows), "k", "v", n_tiles=3,
                     n_buckets=4).to_pandas() \
        .sort_values(["k", "v"]).reset_index(drop=True)
    ref = duckdb.sql("""
        SELECT k, v,
               CAST(NTILE(3) OVER w AS BIGINT) AS tile,
               CAST(ROW_NUMBER() OVER w AS BIGINT) AS cume_num,
               CAST(COUNT(*) OVER (PARTITION BY k) AS BIGINT) AS cume_den
        FROM df WINDOW w AS (PARTITION BY k ORDER BY v)
        ORDER BY k, v
    """.replace("df", "(SELECT * FROM rows_df)")).df() \
        if False else duckdb.query_df(
            pd.DataFrame(rows), "rows_df", """
        SELECT k, v,
               CAST(NTILE(3) OVER w AS BIGINT) AS tile,
               CAST(ROW_NUMBER() OVER w AS BIGINT) AS cume_num,
               CAST(COUNT(*) OVER (PARTITION BY k) AS BIGINT) AS cume_den
        FROM rows_df WINDOW w AS (PARTITION BY k ORDER BY v)
        ORDER BY k, v
    """).df()
    pd.testing.assert_frame_equal(got, ref)
