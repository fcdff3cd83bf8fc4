"""Bucketed (co-partitioned) parquet storage tests: write layout,
zero-exchange join equality vs pandas merge, co-location invariant,
empty-bucket typing."""

import glob
import os

import pandas as pd
import pyarrow.parquet as pq
import ray.data as rd


def _mk(tmp_path, left, right, n_buckets=4):
    from document_text_extraction_ray.stages.storage import write_bucketed

    lp, rp = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(rd.from_pandas(left), lp, "k", n_buckets)
    write_bucketed(rd.from_pandas(right), rp, "rk", n_buckets)
    return lp, rp


def test_bucketed_join_equals_pandas_merge(tmp_path):
    from document_text_extraction_ray.stages.storage import (
        read_bucketed_join,
    )

    left = pd.DataFrame({"k": [1, 2, 3, 4, 5, 2, -7],
                         "a": [10, 20, 30, 40, 50, 21, 70]})
    right = pd.DataFrame({"rk": [2, 2, 3, 9, -7],
                          "b": ["x", "y", "z", "w", "neg"]})
    lp, rp = _mk(tmp_path, left, right)
    out = (read_bucketed_join(lp, rp, "k", "rk", 4)
           .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True))
    exp = (left.merge(right, left_on="k", right_on="rk")
           .sort_values(["k", "a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, exp)


def test_bucketed_write_colocates_keys(tmp_path):
    """Every key's rows land wholly in one bucket dir, and the two sides
    agree on the placement (same hash) — the invariant the zero-exchange
    join relies on."""
    from document_text_extraction_ray.stages.storage import write_bucketed

    df = pd.DataFrame({"k": list(range(100)) * 2, "v": range(200)})
    p = str(tmp_path / "t")
    write_bucketed(rd.from_pandas(df), p, "k", 8)
    seen = {}
    for f in glob.glob(os.path.join(p, "bucket=*", "*.parquet")):
        b = int(f.split("bucket=")[1].split(os.sep)[0])
        for k in pq.read_table(f, columns=["k"]).column("k").to_pylist():
            assert seen.setdefault(k, b) == b, f"key {k} split across buckets"
    assert len(seen) == 100
    # hive layout: bucket is path-encoded, not stored in the files
    f0 = glob.glob(os.path.join(p, "bucket=*", "*.parquet"))[0]
    assert "bucket" not in pq.read_schema(f0).names


def test_bucketed_join_empty_buckets_stay_typed(tmp_path):
    """Buckets where one side is absent must emit typed empties (not
    object-dtype frames that poison the unified schema)."""
    from document_text_extraction_ray.stages.storage import (
        read_bucketed_join,
    )

    # single key each -> most of the 8 buckets empty on both sides
    left = pd.DataFrame({"k": [5], "a": [1]})
    right = pd.DataFrame({"rk": [5], "b": [2]})
    lp, rp = _mk(tmp_path, left, right, n_buckets=8)
    out = read_bucketed_join(lp, rp, "k", "rk", 8).to_pandas()
    assert len(out) == 1
    assert out["a"].dtype == "int64" and out["b"].dtype == "int64"


def test_parquet_layout_stats_reads_footers(tmp_path):
    """Footer sweep: per-file rows/row-groups/bytes; a file written with
    small row groups reports the true group count."""
    import pyarrow as pa

    from document_text_extraction_ray.stages.storage import (
        parquet_layout_stats,
    )

    t = pa.table({"a": list(range(1000)), "b": ["x"] * 1000})
    pq.write_table(t, str(tmp_path / "multi.parquet"), row_group_size=100)
    pq.write_table(t.slice(0, 10), str(tmp_path / "tiny.parquet"))
    out = (parquet_layout_stats([str(tmp_path)])
           .to_pandas().set_index("file_name"))
    assert out.loc["multi.parquet", "n_rows"] == 1000
    assert out.loc["multi.parquet", "n_row_groups"] == 10
    assert out.loc["tiny.parquet", "n_rows"] == 10
    assert out.loc["multi.parquet", "n_columns"] == 2
    assert (out["total_bytes"] > 0).all()


def test_bucketed_join_composite_key(tmp_path):
    """Composite-key bucketing: both sides written on a 2-key tuple hash
    join with zero exchanges; equals the pandas tuple merge."""
    from document_text_extraction_ray.stages.storage import (
        read_bucketed_join, write_bucketed,
    )

    left = pd.DataFrame({"k1": [1, 1, 2, 2, 3], "k2": ["a", "b", "a", "b", "a"],
                         "v": [10, 11, 20, 21, 30]})
    right = pd.DataFrame({"r1": [1, 2, 2, 9], "r2": ["a", "b", "z", "a"],
                          "w": [100, 200, 201, 900]})
    lp, rp = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(rd.from_pandas(left), lp, ["k1", "k2"], 4)
    write_bucketed(rd.from_pandas(right), rp, ["r1", "r2"], 4)
    out = (read_bucketed_join(lp, rp, ["k1", "k2"], ["r1", "r2"], 4)
           .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True))
    exp = (left.merge(right, left_on=["k1", "k2"], right_on=["r1", "r2"])
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(out, exp)


def test_compact_parquet_merges_tiny_files(tmp_path):
    """32 tiny files compact into footer-planned groups; content identical
    (order-independent), file count shrinks, manifest reports the plan."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.storage import compact_parquet

    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    t = pa.table({"k": list(range(640)), "v": [f"r{i}" for i in range(640)]})
    rd.from_arrow(t).repartition(32).write_parquet(src)
    assert len(glob.glob(src + "/*.parquet")) == 32
    manifest = compact_parquet(src, dst, target_rows=200).to_pandas()
    out_files = glob.glob(dst + "/*.parquet")
    assert len(out_files) == len(manifest) < 32
    assert manifest["n_rows"].sum() == 640
    back = rd.read_parquet(dst).to_pandas().sort_values("k")
    assert back["k"].tolist() == list(range(640))
    assert back["v"].tolist() == [f"r{i}" for i in range(640)]


def test_zonemap_prunes_files_and_matches_filter(tmp_path):
    """Sorted runs + zone map: the range read opens only intersecting
    files (checked against the manifest), returns exactly the predicate
    rows; an empty range stays schema-typed."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.storage import (
        read_key_range, write_sorted_runs,
    )

    base = str(tmp_path / "runs")
    t = pa.table({"k": list(range(1000)), "v": [i * 2 for i in range(1000)]})
    write_sorted_runs(rd.from_arrow(t).repartition(10), base, "k")
    zm = pq.read_table(base + "/_zonemap.parquet").to_pandas()
    assert len(zm) >= 2 and zm["n_rows"].sum() == 1000
    # selective range intersects a strict subset of files
    n_hit = ((zm["key_max"] >= 100) & (zm["key_min"] <= 150)).sum()
    assert 0 < n_hit < len(zm)
    out = read_key_range(base, "k", 100, 150).to_pandas().sort_values("k")
    assert out["k"].tolist() == list(range(100, 151))
    assert out["v"].tolist() == [i * 2 for i in range(100, 151)]
    # Ray's to_pandas drops columns on ALL-empty datasets (engine-wide
    # quirk, see NOTES) — assert emptiness, not dtypes, here.
    empty = read_key_range(base, "k", 5000, 6000).to_pandas()
    assert len(empty) == 0


def test_bucketed_join_null_keys_never_match(tmp_path):
    """SQL semantics: null keys match nothing (pandas alone would pair
    NaN with NaN); how='left' keeps null-key left rows unmatched."""
    from document_text_extraction_ray.stages.storage import (
        read_bucketed_join, write_bucketed,
    )

    left = pd.DataFrame({"k": pd.array([1, None, 3], dtype="Int64"),
                         "a": [10, 20, 30]})
    right = pd.DataFrame({"rk": pd.array([None, 3], dtype="Int64"),
                          "b": [90, 80]})
    lp, rp = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(rd.from_pandas(left), lp, "k", 4)
    write_bucketed(rd.from_pandas(right), rp, "rk", 4)
    inner = read_bucketed_join(lp, rp, "k", "rk", 4).to_pandas()
    assert len(inner) == 1 and inner.iloc[0]["a"] == 30
    lj = (read_bucketed_join(lp, rp, "k", "rk", 4, how="left")
          .to_pandas().sort_values("a").reset_index(drop=True))
    assert len(lj) == 3
    assert lj[lj["a"] == 20]["b"].isna().all()  # null key: unmatched
    import pytest
    with pytest.raises(ValueError):
        read_bucketed_join(lp, rp, "k", "rk", 4, how="outer")


def test_range_partition_stats_balance_and_hot_key_collapse():
    """Exact bounds balance a uniform column; a hot value spanning
    several thresholds collapses the middle partitions (absent parts)."""
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages.storage import (
        range_partition_stats,
    )

    uniform = rd.from_items([{"v": int(i)} for i in range(1000)])
    out = range_partition_stats(uniform, "v", 4, n_buckets=4) \
        .to_pandas().sort_values("part").reset_index(drop=True)
    assert list(out["part"]) == [0, 1, 2, 3]
    assert list(out["n_rows"]) == [250, 250, 250, 250]
    assert out.loc[0, "min_v"] == 0 and out.loc[3, "max_v"] == 999
    # contiguous, non-overlapping ranges
    assert (out["min_v"].iloc[1:].to_numpy()
            > out["max_v"].iloc[:-1].to_numpy()).all()

    # one value = 90% of rows -> it owns several quantile thresholds
    hot = rd.from_items([{"v": 5}] * 900 + [{"v": int(i)} for i in range(100)])
    h = range_partition_stats(hot, "v", 4, n_buckets=4) \
        .to_pandas().sort_values("part").reset_index(drop=True)
    assert h["n_rows"].sum() == 1000
    assert len(h) < 4                      # middle partitions collapsed
    assert h["n_rows"].max() >= 900        # the hot value stays together


def test_export_snapshot_isolated_from_recommit(tmp_path):
    """An exported snapshot keeps serving the OLD rows after the live
    table recommits a partition (hardlinked inodes survive the
    rmtree+rename) — snapshot isolation on a plain filesystem."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_text_extraction_ray.state import checkpoint as ckpt

    out = str(tmp_path / "table")
    os.makedirs(os.path.join(out, ckpt.MANIFEST_DIR), exist_ok=True)

    def stage(rows, tag):
        d = str(tmp_path / f"stage_{tag}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(pa.table({"v": rows}), os.path.join(d, "f.parquet"))
        return d

    ckpt.commit_part(out, "r1", 0, stage([1, 2, 3], "a"),
                     {"files": ["f.parquet"], "row_count": 3})
    ckpt.commit_part(out, "r1", 1, stage([4, 5], "b"),
                     {"files": ["f.parquet"], "row_count": 2})

    snap = str(tmp_path / "snap_v1")
    info = ckpt.export_snapshot(out, snap)
    assert info["files"] == 2 and info["rows"] == 5

    # live table recommits part 0 with different data
    ckpt.commit_part(out, "r2", 0, stage([9, 9, 9, 9], "c"),
                     {"files": ["f.parquet"], "row_count": 4})

    def read_all(d):
        t = pq.read_table(ckpt.committed_files(d), partitioning=None)
        return sorted(t.column("v").to_pylist())

    assert read_all(out) == [4, 5, 9, 9, 9, 9]
    assert read_all(snap) == [1, 2, 3, 4, 5]   # snapshot unchanged

    # snapshot is also readable as a Ray Dataset
    import ray.data as rd
    ds = rd.read_parquet(ckpt.committed_files(snap))
    assert ds.count() == 5


def test_zorder_locality_beats_single_dim_sort():
    """Morton interleave bit layout is exact, and z-partitions bound BOTH
    dimensions (a 1-D sort bounds only its lead column)."""
    import numpy as np
    import ray.data as rd

    from document_text_extraction_ray.stages.storage import (
        zorder_partition_stats,
        zorder_value,
    )

    assert zorder_value(np.array([0b101]), np.array([0b011]))[0] \
        == 0b011011          # y2x2..y0x0 interleave: x=101, y=011 -> 011011
    rng = np.random.default_rng(2)
    xs = rng.integers(0, 64, 4000)
    ys = rng.integers(0, 64, 4000)
    rows = [{"x": int(a), "y": int(b)} for a, b in zip(xs, ys)]
    out = zorder_partition_stats(rd.from_items(rows), "x", "y",
                                 n_parts_log2=4, bits=6, n_buckets=4) \
        .to_pandas()
    assert out["n_rows"].sum() == 4000
    assert len(out) == 16
    # each partition's bounding box covers at most a quarter of each axis
    assert ((out["x_max"] - out["x_min"]) <= 31).all()
    assert ((out["y_max"] - out["y_min"]) <= 31).all()


def test_bloom_index_prunes_files_and_result_is_exact(ray_session, tmp_path):
    """A selective probe must open FEWER files than exist while the result
    equals the exact IN filter; a missing key returns empty."""
    import pyarrow as pa
    import ray.data as rd

    from document_text_extraction_ray.stages.storage import (
        build_bloom_index, read_bloom_lookup)

    path = str(tmp_path / "docs")
    rows = [{"doc_id": i, "v": f"val{i}"} for i in range(4000)]
    rd.from_arrow(pa.Table.from_pylist(rows)).repartition(16) \
        .write_parquet(path)
    build_bloom_index(path, "doc_id", m_bits=1 << 14)

    ds, n_cand = read_bloom_lookup(path, "doc_id", [7, 3999])
    df = ds.to_pandas().sort_values("doc_id")
    assert df["doc_id"].tolist() == [7, 3999]
    assert df["v"].tolist() == ["val7", "val3999"]
    assert 1 <= n_cand < 16  # files actually pruned

    miss, n_miss = read_bloom_lookup(path, "doc_id", [10_000_000])
    assert len(miss.to_pandas()) == 0
