"""The bucket exchange: fixed range boundaries over a known int domain,
one fold call per bucket run, the same groups as Ray's sampled
``groupby(col).map_groups(fn)``."""

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from document_text_extraction_ray.stages import exchange as X
from document_text_extraction_ray.stages.aggregate import bucketed_fold
from document_text_extraction_ray.stages.dedup import exact_dedup
from document_text_extraction_ray.stages.join import anti_join


def _group_size_fn():
    """A fold adding to each row the row count of the group it arrived in
    (built in a function so Ray pickles it by value, not by module)."""
    def with_group_size(batch):
        if isinstance(batch, pd.DataFrame):
            return batch.assign(group_n=len(batch))
        return batch.append_column(
            "group_n",
            pa.array([batch.num_rows] * batch.num_rows, pa.int64()))
    return with_group_size


def _rows(ds):
    return sorted(tuple(sorted(r.items())) for r in ds.take_all())


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1,
             max_size=60),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["pandas", "pyarrow"]))))
def test_bucket_exchange_matches_groupby_map_groups(case):
    n_buckets, keys, n_blocks, fmt = case
    ds = ray.data.from_arrow(pa.table({
        "b": pa.array(keys, pa.int32()),
        "v": pa.array(range(len(keys)), pa.int64()),
    })).repartition(n_blocks)
    fn = _group_size_fn()
    want = ds.groupby("b").map_groups(fn, batch_format=fmt)
    got = X.bucket_exchange(ds, "b", n_buckets, fn, fmt)
    assert _rows(got) == _rows(want)


def test_bucket_exchange_one_range(monkeypatch):
    """At one CPU a single task folds every bucket; the one boundary
    ``[n_buckets]`` leaves the past-the-end range empty."""
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1})
    ds = ray.data.from_items(
        [{"b": i % 5, "v": i} for i in range(50)]).repartition(4)
    out = X.bucket_exchange(ds, "b", 5, _group_size_fn(), "pyarrow")
    blocks = [ray.get(r) for r in out.materialize().to_arrow_refs()]
    assert len(blocks) == 2
    assert [t.num_rows for t in blocks] == [50, 0]
    assert sorted(set(zip(blocks[0].column("b").to_pylist(),
                          blocks[0].column("group_n").to_pylist()))) == \
        [(k, 10) for k in range(5)]


def test_empty_ranges_keep_the_fold_schema():
    """Two distinct buckets over four ranges: the ranges that get no rows
    add no tag or hash column to the output."""
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    ds = ray.data.from_items([{"k": i % 2, "v": i} for i in range(20)])
    folded = bucketed_fold(ds, "k", fold, n_buckets=8)
    assert folded.schema().names == ["k", "v"]
    assert folded.to_pandas().sort_values("k")["v"].tolist() == [90, 100]

    docs = ray.data.from_items(
        [{"doc_id": i, "text": "same"} for i in range(3)])
    kept = exact_dedup(docs, "text", "doc_id")
    assert kept.schema().names == ["doc_id", "text"]
    df = kept.to_pandas()
    assert list(df.columns) == ["doc_id", "text"]
    assert df["doc_id"].tolist() == [0]


def test_empty_fold_results_keep_later_exchanges_arrow():
    """Ranges whose buckets all fold to nothing leave Arrow blocks: one
    empty pandas block would turn the next exchange's sort to pandas and
    the anti-join's null-padded int columns to float."""
    ds = ray.data.from_items([{"k": i, "v": i} for i in range(40)])
    # k % 8 == 0 keys all hash to bucket 0: three of four ranges fold empty
    kept = bucketed_fold(ds, "k", lambda g: g[g["v"] % 8 == 0], n_buckets=8)
    out = anti_join(kept, ray.data.from_items([{"k": 0}]), on="k",
                    n_buckets=8, left_schema=pa.schema(
                        [("k", pa.int64()), ("v", pa.int64())])).to_pandas()
    assert out["v"].dtype == "int64"
    assert sorted(out["k"]) == [8, 16, 24, 32]


@pytest.mark.parametrize("cpus,n_buckets,expected", [
    (4, 7, [1, 3, 5]), (4, 2, [1]), (4, 64, [16, 32, 48]), (1, 64, [64]),
])
def test_range_boundaries(monkeypatch, cpus, n_buckets, expected):
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": cpus})
    assert X.range_boundaries(n_buckets) == expected


@pytest.mark.parametrize("boundaries", [[1, 3, 5], [1], [7]])
def test_range_shuffle_one_block_per_range(boundaries):
    """The sort step ``bucket_exchange`` runs: one block per range, each
    sorted, no bucket in two blocks; keys past the last boundary (here
    7..9) land in the last block."""
    ds = ray.data.from_items(
        [{"bucket": (i * 7) % 10, "i": i} for i in range(200)]
    ).repartition(6)
    out = ds.sort("bucket", boundaries=boundaries).materialize()
    tables = [ray.get(r) for r in out.to_arrow_refs()]
    blocks = [t.column("bucket").to_pylist() if t.num_rows else []
              for t in tables]
    assert len(blocks) == len(boundaries) + 1
    assert sum(map(len, blocks)) == 200
    assert all(b == sorted(b) for b in blocks)
    owners = [set(b) for b in blocks]
    assert sum(map(len, owners)) == len(set().union(*owners))
    assert all(k >= boundaries[-1] for k in owners[-1])
