"""Driver-contract tests: entry() smoke + queries() vs oracle_sql() via DuckDB
(a fast subset; tools/check_correctness.py covers all queries)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

SUBSET = ["extract_main_text", "token_stats", "q1_pricing", "q3_top_revenue",
          "events_window", "ann_topk", "exact_dedup"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def test_entry_smoke():
    result = entrymod.entry()
    df = result.to_pandas() if hasattr(result, "to_pandas") else result
    assert len(df) >= 1
    assert "extracted_text" in df.columns and "url" in df.columns
    assert set(df["status"]) == {"ok"}


def test_query_keys_align():
    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    assert len(qs) >= 20


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(name, con):
    import pyarrow as pa

    import ray.data

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    result = qs[name](SF)
    if isinstance(result, ray.data.Dataset):
        ray_df = result.to_pandas()
    elif isinstance(result, pa.Table):
        ray_df = result.to_pandas()
    else:
        ray_df = result
    sql_df = con.execute(oracles[name]).fetchdf()
    assert sorted(ray_df.columns) == sorted(sql_df.columns)
    assert len(ray_df) == len(sql_df)
    a, b = _norm(ray_df), _norm(sql_df)
    for c in a.columns:
        av, bv = a[c].values, b[c].values
        if a[c].dtype.kind == "f":
            assert np.allclose(av.astype(float), bv.astype(float), atol=1e-9), c
        else:
            assert (av.astype(str) == bv.astype(str)).all(), c


def test_augmentation_oracles_null_text_parity():
    """A NULL text row must behave like '' on both sides (the kernels guard
    with `x or ''`; the oracles COALESCE) — checked for the three
    augmentation-based oracles on a synthetic table."""
    import duckdb

    from document_text_extraction_ray.functions.fields import (
        chunk_paragraphs,
        extract_address,
        extract_all_fields,
        extract_experience_years,
        is_date_like,
    )
    from document_text_extraction_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    con.execute("""CREATE VIEW documents AS SELECT * FROM (VALUES
        (1, 'plain words only'), (2, CAST(NULL AS VARCHAR))) t(doc_id, text)""")

    # fields_struct_counts: python kernel replay
    sql = {r[0]: r[1:] for r in con.execute(
        ORACLE_SQL["fields_struct_counts"]).fetchall()}
    from document_text_extraction_ray.functions.fields import extract_education

    for i, x in [(1, "plain words only"), (2, None)]:
        aug = (f"{x or ''} reach me +1-415-555-{i % 10000:04d} "
               f"linkedin.com/in/user{i} github.com/user{i} "
               f"gpa: 3.{i % 9 + 1} bachelor of science, "
               f"University of Springfield")
        f = extract_all_fields(aug)
        assert sql[i] == (len(f["phones"]), len(f["linkedin"]),
                          len(f["github"]), len(f["degrees"]), len(f["gpa"]),
                          len(extract_education(aug)["institutions"]))

    # doc_profile_fields
    sql = {r[0]: r[1:] for r in con.execute(
        ORACLE_SQL["doc_profile_fields"]).fetchall()}
    for i, x in [(1, "plain words only"), (2, None)]:
        sep = "\n\n" if i % 2 == 0 else "\n"
        when = f"since {1990 + i % 35}" if i % 3 != 0 else "recently"
        aug = (f"{x or ''}{sep}contact details: {100 + i % 900} main "
               f"street, springfield {i}\n{1 + i % 30} years experience {when}")
        expect = (extract_address(aug),
                  ",".join(extract_experience_years(aug)),
                  is_date_like(aug), len(chunk_paragraphs(aug)))
        assert sql[i] == expect, (i, sql[i], expect)


def test_read_pq_sizes_small_files_and_passes_directories_through(
        tmp_path, monkeypatch):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_text_extraction_ray.pipelines import queries as Q

    calls = []
    monkeypatch.setattr(Q.rd, "read_parquet",
                        lambda path, **kw: calls.append((path, kw)))
    f = str(tmp_path / "events.parquet")
    pq.write_table(pa.table({"x": [1, 2, 3]}), f)
    Q._read_pq(f, columns=["x"])
    Q._read_pq(str(tmp_path), columns=["x"])
    assert calls == [(f, {"columns": ["x"], "override_num_blocks": 4}),
                     (str(tmp_path), {"columns": ["x"]})]


def test_oracle_sql_has_no_wide_integer_or_decimal_columns(con):
    """DuckDB widens SUM over BIGINT to HUGEINT (and some sums to DECIMAL);
    pandas reads those as float64 while the query returns int64, so a value
    hash cannot match.  Every oracle casts such columns to the query's dtype."""
    from document_text_extraction_ray.pipelines.queries import ORACLE_SQL

    wide = []
    for name, sql in ORACLE_SQL.items():
        for col, dtype, *_ in con.execute(f"DESCRIBE {sql}").fetchall():
            if dtype.split("(")[0] in ("HUGEINT", "UHUGEINT", "DECIMAL"):
                wide.append((name, col, dtype))
    assert wide == []


def test_comparator_fails_on_int_float_kind_and_ulp_differences():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "tools", "check_correctness.py")
    spec = importlib.util.spec_from_file_location("check_correctness", path)
    cc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cc)

    ints = pd.DataFrame({"k": [1, 2], "v": [3, 4]})
    assert cc.compare("q", ints, ints.copy()) == []
    problems = cc.compare("q", ints, ints.astype({"v": "float64"}))
    assert problems and "dtype kind" in problems[0]
    floats = pd.DataFrame({"k": [1, 2], "v": [0.1 + 0.2, 1.0]})
    off = pd.DataFrame({"k": [1, 2], "v": [0.3, 1.0]})
    problems = cc.compare("q", floats, off)
    assert problems and "ULP" in problems[0]
