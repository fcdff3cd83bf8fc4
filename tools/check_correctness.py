"""Local replica of the driver's correctness gate: run every queries() entry
and compare against its oracle_sql() via DuckDB (row count + column names +
int/float dtype kind + order-insensitive value comparison).  Float columns
must match bit for bit, as a comparison of value hashes requires.

Usage: python tools/check_correctness.py [--sf /root/testdata/sf0.01] [names...]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list:
    problems = []
    if len(ray_df) == 0 and len(sql_df) == 0:
        return problems
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns differ: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"row count: ray={len(ray_df)} sql={len(sql_df)}")
        return problems
    a, b = normalize(ray_df), normalize(sql_df)
    for c in a.columns:
        av, bv = a[c], b[c]
        kinds = av.dtype.kind + bv.dtype.kind
        if "f" in kinds and ("i" in kinds or "u" in kinds):
            # A value hash tells an int from a float even when they are equal.
            problems.append(f"column {c}: dtype kind differs: ray={av.dtype} sql={bv.dtype}")
        elif "f" in kinds:
            ok = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9,
                             equal_nan=True)
            exact = (av.astype(float).values == bv.astype(float).values).all()
            if not ok:
                problems.append(f"column {c}: float values differ beyond 1e-9")
            elif not exact:
                problems.append(f"column {c}: float ULP differences (hash would fail)")
        else:
            neq = (av.astype(str).values != bv.astype(str).values)
            if neq.any():
                i = int(np.argmax(neq))
                problems.append(
                    f"column {c}: {neq.sum()} mismatches, first at row {i}: "
                    f"ray={av.iloc[i]!r} sql={bv.iloc[i]!r}"
                )
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs, oracles = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf}/{t}.parquet')"
        )

    names = args.names or list(qs)
    failed = []
    for name in names:
        t0 = time.time()
        try:
            ray_df = to_pandas(qs[name](args.sf))
        except Exception as exc:
            print(f"FAIL  {name}: ray query raised {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok    {name}: rows-only ({len(ray_df)} rows, {dt:.1f}s)")
            continue
        sql_df = con.execute(oracles[name]).fetchdf()
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL  {name} ({len(ray_df)} rows, {dt:.1f}s)")
            for p in problems:
                print(f"      - {p}")
            failed.append(name)
        else:
            print(f"ok    {name}: match ({len(ray_df)} rows, {dt:.1f}s)")
    ray.shutdown()
    if failed:
        print(f"\n{len(failed)} FAILED: {failed}")
        sys.exit(1)
    print(f"\nall {len(names)} queries ok")


if __name__ == "__main__":
    main()
