"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir,
compare row count + column names + order-insensitive values.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return f"SCHEMA mismatch: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}"
    if len(ray_df) != len(sql_df):
        return f"ROWS mismatch: ray={len(ray_df)} sql={len(sql_df)}"
    a, b = canon(ray_df), canon(sql_df)
    for c in a.columns:
        av, bv = a[c], b[c]
        if pd.api.types.is_float_dtype(av) or pd.api.types.is_float_dtype(bv):
            # engine-vs-SQL reduction orders differ at the ulp level:
            # equal within an absolute 1e-6 (rounding both sides to 6
            # decimals first would split values that straddle a
            # rounding boundary)
            av = pd.to_numeric(av, errors="coerce").astype(float)
            bv = pd.to_numeric(bv, errors="coerce").astype(float)
            ok = np.isclose(av, bv, rtol=0, atol=1e-6, equal_nan=True)
            if not ok.all():
                bad = av.index[np.argmin(ok)]
                return (f"VALUES mismatch col={c} row={bad}: "
                        f"ray={av[bad]!r} sql={bv[bad]!r}")
        else:
            if not (av.astype(str) == bv.astype(str)).all():
                bad = (av.astype(str) != bv.astype(str)).idxmax()
                return (f"VALUES mismatch col={c} row={bad}: "
                        f"ray={av[bad]!r} sql={bv[bad]!r}")
    return "OK"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"{name:24s} RAY-ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        wall = time.time() - t0
        if name in oracles:
            sql_df = con.execute(oracles[name]).df()
            verdict = compare(name, ray_df, sql_df)
        else:
            verdict = f"rows-only ({len(ray_df)} rows)"
        flag = "" if verdict.startswith(("OK", "rows-only")) else "  <<< FAIL"
        if flag:
            failures += 1
        print(f"{name:24s} {verdict} [{wall:.1f}s]{flag}")
    print("FAILURES:", failures)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
