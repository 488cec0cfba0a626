"""Local mimic of the driver's correctness gate: run every queries() entry
and its oracle_sql() side-by-side, compare row count / schema / values
(order-insensitive). Each line shows the engine's time and the DuckDB
oracle's time; the totals of both are printed at the end. Usage:

    PYTHONPATH=. python tools/check_contract.py [sf_dir] [--only name1,name2]

run from the repository root, so Ray workers import the same checkout.
"""

from __future__ import annotations

import pathlib
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj):
    import pyarrow as pa

    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name, ours: pd.DataFrame, theirs: pd.DataFrame) -> list[str]:
    problems = []
    if len(ours) != len(theirs):
        problems.append(f"row count {len(ours)} != {len(theirs)}")
    if sorted(ours.columns) != sorted(theirs.columns):
        problems.append(f"schema {sorted(ours.columns)} != {sorted(theirs.columns)}")
        return problems
    a, b = canon(ours), canon(theirs)
    if len(a) == len(b):
        for c in a.columns:
            ka = a[c].dtype.kind if hasattr(a[c].dtype, "kind") else "O"
            kb = b[c].dtype.kind if hasattr(b[c].dtype, "kind") else "O"
            # The driver hashes raw values: int64 5 vs float64 5.0 mismatch.
            if {ka, kb} == {"i", "f"} or {ka, kb} == {"u", "f"}:
                problems.append(
                    f"col {c}: numeric dtype kind mismatch "
                    f"({a[c].dtype} vs {b[c].dtype}) — driver hash will fail"
                )
                continue
            if ka == "f" or kb == "f":
                av = a[c].astype(float).to_numpy()
                bv = b[c].astype(float).to_numpy()
                both_nan = np.isnan(av) & np.isnan(bv)
                bad = (av != bv) & ~both_nan
                if bad.any():
                    close = np.isclose(av, bv, rtol=0, atol=1e-9,
                                       equal_nan=True) | both_nan
                    note = (" (all within 1e-9 — float summation order; "
                            "driver hash will still fail)"
                            if close.all() else "")
                    problems.append(f"col {c}: {int(bad.sum())} exact diffs"
                                    f"{note} (first: {av[bad][:2].tolist()} vs "
                                    f"{bv[bad][:2].tolist()})")
            else:
                neq = a[c].astype(str) != b[c].astype(str)
                if neq.any():
                    problems.append(f"col {c}: {int(neq.sum())} diffs (first: "
                                    f"{a[c][neq].head(2).tolist()} vs "
                                    f"{b[c][neq].head(2).tolist()})")
    return problems


def main(sf_dir: str, only: set[str] | None = None):
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    if only is None:
        e = entrymod.entry()
        edf = to_pandas(e)
        print(f"entry(): {len(edf)} rows, schema ok: {list(edf.columns)[:4]}...")

    qs = entrymod.queries()
    if only:
        missing = only - set(qs)
        if missing:
            print(f"unknown query names: {sorted(missing)}")
            sys.exit(2)
        qs = {k: v for k, v in qs.items() if k in only}
    sqls = entrymod.oracle_sql()
    n_pass = n_fail = 0
    engine_s = oracle_s = 0.0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        engine_s += dt
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(ours)} rows, {dt:.1f}s)")
            n_pass += 1
            continue
        t0 = time.time()
        theirs = con.execute(sqls[name]).fetchdf()
        ot = time.time() - t0
        oracle_s += ot
        times = f"engine {dt:.1f}s, oracle {ot:.1f}s"
        problems = compare(name, ours, theirs)
        if problems:
            print(f"FAIL {name} ({times}): " + "; ".join(problems[:4]))
            n_fail += 1
        else:
            print(f"PASS {name}: {len(ours)} rows match oracle ({times})")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    print(f"engine total {engine_s:.1f}s, oracle total {oracle_s:.1f}s")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    argv = sys.argv[1:]
    only = None
    if "--only" in argv:
        i = argv.index("--only")
        only = set(argv[i + 1].split(","))
        argv = argv[:i] + argv[i + 2:]
    main(argv[0] if argv else "/root/testdata/sf0.01", only)
