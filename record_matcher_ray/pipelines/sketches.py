"""Dataset-level sketch aggregates — the fixed-size-partial shape a
100-TB pipeline needs where exact aggregation would shuffle raw values.

HyperLogLog (Flajolet et al. 2007; 64-bit variant per Heule et al.
"HyperLogLog in practice", EDBT 2013): each block contributes a
2**p-byte register array computed vectorized from splitmix64 hashes;
partials merge by elementwise max, so the exchange volume is
O(blocks · groups · 2**p) bytes — independent of row count. The
reference engine has no sketch surface (records.py:49 computes exact
uniqueness in memory); this module is part of the engine's
beyond-reference scale family. Kernels live in functions/sketches.py
(shared with the per-object HyperLogLog class and approx_uniqueness).

Every numeric step (hash chain, rho, integer register sum, estimator
association order, libm log for linear counting) is replayable
bit-for-bit by the DuckDB oracle in ``__ray_entry__._sketch_oracles``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from record_matcher_ray.core.exchange import bucket_exchange
from record_matcher_ray.functions.sketches import (
    hll_estimate,
    hll_registers,
    hll_rho,
)


def _registers_of(bucket: np.ndarray, rho: np.ndarray, p: int) -> np.ndarray:
    """(bucket, rho) already computed → dense register array (sort-based
    segmented max; see functions/sketches.hll_registers)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(bucket) == 0:
        return regs
    comb = (bucket.astype(np.uint64) << np.uint64(8)) | rho
    comb.sort()
    b = (comb >> np.uint64(8)).astype(np.int64)
    ends = np.flatnonzero(np.diff(b) != 0)
    last = np.concatenate([ends, [len(b) - 1]])
    regs[b[last]] = (comb[last] & np.uint64(0xFF)).astype(np.uint8)
    return regs


def _hll_partial(col: str, group_col: str | None, p: int):
    """→ the per-block HLL partial: one row per group of the block with
    a ``2**p``-byte register list. Hash = ``column_hash64`` (splitmix64
    for int columns — SQL-replayable; whole-string rolling hash +
    splitmix64 finalizer for strings, whose raw poly hash has
    structured low bits that rho would read)."""
    from record_matcher_ray.core.hashkernels import column_hash64, mix64

    def partial(t: pa.Table) -> pa.Table:
        col_arr = t[col]
        h = column_hash64(col_arr)
        if pa.types.is_string(col_arr.type):
            h = mix64(h)
        if group_col is None:
            regs = hll_registers(h, p)
            return pa.table(
                {
                    "grp": pa.array(["ALL"]),
                    "regs": pa.array([regs], pa.list_(pa.uint8())),
                }
            )
        bucket, rho = hll_rho(h, p)
        codes, uniques = pd.factorize(
            t[group_col].to_pandas().astype(str), sort=False
        )
        out_g, out_r = [], []
        for gi, gval in enumerate(uniques):
            sel = codes == gi
            out_g.append(str(gval))
            out_r.append(_registers_of(bucket[sel], rho[sel], p))
        return pa.table(
            {
                "grp": pa.array(out_g),
                "regs": pa.array(out_r, pa.list_(pa.uint8())),
            }
        )

    return partial


def approx_distinct(
    ds: ray.data.Dataset,
    col: str,
    group_col: str | None = None,
    p: int = 12,
) -> pd.DataFrame:
    """Approximate distinct count of ``col`` (optionally per
    ``group_col``) via HyperLogLog: fixed-size mergeable partials per
    block, made in the map side of ONE small exchange on the group and
    merged per call (sort by group, elementwise-max ``reduceat`` over
    the stacked registers) — raw values never shuffle. → DataFrame(grp,
    approx_n) sorted by grp, estimate rounded to 6 decimals
    (double-determinism margin for the SQL oracle)."""

    def merge(t: pa.Table) -> pa.Table:
        t = t.sort_by("grp")
        grp = t["grp"].to_numpy(zero_copy_only=False)
        regs = t["regs"].combine_chunks().flatten().to_numpy()
        starts = np.flatnonzero(np.concatenate(([True], grp[1:] != grp[:-1])))
        merged = np.maximum.reduceat(regs.reshape(len(t), 1 << p), starts)
        return pa.table(
            {"grp": pa.array(grp[starts], pa.string()),
             "approx_n": [round(hll_estimate(r), 6) for r in merged]}
        )

    out = bucket_exchange(ds, ["grp"], merge,
                          prepare=_hll_partial(col, group_col, p))
    df = out.to_pandas()
    if len(df) == 0:  # Ray 2.49 drops names on 0-row to_pandas
        return pd.DataFrame({"grp": pd.Series([], dtype=object),
                             "approx_n": pd.Series([], dtype=np.float64)})
    return df.sort_values("grp").reset_index(drop=True)


# ---- count-min sketch ---------------------------------------------------


def cm_hash_rows(ids: np.ndarray, depth: int, width: int, seed: int) -> np.ndarray:
    """(depth, n) counter positions: row i uses sample_hash(id, seed+i)
    % width — the same splitmix64 chain the sampling family replays in
    SQL, so the whole sketch is oracle-checkable."""
    from record_matcher_ray.pipelines.sampling import sample_hash

    return np.stack(
        [
            (sample_hash(ids, seed + i) % np.uint64(width)).astype(np.int64)
            for i in range(depth)
        ]
    )


def count_min(
    ds: ray.data.Dataset,
    col: str,
    width: int = 1024,
    depth: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Count-min sketch of an int64 column → (depth, width) int64
    counters. Partials are per-block counters merged by elementwise
    ADDITION — exact integer sums, so the sketch is merge-order- and
    partitioning-invariant (unlike Misra-Gries/SpaceSaving, whose merge
    is order-dependent — why this is the frequency sketch chosen for the
    oracle-checked surface). Counter volume O(blocks · depth · width · 8 B)
    rides the tiny partial stream; raw values never shuffle.
    Estimate(key) = min over rows of counter[row][h_row(key)] —
    always >= true count (Cormode & Muthukrishnan 2005)."""

    def partial(t: pa.Table) -> pa.Table:
        c = np.zeros((depth, width), dtype=np.int64)
        if len(t):
            ids = np.ascontiguousarray(t[col].to_numpy(), dtype=np.int64)
            pos = cm_hash_rows(ids, depth, width, seed)
            for i in range(depth):
                c[i] = np.bincount(pos[i], minlength=width)
        return pa.table({"counters": pa.array([c.ravel()], pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    total = np.zeros(depth * width, dtype=np.int64)
    for b in parts.iter_batches(batch_size=256, batch_format="pyarrow"):
        for row in b["counters"]:
            total += np.asarray(row.as_py(), dtype=np.int64)
    return total.reshape(depth, width)


def cm_estimate(
    counters: np.ndarray, keys: np.ndarray, seed: int = 0
) -> np.ndarray:
    """Point-query the sketch: min over rows of the key's counter."""
    depth, width = counters.shape
    pos = cm_hash_rows(keys.astype(np.int64), depth, width, seed)
    ests = np.stack([counters[i, pos[i]] for i in range(depth)])
    return ests.min(axis=0)


def kmv_partials(
    ds: ray.data.Dataset, col: str, k: int = 256
) -> ray.data.Dataset:
    """Per-block KMV (bottom-k / k-minimum-values) partials: the ``k``
    smallest distinct ``column_hash64`` values of each block, one
    list<uint64> row per block. Union-of-bottom-k == bottom-k-of-union,
    so the merge is partitioning- and merge-order-invariant (set
    semantics, like the HLL register max)."""
    from record_matcher_ray.core.hashkernels import column_hash64, mix64

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"hs": pa.array([], pa.list_(pa.uint64()))})
        col_arr = t[col]
        h = column_hash64(col_arr)
        if pa.types.is_string(col_arr.type):
            h = mix64(h)
        u = np.unique(h)  # sorted distinct
        return pa.table({"hs": pa.array([u[:k]], pa.list_(pa.uint64()))})

    return ds.map_batches(partial, batch_format="pyarrow")


def kmv_distinct(
    ds: ray.data.Dataset, col: str, k: int = 256
) -> pd.DataFrame:
    """Approximate distinct count via the KMV estimator — the sketch
    whose state is a SAMPLE of the distinct values (unlike HLL's
    registers), which is what makes set-operation estimates and
    distinct-value sampling possible downstream. Per-block bottom-k
    partials (``k``×8 bytes each) merge on the driver; if the union
    holds fewer than ``k`` hashes nothing was truncated anywhere, so the
    count is EXACT; otherwise est = (k−1)·2⁶⁴ / h₍ₖ₎ (one double
    division — pinned order, SQL-replayable; (k−1)·2⁶⁴ is a power-of-two
    product, exact in a double for k ≤ 2⁵³).
    → DataFrame(k, n_kept, kth_hash, est_distinct) — one row.
    """
    parts = kmv_partials(ds, col, k=k).to_pandas()
    if len(parts) == 0:
        u = np.empty(0, np.uint64)
    else:
        u = np.unique(np.concatenate(
            [np.asarray(r, dtype=np.uint64) for r in parts["hs"]]
        ))
    u = u[:k]
    n_kept = len(u)
    kth = int(u[-1]) if n_kept else 0  # 0 sentinel for empty input
    if n_kept < k:
        est = float(n_kept)  # exact — no partial ever truncated
    else:
        est = round((k - 1) * 18446744073709551616.0 / float(u[k - 1]), 6)
    return pd.DataFrame({
        "k": pd.Series([k], dtype=np.int64),
        "n_kept": pd.Series([n_kept], dtype=np.int64),
        "kth_hash": pd.Series([kth], dtype=np.uint64),
        "est_distinct": pd.Series([est], dtype=np.float64),
    })


def approx_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
    n_bins: int = 4096,
) -> pd.DataFrame:
    """Approximate quantiles via a mergeable fixed-width histogram sketch
    — the unbounded-stream scale path grouped_quantiles' docstring points
    at: two streaming passes, per-block partials of CONSTANT size
    (min/max/count, then an ``n_bins`` int64 histogram), merged by
    elementwise addition, so the exchange volume is independent of row
    count and the result is partitioning-invariant. Error ≤ one bin width
    of the value range. → DataFrame (q, est), est = midpoint of the bin
    holding rank floor(q·(n−1)), rounded to 6dp.

    Every float step (bin index ``floor((x−mn)·B/(mx−mn))``, estimate
    ``mn + (bin+0.5)·(mx−mn)/B``) is a pinned-order IEEE-double expression
    replayed bit-for-bit by the DuckDB oracle.
    """
    qs = tuple(float(q) for q in qs)
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")

    def mmc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.drop_null(pc.cast(t[col], pa.float64()))
        n = len(v)
        return pa.table(
            {"mn": pa.array([pc.min(v).as_py() if n else None],
                            pa.float64()),
             "mx": pa.array([pc.max(v).as_py() if n else None],
                            pa.float64()),
             "n": pa.array([n], pa.int64())}
        )

    s = ds.map_batches(mmc, batch_format="pyarrow").to_pandas()
    n_total = int(s["n"].sum())
    if n_total == 0:
        return pd.DataFrame({"q": list(qs), "est": [np.nan] * len(qs)})
    mn = float(s["mn"].min())
    mx = float(s["mx"].max())
    if mx == mn:
        return pd.DataFrame({"q": list(qs), "est": [round(mn, 6)] * len(qs)})

    def hist(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.drop_null(pc.cast(t[col], pa.float64())).to_numpy()
        bins = np.minimum(
            np.floor((v - mn) * float(n_bins) / (mx - mn)).astype(np.int64),
            n_bins - 1,
        )
        h = np.bincount(bins, minlength=n_bins)
        return pa.table({"h": pa.array([h], pa.list_(pa.int64()))})

    total = np.zeros(n_bins, dtype=np.int64)
    for b in (
        ds.map_batches(hist, batch_format="pyarrow")
        .iter_batches(batch_size=256, batch_format="pyarrow")
    ):
        for row in b["h"]:
            total += np.asarray(row.as_py(), dtype=np.int64)

    cum = np.cumsum(total)
    ests = []
    for q in qs:
        rank = int(np.floor(q * (n_total - 1)))
        b = int(np.searchsorted(cum, rank + 1))
        ests.append(round(mn + ((b + 0.5) * (mx - mn) / float(n_bins)), 6))
    return pd.DataFrame({"q": list(qs), "est": ests})


_PROFILE_MAX_DISTINCT = 200_000  # exact string-distinct partial cap


def profile_table(ds: ray.data.Dataset, p: int = 12) -> pd.DataFrame:
    """One-pass per-column data profile → DataFrame (col_name, n,
    n_null, n_distinct, method) sorted by col_name — the ingest-audit
    primitive (row counts, null rates, cardinalities at a glance).

    Per-column strategy: integer columns estimate distincts by
    HyperLogLog (``method='hll'`` — nulls hash as 0, the
    ``column_hash64`` contract); string columns count EXACT distincts
    (``method='exact'`` — nulls read as ``''``), partial-capped at
    ``_PROFILE_MAX_DISTINCT`` block-distinct values with an actionable
    error (an id-like string column should profile via HLL on a hash
    column instead); other types get counts only (``method='none'``).

    Scale shape: ONE streaming pass; every block reduces to one row per
    column (counts + a 2^p-byte register array or a block-distinct
    value list), merged on the driver — merge volume is
    O(blocks · columns · 2^p), independent of row count. Estimates are
    the same splitmix64→registers→estimator chain as
    :func:`approx_distinct`, so the DuckDB oracle replays them
    bit-exactly; exact counts are plain ``count(DISTINCT …)``.
    """
    from record_matcher_ray.core.hashkernels import column_hash64

    sch = ds.schema()

    def kind_of(t) -> str:
        if isinstance(t, pa.DataType):
            if pa.types.is_integer(t):
                return "hll"
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                return "exact"
            return "none"
        k = getattr(np.dtype(t), "kind", "?") if t is not object else "O"
        return {"i": "hll", "u": "hll", "O": "exact", "U": "exact"
                }.get(k, "none")

    kinds = {n: kind_of(t) for n, t in zip(sch.names, sch.types)}

    def partial(t: pa.Table) -> pa.Table:
        names, ks, ns, nnull, regs, vals = [], [], [], [], [], []
        for c, k in kinds.items():
            arr = t[c]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            names.append(c)
            ks.append(k)
            ns.append(len(arr))
            nnull.append(arr.null_count)
            if k == "hll":
                regs.append(hll_registers(column_hash64(arr), p).tobytes())
                vals.append([])
            elif k == "exact":
                u = pc.unique(pc.fill_null(pc.cast(arr, pa.string()), ""))
                if len(u) > _PROFILE_MAX_DISTINCT:
                    raise ValueError(
                        f"profile_table: column {c!r} exceeds "
                        f"{_PROFILE_MAX_DISTINCT} block-distinct values; "
                        f"profile a hash of it via HLL instead."
                    )
                regs.append(b"")
                vals.append(u.to_pylist())
            else:
                regs.append(b"")
                vals.append([])
        return pa.table(
            {"col_name": pa.array(names, pa.string()),
             "kind": pa.array(ks, pa.string()),
             "n": pa.array(ns, pa.int64()),
             "n_null": pa.array(nnull, pa.int64()),
             "regs": pa.array(regs, pa.binary()),
             "vals": pa.array(vals, pa.list_(pa.string()))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for c in sorted(kinds):
        sel = parts[parts["col_name"] == c]
        k = kinds[c]
        n = int(sel["n"].sum())
        n_null = int(sel["n_null"].sum())
        if k == "hll" and len(sel):
            stack = np.stack(
                [np.frombuffer(r, np.uint8) for r in sel["regs"]]
            )
            nd = round(hll_estimate(stack.max(axis=0)), 6)
        elif k == "exact" and len(sel):
            seen: set = set()
            for v in sel["vals"]:
                seen.update(v)
                if len(seen) > _PROFILE_MAX_DISTINCT:
                    raise ValueError(
                        f"profile_table: column {c!r} exceeds "
                        f"{_PROFILE_MAX_DISTINCT} distinct values; "
                        f"profile a hash of it via HLL instead."
                    )
            nd = float(len(seen))
        else:
            nd = None
        out.append({"col_name": c, "n": n, "n_null": n_null,
                    "n_distinct": nd, "method": k})
    df = pd.DataFrame(out)
    df["n"] = df["n"].astype(np.int64)
    df["n_null"] = df["n_null"].astype(np.int64)
    df["n_distinct"] = df["n_distinct"].astype(np.float64)
    return df


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    k: int,
) -> ray.data.Dataset:
    """EXACT frequent items: every value whose count strictly exceeds
    N/k → (value, cnt) — without ever grouping by the raw
    (possibly huge-cardinality) column.

    Two-phase local-candidates algorithm (the distributed form of the
    Misra-Gries guarantee): if count(x) > N/k globally then, by
    averaging, count_b(x) > n_b/k in at least one block b, so the union
    of per-block local heavy hitters is a SUPERSET of the true answer.
    Phase 1 streams once emitting each block's local candidates (≤ k−1
    values per block) plus its row count; phase 2 broadcasts the merged
    candidate set (bounded by blocks × k, not by column cardinality) and
    streams once more counting ONLY candidate rows; the driver keeps the
    exact winners with cnt·k > N (integer compare — no float threshold).
    Zero shuffles; per-block partials are tiny regardless of block size.
    Nulls are not values (SQL GROUP BY + WHERE IS NOT NULL parity).
    """
    import ray as _ray

    # one partial per batch: candidate values + the batch row count. The
    # row count must be summed over ALL batches (not only ones with
    # candidates), so emit it as a dedicated sentinel row (null value).
    def partial(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        vc = pc.value_counts(pc.drop_null(c))
        cnts = vc.field("counts").to_numpy()
        keep = cnts * np.int64(k) > np.int64(len(t))
        vals = vc.field("values").filter(pa.array(keep))
        sentinel = pa.nulls(1, vals.type)
        return pa.table(
            {
                "value": pa.concat_arrays(
                    [vals.combine_chunks() if isinstance(
                        vals, pa.ChunkedArray) else vals, sentinel]
                ),
                "nb": pa.array(
                    np.concatenate(
                        [np.zeros(len(vals), np.int64),
                         np.array([len(t)], np.int64)]
                    )
                ),
            }
        )

    parts = [
        t for t in _ray.get(
            ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
        ) if len(t)
    ]
    if not parts:
        return ray.data.from_arrow(
            pa.schema([("value", pa.int64()),
                       ("cnt", pa.int64())]).empty_table()
        )
    cat = pa.concat_tables(parts).combine_chunks()
    n_total = int(pc.sum(cat["nb"]).as_py() or 0)
    cand = pc.unique(pc.drop_null(cat["value"]))
    if len(cand) == 0 or n_total == 0:
        return ray.data.from_arrow(
            pa.table({"value": cand, "cnt": pa.array([], pa.int64())})
        )
    cand_ref = _ray.put(cand)

    def count_cands(t: pa.Table) -> pa.Table:
        cv = _ray.get(cand_ref)
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        hit = c.filter(pc.is_in(c, value_set=cv))
        vc = pc.value_counts(hit)
        return pa.table(
            {"value": vc.field("values"),
             "cnt": vc.field("counts")}
        )

    cparts = [
        t for t in _ray.get(
            ds.map_batches(count_cands, batch_format="pyarrow")
            .to_arrow_refs()
        ) if len(t)
    ]
    import pandas as pd

    merged = (
        pa.concat_tables(cparts).to_pandas()
        .groupby("value", sort=False)["cnt"].sum().reset_index()
    )
    wins = merged[merged["cnt"].astype(object) * k > n_total]
    out = pa.table(
        {"value": pa.array(wins["value"].to_numpy(), cand.type),
         "cnt": pa.array(wins["cnt"].to_numpy(np.int64))}
    )
    return ray.data.from_arrow(out)


def kmv_set_ops(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    col_a: str,
    col_b: str,
    k: int = 256,
) -> pd.DataFrame:
    """KMV set-operation estimates between two keyed datasets (Beyer et
    al. 2007): bottom-k distinct-hash sketches of each side combine into
    a valid sketch of the UNION (bottom-k of the union of bottom-ks),
    and the fraction of the union sketch present in BOTH side sketches
    estimates Jaccard — yielding distinct-union, Jaccard and
    distinct-intersection estimates from two tiny sketches. The sketch
    algebra step that makes KMV (unlike HLL registers) support
    intersections. → ONE row (k, n_a, n_b, n_union, kth_union, overlap,
    est_union, jaccard, est_intersection).

    Deterministic/replayable: sketches are set-semantics bottom-k of
    splitmix64 hashes (partition/merge-order invariant); when the union
    sketch holds < k hashes nothing was truncated on either side so the
    union count is EXACT; estimators are pinned-order doubles
    ((k−1)·2⁶⁴ is exact in a double), readout half-up 6dp.

    Scale shape: per-block bottom-k partials (k×8 bytes each) per side —
    no exchange at all; the driver merges O(blocks·k) hashes.
    """
    def _merged(ds: ray.data.Dataset, col: str) -> np.ndarray:
        parts = kmv_partials(ds, col, k=k).to_pandas()
        if len(parts) == 0:
            return np.empty(0, np.uint64)
        u = np.unique(np.concatenate(
            [np.asarray(r, dtype=np.uint64) for r in parts["hs"]]
        ))
        return u[:k]

    ka = _merged(ds_a, col_a)
    kb = _merged(ds_b, col_b)
    un = np.unique(np.concatenate([ka, kb]))[:k]
    n_u = len(un)
    kth = int(un[-1]) if n_u else 0
    overlap = int(np.sum(np.isin(un, ka) & np.isin(un, kb)))
    if n_u == 0:
        est_union = jac = inter = 0.0
    else:
        if n_u < k:
            est_union = float(n_u)  # exact — no truncation anywhere
        else:
            est_union = float(k - 1) * 18446744073709551616.0 / float(kth)
        jac = float(overlap) / float(n_u)
        inter = jac * est_union

    def r6(v: float) -> float:
        import math
        return math.floor(v * 1e6 + 0.5) / 1e6

    return pd.DataFrame({
        "k": pd.Series([k], dtype=np.int64),
        "n_a": pd.Series([len(ka)], dtype=np.int64),
        "n_b": pd.Series([len(kb)], dtype=np.int64),
        "n_union": pd.Series([n_u], dtype=np.int64),
        "kth_union": pd.Series([kth], dtype=np.uint64),
        "overlap": pd.Series([overlap], dtype=np.int64),
        "est_union": pd.Series([r6(est_union)], dtype=np.float64),
        "jaccard": pd.Series([r6(jac)], dtype=np.float64),
        "est_intersection": pd.Series([r6(inter)], dtype=np.float64),
    })
