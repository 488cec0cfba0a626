"""Contract — sketches & statistics profiles (HLL, KMV, CM).

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.contract.shared import (  # noqa: F401
    _SQL_M,
    _sql_mulmod,
    _sql_xorshift,
)
from record_matcher_ray.sources.readers import read_table


def _q_approx_quantiles(sf_dir: str):
    """Mergeable histogram quantile sketch over order totals — constant
    per-block partials, pinned-order IEEE float math (bit-replayable)."""

    from record_matcher_ray.pipelines.sketches import approx_quantiles

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return approx_quantiles(
        ds, "o_totalprice", qs=(0.1, 0.5, 0.9, 0.99), n_bins=1024
    )


def _q_profile(sf_dir: str):
    """Per-column profile of orders: counts, null counts, HLL distinct
    for ints, exact distinct for strings."""

    from record_matcher_ray.pipelines.sketches import profile_table

    ds = read_table(  # whole-table profile by design
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate", "o_orderpriority"],
    )
    return profile_table(ds)


def _hll_value_sql(value_expr: str, table: str, p: int = 12) -> str:
    """Scalar HLL-estimate subquery for one integer expression — the
    same splitmix64→(bucket,rho)→register-max→estimator chain as
    `_sketch_oracles` (sketches.py semantics), single implicit group."""
    m = 1 << p
    C264 = "18446744073709551616.0"
    hu = _sql_splitmix64(
        f"(({value_expr})::HUGEINT % {_SQL_M} + {_SQL_M}) % {_SQL_M}"
    )
    alpha = f"(0.7213::DOUBLE / (1.0::DOUBLE + 1.079::DOUBLE / {m}.0))"
    raw = f"(((({alpha} * {m}) * {m}) * {C264}) / (s::DOUBLE))"
    return f"""(
        WITH hf AS (SELECT ({hu}) AS hu FROM {table}),
        br AS (
          SELECT (hu >> {64 - p})::BIGINT AS bucket,
                 ({_sql_mulmod("hu::HUGEINT", m)})::UBIGINT AS rest
          FROM hf
        ), s1 AS (SELECT bucket, rest, (rest | (rest >> 1)) AS x FROM br
        ), s2 AS (SELECT bucket, rest, (x | (x >> 2)) AS x FROM s1
        ), s3 AS (SELECT bucket, rest, (x | (x >> 4)) AS x FROM s2
        ), s4 AS (SELECT bucket, rest, (x | (x >> 8)) AS x FROM s3
        ), s5 AS (SELECT bucket, rest, (x | (x >> 16)) AS x FROM s4
        ), s6 AS (SELECT bucket, rest, (x | (x >> 32)) AS x FROM s5
        ), rt AS (
          SELECT bucket,
                 CASE WHEN rest = 0 THEN {64 - p + 1}
                      ELSE 65 - bit_count(x)::BIGINT END AS rho
          FROM s6
        ), regs AS (SELECT bucket, max(rho) AS reg FROM rt GROUP BY bucket
        ), sums AS (
          SELECT sum(1::HUGEINT << (64 - reg)) AS s_present,
                 count(*) AS n_present
          FROM regs
        ), est AS (
          SELECT s_present + ({m} - n_present)::HUGEINT
                   * (1::HUGEINT << 64) AS s,
                 ({m} - n_present) AS zeros
          FROM sums
        )
        SELECT round(CASE WHEN {raw} <= 2.5::DOUBLE * {m}.0 AND zeros > 0
                          THEN {m} * ln({m}.0 / zeros)
                          ELSE {raw} END, 6)
        FROM est
    )"""


def _profile_orders_oracle() -> str:
    """Replay of sketches.profile_table over the orders table: HLL
    estimates for int columns (nulls hash as 0 — column_hash64
    contract), exact distinct for strings (nulls read ''), counts only
    for double/timestamp columns."""
    int_cols = ["o_orderkey", "o_custkey"]
    str_cols = ["o_orderstatus", "o_orderpriority"]
    none_cols = ["o_totalprice", "o_orderdate"]
    rows = []
    for c in int_cols:
        rows.append(
            f"SELECT '{c}' AS col_name, count(*)::BIGINT AS n, "
            f"(count(*) - count({c}))::BIGINT AS n_null, "
            f"({_hll_value_sql(f'coalesce({c}, 0)', 'orders')})::DOUBLE "
            f"AS n_distinct, 'hll' AS method FROM orders"
        )
    for c in str_cols:
        rows.append(
            f"SELECT '{c}' AS col_name, count(*)::BIGINT AS n, "
            f"(count(*) - count({c}))::BIGINT AS n_null, "
            f"count(DISTINCT coalesce({c}, ''))::DOUBLE AS n_distinct, "
            f"'exact' AS method FROM orders"
        )
    for c in none_cols:
        rows.append(
            f"SELECT '{c}' AS col_name, count(*)::BIGINT AS n, "
            f"(count(*) - count({c}))::BIGINT AS n_null, "
            f"NULL::DOUBLE AS n_distinct, 'none' AS method FROM orders"
        )
    return " UNION ALL ".join(rows)


def _q_countmin(sf_dir: str):
    """Count-min frequency estimates of custkeys 1-20 over orders
    (width=512 < distinct keys, so real over-count collisions are in
    play) — counters built by exact-integer partial addition, replayed
    cell-for-cell by the SQL oracle."""
    import pandas as pd

    from record_matcher_ray.pipelines.sketches import cm_estimate, count_min

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    counters = count_min(ds, "o_custkey", width=512, depth=4, seed=0)
    keys = np.arange(1, 21, dtype=np.int64)
    return pd.DataFrame(
        {
            "custkey": keys,
            "est_count": cm_estimate(counters, keys, seed=0).astype(np.int64),
        }
    )


def _q_kmv(sf_dir: str):
    """KMV bottom-k distinct sketch over o_custkey (k=256): per-block
    bottom-k hash partials, driver merge, (k-1)·2^64/h_k estimator."""

    from record_matcher_ray.pipelines.sketches import kmv_distinct

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    return kmv_distinct(ds, "o_custkey", k=256)


def _q_kmv_setops(sf_dir: str):
    """KMV set-operation estimates (k=256) between the distinct
    o_custkey set of orders and the c_custkey set of customer:
    union / Jaccard / intersection from two bottom-k sketches."""

    from record_matcher_ray.pipelines.sketches import kmv_set_ops

    a = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    b = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    return kmv_set_ops(a, b, "o_custkey", "c_custkey", k=256)


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog approximate distinct o_custkey per o_orderstatus plus
    a global 'ALL' row (p=12) — fixed-size mergeable partials, raw
    values never shuffle (sketches.py)."""
    import pandas as pd

    from record_matcher_ray.pipelines.sketches import approx_distinct

    def orders():
        return read_table(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderstatus"],
        )

    per = approx_distinct(orders(), "o_custkey", group_col="o_orderstatus")
    glob = approx_distinct(orders(), "o_custkey", group_col=None)
    return (
        pd.concat([per, glob], ignore_index=True)
        .sort_values("grp")
        .reset_index(drop=True)
    )


def _q_heavy_hitters(sf_dir: str):
    """Exact frequent customers (count·1000 > N) via the two-phase
    local-candidates algorithm — no raw-key groupby, zero shuffles."""

    from record_matcher_ray.pipelines.sketches import heavy_hitters

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    return heavy_hitters(ds, "o_custkey", 1000)


def _sql_splitmix64(x: str) -> str:
    """Full splitmix64 finalizer chain (hashkernels.mix64) as nested SQL
    (input HUGEINT in [0, 2**64) → UBIGINT expression)."""
    h1 = _sql_mulmod(_sql_xorshift(x, 30), 0xBF58476D1CE4E5B9)
    h2 = _sql_mulmod(_sql_xorshift(f"({h1})", 27), 0x94D049BB133111EB)
    return f"xor(({h2})::UBIGINT, ({h2})::UBIGINT >> 31)"


def _kmeans_oracle(
    k: int = 8, iters: int = 5, d: int = 64,
    scale_bits: int = 20, seed: int = 0,
    tail: str | None = None,
    recursive: bool = False,
) -> str:
    """Exact replay of pipelines/similarity.kmeans: because the engine
    runs Lloyd's entirely in fixed-point integer arithmetic (quantize →
    integer distances → integer centroid floor-div), every iteration is
    bit-replayable as a chained CTE — no float summation order anywhere.
    DuckDB's `//` truncates toward zero, so the floor-div CASE emulates
    Python's floor semantics for negative sums."""
    from record_matcher_ray.pipelines.sampling import sql_sample_hash_cte

    C = f"{float(1 << scale_bits)!r}"
    cte, hcol = sql_sample_hash_cte("vec_id", seed=seed)
    dist = ("list_sum(list_transform(list_zip(p.qv, c.qv), "
            "z -> (z[1]-z[2])*(z[1]-z[2])))")
    rec = "RECURSIVE " if recursive else ""
    sql = [f"""
        WITH {rec}q AS (
          SELECT vec_id,
                 list_transform(embedding,
                   x -> CAST(floor(x::DOUBLE * {C} + 0.5) AS BIGINT)) AS qv
          FROM embeddings
        ), t0 AS (SELECT vec_id, qv FROM q),{cte},
        c0 AS (
          SELECT (row_number() OVER (ORDER BY {hcol}, vec_id) - 1)::BIGINT
                   AS cid, qv
          FROM s5 ORDER BY {hcol}, vec_id LIMIT {k}
        )"""]
    for i in range(iters):
        sql.append(f""", a{i} AS (
          SELECT vec_id, qv, cid FROM (
            SELECT p.vec_id, p.qv, c.cid,
                   row_number() OVER (PARTITION BY p.vec_id
                                      ORDER BY {dist}, c.cid) AS rn
            FROM q p CROSS JOIN c{i} c) WHERE rn = 1
        ), u{i} AS (
          SELECT cid, r.j AS j, sum(qv[r.j]) AS s, count(*) AS cnt
          FROM a{i} CROSS JOIN range(1, {d + 1}) r(j)
          GROUP BY cid, r.j
        ), c{i + 1} AS (
          SELECT prev.cid, coalesce(upd.qv, prev.qv) AS qv
          FROM c{i} prev LEFT JOIN (
            SELECT cid, list(fd ORDER BY j) AS qv FROM (
              SELECT cid, j,
                     CAST(CASE WHEN s >= 0 THEN s // cnt
                          ELSE -(((-s) + cnt - 1) // cnt) END
                          AS BIGINT) AS fd
              FROM u{i}) GROUP BY cid) upd
          ON prev.cid = upd.cid
        )""")
    if tail is None:
        tail = f"""
        SELECT vec_id, cid AS cluster FROM (
          SELECT p.vec_id, c.cid,
                 row_number() OVER (PARTITION BY p.vec_id
                                    ORDER BY {dist}, c.cid) AS rn
          FROM q p CROSS JOIN c{iters} c) WHERE rn = 1
        ORDER BY vec_id"""
    sql.append(tail.replace("{DIST}", dist).replace("{LAST}",
                                                    f"c{iters}"))
    return "".join(sql)


def _davies_bouldin_oracle(**kw) -> str:
    """Davies-Bouldin (q=2 RMS) replay: extends the kmeans CTE chain —
    exact-int assignment d², HUGEINT cluster Σd², one sqrt per scatter,
    centroid-pair sqrt distances, max ratio, ascending-cluster ordered
    mean — mirroring similarity.davies_bouldin term for term."""
    tail = """
        , asg AS (
          SELECT vec_id, cid AS cluster, dmin FROM (
            SELECT p.vec_id, c.cid, {DIST} AS dmin,
                   row_number() OVER (PARTITION BY p.vec_id
                                      ORDER BY {DIST}, c.cid) AS rn
            FROM q p CROSS JOIN {LAST} c) WHERE rn = 1
        ), cl AS (
          SELECT cluster, count(*)::BIGINT AS n,
                 sum((dmin)::HUGEINT) AS ssq
          FROM asg GROUP BY cluster
        ), sv AS (
          SELECT cluster, n,
                 sqrt((ssq)::DOUBLE / (n)::DOUBLE) AS s
          FROM cl
        ), cd AS (
          SELECT a.cid AS i, b.cid AS j,
                 list_sum(list_transform(list_zip(a.qv, b.qv),
                          z -> (z[1]-z[2])*(z[1]-z[2]))) AS m2
          FROM {LAST} a JOIN {LAST} b ON a.cid <> b.cid
        ), r AS (
          SELECT si.cluster AS i,
                 max((si.s + sj.s) / sqrt((cd.m2)::DOUBLE)) AS d_i
          FROM sv si JOIN cd ON cd.i = si.cluster
                     JOIN sv sj ON sj.cluster = cd.j
          WHERE cd.m2 > 0
          GROUP BY si.cluster
        ), dsum AS (
          SELECT list_sum(list(coalesce(r.d_i, (0.0)::DOUBLE)
                               ORDER BY sv.cluster)) AS tot,
                 count(*)::BIGINT AS kk
          FROM sv LEFT JOIN r ON r.i = sv.cluster
        )
        SELECT sv.cluster, sv.n AS n_members,
               floor(sv.s * 1000000000.0 + 0.5) / 1000000000.0 AS s,
               floor(coalesce(r.d_i, (0.0)::DOUBLE)
                     * 1000000000.0 + 0.5) / 1000000000.0 AS d_i,
               floor((dsum.tot / (dsum.kk)::DOUBLE)
                     * 1000000000.0 + 0.5) / 1000000000.0 AS db
        FROM sv LEFT JOIN r ON r.i = sv.cluster CROSS JOIN dsum"""
    return _kmeans_oracle(tail=tail, **kw)


def _sketch_oracles() -> dict[str, str]:
    """SQL replay of the HyperLogLog pipeline (sketches.py): splitmix64
    hash → (bucket, rho) → per-group register max → exact HUGEINT
    register sum → the estimator in the engine's exact double
    association order (linear counting below 2.5m uses ln(), the same
    libm log as math.log)."""
    p, m = 12, 4096
    C264 = "18446744073709551616.0"
    hu = _sql_splitmix64(f"(v::HUGEINT % {_SQL_M} + {_SQL_M}) % {_SQL_M}")
    alpha = f"(0.7213::DOUBLE / (1.0::DOUBLE + 1.079::DOUBLE / {m}.0))"
    raw = (f"(((({alpha} * {m}) * {m}) * {C264}) / (s::DOUBLE))")
    hll = f"""
        WITH vals AS (
          SELECT o_orderstatus AS grp, o_custkey AS v FROM orders
          UNION ALL
          SELECT 'ALL' AS grp, o_custkey AS v FROM orders
        ), hf AS (
          SELECT grp, ({hu}) AS hu FROM vals
        ), br AS (
          SELECT grp, (hu >> {64 - p})::BIGINT AS bucket,
                 ({_sql_mulmod("hu::HUGEINT", 1 << p)})::UBIGINT AS rest
          FROM hf
        ), s1 AS (SELECT grp, bucket, rest, (rest | (rest >> 1)) AS x FROM br
        ), s2 AS (SELECT grp, bucket, rest, (x | (x >> 2)) AS x FROM s1
        ), s3 AS (SELECT grp, bucket, rest, (x | (x >> 4)) AS x FROM s2
        ), s4 AS (SELECT grp, bucket, rest, (x | (x >> 8)) AS x FROM s3
        ), s5 AS (SELECT grp, bucket, rest, (x | (x >> 16)) AS x FROM s4
        ), s6 AS (SELECT grp, bucket, rest, (x | (x >> 32)) AS x FROM s5
        ), rt AS (
          SELECT grp, bucket,
                 CASE WHEN rest = 0 THEN {64 - p + 1}
                      ELSE 65 - bit_count(x)::BIGINT END AS rho
          FROM s6
        ), regs AS (
          SELECT grp, bucket, max(rho) AS reg FROM rt GROUP BY grp, bucket
        ), sums AS (
          SELECT grp,
                 sum(1::HUGEINT << (64 - reg)) AS s_present,
                 count(*) AS n_present
          FROM regs GROUP BY grp
        ), est AS (
          SELECT grp,
                 s_present + ({m} - n_present)::HUGEINT * (1::HUGEINT << 64)
                   AS s,
                 ({m} - n_present) AS zeros
          FROM sums
        )
        SELECT grp,
               round(CASE WHEN {raw} <= 2.5::DOUBLE * {m}.0 AND zeros > 0
                          THEN {m} * ln({m}.0 / zeros)
                          ELSE {raw} END, 6) AS approx_n
        FROM est ORDER BY grp
    """
    # count-min replay (sketches.count_min / cm_estimate): positions are
    # splitmix64(x ^ splitmix64(seed+i)) % width per depth row i; the
    # counter table is a plain GROUP BY, the probe a LEFT JOIN + min
    # (absent cells = 0 on both sides).
    import numpy as _np

    from record_matcher_ray.core.hashkernels import mix64 as _mix64

    depth, width, cm_seed = 4, 512, 0

    def _cm_pos(x: str, i: int) -> str:
        sc = int(_mix64(_np.array([cm_seed + i], _np.uint64))[0])
        seeded = f"xor(({x})::UBIGINT, {sc}::UBIGINT)::HUGEINT"
        return f"(({_sql_splitmix64(seeded)}) % {width})"

    data_rows = "\n            UNION ALL ".join(
        f"SELECT {i} AS i, {_cm_pos('o_custkey', i)} AS p FROM orders"
        for i in range(depth)
    )
    probe_rows = "\n            UNION ALL ".join(
        f"SELECT custkey, {i} AS i, {_cm_pos('custkey', i)} AS p FROM keys"
        for i in range(depth)
    )
    cm = f"""
        WITH keys AS (SELECT r.k::BIGINT AS custkey FROM range(1, 21) r(k)),
        pos AS (
          SELECT i, p, count(*) AS cnt FROM (
            {data_rows}
          ) GROUP BY i, p
        ), probe AS (
            {probe_rows}
        )
        SELECT k.custkey, min(coalesce(c.cnt, 0))::BIGINT AS est_count
        FROM probe k LEFT JOIN pos c ON k.i = c.i AND k.p = c.p
        GROUP BY k.custkey ORDER BY k.custkey
    """
    # KMV bottom-k replay (sketches.kmv_distinct): distinct splitmix64
    # hashes, k smallest, estimator (k-1)*2^64/h_k in one pinned double
    # division ((k-1)*2^64 is a power-of-two product — exact double).
    kmv_k = 256
    kmv = f"""
        WITH h AS (
          SELECT DISTINCT ({hu}) AS hu
          FROM (SELECT o_custkey AS v FROM orders)
        ), bk AS (SELECT hu FROM h ORDER BY hu LIMIT {kmv_k}),
        agg AS (
          SELECT count(*)::BIGINT AS n_kept,
                 coalesce(max(hu), 0)::UBIGINT AS kth,
                 (SELECT count(*) FROM h)::BIGINT AS n_all
          FROM bk
        )
        SELECT {kmv_k}::BIGINT AS k, n_kept, kth AS kth_hash,
               CASE WHEN n_all < {kmv_k} THEN n_all::DOUBLE
                    ELSE round({kmv_k - 1}.0::DOUBLE
                               * {C264} / kth::DOUBLE, 6)
               END AS est_distinct
        FROM agg
    """
    # KMV set-ops replay (sketches.kmv_set_ops): union-of-bottom-ks is a
    # valid union sketch; overlap fraction estimates Jaccard.
    kmv_setops = f"""
        WITH ha AS (
          SELECT DISTINCT ({hu}) AS hu
          FROM (SELECT o_custkey AS v FROM orders)
        ), ka AS (SELECT hu FROM ha ORDER BY hu LIMIT {kmv_k}),
        hb AS (
          SELECT DISTINCT ({hu}) AS hu
          FROM (SELECT c_custkey AS v FROM customer)
        ), kb AS (SELECT hu FROM hb ORDER BY hu LIMIT {kmv_k}),
        ku AS (
          SELECT hu FROM (
            SELECT DISTINCT hu FROM (
              SELECT hu FROM ka UNION ALL SELECT hu FROM kb)
          ) ORDER BY hu LIMIT {kmv_k}
        ), agg AS (
          SELECT count(*)::BIGINT AS n_u,
                 coalesce(max(hu), 0)::UBIGINT AS kth
          FROM ku
        ), ov AS (
          SELECT count(*)::BIGINT AS ov FROM ku
          WHERE hu IN (SELECT hu FROM ka)
            AND hu IN (SELECT hu FROM kb)
        ), sides AS (
          SELECT (SELECT count(*) FROM ka)::BIGINT AS n_a,
                 (SELECT count(*) FROM kb)::BIGINT AS n_b
        ), est AS (
          SELECT n_u, kth, ov, n_a, n_b,
                 CASE WHEN n_u = 0 THEN (0.0)::DOUBLE
                      WHEN n_u < {kmv_k} THEN (n_u)::DOUBLE
                      ELSE {kmv_k - 1}.0::DOUBLE * {C264}
                           / (kth)::DOUBLE
                 END AS eu,
                 CASE WHEN n_u = 0 THEN (0.0)::DOUBLE
                      ELSE (ov)::DOUBLE / (n_u)::DOUBLE
                 END AS jac
          FROM agg CROSS JOIN ov CROSS JOIN sides
        )
        SELECT {kmv_k}::BIGINT AS k, n_a, n_b, n_u AS n_union,
               kth AS kth_union, ov AS overlap,
               floor(eu * 1000000.0 + 0.5) / 1000000.0 AS est_union,
               floor(jac * 1000000.0 + 0.5) / 1000000.0 AS jaccard,
               floor(jac * eu * 1000000.0 + 0.5) / 1000000.0
                 AS est_intersection
        FROM est
    """
    return {
        "approx_distinct_orders": hll,
        "kmeans_embeddings": _kmeans_oracle(),
        "davies_bouldin_embeddings": _davies_bouldin_oracle(),
        "countmin_orders": cm,
        "kmv_orders": kmv,
        "kmv_setops_orders": kmv_setops,
    }


def queries():
    return {
        "approx_quantiles_orders": _q_approx_quantiles,
        "approx_distinct_orders": _q_approx_distinct,
        "kmv_orders": _q_kmv,
        "kmv_setops_orders": _q_kmv_setops,
        "countmin_orders": _q_countmin,
        "profile_orders": _q_profile,
        "heavy_hitters_orders": _q_heavy_hitters,
    }


def oracles():
    return {
        "approx_quantiles_orders": """
            WITH v AS (
              SELECT o_totalprice::DOUBLE AS x
              FROM orders WHERE o_totalprice IS NOT NULL
            ), s AS (
              SELECT min(x) AS mn, max(x) AS mx, count(*)::BIGINT AS n
              FROM v
            ), bins AS (
              SELECT least(CAST(floor((x - s.mn) * 1024.0 / (s.mx - s.mn))
                                AS BIGINT), 1023) AS bin
              FROM v, s
            ), h AS (
              SELECT bin, count(*)::BIGINT AS c FROM bins GROUP BY bin
            ), cumt AS (
              SELECT bin, sum(c) OVER (ORDER BY bin) AS cum FROM h
            ), qq AS (
              SELECT unnest([0.1::DOUBLE, 0.5::DOUBLE,
                             0.9::DOUBLE, 0.99::DOUBLE]) AS q
            ), sel AS (
              SELECT q.q,
                     (SELECT min(bin) FROM cumt
                      WHERE cum > CAST(floor(q.q * (s.n - 1)) AS BIGINT))
                       AS bin
              FROM qq q, s
            )
            SELECT sel.q AS q,
                   round(s.mn + ((sel.bin + 0.5) * (s.mx - s.mn) / 1024.0),
                         6) AS est
            FROM sel, s
        """,
        "profile_orders": _profile_orders_oracle(),
        "heavy_hitters_orders": """
            WITH nn AS (SELECT count(*) AS n FROM orders),
            c AS (
              SELECT o_custkey AS value, (count(*))::BIGINT AS cnt
              FROM orders WHERE o_custkey IS NOT NULL GROUP BY 1
            )
            SELECT value, cnt FROM c, nn WHERE cnt * 1000 > nn.n
        """,
        **_sketch_oracles(),
    }
