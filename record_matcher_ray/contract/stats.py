"""Contract — grouped statistics / fits / inequality indexes.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_linear_fit(sf_dir: str):
    """Distributed OLS: lineitem extendedprice vs quantity — one-pass
    integer-moment partials, closed form on the driver."""

    from record_matcher_ray.pipelines.stats import linear_fit

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice"],
    )
    return linear_fit(ds, "l_quantity", "l_extendedprice")


def _q_pca(sf_dir: str):
    """Top principal direction of the embeddings Gram matrix — fixed-point
    power iteration, bit-replayed by a chained-CTE oracle."""

    from record_matcher_ray.pipelines.stats import top_component

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return top_component(ds, scale_bits=12, iters=6)


def _pca_oracle(d: int = 64, scale_bits: int = 12, iters: int = 6,
                x_scale_bits: int = 20) -> str:
    """Replay of stats.top_component: integer Gram cells, power iteration
    as chained CTEs (floor-div CASE emulates Python // on negatives), one
    pinned-order double readout (HUGEINT casts, IEEE sqrt is exactly
    rounded so loading replays bit-for-bit)."""
    Q = 1 << scale_bits
    S = 1 << x_scale_bits
    sql = [f"""
        WITH q AS (
          SELECT list_transform(embedding,
                   v -> CAST(floor(v::DOUBLE * {float(Q)!r} + 0.5)
                             AS BIGINT)) AS qv
          FROM embeddings
        ), cell AS (
          SELECT r.j AS i, s.j AS j, sum(qv[r.j] * qv[s.j]) AS a
          FROM q
          CROSS JOIN range(1, {d + 1}) r(j)
          CROSS JOIN range(1, {d + 1}) s(j)
          GROUP BY 1, 2
        ), x0 AS (
          SELECT r.j AS j, {S}::HUGEINT AS x FROM range(1, {d + 1}) r(j)
        )"""]
    for t in range(iters):
        sql.append(f""", y{t} AS (
          SELECT c.i AS j, sum(c.a * x.x) AS y
          FROM cell c JOIN x{t} x ON c.j = x.j GROUP BY 1
        ), m{t} AS (SELECT max(abs(y)) AS m FROM y{t}
        ), x{t + 1} AS (
          SELECT j, CASE WHEN (y * {S}) % m <> 0 AND y < 0
                         THEN (y * {S}) // m - 1
                         ELSE (y * {S}) // m END AS x
          FROM y{t}, m{t}
        )""")
    sql.append(f""", den AS (SELECT sum(x * x) AS d2 FROM x{iters}
        ), num AS (
          SELECT sum(c.a * xa.x * xb.x) AS nu
          FROM cell c
          JOIN x{iters} xa ON c.i = xa.j
          JOIN x{iters} xb ON c.j = xb.j
        )
        SELECT t.j,
               round((t.x)::DOUBLE / sqrt((d2)::DOUBLE), 6) AS loading,
               round(((nu)::DOUBLE / (d2)::DOUBLE)
                     / {float(Q * Q)!r}, 6) AS eigval
        FROM x{iters} t CROSS JOIN den CROSS JOIN num
        ORDER BY t.j""")
    return "".join(sql)


def _q_zscore(sf_dir: str):
    """Per-event-type z-score of value — exact integer moments broadcast,
    pinned-order double readout."""

    from record_matcher_ray.pipelines.stats import zscore_by_group

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return zscore_by_group(ds, "event_type", "value", "event_id")


def _q_robust_z(sf_dir: str):
    """Median/MAD robust z-score of event values within each event type
    (cents-quantized so every median/MAD is an exact dyadic double)."""

    from record_matcher_ray.pipelines.stats import robust_zscore

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return robust_zscore(ds, "event_type", "value", "event_id")


def _q_grouped_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of quantity vs extendedprice
    from exact integer moment partials (grouped linear_fit sibling)."""

    from record_matcher_ray.pipelines.stats import grouped_corr

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return grouped_corr(
        ds, "l_returnflag", "l_quantity", "l_extendedprice"
    )


def _q_grouped_entropy(sf_dir: str):
    """Per-nation Shannon entropy of the market-segment mix — categorical
    diversity profiling with the pinned ordered-fold float recipe."""

    from record_matcher_ray.pipelines.stats import grouped_entropy

    ds = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment"],
    )
    return grouped_entropy(ds, "c_nationkey", "c_mktsegment")


def _q_grouped_linear_fit(sf_dir: str):
    """Per-returnflag OLS trend of extendedprice vs quantity from exact
    integer moment partials (grouped sibling of linear_fit_lineitem)."""

    from record_matcher_ray.pipelines.stats import grouped_linear_fit

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return grouped_linear_fit(
        ds, "l_returnflag", "l_quantity", "l_extendedprice"
    )


def _q_psi(sf_dir: str):
    """Numeric drift monitor: PSI of order totalprice per priority
    class vs the corpus blend (fixed bins, add-1 smoothing)."""

    from record_matcher_ray.pipelines.stats import psi_numeric

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )
    return psi_numeric(
        ds, "o_totalprice", "o_orderpriority",
        lo=0.0, hi=400000.0, n_bins=10,
    )


def _q_gini(sf_dir: str):
    """Gini concentration of order spend per priority class."""

    from record_matcher_ray.pipelines.stats import gini_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )
    return gini_by_group(ds, "o_orderpriority", "o_totalprice")


def _q_theil(sf_dir: str):
    """Theil T inequality of order spend per priority class."""

    from record_matcher_ray.pipelines.stats import theil_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )
    return theil_by_group(ds, "o_orderpriority", "o_totalprice")


def _q_welch(sf_dir: str):
    """Welch two-sample t-test per order priority: does o_totalprice
    differ between status 'F' and status 'O' orders?"""

    from record_matcher_ray.pipelines.stats import welch_t_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    return welch_t_by_group(
        ds, "o_orderpriority", "o_orderstatus", "o_totalprice",
        "F", "O",
    )


def _q_benford(sf_dir: str):
    """Benford first-digit χ² forensics of order amounts per priority
    class (exact integer digit counts, pinned double χ² fold)."""

    from record_matcher_ray.pipelines.stats import benford_digit_test

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )
    return benford_digit_test(ds, "o_totalprice", "o_orderpriority")


def _q_ks(sf_dir: str):
    """Two-sample KS distance between open ('O') and finished ('F')
    orders' totalprice distributions — exact integer cdf max, one double
    division."""

    from record_matcher_ray.pipelines.stats import ks_test_two_sample

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice"],
    )
    return ks_test_two_sample(ds, "o_orderstatus", "o_totalprice",
                              "O", "F")


def _q_chi2(sf_dir: str):
    """Pearson chi-square independence of order status x priority —
    exact integer numerators per cell, pinned (a, b) fold."""

    from record_matcher_ray.pipelines.stats import chi_square_independence

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )
    return chi_square_independence(ds, "o_orderstatus", "o_orderpriority")


def _q_chi2_cells(sf_dir: str):
    """Per-cell standardized residuals of status x priority — the
    drill-down behind chi2_orders."""

    from record_matcher_ray.pipelines.stats import chi_square_cells

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )
    return chi_square_cells(ds, "o_orderstatus", "o_orderpriority")


def _q_hhi(sf_dir: str):
    """HHI concentration of order share per customer within each
    priority class — exact integer sums, one double division."""

    from record_matcher_ray.pipelines.stats import hhi_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_custkey"],
    )
    return hhi_by_group(ds, "o_orderpriority", "o_custkey")


def _q_spearman(sf_dir: str):
    """Spearman rank correlation of quantity vs extendedprice per
    returnflag — exact doubled-average-rank moments."""

    from record_matcher_ray.pipelines.stats import spearman_by_group

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return spearman_by_group(ds, "l_returnflag", "l_quantity",
                             "l_extendedprice")


def queries():
    return {
        "linear_fit_lineitem": _q_linear_fit,
        "welch_orders": _q_welch,
        "gini_orders": _q_gini,
        "theil_orders": _q_theil,
        "pca_embeddings": _q_pca,
        "zscore_events": _q_zscore,
        "robust_z_events": _q_robust_z,
        "corr_lineitem": _q_grouped_corr,
        "glm_lineitem": _q_grouped_linear_fit,
        "psi_orders": _q_psi,
        "benford_orders": _q_benford,
        "entropy_customer_segments": _q_grouped_entropy,
        "ks_orders": _q_ks,
        "chi2_orders": _q_chi2,
        "chi2_cells_orders": _q_chi2_cells,
        "hhi_orders": _q_hhi,
        "spearman_lineitem": _q_spearman,
    }


def oracles():
    return {
        "spearman_lineitem": """
            WITH t AS (
              SELECT l_returnflag AS g,
                     (floor(l_quantity * 100.0 + 0.5))::BIGINT AS qx,
                     (floor(l_extendedprice * 100.0 + 0.5))::BIGINT AS qy
              FROM lineitem
              WHERE l_returnflag IS NOT NULL
                AND l_quantity IS NOT NULL
                AND l_extendedprice IS NOT NULL
            ), r AS (
              SELECT g,
                     (2 * rank() OVER (PARTITION BY g ORDER BY qx)
                      + count(*) OVER (PARTITION BY g, qx) - 1)::HUGEINT
                       AS rx,
                     (2 * rank() OVER (PARTITION BY g ORDER BY qy)
                      + count(*) OVER (PARTITION BY g, qy) - 1)::HUGEINT
                       AS ry
              FROM t
            ), m AS (
              SELECT g, count(*)::HUGEINT AS n,
                     sum(rx)::HUGEINT AS sx, sum(ry)::HUGEINT AS sy,
                     sum(rx * ry)::HUGEINT AS sxy,
                     sum(rx * rx)::HUGEINT AS sxx,
                     sum(ry * ry)::HUGEINT AS syy
              FROM r GROUP BY g
            )
            SELECT g AS l_returnflag, n::BIGINT AS n,
                   CASE WHEN n < 2 OR (n * sxx - sx * sx) = 0
                          OR (n * syy - sy * sy) = 0
                        THEN NULL
                        ELSE (CASE WHEN
                          ((n * sxy - sx * sy)::DOUBLE)
                          / sqrt(((n * sxx - sx * sx)::DOUBLE)
                                 * ((n * syy - sy * sy)::DOUBLE)) >= 0
                          THEN floor(((n * sxy - sx * sy)::DOUBLE)
                                 / sqrt(((n * sxx - sx * sx)::DOUBLE)
                                        * ((n * syy - sy * sy)::DOUBLE))
                                 * 1000000.0 + 0.5) / 1000000.0
                          ELSE -floor(-(((n * sxy - sx * sy)::DOUBLE)
                                 / sqrt(((n * sxx - sx * sx)::DOUBLE)
                                        * ((n * syy - sy * sy)::DOUBLE)))
                                 * 1000000.0 + 0.5) / 1000000.0
                         END)
                   END AS rho
            FROM m ORDER BY g
        """,
        "hhi_orders": """
            WITH cells AS (
              SELECT o_orderpriority AS g, o_custkey AS m,
                     count(*)::HUGEINT AS c
              FROM orders
              WHERE o_orderpriority IS NOT NULL AND o_custkey IS NOT NULL
              GROUP BY 1, 2
            )
            SELECT g AS "group", sum(c)::BIGINT AS n,
                   count(*)::BIGINT AS n_members,
                   floor((sum(c * c)::DOUBLE)
                         / ((sum(c) * sum(c))::DOUBLE)
                         * 1000000.0 + 0.5) / 1000000.0 AS hhi
            FROM cells GROUP BY g ORDER BY g
        """,
        "chi2_cells_orders": """
            WITH base AS (
              SELECT o_orderstatus AS a, o_orderpriority AS b
              FROM orders
              WHERE o_orderstatus IS NOT NULL
                AND o_orderpriority IS NOT NULL
            ), tot AS (SELECT count(*)::HUGEINT AS n FROM base),
            ra AS (SELECT a, count(*)::HUGEINT AS r FROM base GROUP BY a),
            cb AS (SELECT b, count(*)::HUGEINT AS c FROM base GROUP BY b),
            obs AS (
              SELECT a, b, count(*)::BIGINT AS o FROM base GROUP BY a, b
            ), cells AS (
              SELECT ra.a, cb.b, coalesce(obs.o, 0)::BIGINT AS o,
                     ((ra.r * cb.c)::DOUBLE) / (tot.n::DOUBLE) AS e
              FROM ra CROSS JOIN cb CROSS JOIN tot
              LEFT JOIN obs ON obs.a = ra.a AND obs.b = cb.b
            )
            SELECT a, b, o AS observed,
                   floor(e * 1000000.0 + 0.5) / 1000000.0 AS expected,
                   CASE WHEN e > 0 THEN
                     (CASE WHEN (o::DOUBLE - e) / sqrt(e) >= 0
                           THEN floor((o::DOUBLE - e) / sqrt(e)
                                      * 1000000.0 + 0.5) / 1000000.0
                           ELSE -floor(-((o::DOUBLE - e) / sqrt(e))
                                       * 1000000.0 + 0.5) / 1000000.0
                      END)
                   ELSE NULL END AS std_residual
            FROM cells ORDER BY a, b
        """,
        "chi2_orders": """
            WITH base AS (
              SELECT o_orderstatus AS a, o_orderpriority AS b
              FROM orders
              WHERE o_orderstatus IS NOT NULL
                AND o_orderpriority IS NOT NULL
            ), tot AS (
              SELECT count(*)::HUGEINT AS n FROM base
            ), ra AS (
              SELECT a, count(*)::HUGEINT AS r FROM base GROUP BY a
            ), cb AS (
              SELECT b, count(*)::HUGEINT AS c FROM base GROUP BY b
            ), obs AS (
              SELECT a, b, count(*)::HUGEINT AS o FROM base GROUP BY a, b
            ), cells AS (
              SELECT ra.a, cb.b, coalesce(obs.o, 0)::HUGEINT AS o,
                     ra.r, cb.c
              FROM ra CROSS JOIN cb
              LEFT JOIN obs ON obs.a = ra.a AND obs.b = cb.b
            ), terms AS (
              SELECT cells.a, cells.b,
                     (((o * n - r * c) * (o * n - r * c))::DOUBLE)
                       / ((n * r * c)::DOUBLE) AS term
              FROM cells, tot
            ), f AS (
              SELECT list_reduce(list(term ORDER BY a, b),
                                 (x, y) -> x + y) AS chi
              FROM terms
            )
            SELECT tot.n::BIGINT AS n,
                   (SELECT count(*) FROM ra)::BIGINT AS n_rows,
                   (SELECT count(*) FROM cb)::BIGINT AS n_cols,
                   (((SELECT count(*) FROM ra) - 1)
                    * ((SELECT count(*) FROM cb) - 1))::BIGINT AS dof,
                   floor(f.chi * 1000000.0 + 0.5) / 1000000.0 AS chi2,
                   CASE WHEN least((SELECT count(*) FROM ra) - 1,
                                   (SELECT count(*) FROM cb) - 1) > 0
                        THEN floor(sqrt(f.chi / ((tot.n)::DOUBLE
                               * (least((SELECT count(*) FROM ra) - 1,
                                        (SELECT count(*) FROM cb) - 1)
                                  )::DOUBLE))
                               * 1000000.0 + 0.5) / 1000000.0
                        ELSE NULL END AS cramers_v
            FROM tot, f
        """,
        "ks_orders": """
            WITH t AS (
              SELECT (floor(o_totalprice * 100.0 + 0.5))::BIGINT AS q,
                     o_orderstatus AS lab
              FROM orders
              WHERE o_orderstatus IN ('O', 'F')
                AND o_totalprice IS NOT NULL
            ), c AS (
              SELECT q,
                     sum(CASE WHEN lab = 'O' THEN 1 ELSE 0 END)::HUGEINT
                       AS ca,
                     sum(CASE WHEN lab = 'F' THEN 1 ELSE 0 END)::HUGEINT
                       AS cb
              FROM t GROUP BY q
            ), s AS (
              SELECT sum(ca)::HUGEINT AS na, sum(cb)::HUGEINT AS nb FROM c
            ), w AS (
              SELECT sum(ca) OVER (ORDER BY q)::HUGEINT AS cuma,
                     sum(cb) OVER (ORDER BY q)::HUGEINT AS cumb
              FROM c
            ), m AS (
              SELECT max(abs(w.cuma * s.nb - w.cumb * s.na))::HUGEINT
                       AS num
              FROM w, s
            )
            SELECT s.na::BIGINT AS n_a, s.nb::BIGINT AS n_b,
                   floor((m.num::DOUBLE) / ((s.na * s.nb)::DOUBLE)
                         * 1000000.0 + 0.5) / 1000000.0 AS d
            FROM s, m
        """,
        "linear_fit_lineitem": """
            WITH q AS (
              SELECT CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT) AS x,
                     CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       AS y
              FROM lineitem
              WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
            ), s AS (
              SELECT count(*)::HUGEINT AS n,
                     sum(x::HUGEINT) AS sx, sum(y::HUGEINT) AS sy,
                     sum(x::HUGEINT * y) AS sxy,
                     sum(x::HUGEINT * x) AS sxx,
                     sum(y::HUGEINT * y) AS syy
              FROM q
            ), d AS (
              SELECT n::BIGINT AS n,
                     (n * sxy - sx * sy)::DOUBLE AS num,
                     (n * sxx - sx * sx)::DOUBLE AS denx,
                     (n * syy - sy * sy)::DOUBLE AS deny,
                     sx::DOUBLE AS sxd, sy::DOUBLE AS syd,
                     n::DOUBLE AS nd
              FROM s
            )
            SELECT n,
                   round(num / denx, 9) AS slope,
                   round((syd - (num / denx) * sxd) / nd, 9) AS intercept,
                   round((num * num) / (denx * deny), 9) AS r2
            FROM d
        """,
        "pca_embeddings": _pca_oracle(),
        "robust_z_events": """
            WITH c AS (
              SELECT event_id, event_type,
                     floor(value * 100.0 + 0.5) AS c
              FROM events
            ), m AS (
              SELECT event_type, quantile_cont(c, 0.5) AS med
              FROM c GROUP BY event_type
            ), a AS (
              SELECT c.event_id, c.event_type, c.c, m.med
              FROM c JOIN m USING (event_type)
            ), s AS (
              SELECT event_type, quantile_cont(abs(c - med), 0.5) AS mad
              FROM a GROUP BY event_type
            )
            SELECT a.event_id, a.event_type,
                   CASE WHEN s.mad = 0 THEN NULL
                        ELSE round((a.c - a.med) / s.mad, 6) END
                     AS robust_z
            FROM a JOIN s USING (event_type)
        """,
        "benford_orders": """
            WITH base AS (
              SELECT (o_orderpriority)::VARCHAR AS grp,
                     (floor((o_totalprice)::DOUBLE * (100.0)::DOUBLE
                            + (0.5)::DOUBLE))::BIGINT AS cents
              FROM orders
              WHERE o_orderpriority IS NOT NULL
                AND o_totalprice IS NOT NULL
            ), posv AS (
              SELECT grp, (substr(cents::VARCHAR, 1, 1))::BIGINT AS digit
              FROM base WHERE cents > 0
            ), cells AS (
              SELECT grp, digit, count(*)::BIGINT AS c
              FROM posv GROUP BY 1, 2
            ), gt AS (
              SELECT grp, sum(c)::BIGINT AS n FROM cells GROUP BY grp
            ), digits AS (
              SELECT unnest(generate_series(1, 9)) AS d
            ), grid AS (
              SELECT gt.grp, gt.n, digits.d FROM gt CROSS JOIN digits
            ), contrib AS (
              SELECT grid.grp, grid.d,
                     (coalesce(cells.c, 0))::DOUBLE AS c,
                     (grid.n)::DOUBLE
                       * (ln((1.0)::DOUBLE
                             + (1.0)::DOUBLE / (grid.d)::DOUBLE)
                          / ln((10.0)::DOUBLE)) AS e
              FROM grid
              LEFT JOIN cells ON cells.grp = grid.grp
                             AND cells.digit = grid.d
            ), folded AS (
              SELECT grp,
                     list_sum(list((c - e) * (c - e) / e ORDER BY d))
                       AS s
              FROM contrib GROUP BY grp
            )
            SELECT f.grp, gt.n,
                   floor(f.s * 1000000.0 + 0.5) / 1000000.0 AS chi2
            FROM folded f JOIN gt ON gt.grp = f.grp
        """,
        "theil_orders": """
            WITH b AS (
              SELECT o_orderpriority AS g,
                     (floor((o_totalprice)::DOUBLE * (100.0)::DOUBLE
                            + (0.5)::DOUBLE))::BIGINT AS c
              FROM orders
              WHERE o_orderpriority IS NOT NULL
                AND o_totalprice IS NOT NULL
            ), a AS (
              SELECT g, count(*)::BIGINT AS n,
                     (sum((c)::HUGEINT))::HUGEINT AS s
              FROM b GROUP BY g
            ), t AS (
              SELECT b.g, a.n, a.s, b.c,
                     CASE WHEN b.c <= 0 OR a.s <= 0 THEN (0.0)::DOUBLE
                          ELSE (b.c)::DOUBLE / (a.s)::DOUBLE
                               * ln((b.c)::DOUBLE * (a.n)::DOUBLE
                                    / (a.s)::DOUBLE)
                     END AS term
              FROM b JOIN a USING (g)
            ), f AS (
              SELECT g, min(n) AS n, min(s) AS s,
                     list_reduce(
                       list_prepend((0.0)::DOUBLE,
                                    list(term ORDER BY c)),
                       (acc, x) -> acc + x) AS th
              FROM t GROUP BY g
            )
            SELECT g AS o_orderpriority, n,
                   CASE WHEN s <= 0 THEN NULL
                        WHEN th >= 0
                        THEN floor(th * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-th * 1000000.0 + 0.5) / 1000000.0
                   END AS theil
            FROM f
        """,
        "gini_orders": """
            WITH b AS (
              SELECT o_orderpriority AS g,
                     (floor((o_totalprice)::DOUBLE * (100.0)::DOUBLE
                            + (0.5)::DOUBLE))::BIGINT AS c
              FROM orders
              WHERE o_orderpriority IS NOT NULL
                AND o_totalprice IS NOT NULL
            ), r AS (
              SELECT g, c,
                     row_number() OVER (PARTITION BY g ORDER BY c)
                       AS i
              FROM b
            ), a AS (
              SELECT g, count(*)::BIGINT AS n,
                     (sum((c)::HUGEINT))::HUGEINT AS s0,
                     (sum((i)::HUGEINT * (c)::HUGEINT))::HUGEINT AS s1
              FROM r GROUP BY g
            ), d AS (
              SELECT g, n,
                     CASE WHEN s0 <= 0 THEN NULL
                          ELSE (2.0)::DOUBLE * (s1)::DOUBLE
                               / ((n)::DOUBLE * (s0)::DOUBLE)
                               - ((n)::DOUBLE + (1.0)::DOUBLE)
                                 / (n)::DOUBLE
                     END AS v
              FROM a
            )
            SELECT g AS o_orderpriority, n,
                   CASE WHEN v IS NULL THEN NULL
                        WHEN v >= 0
                        THEN floor(v * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-v * 1000000.0 + 0.5) / 1000000.0
                   END AS gini
            FROM d
        """,
        "welch_orders": """
            WITH base AS (
              SELECT o_orderpriority AS g,
                     (o_orderstatus)::VARCHAR AS l,
                     (floor((o_totalprice)::DOUBLE * (100.0)::DOUBLE
                            + (0.5)::DOUBLE))::BIGINT AS c
              FROM orders
              WHERE o_orderpriority IS NOT NULL
                AND o_totalprice IS NOT NULL
                AND (o_orderstatus)::VARCHAR IN ('F', 'O')
            ), agg AS (
              SELECT g, l, count(*)::BIGINT AS n,
                     (sum((c)::HUGEINT))::HUGEINT AS s,
                     (sum((c)::HUGEINT * (c)::HUGEINT))::HUGEINT AS q
              FROM base GROUP BY g, l
            ), j AS (
              SELECT a.g, a.n AS na, b.n AS nb, a.s AS sa, b.s AS sb,
                     a.q AS qa, b.q AS qb
              FROM (SELECT * FROM agg WHERE l = 'F') a
              JOIN (SELECT * FROM agg WHERE l = 'O') b USING (g)
              WHERE a.n >= 2 AND b.n >= 2
            ), d AS (
              SELECT g, na, nb,
                     (sa)::DOUBLE / (na)::DOUBLE AS ma,
                     (sb)::DOUBLE / (nb)::DOUBLE AS mb,
                     ((qa)::DOUBLE - (sa)::DOUBLE * (sa)::DOUBLE
                        / (na)::DOUBLE)
                       / ((na)::DOUBLE - (1.0)::DOUBLE) AS va,
                     ((qb)::DOUBLE - (sb)::DOUBLE * (sb)::DOUBLE
                        / (nb)::DOUBLE)
                       / ((nb)::DOUBLE - (1.0)::DOUBLE) AS vb
              FROM j
            ), e AS (
              SELECT g, na, nb, ma, mb, va, vb,
                     va / (na)::DOUBLE + vb / (nb)::DOUBLE AS se2
              FROM d
            ), f AS (
              SELECT g, na, nb, se2,
                     (ma - mb) / (100.0)::DOUBLE AS md,
                     CASE WHEN se2 <= (0.0)::DOUBLE THEN NULL
                          ELSE (ma - mb) / sqrt(se2) END AS ts,
                     CASE WHEN se2 <= (0.0)::DOUBLE THEN NULL
                          ELSE se2 * se2
                               / ((va / (na)::DOUBLE)
                                    * (va / (na)::DOUBLE)
                                    / ((na)::DOUBLE - (1.0)::DOUBLE)
                                  + (vb / (nb)::DOUBLE)
                                    * (vb / (nb)::DOUBLE)
                                    / ((nb)::DOUBLE - (1.0)::DOUBLE))
                     END AS dfree
              FROM e
            )
            SELECT g AS o_orderpriority, na AS n_a, nb AS n_b,
                   CASE WHEN md >= 0
                        THEN floor(md * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-md * 1000000.0 + 0.5) / 1000000.0
                   END AS mean_diff,
                   CASE WHEN ts IS NULL THEN NULL
                        WHEN ts >= 0
                        THEN floor(ts * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-ts * 1000000.0 + 0.5) / 1000000.0
                   END AS t_stat,
                   CASE WHEN dfree IS NULL THEN NULL
                        WHEN dfree >= 0
                        THEN floor(dfree * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-dfree * 1000000.0 + 0.5)
                             / 1000000.0
                   END AS df
            FROM f
        """,
        "psi_orders": """
            WITH base AS (
              SELECT (o_orderpriority)::VARCHAR AS grp,
                     (o_totalprice)::DOUBLE AS x
              FROM orders
              WHERE o_orderpriority IS NOT NULL
                AND o_totalprice IS NOT NULL
            ), binned AS (
              SELECT grp,
                     (least(greatest(
                        floor((x - (0.0)::DOUBLE) * (10.0)::DOUBLE
                              / ((400000.0)::DOUBLE - (0.0)::DOUBLE)),
                        (-1.0)::DOUBLE), (10.0)::DOUBLE)
                      + 1.0)::BIGINT AS bin
              FROM base
            ), cells AS (
              SELECT grp, bin, count(*)::BIGINT AS c
              FROM binned GROUP BY 1, 2
            ), corp AS (
              SELECT bin, sum(c)::BIGINT AS c FROM cells GROUP BY bin
            ), nall AS (SELECT sum(c)::BIGINT AS n FROM cells),
            gt AS (
              SELECT grp, sum(c)::BIGINT AS n FROM cells GROUP BY grp
            ), bins AS (
              SELECT unnest(generate_series(0, 11)) AS bin
            ), grid AS (
              SELECT gt.grp, b.bin, gt.n
              FROM gt CROSS JOIN bins b
            ), contrib AS (
              SELECT grid.grp, grid.bin,
                     ((coalesce(cells.c, 0) + 1))::DOUBLE
                       / ((grid.n + 12))::DOUBLE AS p,
                     ((coalesce(corp.c, 0) + 1))::DOUBLE
                       / ((nall.n + 12))::DOUBLE AS q
              FROM grid
              LEFT JOIN cells ON cells.grp = grid.grp
                             AND cells.bin = grid.bin
              LEFT JOIN corp ON corp.bin = grid.bin
              CROSS JOIN nall
            ), folded AS (
              SELECT grp,
                     list_sum(list((p - q) * ln(p / q) ORDER BY bin))
                       AS s
              FROM contrib GROUP BY grp
            )
            SELECT f.grp, gt.n,
                   CASE WHEN f.s >= 0
                        THEN floor(f.s * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-f.s * 1000000.0 + 0.5) / 1000000.0
                   END AS psi
            FROM folded f JOIN gt ON gt.grp = f.grp
        """,
        "entropy_customer_segments": """
            WITH c AS (
              SELECT c_nationkey AS grp, c_mktsegment AS v,
                     count(*) AS k
              FROM customer
              WHERE c_nationkey IS NOT NULL
                AND c_mktsegment IS NOT NULL
              GROUP BY 1, 2
            ), a AS (
              SELECT grp, (sum(k))::BIGINT AS n,
                     list_sum(list((k::DOUBLE) * ln(k::DOUBLE)
                                   ORDER BY v)) AS s
              FROM c GROUP BY grp
            )
            SELECT grp, n,
                   floor((ln((n)::DOUBLE) - s / (n)::DOUBLE) * 1e6 + 0.5)
                     / 1e6 AS entropy
            FROM a
        """,
        "corr_lineitem": """
            WITH q AS (
              SELECT l_returnflag AS grp,
                     CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT) AS x,
                     CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       AS y
              FROM lineitem
              WHERE l_quantity IS NOT NULL
                AND l_extendedprice IS NOT NULL
                AND l_returnflag IS NOT NULL
            ), s AS (
              SELECT grp, count(*)::HUGEINT AS n,
                     sum(x::HUGEINT) AS sx, sum(y::HUGEINT) AS sy,
                     sum(x::HUGEINT * y) AS sxy,
                     sum(x::HUGEINT * x) AS sxx,
                     sum(y::HUGEINT * y) AS syy
              FROM q GROUP BY grp
            ), d AS (
              SELECT grp, (n)::BIGINT AS n,
                     (n * sxy - sx * sy)::DOUBLE AS num,
                     (n * sxx - sx * sx)::DOUBLE AS denx,
                     (n * syy - sy * sy)::DOUBLE AS deny
              FROM s
            )
            SELECT grp, n, round(num / (sqrt(denx) * sqrt(deny)), 9)
                     AS corr
            FROM d
        """,
        "glm_lineitem": """
            WITH q AS (
              SELECT l_returnflag AS grp,
                     CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT) AS x,
                     CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                       AS y
              FROM lineitem
              WHERE l_quantity IS NOT NULL
                AND l_extendedprice IS NOT NULL
                AND l_returnflag IS NOT NULL
            ), s AS (
              SELECT grp, count(*)::HUGEINT AS n,
                     sum(x::HUGEINT) AS sx, sum(y::HUGEINT) AS sy,
                     sum(x::HUGEINT * y) AS sxy,
                     sum(x::HUGEINT * x) AS sxx,
                     sum(y::HUGEINT * y) AS syy
              FROM q GROUP BY grp
            ), d AS (
              SELECT grp, n::BIGINT AS n,
                     (n * sxy - sx * sy)::DOUBLE AS num,
                     (n * sxx - sx * sx)::DOUBLE AS denx,
                     (n * syy - sy * sy)::DOUBLE AS deny,
                     sx::DOUBLE AS sxd, sy::DOUBLE AS syd,
                     n::DOUBLE AS nd
              FROM s
            )
            SELECT grp, n,
                   round(num / denx, 9) AS slope,
                   round((syd - (num / denx) * sxd) / nd, 9) AS intercept,
                   round((num * num) / (denx * deny), 9) AS r2
            FROM d
        """,
        "zscore_events": """
            WITH c AS (
              SELECT event_id, event_type,
                     CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ), m AS (
              SELECT event_type, count(*) AS n,
                     sum(c) AS s1, sum(c * c) AS s2
              FROM c GROUP BY 1
            )
            SELECT event_id, c.event_type,
                   CASE WHEN n < 2 OR n * s2 - s1 * s1 = 0 THEN NULL
                        ELSE round(((c.c)::DOUBLE
                                    - (s1)::DOUBLE / (n)::DOUBLE)
                                   / sqrt(((n * s2 - s1 * s1))::DOUBLE
                                          / ((n)::DOUBLE * (n)::DOUBLE)),
                                   6)
                   END AS z
            FROM c JOIN m USING (event_type)
        """,
    }
