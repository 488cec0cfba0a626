"""Contract — join family.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_building_orders_bloom(sf_dir: str):
    """Same semi join as building_orders_semi, but through the
    Bloom-prefilter + bucketed-verify scale path (key side never
    broadcast raw) — exact result, so the oracle is the plain semi SQL."""
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.joins import bloom_semi_join

    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    out = bloom_semi_join(
        orders, keys, on="o_custkey", key_col="c_custkey", bits_log2=18
    ).to_pandas()
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return out


def _q_orders_anti_building(sf_dir: str):
    """Anti-join: orders whose customer is NOT in the BUILDING segment
    (broadcast key-set filter with anti=True — no shuffle; the anti twin
    of building_orders_semi)."""
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.joins import semi_join

    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    out = semi_join(
        orders, keys, on="o_custkey", key_col="c_custkey", anti=True
    ).to_pandas()
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return out


def _q_events_in_window(sf_dir: str):
    """Equi+range self join: non-signup events inside the 10 minutes after
    a signup by the SAME user, then a tiny aggregate. Shuffle key is a
    hash bucket of the equi key; each bucket joins in one Acero call +
    vectorized range filter; the per-pair aggregate is pre-reduced per
    block (integer cents so the sum is order-independent and hash-exact
    vs DuckDB)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from record_matcher_ray.pipelines.joins import range_join

    events = read_table(
        f"{sf_dir}/events.parquet",
        columns=["ts", "user_id", "event_type", "value"],
    )

    def points(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t["event_type"], "signup"))

    def windows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "signup"))
        ten_min = pa.scalar(10 * 60 * 1_000_000, pa.duration("us"))
        return pa.table(
            {
                "s_user": t["user_id"].combine_chunks(),
                "w_start": t["ts"].combine_chunks(),
                "w_end": pc.add(t["ts"], ten_min),
            }
        )

    joined = range_join(
        events.map_batches(points, batch_format="pyarrow"),
        events.map_batches(windows, batch_format="pyarrow"),
        left_point="ts",
        right_lo="w_start",
        right_hi="w_end",
        left_on="user_id",
        right_on="s_user",
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(cents=(df["value"] * 100).round().astype("int64"))
        return (
            df.groupby("event_type", as_index=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
        )

    agg = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n"), Sum("cents"))
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_cents": df["sum(cents)"].astype("int64"),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def _q_orders_customer_full(sf_dir: str):
    """Full-outer bucketed hash join: every order with its customer's
    balance, plus customers with no orders (null order side). Key columns
    are cast DOUBLE on both sides so nullable ints hash identically."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from record_matcher_ray.pipelines.joins import hash_join

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    )
    out = hash_join(orders, cust, "o_custkey", "c_custkey", how="full")

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pc.cast(t["o_orderkey"], pa.float64()),
                "o_custkey": pc.cast(t["o_custkey"], pa.float64()),
                "c_acctbal": pc.cast(t["c_acctbal"], pa.float64()),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def _q_next_purchase(sf_dir: str):
    """FORWARD as-of join: for every event, the timestamp of that user's
    next (or simultaneous) purchase — the forward twin of
    `last_error_asof` (joins.asof_join direction="forward")."""
    import pandas as pd

    from record_matcher_ray.pipelines.joins import asof_join

    left = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def purchases(t):
        import pyarrow.compute as _pc

        return (
            t.filter(_pc.equal(t["event_type"], "purchase"))
            .select(["user_id", "ts"])
            .rename_columns(["user_id", "purchase_ts"])
        )

    right = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    ).map_batches(purchases, batch_format="pyarrow")
    out = asof_join(
        left, right, by="user_id", left_on="ts",
        right_on="purchase_ts", direction="forward",
    ).to_pandas()
    return pd.DataFrame(
        {"event_id": out["event_id"].astype("int64"),
         "next_purchase_ts": out["purchase_ts"]}
    )


def _q_q3_shipping(sf_dir: str):
    """TPC-H Q3 shape (3-table join + filtered aggregate + top-k):
    unshipped-revenue per order for BUILDING customers — semi-join
    broadcast on the customer side, bucketed hash join on orderkey,
    exact integer cent·(100−disc) revenue units, top 10."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from record_matcher_ray.pipelines.joins import hash_join, semi_join

    CUT = 899164800000000  # 1998-06-30 00:00:00 in microseconds

    cust = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"],
    ).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow",
    )
    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"],
    )

    def ord_prep(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.int64())
        keep = pc.less(dt, CUT)
        sub = t.filter(keep)
        return pa.table(
            {"o_orderkey": sub["o_orderkey"],
             "o_custkey": sub["o_custkey"],
             "o_date_us": pc.cast(sub["o_orderdate"], pa.int64()),
             "o_orderpriority": sub["o_orderpriority"]}
        )

    orders_f = semi_join(
        orders.map_batches(ord_prep, batch_format="pyarrow"),
        cust, "o_custkey", key_col="c_custkey",
    )

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )

    def li_units(t: pa.Table) -> pa.Table:
        import numpy as np

        dt = pc.cast(t["l_shipdate"], pa.int64())
        sub = t.filter(pc.greater(dt, CUT))
        cents = np.floor(
            sub["l_extendedprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5
        ).astype(np.int64)
        disc = np.floor(
            sub["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        t2 = pa.table(
            {"l_orderkey": sub["l_orderkey"],
             "units": pa.array(cents * (100 - disc))}
        )
        # partial pre-aggregation per orderkey inside the batch
        return t2.group_by(["l_orderkey"]).aggregate([("units", "sum")]) \
            .rename_columns(["l_orderkey", "units"])

    li_p = li.map_batches(li_units, batch_format="pyarrow")
    joined = hash_join(li_p, orders_f, "l_orderkey", "o_orderkey")
    agg = joined.groupby(
        ["l_orderkey", "o_date_us", "o_orderpriority"]
    ).aggregate(Sum("units", alias_name="units"))

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        rev = t["units"].to_numpy().astype(np.float64) / 10000.0
        rev = np.floor(rev * 100.0 + 0.5) / 100.0
        return pa.table(
            {"o_orderkey": t["l_orderkey"],
             "o_date_us": t["o_date_us"],
             "o_orderpriority": t["o_orderpriority"],
             "revenue": pa.array(rev)}
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(["revenue", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


def _q_q5_star(sf_dir: str):
    """TPC-H Q5 shape (star join with a cross-dimension equality):
    1996 revenue by ASIA nation where supplier and customer share the
    nation — bucketed fact joins, broadcast dimension lookups, exact
    integer revenue units."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from record_matcher_ray.pipelines.joins import (
        broadcast_lookup,
        hash_join,
    )

    LO = 820454400000000   # 1996-01-01 UTC micros
    HI = 852076800000000   # 1997-01-01 UTC micros

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def ord_prep(t: pa.Table) -> pa.Table:
        dt = pc.cast(t["o_orderdate"], pa.int64())
        keep = pc.and_(pc.greater_equal(dt, LO), pc.less(dt, HI))
        sub = t.filter(keep)
        return pa.table({"o_orderkey": sub["o_orderkey"],
                         "o_custkey": sub["o_custkey"]})

    orders_f = orders.map_batches(ord_prep, batch_format="pyarrow")

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    )

    def li_units(t: pa.Table) -> pa.Table:
        import numpy as np

        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * 100.0 + 0.5
        ).astype(np.int64)
        disc = np.floor(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "l_suppkey": t["l_suppkey"],
             "units": pa.array(cents * (100 - disc))}
        )

    fact = hash_join(
        li.map_batches(li_units, batch_format="pyarrow"),
        orders_f, "l_orderkey", "o_orderkey",
    )
    cust = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"],
    )
    fact = hash_join(fact, cust, "o_custkey", "c_custkey")
    supp = read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey"],
    )
    fact = broadcast_lookup(fact, supp, "l_suppkey", "s_suppkey",
                            how="inner")
    nation = read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    nr = broadcast_lookup(nation, region, "n_regionkey", "r_regionkey",
                          how="inner")
    fact = broadcast_lookup(
        fact, nr, "c_nationkey", "n_nationkey", how="inner",
        columns=["n_nationkey", "n_name", "r_name"],
    )

    def local_filter(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(t["r_name"], "ASIA"),
            pc.equal(pc.cast(t["c_nationkey"], pa.int64()),
                     pc.cast(t["s_nationkey"], pa.int64())),
        )
        sub = t.filter(keep)
        return pa.table({"n_name": sub["n_name"], "units": sub["units"]})

    agg = (
        fact.map_batches(local_filter, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("units", alias_name="units"))
    )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as np

        rev = t["units"].to_numpy().astype(np.float64) / 10000.0
        rev = np.floor(rev * 100.0 + 0.5) / 100.0
        return pa.table({"n_name": t["n_name"],
                         "revenue": pa.array(rev)})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_join_card(sf_dir: str):
    """Pre-flight exact join cardinality: lineitem x orders on orderkey
    without running the join."""

    from record_matcher_ray.pipelines.joins import estimate_join_cardinality

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )
    return estimate_join_cardinality(li, orders, "l_orderkey",
                                     "o_orderkey")


def queries():
    return {
        "orders_customer_full": _q_orders_customer_full,
        "orders_anti_building": _q_orders_anti_building,
        "building_orders_bloom": _q_building_orders_bloom,
        "events_in_order_window": _q_events_in_window,
        "q3_shipping": _q_q3_shipping,
        "q5_region_revenue": _q_q5_star,
        "next_purchase_asof": _q_next_purchase,
        "join_cardinality_lineitem": _q_join_card,
    }


def oracles():
    return {
        "join_cardinality_lineitem": """
            WITH cl AS (
              SELECT l_orderkey::VARCHAR AS k, count(*)::HUGEINT AS c
              FROM lineitem WHERE l_orderkey IS NOT NULL GROUP BY 1
            ), cr AS (
              SELECT o_orderkey::VARCHAR AS k, count(*)::HUGEINT AS c
              FROM orders WHERE o_orderkey IS NOT NULL GROUP BY 1
            ), j AS (
              SELECT cl.c AS a, cr.c AS b FROM cl JOIN cr USING (k)
            )
            SELECT (SELECT sum(c) FROM cl)::BIGINT AS n_left,
                   (SELECT sum(c) FROM cr)::BIGINT AS n_right,
                   (SELECT count(*) FROM j)::BIGINT AS n_shared_keys,
                   coalesce((SELECT sum(a * b) FROM j), 0)::BIGINT
                     AS join_rows,
                   coalesce((SELECT max(a * b) FROM j), 0)::BIGINT
                     AS max_key_rows
        """,
        "building_orders_bloom": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'BUILDING')
        """,
        "orders_customer_full": """
            SELECT CAST(o.o_orderkey AS DOUBLE) AS o_orderkey,
                   CAST(coalesce(o.o_custkey, c.c_custkey) AS DOUBLE)
                       AS o_custkey,
                   CAST(c.c_acctbal AS DOUBLE) AS c_acctbal
            FROM orders o FULL JOIN customer c ON o.o_custkey = c.c_custkey
        """,
        "events_in_order_window": """
            SELECT p.event_type,
                   count(*) AS n_events,
                   CAST(sum(CAST(round(p.value * 100) AS BIGINT))
                        AS BIGINT) AS sum_cents
            FROM events p JOIN events s
              ON p.user_id = s.user_id
             AND s.event_type = 'signup'
             AND p.ts >= s.ts
             AND p.ts < s.ts + INTERVAL 10 MINUTE
            WHERE p.event_type <> 'signup'
            GROUP BY 1
        """,
        "orders_anti_building": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2)
                     AS o_totalprice
            FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM customer c
                              WHERE c.c_custkey = o.o_custkey
                                AND c.c_mktsegment = 'BUILDING')
        """,
        "q3_shipping": """
            WITH li AS (
              SELECT l_orderkey,
                     CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                     * (100 - CAST(floor(l_discount * 100.0 + 0.5)
                                   AS BIGINT)) AS units
              FROM lineitem
              WHERE epoch_us(l_shipdate) > 899164800000000
            ), o AS (
              SELECT o_orderkey, epoch_us(o_orderdate) AS o_date_us,
                     o_orderpriority
              FROM orders
              WHERE epoch_us(o_orderdate) < 899164800000000
                AND o_custkey IN (
                  SELECT c_custkey FROM customer
                  WHERE c_mktsegment = 'BUILDING')
            ), agg AS (
              SELECT li.l_orderkey AS o_orderkey, o.o_date_us,
                     o.o_orderpriority,
                     sum((li.units)::HUGEINT) AS units
              FROM li JOIN o ON li.l_orderkey = o.o_orderkey
              GROUP BY 1, 2, 3
            )
            SELECT o_orderkey, o_date_us, o_orderpriority,
                   floor((units)::DOUBLE / (10000.0)::DOUBLE
                         * 100.0 + 0.5) / 100.0 AS revenue
            FROM agg
            ORDER BY revenue DESC, o_orderkey LIMIT 10
        """,
        "q5_region_revenue": """
            WITH f AS (
              SELECT n.n_name,
                     CAST(floor(l.l_extendedprice * 100.0 + 0.5) AS BIGINT)
                     * (100 - CAST(floor(l.l_discount * 100.0 + 0.5)
                                   AS BIGINT)) AS units
              FROM lineitem l
              JOIN orders o ON l.l_orderkey = o.o_orderkey
              JOIN customer c ON o.o_custkey = c.c_custkey
              JOIN supplier s ON l.l_suppkey = s.s_suppkey
              JOIN nation n ON c.c_nationkey = n.n_nationkey
              JOIN region r ON n.n_regionkey = r.r_regionkey
              WHERE epoch_us(o.o_orderdate) >= 820454400000000
                AND epoch_us(o.o_orderdate) < 852076800000000
                AND c.c_nationkey = s.s_nationkey
                AND r.r_name = 'ASIA'
            )
            SELECT n_name, floor((sum((units)::HUGEINT))::DOUBLE
                                 / (10000.0)::DOUBLE
                                 * 100.0 + 0.5) / 100.0 AS revenue
            FROM f GROUP BY n_name
        """,
        "next_purchase_asof": """
            SELECT l.event_id, min(r.ts) AS next_purchase_ts
            FROM events l
            LEFT JOIN (SELECT user_id, ts FROM events
                       WHERE event_type = 'purchase') r
              ON l.user_id = r.user_id AND r.ts >= l.ts
            GROUP BY l.event_id
        """,
    }
