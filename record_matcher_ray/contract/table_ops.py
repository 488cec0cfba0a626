"""Contract — reference records-utility + table operators.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_uniqueness_customer(sf_dir: str):
    import pandas as pd

    from record_matcher_ray.pipelines import table_ops

    ds = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_name", "c_mktsegment", "c_nationkey"],
    )
    u = table_ops.uniqueness(ds, ["c_name", "c_mktsegment", "c_nationkey"])
    return pd.DataFrame(
        sorted(u.items()), columns=["col", "uniqueness"]
    )


def _q_group_by_segment(sf_dir: str):

    from record_matcher_ray.pipelines import table_ops

    ds = read_table(  # full-row output: every column rides
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )
    return table_ops.group_by(ds, {"c_mktsegment": "BUILDING"})


def _q_duplicated_orders(sf_dir: str):

    from record_matcher_ray.pipelines import table_ops

    ds = read_table(  # full-row output
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate", "o_orderpriority"],
    )
    return table_ops.duplicated_by_column(ds, "o_custkey")


def _q_latest_order(sf_dir: str):
    """CDC / upsert compaction: each customer's latest order (max
    o_orderdate, ties broken by max o_orderkey)."""

    from record_matcher_ray.pipelines.table_ops import latest_by_key

    ds = read_table(  # full-row output
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate", "o_orderpriority"],
    )
    return latest_by_key(
        ds, "o_custkey", "o_orderdate", tie_col="o_orderkey"
    )


def _q_snapshot_diff(sf_dir: str):
    """Incremental corpus diff: a deterministic 'previous snapshot' is
    derived from documents (drop ids %17==0 → added; stale text for
    %13==0 → changed; ghost ids %19==0 → removed) and diffed against the
    current table. Only (id, content-hash, side) ride the exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.table_ops import snapshot_diff

    new = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def build_old(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy()
        txt = pc.cast(t["text"], pa.string())
        stale = pc.binary_join_element_wise(txt, " [stale]", "")
        base_txt = pc.if_else(
            pa.array(did % 13 == 0), stale, txt
        )
        keep = pa.array(did % 17 != 0)
        base = pa.table(
            {"doc_id": t["doc_id"].filter(keep),
             "text": base_txt.filter(keep)}
        )
        gmask = did % 19 == 0
        ghosts = pa.table(
            {"doc_id": pa.array(did[gmask] + 1_000_000),
             "text": pc.binary_join_element_wise(
                 "ghost ",
                 pc.cast(pa.array(did[gmask]), pa.string()), ""
             )}
        )
        return pa.concat_tables([base, ghosts])

    old = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(build_old, batch_format="pyarrow")
    return snapshot_diff(old, new)


def _q_distinct_by(sf_dir: str):
    """Exact distinct users per event type (pre-reduced pair exchange)."""

    from record_matcher_ray.pipelines.table_ops import distinct_count_by

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return distinct_count_by(ds, "event_type", "user_id")


def _q_histogram(sf_dir: str):
    """Fixed-width ($20k) histogram of order totals."""

    from record_matcher_ray.pipelines.table_ops import histogram

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return histogram(ds, "o_totalprice", width_cents=2_000_000)


def _q_winsorize(sf_dir: str):
    """Per-source winsorization of document lengths at [0.05, 0.95] —
    clip-to-band twin of quantile_filter_docs (rows kept, values
    clamped)."""

    from record_matcher_ray.pipelines.table_ops import winsorize_by_quantile

    ds = read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    return winsorize_by_quantile(
        ds, "n_chars", q_lo=0.05, q_hi=0.95, group_cols=["source"]
    )


def _q_mode(sf_dir: str):
    """Dominant order priority per status (count desc, value asc
    tie-break)."""

    from record_matcher_ray.pipelines.table_ops import mode_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )
    return mode_by_group(ds, "o_orderstatus", "o_orderpriority")


def _q_pareto(sf_dir: str):
    """2-D Pareto frontier (anti-dominance skyline) of orders maximizing
    (o_totalprice, o_orderdate) — per-block local frontiers via one
    lexsort + prefix max, tiny driver merge, zero shuffle
    (table_ops.pareto_frontier)."""

    from record_matcher_ray.pipelines.table_ops import pareto_frontier

    ds = read_table(  # full-row skyline output
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate", "o_orderpriority"],
    )
    return pareto_frontier(ds, "o_totalprice", "o_orderdate")


def _q_explode(sf_dir: str):
    """posexplode of embedding vectors → (vec_id, pos, val::DOUBLE)."""
    import pyarrow as pa
    import pyarrow.compute as _pc


    from record_matcher_ray.pipelines.table_ops import explode_list

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = explode_list(ds, "embedding", "vec_id")

    def widen(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("val")
        return t.set_column(i, "val", _pc.cast(t["val"], pa.float64()))

    return out.map_batches(widen, batch_format="pyarrow")


def _q_quantile_filter(sf_dir: str):
    """Per-source [0.1, 0.9] length-quantile band filter over documents —
    the quality-curation primitive (trim per-source outliers); exact
    thresholds rounded to 6 decimals so the boundary decision is
    deterministic on both sides."""

    from record_matcher_ray.pipelines.table_ops import filter_by_quantile

    ds = read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    return filter_by_quantile(
        ds, "n_chars", q_lo=0.1, q_hi=0.9, group_cols=["source"]
    )


def _q_quantiles(sf_dir: str):
    """Exact per-group quantiles of o_totalprice by order status — hash
    BUCKET of the group key is the shuffle key (never the raw column),
    all of a bucket's groups resolved in one vectorized lexsort pass."""

    from record_matcher_ray.pipelines.table_ops import grouped_quantiles

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderstatus", "o_totalprice"]
    )
    return grouped_quantiles(ds, ["o_orderstatus"], "o_totalprice")


def _q_window_dedupe(sf_dir: str):
    """Windowed dedup: first event per (user, type, hour) — the
    telemetry-burst / at-least-once-delivery collapse."""

    from record_matcher_ray.pipelines.table_ops import window_dedupe

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    return window_dedupe(
        ds, ["user_id", "event_type"], "ts", "event_id", 3600
    )


def _q_union_by_name(sf_dir: str):
    """Schema-evolution union: two order 'vintages' with different
    column subsets aligned by name (missing columns null-filled),
    counted per status."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.table_ops import union_by_name

    old_v = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"],
    )
    new_v = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    u = union_by_name([old_v, new_v])

    def agg(t: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as _pd
        import pyarrow.compute as pc

        st = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        has_price = pc.is_valid(t["o_totalprice"]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        codes, uniq = _pd.factorize(st)
        return pa.table({
            "o_orderstatus": pa.array(np.asarray(uniq, object),
                                      pa.string()),
            "n": pa.array(np.bincount(codes).astype(np.int64)),
            "with_price": pa.array(
                np.bincount(codes, weights=has_price).astype(np.int64)),
        })

    out = (
        u.map_batches(agg, batch_format="pyarrow")
        .groupby("o_orderstatus")
        .sum(["n", "with_price"])
        .to_pandas()
        .rename(columns={"sum(n)": "n", "sum(with_price)": "with_price"})
        .sort_values("o_orderstatus")
        .reset_index(drop=True)
    )
    return out


def queries():
    return {
        "uniqueness_customer": _q_uniqueness_customer,
        "group_by_segment": _q_group_by_segment,
        "duplicated_orders": _q_duplicated_orders,
        "snapshot_diff_docs": _q_snapshot_diff,
        "quantiles_orders": _q_quantiles,
        "latest_order_per_customer": _q_latest_order,
        "quantile_filter_docs": _q_quantile_filter,
        "winsorize_docs": _q_winsorize,
        "distinct_users_by_type": _q_distinct_by,
        "histogram_orders": _q_histogram,
        "mode_orders": _q_mode,
        "window_dedupe_events": _q_window_dedupe,
        "pareto_orders": _q_pareto,
        "explode_embeddings": _q_explode,
        "union_by_name_orders": _q_union_by_name,
    }


def oracles():
    return {
        "union_by_name_orders": """
            WITH u AS (
              SELECT o_orderkey, o_orderstatus, NULL::DOUBLE
                       AS o_totalprice
              FROM orders
              UNION ALL
              SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders
            )
            SELECT o_orderstatus, count(*)::BIGINT AS n,
                   sum(CASE WHEN o_totalprice IS NOT NULL
                            THEN 1 ELSE 0 END)::BIGINT AS with_price
            FROM u GROUP BY o_orderstatus ORDER BY o_orderstatus
        """,
        "uniqueness_customer": """
            SELECT col, uniqueness FROM (
              SELECT 'c_name' AS col,
                     count(DISTINCT nullif(cast(c_name AS varchar), ''))::double
                       / count(*) AS uniqueness FROM customer
              UNION ALL
              SELECT 'c_mktsegment',
                     count(DISTINCT nullif(cast(c_mktsegment AS varchar), ''))::double
                       / count(*) FROM customer
              UNION ALL
              SELECT 'c_nationkey',
                     count(DISTINCT nullif(cast(c_nationkey AS varchar), ''))::double
                       / count(*) FROM customer
            ) ORDER BY col
        """,
        "group_by_segment": """
            SELECT * FROM customer
            WHERE cast(c_mktsegment AS varchar) = 'BUILDING'
        """,
        "duplicated_orders": """
            SELECT * FROM orders
            QUALIFY count(*) OVER (PARTITION BY o_custkey) > 1
        """,
        "snapshot_diff_docs": """
            WITH old AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 13 = 0 THEN text || ' [stale]'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 17 <> 0
              UNION ALL
              SELECT doc_id + 1000000, 'ghost ' || doc_id
              FROM documents WHERE doc_id % 19 = 0
            )
            SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        WHEN o.text = n.text THEN 'unchanged'
                        ELSE 'changed' END AS status
            FROM old o FULL OUTER JOIN documents n
              ON o.doc_id = n.doc_id
        """,
        "latest_order_per_customer": """
            SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
                   o_orderdate, o_orderpriority
            FROM (
              SELECT *, row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate DESC, o_orderkey DESC) AS rn
              FROM orders
            ) WHERE rn = 1
        """,
        "quantiles_orders": """
            SELECT o_orderstatus,
                   round(quantile_cont(o_totalprice, 0.25), 6) AS q_25,
                   round(quantile_cont(o_totalprice, 0.50), 6) AS q_50,
                   round(quantile_cont(o_totalprice, 0.75), 6) AS q_75
            FROM orders GROUP BY 1
        """,
        "quantile_filter_docs": """
            SELECT doc_id, source, n_chars FROM (
              SELECT doc_id, source, n_chars,
                round(quantile_cont(n_chars, 0.1)
                      OVER (PARTITION BY source), 6) AS lo,
                round(quantile_cont(n_chars, 0.9)
                      OVER (PARTITION BY source), 6) AS hi
              FROM documents)
            WHERE n_chars >= lo AND n_chars <= hi
        """,
        "distinct_users_by_type": """
            SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_distinct
            FROM events GROUP BY event_type
        """,
        "histogram_orders": """
            WITH c AS (
              SELECT CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS c
              FROM orders
            ), b AS (
              SELECT CASE WHEN c % 2000000 <> 0 AND c < 0
                          THEN c // 2000000 - 1
                          ELSE c // 2000000 END AS bin
              FROM c
            )
            SELECT bin, round((bin * 2000000)::DOUBLE / 100.0, 6) AS lo,
                   count(*)::BIGINT AS n
            FROM b GROUP BY bin
        """,
        "mode_orders": """
            WITH c AS (
              SELECT o_orderstatus, o_orderpriority,
                     count(*)::BIGINT AS n
              FROM orders GROUP BY 1, 2
            ), r AS (
              SELECT *, row_number() OVER (PARTITION BY o_orderstatus
                                           ORDER BY n DESC,
                                                    o_orderpriority ASC)
                          AS rn
              FROM c
            )
            SELECT o_orderstatus, o_orderpriority AS mode_val,
                   n AS n_mode
            FROM r WHERE rn = 1
        """,
        "window_dedupe_events": """
            SELECT event_id, user_id, event_type, win FROM (
              SELECT event_id, user_id, event_type,
                     epoch_us(ts) // 3600000000 AS win,
                     row_number() OVER (
                       PARTITION BY user_id, event_type,
                                    epoch_us(ts) // 3600000000
                       ORDER BY ts, event_id) AS rn
              FROM events
            ) WHERE rn = 1
        """,
        "pareto_orders": """
            -- skyline replay of the engine's own algorithm: per-x max y,
            -- survive iff y == group max AND y > max over strictly
            -- greater x (equivalent to WHERE NOT EXISTS dominating row)
            WITH g AS (
              SELECT o_totalprice AS x, max(o_orderdate) AS gy
              FROM orders
              WHERE o_totalprice IS NOT NULL AND o_orderdate IS NOT NULL
              GROUP BY x
            ), p AS (
              SELECT x, gy,
                     max(gy) OVER (ORDER BY x DESC
                                   ROWS BETWEEN UNBOUNDED PRECEDING
                                   AND 1 PRECEDING) AS prev
              FROM g
            )
            SELECT a.* FROM orders a JOIN p ON a.o_totalprice = p.x
            WHERE a.o_orderdate = p.gy
              AND (p.prev IS NULL OR a.o_orderdate > p.prev)
        """,
        "explode_embeddings": """
            SELECT vec_id, i - 1 AS pos, (embedding[i])::DOUBLE AS val
            FROM embeddings,
                 unnest(generate_series(1, len(embedding))) AS u(i)
        """,
        "winsorize_docs": """
            SELECT doc_id, source,
                   least(greatest(n_chars::DOUBLE, lo), hi) AS n_chars
            FROM (
              SELECT doc_id, source, n_chars,
                round(quantile_cont(n_chars, 0.05)
                      OVER (PARTITION BY source), 6) AS lo,
                round(quantile_cont(n_chars, 0.95)
                      OVER (PARTITION BY source), 6) AS hi
              FROM documents)
        """,
    }
