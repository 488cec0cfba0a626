"""Contract — relational / window / stream query shapes.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_retention(sf_dir: str):
    """Daily retention cohorts (cohort day × offset distinct-user counts);
    three vectorized hash exchanges, no per-user Python."""

    from record_matcher_ray.pipelines.relational import retention_cohorts

    ev = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return retention_cohorts(ev)


def _q_rolling_mean(sf_dir: str):
    """Trailing 4-row mean of event value per user — exact integer window
    sums, pinned-order double mean."""

    from record_matcher_ray.pipelines.relational import rolling_mean

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return rolling_mean(ds, frame_rows=3)


def _q_interarrival(sf_dir: str):
    """Per-user inter-event gaps (lag delta in μs; first event null)."""

    from record_matcher_ray.pipelines.relational import interarrival

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return interarrival(ds)


def _q_transitions(sf_dir: str):
    """Per-user ordered event-type bigram (Markov transition) counts."""

    from record_matcher_ray.pipelines.relational import transition_counts

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return transition_counts(ds)


def _q_events_window(sf_dir: str):
    """Tumbling hour windows: the sliding window with slide = window."""

    from record_matcher_ray.pipelines.relational import events_sliding_window

    return events_sliding_window(sf_dir, window_s=3600, slide_s=3600)


def _q_supplier_levenshtein(sf_dir: str):
    """supplier × nation name cross under the Levenshtein kernel."""

    from record_matcher_ray.pipelines.relational import supplier_nation_cross

    return supplier_nation_cross(sf_dir, scorer="levenshtein")


def _q_rollup(sf_dir: str):
    """ROLLUP(status, priority) counts + exact-cents price sums over
    orders — all three granularities, collapsed dims labelled 'ALL'."""

    from record_matcher_ray.pipelines.relational import cube_aggregate

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )
    return cube_aggregate(
        ds, ["o_orderstatus", "o_orderpriority"], "o_totalprice", rollup=True
    )


def _q_ntile(sf_dir: str):
    """Quartile band per order within its status (SQL ntile replay)."""

    from record_matcher_ray.pipelines.relational import ntile_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    return ntile_by_group(
        ds, "o_orderstatus", "o_totalprice", "o_orderkey", k=4
    )


def _q_intervals(sf_dir: str):
    """SCD2 validity intervals of each user's event_type runs."""

    from record_matcher_ray.pipelines.relational import value_intervals

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return value_intervals(ds)


def _q_pivot(sf_dir: str):
    """Crosstab: order counts per status × priority (wide columns)."""

    from record_matcher_ray.pipelines.relational import pivot_counts

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )
    return pivot_counts(
        ds, "o_orderstatus", "o_orderpriority",
        ["1-URGENT", "2-HIGH", "3-MEDIUM"],
    )


def _q_twap(sf_dir: str):
    """Time-weighted average event value per user (left-continuous
    holding intervals, exact integer weighted sums)."""

    from record_matcher_ray.pipelines.relational import time_weighted_avg

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return time_weighted_avg(ds)


def _q_resample(sf_dir: str):
    """Per-user daily event counts with empty days gap-filled to 0
    between each user's first and last event."""

    from record_matcher_ray.pipelines.relational import resample_counts

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return resample_counts(ds)


def _q_running_total(sf_dir: str):
    """Per-user cumulative event-value sum (exact integer prefix sums,
    one pinned-order division)."""

    from record_matcher_ray.pipelines.relational import running_total

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return running_total(ds)


def _q_pct_rank(sf_dir: str):
    """percent_rank of each order's total within its status (min-rank
    ties; bit-identical small-integer division)."""

    from record_matcher_ray.pipelines.relational import percent_rank_by_group

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    return percent_rank_by_group(
        ds, "o_orderstatus", "o_totalprice", "o_orderkey"
    )


def _q_rolling_active(sf_dir: str):
    """Trailing-7-day distinct active users per day (WAU curve) via the
    interval-stab prefix-sum layout — exact, no per-window re-scan."""

    from record_matcher_ray.pipelines.relational import rolling_active

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return rolling_active(ds, window_days=7)


def _q_row_number(sf_dir: str):
    """Dense global row numbers over orders by (totalprice, orderkey) —
    one sort exchange + broadcast block offsets, no second shuffle."""

    from record_matcher_ray.pipelines.relational import global_row_number

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return global_row_number(ds, ["o_totalprice", "o_orderkey"])


def _q_seq_pattern(sf_dir: str):
    """MATCH_RECOGNIZE-lite: per user, count click+→purchase arcs in the
    (ts, id)-ordered event-type sequence."""

    from record_matcher_ray.pipelines.relational import sequence_pattern_counts

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return sequence_pattern_counts(
        ds, "c+p",
        {"click": "c", "error": "e", "purchase": "p",
         "signup": "s", "view": "v"},
    )


def _q_snm_pairs(sf_dir: str):
    """Sorted-neighborhood blocking over customers ordered by
    (c_name, c_custkey), window 5 → candidate pairs (x_id, y_id, gap)."""

    from record_matcher_ray.pipelines.linkage import sorted_neighborhood_pairs

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    return sorted_neighborhood_pairs(
        ds, ["c_name", "c_custkey"], "c_custkey", window=5
    )


def _q_funnel(sf_dir: str):
    """Ordered view→click→purchase funnel per user (greedy earliest
    completion, strict ts ordering); bucketed segmented-min passes."""

    from record_matcher_ray.pipelines.relational import funnel_steps

    ev = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel_steps(ev, ["view", "click", "purchase"])


def _q_cube(sf_dir: str):
    """GROUP BY CUBE over (status, priority) with exact-cents sums —
    every dimension subset, not just the rollup prefix chain."""

    from record_matcher_ray.pipelines.relational import cube_aggregate

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )
    return cube_aggregate(
        ds, ["o_orderstatus", "o_orderpriority"], "o_totalprice"
    )


def _q_ewma(sf_dir: str):
    """Per-user EWMA level of event values (α=0.2, (ts, id) fold
    order, first value seeds the state)."""

    from record_matcher_ray.pipelines.relational import ewma_by_key

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value", "event_id"],
    )
    return ewma_by_key(ds, "user_id", "ts", "value", "event_id",
                       alpha=0.2)


def _q_attribution(sf_dir: str):
    """Last-touch attribution: purchases credit the user's most recent
    preceding click/view within a 7-day lookback."""

    from record_matcher_ray.pipelines.relational import (
        attribute_conversions,
    )

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return attribute_conversions(ds)


def _q_attribution_first(sf_dir: str):
    """First-touch attribution: purchases credit the user's FIRST
    preceding click/view (unattributed if outside 7 days)."""

    from record_matcher_ray.pipelines.relational import (
        attribute_conversions,
    )

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return attribute_conversions(ds, touch="first")


def _q_interval_union(sf_dir: str):
    """Gaps-and-islands coverage: 1-hour exposure windows per event,
    merged into maximal islands per user."""

    from record_matcher_ray.pipelines.relational import (
        interval_union_by_key,
    )

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id"],
    )
    return interval_union_by_key(ds, "user_id", "ts", "event_id",
                                 duration_us=3_600_000_000)


def _q_cusum(sf_dir: str):
    """Per-user two-sided CUSUM drift statistics of event values
    (target 0, slack 0.5, alarm threshold 40, (ts, id) fold order)."""

    from record_matcher_ray.pipelines.relational import cusum_by_key

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value", "event_id"],
    )
    return cusum_by_key(ds, "user_id", "ts", "value", "event_id",
                        target=0.0, slack=0.5, threshold=40.0)


def _q_late_events(sf_dir: str):
    """Watermark / late-data audit over the events stream: arrival order
    = event_id, watermark = running max event time - 1h."""

    from record_matcher_ray.pipelines.relational import late_event_audit

    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type"],
    )
    return late_event_audit(ds, lateness_us=3_600_000_000)


def queries():
    from record_matcher_ray.pipelines import (  # noqa: F401
        relational,
    )

    return {
        "lineitem_agg": relational.lineitem_agg,
        "customer_topk": relational.customer_nation_topk,
        "orders_by_status": relational.orders_by_status,
        "events_window": _q_events_window,
        "topk_per_group": relational.topk_per_group,
        "sessionize_events": relational.sessionize_events,
        "last_error_asof": relational.last_error_asof,
        "events_sliding_window": relational.events_sliding_window,
        "building_orders_semi": relational.building_orders_semi,
        "events_props_extract": relational.events_props_extract,
        "supplier_levenshtein": _q_supplier_levenshtein,
        "supplier_jaro": relational.supplier_nation_cross,
        "interval_union_events": _q_interval_union,
        "attribution_events": _q_attribution,
        "attribution_first_events": _q_attribution_first,
        "funnel_events": _q_funnel,
        "retention_events": _q_retention,
        "rolling_mean_events": _q_rolling_mean,
        "interarrival_events": _q_interarrival,
        "transitions_events": _q_transitions,
        "rollup_orders": _q_rollup,
        "ntile_orders": _q_ntile,
        "intervals_events": _q_intervals,
        "pivot_orders": _q_pivot,
        "twap_events": _q_twap,
        "resample_events": _q_resample,
        "running_total_events": _q_running_total,
        "pct_rank_orders": _q_pct_rank,
        "rolling_active_events": _q_rolling_active,
        "row_number_orders": _q_row_number,
        "seq_pattern_events": _q_seq_pattern,
        "snm_pairs_customer": _q_snm_pairs,
        "ewma_events": _q_ewma,
        "cusum_events": _q_cusum,
        "cube_orders": _q_cube,
        "late_events": _q_late_events,
    }


def oracles():
    return {
        "late_events": """
            WITH t AS (
              SELECT event_id, epoch_us(ts) AS tsu, event_type
              FROM events
              WHERE event_id IS NOT NULL AND ts IS NOT NULL
            ), w AS (
              SELECT event_type, tsu,
                     max(tsu) OVER (ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS prior_max
              FROM t
            )
            SELECT event_type,
                   count(*)::BIGINT AS n_events,
                   sum(CASE WHEN prior_max IS NOT NULL
                             AND tsu < prior_max - 3600000000
                            THEN 1 ELSE 0 END)::BIGINT AS n_late,
                   coalesce(max(CASE WHEN prior_max IS NOT NULL
                                      AND tsu < prior_max - 3600000000
                                     THEN prior_max - tsu END),
                            0)::BIGINT AS max_lag_us
            FROM w GROUP BY event_type ORDER BY event_type
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   count(*) AS n_rows
            FROM lineitem GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "customer_topk": """
            SELECT c_custkey, c_name, n_name, r_name,
                   round(c_acctbal, 2) AS c_acctbal
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            ORDER BY c_acctbal DESC, c_custkey LIMIT 20
        """,
        "orders_by_status": """
            SELECT o_orderstatus, count(*) AS n_orders,
                   round(sum(o_totalprice), 2) AS total
            FROM orders GROUP BY 1 ORDER BY 1
        """,
        "events_window": """
            SELECT event_type, epoch_us(ts) // 3600000000 AS win,
                   count(*) AS n_events, round(sum(value), 2) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "topk_per_group": """
            SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
                   row_number() OVER (PARTITION BY o_custkey
                                      ORDER BY o_totalprice DESC, o_orderkey)
                     AS rnk
            FROM orders
            QUALIFY rnk <= 2
        """,
        "sessionize_events": """
            WITH e AS (
              SELECT user_id, event_id, ts, value,
                     CASE WHEN epoch_us(ts) // 1000000
                               - lag(epoch_us(ts) // 1000000)
                                 OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) > 1800
                          THEN 1 ELSE 0 END AS brk
              FROM events
            ), s AS (
              SELECT user_id, event_id, ts, value,
                     CAST(1 + sum(brk) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id
                                             ROWS UNBOUNDED PRECEDING)
                          AS BIGINT) AS session_id
              FROM e
            )
            SELECT user_id, session_id, count(*) AS n_events,
                   min(epoch_us(ts)) AS start_us, max(epoch_us(ts)) AS end_us,
                   round(sum(value), 2) AS sum_value
            FROM s GROUP BY 1, 2
        """,
        "last_error_asof": """
            SELECT l.event_id,
                   r.ts AS last_error_ts
            FROM events l
            ASOF LEFT JOIN (SELECT user_id, ts FROM events
                            WHERE event_type = 'error') r
              ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        "events_sliding_window": """
            SELECT event_type, win, count(*) AS n_events,
                   round(sum(value), 2) AS sum_value
            FROM (
              SELECT event_type, value,
                     unnest(generate_series(
                       (epoch_us(ts) - 3600000000) // 1800000000 + 1,
                       epoch_us(ts) // 1800000000)) AS win
              FROM events
            ) GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "building_orders_semi": """
            SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS o_totalprice
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'BUILDING')
        """,
        "events_props_extract": """
            SELECT event_id,
                   CAST(json_extract(props, '$.k') AS BIGINT) AS k
            FROM events
        """,
        "supplier_levenshtein": """
            SELECT s_suppkey, n_nationkey,
                   round(CASE
                     WHEN s_name = n_name THEN 100.0
                     WHEN greatest(length(s_name), length(n_name)) = 0 THEN 100.0
                     WHEN length(s_name) = 0 OR length(n_name) = 0 THEN 0.0
                     ELSE 100.0 * (1.0 - levenshtein(s_name, n_name)::double
                          / greatest(length(s_name), length(n_name)))
                   END, 6) AS lev_sim
            FROM supplier, nation
        """,
        "supplier_jaro": """
            SELECT s_suppkey, n_nationkey,
                   round(100.0 * jaro_winkler_similarity(s_name, n_name), 6)
                     AS jw_sim
            FROM supplier, nation
        """,
        "retention_events": """
            WITH act AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ), coh AS (
              SELECT user_id, min(day) AS cohort_day FROM act GROUP BY 1
            )
            SELECT coh.cohort_day,
                   (act.day - coh.cohort_day) AS day_offset,
                   count(*)::BIGINT AS n_users
            FROM act JOIN coh USING (user_id)
            GROUP BY 1, 2
        """,
        "funnel_events": """
            -- greedy earliest-completion ordered funnel, strict ts order
            WITH s1 AS (
              SELECT user_id, min(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY 1
            ), s2 AS (
              SELECT e.user_id, min(e.ts) AS t2
              FROM events e JOIN s1 USING (user_id)
              WHERE e.event_type = 'click' AND e.ts > s1.t1 GROUP BY 1
            ), s3 AS (
              SELECT e.user_id, min(e.ts) AS t3
              FROM events e JOIN s2 USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts > s2.t2 GROUP BY 1
            )
            SELECT s1.user_id,
                   (1 + (s2.user_id IS NOT NULL)::INT
                      + (s3.user_id IS NOT NULL)::INT)::BIGINT
                     AS steps_completed
            FROM s1
            LEFT JOIN s2 ON s1.user_id = s2.user_id
            LEFT JOIN s3 ON s1.user_id = s3.user_id
        """,
        "rolling_mean_events": """
            SELECT event_id,
                   round(((sum(c) OVER w)::DOUBLE / (count(*) OVER w))
                         / 100.0, 6) AS roll_mean
            FROM (SELECT event_id, user_id, ts,
                         CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS c
                  FROM events)
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
        """,
        "interarrival_events": """
            SELECT event_id,
                   epoch_us(ts) - lag(epoch_us(ts))
                     OVER (PARTITION BY user_id ORDER BY ts, event_id)
                     AS delta_us
            FROM events
        """,
        "transitions_events": """
            SELECT src, dst, count(*)::BIGINT AS n
            FROM (SELECT lag(event_type)
                           OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS src,
                         event_type AS dst
                  FROM events)
            WHERE src IS NOT NULL
            GROUP BY src, dst
        """,
        "twap_events": """
            WITH c AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts,
                     CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            ), g AS (
              SELECT user_id, c,
                     lead(ts) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id) - ts AS gap
              FROM c
            ), s AS (
              SELECT user_id, sum(c::HUGEINT * gap) AS s
              FROM g WHERE gap IS NOT NULL GROUP BY user_id
            ), t AS (
              SELECT user_id, max(ts) - min(ts) AS t, count(*) AS n
              FROM c GROUP BY user_id
            )
            SELECT t.user_id,
                   CASE WHEN t.t = 0 THEN NULL
                        ELSE round(((s.s)::DOUBLE / (t.t)::DOUBLE)
                                   / 100.0, 6) END AS twap
            FROM t JOIN s USING (user_id) WHERE t.n >= 2
        """,
        "resample_events": """
            WITH d AS (
              SELECT user_id,
                     CASE WHEN epoch_us(ts) >= 0
                          THEN epoch_us(ts) // 86400000000
                          ELSE -((-epoch_us(ts) + 86400000000 - 1)
                                 // 86400000000) END AS win
              FROM events
            ), b AS (
              SELECT user_id, min(win) AS lo, max(win) AS hi
              FROM d GROUP BY user_id
            ), g AS (
              SELECT user_id, unnest(generate_series(lo, hi)) AS win
              FROM b
            ), c AS (
              SELECT user_id, win, count(*)::BIGINT AS n_events
              FROM d GROUP BY user_id, win
            )
            SELECT g.user_id, g.win,
                   coalesce(c.n_events, 0)::BIGINT AS n_events
            FROM g LEFT JOIN c USING (user_id, win)
        """,
        "running_total_events": """
            WITH c AS (
              SELECT event_id, user_id, ts,
                     CAST(floor(value * 100.0 + 0.5) AS BIGINT) AS c
              FROM events
            )
            SELECT event_id,
                   round((sum(c) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id
                                       ROWS UNBOUNDED PRECEDING))::DOUBLE
                         / 100.0, 6) AS run_total
            FROM c
        """,
        "pct_rank_orders": """
            SELECT o_orderkey, o_orderstatus,
                   percent_rank() OVER (PARTITION BY o_orderstatus
                                        ORDER BY o_totalprice)
                     AS pct_rank
            FROM orders
        """,
        "rolling_active_events": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     CASE WHEN epoch_us(ts) >= 0
                          THEN epoch_us(ts) // 86400000000
                          ELSE -((-epoch_us(ts) + 86400000000 - 1)
                                 // 86400000000) END AS d
              FROM events
            ), b AS (
              SELECT min(d) AS lo, max(d) AS hi FROM d
            ), w AS (
              SELECT unnest(generate_series(lo, hi)) AS day FROM b
            )
            SELECT w.day,
                   (SELECT count(DISTINCT user_id) FROM d
                    WHERE d.d BETWEEN w.day - 6 AND w.day)::BIGINT
                     AS n_active
            FROM w
        """,
        "row_number_orders": """
            SELECT o_orderkey, o_totalprice,
                   row_number() OVER (ORDER BY o_totalprice, o_orderkey)
                     AS rn
            FROM orders
        """,
        "ewma_events": """
            WITH e AS (
              SELECT user_id, event_id, ts, (value)::DOUBLE AS x
              FROM events
              WHERE user_id IS NOT NULL AND value IS NOT NULL
            ), f AS (
              SELECT user_id,
                     count(*)::BIGINT AS n,
                     list_reduce(
                       list(x ORDER BY ts, event_id),
                       (s, x) -> (0.2)::DOUBLE * x
                                 + ((1.0)::DOUBLE - (0.2)::DOUBLE) * s
                     ) AS s
              FROM e GROUP BY user_id
            )
            SELECT user_id, n,
                   CASE WHEN s >= 0
                        THEN floor(s * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-s * 1000000.0 + 0.5) / 1000000.0
                   END AS ewma
            FROM f
        """,
        "attribution_first_events": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts,
                     (event_type)::VARCHAR AS et
              FROM events
              WHERE user_id IS NOT NULL
                AND (event_type)::VARCHAR IN
                    ('click', 'view', 'purchase')
            ), w AS (
              SELECT user_id, event_id, ts, et,
                     first_value(CASE WHEN et IN ('click', 'view')
                                      THEN event_id END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_id,
                     first_value(CASE WHEN et IN ('click', 'view')
                                      THEN ts END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_ts,
                     first_value(CASE WHEN et IN ('click', 'view')
                                      THEN et END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_et
              FROM e
            )
            SELECT event_id, user_id, ts AS conv_ts,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN src_id END AS attributed_id,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN src_et END AS attributed_type,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN ts - src_ts END AS lag_us
            FROM w WHERE et = 'purchase'
        """,
        "attribution_events": """
            WITH e AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts,
                     (event_type)::VARCHAR AS et
              FROM events
              WHERE user_id IS NOT NULL
                AND (event_type)::VARCHAR IN
                    ('click', 'view', 'purchase')
            ), w AS (
              SELECT user_id, event_id, ts, et,
                     last_value(CASE WHEN et IN ('click', 'view')
                                     THEN event_id END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_id,
                     last_value(CASE WHEN et IN ('click', 'view')
                                     THEN ts END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_ts,
                     last_value(CASE WHEN et IN ('click', 'view')
                                     THEN et END IGNORE NULLS)
                       OVER (PARTITION BY user_id
                             ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND 1 PRECEDING) AS src_et
              FROM e
            )
            SELECT event_id, user_id, ts AS conv_ts,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN src_id END AS attributed_id,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN src_et END AS attributed_type,
                   CASE WHEN src_ts IS NOT NULL
                             AND ts - src_ts <= 604800000000
                        THEN ts - src_ts END AS lag_us
            FROM w WHERE et = 'purchase'
        """,
        "interval_union_events": """
            WITH iv AS (
              SELECT user_id, event_id, epoch_us(ts) AS s,
                     epoch_us(ts) + 3600000000 AS e
              FROM events WHERE user_id IS NOT NULL
            ), w AS (
              SELECT user_id, event_id, s, e,
                     max(e) OVER (
                       PARTITION BY user_id
                       ORDER BY s, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS pm
              FROM iv
            ), f AS (
              SELECT user_id, event_id, s, e,
                     CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END
                       AS ni
              FROM w
            ), g AS (
              SELECT user_id, s, e,
                     sum(ni) OVER (
                       PARTITION BY user_id
                       ORDER BY s, event_id) AS isl
              FROM f
            )
            SELECT user_id, min(s) AS island_start,
                   max(e) AS island_end, count(*)::BIGINT AS n_events
            FROM g GROUP BY user_id, isl
        """,
        "cusum_events": """
            WITH e AS (
              SELECT user_id, event_id, ts, (value)::DOUBLE AS x
              FROM events
              WHERE user_id IS NOT NULL AND value IS NOT NULL
            ), f AS (
              SELECT user_id,
                     count(*)::BIGINT AS n,
                     list_reduce(
                       list_prepend((0.0)::DOUBLE,
                                    list(x ORDER BY ts, event_id)),
                       (s, x) -> greatest((0.0)::DOUBLE,
                                          s + x - (0.0)::DOUBLE
                                            - (0.5)::DOUBLE)
                     ) AS hi,
                     list_reduce(
                       list_prepend((0.0)::DOUBLE,
                                    list(x ORDER BY ts, event_id)),
                       (s, x) -> greatest((0.0)::DOUBLE,
                                          s - x + (0.0)::DOUBLE
                                            - (0.5)::DOUBLE)
                     ) AS lo
              FROM e GROUP BY user_id
            )
            SELECT user_id, n,
                   CASE WHEN hi >= 0
                        THEN floor(hi * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-hi * 1000000.0 + 0.5) / 1000000.0
                   END AS cusum_hi,
                   CASE WHEN lo >= 0
                        THEN floor(lo * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-lo * 1000000.0 + 0.5) / 1000000.0
                   END AS cusum_lo,
                   (CASE WHEN hi > (40.0)::DOUBLE
                              OR lo > (40.0)::DOUBLE
                         THEN 1 ELSE 0 END)::INTEGER AS alarm
            FROM f
        """,
        "cube_orders": """
            SELECT coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
                   coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
                   count(*)::BIGINT AS n,
                   round((sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)))::DOUBLE / 100.0, 6)
                     AS sum_val
            FROM orders
            GROUP BY CUBE (o_orderstatus, o_orderpriority)
        """,
        "snm_pairs_customer": """
            WITH r AS (
              SELECT c_custkey AS id,
                     row_number() OVER (ORDER BY c_name, c_custkey) AS rn
              FROM customer
            )
            SELECT a.id AS x_id, b.id AS y_id,
                   (b.rn - a.rn)::BIGINT AS gap
            FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + 4
        """,
        "seq_pattern_events": """
            WITH c AS (
              SELECT user_id, ts, event_id,
                     CASE event_type
                          WHEN 'click' THEN 'c' WHEN 'error' THEN 'e'
                          WHEN 'purchase' THEN 'p' WHEN 'signup' THEN 's'
                          WHEN 'view' THEN 'v' END AS ch
              FROM events
              WHERE event_type IN
                    ('click', 'error', 'purchase', 'signup', 'view')
            ), s AS (
              SELECT user_id,
                     string_agg(ch, '' ORDER BY ts, event_id) AS seq
              FROM c GROUP BY user_id
            )
            SELECT user_id, length(seq)::BIGINT AS seq_len,
                   len(regexp_extract_all(seq, 'c+p'))::BIGINT
                     AS n_matches
            FROM s
        """,
        "intervals_events": """
            WITH o AS (
              SELECT user_id, event_id, epoch_us(ts) AS ts, event_type,
                     lag(event_type)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev
              FROM events
            ), runs AS (
              SELECT user_id, event_id, ts, event_type
              FROM o WHERE prev IS DISTINCT FROM event_type
            )
            SELECT user_id, event_type AS val, ts AS valid_from,
                   lead(ts) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS valid_to
            FROM runs
        """,
        "pivot_orders": """
            SELECT o_orderstatus,
                   count(*) FILTER (WHERE o_orderpriority = '1-URGENT'
                                    )::BIGINT AS n_1_urgent,
                   count(*) FILTER (WHERE o_orderpriority = '2-HIGH'
                                    )::BIGINT AS n_2_high,
                   count(*) FILTER (WHERE o_orderpriority = '3-MEDIUM'
                                    )::BIGINT AS n_3_medium,
                   count(*) FILTER (WHERE o_orderpriority IS NULL OR
                                    o_orderpriority NOT IN
                                    ('1-URGENT', '2-HIGH', '3-MEDIUM')
                                    )::BIGINT AS n_other
            FROM orders GROUP BY o_orderstatus
        """,
        "ntile_orders": """
            WITH c AS (
              SELECT o_orderkey, o_orderstatus,
                     CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS c
              FROM orders
            )
            SELECT o_orderkey,
                   ntile(4) OVER (PARTITION BY o_orderstatus
                                  ORDER BY c, o_orderkey)::BIGINT AS tile
            FROM c
        """,
        "rollup_orders": """
            SELECT coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
                   coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
                   count(*)::BIGINT AS n,
                   round((sum(CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT)))::DOUBLE / 100.0, 6)
                     AS sum_val
            FROM orders
            GROUP BY ROLLUP (o_orderstatus, o_orderpriority)
        """,
    }
