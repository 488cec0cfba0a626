"""Contract — frequent itemsets / association rules.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_basket_pairs(sf_dir: str):
    """Frequent item pairs (level-2 Apriori): parts co-ordered in >= 2
    orders, exact basket support."""

    from record_matcher_ray.pipelines.itemsets import basket_pairs

    ds = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return basket_pairs(ds, "l_orderkey", "l_partkey", min_support=2)


def _q_adamic_adar(sf_dir: str):
    """Adamic-Adar link-prediction affinity between parts sharing
    orders (weight 1/ln(basket size), support >= 2)."""

    from record_matcher_ray.pipelines.itemsets import adamic_adar_items

    ds = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return adamic_adar_items(ds, "l_orderkey", "l_partkey",
                             min_support=2, max_basket=256)


def _q_item_cosine(sf_dir: str):
    """Item-item affinity (cosine + lift over exact basket supports):
    parts co-ordered in >= 3 orders."""

    from record_matcher_ray.pipelines.itemsets import (
        item_cooccurrence_similarity,
    )

    ds = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return item_cooccurrence_similarity(
        ds, "l_orderkey", "l_partkey", min_support=3
    )


def queries():
    return {
        "basket_pairs_lineitem": _q_basket_pairs,
        "item_cosine_lineitem": _q_item_cosine,
        "adamic_adar_lineitem": _q_adamic_adar,
    }


def oracles():
    return {
        "adamic_adar_lineitem": """
            WITH it AS (
              SELECT DISTINCT l_orderkey AS bk, l_partkey AS itm
              FROM lineitem
              WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
            ), good AS (
              SELECT bk, count(*)::BIGINT AS m FROM it GROUP BY bk
              HAVING count(*) <= 256
            ), kept AS (
              SELECT it.bk, it.itm FROM it JOIN good USING (bk)
            ), w AS (
              SELECT bk,
                     CASE WHEN m >= 2
                          THEN (floor((1000000000.0)::DOUBLE
                                      / ln((m)::DOUBLE)
                                      + (0.5)::DOUBLE))::BIGINT
                          ELSE 0 END AS wu
              FROM good
            ), p AS (
              SELECT a.itm AS item_a, b.itm AS item_b,
                     count(*)::BIGINT AS support,
                     (sum(w.wu))::BIGINT AS aa_units
              FROM kept a
              JOIN kept b ON a.bk = b.bk AND a.itm < b.itm
              JOIN w ON w.bk = a.bk
              GROUP BY 1, 2 HAVING count(*) >= 2
            )
            SELECT (item_a)::BIGINT AS item_a,
                   (item_b)::BIGINT AS item_b,
                   support,
                   floor((aa_units)::DOUBLE / (1000000000.0)::DOUBLE
                         * (1000000.0)::DOUBLE + (0.5)::DOUBLE)
                   / (1000000.0)::DOUBLE AS aa
            FROM p
        """,
        "basket_pairs_lineitem": """
            WITH it AS (
              SELECT DISTINCT l_orderkey AS bk, l_partkey AS itm
              FROM lineitem
              WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
            ), good AS (
              SELECT bk FROM it GROUP BY bk HAVING count(*) <= 256
            ), kept AS (
              SELECT it.bk, it.itm FROM it JOIN good USING (bk)
            )
            SELECT a.itm::BIGINT AS item_a, b.itm::BIGINT AS item_b,
                   count(*)::BIGINT AS support
            FROM kept a JOIN kept b ON a.bk = b.bk AND a.itm < b.itm
            GROUP BY 1, 2 HAVING count(*) >= 2
        """,
        "item_cosine_lineitem": """
            WITH it AS (
              SELECT DISTINCT l_orderkey AS bk, l_partkey AS itm
              FROM lineitem
              WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
            ), good AS (
              SELECT bk FROM it GROUP BY bk HAVING count(*) <= 256
            ), kept AS (
              SELECT it.bk, it.itm FROM it JOIN good USING (bk)
            ), nb AS (
              SELECT count(DISTINCT bk)::BIGINT AS n FROM kept
            ), isupp AS (
              SELECT itm, count(*)::BIGINT AS s FROM kept GROUP BY itm
            ), p AS (
              SELECT a.itm AS ia, b.itm AS ib, count(*)::BIGINT AS supp
              FROM kept a JOIN kept b ON a.bk = b.bk AND a.itm < b.itm
              GROUP BY 1, 2 HAVING count(*) >= 3
            )
            SELECT (p.ia)::BIGINT AS item_a, (p.ib)::BIGINT AS item_b,
                   p.supp AS support,
                   floor((p.supp)::DOUBLE
                         / (sqrt((sa.s)::DOUBLE) * sqrt((sb.s)::DOUBLE))
                         * 1000000000.0 + 0.5) / 1000000000.0 AS cosine,
                   floor(((p.supp)::HUGEINT * nb.n)::DOUBLE
                         / ((sa.s)::HUGEINT * sb.s)::DOUBLE
                         * 1000000000.0 + 0.5) / 1000000000.0 AS lift
            FROM p JOIN isupp sa ON sa.itm = p.ia
                   JOIN isupp sb ON sb.itm = p.ib
                   CROSS JOIN nb
        """,
    }
