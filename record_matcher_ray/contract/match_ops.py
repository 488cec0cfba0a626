"""Contract — record-matcher pipeline surface (O6-O8).

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _registry_from_customer(sf_dir):
    import pyarrow as pa
    import pyarrow.compute as pc

    cust = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_mktsegment"],
    )

    def to_y(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ykey": t["c_custkey"],
                "name": t["c_name"],
                "segment": t["c_mktsegment"],
                "registry_id": pc.binary_join_element_wise(
                    "R-", pc.cast(t["c_custkey"], pa.string()), ""
                ),
            }
        )

    return cust.map_batches(to_y, batch_format="pyarrow")


def _match_exact_customer(sf_dir: str):
    """O7/O8 end-to-end: customers matched against a derived registry,
    blocked on mktsegment, exact scorer on name, copy-over of registry_id.
    Names are unique ⇒ every row MATCHED at 100 with its own key."""

    from record_matcher_ray.core.config import MatchConfigBuilder
    from record_matcher_ray.pipelines.match import match_datasets

    x = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )
    y = _registry_from_customer(sf_dir)
    b = MatchConfigBuilder(
        x_columns={"c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"},
        y_columns={"ykey", "name", "segment", "registry_id"},
    )
    b.match("c_name", ["name"], scorer="exact_match")
    b.group("segment", "c_mktsegment")
    b.get("registry_id", "matched_registry_id")
    cfg = b.build()
    return match_datasets(x, y, cfg, "c_custkey", "ykey").dataset


def queries():
    return {
        "match_exact_customer": _match_exact_customer,
    }


def oracles():
    return {
        "match_exact_customer": """
            SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment,
                   'R-' || cast(c_custkey AS varchar) AS matched_registry_id,
                   'MATCHED' AS match_status,
                   cast(c_custkey AS varchar) AS "row(s)_matched",
                   '100.0' AS match_score
            FROM customer
        """,
    }
