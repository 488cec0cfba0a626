"""Contract — graph algorithms (pagerank, CC, triangles).

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.contract.shared import (  # noqa: F401
    _PR_OFF,
)
from record_matcher_ray.sources.readers import read_table


def _q_pagerank(sf_dir: str):
    """Fixed-point integer PageRank (4 iterations, d=0.85) over the
    bidirectional part↔supplier graph of lineitem — the engine's second
    iterative distributed algorithm, bit-replayed by chained CTEs like
    kmeans."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.graph import pagerank

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def edges(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy().astype(np.int64)
        s = t["l_suppkey"].to_numpy().astype(np.int64) + _PR_OFF
        return pa.table(
            {"src": pa.array(np.concatenate([p, s])),
             "dst": pa.array(np.concatenate([s, p]))}
        )

    return pagerank(li.map_batches(edges, batch_format="pyarrow"), iters=4)


def _q_ppr(sf_dir: str):
    """Personalized PageRank (random walk with restart): 4 iterations,
    restart at parts whose partkey % 97 == 0, over the bidirectional
    part<->supplier graph."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.graph import pagerank

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def edges(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy().astype(np.int64)
        s = t["l_suppkey"].to_numpy().astype(np.int64) + _PR_OFF
        return pa.table(
            {"src": pa.array(np.concatenate([p, s])),
             "dst": pa.array(np.concatenate([s, p]))}
        )

    pk = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]
    ).to_pandas()["p_partkey"].to_numpy(dtype=np.int64)
    seeds = pk[pk % 97 == 0]
    return pagerank(li.map_batches(edges, batch_format="pyarrow"),
                    iters=4, seeds=seeds)


def _ppr_oracle(iters: int = 4, total_bits: int = 40,
                d_num: int = 85, d_den: int = 100) -> str:
    """Bit-exact replay of pipelines/graph.pagerank with seeds: teleport
    mass only at seed nodes (partkey % 97 == 0), init 2^bits // |seeds|;
    all arithmetic non-negative HUGEINT so `//` equals Python floor."""
    total = 1 << total_bits
    tele = (f"(({d_den - d_num} * (SELECT init FROM consts)) "
            f"// {d_den})")
    sql = [f"""
        WITH edges AS (
          SELECT l_partkey::BIGINT AS src,
                 l_suppkey::BIGINT + {_PR_OFF} AS dst
          FROM lineitem
          UNION ALL
          SELECT l_suppkey::BIGINT + {_PR_OFF} AS src,
                 l_partkey::BIGINT AS dst
          FROM lineitem
        ), deg AS (
          SELECT src AS node, count(*)::HUGEINT AS outd
          FROM edges GROUP BY src
        ), nodes AS (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM edges
            UNION ALL SELECT dst FROM edges)
        ), seeds AS (
          SELECT node FROM nodes
          WHERE node < {_PR_OFF} AND node % 97 = 0
        ), consts AS (
          SELECT ({total}::HUGEINT
                  // (SELECT count(*) FROM seeds)) AS init
        ), pr0 AS (
          SELECT nd.node,
                 CASE WHEN s.node IS NOT NULL
                      THEN (SELECT init FROM consts)
                      ELSE 0::HUGEINT END AS pr
          FROM nodes nd LEFT JOIN seeds s ON s.node = nd.node
        )"""]
    for i in range(1, iters + 1):
        sql.append(f""",
        pr{i} AS (
          SELECT nd.node,
                 CASE WHEN sd.node IS NOT NULL THEN {tele}
                      ELSE 0::HUGEINT END
                 + ({d_num} * coalesce(f.s, 0)) // {d_den} AS pr
          FROM nodes nd
          LEFT JOIN seeds sd ON sd.node = nd.node
          LEFT JOIN (
            SELECT e.dst AS node, sum(p.pr // g.outd) AS s
            FROM edges e
            JOIN pr{i - 1} p ON p.node = e.src
            JOIN deg g ON g.node = e.src
            GROUP BY e.dst
          ) f ON f.node = nd.node
        )""")
    sql.append(f"""
        SELECT node, pr::BIGINT AS pr FROM pr{iters}
    """)
    return "".join(sql)


def _pagerank_oracle(iters: int = 4, total_bits: int = 40,
                     d_num: int = 85, d_den: int = 100) -> str:
    """Bit-exact replay of pipelines/graph.pagerank: every iteration is a
    chained CTE; all arithmetic is non-negative HUGEINT so DuckDB's `//`
    truncation equals Python's floor."""
    total = 1 << total_bits
    tele = f"(({d_den - d_num} * (SELECT init FROM consts)) // {d_den})"
    sql = [f"""
        WITH edges AS (
          SELECT l_partkey::BIGINT AS src,
                 l_suppkey::BIGINT + {_PR_OFF} AS dst
          FROM lineitem
          UNION ALL
          SELECT l_suppkey::BIGINT + {_PR_OFF} AS src,
                 l_partkey::BIGINT AS dst
          FROM lineitem
        ), deg AS (
          SELECT src AS node, count(*)::HUGEINT AS outd
          FROM edges GROUP BY src
        ), nodes AS (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM edges
            UNION ALL SELECT dst FROM edges)
        ), consts AS (
          SELECT count(*)::HUGEINT AS n,
                 ({total}::HUGEINT // count(*)) AS init
          FROM nodes
        ), pr0 AS (
          SELECT node, (SELECT init FROM consts) AS pr FROM nodes
        )"""]
    for i in range(1, iters + 1):
        sql.append(f""",
        pr{i} AS (
          SELECT nd.node,
                 {tele} + ({d_num} * coalesce(f.s, 0)) // {d_den} AS pr
          FROM nodes nd LEFT JOIN (
            SELECT e.dst AS node, sum(p.pr // g.outd) AS s
            FROM edges e
            JOIN pr{i - 1} p ON p.node = e.src
            JOIN deg g ON g.node = e.src
            GROUP BY e.dst
          ) f ON f.node = nd.node
        )""")
    sql.append(f"""
        SELECT node, pr::BIGINT AS pr FROM pr{iters}
    """)
    return "".join(sql)


def _q_connected_components(sf_dir: str):
    """Transitive clustering (M6) on a deterministic chain graph derived
    from documents: edge (d, d+1) whenever d % 7 != 6 — components are
    ≤7-node chains. Upgrades the clustering surface from rows-only to a
    SQL-checked row (recursive-CTE reachability replay)."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.cluster import connected_components

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        m = did % 7 != 6
        return pa.table({"u": pa.array(did[m]), "v": pa.array(did[m] + 1)})

    return connected_components(docs.map_batches(edges,
                                                 batch_format="pyarrow"))


def _q_triangles(sf_dir: str):
    """Exact triangle count of the order↔customer mod-512 contact graph
    (degree-oriented wedge counting — each triangle counted once at its
    rank-minimal vertex)."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.graph import triangle_count

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def edges(t: pa.Table) -> pa.Table:
        return pa.table(
            {"src": pa.array(t["o_orderkey"].to_numpy() % 512),
             "dst": pa.array(t["o_custkey"].to_numpy() % 512)}
        )

    return triangle_count(ds.map_batches(edges, batch_format="pyarrow"))


def _q_bfs_hops(sf_dir: str):
    """Shortest hop counts from part node 0 over the bidirectional
    part↔supplier lineitem graph (the PageRank edge set) — bounded BFS,
    replayed by a depth-bounded WITH RECURSIVE oracle."""

    from record_matcher_ray.pipelines.graph import bfs_hops

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def edges(t):
        import numpy as np
        import pyarrow as pa

        p = t["l_partkey"].to_numpy().astype(np.int64)
        s = t["l_suppkey"].to_numpy().astype(np.int64) + _PR_OFF
        return pa.table(
            {"src": pa.array(np.concatenate([p, s])),
             "dst": pa.array(np.concatenate([s, p]))}
        )

    return bfs_hops(
        li.map_batches(edges, batch_format="pyarrow"), 0, max_hops=8
    )


def _q_labelprop(sf_dir: str):
    """Deterministic synchronous label propagation (4 rounds, min-label
    ties) over the bidirectional part<->supplier graph of lineitem."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.graph import label_propagation

    li = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )

    def edges(t: pa.Table) -> pa.Table:
        p = t["l_partkey"].to_numpy().astype(np.int64)
        s = t["l_suppkey"].to_numpy().astype(np.int64) + _PR_OFF
        return pa.table(
            {"src": pa.array(np.concatenate([p, s])),
             "dst": pa.array(np.concatenate([s, p]))}
        )

    return label_propagation(
        li.map_batches(edges, batch_format="pyarrow"), iters=4
    )


def _labelprop_oracle(iters: int = 4) -> str:
    """Replay of pipelines/graph.label_propagation: one chained CTE per
    round; most-frequent in-neighbor label with min-label ties via
    row_number; integer-exact throughout."""
    sql = [f"""
        WITH edges AS (
          SELECT l_partkey::BIGINT AS src,
                 l_suppkey::BIGINT + {_PR_OFF} AS dst
          FROM lineitem
          UNION ALL
          SELECT l_suppkey::BIGINT + {_PR_OFF} AS src,
                 l_partkey::BIGINT AS dst
          FROM lineitem
        ), nodes AS (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM edges
            UNION ALL SELECT dst FROM edges)
        ), lab0 AS (
          SELECT node, node AS lab FROM nodes
        )"""]
    for i in range(1, iters + 1):
        sql.append(f""",
        lab{i} AS (
          SELECT nd.node, coalesce(w.lab, p.lab) AS lab
          FROM nodes nd
          JOIN lab{i - 1} p ON p.node = nd.node
          LEFT JOIN (
            SELECT dst AS node, lab FROM (
              SELECT e.dst, l.lab,
                     row_number() OVER (
                       PARTITION BY e.dst
                       ORDER BY count(*) DESC, l.lab ASC
                     ) AS rn
              FROM edges e JOIN lab{i - 1} l ON l.node = e.src
              GROUP BY e.dst, l.lab
            ) q WHERE rn = 1
          ) w ON w.node = nd.node
        )""")
    sql.append(f"""
        SELECT node, lab AS label FROM lab{iters}
    """)
    return "".join(sql)


def _q_merge_components(sf_dir: str):
    """Incremental cluster maintenance: the chain clustering of
    `connected_components_docs` as the EXISTING assignment, plus a delta
    of bridge edges (d, d+7) for d % 21 == 0 — merged labels must equal
    a full recompute over the union (pinned by the recursive-CTE
    oracle). Companion of docmatch.match_documents_delta."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.cluster import (
        connected_components,
        merge_components,
    )

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def base_edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        m = did % 7 != 6
        return pa.table({"u": pa.array(did[m]), "v": pa.array(did[m] + 1)})

    old = connected_components(
        docs.map_batches(base_edges, batch_format="pyarrow")
    )

    def delta_edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        m = did % 21 == 0
        return pa.table({"u": pa.array(did[m]), "v": pa.array(did[m] + 7)})

    return merge_components(
        old, docs.map_batches(delta_edges, batch_format="pyarrow")
    )


def _q_transitivity(sf_dir: str):
    """Global transitivity of the orders contact graph (same mod-512
    derivation as triangles_orders): 3 x triangles / wedges."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.graph import transitivity_audit

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def edges(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.array(t["o_orderkey"].to_numpy() % 512),
            "dst": pa.array(t["o_custkey"].to_numpy() % 512),
        })

    return transitivity_audit(
        orders.map_batches(edges, batch_format="pyarrow")
    )


def _q_stable_relabel(sf_dir: str):
    """Stable entity ids across ER runs: the chain clustering
    (connected_components_docs) relabelled onto the delta-merged
    clustering (merge_components_docs) — min-old-id rule; a contested id
    is kept by the claimant whose label equals it, else the lowest
    component, and colliding fallbacks bump to fresh ids."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.cluster import (
        connected_components,
        merge_components,
        stable_relabel,
    )

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def base_edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        m = did % 7 != 6
        return pa.table({"u": pa.array(did[m]), "v": pa.array(did[m] + 1)})

    def delta_edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.int64)
        m = did % 21 == 0
        return pa.table({"u": pa.array(did[m]), "v": pa.array(did[m] + 7)})

    old = connected_components(
        docs.map_batches(base_edges, batch_format="pyarrow")
    ).materialize()
    new = merge_components(
        old, docs.map_batches(delta_edges, batch_format="pyarrow")
    ).materialize()
    return stable_relabel(old, new)


def queries():
    return {
        "pagerank_lineitem": _q_pagerank,
        "connected_components_docs": _q_connected_components,
        "merge_components_docs": _q_merge_components,
        "transitivity_orders": _q_transitivity,
        "stable_relabel_docs": _q_stable_relabel,
        "ppr_lineitem": _q_ppr,
        "triangles_orders": _q_triangles,
        "labelprop_lineitem": _q_labelprop,
        "bfs_hops_lineitem": _q_bfs_hops,
    }


def oracles():
    return {
        "stable_relabel_docs": """
            WITH RECURSIVE eo0 AS (
              SELECT doc_id AS a, doc_id + 1 AS b
              FROM documents WHERE doc_id % 7 <> 6
            ), eo AS (
              SELECT a, b FROM eo0 UNION ALL SELECT b, a FROM eo0
            ), no AS (SELECT DISTINCT a AS node FROM eo),
            wo(node, r) AS (
              SELECT node, node FROM no
              UNION
              SELECT w.node, eo.b FROM wo w JOIN eo ON eo.a = w.r
            ), oldc AS (
              SELECT node, min(r)::BIGINT AS oc FROM wo GROUP BY node
            ), en0 AS (
              SELECT a, b FROM eo0
              UNION ALL
              SELECT doc_id, doc_id + 7
              FROM documents WHERE doc_id % 21 = 0
            ), en AS (
              SELECT a, b FROM en0 UNION ALL SELECT b, a FROM en0
            ), nn AS (SELECT DISTINCT a AS node FROM en),
            wn(node, r) AS (
              SELECT node, node FROM nn
              UNION
              SELECT w.node, en.b FROM wn w JOIN en ON en.a = w.r
            ), newc AS (
              SELECT node, min(r)::BIGINT AS nc FROM wn GROUP BY node
            ), claim AS (
              SELECT n.nc, min(o.oc) AS m
              FROM newc n LEFT JOIN oldc o USING (node)
              GROUP BY n.nc
            ), rk AS (
              SELECT nc, m,
                     row_number() OVER (
                       PARTITION BY m ORDER BY (nc <> m), nc
                     ) AS rn
              FROM claim WHERE m IS NOT NULL
            ), won AS (
              SELECT m FROM rk WHERE rn = 1
            ), prelim AS (
              SELECT c.nc,
                     CASE WHEN r.rn = 1 THEN r.m ELSE c.nc END AS eid,
                     (r.rn IS NULL OR r.rn > 1) AS fb
              FROM claim c LEFT JOIN rk r ON r.nc = c.nc
            ), bump AS (
              SELECT nc,
                     1 + greatest(coalesce((SELECT max(m) FROM won), -1),
                                  (SELECT max(nc) FROM claim))
                       + row_number() OVER (ORDER BY nc) - 1 AS eid2
              FROM prelim
              WHERE fb AND eid IN (SELECT m FROM won)
            ), ids AS (
              SELECT p.nc, coalesce(b.eid2, p.eid) AS eid
              FROM prelim p LEFT JOIN bump b ON b.nc = p.nc
            )
            SELECT newc.node, newc.nc AS component,
                   coalesce(ids.eid, newc.nc)::BIGINT AS entity_id
            FROM newc JOIN ids ON ids.nc = newc.nc
        """,
        "transitivity_orders": """
            WITH raw AS (
              SELECT (o_orderkey % 512) AS u, (o_custkey % 512) AS v
              FROM orders
            ), e AS (
              SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b
              FROM raw WHERE u <> v
            ), deg AS (
              SELECT x, count(*)::HUGEINT AS d FROM
                (SELECT a AS x FROM e UNION ALL SELECT b FROM e)
              GROUP BY x
            ), w AS (
              SELECT sum(d * (d - 1) // 2)::HUGEINT AS wedges FROM deg
            ), t AS (
              SELECT count(*)::HUGEINT AS tri
              FROM e e1
              JOIN e e2 ON e2.a = e1.b
              JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            )
            SELECT
              (SELECT count(*) FROM deg)::BIGINT AS n_nodes,
              (SELECT count(*) FROM e)::BIGINT AS n_edges,
              w.wedges::BIGINT AS n_wedges,
              t.tri::BIGINT AS n_triangles,
              CASE WHEN w.wedges > 0
                   THEN floor((3.0)::DOUBLE * (t.tri::DOUBLE)
                              / (w.wedges::DOUBLE) * 1000000.0 + 0.5)
                        / 1000000.0
                   ELSE NULL END AS transitivity
            FROM w, t
        """,
        "merge_components_docs": """
            WITH RECURSIVE e0 AS (
              SELECT doc_id AS a, doc_id + 1 AS b
              FROM documents WHERE doc_id % 7 <> 6
              UNION ALL
              SELECT doc_id, doc_id + 7
              FROM documents WHERE doc_id % 21 = 0
            ), e AS (
              SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0
            ), nodes AS (
              SELECT DISTINCT a AS node FROM e
            ), walk(node, r) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT w.node, e.b FROM walk w JOIN e ON e.a = w.r
            )
            SELECT node, min(r)::BIGINT AS component
            FROM walk GROUP BY node
        """,
        "pagerank_lineitem": _pagerank_oracle(),
        "ppr_lineitem": _ppr_oracle(),
        "connected_components_docs": """
            WITH RECURSIVE e AS (
              SELECT doc_id AS a, doc_id + 1 AS b
              FROM documents WHERE doc_id % 7 <> 6
            ), nodes AS (
              SELECT DISTINCT node FROM (
                SELECT a AS node FROM e UNION ALL SELECT b FROM e)
            ), walk(node, r) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT w.node, e.a FROM walk w JOIN e ON e.b = w.r
            )
            SELECT node, min(r)::BIGINT AS component
            FROM walk GROUP BY node
        """,
        "labelprop_lineitem": _labelprop_oracle(iters=4),
        "bfs_hops_lineitem": """
            WITH RECURSIVE e AS (
              SELECT l_partkey AS a, l_suppkey + 1000000 AS b
              FROM lineitem
              UNION ALL
              SELECT l_suppkey + 1000000, l_partkey FROM lineitem
            ), walk(node, d) AS (
              SELECT 0::BIGINT, 0::BIGINT
              UNION
              SELECT e.b, w.d + 1 FROM walk w
              JOIN e ON e.a = w.node
              WHERE w.d < 8
            )
            SELECT node, min(d)::BIGINT AS hops
            FROM walk GROUP BY node HAVING min(d) <= 8
        """,
        "triangles_orders": """
            WITH raw AS (
              SELECT (o_orderkey % 512) AS u, (o_custkey % 512) AS v
              FROM orders
            ), e AS (
              SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b
              FROM raw WHERE u <> v
            )
            SELECT
              (SELECT count(DISTINCT x) FROM
                 (SELECT a AS x FROM e UNION ALL SELECT b FROM e)
              )::BIGINT AS n_nodes,
              (SELECT count(*) FROM e)::BIGINT AS n_edges,
              (SELECT count(*)
               FROM e e1
               JOIN e e2 ON e2.a = e1.b
               JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
              )::BIGINT AS n_triangles
        """,
    }
