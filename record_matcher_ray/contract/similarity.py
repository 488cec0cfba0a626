"""Contract — embedding similarity / ANN / clustering.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq


    from record_matcher_ray.pipelines.similarity import brute_force_topk

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    head = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, 5)
    q = np.stack([np.asarray(v, dtype=np.float64) for v in head["embedding"].to_pylist()])
    out = brute_force_topk(
        ds, q, k=10, query_ids=head["vec_id"].to_numpy()
    )
    out = out[["query_id", "vec_id", "cos_sim"]].copy()
    out["cos_sim"] = out["cos_sim"].round(4)
    return out


def _q_lsh_topk(sf_dir: str):
    """Random-hyperplane LSH ANN: same 5 queries as ann_topk, but only
    bucket-colliding candidates are scored (the LSH-bucketed scale path)."""
    import pyarrow.parquet as pq


    from record_matcher_ray.pipelines.similarity import lsh_topk

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    head = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).slice(0, 5)
    q = np.stack(
        [np.asarray(v, dtype=np.float64) for v in head["embedding"].to_pylist()]
    )
    out = lsh_topk(
        ds, q, k=10, n_tables=4, n_bits=6, seed=0,
        query_ids=head["vec_id"].to_numpy(),
    )
    out = out[["query_id", "vec_id", "cos_sim"]].copy()
    out["cos_sim"] = out["cos_sim"].round(4)
    return out


def _lsh_topk_oracle() -> str:
    """Bit-exact DuckDB replay of the LSH bucketing: the engine's sign
    matrix is embedded as literals, components quantized by the same
    floor(x * 2^20) (exact in float64 both sides), dots summed as exact
    integers (list_sum → HUGEINT), candidates = any-table code equality,
    then the ann_topk cosine-rank recipe."""
    from record_matcher_ray.pipelines.similarity import lsh_sign_matrix

    n_tables, n_bits, dim, seed, k = 4, 6, 64, 0, 10
    signs = lsh_sign_matrix(dim, n_tables, n_bits, seed)

    def code_expr(t: int) -> str:
        terms = []
        for i in range(n_bits):
            lit = "[" + ",".join(str(int(s)) for s in signs[t, i]) + "]"
            dot = (
                f"list_sum(list_transform(list_zip(qv, {lit}), "
                f"z -> z[1] * z[2]))"
            )
            terms.append(f"CASE WHEN {dot} > 0 THEN {1 << i} ELSE 0 END")
        return "(" + " + ".join(terms) + ")"

    codes = ",\n                 ".join(
        f"{code_expr(t)} AS c{t}" for t in range(n_tables)
    )
    onexpr = " OR ".join(f"q.c{t} = v.c{t}" for t in range(n_tables))
    return f"""
        WITH qz AS (
          SELECT vec_id, embedding,
                 list_transform(embedding::DOUBLE[],
                                x -> CAST(floor(x * 1048576.0) AS BIGINT))
                   AS qv
          FROM embeddings
        ), codes AS (
          SELECT vec_id, embedding,
                 {codes}
          FROM qz
        ), cand AS (
          SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
                 list_cosine_similarity(q.embedding::DOUBLE[],
                                        v.embedding::DOUBLE[]) AS sim
          FROM codes q JOIN codes v ON ({onexpr})
          WHERE q.vec_id < 5
        ), ranked AS (
          SELECT query_id, vec_id, sim,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY sim DESC, vec_id) AS rnk
          FROM cand
        )
        SELECT query_id, vec_id, round(sim, 4) AS cos_sim
        FROM ranked WHERE rnk <= {k}
    """


def _q_embedding_near_dups(sf_dir: str):
    """Exact broadcast variant (full recall ⇒ SQL-hash comparable); the
    IVF multi-probe variant is the >1 M-row scale path, recall-tested in
    tests/test_operators.py. Threshold 0.35 because the synthetic
    embeddings have no true near-dups (max pairwise cos ≈ 0.51)."""

    from record_matcher_ray.pipelines.similarity import embedding_near_dups_exact

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_near_dups_exact(ds, threshold=0.35)


def _q_semantic_decontam(sf_dir: str):
    """Embedding-space decontamination: train = all embeddings, eval =
    every 5th vector; matches = cosine >= 0.9 (catches paraphrase-level
    leakage n-gram/MinHash decontam can't see). Eval matrix broadcast
    once, one zero-shuffle train pass."""

    from record_matcher_ray.pipelines.similarity import semantic_decontam

    def emb():
        return read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    ev = emb().filter(lambda r: r["vec_id"] % 5 == 0)
    return (
        semantic_decontam(emb(), ev, threshold=0.9)
        .to_pandas()
        .sort_values(["train_id", "eval_id"])
        .reset_index(drop=True)
    )


def _q_kmeans(sf_dir: str):
    """Distributed fixed-point k-means assignments over the embeddings
    table (k=8, 5 Lloyd iterations, deterministic hash init) — exact
    integer arithmetic end to end, bit-replayed by the DuckDB oracle."""

    from record_matcher_ray.pipelines.similarity import kmeans

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    _, assign = kmeans(ds, k=8, iters=5, seed=0)
    return assign.to_pandas().sort_values("vec_id").reset_index(drop=True)


def _q_centroid_cosine(sf_dir: str):
    """Pairwise cosine between per-label embedding centroids (exact
    integer sums; one division + two IEEE sqrts per pair)."""

    from record_matcher_ray.pipelines.similarity import label_centroid_cosine

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    return label_centroid_cosine(ds)


def _q_mutual_nn(sf_dir: str):
    """Mutual (reciprocal top-1) nearest neighbors under exact quantized
    cosine — the high-precision embedding-ER seed pairs."""

    from record_matcher_ray.pipelines.similarity import (
        mutual_nearest_neighbors,
    )

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return mutual_nearest_neighbors(ds)


def _q_davies_bouldin(sf_dir: str):
    """Clustering-quality eval: Davies-Bouldin (RMS form) over the
    fixed-point kmeans clusters of the embeddings table."""

    from record_matcher_ray.pipelines.similarity import davies_bouldin

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return davies_bouldin(ds, k=8, iters=5)


def _q_dbscan(sf_dir: str):
    """DBSCAN under cosine over the embeddings table (exact bounded
    variant): eps-sim 0.35, min_pts 3, canonical min-core-id labels."""

    from record_matcher_ray.pipelines.similarity import dbscan_embeddings

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return dbscan_embeddings(ds, eps_sim=0.35, min_pts=3)


def _q_quantize(sf_dir: str):
    """Per-vector symmetric int8 quantization of the embeddings table —
    pinned divide/round chain, list output."""

    from record_matcher_ray.pipelines.similarity import quantize_embeddings

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return quantize_embeddings(ds, bits=8)




def _q_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup (arXiv:2303.09540): fixed-point
    k-means buckets + within-bucket exact-cosine near-dup components,
    min-id representative per semantic copy group — clustering,
    predicate and components all bit-replayed by the oracle."""

    from record_matcher_ray.pipelines.similarity import semantic_dedup

    ds = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semantic_dedup(ds, k=8, iters=5, threshold=0.4)


def _semantic_dedup_oracle(threshold: float = 0.4,
                           qscale: int = 1 << 20) -> str:
    from record_matcher_ray.contract.sketches import _kmeans_oracle

    tail = f"""
        , asg AS (
          SELECT vec_id, cid AS cluster FROM (
            SELECT p.vec_id, c.cid,
                   row_number() OVER (PARTITION BY p.vec_id
                                      ORDER BY {{DIST}}, c.cid) AS rn
            FROM q p CROSS JOIN {{LAST}} c) WHERE rn = 1
        ), q2 AS (
          SELECT vec_id AS id, i AS dim,
                 CAST(floor((embedding[i])::DOUBLE * {float(qscale)!r}
                            + 0.5) AS HUGEINT) AS w
          FROM embeddings,
               unnest(generate_series(1, len(embedding))) AS u(i)
        ), nr AS (SELECT id, sum(w*w) AS nv FROM q2 GROUP BY id),
        d2 AS (
          SELECT a.id AS ia, b.id AS ib, sum(a.w * b.w) AS dot
          FROM q2 a JOIN q2 b ON a.dim = b.dim AND a.id < b.id
          JOIN asg xa ON xa.vec_id = a.id
          JOIN asg xb ON xb.vec_id = b.id AND xb.cluster = xa.cluster
          GROUP BY 1, 2
        ), e AS (
          SELECT ia, ib
          FROM d2 JOIN nr na ON na.id = d2.ia
                  JOIN nr nb ON nb.id = d2.ib
          WHERE na.nv > 0 AND nb.nv > 0
            AND (dot)::DOUBLE / (sqrt((na.nv)::DOUBLE)
                                 * sqrt((nb.nv)::DOUBLE))
                >= ({threshold!r})::DOUBLE
        ), sym AS (
          SELECT ia AS a, ib AS b FROM e UNION ALL SELECT ib, ia FROM e
        ), walk(node, r) AS (
          SELECT vec_id, vec_id FROM asg
          UNION
          SELECT w.node, sym.b FROM walk w JOIN sym ON sym.a = w.r
        ), lbl AS (SELECT node, min(r) AS rep FROM walk GROUP BY node)
        SELECT asg.vec_id, (asg.cluster)::BIGINT AS cluster,
               (lbl.rep)::BIGINT AS rep,
               (lbl.rep <> asg.vec_id) AS is_dup
        FROM asg JOIN lbl ON lbl.node = asg.vec_id
        ORDER BY asg.vec_id"""
    return _kmeans_oracle(tail=tail, recursive=True)


def queries():
    return {
        "ann_topk": _q_ann_topk,
        "lsh_topk": _q_lsh_topk,
        "embedding_near_dups": _q_embedding_near_dups,
        "kmeans_embeddings": _q_kmeans,
        "semantic_dedup_embeddings": _q_semantic_dedup,
        "semantic_decontam_embeddings": _q_semantic_decontam,
        "mutual_nn_embeddings": _q_mutual_nn,
        "dbscan_embeddings": _q_dbscan,
        "davies_bouldin_embeddings": _q_davies_bouldin,
        "centroid_cosine_embeddings": _q_centroid_cosine,
        "quantize_embeddings": _q_quantize,
    }


def oracles():
    return {
        "semantic_dedup_embeddings": _semantic_dedup_oracle(),
        "quantize_embeddings": """
            WITH t AS (
              SELECT vec_id,
                     list_transform(embedding, x -> x::DOUBLE) AS v
              FROM embeddings
            ), m AS (
              SELECT vec_id, v,
                     coalesce(list_max(list_transform(v, x -> abs(x))),
                              0.0) AS s
              FROM t
            )
            SELECT vec_id,
                   floor(s * 1000000000.0 + 0.5) / 1000000000.0 AS scale,
                   CASE WHEN s > 0 THEN
                     list_transform(v, x ->
                       (CASE WHEN x >= 0
                             THEN floor(x / s * 127.0 + 0.5)
                             ELSE -floor((-x) / s * 127.0 + 0.5)
                        END)::TINYINT)
                   ELSE list_transform(v, x -> 0::TINYINT)
                   END AS qvec
            FROM m
        """,
        "embedding_near_dups": """
            SELECT e1.vec_id AS a, e2.vec_id AS b,
                   round(list_cosine_similarity(e1.embedding::DOUBLE[],
                                                e2.embedding::DOUBLE[]), 6)
                     AS cos_sim
            FROM embeddings e1
            JOIN embeddings e2 ON e1.vec_id < e2.vec_id
            WHERE list_cosine_similarity(e1.embedding::DOUBLE[],
                                         e2.embedding::DOUBLE[]) >= 0.35
        """,
        "semantic_decontam_embeddings": """
            SELECT t.vec_id AS train_id, e.vec_id AS eval_id,
                   round(list_cosine_similarity(t.embedding::DOUBLE[],
                                                e.embedding::DOUBLE[]), 6)
                     AS cos_sim
            FROM embeddings t
            JOIN embeddings e ON e.vec_id % 5 = 0
            WHERE list_cosine_similarity(t.embedding::DOUBLE[],
                                         e.embedding::DOUBLE[]) >= 0.9
        """,
        "lsh_topk": _lsh_topk_oracle(),
        "ann_topk": """
            WITH sims AS (
              -- DOUBLE[] cast: DuckDB would otherwise compute in float32
              -- while the engine computes in float64
              SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
                     list_cosine_similarity(q.embedding::DOUBLE[],
                                            v.embedding::DOUBLE[]) AS sim
              FROM embeddings q, embeddings v
              WHERE q.vec_id < 5
            ), ranked AS (
              SELECT query_id, vec_id, sim,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id) AS rnk
              FROM sims
            )
            SELECT query_id, vec_id, round(sim, 4) AS cos_sim
            FROM ranked WHERE rnk <= 10
        """,
        "dbscan_embeddings": """
            WITH RECURSIVE q AS (
              SELECT vec_id AS id, i AS dim,
                     CAST(floor((embedding[i])::DOUBLE * 1048576.0 + 0.5)
                          AS HUGEINT) AS qv
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS u(i)
            ), nrm AS (SELECT id, sum(qv*qv) AS nv FROM q GROUP BY id),
            d AS (
              SELECT a.id AS ia, b.id AS ib, sum(a.qv * b.qv) AS dot
              FROM q a JOIN q b ON a.dim = b.dim AND a.id < b.id
              GROUP BY 1, 2
            ), e AS (
              SELECT ia, ib
              FROM d JOIN nrm na ON na.id = d.ia
                     JOIN nrm nb ON nb.id = d.ib
              WHERE na.nv > 0 AND nb.nv > 0
                AND (dot)::DOUBLE / (sqrt((na.nv)::DOUBLE)
                                     * sqrt((nb.nv)::DOUBLE))
                    >= (0.35)::DOUBLE
            ), sym AS (
              SELECT ia AS a, ib AS b FROM e
              UNION ALL SELECT ib, ia FROM e
            ), deg AS (
              SELECT a AS id, count(*) AS dg FROM sym GROUP BY a
            ), core AS (
              SELECT em.vec_id AS id
              FROM embeddings em LEFT JOIN deg ON deg.id = em.vec_id
              WHERE coalesce(deg.dg, 0) + 1 >= 3
            ), ce AS (
              SELECT s.a, s.b FROM sym s
              JOIN core ca ON ca.id = s.a JOIN core cb ON cb.id = s.b
            ), walk(node, r) AS (
              SELECT id, id FROM core
              UNION
              SELECT w.node, ce.a FROM walk w JOIN ce ON ce.b = w.r
            ), lbl AS (
              SELECT node, min(r) AS lab FROM walk GROUP BY node
            ), bord AS (
              SELECT s.a AS id, min(l.lab) AS lab
              FROM sym s JOIN core c ON c.id = s.b
                         JOIN lbl l ON l.node = s.b
              WHERE s.a NOT IN (SELECT id FROM core)
              GROUP BY s.a
            )
            SELECT em.vec_id AS vec_id,
                   (coalesce(cl.lab, bl.lab, -1))::BIGINT AS label,
                   (cl.node IS NOT NULL) AS is_core
            FROM embeddings em
            LEFT JOIN lbl cl ON cl.node = em.vec_id
            LEFT JOIN bord bl ON bl.id = em.vec_id
        """,
        "mutual_nn_embeddings": """
            WITH q AS (
              SELECT vec_id AS id, i AS dim,
                     CAST(floor((embedding[i])::DOUBLE * 1048576.0 + 0.5)
                          AS HUGEINT) AS qv
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS u(i)
            ), nrm AS (SELECT id, sum(qv*qv) AS nv FROM q GROUP BY id),
            d AS (
              SELECT a.id AS ia, b.id AS ib, sum(a.qv * b.qv) AS dot
              FROM q a JOIN q b ON a.dim = b.dim AND a.id <> b.id
              GROUP BY 1, 2
            ), c AS (
              SELECT ia, ib,
                     (dot)::DOUBLE / (sqrt((na.nv)::DOUBLE)
                                      * sqrt((nb.nv)::DOUBLE)) AS cs
              FROM d JOIN nrm na ON na.id = d.ia
                     JOIN nrm nb ON nb.id = d.ib
              WHERE na.nv > 0 AND nb.nv > 0
            ), best AS (
              SELECT ia, ib, cs,
                     row_number() OVER (PARTITION BY ia
                                        ORDER BY cs DESC, ib ASC) AS rn
              FROM c
            )
            SELECT a.ia AS x_id, a.ib AS y_id,
                   CASE WHEN a.cs >= 0 THEN floor(a.cs * 1e6 + 0.5) / 1e6
                        ELSE -floor(-a.cs * 1e6 + 0.5) / 1e6 END
                     AS cos_sim
            FROM best a JOIN best b
              ON a.rn = 1 AND b.rn = 1 AND a.ib = b.ia AND b.ib = a.ia
             AND a.ia < a.ib
        """,
        "centroid_cosine_embeddings": """
            WITH q AS (
              SELECT label, i AS dim,
                     CAST(floor((embedding[i])::DOUBLE * 1048576.0 + 0.5)
                          AS HUGEINT) AS qv
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS u(i)
            ), s AS (
              SELECT label, dim, sum(qv) AS sv FROM q GROUP BY label, dim
            ), d AS (
              SELECT a.label AS label_a, b.label AS label_b,
                     sum(a.sv * b.sv) AS dot
              FROM s a JOIN s b ON a.dim = b.dim AND a.label <= b.label
              GROUP BY 1, 2
            ), n AS (
              SELECT label, sum(sv * sv) AS nrm FROM s GROUP BY label
            ), x AS (
              SELECT d.label_a, d.label_b,
                     (d.dot)::DOUBLE / (sqrt((na.nrm)::DOUBLE)
                                        * sqrt((nb.nrm)::DOUBLE)) AS c
              FROM d
              JOIN n na ON na.label = d.label_a
              JOIN n nb ON nb.label = d.label_b
            )
            SELECT label_a, label_b,
                   CASE WHEN c >= 0 THEN floor(c * 1e6 + 0.5) / 1e6
                        ELSE -floor(-c * 1e6 + 0.5) / 1e6 END AS cos_sim
            FROM x
        """,
    }
