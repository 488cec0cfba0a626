"""Contract — entity-resolution toolbox (FS, edjoin, survivorship).

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_edjoin(sf_dir: str):
    """Exact edit-distance similarity self-join over part names (Ed-Join
    family: q-gram count-filter candidates + Myers bit-parallel verify +
    dup-group expansion) → (x_id, y_id, dist) for dist ≤ 2."""

    from record_matcher_ray.pipelines.linkage import edit_distance_self_join

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    return edit_distance_self_join(
        ds, "p_name", "p_partkey", max_dist=2, q=2
    )


def _q_fellegi_sunter(sf_dir: str):
    """Fellegi-Sunter probabilistic linkage over nation-blocked customer
    pairs, comparing (mktsegment, acctbal-band-of-100): u-probabilities
    from exact value-frequency sums of squares, log-likelihood weights,
    match/possible/nonmatch at (4.0, 0.0)."""
    import numpy as np

    from record_matcher_ray.pipelines.linkage import fellegi_sunter_link

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )

    def add_band(t):
        import numpy as np
        import pyarrow as pa

        b = np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) / 100.0
        ).astype(np.int64)
        return t.append_column("band", pa.array(b))

    return fellegi_sunter_link(
        ds.map_batches(add_band, batch_format="pyarrow"),
        "c_custkey",
        "c_nationkey",
        ["c_mktsegment", "band"],
        t_upper=4.0,
        t_lower=0.0,
    )


def _q_metablock(sf_dir: str):
    """Token blocking + meta-blocking with Weighted Edge Pruning over
    part (name, brand, type) tokens → candidate pairs with CBS weight
    strictly above the global mean weight."""

    from record_matcher_ray.pipelines.linkage import metablock_wep_pairs

    ds = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_brand", "p_type"],
    )
    return metablock_wep_pairs(
        ds, "p_partkey", ["p_name", "p_brand", "p_type"]
    )


def _q_band_join(sf_dir: str):
    """Numeric band self-join: order pairs within $10 of each other,
    grid-blocked with ±1-cell emission and exact IEEE verification."""

    from record_matcher_ray.pipelines.linkage import band_self_join

    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    return band_self_join(ds, "o_totalprice", "o_orderkey", 10.0)


def _q_golden_record(sf_dir: str):
    """End-to-end ER merge: edit-distance name pairs (d ≤ 1) →
    connected components → survivorship golden records (mode brand,
    max price, min size) — one canonical row per entity cluster."""

    from record_matcher_ray.pipelines.cluster import connected_components
    from record_matcher_ray.pipelines.joins import hash_join
    from record_matcher_ray.pipelines.linkage import (
        edit_distance_self_join,
        survivorship,
    )

    part = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_brand", "p_retailprice",
                 "p_size"],
    )
    pairs = edit_distance_self_join(
        part.select_columns(["p_partkey", "p_name"]),
        "p_name", "p_partkey", max_dist=1, q=2,
    )

    def as_edges(t):
        import pyarrow as pa

        return pa.table({"u": t["x_id"], "v": t["y_id"]})

    cc = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"), "u", "v"
    )
    lab = hash_join(part, cc, "p_partkey", "node", how="left")

    def fill(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        comp = pc.coalesce(
            pc.cast(t["component"], pa.int64()),
            pc.cast(t["p_partkey"], pa.int64()),
        )
        return t.drop_columns(["component"]).append_column("cluster", comp)

    lab = lab.map_batches(fill, batch_format="pyarrow")
    return survivorship(
        lab, "cluster",
        [("p_brand", "mode"), ("p_retailprice", "max"), ("p_size", "min")],
    )


def _q_blocking_quality(sf_dir: str):
    """Blocking evaluation: metablocking-WEP candidates vs exact-name
    truth pairs → reduction ratio / pairs completeness / pairs quality."""

    from record_matcher_ray.pipelines.linkage import (
        blocking_quality,
        edit_distance_self_join,
        metablock_wep_pairs,
    )

    part = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_brand", "p_type"],
    )
    cand = metablock_wep_pairs(
        part, "p_partkey", ["p_name", "p_brand", "p_type"]
    )
    truth = edit_distance_self_join(
        part.select_columns(["p_partkey", "p_name"]),
        "p_name", "p_partkey", max_dist=0, q=2,
    )
    return blocking_quality(cand, truth, part.count())


def _q_token_sort(sf_dir: str):
    """Token-sort Levenshtein similarity over distinct part-name pairs
    sharing a token — the distributed form of the registered
    token_sort_ratio scorer."""

    from record_matcher_ray.pipelines.linkage import (
        token_sort_similarity_pairs,
    )

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_name"]
    )
    return token_sort_similarity_pairs(ds, "p_name")


def _q_compare_vectors(sf_dir: str):
    """ER comparison vectors over nation-blocked customer pairs:
    name Levenshtein similarity, segment equality, balance |Δ| — the
    feature-generation step a linkage classifier consumes."""

    from record_matcher_ray.pipelines.linkage import compare_vectors

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )
    return compare_vectors(
        ds, "c_custkey", "c_nationkey",
        [("c_name", "lev"), ("c_mktsegment", "exact"),
         ("c_acctbal", "absdiff")],
    )


def _q_jw_prefix(sf_dir: str):
    """Prefix-blocked Jaro-Winkler self-join over distinct part names
    (jw ≥ 75 within 2-char-prefix blocks)."""

    from record_matcher_ray.pipelines.linkage import jw_prefix_join

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_name"]
    )
    return jw_prefix_join(ds, "p_name", threshold=75.0, prefix_len=2)


def _q_er_pipeline(sf_dir: str):
    """The full ER pipeline in one composition: nation blocking →
    Fellegi-Sunter classification → connected components over 'match'
    edges → survivorship golden records (mode segment, max balance).
    Every stage is the already-oracle-pinned operator; the SQL replay
    chains the same algebra end to end."""

    from record_matcher_ray.pipelines.cluster import connected_components
    from record_matcher_ray.pipelines.joins import hash_join
    from record_matcher_ray.pipelines.linkage import (
        fellegi_sunter_link,
        survivorship,
    )

    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )

    def add_band(t):
        import numpy as np
        import pyarrow as pa

        b = np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) / 100.0
        ).astype(np.int64)
        return t.append_column("band", pa.array(b))

    fs = fellegi_sunter_link(
        cust.map_batches(add_band, batch_format="pyarrow"),
        "c_custkey", "c_nationkey", ["c_mktsegment", "band"],
        t_upper=4.0, t_lower=0.0,
    )

    def match_edges(t):
        import pyarrow as pa
        import pyarrow.compute as _pc

        m = t.filter(_pc.equal(t["decision"], "match"))
        return pa.table({"u": m["x_id"], "v": m["y_id"]})

    cc = connected_components(
        fs.map_batches(match_edges, batch_format="pyarrow"), "u", "v"
    )
    lab = hash_join(
        cust.select_columns(["c_custkey", "c_mktsegment", "c_acctbal"]),
        cc, "c_custkey", "node", how="left",
    )

    def fill(t):
        import pyarrow as pa
        import pyarrow.compute as _pc

        comp = _pc.coalesce(
            _pc.cast(t["component"], pa.int64()),
            _pc.cast(t["c_custkey"], pa.int64()),
        )
        return t.drop_columns(["component"]).append_column("cluster", comp)

    return survivorship(
        lab.map_batches(fill, batch_format="pyarrow"),
        "cluster",
        [("c_mktsegment", "mode"), ("c_acctbal", "max")],
    )


def _q_soft_tfidf(sf_dir: str):
    """SoftTFIDF similarity join over distinct part names (2-char
    prefix blocks, token-JW theta 90, score threshold 40)."""

    from record_matcher_ray.pipelines.linkage import soft_tfidf_join

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_name"]
    )
    return soft_tfidf_join(ds, "p_name", theta=90.0, threshold=40.0,
                           prefix_len=2)


def _q_canopy(sf_dir: str):
    """Canopy blocking over distinct part names: token-set Jaccard,
    loose 0.34 / tight 0.75, ascending-name center order."""

    from record_matcher_ray.pipelines.linkage import canopy_clusters

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_name"]
    )
    return canopy_clusters(ds, "p_name", t_loose=0.34, t_tight=0.75)


def _q_match_1to1(sf_dir: str):
    """One-to-one assignment over the prefix-blocked Jaro-Winkler pair
    stream: local-max (mutual-best) rounds, each part name matched at
    most once."""

    from record_matcher_ray.pipelines.linkage import (
        greedy_max_matching,
        jw_prefix_join,
    )

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_name"]
    )
    pairs = jw_prefix_join(ds, "p_name", threshold=75.0, prefix_len=2)
    return greedy_max_matching(pairs, "name_a", "name_b", "jw_sim",
                               rounds=3)


def _match_1to1_oracle(rounds: int = 3) -> str:
    """Replay of linkage.greedy_max_matching over the jw_prefix_part
    pair stream: per round, nominations via row_number (score desc,
    partner asc), mutual edges matched, touched nodes filtered."""
    sql = ["""
        WITH v AS (
          SELECT DISTINCT p_name AS name FROM part
          WHERE length(p_name) >= 2
        ), e0 AS (
          SELECT * FROM (
            SELECT a.name AS name_a, b.name AS name_b,
                   round(100.0 * jaro_winkler_similarity(a.name, b.name),
                         6) AS jw_sim
            FROM v a JOIN v b
              ON substr(a.name, 1, 2) = substr(b.name, 1, 2)
             AND a.name < b.name
          ) WHERE jw_sim >= (75.0)::DOUBLE
        )"""]
    for i in range(1, rounds + 1):
        sql.append(f""",
        n{i} AS (
          SELECT name_a, name_b, jw_sim FROM (
            SELECT name_a, name_b, jw_sim,
                   row_number() OVER (
                     PARTITION BY node
                     ORDER BY jw_sim DESC, other ASC
                   ) AS rn
            FROM (
              SELECT name_a AS node, name_b AS other,
                     name_a, name_b, jw_sim FROM e{i - 1}
              UNION ALL
              SELECT name_b AS node, name_a AS other,
                     name_a, name_b, jw_sim FROM e{i - 1}
            )
          ) WHERE rn = 1
        ),
        m{i} AS (
          SELECT name_a, name_b, min(jw_sim) AS jw_sim,
                 ({i})::BIGINT AS rnd
          FROM n{i} GROUP BY name_a, name_b HAVING count(*) = 2
        ),
        t{i} AS (
          SELECT name_a AS nd FROM m{i}
          UNION ALL SELECT name_b FROM m{i}
        ),
        e{i} AS (
          SELECT * FROM e{i - 1}
          WHERE name_a NOT IN (SELECT nd FROM t{i})
            AND name_b NOT IN (SELECT nd FROM t{i})
        )""")
    union = "\n          UNION ALL ".join(
        f"SELECT name_a, name_b, jw_sim, rnd FROM m{i}"
        for i in range(1, rounds + 1)
    )
    sql.append(f"""
        {union}
    """)
    return "".join(sql)


def _q_merge_report(sf_dir: str):
    """Survivorship audit: same edjoin->CC clusters as
    golden_record_part, reporting per-cluster distinct-value conflicts
    in (brand, size, retailprice)."""

    from record_matcher_ray.pipelines.cluster import connected_components
    from record_matcher_ray.pipelines.joins import hash_join
    from record_matcher_ray.pipelines.linkage import (
        edit_distance_self_join,
        merge_conflict_report,
    )

    part = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_brand", "p_retailprice",
                 "p_size"],
    )
    pairs = edit_distance_self_join(
        part.select_columns(["p_partkey", "p_name"]),
        "p_name", "p_partkey", max_dist=1, q=2,
    )

    def as_edges(t):
        import pyarrow as pa

        return pa.table({"u": t["x_id"], "v": t["y_id"]})

    cc = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"), "u", "v"
    )
    lab = hash_join(part, cc, "p_partkey", "node", how="left")

    def fill(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        comp = pc.coalesce(
            pc.cast(t["component"], pa.int64()),
            pc.cast(t["p_partkey"], pa.int64()),
        )
        return t.drop_columns(["component"]).append_column("cluster", comp)

    lab = lab.map_batches(fill, batch_format="pyarrow")
    return merge_conflict_report(
        lab, "cluster", ["p_brand", "p_size", "p_retailprice"]
    )


def _q_monge_elkan(sf_dir: str):
    """Monge-Elkan hybrid token-level fuzzy join over brand-blocked
    part names (symmetric mean of per-token best Jaro-Winkler)."""

    from record_matcher_ray.pipelines.linkage import monge_elkan_join

    ds = read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_name"],
    )
    return monge_elkan_join(
        ds, "p_name", "p_partkey", "p_brand", threshold=90.0
    )


def _q_fs_tf(sf_dir: str):
    """TF-adjusted Fellegi-Sunter (Splink-style tf_adjustments): rare-
    value agreements outscore common ones via per-value u = (c_v/N)^2;
    same blocking/fields/thresholds as fs_score_customer."""

    from record_matcher_ray.pipelines.linkage import fellegi_sunter_link_tf

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )

    def add_band(t):
        import numpy as np
        import pyarrow as pa

        b = np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) / 100.0
        ).astype(np.int64)
        return t.append_column("band", pa.array(b))

    return fellegi_sunter_link_tf(
        ds.map_batches(add_band, batch_format="pyarrow"),
        "c_custkey", "c_nationkey", ["c_mktsegment", "band"],
        t_upper=4.0, t_lower=0.0,
    )


def _q_linkage_eval(sf_dir: str):
    """Pairwise P/R/F1 of the Fellegi-Sunter linker (t_upper=2.0, so
    band-agreement alone clears the bar) against same-(nation, segment)
    truth pairs — the BASELINE.md pairwise-F1 readout as an operator."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from record_matcher_ray.pipelines.linkage import (
        fellegi_sunter_link,
        pairwise_eval,
    )

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )

    def add_band(t):
        import numpy as np

        b = np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) / 100.0
        ).astype(np.int64)
        return t.append_column("band", pa.array(b))

    banded = ds.map_batches(add_band, batch_format="pyarrow")
    scored = fellegi_sunter_link(
        banded, "c_custkey", "c_nationkey", ["c_mktsegment", "band"],
        t_upper=2.0, t_lower=0.0,
    )

    def match_pairs(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(t["decision"], "match"))
        return pa.table({"a": sub["x_id"], "b": sub["y_id"]})

    pred = scored.map_batches(match_pairs, batch_format="pyarrow")

    # truth: same (nation, segment) pairs via the exact-equality join
    def add_key(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(t["c_nationkey"], pa.string()),
            pc.cast(t["c_mktsegment"], pa.string()), "|",
        )
        return pa.table({"c_custkey": t["c_custkey"], "key": key})

    from record_matcher_ray.pipelines.linkage import (
        edit_distance_self_join,
    )

    truth = edit_distance_self_join(
        ds.map_batches(add_key, batch_format="pyarrow"),
        "key", "c_custkey", max_dist=0,
    ).map_batches(
        lambda t: pa.table({"a": t["x_id"], "b": t["y_id"]}),
        batch_format="pyarrow",
    )
    return pairwise_eval(pred, truth)


def _q_em_fs(sf_dir: str):
    """Unsupervised Fellegi-Sunter parameter estimation (Winkler/Splink
    EM) over nation-blocked customer pairs: agreement-pattern counts on
    (mktsegment, acctbal-band-100) -> 15 EM iterations -> per-pattern
    match posterior."""

    from record_matcher_ray.pipelines.linkage import em_fellegi_sunter

    ds = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"]
    )

    def add_band(t):
        import numpy as np
        import pyarrow as pa

        b = np.floor(
            t["c_acctbal"].to_numpy(zero_copy_only=False) / 100.0
        ).astype(np.int64)
        return t.append_column("band", pa.array(b))

    return em_fellegi_sunter(
        ds.map_batches(add_band, batch_format="pyarrow"),
        "c_custkey",
        "c_nationkey",
        ["c_mktsegment", "band"],
        n_iter=15,
    )


def _em_fs_oracle(n_iter: int = 15) -> str:
    """Chained-CTE DuckDB replay of em_fellegi_sunter on customer
    (fields f1=mktsegment, f2=acctbal-band-100, block=nation): pattern
    counts from the block self-join, then every EM iteration as one
    (r{i}, s{i}, it{i}) CTE triple — per-pattern likelihoods as the
    SAME left-nested products, sums as ascending-pattern list_reduce
    folds, identical clamps. Pinned-order IEEE doubles both sides."""
    k = 2
    ONE = "(1.0)::DOUBLE"

    def am_expr(it: str, kind: str) -> str:
        lead = f"{it}.lam" if kind == "m" else f"({ONE} - {it}.lam)"
        e = lead
        for f in range(1, k + 1):
            p = f"{it}.{kind}{f}"
            e = (f"({e} * CASE WHEN (pattern & {1 << (f - 1)}) = "
                 f"{1 << (f - 1)} THEN {p} ELSE {ONE} - {p} END)")
        return e

    fold = "(x, y) -> x + y"
    r_term = "(c)::DOUBLE * (am / (am + au))"
    t_term = f"(c)::DOUBLE * ({ONE} - am / (am + au))"
    parts = [f"""
        WITH f AS (
          SELECT c_custkey AS id, c_nationkey AS blk,
                 c_mktsegment AS f1,
                 CAST(floor(c_acctbal / (100.0)::DOUBLE) AS BIGINT) AS f2
          FROM customer
        ), pcn AS (
          SELECT (CASE WHEN a.f1 IS NOT NULL AND a.f1 = b.f1
                       THEN 1 ELSE 0 END)
               + (CASE WHEN a.f2 IS NOT NULL AND a.f2 = b.f2
                       THEN 2 ELSE 0 END) AS pattern,
                 count(*)::BIGINT AS c
          FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id
          GROUP BY 1
        ), nt AS (SELECT (sum(c))::DOUBLE AS n FROM pcn),
        it0 AS (
          SELECT (0.1)::DOUBLE AS lam,
                 (0.9)::DOUBLE AS m1, (0.9)::DOUBLE AS m2,
                 (0.1)::DOUBLE AS u1, (0.1)::DOUBLE AS u2
        )"""]
    clamp = (lambda x: f"least(greatest({x}, (1e-9)::DOUBLE), "
                       f"{ONE} - (1e-9)::DOUBLE)")
    for i in range(1, n_iter + 1):
        p = f"it{i - 1}"
        sm_cols = []
        upd_cols = []
        for f in range(1, k + 1):
            bit = 1 << (f - 1)
            case_m = (f"CASE WHEN (pattern & {bit}) = {bit} "
                      f"THEN {r_term} ELSE (0.0)::DOUBLE END")
            case_u = (f"CASE WHEN (pattern & {bit}) = {bit} "
                      f"THEN {t_term} ELSE (0.0)::DOUBLE END")
            sm_cols.append(
                f"list_reduce(list({case_m} ORDER BY pattern), {fold})"
                f" AS sm{f},\n            "
                f"list_reduce(list({case_u} ORDER BY pattern), {fold})"
                f" AS su{f}"
            )
            upd_cols.append(
                f"{clamp(f's.sm{f} / s.S')} AS m{f},\n            "
                f"{clamp(f's.su{f} / s.T')} AS u{f}"
            )
        parts.append(f""", r{i} AS (
          SELECT pattern, c,
                 {am_expr(p, 'm')} AS am,
                 {am_expr(p, 'u')} AS au
          FROM pcn, {p}
        ), s{i} AS (
          SELECT
            list_reduce(list({r_term} ORDER BY pattern), {fold}) AS S,
            list_reduce(list({t_term} ORDER BY pattern), {fold}) AS T,
            {','.join(sm_cols)}
          FROM r{i}
        ), it{i} AS (
          SELECT {clamp('s.S / nt.n')} AS lam,
            {','.join(upd_cols)}
          FROM s{i} s, nt
        )""")
    parts.append(f""", fin AS (
          SELECT pattern, c,
                 {am_expr(f'it{n_iter}', 'm')} AS am,
                 {am_expr(f'it{n_iter}', 'u')} AS au
          FROM pcn, it{n_iter}
        )
        SELECT (pattern)::BIGINT AS pattern, c AS n_pairs,
               floor((am / (am + au)) * 1000000000.0 + 0.5)
                 / 1000000000.0 AS posterior
        FROM fin""")
    return "".join(parts)


def _q_snm(sf_dir: str):
    """Sorted-neighborhood blocking over part names: candidate pairs
    within a window-8 slide of the (p_name, p_partkey) sort order."""

    from record_matcher_ray.pipelines.linkage import (
        sorted_neighborhood_pairs,
    )

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    return sorted_neighborhood_pairs(ds, ["p_name"], "p_partkey", window=8)


def _q_auc(sf_dir: str):
    """ROC AUC of l_extendedprice as a predictor of returnflag='R' —
    the rank-sum identity with half-credit ties, exact-integer partials
    and ONE double division."""
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.linkage import auc_score

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_returnflag"],
    )

    def lab(t: pa.Table) -> pa.Table:
        return pa.table({
            "s": t["l_extendedprice"],
            "lab": pc.cast(pc.equal(t["l_returnflag"], "R"), pa.int64()),
        })

    return auc_score(ds.map_batches(lab, batch_format="pyarrow"),
                     "s", "lab")


def _q_bcubed(sf_dir: str):
    """B-cubed extrinsic clustering eval: market segment as the predicted
    clustering of customers vs nation as truth — per-record overlap
    credit, pinned-order fold parity."""

    from record_matcher_ray.pipelines.linkage import bcubed_eval

    ds = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_mktsegment", "c_nationkey"],
    )
    return bcubed_eval(ds, "c_mktsegment", "c_nationkey")




def _q_blocking_sweep(sf_dir: str):
    """Blocking-scheme selection: four candidate key sets over customer
    ranked by reduction ratio / pairs completeness / pairs quality
    against a deterministic (nation, segment, |balance diff|<100) truth
    — n_cand counted from group sizes, never materialized."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from record_matcher_ray.pipelines.linkage import blocking_scheme_sweep

    ds = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_mktsegment", "c_acctbal"],
    )

    def prep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        bal = t["c_acctbal"].to_numpy()
        return pa.table({
            "id": pc.cast(t["c_custkey"], pa.int64()),
            "nation": pc.cast(t["c_nationkey"], pa.int64()),
            "seg": pc.cast(t["c_mktsegment"], pa.string()),
            "band": pa.array(np.floor(bal / 1000.0).astype(np.int64)),
            "bal": pa.array(bal.astype(np.float64)),
        })

    recs = ds.map_batches(prep, batch_format="pyarrow").materialize()
    # deterministic pseudo-truth: same (nation, segment), balances
    # within 100 — built driver-side at fixture scale
    df = recs.to_pandas()
    m = df.merge(df, on=["nation", "seg"], suffixes=("_a", "_b"))
    m = m[(m.id_a < m.id_b)
          & ((m.bal_a - m.bal_b).abs() < 100.0)]
    truth = ray.data.from_pandas(pd.DataFrame({
        "x_id": m.id_a.to_numpy(np.int64),
        "y_id": m.id_b.to_numpy(np.int64),
    }))
    return blocking_scheme_sweep(
        recs,
        {"nation": ["nation"], "segment": ["seg"],
         "nation_segment": ["nation", "seg"], "balance_band": ["band"]},
        truth, "id",
    )


_BLOCK_SWEEP_SQL = """
    WITH c AS (
      SELECT (c_custkey)::BIGINT AS id, (c_nationkey)::BIGINT AS nation,
             c_mktsegment AS seg,
             CAST(floor((c_acctbal)::DOUBLE / 1000.0) AS BIGINT) AS band,
             (c_acctbal)::DOUBLE AS bal
      FROM customer
    ), nrec AS (SELECT count(*)::HUGEINT AS n FROM c),
    truth AS (
      SELECT a.id AS x, b.id AS y
      FROM c a JOIN c b
        ON a.id < b.id AND a.nation = b.nation AND a.seg = b.seg
       AND abs(a.bal - b.bal) < (100.0)::DOUBLE
    ), nt AS (SELECT count(*)::BIGINT AS v FROM truth),
    g1 AS (SELECT count(*)::HUGEINT AS m FROM c GROUP BY nation),
    g2 AS (SELECT count(*)::HUGEINT AS m FROM c GROUP BY seg),
    g3 AS (SELECT count(*)::HUGEINT AS m FROM c GROUP BY nation, seg),
    g4 AS (SELECT count(*)::HUGEINT AS m FROM c GROUP BY band),
    raw AS (
      SELECT 'nation' AS scheme,
             (SELECT sum(m*(m-1)//2) FROM g1) AS nc,
             (SELECT count(*) FROM truth t
              JOIN c a ON a.id = t.x JOIN c b ON b.id = t.y
              WHERE a.nation = b.nation) AS nh
      UNION ALL
      SELECT 'segment',
             (SELECT sum(m*(m-1)//2) FROM g2),
             (SELECT count(*) FROM truth t
              JOIN c a ON a.id = t.x JOIN c b ON b.id = t.y
              WHERE a.seg = b.seg)
      UNION ALL
      SELECT 'nation_segment',
             (SELECT sum(m*(m-1)//2) FROM g3),
             (SELECT count(*) FROM truth t
              JOIN c a ON a.id = t.x JOIN c b ON b.id = t.y
              WHERE a.nation = b.nation AND a.seg = b.seg)
      UNION ALL
      SELECT 'balance_band',
             (SELECT sum(m*(m-1)//2) FROM g4),
             (SELECT count(*) FROM truth t
              JOIN c a ON a.id = t.x JOIN c b ON b.id = t.y
              WHERE a.band = b.band)
    )
    SELECT scheme, (nc)::BIGINT AS n_cand,
           (SELECT v FROM nt) AS n_truth, (nh)::BIGINT AS n_hit,
           floor((1.0 - (nc)::DOUBLE
                  / (((SELECT n FROM nrec) * ((SELECT n FROM nrec) - 1)
                      // 2))::DOUBLE) * 1000000.0 + 0.5) / 1000000.0
             AS reduction_ratio,
           floor(((nh)::DOUBLE / ((SELECT v FROM nt))::DOUBLE)
                 * 1000000.0 + 0.5) / 1000000.0 AS pairs_completeness,
           floor(((nh)::DOUBLE / (nc)::DOUBLE) * 1000000.0 + 0.5)
             / 1000000.0 AS pairs_quality
    FROM raw ORDER BY scheme
"""




_FS_SCORE_SQL = """
            WITH f AS (
              SELECT c_custkey AS id, c_nationkey AS blk,
                     c_mktsegment AS f1,
                     CAST(floor(c_acctbal / (100.0)::DOUBLE) AS BIGINT)
                       AS f2
              FROM customer
            ), nn AS (SELECT count(*) AS n FROM f),
            u1 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f1 IS NOT NULL GROUP BY f1)
            ), u2 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f2 IS NOT NULL GROUP BY f2)
            ), uv AS (
              SELECT (u1.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u1v,
                     (u2.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u2v
              FROM u1, u2, nn
            ), w AS (
              SELECT ln((0.9)::DOUBLE) - ln(u1v) AS wa1,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u1v) AS wd1,
                     ln((0.9)::DOUBLE) - ln(u2v) AS wa2,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u2v) AS wd2
              FROM uv
            ), s AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     (CASE WHEN a.f1 IS NOT NULL AND a.f1 = b.f1
                           THEN w.wa1 ELSE w.wd1 END)
                     + (CASE WHEN a.f2 IS NOT NULL AND a.f2 = b.f2
                             THEN w.wa2 ELSE w.wd2 END) AS sc
              FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id, w
            )
            SELECT x_id, y_id,
                   CASE WHEN sc >= 0 THEN floor(sc * 1e6 + 0.5) / 1e6
                        ELSE -floor(-sc * 1e6 + 0.5) / 1e6 END AS score,
                   CASE WHEN sc >= (4.0)::DOUBLE THEN 'match'
                        WHEN sc >= (0.0)::DOUBLE THEN 'possible'
                        ELSE 'nonmatch' END AS decision
            FROM s
        """


def _q_uncertainty(sf_dir: str):
    """Active-learning review queue: the 200 FS-scored customer pairs
    closest to the match threshold (4.0) — the pairs a labeler sees
    next; pinned (gap, x, y) order replays exactly."""
    from record_matcher_ray.pipelines.linkage import uncertainty_sample

    return uncertainty_sample(
        _q_fellegi_sunter(sf_dir), k=200, threshold=4.0
    )


def _uncertainty_sql() -> str:
    base = _FS_SCORE_SQL
    return f"""
    WITH base AS ({base})
    SELECT x_id, y_id, score, decision,
           floor(abs(score - (4.0)::DOUBLE) * 1000000.0 + 0.5)
             / 1000000.0 AS gap
    FROM base
    ORDER BY gap, x_id, y_id LIMIT 200
    """


def queries():
    return {
        "uncertainty_sample_customer": _q_uncertainty,
        "blocking_sweep_customer": _q_blocking_sweep,
        "edjoin_part": _q_edjoin,
        "fs_score_customer": _q_fellegi_sunter,
        "metablock_part": _q_metablock,
        "em_fs_customer": _q_em_fs,
        "linkage_eval_customer": _q_linkage_eval,
        "fs_tf_customer": _q_fs_tf,
        "monge_elkan_part": _q_monge_elkan,
        "merge_report_part": _q_merge_report,
        "match_1to1_part": _q_match_1to1,
        "canopy_part": _q_canopy,
        "soft_tfidf_part": _q_soft_tfidf,
        "band_join_orders": _q_band_join,
        "golden_record_part": _q_golden_record,
        "blocking_quality_part": _q_blocking_quality,
        "token_sort_part": _q_token_sort,
        "compare_vectors_customer": _q_compare_vectors,
        "jw_prefix_part": _q_jw_prefix,
        "er_pipeline_customer": _q_er_pipeline,
        "snm_part": _q_snm,
        "auc_lineitem": _q_auc,
        "bcubed_customer": _q_bcubed,
    }


def oracles():
    return {
        "uncertainty_sample_customer": _uncertainty_sql(),
        "blocking_sweep_customer": _BLOCK_SWEEP_SQL,
        "bcubed_customer": """
            WITH cells AS (
              SELECT c_mktsegment AS p, c_nationkey AS t,
                     count(*)::HUGEINT AS c
              FROM customer GROUP BY 1, 2
            ),
            tot AS (SELECT sum(c)::HUGEINT AS n FROM cells),
            pt AS (
              SELECT p, (sum(c * c)::DOUBLE) / (sum(c)::DOUBLE) AS term
              FROM cells GROUP BY p
            ),
            tt AS (
              SELECT t, (sum(c * c)::DOUBLE) / (sum(c)::DOUBLE) AS term
              FROM cells GROUP BY t
            ),
            pr AS (SELECT list_reduce(list(term ORDER BY p),
                                      (a, b) -> a + b) AS s FROM pt),
            rc AS (SELECT list_reduce(list(term ORDER BY t),
                                      (a, b) -> a + b) AS s FROM tt)
            SELECT n::BIGINT AS n,
                   floor(pr.s / (n::DOUBLE) * 1000000.0 + 0.5)
                     / 1000000.0 AS b3_precision,
                   floor(rc.s / (n::DOUBLE) * 1000000.0 + 0.5)
                     / 1000000.0 AS b3_recall,
                   floor(2.0 * (pr.s / (n::DOUBLE)) * (rc.s / (n::DOUBLE))
                         / (pr.s / (n::DOUBLE) + rc.s / (n::DOUBLE))
                         * 1000000.0 + 0.5) / 1000000.0 AS b3_f1
            FROM tot, pr, rc
        """,
        "snm_part": """
            WITH r AS (
              SELECT p_partkey,
                     row_number() OVER (ORDER BY p_name, p_partkey) AS rn
              FROM part
            )
            SELECT a.p_partkey AS x_id, b.p_partkey AS y_id,
                   (b.rn - a.rn)::BIGINT AS gap
            FROM r a JOIN r b
              ON b.rn > a.rn AND b.rn < a.rn + 8
        """,
        "auc_lineitem": """
            WITH t AS (
              SELECT (floor(l_extendedprice * 100.0 + 0.5))::BIGINT AS q,
                     (CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS lab
              FROM lineitem
            ),
            c AS (
              SELECT q, sum(lab)::HUGEINT AS pos,
                     sum(1 - lab)::HUGEINT AS neg
              FROM t GROUP BY q
            ),
            w AS (
              SELECT q, pos, neg,
                     coalesce(sum(neg) OVER (ORDER BY q
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                       0)::HUGEINT AS nb
              FROM c
            ),
            s AS (
              SELECT sum(pos)::HUGEINT AS p,
                     sum(neg)::HUGEINT AS nn,
                     sum(pos * (2 * nb + neg))::HUGEINT AS num2
              FROM w
            )
            SELECT (p + nn)::BIGINT AS n, p::BIGINT AS n_pos,
                   nn::BIGINT AS n_neg,
                   floor((num2::DOUBLE) / ((2 * p * nn)::DOUBLE)
                         * 1000000.0 + 0.5) / 1000000.0 AS auc
            FROM s
        """,
        "edjoin_part": """
            WITH c AS (
              SELECT a.p_partkey AS x_id, b.p_partkey AS y_id,
                     levenshtein(a.p_name, b.p_name) AS d
              FROM part a JOIN part b
                ON a.p_partkey < b.p_partkey
               AND abs(length(a.p_name) - length(b.p_name)) <= 2
            )
            SELECT x_id, y_id, (d)::BIGINT AS dist FROM c WHERE d <= 2
        """,
        "fs_score_customer": _FS_SCORE_SQL,
        "em_fs_customer": _em_fs_oracle(n_iter=15),
        "match_1to1_part": _match_1to1_oracle(rounds=3),
        "soft_tfidf_part": """
            WITH v AS (
              SELECT DISTINCT p_name AS name FROM part
              WHERE p_name IS NOT NULL AND length(p_name) >= 2
            ), nv AS (
              SELECT count(*)::BIGINT AS n FROM v
            ), tk AS (
              SELECT name,
                     (list_sort(list_distinct(list_filter(
                        string_split(regexp_replace(lower(name),
                                                    '[^a-z0-9]+', ' ',
                                                    'g'), ' '),
                        x -> x <> ''))))[1:16] AS toks
              FROM v
            ), tok AS (
              SELECT name, unnest(toks) AS w FROM tk
            ), df AS (
              SELECT w, count(*)::BIGINT AS df FROM tok GROUP BY w
            ), idf AS (
              SELECT w, ln((1.0)::DOUBLE
                           + (SELECT n FROM nv)::DOUBLE
                             / (df)::DOUBLE) AS idf
              FROM df
            ), wt AS (
              SELECT t.name, t.w, i.idf FROM tok t JOIN idf i USING (w)
            ), nrm AS (
              SELECT name,
                     sqrt(list_reduce(
                       list_prepend((0.0)::DOUBLE,
                                    list(idf * idf ORDER BY w)),
                       (s, x) -> s + x)) AS nrm
              FROM wt GROUP BY name
            ), p AS (
              SELECT a.name AS name_a, b.name AS name_b
              FROM v a JOIN v b
                ON substr(a.name, 1, 2) = substr(b.name, 1, 2)
               AND a.name < b.name
            ), cx AS (
              SELECT p.name_a, p.name_b, wa.w, wa.idf AS idf_a,
                     wb.w AS u, wb.idf AS idf_b,
                     round(100.0 * jaro_winkler_similarity(wa.w, wb.w),
                           6) AS jw
              FROM p
              JOIN wt wa ON wa.name = p.name_a
              JOIN wt wb ON wb.name = p.name_b
            ), best AS (
              SELECT name_a, name_b, w, idf_a, idf_b, jw FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY name_a, name_b, w
                  ORDER BY jw DESC, u ASC) AS rn
                FROM cx
              ) WHERE rn = 1
            ), co AS (
              SELECT b.name_a, b.name_b, b.w,
                     CASE WHEN b.jw >= (90.0)::DOUBLE
                          THEN b.idf_a / na.nrm * (b.idf_b / nb.nrm)
                               * (b.jw / (100.0)::DOUBLE)
                          ELSE (0.0)::DOUBLE END AS c
              FROM best b
              JOIN nrm na ON na.name = b.name_a
              JOIN nrm nb ON nb.name = b.name_b
            ), sc AS (
              SELECT name_a, name_b,
                     list_reduce(
                       list_prepend((0.0)::DOUBLE,
                                    list(c ORDER BY w)),
                       (s, x) -> s + x) * (100.0)::DOUBLE AS s
              FROM co GROUP BY name_a, name_b
            )
            SELECT name_a, name_b,
                   floor(s * 1000000.0 + 0.5) / 1000000.0 AS st_sim
            FROM sc
            WHERE floor(s * 1000000.0 + 0.5) / 1000000.0
                  >= (40.0)::DOUBLE
        """,
        "canopy_part": """
            WITH RECURSIVE base AS (
              SELECT name,
                     list_sort(list_distinct(string_split(name, ' ')))
                       AS toks
              FROM (SELECT DISTINCT p_name AS name FROM part
                    WHERE p_name IS NOT NULL)
            ),
            rt(elem, toks, ctr, member, remaining) AS (
              SELECT name, toks, NULL::VARCHAR, false, true FROM base
              UNION ALL
              SELECT elem, toks, ctr,
                     (len(list_intersect(toks, ctoks)))::DOUBLE
                       / (len(list_distinct(toks || ctoks)))::DOUBLE
                       >= (0.34)::DOUBLE,
                     (len(list_intersect(toks, ctoks)))::DOUBLE
                       / (len(list_distinct(toks || ctoks)))::DOUBLE
                       < (0.75)::DOUBLE
              FROM (
                SELECT elem, toks,
                       first_value(elem) OVER (ORDER BY elem) AS ctr,
                       first_value(toks) OVER (ORDER BY elem) AS ctoks
                FROM rt WHERE remaining
              )
            )
            SELECT elem AS value, ctr AS center FROM rt WHERE member
        """,
        "merge_report_part": """
            WITH RECURSIVE c AS (
              SELECT a.p_partkey AS u, b.p_partkey AS v
              FROM part a JOIN part b
                ON a.p_partkey < b.p_partkey
               AND abs(length(a.p_name) - length(b.p_name)) <= 1
               AND levenshtein(a.p_name, b.p_name) <= 1
            ), e AS (
              SELECT u AS a, v AS b FROM c
              UNION ALL SELECT v, u FROM c
            ), walk(node, r) AS (
              SELECT p_partkey, p_partkey FROM part
              UNION
              SELECT w.node, e.a FROM walk w JOIN e ON e.b = w.r
            ), comp AS (
              SELECT node, min(r) AS cluster FROM walk GROUP BY node
            ), lab AS (
              SELECT p.*, comp.cluster FROM part p
              JOIN comp ON comp.node = p.p_partkey
            ), rep AS (
              SELECT cluster, count(*)::BIGINT AS n_members,
                     count(DISTINCT p_brand)::BIGINT AS nd_p_brand,
                     count(DISTINCT p_size)::BIGINT AS nd_p_size,
                     count(DISTINCT p_retailprice)::BIGINT
                       AS nd_p_retailprice
              FROM lab GROUP BY cluster
            )
            SELECT cluster, n_members, nd_p_brand, nd_p_size,
                   nd_p_retailprice,
                   ((CASE WHEN nd_p_brand > 1 THEN 1 ELSE 0 END)
                    + (CASE WHEN nd_p_size > 1 THEN 1 ELSE 0 END)
                    + (CASE WHEN nd_p_retailprice > 1 THEN 1 ELSE 0 END)
                   )::BIGINT AS n_conflict_cols
            FROM rep
        """,
        "monge_elkan_part": """
            WITH f AS (
              SELECT p_partkey AS id, p_brand AS blk,
                     list_filter(string_split(
                       trim(regexp_replace(lower(coalesce(p_name, '')),
                                           '[^a-z0-9]+', ' ', 'g')), ' '),
                       x -> x <> '') AS toks
              FROM part WHERE p_brand IS NOT NULL
            ), g AS (
              SELECT id, blk, toks,
                     least(len(toks), 16)::BIGINT AS n
              FROM f WHERE len(toks) > 0
            ), p AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     a.toks AS ta, b.toks AS tb, a.n AS na, b.n AS nb
              FROM g a JOIN g b ON a.blk = b.blk AND a.id < b.id
            ), jwt AS (
              SELECT x_id, y_id, na, nb, u.i, v.j,
                     floor((100.0 * jaro_winkler_similarity(ta[u.i],
                                                            tb[v.j]))
                           * 1000000.0 + 0.5) / 1000000.0 AS jw6
              FROM p,
                   unnest(generate_series(1, na)) u(i),
                   unnest(generate_series(1, nb)) v(j)
            ), mxa AS (
              SELECT x_id, y_id, i, any_value(na) AS na,
                     max(jw6) AS mx
              FROM jwt GROUP BY x_id, y_id, i
            ), mea AS (
              SELECT x_id, y_id,
                     list_sum(list(mx ORDER BY i))
                       / (any_value(na))::DOUBLE AS me
              FROM mxa GROUP BY x_id, y_id
            ), mxb AS (
              SELECT x_id, y_id, j, any_value(nb) AS nb,
                     max(jw6) AS mx
              FROM jwt GROUP BY x_id, y_id, j
            ), meb AS (
              SELECT x_id, y_id,
                     list_sum(list(mx ORDER BY j))
                       / (any_value(nb))::DOUBLE AS me
              FROM mxb GROUP BY x_id, y_id
            ), sym AS (
              SELECT a.x_id, a.y_id,
                     floor(((a.me + b.me) / (2.0)::DOUBLE)
                           * 1000000.0 + 0.5) / 1000000.0 AS me_sim
              FROM mea a JOIN meb b
                ON a.x_id = b.x_id AND a.y_id = b.y_id
            )
            SELECT x_id, y_id, me_sim FROM sym
            WHERE me_sim >= (90.0)::DOUBLE
        """,
        "fs_tf_customer": """
            WITH f AS (
              SELECT c_custkey AS id, c_nationkey AS blk,
                     c_mktsegment AS f1,
                     CAST(floor(c_acctbal / (100.0)::DOUBLE) AS BIGINT)
                       AS f2
              FROM customer
            ), nn AS (SELECT count(*) AS n FROM f),
            u1 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f1 IS NOT NULL GROUP BY f1)
            ), u2 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f2 IS NOT NULL GROUP BY f2)
            ), uv AS (
              SELECT (u1.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u1v,
                     (u2.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u2v
              FROM u1, u2, nn
            ), w AS (
              SELECT ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u1v) AS wd1,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u2v) AS wd2
              FROM uv
            ), vc1 AS (
              SELECT f1 AS v, count(*)::BIGINT AS c FROM f
              WHERE f1 IS NOT NULL GROUP BY f1
            ), vc2 AS (
              SELECT f2 AS v, count(*)::BIGINT AS c FROM f
              WHERE f2 IS NOT NULL GROUP BY f2
            ), s AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     (CASE WHEN a.f1 IS NOT NULL AND a.f1 = b.f1
                           THEN ln((0.9)::DOUBLE)
                                - (2.0)::DOUBLE
                                  * ln((vc1.c)::DOUBLE / (nn.n)::DOUBLE)
                           ELSE w.wd1 END)
                   + (CASE WHEN a.f2 IS NOT NULL AND a.f2 = b.f2
                           THEN ln((0.9)::DOUBLE)
                                - (2.0)::DOUBLE
                                  * ln((vc2.c)::DOUBLE / (nn.n)::DOUBLE)
                           ELSE w.wd2 END) AS sc
              FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id
              LEFT JOIN vc1 ON vc1.v = a.f1
              LEFT JOIN vc2 ON vc2.v = a.f2
              CROSS JOIN w CROSS JOIN nn
            )
            SELECT x_id, y_id,
                   CASE WHEN sc >= 0 THEN floor(sc * 1e6 + 0.5) / 1e6
                        ELSE -floor(-sc * 1e6 + 0.5) / 1e6 END AS score,
                   CASE WHEN sc >= (4.0)::DOUBLE THEN 'match'
                        WHEN sc >= (0.0)::DOUBLE THEN 'possible'
                        ELSE 'nonmatch' END AS decision
            FROM s
        """,
        "linkage_eval_customer": """
            WITH f AS (
              SELECT c_custkey AS id, c_nationkey AS blk,
                     c_mktsegment AS f1,
                     CAST(floor(c_acctbal / (100.0)::DOUBLE) AS BIGINT)
                       AS f2
              FROM customer
            ), nn AS (SELECT count(*) AS n FROM f),
            u1 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f1 IS NOT NULL GROUP BY f1)
            ), u2 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f2 IS NOT NULL GROUP BY f2)
            ), uv AS (
              SELECT (u1.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u1v,
                     (u2.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u2v
              FROM u1, u2, nn
            ), w AS (
              SELECT ln((0.9)::DOUBLE) - ln(u1v) AS wa1,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u1v) AS wd1,
                     ln((0.9)::DOUBLE) - ln(u2v) AS wa2,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u2v) AS wd2
              FROM uv
            ), s AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     (CASE WHEN a.f1 IS NOT NULL AND a.f1 = b.f1
                           THEN w.wa1 ELSE w.wd1 END)
                     + (CASE WHEN a.f2 IS NOT NULL AND a.f2 = b.f2
                             THEN w.wa2 ELSE w.wd2 END) AS sc
              FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id, w
            ), pred AS (
              SELECT x_id, y_id FROM s WHERE sc >= (2.0)::DOUBLE
            ), tr AS (
              SELECT a.id AS x_id, b.id AS y_id
              FROM f a JOIN f b
                ON a.blk = b.blk AND a.id < b.id
               AND a.f1 IS NOT NULL AND a.f1 = b.f1
            ), cnt AS (
              SELECT
                (SELECT count(*) FROM
                  (SELECT * FROM pred INTERSECT SELECT * FROM tr))
                  ::BIGINT AS tp,
                (SELECT count(*) FROM
                  (SELECT * FROM pred EXCEPT SELECT * FROM tr))
                  ::BIGINT AS fp,
                (SELECT count(*) FROM
                  (SELECT * FROM tr EXCEPT SELECT * FROM pred))
                  ::BIGINT AS fn
            ), pr AS (
              SELECT tp, fp, fn,
                     (tp)::DOUBLE / ((tp + fp))::DOUBLE AS p,
                     (tp)::DOUBLE / ((tp + fn))::DOUBLE AS r
              FROM cnt
            )
            SELECT tp, fp, fn,
                   floor(p * 1000000000.0 + 0.5) / 1000000000.0
                     AS precision,
                   floor(r * 1000000000.0 + 0.5) / 1000000000.0
                     AS recall,
                   floor(((2.0)::DOUBLE * p * r) / (p + r)
                         * 1000000000.0 + 0.5) / 1000000000.0 AS f1
            FROM pr
        """,
        "er_pipeline_customer": """
            WITH RECURSIVE f AS (
              SELECT c_custkey AS id, c_nationkey AS blk,
                     c_mktsegment AS f1,
                     CAST(floor(c_acctbal / (100.0)::DOUBLE) AS BIGINT)
                       AS f2
              FROM customer
            ), nn AS (SELECT count(*) AS n FROM f),
            u1 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f1 IS NOT NULL GROUP BY f1)
            ), u2 AS (
              SELECT sum(c*c) AS ssq FROM (
                SELECT count(*) AS c FROM f
                WHERE f2 IS NOT NULL GROUP BY f2)
            ), uv AS (
              SELECT (u1.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u1v,
                     (u2.ssq)::DOUBLE / ((nn.n * nn.n))::DOUBLE AS u2v
              FROM u1, u2, nn
            ), w AS (
              SELECT ln((0.9)::DOUBLE) - ln(u1v) AS wa1,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u1v) AS wd1,
                     ln((0.9)::DOUBLE) - ln(u2v) AS wa2,
                     ln((1.0)::DOUBLE - (0.9)::DOUBLE)
                       - ln((1.0)::DOUBLE - u2v) AS wd2
              FROM uv
            ), s AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     (CASE WHEN a.f1 IS NOT NULL AND a.f1 = b.f1
                           THEN w.wa1 ELSE w.wd1 END)
                     + (CASE WHEN a.f2 IS NOT NULL AND a.f2 = b.f2
                             THEN w.wa2 ELSE w.wd2 END) AS sc
              FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id, w
            ), e0 AS (
              SELECT x_id AS u, y_id AS v FROM s
              WHERE sc >= (4.0)::DOUBLE
            ), e AS (
              SELECT u AS a, v AS b FROM e0
              UNION ALL SELECT v, u FROM e0
            ), walk(node, r) AS (
              SELECT c_custkey, c_custkey FROM customer
              UNION
              SELECT w2.node, e.a FROM walk w2 JOIN e ON e.b = w2.r
            ), comp AS (
              SELECT node, min(r) AS cluster FROM walk GROUP BY node
            ), lab AS (
              SELECT c.c_custkey, c.c_mktsegment, c.c_acctbal,
                     comp.cluster
              FROM customer c JOIN comp ON comp.node = c.c_custkey
            ), bc AS (
              SELECT cluster, c_mktsegment, count(*) AS c FROM lab
              WHERE c_mktsegment IS NOT NULL GROUP BY 1, 2
            ), mb AS (
              SELECT cluster, c_mktsegment FROM (
                SELECT cluster, c_mktsegment,
                       row_number() OVER (PARTITION BY cluster
                                          ORDER BY c DESC,
                                                   c_mktsegment ASC) AS rn
                FROM bc
              ) WHERE rn = 1
            ), agg AS (
              SELECT cluster, (count(*))::BIGINT AS n_members,
                     max(c_acctbal) AS c_acctbal
              FROM lab GROUP BY 1
            )
            SELECT agg.cluster, agg.n_members, mb.c_mktsegment,
                   agg.c_acctbal
            FROM agg JOIN mb USING (cluster)
        """,
        "jw_prefix_part": """
            WITH v AS (
              SELECT DISTINCT p_name AS name FROM part
              WHERE length(p_name) >= 2
            ), p AS (
              SELECT a.name AS name_a, b.name AS name_b,
                     round(100.0 * jaro_winkler_similarity(a.name, b.name),
                           6) AS jw_sim
              FROM v a JOIN v b
                ON substr(a.name, 1, 2) = substr(b.name, 1, 2)
               AND a.name < b.name
            )
            SELECT name_a, name_b, jw_sim FROM p
            WHERE jw_sim >= (75.0)::DOUBLE
        """,
        "compare_vectors_customer": """
            WITH f AS (
              SELECT c_custkey AS id, c_nationkey AS blk, c_name,
                     c_mktsegment, c_acctbal
              FROM customer WHERE c_nationkey IS NOT NULL
            )
            SELECT a.id AS x_id, b.id AS y_id,
                   round(CASE
                     WHEN a.c_name = b.c_name THEN 100.0
                     WHEN greatest(length(a.c_name), length(b.c_name)) = 0
                       THEN 100.0
                     WHEN length(a.c_name) = 0 OR length(b.c_name) = 0
                       THEN 0.0
                     ELSE 100.0 * (1.0
                          - levenshtein(a.c_name, b.c_name)::double
                          / greatest(length(a.c_name), length(b.c_name)))
                   END, 6) AS c_name_lev,
                   (CASE WHEN a.c_mktsegment IS NOT NULL
                         AND a.c_mktsegment = b.c_mktsegment
                         THEN 1 ELSE 0 END)::TINYINT
                     AS c_mktsegment_exact,
                   abs(a.c_acctbal - b.c_acctbal) AS c_acctbal_absdiff
            FROM f a JOIN f b ON a.blk = b.blk AND a.id < b.id
        """,
        "token_sort_part": r"""
            WITH v AS (SELECT DISTINCT p_name AS name FROM part),
            tok AS (
              SELECT DISTINCT name, t.tok
              FROM v, unnest(string_split_regex(name, '\s+')) AS t(tok)
              WHERE length(t.tok) > 0
            ), pr AS (
              SELECT DISTINCT a.name AS name_a, b.name AS name_b
              FROM tok a JOIN tok b
                ON a.tok = b.tok AND a.name < b.name
            ), s AS (
              SELECT name_a, name_b,
                     array_to_string(list_sort(
                       string_split_regex(name_a, '\s+')), ' ') AS sa,
                     array_to_string(list_sort(
                       string_split_regex(name_b, '\s+')), ' ') AS sb
              FROM pr
            )
            SELECT name_a, name_b,
                   round(CASE
                     WHEN sa = sb THEN 100.0
                     WHEN greatest(length(sa), length(sb)) = 0 THEN 100.0
                     WHEN length(sa) = 0 OR length(sb) = 0 THEN 0.0
                     ELSE 100.0 * (1.0 - levenshtein(sa, sb)::double
                          / greatest(length(sa), length(sb)))
                   END, 6) AS ts_sim
            FROM s
        """,
        "golden_record_part": """
            WITH RECURSIVE c AS (
              SELECT a.p_partkey AS u, b.p_partkey AS v
              FROM part a JOIN part b
                ON a.p_partkey < b.p_partkey
               AND abs(length(a.p_name) - length(b.p_name)) <= 1
               AND levenshtein(a.p_name, b.p_name) <= 1
            ), e AS (
              SELECT u AS a, v AS b FROM c
              UNION ALL SELECT v, u FROM c
            ), walk(node, r) AS (
              SELECT p_partkey, p_partkey FROM part
              UNION
              SELECT w.node, e.a FROM walk w JOIN e ON e.b = w.r
            ), comp AS (
              SELECT node, min(r) AS cluster FROM walk GROUP BY node
            ), lab AS (
              SELECT p.*, comp.cluster FROM part p
              JOIN comp ON comp.node = p.p_partkey
            ), bc AS (
              SELECT cluster, p_brand, count(*) AS c FROM lab
              WHERE p_brand IS NOT NULL GROUP BY 1, 2
            ), mb AS (
              SELECT cluster, p_brand FROM (
                SELECT cluster, p_brand,
                       row_number() OVER (PARTITION BY cluster
                                          ORDER BY c DESC, p_brand ASC)
                         AS rn
                FROM bc
              ) WHERE rn = 1
            ), agg AS (
              SELECT cluster, (count(*))::BIGINT AS n_members,
                     max(p_retailprice) AS p_retailprice,
                     min(p_size) AS p_size
              FROM lab GROUP BY 1
            )
            SELECT agg.cluster, agg.n_members, mb.p_brand,
                   agg.p_retailprice, agg.p_size
            FROM agg JOIN mb USING (cluster)
        """,
        "blocking_quality_part": """
            WITH tok AS (
              SELECT DISTINCT p_partkey AS id, lower(u.tok) AS tok
              FROM part,
                   unnest(string_split(
                     p_name || ' ' || p_brand || ' ' || p_type, ' '
                   )) AS u(tok)
              WHERE length(u.tok) > 0
            ), e AS (
              SELECT a.id AS x_id, b.id AS y_id, count(*) AS w
              FROM tok a JOIN tok b ON a.tok = b.tok AND a.id < b.id
              GROUP BY 1, 2
            ), t AS (
              SELECT (sum(w))::DOUBLE / (count(*))::DOUBLE AS mw FROM e
            ), cand AS (
              SELECT x_id, y_id FROM e, t WHERE (w)::DOUBLE > t.mw
            ), truth AS (
              SELECT a.p_partkey AS x_id, b.p_partkey AS y_id
              FROM part a JOIN part b
                ON a.p_partkey < b.p_partkey AND a.p_name = b.p_name
            ), m AS (
              SELECT (SELECT count(*) FROM cand) AS nc,
                     (SELECT count(*) FROM truth) AS nt,
                     (SELECT count(*) FROM cand c JOIN truth t2
                        ON c.x_id = t2.x_id AND c.y_id = t2.y_id) AS nh,
                     (SELECT count(*) FROM part) AS n
            ), v AS (
              SELECT nc, nt, nh,
                     (1.0)::DOUBLE - (nc)::DOUBLE
                       / ((n * (n - 1) // 2))::DOUBLE AS rr,
                     (nh)::DOUBLE / (nt)::DOUBLE AS pc_,
                     (nh)::DOUBLE / (nc)::DOUBLE AS pq
              FROM m
            )
            SELECT (nc)::BIGINT AS n_cand, (nt)::BIGINT AS n_truth,
                   (nh)::BIGINT AS n_hit,
                   CASE WHEN rr >= 0 THEN floor(rr * 1e6 + 0.5) / 1e6
                        ELSE -floor(-rr * 1e6 + 0.5) / 1e6 END
                     AS reduction_ratio,
                   CASE WHEN pc_ >= 0 THEN floor(pc_ * 1e6 + 0.5) / 1e6
                        ELSE -floor(-pc_ * 1e6 + 0.5) / 1e6 END
                     AS pairs_completeness,
                   CASE WHEN pq >= 0 THEN floor(pq * 1e6 + 0.5) / 1e6
                        ELSE -floor(-pq * 1e6 + 0.5) / 1e6 END
                     AS pairs_quality
            FROM v
        """,
        "band_join_orders": """
            SELECT a.o_orderkey AS x_id, b.o_orderkey AS y_id,
                   abs(a.o_totalprice - b.o_totalprice) AS diff
            FROM orders a JOIN orders b
              ON a.o_orderkey < b.o_orderkey
             AND abs(a.o_totalprice - b.o_totalprice) <= (10.0)::DOUBLE
        """,
        "metablock_part": """
            WITH tok AS (
              SELECT DISTINCT p_partkey AS id, lower(u.tok) AS tok
              FROM part,
                   unnest(string_split(
                     p_name || ' ' || p_brand || ' ' || p_type, ' '
                   )) AS u(tok)
              WHERE length(u.tok) > 0
            ), e AS (
              SELECT a.id AS x_id, b.id AS y_id,
                     (count(*))::BIGINT AS weight
              FROM tok a JOIN tok b ON a.tok = b.tok AND a.id < b.id
              GROUP BY 1, 2
            ), t AS (
              SELECT (sum(weight))::DOUBLE / (count(*))::DOUBLE AS mw
              FROM e
            )
            SELECT x_id, y_id, weight FROM e, t
            WHERE (weight)::DOUBLE > t.mw
        """,
    }
