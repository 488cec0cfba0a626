"""Contract — sampling / mixing / chunking / packing.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.contract.shared import (  # noqa: F401
    _SPLIT_WEIGHTS,
)
from record_matcher_ray.sources.readers import read_table


def _q_chunks(sf_dir: str):
    """Overlapping token-window chunking (size 64, overlap 16) — the
    retrieval-prep transform; deterministic window starts so the DuckDB
    generate_series mirror matches hash-exactly."""

    from record_matcher_ray.pipelines.chunking import chunk_documents

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(ds, size=64, overlap=16)


def _q_split_docs(sf_dir: str):
    """Leakage-safe train/val/test split: every exact duplicate of a
    document gets the split of its group REPRESENTATIVE (min doc_id per
    identical text), so no content straddles train and eval."""

    from record_matcher_ray.pipelines.dedup import tuple_representatives
    from record_matcher_ray.pipelines.sampling import leakage_safe_split

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    reps = tuple_representatives(docs, ["text"], "doc_id")
    return leakage_safe_split(
        reps, _SPLIT_WEIGHTS, key_col="rep", seed=11
    ).to_pandas()[["doc_id", "rep", "split"]]


def _q_pack_docs(sf_dir: str):
    """Sequence packing into 512-token bins, next-fit over doc_id order.
    The query pins a canonical packing (one block, one batch, sorted
    ids) so the DuckDB recursive-CTE replay of the next-fit recurrence
    checks it exactly; at scale packing is partition-local by design."""

    from record_matcher_ray.pipelines.analysis import token_counts
    from record_matcher_ray.pipelines.packing import pack_sequences

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=1,
    )
    tc = token_counts(ds).select_columns(["doc_id", "n_ws_tokens"])
    return pack_sequences(
        tc.sort("doc_id").repartition(1), 512,
        token_col="n_ws_tokens", batch_size=1 << 22,
    ).drop_columns(["doc_ids"])


def _q_shuffle_docs(sf_dir: str):
    """First 100 documents in seeded global shuffle order with their
    positions — proves the deterministic epoch-shuffle ORDER end to end
    (the driver compare is order-insensitive, so the position column
    carries the order into the hash check)."""

    from record_matcher_ray.pipelines.sampling import deterministic_shuffle

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )
    head = (
        deterministic_shuffle(ds, "doc_id", seed=7)
        .limit(100)
        .to_pandas()
    )
    head["pos"] = np.arange(len(head), dtype=np.int64)
    return head[["pos", "doc_id"]]


def _q_sample_docs(sf_dir: str):
    """Deterministic 10% uniform sample by splitmix64(doc_id ^ seed) —
    the oracle reproduces the hash bit-exactly in SQL (32-bit-split
    modular multiplication), so this is a full hash-checked query."""

    from record_matcher_ray.pipelines.sampling import hash_sample

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return hash_sample(ds, "doc_id", 0.1, seed=42)


def _q_weighted_sample(sf_dir: str):
    """Length-proportional importance sample (p = min(n_chars, 800)/800)
    — exact integer predicate, hash-replayed bit-exactly in SQL."""

    from record_matcher_ray.pipelines.sampling import importance_sample

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )
    return importance_sample(ds, "doc_id", "n_chars", denom=800, seed=13)


def _q_stratified_docs(sf_dir: str):
    """At most 20 docs per language, chosen by deterministic hash order
    (row_number over sample_hash in the SQL oracle)."""

    from record_matcher_ray.pipelines.sampling import stratified_cap

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return stratified_cap(ds, "lang", 20, "doc_id", seed=7)


def _q_mix_docs(sf_dir: str):
    """Weighted source mixing: per-source deterministic keep-rates (the
    training-mixture primitive); unlisted sources get the default rate."""

    from record_matcher_ray.pipelines.sampling import weighted_mix

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return weighted_mix(
        ds, "source", {"src0": 1.0, "src1": 0.5, "src2": 0.25},
        "doc_id", seed=3, default_rate=0.1,
    )


def _q_weighted_topk(sf_dir: str):
    """Fixed-size weighted sample without replacement (Efraimidis-
    Spirakis A-ES): 50 documents drawn proportionally to n_chars."""

    from record_matcher_ray.pipelines.sampling import weighted_topk

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return weighted_topk(ds, "doc_id", "n_chars", 50, seed=2)


def _q_chunk_dedup(sf_dir: str):
    """Paragraph/chunk-level exact dedup (composition): token-window
    chunking (size 32, no overlap) -> exact duplicate groups over
    chunk_text — the passage-granularity dedup a pretraining pipeline
    runs between document-level exact and minhash near-dup passes."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from record_matcher_ray.pipelines.chunking import chunk_documents
    from record_matcher_ray.pipelines.dedup import exact_dup_groups

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    ch = chunk_documents(ds, size=32, overlap=0)

    def add_cid(t: pa.Table) -> pa.Table:
        cid = pc.add(
            pc.multiply(pc.cast(t["doc_id"], pa.int64()), 1_000_000),
            pc.cast(t["chunk_id"], pa.int64()),
        )
        return t.append_column("cid", cid)

    ch2 = ch.map_batches(add_cid, batch_format="pyarrow")
    return exact_dup_groups(ch2, ["chunk_text"], "cid")


def _split_docs_oracle() -> str:
    """Leakage-safe split replay: rep = min(doc_id) per identical text,
    splitmix64(rep ^ seed) banded by the ENGINE's own integer thresholds
    (embedded as literals — no float surface)."""
    from record_matcher_ray.pipelines.sampling import (
        split_thresholds,
        sql_sample_hash_cte,
    )

    bands = split_thresholds(_SPLIT_WEIGHTS)
    cte, hcol = sql_sample_hash_cte("rep", seed=11)
    case = " ".join(
        f"WHEN {hcol} < CAST({thr} AS UBIGINT) THEN '{name}'"
        for name, thr in bands[:-1]
    )
    return f"""
        WITH r AS (
          SELECT doc_id,
                 min(doc_id) OVER (PARTITION BY text) AS rep
          FROM documents
        ), t0 AS (SELECT doc_id, rep FROM r),{cte}
        SELECT doc_id, rep,
               CASE {case} ELSE '{bands[-1][0]}' END AS split
        FROM s5
    """


def _sampling_oracles() -> dict[str, str]:
    """Hash-exact SQL mirrors of the sampling family: the engine's
    splitmix64 sampling hash is replayed in DuckDB (32-bit-split modular
    multiplication), and the keep-thresholds are computed by the SAME
    Python expression the engine uses, so predicates agree bit-exactly."""
    from record_matcher_ray.pipelines.sampling import sql_sample_hash_cte

    two64 = 1 << 64

    def thr(rate: float) -> int:
        return min(int(rate * two64), two64 - 1)

    cte2, _ = sql_sample_hash_cte("doc_id", seed=2)
    cte42, _ = sql_sample_hash_cte("doc_id", seed=42)
    cte7, _ = sql_sample_hash_cte("doc_id", seed=7)
    cte3, _ = sql_sample_hash_cte("doc_id", seed=3)
    cte13, _ = sql_sample_hash_cte("doc_id", seed=13)
    return {
        "weighted_sample_docs": f"""
            WITH t0 AS (SELECT doc_id, source, n_chars FROM documents),{cte13}
            SELECT doc_id, source, n_chars FROM s5
            WHERE (e)::HUGEINT * 800
                  < (least(greatest(n_chars, 0), 800))::HUGEINT
                    * 18446744073709551616::HUGEINT
        """,
        "weighted_topk_docs": f"""
            WITH t0 AS (
              SELECT doc_id, (n_chars)::DOUBLE AS w FROM documents
              WHERE n_chars IS NOT NULL AND (n_chars)::DOUBLE > 0.0
            ),{cte2}
            SELECT (doc_id)::BIGINT AS id, w,
                   floor((-ln(((e >> 11)::DOUBLE + 1.0)
                              / 9007199254740992.0) / w)
                         * 1000000000.0 + 0.5) / 1000000000.0 AS key
            FROM s5
            ORDER BY -ln(((e >> 11)::DOUBLE + 1.0)
                         / 9007199254740992.0) / w,
                     doc_id
            LIMIT 50
        """,
        "sample_docs": f"""
            WITH t0 AS (SELECT doc_id, source, n_chars FROM documents),{cte42}
            SELECT doc_id, source, n_chars FROM s5
            WHERE e < CAST({thr(0.1)} AS UBIGINT)
        """,
        "stratified_docs": f"""
            WITH t0 AS (SELECT doc_id, lang FROM documents),{cte7}
            SELECT doc_id, lang FROM s5
            QUALIFY row_number() OVER (PARTITION BY lang ORDER BY e, doc_id)
                    <= 20
        """,
        "mix_docs": f"""
            WITH t0 AS (SELECT doc_id, source FROM documents),{cte3}
            SELECT doc_id, source FROM s5
            WHERE e < CAST(CASE source
                           WHEN 'src0' THEN {thr(1.0)}
                           WHEN 'src1' THEN {thr(0.5)}
                           WHEN 'src2' THEN {thr(0.25)}
                           ELSE {thr(0.1)} END AS UBIGINT)
        """,
        "shuffle_docs": f"""
            WITH t0 AS (SELECT doc_id FROM documents),{cte7}
            SELECT (row_number() OVER (ORDER BY e, doc_id) - 1)::BIGINT
                     AS pos,
                   doc_id
            FROM s5 ORDER BY e, doc_id LIMIT 100
        """,
        "split_docs": _split_docs_oracle(),
    }




def _q_pack_sequences(sf_dir: str):
    """Training sequence packing: per-doc word counts (the standard
    tokenizer surrogate) packed next-fit into capacity-128 bins within
    doc_id//50 pack buckets — bin identity, offsets and truncation flags
    are a pure function of (ids, lengths), replayed row-exactly by a
    per-bucket recursive-CTE scan."""
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.sampling import pack_sequences

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def wc(t: pa.Table) -> pa.Table:
        nt = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(pc.cast(t["text"], pa.string()),
                                       "")),
            r"[^a-z0-9]+", " "))
        n = pc.add(pc.count_substring(nt, " "),
                   pc.if_else(pc.equal(nt, ""), 0, 1))
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "n_tokens": pc.cast(n, pa.int64())})

    return pack_sequences(
        ds.map_batches(wc, batch_format="pyarrow"),
        capacity=128, bucket_size=50,
    )


_PACK_SQL = """
    WITH RECURSIVE d0 AS (
      SELECT doc_id,
             trim(regexp_replace(lower(coalesce(text, '')),
                  '[^a-z0-9]+', ' ', 'g')) AS nt
      FROM documents
    ), d AS (
      SELECT *, row_number() OVER (PARTITION BY pb ORDER BY doc_id) AS rn
      FROM (
        SELECT doc_id,
               (CASE WHEN nt = '' THEN 0
                     ELSE len(string_split(nt, ' ')) END)::BIGINT AS ln,
               (CASE WHEN doc_id % 50 <> 0 AND doc_id < 0
                     THEN doc_id // 50 - 1
                     ELSE doc_id // 50 END)::BIGINT AS pb
        FROM d0
      )
    ), walk(pb, rn, doc_id, ln, bin, off, open_after, fill_after,
            trunc) AS (
      SELECT pb, rn, doc_id, ln,
             0::BIGINT, 0::BIGINT,
             CASE WHEN ln > 128 THEN 1 ELSE 0 END::BIGINT,
             CASE WHEN ln > 128 THEN 0 ELSE ln END::BIGINT,
             ln > 128
      FROM d WHERE rn = 1
      UNION ALL
      SELECT d.pb, d.rn, d.doc_id, d.ln,
             CASE WHEN d.ln > 128 THEN
                    w.open_after + (CASE WHEN w.fill_after > 0
                                         THEN 1 ELSE 0 END)
                  WHEN w.fill_after + d.ln > 128 THEN w.open_after + 1
                  ELSE w.open_after END,
             CASE WHEN d.ln > 128 THEN 0
                  WHEN w.fill_after + d.ln > 128 THEN 0
                  ELSE w.fill_after END,
             CASE WHEN d.ln > 128 THEN
                    w.open_after + (CASE WHEN w.fill_after > 0
                                         THEN 1 ELSE 0 END) + 1
                  WHEN w.fill_after + d.ln > 128 THEN w.open_after + 1
                  ELSE w.open_after END,
             CASE WHEN d.ln > 128 THEN 0
                  WHEN w.fill_after + d.ln > 128 THEN d.ln
                  ELSE w.fill_after + d.ln END,
             d.ln > 128
      FROM walk w JOIN d ON d.pb = w.pb AND d.rn = w.rn + 1
    )
    SELECT doc_id, ln AS seq_len, pb AS pack_bucket,
           bin AS bin_in_bucket, off AS bin_offset, trunc AS truncated
    FROM walk ORDER BY doc_id
"""




def _q_pretrain_pack(sf_dir: str):
    """Capstone composition (jobs/pretrain_data_job.py): normalize →
    eval holdout → quality gate → exact dedup → decontaminate →
    deterministic mix → sequence packing, end to end over the document
    table — the WHOLE funnel replays hash-exactly as one DuckDB query."""

    from jobs.pretrain_data_job import assemble_pretraining_data

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    packed, _ = assemble_pretraining_data(ds)
    return packed


def _pretrain_pack_sql() -> str:
    from record_matcher_ray.pipelines.sampling import (
        _TWO64,
        sql_sample_hash_cte,
    )

    thr = min(int(0.8 * _TWO64), _TWO64 - 1)
    cte, hcol = sql_sample_hash_cte("doc_id", seed=7, table="cl")
    return f"""
    WITH RECURSIVE d0 AS (
      SELECT doc_id,
             trim(regexp_replace(lower(coalesce(text, '')),
                  '[^a-z0-9]+', ' ', 'g')) AS nt
      FROM documents
    ), d1 AS (
      SELECT doc_id, nt,
             (CASE WHEN nt = '' THEN 0
                   ELSE len(string_split(nt, ' ')) END)::BIGINT AS ln
      FROM d0
    ), ev AS (
      SELECT DISTINCT nt FROM d1 WHERE doc_id % 97 = 0
    ), tr AS (
      SELECT * FROM d1
      WHERE doc_id % 97 <> 0 AND ln BETWEEN 10 AND 2000
    ), dd AS (
      SELECT doc_id, nt, ln FROM (
        SELECT *, min(doc_id) OVER (PARTITION BY nt) AS rep FROM tr
      ) WHERE doc_id = rep
    ), cl AS (
      SELECT doc_id, ln FROM dd
      WHERE nt NOT IN (SELECT nt FROM ev)
    ),{cte},
    mx AS (
      SELECT doc_id, ln FROM s5 WHERE {hcol} < CAST({thr} AS UBIGINT)
    ), d AS (
      SELECT *, row_number() OVER (PARTITION BY pb ORDER BY doc_id) AS rn
      FROM (
        SELECT doc_id, ln,
               (CASE WHEN doc_id % 50 <> 0 AND doc_id < 0
                     THEN doc_id // 50 - 1
                     ELSE doc_id // 50 END)::BIGINT AS pb
        FROM mx
      )
    ), walk(pb, rn, doc_id, ln, bin, off, open_after, fill_after,
            trunc) AS (
      SELECT pb, rn, doc_id, ln,
             0::BIGINT, 0::BIGINT,
             CASE WHEN ln > 128 THEN 1 ELSE 0 END::BIGINT,
             CASE WHEN ln > 128 THEN 0 ELSE ln END::BIGINT,
             ln > 128
      FROM d WHERE rn = 1
      UNION ALL
      SELECT d.pb, d.rn, d.doc_id, d.ln,
             CASE WHEN d.ln > 128 THEN
                    w.open_after + (CASE WHEN w.fill_after > 0
                                         THEN 1 ELSE 0 END)
                  WHEN w.fill_after + d.ln > 128 THEN w.open_after + 1
                  ELSE w.open_after END,
             CASE WHEN d.ln > 128 THEN 0
                  WHEN w.fill_after + d.ln > 128 THEN 0
                  ELSE w.fill_after END,
             CASE WHEN d.ln > 128 THEN
                    w.open_after + (CASE WHEN w.fill_after > 0
                                         THEN 1 ELSE 0 END) + 1
                  WHEN w.fill_after + d.ln > 128 THEN w.open_after + 1
                  ELSE w.open_after END,
             CASE WHEN d.ln > 128 THEN 0
                  WHEN w.fill_after + d.ln > 128 THEN d.ln
                  ELSE w.fill_after + d.ln END,
             d.ln > 128
      FROM walk w JOIN d ON d.pb = w.pb AND d.rn = w.rn + 1
    )
    SELECT doc_id, ln AS seq_len, pb AS pack_bucket,
           bin AS bin_in_bucket, off AS bin_offset, trunc AS truncated
    FROM walk ORDER BY doc_id
    """


def queries():
    return {
        "pretrain_pack_docs": _q_pretrain_pack,
        "pack_sequences_docs": _q_pack_sequences,
        "sample_docs": _q_sample_docs,
        "weighted_sample_docs": _q_weighted_sample,
        "shuffle_docs": _q_shuffle_docs,
        "stratified_docs": _q_stratified_docs,
        "mix_docs": _q_mix_docs,
        "pack_docs": _q_pack_docs,
        "split_docs": _q_split_docs,
        "chunk_docs": _q_chunks,
        "weighted_topk_docs": _q_weighted_topk,
        "chunk_dedup_docs": _q_chunk_dedup,
    }


def oracles():
    return {
        "pretrain_pack_docs": _pretrain_pack_sql(),
        "pack_sequences_docs": _PACK_SQL,
        "chunk_docs": __import__(
            "record_matcher_ray.pipelines.chunking", fromlist=["x"]
        ).sql_chunk_documents(size=64, overlap=16),
        "chunk_dedup_docs": f"""
            WITH ch AS ({__import__(
                "record_matcher_ray.pipelines.chunking", fromlist=["x"]
            ).sql_chunk_documents(size=32, overlap=0)}),
            ids AS (
              SELECT ((doc_id)::BIGINT * 1000000 + chunk_id)::BIGINT
                       AS cid,
                     chunk_text
              FROM ch
            ), k AS (
              SELECT cid,
                     min(cid) OVER (PARTITION BY chunk_text) AS keeper
              FROM ids
            )
            SELECT (keeper)::BIGINT AS keeper_id, (cid)::BIGINT AS dup_id
            FROM k WHERE cid <> keeper
        """,
        "pack_docs": """
            -- replay the next-fit recurrence: walk docs in doc_id order,
            -- start a new bin when the running token sum would exceed 512
            -- (an oversize doc occupies a bin alone). bin_id = first doc id.
            WITH RECURSIVE d AS (
              SELECT row_number() OVER (ORDER BY doc_id) AS rn, doc_id,
                     len(regexp_extract_all(text, '\\S+'))::BIGINT AS tok
              FROM documents
            ), nf AS (
              SELECT rn, doc_id, tok, doc_id AS bin_id, tok AS run
              FROM d WHERE rn = 1
              UNION ALL
              SELECT d.rn, d.doc_id, d.tok,
                     CASE WHEN nf.run + d.tok > 512
                          THEN d.doc_id ELSE nf.bin_id END,
                     CASE WHEN nf.run + d.tok > 512
                          THEN d.tok ELSE nf.run + d.tok END
              FROM nf JOIN d ON d.rn = nf.rn + 1
            )
            SELECT bin_id, count(*) AS n_docs,
                   CAST(sum(tok) AS BIGINT) AS total_tokens,
                   -- /512 is a power-of-two division: bit-exact vs numpy
                   least(CAST(sum(tok) AS DOUBLE) / 512, 1.0) AS fill_frac,
                   CAST(sum(tok) AS BIGINT) > 512 AS oversize
            FROM nf GROUP BY 1
        """,
        **_sampling_oracles(),
    }
