"""Contract — dedup / decontamination / span-dedup / PII.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_dedup_exact_docs(sf_dir: str):
    from ray.data.aggregate import Count, Min

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = (
        ds.groupby("text")
        .aggregate(Min("doc_id", alias_name="keeper_id"),
                   Count(alias_name="n_copies"))
        .to_pandas()
    )
    out["keeper_id"] = out["keeper_id"].astype("int64")
    out["n_copies"] = out["n_copies"].astype("int64")
    return out


def _q_minhash_dedup(sf_dir: str):

    from record_matcher_ray.pipelines.dedup import minhash_dedup

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return minhash_dedup(ds, "text", "doc_id", jaccard_threshold=60.0)["pairs"]


def _q_simhash(sf_dir: str):

    from record_matcher_ray.pipelines.dedup import simhash64

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return simhash64(ds, "text", "doc_id")


def _q_minhash_recall(sf_dir: str):
    """LSH pair recall vs brute-force shingle-Jaccard ground truth on a
    150-doc slice. One row: (n_true_pairs, n_verified_pairs,
    verified_recall, false_positives) at jaccard >= 60. Both sides are
    deterministic (fixed MinHasher seed), so the WHOLE metric is
    hash-checked by the SQL oracle (_minhash_recall_oracle: truth via a
    shingle self-join, verified via the LSH replay). The slice is capped
    because the TRUTH side is O(n²) pairs × shingle-set size on the
    driver — it validates recall, it is not the scale path."""
    import pandas as pd

    from record_matcher_ray.pipelines.dedup import minhash_dedup
    from record_matcher_ray.stages.blocking import char_shingles, normalize_text

    docs = (
        read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )
        .sort("doc_id")
        .limit(150)
        .materialize()
    )
    df = docs.to_pandas()
    sets = [
        char_shingles(normalize_text(t or ""), 4) for t in df["text"].tolist()
    ]
    ids = df["doc_id"].to_numpy()
    n = len(ids)
    # all-pairs exact Jaccard via ONE doc×shingle 0/1 matmul (no per-pair
    # set expansion): inter = M @ M.T, union = |a|+|b|-inter.
    lens = np.array([len(s) for s in sets], np.int64)
    flat = (np.concatenate(sets) if lens.sum() else np.empty(0, np.int64))
    cols = pd.factorize(flat)[0]
    m = np.zeros((n, int(cols.max()) + 1 if len(cols) else 1), np.float32)
    m[np.repeat(np.arange(n), lens), cols] = 1.0
    inter = m @ m.T
    union = lens[:, None] + lens[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(union > 0, 100.0 * inter / union, 0.0)
    sims = np.round(sims, 6)
    ai, bi = np.triu_indices(n, k=1)
    tmask = (sims[ai, bi] >= 60.0) & (lens[ai] > 0) & (lens[bi] > 0)
    truth = {
        (int(min(ids[x], ids[y])), int(max(ids[x], ids[y])))
        for x, y in zip(ai[tmask], bi[tmask])
    }
    res = minhash_dedup(docs, "text", "doc_id", jaccard_threshold=60.0)
    ver = res["pairs"].to_pandas()
    verified = {(int(a), int(b)) for a, b in zip(ver["a"], ver["b"])}
    return pd.DataFrame(
        [
            {
                "n_true_pairs": len(truth),
                "n_verified_pairs": len(verified),
                "verified_recall": round(
                    len(verified & truth) / max(1, len(truth)), 6
                ),
                "false_positives": len(verified - truth),
            }
        ]
    )


def _q_simhash_near_dups(sf_dir: str):
    """Banded Hamming LSH over simhash64 fingerprints (rows-only: simhash
    r3: banding has 100% recall (pigeonhole), so the full pair set IS
    deterministic — oracled by a brute-force bit_count self-join in SQL
    (`_hash_oracles`); semantics additionally pinned vs brute-force
    Hamming in tests/test_operators.py::test_simhash_near_dups_vs_brute."""

    from record_matcher_ray.pipelines.dedup import simhash_near_dups

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return simhash_near_dups(ds, "text", "doc_id", max_hamming=3)


def _q_ngram_jaccard(sf_dir: str):
    """EXACT n-gram-Jaccard near-dup pairs (no LSH) — SQL-expressible via
    an inverted-index self-join, so this one carries a full hash oracle
    (unlike seed-dependent minhash_dedup_docs)."""

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_dedup

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = ngram_jaccard_dedup(
        ds, "text", "doc_id", jaccard_threshold=60.0
    ).to_pandas()
    out["jaccard"] = out["jaccard"].round(6)
    return out


def _q_decontam_near(sf_dir: str):
    """Near-dup decontamination: eval side = every 7th document truncated
    to its first 80% of characters (planted light-edit contamination);
    broadcast eval inverted index, one zero-shuffle pass over train."""
    import pyarrow as pa

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

    train = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def derive(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sel = t.filter(pa.array((ids % 7) == 0))
        cut = [
            (s or "")[: max(1, (len(s or "") * 4) // 5)]
            for s in sel["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": sel["doc_id"], "text": pa.array(cut, pa.string())}
        )

    ev = train.map_batches(derive, batch_format="pyarrow")
    out = ngram_jaccard_decontam(
        train, ev, "text", "doc_id", jaccard_threshold=60.0
    ).to_pandas()
    out["jaccard"] = out["jaccard"].round(6)
    return out


def _q_containment(sf_dir: str):
    """Leaked-benchmark decontamination: eval side = a verbatim middle
    slice of every 11th document (embedded contamination Jaccard misses);
    eval-side gram containment over the broadcast inverted index."""
    import pyarrow as pa

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

    train = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def derive(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sel = t.filter(pa.array((ids % 11) == 0))
        cut = [
            (s or "")[len(s or "") // 3: len(s or "") // 3
                      + max(3 * len(s or "") // 10, 4)]
            for s in sel["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": sel["doc_id"], "text": pa.array(cut, pa.string())}
        )

    ev = train.map_batches(derive, batch_format="pyarrow")
    out = ngram_jaccard_decontam(
        train, ev, "text", "doc_id",
        jaccard_threshold=90.0, metric="containment",
    ).to_pandas()
    out["containment"] = out["containment"].round(6)
    return out


def _q_minhash_decontam(sf_dir: str):
    """LSH-path decontamination (big-eval escape hatch): same planted
    truncation fixture as decontam_near_docs. Fully deterministic (fixed
    MinHasher seed), so the whole tagged-union LSH pipeline is replayed
    by the SQL oracle (_minhash_decontam_oracle), hash-exact; recall vs
    the exact path is additionally pinned in tests."""
    import pyarrow as pa

    from record_matcher_ray.pipelines.dedup import minhash_decontam

    train = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def derive(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        sel = t.filter(pa.array((ids % 7) == 0))
        cut = [
            (s or "")[: max(1, (len(s or "") * 4) // 5)]
            for s in sel["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": sel["doc_id"], "text": pa.array(cut, pa.string())}
        )

    ev = train.map_batches(derive, batch_format="pyarrow")
    return minhash_decontam(
        train, ev, "text", "doc_id", jaccard_threshold=60.0
    )


def _q_decontam(sf_dir: str):
    """Train/eval overlap check: every 20th doc plays the 'eval set'; each
    corpus doc reports the fraction of its 16-char normalized windows that
    appear anywhere in the eval set. Exact mode (sorted-hash broadcast) so
    the DuckDB string-window oracle matches hash-exactly; bloom mode is
    the fixed-memory 100-TB path (FP-bound tested in tests)."""
    import pyarrow as pa

    from record_matcher_ray.pipelines.decontam import contamination

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def every20(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.filter(pa.array(ids % 20 == 0))

    ref = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(every20, batch_format="pyarrow")
    return contamination(ds, ref, "text", "doc_id", window=16, mode="exact")


def _q_pii(sf_dir: str):
    """Per-doc PII detector counts (email/phone/ipv4/ssn) — RE2 kernels,
    zero shuffle; DuckDB runs the identical RE2 patterns."""

    from record_matcher_ray.pipelines.pii import pii_counts

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pii_counts(ds)


def _q_redact(sf_dir: str):
    """PII redaction pass — text rewritten with ordered pattern masking;
    oracle is the same nested regexp_replace chain."""

    from record_matcher_ray.pipelines.pii import redact_pii

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return redact_pii(ds)


def _q_minhash_signatures(sf_dir: str):
    """Full 64-perm MinHash signatures of every document in long format
    (doc_id, perm, sig) — computed by the SAME kernels the minhash-LSH
    dedup pipeline uses (blocking.batch_char_shingles +
    hashkernels.batch_signatures), so the hash-exact SQL replay pins the
    flagship dedup family's signature math, not a lookalike."""

    from record_matcher_ray.stages.blocking import MinHasher

    hasher = MinHasher(num_perm=64, seed=1)
    a, b = hasher.a, hasher.b

    def fn(t):
        import numpy as np
        import pyarrow as pa

        from record_matcher_ray.core.hashkernels import (
            batch_signatures,
            normalize_utf8,
        )
        from record_matcher_ray.stages.blocking import batch_char_shingles

        sh_flat, sh_lens = batch_char_shingles(
            normalize_utf8(t["text"]), 4
        )
        sig = batch_signatures(sh_flat, sh_lens, a, b)
        n, num_perm = sig.shape
        ids = np.ascontiguousarray(t["doc_id"].to_numpy(), np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, num_perm)),
                "perm": pa.array(
                    np.tile(np.arange(num_perm, dtype=np.int64), n)
                ),
                "sig": pa.array(sig.ravel()),
            }
        )

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return (
        ds.map_batches(fn, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["doc_id", "perm"])
        .reset_index(drop=True)
    )


def _q_dup_span_stats(sf_dir: str):
    """Substring-level dedup stats: per doc, the fraction of its 16-char
    normalized windows whose content recurs in ≥2 distinct documents
    (windowed-fingerprint form of suffix-array substring dedup)."""

    from record_matcher_ray.pipelines.spandedup import duplicated_window_stats

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return duplicated_window_stats(ds, window=16, stride=1, min_docs=2)


def _q_dup_spans(sf_dir: str):
    """Merged byte spans (normalized-text coordinates) covered by
    cross-document duplicated 16-char windows."""

    from record_matcher_ray.pipelines.spandedup import duplicate_spans

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return duplicate_spans(ds, window=16, stride=1, min_docs=2)


def _q_strip_spans(sf_dir: str):
    """Normalized text with cross-document duplicated 16-char window spans
    cut out (suffix-array-style substring dedup, remove form)."""

    from record_matcher_ray.pipelines.spandedup import strip_duplicate_spans

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return strip_duplicate_spans(ds, window=16, stride=1, min_docs=2)


def _q_dedup_keep_best(sf_dir: str):
    """Keep-best exact dedup: group docs by NORMALIZED text (NFC,
    lower, collapsed whitespace), keeper = longest original (tie: min
    doc_id); full (doc_id, keeper_id) assignment."""

    from record_matcher_ray.pipelines.analysis import normalize_text
    from record_matcher_ray.pipelines.dedup import exact_dedup_keep_best

    ds = read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "n_chars"],
    )
    return exact_dedup_keep_best(
        normalize_text(ds), ["text"], "doc_id", "n_chars", emit_all=True
    )


def _pii_oracles() -> dict[str, str]:
    """PII oracles built from the ENGINE's pattern dict so the SQL mirror
    can never drift from the code (both sides are RE2)."""
    from record_matcher_ray.pipelines.pii import PII_PATTERNS

    counts = ",\n                   ".join(
        f"len(regexp_extract_all(coalesce(text, ''), '{p}'))::BIGINT AS n_{k}"
        for k, p in PII_PATTERNS.items()
    )
    total = " + ".join(
        f"len(regexp_extract_all(coalesce(text, ''), '{p}'))"
        for p in PII_PATTERNS.values()
    )
    redacted = "coalesce(text, '')"
    for p in PII_PATTERNS.values():
        redacted = f"regexp_replace({redacted}, '{p}', '[PII]', 'g')"
    return {
        "pii_docs": f"""
            SELECT doc_id, {counts},
                   ({total})::BIGINT AS n_pii_total
            FROM documents
        """,
        "redact_docs": f"""
            SELECT doc_id, {redacted} AS text FROM documents
        """,
    }


def _q_capture_recapture(sf_dir: str):
    """Lincoln-Petersen residual-duplicate estimate from prefix/suffix
    dup detectors over the documents table."""

    from record_matcher_ray.pipelines.dedup import (
        capture_recapture_dup_estimate,
    )

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return capture_recapture_dup_estimate(ds, affix_len=16)


def _q_k_anonymity(sf_dir: str):
    """k-anonymity audit of customers under the (nation, segment)
    quasi-identifier pair at k=5."""

    from record_matcher_ray.pipelines.pii import k_anonymity_audit

    ds = read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment"],
    )
    return k_anonymity_audit(ds, ["c_nationkey", "c_mktsegment"], k=5)


def _q_simhash_snm(sf_dir: str):
    """SimHash neighborhood dedup: fingerprint-order sliding window
    (w=8) + Hamming <= 6 filter — the linear-pass near-dup path."""

    from record_matcher_ray.pipelines.dedup import simhash_snm_dedup

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return simhash_snm_dedup(ds, window=8, max_hamming=6)


def _q_ngram_containment(sf_dir: str):
    """Max-containment n-gram pairs (quote/subset detector): same exact
    inverted-index machinery as ngram_jaccard_docs, denominator
    min(|A|, |B|)."""

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_dedup

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = ngram_jaccard_dedup(
        ds, "text", "doc_id", jaccard_threshold=60.0,
        metric="containment",
    ).to_pandas()
    out["containment"] = out["containment"].round(6)
    return out


def _q_dedup_savings(sf_dir: str):
    """Exact-dup savings accounting over the documents table."""

    from record_matcher_ray.pipelines.dedup import dedup_savings_report

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dedup_savings_report(ds)


def queries():
    return {
        "dedup_exact_docs": _q_dedup_exact_docs,
        "dup_span_stats_docs": _q_dup_span_stats,
        "dup_spans_docs": _q_dup_spans,
        "strip_spans_docs": _q_strip_spans,
        "minhash_dedup_docs": _q_minhash_dedup,
        "minhash_signatures_docs": _q_minhash_signatures,
        "minhash_recall_docs": _q_minhash_recall,
        "ngram_jaccard_docs": _q_ngram_jaccard,
        "simhash_docs": _q_simhash,
        "simhash_near_dups_docs": _q_simhash_near_dups,
        "decontam_docs": _q_decontam,
        "pii_docs": _q_pii,
        "redact_docs": _q_redact,
        "decontam_near_docs": _q_decontam_near,
        "minhash_decontam_docs": _q_minhash_decontam,
        "contamination_docs": _q_containment,
        "dedup_keep_best_docs": _q_dedup_keep_best,
        "capture_recapture_docs": _q_capture_recapture,
        "k_anonymity_customer": _q_k_anonymity,
        "simhash_snm_docs": _q_simhash_snm,
        "ngram_containment_docs": _q_ngram_containment,
        "dedup_savings_docs": _q_dedup_savings,
    }


def oracles():
    return {
        "dedup_savings_docs": """
            WITH g AS (
              SELECT coalesce(text, '') AS t, count(*)::BIGINT AS c
              FROM documents GROUP BY 1
            )
            SELECT sum(c)::BIGINT AS n_docs,
                   count(*)::BIGINT AS n_distinct_texts,
                   sum(c - 1)::BIGINT AS n_dup_docs,
                   sum(length(t) * c)::BIGINT AS chars_total,
                   sum(length(t) * (c - 1))::BIGINT AS chars_removable
            FROM g
        """,
        "ngram_containment_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), g AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM t
            ), sizes AS (
              SELECT doc_id, count(*) AS n FROM g GROUP BY 1
            ), pairs AS (
              SELECT g1.doc_id AS id_a, g2.doc_id AS id_b,
                     count(*) AS n_common
              FROM g g1 JOIN g g2
                ON g1.gram = g2.gram AND g1.doc_id < g2.doc_id
              GROUP BY 1, 2
            )
            SELECT p.id_a, p.id_b, p.n_common,
                   round(100.0 * p.n_common / least(sa.n, sb.n), 6)
                     AS containment
            FROM pairs p
            JOIN sizes sa ON p.id_a = sa.doc_id
            JOIN sizes sb ON p.id_b = sb.doc_id
            WHERE 100.0 * p.n_common / least(sa.n, sb.n) >= 60.0
        """,
        "k_anonymity_customer": """
            WITH g AS (
              SELECT coalesce(c_nationkey::VARCHAR, chr(0) || 'null'
                              || chr(0)) AS a,
                     coalesce(c_mktsegment::VARCHAR, chr(0) || 'null'
                              || chr(0)) AS b,
                     count(*)::BIGINT AS c
              FROM customer GROUP BY 1, 2
            )
            SELECT sum(c)::BIGINT AS n_rows,
                   count(*)::BIGINT AS n_groups,
                   sum(CASE WHEN c < 5 THEN c ELSE 0 END)::BIGINT
                     AS n_at_risk_rows,
                   sum(CASE WHEN c < 5 THEN 1 ELSE 0 END)::BIGINT
                     AS n_at_risk_groups,
                   min(c)::BIGINT AS min_group
            FROM g
        """,
        "capture_recapture_docs": """
            WITH t AS (
              SELECT trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), k AS (
              SELECT left(nt, 16) AS pre, left(reverse(nt), 16) AS suf
              FROM t
            ), pp AS (
              SELECT sum(c * (c - 1) // 2)::HUGEINT AS a FROM
                (SELECT count(*)::HUGEINT AS c FROM k GROUP BY pre)
            ), ss AS (
              SELECT sum(c * (c - 1) // 2)::HUGEINT AS b FROM
                (SELECT count(*)::HUGEINT AS c FROM k GROUP BY suf)
            ), bb AS (
              SELECT sum(c * (c - 1) // 2)::HUGEINT AS ab FROM
                (SELECT count(*)::HUGEINT AS c FROM k GROUP BY pre, suf)
            )
            SELECT pp.a::BIGINT AS n_prefix_pairs,
                   ss.b::BIGINT AS n_suffix_pairs,
                   bb.ab::BIGINT AS n_both_pairs,
                   CASE WHEN bb.ab > 0
                        THEN floor((pp.a::DOUBLE) * (ss.b::DOUBLE)
                                   / (bb.ab::DOUBLE) * 1000000.0 + 0.5)
                             / 1000000.0
                        ELSE NULL END AS estimate
            FROM pp, ss, bb
        """,
        "dedup_exact_docs": """
            SELECT text, min(doc_id) AS keeper_id, count(*) AS n_copies
            FROM documents GROUP BY text
        """,
        "dup_span_stats_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), win AS (
              SELECT doc_id, unnest(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) <= 16 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 15),
                                         i -> substr(nt, i, 16))
                END) AS g
              FROM t
            ), per AS (
              SELECT doc_id, g, count(*)::BIGINT AS cnt
              FROM win GROUP BY doc_id, g
            ), dup AS (
              SELECT g FROM per GROUP BY g
              HAVING count(DISTINCT doc_id) >= 2
            )
            SELECT p.doc_id, sum(p.cnt)::BIGINT AS n_windows,
                   sum(CASE WHEN d.g IS NOT NULL THEN p.cnt ELSE 0
                       END)::BIGINT AS n_dup_windows,
                   round(sum(CASE WHEN d.g IS NOT NULL THEN p.cnt ELSE 0
                             END)::DOUBLE / sum(p.cnt), 6) AS dup_frac
            FROM per p LEFT JOIN dup d ON p.g = d.g
            GROUP BY p.doc_id
        """,
        "dup_spans_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), win AS (
              SELECT doc_id, nt, unnest(
                CASE WHEN length(nt) = 0 THEN CAST([] AS BIGINT[])
                     WHEN length(nt) <= 16 THEN [CAST(0 AS BIGINT)]
                     ELSE list_transform(generate_series(1, length(nt) - 15),
                                         i -> CAST(i - 1 AS BIGINT))
                END) AS pos
              FROM t
            ), w2 AS (
              SELECT doc_id, pos,
                     substr(nt, CAST(pos + 1 AS INT), 16) AS g,
                     least(pos + 16, length(nt))::BIGINT AS end_
              FROM win
            ), dup AS (
              SELECT g FROM w2 GROUP BY g
              HAVING count(DISTINCT doc_id) >= 2
            ), d AS (
              SELECT doc_id, pos, end_ FROM w2
              WHERE g IN (SELECT g FROM dup)
            ), m AS (
              SELECT doc_id, pos, end_,
                     max(end_) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS prev_max
              FROM d
            ), i AS (
              SELECT doc_id, pos, end_,
                     CASE WHEN prev_max IS NULL OR pos > prev_max
                          THEN 1 ELSE 0 END AS brk
              FROM m
            ), c AS (
              SELECT doc_id, pos, end_,
                     sum(brk) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS UNBOUNDED PRECEDING) AS isl
              FROM i
            )
            SELECT doc_id, min(pos)::BIGINT AS span_start,
                   max(end_)::BIGINT AS span_end
            FROM c GROUP BY doc_id, isl
        """,
        "strip_spans_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), win AS (
              SELECT doc_id, nt, unnest(
                CASE WHEN length(nt) = 0 THEN CAST([] AS BIGINT[])
                     WHEN length(nt) <= 16 THEN [CAST(0 AS BIGINT)]
                     ELSE list_transform(generate_series(1, length(nt) - 15),
                                         i -> CAST(i - 1 AS BIGINT))
                END) AS pos
              FROM t
            ), w2 AS (
              SELECT doc_id, pos,
                     substr(nt, CAST(pos + 1 AS INT), 16) AS g,
                     least(pos + 16, length(nt))::BIGINT AS end_
              FROM win
            ), dup AS (
              SELECT g FROM w2 GROUP BY g
              HAVING count(DISTINCT doc_id) >= 2
            ), d AS (
              SELECT doc_id, pos, end_ FROM w2
              WHERE g IN (SELECT g FROM dup)
            ), m AS (
              SELECT doc_id, pos, end_,
                     max(end_) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS prev_max
              FROM d
            ), i AS (
              SELECT doc_id, pos, end_,
                     CASE WHEN prev_max IS NULL OR pos > prev_max
                          THEN 1 ELSE 0 END AS brk
              FROM m
            ), c AS (
              SELECT doc_id, pos, end_,
                     sum(brk) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS UNBOUNDED PRECEDING) AS isl
              FROM i
            ), spans AS (
              SELECT doc_id, min(pos) AS s, max(end_) AS e
              FROM c GROUP BY doc_id, isl
            ), segs AS (
              -- kept segment before each span (may be empty)
              SELECT doc_id, lag(e, 1, 0) OVER (
                       PARTITION BY doc_id ORDER BY s) AS ks, s AS ke
              FROM spans
              UNION ALL
              -- tail segment after the last span
              SELECT sp.doc_id, max(sp.e) AS ks, length(t.nt)::BIGINT AS ke
              FROM spans sp JOIN t USING (doc_id)
              GROUP BY sp.doc_id, length(t.nt)
            ), rebuilt AS (
              SELECT s.doc_id,
                     string_agg(substr(t.nt, CAST(s.ks + 1 AS INT),
                                       CAST(s.ke - s.ks AS INT)),
                                '' ORDER BY s.ks) AS txt
              FROM segs s JOIN t USING (doc_id)
              GROUP BY s.doc_id
            )
            SELECT t.doc_id, coalesce(r.txt, t.nt) AS text
            FROM t LEFT JOIN rebuilt r USING (doc_id)
        """,
        "decontam_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), win AS (
              SELECT doc_id, unnest(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 16 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 15),
                                         i -> substr(nt, i, 16))
                END) AS g
              FROM t
            ), ref AS (
              SELECT DISTINCT g FROM win WHERE doc_id % 20 = 0
            )
            SELECT w.doc_id, count(*) AS n_windows,
                   round(sum(CASE WHEN r.g IS NOT NULL THEN 1 ELSE 0
                             END)::DOUBLE / count(*), 6) AS contained_frac
            FROM win w LEFT JOIN ref r ON w.g = r.g
            GROUP BY w.doc_id
        """,
        "ngram_jaccard_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), g AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM t
            ), sizes AS (
              SELECT doc_id, count(*) AS n FROM g GROUP BY 1
            ), pairs AS (
              SELECT g1.doc_id AS id_a, g2.doc_id AS id_b,
                     count(*) AS n_common
              FROM g g1 JOIN g g2
                ON g1.gram = g2.gram AND g1.doc_id < g2.doc_id
              GROUP BY 1, 2
            )
            SELECT p.id_a, p.id_b, p.n_common,
                   round(100.0 * p.n_common / (sa.n + sb.n - p.n_common), 6)
                     AS jaccard
            FROM pairs p
            JOIN sizes sa ON p.id_a = sa.doc_id
            JOIN sizes sb ON p.id_b = sb.doc_id
            WHERE 100.0 * p.n_common / (sa.n + sb.n - p.n_common) >= 60.0
        """,
        "decontam_near_docs": """
            -- eval = every 7th doc truncated to its first 80% of chars;
            -- exact char-4-gram jaccard between train and eval corpora
            WITH ev_raw AS (
              SELECT doc_id,
                     substr(coalesce(text, ''), 1,
                            greatest((length(coalesce(text, '')) * 4) // 5,
                                     1)) AS text
              FROM documents WHERE doc_id % 7 = 0
            ), tn AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), en AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(text),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM ev_raw
            ), tg AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM tn
            ), eg AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM en
            ), ts AS (
              SELECT doc_id, count(*) AS n FROM tg GROUP BY 1
            ), es AS (
              SELECT doc_id, count(*) AS n FROM eg GROUP BY 1
            ), pairs AS (
              SELECT tg.doc_id AS train_id, eg.doc_id AS eval_id,
                     count(*) AS n_common
              FROM tg JOIN eg USING (gram)
              GROUP BY 1, 2
            )
            SELECT p.train_id, p.eval_id, p.n_common,
                   round(100.0 * p.n_common / (ts.n + es.n - p.n_common), 6)
                     AS jaccard
            FROM pairs p
            JOIN ts ON p.train_id = ts.doc_id
            JOIN es ON p.eval_id = es.doc_id
            WHERE 100.0 * p.n_common / (ts.n + es.n - p.n_common) >= 60.0
        """,
        "contamination_docs": """
            -- eval = middle ~30% slice of every 11th doc (embedded
            -- contamination); score = eval-side gram containment
            WITH ev_raw AS (
              SELECT doc_id,
                     substr(coalesce(text, ''),
                            length(coalesce(text, '')) // 3 + 1,
                            greatest((length(coalesce(text, '')) * 3) // 10,
                                     4)) AS text
              FROM documents WHERE doc_id % 11 = 0
            ), tn AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), en AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(text),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM ev_raw
            ), tg AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM tn
            ), eg AS (
              SELECT doc_id, unnest(list_distinct(
                CASE WHEN length(nt) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN length(nt) < 4 THEN [nt]
                     ELSE list_transform(generate_series(1, length(nt) - 3),
                                         i -> substr(nt, i, 4))
                END)) AS gram
              FROM en
            ), es AS (
              SELECT doc_id, count(*) AS n FROM eg GROUP BY 1
            ), pairs AS (
              SELECT tg.doc_id AS train_id, eg.doc_id AS eval_id,
                     count(*) AS n_common
              FROM tg JOIN eg USING (gram)
              GROUP BY 1, 2
            )
            SELECT p.train_id, p.eval_id, p.n_common,
                   round(100.0 * p.n_common / es.n, 6) AS containment
            FROM pairs p JOIN es ON p.eval_id = es.doc_id
            WHERE 100.0 * p.n_common / es.n >= 90.0
        """,
        "dedup_keep_best_docs": r"""
            WITH n AS (
              SELECT doc_id, n_chars,
                     regexp_replace(
                       regexp_replace(
                         lower(nfc_normalize(coalesce(text, ''))),
                         '\s+', ' ', 'g'),
                       '^ | $', '', 'g') AS nt
              FROM documents
            )
            SELECT doc_id,
                   first_value(doc_id) OVER (
                     PARTITION BY nt
                     ORDER BY n_chars DESC, doc_id ASC
                   ) AS keeper_id
            FROM n
        """,
        **_pii_oracles(),
    }
