"""Contract — text analysis / fingerprints / hashes.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.contract.shared import (  # noqa: F401
    _BLOCKLIST,
    _SQL_M,
    _sql_mulmod,
    _sql_xorshift,
)
from record_matcher_ray.sources.readers import read_table


def _q_lang_id(sf_dir: str):

    from record_matcher_ray.pipelines.analysis import language_id

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return language_id(ds)


def _q_fingerprints(sf_dir: str):

    from record_matcher_ray.pipelines.analysis import fingerprints

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return fingerprints(ds)


def _q_compression(sf_dir: str):
    """Per-doc zlib compression ratio (classic cheap repetition/quality
    signal); no DuckDB zlib ⇒ rows-only, so the output is SELF-CHECKING
    (VERDICT r4): every row carries ``roundtrip_ok`` (compressed stream
    decompresses back to the exact bytes) and ``raw_ok`` (Python byte
    count vs Arrow's independent binary_length kernel) — all-true in a
    healthy run, and any wrong row flips a visible bit."""

    from record_matcher_ray.pipelines.analysis import compression_metrics

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return compression_metrics(ds, verify=True)


def _q_normalize_text(sf_dir: str):
    """Unicode NFC + lowercase + whitespace canonicalization over the
    document corpus — utf8proc/RE2 on both sides is what makes the oracle
    hash-exact."""

    from record_matcher_ray.pipelines.analysis import normalize_text

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return normalize_text(ds)


def _q_blocklist(sf_dir: str):
    """Broadcast phrase-blocklist screening: per doc the number of listed
    phrases present and a keep flag (rows flagged, not dropped)."""

    from record_matcher_ray.pipelines.analysis import blocklist_filter

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return blocklist_filter(ds, _BLOCKLIST)


def _q_char_entropy(sf_dir: str):
    """Per-document Shannon character entropy (gibberish / single-char-
    spam quality signal) with the ordered-fold float recipe."""

    from record_matcher_ray.pipelines.analysis import char_entropy

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return char_entropy(ds)


def _q_script_profile(sf_dir: str):
    """Per-document Unicode-script census (latin/digit/space/cyrillic/
    cjk/other counts) — multilingual routing signal."""

    from record_matcher_ray.pipelines.analysis import script_profile

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return script_profile(ds)


def _q_soundex(sf_dir: str):
    """Simplified-Soundex phonetic blocking keys over part names —
    zero-shuffle vectorized byte pass, (p_partkey, soundex)."""

    from record_matcher_ray.pipelines.analysis import soundex_codes

    ds = read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    return soundex_codes(ds, "p_name", "p_partkey")


def _q_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (dup-token fraction, top
    2/3-gram fractions) — count-based variants so the DuckDB string-gram
    oracle checks them exactly."""

    from record_matcher_ray.pipelines.analysis import repetition_metrics

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return repetition_metrics(ds)


def _q_lm_quality(sf_dir: str):
    """Unigram-LM cross-entropy (perplexity-filter signal), model trained
    on the corpus itself (vocab 4096, add-1 OOV floor)."""

    from record_matcher_ray.pipelines.analysis import lm_quality

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return lm_quality(ds, vocab_size=4096, alpha=1.0)


def _blocklist_oracle() -> str:
    """Blocklist replay: one `contains` term per phrase (lowercased both
    sides, same as the engine's case_insensitive=True path)."""
    terms = " + ".join(
        "CASE WHEN contains(lower(coalesce(text, '')), '"
        + p.lower().replace("'", "''")
        + "') THEN 1 ELSE 0 END"
        for p in _BLOCKLIST
    )
    return f"""
        SELECT doc_id, text, ({terms})::BIGINT AS n_hits,
               ({terms}) = 0 AS keep
        FROM documents
    """


def _minhash_sig_oracle() -> str:
    """SQL replay of the 64-perm MinHash signature kernel. The (a, b)
    permutation constants come from the ENGINE's own MinHasher(seed=1),
    embedded as a VALUES list; the 64-bit multiply is the 32-bit-split
    column form of _sql_mulmod (the multiplier is a column here, not a
    literal)."""
    from record_matcher_ray.stages.blocking import MinHasher

    M = _SQL_M
    HALF = "9223372036854775808"
    hasher = MinHasher(num_perm=64, seed=1)
    perms = ", ".join(
        f"({j}, {int(av) | 1}, {int(bv)})"
        for j, (av, bv) in enumerate(zip(hasher.a, hasher.b))
    )
    # column-mulmod: s64 < 2**61, ab <= 2**61 → every term < 2**94, safe
    # in HUGEINT
    sigv = (f"((s64::HUGEINT % 4294967296) * ab "
            f"+ (((s64::HUGEINT // 4294967296) * (ab % 4294967296)) "
            f"% 4294967296) * 4294967296 + b) % {M}")
    m1 = _sql_mulmod(_sql_xorshift("p", 30), 0xBF58476D1CE4E5B9)
    m2 = _sql_mulmod(_sql_xorshift("h", 27), 0x94D049BB133111EB)
    return f"""
        WITH norm AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(coalesce(text,'')),
                                     '[^a-z0-9]+', ' ', 'g')) AS s
          FROM documents
        ), wins AS (
          SELECT doc_id, s,
                 unnest(generate_series(1, greatest(length(s) - 3, 1))) AS i
          FROM norm WHERE length(s) > 0
        ), grams AS (
          SELECT doc_id, substr(s, i, 4) AS w FROM wins
        ), poly AS (
          SELECT doc_id,
            (CASE length(w)
              WHEN 4 THEN ((ascii(substr(w,1,1))::HUGEINT*1000003
                            + ascii(substr(w,2,1)))*1000003
                           + ascii(substr(w,3,1)))*1000003
                          + ascii(substr(w,4,1))
              WHEN 3 THEN (ascii(substr(w,1,1))::HUGEINT*1000003
                           + ascii(substr(w,2,1)))*1000003
                          + ascii(substr(w,3,1))
              WHEN 2 THEN ascii(substr(w,1,1))::HUGEINT*1000003
                          + ascii(substr(w,2,1))
              ELSE ascii(substr(w,1,1))::HUGEINT END) % {M} AS p
          FROM grams
        ), m1 AS (SELECT doc_id, {m1} AS h FROM poly
        ), m2 AS (SELECT doc_id, {m2} AS h FROM m1
        ), sh AS (
          SELECT DISTINCT doc_id,
                 (xor(h::UBIGINT, h::UBIGINT >> 31) >> 3) AS s64
          FROM m2
        ), perms(j, ab, b) AS (VALUES {perms}),
        sigs AS (
          SELECT doc_id, j, min({sigv}) AS v
          FROM sh CROSS JOIN perms
          GROUP BY doc_id, j
        )
        SELECT d.doc_id, p.j AS perm,
               coalesce(CASE WHEN g.v < {HALF} THEN g.v
                             ELSE g.v - {M} END, 0)::BIGINT AS sig
        FROM documents d CROSS JOIN perms p
        LEFT JOIN sigs g ON g.doc_id = d.doc_id AND g.j = p.j
        ORDER BY d.doc_id, p.j
    """


def _minhash_pairs_oracle() -> str:
    """Full SQL replay of minhash_dedup's verified-pairs output
    (dedup.py: _shingle_sig_table → batch_band_keys →
    _bucket_pairs_fn(max_bucket=200, est_cut=48) → distinct →
    exact-jaccard verify at threshold 60): shingles and signatures as in
    _minhash_sig_oracle; band key = ((su0·B⁴+su1·B³+su2·B²+su3·B+band)
    mod 2⁶⁴) >> 6 | 3<<58 (blocking.batch_band_keys + tag_keys); bucket
    cap = band-key group size ∈ [2, 200]; estimate prefilter = equal
    golden-folded signature bytes ·100/64 ≥ 48 (exact dyadic floats both
    sides); verify = round(100·|∩|/|∪|, 6) ≥ 60 over the 45-bit-masked
    distinct shingles (the engine's searchsorted kernel's exact input)."""
    return _minhash_pairs_body("SELECT doc_id, text FROM documents") + """
        SELECT c.a, c.b,
               round(100.0 * i.i / (la.n + lb.n - i.i), 6) AS jaccard
        FROM cand2 c
        JOIN inter i ON i.a = c.a AND i.b = c.b
        JOIN lens la ON la.doc_id = c.a
        JOIN lens lb ON lb.doc_id = c.b
        WHERE round(100.0 * i.i / (la.n + lb.n - i.i), 6) >= 60.0
    """


def _minhash_decontam_oracle() -> str:
    """Replay of minhash_decontam over _q_minhash_decontam's fixture:
    train = documents tagged id*2, eval = every-7th doc truncated to 4/5
    length tagged id*2+1 (ASCII corpus ⇒ substr == Python slice); same
    LSH pairs replay, then cross-side filter + decode (>>1 == //2 for
    non-negative ids)."""
    source = """
          SELECT doc_id * 2 AS doc_id, text FROM documents
          UNION ALL
          SELECT doc_id * 2 + 1 AS doc_id,
                 substr(coalesce(text,''), 1,
                        greatest(1, (length(coalesce(text,'')) * 4) // 5))
                   AS text
          FROM documents WHERE doc_id % 7 = 0
    """
    return _minhash_pairs_body(source) + """
        SELECT (CASE WHEN c.a % 2 = 0 THEN c.a ELSE c.b END) // 2
                 AS train_id,
               (CASE WHEN c.a % 2 = 1 THEN c.a ELSE c.b END) // 2
                 AS eval_id,
               round(100.0 * i.i / (la.n + lb.n - i.i), 6) AS jaccard
        FROM cand2 c
        JOIN inter i ON i.a = c.a AND i.b = c.b
        JOIN lens la ON la.doc_id = c.a
        JOIN lens lb ON lb.doc_id = c.b
        WHERE round(100.0 * i.i / (la.n + lb.n - i.i), 6) >= 60.0
          AND (c.a % 2) <> (c.b % 2)
    """


def _minhash_pairs_body(source: str) -> str:
    """Shared WITH-chain of the minhash-LSH replay (shingles →
    signatures → band keys → capped buckets → estimate prefilter →
    intersection/lengths) over any (doc_id, text) source. See
    _minhash_pairs_oracle for the semantics map."""
    from record_matcher_ray.stages.blocking import MinHasher

    M = _SQL_M
    B = 1000003
    GOLDEN = 0x9E3779B97F4A7C15
    hasher = MinHasher(num_perm=64, seed=1)
    perms = ", ".join(
        f"({j}, {int(av) | 1}, {int(bv)})"
        for j, (av, bv) in enumerate(zip(hasher.a, hasher.b))
    )
    sigv = (f"((s64::HUGEINT % 4294967296) * ab "
            f"+ (((s64::HUGEINT // 4294967296) * (ab % 4294967296)) "
            f"% 4294967296) * 4294967296 + b) % {M}")
    m1 = _sql_mulmod(_sql_xorshift("p", 30), 0xBF58476D1CE4E5B9)
    m2 = _sql_mulmod(_sql_xorshift("h", 27), 0x94D049BB133111EB)
    pw = {k: pow(B, 4 - k, 1 << 64) for k in range(4)}
    term = " ".join(
        f"WHEN {k} THEN {_sql_mulmod('v', pw[k])}" for k in range(4)
    )
    mask45 = (1 << 45) - 1
    return f"""
        WITH norm AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(coalesce(text,'')),
                                     '[^a-z0-9]+', ' ', 'g')) AS s
          FROM ({source}) __src
        ), wins AS (
          SELECT doc_id, s,
                 unnest(generate_series(1, greatest(length(s) - 3, 1))) AS i
          FROM norm WHERE length(s) > 0
        ), grams AS (
          SELECT doc_id, substr(s, i, 4) AS w FROM wins
        ), poly AS (
          SELECT doc_id,
            (CASE length(w)
              WHEN 4 THEN ((ascii(substr(w,1,1))::HUGEINT*1000003
                            + ascii(substr(w,2,1)))*1000003
                           + ascii(substr(w,3,1)))*1000003
                          + ascii(substr(w,4,1))
              WHEN 3 THEN (ascii(substr(w,1,1))::HUGEINT*1000003
                           + ascii(substr(w,2,1)))*1000003
                          + ascii(substr(w,3,1))
              WHEN 2 THEN ascii(substr(w,1,1))::HUGEINT*1000003
                          + ascii(substr(w,2,1))
              ELSE ascii(substr(w,1,1))::HUGEINT END) % {M} AS p
          FROM grams
        ), m1 AS (SELECT doc_id, {m1} AS h FROM poly
        ), m2 AS (SELECT doc_id, {m2} AS h FROM m1
        ), sh AS (
          SELECT DISTINCT doc_id,
                 (xor(h::UBIGINT, h::UBIGINT >> 31) >> 3) AS s64
          FROM m2
        ), perms(j, ab, b) AS (VALUES {perms}),
        sigs AS (
          SELECT doc_id, j, min({sigv}) AS v
          FROM sh CROSS JOIN perms
          GROUP BY doc_id, j
        ), folds AS (
          SELECT doc_id, j // 4 AS band,
                 (CASE j % 4 {term} END) AS t
          FROM sigs
        ), bk AS (
          SELECT doc_id,
                 (((((sum(t) + band) % {M})::UBIGINT >> 6)
                   | (3::UBIGINT << 58))::HUGEINT)::BIGINT AS band_key
          FROM folds GROUP BY doc_id, band
        ), bsz AS (
          SELECT band_key, count(*) AS n FROM bk GROUP BY band_key
        ), cand AS (
          SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
          FROM bk x
          JOIN bk y ON x.band_key = y.band_key AND x.doc_id < y.doc_id
          JOIN bsz s ON s.band_key = x.band_key
          WHERE s.n BETWEEN 2 AND 200
        ), est AS (
          SELECT doc_id, j,
                 (({_sql_mulmod('v', GOLDEN)})::UBIGINT >> 56) AS u8
          FROM sigs
        ), cand2 AS (
          SELECT c.a, c.b
          FROM cand c
          JOIN est ea ON ea.doc_id = c.a
          JOIN est eb ON eb.doc_id = c.b AND eb.j = ea.j
          GROUP BY c.a, c.b
          HAVING sum(CASE WHEN ea.u8 = eb.u8 THEN 1 ELSE 0 END)
                 * 100.0 / 64.0 >= 48.0
        ), sh45 AS (
          SELECT DISTINCT doc_id, (s64 & {mask45}) AS v FROM sh
        ), lens AS (
          SELECT doc_id, count(*) AS n FROM sh45 GROUP BY doc_id
        ), inter AS (
          SELECT c.a, c.b, count(*) AS i
          FROM cand2 c
          JOIN sh45 xa ON xa.doc_id = c.a
          JOIN sh45 xb ON xb.doc_id = c.b AND xb.v = xa.v
          GROUP BY c.a, c.b
        )
    """


def _minhash_recall_oracle() -> str:
    """Replay of _q_minhash_recall's one-row metrics: truth = all-pairs
    exact jaccard (>= 60, both sides shingled) over the first-150-doc
    slice via a shingle self-join on the UNMASKED 61-bit hashes (the
    engine's float32 intersection matmul is exact for these counts);
    verified = the full LSH pairs replay over the same slice; recall =
    |ver ∩ truth| / max(1, |truth|) rounded to 6."""
    src = "SELECT doc_id, text FROM documents ORDER BY doc_id LIMIT 150"
    return _minhash_pairs_body(src) + """
        , ver AS (
          SELECT c.a, c.b
          FROM cand2 c
          JOIN inter i ON i.a = c.a AND i.b = c.b
          JOIN lens la ON la.doc_id = c.a
          JOIN lens lb ON lb.doc_id = c.b
          WHERE round(100.0 * i.i / (la.n + lb.n - i.i), 6) >= 60.0
        ), tl AS (
          SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
        ), tinter AS (
          SELECT xa.doc_id AS a, xb.doc_id AS b, count(*) AS i
          FROM sh xa
          JOIN sh xb ON xb.s64 = xa.s64 AND xa.doc_id < xb.doc_id
          GROUP BY 1, 2
        ), truth AS (
          SELECT t.a, t.b
          FROM tinter t
          JOIN tl la ON la.doc_id = t.a
          JOIN tl lb ON lb.doc_id = t.b
          WHERE round(100.0 * t.i / (la.n + lb.n - t.i), 6) >= 60.0
        )
        SELECT
          (SELECT count(*) FROM truth) AS n_true_pairs,
          (SELECT count(*) FROM ver) AS n_verified_pairs,
          round((SELECT count(*) FROM
                   (SELECT * FROM ver INTERSECT SELECT * FROM truth)
                )::DOUBLE
                / greatest(1, (SELECT count(*) FROM truth)), 6)
            AS verified_recall,
          (SELECT count(*) FROM
             (SELECT * FROM ver EXCEPT SELECT * FROM truth))
            AS false_positives
    """


def _hash_oracles() -> dict[str, str]:
    """SQL mirrors of the DETERMINISTIC hash pipelines (r3: drops the
    simhash/fingerprint/simhash-near-dup rows from `no_oracle` to
    driver-hash-checked — VERDICT r2 next-round item 3).

    Both engines compute mod-2**64 polynomial hashes; DuckDB has no
    wraparound arithmetic, so 64-bit multiplies are emulated in HUGEINT
    by 32-bit splitting: x*c mod 2^64 = (x_lo*c + ((x_hi*c_lo) mod 2^32)
    * 2^32) mod 2^64. splitmix64's xor/shift steps run in UBIGINT (never
    overflow). ASCII-only text assumption (CLAUDE.md parity gotchas —
    holds for every testdata corpus; chars == bytes after it)."""
    M = _SQL_M
    HALF = "9223372036854775808"
    mulmod = _sql_mulmod
    xorshift = _sql_xorshift

    # simhash64 (dedup.py:882): normalize → distinct char-4-gram
    # poly+splitmix64 hashes >> 3 → golden-ratio spread → per-bit vote
    simhash_fp_cte = f"""
        WITH norm AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(coalesce(text,'')),
                                     '[^a-z0-9]+', ' ', 'g')) AS s
          FROM documents
        ), wins AS (
          SELECT doc_id, s,
                 unnest(generate_series(1, greatest(length(s) - 3, 1))) AS i
          FROM norm WHERE length(s) > 0
        ), grams AS (
          SELECT doc_id, substr(s, i, 4) AS w FROM wins
        ), poly AS (
          SELECT doc_id,
            (CASE length(w)
              WHEN 4 THEN ((ascii(substr(w,1,1))::HUGEINT*1000003
                            + ascii(substr(w,2,1)))*1000003
                           + ascii(substr(w,3,1)))*1000003
                          + ascii(substr(w,4,1))
              WHEN 3 THEN (ascii(substr(w,1,1))::HUGEINT*1000003
                           + ascii(substr(w,2,1)))*1000003
                          + ascii(substr(w,3,1))
              WHEN 2 THEN ascii(substr(w,1,1))::HUGEINT*1000003
                          + ascii(substr(w,2,1))
              ELSE ascii(substr(w,1,1))::HUGEINT END) % {M} AS p
          FROM grams
        ), m1 AS (
          SELECT doc_id,
                 {mulmod(xorshift('p', 30), 0xBF58476D1CE4E5B9)} AS h
          FROM poly
        ), m2 AS (
          SELECT doc_id,
                 {mulmod(xorshift('h', 27), 0x94D049BB133111EB)} AS h
          FROM m1
        ), shingle AS (
          SELECT DISTINCT doc_id,
                 xor(h::UBIGINT, h::UBIGINT >> 31) >> 3 AS sh64
          FROM m2
        ), golden AS (
          SELECT doc_id,
                 ({mulmod('sh64::HUGEINT', 0x9E3779B97F4A7C15)})::UBIGINT AS g
          FROM shingle
        ), votes AS (
          SELECT doc_id, b,
                 count(*) FILTER (WHERE (g >> b::UBIGINT) & 1 = 1) AS cnt,
                 count(*) AS n
          FROM golden, (SELECT unnest(generate_series(0, 63)) AS b) bits
          GROUP BY doc_id, b
        ), fp AS (
          SELECT doc_id,
                 sum(CASE WHEN 2*cnt > n THEN 1::HUGEINT << b
                          ELSE 0::HUGEINT END) AS v
          FROM votes GROUP BY doc_id
        ), sim AS (
          SELECT d.doc_id AS id,
                 coalesce(CASE WHEN f.v < {HALF} THEN f.v
                               ELSE f.v - {M} END, 0)::BIGINT AS simhash
          FROM documents d LEFT JOIN fp f ON d.doc_id = f.doc_id
        )
    """

    # fingerprints (analysis.py:183): min of stride-4 16-byte rolling
    # poly hashes over RAW text (no normalization, no mix). Two branches:
    # docs >= 16 chars use a fixed 16-step fold reduced every 3rd step
    # (2^64 * (2^20)^3 < 2^127 so HUGEINT never overflows — measured 2.7×
    # faster than per-step CASE+mod); short docs fold their exact length.
    fp16 = "ascii(substr(w,1,1))::HUGEINT"
    for k in range(2, 17):
        fp16 = (f"(({fp16} * 1000003 + ascii(substr(w,{k},1))) % {M})"
                if k % 3 == 0
                else f"({fp16} * 1000003 + ascii(substr(w,{k},1)))")
    fp16 = fp16.replace("w", "substr(s, 1 + i*4, 16)")
    fp_var = "0::HUGEINT"
    for k in range(1, 16):
        fp_var = (f"(CASE WHEN length(w) >= {k} THEN ({fp_var} * 1000003 "
                  f"+ ascii(substr(w,{k},1))) % {M} ELSE {fp_var} END)")

    return {
        "simhash_docs": simhash_fp_cte + """
            SELECT id, simhash FROM sim ORDER BY id
        """,
        "simhash_snm_docs": simhash_fp_cte + f"""
            , ranked AS (
              SELECT id, simhash,
                     row_number() OVER (ORDER BY simhash, id) AS rn
              FROM sim
            )
            SELECT least(a.id, b.id) AS id_a,
                   greatest(a.id, b.id) AS id_b,
                   bit_count(xor(
                     ((a.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT,
                     ((b.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT
                   ))::BIGINT AS hamming
            FROM ranked a JOIN ranked b
              ON b.rn > a.rn AND b.rn < a.rn + 8
            WHERE bit_count(xor(
                    ((a.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT,
                    ((b.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT
                  )) <= 6
        """,
        # minhash signature replay (hashkernels.batch_signatures via
        # blocking.batch_char_shingles): shingle = splitmix64(4-gram
        # fwd-poly) >> 3 (same chain as simhash's gram hash, no
        # golden-spread), then per perm j: min over shingles of
        # ((a_j|1)*sh + b_j) mod 2**64, unsigned min, int64 bit pattern;
        # shingle-less docs -> sig 0 for every perm.
        "minhash_signatures_docs": _minhash_sig_oracle(),
        "minhash_dedup_docs": _minhash_pairs_oracle(),
        "minhash_decontam_docs": _minhash_decontam_oracle(),
        "minhash_recall_docs": _minhash_recall_oracle(),
        "simhash_near_dups_docs": simhash_fp_cte + f"""
            SELECT a.id AS id_a, b.id AS id_b,
                   bit_count(xor(((a.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT,
                                 ((b.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT)
                             )::BIGINT AS hamming
            FROM sim a JOIN sim b ON a.id < b.id
            WHERE a.simhash <> 0 AND b.simhash <> 0
              AND bit_count(xor(((a.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT,
                                ((b.simhash::HUGEINT % {M} + {M}) % {M})::UBIGINT)) <= 3
        """,
        "fingerprint_docs": f"""
            WITH base AS (
              SELECT doc_id, coalesce(text,'') AS s FROM documents
            ), longdocs AS (
              SELECT doc_id, s,
                     unnest(generate_series(0, (length(s)-16)//4)) AS i
              FROM base WHERE length(s) >= 16
            ), h16 AS (
              SELECT doc_id, {fp16} % {M} AS h FROM longdocs
            ), shortdocs AS (
              SELECT doc_id, s AS w
              FROM base WHERE length(s) > 0 AND length(s) < 16
            ), hvar AS (
              SELECT doc_id, {fp_var} AS h FROM shortdocs
            ), fp AS (
              SELECT doc_id, min(h) AS v
              FROM (SELECT * FROM h16 UNION ALL SELECT * FROM hvar)
              GROUP BY doc_id
            )
            SELECT d.doc_id AS doc_id,
                   coalesce(CASE WHEN f.v < {HALF} THEN f.v
                                 ELSE f.v - {M} END, 0)::BIGINT AS fp64
            FROM documents d LEFT JOIN fp f ON d.doc_id = f.doc_id
        """,
    }


def token_counts(sf_dir):

    from record_matcher_ray.pipelines import analysis

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return analysis.token_counts(ds)


def quality(sf_dir):

    from record_matcher_ray.pipelines import analysis

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return analysis.quality_scores(ds)


def _q_standardize(sf_dir: str):
    """Dictionary token standardization (st->street etc.) over the
    documents table — order-preserving token replace, broadcast map."""

    from record_matcher_ray.pipelines.analysis import standardize_tokens

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return standardize_tokens(ds)




def _q_luhn_cards(sf_dir: str):
    """Checksum-validated payment-card detection (ISO/IEC 7812 Luhn):
    each doc's text is suffixed with a deterministic 16-digit run
    (4000000000000000 + 137·doc_id) so candidate counts and the Luhn
    verdict carry real signal — ~1 in 10 seeded runs passes the
    checksum, and the SQL replay folds the identical digit-doubling."""
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.pii import luhn_card_counts

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def seed_cards(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.int64()).to_numpy()
        cards = pa.array([str(4000000000000000 + 137 * int(i))
                          for i in did], pa.string())
        txt = pc.binary_join_element_wise(
            pc.fill_null(pc.cast(t["text"], pa.string()), ""),
            cards, " "
        )
        return pa.table({"doc_id": t["doc_id"], "text": txt})

    return luhn_card_counts(ds.map_batches(seed_cards,
                                           batch_format="pyarrow"))


_LUHN_SQL = """
    WITH seeded AS (
      SELECT doc_id,
             coalesce(text, '') || ' ' ||
             (4000000000000000 + 137 * doc_id)::VARCHAR AS text
      FROM documents
    ), runs AS (
      SELECT doc_id,
             regexp_extract_all(text, '[0-9]{13,19}') AS rs
      FROM seeded
    ), cand AS (
      SELECT doc_id, unnest(rs) AS r FROM runs
    ), luhn AS (
      SELECT doc_id,
             ((list_sum(list_transform(
                 range(1, length(r) + 1),
                 i -> CASE WHEN (i - 1) % 2 = 1 THEN
                        CASE WHEN 2 * (ascii(r[length(r) - i + 1]) - 48)
                                  > 9
                             THEN 2 * (ascii(r[length(r) - i + 1]) - 48)
                                  - 9
                             ELSE 2 * (ascii(r[length(r) - i + 1]) - 48)
                             END
                      ELSE ascii(r[length(r) - i + 1]) - 48 END))
               % 10) = 0) AS ok
      FROM cand
    ), v AS (
      SELECT doc_id, count(*)::BIGINT AS nv FROM luhn
      WHERE ok GROUP BY doc_id
    )
    SELECT r.doc_id, coalesce(len(r.rs), 0)::BIGINT AS n_candidates,
           coalesce(v.nv, 0)::BIGINT AS n_luhn_valid
    FROM runs r LEFT JOIN v ON v.doc_id = r.doc_id
    ORDER BY r.doc_id
"""




def _q_line_dedup(sf_dir: str):
    """CCNet-style line-level boilerplate removal: every doc gets a
    shared footer line plus an alternating banner so the global line
    census has guaranteed boilerplate to strip; surviving docs
    reassemble from their remaining lines in order."""
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.analysis import line_dedup

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def seed_lines(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.int64()).to_numpy()
        extra = pa.array([
            "\nshared footer line"
            + ("\ncookie banner" if int(i) % 2 == 0
               else f"\npage {int(i)}")
            for i in did
        ], pa.string())
        txt = pc.binary_join_element_wise(
            pc.fill_null(pc.cast(t["text"], pa.string()), ""), extra, ""
        )
        return pa.table({"doc_id": t["doc_id"], "text": txt})

    return line_dedup(ds.map_batches(seed_lines, batch_format="pyarrow"),
                      min_df=2)


_LINE_DEDUP_SQL = """
    WITH t AS (
      SELECT doc_id,
             coalesce(text, '') || chr(10) || 'shared footer line'
             || CASE WHEN doc_id % 2 = 0
                     THEN chr(10) || 'cookie banner'
                     ELSE chr(10) || 'page ' || doc_id::VARCHAR END
               AS text
      FROM documents
    ), sp AS (
      SELECT doc_id, string_split(text, chr(10)) AS parts FROM t
    ), l AS (
      SELECT doc_id, i AS idx, parts[i] AS line
      FROM sp, unnest(generate_series(1, len(parts))) u(i)
    ), dfq AS (
      SELECT line, count(DISTINCT doc_id) AS df FROM l GROUP BY line
    ), k AS (
      SELECT l.doc_id, l.idx, l.line, dfq.df < 2 AS keep
      FROM l JOIN dfq USING (line)
    )
    SELECT doc_id,
           coalesce(string_agg(CASE WHEN keep THEN line END, chr(10)
                               ORDER BY idx), '') AS text,
           count(*)::BIGINT AS n_lines,
           sum(CASE WHEN keep THEN 0 ELSE 1 END)::BIGINT AS n_removed
    FROM k GROUP BY doc_id ORDER BY doc_id
"""




def _q_chunk_passages(sf_dir: str):
    """RAG passage chunking: 16-word windows stepping by 12 (4-word
    overlap), trailing partial kept — stable (doc, passage_idx) ids,
    word-slice replay in SQL."""

    from record_matcher_ray.pipelines.analysis import chunk_passages

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_passages(ds, window=16, overlap=4)


_CHUNK_SQL = """
    WITH d AS (
      SELECT doc_id,
             list_filter(string_split(trim(regexp_replace(
               lower(coalesce(text, '')), '[^a-z0-9]+', ' ', 'g')), ' '),
               x -> x <> '') AS w
      FROM documents
    ), p AS (
      SELECT doc_id, w, i AS passage_idx
      FROM d, unnest(generate_series(
        0, CASE WHEN len(w) = 0 THEN -1 ELSE (len(w) - 1) // 12 END
      )) u(i)
    )
    SELECT doc_id, passage_idx::BIGINT AS passage_idx,
           (passage_idx * 12)::BIGINT AS start_word,
           (least(passage_idx * 12 + 16, len(w))
            - passage_idx * 12)::BIGINT AS n_words,
           array_to_string(
             w[passage_idx * 12 + 1 : least(passage_idx * 12 + 16,
                                            len(w))], ' ') AS passage
    FROM p ORDER BY doc_id, passage_idx
"""


def queries():
    return {
        "token_count_docs": token_counts,
        "luhn_cards_docs": _q_luhn_cards,
        "line_dedup_docs": _q_line_dedup,
        "chunk_passages_docs": _q_chunk_passages,
        "quality_docs": quality,
        "lm_quality_docs": _q_lm_quality,
        "lang_id_docs": _q_lang_id,
        "fingerprint_docs": _q_fingerprints,
        "repetition_docs": _q_repetition,
        "compression_docs": _q_compression,
        "normalize_docs": _q_normalize_text,
        "blocklist_docs": _q_blocklist,
        "char_entropy_docs": _q_char_entropy,
        "script_profile_docs": _q_script_profile,
        "soundex_part": _q_soundex,
        "standardize_docs": _q_standardize,
    }


_STD_VALUES = """('st', 'street'),
                   ('ave', 'avenue'),
                   ('rd', 'road'),
                   ('blvd', 'boulevard'),
                   ('dr', 'drive'),
                   ('ln', 'lane'),
                   ('ct', 'court'),
                   ('hwy', 'highway'),
                   ('apt', 'apartment'),
                   ('ste', 'suite'),
                   ('n', 'north'),
                   ('s', 'south'),
                   ('e', 'east'),
                   ('w', 'west'),
                   ('corp', 'corporation'),
                   ('inc', 'incorporated'),
                   ('co', 'company'),
                   ('ltd', 'limited'),
                   ('llc', 'llc'),
                   ('mt', 'mount'),
                   ('ft', 'fort'),
                   ('jr', 'junior'),
                   ('sr', 'senior')"""


def oracles():
    from record_matcher_ray.contract.shared import BPE, STOP
    stop = STOP  # noqa: F841
    bpe = BPE  # noqa: F841

    return {
        "luhn_cards_docs": _LUHN_SQL,
        "line_dedup_docs": _LINE_DEDUP_SQL,
        "chunk_passages_docs": _CHUNK_SQL,
        "standardize_docs": f"""
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, u.tok, u.pos
              FROM t, LATERAL (
                SELECT unnest(string_split(nt, ' ')) AS tok,
                       generate_subscripts(string_split(nt, ' '), 1) AS pos
              ) u
            ), m(abbr, expd) AS (
              VALUES {_STD_VALUES}
            ), r AS (
              SELECT tok.doc_id, coalesce(m.expd, tok.tok) AS tk, tok.pos,
                     CASE WHEN m.expd IS NULL THEN 0 ELSE 1 END AS hit
              FROM tok LEFT JOIN m ON m.abbr = tok.tok
            )
            SELECT doc_id,
                   string_agg(tk, ' ' ORDER BY pos) AS std_text,
                   sum(hit)::BIGINT AS n_replaced
            FROM r GROUP BY doc_id
        """,
        "lang_id_docs": """
            WITH t AS (
              SELECT doc_id,
                     list_distinct(list_filter(
                       string_split_regex(lower(coalesce(text, '')), '\\s+'),
                       x -> x <> '')) AS toks
              FROM documents
            ), h AS (
              SELECT doc_id, toks,
                len(list_intersect(toks,
                  ['the','and','of','to','in','is','for','with'])) AS en,
                len(list_intersect(toks,
                  ['el','la','de','que','y','en','los','del'])) AS es,
                len(list_intersect(toks,
                  ['le','la','de','et','les','des','un','une'])) AS fr,
                len(list_intersect(toks,
                  ['der','die','und','das','von','mit','den','ein'])) AS de
              FROM t
            )
            SELECT doc_id,
              -- >= comparisons implement the engine's first-wins tie rule
              -- over profile order (en, es, fr, de); all-zero => 'und'
              CASE WHEN en=0 AND es=0 AND fr=0 AND de=0 THEN 'und'
                   WHEN en >= es AND en >= fr AND en >= de THEN 'en'
                   WHEN es >= fr AND es >= de THEN 'es'
                   WHEN fr >= de THEN 'fr' ELSE 'de' END AS pred_lang,
              round(greatest(en,es,fr,de)::DOUBLE / greatest(len(toks), 1), 6)
                AS lang_score
            FROM h
        """,
        "repetition_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), base AS (
              SELECT doc_id,
                     CASE WHEN len(nt) = 0 THEN CAST([] AS VARCHAR[])
                          ELSE string_split(nt, ' ') END AS toks
              FROM t
            ), b AS (
              SELECT doc_id, toks, len(toks) AS n_tokens,
                     len(list_distinct(toks)) AS n_distinct
              FROM base
            ), g2 AS (
              SELECT doc_id, unnest(list_transform(
                generate_series(1, len(toks) - 1),
                i -> toks[i] || chr(31) || toks[i+1])) AS g
              FROM b WHERE n_tokens >= 2
            ), m2 AS (
              SELECT doc_id, max(c) AS mx
              FROM (SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY 1, 2)
              GROUP BY 1
            ), g3 AS (
              SELECT doc_id, unnest(list_transform(
                generate_series(1, len(toks) - 2),
                i -> toks[i] || chr(31) || toks[i+1] || chr(31) || toks[i+2]))
                AS g
              FROM b WHERE n_tokens >= 3
            ), m3 AS (
              SELECT doc_id, max(c) AS mx
              FROM (SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY 1, 2)
              GROUP BY 1
            )
            SELECT b.doc_id, b.n_tokens,
                   round(CASE WHEN b.n_tokens > 0 THEN
                         (b.n_tokens - b.n_distinct)::DOUBLE / b.n_tokens
                         ELSE 0 END, 6) AS dup_token_frac,
                   round(coalesce(m2.mx, 0)::DOUBLE /
                         greatest(b.n_tokens - 1, 1), 6) AS top2gram_frac,
                   round(coalesce(m3.mx, 0)::DOUBLE /
                         greatest(b.n_tokens - 2, 1), 6) AS top3gram_frac
            FROM b LEFT JOIN m2 USING (doc_id) LEFT JOIN m3 USING (doc_id)
        """,
        "lm_quality_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), counts AS (
              SELECT term, count(*)::BIGINT AS c FROM tok GROUP BY term
            ), tot AS (
              SELECT sum(c)::DOUBLE AS n FROM counts
            ), vocab AS (
              SELECT term, c FROM counts ORDER BY c DESC, term LIMIT 4096
            ), lp AS (
              SELECT tok.doc_id,
                     coalesce(ln(v.c::DOUBLE / (SELECT n FROM tot)),
                              ln(1.0 / (SELECT n FROM tot))) AS l
              FROM tok LEFT JOIN vocab v ON tok.term = v.term
            )
            SELECT doc_id, count(*)::BIGINT AS n_tokens,
                   round(-avg(l), 6) AS xent
            FROM lp GROUP BY doc_id
        """,
        "token_count_docs": f"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+'))::bigint AS n_ws_tokens,
                   len(regexp_extract_all(text, '{bpe}'))::bigint AS n_bpe_tokens,
                   length(text)::bigint AS n_chars_obs
            FROM documents
        """,
        "normalize_docs": r"""
            WITH n AS (
              SELECT doc_id,
                     regexp_replace(
                       regexp_replace(
                         lower(nfc_normalize(coalesce(text, ''))),
                         '\s+', ' ', 'g'),
                       '^ | $', '', 'g') AS text
              FROM documents
            )
            SELECT doc_id, text, length(text)::BIGINT AS n_chars_norm
            FROM n
        """,
        "blocklist_docs": _blocklist_oracle(),
        "script_profile_docs": r"""
            WITH b AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents
            ), c AS (
              SELECT doc_id, length(t)::BIGINT AS n_chars_obs,
                length(regexp_replace(t, '[^A-Za-z]', '', 'g'))::BIGINT
                  AS n_latin,
                length(regexp_replace(t, '[^0-9]', '', 'g'))::BIGINT
                  AS n_digit,
                length(regexp_replace(t, '[^\t\n\x0B\x0C\r ]', '', 'g')
                  )::BIGINT AS n_space,
                length(regexp_replace(t, '[^\x{0400}-\x{04FF}]', '', 'g')
                  )::BIGINT AS n_cyrillic,
                length(regexp_replace(t, '[^\x{4E00}-\x{9FFF}]', '', 'g')
                  )::BIGINT AS n_cjk
              FROM b
            )
            SELECT doc_id, n_chars_obs, n_latin, n_digit, n_space,
                   n_cyrillic, n_cjk,
                   (n_chars_obs - n_latin - n_digit - n_space
                    - n_cyrillic - n_cjk)::BIGINT AS n_other
            FROM c
        """,
        "soundex_part": """
            WITH l AS (
              SELECT p_partkey,
                     upper(regexp_replace(coalesce(p_name, ''),
                                          '[^A-Za-z]', '', 'g')) AS ls
              FROM part
            ), d AS (
              SELECT p_partkey, ls,
                     translate(ls, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ',
                               '01230120022455012623010202') AS dg
              FROM l
            ), c AS (
              -- collapse runs per digit (RE2 has no backreferences)
              SELECT p_partkey, ls,
                regexp_replace(regexp_replace(regexp_replace(
                regexp_replace(regexp_replace(regexp_replace(
                regexp_replace(dg,
                  '0+', '0', 'g'), '1+', '1', 'g'), '2+', '2', 'g'),
                  '3+', '3', 'g'), '4+', '4', 'g'), '5+', '5', 'g'),
                  '6+', '6', 'g') AS cs
              FROM d
            )
            SELECT p_partkey,
                   CASE WHEN ls = '' THEN ''
                        ELSE substr(ls, 1, 1) ||
                             rpad(substr(replace(substr(cs, 2), '0', ''),
                                         1, 3), 3, '0')
                   END AS soundex
            FROM c
        """,
        "char_entropy_docs": r"""
            WITH base AS (
              SELECT doc_id, coalesce(text, '') AS t FROM documents
            ), ch AS (
              SELECT doc_id, unnest(regexp_split_to_array(t, '')) AS c
              FROM base WHERE length(t) > 0
            ), cnt AS (
              SELECT doc_id, c, count(*)::BIGINT AS k
              FROM ch GROUP BY doc_id, c
            ), agg AS (
              SELECT doc_id, (sum(k))::BIGINT AS n,
                     count(*)::BIGINT AS n_distinct,
                     list_sum(list((k::DOUBLE) * ln(k::DOUBLE) ORDER BY c))
                       AS s
              FROM cnt GROUP BY doc_id
            )
            SELECT b.doc_id,
                   coalesce(a.n, 0)::BIGINT AS n_chars_obs,
                   coalesce(a.n_distinct, 0)::BIGINT AS n_distinct_chars,
                   CASE WHEN a.n IS NULL THEN NULL
                        ELSE floor((ln((a.n)::DOUBLE)
                                    - a.s / (a.n)::DOUBLE) * 1e6 + 0.5)
                             / 1e6 END AS char_entropy
            FROM base b LEFT JOIN agg a USING (doc_id)
        """,
        "quality_docs": f"""
            WITH t AS (
              SELECT doc_id, text,
                     regexp_extract_all(text, '\\S+') AS toks
              FROM documents
            )
            SELECT doc_id,
                   len(toks)::bigint AS n_tokens,
                   round(CASE WHEN len(toks) = 0 THEN 0.0
                         ELSE list_sum(list_transform(toks, x -> length(x)))::double
                              / len(toks) END, 6) AS mean_token_len,
                   round(CASE WHEN len(toks) = 0 THEN 0.0
                         ELSE len(list_filter(toks, x -> lower(x) IN ({stop})))::double
                              / len(toks) END, 6) AS stopword_ratio,
                   round(len(regexp_extract_all(text, '[^\\w\\s]'))::double
                         / greatest(length(text), 1), 6) AS punct_ratio,
                   round(len(regexp_extract_all(text, '[A-Z]'))::double
                         / greatest(length(text), 1), 6) AS upper_ratio
            FROM t
        """,
        **_hash_oracles(),
    }
