"""Contract — search & term statistics (BM25, TF-IDF, census).

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.contract.shared import (  # noqa: F401
    _SQL_M,
    _sql_mulmod,
    _sql_xorshift,
)
from record_matcher_ray.sources.readers import read_table


def _q_bm25_topk(sf_dir: str):
    """Ranked retrieval: top-10 docs by BM25 for the fixed query, ties by
    doc_id ascending (deterministic cut)."""

    from record_matcher_ray.pipelines.terms import bm25_topk

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return bm25_topk(ds, "merge scan vector window", k=10)


def _q_top_terms(sf_dir: str):
    """Global top-100 terms with occurrence + document frequency —
    partial factorize+bincount per block, one vocab-sized groupby."""

    from record_matcher_ray.pipelines.terms import top_terms

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return top_terms(ds, k=100)


def _q_hashed_tfidf(sf_dir: str):
    """Feature-hashing TF-IDF vectors (32 dims), flattened to long format
    (doc_id, dim, tfidf) for the hash compare."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.terms import hashed_tfidf

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = hashed_tfidf(ds, n_dims=32)

    def flat(t: pa.Table) -> pa.Table:
        feats = t["features"].combine_chunks()
        vals = feats.flatten().to_numpy(zero_copy_only=False)
        ids = np.repeat(t["doc_id"].to_numpy(), 32)
        dims = np.tile(np.arange(32, dtype=np.int64), len(t))
        return pa.table(
            {"doc_id": pa.array(ids), "dim": pa.array(dims),
             "tfidf": pa.array(vals, pa.float64())}
        )

    return out.map_batches(flat, batch_format="pyarrow")


def _hashed_tfidf_oracle(n_dims: int = 32) -> str:
    """Hash-exact replay of terms.hashed_tfidf: token → Horner polynomial
    over the first ≤8 chars (mod 2^64, HUGEINT-reduced every 3rd step) →
    splitmix64 → dim/sign bits; signed tf and df are exact integers, the
    single ln((N+1)/(df+1))+1 double matches libm (CLAUDE.md recipe)."""
    M = _SQL_M
    branches = []
    for length in range(1, 9):
        expr = "ascii(substr(w,1,1))::HUGEINT"
        for kk in range(2, length + 1):
            expr = f"({expr} * 1000003 + ascii(substr(w,{kk},1)))"
            if kk % 3 == 0:
                expr = f"({expr} % {M})"
        branches.append(f"WHEN {length} THEN ({expr}) % {M}")
    poly = "CASE length(w) " + " ".join(branches) + " ELSE 0 END"
    m1 = _sql_mulmod(_sql_xorshift("p", 30), 0xBF58476D1CE4E5B9)
    m2 = _sql_mulmod(_sql_xorshift("h", 27), 0x94D049BB133111EB)
    return f"""
        WITH t AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(coalesce(text, '')),
                                     '[^a-z0-9]+', ' ', 'g')) AS nt
          FROM documents
        ), tok AS (
          SELECT doc_id, unnest(string_split(nt, ' ')) AS term
          FROM t WHERE len(nt) > 0
        ), tokw AS (
          SELECT doc_id, substr(term, 1, 8) AS w FROM tok
        ), poly AS (
          SELECT doc_id, ({poly}) AS p FROM tokw
        ), m1 AS (
          SELECT doc_id, {m1} AS h FROM poly
        ), m2 AS (
          SELECT doc_id, {m2} AS h FROM m1
        ), dims AS (
          SELECT doc_id,
                 (xor(h::UBIGINT, h::UBIGINT >> 31) % {n_dims})::BIGINT
                   AS dim,
                 CASE WHEN (xor(h::UBIGINT, h::UBIGINT >> 31) >> 33) & 1 = 1
                      THEN 1 ELSE -1 END AS sgn
          FROM m2
        ), stf AS (
          SELECT doc_id, dim, sum(sgn)::DOUBLE AS stf
          FROM dims GROUP BY 1, 2
        ), dfd AS (
          SELECT dim, count(DISTINCT doc_id)::BIGINT AS dfd
          FROM dims GROUP BY 1
        ), n AS (SELECT count(*)::BIGINT AS nd FROM documents),
        grid AS (
          SELECT d.doc_id, gs.dim
          FROM documents d,
               (SELECT unnest(generate_series(0, {n_dims - 1}))::BIGINT
                  AS dim) gs
        )
        SELECT g.doc_id, g.dim,
               round(coalesce(s.stf, 0.0)
                     * (ln((n.nd + 1.0) / (coalesce(f.dfd, 0) + 1.0)) + 1.0),
                     6) AS tfidf
        FROM grid g
        LEFT JOIN stf s ON s.doc_id = g.doc_id AND s.dim = g.dim
        LEFT JOIN dfd f ON f.dim = g.dim
        CROSS JOIN n
    """


def _q_inverted_index(sf_dir: str):
    """Inverted-index build (min_df=2, postings capped at 20), exploded to
    (term, df, doc_id) long rows for the hash compare."""
    import pyarrow as pa


    from record_matcher_ray.pipelines.terms import inverted_index

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = inverted_index(ds, min_df=2, max_postings=20)

    def explode(t: pa.Table) -> pa.Table:
        p = t["postings"].combine_chunks()
        lens = np.diff(p.offsets.to_numpy().astype(np.int64))
        rep = pa.array(np.repeat(np.arange(len(t)), lens))
        return pa.table(
            {"term": t["term"].take(rep),
             "df": t["df"].take(rep),
             "doc_id": p.flatten()}
        )

    return out.map_batches(explode, batch_format="pyarrow")


def _q_bm25(sf_dir: str):
    """BM25 lexical relevance to a fixed query — broadcast idf table from
    one O(|query|)-rows-per-block aggregate pass, zero-shuffle scoring."""

    from record_matcher_ray.pipelines.terms import bm25_scores

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return bm25_scores(ds, "merge scan vector window",
                       text_col="text", id_col="doc_id")


def _q_pmi(sf_dir: str):
    """Top-vocab PMI co-occurrence over documents (V=48)."""

    from record_matcher_ray.pipelines.terms import pmi_cooccurrence

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pmi_cooccurrence(ds, vocab_k=48)


def _q_chao1(sf_dir: str):
    """Chao1 unseen-vocabulary estimate from exact term counts."""

    from record_matcher_ray.pipelines.terms import chao1_vocab

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chao1_vocab(ds)


def _q_heaps(sf_dir: str):
    """Heaps'-law vocabulary-growth curve: per doc (ascending doc_id),
    new terms introduced, token count, running vocab/token totals."""

    from record_matcher_ray.pipelines.terms import heaps_curve

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return heaps_curve(ds)


def _q_zipf(sf_dir: str):
    """Zipf's-law OLS fit (ln freq ~ ln rank) over the corpus's
    top-128 terms."""

    from record_matcher_ray.pipelines.terms import zipf_fit

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return zipf_fit(ds, k=128)


def _q_hybrid_search(sf_dir: str):
    """Hybrid retrieval: BM25 lexical top-20 fused with the exact
    quantized-cosine top-20 neighbors of doc 0's embedding via
    Reciprocal Rank Fusion (k=60) — the classic two-leg search stack."""

    from record_matcher_ray.pipelines.similarity import (
        exact_cosine_topk,
        rrf_fuse,
    )
    from record_matcher_ray.pipelines.terms import bm25_topk

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    lex = bm25_topk(docs, "merge scan vector window", k=20).to_pandas()
    lex = lex.rename(columns={"doc_id": "id"})
    emb = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    sem = exact_cosine_topk(emb, query_id=0, k=20)
    return rrf_fuse([lex, sem], k=60)


def _q_top_terms_by_source(sf_dir: str):
    """Per-source top-10 terms (vocabulary census per shard)."""

    from record_matcher_ray.pipelines.terms import top_terms_by_group

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return top_terms_by_group(ds, "source", k=10)


def _q_term_kl(sf_dir: str):
    """Per-source term-distribution KL divergence vs the corpus blend
    (mixture drift monitoring)."""

    from record_matcher_ray.pipelines.terms import term_kl_divergence

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    return term_kl_divergence(ds, "source")


def _q_tfidf_pairs(sf_dir: str):
    """Sparse TF-IDF cosine similarity join over documents: all pairs
    with cosine >= 0.5 in the df<=100-pruned term space (term-at-a-time
    exchange, exact integer dots)."""

    from record_matcher_ray.pipelines.terms import tfidf_cosine_pairs

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_cosine_pairs(ds, threshold=0.5, max_df=100)


def _q_ndcg(sf_dir: str):
    """nDCG@10 of the BM25 ranking vs a term-overlap relevance grade —
    pinned-order DCG/IDCG folds, libm log2 both sides."""

    from record_matcher_ray.pipelines.terms import ndcg_at_k

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ndcg_at_k(ds, "merge scan vector window", k=10)


def _q_search_eval(sf_dir: str):
    """Recall@10 + MRR of the BM25 ranking vs term-overlap relevance."""

    from record_matcher_ray.pipelines.terms import search_eval_at_k

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return search_eval_at_k(ds, "merge scan vector window", k=10)




_BPE_MERGES = 12
_BPE_WORDS = 2048


def _q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (Sennrich-style): one corpus
    word-frequency reduce + the greedy merge loop on the capped vocab —
    the merge TABLE itself is the result, all-integer so the DuckDB
    replay of every single merge iteration is hash-exact."""

    from record_matcher_ray.pipelines.terms import bpe_train

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return bpe_train(ds, num_merges=_BPE_MERGES, max_words=_BPE_WORDS)


def _q_bpe_encode(sf_dir: str):
    """Apply the trained merge table back to the corpus → per-doc
    subword token counts (the vocab-fit diagnostic). Vectorized: K
    literal-replace Arrow passes, zero shuffle."""

    from record_matcher_ray.pipelines.terms import bpe_encode, bpe_train

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    m = bpe_train(
        read_table(f"{sf_dir}/documents.parquet",
                              columns=["text"]),
        num_merges=_BPE_MERGES, max_words=_BPE_WORDS,
    )
    return bpe_encode(ds, m)


def _bpe_train_ctes(K: int, V: int) -> str:
    """Chained-CTE replay of the ENTIRE greedy BPE training: per
    iteration, pair counts from the space-joined symbol sequences
    (list_zip of the split against its own [2:] slice), argmax with the
    (count DESC, lhs, rhs) tie-break, and the non-overlapping
    left-to-right padded literal replace — DuckDB replace == Python
    str.replace semantics, so every iteration is value-identical."""
    steps = []
    prev = "it0"
    for k in range(1, K + 1):
        steps.append(f"""
        p{k} AS (
          SELECT z[1] AS a, z[2] AS b, sum(freq)::BIGINT AS c
          FROM {prev}, unnest(list_zip(string_split(seq, ' '),
                                       string_split(seq, ' ')[2:])) AS u(z)
          WHERE z[2] IS NOT NULL
          GROUP BY a, b
        ), m{k} AS MATERIALIZED (
          SELECT a, b, c FROM p{k} ORDER BY c DESC, a, b LIMIT 1
        ), it{k} AS MATERIALIZED (
          SELECT w, freq,
                 trim(replace(' ' || seq || ' ',
                      ' ' || (SELECT a FROM m{k}) || ' '
                          || (SELECT b FROM m{k}) || ' ',
                      ' ' || (SELECT a || b FROM m{k}) || ' ')) AS seq
          FROM {prev}
        )""")
        prev = f"it{k}"
    return f"""
        words AS (
          SELECT unnest(string_split(trim(regexp_replace(
                   lower(coalesce(text, '')), '[^a-z0-9]+', ' ', 'g')),
                 ' ')) AS w
          FROM documents
        ), wc AS (
          SELECT w, count(*)::BIGINT AS freq FROM words WHERE w <> ''
          GROUP BY w ORDER BY freq DESC, w LIMIT {V}
        ), it0 AS MATERIALIZED (
          SELECT w, freq,
                 array_to_string(
                   list_append(regexp_extract_all(w, '.'), '_'), ' '
                 ) AS seq
          FROM wc
        ),{",".join(steps)}"""


def _bpe_merges_sql(K: int = _BPE_MERGES, V: int = _BPE_WORDS) -> str:
    sel = " UNION ALL ".join(
        f"SELECT {k}::BIGINT AS merge_rank, a AS lhs, b AS rhs, "
        f"c::BIGINT AS pair_count FROM m{k}"
        for k in range(1, K + 1)
    )
    return (f"WITH {_bpe_train_ctes(K, V)} "
            f"SELECT * FROM ({sel}) ORDER BY merge_rank")


def _bpe_encode_sql(K: int = _BPE_MERGES, V: int = _BPE_WORDS) -> str:
    reps = []
    prev = "' ' || seq || ' '"
    for k in range(1, K + 1):
        prev = (f"replace({prev}, ' ' || (SELECT a FROM m{k}) || ' ' || "
                f"(SELECT b FROM m{k}) || ' ', "
                f"' ' || (SELECT a || b FROM m{k}) || ' ')")
    return f"""
        WITH {_bpe_train_ctes(K, V)},
        d0 AS (
          SELECT doc_id,
                 trim(regexp_replace(lower(coalesce(text, '')),
                      '[^a-z0-9]+', ' ', 'g')) AS nt
          FROM documents
        ), d1 AS (
          SELECT doc_id,
                 CASE WHEN nt = '' THEN 0
                      ELSE len(string_split(nt, ' ')) END AS n_words,
                 array_to_string(regexp_extract_all(
                   replace(nt, ' ', '_') || '_', '.'), ' ') AS seq
          FROM d0
        )
        SELECT doc_id, n_words::BIGINT AS n_words,
               len(string_split(trim({prev}), ' '))::BIGINT AS n_tokens
        FROM d1 ORDER BY doc_id
    """


def queries():
    return {
        "top_terms_docs": _q_top_terms,
        "bpe_merges_docs": _q_bpe_merges,
        "bpe_encode_docs": _q_bpe_encode,
        "hashed_tfidf_docs": _q_hashed_tfidf,
        "inverted_index_docs": _q_inverted_index,
        "bm25_docs": _q_bm25,
        "bm25_topk_docs": _q_bm25_topk,
        "pmi_cooccurrence_docs": _q_pmi,
        "tfidf_pairs_docs": _q_tfidf_pairs,
        "top_terms_by_source": _q_top_terms_by_source,
        "term_kl_docs": _q_term_kl,
        "hybrid_search_docs": _q_hybrid_search,
        "zipf_docs": _q_zipf,
        "heaps_docs": _q_heaps,
        "chao1_docs": _q_chao1,
        "ndcg_docs": _q_ndcg,
        "search_eval_docs": _q_search_eval,
    }


def oracles():
    return {
        "bpe_merges_docs": _bpe_merges_sql(),
        "bpe_encode_docs": _bpe_encode_sql(),
        "search_eval_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), q AS (
              SELECT unnest(['merge', 'scan', 'vector', 'window']) AS term
            ), consts AS (
              SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
                     (SELECT count(*) FROM tok)::DOUBLE AS n_toks
            ), dl AS (
              SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
            ), df AS (
              SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY term
            ), tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term
            ), scored AS (
              SELECT tf.doc_id,
                     round(sum(
                       ln((consts.n_docs - df.df + 0.5) / (df.df + 0.5)
                          + 1.0)
                       * tf.tf * (1.2 + 1.0)
                       / (tf.tf + 1.2 * (1.0 - 0.75
                          + 0.75 * dl.dl
                            / (consts.n_toks / consts.n_docs)))
                     ), 6) AS bm25
              FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
              CROSS JOIN consts
              GROUP BY tf.doc_id
            ), ranked AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY bm25 DESC, doc_id) AS rn
              FROM scored QUALIFY rn <= 10
            ), rel AS (
              SELECT DISTINCT doc_id FROM tok
              WHERE term IN (SELECT term FROM q)
            ), hits AS (
              SELECT ranked.doc_id, ranked.rn FROM ranked
              JOIN rel USING (doc_id)
            ), agg AS (
              SELECT (SELECT count(*) FROM rel)::BIGINT AS n_rel,
                     (SELECT count(*) FROM hits)::BIGINT AS n_hit,
                     (SELECT min(rn) FROM hits) AS first_rn
            )
            SELECT 10::BIGINT AS k, n_rel AS n_relevant,
                   n_hit AS n_retrieved_relevant,
                   CASE WHEN n_rel > 0
                        THEN floor((n_hit::DOUBLE) / (n_rel::DOUBLE)
                                   * 1000000.0 + 0.5) / 1000000.0
                        ELSE NULL END AS recall,
                   CASE WHEN first_rn IS NOT NULL
                        THEN floor(1.0 / (first_rn::DOUBLE)
                                   * 1000000.0 + 0.5) / 1000000.0
                        ELSE 0.0 END AS mrr
            FROM agg
        """,
        "ndcg_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), q AS (
              SELECT unnest(['merge', 'scan', 'vector', 'window']) AS term
            ), consts AS (
              SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
                     (SELECT count(*) FROM tok)::DOUBLE AS n_toks
            ), dl AS (
              SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
            ), df AS (
              SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY term
            ), tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term
            ), scored AS (
              SELECT tf.doc_id,
                     round(sum(
                       ln((consts.n_docs - df.df + 0.5) / (df.df + 0.5)
                          + 1.0)
                       * tf.tf * (1.2 + 1.0)
                       / (tf.tf + 1.2 * (1.0 - 0.75
                          + 0.75 * dl.dl
                            / (consts.n_toks / consts.n_docs)))
                     ), 6) AS bm25
              FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
              CROSS JOIN consts
              GROUP BY tf.doc_id
            ), ranked AS (
              SELECT doc_id,
                     row_number() OVER (ORDER BY bm25 DESC, doc_id) AS rn
              FROM scored QUALIFY rn <= 10
            ), rel AS (
              SELECT d.doc_id,
                     coalesce((SELECT count(DISTINCT tok.term) FROM tok
                               WHERE tok.doc_id = d.doc_id
                                 AND tok.term IN (SELECT term FROM q)),
                              0)::BIGINT AS rel
              FROM documents d
            ), dcg AS (
              SELECT coalesce(list_reduce(
                       list((rel.rel::DOUBLE) / log2((rn + 1)::DOUBLE)
                            ORDER BY rn), (a, b) -> a + b), 0.0) AS v
              FROM ranked JOIN rel USING (doc_id)
            ), ideal AS (
              SELECT rel,
                     row_number() OVER (ORDER BY rel DESC, doc_id) AS rn
              FROM rel QUALIFY rn <= 10
            ), idcg AS (
              SELECT coalesce(list_reduce(
                       list((rel::DOUBLE) / log2((rn + 1)::DOUBLE)
                            ORDER BY rn), (a, b) -> a + b), 0.0) AS v
              FROM ideal
            )
            SELECT 10::BIGINT AS k,
                   floor(dcg.v * 1000000.0 + 0.5) / 1000000.0 AS dcg,
                   floor(idcg.v * 1000000.0 + 0.5) / 1000000.0 AS idcg,
                   CASE WHEN idcg.v > 0
                        THEN floor(dcg.v / idcg.v * 1000000.0 + 0.5)
                             / 1000000.0
                        ELSE NULL END AS ndcg
            FROM dcg, idcg
        """,
        "chao1_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), c AS (
              SELECT term, count(*)::BIGINT AS n_occ
              FROM tok GROUP BY term
            ), f AS (
              SELECT count(*)::BIGINT AS d,
                     (sum(CASE WHEN n_occ = 1 THEN 1 ELSE 0 END))::BIGINT
                       AS f1,
                     (sum(CASE WHEN n_occ = 2 THEN 1 ELSE 0 END))::BIGINT
                       AS f2
              FROM c
            )
            SELECT coalesce(d, 0) AS n_terms, coalesce(f1, 0) AS f1,
                   coalesce(f2, 0) AS f2,
                   CASE WHEN coalesce(f2, 0) = 0 THEN NULL
                        ELSE floor(((d)::DOUBLE
                                    + (f1)::DOUBLE * (f1)::DOUBLE
                                      / ((2.0)::DOUBLE * (f2)::DOUBLE))
                                   * 1000000.0 + 0.5) / 1000000.0
                   END AS chao1
            FROM f
        """,
        "heaps_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), fd AS (
              SELECT term, min(doc_id) AS fdoc FROM tok GROUP BY term
            ), newt AS (
              SELECT fdoc AS doc_id, count(*)::BIGINT AS n_new
              FROM fd GROUP BY fdoc
            ), dt AS (
              SELECT doc_id, count(*)::BIGINT AS n_tok
              FROM tok GROUP BY doc_id
            ), j AS (
              SELECT d.doc_id,
                     (coalesce(n.n_new, 0))::BIGINT AS n_new,
                     (coalesce(k.n_tok, 0))::BIGINT AS n_tok
              FROM documents d
              LEFT JOIN newt n ON d.doc_id = n.doc_id
              LEFT JOIN dt k ON d.doc_id = k.doc_id
            )
            SELECT doc_id, n_new, n_tok,
                   (sum(n_new) OVER (ORDER BY doc_id))::BIGINT AS vocab,
                   (sum(n_tok) OVER (ORDER BY doc_id))::BIGINT
                     AS cum_tokens
            FROM j
        """,
        "zipf_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), c AS (
              SELECT term, count(*)::BIGINT AS n_occ FROM tok GROUP BY term
            ), top AS (
              SELECT n_occ,
                     row_number() OVER (ORDER BY n_occ DESC, term ASC) AS r
              FROM c ORDER BY n_occ DESC, term ASC LIMIT 128
            ), p AS (
              SELECT r, ln((r)::DOUBLE) AS x, ln((n_occ)::DOUBLE) AS y
              FROM top
            ), f AS (
              SELECT count(*)::BIGINT AS n,
                     list_reduce(list_prepend((0.0)::DOUBLE,
                                              list(x ORDER BY r)),
                                 (s, v) -> s + v) AS sx,
                     list_reduce(list_prepend((0.0)::DOUBLE,
                                              list(y ORDER BY r)),
                                 (s, v) -> s + v) AS sy,
                     list_reduce(list_prepend((0.0)::DOUBLE,
                                              list(x * y ORDER BY r)),
                                 (s, v) -> s + v) AS sxy,
                     list_reduce(list_prepend((0.0)::DOUBLE,
                                              list(x * x ORDER BY r)),
                                 (s, v) -> s + v) AS sxx
              FROM p
            ), g AS (
              SELECT n,
                     CASE WHEN n < 2
                               OR (n)::DOUBLE * sxx - sx * sx = (0.0)::DOUBLE
                          THEN NULL
                          ELSE ((n)::DOUBLE * sxy - sx * sy)
                               / ((n)::DOUBLE * sxx - sx * sx)
                     END AS slope,
                     sx, sy
              FROM f
            ), h AS (
              SELECT n, slope,
                     CASE WHEN slope IS NULL THEN NULL
                          ELSE (sy - slope * sx) / (n)::DOUBLE
                     END AS icept
              FROM g
            )
            SELECT n AS n_terms,
                   CASE WHEN slope IS NULL THEN NULL
                        WHEN slope >= 0
                        THEN floor(slope * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-slope * 1000000.0 + 0.5) / 1000000.0
                   END AS slope,
                   CASE WHEN icept IS NULL THEN NULL
                        WHEN icept >= 0
                        THEN floor(icept * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-icept * 1000000.0 + 0.5) / 1000000.0
                   END AS intercept
            FROM h
        """,
        "hybrid_search_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), qq AS (
              SELECT unnest(['merge', 'scan', 'vector', 'window']) AS term
            ), consts AS (
              SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
                     (SELECT count(*) FROM tok)::DOUBLE AS n_toks
            ), dl AS (
              SELECT doc_id, count(*)::DOUBLE AS dl FROM tok
              GROUP BY doc_id
            ), dfq AS (
              SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok
              WHERE term IN (SELECT term FROM qq) GROUP BY term
            ), tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
              WHERE term IN (SELECT term FROM qq) GROUP BY doc_id, term
            ), bscore AS (
              SELECT tf.doc_id,
                     round(sum(
                       ln((consts.n_docs - dfq.df + 0.5)
                          / (dfq.df + 0.5) + 1.0)
                       * tf.tf * (1.2 + 1.0)
                       / (tf.tf + 1.2 * (1.0 - 0.75
                          + 0.75 * dl.dl
                            / (consts.n_toks / consts.n_docs)))
                     ), 6) AS bm25
              FROM tf JOIN dfq USING (term) JOIN dl USING (doc_id)
              CROSS JOIN consts
              GROUP BY tf.doc_id
            ), lex AS (
              SELECT doc_id AS id,
                     row_number() OVER (ORDER BY bm25 DESC, doc_id) AS r
              FROM bscore QUALIFY r <= 20
            ), qv AS (
              SELECT vec_id AS id, i AS dim,
                     CAST(floor((embedding[i])::DOUBLE * 1048576.0 + 0.5)
                          AS HUGEINT) AS q
              FROM embeddings,
                   unnest(generate_series(1, len(embedding))) AS u(i)
            ), nrm AS (SELECT id, sum(q*q) AS nv FROM qv GROUP BY id),
            dotq AS (
              SELECT b.id, sum(a.q * b.q) AS dot
              FROM qv a JOIN qv b ON a.dim = b.dim
              WHERE a.id = 0 AND b.id <> 0
              GROUP BY b.id
            ), sem AS (
              SELECT d.id,
                     row_number() OVER (
                       ORDER BY (d.dot)::DOUBLE
                                / (sqrt((nb.nv)::DOUBLE)
                                   * sqrt((n0.nv)::DOUBLE)) DESC, d.id
                     ) AS r
              FROM dotq d
              JOIN nrm nb ON nb.id = d.id
              JOIN nrm n0 ON n0.id = 0
              WHERE nb.nv > 0 AND n0.nv > 0
              QUALIFY r <= 20
            ), fused AS (
              SELECT coalesce(l.id, s.id) AS id,
                     (CASE WHEN l.r IS NOT NULL
                           THEN (1.0)::DOUBLE / ((60 + l.r))::DOUBLE
                           ELSE (0.0)::DOUBLE END)
                   + (CASE WHEN s.r IS NOT NULL
                           THEN (1.0)::DOUBLE / ((60 + s.r))::DOUBLE
                           ELSE (0.0)::DOUBLE END) AS score
              FROM lex l FULL OUTER JOIN sem s ON l.id = s.id
            )
            SELECT (id)::BIGINT AS id,
                   floor(score * 1000000000.0 + 0.5) / 1000000000.0
                     AS rrf,
                   (row_number() OVER (ORDER BY score DESC, id))::BIGINT
                     AS rank
            FROM fused
        """,
        "top_terms_by_source": """
            WITH t AS (
              SELECT doc_id, source,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents WHERE source IS NOT NULL
            ), tok AS (
              SELECT source AS grp, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), c AS (
              SELECT grp, term, count(*)::BIGINT AS n_occ
              FROM tok GROUP BY 1, 2
            )
            SELECT grp, term, n_occ,
                   row_number() OVER (PARTITION BY grp
                                      ORDER BY n_occ DESC, term)
                     ::BIGINT AS rnk
            FROM c
            QUALIFY rnk <= 10
        """,
        "term_kl_docs": """
            WITH t AS (
              SELECT doc_id, (source)::VARCHAR AS grp,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents WHERE source IS NOT NULL
            ), tok AS (
              SELECT grp, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), c AS (
              SELECT grp, term, count(*)::BIGINT AS n_occ
              FROM tok GROUP BY 1, 2
            ), corp AS (
              SELECT term, sum(n_occ)::BIGINT AS n FROM c GROUP BY term
            ), tot AS (
              SELECT sum(n_occ)::BIGINT AS n FROM c
            ), gtot AS (
              SELECT grp, sum(n_occ)::BIGINT AS n_tokens
              FROM c GROUP BY grp
            ), contrib AS (
              SELECT c.grp, c.term,
                     ((c.n_occ)::DOUBLE / (g.n_tokens)::DOUBLE)
                     * ln(((c.n_occ)::DOUBLE / (g.n_tokens)::DOUBLE)
                          / ((corp.n)::DOUBLE / (tot.n)::DOUBLE)) AS x
              FROM c JOIN gtot g ON g.grp = c.grp
                     JOIN corp ON corp.term = c.term
                     CROSS JOIN tot
            ), folded AS (
              SELECT grp,
                     list_sum(list(x ORDER BY term)) AS kl
              FROM contrib GROUP BY grp
            )
            SELECT g.grp, g.n_tokens,
                   CASE WHEN f.kl >= 0
                        THEN floor(f.kl * 1000000.0 + 0.5) / 1000000.0
                        ELSE -floor(-f.kl * 1000000.0 + 0.5) / 1000000.0
                   END AS kl
            FROM gtot g JOIN folded f ON f.grp = g.grp
        """,
        "tfidf_pairs_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), tf AS (
              SELECT doc_id, term,
                     least(count(*), 4096)::BIGINT AS tf
              FROM tok GROUP BY 1, 2
            ), dfreq AS (
              SELECT term, count(*)::BIGINT AS df
              FROM tf GROUP BY term HAVING count(*) <= 100
            ), nn AS (SELECT count(*)::BIGINT AS n FROM documents),
            w AS (
              SELECT tf.doc_id, tf.term,
                     tf.tf * CAST(floor(
                       (ln(((nn.n + 1))::DOUBLE / ((dfreq.df + 1))::DOUBLE)
                        + (1.0)::DOUBLE) * 1024.0 + 0.5) AS BIGINT) AS w
              FROM tf JOIN dfreq USING (term) CROSS JOIN nn
            ), nrm AS (
              SELECT doc_id, sum((w)::HUGEINT * w) AS n2
              FROM w GROUP BY doc_id
            ), d AS (
              SELECT a.doc_id AS ia, b.doc_id AS ib,
                     sum((a.w)::HUGEINT * b.w) AS dot
              FROM w a JOIN w b
                ON a.term = b.term AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ), c AS (
              SELECT ia, ib,
                     (dot)::DOUBLE / (sqrt((na.n2)::DOUBLE)
                                      * sqrt((nb.n2)::DOUBLE)) AS cs
              FROM d JOIN nrm na ON na.doc_id = d.ia
                     JOIN nrm nb ON nb.doc_id = d.ib
            )
            SELECT ia AS a, ib AS b,
                   floor(cs * 1000000.0 + 0.5) / 1000000.0 AS cos_sim
            FROM c WHERE cs >= (0.5)::DOUBLE
        """,
        "pmi_cooccurrence_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tokall AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), tok AS (
              SELECT DISTINCT doc_id, term FROM tokall
            ), occ AS (
              SELECT term, count(*) AS n_occ FROM tokall GROUP BY term
            ), dfc AS (
              SELECT term, count(*) AS df FROM tok GROUP BY term
            ), top AS (
              SELECT d.term, d.df
              FROM occ o JOIN dfc d USING (term)
              ORDER BY o.n_occ DESC, d.term LIMIT 48
            ), nd AS (
              SELECT count(*) AS n FROM documents
            ), pairs AS (
              SELECT a.term AS x, b.term AS y, count(*)::BIGINT AS n_xy
              FROM tok a JOIN tok b
                ON a.doc_id = b.doc_id AND a.term < b.term
              WHERE a.term IN (SELECT term FROM top)
                AND b.term IN (SELECT term FROM top)
              GROUP BY 1, 2
            )
            SELECT p.x, p.y, p.n_xy,
                   round(ln(((nd.n * p.n_xy))::DOUBLE
                            / ((dx.df * dy.df))::DOUBLE), 6) AS pmi
            FROM pairs p
            CROSS JOIN nd
            JOIN top dx ON p.x = dx.term
            JOIN top dy ON p.y = dy.term
        """,
        "hashed_tfidf_docs": _hashed_tfidf_oracle(),
        "inverted_index_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), pairs AS (
              SELECT DISTINCT doc_id, term FROM tok
            ), r AS (
              SELECT term, doc_id,
                     row_number() OVER (PARTITION BY term
                                        ORDER BY doc_id) AS rn,
                     count(*) OVER (PARTITION BY term) AS df
              FROM pairs
            )
            SELECT term, df::BIGINT AS df, doc_id
            FROM r WHERE df >= 2 AND rn <= 20
        """,
        "top_terms_docs": """
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            )
            SELECT term, count(*)::BIGINT AS n_occ,
                   count(DISTINCT doc_id)::BIGINT AS n_docs
            FROM tok GROUP BY term
            ORDER BY n_occ DESC, term LIMIT 100
        """,
        "bm25_docs": """
            -- Okapi/Lucene BM25 (k1=1.2, b=0.75) with
            -- avgdl = total tokens / total documents (empty docs count)
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), q AS (
              SELECT unnest(['merge', 'scan', 'vector', 'window']) AS term
            ), consts AS (
              SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
                     (SELECT count(*) FROM tok)::DOUBLE AS n_toks
            ), dl AS (
              SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
            ), df AS (
              SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY term
            ), tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term
            )
            SELECT tf.doc_id,
                   round(sum(
                     ln((consts.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
                     * tf.tf * (1.2 + 1.0)
                     / (tf.tf + 1.2 * (1.0 - 0.75
                        + 0.75 * dl.dl / (consts.n_toks / consts.n_docs)))
                   ), 6) AS bm25
            FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
            CROSS JOIN consts
            GROUP BY tf.doc_id
        """,
        "bm25_topk_docs": """
            SELECT * FROM (
            -- Okapi/Lucene BM25 (k1=1.2, b=0.75) with
            -- avgdl = total tokens / total documents (empty docs count)
            WITH t AS (
              SELECT doc_id,
                     trim(regexp_replace(lower(coalesce(text, '')),
                                         '[^a-z0-9]+', ' ', 'g')) AS nt
              FROM documents
            ), tok AS (
              SELECT doc_id, unnest(string_split(nt, ' ')) AS term
              FROM t WHERE len(nt) > 0
            ), q AS (
              SELECT unnest(['merge', 'scan', 'vector', 'window']) AS term
            ), consts AS (
              SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
                     (SELECT count(*) FROM tok)::DOUBLE AS n_toks
            ), dl AS (
              SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id
            ), df AS (
              SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY term
            ), tf AS (
              SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok
              WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term
            )
            SELECT tf.doc_id,
                   round(sum(
                     ln((consts.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
                     * tf.tf * (1.2 + 1.0)
                     / (tf.tf + 1.2 * (1.0 - 0.75
                        + 0.75 * dl.dl / (consts.n_toks / consts.n_docs)))
                   ), 6) AS bm25
            FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
            CROSS JOIN consts
            GROUP BY tf.doc_id
        ) ORDER BY bm25 DESC, doc_id LIMIT 10
        """,
    }
