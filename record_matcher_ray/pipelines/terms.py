"""Corpus term statistics: global top-k terms (heavy hitters) with
occurrence and document frequencies.

Scale shape: the classic partial-aggregate pattern — each block reduces
its tokens to (term, n_occ, n_docs) partials via factorize+bincount (a
block's partial is bounded by its VOCABULARY, not its token count), then
one ``groupby(term)`` shuffle merges partials, and the final top-k is a
sort+limit over vocabulary-sized data. Raw tokens never cross the wire.
Document frequency is exact because a document is one row (never split
across blocks).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from record_matcher_ray.core.exchange import bucket_exchange, bucket_ids


def _normalize(text: pa.Array) -> pa.Array:
    """lower + collapse non-alphanumeric runs to single spaces (same
    normalization as analysis.repetition_metrics / its SQL oracle)."""
    t = pc.utf8_lower(pc.fill_null(pc.cast(text, pa.string()), ""))
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(t, r"[^a-z0-9]+", " ")
    )


def _block_tokens(text: pa.ChunkedArray | pa.Array):
    """Vectorized whitespace tokenization of one block's text column →
    (tokens object-array, doc index per token, tokens per doc)."""
    nt = _normalize(text)
    pieces = pc.split_pattern(nt, " ")
    if isinstance(pieces, pa.ChunkedArray):
        pieces = pieces.combine_chunks()
    flat = pieces.flatten()
    off = pieces.offsets.to_numpy().astype(np.int64)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    toks = flat.filter(pa.array(keep)).to_numpy(zero_copy_only=False)
    kept_cum = np.concatenate([[0], np.cumsum(keep, dtype=np.int64)])
    n_per_doc = kept_cum[off[1:]] - kept_cum[off[:-1]]
    doc_idx = np.repeat(np.arange(len(n_per_doc), dtype=np.int64), n_per_doc)
    return toks, doc_idx, n_per_doc


def top_terms(
    ds: ray.data.Dataset,
    k: int = 100,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """→ top-k rows (term, n_occ, n_docs), ordered (n_occ desc, term asc)
    — ties at the cut are deterministic because term is unique."""

    def partial(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        if len(toks) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "n_occ": pa.array([], pa.int64()),
                 "n_docs": pa.array([], pa.int64())}
            )
        codes, uniq = pd.factorize(toks)
        n_occ = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        # exact doc frequency: count distinct (code, doc) pairs per code
        order = np.lexsort((doc_idx, codes))
        cs, ds_ = codes[order], doc_idx[order]
        new = np.empty(len(cs), bool)
        new[0] = True
        new[1:] = (cs[1:] != cs[:-1]) | (ds_[1:] != ds_[:-1])
        n_docs = np.bincount(cs[new], minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {"term": pa.array(uniq.astype(object), pa.string()),
             "n_occ": pa.array(n_occ), "n_docs": pa.array(n_docs)}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_occ", alias_name="n_occ"),
                   Sum("n_docs", alias_name="n_docs"))
    )
    return agg.sort(["n_occ", "term"], descending=[True, False]).limit(k)


_TFIDF_PREFIX = 8  # chars hashed per token (fixed so SQL can replay it)


def token_dims(
    toks: np.ndarray, n_dims: int
) -> tuple[np.ndarray, np.ndarray]:
    """(dim, sign) per token for the hashing trick: splitmix-finalized
    polynomial hash of the token's first ``_TFIDF_PREFIX`` chars (the
    hashkernels.column_hash64 chain — identical constants to the simhash
    SQL oracle), dim = h mod n_dims, sign from bit 33 (independent of the
    low dim bits)."""
    from record_matcher_ray.core.hashkernels import column_hash64

    arr = pc.utf8_slice_codeunits(
        pa.array(toks, pa.string()), 0, _TFIDF_PREFIX
    )
    h = column_hash64(arr)
    dim = (h % np.uint64(n_dims)).astype(np.int64)
    sgn = ((h >> np.uint64(33)) & np.uint64(1)).astype(np.int64) * 2 - 1
    return dim, sgn


def hashed_tfidf(
    ds: ray.data.Dataset,
    n_dims: int = 32,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Feature-hashing TF-IDF document vectors (Weinberger et al., ICML
    2009 "hashing trick"): every token maps to a fixed dimension by hash,
    with a ±1 sign hash to de-bias collisions; feature[d] = signed-tf[d] ×
    idf[d], idf[d] = ln((N+1)/(df[d]+1)) + 1, df[d] = number of documents
    with ≥1 token in dimension d. → rows (id_col, features:
    fixed_size_list<double>[n_dims]).

    Scale shape: same two streaming passes as :func:`bm25_scores` — pass 1
    emits an O(``n_dims``)-row partial per block merged by a fixed-width
    ``groupby`` (raw tokens never shuffle; unlike a vocabulary-sized df
    table, the partial width is constant), the idf vector (``n_dims``
    doubles) rides the task closure, and pass 2 is a zero-shuffle
    vectorized scoring pass. Exchange volume is independent of corpus size
    AND vocabulary size — the point of the hashing trick at 100 TB.
    """

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        df = np.zeros(n_dims, dtype=np.int64)
        if len(toks):
            dim, _ = token_dims(toks, n_dims)
            uk = np.unique(doc_idx * np.int64(n_dims) + dim)
            df = np.bincount(
                uk % np.int64(n_dims), minlength=n_dims
            ).astype(np.int64)
        return pa.table(
            {"dim": pa.array(
                np.concatenate([np.arange(n_dims, dtype=np.int64), [-1]])),
             "df": pa.array(np.concatenate([df, [0]])),
             "n_docs": pa.array([0] * n_dims + [len(n_per_doc)],
                                pa.int64())}
        )

    stats = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(Sum("df", alias_name="df"),
                   Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )
    n_corpus = int(stats["n_docs"].sum())
    df_vec = np.zeros(n_dims, dtype=np.int64)
    real = stats[stats["dim"] >= 0]
    df_vec[real["dim"].to_numpy()] = real["df"].to_numpy()
    idf = np.log((n_corpus + 1.0) / (df_vec + 1.0)) + 1.0

    def score(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        n = len(n_per_doc)
        stf = np.zeros((n, n_dims), dtype=np.float64)
        if len(toks):
            dim, sgn = token_dims(toks, n_dims)
            stf = np.bincount(
                doc_idx * np.int64(n_dims) + dim,
                weights=sgn.astype(np.float64),
                minlength=n * n_dims,
            ).reshape(n, n_dims)
        vals = np.round(stf * idf[None, :], ndigits) + 0.0  # -0.0 → 0.0
        feats = pa.FixedSizeListArray.from_arrays(
            pa.array(vals.ravel(), pa.float64()), n_dims
        )
        return pa.table({id_col: batch[id_col], "features": feats})

    return ds.map_batches(score, batch_format="pyarrow")


def inverted_index(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_df: int = 1,
    max_postings: int = 1_000,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Build an inverted index: → rows (term, df, postings:list<int64>)
    with postings = the first ``max_postings`` doc ids ascending (df stays
    EXACT — the cap only bounds the stored list, so a stopword posting
    row can't blow a block).

    Scale shape: each block emits its DISTINCT (term, doc) pairs (local
    dedupe — a block's output is bounded by its vocabulary × docs, not its
    token count); the exchange key is a ≤``n_buckets`` hash bucket of the
    term, never the raw term; each bucket assembles all its posting lists
    in one vectorized pass (factorize + lexsort + offset slicing — no
    per-term Python). The distinct pair stream IS the index, so exchange
    volume is the information-theoretic minimum for exact postings.
    """

    def pairs(batch: pa.Table) -> pa.Table:
        toks, doc_idx, _ = _block_tokens(batch[text_col])
        ids = batch[id_col].to_numpy()
        if len(toks) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()),
                 "doc": pa.array([], pa.int64())}
            )
        codes, uniq = pd.factorize(toks)
        key = codes.astype(np.int64) * np.int64(len(ids)) + doc_idx
        sel = np.unique(key)
        t_codes = (sel // len(ids)).astype(np.int64)
        d_idx = (sel % len(ids)).astype(np.int64)
        term_arr = pa.array(uniq.astype(object), pa.string()).take(
            pa.array(t_codes)
        )
        return pa.table(
            {"term": term_arr, "doc": pa.array(ids[d_idx].astype(np.int64))}
        )

    def assemble(t: pa.Table) -> pa.Table:
        terms = t["term"].to_numpy(zero_copy_only=False)
        docs = t["doc"].to_numpy()
        codes, uniq = pd.factorize(terms)
        order = np.lexsort((docs, codes))
        c_s, d_s = codes[order], docs[order]
        first = np.concatenate(([True], c_s[1:] != c_s[:-1]))
        starts = np.nonzero(first)[0]
        ends = np.append(starts[1:], len(c_s))
        df = (ends - starts).astype(np.int64)
        keep = df >= min_df
        starts, ends, df = starts[keep], ends[keep], df[keep]
        capped_ends = np.minimum(ends, starts + max_postings)
        # gather capped postings + build list offsets
        lens = capped_ends - starts
        take = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, capped_ends)]
        ) if len(starts) else np.array([], np.int64)
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        postings = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(d_s[take].astype(np.int64))
        )
        return pa.table(
            {"term": pa.array(uniq[c_s[starts]].astype(object),
                              pa.string()),
             "df": pa.array(df),
             "postings": postings}
        )

    return bucket_exchange(
        ds.map_batches(pairs, batch_format="pyarrow"), ["term"], assemble,
        n_buckets,
    )


def bm25_scores(
    ds: ray.data.Dataset,
    query: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k1: float = 1.2,
    b: float = 0.75,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """BM25 lexical relevance of every document to a short query string →
    rows (id_col, bm25) for documents containing at least one query term.

    Scale shape: the query's term set is tiny and rides in the task
    closure (broadcast); corpus statistics come from ONE partial-aggregate
    pass whose per-block output is O(|query terms|) rows — raw tokens
    never leave their block — merged by a vocabulary-sized ``groupby``.
    The scoring pass is then zero-shuffle: every block scores its own
    documents against the driver-computed idf table. Two streaming passes
    over the text, no all-to-all, so the operator's exchange volume is
    independent of corpus size.

    Uses the Lucene/Okapi formulation: idf = ln((N - df + .5)/(df + .5)
    + 1), score = Σ_t idf_t · tf·(k1+1)/(tf + k1·(1 − b + b·dl/avgdl)),
    with avgdl = total tokens / total documents (empty documents count).
    Scores are rounded to ``ndigits`` so the result is reproducible
    against an independent SQL evaluation despite float summation order.
    """
    qtoks, _, _ = _block_tokens(pa.array([query], pa.string()))
    qterms = sorted(set(qtoks.tolist()))
    if not qterms:
        raise ValueError("query contains no tokens after normalization")
    tcode_of = {t: i for i, t in enumerate(qterms)}
    T = len(qterms)
    qset = pa.array(qterms, pa.string())

    def stats_partial(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        n_docs_blk = len(n_per_doc)
        df = np.zeros(T, dtype=np.int64)
        if len(toks):
            mask = pc.is_in(pa.array(toks, pa.string()), value_set=qset
                            ).to_numpy(zero_copy_only=False)
            if mask.any():
                codes, uniq = pd.factorize(toks[mask])
                tc = np.array([tcode_of[u] for u in uniq],
                              dtype=np.int64)[codes]
                qd = doc_idx[mask]
                # distinct (term, doc) pairs per term
                key = tc * np.int64(n_docs_blk) + qd
                uk = np.unique(key)
                df = np.bincount(uk // n_docs_blk, minlength=T
                                 ).astype(np.int64)
        return pa.table(
            {"term": pa.array(qterms + [""], pa.string()),
             "df": pa.array(np.concatenate([df, [0]])),
             "n_docs": pa.array([0] * T + [n_docs_blk], pa.int64()),
             "dl_sum": pa.array([0] * T + [int(n_per_doc.sum())],
                                pa.int64())}
        )

    stats = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"),
                   Sum("n_docs", alias_name="n_docs"),
                   Sum("dl_sum", alias_name="dl_sum"))
        .to_pandas()
    )
    totals = stats[stats["term"] == ""]
    n_corpus = float(totals["n_docs"].sum())
    if n_corpus == 0:
        raise ValueError("empty corpus")
    avgdl = float(totals["dl_sum"].sum()) / n_corpus
    df_of = dict(zip(stats["term"], stats["df"]))
    idf = np.array(
        [np.log((n_corpus - df_of.get(t, 0) + 0.5)
                / (df_of.get(t, 0) + 0.5) + 1.0) for t in qterms]
    )

    def score(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        n = len(n_per_doc)
        empty = pa.table({id_col: batch[id_col].slice(0, 0),
                          "bm25": pa.array([], pa.float64())})
        if not len(toks):
            return empty
        mask = pc.is_in(pa.array(toks, pa.string()), value_set=qset
                        ).to_numpy(zero_copy_only=False)
        if not mask.any():
            return empty
        codes, uniq = pd.factorize(toks[mask])
        tc = np.array([tcode_of[u] for u in uniq], dtype=np.int64)[codes]
        qd = doc_idx[mask]
        tf = np.bincount(qd * np.int64(T) + tc, minlength=n * T
                         ).reshape(n, T).astype(np.float64)
        dl = n_per_doc.astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * (dl / avgdl))[:, None]
        with np.errstate(invalid="ignore"):
            per_term = np.where(tf > 0, tf * (k1 + 1.0) / denom, 0.0)
        total = per_term @ idf
        hit = tf.any(axis=1)
        return pa.table(
            {id_col: batch[id_col].filter(pa.array(hit)),
             "bm25": pa.array(np.round(total[hit], ndigits))}
        )

    return ds.map_batches(score, batch_format="pyarrow")


def bm25_topk(
    ds: ray.data.Dataset,
    query: str,
    k: int = 10,
    **kw,
) -> ray.data.Dataset:
    """Top-k documents by BM25 relevance to ``query`` (ties broken by id
    ascending, so the cut is deterministic). Same two-pass scale shape as
    :func:`bm25_scores`; the sort runs over only the scored (hit) rows."""
    id_col = kw.get("id_col", "doc_id")
    scored = bm25_scores(ds, query, **kw)
    return scored.sort(["bm25", id_col], descending=[True, False]).limit(k)


def pmi_cooccurrence(
    ds: ray.data.Dataset,
    vocab_k: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Pointwise mutual information of top-vocabulary term pairs:
    restrict to the ``vocab_k`` most frequent terms (by occurrence,
    ties term-asc — the :func:`top_terms` cut), count documents where
    both terms of a pair appear, and score

        pmi(x, y) = ln( (N · n_xy) / (df_x · df_y) )

    → columns (x, y, n_xy, pmi) with x < y lexicographic, one row per
    co-occurring pair. The word-association primitive behind phrase
    mining / embedding-corpus diagnostics.

    Scale shape: two streaming passes. Pass 1 is :func:`top_terms`
    (vocabulary-bounded partials); the materialized vocab (≤ vocab_k
    rows) rides into pass 2 in the task closure. Pass 2 reduces each
    block to distinct per-doc vocab terms and a bincount over ≤ V²
    pair codes — the block partial is vocabulary²-bounded, never
    row-bounded — and one tiny ``groupby((x, y))`` merges partials.
    All counts are exact integers; PMI is int→double casts, ONE
    division, libm log, round(6) — bit-replayable by the DuckDB
    oracle. ``ds`` is consumed twice plus a count: pass a cheap
    re-readable source (a parquet read) or materialize it first.
    """
    vocab = top_terms(ds, k=vocab_k, text_col=text_col, id_col=id_col
                      ).to_pandas()
    n_docs_total = int(ds.count())
    # tid in sorted-term order so tid_x < tid_y ⇔ term_x < term_y (the
    # oracle's `a.term < b.term` on ASCII-normalized tokens)
    terms_sorted = np.sort(vocab["term"].to_numpy())
    df_by_term = dict(zip(vocab["term"], vocab["n_docs"].astype(np.int64)))
    dfs = np.array([df_by_term[t] for t in terms_sorted], dtype=np.int64)
    index = pd.Index(terms_sorted)
    v = len(terms_sorted)

    empty = pa.table({"xi": pa.array([], pa.int64()),
                      "yi": pa.array([], pa.int64()),
                      "n_xy": pa.array([], pa.int64())})

    def pair_partial(batch: pa.Table) -> pa.Table:
        toks, doc_idx, _ = _block_tokens(batch[text_col])
        if not len(toks):
            return empty
        tid = index.get_indexer(toks)
        keep = tid >= 0
        if not keep.any():
            return empty
        tid, d = tid[keep], doc_idx[keep]
        # distinct (doc, tid), sorted by (doc, tid)
        order = np.lexsort((tid, d))
        tid, d = tid[order], d[order]
        new = np.concatenate(
            ([True], (tid[1:] != tid[:-1]) | (d[1:] != d[:-1]))
        )
        tid, d = tid[new], d[new]
        n = len(tid)
        starts = np.nonzero(
            np.concatenate(([True], d[1:] != d[:-1]))
        )[0]
        m = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, m)
        loc = np.arange(n) - seg_start
        reps = np.repeat(m, m) - 1 - loc  # pairs (p, p+1..m-1)
        total = int(reps.sum())
        if total == 0:
            return empty
        x_idx = np.repeat(np.arange(n), reps)
        csum = np.concatenate(([0], np.cumsum(reps)))
        y_idx = x_idx + (np.arange(total) - csum[x_idx]) + 1
        cnt = np.bincount(tid[x_idx] * v + tid[y_idx], minlength=v * v)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {"xi": pa.array((nz // v).astype(np.int64)),
             "yi": pa.array((nz % v).astype(np.int64)),
             "n_xy": pa.array(cnt[nz].astype(np.int64))}
        )

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["xi", "yi"])
        .aggregate(Sum("n_xy", alias_name="n_xy"))
    ).to_pandas()
    xi = pairs["xi"].to_numpy().astype(np.int64)
    yi = pairs["yi"].to_numpy().astype(np.int64)
    n_xy = pairs["n_xy"].to_numpy().astype(np.int64)
    num = (n_docs_total * n_xy).astype(np.float64)
    den = (dfs[xi] * dfs[yi]).astype(np.float64)
    pmi = np.round(np.log(num / den), 6)
    return pa.table(
        {"x": pa.array(terms_sorted[xi].astype(object), pa.string()),
         "y": pa.array(terms_sorted[yi].astype(object), pa.string()),
         "n_xy": pa.array(n_xy),
         "pmi": pa.array(pmi)}
    )


def tfidf_cosine_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_df: int = 1000,
    tf_cap: int = 4096,
    idf_scale: int = 1024,
    n_term_buckets: int = 256,
    max_vocab: int = 5_000_000,
    max_docs: int = 2_000_000,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Sparse TF-IDF cosine similarity JOIN (term-at-a-time): all
    document pairs with cosine ≥ ``threshold`` over tf·idf vectors →
    rows (a, b, cos_sim), a < b. The classic text similarity join
    (Bayardo et al., WWW 2007 all-pairs family), the exact complement to
    the minhash/simhash probabilistic near-dup passes.

    Semantics (all mirrored by the SQL oracle): tokens are the
    `_block_tokens` normalization; terms with document frequency >
    ``max_df`` are DROPPED from the vector space (the standard hot-term
    cap — it bounds every term's pair fan-out at max_df², and the
    oracle applies the identical HAVING); tf is capped at ``tf_cap``;
    idf = ln((N+1)/(df+1)) + 1 quantized to ``floor(idf·idf_scale+0.5)``
    integer units so weights, norms and dots are EXACT integers — by
    Cauchy-Schwarz every pair dot ≤ max norm², so guarding norm² < 2^62
    makes all int64 arithmetic overflow-free. cosine is one pinned
    double readout (int→double casts, IEEE sqrt, multiply, divide),
    compared to ``threshold`` unrounded and emitted rounded half-up to
    ``ndigits``.

    Scale shape: three streaming source scans + one bounded exchange —
    (1) df partials → vocabulary-sized groupby → broadcast (term, qidf)
    lookup (``max_vocab`` guard; at larger vocabularies switch to
    `hashed_tfidf` dimensions); (2) per-doc norms, local per row
    (``max_docs`` broadcast guard — the scale path joins norms through
    `joins.hash_join` instead); (3) postings hash-bucketed BY TERM
    (≤``n_term_buckets`` groups), per-term pair enumeration vectorized
    with local (a, b) pre-aggregation, then ONE groupby(a, b) sum whose
    volume is the candidate-pair count, capped by max_df.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if max_df < 2:
        raise ValueError(f"max_df must be >= 2, got {max_df}")

    N_SENT = "\x00__n_docs__"

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        if len(toks) == 0:
            return pa.table(
                {"term": pa.array([N_SENT], pa.string()),
                 "df": pa.array([0], pa.int64()),
                 "n_docs": pa.array([len(n_per_doc)], pa.int64())}
            )
        codes, uniq = pd.factorize(toks)
        order = np.lexsort((doc_idx, codes))
        cs, ds_ = codes[order], doc_idx[order]
        new = np.empty(len(cs), bool)
        new[0] = True
        new[1:] = (cs[1:] != cs[:-1]) | (ds_[1:] != ds_[:-1])
        df = np.bincount(cs[new], minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {"term": pa.array(
                np.concatenate((uniq.astype(object), [N_SENT])),
                pa.string()),
             "df": pa.array(np.concatenate((df, [0]))),
             "n_docs": pa.array([0] * len(uniq) + [len(n_per_doc)],
                                pa.int64())}
        )

    stats = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"),
                   Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )
    if len(stats) == 0 or "term" not in stats.columns:
        return ray.data.from_arrow(
            pa.schema([("a", pa.int64()), ("b", pa.int64()),
                       ("cos_sim", pa.float64())]).empty_table()
        )
    if len(stats) > max_vocab + 1:
        raise ValueError(
            f"{len(stats) - 1:,} distinct terms exceeds max_vocab="
            f"{max_vocab:,}; use hashed_tfidf dimensions at this scale."
        )
    n_corpus = int(stats.loc[stats["term"] == N_SENT, "n_docs"].sum())
    real = stats[(stats["term"] != N_SENT)
                 & (stats["df"] <= max_df)].sort_values("term")
    vocab = real["term"].to_numpy()
    idf = np.log(
        (n_corpus + 1.0) / (real["df"].to_numpy().astype(np.float64) + 1.0)
    ) + 1.0
    qidf = np.floor(idf * float(idf_scale) + 0.5).astype(np.int64)
    vocab_ref = ray.put((vocab, qidf))
    thr = float(threshold)
    cap = int(tf_cap)

    def _doc_postings(batch: pa.Table):
        """(ids, tcodes-into-broadcast-vocab, capped tf) for kept terms."""
        voc, qv = ray.get(vocab_ref)
        toks, doc_idx, n_per_doc = _block_tokens(batch[text_col])
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy()
        if len(toks) == 0:
            z = np.array([], np.int64)
            return z, z, z, qv
        codes, uniq = pd.factorize(toks)
        # encode only UNIQUE block terms against the broadcast vocab
        pos = np.searchsorted(voc, uniq.astype(object))
        pos_c = np.clip(pos, 0, max(len(voc) - 1, 0))
        ok = np.zeros(len(uniq), bool)
        if len(voc):
            ok = voc[pos_c] == uniq.astype(object)
        gcode = np.where(ok, pos_c, -1)[codes]
        keep = gcode >= 0
        d_i, g_i = doc_idx[keep], gcode[keep]
        if len(d_i) == 0:
            z = np.array([], np.int64)
            return z, z, z, qv
        order = np.lexsort((g_i, d_i))
        d_s, g_s = d_i[order], g_i[order]
        new = np.empty(len(d_s), bool)
        new[0] = True
        new[1:] = (d_s[1:] != d_s[:-1]) | (g_s[1:] != g_s[:-1])
        starts = np.nonzero(new)[0]
        tf = np.diff(np.concatenate((starts, [len(d_s)]))).astype(np.int64)
        tf = np.minimum(tf, cap)
        return ids[d_s[starts]], g_s[starts], tf, qv

    def norm_partial(batch: pa.Table) -> pa.Table:
        dids, gcodes, tf, qv = _doc_postings(batch)
        if len(dids) == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "norm2": pa.array([], pa.int64())})
        w = tf * qv[gcodes]
        w2 = w * w
        # dids is sorted within _doc_postings' lexsort (doc-major)
        newd = np.empty(len(dids), bool)
        newd[0] = True
        newd[1:] = dids[1:] != dids[:-1]
        starts = np.nonzero(newd)[0]
        n2f = np.add.reduceat(w2.astype(np.float64), starts)
        if (n2f >= 2.0 ** 62).any():
            raise ValueError(
                "tfidf_cosine_pairs: a document's norm^2 exceeds 2^62; "
                "lower tf_cap/idf_scale so int64 dots stay exact."
            )
        n2i = np.add.reduceat(w2, starts)
        return pa.table({"id": pa.array(dids[starts]),
                         "norm2": pa.array(n2i)})

    def posting_partial(batch: pa.Table) -> pa.Table:
        dids, gcodes, tf, qv = _doc_postings(batch)
        empty = pa.table(
            {"g": pa.array([], pa.int64()),
             "doc": pa.array([], pa.int64()),
             "tf": pa.array([], pa.int64())}
        )
        if len(dids) == 0:
            return empty
        return pa.table(
            {"g": pa.array(gcodes),
             "doc": pa.array(dids), "tf": pa.array(tf)}
        )

    def bucket_pairs(t: pa.Table) -> pa.Table:
        voc, qv = ray.get(vocab_ref)
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "dot": pa.array([], pa.int64())})
        g = t["g"].to_numpy()
        doc = t["doc"].to_numpy()
        tf = t["tf"].to_numpy()
        if len(g) == 0:
            return empty
        order = np.lexsort((doc, g))
        g_s, d_s, tf_s = g[order], doc[order], tf[order]
        new = np.empty(len(g_s), bool)
        new[0] = True
        new[1:] = g_s[1:] != g_s[:-1]
        seg = np.cumsum(new) - 1
        m = np.bincount(seg).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(m)))[:-1]
        within = np.arange(len(g_s), dtype=np.int64) - starts[seg]
        counts = m[seg] - 1 - within
        tot = int(counts.sum())
        if tot == 0:
            return empty
        first = np.repeat(np.arange(len(g_s), dtype=np.int64), counts)
        cstart = np.concatenate(([0], np.cumsum(counts)))
        j_off = np.arange(tot, dtype=np.int64) - cstart[first] + 1
        second = first + j_off
        qi = qv[g_s[first]]
        contrib = tf_s[first] * tf_s[second] * qi * qi
        da, db = d_s[first], d_s[second]
        a = np.minimum(da, db)
        b = np.maximum(da, db)
        po = np.lexsort((b, a))
        a, b, contrib = a[po], b[po], contrib[po]
        newp = np.empty(len(a), bool)
        newp[0] = True
        newp[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        pstarts = np.nonzero(newp)[0]
        doti = np.add.reduceat(contrib, pstarts)
        return pa.table(
            {"a": pa.array(a[newp]), "b": pa.array(b[newp]),
             "dot": pa.array(doti)}
        )

    norms = ds.map_batches(norm_partial, batch_format="pyarrow").to_pandas()
    if len(norms) > max_docs:
        raise ValueError(
            f"{len(norms):,} docs exceeds max_docs={max_docs:,} for the "
            "broadcast norm lookup; join norms via hash_join at scale."
        )
    nid = norms["id"].to_numpy().astype(np.int64)
    nrm2 = norms["norm2"].to_numpy().astype(np.int64)
    no = np.argsort(nid)
    nid, nrm2 = nid[no], nrm2[no]
    norm_ref = ray.put((nid, nrm2))
    pow10 = 10.0 ** int(ndigits)

    pairs = (
        bucket_exchange(
            ds.map_batches(posting_partial, batch_format="pyarrow"), ["g"],
            bucket_pairs, n_term_buckets,
        )
        .groupby(["a", "b"])
        .aggregate(Sum("dot", alias_name="dot"))
    )

    def finish(t: pa.Table) -> pa.Table:
        ids_n, n2 = ray.get(norm_ref)
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        dot = t["dot"].to_numpy().astype(np.int64)
        na = n2[np.searchsorted(ids_n, a)]
        nb = n2[np.searchsorted(ids_n, b)]
        cs = dot.astype(np.float64) / (
            np.sqrt(na.astype(np.float64)) * np.sqrt(nb.astype(np.float64))
        )
        keep = cs >= thr
        return pa.table(
            {"a": pa.array(a[keep]), "b": pa.array(b[keep]),
             "cos_sim": pa.array(np.floor(cs[keep] * pow10 + 0.5) / pow10)}
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


def top_terms_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-group top-k terms by occurrence → rows (grp, term, n_occ,
    rnk), rnk 1..k per group ordered (n_occ desc, term asc) — the
    per-source / per-domain vocabulary census (template detection,
    source drift eyeballing). Null groups drop.

    Scale shape: raw tokens never shuffle — each block pre-aggregates
    (group, term) counts, one vocabulary×groups-bounded
    ``groupby(grp, term).sum`` merges them, and the top-k pass is the
    standard ≤``n_buckets`` group-hash exchange with one vectorized
    lexsort + cumcount per bucket (CLAUDE.md per-group rule).
    """
    from record_matcher_ray.core.hashkernels import column_hash64

    def partial(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch[group_col])
        sub = batch.filter(ok)
        toks, doc_idx, n_per_doc = _block_tokens(sub[text_col])
        empty = pa.table(
            {"grp": pa.array([], sub.schema.field(group_col).type),
             "term": pa.array([], pa.string()),
             "n_occ": pa.array([], pa.int64())}
        )
        if len(toks) == 0:
            return empty
        gvals = sub[group_col].to_numpy(zero_copy_only=False)
        gcodes, guniq = pd.factorize(gvals)
        tcodes, tuniq = pd.factorize(toks)
        key = gcodes[doc_idx].astype(np.int64) * len(tuniq) + tcodes
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"grp": pa.array(guniq[(uk // len(tuniq))]),
             "term": pa.array(tuniq[(uk % len(tuniq))].astype(object),
                              pa.string()),
             "n_occ": pa.array(cnt.astype(np.int64))}
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "term"])
        .aggregate(Sum("n_occ", alias_name="n_occ"))
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        b = bucket_ids(column_hash64(t["grp"]), n_buckets)
        return t.append_column("__gb__", pa.array(b))

    kk = int(k)

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["grp", "n_occ", "term"], ascending=[True, False, True],
            kind="stable",
        )
        df["rnk"] = df.groupby("grp", sort=False).cumcount() + 1
        out = df[df["rnk"] <= kk][["grp", "term", "n_occ", "rnk"]].copy()
        out["rnk"] = out["rnk"].astype("int64")
        return out

    return (
        cells.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__gb__")
        .map_groups(topk, batch_format="pandas")
    )


def term_kl_divergence(
    ds: ray.data.Dataset,
    group_col: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ndigits: int = 6,
    max_cells: int = 5_000_000,
) -> "pd.DataFrame":
    """Per-group term-distribution drift: KL(P_group ‖ P_corpus) in nats
    → DataFrame (grp, n_tokens, kl) sorted by grp — the mixture-
    monitoring signal (which shard/source diverges from the blend).

    KL = Σ_t p_t · ln(p_t / q_t) over the group's terms (p_t = group
    count / group total, q_t = corpus count / corpus total; q_t ≥ p-mass
    by construction so every term is defined). Deterministic pinned
    float recipe: exact integer counts ride the exchange; per term ONE
    chain (c_g)::DOUBLE / n_g · ln(((c_g)::DOUBLE / n_g) / ((c)::DOUBLE
    / n)); terms fold in ASCENDING term order (the `grouped_entropy` /
    char-entropy ordered-fold toolbox pattern) so DuckDB's
    ``list_sum(list(contrib ORDER BY term))`` replays bit-for-bit.

    Scale shape: one streaming pass of per-block (group, term) partials,
    one vocabulary×groups-bounded groupby; the driver folds the cell
    table (``max_cells`` guard).
    """
    import math

    def partial(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch[group_col])
        sub = batch.filter(ok)
        toks, doc_idx, n_per_doc = _block_tokens(sub[text_col])
        empty = pa.table(
            {"grp": pa.array([], pa.string()),
             "term": pa.array([], pa.string()),
             "n_occ": pa.array([], pa.int64())}
        )
        if len(toks) == 0:
            return empty
        gvals = pc.cast(sub[group_col], pa.string()).to_numpy(
            zero_copy_only=False
        )
        gcodes, guniq = pd.factorize(gvals)
        tcodes, tuniq = pd.factorize(toks)
        key = gcodes[doc_idx].astype(np.int64) * len(tuniq) + tcodes
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"grp": pa.array(guniq[(uk // len(tuniq))].astype(object),
                             pa.string()),
             "term": pa.array(tuniq[(uk % len(tuniq))].astype(object),
                              pa.string()),
             "n_occ": pa.array(cnt.astype(np.int64))}
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "term"])
        .aggregate(Sum("n_occ", alias_name="n_occ"))
        .to_pandas()
    )
    if len(cells) == 0 or "grp" not in cells.columns:
        return pd.DataFrame(
            {"grp": pd.Series([], dtype="object"),
             "n_tokens": pd.Series([], dtype="int64"),
             "kl": pd.Series([], dtype="float64")}
        )
    if len(cells) > max_cells:
        raise ValueError(
            f"{len(cells):,} (group, term) cells exceeds max_cells="
            f"{max_cells:,}; prune the vocabulary (top_terms) or hash "
            "terms before computing drift at this scale."
        )
    corpus = cells.groupby("term", sort=True)["n_occ"].sum()
    n_total = int(cells["n_occ"].sum())
    out = {"grp": [], "n_tokens": [], "kl": []}
    pw = 10.0 ** int(ndigits)
    for grp, g in cells.sort_values(["grp", "term"]).groupby(
        "grp", sort=True
    ):
        n_g = int(g["n_occ"].sum())
        kl = 0.0
        for term, c_g in zip(g["term"], g["n_occ"]):
            p = float(int(c_g)) / float(n_g)
            q = float(int(corpus[term])) / float(n_total)
            kl = kl + p * math.log(p / q)
        out["grp"].append(grp)
        out["n_tokens"].append(n_g)
        out["kl"].append(math.floor(kl * pw + 0.5) / pw if kl >= 0
                         else -math.floor(-kl * pw + 0.5) / pw)
    return pd.DataFrame(
        {"grp": out["grp"],
         "n_tokens": np.asarray(out["n_tokens"], np.int64),
         "kl": np.asarray(out["kl"], np.float64)}
    )


def zipf_fit(
    ds: ray.data.Dataset,
    k: int = 128,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Zipf's-law diagnostic: OLS fit of ln(frequency) against ln(rank)
    over the corpus's top-``k`` terms → ONE row
    (n_terms, slope, intercept) — a corpus-health fingerprint (natural
    text sits near slope ≈ −1; template/spam corpora flatten it).

    Parity recipe: term counts come from the distributed `top_terms`
    exchange (exact integers); the fit folds the ≤``k`` (ln rank,
    ln count) points SEQUENTIALLY in rank order — pinned-order IEEE
    doubles replayed by DuckDB ``list_reduce`` folds seeded via
    ``list_prepend(0.0)`` — and the slope/intercept close with one
    division each in the same association order (``math.log`` is libm
    log, identical to DuckDB ``ln``). Readout: signed half-up 6dp.

    Scale shape: all corpus-sized work is `top_terms`' partial-count
    exchange (volume ≤ distinct terms, never corpus tokens); the driver
    touches exactly ``k`` rows.
    """
    import math

    rows = top_terms(ds, k=k, text_col=text_col, id_col=id_col).take_all()
    n = len(rows)
    if n < 2:
        return pa.table({"n_terms": pa.array([n], pa.int64()),
                         "slope": pa.array([None], pa.float64()),
                         "intercept": pa.array([None], pa.float64())})
    sx = sy = sxy = sxx = 0.0
    for r, row in enumerate(rows, start=1):  # k rows, driver-side
        x = math.log(float(r))
        y = math.log(float(row["n_occ"]))
        sx = sx + x
        sy = sy + y
        sxy = sxy + x * y
        sxx = sxx + x * x
    nd = float(n)
    den = nd * sxx - sx * sx
    if den == 0.0:
        slope = intercept = None
    else:
        slope = (nd * sxy - sx * sy) / den
        intercept = (sy - slope * sx) / nd

    def r6(v):
        if v is None:
            return None
        return (math.floor(v * 1e6 + 0.5) if v >= 0
                else -math.floor(-v * 1e6 + 0.5)) / 1e6

    return pa.table({"n_terms": pa.array([n], pa.int64()),
                     "slope": pa.array([r6(slope)], pa.float64()),
                     "intercept": pa.array([r6(intercept)], pa.float64())})


def heaps_curve(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Heaps'-law vocabulary-growth curve: scanning the corpus in
    ascending ``id_col`` order, → one row per document
    (id, n_new — terms first seen in this doc, n_tok — its token count,
    vocab / cum_tokens — running totals). Plotting vocab against
    cum_tokens is the classic V = K·nᵝ corpus-health diagnostic
    (template-heavy or deduplicated corpora bend the curve).

    All-integer output — hash-exact against the SQL window replay with
    no float pinning needed.

    Scale shape: first-occurrence docs come from ONE distinct-term
    exchange (per-block (term, min doc) partials, volume ≤ distinct
    terms — the `top_terms` shape); per-doc rows merge in ONE doc-id
    groupby of sentinel partials (no join); the running totals use the
    `global_row_number` two-pass layout — one sort exchange, then
    per-block (first-id, block-sum) heads (a few bytes per block)
    prefix-summed on the driver and broadcast, never a second shuffle
    or a driver data pull.
    """
    from ray.data.aggregate import Min

    def tok_partial(t: pa.Table) -> pa.Table:
        toks, doc_idx, _ = _block_tokens(t[text_col])
        ids = t[id_col].to_numpy()
        if len(toks) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "fdoc": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(toks)
        docs = ids[doc_idx].astype(np.int64)
        # sort-based segmented min (CLAUDE.md: never ufunc.at scatter)
        order = np.lexsort((docs, codes))
        cs, ds_ = codes[order], docs[order]
        firstm = np.concatenate(([True], cs[1:] != cs[:-1]))
        return pa.table(
            {"term": pa.array(uniq[cs[firstm]].astype(object),
                              pa.string()),
             "fdoc": pa.array(ds_[firstm])}
        )

    first = (
        ds.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Min("fdoc", alias_name="fdoc"))
    )

    def new_counts(t: pa.Table) -> pa.Table:
        # sentinel partial: (doc, n_new, 0)
        return pa.table({id_col: t["fdoc"],
                         "n_new": pa.array(np.ones(len(t), np.int64)),
                         "n_tok": pa.array(np.zeros(len(t), np.int64))})

    def tok_counts(t: pa.Table) -> pa.Table:
        _, doc_idx, n_per = _block_tokens(t[text_col])
        ids = t[id_col].to_numpy().astype(np.int64)
        return pa.table({id_col: pa.array(ids),
                         "n_new": pa.array(np.zeros(len(t), np.int64)),
                         "n_tok": pa.array(n_per.astype(np.int64))})

    per_doc = (
        first.map_batches(new_counts, batch_format="pyarrow")
        .union(ds.map_batches(tok_counts, batch_format="pyarrow"))
        .groupby(id_col)
        .aggregate(Sum("n_new", alias_name="n_new"),
                   Sum("n_tok", alias_name="n_tok"))
    )

    m = per_doc.sort(id_col).materialize()  # consumed by both passes

    def head(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "__sn__": pa.array([], pa.int64()),
                             "__st__": pa.array([], pa.int64())})
        return pa.table(
            {id_col: t[id_col].slice(0, 1),
             "__sn__": pa.array([int(pc.sum(t["n_new"]).as_py())],
                                pa.int64()),
             "__st__": pa.array([int(pc.sum(t["n_tok"]).as_py())],
                                pa.int64())}
        )

    heads = m.map_batches(head, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    if heads.empty:
        def emptyc(t: pa.Table) -> pa.Table:
            z = pa.array([], pa.int64())
            return pa.table({id_col: z, "n_new": z, "n_tok": z,
                             "vocab": z, "cum_tokens": z})
        return m.map_batches(emptyc, batch_format="pyarrow")
    heads = heads.sort_values(id_col).reset_index(drop=True)
    sn = heads["__sn__"].to_numpy(dtype=np.int64)
    st = heads["__st__"].to_numpy(dtype=np.int64)
    offs = {
        int(k): (int(a), int(b))
        for k, a, b in zip(heads[id_col].to_numpy(),
                           np.cumsum(sn) - sn, np.cumsum(st) - st)
    }

    def assign(t: pa.Table) -> pa.Table:
        z = pa.array([], pa.int64())
        if len(t) == 0:
            return pa.table({id_col: z, "n_new": z, "n_tok": z,
                             "vocab": z, "cum_tokens": z})
        on, ot = offs[t[id_col][0].as_py()]
        nn = t["n_new"].to_numpy()
        nt = t["n_tok"].to_numpy()
        return pa.table(
            {id_col: t[id_col], "n_new": t["n_new"], "n_tok": t["n_tok"],
             "vocab": pa.array(on + np.cumsum(nn).astype(np.int64)),
             "cum_tokens": pa.array(ot + np.cumsum(nt).astype(np.int64))}
        )

    return m.map_batches(assign, batch_size=None, batch_format="pyarrow")


def chao1_vocab(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Chao1 species-richness estimate of the corpus vocabulary
    (Chao 1984): from exact term-frequency counts,

        chao1 = D + f1² / (2·f2)

    with D = observed distinct terms, f1/f2 = singleton/doubleton
    counts → ONE row (n_terms, f1, f2, chao1) — "how much vocabulary
    haven't we crawled yet", the coverage sibling of `heaps_curve`
    (NULL chao1 when f2 = 0).

    Parity: counts are exact integers off the `top_terms` partial-count
    exchange; the estimate is one pinned double chain
    (D + (f1·f1) / (2·f2)), readout half-up 6dp.

    Scale shape: the term-count exchange (volume ≤ distinct terms) plus
    a per-block (D, f1, f2) integer partial — three numbers per block —
    merged on the driver.
    """
    import math

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        toks, _, _ = _block_tokens(t[text_col])
        if len(toks) == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "n_occ": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(toks)
        n_occ = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {"term": pa.array(uniq.astype(object), pa.string()),
             "n_occ": pa.array(n_occ)}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n_occ", alias_name="n_occ"))
    )

    def fpartial(t: pa.Table) -> pa.Table:
        c = t["n_occ"].to_numpy()
        return pa.table(
            {"d": pa.array([len(c)], pa.int64()),
             "f1": pa.array([int((c == 1).sum())], pa.int64()),
             "f2": pa.array([int((c == 2).sum())], pa.int64())}
        )

    parts = counts.map_batches(fpartial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        d = f1 = f2 = 0
    else:
        d = int(parts["d"].sum())
        f1 = int(parts["f1"].sum())
        f2 = int(parts["f2"].sum())
    if f2 == 0:
        chao = None
    else:
        v = float(d) + float(f1) * float(f1) / (2.0 * float(f2))
        chao = (math.floor(v * 1e6 + 0.5) if v >= 0
                else -math.floor(-v * 1e6 + 0.5)) / 1e6
    return pa.table({"n_terms": pa.array([d], pa.int64()),
                     "f1": pa.array([f1], pa.int64()),
                     "f2": pa.array([f2], pa.int64()),
                     "chao1": pa.array([chao], pa.float64())})


def ndcg_at_k(
    ds: ray.data.Dataset,
    query: str,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ndigits: int = 6,
) -> "pd.DataFrame":
    """nDCG@k of the BM25 ranking against a term-overlap relevance
    oracle — the standard graded search-quality metric completing the
    eval story around `bm25_topk` / `hybrid_search`:

        rel(doc) = |{query terms} ∩ {doc terms}|     (graded 0..|q|)
        DCG@k  = Σ_{i=1..k} rel(doc_i) / log2(i + 1)   (BM25 rank order)
        IDCG@k = the same fold over the k largest rel values corpus-wide
        nDCG@k = DCG / IDCG

    → one row (k, dcg, idcg, ndcg), each rounded to ``ndigits``; ndcg
    NULL when the corpus has no relevant documents.

    Parity recipe: rel values are exact small integers; both folds run
    in PINNED order (rank ascending / ideal-rel descending) with one
    double division per step (libm log2 both sides — the DuckDB
    ``list_reduce`` replay is hash-exact). Scale shape: the ranking is
    `bm25_topk`'s two streaming passes; relevance adds ONE more
    zero-shuffle pass emitting per-block (rel histogram, rel of the k
    ranked ids) partials — exchange volume independent of corpus size.
    """
    import math

    import pandas as pd

    terms = sorted(set(_normalize(pa.array([query]))[0].as_py().split()))
    top = bm25_topk(ds, query, k, text_col=text_col, id_col=id_col)
    top_ids = [r[id_col] for r in top.take(k)]
    id_set = set(top_ids)
    max_rel = len(terms)

    def partial(t: pa.Table) -> pa.Table:
        toks, doc_idx, _ = _block_tokens(t[text_col])
        n = len(t)
        rel = np.zeros(n, np.int64)
        for term in terms:
            hit = np.zeros(n, bool)
            m = toks == term
            hit[np.unique(doc_idx[m])] = True
            rel += hit
        hist = np.bincount(rel, minlength=max_rel + 1).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        sel = np.nonzero(np.isin(ids, np.array(sorted(id_set))))[0] \
            if id_set else np.empty(0, np.int64)
        return pa.table({
            "kind": pa.array(
                ["h"] * (max_rel + 1) + ["r"] * len(sel)),
            "key": pa.array(
                list(range(max_rel + 1))
                + [int(ids[i]) for i in sel], pa.int64()),
            "val": pa.array(
                [int(v) for v in hist] + [int(rel[i]) for i in sel],
                pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    hist = np.zeros(max_rel + 1, np.int64)
    rel_of = {}
    for _, row in parts.iterrows():
        if row["kind"] == "h":
            hist[int(row["key"])] += int(row["val"])
        else:
            rel_of[int(row["key"])] = int(row["val"])

    dcg = 0.0
    for i, did in enumerate(top_ids):
        dcg = dcg + float(rel_of.get(int(did), 0)) / math.log2(i + 2.0)
    idcg = 0.0
    pos = 0
    for rv in range(max_rel, 0, -1):  # ideal ranking: rel desc, zeros add 0
        cnt = int(hist[rv])
        for _ in range(min(cnt, k - pos)):
            idcg = idcg + float(rv) / math.log2(pos + 2.0)
            pos += 1
        if pos >= k:
            break
    p10 = 10.0 ** ndigits
    rnd = lambda v: math.floor(v * p10 + 0.5) / p10  # noqa: E731
    ndcg = rnd(dcg / idcg) if idcg > 0 else None
    return pd.DataFrame({
        "k": [int(k)], "dcg": [rnd(dcg)], "idcg": [rnd(idcg)],
        "ndcg": [ndcg],
    })


def search_eval_at_k(
    ds: ray.data.Dataset,
    query: str,
    k: int = 10,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    ndigits: int = 6,
) -> "pd.DataFrame":
    """Recall@k and MRR of the BM25 ranking against the term-overlap
    relevance oracle (rel(doc) > 0 ⇒ relevant) — the binary-metric
    companions of `ndcg_at_k`:

        recall@k = |relevant ∩ top-k| / |relevant|
        MRR      = 1 / rank of the first relevant doc in the ranking
                   (0 when no relevant doc is retrieved in top-k)

    → one row (k, n_relevant, n_retrieved_relevant, recall, mrr); recall
    NULL when the corpus has no relevant docs. Exact integer counts,
    one double division each. Scale shape: `bm25_topk`'s two passes plus
    one zero-shuffle relevance pass (per-block partials)."""
    import math

    import pandas as pd

    terms = sorted(set(_normalize(pa.array([query]))[0].as_py().split()))
    top = bm25_topk(ds, query, k, text_col=text_col, id_col=id_col)
    top_ids = [r[id_col] for r in top.take(k)]
    id_arr = np.array(sorted(int(i) for i in top_ids), np.int64)

    def partial(t: pa.Table) -> pa.Table:
        toks, doc_idx, _ = _block_tokens(t[text_col])
        n = len(t)
        rel = np.zeros(n, bool)
        for term in terms:
            m = toks == term
            rel[np.unique(doc_idx[m])] = True
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(id_arr):
            pos = np.minimum(np.searchsorted(id_arr, ids),
                             len(id_arr) - 1)
            in_top = id_arr[pos] == ids
        else:
            in_top = np.zeros(n, bool)
        hit_ids = ids[rel & in_top]
        return pa.table({
            "n_rel": pa.array([int(rel.sum())], pa.int64()),
            "hits": pa.array([hit_ids.tolist()],
                             pa.list_(pa.int64())),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_rel = int(parts["n_rel"].sum())
    hit_set = {int(x) for lst in parts["hits"] for x in lst}
    n_hit = len(hit_set)
    first_rank = 0
    for i, did in enumerate(top_ids):
        if int(did) in hit_set:
            first_rank = i + 1
            break
    p10 = 10.0 ** ndigits
    recall = (math.floor(n_hit / n_rel * p10 + 0.5) / p10
              if n_rel > 0 else np.nan)
    mrr = (math.floor(1.0 / first_rank * p10 + 0.5) / p10
           if first_rank else 0.0)
    return pd.DataFrame({
        "k": [int(k)], "n_relevant": [n_rel],
        "n_retrieved_relevant": [n_hit],
        "recall": pd.Series([recall], dtype="float64"),
        "mrr": [mrr],
    })


def bpe_train(
    ds: ray.data.Dataset,
    text_col: str = "text",
    *,
    num_merges: int = 16,
    max_words: int = 65536,
) -> pa.Table:
    """Byte-pair-encoding merge-table training (the Sennrich-style
    subword tokenizer trainer a training-data pipeline sizes its vocab
    with). Greedy: repeatedly merge the most frequent adjacent symbol
    pair across the (word, frequency) table.

    Scale shape: the CORPUS-scale work is one distributed
    word-frequency reduce (block partial counts → groupby sum →
    distributed (freq desc, word asc) top-``max_words`` cut); the merge
    loop then runs on that bounded compressed table on the driver —
    BPE's merge sequence is inherently serial (merge k+1 depends on
    merge k), but its input is the capped vocabulary, not the corpus,
    so 100 TB of text costs one reduce plus a vocabulary-sized loop.

    Determinism/parity: repo-standard ``[a-z0-9]+`` pre-tokens; each
    word's symbol sequence is its characters plus an end-of-word marker
    ``'_'`` (pre-tokens never contain ``_``); ties break
    (count DESC, lhs ASC, rhs ASC) over ASCII strings; a merge rewrites
    the space-joined sequence via non-overlapping left-to-right literal
    replacement of ``' a b '`` → ``' ab '`` — Python ``str.replace`` and
    DuckDB ``replace`` share those semantics, so the oracle replays the
    whole training hash-exactly (all-integer counts, no floats).

    → ``pa.Table (merge_rank int64 1-based, lhs, rhs, pair_count)``;
    stops early if fewer than ``num_merges`` distinct pairs remain.
    """
    def partial(batch: pa.Table) -> pa.Table:
        toks, _, _ = _block_tokens(batch[text_col])
        if len(toks) == 0:
            return pa.table({"w": pa.array([], pa.string()),
                             "freq": pa.array([], pa.int64())})
        codes, uniq = pd.factorize(toks)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({"w": pa.array(uniq.astype(object), pa.string()),
                         "freq": pa.array(cnt)})

    top = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("freq", alias_name="freq"))
        .sort(["freq", "w"], descending=[True, False])
        .limit(max_words)
        .take_all()
    )
    freqs = [int(r["freq"]) for r in top]
    seqs = [" ".join(list(r["w"]) + ["_"]) for r in top]
    ranks, lhs, rhs, cnts = [], [], [], []
    for k in range(num_merges):
        counts: dict = {}
        for s, f in zip(seqs, freqs):
            parts = s.split(" ")
            for a, b in zip(parts, parts[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + f
        if not counts:
            break
        (a, b), c = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        pat, rep = f" {a} {b} ", f" {a}{b} "
        seqs = [(" " + s + " ").replace(pat, rep).strip() for s in seqs]
        ranks.append(k + 1)
        lhs.append(a)
        rhs.append(b)
        cnts.append(c)
    return pa.table({
        "merge_rank": pa.array(ranks, pa.int64()),
        "lhs": pa.array(lhs, pa.string()),
        "rhs": pa.array(rhs, pa.string()),
        "pair_count": pa.array(cnts, pa.int64()),
    })


def bpe_encode(
    ds: ray.data.Dataset,
    merges: "pa.Table | list[tuple[str, str]]",
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Apply a :func:`bpe_train` merge table to a corpus → per-document
    subword token counts ``(id_col, n_words, n_tokens)`` — the vocab-fit
    diagnostic (tokens/word falls as merges are added).

    Fully vectorized, zero shuffle: each document becomes ONE
    space-joined symbol string (inter-word spaces → the ``'_'`` marker,
    one trailing marker, then every char spaced), and each merge is one
    Arrow ``replace_substring`` literal pass over the whole column.
    Applying merges to the concatenated doc string equals per-word
    application: a learned lhs never contains the marker (marker-bearing
    symbols are word-terminal, so they only ever appear as rhs), hence
    no pattern can match across a word boundary. K merges = K C-kernel
    passes over the text — document-count independent of the driver.
    """
    if isinstance(merges, pa.Table):
        pairs = list(zip(merges["lhs"].to_pylist(),
                         merges["rhs"].to_pylist()))
    else:
        pairs = list(merges)

    def encode(t: pa.Table) -> pa.Table:
        from record_matcher_ray.pipelines.terms import _normalize

        nt = _normalize(t[text_col])
        if isinstance(nt, pa.ChunkedArray):
            nt = nt.combine_chunks()
        n_words = pc.add(
            pc.count_substring(nt, " "),
            pc.if_else(pc.equal(nt, ""), 0, 1),
        )
        glued = pc.binary_join_element_wise(
            pc.replace_substring(nt, " ", "_"), "_", ""
        )
        seq = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(glued, "(.)", r"\1 ")
        )
        padded = pc.binary_join_element_wise(" ", seq, " ", "")
        for a, b in pairs:
            padded = pc.replace_substring(
                padded, f" {a} {b} ", f" {a}{b} "
            )
        n_tokens = pc.add(
            pc.count_substring(pc.utf8_trim_whitespace(padded), " "), 1
        )
        return pa.table({
            id_col: t[id_col],
            "n_words": pc.cast(n_words, pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
        })

    return ds.map_batches(encode, batch_format="pyarrow")
