"""Record-linkage primitives beyond the reference's grouped matcher:
string-similarity self-join, Fellegi-Sunter probabilistic scoring, and
meta-blocking — the candidate-generation / pair-classification toolbox a
100-TB entity-resolution pipeline runs BEFORE a scorer like the
reference's ``records_match`` (reference matcher.py:92 scores pairs the
caller already grouped; these operators produce those pairs at scale).

All three follow the repo's bucketed-exchange contract (CLAUDE.md): the
shuffle key is always hashed by ``core.exchange``, never grouped on raw;
per-group work is vectorized over np boundaries.

* :func:`edit_distance_self_join` — Ed-Join/PassJoin-style exact
  similarity join: q-gram candidate generation with the count-filter
  completeness bound, bit-parallel Myers verification, dup-group
  expansion. Short-field contract: the TEXT rides the exchange (like
  simhash_near_dups' fingerprint), so verification is local.
* :func:`fellegi_sunter_link` — the classic probabilistic record-linkage
  model (Fellegi & Sunter, JASA 1969): per-field u-probabilities
  estimated from the data's value-frequency distribution (exact integer
  sums of squares), fixed m-probabilities, log-likelihood agreement
  weights, match/possible/nonmatch classification.
* :func:`metablock_wep_pairs` — token blocking + meta-blocking with
  Weighted Edge Pruning (Papadakis et al., "Meta-Blocking: Taking Entity
  Resolution to the Next Level", TKDE 2014): CBS edge weights (number of
  shared blocks), prune edges at or below the global mean weight.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from record_matcher_ray.core.exchange import bucket_exchange
from record_matcher_ray.core.hashkernels import (
    column_hash64,
    mix64,
    normalize_utf8,
    unique_per_doc,
    utf8_view,
    whole_hashes,
    window_hashes,
)
from record_matcher_ray.pipelines.dedup import _group_pairs

def _non_null(col: str, columns: list[str] | None = None):
    """An exchange ``prepare`` keyed on ``col``: the ``columns`` (all when
    None) of the rows whose ``col`` is not null (SQL join semantics for
    block and cluster keys: a null key groups with nothing)."""

    def prepare(t: pa.Table) -> pa.Table:
        t = t if columns is None else t.select(columns)
        return t.filter(pc.is_valid(t[col]))

    return prepare


# ---------------------------------------------------------------------------
# edit-distance similarity self-join
# ---------------------------------------------------------------------------


def _lev_dist_elementwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """RAW edit distance of aligned string pairs (the 0-100 similarity
    wrappers in functions/scorers.py normalize; a similarity join needs
    the integer distance). Encode unique values once, gather per pair,
    dispatch to the bit-parallel Myers kernel (≤64-char patterns) or the
    classic pair-axis DP above that — same uint8 ASCII fast path as
    scorers._elementwise_dedup."""
    from record_matcher_ray.functions.scorers import (
        _PAD_X,
        _PAD_X8,
        _PAD_Y,
        _PAD_Y8,
        _encode_padded,
        _factorize,
        _lev_dist_pairs,
        _lev_dist_pairs_myers,
    )

    n = len(xs)
    if n == 0:
        return np.empty(0, np.int64)
    ux, xc = _factorize(xs)
    uy, yc = _factorize(ys)
    xmat_u, xlens_u = _encode_padded(list(ux), pad=_PAD_X)
    ymat_u, ylens_u = _encode_padded(list(uy), pad=_PAD_Y)
    real_x = xmat_u[xmat_u != _PAD_X]
    real_y = ymat_u[ymat_u != _PAD_Y]
    if (
        (real_x.size == 0 or real_x.max() < _PAD_X8)
        and (real_y.size == 0 or real_y.max() < _PAD_X8)
    ):
        xmat_u = np.where(xmat_u == _PAD_X, _PAD_X8, xmat_u).astype(np.uint8)
        ymat_u = np.where(ymat_u == _PAD_Y, _PAD_Y8, ymat_u).astype(np.uint8)
    xmat, xlens = xmat_u[xc], xlens_u[xc]
    ymat, ylens = ymat_u[yc], ylens_u[yc]
    out = np.empty(n, np.int64)
    short = xlens <= 64
    if short.any():
        s = np.nonzero(short)[0]
        # slice matrices to the selection's own max widths — the Myers
        # word dtype is sized from the PADDED pattern width, so a single
        # 70-char outlier elsewhere in the batch must not leak in
        wx = max(int(xlens[s].max()), 1)
        wy = max(int(ylens[s].max()), 1)
        out[s] = _lev_dist_pairs_myers(
            xmat[s][:, :wx], xlens[s], ymat[s][:, :wy], ylens[s]
        )
    if (~short).any():
        l_ = np.nonzero(~short)[0]
        out[l_] = _lev_dist_pairs(xmat[l_], xlens[l_], ymat[l_], ylens[l_])
    return out


def edit_distance_self_join(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    *,
    max_dist: int = 2,
    q: int = 2,
    max_gram_freq: int | None = None,
) -> ray.data.Dataset:
    """EXACT edit-distance similarity self-join: every unordered id pair
    whose ``text_col`` values are within ``max_dist`` Levenshtein edits →
    (x_id, y_id, dist), x_id < y_id. Raw byte/char distance over the raw
    strings (no normalization) so a SQL ``levenshtein()`` oracle replays
    it exactly on ASCII corpora.

    Shape (Ed-Join family — Xiao et al., VLDB 2008, public algorithm):

    1. distinct-value reduction: texts hash-bucket by value, duplicates
       collapse to one representative per distinct string. Exact-dup id
       pairs (dist 0) come straight from the member groups — they never
       enter candidate generation, so value skew (the classic ER corpus
       has FEW distinct names and MANY ids per name) cannot explode the
       q-gram index.
    2. candidate generation over DISTINCT strings: positional-free q-gram
       set keys. Completeness: ed(x,y) ≤ k implies the q-gram bags share
       ≥ max(|x|,|y|) − q + 1 − k·q grams, which is ≥ 1 whenever
       max(|x|,|y|) ≥ q·(k+1); any shared bag gram is a shared set gram,
       so share-≥1-set-gram candidates lose nothing for long-enough
       strings. Strings SHORTER than q·(k+1) instead emit length-band
       keys ℓ ∈ [len, len+k] — two short strings with |Δlen| ≤ k always
       share the band max(len_x, len_y). Both key families ride one
       bucketed exchange with the TEXT alongside (short-field contract,
       like simhash_near_dups' fingerprint-rides-the-exchange), so no
       second lookup join is needed.
    3. per-pair dedupe exchange + bit-parallel Myers verification
       (functions/scorers.py kernels), length filter |Δlen| ≤ k applied
       before any DP.
    4. expansion back to id pairs via two bucketed hash joins on the
       distinct-value hash (pipelines/joins.hash_join) + the intra-group
       dist-0 pairs from step 1.

    ``max_gram_freq`` drops q-grams seen in more distinct strings than
    the cap (stop-gram pruning — results then under-count by pairs whose
    ONLY shared grams are stop grams; off by default so the oracle
    comparison stays exact; sized like minhash's hot-bucket caps when
    enabled at corpus scale).
    """
    k = int(max_dist)
    short_cut = q * (k + 1)

    # ---- (uhash, id) membership + per-distinct-string table -------------
    def add_uhash(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t[text_col], pa.string()), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        h = column_hash64(txt).view(np.int64)
        return pa.table(
            {
                "uhash": pa.array(h),
                "id": pc.cast(t[id_col], pa.int64()),
                "txt": txt,
            }
        )

    members = ds.map_batches(add_uhash, batch_format="pyarrow").materialize()
    if members.count() == 0:  # free post-materialize; hash_join needs
        return ray.data.from_arrow(  # a non-empty schema downstream
            pa.schema(
                [("x_id", pa.int64()), ("y_id", pa.int64()),
                 ("dist", pa.int64())]
            ).empty_table()
        )

    def distinct_strings(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("uhash", pa.int64()), ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        u = t["uhash"].to_numpy()
        order = np.argsort(u, kind="stable")
        first = np.concatenate(([True], u[order][1:] != u[order][:-1]))
        sel = order[first]
        return pa.table(
            {"uhash": pa.array(u[sel]), "txt": t["txt"].take(pa.array(sel))}
        )

    uniq = bucket_exchange(members, ["uhash"], distinct_strings).materialize()

    # ---- intra-group exact-dup pairs (dist 0) ---------------------------
    def dup_pairs(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("dist", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        a, b = _group_pairs(t["uhash"].to_numpy(), t["id"].to_numpy())
        if len(a) == 0:
            return empty
        return pa.table(
            {"x_id": pa.array(a), "y_id": pa.array(b),
             "dist": pa.array(np.zeros(len(a), np.int64))}
        )

    zero_pairs = bucket_exchange(members, ["uhash"], dup_pairs)

    # ---- candidate keys over distinct strings ---------------------------
    def expand_keys(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("key", pa.int64()), ("uhash", pa.int64()),
             ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        txt = t["txt"].combine_chunks()
        flat, starts, lens = utf8_view(txt)
        gh, n_win = window_hashes(flat, starts, lens, q, 1)
        # set semantics: one instance per (string, gram)
        gu, gu_lens = unique_per_doc(gh.view(np.int64), n_win)
        rows_g = np.repeat(np.arange(len(t), dtype=np.int64), gu_lens)
        # short strings: length-band keys ℓ in [len, len+k], namespaced
        # away from the gram domain by a fixed tag mix
        short = np.nonzero(lens < short_cut)[0].astype(np.int64)
        band_l = (
            lens[short][:, None] + np.arange(k + 1, dtype=np.int64)[None, :]
        ).reshape(-1)
        band_keys = mix64(
            band_l.view(np.uint64) ^ np.uint64(0xC2B2AE3D27D4EB4F)
        ).view(np.int64)
        rows_s = np.repeat(short, k + 1)
        keys = np.concatenate([gu, band_keys])
        rows = np.concatenate([rows_g, rows_s])
        return pa.table(
            {
                "key": pa.array(keys),
                "uhash": pa.array(t["uhash"].to_numpy()[rows]),
                "txt": txt.take(pa.array(rows)),
            }
        )

    def key_pairs(t: pa.Table) -> pa.Table:
        """Per key group → candidate (ua, ub) with texts, locally deduped
        and length-filtered, for the global per-pair dedupe."""
        empty = pa.schema(
            [("ua", pa.int64()), ("ub", pa.int64()),
             ("ta", pa.string()), ("tb", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        pa_, pb_ = _group_pairs(
            t["key"].to_numpy(), t["uhash"].to_numpy(),
            max_size=max_gram_freq, positions=True,
        )
        if len(pa_) == 0:
            return empty
        txt = t["txt"].combine_chunks()
        lens = pc.binary_length(txt).to_numpy().astype(np.int64)
        keep = np.abs(lens[pa_] - lens[pb_]) <= k
        pa_, pb_ = pa_[keep], pb_[keep]
        if len(pa_) == 0:
            return empty
        u = t["uhash"].to_numpy()
        ua, ub = u[pa_], u[pb_]
        swap = ua > ub
        ua2 = np.where(swap, ub, ua)
        ub2 = np.where(swap, ua, ub)
        pa2 = np.where(swap, pb_, pa_)
        pb2 = np.where(swap, pa_, pb_)
        # local partial dedupe (the same pair surfaces once per shared key)
        order = np.lexsort((ub2, ua2))
        ua_s, ub_s = ua2[order], ub2[order]
        first = np.concatenate(
            ([True], (ua_s[1:] != ua_s[:-1]) | (ub_s[1:] != ub_s[:-1]))
        )
        sel = order[first]
        return pa.table(
            {
                "ua": pa.array(ua2[sel]),
                "ub": pa.array(ub2[sel]),
                "ta": txt.take(pa.array(pa2[sel])),
                "tb": txt.take(pa.array(pb2[sel])),
            }
        )

    def verify(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("ua", pa.int64()), ("ub", pa.int64()), ("dist", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        ua = t["ua"].to_numpy()
        ub = t["ub"].to_numpy()
        order = np.lexsort((ub, ua))
        first = np.concatenate(
            ([True],
             (ua[order][1:] != ua[order][:-1])
             | (ub[order][1:] != ub[order][:-1]))
        )
        sel = order[first]
        ta = np.asarray(t["ta"].take(pa.array(sel)).to_pylist(), dtype=object)
        tb = np.asarray(t["tb"].take(pa.array(sel)).to_pylist(), dtype=object)
        d = _lev_dist_elementwise(ta, tb)
        keep = d <= k
        return pa.table(
            {"ua": pa.array(ua[sel][keep]), "ub": pa.array(ub[sel][keep]),
             "dist": pa.array(d[keep])}
        )

    cand = bucket_exchange(uniq, ["key"], key_pairs, prepare=expand_keys)
    # small (verified distinct-string pairs); materializing also lets the
    # all-pruned case short-circuit the joins below
    accepted = bucket_exchange(cand, ["ua", "ub"], verify).materialize()
    if accepted.count() == 0:
        return zero_pairs

    # ---- expand accepted distinct-string pairs to id pairs --------------
    from record_matcher_ray.pipelines.joins import hash_join

    mem_a = members.map_batches(
        lambda t: pa.table({"ua": t["uhash"], "x_id": t["id"]}),
        batch_format="pyarrow",
    )
    mem_b = members.map_batches(
        lambda t: pa.table({"ub": t["uhash"], "y_id": t["id"]}),
        batch_format="pyarrow",
    )
    expanded = hash_join(
        hash_join(accepted, mem_a, "ua", "ua"),
        mem_b, "ub", "ub",
    )

    def order_ids(t: pa.Table) -> pa.Table:
        x = t["x_id"].to_numpy()
        y = t["y_id"].to_numpy()
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        return pa.table(
            {"x_id": pa.array(lo), "y_id": pa.array(hi), "dist": t["dist"]}
        )

    near_pairs = expanded.map_batches(order_ids, batch_format="pyarrow")
    return zero_pairs.union(near_pairs)


# ---------------------------------------------------------------------------
# Fellegi-Sunter probabilistic linkage
# ---------------------------------------------------------------------------


def _round6(x: np.ndarray) -> np.ndarray:
    """Signed half-up rounding to 6 decimals — bit-matches the DuckDB
    ``CASE WHEN x >= 0 THEN floor(x*1e6+0.5)/1e6 ELSE ... END`` replay
    recipe used across the repo's float-parity oracles."""
    return np.where(
        x >= 0,
        np.floor(x * 1e6 + 0.5),
        -np.floor(-x * 1e6 + 0.5),
    ) / 1e6


def fellegi_sunter_weights(
    ds: ray.data.Dataset,
    field_cols: list[str],
    m_probs: list[float],
) -> tuple[list[float], list[float]]:
    """Per-field (agreement_weight, disagreement_weight) under the
    Fellegi-Sunter model with u-probabilities ESTIMATED FROM THE DATA:
    u_f = P(two random records agree on f) = Σ_v c_v² / N² over the
    field's value-frequency distribution (nulls agree with nothing).
    Exact integer sums of squares, ONE double division, libm log — the
    float recipe the SQL oracle replays term for term.

    One streaming pass over ``ds`` computes every field's partial value
    counts per batch; the combine is a small groupby over the distinct
    values (bounded by field cardinality, not corpus size).
    """
    fields = list(field_cols)

    def partial_counts(t: pa.Table) -> pa.Table:
        fis: list[np.ndarray] = []
        vals: list[pa.Array] = []
        cnts: list[np.ndarray] = []
        for fi, f in enumerate(fields):
            col = pc.cast(t[f], pa.string())
            vc = pc.value_counts(pc.drop_null(col))
            nv = len(vc)
            fis.append(np.full(nv, fi, np.int64))
            vals.append(vc.field("values"))
            cnts.append(vc.field("counts").to_numpy().astype(np.int64))
        # corpus-size sentinel row (fi = -1) so N needs no second pass
        fis.append(np.full(1, -1, np.int64))
        vals.append(pa.array([""], pa.string()))
        cnts.append(np.array([len(t)], np.int64))
        return pa.table(
            {
                "fi": pa.array(np.concatenate(fis)),
                "val": pa.concat_arrays(
                    [v.combine_chunks() if isinstance(v, pa.ChunkedArray)
                     else v for v in vals]
                ),
                "cnt": pa.array(np.concatenate(cnts)),
            }
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby(["fi", "val"])
        .sum("cnt")
        .take_all()
    )
    n_total = 0
    ssq = [0] * len(fields)
    for row in counts:
        c = int(row["sum(cnt)"])
        if row["fi"] == -1:
            n_total += c
        else:
            ssq[row["fi"]] += c * c
    if n_total == 0:
        raise ValueError("fellegi_sunter_weights: empty dataset")
    wa: list[float] = []
    wd: list[float] = []
    for fi, m in enumerate(m_probs):
        u = ssq[fi] / (n_total * n_total)
        if not 0.0 < u < 1.0:
            raise ValueError(
                f"fellegi_sunter_weights: degenerate u={u} for field "
                f"{fields[fi]!r} (constant or all-null column)"
            )
        wa.append(math.log(m) - math.log(u))
        wd.append(math.log(1.0 - m) - math.log(1.0 - u))
    return wa, wd


def fellegi_sunter_link(
    ds: ray.data.Dataset,
    id_col: str,
    block_col: str,
    field_cols: list[str],
    *,
    m_probs: list[float] | None = None,
    t_upper: float = 4.0,
    t_lower: float = 0.0,
    max_block: int | None = None,
) -> ray.data.Dataset:
    """Fellegi-Sunter probabilistic linkage over within-block pairs →
    (x_id, y_id, score, decision), x_id < y_id by id value.

    score = Σ_f (agree_f ? log(m_f/u_f) : log((1−m_f)/(1−u_f))) summed in
    ``field_cols`` order (pinned-order IEEE doubles — replayable); agree
    is strict equality with SQL null semantics (null agrees with
    nothing). decision: 'match' if score ≥ t_upper, 'possible' if
    ≥ t_lower, else 'nonmatch', compared on the UNROUNDED score; the
    emitted score is rounded half-up to 6 decimals.

    Pairs come from equality blocking on ``block_col`` (null blocks drop,
    SQL join semantics). The exchange key is a hash of the block
    value; within a call, block boundaries vectorize via
    _group_pairs. ``max_block`` caps pathological blocks (pairs then
    under-count — counted semantics like minhash's hot-bucket caps; off
    by default so the oracle stays exact). m-probabilities default to
    0.9 per field (the classic starting prior; pass estimates from
    labeled data when available)."""
    fields = list(field_cols)
    if m_probs is None:
        m_probs = [0.9] * len(fields)
    proj = ds.select_columns([id_col, block_col, *fields])
    wa, wd = fellegi_sunter_weights(proj, fields, m_probs)

    def score_block(t: pa.Table) -> pa.Table:
        import pandas as pd

        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("score", pa.float64()), ("decision", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        blk = column_hash64(t[block_col]).view(np.int64)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        pa_, pb_ = _group_pairs(
            blk, ids, max_size=max_block, positions=True
        )
        if len(pa_) == 0:
            return empty
        score = np.zeros(len(pa_), np.float64)
        for fi, f in enumerate(fields):
            codes, _ = pd.factorize(
                t[f].to_numpy(zero_copy_only=False), sort=False
            )
            agree = (codes[pa_] == codes[pb_]) & (codes[pa_] >= 0)
            score = score + np.where(agree, wa[fi], wd[fi])
        decision = np.where(
            score >= t_upper, "match",
            np.where(score >= t_lower, "possible", "nonmatch"),
        )
        return pa.table(
            {
                "x_id": pa.array(ids[pa_]),
                "y_id": pa.array(ids[pb_]),
                "score": pa.array(_round6(score)),
                "decision": pa.array(decision.astype(object), pa.string()),
            }
        )

    return bucket_exchange(
        ds, [block_col], score_block,
        prepare=_non_null(block_col, [id_col, block_col, *fields]),
    )


# ---------------------------------------------------------------------------
# meta-blocking with weighted edge pruning
# ---------------------------------------------------------------------------


def metablock_wep_pairs(
    ds: ray.data.Dataset,
    id_col: str,
    attr_cols: list[str],
    *,
    max_block: int | None = None,
    max_partial_rows: int = 50_000_000,
) -> ray.data.Dataset:
    """Token blocking + meta-blocking with Weighted Edge Pruning →
    (x_id, y_id, weight), x_id < y_id: the candidate pairs a schema-
    agnostic ER pipeline would score, pre-pruned by co-occurrence
    evidence (Papadakis et al., TKDE 2014 — public algorithm).

    Blocks are the DISTINCT lowercase space-separated tokens across
    ``attr_cols`` (token blocking); the CBS edge weight of a record pair
    is the number of blocks both appear in; WEP keeps edges with weight
    STRICTLY ABOVE the global mean weight. The mean is Σw / |edges| as
    exact integers divided once — the SQL oracle replays the same
    comparison.

    Scale shape: token instances ride ONE bucketed exchange; per-token
    pair emission and the per-(x, y) partial combine are vectorized
    inside each bucket task; a second small exchange on a pair-hash
    bucket finishes the weight sum. Global Σw / |edges| come from
    per-block remote partials (two ints per block — never the edges
    themselves) summed on the driver. ``max_block`` caps stop-token
    blocks (weights then under-count, counted semantics; off by default
    so the oracle stays exact)."""
    attrs = list(attr_cols)

    def token_instances(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("tok", pa.int64()), ("id", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        parts = [
            pc.fill_null(pc.cast(t[a], pa.string()), "") for a in attrs
        ]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, " ")
        low = pc.utf8_lower(joined)
        if isinstance(low, pa.ChunkedArray):
            low = low.combine_chunks()
        toks = pc.split_pattern(low, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = np.diff(toks.offsets.to_numpy().astype(np.int64))
        flat, starts, lens = utf8_view(toks.values)
        th = whole_hashes(flat, starts, lens).view(np.int64)
        rows = np.repeat(np.arange(len(t), dtype=np.int64), counts)
        keep = lens > 0  # SQL mirror: WHERE length(tok) > 0
        th, rows = th[keep], rows[keep]
        # DISTINCT (id, token): sort by (row, tok), first-occurrence
        n_tok = np.bincount(rows, minlength=len(t)).astype(np.int64)
        tu, tu_lens = unique_per_doc(th, n_tok)
        rows_u = np.repeat(np.arange(len(t), dtype=np.int64), tu_lens)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        return pa.table({"tok": pa.array(tu), "id": pa.array(ids[rows_u])})

    def bucket_pair_counts(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x", pa.int64()), ("y", pa.int64()), ("cnt", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        a, b = _group_pairs(
            t["tok"].to_numpy(), t["id"].to_numpy(), max_size=max_block
        )
        if len(a) == 0:
            return empty
        # local partial combine: many tokens in this bucket repeat a pair
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        first = np.concatenate(
            ([True], (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1]))
        )
        starts = np.nonzero(first)[0]
        cnt = np.diff(np.concatenate((starts, [len(a_s)])))
        return pa.table(
            {"x": pa.array(a_s[first]), "y": pa.array(b_s[first]),
             "cnt": pa.array(cnt.astype(np.int64))}
        )

    def combine_pairs(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("weight", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        c = t["cnt"].to_numpy()
        order = np.lexsort((y, x))
        x_s, y_s, c_s = x[order], y[order], c[order]
        first = np.concatenate(
            ([True], (x_s[1:] != x_s[:-1]) | (y_s[1:] != y_s[:-1]))
        )
        starts = np.nonzero(first)[0]
        w = np.add.reduceat(c_s, starts)
        return pa.table(
            {"x_id": pa.array(x_s[first]), "y_id": pa.array(y_s[first]),
             "weight": pa.array(w.astype(np.int64))}
        )

    partial_pairs = bucket_exchange(
        ds, ["tok"], bucket_pair_counts, prepare=token_instances,
    )
    # two consumers: global mean + the pruning filter
    edges = bucket_exchange(
        partial_pairs, ["x", "y"], combine_pairs,
    ).materialize()

    @ray.remote
    def _totals(t: pa.Table) -> tuple[int, int]:
        if len(t) == 0:
            return 0, 0
        return int(pc.sum(t["weight"]).as_py() or 0), len(t)

    partials = ray.get(
        [_totals.remote(r) for r in edges.to_arrow_refs()]
    )
    sum_w = sum(p[0] for p in partials)
    n_edges = sum(p[1] for p in partials)
    if n_edges == 0:
        return edges
    # cast-then-divide, exactly like the SQL replay's
    # (sum)::DOUBLE / (count)::DOUBLE — identical doubles either way below
    # 2^53, and identical ROUNDING BEHAVIOR to the oracle above it
    mean_w = float(sum_w) / float(n_edges)

    def prune(t: pa.Table) -> pa.Table:
        w = t["weight"].to_numpy().astype(np.float64)
        return t.filter(pa.array(w > mean_w))

    return edges.map_batches(prune, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# numeric band (range) self-join
# ---------------------------------------------------------------------------


def band_self_join(
    ds: ray.data.Dataset,
    val_col: str,
    id_col: str,
    eps: float,
    *,
    max_cell: int | None = None,
) -> ray.data.Dataset:
    """EXACT numeric band self-join: every unordered id pair whose
    ``val_col`` values differ by at most ``eps`` → (x_id, y_id, diff),
    x_id < y_id — numeric-attribute blocking for ER (acctbal bands,
    timestamps, prices) without the quadratic ON |a−b| ≤ eps scan.

    Grid blocking: each row lands in cell ⌊v/eps⌋ and is EMITTED into
    cells {c−1, c, c+1}; any pair within eps then shares at least one
    cell even under worst-case float-division jitter at cell boundaries
    (the true quotient gap is ≤ 1, the emission slack absorbs rounding
    to ±1 more). Per-cell pairs are vectorized (_group_pairs), verified
    with the exact ``|va − vb| ≤ eps`` IEEE comparison the SQL oracle
    uses, then deduped on a pair-hash exchange (a pair can surface from
    up to three shared cells). Null values drop (SQL comparison
    semantics). ``max_cell`` caps degenerate cells (pairs under-count,
    counted semantics; off by default so the oracle stays exact).

    Scale shape: 3 instances/row ride one exchange;
    exchange volume is 3N rows of three scalars regardless of value
    skew (the cap bounds in-cell pair blowup).
    """
    eps = float(eps)
    if eps <= 0:
        raise ValueError("band_self_join needs eps > 0")

    def expand_cells(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("cell", pa.int64()), ("id", pa.int64()), ("v", pa.float64())]
        ).empty_table()
        v = pc.cast(t[val_col], pa.float64())
        ok = pc.is_valid(v)
        sub = t.filter(ok)
        if len(sub) == 0:
            return empty
        vv = pc.cast(sub[val_col], pa.float64()).to_numpy()
        ids = pc.cast(sub[id_col], pa.int64()).to_numpy()
        c = np.floor(vv / eps).astype(np.int64)
        cells = np.concatenate([c - 1, c, c + 1])
        ids3 = np.tile(ids, 3)
        v3 = np.tile(vv, 3)
        return pa.table(
            {"cell": pa.array(cells), "id": pa.array(ids3), "v": pa.array(v3)}
        )

    def cell_pairs(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("diff", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        pa_, pb_ = _group_pairs(
            t["cell"].to_numpy(), t["id"].to_numpy(),
            max_size=max_cell, positions=True,
        )
        if len(pa_) == 0:
            return empty
        v = t["v"].to_numpy()
        d = np.abs(v[pa_] - v[pb_])
        keep = d <= eps
        if not keep.any():
            return empty
        ids = t["id"].to_numpy()
        return pa.table(
            {"x_id": pa.array(ids[pa_][keep]),
             "y_id": pa.array(ids[pb_][keep]), "diff": pa.array(d[keep])}
        )

    def dedupe(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("diff", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        a = t["x_id"].to_numpy()
        b = t["y_id"].to_numpy()
        d = t["diff"].to_numpy()
        order = np.lexsort((b, a))
        first = np.concatenate(
            ([True],
             (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1]))
        )
        sel = order[first]
        return pa.table(
            {"x_id": pa.array(a[sel]), "y_id": pa.array(b[sel]),
             "diff": pa.array(d[sel])}
        )

    pairs = bucket_exchange(ds, ["cell"], cell_pairs, prepare=expand_cells)
    return bucket_exchange(pairs, ["x_id", "y_id"], dedupe)


# ---------------------------------------------------------------------------
# survivorship (golden records) + blocking-quality metrics
# ---------------------------------------------------------------------------

_SURV_AGGS = ("mode", "min", "max", "longest", "shortest")


def survivorship(
    ds: ray.data.Dataset,
    cluster_col: str,
    rules: list[tuple[str, str]],
) -> ray.data.Dataset:
    """Golden-record survivorship: collapse each entity cluster to ONE
    canonical row → (cluster, n_members, <col> per rule). Rules pick the
    surviving value per attribute: ``mode`` (most frequent, ties to the
    smallest value), ``min`` / ``max`` (by value), ``longest`` /
    ``shortest`` (string length, ties to the smallest value). Null
    attribute values never survive unless the whole cluster is null.

    The merge/survivorship half of classic entity resolution (the half
    the reference stops short of — its matcher emits pairs; reference
    matcher.py:219 keeps both rows). Cluster labels come from any
    upstream (connected_components over similarity-join pairs, exact
    keys, …).

    Scale shape: one bucketed exchange on hash(cluster) (cluster values
    co-locate, many per call); inside a call every rule is
    vectorized over sorted (cluster, value-code) runs — no per-cluster
    Python. Output is one row per cluster.
    """
    import pandas as pd

    for col, agg in rules:
        if agg not in _SURV_AGGS:
            raise ValueError(
                f"survivorship rule {agg!r} for {col!r}: must be one of "
                f"{_SURV_AGGS}"
            )

    def fold(t: pa.Table) -> pa.Table:
        fields = [("cluster", t.schema.field(cluster_col).type),
                  ("n_members", pa.int64())]
        fields += [(c, t.schema.field(c).type) for c, _ in rules]
        empty = pa.schema(fields).empty_table()
        if len(t) == 0:
            return empty
        cl_arr = t[cluster_col]
        ckey, cuniq = pd.factorize(
            cl_arr.to_numpy(zero_copy_only=False), sort=True
        )
        k = len(cuniq)
        n_members = np.bincount(ckey, minlength=k).astype(np.int64)
        out: dict = {
            "cluster": pa.array(pd.Series(cuniq),
                                t.schema.field(cluster_col).type),
            "n_members": pa.array(n_members),
        }
        for col, agg in rules:
            vals = t[col].to_numpy(zero_copy_only=False)
            valid = pc.is_valid(t[col]).to_numpy(zero_copy_only=False)
            # factorize sorted: code order == value order (tie-breaks)
            vcode, vuniq = pd.factorize(vals, sort=True)
            # nulls → code -1; push them past every real value so they
            # only survive when a cluster has nothing else
            NULLC = len(vuniq)
            vcode = np.where(valid, vcode, NULLC).astype(np.int64)
            if agg == "mode":
                order = np.lexsort((vcode, ckey))
                ck_s, vc_s = ckey[order], vcode[order]
                first = np.concatenate(
                    ([True], (ck_s[1:] != ck_s[:-1]) | (vc_s[1:] != vc_s[:-1]))
                )
                starts = np.nonzero(first)[0]
                cnt = np.diff(np.concatenate((starts, [len(ck_s)])))
                rc, rv = ck_s[first], vc_s[first]
                # null runs never beat a real value
                cnt = np.where(rv == NULLC, 0, cnt)
                pick_order = np.lexsort((rv, -cnt, rc))
                rc_o = rc[pick_order]
                first_c = np.concatenate(([True], rc_o[1:] != rc_o[:-1]))
                win = rv[pick_order][first_c]
                win_c = rc_o[first_c]
            elif agg in ("min", "max"):
                sign = vcode if agg == "min" else -vcode
                # nulls sort last either way
                sign = np.where(vcode == NULLC, np.iinfo(np.int64).max, sign)
                order = np.lexsort((sign, ckey))
                ck_s = ckey[order]
                first_c = np.concatenate(([True], ck_s[1:] != ck_s[:-1]))
                win = vcode[order][first_c]
                win_c = ck_s[first_c]
            else:  # longest / shortest
                lens = np.array(
                    [len(u) if isinstance(u, str) else 0 for u in vuniq]
                    + [-1], np.int64
                )
                ln = lens[vcode]
                key = -ln if agg == "longest" else ln
                key = np.where(vcode == NULLC, np.iinfo(np.int64).max, key)
                order = np.lexsort((vcode, key, ckey))
                ck_s = ckey[order]
                first_c = np.concatenate(([True], ck_s[1:] != ck_s[:-1]))
                win = vcode[order][first_c]
                win_c = ck_s[first_c]
            # scatter winners back to cluster order (every cluster wins
            # exactly one row; win_c is sorted unique = arange(k))
            res = np.empty(k, np.int64)
            res[win_c] = win
            uplus = pd.Series(list(vuniq) + [None])
            out[col] = pa.array(
                uplus.iloc[res].reset_index(drop=True),
                t.schema.field(col).type,
            )
        return pa.table(out)

    return bucket_exchange(ds, [cluster_col], fold,
                           prepare=_non_null(cluster_col))


def blocking_quality(
    cand: ray.data.Dataset,
    truth: ray.data.Dataset,
    n_records: int,
) -> "pd.DataFrame":
    """Blocking evaluation metrics (the standard ER triple — Christen,
    "Data Matching", 2012): given candidate pairs and ground-truth match
    pairs (both (x_id, y_id), x < y), one row:

        n_cand, n_truth, n_hit,
        reduction_ratio    = 1 − n_cand / C(n_records, 2)
        pairs_completeness = n_hit / n_truth      (blocking recall)
        pairs_quality      = n_hit / n_cand       (blocking precision)

    each double a single pinned division rounded half-up to 6dp (NaN on
    zero denominators). The pair intersection runs on one bucketed
    exchange (pair-hash key, sorted-run intersection inside each bucket)
    — nothing driver-side scales with the pair counts.
    """
    import pandas as pd

    def tag(side: int):
        def inner(t: pa.Table) -> pa.Table:
            x = pc.cast(t["x_id"], pa.int64()).to_numpy()
            y = pc.cast(t["y_id"], pa.int64()).to_numpy()
            return pa.table(
                {"x": pa.array(x), "y": pa.array(y),
                 "side": pa.array(np.full(len(x), side, np.int8))}
            )
        return inner

    both = [cand.map_batches(tag(0), batch_format="pyarrow"),
            truth.map_batches(tag(1), batch_format="pyarrow")]

    def bucket_counts(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("nc", pa.int64()), ("nt", pa.int64()), ("nh", pa.int64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        x = t["x"].to_numpy()
        y = t["y"].to_numpy()
        s = t["side"].to_numpy()
        nc = int((s == 0).sum())
        nt = int((s == 1).sum())
        order = np.lexsort((s, y, x))
        x_s, y_s, s_s = x[order], y[order], s[order]
        # a hit = a (x, y) run containing both sides (pairs are unique
        # within each side)
        first = np.concatenate(
            ([True], (x_s[1:] != x_s[:-1]) | (y_s[1:] != y_s[:-1]))
        )
        gid = np.cumsum(first) - 1
        nh = int(
            (np.bincount(gid, weights=(s_s == 0)) *
             np.bincount(gid, weights=(s_s == 1)) > 0).sum()
        )
        return pa.table(
            {"nc": pa.array([nc], pa.int64()),
             "nt": pa.array([nt], pa.int64()),
             "nh": pa.array([nh], pa.int64())}
        )

    parts = bucket_exchange(both, ["x", "y"], bucket_counts).to_pandas()
    n_cand = int(parts["nc"].sum()) if len(parts) else 0
    n_truth = int(parts["nt"].sum()) if len(parts) else 0
    n_hit = int(parts["nh"].sum()) if len(parts) else 0
    total = n_records * (n_records - 1) // 2
    rr = (1.0 - float(n_cand) / float(total)) if total else float("nan")
    pc_ = float(n_hit) / float(n_truth) if n_truth else float("nan")
    pq = float(n_hit) / float(n_cand) if n_cand else float("nan")
    r6 = lambda v: (  # noqa: E731 — the repo's signed half-up recipe
        math.floor(v * 1e6 + 0.5) / 1e6 if v >= 0
        else -math.floor(-v * 1e6 + 0.5) / 1e6
    ) if v == v else v
    return pd.DataFrame(
        {"n_cand": [n_cand], "n_truth": [n_truth], "n_hit": [n_hit],
         "reduction_ratio": [r6(rr)], "pairs_completeness": [r6(pc_)],
         "pairs_quality": [r6(pq)]}
    )


# ---------------------------------------------------------------------------
# token-sort similarity pairs (fuzzywuzzy-family scorer, distributed)
# ---------------------------------------------------------------------------


def token_sort_similarity_pairs(
    ds: ray.data.Dataset,
    text_col: str,
    *,
    max_token_freq: int | None = None,
) -> ray.data.Dataset:
    """Token-sort Levenshtein similarity for every DISTINCT value pair
    sharing at least one whitespace token → (name_a, name_b, ts_sim),
    name_a < name_b by string. The distributed form of the registered
    ``token_sort_ratio`` scorer (functions/scorers.py:117): compare
    strings after sorting their tokens, so word order never costs
    similarity ("red widget" vs "widget red" scores 100).

    Shape: distinct values dedupe on a hash bucket, token keys ride one
    bucketed exchange with the TEXT alongside (the edjoin short-field
    contract), per-token pairs dedupe on a pair-hash exchange, then the
    token-sorted strings score through the same 0-100 Levenshtein
    formula the supplier_levenshtein oracle replays. ``max_token_freq``
    caps stop-token blocks (counted under-count semantics, off by
    default)."""

    def distinct_vals(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t[text_col], pa.string()), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        return pa.table(
            {"uh": pa.array(column_hash64(txt).view(np.int64)), "txt": txt}
        )

    def dedupe_vals(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("uh", pa.int64()), ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        u = t["uh"].to_numpy()
        order = np.argsort(u, kind="stable")
        first = np.concatenate(([True], u[order][1:] != u[order][:-1]))
        sel = order[first]
        return pa.table(
            {"uh": pa.array(u[sel]), "txt": t["txt"].take(pa.array(sel))}
        )

    def token_keys(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("key", pa.int64()), ("uh", pa.int64()), ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        txt = t["txt"].combine_chunks() if isinstance(
            t["txt"], pa.ChunkedArray) else t["txt"]
        toks = pc.split_pattern_regex(txt, r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        counts = np.diff(toks.offsets.to_numpy().astype(np.int64))
        flat, starts, lens = utf8_view(toks.values)
        th = whole_hashes(flat, starts, lens).view(np.int64)
        rows = np.repeat(np.arange(len(t), dtype=np.int64), counts)
        keep = lens > 0
        th, rows = th[keep], rows[keep]
        n_tok = np.bincount(rows, minlength=len(t)).astype(np.int64)
        tu, tu_lens = unique_per_doc(th, n_tok)
        rows_u = np.repeat(np.arange(len(t), dtype=np.int64), tu_lens)
        return pa.table(
            {
                "key": pa.array(tu),
                "uh": pa.array(t["uh"].to_numpy()[rows_u]),
                "txt": txt.take(pa.array(rows_u)),
            }
        )

    def key_pairs(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("ua", pa.int64()), ("ub", pa.int64()),
             ("ta", pa.string()), ("tb", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        pa_, pb_ = _group_pairs(
            t["key"].to_numpy(), t["uh"].to_numpy(),
            max_size=max_token_freq, positions=True,
        )
        if len(pa_) == 0:
            return empty
        u = t["uh"].to_numpy()
        ua, ub = u[pa_], u[pb_]
        swap = ua > ub
        ua2 = np.where(swap, ub, ua)
        ub2 = np.where(swap, ua, ub)
        pa2 = np.where(swap, pb_, pa_)
        pb2 = np.where(swap, pa_, pb_)
        order = np.lexsort((ub2, ua2))
        ua_s, ub_s = ua2[order], ub2[order]
        first = np.concatenate(
            ([True], (ua_s[1:] != ua_s[:-1]) | (ub_s[1:] != ub_s[:-1]))
        )
        sel = order[first]
        txt = t["txt"].combine_chunks() if isinstance(
            t["txt"], pa.ChunkedArray) else t["txt"]
        return pa.table(
            {"ua": pa.array(ua2[sel]),
             "ub": pa.array(ub2[sel]),
             "ta": txt.take(pa.array(pa2[sel])),
             "tb": txt.take(pa.array(pb2[sel]))}
        )

    def score(t: pa.Table) -> pa.Table:
        from record_matcher_ray.functions.scorers import (
            levenshtein_elementwise,
        )

        empty = pa.schema(
            [("name_a", pa.string()), ("name_b", pa.string()),
             ("ts_sim", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        ua = t["ua"].to_numpy()
        ub = t["ub"].to_numpy()
        order = np.lexsort((ub, ua))
        first = np.concatenate(
            ([True],
             (ua[order][1:] != ua[order][:-1])
             | (ub[order][1:] != ub[order][:-1]))
        )
        sel = order[first]
        ta = [str(v) for v in t["ta"].take(pa.array(sel)).to_pylist()]
        tb = [str(v) for v in t["tb"].take(pa.array(sel)).to_pylist()]
        sa = np.asarray(
            [" ".join(sorted(s.split())) for s in ta], dtype=object
        )
        sb = np.asarray(
            [" ".join(sorted(s.split())) for s in tb], dtype=object
        )
        # np.round(…, 6) ↔ SQL round(…, 6): the proven pairing from the
        # supplier_levenshtein oracle (same 0-100 quotient domain)
        sim = np.round(levenshtein_elementwise(sa, sb), 6)
        # name_a < name_b by raw string (SQL `<` on ASCII)
        a_arr = np.asarray(ta, dtype=object)
        b_arr = np.asarray(tb, dtype=object)
        swap = a_arr > b_arr
        lo = np.where(swap, b_arr, a_arr)
        hi = np.where(swap, a_arr, b_arr)
        return pa.table(
            {"name_a": pa.array(lo, pa.string()),
             "name_b": pa.array(hi, pa.string()),
             "ts_sim": pa.array(sim.astype(np.float64))}
        )

    vals = bucket_exchange(ds, ["uh"], dedupe_vals, prepare=distinct_vals)
    pairs = bucket_exchange(vals, ["key"], key_pairs, prepare=token_keys)
    return bucket_exchange(pairs, ["ua", "ub"], score)


# ---------------------------------------------------------------------------
# pairwise comparison vectors (ER feature generation)
# ---------------------------------------------------------------------------

_CMP_KINDS = ("exact", "lev", "absdiff")


def compare_vectors(
    ds: ray.data.Dataset,
    id_col: str,
    block_col: str,
    specs: list[tuple[str, str]],
    *,
    max_block: int | None = None,
) -> ray.data.Dataset:
    """Per-pair comparison vectors for within-block candidate pairs —
    the feature-generation step between blocking and classification in
    the classic ER pipeline (what Fellegi-Sunter / an ML classifier
    consumes). → (x_id, y_id, one column per spec), x_id < y_id.

    Spec kinds: ``exact`` → int8 0/1 equality (nulls agree with
    nothing); ``lev`` → 0-100 Levenshtein similarity of the strings
    (functions/scorers.py vectorized kernel, np.round 6 ↔ SQL round 6);
    ``absdiff`` → |a − b| as float64 (exact IEEE, null → null).

    Same bucketed-block shape as :func:`fellegi_sunter_link` (hash of
    the block value keys the exchange, `_group_pairs` vectorizes pair
    emission, ``max_block`` caps degenerate blocks with counted
    under-count semantics)."""
    from record_matcher_ray.functions.scorers import levenshtein_elementwise

    for col, kind in specs:
        if kind not in _CMP_KINDS:
            raise ValueError(
                f"compare_vectors spec {kind!r} for {col!r}: must be one "
                f"of {_CMP_KINDS}"
            )
    cols = list(dict.fromkeys([id_col, block_col] + [c for c, _ in specs]))

    def featurize(t: pa.Table) -> pa.Table:
        import pandas as pd

        fields = [("x_id", pa.int64()), ("y_id", pa.int64())]
        for col, kind in specs:
            fields.append(
                (f"{col}_{kind}",
                 pa.int8() if kind == "exact" else pa.float64())
            )
        empty = pa.schema(fields).empty_table()
        if len(t) == 0:
            return empty
        blk = column_hash64(t[block_col]).view(np.int64)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        pa_, pb_ = _group_pairs(blk, ids, max_size=max_block, positions=True)
        if len(pa_) == 0:
            return empty
        out = {"x_id": pa.array(ids[pa_]), "y_id": pa.array(ids[pb_])}
        for col, kind in specs:
            name = f"{col}_{kind}"
            if kind == "exact":
                codes, _ = pd.factorize(
                    t[col].to_numpy(zero_copy_only=False), sort=False
                )
                agree = (codes[pa_] == codes[pb_]) & (codes[pa_] >= 0)
                out[name] = pa.array(agree.astype(np.int8))
            elif kind == "lev":
                sv = pc.fill_null(pc.cast(t[col], pa.string()), "")
                s = np.asarray(sv.to_pylist(), dtype=object)
                out[name] = pa.array(
                    np.round(levenshtein_elementwise(s[pa_], s[pb_]), 6)
                )
            else:  # absdiff
                v = pc.cast(t[col], pa.float64()).to_numpy(
                    zero_copy_only=False
                )
                out[name] = pa.array(np.abs(v[pa_] - v[pb_]))
        return pa.table(out)

    return bucket_exchange(ds, [block_col], featurize,
                           prepare=_non_null(block_col, cols))


# ---------------------------------------------------------------------------
# prefix-blocked Jaro-Winkler similarity join
# ---------------------------------------------------------------------------


def jw_prefix_join(
    ds: ray.data.Dataset,
    text_col: str,
    *,
    threshold: float = 75.0,
    prefix_len: int = 2,
    max_block: int | None = None,
) -> ray.data.Dataset:
    """Prefix-blocked Jaro-Winkler self-join over DISTINCT values →
    (name_a, name_b, jw_sim ≥ threshold), name_a < name_b. Jaro-Winkler
    has no metric pruning bound, so the operator's DEFINED semantics are
    "pairs sharing the first ``prefix_len`` characters" — the standard
    JW blocking heuristic made explicit (and replayed exactly by the SQL
    oracle with the same block). JW itself rewards common prefixes, so
    the block aligns with the scorer's own bias; still a recall-bounded
    candidate generator, not an exact similarity join like
    :func:`edit_distance_self_join`.

    Shape: distinct-value dedupe on a value-hash bucket, then one
    exchange keyed on the prefix hash (text rides along), one vectorized
    JW matrix per block (functions/scorers kernels; engine jw == DuckDB
    jaro_winkler_similarity on non-empty ASCII — the supplier_jaro
    pinned pairing). Empty/null strings have no prefix and drop.
    """
    from record_matcher_ray.functions.scorers import jaro_winkler_elementwise

    def distinct_vals(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t[text_col], pa.string()), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        return pa.table(
            {"uh": pa.array(column_hash64(txt).view(np.int64)), "txt": txt}
        )

    def dedupe_vals(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("pfx", pa.int64()), ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        u = t["uh"].to_numpy()
        order = np.argsort(u, kind="stable")
        first = np.concatenate(([True], u[order][1:] != u[order][:-1]))
        sel = order[first]
        txt = t["txt"].take(pa.array(sel))
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        pf = pc.utf8_slice_codeunits(txt, 0, prefix_len)
        keep = pc.greater_equal(
            pc.utf8_length(txt), prefix_len
        ).to_numpy(zero_copy_only=False)
        flat, starts, lens = utf8_view(pf)
        ph = whole_hashes(flat, starts, lens).view(np.int64)
        sel2 = np.nonzero(keep)[0]
        return pa.table(
            {"pfx": pa.array(ph[sel2]), "txt": txt.take(pa.array(sel2))}
        )

    def block_pairs(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("name_a", pa.string()), ("name_b", pa.string()),
             ("jw_sim", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        txt = t["txt"].combine_chunks() if isinstance(
            t["txt"], pa.ChunkedArray) else t["txt"]
        names = np.asarray(txt.to_pylist(), dtype=object)
        # rank-encode names so _group_pairs' id ordering IS string order
        order_n = np.argsort(names, kind="stable")
        rank = np.empty(len(names), np.int64)
        rank[order_n] = np.arange(len(names))
        pa_, pb_ = _group_pairs(
            t["pfx"].to_numpy(), rank, max_size=max_block, positions=True
        )
        if len(pa_) == 0:
            return empty
        sim = np.round(
            jaro_winkler_elementwise(names[pa_], names[pb_]), 6
        )
        keep = sim >= threshold
        if not keep.any():
            return empty
        return pa.table(
            {"name_a": pa.array(names[pa_][keep], pa.string()),
             "name_b": pa.array(names[pb_][keep], pa.string()),
             "jw_sim": pa.array(sim[keep])}
        )

    names = bucket_exchange(ds, ["uh"], dedupe_vals, prepare=distinct_vals)
    return bucket_exchange(names, ["pfx"], block_pairs)


# ---------------------------------------------------------------------------
# unsupervised EM estimation of Fellegi-Sunter parameters (Splink-style)
# ---------------------------------------------------------------------------


def em_fellegi_sunter(
    ds: ray.data.Dataset,
    id_col: str,
    block_col: str,
    field_cols: list[str],
    *,
    n_iter: int = 15,
    init_m: float = 0.9,
    init_u: float = 0.1,
    init_lambda: float = 0.1,
    max_block: int | None = None,
    ndigits: int = 9,
) -> "pd.DataFrame":
    """UNSUPERVISED Fellegi-Sunter parameter estimation (the EM recipe
    of Winkler 1988 / Splink's `estimate_parameters_using_em`): from the
    agreement-PATTERN counts of within-block candidate pairs, fit the
    two-class mixture (match prevalence λ, per-field m/u probabilities)
    and report each observed pattern's match posterior P(M | γ).

    → DataFrame (pattern, n_pairs, posterior) sorted by pattern, where
    ``pattern`` = Σ_f agree_f · 2^f (agreement = strict equality with
    SQL null semantics, the fellegi_sunter_link convention) and
    ``posterior`` is rounded ``floor(p·10^ndigits + 0.5)``.

    Deterministic and bit-replayable: the distributed part reduces the
    pair stream to ≤ 2^k exact integer pattern counts (per-bucket
    bincount partials → one tiny groupby); EM then runs driver-side in
    pinned-order IEEE doubles — per-pattern likelihoods as left-nested
    products in ``field_cols`` order, sums as ascending-pattern left
    folds, parameters clamped into [1e-9, 1 − 1e-9] — exactly the
    association order a DuckDB oracle replays with chained CTEs and
    `list_reduce` ordered folds (CLAUDE.md toolbox).

    Scale shape: identical to :func:`fellegi_sunter_link`'s exchange
    (block-hash exchange, vectorized in-bucket pair enumeration,
    optional ``max_block`` cap) but the shuffle OUTPUT is ≤ 2^k tiny
    count rows per ``fn`` call — pattern counting is the rare
    all-pairs statistic whose exchange volume is independent of corpus
    size. EM itself touches only the count table.
    """
    fields = list(field_cols)
    k = len(fields)
    if k == 0 or k > 20:
        raise ValueError(f"need 1..20 comparison fields, got {k}")
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    def pattern_counts(t: pa.Table) -> pa.Table:
        import pandas as pd

        empty = pa.table({"pattern": pa.array([], pa.int64()),
                          "c": pa.array([], pa.int64())})
        if len(t) == 0:
            return empty
        blk = column_hash64(t[block_col]).view(np.int64)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        pa_, pb_ = _group_pairs(blk, ids, max_size=max_block,
                                positions=True)
        if len(pa_) == 0:
            return empty
        pat = np.zeros(len(pa_), np.int64)
        for fi, f in enumerate(fields):
            codes, _ = pd.factorize(
                t[f].to_numpy(zero_copy_only=False), sort=False
            )
            agree = (codes[pa_] == codes[pb_]) & (codes[pa_] >= 0)
            pat |= agree.astype(np.int64) << fi
        cnt = np.bincount(pat, minlength=1 << k).astype(np.int64)
        nz = np.nonzero(cnt)[0]
        return pa.table({"pattern": pa.array(nz.astype(np.int64)),
                         "c": pa.array(cnt[nz])})

    rows = (
        bucket_exchange(
            ds, [block_col], pattern_counts,
            prepare=_non_null(block_col, [id_col, block_col, *fields]),
        )
        .groupby("pattern")
        .sum("c")
        .take_all()
    )
    if not rows:
        raise ValueError("em_fellegi_sunter: no candidate pairs "
                         "(empty input or all-null block column)")
    rows.sort(key=lambda r: r["pattern"])
    pats = [int(r["pattern"]) for r in rows]
    cnts = [int(r["sum(c)"]) for r in rows]
    n_total = sum(cnts)

    LO, HI = 1e-9, 1.0 - 1e-9
    lam = float(init_lambda)
    m = [float(init_m)] * k
    u = [float(init_u)] * k

    def resp(lam, m, u):
        r = []
        for p in pats:
            am = lam
            au = 1.0 - lam
            for f in range(k):
                if (p >> f) & 1:
                    am = am * m[f]
                    au = au * u[f]
                else:
                    am = am * (1.0 - m[f])
                    au = au * (1.0 - u[f])
            r.append(am / (am + au))
        return r

    for _ in range(n_iter):
        r = resp(lam, m, u)
        S = 0.0
        T = 0.0
        for cp, rp in zip(cnts, r):
            S = S + float(cp) * rp
            T = T + float(cp) * (1.0 - rp)
        for f in range(k):
            sm = 0.0
            su = 0.0
            for p, cp, rp in zip(pats, cnts, r):
                if (p >> f) & 1:
                    sm = sm + float(cp) * rp
                    su = su + float(cp) * (1.0 - rp)
            m[f] = min(max(sm / S, LO), HI)
            u[f] = min(max(su / T, LO), HI)
        lam = min(max(S / float(n_total), LO), HI)

    final = resp(lam, m, u)
    pow10 = 10.0 ** ndigits
    import pandas as pd

    return pd.DataFrame(
        {"pattern": np.asarray(pats, np.int64),
         "n_pairs": np.asarray(cnts, np.int64),
         "posterior": np.floor(np.asarray(final) * pow10 + 0.5) / pow10}
    )


# ---------------------------------------------------------------------------
# pairwise linkage evaluation (precision / recall / F1)
# ---------------------------------------------------------------------------


def pairwise_eval(
    pred: ray.data.Dataset,
    truth: ray.data.Dataset,
    *,
    a_col: str = "a",
    b_col: str = "b",
    ndigits: int = 9,
) -> "pd.DataFrame":
    """Pairwise linkage quality vs labeled pairs — the BASELINE.md
    metric's own readout: → one row (tp, fp, fn, precision, recall, f1)
    where tp/fp/fn count DISTINCT unordered pairs (each side deduped,
    self-pairs dropped, (a,b) canonicalized to lo < hi).

    precision = tp/(tp+fp), recall = tp/(tp+fn), f1 = 2·P·R/(P+R), each
    a pinned-order double over exact integer counts (rounded half-up to
    ``ndigits``) so a DuckDB oracle replays them bit-for-bit; empty
    denominators report 0.0 (the strict-grader convention).

    Scale shape: both pair streams canonicalize + tag locally, one
    tuple-hash exchange co-locates every copy of a pair, each ``fn``
    call reduces to THREE integers (vectorized lexsort dedup + side-set
    intersection), and the driver sums one partial triple per call —
    exchange volume is the pair-stream size, driver volume is constants.
    """
    import pandas as pd

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            ok = pc.and_(pc.is_valid(t[a_col]), pc.is_valid(t[b_col]))
            sub = t.filter(ok)
            a = pc.cast(sub[a_col], pa.int64()).to_numpy()
            b = pc.cast(sub[b_col], pa.int64()).to_numpy()
            ne = a != b
            a, b = a[ne], b[ne]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            return pa.table(
                {"lo": pa.array(lo), "hi": pa.array(hi),
                 "side": pa.array(np.full(len(lo), side, np.int8))}
            )
        return fn

    both = [pred.map_batches(tag(0), batch_format="pyarrow"),
            truth.map_batches(tag(1), batch_format="pyarrow")]

    def partial(t: pa.Table) -> pa.Table:
        lo = t["lo"].to_numpy()
        hi = t["hi"].to_numpy()
        sd = t["side"].to_numpy()
        if len(lo) == 0:
            return pa.table({"tp": pa.array([0], pa.int64()),
                             "fp": pa.array([0], pa.int64()),
                             "fn": pa.array([0], pa.int64())})
        order = np.lexsort((sd, hi, lo))
        lo_s, hi_s, sd_s = lo[order], hi[order], sd[order]
        newp = np.empty(len(lo_s), bool)
        newp[0] = True
        newp[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
        pid = np.cumsum(newp) - 1
        n_pairs = int(pid[-1]) + 1
        has = np.zeros((n_pairs, 2), bool)
        has[pid, sd_s] = True
        tp = int((has[:, 0] & has[:, 1]).sum())
        fp = int((has[:, 0] & ~has[:, 1]).sum())
        fn_ = int((~has[:, 0] & has[:, 1]).sum())
        return pa.table({"tp": pa.array([tp], pa.int64()),
                         "fp": pa.array([fp], pa.int64()),
                         "fn": pa.array([fn_], pa.int64())})

    parts = bucket_exchange(both, ["lo", "hi"], partial).to_pandas()
    if len(parts) == 0 or "tp" not in parts.columns:
        parts = pd.DataFrame({"tp": [0], "fp": [0], "fn": [0]})
    tp = int(parts["tp"].sum())
    fp = int(parts["fp"].sum())
    fn_ = int(parts["fn"].sum())
    prec = float(tp) / float(tp + fp) if tp + fp else 0.0
    rec = float(tp) / float(tp + fn_) if tp + fn_ else 0.0
    f1 = (2.0 * prec * rec) / (prec + rec) if prec + rec > 0.0 else 0.0
    pw = 10.0 ** ndigits
    rnd = lambda x: math.floor(x * pw + 0.5) / pw
    return pd.DataFrame(
        {"tp": np.array([tp], np.int64),
         "fp": np.array([fp], np.int64),
         "fn": np.array([fn_], np.int64),
         "precision": np.array([rnd(prec)], np.float64),
         "recall": np.array([rnd(rec)], np.float64),
         "f1": np.array([rnd(f1)], np.float64)}
    )


def fellegi_sunter_link_tf(
    ds: ray.data.Dataset,
    id_col: str,
    block_col: str,
    field_cols: list[str],
    *,
    m_probs: list[float] | None = None,
    t_upper: float = 4.0,
    t_lower: float = 0.0,
    max_block: int | None = None,
    max_field_cardinality: int = 10_000_000,
) -> ray.data.Dataset:
    """Fellegi-Sunter linkage with TERM-FREQUENCY-adjusted agreement
    weights (the Splink `tf_adjustments` idea): agreeing on a RARE
    value is stronger evidence than agreeing on a common one, so the
    agreement weight is per-VALUE — ``wa_f(v) = ln(m_f) − 2·ln(c_v/N)``
    (u_v = (c_v/N)², the probability two random records both carry v) —
    while the disagreement weight stays the global
    ``ln(1−m_f) − ln(1−u_f)`` of :func:`fellegi_sunter_link`. Output
    schema and decision thresholds are identical to the base linker;
    every float is pinned order (field-order sum, one ln per term) so
    the SQL oracle replays scores bit-for-bit.

    Scale shape: same block-hash exchange and vectorized
    in-bucket pair enumeration as the base linker; per-field value
    counts are field-cardinality-bounded aggregates broadcast once as a
    sorted (string-cast value, count) lookup (``max_field_cardinality``
    guard). Values must stringify injectively (ints/strings do; avoid
    raw floats).
    """
    import pandas as pd

    fields = list(field_cols)
    if m_probs is None:
        m_probs = [0.9] * len(fields)
    proj = ds.select_columns([id_col, block_col, *fields])
    _, wd = fellegi_sunter_weights(proj, fields, m_probs)

    # per-field exact value counts (field-cardinality-bounded exchange)
    def vc_partial(t: pa.Table) -> pa.Table:
        fis, vals, cnts = [], [], []
        for fi, f in enumerate(fields):
            col = pc.cast(t[f], pa.string())
            vc = pc.value_counts(pc.drop_null(col))
            fis.append(np.full(len(vc), fi, np.int64))
            vals.append(vc.field("values"))
            cnts.append(vc.field("counts").to_numpy().astype(np.int64))
        fis.append(np.full(1, -1, np.int64))
        vals.append(pa.array([""], pa.string()))
        cnts.append(np.array([len(t)], np.int64))
        return pa.table(
            {"fi": pa.array(np.concatenate(fis)),
             "val": pa.concat_arrays(
                 [v.combine_chunks() if isinstance(v, pa.ChunkedArray)
                  else v for v in vals]),
             "cnt": pa.array(np.concatenate(cnts))}
        )

    counts = (
        proj.map_batches(vc_partial, batch_format="pyarrow")
        .groupby(["fi", "val"])
        .sum("cnt")
        .to_pandas()
    )
    if len(counts) > max_field_cardinality:
        raise ValueError(
            f"{len(counts):,} (field, value) cells exceeds "
            f"max_field_cardinality={max_field_cardinality:,}; the "
            "per-value count lookup is broadcast — band the field first."
        )
    n_total = int(counts.loc[counts["fi"] == -1, "sum(cnt)"].sum())
    lut = []
    for fi in range(len(fields)):
        sub = counts[counts["fi"] == fi]
        vals = sub["val"].to_numpy().astype(object)
        cs = sub["sum(cnt)"].to_numpy().astype(np.int64)
        o = np.argsort(vals)
        lut.append((vals[o], cs[o]))
    lut_ref = ray.put((lut, n_total))
    lm = [math.log(m) for m in m_probs]

    def score_block(t: pa.Table) -> pa.Table:
        lut_l, n_tot = ray.get(lut_ref)
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("score", pa.float64()), ("decision", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        blk = column_hash64(t[block_col]).view(np.int64)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        pa_, pb_ = _group_pairs(blk, ids, max_size=max_block,
                                positions=True)
        if len(pa_) == 0:
            return empty
        n_d = float(n_tot)
        score = np.zeros(len(pa_), np.float64)
        for fi, f in enumerate(fields):
            sv = pc.cast(t[f], pa.string()).to_numpy(zero_copy_only=False)
            codes, uniq = pd.factorize(sv)
            valid = pc.is_valid(t[f]).to_numpy(zero_copy_only=False)
            agree = (
                (codes[pa_] == codes[pb_]) & valid[pa_] & valid[pb_]
            )
            # per-UNIQUE-value count lookup, gathered per pair
            vals_s, cs_s = lut_l[fi]
            pos = np.searchsorted(vals_s, uniq.astype(object))
            pos = np.clip(pos, 0, max(len(vals_s) - 1, 0))
            cu = cs_s[pos] if len(vals_s) else np.zeros(len(uniq),
                                                        np.int64)
            wa_u = lm[fi] - 2.0 * np.log(
                cu.astype(np.float64) / n_d
            )
            term = np.where(agree, wa_u[codes[pa_]], wd[fi])
            score = score + term
        decision = np.where(
            score >= t_upper, "match",
            np.where(score >= t_lower, "possible", "nonmatch"),
        )
        return pa.table(
            {"x_id": pa.array(ids[pa_]), "y_id": pa.array(ids[pb_]),
             "score": pa.array(_round6(score)),
             "decision": pa.array(decision.astype(object), pa.string())}
        )

    return bucket_exchange(
        ds, [block_col], score_block,
        prepare=_non_null(block_col, [id_col, block_col, *fields]),
    )


def monge_elkan_join(
    ds: ray.data.Dataset,
    text_col: str,
    id_col: str,
    block_col: str,
    *,
    threshold: float = 80.0,
    max_block: int | None = None,
    max_tokens: int = 16,
) -> ray.data.Dataset:
    """Monge-Elkan hybrid similarity join (Monge & Elkan 1996): token-
    level fuzzy matching — for within-block pairs, each side's tokens
    find their best Jaro-Winkler partner on the other side and the
    symmetric score is ``(mean_a max-JW + mean_b max-JW) / 2`` on
    0-100 → rows (x_id, y_id, me_sim ≥ threshold), x_id < y_id. The
    classic scorer for multi-word fields where token ORDER varies
    ("J. Smith & Sons" vs "Smith J Sons").

    Replay semantics (all mirrored by the SQL oracle): tokens come from
    the `normalize_utf8` regex (lower, non-alnum → space), truncated to the
    first ``max_tokens``; each token-pair JW is rounded to 6 decimals
    BEFORE aggregation (the definitional pin that makes the fold exact
    both sides — round-6 doubles are identical in numpy and DuckDB);
    per-token maxes fold in token order, one division per direction,
    (a + b)/2, rounded to 6; threshold compares the rounded score.
    Token-less rows pair with nothing.

    Scale shape: one block-hash exchange; within a call, tokenization happens
    once per row, pair token cross-products are bounded by ``max_tokens``² and
    ``max_block``, and all scoring is the vectorized JW kernel + segmented
    max/mean (no per-pair Python).
    """
    import pandas as pd

    from record_matcher_ray.functions.scorers import (
        jaro_winkler_elementwise,
    )

    cap = int(max_tokens)
    thr = float(threshold)

    def score_block(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("x_id", pa.int64()), ("y_id", pa.int64()),
             ("me_sim", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        blk = column_hash64(t[block_col]).view(np.int64)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        pa_, pb_ = _group_pairs(blk, ids, max_size=max_block,
                                positions=True)
        if len(pa_) == 0:
            return empty
        # tokenize once per row, truncate to cap
        nt = normalize_utf8(t[text_col])
        pieces = pc.split_pattern(nt, " ")
        flat = pieces.flatten()
        off = pieces.offsets.to_numpy().astype(np.int64)
        keepm = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toksk = flat.to_numpy(zero_copy_only=False)[keepm]
        kept_cum = np.concatenate([[0], np.cumsum(keepm,
                                                  dtype=np.int64)])
        kstart = kept_cum[off[:-1]]
        nt_len = np.minimum(kept_cum[off[1:]] - kept_cum[off[:-1]], cap)
        ok = (nt_len[pa_] > 0) & (nt_len[pb_] > 0)
        pa_, pb_ = pa_[ok], pb_[ok]
        if len(pa_) == 0:
            return empty
        na, nb = nt_len[pa_], nt_len[pb_]
        # cross-product token pairs per candidate pair (all vectorized:
        # token k of row r lives at toksk[kstart[r] + k])
        cnt = na * nb
        pair_id = np.repeat(np.arange(len(pa_), dtype=np.int64), cnt)
        starts = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        local = np.arange(int(cnt.sum()), dtype=np.int64) - starts[pair_id]
        ai = local // nb[pair_id]   # a-token index within pair
        bi = local % nb[pair_id]    # b-token index within pair
        ta = toksk[kstart[pa_[pair_id]] + ai]
        tb = toksk[kstart[pb_[pair_id]] + bi]
        jw = _round6(jaro_winkler_elementwise(ta, tb))
        # per (pair, a-token) max → fold in a-token order
        key_a = pair_id * cap + ai
        o = np.argsort(key_a, kind="stable")
        ks, js = key_a[o], jw[o]
        newk = np.concatenate(([True], ks[1:] != ks[:-1]))
        kstart = np.nonzero(newk)[0]
        mx_a = np.maximum.reduceat(js, kstart)
        slot_pair_a = ks[newk] // cap
        sum_a = np.zeros(len(pa_), np.float64)
        # ordered fold: slots within a pair are consecutive & a-token
        # ascending; add k-th slot of every pair in lockstep
        sp_start = np.nonzero(
            np.concatenate(([True],
                            slot_pair_a[1:] != slot_pair_a[:-1]))
        )[0]
        width = np.diff(np.concatenate((sp_start, [len(slot_pair_a)])))
        for k in range(int(width.max()) if len(width) else 0):
            m = width > k
            sum_a[slot_pair_a[sp_start[m]]] = (
                sum_a[slot_pair_a[sp_start[m]]]
                + mx_a[sp_start[m] + k]
            )
        me_a = sum_a / na.astype(np.float64)
        # per (pair, b-token) max → fold in b-token order
        key_b = pair_id * cap + bi
        o2 = np.argsort(key_b, kind="stable")
        ks2, js2 = key_b[o2], jw[o2]
        newk2 = np.concatenate(([True], ks2[1:] != ks2[:-1]))
        kstart2 = np.nonzero(newk2)[0]
        mx_b = np.maximum.reduceat(js2, kstart2)
        slot_pair_b = ks2[newk2] // cap
        sum_b = np.zeros(len(pa_), np.float64)
        sp_start2 = np.nonzero(
            np.concatenate(([True],
                            slot_pair_b[1:] != slot_pair_b[:-1]))
        )[0]
        width2 = np.diff(np.concatenate((sp_start2, [len(slot_pair_b)])))
        for k in range(int(width2.max()) if len(width2) else 0):
            m = width2 > k
            sum_b[slot_pair_b[sp_start2[m]]] = (
                sum_b[slot_pair_b[sp_start2[m]]]
                + mx_b[sp_start2[m] + k]
            )
        me_b = sum_b / nb.astype(np.float64)
        sym = _round6((me_a + me_b) / 2.0)
        keep = sym >= thr
        if not keep.any():
            return empty
        return pa.table(
            {"x_id": pa.array(ids[pa_[keep]]),
             "y_id": pa.array(ids[pb_[keep]]),
             "me_sim": pa.array(sym[keep])}
        )

    return bucket_exchange(
        ds, [block_col], score_block,
        prepare=_non_null(block_col, [id_col, block_col, text_col]),
    )


def merge_conflict_report(
    ds: ray.data.Dataset,
    cluster_col: str,
    value_cols: list[str],
) -> ray.data.Dataset:
    """Survivorship AUDIT: per entity cluster, how contested is each
    field? → rows (cluster, n_members, nd_<col>… , n_conflict_cols)
    where ``nd_<col>`` counts DISTINCT non-null values of that column
    inside the cluster and ``n_conflict_cols`` counts columns with
    nd > 1 — the report an MDM pipeline reads before trusting golden
    records (which merge rules are actually resolving disagreements,
    which clusters need review). Null clusters drop.

    Scale shape: one cluster-hash exchange; each ``fn`` call reduces its
    many clusters with ONE vectorized pandas groupby (size + nunique per
    column) — no per-cluster Python.
    """
    import pandas as pd

    cols = list(value_cols)

    def report(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby(cluster_col, sort=False)
        out = pd.DataFrame({"cluster": list(g.groups.keys())})
        out["n_members"] = g.size().to_numpy().astype(np.int64)
        nconf = np.zeros(len(out), np.int64)
        for c in cols:
            nd = g[c].nunique(dropna=True).to_numpy().astype(np.int64)
            out[f"nd_{c}"] = nd
            nconf += (nd > 1).astype(np.int64)
        out["n_conflict_cols"] = nconf
        return pa.Table.from_pandas(out, preserve_index=False)

    return bucket_exchange(
        ds, [cluster_col], report,
        prepare=_non_null(cluster_col, [cluster_col, *cols]),
    )


def greedy_max_matching(
    pairs: ray.data.Dataset,
    a_col: str,
    b_col: str,
    score_col: str,
    *,
    rounds: int = 3,
    max_matched_broadcast: int = 50_000_000,
):
    """One-to-one matching over a scored pair stream by LOCAL-MAX
    rounds (Preis 1999 / the parallel greedy 1/2-approximation): per
    round every node nominates its best incident edge (score desc,
    partner asc — a total order because partners are distinct per
    node), edges nominated by BOTH endpoints are matched, and all edges
    touching matched nodes drop; repeat. → pandas DataFrame
    (a_col, b_col, score_col, rnd) — the assignment step that turns
    an ER similarity join into one-to-one links (each record matched at
    most once), deterministic under any partitioning.

    The sequential greedy (take globally-best edge, remove, repeat) is
    inherently serial; local-max is its standard distributed
    counterpart and yields the same matching whenever scores are
    distinct along conflict chains. Fixed ``rounds`` keeps the oracle a
    finite CTE chain; unmatched leftovers after the last round stay
    unmatched (documented — matched set grows monotonically with
    rounds).

    Scale shape: per round TWO bounded exchanges (node-hash nominate →
    edge-tuple mutual check), both vectorized (factorized lexsort
    argmax, never per-node groups); the driver holds only the matched
    edges (≤ nodes/2 rows, ``max_matched_broadcast`` guard) and
    broadcasts the matched-node set for the edge filter. Early-exits
    when a round matches nothing.
    """
    import pandas as pd

    def explode(t: pa.Table) -> pa.Table:
        def cat(x: pa.ChunkedArray | pa.Array, y) -> pa.Array:
            if isinstance(x, pa.ChunkedArray):
                x = x.combine_chunks()
            if isinstance(y, pa.ChunkedArray):
                y = y.combine_chunks()
            return pa.concat_arrays([x, y])

        a, b, s = t[a_col], t[b_col], t[score_col]
        return pa.table(
            {"__node__": cat(a, b), "__other__": cat(b, a),
             a_col: cat(a, a), b_col: cat(b, b), score_col: cat(s, s)}
        )

    def nominate(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.drop_columns(["__node__", "__other__"])
        import pandas as pd  # worker-side

        ncode, _ = pd.factorize(
            t["__node__"].to_numpy(zero_copy_only=False)
        )
        oc_raw, ouniq = pd.factorize(
            t["__other__"].to_numpy(zero_copy_only=False)
        )
        # order codes so int compare == value compare
        rank = np.empty(len(ouniq), np.int64)
        rank[np.argsort(ouniq)] = np.arange(len(ouniq), dtype=np.int64)
        ocode = rank[oc_raw]
        sc = t[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((ocode, -sc, ncode))
        n_s = ncode[order]
        firstm = np.concatenate(([True], n_s[1:] != n_s[:-1]))
        pick = order[firstm]
        return t.take(pa.array(pick)).drop_columns(
            ["__node__", "__other__"]
        )

    def mutual(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        import pandas as pd  # worker-side

        ca, ua = pd.factorize(t[a_col].to_numpy(zero_copy_only=False))
        cb, ub = pd.factorize(t[b_col].to_numpy(zero_copy_only=False))
        codes = ca.astype(np.int64) * np.int64(len(ub)) + cb
        ks = np.sort(codes)
        dup_keys = ks[:-1][ks[1:] == ks[:-1]]  # edges nominated twice
        mask = np.isin(codes, dup_keys)
        idx = np.nonzero(mask)[0]
        c_m = codes[idx]
        o = np.argsort(c_m, kind="stable")
        firstm = np.concatenate(([True], c_m[o][1:] != c_m[o][:-1])) \
            if len(o) else np.array([], bool)
        return t.take(pa.array(idx[o][firstm]))

    remaining = pairs.materialize()
    matched_frames: list = []
    for rnd in range(1, int(rounds) + 1):
        if remaining.count() == 0:
            break
        nom = bucket_exchange(
            remaining, ["__node__"], nominate, prepare=explode,
        )
        m = bucket_exchange(nom, [a_col, b_col], mutual).to_pandas()
        if len(m) == 0:
            break
        if len(m) > max_matched_broadcast:
            raise ValueError(
                f"greedy_max_matching round {rnd} matched {len(m)} edges "
                f"(> max_matched_broadcast); raise the cap or shard the "
                f"matched-node filter."
            )
        m = m[[a_col, b_col, score_col]].copy()
        m["rnd"] = np.int64(rnd)
        matched_frames.append(m)
        taken = pa.array(
            np.concatenate([m[a_col].to_numpy(), m[b_col].to_numpy()])
        )
        taken_ref = ray.put(taken)

        def drop_taken(t: pa.Table, taken_ref=taken_ref) -> pa.Table:
            tk = ray.get(taken_ref)
            bad = pc.or_(pc.is_in(t[a_col], value_set=tk),
                         pc.is_in(t[b_col], value_set=tk))
            return t.filter(pc.invert(bad))

        remaining = remaining.map_batches(
            drop_taken, batch_format="pyarrow"
        ).materialize()

    if not matched_frames:
        return pd.DataFrame(
            {a_col: pd.array([], dtype=object),
             b_col: pd.array([], dtype=object),
             score_col: pd.array([], dtype=np.float64),
             "rnd": pd.array([], dtype=np.int64)}
        )
    return pd.concat(matched_frames, ignore_index=True)


def canopy_clusters(
    ds: ray.data.Dataset,
    text_col: str,
    *,
    t_loose: float = 0.34,
    t_tight: float = 0.75,
    max_distinct: int = 1_000_000,
):
    """Canopy clustering (McCallum, Nigam & Ungar, KDD 2000) — the
    classic cheap-distance ER blocking: repeatedly take the smallest
    unprocessed value as a canopy CENTER, put every remaining value
    with token-set Jaccard ≥ ``t_loose`` into that canopy (values may
    belong to several canopies), and retire values with Jaccard ≥
    ``t_tight``; expensive pairwise scoring then runs only within
    canopies. → pandas DataFrame (value, center) memberships.

    Deterministic: centers are chosen in ascending value order (ASCII
    byte order — numpy str sort == DuckDB VARCHAR min for ASCII), the
    similarity is |A∩B| / |A∪B| over ``split(' ')`` token SETS with one
    int→double division per pair (bit-identical to the oracle's
    ``list_intersect`` / ``list_distinct`` counts), so thresholds cut
    identically both sides.

    Scale shape: the DISTINCT value set rides one per-block-distinct
    pass to the driver (``max_distinct`` guard — the greedy scan is
    inherently sequential, the same documented driver-side shape as
    `graph.pagerank`'s node table); per center the Jaccard sweep is one
    vectorized ``np.isin`` + ``reduceat`` over the flattened token
    index, never a Python pair loop. Total work O(canopies · tokens).
    """
    import pandas as pd

    # t_tight > 1.0 would never retire a center (self-Jaccard is 1.0) —
    # an infinite greedy loop; t_loose > t_tight inverts the semantics.
    if not (0.0 < t_loose <= t_tight <= 1.0):
        raise ValueError(
            f"canopy thresholds must satisfy 0 < t_loose <= t_tight <= 1; "
            f"got t_loose={t_loose}, t_tight={t_tight}"
        )

    def distinct_partial(t: pa.Table) -> pa.Table:
        v = t[text_col]
        v = v.filter(pc.is_valid(v))
        u = np.unique(v.to_numpy(zero_copy_only=False))
        return pa.table({"v": pa.array(u.astype(object), pa.string())})

    parts = ds.map_batches(
        distinct_partial, batch_format="pyarrow"
    ).to_pandas()
    if parts.empty:
        return pd.DataFrame({"value": pd.array([], dtype=object),
                             "center": pd.array([], dtype=object)})
    names = np.unique(parts["v"].to_numpy())
    n = len(names)
    if n > max_distinct:
        raise ValueError(
            f"canopy_clusters holds the distinct value set on the driver "
            f"and got {n} values (> max_distinct={max_distinct}); block "
            f"first (prefix/soundex) or raise the cap."
        )
    tok_sets = [sorted(set(s.split(" "))) for s in names]
    lens = np.array([len(ts) for ts in tok_sets], dtype=np.int64)
    flat = np.concatenate([np.asarray(ts, dtype=object)
                           for ts in tok_sets])
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]

    remaining = np.ones(n, dtype=bool)
    out_v: list = []
    out_c: list = []
    while remaining.any():
        c = int(np.argmax(remaining))
        mask = np.isin(flat, np.asarray(tok_sets[c], dtype=object))
        inter = np.add.reduceat(mask.astype(np.int64), starts) \
            if len(flat) else np.zeros(n, np.int64)
        union = lens + lens[c] - inter
        jac = inter.astype(np.float64) / union.astype(np.float64)
        member = remaining & (jac >= t_loose)
        out_v.extend(names[member])
        out_c.extend([names[c]] * int(member.sum()))
        remaining &= jac < t_tight
    return pd.DataFrame({"value": out_v, "center": out_c})


def _lockstep_fold(
    seg_id: np.ndarray, vals: np.ndarray, n_out: int
) -> np.ndarray:
    """Left-fold (seeded at 0.0) of ``vals`` within consecutive
    ``seg_id`` segments, vectorized ACROSS segments (the monge_elkan
    lockstep loop): bit-identical to DuckDB's seeded ``list_reduce``
    ordered fold — numpy's reduceat/sum pairwise order is NOT.

    Two layouts, picked by whichever needs fewer interpreter
    iterations (ADVICE r3: low-cardinality groupings made the lockstep
    sweep O(rows/groups) Python steps): many-narrow segments sweep in
    lockstep across segments (max-width iterations); few-wide segments
    fold each with ``np.add.accumulate`` (strictly sequential in-order
    C accumulation — same op order as the lockstep fold; the 0.0 seed
    only differs on an all(-0.0) segment, where both round to 0)."""
    out = np.zeros(n_out, np.float64)
    if len(seg_id) == 0:
        return out
    starts = np.nonzero(
        np.concatenate(([True], seg_id[1:] != seg_id[:-1]))
    )[0]
    width = np.diff(np.concatenate((starts, [len(seg_id)])))
    if int(width.max()) <= len(starts):
        for k in range(int(width.max())):
            m = width > k
            out[seg_id[starts[m]]] = (
                out[seg_id[starts[m]]] + vals[starts[m] + k]
            )
    else:
        for si, w in zip(starts, width):
            out[seg_id[si]] = np.add.accumulate(vals[si:si + w])[-1]
    return out


def soft_tfidf_join(
    ds: ray.data.Dataset,
    text_col: str,
    *,
    theta: float = 90.0,
    threshold: float = 40.0,
    prefix_len: int = 2,
    max_tokens: int = 16,
    max_block: int | None = None,
    max_vocab: int = 20_000_000,
) -> ray.data.Dataset:
    """SoftTFIDF hybrid similarity join (Cohen, Ravikumar & Fienberg,
    IIWeb 2003 — their best-performing name-matching metric): for
    within-prefix-block pairs of DISTINCT values,

        score = Σ_{w ∈ A, bestJW(w,B) ≥ θ} V(w,A)·V(best,B)·JW/100

    where V(w,S) = idf(w)/‖S‖ (L2 over S's token idfs) and idf(w) =
    ln(1 + N/df(w)) over the distinct-value corpus → rows
    (name_a, name_b, st_sim ≥ threshold) on 0-100, name_a < name_b.
    TF-IDF down-weights filler tokens that Monge-Elkan counts equally —
    the rare surname dominates, "inc"/"ltd" barely move the score.

    Replay pins (all mirrored by the SQL oracle): tokens are the
    `normalize_utf8` regex split, DISTINCT, SORTED ascending, capped at
    ``max_tokens`` (DuckDB ``list_sort(list_distinct(...))[1:cap]``);
    df counts those capped sets; each token-pair JW rounds to 6dp
    BEFORE the argmax (ties → smaller partner token); norms and scores
    fold in ascending-token order via the lockstep left-fold (never
    numpy pairwise sums); idf/‖S‖/contribution are pinned-order double
    chains (libm ln/sqrt both sides); readout ×100 half-up 6dp.

    Scale shape: distinct-value dedupe on a value-hash bucket; ONE
    distinct-term exchange for df (volume ≤ vocab, driver holds the
    (term, idf) table under ``max_vocab`` and broadcasts it); ONE
    prefix-hash exchange for scoring with ``max_block`` guarding the
    quadratic corner; all block work is vectorized (rank-encoded
    argmax, no per-pair Python).
    """
    from ray.data.aggregate import Sum

    from record_matcher_ray.functions.scorers import (
        jaro_winkler_elementwise,
    )

    cap = int(max_tokens)
    th = float(theta)
    thr = float(threshold)

    def distinct_vals(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t[text_col], pa.string()), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        return pa.table(
            {"uh": pa.array(column_hash64(txt).view(np.int64)), "txt": txt}
        )

    def dedupe_vals(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("pfx", pa.int64()), ("txt", pa.string())]
        ).empty_table()
        if len(t) == 0:
            return empty
        u = t["uh"].to_numpy()
        order = np.argsort(u, kind="stable")
        first = np.concatenate(([True], u[order][1:] != u[order][:-1]))
        sel = order[first]
        txt = t["txt"].take(pa.array(sel))
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        pf = pc.utf8_slice_codeunits(txt, 0, prefix_len)
        keep = pc.greater_equal(
            pc.utf8_length(txt), prefix_len
        ).to_numpy(zero_copy_only=False)
        flat, starts, lens = utf8_view(pf)
        ph = whole_hashes(flat, starts, lens).view(np.int64)
        sel2 = np.nonzero(keep)[0]
        return pa.table(
            {"pfx": pa.array(ph[sel2]), "txt": txt.take(pa.array(sel2))}
        )

    def _row_tokens(txt: pa.Array):
        """Per-row sorted-distinct capped tokens → (flat object array,
        per-row start, per-row count)."""
        nt = normalize_utf8(txt)
        pieces = pc.split_pattern(nt, " ")
        flat = pieces.flatten()
        off = pieces.offsets.to_numpy().astype(np.int64)
        keepm = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(off) - 1, dtype=np.int64),
                         np.diff(off))
        toks, rows = toks[keepm], rows[keepm]
        if len(toks) == 0:
            z = np.zeros(len(off) - 1, np.int64)
            return np.empty(0, object), z, z
        order = np.lexsort((toks, rows))
        ts, rs = toks[order], rows[order]
        newt = np.concatenate(([True], (rs[1:] != rs[:-1])
                                       | (ts[1:] != ts[:-1])))
        ts, rs = ts[newt], rs[newt]
        # cap per row: keep the first `cap` (ascending) of each segment
        seg_first = np.concatenate(([True], rs[1:] != rs[:-1]))
        seg_start = np.nonzero(seg_first)[0]
        pos = np.arange(len(rs), dtype=np.int64) - np.repeat(
            seg_start, np.diff(np.append(seg_start, len(rs))))
        keepc = pos < cap
        ts, rs = ts[keepc], rs[keepc]
        cnt = np.bincount(rs, minlength=len(off) - 1).astype(np.int64)
        start = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        return ts, start, cnt

    m = bucket_exchange(
        ds, ["uh"], dedupe_vals, prepare=distinct_vals,
    ).materialize()
    n_names = m.count()

    def vocab_partial(t: pa.Table) -> pa.Table:
        ts, _, _ = _row_tokens(
            t["txt"].combine_chunks()
            if isinstance(t["txt"], pa.ChunkedArray) else t["txt"]
        )
        if len(ts) == 0:
            return pa.table({"w": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        import pandas as pd  # worker-side

        codes, uniq = pd.factorize(ts)
        cnt = np.bincount(codes).astype(np.int64)
        return pa.table({"w": pa.array(uniq.astype(object), pa.string()),
                         "df": pa.array(cnt)})

    vocab = (
        m.map_batches(vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("df", alias_name="df"))
    ).to_pandas()
    if len(vocab) > max_vocab:
        raise ValueError(
            f"soft_tfidf_join vocab has {len(vocab)} terms "
            f"(> max_vocab={max_vocab}); raise the cap or pre-filter."
        )
    if vocab.empty:  # token-less corpus: no pairs can score
        import pandas as pd
        vocab = pd.DataFrame({"w": pd.array([], dtype=object),
                              "df": pd.array([], dtype=np.int64)})
    vocab = vocab.sort_values("w").reset_index(drop=True)
    vocab_arr = vocab["w"].to_numpy()
    nD = float(n_names)
    idf_arr = np.log(1.0 + nD / vocab["df"].to_numpy(np.float64))
    vocab_ref = ray.put((vocab_arr, idf_arr))

    def score_block(t: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("name_a", pa.string()), ("name_b", pa.string()),
             ("st_sim", pa.float64())]
        ).empty_table()
        if len(t) == 0:
            return empty
        va, ia = ray.get(vocab_ref)
        txt = t["txt"].combine_chunks() if isinstance(
            t["txt"], pa.ChunkedArray) else t["txt"]
        names = np.asarray(txt.to_pylist(), dtype=object)
        ts, tstart, tcnt = _row_tokens(txt)
        idf = ia[np.searchsorted(va, ts)] if len(ts) else \
            np.empty(0, np.float64)
        # per-row L2 norm: seeded left-fold of idf² in token order
        rows_of = np.repeat(np.arange(len(names), dtype=np.int64), tcnt)
        nrm = np.sqrt(_lockstep_fold(rows_of, idf * idf, len(names)))
        # rank-encode names so pair ordering is string order
        order_n = np.argsort(names, kind="stable")
        rank = np.empty(len(names), np.int64)
        rank[order_n] = np.arange(len(names))
        pa_, pb_ = _group_pairs(
            t["pfx"].to_numpy(), rank, max_size=max_block,
            positions=True,
        )
        if len(pa_) == 0:
            return empty
        ok = (tcnt[pa_] > 0) & (tcnt[pb_] > 0)
        pa_, pb_ = pa_[ok], pb_[ok]
        if len(pa_) == 0:
            return empty
        na, nb = tcnt[pa_], tcnt[pb_]
        cnt = na * nb
        pair_id = np.repeat(np.arange(len(pa_), dtype=np.int64), cnt)
        cstarts = np.concatenate(([0], np.cumsum(cnt)))[:-1]
        local = np.arange(int(cnt.sum()), dtype=np.int64) \
            - cstarts[pair_id]
        ai = local // nb[pair_id]
        bi = local % nb[pair_id]
        ta_idx = tstart[pa_[pair_id]] + ai
        tb_idx = tstart[pb_[pair_id]] + bi
        jw = np.round(  # np.round == DuckDB round() (jw_prefix pairing)
            jaro_winkler_elementwise(ts[ta_idx], ts[tb_idx]), 6
        )
        # rank tokens in-block so int order == string order (tie-break)
        tcodes = np.searchsorted(va, ts)  # vocab is globally sorted
        key_a = pair_id * cap + ai
        o = np.lexsort((tcodes[tb_idx], -jw, key_a))
        ks = key_a[o]
        newk = np.concatenate(([True], ks[1:] != ks[:-1]))
        sel = o[newk]
        best_jw = jw[sel]
        w_idf = idf[ta_idx[sel]]
        u_idf = idf[tb_idx[sel]]
        pid = ks[newk] // cap
        contrib = np.where(
            best_jw >= th,
            w_idf / nrm[pa_[pid]] * (u_idf / nrm[pb_[pid]])
            * (best_jw / 100.0),
            0.0,
        )
        score = _lockstep_fold(pid, contrib, len(pa_))
        st = _round6(score * 100.0)
        keep = st >= thr
        if not keep.any():
            return empty
        return pa.table(
            {"name_a": pa.array(names[pa_][keep], pa.string()),
             "name_b": pa.array(names[pb_][keep], pa.string()),
             "st_sim": pa.array(st[keep])}
        )

    return bucket_exchange(m, ["pfx"], score_block)


def sorted_neighborhood_pairs(
    ds: ray.data.Dataset,
    sort_cols: list[str],
    id_col: str,
    *,
    window: int = 8,
    carry_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Sorted-neighborhood blocking (Hernández & Stolfo, SIGMOD 1995 —
    the classic merge/purge method): sort all records by ``sort_cols``
    and emit every candidate pair within a sliding ``window`` of the
    sort order → rows (x_id, y_id, gap) with gap = rank distance
    (1..window-1), ordered-pair ids by rank. ``id_col`` breaks sort ties
    (appended to ``sort_cols`` unless it is already their last column);
    an empty input gives a typed empty output. ``carry_cols`` additionally
    emit both sides' values as x_<col>/y_<col> (they ride the range
    groups anyway — no extra join to use them in a pair filter, e.g. the
    simhash-neighborhood Hamming dedupe). The complement to key-equality
    blocking for near-boundary matches (reference blocks only on exact
    group keys, records.py:106-132 — SNM catches pairs an exact key
    split apart).

    Scale shape: one global sort (`relational.global_row_number`'s
    two-pass dense ranks), then each row ships to ~2 window-aligned
    range groups, hash-exchanged; pairs are emitted
    vectorized per rank gap (window-1 shifted compares, no per-row
    Python). Exchange is O(rows), pair output O(rows · window).
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    carry = list(carry_cols or [])
    from record_matcher_ray.pipelines.relational import global_row_number

    keys = list(sort_cols)
    if keys[-1:] != [id_col]:
        keys.append(id_col)
    rn = global_row_number(
        ds.select_columns(sorted(set(keys + carry))), keys, rn_col="__rn__"
    )
    w = int(window)

    def to_groups(t: pa.Table) -> pa.Table:
        r = t["__rn__"].to_numpy()
        ids = t[id_col]
        g_own = r // w
        # each row joins its own range group and the previous one, so any
        # pair with rank gap < w shares >= 1 group; a pair is EMITTED only
        # in the LEFT row's own group (unique emission)
        g = np.concatenate([g_own, g_own - 1])
        rr = np.concatenate([r, r])
        own = np.concatenate(
            [np.ones(len(r), bool), np.zeros(len(r), bool)]
        )
        keep = g >= 0
        idx = pa.array(np.concatenate([np.arange(len(r), dtype=np.int64)] * 2)[keep])
        cols = {
            "__g__": pa.array(g[keep]),
            "__rn__": pa.array(rr[keep]),
            "__own__": pa.array(own[keep]),
            id_col: pc.take(ids, idx),
        }
        for c in carry:
            cols[c] = pc.take(t[c], idx)
        return pa.table(cols)

    def emit(t: pa.Table) -> pa.Table:
        out_fields = [
            ("x_id", t.schema.field(id_col).type),
            ("y_id", t.schema.field(id_col).type),
            ("gap", pa.int64()),
        ]
        for c in carry:
            ct = t.schema.field(c).type
            out_fields += [(f"x_{c}", ct), (f"y_{c}", ct)]
        out_schema = pa.schema(out_fields)
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        g = t["__g__"].to_numpy()
        r = t["__rn__"].to_numpy()
        own = t["__own__"].to_numpy()
        order = np.lexsort((r, g))
        g_s, r_s, own_s = g[order], r[order], own[order]
        ids = pc.take(t[id_col].combine_chunks(), pa.array(order))
        xs, ys, gaps = [], [], []
        # vectorized per rank gap: partner k positions ahead in the same
        # group; ranks are dense so position gap == rank gap
        for k in range(1, w):
            left = np.arange(n - k)
            ok = (
                (g_s[left] == g_s[left + k])
                & own_s[left]
                & (r_s[left + k] - r_s[left] < w)
            )
            li = left[ok]
            xs.append(li)
            ys.append(li + k)
            gaps.append((r_s[li + k] - r_s[li]).astype(np.int64))
        if not xs or not sum(len(x) for x in xs):
            return out_schema.empty_table()
        xi = np.concatenate(xs)
        yi = np.concatenate(ys)
        cols = {
            "x_id": pc.take(ids, pa.array(xi)),
            "y_id": pc.take(ids, pa.array(yi)),
            "gap": pa.array(np.concatenate(gaps)),
        }
        for c in carry:
            cv = pc.take(t[c].combine_chunks(), pa.array(order))
            cols[f"x_{c}"] = pc.take(cv, pa.array(xi))
            cols[f"y_{c}"] = pc.take(cv, pa.array(yi))
        return pa.table(cols)

    if rn.limit(1).count() == 0:
        # no bucket ever calls emit on an empty input: type the empty
        # output here (int64 where the input schema is unknown)
        sch = ds.schema(fetch_if_missing=False)
        known = dict(zip(sch.names, sch.types)) if sch is not None else {}
        return ray.data.from_arrow(emit(pa.schema(
            [(c, known.get(c, pa.int64())) for c in [id_col, *carry]]
        ).empty_table()))
    return bucket_exchange(rn, ["__g__"], emit, prepare=to_groups)


def auc_score(
    ds: ray.data.Dataset,
    score_col: str,
    label_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
    max_distinct: int = 5_000_000,
) -> "pd.DataFrame":
    """ROC AUC of a linkage (or any) score against binary labels via the
    exact rank-sum identity — the standard evaluation of a pairwise
    match scorer beyond the fixed-threshold P/R/F1 of `pairwise_eval`:

        AUC = [ Σ_q pos_q · (2·neg_below(q) + neg_q) ] / (2·P·N)

    (ties get the conventional half credit). → one row
    (n, n_pos, n_neg, auc).

    Parity recipe: scores quantize once to integer units
    (``floor(v·scale + 0.5)``); per-(quantized score, label) counts
    reduce through one hash exchange as exact integers; the
    numerator accumulates in Python arbitrary precision and ONE double
    division + round(``ndigits``) produces the result — the DuckDB
    window replay is hash-exact. Null scores/labels drop.

    Scale shape: per-block pre-aggregated (score, label) counts, one
    bounded exchange, then a driver fold over the DISTINCT quantized
    scores (``max_distinct`` guard — same documented driver shape as
    `graph.pagerank`'s node table).
    """
    import math

    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[score_col]), pc.is_valid(t[label_col]))
        t = t.filter(ok)
        q = np.floor(
            pc.cast(t[score_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        lab = (pc.cast(t[label_col], pa.int64()).to_numpy() != 0)
        import pandas as _pd

        codes, uniq = _pd.factorize(q * 2 + lab.astype(np.int64))
        cnt = np.bincount(codes).astype(np.int64)
        return pa.table({"__k__": pa.array(uniq), "__c__": pa.array(cnt)})

    def merge(t: pa.Table) -> pa.Table:
        k = t["__k__"].to_numpy()
        c = t["__c__"].to_numpy()
        import pandas as _pd

        codes, uniq = _pd.factorize(k)
        return pa.table({
            "__k__": pa.array(uniq),
            "__c__": pa.array(np.bincount(codes, weights=c).astype(np.int64)),
        })

    parts = bucket_exchange(ds, ["__k__"], merge, prepare=partial).to_pandas()
    if len(parts) > max_distinct:
        raise ValueError(
            f"auc_score: {len(parts)} distinct (score,label) cells exceed "
            f"max_distinct={max_distinct}; lower `scale`."
        )
    if parts.empty:
        return pd.DataFrame({"n": [0], "n_pos": [0], "n_neg": [0],
                             "auc": [None]})
    k = parts["__k__"].to_numpy()
    c = parts["__c__"].to_numpy()
    q = k >> 1
    lab = (k & 1).astype(bool)
    order = np.argsort(q, kind="stable")
    # collapse to per-score (pos, neg) counts, ascending score
    qs, cs, ls = q[order], c[order], lab[order]
    bounds = np.nonzero(np.concatenate(([True], qs[1:] != qs[:-1])))[0]
    pos = np.add.reduceat(np.where(ls, cs, 0), bounds)
    neg = np.add.reduceat(np.where(ls, 0, cs), bounds)
    P = int(pos.sum())
    N = int(neg.sum())
    if P == 0 or N == 0:
        return pd.DataFrame({"n": [P + N], "n_pos": [P], "n_neg": [N],
                             "auc": [None]})
    neg_below = np.concatenate(([0], np.cumsum(neg)[:-1]))
    num2 = 0
    for p_i, nb, n_i in zip(pos, neg_below, neg):
        num2 += int(p_i) * (2 * int(nb) + int(n_i))
    v = float(num2) / float(2 * P * N)
    p10 = 10.0 ** ndigits
    auc = math.floor(v * p10 + 0.5) / p10
    return pd.DataFrame({"n": [P + N], "n_pos": [P], "n_neg": [N],
                         "auc": [auc]})


def bcubed_eval(
    ds: ray.data.Dataset,
    pred_col: str,
    truth_col: str,
    *,
    ndigits: int = 6,
    max_distinct: int = 5_000_000,
) -> "pd.DataFrame":
    """B-cubed (B³) extrinsic clustering evaluation (Bagga & Baldwin,
    1998 — the standard ER cluster metric; unlike pairwise P/R it
    credits partial cluster overlap per RECORD):

        P = (1/N) Σ_c (Σ_t n_ct²) / n_c
        R = (1/N) Σ_t (Σ_c n_ct²) / n_t
        F = 2PR / (P + R)

    over records with non-null pred and truth labels → one row
    (n, b3_precision, b3_recall, b3_f1).

    Parity recipe: the (pred, truth) contingency cells reduce through
    one hash exchange as exact integer counts; each cluster's
    Σ n² numerator stays an exact Python int, its single double
    division and the ascending-cluster-id fold are pinned-order (the
    DuckDB ``list_reduce`` replay is hash-exact), and the final P/R/F
    divisions round to ``ndigits``.

    Scale shape: per-block pre-aggregated cell counts, one bounded
    exchange, then a driver fold over DISTINCT cells (``max_distinct``
    guard — the documented driver-side shape of `graph.pagerank`)."""
    import math

    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[pred_col]), pc.is_valid(t[truth_col]))
        t = t.filter(ok)
        import pandas as _pd

        p = t[pred_col].to_numpy(zero_copy_only=False)
        tr = t[truth_col].to_numpy(zero_copy_only=False)
        codes, uniq = _pd.factorize(
            _pd.MultiIndex.from_arrays([p, tr])
        )
        cnt = np.bincount(codes).astype(np.int64)
        up = pa.array([u[0] for u in uniq])
        ut = pa.array([u[1] for u in uniq])
        return pa.table({"__p__": up, "__t__": ut, "__c__": pa.array(cnt)})

    def merge(t: pa.Table) -> pa.Table:
        import pandas as _pd

        p = t["__p__"].to_numpy(zero_copy_only=False)
        tr = t["__t__"].to_numpy(zero_copy_only=False)
        c = t["__c__"].to_numpy()
        codes, uniq = _pd.factorize(_pd.MultiIndex.from_arrays([p, tr]))
        cnt = np.bincount(codes, weights=c).astype(np.int64)
        return pa.table({
            "__p__": pa.array([u[0] for u in uniq]),
            "__t__": pa.array([u[1] for u in uniq]),
            "__c__": pa.array(cnt),
        })

    cells = bucket_exchange(
        ds, ["__p__", "__t__"], merge, prepare=partial,
    ).to_pandas()
    if len(cells) > max_distinct:
        raise ValueError(
            f"bcubed_eval: {len(cells)} contingency cells exceed "
            f"max_distinct={max_distinct}"
        )
    if cells.empty:
        return pd.DataFrame({"n": [0], "b3_precision": [None],
                             "b3_recall": [None], "b3_f1": [None]})
    n_total = int(cells["__c__"].sum())

    def side(which: str) -> float:
        # ascending-cluster-id pinned fold of (Σ n_ct²)/n_cluster
        g = cells.groupby(which, sort=True)
        acc = 0.0
        for _key, sub in g:
            num = sum(int(v) * int(v) for v in sub["__c__"])
            den = int(sub["__c__"].sum())
            acc = acc + float(num) / float(den)
        return acc

    p10 = 10.0 ** ndigits
    prec = side("__p__") / float(n_total)
    rec = side("__t__") / float(n_total)
    f1 = (2.0 * prec * rec / (prec + rec)) if (prec + rec) > 0 else 0.0
    rnd = lambda v: math.floor(v * p10 + 0.5) / p10  # noqa: E731
    return pd.DataFrame({
        "n": [n_total],
        "b3_precision": [rnd(prec)],
        "b3_recall": [rnd(rec)],
        "b3_f1": [rnd(f1)],
    })


def blocking_scheme_sweep(
    ds: ray.data.Dataset,
    schemes: "dict[str, list[str]]",
    truth: ray.data.Dataset,
    id_col: str,
    *,
    max_truth_pairs: int = 5_000_000,
) -> "pd.DataFrame":
    """Blocking-scheme SELECTION — evaluate several candidate blocking
    key sets in one sweep and rank them by the standard ER triple
    (Christen 2012): for each scheme (a list of columns whose tuple
    equality defines a block) report

        n_cand             = Σ_blocks C(m, 2)   (pairs the scheme admits)
        reduction_ratio    = 1 − n_cand / C(n_records, 2)
        pairs_completeness = n_hit / n_truth    (truth pairs co-blocked)
        pairs_quality      = n_hit / n_cand

    → DataFrame, one row per scheme, sorted by scheme name.

    Scale shape: ``n_cand`` NEVER materializes pairs — each scheme costs
    one tuple-hash exchange whose ``fn`` calls contribute Σ C(m,2) from exact
    per-tuple group sizes (the dedup sort+boundary-diff kernel). ``n_hit``
    touches only records REFERENCED BY TRUTH: the truth-id set broadcasts once,
    the matching records' key tuples come back through a narrow semi-join pass,
    and the per-pair tuple comparison runs on that truth-sized table
    driver-side (guarded by ``max_truth_pairs``). Corpus size enters only
    through the counting exchanges.
    """
    import pandas as pd

    from record_matcher_ray.pipelines.dedup import _tuple_groups_sorted

    all_cols = sorted({c for cols in schemes.values() for c in cols})
    n_records = ds.count()

    # ---- per-scheme admitted-pair counts (no pair materialization) ----
    n_cand: dict[str, int] = {}
    for name in sorted(schemes):
        cols = schemes[name]

        def bucket_pairs(t: pa.Table, cols=cols) -> pa.Table:
            _, first, _ = _tuple_groups_sorted(t, cols, id_col)
            b = np.nonzero(first)[0]
            sizes = np.diff(np.concatenate((b, [len(first)])))
            m = sizes.astype(object)  # python ints: C(m,2) can pass 2**63
            tot = int(sum(v * (v - 1) // 2 for v in m))
            return pa.table({"c": pa.array([tot], pa.int64())})

        parts = bucket_exchange(
            ds.select_columns([id_col] + cols), cols, bucket_pairs,
        ).to_pandas()
        n_cand[name] = int(parts["c"].sum())

    # ---- truth-pair co-blocking: narrow semi-join on truth ids -------
    tp = truth.to_pandas()
    if len(tp) > max_truth_pairs:
        raise ValueError(
            f"{len(tp):,} truth pairs exceed max_truth_pairs="
            f"{max_truth_pairs:,}"
        )
    need = np.unique(np.concatenate([
        tp["x_id"].to_numpy(np.int64), tp["y_id"].to_numpy(np.int64)
    ])) if len(tp) else np.empty(0, np.int64)
    need_ref = ray.put(need)

    def keep_needed(t: pa.Table) -> pa.Table:
        nd = ray.get(need_ref)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        if len(nd) == 0:
            return t.slice(0, 0)
        pos = np.minimum(np.searchsorted(nd, ids), len(nd) - 1)
        return t.filter(pa.array(nd[pos] == ids))

    keyed = (
        ds.select_columns([id_col] + all_cols)
        .map_batches(keep_needed, batch_format="pyarrow")
        .to_pandas()
        .set_index(id_col)
    )
    rows = []
    nt = len(tp)
    C2 = n_records * (n_records - 1) // 2

    def rnd(v: float) -> float:
        return math.floor(v * 1e6 + 0.5) / 1e6

    for name in sorted(schemes):
        cols = schemes[name]
        if nt:
            xa = keyed.reindex(tp["x_id"])[cols].reset_index(drop=True)
            yb = keyed.reindex(tp["y_id"])[cols].reset_index(drop=True)
            same = np.ones(nt, bool)
            for c in cols:
                a, b = xa[c], yb[c]
                same &= ((a == b) | (a.isna() & b.isna())).to_numpy()
            n_hit = int(same.sum())
        else:
            n_hit = 0
        nc = n_cand[name]
        rows.append({
            "scheme": name, "n_cand": nc, "n_truth": nt, "n_hit": n_hit,
            "reduction_ratio": rnd(1.0 - nc / C2) if C2 else np.nan,
            "pairs_completeness": rnd(n_hit / nt) if nt else np.nan,
            "pairs_quality": rnd(n_hit / nc) if nc else np.nan,
        })
    return pd.DataFrame(rows).sort_values("scheme").reset_index(drop=True)


def uncertainty_sample(
    pairs: ray.data.Dataset,
    *,
    k: int = 100,
    score_col: str = "score",
    threshold: float = 0.0,
    x_col: str = "x_id",
    y_col: str = "y_id",
) -> ray.data.Dataset:
    """Active-learning labeling batch — the pairs a human should label
    NEXT: the ``k`` scored pairs whose score sits closest to the
    decision ``threshold`` (classic uncertainty sampling for linkage
    review queues; Sarawagi & Bhamidipaty, KDD 2002). Deterministic
    total order ``(|score − threshold| asc, x_id, y_id)`` over the
    column's emitted (rounded) score values, so the selection replays
    exactly in SQL.

    Scale shape: per-block partial top-k prune (each block forwards at
    most ``k`` rows) → one small global sort+limit — the heavy scored
    stream never converges anywhere whole."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    thr = float(threshold)

    def gap_prune(t: pa.Table) -> pa.Table:
        s = t[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        g = np.abs(s - thr)
        g = np.floor(g * 1e6 + 0.5) / 1e6
        # metadata-free blocks into the global sort (see core.exchange)
        t = t.replace_schema_metadata(None).append_column(
            "gap", pa.array(g, pa.float64()))
        if len(t) > k:
            x = pc.cast(t[x_col], pa.int64()).to_numpy()
            y = pc.cast(t[y_col], pa.int64()).to_numpy()
            take = np.lexsort((y, x, g))[:k]
            t = t.take(pa.array(np.sort(take)))
        return t

    return (
        pairs.map_batches(gap_prune, batch_format="pyarrow")
        .sort(["gap", x_col, y_col])
        .limit(k)
    )
