"""Market-basket co-occurrence: frequent item pairs and item-item
similarity with exact supports.

The level-2 Apriori primitive (Agrawal & Srikant, VLDB 1994): for every
pair of items that appear together in at least ``min_support`` baskets,
report the exact basket count — plus the normalized affinity readouts
(cosine, lift) built from the same counts. In a training-data pipeline
this is the co-occurrence signal behind "documents that cite both A and
B", tag-affinity mining, and template detection over shingle pairs.

Scale shape: baskets hash-exchange by basket id (many baskets per ``fn``
call, never one per basket), each call
vectorizes per-basket pair enumeration (sorted-distinct items, so pairs
are emitted once per basket with item_a < item_b) and pre-aggregates its
pair counts locally; one ``groupby(item_a, item_b).sum`` merges the
bucket partials. Oversized baskets (> ``max_basket`` distinct items, the
quadratic-blowup guard) are dropped deterministically — the SQL oracle
applies the identical HAVING filter. Pair volume is Σ m·(m−1)/2 over
KEPT baskets only, so the cap bounds the exchange at
``n_baskets · max_basket²/2`` regardless of skew. Because a basket
hashes to exactly ONE bucket, within-bucket distinct (basket, item) rows
are globally distinct — per-item and basket-count partials summed across
buckets are exact with no extra exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from record_matcher_ray.core.exchange import bucket_exchange


def _distinct_capped(
    bk: np.ndarray, it: np.ndarray, max_basket: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-distinct (basket, item) pairs with baskets holding more
    than ``max_basket`` distinct items dropped entirely. Returns
    (items sorted within basket runs, per-row basket segment id)."""
    order = np.lexsort((it, bk))
    bs, is_ = bk[order], it[order]
    keep = np.empty(len(bs), bool)
    keep[0] = True
    keep[1:] = (bs[1:] != bs[:-1]) | (is_[1:] != is_[:-1])
    bs, is_ = bs[keep], is_[keep]
    new_b = np.empty(len(bs), bool)
    new_b[0] = True
    new_b[1:] = bs[1:] != bs[:-1]
    seg_id = np.cumsum(new_b) - 1
    m = np.bincount(seg_id).astype(np.int64)
    good = m <= max_basket
    elem_keep = good[seg_id]
    is_, seg_id = is_[elem_keep], seg_id[elem_keep]
    if len(is_):
        _, seg_id = np.unique(seg_id, return_inverse=True)
    return is_, seg_id


def _pair_counts(
    is_: np.ndarray, seg_id: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-basket pair enumeration over sorted-distinct
    items + local (item_a, item_b) → count pre-aggregation."""
    m = np.bincount(seg_id).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(m)))[:-1]
    within = np.arange(len(is_), dtype=np.int64) - starts[seg_id]
    counts = m[seg_id] - 1 - within
    tot = int(counts.sum())
    if tot == 0:
        z = np.array([], np.int64)
        return z, z, z
    first = np.repeat(np.arange(len(is_), dtype=np.int64), counts)
    cstart = np.concatenate(([0], np.cumsum(counts)))
    j_off = np.arange(tot, dtype=np.int64) - cstart[first] + 1
    a = is_[first].astype(np.int64)
    b = is_[first + j_off].astype(np.int64)
    po = np.lexsort((b, a))
    a, b = a[po], b[po]
    newp = np.empty(len(a), bool)
    newp[0] = True
    newp[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    pid = np.cumsum(newp) - 1
    cnt = np.bincount(pid).astype(np.int64)
    return a[newp], b[newp], cnt


def _empty_pairs() -> pa.Table:
    return pa.table(
        {"item_a": pa.array([], pa.int64()),
         "item_b": pa.array([], pa.int64()),
         "support": pa.array([], pa.int64())}
    )


def basket_pairs(
    ds: ray.data.Dataset,
    basket_col: str,
    item_col: str,
    *,
    min_support: int = 2,
    max_basket: int = 256,
) -> ray.data.Dataset:
    """→ rows (item_a, item_b, support): exact number of distinct
    baskets containing BOTH items, for pairs with support ≥
    ``min_support``; item_a < item_b. Null basket/item rows drop.
    Integer item ids only (the pair stream ships as int64)."""
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if max_basket < 2:
        raise ValueError(f"max_basket must be >= 2, got {max_basket}")

    def project(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[basket_col]), pc.is_valid(t[item_col]))
        sub = t.filter(ok)
        return pa.table({"bk": sub[basket_col], "it": sub[item_col]})

    def gen_pairs(t: pa.Table) -> pa.Table:
        bk = t["bk"].to_numpy(zero_copy_only=False)
        it = t["it"].to_numpy(zero_copy_only=False)
        if len(bk) == 0:
            return _empty_pairs()
        is_, seg_id = _distinct_capped(bk, it, max_basket)
        if len(is_) == 0:
            return _empty_pairs()
        a, b, cnt = _pair_counts(is_, seg_id)
        return pa.table(
            {"item_a": pa.array(a), "item_b": pa.array(b),
             "support": pa.array(cnt)}
        )

    pairs = (
        bucket_exchange(ds, ["bk"], gen_pairs, prepare=project)
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("support", alias_name="support"))
    )
    ms = int(min_support)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["support"], ms))

    return pairs.map_batches(keep, batch_format="pyarrow")


def item_cooccurrence_similarity(
    ds: ray.data.Dataset,
    basket_col: str,
    item_col: str,
    *,
    min_support: int = 2,
    max_basket: int = 256,
    ndigits: int = 9,
    max_items: int = 2_000_000,
) -> ray.data.Dataset:
    """Item-item affinity from basket co-occurrence → rows (item_a,
    item_b, support, cosine, lift), item_a < item_b, support ≥
    ``min_support``:

    - ``cosine  = supp(a,b) / (sqrt(supp(a)) * sqrt(supp(b)))``
    - ``lift    = supp(a,b) * n_baskets / (supp(a) * supp(b))``

    where all supports count distinct KEPT baskets (the ``max_basket``
    cap applies to every count, so pair and item supports stay
    consistent). Both readouts are pinned-order doubles over exact
    integer counts (one cast per count, IEEE sqrt, rounded to
    ``ndigits``) so a DuckDB oracle replays them bit-for-bit. Item ids
    must be non-negative int (negative ids would collide with the
    sentinel partial rows).

    Scale shape: ONE bucketed exchange. Because each basket lands in
    exactly one bucket, the per-bucket pass emits globally-exact
    partials for pair counts, per-item counts (sentinel ``item_b=-1``)
    and basket counts (sentinel ``(-1,-1)``) into the same
    ``groupby(item_a, item_b).sum``; the aggregate is materialized once,
    the tiny sentinel rows (≤ n_items + 1, guarded by ``max_items``)
    come back to the driver as a broadcast lookup, and a final streaming
    pass attaches cosine/lift to the pair rows.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if max_basket < 2:
        raise ValueError(f"max_basket must be >= 2, got {max_basket}")

    def project(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[basket_col]), pc.is_valid(t[item_col]))
        sub = t.filter(ok)
        iv = sub[item_col].to_numpy(zero_copy_only=False)
        if len(iv) and np.asarray(iv).astype(np.int64).min() < 0:
            raise ValueError(
                "item_cooccurrence_similarity requires non-negative "
                "item ids (negative ids collide with sentinel rows)"
            )
        return pa.table({"bk": sub[basket_col], "it": sub[item_col]})

    def gen_partials(t: pa.Table) -> pa.Table:
        bk = t["bk"].to_numpy(zero_copy_only=False)
        it = t["it"].to_numpy(zero_copy_only=False)
        if len(bk) == 0:
            return _empty_pairs()
        is_, seg_id = _distinct_capped(bk, it, max_basket)
        if len(is_) == 0:
            return _empty_pairs()
        a, b, cnt = _pair_counts(is_, seg_id)
        # per-item distinct-basket counts (exact within the bucket —
        # baskets never span buckets) + one basket-count sentinel
        iu, ic = np.unique(is_.astype(np.int64), return_counts=True)
        n_baskets = int(seg_id[-1]) + 1 if len(seg_id) else 0
        return pa.table(
            {
                "item_a": pa.array(
                    np.concatenate((a, iu, [np.int64(-1)]))
                ),
                "item_b": pa.array(
                    np.concatenate(
                        (b, np.full(len(iu), -1, np.int64),
                         [np.int64(-1)])
                    )
                ),
                "support": pa.array(
                    np.concatenate(
                        (cnt, ic.astype(np.int64), [np.int64(n_baskets)])
                    )
                ),
            }
        )

    merged = (
        bucket_exchange(ds, ["bk"], gen_partials, prepare=project)
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("support", alias_name="support"))
        .materialize()
    )

    # sentinel rows only (≤ n_items + 1) — project inside tasks, pull
    # the small result, never the pair stream
    def sentinels(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["item_b"], -1))

    sent = merged.map_batches(sentinels, batch_format="pyarrow").to_pandas()
    if len(sent) == 0 or "item_a" not in sent.columns:
        return ray.data.from_arrow(
            pa.schema(
                [("item_a", pa.int64()), ("item_b", pa.int64()),
                 ("support", pa.int64()), ("cosine", pa.float64()),
                 ("lift", pa.float64())]
            ).empty_table()
        )
    if len(sent) > max_items + 1:
        raise ValueError(
            f"{len(sent) - 1:,} distinct items exceeds max_items="
            f"{max_items:,}; item supports are broadcast driver-side — "
            "raise max_items only with the memory to hold them."
        )
    nb_rows = sent[sent["item_a"] == -1]
    n_baskets = int(nb_rows["support"].iloc[0]) if len(nb_rows) else 0
    item_rows = sent[sent["item_a"] != -1]
    # broadcast lookup: sorted key array + aligned counts (searchsorted
    # gather per batch — no per-row Python)
    ikeys = item_rows["item_a"].to_numpy().astype(np.int64)
    icnts = item_rows["support"].to_numpy().astype(np.int64)
    korder = np.argsort(ikeys)
    ikeys, icnts = ikeys[korder], icnts[korder]
    if n_baskets >= 2 ** 31:
        raise ValueError(
            f"{n_baskets:,} kept baskets: int64 support products would "
            "overflow; shard the corpus or lower max_basket."
        )
    ms, nd = int(min_support), int(ndigits)
    pow10 = 10.0 ** nd

    def score(t: pa.Table) -> pa.Table:
        t2 = t.filter(
            pc.and_(pc.not_equal(t["item_b"], -1),
                    pc.greater_equal(t["support"], ms))
        )
        a = t2["item_a"].to_numpy().astype(np.int64)
        b = t2["item_b"].to_numpy().astype(np.int64)
        s = t2["support"].to_numpy().astype(np.int64)
        sa = icnts[np.searchsorted(ikeys, a)]
        sb = icnts[np.searchsorted(ikeys, b)]
        cos = s.astype(np.float64) / (
            np.sqrt(sa.astype(np.float64)) * np.sqrt(sb.astype(np.float64))
        )
        # exact int64 products, ONE rounding at the float64 cast — same
        # as the oracle's (x::HUGEINT * y)::DOUBLE (supports < 2^31 each,
        # guarded above, so the int64 products cannot overflow)
        lift = (s * n_baskets).astype(np.float64) / (sa * sb).astype(
            np.float64
        )
        return pa.table(
            {"item_a": t2["item_a"], "item_b": t2["item_b"],
             "support": t2["support"],
             "cosine": pa.array(np.floor(cos * pow10 + 0.5) / pow10),
             "lift": pa.array(np.floor(lift * pow10 + 0.5) / pow10)}
        )

    return merged.map_batches(score, batch_format="pyarrow")


def adamic_adar_items(
    ds: ray.data.Dataset,
    basket_col: str,
    item_col: str,
    *,
    min_support: int = 2,
    max_basket: int = 256,
) -> ray.data.Dataset:
    """Adamic–Adar item affinity (Adamic & Adar 2003, the classic
    link-prediction weight): for items a < b,

        AA(a, b) = Σ_{baskets containing both} 1 / ln(|basket|)

    → rows (item_a, item_b, support, aa) for pairs co-occurring in ≥
    ``min_support`` baskets — rare shared contexts count more than
    giant ones, the standard upgrade over raw co-occurrence counts for
    "who-links-next" recommendation and entity-graph completion.

    Parity recipe: each kept basket's weight is quantized ONCE to
    integer nano-units — ``floor(1e9 / ln(size) + 0.5)`` with libm
    ln and one double division, identical in numpy and DuckDB — so the
    per-pair sum is EXACT int64 (order/partition invariant); the aa
    readout is one int→double cast, one double division, half-up 6dp.

    Scale shape: identical to `basket_pairs` — one basket-hash exchange with
    the ``max_basket`` quadratic-blowup cap (dropped baskets are deterministic
    and mirrored by the oracle), per-basket pair enumeration fully vectorized
    with weights segment- summed via sorted ``np.add.reduceat`` (exact, no
    float bincount), then one bounded ``groupby(item_a, item_b)`` merge.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if max_basket < 2:
        raise ValueError(f"max_basket must be >= 2, got {max_basket}")

    def project(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[basket_col]), pc.is_valid(t[item_col]))
        sub = t.filter(ok)
        return pa.table({"bk": sub[basket_col], "it": sub[item_col]})

    def _empty() -> pa.Table:
        z = pa.array([], pa.int64())
        return pa.table({"item_a": z, "item_b": z,
                         "support": pa.array([], pa.int64()),
                         "aa_units": pa.array([], pa.int64())})

    def gen_pairs(t: pa.Table) -> pa.Table:
        bk = t["bk"].to_numpy(zero_copy_only=False)
        it = t["it"].to_numpy(zero_copy_only=False)
        if len(bk) == 0:
            return _empty()
        is_, seg_id = _distinct_capped(bk, it, max_basket)
        if len(is_) == 0:
            return _empty()
        m = np.bincount(seg_id).astype(np.int64)
        wseg = np.zeros(len(m), np.int64)
        big = m >= 2
        wseg[big] = np.floor(
            1e9 / np.log(m[big].astype(np.float64)) + 0.5
        ).astype(np.int64)
        # per-pair-instance weight, segment-summed in (a, b) order
        starts = np.concatenate(([0], np.cumsum(m)))[:-1]
        within = np.arange(len(is_), dtype=np.int64) - starts[seg_id]
        counts = m[seg_id] - 1 - within
        tot = int(counts.sum())
        if tot == 0:
            return _empty()
        first = np.repeat(np.arange(len(is_), dtype=np.int64), counts)
        cstart = np.concatenate(([0], np.cumsum(counts)))
        j_off = np.arange(tot, dtype=np.int64) - cstart[first] + 1
        a = is_[first].astype(np.int64)
        b = is_[first + j_off].astype(np.int64)
        w = wseg[seg_id[first]]
        po = np.lexsort((b, a))
        a, b, w = a[po], b[po], w[po]
        newp = np.empty(len(a), bool)
        newp[0] = True
        newp[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        gstarts = np.nonzero(newp)[0]
        cnt = np.diff(np.append(gstarts, len(a))).astype(np.int64)
        ws = np.add.reduceat(w, gstarts)
        return pa.table(
            {"item_a": pa.array(a[newp]), "item_b": pa.array(b[newp]),
             "support": pa.array(cnt), "aa_units": pa.array(ws)}
        )

    pairs = (
        bucket_exchange(ds, ["bk"], gen_pairs, prepare=project)
        .groupby(["item_a", "item_b"])
        .aggregate(Sum("support", alias_name="support"),
                   Sum("aa_units", alias_name="aa_units"))
    )
    ms = int(min_support)

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["support"], ms))
        u = t["aa_units"].to_numpy().astype(np.float64)
        aa = np.floor(u / 1e9 * 1e6 + 0.5) / 1e6
        return pa.table(
            {"item_a": t["item_a"], "item_b": t["item_b"],
             "support": t["support"], "aa": pa.array(aa)}
        )

    return pairs.map_batches(finish, batch_format="pyarrow")
