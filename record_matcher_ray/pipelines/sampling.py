"""Deterministic sampling for training-data pipelines: uniform hash
sampling, per-group stratified caps, and weighted source mixing.

All three are pure per-row predicates on splitmix64(id ^ seed) — no
randomness, no state, no shuffle (the stratified cap is the one exception:
it needs a per-group rank, one bounded-bucket exchange). Determinism is
the point at 100 TB: the same row set is selected on every run, across
any partitioning, on any cluster size, so a resumed or re-sharded job
reproduces its sample exactly; and because the hash is uniform, rate=0.1
keeps 10% ± binomial noise of every slice.

The hash (core.hashkernels.mix64, splitmix64 finalizer) is exactly
reproducible in ANSI SQL via 32-bit-split modular multiplication —
``sql_sample_hash_cte`` emits the DuckDB-checkable form, which the
driver's oracle gate runs side-by-side with the engine.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Max, Sum

from record_matcher_ray.core.exchange import bucket_exchange, bucket_ids
from record_matcher_ray.core.hashkernels import mix64

_TWO64 = 1 << 64


def _seed64(seed: int) -> np.uint64:
    return mix64(np.array([seed], np.uint64))[0]


def sample_hash(ids: np.ndarray, seed: int = 0) -> np.ndarray:
    """Uniform uint64 per id: splitmix64(id ^ splitmix64(seed)). Ids must
    be non-negative (the SQL mirror casts BIGINT→UBIGINT, which rejects
    negatives)."""
    return mix64(ids.astype(np.uint64) ^ _seed64(seed))


def hash_sample(
    ds: ray.data.Dataset, id_col: str, rate: float, seed: int = 0
) -> ray.data.Dataset:
    """Keep each row iff sample_hash(id) < rate·2^64 — a deterministic
    ~``rate`` uniform sample, all columns preserved, zero shuffle."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    thr = np.uint64(min(int(rate * _TWO64), _TWO64 - 1))
    take_all = rate >= 1.0
    s = seed

    def fn(t: pa.Table) -> pa.Table:
        if take_all:
            return t
        h = sample_hash(t[id_col].to_numpy(), s)
        return t.filter(pa.array(h < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


def weighted_mix(
    ds: ray.data.Dataset,
    source_col: str,
    rates: dict[str, float],
    id_col: str,
    seed: int = 0,
    default_rate: float = 0.0,
) -> ray.data.Dataset:
    """Per-source deterministic sampling — the data-mixing primitive:
    ``rates`` maps source values to keep-rates (unlisted sources get
    ``default_rate``). Because every source's sample is an independent
    deterministic hash predicate, re-running with adjusted rates keeps
    maximal overlap with the previous mix (rate 0.2 ⊃ rate 0.1 exactly)."""
    for k, v in rates.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"rate for {k!r} must be in [0, 1], got {v}")
    thr_map = {
        k: np.uint64(min(int(v * _TWO64), _TWO64 - 1)) for k, v in rates.items()
    }
    dthr = np.uint64(min(int(default_rate * _TWO64), _TWO64 - 1))
    s = seed

    def fn(t: pa.Table) -> pa.Table:
        src = t[source_col].to_pandas()
        codes, uniq = pd.factorize(src)
        lut = np.array(
            [thr_map.get(u, dthr) for u in uniq] or [dthr], np.uint64
        )
        thr = lut[codes]
        h = sample_hash(t[id_col].to_numpy(), s)
        return t.filter(pa.array(h < thr))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_cap(
    ds: ray.data.Dataset,
    group_col: str,
    cap: int,
    id_col: str,
    seed: int = 0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Keep at most ``cap`` rows per ``group_col`` value, chosen by
    sample-hash order (ties by id) — deterministic per-group downsampling
    for balancing skewed categories.

    One bounded exchange: rows bucket by a hash of the group value (≤
    ``n_buckets`` groups ride the shuffle, never one per distinct value —
    the CLAUDE.md per-group rule), then each bucket ranks its rows with a
    vectorized pandas groupby-cumcount. Equivalent SQL:
    ``row_number() OVER (PARTITION BY g ORDER BY sample_hash(id), id)
    <= cap``."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    s = seed

    def add_bucket(t: pa.Table) -> pa.Table:
        from record_matcher_ray.core.hashkernels import column_hash64

        b = bucket_ids(column_hash64(t[group_col]), n_buckets)
        return t.append_column("__sb__", pa.array(b))

    def rank_keep(df: pd.DataFrame) -> pd.DataFrame:
        h = sample_hash(df[id_col].to_numpy(), s)
        df = df.assign(__sh__=h).sort_values(
            ["__sh__", id_col], kind="stable"
        )
        rank = df.groupby(group_col, sort=False, dropna=False).cumcount()
        return df[rank.to_numpy() < cap].drop(columns=["__sb__", "__sh__"])

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__sb__")
        .map_groups(rank_keep, batch_format="pandas")
    )


def deterministic_shuffle(
    ds: ray.data.Dataset,
    id_col: str,
    seed: int = 0,
    drop_hash: bool = True,
) -> ray.data.Dataset:
    """Seeded global shuffle: order rows by ``splitmix64(id ^ seed)``
    (ties by id). The training-data shuffle primitive: unlike
    ``ds.random_shuffle()`` the order is a pure function of (id, seed),
    so any resumed / re-sharded / re-run job — on any cluster size or
    partitioning — materializes the SAME epoch order, and different
    seeds give independent epoch orders. Cost is one sort exchange
    (inherent to a global shuffle); the hash column riding it is 8 B/row.
    ``drop_hash=False`` keeps the ``__shuffle__`` key column."""

    def add(t: pa.Table) -> pa.Table:
        h = sample_hash(
            np.ascontiguousarray(t[id_col].to_numpy(), dtype=np.int64), seed
        )
        return t.append_column("__shuffle__", pa.array(h))

    out = ds.map_batches(add, batch_format="pyarrow").sort(
        ["__shuffle__", id_col]
    )
    return out.drop_columns(["__shuffle__"]) if drop_hash else out


def leakage_safe_split(
    ds: ray.data.Dataset,
    weights: dict[str, float],
    key_col: str,
    seed: int = 0,
    out_col: str = "split",
) -> ray.data.Dataset:
    """Assign each row a named split by hash-banding ``key_col`` —
    train/val/test assignment that is a pure function of (key, seed).
    Pass a group REPRESENTATIVE id as the key (from
    dedup.tuple_representatives, minhash components, or docmatch
    clusters) and every duplicate/near-duplicate of a document lands on
    the SAME side — the leakage-safe split a training pipeline needs;
    pass the row's own id for a plain iid split. Zero shuffle; band
    thresholds are precomputed integers, so the SQL oracle embeds them
    as literals (no float parity surface)."""
    names = list(weights)
    w = np.array([float(weights[n]) for n in names])
    if len(names) == 0 or (w < 0).any() or w.sum() <= 0:
        raise ValueError(f"invalid split weights {weights}")
    cum = np.cumsum(w) / w.sum()
    thrs = [min(int(c * _TWO64), _TWO64 - 1) for c in cum[:-1]]
    thrs_np = np.array(thrs + [_TWO64 - 1], dtype=np.uint64)
    names_arr = np.array(names, dtype=object)
    s = seed

    def fn(t: pa.Table) -> pa.Table:
        ids = np.ascontiguousarray(t[key_col].to_numpy(), dtype=np.int64)
        h = sample_hash(ids, s)
        # smallest band i with h < thr_i; top band catches h == 2**64-1
        idx = np.searchsorted(thrs_np[:-1], h, side="right")
        return t.append_column(out_col, pa.array(names_arr[idx]))

    return ds.map_batches(fn, batch_format="pyarrow")


def split_thresholds(weights: dict[str, float]) -> list[tuple[str, int]]:
    """(name, exclusive-upper-threshold) bands as EXACT integers — the
    same values leakage_safe_split uses; oracle SQL embeds them."""
    names = list(weights)
    w = np.array([float(weights[n]) for n in names])
    cum = np.cumsum(w) / w.sum()
    return [
        (n, min(int(c * _TWO64), _TWO64 - 1)) for n, c in zip(names, cum)
    ]


def sql_sample_hash_cte(
    id_expr: str, seed: int = 0, table: str = "t0"
) -> tuple[str, str]:
    """→ (CTE SQL chain, final hash column name): the EXACT splitmix64
    sampling hash in portable SQL (DuckDB-validated), using 32-bit-split
    modular multiplication so no intermediate exceeds INT128. The chain
    expects a preceding CTE named ``table`` exposing ``id_expr``; the
    returned stages end in CTE ``s5`` whose column ``e`` is the hash."""
    seed_const = int(_seed64(seed))

    def modmul(col: str, c: int) -> str:
        return (
            f"CAST((((CAST({col} >> 32 AS HUGEINT) * {c}) % 4294967296)"
            f" * 4294967296 + (CAST({col} & 4294967295 AS HUGEINT) * {c}))"
            f" % 18446744073709551616 AS UBIGINT)"
        )

    cte = f"""
s0 AS (SELECT *, xor(CAST({id_expr} AS UBIGINT), CAST({seed_const} AS UBIGINT)) AS h0 FROM {table}),
s1 AS (SELECT *, xor(h0, h0 >> 30) AS h1 FROM s0),
s2 AS (SELECT *, {modmul('h1', 0xBF58476D1CE4E5B9)} AS h2 FROM s1),
s3 AS (SELECT *, xor(h2, h2 >> 27) AS h3 FROM s2),
s4 AS (SELECT *, {modmul('h3', 0x94D049BB133111EB)} AS h4 FROM s3),
s5 AS (SELECT *, xor(h4, h4 >> 31) AS e FROM s4)"""
    return cte, "e"


def importance_sample(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    denom: int,
    seed: int = 0,
) -> ray.data.Dataset:
    """Weighted (importance) sampling: keep each row with probability
    ``min(weight, denom) / denom`` where ``weight`` is a non-negative
    integer column — e.g. length-proportional document sampling with
    ``weight_col="n_chars", denom=800`` (rows at or above the cap are
    always kept). The up-/down-weighting primitive for mixture tuning.

    Deterministic and EXACT: keep ⇔ ``hash·denom < clamp(w)·2^64`` in
    integer arithmetic (engine compares against per-unique-weight
    ``ceil(w·2^64/denom)`` thresholds, the oracle compares the HUGEINT
    products directly — same predicate, no float surface). Per-row,
    zero shuffle; re-running with a larger ``denom`` keeps a superset
    ⊂-relationship per row like hash_sample's rate monotonicity.
    """
    if denom <= 0:
        raise ValueError(f"denom must be positive, got {denom}")
    s = seed
    TWO64 = 1 << 64

    def fn(t: pa.Table) -> pa.Table:
        h = sample_hash(t[id_col].to_numpy(), s)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        wc = np.clip(w, 0, denom)
        codes, uniq = pd.factorize(wc)
        thr = np.empty(len(uniq), np.uint64)
        full = np.zeros(len(uniq), bool)
        for k, u in enumerate(uniq):
            if u >= denom:
                full[k] = True
                thr[k] = 0
            else:
                thr[k] = np.uint64(-(-(int(u) * TWO64) // denom))  # ceil
        keep = full[codes] | (h < thr[codes])
        return t.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def weighted_topk(
    ds: ray.data.Dataset,
    id_col: str,
    weight_col: str,
    k: int,
    *,
    seed: int = 0,
    ndigits: int = 9,
) -> "pd.DataFrame":
    """Weighted sampling WITHOUT replacement, fixed size k (Efraimidis &
    Spirakis 2006, algorithm A-ES): each row draws the exponential key
    ``key = -ln(u)/w`` from its deterministic uniform
    ``u = ((sample_hash(id) >> 11) + 1) / 2^53`` and the k SMALLEST keys
    win — inclusion probabilities proportional to weight, the
    fixed-budget twin of :func:`importance_sample` (which is Bernoulli,
    variable size). → DataFrame (id, w, key) sorted by (key, id).

    Deterministic and bit-replayable: u is an exact dyadic double, ln is
    correctly-rounded libm == DuckDB ``ln()`` (CLAUDE.md toolbox), one
    division by the raw double weight, and the output key is pinned with
    the ``floor(x·10^ndigits + 0.5)`` rounding both sides. Rows with
    null or non-positive weight drop (they can never win).

    Scale shape: zero shuffle — each block reduces to its local k
    smallest keys (argpartition), the driver merges ≤ k·n_blocks tiny
    partials. Re-sharding the input cannot change the winners because
    keys are per-row pure functions.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    s = seed
    POW10 = 10.0 ** ndigits

    def partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = np.isfinite(w) & (w > 0.0)
        ids, w = ids[ok], w[ok]
        if len(ids) == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "w": pa.array([], pa.float64()),
                             "key": pa.array([], pa.float64())})
        h = sample_hash(np.asarray(ids), s)
        u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
        key = -np.log(u) / w
        if len(key) > k:
            sel = np.argpartition(key, k)[:k]
        else:
            sel = np.arange(len(key))
        return pa.table(
            {"id": pa.array(np.asarray(ids)[sel].astype(np.int64)),
             "w": pa.array(w[sel]),
             "key": pa.array(key[sel])}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0 or "key" not in parts.columns:
        return pd.DataFrame(
            {"id": pd.Series([], dtype="int64"),
             "w": pd.Series([], dtype="float64"),
             "key": pd.Series([], dtype="float64")}
        )
    parts = parts.sort_values(["key", "id"], kind="mergesort").head(k)
    parts["key"] = np.floor(parts["key"].to_numpy() * POW10 + 0.5) / POW10
    return parts.reset_index(drop=True)


def pack_sequences(
    ds: ray.data.Dataset,
    len_col: str = "n_tokens",
    id_col: str = "doc_id",
    *,
    capacity: int = 2048,
    bucket_size: int = 64,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Training **sequence packing**: assign each document to a
    fixed-capacity token bin (next-fit in id order), the step that turns
    a ragged corpus into dense fixed-length pretraining batches with
    minimal padding waste.

    Deterministic-parallel contract: documents partition into
    ``id // bucket_size`` PACK BUCKETS; within each bucket, documents
    are scanned in ascending id and packed next-fit (a document that
    does not fit the open bin closes it and opens the next; a document
    longer than ``capacity`` occupies a bin alone, flagged
    ``truncated``). Bin identity is ``(pack_bucket, bin_in_bucket)`` —
    packing is a pure function of (ids, lengths, capacity, bucket_size),
    independent of physical partitioning, and each bucket packs
    independently, so the whole operator is one bounded hash exchange
    (≤``n_buckets`` groups) plus per-bucket scans. The cross-bucket
    padding cost vs one global scan is ≤ one partial bin per bucket —
    the price of parallelism, stated not hidden.

    → rows ``(id_col, seq_len, pack_bucket, bin_in_bucket, bin_offset,
    truncated)`` where ``bin_offset`` is the document's token start
    within its bin.
    Next-fit's sequential scan runs per bucket over ≤``bucket_size``
    rows — the Python loop is bounded by the bucket, never the corpus.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")

    def tag(t: pa.Table) -> pa.Table:
        ids = pa.compute.cast(t[id_col], pa.int64()).to_numpy()
        ln = pa.compute.cast(t[len_col], pa.int64()).to_numpy()
        return pa.table({
            "id": pa.array(ids), "len": pa.array(ln),
            "pb": pa.array(ids // bucket_size),
        })

    def pack(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        ln = t["len"].to_numpy()
        pb = t["pb"].to_numpy()
        order = np.lexsort((ids, pb))
        ids, ln, pb = ids[order], ln[order], pb[order]
        n = len(ids)
        bin_no = np.empty(n, np.int64)
        off = np.empty(n, np.int64)
        trunc = np.empty(n, bool)
        cur_pb, cur_bin, fill = None, 0, 0
        for i in range(n):
            if pb[i] != cur_pb:
                cur_pb, cur_bin, fill = pb[i], 0, 0
            v = int(ln[i])
            if v > capacity:
                # oversize doc: its own bin, truncated at capacity
                if fill > 0:
                    cur_bin += 1
                bin_no[i], off[i], trunc[i] = cur_bin, 0, True
                cur_bin += 1
                fill = 0
                continue
            if fill + v > capacity:
                cur_bin += 1
                fill = 0
            bin_no[i], off[i], trunc[i] = cur_bin, fill, False
            fill += v
        return pa.table({
            id_col: pa.array(ids), "seq_len": pa.array(ln),
            "pack_bucket": pa.array(pb),
            "bin_in_bucket": pa.array(bin_no),
            "bin_offset": pa.array(off),
            "truncated": pa.array(trunc),
        })

    return bucket_exchange(
        ds.map_batches(tag, batch_format="pyarrow"), ["pb"], pack, n_buckets
    )


def packing_stats(
    packed: ray.data.Dataset, *, capacity: int
) -> pd.DataFrame:
    """Padding-waste readout of :func:`pack_sequences` → one row
    (n_docs, n_bins, n_truncated, token_sum, bin_capacity_sum,
    fill_pct) — all-integer except the final pinned percentage."""
    import math

    def partial(t: pa.Table) -> pa.Table:
        # per-(pack_bucket) partials survive any re-batching: bins per
        # bucket = max(bin_in_bucket) + 1 via a max-reduce; docs /
        # truncated / token sums via sum-reduces on the same key
        empty = pa.schema([("pb", pa.int64()), ("mx", pa.int64()),
                           ("docs", pa.int64()), ("trunc", pa.int64()),
                           ("tok", pa.int64())]).empty_table()
        if len(t) == 0:
            return empty
        pb = t["pack_bucket"].to_numpy()
        bn = t["bin_in_bucket"].to_numpy()
        ln = np.minimum(t["seq_len"].to_numpy(), capacity)
        tr = t["truncated"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(pb, kind="stable")
        pbs = pb[order]
        b = (np.nonzero(np.concatenate(([True], pbs[1:] != pbs[:-1])))[0]
             if len(pbs) else np.empty(0, np.int64))
        ends = np.concatenate((b, [len(pbs)])) if len(pbs) else b
        sizes = np.diff(ends)
        return pa.table({
            "pb": pa.array(pbs[b] if len(pbs) else pbs),
            "mx": pa.array(np.maximum.reduceat(bn[order], b)
                           if len(pbs) else np.empty(0, np.int64)),
            "docs": pa.array(sizes.astype(np.int64)),
            "trunc": pa.array(np.add.reduceat(tr[order], b)
                              if len(pbs) else np.empty(0, np.int64)),
            "tok": pa.array(np.add.reduceat(ln[order], b)
                            if len(pbs) else np.empty(0, np.int64)),
        })

    agg = (
        packed.map_batches(partial, batch_format="pyarrow")
        .groupby("pb")
        .aggregate(Max("mx", alias_name="mx"),
                   Sum("docs", alias_name="docs"),
                   Sum("trunc", alias_name="trunc"),
                   Sum("tok", alias_name="tok"))
        .to_pandas()
    )
    n_docs = int(agg["docs"].sum())
    n_bins = int((agg["mx"] + 1).sum())
    tok = int(agg["tok"].sum())
    cap_sum = n_bins * capacity
    fill = (math.floor(tok / cap_sum * 1e6 + 0.5) / 1e6 * 100.0
            if cap_sum else 0.0)
    return pd.DataFrame({
        "n_docs": [n_docs], "n_bins": [n_bins],
        "n_truncated": [int(agg["trunc"].sum())],
        "token_sum": [tok], "bin_capacity_sum": [cap_sum],
        "fill_pct": [round(fill, 4)],
    })
