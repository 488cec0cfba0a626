"""Similarity search over embedding columns (list<float>).

- ``brute_force_topk``: the exact baseline — query matrix broadcast once
  via ``ray.put``, per-batch numpy matmul against zero-copy Arrow batches,
  per-batch partial top-k, tiny final merge on the driver. One data pass,
  no shuffle.
- ``ivf_topk``: the scale path — k-means-lite coarse quantizer (trained on
  a sample), vectors bucketed by nearest centroid (`groupby` shuffle once),
  queries probe only the closest ``nprobe`` buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from record_matcher_ray.core.exchange import bucket_exchange


def _merge_topk(
    parts: pd.DataFrame, k: int, query_ids: np.ndarray
) -> pd.DataFrame:
    """Driver-side merge of per-batch partial top-k rows: one vectorized
    sort + head(k) per query (ties by vec_id), no iterrows."""
    parts = parts.sort_values(
        ["qi", "sim", "vec_id"], ascending=[True, False, True], kind="stable"
    )
    top = parts.groupby("qi", sort=True).head(k)
    return pd.DataFrame(
        {
            "query_id": query_ids[top["qi"].to_numpy()].astype(np.int64),
            "rank": (top.groupby("qi").cumcount() + 1).to_numpy(np.int64),
            "vec_id": top["vec_id"].to_numpy(np.int64),
            "cos_sim": np.round(top["sim"].to_numpy(np.float64), 6),
        },
        columns=["query_id", "rank", "vec_id", "cos_sim"],
    )


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _batch_vecs(t: pa.Table, vec_col: str) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> / fixed-size-list /
    Ray tensor-extension column."""
    col = t[vec_col].combine_chunks()
    if isinstance(col, (pa.ListArray, pa.FixedSizeListArray, pa.LargeListArray)):
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(col), -1)
    # Ray ArrowTensorArray or anything else with a sane to_numpy/to_pylist
    try:
        arr = col.to_numpy(zero_copy_only=False)
        return np.stack([np.asarray(v, dtype=np.float64) for v in arr])
    except Exception:
        return np.stack(
            [np.asarray(v, dtype=np.float64) for v in col.to_pylist()]
        )


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Exact cosine top-k for each query row. → DataFrame(query_id, rank,
    vec_id, cos_sim rounded to 6dp; ties broken by vec_id)."""
    q = _unit(np.asarray(queries, dtype=np.float64))
    if query_ids is None:
        query_ids = np.arange(len(q))
    q_ref = ray.put(q)

    def partial(t: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        vecs = _unit(_batch_vecs(t, vec_col))
        ids = t[id_col].to_numpy()
        sims = qm @ vecs.T  # (nq, nb)
        kk = min(k, sims.shape[1])
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            idx = np.argpartition(-sims[qi], kk - 1)[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx])
            out_s.extend(sims[qi][idx])
        return pa.table(
            {
                "qi": pa.array(np.asarray(out_q, np.int64)),
                "vec_id": pa.array(np.asarray(out_id, np.int64)),
                "sim": pa.array(np.asarray(out_s, np.float64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k, np.asarray(query_ids))


def train_centroids(
    ds: ray.data.Dataset,
    n_centroids: int = 16,
    vec_col: str = "embedding",
    sample: int = 2048,
    iters: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """k-means-lite on a driver-side sample (the IVF coarse quantizer)."""
    sample_df = ds.limit(sample).to_pandas()
    x = _unit(np.stack(sample_df[vec_col].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    cents = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        assign = (x @ cents.T).argmax(axis=1)
        for c in range(len(cents)):
            m = x[assign == c]
            if len(m):
                cents[c] = m.mean(axis=0)
        cents = _unit(cents)
    return cents


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_centroids: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Approximate cosine top-k: bucket vectors by nearest centroid, probe
    only ``nprobe`` buckets per query. Same output schema as brute force."""
    cents = train_centroids(ds, n_centroids, vec_col)
    cents_ref = ray.put(cents)
    q = _unit(np.asarray(queries, dtype=np.float64))
    if query_ids is None:
        query_ids = np.arange(len(q))
    # per-query probed buckets
    probes = np.argsort(-(q @ cents.T), axis=1)[:, :nprobe]
    probed_sets = [set(map(int, row)) for row in probes]
    q_ref = ray.put((q, probed_sets))

    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        qm, probed = ray.get(q_ref)
        vecs = _unit(_batch_vecs(t, vec_col))
        ids = t[id_col].to_numpy()
        bucket = (vecs @ c.T).argmax(axis=1)
        out_q, out_id, out_s = [], [], []
        for qi in range(len(qm)):
            mask = np.isin(bucket, list(probed[qi]))
            if not mask.any():
                continue
            sims = vecs[mask] @ qm[qi]
            sel_ids = ids[mask]
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(sel_ids[idx])
            out_s.extend(sims[idx])
        return pa.table(
            {
                "qi": pa.array(np.asarray(out_q, np.int64)),
                "vec_id": pa.array(np.asarray(out_id, np.int64)),
                "sim": pa.array(np.asarray(out_s, np.float64)),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k, np.asarray(query_ids))


def lsh_sign_matrix(
    dim: int, n_tables: int = 4, n_bits: int = 6, seed: int = 0
) -> np.ndarray:
    """(n_tables, n_bits, dim) ±1 int64 random-hyperplane sign projections,
    derived deterministically from splitmix64 so the SQL oracle can embed
    the exact same constants as literals."""
    from record_matcher_ray.core.hashkernels import mix64

    n = n_tables * n_bits * dim
    with np.errstate(over="ignore"):
        h = mix64(
            np.arange(n, dtype=np.uint64)
            + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15)
        )
    signs = np.where((h & np.uint64(1)).astype(bool), 1, -1).astype(np.int64)
    return signs.reshape(n_tables, n_bits, dim)


_LSH_QUANT = float(2**20)  # power of two ⇒ float64 multiply is EXACT


def lsh_codes(vecs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(n, n_tables) int64 bucket codes. Bit i of table t = (sign-projection
    dot > 0), computed in EXACT integer math: each component is quantized
    once as floor(float64(v) * 2**20) — a bit-exact operation both here and
    in DuckDB (``floor(x * 1048576.0)::BIGINT``) — so the bucket assignment
    is partitioning- and engine-invariant (same recipe as kmeans)."""
    q = np.floor(vecs.astype(np.float64) * _LSH_QUANT).astype(np.int64)
    dots = np.einsum("nd,tbd->ntb", q, signs)  # exact int64, |dot| << 2**63
    bits = (dots > 0).astype(np.int64)
    weights = np.int64(1) << np.arange(signs.shape[1], dtype=np.int64)
    return (bits * weights).sum(axis=2)


def lsh_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_tables: int = 4,
    n_bits: int = 6,
    seed: int = 0,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    query_ids: np.ndarray | None = None,
) -> pd.DataFrame:
    """Approximate cosine top-k via random-hyperplane LSH (SimHash-style
    multi-table bucketing — Charikar, STOC 2002): a vector is a candidate
    for a query iff they share a bucket code in ANY of the ``n_tables``
    tables; only candidates are scored exactly.

    Scale shape: queries + sign matrix broadcast once (``ray.put``); each
    batch computes its own codes, intersects with the query codes, scores
    only the colliding pairs and emits a per-batch partial top-k — one data
    pass, zero shuffle, candidate count bounded by bucket occupancy instead
    of the corpus size. Same output schema as :func:`brute_force_topk`.
    """
    q = np.asarray(queries, dtype=np.float64)
    if query_ids is None:
        query_ids = np.arange(len(q))
    signs = lsh_sign_matrix(q.shape[1], n_tables, n_bits, seed)
    qcodes = lsh_codes(q, signs)  # (nq, T)
    ref = ray.put((_unit(q), qcodes, signs))

    def partial(t: pa.Table) -> pa.Table:
        qm, qc, sg = ray.get(ref)
        raw = _batch_vecs(t, vec_col)
        vm = _unit(raw)
        ids = t[id_col].to_numpy()
        vc = lsh_codes(raw, sg)  # (nb, T)
        # (nq, nb): collide in any table
        hit = (qc[:, None, :] == vc[None, :, :]).any(axis=2)
        qi, vi = np.nonzero(hit)
        empty = pa.table(
            {"qi": pa.array([], pa.int64()),
             "vec_id": pa.array([], pa.int64()),
             "sim": pa.array([], pa.float64())}
        )
        if len(qi) == 0:
            return empty
        sims = (qm[qi] * vm[vi]).sum(axis=1)
        # per-batch partial top-k per query (ties by vec_id)
        order = np.lexsort((ids[vi], -sims, qi))
        qi_s = qi[order]
        first = np.concatenate(([True], qi_s[1:] != qi_s[:-1]))
        starts = np.nonzero(first)[0]
        rank = np.arange(len(qi_s)) - np.repeat(
            starts, np.diff(np.append(starts, len(qi_s)))
        )
        keep = order[rank < k]
        return pa.table(
            {"qi": pa.array(qi[keep].astype(np.int64)),
             "vec_id": pa.array(ids[vi[keep]].astype(np.int64)),
             "sim": pa.array(sims[keep].astype(np.float64))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k, np.asarray(query_ids))


def embedding_near_dups_exact(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_broadcast_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """EXACT embedding-cosine near-duplicate pairs (a < b, cos_sim >=
    threshold): the normalized matrix of ALL vectors is broadcast once
    (``ray.put``, zero-copy numpy) and every batch matmuls against it,
    emitting each pair exactly once (only other-id > batch-id survives).
    One data pass, no shuffle, full recall — the ≤``max_broadcast_rows``
    baseline; above the guard use the IVF :func:`embedding_near_dups`
    (approximate) and raise its ``nprobe``."""
    try:
        all_df = ds.to_pandas(limit=max_broadcast_rows)
    except ValueError as ex:
        raise ValueError(
            f"embedding_near_dups_exact needs the full vector set on the "
            f"driver and it exceeds max_broadcast_rows={max_broadcast_rows}; "
            f"use embedding_near_dups (IVF multi-probe) at this scale."
        ) from ex
    all_ids = all_df[id_col].to_numpy(dtype=np.int64)
    order = np.argsort(all_ids, kind="stable")
    all_ids = all_ids[order]
    all_vecs = _unit(np.stack(all_df[vec_col].to_numpy()).astype(np.float64))[
        order
    ]
    ref = ray.put((all_ids, all_vecs))

    def pairs(t: pa.Table) -> pa.Table:
        ids_all, vecs_all = ray.get(ref)
        vecs = _unit(_batch_vecs(t, vec_col))
        ids = t[id_col].to_numpy().astype(np.int64)
        sims = vecs @ vecs_all.T  # (nb, N)
        hit = sims >= threshold
        # emit once per unordered pair: batch id strictly below the other id
        hit &= ids[:, None] < ids_all[None, :]
        bi, oi = np.nonzero(hit)
        return pa.table(
            {"a": pa.array(ids[bi]),
             "b": pa.array(ids_all[oi]),
             "cos_sim": pa.array(np.round(sims[bi, oi], 6))}
        )

    return ds.map_batches(pairs, batch_format="pyarrow")


def embedding_near_dups(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 16,
    nprobe: int = 2,
) -> ray.data.Dataset:
    """Approximate embedding-cosine near-duplicate pairs: every vector is
    assigned to its ``nprobe`` NEAREST centroids (multi-probe — closes the
    round-1 recall hole where boundary pairs straddling a single-probe
    bucket split were never compared), all-pairs cosine within each bucket,
    keep sim >= threshold, then a pair-hash distinct pass drops the
    pairs found in more than one probed bucket. → Dataset(a, b, cos_sim).

    Recall rises with ``nprobe`` (2 catches same-plus-next-centroid
    boundary pairs); exactness at small scale is available from
    :func:`embedding_near_dups_exact`."""
    cents_ref = ray.put(train_centroids(ds, n_centroids, vec_col))

    def bucketize(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        vecs = _unit(_batch_vecs(t, vec_col))
        n = len(vecs)
        npb = min(nprobe, len(c))
        near = np.argpartition(-(vecs @ c.T), npb - 1, axis=1)[:, :npb]
        rep = np.repeat(np.arange(n), npb)
        return pa.table(
            {
                "bucket": pa.array(near.reshape(-1).astype(np.int64)),
                "id": pc.take(t[id_col].combine_chunks(), pa.array(rep)),
                vec_col: pc.take(t[vec_col].combine_chunks(), pa.array(rep)),
            }
        )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64"),
                              "cos_sim": pd.Series([], dtype="float64")})
        if len(df) < 2:
            return empty
        vecs = _unit(np.stack(df[vec_col].to_numpy()).astype(np.float64))
        ids = df["id"].to_numpy(dtype=np.int64)
        sims = vecs @ vecs.T
        ai, bi = np.triu_indices(len(ids), k=1)
        keep = (sims[ai, bi] >= threshold) & (ids[ai] != ids[bi])
        return pd.DataFrame(
            {
                "a": np.minimum(ids[ai[keep]], ids[bi[keep]]),
                "b": np.maximum(ids[ai[keep]], ids[bi[keep]]),
                "cos_sim": np.round(sims[ai, bi][keep], 6),
            }
        )

    raw = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )

    # distinct (a, b) — multi-probe emits a pair once per shared bucket;
    # one pair-hash exchange + vectorized first-per-pair
    def local_distinct(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            t.to_pandas().drop_duplicates(subset=["a", "b"]),
            preserve_index=False,
        )

    return bucket_exchange(raw, ["a", "b"], local_distinct)


# ---- distributed fixed-point k-means -----------------------------------

_KM_GUARD_BITS = 27  # |q| < 2**27 keeps d*(2|q|)**2 < 2**63 at d ≤ 64


@ray.remote
def _km_init_partial(t: pa.Table, id_col: str, k: int, seed: int):
    """Per-block candidate centroids: the k rows with the smallest
    (sample_hash(id), id) — only k rows/block reach the driver."""
    from record_matcher_ray.pipelines.sampling import sample_hash

    if len(t) == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty((0, 0), np.int64))
    ids = np.ascontiguousarray(t[id_col].to_numpy(), dtype=np.int64)
    h = sample_hash(ids, seed)
    order = np.lexsort((ids, h))[:k]
    q = _qv_matrix(t)
    return h[order], ids[order], q[order]


def _qv_matrix(t: pa.Table) -> np.ndarray:
    """(n, d) int64 matrix from the quantized list<int64> column,
    zero-copy per chunk (no combine_chunks — CLAUDE.md)."""
    col = t["qv"]
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    mats = []
    for ch in chunks:
        if len(ch) == 0:
            continue
        flat = ch.flatten().to_numpy(zero_copy_only=False)
        mats.append(flat.reshape(len(ch), -1))
    if not mats:
        return np.empty((0, 0), np.int64)
    return mats[0] if len(mats) == 1 else np.concatenate(mats)


def _km_assign(q: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """argmin integer squared L2 (ties → lowest centroid index). Exact
    int64 arithmetic throughout — no float rounding anywhere, so the
    result is independent of partitioning and replayable in SQL."""
    qq = (q * q).sum(axis=1)[:, None]
    cc = (cents * cents).sum(axis=1)[None, :]
    d2 = qq + cc - 2 * (q @ cents.T)
    return d2.argmin(axis=1)


@ray.remote(num_cpus=1)
def _km_iter_partial(t: pa.Table, cents_ref, k: int):
    """One Lloyd partial: (k×d int64 cluster sums, k counts) of a block
    against the broadcast centroids."""
    cents = ray.get(cents_ref) if isinstance(cents_ref, ray.ObjectRef) else cents_ref
    q = _qv_matrix(t)
    d = cents.shape[1]
    sums = np.zeros((k, d), dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    if len(q) == 0:
        return sums, counts
    assign = _km_assign(q, cents)
    for c in range(k):
        sel = assign == c
        n = int(sel.sum())
        if n:
            sums[c] = q[sel].sum(axis=0)
            counts[c] = n
    return sums, counts


@ray.remote(num_cpus=1)
def _km_assign_block(t: pa.Table, cents_ref, id_col: str) -> pa.Table:
    cents = ray.get(cents_ref) if isinstance(cents_ref, ray.ObjectRef) else cents_ref
    q = _qv_matrix(t)
    if len(q) == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "cluster": pa.array([], pa.int64())})
    assign = _km_assign(q, cents)
    return pa.table({
        id_col: pa.array(
            np.ascontiguousarray(t[id_col].to_numpy(), np.int64)),
        "cluster": pa.array(assign.astype(np.int64)),
    })


def kmeans(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 5,
    scale_bits: int = 20,
    seed: int = 0,
) -> tuple[np.ndarray, ray.data.Dataset]:
    """Distributed Lloyd's k-means over an embedding column in EXACT
    fixed-point integer arithmetic → (int64 centroids [k, d],
    assignments Dataset (id, cluster)).

    Why integer: float partial sums merge in block order, so the same
    data partitioned differently would drift by ulps and assignments
    could flip — this k-means quantizes each vector ONCE
    (floor(x * 2**scale_bits + 0.5)) and does every distance, sum and
    centroid update in exact integer math (centroid = floor-div of the
    cluster sum), making the result a pure function of (data, k, iters,
    seed): partitioning-invariant, resumable, and bit-replayable by the
    DuckDB oracle (__ray_entry__._kmeans_oracle).

    Scale shape: the quantized table is materialized once; each of the
    ``iters`` rounds is one wave of per-block tasks shipping k×d×8 B
    partials to the driver (merged with Python-int exactness); centroids
    broadcast via ``ray.put``. No shuffle at any point; the assignment
    output is written block-parallel. Init = the k rows with smallest
    (splitmix64(id ^ seed), id) — deterministic under any partitioning.
    Empty clusters keep their previous centroid (same rule in SQL)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    C = float(1 << scale_bits)

    # resolve the dimension ONCE so every quantized block (including
    # empty ones) emits the same fixed_size_list[d] schema — a mixed
    # list/fixed_size_list stream would break the assignment union
    probe = ds.limit(1).to_pandas()
    if len(probe) == 0:
        raise ValueError("kmeans: empty input dataset")
    dim = len(np.asarray(probe[vec_col].iloc[0]))

    def quantize(t: pa.Table) -> pa.Table:
        x = _batch_vecs(t, vec_col)
        q = np.floor(x * C + 0.5).astype(np.int64)
        if len(q) and q.shape[1] != dim:
            raise ValueError(
                f"kmeans: ragged embeddings ({q.shape[1]} != {dim})"
            )
        if len(q) and int(np.abs(q).max()) >= (1 << _KM_GUARD_BITS):
            raise ValueError(
                "kmeans fixed-point overflow guard: |quantized| >= "
                f"2**{_KM_GUARD_BITS}; lower scale_bits (={scale_bits}) "
                "or normalize the vectors"
            )
        ids = np.ascontiguousarray(t[id_col].to_numpy(), dtype=np.int64)
        return pa.table({
            id_col: pa.array(ids),
            "qv": pa.FixedSizeListArray.from_arrays(
                pa.array(q.ravel(), pa.int64()), dim),
        })

    qds = ds.map_batches(quantize, batch_format="pyarrow").materialize()
    refs = qds.to_arrow_refs()

    # deterministic init: global k smallest (hash, id)
    parts = ray.get([_km_init_partial.remote(r, id_col, k, seed)
                     for r in refs])
    hs = np.concatenate([p[0] for p in parts] or [np.empty(0, np.uint64)])
    ids = np.concatenate([p[1] for p in parts] or [np.empty(0, np.int64)])
    qs = [p[2] for p in parts if p[2].size]
    if not qs:
        raise ValueError("kmeans: empty input dataset")
    qmat = np.concatenate(qs)
    order = np.lexsort((ids, hs))[:k]
    cents = qmat[order].copy()
    k_eff = len(cents)

    for _ in range(iters):
        cref = ray.put(cents)
        partials = ray.get(
            [_km_iter_partial.remote(r, cref, k_eff) for r in refs]
        )
        counts = np.sum([p[1] for p in partials], axis=0)
        new = cents.copy()
        nz = counts > 0  # empty clusters keep their previous centroid
        if int(counts.sum()) < (1 << 35):
            # vectorized exact merge: rows·2**GUARD < 2**62 → the int64
            # sums cannot wrap; floor_divide floors like Python //
            sums = np.sum([p[0] for p in partials], axis=0)
            new[nz] = np.floor_divide(sums[nz], counts[nz, None])
        else:
            # Python-int fallback: exact at any scale (identical result)
            for c in np.nonzero(nz)[0]:
                cnt = int(counts[c])
                for j in range(cents.shape[1]):
                    s = sum(int(p[0][c, j]) for p in partials)
                    new[c, j] = s // cnt
        cents = new

    cref = ray.put(cents)
    out_refs = [_km_assign_block.remote(r, cref, id_col) for r in refs]
    assignments = ray.data.from_arrow_refs(out_refs)
    return cents, assignments


def semantic_decontam(
    train_ds: ray.data.Dataset,
    eval_ds: ray.data.Dataset,
    threshold: float = 0.9,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_eval_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """Embedding-space decontamination: (train_id, eval_id, cos_sim) for
    every train vector within ``threshold`` cosine of ANY eval vector —
    catches paraphrased/templated benchmark leakage that n-gram and
    MinHash decontamination miss (no token overlap required).

    The 100-TB shape shared with decontam.py: the EVAL side (small by
    construction) is normalized, sorted and broadcast ONCE via
    ``ray.put``; the train corpus streams through one zero-shuffle
    ``map_batches`` matmul pass. Above ``max_eval_rows`` raise with the
    actionable alternative (IVF-bucket the eval side) rather than
    silently ballooning the broadcast."""
    try:
        ev = eval_ds.to_pandas(limit=max_eval_rows)
    except ValueError as ex:
        raise ValueError(
            f"semantic_decontam broadcasts the eval matrix and it exceeds "
            f"max_eval_rows={max_eval_rows}; IVF-bucket the eval side or "
            f"raise the guard if driver memory allows."
        ) from ex
    ev_ids = ev[id_col].to_numpy(dtype=np.int64)
    order = np.argsort(ev_ids, kind="stable")
    ev_ids = ev_ids[order]
    ev_vecs = _unit(np.stack(ev[vec_col].to_numpy()).astype(np.float64))[order]
    ref = ray.put((ev_ids, ev_vecs))

    def hits(t: pa.Table) -> pa.Table:
        ids_e, vecs_e = ray.get(ref)
        vecs = _unit(_batch_vecs(t, vec_col))
        ids = t[id_col].to_numpy().astype(np.int64)
        sims = vecs @ vecs_e.T  # (nb, n_eval)
        bi, ei = np.nonzero(sims >= threshold)
        return pa.table(
            {"train_id": pa.array(ids[bi]),
             "eval_id": pa.array(ids_e[ei]),
             "cos_sim": pa.array(np.round(sims[bi, ei], 6))}
        )

    return train_ds.map_batches(hits, batch_format="pyarrow")


def label_centroid_cosine(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
    *,
    qscale: int = 1 << 20,
    ndigits: int = 6,
    max_labels: int = 10_000,
) -> pd.DataFrame:
    """Pairwise cosine similarity between per-label embedding CENTROIDS →
    DataFrame (label_a ≤ label_b, cos_sim) — the domain-drift / cluster-
    overlap diagnostic ("how close are my sources in embedding space").

    Cosine is scale-invariant, so centroids never need the division by n:
    cos(mean_i, mean_j) == cos(sum_i, sum_j). Vectors quantize ONCE to
    integers (⌊x·qscale + 0.5⌋ — the `kmeans` recipe), per-block partial
    SUMS per label ride the exchange (d int64s per (label, block) — never
    the vectors), and the driver finishes in EXACT Python big-int
    arithmetic: dot products and norms are integers, and the only doubles
    are one division and two IEEE-exact sqrts per pair, in pinned order —
    replayed bit-for-bit by the DuckDB oracle (including the half-away
    rounding, written as the same floor expression on both sides).
    """

    def partial(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        offs = col.offsets.to_numpy().astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(offs)
        if len(lens) and (lens != lens[0]).any():
            raise ValueError("label_centroid_cosine needs equal-length vectors")
        d = int(lens[0]) if len(lens) else 0
        q = np.floor(flat * float(qscale) + 0.5).astype(np.int64)
        q = q[offs[0]:offs[-1]] if len(offs) else q[:0]
        qmat = q.reshape(len(lens), d) if d else q.reshape(len(lens), 0)
        labels = t[label_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(labels)
        k = len(uniq)
        # per-dim bincount (buffered, exact: |partial| < 2**53) — not the
        # unbuffered np.add.at scatter (CLAUDE.md: ~20× slower)
        sums = np.empty((k, d), np.int64)
        for j in range(d):
            sums[:, j] = np.bincount(
                codes, weights=qmat[:, j].astype(np.float64), minlength=k
            ).astype(np.int64)
        cnt = np.bincount(codes, minlength=k).astype(np.int64)
        return pa.table(
            {label_col: pa.array(uniq),
             "n": pa.array(cnt),
             "s": pa.array(list(sums), pa.list_(pa.int64()))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    acc: dict = {}
    if parts.empty:  # empty input yields a column-less partials frame
        parts = pd.DataFrame({label_col: [], "n": [], "s": []})
    for lab, n_, s_ in zip(parts[label_col], parts["n"], parts["s"]):
        n0, s0 = acc.get(lab, (0, None))
        sv = [int(x) for x in s_]
        if s0 is None:
            acc[lab] = (n0 + int(n_), sv)
        else:
            acc[lab] = (n0 + int(n_), [a + b for a, b in zip(s0, sv)])
    if len(acc) > max_labels:
        raise ValueError(
            f"label_centroid_cosine: {len(acc)} labels exceed max_labels="
            f"{max_labels}; bucket the pair computation at this scale."
        )
    labs = sorted(acc)
    scale = 10.0 ** ndigits
    rows_a, rows_b, rows_c = [], [], []
    import math

    for i, la in enumerate(labs):
        _, sa = acc[la]
        na = sum(x * x for x in sa)  # exact int norm²
        for lb in labs[i:]:
            _, sb = acc[lb]
            nb = sum(x * x for x in sb)
            dot = sum(x * y for x, y in zip(sa, sb))  # exact int
            if na == 0 or nb == 0:
                c = None
            else:
                x = float(dot) / (math.sqrt(float(na)) * math.sqrt(float(nb)))
                c = (math.floor(x * scale + 0.5) / scale if x >= 0
                     else -math.floor(-x * scale + 0.5) / scale)
            rows_a.append(la)
            rows_b.append(lb)
            rows_c.append(c)
    return pd.DataFrame(
        {"label_a": rows_a, "label_b": rows_b,
         "cos_sim": pd.array(rows_c, dtype="float64")}
    )


def mutual_nearest_neighbors(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    qscale: int = 1 << 20,
    max_broadcast_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """EXACT mutual-nearest-neighbor pairs under cosine: (x_id, y_id,
    cos_sim) where each vector is the other's top-1 neighbor (self
    excluded, ties broken by smaller id), x_id < y_id — the classic
    high-precision seed for embedding-based entity resolution and
    bitext mining (reciprocal top-1 agreement).

    Exactness recipe (the `label_centroid_cosine` one): vectors quantize
    to integers (⌊x·qscale + 0.5⌋); dot products and norms are integer
    sums evaluated in float64 BLAS, which is EXACT while every
    intermediate stays below 2**53 (guarded below); cosine is one double
    division against two IEEE-exact sqrts in pinned order, so numpy and
    the DuckDB oracle produce bit-identical doubles — identical argmax
    winners included. Zero-norm vectors pair with nothing.

    Scale shape: the quantized matrix broadcasts ONCE via ``ray.put``
    (``max_broadcast_rows`` guard — beyond it, use `embedding_near_dups`
    / `ivf_topk` blocking instead of an exact all-pairs scan); scoring
    streams over the same dataset in one `map_batches` pass, chunked on
    an element budget (CLAUDE.md: budget bytes, not rows); only the
    per-row best (three scalars/row) returns to the driver for the
    reciprocal check.
    """
    import ray as _ray

    def quantize(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        offs = col.offsets.to_numpy().astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(offs)
        if len(lens) and (lens != lens[0]).any():
            raise ValueError(
                "mutual_nearest_neighbors needs equal-length vectors"
            )
        d = int(lens[0]) if len(lens) else 0
        q = np.floor(flat * float(qscale) + 0.5)
        q = q[offs[0]:offs[-1]] if len(offs) else q[:0]
        return pa.table(
            {
                "id": pc.cast(t[id_col], pa.int64()),
                "qv": pa.FixedSizeListArray.from_arrays(
                    pa.array(q.reshape(-1), pa.float64()), d
                ) if d else pa.nulls(len(t), pa.list_(pa.float64())),
            }
        )

    # two consumers (driver collect + scoring pass) — materialize once
    qds = ds.map_batches(quantize, batch_format="pyarrow").materialize()
    tbls = [t for t in _ray.get(qds.to_arrow_refs()) if len(t)]
    if not tbls:
        return ray.data.from_arrow(
            pa.schema([("x_id", pa.int64()), ("y_id", pa.int64()),
                       ("cos_sim", pa.float64())]).empty_table()
        )
    cat = pa.concat_tables(tbls).combine_chunks()
    ids_all = cat["id"].to_numpy()
    n = len(ids_all)
    if n > max_broadcast_rows:
        raise ValueError(
            f"{n:,} rows exceeds max_broadcast_rows="
            f"{max_broadcast_rows:,}; exact all-pairs mutual-NN is for "
            "bounded corpora — block first (embedding_near_dups/ivf_topk)."
        )
    qcol = cat["qv"]
    qcol = qcol.chunk(0) if qcol.num_chunks == 1 else qcol.combine_chunks()
    dim = qcol.type.list_size
    qmat = qcol.values.to_numpy(zero_copy_only=False).reshape(n, dim)
    maxq = float(np.abs(qmat).max()) if qmat.size else 0.0
    if dim * maxq * maxq >= 2.0**53:
        raise ValueError(
            "quantized dot products would exceed float64's exact-integer "
            f"range (dim={dim}, max|q|={maxq:.0f}); lower qscale"
        )
    nrm = (qmat * qmat).sum(axis=1)  # exact: each term < 2**53/dim
    mat_ref = _ray.put((ids_all, qmat, nrm))

    def best_partial(t: pa.Table) -> pa.Table:
        ids_g, qg, nrm_g = _ray.get(mat_ref)
        sq = np.sqrt(nrm_g)
        col = t["qv"]
        col = col.chunk(0) if isinstance(col, pa.ChunkedArray) and \
            col.num_chunks == 1 else (
                col.combine_chunks() if isinstance(col, pa.ChunkedArray)
                else col)
        d = col.type.list_size
        bm = col.values.to_numpy(zero_copy_only=False).reshape(len(t), d)
        bid = t["id"].to_numpy()
        bnrm = (bm * bm).sum(axis=1)
        out_id, out_b, out_c = [], [], []
        # chunk the row axis by element budget (~8M doubles per sims slab)
        step = max(1, (8 << 20) // max(len(ids_g), 1))
        big = np.iinfo(np.int64).max
        for s in range(0, len(bm), step):
            rows = slice(s, min(s + step, len(bm)))
            dots = bm[rows] @ qg.T  # exact integers in float64
            cs = dots / (np.sqrt(bnrm[rows])[:, None] * sq[None, :])
            # mask self and zero-norm columns/rows
            cs[:, nrm_g == 0] = -np.inf
            self_mask = bid[rows][:, None] == ids_g[None, :]
            cs[self_mask] = -np.inf
            cs[bnrm[rows] == 0, :] = -np.inf
            mx = cs.max(axis=1)
            ok = np.isfinite(mx)
            # tie-break: smallest id among the max columns
            cand = np.where(cs == mx[:, None], ids_g[None, :], big)
            bb = cand.min(axis=1)
            out_id.append(bid[rows][ok])
            out_b.append(bb[ok])
            out_c.append(mx[ok])
        return pa.table(
            {
                "id": pa.array(np.concatenate(out_id) if out_id
                               else np.empty(0, np.int64)),
                "best": pa.array(np.concatenate(out_b) if out_b
                                 else np.empty(0, np.int64)),
                "cs": pa.array(np.concatenate(out_c) if out_c
                               else np.empty(0, np.float64)),
            }
        )

    bt = [t for t in _ray.get(
        qds.map_batches(best_partial, batch_format="pyarrow")
        .to_arrow_refs()
    ) if len(t)]
    if not bt:
        return ray.data.from_arrow(
            pa.schema([("x_id", pa.int64()), ("y_id", pa.int64()),
                       ("cos_sim", pa.float64())]).empty_table()
        )
    best = pa.concat_tables(bt)
    a = best["id"].to_numpy()
    b = best["best"].to_numpy()
    c = best["cs"].to_numpy()
    order = np.argsort(a)
    a_s, b_s, c_s = a[order], b[order], c[order]
    # reciprocal check: best[best[a]] == a, emit once per unordered pair
    pos = np.searchsorted(a_s, b_s)
    pos_ok = (pos < len(a_s))
    pos_c = np.clip(pos, 0, len(a_s) - 1)
    mutual = pos_ok & (a_s[pos_c] == b_s) & (b_s[pos_c] == a_s) & (a_s < b_s)
    cos = c_s[mutual]
    cos6 = np.where(
        cos >= 0, np.floor(cos * 1e6 + 0.5), -np.floor(-cos * 1e6 + 0.5)
    ) / 1e6
    return ray.data.from_arrow(
        pa.table(
            {"x_id": pa.array(a_s[mutual]), "y_id": pa.array(b_s[mutual]),
             "cos_sim": pa.array(cos6)}
        )
    )


# ---- DBSCAN over an embedding column ------------------------------------


def dbscan_embeddings(
    ds: ray.data.Dataset,
    eps_sim: float = 0.9,
    min_pts: int = 3,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    qscale: int = 1 << 20,
    max_broadcast_rows: int = 1_000_000,
    max_edges: int = 50_000_000,
) -> "pd.DataFrame":
    """Density-based clustering (DBSCAN, Ester et al. KDD 1996) under
    COSINE similarity: neighbors are vectors with cos ≥ ``eps_sim``; a
    point is CORE when its eps-neighborhood (itself included) holds ≥
    ``min_pts`` points; clusters are connected components of core-core
    neighbor edges; border points (non-core with a core neighbor) join a
    cluster; everything else is noise.

    → DataFrame (vec_id, label, is_core) for EVERY input row, sorted by
    vec_id. Labels are canonicalized deterministically: a cluster's
    label is the MIN vec_id among its core points; a border point takes
    the MIN label among its core neighbors (a pinned variant of
    sklearn's order-dependent border assignment — documented deviation);
    noise gets label −1. Zero-norm vectors have undefined cosine and are
    always noise.

    Exactness recipe (`mutual_nearest_neighbors`): quantized integer
    dots in float64 BLAS (exact under 2**53, guarded), one pinned-order
    double cosine per pair, so the ``cs >= eps_sim`` predicate — and
    therefore degrees, cores, edges and labels — replays bit-for-bit in
    the DuckDB oracle (threshold edges + WITH RECURSIVE min-label
    components, the CLAUDE.md toolbox pattern).

    Scale shape: this is the EXACT bounded variant (all-pairs scan
    against a once-broadcast matrix, one streaming pass, per-x chunking
    by element budget; ``max_broadcast_rows``/``max_edges`` guards with
    actionable errors). At corpus scale, block first — feed
    `embedding_near_dups` / `ivf_topk` candidate edges to the same
    core/CC/border readout.
    """
    import pandas as pd
    import ray as _ray

    from record_matcher_ray.pipelines.cluster import (
        connected_components_arrays,
    )

    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")

    def quantize(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        offs = col.offsets.to_numpy().astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(offs)
        if len(lens) and (lens != lens[0]).any():
            raise ValueError("dbscan_embeddings needs equal-length vectors")
        d = int(lens[0]) if len(lens) else 0
        q = np.floor(flat * float(qscale) + 0.5)
        q = q[offs[0]:offs[-1]] if len(offs) else q[:0]
        return pa.table(
            {
                "id": pc.cast(t[id_col], pa.int64()),
                "qv": pa.FixedSizeListArray.from_arrays(
                    pa.array(q.reshape(-1), pa.float64()), d
                ) if d else pa.nulls(len(t), pa.list_(pa.float64())),
            }
        )

    qds = ds.map_batches(quantize, batch_format="pyarrow").materialize()
    tbls = [t for t in _ray.get(qds.to_arrow_refs()) if len(t)]
    if not tbls:
        return pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "label": pd.Series([], dtype="int64"),
             "is_core": pd.Series([], dtype="bool")}
        )
    cat = pa.concat_tables(tbls).combine_chunks()
    ids_all = cat["id"].to_numpy()
    n = len(ids_all)
    if n > max_broadcast_rows:
        raise ValueError(
            f"{n:,} rows exceeds max_broadcast_rows="
            f"{max_broadcast_rows:,}; exact DBSCAN is for bounded "
            "corpora — block candidate edges first "
            "(embedding_near_dups/ivf_topk)."
        )
    qcol = cat["qv"]
    qcol = qcol.chunk(0) if qcol.num_chunks == 1 else qcol.combine_chunks()
    dim = qcol.type.list_size
    qmat = qcol.values.to_numpy(zero_copy_only=False).reshape(n, dim)
    maxq = float(np.abs(qmat).max()) if qmat.size else 0.0
    if dim * maxq * maxq >= 2.0**53:
        raise ValueError(
            "quantized dot products would exceed float64's exact-integer "
            f"range (dim={dim}, max|q|={maxq:.0f}); lower qscale"
        )
    nrm = (qmat * qmat).sum(axis=1)
    mat_ref = _ray.put((ids_all, qmat, nrm))
    eps = float(eps_sim)

    def edge_partial(t: pa.Table) -> pa.Table:
        ids_g, qg, nrm_g = _ray.get(mat_ref)
        sq = np.sqrt(nrm_g)
        col = t["qv"]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        d = col.type.list_size
        bm = col.values.to_numpy(zero_copy_only=False).reshape(len(t), d)
        bid = t["id"].to_numpy()
        bnrm = (bm * bm).sum(axis=1)
        bsq = np.sqrt(bnrm)
        out_a, out_b = [], []
        step = max(1, (8 << 20) // max(len(ids_g), 1))
        for s in range(0, len(bm), step):
            e = min(s + step, len(bm))
            sims = (bm[s:e] @ qg.T) / (bsq[s:e, None] * sq[None, :])
            hit = sims >= eps
            hit &= bid[s:e, None] < ids_g[None, :]
            # zero-norm rows divide to nan -> never >= eps, never hit
            bi, oi = np.nonzero(hit)
            out_a.append(bid[s:e][bi])
            out_b.append(ids_g[oi])
        a = np.concatenate(out_a) if out_a else np.array([], np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], np.int64)
        return pa.table({"a": pa.array(a.astype(np.int64)),
                         "b": pa.array(b.astype(np.int64))})

    edge_tbls = [
        t for t in _ray.get(
            qds.map_batches(edge_partial, batch_format="pyarrow")
            .to_arrow_refs()
        ) if len(t)
    ]
    if edge_tbls:
        ecat = pa.concat_tables(edge_tbls)
        ea = ecat["a"].to_numpy()
        eb = ecat["b"].to_numpy()
    else:
        ea = eb = np.array([], np.int64)
    if len(ea) > max_edges:
        raise ValueError(
            f"{len(ea):,} threshold edges exceeds max_edges="
            f"{max_edges:,}; raise eps_sim or block first."
        )

    order = np.argsort(ids_all, kind="stable")
    sid = ids_all[order]
    if n > 1 and (sid[1:] == sid[:-1]).any():
        raise ValueError("dbscan_embeddings requires unique ids")
    # degree per node (each undirected edge touches both endpoints)
    deg = np.zeros(n, np.int64)
    if len(ea):
        np.add.at(deg, np.searchsorted(sid, ea), 1)
        np.add.at(deg, np.searchsorted(sid, eb), 1)
    core = (deg + 1) >= min_pts
    label = np.full(n, -1, np.int64)
    label[core] = sid[core]  # singleton core clusters label themselves
    if len(ea):
        ca = core[np.searchsorted(sid, ea)]
        cb = core[np.searchsorted(sid, eb)]
        cc = ca & cb
        if cc.any():
            nodes, comp = connected_components_arrays(ea[cc], eb[cc])
            label[np.searchsorted(sid, nodes)] = comp
        # border: non-core endpoint takes min label over CORE neighbors
        half_a = ea[cb & ~ca]          # a is border, b is core
        half_al = label[np.searchsorted(sid, eb[cb & ~ca])]
        half_b = eb[ca & ~cb]          # b is border, a is core
        half_bl = label[np.searchsorted(sid, ea[ca & ~cb])]
        bord = np.concatenate([half_a, half_b])
        bord_l = np.concatenate([half_al, half_bl])
        if len(bord):
            o = np.lexsort((bord_l, bord))
            bs, ls = bord[o], bord_l[o]
            first = np.concatenate(([True], bs[1:] != bs[:-1]))
            pos = np.searchsorted(sid, bs[first])
            label[pos] = ls[first]     # min label = first after lexsort
    return pd.DataFrame(
        {"vec_id": sid, "label": label, "is_core": core[:]}
    )


# ---- exact cosine top-k + reciprocal rank fusion -------------------------


def exact_cosine_topk(
    ds: ray.data.Dataset,
    query_id: int,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    qscale: int = 1 << 20,
) -> "pd.DataFrame":
    """Top-k neighbors of the vector with id ``query_id`` under the
    bit-replayable quantized-integer cosine (`mutual_nearest_neighbors`
    recipe) → DataFrame (id, cos_sim) ordered (cos_sim desc, id asc),
    self excluded, zero-norm rows excluded. Unlike `brute_force_topk`
    (float BLAS, fast approximate ordering near ties), every rank here
    is deterministic and SQL-replayable — the right leg for rank-fusion
    operators where rank positions enter the score.

    Scale shape: the query row is read once, its quantized vector rides
    the task closure, one zero-shuffle streaming pass emits per-block
    partial top-k (three scalars/row), the driver merges ≤ k·n_blocks.
    """
    import pandas as pd

    def quantize(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        offs = col.offsets.to_numpy().astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(offs)
        d = int(lens[0]) if len(lens) else 0
        q = np.floor(flat * float(qscale) + 0.5)
        q = q[offs[0]:offs[-1]] if len(offs) else q[:0]
        return pa.table(
            {"id": pc.cast(t[id_col], pa.int64()),
             "qv": pa.FixedSizeListArray.from_arrays(
                 pa.array(q.reshape(-1), pa.float64()), d
             ) if d else pa.nulls(len(t), pa.list_(pa.float64()))}
        )

    qds = ds.map_batches(quantize, batch_format="pyarrow").materialize()

    def pick_query(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["id"], query_id))

    qrow = qds.map_batches(pick_query, batch_format="pyarrow").to_pandas()
    if len(qrow) == 0:
        raise ValueError(f"query_id {query_id} not found in {id_col}")
    qv = np.asarray(qrow["qv"].iloc[0], np.float64)
    qn = float((qv * qv).sum())
    if qn == 0.0:
        raise ValueError("query vector has zero norm")
    if len(qv) * float(np.abs(qv).max()) ** 2 >= 2.0**53:
        raise ValueError("quantized dots exceed exact float64 range; "
                         "lower qscale")
    qsq = np.sqrt(qn)

    def partial(t: pa.Table) -> pa.Table:
        col = t["qv"]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        d = col.type.list_size
        bm = col.values.to_numpy(zero_copy_only=False).reshape(len(t), d)
        ids = t["id"].to_numpy()
        nrm = (bm * bm).sum(axis=1)
        ok = (ids != query_id) & (nrm > 0)
        cs = (bm[ok] @ qv) / (np.sqrt(nrm[ok]) * qsq)
        ids_ok = ids[ok]
        if len(cs) > k:
            sel = np.argpartition(-cs, k)[:k]
            cs, ids_ok = cs[sel], ids_ok[sel]
        return pa.table({"id": pa.array(ids_ok.astype(np.int64)),
                         "cos_sim": pa.array(cs)})

    parts = qds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0 or "id" not in parts.columns:
        return pd.DataFrame({"id": pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    parts = parts.sort_values(
        ["cos_sim", "id"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return parts.reset_index(drop=True)


def rrf_fuse(
    rankings: list,
    *,
    id_col: str = "id",
    k: int = 60,
    ndigits: int = 9,
) -> "pd.DataFrame":
    """Reciprocal Rank Fusion (Cormack et al., SIGIR 2009): fuse N
    ranked id lists into one ranking, ``rrf(id) = Σ_i 1/(k + rank_i)``
    over the rankings that contain the id (1-based ranks = row order of
    each input DataFrame). → DataFrame (id, rrf, rank) ordered by
    (rrf desc, id asc), rrf rounded half-up to ``ndigits`` AFTER
    ranking on the unrounded pinned-order sum (terms added in rankings-
    list order — the association a SQL oracle replays with one CASE
    term per ranking). The standard hybrid-search combiner (BM25 leg +
    embedding leg); inputs are top-k tables, so this is driver-side by
    construction.
    """
    import pandas as pd

    scores: dict[int, float] = {}
    for r in rankings:
        ids = r[id_col].to_numpy()
        for pos, i in enumerate(ids, 1):
            i = int(i)
            scores[i] = scores.get(i, 0.0) + 1.0 / (float(k) + float(pos))
    if not scores:
        return pd.DataFrame({"id": pd.Series([], dtype="int64"),
                             "rrf": pd.Series([], dtype="float64"),
                             "rank": pd.Series([], dtype="int64")})
    ids = np.asarray(sorted(scores), np.int64)
    sc = np.asarray([scores[int(i)] for i in ids], np.float64)
    order = np.lexsort((ids, -sc))
    pw = 10.0 ** int(ndigits)
    return pd.DataFrame(
        {"id": ids[order],
         "rrf": np.floor(sc[order] * pw + 0.5) / pw,
         "rank": np.arange(1, len(order) + 1, dtype=np.int64)}
    )


def davies_bouldin(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 5,
    scale_bits: int = 20,
    seed: int = 0,
    ndigits: int = 9,
) -> "pd.DataFrame":
    """Clustering-quality evaluation: Davies-Bouldin (1979, the q=2 RMS
    form) over this module's fixed-point :func:`kmeans` → one row per
    NON-EMPTY cluster (cluster, n_members, s, d_i, db):

    - ``s_i   = sqrt(Σ d²(x, c_i) / n_i)`` — RMS scatter to the integer
      centroid (q=2 of the original paper; Σd² is an EXACT integer so
      the only floats are one division and one IEEE sqrt),
    - ``d_i   = max_{j≠i} (s_i + s_j) / ‖c_i − c_j‖`` (centroid-pair
      distances are sqrt of exact ints; coincident centroids are
      skipped; 0.0 if no valid partner),
    - ``db    =`` mean of d_i over non-empty clusters (ascending-
      cluster ordered fold), repeated on every row.

    Deterministic end to end: kmeans is bit-replayable, assignments are
    exact-integer argmins, every float readout is pinned-order — the
    SQL oracle extends the kmeans CTE chain and replays all three
    columns bit-for-bit.

    Scale shape: kmeans' own waves plus ONE extra streaming pass that
    reduces each block to k (count, Σd²) partials (decimal128, merged
    driver-side in Python ints) — no shuffle, no per-point driver data.
    """
    import math

    import pandas as pd

    cents, _ = kmeans(ds, vec_col, id_col, k=k, iters=iters,
                      scale_bits=scale_bits, seed=seed)
    k_eff = len(cents)
    C = float(1 << scale_bits)
    cref = ray.put(cents)

    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        x = _batch_vecs(t, vec_col)
        q = np.floor(x * C + 0.5).astype(np.int64)
        if len(q) == 0:
            return pa.table(
                {"cluster": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64()),
                 "ssq": pa.array([], pa.decimal128(38, 0))}
            )
        qq = (q * q).sum(axis=1)[:, None]
        cc = (c * c).sum(axis=1)[None, :]
        d2 = qq + cc - 2 * (q @ c.T)
        assign = d2.argmin(axis=1)
        dmin = d2[np.arange(len(q)), assign]
        rows_c, rows_n, rows_s = [], [], []
        for ci in range(len(c)):
            sel = assign == ci
            n = int(sel.sum())
            if n:
                rows_c.append(ci)
                rows_n.append(n)
                rows_s.append(int(dmin[sel].astype(object).sum()))
        return pa.table(
            {"cluster": pa.array(np.asarray(rows_c, np.int64)),
             "n": pa.array(np.asarray(rows_n, np.int64)),
             "ssq": pa.array(rows_s, pa.decimal128(38, 0))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg: dict[int, list[int]] = {}
    for _, row in parts.iterrows():
        e = agg.setdefault(int(row["cluster"]), [0, 0])
        e[0] += int(row["n"])
        e[1] += int(row["ssq"])
    clusters = sorted(agg)
    n_of = {c: agg[c][0] for c in clusters}
    s_of = {
        c: math.sqrt(float(agg[c][1]) / float(agg[c][0]))
        for c in clusters
    }
    d_of: dict[int, float] = {}
    for i in clusters:
        best = 0.0
        got = False
        for j in clusters:
            if j == i:
                continue
            diff = cents[i].astype(object) - cents[j].astype(object)
            m2 = int((diff * diff).sum())
            if m2 == 0:
                continue
            r = (s_of[i] + s_of[j]) / math.sqrt(float(m2))
            if not got or r > best:
                best, got = r, True
        d_of[i] = best if got else 0.0
    tot = 0.0
    for c in clusters:
        tot = tot + d_of[c]
    db = tot / float(len(clusters)) if clusters else 0.0
    pw = 10.0 ** int(ndigits)
    rnd = lambda x: math.floor(x * pw + 0.5) / pw
    return pd.DataFrame(
        {"cluster": np.asarray(clusters, np.int64),
         "n_members": np.asarray([n_of[c] for c in clusters], np.int64),
         "s": np.asarray([rnd(s_of[c]) for c in clusters], np.float64),
         "d_i": np.asarray([rnd(d_of[c]) for c in clusters], np.float64),
         "db": np.asarray([rnd(db)] * len(clusters), np.float64)}
    )


def quantize_embeddings(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    bits: int = 8,
    ndigits: int = 9,
) -> "ray.data.Dataset":
    """Per-vector symmetric scalar quantization to ``bits``-bit integers
    — the storage/transport prep before an ANN index ships (4× smaller
    than float32 at 8 bits): q_j = floor(v_j / s · (2^(b−1)−1) + 0.5)
    sign-aware half-up, with s = max_j |v_j| per vector → rows
    (id, scale, qvec list<int8|int16>); all-zero vectors emit scale 0
    and a zero qvec.

    Deterministic and SQL-replayable (list_transform + the same pinned
    divide/round chain — the oracle is hash-exact); dequantization is
    q·s/(2^(b−1)−1). Zero shuffle, one streaming pass; the per-batch
    kernel is flat-buffer numpy over the list column (no per-row
    Python)."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    qmax = (1 << (bits - 1)) - 1
    out_t = pa.int8() if bits == 8 else pa.int16()

    def fn(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.cast(col.flatten(), pa.float64()).to_numpy()
        off = col.offsets
        offs = off.to_numpy().astype(np.int64)
        widths = np.diff(offs)
        # per-vector abs max via segmented reduce
        if len(flat):
            starts = offs[:-1]
            absf = np.abs(flat)
            seg_max = np.maximum.reduceat(
                absf, starts[widths > 0]
            ) if (widths > 0).any() else np.empty(0)
            scale = np.zeros(len(widths), np.float64)
            scale[widths > 0] = seg_max
        else:
            scale = np.zeros(len(widths), np.float64)
        s_per_el = np.repeat(scale, widths)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(s_per_el > 0.0,
                         flat / s_per_el * float(qmax), 0.0)
        q = np.where(x >= 0, np.floor(x + 0.5),
                     -np.floor(-x + 0.5)).astype(
            np.int8 if bits == 8 else np.int16)
        p10 = 10.0 ** ndigits
        s_round = np.where(
            scale >= 0, np.floor(scale * p10 + 0.5), 0.0) / p10
        return pa.table({
            id_col: t[id_col],
            "scale": pa.array(s_round, pa.float64()),
            "qvec": pa.ListArray.from_arrays(off, pa.array(q, out_t)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


@ray.remote
def _sem_cluster_reps(ids: np.ndarray, qm: np.ndarray, thr: float,
                      max_edges: int):
    """One k-means bucket of semantic_dedup: within-cluster threshold
    edges (chunked exact-int cosine, the dbscan predicate) → min-id
    connected-component representative per member."""
    from record_matcher_ray.pipelines.cluster import (
        connected_components_arrays,
    )

    nrm = (qm * qm).sum(axis=1)
    sq = np.sqrt(nrm)
    out_a, out_b = [], []
    step = max(1, (8 << 20) // max(len(ids), 1))
    for s in range(0, len(qm), step):
        e = min(s + step, len(qm))
        sims = (qm[s:e] @ qm.T) / (sq[s:e, None] * sq[None, :])
        hit = sims >= thr
        hit &= ids[s:e, None] < ids[None, :]
        # zero-norm rows divide to nan -> never >= thr, never hit
        bi, oi = np.nonzero(hit)
        out_a.append(ids[s:e][bi])
        out_b.append(ids[oi])
    ea = np.concatenate(out_a) if out_a else np.array([], np.int64)
    eb = np.concatenate(out_b) if out_b else np.array([], np.int64)
    if len(ea) > max_edges:
        raise ValueError(
            f"semantic_dedup: {len(ea):,} within-cluster edges exceed "
            f"max_edges={max_edges:,}; raise threshold or k."
        )
    sid = np.sort(ids)
    rep = sid.copy()
    if len(ea):
        nodes, comp = connected_components_arrays(ea, eb)
        rep[np.searchsorted(sid, nodes)] = comp
    return sid, rep


def semantic_dedup(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    *,
    k: int = 8,
    iters: int = 5,
    threshold: float = 0.9,
    scale_bits: int = 20,
    seed: int = 0,
    qscale: int = 1 << 20,
    max_broadcast_rows: int = 1_000_000,
    max_edges: int = 50_000_000,
) -> "pd.DataFrame":
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-bucket the embedding space, then find
    near-duplicate pairs ONLY within each bucket (cosine ≥
    ``threshold``) and elect one representative — the MIN id of each
    within-cluster duplicate component — per semantic copy group.

    → DataFrame ``(vec_id, cluster, rep, is_dup)`` for every input row,
    sorted by vec_id; ``is_dup`` marks rows to drop (``rep`` keeps).

    The clustering is the scale trick: candidate-pair work falls from
    O(n²) to Σ|cluster|² while semantic copies still collide (near-dups
    share a nearest centroid). Buckets process as parallel Ray tasks.

    Determinism/parity: the fixed-point k-means assignment is
    bit-replayable (``similarity.kmeans``); the cosine predicate uses
    exact-integer quantized dots with the pinned double form
    ``dot / (sqrt(na)·sqrt(nb))`` (the dbscan recipe), and the
    representative is a min-label component readout — the DuckDB oracle
    replays clustering, predicate and components hash-exactly.

    This is the exact bounded variant (``max_broadcast_rows`` /
    ``max_edges`` guards with actionable errors); at corpus scale raise
    ``k`` so buckets stay bounded — the per-bucket cost is the square of
    the LARGEST bucket, not of the corpus.
    """
    import pandas as pd
    import ray as _ray

    _, assign = kmeans(ds, vec_col=vec_col, id_col=id_col, k=k,
                       iters=iters, scale_bits=scale_bits, seed=seed)
    n_rows = assign.count()
    if n_rows > max_broadcast_rows:
        raise ValueError(
            f"{n_rows:,} rows exceeds max_broadcast_rows="
            f"{max_broadcast_rows:,}; raise k and shard buckets, or "
            "block candidates first (embedding_near_dups/ivf_topk)."
        )
    adf = assign.to_pandas()

    def quantize(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        offs = col.offsets.to_numpy().astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
        lens = np.diff(offs)
        if len(lens) and (lens != lens[0]).any():
            raise ValueError("semantic_dedup needs equal-length vectors")
        d = int(lens[0]) if len(lens) else 0
        qv = np.floor(flat * float(qscale) + 0.5)
        qv = qv[offs[0]:offs[-1]] if len(offs) else qv[:0]
        return pa.table({
            "id": pc.cast(t[id_col], pa.int64()),
            "qv": pa.FixedSizeListArray.from_arrays(
                pa.array(qv.reshape(-1), pa.float64()), d
            ) if d else pa.nulls(len(t), pa.list_(pa.float64())),
        })

    qds = ds.map_batches(quantize, batch_format="pyarrow").materialize()
    tbls = [t for t in _ray.get(qds.to_arrow_refs()) if len(t)]
    if not tbls:
        return pd.DataFrame({
            "vec_id": pd.Series([], dtype="int64"),
            "cluster": pd.Series([], dtype="int64"),
            "rep": pd.Series([], dtype="int64"),
            "is_dup": pd.Series([], dtype="bool"),
        })
    cat = pa.concat_tables(tbls).combine_chunks()
    ids_all = cat["id"].to_numpy()
    n = len(ids_all)
    qcol = cat["qv"]
    qcol = qcol.chunk(0) if qcol.num_chunks == 1 else qcol.combine_chunks()
    dim = qcol.type.list_size
    qmat = qcol.values.to_numpy(zero_copy_only=False).reshape(n, dim)
    maxq = float(np.abs(qmat).max()) if qmat.size else 0.0
    if dim * maxq * maxq >= 2.0**53:
        raise ValueError(
            "quantized dot products would exceed float64's exact-integer "
            f"range (dim={dim}, max|q|={maxq:.0f}); lower qscale"
        )
    order = np.argsort(ids_all, kind="stable")
    sid, qmat = ids_all[order], qmat[order]
    if n > 1 and (sid[1:] == sid[:-1]).any():
        raise ValueError("semantic_dedup requires unique ids")
    cl_of = adf.set_index(adf[id_col].astype("int64"))["cluster"]
    cl = cl_of.reindex(sid).to_numpy(dtype=np.int64)

    futs = []
    for c in np.unique(cl):
        m = cl == c
        futs.append((int(c), _sem_cluster_reps.remote(
            sid[m], qmat[m], float(threshold), int(max_edges))))
    rep = np.empty(n, np.int64)
    for c, f in futs:
        cids, creps = _ray.get(f)
        rep[np.searchsorted(sid, cids)] = creps
    return pd.DataFrame({
        "vec_id": sid, "cluster": cl, "rep": rep,
        "is_dup": rep != sid,
    })
