"""Partitioned hash join built from groupby-shuffle primitives.

Ray Data's portable join pattern (the reference has no general join —
SURVEY.md §2.4 M4 — but the engine's clustering and copy-back stages need
one): tag both sides, union, `groupby(key)`, cross the sides inside each
group with vectorized take/repeat. Use `broadcast_lookup` instead when one
side fits in the object store — no shuffle at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from record_matcher_ray.core.exchange import bucket_exchange, bucket_ids

_J_SIDE = "__jside__"


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_on: str,
    right_on: str,
    how: str = "inner",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Equi-join; output columns = left columns + right columns (right key
    dropped; non-key right columns must not collide with left names).
    ``how``: "inner", "left", "right" or "full". For right/full joins the
    ``left_on`` output column carries the COALESCED join key (SQL
    ``USING(key)`` semantics) so right-only rows keep their key.

    Scale shape: the shuffle key is a ≤``n_buckets`` hash bucket — never the
    raw join key — so the per-group Python overhead is bounded by the bucket
    count (CLAUDE.md rule), and each bucket is joined in one vectorized
    Acero ``pa.Table.join`` call. Null join keys follow SQL semantics: they
    match nothing (inner drops them; left keeps the row null-padded).
    """
    from record_matcher_ray.pipelines.match import _arrow_schema

    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    lcols = list(lschema.names)
    rcols = [c for c in rschema.names if c != right_on]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"hash_join column collision: {overlap}")

    key_type = lschema.field(left_on).type
    fields = [(_J_SIDE, pa.int8()), ("__jkey__", key_type)]
    fields += [(c, lschema.field(c).type) for c in lcols]
    fields += [(c, rschema.field(c).type) for c in rcols]
    wire = pa.schema(fields)

    def prep_l(t: pa.Table) -> pa.Table:
        key = pc.cast(t[left_on], key_type).combine_chunks()
        cols = {_J_SIDE: pa.array(np.zeros(len(t), np.int8)),
                "__jkey__": key}
        for c in lcols:
            cols[c] = t[c].combine_chunks()
        for c in rcols:
            cols[c] = pa.nulls(len(t), wire.field(c).type)
        return pa.table({f.name: cols[f.name] for f in wire})

    def prep_r(t: pa.Table) -> pa.Table:
        key = pc.cast(t[right_on], key_type).combine_chunks()
        cols = {_J_SIDE: pa.array(np.ones(len(t), np.int8)),
                "__jkey__": key}
        for c in lcols:
            cols[c] = pa.nulls(len(t), wire.field(c).type)
        for c in rcols:
            cols[c] = t[c].combine_chunks()
        return pa.table({f.name: cols[f.name] for f in wire})

    tagged = [left.map_batches(prep_l, batch_format="pyarrow"),
              right.map_batches(prep_r, batch_format="pyarrow")]

    out_schema = pa.schema(
        [(c, lschema.field(c).type) for c in lcols]
        + [(c, rschema.field(c).type) for c in rcols]
    )
    out_names = [f.name for f in out_schema]
    join_types = {"inner": "inner", "left": "left outer",
                  "right": "right outer", "full": "full outer"}
    if how not in join_types:
        raise ValueError(f"how must be one of {sorted(join_types)}, got {how!r}")
    join_type = join_types[how]

    def bucket_join(t: pa.Table) -> pa.Table:
        # index join + gather: Acero joins only (key, row-ordinal) — then
        # payload columns are gathered by take(), so ANY column type
        # (lists, structs, binaries) rides through, and the join kernel
        # never copies wide payloads
        lmask = pc.equal(t[_J_SIDE], 0)
        lt = t.filter(lmask)
        rt = t.filter(pc.invert(lmask))
        if len(lt) == 0 and how in ("inner", "left"):
            return out_schema.empty_table()
        lix = pa.table(
            {"__jkey__": lt["__jkey__"],
             "__li__": pa.array(np.arange(len(lt), dtype=np.int64))}
        )
        rix = pa.table(
            {"__jkey__": rt["__jkey__"],
             "__ri__": pa.array(np.arange(len(rt), dtype=np.int64))}
        )
        j = lix.join(rix, keys="__jkey__", join_type=join_type)
        li, ri = j["__li__"].combine_chunks(), j["__ri__"].combine_chunks()
        cols = {}
        for c in lcols:
            cols[c] = pc.take(lt[c].combine_chunks(), li)
        for c in rcols:
            cols[c] = pc.take(rt[c].combine_chunks(), ri)
        if how in ("right", "full"):
            # Acero coalesces the key column across sides; surface it as
            # the left_on output column (USING-key semantics)
            cols[left_on] = pc.cast(j["__jkey__"].combine_chunks(), key_type)
        return pa.table({c: cols[c] for c in out_names}).cast(out_schema)

    return bucket_exchange(tagged, ["__jkey__"], bucket_join, n_buckets)


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_point: str,
    right_lo: str,
    right_hi: str,
    left_on: str | None = None,
    right_on: str | None = None,
    closed: str = "left",
    n_buckets: int = 256,
    bucket_width: float | None = None,
    max_bucket_pairs: int = 50_000_000,
) -> ray.data.Dataset:
    """Interval join: left rows whose ``left_point`` falls inside a right
    row's ``[right_lo, right_hi)`` interval (``closed``: "left" | "both").
    Output = left columns + right columns (right equi key dropped).

    Two scale shapes, picked by whether an equi key is given:

    - **equi + range** (``left_on``/``right_on`` set — the common shape,
      e.g. events within an order window OF THE SAME CUSTOMER): both sides
      shuffle once on a ≤``n_buckets`` HASH BUCKET of the equi key (never
      the raw key — CLAUDE.md rule), each bucket equi-joins in one
      vectorized Acero call and the range predicate filters the joined
      block. Fan-out is bounded by per-key row counts, as in any equi
      join.
    - **pure range** (no equi key): the POINT DOMAIN is cut into
      fixed-width buckets (``bucket_width``, required; pick ≈ the typical
      interval length), each interval is replicated into every bucket it
      overlaps and each point lives in exactly ONE bucket — so no output
      dedup is needed. Within a bucket the candidate cross product is
      masked vectorized; a bucket whose cross product would exceed
      ``max_bucket_pairs`` raises with guidance (shrink ``bucket_width``)
      instead of OOMing the worker.

    The reference has no joins at all (SURVEY.md §2.4 M4); this is an
    engine-mandate operator (brief: as-of / range join family).
    """
    if closed not in ("left", "both"):
        raise ValueError("closed must be 'left' or 'both'")
    if (left_on is None) != (right_on is None):
        raise ValueError("left_on and right_on must be given together")
    from record_matcher_ray.pipelines.match import _arrow_schema

    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    lcols = list(lschema.names)
    rcols = [c for c in rschema.names if c != right_on]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"range_join column collision: {overlap}")
    out_schema = pa.schema(
        [(c, lschema.field(c).type) for c in lcols]
        + [(c, rschema.field(c).type) for c in rcols]
    )
    out_names = [f.name for f in out_schema]
    cmp_hi = pc.less_equal if closed == "both" else pc.less

    if left_on is not None:
        key_type = lschema.field(left_on).type
        wire = pa.schema(
            [(_J_SIDE, pa.int8()), ("__jkey__", key_type)]
            + [(c, lschema.field(c).type) for c in lcols]
            + [(c, rschema.field(c).type) for c in rcols]
        )

        def prep(side: int, key_col: str, own: list[str], other: list[str]):
            def fn(t: pa.Table) -> pa.Table:
                key = pc.cast(t[key_col], key_type).combine_chunks()
                cols = {
                    _J_SIDE: pa.array(np.full(len(t), side, np.int8)),
                    "__jkey__": key,
                }
                for c in own:
                    cols[c] = t[c].combine_chunks()
                for c in other:
                    cols[c] = pa.nulls(len(t), wire.field(c).type)
                return pa.table({f.name: cols[f.name] for f in wire})

            return fn

        tagged = [
            left.map_batches(prep(0, left_on, lcols, rcols),
                             batch_format="pyarrow"),
            right.map_batches(prep(1, right_on, rcols, lcols),
                              batch_format="pyarrow"),
        ]

        def bucket_join(t: pa.Table) -> pa.Table:
            lmask = pc.equal(t[_J_SIDE], 0)
            lt = t.filter(lmask).select(["__jkey__"] + lcols)
            rt = t.filter(pc.invert(lmask)).select(["__jkey__"] + rcols)
            if len(lt) == 0 or len(rt) == 0:
                return out_schema.empty_table()
            j = lt.join(rt, keys="__jkey__", join_type="inner")
            mask = pc.and_kleene(
                pc.less_equal(j[right_lo], j[left_point]),
                cmp_hi(j[left_point], j[right_hi]),
            )
            out = j.filter(pc.fill_null(mask, False))
            return out.select(out_names).cast(out_schema)

        return bucket_exchange(tagged, ["__jkey__"], bucket_join, n_buckets)

    # ---- pure range: domain bucketing with interval replication ---------
    if bucket_width is None:
        raise ValueError(
            "range_join without an equi key needs bucket_width (domain "
            "bucket size; pick roughly the typical interval length)"
        )
    width = float(bucket_width)
    if width <= 0:
        raise ValueError("bucket_width must be positive")

    def _dom(vals: pa.ChunkedArray) -> np.ndarray:
        v = pc.cast(vals, pa.float64()).to_numpy(zero_copy_only=False)
        return np.floor(v / width).astype(np.int64)

    wire = pa.schema(
        [(_J_SIDE, pa.int8()), ("__jb__", pa.int64())]
        + [(c, lschema.field(c).type) for c in lcols]
        + [(c, rschema.field(c).type) for c in rcols]
    )

    def prep_pt(t: pa.Table) -> pa.Table:
        cols = {
            _J_SIDE: pa.array(np.zeros(len(t), np.int8)),
            "__jb__": pa.array(_dom(t[left_point])),
        }
        for c in lcols:
            cols[c] = t[c].combine_chunks()
        for c in rcols:
            cols[c] = pa.nulls(len(t), wire.field(c).type)
        return pa.table({f.name: cols[f.name] for f in wire})

    def prep_iv(t: pa.Table) -> pa.Table:
        lo_b = _dom(t[right_lo])
        hi_v = pc.cast(t[right_hi], pa.float64()).to_numpy(zero_copy_only=False)
        # last bucket the interval can touch (half-open: hi exactly on a
        # boundary does not reach the next bucket unless closed="both")
        hi_b = np.floor(hi_v / width).astype(np.int64)
        on_edge = hi_v == hi_b * width
        if closed == "left":
            hi_b = np.where(on_edge, hi_b - 1, hi_b)
        reps = np.maximum(hi_b - lo_b + 1, 0)
        idx = np.repeat(np.arange(len(t)), reps)
        within = np.arange(int(reps.sum())) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        rt = t.take(pa.array(idx))
        cols = {
            _J_SIDE: pa.array(np.ones(len(rt), np.int8)),
            "__jb__": pa.array(lo_b[idx] + within),
        }
        for c in lcols:
            cols[c] = pa.nulls(len(rt), wire.field(c).type)
        for c in rcols:
            cols[c] = rt[c].combine_chunks()
        return pa.table({f.name: cols[f.name] for f in wire})

    tagged = left.map_batches(prep_pt, batch_format="pyarrow").union(
        right.map_batches(prep_iv, batch_format="pyarrow")
    )

    def bucket_cross(t: pa.Table) -> pa.Table:
        lmask = pc.equal(t[_J_SIDE], 0)
        lt = t.filter(lmask).select(lcols)
        rt = t.filter(pc.invert(lmask)).select(rcols)
        nl, nr = len(lt), len(rt)
        if nl == 0 or nr == 0:
            return out_schema.empty_table()
        if nl * nr > max_bucket_pairs:
            raise ValueError(
                f"range_join domain bucket would form {nl * nr} candidate "
                f"pairs (> max_bucket_pairs={max_bucket_pairs}); shrink "
                f"bucket_width so fewer intervals/points co-bucket"
            )
        li = np.repeat(np.arange(nl), nr)
        ri = np.tile(np.arange(nr), nl)
        lv = pc.cast(lt[left_point], pa.float64()).to_numpy(
            zero_copy_only=False)[li]
        lo = pc.cast(rt[right_lo], pa.float64()).to_numpy(
            zero_copy_only=False)[ri]
        hi = pc.cast(rt[right_hi], pa.float64()).to_numpy(
            zero_copy_only=False)[ri]
        ok = (lo <= lv) & ((lv <= hi) if closed == "both" else (lv < hi))
        lt_k = lt.take(pa.array(li[ok]))
        rt_k = rt.take(pa.array(ri[ok]))
        cols = {c: lt_k[c] for c in lcols}
        cols.update({c: rt_k[c] for c in rcols})
        return pa.table({n: cols[n] for n in out_names}).cast(out_schema)

    return tagged.groupby("__jb__").map_groups(
        bucket_cross, batch_format="pyarrow"
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    by: str,
    left_on: str,
    right_on: str,
    direction: str = "backward",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """As-of join (most recent right row at or before each left row's
    ``left_on``, per ``by`` key): hash-bucket both sides on the key, one
    ``pd.merge_asof`` per bucket over the sorted bucket (the Ray-portable
    pattern for range/as-of joins). Non-key column names must be disjoint."""
    from record_matcher_ray.core.hashkernels import column_hash64
    from record_matcher_ray.pipelines.match import _arrow_schema

    lschema = _arrow_schema(left)
    rschema = _arrow_schema(right)
    lcols = list(lschema.names)
    rcols = list(rschema.names)
    overlap = (set(lcols) - {by}) & (set(rcols) - {by})
    if overlap:
        raise ValueError(f"asof_join column collision: {overlap}")

    # explicit combined wire schema (r3: the tag stage is pyarrow — the r2
    # pandas tag paid a per-batch Arrow→pandas copy; pd.merge_asof remains
    # the per-bucket kernel below, which is where pandas earns its copy)
    by_type = lschema.field(by).type
    fields = [("__aside__", pa.int8()), ("__ab__", pa.int64())]
    fields += [(c, lschema.field(c).type) for c in lcols]
    fields += [(c, rschema.field(c).type) for c in rcols if c != by]
    wire = pa.schema(fields)

    def tag(side, own_schema, own_cols):
        def fn(t: pa.Table) -> pa.Table:
            key = pc.cast(t[by], by_type)
            cols = {
                "__aside__": pa.array(np.full(len(t), side, np.int8)),
                "__ab__": pa.array(
                    bucket_ids(column_hash64(key), n_buckets)),
            }
            for f in wire:
                if f.name in cols:
                    continue
                if f.name == by:
                    cols[by] = key.combine_chunks() if isinstance(
                        key, pa.ChunkedArray) else key
                elif f.name in own_cols:
                    cols[f.name] = pc.cast(t[f.name], f.type).combine_chunks()
                else:
                    cols[f.name] = pa.nulls(len(t), f.type)
            return pa.table({f.name: cols[f.name] for f in wire})

        return fn

    lt = left.map_batches(tag(0, lschema, set(lcols)), batch_format="pyarrow")
    rt = right.map_batches(tag(1, rschema, set(rcols)), batch_format="pyarrow")

    # build the union frame with both sides' columns (missing → NaN)
    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__aside__"] == 0][lcols + ["__ab__"]].drop(columns="__ab__")
        r = df[df["__aside__"] == 1][rcols]
        l = l.sort_values(left_on, kind="stable")
        r = r.sort_values(right_on, kind="stable")
        if len(l) == 0:
            return pd.DataFrame(columns=lcols + [c for c in rcols if c != by])
        out = pd.merge_asof(
            l, r, by=by, left_on=left_on, right_on=right_on, direction=direction
        )
        return out

    return lt.union(rt).groupby("__ab__").map_groups(
        merge_bucket, batch_format="pandas"
    )


def semi_join(
    ds: ray.data.Dataset,
    keys: ray.data.Dataset | "pd.Series",
    on: str,
    key_col: str | None = None,
    anti: bool = False,
    max_broadcast_rows: int = 20_000_000,
) -> ray.data.Dataset:
    """Semi / anti join: broadcast the key SET once (`ray.put`) and filter
    inside map_batches — no shuffle (ray_guide "Joins and lookups"). The
    key side must fit in the object store: collecting more than
    ``max_broadcast_rows`` raises with guidance instead of OOMing the
    driver — route big key sides through :func:`hash_join` (semi via
    inner-join + distinct) or a Bloom filter."""
    if isinstance(keys, ray.data.Dataset):
        try:
            kdf = keys.to_pandas(limit=max_broadcast_rows)
        except ValueError as ex:
            raise ValueError(
                f"semi_join key side exceeds max_broadcast_rows="
                f"{max_broadcast_rows}; it cannot be broadcast safely. "
                f"Use hash_join on the key (then distinct) or raise the cap "
                f"explicitly if the driver has headroom."
            ) from ex
        key_values = sorted(set(kdf[key_col or on].tolist()))
    else:
        key_values = sorted(set(keys.tolist()))
    # an Arrow array in the object store is read zero-copy by every task
    ref = ray.put(pa.array(key_values))

    def flt(t: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.is_in(t[on], value_set=ks)
        if anti:
            mask = pc.invert(mask)
        return t.filter(mask)

    return ds.map_batches(flt, batch_format="pyarrow")


def broadcast_lookup(
    ds: ray.data.Dataset,
    small: ray.data.Dataset | pd.DataFrame,
    left_on: str,
    right_on: str,
    columns: list[str] | None = None,
    how: str = "left",
    max_broadcast_rows: int = 5_000_000,
) -> ray.data.Dataset:
    """Broadcast join: collect the small side ONCE into the object store
    (``ray.put``) and merge per batch — the no-shuffle path for dimension
    tables (ray_guide "Joins and lookups"). A small side larger than
    ``max_broadcast_rows`` raises with guidance (use :func:`hash_join`)
    instead of OOMing the driver."""
    if isinstance(small, ray.data.Dataset):
        try:
            sdf = small.to_pandas(limit=max_broadcast_rows)
        except ValueError as ex:
            raise ValueError(
                f"broadcast_lookup small side exceeds max_broadcast_rows="
                f"{max_broadcast_rows}; broadcast would OOM the driver. "
                f"Use hash_join for a large right side, or raise the cap "
                f"explicitly if the driver has headroom."
            ) from ex
    else:
        sdf = small
    if columns is not None:
        sdf = sdf[[right_on] + [c for c in columns if c != right_on]]
    ref = ray.put(sdf)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(ref)
        return df.merge(s, how=how, left_on=left_on, right_on=right_on)

    return ds.map_batches(merge, batch_format="pandas")


def bloom_semi_join(
    ds: ray.data.Dataset,
    keys: ray.data.Dataset,
    on: str,
    key_col: str | None = None,
    *,
    bits_log2: int = 22,
    k: int = 6,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """EXACT semi join for key sides too large to broadcast raw (the
    :func:`semi_join` cap): (1) each key block folds into a fixed-size
    Bloom partial — ``2**bits_log2`` bits regardless of key cardinality —
    merged by bitwise OR (order-invariant); (2) the merged bitset is
    broadcast once; (3) the big side streams through the membership
    prefilter with zero shuffle (no false negatives); (4) the surviving
    superset (~fp-rate extra rows) is verified exactly by a bucketed
    :func:`hash_join` against the DISTINCT key set. The Bloom pass shrinks
    the verify exchange to survivors only — at 100 TB that is the
    difference between shuffling the whole corpus and shuffling the hits.
    """
    from record_matcher_ray.core.hashkernels import column_hash64
    from record_matcher_ray.functions.sketches import BloomFilter

    key_col = key_col or on

    def bloom_partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(bits_log2, k)
        bf.add_hashes(column_hash64(t[key_col]))
        return pa.table(
            {"words": pa.array([bf.words], pa.list_(pa.uint64()))}
        )

    merged = BloomFilter(bits_log2, k)
    for b in keys.map_batches(
        bloom_partial, batch_format="pyarrow"
    ).iter_batches(batch_size=64, batch_format="pyarrow"):
        col = b["words"]
        for i in range(len(col)):
            merged.words |= np.asarray(col[i].as_py(), dtype=np.uint64)
    words_ref = ray.put(merged.words)

    def prefilter(t: pa.Table) -> pa.Table:
        bf = BloomFilter(bits_log2, k)
        bf.words = ray.get(words_ref)
        return t.filter(pa.array(bf.contains(column_hash64(t[on]))))

    survivors = ds.map_batches(prefilter, batch_format="pyarrow")

    # distinct key values via a bounded-bucket exchange (never groupby the
    # raw key), then an exact bucketed hash_join over the small superset
    def uniq(t: pa.Table) -> pa.Table:
        col = t[key_col]
        u = pc.unique(col.combine_chunks() if isinstance(
            col, pa.ChunkedArray) else col)
        return pa.table({"__key__": u})

    distinct_keys = bucket_exchange(
        keys.select_columns([key_col]), [key_col], uniq, n_buckets
    )
    return hash_join(survivors, distinct_keys, on, "__key__",
                     how="inner", n_buckets=n_buckets)


def estimate_join_cardinality(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    *,
    n_buckets: int = 256,
) -> "pd.DataFrame":
    """EXACT equi-join output cardinality WITHOUT running the join — the
    pre-flight a 100-TB pipeline runs before committing to an exchange
    (a skewed key can make |A ⋈ B| quadratic while both inputs look
    innocent): Σ_k cL(k)·cR(k) over shared keys → one row
    (n_left, n_right, n_shared_keys, join_rows, max_key_rows) where
    max_key_rows is the largest single key's contribution (the skew
    reading).

    Scale shape: per-block per-key count partials (bounded by each
    block's distinct keys, raw rows never shuffle), one ≤``n_buckets``
    key-hash exchange co-locating both sides' counts, per-bucket exact
    integer products — output is five numbers. The DuckDB GROUP BY +
    join replay is hash-exact."""
    import pandas as pd

    def counts(side: int, on: str):
        def fn(t: pa.Table) -> pa.Table:
            import pandas as _pd

            col = t[on]
            valid = pc.is_valid(col)
            col = col.filter(valid)
            k = pc.cast(col, pa.string())
            codes, uniq = _pd.factorize(
                k.to_numpy(zero_copy_only=False))
            cnt = np.bincount(codes).astype(np.int64)
            ua = pa.array(np.asarray(uniq, object), pa.string())
            return pa.table({
                "k": ua, "c": pa.array(cnt),
                "side": pa.array(np.full(len(cnt), side, np.int8)),
            })

        return fn

    both = [left.map_batches(counts(0, left_on), batch_format="pyarrow"),
            right.map_batches(counts(1, right_on), batch_format="pyarrow")]

    def reduce_bucket(t: pa.Table) -> pa.Table:
        import pandas as _pd

        k = t["k"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy()
        side = t["side"].to_numpy()
        codes, _u = _pd.factorize(k)
        cl = np.bincount(codes, weights=np.where(side == 0, c, 0)
                         ).astype(np.int64)
        cr = np.bincount(codes, weights=np.where(side == 1, c, 0)
                         ).astype(np.int64)
        prod = [int(a) * int(b) for a, b in zip(cl, cr)]
        shared = sum(1 for p in prod if p > 0)
        return pa.table({
            "nl": pa.array([int(cl.sum())], pa.int64()),
            "nr": pa.array([int(cr.sum())], pa.int64()),
            "shared": pa.array([shared], pa.int64()),
            "rows": pa.array([str(sum(prod))], pa.string()),  # exact big int
            "mx": pa.array([max(prod) if prod else 0], pa.int64()),
        })

    parts = bucket_exchange(both, ["k"], reduce_bucket, n_buckets).to_pandas()
    if parts.empty:
        return pd.DataFrame({"n_left": [0], "n_right": [0],
                             "n_shared_keys": [0], "join_rows": [0],
                             "max_key_rows": [0]})
    return pd.DataFrame({
        "n_left": [int(parts["nl"].sum())],
        "n_right": [int(parts["nr"].sum())],
        "n_shared_keys": [int(parts["shared"].sum())],
        "join_rows": [sum(int(v) for v in parts["rows"])],
        "max_key_rows": [int(parts["mx"].max())],
    })
