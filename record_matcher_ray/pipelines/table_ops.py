"""Distributed Dataset equivalents of the reference's records utilities
(O1-O5 in SURVEY.md §2.1), built streaming-first:

- no driver-side row loops — every operator is `map_batches` (Arrow) or a
  `groupby` shuffle over pre-reduced partials;
- uniqueness runs one pass over the data emitting per-batch distinct pairs,
  then two tiny shuffles over the deduplicated partials.

Blank semantics: null or "" ⇒ blank (SURVEY.md §1.4; the reference's falsy
test on raw values, records.py:66).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from record_matcher_ray.core.exchange import bucket_exchange, bucket_ids


def column_names(ds: ray.data.Dataset) -> set[str]:
    """O1 — schema inference; free with Arrow (records.py:33-46)."""
    return set(ds.schema().names)


def _non_blank(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    s = pc.cast(col, pa.string())
    return pc.and_kleene(pc.is_valid(s), pc.not_equal(s, ""))


def uniqueness(ds: ray.data.Dataset, columns: list[str], total: int | None = None) -> dict[str, float]:
    """O2 for many columns in one data pass: per-column distinct-ratio
    ``len({v non-blank}) / len(rows)`` (records.py:49-67 — denominator
    counts all rows).

    Scale shape: one streaming pass emits per-batch distinct (column, value)
    pairs; a groupby dedupes pairs; a second tiny groupby counts distincts
    per column. The shuffles move only already-deduplicated partials.
    """
    if total is None:
        total = ds.count()
    if total == 0:
        return {c: 0.0 for c in columns}
    present = [c for c in columns if c in ds.schema().names]

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        cols, vals = [], []
        for c in present:
            s = pc.cast(batch[c], pa.string())
            mask = pc.and_kleene(pc.is_valid(s), pc.not_equal(s, ""))
            u = pc.unique(s.filter(mask))
            cols.append(pa.array([c] * len(u), pa.string()))
            vals.append(u.combine_chunks() if isinstance(u, pa.ChunkedArray) else u)
        return pa.table(
            {
                "c": pa.concat_arrays(cols) if cols else pa.array([], pa.string()),
                "v": pa.concat_arrays([v.cast(pa.string()) for v in vals])
                if vals
                else pa.array([], pa.string()),
            }
        )

    out: dict[str, float] = {c: 0.0 for c in columns}
    if present:
        if total <= 5_000_000:
            # low-latency path: per-batch distinct partials merged on the
            # driver (one pass, no shuffle rounds); partials are bounded by
            # the true cardinality per batch
            partials = ds.map_batches(
                distinct_pairs, batch_format="pyarrow"
            ).to_pandas()
            g = partials.groupby("c")["v"].nunique()
            for c, n in g.items():
                out[c] = n / total
        else:
            # scale path: dedupe pairs with a shuffle, then count per column
            counts = (
                ds.map_batches(distinct_pairs, batch_format="pyarrow")
                .groupby(["c", "v"])
                .count()
                .groupby("c")
                .count()
                .to_pandas()
            )
            for _, row in counts.iterrows():
                out[row["c"]] = row["count()"] / total
    return out


def uniqueness_by_column(ds: ray.data.Dataset, column: str) -> float:
    return uniqueness(ds, [column])[column]


def approx_uniqueness(
    ds: ray.data.Dataset, columns: list[str], total: int | None = None, p: int = 12
) -> dict[str, float]:
    """O2 at unbounded scale: per-column HLL sketches, one per batch,
    merged in a tiny final reduce — no shuffle at all, ~1.6% standard
    error at p=12. Use when exact distinct partials would be too large."""
    from record_matcher_ray.functions.sketches import HyperLogLog

    if total is None:
        total = ds.count()
    if total == 0:
        return {c: 0.0 for c in columns}
    present = [c for c in columns if c in ds.schema().names]

    def sketch_batch(batch: pa.Table) -> pa.Table:
        from record_matcher_ray.functions.sketches import string_hashes64

        out_c, out_b = [], []
        for c in present:
            s = pc.cast(batch[c], pa.string())
            mask = pc.and_kleene(pc.is_valid(s), pc.not_equal(s, ""))
            h = HyperLogLog(p)
            h.add_hashes(string_hashes64(s.filter(mask)))
            out_c.append(c)
            out_b.append(h.to_bytes())
        return pa.table(
            {"c": pa.array(out_c, pa.string()), "sk": pa.array(out_b, pa.binary())}
        )

    merged: dict[str, "HyperLogLog"] = {}
    for b in ds.map_batches(sketch_batch, batch_format="pyarrow").iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        for c, sk in zip(b["c"].to_pylist(), b["sk"].to_pylist()):
            h = HyperLogLog.from_bytes(sk, p)
            merged[c] = merged[c].merge(h) if c in merged else h
    out = {c: 0.0 for c in columns}
    for c, h in merged.items():
        out[c] = min(h.cardinality() / total, 1.0)
    return out


def filter_by_quantile(
    ds: ray.data.Dataset,
    value_col: str,
    q_lo: float = 0.0,
    q_hi: float = 1.0,
    group_cols: list[str] | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Keep rows whose ``value_col`` lies inside the exact
    [``q_lo``, ``q_hi``] quantile band — globally or per group. The
    quality-curation primitive (drop the bottom decile of quality
    scores, trim the top 1% length outliers per source, ...).

    Two passes: (1) exact interpolated thresholds via
    ``grouped_quantiles`` (bounded-bucket exchange; thresholds rounded to
    6 decimals so the boundary decision is deterministic across numpy /
    SQL ulp differences), (2) thresholds broadcast as a tiny dict and
    applied in a zero-shuffle vectorized filter pass. Global mode
    funnels the threshold pass through one bucket (the documented
    grouped_quantiles exactness constraint) — at unbounded scale prefer
    grouped mode or a histogram-sketch threshold."""
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError(f"need 0 <= q_lo <= q_hi <= 1, got {q_lo}, {q_hi}")
    gcols = list(group_cols or [])
    if gcols:
        thr_ds = grouped_quantiles(
            ds, gcols, value_col, qs=(q_lo, q_hi), n_buckets=n_buckets
        )
    else:
        with_all = ds.map_batches(
            lambda t: t.append_column(
                "__all__", pa.array(np.zeros(len(t), np.int64))
            ),
            batch_format="pyarrow",
        )
        thr_ds = grouped_quantiles(
            with_all, ["__all__"], value_col, qs=(q_lo, q_hi), n_buckets=1
        )
    lo_name = f"q_{int(round(q_lo * 100))}"
    hi_name = f"q_{int(round(q_hi * 100))}"
    thr = thr_ds.to_pandas()  # one row per group — tiny
    if len(thr) == 0:  # empty input: nothing to keep (no thresholds)
        return ds.filter(lambda _row: False)
    if lo_name == hi_name:  # q_lo == q_hi after pct rounding
        hi_vals = lo_vals = thr[lo_name].to_numpy(np.float64)
    else:
        lo_vals = thr[lo_name].to_numpy(np.float64)
        hi_vals = thr[hi_name].to_numpy(np.float64)
    if gcols:
        keys = [
            "\x1f".join(vals)
            for vals in zip(*[thr[c].astype(str).to_numpy() for c in gcols])
        ]
        table = {k: (lo, hi) for k, lo, hi in zip(keys, lo_vals, hi_vals)}
    else:
        table = {"": (float(lo_vals[0]), float(hi_vals[0]))}

    import ray as _ray

    thr_ref = _ray.put(table)

    def keep(t: pa.Table) -> pa.Table:
        tbl = _ray.get(thr_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if gcols:
            joined = pc.binary_join_element_wise(
                *[pc.cast(t[c], pa.string()) for c in gcols], "\x1f"
            ).to_numpy(zero_copy_only=False)
            # per-batch lookup vectorized over UNIQUE keys (few per group)
            codes, uniques = pd.factorize(joined, sort=False)
            lo_u = np.empty(len(uniques))
            hi_u = np.empty(len(uniques))
            for ui, key in enumerate(uniques):
                lo_u[ui], hi_u[ui] = tbl.get(key, (np.inf, -np.inf))
            lo, hi = lo_u[codes], hi_u[codes]
        else:
            lo, hi = tbl[""]
        mask = (v >= lo) & (v <= hi)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def winsorize_by_quantile(
    ds: ray.data.Dataset,
    value_col: str,
    q_lo: float = 0.01,
    q_hi: float = 0.99,
    group_cols: list[str] | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Clip instead of drop: values outside the exact [``q_lo``, ``q_hi``]
    quantile band are clamped to the band edge — the outlier-taming twin
    of :func:`filter_by_quantile` (cap the top 1% lengths per source
    without losing the rows). Same two-pass scale shape: exact
    interpolated thresholds via :func:`grouped_quantiles` (bounded-bucket
    exchange, rounded to 6 decimals so the clamp decision is
    deterministic), broadcast as a tiny dict, then one zero-shuffle
    vectorized clip pass. ``value_col`` is replaced in place (float64).
    """
    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError(f"need 0 <= q_lo <= q_hi <= 1, got {q_lo}, {q_hi}")
    gcols = list(group_cols or [])
    if gcols:
        thr_ds = grouped_quantiles(
            ds, gcols, value_col, qs=(q_lo, q_hi), n_buckets=n_buckets
        )
    else:
        with_all = ds.map_batches(
            lambda t: t.append_column(
                "__all__", pa.array(np.zeros(len(t), np.int64))
            ),
            batch_format="pyarrow",
        )
        thr_ds = grouped_quantiles(
            with_all, ["__all__"], value_col, qs=(q_lo, q_hi), n_buckets=1
        )
    lo_name = f"q_{int(round(q_lo * 100))}"
    hi_name = f"q_{int(round(q_hi * 100))}"
    thr = thr_ds.to_pandas()  # one row per group — tiny
    if len(thr) == 0:
        return ds
    if lo_name == hi_name:
        hi_vals = lo_vals = thr[lo_name].to_numpy(np.float64)
    else:
        lo_vals = thr[lo_name].to_numpy(np.float64)
        hi_vals = thr[hi_name].to_numpy(np.float64)
    if gcols:
        keys = [
            "\x1f".join(vals)
            for vals in zip(*[thr[c].astype(str).to_numpy() for c in gcols])
        ]
        table = {k: (lo, hi) for k, lo, hi in zip(keys, lo_vals, hi_vals)}
    else:
        table = {"": (float(lo_vals[0]), float(hi_vals[0]))}

    import ray as _ray

    thr_ref = _ray.put(table)

    def clip(t: pa.Table) -> pa.Table:
        tbl = _ray.get(thr_ref)
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if gcols:
            joined = pc.binary_join_element_wise(
                *[pc.cast(t[c], pa.string()) for c in gcols], "\x1f"
            ).to_numpy(zero_copy_only=False)
            codes, uniques = pd.factorize(joined, sort=False)
            lo_u = np.empty(len(uniques))
            hi_u = np.empty(len(uniques))
            for ui, key in enumerate(uniques):
                lo_u[ui], hi_u[ui] = tbl.get(key, (-np.inf, np.inf))
            lo, hi = lo_u[codes], hi_u[codes]
        else:
            lo, hi = tbl[""]
        out = np.minimum(np.maximum(v, lo), hi)
        i = t.schema.get_field_index(value_col)
        return t.set_column(i, value_col, pa.array(out, pa.float64()))

    return ds.map_batches(clip, batch_format="pyarrow")


def group_by(ds: ray.data.Dataset, column_map: dict[str, str]) -> ray.data.Dataset:
    """O4 — conjunctive equality filter (records.py:106-132): keep rows where
    each column equals the given literal; missing column ⇒ "" semantics.
    A vectorized pushed-down filter — no shuffle."""
    if not column_map:
        return ds
    schema_names = set(ds.schema().names)

    def flt(batch: pa.Table) -> pa.Table:
        mask = None
        for col, value in column_map.items():
            if col in schema_names:
                s = pc.fill_null(pc.cast(batch[col], pa.string()), "")
                m = pc.equal(s, str(value) if value is not None else "")
            else:
                keep = value == "" or value is None
                m = pa.array([keep] * len(batch), pa.bool_())
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask)

    return ds.map_batches(flt, batch_format="pyarrow")


def duplicated_by_column(
    ds: ray.data.Dataset, column: str, n_buckets: int = 256
) -> ray.data.Dataset:
    """O5 — rows whose non-blank value in ``column`` occurs more than once
    (records.py:135-153).

    Scale shape: the shuffle key is a ≤``n_buckets`` hash bucket of the
    value — never the raw (potentially billion-cardinality) column — and
    each bucket resolves duplicate groups in one vectorized pass
    (value_counts), per the CLAUDE.md per-group-overhead rule."""

    def add_bucket(t: pa.Table) -> pa.Table:
        from record_matcher_ray.core.hashkernels import column_hash64

        b = bucket_ids(column_hash64(t[column]), n_buckets)
        return t.append_column("__db__", pa.array(b))

    def keep_dups(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[column]
        blank = vals.isna() | (vals.astype(str) == "")
        counts = vals.map(vals.value_counts())
        keep = (~blank) & (counts > 1)
        return df.loc[keep].drop(columns="__db__")

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__db__")
        .map_groups(keep_dups, batch_format="pandas")
    )


def adjusted_uniqueness(
    selected_columns: list[str], uniqueness_vector: dict[str, float]
) -> dict[str, float]:
    """O3 — driver-side weight renormalization (records.py:70-103)."""
    sel = {c: u for c, u in uniqueness_vector.items() if c in set(selected_columns)}
    total = sum(sel.values())
    return {c: u / total for c, u in sel.items() if total > 0}


def grouped_quantiles(
    ds: ray.data.Dataset,
    group_cols: list[str],
    value_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Exact per-group quantiles (numpy/DuckDB ``quantile_cont`` linear
    interpolation) → one row per group: (group_cols..., q_<pct>...).

    Scale shape: the shuffle key is a hash BUCKET of the group key (≤
    ``n_buckets``), never the raw group column; inside a bucket all of its
    groups are resolved in one vectorized pass (lexsort + boundary scan +
    interpolated gather — no per-group Python). Exactness requires each
    bucket's rows to fit one worker; for unbounded value streams use a
    mergeable histogram sketch instead (functions/sketches.py pattern).
    """
    if not group_cols:
        raise ValueError("group_cols must be non-empty")
    qs = tuple(float(q) for q in qs)
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")

    def add_bucket(t: pa.Table) -> pa.Table:
        # r3: per-column numpy hashes folded with splitmix64 — the r2 form
        # ran a PER-ROW Python "\x1f".join over the group tuple
        from record_matcher_ray.core.hashkernels import column_hash64, mix64

        h = np.zeros(len(t), np.uint64)
        with np.errstate(over="ignore"):
            for c in group_cols:
                h = mix64(
                    h * np.uint64(0x9E3779B97F4A7C15) ^ column_hash64(t[c])
                )
        return t.append_column("__qb__", pa.array(bucket_ids(h, n_buckets)))

    def bucket_quantiles(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[value_col].to_numpy(dtype=np.float64)
        codes, _ = pd.factorize(
            df[group_cols].astype(str).agg("\x1f".join, axis=1).to_numpy()
        )
        order = np.lexsort((vals, codes))
        c_s, v_s = codes[order], vals[order]
        bounds = np.concatenate(
            [[0], np.nonzero(c_s[1:] != c_s[:-1])[0] + 1, [len(c_s)]]
        )
        starts, ends = bounds[:-1], bounds[1:]
        n = (ends - starts).astype(np.float64)
        first_row = df.iloc[order[starts]][group_cols].reset_index(drop=True)
        out = {c: first_row[c] for c in group_cols}
        for q in qs:
            pos = starts + q * (n - 1)
            lo = np.floor(pos).astype(np.int64)
            hi = np.minimum(lo + 1, ends - 1)
            frac = pos - lo
            out[f"q_{int(round(q * 100))}"] = np.round(
                v_s[lo] * (1 - frac) + v_s[hi] * frac, 6
            )
        return pd.DataFrame(out)

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__qb__")
        .map_groups(bucket_quantiles, batch_format="pandas")
    )


def latest_by_key(
    ds: ray.data.Dataset,
    key_cols: str | list[str],
    order_col: str,
    tie_col: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """CDC / upsert compaction: keep, per key, the single row with the
    maximum ``order_col`` (latest version), ties broken by maximum
    ``tie_col``. Deterministic iff (order, tie) is unique per key — pass a
    unique row id as ``tie_col`` when versions can collide.

    Scale shape: each input block is pre-reduced LOCALLY to one winner per
    key (vectorized lexsort + group-boundary scan — no per-key Python)
    BEFORE the exchange, so at most one row per (key, block) rides the
    shuffle regardless of how many stale versions a block holds. The
    shuffle key is a ≤``n_buckets`` hash bucket of the key tuple — never
    the raw (potentially billion-cardinality) key — and each bucket
    re-runs the same vectorized winner pass over its pre-reduced rows.
    """
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    if not key_cols:
        raise ValueError("key_cols must be non-empty")

    def winners(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        kcodes = [
            pd.factorize(t[c].to_numpy(zero_copy_only=False))[0]
            for c in key_cols
        ]
        sort_keys: list[np.ndarray] = []
        if tie_col is not None:
            sort_keys.append(t[tie_col].to_numpy(zero_copy_only=False))
        sort_keys.append(t[order_col].to_numpy(zero_copy_only=False))
        sort_keys.extend(kcodes)  # last key is primary in np.lexsort
        idx = np.lexsort(tuple(sort_keys))
        diff = np.zeros(len(idx) - 1, bool)
        for kc in kcodes:
            s = kc[idx]
            diff |= s[1:] != s[:-1]
        last = np.concatenate([diff, [True]])  # max (order, tie) per key
        return t.take(pa.array(idx[last]))

    return bucket_exchange(
        ds.map_batches(winners, batch_format="pyarrow"), key_cols, winners,
        n_buckets,
    )


def snapshot_diff(
    old_ds: ray.data.Dataset,
    new_ds: ray.data.Dataset,
    id_col: str = "doc_id",
    content_col: str = "text",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Incremental corpus diff between two snapshots → one row per id:
    (id_col, status ∈ {added, removed, changed, unchanged}) — the
    what-changed pass an iterative 100-TB ingest runs before reprocessing.

    Scale shape: content is hashed LOCALLY (mix64-finalized 64-bit) and
    dropped before the exchange, so only (id, hash, side) ≈ 17 B/row ride
    the shuffle regardless of document size; the shuffle key is a
    ≤``n_buckets`` hash bucket of the id, and each bucket resolves all its
    ids in one vectorized pass. Hash equality stands in for content
    equality (collision odds ~n²/2⁶⁵ — the same contract as exact_dedup).
    Ids must be unique per snapshot; duplicates are represented by their
    min content hash (deterministic).
    """
    from record_matcher_ray.core.hashkernels import column_hash64

    def prep(side: int):
        def f(t: pa.Table) -> pa.Table:
            h = column_hash64(t[content_col]).view(np.int64)
            return pa.table(
                {id_col: t[id_col],
                 "__h__": pa.array(h),
                 "__side__": pa.array(
                     np.full(len(t), side, dtype=np.int64))}
            )

        return f

    u = [old_ds.map_batches(prep(0), batch_format="pyarrow"),
         new_ds.map_batches(prep(1), batch_format="pyarrow")]

    _STATUS = np.array(["added", "removed", "changed", "unchanged"],
                       dtype=object)

    def resolve(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        codes, _ = pd.factorize(ids.to_numpy(zero_copy_only=False))
        side = t["__side__"].to_numpy()
        h = t["__h__"].to_numpy()
        key = codes.astype(np.int64) * 2 + side
        order = np.lexsort((h, key))
        k_s = key[order]
        first = np.concatenate(([True], k_s[1:] != k_s[:-1]))
        sel = order[first]  # one row per (id, side), min hash
        n = int(codes.max()) + 1
        has = np.zeros((n, 2), dtype=bool)
        hv = np.zeros((n, 2), dtype=np.int64)
        has[key[sel] // 2, key[sel] % 2] = True
        hv[key[sel] // 2, key[sel] % 2] = h[sel]
        st = np.where(
            ~has[:, 0], 0,
            np.where(~has[:, 1], 1,
                     np.where(hv[:, 0] == hv[:, 1], 3, 2)),
        )
        _, rep = np.unique(codes, return_index=True)
        return pa.table(
            {id_col: ids.take(pa.array(rep)),
             "status": pa.array(_STATUS[st], pa.string())}
        )

    return bucket_exchange(u, [id_col], resolve, n_buckets)


def distinct_count_by(
    ds: ray.data.Dataset, group_col: str, val_col: str
) -> ray.data.Dataset:
    """EXACT distinct-value count per group → rows (group_col,
    n_distinct) — ``count(DISTINCT val) GROUP BY group`` semantics, the
    audience/cardinality primitive where HLL's ~1% error won't do.

    Scale shape: each block first reduces to its DISTINCT (group, val)
    pairs (an Arrow group_by — the partial is bounded by the block's
    pair vocabulary, not its row count), one ``groupby((group, val))``
    exchange dedupes globally, and the count-per-group is a second tiny
    exchange over one row per distinct pair. Raw duplicate rows never
    cross the wire; skew lives in the pair shuffle, which hashes on the
    composite key so hot groups still spread."""

    def pairs(t: pa.Table) -> pa.Table:
        return t.select([group_col, val_col]).group_by(
            [group_col, val_col]
        ).aggregate([])

    dedup = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby([group_col, val_col])
        .count()
        .drop_columns(["count()"])
    )
    out = dedup.groupby(group_col).count()

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([group_col, "n_distinct"])

    return out.map_batches(rename, batch_format="pyarrow")


def histogram(
    ds: ray.data.Dataset,
    val_col: str,
    width_cents: int,
    cents_scale: float = 100.0,
) -> ray.data.Dataset:
    """Fixed-width histogram of a numeric column → rows (bin, lo, n):
    bin = floor(quantized_value / width_cents) (floor semantics — the
    DuckDB oracle emulates `//` truncation to floor with a CASE),
    ``lo`` the bin's inclusive lower edge in original units (one
    pinned-order double division). Empty bins are absent.

    Scale shape: one streaming pass; each block reduces to (bin, n)
    partials via bincount over its own bin range, and a tiny
    ``groupby(bin)`` merges them — exchange volume is bounded by the
    number of OCCUPIED bins per block, never rows."""
    if width_cents <= 0:
        raise ValueError(f"width_cents must be positive, got {width_cents}")
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        if len(c) == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        b = c // width_cents  # numpy // floors (matches Python)
        lo_b = b.min()
        cnt = np.bincount(b - lo_b)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {"bin": pa.array(nz + lo_b),
             "n": pa.array(cnt[nz].astype(np.int64))}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
    )

    def edges(t: pa.Table) -> pa.Table:
        b = t["bin"].to_numpy()
        lo = np.round(
            (b * width_cents).astype(np.float64) / cents_scale, 6
        )
        return pa.table({"bin": t["bin"], "lo": pa.array(lo),
                         "n": t["n"]})

    return agg.map_batches(edges, batch_format="pyarrow")


def mode_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Most frequent value per group → rows (group_col, mode_val,
    n_mode), ties broken by the SMALLEST value (binary/codepoint order —
    identical in numpy and DuckDB, so the row_number() oracle replays
    exactly). The categorical-imputation / dominant-label primitive.

    Scale shape: each block pre-reduces to its (group, val, n) counts
    (factorize + bincount — raw rows never shuffle), the exchange key is
    a ≤``n_buckets`` hash bucket of the group, and inside a bucket one
    lexsort merges partial counts and picks every group's winner
    vectorized.
    """
    from record_matcher_ray.core.hashkernels import column_hash64

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {group_col: t[group_col], val_col: t[val_col],
                 "n": pa.array([], pa.int64()),
                 "__mb__": pa.array([], pa.int64())}
            )
        gc, gu = pd.factorize(t[group_col].to_numpy(zero_copy_only=False))
        vc, vu = pd.factorize(t[val_col].to_numpy(zero_copy_only=False))
        key = gc.astype(np.int64) * len(vu) + vc
        uk, n = np.unique(key, return_counts=True)
        gi = (uk // len(vu)).astype(np.int64)
        vi = (uk % len(vu)).astype(np.int64)
        bucket = bucket_ids(
            column_hash64(pa.chunked_array([pa.array(gu)])), n_buckets
        )
        return pa.table(
            {group_col: pa.array(gu).take(pa.array(gi)),
             val_col: pa.array(vu).take(pa.array(vi)),
             "n": pa.array(n.astype(np.int64)),
             "__mb__": pa.array(bucket[gi])}
        )

    def winner(df: pd.DataFrame) -> pd.DataFrame:
        g = df[group_col].to_numpy()
        v = df[val_col].to_numpy()
        n = df["n"].to_numpy(dtype=np.int64)
        gc, gu = pd.factorize(g)
        vc, vu = pd.factorize(v)
        key = gc.astype(np.int64) * len(vu) + vc
        order = np.argsort(key, kind="stable")
        k_s, n_s = key[order], n[order]
        first = np.concatenate(([True], k_s[1:] != k_s[:-1]))
        grp = np.cumsum(first) - 1
        tot = np.bincount(grp, weights=n_s).astype(np.int64)
        uk = k_s[first]
        gi = (uk // len(vu)).astype(np.int64)
        vi = (uk % len(vu)).astype(np.int64)
        # rank (count desc, value asc) within each group; vu order is
        # arbitrary so sort by the actual values
        vs = vu[vi]
        vorder = np.lexsort((vs, -tot, gi))
        gfirst = np.concatenate(([True], gi[vorder][1:] != gi[vorder][:-1]))
        win = vorder[gfirst]
        return pd.DataFrame(
            {group_col: gu[gi[win]],
             "mode_val": vs[win],
             "n_mode": tot[win]}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__mb__")
        .map_groups(
            lambda df: winner(df.drop(columns=["__mb__"])),
            batch_format="pandas",
        )
    )


def explode_list(
    ds: ray.data.Dataset,
    list_col: str,
    id_col: str,
    pos_name: str = "pos",
    val_name: str = "val",
) -> ray.data.Dataset:
    """posexplode: one row per list element → (id_col, pos_name 0-based,
    val_name) — the list→relational bridge (embedding dims, token lists,
    span lists). Empty/null lists emit no rows.

    Scale shape: zero shuffle; pure offset arithmetic per batch —
    np.repeat of ids by list length, a multi-arange for positions, one
    ``take`` on the flat child array. No per-row Python, no copy of the
    child values beyond the gather.
    """

    def fn(t: pa.Table) -> pa.Table:
        col = t[list_col]
        ids = t[id_col]
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        id_parts, pos_parts, val_parts = [], [], []
        row0 = 0
        for ch in chunks:
            n = len(ch)
            offs = ch.offsets.to_numpy().astype(np.int64)
            lens = np.diff(offs)
            lens = np.where(np.asarray(ch.is_null()), 0, lens)
            total = int(lens.sum())
            if total:
                within = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(lens) - lens, lens
                )
                flat_idx = np.repeat(offs[:-1], lens) + within
                id_parts.append(
                    ids.take(pa.array(row0 + np.repeat(
                        np.arange(n, dtype=np.int64), lens)))
                )
                pos_parts.append(pa.array(within))
                val_parts.append(ch.values.take(pa.array(flat_idx)))
            row0 += n
        if not id_parts:
            child = (col.type.value_type
                     if not isinstance(col, pa.ChunkedArray)
                     else col.type.value_type)
            return pa.table(
                {id_col: ids.slice(0, 0),
                 pos_name: pa.array([], pa.int64()),
                 val_name: pa.array([], child)}
            )
        return pa.table(
            {id_col: pa.concat_arrays(
                [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
                 for p in id_parts]),
             pos_name: pa.concat_arrays(pos_parts),
             val_name: pa.concat_arrays(val_parts)}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean survive-mask of the 2-D maximize-both Pareto frontier:
    row a is dominated iff some b has b.x ≥ a.x, b.y ≥ a.y and is
    strictly greater in at least one (duplicate points survive
    together). One lexsort + two prefix scans — no pairwise loop."""
    n = len(x)
    if n == 0:
        return np.zeros(0, bool)
    order = np.lexsort((-y, -x))  # x desc, then y desc
    xs, ys = x[order], y[order]
    first = np.empty(n, bool)
    first[0] = True
    first[1:] = xs[1:] != xs[:-1]
    gidx = np.cumsum(first) - 1  # x-group id per row
    gmax = ys[first]             # max y per x-group (y desc inside group)
    # max y over all STRICTLY greater x = prefix max of previous groups
    mprev = np.empty(len(gmax), dtype=gmax.dtype)
    mprev[0] = (-np.inf if gmax.dtype.kind == "f"
                else np.iinfo(gmax.dtype).min)
    np.maximum.accumulate(gmax[:-1], out=mprev[1:])
    survive_sorted = (ys == gmax[gidx]) & (ys > mprev[gidx])
    out = np.zeros(n, bool)
    out[order] = survive_sorted
    return out


def pareto_frontier(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    maximize: tuple[bool, bool] = (True, True),
    max_partial_rows: int = 5_000_000,
) -> ray.data.Dataset:
    """2-D Pareto frontier (SQL anti-dominance skyline): the rows no
    other row weakly dominates in (``x_col``, ``y_col``) with strict
    improvement somewhere. ``maximize`` flips either axis to minimize.
    Rows with a null/NaN in either column are dropped (SQL dominance
    comparisons would make them vacuous survivors — a footgun, not a
    frontier). Equivalent SQL: ``WHERE NOT EXISTS (dominating b)``.

    Scale shape: skyline(A ∪ B) = skyline(skyline(A) ∪ skyline(B)), so
    each block reduces to its LOCAL frontier first (vectorized — one
    lexsort, two prefix scans) and only those survivors reach the
    driver's final identical pass; zero shuffle. The union of partial
    frontiers is guarded by ``max_partial_rows`` with an actionable
    error (frontier size is data-dependent: anti-correlated axes can
    make it O(n))."""
    sgn_x = 1.0 if maximize[0] else -1.0
    sgn_y = 1.0 if maximize[1] else -1.0

    def _keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        def axis(col: str, sgn: float) -> np.ndarray:
            a = t[col]
            if pa.types.is_timestamp(a.type) or pa.types.is_date(a.type):
                a = pc.cast(pc.cast(a, pa.timestamp("us")), pa.int64())
            v = a.to_numpy(zero_copy_only=False)
            if v.dtype.kind in "iu":  # exact — no 2^53 double rounding
                v = v.astype(np.int64)
                return -v if sgn < 0 else v
            return sgn * v.astype(np.float64)

        return axis(x_col, sgn_x), axis(y_col, sgn_y)

    def local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t
        ok = pc.and_(pc.is_valid(t[x_col]), pc.is_valid(t[y_col]))
        t = t.filter(ok)
        if len(t) == 0:
            return t
        x, y = _keys(t)
        fin = np.isfinite(x) & np.isfinite(y)
        if not fin.all():
            t = t.filter(pa.array(fin))
            x, y = x[fin], y[fin]
        return t.filter(pa.array(_skyline_mask(x, y)))

    parts = ds.map_batches(local, batch_format="pyarrow").materialize()
    n = parts.count()
    if n > max_partial_rows:
        raise ValueError(
            f"pareto_frontier: union of per-block frontiers has {n} rows "
            f"(> max_partial_rows={max_partial_rows}) — the frontier "
            "itself is near-linear in the data (anti-correlated axes). "
            "Pre-aggregate or bucket one axis before taking a skyline."
        )
    refs = parts.to_arrow_refs()
    tables = [tb for tb in ray.get(refs) if tb.num_rows > 0]
    if not tables:
        return parts  # empty, schema preserved
    allt = pa.concat_tables([t.combine_chunks() for t in tables])
    x, y = _keys(allt)
    final = allt.filter(pa.array(_skyline_mask(x, y)))
    return ray.data.from_arrow(final)


def window_dedupe(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    ts_col: str,
    id_col: str,
    window_s: int,
    *,
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Streaming-style windowed deduplication: keep the FIRST row (by
    timestamp, ties by id) per (key tuple, fixed time window) →
    (id_col, *key_cols, win). The time-bounded sibling of
    :func:`latest_by_key` — the standard at-least-once-delivery /
    telemetry-burst collapse (one event per user+type per hour).

    win = floor(epoch_us / window_us); keys ride one ≤``n_buckets``
    tuple-hash exchange (never the raw composite key), and each bucket
    resolves winners in ONE lexsort + run-boundary pass. Null keys group
    together like SQL PARTITION BY (NULL is a partition value there).
    """
    import pandas as pd

    w_us = int(window_s) * 1_000_000
    proj = ds.select_columns(
        list(dict.fromkeys([id_col, ts_col, *key_cols]))
    )

    def pick(t: pa.Table) -> pa.Table:
        fields = [(id_col, pa.int64())]
        fields += [(c, t.schema.field(c).type) for c in key_cols]
        fields.append(("win", pa.int64()))
        empty = pa.schema(fields).empty_table()
        if len(t) == 0:
            return empty
        ts = pc.cast(t[ts_col], pa.int64()).to_numpy()
        win = np.floor_divide(ts, w_us)
        ids = pc.cast(t[id_col], pa.int64()).to_numpy()
        # factorize each key column; runs are detected over all of them
        key_code_cols = []
        for c in key_cols:
            kc, _ = pd.factorize(
                t[c].to_numpy(zero_copy_only=False), sort=False
            )
            key_code_cols.append(kc.astype(np.int64))
        order = np.lexsort((ids, ts, win, *reversed(key_code_cols)))
        arrs = [a[order] for a in (*key_code_cols, win)]
        first = np.zeros(len(t), bool)
        first[0] = True
        for a in arrs:
            first[1:] |= a[1:] != a[:-1]
        sel = order[first]
        out = {id_col: pa.array(ids[sel])}
        for c in key_cols:
            out[c] = t[c].take(pa.array(sel))
        out["win"] = pa.array(win[sel])
        return pa.table(out)

    return bucket_exchange(proj, list(key_cols), pick, n_buckets)


def union_by_name(
    datasets: "list[ray.data.Dataset]",
) -> "ray.data.Dataset":
    """Schema-evolution-tolerant union (SQL ``UNION ALL BY NAME``): align
    every input to the UNION of their schemas by column name — missing
    columns fill with nulls of the column's type — then concatenate.
    The ingestion primitive for multi-vintage data lakes where older
    partitions lack newer columns.

    Column order = first-seen order across inputs. A name typed
    differently in two inputs raises (silent casts hide corruption);
    align types upstream. Zero shuffle — one map_batches per input.

    The schema probe needs each input's schema BEFORE mapping it, and
    peeking at a lazy dataset re-executes its upstream (CLAUDE.md).
    Inputs whose schema is already known without execution (fresh
    parquet reads, materialized handles) stream through untouched;
    anything else is materialized ONCE here and that handle feeds the
    union — so no input pipeline ever executes twice, and a plain
    100-TB read stays a streaming read."""
    if not datasets:
        raise ValueError("union_by_name needs at least one dataset")
    probed = []
    for ds in datasets:
        sch = ds.schema(fetch_if_missing=False)
        if sch is None:
            ds = ds.materialize()
            sch = ds.schema()
        probed.append((ds, sch))
    datasets = [ds for ds, _ in probed]
    fields: dict[str, pa.DataType] = {}
    for _, sch in probed:
        for name, typ in zip(sch.names, sch.types):
            if not isinstance(typ, pa.DataType):  # numpy dtype block
                npd = np.dtype(typ)
                typ = (pa.string() if npd == np.dtype(object)
                       else pa.from_numpy_dtype(npd))
            if name in fields:
                if fields[name] != typ:
                    raise ValueError(
                        f"union_by_name: column {name!r} has type "
                        f"{fields[name]} in one input and {typ} in "
                        f"another; cast upstream."
                    )
            else:
                fields[name] = typ
    target = pa.schema(list(fields.items()))

    def align(t: pa.Table) -> pa.Table:
        cols = []
        for f in target:
            if f.name in t.column_names:
                cols.append(pc.cast(t[f.name], f.type))
            else:
                cols.append(pa.nulls(len(t), f.type))
        return pa.table(dict(zip(target.names, cols)))

    out = datasets[0].map_batches(align, batch_format="pyarrow")
    for ds in datasets[1:]:
        out = out.union(ds.map_batches(align, batch_format="pyarrow"))
    return out
