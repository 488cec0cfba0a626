"""Relational pipelines over the TPC-H-ish testdata — the driver-contract
query surface exercising the engine's aggregate / join / window / top-k
shapes with DuckDB-checkable semantics.

Scale notes honored here:
- reads are column-pruned (`columns=[...]`);
- grouped aggregates pre-aggregate per batch (partial combine) before the
  shuffle, so the all-to-all moves one row per (key, batch) not per row;
- dimension joins broadcast the small side (`ray.put`) — no shuffle;
- window aggregation derives the window key vectorized then groupbys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from record_matcher_ray.core.exchange import bucket_exchange, bucket_ids
from record_matcher_ray.pipelines.joins import broadcast_lookup



def _read_parquet(path, **kw):
    """Engine reader (metadata-free schema): raw parquet reads carry a
    b'pandas' schema-metadata dict that makes pa.Schema unhashable, so
    every exchange over such blocks hits Ray's slow schema-unify path
    ("Failed to hash the schemas" in the reduce workers)."""
    from record_matcher_ray.sources.readers import read_table

    return read_table(path, **kw)

def lineitem_agg(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped: per (returnflag, linestatus) sums. Partial
    aggregation inside map_batches → groupby over partials."""
    ds = _read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        t2 = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": pc.cast(t["l_quantity"], pa.float64()),
                "rev": rev,
            }
        )
        return (
            t2.group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("qty", "sum"), ("rev", "sum"), ("qty", "count")])
            .rename_columns(["l_returnflag", "l_linestatus", "qty", "rev", "n"])
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("rev", alias_name="revenue"),
            Sum("n", alias_name="n_rows"),
        )
        .to_pandas()
    )
    out["sum_qty"] = out["sum_qty"].round(2)
    out["revenue"] = out["revenue"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def customer_nation_topk(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """customer ⋈ nation ⋈ region (broadcast dims) → top-k by acctbal."""
    nation = _read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = _read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    dim = broadcast_lookup(nation, region, "n_regionkey", "r_regionkey").to_pandas()
    cust = _read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
    )
    joined = broadcast_lookup(cust, dim, "c_nationkey", "n_nationkey",
                              columns=["n_nationkey", "n_name", "r_name"])
    top = joined.sort("c_acctbal", descending=True).limit(k).to_pandas()
    top = top[["c_custkey", "c_name", "n_name", "r_name", "c_acctbal"]]
    top["c_acctbal"] = top["c_acctbal"].round(2)
    return top


def orders_by_status(sf_dir: str) -> pd.DataFrame:
    """Grouped count + sum over orders (pre-aggregated)."""
    ds = _read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderstatus", "o_totalprice"]
    )
    out = (
        ds.groupby("o_orderstatus")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total"))
        .to_pandas()
    )
    out["total"] = out["total"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def events_tumbling_window(sf_dir: str, window_s: int = 3600) -> pd.DataFrame:
    """Stream-shaped tumbling window: per (event_type, hour-window) count +
    value sum. Window key derived vectorized; ordering assumption: none
    needed for tumbling aggregates (associative)."""
    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def keyed(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64())  # microseconds since epoch
        # integer division (exact; matches SQL //) — not float floor
        win = pc.divide(epoch, window_s * 1_000_000)
        return pa.table(
            {
                "event_type": t["event_type"],
                "win": pc.cast(win, pa.int64()),
                "value": t["value"],
            }
        )

    out = (
        ds.map_batches(keyed, batch_format="pyarrow")
        .groupby(["event_type", "win"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = out["sum_value"].round(2)
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["event_type", "win"]).reset_index(drop=True)


def topk_per_group(
    sf_dir: str, k: int = 2, n_buckets: int = 64
) -> pd.DataFrame:
    """Top-k orders by totalprice per customer — grouped top-k via
    hash-bucketed groupby + vectorized within-bucket ranking (no per-group
    Python calls)."""
    ds = _read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = bucket_ids(df["o_custkey"].to_numpy(np.int64), n_buckets)
        return df

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="stable",
        )
        df["rnk"] = df.groupby("o_custkey").cumcount() + 1
        out = df[df["rnk"] <= k][["o_custkey", "o_orderkey", "o_totalprice", "rnk"]]
        out = out.copy()
        out["o_totalprice"] = out["o_totalprice"].round(2)
        out["rnk"] = out["rnk"].astype("int64")
        return out

    return (
        ds.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(topk, batch_format="pandas")
        .to_pandas()
    )


def sessionize_events(
    sf_dir: str, gap_s: int = 1800, n_buckets: int = 64
) -> pd.DataFrame:
    """Session windows per user (new session when the gap to the previous
    event exceeds ``gap_s``). Ordering assumption: events sorted by
    (ts, event_id) within each user — done inside the per-bucket transform;
    tumbling/associative state only, so buckets are independent."""
    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def bucketed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__b__"] = bucket_ids(df["user_id"].to_numpy(np.int64), n_buckets)
        return df

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="stable").copy()
        epoch = df["ts"].astype("int64") // 1_000_000  # seconds
        new_user = df["user_id"].ne(df["user_id"].shift())
        brk = new_user | (epoch - epoch.shift() > gap_s)
        df["session_id"] = brk.groupby(df["user_id"].values).cumsum().astype("int64")
        g = df.groupby(["user_id", "session_id"])
        out = g.agg(
            n_events=("event_id", "size"),
            start_us=("ts", "min"),
            end_us=("ts", "max"),
            sum_value=("value", "sum"),
        ).reset_index()
        out["start_us"] = out["start_us"].astype("int64")
        out["end_us"] = out["end_us"].astype("int64")
        out["sum_value"] = out["sum_value"].round(2)
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return (
        ds.map_batches(bucketed, batch_format="pandas")
        .groupby("__b__")
        .map_groups(sessions, batch_format="pandas")
        .to_pandas()
    )


def last_error_asof(sf_dir: str) -> pd.DataFrame:
    """As-of join: for every event, the timestamp of that user's most
    recent prior (or simultaneous) error event."""
    import pyarrow as pa

    from record_matcher_ray.pipelines.joins import asof_join

    left = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    right = (
        _read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        )
        .map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "error"))
            .select(["user_id", "ts"])
            .rename_columns(["user_id", "error_ts"]),
            batch_format="pyarrow",
        )
    )
    out = asof_join(left, right, by="user_id", left_on="ts", right_on="error_ts")
    df = out.to_pandas()
    return pd.DataFrame(
        {
            "event_id": df["event_id"].astype("int64"),
            "last_error_ts": df["error_ts"],
        }
    )


def events_sliding_window(
    sf_dir: str, window_s: int = 3600, slide_s: int = 1800
) -> pd.DataFrame:
    """Sliding-window aggregate: each event contributes to every window
    covering it (window w spans [w*slide, w*slide + window)). Expansion is
    a vectorized row-replication in map_batches (the Ray flat_map shape),
    then a grouped count/sum over (event_type, window)."""
    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    w_us = window_s * 1_000_000
    s_us = slide_s * 1_000_000

    def expand(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t["ts"], pa.int64()).to_numpy()
        lo = (epoch - w_us) // s_us + 1
        hi = epoch // s_us
        counts = (hi - lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(epoch)), counts)
        offs = np.concatenate([np.arange(c) for c in counts]) if len(counts) else np.empty(0, np.int64)
        wins = lo[idx] + offs
        take = pa.array(idx)
        return pa.table(
            {
                "event_type": pc.take(t["event_type"].combine_chunks(), take),
                "win": pa.array(wins),
                "value": pc.take(t["value"].combine_chunks(), take),
            }
        )

    out = (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby(["event_type", "win"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    out["sum_value"] = out["sum_value"].round(2)
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["event_type", "win"]).reset_index(drop=True)


def building_orders_semi(sf_dir: str) -> pd.DataFrame:
    """Semi-join: orders whose customer is in the BUILDING segment
    (broadcast key-set filter, no shuffle)."""
    from record_matcher_ray.pipelines.joins import semi_join

    cust = _read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    orders = _read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    out = semi_join(orders, keys, on="o_custkey", key_col="c_custkey").to_pandas()
    out["o_totalprice"] = out["o_totalprice"].round(2)
    return out


def events_props_extract(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: pull the integer field ``k`` out of the
    JSON ``props`` string column — vectorized Arrow regex (no per-row JSON
    parse in the hot path; swap in a real JSON kernel for nested payloads)."""
    ds = _read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    )

    def extract(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(
            pc.fill_null(pc.cast(t["props"], pa.string()), ""), r'"k": (?P<k>\d+)'
        )
        k = pc.struct_field(ex, "k")
        return pa.table(
            {
                "event_id": t["event_id"],
                "k": pc.cast(k, pa.int64()),
            }
        )

    return ds.map_batches(extract, batch_format="pyarrow").to_pandas()


def supplier_nation_jaro(sf_dir: str) -> pd.DataFrame:
    """Cross-score s_name × n_name with the vectorized Jaro-Winkler kernel
    (scorer-kernel correctness surface for DuckDB's
    ``jaro_winkler_similarity`` — semantics match exactly on non-empty
    ASCII, see scorers.py:96)."""
    from record_matcher_ray.functions.scorers import jaro_winkler_matrix

    sup = _read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    nat = _read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat_ref = ray.put(nat)

    def cross(t: pa.Table) -> pa.Table:
        n = ray.get(nat_ref)
        xs = np.asarray(t["s_name"].to_pylist(), dtype=object)
        ys = np.asarray(n["n_name"].to_numpy(), dtype=object)
        m = jaro_winkler_matrix(xs, ys)
        nk = n["n_nationkey"].to_numpy()
        sk = t["s_suppkey"].to_numpy()
        xi, yi = np.indices(m.shape)
        return pa.table(
            {
                "s_suppkey": pa.array(sk[xi.ravel()]),
                "n_nationkey": pa.array(nk[yi.ravel()]),
                "jw_sim": pa.array(np.round(m.ravel(), 6)),
            }
        )

    return sup.map_batches(cross, batch_format="pyarrow").to_pandas()


def supplier_nation_levenshtein(sf_dir: str) -> pd.DataFrame:
    """Cross-score s_name × n_name with the vectorized Levenshtein kernel
    (scorer-kernel correctness surface for the DuckDB oracle)."""
    from record_matcher_ray.functions.scorers import levenshtein_matrix

    sup = _read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    )
    nat = _read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat_ref = ray.put(nat)

    def cross(t: pa.Table) -> pa.Table:
        n = ray.get(nat_ref)
        xs = np.asarray(t["s_name"].to_pylist(), dtype=object)
        ys = np.asarray(n["n_name"].to_numpy(), dtype=object)
        m = levenshtein_matrix(xs, ys)
        nk = n["n_nationkey"].to_numpy()
        sk = t["s_suppkey"].to_numpy()
        xi, yi = np.indices(m.shape)
        return pa.table(
            {
                "s_suppkey": pa.array(sk[xi.ravel()]),
                "n_nationkey": pa.array(nk[yi.ravel()]),
                "lev_sim": pa.array(np.round(m.ravel(), 6)),
            }
        )

    return sup.map_batches(cross, batch_format="pyarrow").to_pandas()


def funnel_steps(
    ds: ray.data.Dataset,
    steps: list[str],
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Ordered funnel: for each user, how many of ``steps`` they completed
    IN ORDER (greedy earliest-completion semantics: step k+1 must occur
    STRICTLY after the earliest valid completion of step k) → rows
    (user_col, steps_completed ≥ 1) for users who performed step 1.

    Scale shape: rows not matching any step are dropped at the source;
    the only exchange hash-buckets users into ≤``n_buckets`` groups
    (never one group per user — CLAUDE.md rule); inside a bucket one
    lexsort orders (user, ts) and each funnel step is a single
    vectorized masked segmented-min (``np.minimum.reduceat``) over the
    bucket, so cost is O(K · bucket rows), no per-user Python.
    """
    if not steps:
        raise ValueError("steps must be a non-empty ordered list")
    K = len(steps)
    step_set = pa.array(steps, pa.string())
    # index_in maps a type to its FIRST position in steps, so a repeated
    # step type ("view twice") must be matched by that first index
    fidx = np.array([steps.index(s) for s in steps], dtype=np.int64)

    def prep(t: pa.Table) -> pa.Table:
        code = pc.index_in(t[type_col], value_set=step_set)
        keep = pc.is_valid(code)
        t2 = t.filter(keep)
        code2 = pc.cast(pc.index_in(t2[type_col], value_set=step_set),
                        pa.int64())
        return pa.table(
            {user_col: t2[user_col],
             "__ts__": pc.cast(t2[ts_col], pa.int64()),
             "__code__": code2}
        )

    NEG = np.int64(-(2 ** 62))
    POS = np.int64(2 ** 62)

    def local(t: pa.Table) -> pa.Table:
        utype = t.schema.field(user_col).type
        empty = pa.table({user_col: pa.array([], utype),
                          "steps_completed": pa.array([], pa.int64())})
        if len(t) == 0:
            return empty
        u = t[user_col].to_numpy(zero_copy_only=False)
        ts = t["__ts__"].to_numpy()
        code = t["__code__"].to_numpy()
        if np.issubdtype(u.dtype, np.number):
            ukey = u
        else:
            # factorize object ids to int codes so the lexsort stays
            # numeric (CLAUDE.md: never sort object arrays in a hot path)
            ukey, _ = pd.factorize(u)
        order = np.lexsort((ts, ukey))
        u_s, ts_s, c_s = u[order], ts[order], code[order]
        uk_s = ukey[order]
        first = np.concatenate(([True], uk_s[1:] != uk_s[:-1]))
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1  # user segment id per row
        n_users = len(starts)
        cur = np.full(n_users, NEG)
        done = np.zeros(n_users, np.int64)
        for k in range(K):
            m = (c_s == fidx[k]) & (done[seg] == k) & (ts_s > cur[seg])
            v = np.where(m, ts_s, POS)
            mins = np.minimum.reduceat(v, starts)
            ok = mins < POS
            cur = np.where(ok, mins, cur)
            done += ok
        hit = done > 0
        return pa.table(
            {user_col: pa.array(u_s[starts][hit], utype),
             "steps_completed": pa.array(done[hit])}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [user_col], local,
        n_buckets,
    )


def _per_key_sorted(
    t: pa.Table, key_col: str, ts_col: str, id_col: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sort order, segment-start flags, sorted segment codes) for
    per-key row-frame windows: deterministic order (ts, id) within each
    key (ties on ts broken by id so both engines frame identically)."""
    kc, _ = pd.factorize(t[key_col].to_numpy(zero_copy_only=False))
    ts = pc.cast(t[ts_col], pa.int64()).to_numpy()
    idv = t[id_col].to_numpy()
    order = np.lexsort((idv, ts, kc))
    k_s = kc[order]
    first = np.concatenate(([True], k_s[1:] != k_s[:-1]))
    return order, first, k_s


def rolling_mean(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    frame_rows: int = 3,
    cents_scale: float = 100.0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Trailing row-frame mean per key (SQL ``ROWS BETWEEN frame_rows
    PRECEDING AND CURRENT ROW`` ordered by (ts, id)) → rows
    (id_col, roll_mean rounded to 6dp) — the smoothing / feature-window
    primitive for event streams.

    Scale shape: the shuffle key is a ≤``n_buckets`` hash bucket of the
    key, each bucket computes every key's windows in one vectorized pass
    (lexsort + segment-clamped prefix sums); values are quantized once to
    integer units so the window sum is EXACT (order-invariant), and the
    mean is two pinned-order double ops — bit-replayable by the DuckDB
    window oracle.
    """

    def prep(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        return pa.table(
            {id_col: t[id_col], key_col: t[key_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             "__c__": pa.array(c)}
        )

    def windows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "roll_mean": pa.array([], pa.float64())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        c_s = t["__c__"].to_numpy()[order]
        n = len(c_s)
        starts = np.nonzero(first)[0]
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        i = np.arange(n)
        win_start = np.maximum(i - frame_rows, seg_start)
        csum = np.concatenate(([0], np.cumsum(c_s, dtype=np.int64)))
        s = csum[i + 1] - csum[win_start]
        cnt = (i + 1 - win_start).astype(np.float64)
        mean = np.round((s.astype(np.float64) / cnt) / cents_scale, 6)
        return pa.table(
            {id_col: t[id_col].take(pa.array(order)),
             "roll_mean": pa.array(mean)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], windows,
        n_buckets,
    )


def interarrival(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key lag delta: for each event, microseconds since the key's
    previous event (ordered by (ts, id); a key's first event → null) —
    the SQL ``ts - lag(ts) OVER (PARTITION BY key ORDER BY ts, id)``
    shape. Same bounded-bucket + vectorized-segment scale shape as
    :func:`rolling_mean`; deltas are exact int64 arithmetic.
    """

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: t[id_col], key_col: t[key_col],
             ts_col: pc.cast(t[ts_col], pa.int64())}
        )

    def deltas(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "delta_us": pa.array([], pa.int64())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        ts_s = t[ts_col].to_numpy()[order]
        d = np.empty(len(ts_s), np.int64)
        d[1:] = ts_s[1:] - ts_s[:-1]
        d[0] = 0
        return pa.table(
            {id_col: t[id_col].take(pa.array(order)),
             "delta_us": pa.array(d, pa.int64(), mask=first)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], deltas,
        n_buckets,
    )


def retention_cohorts(
    ds: ray.data.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    day_us: int = 86_400_000_000,
) -> ray.data.Dataset:
    """Classic retention matrix: cohort = a user's first active day; →
    rows (cohort_day, day_offset, n_users) = how many of that cohort were
    active again ``day_offset`` days later (offset 0 = cohort size).
    Days are integer days-since-epoch (no date formatting ambiguity).

    Scale shape: three vectorized hash exchanges, none per-user Python —
    (1) distinct (user, day) pairs via ``groupby(...).count()``,
    (2) per-user min day via ``groupby(user).aggregate(Min)``,
    (3) bucketed :func:`joins.hash_join` back + final (cohort, offset)
    count. Activity volume reduces to ≤ users × active-days rows after
    the first aggregate, so later stages shrink with real workloads.
    """
    from ray.data.aggregate import Min

    from record_matcher_ray.pipelines.joins import hash_join

    def to_day(t: pa.Table) -> pa.Table:
        # FLOOR division (DuckDB `//` semantics): pc.divide truncates
        # toward zero, which would shift pre-epoch timestamps one day late
        ts64 = pc.cast(t[ts_col], pa.int64())
        q = pc.divide(ts64, day_us)
        r = pc.subtract(ts64, pc.multiply(q, day_us))
        d = pc.subtract(q, pc.cast(pc.less(r, 0), pa.int64()))
        return pa.table({user_col: t[user_col], "__day__": d})

    days = ds.map_batches(to_day, batch_format="pyarrow")
    # materialize: `active` feeds BOTH the cohort aggregate and the join —
    # without it the full-events exchange re-executes once per consumer
    # (CLAUDE.md multi-consumer rule); post-aggregate it is small
    # (≤ users × active-days rows)
    active = days.groupby([user_col, "__day__"]).count().drop_columns(
        ["count()"]
    ).materialize()
    cohort = active.groupby(user_col).aggregate(
        Min("__day__", alias_name="__cohort__")
    )
    joined = hash_join(active, cohort, user_col, user_col)

    def offs(t: pa.Table) -> pa.Table:
        return pa.table(
            {"cohort_day": t["__cohort__"],
             "day_offset": pc.subtract(t["__day__"], t["__cohort__"])}
        )

    out = (
        joined.map_batches(offs, batch_format="pyarrow")
        .groupby(["cohort_day", "day_offset"])
        .count()
    )

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["cohort_day", "day_offset", "n_users"])

    return out.map_batches(rename, batch_format="pyarrow")


def transition_counts(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key ordered bigram (Markov transition) counts: for each key's
    event sequence ordered by (ts, id), count global (src_type →
    dst_type) transitions → rows (src, dst, n). The sequence-statistics
    primitive behind session Markov models / next-event features.

    Scale shape: the shuffle key is a ≤``n_buckets`` hash bucket of the
    key (every row of a key lands in ONE bucket, so each bucket sees
    complete sequences); inside a bucket one lexsort orders (key, ts,
    id) and transitions reduce to a bincount over factorized type-pair
    codes — the bucket's partial is bounded by its TYPE VOCABULARY
    squared, not its row count. The final exchange merges tiny (src,
    dst, n) partials, so cross-wire volume is independent of corpus
    size. Ties on ts are broken by id so the oracle's ``ORDER BY ts,
    event_id`` LAG window frames identically.
    """

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {key_col: t[key_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             id_col: t[id_col],
             type_col: t[type_col]}
        )

    empty = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        types = t[type_col].to_numpy(zero_copy_only=False)[order]
        codes, uniq = pd.factorize(types)
        src = codes[:-1]
        dst = codes[1:]
        ok = ~first[1:]  # transition stays inside one key's segment
        src, dst = src[ok], dst[ok]
        if len(src) == 0:
            return empty
        v = len(uniq)
        cnt = np.bincount(src * v + dst, minlength=v * v)
        nz = np.nonzero(cnt)[0]
        terms = uniq.astype(object)
        return pa.table(
            {"src": pa.array(terms[nz // v], pa.string()),
             "dst": pa.array(terms[nz % v], pa.string()),
             "n": pa.array(cnt[nz].astype(np.int64))}
        )

    parts = bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )
    return parts.groupby(["src", "dst"]).aggregate(Sum("n", alias_name="n"))


def rollup_aggregate(
    ds: ray.data.Dataset,
    dims: list[str],
    val_col: str,
    cents_scale: float = 100.0,
    all_label: str = "ALL",
) -> pa.Table:
    """GROUP BY ROLLUP(dims): counts and exact-cents value sums at every
    prefix granularity ((d1..dk), (d1..dk-1), …, ()) with collapsed
    dimensions labelled ``all_label`` → columns (*dims, n, sum_val).
    The OLAP cube-slice primitive for bounded-cardinality dimensions.

    Scale shape: each block pre-aggregates to one row per distinct
    finest-level tuple (value quantized once to integer units, so the
    sum is EXACT and order-invariant), one small ``groupby(dims)``
    exchange merges partials, and the rollup levels are derived from
    the materialized finest level — legitimately driver-side because a
    rollup is only meaningful over bounded-cardinality dims (the finest
    table is vocabulary-sized, never corpus-sized). The one double op
    (cents → value) is pinned-order, so the DuckDB ROLLUP oracle
    replays it bit-for-bit.
    """
    if not dims:
        raise ValueError("dims must be a non-empty list")
    sch = ds.schema()
    for name, typ in zip(sch.names, sch.types):
        if name not in dims:
            continue
        if isinstance(typ, pa.DataType):  # Arrow-backed blocks
            ok = pa.types.is_string(typ) or pa.types.is_large_string(typ)
        else:  # pandas-backed blocks report numpy dtypes / `object`
            kind = getattr(np.dtype(typ), "kind", "?") if typ is not object \
                else "O"
            ok = kind in ("O", "U")
        if not ok:
            raise ValueError(
                f"rollup dim {name!r} must be a string column (the "
                f"all_label sentinel replaces collapsed levels)"
            )

    def partial(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        df = pd.DataFrame(
            {d: t[d].to_numpy(zero_copy_only=False) for d in dims}
        )
        df["__cents__"] = c
        g = df.groupby(dims, sort=False, dropna=False).agg(
            n=("__cents__", "size"), cents=("__cents__", "sum")
        ).reset_index()
        return pa.table(
            {**{d: pa.array(g[d].to_numpy(), pa.string()) for d in dims},
             "n": pa.array(g["n"].to_numpy().astype(np.int64)),
             "cents": pa.array(g["cents"].to_numpy().astype(np.int64))}
        )

    finest = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(dims)
        .aggregate(Sum("n", alias_name="n"),
                   Sum("cents", alias_name="cents"))
    ).to_pandas()

    levels = [finest]
    for k in range(len(dims) - 1, -1, -1):
        lv = finest.groupby(dims[:k], sort=False).agg(
            n=("n", "sum"), cents=("cents", "sum")
        ).reset_index() if k else pd.DataFrame(
            {"n": [int(finest["n"].sum())],
             "cents": [int(finest["cents"].sum())]}
        )
        for d in dims[k:]:
            lv[d] = all_label
        levels.append(lv[dims + ["n", "cents"]])
    out = pd.concat(levels, ignore_index=True)
    out["sum_val"] = np.round(
        out["cents"].to_numpy().astype(np.float64) / cents_scale, 6
    )
    out = out.drop(columns=["cents"])
    out["n"] = out["n"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def ntile_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    id_col: str,
    k: int = 4,
    cents_scale: float = 100.0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``ntile(k) OVER (PARTITION BY group ORDER BY val, id)`` →
    rows (id_col, tile): equal-frequency banding per group (quartiles /
    deciles), ties broken by id so both engines band identically. The
    stratification primitive for balanced eval splits.

    Scale shape: one hash-bucketed exchange on the group key (≤
    ``n_buckets`` groups — CLAUDE.md rule), one lexsort per bucket,
    then the ntile formula is pure vectorized index math (the first
    ``n % k`` tiles get ``n//k + 1`` rows — the SQL distribution).
    Values are quantized to integer units for a total order identical
    to the oracle's (floats that differ below half a unit tie and fall
    to the id tiebreak in BOTH engines)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def prep(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        return pa.table(
            {id_col: t[id_col], group_col: t[group_col],
             "__c__": pa.array(c)}
        )

    def local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "tile": pa.array([], pa.int64())})
        order, first, _ = _per_key_sorted(t, group_col, "__c__", id_col)
        n = len(order)
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, sizes)
        seg_n = np.repeat(sizes, sizes)
        r = np.arange(n) - seg_start  # 0-based rank within group
        q, rem = seg_n // k, seg_n % k
        big_span = rem * (q + 1)  # rows covered by the larger tiles
        in_big = r < big_span
        with np.errstate(divide="ignore", invalid="ignore"):
            tile = np.where(
                in_big,
                r // np.maximum(q + 1, 1),
                rem + np.where(q > 0, (r - big_span) // np.maximum(q, 1), 0),
            ) + 1
        return pa.table(
            {id_col: t[id_col].take(pa.array(order)),
             "tile": pa.array(tile.astype(np.int64))}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [group_col], local,
        n_buckets,
    )


def value_intervals(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "event_type",
    id_col: str = "event_id",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SCD2-style history build: per key ordered by (ts, id), collapse
    consecutive runs of equal ``val_col`` into validity intervals →
    rows (key, val, valid_from, valid_to) with ``valid_from`` the run's
    first timestamp (μs), ``valid_to`` the next run's first timestamp,
    NULL for the open (current) run. The slowly-changing-dimension
    primitive for attribute timelines.

    Scale shape: one hash-bucketed exchange on the key (complete
    per-key sequences per bucket); inside a bucket one lexsort, one
    factorized run-boundary diff and one shift produce every interval
    vectorized — no per-key Python. Ties on ts break by id so the
    oracle's LAG/LEAD windows frame identically."""

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {key_col: t[key_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             id_col: t[id_col],
             val_col: t[val_col]}
        )

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        vtype = t.schema.field(val_col).type
        empty = pa.table(
            {key_col: pa.array([], ktype),
             "val": pa.array([], vtype),
             "valid_from": pa.array([], pa.int64()),
             "valid_to": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        ts = t[ts_col].to_numpy()[order]
        vals = t[val_col].to_numpy(zero_copy_only=False)[order]
        codes, _uniq = pd.factorize(vals)
        run_start = first | np.concatenate(([True], codes[1:] != codes[:-1]))
        starts = np.nonzero(run_start)[0]
        # next run start within the same key, else open-ended (vectorized:
        # shift run-start timestamps, null where the next run changes key)
        key_of_run = np.cumsum(first)[starts]  # key ordinal per run
        nxt = np.zeros(len(starts), np.int64)
        same_key = np.zeros(len(starts), bool)
        if len(starts) > 1:
            nxt[:-1] = ts[starts[1:]]
            same_key[:-1] = key_of_run[1:] == key_of_run[:-1]
        oidx = pa.array(order[starts])
        return pa.table(
            {key_col: t[key_col].take(oidx),
             "val": t[val_col].take(oidx),
             "valid_from": pa.array(ts[starts]),
             "valid_to": pa.array(nxt, mask=~same_key)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def pivot_counts(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
    values: list[str],
) -> pa.Table:
    """Crosstab: one output row per ``row_col`` value with a count
    column per entry of ``values`` (``n_<slug>``, slugged to SQL-safe
    lowercase identifiers) plus ``n_other`` for unlisted values —
    ``count(*) FILTER (WHERE col = v)`` semantics, the wide-report
    primitive over bounded-cardinality dimensions.

    Scale shape: each block reduces to a ≤(rows-vocab × len(values)+2)
    count partial via factorize+bincount, one vocabulary-sized
    ``groupby(row_col)`` merges partials, and the driver emits the
    (tiny) wide table."""
    if not values:
        raise ValueError("values must be a non-empty list")
    slugs = []
    for v in values:
        s = "n_" + "".join(ch if ch.isalnum() else "_" for ch in v).lower()
        slugs.append(s)
    if len(set(slugs)) != len(slugs):
        raise ValueError(f"values slug to colliding column names: {slugs}")
    vindex = pd.Index(values)
    W = len(values)

    def partial(t: pa.Table) -> pa.Table:
        r = t[row_col].to_numpy(zero_copy_only=False)
        c = t[col_col].to_numpy(zero_copy_only=False)
        rcodes, runiq = pd.factorize(r)
        vcodes = vindex.get_indexer(c)  # -1 → other
        flat = rcodes * (W + 1) + np.where(vcodes < 0, W, vcodes)
        cnt = np.bincount(flat, minlength=len(runiq) * (W + 1)).reshape(
            len(runiq), W + 1
        )
        cols = {row_col: pa.array(runiq.astype(object), pa.string())}
        for k, s in enumerate(slugs):
            cols[s] = pa.array(cnt[:, k].astype(np.int64))
        cols["n_other"] = pa.array(cnt[:, W].astype(np.int64))
        return pa.table(cols)

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(row_col)
        .aggregate(*(Sum(s, alias_name=s) for s in slugs + ["n_other"]))
    )
    out = agg.to_pandas()
    for s in slugs + ["n_other"]:
        out[s] = out[s].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def time_weighted_avg(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    cents_scale: float = 100.0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Time-weighted average per key (TWAP): each value holds from its
    event until the next (left-continuous step function), so
    ``twap = Σ cᵢ·(tsᵢ₊₁−tsᵢ) / (ts_last − ts_first)`` → rows (key,
    twap), NULL when every event shares one timestamp; single-event
    keys are omitted (no holding interval — the SQL inner-join
    semantics). The stream-analytics primitive for sensor/price data.

    Scale shape: one ≤``n_buckets`` key-hash exchange; inside a bucket
    one lexsort + shifted diffs produce every holding interval, and the
    weighted sums are EXACT integers: an int64 ``reduceat`` fast path
    guarded by a float overflow probe (Σ|c·gap| < 2⁶² per key), with a
    Python big-int fallback per oversized key — never silently wrong.
    Readout is pinned-order ``(Σ / T) / cents_scale`` doubles, so the
    DuckDB HUGEINT oracle replays it bit-for-bit."""

    def prep(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        return pa.table(
            {key_col: t[key_col], id_col: t[id_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             "__c__": pa.array(c)}
        )

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        empty = pa.table({key_col: pa.array([], ktype),
                          "twap": pa.array([], pa.float64())})
        if len(t) == 0:
            return empty
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        n = len(order)
        ts = t[ts_col].to_numpy()[order]
        c = t["__c__"].to_numpy()[order]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        multi = sizes >= 2
        if not multi.any():
            return empty
        # holding gap per non-last row of each key
        gap = np.zeros(n, np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        last = np.zeros(n, bool)
        last[starts + sizes - 1] = True
        gap[last] = 0
        # exact Σ c·gap per key: int64 reduceat when the float probe
        # says no prefix can overflow, else big-int fallback per key
        absf = np.abs(c.astype(np.float64)) * gap.astype(np.float64)
        seg_abs = np.add.reduceat(absf, starts)
        T = ts[starts + sizes - 1] - ts[starts]
        s_obj = np.empty(len(starts), dtype=object)
        safe = seg_abs < float(2 ** 62)
        if safe.any():
            prod = c * gap  # may wrap only for unsafe keys
            seg_sum = np.add.reduceat(prod, starts)
            s_obj[safe] = seg_sum[safe].astype(object)
        for k in np.nonzero(~safe)[0]:
            lo, hi = starts[k], starts[k] + sizes[k]
            s_obj[k] = sum(int(a) * int(b)
                           for a, b in zip(c[lo:hi], gap[lo:hi]))
        twap = np.full(len(starts), np.nan)
        nz = multi & (T != 0)
        if nz.any():
            s_f = s_obj[nz].astype(np.float64)
            twap[nz] = np.round(
                (s_f / T[nz].astype(np.float64)) / cents_scale, 6
            )
        keep = multi
        oidx = pa.array(order[starts[keep]])
        tw = twap[keep]
        return pa.table(
            {key_col: t[key_col].take(oidx),
             "twap": pa.array(np.where(np.isnan(tw), None, tw),
                              pa.float64(), from_pandas=True)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def resample_counts(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    *,
    window_us: int = 86_400_000_000,
    n_buckets: int = 64,
    max_rows_per_bucket: int = 50_000_000,
) -> ray.data.Dataset:
    """Per-key time-series gap-fill (resample): → rows (key_col, win,
    n_events) for EVERY ``window_us`` window between each key's first and
    last event — empty windows emitted with n_events = 0 (the
    dashboard/feature-engineering primitive a plain groupby can't give
    you; win = floor(epoch_us / window_us), floor semantics for pre-epoch
    timestamps).

    Scale shape: each block pre-reduces to (key, win, n) partials (one
    lexsort — raw events never shuffle), the exchange key is a
    ≤``n_buckets`` hash bucket of the key, and inside a bucket the full
    window range is expanded vectorized (multi-arange + scatter of the
    observed counts). Expansion volume = Σ spans is guarded per bucket
    with an actionable error — a single sensor with a 10-year gap at 1 ms
    windows is a data bug, not a reason to OOM.
    """
    from record_matcher_ray.core.hashkernels import column_hash64

    if window_us <= 0:
        raise ValueError(f"window_us must be positive, got {window_us}")
    wu = np.int64(window_us)

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:  # keep key type stable for the exchange schema
            return pa.table(
                {key_col: t[key_col],
                 "win": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64()),
                 "__rb__": pa.array([], pa.int64())}
            )
        # normalize the unit first — from_items/pandas sources may carry
        # s/ms/ns timestamps; the SQL mirror is epoch_us
        ts = pc.cast(
            pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy()
        win = np.floor_divide(ts, wu)  # numpy // floors (SQL CASE mirrors)
        key = t[key_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(key)
        order = np.lexsort((win, codes))
        cs, ws = codes[order], win[order]
        first = np.empty(len(cs), bool)
        if len(cs):
            first[0] = True
            first[1:] = (cs[1:] != cs[:-1]) | (ws[1:] != ws[:-1])
        idx = np.flatnonzero(first)
        cnt = np.diff(np.append(idx, len(cs)))
        ku = pa.array(uniq).take(pa.array(cs[idx]))
        bucket = bucket_ids(
            column_hash64(pa.chunked_array([pa.array(uniq)])), n_buckets
        )
        return pa.table(
            {key_col: ku,
             "win": pa.array(ws[idx]),
             "n": pa.array(cnt.astype(np.int64)),
             "__rb__": pa.array(bucket[cs[idx]])}
        )

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        key = df[key_col].to_numpy()
        win = df["win"].to_numpy(dtype=np.int64)
        n = df["n"].to_numpy(dtype=np.int64)
        codes, uniq = pd.factorize(key)
        order = np.lexsort((win, codes))
        cs, ws, ns = codes[order], win[order], n[order]
        first = np.empty(len(cs), bool)
        first[0] = True
        first[1:] = (cs[1:] != cs[:-1]) | (ws[1:] != ws[:-1])
        idx = np.flatnonzero(first)
        # merge per-block partials of the same (key, win)
        grp = np.cumsum(first) - 1
        ns = np.bincount(grp, weights=ns).astype(np.int64)
        cs, ws = cs[idx], ws[idx]
        kfirst = np.empty(len(cs), bool)
        kfirst[0] = True
        kfirst[1:] = cs[1:] != cs[:-1]
        kidx = np.flatnonzero(kfirst)
        kend = np.append(kidx[1:], len(cs))
        lo = ws[kidx]
        hi = ws[kend - 1]
        span = (hi - lo + 1).astype(np.int64)
        total = int(span.sum())
        if total > max_rows_per_bucket:
            raise ValueError(
                f"resample_counts bucket would expand to {total} rows "
                f"(> max_rows_per_bucket={max_rows_per_bucket}); widen "
                f"window_us or raise the cap."
            )
        off = np.cumsum(span) - span
        # multi-arange of every key's full window range
        full_win = np.repeat(lo, span) + (
            np.arange(total, dtype=np.int64) - np.repeat(off, span)
        )
        full_n = np.zeros(total, np.int64)
        krank = np.cumsum(kfirst) - 1
        full_n[off[krank] + (ws - lo[krank])] = ns
        out_key = pd.Series(uniq).iloc[cs[kidx]].reset_index(drop=True)
        return pd.DataFrame(
            {key_col: np.repeat(out_key.to_numpy(), span),
             "win": full_win,
             "n_events": full_n}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__rb__")
        .map_groups(
            lambda df: expand(df.drop(columns=["__rb__"])),
            batch_format="pandas",
        )
    )


def running_total(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    cents_scale: float = 100.0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key cumulative sum (SQL ``SUM(v) OVER (PARTITION BY key ORDER
    BY ts, id ROWS UNBOUNDED PRECEDING)``) → rows (id_col, run_total
    rounded to 6dp) — the balance / lifetime-value primitive.

    Scale shape: same as ``rolling_mean`` — ≤``n_buckets`` key-hash
    exchange, one lexsort per bucket, values quantized once to integer
    units so the prefix sum is EXACT, one pinned-order double division.
    """

    def prep(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * cents_scale + 0.5
        ).astype(np.int64)
        return pa.table(
            {id_col: t[id_col], key_col: t[key_col],
             ts_col: pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                             pa.int64()),
             "__c__": pa.array(c)}
        )

    def windows(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "run_total": pa.array([], pa.float64())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        c_s = t["__c__"].to_numpy()[order]
        n = len(c_s)
        starts = np.nonzero(first)[0]
        seg_start = np.repeat(starts, np.diff(np.append(starts, n)))
        csum = np.concatenate(([0], np.cumsum(c_s, dtype=np.int64)))
        s = csum[np.arange(n) + 1] - csum[seg_start]
        tot = np.round(s.astype(np.float64) / cents_scale, 6)
        return pa.table(
            {id_col: t[id_col].take(pa.array(order)),
             "run_total": pa.array(tot)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], windows,
        n_buckets,
    )


def percent_rank_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    id_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """SQL ``percent_rank() OVER (PARTITION BY group ORDER BY val)`` per
    row → (id_col, group_col, pct_rank): (min_rank − 1) / (n_group − 1),
    ties share the rank of their first occurrence, single-row groups get
    0.0. No rounding needed — both sides divide the same two small exact
    integers, so the doubles are bit-identical.

    Scale shape: ≤``n_buckets`` group-hash exchange; inside a bucket one
    lexsort resolves every group (boundary flags give segment sizes and
    tie-run min-ranks via a running maximum — no per-group Python).
    """

    def local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             group_col: t[group_col],
                             "pct_rank": pa.array([], pa.float64())})
        kc, _ = pd.factorize(t[group_col].to_numpy(zero_copy_only=False))
        v = pc.cast(t[val_col], pa.float64()).to_numpy()
        idv = t[id_col].to_numpy()
        order = np.lexsort((idv, v, kc))
        k_s, v_s = kc[order], v[order]
        n = len(k_s)
        first = np.concatenate(([True], k_s[1:] != k_s[:-1]))
        starts = np.nonzero(first)[0]
        seg_len = np.diff(np.append(starts, n))
        seg_start = np.repeat(starts, seg_len)
        seg_n = np.repeat(seg_len, seg_len)
        vfirst = first.copy()
        vfirst[1:] |= v_s[1:] != v_s[:-1]
        idxs = np.arange(n)
        run_first = np.maximum.accumulate(np.where(vfirst, idxs, -1))
        rank = run_first - seg_start  # 0-based min rank
        pr = np.zeros(n, np.float64)
        multi = seg_n > 1
        pr[multi] = rank[multi].astype(np.float64) / (
            seg_n[multi] - 1
        ).astype(np.float64)
        return pa.table(
            {id_col: t[id_col].take(pa.array(order)),
             group_col: t[group_col].take(pa.array(order)),
             "pct_rank": pa.array(pr)}
        )

    return bucket_exchange(
        ds.select_columns([id_col, group_col, val_col]), [group_col], local,
        n_buckets,
    )


def rolling_active(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    *,
    window_days: int = 7,
    day_us: int = 86_400_000_000,
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Trailing-window distinct actives per day (the DAU/WAU/MAU
    primitive): → DataFrame (day, n_active) for EVERY day in the
    observed [min_day, max_day] range, where n_active counts keys with
    ≥1 event in [day − window_days + 1, day]. Distinct-over-a-sliding-
    window is not sum-decomposable, so this uses the interval-stab
    trick: each key's event-days merge into coverage intervals
    [d, d + window_days − 1]; an interval contributes +1 at its start
    and −1 past its end, and a single prefix sum over the (tiny) day
    axis yields every window's exact distinct count — no per-window
    re-scan, no HLL error.

    Scale shape: blocks pre-reduce to distinct (key, day) pairs; one
    hash aggregate dedupes them globally; interval merging is a
    ≤``n_buckets`` key-hash exchange with one lexsort per bucket; the
    ±1 deltas pre-aggregate per block (bincount) before the final
    day-keyed exchange, so the driver only ever sees O(#distinct days)
    rows regardless of corpus size.
    """
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    w = np.int64(window_days)

    def pair_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({key_col: t[key_col],
                             "d": pa.array([], pa.int64())})
        ts = pc.cast(
            pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()
        ).to_numpy()
        d = np.floor_divide(ts, np.int64(day_us))
        codes, uniq = pd.factorize(t[key_col].to_numpy(zero_copy_only=False))
        key = codes.astype(np.int64) * np.int64(2**32) + (d - d.min())
        uk = np.unique(key)
        ci = (uk // np.int64(2**32)).astype(np.int64)
        dv = (uk % np.int64(2**32)) + d.min()
        return pa.table({key_col: pa.array(uniq).take(pa.array(ci)),
                         "d": pa.array(dv)})

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby([key_col, "d"])
        .count()
        .drop_columns(["count()"])
        .materialize()  # two consumers: day-range aggregate + deltas
    )

    def deltas(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"day": pa.array([], pa.int64()),
                             "delta": pa.array([], pa.int64())})
        codes, _ = pd.factorize(t[key_col].to_numpy(zero_copy_only=False))
        d = t["d"].to_numpy()
        order = np.lexsort((d, codes))
        c_s, d_s = codes[order], d[order]
        # new interval when key changes or the gap leaves the window
        brk = np.empty(len(c_s), bool)
        brk[0] = True
        brk[1:] = (c_s[1:] != c_s[:-1]) | (d_s[1:] - d_s[:-1] > w - 1)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(c_s)) - 1
        lo = d_s[starts]                 # first covered day
        hi = d_s[ends] + (w - 1)         # last covered day
        days = np.concatenate([lo, hi + 1])
        dl = np.concatenate([np.ones(len(lo), np.int64),
                             np.full(len(hi), -1, np.int64)])
        # pre-aggregate deltas per day before the final exchange
        ud, inv = np.unique(days, return_inverse=True)
        agg = np.bincount(inv, weights=dl).astype(np.int64)
        return pa.table({"day": pa.array(ud), "delta": pa.array(agg)})

    from ray.data.aggregate import Max, Min, Sum

    rng = pairs.aggregate(Min("d"), Max("d"))
    if rng.get("min(d)") is None:
        return pd.DataFrame({"day": pd.array([], dtype=np.int64),
                             "n_active": pd.array([], dtype=np.int64)})
    lo_day, hi_day = int(rng["min(d)"]), int(rng["max(d)"])

    day_deltas = (
        bucket_exchange(pairs, [key_col], deltas, n_buckets)
        .groupby("day")
        .aggregate(Sum("delta", alias_name="delta"))
        .to_pandas()
    )
    if day_deltas.empty:
        return pd.DataFrame({"day": pd.array([], dtype=np.int64),
                             "n_active": pd.array([], dtype=np.int64)})
    dd = day_deltas.sort_values("day")
    days = dd["day"].to_numpy(dtype=np.int64)
    cum = np.cumsum(dd["delta"].to_numpy(dtype=np.int64))
    # coverage for every OBSERVED day in [min, max] event day: the step
    # function from the deltas, evaluated by predecessor search
    full = np.arange(lo_day, hi_day + 1, dtype=np.int64)
    idx = np.searchsorted(days, full, side="right") - 1
    n_active = cum[idx]
    return pd.DataFrame({"day": full, "n_active": n_active.astype(np.int64)})


def global_row_number(
    ds: ray.data.Dataset,
    order_cols: list[str],
    rn_col: str = "rn",
) -> ray.data.Dataset:
    """Dense global row numbers (SQL ``row_number() OVER (ORDER BY
    order_cols)``) → input columns + ``rn_col`` (1-based int64). The
    composite ``order_cols`` MUST be unique per row (include a unique id
    as the last column) — that is what makes the numbering well-defined
    and partition-invariant.

    Scale shape: ONE sort exchange (Ray's range-partitioned sort), then a
    two-pass offset assignment that never moves data again: pass 1 reads
    each sorted block's (first-key, row-count) — a few bytes per block —
    the driver prefix-sums them into an offset per block, and pass 2
    adds the broadcast offset to a local arange. No driver-side data
    pull, no second shuffle.
    """
    if not order_cols:
        raise ValueError("order_cols must be non-empty")

    m = ds.sort(order_cols).materialize()  # consumed by both passes

    def head(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.slice(0, 0).append_column(
                "__n__", pa.array([], pa.int64())
            )
        return t.slice(0, 1).append_column(
            "__n__", pa.array([len(t)], pa.int64())
        )

    # batch_size=None → one batch per materialized block, both passes
    heads = m.map_batches(head, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    if heads.empty:  # empty input: column-less frame, nothing to offset
        return m.map_batches(
            lambda t: t.append_column(rn_col, pa.array([], pa.int64())),
            batch_format="pyarrow",
        )
    # typed sort — the block order, NOT a stringified key order
    heads = heads.sort_values(order_cols).reset_index(drop=True)
    if heads.duplicated(subset=order_cols).any():
        raise ValueError(
            "global_row_number: two sorted blocks share a first-row key — "
            "order_cols is not unique per row; append a unique id column."
        )
    counts = heads["__n__"].to_numpy(dtype=np.int64)
    offsets = {
        tuple(row): off
        for row, off in zip(
            heads[order_cols].itertuples(index=False, name=None),
            (np.cumsum(counts) - counts).astype(np.int64),
        )
    }

    def assign(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.append_column(rn_col, pa.array([], pa.int64()))
        key = tuple(t[c][0].as_py() for c in order_cols)
        off = offsets[key]
        return t.append_column(
            rn_col, pa.array(off + 1 + np.arange(len(t), dtype=np.int64))
        )

    return m.map_batches(assign, batch_size=None, batch_format="pyarrow")


def sequence_pattern_counts(
    ds: ray.data.Dataset,
    pattern: str,
    codes: dict[str, str],
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """MATCH_RECOGNIZE-lite sequence mining: per key, order events by
    (ts, id), encode each event type to one ASCII char via ``codes``
    (rows with unlisted types are dropped — a restricted alphabet), and
    count non-overlapping regex ``pattern`` matches over the resulting
    string → (key_col, seq_len, n_matches). The funnel generalization:
    'l(e+)p' finds login→errors→purchase arcs a step-funnel can't.

    Scale shape: rows shrink to (key, ts, id, char) before the single
    ≤``n_buckets`` key-hash exchange; inside a bucket one lexsort orders
    every key and the per-key strings are zero-copy byte-slices of one
    uint8 array; the regex engine (C) runs once per key. Both Python
    ``re`` and DuckDB's RE2 count non-overlapping leftmost matches, so
    the oracle replays exactly for backtracking-free patterns.
    """
    if any(len(c) != 1 or ord(c) > 127 for c in codes.values()):
        raise ValueError("codes must map to single ASCII characters")
    import re as _re

    prog = _re.compile(pattern.encode("ascii"))
    code_items = sorted(codes.items())

    def prep(t: pa.Table) -> pa.Table:
        tv = t[type_col].to_numpy(zero_copy_only=False)
        ch = np.zeros(len(tv), np.uint8)
        keep = np.zeros(len(tv), bool)
        for name, c in code_items:
            m = tv == name
            ch[m] = ord(c)
            keep |= m
        out = pa.table(
            {key_col: t[key_col],
             ts_col: pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                             pa.int64()),
             id_col: t[id_col],
             "__ch__": pa.array(ch)}
        )
        return out.filter(pa.array(keep))

    def scan(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({key_col: t[key_col],
                             "seq_len": pa.array([], pa.int64()),
                             "n_matches": pa.array([], pa.int64())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        ch = t["__ch__"].to_numpy()[order]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(ch))
        buf = ch.tobytes()
        n_m = np.fromiter(
            (len(prog.findall(buf[s:e])) for s, e in zip(starts, ends)),
            dtype=np.int64, count=len(starts),
        )
        return pa.table(
            {key_col: t[key_col].take(pa.array(order[starts])),
             "seq_len": pa.array((ends - starts).astype(np.int64)),
             "n_matches": pa.array(n_m)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], scan,
        n_buckets,
    )


def sorted_neighborhood_pairs(
    ds: ray.data.Dataset,
    order_cols: list[str],
    id_col: str,
    window: int,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Sorted-neighborhood blocking (Hernandez & Stolfo's SNM — the
    classic entity-resolution candidate generator the reference's
    ``columns_to_group`` equi-blocking cannot express): sort every row
    by ``order_cols`` (MUST be unique per row — append ``id_col`` last),
    slide a ``window``-row frame down the sorted order, and emit every
    ordered candidate pair inside a frame → columns ``x_id``/``y_id``
    (the ``id_col`` values, x earlier in sort order) + ``gap`` (rank
    distance, 1..window-1). SQL equivalent: a row_number self-join on
    ``0 < b.rn - a.rn < window``.

    Scale shape: ONE sort exchange (the same two-pass offset assignment
    as ``global_row_number`` — block heads to the driver, broadcast
    offsets, no data pull), then rows shrink to (id, rn) and take ONE
    range exchange on ``rn // B`` with ≤``window-1`` boundary rows
    replicated into the preceding bucket, so every frame is complete in
    exactly one bucket and each pair is emitted exactly once. Pair
    construction inside a bucket is one repeat/arange expansion — no
    per-row Python. Output size is ≈ ``(window-1) × n_rows`` regardless
    of key skew (SNM's defining advantage over equi-blocking on hot
    keys).
    """
    if window < 2:
        raise ValueError("window must be >= 2 (window-1 neighbors)")
    if not order_cols:
        raise ValueError("order_cols must be non-empty")

    m = ds.sort(order_cols).materialize()  # consumed by both passes

    def head(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.slice(0, 0).append_column(
                "__n__", pa.array([], pa.int64())
            )
        return t.slice(0, 1).append_column(
            "__n__", pa.array([len(t)], pa.int64())
        )

    heads = m.map_batches(head, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    sch = m.schema()
    base = getattr(sch, "base_schema", None)
    id_type = (
        base.field(id_col).type
        if base is not None and id_col in base.names
        else pa.int64()  # empty input with no recoverable schema
    )

    def _empty() -> pa.Table:
        return pa.table({
            "x_id": pa.array([], id_type),
            "y_id": pa.array([], id_type),
            "gap": pa.array([], pa.int64()),
        })

    if heads.empty:
        return ray.data.from_arrow(_empty())
    heads = heads.sort_values(order_cols).reset_index(drop=True)
    if heads.duplicated(subset=order_cols).any():
        raise ValueError(
            "sorted_neighborhood_pairs: two sorted blocks share a "
            "first-row key — order_cols is not unique per row; append "
            "the id column."
        )
    counts = heads["__n__"].to_numpy(dtype=np.int64)
    n_rows = int(counts.sum())
    offsets = {
        tuple(row): off
        for row, off in zip(
            heads[order_cols].itertuples(index=False, name=None),
            (np.cumsum(counts) - counts).astype(np.int64),
        )
    }
    # bucket width ≥ window so a frame spans at most TWO buckets (one
    # replication hop); ≤ n_buckets buckets total
    bucket_w = max(window, -(-n_rows // n_buckets))

    def route(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({
                id_col: pa.array([], id_type),
                "__rn__": pa.array([], pa.int64()),
                "__sb__": pa.array([], pa.int64()),
            })
        key = tuple(t[c][0].as_py() for c in order_cols)
        r0 = offsets[key] + np.arange(len(t), dtype=np.int64)  # 0-based
        bucket = r0 // bucket_w
        ids = t[id_col].combine_chunks() if isinstance(
            t[id_col], pa.ChunkedArray) else t[id_col]
        base = pa.table({
            id_col: ids,
            "__rn__": pa.array(r0),
            "__sb__": pa.array(bucket),
        })
        # boundary rows double as RIGHT neighbors for the previous bucket
        extra = np.flatnonzero((r0 % bucket_w <= window - 2) & (bucket > 0))
        if len(extra):
            rep = pa.table({
                id_col: ids.take(pa.array(extra)),
                "__rn__": pa.array(r0[extra]),
                "__sb__": pa.array(bucket[extra] - 1),
            })
            base = pa.concat_tables([base, rep])
        return base

    def pairs(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _empty()
        b = int(t["__sb__"][0].as_py())
        rn = t["__rn__"].to_numpy()
        order = np.argsort(rn, kind="stable")
        rn_s = rn[order]
        ids = t[id_col].take(pa.array(order))
        owned = np.flatnonzero(rn_s // bucket_w == b)
        n = len(rn_s)
        cnt = np.minimum(window - 1, n - 1 - owned)
        cnt = np.maximum(cnt, 0)
        total = int(cnt.sum())
        if total == 0:
            return _empty()
        left = np.repeat(owned, cnt)
        starts = np.cumsum(cnt) - cnt
        right = left + (np.arange(total, dtype=np.int64)
                        - np.repeat(starts, cnt)) + 1
        return pa.table({
            "x_id": ids.take(pa.array(left)),
            "y_id": ids.take(pa.array(right)),
            "gap": pa.array(rn_s[right] - rn_s[left]),
        })

    return (
        m.map_batches(route, batch_size=None, batch_format="pyarrow")
        .groupby("__sb__")
        .map_groups(pairs, batch_format="pyarrow")
    )


def cube_aggregate(
    ds: ray.data.Dataset,
    dims: list[str],
    val_col: str,
    cents_scale: float = 100.0,
    all_label: str = "ALL",
) -> pa.Table:
    """GROUP BY CUBE(dims): counts and exact-cents value sums at EVERY
    dimension subset (2^|dims| granularities; :func:`rollup_aggregate`
    covers only the prefix chain) with collapsed dimensions labelled
    ``all_label`` → columns (*dims, n, sum_val). Same scale shape as
    rollup: blocks pre-aggregate to the finest tuple (exact integer
    cents), ONE vocabulary-sized exchange, and every coarser subset is
    derived from the materialized finest table — the 2^k blowup touches
    only the tiny finest vocabulary, never the corpus.
    """
    import itertools

    if not dims:
        raise ValueError("dims must be a non-empty list")
    # reuse rollup's finest-level machinery for partials + validation
    finest_tbl = rollup_aggregate(
        ds, dims, val_col, cents_scale=cents_scale,
        all_label="\x00__cube_unused__",
    )
    fin = finest_tbl.to_pandas()
    # rollup output contains the prefix-chain levels; keep ONLY the
    # finest rows (no sentinel labels) and rebuild cents exactly
    mask = np.ones(len(fin), bool)
    for d in dims:
        mask &= fin[d].to_numpy() != "\x00__cube_unused__"
    fin = fin[mask].copy()
    fin["cents"] = np.round(
        fin["sum_val"].to_numpy() * cents_scale
    ).astype(np.int64)
    levels = []
    for r in range(len(dims), -1, -1):
        for keep in itertools.combinations(dims, r):
            if len(keep) == len(dims):
                lv = fin[list(dims) + ["n", "cents"]].copy()
            elif keep:
                lv = fin.groupby(list(keep), sort=False).agg(
                    n=("n", "sum"), cents=("cents", "sum")
                ).reset_index()
            else:
                lv = pd.DataFrame(
                    {"n": [int(fin["n"].sum())],
                     "cents": [int(fin["cents"].sum())]}
                )
            for d in dims:
                if d not in keep:
                    lv[d] = all_label
            levels.append(lv[list(dims) + ["n", "cents"]])
    out = pd.concat(levels, ignore_index=True)
    out["sum_val"] = np.round(
        out["cents"].to_numpy().astype(np.float64) / cents_scale, 6
    )
    out = out.drop(columns=["cents"])
    out["n"] = out["n"].astype(np.int64)
    return pa.Table.from_pandas(out, preserve_index=False)


def ewma_by_key(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    alpha: float = 0.2,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Exponentially weighted moving average per key: fold the key's
    events in (ts, id) order through ``s ← α·x + (1−α)·s`` (seeded with
    the first value) and emit the final smoothed level → rows
    (key, n, ewma) — the streaming-smoothing primitive for per-entity
    price/score/sensor levels.

    Parity recipe: the fold is pinned-order IEEE doubles — numpy's
    elementwise ``α·x + β·s`` (no FMA) is exactly DuckDB's
    ``list_reduce(list(x ORDER BY ts, id), (s, x) -> α·x + β·s)`` when
    β is computed as ``1.0 − α`` on BOTH sides (1−0.2 is NOT the double
    literal 0.8); readout is the repo's signed half-up 6dp.

    Scale shape: one ≤``n_buckets`` key-hash exchange; inside a bucket
    one lexsort orders every key's segment and the fold runs as
    max-segment-length vectorized sweeps ACROSS keys (gather at
    ``starts + j``), so per-row work is O(1) with no Python per-row
    loop; null keys/values drop (mirrored by the oracle's WHERE).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a = float(alpha)
    b = 1.0 - a

    def prep(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[val_col]))
        t = t.filter(ok)
        return pa.table(
            {key_col: t[key_col], id_col: t[id_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             "__x__": pc.cast(t[val_col], pa.float64())}
        )

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        if len(t) == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "n": pa.array([], pa.int64()),
                             "ewma": pa.array([], pa.float64())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        x = t["__x__"].to_numpy()[order]
        n = len(x)
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        s = x[starts].copy()
        max_len = int(sizes.max())
        for j in range(1, max_len):
            act = np.nonzero(sizes > j)[0]
            s[act] = a * x[starts[act] + j] + b * s[act]
        ew = np.where(s >= 0, np.floor(s * 1e6 + 0.5),
                      -np.floor(-s * 1e6 + 0.5)) / 1e6
        return pa.table(
            {key_col: t[key_col].take(pa.array(order[starts])),
             "n": pa.array(sizes.astype(np.int64)),
             "ewma": pa.array(ew)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def cusum_by_key(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    id_col: str = "event_id",
    target: float = 0.0,
    slack: float = 0.5,
    threshold: float = 5.0,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key two-sided CUSUM drift detector (Page 1954): fold the
    key's values in (ts, id) order through

        hi ← max(0, hi + x − target − slack)
        lo ← max(0, lo − x + target − slack)

    from hi = lo = 0 and emit the final statistics plus an alarm flag
    (``hi > threshold OR lo > threshold``) → rows
    (key, n, cusum_hi, cusum_lo, alarm) — the classic sequential
    change-point primitive for per-entity metric streams.

    Parity recipe: both updates are pinned-order IEEE doubles —
    numpy's ``max(0, ((s + x) − target) − slack)`` left-associated chain
    is exactly DuckDB's ``list_reduce(list(x ORDER BY ts, id),
    (s, x) -> greatest(0, s + x - target - slack))``; the alarm compare
    runs on identical doubles both sides; readout is the repo's signed
    half-up 6dp.

    Scale shape: identical to `ewma_by_key` — one ≤``n_buckets``
    key-hash exchange, one lexsort per bucket, the fold runs as
    max-segment-length vectorized sweeps ACROSS keys; null keys/values
    drop (mirrored by the oracle's WHERE).
    """
    tg, k, h = float(target), float(slack), float(threshold)
    if not k >= 0.0:
        raise ValueError(f"slack must be >= 0, got {slack}")

    def prep(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[key_col]), pc.is_valid(t[val_col]))
        t = t.filter(ok)
        return pa.table(
            {key_col: t[key_col], id_col: t[id_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             "__x__": pc.cast(t[val_col], pa.float64())}
        )

    def _round6(v: np.ndarray) -> np.ndarray:
        return np.where(v >= 0, np.floor(v * 1e6 + 0.5),
                        -np.floor(-v * 1e6 + 0.5)) / 1e6

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        if len(t) == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "n": pa.array([], pa.int64()),
                             "cusum_hi": pa.array([], pa.float64()),
                             "cusum_lo": pa.array([], pa.float64()),
                             "alarm": pa.array([], pa.int32())})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        x = t["__x__"].to_numpy()[order]
        n = len(x)
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        hi = np.zeros(len(starts), dtype=np.float64)
        lo = np.zeros(len(starts), dtype=np.float64)
        max_len = int(sizes.max())
        for j in range(max_len):
            act = np.nonzero(sizes > j)[0]
            xj = x[starts[act] + j]
            hi[act] = np.maximum(0.0, hi[act] + xj - tg - k)
            lo[act] = np.maximum(0.0, lo[act] - xj + tg - k)
        alarm = ((hi > h) | (lo > h)).astype(np.int32)
        return pa.table(
            {key_col: t[key_col].take(pa.array(order[starts])),
             "n": pa.array(sizes.astype(np.int64)),
             "cusum_hi": pa.array(_round6(hi)),
             "cusum_lo": pa.array(_round6(lo)),
             "alarm": pa.array(alarm)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def interval_union_by_key(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    duration_us: int = 3_600_000_000,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Gaps-and-islands interval union per key: each event opens an
    interval [ts, ts + duration_us); overlapping or touching intervals
    of the same key merge into islands → rows
    (key, island_start, island_end, n_events) — the coverage primitive
    behind uptime/session-coverage/exposure-window questions that
    `sessionize` (gap-based) doesn't answer.

    All-integer µs arithmetic — hash-exact against the SQL window
    replay (running max of interval end, new island when start exceeds
    it) with no float pinning.

    Scale shape: one ≤``n_buckets`` key-hash exchange; inside a bucket
    one lexsort orders every key's intervals and the running max runs
    as max-segment-length vectorized sweeps ACROSS keys (the
    `ewma_by_key` layout); island stats close with order-independent
    ``reduceat`` min/max.
    """
    dur = np.int64(int(duration_us))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[key_col]))
        return pa.table(
            {key_col: t[key_col], id_col: t[id_col],
             ts_col: pc.cast(t[ts_col], pa.int64())}
        )

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        z = pa.array([], pa.int64())
        if len(t) == 0:
            return pa.table({key_col: pa.array([], ktype),
                             "island_start": z, "island_end": z,
                             "n_events": z})
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        s = t[ts_col].to_numpy()[order]
        e = s + dur
        n = len(s)
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        # running max of e with per-key reset (lockstep sweep)
        rmax = np.empty(n, np.int64)
        rmax[starts] = e[starts]
        for j in range(1, int(sizes.max())):
            idx = starts[np.nonzero(sizes > j)[0]] + j
            rmax[idx] = np.maximum(rmax[idx - 1], e[idx])
        new_isl = first | (s > np.concatenate(([np.iinfo(np.int64).min],
                                               rmax[:-1])))
        isl_start = np.nonzero(new_isl)[0]
        cnt = np.diff(np.append(isl_start, n)).astype(np.int64)
        i_start = s[isl_start]
        i_end = np.maximum.reduceat(e, isl_start)
        return pa.table(
            {key_col: t[key_col].take(pa.array(order[isl_start])),
             "island_start": pa.array(i_start),
             "island_end": pa.array(i_end),
             "n_events": pa.array(cnt)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def attribute_conversions(
    ds: ray.data.Dataset,
    key_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
    conversion: str = "purchase",
    channels: tuple[str, ...] = ("click", "view"),
    lookback_us: int = 604_800_000_000,
    n_buckets: int = 64,
    touch: str = "last",
) -> ray.data.Dataset:
    """Last-touch (or, with ``touch="first"``, first-touch) marketing
    attribution: each ``conversion`` event attributes to the key's most
    recent — or the key's FIRST — PRECEDING ``channels`` event
    (order (ts, id)); unattributed when that touch is outside
    ``lookback_us`` → one row per conversion
    (id, key, conv_ts, attributed_id, attributed_type, lag_us) with
    NULLs for unattributed conversions. The who-gets-credit primitive
    of funnel analytics.

    All-integer/string output — hash-exact against the SQL
    ``last_value(... IGNORE NULLS)`` window replay with the identical
    (ts, id) frame and lookback cut.

    Scale shape: one ≤``n_buckets`` key-hash exchange; the
    carry-last-channel state sweeps vectorized ACROSS keys per row
    rank (the `ewma_by_key` lockstep layout — no per-row Python).
    """
    if touch not in ("last", "first"):
        raise ValueError(f"touch must be 'last' or 'first', got {touch!r}")
    # the conversion type appearing in channels would overwrite its -1
    # code below and silently empty the output; dup channels shadow too
    if conversion in channels:
        raise ValueError(
            f"conversion type {conversion!r} must not be in channels"
        )
    if len(set(channels)) != len(channels):
        raise ValueError(f"duplicate channel names in {channels!r}")
    look = np.int64(int(lookback_us))
    chan = list(channels)

    def prep(t: pa.Table) -> pa.Table:
        tv = pc.cast(t[type_col], pa.string())
        keep = pc.and_(
            pc.is_valid(t[key_col]),
            pc.is_in(tv, value_set=pa.array(chan + [conversion])),
        )
        t = t.filter(keep)
        tv = pc.cast(t[type_col], pa.string())
        # type code: index into channels, -1 for the conversion type
        code = np.full(len(t), -1, np.int8)
        tn = tv.to_numpy(zero_copy_only=False)
        for i, c in enumerate(chan):
            code[tn == c] = np.int8(i)
        return pa.table(
            {key_col: t[key_col], id_col: t[id_col],
             ts_col: pc.cast(t[ts_col], pa.int64()),
             "__tc__": pa.array(code)}
        )

    def local(t: pa.Table) -> pa.Table:
        ktype = t.schema.field(key_col).type
        z = pa.array([], pa.int64())
        empty = pa.table(
            {id_col: z, key_col: pa.array([], ktype),
             "conv_ts": pa.array([], pa.int64()),
             "attributed_id": pa.array([], pa.int64()),
             "attributed_type": pa.array([], pa.string()),
             "lag_us": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        order, first, _ = _per_key_sorted(t, key_col, ts_col, id_col)
        ts = t[ts_col].to_numpy()[order]
        ids = t[id_col].to_numpy()[order]
        code = t["__tc__"].to_numpy()[order]
        n = len(ts)
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        nseg = len(starts)
        st_ts = np.zeros(nseg, np.int64)
        st_id = np.zeros(nseg, np.int64)
        st_code = np.full(nseg, -1, np.int8)
        src_ts = np.empty(n, np.int64)
        src_id = np.empty(n, np.int64)
        src_code = np.full(n, -1, np.int8)
        for j in range(int(sizes.max())):
            act = np.nonzero(sizes > j)[0]
            idx = starts[act] + j
            # conversions read the state (preceding rows only)
            src_ts[idx] = st_ts[act]
            src_id[idx] = st_id[act]
            src_code[idx] = st_code[act]
            # channel rows update the state
            ch = code[idx] >= 0
            if touch == "first":  # keep the earliest touch forever
                ch &= st_code[act] < 0
            st_ts[act[ch]] = ts[idx[ch]]
            st_id[act[ch]] = ids[idx[ch]]
            st_code[act[ch]] = code[idx[ch]]
        conv = code == -1
        c_ts, c_id = ts[conv], ids[conv]
        c_sts, c_sid = src_ts[conv], src_id[conv]
        c_sc = src_code[conv]
        hit = (c_sc >= 0) & (c_ts - c_sts <= look)
        lag = c_ts - c_sts
        type_map = np.asarray(chan + [""], dtype=object)
        at = type_map[np.where(hit, c_sc, len(chan))]
        miss = ~hit
        return pa.table(
            {id_col: pa.array(c_id),
             key_col: t[key_col].take(
                 pa.array(order[np.nonzero(conv)[0]])),
             "conv_ts": pa.array(c_ts),
             "attributed_id": pa.array(c_sid, pa.int64(), mask=miss),
             "attributed_type": pa.array(at, pa.string(), mask=miss),
             "lag_us": pa.array(lag, pa.int64(), mask=miss)}
        )

    return bucket_exchange(
        ds.map_batches(prep, batch_format="pyarrow"), [key_col], local,
        n_buckets,
    )


def late_event_audit(
    ds: ray.data.Dataset,
    *,
    lateness_us: int = 3_600_000_000,
    id_col: str = "event_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
) -> ray.data.Dataset:
    """Watermark / late-data audit — the streaming-semantics primitive
    next to the window family: replay events in ARRIVAL order
    (``id_col``), maintain the watermark ``max(event time so far) −
    lateness``, and flag every event whose time falls behind the
    watermark of the PRIOR arrivals (what a streaming engine would drop
    or side-output) → per ``type_col``:
    (event_type, n_events, n_late, max_lag_us).

    All-integer semantics (µs timestamps, strict comparison
    ``ts < prior_max − lateness``) so the SQL running-max window replay
    is hash-exact; the first arrival is never late.

    Scale shape: one sort by arrival id, then the `global_row_number`
    two-pass trick for the cross-block running max — pass 1 reads each
    sorted block's (first id, max ts), the driver prefix-maxes them into
    an exclusive carry per block, pass 2 flags lateness block-locally
    with the broadcast carry. Final reduce is a tiny hash aggregate."""
    look = np.int64(int(lateness_us))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t[id_col]),
                             pc.is_valid(t[ts_col])))
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "__ts__": pc.cast(t[ts_col], pa.int64()),
            type_col: pc.cast(t[type_col], pa.string()),
        })

    m = ds.map_batches(prep, batch_format="pyarrow").sort(id_col).materialize()

    def head(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"__fid__": pa.array([], pa.int64()),
                             "__mx__": pa.array([], pa.int64())})
        return pa.table({
            "__fid__": pa.array([t[id_col][0].as_py()], pa.int64()),
            "__mx__": pa.array(
                [int(t["__ts__"].to_numpy().max())], pa.int64()),
        })

    heads = m.map_batches(head, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    heads = heads.sort_values("__fid__").reset_index(drop=True)
    mx = heads["__mx__"].to_numpy(dtype=np.int64)
    # exclusive prefix max: carry for block i = max over blocks < i
    carry = np.full(len(mx), np.iinfo(np.int64).min, dtype=np.int64)
    if len(mx) > 1:
        carry[1:] = np.maximum.accumulate(mx)[:-1]
    carry_of = dict(zip(heads["__fid__"].to_numpy(dtype=np.int64),
                        carry))

    out_schema = pa.schema([
        (type_col, pa.string()), ("n", pa.int64()),
        ("late", pa.int64()), ("lag", pa.int64()),
    ])

    def flag(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        ts = t["__ts__"].to_numpy()
        c = carry_of[int(t[id_col][0].as_py())]
        run = np.empty(len(ts), np.int64)
        run[0] = c
        if len(ts) > 1:
            run[1:] = np.maximum(np.maximum.accumulate(ts)[:-1], c)
        late = (run != np.iinfo(np.int64).min) & (ts < run - look)
        lag = np.where(late, run - ts, 0)
        tv = t[type_col].to_numpy(zero_copy_only=False)
        import pandas as _pd

        codes, uniq = _pd.factorize(tv)
        return pa.table({
            type_col: pa.array(np.asarray(uniq, object), pa.string()),
            "n": pa.array(np.bincount(codes).astype(np.int64)),
            "late": pa.array(np.bincount(
                codes, weights=late.astype(np.int64)).astype(np.int64)),
            "lag": pa.array(np.array([
                int(lag[codes == k].max()) if (codes == k).any() else 0
                for k in range(len(uniq))], np.int64)),
        })

    parts = m.map_batches(flag, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    agg = parts.groupby(type_col).agg(
        n_events=("n", "sum"), n_late=("late", "sum"),
        max_lag_us=("lag", "max"),
    ).reset_index().sort_values(type_col).reset_index(drop=True)
    import ray.data as rd

    return rd.from_pandas(agg)
