"""The distributed match pipeline — `records_match` + `RecordMatcher.match`
(reference matcher.py:92-216, 320-449) re-expressed as a Ray Data pipeline.

Dataflow (SURVEY.md §4.3):

1. **uniqueness aggregate** (one streaming pass over X + two tiny shuffles
   of deduplicated partials) → small dict, broadcast into stage closures.
2. **normalize + key-derive** — `map_batches` over zero-copy Arrow: cast
   match/group columns to string, fill nulls with "", derive the blocking
   key (the `columns_to_group` value tuple — exact semantics of
   records.group_by at records.py:106-132).
3. **blocking shuffle** — tag sides, union, `groupby(key).map_groups`:
   within a group every x-row sees exactly its reference candidate set, so
   the per-x argmax reduce is group-local (no second wide shuffle). The
   vectorized `score_block` kernel runs per group.
   With NO group columns the reference scans all of Y per x
   (matcher.py:179-182); here Y is broadcast once via `ray.put` and scored
   against each X batch in a stateless `map_batches` — no shuffle at all.
4. **duplicate pass** — project winners to 3 columns, `groupby(winner_y_id)`
   (a shuffle over winner triples only, not the data), resolve with the
   shared `resolve_duplicates`, collect the (typically tiny) flip set and
   broadcast it into the finalize stage. Flips are bounded by y-rows winning
   multiple x's; they are NOT O(|X|) under sane blocking.
5. **finalize** — `map_batches`: status display-mapping, flip application,
   strict-mode quirk columns, output column assembly.

The scored intermediate is consumed twice (winners projection + finalize) —
it is materialized; at 100 TB route it through the checkpoint layer
(state/checkpoint.py) instead, which writes stage output as partitioned
parquet with lineage manifests.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from record_matcher_ray.core.config import MatchConfig
from record_matcher_ray.core.dup import resolve_duplicates
from record_matcher_ray.core.exchange import bucket_exchange
from record_matcher_ray.core.kernel import MATCH_STATUS, NO_WINNER, score_block
from record_matcher_ray.pipelines import table_ops

COLUMNS_TO_ADD = {
    "match_status": "match_status",
    "matched_with_row": "row(s)_matched",
    "match_score": "match_score",
}

_KEY = "__key__"
_SIDE = "__side__"
_RID = "__rid__"
_SEP = "\x1f"


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """Arrow schema of a Dataset regardless of its block format (pandas
    blocks report numpy dtypes through ds.schema())."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    for b in ds.limit(1).iter_batches(batch_size=1, batch_format="pyarrow"):
        return b.schema
    return pa.schema([(n, pa.string()) for n in sch.names])


def _norm(batch: pa.Table, col: str) -> pa.Array:
    if col in batch.column_names:
        return pc.fill_null(pc.cast(batch[col], pa.string()), "").combine_chunks()
    return pa.nulls(len(batch), pa.string()).fill_null("")


def _key_expr(batch: pa.Table, cols: list[str]) -> pa.Array:
    if not cols:
        return pa.array([""] * len(batch), pa.string())
    parts = [_norm(batch, c) for c in cols]
    out = parts[0]
    for p in parts[1:]:
        out = pc.binary_join_element_wise(out, p, _SEP)
    return out


class MatchResult:
    """Handle over the matched Dataset + the reference-quirk summary."""

    def __init__(self, dataset: ray.data.Dataset, summary: Counter):
        self.dataset = dataset
        self.summary = summary

    def __iter__(self):  # (dataset, summary) tuple-unpacking convenience
        yield self.dataset
        yield self.summary


def resolve_winner_arrays(
    xid: np.ndarray,
    yid: np.ndarray,
    sc: np.ndarray,
    duplicate_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized twin of core.dup.resolve_duplicates across ALL y-groups
    of (x_id, winner_y_id, winner_score) rows at once (the per-group
    Python call was ~0.04 ms × |groups| — at a corpus where most entities
    have several mentions nearly every winner group is multi, so the loop
    dominated). → (flip x_ids int64, verdicts object: "duplicate"/"demote").
    Callers must pass whole y-groups (any superset partitioning works)."""
    n = len(xid)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, object)
    order = np.argsort(yid, kind="stable")
    y_s = yid[order]
    x_s, sc_s = xid[order], sc[order]
    bounds = np.nonzero(np.concatenate(([True], y_s[1:] != y_s[:-1])))[0]
    sizes = np.diff(np.concatenate((bounds, [n])))
    mx = np.maximum.reduceat(sc_s, bounds)
    mn = np.minimum.reduceat(sc_s, bounds)
    is_max = sc_s == np.repeat(mx, sizes)
    n_max = np.add.reduceat(is_max.astype(np.int64), bounds)
    multi = sizes > 1
    dup_g = multi & ((n_max > 1) | (np.abs(mx - mn) < duplicate_threshold))
    dem_g = multi & ~dup_g
    grp = np.repeat(np.arange(len(bounds)), sizes)
    dup_rows = dup_g[grp]
    dem_rows = dem_g[grp] & ~is_max
    verdict = np.empty(int(dup_rows.sum()) + int(dem_rows.sum()), object)
    verdict[: dup_rows.sum()] = "duplicate"
    verdict[dup_rows.sum():] = "demote"
    return (
        np.concatenate([x_s[dup_rows], x_s[dem_rows]]).astype(np.int64),
        verdict,
    )


def compute_flips(
    scored: ray.data.Dataset,
    duplicate_threshold: float,
    x_id_col: str = "__x_id__",
    n_buckets: int = 64,
    driver_cap: int = 5_000_000,
) -> dict[int, str]:
    """Duplicate pass (matcher.py:408-447): project winners to 3 narrow
    columns and resolve each winner_y_id group with the shared rule;
    returns the x_id → verdict flip map (which is driver-resident by
    contract — callers broadcast it). Under ``driver_cap`` winner rows the
    narrow (24 B/row) projection is pulled to the driver and resolved in
    ONE vectorized pass — no shuffle round. Above the cap, winners are
    hash-bucketed by winner_y_id (one vectorized call per bucket, not one
    Python call per y group) through the sort shuffle.
    ``scored`` needs x_id_col / winner_y_id / winner_score."""

    def winners(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch["winner_y_id"], NO_WINNER)
        t = batch.filter(mask)
        return t.select([x_id_col, "winner_y_id", "winner_score"])

    def resolve_bucket(t: pa.Table) -> pa.Table:
        n = len(t)
        empty = pa.schema([("x_id", pa.int64()), ("verdict", pa.string())])
        if n == 0:
            return empty.empty_table()
        flip_x, flip_v = resolve_winner_arrays(
            t[x_id_col].to_numpy(),
            t["winner_y_id"].to_numpy(),
            t["winner_score"].to_numpy(),
            duplicate_threshold,
        )
        return pa.table(
            {"x_id": pa.array(flip_x, pa.int64()),
             "verdict": pa.array(flip_v, pa.string())}
        )

    w = scored.map_batches(winners, batch_format="pyarrow").materialize()
    if w.count() <= driver_cap:
        # narrow int64/float64 triples — concat refs, never iter_batches
        # on the driver (CLAUDE.md: driver batch loops fault-bound)
        parts = [p for p in ray.get(w.to_arrow_refs()) if len(p)]
        tbl = (
            pa.concat_tables(parts).combine_chunks()
            if parts
            else pa.schema(
                [(x_id_col, pa.int64()), ("winner_y_id", pa.int64()),
                 ("winner_score", pa.float64())]
            ).empty_table()
        )
        flips_tbl = resolve_bucket(tbl)
        if len(flips_tbl):
            return dict(
                zip(
                    flips_tbl["x_id"].to_numpy().tolist(),
                    flips_tbl["verdict"].to_pylist(),
                )
            )
        return {}
    flips_df = bucket_exchange(
        w, ["winner_y_id"], resolve_bucket, n_buckets
    ).to_pandas()
    if len(flips_df) and "x_id" in flips_df.columns:
        return dict(zip(flips_df["x_id"].astype(np.int64), flips_df["verdict"]))
    return {}


def match_datasets(
    x_ds: ray.data.Dataset,
    y_ds: ray.data.Dataset,
    cfg: MatchConfig,
    x_id: str,
    y_id: str,
    *,
    uniqueness: dict[str, float] | None = None,
    batch_size: int = 4096,
    hot_key_cap: int | None = None,
    max_broadcast_rows: int = 5_000_000,
    progress: "Callable[[str, dict], None] | None" = None,
) -> MatchResult:
    """Match every row of ``x_ds`` against candidates in ``y_ds``.

    ``x_id`` / ``y_id`` name int64 columns of stable unique row ids (the
    reference's dict indices, load-bearing in the output strings —
    matcher.py:393-396).

    ``hot_key_cap``: when set, blocking keys whose y-side exceeds the cap
    are split into sub-blocks (skew salting) with a per-x merge, instead of
    landing one giant group on one task. Semantics identical; ambiguous tie
    strings for hot keys order by y_id (documented deviation).

    ``max_broadcast_rows``: guard for the ungrouped path (no blocking
    columns), which broadcasts ALL of Y into the object store. A Y larger
    than this raises with guidance instead of OOMing the driver — give Y
    blocking columns (``columns_to_group``) so the shuffled path runs, as
    the reference itself requires for tractability at scale.

    ``progress``: optional per-stage callback ``(stage_name, info_dict)``
    — the Ray-path analogue of the reference's ``update_func``
    (matcher.py:320-332); fired on the driver at stage boundaries
    (uniqueness → scored → duplicate_pass → summary → finalize_scheduled).
    """
    def _tick(stage: str, info: dict) -> None:
        if callable(progress):
            progress(stage, info)
    x_match_cols = cfg.x_match_columns()
    group_y = [y for y, _ in cfg.columns_to_group]
    group_x = [x for _, x in cfg.columns_to_group]
    y_needed = cfg.y_columns_needed()
    x_schema = x_ds.schema()
    x_passthrough = [c for c in x_schema.names]

    if uniqueness is None:
        uniqueness = table_ops.uniqueness(x_ds, x_match_cols)
    _tick("uniqueness", dict(uniqueness))

    if cfg.columns_to_group:
        scored = _match_shuffled(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_passthrough, x_match_cols, group_x, group_y, y_needed,
            hot_key_cap=hot_key_cap,
        )
    else:
        scored = _match_broadcast(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_match_cols, y_needed, batch_size,
            max_broadcast_rows=max_broadcast_rows,
        )

    scored = scored.materialize()
    _tick("scored", {"rows": scored.count()})
    flips = compute_flips(scored, cfg.duplicate_threshold)
    flips_ref = ray.put(flips)
    _tick("duplicate_pass", {"flips": len(flips)})

    # ---- summary (reference over-count quirk, SURVEY.md §2.5.3) ----------
    summary = Counter()
    pre_counts = scored.groupby("pre_status").count().to_pandas()
    for _, row in pre_counts.iterrows():
        summary[row["pre_status"]] += int(row["count()"])
    for v in flips.values():
        summary["duplicate" if v == "duplicate" else "unmatched"] += 1

    # ---- finalize --------------------------------------------------------
    get_pairs = cfg.columns_to_get
    strict = cfg.strict_semantics
    status_col = COLUMNS_TO_ADD["match_status"]
    rows_col = COLUMNS_TO_ADD["matched_with_row"]
    score_col = COLUMNS_TO_ADD["match_score"]

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        fl = ray.get(flips_ref)
        n = len(df)
        xids = df["__x_id__"].to_numpy()
        pre = df["pre_status"].to_numpy(dtype=object)
        final = np.array([MATCH_STATUS[s] for s in pre], dtype=object)
        rows_s = df["rows_matched"].to_numpy(dtype=object)
        score_s = df["match_score_str"].to_numpy(dtype=object)
        out = pd.DataFrame()
        for c in x_passthrough:
            out[c] = df["x::" + c].values
        copied = {x_col: df["get::" + x_col].to_numpy(dtype=object) for _, x_col in get_pairs}
        demoted = np.zeros(n, dtype=bool)
        if fl:
            for i, xid in enumerate(xids):
                v = fl.get(int(xid))
                if v == "duplicate":
                    final[i] = MATCH_STATUS["duplicate"]
                elif v == "demote":
                    final[i] = MATCH_STATUS["unmatched"]
                    rows_s[i] = ""
                    score_s[i] = ""
                    demoted[i] = True
        for _, x_col in get_pairs:
            vals = copied[x_col]
            if not strict and demoted.any():
                vals = vals.copy()
                vals[demoted] = None
            out[x_col] = vals
        if strict and demoted.any():
            # quirk §2.5.2: loser-nulling writes the *y*-column name
            for y_col, _ in get_pairs:
                if y_col not in out.columns:
                    out[y_col] = pd.Series([None] * n, dtype=object)
                else:
                    out[y_col] = out[y_col].astype(object)
                out.loc[demoted, y_col] = None
        out[status_col] = final
        out[rows_col] = rows_s
        out[score_col] = score_s
        return out

    _tick("summary", dict(summary))
    final_ds = scored.map_batches(finalize, batch_format="pandas", batch_size=batch_size)
    _tick("finalize_scheduled", {})
    return MatchResult(final_ds, summary)


# ---------------------------------------------------------------------------
# shuffled (blocked) path
# ---------------------------------------------------------------------------


def _match_shuffled(
    x_ds, y_ds, cfg, x_id, y_id, uniq,
    x_passthrough, x_match_cols, group_x, group_y, y_needed,
    hot_key_cap=None,
):
    # combined wire schema: rid/side/key + original x cols + normalized
    # match cols (x) + normalized/original y cols
    arrow_schema = _arrow_schema(x_ds)
    x_fields = [("x::" + c, arrow_schema.field(c).type) for c in x_passthrough]
    xn_fields = [("xn::" + c, pa.string()) for c in x_match_cols]
    # y_needed already includes the columns_to_get y-columns
    yn_fields = [("yn::" + c, pa.string()) for c in y_needed]
    all_fields = (
        [(_RID, pa.int64()), (_SIDE, pa.int8()), (_KEY, pa.string())]
        + x_fields + xn_fields + yn_fields
    )
    wire_schema = pa.schema(all_fields)

    def x_prepare(batch: pa.Table) -> pa.Table:
        cols: dict[str, pa.Array] = {}
        n = len(batch)
        cols[_RID] = pc.cast(batch[x_id], pa.int64()).combine_chunks()
        cols[_SIDE] = pa.array(np.zeros(n, dtype=np.int8))
        cols[_KEY] = _key_expr(batch, group_x)
        for c in x_passthrough:
            cols["x::" + c] = batch[c].combine_chunks()
        for c in x_match_cols:
            cols["xn::" + c] = _norm(batch, c)
        for name, typ in yn_fields:
            cols[name] = pa.nulls(n, typ)
        return pa.table({f.name: cols[f.name] for f in wire_schema})

    def y_prepare(batch: pa.Table) -> pa.Table:
        cols = {}
        n = len(batch)
        cols[_RID] = pc.cast(batch[y_id], pa.int64()).combine_chunks()
        cols[_SIDE] = pa.array(np.ones(n, dtype=np.int8))
        cols[_KEY] = _key_expr(batch, group_y)
        for name, typ in x_fields + xn_fields:
            cols[name] = pa.nulls(n, typ)
        for c in y_needed:
            cols["yn::" + c] = _norm(batch, c)
        return pa.table({f.name: cols[f.name] for f in wire_schema})

    xp = x_ds.map_batches(x_prepare, batch_format="pyarrow")
    yp = y_ds.map_batches(y_prepare, batch_format="pyarrow")

    def score_group(t: pa.Table) -> pa.Table:
        xt = t.filter(pc.equal(t[_SIDE], 0))
        yt = t.filter(pc.equal(t[_SIDE], 1))
        return _score_tables(xt, yt, cfg, uniq, x_passthrough, x_match_cols)

    hot: dict[str, int] = {}
    if hot_key_cap:
        # skew detection consumes yp once for counts and again in the
        # union below — materialize both prepared sides first or the
        # prepare lineage executes twice (CLAUDE.md multi-consumer rule);
        # when hot keys exist, xp/yp are additionally consumed by the
        # cold/hot filter branches
        xp = xp.materialize()
        yp = yp.materialize()
        # skew detection: y-side per-key counts; only keys above the cap
        # matter (small result), each mapped to its sub-block fan-out S
        counts = yp.groupby(_KEY).count().to_pandas()
        over = counts[counts["count()"] > hot_key_cap]
        hot = {
            str(k): int(np.ceil(c / hot_key_cap))
            for k, c in zip(over[_KEY], over["count()"])
        }

    if not hot:
        tagged = xp.union(yp)
        return tagged.groupby(_KEY).map_groups(score_group, batch_format="pyarrow")

    # ---- skew split: cold keys keep the group-local path; hot keys are
    # salted into sub-blocks with a per-x merge (SURVEY.md §4.2) ----------
    hot_keys = pa.array(list(hot), pa.string())

    def cold_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[_KEY], value_set=hot_keys)))

    def hot_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[_KEY], value_set=hot_keys))

    cold_scored = (
        xp.map_batches(cold_only, batch_format="pyarrow")
        .union(yp.map_batches(cold_only, batch_format="pyarrow"))
        .groupby(_KEY)
        .map_groups(score_group, batch_format="pyarrow")
    )
    hot_scored = _match_salted(
        xp.map_batches(hot_only, batch_format="pyarrow"),
        yp.map_batches(hot_only, batch_format="pyarrow"),
        cfg, uniq, x_passthrough, x_match_cols, hot,
    )
    return cold_scored.union(hot_scored)


def _match_salted(
    xp_hot, yp_hot, cfg, uniq, x_passthrough, x_match_cols, hot: dict[str, int]
):
    """Hot-key path: a key whose y-side exceeds the cap is split into S
    sub-blocks — each y row lands in ONE sub-block (hash(y_id) % S), each x
    row is replicated to ALL S (per-task work is bounded by |x_key| × cap).
    Sub-blocks emit partial candidate pairs (score_pairs_flat), merged by a
    hash-bucketed ``groupby(x_id)`` argmax reduce; x passthrough and
    copy-over columns re-attach via hash joins over the hot subset only.

    Deviation (documented): for hot keys, ambiguous tie strings order by
    y_id rather than the reference's candidate-insertion order — the same
    tie SET, different string order (SURVEY.md §2.1 O7 note)."""
    import ray

    from record_matcher_ray.core.kernel import score_pairs_flat
    from record_matcher_ray.pipelines.joins import hash_join

    hot_ref = ray.put(hot)
    y_needed = cfg.y_columns_needed()
    req = cfg.required_threshold

    # only scoring columns ride the salted shuffle — x passthrough columns
    # would be replicated S× and are re-attached from x_orig afterwards
    x_score_cols = ["xn::" + c for c in x_match_cols]
    y_score_cols = ["yn::" + c for c in y_needed]
    salt_cols = [_RID, _SIDE, _KEY] + x_score_cols + y_score_cols

    def x_salt(t: pa.Table) -> pa.Table:
        t = t.select(salt_cols)
        s_map = ray.get(hot_ref)
        keys = t[_KEY].to_pylist()
        reps = np.fromiter((s_map[k] for k in keys), dtype=np.int64, count=len(keys))
        idx = np.repeat(np.arange(len(t)), reps)
        salts = np.concatenate([np.arange(r) for r in reps]) if len(reps) else np.empty(0, np.int64)
        out = t.take(pa.array(idx))
        newkey = pa.array(
            [f"{keys[i]}#{s}" for i, s in zip(idx, salts)], pa.string()
        )
        return out.set_column(out.column_names.index(_KEY), _KEY, newkey)

    def y_salt(t: pa.Table) -> pa.Table:
        t = t.select(salt_cols)
        s_map = ray.get(hot_ref)
        keys = t[_KEY].to_pylist()
        rids = t[_RID].to_numpy()
        newkey = pa.array(
            [f"{k}#{int(r) % s_map[k]}" for k, r in zip(keys, rids)], pa.string()
        )
        return t.set_column(t.column_names.index(_KEY), _KEY, newkey)

    # repartition so the groupby sort fans out: salted rows are narrow and
    # the input may arrive as few blocks (sort output partitioning follows
    # input block count)
    sub = (
        xp_hot.map_batches(x_salt, batch_format="pyarrow")
        .union(yp_hot.map_batches(y_salt, batch_format="pyarrow"))
        .repartition(64)
    )

    pair_schema = pa.schema(
        [("x_id", pa.int64()), ("y_id", pa.int64()),
         ("score", pa.float64()), ("optimal", pa.float64())]
    )

    def partial_pairs(t: pa.Table) -> pa.Table:
        """Score the sub-block cross AND pre-reduce per x locally: only each
        x's argmax TIE rows leave the task (≈1 row per x per sub-block) —
        emitting raw candidate pairs would shuffle |x|×|y| rows, since
        fuzzy scorers pass nearly every pair at score > 0. The global per-x
        merge then just re-runs argmax over the sub-maxima (scores are
        deterministic per pair, so cross-sub float equality is exact)."""
        xt = t.filter(pc.equal(t[_SIDE], 0))
        yt = t.filter(pc.equal(t[_SIDE], 1))
        nx, ny = len(xt), len(yt)
        if nx == 0 or ny == 0:
            return pair_schema.empty_table()
        x_cols = {c: _str_np(xt, "xn::" + c) for c in x_match_cols}
        y_cols = {c: _str_np(yt, "yn::" + c) for c in y_needed}
        xi = np.repeat(np.arange(nx), ny)
        yi = np.tile(np.arange(ny), nx)
        score, cand, optimal = score_pairs_flat(x_cols, y_cols, xi, yi, cfg, uniq)
        if not cand.any():
            return pair_schema.empty_table()
        xi_c, yi_c, sc = xi[cand], yi[cand], score[cand]
        # per-x local argmax (xi_c is already x-major ordered)
        bounds = np.nonzero(np.concatenate(([True], xi_c[1:] != xi_c[:-1])))[0]
        counts = np.diff(np.concatenate((bounds, [len(xi_c)])))
        maxes = np.maximum.reduceat(sc, bounds)
        keep = sc == np.repeat(maxes, counts)
        x_ids = xt[_RID].to_numpy()
        y_ids = yt[_RID].to_numpy()
        return pa.table(
            {
                "x_id": pa.array(x_ids[xi_c[keep]]),
                "y_id": pa.array(y_ids[yi_c[keep]]),
                "score": pa.array(sc[keep]),
                "optimal": pa.array(optimal[xi_c[keep]]),
            }
        )

    pairs = sub.groupby(_KEY).map_groups(partial_pairs, batch_format="pyarrow")

    n_buckets = 64
    core_schema = pa.schema(
        [("__px__", pa.int64()), ("pre_status", pa.string()),
         ("winner_y_id", pa.int64()), ("winner_score", pa.float64()),
         ("rows_matched", pa.string()), ("match_score_str", pa.string())]
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return core_schema.empty_table()
        x_id = t["x_id"].to_numpy()
        y_id = t["y_id"].to_numpy()
        score = t["score"].to_numpy()
        optimal = t["optimal"].to_numpy()
        order = np.lexsort((y_id, x_id))
        x_s, y_s, sc_s, op_s = x_id[order], y_id[order], score[order], optimal[order]
        bounds = np.nonzero(np.concatenate(([True], x_s[1:] != x_s[:-1])))[0]
        ends = np.concatenate((bounds[1:], [n]))
        out = {k: [] for k in ("xid", "st", "w", "ws", "rm", "ms")}
        for s, e in zip(bounds, ends):
            scores = sc_s[s:e]
            mx = scores.max()
            ties = y_s[s:e][scores == mx]
            if mx >= req:
                if len(ties) == 1:
                    st = "review" if mx <= op_s[s] else "matched"
                    w, ws = int(ties[0]), mx
                else:
                    st, w, ws = "ambiguous", NO_WINNER, np.nan
                rm = ", ".join(str(int(y)) for y in ties)
                ms = ", ".join(str(float(mx)) for _ in ties)
            else:
                st, w, ws, rm, ms = "unmatched", NO_WINNER, np.nan, "", ""
            out["xid"].append(int(x_s[s]))
            out["st"].append(st)
            out["w"].append(w)
            out["ws"].append(ws)
            out["rm"].append(rm)
            out["ms"].append(ms)
        return pa.table(
            {
                "__px__": pa.array(out["xid"], pa.int64()),
                "pre_status": pa.array(out["st"], pa.string()),
                "winner_y_id": pa.array(out["w"], pa.int64()),
                "winner_score": pa.array(out["ws"], pa.float64()),
                "rows_matched": pa.array(out["rm"], pa.string()),
                "match_score_str": pa.array(out["ms"], pa.string()),
            }
        )

    # materialized: tiny (≈1 row per hot x), and the downstream hash joins
    # probe schemas — on a lazy dataset that would re-execute the expensive
    # scoring stage once per probe
    reduced = bucket_exchange(
        pairs, ["x_id"], reduce_bucket, n_buckets
    ).materialize()

    # x originals for the hot subset (one row per x)
    def x_originals(t: pa.Table) -> pa.Table:
        xt = t.filter(pc.equal(t[_SIDE], 0))
        cols = {"__x_id__": xt[_RID].combine_chunks()}
        for c in x_passthrough:
            cols["x::" + c] = xt["x::" + c].combine_chunks()
        return pa.table(cols)

    x_orig = xp_hot.map_batches(x_originals, batch_format="pyarrow")
    # every hot x must appear (x's with zero candidates → unmatched)
    joined = hash_join(x_orig, reduced, "__x_id__", "__px__", how="left").materialize()

    get_pairs = cfg.columns_to_get
    if get_pairs:
        def y_gets(t: pa.Table) -> pa.Table:
            yt = t.filter(pc.equal(t[_SIDE], 1))
            cols = {"__py__": yt[_RID].combine_chunks()}
            for y_col, x_col in get_pairs:
                cols["get::" + x_col] = yt["yn::" + y_col].combine_chunks()
            return pa.table(cols)

        joined = hash_join(
            joined, yp_hot.map_batches(y_gets, batch_format="pyarrow"),
            "winner_y_id", "__py__", how="left",
        )

    # assemble the exact scored schema (matching _result_table's output)
    def assemble(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {"__x_id__": t["__x_id__"].combine_chunks()}
        for c in x_passthrough:
            cols["x::" + c] = t["x::" + c].combine_chunks()
        cols["pre_status"] = pc.fill_null(
            pc.cast(t["pre_status"], pa.string()), "unmatched"
        ).combine_chunks()
        cols["rows_matched"] = pc.fill_null(
            pc.cast(t["rows_matched"], pa.string()), ""
        ).combine_chunks()
        cols["match_score_str"] = pc.fill_null(
            pc.cast(t["match_score_str"], pa.string()), ""
        ).combine_chunks()
        cols["winner_y_id"] = pc.fill_null(
            pc.cast(t["winner_y_id"], pa.int64()), NO_WINNER
        ).combine_chunks()
        cols["winner_score"] = pc.cast(t["winner_score"], pa.float64()).combine_chunks()
        for _, x_col in get_pairs:
            name = "get::" + x_col
            if name in t.column_names:
                # copy-over only applies to single-survivor rows
                mask = pc.is_in(
                    cols["pre_status"], value_set=pa.array(["matched", "review"])
                )
                cols[name] = pc.if_else(
                    mask, pc.cast(t[name], pa.string()), pa.nulls(n, pa.string())
                )
            else:
                cols[name] = pa.nulls(n, pa.string())
        return pa.table(cols)

    return joined.map_batches(assemble, batch_format="pyarrow")


def _str_np(tbl: pa.Table, name: str) -> np.ndarray:
    col = tbl[name]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(arr.to_pylist(), dtype=object)


def _result_table(
    xt: pa.Table | None, res, copied, cfg, x_passthrough
) -> pa.Table:
    """Assemble the scored-intermediate Arrow table, preserving original
    x-column types (zero pandas round-trips)."""
    cols: dict = {"__x_id__": pa.array(res["x_id"], pa.int64())}
    for c in x_passthrough:
        cols["x::" + c] = (
            xt.column("x::" + c) if "x::" + c in xt.column_names else xt.column(c)
        )
    cols["pre_status"] = pa.array(res["pre_status"], pa.string())
    cols["rows_matched"] = pa.array(res["rows_matched"], pa.string())
    cols["match_score_str"] = pa.array(res["match_score"], pa.string())
    cols["winner_y_id"] = pa.array(res["winner_y_id"], pa.int64())
    cols["winner_score"] = pa.array(res["winner_score"], pa.float64())
    for _, x_col in cfg.columns_to_get:
        cols["get::" + x_col] = pa.array(copied[x_col], pa.string())
    return pa.table(cols)


def _score_tables(xt, yt, cfg, uniq, x_passthrough, x_match_cols) -> pa.Table:
    # Deterministic candidate order (documented deviation, COVERAGE.md
    # §known-deviations): rows arrive in arbitrary post-shuffle order, so
    # both sides are sorted by rid before scoring. Ambiguous tie STRINGS
    # therefore order by ascending id — identical to the reference's
    # y-insertion order whenever ids ascend at ingest (every fixture and
    # the common load path); for non-monotone id insertion the tie SET
    # still matches, only the string order differs. This also makes the
    # distributed output run-stable, which raw group order is not.
    if len(xt) > 1:
        xt = xt.take(pc.sort_indices(xt[_RID]))
    if len(yt) > 1:
        yt = yt.take(pc.sort_indices(yt[_RID]))
    x_ids = xt[_RID].to_numpy()
    y_ids = yt[_RID].to_numpy() if len(yt) else np.empty(0, dtype=np.int64)
    x_cols = {c: _str_np(xt, "xn::" + c) for c in x_match_cols}
    y_cols = {c: _str_np(yt, "yn::" + c) for c in cfg.y_columns_needed()}
    res, copied = score_block(x_cols, y_cols, x_ids, y_ids, cfg, uniq)
    return _result_table(xt, res, copied, cfg, x_passthrough)


# ---------------------------------------------------------------------------
# broadcast (ungrouped) path
# ---------------------------------------------------------------------------


def _match_broadcast(
    x_ds, y_ds, cfg, x_id, y_id, uniq, x_match_cols, y_needed, batch_size,
    *, max_broadcast_rows: int = 5_000_000,
):
    """No blocking columns: every x scores against ALL of Y (reference
    ungrouped semantics, matcher.py:179-182 with an empty group map). Y is
    collected once, put in the object store ONCE, and read zero-copy by
    every scoring task — never re-shipped per batch. This is the
    broadcast-small-side pattern; a Y larger than ``max_broadcast_rows``
    raises with guidance instead of OOMing the driver — give Y blocking
    columns (as the reference itself requires for tractability)."""
    y_ds = y_ds.materialize()  # blocks stay in the (spillable) object store
    n_y = y_ds.count()  # metadata-only after materialize
    if n_y > max_broadcast_rows:
        raise ValueError(
            f"ungrouped match would broadcast {n_y:,} y-rows to the driver, "
            f"over max_broadcast_rows={max_broadcast_rows:,}. The O(|X|*|Y|) "
            "ungrouped path is broadcast-only by design; set columns_to_group "
            "on the config so the blocked shuffled path runs, or raise "
            "max_broadcast_rows if the driver really has the memory."
        )
    y_tables = ray.get(y_ds.to_arrow_refs())
    y_tbl = pa.concat_tables([t for t in y_tables if len(t)]) if y_tables else None

    if y_tbl is not None and len(y_tbl) > 0:
        y_ids_np = y_tbl[y_id].combine_chunks().cast(pa.int64()).to_numpy()
        y_cols_np: dict[str, np.ndarray] = {}
        names = set(y_tbl.column_names)
        for c in y_needed:
            if c in names:
                arr = pc.fill_null(pc.cast(y_tbl[c], pa.string()), "").combine_chunks()
                y_cols_np[c] = np.asarray(arr.to_pylist(), dtype=object)
            else:
                y_cols_np[c] = np.full(len(y_tbl), "", dtype=object)
    else:
        y_ids_np, y_cols_np = np.empty(0, dtype=np.int64), {}
    y_ref = ray.put((y_ids_np, y_cols_np))

    x_passthrough = list(x_ds.schema().names)
    x_names = set(x_passthrough)

    def score_batch(t: pa.Table) -> pa.Table:
        yids, ycols = ray.get(y_ref)
        x_ids = t[x_id].combine_chunks().cast(pa.int64()).to_numpy()
        x_cols = {}
        for c in x_match_cols:
            if c in x_names:
                arr = pc.fill_null(pc.cast(t[c], pa.string()), "").combine_chunks()
                x_cols[c] = np.asarray(arr.to_pylist(), dtype=object)
            else:
                x_cols[c] = np.full(len(t), "", dtype=object)
        res, copied = score_block(x_cols, ycols, x_ids, yids, cfg, uniq)
        return _result_table(t, res, copied, cfg, x_passthrough)

    return x_ds.map_batches(score_batch, batch_format="pyarrow", batch_size=batch_size)
