"""The distributed match pipeline — `records_match` + `RecordMatcher.match`
(reference matcher.py:92-216, 320-449) re-expressed as a Ray Data pipeline.

Dataflow (SURVEY.md §4.3):

1. **uniqueness aggregate** (one streaming pass over X + two tiny shuffles
   of deduplicated partials) → small dict, broadcast into stage closures.
2. **normalize + key-derive** — `x_prepare` / `y_prepare`, run inside
   the exchange's map-side tasks (no Ray Data execution of their own):
   cast match/group columns to string, fill nulls with "", derive the
   blocking key (the `columns_to_group` value tuple — exact semantics of
   records.group_by at records.py:106-132). Each side emits only its own
   columns; a bucket reads the other side's as null.
3. **blocking exchange + scoring + duplicate pass** — co-group the two
   sides with `core.exchange.bucket_exchange` (Ray core tasks over the
   inputs' block refs, no sort) on the blocking key, `default_tasks()`
   hash buckets: every x-row lands with exactly
   its reference candidate set, so the per-x argmax reduce is
   bucket-local (no second wide shuffle). One flat `score_keyed` kernel
   call per bucket enumerates each key's pairs by sort + boundary
   search, so a bucket's many keys cost one Python call, and a hot key's
   pairs are scored in bounded chunks of whole x rows. The duplicate
   pass (matcher.py:408-447) is bucket-local too: an x can only win a y
   of its own key, so every winner-y group is whole inside the bucket
   that scored it, and `resolve_winner_arrays` writes each row's verdict
   into an int8 flip column of the scored table.
   With NO group columns the reference scans all of Y per x
   (matcher.py:179-182); here Y is broadcast once via `ray.put` and scored
   against each X batch in a stateless `map_batches` — no shuffle at all.
   Those batches are not winner-complete, so `compute_flips` resolves
   the winners of the materialized scored table and broadcasts the
   flipped x ids.
4. **summary** — one default-resource task per scored block counts its
   pre-flip statuses and its flips (the reference's over-count quirk);
   no shuffle over the ~4-valued status column.
5. **finalize** — `map_batches`: status display-mapping, vectorized flip
   application, strict-mode quirk columns, output column assembly.

The scored intermediate is read twice (summary partials + finalize), so
it is materialized: the exchange returns it eagerly. The blocked path
runs two Ray Data executions (uniqueness, the caller's consumption of
finalize) when x and y are materialized or in-memory sources (a lazy
side is executed once more, by the exchange). At 100 TB
route it through the checkpoint layer (state/checkpoint.py) instead,
which writes stage output as partitioned parquet with lineage manifests.
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
from record_matcher_ray.core.exchange import bucket_exchange, default_tasks
from record_matcher_ray.core.kernel import MATCH_STATUS, NO_WINNER, score_block, score_keyed
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
_FLIP = "__flip__"
# duplicate-pass verdict per scored row (matcher.py:408-447)
FLIP_NONE, FLIP_DUPLICATE, FLIP_DEMOTE = 0, 1, 2


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
    yid: np.ndarray,
    sc: np.ndarray,
    duplicate_threshold: float,
) -> np.ndarray:
    """Vectorized twin of core.dup.resolve_duplicates across ALL y-groups
    of (winner_y_id, winner_score) rows at once (the per-group Python
    call was ~0.04 ms × |groups| — at a corpus where most entities have
    several mentions nearly every winner group is multi, so the loop
    dominated). → one int8 verdict per row: ``FLIP_NONE``,
    ``FLIP_DUPLICATE`` or ``FLIP_DEMOTE``. Callers must pass whole
    y-groups (any superset partitioning works)."""
    n = len(yid)
    flips = np.zeros(n, np.int8)
    if n == 0:
        return flips
    order = np.argsort(yid, kind="stable")
    y_s, sc_s = yid[order], sc[order]
    bounds = np.nonzero(np.concatenate(([True], y_s[1:] != y_s[:-1])))[0]
    sizes = np.diff(np.concatenate((bounds, [n])))
    mx = np.maximum.reduceat(sc_s, bounds)
    mn = np.minimum.reduceat(sc_s, bounds)
    is_max = sc_s == np.repeat(mx, sizes)
    n_max = np.add.reduceat(is_max.astype(np.int64), bounds)
    multi = sizes > 1
    dup_g = multi & ((n_max > 1) | (np.abs(mx - mn) < duplicate_threshold))
    dem_g = multi & ~dup_g
    flips[order[np.repeat(dup_g, sizes)]] = FLIP_DUPLICATE
    flips[order[np.repeat(dem_g, sizes) & ~is_max]] = FLIP_DEMOTE
    return flips


def _flip_codes(xids: np.ndarray, dup_ids: np.ndarray,
                dem_ids: np.ndarray) -> np.ndarray:
    """int8 verdict per row of ``xids`` from the flipped x id sets."""
    flips = np.zeros(len(xids), np.int8)
    flips[np.isin(xids, dup_ids)] = FLIP_DUPLICATE
    flips[np.isin(xids, dem_ids)] = FLIP_DEMOTE
    return flips


def compute_flips(
    scored: ray.data.Dataset,
    duplicate_threshold: float,
    x_id_col: str = "__x_id__",
    driver_cap: int = 5_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate pass (matcher.py:408-447) over a scored dataset whose
    blocks are not winner-complete (the broadcast match, docmatch above
    its driver cap): project winners to 3 narrow columns and resolve each
    winner_y_id group with the shared rule. → sorted int64 arrays of the
    x ids flipped to DUPLICATE and of those demoted to UNMATCHED, small
    enough to broadcast by contract. Under ``driver_cap`` winner rows the
    narrow (24 B/row) projection is pulled to the driver and resolved in
    ONE vectorized pass — no shuffle round. Above the cap, winners go
    through ``bucket_exchange`` on winner_y_id over ``default_tasks()``
    buckets (one vectorized call per bucket, not one Python call per y
    group). ``scored`` needs x_id_col / winner_y_id / winner_score."""
    triples = pa.schema(
        [(x_id_col, pa.int64()), ("winner_y_id", pa.int64()),
         ("winner_score", pa.float64())]
    )

    def winners(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch["winner_y_id"], NO_WINNER)
        t = batch.filter(mask)
        return t.select(triples.names)

    flip_schema = pa.schema([("x_id", pa.int64()), ("flip", pa.int8())])

    def resolve_bucket(t: pa.Table) -> pa.Table:
        flips = resolve_winner_arrays(
            t["winner_y_id"].to_numpy(), t["winner_score"].to_numpy(),
            duplicate_threshold,
        )
        keep = flips != FLIP_NONE
        return pa.table([t[x_id_col].to_numpy()[keep], flips[keep]],
                        schema=flip_schema)

    def gather(ds: ray.data.Dataset, schema: pa.Schema) -> pa.Table:
        # concat the block refs, never iter_batches on the driver
        # (CLAUDE.md: driver batch loops are fault-bound)
        parts = [p for p in ray.get(ds.to_arrow_refs()) if len(p)]
        return pa.concat_tables(parts) if parts else schema.empty_table()

    w = scored.map_batches(winners, batch_format="pyarrow").materialize()
    if w.count() <= driver_cap:
        flips_tbl = resolve_bucket(gather(w, triples))
    else:
        flips_tbl = gather(bucket_exchange(
            w, ["winner_y_id"], resolve_bucket, default_tasks()
        ), flip_schema)
    xids = flips_tbl["x_id"].to_numpy()
    flips = flips_tbl["flip"].to_numpy()
    return (np.sort(xids[flips == FLIP_DUPLICATE]),
            np.sort(xids[flips == FLIP_DEMOTE]))


@ray.remote
def _summary_partial(t: pa.Table) -> Counter:
    """The reference's summary over one scored block (over-count quirk,
    SURVEY.md §2.5.3): every row counts its pre-flip status, and each
    bucket-local flip counts once more as "duplicate" or "unmatched"."""
    c = Counter()
    if len(t) == 0:
        return c
    for vc in pc.value_counts(t["pre_status"]).to_pylist():
        c[vc["values"]] += vc["counts"]
    if _FLIP in t.column_names:
        flips = t[_FLIP].to_numpy()
        c["duplicate"] += int((flips == FLIP_DUPLICATE).sum())
        c["unmatched"] += int((flips == FLIP_DEMOTE).sum())
    return c


def match_datasets(
    x_ds: ray.data.Dataset,
    y_ds: ray.data.Dataset,
    cfg: MatchConfig,
    x_id: str,
    y_id: str,
    *,
    uniqueness: dict[str, float] | None = None,
    batch_size: int = 4096,
    max_broadcast_rows: int = 5_000_000,
    progress: "Callable[[str, dict], None] | None" = None,
) -> MatchResult:
    """Match every row of ``x_ds`` against candidates in ``y_ds``.

    ``x_id`` / ``y_id`` name int64 columns of stable unique row ids (the
    reference's dict indices, load-bearing in the output strings —
    matcher.py:393-396).

    Blocked rows reach their scoring task through one hash-bucket
    exchange on the blocking key (``core.exchange``, ``default_tasks()``
    buckets), and each bucket is one ``score_keyed`` call. A hot key costs
    no special path: its pairs are scored in bounded chunks of whole x
    rows. Ambiguous tie strings order by (first passing column, y rid).

    ``max_broadcast_rows``: guard for the ungrouped path (no blocking
    columns), which broadcasts ALL of Y into the object store. A Y larger
    than this raises with guidance instead of OOMing the driver — give Y
    blocking columns (``columns_to_group``) so the shuffled path runs, as
    the reference itself requires for tractability at scale.

    ``progress``: optional per-stage callback ``(stage_name, info_dict)``
    — the Ray-path analogue of the reference's ``update_func``
    (matcher.py:320-332); fired on the driver at stage boundaries
    (uniqueness → scored → duplicate_pass → summary → finalize_scheduled).
    The blocked path's duplicate pass runs inside scoring, so its
    ``duplicate_pass`` stage does no work.
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

    if cfg.columns_to_group:  # the exchange returns materialized blocks
        scored = _match_shuffled(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_passthrough, x_match_cols, group_x, group_y, y_needed,
        )
    else:
        scored = _match_broadcast(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_match_cols, y_needed, batch_size,
            max_broadcast_rows=max_broadcast_rows,
        ).materialize()
    _tick("scored", {"rows": scored.count()})
    if cfg.columns_to_group:
        # resolved inside each blocking bucket: an x wins only a y of its
        # own key, so every winner group was scored in one bucket
        flips_ref = None
        _tick("duplicate_pass", {})
    else:
        dup_ids, dem_ids = compute_flips(scored, cfg.duplicate_threshold)
        flips_ref = ray.put((dup_ids, dem_ids))
        _tick("duplicate_pass", {"flips": len(dup_ids) + len(dem_ids)})

    # ---- summary (reference over-count quirk, SURVEY.md §2.5.3) ----------
    # per-block partials at default resources: num_cpus=0 tasks submitted
    # right after the exchange start an extra worker process (CLAUDE.md)
    summary = sum(
        ray.get([_summary_partial.remote(r) for r in scored.to_arrow_refs()]),
        Counter(),
    )
    if flips_ref is not None:
        summary += Counter(duplicate=len(dup_ids), unmatched=len(dem_ids))

    # ---- finalize --------------------------------------------------------
    get_pairs = cfg.columns_to_get
    strict = cfg.strict_semantics
    status_col = COLUMNS_TO_ADD["match_status"]
    rows_col = COLUMNS_TO_ADD["matched_with_row"]
    score_col = COLUMNS_TO_ADD["match_score"]

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        flips = (
            df[_FLIP].to_numpy()
            if flips_ref is None
            else _flip_codes(df["__x_id__"].to_numpy(), *ray.get(flips_ref))
        )
        demoted = flips == FLIP_DEMOTE
        final = df["pre_status"].map(MATCH_STATUS).to_numpy(dtype=object)
        final[flips == FLIP_DUPLICATE] = MATCH_STATUS["duplicate"]
        final[demoted] = MATCH_STATUS["unmatched"]
        out = pd.DataFrame()
        for c in x_passthrough:
            out[c] = df["x::" + c].values
        for _, x_col in get_pairs:
            vals = df["get::" + x_col].to_numpy(dtype=object)
            if not strict and demoted.any():
                vals = np.where(demoted, None, vals)
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
        for col, src in ((rows_col, "rows_matched"), (score_col, "match_score_str")):
            out[col] = np.where(demoted, "", df[src].to_numpy(dtype=object))
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
):
    # each side carries only its own columns; a bucket holding both reads
    # the other side's columns as null
    def x_prepare(batch: pa.Table) -> pa.Table:
        cols = {
            _RID: pc.cast(batch[x_id], pa.int64()),
            _SIDE: pa.array(np.zeros(len(batch), dtype=np.int8)),
            _KEY: _key_expr(batch, group_x),
        }
        for c in x_passthrough:
            cols["x::" + c] = batch[c]
        for c in x_match_cols:
            cols["xn::" + c] = _norm(batch, c)
        return pa.table(cols)

    def y_prepare(batch: pa.Table) -> pa.Table:
        cols = {
            _RID: pc.cast(batch[y_id], pa.int64()),
            _SIDE: pa.array(np.ones(len(batch), dtype=np.int8)),
            _KEY: _key_expr(batch, group_y),
        }
        for c in y_needed:
            cols["yn::" + c] = _norm(batch, c)
        return pa.table(cols)

    def score_bucket(t: pa.Table) -> pa.Table:
        # rid order in, so within each key the kernel sees y in rid order:
        # ambiguous tie strings order by (first passing column, rid) in
        # every run, whatever order the shuffle delivered the rows in
        t = t.take(pc.sort_indices(t[_RID]))
        xt = t.filter(pc.equal(t[_SIDE], 0))
        if not len(xt):  # nothing to score; x's columns may be absent
            return pa.table({})
        yt = t.filter(pc.equal(t[_SIDE], 1))
        res, copied = score_keyed(
            {c: _str_np(xt, "xn::" + c) for c in x_match_cols},
            {c: _str_np(yt, "yn::" + c) for c in y_needed},
            _str_np(xt, _KEY), _str_np(yt, _KEY),
            xt[_RID].to_numpy(), yt[_RID].to_numpy(), cfg, uniq,
        )
        # the duplicate pass, bucket-local: the key's rows are all here
        wy = np.asarray(res["winner_y_id"], np.int64)
        won = wy != NO_WINNER
        flips = np.zeros(len(wy), np.int8)
        flips[won] = resolve_winner_arrays(
            wy[won], np.asarray(res["winner_score"], np.float64)[won],
            cfg.duplicate_threshold,
        )
        return _result_table(xt, res, copied, cfg, x_passthrough).append_column(
            _FLIP, pa.array(flips)
        )

    return bucket_exchange(
        [x_ds, y_ds], [_KEY], score_bucket, default_tasks(),
        prepare=[x_prepare, y_prepare],
    )


def _str_np(tbl: pa.Table, name: str) -> np.ndarray:
    if name not in tbl.column_names:  # a side with no rows in the bucket
        return np.empty(0, dtype=object)
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
