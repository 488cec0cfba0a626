"""The distributed match pipeline — `records_match` + `RecordMatcher.match`
(reference matcher.py:92-216, 320-449) re-expressed as a Ray Data pipeline.

Dataflow (SURVEY.md §4.3):

1. **uniqueness** — `table_ops.uniqueness`: per-block distinct values
   merged on the driver → small dict, broadcast into stage closures.
2. **normalize + key-derive** — `x_prepare` / `y_prepare`, run inside
   the exchange's map-side tasks (no Ray Data execution of their own):
   cast match/group columns to string, fill nulls with "", derive the
   blocking key (the `columns_to_group` value tuple — exact semantics of
   records.group_by at records.py:106-132). Each side emits only its own
   columns; a bucket reads the other side's as null.
3. **blocking exchange + scoring + duplicate pass** — co-group the two
   sides with `core.exchange.bucket_exchange` (Ray core tasks over the
   inputs' block refs, no sort) on the blocking key: every x-row lands
   with exactly its reference candidate set, so the per-x argmax reduce
   is bucket-local (no second wide shuffle). One flat `score_keyed`
   kernel call per run of whole keys the exchange hands over enumerates
   each key's pairs by sort + boundary search, so many keys cost one
   Python call, and a hot key's
   pairs are scored in bounded chunks of whole x rows. The duplicate
   pass (matcher.py:408-447) is bucket-local too: an x can only win a y
   of its own key, so every winner-y group is whole inside the bucket
   that scored it, and `resolve_winner_arrays` writes each row's verdict
   into an int8 flip column of the scored table.
   With NO group columns the reference scans all of Y per x
   (matcher.py:179-182); here Y is broadcast once via `ray.put` and the
   x blocks are scored against it by `map_blocks` — no shuffle at all. Those
   blocks are not winner-complete, so `compute_flips` resolves the
   winners of the scored blocks and broadcasts the flipped x ids.
4. **summary + 5. finalize** — one task per scored block returns the
   block's final Arrow table and its summary `Counter` (`_finalize_block`).

Every stage is Ray core tasks over block refs (`core.exchange.block_refs`),
so with x and y materialized or in-memory sources the match runs no Ray
Data execution (a lazy x is materialized once, up front). At 100 TB
route it through the checkpoint layer (state/checkpoint.py) instead,
which writes stage output as partitioned parquet with lineage manifests.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.block import BlockAccessor, BlockMetadataWithSchema
from ray.data.dataset import MaterializedDataset

from record_matcher_ray.core.config import MatchConfig
from record_matcher_ray.core.exchange import (
    block_refs,
    bucket_exchange,
    executed_from_refs,
    map_blocks,
)
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


def compute_flips(
    scored: ray.data.Dataset,
    duplicate_threshold: float,
    x_id_col: str = "__x_id__",
    driver_cap: int = 5_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Duplicate pass (matcher.py:408-447) over a scored dataset whose
    blocks are not winner-complete (the broadcast match, docmatch above
    its driver cap): project winners to 3 narrow columns (``map_blocks``,
    no Ray Data execution when ``scored`` is materialized)
    and resolve each winner_y_id group with the shared rule. → sorted int64 arrays of the
    x ids flipped to DUPLICATE and of those demoted to UNMATCHED, small
    enough to broadcast by contract. Under ``driver_cap`` winner rows the
    narrow (24 B/row) projection is pulled to the driver and resolved in
    ONE vectorized pass — no shuffle round. Above the cap, winners go
    through ``bucket_exchange`` on winner_y_id (one vectorized call per
    run of whole keys, not one Python call per y group). ``scored`` needs
    x_id_col / winner_y_id / winner_score."""
    flip_schema = pa.schema([("x_id", pa.int64()), ("flip", pa.int8())])

    def resolve_bucket(t: pa.Table) -> pa.Table:
        flips = resolve_winner_arrays(
            t["winner_y_id"].to_numpy(), t["winner_score"].to_numpy(),
            duplicate_threshold,
        )
        keep = flips != FLIP_NONE
        return pa.table([t[x_id_col].to_numpy()[keep], flips[keep]],
                        schema=flip_schema)

    [winners] = map_blocks([scored], lambda t: t.filter(
        pc.not_equal(t["winner_y_id"], NO_WINNER)
    ).select([x_id_col, "winner_y_id", "winner_score"]))
    n_won = winners.count()
    if n_won > driver_cap:
        winners = bucket_exchange(winners, ["winner_y_id"], resolve_bucket)
    # concat the block refs, never iter_batches on the driver: driver
    # batch loops are fault-bound
    parts = [t for t in ray.get([r for r, _ in block_refs(winners)]) if len(t)]
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    flips_tbl = pa.concat_tables(parts)
    if n_won <= driver_cap:
        flips_tbl = resolve_bucket(flips_tbl)
    xids = flips_tbl["x_id"].to_numpy()
    flips = flips_tbl["flip"].to_numpy()
    return (np.sort(xids[flips == FLIP_DUPLICATE]),
            np.sort(xids[flips == FLIP_DEMOTE]))


@ray.remote(num_returns=3)
def _finalize_block(
    t: pa.Table,
    x_passthrough: list[str],
    get_pairs: list[tuple[str, str]],
    strict: bool,
    flips: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[pa.Table, BlockMetadataWithSchema, Counter]:
    """One scored block → its output rows (status display-mapping, flips,
    strict-mode quirk columns), their block metadata and the block's share
    of the summary, with the reference's over-count quirk (SURVEY.md
    §2.5.3): every row counts its pre-flip status, and each bucket-local
    flip once more. ``flips`` is ``None`` when the block carries its own
    verdicts (``_FLIP``), else the broadcast ``(duplicate ids, demoted
    ids)``."""
    t = t.combine_chunks()
    summary = Counter()
    for vc in pc.value_counts(t["pre_status"]).to_pylist():
        summary[vc["values"]] += vc["counts"]
    if flips is None:
        codes = t[_FLIP].to_numpy()
        summary["duplicate"] += int((codes == FLIP_DUPLICATE).sum())
        summary["unmatched"] += int((codes == FLIP_DEMOTE).sum())
    else:
        xids = t["__x_id__"].to_numpy()
        codes = np.zeros(len(t), np.int8)
        codes[np.isin(xids, flips[0])] = FLIP_DUPLICATE
        codes[np.isin(xids, flips[1])] = FLIP_DEMOTE
    is_demoted = codes == FLIP_DEMOTE
    any_demoted = bool(is_demoted.any())
    demoted = pa.array(is_demoted)

    def null_where_demoted(col):
        return pc.if_else(demoted, pa.scalar(None, col.type), col)

    status = pa.array(list(MATCH_STATUS.values())).take(
        pc.index_in(t["pre_status"], value_set=pa.array(list(MATCH_STATUS)))
    )
    status = pc.if_else(pa.array(codes == FLIP_DUPLICATE),
                        MATCH_STATUS["duplicate"], status)
    status = pc.if_else(demoted, MATCH_STATUS["unmatched"], status)
    out = {c: t["x::" + c] for c in x_passthrough}
    for _, x_col in get_pairs:
        vals = t["get::" + x_col]
        out[x_col] = null_where_demoted(vals) if not strict and any_demoted else vals
    if strict and any_demoted:
        # quirk §2.5.2: loser-nulling writes the *y*-column name
        for y_col, _ in get_pairs:
            out[y_col] = (null_where_demoted(out[y_col]) if y_col in out
                          else pa.nulls(len(t)))
    out[COLUMNS_TO_ADD["match_status"]] = status
    for col, src in ((COLUMNS_TO_ADD["matched_with_row"], "rows_matched"),
                     (COLUMNS_TO_ADD["match_score"], "match_score_str")):
        out[col] = pc.if_else(demoted, "", t[src])
    out = pa.table(out)
    return out, BlockMetadataWithSchema.from_block(out), summary


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
    exchange on the blocking key (``core.exchange``), and each run of
    whole keys it hands over is one ``score_keyed`` call. A hot key costs
    no special path: its pairs are scored in bounded chunks of whole x
    rows. Ambiguous tie strings order by (first passing column, y rid).

    Eager: with x and y materialized or in-memory sources (``from_arrow``,
    ``from_pandas``) the call runs no Ray Data execution, and
    ``MatchResult.dataset`` is returned materialized (Arrow blocks), so
    reading it runs none either. ``batch_size`` bounds the x rows the
    ungrouped path scores at once.

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
    ``duplicate_pass`` stage does no work; the output rows are built with
    the summary, so ``finalize_scheduled`` follows with none left.
    """
    def _tick(stage: str, info: dict) -> None:
        if callable(progress):
            progress(stage, info)
    x_match_cols = cfg.x_match_columns()
    group_y = [y for y, _ in cfg.columns_to_group]
    group_x = [x for _, x in cfg.columns_to_group]
    y_needed = cfg.y_columns_needed()
    if not isinstance(x_ds, MaterializedDataset):
        x_ds = x_ds.materialize()  # read by uniqueness and by scoring
    x_passthrough = list(x_ds.schema().names)

    if uniqueness is None:
        uniqueness = table_ops.uniqueness(x_ds, x_match_cols)
    _tick("uniqueness", dict(uniqueness))

    if cfg.columns_to_group:
        scored = _match_shuffled(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_passthrough, x_match_cols, group_x, group_y, y_needed,
        )
    else:
        scored = _match_broadcast(
            x_ds, y_ds, cfg, x_id, y_id, uniqueness,
            x_passthrough, x_match_cols, y_needed, batch_size,
            max_broadcast_rows=max_broadcast_rows,
        )
    _tick("scored", {"rows": scored.count()})
    if cfg.columns_to_group:
        # resolved inside each blocking bucket: an x wins only a y of its
        # own key, so every winner group was scored in one bucket
        flips = None
        _tick("duplicate_pass", {})
    else:
        flips = compute_flips(scored, cfg.duplicate_threshold)
        _tick("duplicate_pass", {"flips": len(flips[0]) + len(flips[1])})

    flips_ref = None if flips is None else ray.put(flips)
    done = [
        _finalize_block.remote(ref, x_passthrough, cfg.columns_to_get,
                               cfg.strict_semantics, flips_ref)
        for ref, _ in block_refs(scored)
    ]
    summary = sum(ray.get([c for _, _, c in done]), Counter())
    if flips is not None:
        summary += Counter(duplicate=len(flips[0]), unmatched=len(flips[1]))
    _tick("summary", dict(summary))
    final_ds = executed_from_refs([t for t, _, _ in done],
                                  ray.get([m for _, m, _ in done]))
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
        [x_ds, y_ds], [_KEY], score_bucket,
        prepare=[x_prepare, y_prepare],
    )


def _strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """A string column as an object array of ``str`` (nulls as ``None``);
    ``to_numpy`` is ~20x faster than ``to_pylist`` on 20k strings."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr.to_numpy(zero_copy_only=False)


def _str_np(tbl: pa.Table, name: str) -> np.ndarray:
    if name not in tbl.column_names:  # a side with no rows in the bucket
        return np.empty(0, dtype=object)
    return _strings(tbl[name])


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
    x_ds, y_ds, cfg, x_id, y_id, uniq, x_passthrough, x_match_cols, y_needed,
    batch_size, *, max_broadcast_rows: int = 5_000_000,
):
    """No blocking columns: every x scores against ALL of Y (reference
    ungrouped semantics, matcher.py:179-182 with an empty group map). Y is
    collected once, put in the object store ONCE, and read zero-copy by
    every scoring task — never re-shipped per batch. This is the
    broadcast-small-side pattern; a Y larger than ``max_broadcast_rows``
    raises with guidance instead of OOMing the driver — give Y blocking
    columns (as the reference itself requires for tractability).
    ``map_blocks`` scores each x block in ``batch_size``-row slices."""
    y_blocks = block_refs(y_ds)  # blocks stay in the (spillable) object store
    n_y = sum(n for _, n in y_blocks)
    if n_y > max_broadcast_rows:
        raise ValueError(
            f"ungrouped match would broadcast {n_y:,} y-rows to the driver, "
            f"over max_broadcast_rows={max_broadcast_rows:,}. The O(|X|*|Y|) "
            "ungrouped path is broadcast-only by design; set columns_to_group "
            "on the config so the blocked shuffled path runs, or raise "
            "max_broadcast_rows if the driver really has the memory."
        )
    if y_blocks:
        y_tbl = pa.concat_tables(
            [BlockAccessor.for_block(b).to_arrow()
             for b in ray.get([ref for ref, _ in y_blocks])],
            promote_options="permissive",
        )
        y_ids_np = y_tbl[y_id].combine_chunks().cast(pa.int64()).to_numpy()
        y_cols_np = {c: _strings(_norm(y_tbl, c)) for c in y_needed}
    else:
        y_ids_np, y_cols_np = np.empty(0, dtype=np.int64), {}
    y_ref = ray.put((y_ids_np, y_cols_np))

    def score_batch(t: pa.Table) -> pa.Table:
        yids, ycols = ray.get(y_ref)
        x_ids = t[x_id].combine_chunks().cast(pa.int64()).to_numpy()
        x_cols = {c: _strings(_norm(t, c)) for c in x_match_cols}
        res, copied = score_block(x_cols, ycols, x_ids, yids, cfg, uniq)
        return _result_table(t, res, copied, cfg, x_passthrough)

    return map_blocks([x_ds], lambda t: pa.concat_tables(
        [score_batch(t.slice(i, batch_size)) for i in range(0, len(t), batch_size)]
    ))[0]
