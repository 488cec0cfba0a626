"""End-to-end interleaved-document entity-resolution pipeline (the north
star): flatten spans → derive OR-blocking keys (minhash bands + n-grams +
media hashes, stages/blocking.py) → key-group pair scoring → per-x reduce →
duplicate pass → transitive clustering.

Differences from the conjunctive `pipelines.match` path: with OR-blocking a
document's candidates span MANY key groups, so pair scoring scores each
distinct (x doc, y doc) pair of a key-hash group once
(`core.kernel.score_pairs_flat`) and emits its per-x argmax rows; a second
reduce over x_id performs the argmax/status reduce after deduplicating
pairs that surface in several groups (scores are deterministic so dedup is
exact). Below ``reduce_driver_cap`` tie rows that reduce runs on the driver.
Shuffle inventory (SURVEY.md §4.3): blocking keys (wide) and x_id (tie
rows only, above the cap). The duplicate pass, the unmatched backfill and
the clustering run on driver arrays at every size: the winner triples
(24 B per matched x) and the x routing index (16 B per x doc) are already
there.

Skew: hot blocking keys are capped (``max_block_side``) — a key whose side
exceeds the cap is dropped as non-discriminative (standard LSH practice: a
band bucket with thousands of members carries no signal and would generate
quadratic pairs). Dropped-key counts are reported in the result counters,
never silently (no-silent-caps rule). The default cap (32/side) is sized
to true entity-cluster widths (≤ ~10 docs/entity at 3 mentions): probed
2026-08-18 at a 1M-entity corpus, cap 256 admitted 299M candidate pairs of
which ~260M came from fat background band buckets (common filler-text
shingles), cap 32 admits 41M with F1 unchanged — recall for a pair dropped
from one hot band survives through its 15 other bands, media and digit
keys.
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

from record_matcher_ray.core.config import MatchConfig, MatchConfigBuilder
from record_matcher_ray.core.exchange import (
    block_refs,
    bucket_exchange,
    concat_executed,
    executed_from_tables,
    map_blocks,
)
from record_matcher_ray.core.kernel import MATCH_STATUS, score_pairs_flat
from record_matcher_ray.pipelines import table_ops
from record_matcher_ray.pipelines.cluster import (
    connected_components,
    connected_components_star,
)
from record_matcher_ray.pipelines.match import (
    FLIP_DEMOTE,
    FLIP_DUPLICATE,
    resolve_winner_arrays,
)
from record_matcher_ray.stages.blocking import MinHasher, batch_doc_keys
from record_matcher_ray.stages.flatten import add_int_ids, flatten_spans

FLAT_MATCH_COLUMNS = ["title", "digits", "media_sig", "body"]


def default_doc_config(
    required_threshold: float = 75.0, duplicate_threshold: float = 0.0
) -> MatchConfig:
    """Flagship per-field scorer config over the flattened columns.

    ``body`` (free text with per-document filler) is used for BLOCKING only
    — scoring it would drag the weighted average under the required
    threshold for true pairs; the discriminative columns are the title
    (fuzzy name), the digit signature (address + phone numerals) and the
    media fingerprint."""
    cols = set(FLAT_MATCH_COLUMNS)
    b = MatchConfigBuilder(x_columns=cols, y_columns=cols)
    b.match("title", ["title"], scorer="jaro_winkler", threshold=80.0)
    b.match("digits", ["digits"], scorer="levenshtein", threshold=75.0)
    b.match("media_sig", ["media_sig"], scorer="exact_match", threshold=100.0)
    return b.build(
        required_threshold=required_threshold, duplicate_threshold=duplicate_threshold
    )


_HASHER_CACHE: dict[tuple[int, int], MinHasher] = {}


def _cached_hasher(num_perm: int, seed: int) -> MinHasher:
    """Per-worker-process MinHasher cache. The permutation state is built
    once per worker and reused across batches — the stateful-setup-amortized
    pattern without reserving a whole actor pool (the state is ~1 KB; heavy
    state like models belongs in an actor-pool class instead)."""
    key = (num_perm, seed)
    if key not in _HASHER_CACHE:
        _HASHER_CACHE[key] = MinHasher(num_perm=num_perm, seed=seed)
    return _HASHER_CACHE[key]


class KeyExpander:
    """Key-expansion stage: emits (key, rid, side) — one output row per
    (doc, key). Used as a stateless per-block ``prepare`` of
    ``bucket_exchange`` or a map_batches task (deterministic keys ⇒
    idempotent retries). No value column rides along: the long ``body``
    text is consumed here for minhash keys, and score_bucket gathers the
    scorer columns from the materialized flats (a carried column would
    be replicated once per key)."""

    def __init__(self, side: int, num_perm: int = 64, seed: int = 1):
        self.side = side
        self.num_perm = num_perm
        self.seed = seed

    def __call__(self, t: pa.Table) -> pa.Table:
        hasher = _cached_hasher(self.num_perm, self.seed)
        rids = t["rid"].to_numpy()
        # whole-batch vectorized key derivation (int64 keys; the round-1
        # per-row default_doc_keys loop + string keys was the flagship's
        # only per-row stage)
        keys, idx = batch_doc_keys(
            t["title"], t["body"], t["media_sig"], hasher
        )
        return pa.table({
            "key": pa.array(keys),
            "rid": pc.take(pa.array(rids), pa.array(idx)),
            "side": pa.array(np.full(len(idx), self.side, dtype=np.int8)),
        })


# per-worker-process cache of carry-column block views for score_bucket
# ({"key": the run's routing ObjectRef, "x"/"y": [per-block {col: Array}]});
# resolved via an in-function module import — cloudpickle copies
# closure-referenced globals per task (see CLAUDE.md)
_CARRY_CACHE: dict = {}

# driver-side warm registry-index cache for repeated delta runs in one
# session (match_documents_delta): {(root, fp, params) -> (y_flat, yk,
# yset_ref, y_route)}; single entry — a session serves one registry at a
# time
_DELTA_INDEX_CACHE: dict = {}


# ---- per-block partials (multi-node-safe driver reads) -----------------
# r2's driver fast paths did `ray.get(ds.to_arrow_refs())` and projected
# on the DRIVER: zero-copy on one node, but on a real cluster every get
# ships the WHOLE block (body text included) to the driver node. These
# narrow projections run in the map_blocks task that makes the block
# (``partials``) or in a task next to it, at default resources (CLAUDE.md:
# a num_cpus=0 wave starts a second worker process); the driver then does
# ONE batched ray.get over small results.


def _rids(t: pa.Table) -> np.ndarray:
    """One flat block's 8 B/row int64 ``rid``: its part of a route."""
    return np.ascontiguousarray(t["rid"].to_numpy(), dtype=np.int64)


def _distinct_keys(t: pa.Table) -> np.ndarray:
    """Distinct int64 blocking keys of one key block (delta pruning)."""
    if len(t) == 0 or "key" not in t.column_names:
        return np.empty(0, np.int64)
    return np.unique(t["key"].to_numpy())


_key_partial = ray.remote(_distinct_keys)


@ray.remote
def _sum_col_partial(t: pa.Table, col: str) -> int:
    if len(t) == 0 or col not in t.column_names:
        return 0
    return int(pc.sum(t[col]).as_py() or 0)


def _winners(t: pa.Table):
    """(n_candidates sum, scored x ids, winner x/y/score arrays) of one
    scored table — drops the tie-string columns before anything ships."""
    if len(t) == 0:
        return (0, np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, np.float64))
    n_cand = int(pc.sum(t["n_candidates"]).as_py() or 0)
    tt = t.filter(pc.not_equal(t["winner_y_id"], -1))
    return (
        n_cand,
        np.ascontiguousarray(t["__x_id__"].to_numpy(), np.int64),
        np.ascontiguousarray(tt["__x_id__"].to_numpy(), np.int64),
        np.ascontiguousarray(tt["winner_y_id"].to_numpy(), np.int64),
        np.ascontiguousarray(tt["winner_score"].to_numpy(), np.float64),
    )


_winner_partial = ray.remote(_winners)


def _assemble_route(
    rid_parts: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block rid arrays → (rids sorted asc, block-of-rid int32,
    row-in-block int32)."""
    sizes = np.array([len(p) for p in rid_parts], np.int64)
    ids = np.concatenate([np.empty(0, np.int64), *rid_parts])
    blk = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    pos = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    o = np.argsort(ids, kind="stable")
    return ids[o], blk[o], pos[o].astype(np.int32)


def _normalize_carry_cols(t: pa.Table, carry: list[str]) -> pa.Table:
    """Scorer-column normalization (string, non-null, single chunk) —
    shared by the in-run flats pass and the persisted-index read-back so
    score_bucket's zero-copy block views hold on both paths."""
    for c in carry:
        if c in t.column_names:
            arr = pc.fill_null(pc.cast(t[c], pa.string()), "")
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            t = t.set_column(t.column_names.index(c), c, arr)
    return t


def _flats(
    docs: list[ray.data.Dataset], carry: list[str], partials=None
):
    """The flats of each ``(doc_id, spans)`` table (``flatten_spans`` →
    ``add_int_ids`` → ``carry`` columns normalized) from ONE
    ``core.exchange.map_blocks`` wave (with its ``partials``); a bare
    read is decoded inside its tasks. The flats keep the body, which key
    expansion reads back zero-copy: re-running decode + flatten for it
    cost more than storing body once. Normalized once here, the scorer
    columns give every score_bucket worker zero-copy block views; over
    raw columns each worker re-ran cast + fill_null + copy over the
    whole corpus."""

    def flat(t: pa.Table) -> pa.Table:
        return _normalize_carry_cols(add_int_ids(flatten_spans(t)), carry)

    return map_blocks(docs, flat, partials)


def _gather_carry(
    rids: np.ndarray,
    route: tuple[np.ndarray, np.ndarray, np.ndarray],
    bviews: list,
    carry: list[str],
) -> dict[str, np.ndarray]:
    """Scorer columns of the docs ``rids`` (all present in ``route``) as
    object arrays aligned with ``rids``: one ``take`` per flat block a doc
    lives in, zero-copy views in, Python strings out."""
    r_ids, r_blk, r_pos = route
    ii = np.searchsorted(r_ids, rids)
    ob = np.argsort(r_blk[ii], kind="stable")
    blk_s, pos_s = r_blk[ii][ob], r_pos[ii][ob]
    segs = np.nonzero(np.concatenate(([True], blk_s[1:] != blk_s[:-1])))[0]
    seg_ends = np.concatenate((segs[1:], [len(blk_s)]))
    out = {}
    for c in carry:
        pieces = [pc.take(bviews[int(blk_s[s])][c], pa.array(pos_s[s:e]))
                  for s, e in zip(segs, seg_ends)]
        col = np.empty(len(rids), dtype=object)
        col[ob] = pa.concat_arrays(pieces).to_numpy(zero_copy_only=False)
        out[c] = col
    return out


class DocMatchResult:
    def __init__(self, assignments, edges, clusters, counters):
        self.assignments = assignments  # Dataset: x_id, status, winner_y_id, ...
        self.edges = edges  # Dataset: u (x node), v (y node) — accepted pairs
        self.clusters = clusters  # Dataset: node, component
        self.counters = counters  # Counter: blocks/pairs/matches metrics


def match_documents(
    x_docs: ray.data.Dataset,
    y_docs: ray.data.Dataset,
    cfg: MatchConfig | None = None,
    *,
    num_perm: int = 64,
    seed: int = 1,
    max_block_side: int = 32,
    cluster_edges: bool = True,
    progress: "Callable[[str, dict], None] | None" = None,
    reduce_driver_cap: int = 500_000,
    y_prepared: tuple | None = None,
) -> DocMatchResult:
    """x_docs / y_docs: (doc_id, spans) tables (corpus schema). Returns
    per-x assignments, accepted-pair edges and entity clusters.

    ``progress``: optional per-stage driver callback ``(stage, info)`` —
    fired after flatten, pair scoring, per-x reduce, assignments,
    unmatched backfill, edges and clustering (the Ray-path analogue of the
    reference's ``update_func``, matcher.py:320-332).

    ``y_prepared``: optional pre-built registry side ``(y_flat, y_keys,
    yset_ref, y_route)`` as :func:`_load_y_prepared` loads it — a
    MATERIALIZED normalized-flats dataset, its expanded key table (as
    written by :func:`build_doc_index`), the ref of its sorted scoreable
    keys (or None) and its routing index. When given, ``y_docs`` is
    ignored and the y-side flatten, key expansion and route are skipped
    entirely — the incremental/delta path (:func:`match_documents_delta`).

    ``max_block_side``: a key whose x width or y width exceeds it is
    dropped (counted in ``blocks_dropped``). Both widths are the key's
    widths over the whole of this call's input.

    ``reduce_driver_cap``: when stage B emits at most this many tie rows
    they are pulled to the driver once, and the per-x reduce, the winner
    triples and finalize run there on that one table. Above it the per-x
    reduce is a ``bucket_exchange`` on x_id, one task per scored block
    returns its winner triples and scored x ids, and finalize is a
    ``core.exchange.map_blocks`` over the scored blocks. Either way
    ``pairs_scored``, the duplicate pass, the unmatched backfill (a
    setdiff against the x routing index), the edges and (with
    ``cluster_edges``) the star clustering run on driver arrays, and
    ``assignments`` (the finalized blocks, then one backfill block),
    ``edges`` and ``clusters`` are executed datasets. The call runs no
    Ray Data execution when both inputs are bare reads (``read_table``,
    ``ray.data.read_parquet``), materialized datasets or in-memory
    sources: the x and y flats are one ``core.exchange.map_blocks`` wave
    (a bare read is decoded inside its tasks), and key expansion, the
    blocking exchange and pair scoring are Ray core tasks of
    ``core.exchange.bucket_exchange`` over the flats' blocks. Any other
    lazy input is executed once."""
    cfg = cfg or default_doc_config()

    def _tick(stage: str, info: dict) -> None:
        if callable(progress):
            progress(stage, info)

    carry = sorted(set(cfg.x_match_columns()) | set(cfg.y_columns_needed()))
    uniq_cols = [c for c, _ in cfg.columns_to_match]
    # each flat block's rids (for the route) and x's distinct scorer
    # values (for uniqueness) come from the task that makes the block
    x_parts = (_rids, lambda t: table_ops.distinct_values(t, uniq_cols))
    if y_prepared is None:
        [x_flat, y_flat], [(x_rids, x_distinct), (y_rids,)] = _flats(
            [x_docs, y_docs], carry, [x_parts, (_rids,)]
        )
    else:
        [x_flat], [(x_rids, x_distinct)] = _flats([x_docs], carry, [x_parts])
        y_flat, y_rids = y_prepared[0], []
    n_x_total = x_flat.count()
    n_y_total = y_flat.count()
    # key expansion runs inside the stage-B exchange's map tasks, over the
    # materialized flats (no Ray Data execution of its own)
    key_inputs = [x_flat, y_flat]
    key_prepare = [KeyExpander(0, num_perm, seed), KeyExpander(1, num_perm, seed)]
    if y_prepared is not None:
        # DELTA semi-join pruning, both directions. (a) x keys absent
        # from the registry's scoreable-key set (y_keyset: keys with
        # y-width ≤ cap) can never pair — prune them first (the common
        # filler-band keys are the bulk of x key mass). (b) y key rows
        # whose key appears in no surviving x row can't pair either —
        # prune them BEFORE the blocking shuffle. Both sets ride as ONE
        # plasma broadcast each (sorted int64, zero-copy in tasks);
        # above the cap (50M keys ≈ 400 MB) pruning (b) is skipped — at
        # that size the delta is no longer small and a full shuffle is
        # the right shape anyway. Consequence (documented at
        # build_doc_index): `blocks_dropped` counts only x-width
        # overflows on the delta path; assignments are unchanged.
        expand = key_prepare[0]
        yset_ref = y_prepared[2]

        def _x_keys(t: pa.Table) -> pa.Table:
            t = expand(t)
            if yset_ref is None:
                return t
            ks = ray.get(yset_ref)  # zero-copy plasma numpy
            k = t["key"].to_numpy()
            pos = np.minimum(np.searchsorted(ks, k), len(ks) - 1)
            return t.filter(pa.array(ks[pos] == k))

        # expansion, pruning and distinct keys in one map_blocks wave
        [xk], [(key_refs,)] = map_blocks([x_flat], _x_keys,
                                         [(_distinct_keys,)])
        xkeys = np.unique(np.concatenate([np.empty(0, np.int64),
                                          *ray.get(key_refs)]))
        xkeys_ref = (ray.put(xkeys) if 0 < len(xkeys) <= 50_000_000
                     else None)

        def _prune_y_keys(t: pa.Table) -> pa.Table:
            # an index written with a key-group column: it is ignored
            t = t.select(["key", "rid", "side"])
            if xkeys_ref is not None:
                ks = ray.get(xkeys_ref)  # zero-copy plasma numpy
                k = t["key"].to_numpy()
                pos = np.minimum(np.searchsorted(ks, k), len(ks) - 1)
                t = t.filter(pa.array(ks[pos] == k))
            return t

        key_inputs = [xk, y_prepared[1]]
        key_prepare = [None, _prune_y_keys]

    _tick("flatten", {"x_rows": n_x_total, "y_rows": n_y_total})

    # NO value columns travel through the blocking shuffle at all: only
    # (key, rid, side) — 17 B/key-row instead of ~120 B with the
    # ~20×/doc carry-string replication (the shuffle, not the scorers, was
    # 55 s of the 75 s stage-B wall at 690 k docs). score_bucket gathers
    # the scorer columns zero-copy from the materialized flats via a
    # broadcast (rid → block, row) routing index (the registry's comes
    # with y_prepared). Distinct values reach the driver only up to 50M
    # x rows; above that uniqueness dedupes them in an exchange.
    rid_parts = ray.get(x_rids + y_rids)
    x_route = _assemble_route(rid_parts[:len(x_rids)])
    y_route = (_assemble_route(rid_parts[len(x_rids):]) if y_prepared is None
               else y_prepared[3])
    uniq = (table_ops.merge_distinct(ray.get(x_distinct), uniq_cols, n_x_total)
            if 0 < n_x_total <= 50_000_000
            else table_ops.uniqueness(x_flat, uniq_cols, total=n_x_total))
    _tick("uniqueness", dict(uniq))
    x_refs, y_refs = ([r for r, _ in block_refs(f)] for f in (x_flat, y_flat))
    carry_route_ref = ray.put((*x_route, *y_route))

    counters = Counter()
    pair_schema = pa.schema(
        [("x_id", pa.int64()), ("y_id", pa.int64()),
         ("score", pa.float64()), ("optimal", pa.float64()),
         ("n_scored", pa.int64()), ("dropped_groups", pa.int64())]
    )

    def _pair_table(cols: dict, n_dropped: int) -> pa.Table:
        """Attach the bucket's dropped-group count to the first row (or a
        sentinel x_id=-1 row when the bucket emitted nothing) so the count
        survives to the counters without a second pass over stage B."""
        nrows = len(cols["x_id"]) if cols else 0
        if nrows == 0:
            if n_dropped == 0:
                return pair_schema.empty_table()
            return pa.table(
                {"x_id": pa.array([-1], pa.int64()),
                 "y_id": pa.array([-1], pa.int64()),
                 "score": pa.array([float("nan")], pa.float64()),
                 "optimal": pa.array([float("nan")], pa.float64()),
                 "n_scored": pa.array([0], pa.int64()),
                 "dropped_groups": pa.array([n_dropped], pa.int64())}
            )
        dg = np.zeros(nrows, np.int64)
        dg[0] = n_dropped
        cols["dropped_groups"] = pa.array(dg)
        return pa.table({f.name: cols[f.name] for f in pair_schema})

    # ---- stage B: bucketed pair scoring + local per-x argmax --------------
    # one score_bucket call per KEY-HASH GROUP of keys (not per key): key
    # boundaries are found with a local argsort, pair index vectors are
    # emitted per key, and the whole group is scored in ONE vectorized
    # score_pairs_flat call — per-key Python overhead was the dominant cost
    # with ~20 keys/doc. A doc pair that shares several keys of the group
    # is scored once, on strings gathered once per doc (per key row, each
    # doc's strings were gathered ~10 times); n_scored still counts it
    # once per shared key. Only each x's group-local argmax TIE rows leave
    # the task (rows below an x's group max cannot win the global argmax;
    # scores are deterministic per pair, so cross-group float equality is
    # exact) — emitting raw candidates would shuffle the full |pairs|
    # stream into stage C.
    def score_bucket(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pair_schema.empty_table()
        keys = t["key"].to_numpy()
        side = t["side"].to_numpy()
        rid = t["rid"].to_numpy()
        # sort by (key, side): within each key x rows precede y rows, both
        # contiguous — pair emission is then pure cumsum arithmetic over
        # key size vectors (NO per-key Python loop; with ~30k keys per
        # group the loop dominated the whole pipeline)
        order = np.lexsort((side, keys))
        keys_s = keys[order]
        side_s = side[order]
        bounds = np.nonzero(np.concatenate(([True], keys_s[1:] != keys_s[:-1])))[0]
        sizes = np.diff(np.concatenate((bounds, [n])))
        nx_g = np.add.reduceat((side_s == 0).astype(np.int64), bounds)
        ny_g = sizes - nx_g
        valid = (
            (nx_g > 0) & (ny_g > 0)
            & (nx_g <= max_block_side) & (ny_g <= max_block_side)
        )
        # keys with both sides present but over the cap are DROPPED —
        # counted, never silent (docstring contract)
        n_dropped = int(
            ((nx_g > 0) & (ny_g > 0) & ~valid).sum()
        )
        if not valid.any():
            return _pair_table({}, n_dropped)
        nx_v = nx_g[valid]
        ny_v = ny_g[valid]
        # x rows of valid keys, in sorted order
        valid_per_row = np.repeat(valid, sizes)
        x_rows_sorted = np.nonzero(valid_per_row & (side_s == 0))[0]
        orig_x = order[x_rows_sorted]
        ny_per_x = np.repeat(ny_v, nx_v)
        P = int(ny_per_x.sum())
        pair_starts = np.concatenate(([0], np.cumsum(ny_per_x)[:-1]))
        within = np.arange(P) - np.repeat(pair_starts, ny_per_x)
        y_start_per_x = np.repeat((bounds + nx_g)[valid], nx_v)
        yi_sorted = np.repeat(y_start_per_x, ny_per_x) + within
        # key-row pairs → distinct (x doc, y doc) pairs with their key
        # multiplicity; codes sort x-major, so each x's pairs are contiguous
        ux, xd = np.unique(rid[np.repeat(orig_x, ny_per_x)], return_inverse=True)
        uy, yd = np.unique(rid[order[yi_sorted]], return_inverse=True)
        code, mult = np.unique(xd * len(uy) + yd, return_counts=True)
        px, py = code // len(uy), code % len(uy)
        # gather scorer columns of the distinct docs from the materialized
        # flats (zero-copy plasma reads routed by rid); per-worker
        # block-view cache, ONE batched prefetch get
        from record_matcher_ray.pipelines import docmatch as _dmod

        rt = ray.get(carry_route_ref)
        g = _dmod._CARRY_CACHE
        if g.get("key") != carry_route_ref:
            # carry columns were normalized (string, non-null, single
            # chunk) before the flats materialized — each view is a
            # zero-copy reference into the shared plasma block, so
            # warmup costs no per-worker copies or kernel work
            def _one(col):
                if isinstance(col, pa.ChunkedArray):
                    return (col.chunk(0) if col.num_chunks == 1
                            else col.combine_chunks())
                return col

            def _views(tbls):
                return [
                    {c: _one(tt[c]) for c in carry}
                    if len(tt)
                    else None
                    for tt in tbls
                ]

            g["key"] = carry_route_ref
            g["x"] = _views(ray.get(list(x_refs)))
            g["y"] = _views(ray.get(list(y_refs)))
        score, cand, optimal, _ = score_pairs_flat(
            _gather_carry(ux, rt[:3], g["x"], carry),
            _gather_carry(uy, rt[3:], g["y"], carry),
            px, py, cfg, uniq,
        )
        if not cand.any():
            return _pair_table({}, n_dropped)
        # local per-x argmax over this group's candidate pairs
        px_c, py_c, sc = px[cand], py[cand], score[cand]
        bounds = np.nonzero(np.concatenate(([True], px_c[1:] != px_c[:-1])))[0]
        cnts = np.diff(np.concatenate((bounds, [len(px_c)])))
        keep = sc == np.repeat(np.maximum.reduceat(sc, bounds), cnts)
        # n_scored: the candidate key-row pairs this x scored in this
        # group, attached to its FIRST SURVIVING row (summed downstream
        # for the counter)
        x_keep = px_c[keep]
        firstk = np.concatenate(([True], x_keep[1:] != x_keep[:-1]))
        n_pairs = np.repeat(np.add.reduceat(mult[cand], bounds), cnts)[keep]
        return _pair_table(
            {
                "x_id": pa.array(ux[x_keep]),
                "y_id": pa.array(uy[py_c[keep]]),
                "score": pa.array(sc[keep]),
                "optimal": pa.array(optimal[x_keep]),
                "n_scored": pa.array(np.where(firstk, n_pairs, 0).astype(np.int64)),
            },
            n_dropped,
        )

    # bucket_exchange's map tasks expand each flat block's keys, and its
    # reduce tasks (2 per CPU) call score_bucket on runs of whole keys
    # sized by their key rows (core.exchange._ROWS_PER_CALL). The stage-B
    # output (tie rows only) comes back materialized: the one barrier
    # after the flats.
    pairs = bucket_exchange(
        key_inputs, ["key"], score_bucket, prepare=key_prepare
    )
    n_tie_rows = pairs.count()
    driver_tail = n_tie_rows <= reduce_driver_cap
    if driver_tail:
        # below the cap the narrow numeric tie rows come to the driver
        # once and every later stage runs on that one table (no dataset
        # round and no partial-task wave per stage). The cap is
        # deliberately low: at 3.8 M ties the driver's first-touch fault
        # rate (~20 MB/s, CLAUDE.md) made this path 49 s vs the 13 s
        # bounded-bucket shuffle — measured, do not raise without
        # re-probing. Multi-node note: unlike the flat blocks, these
        # blocks hold ONLY pair_schema's 7 numeric columns (56 B/row,
        # ≤28 MB at the cap) — the whole-block get IS the narrow partial
        # here, no projection task needed.
        tie_parts = [t for t in ray.get(pairs.to_arrow_refs()) if len(t)]
        tie_tbl = (
            pa.concat_tables(tie_parts).combine_chunks()
            if tie_parts
            else pair_schema.empty_table()
        )
        counters["blocks_dropped"] = int(
            pc.sum(tie_tbl["dropped_groups"]).as_py() or 0
        )
    else:
        counters["blocks_dropped"] = int(sum(ray.get(
            [_sum_col_partial.remote(r, "dropped_groups")
             for r in pairs.to_arrow_refs()]
        )))
    _tick("pair_scoring", {"tie_rows": n_tie_rows,
                           "blocks_dropped": counters["blocks_dropped"]})

    # ---- stage C: bucketed per-x reduce ----------------------------------
    req = cfg.required_threshold
    scored_schema = pa.schema(
        [("__x_id__", pa.int64()), ("pre_status", pa.string()),
         ("winner_y_id", pa.int64()), ("winner_score", pa.float64()),
         ("rows_matched", pa.string()), ("match_score_str", pa.string()),
         ("n_candidates", pa.int64())]
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        # sentinel rows (x_id == -1, dropped-group carriers) are filtered
        # HERE — a separate filter map over the tie rows was one more
        # whole task wave
        t = t.filter(pc.not_equal(t["x_id"], -1))
        n = len(t)
        if n == 0:
            return scored_schema.empty_table()
        x_id = t["x_id"].to_numpy()
        y_id = t["y_id"].to_numpy()
        score = t["score"].to_numpy()
        optimal = t["optimal"].to_numpy()
        nsc = t["n_scored"].to_numpy()
        order = np.lexsort((y_id, x_id))
        x_s, y_s = x_id[order], y_id[order]
        # per-x scored-pair totals BEFORE dedupe (counter, not semantics)
        ns_order = np.argsort(x_id, kind="stable")
        ns_x = x_id[ns_order]
        ns_bounds = np.nonzero(np.concatenate(([True], ns_x[1:] != ns_x[:-1])))[0]
        ns_sums = np.add.reduceat(nsc[ns_order], ns_bounds)
        # dedupe repeated (x, y) pairs (same pair from several shared keys)
        first = np.concatenate(
            ([True], (x_s[1:] != x_s[:-1]) | (y_s[1:] != y_s[:-1]))
        )
        sel = order[first]
        x_s, y_s = x_id[sel], y_id[sel]
        sc_s, op_s = score[sel], optimal[sel]
        bounds = np.nonzero(np.concatenate(([True], x_s[1:] != x_s[:-1])))[0]
        ends = np.concatenate((bounds[1:], [len(x_s)]))
        # fully vectorized per-x resolution (the per-x Python loop here was
        # ~0.03 ms × |x| — the whole stage's wall time at corpus scale)
        g = len(bounds)
        gsize = ends - bounds
        mx = np.maximum.reduceat(sc_s, bounds)
        tie = sc_s == np.repeat(mx, gsize)
        n_ties = np.add.reduceat(tie.astype(np.int64), bounds)
        passing = mx >= req
        single = n_ties == 1
        status = np.where(
            ~passing, "unmatched",
            np.where(~single, "ambiguous",
                     np.where(mx <= op_s[bounds], "review", "matched")),
        )
        tie_idx = np.nonzero(tie)[0]
        grp_of_tie = np.searchsorted(bounds, tie_idx, side="right") - 1
        first_tie = np.zeros(g, np.int64)
        firstmask = np.concatenate(
            ([True], grp_of_tie[1:] != grp_of_tie[:-1])
        ) if len(grp_of_tie) else np.empty(0, bool)
        first_tie[grp_of_tie[firstmask]] = tie_idx[firstmask]
        win = passing & single
        winner = np.where(win, y_s[first_tie], -1).astype(np.int64)
        wscore = np.where(win, mx, np.nan)
        # rm / ms: per-group joined tie strings for passing groups (already
        # y-sorted); str(float) parity via one Python str per UNIQUE score
        keep_tie = passing[grp_of_tie]
        kept = tie_idx[keep_tie]
        kept_grp = grp_of_tie[keep_tie]
        counts = np.where(passing, n_ties, 0)
        offs = np.zeros(g + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        offs32 = pa.array(offs, pa.int32())
        rm = pc.binary_join(
            pa.ListArray.from_arrays(
                offs32, pc.cast(pa.array(y_s[kept]), pa.string())
            ),
            ", ",
        )
        codes, uniq_mx = pd.factorize(mx[kept_grp]) if len(kept) else (
            np.empty(0, np.int64), np.empty(0))
        strs = np.array([str(float(v)) for v in uniq_mx], dtype=object)
        ms = pc.binary_join(
            pa.ListArray.from_arrays(
                offs32,
                pa.array(strs[codes] if len(kept) else [], pa.string()),
            ),
            ", ",
        )
        # ns groups are the same ascending-unique-x sequence as `bounds`
        return pa.table(
            {
                "__x_id__": pa.array(x_s[bounds], pa.int64()),
                "pre_status": pa.array(status, pa.string()),
                "winner_y_id": pa.array(winner),
                "winner_score": pa.array(wscore, pa.float64()),
                "rows_matched": rm,
                "match_score_str": ms,
                "n_candidates": pa.array(ns_sums.astype(np.int64)),
            }
        )

    def finalize_rows(t: pa.Table, dup_ids_s: np.ndarray,
                      dem_ids_s: np.ndarray) -> pa.Table:
        xids = t["__x_id__"].to_numpy()
        # status map + flip application vectorized: statuses have ~4
        # distinct values (map via factorize); flips arrive as sorted id
        # arrays — membership is two searchsorted probes, no per-row Python
        codes, uniq = pd.factorize(
            np.asarray(t["pre_status"].to_pylist(), dtype=object)
        )
        mapped = np.array([MATCH_STATUS[s] for s in uniq], dtype=object)
        final = mapped[codes] if len(uniq) else np.empty(0, object)

        def _member(sorted_ids: np.ndarray) -> np.ndarray:
            if not len(sorted_ids):
                return np.zeros(len(xids), bool)
            pos = np.searchsorted(sorted_ids, xids)
            pos[pos == len(sorted_ids)] = 0
            return sorted_ids[pos] == xids

        final[_member(dup_ids_s)] = MATCH_STATUS["duplicate"]
        demoted = _member(dem_ids_s)
        final[demoted] = MATCH_STATUS["unmatched"]
        return pa.table(
            {
                "x_id": t["__x_id__"].combine_chunks(),
                "match_status": pa.array(final, pa.string()),
                "winner_y_id": t["winner_y_id"].combine_chunks(),
                "winner_score": t["winner_score"].combine_chunks(),
                "rows_matched": t["rows_matched"].combine_chunks(),
                "match_score": t["match_score_str"].combine_chunks(),
                "demoted": pa.array(demoted),
            }
        )

    # x docs whose every candidate pair was filtered (or that never shared
    # a block) are ABSENT from the reduce output; stage D2 surfaces them as
    # UNMATCHED rows so status accounting over assignments never silently
    # loses rows
    def _unmatched_rows(ids: np.ndarray) -> pa.Table:
        n = len(ids)
        return pa.table(
            {
                "x_id": pa.array(ids, pa.int64()),
                "match_status": pa.array(
                    [MATCH_STATUS["unmatched"]] * n, pa.string()
                ),
                "winner_y_id": pa.array(np.full(n, -1, np.int64)),
                "winner_score": pa.nulls(n, pa.float64()),
                "rows_matched": pa.array([""] * n, pa.string()),
                "match_score": pa.array([""] * n, pa.string()),
                "demoted": pa.array(np.zeros(n, bool)),
            }
        )

    # Stages C-D2 run in one of two tails that differ in three places:
    # where the per-x reduce runs, where the winner partials come from and
    # where finalize runs. Below the cap all three run on the driver's tie
    # table; above it the reduce is an exchange on x_id (each x's tie rows
    # from every key group meet in one reduce_bucket call), one task next
    # to each scored block ships only its numeric winner triples and
    # scored ids (the tie STRINGS stay behind), and finalize is a
    # map_blocks over the scored blocks. The rest is one body on driver
    # arrays.
    if driver_tail:
        scored_tbl = reduce_bucket(tie_tbl)
        parts = [_winners(scored_tbl)]
    else:
        scored = bucket_exchange(pairs, ["x_id"], reduce_bucket)
        parts = ray.get(
            [_winner_partial.remote(r) for r, _ in block_refs(scored)]
        )
    n_cand, *cols = zip(_winners(scored_schema.empty_table()), *parts)
    x_ids, x_w, y_w, s_w = (np.concatenate(c) for c in cols)
    counters["pairs_scored"] = int(sum(n_cand))
    _tick("reduce", {"x_with_candidates": len(x_ids),
                     "pairs_scored": counters["pairs_scored"]})
    flips = resolve_winner_arrays(y_w, s_w, cfg.duplicate_threshold)
    dup_ids = np.sort(x_w[flips == FLIP_DUPLICATE])
    dem_ids = np.sort(x_w[flips == FLIP_DEMOTE])
    _tick("flips", {"n_flips": len(dup_ids) + len(dem_ids)})

    # ---- stage D: duplicate pass + finalize, D2: UNMATCHED backfill -------
    # the backfill is a setdiff against the x routing index (sorted asc);
    # its rows follow the finalized ones. Each executed dataset costs ~2 ms
    # to build (a stats-actor call), so the driver tail builds one.
    miss = np.setdiff1d(x_route[0], x_ids)
    counters["x_without_candidates"] = len(miss)
    backfill = _unmatched_rows(miss)
    if driver_tail:
        assignments = executed_from_tables([pa.concat_tables(
            [finalize_rows(scored_tbl, dup_ids, dem_ids), backfill]
        )])
    else:
        # broadcast as two SORTED id arrays, not a dict — at multi-mention
        # corpora the flip set is ~|x|/2, and per-batch dict iteration in
        # every finalize task was Python over the whole set
        flips_ref = ray.put((dup_ids, dem_ids))
        [finalized] = map_blocks(
            [scored], lambda t: finalize_rows(t, *ray.get(flips_ref))
        )
        assignments = concat_executed(
            [finalized, executed_from_tables([backfill])]
        )
    _tick("finalize", {"rows": assignments.count() - len(miss)})
    _tick("assignments", {"rows": assignments.count(),
                          "backfilled": counters["x_without_candidates"]})

    # accepted edges for CLUSTERING: every pre-duplicate-pass winner pair
    # (score >= required_threshold, unambiguous). The duplicate pass resolves
    # the 1:1 assignment (multiple mentions of one entity matching the same
    # registry doc demote to UNMATCHED per reference semantics,
    # matcher.py:433-447) — but those demoted pairs are still true
    # same-entity links, exactly what transitive clustering must connect.
    edges = executed_from_tables(
        [pa.table({"u": pa.array(x_w * 2), "v": pa.array(y_w * 2 + 1)})]
    )
    counters["matches_accepted"] = int(len(x_w))
    _tick("edges", {"accepted": counters["matches_accepted"]})

    clusters = None
    if cluster_edges:
        # the winner table is one row per x (per-x argmax), so the match
        # graph is a forest of stars: the degree-≤1 specialized kernel
        # applies (one sort + segmented min, no unique / propagation
        # rounds)
        nodes, roots = connected_components_star(x_w * 2, y_w * 2 + 1)
        clusters = executed_from_tables(
            [pa.table({"node": pa.array(nodes), "component": pa.array(roots)})]
        )
    _tick("clustering", {"enabled": cluster_edges})
    return DocMatchResult(assignments, edges, clusters, counters)


def edges_from_assignments(assignments: ray.data.Dataset) -> ray.data.Dataset:
    """Re-derive accepted-pair edges from a (possibly checkpoint-read)
    assignments dataset."""

    def to_edges(t: pa.Table) -> pa.Table:
        k = t.filter(pc.not_equal(t["winner_y_id"], -1))
        return pa.table(
            {
                "u": pc.multiply(k["x_id"].combine_chunks(), 2),
                "v": pc.add(pc.multiply(k["winner_y_id"].combine_chunks(), 2), 1),
            }
        )

    return assignments.map_batches(to_edges, batch_format="pyarrow")


def match_documents_checkpointed(
    x_docs: ray.data.Dataset,
    y_docs: ray.data.Dataset,
    root: str,
    *,
    n_shards: int = 4,
    fingerprint: str = "",
    cfg: MatchConfig | None = None,
    **kw,
) -> DocMatchResult:
    """Resumable variant: ONE match of all of x against the checkpointed
    registry index (:func:`match_documents_delta` under the same
    ``root``), whose assignments are written as ``n_shards`` checkpointed
    partitions (parquet + lineage manifest, state/checkpoint.py; x row
    ``x_id % n_shards == i`` goes to partition ``i``). Clustering runs as
    a final checkpointed stage over their union.

    The shard count only splits the checkpoint: blocking, the per-key
    width cap and the duplicate pass all see the whole of x, so the
    assignments equal :func:`match_documents`' for every ``n_shards``.
    Completed partitions are read back, not rewritten; the match itself
    is one stage. A run whose partitions are all complete computes
    nothing (no index load, no match); a run with any partition missing
    recomputes the one global match and writes only the missing
    partitions.

    The manifests' fingerprint folds in ``n_shards``, ``max_block_side``,
    ``num_perm`` and ``seed`` after the caller's ``fingerprint``, so a
    root written under another shard layout or key derivation is
    recomputed, never mixed in. A root written when the layout string
    still carried a ``-b<n_buckets>`` field recomputes once. ``**kw``
    goes to :func:`match_documents_delta`."""
    from record_matcher_ray.state.checkpoint import StageRunner, hash_partition_ids

    layout = (f"global-shards{n_shards}-cap{kw.get('max_block_side', 32)}"
              f"-perm{kw.get('num_perm', 64)}-seed{kw.get('seed', 1)}")
    runner = StageRunner(root, fingerprint=f"{fingerprint}|{layout}")
    matched: list[ray.data.Dataset] = []  # the global match, on first use

    def shard_fn(part: str) -> ray.data.Dataset:
        if not matched:
            matched.append(match_documents_delta(
                x_docs, y_docs, root, cfg=cfg, fingerprint=fingerprint,
                cluster_edges=False, **kw,
            ).assignments.materialize())
        i = int(part)

        def keep(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(np.mod(t["x_id"].to_numpy(), n_shards) == i))

        return matched[0].map_batches(keep, batch_format="pyarrow")

    assignments = runner.run_partitioned(
        "assignments", hash_partition_ids(n_shards), shard_fn
    )
    edges = edges_from_assignments(assignments).materialize()
    clusters = runner.run(
        "clusters", lambda: connected_components(edges)
    )
    counters = Counter(
        {"matches_accepted": edges.count(), "shards": n_shards}
    )
    res = DocMatchResult(assignments, edges, clusters, counters)
    res.runner = runner
    return res


def build_doc_index(
    y_docs: ray.data.Dataset,
    root: str,
    *,
    cfg: MatchConfig | None = None,
    num_perm: int = 64,
    seed: int = 1,
    max_block_side: int = 32,
    fingerprint: str = "",
) -> "StageRunner":
    """Build (or reuse) the PERSISTENT registry-side index: normalized
    flats (stage ``y_flat``) and expanded blocking keys (stage
    ``y_keys``), checkpointed with lineage manifests under ``root``.

    A 100-TB deployment never re-derives the static registry side per
    run — the reference recomputes its group index every call
    (records.py:106-132), which is fine at 10^3 rows and prohibitive at
    10^9. Both stages are :class:`StageRunner` partitions: a second call
    with the same fingerprint skips them entirely, and a killed build
    resumes. The key-derivation parameters are folded into the manifest
    fingerprint so an index built with different ``num_perm``/``seed`` is
    recomputed, never silently reused. The stored keys carry no key
    group, so one index serves every task layout (an index whose keys
    still carry a ``bucket`` column loads, and the column is ignored). An
    index whose fingerprint still carries a ``-b<n_buckets>`` field is
    recomputed once."""
    from record_matcher_ray.state.checkpoint import StageRunner

    cfg = cfg or default_doc_config()
    carry = sorted(set(cfg.x_match_columns()) | set(cfg.y_columns_needed()))
    fp = f"{fingerprint}|perm{num_perm}-seed{seed}-cap{max_block_side}"
    runner = StageRunner(root, fingerprint=fp)

    runner.run("y_flat", lambda: _flats([y_docs], carry)[0])

    def keys_fn() -> ray.data.Dataset:
        from record_matcher_ray.state.checkpoint import read_partition

        # drop keys whose Y-side width exceeds the scoring cap AT BUILD
        # TIME: score_bucket drops any group with ny > max_block_side
        # (non-discriminative fat band buckets), so their y rows can
        # never score — at the 1M-entity corpus they are the MAJORITY of
        # the raw key mass (common filler-text bands) and sorting them
        # per bucket dominated the delta's scoring wall. One exchange,
        # one-time. Consequence (documented): a delta run's
        # `blocks_dropped` counter no longer counts ny-overflow groups —
        # assignments are unchanged (those groups never emit pairs).
        def drop_fat(t: pa.Table) -> pa.Table:
            k = t["key"].to_numpy()
            order = np.argsort(k, kind="stable")
            ks_s = k[order]
            bounds = np.nonzero(
                np.concatenate(([True], ks_s[1:] != ks_s[:-1]))
            )[0]
            sizes = np.diff(np.append(bounds, len(ks_s)))
            keep = np.repeat(sizes <= max_block_side, sizes)
            return t.take(pa.array(order[keep]))

        return bucket_exchange(
            read_partition(root, "y_flat", "all"), ["key"], drop_fat,
            prepare=KeyExpander(1, num_perm, seed),
        )

    runner.run("y_keys", keys_fn)

    def keyset_fn() -> ray.data.Dataset:
        from record_matcher_ray.state.checkpoint import read_partition

        # per-block distinct is enough (the delta load np.unique-merges);
        # this is the broadcastable "which keys exist on the y side at
        # scoreable width" set used to prune the DELTA's x keys
        def uniq(t: pa.Table) -> pa.Table:
            return pa.table(
                {"key": pa.array(np.unique(t["key"].to_numpy()))}
            )

        return read_partition(root, "y_keys", "all", columns=["key"]).map_batches(
            uniq, batch_format="pyarrow"
        )

    runner.run("y_keyset", keyset_fn)
    return runner


def _load_y_prepared(
    y_docs: ray.data.Dataset,
    root: str,
    cfg: MatchConfig,
    *,
    num_perm: int,
    seed: int,
    max_block_side: int,
    fingerprint: str,
):
    """Build (or manifest-skip) the registry index under ``root`` and
    load its plasma-resident form ``(y_flat, yk, yset_ref, y_route)``,
    session-cached so repeated calls against one registry pay the load
    once. Shared by the delta and checkpointed paths."""
    runner = build_doc_index(
        y_docs, root, cfg=cfg, num_perm=num_perm, seed=seed,
        fingerprint=fingerprint, max_block_side=max_block_side,
    )
    from record_matcher_ray.state.checkpoint import read_partition

    carry = sorted(set(cfg.x_match_columns()) | set(cfg.y_columns_needed()))
    cache_key = (root, fingerprint, num_perm, seed, tuple(carry),
                 max_block_side)
    cached = _DELTA_INDEX_CACHE.get("entry")
    if cached is not None and cached[0] == cache_key:
        return runner, cached[1]
    # read back ONLY rid + the scorer (carry) columns: the long
    # `body` fed key expansion at index-build time and never rides
    # again — at registry scale it is most of the flats' bytes.
    # Re-assert the single-chunk guarantee after the parquet
    # round-trip (score_bucket's views are zero-copy only over
    # single-chunk columns).
    need = ["rid"] + carry
    [y_flat], [(y_rids,)] = map_blocks(
        [read_partition(root, "y_flat", "all", columns=need)],
        lambda t: _normalize_carry_cols(t, carry), [(_rids,)],
    )
    y_route = _assemble_route(ray.get(y_rids))
    yk = read_partition(root, "y_keys", "all").materialize()
    keyset = read_partition(root, "y_keyset", "all").to_arrow_refs()
    yset = np.unique(np.concatenate([np.empty(0, np.int64), *ray.get(
        [_key_partial.remote(r) for r in keyset])]))
    yset_ref = ray.put(yset) if len(yset) else None
    # one live entry: a daily-delta service processes many arriving
    # batches against ONE registry index per session — keep its
    # plasma-resident form (flats + key table + keyset + route) warm so
    # only the first delta pays the load
    _DELTA_INDEX_CACHE["entry"] = (cache_key, (y_flat, yk, yset_ref, y_route))
    return runner, (y_flat, yk, yset_ref, y_route)


def match_documents_delta(
    x_new_docs: ray.data.Dataset,
    y_docs: ray.data.Dataset,
    root: str,
    *,
    cfg: MatchConfig | None = None,
    num_perm: int = 64,
    seed: int = 1,
    fingerprint: str = "",
    **kw,
) -> DocMatchResult:
    """Incremental matching: match ONLY ``x_new_docs`` (the day's arriving
    delta) against the registry, reusing the checkpointed registry index
    (``build_doc_index``) instead of re-flattening and re-key-expanding
    the static y side. First call builds the index; subsequent calls skip
    it via the lineage manifests, so a 10% delta costs roughly the x-side
    work plus the (cheap) index read-back — not a full re-match.

    Returns the standard :class:`DocMatchResult` restricted to the new
    docs; ``res.runner`` carries the index skip/compute accounting."""
    cfg = cfg or default_doc_config()
    runner, y_prepared = _load_y_prepared(
        y_docs, root, cfg, num_perm=num_perm, seed=seed,
        max_block_side=kw.get("max_block_side", 32),
        fingerprint=fingerprint,
    )
    res = match_documents(
        x_new_docs, None, cfg, num_perm=num_perm, seed=seed,
        y_prepared=y_prepared, **kw
    )
    res.runner = runner
    return res


def pairs_by_key_tag(
    x_docs: ray.data.Dataset,
    y_docs: ray.data.Dataset,
    *,
    num_perm: int = 64,
    seed: int = 1,
    max_block_side: int = 32,
) -> pd.DataFrame:
    """Diagnostic histogram for skew probes (CLAUDE.md rule: probe
    pairs-by-key-tag before growing a corpus): per blocking-key FAMILY
    (1=exact title, 2=title n-gram, 3=body minhash band, 4=media), the
    candidate pairs an UNCAPPED pass would admit vs what the per-side
    cap admits/drops — the direct reading of whether LSH bucket caps are
    holding a skewed corpus's quadratic blocks in check. Same key
    derivation as :func:`match_documents`; one bounded exchange."""

    hist_schema = pa.schema(
        [("tag", pa.int64()), ("groups", pa.int64()),
         ("dropped_groups", pa.int64()), ("admitted_pairs", pa.int64()),
         ("dropped_pairs", pa.int64()), ("max_side", pa.int64())]
    )

    def hist(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return hist_schema.empty_table()
        k = t["key"].to_numpy()
        side = t["side"].to_numpy()
        order = np.lexsort((side, k))
        ks, ss = k[order], side[order]
        bounds = np.nonzero(np.concatenate(([True], ks[1:] != ks[:-1])))[0]
        sizes = np.diff(np.append(bounds, n))
        nx = np.add.reduceat((ss == 0).astype(np.int64), bounds)
        ny = sizes - nx
        both = (nx > 0) & (ny > 0)
        ok = both & (nx <= max_block_side) & (ny <= max_block_side)
        pairs = nx * ny
        tag = (ks[bounds] >> np.int64(58)).astype(np.int64)
        out = {"tag": [], "groups": [], "dropped_groups": [],
               "admitted_pairs": [], "dropped_pairs": [], "max_side": []}
        for tg in np.unique(tag):
            m = tag == tg
            out["tag"].append(int(tg))
            out["groups"].append(int((m & both).sum()))
            out["dropped_groups"].append(int((m & both & ~ok).sum()))
            out["admitted_pairs"].append(int(pairs[m & ok].sum()))
            out["dropped_pairs"].append(int(pairs[m & both & ~ok].sum()))
            out["max_side"].append(
                int(np.maximum(nx[m], ny[m]).max()) if m.any() else 0
            )
        return pa.table(out, schema=hist_schema)

    parts = bucket_exchange(
        _flats([x_docs, y_docs], []), ["key"], hist,
        prepare=[KeyExpander(0, num_perm, seed), KeyExpander(1, num_perm, seed)],
    ).to_pandas()
    if parts.empty:
        return parts
    agg = parts.groupby("tag").agg(
        groups=("groups", "sum"),
        dropped_groups=("dropped_groups", "sum"),
        admitted_pairs=("admitted_pairs", "sum"),
        dropped_pairs=("dropped_pairs", "sum"),
        max_side=("max_side", "max"),
    ).reset_index()
    return agg.sort_values("tag").reset_index(drop=True)
