"""The match kernel — the heart of the engine.

Reproduces the scoring + match-semantics of the reference's
``records_match`` (/root/reference/record_matcher/matcher.py:92-216) and the
per-x half of ``RecordMatcher.match`` (matcher.py:320-406) over flat numpy
arrays instead of per-row Python loops. Every match path runs the one
keyed kernel, :func:`score_keyed`: the blocked Ray match once per hash
bucket of blocking keys, the ungrouped broadcast match once per X batch
(one key), and the local dict-table API once over all of its rows. It
takes x rows and y rows with their blocking keys (candidates are exactly
the y rows sharing an x row's key, matching ``records.group_by``
semantics at records.py:106-132) and emits one result row per x row:

1. each key's (x, y) pairs are enumerated by a key sort and a boundary
   search — no per-key Python call;
2. the pairs are scored by :func:`score_pairs_flat` in chunks of whole x
   rows under a pair budget, so a hot key becomes many bounded chunks;
3. each x's winner is resolved vectorized; only the tie-string joins
   loop in Python.

Semantics reproduced exactly (SURVEY.md §2.1 O6/O7/O8, §2.5):

- per-column score = max over mapped y-columns (matcher.py:83-84);
- cutoff=True keeps scores >= threshold, else scores > 0 (matcher.py:86-89);
- per-row weights = global x-uniqueness restricted to this row's non-blank
  match columns, renormalized to sum 1 (matcher.py:173-177);
- row score = sum of weighted passing column scores accumulated in
  columns_to_match order (matcher.py:184-200);
- candidates = y-rows passing ANY column filter (even at weight 0 — the
  reference's defaultdict key creation);
- argmax tie-set with float equality (matcher.py:202-208);
- optimal threshold = sum of column thresholds x weights (matcher.py:210-214);
- required-threshold filter then 1 → REVIEW (score <= optimal, inclusive)
  / MATCHED, >1 → AMBIGUOUS, 0 → UNMATCHED (matcher.py:357-388);
- ``rows_matched`` / ``match_score`` are ", "-joined strings in the
  reference's candidate-insertion order (first-passing-column, then y
  position — matcher.py:390-401).

``score_pairs_flat`` is also docmatch's OR-blocked pair scorer. The
duplicate pass (matcher.py:408-447) is global per winner-y, so it runs
on whole winner-y groups: inside each blocking bucket of the blocked
match (a y is won only by x rows of its key), and through
:func:`record_matcher_ray.pipelines.match.compute_flips` where the
scored rows are not grouped by key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from record_matcher_ray.core.config import MatchConfig
from record_matcher_ray.functions.scorers import _factorize, get_scorer

MATCH_STATUS = {
    "unmatched": "UNMATCHED",
    "matched": "MATCHED",
    "ambiguous": "AMBIGUOUS",
    "review": "REVIEW",
    "duplicate": "DUPLICATE",
}

NO_WINNER = -1

# pairs scored per chunk: whole x rows are packed into a chunk until their
# pairs reach this budget (an x row with more pairs is a chunk alone), so
# a chunk's per-pair temporaries stay in the tens of MB however hot a key
_PAIR_BUDGET = 1 << 18


def as_string_array(values, n: int | None = None) -> np.ndarray:
    """Normalize a column to an object array of strings; null/missing → "".

    Falsy NON-STRING scalars (0, False, 0.0) also map to "" — the
    reference's blank test is a raw truthiness check (``if value``,
    matcher.py:173-175 / records.py:66), so such rows carry no weight in
    matching, uniqueness or grouping. Truthy non-strings stringify
    (42 → "42")."""
    if values is None:
        return np.full(n, "", dtype=object)
    arr = np.asarray(values, dtype=object)
    out = np.empty(len(arr), dtype=object)
    for i, v in enumerate(arr):
        if isinstance(v, str):
            out[i] = v
        elif v is None or not v or (isinstance(v, float) and np.isnan(v)):
            out[i] = ""
        else:
            out[i] = str(v)
    return out


def _score_column(scorer, xcol, xi, ycol, yi) -> np.ndarray:
    """One (x column, y column) score per pair ``(xi[k], yi[k])``.

    A block, where every row takes part in many pairs, factorizes each
    column once per row: a unique value cross no larger than the pairs
    goes to the scorer's matrix kernel, otherwise each unique value pair
    is scored once through its elementwise kernel. docmatch passes one
    row per doc of a key group and each distinct doc pair once, so every
    row takes part in a pair. With more rows than pairs (most rows pair
    with nothing) the elementwise kernel gets the pairs' values directly
    and dedupes them itself."""
    if len(xcol) > len(xi) or len(ycol) > len(yi):
        return scorer.elementwise(xcol[xi], ycol[yi])
    ux, xc = _factorize(xcol)
    uy, yc = _factorize(ycol)
    nuy = len(uy)
    if len(ux) * nuy <= len(xi):
        return scorer.pairwise(ux, uy)[xc[xi], yc[yi]]
    inv, upk = pd.factorize(xc[xi] * nuy + yc[yi])
    return scorer.elementwise(ux[upk // nuy], uy[upk % nuy])[inv]


def score_pairs_flat(
    x_cols: dict[str, np.ndarray],
    y_cols: dict[str, np.ndarray],
    xi: np.ndarray,
    yi: np.ndarray,
    cfg: MatchConfig,
    uniqueness: dict[str, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score candidate pairs given as aligned index vectors ``(xi, yi)``
    into the x / y column arrays (any number of blocking groups in one
    call); see :func:`_score_column` for how each column is scored.

    Returns ``(score, cand, optimal_x, first_col)``: per-pair weighted
    score, per-pair candidate mask (passes any column filter), the
    per-X-ROW optimal threshold vector (length = len of x arrays), and
    per pair the index in ``columns_to_match`` of the first column that
    passed (0 where none did) — the reference's candidate-insertion
    order."""
    mcols = cfg.columns_to_match
    order = [c for c, _ in mcols]
    nx = len(next(iter(x_cols.values()))) if x_cols else 0
    npair = len(xi)
    ny = len(next(iter(y_cols.values()))) if y_cols else int(yi.max(initial=-1)) + 1
    blank_x = np.full(nx, "", dtype=object)
    blank_y = np.full(ny, "", dtype=object)

    refined = {}
    rowsum = np.zeros(nx, dtype=np.float64)
    for c in order:
        xc = x_cols.get(c, blank_x)
        refined[c] = np.asarray(xc != "", dtype=bool)
        rowsum = rowsum + uniqueness.get(c, 0.0) * refined[c]
    safe = np.where(rowsum > 0, rowsum, 1.0)
    weights = {
        c: np.where(rowsum > 0, uniqueness.get(c, 0.0) * refined[c] / safe, 0.0)
        for c in order
    }

    score = np.zeros(npair, dtype=np.float64)
    cand = np.zeros(npair, dtype=bool)
    first = np.zeros(npair, dtype=np.int32)
    for ci, (c, ycols) in enumerate(mcols):
        best = np.zeros(npair, dtype=np.float64)
        if ycols:
            scorer = get_scorer(cfg.scorer_of(c))
            xcol = x_cols.get(c, blank_x)
            for k, ycol in enumerate(ycols):
                v = _score_column(scorer, xcol, xi, y_cols.get(ycol, blank_y), yi)
                best = v if k == 0 else np.maximum(best, v)
        thr = cfg.threshold_of(c)
        passing = (best >= thr) if cfg.cutoff_of(c) else (best > 0)
        first[passing & ~cand] = ci
        cand |= passing
        score += best * passing * weights[c][xi]

    optimal = np.zeros(nx, dtype=np.float64)
    for c in order:
        optimal = optimal + cfg.threshold_of(c) * weights[c]
    return score, cand, optimal, first


def score_keyed(
    x_cols: dict[str, np.ndarray],
    y_cols: dict[str, np.ndarray],
    x_keys: np.ndarray,
    y_keys: np.ndarray,
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    cfg: MatchConfig,
    uniqueness: dict[str, float],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Match every x row against the y rows that share its blocking key.

    Parameters
    ----------
    x_cols / y_cols : column name → object array of normalized strings
        (missing column ⇒ all-""). Must include every column named in
        ``cfg.columns_to_match`` (x side) and mapped y-columns + get-columns
        (y side).
    x_keys / y_keys : one blocking key per row, any hashable dtype; equal
        keys are candidates of each other.
    x_ids / y_ids : int64 stable row ids.
    uniqueness : global x-table uniqueness per match column (O2), computed
        once and broadcast.

    Returns
    -------
    (result, copied):
        result: arrays of length nx in x input order — ``x_id``,
        ``pre_status`` (lowercase key), ``rows_matched``, ``match_score``,
        ``winner_y_id``, ``winner_score``.
        copied: target x_column → object array (None where not copied) for
        ``columns_to_get``.

    Ambiguous-tie strings order by (first passing column, y position
    within the key in y input order) — the reference's
    candidate-insertion order when y arrives in insertion order.
    """
    nx, ny = len(x_ids), len(y_ids)
    pre_status = np.full(nx, "unmatched", dtype=object)
    rows_matched = np.full(nx, "", dtype=object)
    match_score = np.full(nx, "", dtype=object)
    winner_y = np.full(nx, NO_WINNER, dtype=np.int64)
    winner_score = np.full(nx, np.nan, dtype=np.float64)
    copied = {
        x_col: np.full(nx, None, dtype=object) for _, x_col in cfg.columns_to_get
    }
    result = {
        "x_id": np.asarray(x_ids, dtype=np.int64),
        "pre_status": pre_status,
        "rows_matched": rows_matched,
        "match_score": match_score,
        "winner_y_id": winner_y,
        "winner_score": winner_score,
    }
    if nx == 0 or ny == 0 or not cfg.columns_to_match:
        return result, copied
    y_ids = np.asarray(y_ids, dtype=np.int64)
    blank_y = np.full(ny, "", dtype=object)
    get_vals = [(x_col, y_cols.get(y_col, blank_y))
                for y_col, x_col in cfg.columns_to_get]

    # 1. pairs: y sorted by key (stable, so y input order within a key);
    # each x's candidates are one contiguous run of that order
    codes, _ = pd.factorize(np.concatenate([np.asarray(x_keys), np.asarray(y_keys)]))
    xk, yk = codes[:nx], codes[nx:]
    y_order = np.argsort(yk, kind="stable")
    yk_s = yk[y_order]
    x_order = np.argsort(xk, kind="stable")
    lo = np.searchsorted(yk_s, xk[x_order], "left")
    hi = np.searchsorted(yk_s, xk[x_order], "right")
    has = hi > lo
    x_order, lo, hi = x_order[has], lo[has], hi[has]
    width = hi - lo
    ends = np.cumsum(width)

    req = cfg.required_threshold
    s = 0
    while s < len(x_order):
        # 2. a chunk: whole x rows (in key order) up to the pair budget
        e = int(np.searchsorted(ends, ends[s] - width[s] + _PAIR_BUDGET, "right"))
        e = max(e, s + 1)
        xs = x_order[s:e]
        w = width[s:e]
        y0 = lo[s]
        ys = y_order[y0:hi[e - 1]]
        npair = int(w.sum())
        starts = np.cumsum(w) - w
        xi = np.repeat(np.arange(e - s), w)
        yi = np.arange(npair) + np.repeat(lo[s:e] - y0 - starts, w)
        s = e
        score, cand, optimal, first = score_pairs_flat(
            {c: a[xs] for c, a in x_cols.items()},
            {c: a[ys] for c, a in y_cols.items()},
            xi, yi, cfg, uniqueness,
        )

        # 3. per-x argmax over candidates (pairs are x-major)
        sel = np.flatnonzero(cand)
        if not len(sel):
            continue
        cx, cs = xi[sel], score[sel]
        bounds = np.flatnonzero(np.concatenate(([True], cx[1:] != cx[:-1])))
        counts = np.diff(np.append(bounds, len(cx)))
        mx = np.maximum.reduceat(cs, bounds)
        ok = mx >= req
        tie = (cs == np.repeat(mx, counts)) & np.repeat(ok, counts)
        if not tie.any():
            continue
        # tie sets in the reference's insertion order
        tx, tf, ty = cx[tie], first[sel][tie], yi[sel][tie]
        o = np.lexsort((ty, tf, tx))
        ty, tsc = ys[ty[o]], cs[tie][o]
        ntie = np.add.reduceat(tie.astype(np.int64), bounds)[ok]
        tstart = np.cumsum(ntie) - ntie
        lx = cx[bounds][ok]          # chunk-local x of each resolved x
        gx = xs[lx]
        single = ntie == 1
        g1, p1 = gx[single], tstart[single]
        wy = ty[p1]
        pre_status[g1] = np.where(mx[ok][single] <= optimal[lx[single]],
                                  "review", "matched")
        winner_y[g1] = y_ids[wy]
        winner_score[g1] = tsc[p1]
        for x_col, vals in get_vals:
            copied[x_col][g1] = vals[wy]
        y_str = np.array([str(v) for v in y_ids[ty].tolist()], dtype=object)
        s_str = np.array([str(v) for v in tsc.tolist()], dtype=object)
        rows_matched[g1] = y_str[p1]
        match_score[g1] = s_str[p1]
        multi = ~single
        pre_status[gx[multi]] = "ambiguous"
        for g, a, n in zip(gx[multi], tstart[multi], ntie[multi]):
            rows_matched[g] = ", ".join(y_str[a:a + n])
            match_score[g] = ", ".join(s_str[a:a + n])

    return result, copied


def score_block(
    x_cols: dict[str, np.ndarray],
    y_cols: dict[str, np.ndarray],
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    cfg: MatchConfig,
    uniqueness: dict[str, float],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Score one X block against its complete candidate Y block: every x
    is a candidate of every y. :func:`score_keyed` with one key; same
    parameters and returns. Ambiguous-tie strings order by (first passing
    column, y position in the block as given)."""
    return score_keyed(
        x_cols, y_cols,
        np.zeros(len(x_ids), dtype=np.int64), np.zeros(len(y_ids), dtype=np.int64),
        x_ids, y_ids, cfg, uniqueness,
    )
