"""A pure-Python, one-row-at-a-time oracle of the reference's match
semantics (SURVEY.md §2.1 O6-O8, quirks §2.5), and a seeded fuzz test
that holds the vectorized kernel and the local API to it exactly.

The oracle is written from the survey's prose, not from any engine or
reference code: for each x row it finds the y rows sharing its blocking
key, scores them column by column with the scorer's scalar function,
keeps the argmax tie set in candidate-insertion order and assigns the
status; the duplicate pass then resolves each winning y. Scores are
compared as exact floats and exact strings: the vectorized scorers are
bit-identical to their scalar forms (tests/test_scorers.py), and both
sides accumulate a row score in ``columns_to_match`` order.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from record_matcher_ray.api import RecordMatcher
from record_matcher_ray.core import kernel
from record_matcher_ray.core.config import MatchConfigBuilder
from record_matcher_ray.core.kernel import score_block
from record_matcher_ray.functions.scorers import get_scorer

STATUS = {"unmatched": "UNMATCHED", "matched": "MATCHED",
          "ambiguous": "AMBIGUOUS", "review": "REVIEW",
          "duplicate": "DUPLICATE"}


def _val(row: dict, col: str) -> str:
    """A cell as the matcher sees it: missing or falsy → ""."""
    v = row.get(col)
    return v if isinstance(v, str) else ""


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def oracle_scores(xs, ys, y_ids, cfg, uniq):
    """Per x row (O6/O7 + the per-x half of O8) →
    ``(pre_status, rows_matched, match_score, winner_y_id, winner_score,
    {x_col: copied value or None})``."""
    order = [c for c, _ in cfg.columns_to_match]
    group = cfg.columns_to_group
    out = []
    for x in xs:
        # weights: uniqueness over the row's non-blank match columns,
        # renormalized to sum 1 (O3); a zero sum leaves every weight 0
        total = 0.0
        for c in order:
            if _val(x, c):
                total += uniq.get(c, 0.0)
        w = {c: uniq.get(c, 0.0) / total if total > 0 and _val(x, c) else 0.0
             for c in order}
        # candidates: y rows whose group values equal the x row's (O4)
        key = tuple(_val(x, xc) for _, xc in group)
        cands = [j for j, y in enumerate(ys)
                 if tuple(_val(y, yc) for yc, _ in group) == key]
        # O6 per column, accumulated in column order; a y enters the
        # candidate dict the first time any column passes, weight 0 or not
        scores: dict[int, float] = {}
        for c, ycols in cfg.columns_to_match:
            fn = get_scorer(cfg.scorer_of(c)).scalar
            thr = cfg.threshold_of(c)
            for j in cands:
                s = max(fn(_val(x, c), _val(ys[j], yc)) for yc in ycols)
                if (s >= thr) if cfg.cutoff_of(c) else (s > 0):
                    scores[j] = scores.get(j, 0.0) + s * w[c]
        optimal = 0.0
        for c in order:
            optimal = optimal + cfg.threshold_of(c) * w[c]
        copied = {x_col: None for _, x_col in cfg.columns_to_get}
        if not scores:
            out.append(("unmatched", "", "", -1, None, copied))
            continue
        best = max(scores.values())
        ties = [j for j, s in scores.items() if s == best]
        if best < cfg.required_threshold:
            out.append(("unmatched", "", "", -1, None, copied))
            continue
        rows = ", ".join(str(y_ids[j]) for j in ties)
        strs = ", ".join(str(scores[j]) for j in ties)
        if len(ties) > 1:
            out.append(("ambiguous", rows, strs, -1, None, copied))
            continue
        j = ties[0]
        for y_col, x_col in cfg.columns_to_get:
            copied[x_col] = _val(ys[j], y_col)
        st = "review" if best <= optimal else "matched"
        out.append((st, rows, strs, y_ids[j], best, copied))
    return out


def oracle_match(x_records, y_records, cfg):
    """The whole of O8 on dict tables → ``(rows, summary)``, as the
    reference's ``RecordMatcher.match`` returns them."""
    xs = list(x_records.values())
    ys = list(y_records.values())
    uniq = {}
    for c, _ in cfg.columns_to_match:
        uniq[c] = len({_val(r, c) for r in xs if _val(r, c)}) / len(xs)
    per_x = oracle_scores(xs, ys, list(y_records), cfg, uniq)
    rows, summary, by_y = {}, Counter(), {}
    for xid, (st, rm, ms, wy, ws, copied) in zip(x_records, per_x):
        row = dict(x_records[xid])
        row.update(copied)
        row.update({"match_status": STATUS[st], "row(s)_matched": rm,
                    "match_score": ms})
        rows[xid] = row
        summary[st] += 1
        if wy != -1:
            by_y.setdefault(wy, []).append((xid, ws))
    # duplicate pass: a y won by several x's (§2.5.1-2.5.3)
    for won in by_y.values():
        if len(won) < 2:
            continue
        scores = [s for _, s in won]
        hi, lo = max(scores), min(scores)
        if scores.count(hi) > 1 or abs(hi - lo) < cfg.duplicate_threshold:
            for xid, _ in won:
                rows[xid]["match_status"] = STATUS["duplicate"]
                summary["duplicate"] += 1
            continue
        for xid, s in won:
            if s == hi:
                continue
            row = rows[xid]
            for y_col, x_col in cfg.columns_to_get:
                row[y_col if cfg.strict_semantics else x_col] = None
            row.update({"match_status": STATUS["unmatched"],
                        "row(s)_matched": "", "match_score": ""})
            summary["unmatched"] += 1
    return rows, summary


# ---------------------------------------------------------------------------
# seeded configs
# ---------------------------------------------------------------------------

_VALUES = ["ab", "ba", "abc", "b", "ac", "a"]
_SCORERS = ["exact_match", "jaro_winkler", "levenshtein", "difflib_ratio"]


def _config(rng: random.Random):
    """One random match problem: tables, builder settings and uniqueness.
    Small alphabets make score ties common; blanks and None exercise the
    weight renormalization."""
    n_match = rng.randint(1, 3)
    x_cols = [f"c{i}" for i in range(n_match)]
    y_cols = ["d0", "d1", "d2", "d3"]
    n_group = rng.choice([0, 1, 1, 2])
    groups = [(f"gy{i}", f"gx{i}") for i in range(n_group)]
    gets = rng.sample(y_cols, rng.randint(0, 2))

    def cell(blank_p):
        r = rng.random()
        if r < blank_p:
            return rng.choice(["", None])
        return rng.choice(_VALUES)

    nx = rng.choice([0, 1, 3, 6, 9, 12])
    ny = rng.choice([0, 1, 4, 8, 12])
    blank_p = rng.choice([0.0, 0.15, 0.4])
    x_ids = rng.sample(range(100), nx)   # insertion order is not id order
    y_ids = rng.sample(range(500, 700), ny)
    x = {i: {**{c: cell(blank_p) for c in x_cols},
             **{gx: rng.choice(["k0", "k1", ""]) for _, gx in groups}}
         for i in x_ids}
    y = {j: {**{c: cell(blank_p) for c in y_cols},
             **{gy: rng.choice(["k0", "k1", ""]) for gy, _ in groups}}
         for j in y_ids}

    settings = []
    for c in x_cols:
        ycols = rng.sample(y_cols, rng.choice([1, 1, 2]))
        settings.append((c, ycols, rng.choice(_SCORERS),
                         rng.choice([0.0, 30.0, 50.0, 75.0, 100.0]),
                         rng.random() < 0.5))
    run = {"required_threshold": rng.choice([0.0, 30.0, 75.0]),
           "duplicate_threshold": rng.choice([0.0, 0.0, 10.0]),
           "strict_semantics": rng.random() < 0.7}
    # weight-0 candidates: columns missing from the uniqueness map
    uniq = {c: rng.choice([0.25, 0.5, 1.0]) for c in x_cols
            if rng.random() < 0.8}
    return x, y, settings, groups, [(g, f"got_{g}") for g in gets], run, uniq


def _build(builder, settings, groups, gets):
    for c, ycols, scorer, thr, cutoff in settings:
        builder.match(c, ycols, scorer=scorer, threshold=thr, cutoff=cutoff)
    for gy, gx in groups:
        builder.group(gy, gx)
    for y_col, x_col in gets:
        builder.get(y_col, x_col)
    return builder


def _strings(rows: list[dict], col: str) -> np.ndarray:
    return np.array([_val(r, col) for r in rows], dtype=object)


def _check_block(x, y, settings, groups, gets, run, uniq):
    """score_block, one call per blocking key, against the oracle."""
    all_x = ["c0", "c1", "c2"] + [gx for _, gx in groups]
    all_y = ["d0", "d1", "d2", "d3"] + [gy for gy, _ in groups]
    cfg = _build(MatchConfigBuilder(x_columns=all_x, y_columns=all_y),
                 settings, groups, gets).build(**run)
    xs, ys = list(x.values()), list(y.values())
    x_ids, y_ids = np.array(list(x), np.int64), np.array(list(y), np.int64)
    want = oracle_scores(xs, ys, list(y), cfg, uniq)
    x_key = [tuple(_val(r, gx) for _, gx in groups) for r in xs]
    y_key = [tuple(_val(r, gy) for gy, _ in groups) for r in ys]
    for key in dict.fromkeys(x_key) or [()]:
        xp = [i for i, k in enumerate(x_key) if k == key]
        yp = [j for j, k in enumerate(y_key) if k == key]
        xb, yb = [xs[i] for i in xp], [ys[j] for j in yp]
        res, copied = score_block(
            {c: _strings(xb, c) for c in cfg.x_match_columns()},
            {c: _strings(yb, c) for c in cfg.y_columns_needed()},
            x_ids[xp], y_ids[yp],
            cfg, uniq)
        for k, i in enumerate(xp):
            st, rm, ms, wy, ws, cp = want[i]
            got_ws = res["winner_score"][k]
            assert res["x_id"][k] == x_ids[i]
            assert res["pre_status"][k] == st
            assert res["rows_matched"][k] == rm
            assert res["match_score"][k] == ms
            assert res["winner_y_id"][k] == wy
            assert (np.isnan(got_ws) if ws is None else got_ws == ws)
            for x_col, v in cp.items():
                assert copied[x_col][k] == v


def _check_api(x, y, settings, groups, gets, run):
    """RecordMatcher.match (one kernel call over every key) against the
    oracle, duplicate pass and summary included."""
    m = RecordMatcher(**run)
    m.x_records = x
    m.y_records = y
    _build(m.config, settings, groups, gets)
    cfg = m.config.build(**run)
    got_rows, got_summary = m.match()
    want_rows, want_summary = oracle_match(x, y, cfg)
    assert list(got_rows) == list(want_rows)
    for xid, want in want_rows.items():
        assert got_rows[xid] == want, xid
    assert got_summary == want_summary


@pytest.mark.parametrize("pair_budget", [None, 5])
def test_kernel_and_api_match_oracle(monkeypatch, pair_budget):
    """200 seeded configs: ties from tiny alphabets, blanks and None,
    cutoff on and off, multi-y columns, weight-0 candidates,
    required_threshold 0/30/75, empty sides and several blocking keys.
    The small pair budget makes every multi-row block span several
    scoring chunks."""
    if pair_budget is not None:
        monkeypatch.setattr(kernel, "_PAIR_BUDGET", pair_budget, raising=False)
    n_api = 0
    for seed in range(200):
        x, y, settings, groups, gets, run, uniq = _config(random.Random(seed))
        _check_block(x, y, settings, groups, gets, run, uniq)
        if x and y:  # the local API infers its column sets from both tables
            _check_api(x, y, settings, groups, gets, run)
            n_api += 1
    assert n_api >= 100
