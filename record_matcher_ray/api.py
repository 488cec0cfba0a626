"""Local (single-process, no-Ray) dict-table API — drop-in surface parity
with the reference's ``RecordMatcher`` (matcher.py:219-449) running on the
engine's vectorized kernel.

A user of the reference can switch imports and run the same dict-table
workflow; the distributed Dataset pipeline with identical semantics lives in
:mod:`record_matcher_ray.pipelines.match`. Both share the same
:func:`score_keyed` kernel and :func:`resolve_duplicates` reduce, so the
local path doubles as the executable specification for the Ray path. Here
the kernel runs once over all rows, with the blocking-key tuples
factorized and y in insertion order.

Documented deviations from the reference (SURVEY.md §1.2-1.3, §2.5):
- null/None values normalize to "" before scoring (the reference feeds
  ``str(None) == "None"`` into scorers);
- ragged rows never raise (missing column ⇒ blank) where the reference's
  ``uniqueness_by_column`` would ``KeyError``;
- output rows are fresh dicts — the reference mutates the caller's inner
  row dicts through its shallow copy (§2.5.7).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable

import numpy as np

from record_matcher_ray.core import records as rec
from record_matcher_ray.core.config import MatchConfigBuilder
from record_matcher_ray.core.dup import resolve_duplicates
from record_matcher_ray.core.kernel import MATCH_STATUS, NO_WINNER, as_string_array, score_keyed


class RecordMatcher:
    """Dict-table matcher with the reference's end-to-end semantics."""

    MATCH_STATUS = dict(MATCH_STATUS)

    COLUMNS_TO_ADD = {
        "match_status": "match_status",
        "matched_with_row": "row(s)_matched",
        "match_score": "match_score",
    }

    def __init__(
        self,
        required_threshold: float = 75.0,
        duplicate_threshold: float = 0.0,
        strict_semantics: bool = True,
    ) -> None:
        self.required_threshold = required_threshold
        self.duplicate_threshold = duplicate_threshold
        self.strict_semantics = strict_semantics
        self.__x_records: dict = {}
        self.__y_records: dict = {}
        self.__config = MatchConfigBuilder()

    @property
    def x_records(self):
        return {i: dict(r) for i, r in self.__x_records.items()}

    @x_records.setter
    def x_records(self, records):
        self.__x_records = records
        self.__config.set_x_columns(rec.column_names(records))

    @property
    def y_records(self):
        return {i: dict(r) for i, r in self.__y_records.items()}

    @y_records.setter
    def y_records(self, records):
        self.__y_records = records
        self.__config.set_y_columns(rec.column_names(records))

    @property
    def config(self) -> MatchConfigBuilder:
        return self.__config

    @config.setter
    def config(self, config: MatchConfigBuilder):
        if (
            config.x_columns == self.__config.x_columns
            and config.y_columns == self.__config.y_columns
        ):
            self.__config = config

    def match(self, update_func: Callable | None = None):
        """Run the match; returns ``(records_matched, match_summary)``.

        The summary Counter reproduces the reference's over-counting quirk
        (statuses flipped by the duplicate pass are added without
        decrementing the originals — SURVEY.md §2.5.3)."""
        if not self.__x_records and not self.__y_records:
            return None

        cfg = self.__config.build(
            required_threshold=self.required_threshold,
            duplicate_threshold=self.duplicate_threshold,
            strict_semantics=self.strict_semantics,
        )

        x_ids = list(self.__x_records.keys())
        y_ids = list(self.__y_records.keys())

        # global x-uniqueness on raw dict semantics (reference matcher.py:164-167)
        uniq = {
            c: rec.uniqueness_by_column(self.__x_records, c)
            for c, _ in cfg.columns_to_match
        }

        # normalized string column arrays
        def columns_of(records, ids, names):
            return {
                c: as_string_array([records[i].get(c) for i in ids], len(ids))
                for c in names
            }

        x_need = [c for c, _ in cfg.columns_to_match] + [x for _, x in cfg.columns_to_group]
        y_need = cfg.y_columns_needed()
        x_arr = columns_of(self.__x_records, x_ids, dict.fromkeys(x_need))
        y_arr = columns_of(self.__y_records, y_ids, dict.fromkeys(y_need))

        # blocking key: the columns_to_group value tuple, factorized over
        # both sides (reference records.py:106-132 via matcher.py:179-182;
        # raw values in the reference, normalized strings here); y stays
        # in insertion order, which is the reference's tie order
        group_pairs = cfg.columns_to_group  # (y_col, x_col)
        key_codes: dict[tuple, int] = {}

        def keys_of(arr, cols, n):
            tuples = zip(*[arr[c] for c in cols]) if cols else [()] * n
            return np.fromiter(
                (key_codes.setdefault(k, len(key_codes)) for k in tuples),
                dtype=np.int64, count=n,
            )

        nx = len(x_ids)
        res, copied = score_keyed(
            x_arr, y_arr,
            keys_of(x_arr, [xc for _, xc in group_pairs], nx),
            keys_of(y_arr, [yc for yc, _ in group_pairs], len(y_ids)),
            np.arange(nx, dtype=np.int64),  # positions; map back to ids later
            np.asarray(y_ids, dtype=np.int64),
            cfg,
            uniq,
        )
        pre_status = res["pre_status"]
        rows_matched = res["rows_matched"]
        match_score = res["match_score"]
        winner_y = res["winner_y_id"]
        winner_score = res["winner_score"]

        # ---- assemble output rows (insertion order of x_records) ----------
        status_col = self.COLUMNS_TO_ADD["match_status"]
        matched_col = self.COLUMNS_TO_ADD["matched_with_row"]
        score_col = self.COLUMNS_TO_ADD["match_score"]

        out = {}
        summary = Counter()
        for pos, xi in enumerate(x_ids):
            row = dict(self.__x_records[xi])
            st = pre_status[pos]
            if st in ("matched", "review"):
                for _, x_col in cfg.columns_to_get:
                    row[x_col] = copied[x_col][pos]
            else:
                for _, x_col in cfg.columns_to_get:
                    row[x_col] = None
            row[status_col] = self.MATCH_STATUS[st]
            row[matched_col] = rows_matched[pos]
            row[score_col] = match_score[pos]
            summary[st] += 1
            out[xi] = row
            if callable(update_func):
                update_func()

        # ---- duplicate pass (matcher.py:408-447) --------------------------
        by_y: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for pos in range(nx):
            if winner_y[pos] != NO_WINNER:
                by_y[int(winner_y[pos])].append((pos, float(winner_score[pos])))

        for _, x_matches in by_y.items():
            verdict, positions = resolve_duplicates(x_matches, self.duplicate_threshold)
            if verdict == "duplicate":
                for pos in positions:
                    out[x_ids[pos]][status_col] = self.MATCH_STATUS["duplicate"]
                    summary["duplicate"] += 1
            elif verdict == "demote":
                for pos in positions:
                    row = out[x_ids[pos]]
                    if cfg.strict_semantics:
                        # reference quirk: nulls the *y*-column name, keeps
                        # the copied x-column value (matcher.py:439-440)
                        for y_col, _ in cfg.columns_to_get:
                            row[y_col] = None
                    else:
                        for _, x_col in cfg.columns_to_get:
                            row[x_col] = None
                    row[status_col] = self.MATCH_STATUS["unmatched"]
                    row[score_col] = ""
                    row[matched_col] = ""
                    summary["unmatched"] += 1

        return out, summary
