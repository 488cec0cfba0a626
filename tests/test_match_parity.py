"""End-to-end semantic parity: our kernel-backed RecordMatcher vs the
reference's RecordMatcher executed in-process (the oracle — SURVEY.md §5.2).

Covers every status class and the §2.5 quirks: duplicate-tie poisoning,
loser-nulling (y-column-key bug, strict mode), REVIEW-at-equality, the
summary over-count, empty-table edges, grouping/blocking, cutoffs, fuzzy
scorers, multi-y-column max, ragged rows and blanks.

Scores are compared as parsed floats with tolerance: the reference sums
weights in Python-set iteration order, which is process-dependent
(PYTHONHASHSEED), so bit-equality of float strings is not even stable for
the reference itself.
"""

import copy
import random

import pytest

from record_matcher_ray.api import RecordMatcher
from record_matcher_ray.functions.scorers import difflib_ratio


def run_reference(reference, x, y, setup):
    _, ref_matcher = reference
    import record_matcher.config as ref_config

    ref_config.ScorersByColumn.SCORERS["difflib_ratio"] = difflib_ratio
    m = ref_matcher.RecordMatcher()
    # deep copies: the reference mutates the caller's inner row dicts
    # through its shallow copy (quirk SURVEY.md §2.5.7)
    m.x_records = copy.deepcopy(x)
    m.y_records = copy.deepcopy(y)
    setup(m.config)
    return m.match()


def run_engine(x, y, setup, strict=True, **kw):
    m = RecordMatcher(strict_semantics=strict, **kw)
    m.x_records = copy.deepcopy(x)
    m.y_records = copy.deepcopy(y)
    setup(m.config)
    return m.match()


def assert_parity(got, want, check_summary=True):
    got_records, got_summary = got
    want_records, want_summary = want
    assert set(got_records) == set(want_records)
    for idx in want_records:
        g, w = got_records[idx], want_records[idx]
        assert set(g) == set(w), (idx, g, w)
        for col in w:
            gv, wv = g[col], w[col]
            if col == "match_score" and wv:
                gs = [float(s) for s in gv.split(", ")] if gv else []
                ws = [float(s) for s in wv.split(", ")]
                assert gs == pytest.approx(ws, abs=1e-6), (idx, col)
            else:
                assert gv == wv, (idx, col, gv, wv)
    if check_summary:
        assert dict(got_summary) == dict(want_summary)


def both(reference, x, y, setup, check_summary=True, **kw):
    want = run_reference(reference, x, y, setup)
    got = run_engine(x, y, setup, **kw)
    if want is None:
        assert got is None
        return None, None
    assert_parity(got, want, check_summary=check_summary)
    return got, want


# ---------------------------------------------------------------------------


def test_exact_basic_matched_unmatched(reference):
    x = {
        0: {"fn": "alice", "ln": "smith"},
        1: {"fn": "bob", "ln": "jones"},
        2: {"fn": "zed", "ln": "nobody"},
    }
    y = {
        10: {"fn": "alice", "ln": "smith", "yid": "A"},
        11: {"fn": "bob", "ln": "jones", "yid": "B"},
    }

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_get["yid"] = "gotten"

    got, _ = both(reference, x, y, setup)
    recs, _ = got
    assert recs[0]["match_status"] == "MATCHED"
    assert recs[0]["gotten"] == "A"
    assert recs[0]["row(s)_matched"] == "10"
    assert recs[2]["match_status"] == "UNMATCHED"
    assert recs[2]["gotten"] is None


def test_ambiguous_tie(reference):
    x = {0: {"fn": "alice"}}
    y = {10: {"fn": "alice"}, 11: {"fn": "alice"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"

    got, _ = both(reference, x, y, setup)
    assert got[0][0]["match_status"] == "AMBIGUOUS"
    assert got[0][0]["row(s)_matched"] == "10, 11"


def test_duplicate_tie_poisoning(reference):
    # two x-rows tie at max for the same y → both DUPLICATE, copied values kept
    x = {0: {"fn": "alice", "ln": "a"}, 1: {"fn": "alice", "ln": "b"}}
    y = {10: {"fn": "alice", "yid": "Y0"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_get["yid"] = "gotten"

    got, _ = both(reference, x, y, setup)
    recs, summary = got
    assert recs[0]["match_status"] == "DUPLICATE"
    assert recs[1]["match_status"] == "DUPLICATE"
    assert recs[0]["gotten"] == "Y0"  # kept (quirk §2.5.1)
    # summary over-count (quirk §2.5.3): statuses not decremented
    assert summary["duplicate"] == 2 and sum(summary.values()) > 2


def test_loser_nulling_quirk_strict(reference):
    # one y wins two x's at different scores → loser demoted to UNMATCHED
    # with the y-column-key nulling bug reproduced
    x = {0: {"fn": "alice", "ln": "smith"}, 1: {"fn": "alice", "ln": "smithy"}}
    y = {10: {"fn": "alice", "ln": "smith", "yid": "Y0"}}

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_get["yid"] = "gotten"

    got, _ = both(reference, x, y, setup)
    recs, _ = got
    assert recs[0]["match_status"] == "MATCHED"
    loser = recs[1]
    assert loser["match_status"] == "UNMATCHED"
    assert loser["gotten"] == "Y0"  # copied value SURVIVES (bug parity)
    assert loser["yid"] is None  # spurious y-column key added
    assert loser["match_score"] == "" and loser["row(s)_matched"] == ""


def test_loser_nulling_fixed_mode():
    # strict_semantics=False nulls the copied x-column instead
    x = {0: {"fn": "alice", "ln": "smith"}, 1: {"fn": "alice", "ln": "smithy"}}
    y = {10: {"fn": "alice", "ln": "smith", "yid": "Y0"}}

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_get["yid"] = "gotten"

    recs, _ = run_engine(x, y, setup, strict=False)
    assert recs[1]["match_status"] == "UNMATCHED"
    assert recs[1]["gotten"] is None
    assert "yid" not in recs[1]


def test_review_at_equality(reference):
    # engineered so winning score == optimal threshold → REVIEW (inclusive)
    x = {0: {"fn": "alice"}}
    y = {10: {"fn": "alice"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.thresholds_by_column["fn"] = 100.0  # optimal = 100*1.0 == score

    got, _ = both(reference, x, y, setup)
    assert got[0][0]["match_status"] == "REVIEW"


# Reference-free pins of the §2.5 quirks: the literal rows and summaries
# the oracle tests above agree on, so the quirks stay pinned when the
# reference is not importable.


def test_duplicate_tie_poisoning_pinned():
    x = {0: {"fn": "alice", "ln": "a"}, 1: {"fn": "alice", "ln": "b"}}
    y = {10: {"fn": "alice", "yid": "Y0"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_get["yid"] = "gotten"

    recs, summary = run_engine(x, y, setup)
    for i, ln in ((0, "a"), (1, "b")):
        assert recs[i] == {
            "fn": "alice", "ln": ln, "gotten": "Y0",
            "match_status": "DUPLICATE", "row(s)_matched": "10",
            "match_score": "100.0",
        }
    # summary over-count: the first pass's MATCHED is never decremented
    assert dict(summary) == {"matched": 2, "duplicate": 2}


def test_loser_nulling_quirk_pinned():
    x = {0: {"fn": "alice", "ln": "smith"}, 1: {"fn": "alice", "ln": "smithy"}}
    y = {10: {"fn": "alice", "ln": "smith", "yid": "Y0"}}

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_get["yid"] = "gotten"

    recs, summary = run_engine(x, y, setup)
    winner = dict(recs[0])
    assert float(winner.pop("match_score")) == pytest.approx(100.0, abs=1e-6)
    assert winner == {"fn": "alice", "ln": "smith", "gotten": "Y0",
                      "match_status": "MATCHED", "row(s)_matched": "10"}
    # the loser keeps the copied value and gains a spurious y-column key
    assert recs[1] == {"fn": "alice", "ln": "smithy", "gotten": "Y0",
                       "match_status": "UNMATCHED", "row(s)_matched": "",
                       "match_score": "", "yid": None}
    assert dict(summary) == {"matched": 2, "unmatched": 1}


def test_review_at_equality_pinned():
    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.thresholds_by_column["fn"] = 100.0

    recs, summary = run_engine({0: {"fn": "alice"}}, {10: {"fn": "alice"}},
                               setup)
    assert recs[0] == {"fn": "alice", "match_status": "REVIEW",
                       "row(s)_matched": "10", "match_score": "100.0"}
    assert dict(summary) == {"review": 1}


def test_grouping_blocks_candidates(reference):
    x = {
        0: {"fn": "alice", "city": "nyc"},
        1: {"fn": "alice", "city": "sf"},
    }
    y = {
        10: {"fn": "alice", "town": "nyc", "yid": "NY"},
        11: {"fn": "alice", "town": "sf", "yid": "SF"},
    }

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_group["town"] = "city"
        c.columns_to_get["yid"] = "gotten"

    got, _ = both(reference, x, y, setup)
    recs, _ = got
    assert recs[0]["gotten"] == "NY"
    assert recs[1]["gotten"] == "SF"
    assert recs[0]["match_status"] == "MATCHED"


def test_cutoff_semantics(reference):
    # cutoff=True drops sub-threshold column scores entirely
    x = {0: {"fn": "alicx", "ln": "smith"}}
    y = {10: {"fn": "alice", "ln": "smith"}}

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.cutoffs_by_column["fn"] = True
        c.thresholds_by_column["fn"] = 90.0

    both(reference, x, y, setup)


def test_multi_y_column_max(reference):
    # x column compared against several y columns → per-pair max
    x = {0: {"name": "alice"}}
    y = {10: {"first": "bob", "alias": "alice"}, 11: {"first": "alice", "alias": "zz"}}

    def setup(c):
        c.columns_to_match["name"] = "first", "alias"

    got, _ = both(reference, x, y, setup)
    assert got[0][0]["match_status"] == "AMBIGUOUS"  # both score 100 via max


def test_blank_rows_parity(reference):
    x = {
        0: {"fn": "alice", "ln": ""},
        1: {"fn": "bob", "ln": "jones"},
        2: {"fn": "", "ln": ""},
    }
    y = {10: {"fn": "alice", "ln": "smith"}, 11: {"fn": "bob", "ln": "jones"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"

    both(reference, x, y, setup)


def test_ragged_rows_engine_only():
    # reference KeyErrors on ragged x (records.py:66 unguarded r[column],
    # SURVEY.md §1.3); engine treats missing as blank
    x = {
        0: {"fn": "alice", "ln": "smith"},
        1: {"fn": "bob", "ln": "jones", "extra": "zz"},
        2: {"fn": "bob"},
    }
    y = {10: {"fn": "alice", "ln": "smith"}, 11: {"fn": "bob", "ln": "jones"}}

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"

    recs, _ = run_engine(x, y, setup)
    assert recs[0]["match_status"] == "MATCHED"
    # row 2 (fn only, weights renormalize to fn alone → 100) ties row 1 on
    # y11 → duplicate-tie poisoning flips both to DUPLICATE
    assert recs[1]["match_status"] == "DUPLICATE"
    assert recs[2]["match_status"] == "DUPLICATE"


def test_empty_both_returns_none(reference):
    def setup(c):
        pass

    assert run_engine({}, {}, setup) is None


def test_empty_y_all_unmatched(reference):
    x = {0: {"fn": "alice"}}
    y = {}

    def setup(c):
        c.columns_to_match["fn"] = "fn"

    # reference crashes on columns_to_match for empty-y config (no y cols),
    # so only check engine behavior: everything unmatched
    recs, summary = run_engine(x, y, setup)
    assert recs[0]["match_status"] == "UNMATCHED"
    assert summary == {"unmatched": 1}


def test_duplicate_threshold_spread(reference):
    # duplicate_threshold > spread → all DUPLICATE even without exact tie
    x = {0: {"fn": "alice", "ln": "smith"}, 1: {"fn": "alice", "ln": "smitx"}}
    y = {10: {"fn": "alice", "ln": "smith"}}

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"

    # reference hardcodes duplicate_threshold=0.0 (matcher.py:283-285 ignores
    # its params) so parity run uses default; engine-only run exercises >0
    both(reference, x, y, setup)
    recs, _ = run_engine(x, y, setup, duplicate_threshold=100.0)
    assert recs[0]["match_status"] == "DUPLICATE"
    assert recs[1]["match_status"] == "DUPLICATE"


def _random_tables(seed, nx=60, ny=50, dup_frac=0.2, noise=0.3):
    rng = random.Random(seed)
    first = ["alice", "bob", "carol", "dan", "erin", "frank", "gina", "hank"]
    last = ["smith", "jones", "lee", "patel", "garcia", "chen", "kim", "brown"]
    cities = ["nyc", "sf", "la"]

    def corrupt(s):
        if not s or rng.random() > noise:
            return s
        i = rng.randrange(len(s))
        return s[:i] + rng.choice("abcdefghijklmnopqrstuvwxyz") + s[i + 1 :]

    y = {
        j + 100: {
            "fn": rng.choice(first),
            "ln": rng.choice(last),
            "town": rng.choice(cities),
            "yid": f"Y{j}",
        }
        for j in range(ny)
    }
    x = {}
    for i in range(nx):
        if rng.random() < 0.8:
            src = y[rng.randrange(ny) + 100]
            row = {
                "fn": corrupt(src["fn"]),
                "ln": corrupt(src["ln"]),
                "city": src["town"],
            }
        else:
            row = {
                "fn": rng.choice(first) + "zz",
                "ln": rng.choice(last) + "qq",
                "city": rng.choice(cities),
            }
        if rng.random() < 0.1:
            row["ln"] = ""
        x[i] = row
    return x, y


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 42])
def test_randomized_parity_grouped_fuzzy(reference, seed):
    x, y = _random_tables(seed)

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_group["town"] = "city"
        c.columns_to_get["yid"] = "gotten"

    both(reference, x, y, setup)


def test_copy_over_overwrites_existing_x_column(reference):
    """allow_overwrite copy-over into an EXISTING x column: matched rows get
    the y value, non-matched rows get None (original x value destroyed —
    probe-verified reference behavior)."""
    x = {0: {"name": "alice", "city": "nyc"}, 1: {"name": "bob", "city": "nyc"}}
    y = {7: {"name": "alice", "city": "nyc"}, 8: {"name": "zed", "city": "nyc"}}

    def setup(c):
        c.columns_to_match["name"] = "name"
        c.columns_to_get.allow_overwrite = True
        c.columns_to_get["name"] = "name"

    got, _ = both(reference, x, y, setup)
    recs, _ = got
    assert recs[0]["name"] == "alice" and recs[0]["match_status"] == "MATCHED"
    assert recs[1]["name"] is None and recs[1]["match_status"] == "UNMATCHED"


def test_reference_readme_tables(reference):
    """The reference README's own example tables (README.md:28-45):
    nickname-aware multi-y-column matching with typed values."""
    x = {
        0: {"id": 10244, "firstname": "Rube", "lastname": "Miller",
            "country": "USA", "sex": "M"},
        1: {"id": 23012, "firstname": "Kim", "lastname": "Thornton",
            "country": "UK", "sex": "F"},
        2: {"id": 46882, "firstname": "Jane", "lastname": "van Doe",
            "country": "NL", "sex": "F"},
        3: {"id": 51459, "firstname": "Luca", "lastname": "Schmidt",
            "country": "Germany", "sex": "F"},
    }
    y = {
        0: {"id": "A1X012", "firstname": "Reuben", "nickname": "Rube",
            "lastname": "Miller", "country": "USA", "sex": "Male"},
        1: {"id": "B0C105", "firstname": "Kimberly", "nickname": "Kim",
            "lastname": "Thornton", "country": "UK", "sex": "Female"},
        2: {"id": "C4L092", "firstname": "Jane", "nickname": "Jane",
            "lastname": "van Doe", "country": "NL", "sex": "Female"},
        3: {"id": "D2P451", "firstname": "Jonathan", "nickname": "Jon",
            "lastname": "Schmidt", "country": "Germany", "sex": "Male"},
    }

    def setup(c):
        c.scorers_by_column.default = "difflib_ratio"
        c.columns_to_match["firstname"] = "firstname", "nickname"
        c.columns_to_match["lastname"] = "lastname"
        c.columns_to_group["country"] = "country"
        c.columns_to_get["id"] = "matched_id"

    got, _ = both(reference, x, y, setup, check_summary=True)
    recs, _ = got
    assert recs[0]["matched_id"] == "A1X012"  # Rube ↔ nickname
    assert recs[1]["matched_id"] == "B0C105"  # Kim ↔ nickname
    assert recs[2]["matched_id"] == "C4L092"
    # Luca vs Jonathan/Jon in Germany: similarity below 75 → unmatched
    assert recs[3]["match_status"] == "UNMATCHED"


@pytest.mark.parametrize("seed", [5, 11])
def test_randomized_parity_ungrouped_exact(reference, seed):
    x, y = _random_tables(seed, nx=40, ny=30, noise=0.0)

    def setup(c):
        c.columns_to_match["fn"] = "fn"
        c.columns_to_match["ln"] = "ln"
        c.columns_to_get["yid"] = "gotten"

    both(reference, x, y, setup)


def test_falsy_values_blank_parity(reference):
    """Raw falsy non-string values (0, False, 0.0) are BLANK in the
    reference's truthiness test (matcher.py:173-175, records.py:66) —
    they carry no uniqueness weight, match nothing, and group as blank
    (round-1 advice item)."""
    x = {
        0: {"a": 0, "b": "alpha", "g": 0},
        1: {"a": False, "b": "beta", "g": 0},
        2: {"a": "0", "b": "gamma", "g": 0},
        3: {"a": 7, "b": "delta", "g": 0},
    }
    y = {
        10: {"a": "0", "b": "alpha", "g": 0, "yid": "Y0"},
        11: {"a": 7, "b": "delta", "g": 0, "yid": "Y1"},
        12: {"a": "", "b": "beta", "g": 0, "yid": "Y2"},
    }

    def setup(c):
        c.columns_to_match["a"] = "a"
        c.columns_to_match["b"] = "b"
        c.columns_to_group["g"] = "g"
        c.columns_to_get["yid"] = "got"

    both(reference, x, y, setup)
