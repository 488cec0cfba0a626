"""Seeded input generators for the benchmark workloads.

``person_tables`` plants a known truth: every y (registry) row is a clean
person record; most of them get one corrupted x (query) mention in the
same blocking group, and a share of x rows are distractors with no true
match. The document workloads use the library's own seeded corpus
generator (``sources.corpus.generate_corpus``), which writes its truth
table next to the corpus.

Only numpy and the standard library are used here, so the same seed gives
byte-identical inputs on every host.
"""

from __future__ import annotations

import numpy as np

_CONS = list("bcdfghjklmnprstvwz")
_VOWS = list("aeiou")


def _names(rng: np.random.Generator, n: int, syllables: tuple[int, int]) -> np.ndarray:
    """``n`` distinct pronounceable names of 2-4 consonant-vowel syllables."""
    out: set[str] = set()
    while len(out) < n:
        k = int(rng.integers(syllables[0], syllables[1] + 1))
        c = rng.choice(_CONS, k)
        v = rng.choice(_VOWS, k)
        out.add("".join(a + b for a, b in zip(c, v)))
    return np.array(sorted(out), dtype=object)


def _typo(rng: np.random.Generator, s: str) -> str:
    """One substitution, deletion or transposition at a random position."""
    if len(s) < 3:
        return s
    i = int(rng.integers(1, len(s) - 1))
    op = int(rng.integers(0, 3))
    if op == 0:
        return s[:i] + str(rng.choice(_VOWS + _CONS)) + s[i + 1:]
    if op == 1:
        return s[:i] + s[i + 1:]
    return s[:i - 1] + s[i] + s[i - 1] + s[i + 1:]


def person_tables(seed: int, n_y: int, n_groups: int,
                  match_frac: float = 0.9, distractor_frac: float = 0.1) -> dict:
    """→ ``{"x": {col: array}, "y": {col: array}, "truth": int64 array}``.

    Columns: ``first``, ``last``, ``digits`` (9-digit string), ``grp``
    (blocking key) on both sides; ``yid`` on y; ``rid`` (int64 row id) on
    both. ``truth[i]`` is the y ``rid`` of x row ``i``, or -1 for a
    distractor. x rows are shuffled so blocks arrive interleaved."""
    rng = np.random.default_rng(seed)
    firsts = _names(rng, 300, (2, 3))
    lasts = _names(rng, 2000, (2, 4))
    y = {
        "rid": np.arange(n_y, dtype=np.int64),
        "first": rng.choice(firsts, n_y),
        "last": rng.choice(lasts, n_y),
        "digits": np.array([f"{d:09d}" for d in rng.integers(0, 10**9, n_y)],
                           dtype=object),
        "grp": np.array([f"g{g:04d}" for g in rng.integers(0, n_groups, n_y)],
                        dtype=object),
    }
    y["yid"] = np.array([f"Y{r:07d}" for r in y["rid"]], dtype=object)

    src = np.nonzero(rng.random(n_y) < match_frac)[0]
    n_dis = int(len(src) * distractor_frac)
    first, last, digits, grp, truth = [], [], [], [], []
    for r in src:
        f, l, d = y["first"][r], y["last"][r], y["digits"][r]
        roll = rng.random(4)
        if roll[3] < 0.3:  # a second typo in the names
            f, l = _typo(rng, f), _typo(rng, l)
        first.append(_typo(rng, f) if roll[0] < 0.6 else f)
        last.append(_typo(rng, l) if roll[1] < 0.6 else l)
        digits.append(_typo(rng, d) if roll[2] < 0.5 else d)
        grp.append(y["grp"][r])
        truth.append(int(r))
    for _ in range(n_dis):
        first.append(str(rng.choice(firsts)))
        last.append(str(rng.choice(lasts)))
        digits.append(f"{int(rng.integers(0, 10**9)):09d}")
        grp.append(f"g{int(rng.integers(0, n_groups)):04d}")
        truth.append(-1)
    order = rng.permutation(len(first))
    x = {
        "first": np.array(first, dtype=object)[order],
        "last": np.array(last, dtype=object)[order],
        "digits": np.array(digits, dtype=object)[order],
        "grp": np.array(grp, dtype=object)[order],
    }
    x["rid"] = np.arange(len(order), dtype=np.int64)
    return {"x": x, "y": y, "truth": np.asarray(truth, np.int64)[order]}
