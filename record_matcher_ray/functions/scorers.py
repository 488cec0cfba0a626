"""Scorer registry + vectorized string-similarity kernels.

Reproduces the reference's scorer contract (``matcher.py:48-52``,
``config.py:311-317`` in /root/reference): a scorer maps two strings to a
non-negative float on a 0-100 scale; ``exact_match`` (the only reference
built-in, ``config.py:349``) returns 100.0 on equality else 0.0. Users
extend the registry via :func:`register_scorer` (the reference's pattern of
mutating ``ScorersByColumn.SCORERS`` — ``tests/test_config.py:194-200``).

Beyond the reference we add the scorers the north star requires
(jaro_winkler, levenshtein) plus token / n-gram variants — all pure
numpy/Python (no rapidfuzz/jellyfish in this environment).

Each scorer carries an optional **matrix kernel**: score an (nx, ny) block
of candidate pairs vectorized, which is what the Ray ``map_batches`` /
``map_groups`` scoring stages call in the hot path. Scorers registered with
only a scalar function are lifted automatically (memoized over unique value
pairs, so repeated values in a block are scored once).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from difflib import SequenceMatcher

import numpy as np

# ---------------------------------------------------------------------------
# scalar kernels
# ---------------------------------------------------------------------------


def exact_match(x: str, y: str) -> float:
    """100.0 iff the two strings are equal (reference ``config.py:349``)."""
    return 100.0 if x == y else 0.0


def levenshtein(x: str, y: str) -> float:
    """Normalized Levenshtein similarity on 0-100.

    ``100 * (1 - dist / max(len(x), len(y)))``; two empty strings score 100
    (consistent with ``exact_match("", "") == 100`` — blanks match blanks,
    mirroring the reference's ``""`` coercion at ``matcher.py:79-81``).
    """
    if x == y:
        return 100.0
    lx, ly = len(x), len(y)
    if lx == 0 or ly == 0:
        return 0.0
    if lx > ly:
        x, y, lx, ly = y, x, ly, lx
    prev = list(range(lx + 1))
    for j, cy in enumerate(y, start=1):
        cur = [j] + [0] * lx
        for i, cx in enumerate(x, start=1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (cx != cy))
        prev = cur
    return 100.0 * (1.0 - prev[lx] / ly)


def _jaro(s1: str, s2: str) -> float:
    if s1 == s2:
        return 1.0
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    match_dist = max(l1, l2) // 2 - 1
    f1 = [False] * l1
    f2 = [False] * l2
    matches = 0
    for i, c in enumerate(s1):
        lo = max(0, i - match_dist)
        hi = min(l2, i + match_dist + 1)
        for j in range(lo, hi):
            if not f2[j] and s2[j] == c:
                f1[i] = True
                f2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(l1):
        if f1[i]:
            while not f2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / l1 + matches / l2 + (matches - t) / matches) / 3.0


def jaro_winkler(x: str, y: str) -> float:
    """Jaro-Winkler similarity on 0-100 (prefix scale 0.1, max prefix 4,
    boost threshold 0.7 — the standard definition, matching DuckDB's
    ``jaro_winkler_similarity`` so oracle SQL can mirror it)."""
    j = _jaro(x, y)
    if j > 0.7:
        prefix = 0
        for a, b in zip(x[:4], y[:4]):
            if a != b:
                break
            prefix += 1
        j += prefix * 0.1 * (1.0 - j)
    return j * 100.0


def difflib_ratio(x: str, y: str) -> float:
    """``difflib.SequenceMatcher.ratio() * 100`` — the scorer used by the
    in-sandbox reference baseline measurements (BASELINE.md)."""
    return SequenceMatcher(None, x, y).ratio() * 100.0


def token_sort_ratio(x: str, y: str) -> float:
    """Levenshtein similarity after whitespace-tokenizing + sorting tokens."""
    xs = " ".join(sorted(x.split()))
    ys = " ".join(sorted(y.split()))
    return levenshtein(xs, ys)


def token_set_ratio(x: str, y: str) -> float:
    """Order-insensitive token-set similarity: levenshtein over the sorted
    unique-token joins (fuzzywuzzy-family shape, pure stdlib)."""
    xs = " ".join(sorted(set(x.split())))
    ys = " ".join(sorted(set(y.split())))
    return levenshtein(xs, ys)


def _ngrams(s: str, n: int) -> set[str]:
    if len(s) < n:
        return {s} if s else set()
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def ngram_jaccard(x: str, y: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets, on 0-100."""
    if x == y:
        return 100.0
    gx, gy = _ngrams(x, n), _ngrams(y, n)
    if not gx or not gy:
        return 0.0
    inter = len(gx & gy)
    return 100.0 * inter / (len(gx) + len(gy) - inter)


# ---------------------------------------------------------------------------
# vectorized matrix kernels
# ---------------------------------------------------------------------------


def _codes(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize both string arrays into one shared integer code space."""
    both = np.concatenate([xs, ys])
    _, inv = np.unique(both, return_inverse=True)
    return inv[: len(xs)], inv[len(xs) :]


def exact_match_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    cx, cy = _codes(xs, ys)
    return np.where(cx[:, None] == cy[None, :], 100.0, 0.0)


def _encode_padded(
    strs: list[str], pad: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Encode a list of strings into a ``pad``-padded uint32 codepoint
    matrix. Pass a pad beyond the Unicode range (see ``_PAD_X``/``_PAD_Y``)
    to make padding cells unmatchable — kernels can then drop their
    validity masks entirely."""
    lens = np.fromiter((len(s) for s in strs), dtype=np.int64, count=len(strs))
    lmax = int(lens.max()) if len(lens) else 0
    mat = np.full((len(strs), lmax), pad, dtype=np.uint32)
    for i, s in enumerate(strs):
        if s:
            mat[i, : len(s)] = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
    return mat, lens


# padding code points outside the Unicode range (max 0x10FFFF): an x pad
# never equals any y char, a y pad never equals any x char, and the two
# pads never equal each other — (ymat == xc) is False on every padding
# cell with NO mask. uint8 twins for the ASCII fast path (requires
# real chars < 254).
_PAD_X, _PAD_Y = 0x110000, 0x110001
_PAD_X8, _PAD_Y8 = 254, 255


def _lev_one_vs_many(x: str, ymat: np.ndarray, ylens: np.ndarray) -> np.ndarray:
    """Edit distance of one probe string against many encoded strings at once.

    Classic DP vectorized across the "many" axis: each inner step updates a
    length-n numpy vector, so Python-loop count is len(x)*Lmax but every op
    covers all candidates.
    """
    n, lmax = ymat.shape
    prev = np.tile(np.arange(lmax + 1, dtype=np.int32), (n, 1))
    if x:
        xa = np.frombuffer(x.encode("utf-32-le"), dtype=np.uint32)
        cur = np.empty_like(prev)
        for i, xc in enumerate(xa, start=1):
            cur[:, 0] = i
            sub = (ymat != xc).astype(np.int32)
            for j in range(1, lmax + 1):
                np.minimum(prev[:, j] + 1, prev[:, j - 1] + sub[:, j - 1], out=cur[:, j])
                np.minimum(cur[:, j], cur[:, j - 1] + 1, out=cur[:, j])
            prev, cur = cur, prev
    return prev[np.arange(n), ylens]


def levenshtein_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(nx, ny) normalized Levenshtein similarity, deduped over unique values."""
    ux, xinv = np.unique(xs, return_inverse=True)
    uy, yinv = np.unique(ys, return_inverse=True)
    ymat, ylens = _encode_padded(list(uy))
    out = np.zeros((len(ux), len(uy)), dtype=np.float64)
    xlens = np.fromiter((len(s) for s in ux), dtype=np.int64, count=len(ux))
    denom = np.maximum(ylens[None, :], xlens[:, None]).astype(np.float64)
    np.maximum(denom, 1.0, out=denom)
    for i, x in enumerate(ux):
        d = _lev_one_vs_many(x, ymat, ylens)
        out[i] = 100.0 * (1.0 - d / denom[i])
    # both-empty pairs: dist 0 / denom clamp would give 100 already via d=0
    return out[xinv][:, yinv]


def _jaro_one_vs_many(x: str, ymat: np.ndarray, ylens: np.ndarray) -> np.ndarray:
    """Jaro similarity of one probe string against many encoded strings,
    vectorized across the many axis (same shape of trick as the Levenshtein
    DP: O(len(x)) Python iterations of (n, L) numpy ops).

    Greedy window matching: for each x position, claim the first unclaimed
    in-window equal character per y row; transpositions from the aligned
    matched sequences."""
    n, lmax = ymat.shape
    m = len(x)
    if m == 0:
        return np.where(ylens == 0, 1.0, 0.0)
    if lmax == 0:  # every y is empty (and x is not)
        return np.zeros(n, dtype=np.float64)
    xa = np.frombuffer(x.encode("utf-32-le"), dtype=np.uint32)
    match_dist = np.maximum(np.maximum(ylens, m) // 2 - 1, 0)
    valid = np.arange(lmax)[None, :] < ylens[:, None]
    yflag = np.zeros((n, lmax), dtype=bool)
    xflag = np.zeros((n, m), dtype=bool)
    ymatch_of_x = np.full((n, m), -1, dtype=np.int64)
    pos = np.arange(lmax)[None, :]
    for i, xc in enumerate(xa):
        lo = np.maximum(0, i - match_dist)[:, None]
        hi = np.minimum(ylens, i + match_dist + 1)[:, None]
        cand = (ymat == xc) & ~yflag & (pos >= lo) & (pos < hi) & valid
        has = cand.any(axis=1)
        first = cand.argmax(axis=1)
        rows = np.nonzero(has)[0]
        yflag[rows, first[rows]] = True
        xflag[rows, i] = True
        ymatch_of_x[rows, i] = first[rows]
    matches = xflag.sum(axis=1)
    out = np.zeros(n, dtype=np.float64)
    any_m = matches > 0
    if any_m.any():
        # transpositions by direct row-major alignment: the k-th matched x
        # char of a row pairs with its k-th matched y char (equal counts,
        # nonzero() is row-major) — no rank/scatter matrices needed
        rows, cols = np.nonzero(xflag)
        yrows, ycols = np.nonzero(yflag)
        diff = xa[cols] != ymat[yrows, ycols]
        t = np.bincount(rows[diff], minlength=n) // 2
        mm = matches[any_m].astype(np.float64)
        ylen_f = np.maximum(ylens[any_m], 1).astype(np.float64)
        out[any_m] = (
            mm / m + mm / ylen_f + (mm - t[any_m]) / mm
        ) / 3.0
    # exact-equality fast path (jaro defines equal strings as 1.0)
    return out


def _jw_one_vs_many(x: str, ymat: np.ndarray, ylens: np.ndarray) -> np.ndarray:
    """Jaro-Winkler (0-100) of one probe vs many encoded strings."""
    j = _jaro_one_vs_many(x, ymat, ylens)
    if x == "":
        j = np.where(ylens == 0, 1.0, j)
    boost = j > 0.7
    if boost.any() and x:
        px = np.frombuffer(x[:4].encode("utf-32-le"), dtype=np.uint32)
        plen = np.zeros(len(ylens), dtype=np.int64)
        live = np.ones(len(ylens), dtype=bool)
        for k, xc in enumerate(px):
            if k >= ymat.shape[1]:
                break
            live = live & (ylens > k) & (ymat[:, k] == xc)
            plen += live
        j = np.where(boost, j + plen * 0.1 * (1.0 - j), j)
    return j * 100.0


def jaro_winkler_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(nx, ny) Jaro-Winkler on 0-100, vectorized one-vs-many per unique x."""
    ux, xinv = np.unique(xs, return_inverse=True)
    uy, yinv = np.unique(ys, return_inverse=True)
    ymat, ylens = _encode_padded(list(uy))
    out = np.empty((len(ux), len(uy)), dtype=np.float64)
    for i, x in enumerate(ux):
        out[i] = _jw_one_vs_many(x, ymat, ylens)
    return out[xinv][:, yinv]


def jaro_winkler_elementwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Aligned-pair Jaro-Winkler: dense unique-matrix path when the unique
    cross is small, else the pair-axis-vectorized kernel over unique pairs
    (robust to the all-unique-pairs case where per-x grouping degenerates
    to one call per pair). Dedup/encode via :func:`_elementwise_dedup`
    (hash factorize + encode-unique-then-gather)."""
    return _elementwise_dedup(xs, ys, _jw_pairs_mat, jaro_winkler_matrix)


def _factorize(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash-based (uniques, codes) for an object string array — pandas
    factorize is O(n) on Python strings where np.unique pays an O(n log n)
    string-comparison sort (measured ~10× slower on 400k gathered pair
    values in the docmatch hot path)."""
    import pandas as pd

    codes, uniques = pd.factorize(arr, sort=False)
    return np.asarray(uniques, dtype=object), codes.astype(np.int64)


def _elementwise_dedup(
    xs: np.ndarray,
    ys: np.ndarray,
    pairs_mat_kernel,
    matrix_kernel,
) -> np.ndarray:
    """Shared aligned-pair dedup driver: factorize both sides, dedupe int
    pair keys, ENCODE ONLY UNIQUE VALUES and gather encoded rows per unique
    pair (never re-encoding per pair), then run the pair-axis kernel once.
    Falls back to the dense unique-cross matrix when that is smaller."""
    ux, xc = _factorize(xs)
    uy, yc = _factorize(ys)
    if len(ux) == 0 or len(uy) == 0:
        return np.zeros(len(xs), dtype=np.float64)
    pairkey = xc * len(uy) + yc
    upk, pinv = np.unique(pairkey, return_inverse=True)
    if len(ux) * len(uy) <= 4 * len(upk):
        return matrix_kernel(ux, uy)[xc, yc]
    xmat_u, xlens_u = _encode_padded(list(ux), pad=_PAD_X)
    ymat_u, ylens_u = _encode_padded(list(uy), pad=_PAD_Y)
    # ASCII-range corpora fit uint8 — 4× less memory traffic through every
    # kernel temporary (32 parallel scoring tasks are DRAM-bandwidth
    # bound, not FLOP bound). Real chars must stay below the uint8 pads.
    real_x = xmat_u[xmat_u != _PAD_X]
    real_y = ymat_u[ymat_u != _PAD_Y]
    if (
        (real_x.size == 0 or real_x.max() < _PAD_X8)
        and (real_y.size == 0 or real_y.max() < _PAD_X8)
    ):
        xmat_u = np.where(xmat_u == _PAD_X, _PAD_X8, xmat_u).astype(np.uint8)
        ymat_u = np.where(ymat_u == _PAD_Y, _PAD_Y8, ymat_u).astype(np.uint8)
    xi = upk // len(uy)
    yi = upk % len(uy)
    # chunk the pair axis so each kernel invocation's temporaries stay
    # cache-sized instead of streaming hundreds of MB through DRAM, and
    # process pairs in max-length order so a chunk of short strings runs
    # a NARROW matrix (padding every pair to the global max made 10-char
    # titles pay one 60-char outlier's loop trips and traffic)
    out = np.empty(len(upk), dtype=np.float64)
    pairmax = np.maximum(xlens_u[xi], ylens_u[yi])
    ordp = np.argsort(pairmax, kind="stable")
    step = 1 << 16
    for s in range(0, len(upk), step):
        sel = ordp[s:s + step]
        xs_i, ys_i = xi[sel], yi[sel]
        w = max(int(pairmax[sel[-1]]), 1)
        out[sel] = pairs_mat_kernel(
            xmat_u[xs_i, :w], xlens_u[xs_i],
            ymat_u[ys_i, :w], ylens_u[ys_i],
        )
    return out[pinv]


def _lev_dist_pairs(
    xmat: np.ndarray, xlens: np.ndarray, ymat: np.ndarray, ylens: np.ndarray
) -> np.ndarray:
    """Edit distance of ALIGNED pairs (xmat[i] vs ymat[i]) vectorized
    across the pair axis — the right shape when unique pairs don't share x
    values (per-x one-vs-many collapses to one call per pair there)."""
    n, lx = xmat.shape
    ly = ymat.shape[1]
    prev = np.tile(np.arange(ly + 1, dtype=np.int32), (n, 1))
    cur = np.empty_like(prev)
    for i in range(1, lx + 1):
        active = xlens >= i
        if not active.any():
            break
        xc = xmat[:, i - 1]
        cur[:, 0] = i
        sub = (ymat != xc[:, None]).astype(np.int32)
        for j in range(1, ly + 1):
            np.minimum(prev[:, j] + 1, prev[:, j - 1] + sub[:, j - 1], out=cur[:, j])
            np.minimum(cur[:, j], cur[:, j - 1] + 1, out=cur[:, j])
        prev = np.where(active[:, None], cur, prev)
    return prev[np.arange(n), ylens]


def _lev_dist_pairs_myers(
    xmat: np.ndarray, xlens: np.ndarray, ymat: np.ndarray, ylens: np.ndarray
) -> np.ndarray:
    """Myers/Hyyrö bit-parallel edit distance of aligned pairs, vectorized
    across the pair axis (Myers, "A fast bit-vector algorithm for
    approximate string matching based on dynamic programming", JACM 1999;
    Hyyrö's distance formulation). One uint64 bit-vector per pair encodes a
    whole DP column, so the Python loop is O(ly) single-word vector steps
    instead of the O(lx*ly) classic DP — patterns are capped at 64 chars
    (callers fall back to :func:`_lev_dist_pairs` above that)."""
    n, lx = xmat.shape
    ly = ymat.shape[1]
    # word width sized to the pattern length — the whole inner loop is
    # elementwise ops over n-vectors of this dtype, so uint16 instead of
    # uint64 quarters the memory traffic for short-string workloads
    if lx <= 8:
        dt = np.uint8
    elif lx <= 16:
        dt = np.uint16
    elif lx <= 32:
        dt = np.uint32
    else:
        dt = np.uint64
    one = dt(1)
    # per-pair Peq[y_char] built positionally: bit p set iff x[p] == y[j]
    peq = np.zeros((n, ly), dtype=dt)
    for p in range(lx):
        peq |= (ymat == xmat[:, p][:, None]) * dt(1 << p)
    # pad positions p >= xlens never contribute: xmat pads are 0 and real
    # chars are nonzero, but y pads are also 0 — mask y pads via `active`
    vp = np.full(n, ~dt(0), dtype=dt)
    vn = np.zeros(n, dtype=dt)
    score = xlens.astype(np.int64).copy()
    safe_shift = np.where(xlens > 0, (xlens - 1) & 63, 0).astype(dt)
    hib = np.where(xlens > 0, np.left_shift(one, safe_shift), dt(0))
    for j in range(ly):
        active = ylens > j
        if not active.any():
            break
        eq = peq[:, j]
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        delta = ((ph & hib) != 0).astype(np.int64) - ((mh & hib) != 0).astype(
            np.int64
        )
        score += np.where(active, delta, 0)
        ph = (ph << one) | one
        mh = mh << one
        nvp = mh | ~(xv | ph)
        nvn = ph & xv
        vp = np.where(active, nvp, vp)
        vn = np.where(active, nvn, vn)
    # xlens == 0: distance is ylens (score init 0 and no hib updates)
    return np.where(xlens > 0, score, ylens.astype(np.int64))


def _lev_sim_pairs_mat(
    xmat: np.ndarray, xlens: np.ndarray, ymat: np.ndarray, ylens: np.ndarray
) -> np.ndarray:
    if xmat.shape[1] <= 64:
        d = _lev_dist_pairs_myers(xmat, xlens, ymat, ylens)
    else:
        d = _lev_dist_pairs(xmat, xlens, ymat, ylens)
    denom = np.maximum(np.maximum(xlens, ylens), 1).astype(np.float64)
    sim = 100.0 * (1.0 - d / denom)
    both_empty = (xlens == 0) & (ylens == 0)
    return np.where(both_empty, 100.0, sim)


def _jaro_pairs(
    xmat: np.ndarray, xlens: np.ndarray, ymat: np.ndarray, ylens: np.ndarray
) -> np.ndarray:
    """Jaro similarity of aligned pairs, vectorized across the pair axis
    (same greedy window matching as the one-vs-many kernel).

    REQUIRES callers to encode with the unmatchable pads (_PAD_X/_PAD_Y or
    their uint8 twins): padding cells then fail the char-equality compare
    by construction, so the inner loop needs NO x-activity or y-validity
    masks — 3 (n, ly) temporaries per char step instead of 5 (the kernel
    is DRAM-bound under full parallelism; see CLAUDE.md)."""
    n, lx = xmat.shape
    ly = ymat.shape[1]
    out = np.zeros(n, dtype=np.float64)
    if n == 0:
        return out
    match_dist = np.maximum(np.maximum(xlens, ylens) // 2 - 1, 0)[:, None]
    # y cells still open for matching: starts as "any real char" and is
    # cleared in place as chars get claimed (replaces ~yflag & yvalid)
    avail = (
        np.arange(ly)[None, :] < ylens[:, None]
        if ly
        else np.zeros((n, 0), bool)
    )
    yflag = np.zeros((n, ly), dtype=bool)
    xflag = np.zeros((n, lx), dtype=bool)
    pos = np.arange(ly)[None, :]
    for i in range(lx):
        if not (xlens > i).any():
            break
        xc = xmat[:, i]
        # window |pos - i| <= match_dist replaces the two lo/hi compares;
        # pad cells can never satisfy the equality (unmatchable pads)
        cand = (ymat == xc[:, None]) & avail & (np.abs(pos - i) <= match_dist)
        has = cand.any(axis=1)
        first = cand.argmax(axis=1)
        rows = np.nonzero(has)[0]
        yflag[rows, first[rows]] = True
        avail[rows, first[rows]] = False
        xflag[rows, i] = True
    matches = xflag.sum(axis=1)
    any_m = matches > 0
    if any_m.any():
        # transpositions WITHOUT rank/scatter matrices: np.nonzero is
        # row-major, and each row has equally many matched x and y chars,
        # so the k-th matched x char already aligns with the k-th matched
        # y char of the same row — compare the two gathers elementwise
        # (the rank/seq construction was ~5× the cost of the match loop)
        rows, cols = np.nonzero(xflag)
        yrows, ycols = np.nonzero(yflag)
        diff = xmat[rows, cols] != ymat[yrows, ycols]
        t = np.bincount(rows[diff], minlength=n) // 2
        mm = matches[any_m].astype(np.float64)
        xl = np.maximum(xlens[any_m], 1).astype(np.float64)
        yl = np.maximum(ylens[any_m], 1).astype(np.float64)
        out[any_m] = (mm / xl + mm / yl + (mm - t[any_m]) / mm) / 3.0
    out = np.where((xlens == 0) & (ylens == 0), 1.0, out)
    return out


def _jw_pairs_mat(
    xmat: np.ndarray, xlens: np.ndarray, ymat: np.ndarray, ylens: np.ndarray
) -> np.ndarray:
    j = _jaro_pairs(xmat, xlens, ymat, ylens)
    boost = j > 0.7
    if boost.any():
        n = len(xlens)
        kmax = min(4, xmat.shape[1], ymat.shape[1])
        plen = np.zeros(n, dtype=np.int64)
        live = np.ones(n, dtype=bool)
        for k in range(kmax):
            live = live & (xlens > k) & (ylens > k) & (xmat[:, k] == ymat[:, k])
            plen += live
        j = np.where(boost, j + plen * 0.1 * (1.0 - j), j)
    return j * 100.0


def levenshtein_elementwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Aligned-pair normalized Levenshtein: dense unique-matrix path when
    the unique cross is small, else the pair-axis-vectorized DP over unique
    pairs. Dedup/encode via :func:`_elementwise_dedup`."""
    return _elementwise_dedup(xs, ys, _lev_sim_pairs_mat, levenshtein_matrix)


def lift_scalar_matrix(
    fn: Callable[[str, str], float], xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Lift a scalar scorer to a matrix, scoring each unique value pair once."""
    ux, xinv = np.unique(xs, return_inverse=True)
    uy, yinv = np.unique(ys, return_inverse=True)
    out = np.empty((len(ux), len(uy)), dtype=np.float64)
    for i, x in enumerate(ux):
        for j, y in enumerate(uy):
            out[i, j] = fn(x, y)
    return out[xinv][:, yinv]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def elementwise_from_scalar(
    fn: Callable[[str, str], float], xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Score aligned pairs (xs[i], ys[i]) with the scalar fn, computing each
    UNIQUE value pair only once (the hot-path lift for flat pair lists)."""
    ux, xc = np.unique(xs, return_inverse=True)
    uy, yc = np.unique(ys, return_inverse=True)
    pairkey = xc.astype(np.int64) * len(uy) + yc
    upk, pinv = np.unique(pairkey, return_inverse=True)
    vals = np.fromiter(
        (fn(ux[k // len(uy)], uy[k % len(uy)]) for k in upk),
        dtype=np.float64,
        count=len(upk),
    )
    return vals[pinv]


def exact_match_elementwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.where(xs == ys, 100.0, 0.0)


@dataclass(frozen=True)
class Scorer:
    name: str
    scalar: Callable[[str, str], float]
    matrix: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    element: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Score every (x, y) pair → float64 matrix of shape (len(xs), len(ys))."""
        xs = np.asarray(xs, dtype=object)
        ys = np.asarray(ys, dtype=object)
        if self.matrix is not None:
            return self.matrix(xs, ys)
        return lift_scalar_matrix(self.scalar, xs, ys)

    def elementwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Score ALIGNED pairs → float64 vector of len(xs) (== len(ys))."""
        xs = np.asarray(xs, dtype=object)
        ys = np.asarray(ys, dtype=object)
        if self.element is not None:
            return self.element(xs, ys)
        return elementwise_from_scalar(self.scalar, xs, ys)


DEFAULT_SCORER = "exact_match"

SCORERS: dict[str, Scorer] = {}


def register_scorer(
    name: str,
    scalar: Callable[[str, str], float],
    matrix: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    element: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Scorer:
    """Register (or replace) a scorer by name — the engine's version of the
    reference's mutable ``ScorersByColumn.SCORERS`` extension point."""
    s = Scorer(name, scalar, matrix, element)
    SCORERS[name] = s
    return s


def get_scorer(name: str) -> Scorer:
    return SCORERS[name]


register_scorer("exact_match", exact_match, exact_match_matrix, exact_match_elementwise)
register_scorer("exact", exact_match, exact_match_matrix, exact_match_elementwise)
register_scorer("levenshtein", levenshtein, levenshtein_matrix, levenshtein_elementwise)
register_scorer("jaro_winkler", jaro_winkler, jaro_winkler_matrix, jaro_winkler_elementwise)
register_scorer("difflib_ratio", difflib_ratio)
register_scorer("token_sort_ratio", token_sort_ratio)
register_scorer("token_set_ratio", token_set_ratio)
register_scorer("ngram_jaccard", ngram_jaccard)
