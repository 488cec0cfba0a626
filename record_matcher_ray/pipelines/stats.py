"""Distributed statistics via exact integer moment partials.

Simple OLS regression (and Pearson r²) as a ONE-PASS zero-shuffle
aggregate: values are quantized once to integer cents (the kmeans /
approx_quantiles fixed-point recipe), every block emits exact integer moment
sums (n, Σx, Σy, Σxy, Σx², Σy²) as decimal128 partials, the driver merges
them in arbitrary-precision Python ints, and the closed-form solution is
a handful of pinned-order IEEE-double operations — so the result is
partitioning-invariant and bit-replayable by a DuckDB oracle (HUGEINT
sums, one double conversion per term, same association order).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from record_matcher_ray.core.exchange import bucket_exchange

_CHUNK = 1024  # int64-safe partial-sum chunk (CLAUDE.md int64-safety bound)


def _exact_sum(a: np.ndarray) -> int:
    """Exact integer sum of an int64 array: int64 chunk sums (bounded by
    _CHUNK × max|value| < 2**63) merged in Python arbitrary precision."""
    tot = 0
    for i in range(0, len(a), _CHUNK):
        tot += int(a[i:i + _CHUNK].sum(dtype=np.int64))
    return tot


def _exact_sum_budget(a: np.ndarray, bound: int) -> int:
    """`_exact_sum` for elements whose magnitude may exceed the _CHUNK
    invariant: the chunk size is budgeted so chunk · bound < 2**63
    (budget the headroom, not a fixed row count — CLAUDE.md rule).
    ``bound`` must be ≥ max|element|; elements themselves must fit int64
    (caller guards)."""
    if bound <= 0:
        return _exact_sum(a)
    chunk = max(1, min(_CHUNK, (2**63 - 1) // (bound + 1)))
    tot = 0
    for i in range(0, len(a), chunk):
        tot += int(a[i:i + chunk].sum(dtype=np.int64))
    return tot


_QMAX = 30_000_000  # |cents| bound so v² ≤ 9e14 and 1024·v² < 2**63


def linear_fit(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 9,
) -> pd.DataFrame:
    """Simple OLS fit y ≈ slope·x + intercept over quantized values
    (``floor(v·scale + 0.5)`` integer units) → one row
    (n, slope, intercept, r2), slope/intercept/r2 in quantized units,
    rounded to ``ndigits``.

    Scale shape: one streaming pass; each block's partial is SIX numbers
    (decimal128 — per-block sums exceed int64 at ~10⁵ rows of cents²),
    merged by addition on the driver. No shuffle, no second pass;
    closed-form slope/intercept/r² from exact integer moments:

        num  = n·Σxy − Σx·Σy        denx = n·Σx² − (Σx)²
        deny = n·Σy² − (Σy)²        slope = num/denx
        intercept = (Σy − slope·Σx)/n    r² = num²/(denx·deny)

    (each term converted int→double once, operations in this exact
    order — the DuckDB oracle replays them bit-for-bit). Rows with null
    x or y are dropped.
    """

    def partial(t: pa.Table) -> pa.Table:
        xv = pc.cast(t[x_col], pa.float64())
        yv = pc.cast(t[y_col], pa.float64())
        ok = pc.and_(pc.is_valid(xv), pc.is_valid(yv))
        x = np.floor(xv.filter(ok).to_numpy() * scale + 0.5).astype(np.int64)
        y = np.floor(yv.filter(ok).to_numpy() * scale + 0.5).astype(np.int64)
        if len(x) and (np.abs(x).max() > _QMAX or np.abs(y).max() > _QMAX):
            raise ValueError(
                f"linear_fit quantized values exceed |{_QMAX}|; lower "
                f"`scale` so squared terms stay inside the int64-safe "
                f"chunk bound."
            )
        vals = [len(x), _exact_sum(x), _exact_sum(y),
                _exact_sum(x * y), _exact_sum(x * x), _exact_sum(y * y)]
        return pa.table(
            {k: pa.array([v], pa.decimal128(38, 0))
             for k, v in zip(["n", "sx", "sy", "sxy", "sxx", "syy"], vals)}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n, sx, sy, sxy, sxx, syy = (
        int(sum(int(v) for v in parts[c])) for c in
        ["n", "sx", "sy", "sxy", "sxx", "syy"]
    )
    if n < 2:
        return pd.DataFrame({"n": [n], "slope": [np.nan],
                             "intercept": [np.nan], "r2": [np.nan]})
    num = n * sxy - sx * sy
    denx = n * sxx - sx * sx
    deny = n * syy - sy * sy
    if denx == 0 or deny == 0:
        return pd.DataFrame({"n": [n], "slope": [np.nan],
                             "intercept": [np.nan], "r2": [np.nan]})
    num_d, denx_d, deny_d = float(num), float(denx), float(deny)
    slope = num_d / denx_d
    intercept = (float(sy) - slope * float(sx)) / float(n)
    r2 = (num_d * num_d) / (denx_d * deny_d)
    return pd.DataFrame(
        {"n": [n], "slope": [round(slope, ndigits)],
         "intercept": [round(intercept, ndigits)],
         "r2": [round(r2, ndigits)]}
    )


_PCA_QMAX = 10_000_000  # |q| bound so an 8192-row int64 Gram chunk is exact


def top_component(
    ds: "ray.data.Dataset",
    vec_col: str = "embedding",
    scale_bits: int = 12,
    iters: int = 6,
    x_scale_bits: int = 20,
    ndigits: int = 6,
) -> pa.Table:
    """Top principal direction of the UNCENTERED second-moment (Gram)
    matrix of an embedding column, by power iteration run entirely in
    exact integer arithmetic → rows (j, loading, eigval): the unit
    eigenvector component per 1-based dimension and the Rayleigh-quotient
    eigenvalue in original (dequantized) units.

    Fixed-point recipe (the kmeans / linear_fit pattern): vectors are
    quantized once to ``q = floor(v·2^scale_bits + 0.5)``; each block
    emits its EXACT integer Gram partial ``Σ q qᵀ`` as decimal128 cells
    (int64-safe 8192-row chunks merged in Python arbitrary precision);
    the driver sums partials exactly, then iterates
    ``x ← floor(A·x · 2^x_scale_bits / max|A·x|)`` in Python big ints —
    floor-division keeps every iterate integral, so the whole recursion
    is partition-invariant AND bit-replayable by a chained-CTE DuckDB
    oracle (`//` truncation emulated to floor via CASE). The only float
    surface is the final pinned-order (cast → divide → sqrt → round)
    readout; IEEE sqrt is exactly rounded, so it replays bit-for-bit.

    Scale shape: ONE streaming pass; a block's partial is d² numbers
    regardless of its row count, the driver holds d² big ints and the
    d-vector iteration — nothing scales with the corpus. Uncentered on
    purpose: centering would add a rational mean into the fixed-point
    recursion; callers who need centered PCA can pre-subtract a
    broadcast mean (documented deviation from textbook PCA).
    """
    Q = 1 << scale_bits
    S = 1 << x_scale_bits

    def partial(t: pa.Table) -> pa.Table:
        col = t[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.cast(col.flatten(), pa.float64()).to_numpy()
        off = col.offsets.to_numpy().astype(np.int64)
        widths = np.diff(off)
        if len(widths) == 0:
            return pa.table({"i": pa.array([], pa.int64()),
                             "j": pa.array([], pa.int64()),
                             "a": pa.array([], pa.decimal128(38, 0))})
        d = int(widths[0])
        if not (widths == d).all():
            raise ValueError("top_component: ragged vector column")
        q = np.floor(flat * float(Q) + 0.5).astype(np.int64).reshape(-1, d)
        if np.abs(q).max(initial=0) > _PCA_QMAX:
            raise ValueError(
                f"top_component quantized values exceed |{_PCA_QMAX}|; "
                f"lower scale_bits so Gram chunks stay int64-exact."
            )
        acc = [[0] * d for _ in range(d)]
        CH = 8192  # 8192 · _PCA_QMAX² < 2**63
        for s in range(0, len(q), CH):
            g = q[s:s + CH].T @ q[s:s + CH]  # exact int64 by the bound
            for i in range(d):
                gi = g[i]
                ai = acc[i]
                for j in range(d):
                    ai[j] += int(gi[j])
        ii = np.repeat(np.arange(1, d + 1, dtype=np.int64), d)
        jj = np.tile(np.arange(1, d + 1, dtype=np.int64), d)
        vals = [acc[i][j] for i in range(d) for j in range(d)]
        return pa.table(
            {"i": pa.array(ii), "j": pa.array(jj),
             "a": pa.array(vals, pa.decimal128(38, 0))}
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow"
    ).to_pandas()
    if len(parts) == 0:
        return pa.table({"j": pa.array([], pa.int64()),
                         "loading": pa.array([], pa.float64()),
                         "eigval": pa.array([], pa.float64())})
    d = int(parts["i"].max())
    A = [[0] * d for _ in range(d)]
    for i_, j_, a_ in zip(parts["i"], parts["j"], parts["a"]):
        A[int(i_) - 1][int(j_) - 1] += int(a_)

    x = [S] * d
    for _ in range(iters):
        y = [sum(A[i][j] * x[j] for j in range(d)) for i in range(d)]
        m = max(abs(v) for v in y)
        if m == 0:
            break
        x = [(v * S) // m for v in y]  # Python // floors (oracle CASE)

    den = sum(v * v for v in x)
    num = sum(A[i][j] * x[i] * x[j] for i in range(d) for j in range(d))
    den_d = float(den)
    norm = float(np.sqrt(den_d))
    eig = round((float(num) / den_d) / float(Q * Q), ndigits)
    loadings = [round(float(v) / norm, ndigits) for v in x]
    return pa.table(
        {"j": pa.array(np.arange(1, d + 1, dtype=np.int64)),
         "loading": pa.array(loadings, pa.float64()),
         "eigval": pa.array([eig] * d, pa.float64())}
    )


_ZSCORE_MAX_GROUPS = 100_000  # broadcast-moments cap (driver dict)


def zscore_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    id_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Per-group z-score normalization (population std) → rows
    (id_col, group_col, z) — the feature-normalization primitive.
    Groups with zero variance (or a single row) get NULL z.

    Scale shape: pass 1 reduces each block to exact integer moment
    partials (n, Σc, Σc²) per group (decimal128 — the linear_fit
    recipe), one vocabulary-sized ``groupby(group)`` merges them, and
    the merged moments (bounded by ``_ZSCORE_MAX_GROUPS``) broadcast
    into pass 2's task closures — the big table never shuffles. The
    per-row readout is pinned-order IEEE doubles
    ``(c − Σc/n) / sqrt((n·Σc² − (Σc)²) / n²)`` so the DuckDB oracle
    replays it bit-for-bit. ``ds`` is consumed twice: pass a cheap
    re-readable source or materialize it first.
    """

    def partial(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        if len(c) and np.abs(c).max() > _QMAX:
            raise ValueError(
                f"zscore quantized values exceed |{_QMAX}|; lower `scale`."
            )
        g = t[group_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(g)
        order = np.argsort(codes, kind="stable")
        cs = c[order]
        bounds = np.searchsorted(codes[order], np.arange(len(uniq) + 1))
        rows = {"g": [], "n": [], "s1": [], "s2": []}
        for k in range(len(uniq)):
            seg = cs[bounds[k]:bounds[k + 1]]
            rows["g"].append(uniq[k])
            rows["n"].append(len(seg))
            rows["s1"].append(_exact_sum(seg))
            rows["s2"].append(_exact_sum(seg * seg))
        return pa.table(
            {group_col: pa.array(rows["g"]),
             "n": pa.array(rows["n"], pa.decimal128(38, 0)),
             "s1": pa.array(rows["s1"], pa.decimal128(38, 0)),
             "s2": pa.array(rows["s2"], pa.decimal128(38, 0))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    moments: dict = {}
    for g, n_, s1_, s2_ in zip(parts[group_col], parts["n"],
                               parts["s1"], parts["s2"]):
        n0, a0, b0 = moments.get(g, (0, 0, 0))
        moments[g] = (n0 + int(n_), a0 + int(s1_), b0 + int(s2_))
    if len(moments) > _ZSCORE_MAX_GROUPS:
        raise ValueError(
            f"zscore_by_group: {len(moments)} groups exceed the broadcast "
            f"cap {_ZSCORE_MAX_GROUPS}; use a bucketed exchange instead."
        )
    stats = {}
    for g, (n, s1, s2) in moments.items():
        num2 = n * s2 - s1 * s1
        if n < 2 or num2 == 0:
            stats[g] = (0.0, float("nan"))
            continue
        mean = float(s1) / float(n)
        std = float(np.sqrt(float(num2) / (float(n) * float(n))))
        stats[g] = (mean, std)

    def transform(t: pa.Table) -> pa.Table:
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * scale + 0.5
        )
        g = t[group_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(g)
        lm = np.array([stats.get(u, (0.0, np.nan))[0] for u in uniq]
                      or [0.0])
        ls = np.array([stats.get(u, (0.0, np.nan))[1] for u in uniq]
                      or [np.nan])
        with np.errstate(invalid="ignore"):
            z = np.round((c - lm[codes]) / ls[codes], ndigits)
        return pa.table(
            {id_col: t[id_col], group_col: t[group_col],
             "z": pa.array(np.where(np.isnan(z), None, z),
                           pa.float64(), from_pandas=True)}
        )

    return ds.map_batches(transform, batch_format="pyarrow")


def robust_zscore(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    id_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Median/MAD robust z-score — the outlier-resistant twin of
    ``zscore_by_group`` (a single extreme value drags mean/std but not
    median/MAD): → rows (id_col, group_col, robust_z) with

        robust_z = round((c − median_g(c)) / MAD_g(c), ndigits)

    over values quantized to integer ``scale`` units (c = ⌊v·scale+0.5⌋).
    NULL when the group's MAD is 0 (constant-majority group) or the
    group is unseen. Quantization is what makes the float surface exact:
    medians of integers and MADs of dyadic-half deviations are exact
    dyadic doubles, so DuckDB's `lo + (hi−lo)·frac` and the engine's
    `lo·(1−frac) + hi·frac` interpolations agree BIT-for-bit and the one
    final division is pinned-order.

    Scale shape: two exact ``grouped_quantiles`` passes (hash exchanges
    carrying only (group, value)), each group-stat
    table broadcast (``_ZSCORE_MAX_GROUPS`` cap) into a zero-shuffle
    readout. Exact quantiles are not mergeable — for unbounded streams
    swap in the histogram sketch (`sketches.approx_quantiles`). ``ds`` is
    consumed three times: give it a cheap re-readable lineage or
    materialize it first.
    """
    from record_matcher_ray.pipelines.table_ops import grouped_quantiles

    def _cents(t: pa.Table) -> np.ndarray:
        return np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * scale + 0.5
        )

    def quant(t: pa.Table) -> pa.Table:
        return pa.table({group_col: t[group_col],
                         "__c__": pa.array(_cents(t))})

    med_df = grouped_quantiles(
        ds.map_batches(quant, batch_format="pyarrow"),
        [group_col], "__c__", (0.5,),
    ).to_pandas()
    # Empty input: the quantile pass yields a column-less frame.
    med = ({} if med_df.empty
           else dict(zip(med_df[group_col], med_df["q_50"])))
    if len(med) > _ZSCORE_MAX_GROUPS:
        raise ValueError(
            f"robust_zscore: {len(med)} groups exceed the broadcast cap "
            f"{_ZSCORE_MAX_GROUPS}; use a bucketed exchange instead."
        )

    def absdev(t: pa.Table) -> pa.Table:
        c = _cents(t)
        codes, uniq = pd.factorize(t[group_col].to_numpy(zero_copy_only=False))
        lm = np.array([med.get(u, np.nan) for u in uniq] or [np.nan])
        return pa.table({group_col: t[group_col],
                         "__a__": pa.array(np.abs(c - lm[codes]))})

    mad_df = grouped_quantiles(
        ds.map_batches(absdev, batch_format="pyarrow"),
        [group_col], "__a__", (0.5,),
    ).to_pandas()
    mad = ({} if mad_df.empty
           else dict(zip(mad_df[group_col], mad_df["q_50"])))

    def transform(t: pa.Table) -> pa.Table:
        c = _cents(t)
        codes, uniq = pd.factorize(t[group_col].to_numpy(zero_copy_only=False))
        lm = np.array([med.get(u, np.nan) for u in uniq] or [np.nan])
        ls = np.array([mad.get(u, np.nan) for u in uniq] or [np.nan])
        sd = ls[codes]
        sd = np.where(sd == 0.0, np.nan, sd)
        with np.errstate(invalid="ignore"):
            rz = np.round((c - lm[codes]) / sd, ndigits)
        return pa.table(
            {id_col: t[id_col], group_col: t[group_col],
             "robust_z": pa.array(np.where(np.isnan(rz), None, rz),
                                  pa.float64(), from_pandas=True)}
        )

    return ds.map_batches(transform, batch_format="pyarrow")


def grouped_corr(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 9,
    max_groups: int = 100_000,
) -> pd.DataFrame:
    """Per-group Pearson correlation of two quantized numeric columns →
    DataFrame (group, n, corr), bit-replayable by a DuckDB oracle.

    The grouped sibling of :func:`linear_fit`: one streaming pass; every
    block emits exact integer moment partials PER GROUP PRESENT IN THE
    BLOCK (decimal128 rows — bounded by the block's distinct groups, not
    its row count); the driver merges in Python big ints and finishes
    with the pinned-order double readout
    ``corr = num / (sqrt(denx)·sqrt(deny))``. Intended for
    bounded-cardinality group columns (flags, segments, sources) — the
    driver holds one six-int row per group, guarded by ``max_groups``.
    Rows with null group/x/y drop (SQL GROUP BY + join-null parity);
    groups with n < 2 or zero variance report NaN corr.
    """

    def partial(t: pa.Table) -> pa.Table:
        xv = pc.cast(t[x_col], pa.float64())
        yv = pc.cast(t[y_col], pa.float64())
        ok = pc.and_(
            pc.and_(pc.is_valid(xv), pc.is_valid(yv)),
            pc.is_valid(t[group_col]),
        )
        sub = t.filter(ok)
        xv = pc.cast(sub[x_col], pa.float64()).to_numpy()
        yv = pc.cast(sub[y_col], pa.float64()).to_numpy()
        x = np.floor(xv * scale + 0.5).astype(np.int64)
        y = np.floor(yv * scale + 0.5).astype(np.int64)
        if len(x) and (np.abs(x).max() > _QMAX or np.abs(y).max() > _QMAX):
            raise ValueError(
                f"grouped_corr quantized values exceed |{_QMAX}|; lower "
                "`scale` so squared terms stay int64-chunk-safe."
            )
        codes, uniq = pd.factorize(
            sub[group_col].to_numpy(zero_copy_only=False), sort=False
        )
        rows = {"grp": [], "n": [], "sx": [], "sy": [], "sxy": [],
                "sxx": [], "syy": []}
        order = np.argsort(codes, kind="stable")
        bounds = np.nonzero(
            np.concatenate(([True], codes[order][1:] != codes[order][:-1]))
        )[0]
        ends = np.concatenate((bounds[1:], [len(codes)]))
        for b, e in zip(bounds, ends):
            sel = order[b:e]
            gx, gy = x[sel], y[sel]
            rows["grp"].append(uniq[codes[order[b]]])
            rows["n"].append(len(sel))
            rows["sx"].append(_exact_sum(gx))
            rows["sy"].append(_exact_sum(gy))
            rows["sxy"].append(_exact_sum(gx * gy))
            rows["sxx"].append(_exact_sum(gx * gx))
            rows["syy"].append(_exact_sum(gy * gy))
        return pa.table(
            {
                "grp": pa.array(rows["grp"]),
                **{
                    c: pa.array(rows[c], pa.decimal128(38, 0))
                    for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]
                },
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame(
            {"grp": [], "n": pd.Series([], dtype=np.int64),
             "corr": pd.Series([], dtype=np.float64)}
        )
    for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]:
        parts[c] = parts[c].map(int)  # Decimal → exact Python int
    agg = parts.groupby("grp", sort=True).sum(numeric_only=False)
    if len(agg) > max_groups:
        raise ValueError(
            f"{len(agg):,} groups exceeds max_groups={max_groups:,}; "
            "grouped_corr is for bounded-cardinality group columns."
        )
    out_g, out_n, out_c = [], [], []
    for grp, row in agg.iterrows():
        n, sx, sy = int(row["n"]), int(row["sx"]), int(row["sy"])
        sxy, sxx, syy = int(row["sxy"]), int(row["sxx"]), int(row["syy"])
        num = n * sxy - sx * sy
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        if n < 2 or denx == 0 or deny == 0:
            corr = float("nan")
        else:
            corr = round(
                float(num) / (math.sqrt(float(denx))
                              * math.sqrt(float(deny))),
                ndigits,
            )
        out_g.append(grp)
        out_n.append(n)
        out_c.append(corr)
    return pd.DataFrame(
        {"grp": out_g, "n": np.asarray(out_n, np.int64),
         "corr": np.asarray(out_c, np.float64)}
    )


def grouped_linear_fit(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 9,
    max_groups: int = 100_000,
) -> pd.DataFrame:
    """Per-group simple OLS ``y ≈ slope·x + intercept`` → DataFrame
    (grp, n, slope, intercept, r2) — segment-wise trend fitting (price
    sensitivity per return flag, drift per source shard).

    The grouped sibling of :func:`linear_fit` with :func:`grouped_corr`'s
    exchange shape: one streaming pass emits exact integer moment
    partials per (block, group) as decimal128 rows, the driver merges in
    Python big ints, and the closed form is the SAME pinned-order double
    readout as `linear_fit` (num/denx; (Σy − slope·Σx)/n; num²/(denx·deny))
    so a DuckDB oracle replays every group bit-for-bit. Bounded-cardinality
    group columns only (``max_groups`` guard); groups with n < 2 or zero
    x-variance report NaN slope/intercept/r2 (deny == 0 NaNs only r2's
    denominator — slope is still defined).
    """

    def partial(t: pa.Table) -> pa.Table:
        xv = pc.cast(t[x_col], pa.float64())
        yv = pc.cast(t[y_col], pa.float64())
        ok = pc.and_(
            pc.and_(pc.is_valid(xv), pc.is_valid(yv)),
            pc.is_valid(t[group_col]),
        )
        sub = t.filter(ok)
        x = np.floor(
            pc.cast(sub[x_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        y = np.floor(
            pc.cast(sub[y_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        if len(x) and (np.abs(x).max() > _QMAX or np.abs(y).max() > _QMAX):
            raise ValueError(
                f"grouped_linear_fit quantized values exceed |{_QMAX}|; "
                "lower `scale` so squared terms stay int64-chunk-safe."
            )
        codes, uniq = pd.factorize(
            sub[group_col].to_numpy(zero_copy_only=False), sort=False
        )
        rows = {"grp": [], "n": [], "sx": [], "sy": [], "sxy": [],
                "sxx": [], "syy": []}
        order = np.argsort(codes, kind="stable")
        bounds = np.nonzero(
            np.concatenate(([True], codes[order][1:] != codes[order][:-1]))
        )[0] if len(codes) else np.array([], np.int64)
        ends = np.concatenate((bounds[1:], [len(codes)])) if len(codes) \
            else np.array([], np.int64)
        for b, e in zip(bounds, ends):
            sel = order[b:e]
            gx, gy = x[sel], y[sel]
            rows["grp"].append(uniq[codes[order[b]]])
            rows["n"].append(len(sel))
            rows["sx"].append(_exact_sum(gx))
            rows["sy"].append(_exact_sum(gy))
            rows["sxy"].append(_exact_sum(gx * gy))
            rows["sxx"].append(_exact_sum(gx * gx))
            rows["syy"].append(_exact_sum(gy * gy))
        return pa.table(
            {
                "grp": pa.array(rows["grp"]),
                **{
                    c: pa.array(rows[c], pa.decimal128(38, 0))
                    for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]
                },
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame(
            {"grp": [], "n": pd.Series([], dtype=np.int64),
             "slope": pd.Series([], dtype=np.float64),
             "intercept": pd.Series([], dtype=np.float64),
             "r2": pd.Series([], dtype=np.float64)}
        )
    for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]:
        parts[c] = parts[c].map(int)
    agg = parts.groupby("grp", sort=True).sum(numeric_only=False)
    if len(agg) > max_groups:
        raise ValueError(
            f"{len(agg):,} groups exceeds max_groups={max_groups:,}; "
            "grouped_linear_fit is for bounded-cardinality group columns."
        )
    out = {"grp": [], "n": [], "slope": [], "intercept": [], "r2": []}
    for grp, row in agg.iterrows():
        n, sx, sy = int(row["n"]), int(row["sx"]), int(row["sy"])
        sxy, sxx, syy = int(row["sxy"]), int(row["sxx"]), int(row["syy"])
        num = n * sxy - sx * sy
        denx = n * sxx - sx * sx
        deny = n * syy - sy * sy
        if n < 2 or denx == 0:
            slope = intercept = r2 = float("nan")
        else:
            num_d, denx_d = float(num), float(denx)
            slope = num_d / denx_d
            intercept = round(
                (float(sy) - slope * float(sx)) / float(n), ndigits
            )
            r2 = (round((num_d * num_d) / (denx_d * float(deny)), ndigits)
                  if deny != 0 else float("nan"))
            slope = round(slope, ndigits)
        out["grp"].append(grp)
        out["n"].append(n)
        out["slope"].append(slope)
        out["intercept"].append(intercept)
        out["r2"].append(r2)
    return pd.DataFrame(
        {"grp": out["grp"], "n": np.asarray(out["n"], np.int64),
         "slope": np.asarray(out["slope"], np.float64),
         "intercept": np.asarray(out["intercept"], np.float64),
         "r2": np.asarray(out["r2"], np.float64)}
    )


def grouped_entropy(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    *,
    ndigits: int = 6,
    max_cells: int = 1_000_000,
) -> pd.DataFrame:
    """Shannon entropy (nats) of a categorical column's distribution per
    group → DataFrame (grp, n, entropy) — the diversity / skew profiling
    signal (segment mix per region, source mix per shard, label balance
    per bucket).

    entropy = ln(n) − (Σ_v k_v·ln k_v)/n over EXACT integer counts, the
    Σ accumulated in ASCENDING value order — the same pinned left-fold
    the `char_entropy` oracle replays with
    ``list_sum(list(k·ln k ORDER BY v))``; the only other float surface
    is one division and one subtraction. Null groups/values drop (SQL
    GROUP BY + WHERE parity). Intended for bounded-cardinality pairs:
    the exchanged table is one row per (group, value) cell, guarded by
    ``max_cells``.
    """
    import math

    def valid(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[value_col]))
        ).select([group_col, value_col])

    cells = (
        ds.map_batches(valid, batch_format="pyarrow")
        .groupby([group_col, value_col])
        .count()
        .take_all()
    )
    if len(cells) > max_cells:
        # name the fattest groups so the error is actionable at scale
        # (VERDICT r4 nit 3): which keys blew the budget, not just that
        # one did
        import collections

        width = collections.Counter(r[group_col] for r in cells)
        top = ", ".join(f"{g!r}×{c:,}" for g, c in width.most_common(5))
        raise ValueError(
            f"{len(cells):,} (group, value) cells exceeds max_cells="
            f"{max_cells:,}; grouped_entropy is for bounded-cardinality "
            f"categorical columns. Widest groups: {top}."
        )
    by_group: dict = {}
    for row in cells:
        by_group.setdefault(row[group_col], []).append(
            (row[value_col], int(row["count()"]))
        )
    out_g, out_n, out_e = [], [], []
    for g in sorted(by_group):
        vs = sorted(by_group[g])  # ascending value order == SQL ORDER BY v
        n = sum(k for _, k in vs)
        s = 0.0
        for _, k in vs:  # pinned left fold
            s = s + float(k) * math.log(float(k))
        ent = math.floor(
            (math.log(float(n)) - s / float(n)) * 10.0**ndigits + 0.5
        ) / 10.0**ndigits
        out_g.append(g)
        out_n.append(n)
        out_e.append(ent)
    return pd.DataFrame(
        {"grp": out_g, "n": np.asarray(out_n, np.int64),
         "entropy": np.asarray(out_e, np.float64)}
    )


def psi_numeric(
    ds: ray.data.Dataset,
    value_col: str,
    group_col: str,
    *,
    lo: float,
    hi: float,
    n_bins: int = 10,
    ndigits: int = 6,
) -> pd.DataFrame:
    """Population Stability Index per group vs the corpus blend — the
    numeric drift monitor (score/price/length distribution shift per
    shard): → DataFrame (grp, n, psi) sorted by grp.

    Bins are fixed-width over [lo, hi) with dedicated underflow/overflow
    bins (B = n_bins + 2 total); ``PSI_g = Σ_b (p_b − q_b)·ln(p_b/q_b)``
    where p_b = (c_gb + 1)/(n_g + B) and q_b the same add-1-smoothed
    proportion over ALL rows (Laplace smoothing keeps every bin defined
    and the whole computation a pure function of EXACT integer counts).
    Pinned float recipe: bin = floor(((x) − lo)·n_bins/(hi − lo)) in one
    double chain, per-bin contribution in one chain, bins fold in
    ASCENDING bin order (the toolbox ordered-fold pattern) — a DuckDB
    oracle replays it bit-for-bit. Null groups/values drop.

    Scale shape: one streaming pass of per-block (group, bin) count
    partials; the exchanged table is ≤ groups×B cells.
    """
    import math

    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if not hi > lo:
        raise ValueError(f"need hi > lo, got {lo=} {hi=}")
    B = n_bins + 2
    lo_f, hi_f, nb_f = float(lo), float(hi), float(n_bins)

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[value_col]))
        sub = t.filter(ok)
        x = pc.cast(sub[value_col], pa.float64()).to_numpy()
        g = pc.cast(sub[group_col], pa.string()).to_numpy(
            zero_copy_only=False
        )
        raw = np.floor((x - lo_f) * nb_f / (hi_f - lo_f))
        bin_ = (np.clip(raw, -1.0, nb_f) + 1.0).astype(np.int64)
        codes, uniq = pd.factorize(g)
        key = codes.astype(np.int64) * B + bin_
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"grp": pa.array(uniq[(uk // B)].astype(object),
                             pa.string()),
             "bin": pa.array((uk % B).astype(np.int64)),
             "c": pa.array(cnt.astype(np.int64))}
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "bin"])
        .sum("c")
        .to_pandas()
    )
    if len(cells) == 0 or "grp" not in cells.columns:
        return pd.DataFrame(
            {"grp": pd.Series([], dtype="object"),
             "n": pd.Series([], dtype="int64"),
             "psi": pd.Series([], dtype="float64")}
        )
    cells = cells.rename(columns={"sum(c)": "c"})
    corpus = cells.groupby("bin")["c"].sum()
    n_all = int(cells["c"].sum())
    pw = 10.0 ** int(ndigits)
    out = {"grp": [], "n": [], "psi": []}
    for grp, g in cells.groupby("grp", sort=True):
        n_g = int(g["c"].sum())
        by_bin = dict(zip(g["bin"].astype(int), g["c"].astype(int)))
        s = 0.0
        for b in range(B):
            p = float(by_bin.get(b, 0) + 1) / float(n_g + B)
            q = float(int(corpus.get(b, 0)) + 1) / float(n_all + B)
            s = s + (p - q) * math.log(p / q)
        out["grp"].append(grp)
        out["n"].append(n_g)
        out["psi"].append(math.floor(s * pw + 0.5) / pw if s >= 0
                          else -math.floor(-s * pw + 0.5) / pw)
    return pd.DataFrame(
        {"grp": out["grp"], "n": np.asarray(out["n"], np.int64),
         "psi": np.asarray(out["psi"], np.float64)}
    )


def benford_digit_test(
    ds: ray.data.Dataset,
    value_col: str,
    group_col: str,
    *,
    cents_scale: float = 100.0,
    ndigits: int = 6,
) -> pd.DataFrame:
    """Benford's-law forensics per group: χ² deviation of the
    first-significant-digit distribution of positive amounts from the
    Benford expectation ``p_d = ln(1 + 1/d)/ln(10)`` → DataFrame
    (grp, n, chi2) sorted by grp — the fraud/synthetic-data screen for
    amount columns.

    Values are quantized to integer cents (half-up) and the leading
    digit extracted by pure-integer division, so every count is EXACT
    and partitioning-invariant; non-positive / null amounts drop (the
    oracle's WHERE mirrors this). χ² folds digits 1..9 in ascending
    order with one pinned double chain per digit — replayable
    bit-for-bit by a DuckDB grid + ``list_sum`` oracle (the PSI
    pattern, stats.psi_numeric).

    Scale shape: one streaming pass of per-block (group, digit) count
    partials; the exchange is ≤ groups×9 cells.
    """
    import math

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[value_col]))
        sub = t.filter(ok)
        x = pc.cast(sub[value_col], pa.float64()).to_numpy()
        cents = np.floor(x * cents_scale + 0.5).astype(np.int64)
        pos = cents > 0
        cents = cents[pos]
        g = pc.cast(sub[group_col], pa.string()).to_numpy(
            zero_copy_only=False
        )[pos]
        d = cents.copy()
        while True:
            big = d >= 10
            if not big.any():
                break
            d[big] //= 10
        codes, uniq = pd.factorize(g)
        key = codes.astype(np.int64) * 10 + d
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {"grp": pa.array(uniq[(uk // 10)].astype(object), pa.string()),
             "digit": pa.array((uk % 10).astype(np.int64)),
             "c": pa.array(cnt.astype(np.int64))}
        )

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["grp", "digit"])
        .sum("c")
        .to_pandas()
    )
    if len(cells) == 0 or "grp" not in cells.columns:
        return pd.DataFrame(
            {"grp": pd.Series([], dtype="object"),
             "n": pd.Series([], dtype="int64"),
             "chi2": pd.Series([], dtype="float64")}
        )
    cells = cells.rename(columns={"sum(c)": "c"})
    ln10 = math.log(10.0)
    pw = 10.0 ** int(ndigits)
    out = {"grp": [], "n": [], "chi2": []}
    for grp, g in cells.groupby("grp", sort=True):
        n_g = int(g["c"].sum())
        by_d = dict(zip(g["digit"].astype(int), g["c"].astype(int)))
        s = 0.0
        for d in range(1, 10):
            p = math.log(1.0 + 1.0 / float(d)) / ln10
            e = float(n_g) * p
            c = float(by_d.get(d, 0))
            s = s + (c - e) * (c - e) / e
        out["grp"].append(grp)
        out["n"].append(n_g)
        out["chi2"].append(math.floor(s * pw + 0.5) / pw)
    return pd.DataFrame(
        {"grp": out["grp"], "n": np.asarray(out["n"], np.int64),
         "chi2": np.asarray(out["chi2"], np.float64)}
    )


_WELCH_QMAX = 90_000_000  # |c| bound so 1024·c² < 2**63 in _exact_sum


def welch_t_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    label_col: str,
    val_col: str,
    label_a: str,
    label_b: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> pd.DataFrame:
    """Welch's unequal-variance two-sample t-test per group (Welch
    1947): within each ``group_col`` value, compare ``val_col`` between
    rows labeled ``label_a`` and ``label_b`` → one row per group with
    both labels present (n ≥ 2 each):
    (group, n_a, n_b, mean_diff, t_stat, df) — mean_diff in original
    units, df by Welch–Satterthwaite. The A/B-comparison primitive for
    per-segment metric shifts.

    Parity recipe: values quantize once to integer units
    (``floor(v·scale + 0.5)``), per-(group,label) Σx/Σx² accumulate
    EXACTLY (decimal128 partials like `linear_fit` — immune to block
    layout), and the entire readout is one pinned-order double chain
    (means, sample variances, se², t, df — each int→double conversion
    and operation in a fixed order the DuckDB oracle replays
    bit-for-bit; sqrt is libm both sides). Zero-variance groups emit
    NULL t/df. Readout signed half-up ``ndigits``.

    Scale shape: ONE streaming pass; each block's partial is a few rows
    per (group, label) — no shuffle at all; the driver merges
    O(groups) integers.
    """
    import math

    def partial(t: pa.Table) -> pa.Table:
        lv = pc.cast(t[label_col], pa.string())
        keep = pc.and_(
            pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[val_col])),
            pc.is_in(lv, value_set=pa.array([label_a, label_b])),
        )
        sub = t.filter(keep)
        out_g, out_l, out_n, out_s, out_q = [], [], [], [], []
        if len(sub):
            g = sub[group_col].to_numpy(zero_copy_only=False)
            l = pc.cast(sub[label_col], pa.string()).to_numpy(
                zero_copy_only=False)
            c = np.floor(
                pc.cast(sub[val_col], pa.float64()).to_numpy() * scale
                + 0.5
            ).astype(np.int64)
            if np.abs(c).max() > _WELCH_QMAX:
                raise ValueError(
                    f"welch_t_by_group quantized values exceed "
                    f"|{_WELCH_QMAX}|; lower `scale`."
                )
            import pandas as pd  # worker-side

            codes, uniq = pd.factorize(
                pd.MultiIndex.from_arrays([g, l])
            )
            for i, (gv, lv_) in enumerate(uniq):
                m = codes == i
                out_g.append(gv)
                out_l.append(lv_)
                out_n.append(int(m.sum()))
                cm = c[m]
                out_s.append(_exact_sum(cm))
                out_q.append(_exact_sum(cm * cm))
        return pa.table(
            {"g": pa.array(out_g, pa.string()),
             "l": pa.array(out_l, pa.string()),
             "n": pa.array(out_n, pa.int64()),
             "s": pa.array(out_s, pa.decimal128(38, 0)),
             "q": pa.array(out_q, pa.decimal128(38, 0))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    rows = []
    if len(parts):
        parts["s"] = parts["s"].map(int)
        parts["q"] = parts["q"].map(int)
        agg = parts.groupby(["g", "l"], sort=True).agg(
            n=("n", "sum"), s=("s", "sum"), q=("q", "sum")
        ).reset_index()
        piv = {(r.g, r.l): (int(r.n), int(r.s), int(r.q))
               for r in agg.itertuples()}
        for gv in sorted({k[0] for k in piv}):
            if (gv, label_a) not in piv or (gv, label_b) not in piv:
                continue
            na, sa, qa = piv[(gv, label_a)]
            nb, sb, qb = piv[(gv, label_b)]
            if na < 2 or nb < 2:
                continue
            naD, nbD = float(na), float(nb)
            ma = float(sa) / naD
            mb = float(sb) / nbD
            va = (float(qa) - float(sa) * float(sa) / naD) / (naD - 1.0)
            vb = (float(qb) - float(sb) * float(sb) / nbD) / (nbD - 1.0)
            se2 = va / naD + vb / nbD
            mean_diff = (ma - mb) / float(scale)
            if se2 <= 0.0:
                t_stat = df = None
            else:
                t_stat = (ma - mb) / math.sqrt(se2)
                df = se2 * se2 / (
                    (va / naD) * (va / naD) / (naD - 1.0)
                    + (vb / nbD) * (vb / nbD) / (nbD - 1.0)
                )

            def r6(v):
                if v is None:
                    return None
                p = 10.0 ** ndigits
                return (math.floor(v * p + 0.5) if v >= 0
                        else -math.floor(-v * p + 0.5)) / p

            rows.append((gv, na, nb, r6(mean_diff), r6(t_stat), r6(df)))
    return pd.DataFrame(
        rows, columns=[group_col, "n_a", "n_b", "mean_diff",
                       "t_stat", "df"]
    ).astype({group_col: object, "n_a": np.int64, "n_b": np.int64,
              "mean_diff": np.float64, "t_stat": np.float64,
              "df": np.float64})


def gini_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Gini inequality coefficient per group over non-negative values
    (the mean-difference form on sorted ranks):

        G = 2·Σ i·x₍ᵢ₎ / (n·Σ x) − (n+1)/n

    → rows (group, n, gini) — concentration diagnostics for spend /
    exposure / token-frequency skew per segment.

    Parity recipe: values quantize once to integer units; rank-weighted
    and plain sums are EXACT integers (tie order between equal values
    provably cancels in Σ i·x, so row_number's arbitrary tie is safe —
    the oracle needs no tie-break column), and the readout is one
    pinned-order double chain, signed half-up ``ndigits``. Groups with
    Σx ≤ 0 emit NULL gini.

    Scale shape: ONE group-hash exchange; inside a ``fn`` call one
    lexsort orders every group's values and the sums are
    chunked exact-int folds (int64-safe per the `_exact_sum` bound).
    """
    import math

    def prep(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[val_col]))
        t = t.filter(ok)
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        if len(c) and np.abs(c).max() > _WELCH_QMAX:
            raise ValueError(
                f"gini_by_group quantized values exceed |{_WELCH_QMAX}|; "
                f"lower `scale`."
            )
        return pa.table(
            {group_col: t[group_col], "__c__": pa.array(c)}
        )

    def local(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        if len(t) == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64()),
                             "gini": pa.array([], pa.float64())})
        import pandas as pd  # worker-side

        g = t[group_col].to_numpy(zero_copy_only=False)
        c = t["__c__"].to_numpy()
        gc, _ = pd.factorize(g)
        order = np.lexsort((c, gc))
        g_s, c_s = gc[order], c[order]
        starts = np.nonzero(
            np.concatenate(([True], g_s[1:] != g_s[:-1]))
        )[0]
        sizes = np.diff(np.append(starts, len(g_s)))
        out_g, out_n, out_gini = [], [], []
        for si, sz in zip(starts, sizes):
            seg = c_s[si:si + sz]
            i1 = np.arange(1, sz + 1, dtype=np.int64)
            s0 = _exact_sum(seg)
            # rank-weighted elements are i·c, |i·c| ≤ sz·max|c| — i1*seg
            # itself must fit int64, and the partial-sum chunking must be
            # budgeted to that bound, not the fixed 1024 (ADVICE r3)
            mx = int(np.abs(seg).max()) if sz else 0
            if sz * mx >= 2**63:
                raise ValueError(
                    f"gini_by_group group of {sz} rows at max |value| "
                    f"{mx} overflows int64 rank weighting; lower `scale`."
                )
            s1 = _exact_sum_budget(i1 * seg, sz * mx)
            out_g.append(si)
            out_n.append(int(sz))
            if s0 <= 0:
                out_gini.append(None)
                continue
            nD = float(sz)
            v = 2.0 * float(s1) / (nD * float(s0)) - (nD + 1.0) / nD
            p = 10.0 ** ndigits
            out_gini.append(
                (math.floor(v * p + 0.5) if v >= 0
                 else -math.floor(-v * p + 0.5)) / p
            )
        return pa.table(
            {group_col: t[group_col].take(pa.array(order[out_g])),
             "n": pa.array(out_n, pa.int64()),
             "gini": pa.array(out_gini, pa.float64())}
        )

    return bucket_exchange(ds, [group_col], local, prepare=prep)


def theil_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Theil T inequality index per group over non-negative values:

        T = Σᵢ (xᵢ/S) · ln(xᵢ·n/S)        (S = Σ x, terms with x ≤ 0 drop)

    → rows (group, n, theil) — the decomposable entropy-based
    concentration measure, 0 at perfect equality, ln(n) at maximal.
    Complements `gini_by_group` (rank-based) with a log-scale-sensitive
    reading.

    Parity recipe: values quantize once to integer units; n and S are
    exact integers; each term is one pinned double chain
    ``(c/S)·ln(c·n/S)`` (libm ln both sides) and the per-group sum
    folds in ascending-value order — equal values contribute identical
    addends, so the oracle's ``list(term ORDER BY c)`` needs no
    tie-break. Readout signed half-up ``ndigits``; groups with S ≤ 0
    emit NULL.

    Scale shape: ONE group-hash exchange; inside a ``fn`` call one
    lexsort orders every group's values and the fold runs as
    max-segment-length lockstep sweeps across groups (`ewma_by_key`
    layout).
    """
    import math

    def prep(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[val_col]))
        t = t.filter(ok)
        c = np.floor(
            pc.cast(t[val_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        if len(c) and np.abs(c).max() > _WELCH_QMAX:
            raise ValueError(
                f"theil_by_group quantized values exceed |{_WELCH_QMAX}|; "
                f"lower `scale`."
            )
        return pa.table(
            {group_col: t[group_col], "__c__": pa.array(c)}
        )

    def local(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        if len(t) == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64()),
                             "theil": pa.array([], pa.float64())})
        import pandas as pd  # worker-side

        g = t[group_col].to_numpy(zero_copy_only=False)
        c = t["__c__"].to_numpy()
        gc, _ = pd.factorize(g)
        order = np.lexsort((c, gc))
        g_s, c_s = gc[order], c[order]
        starts = np.nonzero(
            np.concatenate(([True], g_s[1:] != g_s[:-1]))
        )[0]
        sizes = np.diff(np.append(starts, len(g_s)))
        # exact per-group totals (chunked int folds)
        s_tot = [
            _exact_sum(c_s[si:si + sz]) for si, sz in zip(starts, sizes)
        ]
        nseg = len(starts)
        nD = sizes.astype(np.float64)
        sD = np.array([float(v) for v in s_tot], np.float64)
        ok_g = np.array([v > 0 for v in s_tot])
        # per-row term, then ascending-value lockstep fold per group
        seg_of = np.repeat(np.arange(nseg, dtype=np.int64), sizes)
        cD = c_s.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(
                (c_s > 0) & ok_g[seg_of],
                cD / sD[seg_of] * np.log(cD * nD[seg_of] / sD[seg_of]),
                0.0,
            )
        from record_matcher_ray.pipelines.linkage import _lockstep_fold

        th = _lockstep_fold(seg_of, term, nseg)
        p = 10.0 ** ndigits
        out = np.where(th >= 0, np.floor(th * p + 0.5),
                       -np.floor(-th * p + 0.5)) / p
        return pa.table(
            {group_col: t[group_col].take(pa.array(order[starts])),
             "n": pa.array(sizes.astype(np.int64)),
             "theil": pa.array(out, pa.float64(),
                               mask=~ok_g)}
        )

    return bucket_exchange(ds, [group_col], local, prepare=prep)


def ks_test_two_sample(
    ds: ray.data.Dataset,
    label_col: str,
    val_col: str,
    label_a: str,
    label_b: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
    max_distinct: int = 5_000_000,
) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov distance between the ``val_col``
    distributions of rows labeled ``label_a`` vs ``label_b`` — the
    classic nonparametric drift detector complementing `term_kl` (text)
    and `welch_t_by_group` (means):

        D = max_v | F_a(v) − F_b(v) |

    → one row (n_a, n_b, d). EXACT: values quantize once to integer
    units; with cumulative counts cumA/cumB at each distinct value,
    D = max |cumA·n_b − cumB·n_a| / (n_a·n_b) — the max runs entirely
    in integers, ONE double division at the end (the DuckDB window
    replay is hash-exact). Rows with other labels or nulls drop; an
    empty side yields NULL d.

    Scale shape: per-block (value, label) count partials through one
    hash exchange, then a driver fold over DISTINCT values
    (``max_distinct`` guard — the documented driver-side shape)."""
    import math

    def partial(t: pa.Table) -> pa.Table:
        lv = pc.cast(t[label_col], pa.string())
        keep = pc.and_(
            pc.is_valid(t[val_col]),
            pc.is_in(lv, value_set=pa.array([label_a, label_b])),
        )
        t2 = t.filter(keep)
        lv2 = pc.cast(t2[label_col], pa.string()).to_numpy(
            zero_copy_only=False)
        q = np.floor(
            pc.cast(t2[val_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        is_a = (lv2 == label_a).astype(np.int64)
        codes, uniq = pd.factorize(q * 2 + is_a)
        cnt = np.bincount(codes).astype(np.int64)
        return pa.table({"__k__": pa.array(uniq), "__c__": pa.array(cnt)})

    def merge(t: pa.Table) -> pa.Table:
        k = t["__k__"].to_numpy()
        c = t["__c__"].to_numpy()
        codes, uniq = pd.factorize(k)
        return pa.table({
            "__k__": pa.array(uniq),
            "__c__": pa.array(np.bincount(codes, weights=c).astype(np.int64)),
        })

    cells = bucket_exchange(ds, ["__k__"], merge, prepare=partial).to_pandas()
    if len(cells) > max_distinct:
        raise ValueError(
            f"ks_test_two_sample: {len(cells)} distinct cells exceed "
            f"max_distinct={max_distinct}; lower `scale`."
        )
    if cells.empty:
        return pd.DataFrame({"n_a": [0], "n_b": [0], "d": [None]})
    k = cells["__k__"].to_numpy()
    c = cells["__c__"].to_numpy()
    q = k >> 1
    a_side = (k & 1).astype(bool)
    order = np.argsort(q, kind="stable")
    qs, cs, as_ = q[order], c[order], a_side[order]
    bounds = np.nonzero(np.concatenate(([True], qs[1:] != qs[:-1])))[0]
    ca = np.add.reduceat(np.where(as_, cs, 0), bounds)
    cb = np.add.reduceat(np.where(as_, 0, cs), bounds)
    n_a, n_b = int(ca.sum()), int(cb.sum())
    if n_a == 0 or n_b == 0:
        return pd.DataFrame({"n_a": [n_a], "n_b": [n_b], "d": [None]})
    cum_a = np.cumsum(ca)
    cum_b = np.cumsum(cb)
    # exact integer max of |cumA*n_b - cumB*n_a|
    num = 0
    for x, y in zip(cum_a, cum_b):
        v = abs(int(x) * n_b - int(y) * n_a)
        if v > num:
            num = v
    d = float(num) / float(n_a * n_b)
    p10 = 10.0 ** ndigits
    return pd.DataFrame({
        "n_a": [n_a], "n_b": [n_b],
        "d": [math.floor(d * p10 + 0.5) / p10],
    })


def _contingency_cells(
    ds: ray.data.Dataset, col_a: str, col_b: str
) -> pd.DataFrame:
    """Exact observed contingency cells of two categorical columns (nulls
    drop) → DataFrame (__a__, __b__, __c__), one row per OBSERVED (a, b)
    pair: per-block partial counts merged through one hash
    exchange, so raw rows never shuffle."""

    def count(a: np.ndarray, b: np.ndarray, w) -> pa.Table:
        codes, uniq = pd.factorize(pd.MultiIndex.from_arrays([a, b]))
        return pa.table({
            "__a__": pa.array([u[0] for u in uniq], pa.string()),
            "__b__": pa.array([u[1] for u in uniq], pa.string()),
            "__c__": pa.array(
                np.bincount(codes, weights=w).astype(np.int64)),
        })

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.is_valid(t[col_a]), pc.is_valid(t[col_b])))
        return count(
            pc.cast(t[col_a], pa.string()).to_numpy(zero_copy_only=False),
            pc.cast(t[col_b], pa.string()).to_numpy(zero_copy_only=False),
            None,
        )

    def merge(t: pa.Table) -> pa.Table:
        return count(t["__a__"].to_numpy(zero_copy_only=False),
                     t["__b__"].to_numpy(zero_copy_only=False),
                     t["__c__"].to_numpy())

    return bucket_exchange(
        ds, ["__a__", "__b__"], merge, prepare=partial
    ).to_pandas()


def chi_square_independence(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    *,
    ndigits: int = 6,
) -> pd.DataFrame:
    """Pearson χ² test of independence between two categorical columns
    (the association screen between, e.g., a data source and a quality
    label) → one row (n, n_rows, n_cols, dof, chi2, cramers_v) —
    Cramér's V = √(χ²/(n·min(r−1, c−1))) normalizes the statistic to
    [0, 1] effect size (NULL for a degenerate 1×k table):

        χ² = Σ_cells (O·n − r·c)² / (n·r·c)

    over the contingency table (O = cell count, r/c = marginals; the
    algebraically-equivalent all-integer-numerator form avoids the
    classic (O−E)²/E float accumulation). Null values in either column
    drop; dof = (rows−1)(cols−1); a degenerate table (one row or one
    column) yields chi2 = 0.

    Zero cells never need enumerating: each contributes
    (0·n − r·c)²/(n·r·c) = r·c/n, and Σ over ALL cells of r·c is n², so
    together they add (n² − Σ_observed r·c)/n. Work is therefore linear
    in the OBSERVED cells however sparse the r × c cross product is.

    Parity recipe: cell and marginal counts are exact integers; each
    observed cell's term does its numerator in Python big ints and ONE
    double division, folded in PINNED (a-value, b-value) ascending
    order, then the zero-cell total is one more exact-integer division
    — hash-exact against the DuckDB ``list_reduce`` replay whenever every
    cell is observed.

    Scale shape: per-block pre-aggregated cell partials, one hash
    exchange, then a driver fold over the distinct observed cells."""
    import math

    cells = _contingency_cells(ds, col_a, col_b)
    if cells.empty:
        return pd.DataFrame({"n": [0], "n_rows": [0], "n_cols": [0],
                             "dof": [0], "chi2": [None],
                             "cramers_v": [None]})
    cells = cells.sort_values(["__a__", "__b__"], kind="stable")
    n = int(cells["__c__"].sum())
    ra = cells.groupby("__a__")["__c__"].sum()
    cb = cells.groupby("__b__")["__c__"].sum()
    n_rows, n_cols = len(ra), len(cb)
    dof = (n_rows - 1) * (n_cols - 1)
    acc = 0.0
    rc_observed = 0
    for o, r, c in zip(cells["__c__"].tolist(),
                       cells["__a__"].map(ra).tolist(),
                       cells["__b__"].map(cb).tolist()):
        num = o * n - r * c
        acc = acc + float(num * num) / float(n * r * c)
        rc_observed += r * c
    acc = acc + float(n * n - rc_observed) / float(n)
    p10 = 10.0 ** ndigits
    kmin = min(n_rows - 1, n_cols - 1)
    v = (math.sqrt(acc / (float(n) * float(kmin))) if kmin > 0 else None)
    return pd.DataFrame({
        "n": [n], "n_rows": [n_rows], "n_cols": [n_cols], "dof": [dof],
        "chi2": [math.floor(acc * p10 + 0.5) / p10],
        "cramers_v": pd.Series(
            [math.floor(v * p10 + 0.5) / p10 if v is not None else np.nan],
            dtype="float64"),
    })


def chi_square_cells(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    *,
    ndigits: int = 6,
    max_cells: int = 1_000_000,
) -> pd.DataFrame:
    """Per-cell drill-down companion of `chi_square_independence`: the
    full contingency cross product with expected counts and PEARSON
    STANDARDIZED RESIDUALS (O − E)/√E — which (a, b) combinations drive
    an association flag → rows (a, b, observed, expected, std_residual)
    sorted by (a, b).

    Parity recipe: observed/marginal counts exact integers; per cell
    E = (r·c)/n is ONE double division, the residual one subtraction and
    one libm sqrt — pinned order, DuckDB replay hash-exact."""
    import math

    cells = _contingency_cells(ds, col_a, col_b)
    if len(cells) > max_cells:
        raise ValueError(
            f"chi_square_cells: {len(cells)} cells exceed "
            f"max_cells={max_cells}"
        )
    if cells.empty:
        return pd.DataFrame({"a": [], "b": [], "observed": [],
                             "expected": [], "std_residual": []})
    n = int(cells["__c__"].sum())
    ra = cells.groupby("__a__")["__c__"].sum().to_dict()
    cb = cells.groupby("__b__")["__c__"].sum().to_dict()
    if len(ra) * len(cb) > max_cells:
        raise ValueError(
            f"chi_square_cells: full cross product "
            f"{len(ra)}×{len(cb)} exceeds max_cells={max_cells} — the "
            f"output enumerates zero cells too"
        )
    obs = {(r["__a__"], r["__b__"]): int(r["__c__"])
           for _, r in cells.iterrows()}
    p10 = 10.0 ** ndigits

    def rnd(v: float) -> float:
        return (math.floor(v * p10 + 0.5) if v >= 0
                else -math.floor(-v * p10 + 0.5)) / p10

    rows = {"a": [], "b": [], "observed": [], "expected": [],
            "std_residual": []}
    for av in sorted(ra):
        for bv in sorted(cb):
            o = obs.get((av, bv), 0)
            e = float(int(ra[av]) * int(cb[bv])) / float(n)
            rows["a"].append(av)
            rows["b"].append(bv)
            rows["observed"].append(o)
            rows["expected"].append(rnd(e))
            rows["std_residual"].append(
                rnd((float(o) - e) / math.sqrt(e)) if e > 0 else None
            )
    return pd.DataFrame(rows)


def hhi_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    member_col: str,
    *,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Herfindahl–Hirschman concentration index per group over MEMBER
    COUNTS: within each ``group_col`` value, each distinct
    ``member_col`` value's share s_i = c_i / Σc, HHI = Σ s_i² ∈
    (0, 1] — 1 when one member dominates, →1/n under perfect balance.
    The duplication/market-share screen next to `gini_by_group`
    (rank-based) and `entropy` (log-based) → rows (group, n, n_members,
    hhi).

    Parity recipe: HHI = (Σ c_i²) / (Σ c_i)² with both sums EXACT
    integers (per-(group,member) counts through one hash aggregate) and
    ONE double division — the DuckDB replay is hash-exact."""
    import math

    def partial(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[member_col]))
        t = t.filter(ok)
        g = pc.cast(t[group_col], pa.string()).to_numpy(
            zero_copy_only=False)
        m = pc.cast(t[member_col], pa.string()).to_numpy(
            zero_copy_only=False)
        codes, uniq = pd.factorize(pd.MultiIndex.from_arrays([g, m]))
        cnt = np.bincount(codes).astype(np.int64)
        return pa.table({
            "__g__": pa.array([u[0] for u in uniq], pa.string()),
            "__m__": pa.array([u[1] for u in uniq], pa.string()),
            "__c__": pa.array(cnt),
        })

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["__g__", "__m__"])
        .sum("__c__")
        .to_pandas()
    )
    import ray.data as rd

    if cells.empty:
        return rd.from_pandas(pd.DataFrame({
            "group": pd.Series([], dtype=object),
            "n": pd.Series([], dtype="int64"),
            "n_members": pd.Series([], dtype="int64"),
            "hhi": pd.Series([], dtype="float64"),
        }))
    ccol = [c for c in cells.columns if c.startswith("sum")][0]
    p10 = 10.0 ** ndigits
    rows = {"group": [], "n": [], "n_members": [], "hhi": []}
    for gval, sub in cells.groupby("__g__", sort=True):
        s0 = sum(int(v) for v in sub[ccol])
        s2 = sum(int(v) * int(v) for v in sub[ccol])
        rows["group"].append(gval)
        rows["n"].append(s0)
        rows["n_members"].append(len(sub))
        rows["hhi"].append(
            math.floor(float(s2) / float(s0 * s0) * p10 + 0.5) / p10
        )
    return rd.from_pandas(pd.DataFrame(rows))


def spearman_by_group(
    ds: ray.data.Dataset,
    group_col: str,
    x_col: str,
    y_col: str,
    *,
    scale: float = 100.0,
    ndigits: int = 6,
) -> ray.data.Dataset:
    """Spearman rank correlation per group — the monotone-association
    twin of `grouped_corr` (Pearson), robust to outliers and nonlinear
    monotone relations → rows (group, n, rho), NULL rho for degenerate
    groups (n < 2 or zero rank variance).

    EXACT tie handling in integers: with min-rank r and peer count p,
    the DOUBLED average rank 2·avg = 2r + p − 1 is an integer, so the
    Pearson moments over doubled ranks accumulate exactly (Python big
    ints) and the readout is the one pinned num/√(denx·deny) chain —
    the DuckDB rank()-window replay is hash-exact. Values quantize once
    (``floor(v·scale + 0.5)``) so ties cut identically both sides.

    Scale shape: one group-hash exchange; within a ``fn`` call ranks come
    from two argsorts per group (vectorized boundary diffs, no per-row
    Python)."""
    import math

    def prep(t: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.is_valid(t[group_col]),
            pc.and_(pc.is_valid(t[x_col]), pc.is_valid(t[y_col])),
        )
        t = t.filter(ok)
        qx = np.floor(
            pc.cast(t[x_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        qy = np.floor(
            pc.cast(t[y_col], pa.float64()).to_numpy() * scale + 0.5
        ).astype(np.int64)
        return pa.table({
            group_col: t[group_col], "__x__": pa.array(qx),
            "__y__": pa.array(qy),
        })

    def rank2(vals: np.ndarray) -> np.ndarray:
        """Doubled average ranks (2r + p − 1) of one group's values."""
        order = np.argsort(vals, kind="stable")
        vs = vals[order]
        bounds = np.nonzero(
            np.concatenate(([True], vs[1:] != vs[:-1]))
        )[0]
        peers = np.diff(np.append(bounds, len(vs)))
        minrank = bounds + 1
        r2_sorted = np.repeat(2 * minrank + peers - 1, peers)
        out = np.empty(len(vals), np.int64)
        out[order] = r2_sorted
        return out

    def local(t: pa.Table) -> pa.Table:
        gtype = t.schema.field(group_col).type
        if len(t) == 0:
            return pa.table({group_col: pa.array([], gtype),
                             "n": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.float64())})
        g = t[group_col].to_numpy(zero_copy_only=False)
        qx = t["__x__"].to_numpy()
        qy = t["__y__"].to_numpy()
        gc, _ = pd.factorize(g)
        order = np.argsort(gc, kind="stable")
        starts = np.nonzero(
            np.concatenate(([True], gc[order][1:] != gc[order][:-1]))
        )[0]
        sizes = np.diff(np.append(starts, len(gc)))
        out_i, out_n, out_rho = [], [], []
        p10 = 10.0 ** ndigits
        for si, sz in zip(starts, sizes):
            idx = order[si:si + sz]
            rx = rank2(qx[idx])
            ry = rank2(qy[idx])
            n = int(sz)
            sx = _exact_sum(rx)
            sy = _exact_sum(ry)
            bound = 2 * n  # |rank2| ≤ 2n
            sxy = _exact_sum_budget(rx * ry, bound * bound)
            sxx = _exact_sum_budget(rx * rx, bound * bound)
            syy = _exact_sum_budget(ry * ry, bound * bound)
            out_i.append(idx[0])
            out_n.append(n)
            num = n * sxy - sx * sy
            denx = n * sxx - sx * sx
            deny = n * syy - sy * sy
            if n < 2 or denx == 0 or deny == 0:
                out_rho.append(None)
                continue
            v = float(num) / math.sqrt(float(denx) * float(deny))
            out_rho.append(
                (math.floor(v * p10 + 0.5) if v >= 0
                 else -math.floor(-v * p10 + 0.5)) / p10
            )
        return pa.table({
            group_col: t[group_col].take(pa.array(out_i)),
            "n": pa.array(out_n, pa.int64()),
            "rho": pa.array(out_rho, pa.float64()),
        })

    return bucket_exchange(ds, [group_col], local, prepare=prep)
