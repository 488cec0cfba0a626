"""HyperLogLog sketch + approx uniqueness + semi/anti join + sliding window."""

import numpy as np
import pandas as pd
import pytest

from record_matcher_ray.functions.sketches import HyperLogLog


def test_hll_accuracy_and_merge():
    h = HyperLogLog(p=12)
    h.add_strings([f"v{i}" for i in range(50_000)])
    est = h.cardinality()
    assert abs(est - 50_000) / 50_000 < 0.05  # ~3 sigma at 1.6% stderr

    # mergeability: two halves merged == union
    a, b = HyperLogLog(12), HyperLogLog(12)
    a.add_strings([f"v{i}" for i in range(0, 30_000)])
    b.add_strings([f"v{i}" for i in range(20_000, 50_000)])
    merged = a.merge(b)
    assert abs(merged.cardinality() - 50_000) / 50_000 < 0.05

    # serialization roundtrip
    back = HyperLogLog.from_bytes(merged.to_bytes(), 12)
    assert back.cardinality() == merged.cardinality()


def test_hll_small_range():
    h = HyperLogLog(12)
    h.add_strings(["a", "b", "c", "a"])
    assert abs(h.cardinality() - 3) < 0.5


def test_approx_distinct_dataset_grouped(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import approx_distinct

    rng = np.random.RandomState(1)
    n = 60_000
    df = pd.DataFrame(
        {
            "v": rng.randint(0, 8_000, size=n).astype(np.int64),
            "g": rng.choice(["a", "b", "c"], size=n),
        }
    )
    ds = rd.from_pandas(df).repartition(8)  # force multi-block merge
    out = approx_distinct(ds, "v", group_col="g", p=12)
    assert list(out["grp"]) == ["a", "b", "c"]
    for g in ["a", "b", "c"]:
        exact = df.loc[df["g"] == g, "v"].nunique()
        est = float(out.loc[out["grp"] == g, "approx_n"].iloc[0])
        assert abs(est - exact) / exact < 0.06, (g, est, exact)
    # global path + string column path
    glob = approx_distinct(ds, "v", p=12)
    assert abs(float(glob["approx_n"].iloc[0]) - df["v"].nunique()) < 0.06 * n
    sds = rd.from_pandas(pd.DataFrame({"s": [f"u{i}" for i in range(20_000)]}))
    sout = approx_distinct(sds.repartition(4), "s", p=12)
    assert abs(float(sout["approx_n"].iloc[0]) - 20_000) / 20_000 < 0.06


def test_approx_uniqueness_close_to_exact(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines import table_ops

    rng = np.random.RandomState(0)
    df = pd.DataFrame(
        {
            "hi": [f"u{i}" for i in range(20_000)],  # all distinct
            "lo": rng.choice([f"g{i}" for i in range(50)], size=20_000),
        }
    )
    ds = rd.from_pandas(df)
    exact = table_ops.uniqueness(ds, ["hi", "lo"])
    approx = table_ops.approx_uniqueness(ds, ["hi", "lo"])
    assert approx["hi"] == pytest.approx(exact["hi"], rel=0.05)
    assert approx["lo"] == pytest.approx(exact["lo"], rel=0.05)


def test_semi_and_anti_join(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import semi_join

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4, 5], "v": list("abcde")}))
    keys = rd.from_pandas(pd.DataFrame({"kk": [2, 4, 9]}))
    semi = semi_join(ds, keys, on="k", key_col="kk").to_pandas()
    assert sorted(semi["k"]) == [2, 4]
    anti = semi_join(ds, keys, on="k", key_col="kk", anti=True).to_pandas()
    assert sorted(anti["k"]) == [1, 3, 5]


def test_sliding_window_covers_each_event_twice(ray_session):
    from record_matcher_ray.pipelines.relational import (
        events_sliding_window,
        events_tumbling_window,
    )

    sf = "/root/testdata/sf0.001"
    sliding = events_sliding_window(sf)  # W=3600, S=1800 → 2 windows/event
    tumbling = events_tumbling_window(sf)
    assert sliding["n_events"].sum() == 2 * tumbling["n_events"].sum()


def test_count_min_overcounts_bounded_and_invariant(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import cm_estimate, count_min

    rng = np.random.RandomState(2)
    vals = rng.zipf(1.5, size=30_000).astype(np.int64)  # skewed freqs
    vals = vals[vals < 10_000]
    df = pd.DataFrame({"v": vals})
    c1 = count_min(rd.from_pandas(df), "v", width=512, depth=4, seed=0)
    c2 = count_min(
        rd.from_pandas(df).repartition(9), "v", width=512, depth=4, seed=0
    )
    assert np.array_equal(c1, c2)  # exact integer merge → invariant

    keys, true = np.unique(vals, return_counts=True)
    est = cm_estimate(c1, keys, seed=0)
    assert (est >= true).all()  # CM never under-counts
    # expected overshoot per row ~ n/width; with min over 4 rows the
    # heavy keys should be close
    heavy = true > 100
    assert ((est[heavy] - true[heavy]) < len(vals) / 64).all()


def test_empty_input_edges(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import approx_distinct, count_min
    from record_matcher_ray.pipelines.table_ops import filter_by_quantile

    empty = rd.from_pandas(
        pd.DataFrame({"v": pd.Series([], dtype=np.int64),
                      "g": pd.Series([], dtype=object)})
    )
    ad = approx_distinct(empty, "v", group_col="g")
    assert list(ad.columns) == ["grp", "approx_n"] and len(ad) == 0
    cm = count_min(empty, "v", width=64, depth=2)
    assert cm.shape == (2, 64) and cm.sum() == 0
    fq = filter_by_quantile(empty, "v", 0.1, 0.9).to_pandas()
    assert len(fq) == 0


def test_approx_quantiles_accuracy_and_invariance(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import approx_quantiles

    rng = np.random.RandomState(5)
    vals = np.concatenate([rng.lognormal(3, 1, 20_000), [0.0, 1e4]])
    df = pd.DataFrame({"v": vals})
    qs = (0.1, 0.5, 0.9, 0.99)

    outs = []
    for parts in (1, 13):
        out = approx_quantiles(
            rd.from_pandas(df).repartition(parts), "v", qs=qs, n_bins=4096
        )
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])  # partition-invariant

    bin_w = (vals.max() - vals.min()) / 4096
    for q, est in zip(outs[0]["q"], outs[0]["est"]):
        exact = np.quantile(vals, q)
        assert abs(est - exact) <= bin_w + 1e-9, (q, est, exact)


def test_approx_quantiles_edges(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import approx_quantiles

    const = approx_quantiles(
        rd.from_pandas(pd.DataFrame({"v": [7.5] * 100})), "v", qs=(0.5,)
    )
    assert list(const["est"]) == [7.5]

    empty = approx_quantiles(
        rd.from_pandas(pd.DataFrame({"v": pd.array([None, None],
                                                   dtype="Float64")})),
        "v", qs=(0.5,),
    )
    assert np.isnan(empty["est"]).all()

    with pytest.raises(ValueError):
        approx_quantiles(
            rd.from_pandas(pd.DataFrame({"v": [1.0]})), "v", qs=(1.5,)
        )


def test_linear_fit_matches_closed_form_and_invariance(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import linear_fit

    rng = np.random.RandomState(23)
    x = rng.uniform(1, 50, size=8_000)
    y = 3.5 * x + 10 + rng.standard_normal(8_000)
    df = pd.DataFrame({"x": x, "y": y})

    outs = [
        linear_fit(rd.from_pandas(df).repartition(p), "x", "y")
        for p in (1, 9)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])  # partition-invariant

    # against numpy lstsq on the SAME quantized values (cents scale)
    qx = np.floor(x * 100.0 + 0.5)
    qy = np.floor(y * 100.0 + 0.5)
    slope, intercept = np.polyfit(qx, qy, 1)
    assert outs[0]["slope"].iloc[0] == pytest.approx(slope, rel=1e-6)
    assert outs[0]["intercept"].iloc[0] == pytest.approx(intercept, rel=1e-4)
    assert outs[0]["r2"].iloc[0] > 0.99
    assert int(outs[0]["n"].iloc[0]) == 8_000


def test_linear_fit_edges(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import linear_fit

    # constant x → undefined slope
    const = linear_fit(
        rd.from_pandas(pd.DataFrame({"x": [2.0] * 10,
                                     "y": np.arange(10.0)})), "x", "y"
    )
    assert np.isnan(const["slope"].iloc[0])

    # out-of-range values refuse loudly instead of overflowing
    with pytest.raises(Exception):
        linear_fit(
            rd.from_pandas(pd.DataFrame({"x": [1e9], "y": [1.0]})),
            "x", "y",
        ).to_string()


def test_top_component_matches_numpy_and_invariance(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import top_component

    rng = np.random.RandomState(71)
    d, n = 16, 800
    # planted dominant direction so power iteration converges fast
    u = rng.randn(d)
    u /= np.linalg.norm(u)
    V = 0.2 * rng.randn(n, d) + np.outer(rng.randn(n) * 3.0, u)
    df = pd.DataFrame({"embedding": [row.astype(np.float32).tolist()
                                     for row in V]})

    outs = []
    for p in (1, 4, 13):
        t = top_component(
            rd.from_pandas(df).repartition(p), scale_bits=12, iters=8
        ).to_pandas()
        outs.append(t)
    # exact partition invariance (integer recursion, pinned readout)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])

    got = outs[0]["loading"].to_numpy()
    # numpy ground truth: top eigvec of the uncentered Gram matrix
    G = V.T @ V
    w, vecs = np.linalg.eigh(G)
    top = vecs[:, -1]
    cos = abs(float(np.dot(got, top)))  # both unit-norm up to rounding
    assert cos > 0.999
    eig = outs[0]["eigval"].iloc[0]
    assert eig == pytest.approx(w[-1], rel=0.01)


def test_top_component_guards(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import top_component

    big = pd.DataFrame({"embedding": [[1e7, 0.0], [0.0, 1e7]]})
    with pytest.raises(Exception):  # Ray wraps the worker ValueError
        top_component(rd.from_pandas(big), scale_bits=12)

    ragged = pd.DataFrame({"embedding": [[1.0, 2.0], [1.0]]})
    with pytest.raises(Exception):
        top_component(rd.from_pandas(ragged), scale_bits=12)


def test_zscore_by_group_matches_numpy(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import zscore_by_group

    rng = np.random.RandomState(83)
    n = 3_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "g": rng.choice(["a", "b", "c"], size=n),
         "v": rng.uniform(-50, 50, size=n)}
    )
    # a constant group and a singleton group → NULL z
    df.loc[df.index[:5], ["g", "v"]] = ["const", 7.0]
    df = pd.concat(
        [df, pd.DataFrame({"event_id": [n], "g": ["solo"], "v": [1.0]})],
        ignore_index=True,
    )
    out = (
        zscore_by_group(rd.from_pandas(df).repartition(7), "g", "v",
                        "event_id")
        .to_pandas().set_index("event_id")
    )
    c = np.floor(df["v"].to_numpy() * 100.0 + 0.5)
    for g in ["a", "b", "c"]:
        m = (df["g"] == g).to_numpy()
        mu, sd = c[m].mean(), c[m].std()
        want = (c[m] - mu) / sd
        got = out.loc[df.loc[m, "event_id"], "z"].to_numpy()
        np.testing.assert_allclose(got, np.round(want, 6), atol=2e-6)
    assert out.loc[df.loc[(df["g"] == "const"), "event_id"], "z"
                   ].isna().all()
    assert np.isnan(out.loc[n, "z"])

    # partition invariance: identical output across block layouts
    out2 = (
        zscore_by_group(rd.from_pandas(df).repartition(2), "g", "v",
                        "event_id")
        .to_pandas().set_index("event_id").sort_index()
    )
    pd.testing.assert_frame_equal(out.sort_index(), out2)


def test_profile_table(ray_session):
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(97)
    n = 2_000
    t = pa.table(
        {"k": pa.array(rng.randint(0, 500, size=n), pa.int64()),
         "s": pa.array(
             np.where(rng.rand(n) < 0.1, None,
                      rng.choice(["x", "y", "z"], size=n)),
             pa.string(), from_pandas=True),
         "f": pa.array(rng.rand(n), pa.float64())}
    )
    from record_matcher_ray.pipelines.sketches import profile_table

    out = profile_table(rd.from_arrow(t).repartition(5)).set_index(
        "col_name")
    assert out.loc["k", "method"] == "hll"
    assert out.loc["s", "method"] == "exact"
    assert out.loc["f", "method"] == "none"
    assert (out["n"] == n).all()
    assert out.loc["s", "n_null"] == t["s"].null_count
    # exact distinct: 3 values + '' for nulls
    assert out.loc["s", "n_distinct"] == 4.0
    # HLL within 5% of truth at p=12
    true_k = len(np.unique(t["k"].to_numpy()))
    assert abs(out.loc["k", "n_distinct"] - true_k) / true_k < 0.05
    assert np.isnan(out.loc["f", "n_distinct"])

    # partition invariance of the merged estimate
    out2 = profile_table(rd.from_arrow(t).repartition(2)).set_index(
        "col_name")
    assert out.loc["k", "n_distinct"] == out2.loc["k", "n_distinct"]


class TestKMV:
    def test_exact_below_k_and_estimate_above(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.sketches import kmv_distinct

        # distinct < k → exact count, no estimator involved
        rows = [{"v": i % 100} for i in range(1000)]
        out = kmv_distinct(ray.data.from_items(rows), "v", k=256)
        assert out["n_kept"].iloc[0] == 100
        assert out["est_distinct"].iloc[0] == 100.0

        # distinct >> k → estimator within ~12% (k=256 → σ≈1/√k≈6%)
        rows = [{"v": i} for i in range(5000)]
        out = kmv_distinct(ray.data.from_items(rows), "v", k=256)
        est = out["est_distinct"].iloc[0]
        assert abs(est - 5000) / 5000 < 0.12

    def test_partition_invariant(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.sketches import kmv_distinct

        rows = [{"v": f"user-{i % 777}"} for i in range(3000)]
        outs = [
            kmv_distinct(
                ray.data.from_items(rows, override_num_blocks=b), "v", k=64
            )
            for b in (1, 16)
        ]
        assert outs[0].equals(outs[1])

    def test_empty(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.sketches import kmv_distinct

        empty = ray.data.from_items([{"v": 1}]).filter(lambda r: False)
        out = kmv_distinct(empty, "v", k=8)
        assert out["n_kept"].iloc[0] == 0
        assert out["est_distinct"].iloc[0] == 0.0


def test_psi_numeric_exact(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import psi_numeric

    rng = np.random.RandomState(12)
    n = 3000
    grp = rng.choice(["a", "b"], n)
    x = np.where(grp == "a", rng.uniform(0, 100, n),
                 rng.uniform(30, 130, n))  # shifted distribution
    x[5] = -7.0    # underflow bin
    x[6] = 999.0   # overflow bin
    df = pd.DataFrame({"g": grp, "v": x})
    ds = rd.from_pandas(df).repartition(5)
    out = psi_numeric(ds, "v", "g", lo=0.0, hi=100.0, n_bins=10
                      ).set_index("grp")

    B = 12
    raw = np.floor((x - 0.0) * 10.0 / 100.0)
    b = (np.clip(raw, -1, 10) + 1).astype(int)
    corpus = np.bincount(b, minlength=B)
    for gname in ["a", "b"]:
        m = grp == gname
        cb = np.bincount(b[m], minlength=B)
        n_g = int(m.sum())
        s = 0.0
        for k in range(B):
            p = float(cb[k] + 1) / float(n_g + B)
            q = float(corpus[k] + 1) / float(n + B)
            s = s + (p - q) * math.log(p / q)
        want = math.floor(s * 1e6 + 0.5) / 1e6 if s >= 0 else \
            -math.floor(-s * 1e6 + 0.5) / 1e6
        assert out.loc[gname, "psi"] == want
        assert out.loc[gname, "n"] == n_g
    # a shifted group must register positive drift
    assert out.loc["b", "psi"] > 0.1


def test_benford_digit_test(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import benford_digit_test

    rng = np.random.RandomState(11)
    # group "b": log-uniform amounts (Benford-ish, low chi2);
    # group "u": constant leading digit 5 (maximal deviation)
    benf = np.exp(rng.uniform(0, np.log(10**6), size=4000))
    unif = rng.uniform(5000, 5999, size=4000)
    df = pd.DataFrame(
        {"g": ["b"] * 4000 + ["u"] * 4000,
         "v": np.concatenate([benf, unif])}
    )
    df.loc[0, "v"] = -3.0   # non-positive drops
    df.loc[1, "v"] = np.nan
    out = (
        benford_digit_test(rd.from_pandas(df).repartition(7), "v", "g")
        .set_index("grp")
    )
    # exact mirror
    ln10 = math.log(10.0)
    for grp in ("b", "u"):
        sub = df[(df["g"] == grp) & df["v"].notna()]
        cents = np.floor(sub["v"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        cents = cents[cents > 0]
        digits = np.array([int(str(c)[0]) for c in cents])
        n = len(digits)
        s = 0.0
        for d in range(1, 10):
            p = math.log(1.0 + 1.0 / float(d)) / ln10
            e = float(n) * p
            c = float((digits == d).sum())
            s = s + (c - e) * (c - e) / e
        want = math.floor(s * 1e6 + 0.5) / 1e6
        assert out.loc[grp, "chi2"] == want
        assert out.loc[grp, "n"] == n
    assert out.loc[u"u", "chi2"] > 100 * out.loc["b", "chi2"]


def test_benford_empty(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import benford_digit_test

    df = pd.DataFrame({"g": ["a"], "v": [-1.0]})  # nothing positive
    out = benford_digit_test(rd.from_pandas(df), "v", "g")
    assert len(out) == 0


def test_kmv_set_ops_exact_small(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import kmv_set_ops

    a = pd.DataFrame({"v": np.arange(0, 60, dtype=np.int64)})
    b = pd.DataFrame({"v": np.arange(40, 100, dtype=np.int64)})
    out = kmv_set_ops(
        rd.from_pandas(a).repartition(4), rd.from_pandas(b).repartition(3),
        "v", "v", k=256,
    )
    # k > all distincts -> everything exact
    assert out["n_a"].iloc[0] == 60 and out["n_b"].iloc[0] == 60
    assert out["n_union"].iloc[0] == 100
    assert out["overlap"].iloc[0] == 20
    assert out["est_union"].iloc[0] == 100.0
    assert out["jaccard"].iloc[0] == 0.2
    assert out["est_intersection"].iloc[0] == 20.0


def test_kmv_set_ops_estimates(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sketches import kmv_set_ops

    rng = np.random.RandomState(5)
    a = pd.DataFrame({"v": rng.permutation(20_000)[:10_000].astype(np.int64)})
    b = pd.DataFrame({"v": (np.arange(5_000, 15_000)).astype(np.int64)})
    out = kmv_set_ops(rd.from_pandas(a), rd.from_pandas(b), "v", "v",
                      k=512)
    # truth: |A|=10k |B|=10k, overlap = |A ∩ [5000,15000)| ~ 5k
    union_true = len(set(a["v"]) | set(b["v"]))
    inter_true = len(set(a["v"]) & set(b["v"]))
    assert abs(out["est_union"].iloc[0] - union_true) / union_true < 0.15
    assert abs(out["est_intersection"].iloc[0] - inter_true) \
        / max(inter_true, 1) < 0.25

    empty = a.iloc[:0]
    z = kmv_set_ops(rd.from_pandas(empty), rd.from_pandas(empty),
                    "v", "v")
    assert z["n_union"].iloc[0] == 0 and z["est_union"].iloc[0] == 0.0


def test_welch_t_by_group(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import welch_t_by_group

    rng = np.random.RandomState(23)
    n = 4_000
    df = pd.DataFrame(
        {"grp": rng.choice(["g1", "g2"], size=n),
         "lab": rng.choice(["A", "B", "C"], size=n),
         "val": np.round(rng.normal(100, 15, size=n), 2)}
    )
    # shift B in g2
    df.loc[(df.grp == "g2") & (df.lab == "B"), "val"] += 25.0
    out = welch_t_by_group(
        rd.from_pandas(df).repartition(7), "grp", "lab", "val", "A", "B"
    ).set_index("grp")

    for gv, sub in df[df.lab.isin(["A", "B"])].groupby("grp"):
        a = np.floor(sub[sub.lab == "A"]["val"].to_numpy() * 100 + 0.5)
        b = np.floor(sub[sub.lab == "B"]["val"].to_numpy() * 100 + 0.5)
        # exact-moment mirror of the pinned chain
        na, nb = float(len(a)), float(len(b))
        sa, sb = float(int(a.sum())), float(int(b.sum()))
        qa = float(int((a * a).sum()))
        qb = float(int((b * b).sum()))
        ma, mb = sa / na, sb / nb
        va = (qa - sa * sa / na) / (na - 1.0)
        vb = (qb - sb * sb / nb) / (nb - 1.0)
        se2 = va / na + vb / nb
        t = (ma - mb) / math.sqrt(se2)
        r6 = lambda v: (math.floor(v * 1e6 + 0.5) if v >= 0
                        else -math.floor(-v * 1e6 + 0.5)) / 1e6
        assert out.loc[gv, "t_stat"] == r6(t)
        assert out.loc[gv, "n_a"] == int(na)
    # the shifted group must be strongly significant, the other not
    assert out.loc["g2", "t_stat"] < -10
    assert abs(out.loc["g1", "t_stat"]) < 4


def test_welch_skips_thin_groups(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import welch_t_by_group

    df = pd.DataFrame(
        {"grp": ["x", "x", "x", "y"],
         "lab": ["A", "A", "B", "A"],  # x lacks 2 B rows; y lacks B
         "val": [1.0, 2.0, 3.0, 4.0]}
    )
    out = welch_t_by_group(rd.from_pandas(df), "grp", "lab", "val",
                           "A", "B")
    assert len(out) == 0

    empty = df.iloc[:0]
    out2 = welch_t_by_group(rd.from_pandas(empty), "grp", "lab", "val",
                            "A", "B")
    assert len(out2) == 0


def test_gini_by_group(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import gini_by_group

    rng = np.random.RandomState(41)
    df = pd.DataFrame(
        {"grp": np.repeat(["eq", "skew"], 500),
         "val": np.concatenate([
             np.full(500, 10.0),                 # perfect equality
             rng.pareto(1.5, size=500) * 10.0,   # heavy skew
         ])}
    )
    out = (
        gini_by_group(rd.from_pandas(df).repartition(6), "grp", "val")
        .to_pandas().set_index("grp")
    )
    # mirror: sorted-rank formula on cents
    for g, sub in df.groupby("grp"):
        c = np.floor(sub["val"].to_numpy() * 100 + 0.5).astype(np.int64)
        c.sort()
        s0 = int(c.sum())
        s1 = int((np.arange(1, len(c) + 1) * c).sum())
        nD = float(len(c))
        v = 2.0 * float(s1) / (nD * float(s0)) - (nD + 1.0) / nD
        want = (math.floor(v * 1e6 + 0.5) if v >= 0
                else -math.floor(-v * 1e6 + 0.5)) / 1e6
        assert out.loc[g, "gini"] == want
        assert out.loc[g, "n"] == len(c)
    assert out.loc["eq", "gini"] == 0.0
    assert out.loc["skew", "gini"] > 0.4

    empty = df.iloc[:0]
    z = gini_by_group(rd.from_pandas(empty), "grp", "val").to_pandas()
    assert len(z) == 0


def test_exact_sum_budget():
    # ADVICE r3: rank-weighted gini elements (i*c) can exceed the fixed
    # 1024-chunk int64 invariant; the budgeted variant must stay exact
    from record_matcher_ray.pipelines.stats import (
        _exact_sum, _exact_sum_budget,
    )

    rng = np.random.default_rng(3)
    big = rng.integers(2**55, 2**56, size=5000, dtype=np.int64)
    want = sum(int(v) for v in big)
    assert _exact_sum_budget(big, 2**56) == want
    # the fixed-chunk variant DOES wrap on these magnitudes
    assert _exact_sum(big) != want
    # small-magnitude arrays agree with the fixed-chunk fast path
    small = rng.integers(-10**6, 10**6, size=4096, dtype=np.int64)
    assert _exact_sum_budget(small, 10**6) == _exact_sum(small)
    assert _exact_sum_budget(small, 0) == _exact_sum(small)


def test_theil_by_group(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import theil_by_group

    rng = np.random.RandomState(47)
    df = pd.DataFrame(
        {"grp": np.repeat(["eq", "skew"], 400),
         "val": np.concatenate([
             np.full(400, 25.0),
             rng.pareto(1.2, size=400) * 10.0 + 0.01,
         ])}
    )
    out = (
        theil_by_group(rd.from_pandas(df).repartition(5), "grp", "val")
        .to_pandas().set_index("grp")
    )
    # mirror: sorted ascending-value fold of the pinned term chain
    for g, sub in df.groupby("grp"):
        c = np.sort(np.floor(sub["val"].to_numpy() * 100 + 0.5)
                    .astype(np.int64))
        S = float(int(c.sum()))
        nD = float(len(c))
        th = 0.0
        for x in c:
            if x > 0:
                xD = float(x)
                th = th + xD / S * math.log(xD * nD / S)
        want = (math.floor(th * 1e6 + 0.5) if th >= 0
                else -math.floor(-th * 1e6 + 0.5)) / 1e6
        assert out.loc[g, "theil"] == want
    assert out.loc["eq", "theil"] == 0.0
    assert out.loc["skew", "theil"] > 0.3

    empty = df.iloc[:0]
    z = theil_by_group(rd.from_pandas(empty), "grp", "val").to_pandas()
    assert len(z) == 0


def test_ks_test_two_sample(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import ks_test_two_sample

    rng = np.random.RandomState(29)
    na, nb = 1200, 900
    df = pd.DataFrame({
        "lab": ["A"] * na + ["B"] * nb + ["other", "other"],
        "val": np.concatenate([
            np.round(rng.normal(10, 2, na), 2),
            np.round(rng.normal(11, 2.5, nb), 2),
            [0.0, 0.0],
        ]),
    })
    out = ks_test_two_sample(
        rd.from_pandas(df).repartition(5), "lab", "val", "A", "B"
    )
    # mirror: exact integer cdf walk
    qa = np.sort(np.floor(df[df.lab == "A"]["val"].to_numpy() * 100 + 0.5)
                 .astype(np.int64))
    qb = np.sort(np.floor(df[df.lab == "B"]["val"].to_numpy() * 100 + 0.5)
                 .astype(np.int64))
    allq = np.unique(np.concatenate([qa, qb]))
    num = max(
        abs(int(np.searchsorted(qa, v, "right")) * nb
            - int(np.searchsorted(qb, v, "right")) * na)
        for v in allq
    )
    import math

    want = math.floor(num / (na * nb) * 1e6 + 0.5) / 1e6
    assert out["d"].iloc[0] == want
    assert out["n_a"].iloc[0] == na and out["n_b"].iloc[0] == nb
    # identical distributions -> d == 0
    same = pd.DataFrame({"lab": ["A", "B"] * 50, "val": [1.0, 1.0] * 50})
    z = ks_test_two_sample(rd.from_pandas(same), "lab", "val", "A", "B")
    assert z["d"].iloc[0] == 0.0
    # one empty side -> NULL
    z2 = ks_test_two_sample(
        rd.from_pandas(df[df.lab == "A"]), "lab", "val", "A", "B")
    assert z2["d"].iloc[0] is None or pd.isna(z2["d"].iloc[0])


def test_chi_square_independence(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import chi_square_independence

    rng = np.random.RandomState(37)
    n = 3000
    a = rng.choice(["x", "y", "z"], n, p=[0.5, 0.3, 0.2])
    # b depends on a for some rows -> nonzero chi2
    b = np.where(rng.rand(n) < 0.4, a, rng.choice(["x", "y", "z"], n))
    df = pd.DataFrame({"a": a, "b": b})
    out = chi_square_independence(rd.from_pandas(df).repartition(6),
                                  "a", "b")
    # classic (O-E)^2/E mirror
    ct = pd.crosstab(df["a"], df["b"])
    exp = np.outer(ct.sum(1), ct.sum(0)) / n
    want = ((ct.to_numpy() - exp) ** 2 / exp).sum()
    assert abs(out["chi2"].iloc[0] - want) < 1e-4
    assert out["dof"].iloc[0] == 4
    assert out["n"].iloc[0] == n
    import math as _math

    assert abs(out["cramers_v"].iloc[0]
               - _math.sqrt(want / (n * 2))) < 1e-5
    assert 0.0 <= out["cramers_v"].iloc[0] <= 1.0
    # independence-by-construction scores near zero per cell count
    ind = pd.DataFrame({"a": ["p", "q"] * 500, "b": ["u", "v"] * 500})
    z = chi_square_independence(rd.from_pandas(ind), "a", "b")
    assert z["chi2"].iloc[0] == 1000.0  # perfectly dependent 2x2 actually
    emp = chi_square_independence(rd.from_pandas(df.iloc[:0]), "a", "b")
    assert emp["n"].iloc[0] == 0
    assert emp["n_rows"].iloc[0] == 0


def test_chi_square_cells(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import chi_square_cells

    rng = np.random.RandomState(61)
    n = 2000
    a = rng.choice(["x", "y"], n)
    b = np.where(rng.rand(n) < 0.3, a, rng.choice(["u", "v"], n))
    df = pd.DataFrame({"a": a, "b": b})
    out = chi_square_cells(rd.from_pandas(df).repartition(4), "a", "b")
    ct = pd.crosstab(df["a"], df["b"])
    assert len(out) == ct.shape[0] * ct.shape[1]
    for _, r in out.iterrows():
        o = ct.loc[r["a"], r["b"]] if r["b"] in ct.columns else 0
        e = ct.loc[r["a"]].sum() * ct[r["b"]].sum() / n
        assert r["observed"] == o
        assert abs(r["expected"] - e) < 1e-5
        assert abs(r["std_residual"] - (o - e) / math.sqrt(e)) < 1e-5
    # residual sanity: sum of squared residuals == chi2
    from record_matcher_ray.pipelines.stats import chi_square_independence

    chi = chi_square_independence(rd.from_pandas(df), "a", "b")
    ssr = (out["std_residual"] ** 2).sum()
    assert abs(ssr - chi["chi2"].iloc[0]) < 1e-3


def test_chi_square_cross_product_guard(ray_session):
    """ADVICE r4: sparse observed cells vs an astronomically larger
    n_rows × n_cols cross product (zero cells included). The χ² closed
    form never enumerates zero cells, so it answers exactly; the per-cell
    drill-down still refuses, since its OUTPUT is the cross product."""
    import pytest

    import ray.data as rd

    from record_matcher_ray.pipelines.stats import (
        chi_square_cells,
        chi_square_independence,
    )

    # 200 × 200 distinct marginals but only 200 observed (diagonal)
    # cells: passes max_cells=500 on observed cells, 40k cross product
    ids = np.arange(200)
    df = pd.DataFrame({"a": [f"a{i}" for i in ids],
                       "b": [f"b{i}" for i in ids]})
    out = chi_square_independence(rd.from_pandas(df), "a", "b")
    assert out.iloc[0].to_dict() == {
        "n": 200, "n_rows": 200, "n_cols": 200, "dof": 39601,
        "chi2": 39800.0, "cramers_v": 1.0,
    }
    with pytest.raises(ValueError, match="cross product"):
        chi_square_cells(rd.from_pandas(df), "a", "b", max_cells=500)


def test_hhi_by_group(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import hhi_by_group

    df = pd.DataFrame({
        "g": ["a"] * 8 + ["b"] * 4,
        "m": ["x"] * 8 + ["p", "q", "r", "s"],  # a: monopoly; b: balanced
    })
    out = hhi_by_group(rd.from_pandas(df).repartition(3), "g", "m"
                       ).to_pandas().set_index("group")
    assert out.loc["a", "hhi"] == 1.0
    assert out.loc["b", "hhi"] == 0.25
    assert out.loc["a", "n"] == 8 and out.loc["b", "n_members"] == 4
    z = hhi_by_group(rd.from_pandas(df.iloc[:0]), "g", "m").to_pandas()
    assert len(z) == 0


def test_spearman_by_group(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.stats import spearman_by_group

    rng = np.random.RandomState(71)
    n = 600
    x = np.round(rng.uniform(0, 50, n), 1)
    df = pd.DataFrame({
        "grp": np.repeat(["mono", "noisy", "anti"], n // 3),
        "x": x[: n],
        "y": np.concatenate([
            np.round(x[: n // 3] ** 2 / 10, 1),           # monotone
            np.round(rng.uniform(0, 50, n // 3), 1),       # independent
            np.round(-x[2 * n // 3:] + 60, 1),             # inverse
        ]),
    })
    out = (spearman_by_group(rd.from_pandas(df).repartition(5),
                             "grp", "x", "y")
           .to_pandas().set_index("grp"))

    def mirror(sub):
        qx = np.floor(sub["x"].to_numpy() * 100 + 0.5)
        qy = np.floor(sub["y"].to_numpy() * 100 + 0.5)
        rx = pd.Series(qx).rank(method="average").to_numpy()
        ry = pd.Series(qy).rank(method="average").to_numpy()
        return np.corrcoef(rx, ry)[0, 1]

    for g, sub in df.groupby("grp"):
        assert abs(out.loc[g, "rho"] - mirror(sub)) < 1e-5, g
    assert out.loc["mono", "rho"] > 0.99
    assert out.loc["anti", "rho"] < -0.99
    assert abs(out.loc["noisy", "rho"]) < 0.2
    # constant column -> NULL rho
    const = pd.DataFrame({"grp": ["c"] * 10, "x": [1.0] * 10,
                          "y": np.arange(10.0)})
    z = spearman_by_group(rd.from_pandas(const), "grp", "x", "y"
                          ).to_pandas()
    assert pd.isna(z["rho"].iloc[0])
