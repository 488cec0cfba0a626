"""Deterministic sampling family: uniform hash sample, stratified caps,
weighted source mixing."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from record_matcher_ray.pipelines.sampling import (
    hash_sample,
    sample_hash,
    stratified_cap,
    weighted_mix,
)


def _table(n=20_000, seed=5):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "id": np.arange(n, dtype=np.int64),
            "grp": rng.choice(["a", "b", "c", "d"], n, p=[0.6, 0.25, 0.1, 0.05]),
            "src": rng.choice(["s0", "s1", "s2"], n),
        }
    )


class TestHashSample:
    def test_rate_and_determinism(self, ray_session):
        ds = ray.data.from_arrow(_table())
        out1 = hash_sample(ds, "id", 0.1, seed=1).to_pandas()
        out2 = hash_sample(ds, "id", 0.1, seed=1).to_pandas()
        assert out1["id"].tolist() == out2["id"].tolist()
        # binomial(20000, .1): expect 2000 ± ~5 sigma(=42)
        assert 1780 <= len(out1) <= 2220
        assert list(out1.columns) == ["id", "grp", "src"]

    def test_monotone_rates(self, ray_session):
        """rate 0.2 sample is a SUPERSET of rate 0.1 (same seed) — the
        property that makes mixture re-weighting incremental."""
        ds = ray.data.from_arrow(_table())
        s1 = set(hash_sample(ds, "id", 0.1, seed=2).to_pandas()["id"])
        s2 = set(hash_sample(ds, "id", 0.2, seed=2).to_pandas()["id"])
        assert s1 <= s2

    def test_extreme_rates(self, ray_session):
        ds = ray.data.from_arrow(_table(500))
        assert hash_sample(ds, "id", 0.0).count() == 0
        assert hash_sample(ds, "id", 1.0).count() == 500
        with pytest.raises(ValueError):
            hash_sample(ds, "id", 1.5)

    def test_seed_changes_sample(self, ray_session):
        ds = ray.data.from_arrow(_table())
        a = set(hash_sample(ds, "id", 0.1, seed=1).to_pandas()["id"])
        b = set(hash_sample(ds, "id", 0.1, seed=2).to_pandas()["id"])
        # overlap of two independent 10% samples ≈ 1% of rows, not 10%
        assert len(a & b) < len(a) // 2


class TestStratifiedCap:
    def test_cap_respected_and_deterministic(self, ray_session):
        ds = ray.data.from_arrow(_table())
        out = stratified_cap(ds, "grp", 50, "id", seed=3).to_pandas()
        counts = out.groupby("grp")["id"].count()
        assert (counts <= 50).all()
        assert counts["a"] == 50  # majority group hits the cap
        out2 = stratified_cap(ds, "grp", 50, "id", seed=3).to_pandas()
        assert sorted(out["id"]) == sorted(out2["id"])

    def test_small_groups_kept_whole(self, ray_session):
        t = pa.table({"id": [1, 2, 3, 4], "grp": ["x", "x", "y", "z"]})
        out = stratified_cap(ray.data.from_arrow(t), "grp", 10, "id").to_pandas()
        assert len(out) == 4

    def test_hash_order_selection(self, ray_session):
        """Selection = cap smallest by (sample_hash, id), per group."""
        t = _table(2_000)
        out = stratified_cap(
            ray.data.from_arrow(t), "grp", 5, "id", seed=9
        ).to_pandas()
        ids = t["id"].to_numpy()
        grp = np.asarray(t["grp"])
        h = sample_hash(ids, 9)
        for g in "abcd":
            m = grp == g
            order = np.lexsort((ids[m], h[m]))
            expect = set(ids[m][order][:5])
            assert set(out[out["grp"] == g]["id"]) == expect

    def test_cap_zero(self, ray_session):
        ds = ray.data.from_arrow(_table(100))
        assert stratified_cap(ds, "grp", 0, "id").count() == 0


class TestWeightedMix:
    def test_per_source_rates(self, ray_session):
        ds = ray.data.from_arrow(_table(30_000))
        out = weighted_mix(
            ds, "src", {"s0": 1.0, "s1": 0.5}, "id", seed=4, default_rate=0.0
        ).to_pandas()
        n_by = out.groupby("src")["id"].count()
        total = (
            ray.data.from_arrow(_table(30_000)).to_pandas()
            .groupby("src")["id"].count()
        )
        assert n_by.get("s2", 0) == 0  # default 0.0 drops unlisted
        assert n_by["s0"] == total["s0"]  # rate 1.0 keeps all
        frac = n_by["s1"] / total["s1"]
        assert 0.45 < frac < 0.55

    def test_mix_is_hash_sample_per_source(self, ray_session):
        """weighted_mix ≡ hash_sample applied per source slice."""
        ds = ray.data.from_arrow(_table(5_000))
        mixed = weighted_mix(
            ds, "src", {"s0": 0.3}, "id", seed=6, default_rate=0.1
        ).to_pandas()
        df = _table(5_000).to_pandas()
        h = sample_hash(df["id"].to_numpy(), 6)
        two64 = 1 << 64
        thr = np.where(
            df["src"] == "s0",
            np.uint64(int(0.3 * two64)),
            np.uint64(int(0.1 * two64)),
        )
        expect = set(df["id"][h < thr])
        assert set(mixed["id"]) == expect

    def test_rate_validation(self, ray_session):
        ds = ray.data.from_arrow(_table(10))
        with pytest.raises(ValueError):
            weighted_mix(ds, "src", {"s0": -0.1}, "id")


class TestDeterministicShuffle:
    def test_order_is_partition_invariant_and_seeded(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.sampling import (
            deterministic_shuffle,
            sample_hash,
        )

        t = _table(3_000)
        a = deterministic_shuffle(
            ray.data.from_arrow(t), "id", seed=5
        ).to_pandas()
        b = deterministic_shuffle(
            ray.data.from_arrow(t).repartition(13), "id", seed=5
        ).to_pandas()
        assert list(a["id"]) == list(b["id"])  # partitioning-invariant

        # order == argsort of the sampling hash (ties by id)
        df = t.to_pandas()
        h = sample_hash(df["id"].to_numpy(), 5)
        expect = df["id"].to_numpy()[np.lexsort((df["id"].to_numpy(), h))]
        assert list(a["id"]) == list(expect)

        c = deterministic_shuffle(
            ray.data.from_arrow(t), "id", seed=6
        ).to_pandas()
        assert list(a["id"]) != list(c["id"])  # seed changes the epoch
        assert set(a["id"]) == set(c["id"])  # but it is a permutation


class TestLeakageSafeSplit:
    def test_duplicates_same_side_and_weights(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.dedup import tuple_representatives
        from record_matcher_ray.pipelines.sampling import leakage_safe_split

        import pandas as pd

        rng = np.random.RandomState(8)
        base = [f"text-{i}" for i in range(2_000)]
        texts = base + [base[i] for i in rng.randint(0, 2_000, size=1_000)]
        df = pd.DataFrame(
            {
                "doc_id": np.arange(len(texts), dtype=np.int64),
                "text": texts,
            }
        )
        reps = tuple_representatives(
            ray.data.from_pandas(df).repartition(5), ["text"], "doc_id"
        )
        out = leakage_safe_split(
            reps, {"train": 0.8, "val": 0.1, "test": 0.1}, key_col="rep",
            seed=11,
        ).to_pandas()

        merged = out.merge(df, on="doc_id")
        # every copy of a text gets exactly one split value
        assert (merged.groupby("text")["split"].nunique() == 1).all()
        frac = out["split"].value_counts(normalize=True)
        assert abs(frac["train"] - 0.8) < 0.05

        with pytest.raises(ValueError):
            leakage_safe_split(reps, {"a": -1.0}, key_col="rep")


def test_importance_sample_monotone_and_exact(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sampling import (
        importance_sample,
        sample_hash,
    )

    rng = np.random.RandomState(29)
    n = 4_000
    df = pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64),
         "w": rng.randint(0, 1200, size=n).astype(np.int64)}
    )
    ds = rd.from_pandas(df).repartition(6)
    kept = importance_sample(ds, "doc_id", "w", denom=800, seed=5
                             ).to_pandas()

    # exact integer predicate replay: h*denom < clamp(w)*2^64
    h = sample_hash(df["doc_id"].to_numpy(), 5)
    wc = np.clip(df["w"].to_numpy(), 0, 800)
    want = {i for i, (hv, wv) in enumerate(zip(h, wc))
            if int(hv) * 800 < int(wv) * (1 << 64)}
    assert set(kept["doc_id"]) == want
    # rows at/above the cap are always kept
    assert set(df.loc[df["w"] >= 800, "doc_id"]) <= set(kept["doc_id"])
    # larger denom keeps a subset (downweights everything below cap)
    kept2 = importance_sample(ds, "doc_id", "w", denom=1600, seed=5
                              ).to_pandas()
    below = set(df.loc[df["w"] < 800, "doc_id"])
    assert (set(kept2["doc_id"]) & below) <= (set(kept["doc_id"]) & below)

    with pytest.raises(ValueError):
        importance_sample(ds, "doc_id", "w", denom=0)


def test_weighted_topk_exact_and_shard_invariant(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sampling import weighted_topk

    rng = np.random.RandomState(9)
    n = 5000
    df = pd.DataFrame(
        {"doc_id": np.arange(n, dtype=np.int64),
         "w": rng.randint(0, 1000, n).astype(np.float64)}
    )
    df.loc[7, "w"] = np.nan          # dropped
    df.loc[8, "w"] = 0.0             # dropped
    df.loc[9, "w"] = -3.0            # dropped
    ds = rd.from_pandas(df).repartition(6)
    out = weighted_topk(ds, "doc_id", "w", 50, seed=2)

    # brute-force A-ES replay over the full table
    h = sample_hash(df["doc_id"].to_numpy(), 2)
    u = ((h >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    w = df["w"].to_numpy()
    ok = np.isfinite(w) & (w > 0)
    key = -np.log(u[ok]) / w[ok]
    ids = df["doc_id"].to_numpy()[ok]
    order = np.lexsort((ids, key))[:50]
    assert out["id"].tolist() == ids[order].tolist()
    np.testing.assert_array_equal(
        out["key"].to_numpy(),
        np.floor(key[order] * 1e9 + 0.5) / 1e9,
    )
    assert not {7, 8, 9} & set(out["id"])

    # re-sharding cannot change the winners (per-row pure keys)
    out2 = weighted_topk(rd.from_pandas(df).repartition(23),
                         "doc_id", "w", 50, seed=2)
    pd.testing.assert_frame_equal(out, out2)

    # k larger than the population returns everything kept
    small = rd.from_pandas(df.head(12))
    assert len(weighted_topk(small, "doc_id", "w", 100)) == 9

    with pytest.raises(ValueError):
        weighted_topk(ds, "doc_id", "w", 0)


def test_weighted_topk_empty(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.sampling import weighted_topk

    ds = rd.from_arrow(pa.table({"id": pa.array([], pa.int64()),
                                 "w": pa.array([], pa.float64())}))
    out = weighted_topk(ds, "id", "w", 5)
    assert len(out) == 0 and list(out.columns) == ["id", "w", "key"]


def test_pack_sequences_mirror(ray_session):
    """Next-fit packing == a per-bucket brute-force scan; bin token sums
    never exceed capacity; packing is partition-invariant."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.sampling import (
        pack_sequences,
        packing_stats,
    )

    rng = np.random.RandomState(3)
    n = 400
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "n_tokens": rng.randint(1, 900, n).astype(np.int64),
    })
    df.loc[11, "n_tokens"] = 9000  # oversize → own bin, truncated
    cap, bsz = 2048, 64
    packed = pack_sequences(rd.from_pandas(df).repartition(7),
                            capacity=cap, bucket_size=bsz)
    p = packed.to_pandas().sort_values("doc_id").reset_index(drop=True)

    rows = []
    for pb, grp in df.assign(pb=df.doc_id // bsz).groupby("pb"):
        cur, fill = 0, 0
        for _, r in grp.sort_values("doc_id").iterrows():
            v = int(r.n_tokens)
            if v > cap:
                if fill > 0:
                    cur += 1
                rows.append((r.doc_id, v, pb, cur, 0, True))
                cur += 1
                fill = 0
                continue
            if fill + v > cap:
                cur += 1
                fill = 0
            rows.append((r.doc_id, v, pb, cur, fill, False))
            fill += v
    mir = pd.DataFrame(rows, columns=[
        "doc_id", "seq_len", "pack_bucket", "bin_in_bucket",
        "bin_offset", "truncated",
    ]).sort_values("doc_id").reset_index(drop=True)
    for c in mir.columns:
        assert (p[c].to_numpy() == mir[c].to_numpy()).all(), c

    # per-bin capacity invariant (non-truncated bins)
    sums = p[~p.truncated].groupby(
        ["pack_bucket", "bin_in_bucket"])["seq_len"].sum()
    assert (sums <= cap).all()

    # partition invariance
    p2 = (pack_sequences(rd.from_pandas(df).repartition(2),
                         capacity=cap, bucket_size=bsz)
          .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert p2.equals(p)

    st = packing_stats(packed, capacity=cap)
    want_bins = mir.groupby("pack_bucket")["bin_in_bucket"].max() + 1
    assert int(st.n_bins.iloc[0]) == int(want_bins.sum())
    assert int(st.n_docs.iloc[0]) == n
    assert int(st.n_truncated.iloc[0]) == 1
    assert int(st.token_sum.iloc[0]) == int(
        np.minimum(mir.seq_len, cap).sum())
    assert 0 < st.fill_pct.iloc[0] <= 100.0


def test_pretrain_assembly_funnel(ray_session):
    """Capstone job invariants: the funnel only shrinks, every packed
    doc survived every gate, no eval-band or contaminated doc leaks,
    and the dedup stage keeps exactly one doc per normalized text."""
    import re

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jobs.pretrain_data_job import assemble_pretraining_data

    rng = np.random.RandomState(11)
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    texts = []
    for i in range(600):
        n = rng.randint(1, 40)
        texts.append(" ".join(rng.choice(words, n)))
    texts[5] = texts[0 * 97]          # duplicate of an eval doc (id 0? )
    texts[101] = texts[100]           # exact dup pair in train
    df = pd.DataFrame({"doc_id": np.arange(600, dtype=np.int64),
                       "text": texts})
    packed, funnel = assemble_pretraining_data(
        rd.from_pandas(df).repartition(4),
        min_words=3, max_words=50, sample_rate=0.9, capacity=32,
        bucket_size=40, audit=True,
    )
    p = packed.to_pandas()
    assert (funnel["input"] >= funnel["quality"] >= funnel["dedup"]
            >= funnel["decontam"] >= funnel["mix"] == len(p))

    def norm(t):
        return re.sub(r"[^a-z0-9]+", " ", t.lower()).strip()

    nmap = {i: norm(t) for i, t in zip(df.doc_id, df.text)}
    evset = {nmap[i] for i in df.doc_id if i % 97 == 0}
    kept = set(p.doc_id)
    for i in kept:
        assert i % 97 != 0                      # eval band excluded
        assert 3 <= len(nmap[i].split()) <= 50  # quality gate
        assert nmap[i] not in evset             # decontaminated
    # dedup: one survivor per surviving normalized text, the min id
    # among QUALITY-PASSING train docs of that text
    by_norm = {}
    for i in sorted(kept):
        by_norm.setdefault(nmap[i], []).append(i)
    assert all(len(v) == 1 for v in by_norm.values())
    # capacity invariant
    sums = p[~p.truncated].groupby(
        ["pack_bucket", "bin_in_bucket"])["seq_len"].sum()
    assert (sums <= 32).all()


def test_pretrain_assembly_custom_id_col(ray_session):
    """A non-default ``id_col`` reaches the packer: the manifest keys on
    that column and packs the same documents as the default name."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jobs.pretrain_data_job import assemble_pretraining_data

    rng = np.random.RandomState(5)
    texts = [" ".join(rng.choice(["ab", "cd", "ef", "gh"], rng.randint(3, 20)))
             for _ in range(200)]
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                       "text": texts})
    kw = dict(min_words=3, max_words=50, sample_rate=0.9, capacity=32,
              bucket_size=40)
    base, _ = assemble_pretraining_data(rd.from_pandas(df), **kw)
    custom, _ = assemble_pretraining_data(
        rd.from_pandas(df.rename(columns={"doc_id": "uid"})), id_col="uid",
        **kw,
    )
    b = base.to_pandas().sort_values("doc_id").reset_index(drop=True)
    c = custom.to_pandas().sort_values("uid").reset_index(drop=True)
    assert "uid" in c.columns and "doc_id" not in c.columns
    pd.testing.assert_frame_equal(c.rename(columns={"uid": "doc_id"}), b)
