"""Unit tests for the training-data operator families: dedup, similarity,
text analysis, multimodal plumbing, joins."""

import numpy as np
import pandas as pd
import pytest


def test_exact_dedup(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import exact_dedup, exact_dup_groups

    df = pd.DataFrame(
        {"id": [1, 2, 3, 4, 5], "text": ["a", "b", "a", "a", "b"]}
    )
    ds = rd.from_pandas(df)
    kept = exact_dedup(ds, ["text"], "id").to_pandas()
    assert sorted(kept["id"]) == [1, 2]
    pairs = exact_dup_groups(ds, ["text"], "id").to_pandas()
    got = {(a, b) for a, b in zip(pairs["keeper_id"], pairs["dup_id"])}
    assert got == {(1, 3), (1, 4), (2, 5)}
    every = exact_dup_groups(ds, ["text"], "id", emit_all=True).to_pandas()
    assert dict(zip(every["id"], every["keeper_id"])) == {
        1: 1, 2: 2, 3: 1, 4: 1, 5: 2}


def test_minhash_dedup_finds_near_dups(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog again and again"
    rows = [
        {"id": 0, "text": base},
        {"id": 1, "text": base.replace("quick", "quack")},  # near dup of 0
        {"id": 2, "text": "completely different content about databases"},
        {"id": 3, "text": base + " extra tail"},  # near dup of 0
        {"id": 4, "text": "another unrelated string entirely here"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    res = minhash_dedup(ds, "text", "id", jaccard_threshold=50.0)
    pairs = res["pairs"].to_pandas()
    got = {(a, b) for a, b in zip(pairs["a"], pairs["b"])}
    assert (0, 1) in got and (0, 3) in got
    assert not any(2 in p or 4 in p for p in got)
    comps = res["components"].to_pandas()
    cmap = dict(zip(comps["node"], comps["component"]))
    assert cmap[0] == cmap[1] == cmap[3]


def test_minhash_dedup_join_path_matches_routing_path(ray_session):
    """broadcast_limit_rows=0 forces the >cap join-verify path (shingle
    lists attached to pairs via hash_join, which must carry list<int64>
    payload columns); its verified pairs must equal the routing-index
    path's, with estimate prefiltering off so both verify exactly."""
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog again and again"
    rows = [
        {"id": 0, "text": base},
        {"id": 1, "text": base.replace("quick", "quack")},
        {"id": 2, "text": "completely different content about databases"},
        {"id": 3, "text": base + " extra tail"},
        {"id": 4, "text": "another unrelated string entirely here"},
        {"id": 5, "text": base.replace("lazy", "crazy")},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    kw = dict(jaccard_threshold=50.0, estimate_margin=None)
    via_route = minhash_dedup(ds, "text", "id", **kw)
    via_join = minhash_dedup(ds, "text", "id",
                             broadcast_limit_rows=0, **kw)
    pr = via_route["pairs"].to_pandas()
    pj = via_join["pairs"].to_pandas()
    canon = lambda df: sorted(
        (int(a), int(b), round(float(j), 9))
        for a, b, j in zip(df["a"], df["b"], df["jaccard"])
    )
    assert canon(pr) == canon(pj)
    assert len(pr) >= 3  # the near-dup cluster {0,1,3,5} is found


def test_minhash_candidates_from_arrow_runs_no_execution(ray_session, executions):
    """minhash_candidates expands band keys inside the exchange's map
    tasks (its ``prepare``): over a from_arrow input it runs no Ray Data
    execution, and its pairs equal those of the band-key map run as a
    ``map_batches`` pass of its own before the exchange."""
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange
    from record_matcher_ray.pipelines.dedup import (
        _bucket_pairs_fn, _dedupe_pairs_bucketed, _MinhashKeys,
        minhash_candidates)

    words = "the quick brown fox jumps over the lazy dog again and again".split()
    rng = np.random.default_rng(3)
    texts = []
    for i in range(60):
        w = list(words)
        w[rng.integers(len(w))] = f"w{i % 7}"
        texts.append(" ".join(w) if i % 3 else f"unrelated text number {i}")
    t = pa.table({"id": np.arange(60, dtype=np.int64), "text": texts})
    blocks = [t.slice(i, 9) for i in range(0, len(t), 9)]
    with executions() as plans:
        got = minhash_candidates(rd.from_arrow(blocks), "text", "id",
                                 max_bucket=30).to_pandas()
    assert plans == []
    keys = rd.from_arrow(blocks).map_batches(
        _MinhashKeys("text", "id", 64, 16, 4, 1), batch_format="pyarrow")
    want = _dedupe_pairs_bucketed(bucket_exchange(
        keys, ["band_key"], _bucket_pairs_fn(30))).to_pandas()
    canon = lambda df: sorted(zip(df["a"].tolist(), df["b"].tolist()))
    assert canon(got) == canon(want)
    assert len(got) > 10


def test_simhash_near_texts_close(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import simhash64

    rows = [
        {"id": 0, "text": "the quick brown fox jumps over the lazy dog"},
        {"id": 1, "text": "the quick brown fox jumps over the lazy dot"},
        {"id": 2, "text": "zzz completely unrelated material qqq"},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = simhash64(ds, "text", "id").to_pandas().set_index("id")

    def hamming(a, b):
        return bin((int(a) & 0xFFFFFFFFFFFFFFFF) ^ (int(b) & 0xFFFFFFFFFFFFFFFF)).count("1")

    near = hamming(out.loc[0, "simhash"], out.loc[1, "simhash"])
    far = hamming(out.loc[0, "simhash"], out.loc[2, "simhash"])
    assert near < far
    assert near <= 12


def test_brute_force_topk_exact(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import brute_force_topk

    rng = np.random.RandomState(0)
    vecs = rng.standard_normal((200, 16))
    df = pd.DataFrame({"vec_id": np.arange(200), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    out = brute_force_topk(ds, vecs[:3], k=5)
    # exact: each query's top hit is itself at sim 1.0
    for qid in range(3):
        top = out[out["query_id"] == qid].iloc[0]
        assert top["vec_id"] == qid and top["cos_sim"] == pytest.approx(1.0)
    # verify against numpy ground truth for query 0
    u = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = u @ u[0]
    want = set(np.argsort(-sims)[:5])
    got = set(out[out["query_id"] == 0]["vec_id"])
    assert got == want


def test_ivf_topk_high_recall(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import brute_force_topk, ivf_topk

    rng = np.random.RandomState(1)
    vecs = rng.standard_normal((400, 16))
    df = pd.DataFrame({"vec_id": np.arange(400), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    exact = brute_force_topk(ds, vecs[:5], k=10)
    approx = ivf_topk(ds, vecs[:5], k=10, n_centroids=8, nprobe=4)
    recalls = []
    for qid in range(5):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_lsh_topk_matches_local_replay(ray_session):
    """lsh_topk is fully deterministic (integer-quantized sign projections)
    — the distributed result must equal a local numpy replay exactly, and
    be invariant to partitioning."""
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import (
        lsh_codes,
        lsh_sign_matrix,
        lsh_topk,
    )

    rng = np.random.RandomState(3)
    vecs = rng.standard_normal((400, 16))
    df = pd.DataFrame({"vec_id": np.arange(400), "embedding": list(vecs)})
    q = vecs[:4]

    # local replay
    signs = lsh_sign_matrix(16, n_tables=4, n_bits=5, seed=7)
    qc, vc = lsh_codes(q, signs), lsh_codes(vecs, signs)
    u = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    rows = []
    for qi in range(len(q)):
        cand = np.nonzero((qc[qi][None, :] == vc).any(axis=1))[0]
        sims = u[cand] @ u[qi]
        order = np.lexsort((cand, -sims))[:6]
        for r, j in enumerate(order):
            rows.append((qi, r + 1, int(cand[j]), round(float(sims[j]), 6)))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cos_sim"])

    for parts in (1, 9):
        out = lsh_topk(
            rd.from_pandas(df).repartition(parts),
            q, k=6, n_tables=4, n_bits=5, seed=7,
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out.astype({"query_id": np.int64, "rank": np.int64,
                        "vec_id": np.int64}),
            want.astype({"query_id": np.int64, "rank": np.int64,
                         "vec_id": np.int64}),
        )
    # each query's top hit is itself (identical codes in every table)
    top = want[want["rank"] == 1]
    assert list(top["vec_id"]) == [0, 1, 2, 3]
    assert all(top["cos_sim"] == 1.0)


def test_embedding_near_dups(ray_session):
    """Planted near-dups: the IVF multi-probe path must recover (nearly)
    all of them despite centroid-boundary splits; the exact path must
    recover every one and agree with brute force."""
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import (
        embedding_near_dups,
        embedding_near_dups_exact,
    )

    rng = np.random.RandomState(2)
    base = rng.standard_normal((120, 16))
    # plant 30 near-dup partners (ids 120..149 dup ids 0..29)
    dups = base[:30] + rng.standard_normal((30, 16)) * 0.01
    vecs = np.vstack([base, dups])
    df = pd.DataFrame(
        {"vec_id": np.arange(len(vecs)), "embedding": list(vecs)}
    )
    un = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = un @ un.T
    ai, bi = np.triu_indices(len(vecs), k=1)
    truth = {
        (int(a), int(b))
        for a, b in zip(ai[sims[ai, bi] >= 0.98], bi[sims[ai, bi] >= 0.98])
    }
    assert len(truth) >= 30

    ds = rd.from_pandas(df)
    exact = embedding_near_dups_exact(ds, threshold=0.98).to_pandas()
    got_exact = set(zip(exact["a"], exact["b"]))
    assert got_exact == truth

    approx = embedding_near_dups(
        ds, threshold=0.98, n_centroids=8, nprobe=2
    ).to_pandas()
    got = set(zip(approx["a"], approx["b"]))
    assert len(got) == len(approx), "distinct pass left duplicates"
    assert got <= truth  # no false positives
    recall = len(got & truth) / len(truth)
    assert recall >= 0.9, f"multi-probe recall {recall}"
    # single-probe is the round-1 recall hole; multi-probe must not be worse
    single = embedding_near_dups(
        ds, threshold=0.98, n_centroids=8, nprobe=1
    ).to_pandas()
    assert len(got) >= len(set(zip(single["a"], single["b"])))


def test_embedding_near_dups_exact_guard(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import embedding_near_dups_exact

    df = pd.DataFrame(
        {"vec_id": np.arange(50),
         "embedding": list(np.random.RandomState(0).standard_normal((50, 4)))}
    )
    with pytest.raises(ValueError, match="max_broadcast_rows"):
        embedding_near_dups_exact(
            rd.from_pandas(df), threshold=0.9, max_broadcast_rows=10
        )


def test_text_analysis_ops(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import (
        fingerprints,
        language_id,
        quality_scores,
        token_counts,
    )

    rows = [
        {"doc_id": 0, "text": "The quick brown fox, and the lazy dog!"},
        {"doc_id": 1, "text": "el perro y el gato en la casa de los amigos"},
        {"doc_id": 2, "text": ""},
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    tc = token_counts(ds).to_pandas().set_index("doc_id")
    assert tc.loc[0, "n_ws_tokens"] == 8
    assert tc.loc[2, "n_ws_tokens"] == 0
    assert tc.loc[0, "n_bpe_tokens"] == 10  # 8 words + ',' + '!'

    q = quality_scores(ds).to_pandas().set_index("doc_id")
    assert q.loc[0, "n_tokens"] == 8
    assert 0 < q.loc[0, "stopword_ratio"] < 1
    assert q.loc[2, "n_tokens"] == 0

    li = language_id(ds).to_pandas().set_index("doc_id")
    assert li.loc[0, "pred_lang"] == "en"
    assert li.loc[1, "pred_lang"] == "es"
    assert li.loc[2, "pred_lang"] == "und"

    fp = fingerprints(ds).to_pandas()
    assert len(set(fp["fp64"])) == 3  # distinct texts → distinct fingerprints


def test_media_featurizer_plumbing(ray_session):
    import ray.data as rd

    from record_matcher_ray.stages.multimodal import (
        MediaFeaturizer,
        featurize_media,
        synth_media_table,
    )

    tbl = synth_media_table(n=32, seed=1)
    out = featurize_media(rd.from_arrow(tbl), decoder="fake", concurrency=2).to_pandas()
    assert len(out) == 32
    assert set(out.columns) == {"media_id", "kind", "n_bytes", "features"}
    assert all(len(f) == 16 for f in out["features"])
    # deterministic: same payload → same features
    out2 = featurize_media(rd.from_arrow(tbl), decoder="fake", concurrency=2).to_pandas()
    a = out.sort_values("media_id")["features"].tolist()
    b = out2.sort_values("media_id")["features"].tolist()
    assert all(np.allclose(x, y) for x, y in zip(a, b))
    # real decoder: undecodable bytes raise for every kind (video too —
    # the r4 stdlib AVI codec replaced the NotImplementedError guard)
    with pytest.raises(ValueError):
        MediaFeaturizer(decoder="real")._decode_real(b"x", "image")
    with pytest.raises(ValueError):
        MediaFeaturizer(decoder="real")._decode_real(b"x", "video")


def test_hash_join(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import broadcast_lookup, hash_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 2], "lv": ["a", "b", "c", "d"]}))
    right = rd.from_pandas(pd.DataFrame({"rk": [2, 3, 4], "rv": ["x", "y", "z"]}))
    out = hash_join(left, right, "k", "rk").to_pandas()
    got = sorted(zip(out["k"], out["lv"], out["rv"]))
    assert got == [(2, "b", "x"), (2, "d", "x"), (3, "c", "y")]
    lout = hash_join(left, right, "k", "rk", how="left").to_pandas()
    assert len(lout) == 4
    assert lout[lout["k"] == 1]["rv"].isna().all()

    bout = broadcast_lookup(left, right.to_pandas(), "k", "rk").to_pandas()
    assert len(bout) == 4


def test_hash_join_pandas_inputs_run_no_execution(ray_session, monkeypatch):
    """hash_join reads the Arrow schema of a pandas-backed input from its
    first block in one task, not through a limit(1) Ray Data execution:
    over two from_pandas inputs the join and reading its output run no
    execution at all. Nulls and the float column keep their types."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from record_matcher_ray.pipelines.joins import hash_join

    plans = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *a, **k):
        plans.append(dag.name)
        return execute(self, dag, *a, **k)

    left = rd.from_pandas(pd.DataFrame(
        {"k": [1, 2, 3, 2], "a": ["x", "y", "z", None], "f": [1.5, None, 2.0, 3.0]}
    ))
    right = rd.from_pandas(pd.DataFrame({"rk": [2, 3, 4], "b": ["p", "q", "r"]}))
    with monkeypatch.context() as m:
        m.setattr(StreamingExecutor, "execute", counted)
        out = hash_join(left, right, "k", "rk", how="left").to_pandas()
    assert plans == []
    assert out.dtypes.to_dict() == {"k": np.dtype("int64"), "a": object,
                                    "f": np.dtype("float64"), "b": object}
    rows = sorted(
        [(int(k), a, None if f != f else f, b)
         for k, a, f, b in out[["k", "a", "f", "b"]].itertuples(index=False)],
        key=repr,
    )
    assert rows == [(1, "x", 1.5, None), (2, "y", None, "p"),
                    (2, None, 3.0, "p"), (3, "z", 2.0, "q")]


def test_pairwise_jaccard_kernel():
    from record_matcher_ray.pipelines.dedup import _pairwise_jaccard, _seg_gather

    rng = np.random.default_rng(7)
    sets_a, sets_b = [], []
    for _ in range(200):
        sets_a.append(np.unique(rng.integers(0, 40, rng.integers(0, 15))))
        sets_b.append(np.unique(rng.integers(0, 40, rng.integers(0, 15))))
    a_lens = np.array([len(s) for s in sets_a], np.int64)
    b_lens = np.array([len(s) for s in sets_b], np.int64)
    a_flat = np.concatenate(sets_a) if a_lens.sum() else np.empty(0, np.int64)
    b_flat = np.concatenate(sets_b) if b_lens.sum() else np.empty(0, np.int64)
    got = _pairwise_jaccard(a_flat, a_lens, b_flat, b_lens)
    for i, (a, b) in enumerate(zip(sets_a, sets_b)):
        inter = len(np.intersect1d(a, b, assume_unique=True))
        union = len(a) + len(b) - inter
        want = round(100.0 * inter / union, 6) if union else 0.0
        assert got[i] == pytest.approx(want, abs=1e-9)
    # _seg_gather round-trips variable segments
    starts = np.array([0, 5, 5, 9], np.int64)
    lens = np.array([2, 0, 4, 1], np.int64)
    assert _seg_gather(starts, lens).tolist() == [0, 1, 5, 6, 7, 8, 9]


def test_fingerprints_vs_naive(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import _FP_BASE, fingerprints

    def naive_fp(t, window=16, stride=4):
        B, M = int(_FP_BASE), 1 << 64
        b = t.encode()
        if not b:
            return 0
        w = min(len(b), window)
        ss = [0] if len(b) <= window else range(0, len(b) - window + 1, stride)
        best = None
        for s in ss:
            h = 0
            for k in range(s, s + w):
                h = (h * B + b[k]) % M
            best = h if best is None else min(best, h)
        return best if best < (1 << 63) else best - (1 << 64)

    texts = ["", "short", "the quick brown fox jumps over the lazy dog " * 4,
             "abcdefghijklmnop", "unicode éèê accents here too"]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    out = fingerprints(ds).to_pandas().set_index("doc_id")["fp64"]
    for i, t in enumerate(texts):
        assert out[i] == naive_fp(t), f"doc {i}"


def test_duplicated_by_column_bucketed(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import duplicated_by_column

    df = pd.DataFrame(
        {"k": ["a", "b", "a", "", None, "b", "c"], "v": range(7)}
    )
    out = duplicated_by_column(rd.from_pandas(df), "k").to_pandas()
    assert sorted(out["v"]) == [0, 1, 2, 5]
    assert set(out.columns) == {"k", "v"}


def test_join_broadcast_guards(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import broadcast_lookup, semi_join

    big = rd.range(200).map_batches(
        lambda d: d.rename(columns={"id": "right_id"}), batch_format="pandas"
    )
    with pytest.raises(ValueError, match="max_broadcast_rows"):
        broadcast_lookup(rd.range(5), big, "id", "right_id",
                         max_broadcast_rows=100)
    with pytest.raises(ValueError, match="max_broadcast_rows"):
        semi_join(rd.range(5), rd.range(200), on="id", key_col="id",
                  max_broadcast_rows=100)


def test_hash_join_null_keys_sql_semantics(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import hash_join

    left = rd.from_pandas(
        pd.DataFrame({"k": ["a", None, "b"], "lv": [1, 2, 3]})
    )
    right = rd.from_pandas(
        pd.DataFrame({"rk": ["a", None], "rv": [10, 20]})
    )
    inner = hash_join(left, right, "k", "rk").to_pandas()
    assert sorted(inner["lv"]) == [1]  # null matches nothing
    louter = hash_join(left, right, "k", "rk", how="left").to_pandas()
    assert len(louter) == 3
    assert louter[louter["lv"] == 2]["rv"].isna().all()


def naive_shingle_hashes(text, n=4):
    """Independent pure-Python (big-int) reimplementation of the engine's
    shingle hashing: normalize, char n-grams (whole string if shorter),
    mod-2**64 polynomial hash, splitmix64 finalizer, >> 3, sorted
    unique."""
    import re

    t = re.sub(r"[^a-z0-9]+", " ", text.lower()).strip()
    if not t:
        return []

    M = (1 << 64) - 1

    def mix(h):
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & M
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & M
        h ^= h >> 31
        return h

    def poly(s):
        h = 0
        for byte in s.encode():
            h = (h * 1000003 + byte) % (1 << 64)
        return mix(h) >> 3

    grams = [t] if len(t) < n else [t[i:i + n] for i in range(len(t) - n + 1)]
    return sorted({poly(g) for g in grams})


def test_char_shingles_vs_naive():
    from record_matcher_ray.stages.blocking import char_shingles

    for t in ["", "a", "Tiny!", "The quick brown fox... jumps; over 42 dogs",
              "ünïcode Straße mixed"]:
        assert char_shingles(t, 4).tolist() == naive_shingle_hashes(t, 4), t


def test_simhash_vs_naive(ray_session):
    """Pin simhash64 against an independent pure-Python reimplementation
    (big-int arithmetic, no numpy) of the same definition."""
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import simhash64

    def naive_simhash(text, shingle=4):
        hs = naive_shingle_hashes(text, shingle)
        if not hs:
            return 0
        votes = [0] * 64
        for h in hs:
            h = (h * 0x9E3779B97F4A7C15) % (1 << 64)
            for j in range(64):
                votes[j] += 1 if (h >> j) & 1 else -1
        fp = sum(1 << j for j in range(64) if votes[j] > 0)
        return fp if fp < (1 << 63) else fp - (1 << 64)

    texts = ["", "tiny", "the quick brown fox jumps over the lazy dog",
             "the quick brown fox jumps over the lazy dot",
             "zzz completely unrelated material qqq " * 3]
    ds = rd.from_pandas(pd.DataFrame({"id": range(len(texts)), "text": texts}))
    out = simhash64(ds, "text", "id").to_pandas().set_index("id")["simhash"]
    for i, t in enumerate(texts):
        assert out[i] == naive_simhash(t), f"doc {i}"


def test_group_pairs_vs_naive():
    """_group_pairs (vectorized within-group pair emission) against an
    itertools reference on random key groups, incl. size bounds."""
    from itertools import combinations

    from record_matcher_ray.pipelines.dedup import _group_pairs

    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(0, 200))
        keys = rng.integers(0, 12, n)
        ids = rng.permutation(10_000)[:n].astype(np.int64)
        min_s = int(rng.integers(2, 4))
        max_s = int(rng.integers(min_s, 40)) if trial % 2 else None
        a, b = _group_pairs(keys, ids, min_size=min_s, max_size=max_s)
        got = set(zip(a.tolist(), b.tolist()))
        want = set()
        for k in np.unique(keys):
            grp = sorted(ids[keys == k].tolist())
            if len(grp) < min_s or (max_s is not None and len(grp) > max_s):
                continue
            want |= set(combinations(grp, 2))
        assert got == want, f"trial {trial}"


def test_ngram_jaccard_dedup_vs_brute(ray_session):
    """Exact n-gram Jaccard pairs against a brute-force shingle-set
    computation over all pairs (same hash domain)."""
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_dedup
    from record_matcher_ray.stages.blocking import char_shingles, normalize_text

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = [base, base.replace("quick", "quack"), base + " extra tail",
             "completely different content about databases",
             "another unrelated string entirely here", "", "ab", base]
    ids = list(range(len(texts)))
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))
    out = ngram_jaccard_dedup(
        ds, "text", "doc_id", jaccard_threshold=50.0
    ).to_pandas()
    got = {(a, b): (c, round(j, 9)) for a, b, c, j in zip(
        out["id_a"], out["id_b"], out["n_common"], out["jaccard"])}

    sets = [set(char_shingles(normalize_text(t), 4).tolist()) for t in texts]
    want = {}
    for i in ids:
        for j in ids[i + 1:]:
            inter = len(sets[i] & sets[j])
            union = len(sets[i] | sets[j])
            if union and 100.0 * inter / union >= 50.0:
                want[(i, j)] = (inter, round(100.0 * inter / union, 9))
    assert got == want
    # identical docs 0 and 7 must appear at exactly 100
    assert got[(0, 7)][1] == 100.0


def test_ngram_jaccard_max_doc_freq_prunes(ray_session):
    """Stop-shingle pruning drops near-universal grams (documented
    under-count) without affecting rare-gram pairs."""
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_dedup

    texts = ["aaaa bbbb cccc", "aaaa bbbb dddd", "aaaa eeee ffff",
             "aaaa gggg hhhh"]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(4), "text": texts}))
    full = ngram_jaccard_dedup(ds, "text", "doc_id",
                               jaccard_threshold=1.0).to_pandas()
    pruned = ngram_jaccard_dedup(ds, "text", "doc_id", jaccard_threshold=1.0,
                                 max_doc_freq=2).to_pandas()
    # every doc shares "aaaa"-derived grams → full has all 6 pairs
    assert len(full) == 6
    # pruning df>2 grams removes pairs that ONLY shared universal grams
    assert len(pruned) < len(full)


def test_simhash_near_dups_vs_brute(ray_session):
    """Banded simhash near-dup pairs against brute-force Hamming over all
    fingerprint pairs — banding must have 100% recall within the budget
    (pigeonhole) and the verify step removes everything outside it."""
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import (
        _hamming64,
        simhash64,
        simhash_near_dups,
    )

    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = [base, base.replace("quick", "quack"), base + " extra tail",
             "completely different content about databases here",
             "another unrelated string entirely for this test", "",
             base.replace("dog", "cat")]
    ids = list(range(len(texts)))
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))

    out = simhash_near_dups(ds, "text", "doc_id", max_hamming=8).to_pandas()
    got = {(a, b): h for a, b, h in zip(out["id_a"], out["id_b"],
                                        out["hamming"])}

    fps = (simhash64(ds, "text", "doc_id").to_pandas()
           .set_index("id")["simhash"])
    want = {}
    for i in ids:
        for j in ids[i + 1:]:
            fa, fb = np.uint64(fps[i]), np.uint64(fps[j])
            if fa == 0 or fb == 0:
                continue  # empty docs are excluded by design
            h = int(_hamming64(np.array([fa]), np.array([fb]))[0])
            if h <= 8:
                want[(i, j)] = h
    assert got == want
    # the one-character variant is near the base by construction
    assert (0, 1) in got
    assert not any(5 in p for p in got)  # empty doc never pairs


def test_range_join_equi(ray_session):
    """Equi+range path vs a brute-force pandas double loop."""
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import range_join

    rng = np.random.default_rng(5)
    n_l, n_r = 400, 120
    left = pd.DataFrame(
        {"k": rng.integers(0, 20, n_l), "pt": rng.uniform(0, 100, n_l),
         "lid": np.arange(n_l)}
    )
    right = pd.DataFrame(
        {"rk": rng.integers(0, 20, n_r),
         "lo": rng.uniform(0, 90, n_r)}
    )
    right["hi"] = right["lo"] + rng.uniform(0, 15, n_r)
    right["rid"] = np.arange(n_r)
    out = range_join(
        rd.from_pandas(left).repartition(5),
        rd.from_pandas(right).repartition(3),
        left_point="pt", right_lo="lo", right_hi="hi",
        left_on="k", right_on="rk",
    ).to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")
    want = want[(want["lo"] <= want["pt"]) & (want["pt"] < want["hi"])]
    assert sorted(zip(out["lid"], out["rid"])) == sorted(
        zip(want["lid"], want["rid"])
    )
    # closed="both" includes the hi endpoint
    r2 = pd.DataFrame({"rk": [0], "lo": [1.0], "hi": [2.0], "rid": [0]})
    l2 = pd.DataFrame({"k": [0, 0, 0], "pt": [1.0, 2.0, 2.5],
                       "lid": [0, 1, 2]})
    ob = range_join(
        rd.from_pandas(l2), rd.from_pandas(r2),
        left_point="pt", right_lo="lo", right_hi="hi",
        left_on="k", right_on="rk", closed="both",
    ).to_pandas()
    assert sorted(ob["lid"]) == [0, 1]


def test_range_join_domain_buckets(ray_session):
    """Pure-range path (no equi key): interval replication across domain
    buckets, every (point, interval) containment found exactly once."""
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import range_join

    rng = np.random.default_rng(6)
    left = pd.DataFrame(
        {"pt": rng.uniform(0, 50, 300), "lid": np.arange(300)}
    )
    right = pd.DataFrame({"lo": rng.uniform(0, 48, 40)})
    right["hi"] = right["lo"] + rng.uniform(0, 6, 40)
    right["rid"] = np.arange(40)
    out = range_join(
        rd.from_pandas(left).repartition(4),
        rd.from_pandas(right).repartition(2),
        left_point="pt", right_lo="lo", right_hi="hi",
        bucket_width=4.0,
    ).to_pandas()
    want = []
    for _, lrow in left.iterrows():
        for _, rrow in right.iterrows():
            if rrow["lo"] <= lrow["pt"] < rrow["hi"]:
                want.append((int(lrow["lid"]), int(rrow["rid"])))
    assert sorted(zip(out["lid"], out["rid"])) == sorted(want)

    with pytest.raises(ValueError):
        range_join(
            rd.from_pandas(left), rd.from_pandas(right),
            left_point="pt", right_lo="lo", right_hi="hi",
        )  # no equi key and no bucket_width


class TestNgramJaccardDecontam:
    def _corpora(self):
        import numpy as np

        rng = np.random.default_rng(3)
        vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        train_texts = [
            " ".join(rng.choice(vocab, 30)) for _ in range(40)
        ]
        # eval: 5 truncated copies of train docs (planted contamination)
        # + 3 novel docs
        eval_texts = [t[: (len(t) * 4) // 5] for t in train_texts[:5]] + [
            " ".join(rng.choice(["zulu", "yankee", "xray"], 25))
            for _ in range(3)
        ]
        return train_texts, eval_texts

    def test_matches_tagged_union_dedup(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import (
            ngram_jaccard_decontam,
            ngram_jaccard_dedup,
        )

        train_texts, eval_texts = self._corpora()
        train = rd.from_arrow(pa.table(
            {"doc_id": list(range(len(train_texts))), "text": train_texts}
        )).repartition(4)
        ev = rd.from_arrow(pa.table(
            {"doc_id": list(range(len(eval_texts))), "text": eval_texts}
        ))
        got = ngram_jaccard_decontam(
            train, ev, "text", "doc_id", jaccard_threshold=55.0
        ).to_pandas()
        # independent route: side-tagged union through the trusted
        # single-corpus operator, keeping only cross-side pairs
        OFF = 10_000
        union = rd.from_arrow(pa.table({
            "doc_id": (list(range(len(train_texts)))
                       + [OFF + i for i in range(len(eval_texts))]),
            "text": train_texts + eval_texts,
        })).repartition(4)
        allp = ngram_jaccard_dedup(
            union, "text", "doc_id", jaccard_threshold=55.0
        ).to_pandas()
        cross = allp[(allp["id_a"] < OFF) != (allp["id_b"] < OFF)]
        want = {
            (min(a, b), max(a, b) - OFF): (c, round(j, 9))
            for a, b, c, j in zip(cross["id_a"], cross["id_b"],
                                  cross["n_common"], cross["jaccard"])
        }
        have = {
            (t, e): (c, round(j, 9))
            for t, e, c, j in zip(got["train_id"], got["eval_id"],
                                  got["n_common"], got["jaccard"])
        }
        assert have == want
        # every planted truncation is caught against its source
        for i in range(5):
            assert (i, i) in have

    def test_empty_eval(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

        train = rd.from_arrow(
            pa.table({"doc_id": [1, 2], "text": ["some text here", "more"]})
        )
        ev = rd.from_arrow(pa.table(
            {"doc_id": pa.array([], pa.int64()),
             "text": pa.array([], pa.string())}
        ))
        out = ngram_jaccard_decontam(train, ev, "text", "doc_id")
        # NOTE: Dataset.to_pandas() drops column names on 0-row datasets
        # (Ray 2.49 quirk) — assert on the dataset schema instead
        assert out.schema().names == ["train_id", "eval_id", "n_common",
                                      "jaccard"]
        assert out.count() == 0

    def test_broadcast_guard(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

        ds = rd.from_arrow(pa.table(
            {"doc_id": [1], "text": ["plenty of grams in this text"]}
        ))
        with pytest.raises(ValueError, match="max_eval_grams"):
            ngram_jaccard_decontam(ds, ds, "text", "doc_id",
                                   max_eval_grams=2)


class TestMinhashDecontam:
    def test_planted_cross_pairs(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import minhash_decontam

        rng = np.random.default_rng(11)
        vocab = ["alpha", "bravo", "charlie", "delta", "echo", "golf"]
        train_texts = [" ".join(rng.choice(vocab, 40)) for _ in range(30)]
        # train has an internal exact duplicate pair (must NOT appear in
        # the cross output) and eval holds 4 truncated train docs + noise
        train_texts.append(train_texts[0])
        eval_texts = [t[: (len(t) * 9) // 10] for t in train_texts[:4]] + [
            " ".join(rng.choice(["xray", "yankee"], 30)) for _ in range(3)
        ]
        train = rd.from_arrow(pa.table(
            {"doc_id": list(range(len(train_texts))), "text": train_texts}
        )).repartition(3)
        ev = rd.from_arrow(pa.table(
            {"doc_id": list(range(len(eval_texts))), "text": eval_texts}
        ))
        got = minhash_decontam(
            train, ev, "text", "doc_id", jaccard_threshold=60.0
        ).to_pandas()
        pairs = set(zip(got["train_id"], got["eval_id"]))
        for i in range(4):  # every planted truncation caught
            assert (i, i) in pairs
        # the train-internal duplicate (0, 30) never leaks into the
        # cross-side output columns
        assert got["eval_id"].max() < len(eval_texts)
        assert (got["jaccard"] >= 60.0).all()

    def test_id_range_guard(self, ray_session):
        """ADVICE r2: ids ≥ 2^62 or negative would silently wrap through
        the id*2+side tag — must raise instead."""
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import minhash_decontam

        for bad in ([2 ** 62], [-1]):
            train = rd.from_arrow(pa.table({"doc_id": bad, "text": ["a b c"]}))
            ev = rd.from_arrow(pa.table({"doc_id": [0], "text": ["a b c"]}))
            with pytest.raises((ValueError, Exception)) as ei:
                minhash_decontam(train, ev, "text", "doc_id").to_pandas()
            assert "minhash_decontam ids" in str(ei.value)


class TestContainmentDecontam:
    def test_embedded_eval_caught_by_containment_not_jaccard(
        self, ray_session
    ):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

        rng = np.random.default_rng(5)
        vocab = ["alpha", "bravo", "charlie", "delta", "echo"]
        long_docs = [" ".join(rng.choice(vocab, 200)) for _ in range(10)]
        # eval docs: short SLICES embedded verbatim inside train docs
        evals = [d[300:420] for d in long_docs[:3]]
        train = rd.from_arrow(pa.table(
            {"doc_id": list(range(10)), "text": long_docs}
        )).repartition(2)
        ev = rd.from_arrow(pa.table(
            {"doc_id": list(range(3)), "text": evals}
        ))
        cont = ngram_jaccard_decontam(
            train, ev, "text", "doc_id",
            jaccard_threshold=95.0, metric="containment",
        ).to_pandas()
        got = set(zip(cont["train_id"], cont["eval_id"]))
        for i in range(3):  # every embedded slice is fully contained
            assert (i, i) in got
        assert "containment" in cont.columns
        # the same pairs are invisible to jaccard at that threshold (the
        # eval slice is a tiny fraction of the long doc's gram set)
        jac = ngram_jaccard_decontam(
            train, ev, "text", "doc_id", jaccard_threshold=95.0,
        ).to_pandas()
        assert len(jac) == 0

    def test_bad_metric_raises(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.dedup import ngram_jaccard_decontam

        ds = rd.from_arrow(pa.table({"doc_id": [1], "text": ["abcdef"]}))
        with pytest.raises(ValueError, match="metric"):
            ngram_jaccard_decontam(ds, ds, "text", "doc_id", metric="dice")


class TestFunnelSteps:
    def test_ordered_semantics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.relational import funnel_steps

        rows = [
            # u1: full ordered funnel
            (1, 10, "view"), (1, 20, "click"), (1, 30, "purchase"),
            # u2: click BEFORE view — only step 1 counts
            (2, 10, "click"), (2, 20, "view"),
            # u3: view+click ordered, purchase before click — 2 steps
            (3, 5, "purchase"), (3, 10, "view"), (3, 20, "click"),
            # u4: never views — absent from output
            (4, 10, "click"), (4, 20, "purchase"),
            # u5: same-timestamp view and click — strict > blocks step 2
            (5, 10, "view"), (5, 10, "click"),
            # u6: greedy earliest view(10) then click(15) then purchase(40)
            (6, 10, "view"), (6, 15, "click"), (6, 20, "view"),
            (6, 40, "purchase"),
        ]
        ds = rd.from_arrow(pa.table({
            "user_id": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "event_type": [r[2] for r in rows],
        })).repartition(3)
        out = funnel_steps(ds, ["view", "click", "purchase"]).to_pandas()
        got = dict(zip(out["user_id"], out["steps_completed"]))
        assert got == {1: 3, 2: 1, 3: 2, 5: 1, 6: 3}

    def test_repeated_step_type(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.relational import funnel_steps

        rows = [(1, 10, "view"), (1, 20, "view"),   # view twice: 2 steps
                (2, 10, "view")]                    # view once: 1 step
        ds = rd.from_arrow(pa.table({
            "user_id": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "event_type": [r[2] for r in rows],
        }))
        out = funnel_steps(ds, ["view", "view"]).to_pandas()
        got = dict(zip(out["user_id"], out["steps_completed"]))
        assert got == {1: 2, 2: 1}

    def test_string_user_ids(self, ray_session):
        """ADVICE r2: astype(uint64) crashed on string ids — generic hash
        + factorize path must produce identical funnel results."""
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.relational import funnel_steps

        rows = [
            ("alice", 10, "view"), ("alice", 20, "click"),
            ("alice", 30, "purchase"),
            ("bob", 10, "click"), ("bob", 20, "view"),
            ("carol", 10, "view"), ("carol", 10, "click"),
        ]
        ds = rd.from_arrow(pa.table({
            "user_id": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "event_type": [r[2] for r in rows],
        })).repartition(3)
        out = funnel_steps(ds, ["view", "click", "purchase"]).to_pandas()
        got = dict(zip(out["user_id"], out["steps_completed"]))
        assert got == {"alice": 3, "bob": 1, "carol": 1}
        assert out["user_id"].dtype == object


class TestRetentionCohorts:
    def test_matches_pandas_mirror(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.relational import retention_cohorts

        rng = np.random.default_rng(17)
        n = 3000
        users = rng.integers(0, 80, n)
        ts = rng.integers(0, 20, n) * 86_400_000_000 + rng.integers(
            0, 86_400_000_000, n
        )
        ds = rd.from_arrow(pa.table(
            {"user_id": users,
             "ts": pa.array(ts, pa.timestamp("us"))}
        )).repartition(5)
        got = retention_cohorts(ds).to_pandas().sort_values(
            ["cohort_day", "day_offset"]
        ).reset_index(drop=True)
        # independent mirror in pandas
        df = pd.DataFrame({"u": users, "d": ts // 86_400_000_000})
        act = df.drop_duplicates()
        coh = act.groupby("u")["d"].min().rename("c")
        j = act.join(coh, on="u")
        want = (
            j.assign(off=j["d"] - j["c"])
            .groupby(["c", "off"]).size().rename("n").reset_index()
            .sort_values(["c", "off"]).reset_index(drop=True)
        )
        assert got["cohort_day"].tolist() == want["c"].tolist()
        assert got["day_offset"].tolist() == want["off"].tolist()
        assert got["n_users"].tolist() == want["n"].tolist()

    def test_pre_epoch_timestamps_floor(self, ray_session):
        """ADVICE r2: day derivation must FLOOR-divide (DuckDB `//`
        semantics) — truncation lands negative timestamps a day late."""
        import pyarrow as pa
        import ray.data as rd

        from record_matcher_ray.pipelines.relational import retention_cohorts

        day = 86_400_000_000
        ts = np.array([-day // 2, -day - 1, 0, day // 2, day], np.int64)
        users = np.array([1, 1, 2, 2, 1], np.int64)
        ds = rd.from_arrow(pa.table({"user_id": users, "ts": ts}))
        got = retention_cohorts(ds).to_pandas().sort_values(
            ["cohort_day", "day_offset"]
        ).reset_index(drop=True)
        df = pd.DataFrame({"u": users, "d": ts // day})  # numpy floor-divides
        act = df.drop_duplicates()
        coh = act.groupby("u")["d"].min().rename("c")
        j = act.join(coh, on="u")
        want = (
            j.assign(off=j["d"] - j["c"])
            .groupby(["c", "off"]).size().rename("n").reset_index()
            .sort_values(["c", "off"]).reset_index(drop=True)
        )
        assert got["cohort_day"].tolist() == want["c"].tolist()
        assert got["day_offset"].tolist() == want["off"].tolist()
        assert got["n_users"].tolist() == want["n"].tolist()
        # offset 0 row per cohort equals the cohort size
        sizes = coh.value_counts()
        day0 = got[got["day_offset"] == 0].set_index("cohort_day")["n_users"]
        for c, s in sizes.items():
            assert day0[c] == s


class TestMultimodalResizeFrames:
    def test_resize_images_only(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.stages.multimodal import (
            resize_media,
            synth_media_table,
        )

        ds = rd.from_arrow(synth_media_table(n=30, seed=1))
        out = resize_media(ds, target_w=16, target_h=16).to_pandas()
        assert len(out) == 30
        img = out[out["kind"] == "image"]
        other = out[out["kind"] != "image"]
        assert (img["width"] == 16).all() and (img["height"] == 16).all()
        # non-image rows pass through with original dims/payloads
        src = synth_media_table(n=30, seed=1).to_pandas().set_index("media_id")
        for _, r in other.iterrows():
            assert r["payload"] == src.loc[r["media_id"], "payload"]
        # deterministic: same input -> same fake payload
        out2 = resize_media(ds, target_w=16, target_h=16).to_pandas()
        m1 = dict(zip(out["media_id"], out["payload"]))
        m2 = dict(zip(out2["media_id"], out2["payload"]))
        assert m1 == m2

    def test_frame_sampling_expansion(self, ray_session):
        import math

        import ray.data as rd

        from record_matcher_ray.stages.multimodal import (
            sample_frames,
            synth_media_table,
        )

        tbl = synth_media_table(n=30, seed=2)
        ds = rd.from_arrow(tbl)
        out = sample_frames(ds, fps=2.0).to_pandas()
        src = tbl.to_pandas()
        vids = src[(src["kind"] == "video") & (src["duration_ms"] > 0)]
        want_frames = int(sum(
            math.ceil(d / 500.0) for d in vids["duration_ms"]
        ))
        assert len(out) == want_frames
        assert set(out["media_id"]) == set(vids["media_id"])
        # frame timestamps are fps-spaced and within duration
        g = out[out["media_id"] == vids["media_id"].iloc[0]]
        assert g["ts_ms"].tolist() == [i * 500 for i in range(len(g))]

    def test_real_mode_availability(self, ray_session):
        """r3/r4: BOTH real modes work via the stdlib codecs — resize
        (PNG/BMP) and frame-sample (AVI); drive the real frame sampler
        end-to-end over the actor pool."""
        import ray.data as rd

        from record_matcher_ray.stages.multimodal import (
            MediaResizer,
            sample_frames,
            synth_media_table,
        )

        MediaResizer(mode="real")  # constructs without PIL
        tbl = synth_media_table(n=12, seed=9, real_payloads=True)
        out = sample_frames(
            rd.from_arrow(tbl), fps=4.0, mode="real", concurrency=2
        ).to_pandas()
        n_video = sum(1 for k in tbl["kind"].to_pylist() if k == "video")
        assert out["media_id"].nunique() == n_video
        # every sampled frame is a real decoded 8x8 RGB frame
        assert all(len(f) == 8 * 8 * 3 for f in out["frame"])


def test_filter_by_quantile_global_and_grouped(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import filter_by_quantile

    rng = np.random.RandomState(4)
    df = pd.DataFrame(
        {
            "id": np.arange(5_000, dtype=np.int64),
            "g": rng.choice(["a", "b"], size=5_000),
            "v": rng.randn(5_000) * 10,
        }
    )
    ds = rd.from_pandas(df).repartition(7)

    out = filter_by_quantile(ds, "v", 0.1, 0.9).to_pandas()
    lo = round(np.quantile(df["v"], 0.1, method="linear"), 6)
    hi = round(np.quantile(df["v"], 0.9, method="linear"), 6)
    expect = df[(df["v"] >= lo) & (df["v"] <= hi)]
    assert sorted(out["id"]) == sorted(expect["id"])

    outg = filter_by_quantile(ds, "v", 0.25, 0.75, group_cols=["g"]).to_pandas()
    keep = []
    for g, sub in df.groupby("g"):
        glo = round(np.quantile(sub["v"], 0.25, method="linear"), 6)
        ghi = round(np.quantile(sub["v"], 0.75, method="linear"), 6)
        keep += list(sub[(sub["v"] >= glo) & (sub["v"] <= ghi)]["id"])
    assert sorted(outg["id"]) == sorted(keep)

    with pytest.raises(ValueError):
        filter_by_quantile(ds, "v", 0.9, 0.1)


def test_latest_by_key_single_key(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import latest_by_key

    rng = np.random.RandomState(7)
    n = 4_000
    df = pd.DataFrame(
        {
            "rid": np.arange(n, dtype=np.int64),
            "key": rng.randint(0, 300, size=n).astype(np.int64),
            "version": rng.randint(0, 50, size=n).astype(np.int64),
            "payload": rng.randn(n),
        }
    )
    ds = rd.from_pandas(df).repartition(9)
    out = latest_by_key(ds, "key", "version", tie_col="rid").to_pandas()

    expect = df.sort_values(["key", "version", "rid"]).groupby("key").tail(1)
    out = out.sort_values("key").reset_index(drop=True)
    expect = expect.sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out[["rid", "key", "version", "payload"]],
        expect[["rid", "key", "version", "payload"]],
    )
    assert set(out.columns) == {"rid", "key", "version", "payload"}


def test_latest_by_key_string_multikey(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import latest_by_key

    rng = np.random.RandomState(11)
    n = 2_000
    df = pd.DataFrame(
        {
            "rid": np.arange(n, dtype=np.int64),
            "ka": rng.choice(["x", "y", "z"], size=n),
            "kb": rng.randint(0, 40, size=n).astype(np.int64),
            "ts": rng.randint(0, 10, size=n).astype(np.int64),
        }
    )
    ds = rd.from_pandas(df).repartition(5)
    out = latest_by_key(ds, ["ka", "kb"], "ts", tie_col="rid").to_pandas()

    expect = (
        df.sort_values(["ka", "kb", "ts", "rid"])
        .groupby(["ka", "kb"])
        .tail(1)
    )
    out = out.sort_values(["ka", "kb"]).reset_index(drop=True)
    expect = expect.sort_values(["ka", "kb"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out[["rid", "ka", "kb", "ts"]], expect[["rid", "ka", "kb", "ts"]]
    )

    with pytest.raises(ValueError):
        latest_by_key(ds, [], "ts")


def test_bloom_semi_join_exact(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import bloom_semi_join, semi_join

    rng = np.random.RandomState(17)
    big = pd.DataFrame(
        {"k": rng.randint(0, 5_000, size=20_000).astype(np.int64),
         "payload": np.arange(20_000, dtype=np.int64)}
    )
    # key side with duplicates (must not duplicate output rows)
    keyvals = np.concatenate([rng.choice(5_000, 800, replace=False)] * 2)
    keys = pd.DataFrame({"kk": keyvals.astype(np.int64)})

    ds = rd.from_pandas(big).repartition(7)
    kds = rd.from_pandas(keys).repartition(3)
    out = (
        bloom_semi_join(ds, kds, on="k", key_col="kk", bits_log2=14)
        .to_pandas()
        .sort_values("payload")
        .reset_index(drop=True)
    )
    want = (
        semi_join(ds, kds, on="k", key_col="kk")
        .to_pandas()
        .sort_values("payload")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[["k", "payload"]],
                                  want[["k", "payload"]])
    assert len(out) > 0


def test_snapshot_diff_statuses(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import snapshot_diff

    old = pd.DataFrame(
        {"doc_id": np.array([1, 2, 3, 4], np.int64),
         "text": ["same", "will change", "gone", "also same"]}
    )
    new = pd.DataFrame(
        {"doc_id": np.array([1, 2, 4, 5], np.int64),
         "text": ["same", "changed!", "also same", "brand new"]}
    )
    out = (
        snapshot_diff(rd.from_pandas(old).repartition(2),
                      rd.from_pandas(new).repartition(3))
        .to_pandas()
        .set_index("doc_id")["status"]
        .to_dict()
    )
    assert out == {1: "unchanged", 2: "changed", 3: "removed",
                   4: "unchanged", 5: "added"}


def test_winsorize_by_quantile(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import winsorize_by_quantile

    rng = np.random.RandomState(29)
    df = pd.DataFrame(
        {"id": np.arange(3_000, dtype=np.int64),
         "g": rng.choice(["a", "b"], size=3_000),
         "v": rng.randn(3_000) * 10}
    )
    ds = rd.from_pandas(df).repartition(5)
    out = (
        winsorize_by_quantile(ds, "v", 0.1, 0.9, group_cols=["g"])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    for g, sub in df.groupby("g"):
        lo = round(np.quantile(sub["v"], 0.1, method="linear"), 6)
        hi = round(np.quantile(sub["v"], 0.9, method="linear"), 6)
        want = np.minimum(np.maximum(sub.sort_values("id")["v"].to_numpy(),
                                     lo), hi)
        got = out[out["g"] == g].sort_values("id")["v"].to_numpy()
        np.testing.assert_allclose(got, want, rtol=0, atol=0)
    # row count preserved (clip, not filter) and band respected
    assert len(out) == len(df)

    with pytest.raises(ValueError):
        winsorize_by_quantile(ds, "v", 0.9, 0.1)


def test_rolling_mean_and_interarrival(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import (
        interarrival,
        rolling_mean,
    )

    rng = np.random.RandomState(31)
    n = 2_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 50, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**9, size=n).astype(np.int64),
         "value": rng.uniform(0, 100, size=n)}
    )
    ds = rd.from_pandas(df).repartition(6)

    out = (
        rolling_mean(ds, frame_rows=2)
        .to_pandas()
        .set_index("event_id")["roll_mean"]
    )
    gaps = (
        interarrival(ds).to_pandas().set_index("event_id")["delta_us"]
    )

    # pandas replay with the same cents quantization + (ts, id) order
    rep = df.copy()
    rep["c"] = np.floor(rep["value"] * 100.0 + 0.5).astype(np.int64)
    rep = rep.sort_values(["user_id", "ts", "event_id"])
    want_mean = (
        rep.groupby("user_id")["c"]
        .rolling(3, min_periods=1).mean().reset_index(level=0, drop=True)
        / 100.0
    ).round(6)
    want_gap = rep.groupby("user_id")["ts"].diff()
    for eid in rep["event_id"]:
        assert out[eid] == pytest.approx(want_mean[rep["event_id"] == eid
                                                   ].index.map(
            lambda i: want_mean.loc[i]).to_numpy()[0], abs=1e-9)
    got_gap = gaps[rep["event_id"]].to_numpy(dtype=float)
    np.testing.assert_array_equal(
        np.isnan(got_gap), want_gap.isna().to_numpy()
    )
    m = ~want_gap.isna().to_numpy()
    np.testing.assert_array_equal(got_gap[m],
                                  want_gap.to_numpy(dtype=float)[m])


def test_transition_counts_vs_pandas(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.relational import transition_counts

    monkeypatch.setattr(exchange, "_ROWS_PER_CALL", 64)  # many calls/task

    rng = np.random.RandomState(47)
    n = 3_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 80, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**6, size=n).astype(np.int64),
         "event_type": rng.choice(["view", "click", "buy", "err"], size=n)}
    )
    ds = rd.from_pandas(df).repartition(7)
    got = (
        transition_counts(ds)
        .to_pandas()
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )

    rep = df.sort_values(["user_id", "ts", "event_id"])
    src = rep.groupby("user_id")["event_type"].shift()
    want = (
        pd.DataFrame({"src": src, "dst": rep["event_type"]})
        .dropna()
        .groupby(["src", "dst"], as_index=False)
        .size()
        .rename(columns={"size": "n"})
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, want, check_dtype=False, check_like=True
    )


def test_transition_counts_string_keys(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.relational import transition_counts

    monkeypatch.setattr(exchange, "default_tasks", lambda: 4)

    df = pd.DataFrame(
        {"event_id": [1, 2, 3, 4, 5],
         "user_id": ["a", "a", "b", "b", "a"],
         "ts": [10, 20, 5, 6, 30],
         "event_type": ["x", "y", "x", "x", "y"]}
    )
    got = (
        transition_counts(rd.from_pandas(df))
        .to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"src": ["x", "x", "y"], "dst": ["x", "y", "y"], "n": [1, 1, 1]}
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rollup_aggregate_vs_pandas(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import cube_aggregate

    rng = np.random.RandomState(53)
    n = 5_000
    df = pd.DataFrame(
        {"s": rng.choice(["O", "F", "P"], size=n),
         "p": rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM"], size=n),
         "v": rng.uniform(1, 1000, size=n)}
    )
    out = cube_aggregate(
        rd.from_pandas(df).repartition(9), ["s", "p"], "v", rollup=True
    ).to_pandas().sort_values(["s", "p"]).reset_index(drop=True)

    cents = np.floor(df["v"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    rep = df.assign(c=cents)
    fine = rep.groupby(["s", "p"], as_index=False).agg(
        n=("c", "size"), c=("c", "sum"))
    lv1 = fine.groupby("s", as_index=False).agg(
        n=("n", "sum"), c=("c", "sum")).assign(p="ALL")
    lv0 = pd.DataFrame({"s": ["ALL"], "p": ["ALL"],
                        "n": [fine["n"].sum()], "c": [fine["c"].sum()]})
    want = pd.concat([fine, lv1, lv0], ignore_index=True)
    want["sum_val"] = np.round(want["c"].to_numpy().astype(float) / 100.0, 6)
    want = want.drop(columns=["c"]).sort_values(["s", "p"]).reset_index(
        drop=True)[["s", "p", "n", "sum_val"]]
    pd.testing.assert_frame_equal(
        out[["s", "p", "n", "sum_val"]], want, check_dtype=False
    )

    with pytest.raises(ValueError):
        cube_aggregate(rd.from_pandas(df), [], "v", rollup=True)
    with pytest.raises(ValueError):
        bad = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]}))
        cube_aggregate(bad, ["k"], "v")


@pytest.mark.parametrize("scorer, col, kernel", [
    ("jaro_winkler", "jw_sim", "jaro_winkler_matrix"),
    ("levenshtein", "lev_sim", "levenshtein_matrix"),
])
def test_supplier_nation_cross_scorers(ray_session, scorer, col, kernel):
    from record_matcher_ray.contract.shared import SF001
    from record_matcher_ray.functions import scorers
    from record_matcher_ray.pipelines.relational import supplier_nation_cross

    sup = pd.read_parquet(f"{SF001}/supplier.parquet")
    nat = pd.read_parquet(f"{SF001}/nation.parquet")
    out = supplier_nation_cross(SF001, scorer=scorer)
    assert list(out.columns) == ["s_suppkey", "n_nationkey", col]
    m = getattr(scorers, kernel)(sup["s_name"].to_numpy(object),
                                 nat["n_name"].to_numpy(object))
    want = pd.DataFrame({
        "s_suppkey": np.repeat(sup["s_suppkey"].to_numpy(), len(nat)),
        "n_nationkey": np.tile(nat["n_nationkey"].to_numpy(), len(sup)),
        col: np.round(m.ravel(), 6),
    }).sort_values(["s_suppkey", "n_nationkey"], ignore_index=True)
    pd.testing.assert_frame_equal(
        out.sort_values(["s_suppkey", "n_nationkey"], ignore_index=True),
        want, check_dtype=False,
    )
    with pytest.raises(ValueError):
        supplier_nation_cross(SF001, scorer="cosine")


def test_distinct_count_by_exact(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import distinct_count_by

    rng = np.random.RandomState(11)
    n = 4_000
    df = pd.DataFrame(
        {"g": rng.choice(["a", "b", "c", "d"], size=n),
         "v": rng.randint(0, 300, size=n).astype(np.int64)}
    )
    got = (
        distinct_count_by(rd.from_pandas(df).repartition(8), "g", "v")
        .to_pandas().set_index("g")["n_distinct"]
    )
    want = df.groupby("g")["v"].nunique()
    for g in want.index:
        assert got[g] == want[g]


def test_histogram_matches_numpy(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import histogram

    rng = np.random.RandomState(13)
    vals = np.concatenate([rng.uniform(-50, 200, 3_000), [-0.004, 0.004]])
    df = pd.DataFrame({"v": vals})
    got = (
        histogram(rd.from_pandas(df).repartition(6), "v", width_cents=700)
        .to_pandas().set_index("bin").sort_index()
    )
    c = np.floor(vals * 100.0 + 0.5).astype(np.int64)
    b = c // 700  # numpy floor-div (negatives round toward -inf)
    want = pd.Series(b).value_counts().sort_index()
    assert list(got.index) == list(want.index)
    np.testing.assert_array_equal(got["n"].to_numpy(), want.to_numpy())
    np.testing.assert_allclose(
        got["lo"].to_numpy(),
        np.round((want.index.to_numpy() * 700).astype(float) / 100.0, 6),
    )
    with pytest.raises(ValueError):
        histogram(rd.from_pandas(df), "v", width_cents=0)


def test_ntile_by_group_distribution(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import ntile_by_group

    rng = np.random.RandomState(17)
    n = 2_500
    df = pd.DataFrame(
        {"id": np.arange(n, dtype=np.int64),
         "g": rng.choice(["x", "y", "z"], size=n),
         "v": rng.uniform(0, 100, size=n)}
    )
    # a tiny group (n < k) exercises the q == 0 branch
    df = pd.concat(
        [df, pd.DataFrame({"id": [n, n + 1], "g": ["tiny"] * 2,
                           "v": [1.0, 2.0]})],
        ignore_index=True,
    )
    got = (
        ntile_by_group(rd.from_pandas(df).repartition(7), "g", "v", "id",
                       k=4)
        .to_pandas().set_index("id")["tile"]
    )
    c = np.floor(df["v"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    rep = df.assign(c=c).sort_values(["g", "c", "id"])
    for g, grp in rep.groupby("g"):
        m = len(grp)
        q, rem = divmod(m, 4)
        want = []
        for r in range(m):
            if r < rem * (q + 1):
                want.append(r // (q + 1) + 1)
            else:
                want.append(rem + (r - rem * (q + 1)) // q + 1)
        np.testing.assert_array_equal(
            got[grp["id"]].to_numpy(), np.array(want)
        )
    assert sorted(got[df.loc[df["g"] == "tiny", "id"]].tolist()) == [1, 2]


def test_value_intervals_runs(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.relational import value_intervals

    monkeypatch.setattr(exchange, "default_tasks", lambda: 4)

    df = pd.DataFrame(
        {"event_id": [1, 2, 3, 4, 5, 6, 7],
         "user_id": [10, 10, 10, 10, 20, 20, 30],
         "ts": [100, 200, 300, 400, 50, 60, 5],
         "event_type": ["a", "a", "b", "a", "x", "x", "z"]}
    )
    out = (
        value_intervals(rd.from_pandas(df).repartition(3))
        .to_pandas()
        .sort_values(["user_id", "valid_from"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"user_id": [10, 10, 10, 20, 30],
         "val": ["a", "b", "a", "x", "z"],
         "valid_from": [100, 300, 400, 50, 5],
         "valid_to": [300.0, 400.0, None, None, None]}
    )
    assert out["user_id"].tolist() == want["user_id"].tolist()
    assert out["val"].tolist() == want["val"].tolist()
    assert out["valid_from"].tolist() == want["valid_from"].tolist()
    got_to = out["valid_to"].to_numpy(dtype=float)
    np.testing.assert_array_equal(np.isnan(got_to),
                                  want["valid_to"].isna().to_numpy())
    m = ~want["valid_to"].isna().to_numpy()
    np.testing.assert_array_equal(
        got_to[m], want["valid_to"].to_numpy(dtype=float)[m]
    )


def test_value_intervals_vs_pandas_random(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import value_intervals

    rng = np.random.RandomState(23)
    n = 3_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 60, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**6, size=n).astype(np.int64),
         "event_type": rng.choice(["a", "b", "c"], size=n)}
    )
    out = (
        value_intervals(rd.from_pandas(df).repartition(6))
        .to_pandas().sort_values(["user_id", "valid_from", "val"])
        .reset_index(drop=True)
    )
    rep = df.sort_values(["user_id", "ts", "event_id"])
    new = (rep["user_id"].ne(rep["user_id"].shift())
           | rep["event_type"].ne(rep["event_type"].shift()))
    runs = rep[new].copy()
    nxt = runs.groupby("user_id")["ts"].shift(-1)
    want = pd.DataFrame(
        {"user_id": runs["user_id"], "val": runs["event_type"],
         "valid_from": runs["ts"], "valid_to": nxt}
    ).sort_values(["user_id", "valid_from", "val"]).reset_index(drop=True)
    assert len(out) == len(want)
    np.testing.assert_array_equal(out["user_id"], want["user_id"])
    np.testing.assert_array_equal(out["val"], want["val"])
    np.testing.assert_array_equal(out["valid_from"], want["valid_from"])
    np.testing.assert_array_equal(
        out["valid_to"].isna(), want["valid_to"].isna()
    )
    m = ~want["valid_to"].isna()
    np.testing.assert_array_equal(
        out.loc[m, "valid_to"].to_numpy(dtype=float),
        want.loc[m, "valid_to"].to_numpy(dtype=float),
    )


def test_pivot_counts(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import pivot_counts

    rng = np.random.RandomState(31)
    n = 2_000
    df = pd.DataFrame(
        {"r": rng.choice(["x", "y"], size=n),
         "c": rng.choice(["p", "q", "zz"], size=n)}
    )
    out = pivot_counts(
        rd.from_pandas(df).repartition(5), "r", "c", ["p", "q"]
    ).to_pandas().set_index("r").sort_index()
    ct = pd.crosstab(df["r"], df["c"])
    for r in ["x", "y"]:
        assert out.loc[r, "n_p"] == ct.loc[r, "p"]
        assert out.loc[r, "n_q"] == ct.loc[r, "q"]
        assert out.loc[r, "n_other"] == ct.loc[r, "zz"]
    with pytest.raises(ValueError):
        pivot_counts(rd.from_pandas(df), "r", "c", [])
    with pytest.raises(ValueError):
        pivot_counts(rd.from_pandas(df), "r", "c", ["a-b", "a_b"])


def test_time_weighted_avg(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import time_weighted_avg

    rng = np.random.RandomState(37)
    n = 2_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 40, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**9, size=n).astype(np.int64),
         "value": rng.uniform(-20, 100, size=n)}
    )
    # a single-event key (omitted) and a zero-duration key (NULL twap)
    df = pd.concat(
        [df,
         pd.DataFrame({"event_id": [n, n + 1, n + 2],
                       "user_id": [900, 901, 901],
                       "ts": [5, 7, 7], "value": [1.0, 2.0, 3.0]})],
        ignore_index=True,
    )
    out = (
        time_weighted_avg(rd.from_pandas(df).repartition(7))
        .to_pandas().set_index("user_id")["twap"]
    )
    assert 900 not in out.index
    assert np.isnan(out[901])

    c = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    rep = df.assign(c=c).sort_values(["user_id", "ts", "event_id"])
    for u, grp in rep.groupby("user_id"):
        if len(grp) < 2 or u == 901 or u == 900:
            continue
        ts = grp["ts"].to_numpy()
        cc = grp["c"].to_numpy()
        s = int(np.sum(cc[:-1].astype(object) * (ts[1:] - ts[:-1])))
        t = int(ts[-1] - ts[0])
        want = round((float(s) / float(t)) / 100.0, 6)
        assert out[u] == pytest.approx(want, abs=1e-12)


def test_time_weighted_avg_bigint_fallback(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import time_weighted_avg

    # huge gaps × large cents force the per-key big-int fallback:
    # |c·gap| ≈ 3e5 cents · 4e12 µs = 1.2e18 per term × 8 terms > 2^62
    n = 9
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": np.zeros(n, dtype=np.int64),
         "ts": (np.arange(n, dtype=np.int64) * 4 * 10**12),
         "value": np.full(n, 3000.0)}
    )
    out = time_weighted_avg(rd.from_pandas(df)).to_pandas()
    # constant value → twap equals the value exactly
    assert out["twap"].iloc[0] == pytest.approx(3000.0, abs=1e-9)


class TestResampleCounts:
    def test_gap_fill_manual(self, ray_session):
        import datetime as dt

        import ray
        import ray.data

        from record_matcher_ray.pipelines.relational import resample_counts

        day = 86_400_000_000
        base = dt.datetime(2024, 1, 10)
        rows = [
            {"user_id": 1, "ts": base},
            {"user_id": 1, "ts": base + dt.timedelta(hours=3)},
            {"user_id": 1, "ts": base + dt.timedelta(days=3)},  # gap of 2
            {"user_id": 2, "ts": base + dt.timedelta(days=5)},
        ]
        out = (
            resample_counts(
                ray.data.from_items(rows, override_num_blocks=3),
                window_us=day,
            )
            .to_pandas()
            .sort_values(["user_id", "win"])
            .reset_index(drop=True)
        )
        u1 = out[out.user_id == 1]
        assert list(u1["n_events"]) == [2, 0, 0, 1]  # 4 consecutive days
        assert list(u1["win"].diff().dropna()) == [1, 1, 1]
        u2 = out[out.user_id == 2]
        assert len(u2) == 1 and u2["n_events"].iloc[0] == 1

    def test_partition_invariance_and_validation(self, ray_session):
        import datetime as dt

        import pytest as _pytest

        import ray
        import ray.data

        from record_matcher_ray.pipelines.relational import resample_counts

        base = dt.datetime(2024, 1, 1)
        rows = [
            {"user_id": i % 7, "ts": base + dt.timedelta(hours=5 * i)}
            for i in range(300)
        ]
        outs = []
        for blocks in (1, 11):
            outs.append(
                resample_counts(
                    ray.data.from_items(rows, override_num_blocks=blocks)
                )
                .to_pandas()
                .sort_values(["user_id", "win"])
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        with _pytest.raises(ValueError):
            resample_counts(ray.data.from_items(rows), window_us=0)

    def test_expansion_cap(self, ray_session):
        import datetime as dt

        import pytest as _pytest

        import ray
        import ray.data

        from record_matcher_ray.pipelines.relational import resample_counts

        rows = [
            {"user_id": 1, "ts": dt.datetime(2020, 1, 1)},
            {"user_id": 1, "ts": dt.datetime(2024, 1, 1)},
        ]
        with _pytest.raises(Exception, match="max_rows_per_bucket"):
            resample_counts(
                ray.data.from_items(rows),
                window_us=1_000_000,  # ~126M seconds span
                max_rows_per_bucket=1000,
            ).to_pandas()


class TestRobustZscore:
    def test_manual_and_outlier_resistance(self, ray_session):
        import ray
        import ray.data

        from record_matcher_ray.pipelines.stats import robust_zscore

        # group a: values 1..7 plus a huge outlier; med=4.5c=450,
        # deviations in cents: [350,250,150,50,50,150,250,99996550]
        # sorted -> MAD = (150+250)/2 = 200 cents
        vals = [1, 2, 3, 4, 5, 6, 7, 1_000_000]
        rows = [
            {"event_id": i, "event_type": "a", "value": float(v)}
            for i, v in enumerate(vals)
        ]
        rows += [
            {"event_id": 100 + i, "event_type": "b", "value": 5.0}
            for i in range(3)
        ]
        out = (
            robust_zscore(
                ray.data.from_items(rows, override_num_blocks=4),
                "event_type", "value", "event_id",
            )
            .to_pandas()
            .set_index("event_id")
        )
        # med = 450 cents, mad = 200 cents
        assert out.loc[0, "robust_z"] == (100 - 450) / 200
        assert out.loc[3, "robust_z"] == (400 - 450) / 200
        # outlier itself is huge but finite
        assert out.loc[7, "robust_z"] == (100_000_000 - 450) / 200
        # constant group: MAD == 0 -> NULL
        assert out.loc[100:102, "robust_z"].isna().all()

    def test_partition_invariance(self, ray_session):
        import numpy as np
        import ray
        import ray.data

        from record_matcher_ray.pipelines.stats import robust_zscore

        rng = np.random.RandomState(3)
        rows = [
            {"event_id": i, "event_type": ["x", "y", "z"][i % 3],
             "value": float(np.round(rng.uniform(-50, 50), 2))}
            for i in range(400)
        ]
        outs = []
        for blocks in (1, 13):
            outs.append(
                robust_zscore(
                    ray.data.from_items(rows, override_num_blocks=blocks),
                    "event_type", "value", "event_id",
                )
                .to_pandas()
                .sort_values("event_id")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestRunningTotal:
    def test_manual_and_invariance(self, ray_session):
        import datetime as dt

        import ray.data

        from record_matcher_ray.pipelines.relational import running_total

        base = dt.datetime(2024, 1, 1)
        rows = [
            {"event_id": i, "user_id": i % 2,
             "ts": base + dt.timedelta(minutes=i), "value": float(i) + 0.25}
            for i in range(10)
        ]
        out = (
            running_total(ray.data.from_items(rows, override_num_blocks=4))
            .to_pandas()
            .set_index("event_id")
        )
        # user 0 gets events 0,2,4,...: totals 0.25, 2.5, 6.75, ...
        assert out.loc[0, "run_total"] == 0.25
        assert out.loc[2, "run_total"] == 0.25 + 2.25
        assert out.loc[4, "run_total"] == 0.25 + 2.25 + 4.25
        assert out.loc[1, "run_total"] == 1.25
        assert out.loc[3, "run_total"] == 1.25 + 3.25
        a = (
            running_total(ray.data.from_items(rows, override_num_blocks=1))
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        b = (
            running_total(ray.data.from_items(rows, override_num_blocks=7))
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestPercentRank:
    def test_matches_duckdb(self, ray_session):
        import duckdb

        import ray.data

        from record_matcher_ray.pipelines.relational import percent_rank_by_group

        rng = np.random.RandomState(5)
        rows = [
            {"id": i, "g": ["a", "b", "c"][i % 3],
             "v": float(rng.randint(0, 8))}  # plenty of ties
            for i in range(100)
        ] + [{"id": 1000, "g": "solo", "v": 42.0}]
        out = (
            percent_rank_by_group(
                ray.data.from_items(rows, override_num_blocks=6),
                "g", "v", "id",
            )
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        con = duckdb.connect()
        exp = con.execute(
            """
            SELECT id, g,
                   percent_rank() OVER (PARTITION BY g ORDER BY v)
                     AS pct_rank
            FROM (SELECT unnest(?) AS id, unnest(?) AS g, unnest(?) AS v)
            ORDER BY id
            """,
            [[r["id"] for r in rows], [r["g"] for r in rows],
             [r["v"] for r in rows]],
        ).df()
        assert list(out["pct_rank"]) == list(exp["pct_rank"])
        assert out[out.id == 1000]["pct_rank"].iloc[0] == 0.0


class TestModeByGroup:
    def test_tie_break_and_merge(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.table_ops import mode_by_group

        rows = (
            [{"g": "x", "v": "b"}] * 3
            + [{"g": "x", "v": "a"}] * 3  # tie -> 'a' (smaller)
            + [{"g": "x", "v": "z"}]
            + [{"g": "y", "v": "q"}] * 2
            + [{"g": "y", "v": "p"}]
        )
        out = (
            mode_by_group(
                ray.data.from_items(rows, override_num_blocks=5), "g", "v"
            )
            .to_pandas().set_index("g")
        )
        assert out.loc["x", "mode_val"] == "a" and out.loc["x", "n_mode"] == 3
        assert out.loc["y", "mode_val"] == "q" and out.loc["y", "n_mode"] == 2


class TestRollingActive:
    def test_manual_wau(self, ray_session):
        import datetime as dt

        import ray.data

        from record_matcher_ray.pipelines.relational import rolling_active

        base = dt.datetime(2024, 1, 1)

        def ev(user, day):
            return {"user_id": user, "ts": base + dt.timedelta(days=day)}

        # user 1 active days 0 and 10; user 2 active day 2
        rows = [ev(1, 0), ev(1, 0), ev(1, 10), ev(2, 2)]
        out = rolling_active(
            ray.data.from_items(rows, override_num_blocks=3), window_days=3
        ).set_index("day")
        d0 = out.index.min()
        # window [day-2, day] — day 0: {1}; day 1: {1}; day 2: {1,2};
        # day 3: {2}; day 4: {2}; day 5..9: {}; day 10: {1}
        assert list(out["n_active"]) == [1, 1, 2, 1, 1, 0, 0, 0, 0, 0, 1]
        assert len(out) == 11 and out.loc[d0 + 10, "n_active"] == 1

    def test_window1_is_dau_and_invariance(self, ray_session):
        import datetime as dt

        import ray.data

        from record_matcher_ray.pipelines.relational import rolling_active

        rng = np.random.RandomState(11)
        base = dt.datetime(2024, 3, 1)
        rows = [
            {"user_id": int(rng.randint(0, 9)),
             "ts": base + dt.timedelta(hours=int(rng.randint(0, 24 * 14)))}
            for _ in range(300)
        ]
        outs = []
        for blocks in (1, 9):
            outs.append(
                rolling_active(
                    ray.data.from_items(rows, override_num_blocks=blocks),
                    window_days=1,
                )
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        # window=1 == plain distinct users per day
        df = pd.DataFrame(rows)
        day = (df["ts"].astype("int64") // (86_400_000_000 * 1000)).astype(
            "int64"
        )
        dau = (
            pd.DataFrame({"day": day, "u": df["user_id"]})
            .groupby("day")["u"].nunique()
        )
        got = outs[0].set_index("day")["n_active"]
        for d, v in dau.items():
            assert got.loc[d] == v


class TestScriptProfile:
    def test_mixed_scripts(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.analysis import script_profile

        rows = [
            {"doc_id": 0, "text": "abc XYZ 123\tпривет 漢字 !"},
            {"doc_id": 1, "text": ""},
            {"doc_id": 2, "text": None},
        ]
        out = (
            script_profile(ray.data.from_items(rows))
            .to_pandas().set_index("doc_id")
        )
        r = out.loc[0]
        assert r["n_latin"] == 6
        assert r["n_digit"] == 3
        assert r["n_space"] == 5  # 4 spaces + 1 tab
        assert r["n_cyrillic"] == 6
        assert r["n_cjk"] == 2
        assert r["n_other"] == 1  # the '!'
        assert r["n_chars_obs"] == 23
        assert (out.loc[1] == 0).all() and (out.loc[2] == 0).all()


class TestGlobalRowNumber:
    def test_dense_and_invariance(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.relational import global_row_number

        rng = np.random.RandomState(2)
        rows = [
            {"id": i, "v": float(rng.randint(0, 20))} for i in range(500)
        ]
        for blocks in (1, 16):
            out = (
                global_row_number(
                    ray.data.from_items(rows, override_num_blocks=blocks),
                    ["v", "id"],
                )
                .to_pandas().sort_values("rn").reset_index(drop=True)
            )
            # dense 1..n, and ordered by (v, id)
            assert list(out["rn"]) == list(range(1, 501))
            assert (
                out[["v", "id"]].apply(tuple, axis=1).is_monotonic_increasing
            )

    def test_validation(self, ray_session):
        import pytest as _pytest

        import ray.data

        from record_matcher_ray.pipelines.relational import global_row_number

        with _pytest.raises(ValueError):
            global_row_number(ray.data.from_items([{"a": 1}]), [])


class TestSequencePatternCounts:
    def test_manual(self, ray_session):
        import datetime as dt

        import ray.data

        from record_matcher_ray.pipelines.relational import (
            sequence_pattern_counts,
        )

        base = dt.datetime(2024, 1, 1)
        seqs = {1: "ccpvcp", 2: "pcc", 3: "vvv"}
        rows = []
        names = {"c": "click", "p": "purchase", "v": "view"}
        eid = 0
        for u, s in seqs.items():
            for i, ch in enumerate(s):
                rows.append(
                    {"event_id": eid, "user_id": u,
                     "ts": base + dt.timedelta(minutes=i),
                     "event_type": names[ch]}
                )
                eid += 1
        # also an unmapped type that must be dropped from sequences
        rows.append({"event_id": eid, "user_id": 1, "ts": base,
                     "event_type": "signup"})
        out = (
            sequence_pattern_counts(
                ray.data.from_items(rows, override_num_blocks=4),
                "c+p", {"click": "c", "purchase": "p", "view": "v"},
            )
            .to_pandas().set_index("user_id")
        )
        assert out.loc[1, "n_matches"] == 2 and out.loc[1, "seq_len"] == 6
        assert out.loc[2, "n_matches"] == 0
        assert out.loc[3, "n_matches"] == 0

    def test_validation(self, ray_session):
        import pytest as _pytest

        import ray.data

        from record_matcher_ray.pipelines.relational import (
            sequence_pattern_counts,
        )

        with _pytest.raises(ValueError):
            sequence_pattern_counts(
                ray.data.from_items([{"a": 1}]), "x", {"t": "xy"}
            )


class TestExplodeList:
    def test_manual(self, ray_session):
        import pyarrow as pa

        import ray.data

        from record_matcher_ray.pipelines.table_ops import explode_list

        t = pa.table(
            {"id": [1, 2, 3, 4],
             "l": pa.array([[10, 20], [], None, [7]],
                           pa.list_(pa.int64()))}
        )
        out = (
            explode_list(ray.data.from_arrow(t), "l", "id")
            .to_pandas().sort_values(["id", "pos"]).reset_index(drop=True)
        )
        assert list(out["id"]) == [1, 1, 4]
        assert list(out["pos"]) == [0, 1, 0]
        assert list(out["val"]) == [10, 20, 7]

    def test_partition_invariance(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.table_ops import explode_list

        rows = [{"id": i, "l": list(range(i % 5))} for i in range(100)]
        outs = []
        for blocks in (1, 9):
            outs.append(
                explode_list(
                    ray.data.from_items(rows, override_num_blocks=blocks),
                    "l", "id",
                )
                .to_pandas().sort_values(["id", "pos"])
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestLabelCentroidCosine:
    def test_matches_numpy_and_invariance(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.similarity import (
            label_centroid_cosine,
        )

        rng = np.random.RandomState(9)
        rows = [
            {"label": int(i % 4),
             "embedding": [float(x) for x in rng.uniform(-1, 1, 8)]}
            for i in range(120)
        ]
        outs = []
        for blocks in (1, 7):
            outs.append(
                label_centroid_cosine(
                    ray.data.from_items(rows, override_num_blocks=blocks)
                )
            )
        pd.testing.assert_frame_equal(outs[0], outs[1])
        out = outs[0].set_index(["label_a", "label_b"])
        # self-similarity is exactly 1
        for lab in range(4):
            assert out.loc[(lab, lab), "cos_sim"] == 1.0
        # numpy cross-check (quantized, tolerance for the rounding)
        q = {lab: np.zeros(8) for lab in range(4)}
        for r in rows:
            q[r["label"]] += np.floor(
                np.asarray(r["embedding"]) * (1 << 20) + 0.5
            )
        for a in range(4):
            for b in range(a, 4):
                exp = q[a] @ q[b] / (
                    np.linalg.norm(q[a]) * np.linalg.norm(q[b])
                )
                assert abs(out.loc[(a, b), "cos_sim"] - exp) < 1e-5


class TestSortedNeighborhoodPairs:
    @staticmethod
    def _brute(rows, window):
        srt = sorted(rows, key=lambda r: (r["v"], r["id"]))
        out = set()
        for i in range(len(srt)):
            for j in range(i + 1, min(i + window, len(srt))):
                out.add((srt[i]["id"], srt[j]["id"], j - i))
        return out

    def test_matches_brute_force_and_partition_invariant(
        self, ray_session, monkeypatch
    ):
        import ray.data

        import record_matcher_ray.pipelines.relational as rel
        from record_matcher_ray.core import exchange
        from record_matcher_ray.pipelines.linkage import (
            sorted_neighborhood_pairs,
        )

        rng = np.random.RandomState(7)
        rows = [
            {"id": i, "v": float(rng.randint(0, 30))} for i in range(300)
        ]
        want = self._brute(rows, 6)
        # sort_cols already ending with id_col are not sorted on twice
        sorts = []

        def spy(ds, order_cols, **kw):
            sorts.append(list(order_cols))
            return grn(ds, order_cols, **kw)

        grn = rel.global_row_number
        monkeypatch.setattr(rel, "global_row_number", spy)
        monkeypatch.setattr(exchange, "default_tasks", lambda: 7)
        for blocks in (1, 16):
            out = sorted_neighborhood_pairs(
                ray.data.from_items(rows, override_num_blocks=blocks),
                ["v", "id"], "id", window=6,
            ).to_pandas()
            got = set(
                zip(out["x_id"], out["y_id"], out["gap"])
            )
            assert got == want
            assert len(out) == len(want)  # each pair exactly once
        assert sorts == [["v", "id"]] * 2

    def test_window_larger_than_input(self, ray_session):
        import ray.data

        from record_matcher_ray.pipelines.linkage import (
            sorted_neighborhood_pairs,
        )

        rows = [{"id": i, "v": i} for i in range(3)]
        out = sorted_neighborhood_pairs(
            ray.data.from_items(rows), ["v", "id"], "id", window=10,
        ).to_pandas()
        assert len(out) == 3  # C(3,2)
        assert set(out["gap"]) == {1, 2}

    def test_validation_and_empty(self, ray_session):
        import pytest as _pytest

        import ray.data

        from record_matcher_ray.pipelines.linkage import (
            sorted_neighborhood_pairs,
        )

        with _pytest.raises(ValueError):
            sorted_neighborhood_pairs(
                ray.data.from_items([{"id": 1}]), ["id"], "id", window=1
            )
        empty = ray.data.from_items(
            [{"id": 1, "v": 2}]
        ).filter(lambda r: False)
        out = sorted_neighborhood_pairs(empty, ["v", "id"], "id", window=3)
        # stable schema even for zero rows (to_pandas drops columns on an
        # empty from_arrow dataset — assert on the Dataset schema)
        assert out.schema().names == ["x_id", "y_id", "gap"]
        assert out.count() == 0


class TestParetoFrontier:
    @staticmethod
    def _brute(df, maximize=(True, True)):
        sx = 1 if maximize[0] else -1
        sy = 1 if maximize[1] else -1
        x = sx * df["x"].to_numpy()
        y = sy * df["y"].to_numpy()
        keep = []
        for i in range(len(df)):
            dominated = (
                (x >= x[i]) & (y >= y[i]) & ((x > x[i]) | (y > y[i]))
            ).any()
            if not dominated:
                keep.append(df["id"].iloc[i])
        return sorted(keep)

    def test_matches_bruteforce_with_ties(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.table_ops import pareto_frontier

        rng = np.random.RandomState(7)
        df = pd.DataFrame(
            {
                "id": np.arange(800, dtype=np.int64),
                # small integer grid → lots of ties and duplicate points
                "x": rng.randint(0, 25, 800).astype(np.int64),
                "y": rng.randint(0, 25, 800).astype(np.int64),
            }
        )
        ds = rd.from_pandas(df).repartition(9)
        for mx in [(True, True), (True, False), (False, True),
                   (False, False)]:
            out = pareto_frontier(ds, "x", "y", maximize=mx).to_pandas()
            assert sorted(out["id"]) == self._brute(df, mx), mx

    def test_nulls_dropped_and_floats(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.table_ops import pareto_frontier

        rng = np.random.RandomState(11)
        df = pd.DataFrame(
            {
                "id": np.arange(400, dtype=np.int64),
                "x": rng.randn(400),
                "y": rng.randn(400),
            }
        )
        df.loc[::17, "x"] = np.nan
        ds = rd.from_pandas(df).repartition(5)
        out = pareto_frontier(ds, "x", "y").to_pandas()
        clean = df[df["x"].notna()].reset_index(drop=True)
        assert sorted(out["id"]) == self._brute(clean)

    def test_empty_and_cap(self, ray_session):
        import pytest as _pytest

        import ray.data as rd

        from record_matcher_ray.pipelines.table_ops import pareto_frontier

        empty = rd.from_items([{"id": 1, "x": 1.0, "y": 2.0}]).filter(
            lambda r: False
        )
        assert pareto_frontier(empty, "x", "y").count() == 0

        # anti-correlated line: every point survives → cap trips
        df = pd.DataFrame(
            {
                "id": np.arange(100, dtype=np.int64),
                "x": np.arange(100, dtype=np.int64),
                "y": -np.arange(100, dtype=np.int64),
            }
        )
        ds = rd.from_pandas(df).repartition(4)
        with _pytest.raises(ValueError, match="max_partial_rows"):
            pareto_frontier(ds, "x", "y", max_partial_rows=50)


def test_ewma_by_key(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import ewma_by_key

    rng = np.random.RandomState(91)
    n = 3_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 50, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**9, size=n).astype(np.int64),
         "value": rng.uniform(-50, 50, size=n)}
    )
    df.loc[5, "value"] = np.nan  # dropped both sides
    out = (
        ewma_by_key(rd.from_pandas(df).repartition(9), alpha=0.3)
        .to_pandas().set_index("user_id")
    )
    rep = df.dropna(subset=["value"]).sort_values(
        ["user_id", "ts", "event_id"]
    )
    a, b = 0.3, 1.0 - 0.3
    for u, grp in rep.groupby("user_id"):
        xs = grp["value"].to_numpy()
        s = xs[0]
        for x in xs[1:]:
            s = a * x + b * s
        want = (np.floor(s * 1e6 + 0.5) if s >= 0
                else -np.floor(-s * 1e6 + 0.5)) / 1e6
        assert out.loc[u, "n"] == len(xs)
        assert out.loc[u, "ewma"] == want  # bit-exact pinned fold
    assert len(out) == rep["user_id"].nunique()


def test_ewma_single_event_and_empty(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import ewma_by_key

    df = pd.DataFrame(
        {"event_id": [1], "user_id": [7], "ts": [100], "value": [3.25]}
    )
    out = ewma_by_key(rd.from_pandas(df)).to_pandas()
    assert out["ewma"].tolist() == [3.25] and out["n"].tolist() == [1]

    empty = df.iloc[:0]
    out2 = ewma_by_key(rd.from_pandas(empty)).to_pandas()
    assert len(out2) == 0


def test_cusum_by_key(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import cusum_by_key

    rng = np.random.RandomState(17)
    n = 2_000
    df = pd.DataFrame(
        {"event_id": np.arange(n, dtype=np.int64),
         "user_id": rng.randint(0, 40, size=n).astype(np.int64),
         "ts": rng.randint(0, 10**9, size=n).astype(np.int64),
         "value": rng.uniform(-3, 3, size=n)}
    )
    df.loc[11, "value"] = np.nan  # dropped both sides
    out = (
        cusum_by_key(rd.from_pandas(df).repartition(7),
                     target=0.5, slack=0.25, threshold=4.0)
        .to_pandas().set_index("user_id")
    )
    rep = df.dropna(subset=["value"]).sort_values(
        ["user_id", "ts", "event_id"]
    )
    tg, k, h = 0.5, 0.25, 4.0

    def r6(v):
        return (np.floor(v * 1e6 + 0.5) if v >= 0
                else -np.floor(-v * 1e6 + 0.5)) / 1e6

    for u, grp in rep.groupby("user_id"):
        hi = lo = 0.0
        for x in grp["value"].to_numpy():
            hi = max(0.0, hi + x - tg - k)
            lo = max(0.0, lo - x + tg - k)
        assert out.loc[u, "cusum_hi"] == r6(hi)  # bit-exact pinned fold
        assert out.loc[u, "cusum_lo"] == r6(lo)
        assert out.loc[u, "alarm"] == int(hi > h or lo > h)
        assert out.loc[u, "n"] == len(grp)
    assert len(out) == rep["user_id"].nunique()


def test_cusum_detects_shift(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import cusum_by_key

    # user 0: zero-mean noise -> no alarm; user 1: level shift -> alarm
    n = 200
    vals = np.concatenate([np.tile([0.4, -0.4], n // 2),
                           np.full(n, 1.5)])
    df = pd.DataFrame(
        {"event_id": np.arange(2 * n, dtype=np.int64),
         "user_id": np.repeat([0, 1], n).astype(np.int64),
         "ts": np.tile(np.arange(n, dtype=np.int64), 2),
         "value": vals}
    )
    out = (
        cusum_by_key(rd.from_pandas(df), target=0.0, slack=0.5,
                     threshold=10.0)
        .to_pandas().set_index("user_id").sort_index()
    )
    assert out.loc[0, "alarm"] == 0
    assert out.loc[1, "alarm"] == 1
    assert out.loc[1, "cusum_hi"] > 10.0

    empty = df.iloc[:0]
    out2 = cusum_by_key(rd.from_pandas(empty)).to_pandas()
    assert len(out2) == 0


def test_zipf_fit(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.terms import zipf_fit

    # exact Zipf counts: term i (1-based) appears round(1000/i) times
    rows = []
    for i in range(1, 21):
        rows.extend([f"t{i:02d}"] * round(1000 / i))
    df = pd.DataFrame(
        {"doc_id": np.arange(len(rows), dtype=np.int64),
         "text": rows}
    )
    out = zipf_fit(rd.from_pandas(df).repartition(5), k=20).to_pandas()
    assert out["n_terms"].tolist() == [20]
    # mirror: sequential fold in rank order, identical association
    counts = sorted(
        ((rows.count(f"t{i:02d}"), f"t{i:02d}") for i in range(1, 21)),
        key=lambda p: (-p[0], p[1]),
    )
    sx = sy = sxy = sxx = 0.0
    for r, (c, _) in enumerate(counts, start=1):
        x, y = math.log(float(r)), math.log(float(c))
        sx = sx + x
        sy = sy + y
        sxy = sxy + x * y
        sxx = sxx + x * x
    nd = 20.0
    slope = (nd * sxy - sx * sy) / (nd * sxx - sx * sx)
    icept = (sy - slope * sx) / nd
    r6 = lambda v: (math.floor(v * 1e6 + 0.5) if v >= 0
                    else -math.floor(-v * 1e6 + 0.5)) / 1e6
    assert out["slope"].iloc[0] == r6(slope)
    assert out["intercept"].iloc[0] == r6(icept)
    assert -1.1 < out["slope"].iloc[0] < -0.9  # near ideal Zipf

    tiny = pd.DataFrame({"doc_id": [0], "text": ["only only only"]})
    out2 = zipf_fit(rd.from_pandas(tiny)).to_pandas()
    assert out2["n_terms"].tolist() == [1]
    assert out2["slope"].isna().all() and out2["intercept"].isna().all()


def test_heaps_curve(ray_session):
    import re

    import ray.data as rd

    from record_matcher_ray.pipelines.terms import heaps_curve

    docs = ["the cat sat", "the dog", "", "cat dog bird", "THE! bird?"]
    df = pd.DataFrame(
        {"doc_id": np.array([3, 7, 9, 12, 20], dtype=np.int64),
         "text": docs}
    )
    out = (
        heaps_curve(rd.from_pandas(df).repartition(3))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # pure-python mirror
    seen = set()
    vocab = cum = 0
    rows = []
    for did, text in sorted(zip(df["doc_id"], docs)):
        toks = [w for w in re.sub(r"[^a-z0-9]+", " ", text.lower())
                .strip().split(" ") if w]
        new = len({t for t in toks if t not in seen})
        seen.update(toks)
        vocab += new
        cum += len(toks)
        rows.append((did, new, len(toks), vocab, cum))
    want = pd.DataFrame(
        rows, columns=["doc_id", "n_new", "n_tok", "vocab", "cum_tokens"]
    ).astype(np.int64)
    pd.testing.assert_frame_equal(out, want)
    assert out["vocab"].iloc[-1] == 5  # the cat sat dog bird

    empty = df.iloc[:0]
    out2 = heaps_curve(rd.from_pandas(empty)).to_pandas()
    assert len(out2) == 0


def test_interval_union_by_key(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import (
        interval_union_by_key,
    )

    # user 1: [0,10) [5,15) [15,25) merge (touching merges);
    #         [40,50) separate. user 2: single.
    df = pd.DataFrame(
        {"user_id": np.array([1, 1, 1, 1, 2], dtype=np.int64),
         "ts": np.array([0, 5, 15, 40, 7], dtype=np.int64),
         "event_id": np.arange(5, dtype=np.int64)}
    )
    out = (
        interval_union_by_key(
            rd.from_pandas(df).repartition(3), duration_us=10
        )
        .to_pandas().sort_values(["user_id", "island_start"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"user_id": np.array([1, 1, 2], dtype=np.int64),
         "island_start": np.array([0, 40, 7], dtype=np.int64),
         "island_end": np.array([25, 50, 17], dtype=np.int64),
         "n_events": np.array([3, 1, 1], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(out, want)

    # out-of-order input + containment: [0,100) swallows [10,20)
    df2 = pd.DataFrame(
        {"user_id": np.array([7, 7, 7], dtype=np.int64),
         "ts": np.array([30, 0, 10], dtype=np.int64),
         "event_id": np.array([2, 0, 1], dtype=np.int64)}
    )
    out2 = interval_union_by_key(
        rd.from_pandas(df2), duration_us=100
    ).to_pandas()
    assert out2["island_start"].tolist() == [0]
    assert out2["island_end"].tolist() == [130]
    assert out2["n_events"].tolist() == [3]

    empty = df.iloc[:0]
    z = interval_union_by_key(rd.from_pandas(empty)).to_pandas()
    assert len(z) == 0


def test_attribute_conversions(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import (
        attribute_conversions,
    )

    # user 1: click@10 view@20 purchase@25 (-> view, lag 5)
    #         purchase@100 with lookback 50 -> view@20 too old -> NULL
    # user 2: purchase@5 with no prior channel -> NULL
    # user 3: view@7 purchase@7 same-ts: purchase id greater -> view
    df = pd.DataFrame(
        {"user_id": np.array([1, 1, 1, 1, 2, 3, 3], dtype=np.int64),
         "ts": np.array([10, 20, 25, 100, 5, 7, 7], dtype=np.int64),
         "event_id": np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int64),
         "event_type": ["click", "view", "purchase", "purchase",
                        "purchase", "view", "purchase"]}
    )
    out = (
        attribute_conversions(rd.from_pandas(df).repartition(3),
                              lookback_us=50)
        .to_pandas().set_index("event_id").sort_index()
    )
    assert out.loc[2, "attributed_id"] == 1
    assert out.loc[2, "attributed_type"] == "view"
    assert out.loc[2, "lag_us"] == 5
    assert pd.isna(out.loc[3, "attributed_id"])  # too old
    assert pd.isna(out.loc[4, "attributed_id"])  # no prior channel
    assert out.loc[6, "attributed_id"] == 5      # same-ts, id order
    assert len(out) == 4

    empty = df.iloc[:0]
    z = attribute_conversions(rd.from_pandas(empty)).to_pandas()
    assert len(z) == 0


def test_attribute_conversions_first_touch(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import (
        attribute_conversions,
    )

    # click@10 view@20 purchase@25: first-touch credits click@10
    df = pd.DataFrame(
        {"user_id": np.array([1, 1, 1], dtype=np.int64),
         "ts": np.array([10, 20, 25], dtype=np.int64),
         "event_id": np.array([0, 1, 2], dtype=np.int64),
         "event_type": ["click", "view", "purchase"]}
    )
    out = attribute_conversions(
        rd.from_pandas(df), lookback_us=50, touch="first"
    ).to_pandas()
    assert out["attributed_id"].tolist() == [0]
    assert out["attributed_type"].tolist() == ["click"]

    # expired first touch stays unattributed even with a fresh later one
    out2 = attribute_conversions(
        rd.from_pandas(df), lookback_us=12, touch="first"
    ).to_pandas()
    assert pd.isna(out2["attributed_id"]).all()

    import pytest as _pt
    with _pt.raises(ValueError, match="touch"):
        attribute_conversions(rd.from_pandas(df), touch="median")
    # ADVICE r3: conversion listed in channels silently emptied output
    with _pt.raises(ValueError, match="must not be in channels"):
        attribute_conversions(
            rd.from_pandas(df), channels=("click", "purchase")
        )
    with _pt.raises(ValueError, match="duplicate channel"):
        attribute_conversions(
            rd.from_pandas(df), channels=("click", "click")
        )


def test_chao1_vocab(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.terms import chao1_vocab

    # counts: a:3 b:1 c:1 d:2 e:2 f:2 -> D=6 f1=2 f2=3
    df = pd.DataFrame(
        {"doc_id": np.arange(4, dtype=np.int64),
         "text": ["a a b", "a c d", "d e e", "f f"]}
    )
    out = chao1_vocab(rd.from_pandas(df).repartition(3)).to_pandas()
    assert out["n_terms"].tolist() == [6]
    assert out["f1"].tolist() == [2]
    assert out["f2"].tolist() == [3]
    want = 6.0 + 2.0 * 2.0 / (2.0 * 3.0)
    import math
    assert out["chao1"].iloc[0] == math.floor(want * 1e6 + 0.5) / 1e6

    # f2 = 0 -> NULL estimate
    df2 = pd.DataFrame({"doc_id": [0], "text": ["x y z"]})
    out2 = chao1_vocab(rd.from_pandas(df2)).to_pandas()
    assert out2["chao1"].isna().all()

    empty = df.iloc[:0]
    z = chao1_vocab(rd.from_pandas(empty)).to_pandas()
    assert z["n_terms"].tolist() == [0] and z["chao1"].isna().all()


def test_late_event_audit(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.relational import late_event_audit

    # arrival order = event_id; ts in us
    df = pd.DataFrame({
        "event_id": np.arange(8, dtype=np.int64),
        "ts": np.int64([100, 200, 50, 190, 300, 100, 310, 305]),
        "event_type": ["a", "a", "a", "b", "b", "b", "a", "b"],
        "value": np.zeros(8),
    })
    # lateness 60: prior-max watermarks:
    # id2: prior max 200, 50 < 140 -> late (lag 150)
    # id5: prior max 300, 100 < 240 -> late (lag 200)
    # id7: prior max 310, 305 > 250 -> on time
    out = late_event_audit(
        rd.from_pandas(df).repartition(3), lateness_us=60
    ).to_pandas().set_index("event_type")
    assert out.loc["a", "n_late"] == 1 and out.loc["a", "max_lag_us"] == 150
    assert out.loc["b", "n_late"] == 1 and out.loc["b", "max_lag_us"] == 200
    assert out["n_events"].sum() == 8
    # huge lateness: nothing late
    z = late_event_audit(rd.from_pandas(df), lateness_us=10**9).to_pandas()
    assert z["n_late"].sum() == 0


def test_quantize_embeddings(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.similarity import quantize_embeddings

    rng = np.random.default_rng(43)
    vecs = [rng.standard_normal(8).astype(np.float32) for _ in range(50)]
    vecs.append(np.zeros(8, np.float32))  # all-zero vector
    df = pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype=np.int64),
        "embedding": [v.tolist() for v in vecs],
    })
    out = (quantize_embeddings(rd.from_pandas(df).repartition(3))
           .to_pandas().set_index("vec_id").sort_index())
    import math

    for i, v in enumerate(vecs):
        vd = v.astype(np.float64)
        s = float(np.abs(vd).max())
        assert abs(out.loc[i, "scale"] - round(s, 9)) < 1e-9
        q = np.asarray(out.loc[i, "qvec"], np.int64)
        if s == 0:
            assert (q == 0).all()
            continue
        want = np.array([
            math.floor(x / s * 127 + 0.5) if x >= 0
            else -math.floor(-x / s * 127 + 0.5) for x in vd
        ])
        assert np.array_equal(q, want), i
        # dequantization error bounded by half a quantization step
        deq = q * s / 127.0
        assert np.abs(deq - vd).max() <= s / 127.0 / 2 + 1e-12
    import pytest as _pt
    with _pt.raises(ValueError):
        quantize_embeddings(rd.from_pandas(df), bits=4)


def test_union_by_name(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.table_ops import union_by_name

    a = rd.from_pandas(pd.DataFrame(
        {"k": np.int64([1, 2]), "v": ["a", "b"]}))
    b = rd.from_pandas(pd.DataFrame(
        {"v": ["c"], "extra": np.float64([9.5])}))
    out = union_by_name([a, b]).to_pandas().sort_values(
        "v").reset_index(drop=True)
    assert list(out.columns) == ["k", "v", "extra"]
    assert out["v"].tolist() == ["a", "b", "c"]
    assert pd.isna(out["k"].iloc[2]) and pd.isna(out["extra"].iloc[0])

    # mismatched types raise instead of silently casting
    c = rd.from_pandas(pd.DataFrame({"k": ["oops"]}))
    import pytest as _pt
    with _pt.raises(ValueError, match="union_by_name"):
        union_by_name([a, c])
    with _pt.raises(ValueError):
        union_by_name([])


def test_estimate_join_cardinality(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import (
        estimate_join_cardinality,
        hash_join,
    )

    rng = np.random.default_rng(67)
    lk = rng.integers(0, 30, 500)
    rk = rng.integers(10, 50, 400)
    left = pd.DataFrame({"k": lk, "v": np.arange(500)})
    right = pd.DataFrame({"rk": rk, "w": np.arange(400)})
    out = estimate_join_cardinality(
        rd.from_pandas(left).repartition(4),
        rd.from_pandas(right).repartition(3), "k", "rk")
    true_rows = hash_join(
        rd.from_pandas(left), rd.from_pandas(right), "k", "rk").count()
    assert out["join_rows"].iloc[0] == true_rows
    assert out["n_left"].iloc[0] == 500
    assert out["n_right"].iloc[0] == 400
    import collections

    cl = collections.Counter(lk)
    cr = collections.Counter(rk)
    assert out["n_shared_keys"].iloc[0] == len(set(cl) & set(cr))
    assert out["max_key_rows"].iloc[0] == max(
        cl[x] * cr[x] for x in set(cl) & set(cr))
