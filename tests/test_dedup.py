"""Dedup policy-variant tests (keep-best selection)."""

import numpy as np
import pandas as pd


def test_exact_dedup_keep_best(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import exact_dup_groups

    df = pd.DataFrame(
        {"doc_id": np.arange(8, dtype=np.int64),
         "text": ["a", "a", "a", "b", "b", "c", "d", "d"],
         "pref": np.array([5, 9, 9, 3, 3, 1, 2, 2], dtype=np.int64)}
    )
    out = (
        exact_dup_groups(
            rd.from_pandas(df).repartition(4), ["text"], "doc_id",
            pref_col="pref",
        )
        .to_pandas().sort_values("dup_id").reset_index(drop=True)
    )
    # group a: pref 9 tie between ids 1,2 -> keeper 1; losers 0,2
    # group b: pref tie -> keeper 3; loser 4
    # group c: singleton -> no rows; group d: keeper 6; loser 7
    want = pd.DataFrame(
        {"keeper_id": np.array([1, 1, 3, 6], dtype=np.int64),
         "dup_id": np.array([0, 2, 4, 7], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(out[["keeper_id", "dup_id"]], want)

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string()),
                      "pref": pa.array([], pa.int64())})
    out2 = exact_dup_groups(
        rd.from_arrow(empty), ["text"], "doc_id", pref_col="pref"
    ).to_pandas()
    assert len(out2) == 0


def test_exact_dedup_keep_best_emit_all(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import exact_dup_groups

    df = pd.DataFrame(
        {"doc_id": np.arange(5, dtype=np.int64),
         "text": ["a", "a", "b", "c", "c"],
         "pref": np.array([1, 7, 4, 2, 2], dtype=np.int64)}
    )
    out = (
        exact_dup_groups(
            rd.from_pandas(df).repartition(3), ["text"], "doc_id",
            pref_col="pref", emit_all=True
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"doc_id": np.arange(5, dtype=np.int64),
         "keeper_id": np.array([1, 1, 2, 3, 3], dtype=np.int64)}
    )
    pd.testing.assert_frame_equal(out, want)


def test_keep_best_null_pref_and_null_keys(ray_session):
    """Null prefs rank last and null key values group together. The
    expected frames are the output of the pandas keep-best pass that
    ``pref_col`` replaced (sort by pref descending, NaN last, then id;
    groupby with dropna=False)."""
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import exact_dup_groups

    t = pa.table({
        "doc_id": pa.array(range(10), pa.int64()),
        "text": ["a", "a", None, None, "a", "b", None, "b", None, "b"],
        "lang": ["en", "en", None, None, "en", None, None, None, "fr", "en"],
        "pref": [None, 3.0, 2.0, None, 3.0, None, 5.0, None, 1.0, 4.0],
    })

    def run(**kw):
        return exact_dup_groups(
            rd.from_arrow(t).repartition(3), ["text", "lang"], "doc_id",
            pref_col="pref", **kw,
        ).to_pandas()

    pairs = run().sort_values("dup_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(pairs, pd.DataFrame(
        {"keeper_id": np.array([1, 6, 6, 1, 5], np.int64),
         "dup_id": np.array([0, 2, 3, 4, 7], np.int64)}))
    every = run(emit_all=True).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(every, pd.DataFrame(
        {"doc_id": np.arange(10, dtype=np.int64),
         "keeper_id": np.array([1, 1, 6, 6, 1, 5, 6, 5, 8, 9], np.int64)}))


def test_capture_recapture_dup_estimate(ray_session):
    import math

    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import (
        capture_recapture_dup_estimate,
    )

    docs = (
        ["alpha beta gamma delta epsilon zeta"] * 4      # true dup group
        + ["alpha beta gamma DIFFERENT middle zeta"] * 2  # shares pre+suf
        + ["alpha beta gamma other ending here"]          # shares prefix
        + ["nothing in common epsilon zeta"]              # shares suffix
        + [f"unique document number {i}" for i in range(10)]
    )
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    out = capture_recapture_dup_estimate(
        rd.from_pandas(df).repartition(4), affix_len=16
    )

    # brute-force mirror over normalized affixes
    import collections
    import re

    def norm(s):
        return re.sub(r"[^a-z0-9]+", " ", s.lower()).strip()

    pre = collections.Counter(norm(s)[:16] for s in docs)
    suf = collections.Counter(norm(s)[::-1][:16] for s in docs)
    both = collections.Counter(
        (norm(s)[:16], norm(s)[::-1][:16]) for s in docs)
    A = sum(v * (v - 1) // 2 for v in pre.values())
    B = sum(v * (v - 1) // 2 for v in suf.values())
    AB = sum(v * (v - 1) // 2 for v in both.values())
    assert out["n_prefix_pairs"].iloc[0] == A
    assert out["n_suffix_pairs"].iloc[0] == B
    assert out["n_both_pairs"].iloc[0] == AB
    want = math.floor(A * B / AB * 1e6 + 0.5) / 1e6
    assert out["estimate"].iloc[0] == want

    # no co-captured pairs -> NULL estimate
    z = capture_recapture_dup_estimate(
        rd.from_pandas(pd.DataFrame({
            "doc_id": np.int64([1, 2]),
            "text": ["totally distinct one", "another unrelated two"],
        })))
    assert z["estimate"].iloc[0] is None or pd.isna(z["estimate"].iloc[0])


def test_simhash_snm_dedup(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import (
        simhash64,
        simhash_snm_dedup,
    )

    base = ("the quick brown fox jumps over the lazy dog and then "
            "keeps on running through the quiet forest for a while")
    docs = [base, base + " extra", base.replace("quick", "quark"),
            "completely different content about data engines and rays",
            "another unrelated piece of text talking about nothing"]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    ds = rd.from_pandas(df).repartition(2)
    out = simhash_snm_dedup(ds, window=5, max_hamming=16).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    # mirror: all-pairs hamming over the same fingerprints; window=5
    # covers all 5 docs, so the neighborhood result == the all-pairs cut
    sig = simhash64(ds, "text", "doc_id").to_pandas()
    fp = dict(zip(sig["id"], sig["simhash"].astype(np.int64)))
    want = set()
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            h = bin((fp[i] ^ fp[j]) & 0xFFFFFFFFFFFFFFFF).count("1")
            if h <= 16:
                want.add((i, j))
    assert got == want
    assert (out["hamming"] <= 16).all()
    # the three near-identical docs must be found
    assert (0, 1) in got and (0, 2) in got


def test_ngram_containment_metric(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import ngram_jaccard_dedup

    short = "alpha beta gamma delta"
    long_ = short + " plus a very long unrelated tail of extra words here"
    df = pd.DataFrame({"doc_id": np.int64([1, 2]),
                       "text": [short, long_]})
    ds = rd.from_pandas(df)
    # containment: the short doc is fully embedded -> 100
    cont = ngram_jaccard_dedup(
        ds, "text", "doc_id", jaccard_threshold=90.0,
        metric="containment",
    ).to_pandas()
    assert len(cont) == 1 and cont["containment"].iloc[0] == 100.0
    # jaccard of the same pair is far below 90 -> filtered out
    jac = ngram_jaccard_dedup(
        ds, "text", "doc_id", jaccard_threshold=90.0,
    ).to_pandas()
    assert len(jac) == 0
    import pytest as _pt
    with _pt.raises(ValueError, match="metric"):
        ngram_jaccard_dedup(ds, "text", "doc_id", metric="dice")


def test_dedup_savings_report(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.dedup import dedup_savings_report

    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["aaaa", "aaaa", "aaaa", "bb", "bb", "unique"],
    })
    out = dedup_savings_report(rd.from_pandas(df).repartition(3))
    assert out["n_docs"].iloc[0] == 6
    assert out["n_distinct_texts"].iloc[0] == 3
    assert out["n_dup_docs"].iloc[0] == 3
    assert out["chars_total"].iloc[0] == 4 * 3 + 2 * 2 + 6
    assert out["chars_removable"].iloc[0] == 4 * 2 + 2 * 1
    z = dedup_savings_report(rd.from_arrow(pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )))
    assert z["n_docs"].iloc[0] == 0
