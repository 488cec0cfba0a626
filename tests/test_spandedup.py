"""spandedup (duplicated substring windows/spans) and lm_quality vs
brute-force in-process references, plus right/full outer hash_join."""

import math
import re

import numpy as np
import pandas as pd
import pytest


def _norm(s):
    return re.sub(r"[^a-z0-9]+", " ", (s or "").lower()).strip()


def _windows(nt, w=16, stride=1):
    """(pos, end, gram) triples mirroring hashkernels.window_hashes."""
    if len(nt) == 0:
        return []
    if len(nt) <= w:
        return [(0, len(nt), nt)]
    return [
        (i, min(i + w, len(nt)), nt[i : i + w])
        for i in range(0, len(nt) - w + 1, stride)
    ]


DOCS = [
    (0, "The quick brown fox jumps over the lazy dog in the sunny meadow."),
    (1, "A QUICK brown fox jumps over the lazy dog, then naps peacefully!"),
    (2, "Completely unrelated text about distributed query engines here."),
    (3, "tiny"),                       # shorter than the window
    (4, ""),                           # empty after normalization
    (5, "!!! ???"),                    # normalizes to empty
    (6, "repeat me repeat me repeat me repeat me only inside this doc"),
    (7, "Completely unrelated text about distributed query engines here."),
]


def _brute_stats(w=16, min_docs=2):
    per = {}
    for did, text in DOCS:
        for _, _, g in _windows(_norm(text), w):
            per[(did, g)] = per.get((did, g), 0) + 1
    docs_of = {}
    for (did, g), _ in per.items():
        docs_of.setdefault(g, set()).add(did)
    out = {}
    for (did, g), cnt in per.items():
        n, d = out.get(did, (0, 0))
        dup = len(docs_of[g]) >= min_docs
        out[did] = (n + cnt, d + cnt if dup else d)
    return out


def _brute_spans(w=16, min_docs=2):
    docs_of = {}
    wins = {}
    for did, text in DOCS:
        wins[did] = _windows(_norm(text), w)
        for _, _, g in wins[did]:
            docs_of.setdefault(g, set()).add(did)
    spans = {}
    for did, ws in wins.items():
        dup = sorted(
            (p, e) for p, e, g in ws if len(docs_of[g]) >= min_docs
        )
        merged = []
        for p, e in dup:
            if merged and p <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([p, e])
        if merged:
            spans[did] = [tuple(m) for m in merged]
    return spans


def test_duplicated_window_stats(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.spandedup import duplicated_window_stats

    monkeypatch.setattr(exchange, "default_tasks", lambda: 4)

    ds = rd.from_pandas(pd.DataFrame(DOCS, columns=["doc_id", "text"]))
    got = duplicated_window_stats(
        ds, window=16, min_docs=2
    ).to_pandas()
    want = _brute_stats()
    assert set(got["doc_id"]) == set(want)  # empty docs drop out
    for _, r in got.iterrows():
        n, d = want[r["doc_id"]]
        assert r["n_windows"] == n, r["doc_id"]
        assert r["n_dup_windows"] == d, r["doc_id"]
        assert r["dup_frac"] == pytest.approx(
            math.floor(d / n * 1e6 + 0.5) / 1e6, abs=0
        )
    # doc 6 repeats only internally: not duplicated across docs
    row6 = got[got["doc_id"] == 6].iloc[0]
    assert row6["n_dup_windows"] == 0
    # docs 2 and 7 are identical: fully duplicated
    for did in (2, 7):
        r = got[got["doc_id"] == did].iloc[0]
        assert r["dup_frac"] == 1.0


def test_duplicate_spans(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.spandedup import duplicate_spans

    monkeypatch.setattr(exchange, "default_tasks", lambda: 4)

    ds = rd.from_pandas(pd.DataFrame(DOCS, columns=["doc_id", "text"]))
    got = duplicate_spans(
        ds, window=16, min_docs=2
    ).to_pandas()
    want = _brute_spans()
    by_doc = {
        did: sorted(zip(g["span_start"], g["span_end"]))
        for did, g in got.groupby("doc_id")
    }
    assert by_doc == {k: sorted(v) for k, v in want.items()}
    # identical docs 2/7: one span covering the whole normalized text
    nt = _norm(DOCS[2][1])
    assert by_doc[2] == [(0, len(nt))]


def test_lm_quality(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import lm_quality

    ds = rd.from_pandas(pd.DataFrame(DOCS, columns=["doc_id", "text"]))
    got = lm_quality(ds, vocab_size=8, alpha=1.0).to_pandas()

    # brute force: top-8 terms by (count desc, term asc)
    toks = {did: _norm(t).split() for did, t in DOCS if _norm(t)}
    counts = {}
    for ts in toks.values():
        for t in ts:
            counts[t] = counts.get(t, 0) + 1
    n_total = sum(counts.values())
    vocab = dict(
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
    )
    for did, ts in toks.items():
        lp = [
            math.log(vocab[t] / n_total) if t in vocab
            else math.log(1.0 / n_total)
            for t in ts
        ]
        want = math.floor(-sum(lp) / len(lp) * 1e6 + 0.5) / 1e6
        row = got[got["doc_id"] == did].iloc[0]
        assert row["n_tokens"] == len(ts)
        assert row["xent"] == pytest.approx(want, abs=1e-9), did
    assert set(got["doc_id"]) == set(toks)


def test_hash_join_right_full(ray_session):
    import ray.data as rd

    from record_matcher_ray.pipelines.joins import hash_join

    left = pd.DataFrame({"k": [1, 2, 2, 3], "lv": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"rk": [2, 3, 3, 4], "rv": [20, 30, 31, 40]})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)

    def key(df):
        return sorted(
            (
                float(k),
                "∅" if pd.isna(lv) else str(lv),
                -1.0 if pd.isna(rv) else float(rv),
            )
            for k, lv, rv in zip(df["k"], df["lv"], df["rv"])
        )

    full = hash_join(lds, rds, "k", "rk", how="full").to_pandas()
    want_full = left.merge(
        right, how="outer", left_on="k", right_on="rk"
    )
    want_full["k"] = want_full["k"].fillna(want_full["rk"])
    want_full = want_full.drop(columns=["rk"])
    assert key(full) == key(want_full)
    # right-only row keeps its key (USING semantics)
    r4 = full[full["rv"] == 40].iloc[0]
    assert r4["k"] == 4 and pd.isna(r4["lv"])

    rj = hash_join(lds, rds, "k", "rk", how="right").to_pandas()
    want_r = left.merge(right, how="right", left_on="k", right_on="rk")
    want_r["k"] = want_r["k"].fillna(want_r["rk"])
    want_r = want_r.drop(columns=["rk"])
    assert key(rj) == key(want_r)

    with pytest.raises(ValueError):
        hash_join(lds, rds, "k", "rk", how="cross")


def test_fingerprints_match_independent_python_impl(ray_session):
    """Cross-check the vectorized rolling-hash fingerprint against a
    from-scratch pure-Python mirror of its published definition (Horner
    mod-2**64 polynomial hash, BASE 1000003, min over stride-spaced
    windows) — an independent second implementation, not a refactor of
    the kernel."""
    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import fingerprints

    M = (1 << 64) - 1

    def py_hash(bs: bytes) -> int:
        v = 0
        for c in bs:
            v = (v * 1000003 + c) & M
        return v

    def py_fp(text: str, window=16, stride=4) -> int:
        bs = text.encode("utf-8")
        if not bs:
            return 0
        if len(bs) <= window:
            wins = [bs]
        else:
            wins = [bs[i : i + window]
                    for i in range(0, len(bs) - window + 1, stride)]
        return min(py_hash(w) for w in wins)

    rows = [
        (0, "The quick brown fox jumps over the lazy dog."),
        (1, "short"),
        (2, ""),
        (3, "exactly sixteen!"),          # len == window
        (4, "unicode: héllo wörld ünïcode padding to exceed the window"),
        (5, "a" * 61),                    # non-multiple-of-stride tail
    ]
    ds = rd.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))
    got = fingerprints(ds).to_pandas().set_index("doc_id")["fp64"]
    for did, text in rows:
        assert np.int64(got.loc[did]).view(np.uint64) == np.uint64(
            py_fp(text)
        ), did


def test_strip_duplicate_spans(ray_session, monkeypatch):
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.spandedup import strip_duplicate_spans

    monkeypatch.setattr(exchange, "default_tasks", lambda: 4)

    ds = rd.from_pandas(pd.DataFrame(DOCS, columns=["doc_id", "text"]))
    got = (
        strip_duplicate_spans(ds, window=16, min_docs=2)
        .to_pandas().set_index("doc_id")["text"]
    )
    spans = _brute_spans()
    assert len(got) == len(DOCS)  # every doc passes through
    for did, text in DOCS:
        nt = _norm(text)
        keep = [True] * len(nt)
        for s, e in spans.get(did, []):
            for i in range(s, e):
                keep[i] = False
        want = "".join(c for c, k in zip(nt, keep) if k)
        assert got.loc[did] == want, did
    # identical docs 2/7 are fully duplicated -> stripped to empty
    assert got.loc[2] == "" and got.loc[7] == ""
    # doc 0 keeps SOMETHING (shares only part of its text with doc 1)
    assert 0 < len(got.loc[0]) < len(_norm(DOCS[0][1]))
