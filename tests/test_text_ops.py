"""PII detection/redaction, document chunking, corpus top-terms."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from record_matcher_ray.pipelines.analysis import chunk_documents
from record_matcher_ray.pipelines.pii import PII_PATTERNS, pii_counts, redact_pii
from record_matcher_ray.pipelines.terms import top_terms

DOCS = [
    "contact alice.smith+x@example.co.uk or call +1 (415) 555-0199 today",
    "server at 10.0.255.3 leaked ssn 123-45-6789 twice: 987-65-4321",
    "no pii here, just words and numbers 42",
    "",
    "two mails: a@b.io c@d.org and ip 1.2.3.4",
]


def _ds():
    return ray.data.from_arrow(
        pa.table({"doc_id": np.arange(len(DOCS), dtype=np.int64),
                  "text": DOCS})
    )


class TestPII:
    def test_counts_match_re(self, ray_session):
        out = pii_counts(_ds()).to_pandas().sort_values("doc_id")
        for name, pat in PII_PATTERNS.items():
            expect = [len(re.findall(pat, t)) for t in DOCS]
            assert out[f"n_{name}"].tolist() == expect, name
        assert (
            out["n_pii_total"]
            == sum(out[f"n_{n}"] for n in PII_PATTERNS)
        ).all()
        assert out["n_email"].tolist() == [1, 0, 0, 0, 2]
        assert out["n_ssn"].tolist() == [0, 2, 0, 0, 0]

    def test_redact_removes_all(self, ray_session):
        out = redact_pii(_ds()).to_pandas().sort_values("doc_id")
        joined = " ".join(out["text"])
        for pat in PII_PATTERNS.values():
            # emails/ssns must be gone; the mask itself contains no digits
            assert not re.findall(pat, joined.replace("[PII]", "#"))
        assert out["text"].iloc[2] == DOCS[2]  # untouched doc
        assert "[PII]" in out["text"].iloc[0]


class TestChunking:
    def test_windows(self, ray_session):
        toks = [f"t{i}" for i in range(10)]
        ds = ray.data.from_arrow(
            pa.table({"doc_id": [1], "text": [" ".join(toks)]})
        )
        out = (
            chunk_documents(ds, size=4, overlap=2)
            .to_pandas()
            .sort_values("chunk_id")
        )
        # stride 2, starts while s < max(10-2,1)=8 → 0,2,4,6
        assert out["chunk_id"].tolist() == [0, 1, 2, 3]
        assert out["chunk_text"].tolist() == [
            "t0 t1 t2 t3", "t2 t3 t4 t5", "t4 t5 t6 t7", "t6 t7 t8 t9",
        ]
        assert out["n_tokens"].tolist() == [4, 4, 4, 4]

    def test_short_and_empty_docs(self, ray_session):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": [1, 2, 3], "text": ["one two", "", "   "]})
        )
        out = chunk_documents(ds, size=4, overlap=2).to_pandas()
        assert out["doc_id"].tolist() == [1]
        assert out["chunk_text"].tolist() == ["one two"]

    def test_every_token_covered(self, ray_session):
        rng = np.random.default_rng(2)
        texts = [
            " ".join(f"w{rng.integers(50)}" for _ in range(int(n)))
            for n in rng.integers(1, 200, 50)
        ]
        ds = ray.data.from_arrow(
            pa.table({"doc_id": np.arange(50, dtype=np.int64), "text": texts})
        )
        out = chunk_documents(ds, size=16, overlap=4).to_pandas()
        for did, text in enumerate(texts):
            toks = text.split()
            rows = out[out["doc_id"] == did].sort_values("chunk_id")
            for _, r in rows.iterrows():
                s = r["chunk_id"] * 12
                assert r["chunk_text"].split() == toks[s:s + 16]
            # coverage: last chunk must reach the final token
            last = rows.iloc[-1]
            assert last["chunk_id"] * 12 + last["n_tokens"] == len(toks)

    def test_validation(self, ray_session):
        with pytest.raises(ValueError):
            chunk_documents(_ds(), size=4, overlap=4)


class TestTopTerms:
    def test_counts(self, ray_session):
        ds = ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": [1, 2, 3],
                    "text": ["Apple apple BANANA!", "apple pear", "pear pear"],
                }
            )
        ).repartition(3)
        out = top_terms(ds, k=10).to_pandas()
        got = {r["term"]: (r["n_occ"], r["n_docs"]) for _, r in out.iterrows()}
        assert got == {"apple": (3, 2), "pear": (3, 2), "banana": (1, 1)}
        # ordering: n_occ desc then term asc
        assert out["term"].tolist() == ["apple", "pear", "banana"]

    def test_k_cut(self, ray_session):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": [1], "text": ["a b c d e f g"]})
        )
        out = top_terms(ds, k=3).to_pandas()
        assert out["term"].tolist() == ["a", "b", "c"]


class TestGroupedQuantiles:
    def test_matches_numpy(self, ray_session):
        from record_matcher_ray.pipelines.table_ops import grouped_quantiles

        rng = np.random.default_rng(11)
        grp = rng.choice(["a", "b", "c"], 10_000)
        val = np.round(rng.uniform(0, 1000, 10_000), 2)
        ds = ray.data.from_arrow(pa.table({"g": grp, "v": val})).repartition(7)
        out = (
            grouped_quantiles(ds, ["g"], "v")
            .to_pandas()
            .set_index("g")
            .sort_index()
        )
        for g in "abc":
            v = val[grp == g]
            for q, col in [(0.25, "q_25"), (0.5, "q_50"), (0.75, "q_75")]:
                assert out.loc[g, col] == pytest.approx(
                    round(float(np.quantile(v, q)), 6), abs=1e-6
                )

    def test_multi_group_cols_and_validation(self, ray_session):
        from record_matcher_ray.pipelines.table_ops import grouped_quantiles

        ds = ray.data.from_arrow(
            pa.table({"a": ["x", "x", "y"], "b": [1, 1, 2], "v": [1.0, 3.0, 5.0]})
        )
        out = grouped_quantiles(ds, ["a", "b"], "v", qs=(0.5,)).to_pandas()
        got = {(r["a"], r["b"]): r["q_50"] for _, r in out.iterrows()}
        assert got == {("x", 1): 2.0, ("y", 2): 5.0}
        with pytest.raises(ValueError):
            grouped_quantiles(ds, [], "v")
        with pytest.raises(ValueError):
            grouped_quantiles(ds, ["a"], "v", qs=(1.5,))


class TestBM25:
    @staticmethod
    def _mirror(texts, query, k1=1.2, b=0.75):
        """Independent pure-Python BM25 (Lucene idf; avgdl over ALL docs)."""
        import math
        import re

        def toks(s):
            return [t for t in re.sub(r"[^a-z0-9]+", " ", (s or "").lower()).split() if t]

        docs = [toks(t) for t in texts]
        n = len(docs)
        avgdl = sum(len(d) for d in docs) / n
        qterms = sorted(set(toks(query)))
        out = {}
        for i, d in enumerate(docs):
            s = 0.0
            hit = False
            for t in qterms:
                tf = d.count(t)
                if tf == 0:
                    continue
                hit = True
                df = sum(1 for dd in docs if t in dd)
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                s += idf * tf * (k1 + 1.0) / (tf + k1 * (1 - b + b * len(d) / avgdl))
            if hit:
                out[i] = round(s, 6)
        return out

    def test_matches_mirror(self, ray_session):
        from record_matcher_ray.pipelines.terms import bm25_scores

        rng = np.random.default_rng(7)
        vocab = ["apple", "pear", "banana", "kiwi", "fig", "plum", "grape"]
        texts = [
            " ".join(rng.choice(vocab, rng.integers(1, 20)))
            for _ in range(200)
        ] + ["", "no match here at all"]
        ids = list(range(len(texts)))
        ds = ray.data.from_arrow(
            pa.table({"doc_id": ids, "text": texts})
        ).repartition(7)
        got = bm25_scores(ds, "apple fig kiwi", id_col="doc_id").to_pandas()
        want = self._mirror(texts, "apple fig kiwi")
        assert dict(zip(got["doc_id"], got["bm25"])) == want
        # docs without any query term are absent
        assert len(texts) - 1 not in set(got["doc_id"])  # "no match here..."

    def test_empty_query_raises(self, ray_session):
        from record_matcher_ray.pipelines.terms import bm25_scores

        ds = ray.data.from_arrow(pa.table({"doc_id": [1], "text": ["x"]}))
        with pytest.raises(ValueError):
            bm25_scores(ds, "!!! ???")


class TestCompressionMetrics:
    def test_matches_direct_zlib(self, ray_session):
        import zlib

        from record_matcher_ray.pipelines.analysis import compression_metrics

        texts = ["abc " * 200, "x", "", "the quick brown fox " * 7,
                 "9f8e7d6c5b4a" * 3]
        ds = ray.data.from_arrow(pa.table(
            {"doc_id": list(range(len(texts))), "text": texts}
        )).repartition(2)
        out = compression_metrics(ds).to_pandas().set_index("doc_id")
        for i, s in enumerate(texts):
            b = s.encode()
            assert out.loc[i, "raw_bytes"] == len(b)
            assert out.loc[i, "compressed_bytes"] == len(zlib.compress(b, 6))
        # repetitive text compresses much harder than near-random text
        assert (out.loc[0, "compression_ratio"]
                > 3 * out.loc[4, "compression_ratio"])


class TestBM25TopK:
    def test_ranked_cut(self, ray_session):
        from record_matcher_ray.pipelines.terms import bm25_scores, bm25_topk

        rng = np.random.default_rng(13)
        vocab = ["apple", "pear", "fig", "kiwi", "plum"]
        texts = [" ".join(rng.choice(vocab, rng.integers(3, 25)))
                 for _ in range(100)]
        ds = ray.data.from_arrow(pa.table(
            {"doc_id": list(range(100)), "text": texts}
        )).repartition(5)
        top = bm25_topk(ds, "apple fig", k=7).to_pandas()
        full = bm25_scores(ds, "apple fig").to_pandas()
        want = full.sort_values(
            ["bm25", "doc_id"], ascending=[False, True]
        ).head(7)
        assert top["doc_id"].tolist() == want["doc_id"].tolist()
        assert top["bm25"].tolist() == want["bm25"].tolist()


class TestHashedTfidf:
    def test_local_replay_and_partition_invariance(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.terms import (
            _block_tokens,
            hashed_tfidf,
            token_dims,
        )

        texts = [
            "Alpha beta BETA gamma!",
            "",
            "alpha alpha delta epsilon-zeta",
            "beta beta beta",
            "unique singleton tokens only here",
        ]
        df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                           "text": texts})
        D = 16

        # local replay with the engine's own hash helpers
        toks, doc_idx, n_per_doc = _block_tokens(pa.array(texts))
        dim, sgn = token_dims(toks, D)
        stf = np.bincount(doc_idx * D + dim, weights=sgn.astype(float),
                          minlength=5 * D).reshape(5, D)
        uk = np.unique(doc_idx * D + dim)
        dfv = np.bincount(uk % D, minlength=D)
        idf = np.log((5 + 1.0) / (dfv + 1.0)) + 1.0
        want = np.round(stf * idf[None, :], 6) + 0.0

        for parts in (1, 4):
            out = (
                hashed_tfidf(rd.from_pandas(df).repartition(parts), n_dims=D)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            got = np.stack(out["features"].to_numpy())
            np.testing.assert_array_equal(got, want)

        # empty doc → all-zero vector; sign hash actually mixes signs
        assert (want[1] == 0.0).all()
        assert (sgn == 1).any() and (sgn == -1).any()


class TestInvertedIndex:
    def test_postings_exact_and_capped(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.terms import inverted_index

        docs = ["cat dog", "cat bird", "cat", "dog!", "unique"]
        df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                           "text": docs})
        out = (
            inverted_index(rd.from_pandas(df).repartition(3),
                           min_df=2, max_postings=2)
            .to_pandas()
            .set_index("term")
        )
        assert set(out.index) == {"cat", "dog"}
        assert out.loc["cat", "df"] == 3          # df exact despite cap
        assert list(out.loc["cat", "postings"]) == [0, 1]  # capped at 2
        assert out.loc["dog", "df"] == 2
        assert list(out.loc["dog", "postings"]) == [0, 3]

    def test_dedup_within_doc(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.terms import inverted_index

        df = pd.DataFrame({"doc_id": np.array([7, 8], np.int64),
                           "text": ["spam spam spam", "spam ham"]})
        out = (
            inverted_index(rd.from_pandas(df))
            .to_pandas()
            .set_index("term")
        )
        # repeated token in one doc contributes ONE posting
        assert out.loc["spam", "df"] == 2
        assert list(out.loc["spam", "postings"]) == [7, 8]


class TestPMICooccurrence:
    def test_matches_brute_force(self, ray_session):
        import itertools
        import math

        import ray.data as rd

        from record_matcher_ray.pipelines.terms import pmi_cooccurrence

        rng = np.random.RandomState(61)
        words = ["apple", "banana", "cherry", "date", "elder", "fig",
                 "grape", "kiwi"]
        docs = []
        for i in range(300):
            k = rng.randint(1, 6)
            docs.append(" ".join(rng.choice(words, size=k)))
        df = pd.DataFrame({"doc_id": np.arange(300), "text": docs})
        ds = rd.from_pandas(df).repartition(5)
        out = pmi_cooccurrence(ds, vocab_k=5).to_pandas()

        # brute-force replay with the same normalization (already clean)
        occ, dfc, dsets = {}, {}, []
        for t in docs:
            toks = t.split()
            for w in toks:
                occ[w] = occ.get(w, 0) + 1
            s = set(toks)
            dsets.append(s)
            for w in s:
                dfc[w] = dfc.get(w, 0) + 1
        top = sorted(occ, key=lambda w: (-occ[w], w))[:5]
        n = len(docs)
        want = {}
        for x, y in itertools.combinations(sorted(top), 2):
            c = sum(1 for s in dsets if x in s and y in s)
            if c:
                want[(x, y)] = (c, round(math.log((n * c)
                                                  / (dfc[x] * dfc[y])), 6))
        got = {(r.x, r.y): (r.n_xy, r.pmi) for r in out.itertuples()}
        assert got.keys() == want.keys()
        for k2 in want:
            assert got[k2][0] == want[k2][0]
            assert got[k2][1] == pytest.approx(want[k2][1], abs=1e-9)

    def test_pair_order_and_no_self_pairs(self, ray_session):
        import ray.data as rd

        from record_matcher_ray.pipelines.terms import pmi_cooccurrence

        df = pd.DataFrame(
            {"doc_id": [0, 1, 2],
             "text": ["b a b a", "a c", "c b a"]}
        )
        out = pmi_cooccurrence(rd.from_pandas(df), vocab_k=3).to_pandas()
        assert (out["x"] < out["y"]).all()
        got = dict(zip(zip(out["x"], out["y"]), out["n_xy"]))
        assert got == {("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1}


class TestNormalizeText:
    def test_nfc_lower_ws(self, ray_session):
        from record_matcher_ray.pipelines.analysis import normalize_text

        # "Ång" in decomposed form (A + combining ring) must NFC-compose
        decomposed = "Ångström"
        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "  Hello   WORLD \t\n"},
                {"doc_id": 1, "text": decomposed},
                {"doc_id": 2, "text": None},
                {"doc_id": 3, "text": ""},
            ]
        )
        out = normalize_text(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "text"] == "hello world"
        assert out.loc[1, "text"] == "ångström"
        assert out.loc[1, "n_chars_norm"] == 8
        assert out.loc[2, "text"] == ""
        assert out.loc[3, "n_chars_norm"] == 0

    def test_matches_duckdb(self, ray_session):
        import duckdb

        from record_matcher_ray.pipelines.analysis import normalize_text

        texts = ["  a  B ", "Café  Été", "x́y", "", "MiXeD CaSe"]
        ds = ray.data.from_items(
            [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
        )
        got = (
            normalize_text(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        exp = con.execute(
            r"""
            SELECT i AS doc_id,
                   regexp_replace(regexp_replace(lower(nfc_normalize(t)),
                     '\s+', ' ', 'g'), '^ | $', '', 'g') AS text
            FROM (SELECT unnest(range(5)) AS i, unnest(?) AS t)
            ORDER BY i
            """,
            [texts],
        ).df()
        assert list(got["text"]) == list(exp["text"])


class TestBlocklistFilter:
    def test_hits_and_keep(self, ray_session):
        from record_matcher_ray.pipelines.analysis import blocklist_filter

        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "BUY NOW and click here twice"},
                {"doc_id": 1, "text": "a perfectly fine document"},
                {"doc_id": 2, "text": None},
            ]
        )
        out = (
            blocklist_filter(ds, ["buy now", "click here"])
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[0, "n_hits"] == 2 and not out.loc[0, "keep"]
        assert out.loc[1, "n_hits"] == 0 and out.loc[1, "keep"]
        assert out.loc[2, "n_hits"] == 0 and out.loc[2, "keep"]

    def test_case_sensitive_and_validation(self, ray_session):
        import pytest as _pytest

        from record_matcher_ray.pipelines.analysis import blocklist_filter

        ds = ray.data.from_items([{"doc_id": 0, "text": "Spam"}])
        out = blocklist_filter(ds, ["spam"], case_insensitive=False).to_pandas()
        assert out["n_hits"][0] == 0
        with _pytest.raises(ValueError):
            blocklist_filter(ds, [])


class TestCharEntropy:
    def test_known_values(self, ray_session):
        import math

        from record_matcher_ray.pipelines.analysis import char_entropy

        ds = ray.data.from_items(
            [
                {"doc_id": 0, "text": "aaaa"},
                {"doc_id": 1, "text": "ab"},
                {"doc_id": 2, "text": ""},
                {"doc_id": 3, "text": None},
                {"doc_id": 4, "text": "éaé"},  # unicode multi-byte
            ]
        )
        out = char_entropy(ds).to_pandas().set_index("doc_id")
        assert out.loc[0, "char_entropy"] == 0.0
        assert out.loc[0, "n_distinct_chars"] == 1
        assert abs(out.loc[1, "char_entropy"] - math.log(2)) < 1e-6
        assert pd.isna(out.loc[2, "char_entropy"])
        assert pd.isna(out.loc[3, "char_entropy"])
        assert out.loc[4, "n_chars_obs"] == 3
        assert out.loc[4, "n_distinct_chars"] == 2
        # 2×é + 1×a: ln(3) - (2ln2 + 0)/3
        exp = math.log(3) - 2 * math.log(2) / 3
        assert abs(out.loc[4, "char_entropy"] - exp) < 1e-6

    def test_partition_invariance(self, ray_session):
        from record_matcher_ray.pipelines.analysis import char_entropy

        rows = [
            {"doc_id": i, "text": ("abcde" * (i % 7)) + "zz" * (i % 3)}
            for i in range(60)
        ]
        a = (
            char_entropy(ray.data.from_items(rows, override_num_blocks=1))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        b = (
            char_entropy(ray.data.from_items(rows, override_num_blocks=13))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestSoundex:
    def test_classic_names_and_edges(self, ray_session):
        from record_matcher_ray.pipelines.analysis import soundex_codes

        names = [
            ("Robert", "R163"), ("Rupert", "R163"), ("Tymczak", "T522"),
            ("Pfister", "P236"), ("Honeyman", "H555"),
            # simplified variant: H/W break runs (NARA would give A261)
            ("Ashcraft", "A226"),
            ("", ""), (None, ""), ("12 3!", ""),
            # non-ASCII codepoints drop before coding: Müller -> MLLR
            ("Müller", "M460"),
            ("alice smith", "A422"),  # full-string key, spaces dropped
            ("a", "A000"), ("AAAA", "A000"),
        ]
        t = pa.table({
            "i": list(range(len(names))),
            "t": pa.array([n for n, _ in names], pa.string()),
        })
        out = (
            soundex_codes(ray.data.from_arrow(t), "t", "i")
            .to_pandas().sort_values("i")
        )
        assert out["soundex"].tolist() == [c for _, c in names]

    def test_partition_invariant(self, ray_session):
        from record_matcher_ray.pipelines.analysis import soundex_codes

        rows = [{"i": k, "t": f"name{k} variant {k % 7}"} for k in range(200)]
        ref = None
        for blocks in (1, 13):
            out = (
                soundex_codes(
                    ray.data.from_items(rows, override_num_blocks=blocks),
                    "t", "i",
                )
                .to_pandas().sort_values("i").reset_index(drop=True)
            )
            if ref is None:
                ref = out
            else:
                assert out.equals(ref)


# ---------------------------------------------------------------------------
# tfidf_cosine_pairs
# ---------------------------------------------------------------------------


def _brute_tfidf_pairs(ids, texts, threshold, max_df=1000, tf_cap=4096,
                       idf_scale=1024):
    import math
    import re as _re

    tok = lambda s: [w for w in _re.sub(r"[^a-z0-9]+", " ",
                                        (s or "").lower()).split() if w]
    docs = {int(i): tok(t) for i, t in zip(ids, texts)}
    n = len(docs)
    df = {}
    for ts in docs.values():
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
    kept = {t for t, d in df.items() if d <= max_df}
    qidf = {
        t: math.floor((math.log((n + 1.0) / (df[t] + 1.0)) + 1.0)
                      * float(idf_scale) + 0.5)
        for t in kept
    }
    vec = {}
    for i, ts in docs.items():
        v = {}
        for t in ts:
            if t in kept:
                v[t] = v.get(t, 0) + 1
        vec[i] = {t: min(c, tf_cap) * qidf[t] for t, c in v.items()}
    out = {}
    items = sorted(vec)
    for x in range(len(items)):
        for y in range(x + 1, len(items)):
            a, b = items[x], items[y]
            dot = sum(vec[a][t] * vec[b][t] for t in vec[a] if t in vec[b])
            na = sum(w * w for w in vec[a].values())
            nb = sum(w * w for w in vec[b].values())
            if dot == 0 or na == 0 or nb == 0:
                continue
            cs = float(dot) / (math.sqrt(float(na)) * math.sqrt(float(nb)))
            if cs >= threshold:
                out[(a, b)] = math.floor(cs * 1e6 + 0.5) / 1e6
    return out


def test_tfidf_cosine_pairs_bruteforce(ray_session):
    from record_matcher_ray.pipelines.terms import tfidf_cosine_pairs

    rng = np.random.RandomState(4)
    vocab = [f"w{j}" for j in range(40)]
    texts = []
    for i in range(120):
        base = rng.choice(vocab, size=rng.randint(3, 12)).tolist()
        texts.append(" ".join(base))
    # planted near-duplicates
    texts[100] = texts[0] + " extra"
    texts[101] = texts[0]
    texts[102] = ""  # empty doc pairs with nothing
    ids = np.arange(120, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
    ).repartition(6)
    got = {
        (int(r["a"]), int(r["b"])): r["cos_sim"]
        for r in tfidf_cosine_pairs(ds, threshold=0.4).take_all()
    }
    assert got == _brute_tfidf_pairs(ids, texts, 0.4)
    assert (0, 101) in got and got[(0, 101)] == 1.0


def test_tfidf_cosine_pairs_max_df_drops_hot_terms(ray_session):
    from record_matcher_ray.pipelines.terms import tfidf_cosine_pairs

    # 'common' appears in every doc; with max_df=2 it vanishes from the
    # space, so docs sharing only 'common' never pair
    texts = ["common alpha", "common beta", "common alpha beta",
             "common gamma"]
    ids = np.arange(4, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
    )
    got = {
        (int(r["a"]), int(r["b"])): r["cos_sim"]
        for r in tfidf_cosine_pairs(ds, threshold=0.1, max_df=2).take_all()
    }
    assert got == _brute_tfidf_pairs(ids, texts, 0.1, max_df=2)
    assert all((3 not in p) for p in got)  # gamma-only doc pairs with none

    with pytest.raises(ValueError):
        tfidf_cosine_pairs(ds, threshold=0.0)


def test_tfidf_cosine_pairs_empty(ray_session):
    from record_matcher_ray.pipelines.terms import tfidf_cosine_pairs

    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    assert tfidf_cosine_pairs(ds, 0.5).count() == 0


def test_language_id_vectorized_matches_loop(ray_session):
    from record_matcher_ray.pipelines.analysis import (
        _LANG_PROFILES,
        language_id,
    )

    texts = [
        "the quick brown fox and the lazy dog",   # en
        "le chat et le chien sont dans la maison", # fr
        "",                                        # empty -> und
        None,                                      # null -> und
        "zzz qqq xxx",                             # no hits -> und
        "der THE el le und and",                   # mixed, tie-prone
        "  the\tthe\nthe  ",                       # dup tokens, odd ws
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    got = {r["doc_id"]: (r["pred_lang"], r["lang_score"])
           for r in language_id(ds).take_all()}
    # reference loop (the pre-vectorization semantics)
    for i, t in enumerate(texts):
        toks = set(w.lower() for w in (t or "").split())
        best, best_hits = "und", 0
        for lang, prof in _LANG_PROFILES.items():
            hits = len(toks & prof)
            if hits > best_hits:
                best, best_hits = lang, hits
        assert got[i] == (best, round(best_hits / max(1, len(toks)), 6)), i


def test_top_terms_by_group_exact(ray_session):
    from record_matcher_ray.pipelines.terms import top_terms_by_group

    texts = ["apple apple pear", "apple banana", "pear pear pear kiwi",
             "kiwi kiwi apple", None, "apple"]
    grps = ["a", "a", "b", "b", "b", None]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(6), pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "src": pa.array(grps, pa.string())})
    ).repartition(3)
    got = {(r["grp"], r["rnk"]): (r["term"], r["n_occ"])
           for r in top_terms_by_group(ds, "src", k=2).take_all()}
    assert got == {
        ("a", 1): ("apple", 3), ("a", 2): ("banana", 1),
        ("b", 1): ("kiwi", 3), ("b", 2): ("pear", 3),  # tie: term asc
    }


def test_term_kl_divergence_exact(ray_session):
    import math

    from record_matcher_ray.pipelines.terms import term_kl_divergence

    texts = ["x x y", "y z", "x y z z"]
    grps = ["s0", "s0", "s1"]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(range(3), pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "src": pa.array(grps, pa.string())})
    ).repartition(2)
    out = term_kl_divergence(ds, "src").set_index("grp")
    # corpus: x:3 y:3 z:3 (n=9); s0: x:2 y:2 z:1 (n=5); s1: x:1 y:1 z:2
    def kl(counts, n_g):
        s = 0.0
        for term in sorted(counts):
            p = float(counts[term]) / float(n_g)
            q = float(3) / float(9)
            s = s + p * math.log(p / q)
        return math.floor(s * 1e6 + 0.5) / 1e6 if s >= 0 else \
            -math.floor(-s * 1e6 + 0.5) / 1e6
    assert out.loc["s0", "n_tokens"] == 5
    assert out.loc["s0", "kl"] == kl({"x": 2, "y": 2, "z": 1}, 5)
    assert out.loc["s1", "kl"] == kl({"x": 1, "y": 1, "z": 2}, 4)
    # a group identical to the corpus mix has KL 0
    same = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["a b", "a b"], pa.string()),
                  "src": pa.array(["p", "q"], pa.string())})
    )
    out2 = term_kl_divergence(same, "src")
    assert (out2["kl"] == 0.0).all()


def test_ndcg_at_k(ray_session):
    import math

    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.terms import bm25_topk, ndcg_at_k

    docs = [
        "merge scan vector window merge",       # rel 4
        "merge scan",                           # rel 2
        "vector soup",                          # rel 1
        "nothing relevant here",                # rel 0
        "window window window",                 # rel 1
        "scan vector window",                   # rel 3
    ] + [f"filler text {i}" for i in range(20)]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    ds = rd.from_pandas(df).repartition(4)
    q = "merge scan vector window"
    out = ndcg_at_k(ds, q, k=4)
    # mirror: brute force over the same ranking
    terms = set(q.split())

    def rel(s):
        return len(terms & set(s.split()))

    top = [r["doc_id"] for r in bm25_topk(ds, q, 4).take(4)]
    dcg = sum(rel(docs[d]) / math.log2(i + 2) for i, d in enumerate(top))
    ideal = sorted((rel(s) for s in docs), reverse=True)[:4]
    idcg = sum(v / math.log2(i + 2) for i, v in enumerate(ideal))
    assert abs(out["dcg"].iloc[0] - dcg) < 1e-6
    assert abs(out["idcg"].iloc[0] - idcg) < 1e-6
    assert abs(out["ndcg"].iloc[0] - dcg / idcg) < 1e-6
    # no relevant docs -> NULL ndcg
    z = ndcg_at_k(rd.from_pandas(
        pd.DataFrame({"doc_id": np.int64([1]), "text": ["xyz"]})), q, k=3)
    assert z["ndcg"].iloc[0] is None or pd.isna(z["ndcg"].iloc[0])


def test_standardize_tokens(ray_session):
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import standardize_tokens

    df = pd.DataFrame({
        "doc_id": np.int64([1, 2, 3, 4]),
        "text": ["123 Oak St, Apt 4", "ACME Corp", "no abbreviations here",
                 None],
    })
    out = (standardize_tokens(rd.from_pandas(df).repartition(2))
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[1, "std_text"] == "123 oak street apartment 4"
    assert out.loc[1, "n_replaced"] == 2
    assert out.loc[2, "std_text"] == "acme corporation"
    assert out.loc[3, "n_replaced"] == 0
    assert out.loc[4, "std_text"] == ""
    # custom mapping
    out2 = standardize_tokens(
        rd.from_pandas(df), mapping={"acme": "apex"}
    ).to_pandas().set_index("doc_id")
    assert out2.loc[2, "std_text"] == "apex corp"


def test_k_anonymity_audit(ray_session):
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.pii import k_anonymity_audit

    df = pd.DataFrame({
        "zip": ["10001"] * 6 + ["10002"] * 2 + ["10003", None],
        "age": ["30"] * 6 + ["40", "40", "50", "50"],
    })
    out = k_anonymity_audit(rd.from_pandas(df).repartition(3),
                            ["zip", "age"], k=3)
    # groups: (10001,30)x6 ok; (10002,40)x2 risk; (10003,50)x1 risk;
    # (None,50)x1 risk
    assert out["n_rows"].iloc[0] == 10
    assert out["n_groups"].iloc[0] == 4
    assert out["n_at_risk_groups"].iloc[0] == 3
    assert out["n_at_risk_rows"].iloc[0] == 4
    assert out["min_group"].iloc[0] == 1
    import pytest as _pt
    with _pt.raises(ValueError):
        k_anonymity_audit(rd.from_pandas(df), [], k=3)
    with _pt.raises(ValueError):
        k_anonymity_audit(rd.from_pandas(df), ["zip"], k=1)


def test_search_eval_at_k(ray_session):
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.terms import (
        bm25_topk,
        search_eval_at_k,
    )

    docs = [
        "merge scan vector window",
        "merge scan",
        "vector things",
        "irrelevant alpha beta",
        "window pane",
        "gamma delta unrelated",
    ] + [f"filler {i}" for i in range(10)]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    ds = rd.from_pandas(df).repartition(3)
    q = "merge scan vector window"
    out = search_eval_at_k(ds, q, k=3)
    terms = set(q.split())
    relevant = {i for i, s in enumerate(docs) if terms & set(s.split())}
    top = [r["doc_id"] for r in bm25_topk(ds, q, 3).take(3)]
    hits = [d for d in top if d in relevant]
    assert out["n_relevant"].iloc[0] == len(relevant)
    assert out["n_retrieved_relevant"].iloc[0] == len(set(hits))
    assert out["recall"].iloc[0] == round(len(set(hits)) / len(relevant), 6)
    first = next((i + 1 for i, d in enumerate(top) if d in relevant), 0)
    assert out["mrr"].iloc[0] == (round(1.0 / first, 6) if first else 0.0)
    # no relevant docs
    z = search_eval_at_k(rd.from_pandas(pd.DataFrame({
        "doc_id": np.int64([1]), "text": ["zzz"]})), q, k=3)
    assert pd.isna(z["recall"].iloc[0]) and z["mrr"].iloc[0] == 0.0


def test_bpe_train_matches_bruteforce_mirror(ray_session):
    """Engine BPE training == an independent per-word brute-force mirror
    (greedy most-frequent pair, (count DESC, pair ASC) ties, padded
    non-overlapping replace), and encode == per-word application."""
    import collections
    import re

    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.terms import bpe_encode, bpe_train

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the cat sat on the mat", "the hat, the bat!",
                 "matter chatter", "aaaa aa a"],
    })
    ds = rd.from_pandas(df)
    m = bpe_train(ds, num_merges=10, max_words=100)

    wc = collections.Counter()
    for t in df.text:
        wc.update(re.sub(r"[^a-z0-9]+", " ", t.lower()).split())
    seqs = {w: " ".join(list(w) + ["_"]) for w in wc}
    merges = []
    for _ in range(10):
        cnt = collections.Counter()
        for w, s in seqs.items():
            p = s.split(" ")
            for a, b in zip(p, p[1:]):
                cnt[(a, b)] += wc[w]
        if not cnt:
            break
        (a, b), c = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((a, b, c))
        for w in seqs:
            seqs[w] = (" " + seqs[w] + " ").replace(
                f" {a} {b} ", f" {a}{b} ").strip()
    got = list(zip(m["lhs"].to_pylist(), m["rhs"].to_pylist(),
                   m["pair_count"].to_pylist()))
    assert got == merges

    enc = bpe_encode(ds, m).to_pandas().set_index("doc_id")
    for _, row in df.iterrows():
        words = re.sub(r"[^a-z0-9]+", " ", row.text.lower()).split()
        want = sum(len(seqs[w].split(" ")) for w in words)
        assert enc.loc[row.doc_id, "n_tokens"] == want
        assert enc.loc[row.doc_id, "n_words"] == len(words)


def test_bpe_encode_monotone_and_edges(ray_session):
    """More merges never increase a doc's token count; empty/null text
    degrades to the lone end marker."""
    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.terms import bpe_encode, bpe_train

    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["banana bandana", "", None],
    })
    ds = rd.from_pandas(df)
    m = bpe_train(ds, num_merges=6, max_words=50)
    prev = None
    for k in (0, 2, 4, 6):
        sub = pa_slice = m.slice(0, k)
        enc = bpe_encode(ds, pa_slice).to_pandas().set_index("doc_id")
        if prev is not None:
            assert (enc["n_tokens"] <= prev["n_tokens"]).all()
        prev = enc
    assert prev.loc[2, "n_tokens"] == 1 and prev.loc[2, "n_words"] == 0
    assert prev.loc[3, "n_tokens"] == 1 and prev.loc[3, "n_words"] == 0


def test_luhn_card_counts(ray_session):
    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.pii import luhn_card_counts

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "pay 4539578763621486 or 4539578763621487 now",  # valid+invalid
            "order 123456789012 too short",                   # 12 digits
            "run 12345678901234567890123 overlong",           # 19 match
            None,
        ],
    })
    out = (luhn_card_counts(rd.from_pandas(df)).to_pandas()
           .set_index("doc_id"))
    assert out.loc[1, "n_candidates"] == 2
    assert out.loc[1, "n_luhn_valid"] == 1
    assert out.loc[2, "n_candidates"] == 0
    assert out.loc[3, "n_candidates"] == 1  # first 19 digits only
    assert out.loc[4, "n_candidates"] == 0 and out.loc[4, "n_luhn_valid"] == 0


def test_line_dedup(ray_session):
    """Boilerplate lines (df >= min_df across DISTINCT docs) vanish;
    unique lines survive in order; counts match a brute mirror; a doc
    whose line repeats WITHIN itself but nowhere else survives."""
    import collections

    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.analysis import line_dedup

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "keep me\ncookie banner\nunique one",
            "cookie banner\nanother unique\nfooter",
            "footer\nlast unique\ncookie banner",
            "solo solo\nsolo solo\nown line",   # intra-doc repeat: df=1
        ],
    })
    out = (line_dedup(rd.from_pandas(df).repartition(3), min_df=2)
           .to_pandas().set_index("doc_id").sort_index())
    dfreq = collections.Counter()
    for t in df.text:
        dfreq.update(set(t.split("\n")))
    for _, r in df.iterrows():
        lines = r.text.split("\n")
        want = "\n".join(ln for ln in lines if dfreq[ln] < 2)
        assert out.loc[r.doc_id, "text"] == want
        assert out.loc[r.doc_id, "n_lines"] == len(lines)
        assert out.loc[r.doc_id, "n_removed"] == sum(
            1 for ln in lines if dfreq[ln] >= 2)
    assert out.loc[4, "text"] == "solo solo\nsolo solo\nown line"


def test_chunk_passages(ray_session):
    """Word-level passages: normalized text through chunk_documents. The
    tail rule drops a last window that lies inside the one before it, so
    7 words at size 3 / overlap 1 give 3 windows, not 4 ("g" alone)."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from record_matcher_ray.core.hashkernels import normalize_utf8

    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["A b, c-d e f g!", "x", ""]})

    def words(t: pa.Table) -> pa.Table:
        return t.set_column(1, "text", normalize_utf8(t["text"]))

    ds = rd.from_pandas(df).map_batches(words, batch_format="pyarrow")
    out = chunk_documents(ds, size=3, overlap=1).to_pandas()
    got = out[out.doc_id == 1].sort_values("chunk_id")
    assert list(got.chunk_text) == ["a b c", "c d e", "e f g"]
    assert list(got.chunk_id) == [0, 1, 2]
    assert list(got.n_tokens) == [3, 3, 3]
    assert list(out[out.doc_id == 2].chunk_text) == ["x"]
    assert (out.doc_id == 3).sum() == 0  # empty doc: no passages
    with pytest.raises(ValueError):
        chunk_documents(ds, size=4, overlap=4)
