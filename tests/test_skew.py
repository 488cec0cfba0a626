"""Skew: a hot blocking key (most of Y in one block) is scored in bounded
pair chunks and must give the same results however it is chunked, on the
Ray path and the local API (and parity with the reference); plus the
docmatch skew tools."""

import numpy as np
import pandas as pd


def _skewed_tables(n_hot=120, n_cold=30, seed=9):
    rng = np.random.RandomState(seed)
    first = ["alice", "bob", "carol", "dan", "erin", "frank", "gina", "hank"]
    last = ["smith", "jones", "lee", "patel", "garcia", "chen", "kim", "brown"]
    y_rows, x_rows = [], []
    # hot block: one city holds n_hot y rows
    for j in range(n_hot):
        y_rows.append(
            {"ykey": j, "name": f"{rng.choice(first)}-{j}", "city": "metropolis",
             "tag": f"Y{j}"}
        )
    for j in range(n_cold):
        y_rows.append(
            {"ykey": n_hot + j, "name": f"{rng.choice(last)}-{j}",
             "city": f"town{j % 5}", "tag": f"Y{n_hot + j}"}
        )
    # x: probes into both blocks; some match exactly, some fuzzily, some not
    for i, y in enumerate(y_rows):
        if rng.rand() < 0.7:
            nm = y["name"]
            if rng.rand() < 0.4:
                p = rng.randint(len(nm))
                nm = nm[:p] + "x" + nm[p + 1:]
            x_rows.append({"xkey": i, "name": nm, "city": y["city"]})
    x_rows.append({"xkey": 9000, "name": "nobody-здесь", "city": "metropolis"})
    return pd.DataFrame(x_rows), pd.DataFrame(y_rows)


def _config(x_columns, y_columns):
    from record_matcher_ray.core.config import MatchConfigBuilder

    b = MatchConfigBuilder(x_columns=set(x_columns), y_columns=set(y_columns))
    b.match("name", ["name"], scorer="difflib_ratio")
    b.group("city", "city")
    b.get("tag", "matched_tag")
    return b


def _run(x_df, y_df):
    import ray.data as rd

    from record_matcher_ray.pipelines.match import match_datasets

    res = match_datasets(
        rd.from_pandas(x_df), rd.from_pandas(y_df),
        _config(x_df.columns, y_df.columns).build(), "xkey", "ykey",
    )
    return res.dataset.to_pandas().sort_values("xkey").reset_index(drop=True), res.summary


def test_hot_key_chunks_equal_ray_path(ray_session, monkeypatch):
    """The hot key (one city holds 120 of 150 y rows) scored in many small
    pair chunks by the local API gives the Ray path's result row for row:
    status, copy-over, tie strings and scores."""
    from record_matcher_ray.api import RecordMatcher
    from record_matcher_ray.core import kernel

    x_df, y_df = _skewed_tables()
    ray_df, ray_summary = _run(x_df, y_df)

    calls = []
    flat = kernel.score_pairs_flat

    def spy(x_cols, y_cols, xi, yi, cfg, uniq):
        calls.append(len(xi))
        return flat(x_cols, y_cols, xi, yi, cfg, uniq)

    monkeypatch.setattr(kernel, "_PAIR_BUDGET", 240)  # two hot x rows
    monkeypatch.setattr(kernel, "score_pairs_flat", spy)
    m = RecordMatcher()
    m.x_records = {int(r["xkey"]): {"name": r["name"], "city": r["city"]}
                   for _, r in x_df.iterrows()}
    m.y_records = {int(r["ykey"]): {"name": r["name"], "city": r["city"],
                                    "tag": r["tag"]}
                   for _, r in y_df.iterrows()}
    m.config = _config(m.config.x_columns, m.config.y_columns)
    local, local_summary = m.match()

    assert len(calls) >= 40 and max(calls) <= 240
    assert dict(ray_summary) == dict(local_summary)
    assert list(ray_df["xkey"]) == sorted(local)
    for _, row in ray_df.iterrows():
        want = local[int(row["xkey"])]
        for col in ["match_status", "row(s)_matched", "match_score"]:
            assert row[col] == want[col], (row["xkey"], col)
        got_tag = row["matched_tag"]
        assert (got_tag if got_tag == got_tag else None) == want["matched_tag"]


def test_hot_key_matches_reference(ray_session, reference):
    import copy

    from record_matcher_ray.functions.scorers import difflib_ratio

    x_df, y_df = _skewed_tables(n_hot=60, n_cold=10, seed=4)
    x = {int(r["xkey"]): {"name": r["name"], "city": r["city"]}
         for _, r in x_df.iterrows()}
    y = {int(r["ykey"]): {"name": r["name"], "city": r["city"], "tag": r["tag"]}
         for _, r in y_df.iterrows()}

    import record_matcher.config as ref_config
    from record_matcher.matcher import RecordMatcher as Ref

    ref_config.ScorersByColumn.SCORERS["difflib_ratio"] = difflib_ratio
    m = Ref()
    m.x_records = copy.deepcopy(x)
    m.y_records = copy.deepcopy(y)
    m.config.scorers_by_column.default = "difflib_ratio"
    m.config.columns_to_match["name"] = "name"
    m.config.columns_to_group["city"] = "city"
    m.config.columns_to_get["tag"] = "matched_tag"
    want, _ = m.match()

    x_in = x_df[["xkey", "name", "city"]]
    got, _ = _run(x_in, y_df)
    got = got.set_index("xkey")
    for idx, wrow in want.items():
        assert got.loc[idx, "match_status"] == wrow["match_status"], idx
        gv = got.loc[idx, "matched_tag"]
        wv = wrow["matched_tag"]
        assert (gv == wv) or (wv is None and (gv is None or gv != gv)), idx


def test_zipf_corpus_and_pairs_by_key_tag(ray_session, tmp_path):
    """r4 skew stress pieces: the Zipf corpus variant is deterministic and
    heavy-tailed, and the pairs-by-key-tag histogram matches a brute-force
    per-key count on the same keys."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import pairs_by_key_tag
    from record_matcher_ray.sources.corpus import generate_corpus

    a = tmp_path / "za"
    b = tmp_path / "zb"
    generate_corpus(str(a), n_entities=300, seed=11, zipf_docs=1.3)
    generate_corpus(str(b), n_entities=300, seed=11, zipf_docs=1.3)
    ta = pq.read_table(f"{a}/corpus.parquet")
    assert ta.equals(pq.read_table(f"{b}/corpus.parquet"))
    truth = pq.read_table(f"{a}/truth.parquet").to_pandas()
    per_ent = truth[truth["entity_id"] >= 0].groupby("entity_id").size()
    assert per_ent.max() >= 10  # heavy tail present
    assert (per_ent == 1).sum() > len(per_ent) * 0.4  # long tail of singletons

    hist = pairs_by_key_tag(
        rd.read_parquet(f"{a}/corpus.parquet"),
        rd.read_parquet(f"{a}/registry.parquet"),
        max_block_side=32,
    )
    assert set(hist["tag"]) <= {1, 2, 3, 4}
    # brute-force mirror over the same key expansion
    import numpy as np

    from record_matcher_ray.pipelines.docmatch import KeyExpander
    from record_matcher_ray.stages.flatten import add_int_ids, flatten_spans

    def keys_of(path, side):
        t = add_int_ids(flatten_spans(pq.read_table(path)))
        return KeyExpander(side, 64, 1)(t)

    kx = keys_of(f"{a}/corpus.parquet", 0)
    ky = keys_of(f"{a}/registry.parquet", 1)
    import collections

    cx, cy = collections.Counter(), collections.Counter()
    for kk in kx["key"].to_numpy():
        cx[int(kk)] += 1
    for kk in ky["key"].to_numpy():
        cy[int(kk)] += 1
    want = collections.defaultdict(lambda: [0, 0])  # tag -> [admitted, dropped]
    for kk in set(cx) & set(cy):
        tag = kk >> 58
        p = cx[kk] * cy[kk]
        if cx[kk] <= 32 and cy[kk] <= 32:
            want[tag][0] += p
        else:
            want[tag][1] += p
    got = hist.set_index("tag")
    for tag, (adm, drp) in want.items():
        assert got.loc[tag, "admitted_pairs"] == adm, tag
        assert got.loc[tag, "dropped_pairs"] == drp, tag
