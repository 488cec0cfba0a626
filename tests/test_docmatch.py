"""Interleaved-document pipeline: corpus determinism, span-sequence
invariant, blocking recall, end-to-end F1 vs ground truth on co-blocked
pairs (the BASELINE.json metric: pairwise F1 ≥ 0.99), clustering."""

import hashlib

import numpy as np
import pyarrow.parquet as pq
import pytest

from record_matcher_ray.sources.corpus import generate_corpus
from record_matcher_ray.stages import blocking
from record_matcher_ray.stages.flatten import flatten_spans, span_signature


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    generate_corpus(str(d), n_entities=120, max_docs_per_entity=3, seed=7)
    return str(d)


def test_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(str(a), n_entities=20, seed=5)
    generate_corpus(str(b), n_entities=20, seed=5)
    for name in ["registry", "corpus", "truth"]:
        ta = pq.read_table(f"{a}/{name}.parquet")
        tb = pq.read_table(f"{b}/{name}.parquet")
        assert ta.equals(tb), name


def test_corpus_schema(corpus_dir):
    t = pq.read_table(f"{corpus_dir}/corpus.parquet")
    assert t.schema.names == ["doc_id", "spans"]
    first = t["spans"][0].as_py()
    assert set(first[0]) == {"kind", "text", "media_ref", "offset"}
    kinds = {s["kind"] for spans in t["spans"].to_pylist() for s in spans}
    assert "media" in kinds and "text" in kinds  # interleaved text + media


def test_flatten_preserves_span_sequence(corpus_dir):
    t = pq.read_table(f"{corpus_dir}/corpus.parquet")
    flat = flatten_spans(t)
    # per-row invariant: flatten's fingerprint == recomputed from raw spans
    raw = t["spans"].to_pylist()
    for i in range(len(t)):
        assert flat["span_sig"][i].as_py() == span_signature(raw[i])
    assert flat["n_spans"][0].as_py() == len(raw[0])
    # registry titles are canonical entity names
    reg = flatten_spans(pq.read_table(f"{corpus_dir}/registry.parquet"))
    titles = reg["title"].to_pylist()
    assert all(titles), "registry docs must all have title spans"


def test_minhash_similar_texts_collide():
    h = blocking.MinHasher(num_perm=64, seed=1)
    a = blocking.minhash_band_keys("alice smith 12 oak st springfield", h)
    b = blocking.minhash_band_keys("alice smith 12 oak st sprongfield", h)
    c = blocking.minhash_band_keys("completely different text entirely", h)
    assert set(a) & set(b), "near-identical texts must share a band"
    assert not (set(a) & set(c)), "unrelated texts must not collide"


def test_blocking_keys_deterministic_across_calls():
    h1 = blocking.MinHasher(seed=1)
    h2 = blocking.MinHasher(seed=1)
    k1 = blocking.default_doc_keys("alice smith", "body text here", "img://a|img://b", h1)
    k2 = blocking.default_doc_keys("alice smith", "body text here", "img://a|img://b", h2)
    assert k1 == k2
    assert any(k.startswith("md:") for k in k1)
    assert any(k.startswith("mh") for k in k1)
    assert any(k.startswith("tt:") for k in k1)


def test_docmatch_end_to_end_f1(ray_session, corpus_dir):
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents

    x = rd.read_parquet(f"{corpus_dir}/corpus.parquet")
    y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
    res = match_documents(x, y, cluster_edges=True)

    truth = pq.read_table(f"{corpus_dir}/truth.parquet").to_pandas()
    truth_map = dict(zip(truth["doc_id"], truth["entity_id"]))

    adf = res.assignments.to_pandas()
    # accepted (x,y) pairs from edges; node decode: u=2x, v=2y+1
    edf = res.edges.to_pandas()
    accepted = {(u // 2, v // 2) for u, v in zip(edf["u"], edf["v"])}

    # candidate-pair label set: pairs sharing a blocking key = pairs that
    # were scored; approximate with all (x, y=true entity) pairs — i.e.
    # recall of the true assignment — plus precision over accepted pairs.
    tp = sum(1 for (xi, yi) in accepted if truth_map.get(f"x{xi:08d}", -2) == yi)
    fp = len(accepted) - tp
    n_true = sum(1 for v in truth_map.values() if v >= 0)
    fn = n_true - tp
    precision = tp / max(1, tp + fp)
    recall = tp / max(1, tp + fn)
    f1 = 2 * precision * recall / max(1e-9, precision + recall)
    assert f1 >= 0.99, (precision, recall, f1, res.counters)

    # clustering: every accepted x lands in its entity's component with the
    # registry doc
    cdf = res.clusters.to_pandas()
    comp = dict(zip(cdf["node"], cdf["component"]))
    for xi, yi in accepted:
        assert comp[2 * xi] == comp[2 * yi + 1]

    assert res.counters["pairs_scored"] > 0
    assert res.counters["matches_accepted"] == len(accepted)
    # status accounting covers the FULL x universe: no silently-absent docs
    n_x_docs = pq.read_table(f"{corpus_dir}/corpus.parquet").num_rows
    assert len(adf) == n_x_docs, (len(adf), n_x_docs)
    assert "blocks_dropped" in res.counters
    assert "x_without_candidates" in res.counters


def test_docmatch_unmatched_backfill(ray_session, corpus_dir):
    """A doc sharing no blocking key with any registry doc must surface as
    UNMATCHED (round-1 advice: it was silently absent from assignments)."""
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents

    corpus_schema = pq.read_table(f"{corpus_dir}/corpus.parquet").schema
    loner = pa.Table.from_pylist(
        [{"doc_id": "x99999999",
          "spans": [{"kind": "text", "text": "qqqq zzzz 99999 wwww vvvv",
                     "media_ref": "", "offset": 0}]}],
        schema=corpus_schema,
    )
    x = rd.read_parquet(f"{corpus_dir}/corpus.parquet").union(
        rd.from_arrow(loner)
    )
    y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
    res = match_documents(x, y, cluster_edges=False)
    adf = res.assignments.to_pandas()
    assert res.counters["x_without_candidates"] >= 1
    # the loner doc is present and unmatched (its rid is the one whose
    # status came from the backfill; every doc_id appears exactly once)
    assert len(adf) == x.count()
    assert len(set(adf["x_id"])) == len(adf)


def _find(parent: dict[int, int], x: int) -> int:
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while parent.get(x, x) != x:  # path compression
        parent[x], x = root, parent[x]
    return root


def connected_components_local(edges) -> dict[int, int]:
    """Union-find oracle over an iterable of (u, v) → node → component
    root (the minimum node id in the component)."""
    parent: dict[int, int] = {}
    seen: set[int] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        seen.add(u)
        seen.add(v)
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            lo, hi = (ru, rv) if ru < rv else (rv, ru)
            parent[hi] = lo
    return {n: _find(parent, n) for n in seen}


def test_connected_components_local():
    comp = connected_components_local([(1, 2), (2, 3), (10, 11), (5, 5)])
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[10] == comp[11] == 10


def test_connected_components_star_matches_general():
    from record_matcher_ray.pipelines.cluster import (
        connected_components_arrays,
        connected_components_star,
    )

    rng = np.random.RandomState(7)
    # degree-≤1 left side: unique u (even ids), shared v centers (odd ids),
    # like docmatch's per-x winner pairs
    u = np.arange(500, dtype=np.int64) * 2
    v = rng.randint(0, 80, 500).astype(np.int64) * 2 + 1
    n_gen, c_gen = connected_components_arrays(u, v)
    n_star, c_star = connected_components_star(u, v)
    assert np.array_equal(n_gen, n_star)
    assert np.array_equal(c_gen, c_star)
    # empty edge list
    e = np.empty(0, np.int64)
    n0, c0 = connected_components_star(e, e)
    assert len(n0) == 0 and len(c0) == 0


def test_connected_components_bsp_matches_local(ray_session):
    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import connected_components

    rng = np.random.RandomState(3)
    edges = [(int(rng.randint(0, 60)), int(rng.randint(0, 60))) for _ in range(80)]
    ds = rd.from_pandas(pd.DataFrame(edges, columns=["u", "v"]))
    local = connected_components_local(edges)
    # force the BSP path
    bsp = connected_components(ds, driver_threshold=0).to_pandas()
    got = dict(zip(bsp["node"], bsp["component"]))
    assert set(got) == set(local)
    for n in local:
        assert got[n] == local[n], n


def test_docmatch_progress_hook(ray_session, corpus_dir):
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents

    events = []
    match_documents(
        rd.read_parquet(f"{corpus_dir}/corpus.parquet"),
        rd.read_parquet(f"{corpus_dir}/registry.parquet"),
        cluster_edges=False,
        progress=lambda s, i: events.append(s),
    )
    assert events == ["flatten", "uniqueness", "pair_scoring", "reduce",
                      "flips", "finalize", "assignments", "edges",
                      "clustering"]


def test_docmatch_delta_matches_full(ray_session, corpus_dir, tmp_path):
    """Incremental path (VERDICT r3 item #3): a delta run over a subset of
    x docs against the persisted registry index must equal a direct
    match_documents run on the same subset, and the second delta must SKIP
    the index stages via the lineage manifests."""
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import (
        match_documents,
        match_documents_delta,
    )

    y = rd.read_parquet(f"{corpus_dir}/registry.parquet")

    def subset(mod: int):
        def keep(t: pa.Table) -> pa.Table:
            rid = pc.cast(
                pc.utf8_slice_codeunits(t["doc_id"], 1, 99), pa.int64()
            )
            return t.filter(pa.array(np.mod(rid.to_numpy(), 10) == mod))

        return rd.read_parquet(f"{corpus_dir}/corpus.parquet").map_batches(
            keep, batch_format="pyarrow"
        )

    root = str(tmp_path / "regidx")
    d1 = match_documents_delta(subset(0), y, root, fingerprint="c120")
    assert sorted(d1.runner.computed) == [
        "y_flat/all", "y_keys/all", "y_keyset/all"
    ]
    full = match_documents(subset(0), y)
    a = d1.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    b = full.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    assert a.equals(b)

    # second delta (different subset): index stages skipped, not rebuilt
    d2 = match_documents_delta(subset(1), y, root, fingerprint="c120")
    assert sorted(d2.runner.skipped) == [
        "y_flat/all", "y_keys/all", "y_keyset/all"
    ]
    assert d2.runner.computed == []
    full2 = match_documents(subset(1), y)
    a2 = d2.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    b2 = full2.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    assert a2.equals(b2)

    # a different key-derivation parameter invalidates the index
    d3 = match_documents_delta(subset(1), y, root, fingerprint="c120",
                               num_perm=32)
    assert sorted(d3.runner.computed) == [
        "y_flat/all", "y_keys/all", "y_keyset/all"
    ]


def test_merge_components_incremental(ray_session):
    """Incremental cluster maintenance == full recompute over the edge
    union, with untouched components passing through by identity."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import (
        connected_components,
        merge_components,
    )

    rng = np.random.default_rng(31)
    # base graph: 400 nodes in chains of 4
    base_u = np.arange(0, 400, dtype=np.int64)
    base_v = (base_u // 4) * 4  # star to chain head
    base = rd.from_pandas(pd.DataFrame({"u": base_u, "v": base_v}))
    old = connected_components(base).materialize()

    # delta: 30 random bridge edges + 5 edges touching brand-new nodes
    nu = rng.integers(0, 400, 30)
    nv = rng.integers(0, 400, 30)
    extra_u = np.array([1000, 1001, 1002, 1003, 7], dtype=np.int64)
    extra_v = np.array([1001, 1002, 500, 501, 1000], dtype=np.int64)
    new_edges = pd.DataFrame({
        "u": np.concatenate([nu, extra_u]).astype(np.int64),
        "v": np.concatenate([nv, extra_v]).astype(np.int64),
    })
    merged = merge_components(
        old, rd.from_pandas(new_edges)
    ).to_pandas().set_index("node")["component"].to_dict()

    # full recompute over star(old) + new edges
    star = old.to_pandas().rename(columns={"node": "u", "component": "v"})
    full = connected_components(
        rd.from_pandas(pd.concat([star, new_edges], ignore_index=True))
    ).to_pandas().set_index("node")["component"].to_dict()
    assert merged == full

    # empty delta passes the clustering through unchanged
    same = merge_components(
        old, rd.from_pandas(new_edges.iloc[:0])
    ).to_pandas().set_index("node")["component"].to_dict()
    assert same == old.to_pandas().set_index("node")["component"].to_dict()


def test_stable_relabel(ray_session):
    """Stable entity ids across runs: merged clusters inherit the MIN old
    id; split clusters give the contested id to exactly one part; brand
    new clusters mint their component label."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import stable_relabel

    # old run: entities {1,2,3}->10, {4,5}->40, {6}->60
    old = pd.DataFrame({
        "node": np.int64([1, 2, 3, 4, 5, 6]),
        "component": np.int64([10, 10, 10, 40, 40, 60]),
    })
    # new run: {1,2}->1 (part of old 10), {3,4,5}->3 (merges old 10+40),
    # {6,7}->6 (extends 60), {8,9}->8 (brand new)
    new = pd.DataFrame({
        "node": np.int64([1, 2, 3, 4, 5, 6, 7, 8, 9]),
        "component": np.int64([1, 1, 3, 3, 3, 6, 6, 8, 8]),
    })
    out = (stable_relabel(rd.from_pandas(old).repartition(2),
                          rd.from_pandas(new).repartition(3))
           .to_pandas().set_index("node").sort_index())
    ent = out["entity_id"]
    # both claimants of old id 10: comps 1 and 3 -> lowest comp (1) keeps
    assert ent.loc[1] == 10 and ent.loc[2] == 10
    # comp 3 claims min(10, 40) = 10 but loses to comp 1 -> falls back
    assert ent.loc[3] == 3 and ent.loc[4] == 3 and ent.loc[5] == 3
    assert ent.loc[6] == 60 and ent.loc[7] == 60
    assert ent.loc[8] == 8 and ent.loc[9] == 8
    # component labels pass through unchanged
    assert out["component"].tolist() == [1, 1, 3, 3, 3, 6, 6, 8, 8]


def test_stable_relabel_split_min_node_isolated(ray_session):
    """Contested-claim regression (ADVICE r4): old {3,5}->3 splits into
    new comps {1,5} and {3}; both claim 3. The comp whose label equals
    the claim (it contains the old min node 3) must win, and the loser's
    fallback must not duplicate it."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import stable_relabel

    old = pd.DataFrame({"node": np.int64([3, 5]),
                        "component": np.int64([3, 3])})
    new = pd.DataFrame({"node": np.int64([1, 5, 3]),
                        "component": np.int64([1, 1, 3])})
    out = (stable_relabel(rd.from_pandas(old), rd.from_pandas(new))
           .to_pandas().set_index("node"))
    ent = out["entity_id"]
    assert ent.loc[3] == 3          # label==claim claimant keeps the id
    assert ent.loc[1] == 1 and ent.loc[5] == 1
    comp_ids = out.groupby("component")["entity_id"].first()
    assert comp_ids.is_unique


def test_stable_relabel_fallback_collides_with_won_claim(ray_session):
    """Cascade regression: a loser's fallback label equals a claim WON
    by a different comp — must bump to a fresh id, never duplicate.
    old {1,10}->1, {2,11}->2; new {1}, {2,10}, {11}: comp 2 claims 1 and
    loses to comp 1 (label==claim), falls back to label 2 — but comp 11
    won claim 2, so comp 2 bumps to a fresh id (12)."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import stable_relabel

    old = pd.DataFrame({"node": np.int64([1, 10, 2, 11]),
                        "component": np.int64([1, 1, 2, 2])})
    new = pd.DataFrame({"node": np.int64([1, 2, 10, 11]),
                        "component": np.int64([1, 2, 2, 11])})
    out = (stable_relabel(rd.from_pandas(old).repartition(2),
                          rd.from_pandas(new).repartition(2))
           .to_pandas().set_index("node"))
    ent = out["entity_id"]
    assert ent.loc[1] == 1           # label==claim, wins claim 1
    assert ent.loc[11] == 2          # uncontested claim 2
    # comp 2's fallback label 2 collides with won claim 2 -> fresh id
    # past max(labels, claims) = 11
    assert ent.loc[2] == 12 and ent.loc[10] == 12
    comp_ids = out.groupby("component")["entity_id"].first()
    assert comp_ids.is_unique


def test_stable_relabel_uniqueness_property(ray_session):
    """Randomized adversarial splits/merges/deletes: entity ids must be
    globally unique across components, every claimed-and-won old id goes
    to exactly one component, and an old entity surviving INTACT in one
    component keeps its id (the contract the ADVICE r4 bug violated)."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import stable_relabel

    for seed in range(6):
        rng = np.random.RandomState(seed)
        n = 300
        nodes = np.arange(n, dtype=np.int64)
        # old comps: random segmentation; label = min node of comp
        cuts = np.sort(rng.choice(np.arange(1, n), size=40, replace=False))
        comp_of = np.zeros(n, np.int64)
        start = 0
        for c in list(cuts) + [n]:
            comp_of[start:c] = start
            start = c
        old = pd.DataFrame({"node": nodes, "component": comp_of})
        # new clustering: drop ~15% of nodes, add fresh ones, re-segment
        keep = rng.rand(n) > 0.15
        newn = np.concatenate([nodes[keep],
                               np.arange(n, n + 30, dtype=np.int64)])
        newn = np.sort(newn)
        cuts2 = np.sort(rng.choice(np.arange(1, len(newn)),
                                   size=50, replace=False))
        comp2 = np.zeros(len(newn), np.int64)
        start = 0
        for c in list(cuts2) + [len(newn)]:
            comp2[start:c] = newn[start]
            start = c
        new = pd.DataFrame({"node": newn, "component": comp2})
        out = (stable_relabel(rd.from_pandas(old).repartition(3),
                              rd.from_pandas(new).repartition(4))
               .to_pandas())
        per = out.groupby("component")["entity_id"].agg(["nunique", "first"])
        assert (per["nunique"] == 1).all(), seed
        assert per["first"].is_unique, seed
        # an old entity whose surviving members all landed in ONE new
        # comp, and whose comp has no smaller-claiming member, keeps its
        # id there when it is that comp's min claim
        oldmap = old.set_index("node")["component"]
        j = out.merge(old, on="node", how="left",
                      suffixes=("", "_old")).dropna(subset=["component_old"])
        claims = j.groupby("component")["component_old"].min()
        won = {}
        for comp, claim in claims.items():
            c = int(claim)
            won.setdefault(c, []).append(comp)
        for c, claimants in won.items():
            ids = out.groupby("component")["entity_id"].first()
            got = [comp for comp in claimants if ids[comp] == c]
            assert len(got) == 1, (seed, c, claimants)  # exactly one wins


def test_stable_relabel_exchange_path_matches_broadcast(ray_session):
    """broadcast_cap=0 forces the bucketed-exchange path; it must agree
    with the (default) broadcast path row for row."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.pipelines.cluster import stable_relabel

    rng = np.random.RandomState(5)
    n = 4000
    old = pd.DataFrame({
        "node": np.arange(n, dtype=np.int64),
        "component": (np.arange(n) // 3 * 3).astype(np.int64),
    })
    # new clustering: merge pairs of old comps, drop some nodes, add new
    new = pd.DataFrame({
        "node": np.concatenate([np.arange(0, n, 1)[rng.rand(n) > 0.1],
                                np.arange(n, n + 500)]).astype(np.int64),
    })
    new["component"] = (new["node"] // 6 * 6).astype(np.int64)
    a = (stable_relabel(rd.from_pandas(old).repartition(4),
                        rd.from_pandas(new).repartition(5))
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (stable_relabel(rd.from_pandas(old).repartition(4),
                        rd.from_pandas(new).repartition(5),
                        broadcast_cap=0)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert a.equals(b)
    per = a.groupby("component")["entity_id"].agg(["nunique", "first"])
    assert (per["nunique"] == 1).all() and per["first"].is_unique


def _docmatch_outputs(res):
    """(assignments by x_id, edges, clusters, counters) in a canonical order."""
    a = res.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    e = res.edges.to_pandas().sort_values(["u", "v"]).reset_index(drop=True)
    c = res.clusters.to_pandas().sort_values("node").reset_index(drop=True)
    return a, e, c, dict(res.counters)


def _assert_same_outputs(got, want, label):
    import pandas as pd

    for g, w, name in zip(got[:3], want[:3], ("assignments", "edges", "clusters")):
        pd.testing.assert_frame_equal(g, w, obj=f"{label} {name}")
    assert got[3] == want[3], label


def test_docmatch_results_do_not_depend_on_layout(ray_session, corpus_dir):
    """The task layout (tasks and partitions per exchange, rows per
    scoring call) only decides how the work is cut: every forced
    (default_tasks, _ROWS_PER_CALL), with the per-x reduce on the driver
    or through its exchange, gives the default layout's outputs, and so
    do flats cut into small blocks."""
    import ray.data as rd
    from ray.data.context import DataContext

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.docmatch import match_documents

    def run(**kw):
        x = rd.read_parquet(f"{corpus_dir}/corpus.parquet")
        y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
        return _docmatch_outputs(match_documents(x, y, **kw))

    want = run()
    assert want[3]["pairs_scored"] > 0 and want[3]["blocks_dropped"] >= 0
    # flats cut at a 16 KiB block size cap: many small blocks, one
    # flatten call per piece
    with pytest.MonkeyPatch.context() as m:
        m.setattr(DataContext.get_current(), "target_max_block_size", 16 << 10)
        _assert_same_outputs(run(), want, "16 KiB blocks")
    for parts in (1, 2, 64):
        for rows in (64, 1 << 40):  # many scoring calls, or one per task
            # reduce_driver_cap=0 sends the per-x reduce through its
            # xb exchange instead of the driver
            for cap in ((0, 500_000) if parts == 2 else (500_000,)):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(exchange, "default_tasks", lambda p=parts: p)
                    m.setattr(exchange, "_ROWS_PER_CALL", rows)
                    got = run(reduce_driver_cap=cap)
                _assert_same_outputs(got, want, f"{parts} {rows} {cap}")


def _match_fixture(corpus_dir, **kw):
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents

    return match_documents(rd.read_parquet(f"{corpus_dir}/corpus.parquet"),
                           rd.read_parquet(f"{corpus_dir}/registry.parquet"),
                           **kw)


# sha256 of the fixture's outputs as CSV (assignments by x_id, edges by
# (u, v), clusters by node), recorded when the flats were two Ray Data
# executions and the driver tail returned ray.data.from_arrow datasets
_PINNED_SHA = (
    "fa4153ca70eb9329f06256f2de4cd48e327aa721998643dfda7269d2d6a089b4",
    "d258a6acef827c4604b3b3de8cc0b06949f6c6c24cd42706c7bab7f343aead47",
    "d6d8643a505de1f09ab4612037925cc288f929a306a7f93552757b3cefc1780a",
)


@pytest.mark.parametrize("cap", [500_000, 0])
def test_docmatch_counters_pinned(ray_session, corpus_dir, cap):
    """The fixture's counters, recorded when stage B still scored one
    row per shared key: scoring each doc pair once per key group must
    keep counting it once per shared key (pairs_scored), and the driver
    tail below reduce_driver_cap must count what the exchange path does.
    max_block_side=4 makes blocks_dropped non-zero. The default run's
    assignments, edges and clusters hash to the recorded values."""
    for kw, want in (
        ({}, dict(pairs_scored=2570, blocks_dropped=0,
                  matches_accepted=231, x_without_candidates=34)),
        ({"max_block_side": 4, "cluster_edges": False},
         dict(pairs_scored=829, blocks_dropped=38, matches_accepted=231,
              x_without_candidates=34)),
    ):
        res = _match_fixture(corpus_dir, reduce_driver_cap=cap, **kw)
        assert dict(res.counters) == want, kw
        if not kw:
            got = tuple(hashlib.sha256(f.to_csv(index=False).encode())
                        .hexdigest() for f in _docmatch_outputs(res)[:3])
            assert got == _PINNED_SHA


def test_docmatch_barrier_budget(ray_session, corpus_dir, executions):
    """One match_documents call, with its assignments, edges and clusters
    read back, runs no Ray Data execution when x and y are bare reads or
    in-memory sources, on either side of reduce_driver_cap: the two flats
    are one map_blocks task wave (a bare read is decoded inside its
    tasks), key expansion, the blocking exchange and pair scoring are Ray
    core tasks over the flats' blocks, and the tail either runs on the
    driver's tie table or as core tasks over the scored blocks, its
    outputs executed datasets. A lazy input with an op after its read is
    executed once, with no Sort, Repartition or Aggregate operator. Each
    execution costs ~0.1 s of fixed latency on a 1-CPU host, more than
    all the scoring of a few thousand docs."""
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents

    def run(read, **kw):
        x, y = (read(f"{corpus_dir}/{n}.parquet") for n in ("corpus", "registry"))
        with executions() as plans:
            outs = _docmatch_outputs(match_documents(x, y, **kw))
        return outs, plans

    want, plans = run(rd.read_parquet)
    assert plans == [], plans
    assert want[3]["matches_accepted"] > 0
    # the distributed tail: the per-x reduce through its exchange
    got, plans = run(rd.read_parquet, reduce_driver_cap=0)
    assert plans == [], plans
    _assert_same_outputs(got, want, "reduce_driver_cap=0")
    got, plans = run(lambda p: rd.from_arrow(pq.read_table(p)))
    assert plans == [], plans
    _assert_same_outputs(got, want, "from_arrow")
    got, plans = run(lambda p: rd.read_parquet(p).map_batches(
        lambda b: b, batch_format="pyarrow"))
    assert len(plans) <= 2, plans
    assert not [
        p for p in plans
        if any(w in o for o in p for w in ("Sort", "Repartition", "Aggregate"))
    ], plans
    assert got[3] == want[3]


def test_warm_delta_runs_no_execution(ray_session, corpus_dir, tmp_path, executions):
    """Against a warm registry index a delta call over a bare read runs
    no Ray Data execution: the x keys are expanded and pruned in one
    map_blocks wave over the flats. Its outputs equal the first call's."""
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents_delta

    def run():
        x = rd.read_parquet(f"{corpus_dir}/corpus.parquet")
        y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
        with executions() as plans:
            res = match_documents_delta(x, y, str(tmp_path / "regidx"),
                                        fingerprint="warm")
            outs = _docmatch_outputs(res)
        return outs, plans

    first, _ = run()
    assert first[3]["matches_accepted"] > 0
    got, plans = run()
    assert plans == [], plans
    _assert_same_outputs(got, first, "warm delta")


def test_docmatch_stage_b_partitions_are_key_groups(
    ray_session, corpus_dir, monkeypatch
):
    """The stage-B exchange cuts the key rows at bucket boundaries, so at
    2 partitions both reduce partitions hold keys and no operator emits a
    column-less block: Ray logs each such block as a schema change ("...
    new schema: ."). A sort sampled on the group column made a partition
    per input block, most of them empty."""
    import logging

    from record_matcher_ray.core import exchange

    monkeypatch.setattr(exchange, "default_tasks", lambda: 2)

    class Grab(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    grab = Grab()
    logger = logging.getLogger("ray.data")
    logger.addHandler(grab)
    try:
        _match_fixture(corpus_dir, cluster_edges=False)
    finally:
        logger.removeHandler(grab)
    assert not [m for m in grab.messages if "different schema" in m]


def test_docmatch_delta_regroups_stored_index(ray_session, corpus_dir, tmp_path):
    """The registry index is built under the default layout and its keys
    carry no key group; a delta run under another layout (1 task, 64
    rows per scoring call) regroups them and equals the unsharded run
    laid out the same way."""
    import ray.data as rd

    from record_matcher_ray.core import exchange
    from record_matcher_ray.pipelines.docmatch import (
        match_documents,
        match_documents_delta,
    )

    x = rd.read_parquet(f"{corpus_dir}/corpus.parquet")
    y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
    root = str(tmp_path / "regidx")
    for parts in (None, 1):
        with pytest.MonkeyPatch.context() as m:
            if parts is not None:
                m.setattr(exchange, "default_tasks", lambda: parts)
                m.setattr(exchange, "_ROWS_PER_CALL", 64)
            delta = match_documents_delta(x, y, root, fingerprint="layout")
            full = match_documents(x, y)
            got, want = _docmatch_outputs(delta), _docmatch_outputs(full)
        # the index drops y-overflow keys at build time, so a delta's
        # blocks_dropped counts x-width overflows only (build_doc_index)
        for c in (got[3], want[3]):
            c.pop("blocks_dropped")
        _assert_same_outputs(got, want, f"parts={parts}")


def test_docmatch_delta_ignores_stored_key_group(ray_session, corpus_dir, tmp_path):
    """A registry key table written when keys still carried their key
    group (a leading int64 ``bucket`` column) matches like one without."""
    import pyarrow as pa
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import (
        _load_y_prepared,
        default_doc_config,
        match_documents,
    )

    x = rd.read_parquet(f"{corpus_dir}/corpus.parquet")
    y = rd.read_parquet(f"{corpus_dir}/registry.parquet")
    _, (y_flat, yk, yset_ref, y_route) = _load_y_prepared(
        y, str(tmp_path / "regidx"), default_doc_config(), num_perm=64,
        seed=1, max_block_side=32, fingerprint="old-index",
    )

    def with_group(t: pa.Table) -> pa.Table:
        g = np.arange(len(t), dtype=np.int64) % 7
        return t.add_column(0, "bucket", pa.array(g))

    old = yk.map_batches(with_group, batch_format="pyarrow").materialize()
    assert old.schema().names == ["bucket", "key", "rid", "side"]
    got, want = (
        _docmatch_outputs(match_documents(
            x, None, y_prepared=(y_flat, k, yset_ref, y_route)))
        for k in (old, yk)
    )
    assert want[3]["matches_accepted"] > 0
    _assert_same_outputs(got, want, "stored key group")


# run in a child process that owns a 1-CPU Ray session: counts the live
# Ray worker processes under it (the Ray Data stats actor and the
# autoscaling requester are actors, not task workers) after the calls
_WORKERS_SCRIPT = """
import os, sys
import ray
import ray.data as rd
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from record_matcher_ray.pipelines.docmatch import match_documents
d = sys.argv[1]
for cap in (500_000, 0) * 4:
    match_documents(rd.read_parquet(f"{d}/corpus.parquet"),
                    rd.read_parquet(f"{d}/registry.parquet"),
                    reduce_driver_cap=cap).assignments.count()
children = {}
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as f:
            ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        with open(f"/proc/{pid}/cmdline") as f:
            title = f.read()
    except OSError:
        continue
    children.setdefault(ppid, []).append((int(pid), title))
workers, todo = [], [os.getpid()]
while todo:
    for pid, title in children.get(todo.pop(), []):
        todo.append(pid)
        if title.startswith("ray::") and not any(
                a in title for a in ("_StatsActor", "AutoscalingRequester")):
            workers.append(title.split(chr(0))[0])
print("WORKERS", len(workers), workers)
ray.shutdown()
"""


def test_docmatch_keeps_one_worker_per_cpu(corpus_dir):
    """On 1 Ray CPU repeated match_documents calls leave one Ray worker
    process: no task wave asks for num_cpus=0, which made Ray start a
    second worker that stayed (~210 MB of peak RSS on perfbench
    docmatch_full). The start depends on timing, so the child makes
    eight calls over both tails; the parent left two workers by the
    fourth call in every trial."""
    import os
    import pathlib
    import subprocess
    import sys

    repo = str(pathlib.Path(__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (repo, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _WORKERS_SCRIPT, corpus_dir], cwd=repo,
        env=env, capture_output=True, text=True, timeout=600,
    )
    line = [ln for ln in out.stdout.splitlines() if ln.startswith("WORKERS")]
    assert out.returncode == 0 and line, out.stderr[-2000:]
    assert int(line[0].split()[1]) <= 1, line[0]
