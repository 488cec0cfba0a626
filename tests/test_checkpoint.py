"""Checkpoint/lineage layer: atomic partition writes, manifest counters,
and the kill-and-resume contract (SURVEY.md §5.2 layer 4): after deleting
some partition manifests, a re-run recomputes ONLY those partitions and the
final output is identical."""

import json
import os
import shutil

import pandas as pd
import pytest


def _toy_stage_fn(calls):
    import ray.data

    def fn(part):
        calls.append(part)
        i = int(part)
        return ray.data.from_pandas(
            pd.DataFrame({"part": [i] * 5, "value": list(range(i * 10, i * 10 + 5))})
        )

    return fn


def test_run_partitioned_and_resume(ray_session, tmp_path):
    from record_matcher_ray.state import checkpoint as cp

    root = str(tmp_path / "out")
    parts = cp.hash_partition_ids(4)

    calls: list[str] = []
    r1 = cp.StageRunner(root, fingerprint="v1")
    ds1 = r1.run_partitioned("toy", parts, _toy_stage_fn(calls))
    df1 = ds1.to_pandas().sort_values(["part", "value"]).reset_index(drop=True)
    assert calls == parts
    assert r1.computed == [f"toy/{p}" for p in parts] and not r1.skipped
    assert len(df1) == 20

    # manifests carry lineage
    m = cp.manifest(root, "toy", "0001")
    assert m["status"] == "done" and m["rows"] == 5 and m["fingerprint"] == "v1"

    # kill-and-resume: delete two manifests (one with its data dir gone too)
    os.unlink(os.path.join(root, "stage=toy", "part=0001.manifest.json"))
    os.unlink(os.path.join(root, "stage=toy", "part=0003.manifest.json"))
    shutil.rmtree(os.path.join(root, "stage=toy", "part=0003"))

    calls2: list[str] = []
    r2 = cp.StageRunner(root, fingerprint="v1")
    ds2 = r2.run_partitioned("toy", parts, _toy_stage_fn(calls2))
    assert calls2 == ["0001", "0003"]  # ONLY the missing partitions
    assert sorted(r2.skipped) == ["toy/0000", "toy/0002"]
    df2 = ds2.to_pandas().sort_values(["part", "value"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(df1, df2)


def test_fingerprint_mismatch_forces_recompute(ray_session, tmp_path):
    from record_matcher_ray.state import checkpoint as cp

    root = str(tmp_path / "out")
    calls: list[str] = []
    cp.StageRunner(root, fingerprint="v1").run_partitioned(
        "toy", ["0000"], _toy_stage_fn(calls)
    )
    calls2: list[str] = []
    cp.StageRunner(root, fingerprint="v2").run_partitioned(
        "toy", ["0000"], _toy_stage_fn(calls2)
    )
    assert calls2 == ["0000"]


def test_partial_tmp_dir_never_counts_complete(ray_session, tmp_path):
    from record_matcher_ray.state import checkpoint as cp

    root = str(tmp_path / "out")
    # simulate a kill mid-write: a _tmp dir exists, no manifest
    os.makedirs(os.path.join(root, "stage=toy", "_tmp_0000"))
    assert not cp.is_complete(root, "toy", "0000")
    calls: list[str] = []
    cp.StageRunner(root).run_partitioned("toy", ["0000"], _toy_stage_fn(calls))
    assert calls == ["0000"]
    assert cp.is_complete(root, "toy", "0000")


def test_docmatch_checkpointed_resume(ray_session, tmp_path):
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents_checkpointed
    from record_matcher_ray.sources.corpus import generate_corpus

    d = str(tmp_path / "corpus")
    generate_corpus(d, n_entities=40, seed=13)
    x = rd.read_parquet(f"{d}/corpus.parquet")
    y = rd.read_parquet(f"{d}/registry.parquet")
    root = str(tmp_path / "ckpt")

    res1 = match_documents_checkpointed(x, y, root, n_shards=3, fingerprint="c13")
    a1 = res1.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    assert len(res1.runner.computed) == 4  # 3 assignment shards + clusters
    n_edges_1 = res1.counters["matches_accepted"]
    assert n_edges_1 > 0

    # kill one shard's manifest; resume must recompute only that shard
    os.unlink(os.path.join(root, "stage=assignments", "part=0001.manifest.json"))
    res2 = match_documents_checkpointed(x, y, root, n_shards=3, fingerprint="c13")
    assert [c for c in res2.runner.computed if c.startswith("assignments")] == [
        "assignments/0001"
    ]
    a2 = res2.assignments.to_pandas().sort_values("x_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a1, a2)
    assert res2.counters["matches_accepted"] == n_edges_1


_ASSIGN_COLS = ["x_id", "match_status", "winner_y_id", "winner_score",
                "rows_matched", "match_score", "demoted"]


@pytest.fixture(scope="module")
def docmatch_unsharded(ray_session, tmp_path_factory):
    """A corpus on which per-shard blocking used to change the winners
    (1,000 entities, seed 2), with its unsharded assignments and clusters."""
    import ray.data as rd

    from record_matcher_ray.pipelines.docmatch import match_documents
    from record_matcher_ray.sources.corpus import generate_corpus

    d = str(tmp_path_factory.mktemp("corpus1000"))
    generate_corpus(d, n_entities=1000, seed=2)

    def read():
        return (rd.read_parquet(f"{d}/corpus.parquet"),
                rd.read_parquet(f"{d}/registry.parquet"))

    res = match_documents(*read())
    return read, _by_x(res.assignments), _components(res.clusters)


def _by_x(assignments) -> pd.DataFrame:
    return (assignments.to_pandas()[_ASSIGN_COLS]
            .sort_values("x_id").reset_index(drop=True))


def _components(clusters) -> set:
    df = clusters.to_pandas()
    return {frozenset(g) for g in df.groupby("component")["node"].agg(list)}


@pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
def test_docmatch_sharded_equals_unsharded(docmatch_unsharded, tmp_path, n_shards):
    """The shard count only splits the checkpoint: assignments and cluster
    membership equal the unsharded match's for every n_shards."""
    from record_matcher_ray.pipelines.docmatch import match_documents_checkpointed

    read, want, want_clusters = docmatch_unsharded
    res = match_documents_checkpointed(*read(), str(tmp_path / "ck"),
                                       n_shards=n_shards)
    pd.testing.assert_frame_equal(_by_x(res.assignments), want)
    assert _components(res.clusters) == want_clusters


def test_docmatch_reshard_on_one_root(docmatch_unsharded, tmp_path):
    """A root written with 4 shards, re-run with 7 under the same caller
    fingerprint, is recomputed under the new layout: every x once, equal
    to the unsharded match (old manifests are not mixed in)."""
    from record_matcher_ray.pipelines.docmatch import match_documents_checkpointed

    read, want, _ = docmatch_unsharded
    root = str(tmp_path / "ck")
    match_documents_checkpointed(*read(), root, n_shards=4)
    res = match_documents_checkpointed(*read(), root, n_shards=7)
    got = _by_x(res.assignments)
    assert got["x_id"].is_unique and len(got) == len(want)
    pd.testing.assert_frame_equal(got, want)
    assert not res.runner.skipped


def test_read_partition_no_hive_columns(ray_session, tmp_path):
    """r4 regression: the stage=/part= path segments must NOT be
    hive-parsed into extra string columns that ride every downstream
    exchange."""
    import pandas as pd
    import ray.data as rd

    from record_matcher_ray.state.checkpoint import (
        StageRunner,
        read_partition,
    )

    root = str(tmp_path / "ck")
    runner = StageRunner(root, fingerprint="f1")
    out = runner.run(
        "keys", lambda: rd.from_pandas(pd.DataFrame({"k": [1, 2, 3]}))
    )
    assert out.schema().names == ["k"]
    again = read_partition(root, "keys", "all")
    assert again.schema().names == ["k"]
    pruned = read_partition(root, "keys", "all", columns=["k"])
    assert pruned.schema().names == ["k"]


def test_incremental_er_job(ray_session):
    """jobs/incremental_job.py end-to-end on the fixture corpus: day-2
    delta merges into day-1 clusters with stable, collision-free entity
    ids; re-running a day is a manifest read-back."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from jobs.incremental_job import run_day
    from record_matcher_ray.sources.corpus import generate_corpus

    d = "/tmp/rmr_corpus_60"
    if not __import__("os").path.exists(f"{d}/truth.parquet"):
        generate_corpus(d, n_entities=60, seed=42)
    root = "/tmp/rmr_incr_pytest"
    shutil.rmtree(root, ignore_errors=True)

    def split(is_delta: bool):
        def keep(t: pa.Table) -> pa.Table:
            rid = pc.cast(
                pc.utf8_slice_codeunits(t["doc_id"], 1, 99), pa.int64()
            )
            m = np.mod(rid.to_numpy(), 3) == 0
            return t.filter(pa.array(m == is_delta))

        return rd.read_parquet(f"{d}/corpus.parquet").map_batches(
            keep, batch_format="pyarrow"
        )

    reg = rd.read_parquet(f"{d}/registry.parquet")
    e1, r1 = run_day(root, 1, split(False), reg, fingerprint="t")
    p1 = e1.to_pandas()
    assert r1.computed == ["day0001_entities/all"]
    e2, r2 = run_day(root, 2, split(True), reg, fingerprint="t")
    p2 = e2.to_pandas()
    assert len(p2) > len(p1)  # delta added nodes
    # exactly one entity id per component, unique across components
    per = p2.groupby("component")["entity_id"].agg(["nunique", "first"])
    assert (per["nunique"] == 1).all()
    assert per["first"].is_unique
    # surviving nodes keep their day-1 ids
    old = p1.set_index("node")["entity_id"]
    prev = p2["node"].map(old)
    surv = prev.notna()
    assert (p2["entity_id"][surv] == prev[surv]).all()
    # day 2 re-run resumes from the manifest
    _, r3 = run_day(root, 2, split(True), reg, fingerprint="t")
    assert r3.skipped == ["day0002_entities/all"] and r3.computed == []
