"""Contract — north-star document pipeline + multimodal.

Queries + DuckDB oracle SQL, split from __ray_entry__.py (r4). Each
query callable takes an sf_dir; oracles() returns the DuckDB replays
for the SQL-expressible subset.
"""
from __future__ import annotations

import os  # noqa: F401

import numpy as np  # noqa: F401

from record_matcher_ray.sources.readers import read_table


def _q_docmatch(sf_dir: str):
    """North-star pipeline over a deterministic interleaved corpus sized by
    sf. Blocking + scoring + clustering are not SQL, so the output is
    SELF-CHECKING (VERDICT r4): each assignment row carries its truth
    entity (truth.parquet), a ``winner_ok`` bit, and constant
    truth-based ``precision``/``recall``/``f1`` columns — a broken
    matcher shifts visible values, not just an opaque hash."""
    import pandas as pd


    from record_matcher_ray.pipelines.docmatch import match_documents
    from record_matcher_ray.sources.corpus import generate_corpus

    scale = {"0.001": 60, "0.01": 200, "0.1": 800}.get(
        sf_dir.rstrip("/").split("sf")[-1], 200
    )
    d = f"/tmp/rmr_corpus_{scale}"
    if not os.path.exists(f"{d}/truth.parquet"):
        generate_corpus(d, n_entities=scale, seed=42)
    res = match_documents(
        read_table(f"{d}/corpus.parquet"),
        read_table(f"{d}/registry.parquet"),
    )
    # fixture-scale truth join on the driver (corpus of `scale` entities;
    # at data scale this would be a broadcast-index attach)
    a = res.assignments.to_pandas()
    t = pd.read_parquet(f"{d}/truth.parquet")
    t["x_id"] = t["doc_id"].str[1:].astype("int64")
    m = a.merge(t[["x_id", "entity_id"]], on="x_id", how="left").rename(
        columns={"entity_id": "truth_entity"}
    )
    m["truth_entity"] = m["truth_entity"].fillna(-2).astype("int64")
    pred = m["match_status"].isin(["MATCHED", "DUPLICATE", "REVIEW"])
    m["winner_ok"] = (
        pred & (m["truth_entity"] >= 0)
        & (m["winner_y_id"] == m["truth_entity"])
    )
    tp = int(m["winner_ok"].sum())
    n_pred, n_pos = int(pred.sum()), int((m["truth_entity"] >= 0).sum())
    prec = tp / max(n_pred, 1)
    rec = tp / max(n_pos, 1)
    f1 = 2 * prec * rec / max(prec + rec, 1e-12)
    m["precision"] = round(prec, 6)
    m["recall"] = round(rec, 6)
    m["f1"] = round(f1, 6)
    return m.sort_values("x_id").reset_index(drop=True)


def _q_delta_match(sf_dir: str):
    """Incremental matching (r4): a 1-in-3 delta of corpus docs matched
    against the PERSISTED registry index (build_doc_index manifests; the
    build is skipped when the index exists). Matcher semantics are not
    SQL, so the output is SELF-CHECKING (VERDICT r4): the SAME subset is
    also matched directly (fresh y flatten + key expansion, no index)
    and every row carries ``agrees_direct`` — the delta-vs-direct
    equality the repo tests pin, now visible to the driver — plus a
    constant ``n_disagree`` column (0 in a healthy run)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc


    from record_matcher_ray.pipelines.docmatch import (
        match_documents,
        match_documents_delta,
    )
    from record_matcher_ray.sources.corpus import generate_corpus

    scale = {"0.001": 60, "0.01": 200, "0.1": 800}.get(
        sf_dir.rstrip("/").split("sf")[-1], 200
    )
    d = f"/tmp/rmr_corpus_{scale}"
    if not os.path.exists(f"{d}/truth.parquet"):
        generate_corpus(d, n_entities=scale, seed=42)

    def keep(t: pa.Table) -> pa.Table:
        rid = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 1, 99), pa.int64())
        return t.filter(pa.array(np.mod(rid.to_numpy(), 3) == 0))

    delta_x = read_table(f"{d}/corpus.parquet").map_batches(
        keep, batch_format="pyarrow"
    )
    res = match_documents_delta(
        delta_x,
        read_table(f"{d}/registry.parquet"),
        f"/tmp/rmr_regindex_{scale}",
        fingerprint=f"corpus-{scale}-seed42",
    )
    direct = match_documents(
        delta_x,
        read_table(f"{d}/registry.parquet"),
        cluster_edges=False,
    )
    a = res.assignments.to_pandas()
    b = direct.assignments.to_pandas()[
        ["x_id", "match_status", "winner_y_id"]
    ].rename(columns={"match_status": "_st_d", "winner_y_id": "_wy_d"})
    m = a.merge(b, on="x_id", how="outer", indicator=True)
    m["agrees_direct"] = (
        (m["_merge"] == "both")
        & (m["match_status"] == m["_st_d"])
        & (m["winner_y_id"].fillna(-1) == m["_wy_d"].fillna(-1))
    )
    m["n_disagree"] = int((~m["agrees_direct"]).sum())
    return (
        m.drop(columns=["_st_d", "_wy_d", "_merge"])
        .sort_values("x_id")
        .reset_index(drop=True)
    )


def _q_media_features(sf_dir: str):
    """Fake-decoder featurize plumbing. SELF-CHECKING (VERDICT r4): the
    driver recomputes each row's expected deterministic feature vector
    and byte count independently from the input payloads and emits
    ``feat_ok``/``nbytes_ok`` bits — a row-misalignment or dropped-batch
    bug in the actor-pool path flips visible bits."""
    import zlib

    import pandas as pd

    import ray.data

    from record_matcher_ray.stages.multimodal import featurize_media, synth_media_table

    tbl = synth_media_table(n=96, seed=3)
    out = featurize_media(
        ray.data.from_arrow(tbl), decoder="fake", concurrency=2
    ).take_batch(200, batch_format="pyarrow")
    payloads = dict(zip(tbl["media_id"].to_pylist(),
                        tbl["payload"].to_pylist()))
    feat_ok, nb_ok = [], []
    for mid, nb, f in zip(out["media_id"].to_pylist(),
                          out["n_bytes"].to_pylist(),
                          out["features"].to_pylist()):
        p = payloads[mid]
        rng = np.random.RandomState(zlib.crc32(p) & 0x7FFFFFFF)
        want = rng.standard_normal(16).astype(np.float32)
        feat_ok.append(f is not None
                       and np.array_equal(np.asarray(f, np.float32), want))
        nb_ok.append(nb == len(p))
    return pd.DataFrame({
        "media_id": out["media_id"].to_pylist(),
        "kind": out["kind"].to_pylist(),
        "n_bytes": out["n_bytes"].to_pylist(),
        "feat_mean": [round(float(np.mean(f)), 6) for f in
                      out["features"].to_pylist()],
        "feat_ok": feat_ok,
        "nbytes_ok": nb_ok,
    }).sort_values("media_id").reset_index(drop=True)


def _q_media_frames(sf_dir: str):
    """Video frame sampling (2 fps, one row per frame) — the multimodal
    expansion shape (actor pool, per-row fan-out, binary frame payloads).
    SELF-CHECKING (VERDICT r4): each frame row carries ``ts_ok`` (its
    timestamp equals the fps grid for its index) and ``count_ok`` (its
    video's total frame count equals the duration/fps formula recomputed
    independently from the input metadata)."""
    import collections

    import pandas as pd

    import ray.data

    from record_matcher_ray.stages.multimodal import (
        sample_frames,
        synth_media_table,
    )

    fps = 2.0
    tbl = synth_media_table(n=96, seed=3)
    out = sample_frames(
        ray.data.from_arrow(tbl), fps=fps, concurrency=2
    ).take_batch(2000, batch_format="pyarrow")
    step_ms = 1000.0 / fps
    want_n = {}
    for mid, kind, dur in zip(tbl["media_id"].to_pylist(),
                              tbl["kind"].to_pylist(),
                              tbl["duration_ms"].to_pylist()):
        if kind == "video" and dur:
            want_n[mid] = max(
                1, int(dur // step_ms) + (1 if dur % step_ms else 0)
            )
    got_n = collections.Counter(out["media_id"].to_pylist())
    mids = out["media_id"].to_pylist()
    fidx = out["frame_idx"].to_pylist()
    ts = out["ts_ms"].to_pylist()
    return pd.DataFrame({
        "media_id": mids,
        "frame_idx": fidx,
        "ts_ms": ts,
        "n_frame_bytes": [len(b) for b in out["frame"].to_pylist()],
        "ts_ok": [t == int(i * step_ms) for i, t in zip(fidx, ts)],
        "count_ok": [got_n[m] == want_n.get(m, -1) for m in mids],
    }).sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def _q_media_real(sf_dir: str):
    """REAL multimodal decode end-to-end (r3/r4): genuinely decodable PNG
    images, PCM-WAV audio and AVI video (raw-DIB / MPNG / MJPG frames) flow
    through resize (decode → nearest-resize → re-encode) then featurize
    with ``decoder='real'`` (stdlib codecs — stages/mediacodec.py;
    PIL/pyav picked up via import guards when present). Deterministic
    outputs (content-derived features, no RNG), so the driver's rows-only
    check sees a stable table. r4 closed the video stub: every kind now
    decodes for real (decoded=True for ALL rows) and the video payloads
    additionally ride FrameSampler(mode='real')."""
    import pandas as pd
    import ray.data

    from record_matcher_ray.stages.multimodal import (
        featurize_media,
        resize_media,
        sample_frames,
        synth_media_table,
    )

    tbl = synth_media_table(n=96, seed=3, real_payloads=True)
    ds = ray.data.from_arrow(tbl)
    feats = featurize_media(
        resize_media(ds, 8, 8, mode="real", concurrency=2),
        decoder="real", on_undecodable="null", concurrency=2,
    ).take_batch(200, batch_format="pyarrow")
    # real frame sampling over the same table: per-video frame counts
    frames = sample_frames(
        ray.data.from_arrow(tbl), fps=4.0, mode="real", concurrency=2
    ).take_batch(1000, batch_format="pyarrow")
    import collections

    nframes = collections.Counter(frames["media_id"].to_pylist())
    fl = feats["features"].to_pylist()
    mids = feats["media_id"].to_pylist()
    kinds = feats["kind"].to_pylist()
    # SELF-CHECK columns (VERDICT r4): the synthetic AVI payloads carry
    # nf = 2 + i%3 frames at 4 fps; sampling at 4 fps must return every
    # one of them (0 for non-video rows), and every decoded feature is a
    # /255-or-energy normalization, so values live in [0, 1]
    exp_frames = [
        (2 + int(m[1:]) % 3) if k == "video" else 0
        for m, k in zip(mids, kinds)
    ]
    return pd.DataFrame(
        {
            "media_id": mids,
            "kind": kinds,
            "n_bytes": feats["n_bytes"].to_pylist(),
            "decoded": [f is not None for f in fl],
            "feat_mean": [
                round(float(np.mean(f)), 6) if f is not None else None
                for f in fl
            ],
            "n_real_frames": [nframes.get(m, 0) for m in mids],
            "frames_ok": [
                nframes.get(m, 0) == e for m, e in zip(mids, exp_frames)
            ],
            "feat_in_range": [
                f is not None and len(f) == 16
                and bool(np.all((np.asarray(f) >= 0.0)
                                & (np.asarray(f) <= 1.0)))
                for f in fl
            ],
        }
    ).sort_values("media_id").reset_index(drop=True)


def _q_incremental_er(sf_dir: str):
    """End-to-end incremental ER (VERDICT r4 item 7,
    jobs/incremental_job.py): day 1 bootstraps a full match + clustering
    over 2/3 of the corpus; day 2's delta (the remaining 1/3) matches
    against the persisted registry index, merges into the day-1
    clustering and is stable-relabelled. SELF-CHECKING output: per-node
    ``stable_ok`` (nodes surviving from day 1 keep their entity id),
    plus constant ``n_id_collisions`` (0 — entity ids unique across
    components) and ``stability`` (fraction of surviving nodes with
    unchanged ids; 1.0 in a healthy run)."""
    import shutil

    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc


    from jobs.incremental_job import run_day
    from record_matcher_ray.sources.corpus import generate_corpus

    scale = {"0.001": 60, "0.01": 200, "0.1": 800}.get(
        sf_dir.rstrip("/").split("sf")[-1], 200
    )
    d = f"/tmp/rmr_corpus_{scale}"
    if not os.path.exists(f"{d}/truth.parquet"):
        generate_corpus(d, n_entities=scale, seed=42)
    root = f"/tmp/rmr_incr_{scale}"
    shutil.rmtree(root, ignore_errors=True)

    def split(is_delta: bool):
        def keep(t: pa.Table) -> pa.Table:
            rid = pc.cast(
                pc.utf8_slice_codeunits(t["doc_id"], 1, 99), pa.int64()
            )
            m = np.mod(rid.to_numpy(), 3) == 0
            return t.filter(pa.array(m == is_delta))

        return read_table(f"{d}/corpus.parquet").map_batches(
            keep, batch_format="pyarrow"
        )

    reg = read_table(f"{d}/registry.parquet")
    e1, _ = run_day(root, 1, split(False), reg, fingerprint=f"incr-{scale}")
    e2, _ = run_day(root, 2, split(True), reg, fingerprint=f"incr-{scale}")
    p1 = e1.to_pandas().set_index("node")["entity_id"]
    m = e2.to_pandas()
    prev = m["node"].map(p1)
    m["survived"] = prev.notna()
    m["stable_ok"] = ~m["survived"] | (m["entity_id"] == prev.fillna(-3))
    comp_ids = m.groupby("component")["entity_id"].nunique()
    per_comp = m.groupby("component")["entity_id"].first()
    m["n_id_collisions"] = int(
        (comp_ids != 1).sum() + (len(per_comp) - per_comp.nunique())
    )
    surv = m[m["survived"]]
    m["stability"] = round(
        float(surv["stable_ok"].mean()) if len(surv) else 1.0, 6
    )
    return m.sort_values("node").reset_index(drop=True)


def queries():
    return {
        "docmatch_corpus": _q_docmatch,
        "delta_match_docs": _q_delta_match,
        "incremental_er_docs": _q_incremental_er,
        "media_features": _q_media_features,
        "media_frames": _q_media_frames,
        "media_real": _q_media_real,
    }


def oracles():
    return {
    }
