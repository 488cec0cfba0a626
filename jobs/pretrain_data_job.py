"""Pretraining-data assembly — the engine's capstone composition: one
streaming funnel from a raw document table to a packed training manifest.

    raw docs
      → normalize + word-count          (analysis-standard tokenizer)
      → eval holdout                    (deterministic id band)
      → quality gate                    (word-count window)
      → exact dedup                     (min-id per normalized text)
      → decontamination                 (drop exact eval-text matches)
      → deterministic mix               (sampling.hash_sample)
      → sequence packing                (sampling.pack_sequences)
      → partitioned parquet manifest + funnel counts

Every stage is a deterministic pure function of (doc_id, text, knobs),
so the WHOLE funnel — including the packing — replays hash-exactly in
DuckDB (driver query ``pretrain_pack_docs``). At corpus scale swap the
exact-text decontamination for the n-gram ``pipelines.decontam`` pass
(windowed overlap, broadcast gram index) — the exact-text form here
keeps the end-to-end oracle single-query.

CLI:
    python jobs/pretrain_data_job.py --docs documents.parquet \
        --out /tmp/manifest [--num-cpus 32]
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray


def assemble_pretraining_data(
    docs: "ray.data.Dataset",
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    eval_mod: int = 97,
    min_words: int = 10,
    max_words: int = 2000,
    sample_rate: float = 0.8,
    seed: int = 7,
    capacity: int = 128,
    bucket_size: int = 50,
    audit: bool = False,
    max_eval_rows: int = 2_000_000,
):
    """→ ``(packed, funnel)``: the packed training manifest Dataset
    ``(doc_id, seq_len, pack_bucket, bin_in_bucket, bin_offset,
    truncated)`` and a funnel dict (stage → surviving docs; populated
    when ``audit=True`` — each count materializes its stage)."""
    from record_matcher_ray.pipelines.dedup import exact_dedup
    from record_matcher_ray.pipelines.sampling import (
        hash_sample,
        pack_sequences,
    )

    def norm_count(t: pa.Table) -> pa.Table:
        nt = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(pc.cast(t[text_col], pa.string()),
                                       "")),
            r"[^a-z0-9]+", " "))
        n = pc.add(pc.count_substring(nt, " "),
                   pc.if_else(pc.equal(nt, ""), 0, 1))
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "__norm__": nt,
            "n_words": pc.cast(n, pa.int64()),
        })

    normed = docs.map_batches(norm_count, batch_format="pyarrow")
    funnel: dict[str, int] = {}
    if audit:
        normed = normed.materialize()
        funnel["input"] = normed.count()

    # eval holdout: the held-out band leaves the train side entirely;
    # its normalized texts form the contamination reference
    def is_eval(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        return t.filter(pa.array(ids % eval_mod == 0))

    def is_train(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        return t.filter(pa.array(ids % eval_mod != 0))

    eval_norms = np.unique(np.concatenate([
        t["__norm__"].to_numpy(zero_copy_only=False)
        for t in ray.get(
            normed.map_batches(is_eval, batch_format="pyarrow")
            .to_arrow_refs()
        ) if len(t)
    ] or [np.array([], object)]))
    if len(eval_norms) > max_eval_rows:
        raise ValueError(
            f"{len(eval_norms):,} held-out eval texts exceed "
            f"max_eval_rows={max_eval_rows:,} — the exact-text "
            "decontamination broadcasts the eval set; at this scale use "
            "the n-gram pipelines.decontam pass instead."
        )
    eval_ref = ray.put(eval_norms)

    train = normed.map_batches(is_train, batch_format="pyarrow")

    def quality(t: pa.Table) -> pa.Table:
        n = t["n_words"].to_numpy()
        return t.filter(pa.array((n >= min_words) & (n <= max_words)))

    gated = train.map_batches(quality, batch_format="pyarrow")
    if audit:
        gated = gated.materialize()
        funnel["quality"] = gated.count()

    deduped = exact_dedup(gated, ["__norm__"], id_col)
    if audit:
        deduped = deduped.materialize()
        funnel["dedup"] = deduped.count()

    def decontam(t: pa.Table) -> pa.Table:
        ev = ray.get(eval_ref)
        if len(ev) == 0:
            return t
        norms = t["__norm__"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ev, norms)
        ok = pos < len(ev)
        hit = np.zeros(len(norms), bool)
        hit[ok] = ev[pos[ok]] == norms[ok]
        return t.filter(pa.array(~hit))

    clean = deduped.map_batches(decontam, batch_format="pyarrow")
    if audit:
        clean = clean.materialize()
        funnel["decontam"] = clean.count()

    mixed = hash_sample(clean, id_col, sample_rate, seed=seed)
    if audit:
        mixed = mixed.materialize()
        funnel["mix"] = mixed.count()

    packed = pack_sequences(
        mixed.select_columns([id_col, "n_words"]).rename_columns(
            [id_col, "n_tokens"]
        ),
        id_col=id_col, capacity=capacity, bucket_size=bucket_size,
    )
    return packed, funnel


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--docs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--sample-rate", type=float, default=0.8)
    p.add_argument("--capacity", type=int, default=128)
    args = p.parse_args(argv)

    if not ray.is_initialized():
        if args.num_cpus:
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False)
        else:
            ray.init(address="auto")
    from record_matcher_ray.pipelines.sampling import packing_stats
    from record_matcher_ray.sources.readers import read_table

    t0 = time.time()
    packed, funnel = assemble_pretraining_data(
        read_table(args.docs, columns=["doc_id", "text"]),
        sample_rate=args.sample_rate, capacity=args.capacity, audit=True,
    )
    packed = packed.materialize()
    packed.write_parquet(args.out)
    stats = packing_stats(packed, capacity=args.capacity)
    print(json.dumps({
        "wall_s": round(time.time() - t0, 2),
        "funnel": funnel,
        "packing": stats.to_dict("records")[0],
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
