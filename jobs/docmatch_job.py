"""Cluster entry point for the flagship document-ER pipeline, designed
for ``ray job submit`` on a fixed-size multi-node cluster:

    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python jobs/docmatch_job.py \
               --corpus  s3://bucket/corpus/   \
               --registry s3://bucket/registry/ \
               --out     s3://bucket/matched/   \
               --checkpoint s3://bucket/ckpt/run1/

The job owns its Ray session (`ray.init(address="auto")` attaches to the
cluster the job server placed it on); the library itself never calls
ray.init (CLAUDE.md hard rule). Output is partitioned parquet; with
``--checkpoint`` the run goes through ``match_documents_checkpointed``:
one global match whose assignments are written as ``--shards`` partitions
with lineage manifests + counters. Kill this job mid-run and resubmit
with the same arguments: completed partitions are read back, not
rewritten, and the match itself is one stage, recomputed once if any
partition is missing. The output equals the unsharded run's for every
``--shards``.

Locally (this sandbox) the same script runs single-node:

    PYTHONPATH=. python jobs/docmatch_job.py \
        --corpus /tmp/rmr_corpus_200/corpus.parquet \
        --registry /tmp/rmr_corpus_200/registry.parquet \
        --out /tmp/docmatch_out
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--corpus", required=True,
                   help="parquet/lance dir of (doc_id, spans) documents")
    p.add_argument("--registry", required=True,
                   help="parquet/lance dir of registry entities")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint root; enables resumable execution")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local-mode CPU cap (ignored on a cluster)")
    p.add_argument("--shards", type=int, default=4,
                   help="checkpoint partition count (with --checkpoint)")
    p.add_argument("--fingerprint", default="",
                   help="input fingerprint recorded in manifests; a "
                        "mismatch forces recompute instead of stale reuse")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():  # job server may have pre-initialized
        if args.num_cpus:  # local/test mode
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False)
        else:  # on a cluster: attach to the running Ray instance
            ray.init(address="auto")

    import ray.data

    from record_matcher_ray.pipelines.docmatch import (
        match_documents,
        match_documents_checkpointed,
    )
    from record_matcher_ray.sources.readers import read_table

    t0 = time.time()
    corpus = read_table(args.corpus)
    registry = read_table(args.registry)
    if args.checkpoint:
        res = match_documents_checkpointed(
            corpus, registry, args.checkpoint,
            n_shards=args.shards, fingerprint=args.fingerprint,
        )
    else:
        res = match_documents(corpus, registry)
    res.assignments.write_parquet(f"{args.out.rstrip('/')}/assignments")
    res.clusters.write_parquet(f"{args.out.rstrip('/')}/clusters")
    report = {"wall_s": round(time.time() - t0, 2),
              "counters": dict(res.counters)}
    if args.checkpoint:
        # lineage accounting: which partitions were reused vs recomputed —
        # the resume-proof evidence (state/checkpoint.py manifests)
        report["skipped_partitions"] = res.runner.skipped
        report["computed_partitions"] = res.runner.computed
    print(json.dumps(report))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
