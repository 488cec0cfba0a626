"""Checkpoint / lineage layer: every stage is checkpointed with
per-partition lineage manifests and counters, so a killed run resumes
mid-pipeline. Completed partitions are read back, not rewritten; the
match itself is one stage (``match_documents_checkpointed`` recomputes its
one global match when any of its partitions is missing).

Layout:

    <root>/stage=<name>/part=<key>/*.parquet        data, written atomically
    <root>/stage=<name>/part=<key>.manifest.json    lineage + counters

Write protocol per partition: (1) write data to ``_tmp_<key>``; (2) atomic
``os.rename`` to ``part=<key>``; (3) write the manifest via tmp-file +
rename. A partition is complete iff its manifest exists with status=done —
a kill at any point leaves either no manifest (→ recompute, stale dirs are
cleared first) or a fully valid partition. Manifests record the input
fingerprint (a mismatch forces recompute instead of silently reusing stale
output), row count, wall time, and caller counters (blocks emitted / pairs
scored / matches accepted).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections.abc import Callable

import ray.data


def _part_dir(root: str, stage: str, part: str) -> str:
    return os.path.join(root, f"stage={stage}", f"part={part}")


def _manifest_path(root: str, stage: str, part: str) -> str:
    return _part_dir(root, stage, part) + ".manifest.json"


def is_complete(root: str, stage: str, part: str, fingerprint: str | None = None) -> bool:
    p = _manifest_path(root, stage, part)
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            m = json.load(f)
    except (json.JSONDecodeError, OSError):
        return False
    if m.get("status") != "done":
        return False
    if fingerprint is not None and m.get("fingerprint") != fingerprint:
        return False
    return os.path.isdir(_part_dir(root, stage, part))


def read_partition(
    root: str, stage: str, part: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    # partitioning=None: the checkpoint layout's stage=/part= path
    # segments would otherwise be hive-parsed into two STRING columns
    # that silently ride every downstream exchange (~20 B/row). With an
    # explicit columns list the hive columns are excluded by the list
    # itself — and Ray 2.49's parquet datasource raises UnboundLocalError
    # on columns= + partitioning=None together, so pass only one.
    if columns is not None:
        return ray.data.read_parquet(
            _part_dir(root, stage, part), columns=columns
        )
    return ray.data.read_parquet(
        _part_dir(root, stage, part), partitioning=None
    )


def manifest(root: str, stage: str, part: str) -> dict:
    with open(_manifest_path(root, stage, part)) as f:
        return json.load(f)


class StageRunner:
    """Resumable stage executor.

    >>> runner = StageRunner("/data/out", fingerprint="corpus-v1-seed42")
    >>> ds = runner.run("flatten", lambda: pipeline())          # whole stage
    >>> ds = runner.run_partitioned("match", parts, fn)         # per shard
    """

    def __init__(self, root: str, fingerprint: str = ""):
        self.root = root
        self.fingerprint = fingerprint
        os.makedirs(root, exist_ok=True)
        self.skipped: list[str] = []
        self.computed: list[str] = []

    def run(
        self,
        stage: str,
        fn: Callable[[], ray.data.Dataset],
        counters: Callable[[ray.data.Dataset], dict] | None = None,
    ) -> ray.data.Dataset:
        return self.run_partitioned(stage, ["all"], lambda _: fn(), counters)

    def run_partitioned(
        self,
        stage: str,
        parts: list[str],
        fn: Callable[[str], ray.data.Dataset],
        counters: Callable[[ray.data.Dataset], dict] | None = None,
    ) -> ray.data.Dataset:
        """Run ``fn(part)`` for every incomplete partition, in order, write
        each atomically with its manifest, and return the union of ALL
        partition outputs (completed partitions are read back, never
        recomputed)."""
        if not parts:
            raise ValueError(
                f"run_partitioned('{stage}'): empty partition list — pass at "
                f"least one partition id (use run() for unpartitioned stages)"
            )
        stage_dir = os.path.join(self.root, f"stage={stage}")
        os.makedirs(stage_dir, exist_ok=True)
        datasets: list[ray.data.Dataset] = []
        for part in parts:
            if is_complete(self.root, stage, part, self.fingerprint or None):
                self.skipped.append(f"{stage}/{part}")
                datasets.append(read_partition(self.root, stage, part))
                continue
            final_dir = _part_dir(self.root, stage, part)
            mpath = _manifest_path(self.root, stage, part)
            tmp_dir = os.path.join(stage_dir, f"_tmp_{part}")
            for stale in (tmp_dir, final_dir):
                shutil.rmtree(stale, ignore_errors=True)
            if os.path.exists(mpath):
                os.unlink(mpath)
            t0 = time.time()
            ds = fn(part)
            ds.write_parquet(tmp_dir)
            os.rename(tmp_dir, final_dir)
            done = read_partition(self.root, stage, part)
            m = {
                "status": "done",
                "stage": stage,
                "part": part,
                "fingerprint": self.fingerprint,
                "rows": done.count(),
                "wall_sec": round(time.time() - t0, 3),
                "counters": counters(ds) if counters else {},
            }
            with open(mpath + ".tmp", "w") as f:
                json.dump(m, f)
            os.rename(mpath + ".tmp", mpath)
            self.computed.append(f"{stage}/{part}")
            datasets.append(done)
        out = datasets[0]
        for d in datasets[1:]:
            out = out.union(d)
        return out


def hash_partition_ids(n_parts: int) -> list[str]:
    return [f"{i:04d}" for i in range(n_parts)]
