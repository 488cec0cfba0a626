"""The engine's one hash-bucket exchange.

Every blocked stage has the same shape: hash a key, co-locate the rows
that share it, and run a vectorized function over each co-located set.
Grouping directly on a high-cardinality key costs one Python call per
distinct value (~0.3 ms each, CLAUDE.md), so the key is hashed into at
most ``n_buckets`` buckets and the function sees one whole bucket at a
time, holding many keys. This module owns that decision: how a key
becomes a bucket id (:func:`bucket_ids`), how rows reach their bucket
(:func:`bucket_exchange`), and how many tasks and key groups an exchange
is laid out over (:func:`default_tasks`, :func:`task_layout`).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data

from record_matcher_ray.core.hashkernels import column_hash64, mix64

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_BUCKET = "__bucket__"
# docs per key group before a corpus earns more groups than tasks. A
# group is one scoring call whose working set grows with its docs, while
# each extra group re-gathers the strings of docs it shares with others.
# Median of 2-4 runs on a 1-CPU host, 100k-entity corpus (330k docs),
# groups → wall / peak RSS: 2 → 35 s / 3.0 GB, 8 → 37 s / 2.4 GB, 32 →
# 45 s / 2.3 GB, 64 → 57 s / 2.3 GB; 256 groups over 64 tasks → 66 s /
# 2.5 GB.
_DOCS_PER_GROUP = 16384


def default_tasks(tasks: int | None = None) -> int:
    """The block count an exchange's input is coalesced to before its
    sort, and the most partitions ``bucket_exchange`` cuts its buckets
    into: ``tasks`` when the caller passes one, else 2 per cluster CPU;
    floor 1. A sort exchange makes (input blocks × output partitions)
    objects, so a count sized for a bigger cluster is pure overhead on a
    small one."""
    if tasks is None:
        tasks = 2 * int(ray.cluster_resources().get("CPU", 1))
    return max(1, int(tasks))


def task_layout(
    n_docs: int, n_buckets: int, tasks: int | None = None
) -> tuple[int, int]:
    """docmatch's layout → ``(tasks, groups)``: ``default_tasks(tasks)``
    and the number of key-hash groups (one ``map_groups`` call each), the
    smallest power of two ≥ ``max(tasks, ceil(n_docs / 16384))``, capped
    at ``n_buckets``. Work is split in proportion to the CPUs and the
    corpus that will process it, never to a fixed count: at 1 CPU and a
    few thousand docs this is 2 tasks and 2 groups; 330k docs get 32
    groups, and from ~2.1M docs on the groups reach 256.

    Callers must give results that do not depend on the layout."""
    tasks = default_tasks(tasks)
    want = max(tasks, -(-int(n_docs) // _DOCS_PER_GROUP))
    return tasks, max(1, min(1 << (want - 1).bit_length(), int(n_buckets)))


def bucket_ids(h: np.ndarray, n_buckets: int) -> np.ndarray:
    """The bucketing policy: a uint64 (or int64, by bit pattern) key hash
    → int64 bucket ids in ``[0, n_buckets)``. The splitmix64 finalizer
    runs first, so structured keys (sequential ids, XOR-combined hashes)
    spread as evenly as well-mixed ones. Equal inputs give equal ids in
    every process, which is what lets two sides of a join co-locate."""
    with np.errstate(over="ignore"):
        return (
            mix64(np.asarray(h).view(np.uint64)) % np.uint64(n_buckets)
        ).astype(np.int64)


def _key_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Fold the per-column hashes of ``keys`` into one uint64 per row;
    column order matters, and null keys hash like 0/"" (column_hash64)."""
    h = np.zeros(len(t), np.uint64)
    with np.errstate(over="ignore"):
        for c in keys:
            h = mix64(h * _GOLD ^ column_hash64(t[c]))
    return h


def bucket_exchange(
    ds: ray.data.Dataset | list[ray.data.Dataset],
    keys: list[str],
    fn: Callable[[pa.Table], pa.Table],
    n_buckets: int,
) -> ray.data.Dataset:
    """Co-locate the rows of ``ds`` that share the value tuple of ``keys``
    and return the union of ``fn`` over each bucket.

    A list of datasets with a common schema is co-grouped (the sides of
    a join): each input is bucketed by this one function and the inputs
    are unioned only then, so the bucketing fuses into each side's own
    map stage instead of adding a pass over the union.

    ``fn`` is called once per non-empty bucket with one pyarrow table:
    every row whose key tuple hashes to that bucket (null keys all land
    together), with the input's columns and no schema metadata. A bucket
    mixes many keys, so ``fn`` separates them itself (sort + boundary
    diff). Schema metadata is stripped on both sides of ``fn``: a
    ``pa.Schema`` carrying parquet or pandas metadata is unhashable, and
    Ray then warns "Failed to hash the schemas" and unifies block schemas
    on a slow path.

    The exchange is a sort on the bucket id cut at explicit boundaries
    into ``min(n_buckets, default_tasks())`` partitions of whole buckets.
    A sort sampled on the bucket column would make one partition per
    input block, most of them empty, each costing a reduce task and
    emitting a column-less block."""

    def add_bucket(t: pa.Table) -> pa.Table:
        b = bucket_ids(_key_hash(t, keys), n_buckets)
        return t.replace_schema_metadata(None).append_column(
            _BUCKET, pa.array(b)
        )

    def call_buckets(t: pa.Table):
        # one partition of whole buckets: cut it where the bucket changes
        if len(t) == 0:
            return
        b = t[_BUCKET].to_numpy()
        # repartition(1) does not sort: with n_buckets > 1 that happens
        # when default_tasks() is 1 (a cluster that reports no CPU yet)
        if (b[1:] < b[:-1]).any():
            order = np.argsort(b, kind="stable")
            t, b = t.take(order), b[order]
        cuts = [0, *(np.flatnonzero(b[1:] != b[:-1]) + 1).tolist(), len(t)]
        body = t.drop_columns([_BUCKET])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            yield fn(body.slice(lo, hi - lo)).replace_schema_metadata(None)

    tagged, *rest = [
        d.map_batches(add_bucket, batch_format="pyarrow")
        for d in (ds if isinstance(ds, list) else [ds])
    ]
    if rest:
        tagged = tagged.union(*rest)
    parts = min(int(n_buckets), default_tasks())
    exchanged = (
        tagged.sort(
            _BUCKET,
            boundaries=[i * n_buckets // parts for i in range(1, parts)],
        )
        if parts > 1  # boundaries=[] would sample instead
        else tagged.repartition(1)
    )
    return exchanged.map_batches(
        call_buckets, batch_size=None, batch_format="pyarrow"
    )
