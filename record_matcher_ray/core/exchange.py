"""The engine's one hash-bucket exchange.

Every blocked stage has the same shape: hash a key, co-locate the rows
that share it, and run a vectorized function over each co-located set.
Grouping directly on a high-cardinality key costs one Python call per
distinct value (~0.3 ms each, CLAUDE.md), so the key is hashed into at
most ``n_buckets`` buckets and the function sees one whole bucket at a
time, holding many keys. This module owns that decision: how a key
becomes a bucket id (:func:`bucket_ids`) and how rows reach their bucket
(:func:`bucket_exchange`).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray.data

from record_matcher_ray.core.hashkernels import column_hash64, mix64

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_BUCKET = "__bucket__"


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

    ``fn`` receives one pyarrow table per bucket: every row whose key
    tuple hashes to that bucket (null keys all land together), with the
    input's columns and no schema metadata. A bucket mixes many keys, so
    ``fn`` separates them itself (sort + boundary diff). Schema metadata
    is stripped on both sides of ``fn``: a ``pa.Schema`` carrying parquet
    or pandas metadata is unhashable, and Ray then warns "Failed to hash
    the schemas" and unifies block schemas on a slow path."""

    def add_bucket(t: pa.Table) -> pa.Table:
        b = bucket_ids(_key_hash(t, keys), n_buckets)
        return t.replace_schema_metadata(None).append_column(
            _BUCKET, pa.array(b)
        )

    def call(t: pa.Table) -> pa.Table:
        out = fn(t.drop_columns([_BUCKET]))
        return out.replace_schema_metadata(None)

    tagged, *rest = [
        d.map_batches(add_bucket, batch_format="pyarrow")
        for d in (ds if isinstance(ds, list) else [ds])
    ]
    if rest:
        tagged = tagged.union(*rest)
    return tagged.groupby(_BUCKET).map_groups(call, batch_format="pyarrow")
