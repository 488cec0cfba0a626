"""The engine's one hash-bucket exchange.

Every blocked stage has the same shape: hash a key, co-locate the rows
that share it, and run a vectorized function over each co-located set.
Grouping directly on a high-cardinality key costs one Python call per
distinct value (~0.3 ms each, CLAUDE.md), so the key is hashed into at
most ``n_buckets`` buckets and the function sees one whole bucket at a
time, holding many keys. This module owns that decision: how a key
becomes a bucket id (:func:`bucket_ids`), how rows reach their bucket
(:func:`bucket_exchange`), and how many tasks and key groups an exchange
is laid out over (:func:`default_tasks`, :func:`task_layout`). Stages
that run their own Ray core tasks over a dataset's blocks read them with
:func:`block_refs` and wrap their outputs with :func:`executed_from_refs`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data.dataset import MaterializedDataset

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
    """The most map-side tasks per input of ``bucket_exchange`` and the
    most partitions it cuts its buckets into: ``tasks`` when the caller
    passes one, else 2 per cluster CPU; floor 1. An exchange makes (map
    tasks × partitions) objects, so a count sized for a bigger cluster
    is pure overhead on a small one."""
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


def _concat(tables: list[pa.Table]) -> pa.Table:
    """One table from same-schema or sibling tables: a column missing from
    some of them reads as null there, and types promote (null → string,
    int32 → int64)."""
    if len(tables) == 1:
        return tables[0]
    return pa.concat_tables(tables, promote_options="permissive")


@ray.remote
def _exchange_map(
    prepare: Callable[[pa.Table], pa.Table] | None,
    keys: list[str],
    n_buckets: int,
    parts: int,
    *blocks,
) -> pa.Table | list[pa.Table]:
    """Map side of :func:`bucket_exchange` over one contiguous run of
    input blocks: ``prepare`` each non-empty block, hash ``keys`` to a
    bucket, and return one slice per partition, sorted by bucket, the
    bucket id riding in ``_BUCKET``."""
    from ray.data.block import BlockAccessor

    tables = []
    for b in blocks:
        t = BlockAccessor.for_block(b).to_arrow()
        if t.num_rows and t.num_columns:  # skip empty and column-less blocks
            t = prepare(t) if prepare is not None else t
            if t.num_rows:
                tables.append(t)
    if not tables:
        return pa.table({}) if parts == 1 else [pa.table({})] * parts
    t = _concat(tables).replace_schema_metadata(None)
    b = bucket_ids(_key_hash(t, keys), n_buckets)
    order = np.argsort(b, kind="stable")
    t = t.append_column(_BUCKET, pa.array(b)).take(order)
    # partition p holds the whole buckets [p*n_buckets//parts, ...)
    cuts = np.searchsorted(
        b[order], [i * n_buckets // parts for i in range(parts + 1)]
    )
    out = [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return out[0] if parts == 1 else out  # one return is not a list


@ray.remote(num_returns=2)
def _exchange_reduce(
    fn: Callable[[pa.Table], pa.Table], *slices: pa.Table
) -> tuple[pa.Table, tuple[int, int]]:
    """Reduce side of :func:`bucket_exchange` for one partition: cut its
    slices at bucket changes and call ``fn`` once per non-empty bucket.
    → the concatenated outputs and their ``(rows, columns)``."""
    slices = [s for s in slices if s.num_rows]
    if not slices:
        return pa.table({}), (0, 0)
    t = _concat(slices)
    b = t[_BUCKET].to_numpy()
    if (b[1:] < b[:-1]).any():  # each slice is sorted, their concat is not
        order = np.argsort(b, kind="stable")
        t, b = t.take(order), b[order]
    cuts = [0, *(np.flatnonzero(b[1:] != b[:-1]) + 1).tolist(), len(t)]
    body = t.drop_columns([_BUCKET])
    outs = [
        fn(body.slice(lo, hi - lo)).replace_schema_metadata(None)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    full = [o for o in outs if o.num_rows]
    # an all-empty partition keeps fn's (typed) empty output
    out = _concat(full) if full else outs[0]
    return out, (out.num_rows, out.num_columns)


def _runs(refs: list, rows: list[int], n: int) -> list[list]:
    """Split block ``refs`` (with their ``rows``) into at most ``n``
    contiguous runs of about equal row counts: run i ends at the first
    block where the running total reaches (i+1)/n of all rows."""
    total = np.cumsum(rows)
    ends = np.searchsorted(total, total[-1] * np.arange(1, n + 1) / n) + 1
    cuts = np.unique(np.concatenate(([0], ends)))
    return [refs[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def block_refs(ds: ray.data.Dataset) -> list[tuple[ray.ObjectRef, int]]:
    """The non-empty ``(block ref, rows)`` pairs of ``ds``, read from its
    plan's snapshot: a materialized dataset or an in-memory source
    (``from_arrow``, ``from_pandas``) costs no Ray Data execution, and a
    lazy one is materialized once. A ``from_pandas`` block is a pandas
    DataFrame: read blocks with ``BlockAccessor.for_block(b).to_arrow()``."""
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    # iter_internal_ref_bundles() would start a streaming executor for an
    # in-memory source such as from_arrow
    return [(ref, md.num_rows) for ref, md in ds._plan.execute().blocks
            if md.num_rows > 0]


def executed_from_refs(refs: list) -> MaterializedDataset:
    """A dataset over Arrow block ``refs``, marked executed as
    ``materialize()`` marks its result, so reading it (``to_pandas``,
    ``iter_batches``, :func:`block_refs`) starts no streaming executor."""
    out = ray.data.from_arrow_refs(refs)
    out._plan.execute()
    return out


def bucket_exchange(
    ds: ray.data.Dataset | list[ray.data.Dataset],
    keys: list[str],
    fn: Callable[[pa.Table], pa.Table],
    n_buckets: int,
    prepare: "Callable[[pa.Table], pa.Table] | list | None" = None,
) -> MaterializedDataset:
    """Co-locate the rows of ``ds`` that share the value tuple of ``keys``
    and return the union of ``fn`` over each bucket, EAGERLY: the call
    runs the exchange and returns a ``MaterializedDataset``.

    A list of datasets is co-grouped (the sides of a join). ``prepare``
    (one callable, or one per input, ``None`` for none) maps each input
    block to the rows that are bucketed, inside the exchange's map-side
    task, so a per-side projection or key expansion costs no Ray Data
    execution of its own. The inputs' prepared schemas may differ: a
    bucket holds the union of their columns, null where a side lacks one.

    ``fn`` is called once per non-empty bucket with one pyarrow table:
    every row whose key tuple hashes to that bucket (null keys all land
    together), in input order, without schema metadata. A bucket mixes
    many keys, so ``fn`` separates them itself (sort + boundary diff).
    Schema metadata is stripped on both sides of ``fn``: a ``pa.Schema``
    carrying parquet or pandas metadata is unhashable, and Ray then warns
    "Failed to hash the schemas" and unifies block schemas on a slow path.

    The exchange is plain Ray tasks over the inputs' block refs (an input
    that is not materialized yet is materialized once): at most
    ``default_tasks()`` map tasks per input, each over a contiguous run
    of blocks, split every row to one of ``min(n_buckets,
    default_tasks())`` partitions of whole buckets, and one reduce task
    per partition calls ``fn`` on its buckets. A partition that ends with
    no rows is dropped, so the result never holds an empty block unless
    every partition is empty."""
    inputs = ds if isinstance(ds, list) else [ds]
    preps = prepare if isinstance(prepare, list) else [prepare] * len(inputs)
    parts = min(int(n_buckets), default_tasks())
    slices = []  # per map task: its `parts` slice refs
    for d, prep in zip(inputs, preps):
        blocks = block_refs(d)
        if not blocks:
            continue
        refs, rows = zip(*blocks)
        for run in _runs(list(refs), list(rows), default_tasks()):
            task = _exchange_map.options(num_returns=parts).remote(
                prep, keys, n_buckets, parts, *run
            )
            slices.append([task] if parts == 1 else task)
    reduced = [
        _exchange_reduce.remote(fn, *[s[p] for s in slices])
        for p in range(parts if slices else 0)
    ]
    shapes = ray.get([shape for _, shape in reduced])
    keep = [out for (out, _), (rows, _) in zip(reduced, shapes) if rows]
    if not keep:  # every partition empty: one typed empty block if any
        typed = [out for (out, _), (_, cols) in zip(reduced, shapes) if cols]
        keep = typed[:1] or [ray.put(pa.table({}))]
    return executed_from_refs(keep)
