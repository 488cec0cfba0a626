"""The engine's one hash-bucket exchange.

Every blocked stage has the same shape: hash a key, co-locate the rows
that share it, and run a vectorized function over each co-located set.
Grouping directly on a high-cardinality key costs one Python call per
distinct value (~0.3 ms each), so the function sees runs of
many keys at a time, sized from the rows the exchange holds: no caller
picks a bucket count. This module owns that decision: how a key becomes
a bucket id (:func:`bucket_ids`), how rows reach their bucket and how
``fn`` calls are cut (:func:`bucket_exchange`), and how many tasks an
exchange runs (:func:`default_tasks`). Stages that run their own Ray
core tasks over a dataset's blocks read them with :func:`block_refs` and
wrap their outputs with :func:`executed_from_refs`
(:func:`concat_executed` chains such results); :func:`map_blocks` maps a
function over whole inputs that way, a bare read included. Every import
of Ray Data internals lives in this module.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

import ray
import ray.data
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.from_operators import FromArrow
from ray.data._internal.logical.operators.read_operator import Read
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data.block import BlockAccessor, BlockMetadataWithSchema
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from record_matcher_ray.core.hashkernels import column_hash64, mix64

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_BUCKET = "__bucket__"
# the private bucket space keys hash into; partitions are runs of it
_SPACE = 1 << 20
# rows of a reduce task per fn call, cut at the next bucket change. A
# call's working set grows with its rows, while each extra call pays a
# fixed cost and re-gathers the strings its keys share with others.
# docmatch measured its best point at 16384 docs per call (100k-entity
# corpus, 330k docs, 1 CPU: 2 → 32 calls took 35 → 45 s but 3.0 → 2.3 GB
# peak RSS, 256 calls 66 s / 2.5 GB), ~20 keys each: about 2^18 rows.
_ROWS_PER_CALL = 1 << 18


def default_tasks() -> int:
    """The most map-side tasks per input of ``bucket_exchange`` and the
    partitions it cuts its buckets into: 2 per cluster CPU, floor 1. An
    exchange makes (map tasks × partitions) objects, so a count sized for
    a bigger cluster is pure overhead on a small one."""
    return max(1, 2 * int(ray.cluster_resources().get("CPU", 1)))


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
    parts: int,
    *blocks,
) -> pa.Table | list[pa.Table]:
    """Map side of :func:`bucket_exchange` over one contiguous run of
    input blocks: ``prepare`` each non-empty block, hash ``keys`` to a
    bucket, and return one slice per partition, sorted by bucket, the
    bucket id riding in ``_BUCKET``."""
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
    b = bucket_ids(_key_hash(t, keys), _SPACE)
    order = np.argsort(b, kind="stable")
    t = t.append_column(_BUCKET, pa.array(b)).take(order)
    # partition p holds the whole buckets [p*_SPACE//parts, ...)
    cuts = np.searchsorted(
        b[order], [i * _SPACE // parts for i in range(parts + 1)]
    )
    out = [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return out[0] if parts == 1 else out  # one return is not a list


def _call_cuts(b: np.ndarray, rows: int) -> list[int]:
    """Row offsets that cut the bucket-sorted ids ``b`` into ``fn`` calls:
    each call ends at the first bucket change at or after ``rows`` rows,
    so only the last one holds fewer."""
    changes = np.flatnonzero(b[1:] != b[:-1]) + 1
    cuts = [0]
    while (i := np.searchsorted(changes, cuts[-1] + rows)) < len(changes):
        cuts.append(int(changes[i]))
    return [*cuts, len(b)]


@ray.remote(num_returns=2)
def _exchange_reduce(
    fn: Callable[[pa.Table], pa.Table], rows: int, *slices: pa.Table
) -> tuple[pa.Table, BlockMetadataWithSchema]:
    """Reduce side of :func:`bucket_exchange` for one partition: sort its
    slices by bucket and call ``fn`` on runs of whole buckets of about
    ``rows`` rows (:func:`_call_cuts`). → the concatenated outputs and
    their block metadata."""
    slices = [s for s in slices if s.num_rows]
    if not slices:
        empty = pa.table({})
        return empty, BlockMetadataWithSchema.from_block(empty)
    t = _concat(slices)
    b = t[_BUCKET].to_numpy()
    if (b[1:] < b[:-1]).any():  # each slice is sorted, their concat is not
        order = np.argsort(b, kind="stable")
        t, b = t.take(order), b[order]
    cuts = _call_cuts(b, rows)
    body = t.drop_columns([_BUCKET])
    outs = [
        fn(body.slice(lo, hi - lo)).replace_schema_metadata(None)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    full = [o for o in outs if o.num_rows]
    # an all-empty partition keeps fn's (typed) empty output
    out = _concat(full) if full else outs[0]
    return out, BlockMetadataWithSchema.from_block(out)


def _slices(t: pa.Table, cap: int, rows: int) -> list[pa.Table]:
    """``t`` cut into zero-copy row slices of at most ``rows`` rows and
    about ``cap`` bytes."""
    step = max(1, min(rows, t.num_rows * cap // max(t.nbytes, 1)))
    return [t.slice(lo, step) for lo in range(0, t.num_rows, step)]


@ray.remote(num_returns="streaming")
def _map_run(fn: Callable[[pa.Table], pa.Table], partials: tuple, cap: int,
             rows: int, read_task, *blocks):
    """One :func:`map_blocks` task: ``fn`` over each of the ``blocks`` (or
    those ``read_task`` reads) in :func:`_slices` of ``cap`` bytes →
    yields each non-empty output block, cut at ``rows`` rows and ``cap``
    bytes, then its block metadata and each of ``partials`` of it, all
    made before the first is yielded: an error ends the stream between
    two blocks."""
    for b in blocks if read_task is None else read_task():
        t = BlockAccessor.for_block(b).to_arrow().replace_schema_metadata(None)
        for piece in _slices(t, cap, t.num_rows):
            out = fn(piece).replace_schema_metadata(None)
            for block in _slices(out, cap, rows):
                yield from [block, BlockMetadataWithSchema.from_block(block),
                            *(p(block) for p in partials)]


def _runs(blocks: list[tuple[ray.ObjectRef, int]], n: int) -> list[list]:
    """Split ``(ref, rows)`` ``blocks`` into at most ``n`` contiguous runs
    of refs with about equal row counts: run i ends at the first block
    where the running total reaches (i+1)/n of all rows."""
    if not blocks:
        return []
    total = np.cumsum([rows for _, rows in blocks])
    ends = np.searchsorted(total, total[-1] * np.arange(1, n + 1) / n) + 1
    cuts = np.unique(np.concatenate(([0], ends)))
    return [[ref for ref, _ in blocks[lo:hi]]
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def block_refs(
    ds: ray.data.Dataset, max_rows: int | None = None
) -> list[tuple[ray.ObjectRef, int]] | None:
    """The non-empty ``(block ref, rows)`` pairs of ``ds``, or None once
    they hold more than ``max_rows`` rows. A materialized dataset or an
    in-memory source (``from_arrow``, ``from_pandas``) is read from its
    plan's snapshot, no Ray Data execution; a lazy one is executed once,
    streaming, and let go as soon as it passes ``max_rows``. A
    ``from_pandas`` block is a pandas DataFrame: read blocks with
    ``BlockAccessor.for_block(b).to_arrow()``."""
    if isinstance(ds, MaterializedDataset):
        # iter_internal_ref_bundles() would start a streaming executor
        # for an in-memory source such as from_arrow
        bundles = [ds._plan.execute()]
    else:
        bundles = ds.iter_internal_ref_bundles()
    out, total = [], 0
    for bundle in bundles:
        for ref, md in bundle.blocks:
            if md.num_rows > 0:
                out.append((ref, md.num_rows))
                total += md.num_rows
        if max_rows is not None and total > max_rows:
            return None
    return out


def executed_from_refs(refs: list, metas: list) -> MaterializedDataset:
    """The dataset ``ray.data.from_arrow_refs(refs)`` builds, from each
    block's ``BlockMetadataWithSchema.from_block`` as returned by the task
    that made it, not from a metadata task per block; marked executed as
    ``materialize()`` marks its result, so reading it (``count``,
    ``to_pandas``, ``iter_batches``, :func:`block_refs`) starts no
    streaming executor."""
    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": list(metas)}, parent=None),
        DataContext.get_current().copy(),
    )
    out = MaterializedDataset(
        plan, LogicalPlan(FromArrow(list(refs), list(metas)), plan._context)
    )
    out._plan.execute()
    return out


def executed_from_tables(tables: list[pa.Table]) -> MaterializedDataset:
    """:func:`executed_from_refs` over driver tables, one block each (an
    empty one too, so the result keeps its schema)."""
    metas = [BlockMetadataWithSchema.from_block(t) for t in tables]
    return executed_from_refs([ray.put(t) for t in tables], metas)


def concat_executed(datasets: list[MaterializedDataset]) -> MaterializedDataset:
    """One executed dataset holding the blocks of the executed
    ``datasets`` in order, built from their blocks' metadata: unlike
    ``Dataset.union`` neither the concat nor reading it is a Ray Data
    execution."""
    refs, metas = [], []
    for ds in datasets:
        bundle = ds._plan.execute()
        for ref, md in bundle.blocks:
            refs.append(ref)
            metas.append(md if isinstance(md, BlockMetadataWithSchema)
                         else BlockMetadataWithSchema(md, bundle.schema))
    return executed_from_refs(refs, metas)


def map_blocks(
    inputs: list[ray.data.Dataset],
    fn: Callable[[pa.Table], pa.Table],
    partials: list[tuple] | None = None,
):
    """The row-wise ``fn`` over every input, as Ray core tasks at default
    resources submitted in one wave → one executed dataset per input:
    neither the map nor reading its result is a Ray Data execution.

    A bare lazy read (``read_table``, ``ray.data.read_parquet`` with no
    op after it) is read inside the tasks, one per ``ReadTask`` of
    ``get_read_tasks(default_tasks())``, with the read's remote args. A
    materialized or in-memory input goes through :func:`block_refs` in at
    most ``default_tasks()`` runs; any other lazy plan is executed once
    first. ``fn`` is called once per block, on slices of at most the
    context's ``target_max_block_size`` bytes (a Ray read's blocks are
    already within it), so no call grows with the input; its outputs
    are cut there too, and into blocks of ``ceil(rows /
    default_tasks())`` input rows, so the stages downstream get about
    ``default_tasks()`` blocks per input to spread. Outputs carry no
    schema metadata, and zero-row outputs are dropped (an input without
    rows gives a dataset with no blocks).

    ``partials`` (one tuple of callables per input) are called on each
    output block in the task that makes it, each result its own object,
    so a narrow view of the blocks costs no second task wave and the
    driver fetches only the views it uses. The call then returns
    ``(datasets, refs)``: ``refs[i][j]`` holds input i's j-th partial of
    each block of its dataset, in block order."""
    cap = DataContext.get_current().target_max_block_size or 1 << 62
    tasks = default_tasks()
    parts = partials or [()] * len(inputs)
    waves = []  # per input: its tasks' streams of block, metadata, ...
    for ds, ps in zip(inputs, parts):
        op = ds._logical_plan.dag
        if isinstance(op, Read) and not ds._plan.has_computed_output():
            reads = op._datasource_or_legacy_reader.get_read_tasks(tasks)
            runs = [(r, []) for r in reads]
            rows = sum(r.metadata.num_rows or 0 for r in reads)
            task = _map_run.options(**(op._ray_remote_args or {}))
        else:
            blocks = block_refs(ds)
            runs = [(None, run) for run in _runs(blocks, tasks)]
            rows = sum(n for _, n in blocks)
            task = _map_run
        per_block = -(-rows // tasks) or 1 << 62
        waves.append([task.remote(fn, ps, cap, per_block, r, *run)
                      for r, run in runs])
    cols = []  # per input: [blocks, metadata, *partials] ref lists
    for wave, ps in zip(waves, parts):
        k = 2 + len(ps)
        streams = [list(stream) for stream in wave]
        for refs in streams:
            if len(refs) % k:  # a task's error ends its stream, after a block
                ray.get(refs[-1])
        out = [ref for refs in streams for ref in refs]
        cols.append([out[j::k] for j in range(k)])
    metas = iter(ray.get([m for c in cols for m in c[1]]))
    datasets = [executed_from_refs(c[0], [next(metas) for _ in c[1]])
                for c in cols]
    return datasets if partials is None else (datasets, [c[2:] for c in cols])


def bucket_exchange(
    ds: ray.data.Dataset | list[ray.data.Dataset],
    keys: list[str],
    fn: Callable[[pa.Table], pa.Table],
    prepare: "Callable[[pa.Table], pa.Table] | list | None" = None,
) -> MaterializedDataset:
    """Co-locate the rows of ``ds`` that share the value tuple of ``keys``
    and return the union of ``fn`` over runs of whole keys, EAGERLY: the
    call runs the exchange and returns a ``MaterializedDataset``.

    A list of datasets is co-grouped (the sides of a join). ``prepare``
    (one callable, or one per input, ``None`` for none) maps each input
    block to the rows that are bucketed, inside the exchange's map-side
    task, so a per-side projection or key expansion costs no Ray Data
    execution of its own. The inputs' prepared schemas may differ: a
    bucket holds the union of their columns, null where a side lacks one.

    No caller picks a layout. Keys hash into one private bucket space;
    each reduce task sorts its rows by bucket and calls ``fn`` on
    consecutive runs of whole buckets, cutting at the first bucket change
    at or after every ``_ROWS_PER_CALL`` rows it holds (after
    ``prepare``). So ``fn`` sees every row of a key tuple in one call
    (null keys all land together), in input order, without schema
    metadata, and one call mixes many keys: ``fn`` separates them itself
    (sort + boundary diff), and its result must not depend on which keys
    share a call. Schema metadata is stripped on both sides of ``fn``: a
    ``pa.Schema`` carrying parquet or pandas metadata is unhashable, and
    Ray then warns "Failed to hash the schemas" and unifies block schemas
    on a slow path.

    The exchange is plain Ray tasks over the inputs' block refs (an input
    that is not materialized yet is materialized once): at most
    ``default_tasks()`` map tasks per input, each over a contiguous run
    of blocks, split every row to one of ``default_tasks()`` partitions
    of whole buckets, and one reduce task per partition calls ``fn``. A
    partition that ends with no rows is dropped, so the result never
    holds an empty block unless every partition is empty."""
    inputs = ds if isinstance(ds, list) else [ds]
    preps = prepare if isinstance(prepare, list) else [prepare] * len(inputs)
    parts = default_tasks()
    slices = []  # per map task: its `parts` slice refs
    for d, prep in zip(inputs, preps):
        for run in _runs(block_refs(d), parts):
            task = _exchange_map.options(num_returns=parts).remote(
                prep, keys, parts, *run
            )
            slices.append([task] if parts == 1 else task)
    reduced = [
        _exchange_reduce.remote(fn, _ROWS_PER_CALL, *[s[p] for s in slices])
        for p in range(parts if slices else 0)
    ]
    outs = list(zip([o for o, _ in reduced], ray.get([m for _, m in reduced])))
    keep = [(out, m) for out, m in outs if m.num_rows]
    if not keep:  # every partition empty: one typed empty block if any
        keep = [(out, m) for out, m in outs if len(m.schema)][:1]
        if not keep:
            return executed_from_tables([pa.table({})])
    return executed_from_refs([out for out, _ in keep], [m for _, m in keep])
