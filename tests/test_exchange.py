"""core.exchange: the one hash-bucket exchange every blocked stage uses."""

import logging
import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

PIPELINES = pathlib.Path(__file__).resolve().parent.parent / (
    "record_matcher_ray/pipelines"
)


def _frame(n=300):
    rng = np.random.default_rng(7)
    return pd.DataFrame(
        {
            "k": rng.integers(0, 40, n).astype(np.int64),
            "s": rng.choice(["a", "b", "c", "dd"], n),
            "v": np.arange(n, dtype=np.int64),
        }
    )


def _per_key_sums(keys):
    """fn that sums v per distinct key tuple inside its bucket."""

    def fn(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.Table.from_pandas(
            df.groupby(keys, dropna=False)["v"].sum().reset_index(),
            preserve_index=False,
        )

    return fn


def _canon(df, cols):
    return df.sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize("rows_per_call", [1, 7, 256])
@pytest.mark.parametrize("blocks", [1, 16])
def test_output_independent_of_buckets_and_blocks(
    ray_session, monkeypatch, rows_per_call, blocks
):
    """The same sums whether fn sees one bucket per call (1 row), a few,
    or a whole partition, over 1 or 16 input blocks."""
    import ray.data as rd

    from record_matcher_ray.core import exchange

    monkeypatch.setattr(exchange, "_ROWS_PER_CALL", rows_per_call)
    df = _frame()
    ds = rd.from_pandas(df).repartition(blocks)
    got = exchange.bucket_exchange(ds, ["k"], _per_key_sums(["k"])).to_pandas()
    want = df.groupby("k")["v"].sum().reset_index()
    pd.testing.assert_frame_equal(_canon(got, ["k"]), _canon(want, ["k"]))


def test_multi_column_keys(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame()
    got = bucket_exchange(
        rd.from_pandas(df).repartition(8), ["k", "s"], _per_key_sums(["k", "s"])
    ).to_pandas()
    want = df.groupby(["k", "s"])["v"].sum().reset_index()
    pd.testing.assert_frame_equal(
        _canon(got, ["k", "s"]), _canon(want, ["k", "s"])
    )


def test_co_group_list_equals_union(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame()
    left = rd.from_pandas(df.iloc[:120]).repartition(3)
    right = rd.from_pandas(df.iloc[120:]).repartition(5)
    fn = _per_key_sums(["k"])
    got = bucket_exchange([left, right], ["k"], fn).to_pandas()
    want = bucket_exchange(left.union(right), ["k"], fn).to_pandas()
    pd.testing.assert_frame_equal(_canon(got, ["k"]), _canon(want, ["k"]))


def test_null_keys_reach_fn_together(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    t = pa.table(
        {"k": pa.array([None, "x", None, "y", None, "z"], pa.string()),
         "v": pa.array(np.arange(6, dtype=np.int64))}
    )
    ds = rd.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4, 2)])

    def null_rows(b: pa.Table) -> pa.Table:
        v = b.filter(b["k"].is_null())["v"]
        return pa.table({"n": pa.array([len(v)], pa.int64())})

    got = bucket_exchange(ds, ["k"], null_rows).to_pandas()
    counts = got["n"].to_numpy()
    assert counts.sum() == 3
    assert sorted(counts[counts > 0].tolist()) == [3]


def test_empty_input_gives_empty_output(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame().iloc[:0]
    got = bucket_exchange(rd.from_pandas(df), ["k"], _per_key_sums(["k"])
                          ).to_pandas()
    assert len(got) == 0


class _GrabWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_partitions_are_whole_buckets(ray_session, monkeypatch):
    """4 input blocks over 2 partitions give 2 non-empty blocks: no empty
    partition, so no column-less block for Ray to log as a schema change
    ("... new schema: ."). A sort sampled on the bucket column made one
    partition per input block, two of them empty."""
    import ray
    import ray.data as rd

    from record_matcher_ray.core import exchange

    monkeypatch.setattr(exchange, "default_tasks", lambda: 2)
    ds = rd.from_pandas(_frame(200)).repartition(4)
    grab = _GrabWarnings()
    logger = logging.getLogger("ray.data")
    logger.addHandler(grab)
    try:
        out = exchange.bucket_exchange(
            ds, ["k"], _per_key_sums(["k"])).materialize()
    finally:
        logger.removeHandler(grab)
    sizes = [len(t) for t in ray.get(out.to_arrow_refs())]
    assert len(sizes) == 2 and min(sizes) > 0, sizes
    assert not [m for m in grab.messages if "different schema" in m]


def test_fn_called_once_per_bucket(ray_session, monkeypatch):
    """2 partitions at 50 rows per call: each partition holds many
    buckets, fn sees each non-empty bucket in exactly one call, with all
    its rows, and a call ends at the first bucket change at or after 50
    rows (only a partition's last call holds fewer)."""
    import ray.data as rd

    from record_matcher_ray.core import exchange

    monkeypatch.setattr(exchange, "default_tasks", lambda: 2)
    monkeypatch.setattr(exchange, "_ROWS_PER_CALL", 50)
    df = _frame()

    def bucket_of(t: pa.Table) -> np.ndarray:
        return exchange.bucket_ids(exchange._key_hash(t, ["k"]), exchange._SPACE)

    def probe(b: pa.Table) -> pa.Table:
        ids = bucket_of(b)
        assert (np.diff(ids) >= 0).all()  # the call is sorted by bucket
        ends = np.flatnonzero(ids[1:] != ids[:-1]) + 1  # bucket changes
        return pa.table({"first": [int(ids[0])], "last": [int(ids[-1])],
                         "rows": [len(b)],
                         "early_cut": [int((ends >= 50).any())],
                         "v": [int(pc.sum(b["v"]).as_py())]})

    got = exchange.bucket_exchange(
        rd.from_pandas(df).repartition(4), ["k"], probe
    ).to_pandas().sort_values("first").reset_index(drop=True)
    # calls cover disjoint bucket ranges: no bucket spans two calls
    assert (got["first"].to_numpy()[1:] > got["last"].to_numpy()[:-1]).all()
    assert not got["early_cut"].any()  # no call runs on past a due cut
    assert (got["rows"] >= 50).sum() >= len(got) - 2  # ≤ 1 short per part
    assert 2 < len(got) < len(np.unique(bucket_of(pa.Table.from_pandas(df))))
    assert got["rows"].sum() == len(df)
    assert got["v"].sum() == df["v"].sum()


def _exchange_warnings(run):
    """→ (run(), the "different schema" warnings Ray logged meanwhile)."""
    grab = _GrabWarnings()
    logger = logging.getLogger("ray.data")
    logger.addHandler(grab)
    try:
        out = run()
    finally:
        logger.removeHandler(grab)
    return out, [m for m in grab.messages if "different schema" in m]


def test_one_populated_bucket_gives_one_block(ray_session, monkeypatch):
    """8 input blocks whose rows all share one key, 16 partitions: the
    partitions that receive no rows are dropped, so the result is one
    block and Ray logs no schema change for a column-less block."""
    import ray
    import ray.data as rd

    from record_matcher_ray.core import exchange

    monkeypatch.setattr(exchange, "default_tasks", lambda: 16)
    df = _frame(160).assign(k=3)
    ds = rd.from_arrow([
        pa.Table.from_pandas(df.iloc[i:i + 20], preserve_index=False)
        for i in range(0, 160, 20)
    ])
    out, warned = _exchange_warnings(lambda: exchange.bucket_exchange(
        ds, ["k"], _per_key_sums(["k"])
    ).map_batches(lambda t: t, batch_format="pyarrow").materialize())
    sizes = [len(t) for t in ray.get(out.to_arrow_refs())]
    assert sizes == [1], sizes
    assert out.to_pandas()["v"].tolist() == [int(df["v"].sum())]
    assert not warned, warned


def test_empty_and_columnless_blocks_are_skipped(ray_session):
    """Zero-row and column-less input blocks reach neither ``prepare``
    nor ``fn``: a prepare that reads a column would raise on them."""
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame(90)
    t = pa.Table.from_pandas(df, preserve_index=False)
    ds = rd.from_arrow([t.slice(0, 30), pa.table({}), t.slice(30, 0),
                        t.slice(30, 60)])

    def prepare(b: pa.Table) -> pa.Table:
        return b.append_column("k2", pc.multiply(b["k"], 2))

    got = bucket_exchange(
        ds, ["k2"], _per_key_sums(["k2"]), prepare=prepare
    ).to_pandas()
    want = df.assign(k2=df["k"] * 2).groupby("k2")["v"].sum().reset_index()
    pd.testing.assert_frame_equal(_canon(got, ["k2"]), _canon(want, ["k2"]))


def test_map_tasks_per_input_follow_default_tasks(ray_session, monkeypatch):
    """300 one-row blocks per input run in at most ``default_tasks()``
    map tasks per input, each over a contiguous run of blocks."""
    import ray.data as rd

    from record_matcher_ray.core import exchange

    runs = []
    real = exchange._exchange_map

    class Counted:
        def options(self, **kw):
            submit = real.options(**kw)

            class One:
                def remote(self, prepare, keys, parts, *blocks):
                    runs.append(len(blocks))
                    return submit.remote(prepare, keys, parts, *blocks)

            return One()

    monkeypatch.setattr(exchange, "_exchange_map", Counted())
    t = pa.Table.from_pandas(_frame(300), preserve_index=False)
    left = rd.from_arrow([t.slice(i, 1) for i in range(300)])
    right = rd.from_arrow([t.slice(i, 1) for i in range(300)])
    got = exchange.bucket_exchange(
        [left, right], ["k"], _per_key_sums(["k"])
    ).to_pandas()
    assert sum(runs) == 600
    assert len(runs) <= 2 * exchange.default_tasks(), runs
    assert int(got["v"].sum()) == 2 * int(t["v"].to_numpy().sum())


def test_empty_inputs_give_an_empty_materialized_result(ray_session):
    """No rows on any side, lazy or materialized, lists or not: the call
    still returns a materialized dataset, with no rows."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from record_matcher_ray.core.exchange import bucket_exchange

    empty = _frame().iloc[:0]
    for ds in (rd.from_pandas(empty),
               [rd.from_pandas(empty), rd.from_pandas(empty).repartition(2)]):
        out = bucket_exchange(ds, ["k"], _per_key_sums(["k"]))
        assert isinstance(out, MaterializedDataset)
        assert out.count() == 0


def test_fn_sees_input_columns_without_metadata(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    t = pa.Table.from_pandas(_frame(50), preserve_index=False)
    assert t.schema.metadata  # pandas metadata rides in
    ds = rd.from_arrow([t.slice(0, 25), t.slice(25)])

    def probe(b: pa.Table) -> pa.Table:
        return pa.table(
            {"names": pa.array([",".join(b.schema.names)]),
             "meta": pa.array([b.schema.metadata is not None])}
        )

    got = bucket_exchange(ds, ["k"], probe).to_pandas()
    assert set(got["names"]) == {"k,s,v"}
    assert not got["meta"].any()


def test_result_is_built_from_task_metadata(ray_session, monkeypatch):
    """The reduce tasks return each block's metadata with the block, so
    bucket_exchange never calls ray.data.from_arrow_refs (one metadata
    task per block); its result counts and types like that form over the
    same blocks."""
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    def refuse(*a, **k):
        raise AssertionError("from_arrow_refs called")

    with monkeypatch.context() as m:
        m.setattr(rd, "from_arrow_refs", refuse)
        out = bucket_exchange(rd.from_pandas(_frame()), ["k"],
                              _per_key_sums(["k"]))
    ref_form = rd.from_arrow_refs(out.to_arrow_refs())
    assert out.count() == ref_form.count() == 40
    assert out.schema().base_schema == ref_form.schema().base_schema


def _doubled():
    """fn that appends w = 2 * v (nested, so workers unpickle it by value)."""

    def fn(t: pa.Table) -> pa.Table:
        return t.append_column("w", pc.multiply(t["v"], 2))

    return fn


def test_map_blocks_reads_a_bare_read_in_its_tasks(ray_session, executions, tmp_path):
    """A bare read_parquet is read inside map_blocks' own tasks: no Ray
    Data execution, the rows of ``ds.materialize()``, and no schema
    metadata on the output."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from record_matcher_ray.core.exchange import map_blocks

    t = pa.Table.from_pandas(_frame(), preserve_index=False)
    for i in range(3):
        pq.write_table(t.slice(100 * i, 100), tmp_path / f"part{i}.parquet")
    ds = rd.read_parquet(str(tmp_path))
    with executions() as plans:
        [out] = map_blocks([ds], _doubled())
        got = out.to_pandas()
    assert plans == []
    want = ds.materialize().to_pandas()
    want["w"] = want["v"] * 2
    pd.testing.assert_frame_equal(_canon(got, ["v"]), _canon(want, ["v"]))
    assert out.schema().base_schema.metadata is None


def test_map_blocks_cuts_at_the_block_size_cap(ray_session, monkeypatch, tmp_path):
    """Under a lowered target_max_block_size no fn call and no output
    block holds much more than that many bytes, for a bare read of one
    file and for in-memory blocks alike, and the rows are the uncapped
    map's."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.context import DataContext

    from record_matcher_ray.core.exchange import block_refs, default_tasks, map_blocks

    def fn(t: pa.Table) -> pa.Table:  # w = 2 * v, n = rows of this call
        return t.append_column("w", pc.multiply(t["v"], 2)).append_column(
            "n", pa.array(np.full(t.num_rows, t.num_rows)))

    pq.write_table(pa.Table.from_pandas(_frame(), preserve_index=False),
                   tmp_path / "one.parquet")

    def run():
        outs = map_blocks([rd.read_parquet(str(tmp_path)),
                           rd.from_pandas(_frame())], fn)
        return outs, [_canon(o.to_pandas(), ["v"]) for o in outs]

    outs, want = run()
    assert [w["n"].max() for w in want] == [300, 300]
    d = default_tasks()  # one fn call, its output cut into ~d blocks
    assert all(d // 2 < len(block_refs(o)) <= d for o in outs)
    cap = 1024  # ~22 bytes per input row: ~46 rows per fn call
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size", cap)
    outs, got = run()
    for out, g, w in zip(outs, got, want):
        assert 1 < g["n"].max() <= 60
        pd.testing.assert_frame_equal(g.drop(columns="n"), w.drop(columns="n"))
        sizes = [ray.get(ref).nbytes for ref, _ in block_refs(out)]
        assert len(sizes) >= 8 and max(sizes) <= 1.25 * cap, sizes


def test_map_blocks_in_memory_lazy_and_empty_inputs(ray_session, executions):
    """from_pandas blocks (pandas DataFrames) are read as Arrow with no
    Ray Data execution; a lazy plan that is not a bare read is executed
    once; an input without rows gives a dataset with no blocks; an error
    of fn is raised, also from the last task alone."""
    import ray.data as rd

    from record_matcher_ray.core import exchange

    df = _frame()
    ds = rd.from_pandas([df.iloc[i:i + 30] for i in range(0, 300, 30)])
    empty = rd.from_pandas(df.iloc[:0])
    with executions() as plans:
        out, none = exchange.map_blocks([ds, empty], _doubled())
    assert plans == []
    got = _canon(out.to_pandas(), ["v"])
    assert got["v"].tolist() == list(range(300))
    assert (got["w"] == 2 * got["v"]).all()
    assert none.count() == 0 and none.num_blocks() == 0
    with executions() as plans:
        [lazy] = exchange.map_blocks(
            [ds.map_batches(lambda b: b, batch_format="pyarrow")], _doubled())
    assert len(plans) == 1, plans
    pd.testing.assert_frame_equal(_canon(lazy.to_pandas(), ["v"]), got)

    def fails_on_last(t: pa.Table) -> pa.Table:  # after a first block or not
        if t["v"][0].as_py() >= 270:
            raise ValueError("last block")
        return t

    with pytest.raises(Exception, match="last block"):
        exchange.map_blocks([ds], fails_on_last)


def test_map_blocks_partials_line_up_with_blocks(ray_session, executions, tmp_path):
    """Each partial gives one object per block of the result, in block
    order, for a bare read_parquet, a materialized input and a
    from_pandas input; a zero-row output makes neither a block nor a
    partial; none of it is a Ray Data execution; and an error of a
    partial on the last block is raised."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from record_matcher_ray.core.exchange import block_refs, map_blocks

    df = _frame()
    t = pa.Table.from_pandas(df, preserve_index=False)
    for i in range(3):
        pq.write_table(t.slice(100 * i, 100), tmp_path / f"part{i}.parquet")
    inputs = [
        rd.read_parquet(str(tmp_path)),
        rd.read_parquet(str(tmp_path)).materialize(),
        rd.from_pandas([df.iloc[i:i + 30] for i in range(0, 300, 30)]),
    ]

    def fn(t: pa.Table) -> pa.Table:  # empties every 30-row block 1 mod 3
        return t.filter(pc.not_equal(pc.bit_wise_and(
            pc.divide(t["v"], 30), 3), 1))

    def values(t: pa.Table) -> np.ndarray:
        return t["v"].to_numpy()

    with executions() as plans:
        outs, refs = map_blocks(inputs, fn, [(values, len)] * 3)
        blocks = [[ray.get(r) for r, _ in block_refs(o)] for o in outs]
        parts = [[ray.get(p) for p in ps] for ps in refs]
    assert plans == []
    want = df["v"][(df["v"] // 30) & 3 != 1].to_numpy()
    for bs, (vs, ns) in zip(blocks, parts):
        assert len(vs) == len(ns) == len(bs) > 1
        for b, v, n in zip(bs, vs, ns):
            np.testing.assert_array_equal(v, b["v"].to_numpy())
            assert n == b.num_rows > 0
        np.testing.assert_array_equal(np.sort(np.concatenate(vs)), want)

    def fails_on_last(t: pa.Table) -> int:
        if t["v"][0].as_py() >= 270:
            raise ValueError("last block")
        return len(t)

    with pytest.raises(Exception, match="last block"):
        map_blocks([inputs[2]], lambda t: t, [(fails_on_last,)])


def test_block_refs_lets_a_lazy_input_go_past_max_rows(ray_session, executions):
    """block_refs runs a lazy input once, streaming, and gives None as
    soon as its rows pass max_rows; below it, every non-empty block."""
    import ray.data as rd

    from record_matcher_ray.core.exchange import block_refs

    df = _frame()
    src = rd.from_pandas([df.iloc[i:i + 30] for i in range(0, 300, 30)])
    for max_rows, want in ((None, 300), (300, 300), (299, None), (50, None)):
        lazy = src.map_batches(lambda b: b, batch_format="pyarrow")
        with executions() as plans:
            got = block_refs(lazy, max_rows)
        assert len(plans) == 1, plans
        assert (got if got is None else sum(n for _, n in got)) == want
    assert block_refs(src, 299) is None


def test_concat_executed_keeps_block_order_without_execution(ray_session, executions):
    """concat_executed chains executed datasets block by block: the rows
    keep their order, neither the concat nor reading it starts a Ray Data
    execution, and an empty list gives a dataset without rows."""
    import ray.data as rd

    from record_matcher_ray.core.exchange import (
        bucket_exchange,
        concat_executed,
        executed_from_tables,
    )

    df = _frame()
    parts = [
        executed_from_tables([pa.Table.from_pandas(df.iloc[:100],
                                                   preserve_index=False)]),
        # a materialized lazy plan: blocks with plain BlockMetadata
        rd.from_pandas(df.iloc[100:200]).map_batches(
            lambda b: b, batch_format="pyarrow").materialize(),
        executed_from_tables([pa.Table.from_pandas(df.iloc[200:],
                                                   preserve_index=False)]),
    ]
    with executions() as plans:
        out = concat_executed(parts)
        got = out.to_pandas()
        assert out.count() == 300 and out.num_blocks() == 3
    assert plans == []
    assert got["v"].tolist() == list(range(300))
    pd.testing.assert_frame_equal(got.reset_index(drop=True), df)
    summed = bucket_exchange(rd.from_pandas(df), ["k"], _per_key_sums(["k"]))
    with executions() as plans:
        both = concat_executed([summed, parts[0]])
        assert both.count() == summed.count() + 100
    assert plans == []
    with executions() as plans:
        empty = concat_executed([])
        assert empty.count() == 0 and empty.num_blocks() == 0
    assert plans == []


def test_bucket_ids_range_and_stability():
    from record_matcher_ray.core.exchange import bucket_ids

    h = np.arange(10_000, dtype=np.uint64)
    b = bucket_ids(h, 7)
    assert b.dtype == np.int64
    assert b.min() >= 0 and b.max() < 7
    np.testing.assert_array_equal(b, bucket_ids(h.view(np.int64), 7))
    # sequential keys spread over every bucket
    assert np.bincount(b, minlength=7).min() > 1000


# bucket arithmetic outside core/exchange.py: a modulo by a bucket count,
# or np.mod with one
_BUCKET_MATH = re.compile(
    r"%\s*(np\.u?int64\()?\s*(self\.)?n_\w*buckets\b"
    r"|%\s*np\.uint64\(\s*\d+\s*\)"
    r"|np\.mod\([^)]*n_\w*buckets"
)
_ALLOWED = {}


def test_no_pipeline_computes_its_own_bucket():
    found = {}
    for path in sorted(PIPELINES.glob("*.py")):
        hits = [
            f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if _BUCKET_MATH.search(line)
        ]
        if len(hits) != _ALLOWED.get(path.name, 0):
            found[path.name] = hits
    assert not found, (
        "bucket ids must come from core.exchange (bucket_exchange / "
        f"bucket_ids): {found}"
    )


# calls of bucket_ids under pipelines/ per file: each is a hand-rolled
# bucket step that bucket_exchange owns. A count may go down, never up.
_BUCKET_IDS_CALLS = {}


def test_bucket_ids_calls_do_not_grow():
    got = {
        path.name: path.read_text().count("bucket_ids(")
        for path in sorted(PIPELINES.glob("*.py"))
    }
    grown = {name: n for name, n in got.items()
             if n > _BUCKET_IDS_CALLS.get(name, 0)}
    assert not grown, (
        f"new bucket_ids calls under pipelines/ (route the step through "
        f"core.exchange.bucket_exchange): {grown}"
    )


_LAYOUT_KNOB = re.compile(r"^(\w*_buckets|shuffle_partitions)$")


def test_no_pipeline_takes_a_layout_knob():
    """bucket_exchange sizes its own partitions and fn calls: no function
    under pipelines/ takes a bucket count or a partition count."""
    import ast

    found = []
    for path in sorted(PIPELINES.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                found += [f"{path.name}:{fn.lineno} {fn.name}({p.arg})"
                          for p in a.posonlyargs + a.args + a.kwonlyargs
                          if _LAYOUT_KNOB.match(p.arg)]
    assert not found, f"layout knobs under pipelines/: {found}"


def test_no_lazy_map_feeds_an_exchange():
    """A bucket_exchange input that is a lazy map, a repartition or a union
    is a Ray Data execution of its own; the map belongs in prepare=."""
    import ast

    found = []
    for path in sorted(PIPELINES.glob("*.py")):
        src = path.read_text()
        for node in ast.walk(ast.parse(src)):
            if not (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "id", None) == "bucket_exchange"):
                continue
            first = ast.get_source_segment(src, node.args[0])
            if any(op in first for op in (".map_batches(", ".repartition(",
                                          ".union(")):
                found.append(f"{path.name}:{node.lineno}: {first}")
    assert not found, (
        f"pass the map as bucket_exchange's prepare= instead: {found}"
    )


# the groupby().map_groups sites whose fn assumes ONE group per call
_MAP_GROUPS = {"joins.py": 1, "similarity.py": 1}


def test_map_groups_only_where_fn_takes_one_group():
    got = {}
    for path in sorted(PIPELINES.glob("*.py")):
        n = path.read_text().count(".map_groups(")
        if n:
            got[path.name] = n
    assert got == _MAP_GROUPS, (
        f"route the groupby through core.exchange.bucket_exchange: {got}"
    )


def test_default_tasks_follows_cluster_cpus(ray_session, monkeypatch):
    import ray

    from record_matcher_ray.core import exchange

    assert exchange.default_tasks() == 2 * int(ray.cluster_resources()["CPU"])
    monkeypatch.setattr(exchange.ray, "cluster_resources", lambda: {"CPU": 0})
    assert exchange.default_tasks() == 1  # floor


@pytest.mark.parametrize(
    "ids, rows, want",
    [
        ([0, 0, 1, 1, 2], 1, [0, 2, 4, 5]),  # one call per bucket
        ([0, 0, 1, 1, 2], 3, [0, 4, 5]),  # cut at the change after 3 rows
        ([0, 0, 1, 1, 2], 2, [0, 2, 4, 5]),  # a change at exactly 2 rows
        ([5] * 10, 3, [0, 10]),  # one bucket is never split
        (list(range(7)), 100, [0, 7]),  # one call per partition
        ([0, 1, 1, 1, 1, 2, 3], 2, [0, 5, 7]),  # counted from the last cut
    ],
)
def test_call_cuts(ids, rows, want):
    from record_matcher_ray.core.exchange import _call_cuts

    assert _call_cuts(np.array(ids), rows) == want


# task counts laid out for one cluster size: a literal repartition count,
# a max(64|32, ...) floor over the cluster's CPUs, or a 32-CPU fallback
def _layout_floors(path: pathlib.Path) -> list[str]:
    import ast

    src = path.read_text()
    tree = ast.parse(src)
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        sizes_from_cluster = "cluster_resources" in ast.get_source_segment(src, fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f, args = node.func, node.args
            lits = [a.value for a in args if isinstance(a, ast.Constant)]
            if isinstance(f, ast.Attribute) and f.attr == "repartition" and (
                args and isinstance(args[0], ast.Constant)
            ):
                hits.add(f.end_lineno)  # the line of a chained call
            elif isinstance(f, ast.Attribute) and f.attr == "get" and (
                lits == ["CPU", 32]
            ):
                hits.add(f.end_lineno)
            elif isinstance(f, ast.Name) and f.id == "max" and (
                sizes_from_cluster and {32, 64} & set(lits)
            ):
                hits.add(node.lineno)
    lines = src.splitlines()
    return [f"{path.name}:{i}: {lines[i - 1].strip()}" for i in sorted(hits)]


def test_no_pipeline_hardcodes_a_task_count():
    found = [h for p in sorted(PIPELINES.glob("*.py")) for h in _layout_floors(p)]
    assert not found, (
        "task counts must come from core.exchange (bucket_exchange sizes "
        f"its own partitions and fn calls): {found}"
    )


def test_layout_ratchet_catches_floors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import ray\n"
        "def f(ds):\n"
        "    n = max(64, 2 * int(ray.cluster_resources().get('CPU', 32)))\n"
        "    return ds.repartition(32).repartition(n)\n"
        "def g(ds):\n"
        "    '''ds.repartition(1) in a docstring is fine'''\n"
        "    return max(64, len(ds))  # no cluster sizing here\n"
    )
    assert [h.split(":")[1] for h in _layout_floors(bad)] == ["3", "4"]


# one job, one operator: two pipelines/ modules that define the same
# public function or class are two operators for one job
def _public_defs(paths) -> list[tuple[str, str]]:
    """(name, module) of each top-level public function or class."""
    import ast

    return [
        (node.name, path.name)
        for path in paths for node in ast.parse(path.read_text()).body
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and not node.name.startswith("_")
    ]


def _duplicate_public_names(paths) -> dict[str, list[str]]:
    where: dict[str, list[str]] = {}
    for name, mod in _public_defs(paths):
        where.setdefault(name, []).append(mod)
    return {name: mods for name, mods in where.items() if len(mods) > 1}


# the top-level public functions and classes under pipelines/: fold two
# operators that do one job into one and lower the pin; never raise it
_PUBLIC_NAMES = 218


def test_public_operator_count_only_goes_down():
    n = len(_public_defs(sorted(PIPELINES.glob("*.py"))))
    assert n <= _PUBLIC_NAMES, (
        f"{n} public names under pipelines/, pinned at {_PUBLIC_NAMES}: "
        "extend the operator that does the job instead of adding one"
    )


def test_public_name_ratchet_catches_an_added_name(tmp_path):
    mod = tmp_path / "a.py"
    src = (
        "def pack(ds):\n    def inner():  # nested: not public\n        pass\n"
        "def _helper():\n    pass\n"
        "class Packer:\n    '''def other(): in a docstring is fine'''\n"
    )
    mod.write_text(src)
    assert len(_public_defs([mod])) == 2
    mod.write_text(src + "def unpack(ds):\n    pass\n")
    assert len(_public_defs([mod])) == 3


def test_no_two_pipelines_define_one_public_name():
    dups = _duplicate_public_names(sorted(PIPELINES.glob("*.py")))
    assert not dups, f"one operator per job; delete the copy: {dups}"


def test_duplicate_name_ratchet_catches_a_copy(tmp_path):
    (tmp_path / "a.py").write_text(
        "def pack(ds):\n    pass\n"
        "def _helper():\n    pass\n"
        "class Packer:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "def pack(ds, n):\n    pass\n"
        "def _helper():\n    pass\n"
        "def other():\n    '''def Packer(): in a docstring is fine'''\n"
        "    def pack():  # a nested helper is not public\n        pass\n"
    )
    assert _duplicate_public_names(sorted(tmp_path.glob("*.py"))) == {
        "pack": ["a.py", "b.py"]
    }


# Ray core tasks that ask for no CPU: a wave of them runs beside the
# tasks that hold the CPUs, so Ray starts one more worker process for it,
# and that process stays (~210 MB at 1 CPU on perfbench docmatch_full)
def _zero_cpu_tasks(path: pathlib.Path) -> list[str]:
    import ast

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        remote = (isinstance(f, ast.Attribute) and f.attr == "remote"
                  and getattr(f.value, "id", None) == "ray")
        options = isinstance(f, ast.Attribute) and f.attr == "options"
        if (remote or options) and any(
            k.arg == "num_cpus" and isinstance(k.value, ast.Constant)
            and k.value.value == 0 for k in node.keywords
        ):
            found.append(node.lineno)
    return [f"{path.name}:{n}" for n in sorted(found)]


def test_no_engine_task_asks_for_zero_cpus():
    found = [h for p in sorted(PIPELINES.parent.rglob("*.py"))
             for h in _zero_cpu_tasks(p)]
    assert not found, f"run these tasks at default resources: {found}"


def test_zero_cpu_ratchet_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import ray\n"
        "@ray.remote(num_cpus=0)\n"
        "def f(t):\n"
        '    """ray.remote(num_cpus=0) in a docstring is fine"""\n'
        "g = ray.remote(num_cpus=0)(len)\n"
        "h = f.options(num_cpus=0)\n"
        "@ray.remote(num_cpus=1)\n"
        "def ok(t):\n"
        "    return ray.remote(num_returns=2)\n"
    )
    assert [h.split(":")[1] for h in _zero_cpu_tasks(bad)] == ["2", "5", "6"]
