"""core.exchange: the one hash-bucket exchange every blocked stage uses."""

import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
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


@pytest.mark.parametrize("n_buckets", [1, 7, 256])
@pytest.mark.parametrize("blocks", [1, 16])
def test_output_independent_of_buckets_and_blocks(ray_session, n_buckets, blocks):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame()
    ds = rd.from_pandas(df).repartition(blocks)
    got = bucket_exchange(ds, ["k"], _per_key_sums(["k"]), n_buckets).to_pandas()
    want = df.groupby("k")["v"].sum().reset_index()
    pd.testing.assert_frame_equal(_canon(got, ["k"]), _canon(want, ["k"]))


def test_multi_column_keys(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame()
    got = bucket_exchange(
        rd.from_pandas(df).repartition(8), ["k", "s"],
        _per_key_sums(["k", "s"]), 7,
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
    got = bucket_exchange([left, right], ["k"], fn, 7).to_pandas()
    want = bucket_exchange(left.union(right), ["k"], fn, 7).to_pandas()
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

    got = bucket_exchange(ds, ["k"], null_rows, 16).to_pandas()
    counts = got["n"].to_numpy()
    assert counts.sum() == 3
    assert sorted(counts[counts > 0].tolist()) == [3]


def test_empty_input_gives_empty_output(ray_session):
    import ray.data as rd

    from record_matcher_ray.core.exchange import bucket_exchange

    df = _frame().iloc[:0]
    got = bucket_exchange(
        rd.from_pandas(df), ["k"], _per_key_sums(["k"]), 7
    ).to_pandas()
    assert len(got) == 0


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

    got = bucket_exchange(ds, ["k"], probe, 4).to_pandas()
    assert set(got["names"]) == {"k,s,v"}
    assert not got["meta"].any()


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
# docmatch's KeyExpander fuses its key bucket into key derivation; the
# sharded-exchange rework moves it (left out of the shared primitive)
_ALLOWED = {"docmatch.py": 1}


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
