"""Partitioned parquet sink round-trips (sources/readers.write_partitioned)."""

import os

import pyarrow as pa
import pytest  # noqa: F401


class TestWritePartitioned:
    def test_plain_multi_file(self, ray_session, tmp_path):
        import ray.data as rd

        from record_matcher_ray.sources.readers import write_partitioned

        ds = rd.from_arrow(pa.table(
            {"k": list(range(1000)), "v": [i * 2 for i in range(1000)]}
        )).repartition(4)
        out = str(tmp_path / "plain")
        write_partitioned(ds, out, min_rows_per_file=100)
        files = [f for f in os.listdir(out) if f.endswith(".parquet")]
        assert len(files) >= 2  # never one giant file
        back = rd.read_parquet(out).to_pandas().sort_values("k")
        assert back["v"].tolist() == [i * 2 for i in range(1000)]

    def test_partition_cols_prunes(self, ray_session, tmp_path):
        import ray.data as rd

        from record_matcher_ray.sources.readers import write_partitioned

        ds = rd.from_arrow(pa.table({
            "lang": ["en"] * 6 + ["de"] * 4,
            "doc_id": list(range(10)),
        }))
        out = str(tmp_path / "bylang")
        write_partitioned(ds, out, partition_cols=["lang"])
        # hive-style layout: one directory per partition value
        assert sorted(d for d in os.listdir(out) if "=" in d) == [
            "lang=de", "lang=en"]
        # a reader pointed at one partition sees only that slice
        only_de = rd.read_parquet(f"{out}/lang=de").to_pandas()
        assert sorted(only_de["doc_id"]) == [6, 7, 8, 9]


def test_read_table_format_dispatch(ray_session, tmp_path):
    """r4: read_table dispatches by extension (parquet / csv / jsonl) and
    prunes columns on every path."""
    import pandas as pd

    import ray.data as rd

    from record_matcher_ray.sources.readers import read_table

    df = pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"],
                       "extra": [9.0, 8.0, 7.0]})
    pq_path = str(tmp_path / "t_parquet")
    rd.from_pandas(df).write_parquet(pq_path)
    csv_path = str(tmp_path / "t.csv")
    df.to_csv(csv_path, index=False)
    jl_path = str(tmp_path / "t.jsonl")
    df.to_json(jl_path, orient="records", lines=True)

    for path in (pq_path, csv_path, jl_path):
        got = read_table(path, columns=["k", "v"]).to_pandas()
        assert sorted(got.columns) == ["k", "v"], path
        assert sorted(got["k"].astype(int)) == [1, 2, 3], path
    full = read_table(jl_path).to_pandas()
    assert sorted(full.columns) == ["extra", "k", "v"]


def test_read_table_keeps_hive_partition_columns(ray_session, tmp_path):
    """read_table's metadata-free schema comes from the file footers, which
    do not list hive partition keys: on a write_partitioned directory (or
    one of its partitions) the key column must still be in the schema and
    the rows, and the blocks must still carry no schema metadata."""
    import pandas as pd
    import ray
    import ray.data as rd

    from record_matcher_ray.sources.readers import read_table, write_partitioned

    out = str(tmp_path / "byyear")
    # pandas-born blocks: the files carry b'pandas' schema metadata
    write_partitioned(
        rd.from_pandas(pd.DataFrame({"year": [2023] * 6 + [2024] * 4,
                                     "doc_id": list(range(10))})),
        out, partition_cols=["year"],
    )
    raw = rd.read_parquet(out).to_arrow_refs()
    assert any(ray.get(r).schema.metadata for r in raw)
    for path, ids in ((out, list(range(10))), (f"{out}/year=2024", [6, 7, 8, 9])):
        for cols in (None, ["doc_id", "year"]):
            ds = read_table(path, columns=cols)
            assert sorted(ds.schema().names) == ["doc_id", "year"], (path, cols)
            blocks = [ray.get(r) for r in ds.to_arrow_refs()]
            assert not any(b.schema.metadata for b in blocks), (path, cols)
            df = ds.to_pandas().sort_values("doc_id")
            assert df["doc_id"].tolist() == ids
            assert [int(v) for v in df["year"]] == [
                2023 if i < 6 else 2024 for i in ids]
