"""Sources/sinks. The reference has NONE (SURVEY.md §2.4 M3 — tables enter
and leave as Python dicts); the engine adds real ones.

``read_documents`` targets the north-star Lance corpus; ``pylance`` is not
installed in this sandbox, so it transparently falls back to parquet with
the same schema (SURVEY.md §7.4)."""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data


def read_documents(path: str, **kwargs) -> ray.data.Dataset:
    """Read an interleaved-document table (doc_id, spans). Prefers Lance
    (``ray.data.read_lance``) when the dataset is Lance and pylance is
    importable; otherwise parquet."""
    if path.endswith(".lance"):
        try:
            import lance  # noqa: F401

            return ray.data.read_lance(path, **kwargs)
        except ImportError as e:
            raise ImportError(
                "pylance is not available in this environment; "
                "use the parquet fallback"
            ) from e
    return ray.data.read_parquet(path, **kwargs)


def _hive_partitioned(path: str) -> bool:
    """True when ``path`` is or holds hive-style ``key=value`` directories.
    Ray adds those keys as string columns that no file footer lists, so a
    schema read from the footers would drop or mistype them. A false
    positive (an ``=`` in an ordinary directory name) is harmless: the
    read then strips the metadata after decoding instead of up front."""
    if any("=" in seg for seg in path.replace("\\", "/").split("/")):
        return True
    return os.path.isdir(path) and any(
        e.is_dir() and "=" in e.name for e in os.scandir(path)
    )


def _drop_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None)


def read_table(path: str, columns: list[str] | None = None, **kwargs) -> ray.data.Dataset:
    """Column-pruned table read, format-dispatched by extension:
    parquet (default), ``.lance`` (when pylance importable), ``.csv``,
    ``.json``/``.jsonl``. Always pass ``columns`` in pipelines — a read
    that loads all columns for a 2-column transform is wrong. (CSV/JSON
    prune AFTER decode via select — those formats are row-oriented, so
    the decode itself can't skip columns; store hot tables as parquet.)"""
    low = path.rstrip("/").lower()
    if low.endswith(".lance"):
        return read_documents(path, **kwargs)
    if low.endswith(".csv"):
        ds = ray.data.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if low.endswith((".json", ".jsonl")):
        ds = ray.data.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if "schema" in kwargs:
        return ray.data.read_parquet(path, columns=columns, **kwargs)
    # strip the schema METADATA: parquet files carry a b'pandas'
    # schema-metadata dict that makes pa.Schema UNHASHABLE, so every
    # downstream exchange over parquet-born blocks hits Ray's "Failed to
    # hash the schemas (for deduplication)" slow path in the reduce
    # workers.
    if _hive_partitioned(path):
        # the partition columns are in no footer: strip after decoding,
        # in a map fused into the read
        return ray.data.read_parquet(path, columns=columns, **kwargs).map_batches(
            _drop_schema_metadata, batch_format="pyarrow", batch_size=None
        )
    # otherwise one footer read passes an explicit metadata-free schema.
    # (Ray applies the schema to the PROJECTED batch, so it must list
    # exactly `columns` when given.)
    try:
        import pyarrow.dataset as pds

        full = pds.dataset(path).schema
        sch = (pa.schema([full.field(c) for c in columns])
               if columns else full)
        kwargs["schema"] = sch.remove_metadata()
    except Exception:
        pass  # odd layouts fall back to Ray's own schema inference
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def read_csv(paths, **kwargs) -> ray.data.Dataset:
    """CSV source (thin wrapper for surface completeness; the reference has
    no I/O at all — SURVEY.md §2.4 M3)."""
    return ray.data.read_csv(paths, **kwargs)


def read_json(paths, **kwargs) -> ray.data.Dataset:
    return ray.data.read_json(paths, **kwargs)


def write_partitioned(
    ds: ray.data.Dataset,
    out_dir: str,
    min_rows_per_file: int = 500_000,
    partition_cols: list[str] | None = None,
) -> None:
    """Partitioned parquet sink — a directory of part files (never one
    giant file; resumable layouts belong to state/checkpoint.py).

    ``partition_cols`` produces hive-style ``col=value/`` directories so a
    failed downstream run can skip finished key ranges and readers can
    prune partitions at the source; keep partition cardinality bounded
    (e.g. lang, source, date bucket) — one directory per distinct tuple.
    """
    extra = {"partition_cols": partition_cols} if partition_cols else {}
    try:
        ds.write_parquet(out_dir, min_rows_per_file=min_rows_per_file, **extra)
    except TypeError:  # older Ray kwarg name
        ds.write_parquet(out_dir, num_rows_per_file=min_rows_per_file, **extra)


def records_to_dataset(records: dict[int, dict], id_column: str = "__rid__") -> ray.data.Dataset:
    """Dict-table (reference format) → Dataset with an explicit id column."""
    import pandas as pd

    rows = []
    for idx, row in records.items():
        r = dict(row)
        r[id_column] = idx
        rows.append(r)
    return ray.data.from_pandas(pd.DataFrame(rows))


def dataset_to_records(ds: ray.data.Dataset, id_column: str = "__rid__") -> dict[int, dict]:
    """Dataset → dict-table (small results only — materializes)."""
    out = {}
    for row in ds.to_pandas().to_dict("records"):
        idx = int(row.pop(id_column))
        out[idx] = row
    return out
