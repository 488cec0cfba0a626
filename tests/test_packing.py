"""Sequence packing: next-fit token bins per pack bucket, exact accounting."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from record_matcher_ray.pipelines.sampling import (
    _next_fit_bins,
    pack_sequences,
    packing_stats,
)


def _ref_next_fit(tokens, budget):
    """Independent per-doc reference of the next-fit recurrence."""
    bins, b, run = [], -1, None
    for t in tokens:
        if run is None or run + t > budget:
            b, run = b + 1, t
        else:
            run += t
        bins.append(b)
    return bins


class TestNextFitBins:
    def test_empty(self):
        assert _next_fit_bins(np.array([], np.int64), 10).tolist() == []

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for budget in (8, 64, 512):
            toks = rng.integers(0, budget * 2, 500).astype(np.int64)
            got = _next_fit_bins(toks, budget).tolist()
            assert got == _ref_next_fit(toks.tolist(), budget)

    def test_oversize_doc_alone(self):
        toks = np.array([3, 100, 3, 3], np.int64)
        assert _next_fit_bins(toks, 10).tolist() == [0, 1, 2, 2]

    def test_exact_fit_stays(self):
        toks = np.array([5, 5, 1], np.int64)
        assert _next_fit_bins(toks, 10).tolist() == [0, 0, 1]

    def test_zero_token_docs(self):
        # zeros ride along; a zero AFTER an oversize bin opens a new bin,
        # and an oversize doc after leading zeros does not join their bin
        for toks in ([0, 0, 10, 0, 11, 0], [0, 0, 11, 3]):
            assert _next_fit_bins(np.array(toks, np.int64), 10).tolist() == (
                _ref_next_fit(toks, 10)
            )


class TestPackSequences:
    def _ds(self, toks):
        n = len(toks)
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": np.arange(100, 100 + n, dtype=np.int64),
                    "n_tokens": np.asarray(toks, np.int64),
                }
            )
        )

    def _packed(self, toks, capacity, **kw):
        return (
            pack_sequences(self._ds(toks), capacity=capacity, **kw)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    def test_basic_bins(self, ray_session):
        out = self._packed([4, 4, 4, 9, 20, 1], 10, bucket_size=1000)
        # capacity 10 → bins [4,4] [4] [9] [20 oversize] [1]
        assert out["bin_in_bucket"].tolist() == [0, 0, 1, 2, 3, 4]
        assert out["bin_offset"].tolist() == [0, 4, 0, 0, 0, 0]
        assert out["truncated"].tolist() == [
            False, False, False, False, True, False,
        ]
        assert out["seq_len"].tolist() == [4, 4, 4, 9, 20, 1]

    def test_oversize_after_empty_docs(self, ray_session):
        # a doc longer than capacity gets a bin to itself, even when the
        # open bin holds only zero-length docs
        out = self._packed([0, 200, 5], 128)
        assert out["bin_in_bucket"].tolist() == [0, 1, 2]
        assert out["bin_offset"].tolist() == [0, 0, 0]
        assert out["truncated"].tolist() == [False, True, False]

    def test_accounting_exact(self, ray_session):
        rng = np.random.default_rng(3)
        toks = rng.integers(0, 900, 5_000).astype(np.int64)
        toks[:3] = 0  # leading zero-length docs
        ds = self._ds(toks)
        packed = pack_sequences(ds.repartition(5), capacity=512)
        df = packed.to_pandas().sort_values("doc_id").reset_index(drop=True)
        # every doc lands in exactly one bin, in its id's bucket
        assert df["doc_id"].tolist() == list(range(100, 5_100))
        assert (df["pack_bucket"] == df["doc_id"] // 64).all()
        for pb, g in df.groupby("pack_bucket"):
            assert g["bin_in_bucket"].tolist() == _ref_next_fit(
                g["seq_len"].tolist(), 512
            ), pb
        stats = packing_stats(packed, capacity=512)
        assert int(stats.n_docs.iloc[0]) == 5_000
        assert int(stats.n_bins.iloc[0]) == int(
            df.groupby("pack_bucket")["bin_in_bucket"].max().add(1).sum()
        )
        assert int(stats.n_truncated.iloc[0]) == int((toks > 512).sum())
        assert int(stats.token_sum.iloc[0]) == int(
            np.minimum(toks, 512).sum()
        )

    def test_validation(self, ray_session):
        with pytest.raises(ValueError):
            pack_sequences(self._ds([1]), capacity=0)
        with pytest.raises(Exception, match="negative lengths"):
            pack_sequences(self._ds([-1, 2]), capacity=128).materialize()
