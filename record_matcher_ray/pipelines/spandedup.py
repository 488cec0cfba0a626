"""Substring-level (span) exact deduplication: find fixed-length text
windows that recur across documents and report, per document, how much of
it is globally-duplicated text — plus the merged character spans so a
caller can strip them (the "dedup duplicated n-gram spans" operator of
large-scale training-data pipelines, cf. suffix-array substring dedup;
this is the windowed-fingerprint formulation of the same signal).

Scale shape
-----------
Window hashing is one vectorized sweep per batch (core.hashkernels
.window_hashes — rolling polynomial hash, no per-row Python). The only
all-to-all exchange (core.exchange.bucket_exchange) carries
(window_hash, doc_id, payload) rows — never text — keyed by a ≤256
bucket of the window hash, never the raw hash, so per-group Python overhead is bounded by the
bucket count (CLAUDE.md rule) and each bucket resolves duplicate status
in one vectorized sort/boundary pass. Per-doc aggregation is a second
bounded-key exchange of doc-level partials. Nothing is materialized on
the driver; output streams.

Duplicate status is decided by 64-bit window-hash equality — exact up to
collisions (≈ n_windows² / 2⁶⁴), the same contract as decontam/minhash
verify. The SQL oracle compares actual window STRINGS, so a collision
would surface as a gate failure.

Semantics
---------
Text is normalized exactly like blocking/decontam (lowercase,
non-[a-z0-9] runs → one space, trim). Every ``stride``-spaced
``window``-byte window of the normalized text is a unit; documents
shorter than ``window`` contribute their whole text as one window;
empty-after-normalization documents drop out. A window is DUPLICATED
when its content occurs in ≥ ``min_docs`` distinct documents (within-doc
repeats alone don't count). Span positions are byte offsets into the
NORMALIZED text.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from record_matcher_ray.core.exchange import bucket_exchange
from record_matcher_ray.core.hashkernels import (
    normalize_utf8,
    utf8_view,
    window_hashes,
)
from record_matcher_ray.pipelines.analysis import _round_half_away6


def _shuffle_parts(explicit: int | None) -> int:
    if explicit is not None:
        return int(explicit)
    import ray

    return max(64, 2 * int(ray.cluster_resources().get("CPU", 32)))


def _doc_windows(
    t: pa.Table, text_col: str, window: int, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (hashes, n_win per doc, normalized lens per doc) for one batch."""
    flat, starts, lens = utf8_view(normalize_utf8(t[text_col]))
    h, n_win = window_hashes(flat, starts, lens, window, stride)
    return h, n_win, lens


def duplicated_window_stats(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    window: int = 16,
    stride: int = 1,
    min_docs: int = 2,
    n_buckets: int = 256,
    shuffle_partitions: int | None = None,
) -> ray.data.Dataset:
    """→ Dataset[id_col, n_windows, n_dup_windows, dup_frac] per document
    with ≥1 window. ``dup_frac`` counts window OCCURRENCES (a window
    repeated inside one doc counts each time it occurs, matching the SQL
    oracle's occurrence join)."""

    def emit(t: pa.Table) -> pa.Table:
        h, n_win, _ = _doc_windows(t, text_col, window, stride)
        ids = t[id_col].combine_chunks()
        if len(h) == 0:
            return pa.table(
                {"__h__": pa.array([], pa.int64()),
                 id_col: ids.slice(0, 0),
                 "__cnt__": pa.array([], pa.int64())}
            )
        doc_idx = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
        # pre-reduce per (doc, hash) within the batch: most exchanges carry
        # one row per distinct window per doc instead of one per occurrence
        order = np.lexsort((h, doc_idx))
        hs, dsx = h[order], doc_idx[order]
        first = np.empty(len(hs), bool)
        first[0] = True
        first[1:] = (hs[1:] != hs[:-1]) | (dsx[1:] != dsx[:-1])
        grp = np.cumsum(first) - 1
        cnt = np.bincount(grp).astype(np.int64)
        hu, du = hs[first], dsx[first]
        return pa.table(
            {
                "__h__": pa.array(hu.view(np.int64)),
                id_col: ids.take(pa.array(du)),
                "__cnt__": pa.array(cnt),
            }
        )

    def bucket_resolve(t: pa.Table) -> pa.Table:
        # rows of one hash bucket: (hash, doc, cnt). Re-reduce per
        # (hash, doc) across batches, mark hashes with ≥ min_docs distinct
        # docs, emit per-doc partial sums — all one vectorized pass.
        h = t["__h__"].to_numpy().view(np.uint64)
        cnt = t["__cnt__"].to_numpy()
        codes, uniq_ids = pd.factorize(
            t[id_col].to_numpy(zero_copy_only=False)
        )
        order = np.lexsort((codes, h))
        hs, cs, ws = h[order], codes[order], cnt[order]
        first = np.empty(len(hs), bool)
        first[0] = True
        first[1:] = (hs[1:] != hs[:-1]) | (cs[1:] != cs[:-1])
        grp = np.cumsum(first) - 1
        w = np.bincount(grp, weights=ws).astype(np.int64)  # occ per (h,doc)
        hg, cg = hs[first], cs[first]
        # distinct docs per hash = run length over hg (rows distinct per doc)
        hfirst = np.empty(len(hg), bool)
        hfirst[0] = True
        hfirst[1:] = hg[1:] != hg[:-1]
        hid = np.cumsum(hfirst) - 1
        ndocs = np.bincount(hid).astype(np.int64)
        dup = ndocs[hid] >= min_docs
        n_part = np.bincount(cg, weights=w, minlength=len(uniq_ids))
        d_part = np.bincount(cg[dup], weights=w[dup], minlength=len(uniq_ids))
        return pa.table(
            {
                id_col: pa.array(uniq_ids).cast(t.schema.field(id_col).type),
                "n_windows": pa.array(n_part.astype(np.int64)),
                "n_dup_windows": pa.array(d_part.astype(np.int64)),
            }
        )

    parts = _shuffle_parts(shuffle_partitions)
    partials = bucket_exchange(
        ds.map_batches(emit, batch_format="pyarrow").repartition(parts),
        ["__h__"], bucket_resolve, n_buckets,
    )
    agg = partials.groupby(id_col).aggregate(
        Sum("n_windows", alias_name="n_windows"),
        Sum("n_dup_windows", alias_name="n_dup_windows"),
    )

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_windows"].to_numpy().astype(np.float64)
        d = t["n_dup_windows"].to_numpy().astype(np.float64)
        return t.append_column(
            "dup_frac", pa.array(_round_half_away6(d / n))
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def duplicate_spans(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    window: int = 16,
    stride: int = 1,
    min_docs: int = 2,
    n_buckets: int = 256,
    shuffle_partitions: int | None = None,
    as_lists: bool = False,
) -> ray.data.Dataset:
    """→ Dataset[id_col, span_start, span_end]: maximal merged byte spans
    of the NORMALIZED text covered by duplicated windows (half-open
    ``[span_start, span_end)``; overlapping or touching windows merge).
    Strip by slicing these out of ``normalize_utf8(text)`` — or call
    :func:`strip_duplicate_spans`, which does exactly that. With
    ``as_lists=True`` the output is one row per doc:
    Dataset[id_col, span_starts: list<int64>, span_ends: list<int64>]."""

    def emit(t: pa.Table) -> pa.Table:
        h, n_win, lens = _doc_windows(t, text_col, window, stride)
        ids = t[id_col].combine_chunks()
        if len(h) == 0:
            return pa.table(
                {"__h__": pa.array([], pa.int64()),
                 id_col: ids.slice(0, 0),
                 "__pos__": pa.array([], pa.int64()),
                 "__end__": pa.array([], pa.int64())}
            )
        doc_idx = np.repeat(np.arange(len(n_win), dtype=np.int64), n_win)
        win_starts = np.cumsum(n_win) - n_win
        pos = (np.arange(len(h), dtype=np.int64)
               - np.repeat(win_starts, n_win)) * stride
        end = np.minimum(pos + window, lens[doc_idx])
        return pa.table(
            {
                "__h__": pa.array(h.view(np.int64)),
                id_col: ids.take(pa.array(doc_idx)),
                "__pos__": pa.array(pos),
                "__end__": pa.array(end),
            }
        )

    def bucket_mark(t: pa.Table) -> pa.Table:
        # keep only rows whose hash occurs in ≥ min_docs distinct docs
        h = t["__h__"].to_numpy().view(np.uint64)
        codes, _ = pd.factorize(t[id_col].to_numpy(zero_copy_only=False))
        order = np.lexsort((codes, h))
        hs, cs = h[order], codes[order]
        first = np.empty(len(hs), bool)
        first[0] = True
        first[1:] = (hs[1:] != hs[:-1]) | (cs[1:] != cs[:-1])
        hfirst = np.empty(len(hs), bool)
        hfirst[0] = True
        hfirst[1:] = hs[1:] != hs[:-1]
        hid_sorted = np.cumsum(hfirst) - 1
        ndocs = np.bincount(hid_sorted[first]).astype(np.int64)
        # bincount counted (h,doc) firsts per hash id; map back to rows
        dup_sorted = ndocs[hid_sorted] >= min_docs
        keep = np.empty(len(hs), bool)
        keep[order] = dup_sorted
        return t.filter(pa.array(keep)).select([id_col, "__pos__", "__end__"])

    def bucket_merge(t: pa.Table) -> pa.Table:
        # merge overlapping/touching [pos, end) windows per doc — one
        # vectorized pass via the per-code offset trick (no per-doc loop)
        codes, uniq_ids = pd.factorize(
            t[id_col].to_numpy(zero_copy_only=False)
        )
        pos = t["__pos__"].to_numpy()
        end = t["__end__"].to_numpy()
        if len(pos) == 0:
            if as_lists:
                return pa.table(
                    {id_col: t[id_col].slice(0, 0),
                     "span_starts": pa.array([], pa.list_(pa.int64())),
                     "span_ends": pa.array([], pa.list_(pa.int64()))}
                )
            return pa.table(
                {id_col: t[id_col].slice(0, 0),
                 "span_start": pa.array([], pa.int64()),
                 "span_end": pa.array([], pa.int64())}
            )
        big = np.int64(int(end.max()) + 1)
        off = codes.astype(np.int64) * big
        p2, e2 = pos + off, end + off
        order = np.lexsort((p2,))
        p2, e2 = p2[order], e2[order]
        cm = np.maximum.accumulate(e2)
        brk = np.empty(len(p2), bool)
        brk[0] = True
        brk[1:] = p2[1:] > cm[:-1]
        idx = np.nonzero(brk)[0]
        s = p2[idx]
        e = np.maximum.reduceat(e2, idx)
        code_of = (s // big).astype(np.int64)
        starts_out = s - code_of * big
        ends_out = e - code_of * big
        id_type = t.schema.field(id_col).type
        if not as_lists:
            return pa.table(
                {
                    id_col: pa.array(uniq_ids[code_of]).cast(id_type),
                    "span_start": pa.array(starts_out),
                    "span_end": pa.array(ends_out),
                }
            )
        # spans arrive code-major (the offset trick sorts globally), so
        # one bincount gives per-present-doc list offsets
        present, counts = np.unique(code_of, return_counts=True)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        return pa.table(
            {
                id_col: pa.array(uniq_ids[present]).cast(id_type),
                "span_starts": pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(starts_out)
                ),
                "span_ends": pa.ListArray.from_arrays(
                    pa.array(offsets), pa.array(ends_out)
                ),
            }
        )

    parts = _shuffle_parts(shuffle_partitions)
    marked = bucket_exchange(
        ds.map_batches(emit, batch_format="pyarrow").repartition(parts),
        ["__h__"], bucket_mark, n_buckets,
    )
    # the merge stage re-keys the surviving windows by document
    return bucket_exchange(
        marked.repartition(max(parts // 2, 1)), [id_col], bucket_merge,
        n_buckets,
    )


def strip_duplicate_spans(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    window: int = 16,
    stride: int = 1,
    min_docs: int = 2,
    n_buckets: int = 256,
    shuffle_partitions: int | None = None,
) -> ray.data.Dataset:
    """→ Dataset[id_col, text_col]: the NORMALIZED text of every document
    with its cross-document duplicated spans cut out (the "remove
    duplicated substrings" form of span dedup). Documents with no
    duplicated spans pass through normalized; fully-duplicated documents
    come out empty.

    Scale shape: the span pipeline (see :func:`duplicate_spans`) plus one
    bucketed hash_join attaching each doc's span LISTS (the join carries
    list payloads via index-join + gather) and one vectorized byte-mask
    pass — normalized text is pure ASCII, so byte slicing is safe."""
    from record_matcher_ray.pipelines.joins import hash_join

    spans = duplicate_spans(
        ds, text_col, id_col,
        window=window, stride=stride, min_docs=min_docs,
        n_buckets=n_buckets, shuffle_partitions=shuffle_partitions,
        as_lists=True,
    )

    def norm_only(t: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: t[id_col], "__nt__": normalize_utf8(t[text_col])}
        )

    joined = hash_join(
        ds.map_batches(norm_only, batch_format="pyarrow"),
        spans, id_col, id_col, how="left",
        n_buckets=n_buckets,
    )

    def cut(t: pa.Table) -> pa.Table:
        nt = t["__nt__"]
        if isinstance(nt, pa.ChunkedArray):
            nt = (nt.chunk(0) if nt.num_chunks == 1 else nt.combine_chunks())
        flat, starts, lens = utf8_view(nt)
        flat = flat.copy()  # plasma views are read-only; mask in a copy
        import pyarrow.compute as pc

        sl_col = t["span_starts"].combine_chunks()
        el_col = t["span_ends"].combine_chunks()
        valid = np.asarray(pc.is_valid(sl_col).to_numpy(zero_copy_only=False))
        # per-doc span counts (0 for docs without spans)
        so = sl_col.offsets.to_numpy().astype(np.int64)
        n_spans = np.where(valid, np.diff(so), 0)
        sv = sl_col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        ev = el_col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of_span = np.repeat(np.arange(len(t), dtype=np.int64), n_spans)
        if so[0] == 0 and int(n_spans.sum()) == len(sv):
            # canonical layout (take-produced nulls are empty slots):
            # values align with offsets in doc order — fully vectorized
            span_starts_abs = starts[doc_of_span] + sv
            span_lens = ev - sv
            k = len(sv)
        else:
            # non-canonical null-slot offsets: rebuild per doc
            span_starts_abs = np.empty(len(doc_of_span), np.int64)
            span_lens = np.empty(len(doc_of_span), np.int64)
            k = 0
            for i in np.nonzero(valid & (n_spans > 0))[0]:
                a, b = so[i], so[i + 1]
                m = b - a
                span_starts_abs[k:k + m] = starts[i] + sv[a:b]
                span_lens[k:k + m] = ev[a:b] - sv[a:b]
                k += m
        keep = np.ones(len(flat), bool)
        if k:
            keep[
                np.repeat(span_starts_abs[:k], span_lens[:k])
                + _seg_iota(span_lens[:k])
            ] = False
        kept_flat = flat[keep]
        cut_per_doc = np.bincount(
            doc_of_span, weights=span_lens.astype(np.float64),
            minlength=len(t),
        ).astype(np.int64)
        new_lens = lens - cut_per_doc
        offsets = np.concatenate(([0], np.cumsum(new_lens))).astype(np.int32)
        out_text = pa.Array.from_buffers(
            pa.utf8(), len(t),
            [None, pa.py_buffer(offsets.tobytes()),
             pa.py_buffer(kept_flat.tobytes())],
        )
        return pa.table({id_col: t[id_col], text_col: out_text})

    return joined.map_batches(cut, batch_format="pyarrow")


def _seg_iota(lens: np.ndarray) -> np.ndarray:
    """[0..l0) ++ [0..l1) ++ … as one flat array."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.int64)
    starts = np.cumsum(lens) - lens
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(starts, lens)
    return out
