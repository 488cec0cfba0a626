"""The benchmark's workloads.

Each workload owns its inputs (made from the seed), one timed job that
drives the library only through public functions and consumes every
output, the output checks, and the kernel-layer probes of the traced run.
NOTES.md says why each workload exists and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from gen import person_tables

# Absolute quality floor for ``f1`` on every workload. BENCHMARK.json's
# schema has no room for it; its ``f1`` bound limits drift against the
# parent commit, this floor catches a broken matcher on any commit.
F1_FLOOR = 0.99

# scale -> sizes. "full" is what ``run.py`` measures; "tiny" is the smoke
# test's size, where one set-up and one timed job per mode are enough.
SIZES = {
    "full": {"blocked": (1000, 40), "entities": 1000, "doc_sample": 1000},
    "tiny": {"blocked": (150, 6), "entities": 300, "doc_sample": 300,
             "min_jobs": 1, "setup_reps": 1},
}

N_SHARDS = 4


@dataclass
class Outcome:
    """What one timed job produced, reduced to what the checks need."""
    x_ids: np.ndarray  # every x id the job emitted, in emission order
    pred: np.ndarray  # predicted y id per emitted row, -1 for none
    invariants: dict  # counts that must repeat exactly for a seed
    info: dict = field(default_factory=dict)


def f1_score(x_ids: np.ndarray, pred: np.ndarray, truth: np.ndarray) -> float:
    """Pairwise F1 of predicted (x, y) links against the planted truth
    (``truth[x]`` is x's true y id, -1 when x has none)."""
    t = truth[x_ids]
    linked = pred >= 0
    tp = int(np.sum(linked & (pred == t)))
    fp = int(np.sum(linked)) - tp
    fn = int(np.sum(truth >= 0)) - tp
    if tp == 0:
        return 0.0
    p, r = tp / (tp + fp), tp / (tp + fn)
    return 2 * p * r / (p + r)


def _timed(tracer, name: str, fn, min_s: float = 0.25):
    """Call ``fn`` until ``min_s`` has passed (at least once) inside one
    span; → (seconds per call, last result)."""
    n, total, res = 0, 0.0, None
    with tracer.span(name):
        while n == 0 or total < min_s:
            t = time.perf_counter()
            res = fn()
            total += time.perf_counter() - t
            n += 1
    return total / n, res


def _consume(ds, columns: list[str]) -> dict[str, np.ndarray]:
    """Pull every row of ``ds`` to the driver, keeping ``columns``."""
    parts: dict[str, list] = {c: [] for c in columns}
    for batch in ds.iter_batches(batch_format="pyarrow"):
        for c in columns:
            parts[c].append(batch[c].to_numpy(zero_copy_only=False))
    return {c: (np.concatenate(v) if v else np.empty(0)) for c, v in parts.items()}


class Workload:
    name = ""
    stage_prefix = None  # span prefix of the pipeline's progress= stages
    min_jobs = 5  # fewest timed jobs in an untraced run

    def __init__(self, scale: str, seed: int, workdir: str, ncpu: int):
        self.scale, self.seed, self.workdir, self.ncpu = scale, seed, workdir, ncpu
        self.size = SIZES[scale]
        self.min_jobs = self.size.get("min_jobs", self.min_jobs)
        self.truth = np.empty(0, np.int64)
        self.invariants: dict | None = None
        os.makedirs(workdir, exist_ok=True)

    # ---- set-up (untimed; counted in setup_s) ----------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Set-up that needs the Ray session."""

    def warm(self) -> None:
        """Start a Ray worker and import the library in it through one tiny
        Ray Data pass, so the first timed job does not pay for process start
        and imports. First-call costs inside the library stay in the timed
        jobs."""
        import ray.data

        def load(batch):
            import record_matcher_ray.pipelines.docmatch  # noqa: F401
            import record_matcher_ray.pipelines.match  # noqa: F401
            return batch

        ray.data.range(1).map_batches(load).materialize()

    # ---- timed -----------------------------------------------------------
    def job(self, progress, tracer) -> Outcome:
        raise NotImplementedError

    # ---- checks ----------------------------------------------------------
    def check(self, out: Outcome) -> tuple[list[str], float]:
        """→ (failed checks, f1)."""
        errors = []
        ids = np.asarray(out.x_ids, np.int64)
        if len(ids) != len(self.truth) or not np.array_equal(
                np.sort(ids), np.arange(len(self.truth))):
            errors.append(f"x rows not emitted exactly once ({len(ids)} rows "
                          f"for {len(self.truth)} inputs)")
            f1 = 0.0
        else:
            f1 = f1_score(ids, np.asarray(out.pred, np.int64), self.truth)
        if f1 < F1_FLOOR:
            errors.append(f"f1 {f1:.5f} below floor {F1_FLOOR}")
        if self.invariants is None:
            self.invariants = out.invariants
        elif out.invariants != self.invariants:
            errors.append(f"invariants changed: {out.invariants} != {self.invariants}")
        return errors, f1

    # ---- traced run ------------------------------------------------------
    def layers(self, tracer, out: Outcome | None) -> tuple[dict[str, float], list[str]]:
        """Kernel-layer numbers from direct timed calls on the workload's
        own inputs; → (metrics, failed checks)."""
        return {}, []

    def stage_metrics(self, durations: list[dict[str, float]],
                      outs: list[Outcome]) -> dict[str, float]:
        """Pipeline-stage numbers from the traced jobs' stage spans."""
        return {}


def _median_of(durations: list[dict[str, float]], *names: str) -> float:
    return float(np.median([sum(d.get(n, 0.0) for n in names) for d in durations]))


# ---------------------------------------------------------------------------
# person-record workload (the reference matcher's own problem)
# ---------------------------------------------------------------------------

PERSON_COLS = ["first", "last", "digits", "grp"]


def person_config(builder):
    builder.match("first", ["first"], scorer="jaro_winkler")
    builder.match("last", ["last"], scorer="jaro_winkler")
    builder.match("digits", ["digits"], scorer="levenshtein")
    builder.group("grp", "grp")
    builder.get("yid", "matched_id")
    return builder


def _pred_from_ids(status, matched) -> np.ndarray:
    """MATCHED rows → int y id parsed from ``Y0000123``; others → -1."""
    return np.array([int(m[1:]) if s == "MATCHED" and m else -1
                     for s, m in zip(status, matched)], np.int64)


class MatchBlocked(Workload):
    """``pipelines.match.match_datasets`` on Ray, narrow blocks."""
    name = "match_blocked"
    stage_prefix = "match"

    def generate(self) -> None:
        n_y, n_groups = self.size["blocked"]
        self.P = person_tables(self.seed, n_y, n_groups)
        self.truth = self.P["truth"]
        x, y = self.P["x"], self.P["y"]
        self.x_records = {int(r): {c: x[c][i] for c in PERSON_COLS}
                          for i, r in enumerate(x["rid"])}
        ny = Counter(y["grp"])
        self.n_pairs = sum(n * ny[g] for g, n in Counter(x["grp"]).items())
        self.xt = pa.table({c: x[c] for c in PERSON_COLS + ["rid"]})
        self.yt = pa.table({c: y[c] for c in PERSON_COLS + ["rid", "yid"]})

    def layers(self, tracer, out):
        """score_block on exactly the workload's blocks, the four scorer
        kernels and score_pairs_flat on the same candidate pairs, and the
        duplicate resolution on the block winners."""
        from record_matcher_ray.core.config import MatchConfigBuilder
        from record_matcher_ray.core.dup import resolve_duplicates
        from record_matcher_ray.core.kernel import score_block, score_pairs_flat
        from record_matcher_ray.core.records import uniqueness_by_column
        from record_matcher_ray.functions import scorers

        x, y = self.P["x"], self.P["y"]
        cfg = person_config(MatchConfigBuilder(
            x_columns=PERSON_COLS, y_columns=PERSON_COLS + ["yid"])).build()
        uniq = {c: uniqueness_by_column(self.x_records, c)
                for c, _ in cfg.columns_to_match}
        ypos = defaultdict(list)
        for i, g in enumerate(y["grp"]):
            ypos[g].append(i)
        xpos = defaultdict(list)
        for i, g in enumerate(x["grp"]):
            xpos[g].append(i)
        blocks = [(np.array(xs), np.array(ypos[g])) for g, xs in xpos.items()
                  if ypos.get(g)]

        def run_blocks():
            winners = []
            for xs, ys in blocks:
                res, _ = score_block({c: x[c][xs] for c in PERSON_COLS},
                                     {c: y[c][ys] for c in PERSON_COLS + ["yid"]},
                                     x["rid"][xs], y["rid"][ys], cfg, uniq)
                winners.append((res["x_id"], res["winner_y_id"], res["winner_score"]))
            return winners

        block_s, winners = _timed(tracer, "kernel.score_block", run_blocks)

        def matrices(scorer, cols):
            def fn():
                for xs, ys in blocks:
                    for c in cols:
                        scorer(x[c][xs], y[c][ys])
            return fn

        jw_m, _ = _timed(tracer, "scorers.jaro_winkler_matrix",
                         matrices(scorers.jaro_winkler_matrix, ["first", "last"]))
        lev_m, _ = _timed(tracer, "scorers.levenshtein_matrix",
                          matrices(scorers.levenshtein_matrix, ["digits"]))

        xi = np.concatenate([np.repeat(a, len(b)) for a, b in blocks])
        yi = np.concatenate([np.tile(b, len(a)) for a, b in blocks])
        jw_e, _ = _timed(tracer, "scorers.jaro_winkler_elementwise", lambda: [
            scorers.jaro_winkler_elementwise(x[c][xi], y[c][yi])
            for c in ("first", "last")])
        lev_e, _ = _timed(tracer, "scorers.levenshtein_elementwise", lambda: (
            scorers.levenshtein_elementwise(x["digits"][xi], y["digits"][yi])))
        flat_s, _ = _timed(tracer, "kernel.score_pairs_flat", lambda: score_pairs_flat(
            {c: x[c] for c in PERSON_COLS}, {c: y[c] for c in PERSON_COLS},
            xi, yi, cfg, uniq))

        by_y = defaultdict(list)
        for xids, wy, ws in winners:
            for a, b, s in zip(xids, wy, ws):
                if b >= 0:
                    by_y[int(b)].append((int(a), float(s)))
        dup_s, _ = _timed(tracer, "dup.resolve_duplicates", lambda: [
            resolve_duplicates(m, 0.0) for m in by_y.values()])
        return {
            "kernel.score_block_s": block_s,
            "kernel.score_block_pairs_per_s": self.n_pairs / block_s,
            "scorers.jw_matrix_pairs_per_s": 2 * self.n_pairs / jw_m,
            "scorers.lev_matrix_pairs_per_s": self.n_pairs / lev_m,
            "scorers.jw_elementwise_pairs_per_s": 2 * self.n_pairs / jw_e,
            "scorers.lev_elementwise_pairs_per_s": self.n_pairs / lev_e,
            "kernel.score_pairs_flat_pairs_per_s": self.n_pairs / flat_s,
            "dup.resolve_duplicates_s": dup_s,
        }, []


    def prepare(self) -> None:
        import ray.data

        from record_matcher_ray.core.config import MatchConfigBuilder

        def blocks(t):
            step = -(-len(t) // (2 * self.ncpu))
            return [t.slice(i, step) for i in range(0, len(t), step)]

        self.x_ds = ray.data.from_arrow(blocks(self.xt)).materialize()
        self.y_ds = ray.data.from_arrow(blocks(self.yt)).materialize()
        self.cfg = person_config(MatchConfigBuilder(
            x_columns=self.xt.column_names, y_columns=self.yt.column_names)).build()

    def job(self, progress, tracer) -> Outcome:
        from record_matcher_ray.pipelines.match import match_datasets

        res = match_datasets(self.x_ds, self.y_ds, self.cfg, "rid", "rid",
                             progress=progress)
        cols = _consume(res.dataset, ["rid", "match_status", "matched_id"])
        if progress is not None:
            progress.close()
        pred = _pred_from_ids(cols["match_status"], cols["matched_id"])
        return Outcome(cols["rid"], pred, dict(res.summary))

    def stage_metrics(self, durations, outs):
        m = {f"match.{s}_s": _median_of(durations, f"match.{s}")
             for s in ("uniqueness", "scored", "duplicate_pass", "summary")}
        m["match.finalize_s"] = _median_of(
            durations, "match.finalize_scheduled", "match.consume")
        m["match.candidate_pairs"] = float(self.n_pairs)
        m["match.pairs_per_s"] = self.n_pairs / max(m["match.scored_s"], 1e-9)
        return m


# ---------------------------------------------------------------------------
# document workload (the flagship docmatch pipeline)
# ---------------------------------------------------------------------------

DOC_STAGES = {  # layer metric -> the stage spans it sums
    "docmatch.flatten_keys_s": ("docmatch.flatten",),
    "docmatch.pair_scoring_s": ("docmatch.uniqueness", "docmatch.pair_scoring"),
    "docmatch.reduce_s": ("docmatch.reduce", "docmatch.flips"),
    "docmatch.finalize_s": ("docmatch.finalize", "docmatch.assignments"),
    "docmatch.cluster_s": ("docmatch.edges", "docmatch.clustering"),
}


class DocmatchFull(Workload):
    """``pipelines.docmatch.match_documents`` on the seeded corpus, called
    with the library's defaults as its callers use it. The traced run adds
    the sharded, checkpointed variant as a probe (see ``layers``)."""
    name = "docmatch_full"
    stage_prefix = "docmatch"
    min_jobs = 6

    def generate(self) -> None:
        from record_matcher_ray.sources.corpus import generate_corpus

        self.corpus = os.path.join(self.workdir, "corpus")
        shutil.rmtree(self.corpus, ignore_errors=True)
        generate_corpus(self.corpus, n_entities=self.size["entities"],
                        seed=self.seed)
        t = pq.read_table(os.path.join(self.corpus, "truth.parquet"))
        rid = pc.cast(pc.utf8_slice_codeunits(t["doc_id"], 1, 99), pa.int64())
        self.truth = np.full(len(t), -1, np.int64)
        self.truth[rid.to_numpy()] = t["entity_id"].to_numpy()

    def _read(self):
        from record_matcher_ray.sources.readers import read_table

        return (read_table(os.path.join(self.corpus, "corpus.parquet")),
                read_table(os.path.join(self.corpus, "registry.parquet")))

    @staticmethod
    def _consume_result(res) -> tuple[dict, int]:
        a = _consume(res.assignments, ["x_id", "winner_y_id"])
        n_nodes = sum(len(b) for b in res.clusters.iter_batches(batch_format="pyarrow"))
        return a, n_nodes

    def job(self, progress, tracer) -> Outcome:
        from record_matcher_ray.pipelines.docmatch import match_documents

        x, y = self._read()
        res = match_documents(x, y, progress=progress)
        a, n_nodes = self._consume_result(res)
        if progress is not None:
            progress.close()
        c = dict(res.counters)
        inv = {k: c.get(k) for k in ("pairs_scored", "blocks_dropped",
                                     "matches_accepted", "x_without_candidates")}
        inv["cluster_nodes"] = n_nodes
        return Outcome(a["x_id"], a["winner_y_id"], inv, c)

    def stage_metrics(self, durations, outs):
        m = {k: _median_of(durations, *names) for k, names in DOC_STAGES.items()}
        c = outs[-1].info
        for k in ("pairs_scored", "blocks_dropped", "matches_accepted",
                  "x_without_candidates"):
            m[f"docmatch.{k}"] = float(c.get(k, 0))
        m["docmatch.accept_ratio"] = (c.get("matches_accepted", 0)
                                      / max(1, c.get("pairs_scored", 0)))
        return m

    def layers(self, tracer, out):
        m, errors = self._kernel_layers(tracer, out)
        ck, ck_errors = self._checkpoint_layers(tracer)
        m.update(ck)
        return m, errors + ck_errors

    def _kernel_layers(self, tracer, out):
        """flatten, key expansion, minhash signatures, score_pairs_flat and
        the two elementwise scorers on a sample of the corpus against the
        whole registry; star clustering on the job's accepted links."""
        from record_matcher_ray.core.hashkernels import (
            batch_signatures, normalize_utf8, utf8_view, window_hashes)
        from record_matcher_ray.core.kernel import score_pairs_flat
        from record_matcher_ray.functions import scorers
        from record_matcher_ray.pipelines.cluster import connected_components_star
        from record_matcher_ray.pipelines.docmatch import default_doc_config
        from record_matcher_ray.stages.blocking import MinHasher, batch_doc_keys
        from record_matcher_ray.stages.flatten import flatten_spans

        xt = pq.read_table(os.path.join(self.corpus, "corpus.parquet")).slice(
            0, self.size["doc_sample"])
        yt = pq.read_table(os.path.join(self.corpus, "registry.parquet"))
        n_docs = len(xt) + len(yt)
        flat_s, (xf, yf) = _timed(tracer, "flatten.flatten_spans",
                                  lambda: (flatten_spans(xt), flatten_spans(yt)))
        hasher = MinHasher(num_perm=64, seed=1)

        def keys():
            return [batch_doc_keys(f["title"], f["body"], f["media_sig"], hasher)
                    for f in (xf, yf)]

        keys_s, ((kx, rx), (ky, ry)) = _timed(tracer, "blocking.batch_doc_keys", keys)

        fb, sb, lb = utf8_view(normalize_utf8(xf["body"]))
        wh, lens = window_hashes(fb, sb, lb, 4, 1)
        sh = (wh >> np.uint64(3)).astype(np.int64)
        sig_s, _ = _timed(tracer, "hashkernels.batch_signatures",
                          lambda: batch_signatures(sh, lens, hasher.a, hasher.b))

        # candidate pairs: (x, y) sharing a key whose y side is at most the
        # pipeline's default block width
        order = np.argsort(ky, kind="stable")
        ks, rs = ky[order], ry[order]
        lo, hi = np.searchsorted(ks, kx, "left"), np.searchsorted(ks, kx, "right")
        ok = (hi > lo) & (hi - lo <= 32)
        width = (hi - lo)[ok]
        xi = np.repeat(rx[ok], width)
        yi = rs[np.concatenate([np.arange(a, b) for a, b in zip(lo[ok], hi[ok])])
                if len(width) else np.empty(0, np.int64)]
        pair = np.unique(xi * (len(yt) + 1) + yi)
        xi, yi = pair // (len(yt) + 1), pair % (len(yt) + 1)
        n_pairs = max(1, len(xi))

        cfg = default_doc_config()
        cols = [c for c, _ in cfg.columns_to_match]

        def strings(f):
            return {c: np.asarray(pc.fill_null(pc.cast(f[c], pa.string()), "")
                                  .to_numpy(zero_copy_only=False), dtype=object)
                    for c in cols}

        xc, yc = strings(xf), strings(yf)
        uniq = {c: len(set(xc[c][xc[c] != ""])) / len(xc[c]) for c in cols}
        pf_s, _ = _timed(tracer, "kernel.score_pairs_flat",
                         lambda: score_pairs_flat(xc, yc, xi, yi, cfg, uniq))
        jw_s, _ = _timed(tracer, "scorers.jaro_winkler_elementwise", lambda: (
            scorers.jaro_winkler_elementwise(xc["title"][xi], yc["title"][yi])))
        lev_s, _ = _timed(tracer, "scorers.levenshtein_elementwise", lambda: (
            scorers.levenshtein_elementwise(xc["digits"][xi], yc["digits"][yi])))

        m = {
            "flatten.flatten_spans_rows_per_s": n_docs / flat_s,
            "blocking.batch_doc_keys_docs_per_s": n_docs / keys_s,
            "blocking.keys_per_doc": (len(kx) + len(ky)) / n_docs,
            "hashkernels.batch_signatures_mb_per_s": sh.nbytes / 1e6 / sig_s,
            "kernel.score_pairs_flat_pairs_per_s": n_pairs / pf_s,
            "scorers.jw_elementwise_pairs_per_s": n_pairs / jw_s,
            "scorers.lev_elementwise_pairs_per_s": n_pairs / lev_s,
        }
        if out is not None:
            linked = out.pred >= 0
            u, v = 2 * out.x_ids[linked], 2 * out.pred[linked] + 1
            star_s, _ = _timed(tracer, "cluster.connected_components_star",
                               lambda: connected_components_star(u, v))
            m["cluster.star_edges_per_s"] = max(1, len(u)) / star_s
        return m, []

    def _checkpoint_layers(self, tracer):
        """``build_doc_index`` into a fresh root, then
        ``match_documents_checkpointed(n_shards=4)`` into another fresh root
        and a resume call on it, which must skip every shard partition,
        recompute nothing and return the same assignments. Its own
        ``matches_accepted`` is reported next to the unsharded one: the
        per-shard x-width cap makes them differ (NOTES.md)."""
        from record_matcher_ray.pipelines.docmatch import (
            build_doc_index, match_documents_checkpointed)

        m, errors = {}, []
        index = os.path.join(self.workdir, "index")
        shutil.rmtree(index, ignore_errors=True)
        t = time.perf_counter()
        with tracer.span("checkpoint.build_doc_index"):
            build_doc_index(self._read()[1], index)
        m["checkpoint.index_build_s"] = time.perf_counter() - t
        shutil.rmtree(index, ignore_errors=True)

        root = os.path.join(self.workdir, "ckpt")
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.span("checkpoint.fresh"):
            res = match_documents_checkpointed(*self._read(), root, n_shards=N_SHARDS)
            a, _ = self._consume_result(res)
        t1 = time.perf_counter()
        with tracer.span("checkpoint.resume"):
            again = match_documents_checkpointed(*self._read(), root,
                                                 n_shards=N_SHARDS)
            b, _ = self._consume_result(again)
        t2 = time.perf_counter()
        m["checkpoint.fresh_s"] = t1 - t0
        m["checkpoint.resume_s"] = t2 - t1
        m["checkpoint.bytes_written"] = float(sum(
            os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root)
            for f in fs))
        skipped = sum(p.startswith("assignments/") for p in again.runner.skipped)
        m["checkpoint.partitions_skipped"] = float(skipped)
        m["checkpoint.matches_accepted"] = float(res.counters["matches_accepted"])
        shutil.rmtree(root, ignore_errors=True)

        ids = np.asarray(a["x_id"], np.int64)
        if not np.array_equal(np.sort(ids), np.arange(len(self.truth))):
            errors.append(f"sharded run: x rows not emitted exactly once "
                          f"({len(ids)} rows for {len(self.truth)} inputs)")
        else:
            f1 = f1_score(ids, np.asarray(a["winner_y_id"], np.int64), self.truth)
            if f1 < F1_FLOOR:
                errors.append(f"sharded run: f1 {f1:.5f} below floor {F1_FLOOR}")

        def by_x(t):
            o = np.argsort(t["x_id"])
            return t["x_id"][o], t["winner_y_id"][o]

        if not all(np.array_equal(p, q) for p, q in zip(by_x(a), by_x(b))):
            errors.append("resumed assignments differ from the fresh run")
        if again.runner.computed or skipped != N_SHARDS:
            errors.append(f"resume skipped {skipped} of {N_SHARDS} shard "
                          f"partitions and recomputed {again.runner.computed}")
        return m, errors


WORKLOADS = {w.name: w for w in (MatchBlocked, DocmatchFull)}
