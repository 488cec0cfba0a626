"""Layered record-linkage benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload docmatch_full --seed 1 --seconds 20 --trace 0

Makes every input from ``--seed``, sets up three times (inputs, Ray session,
worker warm-up; the last session is kept), repeats the workload's timed job
until ``--seconds`` of job time have been measured, checks every output, and prints two JSON lines: a report
(host record, samples, failures) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, and the spans are written under ``.perfbench_out/``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "f1": "ratio"}
PER_LAYER = {
    "scorers.jw_matrix_pairs_per_s": "pairs/s",
    "scorers.lev_matrix_pairs_per_s": "pairs/s",
    "scorers.jw_elementwise_pairs_per_s": "pairs/s",
    "scorers.lev_elementwise_pairs_per_s": "pairs/s",
    "kernel.score_block_s": "s",
    "kernel.score_block_pairs_per_s": "pairs/s",
    "kernel.score_pairs_flat_pairs_per_s": "pairs/s",
    "hashkernels.batch_signatures_mb_per_s": "MB/s",
    "blocking.batch_doc_keys_docs_per_s": "docs/s",
    "blocking.keys_per_doc": "keys/doc",
    "flatten.flatten_spans_rows_per_s": "rows/s",
    "dup.resolve_duplicates_s": "s",
    "match.uniqueness_s": "s",
    "match.scored_s": "s",
    "match.duplicate_pass_s": "s",
    "match.summary_s": "s",
    "match.finalize_s": "s",
    "match.candidate_pairs": "count",
    "match.pairs_per_s": "pairs/s",
    "docmatch.flatten_keys_s": "s",
    "docmatch.pair_scoring_s": "s",
    "docmatch.reduce_s": "s",
    "docmatch.finalize_s": "s",
    "docmatch.cluster_s": "s",
    "docmatch.pairs_scored": "count",
    "docmatch.blocks_dropped": "count",
    "docmatch.matches_accepted": "count",
    "docmatch.x_without_candidates": "count",
    "docmatch.accept_ratio": "ratio",
    "cluster.star_edges_per_s": "edges/s",
    "checkpoint.index_build_s": "s",
    "checkpoint.fresh_s": "s",
    "checkpoint.resume_s": "s",
    "checkpoint.bytes_written": "B",
    "checkpoint.partitions_skipped": "count",
    "checkpoint.matches_accepted": "count",
    "host.cpu_util": "ratio",
    "trace.overhead_s": "s",
}

SETUP_REPS = 3  # the set-up is repeated; setup_s takes the median
MAX_REPS = 60
TRACED_MIN_JOBS = 3  # per mode in a traced run
LAST_START_S = 100  # start no new job after this much time in the process
DEADLINE_S = 150  # a job still running at this point is cut off
OBJECT_STORE_BYTES = 512 * 2**20


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout("timed out")


class Ops:
    """Failure accounting. Every guarded operation counts as attempted; an
    exception, a timeout or a failed output check counts it as failed, and
    the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, what: str, fn, timeout: float):
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, max(1.0, timeout))
        try:
            return True, fn()
        except Exception as e:  # the run must go on and report
            traceback.print_exc(file=sys.stderr)
            self.fail(what, f"{type(e).__name__}: {e}")
            return False, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {why}"[:400])


def start_ray(ncpu: int, workdir: str) -> None:
    """Start a private local Ray session whose files stay in ``workdir``."""
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=os.path.join(workdir, "ray"))
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_processes(pids: list[int], timeout: float = 20.0) -> list[int]:
    """Wait until every pid in ``pids`` has ended (reaping our own
    children); SIGKILL what is left at ``timeout``. → pids killed."""
    def alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    def reap():
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass

    end = time.monotonic() + timeout
    left = [p for p in pids if p != os.getpid()]
    while left and time.monotonic() < end:
        reap()
        left = [p for p in left if alive(p)]
        time.sleep(0.05)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while [p for p in left if alive(p)] and time.monotonic() < end + 5:
        reap()
        time.sleep(0.05)
    return left


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "record_matcher_ray", "__init__.py")):
        print("perfbench: run from the repository root; record_matcher_ray/ "
              "is not in the working directory", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    # Ray workers import the package by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)

    from host import cpu_count, cpu_seconds, host_record, peak_rss_mb, process_tree
    from spans import StageClock, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    ncpu = cpu_count()
    workdir = os.path.join(root, ".pbw")
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer(bool(args.trace))
    off = Tracer(False)
    ops = Ops()
    wl = WORKLOADS[args.workload](args.scale, args.seed,
                                  os.path.join(workdir, "in"), ncpu)
    host = host_record()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - t_start)

    # ---- set-up ------------------------------------------------------------
    # The whole set-up (inputs, Ray session, worker warm-up) is done SETUP_REPS
    # times, tearing the session down in between; setup_s is the median.
    setup = {"generate_s": [], "ray_start_s": [], "warm_s": [], "total_s": []}

    def stop_ray() -> list[int]:
        import ray

        pids = process_tree()
        ray.shutdown()
        return stop_processes(pids)

    def do_setup():
        for rep in range(wl.size.get("setup_reps", SETUP_REPS)):
            if rep:
                stop_ray()
            tracer.run_id = f"setup{rep}"
            with tracer.span("setup"):
                t0 = time.perf_counter()
                with tracer.span("setup.generate"):
                    wl.generate()
                t1 = time.perf_counter()
                with tracer.span("setup.ray_start"):
                    start_ray(ncpu, workdir)
                t2 = time.perf_counter()
                with tracer.span("setup.warm"):
                    wl.prepare()
                    wl.warm()
                t3 = time.perf_counter()
            for k, v in (("generate_s", t1 - t0), ("ray_start_s", t2 - t1),
                         ("warm_s", t3 - t2), ("total_s", t3 - t0)):
                setup[k].append(v)

    ops.run("setup", do_setup, remaining())
    setup_s = statistics.median(setup["total_s"] or [0.0])

    # ---- timed jobs ----------------------------------------------------------
    modes = [False, True] if args.trace else [False]
    # a traced run leaves time for its layer probes
    need = min(TRACED_MIN_JOBS, wl.min_jobs) if args.trace else wl.min_jobs
    walls: dict[bool, list[tuple[float, bool]]] = {False: [], True: []}
    traced_durs, traced_outs, f1s = [], [], []
    cpu_traced = wall_traced = 0.0
    last_out = None
    i = 0
    while i < MAX_REPS:
        traced = modes[i % len(modes)]
        n_each = min(len(walls[m]) for m in modes)
        measured = sum(w for m in modes for w, _ in walls[m])
        elapsed = time.perf_counter() - t_start
        if n_each >= need and measured >= args.seconds:
            break
        if elapsed > LAST_START_S and n_each >= 1:
            break
        run_id = f"rep{i}"
        tracer.run_id = run_id
        tr = tracer if traced else off

        def job():
            with tr.span(f"{wl.name}.job"):
                clock = None
                if traced and wl.stage_prefix:
                    clock = StageClock(tr, wl.stage_prefix)
                return wl.job(clock, tr)

        pids = process_tree()
        c0, t0 = cpu_seconds(pids), time.perf_counter()
        ok, out = ops.run(run_id, job, remaining())
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(process_tree()) - c0
        walls[traced].append((wall, ok))
        if ok:
            errors, f1 = wl.check(out)
            f1s.append(f1)
            if errors:
                ops.fail(f"{run_id} check", "; ".join(errors))
            last_out = out
            if traced:
                traced_durs.append(tracer.durations(run_id))
                traced_outs.append(out)
                cpu_traced += cpu
                wall_traced += wall
        i += 1

    peak_mb = peak_rss_mb(process_tree())

    layer: dict[str, float] = {}
    if args.trace:
        tracer.run_id = "probes"
        ok, probe = ops.run("layer probes", lambda: wl.layers(tracer, last_out),
                            remaining())
        if ok:
            probe_metrics, probe_errors = probe
            layer.update(probe_metrics)
            if probe_errors:
                ops.fail("layer probes check", "; ".join(probe_errors))
        if traced_outs:
            layer.update(wl.stage_metrics(traced_durs, traced_outs))

    # ---- tear-down -----------------------------------------------------------
    killed = stop_ray()
    shutil.rmtree(workdir, ignore_errors=True)

    # ---- report --------------------------------------------------------------
    def ok_walls(mode):
        good = [w for w, ok in walls[mode] if ok]
        return good or [w for w, _ in walls[mode]]

    plain = ok_walls(False)
    q1, wall_med, q3 = _quartiles(plain)
    end_to_end = {"wall_s": wall_med, "setup_s": setup_s, "peak_rss_mb": peak_mb,
                  "f1": statistics.median(f1s) if f1s else 0.0}
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "host": host,
        "wall_s": {"median": wall_med, "q1": q1, "q3": q3, "n": len(plain),
                   "samples_in_order": [round(w, 4) for w, _ in walls[False]]},
        "setup": setup,
        "end_to_end": end_to_end,
        "errors": ops.errors,
        "processes_killed_at_exit": killed,
    }
    if args.trace:
        traced = ok_walls(True)
        layer["trace.overhead_s"] = (statistics.median(traced) - wall_med
                                     if traced else 0.0)
        layer["host.cpu_util"] = cpu_traced / wall_traced if wall_traced else 0.0
        outdir = os.path.join(root, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "host": host})
        report["trace_file"] = os.path.relpath(path, root)
        report["traced_wall_s"] = [round(w, 4) for w, _ in walls[True]]
        report["layers"] = layer
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(end_to_end[k]), "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"perfbench_report": report}, default=str))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
