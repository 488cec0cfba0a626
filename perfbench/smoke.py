"""The benchmark's own smoke test.

Runs every workload at the tiny scale, untraced and traced, and checks
that each run is correct, prints every metric BENCHMARK.json names with
its unit, and that the traced run wrote spans for each layer the workload
exercises.
Finally checks that the benchmark refuses to run, with a non-zero exit
and no result, where the library is missing. Run from the repository
root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# span-name prefixes each workload's traced run must contain
LAYERS = {
    "match_blocked": ["match_blocked.job", "match.", "kernel.", "scorers.", "dup."],
    "docmatch_full": ["docmatch_full.job", "docmatch.", "flatten.", "blocking.",
                      "hashkernels.", "kernel.", "scorers.", "cluster.",
                      "checkpoint."],
}


def _run(root: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=180)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    missing = {w["name"] for w in bench["workloads"]} - set(LAYERS)
    if missing:
        problems.append(f"BENCHMARK.json workloads the smoke test skips: {missing}")
    for wl in LAYERS:
        for trace in (0, 1):
            t = time.perf_counter()
            proc = _run(root, ["--workload", wl, "--seed", "7", "--seconds", "1",
                               "--trace", str(trace), "--scale", "tiny"])
            tag = f"{wl} trace={trace}"
            print(f"{tag}: exit {proc.returncode} in {time.perf_counter() - t:.1f} s",
                  flush=True)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: not correct: {lines[-2][:2000]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                diff = sorted(set(got.items()) ^ set(wanted[trace].items()))
                problems.append(f"{tag}: metric names/units differ from "
                                f"BENCHMARK.json: {diff}")
            if trace:
                report = json.loads(lines[-2])["perfbench_report"]
                with open(os.path.join(root, report["trace_file"])) as f:
                    names = {s["name"] for s in json.load(f)["spans"]}
                for prefix in LAYERS[wl]:
                    if not any(n.startswith(prefix) for n in names):
                        problems.append(f"{tag}: no span for layer {prefix!r}")

    # without the library next to it the benchmark must fail, printing nothing
    bare = os.path.join(root, ".pbw_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(root, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, ["--workload", "match_blocked", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
        print(f"bare directory: exit {proc.returncode}", flush=True)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and no output")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
