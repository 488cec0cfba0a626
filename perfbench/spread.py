"""Run one workload with several seeds and print each end-to-end metric's
median and quartile spread (q3 - q1) / median, the steadiness measure the
bounds in BENCHMARK.json are held to.

    python3 perfbench/spread.py --workload docmatch_full --runs 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        report = json.loads(lines[-2])["perfbench_report"]
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: {time.perf_counter() - t:.1f} s, correct={res['correct']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
              + f" alu={report['host']['alu_mops_per_s']}"
              + f" samples={report['wall_s']['samples_in_order']}",
              flush=True)
    for k, vs in values.items():
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{k}: median {med:.5g}  spread {(q[2] - q[0]) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
