"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads table,queries --seeds 1-10

Runs the benchmark once per seed and workload, each in a fresh process,
and prints for every end-to-end metric its median, its quartile spread
(Q3 - Q1 of ``statistics.quantiles(values, n=4)``) as a share of the
median, and that share against the metric's bound in BENCHMARK.json.
The raw results go to ``perfbench/out/spread-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    names = args.workloads.split(",")
    results = {}
    for workload in names:
        runs = results[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
    print()
    summary = {}
    for workload in names:
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            summary.setdefault(workload, {})[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": share}
            print(f"{workload:10} {metric['name']:16} median {median:12.5g} {metric['unit']:4} "
                  f"spread {share:6.3f} bound {metric['bound']:.2f} "
                  f"({share / metric['bound']:.2f} of it)")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{'-'.join(names)}.json").write_text(json.dumps({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": SPEC["run_seconds"], "seeds": args.seeds,
        "summary": summary, "runs": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
