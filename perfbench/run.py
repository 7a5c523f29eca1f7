"""Benchmark of heckechar: exact Hecke-algebra character values.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one fresh, single-threaded process (``all`` starts
one child process per workload).  The package is imported from ``src/``
next to this directory, never from an installed copy.  Every metric is
printed by name and unit; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, all
measured untraced, with every timing scaled to a reference machine speed
read by ``gauge.py`` beside each operation; ``--trace 1`` reports its
per-layer metrics from a traced run and writes the aggregated spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gauge import REFERENCE_SECONDS, SEGMENT_SECONDS, Gauge
from tracer import ROOT_SPAN, CacheProbe, Tracer, install, layer_metrics, snapshot
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 15
# tail percentiles, highest first; the one used is the highest that
# leaves at least ten samples of one round beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def import_package():
    package = SRC / "heckechar"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: heckechar sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import heckechar
    if Path(heckechar.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported heckechar from {heckechar.__file__}, "
                         f"not from {package}")
    return heckechar


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def make_timer(tracer=None, probe=None, gauge=None, clock=time.perf_counter):
    """Time one operation; with a tracer it becomes the root span.  With a
    gauge the seconds are scaled to the reference machine speed, from the
    kernel read just before the operation and, if it is long, just after."""

    def timed(fn, *args):
        if probe is not None:
            probe.before()
        before = gauge.fresh() if gauge is not None else None
        frame = tracer.enter(ROOT_SPAN) if tracer is not None else None
        start = clock()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # the run goes on; the value counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = clock() - start
        if frame is not None:
            tracer.leave(frame)
        if probe is not None:
            probe.after()
        if gauge is not None:
            after = gauge.read() if seconds >= SEGMENT_SECONDS else None
            seconds = gauge.scale(seconds, before, after)
        return Outcome(value, seconds, error)

    return timed


def _budget_spent(start, rounds, seconds):
    # stop when one more round of the average length would overrun
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds > seconds


def measure(workload, seconds, gauge):
    """Timed rounds after the warm-up round 0, until the budget is spent."""
    timed = make_timer(gauge=gauge)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(len(rounds) + 1, timed))
        if _budget_spent(start, len(rounds), seconds):
            return rounds


def measure_traced(workload, hk, seconds):
    """Alternate an untraced and a traced run of each round, so that the
    tracing overhead is taken on identical inputs."""
    plain = make_timer()
    untraced, traced, snapshots = [], [], []
    start = time.perf_counter()
    while True:
        index = len(traced)
        untraced.append(workload.run_round(index, plain))
        tracer, probe = Tracer(), CacheProbe(hk)
        install(tracer, hk)
        try:
            traced.append(workload.run_round(index, make_timer(tracer, probe)))
        finally:
            tracer.uninstall()
        snapshots.append(snapshot(tracer, probe, workload.layer_extras()))
        if _budget_spent(start, len(traced), seconds):
            break
    base = sum(r.seconds for r in untraced)
    overhead = sum(r.seconds for r in traced) / base - 1 if base else 0.0
    return snapshots, overhead


def setup_seconds(workload, seed, gauge):
    """Median time from starting a fresh process to its first timed
    operation: interpreter start, import and input generation.  Each
    probe is scaled by the kernel readings on either side of it."""
    samples = []
    before = gauge.read()
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.split()[-1]) - start
        after = gauge.read()
        samples.append(gauge.scale(seconds, before, after))
        before = after
    return statistics.median(samples)


def nearest_rank(ordered, percentile):
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(rounds, setup_s, peak_rss_mb):
    latencies = sorted(x for r in rounds for x in r.latencies)
    per_round = max(len(r.latencies) for r in rounds)
    percentile = next((p for p in TAIL_PERCENTILES if per_round * (1 - p / 100) >= 10), 100.0)
    rates = [r.values / r.seconds for r in rounds if r.values]
    metrics = {
        "setup_s": setup_s,
        "values_per_s": statistics.median(rates) if rates else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ms": 1e3 * nearest_rank(latencies, percentile) if latencies else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"latency_tail_ms": f"p{percentile:g} of {len(latencies)} operations "
                                f"({per_round} per round, {len(rounds)} rounds)"}
    return metrics, notes


def run_workload(args):
    hk = import_package()
    workload = WORKLOADS[args.workload](hk, args.seed)
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    spec = load_spec()
    if args.trace:
        listed = spec["per_layer"]
        snapshots, overhead = measure_traced(workload, hk, args.seconds)
        values = layer_metrics(snapshots, overhead)
        notes, machine = {}, None
        write_trace(args, snapshots, overhead)
    else:
        listed = spec["end_to_end"]
        # warm-up round, untimed; the peak memory is read before the
        # gauge's own data exist
        workload.run_round(0, make_timer())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gauge = Gauge()
        setup_s = setup_seconds(args.workload, args.seed, gauge)
        rounds = measure(workload, args.seconds, gauge)
        values, notes = end_to_end(rounds, setup_s, peak_rss_mb)
        machine = (f"  machine: reference kernel median "
                   f"{1e3 * statistics.median(gauge.readings):.2f} ms over "
                   f"{len(gauge.readings)} readings; timings are scaled to "
                   f"{1e3 * REFERENCE_SECONDS:g} ms")
    workload.finish()

    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {workload.why}")
    if machine:
        print(machine)
    for line in workload.failures:
        print(f"FAILED {line}")
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            print(f"  {name}: absent (the program no longer exposes its source)")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name} = {values[name]!r} {unit}{note}")
    attempted = max(workload.attempted, 1)
    print(f"  failed_frac = {workload.failed / attempted!r} "
          f"({workload.failed} of {workload.attempted} values)")
    print(json.dumps({"correct": workload.failed == 0, "attempted": attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


def write_trace(args, snapshots, overhead):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "overhead_frac": overhead, "rounds": snapshots},
                               indent=1) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def run_all(args):
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
