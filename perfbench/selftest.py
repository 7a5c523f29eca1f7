"""Self-tests of the benchmark itself (not of heckechar).

    python3 perfbench/selftest.py

Covers deterministic input generation, the self-time arithmetic of the
tracer, the speed gauge's scaling, that tracing changes no value and is fully undone, that cold
means cold, and that the output carries every metric of BENCHMARK.json
with its unit.  The last two start the benchmark as a child process and
take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gauge as gg
import run
import tracer as tr
import workloads as wl

HK = run.import_package()
SPEC = run.load_spec()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class GenerationTest(unittest.TestCase):
    def test_query_blocks_are_deterministic_per_seed(self):
        self.assertEqual(wl.query_block(7, 0), wl.query_block(7, 0))
        self.assertEqual(wl.query_block(7, 3), wl.query_block(7, 3))
        self.assertNotEqual(wl.query_block(7, 0), wl.query_block(8, 0))
        self.assertNotEqual(wl.query_block(7, 0), wl.query_block(7, 1))

    def test_query_block_has_fixed_cell_counts(self):
        block = wl.query_block(3, 0)
        cells = {}
        for q in block:
            key = (q.route, sum(q.lam))
            cells[key] = cells.get(key, 0) + 1
            self.assertEqual(sum(q.lam), sum(q.mu))
        for route, degrees in wl.QUERY_DEGREES.items():
            for n in degrees:
                self.assertEqual(cells[(route, n)], wl.QUERIES_PER_CELL)
        for n in wl.BITRACE_DEGREES:
            self.assertEqual(cells[("bitrace", n)], wl.BITRACES_PER_DEGREE)

    def test_partitions_match_the_package_without_touching_it(self):
        wl.clear_all(HK)
        for n in range(0, 15):
            self.assertEqual(wl.partitions_of(n), HK.partitions.partitions_of(n))
        wl.clear_all(HK)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        t = tr.Tracer(clock)
        a = t.enter("a")
        clock.now = 1.0
        b = t.enter("b")
        clock.now = 3.0
        t.leave(b)
        clock.now = 4.0
        c = t.enter("c")
        clock.now = 4.5
        d = t.enter("b")
        clock.now = 5.0
        t.leave(d)
        clock.now = 6.0
        t.leave(c)
        clock.now = 10.0
        t.leave(a)
        self.assertEqual(t.spans["a"], [1, 10.0, 6.0])   # 10 - (2 + 2)
        self.assertEqual(t.spans["b"], [2, 2.5, 2.5])
        self.assertEqual(t.spans["c"], [1, 2.0, 1.5])    # 2 - 0.5
        self.assertEqual(t.edges[("a", "b")], [1, 2.0])
        self.assertEqual(t.edges[("c", "b")], [1, 0.5])
        self.assertEqual(t.edges[("", "a")], [1, 10.0])

    def test_wrapped_calls_and_generators(self):
        clock = FakeClock()
        t = tr.Tracer(clock)

        def inner():
            clock.now += 2.0
            return 1

        def gen():
            clock.now += 1.0
            yield "x"
            clock.now += 1.0
            yield "y"

        inner_w = t.wrap(inner, "inner")
        gen_w = t.wrap_generator(gen, "gen", "gen.items")

        def outer():
            clock.now += 1.0
            for _ in gen_w():
                clock.now += 5.0     # consumer work: charged to outer
            return inner_w() + inner_w()

        self.assertEqual(t.wrap(outer, "outer")(), 2)
        self.assertEqual(t.spans["outer"], [1, 17.0, 11.0])
        self.assertEqual(t.spans["inner"], [2, 4.0, 4.0])
        self.assertEqual(t.spans["gen"], [3, 2.0, 2.0])  # three resumptions
        self.assertEqual(t.counters["gen.items"], 2)


class GaugeTest(unittest.TestCase):
    def test_scale_reads_at_the_reference_speed(self):
        ref = gg.REFERENCE_SECONDS
        self.assertAlmostEqual(gg.Gauge.scale(3.0, ref), 3.0)
        self.assertAlmostEqual(gg.Gauge.scale(3.0, 2 * ref), 1.5)
        self.assertAlmostEqual(gg.Gauge.scale(3.0, ref, 3 * ref), 1.5)

    def test_timer_reads_around_long_operations_only(self):
        clock = FakeClock()
        gauge = gg.Gauge(clock)
        ref = gg.REFERENCE_SECONDS

        def kernel():       # the machine runs at half the reference speed
            clock.now += 2 * ref

        gauge.kernel = kernel
        timed = run.make_timer(gauge=gauge, clock=clock)

        def short():
            clock.now += 0.01

        def long():
            clock.now += 2 * gg.SEGMENT_SECONDS

        for _ in range(3):
            self.assertAlmostEqual(timed(short).seconds, 0.005)
        self.assertEqual(len(gauge.readings), 1)      # one reading per segment
        self.assertAlmostEqual(timed(long).seconds, gg.SEGMENT_SECONDS)
        self.assertEqual(len(gauge.readings), 2)      # and one after a long operation

    def test_kernel_touches_no_package_state(self):
        wl.clear_all(HK)
        gg.Gauge().read()
        self.assertEqual(set(tr.memo_sizes(HK).values()), {0})


class TracingTest(unittest.TestCase):
    def test_tracing_changes_no_value_and_is_undone(self):
        ch, lp = HK.characters, HK.laurent
        cases = [((4, 2), (3, 2, 1), alg) for alg in
                 ("auto", "mn", "strips", "det", "iterative", "oracle", "gen_sn", "gen_newton")]
        wl.clear_all(HK)
        plain = [ch.character(*c) for c in cases] + [HK.applications.bitrace((2, 1), (3,))]
        before = (lp.LaurentPoly.__mul__, lp.RationalFn.__init__,
                  ch.strip_removals, dict(ch.ALGORITHMS), HK.partitions.subpartitions_of_weight)
        wl.clear_all(HK)
        t = tr.Tracer()
        tr.install(t, HK)
        try:
            traced = [ch.character(*c) for c in cases] + [HK.applications.bitrace((2, 1), (3,))]
        finally:
            t.uninstall()
        after = (lp.LaurentPoly.__mul__, lp.RationalFn.__init__,
                 ch.strip_removals, dict(ch.ALGORITHMS), HK.partitions.subpartitions_of_weight)
        self.assertEqual(plain, traced)
        self.assertEqual(before, after)
        self.assertFalse(t.absent)
        for span in ("laurent.mul", "laurent.rational.canon", "laurent.poly_gcd",
                     "partitions.strip_removals", "partitions.contingency",
                     "schur.pairing.det", "schur.pairing.oracle", "characters.mn",
                     "characters.reduction", "applications.gram_pairing"):
            self.assertGreater(t.spans[span][0], 0, span)
        wl.clear_all(HK)

    def test_cold_means_cold(self):
        HK.applications.bitrace((3, 2), (2, 2, 1))
        HK.characters.character((3, 2), (2, 2, 1), "oracle")
        wl.clear_all(HK)
        self.assertEqual(set(tr.memo_sizes(HK).values()), {0})

    def test_counts_repeat_exactly(self):
        workload = wl.QueriesWorkload(HK, 5)
        workload.blocks[0] = workload.blocks[0][:40]
        counts = []
        for _ in range(2):
            t, probe = tr.Tracer(), tr.CacheProbe(HK)
            tr.install(t, HK)
            try:
                workload.run_round(0, run.make_timer(t, probe))
            finally:
                t.uninstall()
            snap = tr.snapshot(t, probe, workload.layer_extras())
            counts.append(({k: v[0] for k, v in snap["spans"].items()},
                           snap["counters"], snap["hits"], snap["lookups"]))
        self.assertEqual(counts[0], counts[1])
        workload.finish()
        self.assertEqual(workload.failures, [])


class OutputTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(tr.LAYER_METRICS))
        rounds = [wl.Round(10, [0.1, 0.2], 0.3), wl.Round(10, [0.1, 0.3], 0.4)]
        metrics, _ = run.end_to_end(rounds, 0.5, 20.0)
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(wl.WORKLOADS))

    def test_run_prints_every_metric_with_its_unit(self):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", "queries",
                 "--seed", "2", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["metrics"],
                             {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                          "unit": m["unit"]} for m in listed})
            for line in (f"{m['name']} = " for m in listed):
                self.assertIn(line, out.stdout)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
