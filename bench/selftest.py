"""Tests of the benchmark itself: gates, tracer, counters, failure modes.

Run from the root of the repository (about a minute, most of it two
traced verify-all children):

    PYTHONPATH=src python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import contention  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class GateTest(unittest.TestCase):
    def test_wrong_answer_counts_as_failed(self):
        # a gate that expects the rescaled psi to be an isomorphism
        gate = workloads.Gate()
        workloads.psi_tower_run({"instances": [(2, 4, 2, True)]}, gate, {})
        self.assertEqual((gate.attempted, gate.failed), (1, 1))
        gate = workloads.Gate()
        workloads.psi_tower_run({"instances": [(2, 4, 2, False)]}, gate, {})
        self.assertEqual((gate.attempted, gate.failed), (1, 0))

    def test_raising_operation_counts_as_failed(self):
        gate = workloads.Gate()
        gate.check("boom", lambda: 1 // 0, 0)
        self.assertEqual(gate.failed, 1)
        self.assertIn("ZeroDivisionError", gate.failures[0])

    def test_verify_all_gate_reads_every_check_and_the_digest(self):
        os.makedirs(run.WORKDIR, exist_ok=True)
        inp = workloads.verify_all_inputs(1, str(run.WORKDIR))
        report = {"checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "fail"}]}

        def fake_main(argv):
            with open(argv[argv.index("--output") + 1], "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            return 1

        real_main = workloads.cli.main
        workloads.cli.main = fake_main
        try:
            gate = workloads.Gate()
            workloads.verify_all_run(inp, gate, {})
        finally:
            workloads.cli.main = real_main
        # checks a and b, then the report as a whole: b and the report fail
        self.assertEqual(gate.attempted, 3)
        self.assertEqual([f.split(":")[0] for f in gate.failures], ["b", "report"])


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        ticks = iter(range(100))
        tracer = instrument.Tracer(clock=lambda: next(ticks))
        inner = tracer.span(lambda: None, "inner")

        def body():
            inner()
            inner()

        tracer.span(body, "outer")()
        # outer opens at 0 and closes at 5; the inner spans cover 1-2 and 3-4
        self.assertEqual(tracer.spans["outer"], [1, 5, 3])
        self.assertEqual(tracer.spans["inner"], [2, 2, 2])

    def test_after_hook_sees_the_return_value(self):
        tracer = instrument.Tracer()
        f = tracer.span(lambda x: x * 2, "f", lambda result, args: tracer.add("f.out", result))
        f(3)
        f(4)
        self.assertEqual(tracer.counts["f.out"], 14)
        self.assertEqual(tracer.spans["f"][0], 2)


class ContentionTest(unittest.TestCase):
    def test_slices_are_divided_by_the_kernel_time_around_them(self):
        # samples at t = 1, ..., 10; the kernel takes 1 up to t = 5, then 2
        stamps = list(range(1, 11))
        refs = [1.0] * 5 + [2.0] * 5
        self.assertEqual(contention.adjusted_units(0, 10, stamps, [1.0] * 10), 10)
        # five slices count fully, the five after t = 5 at half
        self.assertEqual(contention.adjusted_units(0, 10, stamps, refs), 7.5)
        # the running median ignores one slow sample
        self.assertEqual(contention.adjusted_units(0, 10, stamps, [1.0] * 4 + [9.0] + [1.0] * 5), 10)
        # a region between two samples is charged at the next sample
        self.assertEqual(contention.adjusted_units(7.5, 8, stamps, refs), 0.25)

    def test_sampler_leaves_its_own_time_out(self):
        sampler = contention.Sampler(period=0.005)
        sampler.start()
        try:
            w0, c0 = sampler.clock(), sampler.cpu_clock()
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass
            w1, c1 = sampler.clock(), sampler.cpu_clock()
        finally:
            sampler.stop()
        self.assertGreater(len(sampler.refs), 10)
        self.assertAlmostEqual(w1 - w0, 0.2 - sampler.spent, delta=0.01)
        self.assertLess(c1 - c0, time.perf_counter() - t0)


class TracedRunTest(unittest.TestCase):
    def test_counts_repeat_and_report_is_unchanged_under_tracing(self):
        golden = workloads.GOLDEN_REPORT_MD5
        os.makedirs(run.WORKDIR, exist_ok=True)
        plain = run.spawn("verify_all", 1, 170, hash_seed=3)
        traced = [run.spawn("verify_all", 1, 170, trace=True, hash_seed=h) for h in (1, 2)]
        for child in [plain] + traced:
            self.assertEqual(child["failures"], [])
            self.assertEqual(child["digest"], golden)
        self.assertEqual(run.repeatable(traced[0]["trace"]), run.repeatable(traced[1]["trace"]))
        _, per_layer = run.load_metrics()
        trace = traced[0]["trace"]
        for m in per_layer:
            if m["name"] != "tracing_overhead_s":
                value = run.layer_value(m["name"], trace)
                self.assertEqual(isinstance(value, int), m["unit"] == "count", m["name"])
        # verify-all runs 151 checks plus two probe checks for determinism
        self.assertEqual(run.layer_value("reports.Report.run.calls", trace), 153)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "psi_tower", "--seed", "1",
                 "--seconds", "5", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
