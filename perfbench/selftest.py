"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it.  The traced
runs make it take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from time import perf_counter

import run
import spans
import workloads

SCRATCH = os.path.join(run.OUT, "selftest")


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def _run_traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stdout[-2000:] + proc.stderr[-2000:])
    path = os.path.join(run.OUT, f"result-{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class InputsRepeat(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        self.lib = run.load_polydiag()

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def build(self, workload, seed, name):
        workdir = os.path.join(SCRATCH, name)
        os.makedirs(workdir)
        jobs, digest = workloads.build(workload, seed, workdir, self.lib)
        return [(j.label, j.exit, j.stdout) for j in jobs], digest

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in workloads.MIXES:
            jobs1, digest1 = self.build(workload, 5, f"{workload}-a")
            jobs2, digest2 = self.build(workload, 5, f"{workload}-b")
            _jobs3, digest3 = self.build(workload, 6, f"{workload}-c")
            self.assertEqual(digest1, digest2, workload)
            self.assertEqual(jobs1, jobs2, workload)
            self.assertNotEqual(digest1, digest3, workload)
            self.assertGreaterEqual(len(jobs1), workloads.MIN_JOBS)


class TracedCountersRepeat(unittest.TestCase):
    """Work counters and digests are exact for a fixed seed."""

    def test_counters_and_digests_repeat(self):
        for workload in workloads.MIXES:
            first = _run_traced(workload, 9)
            second = _run_traced(workload, 9)
            for key in ("input_digest", "output_digest", "failed"):
                self.assertEqual(first[key], second[key], (workload, key))
            self.assertEqual(first["failed"], 0, first["failures"])
            counters = {
                name for name, unit, _better in run.PER_LAYER
                if unit in ("count", "B", "ratio") and not name.startswith("trace.")
            }
            for name in counters:
                self.assertEqual(
                    first["metrics"][name]["value"], second["metrics"][name]["value"], (workload, name)
                )
            self.assertTrue(all(first["checks"].values()), first["checks"])


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        tracer = spans.Tracer()

        def leaf():
            _busy(0.01)

        def outer(depth):
            _busy(0.01)
            leaf_w()
            if depth:
                outer_w(depth - 1)

        leaf_w = tracer.wrap("t.leaf", leaf)
        outer_w = tracer.wrap("t.outer", outer)
        tracer.active = True
        outer_w(1)
        tracer.active = False
        stats = tracer.summarize()
        self.assertEqual(stats["t.outer"]["calls"], 2)
        self.assertEqual(stats["t.leaf"]["calls"], 2)
        root = tracer.end[0] - tracer.start[0]
        # the nested outer span is inside the first, so total_s counts it once
        self.assertAlmostEqual(stats["t.outer"]["total_s"], root, places=9)
        self_sum = stats["t.outer"]["self_s"] + stats["t.leaf"]["self_s"]
        self.assertAlmostEqual(self_sum, root, places=9)
        self.assertGreater(stats["t.leaf"]["self_s"], 0.019)
        self.assertAlmostEqual(tracer.inclusive_s(["t.outer", "t.leaf"]), root, places=9)

    def test_span_file_round_trip(self):
        tracer = spans.Tracer()
        f = tracer.wrap("t.f", lambda: None)
        tracer.active = True
        f()
        f()
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "spans.bin")
        try:
            tracer.write(path)
            back = spans.read_spans(path)
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertEqual(back.summarize(), tracer.summarize())


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.MIXES))

    def test_fails_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "produce", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, check=False,
            )
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
