#!/usr/bin/env python3
"""The benchmark's own tests, on its smoke mode (tiny shapes).

    python3 perfbench/test_perfbench.py

Builds the benchmark like a run does, then checks that every workload emits
every metric BENCHMARK.json names, with its unit and with no failed output
check; that the exact per-layer counts repeat between runs; that the
serve-mix generator is seeded and stratified; and that the benchmark
refuses to report where its numbers would not be headline numbers.
"""

import collections
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own build step)

RUN = [sys.executable, str(HERE / "run.py")]
BINARY = run.BINARY
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ["step.tasks", "step.edges", "step.graphs",
                "step.exchange_ops", "grid.exchange_ops",
                "grid.exchange_bytes", "core.workspace_peak_bytes"]


def setUpModule():
    run.build()


def smoke(workload, trace, seed=1, env=None):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def specs(seed, pairs):
    return subprocess.run([str(BINARY), "--specs", str(pairs), "--seed",
                           str(seed)], stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def batches_of(listing):
    """Spec listing -> list of batches of (scheme, box, nboxes, steps)."""
    batches = []
    for line in listing.splitlines():
        if line.startswith("# batch"):
            batches.append([])
        elif not line.startswith("#"):
            fields = dict(tok.split("=") for tok in line.split()[1:])
            batches[-1].append((fields["scheme"], int(fields["box"]),
                                int(fields["nboxes"]), int(fields["steps"])))
    return batches


class Smoke(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = smoke(workload, trace)

    def check_metrics(self, trace, listed):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result = self.runs[workload, trace]
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)  # failed_frac == 0
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics),
                                 sorted(m["name"] for m in listed))
                for m in listed:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])

    def test_end_to_end_metrics_emitted_with_units(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_emitted_with_units(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_exact_counts_repeat_and_warm_batches_never_retune(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.runs[workload, 1]["metrics"]
                again = smoke(workload, 1, seed=2)["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"],
                                     again[name]["value"], name)
                self.assertEqual(first["tuner.retunes_warm"]["value"], 0)


class Generator(unittest.TestCase):
    def test_same_seed_same_specs(self):
        self.assertEqual(specs(7, 3), specs(7, 3))

    def test_other_seed_other_mix_same_distribution(self):
        a, b = specs(7, 3), specs(8, 3)
        self.assertNotEqual(a.splitlines()[-1], b.splitlines()[-1])
        for listing in (a, b):
            batches = batches_of(listing)
            self.assertEqual(len(batches), 6)
            for batch in batches:
                self.assertEqual(len(batch), 24)
                # One solve per (scheme, box, nboxes) in every batch.
                self.assertEqual(len({s[:3] for s in batch}), 24)
            for p in range(0, len(batches), 2):
                pair = collections.Counter(batches[p] + batches[p + 1])
                # Every (scheme, box, nboxes, steps) shape once per pair.
                self.assertEqual(len(pair), 48)
                self.assertEqual(set(pair.values()), {1})
        self.assertNotEqual(batches_of(a), batches_of(b))


class Refusals(unittest.TestCase):
    def run_binary(self, env):
        return subprocess.run(
            [str(BINARY), "--workload", "box128", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)

    def test_path_changing_variables_refused(self):
        for var in ("FLUXDIV_STEP_FUSE", "FLUXDIV_LEVEL_POLICY",
                    "FLUXDIV_VERIFY_GRAPH", "FLUXDIV_SHADOW_CHECK",
                    "FLUXDIV_ADVISE"):
            with self.subTest(var=var):
                proc = self.run_binary(dict(os.environ, **{var: "1"}))
                self.assertEqual(proc.returncode, 3)
                self.assertNotIn("correct", proc.stdout)

    def test_bare_benchmark_directory_fails_without_result(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "box128",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
