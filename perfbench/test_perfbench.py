#!/usr/bin/env python3
"""Self-test of the benchmark: smoke sizes of every workload, traced and
untraced, plus the negative cases (a corrupted expectation must fail the
run, the durable workload must refuse a state dir that is not tmpfs, and a
checkout without the library sources must fail without a result line).

    python3 perfbench/test_perfbench.py

Everything it writes goes under .bench_build/ of the checkout.
"""
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SMOKE_SECONDS = "0.5"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  every runnable workload, gated or not


def scratch_dir():
    base = ROOT / ".bench_build" / "perfbench-tests"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def layer_value(res, result, name):
    """A traced run's value of `name`: from the result line when it is a
    BENCHMARK.json metric, else from the printed table."""
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    match = re.search(rf"^   {re.escape(name)}\s+(\S+) ", res.stdout, re.M)
    return float(match.group(1)) if match else None


def run(workload, trace=0, seed=1, extra=()):
    res = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               SMOKE_SECONDS, "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return res, result


class Smoke(unittest.TestCase):
    def check_result(self, res, result, names):
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))

    def test_untraced(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, result = run(w)
                self.check_result(res, result, names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                # Every end-to-end metric is printed with its sample count.
                for name in names:
                    self.assertRegex(res.stdout, rf"{name}\s.*n=\d+")

    def test_traced_counts_repeat(self):
        # The counts the workload's layers produce repeat exactly for the
        # same seed, and each workload drives the layers it is named for.
        names = [m["name"] for m in BENCH["per_layer"]]
        active = {
            "wlan_durable": ["service.events", "service.wal.syncs"],
            "fleet_churn": ["service.events", "core.epochs",
                            "core.alloc.evaluations", "core.decisions"],
            "offline_gap": ["baselines.kai.evaluations",
                            "core.alloc.evaluations"],
            "baseband_coded": ["baseband.bit_errors",
                               "baseband.packet_errors"],
        }
        exact = {
            "fleet_churn": ["service.events", "core.epochs",
                            "core.alloc.evaluations", "core.decisions"],
            "offline_gap": ["baselines.kai.evaluations",
                            "core.alloc.evaluations", "core.decisions"],
            "baseband_coded": ["baseband.bit_errors",
                               "baseband.packet_errors"],
        }
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, first = run(w, trace=1, seed=5)
                self.check_result(res, first, names)
                self.assertIn("tracing.overhead_pct", res.stdout)
                for name in active[w]:
                    self.assertGreater(layer_value(res, first, name), 0, name)
                if w not in exact:
                    continue
                res2, second = run(w, trace=1, seed=5)
                self.check_result(res2, second, names)
                for name in exact[w]:
                    self.assertEqual(layer_value(res, first, name),
                                     layer_value(res2, second, name), name)


class Negative(unittest.TestCase):
    def test_corrupted_expectation_fails(self):
        expected = json.loads((HERE / "expected.json").read_text())
        key = "offline_gap.exact"
        expected["offline_gap"][key] = "199/200"
        path = scratch_dir() / "expected.json"
        path.write_text(json.dumps(expected))
        res, result = run("offline_gap", extra=["--expected", str(path)])
        self.assertNotEqual(res.returncode, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn(key, res.stdout)

    def test_durable_refuses_non_tmpfs_state_dir(self):
        binary = ROOT / ".bench_build" / "perfbench" / "perfbench"
        if not binary.is_file():
            run("offline_gap")
        state = scratch_dir()
        probe = subprocess.run(["stat", "-f", "-c", "%T", str(state)],
                               capture_output=True, text=True)
        if probe.stdout.strip() == "tmpfs":
            self.skipTest("the checkout itself is on tmpfs")
        res = subprocess.run(
            [str(binary), "--workload", "wlan_durable", "--seconds",
             SMOKE_SECONDS, "--workdir", str(state), "--state-root",
             str(state)],
            capture_output=True, text=True, timeout=120)
        self.assertNotEqual(res.returncode, 0)
        self.assertIn("not on tmpfs", res.stderr)
        self.assertEqual(res.stdout.strip(), "")

    def test_no_sources_fails_without_result(self):
        bare = scratch_dir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "offline_gap",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
