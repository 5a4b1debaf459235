"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from anywhere; the smoke tests run each workload at a tiny horizon
against the checkout's src/ and write under .perfbench_out/.  The file is named so that pytest's default
collection of the repository's own suite does not pick it up.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout's ignored output tree."""
    base = ROOT / ".perfbench_out"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def run_child(data: dict, out_dir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--config", json.dumps(data),
           "--out", str(out_dir)] + (["--trace"] if traced else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class SpanArithmetic(unittest.TestCase):
    def hand_built(self) -> tracing.Recorder:
        # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
        rec = tracing.Recorder()
        root = rec.add("root", 0.0, 10.0)
        rec.add("a", 1.0, 4.0, root)
        b = rec.add("b", 5.0, 9.0, root)
        rec.add("c", 6.0, 8.0, b)
        return rec

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(tracing.self_times(self.hand_built()), [3.0, 3.0, 2.0, 2.0])

    def test_aggregate_per_name(self):
        rec = self.hand_built()
        rec.add("a", 10.5, 11.0)
        agg = tracing.aggregate(rec)
        self.assertEqual(agg["a"], {"calls": 2, "s": 3.5, "self_s": 3.5})
        self.assertEqual(agg["root"], {"calls": 1, "s": 10.0, "self_s": 3.0})

    def test_dump_round_trip(self):
        rec = self.hand_built()
        with scratch_dir() as tmp:
            rec.dump(Path(tmp))
            back = tracing.load_spans(Path(tmp))
        self.assertEqual(back.names, rec.names)
        for field in ("name_id", "parent", "start", "end"):
            self.assertEqual(list(getattr(back, field)), list(getattr(rec, field)))

    def test_wrapper_records_nesting(self):
        ticks = iter(range(100))
        rec = tracing.Recorder(clock=lambda: float(next(ticks)))
        inner = rec.spanned("inner", lambda x: x + 1)
        outer = rec.spanned("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual(list(rec.parent), [-1, 0])
        self.assertEqual(tracing.self_times(rec), [2.0, 1.0])

    def test_stage_growth(self):
        # Stage k takes k units, so the whole run grows as h^2: exponent 1.
        self.assertAlmostEqual(tracing.growth_exponent([float(k) for k in range(1, 101)]), 1.0)


class Seeds(unittest.TestCase):
    def test_same_seed_same_config(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 2, workloads.HELD_OUT_SEED):
                self.assertEqual(workloads.config_for(name, seed),
                                 workloads.config_for(name, seed))

    def test_default_seed_is_repository_parameters(self):
        for name in workloads.WORKLOADS:
            expected = dict(workloads.BASE[name], horizon=workloads.HORIZONS[name])
            self.assertEqual(workloads.config_for(name, workloads.DEFAULT_SEED), expected)

    def test_seeded_values_stay_in_range(self):
        for seed in range(1, 200):
            cc = workloads.config_for("cc_match", seed)
            perm = cc["adversaries"][1]
            r = workloads.RANGES["cc_match"]
            self.assertTrue(r["perm.delay"][0] <= perm["delay"] <= r["perm.delay"][1])
            block = perm["permutation"]["block"]
            self.assertTrue(r["perm.block"][0] <= block <= r["perm.block"][1])
            self.assertTrue(1 <= perm["permutation"]["shift"] < block)
            dm = workloads.config_for("dc_modulus", seed)
            r = workloads.RANGES["dc_modulus"]
            self.assertTrue(r["phi.default.s0"][0] <= dm["phi"]["default"]["s0"]
                            <= r["phi.default.s0"][1])
            self.assertTrue(r["phi.rule6.s0"][0] <= dm["phi"]["rules"]["6"]["s0"]
                            <= r["phi.rule6.s0"][1])
            dd = workloads.config_for("dc_match", seed)
            r = workloads.RANGES["dc_match"]
            self.assertTrue(r["functional.min_len"][0] <= dd["functionals"][0]["min_len"]
                            <= r["functional.min_len"][1])
            self.assertTrue(r["phi.default.s0"][0] <= dd["phi"]["default"]["s0"]
                            <= r["phi.default.s0"][1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names + list(tracing.PER_LAYER) + list(run.END_TO_END):
            self.assertRegex(name, NAME)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        for m in bench["end_to_end"]:
            self.assertEqual((m["unit"], m["better"]), run.END_TO_END[m["name"]])
        for m in bench["per_layer"]:
            self.assertEqual((m["unit"], m["better"]), tracing.PER_LAYER[m["name"]])


class Smoke(unittest.TestCase):
    """Each workload at a tiny horizon (20, the smallest at which the
    permuted cc copy is matched) passes its checks and emits every metric."""

    def test_every_workload_emits_every_metric(self):
        with scratch_dir() as tmp:
            for name in workloads.WORKLOADS:
                data = workloads.config_for(name, workloads.DEFAULT_SEED, horizon=20)
                plain = run_child(data, Path(tmp) / name, traced=False)
                traced = run_child(data, Path(tmp) / name, traced=True)
                for key in run.UNTRACED:
                    if key != "events_per_s":
                        self.assertGreater(plain[key], 0, (name, key))
                self.assertGreater(plain["events"], 0)
                self.assertEqual(plain["failed_checks"], [], name)
                self.assertEqual(traced["digests"], plain["digests"], name)
                expected = set(tracing.PER_LAYER) - {"trace.overhead_s"} - set(run.UNTRACED)
                self.assertEqual(set(traced["layers"]), expected, name)

    def test_bare_directory_fails_without_result(self):
        with scratch_dir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cc_match",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
