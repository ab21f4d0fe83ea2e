#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark contract's grammar, runs a
tiny-size smoke of every workload (untraced and traced) through run.py,
and checks that a wrong reference and a missing library both fail.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    """Runs run.py; returns (exit code, stdout lines, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, lines, last


def tiny(workload, *extra):
    return bench("--workload", workload, "--size", "tiny", "--seconds", "0.5",
                 *extra)


class Contract(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(SPEC["command"]), 32)
        self.assertTrue(all(len(a) <= 200 for a in SPEC["command"]))
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        for p in SPEC["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_workloads(self):
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.LAYERS))

    def test_metric_names_follow_the_grammar(self):
        names = []
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)

    def test_setup_metric_has_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_per_layer_prefixes_are_known_layers(self):
        layers = set().union(*run.LAYERS.values())
        for m in SPEC["per_layer"]:
            if "." in m["name"]:
                self.assertIn(m["name"].split(".")[0], layers)


class Smoke(unittest.TestCase):
    def test_each_workload_prints_all_its_metrics_with_units(self):
        for workload in run.LAYERS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, last = tiny(workload, "--trace", str(trace))
                    self.assertEqual(code, 0)
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in SPEC[listed]}
                    self.assertEqual(set(last["metrics"]), set(wanted))
                    report = "\n".join(lines[:-1])
                    for name, unit in wanted.items():
                        got = last["metrics"][name]
                        self.assertEqual(got["unit"], unit)
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertRegex(report, r"\n  %s +\S+ %s\n"
                                         % (re.escape(name), re.escape(unit)))

    def test_references_hold_for_default_and_held_out_seed(self):
        for workload in sorted(run.GATED):
            for seed in ("1", "2"):
                with self.subTest(workload=workload, seed=seed):
                    code, lines, last = tiny(workload, "--seed", seed)
                    self.assertEqual(code, 0)
                    self.assertTrue(last["correct"])
                    self.assertTrue(any("reference match" in l for l in lines))

    def test_wrong_reference_counts_as_an_error(self):
        with open(os.path.join(HERE, "references.json")) as f:
            refs = json.load(f)
        entry = refs["cycle-serial"]["tiny"]["1"]
        for name in entry:
            entry[name] = "0" * 16
        path = os.path.join(run.build_dir(), "wrong-references.json")
        with open(path, "w") as f:
            json.dump(refs, f)
        try:
            code, _, last = tiny("cycle-serial", "--trace", "1", "--refs", path)
        finally:
            os.remove(path)
        self.assertEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreaterEqual(last["failed"], 1)
        self.assertGreater(last["metrics"]["error_rate"]["value"], 0)

    def test_compare_skips_records_from_another_host(self):
        base = os.path.join(run.build_dir(), "compare-test")
        shutil.rmtree(base, ignore_errors=True)
        record = {"workload": "cycle-serial", "size": "full", "trace": 0,
                  "fingerprint": {"nproc": 4, "cpu_model": "a"},
                  "metrics": {"round_ms_mean": {"value": 1.0, "unit": "ms"}}}
        for side, model, value in (("old", "a", 1.0), ("new", "b", 2.0)):
            os.makedirs(os.path.join(base, side))
            record["fingerprint"]["cpu_model"] = model
            record["metrics"]["round_ms_mean"]["value"] = value
            with open(os.path.join(base, side, "r.json"), "w") as f:
                json.dump(record, f)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"),
                 os.path.join(base, "old"), os.path.join(base, "new")],
                stdout=subprocess.PIPE, text=True, timeout=60)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        self.assertEqual(proc.returncode, 0)
        self.assertIn("fingerprints differ", proc.stdout)
        self.assertNotIn("REGRESSION", proc.stdout)

    def test_fails_without_the_library(self):
        bare = os.path.join(run.build_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cycle-serial",
                 "--size", "tiny", "--seconds", "0.5"],
                cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
