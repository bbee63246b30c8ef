#!/usr/bin/env python3
"""Checks of perf_gate.py's context handling, over the two fixtures in
tools/testdata/: the same two benchmarks recorded on a 4-CPU and a 1-CPU
host, the 1-CPU run 3x slower on BM_Grade.

    python3 tools/perf_gate_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "perf_gate.py")
FOUR = os.path.join(HERE, "testdata", "perf_gate_4cpu.json")
ONE = os.path.join(HERE, "testdata", "perf_gate_1cpu.json")


def gate(baseline, current, *extra):
    """Run the gate; (exit code, stdout)."""
    done = subprocess.run([sys.executable, GATE, baseline, current, *extra],
                          capture_output=True, text=True)
    return done.returncode, done.stdout


def rewritten(path, directory, change):
    """A copy of a fixture with `change(data)` applied; returns its path."""
    with open(path) as handle:
        data = json.load(handle)
    change(data)
    out = os.path.join(directory, "changed.json")
    with open(out, "w") as handle:
        json.dump(data, handle)
    return out


class ContextTest(unittest.TestCase):
    def test_same_context_compares_times(self):
        code, out = gate(FOUR, FOUR)
        self.assertEqual(code, 0, out)
        self.assertIn("BM_Grade/0: 100.000 -> 100.000 us (1.00x", out)
        self.assertNotIn("context mismatch", out)

    def test_same_context_slowdown_fails(self):
        def slower(data):
            data["benchmarks"][0]["real_time"] = 300.0
        with tempfile.TemporaryDirectory() as directory:
            code, out = gate(FOUR, rewritten(FOUR, directory, slower))
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_cpu_count_mismatch_prints_no_delta(self):
        code, out = gate(FOUR, ONE)
        self.assertEqual(code, 0, out)
        self.assertIn("context mismatch (num_cpus 4 -> 1)", out)
        self.assertIn("BM_Grade/0: context mismatch", out)
        self.assertNotIn("x baseline", out)
        self.assertNotIn("REGRESSION", out)

    def test_build_type_mismatch_prints_no_delta(self):
        def debug(data):
            data["context"]["build_type"] = "Debug"
        with tempfile.TemporaryDirectory() as directory:
            code, out = gate(FOUR, rewritten(FOUR, directory, debug))
        self.assertEqual(code, 0, out)
        self.assertIn("build_type Release -> Debug", out)

    def test_key_recorded_on_one_side_only_is_not_a_mismatch(self):
        def older(data):
            del data["context"]["build_type"]
        with tempfile.TemporaryDirectory() as directory:
            code, out = gate(rewritten(FOUR, directory, older), FOUR)
        self.assertEqual(code, 0, out)
        self.assertNotIn("context mismatch", out)

    def test_history_records_the_context(self):
        with tempfile.TemporaryDirectory() as directory:
            history = os.path.join(directory, "trend.jsonl")
            gate(FOUR, ONE, "--history", history, "--label", "abc")
            with open(history) as handle:
                entry = json.loads(handle.readline())
        self.assertEqual(entry["label"], "abc")
        self.assertEqual(entry["context"], {
            "num_cpus": 1, "build_type": "Release",
            "library_build_type": "release"})
        self.assertEqual(entry["benchmarks"]["BM_Grade/0"]["real_time"],
                         300.0)


if __name__ == "__main__":
    unittest.main()
