#!/usr/bin/env python3
"""Regression tests for tools/bench_compare.py.

The comparison gate must fail BY NAME — exit 1 with the benchmark and a
reason on stderr — when a gated benchmark is missing from the candidate
set or carries an unusable measurement (absent or zero real_time), and
must keep exiting 0 on a clean comparison. These used to crash
(ZeroDivisionError) or silently pass.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "tools" / "bench_compare.py"


def write_set(directory, benches, build_type="Release"):
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "context": {"bench_build_type": build_type},
        "benchmarks": [
            {"name": name, "run_type": "iteration", **fields}
            for name, fields in benches.items()
        ],
    }
    (directory / "BENCH_set.json").write_text(json.dumps(doc))


def run_compare(baseline, candidate, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(baseline), str(candidate), *extra],
        capture_output=True,
        text=True,
    )


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline = root / "baseline"
        self.candidate = root / "candidate"

    def tearDown(self):
        self._tmp.cleanup()

    def test_clean_comparison_exits_zero(self):
        benches = {
            "BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"},
            "BM_Other": {"real_time": 50.0, "time_unit": "ns"},
        }
        write_set(self.baseline, benches)
        write_set(self.candidate, benches)
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("all gated benchmarks within", proc.stdout)

    def test_merge_ratio_is_reported_not_gated(self):
        write_set(
            self.baseline,
            {
                "BM_MergeFull/1": {"real_time": 400.0, "time_unit": "ms"},
                "BM_MergeFastForward": {"real_time": 50.0, "time_unit": "ms"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_MergeFull/1": {"real_time": 100.0, "time_unit": "ms"},
                "BM_MergeFastForward": {"real_time": 50.0, "time_unit": "ms"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn(
            "BM_MergeFull/1 / BM_MergeFastForward: baseline 8.00x, "
            "candidate 2.00x",
            proc.stdout,
        )
        # Without both benchmarks there is no ratio line.
        write_set(
            self.candidate,
            {"BM_MergeFull/1": {"real_time": 100.0, "time_unit": "ms"}},
        )
        write_set(
            self.baseline,
            {"BM_MergeFull/1": {"real_time": 100.0, "time_unit": "ms"}},
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertNotIn("BM_MergeFastForward", proc.stdout)

    def test_parallel_reduce_ratio_is_reported_not_gated(self):
        write_set(
            self.baseline,
            {
                "BM_ParallelReduce/1": {"real_time": 20.0, "time_unit": "ms"},
                "BM_ParallelReduce/2": {"real_time": 90.0, "time_unit": "ms"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_ParallelReduce/1": {"real_time": 20.0, "time_unit": "ms"},
                "BM_ParallelReduce/2": {"real_time": 22.0, "time_unit": "ms"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn(
            "BM_ParallelReduce/2 / BM_ParallelReduce/1: baseline 4.50x, "
            "candidate 1.10x",
            proc.stdout,
        )
        self.assertNotIn("BM_MergeFastForward", proc.stdout)

    def test_parallel_family_is_gated(self):
        write_set(
            self.baseline,
            {
                "BM_ParallelReduce/2": {"real_time": 20.0, "time_unit": "ms"},
                "BM_ParallelIntegrate/1": {"real_time": 30.0,
                                           "time_unit": "ms"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_ParallelReduce/2": {"real_time": 21.0, "time_unit": "ms"},
                "BM_ParallelIntegrate/1": {"real_time": 36.0,
                                           "time_unit": "ms"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_ParallelIntegrate/1: regressed", proc.stderr)
        self.assertNotIn("BM_ParallelReduce/2:", proc.stderr)

    def test_document_layer_is_gated(self):
        write_set(
            self.baseline,
            {
                "BM_DocumentCopy/1": {"real_time": 1.0, "time_unit": "ms"},
                "BM_SameAnnotated/1": {"real_time": 2.0, "time_unit": "ms"},
                "BM_LabelingBuild/1": {"real_time": 10.0, "time_unit": "ms"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_DocumentCopy/1": {"real_time": 1.5, "time_unit": "ms"},
                "BM_SameAnnotated/1": {"real_time": 3.0, "time_unit": "ms"},
                "BM_LabelingBuild/1": {"real_time": 15.0, "time_unit": "ms"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_DocumentCopy/1: regressed", proc.stderr)
        self.assertIn("BM_SameAnnotated/1: regressed", proc.stderr)
        self.assertNotIn("BM_LabelingBuild/1:", proc.stderr)

    def test_invert_is_gated(self):
        write_set(
            self.baseline,
            {"BM_Invert/20": {"real_time": 1.00, "time_unit": "ms"}},
        )
        write_set(
            self.candidate,
            {"BM_Invert/20": {"real_time": 1.15, "time_unit": "ms"}},
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_Invert/20: regressed", proc.stderr)

    def test_gated_regression_fails_by_name(self):
        write_set(
            self.baseline,
            {"BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"}},
        )
        write_set(
            self.candidate,
            {"BM_Reduce/1000": {"real_time": 150.0, "time_unit": "ns"}},
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_Reduce/1000", proc.stderr)
        self.assertIn("regressed", proc.stderr)

    def test_store_checkout_regression_fails_but_commit_does_not(self):
        write_set(
            self.baseline,
            {
                "BM_StoreCheckout/4": {"real_time": 30.0, "time_unit": "ms"},
                "BM_StoreCommit/0": {"real_time": 10.0, "time_unit": "ms"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_StoreCheckout/4": {"real_time": 34.0, "time_unit": "ms"},
                "BM_StoreCommit/0": {"real_time": 20.0, "time_unit": "ms"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_StoreCheckout/4", proc.stderr)
        self.assertIn("regressed", proc.stderr)
        self.assertNotIn("BM_StoreCommit/0", proc.stderr)

    def test_gated_missing_from_candidate_fails_by_name(self):
        write_set(
            self.baseline,
            {
                "BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"},
                "BM_Other": {"real_time": 50.0, "time_unit": "ns"},
            },
        )
        write_set(
            self.candidate,
            {"BM_Other": {"real_time": 50.0, "time_unit": "ns"}},
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_Reduce/1000", proc.stderr)
        self.assertIn("missing from candidate", proc.stderr)

    def test_zero_real_time_fails_by_name_not_zerodivision(self):
        write_set(
            self.baseline,
            {"BM_Reduce/1000": {"real_time": 0.0, "time_unit": "ns"}},
        )
        write_set(
            self.candidate,
            {"BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"}},
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_Reduce/1000", proc.stderr)
        self.assertIn("non-positive real_time", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_absent_real_time_fails_by_name(self):
        write_set(
            self.baseline,
            {"BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"}},
        )
        write_set(self.candidate, {"BM_Reduce/1000": {"time_unit": "ns"}})
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("BM_Reduce/1000", proc.stderr)
        self.assertIn("real_time absent or non-numeric", proc.stderr)

    def test_ungated_problems_do_not_fail(self):
        write_set(
            self.baseline,
            {
                "BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"},
                "BM_Other": {"real_time": 50.0, "time_unit": "ns"},
            },
        )
        write_set(
            self.candidate,
            {
                "BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"},
                "BM_Other": {"real_time": 0.0, "time_unit": "ns"},
            },
        )
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        # ...unless --all-gated pulls it into the gate.
        proc = run_compare(self.baseline, self.candidate, "--all-gated")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("BM_Other", proc.stderr)

    def test_build_type_mismatch_refused(self):
        benches = {"BM_Reduce/1000": {"real_time": 100.0, "time_unit": "ns"}}
        write_set(self.baseline, benches, build_type="Release")
        write_set(self.candidate, benches, build_type="Debug")
        proc = run_compare(self.baseline, self.candidate)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("build types differ", proc.stderr)


if __name__ == "__main__":
    unittest.main()
