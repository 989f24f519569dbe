"""Self-tests of the benchmark: job lists, checker, self-time arithmetic.

    python3 perfbench/selftest.py

Needs NumPy and SciPy but runs no genestim job.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import check
import jobs as joblists
import run

REFERENCES = json.loads((run.HERE / "reference.json").read_text())
COVERAGE_JOB = {"cmd": "or-coverage", "args": ["--n1", "20", "--n2", "30"]}


class JobLists(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for workload in joblists.WORKLOADS:
            first = joblists.job_list(workload, 7)
            self.assertEqual(first, joblists.job_list(workload, 7))
            self.assertNotEqual(first, joblists.job_list(workload, 8))

    def test_paper_table_in_every_or_study(self):
        for seed in range(5):
            self.assertIn(COVERAGE_JOB, joblists.job_list("or-study", seed))


def write_coverage(out_dir: Path, values: dict):
    lines = ["# {}", "or,p1,p2,c,equal_sign,method,coverage"]
    for key, cov in values.items():
        o, p1, p2, c, eq, method = key.split(",")
        lines.append(",".join([o, p1, p2, c, "1" if eq == "True" else "0",
                               method, f"{cov:.17g}"]))
    (out_dir / "coverage.csv").write_text("\n".join(lines) + "\n")


class Checker(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_coverage_moved_by_1e_6_is_rejected(self):
        reference = REFERENCES[joblists.job_key(COVERAGE_JOB)]
        write_coverage(self.dir, reference)
        _, problems = check.check_job(COVERAGE_JOB, self.dir, "", reference)
        self.assertEqual(problems, [])
        moved = dict(reference)
        key = next(k for k in moved if k.endswith("z-standard"))
        moved[key] -= 1e-6
        write_coverage(self.dir, moved)
        _, problems = check.check_job(COVERAGE_JOB, self.dir, "", reference)
        self.assertTrue(problems)

    def test_binom_ci_endpoint_moved_by_1e_6_is_rejected(self):
        job = {"cmd": "binom-ci", "args": ["--n", "20", "--y", "6", "--z",
                                           "2.0", "--side", "two-sided"]}
        lower, upper = check.wilson(20, 6, 2.0)
        for shift, ok in ((0.0, True), (1e-6, False)):
            (self.dir / "interval.json").write_text(json.dumps(
                {"lower": lower, "upper": upper + shift}))
            _, problems = check.check_job(job, self.dir, "")
            self.assertEqual(problems == [], ok, problems)

    def test_reference_admits_round_off(self):
        reference = {"x": 0.25, "y": 3.5}
        moved = {"x": 0.25 + 1e-11, "y": 3.5 * (1 + 1e-11)}
        self.assertEqual(check.compare_reference(moved, reference), [])
        self.assertTrue(check.compare_reference({"x": 0.25 + 1e-6, "y": 3.5},
                                                reference))


class SelfTime(unittest.TestCase):
    # a [0, 10] holds b [1, 4], which holds c [2, 3], and d [5, 9]; e [11, 12]
    SPANS = [("cli.a", 0.0, 10.0, -1), ("families.b", 1.0, 4.0, 0),
             ("kernels.c", 2.0, 3.0, 1), ("families.d", 5.0, 9.0, 0),
             ("cli.e", 11.0, 12.0, -1)]

    def test_self_time_is_span_minus_children(self):
        self.assertEqual(run.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0, 1.0])

    def test_layers_and_unattributed_add_up_to_wall(self):
        names = sorted({s[0] for s in self.SPANS})
        raw = {"names": names, "counts": {},
               "spans": [[names.index(n), a, b, p]
                         for n, a, b, p in self.SPANS]}
        job = {"cmd": "binom-ci", "args": []}
        rec = {"wall": 15.0, "trace": run.summarize_trace(raw, job)}
        out = run.layer_metrics([rec], [{"wall": 12.0}])
        self.assertEqual(out["cli.self_s"], 4.0)
        self.assertEqual(out["families.self_s"], 6.0)
        self.assertEqual(out["kernels.self_s"], 1.0)
        self.assertEqual(out["trace.unattributed_s"], 4.0)
        self.assertEqual(out["trace.accounting_err_frac"], 0.0)
        self.assertEqual(out["trace.overhead_frac"], 0.25)


if __name__ == "__main__":
    unittest.main()
