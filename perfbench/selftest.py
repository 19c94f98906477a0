"""Self-tests of the benchmark harness, run from the repo root:

    python3 perfbench/selftest.py

They check that a wrong output counts as a failed operation, that the
tracer puts every module attribute back, that traced and untraced passes
give identical outputs, and that the committed hunt reference matches the
whole-space totals. The file name keeps it out of the repository's pytest
run; it takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class TallyTest(unittest.TestCase):
    def test_wrong_output_counts_as_failed(self):
        job = workloads.BUILDERS["census"](0, workloads.load_catalogue())
        op = job.ops[1]
        _, (right,) = run.run_pass([op])
        wrong = dataclasses.replace(right, live=right.live + 1)
        tally = run.Tally()
        tally.check([op, op], [right, wrong])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("live", tally.problems[0][1][0])

    def test_raising_call_counts_as_failed(self):
        def boom():
            raise ValueError("boom")

        op = workloads.Op("boom", boom, check=lambda out: [], work=lambda out: 1)
        _, outputs = run.run_pass([op])
        tally = run.Tally()
        self.assertEqual(tally.check([op], outputs), 0)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_traced_output_that_differs_counts_as_failed(self):
        op = workloads.Op("n", lambda: 1, check=lambda out: [], work=lambda out: 1)
        tally = run.Tally()
        tally.check([op], [2], expected=[1])
        self.assertEqual(tally.failed, 1)


class TracerTest(unittest.TestCase):
    def attributes(self):
        return {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.targets()}

    def test_restore_puts_every_attribute_back(self):
        before = self.attributes()
        tr = tracing.Tracer()
        with self.assertRaises(RuntimeError):
            with tr:
                during = self.attributes()
                raise RuntimeError("leave the block early")
        after = self.attributes()
        for key, original in before.items():
            self.assertIsNot(during[key], original, key)
            self.assertIs(after[key], original, key)

    def test_self_time_excludes_direct_children(self):
        tr = tracing.Tracer()
        tr.spans = [
            tracing.Span("outer", 0.0, 10.0, -1, "r"),
            tracing.Span("inner", 1.0, 4.0, 0, "r"),
            tracing.Span("leaf", 2.0, 3.0, 1, "r"),
            tracing.Span("inner", 5.0, 7.0, 0, "r"),
        ]
        times = tr.times()["r"]
        self.assertEqual(times["outer"], [10.0, 5.0])
        self.assertEqual(times["inner"], [5.0, 4.0])
        self.assertEqual(times["leaf"], [1.0, 1.0])


class TracedOutputTest(unittest.TestCase):
    def test_traced_and_untraced_passes_agree(self):
        for name, build in workloads.BUILDERS.items():
            with self.subTest(workload=name):
                job = build(3, workloads.load_catalogue())
                _, plain = run.run_pass(job.ops)
                tr = tracing.Tracer()
                with tr:
                    _, traced = run.run_pass(job.ops)
                tally = run.Tally()
                tally.check(job.ops, traced, run.summaries(job.ops, plain))
                self.assertEqual(tally.failed, 0, tally.problems)
                self.assertTrue(tr.spans)


class ReferenceTest(unittest.TestCase):
    def test_hunt_reference_matches_the_whole_space(self):
        interesting, viable = workloads.hunt_reference()
        self.assertEqual(len(interesting), 49**3)
        self.assertEqual(int(interesting.sum()), 78192)
        self.assertEqual(len(viable), 308)
        params = list(workloads.search.enumerate_sweep_params())
        for sweep in (workloads.FIRST_SWEEP, workloads.SECOND_SWEEP):
            self.assertIn(params.index(sweep), viable)


if __name__ == "__main__":
    unittest.main()
