"""Self-tests of the benchmark's own machinery.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that the gate rejects a mutated sequence and a solve shorter than
its certified distance, that a raised library error fails the op and names
the instance, that generation is a pure function of the seed, that the
trace wrappers change no result, and that the independent oracle agrees
with the library on small matroids.
"""

from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def outcome(item: dict):
    """Solve steps, or the text of the error the solve raised."""
    inst, result, error, _ = run.run_op(item)
    if error is not None:
        return f"{type(error).__name__}: {error}"
    return run._label_steps(inst["labels"], result.sequence)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.white = workloads._item(workloads._gen("bispanning", 10, 4, "white"), "b", 10, "white")
        self.gabow = workloads._item(workloads._gen("bispanning", 10, 4, "gabow"), "b", 10, "gabow")

    def test_good_sequences_pass(self):
        for item in (self.white, self.gabow):
            info = run.check_sequence(item["obj"], outcome(item))
            self.assertLessEqual(info["length"], info["bound_length"])

    def test_swapped_step_is_rejected(self):
        for item in (self.white, self.gabow):
            steps = outcome(item)
            for k in range(len(steps)):
                mutated = list(steps)
                e, f = mutated[k]
                mutated[k] = (f, e)
                with self.assertRaises(run.WrongAnswer):
                    run.check_sequence(item["obj"], mutated)

    def test_reordered_reversal_is_rejected_when_last_moves(self):
        steps = outcome(self.gabow)
        mutated = steps[-1:] + steps[:-1]
        last = self.gabow["obj"]["last"]
        if last not in mutated[-1]:
            with self.assertRaises(run.WrongAnswer):
                run.check_sequence(self.gabow["obj"], mutated)

    def test_truncated_sequence_is_rejected(self):
        steps = outcome(self.white)
        if steps:
            with self.assertRaises(run.WrongAnswer):
                run.check_sequence(self.white["obj"], steps[:-1])


    def test_solve_shorter_than_certified_distance_is_rejected(self):
        item = workloads._item(workloads._gen("r10", 8, 3, "white"), "r10", 10, "white")
        item["expect"] = workloads.expected_distance(item["obj"])
        inst, result, error, _ = run.run_op(item)
        self.assertIsNone(error)
        length = run.gate(item, inst, result)["length"]
        self.assertGreaterEqual(length, item["expect"])
        for expect in (length + 1, None):
            with self.assertRaises(run.WrongAnswer):
                run.gate(dict(item, expect=expect), inst, result)


class FailureTest(unittest.TestCase):
    def test_raising_solve_fails_the_op(self):
        items = [
            workloads._item(workloads._gen("r10", 8, g, "white"), "r10", 10, "white", g)
            for g in range(3)
        ]
        from baseswap import pipeline

        def broken(*args, **kwargs):
            raise RuntimeError("broken solve")

        original = pipeline.solve_white
        pipeline.solve_white = broken
        try:
            record = run.PassRecord()
            run.run_pass(items, record)
        finally:
            pipeline.solve_white = original
        self.assertEqual((record.attempted, record.ok), (3, 0))
        self.assertEqual(sorted(record.failures), sorted(it["name"] for it in items))
        for text in record.failures.values():
            self.assertEqual(text, "RuntimeError: broken solve")


class DigestTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for workload in ("binary", "sums"):
            self.assertEqual(
                workloads.digest(workloads.build(workload, 5)),
                workloads.digest(workloads.build(workload, 5)),
            )

    def test_other_seed_other_digest(self):
        self.assertNotEqual(
            workloads.digest(workloads.build("binary", 5)),
            workloads.digest(workloads.build("binary", 6)),
        )


class TraceTest(unittest.TestCase):
    def test_wrappers_leave_results_unchanged(self):
        items = [
            it for it in workloads.build("binary", 1)
            if it["case"].startswith(("r10", "gf2-bispanning/n24"))
        ][::4]
        items += workloads._tree(1, 40, "wo3", 1, 1) + workloads._tree(1, 40, "gr10", 1, 1)
        plain = [outcome(it) for it in items]
        tr = tracer.Tracer()
        from baseswap import pipeline
        original = pipeline.find_triad
        tr.install()
        try:
            self.assertIsNot(pipeline.find_triad, original)
            tr.active = True
            traced = [outcome(it) for it in items]
            tr.active = False
        finally:
            tr.uninstall()
        self.assertIs(pipeline.find_triad, original)
        self.assertEqual(plain, traced)
        self.assertGreater(tr.calls["pipeline.solve_white"], 0)
        self.assertGreater(sum(v for k, v in tr.calls.items() if k.startswith("matroid.rank.")), 0)


class OracleTest(unittest.TestCase):
    def test_oracle_agrees_with_library(self):
        from baseswap.io import load_matroid_source

        sources = [{"kind": "r10"}, {"kind": "f7"}]
        for g in range(4):
            sources.append(workloads._gen("tree-composed", 8, g, "white")["matroid"])
        sources.append(workloads._gen("bispanning", 7, 1, "white")["matroid"])
        sources.append(workloads.gf2_encoding(workloads._gen("bispanning", 7, 1, "white"))["matroid"])
        for source in sources:
            structure, labels = load_matroid_source(source)
            m = structure.matroid
            om = oracle.matroid_of(source)
            self.assertEqual(om.rank, m.full_rank)
            names = sorted(labels.label(e) for e in m.ground)
            for combo in itertools.combinations(names, om.rank):
                self.assertEqual(om.is_basis(om.mask(combo)), m.is_basis(labels.ids(combo)))

    def test_gf2_encoding_keeps_the_pairs(self):
        obj = workloads._gen("bispanning", 12, 2, "white")
        enc = workloads.gf2_encoding(obj)
        for key in ("x1", "x2", "y1", "y2", "mode"):
            self.assertEqual(obj[key], enc[key])
        self.assertEqual(oracle.matroid_of(obj["matroid"]).rank, oracle.matroid_of(enc["matroid"]).rank)


if __name__ == "__main__":
    unittest.main()
