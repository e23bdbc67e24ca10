"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from time import process_time
from unittest import mock

import run  # puts the checkout's src/ on sys.path
import finitype.cli
import inputs
import spans
import verify
from finitype import (ClassStatus, Decision, EdgeBoundExceeded, MutationClassReport,
                      SquareIntMatrix, decide_matrix)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = {"LARGE_N": 12, "LARGEST_N": 16, "SMALL_BATCH_SIZE": 40, "ORACLE_ROUNDS": 1,
        "SETUP_PROBES": 1}


def tiny_run(workload: str, trace: int = 0) -> tuple[dict, str]:
    """One tiny run; returns the final JSON object and the whole stdout."""
    out = io.StringIO()
    with mock.patch.multiple(run, **TINY), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def det(rows) -> int:
    """Leibniz formula, for the tiny matrices of these tests."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


class TinyRuns(unittest.TestCase):
    def test_every_end_to_end_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, text = tiny_run(workload)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], text)
                self.assertEqual(result["failed"], 0)
                expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                for name in ("tail_ms", "failed_frac"):
                    self.assertIn(name, text)
                details = json.loads(text.strip().splitlines()[-2])["details"]
                self.assertEqual({name: m["unit"] for name, m in details["as_measured"].items()
                                  if name != "tail_ms"}, expected)
                self.assertEqual(details["failed_frac"]["value"], 0)

    def test_every_per_layer_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, text = tiny_run(workload, trace=1)
                self.assertTrue(result["correct"], text)
                expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                self.assertGreater(metrics["exactmat.symmetrizer_ms"], 0)
                layer = {"large-cli": "cli.share", "oracle-crosscheck": "oracle.share",
                         "small-batch": "companion.share"}[workload]
                self.assertGreater(metrics[layer], 0)


class StageCoverage(unittest.TestCase):
    """The CPU-time samples of untraced decide_matrix against the traced stages."""

    def sample(self, top, matrix, cpu_s):
        sampler = spans.Sampler(top=top)
        deadline = process_time() + cpu_s
        with sampler.running():
            while process_time() < deadline:
                top(matrix)
        return spans.coverage(sampler.counts)

    def matrix(self, n):
        return SquareIntMatrix.from_rows(inputs.dense_rows(*inputs.dynkin("A", n,
                                                                         random.Random(1))))

    def test_decide_matrix_runs_inside_the_traced_stages(self):
        samples, cover = self.sample(decide_matrix, self.matrix(120), 0.4)
        self.assertGreater(samples, 20)
        self.assertGreaterEqual(cover, 1 - run.STAGE_TOLERANCE)

    def test_work_outside_the_stages_lowers_coverage(self):
        def padded(matrix):
            deadline = process_time() + 0.05
            while process_time() < deadline:
                pass
            return decide_matrix(matrix)
        samples, cover = self.sample(padded, self.matrix(20), 0.4)
        self.assertGreater(samples, 20)
        self.assertLess(cover, 0.5)


class InjectedFaults(unittest.TestCase):
    """Wrong outputs must land in ``failed``, not pass silently."""

    def corrupt_every_third(self, corrupt):
        calls = []

        def wrong(matrix):
            calls.append(1)
            decision = decide_matrix(matrix)
            return corrupt(decision) if len(calls) % 3 == 0 else decision
        return wrong

    def assert_counted(self, workload, target, fake):
        with mock.patch.object(*target, fake):
            result, _ = tiny_run(workload)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])

    def test_wrong_verdict(self):
        def flip(decision):
            return Decision(not decision.finite, EdgeBoundExceeded((0, 1), 1, 1), None) \
                if decision.finite else decision
        self.assert_counted("small-batch", (run, "decide_matrix"),
                            self.corrupt_every_third(flip))

    def test_wrong_minor(self):
        def bump(decision):
            if not decision.finite:
                return decision
            cert = decision.certificate
            minors = cert.minors[:-1] + (cert.minors[-1] + 1,)
            return replace(decision, certificate=replace(cert, minors=minors))
        fake = self.corrupt_every_third(bump)
        self.assert_counted("small-batch", (run, "decide_matrix"), fake)
        # the JSON report path of large-cli reads the minors back from the document
        self.assert_counted("large-cli", (finitype.cli, "decide_matrix"), fake)

    def test_oracle_disagreement(self):
        def wrong_class(form, *args):
            return MutationClassReport(ClassStatus.FINITE_CLASS, 1, 1)
        self.assert_counted("oracle-crosscheck", (run, "explore_mutation_class"), wrong_class)


class Checks(unittest.TestCase):
    def test_leading_minors_match_leibniz(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 5)
            d = [rng.choice((1, 2, 3)) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(1, 3)
                for j in range(i + 1, n):
                    if rng.random() < 0.6:  # symmetrizable by d, like a companion
                        s = rng.choice((-2, -1, 1, 2))
                        rows[i][j], rows[j][i] = s * d[j], s * d[i]
            want = [det([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
            if 0 in want:
                want = want[:want.index(0) + 1]
            got = verify.leading_minors([{j: v for j, v in enumerate(r) if v} for r in rows], n)
            self.assertEqual(got, want)

    def test_generators_match_the_theory(self):
        rng = random.Random(5)
        for kind, n in [("A", 7), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8),
                        ("F", 4), ("G", 2)]:
            n, b = inputs.mutation_walk(*inputs.relabel(*inputs.dynkin(kind, n, rng), rng),
                                        3 * n, rng)
            decision = decide_matrix(SquareIntMatrix.from_rows(inputs.dense_rows(n, b)))
            self.assertTrue(decision.finite, kind)
        for kind, n in [("B", 6), ("C", 6), ("D", 7), ("E", 7), ("E", 8), ("E", 9), ("F", 5),
                        ("G", 3)]:
            n, b = inputs.affine(kind, n, rng)
            rows = inputs.dense_rows(n, b)
            decision = decide_matrix(SquareIntMatrix.from_rows(rows))
            self.assertEqual((decision.reason.minor_index, decision.reason.minor), (n, 0), kind)


if __name__ == "__main__":
    unittest.main()
