"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime budgets assert them.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from functools import lru_cache
from math import gcd

from finitype import (
    Certificate,
    ClassStatus,
    CompanionNotPositive,
    NonCyclicCycle,
    NotCyclicallyOrientedError,
    SkewForm,
    SquareIntMatrix,
    assign_signs,
    brute_force_positive_companion,
    build_companion,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    decide_matrix,
    explore_mutation_class,
    mutate,
    positive_companion_exists,
)

from helpers import (
    PAIR_OPTIONS,
    a_path,
    alternating_square,
    bc_path,
    brute_chordless_cycles,
    canonical_undirected,
    cyclic_cycle,
    affine_e_arcs,
    affine_f4_arcs,
    affine_g2_arcs,
    d_fork,
    e_arcs,
    f4_arcs,
    from_arcs,
    g2,
    independent_leading_minor,
    is_positive,
    markov,
    random_cyclically_oriented_arcs,
    random_skew_rows,
    relabel,
    reversed_arcs,
    satisfies_sign_condition,
    sparse_from_arcs,
)


@contextmanager
def criterion(num: int, desc: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    if budget_s is not None and elapsed >= budget_s:
        print(f"ACCEPTANCE {num} [{desc}]: FAIL (took {elapsed:.2f}s, budget {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget_s}s budget")
    budget = f", budget {budget_s}s" if budget_s is not None else ""
    print(f"ACCEPTANCE {num} [{desc}]: PASS ({elapsed:.2f}s{budget})")


# ---------------------------------------------------------------------------
# shared corpora (cached so criteria 4 and 5 can reuse earlier instances)

def exceptional_and_affine() -> tuple[tuple[str, tuple[int, dict], bool], ...]:
    """(name, (n, arcs), finite) for E6-E8, F4 and the affine E~6-E~8, F~4, G~2."""
    return (
        ("E6", e_arcs(6), True),
        ("E7", e_arcs(7), True),
        ("E8", e_arcs(8), True),
        ("F4", f4_arcs(), True),
        ("E~6", affine_e_arcs((2, 2, 2)), False),
        ("E~7", affine_e_arcs((3, 3, 1)), False),
        ("E~8", affine_e_arcs((5, 2, 1)), False),
        ("F~4", affine_f4_arcs(), False),
        ("G~2", affine_g2_arcs(), False),
    )


@lru_cache(maxsize=None)
def golden_corpus() -> tuple[tuple[str, SquareIntMatrix, bool], ...]:
    cases: list[tuple[str, SquareIntMatrix, bool]] = []
    for n in range(2, 9):
        for mask in range(1 << (n - 1)):
            cases.append((f"A{n} mask={mask}", a_path(n, mask), True))
    for n in range(2, 7):
        cases.append((f"B{n}", bc_path(n, heavy_first=True), True))
        cases.append((f"C{n}", bc_path(n, heavy_first=False), True))
    for n in range(4, 7):
        cases.append((f"D{n}", d_fork(n), True))
    cases.append(("G2", g2(), True))
    for name, (n, arcs), finite in exceptional_and_affine():
        cases.append((name, from_arcs(n, arcs), finite))
    cases.append(("Markov", markov(), False))
    cases.append(("alternating 4-cycle", alternating_square(), False))
    return tuple(cases)


@lru_cache(maxsize=None)
def grid3_corpus() -> tuple[SquareIntMatrix, ...]:
    """Every skew-symmetrizable 3x3 matrix with entries bounded by 2."""
    matrices = []
    for p01 in PAIR_OPTIONS:
        for p02 in PAIR_OPTIONS:
            for p12 in PAIR_OPTIONS:
                rows = [
                    [0, p01[0], p02[0]],
                    [p01[1], 0, p12[0]],
                    [p02[1], p12[1], 0],
                ]
                matrix = SquareIntMatrix.from_rows(rows)
                try:
                    compute_skew_symmetrizer(matrix)
                except Exception:
                    continue
                matrices.append(matrix)
    return tuple(matrices)


@lru_cache(maxsize=None)
def random4_corpus() -> tuple[SquareIntMatrix, ...]:
    rng = random.Random(20260811)
    matrices = []
    while len(matrices) < 500:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j], rows[j][i] = rng.choice(PAIR_OPTIONS)
        matrix = SquareIntMatrix.from_rows(rows)
        try:
            compute_skew_symmetrizer(matrix)
        except Exception:
            continue
        matrices.append(matrix)
    return tuple(matrices)


@lru_cache(maxsize=None)
def co_corpus() -> tuple[SquareIntMatrix, ...]:
    """200 random cyclically oriented quivers with at most 16 arcs."""
    rng = random.Random(424242)
    matrices = []
    while len(matrices) < 200:
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=12, asym_weights=True)
        if len(arcs) > 16:
            continue
        matrices.append(from_arcs(n, arcs))
    return tuple(matrices)


def all_corpus_matrices():
    for _, matrix, _ in golden_corpus():
        yield matrix
    yield from grid3_corpus()
    yield from random4_corpus()
    yield from co_corpus()


def companion_stage(matrix: SquareIntMatrix):
    """(inventory, companion) when the graph is cyclically oriented, else None."""
    form = compute_skew_symmetrizer(matrix)
    g = build_quiver(form)
    try:
        inventory = chordless_cycles_cod(g)
    except NotCyclicallyOrientedError:
        return None
    return inventory, build_companion(form, assign_signs(g, inventory))


# ---------------------------------------------------------------------------

def test_criterion_1_golden_verdicts():
    with criterion(1, "golden verdicts for Dynkin and affine families and counterexamples", 1.0):
        for name, matrix, expect_finite in golden_corpus():
            decision = decide_matrix(matrix)
            assert decision.finite == expect_finite, name
        # E, F and affine types in two orientations and one relabeling; every
        # proper subdiagram of an affine diagram is Dynkin, so only minor n fails
        rng = random.Random(6789)
        for name, (n, arcs), expect_finite in exceptional_and_affine():
            for matrix in (from_arcs(n, arcs), from_arcs(n, reversed_arcs(arcs, 0b10101010)),
                           relabel(from_arcs(n, arcs), rng)):
                decision = decide_matrix(matrix)
                assert decision.finite == expect_finite, name
                certificate, reason = decision.certificate, decision.reason
                if not expect_finite:
                    assert isinstance(reason, CompanionNotPositive), name
                rows = (certificate or reason).companion.C.entries
                independent = tuple(independent_leading_minor(rows, k) for k in range(1, n + 1))
                assert all(m > 0 for m in independent[:-1]), name
                if expect_finite:
                    assert certificate.minors == independent and independent[-1] > 0, name
                else:
                    assert (reason.minor_index, reason.minor, independent[-1]) == (n, 0, 0), name
        markov_decision = decide_matrix(markov())
        assert isinstance(markov_decision.reason, CompanionNotPositive)
        alt = decide_matrix(alternating_square())
        assert isinstance(alt.reason, NonCyclicCycle)
        assert alt.reason.vertices == (0, 1, 2, 3)


def test_criterion_2_mutation_class_equivalence():
    with criterion(2, "decide matches mutation-class oracle (n=3 exhaustive, n=4 sampled)", 60.0):
        mismatches = 0
        for matrix in grid3_corpus() + random4_corpus():
            decision = decide_matrix(matrix)
            form = compute_skew_symmetrizer(matrix)
            report = explore_mutation_class(form, 100_000)
            assert report.status is not ClassStatus.LIMIT_EXCEEDED, matrix.entries
            if decision.finite != (report.status is ClassStatus.FINITE_CLASS):
                mismatches += 1
        assert mismatches == 0
        assert len(grid3_corpus()) > 300 and len(random4_corpus()) == 500


def test_criterion_3_companion_oracle_equivalence():
    with criterion(3, "sign-condition companion matches brute-force search (200 quivers)", 10.0):
        for matrix in co_corpus():
            form = compute_skew_symmetrizer(matrix)
            g = build_quiver(form)
            inventory = chordless_cycles_cod(g)
            fast = isinstance(positive_companion_exists(form, g, inventory), Certificate)
            slow = brute_force_positive_companion(form) is not None
            assert fast == slow, matrix.entries


def test_criterion_4_sign_condition_invariant():
    with criterion(4, "sign condition holds on every chordless cycle, zero violations"):
        checked = 0
        for matrix in all_corpus_matrices():
            stage = companion_stage(matrix)
            if stage is None:
                continue
            inventory, companion = stage
            assert satisfies_sign_condition(companion, inventory.cycles), matrix.entries
            checked += 1
        assert checked > 700


def test_criterion_5_certificates_recheck():
    with criterion(5, "certificates re-verify; failures name an independently checked minor"):
        finite_seen = failed_seen = 0
        for matrix in all_corpus_matrices():
            decision = decide_matrix(matrix)
            if decision.finite:
                assert is_positive(decision.certificate.companion.C)
                finite_seen += 1
            elif isinstance(decision.reason, CompanionNotPositive):
                reason = decision.reason
                rows = reason.companion.C.entries
                value = independent_leading_minor(rows, reason.minor_index)
                assert value == reason.minor
                assert value <= 0
                failed_seen += 1
        assert finite_seen > 200 and failed_seen > 50


def test_criterion_6_involutivity_and_symmetrizer():
    with criterion(6, "10^4 random mutations: involutive, symmetrizer preserved"):
        rng = random.Random(99991)
        for _ in range(10_000):
            n = rng.randint(1, 6)
            rows, d = random_skew_rows(rng, n)
            g = gcd(*d)
            form = SkewForm(SquareIntMatrix.from_rows(rows), tuple(v // g for v in d))
            k = rng.randrange(n)
            once = mutate(form, k)
            dd, b = once.D, once.B.entries
            for i in range(n):
                for j in range(n):
                    assert dd[i] * b[i][j] == -dd[j] * b[j][i]
            assert mutate(once, k).B == form.B


def test_criterion_7_chordless_cycle_correctness():
    with criterion(7, "inventory equals brute-force chordless cycles on 200 graphs"):
        rng = random.Random(171717)
        for _ in range(200):
            n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=8)
            matrix = from_arcs(n, arcs)
            g = build_quiver(compute_skew_symmetrizer(matrix))
            inventory = chordless_cycles_cod(g)
            got = {canonical_undirected(c) for c in inventory.cycles}
            expected = brute_chordless_cycles(n, [tuple(sorted(e)) for e in arcs])
            assert got == expected
            assert len(inventory.cycles) <= n


def test_criterion_8_complexity_smoke(monkeypatch):
    with criterion(8, "n=500 path, n=300 cycle, n=20000 path and cycle decide within budget"):
        t0 = time.monotonic()
        decision = decide_matrix(a_path(500))
        path_elapsed = time.monotonic() - t0
        assert decision.finite
        assert path_elapsed < 2.0, f"path took {path_elapsed:.2f}s"

        t0 = time.monotonic()
        decision = decide_matrix(cyclic_cycle(300))
        cycle_elapsed = time.monotonic() - t0
        assert decision.finite
        assert cycle_elapsed < 2.0, f"cycle took {cycle_elapsed:.2f}s"

        # built from their nonzero rows; reading a dense view of either B or
        # C fails at once instead of allocating n^2 entries
        n = 20_000
        rng = random.Random(8)
        path = sparse_from_arcs(n, dict(
            ((i, i + 1) if rng.random() < 0.5 else (i + 1, i), 1) for i in range(n - 1)))
        cycle = sparse_from_arcs(n, {(i, (i + 1) % n): 1 for i in range(n)})

        def no_dense_view(matrix):
            raise AssertionError(f"the dense view of an n = {matrix.n} matrix was read")

        for name, matrix, det in (("path", path, n + 1), ("cycle", cycle, 4)):
            with monkeypatch.context() as patch:
                patch.setattr(SquareIntMatrix, "entries", property(no_dense_view))
                t0 = time.monotonic()
                decision = decide_matrix(matrix)
                elapsed = time.monotonic() - t0
            assert decision.finite
            # det of the A_n and D_n Cartan matrices, which sign switching keeps
            assert decision.certificate.minors[-1] == det, name
            assert elapsed < 2.0, f"n = {n} {name} took {elapsed:.2f}s"


def test_criterion_9_sign_flip_invariance():
    with criterion(9, "100 positive companions invariant under sign-flip conjugation"):
        rng = random.Random(313131)
        collected = 0
        attempts = 0
        while collected < 100:
            attempts += 1
            assert attempts < 5000, "generator failed to produce positive companions"
            n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=8, asym_weights=True)
            matrix = from_arcs(n, arcs)
            form = compute_skew_symmetrizer(matrix)
            g = build_quiver(form)
            inventory = chordless_cycles_cod(g)
            result = positive_companion_exists(form, g, inventory)
            if not isinstance(result, Certificate):
                continue
            collected += 1
            c = result.companion.C.entries
            for _ in range(3):
                flips = [rng.choice((-1, 1)) for _ in range(n)]
                conjugated = SquareIntMatrix.from_rows(
                    [[flips[i] * c[i][j] * flips[j] for j in range(n)] for i in range(n)]
                )
                assert is_positive(conjugated)
