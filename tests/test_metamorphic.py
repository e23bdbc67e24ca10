"""Metamorphic invariants of the decision at n = 500, beyond the oracles' reach.

Finite type is unchanged by mutation (Fomin-Zelevinsky), by relabeling the
vertices, by B -> -B and by B -> -B^T (the Langlands dual, which swaps B_n
and C_n).  The seeds are the Dynkin paths A, B, C and D and the affine B~,
C~ and D~ at n = 500, the affine E~8 and a cyclic triangle.  Each seed and a
300-step mutation walk of it are decided under all four transforms, and the
certificates must follow the transform: relabeling maps the cycle inventory,
-B reverses every cycle and keeps the leading minors, and -B^T has B's
quiver and so B's cycles.
"""

import random

import pytest

from finitype import (
    CompanionNotPositive,
    SquareIntMatrix,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    decide_matrix,
)

from helpers import (
    a_path,
    affine_bcd_arcs,
    affine_e_arcs,
    bc_path,
    cyclic_triangle,
    d_fork,
    from_arcs,
    independent_leading_minor,
    mutation_walk,
    sparse_from_arcs,
)

N = 500
WALK_STEPS = 300
CHECKED_ORDERS = (1, 2, 5)  # plus n, each when at most MAX_CHECKED_ORDER
MAX_CHECKED_ORDER = 60

SEEDS = {
    f"A{N}": (a_path(N), True),
    f"B{N}": (bc_path(N, heavy_first=True), True),
    f"C{N}": (bc_path(N, heavy_first=False), True),
    f"D{N}": (d_fork(N), True),
    f"affine-B{N}": (from_arcs(*affine_bcd_arcs("B", N)), False),
    f"affine-C{N}": (from_arcs(*affine_bcd_arcs("C", N)), False),
    f"affine-D{N}": (from_arcs(*affine_bcd_arcs("D", N)), False),
    "affine-E8": (sparse_from_arcs(*affine_e_arcs((5, 2, 1))), False),
    "triangle": (cyclic_triangle(), True),
}


def permuted(matrix: SquareIntMatrix, perm: list[int]) -> SquareIntMatrix:
    """Vertex i becomes perm[i], built from the nonzero rows alone."""
    rows = [()] * matrix.n
    for i, row in enumerate(matrix.rows):
        rows[perm[i]] = tuple(sorted((perm[j], v) for j, v in row))
    return SquareIntMatrix(matrix.n, tuple(rows))


def negated(matrix: SquareIntMatrix) -> SquareIntMatrix:
    return SquareIntMatrix(matrix.n, tuple(tuple((j, -v) for j, v in row) for row in matrix.rows))


def negated_transpose(matrix: SquareIntMatrix) -> SquareIntMatrix:
    rows = [[] for _ in range(matrix.n)]
    for i, row in enumerate(matrix.rows):  # ascending i keeps every new row sorted
        for j, v in row:
            rows[j].append((i, -v))
    return SquareIntMatrix(matrix.n, tuple(map(tuple, rows)))


def min_first(walk) -> tuple[int, ...]:
    start = walk.index(min(walk))
    return tuple(walk[start:]) + tuple(walk[:start])


def inventory(matrix: SquareIntMatrix):
    """(cycles, single edges) as sets; every seed and walk here is cyclically oriented."""
    inv = chordless_cycles_cod(build_quiver(compute_skew_symmetrizer(matrix)))
    return set(inv.cycles), set(inv.single_edges)


def minors_of(decision):
    if decision.finite:
        return decision.certificate.minors
    if isinstance(decision.reason, CompanionNotPositive):
        return decision.reason.minor_index, decision.reason.minor
    return None


def recheck_minors(decision, n: int) -> None:
    """FiniteType minors, and a NotFinite companion's failing minor, recomputed independently."""
    if decision.finite:
        dense = decision.certificate.companion.C.entries
        for k in sorted({k for k in (*CHECKED_ORDERS, n) if k <= min(n, MAX_CHECKED_ORDER)}):
            assert decision.certificate.minors[k - 1] == independent_leading_minor(dense, k)
    elif isinstance(decision.reason, CompanionNotPositive):
        k = decision.reason.minor_index
        if k <= MAX_CHECKED_ORDER:
            dense = decision.reason.companion.C.entries
            assert decision.reason.minor == independent_leading_minor(dense, k)


@pytest.mark.parametrize("name", SEEDS)
def test_transforms_keep_verdict_and_follow_certificates(name):
    seed, finite = SEEDS[name]
    rng = random.Random(name)
    for base in (seed, mutation_walk(seed, WALK_STEPS, rng)):
        n = base.n
        perm = list(range(n))
        rng.shuffle(perm)
        images = {
            "none": base,
            "permuted": permuted(base, perm),
            "-B": negated(base),
            "-B^T": negated_transpose(base),
        }
        decisions = {label: decide_matrix(m) for label, m in images.items()}
        for label, decision in decisions.items():
            assert decision.finite is finite, (name, label)
            recheck_minors(decision, n)
        assert minors_of(decisions["-B"]) == minors_of(decisions["none"])

        cycles, single_edges = found = inventory(base)
        assert inventory(images["permuted"]) == (
            {min_first([perm[v] for v in c]) for c in cycles},
            {tuple(sorted((perm[u], perm[v]))) for u, v in single_edges},
        )
        assert inventory(images["-B"]) == ({min_first(c[::-1]) for c in cycles}, single_edges)
        assert inventory(images["-B^T"]) == found
