"""Independent ground truth: matrix mutation and brute-force searches.

These operations exist to cross-validate the main decision on small
instances.  Mutation-class exploration checks the bounded-entry criterion
(|b'_ij * b'_ji| <= 3 across the whole class); the exhaustive companion
search tries every sign pattern up to vertex switching.  Both are
exponential in general and share no code with the decision.

Both searches stay exhaustive; four shortcuts make them cheaper without
changing any answer:

- Mutation at k changes b_ij only when b_ik and b_kj are both nonzero, and
  only flips signs in row and column k.  So the result shares every row
  i != k with b_ik = 0 with its parent and rebuilds only row k and the rows
  of k's neighbours.  The class search keeps one tuple per dense row for
  this reason: a step with d neighbours copies n row references and
  (d + 1) * n entries, where one flat tuple of n * n entries would be
  copied whole.  Measured on
  one 2-vCPU x86_64 host, CPython 3.11, a flat tuple was 1.2x faster on
  the full E6 class but 3.6x and 4.9x slower on paths of n = 60 and 150.
- For the same reason |b_ij * b_ji| can change only when i and j are both
  neighbours of k.  Every matrix the class search expands has no product
  >= 4, so scanning the pairs of k's neighbours in row-major order finds the
  same first witness as scanning all pairs.
- Mutation is an involution: mu_k(mu_k(B)) == B exactly.  Mutating a
  matrix again at the direction that produced it would only return its
  parent, which the search has already seen, so that step is skipped.
- Switching the signs at one vertex (C -> S C S with S = diag(+-1)) keeps
  every leading principal minor, and it can set the sign of any spanning
  forest's arcs freely.  So the companion search fixes the forest arcs at +1
  and enumerates only the other arcs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from operator import neg
from typing import Optional, Sequence

from .companion import QuasiCartanCompanion
from .exactmat import SkewForm, SquareIntMatrix

DEFAULT_CLASS_LIMIT = 100_000
DEFAULT_ARC_CAP = 20

Entries = tuple[tuple[int, ...], ...]


class CapExceededError(ValueError):
    """Brute-force companion search refused: too many arcs."""


def _mutate_entries(b: Entries, k: int, nbrs: Sequence[int]) -> Entries:
    """Entries of mu_k(B); rows i != k with b_ik == 0 are B's own row tuples.

    ``nbrs`` lists the j with b_kj != 0 in ascending order.  B's nonzero
    pattern is symmetric (as for any SkewForm), so these are exactly the
    rows that change besides row k, and b_ij changes only when j is one of
    them too; each b_kj is read from row k over ``nbrs`` alone.  With it the
    full A6 / D6 / E6 classes take 0.48 / 0.62 / 0.64 s, against 0.64 /
    0.78 / 0.84 s when each step scanned all of row k twice for its signed
    neighbours (min of 3, same host as the module docstring).
    """
    row_k = b[k]
    rows = list(b)
    rows[k] = tuple(map(neg, row_k))
    for i in nbrs:
        row = list(b[i])
        bik = row[k]
        row[k] = -bik
        # b_ij gains sgn(b_ik) * b_ik * b_kj = |b_ik| * b_kj where b_kj has b_ik's sign
        if bik > 0:
            for j in nbrs:
                bkj = row_k[j]
                if bkj > 0:
                    row[j] += bik * bkj
        else:
            for j in nbrs:
                bkj = row_k[j]
                if bkj < 0:
                    row[j] -= bik * bkj
        rows[i] = tuple(row)
    return tuple(rows)


def mutate(form: SkewForm, k: int) -> SkewForm:
    """Matrix mutation in direction k (0-based).

    Entries in row/column k flip sign; elsewhere b_ij gains
    sgn(b_ik) * max(b_ik * b_kj, 0).  Rows i != k with b_ik == 0 are
    unchanged and shared with B.  The result shares B's symmetrizer, which the
    returned SkewForm re-verifies.  Works on the nonzero pairs, so the dense
    grid is never built: B's pattern is symmetric, so row k lists exactly the
    rows that change.  ``_mutate_entries`` is the same rule on dense rows.
    """
    if not 0 <= k < form.n:
        raise IndexError(f"mutation direction {k} out of range for n={form.n}")
    b = form.B.rows
    rows = list(b)
    rows[k] = tuple((j, -v) for j, v in b[k])
    pos = [(j, v) for j, v in b[k] if v > 0]
    neg = [(j, v) for j, v in b[k] if v < 0]
    for i, _ in b[k]:
        row = dict(b[i])
        bik = row[k]
        row[k] = -bik
        # b_ij gains |b_ik| * b_kj where b_kj has b_ik's sign
        for j, v in pos if bik > 0 else neg:
            row[j] = row.get(j, 0) + abs(bik) * v
        rows[i] = tuple(sorted((j, v) for j, v in row.items() if v))
    return SkewForm(SquareIntMatrix(form.n, tuple(rows)), form.D)


class ClassStatus(Enum):
    FINITE_CLASS = "FiniteClass"
    LARGE_ENTRY_FOUND = "LargeEntryFound"
    LIMIT_EXCEEDED = "LimitExceeded"


@dataclass(frozen=True)
class LargeEntry:
    """Witness pair with |b_ij * b_ji| >= 4 in some matrix of the class."""

    i: int
    j: int
    value: int


@dataclass(frozen=True)
class MutationClassReport:
    status: ClassStatus
    visited: int
    limit: int
    witness: Optional[LargeEntry] = None


def _find_large_entry(b: Entries, vertices: Sequence[int]) -> Optional[LargeEntry]:
    """First pair i < j of ``vertices`` (ascending) with |b_ij * b_ji| >= 4."""
    for pos, i in enumerate(vertices):
        row = b[i]
        for j in vertices[pos + 1:]:
            value = abs(row[j] * b[j][i])
            if value >= 4:
                return LargeEntry(i, j, value)
    return None


def explore_mutation_class(
    form: SkewForm, limit: int = DEFAULT_CLASS_LIMIT
) -> MutationClassReport:
    """Breadth-first search of the mutation class, deduplicated by exact equality.

    Stops at the first matrix with some |b'_ij * b'_ji| >= 4 (the seed
    included), with FiniteClass once no new matrix appears, or with
    LimitExceeded after more than ``limit`` distinct matrices.  Only
    k's neighbours are scanned for a witness after a mutation at k, and a
    matrix is never mutated back along the step that produced it (see the
    module docstring).  Each step lists k's neighbours once, for both the
    mutation and the witness scan.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    seed = form.B.entries
    n = form.n
    vertices = range(n)
    witness = _find_large_entry(seed, vertices)
    if witness is not None:
        return MutationClassReport(ClassStatus.LARGE_ENTRY_FOUND, 1, limit, witness)
    seen = {seed}
    frontier = [(seed, -1)]  # (matrix, the direction that produced it)
    while frontier:
        next_frontier = []
        for current, came_from in frontier:
            for k in vertices:
                if k == came_from:
                    continue
                nbrs = list(compress(vertices, current[k]))
                candidate = _mutate_entries(current, k, nbrs)
                size = len(seen)
                seen.add(candidate)  # one hash; a matrix already seen leaves the size as it was
                if len(seen) == size:
                    continue
                witness = _find_large_entry(candidate, nbrs)
                if witness is not None:
                    return MutationClassReport(
                        ClassStatus.LARGE_ENTRY_FOUND, len(seen), limit, witness
                    )
                if len(seen) > limit:
                    return MutationClassReport(ClassStatus.LIMIT_EXCEEDED, len(seen), limit)
                next_frontier.append((candidate, k))
        frontier = next_frontier
    return MutationClassReport(ClassStatus.FINITE_CLASS, len(seen), limit)


def _is_positive_dense(rows: list[list[int]]) -> bool:
    """Every leading principal minor of ``rows`` is positive.

    Dense fraction-free elimination that stops at the first pivot <= 0;
    the search keeps its own copy so it shares no elimination code with
    the decision it cross-checks.  ``rows`` is left untouched.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return False
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik:
                for j in range(k + 1, n):
                    row_i[j] = (p * row_i[j] - aik * row_k[j]) // prev
            elif prev != p:
                for j in range(k + 1, n):
                    if row_i[j]:
                        row_i[j] = p * row_i[j] // prev
        prev = p
    return True


def _spanning_forest(n: int, arcs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Arcs that join two components when taken in the given order (union-find)."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = set()
    for i, j in arcs:
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[ri] = rj
            forest.add((i, j))
    return forest


def brute_force_positive_companion(form: SkewForm) -> Optional[QuasiCartanCompanion]:
    """Search the sign patterns over the m arcs; return the first positive companion.

    Arcs are ordered by index pair.  The arcs of the spanning forest that
    this order picks greedily get +1; vertex switching keeps every leading
    minor, so this loses no answer.  The other m - n + c arcs (c connected
    components) are enumerated with +1 before -1 each, the earliest arc
    varying slowest.  So the companion returned is the first positive one
    in that order, for example the all-positive companion when it is
    positive.  Raises CapExceededError when m exceeds ``DEFAULT_ARC_CAP``,
    read at call time.
    """
    n, b = form.n, form.B.entries
    arcs = sorted((i, j) for i in range(n) for j in range(i + 1, n) if b[i][j] != 0)
    if len(arcs) > DEFAULT_ARC_CAP:
        raise CapExceededError(f"{len(arcs)} arcs exceed the cap of {DEFAULT_ARC_CAP}")
    forest = _spanning_forest(n, arcs)
    free = [arc for arc in arcs if arc not in forest]
    base = [[2 if i == j else abs(b[i][j]) for j in range(n)] for i in range(n)]
    rows = [row[:] for row in base]  # forest arcs stay +1; every pattern rewrites the rest
    for pattern in itertools.product((1, -1), repeat=len(free)):
        for (i, j), s in zip(free, pattern):
            rows[i][j] = s * base[i][j]
            rows[j][i] = s * base[j][i]
        if _is_positive_dense(rows):
            return QuasiCartanCompanion(SquareIntMatrix.from_rows(rows))
    return None
