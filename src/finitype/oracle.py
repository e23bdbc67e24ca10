"""Independent ground truth: matrix mutation and brute-force searches.

These operations exist to cross-validate the main decision on small
instances.  Mutation-class exploration checks the bounded-entry criterion
(|b'_ij * b'_ji| <= 3 across the whole class); the exhaustive companion
search tries all 2^m sign patterns.  Both are exponential in general and
deliberately simple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .companion import QuasiCartanCompanion
from .exactmat import SkewForm, SquareIntMatrix

DEFAULT_CLASS_LIMIT = 100_000
DEFAULT_ARC_CAP = 20

Entries = tuple[tuple[int, ...], ...]


class CapExceededError(ValueError):
    """Brute-force companion search refused: too many arcs."""


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _mutate_entries(b: Entries, k: int) -> Entries:
    n = len(b)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-b[i][j])
            else:
                row.append(b[i][j] + _sgn(b[i][k]) * max(b[i][k] * b[k][j], 0))
        rows.append(tuple(row))
    return tuple(rows)


def mutate(form: SkewForm, k: int) -> SkewForm:
    """Matrix mutation in direction k (0-based).

    Entries in row/column k flip sign; elsewhere b_ij gains
    sgn(b_ik) * max(b_ik * b_kj, 0).  The result shares B's symmetrizer,
    which the returned SkewForm re-verifies.
    """
    if not 0 <= k < form.n:
        raise IndexError(f"mutation direction {k} out of range for n={form.n}")
    return SkewForm(SquareIntMatrix(form.n, _mutate_entries(form.B.entries, k)), form.D)


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


def _find_large_entry(b: Entries) -> Optional[LargeEntry]:
    n = len(b)
    for i in range(n):
        for j in range(i + 1, n):
            value = abs(b[i][j] * b[j][i])
            if value >= 4:
                return LargeEntry(i, j, value)
    return None


def explore_mutation_class(
    form: SkewForm, limit: int = DEFAULT_CLASS_LIMIT
) -> MutationClassReport:
    """Breadth-first search of the mutation class, deduplicated by exact equality.

    Stops at the first matrix with some |b'_ij * b'_ji| >= 4 (the seed
    included), with FiniteClass once no new matrix appears, or with
    LimitExceeded after more than ``limit`` distinct matrices.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    seed = form.B.entries
    witness = _find_large_entry(seed)
    if witness is not None:
        return MutationClassReport(ClassStatus.LARGE_ENTRY_FOUND, 1, limit, witness)
    seen = {seed}
    frontier = [seed]
    n = form.n
    while frontier:
        next_frontier = []
        for current in frontier:
            for k in range(n):
                candidate = _mutate_entries(current, k)
                if candidate in seen:
                    continue
                seen.add(candidate)
                witness = _find_large_entry(candidate)
                if witness is not None:
                    return MutationClassReport(
                        ClassStatus.LARGE_ENTRY_FOUND, len(seen), limit, witness
                    )
                if len(seen) > limit:
                    return MutationClassReport(ClassStatus.LIMIT_EXCEEDED, len(seen), limit)
                next_frontier.append(candidate)
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


def brute_force_positive_companion(
    form: SkewForm, arc_cap: int = DEFAULT_ARC_CAP
) -> Optional[QuasiCartanCompanion]:
    """Try all 2^m sign patterns over the m arcs; return the first positive companion.

    Patterns are enumerated with +1 before -1 per arc (arcs ordered by
    index pair), so for example the all-positive companion is tried first.
    Raises CapExceededError when m exceeds ``arc_cap``.
    """
    n, b = form.n, form.B.entries
    arcs = sorted((i, j) for i in range(n) for j in range(i + 1, n) if b[i][j] != 0)
    if len(arcs) > arc_cap:
        raise CapExceededError(f"{len(arcs)} arcs exceed the cap of {arc_cap}")
    base = [[2 if i == j else abs(b[i][j]) for j in range(n)] for i in range(n)]
    rows = [row[:] for row in base]  # every pattern rewrites all arc entries
    for pattern in itertools.product((1, -1), repeat=len(arcs)):
        for (i, j), s in zip(arcs, pattern):
            rows[i][j] = s * base[i][j]
            rows[j][i] = s * base[j][i]
        if _is_positive_dense(rows):
            return QuasiCartanCompanion(SquareIntMatrix.from_rows(rows))
    return None
