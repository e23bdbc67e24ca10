"""Exact integer and rational matrix kernel.

Everything here is exact: matrices hold arbitrary-precision Python ints,
symmetrizers are built with ``fractions.Fraction`` and canonicalized to
coprime positive integers, and ``D*B`` is checked in integers.  No floating
point anywhere; the positivity test needs the exact sign of every leading
principal minor.

One routine, ``_pivots``, does all elimination: fraction-free (Bareiss)
steps over sparse rows of a leading block.  Its k-th value is the k-th
leading minor of the block.  On a zero pivot it swaps in the first lower
row with a nonzero in that column, negated, which keeps the determinant, so
every later value is still a leading minor of the modified block and the
last one is the determinant; with no such row the block is singular and the
routine stops after the zero.  Values up to and including the first zero
are therefore the leading minors of the matrix itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence


class NotSkewSymmetrizableError(ValueError):
    """No positive diagonal D with D*B skew-symmetric exists."""


@dataclass(frozen=True)
class SquareIntMatrix:
    """Dense n-by-n matrix of arbitrary-precision integers."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError("entries must form an n-by-n grid")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SquareIntMatrix":
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        return cls(len(grid), grid)

    @classmethod
    def identity(cls, n: int) -> "SquareIntMatrix":
        return cls(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class DiagonalRational:
    """Positive diagonal symmetrizer, canonicalized.

    Entries are kept as positive integers with overall gcd 1; any valid
    symmetrizer over the rationals scales to this form.
    """

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.d):
            raise ValueError("symmetrizer entries must be positive")
        if self.d and gcd(*self.d) != 1:
            raise ValueError("symmetrizer entries must have gcd 1")

    @property
    def n(self) -> int:
        return len(self.d)

    @classmethod
    def from_fractions(cls, values: Sequence[Fraction]) -> "DiagonalRational":
        """Scale positive rationals to coprime positive integers."""
        if not values:
            return cls(())
        if any(v <= 0 for v in values):
            raise ValueError("symmetrizer entries must be positive")
        scale = lcm(*(v.denominator for v in values))
        ints = [int(v * scale) for v in values]
        g = gcd(*ints)
        return cls(tuple(v // g for v in ints))


@dataclass(frozen=True)
class SkewForm:
    """A skew-symmetrizable matrix together with its canonical symmetrizer."""

    B: SquareIntMatrix
    D: DiagonalRational

    def __post_init__(self) -> None:
        """Check d_i * b_ij == -d_j * b_ji at every nonzero entry.

        With D positive this also forces a zero diagonal and each pair
        both zero or opposite in sign: a nonzero entry whose partner breaks
        that rule fails the equation at the entry itself.
        """
        if self.B.n != self.D.n:
            raise ValueError("matrix and symmetrizer dimensions differ")
        b, d = self.B.entries, self.D.d
        for i, row in enumerate(b):
            for j in compress(range(len(row)), row):
                if d[i] * row[j] != -d[j] * b[j][i]:
                    raise NotSkewSymmetrizableError(
                        f"D*B is not skew-symmetric at vertices ({i + 1}, {j + 1})"
                    )

    @property
    def n(self) -> int:
        return self.B.n


def _neighbors(B: SquareIntMatrix) -> list[list[tuple[int, int]]]:
    """Nonzero (column, value) pairs per row, in column order.

    Raises NotSkewSymmetrizableError on a nonzero diagonal entry, or on a
    nonzero entry whose partner is zero or has the same sign.
    """
    b = B.entries
    out = []
    for i, row in enumerate(b):
        pairs = [(j, row[j]) for j in compress(range(len(row)), row)]
        for j, v in pairs:
            if v * b[j][i] >= 0:  # includes i == j, where the partner is v itself
                raise NotSkewSymmetrizableError("matrix is not skew-symmetric by signs")
        out.append(pairs)
    return out


def is_skew_symmetric_by_signs(B: SquareIntMatrix) -> bool:
    """Zero diagonal, and each off-diagonal pair both zero or opposite in sign."""
    try:
        _neighbors(B)
    except NotSkewSymmetrizableError:
        return False
    return True


def compute_skew_symmetrizer(B: SquareIntMatrix) -> SkewForm:
    """Find the canonical positive diagonal D with D*B skew-symmetric.

    One pass collects the nonzero pairs and rejects sign violations.  One
    free scale exists per connected component of that pattern; it is fixed
    by setting d = 1 on the smallest vertex of the component and
    propagating d_j = d_i * (-b_ij / b_ji) breadth-first.  The SkewForm
    then checks D*B at every nonzero entry, which catches inconsistent
    cycles.  Raises NotSkewSymmetrizableError when no D exists.
    """
    adjacency = _neighbors(B)
    b = B.entries
    d: list[Optional[Fraction]] = [None] * B.n
    for root in range(B.n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j, v in adjacency[i]:
                if d[j] is None:
                    d[j] = d[i] * Fraction(-v, b[j][i])
                    queue.append(j)
    return SkewForm(B, DiagonalRational.from_fractions(d))


def _pivots(M: SquareIntMatrix, size: int) -> Iterator[int]:
    """Fraction-free elimination pivots of the leading size-by-size block.

    Rows are sparse {column: value} dicts, so banded input costs
    O(size * nonzeros) instead of O(size^3); every division is exact.  See
    the module docstring for what the values are and the zero-pivot rule.
    """
    rows = [{j: row[j] for j in compress(range(size), row)} for row in M.entries[:size]]
    prev = 1
    for k in range(size):
        p = rows[k].get(k, 0)
        yield p
        if p == 0:
            swap = next((i for i in range(k + 1, size) if k in rows[i]), None)
            if swap is None:
                return
            rows[k], rows[swap] = {j: -v for j, v in rows[swap].items()}, rows[k]
            p = rows[k][k]
        pivot_row = [(j, w) for j, w in rows[k].items() if j > k]
        for i in range(k + 1, size):
            ri = rows[i]
            aik = ri.pop(k, 0)
            if aik == 0:
                if ri and p != prev:
                    rows[i] = {j: v * p // prev for j, v in ri.items()}
                continue
            merged = {j: v * p for j, v in ri.items()}
            for j, w in pivot_row:
                val = merged.get(j, 0) - aik * w
                if val:
                    merged[j] = val
                elif j in merged:
                    del merged[j]
            rows[i] = {j: v // prev for j, v in merged.items()}
        prev = p


def _block_determinant(M: SquareIntMatrix, size: int) -> int:
    det = 1
    for det in _pivots(M, size):
        pass
    return det


def determinant(M: SquareIntMatrix) -> int:
    """Exact determinant; the empty matrix has determinant 1."""
    return _block_determinant(M, M.n)


def leading_principal_minors(M: SquareIntMatrix) -> list[int]:
    """det(M[:k, :k]) for k = 1..n, exactly.

    One elimination pass covers everything up to and including the first
    zero minor; each minor past it comes from a fresh pass over its own
    block (rare, and only hit by singular leading blocks).
    """
    minors: list[int] = []
    for p in _pivots(M, M.n):
        minors.append(p)
        if p == 0:
            break
    minors.extend(_block_determinant(M, k) for k in range(len(minors) + 1, M.n + 1))
    return minors


def first_nonpositive_minor(M: SquareIntMatrix) -> Optional[tuple[int, int]]:
    """(k, det) for the smallest k with det(M[:k, :k]) <= 0, else None.

    k counts block size, so it is 1-based by nature.
    """
    for k, p in enumerate(_pivots(M, M.n), start=1):
        if p <= 0:
            return k, p
    return None


def is_positive(M: SquareIntMatrix) -> bool:
    """Sylvester criterion: every leading principal minor strictly positive.

    Valid for symmetrizable matrices, not just symmetric ones; the empty
    matrix is vacuously positive.
    """
    return first_nonpositive_minor(M) is None
