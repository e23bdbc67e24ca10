"""Exact integer matrix kernel.

Everything here is exact: matrices hold arbitrary-precision Python ints,
symmetrizers are propagated as reduced integer ratios and canonicalized to
coprime positive integers, and ``D*B`` is checked in integers.  No floating
point anywhere; the positivity test needs the exact sign of every leading
principal minor.

A ``SquareIntMatrix`` stores only its nonzero entries: for each row, the
(column, value) pairs in ascending column order.  Every check below walks
those pairs, so each costs O(n + m) on a matrix with m nonzero entries, and
elimination costs O(n + m) plus its fill, besides the arithmetic.  A check
that needs b_ji next to b_ij reads it from the matrix's columns, built once
per call in O(n + m).  The dense grid, ``entries``, is built only when
something reads it, and not kept; ``from_rows`` is the one place that scans
an n-by-n grid.

One routine, ``leading_principal_minors``, does all elimination:
fraction-free (Bareiss) steps over the matrix's sparse rows, whose k-th
pivot is the k-th leading minor.  It stops at the first pivot <= 0, all
that Sylvester's criterion reads, so every divisor is an earlier, positive
pivot.

Step k of Bareiss elimination replaces each lower row by
(p_k * a_ij - a_ik * a_kj) / p_{k-1}, with p_k the pivot of step k and
p_{-1} = 1.  A row with a_ik = 0 is only multiplied by p_k / p_{k-1}, so
the routine keeps a column index of the lower rows with a nonzero in each
column and updates only those: on a path a step is O(1) work instead of
O(n).  A row skipped from step s through step k - 1 still holds its step-s
values, and the product of its skipped factors telescopes to
p_{k-1} / p_{s-1}.  Every entry after any number of steps is a minor of
the matrix (Sylvester's identity, Bareiss 1968), hence an integer.  So
multiplying a stale row by p_{k-1} and dividing by p_{s-1} is exact, and
so is updating it at step k straight from its step-s values by
(p_k * a_ij - a_ik * a_kj) / p_{s-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm
from operator import index
from typing import Iterable, Optional

Row = tuple[tuple[int, int], ...]  # (column, value) pairs of the nonzero entries, ascending

# One shared object per pair with a small column and value, as CPython shares
# small ints: most entries of a small matrix then cost one pointer, as in a
# dense grid, instead of a 56-byte pair of their own.  Never mutated.
SMALL_PAIRS = {(j, v): (j, v) for j in range(64) for v in range(-4, 5) if v}


class NotSkewSymmetrizableError(ValueError):
    """No positive diagonal D with D*B skew-symmetric exists."""


@dataclass(frozen=True)
class SquareIntMatrix:
    """n-by-n matrix of arbitrary-precision integers, stored by its nonzero entries.

    ``rows[i]`` holds the (column, value) pairs of row i's nonzero entries
    in ascending column order, so equal matrices have equal rows.  The
    dense grid is not kept: ``entries`` builds it on every read.
    """

    n: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError("a matrix needs exactly n rows")
        for row in self.rows:
            last = -1
            for j, v in row:
                if not (isinstance(j, int) and isinstance(v, int)):
                    raise ValueError("columns and values must be ints")
                if not last < j < self.n or not v:
                    raise ValueError(
                        "each row must hold nonzero entries in ascending columns below n"
                    )
                last = j

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SquareIntMatrix":
        """The matrix of dense rows: one scan of the n-by-n grid.

        Each entry goes through ``operator.index``, so a float or a string
        raises TypeError instead of being truncated or parsed.
        """
        grid = [tuple(map(index, row)) for row in rows]
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("entries must form an n-by-n grid")
        return cls(n, tuple(
            tuple(SMALL_PAIRS.get(p, p) for p in zip(compress(range(n), row), filter(None, row)))
            for row in grid
        ))

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense n-by-n grid, built anew on each read: O(n^2)."""
        grid = []
        for row in self.rows:
            dense = [0] * self.n
            for j, v in row:
                dense[j] = v
            grid.append(tuple(dense))
        return tuple(grid)

    def columns(self) -> list[list[tuple[int, int]]]:
        """(row, value) pairs of each column's nonzero entries, in ascending row order."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, row in enumerate(self.rows):
            for j, v in row:
                cols[j].append((i, v))
        return cols


@dataclass(frozen=True)
class SkewForm:
    """A skew-symmetrizable matrix together with its canonical symmetrizer.

    ``D`` holds the diagonal d_1, ..., d_n: positive integers with overall
    gcd 1.  Any valid symmetrizer over the rationals scales to this form,
    and construction rejects any other.
    """

    B: SquareIntMatrix
    D: tuple[int, ...]

    def __post_init__(self) -> None:
        """Check D's canonical form, then d_i * b_ij == -d_j * b_ji at every nonzero entry.

        The entries are checked in row-major order.  With D positive this
        also forces a zero diagonal and each pair both zero or opposite in
        sign: a nonzero entry whose partner breaks that rule fails the
        equation at the entry itself.
        """
        d = self.D
        if any(v <= 0 for v in d):
            raise ValueError("symmetrizer entries must be positive")
        if d and gcd(*d) != 1:
            raise ValueError("symmetrizer entries must have gcd 1")
        if self.B.n != len(d):
            raise ValueError("matrix and symmetrizer dimensions differ")
        for i, (row, col) in enumerate(zip(self.B.rows, self.B.columns())):
            partner = dict(col)  # b_ji by j
            for j, v in row:
                if d[i] * v != -d[j] * partner.get(j, 0):
                    raise NotSkewSymmetrizableError(
                        f"D*B is not skew-symmetric at vertices ({i + 1}, {j + 1})"
                    )

    @property
    def n(self) -> int:
        return self.B.n


def compute_skew_symmetrizer(B: SquareIntMatrix) -> SkewForm:
    """Find the canonical positive diagonal D with D*B skew-symmetric.

    One free scale exists per connected component of B's pattern; it is
    fixed by setting d = 1 on the smallest vertex of the component and
    propagating d_j = d_i * |b_ij| / |b_ji| breadth-first, each d_j kept as
    a reduced pair (num, den) of ints.  Each row is checked by signs as the
    search reaches it: its pattern must equal that of the same column and
    each pair b_ij, b_ji must be opposite in sign, which also rules out a
    diagonal entry.  Then zipping row i with column i pairs each b_ij with
    b_ji.  Scaling by the lcm of the denominators and dividing by the gcd
    of the results gives coprime positive integers.  The SkewForm then
    checks D*B at every nonzero entry, which catches inconsistent cycles.
    Raises NotSkewSymmetrizableError when no D exists.
    """
    rows, cols = B.rows, B.columns()
    num = [0] * B.n  # 0 marks a vertex not reached yet
    den = [1] * B.n
    for root in range(B.n):
        if num[root]:
            continue
        num[root] = 1
        queue = [root]
        for i in queue:
            row, col = rows[i], cols[i]
            if len(row) != len(col):
                raise NotSkewSymmetrizableError("matrix is not skew-symmetric by signs")
            for (j, v), (k, w) in zip(row, col):
                if j != k or v * w >= 0:
                    raise NotSkewSymmetrizableError("matrix is not skew-symmetric by signs")
                if not num[j]:
                    p, q = num[i] * abs(v), den[i] * abs(w)
                    g = gcd(p, q)
                    num[j], den[j] = p // g, q // g
                    queue.append(j)
    scale = lcm(*den)
    d = [p * (scale // q) for p, q in zip(num, den)]
    g = gcd(*d)
    return SkewForm(B, tuple(v // g for v in d))


def leading_principal_minors(M: SquareIntMatrix) -> list[int]:
    """det(M[:k, :k]) for k = 1, 2, ... up to and including the first one <= 0, exactly.

    With no minor <= 0 the list holds all n of them.  Rows are
    {column: value} dicts of the matrix's nonzero pairs.  ``below[j]``
    holds the lower rows with a nonzero in column j, kept current on fill
    and cancellation, and step k updates only the rows in ``below[k]``.
    Row i holds the values of step ``stamp[i]``, and ``scale[k]`` is
    p_{k-1}, the divisor of step k.  A stale row is brought up to date
    only when it is used: as the pivot row, it is multiplied by
    scale[k] / scale[stamp[k]]; as a row to update, its Bareiss step
    divides by scale[stamp[i]] instead of scale[k].  The module docstring
    says why both divisions are exact.
    """
    rows = [dict(row) for row in M.rows]
    below: list[set[int]] = [set() for _ in range(M.n)]
    for i, row in enumerate(rows):
        for j in row:
            below[j].add(i)
    minors: list[int] = []
    scale = [1]
    stamp = [0] * M.n
    for k in range(M.n):
        pivot_row, prev, held = rows[k], scale[k], scale[stamp[k]]
        if prev != held:
            pivot_row = {j: v * prev // held for j, v in pivot_row.items()}
        p = pivot_row.get(k, 0)
        minors.append(p)
        if p <= 0:
            break
        for j in pivot_row:
            below[j].discard(k)
        rest = [(j, w) for j, w in pivot_row.items() if j != k]
        for i in below[k]:
            ri = rows[i]
            aik = ri.pop(k)
            merged = {j: v * p for j, v in ri.items()}
            for j, w in rest:
                if j in merged:
                    val = merged[j] - aik * w
                    if val:
                        merged[j] = val
                    else:
                        del merged[j]
                        below[j].discard(i)
                else:
                    merged[j] = -aik * w
                    below[j].add(i)
            divisor = scale[stamp[i]]
            rows[i] = {j: v // divisor for j, v in merged.items()}
            stamp[i] = k + 1
        scale.append(p)
    return minors


def first_nonpositive_minor(M: SquareIntMatrix) -> Optional[tuple[int, int]]:
    """(k, det) for the smallest k with det(M[:k, :k]) <= 0, else None.

    k counts block size, so it is 1-based by nature.
    """
    minors = leading_principal_minors(M)
    if minors and minors[-1] <= 0:
        return len(minors), minors[-1]
    return None
