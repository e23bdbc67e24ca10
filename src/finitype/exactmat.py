"""Exact integer matrix kernel.

Everything here is exact: matrices hold arbitrary-precision Python ints,
symmetrizers are propagated as reduced integer ratios and canonicalized to
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

Step k of Bareiss elimination replaces each lower row by
(p_k * a_ij - a_ik * a_kj) / p_{k-1}, with p_k the pivot of step k (the
swapped-in one after a zero) and p_{-1} = 1.  A row with a_ik = 0 is only
multiplied by p_k / p_{k-1}, so ``_pivots`` keeps a column index of the
lower rows with a nonzero in each column and updates only those: on a
path a step is O(1) work instead of O(n).  A row skipped from step s
through step k - 1 still holds its step-s values, and the product of its
skipped factors telescopes to p_{k-1} / p_{s-1}.  Every entry after any
number of steps is a minor of the row-swapped matrix (Sylvester's
identity, Bareiss 1968), hence an integer.  So multiplying a stale row by
p_{k-1} and dividing by p_{s-1} is exact, and so is updating it at step k
straight from its step-s values by (p_k * a_ij - a_ik * a_kj) / p_{s-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Optional


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


@dataclass(frozen=True)
class DiagonalRational:
    """Positive diagonal symmetrizer, canonicalized.

    Entries are positive integers with overall gcd 1; any valid symmetrizer
    over the rationals scales to this form, and construction rejects any
    other.
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


def compute_skew_symmetrizer(B: SquareIntMatrix) -> SkewForm:
    """Find the canonical positive diagonal D with D*B skew-symmetric.

    One pass collects the nonzero pairs and rejects sign violations.  One
    free scale exists per connected component of that pattern; it is fixed
    by setting d = 1 on the smallest vertex of the component and
    propagating d_j = d_i * |b_ij| / |b_ji| breadth-first, each d_j kept as
    a reduced pair (num, den) of ints.  Scaling by the lcm of the
    denominators and dividing by the gcd of the results gives coprime
    positive integers.  The SkewForm then checks D*B at every nonzero
    entry, which catches inconsistent cycles.  Raises
    NotSkewSymmetrizableError when no D exists.
    """
    adjacency = _neighbors(B)
    b = B.entries
    num = [0] * B.n  # 0 marks a vertex not reached yet
    den = [1] * B.n
    for root in range(B.n):
        if num[root]:
            continue
        num[root] = 1
        queue = [root]
        for i in queue:
            for j, v in adjacency[i]:
                if not num[j]:
                    p, q = num[i] * abs(v), den[i] * abs(b[j][i])
                    g = gcd(p, q)
                    num[j], den[j] = p // g, q // g
                    queue.append(j)
    scale = lcm(*den)
    d = [p * (scale // q) for p, q in zip(num, den)]
    g = gcd(*d)
    return SkewForm(B, DiagonalRational(tuple(v // g for v in d)))


def _pivots(M: SquareIntMatrix, size: int) -> Iterator[int]:
    """Fraction-free elimination pivots of the leading size-by-size block.

    Rows are sparse {column: value} dicts.  ``below[j]`` holds the lower
    rows with a nonzero in column j, kept current on fill and
    cancellation, and step k updates only the rows in ``below[k]``.  Row i
    holds the values of step ``stamp[i]``, and ``scale[k]`` is p_{k-1},
    the divisor of step k.  A stale row is brought up to date only when it
    is used: as the pivot row or the row swapped in, it is multiplied by
    scale[k] / scale[stamp[i]]; as a row to update, its Bareiss step
    divides by scale[stamp[i]] instead of scale[k].  The module docstring
    says why both divisions are exact, what the values are and the
    zero-pivot rule.
    """
    rows = [{j: row[j] for j in compress(range(size), row)} for row in M.entries[:size]]
    below: list[set[int]] = [set() for _ in range(size)]
    for i, row in enumerate(rows):
        for j in row:
            below[j].add(i)
    scale = [1]
    stamp = [0] * size
    for k in range(size):
        prev = scale[k]
        pivot_row = _current(rows[k], prev, scale[stamp[k]])
        for j in pivot_row:
            below[j].discard(k)
        p = pivot_row.get(k, 0)
        yield p
        if p == 0:
            if not below[k]:
                return
            swap = min(below[k])
            swapped = _current(rows[swap], -prev, scale[stamp[swap]])
            for j in swapped:
                below[j].discard(swap)
            for j in pivot_row:
                below[j].add(swap)
            rows[swap], stamp[swap] = pivot_row, k
            pivot_row = swapped
            p = pivot_row[k]
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


def _current(row: dict[int, int], num: int, den: int) -> dict[int, int]:
    """Row values times num / den, exactly; the row itself when that is 1."""
    if num == den:
        return row
    return {j: v * num // den for j, v in row.items()}


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
