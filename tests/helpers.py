"""Shared test utilities: independent oracles, matrix builders, generators.

The determinant/cycle oracles here deliberately avoid the library's code
paths (cofactor expansion and Fraction-based Gaussian elimination instead
of fraction-free elimination; subset enumeration instead of ear peeling)
so the tests cross-validate rather than echo the implementation.
"""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product, repeat
from math import gcd, lcm
from operator import ne

from hypothesis import strategies as st

from finitype import (
    MatrixParseError,
    NotSkewSymmetrizableError,
    QuasiCartanCompanion,
    SquareIntMatrix,
    first_nonpositive_minor,
)
from finitype.oracle import ClassStatus, LargeEntry, MutationClassReport


# ---------------------------------------------------------------------------
# independent determinants

def cofactor_det(rows) -> int:
    """Textbook cofactor expansion along the first row, recursively.

    Each minor is the block of the rows below and a set of columns, so it
    is computed once per column set: O(n * 2^n) instead of O(n!).
    """
    n = len(rows)

    @lru_cache(maxsize=None)
    def expand(r: int, cols: tuple[int, ...]) -> int:
        if r == n:
            return 1
        total = 0
        for pos, c in enumerate(cols):
            if rows[r][c]:
                total += (-1) ** pos * rows[r][c] * expand(r + 1, cols[:pos] + cols[pos + 1:])
        return total

    return expand(0, tuple(range(n)))


def cofactor_leading_minors(rows) -> list[int]:
    return [cofactor_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def through_first_nonpositive(values) -> list[int]:
    """``values`` up to and including the first one <= 0: what Sylvester's criterion reads."""
    out = []
    for v in values:
        out.append(v)
        if v <= 0:
            break
    return out


def fraction_gauss_det(rows) -> Fraction:
    """Gaussian elimination over Fraction with partial pivoting."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def independent_leading_minor(rows, k: int) -> int:
    """Minor of order k via cofactor (small) or rational elimination (large)."""
    block = [row[:k] for row in rows[:k]]
    if k <= 7:
        return cofactor_det(block)
    value = fraction_gauss_det(block)
    # raised, not asserted: pytest leaves asserts in this helper module
    # unrewritten, and python -O strips them
    if value.denominator != 1:
        raise AssertionError(f"minor of order {k} is not an integer: {value}")
    return value.numerator


# ---------------------------------------------------------------------------
# independent symmetrizer

def fraction_symmetrizer(rows) -> tuple[int, ...]:
    """Canonical symmetrizer of a skew-symmetrizable matrix, over Fraction.

    Depth-first from the smallest vertex of each connected component of
    the nonzero pattern, which gets 1; a neighbor j of i gets
    d_i * -b_ij / b_ji.  The whole vector is then scaled to coprime
    positive integers.
    """
    n = len(rows)
    d: dict[int, Fraction] = {}
    for root in range(n):
        if root in d:
            continue
        d[root] = Fraction(1)
        todo = [root]
        while todo:
            i = todo.pop()
            for j in range(n):
                if rows[i][j] and j not in d:
                    d[j] = d[i] * Fraction(-rows[i][j], rows[j][i])
                    todo.append(j)
    scale = lcm(*(v.denominator for v in d.values()))
    ints = [int(d[i] * scale) for i in range(n)]
    common = gcd(*ints)
    return tuple(v // common for v in ints)


# ---------------------------------------------------------------------------
# independent chordless-cycle enumeration

def canonical_undirected(walk) -> tuple[int, ...]:
    """Rotate min-first, then run toward the smaller of its two neighbors."""
    walk = list(walk)
    start = walk.index(min(walk))
    rotated = walk[start:] + walk[:start]
    if len(rotated) > 2 and rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def brute_chordless_cycles(n: int, edges) -> set[tuple[int, ...]]:
    """Chordless cycles = vertex subsets inducing a connected 2-regular graph."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    cycles = set()
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            if any(len(adj[v] & inside) != 2 for v in subset):
                continue
            # walk the induced cycle to check connectivity and get the order
            start = subset[0]
            order = [start]
            prev, cur = None, start
            while True:
                nxt = next(x for x in adj[cur] & inside if x != prev)
                if nxt == start:
                    break
                order.append(nxt)
                prev, cur = cur, nxt
            if len(order) == size:
                cycles.add(canonical_undirected(order))
    return cycles


def walk_is_cyclically_oriented(arcs: set[tuple[int, int]], walk) -> bool:
    t = len(walk)
    forward = sum(1 for i in range(t) if (walk[i], walk[(i + 1) % t]) in arcs)
    backward = sum(1 for i in range(t) if (walk[(i + 1) % t], walk[i]) in arcs)
    return forward + backward == t and (forward == t or backward == t)


# ---------------------------------------------------------------------------
# frozen oracle references: the dense mutation, the plain breadth-first
# class search and the full 2^m companion search, kept as they were before
# the library's oracles learned to skip work

def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def definition_mutation(b, k: int) -> tuple[tuple[int, ...], ...]:
    """mu_k(B) entry by entry from the Fomin-Zelevinsky definition."""
    n = len(b)
    return tuple(
        tuple(
            -b[i][j] if i == k or j == k
            else b[i][j] + _sgn(b[i][k]) * max(b[i][k] * b[k][j], 0)
            for j in range(n)
        )
        for i in range(n)
    )


def _reference_large_entry(b):
    n = len(b)
    for i in range(n):
        for j in range(i + 1, n):
            value = abs(b[i][j] * b[j][i])
            if value >= 4:
                return LargeEntry(i, j, value)
    return None


def reference_explore_mutation_class(b, limit: int) -> MutationClassReport:
    """Breadth-first search over every direction, every pair scanned."""
    witness = _reference_large_entry(b)
    if witness is not None:
        return MutationClassReport(ClassStatus.LARGE_ENTRY_FOUND, 1, limit, witness)
    seen, frontier = {b}, [b]
    while frontier:
        next_frontier = []
        for current in frontier:
            for k in range(len(b)):
                candidate = definition_mutation(current, k)
                if candidate in seen:
                    continue
                seen.add(candidate)
                witness = _reference_large_entry(candidate)
                if witness is not None:
                    return MutationClassReport(
                        ClassStatus.LARGE_ENTRY_FOUND, len(seen), limit, witness)
                if len(seen) > limit:
                    return MutationClassReport(ClassStatus.LIMIT_EXCEEDED, len(seen), limit)
                next_frontier.append(candidate)
        frontier = next_frontier
    return MutationClassReport(ClassStatus.FINITE_CLASS, len(seen), limit)


def reference_brute_force_found(b) -> bool:
    """Some sign pattern over all m arcs gives all leading minors positive."""
    n = len(b)
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n) if b[i][j]]
    rows = [[2 if i == j else abs(b[i][j]) for j in range(n)] for i in range(n)]
    for pattern in product((1, -1), repeat=len(arcs)):
        for (i, j), s in zip(arcs, pattern):
            rows[i][j] = s * abs(b[i][j])
            rows[j][i] = s * abs(b[j][i])
        if _reference_is_positive(rows):
            return True
    return False


def _reference_is_positive(rows) -> bool:
    """Fraction-free elimination that stops at the first pivot <= 0."""
    n = len(rows)
    a = [list(r) for r in rows]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (p * a[i][j] - aik * a[k][j]) // prev
        prev = p
    return True


# ---------------------------------------------------------------------------
# frozen dense references: the symmetrizer, quiver, companion and elimination
# as they were while SquareIntMatrix held the dense grid, each scanning all
# n^2 entries; the library's sparse stages must give the same results

def reference_skew_form_error(rows, d):
    """The message SkewForm raises for B = ``rows`` and D = ``d``, or None."""
    for i, row in enumerate(rows):
        for j in range(len(row)):
            if row[j] and d[i] * row[j] != -d[j] * rows[j][i]:
                return f"D*B is not skew-symmetric at vertices ({i + 1}, {j + 1})"
    return None


def reference_skew_symmetrizer(rows) -> tuple[int, ...]:
    """Canonical D of ``rows``; raises NotSkewSymmetrizableError as the library does."""
    n = len(rows)
    adjacency = []
    for i, row in enumerate(rows):
        pairs = [(j, row[j]) for j in range(n) if row[j]]
        for j, v in pairs:
            if v * rows[j][i] >= 0:
                raise NotSkewSymmetrizableError("matrix is not skew-symmetric by signs")
        adjacency.append(pairs)
    num = [0] * n
    den = [1] * n
    for root in range(n):
        if num[root]:
            continue
        num[root] = 1
        queue = [root]
        for i in queue:
            for j, v in adjacency[i]:
                if not num[j]:
                    p, q = num[i] * abs(v), den[i] * abs(rows[j][i])
                    g = gcd(p, q)
                    num[j], den[j] = p // g, q // g
                    queue.append(j)
    scale = lcm(*den)
    d = [p * (scale // q) for p, q in zip(num, den)]
    g = gcd(*d)
    d = tuple(v // g for v in d)
    error = reference_skew_form_error(rows, d)
    if error is not None:
        raise NotSkewSymmetrizableError(error)
    return d


def reference_quiver(rows) -> tuple[list, tuple]:
    """(arcs in insertion order, neighbour lists) of a skew form's dense rows."""
    n = len(rows)
    arcs: dict[tuple[int, int], int] = {}
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if row[j]:
                if row[j] > 0:
                    arcs[(i, j)] = row[j]
                else:
                    arcs[(j, i)] = rows[j][i]
                adjacency[i].append(j)
                adjacency[j].append(i)
    return list(arcs.items()), tuple(tuple(sorted(adj)) for adj in adjacency)


def reference_companion(rows, signs) -> tuple[tuple[int, ...], ...]:
    """Dense rows of the companion; raises ValueError on an edge without a sign."""
    n = len(rows)
    out = []
    for i, b_row in enumerate(rows):
        row = [0] * n
        row[i] = 2
        for j in range(n):
            if b_row[j]:
                s = signs.get((min(i, j), max(i, j)), 0)
                if s == 0:
                    raise ValueError(f"no sign assigned to edge ({i}, {j})")
                row[j] = s * abs(b_row[j])
        out.append(tuple(row))
    return tuple(out)


def reference_companion_error(rows):
    """The message QuasiCartanCompanion raises for C = ``rows``, or None."""
    for i, row in enumerate(rows):
        if row[i] != 2:
            return "companion diagonal must be 2"
        for j in range(len(row)):
            if row[j] and row[j] * rows[j][i] <= 0:
                return "companion must be symmetric by signs"
    return None


def reference_pivots(rows, size: int) -> list[int]:
    """Pivots of the sparse Bareiss elimination of the leading size-by-size block."""
    work = [{j: row[j] for j in range(size) if row[j]} for row in rows[:size]]
    below: list[set[int]] = [set() for _ in range(size)]
    for i, row in enumerate(work):
        for j in row:
            below[j].add(i)

    def current(row, num, den):
        return row if num == den else {j: v * num // den for j, v in row.items()}

    out = []
    scale = [1]
    stamp = [0] * size
    for k in range(size):
        prev = scale[k]
        pivot_row = current(work[k], prev, scale[stamp[k]])
        for j in pivot_row:
            below[j].discard(k)
        p = pivot_row.get(k, 0)
        out.append(p)
        if p == 0:
            if not below[k]:
                return out
            swap = min(below[k])
            swapped = current(work[swap], -prev, scale[stamp[swap]])
            for j in swapped:
                below[j].discard(swap)
            for j in pivot_row:
                below[j].add(swap)
            work[swap], stamp[swap] = pivot_row, k
            pivot_row = swapped
            p = pivot_row[k]
        rest = [(j, w) for j, w in pivot_row.items() if j != k]
        for i in below[k]:
            ri = work[i]
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
            work[i] = {j: v // divisor for j, v in merged.items()}
            stamp[i] = k + 1
        scale.append(p)
    return out


def reference_format_matrix(rows) -> str:
    """The document format of the dense grid ``rows``, one ``str`` per entry."""
    lines = [str(len(rows))]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"-?[0-9]+")
_ROW_CHARS = str.maketrans("", "", "0123456789- \t")  # deletes every character a row may hold


def reference_parse_matrix(text: str) -> SquareIntMatrix:
    """The document parser as it was before rows were read by whole-line scans.

    It splits every row into one token per column; the library's parser
    must return an equal matrix or raise a MatrixParseError with the same
    message on every document.
    """
    lines = []
    for raw in text.split("\n"):
        stripped = raw.removesuffix("\r").split("#", 1)[0].strip(" \t")
        if stripped:
            lines.append(stripped)
    if not lines:
        raise MatrixParseError("empty matrix document")
    if not _INTEGER.fullmatch(lines[0]):
        raise MatrixParseError(f"first line must be the dimension, got {lines[0]!r}")
    try:
        n = int(lines[0])
    except ValueError:  # a valid integer, so only the digit limit is left
        raise MatrixParseError(
            f"dimension is longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    if n < 0:
        raise MatrixParseError("dimension must be non-negative")
    if len(lines) != n + 1:
        raise MatrixParseError(f"expected {n} rows after the dimension, found {len(lines) - 1}")
    rows = []
    for idx, line in enumerate(lines[1:], start=1):
        # int() alone also takes a '+' sign, '_' separators and non-ASCII digits,
        # and str.split() also splits at whitespace other than spaces and tabs
        if line.translate(_ROW_CHARS):
            raise MatrixParseError(f"row {idx} contains a non-integer entry")
        parts = line.split()
        if len(parts) != n:
            raise MatrixParseError(f"row {idx} has {len(parts)} entries, expected {n}")
        # int() only on the tokens other than a plain "0"; "00" and "-0" go
        # through it and, being zero, are not stored
        row = []
        try:
            for j in compress(range(n), map(ne, parts, repeat("0"))):
                v = int(parts[j])
                if v:
                    row.append((j, v))
        except ValueError:
            if all(map(_INTEGER.fullmatch, parts)):  # only the digit limit is left
                raise MatrixParseError(
                    f"row {idx} has an entry longer than {sys.get_int_max_str_digits()} digits"
                ) from None
            raise MatrixParseError(f"row {idx} contains a non-integer entry") from None
        rows.append(tuple(row))
    return SquareIntMatrix(n, tuple(rows))


# ---------------------------------------------------------------------------
# predicates and wrappers the library does not need

def is_positive(matrix: SquareIntMatrix) -> bool:
    """Sylvester criterion: every leading principal minor strictly positive.

    Valid for symmetrizable matrices, not just symmetric ones; the empty
    matrix is vacuously positive.
    """
    return first_nonpositive_minor(matrix) is None


def satisfies_sign_condition(companion: QuasiCartanCompanion, cycles) -> bool:
    """Product of (-c_ij) over the edges of every given cycle is negative."""
    c = companion.C.entries
    for cycle in cycles:
        verts = cycle.vertices
        prod = 1
        for i in range(len(verts)):
            u, v = verts[i], verts[(i + 1) % len(verts)]
            prod *= -c[u][v]
        if prod >= 0:
            return False
    return True


def is_skew_symmetric_by_signs(matrix: SquareIntMatrix) -> bool:
    """Zero diagonal, and each off-diagonal pair both zero or opposite in sign."""
    b = matrix.entries
    return all(
        b[i][j] == b[j][i] == 0 or b[i][j] * b[j][i] < 0
        for i in range(matrix.n) for j in range(i, matrix.n)
    )


def signs_total_on(signs, g) -> bool:
    """Every arc of the quiver ``g`` has a sign (+1 or -1) in ``signs``."""
    return all(signs.get((min(i, j), max(i, j)), 0) != 0 for i, j in g.arcs)


# ---------------------------------------------------------------------------
# matrix builders (0-based; arc (i, j) means b_ij > 0)

def sparse_from_arcs(n: int, arcs: dict) -> SquareIntMatrix:
    """b_ij = w = -b_ji for each arc (i, j) -> w, built from the nonzero rows alone."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), w in arcs.items():
        rows[i].append((j, w))
        rows[j].append((i, -w))
    return SquareIntMatrix(n, tuple(tuple(sorted(row)) for row in rows))


def identity(n: int) -> SquareIntMatrix:
    return SquareIntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def from_arcs(n: int, arcs: dict) -> SquareIntMatrix:
    """Arcs map (i, j) to a weight w (b_ij = w = -b_ji) or a pair (a, c)
    meaning b_ij = a, b_ji = -c."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), w in arcs.items():
        a, c = w if isinstance(w, tuple) else (w, w)
        rows[i][j] = a
        rows[j][i] = -c
    return SquareIntMatrix.from_rows(rows)


def a_path(n: int, mask: int = 0) -> SquareIntMatrix:
    """Type A path; bit i of mask reverses the arc between i and i+1."""
    arcs = {}
    for i in range(n - 1):
        if mask >> i & 1:
            arcs[(i + 1, i)] = 1
        else:
            arcs[(i, i + 1)] = 1
    return from_arcs(n, arcs)


def bc_path(n: int, heavy_first: bool) -> SquareIntMatrix:
    """Type B/C path: unit arcs plus one (1,2) or (2,1) pair at the end."""
    arcs = {(i, i + 1): 1 for i in range(n - 2)}
    arcs[(n - 2, n - 1)] = (2, 1) if heavy_first else (1, 2)
    return from_arcs(n, arcs)


def d_fork(n: int) -> SquareIntMatrix:
    """Type D: path on 0..n-3 with two extra leaves on vertex n-3."""
    arcs = {(i, i + 1): 1 for i in range(n - 3)}
    arcs[(n - 3, n - 2)] = 1
    arcs[(n - 3, n - 1)] = 1
    return from_arcs(n, arcs)


def g2() -> SquareIntMatrix:
    return SquareIntMatrix.from_rows([[0, 1], [-3, 0]])


def markov() -> SquareIntMatrix:
    return SquareIntMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def alternating_square() -> SquareIntMatrix:
    return from_arcs(4, {(0, 1): 1, (2, 1): 1, (2, 3): 1, (0, 3): 1})


def cyclic_cycle(n: int) -> SquareIntMatrix:
    arcs = {(i, (i + 1) % n): 1 for i in range(n)}
    return from_arcs(n, arcs)


def cyclic_triangle() -> SquareIntMatrix:
    return cyclic_cycle(3)


# Exceptional and affine diagrams as (n, arcs) in the ``from_arcs`` format.
# A weighted bond (a, c) has b_ij = a and b_ji = -c.

def e_arcs(n: int) -> tuple[int, dict]:
    """E6, E7, E8: path on 0..n-2 with vertex n-1 attached to vertex 2."""
    arcs = {(i, i + 1): 1 for i in range(n - 2)}
    arcs[(2, n - 1)] = 1
    return n, arcs


def f4_arcs() -> tuple[int, dict]:
    return 4, {(0, 1): 1, (1, 2): (1, 2), (2, 3): 1}


def affine_e_arcs(arms: tuple[int, ...]) -> tuple[int, dict]:
    """Star with center 0 and arms of the given lengths: E~6 (2, 2, 2),
    E~7 (3, 3, 1), E~8 (5, 2, 1)."""
    arcs, n = {}, 1
    for length in arms:
        prev = 0
        for _ in range(length):
            arcs[(prev, n)] = 1
            prev, n = n, n + 1
    return n, arcs


def affine_bcd_arcs(kind: str, n: int) -> tuple[int, dict]:
    """B~, C~ or D~ on n >= 5 vertices: a path on 1..n-2 with one more vertex
    at each end, 0 at the start and n-1 at the finish.  An end is either a
    fork (the extra vertex is a second leaf, as in ``d_fork``) or a weighted
    pair (as in ``bc_path``): B~ is a fork and B's (2, 1) pair, C~ is C's
    (1, 2) pair at both ends, D~ is a fork at both ends."""
    arcs = {(i, i + 1): 1 for i in range(1, n - 2)}
    if kind == "C":
        arcs[(1, 0)] = (1, 2)
    else:
        arcs[(0, 2)] = 1
    if kind == "D":
        arcs[(n - 3, n - 1)] = 1
    else:
        arcs[(n - 2, n - 1)] = (2, 1) if kind == "B" else (1, 2)
    return n, arcs


def affine_f4_arcs() -> tuple[int, dict]:
    return 5, {(0, 1): 1, (1, 2): 1, (2, 3): (1, 2), (3, 4): 1}


def affine_g2_arcs() -> tuple[int, dict]:
    return 3, {(0, 1): 1, (1, 2): (1, 3)}


def reversed_arcs(arcs: dict, mask: int) -> dict:
    """Reverse the t-th arc (in insertion order) when bit t of mask is set."""
    out = {}
    for t, ((i, j), w) in enumerate(arcs.items()):
        if mask >> t & 1:
            out[(j, i)] = w[::-1] if isinstance(w, tuple) else w
        else:
            out[(i, j)] = w
    return out


def relabel(matrix: SquareIntMatrix, rng: random.Random) -> SquareIntMatrix:
    """The same matrix under a random permutation of the vertices."""
    n = matrix.n
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(matrix.entries):
        for j, v in enumerate(row):
            rows[perm[i]][perm[j]] = v
    return SquareIntMatrix.from_rows(rows)


def mutation_walk(matrix: SquareIntMatrix, steps: int, rng: random.Random) -> SquareIntMatrix:
    """Mutate at `steps` random vertices (Fomin-Zelevinsky matrix mutation).

    Only entries between two neighbors of k change, so a step costs
    O(n + deg(k)^2) instead of O(n^2).
    """
    n = matrix.n
    rows = [list(row) for row in matrix.entries]
    for _ in range(steps):
        k = rng.randrange(n)
        nbrs = [i for i in range(n) if rows[i][k]]
        for i in nbrs:
            for j in nbrs:
                if i != j:
                    bik, bkj = rows[i][k], rows[k][j]
                    rows[i][j] += (abs(bik) * bkj + bik * abs(bkj)) // 2
        for i in nbrs:
            rows[i][k], rows[k][i] = -rows[i][k], -rows[k][i]
    return SquareIntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# random generators (seeded by the caller)

PAIR_OPTIONS = [(0, 0)] + [
    (a, -b) for a in (1, 2) for b in (1, 2)
] + [(-a, b) for a in (1, 2) for b in (1, 2)]


def random_grid_rows(rng: random.Random, n: int) -> list[list[int]]:
    """Uniform over the sign/weight grid with |entries| <= 2 (may fail the
    skew-symmetrizability filter; callers reject and retry)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j], rows[j][i] = rng.choice(PAIR_OPTIONS)
    return rows


def random_skew_rows(rng: random.Random, n: int, max_x: int = 2, max_d: int = 3):
    """Always-valid skew-symmetrizable matrix: b_ij = x_ij * d_j and
    b_ji = -x_ij * d_i makes diag(d) * B skew-symmetric by construction."""
    d = [rng.randint(1, max_d) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rng.randint(-max_x, max_x)
            rows[i][j] = x * d[j]
            rows[j][i] = -x * d[i]
    return rows, d


def random_cyclically_oriented_arcs(
    rng: random.Random, max_vertices: int = 12, asym_weights: bool = False
) -> tuple[int, dict]:
    """Random cyclically oriented quiver, grown by gluing cycles along
    single edges (every new cycle oriented cyclically) plus bridge edges.

    Returns (n, arcs) in the ``from_arcs`` format.  Cycle edges keep
    symmetric weight pairs so the symmetrizer stays consistent around
    cycles; asymmetric pairs, when enabled, go on bridges or on a
    compensated (2,1)/(1,2) pair of fresh cycle edges whose ratios cancel.
    """
    arcs: dict = {}
    sym_edges: list[tuple[int, int]] = []

    def add_arc(u, v, w=None):
        if w is None:
            w = rng.choice((1, 1, 1, 2))
        arcs[(u, v)] = (w, w)
        sym_edges.append((u, v))

    def add_bridge(u, v):
        if asym_weights and rng.random() < 0.4:
            arcs[(u, v)] = (rng.randint(1, 2), rng.randint(1, 3))
        else:
            add_arc(u, v)

    if rng.random() < 0.3:
        add_bridge(0, 1)
        n = 2
    else:
        t = rng.randint(3, min(5, max_vertices))
        for i in range(t - 1):
            add_arc(i, i + 1)
        add_arc(t - 1, 0)
        n = t

    target = rng.randint(n, max_vertices)
    while n < target:
        if rng.random() < 0.45 and sym_edges:
            u, v = rng.choice(sym_edges)  # glue a new cycle along arc u -> v
            k = rng.randint(1, min(3, target - n))
            fresh = list(range(n, n + k))
            n += k
            # orient the new cycle u -> v -> fresh[-1] -> ... -> fresh[0] -> u
            new_edges = [(v, fresh[-1])]
            new_edges += [(fresh[i + 1], fresh[i]) for i in range(k - 2, -1, -1)]
            new_edges += [(fresh[0], u)]
            for e in new_edges:
                add_arc(*e)
            if asym_weights and k >= 2 and rng.random() < 0.3:
                arcs[new_edges[0]] = (2, 1)
                arcs[new_edges[1]] = (1, 2)
                sym_edges.remove(new_edges[0])
                sym_edges.remove(new_edges[1])
        else:
            x = rng.randrange(n)
            if rng.random() < 0.5:
                add_bridge(x, n)
            else:
                add_bridge(n, x)
            n += 1
    return n, arcs


def arcs_to_arcset(arcs: dict) -> set[tuple[int, int]]:
    return set(arcs.keys())


# ---------------------------------------------------------------------------
# hypothesis strategies: dense grids, n = 0..12

def _break_entries(draw, rows, max_breaks: int, factors) -> None:
    """Multiply up to ``max_breaks`` entries (a zero read as 1) by one of ``factors``."""
    n = len(rows)
    for _ in range(draw(st.integers(0, max_breaks)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(factors)) * (rows[i][j] or 1)


@st.composite
def perturbed_skew_grids(draw, max_breaks: int = 2):
    """Skew-symmetrizable grids, then up to ``max_breaks`` entries changed.

    b_ij = x * d_j and b_ji = -x * d_i make diag(d) * B skew-symmetric.  A
    break flips a sign, zeroes half a pair, sets a diagonal entry or makes
    the weights around a cycle inconsistent.
    """
    n = draw(st.integers(0, 12))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.sampled_from((0, 0, 0, -2, -1, 1, 2)))
            rows[i][j], rows[j][i] = x * d[j], -x * d[i]
    _break_entries(draw, rows, max_breaks, (-3, -1, 0, 2, 5))
    return rows


@st.composite
def companion_grids(draw):
    """2 on the diagonal and sign-symmetric pairs, then up to two entries changed."""
    n = draw(st.integers(0, 12))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        for j in range(i + 1, n):
            s = draw(st.sampled_from((0, 0, 0, -1, 1)))
            rows[i][j], rows[j][i] = s * draw(st.integers(1, 3)), s * draw(st.integers(1, 3))
    _break_entries(draw, rows, 2, (-2, -1, 0, 3))
    return rows


@st.composite
def square_grids(draw):
    """Any sparse integer grid, zero and negative diagonal entries included."""
    n = draw(st.integers(0, 12))
    entry = st.sampled_from((0, 0, 0, 0, 0, -2, -1, 1, 2, 3))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]
