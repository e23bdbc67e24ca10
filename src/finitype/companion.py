"""Quasi-Cartan companions satisfying the per-cycle sign condition.

A companion of B keeps |c_ij| = |b_ij| off the diagonal, puts 2 on the
diagonal, and chooses one sign per edge of G(B).  The sign condition
requires the product of (-c_ij) around every chordless cycle to be
negative; on a cyclically oriented graph such an assignment always exists
and is unique up to flipping all signs at a vertex, so positivity of this
one companion decides whether any positive companion exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional

from .exactmat import SkewForm, SquareIntMatrix
from .quiver import ChordlessCycle, CycleInventory, Quiver, edge_key


@dataclass(frozen=True)
class SignAssignment:
    """Map from undirected edges to +1/-1; a missing edge reads as 0 (undefined)."""

    signs: dict[tuple[int, int], int]

    def sign(self, u: int, v: int) -> int:
        return self.signs.get(edge_key(u, v), 0)


def assign_signs(g: Quiver, inventory: CycleInventory) -> SignAssignment:
    """Choose edge signs so the sign condition holds on every chordless cycle.

    Single-edge components get +1.  Cycles are consumed from the stack in
    LIFO order; within a cycle of length t the first undefined edge is
    deferred, every other undefined edge gets +1, and the deferred edge
    receives (-1)^(t+1) times the product of the already-defined signs,
    which makes the edge-sign product around the cycle equal (-1)^(t+1)
    and hence the product of (-c_ij) equal -1 times a positive number.

    Raises ValueError when a popped cycle has every edge already signed,
    as happens when the inventory lists a cycle twice.
    """
    signs: dict[tuple[int, int], int] = {edge: 1 for edge in inventory.single_edges}
    for cycle in inventory.popped():
        verts = cycle.vertices
        t = len(verts)
        prod = 1
        deferred: Optional[tuple[int, int]] = None
        for i in range(t):
            e = edge_key(verts[i], verts[(i + 1) % t])
            s = signs.get(e, 0)
            if s != 0:
                prod *= s
            elif deferred is None:
                deferred = e
            else:
                signs[e] = 1
        if deferred is None:
            raise ValueError("popped cycle has every edge already signed")
        signs[deferred] = (-1) ** (t + 1) * prod
    return SignAssignment(signs)


@dataclass(frozen=True)
class QuasiCartanCompanion:
    """Symmetrizable matrix with diagonal 2 and sign-symmetric off-diagonal entries."""

    C: SquareIntMatrix

    def __post_init__(self) -> None:
        """Each nonzero c_ij needs a partner c_ji of the same sign; zero pairs pass."""
        c = self.C.entries
        for i, row in enumerate(c):
            if row[i] != 2:
                raise ValueError("companion diagonal must be 2")
            for j in compress(range(self.C.n), row):
                if row[j] * c[j][i] <= 0:
                    raise ValueError("companion must be symmetric by signs")

    @property
    def n(self) -> int:
        return self.C.n


def build_companion(form: SkewForm, signs: SignAssignment) -> QuasiCartanCompanion:
    """c_ii = 2 and c_ij = sign(i, j) * |b_ij|; signs must cover every edge of G(B).

    Only the nonzero entries of B are visited.  B's symmetrizer D also
    symmetrizes C with no further check: both directions of an edge get the
    same sign s, so d_i * c_ij = s * d_i * |b_ij| = s * d_j * |b_ji| =
    d_j * c_ji by the SkewForm's own D*B check.
    """
    n = form.n
    rows = []
    for i, b_row in enumerate(form.B.entries):
        row = [0] * n
        row[i] = 2
        for j in compress(range(n), b_row):
            s = signs.sign(i, j)
            if s == 0:
                raise ValueError(f"no sign assigned to edge ({i}, {j})")
            row[j] = s * abs(b_row[j])
        rows.append(tuple(row))
    return QuasiCartanCompanion(SquareIntMatrix(n, tuple(rows)))


def satisfies_sign_condition(
    companion: QuasiCartanCompanion, cycles: Iterable[ChordlessCycle]
) -> bool:
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
