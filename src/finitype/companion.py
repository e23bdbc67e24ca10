"""Quasi-Cartan companions satisfying the per-cycle sign condition.

A companion of B keeps |c_ij| = |b_ij| off the diagonal, puts 2 on the
diagonal, and chooses one sign per edge of G(B).  The sign condition
requires the product of (-c_ij) around every chordless cycle to be
negative; on a cyclically oriented graph such an assignment always exists
and is unique up to flipping all signs at a vertex, so positivity of this
one companion decides whether any positive companion exists.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from .exactmat import SMALL_PAIRS, SkewForm, SquareIntMatrix
from .quiver import CycleInventory, Quiver, edge_key


def assign_signs(g: Quiver, inventory: CycleInventory) -> dict[tuple[int, int], int]:
    """Choose edge signs so the sign condition holds on every chordless cycle.

    Returns +1 or -1 per edge, keyed by ``edge_key``.  Single-edge
    components get +1.  Cycles are consumed from the inventory's stack in
    LIFO order, last discovered first; within a cycle of length t the first
    undefined edge is deferred, every other undefined edge gets +1, and the
    deferred edge receives (-1)^(t+1) times the product of the
    already-defined signs, which makes the edge-sign product around the
    cycle equal (-1)^(t+1) and hence the product of (-c_ij) equal -1 times
    a positive number.

    Raises ValueError when a popped cycle has every edge already signed,
    as happens when the inventory lists a cycle twice.
    """
    signs: dict[tuple[int, int], int] = {edge: 1 for edge in inventory.single_edges}
    for verts in reversed(inventory.cycles):
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
    return signs


@dataclass(frozen=True)
class QuasiCartanCompanion:
    """Symmetrizable matrix with diagonal 2 and sign-symmetric off-diagonal entries."""

    C: SquareIntMatrix

    def __post_init__(self) -> None:
        """Each nonzero c_ij needs a partner c_ji of the same sign; zero pairs pass."""
        for i, (row, col) in enumerate(zip(self.C.rows, self.C.columns())):
            partner = dict(col)  # c_ji by j
            if partner.get(i) != 2:
                raise ValueError("companion diagonal must be 2")
            for j, v in row:
                if v * partner.get(j, 0) <= 0:
                    raise ValueError("companion must be symmetric by signs")


def build_companion(form: SkewForm, signs: dict[tuple[int, int], int]) -> QuasiCartanCompanion:
    """c_ii = 2 and c_ij = signs[edge_key(i, j)] * |b_ij|; signs must cover every edge of G(B).

    Only the nonzero entries of B are visited, and C is stored the same
    way: each row of B's pairs with its sign applied and (i, 2) put in
    column order.  B's symmetrizer D also symmetrizes C with no further
    check: both directions of an edge get the same sign s, so d_i * c_ij =
    s * d_i * |b_ij| = s * d_j * |b_ji| = d_j * c_ji by the SkewForm's own
    D*B check.
    """
    rows = []
    for i, b_row in enumerate(form.B.rows):
        row = []
        for j, v in b_row:
            s = signs.get(edge_key(i, j), 0)
            if s == 0:
                raise ValueError(f"no sign assigned to edge ({i}, {j})")
            pair = (j, s * abs(v))
            row.append(SMALL_PAIRS.get(pair, pair))
        # a skew form has no diagonal entry, so insort compares only the columns
        insort(row, SMALL_PAIRS.get((i, 2), (i, 2)))
        rows.append(tuple(row))
    return QuasiCartanCompanion(SquareIntMatrix(form.n, tuple(rows)))
