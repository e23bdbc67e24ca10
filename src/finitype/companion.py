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
from typing import Iterable, Optional

from .exactmat import (
    SkewForm,
    SquareIntMatrix,
    first_nonpositive_minor,
    leading_principal_minors,
)
from .quiver import ChordlessCycle, CycleInventory, Quiver, edge_key


@dataclass(frozen=True)
class SignAssignment:
    """Map from undirected edges to +1/-1; a missing edge reads as 0 (undefined)."""

    signs: dict[tuple[int, int], int]

    def sign(self, u: int, v: int) -> int:
        return self.signs.get(edge_key(u, v), 0)

    def is_total_on(self, g: Quiver) -> bool:
        return all(self.sign(i, j) != 0 for i, j in g.arcs)


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
        c = self.C.entries
        for i in range(self.C.n):
            if c[i][i] != 2:
                raise ValueError("companion diagonal must be 2")
            for j in range(i + 1, self.C.n):
                if (c[i][j] == 0) != (c[j][i] == 0) or c[i][j] * c[j][i] < 0:
                    raise ValueError("companion must be symmetric by signs")

    @property
    def n(self) -> int:
        return self.C.n


def build_companion(form: SkewForm, signs: SignAssignment) -> QuasiCartanCompanion:
    """c_ii = 2 and c_ij = sign(i, j) * |b_ij|; signs must cover every edge of G(B)."""
    n, b, d = form.n, form.B.entries, form.D.d
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
            elif b[i][j] == 0:
                row.append(0)
            else:
                s = signs.sign(i, j)
                if s == 0:
                    raise ValueError(f"no sign assigned to edge ({i}, {j})")
                row.append(s * abs(b[i][j]))
        rows.append(tuple(row))
    companion = QuasiCartanCompanion(SquareIntMatrix(n, tuple(rows)))
    c = companion.C.entries
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] * c[i][j] != d[j] * c[j][i]:
                raise RuntimeError("companion lost B's symmetrizer")
    return companion


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


@dataclass(frozen=True)
class CompanionDecision:
    """Outcome of the positive-companion test, with the witness companion.

    On success ``minors`` holds all leading principal minors of C (the
    checkable certificate); on failure ``failed_minor_index`` is the size
    of the first leading block whose determinant ``failed_minor`` is <= 0.
    """

    positive: bool
    companion: QuasiCartanCompanion
    signs: SignAssignment
    minors: Optional[tuple[int, ...]] = None
    failed_minor_index: Optional[int] = None
    failed_minor: Optional[int] = None


def positive_companion_exists(
    form: SkewForm, g: Quiver, inventory: CycleInventory
) -> CompanionDecision:
    """Build the sign-condition companion and test its positivity.

    For cyclically oriented G(B) this decides existence of any positive
    quasi-Cartan companion: sign-condition companions are unique up to
    simultaneous row/column sign flips, which preserve every leading
    principal minor.
    """
    signs = assign_signs(g, inventory)
    companion = build_companion(form, signs)
    bad = first_nonpositive_minor(companion.C)
    if bad is None:
        minors = tuple(leading_principal_minors(companion.C))
        return CompanionDecision(True, companion, signs, minors=minors)
    index, value = bad
    return CompanionDecision(
        False, companion, signs, failed_minor_index=index, failed_minor=value
    )
