"""The finite-type decision (Barot, Geiss and Zelevinsky 2006) and its results.

Pipeline: validate the input as skew-symmetrizable, build its oriented
graph, enumerate chordless cycles (rejecting non-cyclically-oriented
graphs), then build the sign-condition companion and test positivity.
FiniteType verdicts carry a certificate (cycles, companion, minors) that
an independent positivity check can re-verify; NotFinite verdicts carry a
witness as their reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .companion import QuasiCartanCompanion, assign_signs, build_companion
from .exactmat import (
    SkewForm,
    SquareIntMatrix,
    compute_skew_symmetrizer,
    first_nonpositive_minor,
    leading_principal_minors,
)
from .quiver import (
    CycleInventory,
    EdgeBoundExceeded,
    NonCyclicCycle,
    NotCyclicallyOrientedError,
    Quiver,
    StructuralFailure,
    build_quiver,
    chordless_cycles_cod,
)


@dataclass(frozen=True)
class CompanionNotPositive:
    """The companion's leading block of size ``minor_index`` has determinant ``minor`` <= 0."""

    minor_index: int
    minor: int
    companion: QuasiCartanCompanion
    kind: str = field(default="companion_not_positive", init=False)


Reason = Union[EdgeBoundExceeded, NonCyclicCycle, StructuralFailure, CompanionNotPositive]


@dataclass(frozen=True)
class Certificate:
    """Checkable evidence for a FiniteType verdict: all leading minors of the companion."""

    inventory: CycleInventory
    companion: QuasiCartanCompanion
    minors: tuple[int, ...]


@dataclass(frozen=True)
class Decision:
    finite: bool
    reason: Optional[Reason]
    certificate: Optional[Certificate]

    @property
    def verdict(self) -> str:
        return "FiniteType" if self.finite else "NotFinite"


def positive_companion_exists(
    form: SkewForm, g: Quiver, inventory: CycleInventory
) -> Union[Certificate, CompanionNotPositive]:
    """Build the sign-condition companion and test its positivity.

    For cyclically oriented G(B) this decides existence of any positive
    quasi-Cartan companion: sign-condition companions are unique up to
    simultaneous row/column sign flips, which preserve every leading
    principal minor.
    """
    companion = build_companion(form, assign_signs(g, inventory))
    bad = first_nonpositive_minor(companion.C)
    if bad is None:
        return Certificate(inventory, companion, tuple(leading_principal_minors(companion.C)))
    return CompanionNotPositive(bad[0], bad[1], companion)


def decide_matrix(matrix: SquareIntMatrix) -> Decision:
    """Finite-type decision for a parsed matrix.

    Raises NotSkewSymmetrizableError for matrices outside the input
    domain; that is not a NotFinite verdict.
    """
    form = compute_skew_symmetrizer(matrix)
    g = build_quiver(form)
    try:
        inventory = chordless_cycles_cod(g)
    except NotCyclicallyOrientedError as err:
        return Decision(False, err.witness, None)
    result = positive_companion_exists(form, g, inventory)
    if isinstance(result, Certificate):
        return Decision(True, None, result)
    return Decision(False, result, None)
