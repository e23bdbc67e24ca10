"""Finite-type recognition for cluster algebras of skew-symmetrizable matrices.

The decision runs in polynomial time: every chordless cycle of the
oriented graph G(B) must be cyclically oriented, and the quasi-Cartan
companion built from the per-cycle sign condition must have all leading
principal minors positive.  Brute-force oracles (mutation-class
exploration and exhaustive companion search) are included for
cross-validation on small instances.
"""

from .cli import MatrixParseError, decide, format_matrix, parse_matrix, run_command
from .companion import (
    QuasiCartanCompanion,
    SignAssignment,
    assign_signs,
    build_companion,
    satisfies_sign_condition,
)
from .decision import (
    Certificate,
    CompanionNotPositive,
    Decision,
    decide_matrix,
    positive_companion_exists,
)
from .exactmat import (
    DiagonalRational,
    NotSkewSymmetrizableError,
    SkewForm,
    SquareIntMatrix,
    compute_skew_symmetrizer,
    determinant,
    first_nonpositive_minor,
    is_positive,
    is_skew_symmetric_by_signs,
    leading_principal_minors,
)
from .oracle import (
    CapExceededError,
    ClassStatus,
    MutationClassReport,
    brute_force_positive_companion,
    explore_mutation_class,
    mutate,
)
from .quiver import (
    ChordlessCycle,
    ComponentKind,
    CycleInventory,
    EdgeBoundExceeded,
    NonCyclicCycle,
    NotCyclicallyOrientedError,
    Quiver,
    StructuralFailure,
    TwoConnectedComponent,
    build_quiver,
    chordless_cycles_cod,
    two_connected_components,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChordlessCycle",
    "CompanionNotPositive",
    "ComponentKind",
    "CycleInventory",
    "Decision",
    "DiagonalRational",
    "EdgeBoundExceeded",
    "MatrixParseError",
    "MutationClassReport",
    "NonCyclicCycle",
    "NotCyclicallyOrientedError",
    "NotSkewSymmetrizableError",
    "QuasiCartanCompanion",
    "Quiver",
    "SignAssignment",
    "SkewForm",
    "SquareIntMatrix",
    "StructuralFailure",
    "TwoConnectedComponent",
    "CapExceededError",
    "ClassStatus",
    "assign_signs",
    "brute_force_positive_companion",
    "build_companion",
    "build_quiver",
    "chordless_cycles_cod",
    "compute_skew_symmetrizer",
    "decide",
    "decide_matrix",
    "determinant",
    "explore_mutation_class",
    "first_nonpositive_minor",
    "format_matrix",
    "is_positive",
    "is_skew_symmetric_by_signs",
    "leading_principal_minors",
    "mutate",
    "parse_matrix",
    "positive_companion_exists",
    "run_command",
    "satisfies_sign_condition",
    "two_connected_components",
]
