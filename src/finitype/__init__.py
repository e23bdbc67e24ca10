"""Finite-type recognition for cluster algebras of skew-symmetrizable matrices.

The decision runs in polynomial time: every chordless cycle of the
oriented graph G(B) must be cyclically oriented, and the quasi-Cartan
companion built from the per-cycle sign condition must have all leading
principal minors positive.  Brute-force oracles (mutation-class
exploration and exhaustive companion search) are included for
cross-validation on small instances.
"""

from .cli import MatrixParseError, format_matrix, parse_matrix, run_command
from .companion import QuasiCartanCompanion, assign_signs, build_companion
from .decision import (
    Certificate,
    CompanionNotPositive,
    Decision,
    decide_matrix,
    positive_companion_exists,
)
from .exactmat import (
    NotSkewSymmetrizableError,
    SkewForm,
    SquareIntMatrix,
    compute_skew_symmetrizer,
    first_nonpositive_minor,
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
    "CompanionNotPositive",
    "CycleInventory",
    "Decision",
    "EdgeBoundExceeded",
    "MatrixParseError",
    "MutationClassReport",
    "NonCyclicCycle",
    "NotCyclicallyOrientedError",
    "NotSkewSymmetrizableError",
    "QuasiCartanCompanion",
    "Quiver",
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
    "decide_matrix",
    "explore_mutation_class",
    "first_nonpositive_minor",
    "format_matrix",
    "leading_principal_minors",
    "mutate",
    "parse_matrix",
    "positive_companion_exists",
    "run_command",
    "two_connected_components",
]
