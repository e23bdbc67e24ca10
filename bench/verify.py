"""Output checks that share no code with finitype.

Minors are recomputed by plain Gaussian elimination over ``Fraction`` on
sparse rows (finitype uses fraction-free integer elimination), witnesses
are re-derived from the generator's own matrix, and every check takes
the decision in one normalized form, whether it came from a ``Decision``
object or from a ``decide --json`` report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

FINITE, NOT_FINITE = "FiniteType", "NotFinite"


@dataclass
class Outcome:
    """A decision in 0-based, library-independent form."""

    verdict: str
    kind: Optional[str] = None
    companion: Optional[list[dict]] = None  # sparse rows {col: value}
    minors: Optional[list[int]] = None
    minor_index: Optional[int] = None
    minor: Optional[int] = None
    vertices: tuple = ()
    edge_count: Optional[int] = None
    bound: Optional[int] = None


@dataclass
class Expected:
    """What the theory fixes for an input; None means not fixed."""

    verdict: Optional[str] = None
    kind: Optional[str] = None
    minor: Optional[tuple[int, int]] = None  # (index, value) of the failing minor


def _sparse(rows) -> list[dict]:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def from_decision(decision) -> Outcome:
    """Normalize a finitype ``Decision``."""
    if decision.finite:
        cert = decision.certificate
        return Outcome(FINITE, companion=_sparse(cert.companion.C.entries),
                       minors=list(cert.minors))
    r = decision.reason
    out = Outcome(NOT_FINITE, kind=r.kind)
    if r.kind == "companion_not_positive":
        out.companion = _sparse(r.companion.C.entries)
        out.minor_index, out.minor = r.minor_index, r.minor
    else:
        out.vertices = tuple(r.vertices)
        out.edge_count = getattr(r, "edge_count", None)
        out.bound = getattr(r, "bound", None)
    return out


def from_report(text: str) -> Outcome:
    """Normalize a ``decide --json`` report (1-based vertices)."""
    report = json.loads(text)
    if report["verdict"] == FINITE:
        cert = report["certificate"]
        return Outcome(FINITE, companion=_sparse(cert["companion"]), minors=cert["minors"])
    r = report["reason"]
    out = Outcome(NOT_FINITE, kind=r["kind"])
    if r["kind"] == "companion_not_positive":
        out.companion = _sparse(r["companion"])
        out.minor_index, out.minor = r["minor_index"], r["minor"]
    else:
        out.vertices = tuple(v - 1 for v in r.get("vertices", r.get("cycle", ())))
        out.edge_count, out.bound = r.get("edges"), r.get("bound")
    return out


def leading_minors(rows: list[dict], upto: int) -> list[int]:
    """det of the leading k-by-k block for k = 1..upto, by rational elimination.

    ``rows`` must have a symmetric zero pattern that elimination keeps,
    as every symmetrizable matrix does; only rows with a nonzero in the
    pivot column are touched.  Stops after the first zero minor.
    """
    a = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    minors: list[int] = []
    det = Fraction(1)
    for k in range(upto):
        p = a[k].get(k, Fraction(0))
        det *= p
        if det.denominator != 1:
            raise ArithmeticError("leading minor is not an integer")
        minors.append(det.numerator)
        if p == 0 or k == upto - 1:
            break
        pivot = [(j, v) for j, v in a[k].items() if j > k]
        for i, _ in pivot:
            row = a[i]
            f = row.pop(k, 0) / p
            if not f:
                continue
            for j, v in pivot:
                value = row.get(j, 0) - f * v
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
    return minors


def _companion_matches(n: int, b: dict, c: list[dict]) -> bool:
    """Diagonal 2, |c_ij| = |b_ij| off it, and c_ij, c_ji of one sign."""
    if len(c) != n:
        return False
    for i, row in enumerate(c):
        if row.get(i) != 2:
            return False
        for j, v in row.items():
            if j != i and (abs(v) != abs(b.get((i, j), 0)) or v * c[j].get(i, 0) <= 0):
                return False
    return sum(len(row) for row in c) == n + len(b)


def _witness_holds(n: int, b: dict, out: Outcome) -> bool:
    """Re-derive the witness from the input matrix."""
    if out.kind == "companion_not_positive":
        k = out.minor_index
        if out.companion is None or k is None or not 1 <= k <= n:
            return False
        if not _companion_matches(n, b, out.companion):
            return False
        minors = leading_minors(out.companion, k)
        return (len(minors) == k and all(m > 0 for m in minors[:-1])
                and minors[-1] == out.minor and out.minor <= 0)
    vs = out.vertices
    if any(not 0 <= v < n for v in vs) or len(set(vs)) != len(vs):
        return False
    inside = set(vs)
    edges = sum(1 for i, j in b if i < j and i in inside and j in inside)
    if out.kind == "edge_bound_exceeded":
        # the whole graph is bounded by 2n - 3, n counting isolated vertices too
        bounds = (2 * len(vs) - 3, 2 * n - 3)
        return out.edge_count == edges and out.bound in bounds and edges > out.bound
    if out.kind == "non_cyclic_cycle":
        t = len(vs)
        ring = [(vs[i], vs[(i + 1) % t]) for i in range(t)]
        if t < 3 or any((u, v) not in b for u, v in ring) or edges != t:
            return False  # not a chordless cycle of G(B)
        forward = sum(1 for u, v in ring if b[(u, v)] > 0)
        return 0 < forward < t
    # structural_failure: the stuck vertex set must carry at least a cycle
    return out.kind == "structural_failure" and edges >= len(vs) > 2


def check(n: int, b: dict, out: Outcome, expected: Expected) -> Optional[str]:
    """None when the outcome is right for input (n, b); else what is wrong."""
    if expected.verdict is not None and out.verdict != expected.verdict:
        return f"verdict {out.verdict}, expected {expected.verdict}"
    if expected.kind is not None and out.kind != expected.kind:
        return f"witness {out.kind}, expected {expected.kind}"
    if expected.minor is not None and (out.minor_index, out.minor) != expected.minor:
        return f"failing minor {(out.minor_index, out.minor)}, expected {expected.minor}"
    if out.verdict == FINITE:
        if out.companion is None or not _companion_matches(n, b, out.companion):
            return "certificate companion does not match the input"
        if out.minors != leading_minors(out.companion, n) or any(m <= 0 for m in out.minors):
            return "certificate minors do not re-check"
        return None
    if out.verdict != NOT_FINITE:
        return f"unknown verdict {out.verdict!r}"
    if not _witness_holds(n, b, out):
        return f"{out.kind} witness does not re-check"
    return None


@dataclass
class Crosscheck:
    """The three answers of one cross-check, as plain values."""

    decision: Outcome
    class_status: str  # FiniteClass, LargeEntryFound or LimitExceeded
    brute_found: Optional[bool]  # None when the search does not apply


def crosscheck_disagreement(x: Crosscheck) -> Optional[str]:
    """None when decision, mutation class and companion search agree."""
    finite = x.decision.verdict == FINITE
    if x.class_status == "LimitExceeded":
        return "mutation-class search hit its limit"
    if (x.class_status == "FiniteClass") != finite:
        return f"mutation class {x.class_status} but decision {x.decision.verdict}"
    oriented = finite or x.decision.kind == "companion_not_positive"
    if oriented != (x.brute_found is not None):
        return "companion search applicability does not follow the decision"
    if x.brute_found is not None and x.brute_found != finite:
        return f"companion search found={x.brute_found} but decision {x.decision.verdict}"
    return None
