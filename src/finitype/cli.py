"""Command-line front end: documents in, reports out.

This module only parses documents, runs the library's stages and renders
their results; the decision itself lives in ``finitype.decision``.  Every
handler looks ``parse_matrix`` and ``decide_matrix`` up as names of this
module at call time, so a caller may substitute either for one run.

Matrix documents: first non-comment line is n, followed by n rows of n
space-separated integers; ``#`` starts a comment, blank lines are
ignored.  Every integer is ASCII ``-?[0-9]+`` and at most
``sys.get_int_max_str_digits()`` digits long.  All vertices and indices
are 1-based on the way in and out, 0-based internally.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import compress
from typing import Optional, Sequence

from .decision import Certificate, CompanionNotPositive, Decision, Reason, decide_matrix
from .exactmat import (
    NotSkewSymmetrizableError,
    SquareIntMatrix,
    compute_skew_symmetrizer,
)
from .oracle import (
    DEFAULT_CLASS_LIMIT,
    CapExceededError,
    ClassStatus,
    MutationClassReport,
    brute_force_positive_companion,
    explore_mutation_class,
    mutate,
)
from .quiver import (
    ChordlessCycle,
    EdgeBoundExceeded,
    NonCyclicCycle,
    NotCyclicallyOrientedError,
    StructuralFailure,
    build_quiver,
    chordless_cycles_cod,
)

SCHEMA_VERSION = 1
ORACLE_LIMIT_ENV = "FINITYPE_ORACLE_LIMIT"

EXIT_FINITE = 0
EXIT_NOT_FINITE = 1
EXIT_ERROR = 2


_INTEGER = re.compile(r"-?[0-9]+")


class MatrixParseError(ValueError):
    """Malformed matrix document."""


class InputError(ValueError):
    """Input-domain error outside the document itself (bad index, bad limit)."""


def parse_matrix(text: str) -> SquareIntMatrix:
    """Parse the matrix document format; raises MatrixParseError."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
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
        parts = line.split()
        if len(parts) != n:
            raise MatrixParseError(f"row {idx} has {len(parts)} entries, expected {n}")
        # int() alone also takes a '+' sign, '_' separators and non-ASCII digits
        if "+" in line or "_" in line or not line.isascii():
            raise MatrixParseError(f"row {idx} contains a non-integer entry")
        try:
            rows.append(tuple(map(int, parts)))
        except ValueError:
            if all(map(_INTEGER.fullmatch, parts)):  # only the digit limit is left
                raise MatrixParseError(
                    f"row {idx} has an entry longer than {sys.get_int_max_str_digits()} digits"
                ) from None
            raise MatrixParseError(f"row {idx} contains a non-integer entry") from None
    return SquareIntMatrix(n, tuple(rows))


def format_matrix(matrix: SquareIntMatrix) -> str:
    """Render a matrix in the document format (re-parses to an equal matrix)."""
    lines = [str(matrix.n)]
    lines.extend(" ".join(str(v) for v in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def decide(document: str) -> Decision:
    """Finite-type decision for a matrix document."""
    return decide_matrix(parse_matrix(document))


# ---------------------------------------------------------------------------
# report helpers (everything user-facing is 1-based)

def _matrix_rows(matrix: SquareIntMatrix) -> list[list[int]]:
    return [list(row) for row in matrix.entries]

def _cycle_1based(cycle: ChordlessCycle) -> list[int]:
    return [v + 1 for v in cycle.vertices]

def _edges_1based(edges) -> list[list[int]]:
    return sorted([u + 1, v + 1] for u, v in edges)

def _reason_json(reason: Reason) -> dict:
    if isinstance(reason, EdgeBoundExceeded):
        return {
            "kind": reason.kind,
            "vertices": [v + 1 for v in reason.vertices],
            "edges": reason.edge_count,
            "bound": reason.bound,
        }
    if isinstance(reason, NonCyclicCycle):
        return {"kind": reason.kind, "cycle": [v + 1 for v in reason.vertices]}
    if isinstance(reason, StructuralFailure):
        return {
            "kind": reason.kind,
            "vertices": [v + 1 for v in reason.vertices],
            "detail": reason.detail,
        }
    return {
        "kind": reason.kind,
        "minor_index": reason.minor_index,
        "minor": reason.minor,
        "companion": _matrix_rows(reason.companion.C),
    }

def _reason_text(reason: Reason) -> str:
    if isinstance(reason, EdgeBoundExceeded):
        vs = " ".join(str(v + 1) for v in reason.vertices)
        return f"edge bound exceeded: {reason.edge_count} edges > {reason.bound} on vertices {vs}"
    if isinstance(reason, NonCyclicCycle):
        return "non-cyclic chordless cycle: " + " ".join(str(v + 1) for v in reason.vertices)
    if isinstance(reason, StructuralFailure):
        vs = " ".join(str(v + 1) for v in reason.vertices)
        return f"structural failure on vertices {vs}: {reason.detail}"
    return f"companion not positive: leading minor {reason.minor_index} = {reason.minor}"

def _certificate_json(cert: Certificate) -> dict:
    return {
        "cycles": [_cycle_1based(c) for c in cert.inventory.cycles],
        "single_edges": _edges_1based(cert.inventory.single_edges),
        "companion": _matrix_rows(cert.companion.C),
        "minors": list(cert.minors),
    }

def _class_report_json(report: MutationClassReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "i": report.witness.i + 1,
            "j": report.witness.j + 1,
            "value": report.witness.value,
        }
    return {
        "status": report.status.value,
        "visited": report.visited,
        "limit": report.limit,
        "witness": witness,
    }

def _class_report_text(report: MutationClassReport) -> str:
    if report.status is ClassStatus.LARGE_ENTRY_FOUND:
        w = report.witness
        return (
            f"LargeEntryFound |b_{w.i + 1},{w.j + 1} * b_{w.j + 1},{w.i + 1}| = {w.value}"
            f" (visited {report.visited}, limit {report.limit})"
        )
    return f"{report.status.value} (visited {report.visited}, limit {report.limit})"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, json payload, text lines)

def _load(path: str) -> SquareIntMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MatrixParseError(
            f"document is not valid UTF-8: {err.reason} at byte offset {err.start}"
        ) from None
    return parse_matrix(text)


def _cmd_decide(args) -> tuple[int, dict, list[str]]:
    decision = decide_matrix(_load(args.file))
    payload: dict = {"verdict": decision.verdict, "reason": None, "certificate": None}
    if decision.finite:
        payload["certificate"] = _certificate_json(decision.certificate)
        lines = [
            decision.verdict,
            f"chordless cycles: {len(decision.certificate.inventory.cycles)}",
            f"single edges: {len(decision.certificate.inventory.single_edges)}",
            "companion minors: " + " ".join(str(m) for m in decision.certificate.minors),
        ]
        return EXIT_FINITE, payload, lines
    payload["reason"] = _reason_json(decision.reason)
    return EXIT_NOT_FINITE, payload, [decision.verdict, "reason: " + _reason_text(decision.reason)]


def _not_oriented(witness: Reason) -> tuple[int, dict, list[str]]:
    payload = {"cyclically_oriented": False, "witness": _reason_json(witness)}
    lines = ["cyclically oriented: no", "witness: " + _reason_text(witness)]
    return EXIT_NOT_FINITE, payload, lines


def _cmd_cycles(args) -> tuple[int, dict, list[str]]:
    form = compute_skew_symmetrizer(_load(args.file))
    g = build_quiver(form)
    try:
        inventory = chordless_cycles_cod(g)
    except NotCyclicallyOrientedError as err:
        return _not_oriented(err.witness)
    payload = {
        "cyclically_oriented": True,
        "cycles": [_cycle_1based(c) for c in inventory.cycles],
        "single_edges": _edges_1based(inventory.single_edges),
    }
    lines = ["cyclically oriented: yes"]
    lines.extend("cycle: " + " ".join(str(v) for v in _cycle_1based(c)) for c in inventory.cycles)
    lines.extend("single edge: " + f"{u} {v}" for u, v in _edges_1based(inventory.single_edges))
    return EXIT_FINITE, payload, lines


def _cmd_companion(args) -> tuple[int, dict, list[str]]:
    decision = decide_matrix(_load(args.file))
    result = decision.certificate if decision.finite else decision.reason
    if not isinstance(result, (Certificate, CompanionNotPositive)):
        return _not_oriented(result)
    c = result.companion.C
    # build_companion sets c_ij = s * |b_ij| on every edge, so the signs read back exactly
    signs = [
        [i + 1, j + 1, 1 if row[j] > 0 else -1]
        for i, row in enumerate(c.entries) for j in compress(range(i + 1, c.n), row[i + 1:])
    ]
    payload = {
        "cyclically_oriented": True,
        "companion": _matrix_rows(c),
        "signs": signs,
        "positive": decision.finite,
    }
    lines = [format_matrix(c).rstrip("\n")]
    if decision.finite:
        payload["minors"] = list(result.minors)
        lines.append("# positive: yes")
        lines.append("# minors: " + " ".join(str(m) for m in result.minors))
        return EXIT_FINITE, payload, lines
    payload["failed_minor_index"] = result.minor_index
    payload["failed_minor"] = result.minor
    lines.append("# positive: no")
    lines.append(f"# leading minor {result.minor_index} = {result.minor}")
    return EXIT_NOT_FINITE, payload, lines


def _cmd_mutate(args) -> tuple[int, dict, list[str]]:
    form = compute_skew_symmetrizer(_load(args.file))
    if not 1 <= args.k <= form.n:
        raise InputError(f"mutation index {args.k} out of range 1..{form.n}")
    mutated = mutate(form, args.k - 1)
    payload = {"k": args.k, "matrix": _matrix_rows(mutated.B)}
    return EXIT_FINITE, payload, [format_matrix(mutated.B).rstrip("\n")]


def _oracle_limit(args) -> int:
    if args.limit is not None:
        limit = args.limit
    else:
        raw = os.environ.get(ORACLE_LIMIT_ENV)
        if raw is None:
            return DEFAULT_CLASS_LIMIT
        try:
            limit = int(raw)
        except ValueError:
            raise InputError(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if limit <= 0:
        raise InputError("limit must be positive")
    return limit


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    form = compute_skew_symmetrizer(_load(args.file))
    report = explore_mutation_class(form, _oracle_limit(args))
    payload = _class_report_json(report)
    lines = [_class_report_text(report)]
    if report.status is ClassStatus.FINITE_CLASS:
        return EXIT_FINITE, payload, lines
    if report.status is ClassStatus.LARGE_ENTRY_FOUND:
        return EXIT_NOT_FINITE, payload, lines
    return EXIT_ERROR, payload, lines


def _cmd_compare(args) -> tuple[int, dict, list[str]]:
    matrix = _load(args.file)
    decision = decide_matrix(matrix)
    form = compute_skew_symmetrizer(matrix)
    report = explore_mutation_class(form, _oracle_limit(args))

    # the brute-force companion search speaks to finite type only when the
    # graph is cyclically oriented (positive companions can exist regardless)
    oriented = decision.finite or isinstance(decision.reason, CompanionNotPositive)
    search: dict = {"applicable": oriented, "found": None, "skipped": None}
    brute_line = "companion brute force: skipped (graph not cyclically oriented)"
    if oriented:
        try:
            found = brute_force_positive_companion(form) is not None
            search["found"] = found
            brute_line = f"companion brute force: {'found' if found else 'None'}"
        except CapExceededError as err:
            search["skipped"] = str(err)
            brute_line = f"companion brute force: skipped ({err})"
    else:
        search["skipped"] = "graph not cyclically oriented"

    disagreements = []
    if report.status is ClassStatus.FINITE_CLASS and not decision.finite:
        disagreements.append("mutation class bounded but decision is NotFinite")
    if report.status is ClassStatus.LARGE_ENTRY_FOUND and decision.finite:
        disagreements.append("mutation class unbounded but decision is FiniteType")
    if search["found"] is not None and search["found"] != decision.finite:
        disagreements.append("brute-force companion search contradicts the decision")
    agree = not disagreements

    payload = {
        "verdict": decision.verdict,
        "reason": None if decision.finite else _reason_json(decision.reason),
        "mutation_class": _class_report_json(report),
        "companion_search": search,
        "agree": agree,
        "disagreements": disagreements,
    }
    lines = [
        "decide: " + decision.verdict
        + ("" if decision.finite else f" ({_reason_text(decision.reason)})"),
        "mutation-class oracle: " + _class_report_text(report),
        brute_line,
        "AGREE" if agree else "DISAGREE: " + "; ".join(disagreements),
    ]
    if not agree:
        return EXIT_ERROR, payload, lines
    return (EXIT_FINITE if decision.finite else EXIT_NOT_FINITE), payload, lines


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitype",
        description="Decide whether the cluster algebra of a skew-symmetrizable "
        "integer matrix is of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="matrix document (first line n, then n rows)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    add("decide", _cmd_decide, "run the full finite-type decision")
    add("cycles", _cmd_cycles, "enumerate chordless cycles and single edges")
    add("companion", _cmd_companion, "build the sign-condition companion and test positivity")
    p_mut = add("mutate", _cmd_mutate, "apply one matrix mutation and print the result")
    p_mut.add_argument("-k", type=int, required=True, help="mutation direction (1-based)")
    p_ora = add("oracle", _cmd_oracle, "explore the mutation class (bounded-entry check)")
    p_ora.add_argument("--limit", type=int, default=None, help="visited-matrix cap")
    p_cmp = add("compare", _cmd_compare, "run decide plus both oracles and report agreement")
    p_cmp.add_argument("--limit", type=int, default=None, help="visited-matrix cap")
    return parser


def _emit(as_json: bool, command: str, path: Optional[str], code: int, payload: dict,
          lines: list[str]) -> None:
    if as_json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "file": path,
            "exit_code": code,
        }
        report.update(payload)
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one CLI invocation; returns the exit status (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
        return EXIT_ERROR if code != 0 else 0
    try:
        code, payload, lines = args.handler(args)
    except (MatrixParseError, NotSkewSymmetrizableError, InputError, OSError) as err:
        if isinstance(err, NotSkewSymmetrizableError):
            kind = "not_skew_symmetrizable"
        elif isinstance(err, MatrixParseError):
            kind = "parse_error"
        elif isinstance(err, InputError):
            kind = "input_error"
        else:
            kind = "io_error"
        if args.json:
            _emit(True, args.command, args.file, EXIT_ERROR,
                  {"error": {"kind": kind, "detail": str(err)}}, [])
        else:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    _emit(args.json, args.command, args.file, code, payload, lines)
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
