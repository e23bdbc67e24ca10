"""Command-line front end: documents in, reports out.

This module only parses documents, runs the library's stages and renders
their results; the decision itself lives in ``finitype.decision``.
``parse_matrix`` and ``decide_matrix`` are looked up as names of this
module at call time, so a caller may substitute either for one run.

Matrix documents: first non-comment line is n, followed by n rows of n
integers separated by spaces or tabs; a line ends at a line feed,
optionally preceded by a carriage return; ``#`` starts a comment, blank
lines are ignored.  Every integer is ASCII ``-?[0-9]+`` and at most
``sys.get_int_max_str_digits()`` digits long; only the document is read
under that limit, and every integer of a report is printed in full.  All
vertices and indices are 1-based on the way in and out, 0-based internally.

A row is read by a fixed number of whole-line string scans (``translate``,
``count``, ``find``, ``split``), and Python objects are made only for the
tokens other than ``"0"``: parsing costs O(document bytes) in C plus
O(nonzero entries) in Python.  A row with more than n // 16 nonzero
fragments is split into its n tokens instead, which is cheaper there and
makes at most 16 objects per fragment.

A ``--json`` report is exactly ``json.dumps(report, indent=2)``, written by
a walk of the report that renders each matrix from its nonzero entries,
since the pure-Python encoder that ``indent`` selects would read all n²
entries.  Every report, text or JSON, goes to stdout piece by piece, a
matrix one row at a time, so no n² string is ever held whole.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from contextlib import contextmanager
from itertools import compress, repeat
from operator import ne
from typing import Callable, Iterator, Optional, Sequence

from .decision import Certificate, CompanionNotPositive, Reason, decide_matrix
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
_ROW_CHARS = str.maketrans("", "", "0123456789- \t")  # deletes every character a row may hold


def _integer(text: str) -> int:
    """``text`` as an int when it is spelled as the document grammar spells one.

    The one converter of the integer options and ``FINITYPE_ORACLE_LIMIT``:
    int() alone also takes a '+' sign, '_' separators, surrounding
    whitespace and non-ASCII digits.
    """
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than the digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class MatrixParseError(ValueError):
    """Malformed matrix document."""


class InputError(ValueError):
    """Input-domain error outside the document itself (bad index, bad limit)."""


def _nonzero_entries(line: str, n: int) -> tuple[tuple[int, int], ...]:
    """The (column, value) pairs of the nonzero entries of the row ``line``.

    ``line`` holds n tokens of digits and minus signs, separated by one
    space.  A token of zeros alone is never looked at: with the zeros
    blanked, every other token leaves one or more fragments; the first
    fragment of a token locates it in ``line``, and its column is the
    number of spaces before it.  That costs a few C calls per fragment, so
    a row with more than n // 16 fragments, where one split into its n
    tokens is cheaper, is read by that split instead; the split of the
    blanked row stops after n // 16 + 1 pieces, so telling costs no more.
    Raises ValueError when int() refuses a token it reads.
    """
    row = []
    most = n // 16
    blanked = line.replace("0", " ")
    fragments = blanked.split(None, most)
    if len(fragments) > most:
        parts = line.split(" ")
        for column in compress(range(n), map(ne, parts, repeat("0"))):
            v = int(parts[column])
            if v:
                row.append((column, v))
        return tuple(row)
    column = counted = end = after = 0  # end: of the last token read; after: of the last fragment
    for fragment in fragments:
        at = blanked.find(fragment, after)
        after = at + len(fragment)
        if at < end:  # a later fragment of the token just read, as the second "1" of "101"
            continue
        start = line.rfind(" ", 0, at) + 1
        end = line.find(" ", after)
        if end < 0:
            end = len(line)
        column += line.count(" ", counted, start)
        counted = start
        v = int(line[start:end])  # "-0" and "00" spellings of zero read as 0 and are not stored
        if v:
            row.append((column, v))
    return tuple(row)


def _token_error(idx: int, line: str) -> MatrixParseError:
    """The error of row ``idx``, one token of which int() refuses."""
    if all(map(_INTEGER.fullmatch, line.split())):  # only the digit limit is left
        return MatrixParseError(
            f"row {idx} has an entry longer than {sys.get_int_max_str_digits()} digits"
        )
    return MatrixParseError(f"row {idx} contains a non-integer entry")


def parse_matrix(text: str) -> SquareIntMatrix:
    """Parse the matrix document format; raises MatrixParseError."""
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
    limit = sys.get_int_max_str_digits()
    zero_run = "0" * (limit + 1)  # the shortest token of zeros alone that int() refuses
    rows = []
    for idx, line in enumerate(lines[1:], start=1):
        # int() alone also takes a '+' sign, '_' separators and non-ASCII digits,
        # and str.split() also splits at whitespace other than spaces and tabs
        if line.translate(_ROW_CHARS):
            raise MatrixParseError(f"row {idx} contains a non-integer entry")
        if "\t" in line or "  " in line:
            line = " ".join(line.split())
        entries = line.count(" ") + 1
        if entries != n:
            raise MatrixParseError(f"row {idx} has {entries} entries, expected {n}")
        if limit and zero_run in line:  # a token _nonzero_entries would not look at
            raise _token_error(idx, line)
        try:
            rows.append(_nonzero_entries(line, n))
        except ValueError:
            raise _token_error(idx, line) from None
    return SquareIntMatrix(n, tuple(rows))


def _rendered_rows(matrix: SquareIntMatrix, sep: str) -> Iterator[str]:
    """Each row of ``matrix`` as its n entries, each one after ``sep``.

    A row is built from its nonzero pairs; every run of zeros is a slice of
    one string of ``sep + "0"`` units, so the dense grid is never read.
    """
    unit = len(sep) + 1
    zeros = (sep + "0") * matrix.n
    for row in matrix.rows:
        pieces = []
        start = 0  # first column not rendered yet
        for j, v in row:
            pieces.append(zeros[: (j - start) * unit])
            pieces.append(sep + str(v))
            start = j + 1
        pieces.append(zeros[: (matrix.n - start) * unit])
        yield "".join(pieces)


def _document_lines(matrix: SquareIntMatrix) -> Iterator[str]:
    """The lines of ``matrix`` in the document format, each with its line feed."""
    yield f"{matrix.n}\n"
    for row in _rendered_rows(matrix, " "):
        yield row[1:] + "\n"


def format_matrix(matrix: SquareIntMatrix) -> str:
    """Render a matrix in the document format (re-parses to an equal matrix)."""
    return "".join(_document_lines(matrix))


# ---------------------------------------------------------------------------
# report helpers (everything user-facing is 1-based)

def _cycle_1based(cycle: tuple[int, ...]) -> list[int]:
    return [v + 1 for v in cycle]

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
        "companion": reason.companion.C,
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
        "companion": cert.companion.C,
        "minors": cert.minors,
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
# subcommand handlers: each takes the parsed document and returns
# (exit_code, json payload, text lines); both hold matrices as
# SquareIntMatrix, which only ``_emit`` renders

_Outcome = tuple[int, dict, list[str | SquareIntMatrix]]

def _load(path: str) -> SquareIntMatrix:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:  # a ValueError too, so it is caught first
        raise MatrixParseError(
            f"document is not valid UTF-8: {err.reason} at byte offset {err.start}"
        ) from None
    except ValueError as err:  # a NUL in the path, which only a library caller can pass
        raise OSError(errno.EINVAL, str(err), path) from None
    return parse_matrix(text)


def _cmd_decide(args, matrix: SquareIntMatrix) -> _Outcome:
    decision = decide_matrix(matrix)
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


def _not_oriented(witness: Reason) -> _Outcome:
    payload = {"cyclically_oriented": False, "witness": _reason_json(witness)}
    lines = ["cyclically oriented: no", "witness: " + _reason_text(witness)]
    return EXIT_NOT_FINITE, payload, lines


def _cmd_cycles(args, matrix: SquareIntMatrix) -> _Outcome:
    form = compute_skew_symmetrizer(matrix)
    g = build_quiver(form)
    try:
        inventory = chordless_cycles_cod(g)
    except NotCyclicallyOrientedError as err:
        return _not_oriented(err.witness)
    cycles = [_cycle_1based(c) for c in inventory.cycles]
    single_edges = _edges_1based(inventory.single_edges)
    payload = {"cyclically_oriented": True, "cycles": cycles, "single_edges": single_edges}
    lines = ["cyclically oriented: yes"]
    lines.extend("cycle: " + " ".join(map(str, c)) for c in cycles)
    lines.extend(f"single edge: {u} {v}" for u, v in single_edges)
    return EXIT_FINITE, payload, lines


def _cmd_companion(args, matrix: SquareIntMatrix) -> _Outcome:
    decision = decide_matrix(matrix)
    result = decision.certificate if decision.finite else decision.reason
    if not isinstance(result, (Certificate, CompanionNotPositive)):
        return _not_oriented(result)
    c = result.companion.C
    # build_companion sets c_ij = s * |b_ij| on every edge, so the signs read back exactly
    signs = [
        [i + 1, j + 1, 1 if v > 0 else -1] for i, row in enumerate(c.rows) for j, v in row if j > i
    ]
    payload = {
        "cyclically_oriented": True,
        "companion": c,
        "signs": signs,
        "positive": decision.finite,
    }
    lines: list[str | SquareIntMatrix] = [c]
    if decision.finite:
        payload["minors"] = result.minors
        lines.append("# positive: yes")
        lines.append("# minors: " + " ".join(str(m) for m in result.minors))
        return EXIT_FINITE, payload, lines
    payload["failed_minor_index"] = result.minor_index
    payload["failed_minor"] = result.minor
    lines.append("# positive: no")
    lines.append(f"# leading minor {result.minor_index} = {result.minor}")
    return EXIT_NOT_FINITE, payload, lines


def _cmd_mutate(args, matrix: SquareIntMatrix) -> _Outcome:
    form = compute_skew_symmetrizer(matrix)
    if not 1 <= args.k <= form.n:
        raise InputError(f"mutation index {args.k} out of range 1..{form.n}")
    mutated = mutate(form, args.k - 1)
    payload = {"k": args.k, "matrix": mutated.B}
    return EXIT_FINITE, payload, [mutated.B]


def _oracle_limit(args) -> int:
    if args.limit is not None:
        limit = args.limit
    else:
        raw = os.environ.get(ORACLE_LIMIT_ENV)
        if raw is None:
            return DEFAULT_CLASS_LIMIT
        try:
            limit = _integer(raw)
        except argparse.ArgumentTypeError:
            raise InputError(f"{ORACLE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if limit <= 0:
        raise InputError("limit must be positive")
    return limit


def _cmd_oracle(args, matrix: SquareIntMatrix) -> _Outcome:
    form = compute_skew_symmetrizer(matrix)
    report = explore_mutation_class(form, _oracle_limit(args))
    payload = _class_report_json(report)
    lines = [_class_report_text(report)]
    if report.status is ClassStatus.FINITE_CLASS:
        return EXIT_FINITE, payload, lines
    if report.status is ClassStatus.LARGE_ENTRY_FOUND:
        return EXIT_NOT_FINITE, payload, lines
    return EXIT_ERROR, payload, lines


def _cmd_compare(args, matrix: SquareIntMatrix) -> _Outcome:
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
    p_mut.add_argument("-k", type=_integer, required=True, help="mutation direction (1-based)")
    p_ora = add("oracle", _cmd_oracle, "explore the mutation class (bounded-entry check)")
    p_ora.add_argument("--limit", type=_integer, default=None, help="visited-matrix cap")
    p_cmp = add("compare", _cmd_compare, "run decide plus both oracles and report agreement")
    p_cmp.add_argument("--limit", type=_integer, default=None, help="visited-matrix cap")
    return parser


def _write_matrix_json(write: Callable[[str], object], matrix: SquareIntMatrix,
                       depth: int) -> None:
    """Write ``matrix`` as ``json.dumps(matrix.entries, indent=2)`` renders it at level ``depth``.

    One row per ``write``, each built by ``_rendered_rows``.
    """
    if not matrix.n:
        write("[]")
        return
    row_indent = "\n" + "  " * (depth + 1)
    before = "[" + row_indent  # what comes before the next row
    for row in _rendered_rows(matrix, ",\n" + "  " * (depth + 2)):
        # the row's entries, each after a separator: the first one's "," becomes the "["
        write(f"{before}[{row[1:]}{row_indent}]")
        before = "," + row_indent
    write("\n" + "  " * depth + "]")


def _write_json(write: Callable[[str], object], value, depth: int = 0) -> None:
    """Write ``json.dumps(value, indent=2)`` as it renders at level ``depth``.

    Each SquareIntMatrix in ``value`` goes through ``_write_matrix_json``.
    """
    if type(value) is int:
        write(int.__repr__(value))  # as json renders an int
    elif isinstance(value, SquareIntMatrix):
        _write_matrix_json(write, value, depth)
    elif isinstance(value, (dict, list, tuple)) and value:
        indent = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            brackets, items = "{}", ((f"{json.dumps(k)}: ", v) for k, v in value.items())
        else:
            brackets, items = "[]", zip(repeat(""), value)
        before = brackets[0] + indent
        for key, item in items:
            write(before + key)
            _write_json(write, item, depth + 1)
            before = "," + indent
        write("\n" + "  " * depth + brackets[1])
    else:
        write(json.dumps(value))


@contextmanager
def _ints_in_full():
    """Lift Python's int-to-str digit limit: the program prints its own integers whole."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(as_json: bool, command: str, path: Optional[str], code: int, payload: dict,
          lines: list[str | SquareIntMatrix]) -> None:
    """Write the report to ``sys.stdout``, each piece as soon as it is rendered."""
    write = sys.stdout.write
    if as_json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "file": path,
            "exit_code": code,
        }
        report.update(payload)
        _write_json(write, report)
        write("\n")
        return
    for line in lines:
        if isinstance(line, SquareIntMatrix):
            for piece in _document_lines(line):
                write(piece)
        else:
            write(line + "\n")


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one CLI invocation; returns the exit status (0/1/2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
        return EXIT_ERROR if code != 0 else 0
    try:
        matrix = _load(args.file)  # the one input read under the digit limit
        with _ints_in_full():
            code, payload, lines = args.handler(args, matrix)
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
    with _ints_in_full():
        _emit(args.json, args.command, args.file, code, payload, lines)
    return code


def main() -> None:
    try:
        code = run_command()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: stdout goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
