import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import finitype.cli
from finitype import (
    MatrixParseError,
    SquareIntMatrix,
    assign_signs,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    decide_matrix,
    format_matrix,
    mutate,
    parse_matrix,
    run_command,
)

from helpers import (
    a_path,
    from_arcs,
    random_cyclically_oriented_arcs,
    reference_format_matrix,
    reference_parse_matrix,
    sparse_from_arcs,
)

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())
# one validator for the module: jsonschema.validate re-checks the schema on every call
_VALIDATOR_CLASS = jsonschema.validators.validator_for(SCHEMA)
_VALIDATOR_CLASS.check_schema(SCHEMA)
VALIDATOR = _VALIDATOR_CLASS(SCHEMA)


def path(name: str) -> str:
    return str(DATA / name)


def run_json(capsys, *argv) -> tuple[int, dict]:
    code = run_command([*argv, "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    VALIDATOR.validate(report)
    assert report["exit_code"] == code
    return code, report


# ---------------------------------------------------------------------------
# document format

def test_parse_comments_and_blanks():
    text = "# header\n\n2\n0 1   # inline\n\n-1 0\n"
    assert parse_matrix(text).entries == ((0, 1), (-1, 0))


def test_parse_errors():
    for text in ["", "x", "2\n0 1", "2\n0 1\n-1 0 0", "2\n0 a\n-1 0", "-1"]:
        with pytest.raises(MatrixParseError):
            parse_matrix(text)


@pytest.mark.parametrize(
    "entry", ["1_0", "+1", "\u0661", "\uff11", "1-2", "-", "--1", "0-", "--0"]
)
def test_parse_rejects_non_ascii_grammar_entry(entry):
    # underscore separators, an explicit plus, Arabic-Indic and fullwidth
    # digits, and a minus sign that does not lead the digits
    with pytest.raises(MatrixParseError, match="row 1 contains a non-integer entry"):
        parse_matrix(f"2\n0 {entry}\n-1 0\n")


@pytest.mark.parametrize("dimension", ["+2", "0_2", "\u0662"])
def test_parse_rejects_non_ascii_grammar_dimension(dimension):
    with pytest.raises(MatrixParseError, match="first line must be the dimension"):
        parse_matrix(f"{dimension}\n0 1\n-1 0\n")


@pytest.mark.parametrize(
    "char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
)
def test_parse_only_line_feed_breaks_lines_and_only_space_tab_separate(capsys, tmp_path, char):
    # inside a comment any character is fine; outside it is not a separator
    good = f"# a{char}b\n2\n0 1 # {char}\n-1\t0\r\n"
    bad = f"2\n0{char}1\n-1 0\n"
    assert parse_matrix(good).entries == ((0, 1), (-1, 0))
    with pytest.raises(MatrixParseError, match="row 1 contains a non-integer entry"):
        parse_matrix(bad)
    # a document file reaches the parser as it is, no line ending translated
    doc = tmp_path / "doc.mat"
    doc.write_bytes(good.encode("utf-8"))
    assert run_command(["decide", str(doc)]) == 0
    assert capsys.readouterr().out.startswith("FiniteType\n")
    doc.write_bytes(bad.encode("utf-8"))
    assert run_command(["decide", str(doc)]) == 2
    assert capsys.readouterr().err == "error: row 1 contains a non-integer entry\n"


@pytest.mark.parametrize("zero", ["0", "00", "-0", "-00"])
def test_parse_zero_spellings(zero):
    matrix = parse_matrix(f"3\n{zero} 1 {zero}\n-1 {zero} {zero}\n{zero} {zero} {zero}\n")
    assert matrix.entries == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    # a stored zero would break equality with the same matrix spelled with plain 0
    assert matrix == parse_matrix("3\n0 1 0\n-1 0 0\n0 0 0\n")
    assert all(v for row in matrix.rows for _, v in row)


def test_parse_entry_over_digit_limit():
    limit = sys.get_int_max_str_digits()
    long_entry = "-" + "1" * (limit + 1)
    with pytest.raises(MatrixParseError, match=f"row 2 has an entry longer than {limit} digits"):
        parse_matrix(f"2\n0 1\n{long_entry} 0\n")
    # int() refuses a token of zeros alone once it is longer than the limit,
    # in any column and with a sign, though no zero is ever stored
    for zeros in ("0" * (limit + 1), "-" + "0" * (limit + 1)):
        for row in (f"{zeros} 1 0", f"1 0 {zeros}", f"0\t{zeros}  0"):
            with pytest.raises(MatrixParseError,
                               match=f"^row 2 has an entry longer than {limit} digits$"):
                parse_matrix(f"3\n0 -1 0\n{row}\n0 0 0\n")
    # with a malformed token in the same row, the malformed token is reported
    with pytest.raises(MatrixParseError, match="^row 1 contains a non-integer entry$"):
        parse_matrix(f"2\n{'0' * (limit + 1)} 0-\n0 0\n")
    # the same at n = 16, where a row with one token other than "0" is scanned, not split
    blank = " 0" * 15
    for token in (long_entry, "0-"):
        rows = [f"0{blank}", " ".join(["0"] * 13 + [token, "0", "0"]), f"-1{blank}"]
        message = "has an entry longer than" if token == long_entry else "contains a non-integer"
        with pytest.raises(MatrixParseError, match=f"^row 2 {message}"):
            parse_matrix("16\n" + "\n".join(rows + [f"0{blank}"] * 13) + "\n")
    # the longest allowed entries still parse
    assert parse_matrix(f"1\n{'0' * limit}\n").entries == ((0,),)
    assert parse_matrix(f"2\n{'0' * limit} -{'0' * limit}\n0 0\n").rows == ((), ())


@pytest.mark.parametrize("entry, value", [("101", 101), ("-1001", -1001), ("100", 100),
                                          ("-0010", -10), ("0007", 7)])
def test_parse_entries_with_zero_digits_in_first_and_last_column(entry, value):
    text = f"3\n{entry} 0 0\n0 0 {entry}\n\t{entry} 00  {entry}\t# both\n"
    assert parse_matrix(text).entries == ((value, 0, 0), (0, 0, value), (value, 0, value))


@pytest.mark.parametrize("row, entries", [("0 0- 1 1", 4), ("--1\t1", 2), ("1 - ", 2)])
def test_parse_reports_the_entry_count_before_a_malformed_token(row, entries):
    with pytest.raises(MatrixParseError, match=f"^row 2 has {entries} entries, expected 3$"):
        parse_matrix(f"3\n0 1 0\n{row}\n0 0 0\n")


def test_parse_round_trip_at_scale():
    # a relabeled n = 2000 path with multi-digit weights; vertex 0 is joined
    # to n - 1, so row 0 ends and row n - 1 starts with a nonzero entry,
    # and every column count runs over thousands of tokens
    n = 2000
    rng = random.Random(2000)
    order = [0, n - 1] + rng.sample(range(1, n - 1), n - 2)
    weights = [10, -101, 1000, -12345, 7, 1001]
    arcs = {(order[k], order[k + 1]): rng.choice(weights) for k in range(n - 1)}
    matrix = sparse_from_arcs(n, arcs)
    assert matrix.rows[0][-1][0] == n - 1 and matrix.rows[n - 1][0][0] == 0
    assert parse_matrix(format_matrix(matrix)) == matrix


ENTRY_TOKENS = ["0", "00", "-0", "-00", "1", "-1", "10", "-10", "101", "007", "-300"]
BAD_TOKENS = ["-", "0-", "1-1", "--1"]


@st.composite
def odd_documents(draw) -> str:
    """A document of n = 0..8 in the spellings the grammar allows, and some it does not.

    Some rows have n - 1 or n + 1 entries and some documents n - 1 or n + 1
    rows; tokens are spelled with extra zeros and signs, now and then
    malformed; separators are runs of spaces and tabs, also at either end
    of a row; lines end in LF or CR LF among comments and blank lines.
    At n < 16 every row with a token other than "0" is split into tokens;
    ``wide_documents`` reaches the rows that are scanned.
    """
    n = draw(st.integers(0, 8))
    # rare enough that about half the documents parse
    rows_off, entries_off = (st.sampled_from([0] * k + [-1, 1]) for k in (14, 30))
    token = st.sampled_from(ENTRY_TOKENS * 10 + BAD_TOKENS)
    separator = st.sampled_from([" ", " ", "  ", "\t", " \t", "\t\t "])
    edge = st.sampled_from(["", "", " ", "\t", "  \t"])
    comment = st.sampled_from(["", "", "", " # note", "\t#1 2 3", "#"])
    lines = [draw(edge) + str(n) + draw(edge) + draw(comment)]
    for _ in range(max(n + draw(rows_off), 0)):
        entries = max(n + draw(entries_off), 0)
        tokens = draw(st.lists(token, min_size=entries, max_size=entries))
        row = draw(edge)
        for k, tok in enumerate(tokens):
            row += (draw(separator) if k else "") + tok
        lines.append(row + draw(edge) + draw(comment))
    for _ in range(draw(st.integers(0, 2))):  # blank and comment lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " \t", "# c"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except MatrixParseError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(odd_documents())
@example("2\r\n\t0  -00\t101\r\n-0 0 # c\r\n")
@example("3\n-1001 0 007\n0 0 0\n0 0- 0 0\n")
def test_parse_matches_the_token_per_column_reference(text):
    assert parse_outcome(parse_matrix, text) == parse_outcome(reference_parse_matrix, text)


@st.composite
def wide_documents(draw) -> str:
    """A document of n = 16..36 whose rows hold about n // 16 nonzero fragments.

    A row with more than n // 16 fragments is split into tokens and any
    other row is scanned for its fragments, so these rows fall on either
    side of that line.  Rows are separated by one drawn separator.  About
    half the documents parse: the others have a row with an entry too many
    or too few, or a malformed token.
    """
    n = draw(st.integers(16, 36))
    separator = draw(st.sampled_from([" ", "  ", "\t"]))
    odd_row = draw(st.integers(0, 4 * n))  # the row with n - 1 or n + 1 entries, if < n
    bad = BAD_TOKENS if draw(st.integers(0, 3)) == 0 else []
    token = st.sampled_from(ENTRY_TOKENS[1:] * 10 + bad)
    lines = [str(n)]
    for i in range(n):
        entries = n + (draw(st.sampled_from([-1, 1])) if i == odd_row else 0)
        row = ["0"] * entries
        for j, tok in draw(st.dictionaries(st.integers(0, entries - 1), token,
                                           max_size=n // 16 + 2)).items():
            row[j] = tok
        lines.append(separator.join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(wide_documents())
def test_parse_reads_split_and_scanned_rows_as_the_reference(text):
    assert parse_outcome(parse_matrix, text) == parse_outcome(reference_parse_matrix, text)


def test_parse_dense_document():
    # every entry off the diagonal nonzero, so every row is read by one split
    rng = random.Random(300)
    n = 300
    text = f"{n}\n" + "".join(
        " ".join("0" if i == j else str(rng.choice([-12, -3, -1, 1, 2, 101])) for j in range(n))
        + "\n" for i in range(n))
    matrix = parse_matrix(text)
    assert matrix == reference_parse_matrix(text)
    assert sum(map(len, matrix.rows)) == n * (n - 1)


def test_format_round_trip():
    mat = SquareIntMatrix.from_rows([[0, 12, -3], [-12, 0, 1], [3, -1, 0]])
    assert parse_matrix(format_matrix(mat)) == mat


def test_decide_trivial_dimensions(capsys, tmp_path):
    # 0 and 1 vertex graphs are vacuously finite type
    for text in ("0\n", "1\n0\n"):
        doc = tmp_path / "tiny.mat"
        doc.write_text(text)
        code, report = run_json(capsys, "decide", str(doc))
        assert code == 0
        assert report["verdict"] == "FiniteType"


# ---------------------------------------------------------------------------
# exit codes and text output

def test_decide_exit_codes(capsys):
    assert run_command(["decide", path("a2.mat")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "FiniteType"
    assert run_command(["decide", path("markov.mat")]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "NotFinite"
    assert run_command(["decide", path("badsign.mat")]) == 2
    captured = capsys.readouterr()
    assert "skew" in captured.err


def test_decide_missing_file(capsys):
    assert run_command(["decide", path("no_such_file.mat")]) == 2


def test_path_with_nul_is_an_io_error(capsys):
    # open() raises ValueError rather than OSError on an embedded NUL
    assert run_command(["decide", "a\x00b"]) == 2
    assert capsys.readouterr().err == "error: [Errno 22] embedded null byte: 'a\\x00b'\n"
    code, report = run_json(capsys, "decide", "a\x00b")
    assert code == 2 and report["error"]["kind"] == "io_error"


def test_unknown_subcommand(capsys):
    assert run_command(["bogus"]) == 2


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0


def test_mutate_round_trip(capsys):
    assert run_command(["mutate", path("a3path.mat"), "-k", "2"]) == 0
    printed = capsys.readouterr().out
    assert parse_matrix(printed).entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_output_reads_back_while_its_entries_fit_the_read_limit(capsys, tmp_path):
    # mutate -k 2 on 0 E 0 / -E 0 E / 0 -E 0 prints E**2; the document reader
    # keeps its digit limit, so the output reads back only while E**2 fits it
    limit = sys.get_int_max_str_digits()
    doc, out = tmp_path / "in.mat", tmp_path / "out.mat"
    for zeros in (limit // 2 - 1, limit // 2):
        e = "1" + "0" * zeros
        doc.write_text(f"3\n0 {e} 0\n-{e} 0 {e}\n0 -{e} 0\n")
        assert run_command(["mutate", str(doc), "-k", "2"]) == 0
        out.write_text(capsys.readouterr().out)
        fits = 2 * zeros + 1 <= limit
        assert run_command(["decide", str(out)]) == (1 if fits else 2)
        err = capsys.readouterr().err
        assert err == ("" if fits else f"error: row 1 has an entry longer than {limit} digits\n")


def test_mutate_bad_index(capsys):
    assert run_command(["mutate", path("a3path.mat"), "-k", "4"]) == 2
    assert run_command(["mutate", path("a3path.mat"), "-k", "0"]) == 2
    # -k is spelled as the document grammar spells an integer: ASCII -?[0-9]+
    for k in ("+1", "\u0662", "0_1", " 1", "1.0"):
        assert run_command(["mutate", path("a3path.mat"), "-k", k]) == 2
        assert "invalid int value" in capsys.readouterr().err
    assert run_command(["mutate", path("a3path.mat"), "-k", "-1"]) == 2
    assert run_command(["mutate", path("a3path.mat"), "-k", "01"]) == 0


def test_cycles_text(capsys):
    assert run_command(["cycles", path("triangle.mat")]) == 0
    out = capsys.readouterr().out
    assert "cycle: 1 2 3" in out
    assert run_command(["cycles", path("alt4cycle.mat")]) == 1
    out = capsys.readouterr().out
    assert "non-cyclic chordless cycle: 1 2 3 4" in out


def test_companion_output_reparses(capsys):
    assert run_command(["companion", path("g2.mat")]) == 0
    printed = capsys.readouterr().out
    # info lines are comments, so the whole report is a valid document
    assert parse_matrix(printed).entries == ((2, 1), (3, 2))
    assert "# positive: yes" in printed

    assert run_command(["companion", path("markov.mat")]) == 1
    printed = capsys.readouterr().out
    assert "# leading minor 2 = 0" in printed


def test_compare_text(capsys):
    assert run_command(["compare", path("markov.mat")]) == 1
    out = capsys.readouterr().out
    assert "decide: NotFinite" in out
    assert "LargeEntryFound" in out
    assert "companion brute force: None" in out
    assert out.rstrip().endswith("AGREE")

    assert run_command(["compare", path("a2.mat")]) == 0
    assert "AGREE" in capsys.readouterr().out


def test_compare_agrees_on_entire_bundled_corpus(capsys):
    for doc in sorted(DATA.glob("*.mat")):
        code = run_command(["compare", str(doc)])
        out = capsys.readouterr()
        if doc.name == "badsign.mat":
            assert code == 2
        else:
            assert code in (0, 1)
            assert "DISAGREE" not in out.out


def test_oracle_limit_flag(capsys):
    assert run_command(["oracle", path("a3path.mat"), "--limit", "2"]) == 2
    assert "LimitExceeded" in capsys.readouterr().out
    assert run_command(["oracle", path("a3path.mat"), "--limit", "50"]) == 0
    assert "FiniteClass" in capsys.readouterr().out


def test_limit_flag_takes_only_the_document_grammar(capsys):
    # a flag that is not ASCII -?[0-9]+ is refused
    for command in ("oracle", "compare"):
        for limit in ("\u0663", "1_0", "+5", "5 "):
            assert run_command([command, path("a3path.mat"), "--limit", limit]) == 2
            assert "invalid int value" in capsys.readouterr().err
    assert run_command(["oracle", path("a3path.mat"), "--limit", "050"]) == 0


@pytest.mark.parametrize("command", ["oracle", "compare"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_limit_must_be_positive(capsys, command, limit):
    assert run_command([command, path("a3path.mat"), "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: limit must be positive\n")
    code, report = run_json(capsys, command, path("a3path.mat"), "--limit", limit)
    assert code == 2
    assert report["error"] == {"kind": "input_error", "detail": "limit must be positive"}


def test_oracle_limit_ignores_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("FINITYPE_ORACLE_LIMIT", "2")
    assert run_command(["oracle", path("a3path.mat")]) == 0
    assert capsys.readouterr().out.startswith("FiniteClass ")


# ---------------------------------------------------------------------------
# JSON reports validate against the shipped schema

def test_json_decide_finite(capsys):
    code, report = run_json(capsys, "decide", path("a2.mat"))
    assert code == 0
    assert report["verdict"] == "FiniteType"
    assert report["certificate"]["minors"] == [2, 3]
    assert report["certificate"]["single_edges"] == [[1, 2]]


def test_json_decide_not_finite(capsys):
    code, report = run_json(capsys, "decide", path("markov.mat"))
    assert code == 1
    assert report["reason"]["kind"] == "companion_not_positive"
    assert report["reason"]["minor_index"] == 2
    assert report["reason"]["companion"] == [[2, 2, 2], [2, 2, 2], [2, 2, 2]]


def test_json_decide_non_cyclic(capsys):
    code, report = run_json(capsys, "decide", path("alt4cycle.mat"))
    assert code == 1
    assert report["reason"] == {"kind": "non_cyclic_cycle", "cycle": [1, 2, 3, 4]}


def test_json_decide_domain_error(capsys):
    code, report = run_json(capsys, "decide", path("badsign.mat"))
    assert code == 2
    assert report["error"]["kind"] == "not_skew_symmetrizable"


def test_symmetrizer_error_names_vertices_1_based(capsys, tmp_path):
    # ratios 1/2, 1 and 1 around the triangle: the check fails between vertices 2 and 3
    doc = tmp_path / "inconsistent.mat"
    doc.write_text("3\n0 1 -1\n-2 0 1\n1 -1 0\n")
    assert run_command(["decide", str(doc)]) == 2
    assert capsys.readouterr().err == "error: D*B is not skew-symmetric at vertices (2, 3)\n"
    code, report = run_json(capsys, "decide", str(doc))
    assert code == 2
    assert report["error"] == {
        "kind": "not_skew_symmetrizable",
        "detail": "D*B is not skew-symmetric at vertices (2, 3)",
    }


def test_json_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n0 1\n")
    code, report = run_json(capsys, "decide", str(bad))
    assert code == 2
    assert report["error"]["kind"] == "parse_error"


def test_json_cycles(capsys):
    code, report = run_json(capsys, "cycles", path("triangle.mat"))
    assert code == 0
    assert report["cycles"] == [[1, 2, 3]]
    code, report = run_json(capsys, "cycles", path("alt4cycle.mat"))
    assert code == 1
    assert report["witness"]["cycle"] == [1, 2, 3, 4]


def test_json_companion(capsys):
    code, report = run_json(capsys, "companion", path("triangle.mat"))
    assert code == 0
    assert report["positive"] is True
    assert report["companion"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert report["minors"] == [2, 3, 4]
    assert [1, 2, 1] in report["signs"]


def test_json_mutate(capsys):
    code, report = run_json(capsys, "mutate", path("a2.mat"), "-k", "1")
    assert code == 0
    assert report["matrix"] == [[0, -1], [1, 0]]


def test_json_oracle(capsys):
    code, report = run_json(capsys, "oracle", path("markov.mat"))
    assert code == 1
    assert report["status"] == "LargeEntryFound"
    assert report["witness"] == {"i": 1, "j": 2, "value": 4}
    code, report = run_json(capsys, "oracle", path("g2.mat"))
    assert code == 0
    assert report["status"] == "FiniteClass" and report["visited"] == 2


def test_json_compare_markov(capsys):
    code, report = run_json(capsys, "compare", path("markov.mat"))
    assert code == 1
    assert report["agree"] is True
    assert report["companion_search"] == {
        "applicable": True,
        "found": False,
        "skipped": None,
    }


def test_json_compare_alt_cycle_brute_force_not_applicable(capsys):
    # a positive companion exists here even though the graph is not
    # cyclically oriented, so the brute-force column must be marked n/a
    code, report = run_json(capsys, "compare", path("alt4cycle.mat"))
    assert code == 1
    assert report["agree"] is True
    assert report["companion_search"]["applicable"] is False


def test_json_compare_finite(capsys):
    code, report = run_json(capsys, "compare", path("g2.mat"))
    assert code == 0
    assert report["verdict"] == "FiniteType"
    assert report["mutation_class"]["status"] == "FiniteClass"
    assert report["companion_search"]["found"] is True


@pytest.mark.parametrize(
    "text, error",
    [
        ("# type A1 \u2028 note\n1\n0\n", None),  # line separator inside a comment
        ("1\n0 # \u2029 tail\n", None),  # paragraph separator inside a comment
        ("2\n0\x0c1\n-1 0\n", "row 1 contains a non-integer entry"),  # form feed
        ("2\n0\x1f1\n-1\t0\n", "row 1 contains a non-integer entry"),  # unit separator
    ],
)
def test_document_line_breaks_and_separators(capsys, tmp_path, text, error):
    doc = tmp_path / "doc.mat"
    doc.write_bytes(text.encode("utf-8"))
    code = run_command(["decide", str(doc)])
    captured = capsys.readouterr()
    if error is None:
        assert (code, captured.out, captured.err) == (
            0, "FiniteType\nchordless cycles: 0\nsingle edges: 0\ncompanion minors: 2\n", ""
        )
    else:
        assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n")
    code, report = run_json(capsys, "decide", str(doc))
    if error is None:
        assert (code, report["verdict"]) == (0, "FiniteType")
    else:
        assert (code, report["error"]) == (2, {"kind": "parse_error", "detail": error})


@pytest.mark.parametrize("command", ["decide", "cycles", "companion", "compare"])
def test_non_utf8_document_is_a_parse_error(capsys, tmp_path, command):
    doc = tmp_path / "latin1.mat"
    # the offset counts from the start of the document, however far in the byte is
    for head, offset in (("# caf", 5), ("#" * 200_001 + "\n# caf", 200_007)):
        doc.write_bytes(head.encode() + b"\xe9\n2\n0 1\n-1 0\n")
        assert run_command([command, str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: document is not valid UTF-8: invalid continuation byte at byte offset {offset}\n"
        )
        code, report = run_json(capsys, command, str(doc))
        assert code == 2
        assert report["error"]["kind"] == "parse_error"
    # UTF-8 comments stay accepted
    doc.write_text("# café — A2\n2\n0 1\n-1 0\n", encoding="utf-8")
    assert run_command([command, str(doc)]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the subcommands render the one decision

def companion_json_checked(capsys, doc) -> dict:
    """companion --json report, its signs checked against assign_signs (1-based, sorted)."""
    code, report = run_json(capsys, "companion", str(doc))
    assert code in (0, 1)
    if report["cyclically_oriented"]:
        form = compute_skew_symmetrizer(parse_matrix(doc.read_text()))
        g = build_quiver(form)
        signs = assign_signs(g, chordless_cycles_cod(g))
        assert report["signs"] == sorted([u + 1, v + 1, s] for (u, v), s in signs.items())
        assert report["positive"] is (code == 0)
    return report


def test_companion_signs_match_assign_signs(capsys, tmp_path):
    bundled = [companion_json_checked(capsys, doc) for doc in sorted(DATA.glob("*.mat"))
               if doc.name != "badsign.mat"]
    assert sum(r["cyclically_oriented"] for r in bundled) == 5
    rng = random.Random(4242)
    not_positive = 0
    for k in range(120):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=9, asym_weights=True)
        doc = tmp_path / f"q{k}.mat"
        doc.write_text(format_matrix(from_arcs(n, arcs)))
        report = companion_json_checked(capsys, doc)
        assert report["cyclically_oriented"]
        not_positive += not report["positive"]
    assert not_positive > 0


def test_compare_parses_once(capsys, monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_matrix(text)

    monkeypatch.setattr(finitype.cli, "parse_matrix", counting_parse)
    assert run_command(["compare", path("g2.mat")]) == 0
    assert "AGREE" in capsys.readouterr().out
    assert len(calls) == 1


def test_run_command_looks_up_parse_and_decide_at_call_time(capsys, monkeypatch):
    # a markov document, but parsed as A2 and then decided with its certificate's minors changed
    def fake_parse(text):
        return parse_matrix("2\n0 1\n-1 0\n")

    def fake_decide(matrix):
        decision = decide_matrix(matrix)
        cert = dataclasses.replace(decision.certificate, minors=(7, 7))
        return dataclasses.replace(decision, certificate=cert)

    monkeypatch.setattr(finitype.cli, "parse_matrix", fake_parse)
    code, report = run_json(capsys, "decide", path("markov.mat"))
    assert code == 0 and report["certificate"]["minors"] == [2, 3]
    monkeypatch.setattr(finitype.cli, "decide_matrix", fake_decide)
    code, report = run_json(capsys, "decide", path("markov.mat"))
    assert code == 0 and report["certificate"]["minors"] == [7, 7]


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    root = Path(__file__).parent.parent
    src = str(Path(finitype.__file__).resolve().parent.parent)
    argv = ["decide", "tests/data/a2.mat", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "finitype", *argv], cwd=root, capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    monkeypatch.chdir(root)
    code = run_command(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert code == 0 and proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [["decide", "--json"], ["companion"], ["companion", "--json"],
                                  ["mutate", "-k", "1", "--json"]])
def test_closed_stdout_exits_2_without_traceback(argv, tmp_path):
    # an n = 300 path's report is far larger than a pipe buffer, so writing
    # it fails once the reader has closed the pipe after one byte
    doc = tmp_path / "a300.mat"
    doc.write_text(format_matrix(a_path(300)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "finitype", argv[0], str(doc), *argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(finitype.__file__).resolve().parent.parent)},
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in stderr
    assert stderr.startswith(b"error: ") and stderr.count(b"\n") == 1


def test_reports_are_the_same_under_python_dash_O():
    # no check may live in an assert, which -O strips
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(Path(finitype.__file__).resolve().parent.parent)}
    for doc in sorted(DATA.glob("*.mat")):
        for command in ("decide", "companion"):
            runs = [
                subprocess.run(
                    [sys.executable, *flags, "-m", "finitype", command, str(doc), "--json"],
                    cwd=root, capture_output=True, timeout=60, env=env,
                )
                for flags in ([], ["-O"])
            ]
            plain, optimized = ((proc.returncode, proc.stdout) for proc in runs)
            assert optimized == plain, (doc.name, command)


# ---------------------------------------------------------------------------
# reports print every integer in full and render exactly as json.dumps

def test_report_prints_integers_longer_than_the_digit_limit(capsys, tmp_path):
    # the third leading minor of this valid document, 6 - 2 * 10**8000, has 8001 digits
    big = "1" + "0" * 4000
    doc = tmp_path / "big.mat"
    doc.write_text(f"3\n0 1 0\n-1 0 {big}\n0 -{big} 0\n")
    minor = "-1" + "9" * 7999 + "4"
    limit = sys.get_int_max_str_digits()

    proc = subprocess.run(
        [sys.executable, "-m", "finitype", "decide", str(doc)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(Path(finitype.__file__).parent.parent)},
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == f"NotFinite\nreason: companion not positive: leading minor 3 = {minor}\n"

    assert run_command(["decide", str(doc), "--json"]) == 1
    out = capsys.readouterr().out
    assert f'\n    "minor": {minor},\n' in out
    assert sys.get_int_max_str_digits() == limit
    with finitype.cli._ints_in_full():
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    # mutate -k 2 squares the 2500-digit weight; the other subcommands print the minor
    wide = "1" + "0" * 2500
    mut = tmp_path / "mut.mat"
    mut.write_text(f"3\n0 {wide} 0\n-{wide} 0 {wide}\n0 -{wide} 0\n")
    runs = [["companion", str(doc)], ["oracle", str(doc)], ["compare", str(doc)],
            ["mutate", str(mut), "-k", "2"]]
    for argv in runs:
        for flag in ([], ["--json"]):
            assert run_command([*argv, *flag]) in (0, 1)
            captured = capsys.readouterr()
            assert captured.err == ""
            assert sys.get_int_max_str_digits() == limit
    assert run_command(["mutate", str(mut), "-k", "2"]) == 0
    assert "1" + "0" * 5000 in capsys.readouterr().out

    # the document itself is still read under the limit
    doc.write_text(f"2\n0 1\n-1{'0' * limit} 0\n")
    assert run_command(["decide", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: row 2 has an entry longer than {limit} digits\n"


@st.composite
def oriented_documents(draw) -> str:
    """A cyclically oriented document with n = 0..12 vertices.

    Unused vertices give all-zero rows, a random placement puts zeros at
    either end of a row, and a common weight factor makes entries multi-digit.
    """
    n = draw(st.integers(0, 12))
    rows = [[0] * n for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        k, arcs = random_cyclically_oriented_arcs(rng, max_vertices=n, asym_weights=True)
        place = draw(st.permutations(range(n)))
        factor = draw(st.sampled_from([1, 1, 2, 10, 123]))
        for (i, j), w in arcs.items():
            a, c = w if isinstance(w, tuple) else (w, w)
            rows[place[i]][place[j]] = a * factor
            rows[place[j]][place[i]] = -c * factor
    return format_matrix(SquareIntMatrix.from_rows(rows)) if n else "0\n"


@settings(max_examples=200, deadline=None)
@given(oriented_documents())
@example("0\n")
@example("1\n0\n")
@example("3\n0 0 0\n0 0 -12\n0 12 0\n")
def test_json_report_is_json_dumps(tmp_path_factory, text):
    doc = tmp_path_factory.mktemp("doc") / "doc.mat"
    doc.write_text(text)
    for argv in (["decide"], ["companion"], ["mutate", "-k", "1"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run_command([argv[0], str(doc), *argv[1:], "--json"])
        out = out.getvalue()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def replace_matrices(value):
    """``value`` with every SquareIntMatrix replaced by its rows, as json.dumps can render it."""
    if isinstance(value, SquareIntMatrix):
        return value.entries
    if isinstance(value, dict):
        return {k: replace_matrices(v) for k, v in value.items()}
    if isinstance(value, list):
        return [replace_matrices(v) for v in value]
    return value


@st.composite
def matrices(draw) -> SquareIntMatrix:
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-10**30, 10**30))
    return SquareIntMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    )


@settings(max_examples=200, deadline=None)
@given(matrices(), matrices(), st.text(alphabet=': NaN,\n"\\\x00x', max_size=12))
def test_report_json_renders_matrices_as_json_dumps(top, nested, name):
    # matrices at indent levels 1 to 4, as dict values and as list items,
    # among strings that hold a NaN token and the other scalars json renders
    report = {
        "file": name,
        "companion": top,
        "reason": {"kind": name, "companion": nested, "minor": -7},
        "deep": {"list": [{"matrix": nested}, [top, nested]]},
        "minors": (1, -2, 10**40),
        "scalars": [True, False, None, {}, [], ()],
        "empty": {},
    }
    expected = json.dumps(replace_matrices(report), indent=2)
    pieces = []
    finitype.cli._write_json(pieces.append, report)
    assert "".join(pieces) == expected


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_format_matrix_matches_the_dense_rendering(matrix):
    assert format_matrix(matrix) == reference_format_matrix(matrix.entries)


def test_matrix_reports_never_read_the_dense_grid(monkeypatch, tmp_path):
    # as criterion 8 does for the decision: reading a dense view fails at once
    matrix = a_path(300)
    doc = tmp_path / "a300.mat"
    doc.write_text(format_matrix(matrix))

    def no_dense_view(matrix):
        raise AssertionError(f"the dense view of an n = {matrix.n} matrix was read")

    monkeypatch.setattr(SquareIntMatrix, "entries", property(no_dense_view))
    expected = {
        "companion": decide_matrix(matrix).certificate.companion.C,
        "mutate": mutate(compute_skew_symmetrizer(matrix), 0).B,
    }
    for argv, key in ((["companion"], "companion"), (["mutate", "-k", "1"], "matrix")):
        for flag in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_command([argv[0], str(doc), *argv[1:], *flag]) == 0
            if flag:
                printed = SquareIntMatrix.from_rows(json.loads(out.getvalue())[key])
            else:
                printed = parse_matrix(out.getvalue())  # the companion's info lines are comments
            assert printed == expected[argv[0]], (argv, flag)


def test_json_report_is_never_held_whole(tmp_path):
    # an n = 600 path's report is about 4 MB and its document 0.7 MB; the
    # peak should come while the document is decoded, as bytes and text at
    # once, which is under half the report (and the report held once is more)
    doc = tmp_path / "a600.mat"
    doc.write_text(format_matrix(a_path(600)))
    out = tmp_path / "report.json"
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = run_command(["decide", str(doc), "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = out.stat().st_size
    assert code == 0 and size > 3_000_000
    assert peak < size / 2, f"peak {peak} bytes for a {size}-byte report"
