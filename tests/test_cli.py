import dataclasses
import json
import random
import sys
from pathlib import Path

import jsonschema
import pytest

import finitype.cli
from finitype import (
    MatrixParseError,
    SquareIntMatrix,
    assign_signs,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    decide,
    decide_matrix,
    format_matrix,
    parse_matrix,
    run_command,
)
from finitype.cli import ORACLE_LIMIT_ENV

from helpers import from_arcs, random_cyclically_oriented_arcs

DATA = Path(__file__).parent / "data"
SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


def path(name: str) -> str:
    return str(DATA / name)


def run_json(capsys, *argv) -> tuple[int, dict]:
    code = run_command([*argv, "--json"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
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


@pytest.mark.parametrize("entry", ["1_0", "+1", "\u0661", "\uff11"])
def test_parse_rejects_non_ascii_grammar_entry(entry):
    # underscore separators, an explicit plus, Arabic-Indic and fullwidth digits
    with pytest.raises(MatrixParseError, match="row 1 contains a non-integer entry"):
        parse_matrix(f"2\n0 {entry}\n-1 0\n")


@pytest.mark.parametrize("dimension", ["+2", "0_2", "\u0662"])
def test_parse_rejects_non_ascii_grammar_dimension(dimension):
    with pytest.raises(MatrixParseError, match="first line must be the dimension"):
        parse_matrix(f"{dimension}\n0 1\n-1 0\n")


def test_parse_entry_over_digit_limit():
    limit = sys.get_int_max_str_digits()
    long_entry = "-" + "1" * (limit + 1)
    with pytest.raises(MatrixParseError, match=f"row 2 has an entry longer than {limit} digits"):
        parse_matrix(f"2\n0 1\n{long_entry} 0\n")
    # the longest allowed entry still parses
    assert parse_matrix(f"1\n{'0' * limit}\n").entries == ((0,),)


def test_format_round_trip():
    mat = SquareIntMatrix.from_rows([[0, 12, -3], [-12, 0, 1], [3, -1, 0]])
    assert parse_matrix(format_matrix(mat)) == mat


def test_decide_document_wrapper():
    assert decide("2\n0 1\n-1 0\n").finite
    with pytest.raises(MatrixParseError):
        decide("nope")


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


def test_unknown_subcommand(capsys):
    assert run_command(["bogus"]) == 2


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0


def test_mutate_round_trip(capsys):
    assert run_command(["mutate", path("a3path.mat"), "-k", "2"]) == 0
    printed = capsys.readouterr().out
    assert parse_matrix(printed).entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_bad_index(capsys):
    assert run_command(["mutate", path("a3path.mat"), "-k", "4"]) == 2
    assert run_command(["mutate", path("a3path.mat"), "-k", "0"]) == 2


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


def test_oracle_env_limit(capsys, monkeypatch):
    monkeypatch.setenv(ORACLE_LIMIT_ENV, "2")
    assert run_command(["oracle", path("a3path.mat")]) == 2
    assert "LimitExceeded" in capsys.readouterr().out
    monkeypatch.setenv(ORACLE_LIMIT_ENV, "50")
    assert run_command(["oracle", path("a3path.mat")]) == 0
    capsys.readouterr()
    monkeypatch.setenv(ORACLE_LIMIT_ENV, "zonk")
    assert run_command(["oracle", path("a3path.mat")]) == 2


def test_oracle_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(ORACLE_LIMIT_ENV, "2")
    assert run_command(["oracle", path("a3path.mat"), "--limit", "50"]) == 0
    capsys.readouterr()


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


@pytest.mark.parametrize("command", ["decide", "cycles", "companion", "compare"])
def test_non_utf8_document_is_a_parse_error(capsys, tmp_path, command):
    doc = tmp_path / "latin1.mat"
    doc.write_bytes(b"# caf\xe9\n2\n0 1\n-1 0\n")
    assert run_command([command, str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: document is not valid UTF-8: invalid continuation byte at byte offset 5\n"
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
        signs = assign_signs(g, chordless_cycles_cod(g)).signs
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
