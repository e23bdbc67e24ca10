"""Golden CLI reports: every subcommand on every document in tests/data.

``golden/reports.json`` maps each invocation (its argv joined by spaces) to
the stdout, stderr and exit status it produced.  The documents are
``tests/data/*.mat`` and ``tests/data/golden/*.mat``; the latter glue
several cycles or fail with one witness kind each, and stay out of the
corpus that other tests count.  The runs are in-process, from inside
tests/data, so a report's ``"file"`` field is the path relative to it.
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from finitype import run_command
from finitype.cli import ORACLE_LIMIT_ENV

DATA = Path(__file__).parent / "data"

MODES = [[command, *flag] for command in ("decide", "cycles", "companion", "oracle", "compare")
         for flag in ([], ["--json"])] + [["mutate", "-k", "1", "--json"]]
DOCUMENTS = sorted(str(doc.relative_to(DATA)) for pattern in ("*.mat", "golden/*.mat")
                   for doc in DATA.glob(pattern))
CASES = [[mode[0], doc, *mode[1:]] for doc in DOCUMENTS for mode in MODES]


def run_case(argv: list[str]) -> dict:
    """stdout, stderr and exit status of one in-process run in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@functools.cache
def golden() -> dict:
    return json.loads((DATA / "golden" / "reports.json").read_text())


def test_golden_covers_every_case():
    assert sorted(golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_golden_report(argv, monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.delenv(ORACLE_LIMIT_ENV, raising=False)
    assert run_case(argv) == golden()[" ".join(argv)]
