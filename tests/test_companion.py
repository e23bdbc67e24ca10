import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import finitype

from finitype import (
    Certificate,
    CompanionNotPositive,
    CycleInventory,
    QuasiCartanCompanion,
    SquareIntMatrix,
    assign_signs,
    brute_force_positive_companion,
    build_companion,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    decide_matrix,
    parse_matrix,
    positive_companion_exists,
)

from finitype.quiver import edge_key

from helpers import (
    companion_grids,
    cyclic_cycle,
    cyclic_triangle,
    from_arcs,
    is_positive,
    markov,
    perturbed_skew_grids,
    random_cyclically_oriented_arcs,
    reference_companion,
    reference_companion_error,
    satisfies_sign_condition,
    signs_total_on,
)


def pipeline(matrix: SquareIntMatrix):
    form = compute_skew_symmetrizer(matrix)
    g = build_quiver(form)
    inv = chordless_cycles_cod(g)
    return form, g, inv


def test_single_edge_gets_plus_one():
    form, g, inv = pipeline(SquareIntMatrix.from_rows([[0, 1], [-1, 0]]))
    assert assign_signs(g, inv) == {(0, 1): 1}


def test_triangle_signs_all_plus():
    form, g, inv = pipeline(cyclic_triangle())
    assert assign_signs(g, inv) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


def test_square_sign_minus_on_first_edge():
    form, g, inv = pipeline(cyclic_cycle(4))
    # first-visited edge of the only cycle <0,1,2,3> carries the -1
    assert assign_signs(g, inv) == {(0, 1): -1, (1, 2): 1, (2, 3): 1, (0, 3): 1}


def test_undefined_sign_reads_zero():
    # the signs are keyed by exactly the edges; build_companion reads a missing one as 0
    form, g, inv = pipeline(cyclic_triangle())
    signs = assign_signs(g, inv)
    assert sorted(signs) == sorted(edge_key(i, j) for i, j in g.arcs)
    assert edge_key(0, 9) not in signs
    assert signs_total_on(signs, g)


def test_build_companion_weighted_edge():
    form, g, inv = pipeline(SquareIntMatrix.from_rows([[0, 1], [-3, 0]]))
    companion = build_companion(form, assign_signs(g, inv))
    assert companion.C.entries == ((2, 1), (3, 2))


def test_build_companion_triangle():
    form, g, inv = pipeline(cyclic_triangle())
    companion = build_companion(form, assign_signs(g, inv))
    assert companion.C.entries == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert satisfies_sign_condition(companion, inv.cycles)


def test_build_companion_markov_all_plus():
    form, g, inv = pipeline(markov())
    companion = build_companion(form, assign_signs(g, inv))
    assert companion.C.entries == ((2, 2, 2), (2, 2, 2), (2, 2, 2))
    # the alternate sign pattern from flipping vertex 2 fails the same way
    flipped = SquareIntMatrix.from_rows([[2, 2, -2], [2, 2, 2], [-2, 2, 2]])
    assert not is_positive(flipped)
    assert not is_positive(companion.C)


def _value_or_error(fn):
    try:
        return fn()
    except ValueError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(perturbed_skew_grids(max_breaks=0), st.data())
def test_build_companion_matches_dense_reference(rows, data):
    # any signs, sometimes with one edge left out: the same entries or the same error
    form = compute_skew_symmetrizer(SquareIntMatrix.from_rows(rows))
    edges = sorted(edge_key(i, j) for i, j in build_quiver(form).arcs)
    signs = {e: data.draw(st.sampled_from((1, -1))) for e in edges}
    if edges and data.draw(st.booleans()):
        del signs[data.draw(st.sampled_from(edges))]
    assert _value_or_error(lambda: build_companion(form, signs).C.entries) == \
        _value_or_error(lambda: reference_companion(rows, signs))


@settings(max_examples=150, deadline=None)
@given(companion_grids())
def test_companion_checks_match_dense_reference(rows):
    expected = reference_companion_error(rows)
    if expected is None:
        QuasiCartanCompanion(SquareIntMatrix.from_rows(rows))
        return
    with pytest.raises(ValueError) as err:
        QuasiCartanCompanion(SquareIntMatrix.from_rows(rows))
    assert str(err.value) == expected


def test_build_companion_requires_total_signs():
    form, g, inv = pipeline(cyclic_triangle())
    partial = assign_signs(g, inv)
    del partial[(0, 1)]
    with pytest.raises(ValueError):
        build_companion(form, partial)


def test_positive_examples():
    form, g, inv = pipeline(cyclic_triangle())
    res = positive_companion_exists(form, g, inv)
    assert isinstance(res, Certificate) and res.minors == (2, 3, 4)

    form, g, inv = pipeline(markov())
    res = positive_companion_exists(form, g, inv)
    assert isinstance(res, CompanionNotPositive)
    assert res.minor_index == 2 and res.minor == 0

    form, g, inv = pipeline(cyclic_cycle(4))
    res = positive_companion_exists(form, g, inv)
    assert isinstance(res, Certificate) and res.minors == (2, 3, 4, 4)


def test_decision_carries_the_companion_result():
    # the certificate or reason of a Decision is what positive_companion_exists returns
    oriented = 0
    for doc in sorted((Path(__file__).parent / "data").glob("*.mat")):
        if doc.name in ("alt4cycle.mat", "badsign.mat"):
            continue
        matrix = parse_matrix(doc.read_text())
        decision = decide_matrix(matrix)
        res = positive_companion_exists(*pipeline(matrix))
        assert res == (decision.certificate if decision.finite else decision.reason)
        oriented += 1
    assert oriented == 5


def test_companion_keeps_symmetrizer():
    rng = random.Random(606)
    for _ in range(40):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=9, asym_weights=True)
        form, g, inv = pipeline(from_arcs(n, arcs))
        res = positive_companion_exists(form, g, inv)
        c, d = res.companion.C.entries, form.D
        for i in range(n):
            for j in range(n):
                assert d[i] * c[i][j] == d[j] * c[j][i]


def test_quiver_and_companion_read_b_alone():
    # G(B) needs B's sign pattern and the companion |b_ij|; the symmetrizer is never read
    rng = random.Random(808)
    for _ in range(40):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=9, asym_weights=True)
        form, g, inv = pipeline(from_arcs(n, arcs))
        bare = SimpleNamespace(B=form.B, n=form.n)
        assert build_quiver(bare) == g
        signs = assign_signs(g, inv)
        assert build_companion(bare, signs) == build_companion(form, signs)


def test_sign_condition_holds_on_every_cycle():
    rng = random.Random(707)
    for _ in range(60):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=10)
        form, g, inv = pipeline(from_arcs(n, arcs))
        signs = assign_signs(g, inv)
        assert signs_total_on(signs, g)
        companion = build_companion(form, signs)
        assert satisfies_sign_condition(companion, inv.cycles)


def test_duplicate_cycle_in_inventory_asserts():
    form, g, inv = pipeline(cyclic_triangle())
    doubled = CycleInventory(inv.cycles * 2, inv.single_edges)
    with pytest.raises(ValueError):
        assign_signs(g, doubled)


DUPLICATE_CYCLE_SCRIPT = """
from finitype import (CycleInventory, SquareIntMatrix, assign_signs, build_quiver,
                      chordless_cycles_cod, compute_skew_symmetrizer)
form = compute_skew_symmetrizer(SquareIntMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
g = build_quiver(form)
inv = chordless_cycles_cod(g)
try:
    assign_signs(g, CycleInventory(inv.cycles * 2, inv.single_edges))
except ValueError:
    print("rejected")
"""


def test_duplicate_cycle_rejected_under_python_O():
    # -O strips assert statements; the check must not depend on them
    src = str(Path(finitype.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DUPLICATE_CYCLE_SCRIPT],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_flip_conjugation_preserves_positivity():
    rng = random.Random(808)
    for _ in range(50):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=9)
        form, g, inv = pipeline(from_arcs(n, arcs))
        res = positive_companion_exists(form, g, inv)
        c = res.companion.C.entries
        flips = [rng.choice((-1, 1)) for _ in range(n)]
        conjugated = SquareIntMatrix.from_rows(
            [[flips[i] * c[i][j] * flips[j] for j in range(n)] for i in range(n)]
        )
        assert is_positive(conjugated) == isinstance(res, Certificate)


def test_positivity_matches_symmetrized_form():
    # D*C is symmetric, so the classical Sylvester verdict on it must agree
    from helpers import cofactor_leading_minors

    rng = random.Random(246)
    for _ in range(30):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=6, asym_weights=True)
        form, g, inv = pipeline(from_arcs(n, arcs))
        res = positive_companion_exists(form, g, inv)
        d, c = form.D, res.companion.C.entries
        sym = [[d[i] * c[i][j] for j in range(n)] for i in range(n)]
        assert sym == [list(row) for row in zip(*sym)]
        classical = all(m > 0 for m in cofactor_leading_minors(sym))
        assert classical == isinstance(res, Certificate)


def test_empty_and_single_vertex_are_positive():
    for rows in ([], [[0]]):
        form, g, inv = pipeline(SquareIntMatrix.from_rows(rows))
        res = positive_companion_exists(form, g, inv)
        assert isinstance(res, Certificate)


def test_matches_brute_force_on_small_quivers():
    rng = random.Random(909)
    for _ in range(60):
        while True:
            n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=7, asym_weights=True)
            if len(arcs) <= 12:
                break
        form, g, inv = pipeline(from_arcs(n, arcs))
        res = positive_companion_exists(form, g, inv)
        assert isinstance(res, Certificate) == (brute_force_positive_companion(form) is not None)
