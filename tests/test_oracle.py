import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import finitype.oracle
from finitype import (
    CapExceededError,
    ClassStatus,
    NotSkewSymmetrizableError,
    SkewForm,
    SquareIntMatrix,
    brute_force_positive_companion,
    compute_skew_symmetrizer,
    decide_matrix,
    explore_mutation_class,
    mutate,
)
from finitype.oracle import DEFAULT_CLASS_LIMIT, MutationClassReport, _mutate_entries

from helpers import (
    PAIR_OPTIONS,
    a_path,
    bc_path,
    cyclic_triangle,
    d_fork,
    e_arcs,
    from_arcs,
    affine_g2_arcs,
    g2,
    is_positive,
    markov,
    mutation_walk,
    random_skew_rows,
    relabel,
    definition_mutation,
    reference_brute_force_found,
    reference_explore_mutation_class,
)


def form_of(matrix) -> SkewForm:
    return compute_skew_symmetrizer(matrix)


def test_mutate_rank2_flips():
    form = form_of(SquareIntMatrix.from_rows([[0, 1], [-1, 0]]))
    assert mutate(form, 0).B.entries == ((0, -1), (1, 0))


def test_mutate_path_to_triangle():
    form = form_of(SquareIntMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]))
    mutated = mutate(form, 1)
    assert mutated.B.entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_out_of_range():
    form = form_of(g2())
    with pytest.raises(IndexError):
        mutate(form, 2)
    with pytest.raises(IndexError):
        mutate(form, -1)


def test_mutate_involutive_and_symmetrizer_preserved():
    rng = random.Random(161)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows, _ = random_skew_rows(rng, n)
        form = form_of(SquareIntMatrix.from_rows(rows))
        k = rng.randrange(n)
        once = mutate(form, k)   # SkewForm re-validates D x B' skew-symmetry
        assert once.D == form.D
        assert mutate(once, k).B == form.B


def test_explore_a2_class_of_two():
    report = explore_mutation_class(form_of(SquareIntMatrix.from_rows([[0, 1], [-1, 0]])), 100)
    assert report.status is ClassStatus.FINITE_CLASS
    assert report.visited == 2


def test_explore_g2_class_of_two():
    report = explore_mutation_class(form_of(g2()), 100)
    assert report.status is ClassStatus.FINITE_CLASS
    assert report.visited == 2


def test_explore_markov_violates_at_seed():
    report = explore_mutation_class(form_of(markov()), 100)
    assert report.status is ClassStatus.LARGE_ENTRY_FOUND
    assert report.visited == 1
    assert report.witness.value == 4


def test_explore_limit_exceeded():
    form = form_of(a_path(3))
    report = explore_mutation_class(form, 2)
    assert report.status is ClassStatus.LIMIT_EXCEEDED
    assert report.visited == 3


@pytest.mark.parametrize("matrix, visited", [
    (a_path(6), 34320),
    (bc_path(6, True), 15840),
    (bc_path(6, False), 15840),
    (d_fork(6), 40320),
    (from_arcs(*e_arcs(6)), 42840),
], ids=["A6", "B6", "C6", "D6", "E6"])
def test_explore_full_rank6_classes(matrix, visited):
    report = explore_mutation_class(form_of(matrix))
    assert report == MutationClassReport(ClassStatus.FINITE_CLASS, visited, DEFAULT_CLASS_LIMIT)


def test_explore_rejects_bad_limit():
    with pytest.raises(ValueError):
        explore_mutation_class(form_of(g2()), 0)


def test_brute_force_triangle_finds_all_plus():
    companion = brute_force_positive_companion(form_of(cyclic_triangle()))
    assert companion is not None
    assert companion.C.entries == ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_brute_force_markov_none():
    assert brute_force_positive_companion(form_of(markov())) is None


def test_brute_force_single_arc_lexicographic_first():
    companion = brute_force_positive_companion(form_of(SquareIntMatrix.from_rows([[0, 1], [-1, 0]])))
    assert companion.C.entries == ((2, 1), (1, 2))


def test_brute_force_cap(monkeypatch):
    form = form_of(a_path(22))   # 21 arcs
    with pytest.raises(CapExceededError):
        brute_force_positive_companion(form)
    monkeypatch.setattr(finitype.oracle, "DEFAULT_ARC_CAP", 21)
    assert brute_force_positive_companion(form) is not None


def test_brute_force_result_is_positive():
    rng = random.Random(271)
    found = 0
    while found < 20:
        rows, _ = random_skew_rows(rng, rng.randint(2, 5), max_x=1)
        form = form_of(SquareIntMatrix.from_rows(rows))
        companion = brute_force_positive_companion(form)
        if companion is None:
            continue
        assert is_positive(companion.C)
        found += 1


def test_decision_matches_mutation_oracle_exhaustive_small():
    candidates = [[], [[0]]]
    candidates += [[[0, pair[0]], [pair[1], 0]] for pair in PAIR_OPTIONS]
    for rows in candidates:
        matrix = SquareIntMatrix.from_rows(rows)
        try:
            form = compute_skew_symmetrizer(matrix)
        except NotSkewSymmetrizableError:
            continue
        decision = decide_matrix(matrix)
        report = explore_mutation_class(form, 10_000)
        assert report.status is not ClassStatus.LIMIT_EXCEEDED
        assert decision.finite == (report.status is ClassStatus.FINITE_CLASS)


# ---------------------------------------------------------------------------
# the oracles against frozen references of their plain forms

@st.composite
def skew_forms(draw, max_arcs: int = 28) -> SkewForm:
    """A skew-symmetrizable form with n = 1..8, possibly disconnected.

    Each pair i < j gets a weight x in -3..3 (zero with a drawn
    probability, +-1 most often otherwise), and diag(d) with d_i = 1..3
    (1 most often) symmetrizes b_ij = x * d_j / g, b_ji = -x * d_i / g,
    g = gcd(d_i, d_j).  At most ``max_arcs`` pairs, the first ones in
    row-major order, get a nonzero weight.  Heavy weights mostly stop the
    class search at the seed, so light ones keep it going.
    """
    n = draw(st.integers(1, 8))
    d = draw(st.lists(st.sampled_from((1, 1, 1, 1, 2, 3)), min_size=n, max_size=n))
    weights = (0,) * draw(st.integers(1, 24)) + (1, -1) * 8 + (2, -2, 3, -3)
    rows = [[0] * n for _ in range(n)]
    arcs = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.sampled_from(weights))
            if x and arcs < max_arcs:
                g = gcd(d[i], d[j])
                rows[i][j], rows[j][i] = x * d[j] // g, -x * d[i] // g
                arcs += 1
    return form_of(SquareIntMatrix.from_rows(rows))


@settings(max_examples=200, deadline=None)
@given(skew_forms())
def test_mutate_matches_the_definition(form):
    # both kernels of the mutation rule: the sparse `mutate` and the class search's dense step
    b, n = form.B.entries, form.n
    for k in range(n):
        expected = definition_mutation(b, k)
        assert mutate(form, k).B.entries == expected
        nbrs = [j for j in range(n) if b[k][j]]
        step = _mutate_entries(b, k, nbrs)
        assert step == expected
        # every row other than k and its neighbours is the parent's own tuple
        assert all(step[i] is b[i] for i in range(n) if i != k and i not in nbrs)


# rows beyond n = 8 are shared with the parent as well: a 12-path, a relabeled
# walk from D16, and a relabeled G~2 with a tail whose witness is not at the seed
WALKED_D16 = relabel(mutation_walk(d_fork(16), 40, random.Random(16)), random.Random(17))
TAILED_G2 = relabel(
    from_arcs(12, {(0, 1): 1, (1, 2): (1, 3), **{(i, i + 1): 1 for i in range(2, 11)}}),
    random.Random(12))


@settings(max_examples=200, deadline=None)
@given(skew_forms(), st.one_of(st.integers(1, 5), st.integers(1, 200)))
@example(form_of(a_path(4)), 200)   # FiniteClass: 144 matrices
@example(form_of(d_fork(4)), 200)   # FiniteClass: 50 matrices
@example(form_of(a_path(5)), 200)   # LimitExceeded
@example(form_of(markov()), 1)      # LargeEntryFound at the seed
@example(form_of(from_arcs(5, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1})), 200)  # D~4
@example(form_of(from_arcs(*affine_g2_arcs())), 200)  # LargeEntryFound after 7 matrices
@example(form_of(SquareIntMatrix.from_rows([[0, 2, 0], [-1, 0, 1], [0, -1, 0]])), 200)
@example(form_of(a_path(12)), 300)   # LimitExceeded
@example(form_of(WALKED_D16), 200)   # LimitExceeded
@example(form_of(TAILED_G2), 300)    # LargeEntryFound after 33 matrices
def test_explore_matches_the_plain_search(form, limit):
    expected = reference_explore_mutation_class(form.B.entries, limit)
    assert explore_mutation_class(form, limit) == expected


@settings(max_examples=150, deadline=None)
@given(skew_forms(max_arcs=10))
@example(form_of(cyclic_triangle()))
@example(form_of(markov()))
# the first four arcs form an oriented 4-cycle, which needs one arc at -1
@example(form_of(from_arcs(6, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (4, 5): 1})))
def test_brute_force_matches_the_full_search(form):
    companion = brute_force_positive_companion(form)
    assert (companion is not None) == reference_brute_force_found(form.B.entries)
    if companion is not None:
        assert is_positive(companion.C)
        b, c = form.B.entries, companion.C.entries
        assert all(c[i][i] == 2 for i in range(form.n))
        assert all(abs(c[i][j]) == abs(b[i][j]) for i in range(form.n)
                   for j in range(form.n) if i != j)
