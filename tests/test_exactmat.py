import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finitype.decision as decision_module
from finitype import (
    NotSkewSymmetrizableError,
    SkewForm,
    SquareIntMatrix,
    compute_skew_symmetrizer,
    decide_matrix,
    first_nonpositive_minor,
    leading_principal_minors,
)
from finitype.cli import parse_matrix

from helpers import (
    a_path,
    cofactor_leading_minors,
    d_fork,
    fraction_gauss_det,
    fraction_symmetrizer,
    identity,
    is_positive,
    is_skew_symmetric_by_signs,
    mutation_walk,
    perturbed_skew_grids,
    random_skew_rows,
    reference_pivots,
    reference_skew_form_error,
    reference_skew_symmetrizer,
    relabel,
    square_grids,
    through_first_nonpositive,
)


M = SquareIntMatrix.from_rows


def test_skew_by_signs_examples():
    assert is_skew_symmetric_by_signs(M([[0, 1], [-1, 0]]))
    assert not is_skew_symmetric_by_signs(M([[0, 1], [1, 0]]))
    assert is_skew_symmetric_by_signs(M([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]))


def test_skew_by_signs_rejects_nonzero_diagonal():
    assert not is_skew_symmetric_by_signs(M([[1, 1], [-1, 0]]))


def test_skew_by_signs_rejects_half_zero_pair():
    assert not is_skew_symmetric_by_signs(M([[0, 1], [0, 0]]))


@pytest.mark.parametrize("rows", [
    [[1, 1], [-1, 0]],  # nonzero diagonal
    [[0, 0, 0], [0, 0, 0], [0, 0, -2]],  # nonzero diagonal, no other entry
    [[0, 1], [0, 0]],  # half-zero pair, upper triangle
    [[0, 0, 0], [0, 0, 0], [0, 3, 0]],  # half-zero pair, lower triangle
])
def test_symmetrizer_rejects_sign_violations(rows):
    with pytest.raises(NotSkewSymmetrizableError, match="not skew-symmetric by signs"):
        compute_skew_symmetrizer(M(rows))


def test_symmetrizer_skew_symmetric_input():
    form = compute_skew_symmetrizer(M([[0, 1], [-1, 0]]))
    assert form.D == (1, 1)


def test_symmetrizer_weighted_pair():
    form = compute_skew_symmetrizer(M([[0, 1], [-3, 0]]))
    assert form.D == (3, 1)
    # check D*B is skew-symmetric by hand: diag(3,1) * B = [[0,3],[-3,0]]
    d, b = form.D, form.B.entries
    assert d[0] * b[0][1] == -d[1] * b[1][0]


def test_symmetrizer_rejects_same_sign_pair():
    with pytest.raises(NotSkewSymmetrizableError):
        compute_skew_symmetrizer(M([[0, 1], [1, 0]]))


def test_symmetrizer_rejects_inconsistent_cycle():
    # triangle with ratio product 2 around the cycle: no symmetrizer
    rows = [[0, 1, -1], [-2, 0, 1], [1, -1, 0]]
    assert is_skew_symmetric_by_signs(M(rows))
    with pytest.raises(NotSkewSymmetrizableError):
        compute_skew_symmetrizer(M(rows))


def test_symmetrizer_disconnected_components():
    # two blocks; scale fixed at the smallest vertex of each component
    rows = [
        [0, 1, 0, 0],
        [-3, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    form = compute_skew_symmetrizer(M(rows))
    assert form.D == (3, 1, 3, 3)


def test_symmetrizer_empty_matrix():
    form = compute_skew_symmetrizer(M([]))
    assert form.n == 0 and form.D == ()


@st.composite
def skew_symmetrizable_rows(draw):
    """Random skew-symmetrizable B under a random relabeling.

    Symmetrizer weights d_i go up to 10^6, some sharing large factors.  An
    edge gets b_ij = x*d_j/g and b_ji = -x*d_i/g with g = gcd(d_i, d_j),
    so d_i*b_ij = -d_j*b_ji.  Edges join only vertices of the same one of
    four groups, so several components and isolated vertices occur.
    """
    n = draw(st.integers(0, 12))
    weight = st.one_of(st.integers(1, 10**6), st.sampled_from([2**19, 3**12, 510510, 720720]))
    d = draw(st.lists(weight, min_size=n, max_size=n))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if group[i] == group[j] and draw(st.booleans()):
                x = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
                g = gcd(d[i], d[j])
                rows[perm[i]][perm[j]] = x * d[j] // g
                rows[perm[j]][perm[i]] = -x * d[i] // g
    return rows


@settings(max_examples=300, deadline=None)
@given(skew_symmetrizable_rows())
def test_symmetrizer_matches_fraction_reference(rows):
    assert compute_skew_symmetrizer(M(rows)).D == fraction_symmetrizer(rows)


def test_symmetrizer_scale_canonical():
    # the canonical D of a connected pattern is the generator's d up to scale
    rng = random.Random(4242)
    checked = 0
    while checked < 50:
        rows, d = random_skew_rows(rng, rng.randint(2, 6))
        mat = M(rows)
        pattern_connected = _connected(rows)
        if not pattern_connected:
            continue
        form = compute_skew_symmetrizer(mat)
        ratios = {
            form.D[i] * d[0] - form.D[0] * d[i] for i in range(len(d))
        }
        assert ratios == {0}
        checked += 1


def _connected(rows) -> bool:
    n = len(rows)
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if rows[i][j] != 0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def test_skew_form_validates():
    with pytest.raises(NotSkewSymmetrizableError, match=r"at vertices \(1, 2\)"):
        SkewForm(M([[0, 1], [-3, 0]]), (1, 1))
    # a symmetrizer cannot make a nonzero diagonal or a half-zero pair skew
    for rows in ([[0, 0], [0, 5]], [[0, 0], [2, 0]]):
        with pytest.raises(NotSkewSymmetrizableError):
            SkewForm(M(rows), (1, 1))


@pytest.mark.parametrize("d, message", [
    ((0, 1), "symmetrizer entries must be positive"),
    ((-2, -1), "symmetrizer entries must be positive"),
    ((4, 2), "symmetrizer entries must have gcd 1"),  # twice the canonical (2, 1)
    ((1,), "matrix and symmetrizer dimensions differ"),
    ((2, 1, 1), "matrix and symmetrizer dimensions differ"),
])
def test_skew_form_rejects_noncanonical_symmetrizer(d, message):
    with pytest.raises(ValueError, match=message):
        SkewForm(M([[0, 1], [-2, 0]]), d)


def test_minors_examples():
    assert leading_principal_minors(M([[2, 1], [1, 2]])) == [2, 3]
    assert leading_principal_minors(identity(3)) == [1, 1, 1]
    assert leading_principal_minors(M([[2, 2], [2, 2]])) == [2, 0]


def test_minors_stop_at_first_nonpositive():
    assert leading_principal_minors(M([[0, 1], [1, 0]])) == [0]
    assert leading_principal_minors(M([[0, 1, 2], [1, 0, 3], [2, 3, 0]])) == [0]
    # a negative stop: the minor after it would be positive again
    rows = [[1, 2, 0], [2, 1, 0], [0, 0, -1]]
    assert cofactor_leading_minors(rows) == [1, -3, 3]
    assert leading_principal_minors(M(rows)) == [1, -3]


def test_minors_empty():
    assert leading_principal_minors(M([])) == []


def test_minors_match_cofactor_randomized():
    rng = random.Random(1357)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert leading_principal_minors(M(rows)) == \
            through_first_nonpositive(cofactor_leading_minors(rows))


def test_is_positive_examples():
    assert is_positive(M([[2]]))
    assert is_positive(M([[2, 1], [3, 2]]))
    assert not is_positive(M([[2, 2, -2], [2, 2, 2], [-2, 2, 2]]))


def test_is_positive_empty_is_vacuous():
    assert is_positive(M([]))


def test_first_nonpositive_minor():
    assert first_nonpositive_minor(M([[2, 1], [3, 2]])) is None
    assert first_nonpositive_minor(M([[2, 2, -2], [2, 2, 2], [-2, 2, 2]])) == (2, 0)
    assert first_nonpositive_minor(M([[-1]])) == (1, -1)


def test_first_nonpositive_consistent_with_minors_across_sizes():
    # sizes up to 40, with zero and negative diagonal entries
    rng = random.Random(515)
    for _ in range(40):
        n = rng.randint(1, 40)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(0, 3)
        minors = through_first_nonpositive(reference_pivots(rows, n))
        expected = (len(minors), minors[-1]) if minors[-1] <= 0 else None
        assert first_nonpositive_minor(M(rows)) == expected


@st.composite
def small_square_rows(draw):
    """n <= 9, entries in [-3, 3]: dense, sparse, or sparse with a symmetric pattern."""
    n = draw(st.integers(0, 9))
    pattern = draw(st.sampled_from(("dense", "sparse", "symmetric pattern")))
    entry = st.integers(-3, 3) if pattern == "dense" else st.sampled_from(
        (0, 0, 0, 0, 0, 0, -3, -2, -1, 1, 2, 3))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if pattern == "symmetric pattern":
        for i in range(n):
            for j in range(i):
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    rows[i][j] = rows[j][i]
    return rows


@settings(max_examples=300, deadline=None)
@given(small_square_rows())
def test_elimination_matches_cofactor_expansion(rows):
    mat = M(rows)
    minors = through_first_nonpositive(cofactor_leading_minors(rows))
    assert leading_principal_minors(mat) == minors == \
        through_first_nonpositive(reference_pivots(rows, len(rows)))
    assert first_nonpositive_minor(mat) == (
        (len(minors), minors[-1]) if minors and minors[-1] <= 0 else None
    )


def test_stale_row_used_as_pivot_row():
    # row 4 is zero in columns 0..3, so steps 0..3 (pivots 2, 6, 10, 14) skip
    # it and step 4 must first scale it by 14; row 5 is updated at step 0,
    # skipped by steps 1..3, then updated again at step 4
    rows = [
        [2, 0, 0, 0, 1, 0, 1],
        [0, 3, 1, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 0],
        [0, 0, 1, 2, 0, 1, 0],
        [0, 0, 0, 0, 2, 1, -1],
        [1, 0, 0, 0, 1, 2, 0],
        [0, 0, 0, 1, 0, 1, 3],
    ]
    minors = cofactor_leading_minors(rows)
    assert minors == [2, 6, 10, 14, 28, 49, 149]
    assert leading_principal_minors(M(rows)) == minors
    assert first_nonpositive_minor(M(rows)) is None


def test_stale_row_stops_at_zero_pivot():
    # row 3 is zero in columns 0..3, so steps 0..2 (pivots 2, 6, 10) skip it
    # and step 3 scales it by 10 to find a zero pivot: the pass stops there
    # with the 4th minor, though the 5th would be nonzero
    rows = [
        [2, 0, 0, 0, 0, 1],
        [0, 3, 1, 0, 1, 0],
        [0, 1, 2, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 2, 1, 1],
        [1, 0, 0, 1, 0, 2],
    ]
    assert cofactor_leading_minors(rows)[:5] == [2, 6, 10, 0, -20]
    assert leading_principal_minors(M(rows)) == [2, 6, 10, 0]
    assert first_nonpositive_minor(M(rows)) == (4, 0)


@pytest.mark.parametrize("kind", ["relabeled path", "mutated D walk"])
def test_companion_minors_at_n_200(kind):
    # the companion of a relabeled path fills in under elimination (84-bit
    # minors); a mutation walk adds 3-cycles
    rng = random.Random(2024)
    n = 200
    if kind == "relabeled path":
        matrix = relabel(a_path(n, rng.getrandbits(n - 1)), rng)
    else:
        matrix = mutation_walk(d_fork(n), 2 * n, rng)
    decision = decide_matrix(matrix)
    assert decision.finite
    rows = decision.certificate.companion.C.entries
    minors = decision.certificate.minors
    for k in [1, 2, 3, 4, 5, *range(25, n, 25), n]:
        assert minors[k - 1] == fraction_gauss_det([row[:k] for row in rows[:k]])


@pytest.mark.parametrize("name, matrix", [
    ("D5", d_fork(5)),
    ("markov", parse_matrix((Path(__file__).parent / "data" / "markov.mat").read_text())),
])
def test_decide_matrix_eliminates_once(monkeypatch, name, matrix):
    # one pass gives the verdict and, on success, every minor of the certificate
    calls = []
    for fn in (leading_principal_minors, first_nonpositive_minor):
        def counted(C, fn=fn):
            calls.append(fn.__name__)
            return fn(C)
        monkeypatch.setattr(decision_module, fn.__name__, counted, raising=False)
    decision = decide_matrix(matrix)
    assert decision.finite == (name == "D5")
    assert len(calls) == 1


def test_is_positive_sign_flip_invariance():
    rng = random.Random(8080)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        verdict = is_positive(M(rows))
        flips = [rng.choice((-1, 1)) for _ in range(n)]
        conjugated = [
            [flips[i] * rows[i][j] * flips[j] for j in range(n)] for i in range(n)
        ]
        assert is_positive(M(conjugated)) == verdict


def test_skew_form_dxb_exactly_skew():
    rng = random.Random(99)
    for _ in range(50):
        rows, _ = random_skew_rows(rng, rng.randint(1, 6))
        form = compute_skew_symmetrizer(M(rows))
        d, b, n = form.D, form.B.entries, form.n
        for i in range(n):
            for j in range(n):
                assert d[i] * b[i][j] == -d[j] * b[j][i]


# ---------------------------------------------------------------------------
# the sparse stages against their frozen dense references (tests/helpers.py)

def test_sparse_rows_hold_only_nonzero_entries():
    matrix = M([[0, 5, 0], [-5, 0, 0], [0, 0, 0]])
    assert matrix.rows == (((1, 5),), ((0, -5),), ())
    assert matrix == SquareIntMatrix(3, matrix.rows)
    assert matrix.columns() == [[(1, -5)], [(0, 5)], []]
    for rows in ([((0, 0),)], [((1, 1),)], [((0, 1), (0, 2))], [((-1, 1),)], [(), ()]):
        with pytest.raises(ValueError):
            SquareIntMatrix(1, tuple(rows))
    with pytest.raises(ValueError, match="n-by-n grid"):
        M([[0, 1], [0]])


def _outcome(fn):
    try:
        return fn()
    except NotSkewSymmetrizableError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(perturbed_skew_grids())
def test_symmetrizer_matches_dense_reference(rows):
    # the same D, or the same message: the D*B error names the first bad
    # pair in row-major order
    matrix = M(rows)
    assert matrix.entries == tuple(map(tuple, rows))
    assert _outcome(lambda: compute_skew_symmetrizer(matrix).D) == \
        _outcome(lambda: reference_skew_symmetrizer(rows))


@settings(max_examples=150, deadline=None)
@given(perturbed_skew_grids(), st.data())
def test_skew_form_check_matches_dense_reference(rows, data):
    d = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    d = tuple(v // gcd(*d) for v in d)
    try:
        SkewForm(M(rows), d)
        error = None
    except NotSkewSymmetrizableError as err:
        error = str(err)
    assert error == reference_skew_form_error(rows, d)


@settings(max_examples=200, deadline=None)
@given(square_grids())
def test_pivots_match_dense_reference_at_every_block_size(rows):
    minors = through_first_nonpositive(cofactor_leading_minors(rows))
    assert leading_principal_minors(M(rows)) == minors
    for size in range(len(rows) + 1):
        block = M([row[:size] for row in rows[:size]])
        assert leading_principal_minors(block) == \
            through_first_nonpositive(reference_pivots(rows, size))
