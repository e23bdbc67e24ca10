import random
import time

import pytest
from hypothesis import given, settings

from finitype import (
    EdgeBoundExceeded,
    NonCyclicCycle,
    NotCyclicallyOrientedError,
    Quiver,
    StructuralFailure,
    SquareIntMatrix,
    build_quiver,
    chordless_cycles_cod,
    compute_skew_symmetrizer,
    two_connected_components,
)

from helpers import (
    alternating_square,
    arcs_to_arcset,
    brute_chordless_cycles,
    canonical_undirected,
    cyclic_triangle,
    from_arcs,
    markov,
    perturbed_skew_grids,
    random_cyclically_oriented_arcs,
    reference_quiver,
    walk_is_cyclically_oriented,
)


def quiver_of(matrix: SquareIntMatrix):
    return build_quiver(compute_skew_symmetrizer(matrix))


def inventory_of(matrix: SquareIntMatrix):
    return chordless_cycles_cod(quiver_of(matrix))


def test_build_quiver_single_arc():
    g = quiver_of(SquareIntMatrix.from_rows([[0, 1], [-1, 0]]))
    assert g.arcs == {(0, 1)}
    assert g.neighbors == ((1,), (0,))


def test_build_quiver_path():
    g = quiver_of(SquareIntMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]))
    assert g.arcs == {(0, 1), (1, 2)}


@settings(max_examples=150, deadline=None)
@given(perturbed_skew_grids(max_breaks=0))
def test_build_quiver_matches_dense_reference(rows):
    # the same arcs and the same neighbour lists
    g = quiver_of(SquareIntMatrix.from_rows(rows))
    assert (g.arcs, g.neighbors) == reference_quiver(rows)


def test_build_quiver_markov():
    g = quiver_of(markov())
    assert g.arcs == {(0, 1), (1, 2), (2, 0)}


def test_two_connected_path_is_two_single_edges():
    comps = two_connected_components(quiver_of(from_arcs(3, {(0, 1): 1, (1, 2): 1})))
    assert [c.edges for c in comps] == [((0, 1),), ((1, 2),)]


def test_two_connected_triangle_is_cyclic():
    comps = two_connected_components(quiver_of(cyclic_triangle()))
    assert len(comps) == 1
    assert comps[0].vertices == (0, 1, 2)
    assert len(comps[0].edges) == 3


def test_two_connected_triangle_plus_pendant():
    mat = from_arcs(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (2, 3): 1})
    comps = two_connected_components(quiver_of(mat))
    assert [(c.vertices, len(c.edges)) for c in comps] == [((0, 1, 2), 3), ((2, 3), 1)]


def test_two_connected_ignores_isolated_vertices():
    mat = from_arcs(4, {(1, 3): 1})
    comps = two_connected_components(quiver_of(mat))
    assert len(comps) == 1 and comps[0].vertices == (1, 3)


def test_two_connected_long_path_is_linear():
    # every edge of a path is its own component; cutting each one off the
    # edge stack must not search the stack
    n = 20_000
    arcs = frozenset((i, i + 1) for i in range(n - 1))
    neighbors = tuple(tuple(v for v in (i - 1, i + 1) if 0 <= v < n) for i in range(n))
    start = time.perf_counter()
    comps = two_connected_components(Quiver(n, arcs, neighbors))
    elapsed = time.perf_counter() - start
    assert [c.edges for c in comps] == [((i, i + 1),) for i in range(n - 1)]
    assert elapsed < 2.0


def test_cod_oriented_path():
    inv = inventory_of(from_arcs(3, {(0, 1): 1, (1, 2): 1}))
    assert inv.cycles == ()
    assert inv.single_edges == frozenset({(0, 1), (1, 2)})


def test_cod_cyclic_triangle():
    inv = inventory_of(cyclic_triangle())
    assert len(inv.cycles) == 1
    assert inv.cycles[0] == (0, 1, 2)
    assert inv.single_edges == frozenset()


def test_cod_alternating_square_rejected():
    with pytest.raises(NotCyclicallyOrientedError) as info:
        inventory_of(alternating_square())
    witness = info.value.witness
    assert isinstance(witness, NonCyclicCycle)
    assert witness.vertices == (0, 1, 2, 3)


def test_cod_k4_edge_bound():
    k4 = from_arcs(4, {(i, j): 1 for i in range(4) for j in range(i + 1, 4)})
    with pytest.raises(NotCyclicallyOrientedError) as info:
        inventory_of(k4)
    witness = info.value.witness
    assert isinstance(witness, EdgeBoundExceeded)
    assert witness.edge_count == 6 and witness.bound == 5


def test_cod_component_edge_bound():
    # K4 plus far-away padding passes the global bound, fails per component
    arcs = {(i, j): 1 for i in range(4) for j in range(i + 1, 4)}
    for extra in range(4, 10):
        arcs[(extra, extra + 1)] = 1
    with pytest.raises(NotCyclicallyOrientedError) as info:
        inventory_of(from_arcs(11, arcs))
    witness = info.value.witness
    assert isinstance(witness, EdgeBoundExceeded)
    assert witness.vertices == (0, 1, 2, 3)


def test_cod_k33_stuck():
    k33 = from_arcs(6, {(i, j): 1 for i in (0, 1, 2) for j in (3, 4, 5)})
    with pytest.raises(NotCyclicallyOrientedError) as info:
        inventory_of(k33)
    assert isinstance(info.value.witness, StructuralFailure)


def test_cod_theta_graph_stuck():
    theta = from_arcs(5, {(0, 2): 1, (2, 1): 1, (0, 3): 1, (3, 1): 1, (0, 4): 1, (4, 1): 1})
    with pytest.raises(NotCyclicallyOrientedError) as info:
        inventory_of(theta)
    assert isinstance(info.value.witness, StructuralFailure)


def test_cod_diamond_two_triangles():
    mat = from_arcs(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (0, 3): 1, (3, 2): 1})
    inv = inventory_of(mat)
    got = set(inv.cycles)
    assert got == {(0, 1, 2), (0, 3, 2)}


def test_cod_blocked_chain_resolves():
    # pentagon whose only degree-2 vertex lies on a chain with non-adjacent
    # endpoints until the two glued cycles peel away
    arcs = {
        (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 0): 1,   # pentagon
        (4, 7): 1, (7, 6): 1, (6, 5): 1, (5, 3): 1,              # glued on (3,4)
        (1, 10): 1, (10, 9): 1, (9, 8): 1, (8, 0): 1,            # glued on (0,1)
    }
    inv = inventory_of(from_arcs(11, arcs))
    got = {canonical_undirected(c) for c in inv.cycles}
    assert got == brute_chordless_cycles(11, [tuple(sorted(e)) for e in arcs])


def test_cod_empty_and_single_vertex():
    assert inventory_of(SquareIntMatrix.from_rows([])).cycles == ()
    inv = inventory_of(SquareIntMatrix.from_rows([[0]]))
    assert inv.cycles == () and inv.single_edges == frozenset()


def test_cod_matches_brute_force_randomized():
    rng = random.Random(31337)
    for _ in range(120):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=8)
        inv = inventory_of(from_arcs(n, arcs))
        expected = brute_chordless_cycles(n, [tuple(sorted(e)) for e in arcs])
        got = {canonical_undirected(c) for c in inv.cycles}
        assert got == expected
        assert len(inv.cycles) <= n


def test_cod_emits_canonical_cyclically_oriented_cycles():
    rng = random.Random(5150)
    for _ in range(60):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=8)
        g = build_quiver(compute_skew_symmetrizer(from_arcs(n, arcs)))
        inv = chordless_cycles_cod(g)
        arcset = arcs_to_arcset(arcs)
        for verts in inv.cycles:
            assert len(verts) >= 3
            assert verts[0] == min(verts)
            # stored direction follows the arcs
            t = len(verts)
            assert all((verts[i], verts[(i + 1) % t]) in arcset for i in range(t))
            assert walk_is_cyclically_oriented(arcset, verts)


def test_cod_rejects_one_flipped_cycle_arc():
    rng = random.Random(777)
    flipped_cases = 0
    while flipped_cases < 40:
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=8)
        mat = from_arcs(n, arcs)
        try:
            inv = inventory_of(mat)
        except NotCyclicallyOrientedError:
            raise AssertionError("generator must produce cyclically oriented quivers")
        cycles = [c for c in inv.cycles if len(c) >= 4]
        if not cycles:
            continue
        # flipping one arc of a chordless 4+-cycle breaks its cyclic orientation
        u, v = cycles[0][:2]
        w = arcs.pop((u, v))
        arcs[(v, u)] = w
        with pytest.raises(NotCyclicallyOrientedError) as info:
            inventory_of(from_arcs(n, arcs))
        witness = info.value.witness
        assert isinstance(witness, NonCyclicCycle)
        # the reported witness must genuinely be a non-cyclic chordless cycle
        arcset = arcs_to_arcset(arcs)
        assert not walk_is_cyclically_oriented(arcset, witness.vertices)
        assert canonical_undirected(witness.vertices) in brute_chordless_cycles(
            n, [tuple(sorted(e)) for e in arcs]
        )
        flipped_cases += 1


def test_cod_decision_matches_definition_on_arbitrary_graphs():
    # acceptance must coincide with the definition (every chordless cycle
    # cyclic) on arbitrary oriented graphs, whatever the rejection path
    rng = random.Random(90210)
    accepted = rejected = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        density = rng.choice((0.2, 0.35, 0.5))
        arcs = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    arcs[(i, j) if rng.random() < 0.5 else (j, i)] = 1
        g = quiver_of(from_arcs(n, arcs))
        arcset = set(g.arcs)
        cycles = brute_chordless_cycles(n, [tuple(sorted(e)) for e in arcset])
        expected = all(walk_is_cyclically_oriented(arcset, c) for c in cycles)
        try:
            chordless_cycles_cod(g)
            got = True
        except NotCyclicallyOrientedError:
            got = False
        assert got == expected, (n, sorted(arcs))
        accepted += got
        rejected += not got
    assert accepted > 50 and rejected > 50


def test_cod_deterministic():
    rng = random.Random(11)
    for _ in range(25):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=10)
        first = inventory_of(from_arcs(n, arcs))
        second = inventory_of(from_arcs(n, arcs))
        assert first == second


def _edge_components(cycles):
    """Union-find over cycles sharing an edge (independent of the library)."""
    parent = list(range(len(cycles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_sets = []
    for c in cycles:
        t = len(c)
        edge_sets.append({frozenset((c[i], c[(i + 1) % t])) for i in range(t)})
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if edge_sets[i] & edge_sets[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return [find(i) for i in range(len(cycles))], edge_sets


def test_cod_lifo_freshness():
    # popped LIFO, the first cycle of each glued block is fully fresh and
    # every later one shares at least one already-seen edge
    rng = random.Random(4444)
    for _ in range(40):
        n, arcs = random_cyclically_oriented_arcs(rng, max_vertices=10)
        inv = inventory_of(from_arcs(n, arcs))
        if not inv.cycles:
            continue
        comp_of, edge_sets = _edge_components(inv.cycles)
        order = list(reversed(inv.cycles))
        index_of = {id(c): i for i, c in enumerate(inv.cycles)}
        seen_edges: dict[int, set] = {}
        seen_any: set[int] = set()
        for cyc in order:
            i = index_of[id(cyc)]
            comp = comp_of[i]
            defined = edge_sets[i] & seen_edges.get(comp, set())
            if comp not in seen_any:
                assert not defined
                seen_any.add(comp)
            else:
                assert defined
                assert len(defined) < len(edge_sets[i])
            seen_edges.setdefault(comp, set()).update(edge_sets[i])
