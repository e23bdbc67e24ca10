"""Oriented graph of a skew form and its chordless-cycle inventory.

The graph G has an arc i -> j for every positive entry b_ij.
Deciding whether G is cyclically oriented reduces, component by
two-connected component, to repeatedly peeling off an "ear": a maximal
path of degree-2 vertices whose endpoints are joined by an edge.  The ear
plus that edge is a chordless cycle; its interior is deleted and the
component shrinks until a single cycle remains.  Any graph where this
reduction gets stuck, or where some peeled cycle is not cyclically
oriented, is rejected with a concrete witness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Union

from .exactmat import SkewForm


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Unordered vertex pair in canonical (min, max) order."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Quiver:
    """Simple oriented graph: ``arcs`` holds each arc as a (tail, head) pair.

    Skew-symmetry by signs rules out 2-cycles and loops, so there is at
    most one arc per unordered vertex pair.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.arcs)


def build_quiver(form: SkewForm) -> Quiver:
    """Graph with an arc i -> j for every b_ij > 0: only B's sign pattern is read.

    It walks only the nonzero entries above the diagonal; a skew form's
    pattern is symmetric, so they name every edge once, and each row's
    columns are that vertex's neighbours in ascending order.  When b_ij < 0
    the arc is j -> i, since b_ji > 0.
    """
    arcs = frozenset(
        (i, j) if v > 0 else (j, i)
        for i, row in enumerate(form.B.rows)
        for j, v in row
        if j > i
    )
    neighbors = tuple(tuple(map(itemgetter(0), row)) for row in form.B.rows)
    return Quiver(form.n, arcs, neighbors)


@dataclass(frozen=True)
class TwoConnectedComponent:
    """A single-edge component is one with one edge."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def two_connected_components(g: Quiver) -> list[TwoConnectedComponent]:
    """Partition the edges into maximal two-connected subgraphs.

    Iterative depth-first search with lowpoints (Hopcroft-Tarjan); roots
    and neighbor lists are scanned in ascending order and the result is
    sorted by smallest contained vertex, so the output is deterministic.
    Each frame records the edge-stack height at which its tree edge was
    pushed, so a component is cut off the stack without searching it.  One
    discovery numbering serves every root: numbers are compared only within
    one depth-first tree.
    """
    discovery: dict[int, int] = {}
    low: dict[int, int] = {}
    raw: list[list[tuple[int, int]]] = []
    for root in range(g.n):
        if root in discovery or not g.neighbors[root]:
            continue
        low[root] = discovery[root] = len(discovery)
        edge_stack: list[tuple[int, int]] = []
        stack = [(root, root, iter(g.neighbors[root]), 0)]
        while stack:
            grandparent, parent, children, cut = stack[-1]
            child = next(children, None)
            if child is not None:
                if child == grandparent:
                    continue
                if child in discovery:
                    if discovery[child] <= discovery[parent]:  # back edge
                        low[parent] = min(low[parent], discovery[child])
                        edge_stack.append((parent, child))
                else:
                    low[child] = discovery[child] = len(discovery)
                    stack.append((parent, child, iter(g.neighbors[child]), len(edge_stack)))
                    edge_stack.append((parent, child))
                continue
            stack.pop()
            if len(stack) > 1:
                if low[parent] >= discovery[grandparent]:
                    raw.append(edge_stack[cut:])
                    del edge_stack[cut:]
                low[grandparent] = min(low[grandparent], low[parent])
            elif stack:
                raw.append(edge_stack[cut:])
                del edge_stack[cut:]
    components = []
    for group in raw:
        edges = sorted({edge_key(u, v) for u, v in group})
        vertices = sorted({v for e in edges for v in e})
        components.append(TwoConnectedComponent(tuple(vertices), tuple(edges)))
    components.sort(key=lambda c: c.vertices[0])
    return components


@dataclass(frozen=True)
class EdgeBoundExceeded:
    """A (sub)graph with more than 2n - 3 edges cannot be cyclically orientable."""

    vertices: tuple[int, ...]
    edge_count: int
    bound: int
    kind: str = field(default="edge_bound_exceeded", init=False)


@dataclass(frozen=True)
class NonCyclicCycle:
    """A chordless cycle whose arcs do not all point one way around."""

    vertices: tuple[int, ...]
    kind: str = field(default="non_cyclic_cycle", init=False)


@dataclass(frozen=True)
class StructuralFailure:
    """Ear reduction got stuck: the component is not built from cycles glued along single edges."""

    vertices: tuple[int, ...]
    detail: str
    kind: str = field(default="structural_failure", init=False)


CycleWitness = Union[EdgeBoundExceeded, NonCyclicCycle, StructuralFailure]


class NotCyclicallyOrientedError(Exception):
    """Raised with a machine-readable witness when G is not cyclically oriented."""

    def __init__(self, witness: CycleWitness):
        self.witness = witness
        super().__init__(f"{witness.kind}: {witness}")


@dataclass(frozen=True)
class CycleInventory:
    """All chordless cycles (a stack, discovery order) plus single-edge components.

    Each cycle is a tuple of its vertices, rotated so the smallest vertex
    comes first and directed so every arc points from each vertex to its
    successor (wrapping around).
    """

    cycles: tuple[tuple[int, ...], ...]
    single_edges: frozenset[tuple[int, int]]


def _canonical_undirected(walk: list[int]) -> tuple[int, ...]:
    """Rotate min-first, then head toward the smaller neighbor."""
    start = walk.index(min(walk))
    rotated = walk[start:] + walk[:start]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def _emit_cycle(g: Quiver, walk: list[int]) -> tuple[int, ...]:
    """Canonicalize a closed walk, verifying it is cyclically oriented."""
    t = len(walk)
    forward = sum(1 for i in range(t) if (walk[i], walk[(i + 1) % t]) in g.arcs)
    if forward != t and forward != 0:
        raise NotCyclicallyOrientedError(NonCyclicCycle(_canonical_undirected(walk)))
    ordered = walk if forward == t else walk[::-1]
    start = ordered.index(min(ordered))
    return tuple(ordered[start:] + ordered[:start])


def _reduce_component(g: Quiver, comp: TwoConnectedComponent) -> list[tuple[int, ...]]:
    adj: dict[int, set[int]] = {v: set() for v in comp.vertices}
    for u, v in comp.edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(comp.vertices)
    heap = [v for v in comp.vertices if len(adj[v]) == 2]
    heapq.heapify(heap)
    # chains whose endpoints are not (yet) adjacent; they can only become
    # peelable after some other ear is removed, so retry them on progress
    blocked: list[int] = []
    found: list[tuple[int, ...]] = []
    while alive:
        v = None
        while heap:
            cand = heapq.heappop(heap)
            if cand in alive and len(adj[cand]) == 2:
                v = cand
                break
        if v is None:
            raise NotCyclicallyOrientedError(
                StructuralFailure(tuple(sorted(alive)), "no peelable ear left")
            )
        a, b = sorted(adj[v])
        # maximal chain of degree-2 vertices through v, direction of a first
        left: list[int] = []
        prev, cur = v, a
        while cur != v and len(adj[cur]) == 2:
            left.append(cur)
            nxt = next(iter(adj[cur] - {prev}))
            prev, cur = cur, nxt
        if cur == v:
            # the whole component collapsed to one cycle
            walk = [v] + left
            if alive != set(walk):
                raise RuntimeError("closed ear inside a larger two-connected component")
            found.append(_emit_cycle(g, walk))
            alive.clear()
            continue
        u = cur
        right: list[int] = []
        prev, cur = v, b
        while len(adj[cur]) == 2:
            right.append(cur)
            nxt = next(iter(adj[cur] - {prev}))
            prev, cur = cur, nxt
        w = cur
        if u == w:
            raise RuntimeError("ear closes on a cut vertex inside a two-connected component")
        if w not in adj[u]:
            blocked.append(v)
            continue
        interior = left[::-1] + [v] + right
        found.append(_emit_cycle(g, [u] + interior + [w]))
        for p in interior:
            for nb in adj[p]:
                adj[nb].discard(p)
            del adj[p]
            alive.discard(p)
        for endpoint in (u, w):
            if len(adj[endpoint]) == 2:
                heapq.heappush(heap, endpoint)
        for stale in blocked:
            if stale in alive:
                heapq.heappush(heap, stale)
        blocked.clear()
    return found


def chordless_cycles_cod(g: Quiver) -> CycleInventory:
    """Decide cyclically-oriented status; on success return every chordless cycle.

    Rejects early when the edge count exceeds 2n - 3 (globally or in any
    two-connected component), then peels ears per component.  Single-edge
    components are collected separately; they carry no cycles.  Raises
    NotCyclicallyOrientedError with a witness on any failure.
    """
    m = g.edge_count
    if m > 0 and m > 2 * g.n - 3:
        all_vertices = tuple(v for v in range(g.n) if g.neighbors[v])
        raise NotCyclicallyOrientedError(EdgeBoundExceeded(all_vertices, m, 2 * g.n - 3))
    cycles: list[tuple[int, ...]] = []
    single_edges: set[tuple[int, int]] = set()
    for comp in two_connected_components(g):
        if len(comp.edges) == 1:
            single_edges.add(comp.edges[0])
            continue
        nc, mc = len(comp.vertices), len(comp.edges)
        if mc > 2 * nc - 3:
            raise NotCyclicallyOrientedError(EdgeBoundExceeded(comp.vertices, mc, 2 * nc - 3))
        cycles.extend(_reduce_component(g, comp))
    if len(cycles) > g.n:
        raise RuntimeError("more chordless cycles than vertices")
    return CycleInventory(tuple(cycles), frozenset(single_edges))
