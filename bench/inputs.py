"""Seeded input generators for the benchmark, independent of finitype.

Matrices are kept sparse as ``{(i, j): b_ij}`` with every nonzero entry
(both halves of each skew pair), so that walks and relabelings at
n = 1000 cost O(n + m) per step instead of the dense O(n^2) of
``finitype.mutate``.  Every generator takes a ``random.Random`` and
nothing else that varies, so one seed gives one input set.
"""

from __future__ import annotations

import random
from math import gcd

Sparse = dict  # {(i, j): b_ij}, nonzero entries only


def _put(b: Sparse, i: int, j: int, wij: int, wji: int) -> None:
    """Arc i -> j with |b_ij| = wij and |b_ji| = wji."""
    b[(i, j)] = wij
    b[(j, i)] = -wji


def _orient(b: Sparse, rng: random.Random, i: int, j: int, wij: int = 1, wji: int = 1) -> None:
    """Edge {i, j} with the given weights, oriented by a coin flip."""
    if rng.random() < 0.5:
        _put(b, i, j, wij, wji)
    else:
        _put(b, j, i, wji, wij)


def _tree(n: int, edges, rng: random.Random) -> tuple[int, Sparse]:
    """Randomly oriented tree; ``edges`` holds (i, j) or (i, j, wij, wji)."""
    b: Sparse = {}
    for e in edges:
        i, j, wij, wji = e if len(e) == 4 else (*e, 1, 1)
        _orient(b, rng, i, j, wij, wji)
    return n, b


def _path(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def dynkin(kind: str, n: int, rng: random.Random) -> tuple[int, Sparse]:
    """A randomly oriented Dynkin diagram of type A, B, C, D, E, F or G (finite type)."""
    if kind == "A":
        return _tree(n, _path(n), rng)
    if kind in ("B", "C"):
        heavy = (n - 2, n - 1, 1, 2) if kind == "B" else (n - 2, n - 1, 2, 1)
        return _tree(n, _path(n - 1) + [heavy], rng)
    if kind == "D":
        return _tree(n, _path(n - 1) + [(n - 3, n - 1)], rng)
    if kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E is defined for n = 6, 7, 8")
        return _tree(n, _path(n - 1) + [(2, n - 1)], rng)
    if kind == "F":
        return _tree(4, [(0, 1), (1, 2, 1, 2), (2, 3)], rng)
    if kind == "G":
        return _tree(2, [(0, 1, 1, 3)], rng)
    raise ValueError(f"unknown Dynkin type {kind!r}")


def affine(kind: str, n: int, rng: random.Random) -> tuple[int, Sparse]:
    """A randomly oriented affine tree diagram with n vertices (not of finite type).

    Every proper subdiagram is Dynkin and the symmetrized Cartan matrix is
    singular, so the decision fails at leading minor n with value 0.
    """
    if kind == "D":  # D~_{n-1}: forks at both ends, n >= 5
        return _tree(n, _path(n - 2) + [(1, n - 2), (n - 4, n - 1)], rng)
    if kind == "B":  # B~_{n-1}: fork at one end, double bond at the other, n >= 4
        return _tree(n, [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)]
                     + [(n - 2, n - 1, 1, 2)], rng)
    if kind == "C":  # C~_{n-1}: double bonds at both ends, n >= 3
        edges = [(0, 1, 2, 1)] + [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1, 1, 2)]
        return _tree(n, edges, rng)
    if kind == "E":  # E~6, E~7, E~8 as arms (2,2,2), (3,3,1), (5,2,1)
        arms = {7: (2, 2, 2), 8: (3, 3, 1), 9: (5, 2, 1)}[n]
        edges, nxt = [], 1
        for length in arms:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev, nxt = nxt, nxt + 1
        return _tree(n, edges, rng)
    if kind == "F":  # F~4
        return _tree(5, [(0, 1), (1, 2), (2, 3, 1, 2), (3, 4)], rng)
    if kind == "G":  # G~2
        return _tree(3, [(0, 1), (1, 2, 1, 3)], rng)
    raise ValueError(f"unknown affine type {kind!r}")


def relabel(n: int, b: Sparse, rng: random.Random) -> tuple[int, Sparse]:
    """The same matrix under a uniformly random permutation of the vertices."""
    perm = list(range(n))
    rng.shuffle(perm)
    return n, {(perm[i], perm[j]): v for (i, j), v in b.items()}


def mutate_sparse(b: Sparse, adj: list[set], k: int) -> None:
    """Matrix mutation in direction k, in place, in O(deg(k)^2).

    b'_ij = b_ij + sgn(b_ik) * max(b_ik * b_kj, 0) off row and column k,
    and row and column k change sign; ``adj`` is kept as the support.
    """
    nbrs = list(adj[k])
    for i in nbrs:
        bik = b[(i, k)]
        for j in nbrs:
            if i == j:
                continue
            bkj = b[(k, j)]
            if bik * bkj <= 0:
                continue
            value = b.get((i, j), 0) + (bik * bkj if bik > 0 else -bik * bkj)
            # (j, i) gets the mirrored update in this same loop
            if value:
                b[(i, j)] = value
                adj[i].add(j)
            else:
                b.pop((i, j), None)
                adj[i].discard(j)
    for i in nbrs:
        b[(i, k)] = -b[(i, k)]
        b[(k, i)] = -b[(k, i)]


def mutation_walk(n: int, b: Sparse, steps: int, rng: random.Random) -> tuple[int, Sparse]:
    """Apply ``steps`` mutations in uniformly random directions (mutation keeps finite type)."""
    b = dict(b)
    adj: list[set] = [set() for _ in range(n)]
    for i, j in b:
        adj[i].add(j)
    for _ in range(steps):
        mutate_sparse(b, adj, rng.randrange(n))
    return n, b


def alternating_cycle(n: int) -> tuple[int, Sparse]:
    """An n-cycle whose arcs alternate in direction (n even): not cyclically oriented."""
    b: Sparse = {}
    for i in range(n):
        j = (i + 1) % n
        if i % 2 == 0:
            _put(b, i, j, 1, 1)
        else:
            _put(b, j, i, 1, 1)
    return n, b


def ear_adversary(hubs_k: int, strip: int) -> tuple[int, Sparse]:
    """K_{2,k} plus a strip of cyclically oriented triangles glued on one of its edges.

    Every degree-2 chain of K_{2,k} joins the two hubs, which are not
    adjacent, so each chain stays blocked; each ear peeled off the strip
    puts all k blocked chains back on the heap.  Ear peeling ends stuck on
    K_{2,k}: NotFinite through ``structural_failure``.
    """
    u, w = 0, 1
    b: Sparse = {}
    for t in range(hubs_k):
        _put(b, u, 2 + t, 1, 1)
        _put(b, 2 + t, w, 1, 1)
    # strip s_0 = u, s_1 = first middle vertex, s_i adjacent to s_{i-1} and s_{i-2}
    s = [u, 2]
    nxt = 2 + hubs_k
    for _ in range(strip):
        s.append(nxt)
        _put(b, s[-2], s[-1], 1, 1)
        _put(b, s[-1], s[-3], 1, 1)
        nxt += 1
    return nxt, b


def _symmetrizer_weights(d: list[int], i: int, j: int, base: int) -> tuple[int, int]:
    """|b_ij|, |b_ji| for an edge so that d_i |b_ij| = d_j |b_ji|."""
    g = gcd(d[i], d[j])
    return base * d[j] // g, base * d[i] // g


def glued_cycles(n: int, rng: random.Random) -> tuple[int, Sparse]:
    """Cyclically oriented cycles glued along arcs, with pendant arcs and asymmetric weights."""
    d = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
    arcs: list[tuple[int, int]] = []
    length = min(n, rng.randint(3, 5))
    arcs += [(i, (i + 1) % length) for i in range(length)]
    used = length
    while used < n:
        if rng.random() < 0.3:
            v = rng.randrange(used)  # pendant arc
            arcs.append((v, used) if rng.random() < 0.5 else (used, v))
            used += 1
            continue
        u, v = rng.choice(arcs)
        extra = min(n - used, rng.randint(1, 3))
        path = [v] + list(range(used, used + extra)) + [u]
        arcs += list(zip(path, path[1:]))
        used += extra
    b: Sparse = {}
    for i, j in arcs:
        wij, wji = _symmetrizer_weights(d, i, j, rng.choice((1, 1, 1, 2)))
        _put(b, i, j, wij, wji)
    return n, b


def random_skew(n: int, rng: random.Random) -> tuple[int, Sparse]:
    """Random graph with random orientation and symmetrizable weights."""
    d = [rng.choice((1, 2)) for _ in range(n)]
    p = rng.uniform(0.15, 0.6)
    b: Sparse = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                wij, wji = _symmetrizer_weights(d, i, j, rng.choice((1, 1, 2)))
                _orient(b, rng, i, j, wij, wji)
    return n, b


def dense_rows(n: int, b: Sparse) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in b.items():
        rows[i][j] = v
    return rows


def document(n: int, b: Sparse, title: str) -> str:
    """Matrix document text: comment, dimension, then n rows."""
    lines = [f"# {title}", str(n)]
    lines.extend(" ".join(map(str, row)) for row in dense_rows(n, b))
    return "\n".join(lines) + "\n"
