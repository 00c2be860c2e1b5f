"""Shared fixtures and independent brute-force oracles.

The oracles here recompute expected values from first principles (subset
enumeration, DFS cycle checks, cycle-space spans) so the library's answers
are checked against an implementation-independent path.
"""

import itertools

import pytest

from baseswap.matroid import Multigraph, graphic_matroid
from baseswap.exchange import BasisPair

# K4 fixture: a=12 b=23 c=34 d=13 e=14 f=24, ids 0..5 in that letter order
K4_EDGES = {0: (1, 2), 1: (2, 3), 2: (3, 4), 3: (1, 3), 4: (1, 4), 5: (2, 4)}
A, B, C, D, E, F = range(6)

# DT fixture: two parallel classes a1,a2 = 12 and b1,b2 = 23
DT_EDGES = {0: (1, 2), 1: (1, 2), 2: (2, 3), 3: (2, 3)}


@pytest.fixture
def k4():
    m = graphic_matroid(K4_EDGES)
    x = BasisPair(frozenset({A, B, C}), frozenset({D, E, F}), m)
    y = BasisPair(frozenset({A, E, C}), frozenset({D, B, F}), m)
    return m, x, y


@pytest.fixture
def dt():
    m = graphic_matroid(DT_EDGES)
    x = BasisPair(frozenset({0, 2}), frozenset({1, 3}), m)
    return m, x


def subsets(elems, max_size=None):
    elems = sorted(elems)
    top = len(elems) if max_size is None else max_size
    for k in range(top + 1):
        for combo in itertools.combinations(elems, k):
            yield frozenset(combo)


def brute_circuits(m):
    """Minimal dependent sets, by exhaustive enumeration."""
    found = []
    for s in subsets(m.ground):
        if m.is_independent(s):
            continue
        if all(m.is_independent(s - {x}) for x in s):
            found.append(s)
    return found


def brute_cocircuits(m):
    return brute_circuits(m.dual())


def brute_tight_sets(m):
    """Nonempty proper subsets Z with |Z| = 2 r(Z)."""
    out = []
    for s in subsets(m.ground):
        if s and s != m.ground and len(s) == 2 * m.rank(s):
            out.append(s)
    return out


def dfs_forest_rank(edges, subset):
    """Graphic rank by DFS component counting; independent of union-find."""
    adj = {}
    for e in subset:
        u, v = edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = 0
    for start in adj:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return len(seen) - comps


def reference_contract_edges(graph, edge_ids):
    """Contraction one edge at a time, in sorted id order, rebuilding the
    edge dict for every edge: contracting (u, v) renames v to u everywhere;
    a loop is deleted and an absent id ignored.  Multigraph.contract_edges
    must produce exactly this graph, vertex names and edge order included."""
    edges = dict(graph.edges)
    for e in sorted(edge_ids):
        if e not in edges:
            continue
        u, v = edges.pop(e)
        if u == v:
            continue
        edges = {x: (u if a == v else a, u if b == v else b) for x, (a, b) in edges.items()}
    return Multigraph(edges)


def cycle_space_masks(m):
    """All cycles of a binary matroid as bitmasks, from its circuits."""
    elems = sorted(m.ground)
    idx = {e: i for i, e in enumerate(elems)}
    vectors = {0}
    for circuit in brute_circuits(m):
        mask = 0
        for x in circuit:
            mask |= 1 << idx[x]
        vectors |= {v ^ mask for v in vectors}
    return vectors, idx


def brute_sum_rank_fn(m1, m2, shared):
    """Rank oracle for the binary sum, from the parts' cycle spaces."""
    z1, i1 = cycle_space_masks(m1)
    z2, i2 = cycle_space_masks(m2)
    ground = sorted((m1.ground | m2.ground) - shared)
    gidx = {e: i for i, e in enumerate(ground)}
    t_sorted = sorted(shared)

    def project(vec, idx):
        main = 0
        tpart = 0
        for e, i in idx.items():
            if vec >> i & 1:
                if e in gidx:
                    main |= 1 << gidx[e]
                else:
                    tpart |= 1 << t_sorted.index(e)
        return main, tpart

    by_t = {}
    for v in z2:
        main, tpart = project(v, i2)
        by_t.setdefault(tpart, []).append(main)
    composed = set()
    for v in z1:
        main, tpart = project(v, i1)
        for other in by_t.get(tpart, ()):
            composed.add(main ^ other)

    def rank(subset):
        mask = 0
        for e in subset:
            mask |= 1 << gidx[e]
        inside = sum(1 for z in composed if z & ~mask == 0)
        return len(subset) - (inside.bit_length() - 1)

    return rank
