"""Seeded instance generators.

All generators take a random.Random and are deterministic given its seed
(Python's Mersenne Twister; documented so ports can replicate instance
shapes, not bytes).
"""

from __future__ import annotations

import heapq
import random

from .matroid import GraphicMatroid, Multigraph, Matroid
from .exchange import BasisPair, ExchangeStep, apply_step
from .union import matroid_union_partition


def random_tree_edges(n: int, rng: random.Random) -> list:
    """Uniform random labeled tree on vertices 1..n via a Prüfer sequence."""
    if n == 1:
        return []
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def random_bispanning_graph(n: int, rng: random.Random):
    """Random graph on n vertices with 2n-2 edges that splits into two
    spanning trees; returns (Multigraph, BasisPair of the split).

    Samples the union of two uniform random trees (parallel edges allowed)
    and splits it by the matroid union partition.  The edge set is the
    union of two spanning trees, so the partition succeeds, and its two
    forests, sharing out 2(n - 1) edges, are spanning trees.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    g = Multigraph(dict(enumerate(random_tree_edges(n, rng) + random_tree_edges(n, rng))))
    m = GraphicMatroid(g)
    s1, s2 = matroid_union_partition(m, m, m.ground)
    return g, BasisPair(s1, s2, m)


def random_exchange_walk(m: Matroid, pair: BasisPair, steps: int, rng: random.Random):
    """Apply ``steps`` random valid exchanges; returns the final pair.

    Each step draws e from X1 - X2 and takes the first f, in a shuffle of
    C(X2, e) - e, for which X1 - e + f is a basis; X2 - f + e is one as f
    lies on C(X2, e).  By symmetric exchange (Brualdi 1969) such an f
    exists, so every draw makes a step.
    """
    current = BasisPair(pair.first, pair.second, m)
    for _ in range(steps):
        firsts = sorted(current.first - current.second)
        if not firsts:
            break
        e = rng.choice(firsts)
        candidates = sorted(m.circuit_in(current.second, e) - {e})
        rng.shuffle(candidates)
        f = next((f for f in candidates if m.is_basis(current.first - {e} | {f})), None)
        if f is None:
            raise AssertionError(f"no symmetric exchange at {e}; this cannot happen")
        current = apply_step(current, ExchangeStep(e, f))
    return current


def random_forbidden_set(x: BasisPair, y: BasisPair, graph: Multigraph, rng: random.Random):
    """Random F inside (X1 ∩ Y1) ∪ (X2 ∩ Y2) spanning at most three vertices."""
    eligible = sorted((x.first & y.first) | (x.second & y.second))
    if not eligible or rng.random() < 0.25:
        return frozenset()
    first = rng.choice(eligible)
    chosen = {first}
    verts = set(graph.edges[first])
    extras = [e for e in eligible if e != first]
    rng.shuffle(extras)
    for e in extras:
        u, v = graph.edges[e]
        if len(verts | {u, v}) <= 3:
            chosen.add(e)
            verts |= {u, v}
            if rng.random() < 0.5:
                break
    return frozenset(chosen)
