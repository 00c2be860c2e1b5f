"""Seeded instance generators.

All generators take a random.Random and are deterministic given its seed
(Python's Mersenne Twister; documented so ports can replicate instance
shapes, not bytes).
"""

from __future__ import annotations

import random

from .matroid import GraphicMatroid, Multigraph, Matroid
from .exchange import BasisPair, ExchangeStep, is_valid_exchange, apply_step
from .union import matroid_union_partition, InfeasiblePartitionError


def random_tree_edges(n: int, rng: random.Random) -> list:
    """Uniform random labeled tree on vertices 1..n via a Prüfer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    import heapq

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


def random_bispanning_graph(n: int, rng: random.Random, max_tries: int = 50):
    """Random graph on n vertices with 2n-2 edges that splits into two
    spanning trees; returns (Multigraph, BasisPair of the split).

    Samples the union of two uniform random trees (parallel edges allowed),
    then accepts iff the matroid union partition splits the edge set into
    two spanning trees, which also yields the returned pair.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    for _ in range(max_tries):
        pairs = random_tree_edges(n, rng) + random_tree_edges(n, rng)
        edges = dict(enumerate(pairs))
        g = Multigraph(edges)
        m = GraphicMatroid(g)
        if m.full_rank != n - 1:
            continue
        try:
            s1, s2 = matroid_union_partition(m, m, m.ground)
        except InfeasiblePartitionError:
            continue
        if m.is_basis(s1) and m.is_basis(s2):
            return g, BasisPair(s1, s2, m)
    raise RuntimeError(f"no bispanning graph found for n={n}")


def random_exchange_walk(m: Matroid, pair: BasisPair, steps: int, rng: random.Random):
    """Apply ``steps`` random valid exchanges; returns the final pair.

    Samples candidate steps by rejection, falling back to full enumeration
    when a pair has few valid exchanges.
    """
    current = BasisPair(pair.first, pair.second, m)
    for _ in range(steps):
        firsts = sorted(current.first - current.second)
        seconds = sorted(current.second - current.first)
        if not firsts or not seconds:
            break
        chosen = None
        for _attempt in range(12):
            e = rng.choice(firsts)
            # f must close a circuit with e in the second basis; among such
            # f, first - e + f being a basis completes validity
            circuit = m.circuit_in(current.second, e)
            candidates = [f for f in sorted(circuit - {e}) if f in current.second]
            rng.shuffle(candidates)
            for f in candidates:
                if m.is_basis(current.first - {e} | {f}):
                    chosen = ExchangeStep(e, f)
                    break
            if chosen:
                break
        if chosen is None:
            candidates = [
                ExchangeStep(e, f)
                for e in firsts
                for f in seconds
                if is_valid_exchange(current, ExchangeStep(e, f))
            ]
            if not candidates:
                break
            chosen = rng.choice(candidates)
        current = apply_step(current, chosen)
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
