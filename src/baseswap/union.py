"""Matroid union: partition a target set into two independent sets.

Implements the classical augmenting-path scheme on the exchange digraph.
Elements are inserted one at a time; a breadth-first search finds a shortest
augmenting path, whose swaps are applied walking back from the sink.  When no
path exists, the set of elements reachable from the new element is a
violating set X with r1(X) + r2(X) < |X|, returned as the witness.
"""

from __future__ import annotations

from collections import deque

from .matroid import Matroid, GroundSetError, _as_frozen


class InfeasiblePartitionError(Exception):
    """Raised when the target cannot be split; carries a violating set."""

    def __init__(self, witness: frozenset):
        super().__init__(
            f"target admits no partition; violating set of size {len(witness)}"
        )
        self.witness = witness


def matroid_union_partition(m1: Matroid, m2: Matroid, target) -> tuple:
    """Split ``target`` into (S1, S2) with S1 independent in m1, S2 in m2.

    Raises InfeasiblePartitionError with the reachable set of the final
    search as the violating witness when no partition exists.
    """
    t = _as_frozen(target)
    if not t <= m1.ground or not t <= m2.ground:
        raise GroundSetError("target must lie in both ground sets")
    matroids = (m1, m2)
    sets: list = [set(), set()]
    assignment: dict = {}
    for x in sorted(t):
        _augment(matroids, sets, assignment, x)
        if not (matroids[0].is_independent(sets[0]) and matroids[1].is_independent(sets[1])):
            raise AssertionError("augmenting left a dependent part; this cannot happen")
    return frozenset(sets[0]), frozenset(sets[1])


def _augment(matroids, sets, assignment, x) -> None:
    prev = {x: None}
    queue = deque([x])
    sink = None
    while queue and sink is None:
        z = queue.popleft()
        for i, m in enumerate(matroids):
            if z in sets[i]:
                continue
            circuit = m.circuit_in(sets[i], z)
            if circuit is None:
                sink = (z, i)
                break
            for y in sorted(circuit - {z}):
                if y not in prev:
                    prev[y] = z
                    queue.append(y)
    if sink is None:
        raise InfeasiblePartitionError(frozenset(prev))

    # The sink element enters the free side; every other path element is
    # replaced in its original side by its predecessor.  Simultaneous
    # application is valid because BFS paths admit no shortcuts.
    z, side = sink
    path = [z]
    while prev[z] is not None:
        z = prev[z]
        path.append(z)
    path.reverse()
    original_side = {p: assignment[p] for p in path[1:]}
    for i in range(1, len(path)):
        s_i = original_side[path[i]]
        sets[s_i].discard(path[i])
        sets[s_i].add(path[i - 1])
        assignment[path[i - 1]] = s_i
    sets[side].add(path[-1])
    assignment[path[-1]] = side
