"""The two fixed base-case matroids, R10 and F7.

R10 is the ten-element regular matroid represented over GF(2) by the ten
columns of length five with exactly three nonzero entries; equivalently the
even-cycle matroid of K5, mapping the edge v_i v_j to the column whose i-th
and j-th entries are zero.  F7 is the Fano matroid on {a..g}: every
three-element subset is a basis except the seven lines; over GF(2) its
columns are the seven nonzero vectors of length three.

Neither has a triad or a triangle, so the engine in ``pipeline`` solves
them by breadth-first search over the exchange graph after stripping common
and uncovered elements; ``exchange.bfs_oracle`` certifies their distances.
"""

from __future__ import annotations

from .matroid import Matroid, Gf2Matroid

K5_EDGES = tuple(
    (u, v) for u in range(1, 6) for v in range(u + 1, 6)
)  # ids 0..9 in lexicographic order

R10_EDGE_IDS = {uv: i for i, uv in enumerate(K5_EDGES)}


def r10_matroid() -> Gf2Matroid:
    """R10 over GF(2): the edge v_i v_j maps to the complement column."""
    cols = {}
    for eid, (u, v) in enumerate(K5_EDGES):
        mask = 0
        for row in range(1, 6):
            if row not in (u, v):
                mask |= 1 << (row - 1)
        cols[eid] = mask
    return Gf2Matroid(cols)


def r10_fixture_pair(m: Matroid = None) -> "BasisPair":
    """Two complementary Hamiltonian 5-cycles of K5."""
    from .exchange import BasisPair  # here, so a parse never loads exchange

    if m is None:
        m = r10_matroid()
    cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    first = frozenset(R10_EDGE_IDS[uv] for uv in cycle)
    second = m.ground - first
    return BasisPair(first, second, m)


F7_ELEMENTS = "abcdefg"
F7_LINES = (
    frozenset("abd"),
    frozenset("bce"),
    frozenset("acf"),
    frozenset("aeg"),
    frozenset("cdg"),
    frozenset("bfg"),
    frozenset("def"),
)


def f7_matroid() -> Gf2Matroid:
    """F7 over GF(2) on elements 0..6 (a..g); the lines of ``F7_LINES`` are
    exactly the triples whose columns sum to zero."""
    return Gf2Matroid({0: 0b001, 1: 0b010, 2: 0b100, 3: 0b011, 4: 0b110, 5: 0b101, 6: 0b111})
