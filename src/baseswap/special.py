"""The two fixed base-case matroids solved by exhaustive search.

R10 is the ten-element regular matroid represented over GF(2) by the ten
columns of length five with exactly three nonzero entries; equivalently the
even-cycle matroid of K5, mapping the edge v_i v_j to the column whose i-th
and j-th entries are zero.  F7 is the Fano matroid on {a..g}: every
three-element subset is a basis except the seven lines; over GF(2) its
columns are the seven nonzero vectors of length three.

Both are small enough that exchange sequences are found by breadth-first
search over the exchange graph after stripping common and uncovered
elements, which also certifies the distance bounds asserted in the tests.
"""

from __future__ import annotations

import itertools

from .matroid import Matroid, Gf2Matroid
from .exchange import (
    BasisPair,
    ExchangeSequence,
    bfs_oracle,
    compatible,
    UNREACHABLE,
)
from .reductions import Instance, IncompatiblePairsError, delete_uncovered, contract_common

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


def r10_fixture_pair(m: Matroid = None) -> BasisPair:
    """Two complementary Hamiltonian 5-cycles of K5."""
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


def fano_gf2() -> Gf2Matroid:
    """F7 over GF(2) on elements 0..6 (a..g); the lines of ``F7_LINES`` are
    exactly the triples whose columns sum to zero."""
    return Gf2Matroid({0: 0b001, 1: 0b010, 2: 0b100, 3: 0b011, 4: 0b110, 5: 0b101, 6: 0b111})


f7_matroid = fano_gf2


def f7_bases() -> list:
    """The 28 three-element subsets of 0..6 that are not lines."""
    lines = {frozenset(F7_ELEMENTS.index(c) for c in line) for line in F7_LINES}
    return [
        frozenset(c) for c in itertools.combinations(range(7), 3) if frozenset(c) not in lines
    ]


def _solve_small(x: BasisPair, y: BasisPair, mode: str, cap: int = 16) -> ExchangeSequence:
    """Strip common/uncovered elements and search the exchange graph."""
    if not compatible(x, y):
        raise IncompatiblePairsError("pairs are not compatible")
    if mode not in ("white", "gabow"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "gabow":
        if x.first & x.second:
            raise IncompatiblePairsError("reversal mode needs disjoint bases")
        if y.first != x.second or y.second != x.first:
            raise IncompatiblePairsError("reversal mode targets the swapped pair")
    inst = Instance(x.matroid, x, y)
    for reduce_fn in (delete_uncovered, contract_common):
        red = reduce_fn(inst)
        if red is not None:
            inst = red.children[0]
    result = bfs_oracle(
        inst.matroid, inst.x, inst.y, monotone=(mode == "gabow"), cap=cap
    )
    if result == UNREACHABLE:
        raise IncompatiblePairsError("target pair is unreachable")
    return result.sequence


def solve_r10(x: BasisPair, y: BasisPair, mode: str = "white") -> ExchangeSequence:
    return _solve_small(x, y, mode)


def solve_f7(x: BasisPair, y: BasisPair, mode: str = "white") -> ExchangeSequence:
    return _solve_small(x, y, mode)
