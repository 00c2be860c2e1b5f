"""Structured matroids: leaf descriptions composed by 1-/2-/3-sums.

A structure mirrors a user decomposition tree: leaves are graphic,
cographic or GF(2) matroids (R10 and F7 included), or a matroid the caller
passed in ("opaque"); internal nodes are binary sums.  Minors push into the
owning leaves so graph realizations survive reduction; when a pushed minor
breaks a sum precondition the node collapses to a GF(2) leaf.

The matroid of a sum node is an explicit GF(2) matroid built by composing
cocycle spaces bottom-up (``gf2_view``).  It answers every rank, basis and
minor query on the node, and the tree is kept only for routing: graph
solves on graphic bullets and the 2-/3-sum merges.  The tests check it
against the definitional rank of a binary sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .matroid import (
    Matroid,
    Gf2Matroid,
    GraphicMatroid,
    DualMatroid,
    Multigraph,
    SumSpec,
    CompositionError,
    validate_sum,
    _as_frozen,
)


@dataclass
class Leaf:
    tag: str  # graphic | cographic | gf2 | opaque
    matroid: Matroid
    graph: Optional[Multigraph] = None
    cache: dict = field(default_factory=dict)

    @property
    def ground(self):
        return self.matroid.ground


@dataclass
class SumNode:
    spec: SumSpec
    left: "Leaf | SumNode"
    right: "Leaf | SumNode"
    cache: dict = field(default_factory=dict)

    @cached_property
    def ground(self) -> frozenset:
        return (self.left.ground | self.right.ground) - self.spec.shared

    @property
    def matroid(self) -> Gf2Matroid:
        # built on first query: composing a node builds only its children's
        # matrices, to check the sum
        return gf2_view(self)


def graphic_leaf(graph: Multigraph) -> Leaf:
    return Leaf("graphic", GraphicMatroid(graph), graph)


def cographic_leaf(graph: Multigraph) -> Leaf:
    return Leaf("cographic", DualMatroid(GraphicMatroid(graph)), graph)


def gf2_leaf(matroid: Gf2Matroid) -> Leaf:
    return Leaf("gf2", matroid)


def opaque_leaf(matroid: Matroid) -> Leaf:
    return Leaf("opaque", matroid)


def compose_structures(left, right, spec: SumSpec) -> SumNode:
    validate_sum(gf2_view(left), gf2_view(right), spec)
    return SumNode(spec, left, right)


def compose_sum(m1: Matroid, m2: Matroid, spec: SumSpec) -> Gf2Matroid:
    """Compose two binary matroids along ``spec``, checking its preconditions."""
    return compose_structures(as_structure(m1), as_structure(m2), spec).matroid


def as_structure(source) -> "Leaf | SumNode":
    if isinstance(source, (Leaf, SumNode)):
        return source
    if isinstance(source, GraphicMatroid):
        return graphic_leaf(source.graph)
    if isinstance(source, Gf2Matroid):
        return gf2_leaf(source)
    if isinstance(source, Matroid):
        return opaque_leaf(source)
    raise TypeError(f"cannot interpret {source!r} as a matroid structure")


# -- minors ------------------------------------------------------------------


def structure_minor(struct, contract=(), delete=()):
    """Minor of a structure, pushing the operations into the owning leaves.

    Falls back to a GF(2) leaf holding the minor of the node's matroid when
    the minor touches the shared set or a sum precondition stops holding.
    """
    c = _as_frozen(contract)
    d = _as_frozen(delete)
    if not c and not d:
        return struct
    if isinstance(struct, Leaf):
        return _leaf_minor(struct, c, d)
    t = struct.spec.shared
    if (c | d) & t:
        return gf2_leaf(struct.matroid.minor(contract=c, delete=d))
    left_ground = struct.left.ground
    new_left = structure_minor(struct.left, c & left_ground, d & left_ground)
    new_right = structure_minor(
        struct.right, c - left_ground, d - left_ground
    )
    if len(new_left.ground - t) == 0 and struct.spec.arity == 1:
        return new_right
    if len(new_right.ground - t) == 0 and struct.spec.arity == 1:
        return new_left
    try:
        return compose_structures(new_left, new_right, struct.spec)
    except CompositionError:
        return gf2_leaf(struct.matroid.minor(contract=c, delete=d))


def _leaf_minor(leaf: Leaf, c: frozenset, d: frozenset) -> Leaf:
    if leaf.tag == "graphic":
        graph = leaf.graph.delete_edges(d).contract_edges(c)
        return graphic_leaf(graph)
    if leaf.tag == "cographic":
        # minor of the dual: contraction deletes in the graph and vice versa
        graph = leaf.graph.delete_edges(c).contract_edges(d)
        return cographic_leaf(graph)
    if isinstance(leaf.matroid, Gf2Matroid):
        return gf2_leaf(leaf.matroid.minor(contract=c, delete=d))
    return opaque_leaf(leaf.matroid.minor(contract=c, delete=d))


# -- cocycle rows and the GF(2) view ------------------------------------------


def cocycle_rows(struct) -> list:
    """Spanning set of the cocycle space, as frozensets of elements."""
    if isinstance(struct, SumNode):
        return _sum_rows(struct)
    leaf = struct
    if "rows" in leaf.cache:
        return leaf.cache["rows"]
    rows = _leaf_rows(leaf)
    leaf.cache["rows"] = rows
    return rows


def _leaf_rows(leaf: Leaf) -> list:
    if leaf.tag == "graphic":
        # vertex cuts; loops never cross a cut
        edges = leaf.graph.edges
        return [
            frozenset(e for e in leaf.graph.incident(v) if edges[e][0] != edges[e][1])
            for v in sorted(leaf.graph.vertices(), key=str)
        ]
    if leaf.tag == "cographic":
        # cocycles of the dual are the cycles of the graph: fundamental
        # cycles of a spanning forest span them
        m = GraphicMatroid(leaf.graph)
        forest = _greedy_basis(m)
        rows = []
        for e in sorted(m.ground - forest):
            circuit = m.circuit_in(forest, e)
            rows.append(frozenset(circuit))
        return rows
    if isinstance(leaf.matroid, Gf2Matroid):
        cols = leaf.matroid.columns
        height = max((c.bit_length() for c in cols.values()), default=0)
        return [
            frozenset(e for e, col in cols.items() if col >> i & 1)
            for i in range(height)
        ]
    # a matroid the caller passed in: fundamental cocircuits of a basis
    m = leaf.matroid
    basis = _greedy_basis(m)
    circuits = {e: m.fundamental_circuit(basis, e) for e in sorted(m.ground - basis)}
    rows = []
    for b in sorted(basis):
        row = {b} | {e for e, circ in circuits.items() if b in circ}
        rows.append(frozenset(row))
    return rows


def _greedy_basis(m: Matroid) -> frozenset:
    basis: set = set()
    rank = 0
    for e in sorted(m.ground):
        if m.rank(basis | {e}) > rank:
            basis.add(e)
            rank += 1
    return frozenset(basis)


def _eliminate_on(rows: list, pivot_elems) -> tuple:
    """Row-reduce so at most one row hits each pivot element.

    Returns (pivot_rows, other_rows); pivot rows are fully reduced against
    each other on the pivot coordinates.
    """
    pivots: list = []
    rest = [frozenset(r) for r in rows if r]
    for p in pivot_elems:
        hit = None
        out = []
        for row in rest:
            if p in row:
                if hit is None:
                    hit = row
                else:
                    row = row ^ hit
                    if row:
                        out.append(row)
            else:
                out.append(row)
        rest = out
        if hit is not None:
            pivots = [
                (q, (prow ^ hit) if p in prow else prow) for q, prow in pivots
            ]
            pivots = [(q, prow) for q, prow in pivots if prow]
            pivots.append((p, hit))
    return pivots, rest


def _sum_rows(node: SumNode) -> list:
    if "rows" in node.cache:
        return node.cache["rows"]
    t_sorted = sorted(node.spec.shared)
    left_pivots, left_rest = _eliminate_on(cocycle_rows(node.left), t_sorted)
    right_pivots, right_rest = _eliminate_on(cocycle_rows(node.right), t_sorted)
    rows = list(left_rest) + list(right_rest)

    if node.spec.arity > 1:
        t_set = frozenset(t_sorted)
        left_patterns = _pattern_span(left_pivots, t_set)
        right_patterns = _pattern_span(right_pivots, t_set)
        common = sorted(
            set(left_patterns) & set(right_patterns), key=lambda s: sorted(s)
        )
        glue_basis: list = []
        span = {frozenset()}
        for tau in common:
            if not tau or tau in span:
                continue
            glue_basis.append(tau)
            span |= {tau ^ s for s in span}
        expected = 1 if node.spec.arity == 2 else 2
        if len(glue_basis) != expected:
            raise CompositionError("shared-set cocycle patterns do not glue")
        for tau in glue_basis:
            lrow = left_patterns[tau]
            rrow = right_patterns[tau]
            rows.append((lrow - t_set) | (rrow - t_set))
    node.cache["rows"] = rows
    return rows


def _pattern_span(pivots: list, t_set: frozenset) -> dict:
    """All achievable shared-set patterns mapped to a realizing row."""
    out = {frozenset(): frozenset()}
    for _, prow in pivots:
        extra = {}
        for tau, row in out.items():
            new_tau = tau ^ (prow & t_set)
            if new_tau not in out:
                extra[new_tau] = row ^ prow
        out.update(extra)
    return out


def gf2_view(struct) -> Gf2Matroid:
    """Explicit GF(2) matroid equal to the structure's matroid."""
    cache = struct.cache
    if "gf2_view" in cache:
        return cache["gf2_view"]
    rows = cocycle_rows(struct)
    elems = sorted(struct.ground)
    cols = {e: 0 for e in elems}
    for i, row in enumerate(rows):
        for e in row:
            if e in cols:
                cols[e] |= 1 << i
    view = Gf2Matroid(cols)
    cache["gf2_view"] = view
    return view


# -- fast searches on a GF(2) view --------------------------------------------


def small_circuit_triples(m: Gf2Matroid):
    """All triangles (3-element circuits): nonzero distinct columns xoring to 0."""
    elems = sorted(m.ground)
    by_col: dict = {}
    for e in elems:
        by_col.setdefault(m.columns[e], []).append(e)
    found = []
    for i, x in enumerate(elems):
        cx = m.columns[x]
        if not cx:
            continue
        for y in elems[i + 1 :]:
            cy = m.columns[y]
            if not cy or cy == cx:
                continue
            for z in by_col.get(cx ^ cy, ()):
                if z > y:
                    found.append(frozenset({x, y, z}))
    return found


def find_triangle_fast(m: Gf2Matroid, cover=None):
    """Lexicographically first triangle inside ``cover`` (default: all)."""
    triples = small_circuit_triples(m)
    if cover is not None:
        triples = [t for t in triples if t <= cover]
    return min(triples, key=lambda s: tuple(sorted(s)), default=None)


def find_triad_fast(m: Gf2Matroid, cover=None):
    """Lexicographically first 3-element cocircuit inside ``cover``, via the
    dual columns."""
    basis = _greedy_basis(m)
    nonbasis = sorted(m.ground - basis)
    circuits = [m.circuit_in(basis, e) for e in nonbasis]
    dual_cols = {e: 1 << i for i, e in enumerate(nonbasis)}
    for b in sorted(basis):
        mask = 0
        for i, circuit in enumerate(circuits):
            if b in circuit:
                mask |= 1 << i
        dual_cols[b] = mask
    return find_triangle_fast(Gf2Matroid(dual_cols), cover)
