"""Structured matroids: leaf descriptions composed by 1-/2-/3-sums.

A structure mirrors a user decomposition tree: leaves are graphic,
cographic or GF(2) matroids (R10 and F7 included); internal nodes are
binary sums.  A matroid the caller passes in becomes, at the root, the GF(2)
leaf of its [I | A] image (``binary_image``), read off the fundamental
circuits of one basis, so such a matroid must be binary.  Minors push into
the owning leaves so graph realizations survive reduction; a 1-sum whose
side they empty becomes its other side, and when a pushed minor breaks a
sum precondition the node collapses to a GF(2) leaf.  ``structure_minors``
applies a list of minors in turn and composes each node once.

Every node has an explicit GF(2) matrix (``gf2``): a graphic leaf's
incidence matrix, or any other leaf's own matroid, which for a cographic
leaf is the graph's dual (``GraphicMatroid.dual``).  The matroid of a sum
node is the matrix glued from its children's along the shared set
(``_glue``).  It answers every rank, basis and minor query on the node,
and the tree is kept only for routing: graph solves on graphic bullets and
the 2-/3-sum merges, so the engine builds a minor's tree only
where a route reads it.  The tests check the matrix against the
definitional rank of a binary sum.

A parse builds structures, so ``Leaf`` and ``SumNode`` are plain classes
and the module imports neither ``dataclasses`` nor ``typing``.
"""

from __future__ import annotations

from functools import cached_property

from .matroid import (
    Matroid,
    Gf2Matroid,
    GraphicMatroid,
    Multigraph,
    SumSpec,
    CompositionError,
    GroundSetError,
    validate_sum,
    _as_frozen,
)


class Leaf:
    def __init__(self, tag: str, matroid: Matroid, graph: Multigraph | None = None):
        self.tag = tag  # graphic | cographic | gf2
        self.matroid = matroid
        self.graph = graph

    @property
    def ground(self):
        return self.matroid.ground

    @cached_property
    def gf2(self) -> Gf2Matroid:
        """The leaf's matroid as an explicit GF(2) matrix."""
        if self.tag != "graphic":
            return self.matroid
        # vertex-edge incidence columns; a loop is a zero column
        row = {v: i for i, v in enumerate(sorted(self.graph.vertices(), key=str))}
        cols = {e: (1 << row[u]) ^ (1 << row[v]) for e, (u, v) in self.graph.edges.items()}
        return Gf2Matroid(cols)


class SumNode:
    def __init__(self, spec: SumSpec, left: Leaf | SumNode, right: Leaf | SumNode):
        self.spec = spec
        self.left = left
        self.right = right

    @cached_property
    def ground(self) -> frozenset:
        return (self.left.ground | self.right.ground) - self.spec.shared

    @cached_property
    def matroid(self) -> Gf2Matroid:
        # built on first query: composing a node builds only its children's
        # matrices, to check the sum
        return _glue(self.left.gf2, self.right.gf2, self.spec.shared)

    @property
    def gf2(self) -> Gf2Matroid:
        return self.matroid


def graphic_leaf(graph: Multigraph) -> Leaf:
    return Leaf("graphic", GraphicMatroid(graph), graph)


def cographic_leaf(graph: Multigraph) -> Leaf:
    primal = GraphicMatroid(graph)
    matroid = primal.dual()
    matroid.dual_of = primal  # its pairs replay on the graph
    return Leaf("cographic", matroid, graph)


def gf2_leaf(matroid: Gf2Matroid) -> Leaf:
    return Leaf("gf2", matroid)


def binary_image(m: Matroid) -> Gf2Matroid:
    """[I | A] over GF(2) from the fundamental circuits of a basis B of m:
    the row of b in B on the columns of b and of every e whose C(e) holds
    b.  It equals m exactly when m is binary."""
    basis, circuits = m.fundamental_circuits()
    row = {b: i for i, b in enumerate(sorted(basis))}
    cols = {b: 1 << row[b] for b in basis}
    for e, circuit in circuits.items():
        cols[e] = sum(1 << row[b] for b in circuit - {e})
    return Gf2Matroid(cols)


def compose_structures(left, right, spec: SumSpec) -> SumNode:
    validate_sum(left.gf2, right.gf2, spec)
    return SumNode(spec, left, right)


def compose_sum(m1: Matroid, m2: Matroid, spec: SumSpec) -> Gf2Matroid:
    """Compose two binary matroids along ``spec``, checking its preconditions."""
    return compose_structures(as_structure(m1), as_structure(m2), spec).matroid


def as_structure(source) -> "Leaf | SumNode":
    if isinstance(source, (Leaf, SumNode)):
        return source
    if isinstance(source, GraphicMatroid):
        return Leaf("graphic", source, source.graph)
    if isinstance(source, Gf2Matroid):
        return gf2_leaf(source)
    if isinstance(source, Matroid):
        # a caller's matroid: the engine solves its [I | A] image
        return gf2_leaf(binary_image(source))
    raise TypeError(f"cannot interpret {source!r} as a matroid structure")


# -- minors ------------------------------------------------------------------


def structure_minor(struct, contract=(), delete=()):
    """Minor of a structure, pushing the operations into the owning leaves.

    Falls back to a GF(2) leaf holding the minor of the node's matroid when
    a sum precondition stops holding.
    """
    c = _as_frozen(contract)
    d = _as_frozen(delete)
    if not c and not d:
        return struct
    # checked here, since a graph ignores ids it does not hold
    if c & d or not c | d <= struct.ground:
        raise GroundSetError("minor sets must be disjoint and lie in the ground set")
    return structure_minors(struct, ((c, d),), c | d)


def structure_minors(struct, minors: tuple, gone: frozenset):
    """``struct`` after each (contract, delete) of ``minors`` in turn, where
    ``gone`` is the union of them all: the same structure as one
    ``structure_minor`` per pair, with each sum node composed once.  Each
    leaf takes the pairs one at a time, so a graph leaf names its vertices
    the same way.  A sum precondition that a minor breaks stays broken under
    further minors, so one check gives the same verdict."""
    if not gone & struct.ground:
        return struct
    struct = collapse_one_sums(struct, gone)
    ground = struct.ground
    if isinstance(struct, Leaf):
        for c, d in minors:
            if (c | d) & ground:
                struct = _leaf_minor(struct, c & ground, d & ground)
        return struct
    sides = (structure_minors(side, minors, gone) for side in (struct.left, struct.right))
    try:
        return compose_structures(*sides, struct.spec)
    except CompositionError:
        contract = frozenset().union(*(c for c, _ in minors)) & ground
        return gf2_leaf(struct.matroid.minor(contract=contract, delete=(gone & ground) - contract))


def collapse_one_sums(struct, gone: frozenset):
    """``struct`` with each 1-sum at its top whose side ``gone`` covers
    replaced by its other side."""
    while isinstance(struct, SumNode) and struct.spec.arity == 1:
        if struct.left.ground <= gone:
            struct = struct.right
        elif struct.right.ground <= gone:
            struct = struct.left
        else:
            break
    return struct


def _leaf_minor(leaf: Leaf, c: frozenset, d: frozenset) -> Leaf:
    if leaf.tag == "cographic":
        # minor of the dual: contraction deletes in the graph and vice versa
        return cographic_leaf(leaf.graph.delete_edges(c).contract_edges(d))
    # minors of graphic and GF(2) matroids are explicit matroids of their kind
    return as_structure(leaf.matroid.minor(contract=c, delete=d))


# -- the GF(2) view -----------------------------------------------------------


def _unit_shared(m: Gf2Matroid, shared: frozenset) -> tuple:
    """Row-reduce m so the first one or two shared columns (in sorted order)
    are unit vectors; for a triangle the third is then their sum.  Returns the
    reduced columns and the pivot rows, one per unit column."""
    cols = dict(m.columns)
    pivots: list = []
    for t in sorted(shared)[:2]:
        col = cols[t]
        # the earlier pivots are unit vectors, so t, independent of them,
        # has a set bit outside their rows
        rest = col & ~sum(1 << p for p in pivots)
        low = rest & -rest
        # add row p to every other row in t's column
        clear = col ^ low
        cols = {e: c ^ clear if c & low else c for e, c in cols.items()}
        pivots.append(low.bit_length() - 1)
    return cols, pivots


def _glue(left: Gf2Matroid, right: Gf2Matroid, shared: frozenset) -> Gf2Matroid:
    """The binary 1-/2-/3-sum along ``shared``: the generalised parallel
    connection of the two matrices minus the shared elements.

    With the shared columns in unit form on both sides, the right side's
    pivot rows are mapped onto the left's and its other rows are shifted
    above the left's.  The sum's preconditions (``validate_sum``) must hold.
    """
    lcols, lpivots = _unit_shared(left, shared)
    rcols, rpivots = _unit_shared(right, shared)
    shift = max((c.bit_length() for c in lcols.values()), default=0)
    rmask = sum(1 << q for q in rpivots)
    cols = {e: c for e, c in lcols.items() if e not in shared}
    for e, c in rcols.items():
        if e not in shared:
            glued = (c & ~rmask) << shift
            for p, q in zip(lpivots, rpivots):
                if c >> q & 1:
                    glued |= 1 << p
            cols[e] = glued
    return Gf2Matroid(cols)


def gf2_view(struct) -> Gf2Matroid:
    """Explicit GF(2) matroid equal to the structure's matroid."""
    return struct.gf2

