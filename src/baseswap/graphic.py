"""Exchange sequences for graphic matroids.

The solver recurses on the structure of graphs whose edge set splits into two
maximal forests: delete uncovered edges, contract common ones, split on the
tight set E - delta(u) at a degree-2 vertex, or shrink along the triad
delta(u) at a degree-3 vertex (one always exists by degree counting).  The
unrestricted transform stays within width 2(r-1) and length r^2 even when a
forbidden edge set F with at most three vertices is imposed; the reversal of
a disjoint pair takes exactly r strictly monotone steps and can finish on a
designated edge.
"""

from __future__ import annotations

from .matroid import GraphicMatroid, Multigraph, GroundSetError, _as_frozen
from .exchange import BasisPair, ExchangeSequence, compatible
from .reductions import (
    Instance,
    IncompatiblePairsError,
    reduce_triad,
    solve_rank_le2,
)


def vertex_span(graph: Multigraph, edge_ids) -> frozenset:
    verts = set()
    for e in edge_ids:
        u, v = graph.edges[e]
        verts.add(u)
        verts.add(v)
    return frozenset(verts)


def pick_reduction_vertex(graph: Multigraph, forbidden=(), last=None):
    """A degree-2 vertex, else a degree-3 vertex clear of F and the h edge.

    Assumes a covered bispanning graph with no common edges, where the degree
    count sum d(v) = 2|E| <= 4(|V|-1) guarantees existence.
    """
    deg = graph.degree()
    order = sorted(deg, key=str)
    for v in order:
        if deg[v] == 2:
            return v, "degree2"
    blocked = set(vertex_span(graph, _as_frozen(forbidden)))
    if last is not None:
        blocked |= set(graph.edges[last])
    for v in order:
        if deg[v] == 3 and v not in blocked:
            return v, "degree3"
    raise AssertionError("no low-degree vertex available; this cannot happen")


def _solve(graph: Multigraph, x1, x2, y1, y2, forbidden, last):
    if x1 == y1:
        return []

    covered = x1 | x2
    if covered != frozenset(graph.edges):
        return _solve(graph.restrict(covered), x1, x2, y1, y2, forbidden, last)

    common = x1 & x2
    if common:
        g2 = graph.contract_edges(common)
        return _solve(
            g2, x1 - common, x2 - common, y1 - common, y2 - common,
            forbidden - common, last,
        )

    m = GraphicMatroid(graph)
    if m.full_rank <= 2:
        inst = Instance(m, BasisPair(x1, x2, m), BasisPair(y1, y2, m), forbidden)
        return list(solve_rank_le2(inst, h=last))

    u, kind = pick_reduction_vertex(graph, forbidden, last)
    star = graph.incident(u)

    if kind == "degree2":
        z = frozenset(graph.edges) - star
        g_z = graph.restrict(z)
        g_rest = graph.contract_edges(z)
        seq_z = _solve(
            g_z, x1 & z, x2 & z, y1 & z, y2 & z, forbidden & z,
            last if last in z else None,
        )
        seq_rest = _solve(
            g_rest, x1 - z, x2 - z, y1 - z, y2 - z, forbidden - z,
            last if last in star else None,
        )
        if last is not None and last in z:
            return seq_rest + seq_z
        return seq_z + seq_rest

    inst = Instance(m, BasisPair(x1, x2, m), BasisPair(y1, y2, m), forbidden)
    red = reduce_triad(inst, star)
    child = red.children[0]
    seq = _solve(
        child.matroid.graph,
        child.x.first, child.x.second, child.y.first, child.y.second,
        child.forbidden, last,
    )
    return red.lift(seq)


def solve_graphic_white(graph: Multigraph, x: BasisPair, y: BasisPair, forbidden=()):
    """F-avoiding sequence from x to y, width <= 2(r-1), length <= r^2.

    Requires compatible pairs and |V(F)| <= 3 with F inside
    (X1 ∩ Y1) ∪ (X2 ∩ Y2).
    """
    f = _as_frozen(forbidden)
    if not compatible(x, y):
        raise IncompatiblePairsError("pairs are not compatible")
    m = GraphicMatroid(graph)
    for part in (x.first, x.second, y.first, y.second):
        if not m.is_basis(part):
            raise IncompatiblePairsError("pair member is not a maximal forest")
    if len(vertex_span(graph, f)) > 3:
        raise GroundSetError("forbidden edges span more than three vertices")
    eligible = (x.first & y.first) | (x.second & y.second)
    if not f <= eligible:
        raise GroundSetError("forbidden edges must stay put in both pairs")
    steps = _solve(graph, x.first, x.second, y.first, y.second, f, None)
    return ExchangeSequence(steps)


def solve_graphic_gabow(graph: Multigraph, x: BasisPair, h: int):
    """Reverse a disjoint pair in exactly r strictly monotone steps,
    exchanging ``h`` in the last one."""
    if x.first & x.second:
        raise GroundSetError("reversal requires disjoint bases")
    if h not in x.union:
        raise GroundSetError("designated last edge must lie in one of the bases")
    m = GraphicMatroid(graph)
    if not m.is_basis(x.first) or not m.is_basis(x.second):
        raise GroundSetError("pair members must be bases (spanning forests)")
    steps = _solve(graph, x.first, x.second, x.second, x.first, frozenset(), h)
    seq = ExchangeSequence(steps)
    r = m.full_rank
    if seq.length != r:
        raise AssertionError(f"reversal took {seq.length} steps, expected {r}")
    if seq.width > 1:
        raise AssertionError("reversal sequence must use each edge at most once")
    if r and h not in seq.steps[-1]:
        raise AssertionError("last step must use the designated edge")
    return seq
