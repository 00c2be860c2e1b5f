"""The graph rule of the engine and the graph entry points.

On a graph, the engine (``pipeline``) reduces at a low-degree vertex u
picked by ``pick_reduction_vertex``: it splits on the tight set E - delta(u)
at a degree-2 vertex, or shrinks along the triad delta(u) at a degree-3
vertex (one always exists by degree counting).  This rule keeps the
unrestricted transform within width 2(r-1) and length r^2 even when a
forbidden edge set F with at most three vertices is imposed, and makes the
reversal of a disjoint pair take exactly r strictly monotone steps, which
can finish on a designated edge.  ``solve_graphic_white`` and
``solve_graphic_gabow`` are ``solve_white`` and ``solve_gabow`` on the graph:
the same entry rules (``reductions.Instance.checked``), engine, closing
replay and bound check.
"""

from __future__ import annotations

from .matroid import Multigraph, _as_frozen
from .exchange import BasisPair
from .structure import graphic_leaf


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
    count sum d(v) = 2|E| <= 4(|V|-1) guarantees existence.  Degrees come
    from one scan of the incidence index; of several candidates the first
    in ``sorted(vertices, key=str)`` order wins (``_first_by_name``).
    """
    two, three = [], []
    for v, ids in graph.incidence().items():
        if len(ids) in (2, 3):
            (two if len(ids) == 2 else three).append(v)
    if two:
        return _first_by_name(graph, two), "degree2"
    blocked = set(vertex_span(graph, _as_frozen(forbidden)))
    if last is not None:
        blocked |= set(graph.edges[last])
    three = [v for v in three if v not in blocked]
    if three:
        return _first_by_name(graph, three), "degree3"
    raise AssertionError("no low-degree vertex available; this cannot happen")


def _first_by_name(graph: Multigraph, candidates: list):
    """The candidate that comes first when the vertices, listed in the order
    the edges first reach them, are sorted by ``str``: the least name, and
    among vertices with equal names (1 and "1") the first one reached."""
    names = [str(v) for v in candidates]
    least = min(names)
    ties = [v for v, name in zip(candidates, names) if name == least]
    if len(ties) == 1:
        return ties[0]
    for uv in graph.edges.values():
        for w in uv:
            if w in ties:
                return w


def solve_graphic_white(graph: Multigraph, x: BasisPair, y: BasisPair, forbidden=()):
    """F-avoiding sequence from x to y, width <= 2(r-1), length <= r^2.

    Requires compatible pairs and |V(F)| <= 3 with F inside
    (X1 ∩ Y1) ∪ (X2 ∩ Y2).
    """
    from .pipeline import solve_white  # the engine imports this module

    return solve_white(graphic_leaf(graph), x, y, forbidden).sequence


def solve_graphic_gabow(graph: Multigraph, x: BasisPair, h: int):
    """Reverse a disjoint pair in exactly r strictly monotone steps,
    exchanging ``h`` in the last one."""
    from .pipeline import solve_gabow  # the engine imports this module

    return solve_gabow(graphic_leaf(graph), x, last=h).sequence
