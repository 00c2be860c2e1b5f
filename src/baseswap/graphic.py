"""The graph rule of the engine and the graph entry points.

On a graph, the engine (``pipeline``) reduces at a low-degree vertex u: it
splits on the tight set E - delta(u) at a degree-2 vertex, or shrinks along
the triad delta(u) at a degree-3 vertex (one always exists by degree
counting).  This rule keeps the unrestricted transform within width 2(r-1)
and length r^2 even when a forbidden edge set F with at most three vertices
is imposed, and makes the reversal of a disjoint pair take exactly r
strictly monotone steps, which can finish on a designated edge.

A split's other side is a parallel pair and a triad has one child, so a
graph solve's reductions form a chain, which ``GraphChain`` runs in place
on one private graph, picking each vertex from degree buckets (``_Buckets``)
rather than by a scan.  ``pick_reduction_vertex`` is the same choice on a
given graph.  ``solve_graphic_white`` and ``solve_graphic_gabow`` are
``solve_white`` and ``solve_gabow`` on the graph: the same entry rules
(``reductions.Instance.checked``), engine, closing replay and bound check.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .matroid import Multigraph, _as_frozen, _is_forest
from .exchange import BasisPair
from .reductions import (
    Instance,
    ReductionError,
    TriadLift,
    _tight_in_tableaux,
    _triad_fixups,
    _triad_payload,
)
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
    count sum d(v) = 2|E| <= 4(|V|-1) guarantees existence.  Of several
    candidates the first in ``sorted(vertices, key=str)`` order wins, the
    vertices listed in the order the edges first reach them (``_Buckets``).
    """
    return _Buckets(graph.incidence()).pick(graph.edges, _as_frozen(forbidden), last)


class _Buckets:
    """The vertices of degree 2 and of degree 3 of a graph, each kind in a
    heap ordered by ``str`` of the name, then by a fixed index.  ``star`` is
    the graph's incidence index: read here, and edited by its owner, which
    calls ``touch`` on each vertex whose degree it changes.  An entry whose
    vertex no longer has its heap's degree is dropped when it comes up."""

    __slots__ = ("star", "key", "shared", "heaps")

    def __init__(self, star: dict):
        self.star = star
        self.key = {v: (str(v), i) for i, v in enumerate(star)}
        self.shared = len({name for name, _ in self.key.values()}) < len(star)  # 1 and "1"
        self.heaps = {2: [], 3: []}
        for v in star:
            self.touch(v)

    def touch(self, v) -> None:
        """File v under its degree, which its owner has just changed."""
        heap = self.heaps.get(len(self.star[v]))
        if heap is not None:
            heappush(heap, (self.key[v], v))

    def pick(self, edges: dict, forbidden, last) -> tuple:
        """(vertex, kind) by the graph rule: the first vertex of degree 2,
        else the first of degree 3 that no edge of F and not the ``last``
        edge touches.  ``edges`` is the graph's edge dict."""
        v = self._first(2, (), edges)
        if v is not None:
            return v, "degree2"
        blocked = {w for e in forbidden for w in edges[e]}
        if last is not None:
            blocked.update(edges[last])
        v = self._first(3, blocked, edges)
        if v is not None:
            return v, "degree3"
        raise AssertionError("no low-degree vertex available; this cannot happen")

    def _first(self, degree: int, blocked, edges: dict):
        """The first vertex of ``degree`` outside ``blocked``, or None.  Of
        vertices with equal names, the first one the edges reach wins."""
        heap, star = self.heaps[degree], self.star
        held, ties, least = [], [], None
        while heap:
            key, v = heap[0]
            if len(star.get(v, ())) != degree:
                heappop(heap)  # stale
            elif ties and key[0] != least:
                break
            else:
                held.append(heappop(heap))
                if v not in blocked and v not in ties:
                    ties.append(v)
                    least = key[0]
                    if not self.shared:
                        break
        for entry in held:
            heappush(heap, entry)
        if len(ties) < 2:
            return ties[0] if ties else None
        for uv in edges.values():
            for w in uv:
                if w in ties:
                    return w


class LevelEdges:
    """A copy of one chain level's edges {id: (u, v)}: the frame a graph
    triad's lift keeps, since its one query (``TriadLift.replace``) reads
    nothing else."""

    __slots__ = ("edges",)

    def __init__(self, edges: dict):
        self.edges = dict(edges)

    @property
    def ground(self):
        return self.edges.keys()

    def _independent(self, elements) -> bool:
        return _is_forest(self.edges, elements)


class GraphChain:
    """A graph solve's chain of frames, reduced in place.

    The chain edits a private copy of its first frame's graph, whose index
    holds sets, as ``delete_edges`` and ``contract_edges`` would build the
    minors: the same names and edge order, so the same picks.  It keeps the
    pairs x = (x1, x2) and y = (y1, y2), F and ``last`` as mutable state,
    and updates the pairs' ``PairTableaux`` as the generic reductions do.
    ``done`` says when the frame is the identity or has rank at most 2;
    ``frame`` then hands it to the engine as an ordinary frame, as each
    split hands its parallel pair."""

    __slots__ = ("graph", "buckets", "x1", "x2", "y1", "y2", "forbidden", "last", "tableaux")

    def __init__(self, graph: Multigraph, inst: Instance, last, tableaux):
        star = {v: set(ids) for v, ids in graph.incidence().items()}
        self.graph = Multigraph._of(dict(graph.edges), star)
        self.buckets = _Buckets(star)
        self.x1, self.x2 = set(inst.x.first), set(inst.x.second)
        self.y1, self.y2 = set(inst.y.first), set(inst.y.second)
        self.forbidden = set(inst.forbidden)
        self.last = last
        self.tableaux = tableaux

    def done(self) -> bool:
        return len(self.x1) <= 2 or (self.x1 == self.y1 and self.x2 == self.y2)

    def frame(self) -> tuple:
        """The current frame as (structure, instance, last, tableaux)."""
        leaf = graphic_leaf(Multigraph(self.graph.edges))
        sets = (self.x1, self.x2, self.y1, self.y2)
        return leaf, _instance(leaf.matroid, sets, self.forbidden), self.last, self.tableaux

    def reduce(self) -> tuple:
        """One reduction by the graph rule: ("tight_split", (z,
        restrict_last, the parallel pair's frame)) at a degree-2 vertex,
        else ("triad", (certificate payload, lift))."""
        star = self.graph._ends
        u, kind = self.buckets.pick(self.graph.edges, self.forbidden, self.last)
        if kind == "degree2":
            return "tight_split", self._split(star[u])
        return "triad", self._shrink(frozenset(star[u]))

    def _split(self, star) -> tuple:
        """``split_on_tight_set`` on z = E - delta(u): the other side, M / z,
        is the parallel pair of the two edges at u, and the chain goes on
        in M | z."""
        edges, last = self.graph.edges, self.last
        a, b = sorted(star)
        outside = frozenset((a, b))
        ends = edges[a]  # the pair as ``GraphicMatroid.parallel_pair`` builds it
        pair = graphic_leaf(Multigraph._of({a: ends, b: ends}))
        sets = (self.x1, self.x2, self.y1, self.y2)
        rest = _instance(pair.matroid, [outside & s for s in sets], outside & self.forbidden)
        self._delete(a)
        self._delete(b)
        z = frozenset(edges)
        if not _tight_in_tableaux((self.x1, self.x2), self.tableaux.x, z, outside):
            raise ReductionError("set is not tight")
        for s in sets:
            s -= outside
        self.forbidden -= outside
        restrict_last = last is not None and last in z
        self.last = last if restrict_last else None
        rest_last = last if last in outside else None
        return z, restrict_last, (pair, rest, rest_last, self.tableaux.split(outside))

    def _shrink(self, t: frozenset) -> tuple:
        """``reduce_triad`` on the triad t = delta(u): the fix-ups, then the
        child on M / t2 \\ t3."""
        if self.forbidden & t:
            raise ReductionError("forbidden set must avoid the triad")
        step_x, step_y, cx, cy = _triad_fixups(t, t & self.x1, t & self.y1, self.tableaux)
        for first, second, first_t in ((self.x1, self.x2, cx), (self.y1, self.y2, cy)):
            first -= t
            first |= first_t
            second -= t
            second |= t - first_t
        swapped = len(cx) == 1
        if swapped:
            self.x1, self.x2, self.y1, self.y2 = self.x2, self.x1, self.y2, self.y1
        t1, t2 = sorted(t & self.x1)
        (t3,) = t & self.x2
        if t1 in self.y1 and t2 in self.y1:
            self.y1.discard(t2)
            self.y2.discard(t3)
        elif t1 in self.y2 and t2 in self.y2:
            self.y1.discard(t3)
            self.y2.discard(t2)
        else:
            raise ReductionError("pairs are not consistent on the triad")
        self.x1.discard(t2)
        self.x2.discard(t3)
        self.tableaux = self.tableaux.fixed(step_x, step_y, swapped)
        self.tableaux.minor(t2, t3)
        suffix = step_y.reversed() if step_y else None
        lift = TriadLift(t1, t2, t3, t3, swapped, step_x, suffix, LevelEdges(self.graph.edges))
        self._delete(t3)
        self._contract(t2)
        return _triad_payload(t, t1, t2, t3, swapped, step_x, step_y), lift

    def _delete(self, e) -> None:
        """Delete the edge e, as ``Multigraph.delete_edges`` would."""
        star = self.graph._ends
        for w in self.graph.edges.pop(e):
            ids = star[w]
            ids.discard(e)
            if ids:
                self.buckets.touch(w)
            else:
                del star[w]

    def _contract(self, e) -> None:
        """Contract the edge e = (p, q), as ``Multigraph.contract_edges``
        would: q's other edges move to p, which keeps its name, and keep
        their places in the edge order."""
        edges, star = self.graph.edges, self.graph._ends
        p, q = edges.pop(e)
        moved = star.pop(q)
        moved.discard(e)
        for x in moved:
            a, b = edges[x]
            edges[x] = (p if a == q else a, p if b == q else b)
        kept = star[p]
        kept.discard(e)
        kept |= moved
        self.buckets.touch(p)


def _instance(m, sets, forbidden) -> Instance:
    """The instance on m of the pairs (x1, x2, y1, y2) and F, frozen."""
    x1, x2, y1, y2 = map(frozenset, sets)
    return Instance(m, BasisPair(x1, x2, m), BasisPair(y1, y2, m), frozenset(forbidden))


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
