"""The graph rule of the engine, and GF(2) incidence matrices read as graphs.

On a graph, the engine (``pipeline``) reduces at a low-degree vertex u: it
splits on the tight set E - delta(u) at a degree-2 vertex, or shrinks along
the triad delta(u) at a degree-3 vertex (one always exists by degree
counting).  This rule keeps the unrestricted transform within width 2(r-1)
and length r^2 even when a forbidden edge set F with at most three vertices
is imposed, and makes the reversal of a disjoint pair take exactly r
strictly monotone steps, which can finish on a designated edge.

A split's other side is a parallel pair and a triad has one child, so a
graph solve's reductions form a chain.  ``GraphChain`` is the engine's
chain of reductions (``reductions.Chain``) on a graph: it numbers the
vertices 0, 1, ... when it starts, picks each vertex from degree buckets
(``_Buckets``) rather than by a scan, carries the pairs' bases as rooted
spanning forests (``reductions.ForestPairs``), and takes each level's minor
by editing its own edge dict and incidence index, and the forests with
them; the ``Multigraph`` it starts from is never changed, and no GF(2)
tableau is built.  ``incidence_leaf`` reads a GF(2) matrix with at most
two 1s per column as the graph whose incidence matrix it is, so that the
engine can solve it on that graph.  A caller solves a graph as
``solve_white`` or ``solve_gabow`` on its ``structure.graphic_leaf``.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .matroid import Multigraph
from .reductions import Chain, ForestPairs, Instance
from .structure import Leaf, graphic_leaf


def incidence_leaf(struct):
    """The graphic leaf of a GF(2) leaf whose every column has at most two
    1s, or None for any other structure.  Each row is a vertex, named by its
    index, and one more vertex is named by the first index past every row: a
    column with two 1s is an edge between their rows, one with a single 1 an
    edge from its row to the extra vertex, and a zero column a loop at it.
    The graph's full incidence matrix is the leaf's plus one row, the sum of
    the others, so its cycle matroid is the leaf's matroid."""
    if not (isinstance(struct, Leaf) and struct.tag == "gf2"):
        return None
    columns = struct.matroid.columns
    extra = max(map(int.bit_length, columns.values()), default=0)
    edges = {}
    for e, col in columns.items():
        low = col & -col
        high = col ^ low
        if high & (high - 1):  # three 1s or more
            return None
        edges[e] = (
            low.bit_length() - 1 if col else extra,
            high.bit_length() - 1 if high else extra,
        )
    return graphic_leaf(Multigraph(edges))


def vertex_span(graph: Multigraph, edge_ids) -> frozenset:
    verts = set()
    for e in edge_ids:
        u, v = graph.edges[e]
        verts.add(u)
        verts.add(v)
    return frozenset(verts)


def _numbered(graph: Multigraph) -> tuple:
    """(names, edges, star): the graph with its vertices numbered in the
    order its incidence index lists them, ``names`` the name of each number,
    ``edges`` {id: (u, v)} over the numbers, and ``star`` the list of each
    number's edge ids, as sets."""
    index = graph.incidence()
    names = list(index)
    number = {v: i for i, v in enumerate(names)}
    edges = {e: (number[u], number[v]) for e, (u, v) in graph.edges.items()}
    return names, edges, [set(ids) for ids in index.values()]


class _Buckets:
    """The vertices of degree 2 and of degree 3 of a graph numbered 0, 1,
    ..., each kind in a heap ordered by ``str`` of the vertex's name (in
    ``names``), then by its number.  ``star`` is the graph's incidence index,
    a list of edge id sets: read here, and edited by its owner, which calls
    ``touch`` on each vertex whose degree it changes.  An entry whose vertex
    no longer has its heap's degree is dropped when it comes up."""

    __slots__ = ("star", "key", "shared", "heaps")

    def __init__(self, star: list, names: list):
        self.star = star
        self.key = [(str(name), v) for v, name in enumerate(names)]
        self.shared = len({name for name, _ in self.key}) < len(names)  # 1 and "1"
        self.heaps = {2: [], 3: []}
        for v in range(len(star)):
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
            if len(star[v]) != degree:
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
    """A copy of one chain level's edges {id: (u, v)} over vertices numbered
    below ``size``: the frame a graph triad's lift keeps, since its one
    query (``TriadLift.replace``) reads nothing else."""

    __slots__ = ("edges", "size")

    def __init__(self, edges: dict, size: int):
        self.edges = dict(edges)
        self.size = size

    @property
    def ground(self):
        return self.edges.keys()

    def _independent(self, elements) -> bool:
        """Whether the edges ``elements`` form a forest: a union-find on a
        list of parents, stopping at the first edge that closes a cycle."""
        edges = self.edges
        parent = list(range(self.size))
        for e in elements:
            u, v = edges[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]  # to the grandparent
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return False
            parent[u] = v
        return True


class GraphChain(Chain):
    """A graph solve's chain of frames, reduced in place.

    The chain owns its graph with its vertices numbered (``_numbered``):
    ``edges`` ({id: (u, v)}) and ``star``, the incidence index, a list of
    sets; ``names`` maps the numbers back.  It edits both as
    ``delete_edges`` and ``contract_edges`` would build the minors: the same
    vertices and edge order, so the same picks.  Its pairs are the forests
    of its four bases on ``edges`` (``ForestPairs``), moved along before
    each edit.  ``frame`` hands the current frame to the engine as an
    ordinary frame, with the names, when the chain is done, as ``split``
    hands each parallel pair."""

    __slots__ = ("names", "edges", "star", "buckets")

    def __init__(self, graph: Multigraph, inst: Instance, last):
        self.names, self.edges, self.star = _numbered(graph)
        super().__init__(inst, last, ForestPairs.on(self.edges, self.star, inst))
        self.buckets = _Buckets(self.star, self.names)

    def _named(self, edges: dict) -> Multigraph:
        names = self.names
        return Multigraph({e: (names[u], names[v]) for e, (u, v) in edges.items()})

    def frame(self) -> tuple:
        leaf = graphic_leaf(self._named(self.edges))
        return leaf, self._instance(leaf.matroid), self.last, self.pairs

    def reduce(self) -> tuple:
        """One reduction by the graph rule: the split on E - delta(u) at a
        degree-2 vertex u, else the triad delta(u)."""
        u, kind = self.buckets.pick(self.edges, self.forbidden, self.last)
        if kind == "degree2":
            return "tight_split", self.split(frozenset(self.star[u]))
        return "triad", self.shrink(frozenset(self.star[u]))

    def _cut(self, outside) -> tuple:
        """M / z and z, for the two edges at a degree-2 vertex outside z:
        their parallel pair, which leaves the chain's graph."""
        a, b = sorted(outside)
        ends = self.edges[a]
        self._delete(a)
        self._delete(b)
        return graphic_leaf(self._named({a: ends, b: ends})), frozenset(self.edges)

    def _minor(self, contract, delete) -> "LevelEdges":
        """Delete and contract in the chain's graph; the lift keeps a copy of
        the level's edge ends."""
        frame = LevelEdges(self.edges, len(self.names))
        self._delete(delete)
        self._contract(contract)
        return frame

    def _delete(self, e) -> None:
        """Delete the edge e, as ``Multigraph.delete_edges`` would."""
        star = self.star
        for w in self.edges.pop(e):
            ids = star[w]
            ids.discard(e)
            if ids:
                self.buckets.touch(w)

    def _contract(self, e) -> None:
        """Contract the edge e = (p, q), as ``Multigraph.contract_edges``
        would: q's other edges move to p, which keeps its name, and keep
        their places in the edge order."""
        edges, star = self.edges, self.star
        p, q = edges.pop(e)
        moved, star[q] = star[q], set()
        moved.discard(e)
        for x in moved:
            a, b = edges[x]
            edges[x] = (p if a == q else a, p if b == q else b)
        kept = star[p]
        kept.discard(e)
        kept |= moved
        self.buckets.touch(p)
