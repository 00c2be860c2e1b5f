"""Element-indexed matroid backends with rank and basis queries.

Every matroid lives on a ground set of small nonnegative integers.  Concrete
backends: binary matrices over GF(2) and multigraphs, whose duals (GF(2)) and
minors (both) are explicit matroids of the same backend; binary 1-/2-/3-sums
are GF(2) matrices built in ``structure``.  Only the two explicit backends
take duals and minors: the solver swaps any other matroid for its GF(2)
image before it reduces.  Instances are immutable after construction and
all queries are read-only, so values can be shared freely between threads;
rank caches and a graph's incidence index fill idempotently.

A ``Tableau`` holds the fundamental circuits of one basis of a binary
matroid as bitmasks and answers "is B - b + f a basis?" with one bit; an
exchange is one XOR pass over it.  A GF(2) frame's fix-ups and searches
read tableaux.  A ``RootedForest`` answers the same question for a graph by
climbing parent pointers: a graph solve's chain of reductions and the
sequence replay carry a graph's bases as forests, and the replay carries a
GF(2) matrix's as tableaux; ``Matroid.is_basis`` is the rank reference of
both.

Every parse loads this module, so it imports no other.
"""

from __future__ import annotations


class MatroidError(Exception):
    """Base class for matroid domain errors."""


class GroundSetError(MatroidError):
    """A query referenced elements outside the ground set."""


class CompositionError(MatroidError):
    """A 1-/2-/3-sum precondition is violated; the message names the clause."""


def _as_frozen(subset) -> frozenset:
    return subset if isinstance(subset, frozenset) else frozenset(subset)


class Matroid:
    """Abstract rank oracle over an integer ground set.

    Subclasses implement ``_rank``.  The derived queries (independence,
    basis tests, fundamental circuits) are provided here in terms of rank;
    duals and minors are left to the explicit backends (``dual``,
    ``_minor``).
    """

    def __init__(self, ground: frozenset):
        self.ground = frozenset(ground)
        self._full_rank = None
        self._rank_cache: dict = {}

    # -- rank machinery ----------------------------------------------------

    def _rank(self, subset: frozenset) -> int:
        raise NotImplementedError

    def rank(self, subset) -> int:
        s = _as_frozen(subset)
        if not s <= self.ground:
            raise GroundSetError(f"elements {sorted(s - self.ground)} not in ground set")
        cached = self._rank_cache.get(s)
        if cached is None:
            cached = self._rank(s)
            self._rank_cache[s] = cached
        return cached

    @property
    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.rank(self.ground)
        return self._full_rank

    def is_independent(self, subset) -> bool:
        s = _as_frozen(subset)
        return self.rank(s) == len(s)

    def is_basis(self, subset) -> bool:
        s = _as_frozen(subset)
        return len(s) == self.full_rank and self.rank(s) == self.full_rank

    def is_circuit(self, subset) -> bool:
        s = _as_frozen(subset)
        if self.is_independent(s):
            return False
        return all(self.is_independent(s - {x}) for x in s)

    def is_coindependent(self, subset) -> bool:
        s = _as_frozen(subset)
        return self.rank(self.ground - s) == self.full_rank

    # -- circuits ----------------------------------------------------------

    def circuit_in(self, independent, e: int):
        """Circuit created by adding ``e`` to an independent set, else None.

        x belongs to the circuit exactly when independent + e - x is still
        independent.  Backends override this with cheaper searches.
        """
        s = _as_frozen(independent)
        se = s | {e}
        r = len(s)
        if self.rank(se) == r + 1:
            return None
        circuit = {e}
        for x in s:
            if self.rank(se - {x}) == r:
                circuit.add(x)
        return frozenset(circuit)

    def fundamental_circuits(self, basis=None) -> tuple:
        """(B, {e: C(e)}): the fundamental circuit, the unique circuit inside
        B + e, of every element e outside the basis B.

        B defaults to the greedy basis, which takes each element in
        increasing order when it is independent of the ones taken before it.
        A given ``basis`` that is not a basis raises GroundSetError.
        """
        if basis is None:
            b = self.greedy_basis()
        else:
            b = _as_frozen(basis)
            if not self.is_basis(b):
                raise GroundSetError("fundamental_circuits requires a basis")
        return b, {e: self.circuit_in(b, e) for e in sorted(self.ground - b)}

    def greedy_basis(self) -> frozenset:
        """The basis taking each element in increasing order when it is
        independent of the ones taken before it."""
        b: set = set()
        for e in sorted(self.ground):
            if self.rank(b | {e}) > len(b):
                b.add(e)
        return frozenset(b)

    def tableau(self, basis=None) -> "Tableau":
        """The ``Tableau`` of ``basis`` (default: the greedy basis), from its
        fundamental circuits; a non-basis raises GroundSetError."""
        b, circuits = self.fundamental_circuits(basis)
        return Tableau.of_circuits(b, {e: _encode(c) for e, c in circuits.items()})

    # -- views -------------------------------------------------------------

    def dual(self) -> "Matroid":
        raise NotImplementedError(f"{type(self).__name__} has no explicit dual")

    def minor(self, contract=(), delete=()) -> "Matroid":
        c = _as_frozen(contract)
        d = _as_frozen(delete)
        if c & d:
            raise GroundSetError(f"contract/delete overlap: {sorted(c & d)}")
        if not c <= self.ground or not d <= self.ground:
            raise GroundSetError("minor sets must lie in the ground set")
        if not c and not d:
            return self
        return self._minor(c, d)

    def _minor(self, c: frozenset, d: frozenset) -> "Matroid":
        """The minor for checked, disjoint sets, not both empty, which only
        an explicit backend builds."""
        raise NotImplementedError(f"{type(self).__name__} has no explicit minor")


class Gf2Matroid(Matroid):
    """Matroid of a 0/1 matrix over GF(2), one column per element.

    Columns are stored as integer bitmasks over the row index.  One bitset
    Gaussian elimination, its pivots keyed by their lowest set bit
    (``_eliminate``), answers memoized rank queries and circuit queries.
    """

    dual_of = None  # the GraphicMatroid G when built as M*(G) (``structure.cographic_leaf``)

    def __init__(self, columns: dict):
        super().__init__(frozenset(columns))
        self.columns = dict(columns)

    @classmethod
    def from_rows(cls, rows, elements=None) -> "Gf2Matroid":
        """Build from a list of rows, each a string or a sequence of 0/1
        entries; the columns are ``elements`` (default 0, 1, ...)."""
        rows = [row if isinstance(row, str) else "".join(str(int(x)) for x in row) for row in rows]
        if elements is None:
            elements = range(len(rows[0]) if rows else 0)
        elements = list(elements)
        if any(len(row) != len(elements) for row in rows):
            raise GroundSetError("ragged GF(2) matrix")
        cols = {e: 0 for e in elements}
        # a column read from the last row up is the binary numeral of its mask
        cols.update({e: int("".join(col)[::-1], 2) for e, col in zip(elements, zip(*rows))})
        return cls(cols)

    def dual(self) -> "Gf2Matroid":
        """Explicit dual: the transposed tableau of the greedy basis
        (``Tableau.dual_columns``), of rank |E| - r.  A graph's dual is the
        same matrix."""
        tab = self.tableau()
        dual = Gf2Matroid(tab.dual_columns())
        dual._full_rank = len(tab.circuits)
        return dual

    def is_basis(self, subset) -> bool:
        """A matrix built as M*(G) (``dual_of``) reads its graph: B is a
        basis of M*(G) exactly when E - B is a spanning forest of G."""
        primal = self.dual_of
        if primal is None:
            return super().is_basis(subset)
        s = _as_frozen(subset)
        self._check_ground(s)
        return primal.is_basis(self.ground - s)

    def _minor(self, c: frozenset, d: frozenset) -> "Gf2Matroid":
        """Explicit minor: each contracted column in turn is added to every
        other column holding its lowest set bit, which clears that row, and
        is dropped; a zero column (a loop) is just dropped."""
        cols = {e: v for e, v in self.columns.items() if e not in d}
        for e in sorted(c):
            v = cols.pop(e)
            if v:
                low = v & -v
                cols = {x: w ^ v if w & low else w for x, w in cols.items()}
        return Gf2Matroid(cols)

    def _eliminate(self, order) -> tuple:
        """One Gaussian elimination over the columns of ``order``, in order.

        Returns (pivots, masks): the elements whose columns are independent
        of the ones before them, and for every other element a bitmask over
        element ids marking its circuit with the earlier pivots.  A column
        takes the reduced column at its lowest set bit, with the mask of the
        columns that one sums, until none sits there or it is zero.
        """
        cols = self.columns
        reduced = {}  # lowest set bit -> (column, mask of the columns summed)
        pivots = []
        masks = {}
        for e in order:
            vec, support = cols[e], 1 << e
            while vec:
                hit = reduced.get(vec & -vec)
                if hit is None:
                    reduced[vec & -vec] = vec, support
                    pivots.append(e)
                    break
                vec ^= hit[0]
                support ^= hit[1]
            else:
                masks[e] = support
        return pivots, masks

    def _rank(self, subset: frozenset) -> int:
        return len(self._eliminate(subset)[0])

    def _independent(self, elements) -> bool:
        """Whether ``elements``, ids of the ground set, are independent: the
        lowest-bit reduction of ``_eliminate`` without the circuit masks,
        stopping at the first column that reduces to zero.  Nothing is
        cached or checked."""
        cols = self.columns
        reduced = {}  # lowest set bit -> reduced column
        for e in elements:
            vec = cols[e]
            while vec:
                low = vec & -vec
                hit = reduced.get(low)
                if hit is None:
                    reduced[low] = vec
                    break
                vec ^= hit
            else:
                return False
        return True

    def _check_ground(self, elements) -> None:
        if not elements <= self.ground:
            raise GroundSetError(f"elements {sorted(elements - self.ground)} not in ground set")

    def circuit_in(self, independent, e: int):
        s = _as_frozen(independent)
        self._check_ground(s | {e})
        mask = self._eliminate(sorted(s) + [e])[1].get(e)
        return None if mask is None else _decode(mask)

    def _circuit_masks(self, basis) -> tuple:
        """(B, {e: C(e) as a mask}) from one elimination."""
        if basis is None:
            order = sorted(self.ground)
        else:
            b = _as_frozen(basis)
            self._check_ground(b)
            order = sorted(b) + sorted(self.ground - b)
        pivots, masks = self._eliminate(order)
        if basis is not None and set(pivots) != b:
            # a dependent B is padded out by pivots from outside it
            raise GroundSetError("fundamental_circuits requires a basis")
        return frozenset(pivots), masks

    def fundamental_circuits(self, basis=None) -> tuple:
        b, masks = self._circuit_masks(basis)
        return b, {e: _decode(mask) for e, mask in masks.items()}

    def tableau(self, basis=None) -> "Tableau":
        return Tableau.of_circuits(*self._circuit_masks(basis))


def _encode(elements) -> int:
    """The bitmask over element ids of a set of elements."""
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def _bits(mask: int) -> list:
    """The elements at the set bits of ``mask``, in increasing order; the
    loop runs once per set bit, from the top."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _decode(mask: int) -> frozenset:
    return frozenset(_bits(mask))


class Tableau:
    """Standard form of a matroid with respect to a basis B, as bitmasks over
    element ids.  ``circuits[e]``, for e outside B, marks the fundamental
    circuit C(B, e), the unique circuit in B + e; ``cocircuits[b]``, for b
    in B, marks the fundamental cocircuit C*(B, b), the elements whose
    circuit holds b.  Each contains its own element; one is the other
    transposed.

    B - b + f is a basis exactly when b lies on C(B, f) (``exchangeable``),
    which holds in every matroid.  The updates need a binary matroid: there
    the exchange to B - b + f (``pivot``) sets C(B, e) ^= C(B, f) for each
    e on C*(B, b), and C*(B, x) ^= C*(B, b) for each x on C(B, f), and
    moves C(B, f) to b and C*(B, b) to f (Oxley, *Matroid Theory*, 2nd ed.
    2011, on standard representations and pivoting).  A minor along two
    elements and the split along a tight set act on the masks alone.  They
    may leave bits set at elements they remove from the ground set: every
    reader skips bits of elements that have no mask of their own.  Updates
    change the tableau in place; ``copy`` keeps one.
    """

    __slots__ = ("circuits", "cocircuits")

    def __init__(self, circuits: dict, cocircuits: dict):
        self.circuits = circuits
        self.cocircuits = cocircuits

    @classmethod
    def of_circuits(cls, basis, circuits: dict) -> "Tableau":
        """From the circuit masks of the elements outside ``basis``."""
        cocircuits = {x: 1 << x for x in basis}
        for e, c in circuits.items():
            bit = 1 << e
            for x in _bits(c ^ bit):
                cocircuits[x] |= bit
        return cls(circuits, cocircuits)

    def copy(self) -> "Tableau":
        return Tableau(dict(self.circuits), dict(self.cocircuits))

    def exchangeable(self, b: int, f: int) -> bool:
        """Whether B - b + f is a basis, for b in B and f outside it."""
        return self.circuits[f] >> b & 1 == 1

    def exchange(self, b, f) -> bool:
        """Pivot to B - b + f and return True when b is in B, f is not, and
        b lies on C(B, f); otherwise change nothing and return False."""
        cf = self.circuits.get(f)
        if cf is None or b not in self.cocircuits or not cf >> b & 1:
            return False
        self.pivot(b, f)
        return True

    def basis(self) -> frozenset:
        return frozenset(self.cocircuits)

    def pivot(self, b: int, f: int) -> None:
        """Move to the basis B - b + f (``exchangeable(b, f)`` must hold)."""
        circuits, cocircuits = self.circuits, self.cocircuits
        cf = circuits.pop(f)
        cob = cocircuits.pop(b)
        for e in _bits(cob):
            if e in circuits:
                circuits[e] ^= cf
        for x in _bits(cf):
            if x in cocircuits:
                cocircuits[x] ^= cob
        circuits[b] = cf
        cocircuits[f] = cob

    def minor(self, contract: int, delete: int) -> None:
        """Move to B - {contract, delete} in M / contract \\ delete, where
        exactly one of the two lies in B: a ``delete`` in B is first pivoted
        out for ``contract``; then both leave the tableau."""
        if delete not in self.circuits:
            self.pivot(delete, contract)
        del self.circuits[delete]
        del self.cocircuits[contract]

    def split(self, outside) -> "Tableau":
        """Keep B ∩ z in M | z and return the tableau of B - z in M / z,
        where z is the ground set minus ``outside`` and holds the circuit of
        each of its elements outside B (a tight set does, for every basis
        whose complement is a basis).  Only the masks of ``outside`` move."""
        circuits, cocircuits = self.circuits, self.cocircuits
        rest = Tableau({}, {})
        for e in outside:
            if e in circuits:
                rest.circuits[e] = circuits.pop(e)
            else:
                rest.cocircuits[e] = cocircuits.pop(e)
        return rest

    def dual_columns(self) -> dict:
        """Columns of a GF(2) matrix of the dual matroid (the tableau
        transposed), with one row per element outside B: such an element's
        column is its unit vector, and the column of b in B is C*(B, b)
        without b."""
        rows = _encode(self.circuits)
        cols = {e: 1 << e for e in self.circuits}
        cols.update((b, c & rows) for b, c in self.cocircuits.items())
        return cols


class RootedForest:
    """A spanning forest B of the graph ``edges`` ({id: (u, v)}, read only),
    rooted: ``up`` and ``via`` give each vertex below a root its parent and
    the tree edge to it, and ``child`` gives each tree edge its lower end.

    B - b + f is a basis exactly when b lies on the tree path between the
    ends of f, that is, when exactly one end of f lies in the subtree under
    b.  ``exchangeable`` finds out by climbing from the ends of f, at the
    cost of their depths; an end at b's upper vertex is not under b and
    needs no climb.  ``exchange`` then re-roots that subtree at the end of
    f inside it and hangs it from the other end through f.  A graph chain
    also moves its forests to its minors, on an edge dict it edits in
    place: ``split`` drops a leaf edge and ``contract`` a tree edge.
    """

    __slots__ = ("edges", "up", "via", "child")

    def __init__(self, edges: dict, up: dict, via: dict, child: dict):
        self.edges, self.up, self.via, self.child = edges, up, via, child

    def copy(self) -> "RootedForest":
        return RootedForest(self.edges, dict(self.up), dict(self.via), dict(self.child))

    def _below(self, w, c) -> bool:
        """Whether the vertex w lies in the subtree under c: a climb from w
        that stops at c or at a root."""
        up = self.up
        while w != c:
            if w not in up:
                return False
            w = up[w]
        return True

    def _crossing(self, c, f):
        """The ends (w, v) of the edge f with w under the vertex c and v not,
        or None when both or neither are (a loop is never across)."""
        u, v = self.edges[f]
        top = self.up[c]  # not under c
        under = u != top and self._below(u, c)
        if under == (v != top and self._below(v, c)):
            return None
        return (u, v) if under else (v, u)

    def exchangeable(self, b, f) -> bool:
        """Whether B - b + f is a basis, for b in B and an edge f outside it;
        nothing changes."""
        return self._crossing(self.child[b], f) is not None

    def exchange(self, b, f) -> bool:
        """Move to B - b + f and return True when b is in B, f is an edge
        outside it, and B - b + f is a basis; otherwise change nothing and
        return False."""
        child, up = self.child, self.up
        if b not in child or f in child or f not in self.edges:
            return False
        c = child[b]
        ends = self._crossing(c, f)
        if ends is None:
            return False
        w, v = ends
        via, edge = self.via, f  # w, under b, hangs from v through f
        while w != c:
            next_w, next_edge = up[w], via[w]
            up[w], via[w], child[edge] = v, edge, w
            v, w, edge = w, next_w, next_edge
        up[c], via[c], child[edge] = v, edge, c
        del child[b]
        return True

    def split(self, outside) -> "RootedForest":
        """Drop the one edge e of ``outside`` in B, where ``outside`` is the
        two edges at a vertex u of degree 2, so u is a leaf of B or a root
        with one child.  Return the forest of e in the parallel pair that
        ``outside`` becomes once the rest is contracted."""
        held = [e for e in outside if e in self.child]
        if len(held) != 1:
            raise AssertionError("a forest must hold one edge at a degree-2 vertex")
        (e,) = held
        c = self.child.pop(e)
        p = self.up.pop(c)
        del self.via[c]
        return RootedForest(dict.fromkeys(outside, (p, c)), {c: p}, {c: e}, {e: c})

    def contract(self, e, star) -> None:
        """Contract the tree edge e = (p, q) as a graph chain does, merging q
        into p, before the chain edits ``edges``: the tree edges below q,
        found in its incidence ``star[q]``, hang from p instead, and when p
        lies below q it takes q's place."""
        up, via, child = self.up, self.via, self.child
        p, q = self.edges[e]
        c = child.pop(e)
        for x in star[q]:
            w = child.get(x)
            if w is not None and w != q:
                up[w] = p
        if c == q:
            del up[q], via[q]
        elif q in up:
            up[p], via[p] = up.pop(q), via.pop(q)
            child[via[p]] = p
        else:
            del up[p], via[p]

    def basis(self) -> frozenset:
        return frozenset(self.child)


class Multigraph:
    """Loopless-or-not multigraph given as an edge dict {id: (u, v)}.

    Vertices are arbitrary hashables.  Instances are immutable: contraction
    and deletion return fresh graphs, built from scratch.

    The incidence index (``incidence``) maps each vertex to the ids of its
    edges, one id per end, so a loop is listed twice; it is built on first
    use.
    """

    def __init__(self, edges: dict):
        self.edges = dict(edges)
        self._ends = None  # the incidence index, once built

    def incidence(self) -> dict:
        """{vertex: ids of its edges}; callers must not change it."""
        if self._ends is None:
            ends: dict = {}
            for e, (u, v) in self.edges.items():
                ends.setdefault(u, []).append(e)
                ends.setdefault(v, []).append(e)
            self._ends = {v: tuple(ids) for v, ids in ends.items()}
        return self._ends

    def vertices(self) -> set:
        verts = set()
        for u, v in self.edges.values():
            verts.add(u)
            verts.add(v)
        return verts

    def degree(self) -> dict:
        """{vertex: number of edge ends at it} for every vertex with an edge."""
        return {v: len(ids) for v, ids in self.incidence().items()}

    def incident(self, vertex) -> frozenset:
        return frozenset(self.incidence().get(vertex, ()))

    def restrict(self, edge_ids) -> "Multigraph":
        keep = _as_frozen(edge_ids)
        return Multigraph({e: uv for e, uv in self.edges.items() if e in keep})

    def delete_edges(self, edge_ids) -> "Multigraph":
        drop = _as_frozen(edge_ids)
        return Multigraph({e: uv for e, uv in self.edges.items() if e not in drop})

    def contract_edges(self, edge_ids) -> "Multigraph":
        """Contract the given edges in one union-find pass.

        Renaming rule: edges are taken in sorted id order, and contracting
        edge (u, v) merges the vertex now carrying v's name into the vertex
        now carrying u's name, which keeps its name.  This is what contracting
        the edges one at a time gives, so vertex names do not depend on how
        the contraction is carried out.  An edge that is a loop by its turn
        is deleted, ids not in the graph are ignored, and surviving edges
        keep their order.
        """
        drop = _as_frozen(edge_ids)
        edges = self.edges
        parent: dict = {}  # non-root vertex -> a vertex closer to its root
        for e in sorted(drop):
            uv = edges.get(e)
            if uv is None:
                continue
            u, v = uv
            while u in parent:
                up = parent[u]
                parent[u] = u = parent.get(up, up)  # to the grandparent
            while v in parent:
                vp = parent[v]
                parent[v] = v = parent.get(vp, vp)
            if u != v:
                parent[v] = u
        kept = {}
        for e, (a, b) in edges.items():
            if e not in drop:
                while a in parent:
                    a = parent[a]
                while b in parent:
                    b = parent[b]
                kept[e] = (a, b)
        return Multigraph(kept)

    def forest(self, edge_ids) -> list:
        """The edges of ``edge_ids``, taken in order, that each join two
        components of the ones kept before them (Kruskal's rule)."""
        edges = self.edges
        parent: dict = {}  # non-root vertex -> a vertex closer to its root
        kept = []
        for e in edge_ids:
            u, v = edges[e]
            while u in parent:
                up = parent[u]
                parent[u] = u = parent.get(up, up)  # to the grandparent
            while v in parent:
                vp = parent[v]
                parent[v] = v = parent.get(vp, vp)  # to the grandparent
            if u != v:
                parent[u] = v
                kept.append(e)
        return kept


def _is_forest(edges: dict, elements) -> bool:
    """Whether the edges ``elements`` of ``edges`` ({id: (u, v)}) form a
    forest: ``Multigraph.forest``'s union-find, stopping at the first edge
    that closes a cycle."""
    parent: dict = {}  # non-root vertex -> a vertex closer to its root
    for e in elements:
        u, v = edges[e]
        while u in parent:
            up = parent[u]
            parent[u] = u = parent.get(up, up)  # to the grandparent
        while v in parent:
            vp = parent[v]
            parent[v] = v = parent.get(vp, vp)
        if u == v:
            return False
        parent[u] = v
    return True


class GraphicMatroid(Matroid):
    """Graphic matroid of a multigraph; elements are edge ids."""

    def __init__(self, graph: Multigraph):
        super().__init__(frozenset(graph.edges))
        self.graph = graph

    def _rank(self, subset: frozenset) -> int:
        return len(self.graph.forest(subset))

    def greedy_basis(self) -> frozenset:
        """Kruskal in id order: one union-find pass."""
        return frozenset(self.graph.forest(sorted(self.ground)))

    dual = Gf2Matroid.dual

    def _independent(self, elements) -> bool:
        """Whether the edges ``elements``, ids of the ground set, form a
        forest (``_is_forest``).  Nothing is cached or checked."""
        return _is_forest(self.graph.edges, elements)

    def circuit_in(self, independent, e: int):
        if e not in self.ground:
            raise GroundSetError(f"element {e} not in ground set")
        u, v = self.graph.edges[e]
        if u == v:
            return frozenset({e})
        # walk the forest from u to v; the path plus e is the circuit
        adj: dict = {}
        for x in independent:
            a, c = self.graph.edges[x]
            adj.setdefault(a, []).append((c, x))
            adj.setdefault(c, []).append((a, x))
        prev = {u: (None, None)}
        stack = [u]
        while stack:
            node = stack.pop()
            if node == v:
                break
            for nxt, via in adj.get(node, ()):
                if nxt not in prev:
                    prev[nxt] = (node, via)
                    stack.append(nxt)
        if v not in prev:
            return None
        circuit = {e}
        node = v
        while prev[node][0] is not None:
            node, via = prev[node]
            circuit.add(via)
        return frozenset(circuit)

    def fundamental_circuits(self, basis=None) -> tuple:
        tab = self.tableau(basis)
        return frozenset(tab.cocircuits), {e: _decode(c) for e, c in tab.circuits.items()}

    def forest(self, basis=None) -> "RootedForest":
        """One rooted spanning forest of ``basis`` (default: the greedy
        basis), found depth first, so ``child`` lists the tree edges parents
        first.  A set with elements outside the ground set, a cycle, or an
        edge outside it joining two of its trees (it does not span) raises
        GroundSetError."""
        edges = self.graph.edges
        b = self.greedy_basis() if basis is None else _as_frozen(basis)
        if not b <= self.ground:
            raise GroundSetError(f"elements {sorted(b - self.ground)} not in ground set")
        adj: dict = {}
        for x in b:
            u, v = edges[x]
            adj.setdefault(u, []).append((v, x))
            adj.setdefault(v, []).append((u, x))
        up, via, child, root_of = {}, {}, {}, {}  # root_of: vertex -> its tree's root
        for root in adj:
            if root in root_of:
                continue
            root_of[root] = root
            stack = [(root, None)]
            while stack:
                node, above = stack.pop()
                for nxt, x in adj[node]:
                    if x == above:
                        continue
                    if nxt in root_of:  # a second way into nxt: B holds a cycle
                        raise GroundSetError("fundamental_circuits requires a basis")
                    root_of[nxt] = root
                    up[nxt], via[nxt], child[x] = node, x, nxt
                    stack.append((nxt, x))
        for e in self.ground - b:
            u, v = edges[e]
            if u != v and (u not in root_of or root_of[u] != root_of.get(v)):
                raise GroundSetError("fundamental_circuits requires a basis")
        return RootedForest(edges, up, via, child)

    def tableau(self, basis=None) -> "Tableau":
        """From the rooted spanning forest of B (``forest``), as bitmasks.
        Each vertex keeps the tree edges on its path to the root.  The
        climbs from the two ends of an edge e outside B meet where those
        paths join, so C(e) is e plus the XOR of the two paths.  Each edge
        outside B is also XORed into both of its ends; XORed up a subtree,
        these leave the edges with exactly one end in it, which with the
        tree edge b above the subtree make C*(b)."""
        edges = self.graph.edges
        forest = self.forest(basis)
        up, tree = forest.up, forest.child
        path: dict = {}  # vertex -> mask of the tree edges up to its root
        for x, node in tree.items():
            path[node] = path.get(up[node], 0) | 1 << x
        circuits = {}
        ends: dict = {}  # vertex -> XOR of the edges outside B at it
        for e in sorted(self.ground - tree.keys()):
            u, v = edges[e]
            bit = 1 << e
            if u != v:
                ends[u] = ends.get(u, 0) ^ bit
                ends[v] = ends.get(v, 0) ^ bit
                bit |= path.get(u, 0) ^ path.get(v, 0)
            circuits[e] = bit
        cocircuits = {}
        for x, node in reversed(tree.items()):
            end = ends.get(node, 0)
            cocircuits[x] = end | 1 << x
            ends[up[node]] = ends.get(up[node], 0) ^ end
        return Tableau(circuits, cocircuits)

    def _minor(self, c: frozenset, d: frozenset) -> "GraphicMatroid":
        """Explicit minor: the graph with d deleted and c contracted; an
        empty set costs no pass over the edges."""
        graph = self.graph
        if d:
            graph = graph.delete_edges(d)
        if c:
            graph = graph.contract_edges(c)
        return GraphicMatroid(graph)


class SumSpec:
    """Arity and shared set of a binary matroid sum; immutable, and equal
    to another by both.

    arity 1: shared empty.  arity 2: one shared element, neither a loop nor
    a coloop on either side.  arity 3: shared set is a coindependent triangle
    of both parts.
    """

    def __init__(self, arity: int, shared: frozenset = frozenset()):
        sizes = {1: 0, 2: 1, 3: 3}
        if arity not in sizes:
            raise CompositionError(f"unsupported sum arity {arity}")
        if len(shared) != sizes[arity]:
            raise CompositionError(
                f"{arity}-sum needs {sizes[arity]} shared elements, got {len(shared)}"
            )
        self.__dict__.update(arity=arity, shared=shared)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SumSpec is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not SumSpec:
            return NotImplemented
        return (self.arity, self.shared) == (other.arity, other.shared)

    def __hash__(self):
        return hash((self.arity, self.shared))

    def __repr__(self):
        return f"SumSpec(arity={self.arity!r}, shared={self.shared!r})"


def validate_sum(m1: Matroid, m2: Matroid, spec: SumSpec) -> None:
    """Check the sum preconditions, raising CompositionError naming the clause."""
    t = spec.shared
    if m1.ground & m2.ground != t:
        raise CompositionError("shared set must equal the intersection of the ground sets")
    e_new = (m1.ground | m2.ground) - t
    if len(m1.ground) >= len(e_new) or len(m2.ground) >= len(e_new):
        raise CompositionError("each part must be smaller than the composed ground set")
    if spec.arity == 2:
        (elt,) = t
        for name, m in (("first", m1), ("second", m2)):
            if m.rank({elt}) == 0:
                raise CompositionError(f"shared element is a loop of the {name} part")
            if not m.is_coindependent({elt}):
                raise CompositionError(f"shared element is a coloop of the {name} part")
    elif spec.arity == 3:
        for name, m in (("first", m1), ("second", m2)):
            if not m.is_circuit(t):
                raise CompositionError(f"shared set is not a triangle of the {name} part")
            if not m.is_coindependent(t):
                raise CompositionError(f"shared triangle is not coindependent in the {name} part")


def graphic_matroid(edges: dict) -> GraphicMatroid:
    return GraphicMatroid(Multigraph(edges))
