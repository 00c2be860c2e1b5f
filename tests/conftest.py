"""Shared fixtures and independent brute-force oracles.

The oracles here recompute expected values from first principles (subset
enumeration, DFS cycle checks, cycle-space spans) so the library's answers
are checked against an implementation-independent path.
"""

import itertools
from collections import deque
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from baseswap.matroid import Gf2Matroid, GroundSetError, Matroid, Multigraph, graphic_matroid
from baseswap.exchange import (
    BasisPair,
    ExchangeSequence,
    ExchangeStep,
    ForbiddenElementError,
    SequenceValidationError,
    apply_step,
    is_valid_exchange,
)
from baseswap.special import F7_ELEMENTS, F7_LINES, K5_EDGES
from baseswap.structure import Leaf

# K4 fixture: a=12 b=23 c=34 d=13 e=14 f=24, ids 0..5 in that letter order
K4_EDGES = {0: (1, 2), 1: (2, 3), 2: (3, 4), 3: (1, 3), 4: (1, 4), 5: (2, 4)}
A, B, C, D, E, F = range(6)

# DT fixture: two parallel classes a1,a2 = 12 and b1,b2 = 23
DT_EDGES = {0: (1, 2), 1: (1, 2), 2: (2, 3), 3: (2, 3)}


@pytest.fixture
def k4():
    m = graphic_matroid(K4_EDGES)
    x = BasisPair(frozenset({A, B, C}), frozenset({D, E, F}), m)
    y = BasisPair(frozenset({A, E, C}), frozenset({D, B, F}), m)
    return m, x, y


@pytest.fixture
def dt():
    m = graphic_matroid(DT_EDGES)
    x = BasisPair(frozenset({0, 2}), frozenset({1, 3}), m)
    return m, x


_vertices = st.one_of(st.integers(0, 4), st.sampled_from(["a", "b", "c", "0"]))


@st.composite
def multigraphs(draw):
    """Up to 12 edges on up to 9 vertices of mixed types: loops, parallel
    edges and several components are common."""
    ids = draw(st.lists(st.integers(0, 20), unique=True, max_size=12))
    return Multigraph({e: (draw(_vertices), draw(_vertices)) for e in ids})


@st.composite
def gf2_matrices(draw):
    """Four-bit columns over up to nine elements: zero columns (loops) and
    repeated columns (parallel pairs) are common."""
    return Gf2Matroid(draw(st.dictionaries(st.integers(0, 12), st.integers(0, 15), max_size=9)))


class MinorMatroid(Matroid):
    """Lazy minor view: r(Z) = r_base(Z + contracted) - r_base(contracted),
    the rank-path reference for the explicit minors."""

    def __init__(self, base: Matroid, contracted: frozenset, deleted: frozenset):
        super().__init__(base.ground - contracted - deleted)
        self.base = base
        self.contracted = contracted
        self.deleted = deleted
        self._contract_rank = base.rank(contracted)

    def _rank(self, subset: frozenset) -> int:
        return self.base.rank(subset | self.contracted) - self._contract_rank

    def _minor(self, c: frozenset, d: frozenset) -> Matroid:
        return MinorMatroid(self.base, self.contracted | c, self.deleted | d)


class DualMatroid(Matroid):
    """Lazy dual view: r*(Z) = |Z| - r(E) + r(E - Z), the rank-path
    reference for the explicit duals.  It has no dual or minor of its own,
    so ``DualMatroid(DualMatroid(m))`` is an opaque caller's view of m."""

    def __init__(self, base: Matroid):
        super().__init__(base.ground)
        self.base = base

    def _rank(self, subset: frozenset) -> int:
        b = self.base
        return len(subset) - b.full_rank + b.rank(b.ground - subset)


def f7_bases() -> list:
    """The 28 three-element subsets of F7's elements 0..6 that are not
    lines, from the line list."""
    lines = {frozenset(F7_ELEMENTS.index(c) for c in line) for line in F7_LINES}
    return [
        frozenset(c) for c in itertools.combinations(range(7), 3) if frozenset(c) not in lines
    ]


def random_four_regular_with_triangle(n: int, rng, max_tries: int = 5000):
    """Random simple 4-regular graph on n >= 6 vertices containing a triangle.

    Uses the pairing model with rejection; returns (Multigraph, triangle edge
    ids as a tuple).  Raises RuntimeError when no graph shows up.
    """
    if n < 6:
        raise ValueError("4-regular simple graphs need at least six vertices")
    for _ in range(max_tries):
        stubs = [v for v in range(1, n + 1) for _ in range(4)]
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        seen = set()
        ok = True
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in seen:
                ok = False
                break
            seen.add((min(u, v), max(u, v)))
        if not ok:
            continue
        edges = {i: (min(u, v), max(u, v)) for i, (u, v) in enumerate(pairs)}
        tri = _find_triangle_edges(edges)
        if tri is not None:
            return Multigraph(edges), tri
    raise RuntimeError(f"no simple 4-regular graph with a triangle for n={n}")


def _find_triangle_edges(edges: dict):
    by_pair = {}
    adj = {}
    for e, (u, v) in edges.items():
        by_pair[(u, v)] = e
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if v <= u:
                continue
            for w in sorted(adj[u] & adj[v]):
                if w <= v:
                    continue
                return (by_pair[(v, w)], by_pair[(u, w)], by_pair[(u, v)])
    return None


def random_basis(m, rng) -> frozenset:
    """The greedy basis for an order drawn from ``rng``."""
    basis: set = set()
    for e in rng.sample(sorted(m.ground), len(m.ground)):
        if m.rank(basis | {e}) > len(basis):
            basis.add(e)
    return frozenset(basis)


def drawn_pair(m, rng) -> BasisPair:
    """A random basis, then the greedy basis of a random order of the other
    elements followed by it: the pair often has common and uncovered
    elements."""
    first = random_basis(m, rng)
    second: set = set()
    for e in rng.sample(sorted(m.ground - first), len(m.ground - first)) + sorted(first):
        if m.rank(second | {e}) > len(second):
            second.add(e)
    return BasisPair(first, frozenset(second), m)


def reference_replay(pair, seq, forbidden=()):
    """``apply_and_validate`` by its rank-based reference: one
    ``is_valid_exchange`` per step."""
    avoid = frozenset(forbidden)
    current = pair
    for k, step in enumerate(seq):
        step = ExchangeStep(*step)
        if step.e in avoid or step.f in avoid:
            raise ForbiddenElementError(k, step.e if step.e in avoid else step.f)
        if not is_valid_exchange(current, step):
            raise SequenceValidationError(k, "invalid exchange {step}", step=step)
        current = apply_step(current, step)
    return current


def bfs_distances(m, x) -> dict:
    """Exchange distances from the pair ``x`` to every pair it reaches,
    keyed by first basis: a breadth-first search over the steps that
    ``is_valid_exchange`` accepts."""
    dist = {x.first: 0}
    queue = deque([x])
    while queue:
        pair = queue.popleft()
        for e in sorted(pair.first - pair.second):
            for f in sorted(pair.second - pair.first):
                step = ExchangeStep(e, f)
                if is_valid_exchange(pair, step):
                    nxt = apply_step(pair, step)
                    if nxt.first not in dist:
                        dist[nxt.first] = dist[pair.first] + 1
                        queue.append(nxt)
    return dist


def reference_rank_le2(inst, h=None) -> ExchangeSequence:
    """The rank <= 2 base case by the search the engine used before its
    leaves went to ``bfs_oracle``: every sequence of at most two steps that
    moves each element once and avoids F, the shortest and then
    lexicographically first one kept; with ``h`` given, the last step must
    use it (a same-pair instance yields the empty sequence regardless)."""
    m = inst.matroid
    r = len(inst.x.first)
    if inst.x.first == inst.y.first and inst.x.second == inst.y.second:
        return ExchangeSequence()

    avoid = inst.forbidden
    target = (inst.y.first, inst.y.second)
    best = None

    def steps_from(pair: BasisPair, used: frozenset):
        for e in sorted(pair.first - pair.second):
            if e in avoid or e in used:
                continue
            for f in sorted(pair.second - pair.first):
                if f in avoid or f in used:
                    continue
                if m.rank(pair.first - {e} | {f}) == r and m.rank(pair.second - {f} | {e}) == r:
                    yield ExchangeStep(e, f)

    def search(pair, used, trail):
        nonlocal best
        if (pair.first, pair.second) == target:
            if trail and h is not None and h not in trail[-1]:
                return
            key = (len(trail), tuple(trail))
            if best is None or key < best[0]:
                best = (key, list(trail))
            return
        if len(trail) >= 2:
            return
        for step in steps_from(pair, used):
            nxt = BasisPair(
                pair.first - {step.e} | {step.f}, pair.second - {step.f} | {step.e}, m
            )
            search(nxt, used | {step.e, step.f}, trail + [step])

    search(BasisPair(inst.x.first, inst.x.second, m), frozenset(), [])
    if best is None:
        raise AssertionError("rank <= 2 instance without a short sequence")
    return ExchangeSequence(best[1])


def reference_replace(lift, e, f, first, second):
    """``TriadLift.replace`` by the two-option choice it replaced, on the
    child's pair (``first`` and ``second`` cut to the child's ground set,
    the frame's minus t2 and t3): option A when its middle pair consists of
    bases, asking only the member holding the deleted element (the other is
    a child basis plus the contracted one), else option B when both of its
    members are bases.  Returns (the two steps, whether option A held,
    whether option B's two checks held); the choice raised when neither
    held.  A set is a basis when the frame's cached rank oracle gives it the
    frame's rank r, one more than the size of a child basis; a graph
    chain's level (``graphic.LevelEdges``) is asked as a fresh graph."""
    t1, t2, t3, delete = lift.t1, lift.t2, lift.t3, lift.delete
    frame = lift.frame
    if not isinstance(frame, Matroid):
        frame = graphic_matroid(frame.edges)
    ground = frame.ground - {t2, t3}
    first, second = set(first) & ground, set(second) & ground
    r = len(first) + 1

    def basis(s) -> bool:
        return frame.rank(s) == r

    if e == t1:
        mid = (first | {t3}, second | {t2})
        option_b = basis((first - {t1}) | {t2, t3}) and basis(second | {t1})
        steps = ((t2, t3), (t1, f)), ((t1, t3), (t2, f))
    else:
        mid = (first | {t2}, second | {t3})
        option_b = basis(first | {t1}) and basis((second - {t1}) | {t2, t3})
        steps = ((t3, t2), (e, t1)), ((t3, t1), (e, t2))
    option_a = basis(mid[0] if delete in mid[0] else mid[1])
    return steps[0] if option_a else steps[1], option_a, option_b


def triad_lift(lift, seq, start) -> list:
    """The parent's steps for the child's sequence ``seq`` from the child's
    start pair ``start``, one triad level at a time: each child step using
    t1 replaced by two (``TriadLift.replace``), all of them reversed when
    the pairs were swapped, between the x fix-up and the reversed y fix-up.
    The engine's forward pass lifts a whole tree of levels in one walk."""
    out = []
    cur1, cur2 = set(start.first), set(start.second)  # the child's pair, step by step
    for e, f in seq:
        out += lift.replace(e, f, cur1, cur2) if lift.t1 in (e, f) else [ExchangeStep(e, f)]
        cur1.discard(e)
        cur1.add(f)
        cur2.discard(f)
        cur2.add(e)
    if lift.swapped:
        out = [s.reversed() for s in out]
    return [s for s in (lift.prefix, *out, lift.suffix) if s is not None]


class Level(NamedTuple):
    """One level of a chain of reductions applied to an instance
    (``chain_level``): its certificate payload, its child instances (for a
    split the restriction M | z, then M / z), their tableaux, the order in
    which the parent runs them, and a triad's lift (None for a split)."""

    payload: dict
    children: list
    tableaux: list
    order: tuple
    triad: object

    def lift(self, *seqs) -> list:
        """The parent's steps for one solved sequence per child, in child
        order: a triad's through ``triad_lift``, a split's concatenated in
        ``order``."""
        if self.triad is not None:
            (seq,) = seqs
            return triad_lift(self.triad, seq, self.children[0].x)
        return [step for i in self.order for step in seqs[i]]


def chain_level(inst, z=None, triad=None, dual=False, last=None, tableaux=None, graph=False):
    """One level of the engine's chain of reductions on ``inst``, a frame
    whose pairs are disjoint and cover its ground set: the split on the
    tight set ``z``, or the shrink along ``triad`` (a triangle, with
    ``dual``), with ``last`` designated and the pairs' tableaux (built when
    not given).  The chain is a graph's (``graphic.GraphChain``, which
    carries its own forests) with ``graph``, else a GF(2) frame's
    (``pipeline.MatrixChain``) on the instance's matroid as a leaf.
    Returns a ``Level``, whose ``tableaux`` are a graph chain's forests."""
    from baseswap.graphic import GraphChain
    from baseswap.pipeline import MatrixChain
    from baseswap.reductions import Pairs
    from baseswap.structure import as_structure

    m = inst.matroid
    if graph:
        chain = GraphChain(m.graph, inst, last)
    else:
        chain = MatrixChain(as_structure(m), inst, last, tableaux or Pairs.of(inst))
    if triad is None:
        z, restrict_last, (_, rest, _, rest_tableaux) = chain.split(m.ground - frozenset(z))
        _, child, _, tabs = chain.frame()
        order = (1, 0) if restrict_last else (0, 1)
        payload = {"z": z, "restrict_last": restrict_last}
        return Level(payload, [child, rest], [tabs, rest_tableaux], order, None)
    payload, lift = chain.shrink(frozenset(triad), dual)
    _, child, _, tabs = chain.frame()
    return Level(payload, [child], [tabs], (0,), lift)


def strip_level(inst) -> tuple:
    """The engine's strips (``pipeline._strip``) on ``inst``, as a leaf:
    the instance left, and the trace nodes of the strips that applied,
    outermost first."""
    from baseswap.pipeline import _strip
    from baseswap.structure import as_structure

    trace: list = []
    _, child, _ = _strip(as_structure(inst.matroid), inst, trace)
    return child, trace[0].flatten() if trace else []


class ReferencePairs:
    """A chain's pairs x = (x1, x2), y = (y1, y2) and F kept as mutable
    sets, and moved by the set rules of its two reductions: the reference
    for the pairs ``reductions.Chain`` reads from its tableaux' keys."""

    def __init__(self, inst):
        self.sets = [set(inst.x.first), set(inst.x.second), set(inst.y.first), set(inst.y.second)]
        self.forbidden = set(inst.forbidden)

    def pairs(self) -> tuple:
        return tuple(map(frozenset, self.sets)), frozenset(self.forbidden)

    def split(self, outside) -> tuple:
        """The tight split on the ground set minus ``outside``: the chain
        keeps each set without ``outside``; returns the other side's pairs
        and F, each cut to ``outside``."""
        rest = tuple(frozenset(s & outside) for s in self.sets), frozenset(self.forbidden & outside)
        for s in self.sets:
            s -= outside
        self.forbidden -= outside
        return rest

    def shrink(self, payload: dict) -> None:
        """The triad reduction of a certificate ``payload``: each fix-up
        step exchanges its two elements between its pair's sets, the pairs
        are swapped when x1 then holds one triad element, and t2 and t3
        leave the sets (t2 from the member of y that holds t1 and t2)."""
        t = payload["triad"]
        for pair, key in ((self.sets[:2], "fix_x"), (self.sets[2:], "fix_y")):
            if payload[key] is not None:
                first, second = pair
                e, f = payload[key]
                first.remove(e)
                first.add(f)
                second.remove(f)
                second.add(e)
        x1, x2, y1, y2 = self.sets
        swapped = len(t & x1) == 1
        if swapped:
            x1, x2, y1, y2 = self.sets = [x2, x1, y2, y1]
        t1, t2 = sorted(t & x1)
        (t3,) = t & x2
        assert (t1, t2, t3, swapped) == tuple(payload[k] for k in ("t1", "t2", "t3", "swapped"))
        if t1 in y1 and t2 in y1:
            y1.discard(t2)
            y2.discard(t3)
        else:
            assert t1 in y2 and t2 in y2, "pairs are not consistent on the triad"
            y1.discard(t3)
            y2.discard(t2)
        x1.discard(t2)
        x2.discard(t3)


def frame_pairs(inst) -> tuple:
    """An instance's four bases, then its F, in ``ReferencePairs.pairs``'
    form."""
    return (inst.x.first, inst.x.second, inst.y.first, inst.y.second), inst.forbidden


def checked_replace(replace, options):
    """A stand-in for ``TriadLift.replace`` that calls ``replace`` and
    requires its steps to equal ``reference_replace``'s, with option A or
    option B's two checks holding; ``options`` counts whether option A held."""

    def checked(lift, e, f, first, second):
        got = replace(lift, e, f, first, second)
        want, option_a, option_b = reference_replace(lift, e, f, first, second)
        assert tuple(map(tuple, got)) == want
        assert option_a or option_b
        options[option_a] += 1
        return got

    return checked


def reference_find_triad(m, cover=None):
    """``reductions.find_triad`` by the rank search it replaced: the
    lexicographically first 3-element set T inside ``cover`` with r(E - T)
    = r - 1 and r(E - T + t) = r for each t in T.  On the dual of m it
    finds the first triangle."""
    elems = sorted(m.ground if cover is None else frozenset(cover))
    r = m.full_rank
    for combo in itertools.combinations(elems, 3):
        rest = m.ground - set(combo)
        if m.rank(rest) == r - 1 and all(m.rank(rest | {t}) == r for t in combo):
            return frozenset(combo)
    return None


def reference_eliminate(m, order) -> tuple:
    """``Gf2Matroid._eliminate`` by the elimination it replaced: each column
    is reduced against every earlier reduced column in insertion order,
    testing that column's lowest set bit."""
    reduced = []  # (column, its lowest set bit, mask of the columns summed)
    pivots = []
    masks = {}
    for e in order:
        vec, support = m.columns[e], 1 << e
        for rvec, low, rsupport in reduced:
            if vec & low:
                vec ^= rvec
                support ^= rsupport
        if vec:
            reduced.append((vec, vec & -vec, support))
            pivots.append(e)
        else:
            masks[e] = support
    return pivots, masks


def reference_bits(mask: int) -> list:
    """``matroid._bits`` by the decode it replaced: the set bits read off
    the ``bin()`` string, bit 0 first."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def subsets(elems, max_size=None):
    elems = sorted(elems)
    top = len(elems) if max_size is None else max_size
    for k in range(top + 1):
        for combo in itertools.combinations(elems, k):
            yield frozenset(combo)


def brute_circuits(m):
    """Minimal dependent sets, by exhaustive enumeration."""
    found = []
    for s in subsets(m.ground):
        if m.is_independent(s):
            continue
        if all(m.is_independent(s - {x}) for x in s):
            found.append(s)
    return found


def brute_cocircuits(m):
    return brute_circuits(DualMatroid(m))


def brute_tight_sets(m):
    """Nonempty proper subsets Z with |Z| = 2 r(Z)."""
    out = []
    for s in subsets(m.ground):
        if s and s != m.ground and len(s) == 2 * m.rank(s):
            out.append(s)
    return out


def reference_sinks(m, x, tableaux=None) -> list:
    """The sink components of the digraph y -> C(y) - y of a disjoint
    covering pair, decoded into adjacency lists (the circuit masks of the
    tableaux, or of the pair's bases, keeping only bits of the other basis)
    and found by Tarjan."""
    adj = {}
    for tab in tableaux or (m.tableau(x.first), m.tableau(x.second)):
        basis = tab.cocircuits
        for y, circuit in tab.circuits.items():
            adj[y] = [b for b in range(circuit.bit_length()) if circuit >> b & 1 and b in basis]
    return reference_sink_components(adj)


def reference_tight_set(m, x, tableaux=None):
    """``find_nontrivial_tight_set`` by the search it replaced: the
    lexicographically smallest proper sink of ``reference_sinks``, or None."""
    proper = [scc for scc in reference_sinks(m, x, tableaux) if len(scc) < len(m.ground)]
    if not proper:
        return None
    return min(proper, key=lambda s: tuple(sorted(s)))


def reference_sink_components(adj: dict) -> list:
    """Sink strongly connected components of a digraph, via iterative Tarjan."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components = []
    counter = itertools.count()
    comp_of: dict = {}

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    comp_of[w] = len(components)
                    if w == node:
                        break
                components.append(frozenset(comp))
    sinks = []
    for ci, comp in enumerate(components):
        if all(comp_of[t] == ci for v in comp for t in adj[v]):
            sinks.append(comp)
    return sinks


def dfs_forest_rank(edges, subset):
    """Graphic rank by DFS component counting; independent of union-find."""
    adj = {}
    for e in subset:
        u, v = edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = 0
    for start in adj:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return len(seen) - comps


def referee_graph_sequence(edges, x, y, steps, forbidden=(), last=None, reversal=False):
    """A check of a graph instance's steps that reads no library code, only
    ``dfs_forest_rank`` and set operations: both sides of x, and of the pair
    after every step (e, f), which moves e from the first side to the second
    and f back, are spanning trees of ``edges``; no step touches F; and the
    steps end on y.  A ``reversal`` must also move every element once and,
    when ``last`` is given, use it in its last step.  Raises AssertionError
    at the first failure."""
    rank = dfs_forest_rank(edges, edges)

    def spanning(tree) -> bool:
        return len(tree) == rank == dfs_forest_rank(edges, tree)

    avoid = set(forbidden)
    first, second = set(x[0]), set(x[1])
    assert spanning(first) and spanning(second), "x is not a pair of spanning trees"
    moved = []
    for k, (e, f) in enumerate(steps):
        assert e in first - second and f in second - first, f"step {k} ({e}, {f}) moves nothing"
        assert not avoid & {e, f}, f"step {k} ({e}, {f}) touches F"
        first = first - {e} | {f}
        second = second - {f} | {e}
        assert spanning(first) and spanning(second), f"step {k} ({e}, {f}) is not an exchange"
        moved += [e, f]
    assert (first, second) == (set(y[0]), set(y[1])), "the steps do not reach y"
    if reversal:
        assert sorted(moved) == sorted(set(x[0]) | set(x[1])), "an element does not move once"
        assert last is None or last in steps[-1], "the last step does not use the last element"


def reference_contract_edges(graph, edge_ids):
    """Contraction one edge at a time, in sorted id order, rebuilding the
    edge dict for every edge: contracting (u, v) renames v to u everywhere;
    a loop is deleted and an absent id ignored.  Multigraph.contract_edges
    must produce exactly this graph, vertex names and edge order included."""
    edges = dict(graph.edges)
    for e in sorted(edge_ids):
        if e not in edges:
            continue
        u, v = edges.pop(e)
        if u == v:
            continue
        edges = {x: (u if a == v else a, u if b == v else b) for x, (a, b) in edges.items()}
    return Multigraph(edges)


def reference_degree(edges) -> dict:
    """Edge ends per vertex, counted from the edge dict (a loop twice), with
    the vertices in the order the edges first reach them."""
    deg: dict = {}
    for u, v in edges.values():
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def bucket_pick(graph, forbidden=(), last=None):
    """A graph chain's pick (``graphic._Buckets``) on a whole graph: a
    degree-2 vertex, else a degree-3 vertex clear of F and the ``last``
    edge, the first in ``sorted(vertices, key=str)`` order, of equal names
    the one the edges reach first.  The buckets run on the graph's vertices
    numbered as a chain numbers them, over the graph's own index (a loop
    listed twice); the vertex is returned by name."""
    from baseswap.graphic import _Buckets, _numbered

    names, edges, _ = _numbered(graph)
    star = list(graph.incidence().values())
    vertex, kind = _Buckets(star, names).pick(edges, frozenset(forbidden), last)
    return names[vertex], kind


def reference_pick_reduction_vertex(graph, forbidden=(), last=None):
    """``bucket_pick`` by the scan it replaced: degrees
    from the edge dict, vertices sorted by ``str`` (stable, so equal names
    keep the order the edges reach them), the first of degree 2, else the
    first of degree 3 that no forbidden edge and not the ``last`` edge
    touches."""
    deg = reference_degree(graph.edges)
    order = sorted(deg, key=str)
    for v in order:
        if deg[v] == 2:
            return v, "degree2"
    blocked = {w for e in forbidden for w in graph.edges[e]}
    if last is not None:
        blocked |= set(graph.edges[last])
    for v in order:
        if deg[v] == 3 and v not in blocked:
            return v, "degree3"
    raise AssertionError("no low-degree vertex available; this cannot happen")


def cycle_space_masks(m):
    """All cycles of a binary matroid as bitmasks, from its circuits."""
    elems = sorted(m.ground)
    idx = {e: i for i, e in enumerate(elems)}
    vectors = {0}
    for circuit in brute_circuits(m):
        mask = 0
        for x in circuit:
            mask |= 1 << idx[x]
        vectors |= {v ^ mask for v in vectors}
    return vectors, idx


def brute_sum_rank_fn(m1, m2, shared):
    """Rank oracle for the binary sum, from the parts' cycle spaces."""
    z1, i1 = cycle_space_masks(m1)
    z2, i2 = cycle_space_masks(m2)
    ground = sorted((m1.ground | m2.ground) - shared)
    gidx = {e: i for i, e in enumerate(ground)}
    t_sorted = sorted(shared)

    def project(vec, idx):
        main = 0
        tpart = 0
        for e, i in idx.items():
            if vec >> i & 1:
                if e in gidx:
                    main |= 1 << gidx[e]
                else:
                    tpart |= 1 << t_sorted.index(e)
        return main, tpart

    by_t = {}
    for v in z2:
        main, tpart = project(v, i2)
        by_t.setdefault(tpart, []).append(main)
    composed = set()
    for v in z1:
        main, tpart = project(v, i1)
        for other in by_t.get(tpart, ()):
            composed.add(main ^ other)

    def rank(subset):
        mask = 0
        for e in subset:
            mask |= 1 << gidx[e]
        inside = sum(1 for z in composed if z & ~mask == 0)
        return len(subset) - (inside.bit_length() - 1)

    return rank


class DefinitionalSum(Matroid):
    """Binary 1-/2-/3-sum of two matroids along a shared set T, by definition.

    Rank of a subset S is computed from cycle-space dimensions of the parts:
    cycles of the sum inside S are symmetric differences of part cycles that
    agree on T, so

        r(S) = |S| - (dim ker1 + dim ker2 + dim(V1 cap V2) - dim K)

    where ker_i counts part cycles avoiding T inside S_i, V_i is the space of
    T-projections of part cycles supported in S_i + T, and K is the space of
    cycles common to both parts inside T itself.  All dimensions come from
    rank queries on the parts.

    Basis membership is decided directly from the basis descriptions of
    binary sums (three branches for the 3-sum), not from the rank formula.
    The parts must satisfy the sum preconditions.
    """

    def __init__(self, m1, m2, spec):
        t = spec.shared
        super().__init__((m1.ground | m2.ground) - t)
        self.m1 = m1
        self.m2 = m2
        self.spec = spec
        self.side1 = m1.ground - t
        self.side2 = m2.ground - t
        # dim of the common cycle space inside T: {0, T} for triangles
        self._ker_dim = 1 if spec.arity == 3 else 0
        self._t_sorted = tuple(sorted(t))

    def _projection_space(self, m, s_part):
        """Subsets of T arising as C ∩ T for a cycle C of ``m`` inside s_part + T."""
        cycle_dim = {}
        for k in range(len(self._t_sorted) + 1):
            for tau in itertools.combinations(self._t_sorted, k):
                tau = frozenset(tau)
                cycle_dim[tau] = len(s_part) + len(tau) - m.rank(s_part | tau)
        members = set()
        for tau in cycle_dim:
            count = 0
            for k in range(len(tau) + 1):
                for sigma in itertools.combinations(sorted(tau), k):
                    sign = -1 if (len(tau) - k) % 2 else 1
                    count += sign * (1 << cycle_dim[frozenset(sigma)])
            if count > 0:
                members.add(tau)
        return members, cycle_dim[frozenset()]

    def _rank(self, subset):
        v1, ker1 = self._projection_space(self.m1, subset & self.side1)
        v2, ker2 = self._projection_space(self.m2, subset & self.side2)
        vdim = len(v1 & v2).bit_length() - 1  # |subspace| = 2**dim
        return len(subset) - (ker1 + ker2 + vdim - self._ker_dim)

    def is_basis(self, subset):
        s = frozenset(subset)
        if not s <= self.ground:
            raise GroundSetError("is_basis: elements outside ground set")
        b1 = s & self.side1
        b2 = s & self.side2
        if self.spec.arity == 1:
            return self.m1.is_basis(b1) and self.m2.is_basis(b2)
        if self.spec.arity == 2:
            (t,) = self.spec.shared
            return (self.m1.is_basis(b1 | {t}) and self.m2.is_basis(b2)) or (
                self.m1.is_basis(b1) and self.m2.is_basis(b2 | {t})
            )
        t1, t2, t3 = self._t_sorted
        r1 = self.m1.full_rank
        r2 = self.m2.full_rank
        n1, n2 = len(b1), len(b2)
        if n1 + n2 != r1 + r2 - 2:
            return False
        if n1 == r1 - 2:
            return self.m1.is_basis(b1 | {t1, t2}) and self.m2.is_basis(b2)
        if n1 == r1:
            return self.m1.is_basis(b1) and self.m2.is_basis(b2 | {t1, t2})
        if n1 == r1 - 1:
            p1 = frozenset(t for t in self._t_sorted if self.m1.is_basis(b1 | {t}))
            if len(p1) != 2:
                return False
            p2 = frozenset(t for t in self._t_sorted if self.m2.is_basis(b2 | {t}))
            return len(p2) == 2 and p1 != p2
        return False


def definitional_matroid(struct):
    """The matroid of a structure with every sum node taken by definition."""
    if isinstance(struct, Leaf):
        return struct.matroid
    return DefinitionalSum(
        definitional_matroid(struct.left), definitional_matroid(struct.right), struct.spec
    )


class EvenCycleMatroid(Matroid):
    """Even-cycle matroid of a graph with every edge odd.

    A set is independent when each of its components contains at most one
    cycle and that cycle is odd; the rank of S is |V(S)| minus the number of
    components plus the number of non-bipartite components.
    """

    def __init__(self, graph):
        super().__init__(frozenset(graph.edges))
        self.graph = graph

    def _rank(self, subset):
        adj = {}
        for e in subset:
            u, v = self.graph.edges[e]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {}
        rank = 0
        for start in adj:
            if start in seen:
                continue
            seen[start] = 0
            stack = [start]
            size = 1
            odd = False
            while stack:
                node = stack.pop()
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen[nxt] = seen[node] ^ 1
                        size += 1
                        stack.append(nxt)
                    elif seen[nxt] == seen[node]:
                        odd = True
            rank += size - 1 + (1 if odd else 0)
        return rank


def r10_even_cycle_backend():
    """R10 as the even-cycle matroid of K5, an independent representation."""
    return EvenCycleMatroid(Multigraph(dict(enumerate(K5_EDGES))))


def r10_two_sum_tree():
    """Tree JSON of R10 2-summed with a second copy of R10: 18 elements, rank
    9, with no tight set, triad or triangle, so only the 2-sum route reduces
    it."""
    from baseswap.io import R10_LABELS

    return {
        "nodes": [
            {"id": side, "tag": "r10", "labels": ["t"] + [f"{side}{l}" for l in R10_LABELS[1:]]}
            for side in ("p", "q")
        ],
        "sums": [{"a": "p", "b": "q", "arity": 2, "shared": ["t"]}],
    }
