"""End-to-end solver: reduction loop, structure resolution, lifting.

The engine strips uncovered and common elements (``_strip``), then runs a
frame's chain of reductions in place (``_chain``): it splits on tight sets
and shrinks along triads (or triangles, through the dual), with the pair
bookkeeping of both written once (``reductions.Chain``).  A graphic or
cographic leaf picks its tight set or triad at a low-degree vertex and
takes each minor in one private graph (``graphic.GraphChain``); any other
frame is a GF(2) matrix, which picks by the tight-set, triad and triangle
searches and takes each minor of its structure (``MatrixChain``,
``_frame_minor``).  A GF(2) chain ends where a minor becomes a graph or
cographic leaf, which the engine then solves on its graph.  A frame no
chain can reduce goes to the 2-/3-sum machinery of the structure, or to the
exhaustive search fallback for small ground sets (which solves R10 and F7).
The same search, monotone, solves every frame of rank at most 2 whatever
the cap: past the strips such a frame has at most four elements.  Frames
run on an explicit stack; only the sum routes, which call the engine on
each side (a 3-sum's graph side once per segment), add Python stack depth.
A caller's matroid reaches the engine as the GF(2) matrix of its
fundamental circuits (``structure.as_structure``), while the entry rules
(``reductions.Instance.checked``) and the closing replay run on the
caller's matroid.  A GF(2) matrix with at most two 1s per column is read at
the root as the graph it is the incidence matrix of
(``graphic.incidence_leaf``), and solved on it where F allows.

The strips run on the frames that are handed no pairs, the root of each
engine call: a tight split or a triad leaves disjoint pairs that cover
their ground sets.  Past the strips a cographic leaf is solved on its
graph, so every later frame is a graph or a GF(2) matrix.  Then a GF(2)
frame takes one tableau per basis of the two pairs, and a graph one rooted
spanning forest per basis, numbered over its chain's vertices; one class
carries either (``reductions.Pairs``), the searches and fix-ups read them,
and each reduction updates them in place.  A GF(2) chain's tableaux are
built once per engine call; a graph frame builds its own forests, so a
graph solve builds no tableau.  A chain hands back to the stack only its splits' other
sides and the frame it ends on.  A frame's rank is the size of a basis of
its pair, so no frame asks the rank of its whole ground set.  A minor of a
sum node is a GF(2) matrix minor whose tree is built only where a sum route
or its refusal reads it.

The frames build a tree of reductions, each with its lift as data, and one
forward pass over the tree emits the sequence (``_lift_forward``): a step
is examined once on its way out and once per triad that replaces it,
rather than once per level above it.  Reductions are recorded as
certificates so a solve can be replayed; the report carries the
width/length guarantees for the mode.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

from .matroid import Matroid, Gf2Matroid, GroundSetError
from .exchange import (
    BasisPair,
    ExchangeSequence,
    ExchangeStep,
    SequenceValidationError,
    apply_and_validate,
    bfs_oracle,
    check_reversal,
    compatible,
    UNREACHABLE,
)
from .reductions import (
    Chain,
    Instance,
    IncompatiblePairsError,
    Pairs,
    TriadLift,
    _as_pair,
    find_nontrivial_tight_set,
    find_triad,
    find_triangle,
)
from .graphic import GraphChain, incidence_leaf, vertex_span
from .sums import (
    ThreeSumContext,
    TwoSumContext,
    merge_two_sum,
    split_two_sum_pair,
    three_sum_gabow,
    three_sum_white,
    SumStructureError,
)
from .structure import (
    Leaf,
    SumNode,
    as_structure,
    collapse_one_sums,
    gf2_leaf,
    structure_minor,
    structure_minors,
)


class UnsupportedStructureError(Exception):
    """The instance resists every reduction and known structure route."""


@dataclass
class TraceNode:
    kind: str
    payload: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def flatten(self) -> list:
        """This node and its descendants in pre-order."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out


@dataclass
class SolveReport:
    sequence: ExchangeSequence
    rank: int
    mode: str
    bound_length: int
    bound_width: int
    trace: TraceNode

    @property
    def length(self) -> int:
        return self.sequence.length

    @property
    def width(self) -> int:
        return self.sequence.width

    @property
    def certificates(self) -> list:
        return [n for n in self.trace.flatten() if n.kind in _REDUCTION_KINDS]


_REDUCTION_KINDS = {"delete_uncovered", "contract_common", "tight_split", "triad"}


def _bounds(mode: str, rank: int, struct):
    c = 1 if isinstance(struct, Leaf) and struct.tag in ("graphic", "cographic") else 2
    if mode == "gabow":
        length = rank
    else:
        length = max(rank, c * rank * rank)
    width = max(1, 2 * c * (rank - 1)) if rank else 0
    return length, width


def solve_white(source, x, y, forbidden=(), bfs_cap: int = 16) -> SolveReport:
    """Transform pair x into pair y; length <= c r^2, width <= 2c(r-1)
    with c = 1 for graphic or cographic inputs and c = 2 otherwise."""
    return _solve(source, "white", x, y, forbidden, None, bfs_cap)


def solve_gabow(source, x, last=None, bfs_cap: int = 16) -> SolveReport:
    """Reverse a disjoint pair in exactly r strictly monotone exchanges."""
    return _solve(source, "gabow", x, None, (), last, bfs_cap)


def _solve(source, mode: str, x, y, forbidden, last, cap: int) -> SolveReport:
    """The root of a solve in either mode.  The entry rules
    (``Instance.checked``) and the closing replay run on the caller's
    matroid ``m``; the engine runs on the structure's, which is the [I | A]
    image of a caller's matroid, and that image must keep the pair's
    bases.  A GF(2) leaf whose every column has at most two 1s is its graph
    (``graphic.incidence_leaf``): the entry rules and the closing replay
    read that graph's forests, and the engine solves on it, traced as
    ``graph``, when F spans at most three of its vertices (otherwise the
    matrix's chain runs as for any other matrix).  The bounds are those of
    the structure given."""
    struct = as_structure(source)
    m = source if isinstance(source, Matroid) else struct.matroid
    foreign = m is not struct.matroid  # a caller's matroid
    graph = incidence_leaf(struct)
    if graph is not None and not foreign:
        m = graph.matroid
    inst = Instance.checked(m, mode, x, y, forbidden, last)
    x, y = inst.x, inst.y
    trace = TraceNode("solve", {"mode": mode})
    engine = struct
    if graph is not None and len(vertex_span(graph.graph, inst.forbidden)) <= 3:
        engine = graph
        trace.payload["graph"] = True
    image = engine.matroid
    if image is not m:
        bases = dict.fromkeys((x.first, x.second, y.first, y.second))
        if foreign and not all(map(image.is_basis, bases)):
            raise GroundSetError(
                "the caller's matroid is not binary: its [I | A] image over GF(2) "
                "loses a basis of the pair"
            )
        inst = Instance(image, _as_pair(image, x), _as_pair(image, y), inst.forbidden)
    seq = ExchangeSequence(_engine(engine, inst, mode, last, cap, trace.children))
    try:  # the closing replay: a step it rejects is a failed internal check
        final = apply_and_validate(x, seq, inst.forbidden)
    except SequenceValidationError as err:
        raise AssertionError(f"the closing replay failed: {err}") from None
    if mode == "gabow":
        try:
            check_reversal(x, seq, last)
        except SequenceValidationError as err:
            raise AssertionError(f"the sequence is not a reversal: {err}") from None
    elif not (final.first == y.first and final.second == y.second):
        raise AssertionError("the sequence does not end on the target pair")
    bl, bw = _bounds(mode, m.full_rank, struct)
    if not (seq.length <= bl and seq.width <= bw):
        raise AssertionError("solver exceeded its bounds")
    return SolveReport(seq, m.full_rank, mode, bl, bw, trace)


# -- the engine ----------------------------------------------------------------


def _engine(struct, inst: Instance, mode: str, last, cap: int, out_trace: list):
    """Solve an instance on an explicit stack of frames (structure,
    instance, last, trace list, pairs or None), so a chain of reductions
    adds no Python stack depth.  Each frame becomes a node of the reduction
    tree: a leaf's list of steps, or a ``_Node`` holding its reduction's lift
    data and its child nodes in the order the parent runs them; a frame's
    whole chain becomes a path of nodes at once (``_chain``).  Once every
    frame is done, ``_lift_forward`` emits the sequence in one pass."""
    root: list = [None]
    stack: list = [((struct, inst, last, out_trace, None), root, 0)]
    while stack:
        frame, slots, i = stack.pop()
        slots[i], frames = _reduce(*frame, mode, cap)
        stack += reversed(frames)
    return _lift_forward(root[0], inst.x)


class _Node(NamedTuple):
    """A reduction in the tree: its triad's lift (None for a strip or a
    tight split) and its children's nodes, in the order the parent runs
    them."""

    triad: Optional[TriadLift]
    children: list


_STEP, _NODE, _EXIT = "step", "node", "exit"  # the forward pass's work items


def _lift_forward(root, x: BasisPair) -> list:
    """The steps of the reduction tree ``root`` from the pair ``x``, in one
    walk on an explicit stack.

    Steps travel in the root's orientation; a node's ``parity`` says whether
    its pairs are swapped against the root's.  A step of a leaf, or of a
    triad's fix-ups or replacements, goes to the nearest enclosing triad
    whose t1 it uses, found by bisecting that element's list of the depths
    of the enclosing triads with it as t1.  That triad replaces it by two
    steps with one independence test, read off the child's current pair:
    the pair reached so far, restricted to the child's ground set (only the
    side the query reads), since only the child's own steps (lifted) have
    moved elements of that set.  A step that reaches no triad is emitted and
    moves the pair.  So each step is examined once, plus once per
    replacement."""
    out = []
    first, second = set(x.first), set(x.second)
    chain = []  # the enclosing triads, outermost first: (lift, child parity)
    levels: dict = {}  # t1 -> depths in ``chain`` of the triads with it as t1
    work = [(_NODE, root, 0)]
    while work:
        item = work.pop()
        tag = item[0]
        if tag is _STEP:
            _, a, b, depth = item
            k = _nearest_triad(levels, a, b, depth)
            if k < 0:
                out.append(ExchangeStep(a, b))
                first.discard(a)
                first.add(b)
                second.discard(b)
                second.add(a)
                continue
            lift, parity = chain[k]
            if parity:
                s1, s2 = lift.replace(b, a, second, first)
            else:
                s1, s2 = lift.replace(a, b, first, second)
            work += ((_STEP, *_oriented(s2, parity), k), (_STEP, *_oriented(s1, parity), k))
        elif tag is _NODE:
            _, node, parity = item
            depth = len(chain)
            if not isinstance(node, _Node):  # a leaf's steps, in its orientation
                if parity:
                    work += ((_STEP, f, e, depth) for e, f in reversed(node))
                else:
                    work += ((_STEP, e, f, depth) for e, f in reversed(node))
            elif node.triad is None:
                work += ((_NODE, child, parity) for child in reversed(node.children))
            else:
                lift = node.triad
                chain.append((lift, parity ^ lift.swapped))
                levels.setdefault(lift.t1, []).append(depth)
                (child,) = node.children
                if lift.suffix:
                    work.append((_STEP, *_oriented(lift.suffix, parity), depth))
                work += ((_EXIT,), (_NODE, child, parity ^ lift.swapped))
                if lift.prefix:
                    work.append((_STEP, *_oriented(lift.prefix, parity), depth))
        else:  # leaving the innermost triad
            lift, _ = chain.pop()
            levels[lift.t1].pop()
    return out


def _nearest_triad(levels: dict, a, b, depth: int) -> int:
    """The depth of the innermost triad above ``depth`` whose t1 is a or
    b, or -1: the forward pass examines each step through this once."""
    k = -1
    for elt in (a, b):
        found = levels.get(elt)
        if found:
            at = bisect_left(found, depth)
            if at and found[at - 1] > k:
                k = found[at - 1]
    return k


def _oriented(step, parity) -> tuple:
    e, f = step
    return (f, e) if parity else (e, f)


def _reduce(struct, inst: Instance, last, out_trace: list, pairs, mode: str, cap: int):
    """One frame: its node (a leaf's list of steps), and the frames it hands
    back, each with the slot its node fills.  Past the strips the pairs are
    disjoint and cover the frame, so X1 - e + f is a basis of a cographic
    leaf's M*(G) exactly when its complement X2 - f + e is one of M(G): the
    leaf's graph and instance are solved as they stand, with the same
    steps, by the graph chain or, at rank <= 2, by the search on its own
    matrix."""
    if inst.x.first == inst.y.first and inst.x.second == inst.y.second:
        out_trace.append(TraceNode("identity"))
        return [], []

    if pairs is None:
        # a frame handed pairs comes from a chain, whose pairs are disjoint
        # and cover its ground set already
        struct, inst, out_trace = _strip(struct, inst, out_trace)

    m = inst.matroid
    if len(inst.x.first) <= 2:  # the rank, read from a basis
        # past the strips the pairs are disjoint and cover the frame, so it
        # has at most four elements; the search cap never refuses it
        out_trace.append(TraceNode("rank_le2"))
        return _bfs_solve(m, inst, True, last, len(m.ground)), []

    if isinstance(struct, Leaf) and struct.graph is not None:
        # a graphic or cographic leaf.  Minors never widen F's vertex span:
        # only a solve's first graph frame can fail this.  The chain builds
        # its own forests: tableaux handed down by a GF(2) chain are not read
        if len(vertex_span(struct.graph, inst.forbidden)) > 3:
            raise GroundSetError("forbidden edges span more than three vertices")
        return _chain(GraphChain(struct.graph, inst, last), out_trace, mode, cap)
    chain = MatrixChain(struct, inst, last, pairs or Pairs.of(inst))
    return _chain(chain, out_trace, mode, cap)


def _strip(struct, inst: Instance, out_trace: list) -> tuple:
    """Restrict the frame to the union of the bases, whose other elements
    never move, then contract X1 ∩ X2 (= Y1 ∩ Y2 for compatible pairs),
    which no step moves either: the steps are unchanged.  Each strip that
    removes something is traced, and its minor's structure comes from
    ``_frame_minor``.  Returns the structure, instance and trace list of
    the frame left."""
    x, y = inst.x, inst.y
    if not compatible(x, y):
        raise IncompatiblePairsError("pairs are not compatible")
    empty = frozenset()
    for kind, key, c, d in (
        ("delete_uncovered", "removed", empty, inst.matroid.ground - x.union),
        ("contract_common", "contracted", x.common, empty),
    ):
        if c or d:
            struct = _frame_minor(struct, inst.matroid, c, d)
            m = struct.matroid
            inst = Instance(
                m,
                BasisPair(x.first - c, x.second - c, m),
                BasisPair(y.first - c, y.second - c, m),
                inst.forbidden - c,
            )
            node = TraceNode(kind, {key: c | d})
            out_trace.append(node)
            out_trace = node.children
    return struct, inst, out_trace


def _chain(chain: Chain, out_trace: list, mode: str, cap: int) -> tuple:
    """Run a frame's chain of reductions in place: the path of nodes from
    its first level, and the frames it hands back, each split's other side
    and the frame the chain ends on, with their slots.  A frame the chain
    cannot reduce is solved where it stands (``_irreducible``)."""
    root: list = [None]
    slots, at, frames = root, 0, []
    while True:
        level = chain.reduce()
        if level is None:
            struct, inst, last, _ = chain.frame()
            slots[at] = _irreducible(struct, inst, last, out_trace, mode, cap)
            return root[0], frames
        kind, out = level
        if kind == "tight_split":
            z, restrict_last, (struct, inst, last, pairs) = out
            node = TraceNode(kind, {"z": z, "restrict_last": restrict_last})
            inner, outer = TraceNode("child"), TraceNode("child")
            node.children += (inner, outer)
            kids, lift, trace = [None, None], None, inner.children
            kids_at = (1, 0) if restrict_last else (0, 1)  # the chain's, the other side's
            frames.append(((struct, inst, last, outer.children, pairs), kids, kids_at[1]))
        else:
            payload, lift = out
            node = TraceNode(kind, payload)
            kids, kids_at, trace = [None], (0,), node.children
        out_trace.append(node)
        slots[at] = _Node(lift, kids)
        slots, at, out_trace = kids, kids_at[0], trace
        if chain.done():
            struct, inst, last, pairs = chain.frame()
            frames.append(((struct, inst, last, out_trace, pairs), slots, at))
            return root[0], frames


class MatrixChain(Chain):
    """A GF(2) frame's chain of reductions: each level takes the first of a
    nontrivial tight set, a triad and a triangle that the searches find,
    and its minors of the frame's structure (``_frame_minor``).  A triad or
    triangle holding an element of F or the designated last element cannot
    be reduced.  The chain is also done when a minor is a graph or
    cographic leaf, which the engine solves on its graph."""

    __slots__ = ("struct",)

    def __init__(self, struct, inst: Instance, last, tableaux: Pairs):
        super().__init__(inst, last, tableaux)
        self.struct = struct

    def done(self) -> bool:
        struct = self.struct
        return super().done() or (isinstance(struct, Leaf) and struct.graph is not None)

    def frame(self) -> tuple:
        return self.struct, self._instance(self.struct.matroid), self.last, self.pairs

    def reduce(self):
        m, tabs = self.struct.matroid, self.pairs.x
        x = BasisPair(tabs[0].cocircuits.keys(), tabs[1].cocircuits.keys())
        z = find_nontrivial_tight_set(m, x, tabs)
        if z is not None:
            return "tight_split", self.split(m.ground - z)
        cover = m.ground - self.forbidden - {self.last}
        triad = find_triad(m, cover, tabs[0])
        if triad is not None:
            return "triad", self.shrink(triad)
        triangle = find_triangle(m, cover)
        if triangle is not None:
            return "triad", self.shrink(triangle, dual=True)
        return None

    def _cut(self, outside) -> tuple:
        """M / z and z; the chain goes on in M | z.  With two elements
        outside z, M / z has rank 1 and neither is a loop: a parallel pair,
        built without contracting z."""
        struct, m = self.struct, self.struct.matroid
        z = m.ground - outside
        self.struct = _frame_minor(struct, m, frozenset(), outside)
        if len(outside) == 2:
            return gf2_leaf(Gf2Matroid(dict.fromkeys(sorted(outside), 1))), z
        return _frame_minor(struct, m, z, frozenset()), z

    def _minor(self, contract, delete) -> Gf2Matroid:
        m = self.struct.matroid
        self.struct = _frame_minor(self.struct, m, frozenset({contract}), frozenset({delete}))
        return m


def _irreducible(struct, inst: Instance, last, out_trace: list, mode: str, cap: int) -> list:
    """The steps of a frame no reduction applies to: a 2-/3-sum route of
    its structure, else the exhaustive search up to the cap."""
    m = inst.matroid
    routable = not inst.forbidden and last is None
    if isinstance(struct, _Pending) and (routable or len(m.ground) > cap):
        struct = structure_minors(*struct[:3])  # the route or the refusal reads the tree
    if isinstance(struct, SumNode):
        if routable:
            routed = _sum_route(struct, inst, mode, cap, out_trace)
            if routed is not None:
                return routed
        elif len(m.ground) > cap:
            raise UnsupportedStructureError(
                f"irreducible {struct.spec.arity}-sum on {len(m.ground)} elements: the "
                "2-/3-sum routes take no forbidden set or designated last element, and "
                f"the instance exceeds the search cap {cap}"
            )

    if len(m.ground) <= cap:
        out_trace.append(TraceNode("bfs", {"cap": cap}))
        return _bfs_solve(m, inst, mode == "gabow", last, cap)

    raise UnsupportedStructureError(
        f"irreducible instance on {len(m.ground)} elements has no known structure "
        f"and exceeds the search cap {cap}"
    )


class _Pending(NamedTuple):
    """A minor of a sum node whose tree is not built: the node, each level's
    (contract, delete) in order, the elements they remove, and the frame's
    GF(2) matrix minor.  ``structure_minors`` builds the tree where read."""

    node: SumNode
    minors: tuple
    gone: frozenset
    matroid: Gf2Matroid


def _frame_minor(struct, m: Matroid, c: frozenset, d: frozenset):
    """The structure of the frame minor m / c \\ d.  A leaf's minor is
    pushed into the leaf; a sum node's is left pending, except that a 1-sum
    whose side the minors empty becomes its other side at once, so a graph
    side takes the graph route."""
    if isinstance(struct, Leaf):
        return structure_minor(struct, c, d)
    node, minors, gone = (struct, (), frozenset()) if isinstance(struct, SumNode) else struct[:3]
    minors, gone = minors + ((c, d),), gone | c | d
    node = collapse_one_sums(node, gone)
    if isinstance(node, Leaf):
        return structure_minors(node, minors, gone)
    return _Pending(node, minors, gone, m.minor(contract=c, delete=d))


def _bfs_solve(m: Matroid, inst: Instance, monotone: bool, last, cap: int):
    """The exhaustive search on a frame of at most ``cap`` elements: its
    steps, monotone when asked (a designated last element implies it)."""
    if last is not None:
        return _bfs_with_last(m, inst, last, cap)
    result = bfs_oracle(m, inst.x, inst.y, inst.forbidden, monotone=monotone, cap=cap)
    if result == UNREACHABLE:
        raise UnsupportedStructureError("exhaustive search found no sequence")
    return list(result.sequence)


def _bfs_with_last(m: Matroid, inst: Instance, last, cap: int):
    """Monotone reversal finishing on a designated element: search to a
    predecessor of the target and append the final step.  A predecessor
    takes e from y.second - y.first and f from y.first - y.second, so its
    members have r elements each and the final step leads to y itself."""
    y = inst.y
    for e in sorted(y.second - y.first):
        for f in sorted(y.first - y.second):
            if last not in (e, f):
                continue
            prev = BasisPair(y.first - {f} | {e}, y.second - {e} | {f}, m)
            if not (m.is_independent(prev.first) and m.is_independent(prev.second)):
                continue
            res = bfs_oracle(m, inst.x, prev, inst.forbidden, monotone=True, cap=cap)
            if res != UNREACHABLE and res.distance == len(inst.x.first - y.first) - 1:
                return list(res.sequence) + [ExchangeStep(e, f)]
    raise UnsupportedStructureError("no monotone sequence ends on the designated element")


# -- sum routes ----------------------------------------------------------------


def _sum_route(struct: SumNode, inst: Instance, mode: str, cap: int, out_trace: list):
    if struct.spec.arity == 1:
        # covered disjoint pairs always make one side tight, so the tight
        # split above handles 1-sums; nothing extra to do here
        return None
    if struct.spec.arity == 2:
        return _two_sum_route(struct, inst, mode, cap, out_trace)
    return _three_sum_route(struct, inst, mode, cap, out_trace)


def _two_sum_route(struct: SumNode, inst: Instance, mode: str, cap: int, out_trace: list):
    (t,) = struct.spec.shared
    circ, bullet = struct.left, struct.right
    try:
        x_circ, x_bullet = split_two_sum_pair(circ.matroid, bullet.matroid, t, inst.x)
        y_circ, y_bullet = split_two_sum_pair(circ.matroid, bullet.matroid, t, inst.y)
    except SumStructureError:
        return None
    ctx = TwoSumContext(circ.matroid, bullet.matroid, t, y_circ, y_bullet)
    node = TraceNode("two_sum", {"t": t})
    out_trace.append(node)
    seqs = []
    for side, sx, sy in ((circ, x_circ, y_circ), (bullet, x_bullet, y_bullet)):
        sub_inst = Instance(side.matroid, sx, sy)
        seqs.append(_engine(side, sub_inst, mode, None, cap, node.children))
    return merge_two_sum(seqs[0], seqs[1], ctx)


def _three_sum_route(struct: SumNode, inst: Instance, mode: str, cap: int, out_trace: list):
    for bullet, circ in ((struct.right, struct.left), (struct.left, struct.right)):
        if not (isinstance(bullet, Leaf) and bullet.tag == "graphic" and bullet.graph):
            continue
        # the bullet must be a simple 4-regular graph
        ends = [frozenset(uv) for uv in bullet.graph.edges.values()]
        degrees = set(bullet.graph.degree().values())
        if degrees - {4} or len(set(ends)) < len(ends) or any(len(uv) < 2 for uv in ends):
            continue

        ctx = ThreeSumContext(struct.matroid, circ.matroid, bullet.matroid, struct.spec.shared)
        node = TraceNode("three_sum", {"shared": struct.spec.shared})
        out_trace.append(node)

        def solve(side, x_sets, y_sets=None, forbidden=frozenset(), last=None):
            # the engine on a side under this route's node; a reversal has no
            # y.  The 3-sum's replay and the root's closing replay check it
            x_pair = _as_pair(side.matroid, x_sets)
            y_pair = x_pair.swapped() if y_sets is None else _as_pair(side.matroid, y_sets)
            sub_inst = Instance(side.matroid, x_pair, y_pair, forbidden)
            return _engine(side, sub_inst, mode, last, cap, node.children)

        def recurse(contract_elt, x_sets, y_sets=None):
            # the contracted circ side
            sub = _frame_minor(circ, circ.matroid, frozenset({contract_elt}), frozenset())
            return solve(sub, x_sets, y_sets)

        if mode == "white":
            return list(three_sum_white(ctx, inst.x, inst.y, partial(solve, bullet), recurse))
        return list(three_sum_gabow(ctx, inst.x, partial(solve, bullet), recurse))
    return None
