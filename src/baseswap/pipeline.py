"""End-to-end solver: reduction loop, structure resolution, lifting.

The engine strips uncovered and common elements, splits on tight sets, and
shrinks along triads (or triangles, through the dual); a graphic or
cographic leaf picks its tight set or triad at a low-degree vertex, and
its reductions form a chain that ``graphic.GraphChain`` runs in place on
one private graph (``_graph_chain``).  Irreducible instances go to the
2-/3-sum machinery of the structure, or to the exhaustive search fallback
for small ground sets (which solves R10 and F7).  The same search, monotone,
solves every frame of rank at most 2 whatever the cap: past the strips
such a frame has at most four elements.  Reductions run on an explicit
stack; only the sum routes, which call the engine on each side (a 3-sum's
graph side once per segment), add Python stack depth.  A caller's matroid
reaches the engine as the GF(2) matrix of its fundamental circuits
(``structure.as_structure``), while the entry rules
(``reductions.Instance.checked``) and the closing replay run on the
caller's matroid.
The strips run on the frames that are handed no tableaux, the root of each
engine call and the strips' own children: a tight split or a triad leaves
disjoint pairs that cover their ground sets.  Past the strips a cographic
leaf is solved on its graph, so every later frame is a graph or a GF(2)
matrix.  Then comes one tableau per basis of the two pairs; the searches
and fix-ups read them, and each reduction hands its children tableaux
derived from them, so they are built once per engine call and once more
where a cographic leaf is swapped.  A graph's chain hands back to the
stack only its splits' parallel pairs and the frame it ends on, the
identity or a frame of rank at most 2.  A frame's rank is the size of a basis
of its pair, so no frame asks the rank of its whole ground set.  A minor of
a sum node is a GF(2) matrix minor whose tree is built only where a sum
route or its refusal reads it.

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

from .matroid import Matroid, Gf2Matroid, GraphicMatroid, GroundSetError, _as_frozen
from .exchange import (
    BasisPair,
    ExchangeSequence,
    ExchangeStep,
    SequenceValidationError,
    apply_and_validate,
    bfs_oracle,
    check_reversal,
    UNREACHABLE,
)
from .reductions import (
    Instance,
    PairTableaux,
    TriadLift,
    _as_pair,
    delete_uncovered,
    contract_common,
    find_nontrivial_tight_set,
    find_triad,
    find_triangle,
    reduce_triad,
    split_on_tight_set,
)
from .graphic import GraphChain, vertex_span
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
    graphic_leaf,
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
    matroid ``m`` (a cographic root's replay on its graph); the engine runs
    on the structure's, which is the [I | A] image of a caller's matroid,
    and that image must keep the pair's bases."""
    struct = as_structure(source)
    m = source if isinstance(source, Matroid) else struct.matroid
    inst = Instance.checked(m, mode, x, y, forbidden, last)
    x, y = inst.x, inst.y
    image = struct.matroid
    if image is not m:
        if not all(map(image.is_basis, dict.fromkeys((x.first, x.second, y.first, y.second)))):
            raise GroundSetError(
                "the caller's matroid is not binary: its [I | A] image over GF(2) "
                "loses a basis of the pair"
            )
        inst = Instance(image, _as_pair(image, x), _as_pair(image, y), inst.forbidden)
    trace = TraceNode("solve", {"mode": mode})
    seq = ExchangeSequence(_engine(struct, inst, mode, last, cap, trace.children))
    cographic = isinstance(struct, Leaf) and struct.tag == "cographic"
    graph = GraphicMatroid(struct.graph) if cographic else None
    try:  # the closing replay (a cographic root's on its graph): a step it
        # rejects is a failed internal check
        final = apply_and_validate(x, seq, inst.forbidden, graph)
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
    instance, last, trace list, tableaux or None), so a chain of reductions
    adds no Python stack depth.  Each frame becomes a node of the reduction
    tree: a leaf's list of steps, or a ``_Node`` holding its reduction's lift
    data and its child nodes in the order the parent runs them; a graph
    frame's whole chain becomes a path of nodes at once (``_graph_chain``).
    Once every frame is done, ``_lift_forward`` emits the sequence in one
    pass."""
    root: list = [None]
    stack: list = [((struct, inst, last, out_trace, None), root, 0)]
    while stack:
        frame, slots, i = stack.pop()
        out = _reduce(*frame, mode, cap)
        if isinstance(out, tuple):  # a node, and its children's frames with their slots
            slots[i] = out[0]
            stack += reversed(out[1])
        else:
            slots[i] = out
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


def _reduce(struct, inst: Instance, last, out_trace: list, tableaux, mode: str, cap: int):
    """One step on a frame: its list of steps, or its node and its
    children's frames, each with the slot its node fills."""
    m = inst.matroid
    if inst.x.first == inst.y.first and inst.x.second == inst.y.second:
        out_trace.append(TraceNode("identity"))
        return []

    if tableaux is None:
        # strip uncovered and common elements.  A frame handed tableaux is
        # a child of a tight split or a triad, whose pairs are disjoint and
        # cover its ground set already
        for fn in (delete_uncovered, contract_common):
            record: list = []
            red = fn(inst, minor=_recording_factory(struct, record))
            if red is not None:
                return _one_child(red, record[0], last, out_trace)

    if isinstance(struct, Leaf) and struct.tag == "cographic":
        # the pair is disjoint and covering here, so X1 - e + f is a basis
        # of M* exactly when its complement X2 - f + e is a basis of M: the
        # graph is solved as a graphic leaf on the same pairs, with the same
        # steps.  Tableaux handed down from a sum are those of the dual, so
        # the new frame builds its own
        struct = graphic_leaf(struct.graph)
        m = struct.matroid
        inst = Instance(m, _as_pair(m, inst.x), _as_pair(m, inst.y), inst.forbidden)
        tableaux = None

    if len(inst.x.first) <= 2:  # the rank, read from a basis
        # past the strips the pairs are disjoint and cover the frame, so it
        # has at most four elements; the search cap never refuses it
        out_trace.append(TraceNode("rank_le2"))
        return _bfs_solve(m, inst, True, last, len(m.ground))

    tableaux = tableaux or PairTableaux.of(inst)
    if isinstance(struct, Leaf) and struct.graph is not None:
        # minors never widen F's vertex span: only a solve's first graph
        # frame can fail this
        if len(vertex_span(struct.graph, inst.forbidden)) > 3:
            raise GroundSetError("forbidden edges span more than three vertices")
        return _graph_chain(GraphChain(struct.graph, inst, last, tableaux), out_trace)

    z = find_nontrivial_tight_set(m, inst.x, tableaux.x)
    if z is not None:
        restrict_last = last is not None and last in z
        record = []
        red = split_on_tight_set(
            inst, z, minor=_recording_factory(struct, record), restrict_last=restrict_last,
            tableaux=tableaux,
        )
        node = TraceNode(red.certificate.kind, dict(red.certificate.payload))
        out_trace.append(node)
        frames = []
        for child_struct, child, tabs in zip(record, red.children, red.tableaux):
            child_last = last if (last is not None and last in child.matroid.ground) else None
            wrapper = TraceNode("child")
            node.children.append(wrapper)
            frames.append((child_struct, child, child_last, wrapper.children, tabs))
        return _tree(red, frames)

    # a frame without a graph is a GF(2) matrix.  A triad or triangle holding
    # an element of F or the designated last element cannot be reduced
    cover = m.ground - inst.forbidden - {last}
    triad, dual = find_triad(m, cover, tableaux.x[0]), False
    if triad is None:
        triad, dual = find_triangle(m, cover), True
    if triad is not None:
        record = []
        red = reduce_triad(
            inst, triad, minor=_recording_factory(struct, record), tableaux=tableaux, dual=dual
        )
        extra = {"dualized": True} if dual else {}
        return _one_child(red, record[0], last, out_trace, **extra)

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


def _one_child(red, child_struct, last, out_trace: list, **extra):
    """Trace a one-child reduction and hand its child on as a frame."""
    node = TraceNode(red.certificate.kind, {**red.certificate.payload, **extra})
    out_trace.append(node)
    child_tableaux = red.tableaux[0] if red.tableaux else None
    return _tree(red, [(child_struct, red.children[0], last, node.children, child_tableaux)])


def _tree(red, frames: list) -> tuple:
    """A reduction's node, and its children's frames, each with the slot
    its node fills (in the order the parent runs them)."""
    kids = [None] * len(frames)
    return _Node(red.triad, kids), [(f, kids, red.order.index(k)) for k, f in enumerate(frames)]


def _graph_chain(chain: GraphChain, out_trace: list) -> tuple:
    """Run a graph frame's chain of reductions in place (``GraphChain``):
    the path of nodes from its first frame, and the frames it hands back,
    each split's parallel pair and the frame the chain ends on, with their
    slots.  Trace nodes and certificates are those of the generic
    reductions."""
    root: list = [None]
    slots, at, frames = root, 0, []
    while True:
        kind, level = chain.reduce()
        if kind == "tight_split":
            z, restrict_last, (struct, inst, last, tabs) = level
            node = TraceNode(kind, {"z": z, "restrict_last": restrict_last})
            inner, outer = TraceNode("child"), TraceNode("child")
            node.children += (inner, outer)
            kids, lift, trace = [None, None], None, inner.children
            kids_at = (1, 0) if restrict_last else (0, 1)  # the chain's, the pair's
            frames.append(((struct, inst, last, outer.children, tabs), kids, kids_at[1]))
        else:
            payload, lift = level
            node = TraceNode(kind, payload)
            kids, kids_at, trace = [None], (0,), node.children
        out_trace.append(node)
        slots[at] = _Node(lift, kids)
        slots, at, out_trace = kids, kids_at[0], trace
        if chain.done():
            struct, inst, last, tabs = chain.frame()
            frames.append(((struct, inst, last, out_trace, tabs), slots, at))
            return root[0], frames


def _recording_factory(struct, record: list):
    def factory(m, contract=(), delete=(), parallel=None):
        if parallel is None:
            sub = _frame_minor(struct, m, _as_frozen(contract), _as_frozen(delete))
        else:
            # a parallel pair, built directly (``Matroid.parallel_pair``)
            sub = as_structure(m.parallel_pair(*parallel))
        record.append(sub)
        return sub.matroid

    return factory


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
