"""End-to-end solver: reduction loop, structure resolution, recursion, lifting.

The engine repeatedly strips uncovered and common elements, splits on tight
sets, and shrinks along triads (or triangles, through the dual); irreducible
instances are routed to the graphic solver, the 2-/3-sum machinery of the
structure, or the exhaustive search fallback for small ground sets (which
solves R10 and F7).  Reductions are recorded as certificates so a solve can
be replayed; the report carries the width/length guarantees for the mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .matroid import Matroid, Gf2Matroid, _as_frozen
from .exchange import (
    BasisPair,
    ExchangeSequence,
    ExchangeStep,
    SequenceValidationError,
    apply_and_validate,
    bfs_oracle,
    check_reversal,
    is_valid_exchange,
    UNREACHABLE,
)
from .reductions import (
    Instance,
    IncompatiblePairsError,
    ReductionError,
    delete_uncovered,
    contract_common,
    find_nontrivial_tight_set,
    find_triad,
    find_triangle,
    reduce_triad,
    solve_rank_le2,
    split_on_tight_set,
)
from .graphic import solve_graphic_white, solve_graphic_gabow
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
    find_triad_fast,
    find_triangle_fast,
    structure_minor,
)


class UnsupportedStructureError(Exception):
    """The instance resists every reduction and known structure route."""


@dataclass
class TraceNode:
    kind: str
    payload: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def flatten(self) -> list:
        out = [self]
        for child in self.children:
            out.extend(child.flatten())
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


def _bounds(mode: str, rank: int, graphic_run: bool):
    c = 1 if graphic_run else 2
    if mode == "gabow":
        length = rank
    else:
        length = max(rank, c * rank * rank)
    width = max(1, 2 * c * (rank - 1)) if rank else 0
    return length, width


def _pair_summary(inst: Instance) -> dict:
    return {
        "ground": frozenset(inst.matroid.ground),
        "x": (inst.x.first, inst.x.second),
        "y": (inst.y.first, inst.y.second),
        "forbidden": inst.forbidden,
    }


def _as_pair(m: Matroid, pair) -> BasisPair:
    if isinstance(pair, BasisPair):
        return BasisPair(pair.first, pair.second, m)
    first, second = pair
    return BasisPair(_as_frozen(first), _as_frozen(second), m)


def solve_white(source, x, y, forbidden=(), bfs_cap: int = 16) -> SolveReport:
    """Transform pair x into pair y; length <= c r^2, width <= 2c(r-1)
    with c = 1 for graphic or cographic inputs and c = 2 otherwise."""
    struct = as_structure(source)
    m = struct.matroid
    x = _as_pair(m, x)
    y = _as_pair(m, y)
    inst = Instance(m, x, y, _as_frozen(forbidden))
    inst.validate()
    trace = TraceNode("solve", {"mode": "white"})
    steps = _engine(struct, inst, "white", None, bfs_cap, trace.children)
    seq = ExchangeSequence(steps)
    final = apply_and_validate(x, seq, inst.forbidden)
    if not (final.first == y.first and final.second == y.second):
        raise AssertionError("the sequence does not end on the target pair")
    graphic_run = isinstance(struct, Leaf) and struct.tag in ("graphic", "cographic")
    bl, bw = _bounds("white", m.full_rank, graphic_run)
    if not (seq.length <= bl and seq.width <= bw):
        raise AssertionError("solver exceeded its bounds")
    return SolveReport(seq, m.full_rank, "white", bl, bw, trace)


def solve_gabow(source, x, last=None, bfs_cap: int = 16) -> SolveReport:
    """Reverse a disjoint pair in exactly r strictly monotone exchanges."""
    struct = as_structure(source)
    m = struct.matroid
    x = _as_pair(m, x)
    if x.first & x.second:
        raise IncompatiblePairsError("reversal needs disjoint bases")
    if last is not None and last not in x.union:
        raise ReductionError("designated last element must lie in one of the bases")
    y = x.swapped()
    inst = Instance(m, x, y)
    inst.validate()
    trace = TraceNode("solve", {"mode": "gabow"})
    steps = _engine(struct, inst, "gabow", last, bfs_cap, trace.children)
    seq = ExchangeSequence(steps)
    apply_and_validate(x, seq)
    try:
        check_reversal(x, seq, last)
    except SequenceValidationError as err:
        raise AssertionError(f"the sequence is not a reversal: {err}") from None
    r = m.full_rank
    graphic_run = isinstance(struct, Leaf) and struct.tag in ("graphic", "cographic")
    bl, bw = _bounds("gabow", r, graphic_run)
    return SolveReport(seq, r, "gabow", bl, bw, trace)


# -- the engine ----------------------------------------------------------------


def _engine(struct, inst: Instance, mode: str, last, cap: int, out_trace: list):
    m = inst.matroid
    if inst.x.first == inst.y.first and inst.x.second == inst.y.second:
        out_trace.append(TraceNode("identity"))
        return []

    # strip uncovered and common elements
    for fn, kind in ((delete_uncovered, "delete_uncovered"), (contract_common, "contract_common")):
        record: list = []
        red = fn(inst, minor=_recording_factory(struct, record))
        if red is not None:
            child_struct = record[0]
            node = TraceNode(kind, dict(red.certificate.payload))
            node.payload["child"] = _pair_summary(red.children[0])
            out_trace.append(node)
            steps = _engine(child_struct, red.children[0], mode, last, cap, node.children)
            return red.lift(steps)

    if m.full_rank <= 2:
        out_trace.append(TraceNode("rank_le2"))
        return list(solve_rank_le2(inst, h=last))

    # graphic or cographic leaves go straight to the graph solver; pairs are
    # disjoint covering here, so the dual view solves identically
    if isinstance(struct, Leaf) and struct.tag in ("graphic", "cographic") and struct.graph is not None:
        out_trace.append(TraceNode(struct.tag))
        if mode == "gabow":
            h = last if last is not None else min(inst.x.union)
            return list(solve_graphic_gabow(struct.graph, inst.x, h))
        return list(solve_graphic_white(struct.graph, inst.x, inst.y, inst.forbidden))

    z = find_nontrivial_tight_set(m, BasisPair(inst.x.first, inst.x.second))
    if z is not None:
        restrict_last = last is not None and last in z
        record = []
        red = split_on_tight_set(
            inst, z, minor=_recording_factory(struct, record), restrict_last=restrict_last
        )
        node = TraceNode(
            "tight_split",
            {"z": z, "restrict_last": restrict_last,
             "child": [_pair_summary(c) for c in red.children]},
        )
        out_trace.append(node)
        seqs = []
        for child_struct, child in zip(record, red.children):
            child_last = last if (last is not None and last in child.matroid.ground) else None
            wrapper = TraceNode("child")
            node.children.append(wrapper)
            seqs.append(_engine(child_struct, child, mode, child_last, cap, wrapper.children))
        return red.lift(*seqs)

    # a triad or triangle holding an element of F or the designated last
    # element cannot be reduced; the fast finders need an explicit matrix
    cover = m.ground - inst.forbidden - {last}
    fast = isinstance(m, Gf2Matroid)
    triad = find_triad_fast(m, cover) if fast else find_triad(m, cover)
    if triad is not None:
        record = []
        red = reduce_triad(inst, triad, minor=_recording_factory(struct, record))
        node = TraceNode("triad", dict(red.certificate.payload))
        node.payload["child"] = _pair_summary(red.children[0])
        out_trace.append(node)
        steps = _engine(record[0], red.children[0], mode, last, cap, node.children)
        return red.lift(steps)

    triangle = find_triangle_fast(m, cover) if fast else find_triangle(m, cover)
    if triangle is not None:
        dual_m = m.dual()
        dual_inst = Instance(
            dual_m,
            BasisPair(inst.x.first, inst.x.second, dual_m),
            BasisPair(inst.y.first, inst.y.second, dual_m),
            inst.forbidden,
        )
        record = []

        def dual_factory(_m, contract=(), delete=()):
            sub = structure_minor(struct, contract=_as_frozen(delete), delete=_as_frozen(contract))
            record.append(sub)
            return sub.matroid

        red = reduce_triad(dual_inst, triangle, minor=dual_factory)
        node = TraceNode("triad", dict(red.certificate.payload))
        node.payload["dualized"] = True
        node.payload["child"] = _pair_summary(red.children[0])
        out_trace.append(node)
        steps = _engine(record[0], red.children[0], mode, last, cap, node.children)
        return red.lift(steps)

    if isinstance(struct, SumNode) and not inst.forbidden and last is None:
        routed = _sum_route(struct, inst, mode, cap, out_trace)
        if routed is not None:
            return routed

    if len(m.ground) <= cap:
        out_trace.append(TraceNode("bfs", {"cap": cap}))
        return _bfs_solve(m, inst, mode, last, cap)

    sample = sorted(m.ground)
    shown = ", ".join(map(str, sample[:12])) + (", ..." if len(sample) > 12 else "")
    raise UnsupportedStructureError(
        f"irreducible instance on {len(m.ground)} elements {{{shown}}} "
        f"has no known structure and exceeds the search cap {cap}"
    )


def _recording_factory(struct, record: list):
    def factory(_m, contract=(), delete=()):
        sub = structure_minor(struct, contract, delete)
        record.append(sub)
        return sub.matroid

    return factory


def _bfs_solve(m: Matroid, inst: Instance, mode: str, last, cap: int):
    if last is not None:
        return _bfs_with_last(m, inst, last, cap)
    result = bfs_oracle(
        m, inst.x, inst.y, inst.forbidden, monotone=(mode == "gabow"), cap=cap
    )
    if result == UNREACHABLE:
        raise UnsupportedStructureError("exhaustive search found no sequence")
    return list(result.sequence)


def _bfs_with_last(m: Matroid, inst: Instance, last, cap: int):
    """Monotone reversal finishing on a designated element: search to a
    predecessor of the target and append the final step."""
    y = inst.y
    finals = []
    for e in sorted(y.second):
        for f in sorted(y.first):
            if last not in (e, f):
                continue
            prev = BasisPair(y.first - {f} | {e}, y.second - {e} | {f}, m)
            step = ExchangeStep(e, f)
            if (
                m.is_basis(prev.first)
                and m.is_basis(prev.second)
                and is_valid_exchange(prev, step)
            ):
                finals.append((prev, step))
    for prev, step in finals:
        res = bfs_oracle(m, inst.x, prev, inst.forbidden, monotone=True, cap=cap)
        if res != UNREACHABLE and res.distance == len(inst.x.first - y.first) - 1:
            return list(res.sequence) + [step]
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
    ctx = TwoSumContext(circ.matroid, bullet.matroid, t, x_circ, x_bullet, y_circ, y_bullet)
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
        graph = bullet.graph
        deg = graph.degree()
        if any(d != 4 for d in deg.values()):
            continue
        seen = set()
        simple = True
        for e, (u, v) in graph.edges.items():
            key = (min(u, v, key=str), max(u, v, key=str))
            if u == v or key in seen:
                simple = False
                break
            seen.add(key)
        if not simple:
            continue

        ctx = ThreeSumContext(
            total=struct.matroid,
            circ=circ.matroid,
            bullet=bullet.matroid,
            shared=struct.spec.shared,
        )
        node = TraceNode("three_sum", {"shared": struct.spec.shared})
        out_trace.append(node)

        if mode == "white":

            def recurse(contract_elt, x_sets, y_sets):
                sub = structure_minor(circ, frozenset({contract_elt}), frozenset())
                sub_m = sub.matroid
                sub_inst = Instance(
                    sub_m, _as_pair(sub_m, x_sets), _as_pair(sub_m, y_sets)
                )
                return ExchangeSequence(
                    _engine(sub, sub_inst, "white", None, cap, node.children)
                )

            return list(three_sum_white(ctx, inst.x, inst.y, recurse))

        def recurse_rev(contract_elt, x_sets):
            sub = structure_minor(circ, frozenset({contract_elt}), frozenset())
            sub_m = sub.matroid
            pair = _as_pair(sub_m, x_sets)
            sub_inst = Instance(sub_m, pair, pair.swapped())
            return ExchangeSequence(
                _engine(sub, sub_inst, "gabow", None, cap, node.children)
            )

        return list(three_sum_gabow(ctx, inst.x, recurse_rev))
    return None
