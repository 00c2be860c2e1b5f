"""Merging exchange sequences across 2-sums and 3-sums.

For a 2-sum the two side sequences are interleaved so that steps using the
shared element t pair up into single exchanges of the composed matroid; when
only one side keeps using t, a substitute element e stands in for t on the
finished side.  For a 3-sum with a graphic side the solution is a three-part
concatenation: a t_k-avoiding graphic transform onto a reference partition,
a replay of the recursively solved contraction of the other side (with e
standing in for t2), and a second graphic transform to the target.  The
caller solves the pieces on both sides (``solve_bullet`` and ``recurse``),
so this module imports no solver: the engine (``pipeline``) runs them under
the route's trace node, and the 3-sum replays what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .matroid import Matroid, GraphicMatroid, Multigraph, GroundSetError
from .exchange import (
    BasisPair, ExchangeStep, ExchangeSequence, SequenceValidationError, apply_and_validate,
    check_reversal,
)
from .union import matroid_union_partition, InfeasiblePartitionError


class SumStructureError(Exception):
    """A pair or context does not fit the sum's basis description."""


class SparsityError(Exception):
    """The graph violates the sparsity precondition; carries a vertex witness."""

    def __init__(self, witness):
        super().__init__(f"dense vertex set of size {len(witness)}")
        self.witness = frozenset(witness)


# -- 2-sums -------------------------------------------------------------------


@dataclass
class TwoSumContext:
    """A 2-sum along t and the target pair of each side, per the basis
    description: the finished side's target supplies the substitute for t.

    Each side pair carries t in the member whose restriction is not already
    a basis of the deletion.
    """

    circ: Matroid
    bullet: Matroid
    t: int
    y_circ: BasisPair
    y_bullet: BasisPair


def split_two_sum_pair(circ: Matroid, bullet: Matroid, t: int, pair: BasisPair):
    """Restrict a composed pair to the two sides, attaching t appropriately."""
    side_c = circ.ground - {t}
    side_b = bullet.ground - {t}
    first_c, first_b = pair.first & side_c, pair.first & side_b
    second_c, second_b = pair.second & side_c, pair.second & side_b

    def place(z_c, z_b):
        if circ.is_basis(z_c):
            if not bullet.is_basis(z_b | {t}):
                raise SumStructureError("pair does not match the 2-sum description")
            return z_c, z_b | {t}
        if not (circ.is_basis(z_c | {t}) and bullet.is_basis(z_b)):
            raise SumStructureError("pair does not match the 2-sum description")
        return z_c | {t}, z_b

    c1, b1 = place(first_c, first_b)
    c2, b2 = place(second_c, second_b)
    if (t in c1) == (t in c2):
        raise SumStructureError(
            "shared element sits on the same side in both members; "
            "the instance has a tight side and should be split instead"
        )
    return BasisPair(c1, c2, circ), BasisPair(b1, b2, bullet)


def merge_two_sum(seq_circ, seq_bullet, ctx: TwoSumContext) -> list:
    """Combine side sequences into one for the composed matroid.

    Steps using t are fused pairwise across the sides; leftovers on one side
    replace t by a substitute element of the other side's final pair.  The
    result has length l' + l'' - min(m', m'') where m', m'' count the
    t-usages, and width at most w' + w''.
    """
    t = ctx.t
    sc = [ExchangeStep(*s) for s in seq_circ]
    sb = [ExchangeStep(*s) for s in seq_bullet]
    out = []
    i = j = 0
    uses_c = sum(1 for s in sc if t in s)
    uses_b = sum(1 for s in sb if t in s)
    fused = min(uses_c, uses_b)

    for _ in range(fused):
        while t not in sc[i]:
            out.append(sc[i])
            i += 1
        while t not in sb[j]:
            out.append(sb[j])
            j += 1
        step_c, step_b = sc[i], sb[j]
        if (step_c.e == t) == (step_b.e == t):
            raise SumStructureError("t-steps of the two sides move t the same way")
        out.append(
            ExchangeStep(
                step_c.e if step_c.e != t else step_b.e,
                step_c.f if step_c.f != t else step_b.f,
            )
        )
        i += 1
        j += 1

    # One side is out of t-steps: finish it, then substitute e for t in the
    # other side's remaining steps.
    if uses_c > fused:
        finisher, fin_idx = sb, j
        active, act_idx = sc, i
        fin_pair, fin_matroid = ctx.y_bullet, ctx.bullet
    else:
        finisher, fin_idx = sc, i
        active, act_idx = sb, j
        fin_pair, fin_matroid = ctx.y_circ, ctx.circ
    out.extend(finisher[fin_idx:])
    tail = active[act_idx:]
    if any(t in s for s in tail):
        e = _substitute_element(fin_matroid, fin_pair, t)
        tail = [
            ExchangeStep(e if s.e == t else s.e, e if s.f == t else s.f) for s in tail
        ]
    out.extend(tail)
    if len(out) != len(sc) + len(sb) - fused:
        raise AssertionError(f"merged length {len(out)} != {len(sc)} + {len(sb)} - {fused}")
    if any(t in s for s in out):
        raise AssertionError("the merged sequence uses the shared element")
    return out


def _substitute_element(m: Matroid, final_pair: BasisPair, t: int) -> int:
    """Element e of the t-free member exchangeable with t in the final pair."""
    holder = final_pair.second if t in final_pair.second else final_pair.first
    other = final_pair.first if t in final_pair.second else final_pair.second
    for e in sorted(other - holder):
        if m.is_basis(other - {e} | {t}) and m.is_basis(holder - {t} | {e}):
            return e
    raise AssertionError("no substitute for the shared element; this cannot happen")


# -- 3-sums -------------------------------------------------------------------


@dataclass
class ThreeSumContext:
    """A 3-sum M = circ +3 bullet along a coindependent triangle, with the
    bullet side graphic (its graph contains the triangle edges)."""

    total: Matroid
    circ: Matroid
    bullet: GraphicMatroid
    shared: frozenset

    def split(self, subset):
        side_c = self.circ.ground - self.shared
        side_b = self.bullet.ground - self.shared
        return subset & side_c, subset & side_b


@dataclass(frozen=True)
class PairType:
    """Type of a disjoint covering pair of a 3-sum and its index elements.

    kind 1: the first member restricts to a contraction basis on the circ
    side; kind 2: the second member does.  i is shared between the sides'
    basis-completing elements, j completes only the circ side, k only the
    bullet side.
    """

    kind: int
    i: int
    j: int
    k: int


def classify_three_sum_pair(ctx: ThreeSumContext, pair: BasisPair) -> PairType:
    t_elems = sorted(ctx.shared)
    z1c, z1b = ctx.split(pair.first)
    z2c, z2b = ctx.split(pair.second)
    r_c = ctx.circ.full_rank
    if len(z1c) == r_c - 2:
        kind, mid_c, mid_b, con_c, del_b = 1, z2c, z2b, z1c, z1b
    elif len(z1c) == r_c - 1:
        kind, mid_c, mid_b, con_c, del_b = 2, z1c, z1b, z2c, z2b
    else:
        raise SumStructureError("pair sizes do not match the 3-sum description")
    ta, tb = t_elems[0], t_elems[1]
    if not ctx.circ.is_basis(con_c | {ta, tb}):
        raise SumStructureError("circ part is not a contraction basis")
    if not ctx.bullet.is_basis(del_b):
        raise SumStructureError("bullet part is not a deletion basis")
    p_circ = frozenset(t for t in t_elems if ctx.circ.is_basis(mid_c | {t}))
    p_bullet = frozenset(t for t in t_elems if ctx.bullet.is_basis(mid_b | {t}))
    if len(p_circ) != 2 or len(p_bullet) != 2 or p_circ == p_bullet:
        raise SumStructureError("triangle completions do not match the 3-sum description")
    (i,) = p_circ & p_bullet
    (j,) = p_circ - p_bullet
    (k,) = p_bullet - p_circ
    return PairType(kind, i, j, k)


def partition_off_triangle(m: Matroid, triangle):
    """Split E - T into a basis of M and a basis of M/T.

    Needs |E| = 2r + 1; feasibility of the matroid union certifies the
    remaining density condition, and an infeasible union surfaces its
    violating set.
    """
    t = frozenset(triangle)
    if len(m.ground) != 2 * m.full_rank + 1:
        raise SumStructureError(
            f"|E| = {len(m.ground)} but 2r+1 = {2 * m.full_rank + 1}"
        )
    target = m.ground - t
    contraction = m.minor(contract=t)
    s1, s2 = matroid_union_partition(m, contraction, target)
    if not (m.is_basis(s1) and contraction.is_basis(s2)):
        raise SumStructureError("partition does not split into the two bases")
    return s1, s2


def check_near_sparse(graph: Multigraph, skip_edges) -> None:
    """Verify |(E - T)[U]| <= 2|U| - 3 for every U with at least two vertices.

    Equivalent test: for every surviving edge, doubling it still lets the
    edge set split into two forests.  Raises SparsityError with a violating
    vertex set otherwise.
    """
    rest = frozenset(graph.edges) - frozenset(skip_edges)
    fresh = max(graph.edges) + 1
    for x in sorted(rest):
        doubled = dict((e, graph.edges[e]) for e in rest)
        doubled[fresh] = graph.edges[x]
        g2 = Multigraph(doubled)
        m2 = GraphicMatroid(g2)
        try:
            matroid_union_partition(m2, m2, frozenset(doubled))
        except InfeasiblePartitionError as err:
            witness = _dense_component(g2, err.witness)
            raise SparsityError(witness) from None


def _dense_component(graph: Multigraph, edge_witness: frozenset) -> frozenset:
    comps: list = []
    seen: set = set()
    adj: dict = {}
    for e in edge_witness:
        u, v = graph.edges[e]
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        comps.append(frozenset(comp))
    for comp in comps:
        edges_in = [
            e for e in edge_witness if set(graph.edges[e]) <= comp
        ]
        if len(edges_in) > 2 * GraphicMatroid(graph.restrict(edges_in)).full_rank:
            return comp
    return frozenset().union(*comps) if comps else frozenset()


def four_regular_triangle_partition(graph: Multigraph, triangle_ordered):
    """Partition E - T of a simple 4-regular graph with triangle T.

    ``triangle_ordered`` is (t1, t2, t3) edge ids; t2 and t3 must share a
    vertex off t1.  Returns (F1, F2, e) with F1, F2 + t2, F2 + t3,
    F1 - e + t2, F1 - e + t3 and F2 + e all spanning trees and e in F1.
    """
    t1, t2, t3 = triangle_ordered
    deg = graph.degree()
    if any(d != 4 for d in deg.values()):
        raise GroundSetError("graph is not 4-regular")
    common = set(graph.edges[t2]) & set(graph.edges[t3])
    if len(common) != 1:
        raise GroundSetError("t2 and t3 must share exactly one vertex")
    (v1,) = common
    if v1 in graph.edges[t1]:
        raise GroundSetError("t1 must be the triangle edge off the shared vertex")
    check_near_sparse(graph, {t1, t2, t3})

    star_v1 = sorted(graph.incident(v1) - {t2, t3})
    if len(star_v1) != 2:
        raise GroundSetError("shared vertex must have two neighbors off the triangle")

    def other_end(edge_id, vertex):
        u, v = graph.edges[edge_id]
        return v if u == vertex else u

    ea, eb = sorted(star_v1, key=lambda e: (str(other_end(e, v1)), e))
    a, b = other_end(ea, v1), other_end(eb, v1)
    a_edges = sorted(graph.incident(a) - {ea})
    if len(a_edges) != 3:
        raise GroundSetError("neighbor of the shared vertex must have three other edges")
    u_verts = [other_end(e, a) for e in a_edges]

    fresh = max(graph.edges) + 1
    new_edges = {}
    for idx in range(3):
        new_edges[fresh + idx] = (u_verts[(idx + 1) % 3], u_verts[(idx + 2) % 3])
    dropped = set(graph.incident(v1)) | set(graph.incident(a)) | {t1}
    reduced = {e: uv for e, uv in graph.edges.items() if e not in dropped}
    reduced.update(new_edges)
    g_prime = Multigraph(reduced)

    m_prime = GraphicMatroid(g_prime)
    tree2, tree1_core = partition_off_triangle(m_prime, frozenset(new_edges))

    f1 = tree1_core | set(a_edges) | {eb}
    f2 = tree2 | {ea}
    e_edge = eb

    host = GraphicMatroid(graph)
    for name, s in (
        ("F1", f1),
        ("F2+t2", f2 | {t2}),
        ("F2+t3", f2 | {t3}),
        ("F1-e+t2", (f1 - {e_edge}) | {t2}),
        ("F1-e+t3", (f1 - {e_edge}) | {t3}),
        ("F2+e", f2 | {e_edge}),
    ):
        if not host.is_basis(frozenset(s)):
            raise AssertionError(f"{name} is not a spanning tree; this cannot happen")
    return frozenset(f1), frozenset(f2), e_edge


def three_sum_white(
    ctx: ThreeSumContext, x: BasisPair, y: BasisPair, solve_bullet: Callable, recurse: Callable
):
    """Transform x into y on a 3-sum with a simple 4-regular graphic side.

    ``solve_bullet`` solves the graphic side: solve_bullet(x_pair, y_pair,
    forbidden) -> steps.  ``recurse`` solves the contracted circ side:
    recurse(contract_element, x_pair, y_pair) -> steps.  The result
    concatenates two t_k-avoiding graphic segments around the replayed
    recursive solution and stays within width 4(r-1) and length 2 r^2.
    """
    if x.first == y.first and x.second == y.second:
        return ExchangeSequence()
    cx = classify_three_sum_pair(ctx, x)
    if cx.kind == 2:
        seq = three_sum_white(ctx, x.swapped(), y.swapped(), solve_bullet, recurse)
        return ExchangeSequence([s.reversed() for s in seq])
    cy = classify_three_sum_pair(ctx, y)

    common = {cx.i, cx.j} & {cy.i, cy.j}
    t1 = min(common)
    t2, t3 = sorted(ctx.shared - {t1})
    x1c, x1b = ctx.split(x.first)
    x2c, x2b = ctx.split(x.second)
    y1c, y1b = ctx.split(y.first)
    y2c, y2b = ctx.split(y.second)

    f1, f2, e_edge = four_regular_triangle_partition(ctx.bullet.graph, (t1, t2, t3))

    # segment 1: bullet side onto the reference partition, avoiding t_kX
    seg1 = solve_bullet(
        BasisPair(x1b, x2b | {cx.k}, ctx.bullet),
        BasisPair(f1, f2 | {cx.k}, ctx.bullet),
        frozenset({cx.k}),
    )

    # segment 2: recursive solve on circ / t1, replayed with e for t2
    x_mid = (x1c | {t2}, x2c)
    y_mid = (y1c | {t2}, y2c) if cy.kind == 1 else (y1c, y2c | {t2})
    sub = recurse(t1, x_mid, y_mid)
    seg2 = [
        ExchangeStep(
            e_edge if s.e == t2 else s.e,
            e_edge if s.f == t2 else s.f,
        )
        for s in (ExchangeStep(*p) for p in sub)
    ]

    # segment 3: bullet side from the (possibly toggled) partition to y
    if cy.kind == 1:
        f_tilde1, f_tilde2 = f1, f2
        start3 = BasisPair(f_tilde1, f_tilde2 | {cy.k}, ctx.bullet)
        end3 = BasisPair(y1b, y2b | {cy.k}, ctx.bullet)
    else:
        f_tilde1, f_tilde2 = f1 - {e_edge}, f2 | {e_edge}
        start3 = BasisPair(f_tilde1 | {cy.k}, f_tilde2, ctx.bullet)
        end3 = BasisPair(y1b | {cy.k}, y2b, ctx.bullet)
    seg3 = solve_bullet(start3, end3, frozenset({cy.k}))

    steps = list(seg1) + seg2 + list(seg3)
    try:
        final = apply_and_validate(BasisPair(x.first, x.second, ctx.total), steps)
    except SequenceValidationError as err:
        raise AssertionError(f"the 3-sum sequence is invalid: {err}") from None
    if not (final.first == y.first and final.second == y.second):
        raise AssertionError("the 3-sum sequence does not end on the target pair")
    return ExchangeSequence(steps)


def three_sum_gabow(ctx: ThreeSumContext, x: BasisPair, solve_bullet: Callable, recurse: Callable):
    """Reverse a disjoint covering pair of a 3-sum in exactly r monotone steps.

    ``solve_bullet`` reverses a pair of the graphic side:
    solve_bullet(pair, last=h) -> r(bullet) monotone steps, the last one
    exchanging h.  ``recurse`` reverses the contracted circ side:
    recurse(contract_element, pair) -> sequence of length r(circ) - 1 using
    each element once.
    """
    cx = classify_three_sum_pair(ctx, x)
    if cx.kind == 2:
        seq = three_sum_gabow(ctx, x.swapped(), solve_bullet, recurse)
        return ExchangeSequence([s.reversed() for s in seq])
    t1, t2, t3 = cx.i, cx.j, cx.k
    x1c, x1b = ctx.split(x.first)
    x2c, x2b = ctx.split(x.second)

    sub = [ExchangeStep(*s) for s in recurse(t2, (x1c | {t1}, x2c))]
    t1_positions = [idx for idx, s in enumerate(sub) if t1 in s]
    if len(t1_positions) != 1:
        raise AssertionError("reversal must use the contracted triangle element once")
    pos = t1_positions[0]
    if sub[pos].e != t1:
        raise AssertionError("the triangle element must leave the first member")
    e_elt = sub[pos].f

    # circ pair just before the t1 step, with t1 stripped from the first member
    cur1, cur2 = x1c | {t1}, x2c
    for s in sub[:pos]:
        cur1 = cur1 - {s.e} | {s.f}
        cur2 = cur2 - {s.f} | {s.e}
    yc1, yc2 = cur1 - {t1}, cur2

    candidates = [t for t in (t1, t3) if ctx.circ.is_basis(yc2 | {t})]
    if len(candidates) != 1:
        raise AssertionError("exactly one completion must work; none-or-two rule")
    t_j = t3 if candidates == [t1] else t1

    bullet_pair = BasisPair(x1b, x2b | {t_j}, ctx.bullet)
    seq_b = [ExchangeStep(*s) for s in solve_bullet(bullet_pair, last=t_j)]
    last = seq_b[-1]
    if last.f != t_j:
        raise AssertionError("the designated edge must enter the first member last")
    bridging = ExchangeStep(last.e, e_elt)

    steps = sub[:pos] + seq_b[:-1] + [bridging] + sub[pos + 1 :]
    try:
        apply_and_validate(BasisPair(x.first, x.second, ctx.total), steps)
        check_reversal(x, steps)
    except SequenceValidationError as err:
        raise AssertionError(f"the 3-sum sequence is not a valid reversal: {err}") from None
    return ExchangeSequence(steps)
