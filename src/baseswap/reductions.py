"""Instance reductions: uncovered elements, common elements, tight sets,
size-three cocircuits, and the rank-two base case.

Each reduction shrinks an instance and provides a lift that maps a solved
sequence of the child instance back to the parent, preserving F-avoidance
and, where stated, the element used in the last step.  Certificates record
what was applied so a solve can be replayed deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .matroid import Matroid, GroundSetError, _as_frozen
from .exchange import BasisPair, ExchangeStep, ExchangeSequence, compatible


class ReductionError(Exception):
    pass


class IncompatiblePairsError(ReductionError):
    pass


@dataclass(frozen=True)
class Instance:
    """A reconfiguration instance: transform pair x into pair y avoiding F."""

    matroid: Matroid
    x: BasisPair
    y: BasisPair
    forbidden: frozenset = frozenset()

    def validate(self) -> None:
        m = self.matroid
        for pair in (self.x, self.y):
            for part in (pair.first, pair.second):
                if not m.is_basis(part):
                    raise ReductionError("instance member is not a basis")
        if not compatible(self.x, self.y):
            raise IncompatiblePairsError("pairs are not compatible")
        eligible = (self.x.first & self.y.first) | (self.x.second & self.y.second)
        if not self.forbidden <= eligible:
            raise ReductionError("forbidden set must stay inside matching intersections")

    @property
    def rank(self) -> int:
        return self.matroid.full_rank


@dataclass(frozen=True)
class ReductionCertificate:
    kind: str
    payload: dict = field(default_factory=dict)


@dataclass
class Reduction:
    """One applied reduction: child instances, certificate, and a lifter.

    ``lift`` takes one solved sequence per child (in order) and returns the
    list of parent steps.
    """

    children: list
    certificate: ReductionCertificate
    lift: Callable


def default_minor(m: Matroid, contract=(), delete=()) -> Matroid:
    return m.minor(contract=contract, delete=delete)


def _repair(pair: BasisPair, matroid: Matroid, drop=frozenset()) -> BasisPair:
    return BasisPair(pair.first - drop, pair.second - drop, matroid)


# -- uncovered elements and common elements ---------------------------------


def delete_uncovered(inst: Instance, minor=default_minor) -> Optional[Reduction]:
    """Restrict to the union of the bases; elements outside it never move."""
    removed = inst.matroid.ground - inst.x.union
    if not removed:
        return None
    child_m = minor(inst.matroid, frozenset(), removed)
    child = Instance(
        child_m,
        _repair(inst.x, child_m),
        _repair(inst.y, child_m),
        inst.forbidden,
    )
    cert = ReductionCertificate("delete_uncovered", {"removed": removed})
    return Reduction([child], cert, lambda seq: list(seq))


def contract_common(inst: Instance, minor=default_minor) -> Optional[Reduction]:
    """Contract X1 ∩ X2 (= Y1 ∩ Y2 for compatible pairs); steps are unchanged."""
    if not compatible(inst.x, inst.y):
        raise IncompatiblePairsError("pairs are not compatible")
    common = inst.x.common
    if not common:
        return None
    child_m = minor(inst.matroid, common, frozenset())
    child = Instance(
        child_m,
        _repair(inst.x, child_m, drop=common),
        _repair(inst.y, child_m, drop=common),
        inst.forbidden - common,
    )
    cert = ReductionCertificate("contract_common", {"contracted": common})
    return Reduction([child], cert, lambda seq: list(seq))


# -- tight sets --------------------------------------------------------------


def find_nontrivial_tight_set(m: Matroid, x: BasisPair):
    """Some nonempty proper Z with |Z| = 2 r(Z), or None.

    Requires the ground set to be partitioned by the pair.  Tight sets are
    exactly the sets closed under the arcs y -> C(y) - y, C(y) the fundamental
    circuit of y in the other basis, so minimal ones are the sink strongly
    connected components of that digraph; ties break to the lexicographically
    smallest element set.
    """
    ground = m.ground
    if x.first & x.second or x.first | x.second != ground:
        raise GroundSetError("tight-set search needs a disjoint covering pair")
    adj = {}
    for basis in (x.first, x.second):
        for y, circuit in m.fundamental_circuits(basis)[1].items():
            adj[y] = sorted(circuit - {y})
    sinks = _sink_components(adj)
    proper = [scc for scc in sinks if len(scc) < len(ground)]
    if not proper:
        return None
    return min(proper, key=lambda s: tuple(sorted(s)))


def _sink_components(adj: dict) -> list:
    """Sink SCCs of a digraph, via iterative Tarjan."""
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


def split_on_tight_set(
    inst: Instance, z, minor=default_minor, restrict_last: bool = False
) -> Reduction:
    """Split into the restriction to Z and the contraction of Z.

    The lift concatenates the two solved sequences; by default the
    restriction part runs first, so a designated last-step element of the
    contraction part stays last.  ``restrict_last`` flips the order, which is
    equally valid and keeps a last-step element inside Z last instead.
    """
    z = _as_frozen(z)
    m = inst.matroid
    if not z or z >= m.ground:
        raise ReductionError("tight set must be nonempty and proper")
    if len(z) != 2 * m.rank(z):
        raise ReductionError("set is not tight")
    m_z = minor(m, frozenset(), m.ground - z)
    m_rest = minor(m, z, frozenset())
    child_z = Instance(
        m_z,
        BasisPair(inst.x.first & z, inst.x.second & z, m_z),
        BasisPair(inst.y.first & z, inst.y.second & z, m_z),
        inst.forbidden & z,
    )
    child_rest = Instance(
        m_rest,
        BasisPair(inst.x.first - z, inst.x.second - z, m_rest),
        BasisPair(inst.y.first - z, inst.y.second - z, m_rest),
        inst.forbidden - z,
    )
    cert = ReductionCertificate("tight_split", {"z": z, "restrict_last": restrict_last})

    def lift(seq_z, seq_rest):
        if restrict_last:
            return list(seq_rest) + list(seq_z)
        return list(seq_z) + list(seq_rest)

    return Reduction([child_z, child_rest], cert, lift)


# -- triads ------------------------------------------------------------------


def find_triad(m: Matroid, cover=None):
    """Lexicographically first cocircuit of size three inside ``cover``."""
    elems = sorted(m.ground if cover is None else _as_frozen(cover))
    r = m.full_rank
    ground = m.ground
    for combo in itertools.combinations(elems, 3):
        t = frozenset(combo)
        rest = ground - t
        if m.rank(rest) != r - 1:
            continue
        if all(m.rank(rest | {x}) == r for x in combo):
            return t
    return None


def find_triangle(m: Matroid, cover=None):
    """Lexicographically first circuit of size three inside ``cover``."""
    return find_triad(m.dual(), cover)


def make_consistent_on_triad(inst: Instance, triad):
    """Fix-up exchanges making both pairs split the triad the same way.

    Returns (step_x, step_y, fixed_instance); each step is None when the
    corresponding pair needs no change.  At most one exchange per pair is
    needed; among valid consistent combinations the one with fewest steps
    wins, then the lexicographically smallest.
    """
    t = tuple(sorted(_as_frozen(triad)))
    m = inst.matroid

    def candidates(pair: BasisPair):
        inside = pair.first & set(t)
        out = []
        for lone in t:
            rest = frozenset(x for x in t if x != lone)
            if len(inside) == 2:
                cand = BasisPair(
                    (pair.first - set(t)) | rest, (pair.second - set(t)) | {lone}, m
                )
            elif len(inside) == 1:
                cand = BasisPair(
                    (pair.first - set(t)) | {lone}, (pair.second - set(t)) | rest, m
                )
            else:
                raise ReductionError("triad must meet both bases")
            moved_out = pair.first - cand.first
            moved_in = cand.first - pair.first
            if moved_out:
                step = ExchangeStep(min(moved_out), min(moved_in))
            else:
                step = None
            if m.is_basis(cand.first) and m.is_basis(cand.second):
                out.append((step, cand))
        return out

    best = None
    for step_x, cand_x in candidates(inst.x):
        for step_y, cand_y in candidates(inst.y):
            cx = cand_x.first & set(t)
            if cx not in (cand_y.first & set(t), cand_y.second & set(t)):
                continue
            cost = (step_x is not None) + (step_y is not None)
            key = (
                cost,
                tuple(step_x) if step_x else (),
                tuple(step_y) if step_y else (),
            )
            if best is None or key < best[0]:
                best = (key, step_x, step_y, cand_x, cand_y)
    if best is None:
        raise AssertionError("no consistent triad split exists; this cannot happen")
    _, step_x, step_y, cand_x, cand_y = best
    fixed = Instance(m, cand_x, cand_y, inst.forbidden)
    return step_x, step_y, fixed


def reduce_triad(inst: Instance, triad, minor=default_minor) -> Reduction:
    """Shrink along a triad: contract one of its first-basis elements and
    delete the second-basis one.

    Applies the consistency fix-ups first; the child instance lives on
    M / t2 \\ t3.  The lift re-inflates every intermediate pair (t2 joins the
    side holding t1, t3 the other side) and replaces each step using t1 by
    two steps, chosen by testing which intermediate pair consists of bases.
    Width is preserved on surviving elements and length grows by at most the
    number of t1 usages.
    """
    t = _as_frozen(triad)
    if inst.forbidden & t:
        raise ReductionError("forbidden set must avoid the triad")
    step_x, step_y, fixed = make_consistent_on_triad(inst, t)

    swapped = len(fixed.x.first & t) == 1
    if swapped:
        work = Instance(fixed.matroid, fixed.x.swapped(), fixed.y.swapped(), fixed.forbidden)
    else:
        work = fixed
    t1, t2 = sorted(work.x.first & t)
    (t3,) = work.x.second & t

    if {t1, t2} <= work.y.first:
        y_child = BasisPair(work.y.first - {t2}, work.y.second - {t3})
    elif {t1, t2} <= work.y.second:
        y_child = BasisPair(work.y.first - {t3}, work.y.second - {t2})
    else:
        raise ReductionError("pairs are not consistent on the triad")

    child_m = minor(inst.matroid, frozenset({t2}), frozenset({t3}))
    child = Instance(
        child_m,
        BasisPair(work.x.first - {t2}, work.x.second - {t3}, child_m),
        BasisPair(y_child.first, y_child.second, child_m),
        work.forbidden,
    )
    cert = ReductionCertificate(
        "triad",
        {
            "triad": t,
            "t1": t1,
            "t2": t2,
            "t3": t3,
            "swapped": swapped,
            "fix_x": tuple(step_x) if step_x else None,
            "fix_y": tuple(step_y) if step_y else None,
        },
    )
    parent_m = inst.matroid

    def lift(seq):
        def both_bases(first, second):
            return parent_m.is_basis(first) and parent_m.is_basis(second)

        out = []
        # the child's current pair, updated in place step by step
        cur1, cur2 = set(child.x.first), set(child.x.second)
        for step in seq:
            if not isinstance(step, ExchangeStep):
                step = ExchangeStep(*step)
            e, f = step
            if t1 != e and t1 != f:
                out.append(step)
            elif e == t1:
                # completed pair (cur1 + t2, cur2 + t3); two-step options
                if both_bases(cur1 | {t3}, cur2 | {t2}):
                    out += (ExchangeStep(t2, t3), ExchangeStep(t1, f))
                elif both_bases((cur1 - {t1}) | {t2, t3}, cur2 | {t1}):
                    out += (ExchangeStep(t1, t3), ExchangeStep(t2, f))
                else:
                    raise AssertionError("no feasible two-step replacement; this cannot happen")
            else:
                # f == t1, completed pair (cur1 + t3, cur2 + t2)
                if both_bases(cur1 | {t2}, cur2 | {t3}):
                    out += (ExchangeStep(t3, t2), ExchangeStep(e, t1))
                elif both_bases(cur1 | {t1}, (cur2 - {t1}) | {t2, t3}):
                    out += (ExchangeStep(t3, t1), ExchangeStep(e, t2))
                else:
                    raise AssertionError("no feasible two-step replacement; this cannot happen")
            cur1.discard(e)
            cur1.add(f)
            cur2.discard(f)
            cur2.add(e)
        if swapped:
            out = [s.reversed() for s in out]
        prefix = [step_x] if step_x else []
        suffix = [step_y.reversed()] if step_y else []
        return prefix + out + suffix

    return Reduction([child], cert, lift)


# -- rank at most two ---------------------------------------------------------


def solve_rank_le2(inst: Instance, h=None) -> ExchangeSequence:
    """Exhaustive solve for rank <= 2: width 1, length <= rank.

    When ``h`` is given (an uncontracted element outside F), the last step
    uses it; a same-pair instance yields the empty sequence regardless.
    """
    m = inst.matroid
    if m.full_rank > 2:
        raise ReductionError("exhaustive base case only applies to rank <= 2")
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
                if m.is_basis(pair.first - {e} | {f}) and m.is_basis(
                    pair.second - {f} | {e}
                ):
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
        raise AssertionError("rank <= 2 instance without a short sequence; this cannot happen")
    return ExchangeSequence(best[1])
