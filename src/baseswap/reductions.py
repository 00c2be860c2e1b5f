"""Instance reductions: tight sets and size-three cocircuits, and the entry
rules of an instance.  The strips of uncovered and common elements, and the
rank <= 2 frames the reductions end on, are the engine's (``pipeline``).

Past the strips a frame's pairs are disjoint and cover its ground set, and
so are those of a tight split's restriction and of a triad's minor.  So the
engine reduces a frame level after level on one mutable state (``Chain``):
the pairs' four bases, F as a set and the designated last element.  The
pairs (``Pairs``) carry each basis as a tableau on a GF(2) frame and as a
rooted spanning forest on a graph, through the interface the two share.
Tightness and the fix-up checks are read from them, as bits or as climbs,
and each reduction updates them in place.
``Chain.split`` and ``Chain.shrink`` hold the bookkeeping of the two
reductions once; a graph (``graphic.GraphChain``) and a GF(2) frame
(``pipeline.MatrixChain``) differ only in how they pick a reduction, how
they carry the bases and how they take a level's minor.  The triad and
triangle searches read a GF(2) matrix: the frame's own, or a tableau's
transpose for the dual.

Each level records its lift as data: the order in which the parent runs a
split's two sides, and for a triad the elements, fix-up steps and frame
data that replace each child step using t1 (``TriadLift``).  The engine
lifts the whole chain, and the tree of chains, in one forward pass, and its
certificates (the trace) let a solve be replayed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .matroid import (
    Matroid,
    Gf2Matroid,
    GroundSetError,
    _as_frozen,
    _bits,
    _decode,
    _encode,
)
from .exchange import BasisPair, ExchangeStep, compatible


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

    @classmethod
    def checked(cls, m: Matroid, mode: str, x, y=None, forbidden=(), last=None) -> "Instance":
        """The instance of a solve in ``mode`` on m, after every entry rule.
        A reversal ("gabow") needs disjoint bases and ``last`` inside their
        union, and its target is x swapped; a transform ("white") takes no
        ``last``.  Then all four members must be bases, the pairs
        compatible, and F inside (X1 ∩ Y1) ∪ (X2 ∩ Y2), so a reversal takes
        no F.  The pairs are BasisPairs or (first, second)."""
        x = _as_pair(m, x)
        if mode == "gabow":
            if x.first & x.second:
                raise IncompatiblePairsError("reversal needs disjoint bases")
            if last is not None and last not in x.union:
                raise ReductionError("designated last element must lie in one of the bases")
            y = x.swapped()
        elif last is not None:
            raise ReductionError("a designated last element needs a reversal (gabow mode)")
        else:
            y = _as_pair(m, y)
        if not all(map(m.is_basis, dict.fromkeys((x.first, x.second, y.first, y.second)))):
            raise ReductionError("instance member is not a basis")
        if not compatible(x, y):
            raise IncompatiblePairsError("pairs are not compatible")
        forbidden = _as_frozen(forbidden)
        if not forbidden <= (x.first & y.first) | (x.second & y.second):
            raise ReductionError("forbidden set must stay inside matching intersections")
        return cls(m, x, y, forbidden)


def _as_pair(m: Matroid, pair) -> BasisPair:
    """``pair`` (a BasisPair or (first, second)) as a BasisPair of m."""
    if isinstance(pair, BasisPair):
        return BasisPair(pair.first, pair.second, m)
    first, second = pair
    return BasisPair(_as_frozen(first), _as_frozen(second), m)


def _instance(m: Matroid, pairs: "Pairs", forbidden) -> Instance:
    """The instance on m of the bases of ``pairs``, and F, frozen."""
    x1, x2, y1, y2 = map(frozenset, pairs.bases())
    return Instance(m, BasisPair(x1, x2, m), BasisPair(y1, y2, m), frozenset(forbidden))


class Pairs:
    """The carriers of an instance's four bases: ``x`` holds those of
    x.first and x.second, ``y`` those of y.first and y.second.  A GF(2)
    frame's carriers are tableaux (``Tableau``), a graph chain's rooted
    spanning forests (``RootedForest``); the two share one interface.
    Equal bases share one carrier, so each update is made once per distinct
    basis.  The updates follow the reductions: ``split`` along a tight set,
    ``fixed`` for the triad fix-ups and ``minor`` for the triad's child."""

    __slots__ = ("x", "y")

    def __init__(self, x: tuple, y: tuple):
        self.x = x
        self.y = y

    @classmethod
    def of(cls, inst: Instance, build=None) -> "Pairs":
        """The pairs of the instance's bases, each carried by ``build(basis)``
        (default: the matroid's ``tableau``)."""
        build = build or inst.matroid.tableau
        bases = (inst.x.first, inst.x.second, inst.y.first, inst.y.second)
        built = {basis: build(basis) for basis in dict.fromkeys(bases)}
        carriers = tuple(built[basis] for basis in bases)
        return cls(carriers[:2], carriers[2:])

    def _distinct(self):
        return {id(carrier): carrier for carrier in self.x + self.y}.values()

    def bases(self) -> tuple:
        """The four bases x.first, x.second, y.first and y.second, as live
        views (``held``)."""
        (x1, x2), (y1, y2) = self.x, self.y
        return x1.held(), x2.held(), y1.held(), y2.held()

    def tight(self, z: frozenset, outside: frozenset) -> bool:
        """|Z| = 2 r(Z), read from the carriers of x: each basis meets Z in
        |Z|/2 elements and spans Z with them.  The test is exact when the
        bases partition the ground set, as after the strips; for any other
        pair it may only wrongly say no."""
        return all(carrier.tight(z, outside) for carrier in self.x)

    def split(self, outside: frozenset) -> "Pairs":
        """Keep the carriers of the bases' parts inside the tight set z, the
        ground set minus ``outside``, in M | z, and return those of the parts
        outside it, in M / z (``Tableau.split``, ``RootedForest.split``)."""
        rest = {id(carrier): carrier.split(outside) for carrier in self._distinct()}
        x, y = (tuple(rest[id(carrier)] for carrier in pair) for pair in (self.x, self.y))
        return Pairs(x, y)

    def fixed(self, step_x, step_y, swapped: bool) -> "Pairs":
        """The carriers after the fix-up steps (None for no step), exchanged
        in place, and with each pair's two bases trading places when
        ``swapped``.  Past the strips two pairs share a carrier only when y
        is x swapped (or x, which a chain never reduces), and then both
        leave the same triad element alone and take no step.  So a step on a
        shared carrier raises before any carrier changes; an exchange that
        fails raises too."""
        for (first, second), other, step in ((self.x, self.y, step_x), (self.y, self.x, step_y)):
            if step is None:
                continue
            e, f = step
            if first in other or second in other:
                raise AssertionError(f"fix-up step {step} on a shared basis; this cannot happen")
            if not (first.exchange(e, f) and second.exchange(f, e)):
                raise AssertionError(f"fix-up step {step} is not an exchange; this cannot happen")
        return Pairs(self.x[::-1], self.y[::-1]) if swapped else self

    def minor(self, contract: int, delete: int) -> None:
        """Move every carrier to M / contract \\ delete (``Tableau.minor``,
        ``RootedForest.minor``)."""
        for carrier in self._distinct():
            carrier.minor(contract, delete)


@dataclass(frozen=True, slots=True)
class TriadLift:
    """A triad reduction's lift as data.  The child lives on M / t2 \\ t3
    (or M / t3 \\ t2 for a triangle, ``delete`` names which), in the
    orientation of the fixed pairs, swapped when ``swapped``.  The parent
    runs ``prefix`` (the x fix-up, or None), then the child's steps with each
    one using t1 replaced by two (``replace``), then ``suffix`` (the reversed
    y fix-up, or None); the engine's forward pass does this for a whole tree
    of reductions at once.  The child is not kept, only what the one query
    of a replacement reads: the parent's ``frame``, whose ``ground`` is the
    parent's ground set and whose ``_independent`` answers the query.  A
    chain level keeps it when it takes its minor (``Chain.shrink``): a GF(2)
    frame its matrix, a graph a copy of that level's edge ends
    (``graphic.LevelEdges``).  The query stops at the first dependency and
    caches nothing: the lifts of a whole reduction tree run together, and
    their sets seldom repeat."""

    t1: int
    t2: int
    t3: int
    delete: int
    swapped: bool
    prefix: Optional[ExchangeStep]
    suffix: Optional[ExchangeStep]
    frame: object

    def replace(self, e, f, first, second) -> tuple:
        """The two parent steps for a child step (e, f) that uses t1, given
        the child's pair (first, second) before it, or any pair of sets that
        agrees with it on the child's ground set; steps and pair are in the
        child's orientation.  For e = t1 (f = t1 is symmetric) the completed
        pair is (P1, P2) = (first + t2, second + t3).  Option A runs
        (t2, t3), then (t1, f): of its middle pair, the member holding the
        contracted element is a child basis plus that element, so the one
        holding ``delete`` is the one query.  Option B runs (t1, t3), then (t2, f).
        T = {t1, t2, t3} is a cocircuit (of M*, for a triangle, where the
        disjoint covering pairs make the same exchanges valid), and a circuit
        never meets a cocircuit in exactly one element (Oxley, *Matroid
        Theory*, 2nd ed., Prop. 2.1.11).  So if option A fails, t2 is off
        C(P1, t3), which then holds t1; and C(P2, t1) lies in P2 + t1, which
        misses t2, so it holds t3: option B is valid.  The query, the side
        cut to the child's ground set plus ``delete``, has r elements, so it
        is a basis exactly when it is independent.  The closing replay
        checks every step."""
        t1, t2, t3, delete = self.t1, self.t2, self.t3, self.delete
        query = (first if (e == t1) == (delete == t3) else second) & self.frame.ground
        query.discard(t2 if delete == t3 else t3)  # the contracted element
        query.add(delete)
        # a moves against t3 first, then b takes t1's place in (e, f)
        a, b = (t2, t1) if self.frame._independent(query) else (t1, t2)
        if e == t1:
            return ExchangeStep(a, t3), ExchangeStep(b, f)
        return ExchangeStep(t3, a), ExchangeStep(e, b)


# -- tight sets --------------------------------------------------------------


def find_nontrivial_tight_set(m: Matroid, x: BasisPair, tableaux=None):
    """Some nonempty proper Z with |Z| = 2 r(Z), or None.

    Requires the ground set to be partitioned by the pair.  Tight sets are
    exactly the sets closed under the arcs y -> C(y) - y, C(y) the fundamental
    circuit of y in the other basis, so minimal ones are the sink strongly
    connected components of that digraph; ties break to the sink whose least
    element is smallest.  The arcs out of y are y's circuit mask and those
    into b are b's cocircuit mask, in ``tableaux`` (of x.first and x.second)
    when given, else in the matroid's; the masks are ANDed with the ground
    set, so stale bits are skipped.  Taking each v in increasing order, v's
    component is a sink exactly when all that v reaches also reaches v; if
    it is not, no element that reaches v is in a sink.  On a strongly
    connected digraph, the usual case, the first v settles it.
    """
    ground = m.ground
    if x.first & x.second or x.first | x.second != ground:
        raise GroundSetError("tight-set search needs a disjoint covering pair")
    tabs = tableaux or (m.tableau(x.first), m.tableau(x.second))
    out = {**tabs[0].circuits, **tabs[1].circuits}  # y -> y and the heads of its arcs
    into = {**tabs[0].cocircuits, **tabs[1].cocircuits}  # b -> b and the tails of its arcs
    full = _encode(ground)
    not_sinks = 0
    for v in sorted(ground):
        if not_sinks >> v & 1:
            continue
        reach = _closure(out, v, full)
        reached_by = _closure(into, v, full)
        if not reach & ~reached_by:
            return None if reach == full else _decode(reach)
        not_sinks |= reached_by


def _closure(arcs: dict, v: int, full: int) -> int:
    """The mask of the elements reachable from v along ``arcs``, each
    element's mask of itself and its arc heads, within ``full``."""
    seen = frontier = 1 << v
    while frontier:
        new = 0
        for e in _bits(frontier):
            new |= arcs[e]
        frontier = new & full & ~seen
        seen |= frontier
    return seen


# -- triads ------------------------------------------------------------------


def find_triad(m: Matroid, cover=None, tableau=None):
    """Lexicographically first cocircuit of size three inside ``cover``
    (default: all): a triangle of the dual, whose matrix is ``tableau`` (of
    any basis of m, default the greedy one) transposed."""
    cols = (tableau or m.tableau()).dual_columns()
    return _first_triangle(cols, m.ground if cover is None else m.ground.intersection(cover))


def find_triangle(m: Gf2Matroid, cover=None):
    """Lexicographically first circuit of size three inside ``cover``
    (default: all): three nonzero, distinct columns that sum to zero."""
    return _first_triangle(m.columns, m.ground if cover is None else m.ground.intersection(cover))


def _first_triangle(cols: dict, cover) -> Optional[frozenset]:
    """The first triple x < y < z of ``cover`` whose columns are nonzero,
    distinct and sum to zero.  Triples are walked in order, so the first one
    found is the first of all."""
    elems = sorted(cover)
    by_col: dict = {}
    for e in elems:
        by_col.setdefault(cols[e], []).append(e)
    for i, x in enumerate(elems):
        cx = cols[x]
        if not cx:
            continue
        for y in elems[i + 1 :]:
            cy = cols[y]
            if not cy or cy == cx:
                continue
            for z in by_col.get(cx ^ cy, ()):
                if z > y:
                    return frozenset({x, y, z})
    return None


def _triad_fixups(tset: frozenset, x_inside, y_inside, pairs: Pairs) -> tuple:
    """The fix-up rule on a triad ``tset`` that the first bases of x and y
    meet in ``x_inside`` and ``y_inside``: (step_x, step_y), the steps (None
    for no step).  Both pairs must leave the same triad element alone on its
    side, which takes at most one exchange per pair, and which keeps the
    number of triad elements in each first basis; among the valid choices
    the one with fewest steps wins, then the lexicographically smallest.  A
    step's validity is read from the tableaux or forests of its pair's
    bases."""
    for inside in (x_inside, y_inside):
        if len(inside) not in (1, 2):
            raise ReductionError("triad must meet both bases")

    def step(inside, tabs, lone):
        """The step leaving ``lone`` alone on its side: () when it already
        is, None when the exchange is not valid."""
        if (lone in inside) != (len(inside) == 2):
            return ()
        if len(inside) == 2:
            e, (f,) = lone, tset - inside
        else:
            (e,), f = inside, lone
        valid = tabs[0].exchangeable(e, f) and tabs[1].exchangeable(f, e)
        return ExchangeStep(e, f) if valid else None

    def alone(inside):
        """The element a pair already leaves alone on its side."""
        (lone,) = tset - inside if len(inside) == 2 else inside
        return lone

    if alone(x_inside) == alone(y_inside):
        return None, None  # no step beats every choice that takes one

    best = None
    for lone in sorted(tset):
        step_x = step(x_inside, pairs.x, lone)
        step_y = None if step_x is None else step(y_inside, pairs.y, lone)
        if step_x is not None and step_y is not None:
            key = (bool(step_x) + bool(step_y), tuple(step_x), tuple(step_y))
            if best is None or key < best[0]:
                best = (key, step_x or None, step_y or None)
    if best is None:
        raise AssertionError("no consistent triad split exists; this cannot happen")
    return best[1:]


# -- the chain of reductions ---------------------------------------------------


class Chain:
    """A frame's chain of reductions, run in place.

    The state is the pairs' four bases (``pairs``: tableaux, or on a graph
    rooted forests, in ``Pairs``), F as a mutable set and the designated
    ``last`` element.  ``split`` and ``shrink`` apply a tight split and a
    triad reduction to it; a subclass picks each level's reduction
    (``reduce``: ("tight_split", ``split``'s result), ("triad",
    ``shrink``'s result), or None when none applies), takes the level's
    minors (``_cut``, ``_minor``) and hands the current frame back to the
    engine (``frame``: structure, instance, ``last``, pairs).  ``done``
    says when the frame is the identity or has rank at most 2."""

    __slots__ = ("forbidden", "last", "pairs")

    def __init__(self, inst: Instance, last, pairs: Pairs):
        self.forbidden = set(inst.forbidden)
        self.last = last
        self.pairs = pairs

    def done(self) -> bool:
        x1, x2, y1, y2 = self.pairs.bases()
        return len(x1) <= 2 or (x1 == y1 and x2 == y2)

    def _instance(self, m: Matroid) -> Instance:
        return _instance(m, self.pairs, self.forbidden)

    def split(self, outside: frozenset) -> tuple:
        """Split on the tight set z, the ground set minus ``outside``: the
        chain goes on in M | z, and M / z goes back to the engine (``_cut``
        takes both minors and returns M / z and z).  Returns (z,
        restrict_last, M / z's frame).  The parent runs the restriction's
        sequence first, or last when ``restrict_last`` (the designated last
        element lies in z), so that element stays last.  The pairs answer
        whether z is tight and are split between the two sides."""
        x1, x2, _, _ = self.pairs.bases()
        # the pairs cover the frame
        if not 0 < len(outside) < len(x1) + len(x2):
            raise ReductionError("tight set must be nonempty and proper")
        rest, z = self._cut(outside)
        if not self.pairs.tight(z, outside):
            raise ReductionError("set is not tight")
        rest_pairs = self.pairs.split(outside)
        rest_inst = _instance(rest.matroid, rest_pairs, self.forbidden & outside)
        last = self.last
        restrict_last = last is not None and last in z
        rest_last = last if last in outside else None
        self.last = last if restrict_last else None
        self.forbidden -= outside
        return z, restrict_last, (rest, rest_inst, rest_last, rest_pairs)

    def shrink(self, t: frozenset, dual: bool = False) -> tuple:
        """Shrink along the triad t: the fix-ups (``_triad_fixups``), which
        make both pairs split t the same way, then the child on M / t2 \\ t3,
        where t1 < t2 are the elements of t in the first basis of the fixed x
        (the pairs are swapped when it held one) and t3 is the third.
        Returns the certificate payload and the lift (``TriadLift``), whose
        frame is the parent's (``_minor``).  Width is preserved on surviving
        elements, and length grows by at most the number of t1 usages.

        With ``dual``, t is a triangle of M, a triad of M*, and the child
        lives on (M* / t2 \\ t3)* = M / t3 \\ t2.  The pairs are disjoint and
        covering, so a pair of bases of M is also one of M*, and an exchange
        is valid in both or in neither: the fix-ups and the lift ask M
        itself.  The fix-ups exchange in the pairs in place (``Pairs.fixed``;
        a pair that shares a basis with the other takes none), and the minor
        drops t2 and t3 from the bases."""
        if self.forbidden & t:
            raise ReductionError("forbidden set must avoid the triad")
        pairs = self.pairs
        x1, _, y1, _ = pairs.bases()
        x_inside = t & x1
        step_x, step_y = _triad_fixups(t, x_inside, t & y1, pairs)
        swapped = len(x_inside) == 1  # a fix-up keeps the count
        self.pairs = pairs = pairs.fixed(step_x, step_y, swapped)
        x1, _, y1, _ = pairs.bases()
        t1, t2 = sorted(t & x1)
        (t3,) = t - x1
        if (t1 in y1) != (t2 in y1):
            raise ReductionError("pairs are not consistent on the triad")
        contract, delete = (t3, t2) if dual else (t2, t3)
        pairs.minor(contract, delete)
        suffix = step_y.reversed() if step_y else None
        frame = self._minor(contract, delete)
        lift = TriadLift(t1, t2, t3, delete, swapped, step_x, suffix, frame)
        payload = {
            "triad": t,
            "t1": t1,
            "t2": t2,
            "t3": t3,
            "swapped": swapped,
            "fix_x": tuple(step_x) if step_x else None,
            "fix_y": tuple(step_y) if step_y else None,
        }
        if dual:
            payload["dualized"] = True
        return payload, lift
