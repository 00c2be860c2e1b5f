"""Instance reductions: uncovered elements, common elements, tight sets and
size-three cocircuits.  The rank <= 2 frames they end on are solved by the
exhaustive search of ``exchange.bfs_oracle`` (see ``pipeline``).

Each reduction shrinks an instance and records its lift as data: the order
in which the parent runs its children's sequences, and for a triad the
elements, fix-up steps and frame data that replace each child step using
t1 (``TriadLift``).  ``Reduction.lift`` maps solved child sequences back to
the parent one level at a time, preserving F-avoidance and, where stated,
the element used in the last step; the engine (``pipeline``) instead lifts
the whole reduction tree in one forward pass with the same replacement.
Certificates record what was applied so a solve can be replayed
deterministically.

The tight-set split and the triad reduction read the tableaux of the
instance's bases (``PairTableaux``), built when not given: tightness and the
fix-up checks are bits, and the reduction hands the tableaux on to its
children, updated in place.  The triad and triangle searches read a GF(2)
matrix: the frame's own, or a tableau's transpose for the dual.  The
updates need a binary matroid, and the engine solves every frame as a graph
or a GF(2) matrix.  A graph's chain (``graphic.GraphChain``) runs the
same split, fix-up rule (``_triad_fixups``) and tableau updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .matroid import Matroid, Gf2Matroid, GroundSetError, _as_frozen, _bits, _decode, _encode
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
        union, and its target is x swapped.  Then all four members must be
        bases, the pairs compatible, and F inside (X1 ∩ Y1) ∪ (X2 ∩ Y2), so a
        reversal takes no F.  The pairs are BasisPairs or (first, second)."""
        x = _as_pair(m, x)
        if mode == "gabow":
            if x.first & x.second:
                raise IncompatiblePairsError("reversal needs disjoint bases")
            if last is not None and last not in x.union:
                raise ReductionError("designated last element must lie in one of the bases")
            y = x.swapped()
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

    def validate(self) -> None:
        """Raise unless the instance passes the entry rules of a transform."""
        Instance.checked(self.matroid, "white", self.x, self.y, self.forbidden)


def _as_pair(m: Matroid, pair) -> BasisPair:
    """``pair`` (a BasisPair or (first, second)) as a BasisPair of m."""
    if isinstance(pair, BasisPair):
        return BasisPair(pair.first, pair.second, m)
    first, second = pair
    return BasisPair(_as_frozen(first), _as_frozen(second), m)


class PairTableaux:
    """The tableaux of an instance's four bases: ``x`` holds those of
    x.first and x.second, ``y`` those of y.first and y.second.  Equal bases
    share one tableau, so each update is made once per distinct basis.  The
    updates follow the reductions: ``split`` along a tight set, ``fixed``
    for the triad fix-ups and ``minor`` for the triad's child."""

    __slots__ = ("x", "y")

    def __init__(self, x: tuple, y: tuple):
        self.x = x
        self.y = y

    @classmethod
    def of(cls, inst: Instance) -> "PairTableaux":
        bases = (inst.x.first, inst.x.second, inst.y.first, inst.y.second)
        built = {basis: inst.matroid.tableau(basis) for basis in dict.fromkeys(bases)}
        tabs = tuple(built[basis] for basis in bases)
        return cls(tabs[:2], tabs[2:])

    def _distinct(self):
        return {id(tab): tab for tab in self.x + self.y}.values()

    def split(self, outside: frozenset) -> "PairTableaux":
        """Keep the tableaux of the bases' parts inside the tight set z, the
        ground set minus ``outside``, in M | z, and return those of the parts
        outside it, in M / z (``Tableau.split``)."""
        rest = {id(tab): tab.split(outside) for tab in self._distinct()}
        return PairTableaux(
            tuple(rest[id(tab)] for tab in self.x), tuple(rest[id(tab)] for tab in self.y)
        )

    def fixed(self, step_x, step_y, swapped: bool) -> "PairTableaux":
        """The tableaux after the fix-up steps (None for no step), and with
        each pair's two bases trading places when ``swapped``.  A step
        pivots its pair's tableaux in place, except one the other pair
        shares (y = x swapped for a reversal, or an equal basis), which it
        pivots a copy of."""

        def exchanged(pair, other, step):
            if step is None:
                return pair
            e, f = step
            first, second = (tab.copy() if tab in other else tab for tab in pair)
            first.pivot(e, f)
            second.pivot(f, e)
            return first, second

        x = exchanged(self.x, self.y, step_x)
        y = exchanged(self.y, x, step_y)
        if swapped:
            x, y = x[::-1], y[::-1]
        return PairTableaux(x, y)

    def minor(self, contract: int, delete: int) -> None:
        """Move every tableau to M / contract \\ delete (``Tableau.minor``)."""
        for tab in self._distinct():
            tab.minor(contract, delete)


@dataclass(frozen=True)
class ReductionCertificate:
    kind: str
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TriadLift:
    """A triad reduction's lift as data.  The child lives on M / t2 \\ t3
    (or M / t3 \\ t2 for a triangle, ``delete`` names which), in the
    orientation of the fixed pairs, swapped when ``swapped``.  The parent
    runs ``prefix`` (the x fix-up, or None), then the child's steps with each
    one using t1 replaced by two (``replace``), then ``suffix`` (the reversed
    y fix-up, or None).  The child is not kept, only what the one query of a
    replacement reads: the parent's ``frame``, whose ``ground`` is the
    parent's ground set and whose ``_independent`` answers the query.  That
    is the frame's graph or GF(2) matrix, or for a level of a graph solve's
    chain (``graphic.GraphChain``) a copy of that level's edge ends
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

    def lift(self, seq, start: BasisPair) -> list:
        """The parent's steps for the child's sequence ``seq`` from the
        child's start pair ``start``."""
        out = []
        cur1, cur2 = set(start.first), set(start.second)  # the child's pair, step by step
        for e, f in seq:
            out += self.replace(e, f, cur1, cur2) if self.t1 in (e, f) else [ExchangeStep(e, f)]
            cur1.discard(e)
            cur1.add(f)
            cur2.discard(f)
            cur2.add(e)
        if self.swapped:
            out = [s.reversed() for s in out]
        return [s for s in (self.prefix, *out, self.suffix) if s is not None]


@dataclass
class Reduction:
    """One applied reduction: child instances, certificate, and its lift as
    data.

    The parent runs its children's sequences in ``order`` (child indices),
    each through ``triad`` for a triad reduction.  ``lift`` takes one solved
    sequence per child (in child order) and returns the list of parent steps.
    ``tableaux`` holds, per child, the ``PairTableaux`` of its bases (None
    for the strips).
    """

    children: list
    certificate: ReductionCertificate
    order: tuple = (0,)
    triad: Optional[TriadLift] = None
    tableaux: Optional[list] = None

    def lift(self, *seqs) -> list:
        if self.triad is not None:
            (seq,) = seqs
            return self.triad.lift(seq, self.children[0].x)
        return [step for i in self.order for step in seqs[i]]


def default_minor(m: Matroid, contract=(), delete=(), parallel=None) -> Matroid:
    """M / contract \\ delete.  ``parallel``, when given, names the two
    elements of a minor known to be a parallel pair (rank 1, neither a
    loop), which is then built directly (``Matroid.parallel_pair``)."""
    if parallel is not None:
        return m.parallel_pair(*parallel)
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
    return Reduction([child], cert)


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
    return Reduction([child], cert)


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


def split_on_tight_set(
    inst: Instance, z, minor=default_minor, restrict_last: bool = False, tableaux=None
) -> Reduction:
    """Split into the restriction to Z and the contraction of Z.

    The lift concatenates the two solved sequences; by default the
    restriction part runs first, so a designated last-step element of the
    contraction part stays last.  ``restrict_last`` flips the order, which is
    equally valid and keeps a last-step element inside Z last instead.
    The tableaux (built when not given) answer whether Z is tight
    (``_tight_in_tableaux``) and are split in place between the two sides.
    With two elements outside Z (E - delta(u) at a degree-2 vertex u of a
    graph) M / Z has rank |E - Z| / 2 = 1 and each basis keeps one of the
    two, so it is a parallel pair and is built as one, without contracting
    Z.
    """
    z = _as_frozen(z)
    m = inst.matroid
    if not z or z >= m.ground:
        raise ReductionError("tight set must be nonempty and proper")
    outside = m.ground - z
    tableaux = tableaux or PairTableaux.of(inst)
    if not _tight_in_tableaux((inst.x.first, inst.x.second), tableaux.x, z, outside):
        raise ReductionError("set is not tight")
    m_z = minor(m, frozenset(), outside)
    if len(outside) == 2:
        m_rest = minor(m, z, frozenset(), parallel=tuple(sorted(outside)))
    else:
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
    order = (1, 0) if restrict_last else (0, 1)
    return Reduction(
        [child_z, child_rest], cert, order, tableaux=[tableaux, tableaux.split(outside)]
    )


def _tight_in_tableaux(bases: tuple, tabs, z: frozenset, outside: frozenset) -> bool:
    """|Z| = 2 r(Z), read from the tableaux ``tabs`` of the two ``bases``:
    each basis B meets Z in |Z|/2 elements and spans Z with them, that is,
    no element of Z - B has a circuit that leaves Z (no C*(B, b) of a b
    outside Z meets Z).  The cocircuits are masked with the smaller of Z
    and ``outside`` (the ground set minus Z).  The mask of Z holds only
    elements of the ground set, so stale bits are skipped; a bit that a
    cocircuit holds beyond the mask of ``outside`` is in Z exactly when it
    has a circuit of its own.  The test is exact when the bases partition
    the ground set, as after the strips; for any other pair it may only
    wrongly say no."""
    for basis in bases:
        if 2 * (len(basis) - len(outside & basis)) != len(z):
            return False
    if len(outside) < len(z):
        keep = ~_encode(outside)
        for basis, tab in zip(bases, tabs):
            circuits, cocircuits = tab.circuits, tab.cocircuits
            for b in basis & outside:
                if any(y in circuits for y in _bits(cocircuits[b] & keep)):
                    return False
        return True
    zmask = _encode(z)
    for basis, tab in zip(bases, tabs):
        cocircuits = tab.cocircuits
        if any(cocircuits[b] & zmask for b in basis - z):
            return False
    return True


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


def make_consistent_on_triad(inst: Instance, triad, tableaux=None):
    """Fix-up exchanges making both pairs split the triad the same way.

    Returns (step_x, step_y, fixed_instance); each step is None when the
    corresponding pair needs no change.  The steps follow ``_triad_fixups``,
    with validity read from ``tableaux``, built when not given.
    """
    tset = _as_frozen(triad)
    m = inst.matroid
    tableaux = tableaux or PairTableaux.of(inst)
    step_x, step_y, cx, cy = _triad_fixups(tset, inst.x.first & tset, inst.y.first & tset, tableaux)

    def fixed_pair(pair: BasisPair, first_t) -> BasisPair:
        second_t = tset - first_t
        if pair.first & tset == first_t and pair.second & tset == second_t:
            return BasisPair(pair.first, pair.second, m)
        return BasisPair((pair.first - tset) | first_t, (pair.second - tset) | second_t, m)

    fixed = Instance(m, fixed_pair(inst.x, cx), fixed_pair(inst.y, cy), inst.forbidden)
    return step_x, step_y, fixed


def _triad_fixups(tset: frozenset, x_inside, y_inside, tableaux: PairTableaux) -> tuple:
    """The fix-up rule on a triad ``tset`` that the first bases of x and y
    meet in ``x_inside`` and ``y_inside``: (step_x, step_y, cx, cy), the
    steps (None for no step) and the triad elements of each first basis
    after them.  Both pairs must leave the same triad element alone on its
    side, which takes at most one exchange per pair; among the valid
    choices the one with fewest steps wins, then the lexicographically
    smallest.  A step's validity is read from the tableaux of its pair's
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

    best = None
    for lone in sorted(tset):
        step_x, step_y = step(x_inside, tableaux.x, lone), step(y_inside, tableaux.y, lone)
        if step_x is not None and step_y is not None:
            key = (bool(step_x) + bool(step_y), tuple(step_x), tuple(step_y))
            if best is None or key < best[0]:
                best = (key, step_x or None, step_y or None, lone)
    if best is None:
        raise AssertionError("no consistent triad split exists; this cannot happen")
    _, step_x, step_y, lone = best
    cx, cy = (
        tset - {lone} if len(inside) == 2 else frozenset({lone}) for inside in (x_inside, y_inside)
    )
    return step_x, step_y, cx, cy


def reduce_triad(
    inst: Instance, triad, minor=default_minor, tableaux=None, dual: bool = False
) -> Reduction:
    """Shrink along a triad: contract one of its first-basis elements and
    delete the second-basis one.

    Applies the consistency fix-ups first; the child instance lives on
    M / t2 \\ t3.  The lift (``TriadLift``) re-inflates every intermediate
    pair (t2 joins the side holding t1, t3 the other side) and replaces each
    step using t1 by two steps: the first option when one independence test
    finds its middle pair to consist of bases, else the second, whose pair then
    does, as a circuit and a cocircuit never share exactly one element
    (``TriadLift.replace``).  The parent's rank is read from the child's
    pair, never from a query of its ground set.  Width is preserved on
    surviving elements and length grows by at most the number of t1 usages.

    With ``dual``, ``triad`` is a triangle of M, a triad of M*, and the
    child lives on (M* / t2 \\ t3)* = M / t3 \\ t2.  The pairs must be
    disjoint and covering: then a pair of bases of M is also one of M*, and
    an exchange is valid in both or in neither, so the fix-ups and the lift
    ask M itself.  The fix-ups pivot the tableaux (built when not given) in
    place, copying only one the other pair shares (``PairTableaux.fixed``),
    and they become the child's.
    """
    t = _as_frozen(triad)
    if inst.forbidden & t:
        raise ReductionError("forbidden set must avoid the triad")
    m = inst.matroid
    if dual and (inst.x.first & inst.x.second or inst.x.union != m.ground):
        raise ReductionError("a triangle reduction needs a disjoint covering pair")
    tableaux = tableaux or PairTableaux.of(inst)
    step_x, step_y, fixed = make_consistent_on_triad(inst, t, tableaux)

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

    contract, delete = (t3, t2) if dual else (t2, t3)
    child_m = minor(m, frozenset({contract}), frozenset({delete}))
    child = Instance(
        child_m,
        BasisPair(work.x.first - {t2}, work.x.second - {t3}, child_m),
        BasisPair(y_child.first, y_child.second, child_m),
        work.forbidden,
    )
    child_tableaux = tableaux.fixed(step_x, step_y, swapped)
    child_tableaux.minor(contract, delete)
    cert = ReductionCertificate("triad", _triad_payload(t, t1, t2, t3, swapped, step_x, step_y))
    lift = TriadLift(
        t1, t2, t3, delete, swapped, step_x, step_y.reversed() if step_y else None, m
    )
    return Reduction([child], cert, triad=lift, tableaux=[child_tableaux])


def _triad_payload(t, t1, t2, t3, swapped, step_x, step_y) -> dict:
    """A triad reduction's certificate payload."""
    return {
        "triad": t,
        "t1": t1,
        "t2": t2,
        "t3": t3,
        "swapped": swapped,
        "fix_x": tuple(step_x) if step_x else None,
        "fix_y": tuple(step_y) if step_y else None,
    }
