"""Basis pairs, symmetric exchanges, sequence validation and the BFS oracle.

A symmetric exchange (e, f) on a pair (first, second) moves e from the first
basis to the second and f the other way; it is valid when both resulting sets
are bases.  Sequences carry length (step count) and width (maximum number of
occurrences of any single element).  The replay (``apply_and_validate``)
carries the pair as one rooted spanning forest per basis on a graph (a
cographic leaf's matrix on its graph, as the forests of the complements)
and one tableau per basis on any other GF(2) matrix: each step is read off
and moves them, and the final pair is built once from their keys.  On a caller's own
matroid it asks ``is_valid_exchange``, its rank-based reference, and builds
the pair at every step.  The BFS oracle
searches the exchange graph of a small matroid exhaustively between two
pairs of bases and certifies optimal distances and unreachability; the
engine also solves its rank <= 2 frames with its monotone search.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .matroid import Gf2Matroid, GraphicMatroid, GroundSetError, Matroid, _as_frozen


class ExchangeStep(NamedTuple):
    e: int  # leaves the first basis, enters the second
    f: int  # leaves the second basis, enters the first

    def reversed(self) -> "ExchangeStep":
        return ExchangeStep(self.f, self.e)


class ExchangeSequence:
    """Immutable ordered list of exchange steps with width/length accounting."""

    def __init__(self, steps=()):
        self.steps = tuple(ExchangeStep(*s) for s in steps)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def width(self) -> int:
        if not self.steps:
            return 0
        return max(self.occurrences().values())

    def occurrences(self) -> Counter:
        counts: Counter = Counter()
        for e, f in self.steps:
            counts[e] += 1
            counts[f] += 1
        return counts

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, ExchangeSequence) and self.steps == other.steps

    def __repr__(self):
        return f"ExchangeSequence({list(self.steps)})"

    def to_json_obj(self, label=None) -> list:
        conv = label if label is not None else (lambda x: x)
        return [{"e": conv(s.e), "f": conv(s.f)} for s in self.steps]


@dataclass(frozen=True)
class BasisPair:
    """Ordered pair of bases of one matroid."""

    first: frozenset
    second: frozenset
    matroid: Optional[Matroid] = None

    def swapped(self) -> "BasisPair":
        return BasisPair(self.second, self.first, self.matroid)

    @property
    def union(self) -> frozenset:
        return self.first | self.second

    @property
    def common(self) -> frozenset:
        return self.first & self.second


class SequenceValidationError(Exception):
    """A step of a sequence is invalid; carries the failing index and the
    offending step or element.  ``reason`` names them as ``{step}`` and
    ``{element}``, which ``describe`` fills in."""

    def __init__(self, index: int, reason: str, step=None, element=None):
        self.index = index
        self.reason = reason
        self.step = step
        self.element = element
        super().__init__(f"step {index}: {self.describe()}")

    def describe(self, label=str) -> str:
        """The reason, with the step and element written through ``label``
        (for instance a file's element labels)."""
        step = None if self.step is None else f"({label(self.step[0])}, {label(self.step[1])})"
        element = None if self.element is None else label(self.element)
        return self.reason.format(step=step, element=element)


class ForbiddenElementError(SequenceValidationError):
    """A step touched an element of the forbidden set."""

    def __init__(self, index: int, element):
        super().__init__(index, "forbidden element {element} used", element=element)


def _applies(pair: BasisPair, step) -> bool:
    """The step moves an element of the first basis only and one of the
    second basis only."""
    e, f = step
    return e in pair.first and e not in pair.second and f in pair.second and f not in pair.first


def is_valid_exchange(pair: BasisPair, step: ExchangeStep) -> bool:
    """True when the step applies to the pair and both results are bases,
    by two rank queries."""
    if not _applies(pair, step):
        return False
    e, f = step
    m = pair.matroid
    return m.is_basis(pair.first - {e} | {f}) and m.is_basis(pair.second - {f} | {e})


def apply_step(pair: BasisPair, step: ExchangeStep) -> BasisPair:
    e, f = step
    return BasisPair(pair.first - {e} | {f}, pair.second - {f} | {e}, pair.matroid)


def apply_and_validate(pair: BasisPair, seq, forbidden=()) -> BasisPair:
    """Apply steps in order, checking validity and F-avoidance at each one.

    On a graph, one rooted spanning forest per basis carries the pair
    (``RootedForest``), and on a GF(2) matrix one tableau per basis: a step
    (e, f) is valid when the first side's ``exchange(e, f)`` and the
    second's ``exchange(f, e)`` both succeed, and the final pair is read
    from their keys.  A matrix built as the dual of a graph G
    (``Gf2Matroid.dual_of``, a cographic leaf's) carries the pair as the
    forests of E - X1 and E - X2 instead: (e, f) on (X1, X2) in M*(G) is
    (e, f) on (E - X2, E - X1) in M(G).  Only on a caller's own matroid,
    and from a start that is not a pair of bases, ``is_valid_exchange``
    asks the rank oracle at every step."""
    avoid = _as_frozen(forbidden)
    m = pair.matroid
    graph = getattr(m, "dual_of", None)
    if graph is not None and pair.union <= m.ground:
        ground = m.ground
        final = _replay(graph, ground - pair.second, ground - pair.first, seq, avoid)
        if final is not None:
            return BasisPair(ground - final[1], ground - final[0], m)
    elif isinstance(m, (Gf2Matroid, GraphicMatroid)):
        final = _replay(m, pair.first, pair.second, seq, avoid)
        if final is not None:
            return BasisPair(*final, m)
    current = pair
    for k, step in enumerate(seq):
        step = ExchangeStep(*step)
        e, f = step
        if e in avoid or f in avoid:
            raise ForbiddenElementError(k, e if e in avoid else f)
        if not is_valid_exchange(current, step):
            raise SequenceValidationError(k, "invalid exchange {step}", step=step)
        current = apply_step(current, step)
    return current


def _replay(m: Matroid, first, second, seq, avoid) -> Optional[tuple]:
    """``apply_and_validate`` on the forests (graph) or tableaux (GF(2)) of
    the bases ``first`` and ``second`` of ``m``, moved in place: the final
    two bases, or None when the two sets are not bases."""
    build = m.forest if isinstance(m, GraphicMatroid) else m.tableau
    try:
        first, second = build(first), build(second)
    except GroundSetError:
        return None
    for k, (e, f) in enumerate(seq):
        if e in avoid or f in avoid:
            raise ForbiddenElementError(k, e if e in avoid else f)
        if not (first.exchange(e, f) and second.exchange(f, e)):
            raise SequenceValidationError(k, "invalid exchange {step}", step=ExchangeStep(e, f))
    return first.basis(), second.basis()


def check_reversal(x: BasisPair, seq, last=None) -> None:
    """Check that ``seq`` reverses the disjoint pair ``x`` in exactly r
    strictly monotone steps (each moves two elements that have not moved
    yet), the last one using ``last`` when it is given.  Raises
    SequenceValidationError at the first failing step; whether each step is
    a valid exchange is ``apply_and_validate``'s check."""
    first, second = set(x.first), set(x.second)  # elements not moved yet
    steps = list(seq)
    for k, (e, f) in enumerate(steps):
        if e not in first or f not in second:
            raise SequenceValidationError(k, "step {step} is not monotone", step=(e, f))
        first.remove(e)
        second.remove(f)
    if first:
        raise SequenceValidationError(len(steps), f"{len(first)} elements have not moved")
    if last is not None and not (steps and last in steps[-1]):
        raise SequenceValidationError(
            max(len(steps) - 1, 0),
            "the last step does not use the designated element {element}",
            element=last,
        )


def compatible(x: BasisPair, y: BasisPair) -> bool:
    """Necessary condition for equivalence: multiset unions agree elementwise."""
    return x.common == y.common and x.union == y.union


UNREACHABLE = "unreachable"


class CapacityError(Exception):
    """Ground set too large for exhaustive search."""


class BfsResult(NamedTuple):
    distance: int
    sequence: ExchangeSequence


def bfs_oracle(
    m: Matroid,
    x: BasisPair,
    y: BasisPair,
    forbidden=(),
    monotone: bool = False,
    cap: int = 16,
):
    """Exhaustive breadth-first search over the exchange graph.

    Returns BfsResult(optimal distance, one optimal sequence) or the string
    UNREACHABLE.  States are canonicalized to the first basis: exchanges never
    move common elements and never change the union, so the second basis is
    determined by the first.  With ``monotone`` only steps shrinking the
    symmetric difference to the target first basis are taken; such a search
    returns exactly |X1 - Y1| steps when it succeeds.

    ``x`` and ``y`` must be pairs of bases of ``m``: every state's two sides
    have as many elements as x's, so a step is valid when both are
    independent, and the search never asks the rank of the whole ground set.
    """
    if len(m.ground) > cap:
        raise CapacityError(f"|E| = {len(m.ground)} exceeds the BFS cap {cap}")
    if not compatible(x, y):
        return UNREACHABLE
    avoid = _as_frozen(forbidden)
    common = x.common
    live = tuple(sorted(x.union - common))
    target = frozenset(y.first - common)
    start = frozenset(x.first - common)

    toward = target if monotone else None
    parents = {start: None}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        if a == target:
            break
        for na, step in _exchanges(m, common, live, a, avoid, toward, parents):
            parents[na] = (a, step)
            queue.append(na)
    if target not in parents:
        return UNREACHABLE
    steps = []
    node = target
    while parents[node] is not None:
        node, step = parents[node]
        steps.append(step)
    steps.reverse()
    return BfsResult(len(steps), ExchangeSequence(steps))


def _exchanges(m: Matroid, common, live, a, avoid, toward, seen):
    """Unseen states one valid exchange from the state ``a`` (the first basis
    minus ``common``), each with its step, in the order the search explores
    them.  With ``toward`` set, only steps moving both bases toward
    that first basis are taken.  ``seen`` is read as the caller fills it."""
    others = [z for z in live if z not in a]
    rest = frozenset(live)
    for e in sorted(a):
        if e in avoid or (toward is not None and e in toward):
            continue
        for f in others:
            if f in avoid or (toward is not None and f not in toward):
                continue
            na = a - {e} | {f}
            if na in seen:
                continue
            if m.is_independent(common | na) and m.is_independent(common | (rest - na)):
                yield na, ExchangeStep(e, f)
