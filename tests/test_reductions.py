import itertools
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from baseswap.exchange import (
    BasisPair,
    ExchangeSequence,
    ExchangeStep,
    apply_and_validate,
    apply_step,
    is_valid_exchange,
)
from baseswap.matroid import (
    Gf2Matroid, GraphicMatroid, GroundSetError, RootedForest, graphic_matroid,
)
from baseswap.reductions import (
    Instance,
    Pairs,
    ReductionError,
    find_nontrivial_tight_set,
    find_triad,
    find_triangle,
)
from baseswap.gen import random_bispanning_graph, random_exchange_walk, random_forbidden_set
from baseswap.graphic import GraphChain, _numbered
from baseswap.pipeline import MatrixChain, UnsupportedStructureError, _bfs_solve
from baseswap.structure import as_structure, gf2_view, graphic_leaf

from conftest import (
    A, B, C, D, E, F, K4_EDGES, ReferencePairs, brute_tight_sets, chain_level, checked_replace,
    frame_pairs, random_basis, reference_find_triad, reference_rank_le2, reference_sinks,
    reference_tight_set, strip_level, subsets,
)


def reversal_instance(m, pair):
    return Instance(m, pair, pair.swapped())


def on_incidence(inst) -> Instance:
    """``inst``, on a graph, moved onto the graph's GF(2) incidence matrix,
    where the engine runs a GF(2) frame's chain."""
    view = gf2_view(graphic_leaf(inst.matroid.graph))
    x, y = (BasisPair(pair.first, pair.second, view) for pair in (inst.x, inst.y))
    return Instance(view, x, y, inst.forbidden)


def entry_checked(inst) -> Instance:
    """The instance after the entry rules of a transform."""
    return Instance.checked(inst.matroid, "white", inst.x, inst.y, inst.forbidden)


class TestDeleteUncovered:
    def test_f7_disjoint_pairs_shrink_to_six(self):
        from baseswap.special import f7_matroid

        m = f7_matroid()
        x = BasisPair(frozenset({0, 1, 2}), frozenset({3, 4, 6}), m)
        assert m.is_basis(x.first) and m.is_basis(x.second)
        child, nodes = strip_level(Instance(m, x, x.swapped()))
        assert [node.kind for node in nodes] == ["delete_uncovered"]
        assert len(child.matroid.ground) == 6

    def test_covering_instance_unchanged(self, k4):
        m, x, y = k4
        inst = Instance(m, x, y)
        assert strip_level(inst) == (inst, [])

    def test_extra_parallel_class_removed(self):
        edges = {0: (1, 2), 1: (1, 2), 2: (2, 3), 3: (2, 3), 4: (1, 3), 5: (1, 3)}
        m = graphic_matroid(edges)
        x = BasisPair(frozenset({0, 2}), frozenset({1, 3}), m)
        child, nodes = strip_level(Instance(m, x, x.swapped()))
        assert [(node.kind, node.payload) for node in nodes] == [("delete_uncovered", {"removed": {4, 5}})]
        entry_checked(child)


class TestContractCommon:
    def test_disjoint_unchanged(self, k4):
        m, x, y = k4
        inst = Instance(m, x, y)
        assert strip_level(inst) == (inst, [])

    def test_overlapping_pairs_contract_and_lift(self):
        # 5-edge graph with g shared by both first bases; the steps of the
        # contraction are the parent's
        edges = {0: (1, 2), 1: (2, 3), 2: (1, 3), 3: (2, 4), 4: (3, 4)}
        m = graphic_matroid(edges)
        x = BasisPair(frozenset({0, 1, 3}), frozenset({0, 2, 4}), m)
        y = BasisPair(frozenset({0, 2, 3}), frozenset({0, 1, 4}), m)
        inst = entry_checked(Instance(m, x, y))
        child, nodes = strip_level(inst)
        assert [(node.kind, node.payload) for node in nodes] == [("contract_common", {"contracted": {0}})]
        assert child.matroid.full_rank == m.full_rank - 1
        entry_checked(child)
        final = apply_and_validate(x, reference_rank_le2(child))
        assert final.first == y.first and final.second == y.second


class TestTightSets:
    def test_dt_finds_parallel_class(self, dt):
        m, x = dt
        assert find_nontrivial_tight_set(m, x) == {0, 1}

    def test_k4_none(self, k4):
        m, x, _ = k4
        assert find_nontrivial_tight_set(m, x) is None
        assert brute_tight_sets(m) == []

    def test_one_sum_side_is_tight(self):
        from baseswap.matroid import SumSpec
        from baseswap.structure import compose_sum

        left = graphic_matroid({i: K4_EDGES[i] for i in range(6)})
        right_edges = {i + 6: (u + 10, v + 10) for i, (u, v) in K4_EDGES.items()}
        right = graphic_matroid(right_edges)
        s = compose_sum(left, right, SumSpec(1))
        x = BasisPair(
            frozenset({0, 1, 2, 6, 7, 8}), frozenset({3, 4, 5, 9, 10, 11}), s
        )
        z = find_nontrivial_tight_set(s, x)
        assert z in (frozenset(range(6)), frozenset(range(6, 12)))

    def test_requires_disjoint_covering(self, k4):
        m, x, _ = k4
        with pytest.raises(GroundSetError):
            find_nontrivial_tight_set(m, BasisPair(x.first, x.first))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_finder_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g, pair = random_bispanning_graph(rng.randint(3, 6), rng)
        from baseswap.matroid import GraphicMatroid

        m = GraphicMatroid(g)
        found = find_nontrivial_tight_set(m, pair)
        brute = brute_tight_sets(m)
        if found is None:
            assert brute == []
        else:
            assert len(found) == 2 * m.rank(found)
            assert found in brute

    @staticmethod
    def covering_pairs(seed):
        """Two disjoint covering pairs for one seed, each moved by a short
        random walk: a GF(2) matrix [I | A] on scattered element ids, with A
        block upper triangular over random invertible blocks, so that its
        digraph often has several components and sinks; and the GF(2)
        encoding of a bispanning graph."""
        rng = random.Random(seed)
        r = rng.randint(2, 9)
        cuts = sorted(rng.sample(range(1, r), rng.randint(0, min(3, r - 1))))
        a = [1 << b for b in range(r)]
        for lo, hi in zip([0] + cuts, cuts + [r]):
            for _ in range(3 * (hi - lo)):  # column additions inside a block
                if hi - lo > 1:
                    i, j = rng.sample(range(lo, hi), 2)
                    a[i] ^= a[j]
            for col in range(lo, hi):  # rows above the block couple it to earlier ones
                a[col] ^= rng.getrandbits(lo) if rng.random() < 0.5 else 0
        ids = rng.sample(range(40), 2 * r)
        cols = {ids[b]: 1 << b for b in range(r)}
        cols.update({ids[r + b]: a[b] for b in range(r)})
        m = Gf2Matroid(cols)
        x = BasisPair(frozenset(ids[:r]), frozenset(ids[r:]), m)
        yield m, random_exchange_walk(m, x, rng.randint(0, 4), rng)
        g, pair = random_bispanning_graph(rng.randint(3, 8), rng)
        view = gf2_view(graphic_leaf(g))
        yield view, random_exchange_walk(view, BasisPair(pair.first, pair.second, view),
                                         rng.randint(0, 6), rng)

    @staticmethod
    def stale_tableaux(m, x):
        """The pair's tableaux with bits set at ids outside the ground set."""
        tabs = Pairs.of(Instance(m, x, x)).x
        for tab in tabs:
            for masks in (tab.circuits, tab.cocircuits):
                masks.update((e, c | 1 << 60 | 1 << 41) for e, c in masks.items())
        return tabs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mask_search_matches_reference(self, seed):
        for m, x in self.covering_pairs(seed):
            want = reference_tight_set(m, x)
            assert find_nontrivial_tight_set(m, x) == want
            assert find_nontrivial_tight_set(m, x, self.stale_tableaux(m, x)) == want

    def test_mask_search_cases(self):
        # the digraph is strongly connected, has one proper sink, or has
        # several; the search returns the reference set in each case
        shapes = Counter()
        for seed in range(80):
            for m, x in self.covering_pairs(seed):
                sinks = reference_sinks(m, x)
                shapes[min(len(sinks), 2) if len(sinks[0]) < len(m.ground) else 0] += 1
                want = reference_tight_set(m, x)
                assert find_nontrivial_tight_set(m, x, self.stale_tableaux(m, x)) == want
        assert min(shapes[k] for k in (0, 1, 2)) >= 5, shapes

    def test_split_on_dt(self, dt):
        m, x = dt
        y = BasisPair(frozenset({1, 2}), frozenset({0, 3}), m)
        inst = Instance(m, x, y)
        for graph in (False, True):
            level = chain_level(inst, z={0, 1}, graph=graph)
            ranks = [c.matroid.full_rank for c in level.children]
            assert ranks == [1, 1]
            seqs = [reference_rank_le2(c) for c in level.children]
            lifted = level.lift(*seqs)
            assert len(lifted) == sum(len(s) for s in seqs)
            final = apply_and_validate(x, ExchangeSequence(lifted))
            assert final.first == y.first

    def test_split_order_flip(self, dt):
        # a designated last element inside z runs the restriction last
        m, x = dt
        y = BasisPair(frozenset({1, 3}), frozenset({0, 2}), m)
        inst = Instance(m, x, y)
        for last, restrict_last in ((None, False), (2, False), (0, True)):
            level = chain_level(inst, z={0, 1}, last=last)
            assert level.payload["restrict_last"] is restrict_last
            seqs = [reference_rank_le2(c) for c in level.children]
            lifted = level.lift(*seqs)
            final = apply_and_validate(x, ExchangeSequence(lifted))
            assert final.first == y.first

    def test_not_tight_rejected(self, k4):
        m, x, y = k4
        inst = Instance(m, x, y)
        # {A, B} meets X1 in two elements; {A, D} meets each basis once,
        # but D's circuit in X1 leaves it
        for z in ({A, B}, {A, D}):
            with pytest.raises(ReductionError, match="set is not tight"):
                chain_level(inst, z=z)
        for z in (set(), m.ground):
            with pytest.raises(ReductionError, match="nonempty and proper"):
                chain_level(inst, z=z)

    @staticmethod
    def partitioned_instances():
        """(matroid, pair partitioning its ground set): bispanning graphs,
        and the GF(2) matrices [I | A] for an invertible A; each pair is
        moved by a short random walk."""
        for seed in range(40):
            rng = random.Random(seed)
            if seed % 2:
                m, x = random_bispanning_graph(rng.randint(3, 7), rng)
                m = GraphicMatroid(m)
            else:
                r = rng.randint(2, 5)
                a = [1 << b for b in range(r)]
                for _ in range(3 * r):  # column additions keep A invertible
                    i, j = rng.sample(range(r), 2)
                    a[i] ^= a[j]
                cols = {b: 1 << b for b in range(r)}
                cols.update({r + b: a[b] for b in range(r)})
                m = Gf2Matroid(cols)
                x = BasisPair(frozenset(range(r)), frozenset(range(r, 2 * r)), m)
            yield m, random_exchange_walk(m, x, rng.randint(0, 4), rng)

    def test_tableau_verdict_matches_rank(self):
        # every tight set of a partitioned ground set, drawn sets, drawn
        # sets that meet each basis in the same number of elements, and
        # drawn sets with two elements outside; the tableaux carry stale
        # bits at ids outside the ground set, which must be skipped.  The
        # level without tableaux builds fresh ones
        stale = 1 << 60 | 1 << 61
        rng = random.Random(7)
        verdicts = set()
        two_outside = set()
        for m, x in self.partitioned_instances():
            assert m.is_basis(x.first) and m.is_basis(x.second)
            inst = Instance(m, x, x)
            ground = sorted(m.ground)
            r = len(x.first)
            drawn = set()
            for _ in range(30):
                drawn.add(frozenset(rng.sample(ground, rng.randint(1, len(ground) - 1))))
                k = rng.randint(1, r - 1)
                drawn.add(frozenset(rng.sample(sorted(x.first), k) + rng.sample(sorted(x.second), k)))
                drawn.add(m.ground - {rng.choice(sorted(x.first)), rng.choice(sorted(x.second))})
            for z in set(brute_tight_sets(m)) | drawn:
                tabs = Pairs.of(inst)
                for tab in tabs.x:
                    for masks in (tab.circuits, tab.cocircuits):
                        masks.update((e, c | stale) for e, c in masks.items())
                tight = len(z) == 2 * m.rank(z)
                for given in (tabs, None):
                    try:
                        chain_level(inst, z=z, tableaux=given)
                        verdict = True
                    except ReductionError as err:
                        assert str(err) == "set is not tight"
                        verdict = False
                    assert verdict == tight
                verdicts.add((tight, 2 * len(x.first & z) == len(z)))
                if len(m.ground - z) == 2:
                    two_outside.add(tight)
        # tight sets, sets failing the count, and balanced sets that x.first
        # does not span all occur, and so do sets with two elements outside
        # that are tight and that are not
        assert verdicts == {(True, True), (False, False), (False, True)}
        assert two_outside == {True, False}

    @staticmethod
    def two_outside_splits():
        """(instance, z) with exactly two elements outside the tight set z:
        E - delta(u) at each degree-2 vertex u of bispanning graphs, on the
        graph and on its GF(2) incidence matrix, with pairs moved by short
        random walks."""
        for seed in range(30):
            rng = random.Random(seed)
            g, pair = random_bispanning_graph(rng.randint(3, 9), rng)
            for m in (GraphicMatroid(g), graphic_leaf(g).gf2):
                x = random_exchange_walk(m, BasisPair(pair.first, pair.second, m), rng.randint(0, 4), rng)
                y = random_exchange_walk(m, x, rng.randint(0, 4), rng)
                for u, d in g.degree().items():
                    if d == 2:
                        yield Instance(m, x, y), m.ground - g.incident(u)

    def test_two_outside_split_builds_the_contraction(self):
        # the rest side is built as a parallel pair, not contracted; it must
        # be M / Z all the same, of the frame's own backend (a graph's from
        # its chain), with fresh tableaux
        backends = set()
        for inst, z in self.two_outside_splits():
            m = inst.matroid
            want = m.minor(contract=z)
            level = chain_level(inst, z=z, graph=isinstance(m, GraphicMatroid))
            rest = level.children[1]
            assert type(rest.matroid) is type(m)
            assert rest.matroid.ground == want.ground and len(want.ground) == 2
            for s in subsets(sorted(want.ground)):
                assert rest.matroid.rank(s) == want.rank(s)
            for got, pair in ((rest.x, inst.x), (rest.y, inst.y)):
                assert (got.first, got.second) == (pair.first - z, pair.second - z)
            Instance.checked(want, "white", rest.x, rest.y)
            for child_tabs, child in zip(level.tableaux, level.children):
                TestPairTableaux.assert_fresh(child_tabs, child)
            backends.add(type(m))
        assert backends == {GraphicMatroid, Gf2Matroid}


class TestTriads:
    def test_k4_triangle_and_triads(self, k4):
        m, _, _ = k4
        assert find_triangle(graphic_leaf(m.graph).gf2) == {A, B, D}
        found = find_triad(m)
        assert found == {A, B, F}  # delta(vertex 2), lexicographically first
        # delta(vertex 1) = {a, d, e} is also a triad
        rest = m.ground - {A, D, E}
        assert m.rank(rest) == 2 and all(m.rank(rest | {t}) == 3 for t in (A, D, E))

    def test_dt_has_no_triad(self, dt):
        m, _ = dt
        assert find_triad(m) is None

    def test_r10_has_neither(self):
        from baseswap.special import r10_matroid

        m = r10_matroid()
        assert find_triad(m) is None
        assert find_triangle(m) is None

    def test_finders_match_the_rank_reference(self):
        # K4, R10, and drawn bispanning graphs with their GF(2) incidence
        # matrices, each under drawn covers; find_triad reads the tableau of
        # the greedy basis and of a drawn one
        from baseswap.special import r10_matroid

        rng = random.Random(11)
        k4, r10 = graphic_matroid(K4_EDGES), r10_matroid()
        cases = [(k4, graphic_leaf(k4.graph).gf2), (r10, r10)]
        for _ in range(24):
            g, _ = random_bispanning_graph(rng.randint(3, 7), rng)
            cases.append((GraphicMatroid(g), graphic_leaf(g).gf2))
        found = Counter()
        for m, gf2 in cases:
            for view in dict.fromkeys((m, gf2)):
                ground = sorted(view.ground)
                covers = [None] + [
                    frozenset(rng.sample(ground, rng.randint(3, len(ground)))) for _ in range(3)
                ]
                for cover in covers:
                    triad = reference_find_triad(view, cover)
                    for tableau in (None, view.tableau(random_basis(view, rng))):
                        assert find_triad(view, cover, tableau) == triad
                    triangle = reference_find_triad(view.dual(), cover)
                    assert find_triangle(gf2, cover) == triangle
                    found[triad is not None, triangle is not None] += 1
        assert len(found) == 4, found

    @staticmethod
    def fixups(inst, t) -> tuple:
        """The fix-up steps of the triad level on t (None for no step), and
        the pairs they lead to."""
        payload = chain_level(inst, triad=t).payload
        steps = [None if s is None else ExchangeStep(*s) for s in (payload["fix_x"], payload["fix_y"])]
        pairs = [apply_step(p, s) if s else p for p, s in zip((inst.x, inst.y), steps)]
        return steps, pairs

    def test_consistent_pairs_no_fix(self, k4):
        m, x, _ = k4
        # reversal pairs are always consistent on any triad
        steps, _ = self.fixups(reversal_instance(m, x), frozenset({A, D, E}))
        assert steps == [None, None]

    def test_inconsistent_pairs_get_fixed(self, k4):
        m, _, _ = k4
        x = BasisPair(frozenset({A, D, C}), frozenset({B, E, F}), m)
        y = BasisPair(frozenset({A, E, C}), frozenset({D, B, F}), m)
        t = frozenset({A, D, E})
        assert x.first & t == {A, D} and y.first & t == {A, E}
        (step_x, step_y), (fx, fy) = self.fixups(Instance(m, x, y), t)
        assert step_x is not None or step_y is not None
        assert fx.first & t in (fy.first & t, fy.second & t)
        for step, start in ((step_x, x), (step_y, y)):
            if step is not None:
                assert is_valid_exchange(start, step)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fix_steps_valid_on_random_graphic(self, seed):
        rng = random.Random(seed)
        from baseswap.matroid import GraphicMatroid

        g, x = random_bispanning_graph(rng.randint(4, 7), rng)
        m = GraphicMatroid(g)
        t = find_triad(m)
        if t is None or not t <= x.union:
            return
        y = random_exchange_walk(m, x, 3, rng)
        (step_x, step_y), (fx, fy) = self.fixups(Instance(m, x, y), t)
        assert fx.first & t in (fy.first & t, fy.second & t)
        for step, start in ((step_x, x), (step_y, y)):
            if step is not None:
                assert is_valid_exchange(BasisPair(start.first, start.second, m), step)
        # the reversal's pairs share their bases and take no fix-up
        steps, _ = self.fixups(Instance(m, x, x.swapped()), t)
        assert steps == [None, None]

    def test_reduce_triad_lift_revalidates(self, k4):
        # a GF(2) frame's chain on the graph's incidence matrix, and the
        # graph's own chain
        m, x, y = k4
        inst = Instance(m, x, y)
        for graph in (False, True):
            level = chain_level(inst if graph else on_incidence(inst), triad={A, D, E}, graph=graph)
            child = entry_checked(level.children[0])
            sub = reference_rank_le2(child)
            lifted = level.lift(sub)
            final = apply_and_validate(x, ExchangeSequence(lifted))
            assert final.first == y.first and final.second == y.second

    def test_lift_length_accounting(self, k4):
        # a child sequence that never uses t1 lifts without extra steps; one
        # that uses t1 once lifts with exactly one extra step (K4's GF(2)
        # incidence matrix)
        m, x, _ = k4
        level = chain_level(on_incidence(reversal_instance(m, x)), triad={A, D, E})
        child = level.children[0]
        t1 = level.payload["t1"]
        from baseswap.exchange import bfs_oracle

        result = bfs_oracle(child.matroid, child.x, child.y, monotone=True)
        seq = list(result.sequence)
        uses = sum(1 for s in seq if t1 in s)
        lifted = level.lift(seq)
        assert len(lifted) == len(seq) + uses
        final = apply_and_validate(x, ExchangeSequence(lifted))
        assert final.first == x.second

    def test_triangle_lift_matches_the_reference_choice(self, monkeypatch):
        # a triangle reduction (a triad of M*) between any two partitions of
        # K4 into two paths, along each of its four triangles, on its GF(2)
        # incidence matrix: every replacement equals the two-option
        # reference's
        from baseswap.reductions import TriadLift

        m = graphic_matroid(K4_EDGES)
        triples = [frozenset(t) for t in itertools.combinations(sorted(m.ground), 3)]
        paths = [t for t in triples if m.is_basis(t) and m.is_basis(m.ground - t)]
        triangles = [t for t in triples if m.rank(t) == 2]
        options = Counter()
        monkeypatch.setattr(TriadLift, "replace", checked_replace(TriadLift.replace, options))
        for px, py, triangle in itertools.product(paths, paths, triangles):
            x, y = BasisPair(px, m.ground - px, m), BasisPair(py, m.ground - py, m)
            level = chain_level(on_incidence(Instance(m, x, y)), triad=triangle, dual=True)
            lifted = level.lift(reference_rank_le2(level.children[0]))
            final = apply_and_validate(x, ExchangeSequence(lifted))
            assert (final.first, final.second) == (y.first, y.second)
        assert options[True] > 0 and options[False] > 0, options

    def test_forbidden_must_avoid_triad(self, k4):
        m, x, y = k4
        inst = Instance(m, x, y, forbidden=frozenset({A}))
        with pytest.raises(ReductionError, match="avoid the triad"):
            chain_level(inst, triad={A, D, E})


class TestPairTableaux:
    """The tableaux a reduction hands its children equal fresh builds on the
    children's bases; bits at removed elements are not read.  A graph
    chain's forests hold the same bases and answer every exchange test as
    the fresh tableaux do."""

    @staticmethod
    def assert_fresh(tabs, child):
        fresh = Pairs.of(child)
        keep = sum(1 << e for e in child.matroid.ground)
        for got, want in zip(tabs.x + tabs.y, fresh.x + fresh.y):
            if isinstance(got, RootedForest):
                assert frozenset(got.held()) == frozenset(want.held())
                for b, f in itertools.product(want.cocircuits, want.circuits):
                    assert got.exchangeable(b, f) == want.exchangeable(b, f)
                continue
            assert {e: c & keep for e, c in got.circuits.items()} == want.circuits
            assert {b: c & keep for b, c in got.cocircuits.items()} == want.cocircuits

    def test_reductions_hand_on_fresh_tableaux(self):
        # short walks leave y sharing bases with x; both fix-ups, and a pair
        # swap, must occur among the triad reductions.  A graph's chain
        # takes the triads, and the splits with two elements outside
        seen = set()
        two_outside = 0
        for seed in range(150):
            rng = random.Random(seed)
            g, x = random_bispanning_graph(rng.randint(4, 9), rng)
            m = GraphicMatroid(g)
            x = random_exchange_walk(m, x, rng.randint(0, 4), rng)
            y = random_exchange_walk(m, x, rng.randint(0, 4), rng)
            inst = Instance(m, x, y)
            levels = []
            t = find_triad(m)
            if t is not None:
                levels += [chain_level(inst, triad=t, graph=graph) for graph in (False, True)]
            t = find_triangle(graphic_leaf(g).gf2)
            if t is not None:
                levels.append(chain_level(inst, triad=t, dual=True))
            # the minimal tight set, and E - delta(u) at each degree-2 vertex
            # u, whose rest side is a parallel pair
            tight = [find_nontrivial_tight_set(m, x)]
            tight += [m.ground - g.incident(u) for u, d in g.degree().items() if d == 2]
            for z in tight:
                if z is not None:
                    levels.append(chain_level(inst, z=z))
                    if len(m.ground - z) == 2:
                        levels.append(chain_level(inst, z=z, graph=True))
                        two_outside += 1
            for level in levels:
                for tabs, child in zip(level.tableaux, level.children):
                    self.assert_fresh(tabs, child)
                seen |= {k for k in ("fix_x", "fix_y", "swapped") if level.payload.get(k)}
        assert seen == {"fix_x", "fix_y", "swapped"}
        assert two_outside > 100


    def test_fixed_refuses_a_step_on_a_shared_tableau(self):
        # a reversal's y is x swapped, and an identity's y is x, so each
        # tableau serves both pairs: such pairs take no fix-up, and a step
        # on one raises before any tableau changes
        m = graphic_matroid(K4_EDGES)
        x = BasisPair(frozenset({A, B, C}), frozenset({D, E, F}), m)

        def state(tabs):
            return [(dict(t.circuits), dict(t.cocircuits)) for t in tabs.x + tabs.y]

        steps = [
            ExchangeStep(e, f)
            for e in sorted(x.first)
            for f in sorted(x.second)
            if is_valid_exchange(x, ExchangeStep(e, f))
        ]
        back = [s.reversed() for s in steps]
        cases = [(s, None) for s in steps] + [(None, s) for s in back] + list(zip(steps, back))
        for y in (x.swapped(), x):
            for (step_x, step_y), swapped in itertools.product(cases, (False, True)):
                tabs = Pairs.of(Instance(m, x, y))
                assert {id(t) for t in tabs.x} == {id(t) for t in tabs.y}
                before = state(tabs)
                with pytest.raises(AssertionError, match="shared basis"):
                    tabs.fixed(step_x, step_y, swapped)
                assert state(tabs) == before


class TestChainPairs:
    """A chain reads its pairs from the cocircuit keys of its tableaux.  At
    every level, the pairs of the frame it would hand back, and those of
    each split's other side, equal the pairs moved as sets by the rules of
    ``conftest.ReferencePairs``."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(4, 12), st.sampled_from(["white", "gabow"]),
        st.booleans(),
    )
    def test_pairs_follow_the_set_rules(self, seed, n, mode, gf2):
        rng = random.Random(seed)
        g, x = random_bispanning_graph(n, rng)
        m = GraphicMatroid(g)
        if mode == "gabow":
            y, forbidden, last = x.swapped(), frozenset(), rng.choice(sorted(x.union))
        else:
            y = random_exchange_walk(m, x, rng.randint(1, n), rng)
            forbidden, last = random_forbidden_set(x, y, g, rng), None
        if gf2:
            m = graphic_leaf(g).gf2
        inst = Instance(m, BasisPair(x.first, x.second, m), BasisPair(y.first, y.second, m), forbidden)
        if gf2:
            chain = MatrixChain(as_structure(m), inst, last, Pairs.of(inst))
        else:
            chain = GraphChain(g, inst, last)
        ref = ReferencePairs(inst)
        while not chain.done():
            level = chain.reduce()
            if level is None:
                break
            kind, out = level
            if kind == "tight_split":
                _, _, (rest, rest_inst, _, _) = out
                assert frame_pairs(rest_inst) == ref.split(rest.matroid.ground)
            else:
                ref.shrink(out[0])
            assert frame_pairs(chain.frame()[1]) == ref.pairs()


class TestForestPairs:
    """A graph chain carries its bases as rooted forests (``RootedForest``).
    At every level they hold the same bases, and answer every exchange test
    as, the tableaux of the same instance moved alongside by the same
    splits, fix-ups and minors; so does each split's other side."""

    @staticmethod
    def assert_same(forests, tabs, ground):
        for forest, tab in zip(forests.x + forests.y, tabs.x + tabs.y):
            basis = frozenset(tab.held())
            assert frozenset(forest.held()) == basis
            for b, f in itertools.product(basis, ground - basis):
                assert forest.exchangeable(b, f) == tab.exchangeable(b, f), (b, f)

    def run_chain(self, g, inst, last) -> int:
        """Drive the graph chain of ``inst`` to its end beside the reference
        tableaux; returns the number of levels."""
        chain, ref = GraphChain(g, inst, last), Pairs.of(inst)
        self.assert_same(chain.pairs, ref, frozenset(chain.edges))
        levels = 0
        while not chain.done():
            kind, out = chain.reduce()
            if kind == "tight_split":
                _, _, (rest, _, _, rest_pairs) = out
                outside = rest.matroid.ground
                self.assert_same(rest_pairs, ref.split(outside), outside)
            else:
                payload = out[0]
                fixes = (payload["fix_x"], payload["fix_y"])
                ref = ref.fixed(*(s and ExchangeStep(*s) for s in fixes), payload["swapped"])
                ref.minor(payload["t2"], payload["t3"])
            self.assert_same(chain.pairs, ref, frozenset(chain.edges))
            levels += 1
        return levels

    def test_tight_split_verdict_matches_the_tableaux(self):
        # at each degree-2 vertex u of a graph with |E| = 2r, and for any two
        # spanning trees, not only a disjoint pair: z = E - delta(u) is
        # tight for them exactly when each holds one edge at u
        verdicts = Counter()
        for seed in range(40):
            rng = random.Random(seed)
            g, _ = random_bispanning_graph(rng.randint(3, 9), rng)
            m = GraphicMatroid(g)
            x = BasisPair(random_basis(m, rng), random_basis(m, rng), m)
            inst = Instance(m, x, x)
            _, edges, star = _numbered(g)
            forests = Pairs.of(inst, partial(RootedForest.of, edges, star=star))
            tabs = Pairs.of(inst)
            for ids in g.incidence().values():
                if len(ids) == 2:
                    outside = frozenset(ids)
                    verdict = forests.tight(m.ground - outside, outside)
                    assert verdict == tabs.tight(m.ground - outside, outside)
                    verdicts[verdict] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0, verdicts

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 11), st.sampled_from(["white", "gabow"]))
    def test_forests_answer_as_the_tableaux(self, seed, n, mode):
        # white with a drawn F, and a reversal with every designated last
        # element; short walks leave y sharing bases with x
        rng = random.Random(seed)
        g, x = random_bispanning_graph(n, rng)
        m = GraphicMatroid(g)
        if mode == "gabow":
            cases = [(x.swapped(), frozenset(), last) for last in [None, *sorted(x.union)]]
        else:
            y = random_exchange_walk(m, x, rng.randint(1, n), rng)
            cases = [(y, random_forbidden_set(x, y, g, rng), None)]
        for y, forbidden, last in cases:
            inst = Instance(m, x, BasisPair(y.first, y.second, m), forbidden)
            levels = self.run_chain(g, inst, last)
            assert levels > 0 or (mode == "white" and y.first == x.first)


def rank_le2_leaf(inst, h=None) -> ExchangeSequence:
    """The engine's rank <= 2 leaf: the monotone search of ``bfs_oracle``,
    capped at the frame's size, finishing on ``h`` when it is given."""
    m = inst.matroid
    return ExchangeSequence(_bfs_solve(m, inst, True, h, len(m.ground)))


def rank_le2_frames(backend: str):
    """Every rank-r matroid on 2r elements, r = 1 or 2, without loops: a
    GF(2) matrix of r rows and nonzero columns, or a multigraph on r + 1
    vertices without loops (the same matroids, edge uv as the column of
    u + v with vertex 0 as zero)."""
    for r in (1, 2):
        for cols in itertools.product(range(1, 1 << r), repeat=2 * r):
            if backend == "gf2":
                m = Gf2Matroid(dict(enumerate(cols)))
            else:
                ends = {1: (0, 1), 2: (0, 2), 3: (1, 2)}
                m = graphic_matroid({e: ends[c] for e, c in enumerate(cols)})
            if m.full_rank == r:
                yield m


def rank_le2_cases(m):
    """Every rank <= 2 frame instance of ``m``: each disjoint covering x and
    y != x with each F inside the matching intersections, and each
    reversal with each designated last element.  Yields (instance, h)."""
    ground = m.ground
    halves = [
        frozenset(b) for b in itertools.combinations(sorted(ground), len(ground) // 2)
        if m.is_basis(frozenset(b)) and m.is_basis(ground - frozenset(b))
    ]
    pairs = [BasisPair(b, ground - b, m) for b in halves]
    for x, y in itertools.product(pairs, pairs):
        if x == y:
            continue
        eligible = sorted((x.first & y.first) | (x.second & y.second))
        for forbidden in subsets(eligible):
            yield Instance(m, x, y, frozenset(forbidden)), None
        if y.first == x.second:
            for h in sorted(ground):
                yield Instance(m, x, y), h


def outcome(solve, inst, h):
    try:
        return tuple(solve(inst, h=h))
    except (AssertionError, UnsupportedStructureError):
        return None


class TestRankLeTwo:
    @pytest.mark.parametrize("backend", ["gf2", "graphic"])
    def test_leaves_match_the_reference_exhaustively(self, backend):
        # the engine's leaf search gives the old base case's sequence (the
        # shortest, then lexicographically first, monotone one) on every
        # rank <= 2 frame of the backend
        cases = 0
        for m in rank_le2_frames(backend):
            for inst, h in rank_le2_cases(m):
                assert outcome(rank_le2_leaf, inst, h) == outcome(reference_rank_le2, inst, h)
                cases += 1
        assert cases > 2000

    def test_rank_one_swap(self):
        m = graphic_matroid({0: (1, 2), 1: (1, 2)})
        x = BasisPair(frozenset({0}), frozenset({1}), m)
        seq = rank_le2_leaf(reversal_instance(m, x))
        assert list(seq) == [(0, 1)]

    def test_same_pair_empty(self, dt):
        m, x = dt
        assert rank_le2_leaf(Instance(m, x, x)).length == 0

    def test_rank_two_reversal_monotone(self, dt):
        m, x = dt
        seq = rank_le2_leaf(reversal_instance(m, x))
        assert seq.length == 2 and seq.width == 1
        final = apply_and_validate(x, seq)
        assert final.first == x.second

    def test_h_used_last(self, dt):
        m, x = dt
        for h in range(4):
            seq = rank_le2_leaf(reversal_instance(m, x), h=h)
            assert h in seq.steps[-1]

    def test_f_avoiding(self):
        edges = {0: (1, 2), 1: (1, 2), 2: (2, 3), 3: (2, 3)}
        m = graphic_matroid(edges)
        x = BasisPair(frozenset({0, 2}), frozenset({1, 3}), m)
        y = BasisPair(frozenset({1, 2}), frozenset({0, 3}), m)
        seq = rank_le2_leaf(Instance(m, x, y, forbidden=frozenset({2, 3})))
        assert {2, 3}.isdisjoint(seq.occurrences())

