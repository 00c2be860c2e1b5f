import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from baseswap.matroid import (
    CompositionError,
    Gf2Matroid,
    GraphicMatroid,
    GroundSetError,
    Matroid,
    Multigraph,
    SumSpec,
    _bits,
    graphic_matroid,
)
from baseswap.gen import random_bispanning_graph
from baseswap.graphic import LevelEdges, _Buckets, _numbered
from baseswap.structure import cographic_leaf, compose_sum, graphic_leaf

from conftest import (
    A, B, C, D, E, F,
    K4_EDGES,
    DT_EDGES,
    brute_circuits,
    brute_cocircuits,
    brute_sum_rank_fn,
    DefinitionalSum,
    DualMatroid,
    MinorMatroid,
    bucket_pick,
    dfs_forest_rank,
    gf2_matrices,
    multigraphs,
    random_basis,
    reference_contract_edges,
    reference_degree,
    reference_eliminate,
    reference_bits,
    reference_pick_reduction_vertex,
    subsets,
)


class TestRank:
    def test_k4_spanning_tree(self, k4):
        m, _, _ = k4
        assert m.rank({A, B, C}) == 3

    def test_dt_parallel_pair(self, dt):
        m, _ = dt
        assert m.rank({0, 1}) == 1

    def test_r10_fixture_basis(self):
        from baseswap.special import r10_matroid, r10_fixture_pair

        m = r10_matroid()
        pair = r10_fixture_pair(m)
        assert m.rank(pair.first) == 5
        assert m.full_rank == 5

    def test_outside_ground_raises(self, k4):
        m, _, _ = k4
        with pytest.raises(GroundSetError):
            m.rank({99})

    def test_rank_axioms_exhaustive(self, k4, dt):
        for m in (k4[0], dt[0]):
            assert m.rank(frozenset()) == 0
            all_subsets = list(subsets(m.ground))
            for s in all_subsets:
                assert 0 <= m.rank(s) <= len(s)
                for e in m.ground - s:
                    grown = m.rank(s | {e})
                    assert m.rank(s) <= grown <= m.rank(s) + 1
            for s, t in itertools.combinations(all_subsets, 2):
                assert m.rank(s | t) + m.rank(s & t) <= m.rank(s) + m.rank(t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_graphic_rank_matches_dfs_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        edges = {
            i: (rng.randint(1, n), rng.randint(1, n)) for i in range(rng.randint(1, 9))
        }
        m = graphic_matroid(edges)
        for s in subsets(m.ground):
            assert m.rank(s) == dfs_forest_rank(edges, s)


class TestContraction:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.sets(st.integers(-2, 24), max_size=10))
    def test_one_pass_matches_per_edge_reference(self, g, contracted):
        # contracted ids may be absent from the graph or loops by their turn
        got = g.contract_edges(contracted)
        want = reference_contract_edges(g, contracted)
        assert list(got.edges.items()) == list(want.edges.items())
        assert g.contract_edges(frozenset(contracted)).edges == got.edges

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.data())
    def test_forest_rank_matches_dfs_oracle(self, g, data):
        subset = data.draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True)
                           if g.edges else st.just([]))
        m = GraphicMatroid(g)
        assert m.rank(subset) == dfs_forest_rank(g.edges, subset)
        assert m.rank(g.edges) == dfs_forest_rank(g.edges, g.edges)


class TestIncidenceIndex:
    """Every minor of an indexed graph must read exactly as the same graph
    built from scratch."""

    @staticmethod
    def assert_reads_as(got, want: dict, data):
        assert list(got.edges.items()) == list(want.items())
        deg = reference_degree(want)
        assert got.degree() == deg
        for v in list(deg) + ["absent"]:
            assert got.incident(v) == frozenset(e for e, uv in want.items() if v in uv)
        ids = sorted(want)
        forbidden = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
        last = data.draw(st.none() | st.sampled_from(ids)) if ids else None
        picks = []
        for pick in (bucket_pick, reference_pick_reduction_vertex):
            try:
                picks.append(pick(got, forbidden, last))
            except AssertionError:
                picks.append("none")
        assert picks[0] == picks[1]

    @settings(max_examples=400, deadline=None)
    @given(
        multigraphs(),
        st.lists(st.tuples(st.booleans(), st.sets(st.integers(-2, 24), max_size=6)), max_size=4),
        st.data(),
    )
    def test_minor_chain_matches_fresh_graphs(self, g, chain, data):
        # ids may be absent, loops or parallel, and the graph's index is
        # built before the first minor, in any order along the chain
        self.assert_reads_as(g, g.edges, data)  # builds the index
        want = dict(g.edges)
        for contract, ids in chain:
            if contract:
                g = g.contract_edges(ids)
                want = reference_contract_edges(Multigraph(want), ids).edges
            else:
                g = g.delete_edges(ids)
                want = {e: uv for e, uv in want.items() if e not in ids}
            self.assert_reads_as(g, want, data)

    def test_equal_names_pick_the_first_vertex_reached(self):
        # 0 and "0" sort alike; the picker takes the one the edges reach
        # first, though its index, built from another order of the same
        # edges, lists "0" ahead of 0 (as a graph chain's index does once a
        # contraction has moved edges to a vertex)
        g = Multigraph({3: ("0", "a"), 4: ("0", "b"), 1: (0, "a"), 2: (0, "b")})
        h = Multigraph({1: (0, "a"), 2: (0, "b"), 3: ("0", "a"), 4: ("0", "b")})
        order = list(g.degree())
        assert order.index("0") < order.index(0)
        names, _, star = _numbered(g)  # numbered in the index's order
        number = {v: i for i, v in enumerate(names)}
        edges = {e: (number[u], number[v]) for e, (u, v) in h.edges.items()}
        vertex, kind = _Buckets(star, names).pick(edges, frozenset(), None)
        assert (names[vertex], kind) == reference_pick_reduction_vertex(h) == (0, "degree2")


class TestBasis:
    def test_k4_true_and_false(self, k4):
        m, _, _ = k4
        assert m.is_basis({A, B, C})
        assert not m.is_basis({A, B, D})  # the 12,23,13 triangle

    def test_empty_matroid(self):
        m = graphic_matroid({})
        assert m.is_basis(frozenset())

    def test_loops_allowed(self):
        m = graphic_matroid({0: (1, 1), 1: (1, 2)})
        assert m.rank({0}) == 0
        assert m.is_basis({1})


class TestFundamentalCircuit:
    def test_k4_examples(self, k4):
        m, x, _ = k4
        basis, circuits = m.fundamental_circuits(x.first)
        assert basis == x.first
        assert circuits[D] == {D, A, B}
        assert circuits[F] == {F, B, C}

    def test_dt_parallel(self, dt):
        m, x = dt
        assert m.fundamental_circuits(x.first)[1][1] == {0, 1}

    def test_rejects_member(self, k4):
        # a basis member has no entry in the map
        m, x, _ = k4
        circuits = m.fundamental_circuits(x.first)[1]
        assert A not in circuits
        assert set(circuits) == m.ground - x.first

    def test_rejects_non_basis(self, k4):
        m, _, _ = k4
        with pytest.raises(GroundSetError):
            m.fundamental_circuits(frozenset({A, B, D}))

    def test_backend_override_matches_generic(self, k4):
        m, _, _ = k4
        for basis in itertools.combinations(sorted(m.ground), 3):
            basis = frozenset(basis)
            if not m.is_basis(basis):
                continue
            for e in m.ground - basis:
                generic = Matroid.circuit_in(m, basis, e)
                assert m.circuit_in(basis, e) == generic

    def test_removal_yields_basis(self, k4):
        m, _, _ = k4
        for basis in map(frozenset, itertools.combinations(sorted(m.ground), 3)):
            if not m.is_basis(basis):
                continue
            for e, circuit in m.fundamental_circuits(basis)[1].items():
                for x in circuit - {e}:
                    assert m.is_basis(basis - {x} | {e})


class TestDualMinor:
    def test_dual_rank_of_full_set(self, k4):
        m, _, _ = k4
        assert m.dual().rank(m.ground) == 3  # |E| - r = 6 - 3

    def test_dual_formula_everywhere(self, k4):
        m, _, _ = k4
        d = m.dual()
        for s in subsets(m.ground):
            assert d.rank(s) == len(s) - m.full_rank + m.rank(m.ground - s)

    def test_dual_of_dual_identical(self, k4):
        m, _, _ = k4
        dd = m.dual().dual()
        for s in subsets(m.ground):
            assert dd.rank(s) == m.rank(s)

    def test_minor_examples(self, k4, dt):
        m, _, _ = k4
        assert m.minor(contract={A}).rank({B, C}) == 2
        mdt, _ = dt
        assert mdt.minor(contract={0}).rank({1}) == 0  # parallel to contracted

    def test_minor_overlap_rejected(self, k4):
        m, _, _ = k4
        with pytest.raises(GroundSetError):
            m.minor(contract={A}, delete={A})

    def test_lazy_minor_agrees_with_graph_minor(self, k4):
        m, _, _ = k4
        for contract in ({A}, {A, B}, set()):
            for delete in ({F}, set()):
                if contract & delete:
                    continue
                lazy = MinorMatroid(m, frozenset(contract), frozenset(delete))
                explicit = m.minor(contract=contract, delete=delete)
                assert isinstance(explicit, GraphicMatroid)
                assert lazy.ground == explicit.ground
                for s in subsets(lazy.ground):
                    assert lazy.rank(s) == explicit.rank(s)

    def test_lazy_view_has_no_minor(self, k4):
        # only the explicit backends build duals and minors; an empty minor
        # is the view
        view = DualMatroid(k4[0])
        assert view.minor() is view
        with pytest.raises(NotImplementedError, match="DualMatroid"):
            view.minor(contract={A}, delete={F})
        with pytest.raises(NotImplementedError, match="DualMatroid"):
            view.dual()

    def test_dual_on_minor_views(self, dt):
        m, _ = dt
        view = m.minor(delete={3}).dual()
        for s in subsets(view.ground):
            base = m.minor(delete={3})
            assert view.rank(s) == len(s) - base.full_rank + base.rank(base.ground - s)


class TestGf2:
    def test_from_rows(self):
        m = Gf2Matroid.from_rows(["110", "011"], elements=[7, 8, 9])
        assert m.full_rank == 2
        assert m.rank({7, 9}) == 2
        assert not m.is_independent({7, 8, 9})

    @settings(max_examples=400, deadline=None)
    @given(gf2_matrices(), st.data())
    def test_lowest_bit_elimination_matches_insertion_order(self, m, data):
        # loops (zero columns) and parallel pairs (repeated columns) are
        # common; the pivots and the circuit masks do not depend on how the
        # columns are reduced, and the rank not on their order
        ground = sorted(m.ground)
        order = data.draw(st.permutations(ground))[: data.draw(st.integers(0, len(ground)))]
        assert m._eliminate(order) == reference_eliminate(m, order)
        rank = len(reference_eliminate(m, sorted(order))[0])
        assert m._rank(order) == m._rank(frozenset(order)) == rank

    def test_circuit_in_matches_generic(self):
        rng = random.Random(4)
        for _ in range(25):
            cols = {i: rng.randint(0, 15) for i in range(6)}
            m = Gf2Matroid(cols)
            for s in subsets(m.ground, 4):
                if not m.is_independent(s):
                    continue
                for e in sorted(m.ground - s):
                    assert m.circuit_in(s, e) == Matroid.circuit_in(m, s, e)


@st.composite
def _gf2_minor_cases(draw):
    m = draw(gf2_matrices())
    ground = sorted(m.ground)
    contract = draw(st.sets(st.sampled_from(ground))) if ground else set()
    rest = [e for e in ground if e not in contract]
    delete = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return m, frozenset(contract), frozenset(delete)


class TestIndependenceTest:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(gf2_matrices(), multigraphs().map(GraphicMatroid)), st.data())
    def test_matches_the_rank(self, m, data):
        # the early-exit test of a drawn subset, in a drawn order, agrees
        # with the rank oracle: loops and parallel pairs are common
        ground = sorted(m.ground)
        subset = data.draw(st.permutations(ground))[: data.draw(st.integers(0, len(ground)))]
        assert m._independent(subset) == (m.rank(subset) == len(subset))

    @settings(max_examples=400, deadline=None)
    @given(multigraphs(), st.data())
    def test_level_edges_match_the_rank(self, g, data):
        # a graph chain level's copy of its edges, over numbered vertices,
        # answers the lift's query with a list of parents
        names, edges, _ = _numbered(g)
        frame, m = LevelEdges(edges, len(names)), GraphicMatroid(g)
        ground = sorted(m.ground)
        subset = data.draw(st.permutations(ground))[: data.draw(st.integers(0, len(ground)))]
        assert frame._independent(subset) == (m.rank(subset) == len(subset))


class TestGf2Minor:
    @settings(max_examples=300, deadline=None)
    @given(_gf2_minor_cases())
    def test_explicit_minor_matches_lazy_view(self, case):
        m, c, d = case
        got = m.minor(contract=c, delete=d)
        lazy = MinorMatroid(m, c, d)
        assert isinstance(got, Gf2Matroid)
        assert got.ground == lazy.ground == m.ground - c - d
        for s in subsets(got.ground):
            assert got.rank(s) == lazy.rank(s)


class TestGf2Dual:
    @settings(max_examples=300, deadline=None)
    @given(_gf2_minor_cases())
    def test_explicit_dual_matches_lazy_view(self, case):
        # loops (zero columns), coloops and parallel pairs (repeated
        # columns) are all common among nine four-bit columns
        m, _, _ = case
        got = m.dual()
        lazy = DualMatroid(m)
        assert isinstance(got, Gf2Matroid)
        assert got.ground == m.ground
        for s in subsets(got.ground):
            assert got.rank(s) == lazy.rank(s)

    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    def test_graph_dual_is_its_incidence_matrix_dual(self, g):
        # a graph's Kruskal basis is the generic greedy basis, so its dual
        # is bit for bit the dual of its incidence matrix, and a cographic
        # leaf's matroid is that matrix
        m = GraphicMatroid(g)
        assert m.greedy_basis() == Matroid.greedy_basis(m)
        assert m.dual().columns == graphic_leaf(g).gf2.dual().columns
        leaf = cographic_leaf(g)
        assert leaf.gf2 is leaf.matroid
        assert leaf.matroid.columns == m.dual().columns


class TestGf2FundamentalCircuits:
    @settings(max_examples=300, deadline=None)
    @given(_gf2_minor_cases(), st.data())
    def test_one_elimination_matches_generic(self, case, data):
        # the generic method on a rank-only view of the same matrix: rank
        # queries there never read the supports the elimination tracks
        m, _, _ = case
        view = MinorMatroid(m, frozenset(), frozenset())
        assert m.fundamental_circuits() == view.fundamental_circuits()
        r = m.full_rank
        drawn = frozenset(
            data.draw(st.sets(st.sampled_from(sorted(m.ground)), min_size=r, max_size=r))
            if m.ground else set()
        )
        if m.is_basis(drawn):
            got = m.fundamental_circuits(drawn)
            assert got == view.fundamental_circuits(drawn)
            assert got[0] == drawn
        else:
            with pytest.raises(GroundSetError):
                m.fundamental_circuits(drawn)
            with pytest.raises(GroundSetError):
                view.fundamental_circuits(drawn)


def _drawn_near_basis(m, data) -> frozenset:
    """A set of r - 1, r or r + 1 elements."""
    if not m.ground:
        return frozenset()
    r = m.full_rank
    size = data.draw(st.integers(max(r - 1, 0), min(r + 1, len(m.ground))))
    elems = st.sampled_from(sorted(m.ground))
    return frozenset(data.draw(st.sets(elems, min_size=size, max_size=size)))


def _mask(elements) -> int:
    return sum(1 << x for x in elements)


class TestGraphFundamentalCircuits:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.data())
    def test_one_forest_matches_generic(self, g, data):
        # loops, parallel edges and several components: the generic method
        # on a rank-only view of the same graph is the reference
        m = GraphicMatroid(g)
        view = MinorMatroid(m, frozenset(), frozenset())
        assert m.fundamental_circuits() == view.fundamental_circuits()
        drawn = _drawn_near_basis(m, data)
        if m.is_basis(drawn):
            got = m.fundamental_circuits(drawn)
            assert got == view.fundamental_circuits(drawn)
            assert got[0] == drawn
        else:
            with pytest.raises(GroundSetError):
                m.fundamental_circuits(drawn)
            with pytest.raises(GroundSetError):
                view.fundamental_circuits(drawn)


_binary_matroids = st.one_of(gf2_matrices(), multigraphs().map(GraphicMatroid))


@st.composite
def masks(draw):
    """Masks of up to 4,000 bits: a few bits set, all but a few set, or
    every bit drawn."""
    width = draw(st.integers(0, 4000))
    full = (1 << width) - 1
    few = sum(1 << i for i in draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=40)))
    kind = draw(st.sampled_from(["sparse", "dense", "uniform"]))
    if kind == "uniform":
        return draw(st.integers(0, full))
    return few & full if kind == "sparse" else full & ~few


class TestBits:
    @settings(max_examples=300, deadline=None)
    @given(masks())
    def test_top_bit_decode_matches_the_reference(self, mask):
        assert _bits(mask) == reference_bits(mask)

    def test_edges(self):
        assert _bits(0) == [] and _bits(1) == [0]
        assert _bits((1 << 3999) | 1) == [0, 3999]
        assert _bits((1 << 4000) - 1) == list(range(4000))


class TestTableau:
    @settings(max_examples=300, deadline=None)
    @given(_binary_matroids, st.randoms(use_true_random=False))
    def test_pivots_match_a_fresh_build(self, m, rng):
        basis = random_basis(m, rng)
        tab = m.tableau(basis)
        # the backend's own build against circuits from rank queries alone
        generic = Matroid.tableau(MinorMatroid(m, frozenset(), frozenset()), basis)
        assert (tab.circuits, tab.cocircuits) == (generic.circuits, generic.cocircuits)
        for _ in range(rng.randint(0, 8)):
            for f in tab.circuits:
                for b in basis:
                    assert tab.exchangeable(b, f) == m.is_basis(basis - {b} | {f})
            options = sorted((b, f) for f in tab.circuits for b in basis if tab.exchangeable(b, f))
            if not options:
                break
            b, f = rng.choice(options)
            tab.pivot(b, f)
            basis = basis - {b} | {f}
            fresh = m.tableau(basis)
            assert (tab.circuits, tab.cocircuits) == (fresh.circuits, fresh.cocircuits)

    @settings(max_examples=300, deadline=None)
    @given(_binary_matroids, st.randoms(use_true_random=False))
    def test_minor_matches_a_fresh_build(self, m, rng):
        # contract an element of B and delete one outside it, or delete an
        # element of B on the circuit of the contracted one; bits at the two
        # removed elements are not read
        basis = random_basis(m, rng)
        tab = m.tableau(basis)
        options = [(c, d) for c in sorted(basis) for d in sorted(tab.circuits)]
        options += [(c, d) for c in sorted(tab.circuits) for d in sorted(basis)
                    if tab.exchangeable(d, c)]
        if not options:
            return
        c, d = rng.choice(options)
        tab.minor(c, d)
        child = m.minor(contract={c}, delete={d})
        fresh = child.tableau(basis - {c, d})
        keep = _mask(child.ground)
        assert {e: x & keep for e, x in tab.circuits.items()} == fresh.circuits
        assert {b: x & keep for b, x in tab.cocircuits.items()} == fresh.cocircuits

    def test_split_on_a_tight_set_matches_fresh_builds(self):
        # E - delta(u) at a degree-2 vertex u of a bispanning graph is tight,
        # and each tree of the pair holds one edge at u
        from baseswap.gen import random_bispanning_graph

        splits = 0
        for seed in range(12):
            g, pair = random_bispanning_graph(10, random.Random(seed))
            low = sorted((v for v, d in g.degree().items() if d == 2), key=str)
            if not low:
                continue
            m = GraphicMatroid(g)
            z = m.ground - g.incident(low[0])
            inside_m, outside_m = m.minor(delete=m.ground - z), m.minor(contract=z)
            for basis in (pair.first, pair.second):
                tab = m.tableau(basis)
                outside = tab.split(m.ground - z)
                for part, child, child_basis in (
                    (tab, inside_m, basis & z), (outside, outside_m, basis - z)
                ):
                    fresh = child.tableau(child_basis)
                    keep = _mask(child.ground)
                    assert {e: x & keep for e, x in part.circuits.items()} == fresh.circuits
                    assert {b: x & keep for b, x in part.cocircuits.items()} == fresh.cocircuits
                splits += 1
        assert splits >= 10

    @settings(max_examples=200, deadline=None)
    @given(gf2_matrices(), st.randoms(use_true_random=False))
    def test_dual_columns_represent_the_dual(self, m, rng):
        dual = Gf2Matroid(m.tableau(random_basis(m, rng)).dual_columns())
        lazy = DualMatroid(m)
        for s in subsets(m.ground, max_size=4):
            assert dual.rank(s) == lazy.rank(s)


def _check_rooted(forest, g, basis):
    """The forest's pointers describe a rooted spanning forest of ``basis``:
    each vertex below a root hangs from an end of its tree edge, each tree
    edge names its lower end, and every climb reaches a root."""
    assert forest.basis() == basis
    assert set(forest.up) == set(forest.via) and sorted(forest.via.values()) == sorted(basis)
    for w, x in forest.via.items():
        assert set(g.edges[x]) == {w, forest.up[w]} and len(set(g.edges[x])) == 2
        assert forest.child[x] == w
    for w in forest.up:
        steps = 0
        while w in forest.up:
            w, steps = forest.up[w], steps + 1
            assert steps <= len(forest.up)


class TestRootedForest:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.randoms(use_true_random=False))
    def test_exchanges_match_the_rank(self, g, rng):
        # every (b, f) over the ground set plus one element outside it,
        # e = f included: exchange answers as is_basis does, changes nothing
        # when it refuses, and re-roots to a forest of B - b + f otherwise
        m = GraphicMatroid(g)
        basis = random_basis(m, rng)
        forest = m.forest(basis)
        _check_rooted(forest, g, basis)
        elements = sorted(m.ground | {max(m.ground, default=0) + 1})
        for _ in range(rng.randint(1, 8)):
            valid = []
            for b, f in itertools.product(elements, repeat=2):
                before = dict(forest.up), dict(forest.via), dict(forest.child)
                expected = (
                    b in basis and f in m.ground - basis and m.is_basis(basis - {b} | {f})
                )
                assert forest.exchange(b, f) == expected, (b, f)
                if expected:
                    _check_rooted(forest, g, basis - {b} | {f})
                    valid.append((b, f))
                forest.up, forest.via, forest.child = before
            if not valid:
                break
            b, f = rng.choice(valid)
            assert forest.exchange(b, f)
            basis = basis - {b} | {f}
            _check_rooted(forest, g, basis)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.data())
    def test_refuses_what_the_tableau_refuses(self, g, data):
        # one rooting pass: a set with a cycle, one that does not span, or
        # one with elements outside the ground set raises for both
        m = GraphicMatroid(g)
        drawn = _drawn_near_basis(m, data)
        if data.draw(st.booleans()):
            drawn |= {max(m.ground, default=0) + 1}
        if drawn <= m.ground and m.is_basis(drawn):
            _check_rooted(m.forest(drawn), g, drawn)
            assert m.tableau(drawn).basis() == drawn
        else:
            with pytest.raises(GroundSetError):
                m.forest(drawn)
            with pytest.raises(GroundSetError):
                m.tableau(drawn)

    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.randoms(use_true_random=False))
    def test_exchange_test_changes_nothing(self, g, rng):
        # exchangeable answers as is_basis does for every b in B and f
        # outside it, loops and parallel edges included, and leaves the
        # forest as it was
        m = GraphicMatroid(g)
        basis = random_basis(m, rng)
        forest = m.forest(basis)
        before = dict(forest.up), dict(forest.via), dict(forest.child)
        for b, f in itertools.product(sorted(basis), sorted(m.ground - basis)):
            assert forest.exchangeable(b, f) == m.is_basis(basis - {b} | {f}), (b, f)
        assert (forest.up, forest.via, forest.child) == before

    @staticmethod
    def _mixed_names(g, rng):
        """g with two vertices renamed 1 and "1" and the others "v<v>"."""
        one, other = rng.sample(sorted(g.vertices()), 2)
        name = {v: f"v{v}" for v in g.vertices()}
        name[one], name[other] = 1, "1"
        return Multigraph({e: (name[u], name[v]) for e, (u, v) in g.edges.items()})

    @staticmethod
    def _assert_forest_of(forest, g, basis):
        """The forest is a rooted spanning forest of ``basis`` in g, and
        answers every exchange test as a fresh one does."""
        m = GraphicMatroid(g)
        fresh = m.forest(basis)
        _check_rooted(forest, g, basis)
        for b, f in itertools.product(sorted(basis), sorted(m.ground - basis)):
            assert forest.exchangeable(b, f) == fresh.exchangeable(b, f), (b, f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 14), st.integers(0, 2**32 - 1))
    def test_contraction_and_leaf_drop_match_fresh_forests(self, n, seed):
        # on bispanning graphs with vertices named 1 and "1": contracting a
        # tree edge (p, q), q into p as Multigraph.contract_edges names it,
        # and dropping the edge a basis of a disjoint pair holds at a
        # degree-2 vertex, each leave the forest of the minor's basis
        rng = random.Random(seed)
        g, pair = random_bispanning_graph(n, rng)
        g = self._mixed_names(g, rng)
        for basis in (pair.first, pair.second):
            h, b = g, basis
            forest = GraphicMatroid(h).forest(b)
            steps = 0
            while len(b) > 1:
                ends = h.incidence()
                # the chain splits where the basis holds one of the two edges
                low = [v for v, ids in ends.items()
                       if len(ids) == 2 and len(b.intersection(ids)) == 1]
                if low and rng.random() < 0.5:
                    outside = frozenset(ends[rng.choice(low)])
                    rest = forest.split(outside)
                    (e,) = outside & b
                    parallel = Multigraph(rest.edges)
                    assert rest.edges.keys() == outside and len(set(parallel.edges.values())) == 1
                    self._assert_forest_of(rest, parallel, frozenset({e}))
                    h, b = h.delete_edges(outside), b - outside
                else:
                    e = rng.choice(sorted(b))
                    forest.contract(e, {v: set(ids) for v, ids in ends.items()})
                    h, b = h.contract_edges({e}), b - {e}
                forest.edges = h.edges
                self._assert_forest_of(forest, h, b)
                steps += 1
            assert steps > 0



def k3_matroid(first_id, vertex_base=0):
    edges = {
        first_id: (vertex_base + 1, vertex_base + 2),
        first_id + 1: (vertex_base + 2, vertex_base + 3),
        first_id + 2: (vertex_base + 1, vertex_base + 3),
    }
    return graphic_matroid(edges)


def k4_matroid(ids, vertex_base=0):
    pairs = [(1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4)]
    edges = {ids[i]: (vertex_base + u, vertex_base + v) for i, (u, v) in enumerate(pairs)}
    return graphic_matroid(edges)


class TestSumSpec:
    @pytest.mark.parametrize("arity, shared", [(0, ()), (4, ()), (1, {5}), (2, ()), (3, {1, 2})])
    def test_bad_arity_or_shared_size_raises(self, arity, shared):
        with pytest.raises(CompositionError):
            SumSpec(arity, frozenset(shared))

    def test_equal_specs_compare_and_hash_alike(self):
        a, b = SumSpec(3, frozenset({1, 2, 3})), SumSpec(3, frozenset({3, 2, 1}))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert SumSpec(1) == SumSpec(1, frozenset())
        assert a != SumSpec(3, frozenset({1, 2, 4})) and SumSpec(2, frozenset({5})) != (2, frozenset({5}))

    def test_fields_cannot_be_assigned(self):
        spec = SumSpec(2, frozenset({5}))
        for name in ("arity", "shared", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 1)
        with pytest.raises(AttributeError):
            del spec.arity
        assert (spec.arity, spec.shared) == (2, frozenset({5}))


class TestComposeSum:
    def test_one_sum_of_triangles(self):
        s = compose_sum(k3_matroid(0), k3_matroid(3, vertex_base=10), SumSpec(1))
        assert len(s.ground) == 6
        assert s.full_rank == 4

    def test_two_sum_rank(self):
        m1 = k4_matroid([0, 1, 2, 3, 4, 5])
        m2 = k4_matroid([5, 6, 7, 8, 9, 10], vertex_base=10)
        s = compose_sum(m1, m2, SumSpec(2, frozenset({5})))
        assert s.full_rank == 5  # 3 + 3 - 1

    def test_three_sum_rank(self):
        m1, m2, spec = three_sum_parts()
        s = compose_sum(m1, m2, spec)
        assert s.full_rank == m1.full_rank + m2.full_rank - 2

    def test_spec_violations_named(self):
        m1 = k4_matroid([0, 1, 2, 3, 4, 5])
        m2 = k4_matroid([5, 6, 7, 8, 9, 10], vertex_base=10)
        loopy = graphic_matroid({5: (1, 1), 60: (1, 2), 70: (2, 3), 80: (1, 3)})
        with pytest.raises(CompositionError, match="loop"):
            compose_sum(loopy, m2, SumSpec(2, frozenset({5})))
        # shared set is a path (not a triangle) on the right side
        path_side = graphic_matroid(
            {100: (11, 12), 101: (12, 13), 102: (13, 14), 30: (14, 15),
             31: (15, 16), 32: (16, 11), 33: (12, 15), 34: (13, 16)}
        )
        with pytest.raises(CompositionError, match="triangle"):
            compose_sum(
                wheel_with_triangle(), path_side, SumSpec(3, frozenset({100, 101, 102}))
            )
        with pytest.raises(CompositionError, match="intersection"):
            compose_sum(m1, k4_matroid([20, 21, 22, 23, 24, 25]), SumSpec(2, frozenset({5})))

    def test_two_sum_rank_against_cycle_space(self):
        m1 = k4_matroid([0, 1, 2, 3, 4, 5])
        m2 = k4_matroid([5, 6, 7, 8, 9, 10], vertex_base=10)
        s = compose_sum(m1, m2, SumSpec(2, frozenset({5})))
        oracle = brute_sum_rank_fn(m1, m2, frozenset({5}))
        for sub in subsets(s.ground):
            assert s.rank(sub) == oracle(sub)

    def test_three_sum_against_cycle_space_and_basis_formula(self):
        m1, m2, spec = three_sum_parts()
        s = compose_sum(m1, m2, spec)
        definitional = DefinitionalSum(m1, m2, spec)
        oracle = brute_sum_rank_fn(m1, m2, spec.shared)
        rng = random.Random(0)
        elems = sorted(s.ground)
        for _ in range(400):
            sub = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
            assert s.rank(sub) == oracle(sub) == definitional.rank(sub)
        # basis membership: direct branch formula vs rank-derived, all r-subsets
        r = s.full_rank
        for sub in itertools.combinations(elems, r):
            sub = frozenset(sub)
            assert s.is_basis(sub) == definitional.is_basis(sub) == (oracle(sub) == r)

    def test_one_sum_basis_formula_all_subsets(self):
        m1 = k3_matroid(0)
        m2 = k3_matroid(3, vertex_base=10)
        s = compose_sum(m1, m2, SumSpec(1))
        definitional = DefinitionalSum(m1, m2, SumSpec(1))
        for sub in subsets(s.ground):
            direct = definitional.is_basis(sub)
            by_rank = len(sub) == s.full_rank and s.rank(sub) == s.full_rank
            assert direct == by_rank == s.is_basis(sub)


def wheel_with_triangle():
    # wheel on hub 0, rim 1..4; triangle edges get ids 100,101,102
    return graphic_matroid(
        {100: (0, 1), 101: (0, 2), 102: (1, 2), 3: (0, 3), 4: (0, 4),
         5: (2, 3), 6: (3, 4), 7: (4, 1)}
    )


def octahedron(tri_ids=(100, 101, 102)):
    edges = {tri_ids[0]: (11, 12), tri_ids[1]: (11, 13), tri_ids[2]: (12, 13)}
    nid, opposite = 20, {11: 14, 12: 15, 13: 16}
    for u in range(11, 17):
        for v in range(u + 1, 17):
            if opposite.get(u) == v or (u, v) in ((11, 12), (11, 13), (12, 13)):
                continue
            edges[nid] = (u, v)
            nid += 1
    return graphic_matroid(edges)


def three_sum_parts():
    return wheel_with_triangle(), octahedron(), SumSpec(3, frozenset({100, 101, 102}))


class TestBinaryLemmas:
    def test_circuit_cocircuit_intersection_never_one(self, k4, dt):
        for m in (k4[0], dt[0]):
            circuits = brute_circuits(m)
            cocircuits = brute_cocircuits(m)
            for c in circuits:
                for t in cocircuits:
                    assert len(c & t) != 1

    def test_triangle_completion_none_or_two(self, k4):
        m, _, _ = k4
        triangles = [c for c in brute_circuits(m) if len(c) == 3]
        assert triangles
        for t in triangles:
            ts = sorted(t)
            for f in subsets(m.ground - t):
                count = sum(1 for ti in ts if m.is_basis(f | {ti}))
                assert count in (0, 2)

    def test_cycles_closed_under_symmetric_difference(self, k4):
        m, _, _ = k4
        from conftest import cycle_space_masks

        vectors, idx = cycle_space_masks(m)

        def is_cycle(mask):
            # a cycle partitions into circuits: rank deficiency equals
            # what removal of any element recovers
            s = frozenset(e for e, i in idx.items() if mask >> i & 1)
            if not s:
                return True
            return all(
                any(x in c and c <= s for c in brute_circuits(m)) for x in s
            )

        for v1 in vectors:
            for v2 in vectors:
                assert (v1 ^ v2) in vectors
