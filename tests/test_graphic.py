import hashlib
import json
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import baseswap.exchange
from baseswap.cli import main
from baseswap.exchange import BasisPair, apply_and_validate, check_reversal
from baseswap.gen import (
    random_bispanning_graph,
    random_exchange_walk,
    random_forbidden_set,
)
from baseswap.graphic import incidence_leaf, vertex_span
from baseswap.matroid import Gf2Matroid, GraphicMatroid, GroundSetError, Multigraph
from baseswap.pipeline import solve_gabow, solve_white
from baseswap.reductions import IncompatiblePairsError, ReductionError
from baseswap.structure import cographic_leaf, gf2_leaf, graphic_leaf

from conftest import (
    A, B, C, D, E, F, DualMatroid, bucket_pick, drawn_pair, multigraphs,
    reference_degree, reference_pick_reduction_vertex, referee_graph_sequence, subsets,
)


class TestWhite:
    def test_k4_within_bounds(self, k4):
        m, x, y = k4
        seq = solve_white(graphic_leaf(m.graph), x, y).sequence
        r = m.full_rank
        assert 1 <= seq.length <= r * r
        assert seq.width <= 2 * (r - 1)
        final = apply_and_validate(x, seq)
        assert final.first == y.first

    def test_k4_single_forbidden_edge(self, k4):
        # F = {b} fits inside (X1 n Y1) u (X2 n Y2) for the swapped target
        m, x, y = k4
        target = y.swapped()
        seq = solve_white(graphic_leaf(m.graph), x, target, forbidden={B}).sequence
        final = apply_and_validate(x, seq, forbidden={B})
        assert final.first == target.first

    def test_same_pair_empty(self, k4):
        m, x, _ = k4
        assert solve_white(graphic_leaf(m.graph), x, x).sequence.length == 0

    def test_figure_three_refusal(self, k4):
        # F = {b, e} spans four vertices and must be refused outright
        m, x, y = k4
        with pytest.raises(GroundSetError):
            solve_white(graphic_leaf(m.graph), x, y.swapped(), forbidden={B, E})

    def test_incompatible_rejected(self, k4):
        # two spanning trees sharing a, so their union misses e: bases, but
        # not compatible with x
        m, x, _ = k4
        unequal_union = BasisPair(frozenset({A, B, C}), frozenset({A, D, F}), m)
        with pytest.raises(IncompatiblePairsError):
            solve_white(graphic_leaf(m.graph), x, unequal_union)

    def test_non_basis_member_rejected(self, k4):
        m, x, _ = k4
        not_forests = BasisPair(frozenset({A, B, D}), frozenset({C, E, F}), m)
        with pytest.raises(ReductionError) as err:
            solve_white(graphic_leaf(m.graph), x, not_forests)
        assert err.type is ReductionError

    def test_random_instances_meet_bounds(self):
        rng = random.Random(20240809)
        for _ in range(40):
            n = rng.randint(4, 24)
            g, x = random_bispanning_graph(n, rng)
            m = GraphicMatroid(g)
            y = random_exchange_walk(m, x, rng.randint(1, n), rng)
            f = random_forbidden_set(x, y, g, rng)
            seq = solve_white(graphic_leaf(g), x, y, forbidden=f).sequence
            final = apply_and_validate(x, seq, forbidden=f)
            assert final.first == y.first and final.second == y.second
            r = m.full_rank
            assert seq.length <= r * r
            assert seq.width <= 2 * (r - 1)


class TestGabow:
    def test_dt_two_steps(self, dt):
        m, x = dt
        seq = solve_gabow(graphic_leaf(m.graph), x, last=0).sequence
        assert seq.length == 2
        final = apply_and_validate(x, seq)
        assert final.first == x.second

    def test_k4_every_h(self, k4):
        m, x, _ = k4
        for h in range(6):
            seq = solve_gabow(graphic_leaf(m.graph), x, last=h).sequence
            assert seq.length == 3
            assert h in seq.steps[-1]
            final = apply_and_validate(x, seq)
            assert final.first == x.second and final.second == x.first

    def test_wheel_reversal_length_four(self):
        # W4: hub 0, rim 1-2-3-4; a bispanning partition
        g = Multigraph(
            {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (0, 4),
             4: (1, 2), 5: (2, 3), 6: (3, 4), 7: (4, 1)}
        )
        m = GraphicMatroid(g)
        x = BasisPair(frozenset({0, 4, 5, 6}), frozenset({1, 2, 3, 7}), m)
        assert m.is_basis(x.first) and m.is_basis(x.second)
        seq = solve_gabow(graphic_leaf(g), x, last=3).sequence
        assert seq.length == 4

    def test_strictly_monotone(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(4, 20)
            g, x = random_bispanning_graph(n, rng)
            h = rng.choice(sorted(x.union))
            seq = solve_gabow(graphic_leaf(g), x, last=h).sequence
            r = GraphicMatroid(g).full_rank
            assert seq.length == r and seq.width == 1
            assert h in seq.steps[-1]
            first = set(x.first)
            for k, (e, f) in enumerate(seq):
                assert e in first and e in x.first and f in x.second
                first.discard(e)
                first.add(f)
                # after step k, |first ^ X2| = 2 (r - k - 1)
                assert len(first - x.second) == r - k - 1

    def test_not_bispanning_rejected(self):
        g = Multigraph({0: (1, 2), 1: (2, 3), 2: (1, 3)})
        m = GraphicMatroid(g)
        with pytest.raises(ReductionError) as err:
            solve_gabow(graphic_leaf(g), BasisPair(frozenset({0, 1}), frozenset({2}), m), last=0)
        assert err.type is ReductionError


def _wheel(k):
    """The wheel W_k and its plane dual on the same edge ids.  Spoke i joins
    the hub to rim vertex i, and rim edge k + i joins rim vertices i and
    i + 1.  Face i is the triangle of spokes i, i + 1 and rim edge k + i,
    and "o" is the outer face, so the dual is W_k again with hub "o"."""
    g = {i: ("h", f"r{i}") for i in range(k)}
    g.update({k + i: (f"r{i}", f"r{(i + 1) % k}") for i in range(k)})
    dual = {i: (f"f{(i - 1) % k}", f"f{i}") for i in range(k)}
    dual.update({k + i: ("o", f"f{i}") for i in range(k)})
    return g, dual


def _grid(k, l):
    """The k x l grid and its plane dual on the same edge ids.  Face (i, j)
    is the square with corners (i, j) and (i + 1, j + 1), and "o" is the
    outer face."""

    def face(i, j):
        return f"f{i},{j}" if 0 <= i < k - 1 and 0 <= j < l - 1 else "o"

    g, dual = {}, {}
    for i in range(k):
        for j in range(l):
            if j + 1 < l:  # the top side of face (i, j), the bottom of (i - 1, j)
                dual[len(g)] = (face(i - 1, j), face(i, j))
                g[len(g)] = (f"v{i},{j}", f"v{i},{j + 1}")
            if i + 1 < k:  # the left side of face (i, j), the right of (i, j - 1)
                dual[len(g)] = (face(i, j - 1), face(i, j))
                g[len(g)] = (f"v{i},{j}", f"v{i + 1},{j}")
    return g, dual


def _disjoint_bases(m, rng):
    """Two disjoint bases of m: the greedy basis of a random order, then of
    the elements left over, until the second one is a basis."""

    def greedy(order):
        kept = set()
        for e in order:
            if m.is_independent(kept | {e}):
                kept.add(e)
        return frozenset(kept)

    while True:
        order = rng.sample(sorted(m.ground), len(m.ground))
        first = greedy(order)
        second = greedy(e for e in order if e not in first)
        if len(second) == m.full_rank:
            return first, second


class TestPlanarDuality:
    """Whitney: M*(G) = M(G*) for a plane graph G with plane dual G*.  The
    cographic leaf of G and the graphic leaf of G* are the same matroid on
    the same ids, so both solve each pair within the graphic bounds, and
    each sequence replays on the other's matroid."""

    CASES = {f"wheel{k}": (_wheel, k) for k in range(3, 8)}
    CASES.update({f"grid{k}x{l}": (_grid, k, l) for k, l in ((2, 3), (3, 3), (3, 4), (4, 4))})

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cographic_leaf_matches_the_plane_dual(self, case, mode, monkeypatch):
        build, *size = self.CASES[case]
        g, dual = build(*size)
        co = cographic_leaf(Multigraph(g))
        gr = graphic_leaf(Multigraph(dual))
        basis = co.matroid.greedy_basis()
        assert co.matroid.tableau(basis).circuits == gr.matroid.tableau(basis).circuits
        rng = random.Random(case)
        r = gr.matroid.full_rank
        x = BasisPair(*_disjoint_bases(gr.matroid, rng), gr.matroid)
        y = random_exchange_walk(gr.matroid, x, 2 * r, rng) if mode == "white" else x.swapped()
        checks = []
        valid = baseswap.exchange.is_valid_exchange

        def counted(pair, step):
            checks.append(step)
            return valid(pair, step)

        # the cographic leaf's matroid is a GF(2) matrix, so its closing
        # replay reads tableaux and asks no rank-path exchange test
        monkeypatch.setattr(baseswap.exchange, "is_valid_exchange", counted)
        solve = partial(solve_white, y=y) if mode == "white" else solve_gabow
        reports = {"cographic": solve(co, x), "graphic": solve(gr, x)}
        assert not checks
        for name, other in (("cographic", gr), ("graphic", co)):
            seq = reports[name].sequence
            assert reports[name].rank == r
            assert seq.length <= r * r and seq.width <= 2 * (r - 1)
            if mode == "gabow":
                assert seq.length == r
            final = apply_and_validate(BasisPair(x.first, x.second, other.matroid), seq)
            assert (final.first, final.second) == (y.first, y.second), name


class TestPickVertex:
    def test_dt_degree_two(self, dt):
        m, _ = dt
        vertex, kind = bucket_pick(m.graph)
        assert kind == "degree2" and vertex in (1, 3)

    def test_k4_avoids_forbidden_star(self, k4):
        # all four vertices have degree 3; F = {b} = edge 23 blocks 2 and 3
        m, _, _ = k4
        vertex, kind = bucket_pick(m.graph, forbidden={B})
        assert kind == "degree3" and vertex in (1, 4)
        assert B not in m.graph.incident(vertex)

    def test_avoids_last_edge(self, k4):
        m, _, _ = k4
        vertex, kind = bucket_pick(m.graph, last=A)  # a = 12
        assert vertex not in (1, 2)

    def test_covered_bispanning_always_has_low_degree(self):
        # average degree below four: a 4-regular covered bispanning graph
        # cannot exist, so the picker always succeeds on generated instances
        rng = random.Random(5)
        for _ in range(10):
            g, _ = random_bispanning_graph(rng.randint(4, 12), rng)
            vertex, kind = bucket_pick(g)
            deg = g.degree()
            assert deg[vertex] in (2, 3)


def _with_equal_names(g: Multigraph, rng: random.Random) -> Multigraph:
    """g with two vertices of equal degree, the least degree two share,
    renamed 1 and "1" (which ``str`` sorts alike), and every other vertex v
    renamed "v<v>", which sorts after them."""
    by_degree: dict = {}
    for v, d in reference_degree(g.edges).items():
        by_degree.setdefault(d, []).append(v)
    one, other = rng.sample(min((d, vs) for d, vs in by_degree.items() if len(vs) > 1)[1], 2)
    name = {v: f"v{v}" for v in g.vertices()}
    name[one], name[other] = 1, "1"
    return Multigraph({e: (name[u], name[v]) for e, (u, v) in g.edges.items()})


def _checked_picks(monkeypatch, picks: list):
    """Make every pick of a graph chain also ask the reference scan on the
    chain's current graph, and require the same (vertex, kind).  The chain
    numbers its vertices; the graph and the vertex are compared by name."""
    from baseswap.graphic import _Buckets

    init, pick, names_of = _Buckets.__init__, _Buckets.pick, {}

    def recording(buckets, star, names):
        names_of[id(buckets)] = names
        init(buckets, star, names)

    def checked(buckets, edges, forbidden, last):
        vertex, kind = got = pick(buckets, edges, forbidden, last)
        names = names_of[id(buckets)]
        graph = Multigraph({e: (names[u], names[v]) for e, (u, v) in edges.items()})
        assert (names[vertex], kind) == reference_pick_reduction_vertex(graph, forbidden, last)
        picks.append((names[vertex], graph))
        return got

    monkeypatch.setattr(_Buckets, "__init__", recording)
    monkeypatch.setattr(_Buckets, "pick", checked)


class TestGraphChain:
    """A graph solve reduces its chain of frames on one private graph
    (``graphic.GraphChain``), picking each vertex from degree buckets."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 24), st.integers(0, 2**32 - 1), st.sampled_from(["white", "gabow"]),
        st.booleans(), st.data(),
    )
    def test_bucket_picker_matches_the_scan_at_every_level(self, n, seed, mode, equal, data):
        # whole chains, with a drawn F (|V(F)| <= 3) or a drawn last edge
        rng = random.Random(seed)
        g, x = random_bispanning_graph(n, rng)
        if equal:
            g = _with_equal_names(g, rng)
        m = GraphicMatroid(g)
        x = BasisPair(x.first, x.second, m)
        picks = []
        with pytest.MonkeyPatch.context() as mp:
            _checked_picks(mp, picks)
            if mode == "gabow":
                last = data.draw(st.none() | st.sampled_from(sorted(x.union)))
                solve_gabow(graphic_leaf(g), x, last=last)
            else:
                y = random_exchange_walk(m, x, rng.randint(1, n), rng)
                solve_white(graphic_leaf(g), x, y, random_forbidden_set(x, y, g, rng))
        assert picks or (mode == "white" and y.first == x.first)

    def test_equal_names_follow_the_current_edge_order(self, monkeypatch):
        # 1 and "1" tie on name and degree; the one the edges reach first
        # wins, and contractions change which that is
        rng = random.Random(72)
        g, x = random_bispanning_graph(8, rng)
        g = _with_equal_names(g, rng)
        first_reach = list(reference_degree(g.edges))
        picks = []
        _checked_picks(monkeypatch, picks)
        solve_gabow(graphic_leaf(g), x)
        moved = []
        for v, graph in picks:
            deg = reference_degree(graph.edges)
            if v in (1, "1") and deg.get(1) == deg.get("1"):
                other = "1" if v == 1 else 1
                moved.append(first_reach.index(v) > first_reach.index(other))
        assert True in moved

    @staticmethod
    def _graph_solves():
        """(graphs the solve reads, solve) per case: a caller's
        ``GraphicMatroid``, a graphic leaf, a cographic leaf (whose pairs
        of spanning trees that partition the graph are pairs of bases of
        the dual too), and the wheel-octahedron 3-sum, whose bullet runs a
        chain per segment."""
        from baseswap.cli import _gen_tree
        from baseswap.io import parse_instance

        g, x = random_bispanning_graph(30, random.Random(3))
        m = GraphicMatroid(g)
        x = BasisPair(x.first, x.second, m)
        y = random_exchange_walk(m, x, 20, random.Random(4))
        yield [g], lambda: solve_white(m, x, y)
        h, xh = random_bispanning_graph(30, random.Random(6))
        yield [h], lambda: solve_gabow(graphic_leaf(h), xh, last=max(xh.first))
        yield [g], lambda: solve_white(cographic_leaf(g), (x.first, x.second), (y.first, y.second))
        yield [h], lambda: solve_gabow(cographic_leaf(h), (xh.first, xh.second))
        for mode in ("white", "gabow"):
            inst = parse_instance(_gen_tree(40, random.Random(17), mode))
            tree = inst["structure"]
            leaves = [side for side in (tree.left, tree.right) if side.graph is not None]
            assert [leaf.tag for leaf in leaves] == ["graphic", "graphic"]
            xt = (inst["x1"], inst["x2"])
            if mode == "gabow":
                yield [leaf.graph for leaf in leaves], lambda: solve_gabow(tree, xt)
            else:
                yt = (inst["y1"], inst["y2"])
                yield [leaf.graph for leaf in leaves], lambda: solve_white(tree, xt, yt)

    def test_solves_edit_only_their_own_copy(self):
        for graphs, solve in self._graph_solves():
            before = [(list(g.edges.items()), dict(g.incidence())) for g in graphs]
            first = solve()
            assert [(list(g.edges.items()), g.incidence()) for g in graphs] == before
            assert solve().sequence == first.sequence
            assert any(node.kind == "triad" for node in first.trace.flatten())

    def test_a_routed_solve_leaves_its_graph_unchanged(self, monkeypatch):
        # the graph an incidence matrix is solved on is built by the route,
        # so its edges and index are read as the route hands it over
        import baseswap.pipeline as pipeline

        routed = []

        def route(struct):
            leaf = incidence_leaf(struct)
            if leaf is not None:
                graph = leaf.graph
                routed.append((graph, list(graph.edges.items()), dict(graph.incidence())))
            return leaf

        monkeypatch.setattr(pipeline, "incidence_leaf", route)
        g, x = random_bispanning_graph(30, random.Random(8))
        bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices()))}
        m = Gf2Matroid({e: bit[u] ^ bit[v] for e, (u, v) in g.edges.items()})
        y = random_exchange_walk(GraphicMatroid(g), x, 20, random.Random(9))
        reports = [
            solve_white(gf2_leaf(m), (x.first, x.second), (y.first, y.second)),
            solve_gabow(gf2_leaf(m), (x.first, x.second), last=min(x.second)),
        ]
        assert len(routed) == 2
        for report in reports:
            assert report.trace.payload.get("graph") is True
            assert any(node.kind == "triad" for node in report.trace.flatten())
        for graph, edges, index in routed:
            assert list(graph.edges.items()) == edges and graph.incidence() == index

    def test_graph_solves_build_no_tableau(self, monkeypatch):
        # a graph solve carries its bases as forests from the entry checks
        # to the closing replay: a graphic leaf, a GF(2) incidence matrix
        # routed to its graph, a cographic root swapped to its graph (the
        # leaf's dual matrix is built before the solve), and each graph
        # segment of a 3-sum, counted inside its own engine call
        import baseswap.pipeline as pipeline
        from baseswap.matroid import Tableau
        from baseswap.structure import Leaf
        from test_pipeline import partition_pair, remark_construction

        built, counting, graph_engines = Counter(), [False], Counter()
        init, engine = Tableau.__init__, pipeline._engine

        def counted_init(tab, *args):
            built[counting[0]] += 1
            init(tab, *args)

        def counted(solve, *args, **kwargs):
            was, counting[0] = counting[0], True
            try:
                return solve(*args, **kwargs)
            finally:
                counting[0] = was

        def graph_engine(struct, *args):
            if isinstance(struct, Leaf) and struct.graph is not None:
                graph_engines[struct.tag] += 1
                return counted(engine, struct, *args)
            return engine(struct, *args)

        monkeypatch.setattr(Tableau, "__init__", counted_init)
        monkeypatch.setattr(pipeline, "_engine", graph_engine)
        g, x = random_bispanning_graph(30, random.Random(12))
        m = GraphicMatroid(g)
        y = random_exchange_walk(m, x, 20, random.Random(13))
        pairs = (x.first, x.second), (y.first, y.second)
        bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices()))}
        incidence = gf2_leaf(Gf2Matroid({e: bit[u] ^ bit[v] for e, (u, v) in g.edges.items()}))
        cographic = cographic_leaf(g)
        reports = []
        forbidden = random_forbidden_set(x, y, g, random.Random(14))
        for leaf in (graphic_leaf(g), incidence, cographic):
            reports.append(counted(solve_white, leaf, *pairs, forbidden))
            reports.append(counted(solve_gabow, leaf, pairs[0], last=max(x.first)))
        assert built[True] == 0, built
        node = remark_construction()  # four 4-regular gadgets 3-summed
        xt, view = partition_pair(node)
        yt = random_exchange_walk(view, xt, 10, random.Random(23))
        for solve in (
            lambda: solve_white(node, xt, BasisPair(yt.first, yt.second, node.matroid)),
            lambda: solve_gabow(node, xt),
        ):
            segments = graph_engines["graphic"]
            reports.append(solve())
            assert any(n.kind == "three_sum" for n in reports[-1].trace.flatten())
            assert graph_engines["graphic"] > segments, graph_engines
        assert built[True] == 0 and built[False] > 0, built  # the GF(2) sides build some
        assert all(any(node.kind == "triad" for node in r.trace.flatten()) for r in reports)

    def test_lifts_keep_no_graph_per_level(self, monkeypatch):
        # when the forward pass starts, the solve holds a bounded number of
        # graphs and graph matroids, not one per triad level
        import gc

        import baseswap.pipeline as pipeline

        lift_forward, alive = pipeline._lift_forward, []

        def count():
            gc.collect()
            return Counter(type(o).__name__ for o in gc.get_objects()
                           if isinstance(o, (Multigraph, GraphicMatroid)))

        def counted(root, x):
            alive.append(count())
            return lift_forward(root, x)

        monkeypatch.setattr(pipeline, "_lift_forward", counted)
        g, x = random_bispanning_graph(200, random.Random(0))
        leaf = graphic_leaf(g)
        before = count()
        report = solve_gabow(leaf, x)
        assert sum(node.kind == "triad" for node in report.trace.flatten()) > 100
        assert len(alive) == 1
        alive[0].subtract(before)
        assert max(alive[0].values()) <= 1, alive[0]


# sha256 of the JSON step list `baseswap solve --json` prints for
# `gen bispanning --n n --seed s --mode mode`, recorded before the one-pass
# contraction and the set-based triad lift replaced the per-edge versions
GOLDEN_SEQUENCES = {
    (40, 0, "white"): "a0d462b7f0614d6e34e7985e50ff9ded539c701669e522bac317c24a56a781a8",
    (40, 0, "gabow"): "ad70ff0bcfe899f3cb81ea0dce6c39d4d047f1d428b4f7c09276ece41ac0679f",
    (40, 1, "white"): "75fc91e6e7c6ef83a18fa6057d60975edaa54e3dbe4f706fe80703b6997864f3",
    (40, 1, "gabow"): "e84319b4f266f7ebfe8f1ddf1e19199fa188dcf8a30a7030e76f77c92718b56c",
    (40, 2, "white"): "a38c87d4ba81f9e45176189fcf6f7eb468f55a577b97897e1c5a3037dbd279f4",
    (40, 2, "gabow"): "1118d91894f85f23ad574444b124edfbf3950684cbfb59fba411aa18fbd3df52",
    (80, 0, "white"): "bbbac3d4364f3465a81a00e0e6b9e4be6b935fe2e4d6a99eb530c09d78c90c10",
    (80, 0, "gabow"): "53af781fbf0fb387e9d120a926f9e8315570c4cd5b3bcdc65bd38d2ef7ccce3f",
    (80, 1, "white"): "a7c23f4aaf89428b3487c4e06efb15de48d09c52e3f709f032226c6ec94af5d7",
    (80, 1, "gabow"): "96935ca56284aaacd334389e0a32f46abf8a5e7514e849a894425fcbf3c711f7",
    (80, 2, "white"): "6ab335d2813c60bff0c7d97e84578ee058fac86fe03f735e1385ae18f5d1c19b",
    (80, 2, "gabow"): "67b36d1c4a9f705b2c7eab0192d1320bddfad3a0d207d531f3a7aca03b7316b7",
}


# the same digest for `gen tree-composed --n 40` at one seed per shape
# (graphic-graphic, graphic-R10 and graphic-F7 2-sums, the wheel-octahedron
# 3-sum) and for `gen r10`, recorded before the engine lifted the whole
# reduction tree in one forward pass: these solve on GF(2) frames
GOLDEN_BEYOND_GRAPHS = {
    ("tree-composed", 10, "white"): "c08c4d00cf98b4822a043b235f232603bb108ead7c677f8f13410e7662051902",
    ("tree-composed", 10, "gabow"): "f4e4cb4feb51ab160d82eec620cb547abd04c1139c7b6271a8c62abc7554d397",
    ("tree-composed", 22, "white"): "d6e389cdeb268223ec3ef5990e86c920c64626fbc0fbe2c18bde438ff4392730",
    ("tree-composed", 22, "gabow"): "7ed0f645f862a3f399f5ed23b19b747a356f4104e6df396673e5fb1078e61822",
    ("tree-composed", 23, "white"): "d1446932c5336e0eb6a30caddaaa9d840811310fe41c3ebcad5dc7c7ba770945",
    ("tree-composed", 23, "gabow"): "e8fe6af3fcbce3cb289623d6624fa776f85b5ac1a1b7a6f56c71ee875344a6c5",
    ("tree-composed", 17, "white"): "f5ecab7f4b3b3326d13752b032c9d0e0e752efa006026a6c9805ddf937da574b",
    ("tree-composed", 17, "gabow"): "d47d44de7c2b7afaf888bc88311773faf762d6ad475df9690bbba9a6bc60ed8a",
    ("r10", 0, "white"): "d4731b12e975c30a64da673789e19cc25711ddf9870bb3140a33d1539a37054f",
    ("r10", 0, "gabow"): "788bba2efe42d1826699d97d0a8453ab413ccff1356ff215fad5b17944503089",
}


# the same digest at the bench's graph sizes, recorded before a graph solve
# ran its chain of reductions on one graph edited in place
GOLDEN_AT_BENCH_SCALE = {
    (160, 0, "white"): "f932fcfbf099210c18cb1f163505cccd1540154c9f21092cd205f0dba7f62bc7",
    (160, 0, "gabow"): "3c1b363ee9991560c0b553e7fa75fb25f265a881112b79cd1e7031d8c7fa58f3",
    (160, 1, "white"): "3121da75c4be0a2e2b38d00cfdfed4649f7d322cf36dff22c37975db8f2e8afd",
    (160, 1, "gabow"): "ffcc43440d6ac81869302a9369a4c1b988dafd04448d44f78d7e6306a695a117",
    (240, 0, "white"): "a1ae7423659b99a4496783ff73fe14d49644ba7589826daedef8ce6f5bc69d53",
    (240, 0, "gabow"): "89337bf158e34b2c4335f30a75d52b06d5efdd95ea2ca374fb1dfdb1e121f7f7",
}


# sha256 of the solve trace of each GOLDEN_SEQUENCES instance: every node's
# kind and payload (sets sorted), depth first, so the chain's certificates
# are pinned as well as its steps.  Recorded with GOLDEN_AT_BENCH_SCALE
GOLDEN_TRACES = {
    (40, 0, "white"): "5b4dbab023109971b731f5ecfae6ede8b409f703eb95a8da0d51b2a91e2ab393",
    (40, 0, "gabow"): "8d469146aaf9c62e174ee08b874e82608b362298bb42d9bfee98407a3fc040fb",
    (40, 1, "white"): "648b49d593365bcf377bffc19e191b36cfec43b642e778f7204fdd6ec7b26869",
    (40, 1, "gabow"): "445b8765243a2d65d6252953e316794e9f5a575c95969738440e83550716a30f",
    (40, 2, "white"): "73fa1d534b8f73078caa4e3a5f2f46458dc6343eef03bace2e937f4eac699bb7",
    (40, 2, "gabow"): "d5d8163b7bfab7a62461a27503e4cfab049dd8fbc144ed0ac995ae18f9c3d2b8",
    (80, 0, "white"): "2143b35170562cef9189ee559a5b352ad2a715c9477c69b2a27870aad8aed414",
    (80, 0, "gabow"): "3734bce3ea1da61a7945961a691f058b88abdf3b300e0976240097298a370df8",
    (80, 1, "white"): "b1cbf8246c377bd94e750114631e361a1d60dd8dc56e8190b12b74759f179837",
    (80, 1, "gabow"): "8b85ae688f7372ce9b4a9e4823a01c65f729c26ef5fa1fcf4d3f5411475a7a40",
    (80, 2, "white"): "aac976ae3df153eb338b78a70719692880d3ab5129eca6475f7d0aced4b5fa02",
    (80, 2, "gabow"): "416cad9e1f392b82a0e5065bc47e67b61690ce0b8a45db3649fe30284273ba6f",
}


def _gen_and_solve(gen_args, tmp_path, capsys) -> tuple:
    """The instance object `baseswap gen` writes for ``gen_args``, and the
    JSON step list `baseswap solve --json` prints for it."""
    inst = tmp_path / "inst.json"
    assert main(["gen", *gen_args, "-o", str(inst)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst), "--json"]) == 0
    return json.loads(inst.read_text()), json.loads(capsys.readouterr().out)["steps"]


def _solve_digest(gen_args, tmp_path, capsys) -> str:
    return _steps_digest(_gen_and_solve(gen_args, tmp_path, capsys)[1])


def _referee(obj: dict, steps: list) -> None:
    """``referee_graph_sequence`` on a generated graph instance and its
    steps, read from the files' labels."""
    edges = {}
    for line in obj["matroid"]["text"].splitlines():
        label, u, v = line.split()
        edges[label] = (u, v)
    x = (obj["x1"], obj["x2"])
    reversal = obj["mode"] == "gabow"
    y = x[::-1] if reversal else (obj["y1"], obj["y2"])
    pairs = [(step["e"], step["f"]) for step in steps]
    referee_graph_sequence(
        edges, x, y, pairs, obj.get("forbidden", ()), obj.get("last"), reversal
    )


@pytest.mark.parametrize("n, seed, mode", sorted({**GOLDEN_SEQUENCES, **GOLDEN_AT_BENCH_SCALE}))
def test_golden_sequences(n, seed, mode, tmp_path, capsys):
    # each golden is also replayed by a referee that reads no library code
    args = ["bispanning", "--n", str(n), "--seed", str(seed), "--mode", mode]
    want = {**GOLDEN_SEQUENCES, **GOLDEN_AT_BENCH_SCALE}[(n, seed, mode)]
    obj, steps = _gen_and_solve(args, tmp_path, capsys)
    _referee(obj, steps)
    assert _steps_digest(steps) == want


def _trace_digest(report) -> str:
    def plain(value):
        if isinstance(value, frozenset):
            return sorted(value)
        return list(value) if isinstance(value, tuple) else value

    nodes = [
        [node.kind, {key: plain(value) for key, value in sorted(node.payload.items())}]
        for node in report.trace.flatten()
    ]
    return _steps_digest(nodes)


def _report(obj: dict):
    """The solve report of an instance object, as ``baseswap solve`` runs it."""
    from baseswap.io import parse_instance

    inst = parse_instance(obj)
    x = (inst["x1"], inst["x2"])
    if inst["mode"] == "gabow":
        return solve_gabow(inst["structure"], x, last=inst["last"])
    y = (inst["y1"], inst["y2"])
    return solve_white(inst["structure"], x, y, forbidden=inst["forbidden"])


@pytest.mark.parametrize("n, seed, mode", sorted(GOLDEN_TRACES))
def test_golden_traces(n, seed, mode):
    from baseswap.cli import _gen_bispanning

    report = _report(_gen_bispanning(n, random.Random(seed), mode))
    assert _trace_digest(report) == GOLDEN_TRACES[(n, seed, mode)]


# the same trace digest for solves on GF(2) frames, recorded before those
# frames ran their reductions through the chain a graph solve runs: the
# incidence matrices of `gen bispanning --n 24` as the bench's ``binary``
# workload encodes them, plus one redundant row (the sum of the first two),
# whose columns with three 1s keep the solve on the GF(2) chain; `gen r10`,
# the remark tree (as in GOLDEN_SUM_MINORS) and `gen tree-composed --n 40`.
# The plain encodings ("incidence-bispanning") are solved on their graph
GOLDEN_GF2_TRACES = {
    ("gf2-bispanning", 0, "white"): "d68bcc7ce9ba26462706ea60731ebb51d877aa8a529569875e8f2055eb591c3f",
    ("gf2-bispanning", 0, "gabow"): "1c3aeb145e12caa4270c0ff69b65e381c7c051efbfffeb4c91b64e050a96997e",
    ("gf2-bispanning", 1, "white"): "1e8d2e5b1b8f57d620f5e7d1b6b2d672a65ddd6c12aed4344a060c3e0c5c20e7",
    ("gf2-bispanning", 1, "gabow"): "f31c6148ca53971bf48d7807767473f3a539038338750347039c41665ed2390b",
    ("gf2-bispanning", 2, "white"): "4c4867793966e21e5e220c506fd5b30375d94094feecff068a754d4394f16cc9",
    ("gf2-bispanning", 2, "gabow"): "6ede3ce19aa006b7c02beff567eb644f90f876002a348f5b5dfb836c39ea13f7",
    ("incidence-bispanning", 0, "white"): "9176f4f19474b922af7fcde3b51d5f71ba798db4fea90ad8fdca20cf464ecd17",
    ("incidence-bispanning", 0, "gabow"): "a88f8953e2edf60104db80d02fdb0b0aed339acce79888a46d80c318024f2bec",
    ("incidence-bispanning", 1, "white"): "377c57734f6824289d8bc161158d195863ffe779007d321f316a2db26b35e594",
    ("incidence-bispanning", 1, "gabow"): "69cd738c1ce26631f8aab9eff2b3f6347fc05ce31b1b894497c31598e001f860",
    ("incidence-bispanning", 2, "white"): "cb9f37287082e0aa50bc0221289f79097e71cc4b28ebe5c66525fdfe7f2591a5",
    ("incidence-bispanning", 2, "gabow"): "39af1a6be9af2a2787de36ec1685ab785afeb2b5d59bb3c624fd123fc09fdfb4",
    ("r10", 0, "white"): "f23a642158418e009b648170a2b04afd5aeea22c392a5623dbc71a6fd9c06ed0",
    ("r10", 0, "gabow"): "6f2a0931da314ab61f3e1a98d5128bfa7aacfa75e7c598e9e718b660b2c01daf",
    ("remark", 17, "white"): "9dda783ba4e5afdebdd7e1ec3a845859cf8a115c62842c382bf63cafb1d3610b",
    ("remark", 17, "gabow"): "f9b82e2ee1be4cfd7be9fae5ed425ad9b09499153fff2653abdf1a7a3a71934c",
    ("tree-composed", 10, "white"): "eaeab82e82b6670895b4e3529391b4ef5a375b53515ea2b194a28f2d6c5ac37d",
    ("tree-composed", 10, "gabow"): "ab2cc274f83c932df6318cacedb844c23ce2f41c736f9d45433c5e6ba7792c21",
    ("tree-composed", 17, "white"): "c604438a0c6ad0e9aea4d1aef389dfe79e24bdbb69732a861d14dfbc431c152f",
    ("tree-composed", 17, "gabow"): "1a6f64a336417429c3cefea399352ccbef5519cdad2015fed3ea0aa79e97fd52",
    ("tree-composed", 22, "white"): "967fb0dac66655de07db1a0259146769a06140bdad1cb615eb7c4846c58a8987",
    ("tree-composed", 22, "gabow"): "6449204f36fa156cb1f45776cc516427b88e33aa082137194bf51011c8d896f7",
    ("tree-composed", 23, "white"): "2a1f98bbcb547be5c5881c1a731c8cfe11dcd9048640ce79a6a675627ee869a8",
    ("tree-composed", 23, "gabow"): "ac14bfa492d18add9899df7e9e2beac5cd633153fa48b83f799fd80f7095353d",
}


def _gf2_encoding(obj: dict, redundant: bool = False) -> dict:
    """A graph instance re-encoded as ``kind: gf2``: the vertex-edge
    incidence matrix with the last vertex row dropped, and with one more
    row, the sum of the first two, when ``redundant``; pairs, F and
    ``last`` kept."""
    edges = {lab: (u, v) for lab, u, v in map(str.split, obj["matroid"]["text"].splitlines())}
    labels = sorted(edges)
    verts = sorted({v for uv in edges.values() for v in uv})[:-1]
    rows = ["".join("1" if v in edges[lab] else "0" for lab in labels) for v in verts]
    if redundant:
        rows.append("".join("01"[a != b] for a, b in zip(rows[0], rows[1])))
    return {**obj, "matroid": {"kind": "gf2", "text": "\n".join([" ".join(labels)] + rows)}}


def _gf2_frame_report(kind: str, seed: int, mode: str):
    from baseswap.cli import _gen_bispanning, _gen_r10, _gen_tree

    rng = random.Random(seed)
    if kind.endswith("-bispanning"):
        redundant = kind == "gf2-bispanning"
        return _report(_gf2_encoding(_gen_bispanning(24, rng, mode), redundant))
    if kind == "r10":
        return _report(_gen_r10(rng, mode))
    if kind == "tree-composed":
        return _report(_gen_tree(40, rng, mode))
    from baseswap.io import parse_tree
    from test_pipeline import partition_pair, remark_tree_json

    structure, _ = parse_tree(remark_tree_json())
    x, view = partition_pair(structure)
    walk = random_exchange_walk(view, x, 8, rng)
    y = BasisPair(walk.first, walk.second, structure.matroid)
    return solve_white(structure, x, y) if mode == "white" else solve_gabow(structure, x)


@pytest.mark.parametrize("kind, seed, mode", sorted(GOLDEN_GF2_TRACES))
def test_golden_gf2_traces(kind, seed, mode):
    report = _gf2_frame_report(kind, seed, mode)
    assert _trace_digest(report) == GOLDEN_GF2_TRACES[(kind, seed, mode)]


@st.composite
def incidence_encodings(draw, graph: Multigraph):
    """``graph``'s vertex-edge incidence matrix as a ``kind: gf2`` file may
    hold it: with up to two isolated vertices added, one row, drawn at
    random, dropped and the others in a drawn order."""
    isolated = sorted(draw(st.sets(st.sampled_from(["i", "j"]))))
    rows = draw(st.permutations(sorted(graph.vertices(), key=repr) + isolated))[1:]
    bit = {v: 1 << i for i, v in enumerate(rows)}
    return Gf2Matroid({e: bit.get(u, 0) ^ bit.get(v, 0) for e, (u, v) in graph.edges.items()})


class TestIncidenceRoute:
    """A GF(2) matrix whose every column has at most two 1s is solved on its
    graph (``incidence_leaf``) when F spans at most three of its vertices,
    within the graph bounds r^2 / 2(r - 1), and reported with the bounds
    of its kind (c = 2)."""

    @settings(max_examples=150, deadline=None)
    @given(multigraphs(), st.data())
    def test_the_graph_has_the_matrix_rank(self, graph, data):
        graph = Multigraph(dict(list(graph.edges.items())[:8]))
        m = data.draw(incidence_encodings(graph))
        built = incidence_leaf(gf2_leaf(m)).graph
        assert built.edges.keys() == m.ground
        on_graph, original = GraphicMatroid(built), GraphicMatroid(graph)
        for subset in subsets(sorted(m.ground)):
            assert on_graph.rank(subset) == m.rank(subset) == original.rank(subset)

    def _check(self, report, m, x, y, forbidden=frozenset()):
        r = m.full_rank
        seq = report.sequence
        assert report.trace.payload == {"mode": report.mode, "graph": True}
        final = apply_and_validate(BasisPair(x.first, x.second, m), seq, forbidden)
        assert (final.first, final.second) == (y.first, y.second)
        assert seq.length <= r * r and seq.width <= (max(1, 2 * (r - 1)) if r else 0)
        if report.mode == "gabow":
            assert seq.length == r
        assert report.bound_length == (r if report.mode == "gabow" else max(r, 2 * r * r))
        assert report.bound_width == (max(1, 4 * (r - 1)) if r else 0)

    @settings(max_examples=150, deadline=None)
    @given(multigraphs(), st.data(), st.randoms(use_true_random=False))
    def test_routed_solves_meet_the_graph_bounds(self, graph, data, rng):
        g = GraphicMatroid(graph)
        x = drawn_pair(g, rng)
        y = random_exchange_walk(g, x, rng.randint(1, 8), rng)
        m = data.draw(incidence_encodings(graph))
        forbidden = random_forbidden_set(x, y, incidence_leaf(gf2_leaf(m)).graph, rng)
        report = solve_white(m, (x.first, x.second), (y.first, y.second), forbidden)
        self._check(report, m, x, y, forbidden)
        # the reversal, on the graph with the common elements contracted
        common = x.common
        m = data.draw(incidence_encodings(graph.contract_edges(common)))
        x = BasisPair(x.first - common, x.second - common, m)
        last = rng.choice(sorted(x.union)) if x.union and rng.random() < 0.7 else None
        report = solve_gabow(m, x, last)
        check_reversal(x, report.sequence, last)
        self._check(report, m, x, x.swapped())

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_column_with_three_ones_takes_the_matrix_chain(self, seed, mode):
        from baseswap.cli import _gen_bispanning
        from baseswap.io import parse_instance

        obj = _gf2_encoding(_gen_bispanning(12, random.Random(seed), mode), redundant=True)
        inst = parse_instance(obj)
        m = inst["structure"].matroid
        assert max(col.bit_count() for col in m.columns.values()) == 3
        assert incidence_leaf(inst["structure"]) is None
        report = _report(obj)
        assert report.trace.payload == {"mode": mode}
        x = BasisPair(inst["x1"], inst["x2"], m)
        y = x.swapped() if mode == "gabow" else BasisPair(inst["y1"], inst["y2"], m)
        final = apply_and_validate(x, report.sequence, inst["forbidden"])
        assert (final.first, final.second) == (y.first, y.second)

    def test_f_on_four_vertices_takes_the_matrix_chain(self):
        # the graph rule refuses F on four vertices; the matrix's chain,
        # which asks nothing of F's span, still solves this instance
        from baseswap.cli import _gen_bispanning
        from baseswap.io import parse_instance

        obj = {**_gen_bispanning(8, random.Random(2), "white"), "forbidden": ["e0", "e12"]}
        graph = parse_instance(obj)["structure"].graph
        with pytest.raises(GroundSetError, match="forbidden edges span more than three"):
            _report(obj)
        encoded = _gf2_encoding(obj)
        inst = parse_instance(encoded)
        assert len(vertex_span(incidence_leaf(inst["structure"]).graph, inst["forbidden"])) == 4
        assert len(vertex_span(graph, inst["forbidden"])) == 4
        report = _report(encoded)
        assert report.trace.payload == {"mode": "white"} and report.length
        m = inst["structure"].matroid
        x, y = BasisPair(inst["x1"], inst["x2"], m), BasisPair(inst["y1"], inst["y2"], m)
        final = apply_and_validate(x, report.sequence, inst["forbidden"])
        assert (final.first, final.second) == (y.first, y.second)
        r = m.full_rank
        assert (report.bound_length, report.bound_width) == (2 * r * r, 4 * (r - 1))

    def test_a_bad_f_exits_two(self, tmp_path, capsys):
        # F is checked before its span is read, so an element outside the
        # ground set or outside the matching intersections is refused as
        # for any other matrix
        from baseswap.cli import _gen_bispanning
        from baseswap.io import parse_instance

        obj = _gf2_encoding(_gen_bispanning(8, random.Random(2), "white"))
        inst = parse_instance(obj)
        x, y = (inst["x1"], inst["x2"]), (inst["y1"], inst["y2"])
        with pytest.raises(ReductionError, match="forbidden set must stay inside"):
            solve_white(inst["structure"], x, y, forbidden={max(inst["structure"].ground) + 1})
        label = inst["labels"].label
        outside = sorted((inst["x1"] & inst["y2"]) | (inst["x2"] & inst["y1"]))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**obj, "forbidden": [label(outside[0])]}))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: forbidden set must stay inside matching intersections\n"
        )


@pytest.mark.parametrize("kind, seed, mode", sorted(GOLDEN_BEYOND_GRAPHS))
def test_golden_sequences_beyond_graphs(kind, seed, mode, tmp_path, capsys):
    args = [kind, "--seed", str(seed), "--mode", mode]
    if kind == "tree-composed":
        args += ["--n", "40"]
    digest = _solve_digest(args, tmp_path, capsys)
    assert digest == GOLDEN_BEYOND_GRAPHS[(kind, seed, mode)]


# sha256 of the step lists of solves whose frames are minors of a sum node,
# recorded before those minors stopped composing the tree at every level:
# the 40 one-sum solves of ``test_cographic_leaf_in_a_one_sum`` (a side
# empties and the sum collapses onto the other side), the remark tree of
# ``remark_tree_json`` in both modes, and ``gen tree-composed --n 40 --seed
# 1``, a graphic-R10 2-sum whose minors break the sum preconditions and fall
# back to GF(2) leaves
GOLDEN_SUM_MINORS = {
    ("one-sum", "both"): "ea8763ce3a222034b8cf0ac0c4eeb092c09162b75b5b461443b4469b06fcdb3a",
    ("remark", "white"): "73179ca00a1a0f57716e1e95eca8e4c38baba9431571e57ab4f0d5b587520172",
    ("remark", "gabow"): "4262446f1f70a662f36d48eb5acae3b3432d8ca026e1593a0236a4fbc9dae211",
    ("tree-composed", "white"): "c710ce8b4b073e853cb46ce4d7eaa75f8a97001cf71c6337a33324f10daea1f7",
    ("tree-composed", "gabow"): "4878073eb5f10724da6c25956fb8226df641f1908080fc5bf1e557c45c98e182",
}


def _steps_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("case, mode", sorted(GOLDEN_SUM_MINORS))
def test_golden_sum_minors(case, mode, tmp_path, capsys):
    from test_pipeline import one_sum_solves, partition_pair, remark_tree_json

    if case == "one-sum":
        digest = _steps_digest(
            [[list(map(list, white.steps)), list(map(list, gabow.steps))]
             for _, _, white, gabow in one_sum_solves()]
        )
    elif case == "remark":
        from baseswap.io import parse_tree
        from baseswap.pipeline import solve_gabow, solve_white

        structure, labels = parse_tree(remark_tree_json())
        x, view = partition_pair(structure)
        walk = random_exchange_walk(view, x, 8, random.Random(17))
        y = BasisPair(walk.first, walk.second, structure.matroid)
        report = solve_white(structure, x, y) if mode == "white" else solve_gabow(structure, x)
        digest = _steps_digest(report.sequence.to_json_obj(labels.label))
    else:
        args = ["tree-composed", "--n", "40", "--seed", "1", "--mode", mode]
        digest = _solve_digest(args, tmp_path, capsys)
    assert digest == GOLDEN_SUM_MINORS[(case, mode)]


# sha256 of the step lists of the solves of a caller's own matroid, the lazy
# dual ``DualMatroid(GraphicMatroid(g))`` of ``random_bispanning_graph(16)``
# at seeds 0-11: white to the end of a 16-step walk, and gabow ending on the
# largest element of the first basis.  Recorded while such a matroid was
# still searched through its rank oracle, before it was solved as the GF(2)
# matrix of its fundamental circuits
GOLDEN_CALLER_MATROID = {
    "white": "0038351524cc871f1bfd6ef6551aff214ed55d9bf076c14f5e7104b77e6da2aa",
    "gabow": "9db7f8ae15e5299bde3d8b8801a78488e4907fceb699c7bf64f9328617df81b6",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_CALLER_MATROID))
def test_golden_caller_matroid(mode):
    from baseswap.pipeline import solve_gabow, solve_white

    steps = []
    for seed in range(12):
        rng = random.Random(seed)
        g, x = random_bispanning_graph(16, rng)
        m = DualMatroid(GraphicMatroid(g))
        x = BasisPair(x.first, x.second, m)
        y = random_exchange_walk(m, x, 16, rng)
        if mode == "white":
            report = solve_white(m, x, y)
        else:
            report = solve_gabow(m, x, last=max(x.first))
        steps.append(list(map(list, report.sequence.steps)))
    assert _steps_digest(steps) == GOLDEN_CALLER_MATROID[mode]


def test_golden_trees_cover_every_shape():
    # the seeds above draw each of the four tree-composed shapes once
    from baseswap.cli import _gen_tree

    shapes = set()
    for seed in {seed for kind, seed, _ in GOLDEN_BEYOND_GRAPHS if kind == "tree-composed"}:
        tree = _gen_tree(40, random.Random(seed), "gabow")["matroid"]["tree"]
        tags = sorted(node["tag"] for node in tree["nodes"])
        shapes.add((tuple(tags), tree["sums"][0]["arity"]))
    assert shapes == {
        (("graphic", "graphic"), 2), (("graphic", "r10"), 2), (("f7", "graphic"), 2),
        (("graphic", "graphic"), 3),
    }
