import ast
import inspect
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from baseswap import pipeline
from baseswap.exchange import (
    BasisPair,
    ExchangeSequence,
    apply_and_validate,
    bfs_oracle,
    check_reversal,
)
from baseswap.matroid import (
    Gf2Matroid,
    GraphicMatroid,
    GroundSetError,
    Matroid,
    Multigraph,
    SumSpec,
    graphic_matroid,
)
from baseswap.pipeline import (
    Instance,
    SolveReport,
    UnsupportedStructureError,
    solve_gabow,
    solve_white,
)
from baseswap.reductions import ReductionError, find_triad, find_triangle
from baseswap.structure import (
    as_structure,
    binary_image,
    compose_structures,
    cographic_leaf,
    gf2_view,
    graphic_leaf,
    structure_minor,
    structure_minors,
    Leaf,
    SumNode,
)
from baseswap.union import matroid_union_partition
from baseswap.gen import random_exchange_walk, random_bispanning_graph, random_forbidden_set

from conftest import (
    K4_EDGES,
    DualMatroid,
    MinorMatroid,
    brute_circuits,
    brute_cocircuits,
    brute_sum_rank_fn,
    chain_level,
    definitional_matroid,
    checked_replace,
    drawn_pair,
    gf2_matrices,
    multigraphs,
    r10_two_sum_tree,
    strip_level,
    subsets,
)


def remark_construction():
    """Cographic K3,4 core 3-summed with four 4-regular graphic gadgets."""

    def sid(i, j):
        return 100 * i + j

    core_edges = {sid(i, j): (("a", j), ("b", i)) for i in range(1, 5) for j in range(1, 4)}
    node = cographic_leaf(Multigraph(core_edges))

    for i in range(1, 5):
        def v(kind, idx):
            return (kind, idx, i)

        edges = {}
        nid = 1000 * i
        for j in range(1, 4):
            for l in range(1, 5):
                if (j, l) == (1, 1):
                    continue
                edges[nid] = (v("a", j), v("b", l))
                nid += 1
        for u, w in [
            (v("w", 1), v("a", 1)), (v("w", 1), v("b", 1)), (v("w", 2), v("b", 1)),
            (v("w", 2), v("b", 2)), (v("w", 3), v("b", 3)), (v("w", 3), v("b", 4)),
        ]:
            edges[nid] = (u, w)
            nid += 1
        edges[sid(i, 1)] = (v("w", 1), v("w", 2))
        edges[sid(i, 2)] = (v("w", 2), v("w", 3))
        edges[sid(i, 3)] = (v("w", 3), v("w", 1))
        node = compose_structures(
            node, graphic_leaf(Multigraph(edges)),
            SumSpec(3, frozenset({sid(i, 1), sid(i, 2), sid(i, 3)})),
        )
    return node


def partition_pair(node):
    view = gf2_view(node)
    s1, s2 = matroid_union_partition(view, view, view.ground)
    m = node.matroid
    assert m.is_basis(s1) and m.is_basis(s2)
    return BasisPair(s1, s2, m), view


class TestStructure:
    def test_gf2_view_agrees_on_two_sum(self):
        left = graphic_leaf(Multigraph(dict(K4_EDGES)))
        right = graphic_leaf(
            Multigraph({5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13),
                        9: (11, 14), 10: (12, 14)})
        )
        node = compose_structures(left, right, SumSpec(2, frozenset({5})))
        view = gf2_view(node)
        oracle = brute_sum_rank_fn(left.matroid, right.matroid, frozenset({5}))
        for s in subsets(node.ground):
            assert view.rank(s) == oracle(s)

    @pytest.mark.parametrize("make_leaf", [graphic_leaf, cographic_leaf])
    def test_leaf_minor_checks_its_sets(self, make_leaf):
        # a graph ignores ids it does not hold, so a cographic leaf's minor
        # checks its sets as a graphic leaf's matroid does
        leaf = make_leaf(Multigraph(dict(K4_EDGES)))
        for c, d in (({99}, ()), ((), {99}), ({0}, {0})):
            with pytest.raises(GroundSetError):
                structure_minor(leaf, c, d)
        minor = structure_minor(leaf, {0}, {1})
        assert (minor.tag, minor.ground) == (leaf.tag, leaf.ground - {0, 1})

    def test_two_sum_with_a_callers_matroid_part(self):
        # a lazy dual is neither GF(2) nor graphic, so it becomes the GF(2)
        # leaf of its [I | A] image, built from fundamental circuits
        left = DualMatroid(graphic_matroid(dict(K4_EDGES)))
        right = graphic_matroid(
            {5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13), 9: (11, 14), 10: (12, 14)}
        )
        node = compose_structures(as_structure(left), graphic_leaf(right.graph),
                                  SumSpec(2, frozenset({5})))
        assert node.left.tag == "gf2"
        oracle = brute_sum_rank_fn(left, right, frozenset({5}))
        for s in subsets(node.ground):
            assert node.matroid.rank(s) == oracle(s)

    def test_remark_node_matches_definitional_sum_rank(self):
        node = remark_construction()
        definitional = definitional_matroid(node)
        assert node.matroid.ground == definitional.ground
        rng = random.Random(3)
        elems = sorted(node.ground)
        for _ in range(40):
            s = frozenset(rng.sample(elems, rng.randint(0, len(elems))))
            assert node.matroid.rank(s) == definitional.rank(s)

    def test_structure_minor_pushes_into_leaves(self):
        left = graphic_leaf(Multigraph(dict(K4_EDGES)))
        right = graphic_leaf(
            Multigraph({5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13),
                        9: (11, 14), 10: (12, 14)})
        )
        node = compose_structures(left, right, SumSpec(2, frozenset({5})))
        sub = structure_minor(node, contract=frozenset({0}), delete=frozenset({10}))
        assert isinstance(sub, SumNode)
        assert isinstance(sub.left, Leaf) and sub.left.tag == "graphic"
        lazy = MinorMatroid(node.matroid, frozenset({0}), frozenset({10}))
        for s in subsets(sub.ground):
            assert sub.matroid.rank(s) == lazy.rank(s)

    def test_structure_minor_rejects_sets_outside_the_ground_set(self):
        # the shared element and an unknown id both lie outside a sum node
        left = graphic_leaf(Multigraph(dict(K4_EDGES)))
        right = graphic_leaf(Multigraph({5: (11, 12), 6: (12, 13), 7: (13, 11)}))
        node = compose_structures(left, right, SumSpec(2, frozenset({5})))
        for outside in (5, 99):
            with pytest.raises(GroundSetError):
                structure_minor(node, contract=frozenset({outside}))

    def test_structure_minors_match_one_minor_at_a_time(self):
        # a list of minors gives the structure one ``structure_minor`` per
        # minor gives: the same tree, leaf tags and graphs (vertex names
        # included), and the same matroid where a node falls back to GF(2)
        def shape(struct):
            if isinstance(struct, SumNode):
                return (struct.spec, shape(struct.left), shape(struct.right))
            graph = struct.graph.edges if struct.graph is not None else None
            return (struct.tag, struct.ground, graph)

        seen = Counter()
        for seed in range(30):
            rng = random.Random(seed)
            g1, _ = random_bispanning_graph(rng.randint(4, 7), rng)
            g2, _ = random_bispanning_graph(rng.randint(3, 6), rng)
            g2 = Multigraph({e + 1000: uv for e, uv in g2.edges.items()})
            sides = [cographic_leaf(g1), graphic_leaf(g2)]
            rng.shuffle(sides)
            node = (remark_construction(), compose_structures(*sides, SumSpec(1)))[seed % 2]
            one_at_a_time, minors, gone = node, (), frozenset()
            while len(node.ground - gone) > 6:
                # a 1-sum loses its left side first, so that the side empties
                pool = (node.left.ground - gone if seed % 2 else ()) or node.ground - gone
                drop = rng.sample(sorted(pool), min(len(pool), rng.randint(1, 3)))
                cut = rng.randint(0, len(drop))
                c, d = frozenset(drop[:cut]), frozenset(drop[cut:])
                one_at_a_time = structure_minor(one_at_a_time, c, d)
                minors, gone = minors + ((c, d),), gone | c | d
                at_once = structure_minors(node, minors, gone)
                assert shape(at_once) == shape(one_at_a_time) or (
                    at_once.tag == one_at_a_time.tag == "gf2"
                )
                rest = sorted(at_once.ground)
                for _ in range(4):
                    s = rng.sample(rest, rng.randint(0, len(rest)))
                    assert at_once.matroid.rank(s) == one_at_a_time.matroid.rank(s)
                seen[type(at_once).__name__ + getattr(at_once, "tag", "")] += 1
        # sum nodes, GF(2) fallbacks and the sides of collapsed 1-sums occur
        assert {"SumNode", "Leafgf2", "Leafgraphic", "Leafcographic"} <= set(seen), seen

    def test_cographic_leaf_minor_swaps_operations(self):
        leaf = cographic_leaf(Multigraph(dict(K4_EDGES)))
        sub = structure_minor(leaf, contract=frozenset({0}), delete=frozenset({5}))
        lazy = MinorMatroid(leaf.matroid, frozenset({0}), frozenset({5}))
        assert sub.tag == "cographic"
        for s in subsets(sub.ground):
            assert sub.matroid.rank(s) == lazy.rank(s)

    def test_finders_match_brute_force(self):
        # the first 3-element circuit and cocircuit of K4's GF(2) view, among
        # all of them by enumeration; R10 has neither
        from baseswap.special import r10_matroid

        m = graphic_matroid(dict(K4_EDGES))
        view = gf2_view(graphic_leaf(m.graph))
        for finder, brute in ((find_triangle, brute_circuits), (find_triad, brute_cocircuits)):
            want = min((c for c in brute(m) if len(c) == 3), key=sorted)
            assert finder(view) == want
        r10 = r10_matroid()
        assert find_triangle(r10) is None
        assert find_triad(r10) is None


class TestSolveEndToEnd:
    def test_k4_report_fields(self, k4):
        m, x, y = k4
        report = solve_white(m, x, y)
        assert report.rank == 3
        assert report.bound_length == 9 and report.bound_width == 4
        assert 1 <= report.length <= 9

    def test_gabow_graphic_exact(self, k4):
        m, x, _ = k4
        report = solve_gabow(m, x)
        assert report.length == 3 and report.bound_length == 3

    def test_gabow_with_last(self, k4):
        m, x, _ = k4
        for h in range(6):
            report = solve_gabow(m, x, last=h)
            assert h in report.sequence.steps[-1]

    def test_r10_via_pipeline(self):
        from baseswap.special import r10_matroid, r10_fixture_pair

        m = r10_matroid()
        x = r10_fixture_pair(m)
        report = solve_gabow(m, x)
        assert report.length == 5

    def test_bfs_fallback_for_plain_gf2(self):
        m = Gf2Matroid({0: 0b01, 1: 0b10, 2: 0b11, 3: 0b01})
        x = BasisPair(frozenset({0, 1}), frozenset({2, 3}), m)
        y = BasisPair(frozenset({1, 3}), frozenset({0, 2}), m)
        report = solve_white(m, x, y)
        final = apply_and_validate(x, report.sequence)
        assert final.first == y.first

    def test_unsupported_structure_raises(self):
        # R10 admits no reduction; as a plain GF(2) matrix above the search
        # cap it has no route left
        from baseswap.special import r10_matroid, r10_fixture_pair

        m = r10_matroid()
        x = r10_fixture_pair(m)
        with pytest.raises(UnsupportedStructureError):
            solve_white(m, x, x.swapped(), bfs_cap=8)

    def test_non_binary_callers_matroid_is_refused(self):
        # a caller's matroid is solved as the GF(2) matrix of its fundamental
        # circuits.  U(3,6) is not binary, and its matrix holds 3, 4 and 5 as
        # one column, so the second basis of x is no basis there.  U(2,4)
        # with the pair ({0, 1}, {2, 3}) reaches rank <= 2 without a
        # reduction, and its matrix holds 2 and 3 as one column; the image
        # is taken at the root, so it is refused too
        class Uniform(Matroid):
            def __init__(self, r, n):
                super().__init__(frozenset(range(n)))
                self.r = r

            def _rank(self, subset):
                return min(len(subset), self.r)

        u36 = Uniform(3, 6)
        x36 = BasisPair(frozenset({0, 1, 2}), frozenset({3, 4, 5}), u36)
        y36 = BasisPair(frozenset({0, 1, 3}), frozenset({2, 4, 5}), u36)
        u24 = Uniform(2, 4)
        x24 = BasisPair(frozenset({0, 1}), frozenset({2, 3}), u24)
        for m, x, y in ((u36, x36, y36), (u24, x24, x24.swapped())):
            for solve in (lambda: solve_white(m, x, y), lambda: solve_gabow(m, x)):
                with pytest.raises(GroundSetError, match="the caller's matroid is not binary"):
                    solve()

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(gf2_matrices(), multigraphs().map(lambda g: gf2_view(graphic_leaf(g)))),
        st.randoms(use_true_random=False),
    )
    def test_callers_matroid_solves_as_its_matrix(self, m, rng):
        # a caller's matroid is solved as its [I | A] image from the root,
        # strips included: a lazy view of m gives the image's own sequences
        # (or refusals).  The image, not m: an incidence matrix m is solved
        # on its graph, and its image may not be.  The white pair has
        # uncovered and common elements and a drawn F; the reversal, on m
        # with the common elements contracted, has uncovered elements and a
        # drawn designated last element
        def outcome(solve, m, *args):
            try:
                return solve(m, *args).sequence.steps
            except (UnsupportedStructureError, GroundSetError) as err:
                return type(err), str(err)

        def same(solve, m, *args):
            wrapped = DualMatroid(DualMatroid(m))
            assert outcome(solve, wrapped, *args) == outcome(solve, binary_image(m), *args)

        x = drawn_pair(m, rng)
        y = random_exchange_walk(m, x, rng.randint(1, 8), rng)
        eligible = sorted((x.first & y.first) | (x.second & y.second))
        same(solve_white, m, x, y, frozenset(e for e in eligible if rng.random() < 0.3))
        common = x.common
        m = m.minor(contract=common)
        x = BasisPair(x.first - common, x.second - common, m)
        last = rng.choice(sorted(x.union)) if x.union and rng.random() < 0.7 else None
        same(solve_gabow, m, x, last)

    def test_remark_construction_white_and_gabow(self):
        node = remark_construction()
        m = node.matroid
        assert len(m.ground) == 68 and m.full_rank == 34
        x, view = partition_pair(node)
        rng = random.Random(23)
        y = random_exchange_walk(view, x, 10, rng)
        y = BasisPair(y.first, y.second, m)
        report = solve_white(node, x, y)
        assert report.length <= 2 * 34 * 34
        assert report.width <= 4 * 33
        kinds = {n.kind for n in report.trace.flatten()}
        assert "three_sum" in kinds
        gab = solve_gabow(node, x)
        assert gab.length == 34

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_three_sum_trace_names_the_bullet_edges(self, mode):
        # the graphic side of a 3-sum is solved inside the engine, so its
        # reductions sit under the route's node.  Gadget i's 17 edges off
        # its triangle {100 i + 1, 100 i + 2, 100 i + 3} are 1000 i onwards
        node = remark_construction()
        x, view = partition_pair(node)
        if mode == "white":
            y = random_exchange_walk(view, x, 10, random.Random(23))
            report = solve_white(node, x, BasisPair(y.first, y.second, node.matroid))
        else:
            report = solve_gabow(node, x)
        routes = [n for n in report.trace.flatten() if n.kind == "three_sum"]
        assert routes
        for route in routes:
            (i,) = {t // 100 for t in route.payload["shared"]}
            named = set()
            for n in route.flatten():
                for value in n.payload.values():
                    if isinstance(value, (frozenset, tuple)):
                        named |= set(value)
                    elif type(value) is int:
                        named.add(value)
            assert named & set(range(1000 * i, 1000 * i + 17)), (i, sorted(named))

    def test_composed_small_instances_with_bfs_lower_bound(self):
        rng = random.Random(6)
        wheel = Multigraph(
            {100: (0, 1), 101: (0, 2), 102: (1, 2), 3: (0, 3), 4: (0, 4),
             5: (2, 3), 6: (3, 4), 7: (4, 1)}
        )
        oct_edges = {100: (11, 12), 101: (11, 13), 102: (12, 13)}
        nid, opposite = 20, {11: 14, 12: 15, 13: 16}
        for u in range(11, 17):
            for v in range(u + 1, 17):
                if opposite.get(u) == v or (u, v) in ((11, 12), (11, 13), (12, 13)):
                    continue
                oct_edges[nid] = (u, v)
                nid += 1
        node = compose_structures(
            graphic_leaf(wheel), graphic_leaf(Multigraph(oct_edges)),
            SumSpec(3, frozenset({100, 101, 102})),
        )
        x, view = partition_pair(node)
        m = node.matroid
        for _ in range(5):
            y = random_exchange_walk(view, x, rng.randint(1, 6), rng)
            y = BasisPair(y.first, y.second, m)
            report = solve_white(node, x, y)
            lower = bfs_oracle(m, x, y).distance
            assert lower <= report.length <= 2 * m.full_rank**2


class TestTraceReplay:
    def _replay(self, inst, node):
        """Re-apply a recorded reduction: it must record the same
        certificate, and each recorded subtree must replay from the child
        the reduction makes.  The strips run together, contract_common
        nested in delete_uncovered; a tight split and a triad are one chain
        level each."""
        if node.kind in ("delete_uncovered", "contract_common"):
            path = [node] + [n for n in node.children[:1] if n.kind == "contract_common"]
            child, made = strip_level(inst)
            assert [(n.kind, n.payload) for n in made] == [(n.kind, n.payload) for n in path]
            children, subtrees = [child], [path[-1].children]
        elif node.kind in ("tight_split", "triad"):
            if node.kind == "tight_split":
                level = chain_level(inst, z=node.payload["z"])
                subtrees = [wrapper.children for wrapper in node.children]
            else:
                dual = node.payload.get("dualized", False)
                level = chain_level(inst, triad=node.payload["triad"], dual=dual)
                subtrees = [node.children]
            assert level.payload == node.payload
            children = level.children
        else:
            return  # terminal node
        assert len(subtrees) == len(children)
        for subs, child in zip(subtrees, children):
            for sub in subs:
                self._replay(child, sub)

    def test_reduction_trace_replays(self, dt):
        m, x = dt
        y = BasisPair(frozenset({1, 2}), frozenset({0, 3}), m)
        # a bispanning graph: the graph rule's tight splits and triads replay
        rng = random.Random(12)
        g, gx = random_bispanning_graph(12, rng)
        gm = GraphicMatroid(g)
        gy = random_exchange_walk(gm, gx, 12, rng)
        # both strips: edge 5 lies outside the union, and edge 0 in every basis
        sm = graphic_matroid({0: (1, 2), 1: (2, 3), 2: (1, 3), 3: (2, 4), 4: (3, 4), 5: (1, 4)})
        sx = BasisPair(frozenset({0, 1, 3}), frozenset({0, 2, 4}), sm)
        sy = BasisPair(frozenset({0, 2, 3}), frozenset({0, 1, 4}), sm)
        kinds = set()
        for m, x, y in ((m, x, y), (gm, gx, gy), (sm, sx, sy)):
            report = solve_white(m, x, y)
            inst = Instance(m, x, y)
            for node in report.trace.children:
                self._replay(inst, node)
            kinds |= {n.kind for n in report.trace.flatten()}
        assert {"tight_split", "triad", "delete_uncovered", "contract_common"} <= kinds

    def test_deterministic_traces(self, k4):
        m, x, y = k4
        r1 = solve_white(m, x, y)
        r2 = solve_white(m, x, y)
        assert r1.sequence == r2.sequence
        assert [n.kind for n in r1.trace.flatten()] == [n.kind for n in r2.trace.flatten()]

    def test_certificates_listed(self):
        left = {i: K4_EDGES[i] for i in range(6)}
        right = {i + 6: (u + 10, v + 10) for i, (u, v) in K4_EDGES.items()}
        m = graphic_matroid({**left, **right})
        x = BasisPair(frozenset({0, 1, 2, 6, 7, 8}), frozenset({3, 4, 5, 9, 10, 11}), m)
        y = BasisPair(frozenset({0, 4, 2, 6, 7, 8}), frozenset({3, 1, 5, 9, 10, 11}), m)
        report = solve_white(gf2_view(graphic_leaf(m.graph)), x, y)
        kinds = {c.kind for c in report.certificates}
        assert "tight_split" in kinds


class TestMoreStructure:
    def test_gf2_view_handles_loops_and_parallels(self):
        g = Multigraph({0: (1, 1), 1: (1, 2), 2: (1, 2), 3: (2, 3)})
        for leaf in (graphic_leaf(g), cographic_leaf(g)):
            view = gf2_view(leaf)
            for s in subsets(leaf.ground):
                assert view.rank(s) == leaf.matroid.rank(s)

    def test_cographic_input_solves_with_graphic_bounds(self, k4):
        m, x, y = k4
        leaf = cographic_leaf(m.graph)
        cx = BasisPair(x.first, x.second, leaf.matroid)
        cy = BasisPair(y.first, y.second, leaf.matroid)
        report = solve_white(leaf, cx, cy)
        assert report.bound_length == 9 and report.bound_width == 4
        final = apply_and_validate(cx, report.sequence)
        assert final.first == cy.first
        gab = solve_gabow(leaf, cx)
        assert gab.length == 3

    def test_cographic_leaf_solves_as_its_graph(self):
        # a disjoint covering pair of M* is a pair of spanning trees of the
        # graph, and the engine solves it as the graphic leaf
        rng = random.Random(4)
        g, x = random_bispanning_graph(12, rng)
        y = random_exchange_walk(GraphicMatroid(g), x, 12, rng)
        f = random_forbidden_set(x, y, g, rng)
        h = max(x.union)
        white, gabow = [], []
        for leaf in (graphic_leaf(g), cographic_leaf(g)):
            white.append(solve_white(leaf, x, y, forbidden=f).sequence)
            gabow.append(solve_gabow(leaf, x, last=h).sequence)
        assert white[0] == white[1] and white[0].length > 0
        assert gabow[0] == gabow[1] and h in gabow[0].steps[-1]

    def test_cographic_root_replays_on_its_graph(self, monkeypatch):
        # the closing replay of a cographic root runs on the forests of its
        # graph, and builds no GF(2) tableau
        rng = random.Random(4)
        g, x = random_bispanning_graph(12, rng)
        y = random_exchange_walk(GraphicMatroid(g), x, 12, rng)
        replay, graphs = pipeline.apply_and_validate, []

        def recorded(pair, seq, forbidden=()):
            graphs.append(pair.matroid.dual_of)
            return replay(pair, seq, forbidden)

        def refuse(*args):
            raise RuntimeError("a GF(2) tableau was built")

        monkeypatch.setattr(pipeline, "apply_and_validate", recorded)
        monkeypatch.setattr(Gf2Matroid, "tableau", refuse)
        solve_white(cographic_leaf(g), x, y)
        solve_gabow(cographic_leaf(g), x)
        assert [graph.graph.edges for graph in graphs] == [g.edges] * 2

    def test_cographic_root_checks_its_members_on_its_graph(self, monkeypatch):
        # B is a basis of M*(G) exactly when E - B is a spanning forest of G,
        # so a cographic root's entry rules, like its replay, run no GF(2)
        # elimination, and refuse a bad member with the same messages
        rng = random.Random(4)
        g, x = random_bispanning_graph(12, rng)
        y = random_exchange_walk(GraphicMatroid(g), x, 12, rng)

        def refuse(*args):
            raise RuntimeError("a GF(2) elimination ran")

        monkeypatch.setattr(Gf2Matroid, "_eliminate", refuse)
        leaf = cographic_leaf(g)
        assert solve_white(leaf, x, y).rank == leaf.matroid.full_rank == len(g.edges) // 2
        solve_gabow(leaf, x)
        with pytest.raises(ReductionError, match="^instance member is not a basis$"):
            solve_white(leaf, x, (y.first - {min(y.first)}, y.second))
        with pytest.raises(GroundSetError, match=r"^elements \[99\] not in ground set$"):
            solve_gabow(leaf, (x.first, x.second - {min(x.second)} | {99}))

    def test_cographic_leaf_in_a_one_sum(self):
        # a tight split of the sum hands its cographic side tableaux of
        # M*(G); the graph that side is solved on needs its own, of M(G)
        for x, y, white, gabow in one_sum_solves():
            final = apply_and_validate(x, white)
            assert (final.first, final.second) == (y.first, y.second)
            check_reversal(x, gabow)


def one_sum_solves():
    """40 white and gabow solves of a cographic and a graphic leaf in a
    1-sum, as (x, y, white sequence, gabow sequence).  The minors empty one
    side at some level, and the sum then collapses onto the other."""
    for seed in range(40):
        rng = random.Random(seed)
        g1, _ = random_bispanning_graph(rng.randint(4, 8), rng)
        g2, _ = random_bispanning_graph(rng.randint(3, 6), rng)
        g2 = Multigraph({e + 1000: uv for e, uv in g2.edges.items()})
        sides = [cographic_leaf(g1), graphic_leaf(g2)]
        rng.shuffle(sides)
        node = compose_structures(*sides, SumSpec(1))
        x, view = partition_pair(node)
        walk = random_exchange_walk(view, x, 12, rng)
        y = BasisPair(walk.first, walk.second, node.matroid)
        yield x, y, solve_white(node, x, y).sequence, solve_gabow(node, x).sequence


def remark_tree_json():
    """The same construction expressed as a decomposition-tree file."""

    def shared(i, j):
        return f"t{i}{j}"

    core_lines = [
        f"{shared(i, j)} a{j} b{i}" for i in range(1, 5) for j in range(1, 4)
    ]
    nodes = [{"id": "core", "tag": "cographic", "graph": "\n".join(core_lines)}]
    sums = []
    for i in range(1, 5):
        lines = []
        eid = 0
        for j in range(1, 4):
            for l in range(1, 5):
                if (j, l) == (1, 1):
                    continue
                lines.append(f"g{i}e{eid} a{j} b{l}")
                eid += 1
        for u, w in (("w1", "a1"), ("w1", "b1"), ("w2", "b1"),
                     ("w2", "b2"), ("w3", "b3"), ("w3", "b4")):
            lines.append(f"g{i}e{eid} {u} {w}")
            eid += 1
        lines.append(f"{shared(i, 1)} w1 w2")
        lines.append(f"{shared(i, 2)} w2 w3")
        lines.append(f"{shared(i, 3)} w3 w1")
        nodes.append({"id": f"gadget{i}", "tag": "graphic", "graph": "\n".join(lines)})
        sums.append({
            "a": "core", "b": f"gadget{i}", "arity": 3,
            "shared": [shared(i, 1), shared(i, 2), shared(i, 3)],
        })
    return {"nodes": nodes, "sums": sums}


class TestTreeLoadedInstances:
    def test_remark_construction_from_tree_json(self):
        from baseswap.io import parse_tree

        structure, labels = parse_tree(remark_tree_json())
        m = structure.matroid
        assert len(m.ground) == 68 and m.full_rank == 34
        x, view = partition_pair(structure)
        rng = random.Random(17)
        walk = random_exchange_walk(view, x, 8, rng)
        y = BasisPair(walk.first, walk.second, m)
        report = solve_white(structure, x, y)
        final = apply_and_validate(x, report.sequence)
        assert final.first == y.first
        assert any(n.kind == "three_sum" for n in report.trace.flatten())
        assert solve_gabow(structure, x).length == 34

    def test_three_leaf_chain_from_tree_json(self):
        from baseswap.io import parse_tree, R10_LABELS

        tree = {
            "nodes": [
                {"id": "g1", "tag": "graphic", "graph": "t1 1 2\na1 2 3\na2 1 2\na3 2 3"},
                {"id": "g2", "tag": "graphic", "graph": "t1 7 8\nt2 8 9\nb1 7 9\nb2 7 9"},
                {"id": "r", "tag": "r10", "labels": ["t2"] + [f"r{l}" for l in R10_LABELS[1:]]},
            ],
            "sums": [
                {"a": "g1", "b": "g2", "arity": 2, "shared": ["t1"]},
                {"a": "g2", "b": "r", "arity": 2, "shared": ["t2"]},
            ],
        }
        structure, labels = parse_tree(tree)
        m = structure.matroid
        x, view = partition_pair(structure)
        rng = random.Random(2)
        walk = random_exchange_walk(view, x, 5, rng)
        y = BasisPair(walk.first, walk.second, m)
        report = solve_white(structure, x, y)
        final = apply_and_validate(x, report.sequence)
        assert final.first == y.first
        assert solve_gabow(structure, x).length == m.full_rank == 7


class TestSumRouteAndSearch:
    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_r10_two_sum_solves_through_the_route(self, mode):
        from baseswap.io import parse_tree

        structure, _ = parse_tree(r10_two_sum_tree())
        m = structure.matroid
        assert len(m.ground) == 18 and m.full_rank == 9
        x, view = partition_pair(structure)
        if mode == "gabow":
            y = x.swapped()
            report = solve_gabow(structure, x)
            check_reversal(x, report.sequence)
        else:
            walk = random_exchange_walk(view, x, 6, random.Random(5))
            y = BasisPair(walk.first, walk.second, m)
            report = solve_white(structure, x, y)
        kinds = [n.kind for n in report.trace.flatten()]
        assert kinds[1] == "two_sum" and kinds[2:] == ["bfs", "bfs"]
        final = apply_and_validate(x, report.sequence)
        assert (final.first, final.second) == (y.first, y.second)
        assert report.length <= report.bound_length and report.width <= report.bound_width

    def test_sum_route_refusal_names_its_clause(self):
        # beyond the search cap, F or a designated last element leaves the
        # 2-sum tree without a route; the error says why
        from baseswap.io import parse_tree

        structure, _ = parse_tree(r10_two_sum_tree())
        m = structure.matroid
        x, view = partition_pair(structure)
        clause = "take no forbidden set or designated last element"
        with pytest.raises(UnsupportedStructureError, match=clause):
            solve_gabow(structure, x, last=min(x.first))
        walk = random_exchange_walk(view, x, 3, random.Random(1))
        y = BasisPair(walk.first, walk.second, m)
        stay = min(x.first & y.first)
        with pytest.raises(UnsupportedStructureError, match=clause):
            solve_white(structure, x, y, forbidden={stay})

    def test_r10_reversal_ends_on_each_element(self):
        # R10 is irreducible and under the cap: the search appends a final
        # step through the designated element to a monotone search
        from baseswap.special import r10_matroid, r10_fixture_pair

        m = r10_matroid()
        x = r10_fixture_pair(m)
        for last in sorted(m.ground):
            report = solve_gabow(m, x, last=last)
            assert report.length == 5 and last in report.sequence.steps[-1]
            check_reversal(x, report.sequence, last)
            assert [n.kind for n in report.trace.flatten()] == ["solve", "bfs"]


def test_sum_trees_are_composed_only_for_routes(monkeypatch, capsys):
    # a minor of a sum-node frame is left pending; its tree is composed only
    # where a route or a refusal reads it (the engine's ``structure_minors``),
    # once per sum node, and never once per level of the solve
    import baseswap.pipeline as engine
    import baseswap.structure as structure
    from baseswap.cli import _pairs, main
    from baseswap.io import parse_instance, parse_tree

    calls = Counter()
    building = []
    compose, build = structure.compose_structures, getattr(structure, "structure_minors", None)

    def counted_compose(*args):
        calls["built" if building else "level"] += 1
        return compose(*args)

    def counted_build(*args):
        building.append(True)
        try:
            return build(*args)
        finally:
            building.pop()

    monkeypatch.setattr(structure, "compose_structures", counted_compose)
    monkeypatch.setattr(engine, "structure_minors", counted_build, raising=False)

    def solves(structure_, x, y):
        yield solve_white(structure_, x, y)
        yield solve_gabow(structure_, x)

    remark, _ = parse_tree(remark_tree_json())
    x, view = partition_pair(remark)
    walk = random_exchange_walk(view, x, 8, random.Random(17))
    cases = [("remark", remark, x, BasisPair(walk.first, walk.second, remark.matroid))]
    # the wheel-octahedron 3-sum, and a graphic-R10 2-sum whose frame reaches
    # the route after 12 levels of minors
    for seed in (0, 1):
        assert main(["gen", "tree-composed", "--n", "40", "--seed", str(seed)]) == 0
        inst = parse_instance(json.loads(capsys.readouterr().out))
        checked = _pairs(inst)
        cases.append((seed, inst["structure"], checked.x, checked.y))
    for name, struct, x, y in cases:
        for report in solves(struct, x, y):
            levels = len(report.trace.flatten())
            assert levels > 20
            assert calls["level"] == 0, (name, calls)
            assert calls["built"] == (1 if name == 1 else 0), (name, calls)
            calls.clear()


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O; the library's checks must not
    src = Path(__file__).resolve().parent.parent / "src" / "baseswap"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) > 10
    assert found == []


def incidence_encoding(obj):
    """A graph instance re-encoded as ``kind: gf2``, the vertex-edge incidence
    matrix over GF(2); pairs and F are kept."""
    from baseswap.io import parse_graph_text

    edges = parse_graph_text(obj["matroid"]["text"])
    labels = sorted(edges)
    verts = sorted({v for uv in edges.values() for v in uv})
    rows = [
        "".join("1" if v in edges[lab] and edges[lab][0] != edges[lab][1] else "0" for lab in labels)
        for v in verts
    ]
    return dict(obj, matroid={"kind": "gf2", "text": "\n".join([" ".join(labels)] + rows)})


def test_forbidden_set_on_gf2_instances():
    # `gen bispanning` white instances that carry F, solved as GF(2) matrices:
    # the triad and triangle searches must avoid F
    from baseswap.cli import _gen_bispanning
    from baseswap.io import parse_instance

    solved = 0
    for n in (12, 16, 24):
        for seed in range(10):
            obj = _gen_bispanning(n, random.Random(seed), "white")
            if "forbidden" not in obj:
                continue
            inst = parse_instance(incidence_encoding(obj))
            m = inst["structure"].matroid
            assert isinstance(m, Gf2Matroid)
            x = BasisPair(inst["x1"], inst["x2"], m)
            y = BasisPair(inst["y1"], inst["y2"], m)
            forbidden = inst["forbidden"]
            report = solve_white(inst["structure"], x, y, forbidden=forbidden)
            final = apply_and_validate(x, report.sequence, forbidden)
            assert (final.first, final.second) == (y.first, y.second)
            r = m.full_rank
            assert report.length <= 2 * r * r and report.width <= 4 * (r - 1)
            solved += 1
    assert solved == 25


@pytest.mark.parametrize("mode", ["white", "gabow"])
def test_deep_graph_solve_needs_no_deep_python_stack(mode):
    # a graph solve reduces one vertex per level; the engine keeps those
    # levels on its own stack, so rank 299 solves with little Python stack
    from baseswap.cli import _gen_bispanning
    from baseswap.io import parse_instance

    inst = parse_instance(_gen_bispanning(300, random.Random(0), mode))
    m = inst["structure"].matroid
    x = BasisPair(inst["x1"], inst["x2"], m)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 120)
    try:
        if mode == "gabow":
            report = solve_gabow(inst["structure"], x, last=inst["last"])
        else:
            y = BasisPair(inst["y1"], inst["y2"], m)
            report = solve_white(inst["structure"], x, y, forbidden=inst["forbidden"])
        kinds = Counter(c.kind for c in report.certificates)
    finally:
        sys.setrecursionlimit(limit)
    assert report.rank == 299
    assert set(kinds) <= {"tight_split", "triad"}
    # one reduction per level down to rank 2, unless a white child is solved
    # already
    assert 0 < sum(kinds.values()) <= 297
    if mode == "gabow":
        assert sum(kinds.values()) == 297


@pytest.mark.parametrize("mode", ["white", "gabow"])
def test_graph_solve_rank_query_budget(mode, monkeypatch):
    # past the root's entry checks a graph solve reads ranks from its pairs
    # and tableaux: the only rank queries left are the rank <= 2 leaves'
    # steps (the lift asks independence tests), none on more than r
    # elements
    import baseswap.pipeline as pipeline
    from baseswap.cli import _gen_bispanning
    from baseswap.io import parse_instance
    from baseswap.matroid import Matroid

    inst = parse_instance(_gen_bispanning(40, random.Random(0), mode))
    m = inst["structure"].matroid
    x = BasisPair(inst["x1"], inst["x2"], m)
    queries = []  # (query size, whether it is the matroid's whole ground set)
    engine, rank = pipeline._engine, Matroid.rank

    def counted_engine(*args):
        queries.append(None)  # entry checks are over
        return engine(*args)

    def counted_rank(self, subset):
        if queries and isinstance(self, GraphicMatroid):
            s = frozenset(subset)
            queries.append((len(s), s == self.ground))
        return rank(self, subset)

    monkeypatch.setattr(pipeline, "_engine", counted_engine)
    monkeypatch.setattr(Matroid, "rank", counted_rank)
    if mode == "gabow":
        report = solve_gabow(inst["structure"], x, last=inst["last"])
    else:
        y = BasisPair(inst["y1"], inst["y2"], m)
        report = solve_white(inst["structure"], x, y, forbidden=inst["forbidden"])
    sizes = [q for q in queries if q is not None]
    assert report.rank == 39 and len(m.ground) == 78
    assert sizes, "the rank <= 2 leaves ask the rank oracle"
    assert max(size for size, _ in sizes) <= report.rank
    assert sum(whole for _, whole in sizes) <= 1


@pytest.mark.parametrize("mode", ["white", "gabow"])
def test_graph_solve_lift_work_budget(mode, monkeypatch):
    # the engine lifts the whole reduction tree in one forward pass: each
    # step is examined once on its way out, and once more for each triad
    # that replaces it, instead of once per level of every triad above it
    import baseswap.pipeline as pipeline
    from baseswap.cli import _gen_bispanning
    from baseswap.io import parse_instance
    from baseswap.reductions import TriadLift

    inst = parse_instance(_gen_bispanning(80, random.Random(0), mode))
    m = inst["structure"].matroid
    x = BasisPair(inst["x1"], inst["x2"], m)
    examined, replaced = [0], [0]
    nearest, replace = pipeline._nearest_triad, TriadLift.replace

    def counted_nearest(*args):
        examined[0] += 1
        return nearest(*args)

    def counted_replace(self, *args):
        replaced[0] += 1
        return replace(self, *args)

    monkeypatch.setattr(pipeline, "_nearest_triad", counted_nearest)
    monkeypatch.setattr(TriadLift, "replace", counted_replace)
    if mode == "gabow":
        report = solve_gabow(inst["structure"], x, last=inst["last"])
    else:
        y = BasisPair(inst["y1"], inst["y2"], m)
        report = solve_white(inst["structure"], x, y, forbidden=inst["forbidden"])
    triads = sum(c.kind == "triad" for c in report.certificates)
    assert report.rank == 79 and triads > 0 and replaced[0] > 0
    assert report.length <= examined[0] <= report.length + replaced[0] + triads


def lift_solves() -> dict:
    """Solves whose triad lifts replace steps, as thunks by name: `gen
    bispanning --n 40` on its graph and on its GF(2) incidence matrix, the
    remark tree, and `gen tree-composed --n 40` at seeds 10, 22 and 23, each
    in both modes."""
    from baseswap.cli import _gen_bispanning, _gen_tree
    from baseswap.io import parse_instance, parse_tree

    def solve(obj):
        inst = parse_instance(obj)
        m = inst["structure"].matroid
        x = BasisPair(inst["x1"], inst["x2"], m)
        if inst["mode"] == "gabow":
            return solve_gabow(inst["structure"], x, last=inst["last"])
        y = BasisPair(inst["y1"], inst["y2"], m)
        return solve_white(inst["structure"], x, y, forbidden=inst["forbidden"])

    def remark(mode):
        structure, _ = parse_tree(remark_tree_json())
        x, view = partition_pair(structure)
        if mode == "gabow":
            return solve_gabow(structure, x)
        walk = random_exchange_walk(view, x, 8, random.Random(17))
        return solve_white(structure, x, BasisPair(walk.first, walk.second, structure.matroid))

    solves = {}
    for mode in ("white", "gabow"):
        graph = _gen_bispanning(40, random.Random(0), mode)
        objs = {"bispanning": graph, "bispanning-gf2": incidence_encoding(graph)}
        objs.update({f"tree-{seed}": _gen_tree(40, random.Random(seed), mode) for seed in (10, 22, 23)})
        solves.update({f"{name}/{mode}": lambda obj=obj: solve(obj) for name, obj in objs.items()})
        solves[f"remark/{mode}"] = lambda mode=mode: remark(mode)
    return solves


def test_lift_choice_matches_the_two_option_reference(monkeypatch):
    # the one-query choice picks what the two-option search picked, and
    # option B's checks hold whenever option A fails (a circuit never meets
    # the cocircuit T in exactly one element)
    from baseswap.reductions import TriadLift

    options = Counter()
    monkeypatch.setattr(TriadLift, "replace", checked_replace(TriadLift.replace, options))
    for solve in lift_solves().values():
        solve()
    assert options[True] > 0 and options[False] > 0, options


@pytest.mark.parametrize("case", ["remark/white", "bispanning/white"])
def test_lift_asks_one_rank_query_per_replaced_step(case, monkeypatch):
    # every query the forward pass makes is the one independence test of a
    # replacement, asked of the frame's GF(2) matrix or, on a graph, of the
    # chain level's edges; the rank oracle is not asked at all
    import baseswap.pipeline as pipeline
    from baseswap.graphic import LevelEdges
    from baseswap.matroid import Gf2Matroid, Matroid
    from baseswap.reductions import TriadLift

    counts, lifting = Counter(), [False]
    lift_forward, rank, replace = pipeline._lift_forward, Matroid.rank, TriadLift.replace

    def counted_lift_forward(*args):
        lifting[0] = True
        try:
            return lift_forward(*args)
        finally:
            lifting[0] = False

    def counted_rank(self, subset):
        counts["rank"] += lifting[0]
        return rank(self, subset)

    def counted_replace(self, *args):
        counts["replace"] += 1
        return replace(self, *args)

    def counted(independent):
        def counted_independent(self, elements):
            counts["independent"] += lifting[0]
            return independent(self, elements)

        return counted_independent

    monkeypatch.setattr(pipeline, "_lift_forward", counted_lift_forward)
    monkeypatch.setattr(Matroid, "rank", counted_rank)
    monkeypatch.setattr(TriadLift, "replace", counted_replace)
    for cls in (GraphicMatroid, Gf2Matroid, LevelEdges):
        monkeypatch.setattr(cls, "_independent", counted(cls._independent))
    lift_solves()[case]()
    assert counts["replace"] > 0
    assert counts["independent"] == counts["replace"]
    assert counts["rank"] == 0


def strip_solves() -> dict:
    """``lift_solves()``, the R10 2-sum tree and R10 itself in both modes,
    and ``one_sum_solves()``, as thunks by name."""
    from baseswap.io import parse_tree
    from baseswap.special import r10_fixture_pair, r10_matroid

    def r10_tree(mode):
        structure, _ = parse_tree(r10_two_sum_tree())
        x, view = partition_pair(structure)
        if mode == "gabow":
            return solve_gabow(structure, x)
        walk = random_exchange_walk(view, x, 6, random.Random(5))
        return solve_white(structure, x, BasisPair(walk.first, walk.second, structure.matroid))

    def r10(mode):
        m = r10_matroid()
        x = r10_fixture_pair(m)
        if mode == "gabow":
            return solve_gabow(m, x)
        walk = random_exchange_walk(m, x, 4, random.Random(3))
        return solve_white(m, x, walk)

    solves = lift_solves()
    for mode in ("white", "gabow"):
        solves[f"r10-two-sum/{mode}"] = lambda mode=mode: r10_tree(mode)
        solves[f"r10/{mode}"] = lambda mode=mode: r10(mode)
    solves["one-sum"] = lambda: list(one_sum_solves())
    return solves


def test_frames_handed_tableaux_have_nothing_to_strip(monkeypatch):
    # the frames handed tableaux, and every level of a chain, have disjoint
    # pairs that cover their ground sets: neither strip applies to them.
    # A chain reduces its levels in place, past ``_reduce``, so each level
    # is observed where the chain reduces it
    import baseswap.pipeline as pipeline
    from baseswap.graphic import GraphChain
    from baseswap.pipeline import MatrixChain

    reduce, results = pipeline._reduce, Counter()

    def check(inst):
        results[strip_level(inst) == (inst, [])] += 1

    def recording(struct, inst, last, out_trace, tableaux, *rest):
        if tableaux is not None:
            check(inst)
        return reduce(struct, inst, last, out_trace, tableaux, *rest)

    def recording_level(reduce_level):
        def level(chain):
            check(chain.frame()[1])
            return reduce_level(chain)

        return level

    monkeypatch.setattr(pipeline, "_reduce", recording)
    for cls in (GraphChain, MatrixChain):
        monkeypatch.setattr(cls, "reduce", recording_level(cls.reduce))
    for solve in strip_solves().values():
        solve()
    assert results[True] > 0 and results[False] == 0, results


@pytest.mark.parametrize("case", ["bispanning/white", "bispanning/gabow", "remark/white", "one-sum"])
def test_strips_run_only_on_frames_without_tableaux(case, monkeypatch):
    # the strips run on the frames that carry no handed-down tableaux, the
    # root of each engine call, at most once each, and on no other: a
    # chain's levels and the frames it hands back skip them
    import baseswap.pipeline as pipeline

    reduce, strip = pipeline._reduce, pipeline._strip
    frames, calls, handed = Counter(), Counter(), [False]

    def counted_reduce(struct, inst, last, out_trace, tableaux, *rest):
        frames[tableaux is None] += 1
        handed[0] = tableaux is not None
        return reduce(struct, inst, last, out_trace, tableaux, *rest)

    def counted_strip(*args):
        calls[handed[0]] += 1
        return strip(*args)

    monkeypatch.setattr(pipeline, "_reduce", counted_reduce)
    monkeypatch.setattr(pipeline, "_strip", counted_strip)
    strip_solves()[case]()
    assert frames[False] > 0 and calls[False] > 0
    assert calls[True] == 0
    assert calls[False] <= frames[True]
