import random

import pytest

from baseswap.exchange import BasisPair, ExchangeSequence, apply_and_validate, bfs_oracle
from baseswap.matroid import GraphicMatroid, Multigraph, SumSpec, graphic_matroid
from baseswap.structure import compose_structures, compose_sum, gf2_view, graphic_leaf
from baseswap.sums import (
    SparsityError,
    SumStructureError,
    ThreeSumContext,
    TwoSumContext,
    classify_three_sum_pair,
    check_near_sparse,
    four_regular_triangle_partition,
    merge_two_sum,
    partition_off_triangle,
    split_two_sum_pair,
    three_sum_gabow,
    three_sum_white,
)
from baseswap.union import matroid_union_partition
from baseswap.gen import random_exchange_walk

from conftest import K4_EDGES, random_four_regular_with_triangle


def two_k4_sum():
    left = graphic_matroid(dict(K4_EDGES))
    right = graphic_matroid(
        {5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13), 9: (11, 14), 10: (12, 14)}
    )
    return left, right, compose_sum(left, right, SumSpec(2, frozenset({5})))


def wheel_oct_sum():
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
    left = graphic_leaf(wheel)
    right = graphic_leaf(Multigraph(oct_edges))
    return compose_structures(left, right, SumSpec(3, frozenset({100, 101, 102})))


class TestTwoSumMerge:
    def _context(self):
        left, right, total = two_k4_sum()
        view_pair = matroid_union_partition(total, total, total.ground)
        x = BasisPair(view_pair[0], view_pair[1], total)
        xc, xb = split_two_sum_pair(left, right, 5, x)
        return left, right, total, x, xc, xb

    def test_split_places_t_on_opposite_members(self):
        left, right, total, x, xc, xb = self._context()
        assert (5 in xc.first) != (5 in xc.second)
        assert (5 in xc.first) != (5 in xb.first)
        for part, m in ((xc, left), (xb, right)):
            assert m.is_basis(part.first) and m.is_basis(part.second)

    def test_merge_without_t_is_concatenation(self):
        left, right, total, x, xc, xb = self._context()
        rng = random.Random(1)
        # walk only on the left side, avoiding t
        yc = xc
        for _ in range(30):
            yc = random_exchange_walk(left, xc, 3, rng)
            if not (yc.first ^ xc.first) and False:
                continue
            if (5 in yc.first) == (5 in xc.first):
                break
        seq_c = bfs_oracle(left, xc, yc).sequence
        if 5 in seq_c.occurrences():
            pytest.skip("walk crossed the shared element")
        ctx = TwoSumContext(left, right, 5, yc, xb)
        merged = merge_two_sum(seq_c, ExchangeSequence(), ctx)
        assert len(merged) == seq_c.length
        y_total = BasisPair(
            (yc.first - {5}) | (xb.first - {5}),
            (yc.second - {5}) | (xb.second - {5}),
            total,
        )
        final = apply_and_validate(x, ExchangeSequence(merged))
        assert final.first == y_total.first

    def test_merge_fuses_shared_steps(self):
        # reversal: each side reverses with exactly one t-usage, so the
        # merged length is l' + l'' - 1
        left, right, total, x, xc, xb = self._context()
        seq_c = bfs_oracle(left, xc, xc.swapped(), monotone=True).sequence
        seq_b = bfs_oracle(right, xb, xb.swapped(), monotone=True).sequence
        assert 5 in seq_c.occurrences() and 5 in seq_b.occurrences()
        ctx = TwoSumContext(left, right, 5, xc.swapped(), xb.swapped())
        merged = merge_two_sum(seq_c, seq_b, ctx)
        assert len(merged) == seq_c.length + seq_b.length - 1
        final = apply_and_validate(x, ExchangeSequence(merged))
        assert final.first == x.second and final.second == x.first

    def test_merged_random_pairs_validate(self):
        left, right, total, x, xc, xb = self._context()
        rng = random.Random(7)
        view = total
        y = random_exchange_walk(view, x, 5, rng)
        from baseswap.pipeline import solve_white

        node = compose_structures(
            graphic_leaf(left.graph), graphic_leaf(right.graph), SumSpec(2, frozenset({5}))
        )
        report = solve_white(node, x, y)
        r = total.full_rank
        assert report.length <= 2 * r * r
        assert report.width <= 4 * (r - 1)
        lower = bfs_oracle(total, x, y).distance
        assert lower <= report.length


class TestClassify:
    def test_partition_pairs_classify(self):
        node = wheel_oct_sum()
        total = node.matroid
        s1, s2 = matroid_union_partition(gf2_view(node), gf2_view(node), total.ground)
        assert total.is_basis(s1) and total.is_basis(s2)
        ctx = ThreeSumContext(total, node.left.matroid, node.right.matroid, node.spec.shared)
        pair = BasisPair(s1, s2, total)
        info = classify_three_sum_pair(ctx, pair)
        assert {info.i, info.j, info.k} == node.spec.shared
        flipped = classify_three_sum_pair(ctx, pair.swapped())
        assert flipped.kind == 3 - info.kind

    def test_exactly_two_completions_per_side(self):
        node = wheel_oct_sum()
        total = node.matroid
        ctx = ThreeSumContext(total, node.left.matroid, node.right.matroid, node.spec.shared)
        s1, s2 = matroid_union_partition(gf2_view(node), gf2_view(node), total.ground)
        pair = BasisPair(s1, s2, total)
        info = classify_three_sum_pair(ctx, pair)
        mid_c = (pair.second if info.kind == 1 else pair.first) & ctx.circ.ground
        mid_b = (pair.second if info.kind == 1 else pair.first) & ctx.bullet.ground
        circ_hits = [t for t in sorted(ctx.shared) if ctx.circ.is_basis(mid_c | {t})]
        bullet_hits = [t for t in sorted(ctx.shared) if ctx.bullet.is_basis(mid_b | {t})]
        assert len(circ_hits) == 2 and len(bullet_hits) == 2
        assert set(circ_hits) != set(bullet_hits)

    def test_garbage_pair_rejected(self):
        node = wheel_oct_sum()
        total = node.matroid
        ctx = ThreeSumContext(total, node.left.matroid, node.right.matroid, node.spec.shared)
        elems = sorted(total.ground)
        bad = BasisPair(frozenset(elems[:7]), frozenset(elems[7:]), total)
        if total.is_basis(bad.first) and total.is_basis(bad.second):
            pytest.skip("arbitrary split happened to be bases")
        with pytest.raises(SumStructureError):
            classify_three_sum_pair(ctx, bad)


class TestTrianglePartitions:
    def test_seven_edge_graph_partitions(self):
        # K4 plus an edge parallel to c = 34 satisfies |E| = 2r + 1
        edges = dict(K4_EDGES)
        edges[6] = edges[2]
        m = graphic_matroid(edges)
        t = frozenset({0, 1, 3})  # triangle a, b, d
        basis, contraction_basis = partition_off_triangle(m, t)
        assert m.is_basis(basis)
        assert m.minor(contract=t).is_basis(contraction_basis)
        # equivalence with the per-element split: E - t_i is two bases
        for ti in sorted(t):
            rest = contraction_basis | (t - {ti})
            assert m.is_basis(basis) and m.is_basis(rest)

    def test_wrong_size_rejected(self, k4):
        m, _, _ = k4
        with pytest.raises(SumStructureError, match="2r\\+1|2r \\+ 1|but"):
            partition_off_triangle(m, frozenset({0, 1, 3}))

    def test_four_regular_partition_assertions(self):
        rng = random.Random(2)
        checked = 0
        for _ in range(8):
            g, tri = random_four_regular_with_triangle(rng.randint(6, 9), rng)
            try:
                f1, f2, e_edge = four_regular_triangle_partition(g, tri)
            except SparsityError:
                continue
            checked += 1
            host = GraphicMatroid(g)
            t1, t2, t3 = tri
            n = len(g.vertices())
            assert e_edge in f1
            assert not f1 & f2
            assert f1 | f2 == frozenset(g.edges) - set(tri)
            assert len(f1) == n - 1 and len(f2) == n - 2
            for s in (f1, f2 | {t2}, f2 | {t3}, (f1 - {e_edge}) | {t2},
                      (f1 - {e_edge}) | {t3}, f2 | {e_edge}):
                assert host.is_basis(frozenset(s))
        assert checked >= 3

    def test_sparsity_violation_witnessed(self):
        # two disjoint octahedra: the far component is denser than 2|U| - 3
        def octa(base, start_id):
            edges = {}
            nid = start_id
            opposite = {base + 1: base + 4, base + 2: base + 5, base + 3: base + 6}
            for u in range(base + 1, base + 7):
                for v in range(u + 1, base + 7):
                    if opposite.get(u) == v:
                        continue
                    edges[nid] = (u, v)
                    nid += 1
            return edges

        edges = {**octa(0, 0), **octa(10, 100)}
        g = Multigraph(edges)
        tri = next(
            (a, b, c)
            for a in edges
            for b in edges
            for c in edges
            if a < b < c
            and len({*edges[a], *edges[b], *edges[c]}) == 3
        )
        with pytest.raises(SparsityError) as err:
            four_regular_triangle_partition(g, tri)
        witness = err.value.witness
        induced = [e for e in g.edges if set(g.edges[e]) <= witness and e not in tri]
        assert len(induced) > 2 * len(witness) - 3


class TestThreeSumSolvers:
    def _instance(self):
        node = wheel_oct_sum()
        total = node.matroid
        view = gf2_view(node)
        s1, s2 = matroid_union_partition(view, view, view.ground)
        x = BasisPair(s1, s2, total)
        ctx = ThreeSumContext(total, node.left.matroid, node.right.matroid, node.spec.shared)
        return node, total, view, x, ctx

    def _recurse_white(self, node):
        from baseswap.pipeline import solve_white
        from baseswap.structure import structure_minor

        def recurse(contract_elt, x_sets, y_sets):
            sub = structure_minor(node.left, frozenset({contract_elt}), frozenset())
            return solve_white(sub, x_sets, y_sets).sequence

        return recurse

    def _solve_bullet(self, node):
        # the graphic side through the public solvers
        from baseswap.pipeline import solve_gabow, solve_white

        def solve_bullet(x_pair, y_pair=None, forbidden=frozenset(), last=None):
            if y_pair is None:
                return solve_gabow(node.right, x_pair, last).sequence
            return solve_white(node.right, x_pair, y_pair, forbidden).sequence

        return solve_bullet

    def test_white_three_part_concatenation(self):
        node, total, view, x, ctx = self._instance()
        rng = random.Random(3)
        y = random_exchange_walk(view, x, 6, rng)
        y = BasisPair(y.first, y.second, total)
        seq = three_sum_white(ctx, x, y, self._solve_bullet(node), self._recurse_white(node))
        final = apply_and_validate(x, seq)
        assert final.first == y.first
        r = total.full_rank
        assert seq.length <= 2 * r * r and seq.width <= 4 * (r - 1)
        lower = bfs_oracle(total, x, y).distance
        assert lower <= seq.length

    def test_white_replay_rejects_a_step_that_does_not_apply(self):
        # (f, e) with f in the second basis and e in the first leaves both
        # bases as they are, so a replay that only checks the sets it builds
        # would let the extra step through
        node, total, view, x, ctx = self._instance()
        y = random_exchange_walk(view, x, 6, random.Random(3))
        y = BasisPair(y.first, y.second, total)
        solve = self._recurse_white(node)

        def recurse(contract_elt, x_sets, y_sets):
            first, second = (s - ctx.shared for s in x_sets)
            return [(min(second), min(first))] + list(solve(contract_elt, x_sets, y_sets))

        with pytest.raises(AssertionError, match="invalid exchange"):
            three_sum_white(ctx, x, y, self._solve_bullet(node), recurse)

    def test_white_same_pair_empty(self):
        node, total, view, x, ctx = self._instance()
        solvers = self._solve_bullet(node), self._recurse_white(node)
        assert three_sum_white(ctx, x, x, *solvers).length == 0

    def test_gabow_exact_reversal(self):
        node, total, view, x, ctx = self._instance()
        from baseswap.pipeline import solve_gabow
        from baseswap.structure import structure_minor

        def recurse(contract_elt, x_sets):
            sub = structure_minor(node.left, frozenset({contract_elt}), frozenset())
            return solve_gabow(sub, x_sets).sequence

        seq = three_sum_gabow(ctx, x, self._solve_bullet(node), recurse)
        assert seq.length == total.full_rank
        assert seq.width == 1
        final = apply_and_validate(x, seq)
        assert final.first == x.second


def test_check_near_sparse_accepts_octahedron_minus_triangle():
    node = wheel_oct_sum()
    graph = node.right.graph
    check_near_sparse(graph, {100, 101, 102})
