"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
output.  All thresholds are exact; the time budgets are generous on normal
hardware.
"""

import itertools
import random
import time

from baseswap.exchange import (
    BasisPair,
    apply_and_validate,
    bfs_oracle,
    compatible,
    UNREACHABLE,
)
from baseswap.gen import (
    random_bispanning_graph,
    random_exchange_walk,
    random_forbidden_set,
)
from baseswap.io import parse_instance
from baseswap.matroid import GraphicMatroid, Multigraph, SumSpec, graphic_matroid
from baseswap.pipeline import solve_gabow, solve_white
from baseswap.reductions import find_nontrivial_tight_set
from baseswap.special import f7_matroid, r10_fixture_pair, r10_matroid
from baseswap.structure import compose_structures, compose_sum, gf2_view, graphic_leaf
from baseswap.sums import SparsityError, four_regular_triangle_partition
from baseswap.union import matroid_union_partition

from conftest import (
    K4_EDGES,
    DT_EDGES,
    DualMatroid,
    MinorMatroid,
    bfs_distances,
    brute_circuits,
    brute_cocircuits,
    f7_bases,
    random_four_regular_with_triangle,
    subsets,
)
from test_pipeline import remark_construction, partition_pair


def _family(count=200, lo=4, hi=40, seed=20240808):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(lo, hi)
        graph, pair = random_bispanning_graph(n, rng)
        yield n, graph, pair, rng


def test_criterion_1_graphic_white_bounds():
    start = time.time()
    for n, graph, x, rng in _family():
        m = GraphicMatroid(graph)
        y = random_exchange_walk(m, x, rng.randint(1, n), rng)
        forbidden = random_forbidden_set(x, y, graph, rng)
        seq = solve_white(graphic_leaf(graph), x, y, forbidden=forbidden).sequence
        final = apply_and_validate(x, seq, forbidden=forbidden)
        assert final.first == y.first and final.second == y.second
        assert seq.length <= (n - 1) ** 2
        assert seq.width <= 2 * (n - 2)
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 200 graphic transforms within (n-1)^2 / 2(n-2) in {elapsed:.1f}s")


def test_criterion_2_graphic_gabow_exact():
    start = time.time()
    for n, graph, x, rng in _family():
        h = rng.choice(sorted(x.union))
        seq = solve_gabow(graphic_leaf(graph), x, last=h).sequence
        assert seq.length == n - 1
        assert h in seq.steps[-1]
        final = apply_and_validate(x, seq)
        assert final.first == x.second and final.second == x.first
        first = set(x.first)
        for k, (e, f) in enumerate(seq):
            assert e in first and e in x.first and f in x.second
            first.discard(e)
            first.add(f)
            assert len(first - x.second) == (n - 1) - k - 1
    elapsed = time.time() - start
    print(f"PASS criterion 2: 200 reversals of length exactly n-1, monotone, h last ({elapsed:.1f}s)")


def test_criterion_3_k4_figure():
    m = graphic_matroid(K4_EDGES)
    x = BasisPair(frozenset({0, 1, 2}), frozenset({3, 4, 5}), m)
    y = BasisPair(frozenset({0, 4, 2}), frozenset({3, 1, 5}), m)
    assert bfs_oracle(m, x, y, forbidden={1, 4}) == UNREACHABLE
    assert bfs_oracle(m, x, y.swapped(), forbidden={1, 4}) == UNREACHABLE
    result = bfs_oracle(m, x, y)
    assert result.distance == 1
    print("PASS criterion 3: K4 fixture unreachable under F={b,e}, distance 1 without F")


def test_criterion_4_r10_sweep():
    start = time.time()
    m = r10_matroid()
    fixture = r10_fixture_pair(m)
    dist = bfs_distances(m, fixture)
    disjoint = [
        frozenset(c)
        for c in itertools.combinations(sorted(m.ground), 5)
        if m.is_basis(frozenset(c)) and m.is_basis(m.ground - frozenset(c))
    ]
    for first in disjoint:
        assert first in dist and dist[first] <= 5
    reversal = bfs_oracle(m, fixture, fixture.swapped(), monotone=True)
    assert reversal.distance == 5
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(
        f"PASS criterion 4: all {len(disjoint)} disjoint pairs within 5 exchanges,"
        f" monotone reversal exactly 5 ({elapsed:.1f}s)"
    )


def test_criterion_5_f7_sweep():
    start = time.time()
    m = f7_matroid()
    bases = f7_bases()
    pairs = [BasisPair(b1, b2, m) for b1 in bases for b2 in bases]
    solved = 0
    for x in pairs:
        for y in pairs:
            if not compatible(x, y):
                continue
            seq = bfs_oracle(m, x, y).sequence
            assert seq.length <= 9 and seq.width <= 4
            final = apply_and_validate(x, seq)
            assert final.first == y.first and final.second == y.second
            solved += 1
    reversed_count = 0
    for x in pairs:
        if x.first & x.second:
            continue
        seq = bfs_oracle(m, x, x.swapped(), monotone=True).sequence
        assert seq.length == 3
        reversed_count += 1
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(
        f"PASS criterion 5: {solved} compatible F7 solves within (9, 4); "
        f"{reversed_count} disjoint reversals of length 3 ({elapsed:.1f}s)"
    )


def test_criterion_6_regular_composition():
    from baseswap.cli import _gen_tree

    start = time.time()
    rng = random.Random(42)
    solved = 0
    for seed in range(49):
        obj = _gen_tree(rng.randint(8, 14), random.Random(seed), "white")
        inst = parse_instance(obj)
        structure = inst["structure"]
        m = structure.matroid
        x = BasisPair(inst["x1"], inst["x2"], m)
        y = BasisPair(inst["y1"], inst["y2"], m)
        report = solve_white(structure, x, y)
        r = m.full_rank
        final = apply_and_validate(x, report.sequence)
        assert final.first == y.first and final.second == y.second
        assert report.length <= 2 * r * r
        assert report.width <= max(1, 4 * (r - 1))
        if len(m.ground) <= 16:
            lower = bfs_oracle(m, x, y).distance
            assert lower <= report.length
        solved += 1

    # the construction with a cographic core and four 4-regular gadgets
    node = remark_construction()
    m = node.matroid
    x, view = partition_pair(node)
    walk = random_exchange_walk(view, x, 10, rng)
    y = BasisPair(walk.first, walk.second, m)
    report = solve_white(node, x, y)
    r = m.full_rank
    assert report.length <= 2 * r * r and report.width <= 4 * (r - 1)
    assert any(n.kind == "three_sum" for n in report.trace.flatten())
    solved += 1
    elapsed = time.time() - start
    print(
        f"PASS criterion 6: {solved} tree-composed instances within 2r^2 / 4(r-1)"
        f" ({elapsed:.1f}s)"
    )


def _tight_instances():
    """Disjoint covering instances with |E| <= 16 across the backends."""
    out = []
    m = graphic_matroid(K4_EDGES)
    out.append((m, BasisPair(frozenset({0, 1, 2}), frozenset({3, 4, 5}), m)))
    m = graphic_matroid(DT_EDGES)
    out.append((m, BasisPair(frozenset({0, 2}), frozenset({1, 3}), m)))
    left = {i: K4_EDGES[i] for i in range(6)}
    right = {i + 6: (u + 10, v + 10) for i, (u, v) in K4_EDGES.items()}
    m = graphic_matroid({**left, **right})
    out.append(
        (m, BasisPair(frozenset({0, 1, 2, 6, 7, 8}), frozenset({3, 4, 5, 9, 10, 11}), m))
    )
    l = graphic_matroid(dict(K4_EDGES))
    rgt = graphic_matroid(
        {5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13), 9: (11, 14), 10: (12, 14)}
    )
    m = compose_sum(l, rgt, SumSpec(2, frozenset({5})))
    s1, s2 = matroid_union_partition(m, m, m.ground)
    out.append((m, BasisPair(s1, s2, m)))
    m = r10_matroid()
    out.append((m, r10_fixture_pair(m)))
    rng = random.Random(8)
    for n in (6, 8):
        g, pair = random_bispanning_graph(n, rng)
        out.append((GraphicMatroid(g), pair))
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
    m = node.matroid
    s1, s2 = matroid_union_partition(gf2_view(node), gf2_view(node), m.ground)
    out.append((m, BasisPair(s1, s2, m)))
    return out


def test_criterion_7_tight_set_oracle_equivalence():
    start = time.time()
    checked = 0
    for m, pair in _tight_instances():
        assert len(m.ground) <= 16
        found = find_nontrivial_tight_set(m, pair)
        best = min(
            (2 * m.rank(z) - len(z), tuple(sorted(z)))
            for z in subsets(m.ground)
            if z and z != m.ground
        )
        brute_has_tight = best[0] == 0
        assert (found is not None) == brute_has_tight
        if found is not None:
            assert len(found) == 2 * m.rank(found)
        checked += 1
    elapsed = time.time() - start
    print(
        f"PASS criterion 7: digraph tight-set finder matches brute-force"
        f" minimization on {checked} instances ({elapsed:.1f}s)"
    )


def test_criterion_8_four_regular_partition_suite():
    start = time.time()
    rng = random.Random(5150)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 3000, "generator stalled"
        n = rng.randint(6, 12)
        try:
            graph, tri = random_four_regular_with_triangle(n, rng)
        except RuntimeError:
            continue
        try:
            f1, f2, e_edge = four_regular_triangle_partition(graph, tri)
        except SparsityError:
            continue
        host = GraphicMatroid(graph)
        t1, t2, t3 = tri
        assert e_edge in f1 and not (f1 & f2)
        assert f1 | f2 == frozenset(graph.edges) - set(tri)
        for s in (
            f1, f2 | {t2}, f2 | {t3},
            (f1 - {e_edge}) | {t2}, (f1 - {e_edge}) | {t3}, f2 | {e_edge},
        ):
            assert host.is_basis(frozenset(s))
        done += 1
    elapsed = time.time() - start
    print(
        f"PASS criterion 8: six spanning-tree assertions on {done} qualifying"
        f" 4-regular graphs ({elapsed:.1f}s)"
    )


def _lemma_backends():
    yield "graphic K4", graphic_matroid(K4_EDGES)
    yield "graphic DT", graphic_matroid(DT_EDGES)
    yield "dual view", DualMatroid(graphic_matroid(K4_EDGES))
    yield "minor view", MinorMatroid(graphic_matroid(K4_EDGES), frozenset({0}), frozenset())
    yield "gf2 F7", f7_matroid()
    yield "gf2 R10", r10_matroid()
    k3 = graphic_matroid({5: (1, 2), 20: (2, 3), 21: (1, 3)})
    k4 = graphic_matroid(
        {5: (11, 12), 6: (12, 13), 7: (13, 14), 8: (11, 13), 9: (11, 14), 10: (12, 14)}
    )
    yield "sum view", compose_sum(k3, k4, SumSpec(2, frozenset({5})))


def test_criterion_9_binary_lemma_suite():
    start = time.time()
    for name, m in _lemma_backends():
        assert len(m.ground) <= 10
        circuits = brute_circuits(m)
        cocircuits = brute_cocircuits(m)
        for c in circuits:
            for t in cocircuits:
                assert len(c & t) != 1, f"{name}: |C∩T| = 1"
        triangles = [c for c in circuits if len(c) == 3]
        for t in triangles:
            ts = sorted(t)
            for f in subsets(m.ground - t):
                count = sum(1 for ti in ts if m.is_basis(f | {ti}))
                assert count in (0, 2), f"{name}: triangle completion count {count}"
    elapsed = time.time() - start
    print(
        f"PASS criterion 9: circuit/cocircuit and triangle-completion rules hold"
        f" on all backends ({elapsed:.1f}s)"
    )
