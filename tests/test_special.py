import itertools

import pytest

from baseswap.exchange import BasisPair, apply_and_validate, bfs_oracle
from baseswap.pipeline import solve_white
from baseswap.reductions import IncompatiblePairsError
from baseswap.special import (
    F7_LINES,
    f7_matroid,
    r10_fixture_pair,
    r10_matroid,
)

from conftest import bfs_distances, brute_circuits, f7_bases, r10_even_cycle_backend, subsets


class TestR10Construction:
    def test_rank_five_and_column_weights(self):
        m = r10_matroid()
        assert m.full_rank == 5
        assert all(bin(col).count("1") == 3 for col in m.columns.values())

    def test_backends_agree_on_every_subset(self):
        m = r10_matroid()
        even_cycle = r10_even_cycle_backend()
        for s in subsets(m.ground):
            assert m.rank(s) == even_cycle.rank(s)

    def test_fixture_is_a_disjoint_basis_pair(self):
        m = r10_matroid()
        pair = r10_fixture_pair(m)
        assert m.is_basis(pair.first) and m.is_basis(pair.second)
        assert not pair.first & pair.second

    def test_no_triangle_no_triad(self):
        m = r10_matroid()
        for combo in itertools.combinations(sorted(m.ground), 3):
            assert not m.is_circuit(frozenset(combo))
            assert not m.dual().is_circuit(frozenset(combo))


class TestR10Solver:
    def test_reversal_exactly_five(self):
        m = r10_matroid()
        x = r10_fixture_pair(m)
        seq = bfs_oracle(m, x, x.swapped(), monotone=True).sequence
        assert seq.length == 5 and seq.width == 1
        final = apply_and_validate(x, seq)
        assert final.first == x.second

    def test_same_pair_empty(self):
        m = r10_matroid()
        x = r10_fixture_pair(m)
        assert bfs_oracle(m, x, x).sequence.length == 0

    def test_every_disjoint_pair_within_five(self):
        m = r10_matroid()
        fixture = r10_fixture_pair(m)
        dist = bfs_distances(m, fixture)
        disjoint_firsts = [
            frozenset(c)
            for c in itertools.combinations(sorted(m.ground), 5)
            if m.is_basis(frozenset(c)) and m.is_basis(m.ground - frozenset(c))
        ]
        assert len(disjoint_firsts) == 72
        for first in disjoint_firsts:
            assert first in dist and dist[first] <= 5

    def test_incompatible_rejected(self):
        m = r10_matroid()
        x = r10_fixture_pair(m)
        with pytest.raises(IncompatiblePairsError):
            solve_white(m, x, BasisPair(x.first, x.first, m))


class TestF7:
    def test_basis_family_matches_line_list(self):
        m = f7_matroid()
        bases = f7_bases()
        assert len(bases) == 28
        for combo in itertools.combinations(range(7), 3):
            s = frozenset(combo)
            assert m.is_basis(s) == (s in bases)
        lines = {frozenset("abcdefg".index(c) for c in line) for line in F7_LINES}
        for line in lines:
            assert m.rank(line) == 2

    def test_rank_rule_matches_gf2_representation(self):
        # F7's rank rule: sets of at most two elements are independent, a
        # three-element set has rank 2 exactly when it is a line, and every
        # larger set spans
        m = f7_matroid()
        lines = {frozenset("abcdefg".index(c) for c in line) for line in F7_LINES}
        assert m.ground == frozenset(range(7))
        for s in subsets(m.ground):
            want = len(s) if len(s) <= 2 else (2 if s in lines else 3)
            assert m.rank(s) == want

    def test_no_loops_or_parallel_elements(self):
        m = f7_matroid()
        circuits = brute_circuits(m)
        assert min(len(c) for c in circuits) == 3

    def test_gabow_all_disjoint_pairs_three_steps(self):
        m = f7_matroid()
        bases = f7_bases()
        pairs = [(b1, b2) for b1 in bases for b2 in bases if not b1 & b2]
        assert len(pairs) == 84
        for b1, b2 in pairs:
            x = BasisPair(b1, b2, m)
            seq = bfs_oracle(m, x, x.swapped(), monotone=True).sequence
            assert seq.length == 3
            final = apply_and_validate(x, seq)
            assert final.first == b2

    def test_white_solves_an_overlapping_pair(self):
        m = f7_matroid()
        x = BasisPair(frozenset({0, 1, 2}), frozenset({0, 4, 5}), m)
        y = BasisPair(frozenset({0, 2, 4}), frozenset({0, 1, 5}), m)
        assert all(m.is_basis(s) for s in (x.first, x.second, y.first, y.second))
        seq = bfs_oracle(m, x, y).sequence
        final = apply_and_validate(x, seq)
        assert final.first == y.first
        assert seq.length <= 9 and seq.width <= 4
