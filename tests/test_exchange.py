import json

import pytest
from hypothesis import given, settings, strategies as st

from baseswap.exchange import (
    BasisPair,
    CapacityError,
    ExchangeSequence,
    ExchangeStep,
    ForbiddenElementError,
    SequenceValidationError,
    UNREACHABLE,
    apply_and_validate,
    apply_step,
    bfs_oracle,
    compatible,
    is_valid_exchange,
)
from baseswap.io import sequence_to_text
from baseswap.matroid import GraphicMatroid, graphic_matroid

from conftest import (
    A,
    B,
    C,
    D,
    E,
    F,
    DualMatroid,
    bfs_distances,
    gf2_matrices,
    multigraphs,
    random_basis,
    reference_replay,
)


class TestValidity:
    def test_k4_step_bd_valid(self, k4):
        _, x, _ = k4
        assert is_valid_exchange(x, ExchangeStep(B, D))

    def test_k4_step_ad_invalid(self, k4):
        # {d,b,c} is a tree but {a,e,f} is the 12,14,24 triangle
        _, x, _ = k4
        assert not is_valid_exchange(x, ExchangeStep(A, D))

    def test_membership_violation_false(self, k4):
        _, x, _ = k4
        assert not is_valid_exchange(x, ExchangeStep(D, A))

    def test_all_nine_candidates_use_b_or_e(self, k4):
        # the five valid exchanges between {a,b,c} and {d,e,f} all touch b or e
        _, x, _ = k4
        valid = [
            (e, f)
            for e in (A, B, C)
            for f in (D, E, F)
            if is_valid_exchange(x, ExchangeStep(e, f))
        ]
        assert valid == [(A, E), (B, D), (B, E), (B, F), (C, E)]


class TestApply:
    def test_single_step_reaches_target(self, k4):
        _, x, y = k4
        final = apply_and_validate(x, ExchangeSequence([(B, E)]))
        assert final.first == y.first and final.second == y.second

    def test_empty_sequence(self, k4):
        _, x, _ = k4
        final = apply_and_validate(x, ExchangeSequence())
        assert final.first == x.first

    def test_invalid_step_reports_index(self, k4):
        _, x, _ = k4
        with pytest.raises(SequenceValidationError) as err:
            apply_and_validate(x, ExchangeSequence([(A, D)]))
        assert err.value.index == 0

    def test_forbidden_step_reports_element(self, k4):
        _, x, _ = k4
        with pytest.raises(ForbiddenElementError) as err:
            apply_and_validate(x, ExchangeSequence([(B, E)]), forbidden={E})
        assert err.value.element == E and err.value.index == 0


class TestCompatibility:
    def test_fixture_pairs_compatible(self, k4):
        _, x, y = k4
        assert compatible(x, y)

    def test_unequal_unions_incompatible(self, k4):
        m, x, _ = k4
        other = BasisPair(x.first, frozenset({D, E, F}) - {D} | {A}, m)
        assert not compatible(x, BasisPair(other.first, frozenset({B, C, D}), m))

    def test_reflexive(self, k4):
        _, x, _ = k4
        assert compatible(x, x)


class TestSequenceAccounting:
    def test_width_and_length(self):
        seq = ExchangeSequence([(1, 2), (3, 1), (1, 4)])
        assert seq.length == 3
        assert seq.width == 3  # element 1 occurs three times
        assert seq.occurrences()[2] == 1

    def test_serialization_roundtrip(self):
        seq = ExchangeSequence([(1, 2), (3, 4)])
        assert sequence_to_text(seq) == "0: 1 <-> 2\n1: 3 <-> 4"
        assert json.dumps(seq.to_json_obj()) == '[{"e": 1, "f": 2}, {"e": 3, "f": 4}]'


class TestBfsOracle:
    def test_k4_distance_one(self, k4):
        m, x, y = k4
        result = bfs_oracle(m, x, y)
        assert result.distance == 1
        assert list(result.sequence) == [ExchangeStep(B, E)]

    def test_k4_forbidden_be_unreachable(self, k4):
        m, x, y = k4
        assert bfs_oracle(m, x, y, forbidden={B, E}) == UNREACHABLE
        assert bfs_oracle(m, x, y.swapped(), forbidden={B, E}) == UNREACHABLE

    def test_k4_forbidden_b_to_swapped_target(self, k4):
        m, x, y = k4
        result = bfs_oracle(m, x, y.swapped(), forbidden={B})
        assert result.distance == 3
        final = apply_and_validate(x, result.sequence, forbidden={B})
        assert final.first == y.second

    def test_incompatible_immediately_unreachable(self, k4):
        m, x, _ = k4
        bad = BasisPair(frozenset({A, B, C}), frozenset({A, B, C}), m)
        assert bfs_oracle(m, x, bad) == UNREACHABLE

    def test_r10_monotone_reversal_five(self):
        from baseswap.special import r10_matroid, r10_fixture_pair

        m = r10_matroid()
        x = r10_fixture_pair(m)
        result = bfs_oracle(m, x, x.swapped(), monotone=True)
        assert result.distance == 5
        apply_and_validate(x, result.sequence)

    def test_monotone_returns_exactly_r_steps(self, k4):
        m, x, _ = k4
        result = bfs_oracle(m, x, x.swapped(), monotone=True)
        assert result.distance == m.full_rank

    def test_distance_lower_bound(self, k4):
        m, x, y = k4
        result = bfs_oracle(m, x, y)
        assert result.distance >= len(x.first - y.first)

    def test_cap_error(self):
        edges = {i: (i, i + 1) for i in range(20)}
        m = graphic_matroid(edges)
        pair = BasisPair(m.ground, m.ground, m)
        with pytest.raises(CapacityError):
            bfs_oracle(m, pair, pair, cap=16)

    def test_distances_sweep_matches_oracle(self, k4):
        m, x, _ = k4
        dist = bfs_distances(m, x)
        for first, d in dist.items():
            target = BasisPair(first, x.union - first, m)
            assert bfs_oracle(m, x, target).distance == d


def _outcome(replay, pair, seq, forbidden):
    """The final pair, or what the replay raised: type, index and culprit."""
    try:
        final = replay(pair, seq, forbidden)
    except SequenceValidationError as err:
        return type(err), err.index, err.step, err.element
    return final.first, final.second


class TestTableauReplay:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(gf2_matrices(), multigraphs().map(GraphicMatroid)),
        st.randoms(use_true_random=False),
    )
    def test_matches_the_rank_reference(self, m, rng):
        # mostly valid steps; some that apply to the pair but are invalid,
        # some drawn from the whole ground set; and an F that some touch
        pair = BasisPair(random_basis(m, rng), random_basis(m, rng), m)
        ground = sorted(m.ground)
        forbidden = frozenset(rng.sample(ground, min(len(ground), rng.randint(0, 2))))
        seq, current = [], pair
        for _ in range(rng.randint(0, 10)):
            applying = [
                ExchangeStep(e, f)
                for e in sorted(current.first - current.second)
                for f in sorted(current.second - current.first)
            ]
            valid = [s for s in applying if is_valid_exchange(current, s)]
            invalid = [s for s in applying if s not in valid]
            draw = rng.random()
            if valid and draw < 0.7:
                step = rng.choice(valid)
            elif invalid and draw < 0.85:
                step = rng.choice(invalid)
            elif ground:
                step = ExchangeStep(rng.choice(ground), rng.choice(ground))
            else:
                break
            seq.append(step)
            if is_valid_exchange(current, step):
                current = apply_step(current, step)
        got = _outcome(apply_and_validate, pair, seq, forbidden)
        assert got == _outcome(reference_replay, pair, seq, forbidden)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(gf2_matrices(), multigraphs().map(GraphicMatroid)),
        st.randoms(use_true_random=False),
    )
    def test_mutated_walks_fail_as_on_the_rank_path(self, m, rng):
        # a walk of valid steps and its mutations: a step dropped, two steps
        # swapped, a step reversed, a step using an element outside the
        # ground set, and an F holding an element of a step.  The tableau
        # replay agrees with the rank path (on the matroid behind two lazy
        # duals) on the error class, index and step, or on the final pair
        pair = BasisPair(random_basis(m, rng), random_basis(m, rng), m)
        seq, current = [], pair
        for _ in range(rng.randint(1, 8)):
            applying = [
                ExchangeStep(e, f)
                for e in sorted(current.first - current.second)
                for f in sorted(current.second - current.first)
            ]
            valid = [s for s in applying if is_valid_exchange(current, s)]
            if not valid:
                break
            seq.append(rng.choice(valid))
            current = apply_step(current, seq[-1])
        if not seq:
            return
        k, j = rng.randrange(len(seq)), rng.randrange(len(seq))
        e, f = seq[k]
        swapped = list(seq)
        swapped[k], swapped[j] = swapped[j], swapped[k]
        outside = max(m.ground) + 1
        stray = ExchangeStep(outside, f) if rng.random() < 0.5 else ExchangeStep(e, outside)
        mutations = {
            "valid": (seq, ()),
            "drop": (seq[:k] + seq[k + 1 :], ()),
            "swap": (swapped, ()),
            "reverse": (seq[:k] + [seq[k].reversed()] + seq[k + 1 :], ()),
            "outside": (seq[:k] + [stray] + seq[k + 1 :], ()),
            "into F": (seq, {rng.choice(seq[k])}),
        }
        rank_path = BasisPair(pair.first, pair.second, DualMatroid(DualMatroid(m)))
        for name, (steps, forbidden) in mutations.items():
            got = _outcome(apply_and_validate, pair, steps, forbidden)
            assert got == _outcome(apply_and_validate, rank_path, steps, forbidden), name
        assert _outcome(apply_and_validate, pair, seq, ()) == (current.first, current.second)
