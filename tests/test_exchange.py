import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from baseswap import exchange
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
from baseswap.gen import random_bispanning_graph
from baseswap.matroid import Gf2Matroid, GraphicMatroid, Multigraph, graphic_matroid
from baseswap.structure import cographic_leaf

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
        # ground set, and an F holding an element of a step.  The forest or
        # tableau replay agrees with the rank path (on the matroid behind two lazy
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


def _valid_walk(m, pair, steps, rng) -> list:
    """``steps`` random valid exchanges from ``pair``, found without
    forests or tableaux: f from the second basis, e from its circuit in the
    first (``circuit_in``), kept when the second side is a basis too."""
    walk, first, second = [], pair.first, pair.second
    for _ in range(steps):
        found = None
        for f in rng.sample(sorted(second - first), len(second - first)):
            circuit = m.circuit_in(first, f) - second
            for e in rng.sample(sorted(circuit), len(circuit)):
                if m.is_basis(second - {f} | {e}):
                    found = ExchangeStep(e, f)
                    break
            if found:
                break
        if found is None:
            break
        walk.append(found)
        first, second = first - {found.e} | {found.f}, second - {found.f} | {found.e}
    return walk


def _mutations(m, walk, rng) -> dict:
    """The walk and its mutations, each with its F: a step dropped, two
    steps swapped, a step reversed, a step using an element outside the
    ground set, one with e = f, and an F holding an element of a step."""
    k, j = rng.randrange(len(walk)), rng.randrange(len(walk))
    e, f = walk[k]
    swapped = list(walk)
    swapped[k], swapped[j] = swapped[j], swapped[k]
    outside = max(m.ground) + 1
    stray = ExchangeStep(outside, f) if rng.random() < 0.5 else ExchangeStep(e, outside)
    return {
        "valid": (walk, ()),
        "drop": (walk[:k] + walk[k + 1 :], ()),
        "swap": (swapped, ()),
        "reverse": (walk[:k] + [walk[k].reversed()] + walk[k + 1 :], ()),
        "outside": (walk[:k] + [stray] + walk[k + 1 :], ()),
        "e = f": (walk[:k] + [ExchangeStep(e, e)] + walk[k + 1 :], ()),
        "into F": (walk, {rng.choice(walk[k])}),
    }


def _graph_with_extras(rng):
    """Two bispanning graphs on disjoint vertex sets (so two components),
    plus loops and edges parallel to edges of both."""
    g1, _ = random_bispanning_graph(40, rng)
    g2, _ = random_bispanning_graph(30, rng)
    edges = dict(g1.edges)
    shift = max(edges) + 1
    edges.update({shift + e: (f"b{u}", f"b{v}") for e, (u, v) in g2.edges.items()})
    ids = sorted(edges)
    for k in range(12):
        u, v = edges[rng.choice(ids)]
        edges[max(edges) + 1] = (u, u) if k % 3 == 0 else (u, v)
    return Multigraph(edges)


def _scale_cases() -> list:
    """A matroid and start pair per case: bispanning graphs at n = 40-120,
    and a graph with loops, parallel edges and two components, from random
    bases."""
    cases = []
    for n, seed in ((40, 0), (80, 1), (120, 2)):
        g, pair = random_bispanning_graph(n, random.Random(seed))
        cases.append(pytest.param(GraphicMatroid(g), pair, id=f"bispanning-{n}"))
    rng = random.Random(3)
    m = GraphicMatroid(_graph_with_extras(rng))
    pair = BasisPair(random_basis(m, rng), random_basis(m, rng), m)
    return cases + [pytest.param(m, pair, id="loops-parallels-two-components")]


def _assert_fails_where_it_must(mutation, outcome):
    """The walk ends on a pair; a step outside the ground set, with e = f
    or into F fails (a drop or a swap may leave a valid walk)."""
    if mutation == "valid":
        assert len(outcome) == 2
    elif mutation in ("outside", "e = f", "into F"):
        assert len(outcome) == 4, mutation


class TestForestReplayAtScale:
    @pytest.mark.parametrize("m, pair", _scale_cases())
    def test_long_walks_and_mutations_match_the_rank_path(self, m, pair):
        # hundreds of valid steps re-root the trees deeply; every mutation
        # gives the rank references' final pair or their error
        rng = random.Random(len(m.ground))
        pair = BasisPair(pair.first, pair.second, m)
        walk = _valid_walk(m, pair, 300, rng)
        assert len(walk) >= 200
        rank_path = BasisPair(pair.first, pair.second, DualMatroid(DualMatroid(m)))
        for mutation, (steps, forbidden) in _mutations(m, walk, rng).items():
            got = _outcome(apply_and_validate, pair, steps, forbidden)
            assert got == _outcome(reference_replay, pair, steps, forbidden), mutation
            assert got == _outcome(apply_and_validate, rank_path, steps, forbidden), mutation
            _assert_fails_where_it_must(mutation, got)

    @pytest.mark.parametrize("m, pair", _scale_cases())
    def test_cographic_replay_matches_the_gf2_tableaux(self, m, pair):
        # the same walks on M*(G): forests of the complements, for a
        # cographic leaf's matrix, against the tableaux of the same matrix
        # built without its graph
        rng = random.Random(len(m.ground) + 1)
        dual = m.dual()
        pair = BasisPair(m.ground - pair.first, m.ground - pair.second, dual)
        on_graph = BasisPair(pair.first, pair.second, cographic_leaf(m.graph).matroid)
        walk = _valid_walk(dual, pair, 300, rng)
        assert len(walk) >= 200
        for mutation, (steps, forbidden) in _mutations(dual, walk, rng).items():
            got = _outcome(apply_and_validate, on_graph, steps, forbidden)
            assert got == _outcome(apply_and_validate, pair, steps, forbidden), mutation
            _assert_fails_where_it_must(mutation, got)

    @settings(max_examples=200, deadline=None)
    @given(multigraphs(), st.randoms(use_true_random=False))
    def test_cographic_mutated_walks_match_on_small_graphs(self, g, rng):
        dual = cographic_leaf(g).matroid
        pair = BasisPair(random_basis(dual, rng), random_basis(dual, rng), dual)
        walk = _valid_walk(dual, pair, rng.randint(1, 8), rng)
        if not walk:
            return
        for mutation, (steps, forbidden) in _mutations(dual, walk, rng).items():
            got = _outcome(apply_and_validate, pair, steps, forbidden)
            assert got == _outcome(reference_replay, pair, steps, forbidden), mutation


def _refuse(*args):
    raise RuntimeError("the replay built a tableau")


class TestReplayDispatch:
    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_verify_replays_a_cographic_file_on_its_graph(self, mode, tmp_path, capsys, monkeypatch):
        # ``baseswap verify`` on a one-leaf cographic tree builds no GF(2)
        # tableau: it accepts the solved sequence, and names the first
        # failing step of one with a step repeated
        from baseswap.cli import _gen_bispanning, main

        obj = _gen_bispanning(30, random.Random(8), mode)
        tree = {"nodes": [{"id": "c", "tag": "cographic", "graph": obj["matroid"]["text"]}]}
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({**obj, "matroid": {"kind": "tree", "tree": tree}}))
        assert main(["solve", str(inst), "--json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        monkeypatch.setattr(Gf2Matroid, "tableau", _refuse)
        k = len(steps) // 2
        seq = tmp_path / "seq.json"
        for sent, want in (
            (steps, "ok"),
            (steps[: k + 1] + steps[k:], f"fail at step {k + 1}: invalid exchange ({steps[k]['e']}, {steps[k]['f']})"),
        ):
            seq.write_text(json.dumps(sent))
            assert main(["verify", str(inst), str(seq)]) == (0 if want == "ok" else 1)
            assert capsys.readouterr().out.strip() == want

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_verify_replays_an_incidence_file_on_its_graph(self, mode, tmp_path, capsys, monkeypatch):
        # ``baseswap verify`` on a ``kind: gf2`` incidence matrix (the last
        # vertex row dropped) checks and replays the pairs on its graph's
        # forests and builds no GF(2) tableau
        from baseswap.cli import _gen_bispanning, main
        from test_graphic import _gf2_encoding

        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(_gf2_encoding(_gen_bispanning(30, random.Random(8), mode))))
        assert main(["solve", str(inst), "--json"]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        monkeypatch.setattr(Gf2Matroid, "tableau", _refuse)
        k = len(steps) // 2
        seq = tmp_path / "seq.json"
        for sent, want in (
            (steps, "ok"),
            (steps[: k + 1] + steps[k:], f"fail at step {k + 1}: invalid exchange ({steps[k]['e']}, {steps[k]['f']})"),
        ):
            seq.write_text(json.dumps(sent))
            assert main(["verify", str(inst), str(seq)]) == (0 if want == "ok" else 1)
            assert capsys.readouterr().out.strip() == want

    def test_a_graph_pair_builds_no_tableau(self, monkeypatch):
        g, pair = random_bispanning_graph(30, random.Random(5))
        m = GraphicMatroid(g)
        pair = BasisPair(pair.first, pair.second, m)
        walk = _valid_walk(m, pair, 60, random.Random(6))
        expected = reference_replay(pair, walk)
        dual_pair = BasisPair(pair.second, pair.first, cographic_leaf(g).matroid)
        dual_walk = _valid_walk(dual_pair.matroid, dual_pair, 60, random.Random(7))
        dual_expected = reference_replay(dual_pair, dual_walk)
        monkeypatch.setattr(GraphicMatroid, "tableau", _refuse)
        monkeypatch.setattr(Gf2Matroid, "tableau", _refuse)
        final = apply_and_validate(pair, walk)
        assert (final.first, final.second) == (expected.first, expected.second)
        # a cographic leaf's pair, replayed on its graph, builds none either
        final = apply_and_validate(dual_pair, dual_walk)
        assert (final.first, final.second) == (dual_expected.first, dual_expected.second)

    @pytest.mark.parametrize("graph", [False, True])
    def test_a_start_that_is_not_a_pair_of_bases_takes_the_rank_path(self, k4, monkeypatch, graph):
        # {a, e, f} is a triangle of K4: not a basis of M(K4), and the
        # complement of {b, c, d}, so {b, c, d} is not a basis of M*(K4)
        m, _, _ = k4
        host = cographic_leaf(m.graph).matroid if graph else m
        pair = BasisPair(frozenset({A, E, F}), frozenset({B, C, D}), host)
        asked = []

        def counted(p, step):
            asked.append(step)
            return is_valid_exchange(p, step)

        monkeypatch.setattr(exchange, "is_valid_exchange", counted)
        for steps in ([], [(A, B)], [(E, D), (A, B)]):
            got = _outcome(apply_and_validate, pair, steps, ())
            assert got == _outcome(reference_replay, pair, steps, ())
        assert asked

    @pytest.mark.parametrize("backend", ["graph", "gf2", "cographic", "rank"])
    def test_e_equal_f_and_elements_outside_the_ground_set_are_invalid(self, k4, backend):
        m, x, _ = k4
        if backend == "gf2":
            m = Gf2Matroid(dict(enumerate([0b011, 0b110, 0b100, 0b101, 0b001, 0b010])))
            x = BasisPair(x.first, x.second, m)  # K4's incidence matrix, rows 1-3
        elif backend == "cographic":
            m = cographic_leaf(m.graph).matroid
            x = BasisPair(x.second, x.first, m)
        elif backend == "rank":
            m = DualMatroid(DualMatroid(m))
            x = BasisPair(x.first, x.second, m)
        assert m.is_basis(x.first) and m.is_basis(x.second)
        e, f = min(x.first), min(x.second)
        valid = next(s for s in itertools.product(x.first, x.second) if is_valid_exchange(x, s))
        for steps in ([(e, e)], [(f, f)], [(e, 99)], [(99, f)], [(99, 99)], [valid, (99, e)]):
            with pytest.raises(SequenceValidationError) as err:
                apply_and_validate(x, steps)
            assert type(err.value) is SequenceValidationError
            assert err.value.index == len(steps) - 1
            assert tuple(err.value.step) == steps[-1]
