import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import baseswap
import baseswap.cli
from baseswap.cli import main
from baseswap.io import (
    LabelMap,
    ParseError,
    format_graph_text,
    parse_gf2_text,
    parse_graph_text,
    parse_instance,
    parse_sequence_json,
    parse_sequence_text,
    parse_tree,
    sequence_to_text,
)
from baseswap.exchange import ExchangeSequence
from baseswap.matroid import Matroid

from conftest import r10_two_sum_tree


class TestGraphText:
    def test_round_trip_with_comments(self):
        text = "# fixture\na v1 v2\nb v2 v3  # rim\nc v3 v1\n"
        edges = parse_graph_text(text)
        assert edges == {"a": ("v1", "v2"), "b": ("v2", "v3"), "c": ("v3", "v1")}
        assert parse_graph_text(format_graph_text(edges)) == edges

    def test_bad_line_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph_text("a 1 2\nbroken line here now\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph_text("a 1 2\na 2 3")


class TestGf2Text:
    def test_header_and_rows(self):
        labels, rows = parse_gf2_text("x y z\n101\n011\n")
        assert labels == ["x", "y", "z"]
        assert rows == ["101", "011"]

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_gf2_text("x y z\n10\n")

    def test_non_binary_rejected(self):
        with pytest.raises(ParseError):
            parse_gf2_text("x y\n12\n")


class TestTreeJson:
    def test_two_sum_tree_loads(self):
        tree = {
            "nodes": [
                {"id": "l", "tag": "graphic",
                 "graph": "t 1 2\na1 2 3\na2 1 3\na3 1 2"},
                {"id": "r", "tag": "graphic",
                 "graph": "t 7 8\nb1 8 9\nb2 7 9\nb3 7 8"},
            ],
            "sums": [{"a": "l", "b": "r", "arity": 2, "shared": ["t"]}],
        }
        structure, labels = parse_tree(tree)
        assert len(structure.ground) == 6
        assert structure.matroid.full_rank == 3

    def test_shared_labels_must_match_sums(self):
        tree = {
            "nodes": [
                {"id": "l", "tag": "graphic", "graph": "t 1 2\na1 2 3\na2 1 3\na3 1 2"},
                {"id": "r", "tag": "graphic", "graph": "t 7 8\nb1 8 9\nb2 7 9\nb3 7 8"},
            ],
            "sums": [],
        }
        with pytest.raises(ParseError):
            parse_tree(tree)

    def test_invalid_sum_precondition_reported(self):
        # the shared element is a coloop of the right part
        tree = {
            "nodes": [
                {"id": "l", "tag": "graphic", "graph": "t 1 2\na1 2 3\na2 1 3\na3 1 2"},
                {"id": "r", "tag": "graphic", "graph": "t 7 8\nb1 8 9\nb2 9 10\nb3 9 10"},
            ],
            "sums": [{"a": "l", "b": "r", "arity": 2, "shared": ["t"]}],
        }
        with pytest.raises(ParseError, match="coloop"):
            parse_tree(tree)


class TestSequences:
    def test_text_round_trip(self):
        labels = LabelMap.from_labels(["a", "b", "c", "d"])
        seq = ExchangeSequence([(labels.id("a"), labels.id("c"))])
        text = sequence_to_text(seq, labels)
        assert text == "0: a <-> c"
        assert parse_sequence_text(text, labels) == [(labels.id("a"), labels.id("c"))]

    def test_json_round_trip(self):
        labels = LabelMap.from_labels(["a", "b"])
        steps = parse_sequence_json([{"e": "a", "f": "b"}], labels)
        assert steps == [(0, 1)]


class TestInstanceJson:
    def test_white_needs_targets(self):
        obj = {"matroid": {"kind": "r10"}, "x1": [], "x2": [], "mode": "white"}
        with pytest.raises(ParseError, match="y1"):
            parse_instance(obj)

    def test_unknown_label_rejected(self):
        obj = {
            "matroid": {"kind": "graph", "text": "a 1 2\nb 2 3"},
            "x1": ["zz"], "x2": ["b"], "mode": "gabow",
        }
        with pytest.raises(ParseError, match="zz"):
            parse_instance(obj)


class TestCliRoundTrips:
    def run(self, capsys, *args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_gen_solve_verify_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        code, _, _ = self.run(capsys, "gen", "bispanning", "--n", "7", "--seed", "2",
                              "-o", str(inst))
        assert code == 0
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        assert code == 0
        payload = json.loads(out)
        seqfile = tmp_path / "seq.json"
        seqfile.write_text(json.dumps(payload["steps"]))
        code, out, _ = self.run(capsys, "verify", str(inst), str(seqfile))
        assert code == 0 and out.strip() == "ok"

    def test_text_and_json_encode_same_sequence(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self.run(capsys, "gen", "bispanning", "--n", "6", "--seed", "9", "-o", str(inst))
        code, out_text, _ = self.run(capsys, "solve", str(inst))
        code, out_json, _ = self.run(capsys, "solve", str(inst), "--json")
        payload = json.loads(out_json)
        step_lines = [l for l in out_text.splitlines() if "<->" in l]
        assert len(step_lines) == payload["length"]
        for line, step in zip(step_lines, payload["steps"]):
            _, rest = line.split(":", 1)
            e, f = (s.strip() for s in rest.split("<->"))
            assert {e, f} == {step["e"], step["f"]}

    def test_gen_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.run(capsys, "gen", "tree-composed", "--n", "9", "--seed", "4", "-o", str(a))
        self.run(capsys, "gen", "tree-composed", "--n", "9", "--seed", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gabow_instance_solves_with_last(self, tmp_path, capsys):
        inst = tmp_path / "g.json"
        self.run(capsys, "gen", "bispanning", "--n", "6", "--seed", "3",
                 "--mode", "gabow", "-o", str(inst))
        data = json.loads(inst.read_text())
        assert "last" in data
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        assert code == 0
        payload = json.loads(out)
        last_step = payload["steps"][-1]
        assert data["last"] in (last_step["e"], last_step["f"])

    def test_distance_fixture_and_unreachable(self, tmp_path, capsys):
        inst = {
            "matroid": {"kind": "graph",
                        "text": "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"},
            "mode": "white",
            "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
            "y1": ["a", "e", "c"], "y2": ["d", "b", "f"],
        }
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(inst))
        code, out, _ = self.run(capsys, "distance", str(path))
        assert code == 0 and out.strip() == "1"
        # Figure 3: F = {b, e} stays inside (X1 n Y1) u (X2 n Y2) for the
        # swapped target, yet no sequence avoids it
        inst.update(y1=["d", "b", "f"], y2=["a", "e", "c"])
        path.write_text(json.dumps(inst))
        code, out, _ = self.run(capsys, "distance", str(path), "--forbidden", "b,e")
        assert code == 0 and out.strip() == "unreachable"

    K4 = "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"
    ENTRY_RULES = {
        # x1 = y1 = {a, b, d} is a triangle of K4 (the empty sequence
        # "reaches" y from x)
        "non-bases": (
            K4, {"mode": "white", "x1": ["a", "b", "d"], "x2": ["c", "e", "f"],
             "y1": ["a", "b", "d"], "y2": ["c", "e", "f"]},
            "instance member is not a basis",
        ),
        # K4 plus g parallel to a: {a, b, c} and {a, d, e} are bases that
        # share a, so no reversal exists
        "meeting-bases": (
            K4 + "\ng 1 2", {"mode": "gabow",
             "x1": ["a", "b", "c"], "x2": ["a", "d", "e"]},
            "reversal needs disjoint bases",
        ),
        # a reversal moves every element, so it takes no F
        "reversal-with-F": (
            K4, {"mode": "gabow", "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
             "forbidden": ["a"]},
            "forbidden set must stay inside matching intersections",
        ),
        # g is in neither basis, so no step exchanges it
        "last-outside-union": (
            K4 + "\ng 1 2", {"mode": "gabow",
             "x1": ["a", "b", "c"], "x2": ["d", "e", "f"], "last": "g"},
            "designated last element must lie in one of the bases",
        ),
        # only a reversal finishes on a designated element
        "transform-with-last": (
            K4, {"mode": "white", "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
             "y1": ["a", "e", "c"], "y2": ["d", "b", "f"], "last": "a"},
            "a designated last element needs a reversal (gabow mode)",
        ),
        # b moves from the first member to the second
        "F-outside-intersections": (
            K4, {"mode": "white", "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
             "y1": ["a", "e", "c"], "y2": ["d", "b", "f"], "forbidden": ["b"]},
            "forbidden set must stay inside matching intersections",
        ),
    }

    @pytest.mark.parametrize("row", sorted(ENTRY_RULES))
    def test_entry_rules_exit_two_in_every_command(self, tmp_path, capsys, row):
        text, fields, message = self.ENTRY_RULES[row]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"matroid": {"kind": "graph", "text": text}, **fields}))
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        errors = set()
        for args in (("solve",), ("distance",), ("verify", str(empty))):
            code, out, err = self.run(capsys, args[0], str(path), *args[1:])
            assert code == 2 and out == "", args
            errors.add(err)
        assert errors == {f"error: {message}\n"}

    @pytest.mark.parametrize("mode, members", [("gabow", 2), ("white", 4)])
    def test_solve_tests_each_member_once(self, tmp_path, capsys, monkeypatch, mode, members):
        # the solver runs the entry rules, once, and a reversal's target is
        # x swapped, so its two bases are the only members
        calls = []
        is_basis = Matroid.is_basis

        def counted(m, subset):
            calls.append(frozenset(subset))
            return is_basis(m, subset)

        path = tmp_path / "inst.json"
        self.run(capsys, "gen", "bispanning", "--n", "5", "--seed", "3",
                 "--mode", mode, "-o", str(path))
        monkeypatch.setattr(Matroid, "is_basis", counted)
        code, _, _ = self.run(capsys, "solve", str(path))
        assert code == 0
        assert len(calls) == len(set(calls)) == members

    def test_flag_errors_exit_four_in_every_command(self, tmp_path, capsys):
        # the flags are written into the instance before it is parsed, so
        # the parser's checks and messages cover them
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "matroid": {"kind": "graph", "text": self.K4}, "mode": "gabow",
            "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
        }))
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        cases = [
            ((path, "--mode", "white"), "white mode needs y1 and y2"),
            ((path, "--forbidden", "a,zz"), "unknown element label 'zz'"),
            ((path, "--last", "zz"), "unknown element label 'zz'"),
            ((listed,), "instance must be a JSON object"),
        ]
        for command in (("solve",), ("distance",), ("verify", str(listed))):
            for (inst, *flags), message in cases:
                code, out, err = self.run(capsys, command[0], str(inst), *command[1:], *flags)
                assert (code, out, err) == (4, "", f"error: {message}\n"), (command, flags)

    def test_search_cap_message_counts_elements(self, tmp_path, capsys):
        # internal ids are not the file's labels, so the message names none
        inst = tmp_path / "r10.json"
        self.run(capsys, "gen", "r10", "--seed", "1", "-o", str(inst))
        code, out, err = self.run(capsys, "solve", str(inst), "--bfs-cap", "0")
        assert code == 3 and out == ""
        assert err == (
            "error: irreducible instance on 10 elements has no known structure "
            "and exceeds the search cap 0\n"
        )

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_search_cap_zero_gives_the_same_steps(self, tmp_path, capsys, mode):
        # the rank <= 2 leaves search their own four elements whatever the
        # cap, so a graph solves without any search budget
        inst = tmp_path / "g.json"
        self.run(capsys, "gen", "bispanning", "--n", "12", "--seed", "1",
                 "--mode", mode, "-o", str(inst))
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        assert code == 0
        code, capped, _ = self.run(capsys, "solve", str(inst), "--json", "--bfs-cap", "0")
        assert code == 0
        assert json.loads(capped)["steps"] == json.loads(out)["steps"]

    def test_solve_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, _ = self.run(capsys, "solve", str(bad))
        assert code == 4
        incompatible = {
            "matroid": {"kind": "graph", "text": "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"},
            "mode": "white",
            "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
            "y1": ["a", "b", "d"], "y2": ["d", "e", "f"],
        }
        path = tmp_path / "inc.json"
        path.write_text(json.dumps(incompatible))
        code, _, _ = self.run(capsys, "solve", str(path))
        assert code == 2
        # an R10 instance with an 8-element cap: unsupported structure
        r10 = {
            "matroid": {"kind": "r10"}, "mode": "gabow",
            "x1": ["12", "15", "23", "34", "45"],
            "x2": ["13", "14", "24", "25", "35"],
        }
        path = tmp_path / "r10.json"
        path.write_text(json.dumps(r10))
        code, _, _ = self.run(capsys, "solve", str(path), "--bfs-cap", "8")
        assert code == 3

    def test_r10_gen_and_tree_solve(self, tmp_path, capsys):
        inst = tmp_path / "r.json"
        self.run(capsys, "gen", "r10", "--seed", "5", "--mode", "gabow", "-o", str(inst))
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        assert code == 0
        assert json.loads(out)["length"] == 5

    def test_tree_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "t.json"
        code, _, _ = self.run(capsys, "gen", "tree-composed", "--n", "8", "--seed", "0",
                              "-o", str(inst))
        assert code == 0
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        assert code == 0
        seqfile = tmp_path / "seq.json"
        seqfile.write_text(json.dumps(json.loads(out)["steps"]))
        code, out, _ = self.run(capsys, "verify", str(inst), str(seqfile))
        assert code == 0 and out.strip() == "ok"

    def test_verify_checks_a_reversal(self, tmp_path, capsys):
        inst = tmp_path / "g.json"
        self.run(capsys, "gen", "bispanning", "--n", "5", "--seed", "3",
                 "--mode", "gabow", "-o", str(inst))
        code, out, _ = self.run(capsys, "solve", str(inst), "--json")
        steps = json.loads(out)["steps"]
        assert code == 0 and len(steps) == 4 and steps[-1] == {"e": "e3", "f": "e7"}
        solved = tmp_path / "solved.json"
        solved.write_text(json.dumps(steps))
        # two valid exchanges that undo each other reach the swapped pair
        # too, in r + 2 steps, the second of them not monotone
        detour = tmp_path / "detour.json"
        detour.write_text(json.dumps([{"e": "e0", "f": "e4"}, {"e": "e4", "f": "e0"}] + steps))
        code, out, _ = self.run(capsys, "verify", str(inst), str(detour))
        assert code == 1 and out.startswith("fail at step 1:")
        code, out, _ = self.run(capsys, "verify", str(inst), str(solved), "--last", "e0")
        assert code == 1 and out.startswith("fail at step 3:")
        code, out, _ = self.run(capsys, "verify", str(inst), str(solved), "--last", "e7")
        assert code == 0 and out.strip() == "ok"

    def test_sum_route_refusal_exits_3_naming_its_clause(self, tmp_path, capsys):
        from baseswap.union import matroid_union_partition

        tree = r10_two_sum_tree()
        structure, labels = parse_tree(tree)
        m = structure.matroid
        x1, x2 = matroid_union_partition(m, m, m.ground)
        inst = {
            "matroid": {"kind": "tree", "tree": tree}, "mode": "gabow",
            "x1": sorted(map(labels.label, x1)), "x2": sorted(map(labels.label, x2)),
            "last": labels.label(min(x1)),
        }
        path = tmp_path / "r10r10.json"
        path.write_text(json.dumps(inst))
        code, _, err = self.run(capsys, "solve", str(path))
        assert code == 3
        assert "2-/3-sum routes take no forbidden set or designated last element" in err
        assert "Traceback" not in err

    def test_verify_catches_forbidden_use(self, tmp_path, capsys):
        inst = {
            "matroid": {"kind": "graph",
                        "text": "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"},
            "mode": "white",
            "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
            "y1": ["a", "e", "c"], "y2": ["d", "b", "f"],
            "forbidden": ["a"],
        }
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(inst))
        seq = tmp_path / "seq.txt"
        seq.write_text("0: a <-> e\n")
        code, out, _ = self.run(capsys, "verify", str(path), str(seq))
        assert code == 1 and "step 0" in out

    def test_verify_names_elements_by_label(self, tmp_path, capsys):
        # K4 with letter labels, so element ids (0-5) and labels differ
        inst = {
            "matroid": {"kind": "graph",
                        "text": "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"},
            "mode": "gabow", "x1": ["a", "b", "c"], "x2": ["d", "e", "f"], "last": "a",
        }
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(inst))
        code, out, _ = self.run(capsys, "solve", str(path), "--json")
        steps = json.loads(out)["steps"]
        assert code == 0 and len(steps) == 3 and "a" in steps[-1].values()
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps(steps))
        other = next(lab for lab in "bcdef" if lab not in steps[-1].values())
        code, out, _ = self.run(capsys, "verify", str(path), str(seq), "--last", other)
        assert code == 1
        assert out.strip() == f"fail at step 2: the last step does not use the designated element {other}"
        e, f = steps[0]["e"], steps[0]["f"]
        seq.write_text(json.dumps([{"e": f, "f": e}] + steps[1:]))
        code, out, _ = self.run(capsys, "verify", str(path), str(seq))
        assert code == 1 and out.strip() == f"fail at step 0: invalid exchange ({f}, {e})"
        inst.update(mode="white", y1=["a", "e", "c"], y2=["d", "b", "f"], forbidden=["a"])
        del inst["last"]  # a transform takes no designated last element
        path.write_text(json.dumps(inst))
        seq.write_text(json.dumps([{"e": "a", "f": "e"}]))
        code, out, _ = self.run(capsys, "verify", str(path), str(seq))
        assert code == 1 and out.strip() == "fail at step 0: forbidden element a used"

    def test_malformed_graph_line_exit_four(self, tmp_path, capsys):
        inst = {
            "matroid": {"kind": "graph", "text": "a 1 2\nnot a valid edge line\n"},
            "mode": "gabow", "x1": ["a"], "x2": ["a"],
        }
        path = tmp_path / "bad_graph.json"
        path.write_text(json.dumps(inst))
        code, _, err = self.run(capsys, "solve", str(path))
        assert code == 4

    def test_gf2_matrix_instance_solves(self, tmp_path, capsys):
        inst = {
            "matroid": {"kind": "gf2", "text": "p q r s\n1010\n0111"},
            "mode": "white",
            "x1": ["p", "q"], "x2": ["r", "s"],
            "y1": ["p", "s"], "y2": ["r", "q"],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(inst))
        code, out, _ = self.run(capsys, "solve", str(path), "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_bad_forbidden_set_exits_two_without_traceback(self, tmp_path, capsys):
        # F = {e0, e3, e9, e10} spans more than three vertices: a GroundSetError
        inst = tmp_path / "b.json"
        self.run(capsys, "gen", "bispanning", "--n", "12", "--seed", "3", "-o", str(inst))
        src = str(Path(baseswap.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "baseswap.cli", "solve", str(inst),
             "--forbidden", "e0,e3,e9,e10"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "three vertices" in proc.stderr

    def test_recursion_limit_exits_three(self, tmp_path, capsys, monkeypatch):
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(baseswap.cli, "solve_gabow", too_deep)
        inst = tmp_path / "g.json"
        self.run(capsys, "gen", "bispanning", "--n", "6", "--seed", "1",
                 "--mode", "gabow", "-o", str(inst))
        code, _, err = self.run(capsys, "solve", str(inst))
        assert code == 3
        assert "recursion limit" in err and "10 elements" in err

    def test_failed_internal_check_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("solver exceeded its bounds")

        monkeypatch.setattr(baseswap.cli, "solve_white", broken)
        inst = tmp_path / "w.json"
        self.run(capsys, "gen", "bispanning", "--n", "6", "--seed", "1", "-o", str(inst))
        code, _, err = self.run(capsys, "solve", str(inst))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error:") and "exceeded its bounds" in err

    @pytest.mark.parametrize("mode", ["white", "gabow"])
    def test_failed_closing_replay_exits_one_without_traceback(
        self, mode, tmp_path, capsys, monkeypatch
    ):
        # a forward lift that reverses its first step: the closing replay
        # rejects the sequence, which is a failed internal check
        from baseswap import pipeline
        from baseswap.exchange import ExchangeStep

        lift = pipeline._lift_forward

        def flipped(root, x):
            (e, f), *rest = lift(root, x)
            return [ExchangeStep(f, e), *rest]

        monkeypatch.setattr(pipeline, "_lift_forward", flipped)
        inst = tmp_path / "i.json"
        self.run(capsys, "gen", "bispanning", "--n", "6", "--seed", "1",
                 "--mode", mode, "-o", str(inst))
        code, out, err = self.run(capsys, "solve", str(inst))
        assert code == 1 and out == ""
        assert err.startswith("error: internal check failed") and "step 0" in err


_K4_TEXT = "a 1 2\nb 2 3\nc 3 4\nd 1 3\ne 1 4\nf 2 4"


def _k4_instance(**changes):
    obj = {
        "matroid": {"kind": "graph", "text": _K4_TEXT},
        "mode": "white",
        "x1": ["a", "b", "c"], "x2": ["d", "e", "f"],
        "y1": ["a", "e", "c"], "y2": ["d", "b", "f"],
    }
    obj.update(changes)
    return obj


def _tree_instance(tree):
    return {"matroid": {"kind": "tree", "tree": tree}, "mode": "gabow",
            "x1": ["a1"], "x2": ["b1"]}


_DEEP = "[" * 100_000 + "]" * 100_000

# file texts: each instance is solved, each sequence verified against K4
MALFORMED_INSTANCES = {name: json.dumps(obj) for name, obj in {
    "top-level list": [_k4_instance()],
    "text is a number": _k4_instance(matroid={"kind": "graph", "text": 5}),
    "x1 is a number": _k4_instance(x1=7),
    "forbidden is a number": _k4_instance(forbidden=5),
    "last is a list": _k4_instance(mode="gabow", last=["e1"]),
    "label is a list": _k4_instance(x1=[["a"], "b", "c"]),
    "tree node is a string": _tree_instance({"nodes": ["l"], "sums": []}),
    "tree sum is a string": _tree_instance({
        "nodes": [{"id": "l", "tag": "graphic", "graph": "a1 1 2\nb1 1 2"}],
        "sums": ["l+r"],
    }),
    "tree is a list": _tree_instance(["l"]),
    "r10 labels is a number": _tree_instance(
        {"nodes": [{"id": "r", "tag": "r10", "labels": 5}], "sums": []}
    ),
}.items()}
MALFORMED_INSTANCES["nested too deeply"] = _DEEP
MALFORMED_SEQUENCES = {
    "list of a number": "[1]",
    "object, not a list": '{"e": 1}',
    "step without f": '[{"e": "a"}]',
    "nested too deeply": _DEEP,
}


class TestMalformedJsonShapes:
    """Wrong JSON shapes are parse errors (exit 4), never a traceback."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCES))
    def test_instance_exits_four(self, name, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(MALFORMED_INSTANCES[name])
        code = main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err and err.startswith("error:")

    @pytest.mark.parametrize("name", sorted(MALFORMED_SEQUENCES))
    def test_sequence_exits_four(self, name, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(_k4_instance()))
        seq = tmp_path / "seq.json"
        seq.write_text(MALFORMED_SEQUENCES[name])
        code = main(["verify", str(inst), str(seq)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err and err.startswith("error:")


def test_gen_solve_verify_under_python_O(tmp_path):
    """The CLI's checks are explicit, so a round trip works with asserts off."""
    src = str(Path(baseswap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "baseswap.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    inst = tmp_path / "tree.json"
    cli("gen", "tree-composed", "--n", "12", "--seed", "1", "-o", str(inst))
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps(json.loads(cli("solve", str(inst), "--json"))["steps"]))
    assert cli("verify", str(inst), str(seq)).strip() == "ok"


# sha256 of the `baseswap gen` output of seeds 0-4, concatenated, per kind,
# size and mode, recorded before the generators lost their retry loops,
# enumeration fallback and basis re-checks
GEN_DIGESTS = {
    ("bispanning", 6, "white"): "a57ffdd43cb8f9f30d9f26689769dae0e0a410f73314a01ec1aa57930431ab41",
    ("bispanning", 6, "gabow"): "60e413e70dbe846916edb56c14483f28de7cca4784c4633b0ea1dd5fb166f390",
    ("bispanning", 40, "white"): "98353a993f18023fcb7723779a80ad37a7a8a015425499830cd6c86dd7c805a1",
    ("bispanning", 40, "gabow"): "b4631cd330ed6225f4242fbdfd099fa2bd132edf425a9cc140178c560a2ba813",
    ("tree-composed", 8, "white"): "b2201f4aa9f53d02cfb15c6f4020aadb73da6415a773d422579eaa5a12c147ff",
    ("tree-composed", 8, "gabow"): "2cca452e3e38b71485b75f7033e9f7e0850826485d3419233e9fabc714a3dc6f",
    ("tree-composed", 40, "white"): "3aab401602a3a01428a743c181417e29aecd92372c9bc1fffe1ba46aa6ebb50f",
    ("tree-composed", 40, "gabow"): "bd0b248ec08e0413013a7db57e77fac1a55c558cd674a0a88f35ec36fa10b9b2",
    ("r10", None, "white"): "70f40ec1879394a79b67d4b322bcd7ec15fc1ae8dae46798d39f9a8f2eaf3c05",
    ("r10", None, "gabow"): "e3ac8dcec1c446e6fa05c2a3bceb8e5137ba5cb256d9259d332de8dc2f338597",
}


@pytest.mark.parametrize("kind, n, mode", list(GEN_DIGESTS))
def test_gen_output_is_golden(kind, n, mode):
    size = [] if n is None else ["--n", str(n)]
    digest = hashlib.sha256()
    for seed in range(5):
        code, out, _ = _cli("gen", kind, *size, "--seed", str(seed), "--mode", mode)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GEN_DIGESTS[kind, n, mode]


# -- fuzzing instance files through the command line -------------------------

_FUZZ_GEN = [
    ("bispanning", "--n", "6", "--seed", "1"),
    ("bispanning", "--n", "8", "--seed", "2", "--mode", "gabow"),
    ("tree-composed", "--n", "8", "--seed", "0"),
    ("tree-composed", "--n", "8", "--seed", "3", "--mode", "gabow"),
    ("r10", "--seed", "2"),
]


def _cli(*args):
    """(exit code, stdout, stderr) of one in-process run of the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Each generated instance with the steps its solve returns."""
    root = tmp_path_factory.mktemp("fuzz")
    bases = []
    for k, args in enumerate(_FUZZ_GEN):
        path = root / f"base{k}.json"
        assert _cli("gen", *args, "-o", str(path))[0] == 0
        code, out, _ = _cli("solve", str(path), "--json")
        assert code == 0
        bases.append((json.loads(path.read_text()), json.loads(out)["steps"]))
    return root, bases


def _labels(obj):
    return sorted({lab for key in ("x1", "x2", "y1", "y2") for lab in obj.get(key, ())})


@st.composite
def _mutated(draw, bases):
    obj, steps = draw(st.sampled_from(bases))
    obj = json.loads(json.dumps(obj))
    labels = _labels(obj)
    kind = draw(st.sampled_from(
        ["none", "drop", "unknown", "non-basis", "forbidden", "last", "arity"]
    ))
    if kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "unknown":
        key = draw(st.sampled_from([k for k in ("x1", "x2", "y1", "y2") if k in obj]))
        obj[key][draw(st.integers(0, len(obj[key]) - 1))] = "no-such-label"
    elif kind == "non-basis":
        key = draw(st.sampled_from(["x1", "x2"]))
        obj[key] = draw(st.lists(st.sampled_from(labels), unique=True, max_size=len(obj[key]) + 1))
    elif kind == "forbidden":
        obj["forbidden"] = draw(st.lists(st.sampled_from(labels), unique=True, max_size=4))
    elif kind == "last":
        outside = sorted(set(labels) - set(obj["x1"]) - set(obj["x2"])) or ["no-such-label"]
        obj["last"] = draw(st.sampled_from(outside))
    elif kind == "arity" and obj["matroid"].get("kind") == "tree":
        obj["matroid"]["tree"]["sums"][0]["arity"] = draw(st.sampled_from([0, 1, 2, 3, 4]))
    return obj, steps


class TestCliFuzz:
    """Mutated instance files end in an exit code 0-4, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_instances_keep_the_exit_code_contract(self, fuzz_bases, data):
        root, bases = fuzz_bases
        obj, steps = data.draw(_mutated(bases))
        inst = root / "mutated.json"
        inst.write_text(json.dumps(obj))
        seq = root / "seq.json"
        seq.write_text(json.dumps(steps))
        command = data.draw(st.sampled_from(["solve", "distance", "verify"]))
        args = [command, str(inst)] + ([str(seq)] if command == "verify" else [])
        code, _, err = _cli(*args)
        assert code in range(5)
        assert "Traceback" not in err
