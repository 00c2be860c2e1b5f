"""Command-line surface: solve, verify, distance, and instance generation.

Exit codes: 0 success, 1 failed verification, 2 incompatible or invalid
pairs, 3 unsupported structure or search cap exceeded, 4 parse error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .exchange import (
    BasisPair,
    ExchangeSequence,
    SequenceValidationError,
    CapacityError,
    apply_and_validate,
    bfs_oracle,
    check_reversal,
    UNREACHABLE,
)
from .gen import (
    random_bispanning_graph,
    random_exchange_walk,
    random_forbidden_set,
)
from .io import (
    ParseError,
    format_graph_text,
    load_json,
    parse_instance,
    parse_sequence_json,
    parse_sequence_text,
    parse_tree,
    sequence_to_text,
    R10_LABELS,
)
from .graphic import incidence_leaf
from .matroid import GraphicMatroid, MatroidError
from .pipeline import (
    UnsupportedStructureError,
    solve_gabow,
    solve_white,
)
from .reductions import Instance, ReductionError
from .special import r10_matroid, r10_fixture_pair
from .structure import gf2_view
from .union import matroid_union_partition, InfeasiblePartitionError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INCOMPATIBLE = 2
EXIT_UNSUPPORTED = 3
EXIT_PARSE = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ReductionError, MatroidError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (UnsupportedStructureError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AssertionError as err:
        # a failed internal check: the library would have returned a wrong answer
        print(f"error: internal check failed: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="baseswap",
        description="Symmetric exchange sequences between matroid basis pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    _common_flags(solve)
    solve.set_defaults(func=cmd_solve)

    dist = sub.add_parser("distance", help="certified exchange distance via BFS")
    dist.add_argument("instance")
    _common_flags(dist)
    dist.set_defaults(func=cmd_distance)

    verify = sub.add_parser("verify", help="check a sequence file against an instance")
    verify.add_argument("instance")
    verify.add_argument("sequence")
    _common_flags(verify)
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("kind", choices=["bispanning", "tree-composed", "r10"])
    gen.add_argument("--n", type=int, default=8, help="size parameter")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=["white", "gabow"], default="white")
    gen.add_argument("--out", "-o", help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    return parser


def _common_flags(cmd):
    cmd.add_argument("--mode", choices=["white", "gabow"], help="override the file's mode")
    cmd.add_argument("--forbidden", help="comma-separated labels overriding the file's F")
    cmd.add_argument("--last", help="label overriding the file's designated last element")
    cmd.add_argument("--json", action="store_true", help="machine-readable output")
    cmd.add_argument("--bfs-cap", type=int, default=16, help="exhaustive search cap")


def _load_instance(args):
    """The parsed instance file, with the flags written over its fields first,
    so the parser checks them as it checks the file."""
    path = Path(args.instance)
    obj = load_json(path.read_text(encoding="utf-8"))
    if isinstance(obj, dict):  # anything else is refused by the parser
        names = None if args.forbidden is None else [s for s in args.forbidden.split(",") if s]
        flags = {"mode": args.mode, "forbidden": names, "last": args.last}
        obj = {**obj, **{key: v for key, v in flags.items() if v is not None}}
    return parse_instance(obj, read_file=lambda p: (path.parent / p).read_text(encoding="utf-8"))


def _pairs(inst) -> Instance:
    """The instance of a parsed file, with its F and designated last element,
    after the entry rules every command shares (``Instance.checked``).  A
    GF(2) matrix with at most two 1s per column is read as its graph
    (``incidence_leaf``), so its pairs are checked and replayed on forests."""
    m = (incidence_leaf(inst["structure"]) or inst["structure"]).matroid
    y = (inst["y1"], inst["y2"]) if inst["mode"] == "white" else None
    return Instance.checked(
        m, inst["mode"], (inst["x1"], inst["x2"]), y, inst["forbidden"], inst["last"]
    )


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    labels = inst["labels"]
    m, x = inst["structure"].matroid, (inst["x1"], inst["x2"])
    try:  # the solvers run the entry rules
        if inst["mode"] == "gabow":
            if inst["forbidden"]:
                _pairs(inst)  # solve_gabow takes no F, and these rules refuse it
            report = solve_gabow(inst["structure"], x, last=inst["last"], bfs_cap=args.bfs_cap)
        else:
            if inst["last"] is not None:
                _pairs(inst)  # solve_white takes no last element, and these rules refuse it
            report = solve_white(
                inst["structure"], x, (inst["y1"], inst["y2"]), forbidden=inst["forbidden"],
                bfs_cap=args.bfs_cap,
            )
    except RecursionError:
        # reductions run on an explicit stack, but the sum routes recurse once
        # per sum node, so a deep decomposition tree can still reach the limit
        raise UnsupportedStructureError(
            f"recursion limit {sys.getrecursionlimit()} reached on an instance of "
            f"{len(m.ground)} elements (rank {m.full_rank})"
        ) from None
    if args.json:
        payload = {
            "mode": report.mode,
            "rank": report.rank,
            "length": report.length,
            "width": report.width,
            "bound_length": report.bound_length,
            "bound_width": report.bound_width,
            "steps": report.sequence.to_json_obj(labels.label),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"mode: {report.mode}")
        print(f"rank: {report.rank}")
        print(f"length: {report.length} (bound {report.bound_length})")
        print(f"width: {report.width} (bound {report.bound_width})")
        if report.length:
            print(sequence_to_text(report.sequence, labels))
    return EXIT_OK


def cmd_distance(args) -> int:
    inst = _load_instance(args)
    checked = _pairs(inst)
    result = bfs_oracle(
        checked.matroid, checked.x, checked.y, checked.forbidden,
        monotone=(inst["mode"] == "gabow"), cap=args.bfs_cap,
    )
    if result == UNREACHABLE:
        print(json.dumps({"distance": None, "unreachable": True}) if args.json else "unreachable")
        return EXIT_OK
    if args.json:
        print(json.dumps({"distance": result.distance}))
    else:
        print(result.distance)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args)
    labels = inst["labels"]
    checked = _pairs(inst)
    x, y = checked.x, checked.y
    text = Path(args.sequence).read_text(encoding="utf-8")
    try:
        steps = parse_sequence_json(load_json(text), labels)
    except json.JSONDecodeError:
        steps = parse_sequence_text(text, labels)
    seq = ExchangeSequence(steps)
    try:
        final = apply_and_validate(x, seq, checked.forbidden)
        if inst["mode"] == "gabow":
            check_reversal(x, seq, inst["last"])
    except SequenceValidationError as err:
        print(f"fail at step {err.index}: {err.describe(labels.label)}")
        return EXIT_VERIFY_FAIL
    if final.first != y.first or final.second != y.second:
        print("fail: sequence does not reach the target pair")
        return EXIT_VERIFY_FAIL
    print("ok")
    return EXIT_OK


# -- generation -----------------------------------------------------------------


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "bispanning":
        obj = _gen_bispanning(max(args.n, 4), rng, args.mode)
    elif args.kind == "r10":
        obj = _gen_r10(rng, args.mode)
    else:
        obj = _gen_tree(max(args.n, 4), rng, args.mode)
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _edge_labels(g, prefix="e"):
    return {eid: f"{prefix}{eid}" for eid in sorted(g.edges)}


def _gen_bispanning(n, rng, mode):
    g, pair = random_bispanning_graph(n, rng)
    m = GraphicMatroid(g)
    lab = _edge_labels(g)
    text = format_graph_text({lab[e]: (f"v{u}", f"v{v}") for e, (u, v) in g.edges.items()})
    obj = {
        "matroid": {"kind": "graph", "text": text},
        "mode": mode,
        "x1": sorted(lab[e] for e in pair.first),
        "x2": sorted(lab[e] for e in pair.second),
    }
    if mode == "white":
        y = random_exchange_walk(m, pair, rng.randint(1, n), rng)
        obj["y1"] = sorted(lab[e] for e in y.first)
        obj["y2"] = sorted(lab[e] for e in y.second)
        f = random_forbidden_set(pair, y, g, rng)
        if f:
            obj["forbidden"] = sorted(lab[e] for e in f)
    else:
        obj["last"] = lab[rng.choice(sorted(pair.union))]
    return obj


def _gen_r10(rng, mode):
    m = r10_matroid()
    fixture = r10_fixture_pair(m)
    x = random_exchange_walk(m, fixture, rng.randint(0, 4), rng)
    obj = {
        "matroid": {"kind": "r10"},
        "mode": mode,
        "x1": sorted(R10_LABELS[e] for e in x.first),
        "x2": sorted(R10_LABELS[e] for e in x.second),
    }
    if mode == "white":
        y = random_exchange_walk(m, x, rng.randint(1, 4), rng)
        obj["y1"] = sorted(R10_LABELS[e] for e in y.first)
        obj["y2"] = sorted(R10_LABELS[e] for e in y.second)
    return obj


def _wheel_edges(k):
    """Wheel: hub h, rim r1..rk; the triangle h-r1, h-r2, r1-r2 is shared."""
    edges = {"T2": ("h", "r1"), "T3": ("h", "r2"), "T1": ("r1", "r2")}
    for i in range(3, k + 1):
        edges[f"s{i}"] = ("h", f"r{i}")
    for i in range(2, k):
        edges[f"c{i}"] = (f"r{i}", f"r{i+1}")
    edges[f"c{k}"] = (f"r{k}", "r1")
    return edges


def _octahedron_edges():
    """K2,2,2 on o1..o6 (antipodal pairs (1,4),(2,5),(3,6)); triangle o1 o2 o3."""
    edges = {"T1": ("o1", "o2"), "T2": ("o1", "o3"), "T3": ("o2", "o3")}
    opposite = {1: 4, 2: 5, 3: 6}
    idx = 0
    for u in range(1, 7):
        for v in range(u + 1, 7):
            if opposite.get(u) == v or (u, v) in ((1, 2), (1, 3), (2, 3)):
                continue
            edges[f"q{idx}"] = (f"o{u}", f"o{v}")
            idx += 1
    return edges


def _graphic_side_text(g, shared_edge, prefix, vprefix):
    lab = {e: ("t" if e == shared_edge else f"{prefix}{e}") for e in sorted(g.edges)}
    return format_graph_text(
        {lab[e]: (f"{vprefix}{u}", f"{vprefix}{v}") for e, (u, v) in g.edges.items()}
    )


def _gen_tree(n, rng, mode):
    shape = rng.choice(
        ["graphic-graphic-2sum", "graphic-r10-2sum", "graphic-f7-2sum", "wheel-oct-3sum"]
    )
    for _attempt in range(60):
        if shape == "wheel-oct-3sum":
            k = max(4, n // 2)
            nodes = [
                {"id": "core", "tag": "graphic", "graph": format_graph_text(_wheel_edges(k))},
                {"id": "gadget", "tag": "graphic", "graph": format_graph_text(_octahedron_edges())},
            ]
            sums = [{"a": "core", "b": "gadget", "arity": 3, "shared": ["T1", "T2", "T3"]}]
        else:
            g1, _ = random_bispanning_graph(max(n // 2, 4), rng)
            if shape == "graphic-f7-2sum":
                # the Fano side covers six private elements with two disjoint
                # bases, so the graphic side needs 2r - 1 edges
                g1 = g1.delete_edges({rng.choice(sorted(g1.edges))})
            shared = rng.choice(sorted(g1.edges))
            nodes = [
                {"id": "left", "tag": "graphic",
                 "graph": _graphic_side_text(g1, shared, "a", "u")}
            ]
            if shape == "graphic-graphic-2sum":
                g2, _ = random_bispanning_graph(max(n // 2, 4), rng)
                nodes.append(
                    {"id": "right", "tag": "graphic",
                     "graph": _graphic_side_text(g2, min(g2.edges), "b", "w")}
                )
            elif shape == "graphic-r10-2sum":
                labels = ["t"] + [f"r{lab}" for lab in R10_LABELS[1:]]
                nodes.append({"id": "right", "tag": "r10", "labels": labels})
            else:
                labels = ["t"] + [f"f{c}" for c in "bcdefg"]
                nodes.append({"id": "right", "tag": "f7", "labels": labels})
            sums = [{"a": "left", "b": "right", "arity": 2, "shared": ["t"]}]

        tree = {"nodes": nodes, "sums": sums}
        try:
            structure, labelmap = parse_tree(tree)
            view = gf2_view(structure)
            # every shape has |E| = 2r, so the two independent parts are bases
            s1, s2 = matroid_union_partition(view, view, view.ground)
        except (ParseError, InfeasiblePartitionError):
            continue
        x = BasisPair(s1, s2, view)
        obj = {
            "matroid": {"kind": "tree", "tree": tree},
            "mode": mode,
            "x1": sorted(labelmap.label(e) for e in s1),
            "x2": sorted(labelmap.label(e) for e in s2),
        }
        if mode == "white":
            y = random_exchange_walk(view, x, rng.randint(1, 8), rng)
            obj["y1"] = sorted(labelmap.label(e) for e in y.first)
            obj["y2"] = sorted(labelmap.label(e) for e in y.second)
        return obj
    raise MatroidError(f"no partitionable {shape} composition found")


if __name__ == "__main__":
    sys.exit(main())
