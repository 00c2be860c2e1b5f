"""Seeded instance sets for the three workloads.

Each workload is a list of items.  An item holds the instance JSON the
library receives (``obj``), a case key ``family/n/mode`` for the per-size
breakdown, and, for R10 instances, the distance computed by the independent
oracle.  The same seed always gives the same items.  Graphs, trees and
starting pairs that every seed shares are pinned as data in ``pinned.json``;
the seed draws the queries on them (white targets and F, the designated
``last``) and the R10 instances, through the library's generators at the
commit being measured.  Generation is never timed.

Each workload is sized so that one pass over its items takes about 26 s of
op time on the reference machine (2 cores, Python 3.11); the amount of work
measured never depends on the speed of the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent

WORKLOADS = ("graphic", "binary", "sums")

# Instances shared by every seed, stored rather than generated so that a
# change to the library's generators or union cannot change them: the remark
# construction, the wheel-octahedron 3-sums at n = 40 and 80 (``gen
# tree-composed`` returns the same tree and starting pair for every seed),
# ``gen_bispanning(32, g, mode)`` for g in 0-5 and 7 (seed 6, whose 2.7 s
# solves would fill a tenth of the run, is left out), the graphs and
# starting pairs of ``gen bispanning --seed g`` for g = 0, 1, ... at
# n = 24, 160 and 240 (``POOL``), and three trees of each 2-sum shape at
# n = 40 (``tree_pool``).  Solve times and memory vary with the graph far
# more than with the query on it: with a fresh graph per instance, the
# median op time of ``binary`` moved by a third between seeds.
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
PINNED_N32 = (0, 1, 2, 3, 4, 5, 7)
POOL = PINNED["bispanning_pool"]

TREE_SHAPES = {
    "graphic-graphic-2sum": "gg2",
    "graphic-r10-2sum": "gr10",
    "graphic-f7-2sum": "gf7",
    "wheel-oct-3sum": "wo3",
}


def _gen(kind: str, n: int, seed: int, mode: str) -> dict:
    from baseswap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["gen", kind, "--n", str(n), "--seed", str(seed), "--mode", mode])
    if code != 0:
        raise RuntimeError(f"gen {kind} --n {n} --seed {seed} exited {code}")
    return json.loads(buf.getvalue())


def _item(obj: dict, family: str, n, mode: str, gen_seed=None) -> dict:
    case = f"{family}/n{n}/{mode}" if n is not None else f"{family}/{mode}"
    name = case if gen_seed is None else f"{case}/seed{gen_seed}"
    return {"name": name, "case": case, "obj": obj}


def gf2_encoding(obj: dict) -> dict:
    """A graph instance re-encoded as ``kind: gf2``: the vertex-edge incidence
    matrix with the last vertex row dropped; pairs, F and ``last`` kept."""
    edges = oracle.parse_graph_text(obj["matroid"]["text"])
    labels = sorted(edges)
    verts = sorted({v for uv in edges.values() for v in uv})[:-1]
    rows = ["".join("1" if v in edges[lab] else "0" for lab in labels) for v in verts]
    out = dict(obj)
    out["matroid"] = {"kind": "gf2", "text": "\n".join([" ".join(labels)] + rows)}
    return out


def gen_bispanning(n: int, g: int, mode: str) -> dict:
    """``gen bispanning --n n --seed g --mode mode``, except that a white
    target is the end of a walk of exactly n random exchanges rather than of
    a uniform 1..n of them.  The random stream is the same, so gabow
    instances and every graph equal the command's output byte for byte.

    A walk length drawn per instance makes the solution length, and with it
    the solve time, swing by a factor of two between seeds."""
    from baseswap.gen import random_bispanning_graph, random_exchange_walk, random_forbidden_set
    from baseswap.io import format_graph_text
    from baseswap.matroid import GraphicMatroid

    rng = random.Random(g)
    graph, pair = random_bispanning_graph(n, rng)
    lab = {e: f"e{e}" for e in sorted(graph.edges)}
    text = format_graph_text({lab[e]: (f"v{u}", f"v{v}") for e, (u, v) in graph.edges.items()})
    obj = {
        "matroid": {"kind": "graph", "text": text},
        "mode": mode,
        "x1": sorted(lab[e] for e in pair.first),
        "x2": sorted(lab[e] for e in pair.second),
    }
    if mode == "white":
        rng.randint(1, n)
        y = random_exchange_walk(GraphicMatroid(graph), pair, n, rng)
        obj["y1"] = sorted(lab[e] for e in y.first)
        obj["y2"] = sorted(lab[e] for e in y.second)
        forbidden = random_forbidden_set(pair, y, graph, rng)
        if forbidden:
            obj["forbidden"] = sorted(lab[e] for e in forbidden)
    else:
        obj["last"] = lab[rng.choice(sorted(pair.union))]
    return obj


def pool_graph(n: int, g: int) -> dict:
    """Graph and starting pair of ``gen bispanning --n n --seed g``, as
    stored in ``pinned.json`` (``POOL``)."""
    obj = gen_bispanning(n, g, "gabow")
    return {key: obj[key] for key in ("matroid", "x1", "x2")}


def pool_query(base: dict, n: int, mode: str, rng: random.Random) -> dict:
    """A query on a pinned graph: a white target at the end of a walk of n
    random exchanges with F drawn as ``gen`` draws it, or a designated
    ``last`` for a reversal."""
    from baseswap.exchange import BasisPair
    from baseswap.gen import random_exchange_walk, random_forbidden_set
    from baseswap.io import parse_instance

    obj = dict(base, mode=mode)
    if mode == "gabow":
        obj["last"] = rng.choice(sorted(base["x1"] + base["x2"]))
        return obj
    inst = parse_instance(dict(base, mode="gabow"))
    labels, m = inst["labels"], inst["structure"].matroid
    x = BasisPair(inst["x1"], inst["x2"], m)
    y = random_exchange_walk(m, x, n, rng)
    obj["y1"] = sorted(labels.label(e) for e in y.first)
    obj["y2"] = sorted(labels.label(e) for e in y.second)
    forbidden = random_forbidden_set(x, y, m.graph, rng)
    if forbidden:
        obj["forbidden"] = sorted(labels.label(e) for e in forbidden)
    return obj


def _pooled(seed: int, n: int, mode: str, count: int, tag: int):
    """(query, graph seed) pairs in ``mode`` on the first ``count`` pinned
    graphs of size n."""
    return [
        (pool_query(base, n, mode, random.Random(seed * 10_000 + tag * 100 + g)), g)
        for g, base in enumerate(POOL[f"n{n}"][:count])
    ]


def _tree_seeds(shape: str, start: int, count: int):
    """Generator seeds whose ``gen tree-composed`` shape is ``shape``."""
    names = list(TREE_SHAPES)
    out, g = [], start
    while len(out) < count:
        # gen draws the shape first from random.Random(seed)
        if TREE_SHAPES[random.Random(g).choice(names)] == shape:
            out.append(g)
        g += 1
    return out


def tree_shape(obj: dict) -> str:
    tree = obj["matroid"]["tree"]
    if tree["sums"][0]["arity"] == 3:
        return "wo3"
    tags = {node["tag"] for node in tree["nodes"]}
    return "gr10" if "r10" in tags else "gf7" if "f7" in tags else "gg2"


def pool_tree(n: int, shape: str, k: int) -> dict:
    """Tree and starting pair of the k-th ``gen tree-composed --n n --seed g
    --mode gabow`` (g = 0, 1, ...) of the given shape, as stored in
    ``pinned.json`` (``tree_pool``)."""
    g = _tree_seeds(shape, 0, k + 1)[k]
    obj = _gen("tree-composed", n, g, "gabow")
    if tree_shape(obj) != shape:
        raise RuntimeError(f"gen tree-composed --seed {g} is not {shape}")
    return {key: value for key, value in obj.items() if key != "mode"}


def tree_query(base: dict, mode: str, rng: random.Random) -> dict:
    """A query on a pinned tree: its reversal, or a white target at the end
    of a walk of exactly 8 random exchanges (``gen`` draws 1..8)."""
    obj = dict(base, mode="gabow")
    if mode == "white":
        from baseswap.exchange import BasisPair
        from baseswap.gen import random_exchange_walk
        from baseswap.io import parse_tree
        from baseswap.structure import gf2_view

        structure, labels = parse_tree(obj["matroid"]["tree"])
        view = gf2_view(structure)
        x = BasisPair(labels.ids(obj["x1"]), labels.ids(obj["x2"]), view)
        y = random_exchange_walk(view, x, 8, rng)
        obj.update(
            mode="white",
            y1=sorted(labels.label(e) for e in y.first),
            y2=sorted(labels.label(e) for e in y.second),
        )
    return obj


def _tree(seed: int, n: int, shape: str, count: int, tag: int, gabows=None):
    """``count`` white and ``gabows`` (default ``count``) gabow queries on
    the pinned trees of one shape and size, the k-th on pool tree k (the
    wheel-octahedron 3-sum has one tree per size)."""
    if shape == "wo3":
        bases = [PINNED["wheel_octahedron"][f"n{n}"]] * count
    else:
        bases = PINNED["tree_pool"][f"n{n}/{shape}"][:count]
    items = []
    gabows = count if gabows is None else gabows
    for k, base in enumerate(bases):
        rng = random.Random(seed * 10_000 + tag * 100 + k)
        for mode in ("white", "gabow") if k < gabows else ("white",):
            items.append(_item(tree_query(base, mode, rng), f"tree-{shape}", n, mode, k))
    return items


def remark_items() -> list:
    """The 68-element remark construction: a cographic K3,4 core 3-summed with
    four 4-regular gadgets, in white mode and gabow mode.  Its starting pair
    is the union partition of the ground set and its white target the end of
    an 8-step walk (seed 17), as the library computed them when pinned."""
    base = {k: v for k, v in PINNED["remark"].items() if k not in ("y1", "y2")}
    white = dict(PINNED["remark"], mode="white")
    gabow = dict(base, mode="gabow")
    return [_item(white, "remark", 68, "white"), _item(gabow, "remark", 68, "gabow")]


def expected_distance(obj: dict):
    """Certified distance from the independent oracle (None: unreachable);
    for a reversal, the monotone distance to the swapped pair."""
    m = oracle.matroid_of(obj["matroid"])
    if obj["mode"] == "gabow":
        y1, y2 = obj["x2"], obj["x1"]
    else:
        y1, y2 = obj["y1"], obj["y2"]
    return oracle.bfs_distance(
        m, obj["x1"], obj["x2"], y1, y2, obj.get("forbidden", ()),
        monotone=obj["mode"] == "gabow",
    )


def build(workload: str, seed: int) -> list:
    """Items of one workload for one seed."""
    items = []
    if workload == "graphic":
        # as many ops below the white n = 160 solves (the reversals) as
        # above them (n = 240), so that the median sits inside that group;
        # 33 ops, so that op_s.tail (ten samples beyond it) sits among them
        for n, counts, tag in ((160, (22, 6), 1), (240, (2, 3), 3)):
            for k, (mode, count) in enumerate(zip(("white", "gabow"), counts)):
                for obj, g in _pooled(seed, n, mode, count, tag + k):
                    items.append(_item(obj, "bispanning", n, mode, g))
    elif workload == "binary":
        graphs = [(obj, 24, g) for k, mode in enumerate(("white", "gabow"))
                  for obj, g in _pooled(seed, 24, mode, 40, 1 + k)]
        # seven pinned n = 32 instances, the same for every seed, in both
        # modes: at 0.4-1.6 s and up to about 100 MB each they are the
        # workload's heaviest solves, and the twelve that succeed hold its
        # tail and peak_rss_mb; two of the white ones carry an F the engine
        # rejects
        graphs += [(PINNED["bispanning_n32"][f"seed{g}/{mode}"], 32, g)
                   for g in PINNED_N32 for mode in ("white", "gabow")]
        for obj, n, g in graphs:
            item = _item(gf2_encoding(obj), "gf2-bispanning", n, obj["mode"], g)
            item["graph_obj"] = obj
            items.append(item)
        for mode in ("white", "gabow"):
            for k in range(8):
                g = seed * 10_000 + 300 + k
                item = _item(_gen("r10", 8, g, mode), "r10", 10, mode, g)
                item["expect"] = expected_distance(item["obj"])
                items.append(item)
    elif workload == "sums":
        items.extend(remark_items())
        for shape in ("gg2", "gr10", "gf7"):
            items.extend(_tree(seed, 40, shape, 3, 1))
        # the wheel-octahedron 3-sum has the same matroid and starting pair
        # for every seed (its reversals repeat), so its 0.1 s solves at
        # n = 40 hold the median, and its 0.5 s white solves at n = 80 the
        # tail (nine of them and the two remark solves lie above it); at n = 80
        # the other shapes take 0.2-9 s and up to 200 MB each, so one
        # instance picked by the seed would set the pass time and peak RSS
        items.extend(_tree(seed, 40, "wo3", 36, 1, gabows=2))
        items.extend(_tree(seed, 80, "wo3", 18, 2, gabows=2))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return interleave(items)


def interleave(items: list) -> list:
    """Items reordered so that each case is spread evenly over the pass, in
    the same pattern for every seed, and the first item of every case runs
    first, in the order ``build`` lists the cases.  The host's speed drifts
    over seconds; run case by case, one slow stretch would move a whole
    case, and a median that falls in it.  The heaviest op of ``sums`` (the
    remark white solve) thus runs first, on a fresh heap: after a large
    solve the heap stays fragmented, and peak RSS came out 13-28 MB higher
    when the remark solve followed one."""
    sizes = Counter(it["case"] for it in items)
    seen = Counter()
    keyed = []
    for i, it in enumerate(items):
        keyed.append((seen[it["case"]] / sizes[it["case"]], i, it))
        seen[it["case"]] += 1
    return [it for _, _, it in sorted(keyed, key=lambda k: k[:2])]


def digest(items: list) -> str:
    """sha256 of the canonical JSON of a workload's instances and their
    certified distances."""
    canon = [
        {"name": it["name"], "obj": it["obj"], "expect": it.get("expect")} for it in items
    ]
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
