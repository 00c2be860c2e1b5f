"""An independent binary-matroid oracle for checking certified distances.

Every instance the benchmark certifies is binary, so a matroid is kept here as
its cycle space over GF(2): a list of bitmasks over element indices.  A set
is independent exactly when it contains no nonzero cycle.  Leaves come from
graphs (incidence columns), raw GF(2) matrices, R10 (the weight-3 columns of
length five) and F7 (the span of its seven lines); a 1-/2-/3-sum keeps the
symmetric differences of part cycles that agree on the shared set.

Nothing here imports the library: the certified distances stored with the
R10 instances of `binary` are computed by this module alone.
"""

from __future__ import annotations

from collections import deque

K5_EDGES = tuple((u, v) for u in range(1, 6) for v in range(u + 1, 6))
R10_LABELS = tuple(f"{u}{v}" for u, v in K5_EDGES)
F7_LABELS = tuple("abcdefg")
F7_LINES = ("abd", "bce", "acf", "aeg", "cdg", "bfg", "def")


def _reduce_basis(vectors):
    """A basis of the span of ``vectors`` (ints), in echelon form by low bit."""
    pivots = {}
    for v in vectors:
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = v
                break
            v ^= pivots[low]
    return list(pivots.values())


def _rank(vectors) -> int:
    return len(_reduce_basis(vectors))


def kernel(columns: dict, index: dict) -> list:
    """Cycle space of a column representation {label: int column}."""
    cycles = []
    pivots = {}
    for label in sorted(columns):
        vec, support = columns[label], 1 << index[label]
        while vec:
            low = vec & -vec
            if low not in pivots:
                pivots[low] = (vec, support)
                break
            pvec, psupp = pivots[low]
            vec ^= pvec
            support ^= psupp
        if not vec:
            cycles.append(support)
    return cycles


def parse_graph_text(text: str) -> dict:
    edges = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            label, u, v = line.split()
            edges[label] = (u, v)
    return edges


def parse_gf2_text(text: str):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    return lines[0].split(), [ln.replace(" ", "") for ln in lines[1:]]


def _text(value) -> str:
    return value if isinstance(value, str) else "\n".join(value)


def _graph_columns(edges: dict) -> dict:
    verts = {v: i for i, v in enumerate(sorted({v for uv in edges.values() for v in uv}))}
    return {lab: (1 << verts[u]) ^ (1 << verts[v]) for lab, (u, v) in edges.items()}


class BinaryMatroid:
    """Rank and basis queries from a cycle space over labelled elements."""

    def __init__(self, labels, cycles, index):
        self.labels = tuple(sorted(labels))
        self.index = index
        self.ground = 0
        for lab in self.labels:
            self.ground |= 1 << index[lab]
        self.cycles = _reduce_basis(cycles)
        self.rank = len(self.labels) - len(self.cycles)
        self._basis_cache = {}

    def mask(self, labels) -> int:
        out = 0
        for lab in labels:
            out |= 1 << self.index[lab]
        return out

    def is_basis(self, mask: int) -> bool:
        cached = self._basis_cache.get(mask)
        if cached is None:
            # no cycle inside the set <=> cycles stay independent off it
            outside = ~mask
            cached = bin(mask).count("1") == self.rank and _rank(
                [c & outside for c in self.cycles]
            ) == len(self.cycles)
            self._basis_cache[mask] = cached
        return cached


def _leaf(node: dict, index: dict):
    tag = node["tag"]
    if tag in ("graphic", "cographic", "graph"):
        edges = parse_graph_text(_text(node["graph"]))
        cols = _graph_columns(edges)
        if tag != "cographic":
            return list(edges), kernel(cols, index)
        # cycles of the dual are the cuts: one vertex star per row
        cuts = {}
        for lab, col in cols.items():
            bit = 1 << index[lab]
            while col:
                low = col & -col
                cuts[low] = cuts.get(low, 0) | bit
                col ^= low
        return list(edges), _reduce_basis(cuts.values())
    if tag == "gf2":
        labels, rows = parse_gf2_text(_text(node["matrix"]))
        cols = {lab: 0 for lab in labels}
        for i, row in enumerate(rows):
            for j, ch in enumerate(row):
                if ch == "1":
                    cols[labels[j]] |= 1 << i
        return labels, kernel(cols, index)
    if tag == "r10":
        labels = node.get("labels", list(R10_LABELS))
        cols = {}
        for lab, (u, v) in zip(labels, K5_EDGES):
            cols[lab] = sum(1 << (k - 1) for k in range(1, 6) if k not in (u, v))
        return labels, kernel(cols, index)
    if tag == "f7":
        labels = node.get("labels", list(F7_LABELS))
        name = dict(zip(F7_LABELS, labels))
        lines = [sum(1 << index[name[c]] for c in line) for line in F7_LINES]
        return labels, _reduce_basis(lines)
    raise ValueError(f"oracle has no leaf tag {tag!r}")


def _sum(part1, part2, shared: list, index: dict):
    labels1, cycles1 = part1
    labels2, cycles2 = part2
    tmask = sum(1 << index[lab] for lab in shared)
    width = max(index.values()) + 1
    # eliminate on the shared coordinates; combinations that cancel there
    # are the cycles of the sum
    pivots = {}
    out = []
    for c in cycles1 + cycles2:
        vec = ((c & tmask) << width) | (c & ~tmask)
        while vec >> width:
            low = (vec >> width) & -(vec >> width)
            if low not in pivots:
                pivots[low] = vec
                break
            vec ^= pivots[low]
        if not vec >> width:
            out.append(vec)
    labels = sorted((set(labels1) | set(labels2)) - set(shared))
    return labels, _reduce_basis(out)


def matroid_of(source: dict) -> BinaryMatroid:
    """The instance's ``matroid`` object as a BinaryMatroid."""
    kind = source["kind"]
    if kind == "graph":
        node = {"tag": "graph", "graph": source["text"]}
    elif kind == "gf2":
        node = {"tag": "gf2", "matrix": source["text"]}
    elif kind in ("r10", "f7"):
        node = {"tag": kind}
    elif kind == "tree":
        return _tree_matroid(source["tree"])
    else:
        raise ValueError(f"oracle has no matroid kind {kind!r}")
    labels = _leaf_labels(node)
    index = {lab: i for i, lab in enumerate(sorted(labels))}
    got_labels, cycles = _leaf(node, index)
    return BinaryMatroid(got_labels, cycles, index)


def _leaf_labels(node: dict) -> list:
    tag = node["tag"]
    if tag in ("graphic", "cographic", "graph"):
        return list(parse_graph_text(_text(node["graph"])))
    if tag == "gf2":
        return parse_gf2_text(_text(node["matrix"]))[0]
    if tag == "r10":
        return node.get("labels", list(R10_LABELS))
    return node.get("labels", list(F7_LABELS))


def _tree_matroid(tree: dict) -> BinaryMatroid:
    all_labels = sorted({lab for node in tree["nodes"] for lab in _leaf_labels(node)})
    index = {lab: i for i, lab in enumerate(all_labels)}
    parts = {node["id"]: _leaf(node, index) for node in tree["nodes"]}
    owner = {nid: nid for nid in parts}

    def find(nid):
        while owner[nid] != nid:
            nid = owner[nid]
        return nid

    for spec in tree.get("sums", []):
        ra, rb = find(spec["a"]), find(spec["b"])
        parts[ra] = _sum(parts[ra], parts[rb], spec["shared"], index)
        owner[rb] = ra
    (root,) = {find(nid) for nid in parts}
    labels, cycles = parts[root]
    return BinaryMatroid(labels, cycles, index)


def bfs_distance(m: BinaryMatroid, x1, x2, y1, y2, forbidden=(), monotone=False):
    """Fewest symmetric exchanges taking (x1, x2) to (y1, y2), or None."""
    x1, x2, y1, y2 = (m.mask(s) for s in (x1, x2, y1, y2))
    avoid = m.mask(forbidden)
    common = x1 & x2
    if common != y1 & y2 or x1 | x2 != y1 | y2:
        return None
    live = (x1 | x2) & ~common
    start, target = x1 & ~common, y1 & ~common
    bits = [1 << i for i in range(live.bit_length()) if live >> i & 1]
    dist = {start: 0}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        if a == target:
            return dist[a]
        for e in bits:
            if not a & e or e & avoid or (monotone and e & target):
                continue
            for f in bits:
                if a & f or f & avoid or (monotone and not f & target):
                    continue
                na = a ^ e ^ f
                if na in dist:
                    continue
                if m.is_basis(common | na) and m.is_basis(common | (live & ~na)):
                    dist[na] = dist[a] + 1
                    queue.append(na)
    return None

