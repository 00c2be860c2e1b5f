"""File formats: graph text, GF(2) matrix text, decomposition-tree JSON,
instance JSON, and sequence serialization.

Element labels are strings at the file level and map to dense integer ids
inside the library.  Graph text has one edge per line, ``label u v``, with
``#`` starting comments.  The GF(2) format is a header of column labels
followed by rows of 0/1 characters.
"""

from __future__ import annotations

import json

from .matroid import Multigraph, Gf2Matroid, SumSpec
from .special import r10_matroid, f7_matroid, K5_EDGES, F7_ELEMENTS
from .structure import (
    compose_structures,
    cographic_leaf,
    gf2_leaf,
    graphic_leaf,
)


class ParseError(Exception):
    pass


class LabelMap:
    def __init__(self, to_id: dict, to_label: dict):
        self.to_id = to_id
        self.to_label = to_label

    @classmethod
    def from_labels(cls, labels) -> "LabelMap":
        ordered = sorted(set(labels))
        if len(ordered) != len(list(labels)):
            raise ParseError("duplicate element labels")
        to_id = {lab: i for i, lab in enumerate(ordered)}
        return cls(to_id, {i: lab for lab, i in to_id.items()})

    def id(self, label: str) -> int:
        if isinstance(label, str) and label in self.to_id:
            return self.to_id[label]
        raise ParseError(f"unknown element label {label!r}")

    def ids(self, labels) -> frozenset:
        return frozenset(self.id(l) for l in labels)

    def label(self, eid: int) -> str:
        return self.to_label[eid]


def load_json(text: str):
    """``json.loads``, reporting nesting too deep for the parser as a
    ParseError (malformed text still raises ``json.JSONDecodeError``)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _text(value, what: str) -> str:
    """A text field of a JSON file: one string, or a list of lines."""
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(isinstance(line, str) for line in value):
        return "\n".join(value)
    raise ParseError(f"{what} must be a string or a list of strings")


def _label_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(lab, str) for lab in value):
        raise ParseError(f"{what} must be a list of element labels")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object")
    return value


def parse_graph_text(text: str) -> dict:
    """Graph text -> {label: (u, v)} with vertex names kept as strings."""
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"graph line {lineno}: expected 'label u v'")
        label, u, v = parts
        if label in edges:
            raise ParseError(f"graph line {lineno}: duplicate edge label {label!r}")
        edges[label] = (u, v)
    return edges


def format_graph_text(edges: dict) -> str:
    return "\n".join(f"{lab} {u} {v}" for lab, (u, v) in sorted(edges.items()))


def parse_gf2_text(text: str):
    """GF(2) matrix text -> (labels, rows of 0/1 strings)."""
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
        if ln.split("#", 1)[0].strip()
    ]
    if not lines:
        raise ParseError("empty GF(2) matrix")
    labels = lines[0].split()
    rows = []
    for lineno, row in enumerate(lines[1:], start=2):
        compact = row.replace(" ", "")
        if len(compact) != len(labels) or set(compact) - {"0", "1"}:
            raise ParseError(f"matrix line {lineno}: expected {len(labels)} 0/1 entries")
        rows.append(compact)
    return labels, rows


R10_LABELS = tuple(f"{u}{v}" for u, v in K5_EDGES)
F7_LABELS = tuple(F7_ELEMENTS)


def _builtin_labels(tag: str, node: dict):
    default = R10_LABELS if tag == "r10" else F7_LABELS
    labels = _label_list(node.get("labels", list(default)), f"{tag} labels")
    if len(labels) != len(default):
        raise ParseError(f"{tag} leaf needs exactly {len(default)} labels")
    return labels


def _leaf_from_node(node: dict):
    """Returns (labels in canonical element order, builder(label->id) -> Leaf)."""
    tag = node.get("tag")
    if tag in ("graphic", "cographic"):
        if "graph" not in node:
            raise ParseError(f"{tag} leaf needs a 'graph' field")
        edges = parse_graph_text(_text(node["graph"], f"{tag} leaf 'graph'"))
        labels = sorted(edges)

        def build(resolve, _edges=edges, _tag=tag):
            graph = Multigraph({resolve(lab): uv for lab, uv in _edges.items()})
            return graphic_leaf(graph) if _tag == "graphic" else cographic_leaf(graph)

        return labels, build
    if tag == "gf2":
        if "matrix" not in node:
            raise ParseError("gf2 leaf needs a 'matrix' field")
        labels, rows = parse_gf2_text(_text(node["matrix"], "gf2 leaf 'matrix'"))
        base = Gf2Matroid.from_rows(rows, range(len(labels)))
    elif tag in ("r10", "f7"):
        labels = _builtin_labels(tag, node)
        base = r10_matroid() if tag == "r10" else f7_matroid()
    else:
        raise ParseError(f"unknown leaf tag {tag!r}")
    columns = [base.columns[i] for i in range(len(labels))]

    def build(resolve):
        return gf2_leaf(Gf2Matroid({resolve(lab): col for lab, col in zip(labels, columns)}))

    return labels, build


def parse_tree(tree: dict):
    """Decomposition-tree JSON -> (structure, LabelMap).

    Schema: {"nodes": [{"id", "tag", "graph"|"matrix"(|"labels")}],
             "sums": [{"a", "b", "arity", "shared": [labels]}]}.
    Shared labels appear in exactly the two leaves their sum joins.
    """
    tree = _object(tree, "tree")
    nodes = tree.get("nodes")
    sums = tree.get("sums", [])
    if not nodes or not isinstance(nodes, list):
        raise ParseError("tree needs a 'nodes' list")
    if not isinstance(sums, list):
        raise ParseError("tree 'sums' must be a list")
    leaf_specs = {}
    label_owner: dict = {}
    all_labels = []
    for node in nodes:
        nid = _object(node, "tree node").get("id")
        if not isinstance(nid, (str, int)) or nid in leaf_specs:
            raise ParseError("every tree node needs a unique 'id'")
        labels, build = _leaf_from_node(node)
        leaf_specs[nid] = (labels, build)
        for lab in labels:
            label_owner.setdefault(lab, []).append(nid)
            all_labels.append(lab)

    shared_labels = {lab for lab, owners in label_owner.items() if len(owners) > 1}
    for lab, owners in label_owner.items():
        if len(owners) > 2:
            raise ParseError(f"label {lab!r} appears in more than two leaves")
    labelmap = LabelMap.from_labels(set(all_labels))

    built = {
        nid: build(labelmap.id) for nid, (labels, build) in leaf_specs.items()
    }
    owner_of = {nid: nid for nid in built}

    def find(nid):
        while owner_of[nid] != nid:
            owner_of[nid] = owner_of[owner_of[nid]]
            nid = owner_of[nid]
        return nid

    expected_shared = set()
    for sum_spec in sums:
        sum_spec = _object(sum_spec, "tree sum")
        a, b = sum_spec.get("a"), sum_spec.get("b")
        arity = sum_spec.get("arity")
        shared_here = _label_list(sum_spec.get("shared", []), "sum 'shared'")
        shared = [labelmap.id(lab) for lab in shared_here]
        expected_shared.update(shared_here)
        if not all(isinstance(v, (str, int)) and v in owner_of for v in (a, b)):
            raise ParseError("sum references an unknown node id")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ParseError("sums must form a tree; found a cycle")
        try:
            merged = compose_structures(built[ra], built[rb], SumSpec(arity, frozenset(shared)))
        except Exception as err:
            raise ParseError(f"sum {a!r}+{b!r} invalid: {err}") from None
        built[ra] = merged
        owner_of[rb] = ra
    roots = {find(nid) for nid in owner_of}
    if len(roots) != 1:
        raise ParseError("tree does not compose into a single matroid")
    if shared_labels != set(expected_shared):
        raise ParseError("labels shared between leaves must match the sums' shared lists")
    (root,) = roots
    return built[root], labelmap


def load_matroid_source(spec: dict, read_file=None):
    """Instance 'matroid' object -> (structure, LabelMap)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("matroid source must be an object with a 'kind'")
    kind = spec["kind"]

    def text_of(field):
        if field in spec:
            return _text(spec[field], f"{kind} source '{field}'")
        if "path" in spec:
            if read_file is None:
                raise ParseError("file references are not available here")
            if not isinstance(spec["path"], str):
                raise ParseError("'path' must be a string")
            return read_file(spec["path"])
        raise ParseError(f"{kind} source needs '{field}' or 'path'")

    if kind in ("graph", "gf2", "r10", "f7"):
        if kind == "graph":
            node = {"tag": "graphic", "graph": text_of("text")}
        elif kind == "gf2":
            node = {"tag": kind, "matrix": text_of("text")}
        else:
            node = {"tag": kind}
        labels, build = _leaf_from_node(node)
        labelmap = LabelMap.from_labels(labels)
        return build(labelmap.id), labelmap
    if kind == "tree":
        if "tree" in spec:
            tree = spec["tree"]
        else:
            tree = load_json(text_of("tree"))
        return parse_tree(tree)
    raise ParseError(f"unknown matroid kind {kind!r}")


def parse_instance(obj: dict, read_file=None):
    """Instance JSON -> dict of parsed fields."""
    obj = _object(obj, "instance")
    structure, labelmap = load_matroid_source(obj.get("matroid", {}), read_file)
    out = {"structure": structure, "labels": labelmap}
    for key in ("x1", "x2", "y1", "y2"):
        if key in obj:
            out[key] = labelmap.ids(_label_list(obj[key], f"'{key}'"))
    if "x1" not in out or "x2" not in out:
        raise ParseError("instance needs x1 and x2")
    out["forbidden"] = labelmap.ids(_label_list(obj.get("forbidden", []), "'forbidden'"))
    out["last"] = labelmap.id(obj["last"]) if "last" in obj else None
    mode = obj.get("mode", "white")
    if mode not in ("white", "gabow"):
        raise ParseError(f"unknown mode {mode!r}")
    out["mode"] = mode
    if mode == "white" and ("y1" not in out or "y2" not in out):
        raise ParseError("white mode needs y1 and y2")
    return out


def sequence_to_text(seq, labelmap: LabelMap = None) -> str:
    conv = labelmap.label if labelmap else str
    return "\n".join(f"{k}: {conv(s.e)} <-> {conv(s.f)}" for k, s in enumerate(seq))


def parse_sequence_text(text: str, labelmap: LabelMap = None):
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _idx, rest = line.split(":", 1)
            e_lab, f_lab = (part.strip() for part in rest.split("<->"))
        except ValueError:
            raise ParseError(f"sequence line {lineno}: expected 'k: e <-> f'") from None
        if labelmap:
            steps.append((labelmap.id(e_lab), labelmap.id(f_lab)))
        else:
            steps.append((e_lab, f_lab))
    return steps


def parse_sequence_json(obj, labelmap: LabelMap = None):
    if not isinstance(obj, list):
        raise ParseError("a JSON sequence must be a list of steps")
    steps = []
    for k, entry in enumerate(obj):
        if not isinstance(entry, dict) or "e" not in entry or "f" not in entry:
            raise ParseError(f"sequence step {k}: expected an object with 'e' and 'f'")
        e, f = entry["e"], entry["f"]
        if labelmap:
            steps.append((labelmap.id(e), labelmap.id(f)))
        else:
            steps.append((e, f))
    return steps
