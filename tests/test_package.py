"""The package surface: names resolved on first access, the modules a parse
loads, the structure classes' cached members, and no definition that
nothing reads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import baseswap
from baseswap.io import R10_LABELS
from baseswap.matroid import Multigraph, SumSpec
from baseswap.structure import compose_structures, graphic_leaf

from conftest import K4_EDGES

# a wheel W4 3-summed with the octahedron along T1 T2 T3, and R10 2-summed
# on the spoke s3
WHEEL = "T2 h r1\nT3 h r2\nT1 r1 r2\ns3 h r3\ns4 h r4\nc2 r2 r3\nc3 r3 r4\nc4 r4 r1"
OCTAHEDRON = (
    "T1 o1 o2\nT2 o1 o3\nT3 o2 o3\nq0 o1 o5\nq1 o1 o6\nq2 o2 o4\nq3 o2 o6\n"
    "q4 o3 o4\nq5 o3 o5\nq6 o4 o5\nq7 o4 o6\nq8 o5 o6"
)
TREE = {
    "nodes": [
        {"id": "wheel", "tag": "graphic", "graph": WHEEL},
        {"id": "oct", "tag": "graphic", "graph": OCTAHEDRON},
        {"id": "r10", "tag": "r10", "labels": ["s3"] + [f"x{lab}" for lab in R10_LABELS[1:]]},
    ],
    "sums": [
        {"a": "wheel", "b": "oct", "arity": 3, "shared": ["T1", "T2", "T3"]},
        {"a": "wheel", "b": "r10", "arity": 2, "shared": ["s3"]},
    ],
}
SOURCES = [
    {"kind": "graph", "text": "a 1 2\nb 2 3\nc 3 1"},
    {"kind": "gf2", "text": "p q r\n101\n011"},
    {"kind": "r10"},
    {"kind": "f7"},
    {"kind": "tree", "tree": TREE},
]

PROBE = """
import json, sys
start = set(sys.modules)
import baseswap, baseswap.io
for obj in json.loads(sys.argv[1]):
    baseswap.io.parse_instance(obj)
print(json.dumps({"new": sorted(set(sys.modules) - start),
                  "dataclasses_at_start": "dataclasses" in start}))
"""


def test_a_parse_loads_only_the_modules_it_reads():
    instances = [{"matroid": src, "mode": "gabow", "x1": [], "x2": []} for src in SOURCES]
    src = str(Path(baseswap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(instances)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    ours = {name for name in report["new"] if name.split(".")[0] == "baseswap"}
    assert ours == {
        "baseswap", "baseswap.io", "baseswap.matroid", "baseswap.structure", "baseswap.special",
    }
    assert report["dataclasses_at_start"] or "dataclasses" not in report["new"]


def test_the_tree_source_holds_both_sums():
    from baseswap.io import parse_tree

    root, labels = parse_tree(TREE)
    assert root.spec.arity == 2 and root.left.spec.arity == 3
    assert len(root.ground) == len(labels.to_id) - 4 == 22


@pytest.mark.parametrize("name", baseswap.__all__)
def test_every_name_resolves_to_its_home_modules_object(name):
    home = importlib.import_module(f"baseswap.{baseswap._HOME[name]}")
    assert getattr(baseswap, name) is getattr(home, name)
    assert name in vars(baseswap)  # kept after the first access


def test_dir_lists_every_name():
    assert set(baseswap.__all__) <= set(dir(baseswap))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        baseswap.no_such_name


def test_from_import_still_reaches_submodules():
    from baseswap import pipeline, solve_white

    assert pipeline.solve_white is solve_white


def test_leaf_and_sum_node_build_their_matrices_once():
    leaf = graphic_leaf(Multigraph(K4_EDGES))
    assert leaf.gf2 is leaf.gf2 and leaf.gf2 is not leaf.matroid
    other = graphic_leaf(Multigraph({6: (1, 2), 7: (1, 5), 8: (2, 5), 9: (5, 6), 10: (1, 6)}))
    node = compose_structures(leaf, other, SumSpec(1))
    assert node.matroid is node.matroid is node.gf2
    assert node.ground is node.ground == leaf.ground | other.ground


ROOT = Path(__file__).resolve().parents[1]
# the public surface that only callers read
CALLER_ONLY = {"SolveReport.certificates"}


def _definitions(tree) -> list:
    """(name, qualified name) of every function, method and class, dunder
    methods aside; a method is qualified by its class."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            out.append((node.name, node.name))
            out += [
                (item.name, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    methods = {qual for _, qual in out if "." in qual}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not any(qual.endswith(f".{node.name}") for qual in methods):
                out.append((node.name, node.name))
    return [(name, qual) for name, qual in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree) -> set:
    """Every name, attribute, imported name and identifier string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rsplit(".", 1)[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def test_every_definition_is_read_by_the_library_or_the_bench():
    # a function, method or class of ``src/baseswap`` that nothing in
    # ``src/`` or ``perfbench/`` names is code the engine never calls; the
    # tracer's identifier strings ("restrict") count as names
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    referenced = set().union(*map(_references, trees.values()))
    library = [tree for path, tree in trees.items() if "baseswap" in path.parts]
    unread = {
        qual for tree in library for name, qual in _definitions(tree)
        if name not in referenced and qual not in CALLER_ONLY
    }
    assert not unread, sorted(unread)


def test_only_the_matroid_module_reads_a_graphs_private_attributes():
    # a Multigraph is immutable: its private attributes (the incidence
    # index it fills on first use) are read only by ``matroid.py``, and
    # other modules go through its public methods
    home = ast.parse((ROOT / "src" / "baseswap" / "matroid.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in ast.walk(home) if isinstance(n, ast.ClassDef) and n.name == "Multigraph"]
    private = {
        name for node in ast.walk(cls)
        for name in (getattr(node, "attr", None), getattr(node, "name", None))
        if name and name.startswith("_") and not name.endswith("__")
    }
    assert "_ends" in private
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    readers = sorted(
        (path.name, node.lineno)
        for path in sources if path.name != "matroid.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
        or isinstance(node, ast.Constant) and node.value in private
    )
    assert not readers, readers


def _unread_imports(tree) -> list:
    """The names a module imports (``__future__`` aside) that no
    ``ast.Name`` reads."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_every_import_is_read():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unread = {
        str(path.relative_to(ROOT)): names
        for path in sources
        if (names := _unread_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not unread, unread
