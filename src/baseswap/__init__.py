"""Symmetric exchange sequences between matroid basis pairs.

Library surface: matroid backends and queries (matroid), matroid union
(union), basis pairs and the exchange-graph oracle (exchange), instance
reductions (reductions), the graph reduction rule (graphic), 2-/3-sum sequence
composition (sums), R10 and Fano base cases (special), structured matroids
(structure), the end-to-end pipeline (pipeline), file formats (io), and the
command line (cli).

Importing the package loads none of them.  Each name of ``__all__`` is
imported from its home module on first access (PEP 562) and then kept in
the package, so a parse through ``baseswap.io`` loads only ``io``,
``matroid``, ``structure`` and ``special``.
"""

from importlib import import_module as _import_module

_HOMES = {
    "matroid": ("Matroid", "Gf2Matroid", "GraphicMatroid", "Multigraph", "SumSpec", "graphic_matroid"),
    "structure": ("compose_sum",),
    "exchange": (
        "BasisPair", "ExchangeStep", "ExchangeSequence", "apply_and_validate",
        "bfs_oracle", "compatible", "is_valid_exchange",
    ),
    "union": ("matroid_union_partition", "InfeasiblePartitionError"),
    "special": ("r10_matroid", "f7_matroid"),
    "pipeline": ("solve_white", "solve_gabow", "SolveReport"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
