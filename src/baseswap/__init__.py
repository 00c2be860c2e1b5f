"""Symmetric exchange sequences between matroid basis pairs.

Library surface: matroid backends and queries (matroid), matroid union
(union), basis pairs and the exchange-graph oracle (exchange), instance
reductions (reductions), the graph reduction rule (graphic), 2-/3-sum sequence
composition (sums), R10 and Fano base cases (special), structured matroids
(structure), the end-to-end pipeline (pipeline), file formats (io), and the
command line (cli).
"""

from .matroid import (
    Matroid,
    Gf2Matroid,
    GraphicMatroid,
    Multigraph,
    SumSpec,
    graphic_matroid,
)
from .structure import compose_sum
from .exchange import (
    BasisPair,
    ExchangeStep,
    ExchangeSequence,
    apply_and_validate,
    bfs_oracle,
    compatible,
    is_valid_exchange,
)
from .union import matroid_union_partition, InfeasiblePartitionError
from .graphic import solve_graphic_white, solve_graphic_gabow
from .special import r10_matroid, f7_matroid
from .pipeline import solve_white, solve_gabow, SolveReport

__all__ = [
    "Matroid",
    "Gf2Matroid",
    "GraphicMatroid",
    "Multigraph",
    "SumSpec",
    "compose_sum",
    "graphic_matroid",
    "BasisPair",
    "ExchangeStep",
    "ExchangeSequence",
    "apply_and_validate",
    "bfs_oracle",
    "compatible",
    "is_valid_exchange",
    "matroid_union_partition",
    "InfeasiblePartitionError",
    "solve_graphic_white",
    "solve_graphic_gabow",
    "r10_matroid",
    "f7_matroid",
    "solve_white",
    "solve_gabow",
    "SolveReport",
]
