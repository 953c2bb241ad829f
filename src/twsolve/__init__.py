"""Exact treewidth solving over oriented minimal separators and potential
maximal cliques, with safe-separator preprocessing and PACE-format I/O."""

from .graph import AuditError, Graph, bit_list, bits, vset
from .pipeline import solve
from .solver import DecideResult, SolverStats, Witness, decide, treewidth
from .tdbuild import TreeDecomposition, extract, validate

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "DecideResult",
    "Graph",
    "SolverStats",
    "TreeDecomposition",
    "Witness",
    "bit_list",
    "bits",
    "decide",
    "extract",
    "solve",
    "treewidth",
    "validate",
    "vset",
]
