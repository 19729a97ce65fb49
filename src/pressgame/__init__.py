"""Pressing games on black-and-white graphs, sorting signed permutations
by reversals, and uniform sampling over successful pressing paths."""

__version__ = "0.1.0"

from .bwgraph import BWGraph, linear_graph, press
from .meta import build_metagraph, verify_general_family, verify_linear_family
from .paths import enumerate_successful, find_safe_press, greedy_solve
from .permrev import (
    SignedPermutation,
    build_overlap,
    parse_signed_permutation,
    reversal_distance_hurdle_free,
)
from .sampler import run_chain

__all__ = [
    "BWGraph",
    "SignedPermutation",
    "build_metagraph",
    "build_overlap",
    "enumerate_successful",
    "find_safe_press",
    "greedy_solve",
    "linear_graph",
    "parse_signed_permutation",
    "press",
    "reversal_distance_hurdle_free",
    "run_chain",
    "verify_general_family",
    "verify_linear_family",
    "__version__",
]
