"""Concrete search problems: satisfiability, edge/vertex coloring, and
rainbow matchings, each prewired with its charges, dependency structure,
and criterion parameters."""

from .ksat import CnfInstance, ksat_mt, ksat_backtrack, ksat_backtrack_biased
from .aec import GraphInstance, aec_backtrack, aec_clique_mt, aec_backtracking_criterion
from .matchings import EdgeColoredClique, rainbow_matching
from .coloring import WeightSpec, vertex_coloring_greedy

__all__ = [
    "CnfInstance",
    "GraphInstance",
    "EdgeColoredClique",
    "WeightSpec",
    "ksat_mt",
    "ksat_backtrack",
    "ksat_backtrack_biased",
    "aec_backtrack",
    "aec_clique_mt",
    "aec_backtracking_criterion",
    "rainbow_matching",
    "vertex_coloring_greedy",
]
