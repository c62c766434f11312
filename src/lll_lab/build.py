"""Rebuildable solver specs: a picklable description from which any
worker process can reconstruct the same SearchProblem.  Used by the CLI
and by the parallel Monte-Carlo driver."""

from __future__ import annotations

from .core import LllError, SearchProblem
from . import formats
from .solvers import (
    aec_backtrack,
    aec_clique_mt,
    ksat_backtrack,
    ksat_backtrack_biased,
    ksat_mt,
    rainbow_matching,
    vertex_coloring_greedy,
)

SOLVER_NAMES = (
    "ksat-mt",
    "ksat-backtrack",
    "ksat-backtrack-biased",
    "aec-backtrack",
    "aec-clique-mt",
    "rainbow",
    "rainbow-partial",
    "vertex-coloring",
)


def build_problem(spec: dict) -> SearchProblem:
    """Construct a solver's SearchProblem from a picklable spec dict:
    {"solver": name, "instance_text": str, optional "colors": int,
    "bias": list of [p0, p1]}."""
    solver = spec["solver"]
    text = spec["instance_text"]
    if solver == "ksat-mt":
        return ksat_mt(formats.parse_dimacs(text))
    if solver == "ksat-backtrack":
        return ksat_backtrack(formats.parse_dimacs(text))
    if solver == "ksat-backtrack-biased":
        cnf = formats.parse_dimacs(text)
        bias = spec.get("bias")
        if bias is None:
            raise LllError("biased solver needs per-variable distributions")
        dists = [{0: p[0], 1: p[1]} for p in bias]
        return ksat_backtrack_biased(cnf, dists)
    if solver in ("aec-backtrack", "aec-clique-mt", "vertex-coloring"):
        if "colors" not in spec:
            raise LllError(f"{solver} needs --colors")
        q = int(spec["colors"])
        if q < 1:
            raise LllError(f"--colors must be at least 1, got {q}")
        graph = formats.parse_graph(text)
        if solver == "aec-backtrack":
            return aec_backtrack(graph, q)
        if solver == "aec-clique-mt":
            return aec_clique_mt(graph, q)[0]
        return vertex_coloring_greedy(graph, q)
    if solver == "rainbow":
        return rainbow_matching(formats.parse_colored_clique(text))
    if solver == "rainbow-partial":
        raise LllError("rainbow-partial is a solve-only pipeline; verify the plain rainbow solver instead")
    raise LllError(f"unknown solver {solver!r}")
