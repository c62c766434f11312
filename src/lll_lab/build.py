"""The CLI's solver table, and rebuildable solver specs: a picklable
description from which any worker process can reconstruct the same
SearchProblem.  Used by the CLI and by the parallel Monte-Carlo driver.

An entry loads its solver's module when it builds or checks a problem,
so a command loads only the solver it names."""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import formats
from .core import LllError, SearchProblem


class Solver(NamedTuple):
    """One solver as the CLI knows it: its build from a spec (refusals
    included), the spec fields past the instance that the build needs, each
    set by its CLI flag, its engine-free output check, and its state's JSON."""

    build: Callable[[dict], SearchProblem]
    reads: tuple[str, ...]
    valid: Callable[[SearchProblem, object], bool]
    state_json: Callable[[object], object] = list


# each solver module, loaded by the first entry that uses it


def _ksat():
    from .solvers import ksat
    return ksat


def _aec():
    from .solvers import aec
    return aec


def _matchings():
    from .solvers import matchings
    return matchings


def _coloring():
    from .solvers import coloring
    return coloring


def _cnf(spec: dict):
    return formats.parse_dimacs(spec["instance_text"])


def _graph_and_colors(spec: dict):
    """The graph instance and ``colors``, refused before parsing when below 1."""
    q = int(spec["colors"])
    if q < 1:
        raise LllError(f"--colors must be at least 1, got {q}")
    return formats.parse_graph(spec["instance_text"]), q


def _satisfied(problem: SearchProblem, state) -> bool:
    return _ksat().UNSET not in state and problem.metadata["cnf"].satisfied(state)


def _acyclic(problem: SearchProblem, state) -> bool:
    return (all(c >= 0 for c in state)
            and _aec().coloring_is_acyclic(problem.metadata["graph"], state))


def _unset_as_minus_one(state) -> list[int]:
    # byte states mark an unassigned variable by UNSET
    unset = _ksat().UNSET
    return [-1 if v == unset else v for v in state]


SOLVERS = {
    "ksat-mt": Solver(lambda spec: _ksat().ksat_mt(_cnf(spec)), (), _satisfied),
    "ksat-backtrack": Solver(lambda spec: _ksat().ksat_backtrack(_cnf(spec)), (), _satisfied,
                             _unset_as_minus_one),
    "ksat-backtrack-biased": Solver(
        lambda spec: _ksat().ksat_backtrack_biased(
            _cnf(spec), [{0: p0, 1: p1} for p0, p1 in spec["bias"]]),
        ("bias",), _satisfied, _unset_as_minus_one),
    "aec-backtrack": Solver(lambda spec: _aec().aec_backtrack(*_graph_and_colors(spec)),
                            ("colors",), _acyclic),
    "aec-clique-mt": Solver(lambda spec: _aec().aec_clique_mt(*_graph_and_colors(spec))[0],
                            ("colors",), _acyclic),
    "rainbow": Solver(
        lambda spec: _matchings().rainbow_matching(
            formats.parse_colored_clique(spec["instance_text"])), (),
        lambda problem, state: _matchings().rainbow_validity(problem.metadata["clique"], state),
        lambda state: [list(e) for e in _matchings().matching_edges(state)]),
    "vertex-coloring": Solver(
        lambda spec: _coloring().vertex_coloring_greedy(*_graph_and_colors(spec)), ("colors",),
        lambda problem, state: _coloring().coloring_is_proper_vertex(problem.metadata["graph"],
                                                                     state)),
}
PIPELINE = "rainbow-partial"  # solve-only, on rainbow instances; reads no optional field
_after = list(SOLVERS).index("rainbow") + 1
SOLVER_NAMES = (*list(SOLVERS)[:_after], PIPELINE, *list(SOLVERS)[_after:])


def build_problem(spec: dict) -> SearchProblem:
    """Construct a solver's SearchProblem from a picklable spec dict:
    {"solver": name, "instance_text": str} plus the fields the solver
    reads, "colors": int or "bias": list of [p0, p1]."""
    solver = spec["solver"]
    if solver == PIPELINE:
        raise LllError(f"{PIPELINE} is a solve-only pipeline; verify the plain rainbow solver instead")
    if solver not in SOLVERS:
        raise LllError(f"unknown solver {solver!r}")
    for field in SOLVERS[solver].reads:
        if spec.get(field) is None:
            raise LllError(f"{solver} needs --{field}")
    return SOLVERS[solver].build(spec)
