"""Concrete search problems: satisfiability, edge/vertex coloring, and
rainbow matchings, each prewired with its charges, dependency structure,
and criterion parameters.

Each public name below loads its solver's module on first use, so a
command that runs one solver loads no other."""

# the public names, by the module that defines them
_KSAT = ("CnfInstance", "ksat_mt", "ksat_backtrack", "ksat_backtrack_biased")
_AEC = ("GraphInstance", "aec_backtrack", "aec_clique_mt", "aec_backtracking_criterion")
_MATCHINGS = ("EdgeColoredClique", "rainbow_matching")
_COLORING = ("WeightSpec", "vertex_coloring_greedy")
__all__ = [*_KSAT, *_AEC, *_MATCHINGS, *_COLORING]


def __getattr__(name: str):
    # looked up on the module at every access, so a patched name shows here too
    if name in _KSAT:
        from . import ksat as home
    elif name in _AEC:
        from . import aec as home
    elif name in _MATCHINGS:
        from . import matchings as home
    elif name in _COLORING:
        from . import coloring as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
