"""Stochastic local-search laboratory for flaw/action systems.

The package bundles a flaws/actions run engine, local-lemma criterion
checkers (general, cluster expansion, Shearer, clique, backtracking),
witness-tree and witness-forest machinery with an exhaustive
commutativity certifier, seven concrete solvers, and a Monte-Carlo
verification harness for their distributional guarantees.

Each public name below loads its module on first use, so importing one
submodule, such as ``lll_lab.cli``, loads no other.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_CORE = ("LllError", "RunReport", "SearchProblem", "Trajectory", "charge", "event_charge",
         "recommended_strategy", "run", "validate_problem")
_DEPENDENCY = ("BacktrackChargeTable", "CliqueLllConfig", "DependencyGraph")
_CRITERIA = ("CriterionReport", "ShearerReport", "asymmetric_ksat_criterion",
             "backtracking_criterion", "cluster_expansion_check", "clique_lll_check",
             "commutative_backtracking_criterion", "counting_bound", "general_lll_check",
             "shearer_polynomials")
__all__ = [*_CORE, *_DEPENDENCY, *_CRITERIA]


def __getattr__(name: str):
    # looked up on the module at every access, so a patched name shows here too
    if name in _CORE:
        from . import core as home
    elif name in _DEPENDENCY:
        from . import dependency as home
    elif name in _CRITERIA:
        from . import criteria as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
