"""Stochastic local-search laboratory for flaw/action systems.

The package bundles a flaws/actions run engine, local-lemma criterion
checkers (general, cluster expansion, Shearer, clique, backtracking),
witness-tree and witness-forest machinery with an exhaustive
commutativity certifier, seven concrete solvers, and a Monte-Carlo
verification harness for their distributional guarantees.
"""

from .core import (
    LllError,
    RunReport,
    SearchProblem,
    Trajectory,
    charge,
    event_charge,
    recommended_strategy,
    run,
    validate_problem,
)
from .criteria import (
    BacktrackChargeTable,
    CliqueLllConfig,
    CriterionReport,
    DependencyGraph,
    ShearerReport,
    asymmetric_ksat_criterion,
    backtracking_criterion,
    cluster_expansion_check,
    clique_lll_check,
    commutative_backtracking_criterion,
    counting_bound,
    general_lll_check,
    shearer_polynomials,
)

__version__ = "0.1.0"
