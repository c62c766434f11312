"""The package's import graph runs one way.

Each module of ``src/lll_lab`` is parsed with ``ast``, not imported.  Its
module-level imports of package modules (under ``if`` and ``try`` blocks
too) must form a DAG, so no module needs a function-level import to break
a cycle; function-level package imports are left only where a command,
a solver entry, a parser or a package export loads a later layer on use,
each listed in ``ON_USE``, and with them the graph is still a DAG.
Oracle mode has one entry: only
``core`` enumerates a problem's states.  Every public function or class
that no other module calls is allowlisted with the reason it stays, and
``SearchProblem`` keeps to at most 16 fields.
"""

import ast
import dataclasses
import graphlib
from pathlib import Path

import lll_lab
from lll_lab.core import SearchProblem

PACKAGE = Path(lll_lab.__file__).resolve().parent
# Function-level package imports allowed, as module -> {(function, target):
# why the target loads on use}.  Importing a module of a package loads the
# package first, which needs no entry of its own.
ON_USE = {
    "lll_lab": dict.fromkeys(
        [("__getattr__", "lll_lab.core"), ("__getattr__", "lll_lab.dependency"),
         ("__getattr__", "lll_lab.criteria")],
        "a package export loads its module on first use"),
    "lll_lab.solvers": dict.fromkeys(
        [("__getattr__", f"lll_lab.solvers.{name}")
         for name in ("ksat", "aec", "matchings", "coloring")],
        "a package export loads its solver's module on first use"),
    "lll_lab.build": dict.fromkeys(
        [("_ksat", "lll_lab.solvers.ksat"), ("_aec", "lll_lab.solvers.aec"),
         ("_matchings", "lll_lab.solvers.matchings"),
         ("_coloring", "lll_lab.solvers.coloring")],
        "a solver entry loads its module when it builds or checks a problem"),
    "lll_lab.formats": dict.fromkeys(
        [("parse_dimacs", "lll_lab.solvers.ksat"), ("generate_ksat", "lll_lab.solvers.ksat"),
         ("parse_graph", "lll_lab.solvers.aec"), ("generate_graph", "lll_lab.solvers.aec"),
         ("parse_colored_clique", "lll_lab.solvers.matchings"),
         ("generate_colored_clique", "lll_lab.solvers.matchings")],
        "a parser or generator loads its family's module when it is called"),
    "lll_lab.analysis": {
        ("rainbow_partial", "lll_lab.solvers.matchings"):
            "the rainbow pipeline builds and strips matchings",
        ("matching_weight_analysis", "lll_lab.solvers.matchings"):
            "the matching suite reads each output's edges",
        ("coloring_weight_analysis", "lll_lab.solvers.coloring"):
            "the coloring suite reads the local weight bounds",
    },
    "lll_lab.cli": {
        ("_trace_json", "lll_lab.witness"): "solve --trace builds witness trees",
        ("_solve_rainbow_partial", "lll_lab.analysis"): "solve rainbow-partial runs a suite",
        ("cmd_criteria", "lll_lab.criteria"): "the criteria command runs a checker",
        ("cmd_verify", "lll_lab.analysis"): "the verify command runs a suite",
        ("_worker_counts", "lll_lab.analysis"): "a verify --parallel worker runs the runs",
    },
}


def module_names() -> dict[str, Path]:
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = ("lll_lab", *path.relative_to(PACKAGE).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = module_names()


def targets(node, module: str) -> list[str]:
    """Package modules an import statement loads, each with the packages
    above it that the importing module is not already inside."""
    if isinstance(node, ast.Import):
        named = [alias.name for alias in node.names]
    elif node.level == 0:
        named = [node.module]
    else:
        base = module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        stem = f"{base}.{node.module}" if node.module else base
        named = [f"{stem}.{alias.name}" if f"{stem}.{alias.name}" in MODULES else stem
                 for alias in node.names]
    out = []
    for name in named:
        parts = name.split(".")
        for k in range(2, len(parts) + 1):
            prefix = ".".join(parts[:k])
            inside = module == prefix or module.startswith(prefix + ".")
            if prefix in MODULES and (prefix == name or not inside):
                out.append(prefix)
    return out


def scan(module: str):
    """(module-level targets, [(function, target)] of function-level
    imports, whether the source names TYPE_CHECKING)."""
    tree = ast.parse(MODULES[module].read_text())
    top: set[str] = set()
    deferred: list[tuple[str, str]] = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = function or getattr(node, "name", "<lambda>")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in targets(node, module):
                if function is None:
                    top.add(target)
                else:
                    deferred.append((function, target))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    names_it = any(
        (isinstance(n, ast.Name) and n.id == "TYPE_CHECKING")
        or (isinstance(n, ast.Attribute) and n.attr == "TYPE_CHECKING")
        or (isinstance(n, ast.alias) and n.name == "TYPE_CHECKING")
        for n in ast.walk(tree))
    return top, deferred, names_it


SCANS = {module: scan(module) for module in MODULES}


def test_module_level_imports_form_a_dag():
    # the scan is not vacuous: it finds imports the package has
    assert "lll_lab.core" in SCANS["lll_lab.chain"][0]
    assert "lll_lab.formats" in SCANS["lll_lab.build"][0]
    assert "lll_lab.solvers.variables" in SCANS["lll_lab.solvers.ksat"][0]
    assert ("_solve_rainbow_partial", "lll_lab.analysis") in SCANS["lll_lab.cli"][1]
    graph = {module: top for module, (top, _, _) in SCANS.items()}
    on_use = {module: top | {target for _, target in deferred}
              for module, (top, deferred, _) in SCANS.items()}
    for edges in (graph, on_use):  # on-use imports run one way too
        try:
            order = list(graphlib.TopologicalSorter(edges).static_order())
        except graphlib.CycleError as exc:
            raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
        assert set(order) == set(MODULES)


def test_cli_imports_no_solver():
    """The CLI knows solvers only through ``build.SOLVERS``."""
    top, deferred, _ = SCANS["lll_lab.cli"]
    loaded = top | {target for _, target in deferred}
    assert "lll_lab.build" in top  # the scan is not vacuous
    assert [m for m in loaded if m == "lll_lab.solvers" or m.startswith("lll_lab.solvers.")] == []


def test_errors_module_is_a_leaf():
    top, deferred, _ = SCANS["lll_lab.errors"]
    assert top == set() and deferred == []


def allowed_on_use(module: str, function: str, target: str) -> bool:
    """Whether ``ON_USE`` lists the import, or one of a module inside the
    package ``target``."""
    return any(f == function and (t == target or t.startswith(target + "."))
               for f, t in ON_USE.get(module, {}))


def test_function_level_package_imports_only_on_use():
    stray = [(module, function, target)
             for module, (_, deferred, _) in SCANS.items()
             for function, target in deferred
             if not allowed_on_use(module, function, target)]
    assert stray == []
    unused = [(module, pair) for module, pairs in ON_USE.items() for pair in pairs
              if pair not in SCANS[module][1]]
    assert unused == [], "ON_USE entries with no such import"


def test_no_module_uses_type_checking():
    assert [module for module, (_, _, names_it) in SCANS.items() if names_it] == []



def enumeration_calls(module: str) -> list[tuple[str | None, int]]:
    """(innermost enclosing function, line) of every call of an
    ``enumerate_states`` attribute in a module."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "enumerate_states"):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(MODULES[module].read_text()), None)
    return found


def test_only_core_enumerates_states():
    """Outside ``core``, where ``problem.space`` applies the state cap, a
    problem's states are enumerated only by a problem that wraps its
    base, inside its own ``enumerate_states``."""
    calls = {module: enumeration_calls(module) for module in MODULES}
    # the scan is not vacuous: core builds the space from the enumeration,
    # and the labeled problem wraps its base's
    assert calls["lll_lab.core"]
    assert "enumerate_states" in [function for function, _ in calls["lll_lab.analysis"]]
    stray = [(module, function, line) for module, found in calls.items()
             if module != "lll_lab.core"
             for function, line in found if function != "enumerate_states"]
    assert stray == []


def test_search_problem_keeps_to_sixteen_fields():
    """A new field of the problem description comes in only when another
    goes out."""
    assert len(dataclasses.fields(SearchProblem)) <= 16


# Public top-level functions and classes of the package that no other
# module of it names, keyed by their module below ``lll_lab``, each with
# the reason it stays public.  A new such name needs an entry here, a
# caller or a leading underscore; this list only shrinks.
SURFACE_ALLOWLIST = {
    "analysis.Verdict": "the verdict record of every suite report",
    "analysis.upper_verdict": "each suite's one-sided verdict",
    "analysis.proportion_se": "the standard error of each frequency verdict",
    "analysis.refuse_single_run": "the suites' shared single-run refusal",
    "analysis.mean_se": "the mean and standard error of each mean verdict",
    "analysis.verdict_report": "the report every suite returns",
    "analysis.wilson_interval": "the intervals of the distribution report",
    "analysis.problem_charges": "the one source of every suite's charges",
    "analysis.problem_weights": "the one source of every suite's weights",
    "analysis.OracleTables": "what build_oracle returns",
    "analysis.build_oracle": "exact tables for tests; the benchmark's tracer times it",
    "analysis.run_many": "the batched run driver of the suites",
    "analysis.refuse_censored": "the batched suites' censored-run refusal",
    "analysis.uncensored": "the step-runner suites' censored-run refusal",
    "analysis.DistributionReport": "the distribution suite's report",
    "analysis.empirical_distribution": "the distribution suite's estimate",
    "analysis.renyi_entropy": "the distribution suite's entropy bounds",
    "analysis.labeled_problem": "the labeled space of the partial suite and rainbow_partial",
    "analysis.run_core_truncated": "library-only suite: no verify suite runs it yet",
    "analysis.matching_weight_analysis": "library-only suite: no verify suite runs it yet",
    "analysis.coloring_weight_analysis": "library-only suite: no verify suite runs it yet",
    "build.Solver": "the entry type of build.SOLVERS",
    "chain.ChainTables": "what build_chain_tables returns",
    "chain.ExactChainStats": "what exact_statistics returns",
    "chain.exact_statistics": "the exact chain solve; only tests compare the sampler with it",
    "cli.cmd_solve": "the solve command, dispatched by the parser",
    "cli.cmd_criteria": "the criteria command, dispatched by the parser",
    "cli.cmd_verify": "the verify command, dispatched by the parser",
    "cli.cmd_gen": "the gen command, dispatched by the parser",
    "cli.Suite": "the entry type of cli.SUITES",
    "cli.Family": "the entry type of cli.FAMILIES",
    "cli.parallel_run_counts": "the split of verify --parallel runs among workers",
    "cli.main": "the console entry point",
    "core.StateSpace": "what problem.space holds",
    "core.action_law": "the exact law that tests read; the space builds its rows from it",
    "core.FlawChoiceStrategy": "the base of every strategy",
    "core.LowestIndexStrategy": "a strategy that make_strategy builds by name",
    "core.FixedPriorityStrategy": "a strategy that make_strategy builds by name",
    "core.RecencyStrategy": "a strategy that make_strategy builds by name",
    "core.make_strategy": "resolves the strategy that run is given",
    "core.event_charge": "package export: the charge of an extra event",
    "core.validate_problem": "package export: the invariant check of enumerable problems",
    "criteria.CriterionReport": "package export: what each criterion checker returns",
    "criteria.subset_product_sum": "the general criterion's neighborhood product",
    "criteria.enumerate_independent_sets": "the independent sets of Shearer's polynomials",
    "criteria.commutative_backtracking_criterion": "package export with no CLI mode yet",
    "criteria.realizable_set_charge": "only tests call it: no criterion reads it yet",
    "criteria.asymmetric_ksat_criterion": "package export with no CLI mode yet",
    "criteria.counting_bound": "package export with no CLI mode yet",
    "solvers.aec.bichromatic_cycle_through": "the step's cycle walk; the benchmark counts it",
    "solvers.aec.four_available": "the backtracking step's color choice",
    "solvers.aec.default_cycle_bound": "the default cycle bound of the aec criterion",
    "solvers.aec.aec_backtracking_criterion": "package export with no CLI mode yet",
    "solvers.aec.golden_section_minimum": "the search of the clique-constant optimum",
    "solvers.aec.enumerate_even_cycles": "the cycle flaws of aec-clique-mt",
    "solvers.aec.aec_charge_table": "only tests call it: no criterion mode reads it yet",
    "solvers.aec.clique_constant_optimum": "the constants of aec-clique-mt",
    "solvers.aec.enumerate_two_paths": "the path flaws of aec-clique-mt",
    "solvers.coloring.WeightSpec": "package export: the greedy coloring's local weights",
    "solvers.coloring.adjacency_lists": "the greedy coloring's neighbor lists",
    "solvers.coloring.induced_subgraph": "the ball of a local weight bound",
    "solvers.coloring.matchings_of": "the matching series of a local weight bound",
    "solvers.ksat.ksat_backtrack_table": "only tests call it: no criterion mode reads it yet",
    "solvers.ksat.ksat_biased_table": "only tests call it: no criterion mode reads it yet",
    "solvers.ksat.clause_violation_probs": "the biased charge table's clause probabilities",
    "solvers.ksat.backtracking_threshold": "only tests call it: no criterion mode reads it yet",
    "solvers.ksat.optimal_backtracking_weight": "only tests call it: no criterion reads it yet",
    "solvers.ksat.count_partial_satisfying": "the count behind backtrack_lambda_init",
    "solvers.ksat.backtrack_lambda_init": "only tests call it: no suite reads it yet",
    "solvers.matchings.perfect_matchings": "the enumeration of the rainbow problem",
    "solvers.matchings.closed_form_zeta": "only tests call it: no criterion reads it yet",
    "witness.WitnessTree": "what the witness-tree builders return",
    "witness.build_witness_tree": "the tree of a witness sequence's prefix",
    "witness.occurs": "only tests call it: occurrence of a tree in a sequence",
    "witness.WitnessForest": "what build_witness_forest returns",
    "witness.introduced_sets": "the introduced flaws behind a witness forest",
    "witness.build_witness_forest": "the forest of a backtracking trajectory",
    "witness.enumerate_stable_set_sequences": "the sequences behind witness-tree enumeration",
    "witness.tree_from_level_sets": "the tree of one stable-set sequence",
}


def public_definitions(module: str) -> list[str]:
    """The top-level functions and classes of ``module`` without a
    leading underscore."""
    return [node.name for node in ast.parse(MODULES[module].read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(module: str) -> set[str]:
    """Every identifier ``module`` names: variables, attributes and imports."""
    out = set()
    for node in ast.walk(ast.parse(MODULES[module].read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_public_names_without_an_outside_caller_are_allowlisted():
    """A name counts as called when another module names the same
    identifier, so a collision can hide a name, never add one.  A package's
    ``__init__`` re-exports without calling, so it is no caller."""
    modules = [m for m in MODULES if MODULES[m].name != "__init__.py"]
    used = {m: names_used(m) for m in modules}
    found = {f"{m.removeprefix('lll_lab.')}.{name}" for m in modules
             for name in public_definitions(m)
             if not any(name in used[other] for other in modules if other != m)}
    assert "chain.exact_statistics" in found  # the scan is not vacuous
    assert sorted(found - SURFACE_ALLOWLIST.keys()) == [], "public names with no caller"
    assert sorted(SURFACE_ALLOWLIST.keys() - found) == [], "allowlisted names now called"
