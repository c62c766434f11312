"""Each command loads only the modules it runs, and every public name
still resolves through the package that exports it.

Each load is checked in a fresh interpreter, which prints the
``lll_lab`` modules in ``sys.modules`` after the import or the command.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lll_lab
from lll_lab import solvers
from lll_lab.build import SOLVERS

CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

# what importing the CLI loads: the tables, the instance formats, the engine
IMPORTED = {"lll_lab", "lll_lab.build", "lll_lab.cli", "lll_lab.core", "lll_lab.dependency",
            "lll_lab.errors", "lll_lab.formats", "lll_lab.rng"}
# past the import, what ``solve`` loads for each solver
SOLVE_LOADS = {
    "ksat-mt": {"lll_lab.solvers", "lll_lab.solvers.ksat", "lll_lab.solvers.variables"},
    "ksat-backtrack": {"lll_lab.solvers", "lll_lab.solvers.ksat", "lll_lab.solvers.variables"},
    "ksat-backtrack-biased": {"lll_lab.solvers", "lll_lab.solvers.ksat",
                              "lll_lab.solvers.variables"},
    "aec-backtrack": {"lll_lab.solvers", "lll_lab.solvers.aec", "lll_lab.solvers.variables"},
    "aec-clique-mt": {"lll_lab.solvers", "lll_lab.solvers.aec", "lll_lab.solvers.variables"},
    "rainbow": {"lll_lab.solvers", "lll_lab.solvers.matchings"},
    "vertex-coloring": {"lll_lab.solvers", "lll_lab.solvers.coloring", "lll_lab.solvers.aec",
                        "lll_lab.solvers.variables"},
}
INSTANCES = {
    "cnf": "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n",
    "graph": "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "clique": "".join(f"{u} {v} {4 * u + v}\n" for u in range(4) for v in range(u + 1, 4)),
}
SOLVE_ARGS = {
    "ksat-mt": ("cnf", []),
    "ksat-backtrack": ("cnf", []),
    "ksat-backtrack-biased": ("cnf", ["--bias", "BIAS"]),
    "aec-backtrack": ("graph", ["--colors", "9"]),
    "aec-clique-mt": ("graph", ["--colors", "9"]),
    "rainbow": ("clique", []),
    "vertex-coloring": ("graph", ["--colors", "4"]),
}


def loaded_after(statement: str) -> tuple[list[str], bool]:
    """The ``lll_lab`` modules a fresh interpreter holds after ``from
    lll_lab import cli`` and ``statement``, and whether it holds
    ``numpy.random``."""
    code = ("import sys, json\nfrom lll_lab import cli\n" + statement + "\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'lll_lab'),"
            " 'numpy.random' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=120)
    assert done.returncode == 0, done.stderr
    modules, random = json.loads(done.stdout.splitlines()[-1])
    return modules, random


def test_cli_import_loads_no_solver_and_no_later_layer():
    modules, random = loaded_after("")
    never = [m for m in modules if m.startswith("lll_lab.solvers")
             or m in ("lll_lab.criteria", "lll_lab.analysis", "lll_lab.chain", "lll_lab.witness")]
    assert never == [] and not random
    assert set(modules) == IMPORTED


def test_every_solver_has_its_expected_loads():
    assert SOLVE_LOADS.keys() == SOLVERS.keys() == SOLVE_ARGS.keys()


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_solve_loads_only_its_solver(tmp_path, solver):
    kind, flags = SOLVE_ARGS[solver]
    instance = tmp_path / f"instance.{kind}"
    instance.write_text(INSTANCES[kind])
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps([[0.5, 0.5]] * 4))
    argv = ["solve", solver, str(instance), "--seed", "1", "--json", str(tmp_path / "out.json"),
            *[str(bias) if flag == "BIAS" else flag for flag in flags]]
    modules, _ = loaded_after(f"assert cli.main({argv!r}) == 0")
    assert set(modules) == IMPORTED | SOLVE_LOADS[solver]


def test_criteria_loads_criteria_and_no_solver(tmp_path):
    path = tmp_path / "crit.json"
    path.write_text(json.dumps({"m": 2, "adjacency": [[1], [0]], "gamma": [0.1, 0.1],
                                "psi": [0.2, 0.2], "mode": "cluster"}))
    modules, _ = loaded_after(f"assert cli.main(['criteria', {str(path)!r}, '--json', "
                              f"{str(tmp_path / 'out.json')!r}]) == 0")
    assert set(modules) == IMPORTED | {"lll_lab.criteria"}


def test_verify_ksat_loads_no_other_solver(tmp_path):
    """``analysis`` loads a solver module only in the function that reads
    it, so a ``verify`` of a k-SAT solver loads no other solver."""
    path = tmp_path / "instance.cnf"
    path.write_text(INSTANCES["cnf"])
    argv = ["verify", "ksat-mt", str(path), "--suite", "witness", "--runs", "200", "--seed", "1",
            "--json", str(tmp_path / "out.json")]
    modules, _ = loaded_after(f"assert cli.main({argv!r}) == 0")
    solvers_loaded = {m for m in modules if m.startswith("lll_lab.solvers")}
    assert solvers_loaded == SOLVE_LOADS["ksat-mt"]
    assert {"lll_lab.analysis", "lll_lab.criteria"} <= set(modules)


def test_verify_rainbow_resamples_loads_no_numpy_random(tmp_path):
    """A K12 instance is past enumeration, so its runs take the step
    runner, and its runs walk in blocks: no run builds a numpy
    ``Generator``, so ``numpy.random`` is never loaded."""
    from lll_lab.formats import generate_colored_clique, serialize_colored_clique
    from lll_lab.rng import source_for_run

    path = tmp_path / "k12.txt"
    path.write_text(serialize_colored_clique(generate_colored_clique(6, 2, source_for_run(5, 0))))
    argv = ["verify", "rainbow", str(path), "--suite", "resamples", "--runs", "3000",
            "--seed", "3", "--json", str(tmp_path / "out.json")]
    modules, random = loaded_after(f"assert cli.main({argv!r}) == 0")
    assert "lll_lab.analysis" in modules and not random
    assert json.loads((tmp_path / "out.json").read_text())["all_pass"]


# every name ``lll_lab`` exported when it still imported its modules
# eagerly, with the module that defines it
PACKAGE_EXPORTS = {
    **dict.fromkeys(["RunReport", "SearchProblem", "Trajectory", "charge", "event_charge",
                     "recommended_strategy", "run", "validate_problem"], "lll_lab.core"),
    "LllError": "lll_lab.errors",
    **dict.fromkeys(["BacktrackChargeTable", "CliqueLllConfig", "DependencyGraph"],
                    "lll_lab.dependency"),
    **dict.fromkeys(["CriterionReport", "ShearerReport", "asymmetric_ksat_criterion",
                     "backtracking_criterion", "cluster_expansion_check", "clique_lll_check",
                     "commutative_backtracking_criterion", "counting_bound",
                     "general_lll_check", "shearer_polynomials"], "lll_lab.criteria"),
}


@pytest.mark.parametrize("package,name,home", [
    *[("lll_lab", name, home) for name, home in PACKAGE_EXPORTS.items()],
    *[("lll_lab.solvers", name, None) for name in solvers.__all__],
])
def test_public_names_are_their_defining_modules_objects(package, name, home):
    exported = getattr(importlib.import_module(package), name)
    defining = importlib.import_module(exported.__module__)
    assert getattr(defining, name) is exported
    if home is not None:
        assert exported.__module__ == home
    else:
        assert exported.__module__.startswith("lll_lab.solvers.")
    assert name in dir(importlib.import_module(package))


def test_criteria_still_holds_the_moved_declarations():
    from lll_lab import criteria, dependency

    for name in ("BacktrackChargeTable", "CliqueLllConfig", "DependencyGraph"):
        assert getattr(criteria, name) is getattr(dependency, name)


def test_an_unknown_package_name_is_an_attribute_error():
    for package in (lll_lab, solvers):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            package.no_such_name  # noqa: B018
