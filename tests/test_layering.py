"""The package's import graph runs one way.

Each module of ``src/lll_lab`` is parsed with ``ast``, not imported.  Its
module-level imports of package modules (under ``if`` and ``try`` blocks
too) must form a DAG, so no module needs a function-level import to break
a cycle; function-level package imports are left only where a command
loads a later layer on use.  Oracle mode has one entry: only
``core`` enumerates a problem's states.
"""

import ast
import graphlib
from pathlib import Path

import lll_lab

PACKAGE = Path(lll_lab.__file__).resolve().parent
# function-level package imports allowed, as module -> (function, target),
# None for any: only the CLI, which loads each command's layer on dispatch
ON_USE = {"lll_lab.cli": None}


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
    assert "lll_lab.solvers" in SCANS["lll_lab.build"][0]
    assert "lll_lab.solvers.variables" in SCANS["lll_lab.solvers.ksat"][0]
    assert ("_solve_rainbow_partial", "lll_lab.analysis") in SCANS["lll_lab.cli"][1]
    graph = {module: top for module, (top, _, _) in SCANS.items()}
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
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


def test_function_level_package_imports_only_on_use():
    stray = [(module, function, target)
             for module, (_, deferred, _) in SCANS.items()
             for function, target in deferred
             if module not in ON_USE or ON_USE[module] not in (None, (function, target))]
    assert stray == []


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
