"""Instance file formats and generators.

The instance formats round-trip: parse(serialize(parse(text))) equals
parse(text).
 - CNF: DIMACS ("p cnf <vars> <clauses>", clauses end with 0)
 - graph: "<n> <m>" header then one "u v" line per edge, 0-indexed
 - edge-colored clique: one "u v color" line per edge of the clique
Criteria descriptions are JSON {m, adjacency, gamma, psi, mode, ...},
and bias files a JSON list of per-variable [p0, p1] pairs; both are only
read, and a malformed field is refused by name, as is a number that is
not finite.

Each parser and generator loads its family's solver module when it is
called, so a command loads only the family it reads.
"""

from __future__ import annotations

import json
import math

from .dependency import BacktrackChargeTable, DependencyGraph
from .errors import LllError
from .rng import RandomSource


def _ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise LllError(f"bad {what}: expected integers, got {' '.join(tokens)!r}") from None


# ---------------------------------------------------------------------------
# DIMACS


def parse_dimacs(text: str) -> CnfInstance:
    from .solvers.ksat import CnfInstance

    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise LllError(f"line {lineno}: bad DIMACS header")
            num_vars, declared_clauses = _ints(parts[2:], f"DIMACS header on line {lineno}")
            continue
        if num_vars is None:
            raise LllError(f"line {lineno}: clause before DIMACS header")
        for lit in _ints(line.split(), f"literal on line {lineno}"):
            if lit == 0:
                if not current:
                    raise LllError(f"line {lineno}: empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise LllError("unterminated clause at end of file")
    if num_vars is None:
        raise LllError("missing DIMACS header")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise LllError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance(num_vars, tuple(clauses))


def serialize_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graphs


def parse_graph(text: str) -> GraphInstance:
    from .solvers.aec import GraphInstance

    rows = [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#")]
    if not rows:
        raise LllError("empty graph file")
    head = rows[0][1].split()
    if len(head) != 2:
        raise LllError("graph header must be 'n m'")
    n, m = _ints(head, "graph header")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise LllError(f"line {lineno}: edge line must be 'u v'")
        u, v = _ints(parts, f"edge on line {lineno}")
        edges.append((u, v) if u <= v else (v, u))
    if len(edges) != m:
        raise LllError(f"header declares {m} edges, found {len(edges)}")
    edges.sort()
    return GraphInstance(n, tuple(edges))


def serialize_graph(g: GraphInstance) -> str:
    lines = [f"{g.num_vertices} {len(g.edges)}"]
    for (u, v) in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# edge-colored cliques


def parse_colored_clique(text: str) -> EdgeColoredClique:
    from .solvers.matchings import EdgeColoredClique

    colors: dict = {}
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise LllError(f"line {lineno}: expected 'u v color'")
        u, v, c = _ints(parts, f"edge on line {lineno}")
        if u == v:
            raise LllError(f"line {lineno}: self-loop")
        key = (min(u, v), max(u, v))
        if key in colors:
            raise LllError(f"line {lineno}: duplicate edge {key}")
        colors[key] = c
        max_v = max(max_v, u, v)
    if not colors:
        raise LllError("colored-clique file has no edges")
    return EdgeColoredClique(max_v + 1, colors)


def serialize_colored_clique(k: EdgeColoredClique) -> str:
    lines = [f"{u} {v} {k.colors[(u, v)]}" for (u, v) in k.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON inputs


def _finite(token: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float, refused
    unless finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _load_json(text: str, what: str):
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise LllError(f"{what} is not valid JSON: {exc}") from None


def _convert(what: str, convert, value):
    """``convert(value)``, refused with an error naming the field ``what``
    when the value has the wrong shape or type."""
    try:
        return convert(value)
    except KeyError as exc:
        raise LllError(f"bad {what}: missing {exc}") from None
    except (IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise LllError(f"bad {what}: {exc}") from None


def parse_criteria_json(text: str) -> dict:
    data = _load_json(text, "criteria file")
    if not isinstance(data, dict) or "m" not in data:
        raise LllError("criteria JSON needs 'm'")
    m = _convert("criteria field 'm'", int, data["m"])
    adjacency = data.get("adjacency", [[] for _ in range(m)])
    if _convert("criteria field 'adjacency'", len, adjacency) != m:
        raise LllError("adjacency must list neighbors for each flaw")
    graph = _convert("criteria field 'adjacency'", DependencyGraph.from_neighbor_lists, adjacency)
    floats = lambda xs: [float(x) for x in xs]
    out = {
        "m": m,
        "graph": graph,
        "gamma": _convert("criteria field 'gamma'", floats, data.get("gamma", [])),
        "psi": _convert("criteria field 'psi'", floats, data.get("psi", [])),
        "mode": data.get("mode", "general"),
    }
    if "cliques" in data:
        out["cliques"] = _convert("criteria field 'cliques'", lambda cls: [
            sorted(int(i) for i in cl) for cl in cls], data["cliques"])
        out["x"] = _convert("criteria field 'x'", lambda x: {
            tuple(map(int, k.split(","))): float(v) for k, v in x.items()}, data.get("x", {}))
    if "backtrack" in data:
        out.update(_convert("criteria field 'backtrack'", _backtrack_block, data["backtrack"]))
    return out


def _backtrack_block(bt: dict) -> dict:
    variables = tuple(bt["variables"])
    entries = {
        v: {frozenset(s): float(gv) for (s, gv) in ((tuple(e[0]), e[1]) for e in rows)}
        for v, rows in bt["charges"].items()
    }
    span = frozenset(bt.get("span", variables))
    return {"backtrack_table": BacktrackChargeTable(variables, entries, span),
            "backtrack_psi": {k: float(v) for k, v in bt["psi"].items()},
            "lambda_init": bt.get("lambda_init")}


def parse_bias_json(text: str) -> list[list[float]]:
    """Per-variable ``[p0, p1]`` pairs of the biased backtracking solver."""
    data = _load_json(text, "bias file")
    if not isinstance(data, list) or any(not isinstance(p, list) or len(p) != 2 for p in data):
        raise LllError("bias file must list one [p0, p1] pair per variable")
    return _convert("bias file", lambda ps: [[float(p0), float(p1)] for p0, p1 in ps], data)


# ---------------------------------------------------------------------------
# generators


def generate_ksat(n: int, k: int, degree: int, rng: RandomSource) -> CnfInstance:
    from .solvers.ksat import random_bounded_degree_cnf

    return random_bounded_degree_cnf(n, k, degree, rng)


def generate_graph(n: int, max_degree: int, rng: RandomSource,
                   edges: int | None = None) -> GraphInstance:
    from .solvers.aec import random_bounded_degree_graph

    return random_bounded_degree_graph(n, max_degree, rng, edges)


def generate_colored_clique(n: int, multiplicity: int, rng: RandomSource) -> EdgeColoredClique:
    """K_{2n} with each color on at most ``multiplicity`` edges: shuffle
    the edges and color them in blocks."""
    from .solvers.matchings import EdgeColoredClique

    n2 = 2 * n
    if multiplicity < 1 and n > 0:
        raise LllError("multiplicity must be at least 1")
    edges = [(u, v) for u in range(n2) for v in range(u + 1, n2)]
    rng.shuffle(edges)
    colors = {}
    for idx, e in enumerate(edges):
        colors[e] = idx // multiplicity
    return EdgeColoredClique(n2, colors)
