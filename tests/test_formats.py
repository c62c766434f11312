"""Instance formats round-trip, criteria JSON parses, and generators
produce valid instances."""

import pytest

from lll_lab.core import LllError
from lll_lab.formats import (
    generate_colored_clique,
    generate_graph,
    generate_ksat,
    parse_colored_clique,
    parse_criteria_json,
    parse_dimacs,
    parse_graph,
    serialize_colored_clique,
    serialize_dimacs,
    serialize_graph,
)
from lll_lab.rng import source_for_run


def test_dimacs_roundtrip_fixpoint():
    text = "c comment\np cnf 4 2\n1 -2 4 0\n-1 3 0\n"
    cnf = parse_dimacs(text)
    once = serialize_dimacs(cnf)
    again = serialize_dimacs(parse_dimacs(once))
    assert once == again
    assert cnf.num_vars == 4 and len(cnf.clauses) == 2


def test_dimacs_rejects_malformed():
    with pytest.raises(LllError, match="header"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(LllError, match="unterminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(LllError, match="declares"):
        parse_dimacs("p cnf 2 5\n1 2 0\n")
    with pytest.raises(LllError, match="literal"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


def test_graph_roundtrip_fixpoint():
    text = "4 3\n0 1\n2 3\n1 2\n"
    g = parse_graph(text)
    once = serialize_graph(g)
    assert serialize_graph(parse_graph(once)) == once
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_graph_rejects_malformed():
    with pytest.raises(LllError):
        parse_graph("")
    with pytest.raises(LllError, match="declares"):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(LllError, match="self-loop"):
        parse_graph("3 1\n1 1\n")
    # line numbers count the blank and comment lines before the bad one
    with pytest.raises(LllError, match="line 4"):
        parse_graph("3 1\n\n# note\n0 x\n")


def test_colored_clique_roundtrip():
    rng = source_for_run(1, 0)
    k = generate_colored_clique(3, 2, rng)
    once = serialize_colored_clique(k)
    again = serialize_colored_clique(parse_colored_clique(once))
    assert once == again


def test_colored_clique_requires_completeness():
    with pytest.raises(LllError, match="uncolored"):
        parse_colored_clique("0 1 0\n0 2 0\n0 3 1\n")  # K_4 missing edges


def test_criteria_json_parse():
    text = """
    {"m": 2, "adjacency": [[1], [0]], "gamma": [0.125, 0.125],
     "psi": [0.25, 0.25], "mode": "cluster"}
    """
    parsed = parse_criteria_json(text)
    assert parsed["m"] == 2 and parsed["mode"] == "cluster"
    assert parsed["graph"].adj == (frozenset({1}), frozenset({0}))
    assert parsed["gamma"] == [0.125, 0.125] and parsed["psi"] == [0.25, 0.25]


def test_criteria_json_backtrack_parse():
    text = """
    {"m": 0, "adjacency": [], "gamma": [], "psi": [], "mode": "backtrack",
     "backtrack": {"variables": ["x1", "x2"],
                   "charges": {"x1": [[[], 0.5], [["x1", "x2"], 0.5]],
                               "x2": [[[], 0.5], [["x1", "x2"], 0.5]]},
                   "span": ["x1", "x2"],
                   "psi": {"x1": 0.75, "x2": 0.75},
                   "lambda_init": 7.0}}
    """
    parsed = parse_criteria_json(text)
    table = parsed["backtrack_table"]
    assert table.entries["x1"][frozenset({"x1", "x2"})] == 0.5
    assert table.entries["x2"][frozenset()] == 0.5
    assert table.span == frozenset({"x1", "x2"})
    assert parsed["backtrack_psi"] == {"x1": 0.75, "x2": 0.75}
    assert parsed["lambda_init"] == 7.0


def test_generators_produce_valid_instances():
    rng = source_for_run(3, 0)
    cnf = generate_ksat(12, 5, 2, rng)
    assert cnf.degree() <= 2
    g = generate_graph(20, 3, rng)
    assert g.max_degree() <= 3
    k = generate_colored_clique(10, 2, rng)
    assert k.multiplicity() <= 2
    assert len(k.colors) == 20 * 19 // 2


def test_zero_size_instances():
    rng = source_for_run(4, 0)
    cnf = generate_ksat(0, 3, 2, rng)
    assert cnf.num_vars == 0 and cnf.clauses == ()
    assert serialize_dimacs(cnf) == "p cnf 0 0\n"
    k = generate_colored_clique(0, 2, rng)
    assert k.num_vertices == 0
