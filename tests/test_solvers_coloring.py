"""Greedy vertex coloring: charge, repair cap, commutativity, weights."""

import pytest

from lll_lab.core import LllError, all_charges, run, validate_problem, recommended_strategy
from lll_lab.solvers import GraphInstance, WeightSpec, vertex_coloring_greedy
from lll_lab.solvers.coloring import (
    ball,
    coloring_is_proper_vertex,
    local_weight_bound,
    matchings_of,
)
from lll_lab.witness import check_commutativity


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return GraphInstance.from_edge_list(10, outer + inner + spokes)


def path(n):
    return GraphInstance.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def test_palette_must_exceed_degree():
    with pytest.raises(LllError, match="exceed"):
        vertex_coloring_greedy(path(3), 2)


def test_charge_exact_on_cycle():
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = vertex_coloring_greedy(g, 5)
    charges = all_charges(p)
    assert all(abs(c - 1.0 / 9.0) < 1e-12 for c in charges)
    assert p.declared_charges[0] == 1.0 / (5 - 2) ** 2


def test_line_graph_square():
    """Flaws depend on each other when their edges are within distance two
    in the line graph."""
    q = 3
    adj = vertex_coloring_greedy(path(6), q).graph.adj
    # edges 0-1,1-2,2-3,3-4,4-5 -> ids 0..4; flaw (e, c) has id e * q + c
    assert 1 * q + 2 in adj[0]
    assert 2 * q in adj[0]
    assert 3 * q + 1 not in adj[0]


def test_repair_never_creates_flaws_and_caps_recolorings():
    """Each step recolors two endpoints avoiding both neighborhoods, so
    flaw counts only fall and every vertex is recolored at most once:
    n initial colorings plus at most 2 * steps <= 2n events."""
    g = petersen()
    p = vertex_coloring_greedy(g, 6)
    for seed in range(300):
        rep = run(p, seed=seed, record_trajectory=True)
        assert rep.terminated
        assert coloring_is_proper_vertex(g, rep.final_state)
        states = rep.trajectory.states()
        flaw_counts = [len(p.present_flaws(s)) for s in states]
        assert all(b < a for a, b in zip(flaw_counts, flaw_counts[1:]))
        recolor_events = g.num_vertices + 2 * rep.steps
        assert recolor_events <= 2 * g.num_vertices
        assert rep.steps <= g.num_vertices // 2
    # lighter pass over many more seeds
    for seed in range(300, 10_000):
        rep = run(p, seed=seed)
        assert rep.terminated and rep.steps <= g.num_vertices // 2
        assert coloring_is_proper_vertex(g, rep.final_state)


def test_edgeless_graph_starts_flawless():
    g = GraphInstance.from_edge_list(4, [])
    p = vertex_coloring_greedy(g, 3)
    rep = run(p, seed=0)
    assert rep.steps == 0 and rep.terminated


def test_commutative_on_4path_vacuous_and_6path_nonvacuous():
    p4 = vertex_coloring_greedy(path(4), 5)
    rep4 = check_commutativity(p4)
    assert rep4.commutative  # line-graph square of a 3-edge path is complete
    assert rep4.checked_pairs == 0
    p6 = vertex_coloring_greedy(path(6), 4)
    rep6 = check_commutativity(p6)
    assert rep6.commutative
    assert rep6.checked_pairs > 0


def test_validate_greedy_problem():
    validate_problem(vertex_coloring_greedy(path(4), 5))


def test_weight_spec_ball_disjointness():
    g = path(6)
    spec = WeightSpec((0, 5), {0: 2, 5: 2}, {0: lambda c: 1.0, 5: lambda c: 1.0})
    with pytest.raises(LllError, match="overlap"):
        spec.validate(g)  # radius-3 balls {0..3} and {2..5} collide
    ok = WeightSpec((0, 5), {0: 1, 5: 1}, {0: lambda c: 1.0, 5: lambda c: 1.0})
    ok.validate(g)  # radius-2 balls {0,1,2} and {3,4,5} stay apart


def test_matchings_enumeration_on_triangle():
    g = GraphInstance.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    ms = matchings_of(g)
    assert sorted(len(s) for s in ms) == [0, 1, 1, 1]


def test_priority_strategy_prefers_weighted_edges():
    g = path(5)
    spec = WeightSpec((0,), {0: 1}, {0: lambda c: float(c[0] == c[1])})
    p = vertex_coloring_greedy(g, 4, spec)
    strat = recommended_strategy(p)
    # flaws on the edge inside the ball of vertex 0 outrank the rest
    hot = p.metadata["strategy"][1][0]
    assert hot // p.metadata["q"] == 0


def test_local_weight_bound_indicator():
    """5-vertex path, single weighted vertex with an indicator function:
    the empirical mean from runs stays below r * a * E_nu."""
    g = path(5)
    q = 4
    target = {0: 1, 1: 2}

    def indicator(colors):
        return 1.0 if all(colors[v] == c for v, c in target.items()) else 0.0

    spec = WeightSpec((0,), {0: 1}, {0: indicator})
    p = vertex_coloring_greedy(g, q, spec)
    from lll_lab.analysis import coloring_weight_analysis

    report = coloring_weight_analysis(p, runs=4000, seed=3)
    assert report["all_pass"]
