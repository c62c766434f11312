"""Acyclic edge coloring: backtracking solver, clique-certified resampler."""

import math
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lll_lab.core import LllError, run, validate_problem
from lll_lab.criteria import backtracking_criterion, clique_lll_check
from lll_lab.rng import source_for_run
from lll_lab.solvers import GraphInstance, aec_backtrack, aec_clique_mt
from lll_lab.solvers.aec import (
    GOLDEN,
    _cycle_order_from,
    aec_backtracking_criterion,
    aec_charge_table,
    bichromatic_cycle_through,
    clique_constant_optimum,
    coloring_is_acyclic,
    enumerate_even_cycles,
    enumerate_two_paths,
    four_available,
    golden_section_minimum,
    random_bounded_degree_graph,
)

UNCOLORED = -1


def coloring_is_proper(g, coloring):
    """No two colored edges at a vertex share a color."""
    for ids in g.incident():
        used = [coloring[e] for e in ids if coloring[e] != UNCOLORED]
        if len(used) != len(set(used)):
            return False
    return True


def k4():
    return GraphInstance.from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def triangle():
    return GraphInstance.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])


# ---------------------------------------------------------------------------
# structure helpers


def test_even_cycle_enumeration_k4():
    cycles = enumerate_even_cycles(k4())
    assert len(cycles) == 3  # the three 4-cycles
    assert all(len(c) == 4 for c in cycles)


def test_two_paths_k4():
    paths = enumerate_two_paths(k4())
    assert len(paths) == 12  # 4 vertices x C(3,2)


def test_bichromatic_cycle_detector():
    g = k4()
    # edges sorted: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) -> ids 0..5
    # color the 4-cycle 0-1-2-3-0 alternately: edges (0,1),(1,2),(2,3),(0,3)
    coloring = [0, UNCOLORED, 1, 1, UNCOLORED, 0]
    cyc = bichromatic_cycle_through(g, coloring, 0, 1)
    assert cyc is not None and sorted(cyc) == [0, 2, 3, 5]
    assert bichromatic_cycle_through(g, coloring, 0, 2) is None


def test_four_available_count():
    g = k4()
    blank = [UNCOLORED] * 6
    avail = four_available(g, blank, 0, 9)
    assert len(avail) == 9
    delta = g.max_degree()
    # after properly coloring everything around, at least q - 2(maxdeg-1)
    coloring = [UNCOLORED, 0, 1, 2, 3, 4]
    avail = four_available(g, coloring, 0, 9)
    assert len(avail) >= 9 - 2 * (delta - 1)


def full_walk_four_available(g, coloring, edge_id, q):
    """Reference: the earlier definition, which walks the whole
    bichromatic path through the edge for every candidate color."""
    incident = g.incident()
    (u, v) = g.edges[edge_id]
    forbidden = {coloring[ei] for ei in incident[u] + incident[v] if coloring[ei] != UNCOLORED}
    out = []
    test = list(coloring)
    for c in (c for c in range(q) if c not in forbidden):
        test[edge_id] = c
        if not any(
            ei != edge_id and coloring[ei] != UNCOLORED
            and len(bichromatic_cycle_through(g, test, edge_id, coloring[ei]) or ()) == 4
            for ei in incident[u]
        ):
            out.append(c)
    return out


def test_four_available_drops_four_cycle_closer():
    # edges of K4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3); 1-2-3-0 colored 1, 0, 1
    coloring = [UNCOLORED, UNCOLORED, 1, 1, UNCOLORED, 0]
    assert four_available(k4(), coloring, 0, 5) == [2, 3, 4]
    assert full_walk_four_available(k4(), coloring, 0, 5) == [2, 3, 4]


@st.composite
def acyclic_partial_colorings(draw):
    """A dense graph of max degree 3 and a proper partial coloring of it
    with no bichromatic cycle, built by coloring edges one at a time.
    Some graphs hold a planted 6- or 8-cycle whose edges but the last
    alternate colors 0 and 1, so coloring that edge can close a
    bichromatic cycle, which random colorings seldom allow."""
    n = draw(st.integers(4, 8))
    length = draw(st.sampled_from([0] + [k for k in (6, 8) if k <= n]))
    cycle = [(a, (a + 1) % length) for a in range(length)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    deg = [2 if a < length else 0 for a in range(n)]
    edges = list(cycle)
    for (a, b) in pairs:
        if deg[a] < 3 and deg[b] < 3 and (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    g = GraphInstance.from_edge_list(n, edges)
    q = draw(st.integers(2, 5))
    coloring = [UNCOLORED] * len(edges)
    for k, (a, b) in enumerate(cycle[:-1]):
        coloring[g.edges.index((min(a, b), max(a, b)))] = k % 2
    for ei in draw(st.permutations(range(len(edges)))):
        if coloring[ei] != UNCOLORED:
            continue
        coloring[ei] = draw(st.integers(UNCOLORED, q - 1))
        if not coloring_is_acyclic(g, coloring):
            coloring[ei] = UNCOLORED
    return g, q, coloring


@settings(max_examples=300, deadline=None)
@given(case=acyclic_partial_colorings())
def test_four_available_matches_full_walk(case):
    """Same list on every edge, colored or not, of an acyclic partial coloring."""
    g, q, coloring = case
    for ei in range(len(g.edges)):
        want = full_walk_four_available(g, coloring, ei, q)
        assert four_available(g, coloring, ei, q) == want
        event("colored edge" if coloring[ei] != UNCOLORED else "uncolored edge")
        (u, v) = g.edges[ei]
        nearby = {coloring[e] for e in g.incident()[u] + g.incident()[v]}
        if want != [c for c in range(q) if c not in nearby]:
            event("a color closes a 4-cycle")


def acyclic_by_definition(g, coloring):
    """Reference: the coloring is proper, and no even cycle of the graph
    alternates two distinct colors."""
    if not coloring_is_proper(g, coloring):
        return False
    for cyc in enumerate_even_cycles(g):
        ordered = _cycle_order_from(g, cyc, cyc[0])
        evens = {coloring[e] for e in ordered[::2]}
        odds = {coloring[e] for e in ordered[1::2]}
        if len(evens) == len(odds) == 1 and evens != odds and UNCOLORED not in evens | odds:
            return False
    return True


@st.composite
def colorings_to_validate(draw):
    """A graph of max degree at most 4 and a coloring with at most 5 colors:
    any coloring (rarely proper), a proper one, or a proper one around a
    planted bichromatic even cycle, which random colorings almost never
    hold."""
    n = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["any", "proper", "planted"]))
    length = draw(st.sampled_from([k for k in (4, 6, 8) if k <= n])) if kind == "planted" else 0
    edges = [(a, (a + 1) % length) for a in range(length)]
    deg = [2 if a < length else 0 for a in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for (a, b) in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        if deg[a] < 4 and deg[b] < 4 and (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    g = GraphInstance.from_edge_list(n, edges)
    q = draw(st.integers(2, 5))
    coloring = [UNCOLORED] * len(g.edges)
    if kind == "any":
        return g, [draw(st.integers(UNCOLORED, q - 1)) for _ in g.edges]
    if kind == "planted":
        pair = draw(st.permutations(range(q)))[:2]
        for k, (a, b) in enumerate(edges[:length]):
            coloring[g.edges.index((min(a, b), max(a, b)))] = pair[k % 2]
    for ei in draw(st.permutations(range(len(g.edges)))):
        if coloring[ei] != UNCOLORED:
            continue
        (u, v) = g.edges[ei]
        near = {coloring[e] for e in g.incident()[u] + g.incident()[v]}
        coloring[ei] = draw(st.sampled_from(
            [UNCOLORED] + [c for c in range(q) if c not in near]))
    return g, coloring


@settings(max_examples=400, deadline=None)
@given(case=colorings_to_validate())
def test_acyclic_check_matches_the_definition(case):
    g, coloring = case
    want = acyclic_by_definition(g, coloring)
    assert coloring_is_acyclic(g, coloring) == want
    if not coloring_is_proper(g, coloring):
        event("improper")
    else:
        event("acyclic" if want else "proper with a bichromatic cycle")


def test_acyclic_check_walks_no_cycle_through_an_edge(monkeypatch):
    """Validating an ``aec-backtrack`` output on a 449-edge ``gen graph``
    instance makes no ``bichromatic_cycle_through`` call."""
    import lll_lab.solvers.aec as aec
    from lll_lab.build import SOLVERS
    from lll_lab.formats import generate_graph

    g = generate_graph(300, 3, source_for_run(1, 0), 449)
    assert len(g.edges) == 449
    p = aec_backtrack(g, 9)
    rep = run(p, "lowest_index", seed=1)
    assert rep.terminated

    def walked(*args):
        raise AssertionError("validation walked a cycle through an edge")

    monkeypatch.setattr(aec, "bichromatic_cycle_through", walked)
    assert SOLVERS["aec-backtrack"].valid(p, rep.final_state)


def unfiltered_outcome(g, state, edge_id, color):
    """Reference: the earlier step outcome, which walks every color at the
    edge's lower endpoint, whether or not the other endpoint holds it."""
    test = list(state)
    test[edge_id] = color
    (u, v) = g.edges[edge_id]
    nearby = {test[ei] for ei in g.incident()[u] if ei != edge_id and test[ei] != UNCOLORED}
    cycles = [cyc for cyc in (bichromatic_cycle_through(g, test, edge_id, c2) for c2 in nearby)
              if cyc is not None and len(cyc) >= 6]
    if cycles:
        for ei in min(cycles, key=lambda path: tuple(sorted(path)))[:-2]:
            test[ei] = UNCOLORED
    return tuple(test)


class Pick:
    """A random source whose draws all return index ``k``."""

    def __init__(self, k):
        self.k = k

    def randint(self, n):
        return self.k


@settings(max_examples=300, deadline=None)
@given(case=acyclic_partial_colorings())
def test_outcome_walks_only_colors_held_at_both_ends(case):
    """Each uncolored edge, colored with each color the solver can draw,
    ends in the same state as under the unfiltered walks."""
    g, q, coloring = case
    q = max(q, 2 * g.max_degree() - 1)  # the smallest palette the solver takes
    p = aec_backtrack(g, q)
    state = tuple(coloring)
    for ei in p.present_flaws(state):
        avail = four_available(g, state, ei, q)
        for k, color in enumerate(avail):
            got = p.sample_action(ei, state, Pick(k))
            assert got == unfiltered_outcome(g, state, ei, color)
            if got[ei] == UNCOLORED:
                event("a cycle closes")


# ---------------------------------------------------------------------------
# backtracking solver


def test_aec_backtrack_rejects_small_palette():
    with pytest.raises(LllError, match="no guaranteed available color"):
        aec_backtrack(k4(), 4)  # needs q > 2(maxdeg-1) = 4


def test_triangle_colors_without_backtracking():
    p = aec_backtrack(triangle(), 9)
    for seed in range(20):
        rep = run(p, "lowest_index", seed=seed, record_trajectory=True)
        assert rep.terminated and rep.steps == 3  # no even cycles at all
        assert coloring_is_acyclic(triangle(), rep.final_state)


def test_aec_backtrack_k4():
    g = k4()
    p = aec_backtrack(g, 9)
    for seed in range(30):
        rep = run(p, "lowest_index", seed=seed)
        assert rep.terminated
        assert all(c != UNCOLORED for c in rep.final_state)
        assert coloring_is_acyclic(g, rep.final_state)


def six_cycle():
    return GraphInstance.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])


def test_validate_aec_backtrack_affects():
    """A step that leaves edge i colored changes only flaw i; one that
    closes the bichromatic 6-cycle uncolors four edges, so ``(i,)`` alone
    does not cover it."""
    p = aec_backtrack(six_cycle(), 3)
    assert p.enumerate_states is not None
    validate_problem(p)
    narrow = replace(p, affects=lambda i, s: (i,))
    with pytest.raises(LllError, match="affects cover violated: flaw 0 changes 2"):
        validate_problem(narrow)


def test_aec_backtrack_random_graphs():
    rng = source_for_run(5150, 0)
    for trial in range(8):
        g = random_bounded_degree_graph(14, 3, rng)
        p = aec_backtrack(g, 9)
        rep = run(p, "lowest_index", seed=trial, max_steps=10**5)
        assert rep.terminated
        assert coloring_is_acyclic(g, rep.final_state)


def test_golden_weight_is_optimal():
    """psi = 1/(g (maxdeg-1)) minimizes g + 1/(g(g^2-1)), met at the
    golden ratio with value exactly 2."""
    f = lambda x: x + 1.0 / (x * (x * x - 1.0))
    x, val = golden_section_minimum(f, 1.01, 10.0, tol=1e-10)
    assert abs(x - GOLDEN) < 1e-6
    assert abs(val - 2.0) < 1e-12
    assert abs(f(GOLDEN) - 2.0) < 1e-12


def test_aec_criterion_closed_form():
    g = k4()  # maxdeg 3
    rep = aec_backtracking_criterion(g, 9)
    # Q = 5, c = 2.5 > 2: zeta <= 2/c = 0.8
    assert rep["pass"]
    assert rep["zeta"] <= 0.8 + 1e-9
    worse = aec_backtracking_criterion(g, 8)  # c = 2 exactly: zeta = 1
    assert not worse["pass"]


def test_aec_criterion_hfree_refinement():
    """A cycle bound beta * maxdeg^(len-2-delta) shrinks the series at
    large degree, where maxdeg^-delta beats the (maxdeg-1)^(len-2) count."""
    delta = 20
    g = GraphInstance.from_edge_list(delta + 1, [(0, j) for j in range(1, delta + 1)])
    q = 4 * (delta - 1) + 1
    loose = aec_backtracking_criterion(g, q)
    tight = aec_backtracking_criterion(
        g, q, cycle_bound=lambda length: 0.5 * float(delta) ** (length - 2 - 1.0)
    )
    assert tight["zeta"] < loose["zeta"]
    assert tight["pass"]


def test_aec_charge_table_matches_criterion():
    """Exact table evaluation on K_4 stays below the generic closed form
    (K_4 has only 4-cycles, which the solver never closes)."""
    g = k4()
    table = aec_charge_table(g, 9)
    psi = 1.0 / (GOLDEN * 2.0)
    rep = backtracking_criterion(table, {v: psi for v in table.variables})
    closed = aec_backtracking_criterion(g, 9)
    assert rep.passed
    assert max(float(v) for v in rep.values) <= closed["zeta"] + 1e-9
    # K_4: only 4-cycles exist, so the exact tables carry just gamma_empty
    for v in table.variables:
        assert set(table.entries[v]) == {frozenset()}


def test_aec_charge_table_six_cycle():
    """On the 6-cycle graph, each edge lies on exactly one 6-cycle, so one
    introduced set of size 4 appears per edge with charge 1/Q."""
    g = GraphInstance.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    q = 7  # maxdeg 2 -> Q = 5
    table = aec_charge_table(g, q)
    for v in table.variables:
        rows = table.entries[v]
        sized = [s for s in rows if s]
        assert len(sized) == 1
        assert len(next(iter(sized))) == 4
        assert abs(rows[next(iter(sized))] - 1.0 / 5.0) < 1e-12


# ---------------------------------------------------------------------------
# clique-certified resampler


def test_clique_constant_optimum():
    opt, eps, c = clique_constant_optimum()
    assert 0 < c < eps
    assert abs(opt - 9.6962) < 2e-3
    # direct substitution of the historically quoted pair does not give 8.59
    a = (2 / 0.8282) * (1 + 2.05869) * 2.05869 / (2.05869 - 0.8282)
    assert a > 12.0
    # the cycle-length family peaks at length 4 at the optimum
    for ln in range(4, 24, 2):
        l = ln // 2
        term = (1 + eps) ** (l / (2 * l - 2)) * c ** (-1 / (2 * l - 2)) * (
            eps / (eps - c)
        ) ** ((2 * l - 1) / (2 * l - 2))
        assert term <= opt + 1e-6


def test_aec_clique_mt_config_passes_at_optimum_palette():
    g = k4()
    opt, _, _ = clique_constant_optimum()
    q = math.ceil(opt * (g.max_degree() - 1))
    problem, cfg = aec_clique_mt(g, q)
    rep = clique_lll_check(list(problem.declared_charges), cfg)
    assert rep.passed


def test_aec_clique_mt_warns_below_threshold():
    g = k4()
    messages = []
    problem, cfg = aec_clique_mt(g, 9, warn=messages.append)
    assert messages and "below" in messages[0]


def test_aec_clique_mt_runs_to_valid_output():
    g = k4()
    problem, _ = aec_clique_mt(g, 20)
    for seed in range(20):
        rep = run(problem, "lowest_index", seed=seed, max_steps=10**5)
        assert rep.terminated
        assert coloring_is_acyclic(g, rep.final_state)


def test_aec_clique_mt_path_graph_reduces_to_proper():
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    problem, _ = aec_clique_mt(g, 6)
    assert problem.metadata["num_paths"] == problem.num_flaws  # no cycles
    rep = run(problem, "lowest_index", seed=1)
    assert rep.terminated
    assert coloring_is_proper(g, rep.final_state)


def test_aec_clique_mt_declared_charges_match_enumeration():
    """Path-flaw charge 1/q and 4-cycle charge q(q-1)/q^4 against exact
    enumeration on a 4-cycle graph with q = 3."""
    from lll_lab.core import all_charges

    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    problem, _ = aec_clique_mt(g, 3)
    exact = all_charges(problem)
    for got, declared in zip(exact, problem.declared_charges):
        assert got <= declared + 1e-12
    # paths are exact
    for i in range(problem.metadata["num_paths"]):
        assert abs(exact[i] - 1.0 / 3.0) < 1e-12
    cyc = problem.metadata["num_paths"]
    assert abs(exact[cyc] - 3 * 2 / 81.0) < 1e-12


def test_aec_clique_mt_clique_cover_is_flaws_per_edge():
    """One clique per edge holding the flaws that contain it, in ascending
    insertion order; an edge in no path or cycle gets an empty clique."""
    from lll_lab.formats import generate_graph

    base = generate_graph(20, 3, source_for_run(4, 0), 28)
    g = GraphInstance.from_edge_list(22, list(base.edges) + [(20, 21)])
    problem, cfg = aec_clique_mt(g, 10)
    flaw_edges = enumerate_two_paths(g) + enumerate_even_cycles(g)
    want = [frozenset(i for i, es in enumerate(flaw_edges) if ei in es)
            for ei in range(len(g.edges))]
    assert problem.num_flaws == len(flaw_edges) > 200
    assert cfg.cliques[-1] == frozenset()
    assert list(cfg.cliques) == want
    assert [list(c) for c in cfg.cliques] == [list(c) for c in want]


def test_validate_aec_clique_mt_problem():
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    problem, _ = aec_clique_mt(g, 3)
    validate_problem(problem)


def test_clique_mt_paths_found_before_cycles():
    """Every present flaw is listed, cycles included, and paths have the
    lowest ids, so the lowest-index strategy addresses a path first."""
    g = GraphInstance.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    problem, _ = aec_clique_mt(g, 3)
    num_paths = problem.metadata["num_paths"]
    # edges sorted: (0,1),(0,3),(1,2),(2,3),(3,4); the 4-cycle uses the first four
    bicolored = (0, 1, 1, 0, 2)  # proper and alternating: only the cycle flaw
    assert problem.present_flaws(bicolored) == [num_paths]
    # alternating on the cycle, and the pendant edge (3,4) repeats the
    # color of (2,3) at vertex 3: path flaw 5 and cycle flaw 6 together
    both = (2, 1, 1, 2, 2)
    assert problem.present_flaws(both) == [5, num_paths]
    assert num_paths == 6
    # and so at every state: validate_problem compares the two scans
    validate_problem(problem)


def test_even_cycle_enumeration_theta_graph():
    """Two vertices joined by three length-2 paths: each pair of paths
    closes one 4-cycle."""
    g = GraphInstance.from_edge_list(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    cycles = enumerate_even_cycles(g)
    assert len(cycles) == 3
    assert all(len(c) == 4 for c in cycles)


# ---------------------------------------------------------------------------
# canonical encodings at 256 colors or more


def test_backtrack_canon_distinct_at_256_colors():
    problem = aec_backtrack(triangle(), 257)
    assert problem.canon((0, 1, 2)) != problem.canon((256, 1, 2))
    assert problem.canon((255, 1, 2)) != problem.canon((UNCOLORED, 1, 2))
    # below 255 colors every edge keeps its one-byte encoding c + 1
    assert aec_backtrack(triangle(), 255).canon((254, UNCOLORED, 0)) == bytes((255, 0, 1))


def test_clique_mt_canon_distinct_above_256_colors():
    problem, _ = aec_clique_mt(triangle(), 257)
    assert problem.canon((0, 1, 2)) != problem.canon((256, 1, 2))
    assert aec_clique_mt(triangle(), 256)[0].canon((255, 0, 1)) == bytes((255, 0, 1))


def test_canon_refuses_more_colors_than_two_bytes_hold():
    with pytest.raises(LllError, match="two-byte canonical encoding"):
        aec_backtrack(triangle(), 1 << 16)
