"""Criterion checkers against brute-force enumeration and closed forms."""

import functools
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_lab import criteria
from lll_lab.analysis import problem_charges, problem_weights
from lll_lab.build import build_problem
from lll_lab.core import LllError
from lll_lab.criteria import (
    BacktrackChargeTable,
    CliqueLllConfig,
    DependencyGraph,
    asymmetric_ksat_criterion,
    backtracking_criterion,
    cluster_expansion_check,
    clique_lll_check,
    commutative_backtracking_criterion,
    counting_bound,
    general_lll_check,
    independent_weight_sum,
    neighborhood_sums,
    realizable_set_charge,
    shearer_polynomials,
    subset_product_sum,
)
from lll_lab.formats import (
    generate_colored_clique,
    generate_graph,
    generate_ksat,
    serialize_dimacs,
    serialize_graph,
)
from lll_lab.rng import source_for_run
from lll_lab.solvers import aec_clique_mt, ksat_mt, rainbow_matching, vertex_coloring_greedy
from lll_lab.solvers.aec import enumerate_even_cycles, enumerate_two_paths

from graphs import from_edges


def brute_subset_sum(indices, psi):
    total = 0
    for r in range(len(indices) + 1):
        for combo in itertools.combinations(indices, r):
            prod = 1
            for j in combo:
                prod *= psi[j]
            total += prod
    return total


def brute_independent_sum(vertices, graph, psi):
    total = 0
    for r in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            if all(b not in graph.adj[a] for a, b in itertools.combinations(combo, 2)):
                prod = 1
                for j in combo:
                    prod *= psi[j]
                total += prod
    return total


def brute_shearer(gamma, graph):
    m = graph.m
    vertices = list(range(m))
    independents = [
        frozenset(c)
        for r in range(m + 1)
        for c in itertools.combinations(vertices, r)
        if all(b not in graph.adj[a] for a, b in itertools.combinations(c, 2))
    ]
    q = {}
    for s in independents:
        acc = 0
        for i_set in independents:
            if s <= i_set:
                prod = 1
                for j in i_set:
                    prod *= gamma[j]
                acc += (-1) ** (len(i_set) - len(s)) * prod
        q[s] = acc
    return q


def random_graph(m, rng, p=0.4, self_loops=True):
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < p]
    loops = [i for i in range(m) if self_loops and rng.random() < 0.5]
    return from_edges(m, edges, loops)


# ---------------------------------------------------------------------------
# subset and independent-set sums


def test_closed_form_subset_sum_is_exact():
    rng = random.Random(1)
    for m in (1, 5, 10, 15):
        psi = [Fraction(rng.randint(1, 9), 10) for _ in range(m)]
        assert subset_product_sum(range(m), psi) == brute_subset_sum(range(m), psi)


def test_independent_sum_matches_brute_force():
    rng = random.Random(2)
    for m in range(1, 9):
        g = random_graph(m, rng)
        psi = [Fraction(rng.randint(1, 9), 10) for _ in range(m)]
        got = independent_weight_sum(range(m), g.adj, psi)
        assert got == brute_independent_sum(range(m), g, psi)


def test_neighborhood_cap_error():
    m = 30
    g = from_edges(m, [(0, j) for j in range(1, m)])
    with pytest.raises(LllError, match="neighborhood too large"):
        neighborhood_sums(g, [0.1] * m, [0])


@st.composite
def weighted_graphs(draw):
    """A graph with self-loops, exact weights of either sign, a vertex
    subset in any order, and the adjacency and weights as a dict or as
    sequences."""
    m = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = from_edges(m, [e for e in pairs if draw(st.booleans())],
                                   [i for i in range(m) if draw(st.booleans())])
    psi = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in range(m)]
    subset = draw(st.lists(st.integers(0, m - 1), unique=True))
    if draw(st.booleans()):
        return g, psi, subset, dict(enumerate(g.adj)), dict(enumerate(psi))
    return g, psi, subset, g.adj, psi


@settings(max_examples=300, deadline=None)
@given(case=weighted_graphs())
def test_memoized_sum_equals_enumeration(case):
    """The memoized sum over a subset, and every neighborhood's sum, or
    its part in the subset, through one memo, equal the brute-force sum
    over independent subsets exactly."""
    g, psi, subset, adjacency, weights = case
    assert independent_weight_sum(subset, adjacency, weights) == brute_independent_sum(
        subset, g, psi)
    assert neighborhood_sums(g, psi) == [brute_independent_sum(sorted(g.adj[i]), g, psi)
                                         for i in range(g.m)]
    assert neighborhood_sums(g, psi, within=subset) == [
        brute_independent_sum(sorted(g.adj[i] & set(subset)), g, psi) for i in range(g.m)]


def load_workloads(monkeypatch):
    """The benchmark's instance generators, read from ``perfbench/``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def test_cluster_check_evaluates_each_residual_mask_once(monkeypatch):
    """On the benchmark's K12 rainbow instance (seed 11), the check runs
    every neighborhood through one memo: each residual mask is evaluated
    once, fewer in all than one memo per neighborhood evaluates, and each
    zeta is the one its neighborhood's own sum gives."""
    text = load_workloads(monkeypatch).relabeled_clique(random.Random(11), 12, 2)
    problem = build_problem({"solver": "rainbow", "instance_text": text})
    charges = problem_charges(problem)
    psi = problem_weights(problem, None, "the rainbow solver prewires its weights")
    memos = []

    def counted_cache(rec):
        memos.append(evaluated := [])
        return functools.cache(lambda mask: evaluated.append(mask) or rec(mask))

    monkeypatch.setattr(criteria, "functools", SimpleNamespace(cache=counted_cache))
    rep = cluster_expansion_check(charges, problem.graph, psi)
    assert rep.passed and len(memos) == 1
    (shared,) = memos
    assert len(shared) == len(set(shared))
    zetas = [independent_weight_sum(problem.graph.adj[i], problem.graph.adj, psi)
             for i in range(problem.num_flaws)]
    assert rep.details["zeta"] == zetas
    assert len(shared) < sum(map(len, memos[1:]))


# ---------------------------------------------------------------------------
# general condition


def test_general_certain_flaw_fails():
    g = from_edges(1, [])
    for psi in (0.1, 1.0, 7.3):
        rep = general_lll_check([1.0], g, [psi])
        assert not rep.passed
        assert rep.values[0] > 1.0


@pytest.mark.parametrize("check", [general_lll_check, cluster_expansion_check])
@pytest.mark.parametrize("w", [math.inf, math.nan])
def test_weights_that_are_not_finite_refused(check, w):
    """An infinite weight made every value NaN (inf / inf), and the report FAIL."""
    with pytest.raises(LllError, match="^weights must be positive and finite$"):
        check([0.1, 0.1], from_edges(2, [(0, 1)]), [w, w])


def test_general_isolated_flaw():
    g = from_edges(1, [], self_loops=[0])
    rep = general_lll_check([0.25], g, [1.0])
    assert rep.passed
    assert abs(rep.values[0] - 0.5) < 1e-12


def test_general_symmetric_ksat_table():
    """ratio = 2^-k d (1 + 1/d)^(d+1), cross-checked against the
    x(1-x)^d form with x = psi/(1+psi)."""
    for k in (3, 5):
        for d in (2, 4, 8):
            gamma = 2.0 ** -k
            psi = 1.0 / d
            g = from_edges(d + 1, [(0, j) for j in range(1, d + 1)])
            rep = general_lll_check([gamma] * (d + 1), g, [psi] * (d + 1))
            expected = gamma * d * (1 + 1.0 / d) ** (d + 1)
            assert abs(rep.values[0] - expected) < 1e-12
            x = psi / (1 + psi)
            assert (rep.values[0] < 1) == (gamma < x * (1 - x) ** d + 1e-15)


# ---------------------------------------------------------------------------
# cluster expansion


def test_cluster_no_neighborhood():
    g = from_edges(1, [])
    rep = cluster_expansion_check([0.3], g, [0.3])
    assert rep.passed
    assert abs(rep.details["zeta"][0] - 1.0) < 1e-12


def test_cluster_clique_neighborhood():
    m = 5
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = from_edges(m, edges)
    psi = [0.2, 0.3, 0.1, 0.25, 0.15]
    rep = cluster_expansion_check([0.01] * m, g, psi)
    for i in range(m):
        expected = 1 + sum(psi[j] for j in g.adj[i])
        assert abs(rep.details["zeta"][i] - expected) < 1e-12


def test_cluster_rainbow_closed_form():
    """n=10 rainbow instance: the neighborhood sum is bounded by
    (1 + (2n-1)(lam n - 1) psi)^4 and the charge ratio is about 0.74;
    the same expression tends to (1 + 3 lam / 2)^4 / 3 as n grows."""
    n = 10
    lam = 27.0 / 128.0
    psi = 3.0 / (4 * n * n)
    gamma = 1.0 / ((2 * n - 1) * (2 * n - 3))
    zeta_bound = (1 + (2 * n - 1) * (lam * n - 1) * psi) ** 4
    ratio = gamma * zeta_bound / psi
    assert 0.73 < ratio < 0.75
    big = 10 ** 7
    psi_b = 3.0 / (4 * big * big)
    zeta_b = (1 + (2 * big - 1) * (lam * big - 1) * psi_b) ** 4
    gamma_b = 1.0 / ((2 * big - 1) * (2 * big - 3))
    limit = gamma_b * zeta_b / psi_b
    assert abs(limit - (1 + 1.5 * lam) ** 4 / 3.0) < 1e-3
    assert abs((1 + 1.5 * lam) ** 4 / 3.0 - 1.0009) < 1e-3


def test_criteria_monotone_in_gamma():
    """Scaling every charge down never flips any checker from pass to
    fail (general, cluster, and the shearer verdict)."""
    rng = random.Random(3)
    for trial in range(30):
        m = rng.randint(1, 7)
        g = random_graph(m, rng)
        psi = [rng.uniform(0.05, 0.8) for _ in range(m)]
        gamma = [rng.uniform(0.0, 0.4) for _ in range(m)]
        smaller = [x * 0.5 for x in gamma]
        if cluster_expansion_check(gamma, g, psi).passed:
            assert cluster_expansion_check(smaller, g, psi).passed
        if general_lll_check(gamma, g, psi).passed:
            assert general_lll_check(smaller, g, psi).passed
        if shearer_polynomials(gamma, g).passed:
            assert shearer_polynomials(smaller, g).passed


def test_general_pass_implies_cluster_pass():
    """zeta_i never exceeds the full product over the neighborhood."""
    rng = random.Random(4)
    for trial in range(40):
        m = rng.randint(1, 10)
        g = random_graph(m, rng)
        psi = [rng.uniform(0.05, 0.9) for _ in range(m)]
        gamma = [rng.uniform(0.0, 0.3) for _ in range(m)]
        general = general_lll_check(gamma, g, psi)
        cluster = cluster_expansion_check(gamma, g, psi)
        for i in range(m):
            zeta = cluster.details["zeta"][i]
            assert zeta <= subset_product_sum(sorted(g.adj[i]), psi) + 1e-9
        if general.passed:
            assert cluster.passed


# ---------------------------------------------------------------------------
# shearer


def test_shearer_single_flaw():
    g = from_edges(1, [])
    rep = shearer_polynomials([Fraction(1, 3)], g)
    assert rep.q[frozenset()] == Fraction(2, 3)
    assert rep.q[frozenset({0})] == Fraction(1, 3)
    assert rep.passed


def test_shearer_two_flaws():
    g1 = from_edges(2, [(0, 1)])
    rep = shearer_polynomials([Fraction(1, 8), Fraction(1, 8)], g1)
    assert rep.q[frozenset()] == Fraction(3, 4)
    assert rep.q[frozenset({0})] == Fraction(1, 8)
    g2 = from_edges(2, [])
    rep2 = shearer_polynomials([Fraction(1, 4), Fraction(1, 3)], g2)
    assert rep2.q[frozenset()] == Fraction(3, 4) * Fraction(2, 3)


def test_shearer_matches_signed_sum_enumeration():
    rng = random.Random(5)
    for trial in range(25):
        m = rng.randint(1, 8)
        g = random_graph(m, rng, self_loops=False)
        gamma = [Fraction(rng.randint(1, 30), 100) for _ in range(m)]
        rep = shearer_polynomials(gamma, g)
        brute = brute_shearer(gamma, g)
        assert set(rep.q) == set(brute)
        for s, v in brute.items():
            assert rep.q[s] == v
        brute_pass = brute[frozenset()] > 0 and all(v >= 0 for v in brute.values())
        assert rep.passed == brute_pass


def test_shearer_flaw_cap():
    g = from_edges(30, [])
    with pytest.raises(LllError, match="capped"):
        shearer_polynomials([0.01] * 30, g)


# ---------------------------------------------------------------------------
# clique condition


def test_clique_single_flaw():
    g = from_edges(1, [], self_loops=[0])
    cfg = CliqueLllConfig(g, (frozenset({0}),), {(0, 0): 0.5})
    rep = clique_lll_check([0.4], cfg)
    assert rep.passed


def test_clique_symmetric_one_clique():
    m = 4
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = from_edges(m, edges)
    gammas = [0.05] * m
    x = {(i, 0): 0.1 for i in range(m)}
    cfg = CliqueLllConfig(g, (frozenset(range(m)),), x)
    rep = clique_lll_check(gammas, cfg)
    assert rep.passed
    # condition (b) with one clique has an empty product: gamma <= x
    assert max(rep.values[1:]) <= 0.5 + 1e-12


def test_clique_cover_incomplete():
    g = from_edges(2, [(0, 1)])
    cfg = CliqueLllConfig(g, (frozenset({0}), frozenset({1})),
                          {(0, 0): 0.2, (1, 1): 0.2})
    with pytest.raises(LllError, match="cover incomplete"):
        clique_lll_check([0.1, 0.1], cfg)


def test_clique_ratio_bound_reported():
    g = from_edges(2, [(0, 1)])
    cfg = CliqueLllConfig(g, (frozenset({0, 1}),), {(0, 0): 0.3, (1, 0): 0.2})
    rep = clique_lll_check([0.05, 0.05], cfg)
    assert abs(rep.details["ratio_bounds"][0] - 0.3 / (1 - 0.2)) < 1e-12
    assert abs(rep.details["ratio_bounds"][1] - 0.2 / (1 - 0.3)) < 1e-12


# ---------------------------------------------------------------------------
# backtracking criteria


def ksat_table(n_vars, clauses):
    variables = tuple(range(1, n_vars + 1))
    entries = {}
    for v in variables:
        rows = {frozenset(): 0.5}
        for c in clauses:
            if v in c:
                rows[frozenset(c)] = 0.5
        entries[v] = rows
    return BacktrackChargeTable(variables, entries, span=frozenset(variables))


def test_backtracking_threshold_k5():
    from lll_lab.solvers.ksat import backtracking_threshold, optimal_backtracking_weight

    assert abs(backtracking_threshold(5) - 8192.0 / 3125.0) < 1e-12
    # the optimal weight maximizes (2a - 1)/a^k: check by scan
    alpha = optimal_backtracking_weight(5)
    f = lambda a: (2 * a - 1) / a ** 5
    for probe in (alpha - 1e-4, alpha + 1e-4):
        assert f(probe) <= f(alpha) + 1e-12


def test_backtracking_criterion_ksat_form():
    """zeta_v = 1/(2 psi) + (deg_v / 2) psi^(k-1) under the uniform table."""
    clauses = [(1, 2, 3, 4, 5), (1, 6, 7, 8, 9)]
    table = ksat_table(9, clauses)
    alpha = 5.0 / 8.0
    psi = {v: alpha for v in table.variables}
    rep = backtracking_criterion(table, psi, lambda_init=2.0 ** 9)
    z1 = rep.details["zeta"]["1"]
    expected = 1.0 / (2 * alpha) + (2 / 2.0) * alpha ** 4
    assert abs(z1 - expected) < 1e-12
    assert rep.passed  # degree 2 < 8192/3125? no: 2 < 2.62, passes
    assert "t0" in rep.details
    t0 = rep.details["t0"]
    assert abs(t0 - (9 + 9 * math.log2(1 + alpha))) < 1e-9


def test_backtracking_criterion_fails_on_high_degree():
    # variable 1 has degree 3 > threshold 2.62 for k = 5
    clauses = [(1, 2, 3, 4, 5), (1, 6, 7, 8, 9), (1, 10, 11, 12, 13)]
    table = ksat_table(13, clauses)
    alpha = 5.0 / 8.0
    rep = backtracking_criterion(table, {v: alpha for v in table.variables})
    assert not rep.passed


def test_commutative_backtracking_ksat_example():
    """Clauses overlapping at most d = 2^k/e others with psi = e/2^k."""
    k, d = 6, int(2 ** 6 / math.e)
    sets = []
    for i in range(4):
        base = i * (k - 1)
        sets.append(frozenset(range(base, base + k)))  # chain overlaps
    charges = {s: 2.0 ** -k for s in sets}
    psi = {s: math.e / 2 ** k for s in sets}
    rep = commutative_backtracking_criterion(charges, psi)
    assert rep.passed


def test_commutative_backtracking_single_and_disjoint():
    s = frozenset({1, 2})
    rep = commutative_backtracking_criterion({s: 0.1}, {s: 0.5})
    # gamma (1 + psi) <= psi: 0.1 * 1.5 = 0.15 <= 0.5
    assert rep.passed
    assert abs(rep.values[0] - 0.1 * 1.5 / 0.5) < 1e-12
    t = frozenset({3, 4})
    rep2 = commutative_backtracking_criterion({s: 0.1, t: 0.2}, {s: 0.5, t: 0.4})
    # disjoint sets do not see each other: independent singleton conditions
    assert abs(rep2.values[0] - 0.1 * 1.5 / 0.5) < 1e-12
    assert abs(rep2.values[1] - 0.2 * 1.4 / 0.4) < 1e-12


def test_realizable_set_charge():
    table = {1: {frozenset({1, 2}): 0.5}, 2: {frozenset({1, 2}): 0.25}}
    empty = {1: 0.5, 2: 0.5}
    got = realizable_set_charge(frozenset({1, 2}), table, empty)
    assert abs(got - 0.25) < 1e-12  # max(0.5*0.5, 0.25*0.5)


def test_asymmetric_uniform_reduces_to_symmetric():
    """With Pr[violated] = 2^-k the condition at psi = 2 alpha matches the
    uniform criterion 1/(2 alpha) + (d/2) alpha^(k-1) < 1."""
    k, d = 5, 2
    clauses = [tuple(range(1, k + 1))] * d
    probs = [2.0 ** -k] * d
    alpha = 5.0 / 8.0
    rep = asymmetric_ksat_criterion(clauses, probs, psi=2 * alpha)
    symmetric = 1.0 / (2 * alpha) + (d / 2.0) * alpha ** (k - 1)
    assert abs(max(rep.values) - symmetric) < 1e-12


def test_asymmetric_large_psi_fails():
    rep = asymmetric_ksat_criterion([(1, 2)], [0.3], psi=1e9)
    assert not rep.passed


def test_asymmetric_single_clause_direct():
    rep = asymmetric_ksat_criterion([(1, 2, 3)], [2.0 ** -3], psi=2.0)
    expected = 0.5 + 0.125 * 4.0
    assert abs(rep.values[0] - expected) < 1e-12


# ---------------------------------------------------------------------------
# counting bound


def test_counting_bound_single_constraint_exact():
    ratio = 0.37
    got = counting_bound([ratio], [(0,)])
    assert abs(got - (1 + ratio)) < 1e-12


def test_counting_bound_disjoint_product():
    got = counting_bound([0.2, 0.5], [(0,), (1,)])
    assert abs(got - 1.2 * 1.5) < 1e-12


def test_counting_bound_aec_shape():
    """Degree-3 acyclic-coloring shape: per edge, paths contribute about
    2(maxdeg-1) ratios of 1/(2(maxdeg-1)) and cycles a geometric tail, so
    the bound stays below 4 per edge."""
    delta = 3
    num_edges = 6
    constraints = []
    ratios = []
    for e in range(num_edges):
        for _ in range(2 * (delta - 1)):
            constraints.append((e, (e + 1) % num_edges))
            ratios.append(1.0 / (2 * (delta - 1)))
        for ln in (4, 6, 8):
            constraints.append(tuple((e + i) % num_edges for i in range(ln)))
            ratios.append(1.0 / (2 * (delta - 1)) ** (ln - 2))
    bound = counting_bound(ratios, constraints)
    assert bound < 4.0 ** num_edges


def test_exact_fraction_mode():
    g = from_edges(2, [(0, 1)], self_loops=[0, 1])
    gamma = [Fraction(1, 8), Fraction(1, 8)]
    psi = [Fraction(1, 4), Fraction(1, 4)]
    rep = cluster_expansion_check(gamma, g, psi)
    # Ind({0,1}) with an edge: empty set plus the two singletons
    assert rep.values[0] == Fraction(1, 8) * Fraction(3, 2) / Fraction(1, 4)
    assert rep.passed


def test_clique_symmetric_gamma_over_one_minus_sum():
    """One clique with x_i = gamma_i / (1 - sum gamma): passes whenever the
    total charge stays below one half."""
    gammas = [0.08, 0.12, 0.05, 0.15]
    total = sum(gammas)
    assert total < 0.5
    x_val = [gv / (1 - total) for gv in gammas]
    m = len(gammas)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    g = from_edges(m, edges)
    cfg = CliqueLllConfig(g, (frozenset(range(m)),),
                          {(i, 0): x_val[i] for i in range(m)})
    rep = clique_lll_check(gammas, cfg)
    assert rep.passed


def test_counting_bound_dominates_exact_sum():
    """The variable-incidence bound really is an upper bound on the exact
    independent-set sum of the ratios, across random constraint systems."""
    rng = random.Random(8)
    for trial in range(40):
        n_vars = rng.randint(2, 6)
        m = rng.randint(1, 6)
        constraint_vars = []
        for _ in range(m):
            size = rng.randint(1, min(3, n_vars))
            constraint_vars.append(tuple(sorted(rng.sample(range(n_vars), size))))
        ratios = [rng.uniform(0.0, 0.8) for _ in range(m)]
        adjacency = {
            i: frozenset(
                j for j in range(m) if set(constraint_vars[i]) & set(constraint_vars[j])
            )
            for i in range(m)
        }
        exact = independent_weight_sum(range(m), adjacency, ratios)
        bound = counting_bound(ratios, constraint_vars)
        assert exact <= bound + 1e-9


def test_clique_full_ratio_bounds_dominate_shearer_ratios():
    """When the clique condition holds at the largest admissible charges,
    the Shearer condition holds too and each exact ratio q_i/q_empty
    stays below the full-clique-sum ratio bound.  (The other quoted form,
    with the flaw's own x removed from the denominator, does not
    dominate: on a single clique with gamma = x it undershoots.)"""
    rng = random.Random(9)
    for trial in range(25):
        m = rng.randint(2, 6)
        n_cliques = rng.randint(1, 3)
        cliques = []
        for v in range(n_cliques):
            size = rng.randint(1, m)
            cliques.append(frozenset(rng.sample(range(m), size)))
        # make sure every flaw sits in some clique
        for i in range(m):
            if not any(i in cl for cl in cliques):
                k = rng.randrange(n_cliques)
                cliques[k] = cliques[k] | {i}
        edges = []
        for cl in cliques:
            edges.extend((a, b) for a in cl for b in cl if a < b)
        g = from_edges(m, edges)
        x = {}
        for v, cl in enumerate(cliques):
            for i in cl:
                x[(i, v)] = rng.uniform(0.01, 0.9 / max(len(cl), 1))
        cfg = CliqueLllConfig(g, tuple(cliques), x)
        # largest charges the clique condition admits
        gamma = []
        for i in range(m):
            best = math.inf
            for v, cl in enumerate(cliques):
                if i not in cl:
                    continue
                rhs = x[(i, v)]
                for u, cl2 in enumerate(cliques):
                    if u != v and i in cl2:
                        rhs *= 1 - sum(x[(j, u)] for j in cl2 if j != i)
                best = min(best, rhs)
            gamma.append(max(best, 0.0))
        rep = clique_lll_check(gamma, cfg)
        if not rep.passed:
            continue  # clique sums can exceed one; only certified cases bind
        srep = shearer_polynomials(gamma, g)
        assert srep.passed
        for i in range(m):
            assert srep.ratios[i] <= rep.details["ratio_bounds_full"][i] + 1e-9


def test_clique_trimmed_ratio_bound_single_clique_counterexample():
    """Documents why the full-sum form is the certified one: at gamma = x
    on one clique the exact q-ratio exceeds the trimmed-denominator form
    and equals the full-sum form."""
    g = from_edges(2, [(0, 1)])
    x = {(0, 0): 0.4, (1, 0): 0.4}
    cfg = CliqueLllConfig(g, (frozenset({0, 1}),), x)
    rep = clique_lll_check([0.4, 0.4], cfg)
    assert rep.passed
    srep = shearer_polynomials([0.4, 0.4], g)
    exact = srep.ratios[0]
    assert abs(exact - 2.0) < 1e-12
    assert exact > rep.details["ratio_bounds"][0]  # trimmed form undershoots
    assert abs(exact - rep.details["ratio_bounds_full"][0]) < 1e-12


# ---------------------------------------------------------------------------
# dependency graphs from flaw scopes


def pairwise_graph(scopes):
    """The dependency relation by definition: the flaws whose scopes meet
    flaw i's, inserted in ascending order."""
    sets = [set(s) for s in scopes]
    return tuple(frozenset(j for j in range(len(sets)) if si & sets[j]) for si in sets)


def assert_same_graph(graph, reference):
    """Equal as sets and in iteration order, which the float sums of the
    criteria follow."""
    assert graph.adj == reference
    assert [list(a) for a in graph.adj] == [list(a) for a in reference]


@settings(max_examples=150, deadline=None)
@given(scopes=st.lists(st.lists(st.integers(0, 400), max_size=4), max_size=160))
def test_from_scopes_matches_pairwise_definition(scopes):
    """Shared variables, repeated variables, singleton and empty scopes."""
    graph = DependencyGraph.from_scopes(scopes)
    assert graph.m == len(scopes)
    assert_same_graph(graph, pairwise_graph(scopes))


def _ksat_case():
    cnf = generate_ksat(600, 3, 3, source_for_run(1, 0))
    return ksat_mt(cnf), [{abs(lit) for lit in c} for c in cnf.clauses]


def _rainbow_case():
    clique = generate_colored_clique(10, 3, source_for_run(2, 0))
    return rainbow_matching(clique), [set(e1 + e2) for e1, e2 in clique.conflict_pairs()]


def _coloring_case():
    """Flaw (e, c) depends on (e', c') when e and e' are within distance
    two in the line graph: some edge, e or e' included, touches both."""
    g, q = generate_graph(60, 3, source_for_run(3, 0), 80), 4
    ends = [set(e) for e in g.edges]
    near = [{f for f in range(len(ends)) if ends[f] & a} for a in ends]
    return vertex_coloring_greedy(g, q), [near[i // q] for i in range(len(ends) * q)]


def _aec_clique_case():
    g = generate_graph(20, 3, source_for_run(4, 0), 28)
    flaw_edges = enumerate_two_paths(g) + enumerate_even_cycles(g)
    return aec_clique_mt(g, 10)[0], flaw_edges


@pytest.mark.parametrize("case", [_ksat_case, _rainbow_case, _coloring_case, _aec_clique_case],
                         ids=["ksat_mt", "rainbow", "vertex_coloring", "aec_clique_mt"])
def test_solver_graphs_match_pairwise_definition(case):
    problem, scopes = case()
    assert problem.num_flaws == len(scopes) > 100
    assert_same_graph(problem.graph, pairwise_graph(scopes))


@pytest.mark.parametrize("spec", [
    {"solver": "vertex-coloring", "colors": 4,
     "instance_text": serialize_graph(generate_graph(300, 3, source_for_run(5, 0), 449))},
    {"solver": "ksat-mt",
     "instance_text": serialize_dimacs(generate_ksat(3200, 3, 2, source_for_run(6, 0)))},
], ids=["vertex-coloring", "ksat-mt"])
def test_scope_graphs_build_at_benchmark_scale(spec):
    """No wall-clock bound: a pairwise builder shows up as a slow suite
    (about 20 s for the coloring graph, against milliseconds)."""
    problem = build_problem(spec)
    assert problem.graph.m == problem.num_flaws > 1000
    problem.graph.check_symmetric()
