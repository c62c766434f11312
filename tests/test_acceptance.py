"""Acceptance suite: one test per shipped guarantee, one line printed each.

Statistical checks are one-sided against their stated bounds with a
four-standard-error slack; exact checks use 1e-12.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from lll_lab.analysis import (
    PartialAvoidanceConfig,
    check_resample_bounds,
    check_witness_tree_lemma,
    output_distribution,
    partial_avoidance,
    run_many,
)
from lll_lab.core import charge, run
from lll_lab.criteria import (
    DependencyGraph,
    clique_lll_check,
    neighborhood_sum,
    shearer_polynomials,
)
from lll_lab.formats import generate_colored_clique
from lll_lab.rng import source_for_run
from lll_lab.solvers import (
    CnfInstance,
    GraphInstance,
    aec_backtrack,
    aec_clique_mt,
    ksat_backtrack,
    ksat_mt,
    rainbow_matching,
    vertex_coloring_greedy,
)
from lll_lab.solvers.aec import (
    GOLDEN,
    clique_constant_optimum,
    coloring_is_acyclic,
    golden_section_minimum,
    random_bounded_degree_graph,
)
from lll_lab.solvers.ksat import (
    backtrack_lambda_init,
    backtracking_threshold,
    ksat_backtrack_table,
    optimal_backtracking_weight,
    random_bounded_degree_cnf,
)
from lll_lab.solvers.matchings import (
    EdgeColoredClique,
    perfect_matchings,
)
from lll_lab.witness import check_commutativity
from lll_lab.criteria import backtracking_criterion


def _line(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def colored_k6(pairs=1):
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    if pairs >= 1:
        colors[(2, 3)] = colors[(0, 1)]
    return EdgeColoredClique(6, colors)


def two_clause_instance():
    return ksat_mt(CnfInstance(3, ((1, 2, 3), (-1, -2, 3))))


def partner_state(edges, n2):
    """The rainbow solver's state of a perfect matching: its partner array."""
    work = bytearray(n2)
    for u, v in edges:
        work[u], work[v] = v, u
    return bytes(work)


def test_01_resampling_oracle_exactness_k6():
    """Switch-walk resampling of a conflict pair lands uniformly on all
    15 perfect matchings of K_6."""
    started = time.time()
    p = rainbow_matching(colored_k6())
    members = [m for m in (partner_state(pm, 6) for pm in perfect_matchings(range(6)))
               if p.present(0, m)]
    assert len(members) == 1  # mu restricted to the flaw is a point mass
    start = members[0]
    rng = source_for_run(1001, 0)
    n = 10**6
    counts: dict = {}
    for _ in range(n):
        out = p.sample_action(0, start, rng)
        counts[out] = counts.get(out, 0) + 1
    tv = 0.5 * sum(abs(c / n - 1 / 15) for c in counts.values())
    tv += 0.5 * (15 - len(counts)) / 15
    elapsed = time.time() - started
    _line(1, tv < 0.005 and elapsed < 30,
          f"K_6 resampler TV to uniform {tv:.5f} < 0.005 at 1e6 samples ({elapsed:.1f}s)")


def test_02_charge_closed_forms():
    ok = True
    p1 = ksat_mt(CnfInstance(3, ((1, 2, 3),)))
    ok &= abs(charge(p1, 0) - 2.0 ** -3) < 1e-12
    p2 = rainbow_matching(colored_k6())
    ok &= abs(charge(p2, 0) - 1.0 / (5 * 3)) < 1e-12
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p3 = vertex_coloring_greedy(g, 5)
    ok &= abs(charge(p3, 0) - 1.0 / 9.0) < 1e-12
    _line(2, ok, "charges 2^-k, 1/((2n-1)(2n-3)), 1/(q-maxdeg)^2 exact to 1e-12")


def _shearer_against_brute(g, gamma):
    rep = shearer_polynomials(gamma, g)
    all_ind = [
        frozenset(c)
        for r in range(g.m + 1)
        for c in itertools.combinations(range(g.m), r)
        if all(b not in g.adj[a] for a, b in itertools.combinations(c, 2))
    ]
    brute = {}
    for s in all_ind:
        acc = 0.0
        for i_set in all_ind:
            if s <= i_set:
                prod = 1.0
                for j in i_set:
                    prod *= gamma[j]
                acc += (-1) ** (len(i_set) - len(s)) * prod
        brute[s] = acc
    ok = set(rep.q) == set(brute)
    ok &= all(abs(rep.q[s] - v) < 1e-12 for s, v in brute.items())
    brute_pass = brute[frozenset()] > 1e-12 and all(v >= -1e-12 for v in brute.values())
    return ok and rep.passed == brute_pass


def test_03_shearer_oracle_m_up_to_8():
    rng = random.Random(33)
    checked = 0
    ok = True
    # every dependency graph on up to 4 flaws, exhaustively
    for m in range(1, 5):
        pairs = list(itertools.combinations(range(m), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            g = DependencyGraph.from_edges(m, edges)
            gamma = [rng.uniform(0.02, 0.4) for _ in range(m)]
            ok &= _shearer_against_brute(g, gamma)
            checked += 1
    # random graphs at 5..8 flaws
    for trial in range(40):
        m = rng.randint(5, 8)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.45]
        g = DependencyGraph.from_edges(m, edges)
        gamma = [rng.uniform(0.02, 0.4) for _ in range(m)]
        ok &= _shearer_against_brute(g, gamma)
        checked += 1
    _line(3, ok, f"shearer table matches signed-sum enumeration on {checked} instances "
                 "(exhaustive graphs to m=4, random to m=8)")


def test_04_witness_tree_lemma_mc():
    started = time.time()
    p = two_clause_instance()
    report = check_witness_tree_lemma(p, runs=10**6, max_tree_nodes=3, seed=44)
    elapsed = time.time() - started
    frac = sum(v.passed for v in report["verdicts"]) / len(report["verdicts"])
    _line(4, report["all_pass"] and elapsed < 120,
          f"witness-tree bound held for {frac:.0%} of {report['trees']} trees, 1e6 runs ({elapsed:.1f}s)")


def test_05_resample_bounds_both_modes_and_rainbow():
    p = two_clause_instance()
    rep_cluster = check_resample_bounds(p, psi=[0.25, 0.25], runs=10**6, seed=55,
                                        mode="cluster")
    rep_shearer = check_resample_bounds(p, runs=10**6, seed=56, mode="shearer")
    rng = source_for_run(57, 0)
    clique = generate_colored_clique(10, 2, rng)
    rp = rainbow_matching(clique)
    from lll_lab.solvers.matchings import closed_form_zeta

    psi = list(rp.default_weights)
    zeta = closed_form_zeta(clique, psi[0])
    lam = clique.color_ratio()
    total_bound = 3 * lam * clique.half
    rep_rainbow = check_resample_bounds(
        rp, psi=psi, runs=10**5, seed=58, mode="cluster",
        zeta_override={i: zeta for i in range(rp.num_flaws)},
        total_bound=total_bound,
    )
    ok = rep_cluster["all_pass"] and rep_shearer["all_pass"] and rep_rainbow["all_pass"]
    total = [v for v in rep_rainbow["verdicts"] if v.name == "total_steps"][0]
    _line(5, ok,
          f"address counts under psi and q-ratios; rainbow total {total.empirical:.3f} <= {total.bound:.2f}")


def test_06_backtracking_tail_bound():
    assert abs(backtracking_threshold(5) - 8192 / 3125) < 1e-12
    rng = source_for_run(66, 0)
    ok = True
    details = []
    for formula_idx in range(2):
        cnf = random_bounded_degree_cnf(20, 5, 2, rng)
        assert cnf.degree() <= 2
        problem = ksat_backtrack(cnf)
        table = ksat_backtrack_table(cnf)
        alpha = optimal_backtracking_weight(5)
        lam = backtrack_lambda_init(cnf)
        crit = backtracking_criterion(table, {v: alpha for v in table.variables},
                                      lambda_init=lam)
        assert crit.passed
        delta = crit.details["delta"]
        t0 = crit.details["t0"]
        runs = 10**4
        steps = np.zeros(runs, dtype=np.int64)
        for r in range(runs):
            rep = run(problem, "lowest_index", max_steps=10**6, seed=660 + formula_idx,
                      run_index=r)
            assert rep.terminated
            assert cnf.satisfied(rep.final_state)
            steps[r] = rep.steps
        for s in range(1, 9):
            threshold = (t0 + s) / delta
            p_hat = float((steps > threshold).mean())
            se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / runs)
            bound = 2.0 ** -s
            if p_hat > bound + 4 * se:
                ok = False
            if s == 1:
                details.append(f"T0={t0:.1f} delta={delta:.3f} max_steps={steps.max()}")
    _line(6, ok, f"tail Pr[steps > (T0+s)/delta] <= 2^-s for s=1..8 ({'; '.join(details)})")


def test_07_aec_backtracking_hundred_graphs():
    rng = source_for_run(77, 0)
    ok = True
    worst_steps = 0
    for trial in range(100):
        n = 10 + int(rng.u01() * 21)  # up to 30 vertices
        g = random_bounded_degree_graph(n, 3, rng)
        problem = aec_backtrack(g, 9)
        rep = run(problem, "lowest_index", max_steps=10**5, seed=7700 + trial)
        worst_steps = max(worst_steps, rep.steps)
        if not rep.terminated or not coloring_is_acyclic(g, rep.final_state):
            ok = False
    f = lambda x: x + 1.0 / (x * (x * x - 1.0))
    x_opt, _ = golden_section_minimum(f, 1.01, 10.0, tol=1e-10)
    ok &= abs(x_opt - GOLDEN) < 1e-6
    _line(7, ok,
          f"100/100 acyclic colorings at q=9, worst {worst_steps} steps; golden weight to 1e-6")


def test_08_output_distribution_bound():
    p = two_clause_instance()
    report = output_distribution(p, psi=[0.25, 0.25], runs=10**6, seed=88)
    pointwise = [v for v in report["verdicts"] if v.name.startswith("nu[")]
    entropy_inf = [v for v in report["verdicts"] if v.name == "entropy_inf"][0]
    ok = report["all_pass"]
    _line(8, ok,
          f"pointwise nu <= u*mu at {len(pointwise)} states; H_inf {entropy_inf.empirical:.3f} vs bound {entropy_inf.bound:.3f}")


def test_09_partial_avoidance_overconstrained():
    clauses = []
    for signs in range(8):
        clauses.append(tuple((v + 1) * (1 if signs >> v & 1 else -1) for v in range(3)))
    p = ksat_mt(CnfInstance(3, tuple(clauses)))
    psi = [0.2] * 8
    zetas = [neighborhood_sum(i, p.graph, psi) for i in range(8)]
    violated = any(p.declared_charges[i] * zetas[i] > psi[i] for i in range(8))
    cfg = PartialAvoidanceConfig.build(p, psi)
    report = partial_avoidance(p, cfg, runs=10**5, seed=99)
    nu_verdicts = [v for v in report["verdicts"] if v.name.startswith("nu")]
    worst = max(v.empirical for v in nu_verdicts)
    _line(9, violated and report["all_pass"],
          f"cluster expansion violated; worst clause rate {worst:.4f} <= {nu_verdicts[0].bound:.4f}")


def test_10_commutativity_certification():
    ok = check_commutativity(ksat_mt(CnfInstance(4, ((1, 2), (3, 4))))).commutative
    ok &= check_commutativity(rainbow_matching(colored_k6())).commutative
    g4 = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    ok &= check_commutativity(vertex_coloring_greedy(g4, 5)).commutative

    from lll_lab.core import SearchProblem

    def action_distribution(i, s):
        if i == 0:
            if s == (1, 1):
                return {(0, 1): 0.6, (0, 0): 0.4}
            return {(0, s[1]): 1.0}
        return {(s[0], 0): 1.0}

    def sample_action(i, s, rng):
        dist = action_distribution(i, s)
        u = rng.u01()
        acc = 0.0
        for t, prob in dist.items():
            acc += prob
            if u < acc:
                return t
        return t

    broken = SearchProblem(
        present=lambda i, s: s[i] == 1,
        sample_action=sample_action,
        graph=DependencyGraph.from_edges(2, []),
        sample_init=lambda rng: (1, 1),
        canon=lambda s: bytes(s),
        action_distribution=action_distribution,
        enumerate_states=lambda: [(a, b) for a in (0, 1) for b in (0, 1)],
        init_distribution=lambda s: 1.0 if s == (1, 1) else 0.0,
    )
    rep = check_commutativity(broken)
    ok &= not rep.commutative and len(rep.violations) > 0
    _line(10, ok, "swap property certified for three solvers, refuted for the broken pair")


def test_11_rainbow_support_size():
    rng = source_for_run(1111, 0)
    clique = generate_colored_clique(5, 2, rng)
    lam = clique.color_ratio()
    p = rainbow_matching(clique)
    floor = math.exp(-3 * lam * 5) * len(perfect_matchings(range(10)))
    # K10 enumerates, so run_many takes the exact-chain path
    distinct = len(run_many(p, 10**6, 1112).outputs)
    ok = distinct >= floor
    _line(11, ok,
          f"distinct rainbow outputs {distinct} >= e^(-3 lam n) (2n-1)!! = {floor:.2f} at 1e6 runs")


def test_12_clique_constant_and_k4_runs():
    opt, eps, c = clique_constant_optimum()
    # record the optimum against the 8.59 sometimes quoted for this
    # expression: direct minimization lands near 9.6962, not 8.59
    ok = abs(opt - 9.69621) < 1e-3
    g = GraphInstance.from_edge_list(4, itertools.combinations(range(4), 2))
    q = math.ceil(opt * (g.max_degree() - 1))
    problem, cfg = aec_clique_mt(g, q, eps=eps, c=c)
    crit = clique_lll_check(list(problem.declared_charges), cfg)
    ok &= crit.passed
    for seed in range(100):
        rep = run(problem, "lowest_index", max_steps=10**5, seed=1200 + seed)
        if not rep.terminated or not coloring_is_acyclic(g, rep.final_state):
            ok = False
            break
    _line(12, ok,
          f"optimum {opt:.5f} at (eps={eps:.3f}, c={c:.3f}) vs quoted 8.59; K_4 valid at q={q}, 100/100 seeds")
