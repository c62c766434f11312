"""Oracles, chain statistics, and the Monte-Carlo verdict suites."""

import math
import re
from dataclasses import replace

import pytest

from lll_lab import chain, core, witness
from lll_lab.analysis import (
    PartialAvoidanceConfig,
    _iter_runs,
    build_oracle,
    check_event_probability,
    check_resample_bounds,
    check_witness_tree_lemma,
    empirical_distribution,
    labeled_problem,
    output_distribution,
    partial_avoidance,
    run_core_truncated,
    run_many,
    verdict_report,
    wilson_interval,
)
from lll_lab.core import FlawChoiceStrategy, LllError, RecencyStrategy, run
from lll_lab.criteria import neighborhood_sums
from lll_lab.solvers import CnfInstance, ksat_mt
from lll_lab.solvers.matchings import EdgeColoredClique, rainbow_matching
from lll_lab.witness import check_commutativity

from graphs import from_edges


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


def with_strategy(problem, strategy):
    """``problem`` run under ``strategy`` instead of its recommended one."""
    return replace(problem, metadata={**problem.metadata, "strategy": strategy})


def all_clauses_3sat():
    """all 8 clauses on 3 variables: unsatisfiable, breaks cluster expansion"""
    clauses = []
    for signs in range(8):
        clause = tuple((v + 1) * (1 if signs >> v & 1 else -1) for v in range(3))
        clauses.append(clause)
    return CnfInstance(3, tuple(clauses))


# ---------------------------------------------------------------------------
# oracle tables


def test_oracle_one_clause_2sat(one_clause_2sat_mt):
    tables = build_oracle(one_clause_2sat_mt)
    assert len(tables.flawless) == 3
    for s in tables.flawless:
        assert abs(tables.lll_distribution[s] - 1.0 / 3.0) < 1e-12
    assert abs(sum(tables.lll_distribution.values()) - 1.0) < 1e-12
    assert tables.charges == [pytest.approx(0.25)]


def test_oracle_k6_one_conflict_pair():
    p = rainbow_matching(colored_k6())
    tables = build_oracle(p)
    # 15 matchings, exactly one contains both conflict edges
    assert len(tables.states) == 15
    assert len(tables.flawless) == 14
    for s in tables.flawless:
        assert abs(tables.lll_distribution[s] - 1.0 / 14.0) < 1e-12


def test_oracle_flags_empty_flawless_set():
    p = ksat_mt(all_clauses_3sat())
    tables = build_oracle(p)
    assert tables.flawless == []
    assert tables.lll_distribution is None


def test_oracle_lll_distribution_bound(two_clause_mt):
    """mu_LLL(f) <= mu(f) * prod over the neighborhood of (1 + psi) for
    every flaw, exactly, whenever the general condition holds."""
    from lll_lab.criteria import general_lll_check, subset_product_sum

    tables = build_oracle(two_clause_mt)
    psi = [0.25, 0.25]
    crit = general_lll_check(tables.charges, tables.graph, psi, strict=False)
    assert crit.passed
    for i in range(2):
        lhs = sum(p for s, p in tables.lll_distribution.items() if two_clause_mt.present(i, s))
        around = sorted(tables.graph.adj[i] | {i})
        rhs = sum(p for s, p in tables.mu.items() if two_clause_mt.present(i, s))
        rhs *= subset_product_sum(around, psi)
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# chain machinery


def test_exact_statistics_match_simulation(two_clause_mt):
    exact = chain.exact_statistics(chain.build_chain_tables(two_clause_mt))
    stats = run_many(two_clause_mt, runs=60_000, seed=5)
    mean = stats.steps.mean()
    se = stats.steps.std(ddof=1) / math.sqrt(stats.runs)
    assert abs(mean - exact.expected_steps) < 4 * se
    for i in range(2):
        mean_i = stats.flaw_counts[:, i].mean()
        se_i = stats.flaw_counts[:, i].std(ddof=1) / math.sqrt(stats.runs)
        assert abs(mean_i - exact.expected_flaw_counts[i]) < 4 * se_i


def test_chain_and_slow_path_agree_in_distribution(two_clause_mt):
    fast = run_many(two_clause_mt, runs=30_000, seed=7)
    # without an enumeration run_many takes the step path
    slow = run_many(replace(two_clause_mt, enumerate_states=None), runs=6_000, seed=7)
    fd = empirical_distribution(fast)
    sd = empirical_distribution(slow)
    for canon, p_fast in fd.nu.items():
        p_slow = sd.nu.get(canon, 0.0)
        se = math.sqrt(p_fast * (1 - p_fast) / sd.runs)
        assert abs(p_fast - p_slow) < 5 * se + 1e-3


class ReverseIndexStrategy(FlawChoiceStrategy):
    """Highest index first: a fixed order that ``make_strategy`` does not
    build."""

    def choose(self, present, state):
        return max(present)

    def priority(self, num_flaws):
        order = list(range(num_flaws - 1, -1, -1))
        return {f: r for r, f in enumerate(order)}, order


def test_run_many_takes_the_chain_path_from_the_declared_priority(monkeypatch):
    """The chain path follows ``strategy.priority``, not the strategy's
    class: a declared order of a class of its own is sampled on the chain
    in that order, and recency, which declares none, takes the step path."""
    built = []
    original = chain.build_chain_tables

    def spy(problem, priority=None, flaw_subset=None):
        tables = original(problem, priority, flaw_subset)
        built.append(tables)
        return tables

    monkeypatch.setattr(chain, "build_chain_tables", spy)
    problem = ksat_mt(CnfInstance(3, ((1, 2), (1, 3))))  # both violated at 000
    run_many(with_strategy(problem, ReverseIndexStrategy()), runs=50, seed=3)
    (tables,) = built
    present = [problem.present_flaws(s) for s in problem.space.states]
    assert [0, 1] in present
    assert tables.chosen_flaw.tolist() == [max(p) if p else -1 for p in present]
    recency = with_strategy(problem, RecencyStrategy())
    run_many(recency, runs=50, seed=3)
    assert len(built) == 1


@pytest.mark.parametrize("order,missing,extra", [([1], [0], []), ([0, 1, 2], [], [2]),
                                                  ([2, 0], [1], [2])],
                         ids=["omits-0", "adds-2", "2-for-1"])
def test_fixed_order_must_be_a_permutation_of_the_flaws(monkeypatch, two_clause_mt, order,
                                                        missing, extra):
    """An order that omits flaw 0 used to leave it in 286 of 2,000 chain
    outputs with no run censored, and to end in ``KeyError`` on the step
    path; an extra flaw ended in ``IndexError``.  Each is refused before
    any run, on either path."""
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr("lll_lab.analysis.run", sampled)
    monkeypatch.setattr(chain, "run_batch", sampled)
    problem = with_strategy(two_clause_mt, ("fixed_priority", order))
    message = re.escape(f"fixed_priority order is not a permutation of the 2 flaws: "
                        f"missing {missing}, extra {extra}")
    for call in (lambda: run_many(problem, 2000, 1),
                 lambda: run_many(replace(problem, enumerate_states=None), 2000, 1),
                 lambda: run_core_truncated(problem, [0, 1], [0.25, 0.25], runs=100)):
        with pytest.raises(LllError, match=message):
            call()


def test_exact_absorption_sums_to_one(two_clause_mt):
    exact = chain.exact_statistics(chain.build_chain_tables(two_clause_mt))
    assert abs(sum(exact.absorption.values()) - 1.0) < 1e-12


def test_wilson_interval_contains_p():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.2


# ---------------------------------------------------------------------------
# witness tree lemma


def test_witness_lemma_refuses_noncommutative():
    from lll_lab.core import SearchProblem

    # same broken two-bit construction as the witness tests
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
        for t, p in dist.items():
            acc += p
            if u < acc:
                return t
        return t

    problem = SearchProblem(
        present=lambda i, s: s[i] == 1,
        sample_action=sample_action,
        graph=from_edges(2, []),
        sample_init=lambda rng: (1, 1),
        canon=lambda s: bytes(s),
        action_distribution=action_distribution,
        enumerate_states=lambda: [(a, b) for a in (0, 1) for b in (0, 1)],
        init_distribution=lambda s: 1.0 if s == (1, 1) else 0.0,
    )
    with pytest.raises(LllError, match="commutative"):
        check_witness_tree_lemma(problem, runs=10)


def test_witness_lemma_small_run(two_clause_mt):
    report = check_witness_tree_lemma(two_clause_mt, runs=50_000, max_tree_nodes=3, seed=2)
    assert report["all_pass"]
    assert report["trees"] > 4


# ---------------------------------------------------------------------------
# resample bounds


def test_resample_bounds_cluster_and_shearer(two_clause_mt):
    rep_c = check_resample_bounds(two_clause_mt, psi=[0.25, 0.25], runs=50_000,
                                  seed=3, mode="cluster")
    assert rep_c["all_pass"]
    rep_s = check_resample_bounds(two_clause_mt, runs=50_000, seed=3, mode="shearer")
    assert rep_s["all_pass"]


def test_resample_bounds_refuse_failing_criterion():
    p = ksat_mt(all_clauses_3sat())
    with pytest.raises(LllError, match="fails"):
        check_resample_bounds(p, psi=[0.2] * 8, runs=10, mode="cluster")


def test_unreachable_flaw_has_zero_counts():
    # second clause shares no variables and is satisfied by construction
    cnf = CnfInstance(4, ((1, 2), (3, 4)))
    p = ksat_mt(cnf)
    rep = check_resample_bounds(p, psi=[0.5, 0.5], runs=5_000, seed=1, mode="cluster")
    assert rep["all_pass"]


# ---------------------------------------------------------------------------
# event probability


def test_event_probability_single_state(two_clause_mt):
    mu = two_clause_mt.space.mu
    sigma0 = (1, 1, 1)
    report = check_event_probability(
        two_clause_mt,
        event=lambda s: s == sigma0,
        psi=[0.25, 0.25],
        runs=20_000,
        seed=4,
    )
    assert report["charge"] == pytest.approx(mu[sigma0])
    assert report["all_pass"]


def test_event_probability_flaw_consistency(two_clause_mt):
    """Treating a flaw itself as the event with its own actions gives the
    charge back and the trajectory-hit bound holds."""
    report = check_event_probability(
        two_clause_mt,
        event=lambda s: two_clause_mt.present(0, s),
        event_actions=lambda s: two_clause_mt.action_distribution(0, s),
        event_neighbors=sorted(two_clause_mt.graph.adj[0]),
        psi=[0.25, 0.25],
        runs=20_000,
        seed=5,
    )
    assert report["charge"] == pytest.approx(0.125)
    assert report["all_pass"]


def test_event_suite_builds_the_event_rows_once(monkeypatch):
    """The event is a copy of clause 0 with no arc to clause 1, so the
    commutativity check pairs it with clause 1 and builds the event's
    rows; the charge is read off them, equal to ``event_charge``.  The
    event commutes with clause 1, so the suite runs and passes."""
    from collections import Counter

    from lll_lab.core import event_charge

    problem = ksat_mt(CnfInstance(4, ((1, 2), (3, 4))))
    event = lambda s: problem.present(0, s)
    calls = Counter()

    def event_actions(s):
        calls[s] += 1
        return problem.action_distribution(0, s)

    built = Counter()
    transition_rows = core.StateSpace.transition_rows

    def counting_rows(space, members, dist_of, what):
        built[what] += 1
        return transition_rows(space, members, dist_of, what)

    monkeypatch.setattr(core.StateSpace, "transition_rows", counting_rows)
    report = check_event_probability(problem, event, event_actions, event_neighbors=[0],
                                     psi=[0.3, 0.3], runs=200, seed=4)
    assert built["the event"] == 1 and report["all_pass"]
    assert calls == Counter({s: 1 for s in problem.space.states if event(s)})
    assert report["charge"] == event_charge(problem, event, event_actions) == 0.25


def test_event_suite_evaluates_the_event_once_per_state():
    """The event's rows and the trajectory scan share one membership: on
    13 variables the event is called once at each of the 8,192 states."""
    problem = ksat_mt(CnfInstance(13, ((1, 2, 3), (-3, 4, 5), (6, 7, 8), (-8, 9, 10),
                                       (11, 12, 13))))
    calls = 0

    def event(s):
        nonlocal calls
        calls += 1
        return s[0] == s[1] == s[2] == 0

    report = check_event_probability(problem, event, psi=[0.3] * 5, runs=300, seed=2)
    assert calls == 2 ** 13 == len(problem.space.states)
    assert report["verdicts"][0].empirical > 0


def test_event_probability_whole_space_trivial(two_clause_mt):
    report = check_event_probability(
        two_clause_mt, event=lambda s: True, psi=[0.25, 0.25], runs=2_000, seed=6,
    )
    # both sides are at least one
    v = report["verdicts"][0]
    assert v.empirical == 1.0 and v.bound >= 1.0 and v.passed


# ---------------------------------------------------------------------------
# output distribution


def test_output_distribution_rainbow_no_conflicts():
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    p = rainbow_matching(EdgeColoredClique(6, colors))
    report = output_distribution(p, psi=[], runs=30_000, seed=7)
    dist = report["distribution"]
    assert dist.support_observed == 15
    assert abs(dist.entropy_inf - math.log(15)) < 0.1
    assert report["all_pass"]


def test_output_distribution_pointwise(two_clause_mt):
    report = output_distribution(two_clause_mt, psi=[0.25, 0.25], runs=50_000, seed=8)
    assert report["all_pass"]
    assert report["support_lower_bound"] > 1.0


def test_output_distribution_refuses_past_state_cap(two_clause_mt, monkeypatch):
    """A space past the state cap is refused before any run is sampled."""
    import lll_lab.analysis as analysis

    def run_many(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(analysis, "run_many", run_many)
    monkeypatch.setattr(core, "STATE_CAP", 2 ** two_clause_mt.metadata["cnf"].num_vars - 1)
    with pytest.raises(LllError, match="state space exceeds oracle cap"):
        output_distribution(two_clause_mt, psi=[0.25, 0.25], runs=10)


@pytest.mark.parametrize("cap,refuse", [
    ((core, "STATE_CAP"), lambda p: output_distribution(p, psi=[0.1] * p.num_flaws, runs=10)),
    ((core, "STATE_CAP"), build_oracle),
    ((witness, "COMMUTATIVITY_STATE_CAP"), check_commutativity),
], ids=["output_distribution", "build_oracle", "check_commutativity"])
def test_state_caps_refuse_before_enumerating(monkeypatch, cap, refuse):
    """A space past its cap is refused after drawing at most cap + 1 of
    its 4,096 states."""
    import dataclasses

    problem = ksat_mt(CnfInstance(12, tuple((v, v + 1, v + 2) for v in range(1, 11))))
    drawn = 0

    def counting_enumerate():
        nonlocal drawn
        for s in problem.enumerate_states():
            drawn += 1
            yield s

    monkeypatch.setattr(*cap, 10)
    with pytest.raises(LllError, match="state space"):
        refuse(dataclasses.replace(problem, enumerate_states=counting_enumerate))
    assert drawn <= 11


def test_output_distribution_builds_no_oracle(two_clause_mt, monkeypatch):
    """The suite reads the measure and the graph; charges, flaw measures
    and Shearer polynomials are never computed."""
    import lll_lab.analysis as analysis

    def build_oracle(*args, **kwargs):
        raise AssertionError("built the oracle tables")

    monkeypatch.setattr(analysis, "build_oracle", build_oracle)
    monkeypatch.setattr(analysis, "all_charges", build_oracle)
    monkeypatch.setattr(analysis, "shearer_polynomials", build_oracle)
    report = output_distribution(two_clause_mt, psi=[0.25, 0.25], runs=2_000, seed=8)
    assert report["all_pass"]


# ---------------------------------------------------------------------------
# partial avoidance


def test_partial_avoidance_keep_probability_one_is_identity(two_clause_mt):
    cfg = PartialAvoidanceConfig.build(two_clause_mt, psi=[0.5, 0.5])
    assert cfg.keep_probs == (1.0, 1.0)
    lp = labeled_problem(two_clause_mt, cfg)
    a = run(two_clause_mt, "lowest_index", seed=12)
    b = run(lp, "lowest_index", seed=12)
    assert b.final_state[0] is not None
    report = partial_avoidance(two_clause_mt, cfg, runs=4_000, seed=9)
    assert report["all_pass"]


def test_partial_avoidance_overconstrained():
    p = ksat_mt(all_clauses_3sat())
    psi = [0.2] * 8
    graph = p.graph
    zeta = neighborhood_sums(graph, psi)
    cluster_lhs = [p.declared_charges[i] * zeta[i] for i in range(8)]
    assert any(l > psi[i] for i, l in enumerate(cluster_lhs))  # truly violated
    cfg = PartialAvoidanceConfig.build(p, psi)
    assert all(k < 1.0 for k in cfg.keep_probs)
    report = partial_avoidance(p, cfg, runs=30_000, seed=10)
    assert report["all_pass"]


def test_partial_avoidance_requires_measure_start(two_clause_mt):
    from dataclasses import replace

    # a point mass on one of the 8 states: lambda_init = 8
    shifted = replace(two_clause_mt, sample_init=lambda rng: (0, 0, 0),
                      init_distribution=lambda s: float(s == (0, 0, 0)))
    cfg = PartialAvoidanceConfig.build(two_clause_mt, psi=[0.5, 0.5])
    with pytest.raises(LllError, match="measure as initial"):
        partial_avoidance(shifted, cfg, runs=10)


# ---------------------------------------------------------------------------
# core truncation


def test_core_truncation_full_core_is_identity(two_clause_mt):
    report = run_core_truncated(two_clause_mt, core=[0, 1], psi=[0.25, 0.25],
                                runs=20_000, seed=11)
    assert report["all_pass"]
    v = report["verdicts"][0]
    assert v.empirical == 0.0  # full core: termination means flawless


def test_core_truncation_partial_core(two_clause_mt):
    report = run_core_truncated(two_clause_mt, core=[0], psi=[0.25, 0.25],
                                runs=20_000, seed=12)
    assert report["all_pass"]
    v = report["verdicts"][0]
    assert v.bound >= v.empirical - 4 * v.se


def test_core_truncation_follows_the_recommended_order(monkeypatch, two_clause_mt):
    """Core truncation builds its chain under the problem's own flaw
    order, the one ``run_many`` passes, not under lowest index."""
    orders = []
    original = chain.build_chain_tables

    def spy(problem, priority=None, flaw_subset=None):
        orders.append(None if priority is None else list(priority))
        return original(problem, priority, flaw_subset)

    monkeypatch.setattr(chain, "build_chain_tables", spy)
    p = with_strategy(two_clause_mt, ("fixed_priority", [1, 0]))
    run_core_truncated(p, core=[0, 1], psi=[0.25, 0.25], runs=100, seed=1)
    run_many(p, 100, 1)
    assert orders == [[1, 0], [1, 0]]


def test_core_truncation_refuses_bad_restriction():
    p = ksat_mt(all_clauses_3sat())
    with pytest.raises(LllError, match="restricted criterion"):
        run_core_truncated(p, core=list(range(8)), psi=[0.05] * 8, runs=10)


# ---------------------------------------------------------------------------
# shearer tightness direction


def test_shearer_blowup_direction():
    """Two flaws joined by an edge with gamma_1 + gamma_2 -> 1: q_empty
    tends to zero and the measured expected address counts grow."""
    from lll_lab.criteria import shearer_polynomials

    g = from_edges(2, [(0, 1)])
    prev_counts = 0.0
    prev_q = 1.0
    for total in (0.5, 0.8, 0.95):
        gamma = [total / 2, total / 2]
        rep = shearer_polynomials(gamma, g)
        assert rep.q_empty < prev_q
        prev_q = rep.q_empty
        k = int(4 / (1 - total))
        cnf_like_counts = gamma[0] / rep.q_empty
        assert cnf_like_counts > prev_counts
        prev_counts = cnf_like_counts


# ---------------------------------------------------------------------------
# weighted outputs


def test_matching_weight_constant_weights_exact():
    """W identically one counts the matching size: always n, bound above n."""
    from lll_lab.analysis import matching_weight_analysis

    p = rainbow_matching(colored_k6())
    weights = {e: 1.0 for e in colored_k6().edges()}
    report = matching_weight_analysis(p, weights, runs=500, seed=13)
    v = report["verdicts"][0]
    assert v.empirical == pytest.approx(3.0)
    assert v.bound >= 3.0
    assert report["all_pass"]


def test_matching_weight_random_weights_k20():
    from lll_lab.analysis import matching_weight_analysis
    from lll_lab.formats import generate_colored_clique
    from lll_lab.rng import source_for_run

    rng = source_for_run(14, 0)
    clique = generate_colored_clique(10, 2, rng)
    p = rainbow_matching(clique)
    weights = {e: rng.u01() for e in clique.edges()}
    report = matching_weight_analysis(p, weights, runs=3000, seed=15)
    assert report["all_pass"]


def test_matching_weight_rejects_negative():
    from lll_lab.analysis import matching_weight_analysis

    p = rainbow_matching(colored_k6())
    with pytest.raises(LllError, match="nonnegative"):
        matching_weight_analysis(p, {(0, 1): -1.0}, runs=10)


# ---------------------------------------------------------------------------
# more core truncation


def test_core_truncation_aec_long_cycles_noncore():
    """Six-cycle graph with the resampling colorer: path flaws form the
    core, the single long bichromatic cycle is left out."""
    from lll_lab.solvers import GraphInstance, aec_clique_mt

    g = GraphInstance.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    problem, _ = aec_clique_mt(g, 5)
    num_paths = problem.metadata["num_paths"]
    assert problem.num_flaws == num_paths + 1  # exactly one even cycle
    core = list(range(num_paths))
    psi = [1.0] * num_paths + [0.2]
    report = run_core_truncated(problem, core, psi, runs=20_000, seed=16)
    assert report["all_pass"]
    v = report["verdicts"][0]
    assert v.empirical <= v.bound + 4 * v.se


def test_core_truncation_empty_core_flawless_start():
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    p = rainbow_matching(EdgeColoredClique(6, colors))  # no flaws at all
    report = run_core_truncated(p, core=[], psi=[], runs=2_000, seed=17)
    assert report["all_pass"]
    assert report["verdicts"][0].empirical == 0.0


# ---------------------------------------------------------------------------
# impossible trees never occur


def test_neighborhood_violating_tree_never_occurs(two_clause_mt):
    from lll_lab.witness import WitnessTree, occurs

    impossible = WitnessTree([0, 1], [-1, 0])  # fine shape...
    # make it violate the neighborhood by pruning the adjacency
    pruned = from_edges(2, [], self_loops=[0, 1])
    hits = 0
    for seed in range(200):
        rep = run(two_clause_mt, seed=seed, record_trajectory=True)
        if occurs(impossible, rep.trajectory, pruned) is not None:
            hits += 1
    assert hits == 0  # child label 1 is outside the pruned neighborhood of 0


def test_event_probability_refuses_noncommutative_extension(two_clause_mt):
    """A deterministic collapse-to-one-state event action breaks the swap
    count condition against the clause flaws, so the suite refuses."""
    fixed = (1, 1, 1)
    with pytest.raises(LllError, match="not commutative"):
        check_event_probability(
            two_clause_mt,
            event=lambda s: True,
            event_actions=lambda s: {fixed: 1.0},
            event_neighbors=[],
            psi=[0.25, 0.25],
            runs=10,
            seed=1,
        )


def test_witness_lemma_holds_under_recency_strategy(two_clause_mt):
    """The occurrence bound is strategy-agnostic for commutative
    problems: the recency strategy must satisfy it too."""
    report = check_witness_tree_lemma(
        with_strategy(two_clause_mt, "recency"), runs=30_000, max_tree_nodes=3, seed=19,
    )
    assert report["all_pass"]


# ---------------------------------------------------------------------------
# exact (noise-free) theorem checks through the chain solver


def test_exact_output_density_bound_any_strategy(two_clause_mt):
    """The exact absorption distribution respects nu(s) <= u * mu(s) under
    both flaw orders, with u the independent-set weight sum."""
    from lll_lab.criteria import independent_weight_sum

    psi = [0.25, 0.25]
    u = independent_weight_sum([0, 1], two_clause_mt.graph.adj, {0: psi[0], 1: psi[1]})
    mu = two_clause_mt.space.mu
    for priority in ([0, 1], [1, 0]):
        tables = chain.build_chain_tables(two_clause_mt, priority)
        stats = chain.exact_statistics(tables)
        for s, p in stats.absorption.items():
            assert p <= u * mu[s] + 1e-12


def test_exact_address_counts_bounded_any_strategy(two_clause_mt):
    """Exact expected address counts stay below psi (cluster) and the
    q-ratios (shearer) for both flaw orders."""
    from lll_lab.criteria import shearer_polynomials

    psi = [0.25, 0.25]
    srep = shearer_polynomials([0.125, 0.125], two_clause_mt.graph)
    for priority in ([0, 1], [1, 0]):
        tables = chain.build_chain_tables(two_clause_mt, priority)
        stats = chain.exact_statistics(tables)
        for i in range(2):
            assert stats.expected_flaw_counts[i] <= psi[i] + 1e-12
            assert stats.expected_flaw_counts[i] <= srep.ratios[i] + 1e-12


# ---------------------------------------------------------------------------
# the harness is falsifiable


def test_harness_detects_violated_count_bound(two_clause_mt):
    """Shrinking the claimed bound far below the truth must flip the
    verdict: the one-sided suites are not vacuously green."""
    report = check_resample_bounds(
        replace(two_clause_mt, declared_charges=(0.125, 0.125)), psi=[0.25, 0.25],
        runs=30_000, seed=20, mode="cluster", total_bound=1e-6,
    )
    total = [v for v in report["verdicts"] if v.name == "total_steps"][0]
    assert not total.passed
    assert not report["all_pass"]


def test_harness_detects_violated_tree_bound(two_clause_mt):
    """Understating the charges breaks the witness-tree verdicts."""
    report = check_witness_tree_lemma(
        replace(two_clause_mt, declared_charges=(1e-9, 1e-9)), runs=30_000,
        max_tree_nodes=1, seed=21,
    )
    assert not report["all_pass"]


def test_harness_detects_violated_density_bound(two_clause_mt):
    """A tiny weight vector understates u and the pointwise density
    verdicts must fail."""
    report = output_distribution(two_clause_mt, psi=[1e-9, 1e-9], runs=30_000, seed=22)
    assert not report["all_pass"]


# ---------------------------------------------------------------------------
# the run driver


def test_iter_runs_matches_run_per_index(two_clause_mt):
    """A strategy given by name is resolved once and reset per run, which
    reproduces a fresh strategy per run; indices need not start at 0."""
    reports = list(_iter_runs(with_strategy(two_clause_mt, "recency"), range(5, 25), 3,
                             record_trajectory=True))
    assert reports == [run(two_clause_mt, "recency", seed=3, run_index=r, record_trajectory=True)
                       for r in range(5, 25)]


# ---------------------------------------------------------------------------
# verdicts that would pass having tested nothing


def test_matching_weight_refuses_single_run():
    from lll_lab.analysis import matching_weight_analysis

    p = rainbow_matching(colored_k6())
    with pytest.raises(LllError, match="two runs"):
        matching_weight_analysis(p, {e: 1.0 for e in colored_k6().edges()}, runs=1)


def test_verdict_report_refuses_empty():
    with pytest.raises(LllError, match="no verdicts"):
        verdict_report("check_resample_bounds", [], runs=10)


def test_witness_lemma_refuses_empty_tree_set_before_sampling(two_clause_mt, monkeypatch):
    import lll_lab.analysis as analysis

    def sample(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(analysis, "run_many", sample)
    with pytest.raises(LllError, match="no witness trees"):
        check_witness_tree_lemma(two_clause_mt, runs=100, max_tree_nodes=0)


# ---------------------------------------------------------------------------
# censored runs in the step-runner suites


@pytest.fixture
def zero_step_cap(monkeypatch):
    """Every run ``_iter_runs`` makes is cut at zero steps, so a run whose
    initial state has a flaw is censored: a run it calls ``run`` for, and
    one it walks in a block (``_run_block``)."""
    import lll_lab.analysis as analysis

    real_run, real_run_block = analysis.run, analysis._run_block

    def capped(problem, strategy, max_steps, *args, **kwargs):
        return real_run(problem, strategy, 0, *args, **kwargs)

    def capped_block(problem, block, order, max_steps, *args, **kwargs):
        return real_run_block(problem, block, order, 0, *args, **kwargs)

    monkeypatch.setattr(analysis, "run", capped)
    monkeypatch.setattr(analysis, "_run_block", capped_block)


def test_event_probability_refuses_censored(two_clause_mt, zero_step_cap):
    with pytest.raises(LllError, match=r"check_event_probability: \d+ of 400 runs censored"):
        check_event_probability(two_clause_mt, event=lambda s: two_clause_mt.present(0, s),
                                psi=[0.25, 0.25], runs=400, seed=4)


def test_matching_weight_refuses_censored(zero_step_cap):
    from lll_lab.analysis import matching_weight_analysis

    p = rainbow_matching(colored_k6())
    with pytest.raises(LllError, match=r"matching_weight_analysis: \d+ of 400 runs censored"):
        matching_weight_analysis(p, {e: 1.0 for e in colored_k6().edges()}, runs=400, seed=13)


def test_coloring_weight_refuses_censored(zero_step_cap):
    from lll_lab.analysis import coloring_weight_analysis
    from lll_lab.solvers import GraphInstance, WeightSpec, vertex_coloring_greedy

    g = GraphInstance.from_edge_list(5, [(i, i + 1) for i in range(4)])
    spec = WeightSpec((0,), {0: 1}, {0: lambda colors: 1.0})
    p = vertex_coloring_greedy(g, 4, spec)
    with pytest.raises(LllError, match=r"coloring_weight_analysis: \d+ of 100 runs censored"):
        coloring_weight_analysis(p, runs=100, seed=3)
