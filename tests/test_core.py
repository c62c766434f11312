"""Run engine, charges, and problem invariants."""

import math
import re
from dataclasses import replace

import pytest

from lll_lab.core import (
    InPlaceAction,
    LllError,
    SearchProblem,
    Trajectory,
    all_charges,
    charge,
    computed_init_ratio,
    event_charge,
    run,
    validate_problem,
)
from lll_lab.criteria import DependencyGraph
from lll_lab.rng import source_for_run
from lll_lab.solvers import CnfInstance, ksat_mt, vertex_coloring_greedy
from lll_lab.solvers.aec import GraphInstance
from lll_lab.solvers.matchings import EdgeColoredClique, rainbow_matching


def colored_k6_one_conflict():
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    colors[(2, 3)] = colors[(0, 1)]
    return EdgeColoredClique(6, colors)


def test_flawless_start_returns_immediately():
    p = ksat_mt(CnfInstance(1, ((1,),)))
    # seeds where the initial assignment satisfies x1
    for seed in range(20):
        rep = run(p, seed=seed)
        if rep.final_state == (1,):
            assert rep.steps == 0 or rep.resample_counts[0] == rep.steps
    rep = run(p, seed=0, max_steps=0)
    if p.present_flaws(rep.final_state):
        assert not rep.terminated
        assert rep.steps == 0


def one_flaw_stub(start, calls):
    """One flaw, present while variable 0 is 1, addressed in place by
    writing 0 there; ``sample_init`` returns ``start`` itself, and every
    working copy and every update is logged in ``calls``."""

    def update(i, work, rng):
        calls.append("update")
        work[0] = 0

    action = InPlaceAction(update, tuple)
    working = action.working
    action.working = lambda state: calls.append("working") or working(state)
    return SearchProblem(present=lambda i, s: s[0] == 1, sample_action=action,
                         graph=DependencyGraph.from_neighbor_lists([[0]]),
                         sample_init=lambda rng: start, canon=bytes)


def test_flawless_start_makes_no_working_copy_and_calls_no_action():
    """A flawless start ends the run after its first scan: no working copy,
    no action, and the report holds the initial state itself."""
    start, calls = (0, 1), []
    problem = one_flaw_stub(start, calls)
    for record in (False, True):
        rep = run(problem, seed=3, record_trajectory=record)
        assert (rep.terminated, rep.steps, rep.resample_counts) == (True, 0, (0,))
        assert rep.final_state is start
        if record:
            assert rep.trajectory == Trajectory(start, ())
            assert rep.trajectory.initial_state is start
        else:
            assert rep.trajectory is None
    assert calls == []


def test_flawed_start_at_zero_max_steps_is_censored():
    start, calls = (1, 1), []
    problem = one_flaw_stub(start, calls)
    rep = run(problem, seed=3, max_steps=0, record_trajectory=True)
    assert (rep.terminated, rep.steps, rep.resample_counts) == (False, 0, (0,))
    assert rep.final_state == start and rep.trajectory == Trajectory(start, ())
    assert calls == ["working"]
    calls.clear()
    rep = run(problem, seed=3)
    assert (rep.terminated, rep.steps, rep.resample_counts, rep.final_state) == \
        (True, 1, (1,), (0, 1))
    assert calls == ["working", "update"]


def test_run_determinism(two_clause_mt):
    a = run(two_clause_mt, seed=42, record_trajectory=True)
    b = run(two_clause_mt, seed=42, record_trajectory=True)
    assert a == b
    c = run(two_clause_mt, seed=43)
    assert a.seed != c.seed or a == c


def test_run_report_invariants(two_clause_mt):
    for seed in range(30):
        rep = run(two_clause_mt, seed=seed)
        assert sum(rep.resample_counts) == rep.steps
        if rep.terminated:
            assert not two_clause_mt.present_flaws(rep.final_state)


def test_expected_steps_one_clause_2sat(one_clause_2sat_mt):
    """Absorbing-chain oracle: from the uniform start the expected step
    count is (1/4) * (1 / (3/4)) = 1/3."""
    from lll_lab import chain

    stats = chain.exact_statistics(chain.build_chain_tables(one_clause_2sat_mt))
    # independent derivation: solve the 4-state chain by hand
    # E[steps | start 00] = 1 + (1/4) E[steps | 00] -> 4/3, weighted by 1/4
    assert math.isclose(stats.expected_steps, 1.0 / 3.0, abs_tol=1e-12)
    runs = 40000
    total = 0
    for r in range(runs):
        total += run(one_clause_2sat_mt, seed=9, run_index=r).steps
    mean = total / runs
    se = math.sqrt(1.0 / runs) * 2.0  # crude std bound: steps has small variance
    assert abs(mean - 1.0 / 3.0) < 4 * se


def test_charge_mt_clause_is_exact():
    p = ksat_mt(CnfInstance(3, ((1, 2, 3),)))
    assert abs(charge(p, 0) - 0.125) < 1e-12


def test_charge_empty_flaw_is_zero():
    p = ksat_mt(CnfInstance(2, ((1, 2), (1, -2))))
    # add an artificial flaw with empty extension via a wrapper problem
    from dataclasses import replace

    q = replace(
        p,
        present=lambda i, s: False if i == 2 else p.present(i, s),
        action_distribution=lambda i, s: {s: 1.0} if i == 2 else p.action_distribution(i, s),
        sample_action=lambda i, s, rng: s if i == 2 else p.sample_action(i, s, rng),
        graph=DependencyGraph(3, p.graph.adj + (frozenset(),)),
        declared_charges=None,
        flaws_present=None,
        affects=None,
        flaw_labels=None,
    )
    assert charge(q, 2) == 0.0


def test_charge_rainbow_k6():
    p = rainbow_matching(colored_k6_one_conflict())
    assert abs(charge(p, 0) - 1.0 / 15.0) < 1e-12
    assert abs(charge(p, 0) - 1.0 / ((6 - 1) * (6 - 3))) < 1e-12


def test_charge_greedy_coloring_c4():
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = vertex_coloring_greedy(g, 5)
    got = charge(p, 0)
    assert abs(got - 1.0 / 9.0) < 1e-12


def test_charge_at_least_flaw_measure(two_clause_mt):
    from lll_lab.core import measure_of_flaws

    charges = all_charges(two_clause_mt)
    measures = measure_of_flaws(two_clause_mt)
    for g, mu in zip(charges, measures):
        assert g >= mu - 1e-12
        assert abs(g - mu) < 1e-12  # perfect resampler


def test_charge_requires_oracle_mode():
    p = ksat_mt(CnfInstance(2, ((1, 2),)))
    from dataclasses import replace

    q = replace(p, enumerate_states=None)
    with pytest.raises(LllError, match="oracle mode"):
        charge(q, 0)


def test_event_charge_identity_and_point(two_clause_mt):
    p = two_clause_mt
    got = event_charge(p, lambda s: p.present(0, s), lambda s: p.action_distribution(0, s))
    assert abs(got - charge(p, 0)) < 1e-12
    mu = p.space.mu
    sigma0 = p.space.states[0]
    got = event_charge(p, lambda s: s == sigma0, lambda s: dict(mu))
    assert abs(got - mu[sigma0]) < 1e-12


def test_measure_support_violation():
    p = ksat_mt(CnfInstance(2, ((1, 2),)))
    from dataclasses import replace

    q = replace(p, weight=lambda s: 0.0 if s == (0, 1) else 1.0)
    # actions can land on the zero-weight state
    with pytest.raises(LllError, match="measure support"):
        charge(q, 0)


def test_validate_catches_asymmetric_neighbors(two_clause_mt):
    from dataclasses import replace

    bad = replace(two_clause_mt, graph=DependencyGraph(2, (frozenset({1}), frozenset({1}))))
    with pytest.raises(LllError, match="symmetric"):
        validate_problem(bad)


def test_validate_catches_causality_gap(two_clause_mt):
    from dataclasses import replace

    bad = replace(two_clause_mt, graph=DependencyGraph.from_edges(2, [], self_loops=[0, 1]))
    with pytest.raises(LllError, match="causality"):
        validate_problem(bad)


def test_validate_catches_affects_gap(two_clause_mt):
    from dataclasses import replace

    # resampling clause 0 rewrites x1 and x2, which can violate clause 1
    bad = replace(two_clause_mt, affects=lambda i, s, t: frozenset({i}))
    with pytest.raises(LllError, match="affects cover violated: flaw 0 changes 1"):
        validate_problem(bad)
    without_self = replace(two_clause_mt, affects=lambda i, s, t: frozenset({1 - i}))
    with pytest.raises(LllError, match="must include"):
        validate_problem(without_self)


def test_validate_catches_partial_flaws_present():
    """A declared flaws_present must list exactly what present finds."""
    from dataclasses import replace

    from lll_lab.solvers import ksat_backtrack

    good = ksat_backtrack(CnfInstance(3, ((1, 2, 3),)))
    validate_problem(good)
    bad = replace(good, flaws_present=lambda s: [])
    with pytest.raises(LllError, match=r"flaws_present lists \[\] where present finds \[0, 1, 2\]"):
        validate_problem(bad)


def test_state_space_is_shared_and_holds_no_problem():
    """One enumeration per problem, members as state ids, and no
    reference cycle: the problem is freed without the cyclic collector."""
    import gc
    import weakref

    p = ksat_mt(CnfInstance(3, ((1, 2, 3), (-1, -2, 3))))
    space = p.space
    assert p.space is space and space.states[space.index[(1, 0, 1)]] == (1, 0, 1)
    assert [i for i, ids in enumerate(space.members) if space.index[(0, 0, 0)] in ids] == [0]
    assert sum(space.mu.values()) == pytest.approx(1.0)
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()
    assert len(space.states) == 8


def test_causality_cover_on_shipped_solvers(two_clause_mt):
    validate_problem(two_clause_mt)
    validate_problem(rainbow_matching(colored_k6_one_conflict()))
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    validate_problem(vertex_coloring_greedy(g, 5))


def test_invalid_strategy_errors(two_clause_mt):
    from lll_lab.core import FlawChoiceStrategy

    class Bad(FlawChoiceStrategy):
        def choose(self, present, state):
            return 1 - present[0] if len(present) == 1 else present[0]

    bad = Bad()
    # find a seed where exactly one flaw is present at some step
    with pytest.raises(LllError, match="invalid strategy"):
        for seed in range(50):
            run(two_clause_mt, bad, seed=seed)


def test_inconsistent_actions_detected(two_clause_mt):
    from dataclasses import replace

    lying = replace(
        two_clause_mt,
        action_distribution=lambda i, s: {s: 1.0},  # claims it never moves
    )
    with pytest.raises(LllError, match="inconsistent actions"):
        validate_problem(lying)


def test_single_step_frequencies_match_declared(two_clause_mt):
    """Coupling sanity: sampled next-state frequencies against the
    declared distribution, four standard errors per outcome."""
    p = two_clause_mt
    state = (0, 0, 0)  # violates clause 0
    assert p.present(0, state)
    dist = p.action_distribution(0, state)
    n = 200_000
    rng = source_for_run(123, 0)
    counts: dict = {}
    for _ in range(n):
        nxt = p.sample_action(0, state, rng)
        counts[nxt] = counts.get(nxt, 0) + 1
    for target, prob in dist.items():
        p_hat = counts.get(target, 0) / n
        se = math.sqrt(prob * (1 - prob) / n)
        assert abs(p_hat - prob) <= 4 * se


def test_init_ratio_of_a_mu_start_and_of_stated_laws(two_clause_mt):
    from dataclasses import replace

    assert two_clause_mt.init_distribution is None
    assert computed_init_ratio(two_clause_mt) == 1.0
    uniform = replace(two_clause_mt, init_distribution=lambda s: 0.125)
    assert abs(computed_init_ratio(uniform) - 1.0) < 1e-12
    point = replace(two_clause_mt, sample_init=lambda rng: (0, 0, 0),
                    init_distribution=lambda s: float(s == (0, 0, 0)))
    assert computed_init_ratio(point) == 8.0
    with pytest.raises(LllError, match="^exact computation requires oracle mode$"):
        computed_init_ratio(replace(point, enumerate_states=None))


def test_rainbow_k20_terminates_rainbow():
    from lll_lab.formats import generate_colored_clique
    from lll_lab.solvers.matchings import rainbow_validity

    rng = source_for_run(7, 0)
    clique = generate_colored_clique(10, 2, rng)
    p = rainbow_matching(clique)
    for seed in range(5):
        rep = run(p, seed=seed)
        assert rep.terminated
        assert rainbow_validity(clique, rep.final_state)


def test_trajectory_steps_were_valid(two_clause_mt):
    """Recorded steps address present flaws with positive declared mass."""
    for seed in range(20):
        rep = run(two_clause_mt, seed=seed, record_trajectory=True)
        states = rep.trajectory.states()
        for t, (w, nxt) in enumerate(rep.trajectory.steps):
            assert two_clause_mt.present(w, states[t])
            assert two_clause_mt.action_distribution(w, states[t]).get(nxt, 0.0) > 0


def test_validate_backtracking_solvers():
    from lll_lab.solvers import CnfInstance, ksat_backtrack
    from lll_lab.solvers.aec import GraphInstance, aec_backtrack

    validate_problem(ksat_backtrack(CnfInstance(4, ((1, 2, 3), (-2, 3, 4)))))
    tri = GraphInstance.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    validate_problem(aec_backtrack(tri, 6))


def test_event_charge_composite_coloring_event():
    """Conjunction event on a 4-vertex coloring, resampled over a vertex
    subset: the charge matches a from-scratch exhaustive maximization."""
    import itertools

    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    q = 3
    p = vertex_coloring_greedy(g, q)

    def event(state):
        # edge (1,2) monochromatic in color 0 and vertex 0 colored 2
        return state[1] == state[2] == 0 and state[0] == 2

    def event_actions(state):
        # resample vertices 0..2 uniformly
        out = {}
        prob = (1.0 / q) ** 3
        for combo in itertools.product(range(q), repeat=3):
            nxt = (combo[0], combo[1], combo[2], state[3])
            out[nxt] = out.get(nxt, 0.0) + prob
        return out

    got = event_charge(p, event, event_actions)
    # independent brute force straight from the definition
    states = list(itertools.product(range(q), repeat=4))
    mu = 1.0 / len(states)
    incoming = {}
    for s in states:
        if event(s):
            for t, prob in event_actions(s).items():
                incoming[t] = incoming.get(t, 0.0) + mu * prob
    brute = max(mass / mu for mass in incoming.values())
    assert abs(got - brute) < 1e-12


def test_recency_strategy_runs_and_is_deterministic(two_clause_mt):
    a = run(two_clause_mt, "recency", seed=31)
    b = run(two_clause_mt, "recency", seed=31)
    assert a == b
    assert a.terminated


def test_fixed_priority_strategy(two_clause_mt):
    from lll_lab.core import FixedPriorityStrategy

    rev = FixedPriorityStrategy([1, 0])
    for seed in range(30):
        rep = run(two_clause_mt, rev, seed=seed, record_trajectory=True)
        # whenever both flaws were present, flaw 1 went first
        states = rep.trajectory.states()
        for t, (w, _) in enumerate(rep.trajectory.steps):
            present = two_clause_mt.present_flaws(states[t])
            if len(present) == 2:
                assert w == 1


@pytest.mark.parametrize("order,missing,extra", [([1], [0], []), ([0, 1, 2], [], [2])],
                         ids=["omits-0", "adds-2"])
def test_run_refuses_a_fixed_order_that_is_not_a_permutation(monkeypatch, two_clause_mt, order,
                                                              missing, extra):
    """``run`` given such a strategy used to end in ``KeyError: 0`` once
    the omitted flaw was the only one present.  It refuses before its
    first draw, on the heap path and on the ``choose`` path alike."""
    import lll_lab.core as core
    from lll_lab.core import FixedPriorityStrategy

    def drawn(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(core, "source_for_run", drawn)
    message = re.escape(f"fixed_priority order is not a permutation of the 2 flaws: "
                        f"missing {missing}, extra {extra}")
    for problem in (two_clause_mt, replace(two_clause_mt, affects=None)):
        with pytest.raises(LllError, match=message):
            run(problem, FixedPriorityStrategy(order), seed=4)


def test_custom_strategy_valid_callback(two_clause_mt):
    from lll_lab.core import FlawChoiceStrategy

    class Highest(FlawChoiceStrategy):
        def choose(self, present, state):
            return max(present)

    rep = run(two_clause_mt, Highest(), seed=3)
    assert rep.terminated


def test_causality_cover_all_shipped_solvers():
    """The spec-level invariant: every solver's declared neighborhoods
    survive the exhaustive causality check on enumerable instances."""
    from lll_lab.solvers import (
        CnfInstance,
        aec_backtrack,
        aec_clique_mt,
        ksat_backtrack,
        ksat_backtrack_biased,
        ksat_mt,
        vertex_coloring_greedy,
    )
    from lll_lab.solvers.aec import GraphInstance as G

    tri = G.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    square = G.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cnf = CnfInstance(4, ((1, 2, 3), (-2, 3, 4)))
    problems = [
        ksat_mt(cnf),
        ksat_mt(CnfInstance(4, ((1, 2), (3, 4)))),
        ksat_backtrack(cnf),
        ksat_backtrack_biased(cnf, [{0: 0.3, 1: 0.7}] * 4),
        aec_backtrack(tri, 6),
        aec_clique_mt(square, 3)[0],
        rainbow_matching(colored_k6_one_conflict()),
        vertex_coloring_greedy(square, 5),
    ]
    for p in problems:
        validate_problem(p)


def test_exact_statistics_refuses_a_chain_never_absorbed():
    """(¬x1) ∧ (x1) has no flawless state, so no run is ever absorbed."""
    from lll_lab import chain

    tables = chain.build_chain_tables(ksat_mt(CnfInstance(2, ((-1,), (1,)))))
    with pytest.raises(LllError, match="^the chain is never absorbed: no absorbing state is "
                                       "reachable from 4 of the 4 transient states its runs "
                                       "can visit$"):
        chain.exact_statistics(tables)
    # state 1 steps to itself forever; state 0 steps to the flawless state 2
    def stuck(init_distribution):
        return SearchProblem(
            present=lambda i, s: s < 2, sample_action=lambda i, s, rng: s,
            action_distribution=lambda i, s: {2 if s == 0 else 1: 1.0},
            graph=DependencyGraph.from_edges(1, [], self_loops=[0]), sample_init=lambda rng: 0,
            canon=lambda s: bytes([s]), enumerate_states=lambda: range(3),
            init_distribution=init_distribution)

    # started at 0 no run visits state 1: the solve leaves it out
    stats = chain.exact_statistics(chain.build_chain_tables(stuck(lambda s: float(s == 0))))
    assert stats.expected_steps == 1.0 and stats.expected_flaw_counts.tolist() == [1.0]
    assert stats.absorption == {2: 1.0}
    # a start law that can draw state 1 is refused
    with pytest.raises(LllError, match="reachable from 1 of the 2 transient states its runs "
                                       "can visit$"):
        chain.exact_statistics(chain.build_chain_tables(stuck(lambda s: float(s < 2))))
