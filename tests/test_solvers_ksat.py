"""Satisfiability solvers: charges, runs, tables, thresholds."""

import math

import pytest

from lll_lab.core import LllError, action_law, charge, run
from lll_lab.criteria import backtracking_criterion
from lll_lab.rng import source_for_run
from lll_lab.solvers import CnfInstance, ksat_backtrack, ksat_backtrack_biased, ksat_mt
from lll_lab.solvers.ksat import (
    UNSET,
    backtrack_lambda_init,
    backtracking_threshold,
    clause_violation_probs,
    count_partial_satisfying,
    ksat_backtrack_table,
    ksat_biased_table,
    optimal_backtracking_weight,
    random_bounded_degree_cnf,
)
from lll_lab.witness import check_commutativity


def test_cnf_validation():
    with pytest.raises(LllError, match="empty clause"):
        CnfInstance(2, ((),))
    with pytest.raises(LllError, match="out of range"):
        CnfInstance(2, ((1, 3),))
    with pytest.raises(LllError, match="repeats"):
        CnfInstance(2, ((1, -1),))


def test_mt_charge_exact_enumeration():
    p = ksat_mt(CnfInstance(3, ((1, 2, 3),)))
    assert abs(charge(p, 0) - 2.0 ** -3) < 1e-12
    assert p.declared_charges[0] == 2.0 ** -3


def test_mt_disjoint_commutative():
    p = ksat_mt(CnfInstance(4, ((1, 2), (3, 4))))
    assert check_commutativity(p).commutative


def test_mt_flawless_start():
    p = ksat_mt(CnfInstance(2, ((1, 2),)))
    for seed in range(30):
        rep = run(p, seed=seed)
        if rep.steps == 0:
            assert p.metadata["cnf"].satisfied(rep.final_state)
            break
    else:
        pytest.fail("no flawless start in 30 seeds")


def test_backtrack_solves_random_low_degree_formulas():
    rng = source_for_run(2024, 0)
    for trial in range(10):
        cnf = random_bounded_degree_cnf(15, 5, 2, rng)
        problem = ksat_backtrack(cnf)
        table = ksat_backtrack_table(cnf)
        alpha = optimal_backtracking_weight(5)
        rep = backtracking_criterion(table, {v: alpha for v in table.variables})
        assert rep.passed  # degree 2 < 8192/3125
        result = run(problem, "lowest_index", seed=trial)
        assert result.terminated
        state = result.final_state
        assert all(v != UNSET for v in state)
        assert cnf.satisfied(state)


def test_backtrack_single_clause_table():
    cnf = CnfInstance(4, ((1, 2, 3),))
    table = ksat_backtrack_table(cnf)
    for v in (1, 2, 3):
        rows = table.entries[f"x{v}"]
        assert len(rows) == 2  # empty set and the clause
        assert rows[frozenset()] == 0.5
        assert rows[frozenset({"x1", "x2", "x3"})] == 0.5
    assert len(table.entries["x4"]) == 1


def test_backtrack_empty_formula_assigns_everything():
    cnf = CnfInstance(5, ())
    problem = ksat_backtrack(cnf)
    rep = run(problem, "lowest_index", seed=0)
    assert rep.terminated and rep.steps == 5


def test_backtrack_hand_example_backtracks_whole_clause():
    # force x1=0, x2=0, x3=0 to violate (1 or 2 or 3): find a seed where
    # the third assignment triggers the backtrack and unassigns all three
    cnf = CnfInstance(3, ((1, 2, 3),))
    problem = ksat_backtrack(cnf)
    seen_backtrack = False
    for seed in range(60):
        rep = run(problem, "lowest_index", seed=seed, record_trajectory=True)
        states = rep.trajectory.states()
        for t in range(1, len(states)):
            before, after = states[t - 1], states[t]
            unset_after = sum(1 for v in after if v == UNSET)
            unset_before = sum(1 for v in before if v == UNSET)
            if unset_after > unset_before:
                assert unset_after - unset_before == 2  # clause of 3, one was being set
                assert all(v == UNSET for v in after)
                seen_backtrack = True
        assert rep.terminated
    assert seen_backtrack


def test_biased_uniform_reduces_bit_exactly():
    cnf = CnfInstance(6, ((1, -2, 3), (2, 4, -6)))
    uniform = ksat_backtrack(cnf)
    biased = ksat_backtrack_biased(cnf, [{0: 0.5, 1: 0.5}] * 6)
    for seed in range(20):
        a = run(uniform, "lowest_index", seed=seed)
        b = run(biased, "lowest_index", seed=seed)
        assert a.final_state == b.final_state and a.steps == b.steps


def test_biased_point_mass_deterministic():
    cnf = CnfInstance(3, ((1, 2, 3),))
    dists = [{0: 0.0, 1: 1.0}] * 3
    problem = ksat_backtrack_biased(cnf, dists)
    rep = run(problem, "lowest_index", seed=0)
    assert rep.terminated and rep.final_state == bytes((1, 1, 1)) and rep.steps == 3


def test_biased_rejects_bad_distribution():
    cnf = CnfInstance(1, ((1,),))
    with pytest.raises(LllError, match="zero-probability"):
        ksat_backtrack_biased(cnf, [{0: 0.2, 1: 0.2}])


def test_biased_measure_weighs_the_drawn_law():
    """The draw gives 1 with probability 1 - p0; the measure weighs x1 = 1
    by that same number, not by the given p1 (0.2 is not 1 - 0.8 in floats)."""
    cnf = CnfInstance(2, ((1, 2),))
    problem = ksat_backtrack_biased(cnf, [{0: 0.8, 1: 0.2}] * 2)
    assert problem.weight(bytes([1, UNSET])) == 1 - 0.8


def test_biased_charge_table_matches_product_measure():
    cnf = CnfInstance(3, ((1, -2, 3),))
    dists = [{0: 0.3, 1: 0.7}, {0: 0.6, 1: 0.4}, {0: 0.5, 1: 0.5}]
    table = ksat_biased_table(cnf, dists)
    # violating assignment: x1=0, x2=1, x3=0
    expected = 0.3 * 0.4 * 0.5
    assert abs(table.entries["x1"][frozenset({"x1", "x2", "x3"})] - expected) < 1e-12
    assert table.entries["x1"][frozenset()] == 1.0
    assert clause_violation_probs(cnf, dists) == [pytest.approx(expected)]


def test_biased_charge_table_reads_the_drawn_law():
    """The table's clause charge is the measure's weight of the violating
    value, 1 - p0, not the given p1 (0.2 is not 1 - 0.8 in floats)."""
    cnf = CnfInstance(1, ((-1,),))
    dists = [{0: 0.8, 1: 0.2}]
    problem = ksat_backtrack_biased(cnf, dists)
    assert clause_violation_probs(cnf, dists) == [problem.weight(bytes([1]))] == [1 - 0.8]
    assert ksat_biased_table(cnf, dists).entries["x1"][frozenset({"x1"})] == 1 - 0.8
    with pytest.raises(LllError, match="zero-probability"):
        ksat_biased_table(cnf, [{0: 0.2, 1: 0.2}])
    with pytest.raises(LllError, match="one distribution per variable"):
        clause_violation_probs(cnf, dists * 2)


@pytest.mark.parametrize("law", [{0: math.nan, 1: 0.5}, {0: 0.5, 1: math.nan},
                                 {0: math.inf, 1: -math.inf}])
def test_biased_law_refuses_a_probability_that_is_not_finite(law):
    """NaN fails every comparison of the law check, so it used to pass."""
    with pytest.raises(LllError, match="probabilities must be finite"):
        ksat_backtrack_biased(CnfInstance(1, ((1,),)), [law])


def exact_backtrack_charges(problem):
    """(variable, introduced set) -> max over targets t of the incoming
    mass sum_s mu(s) A(s, t) / mu(t), by enumeration."""
    mu = problem.space.mu
    got: dict = {}

    def unassigned(state):
        return frozenset(problem.label(j) for j in problem.present_flaws(state))

    for s in problem.space.states:
        for i in problem.present_flaws(s):
            for t, p in action_law(problem)(i, s).items():
                before = unassigned(s)
                after = unassigned(t)
                intro = frozenset(after - (before - {f"x{i+1}"}))
                key = (f"x{i+1}", intro)
                got.setdefault(key, {})
                got[key][t] = got[key].get(t, 0.0) + mu[s] * p
    return {key: max(mass / mu[t] for t, mass in incoming.items())
            for key, incoming in got.items()}


# the second formula has two clauses over one variable set: their charges add
CHARGE_CNFS = (CnfInstance(4, ((1, 2, 3), (-2, 3, 4))), CnfInstance(3, ((1, 2, 3), (-1, -2, -3))))


def test_backtrack_charges_match_exact_enumeration():
    """The declared table gamma values dominate the exact per-(v, S)
    incoming-mass maxima on an enumerable instance."""
    for cnf in CHARGE_CNFS:
        table = ksat_backtrack_table(cnf)
        for (v, intro), exact in exact_backtrack_charges(ksat_backtrack(cnf)).items():
            declared = table.entries[v].get(intro, 0.0)
            assert exact <= declared + 1e-9
            if intro == frozenset():
                assert abs(exact - 0.5) < 1e-9
    whole = frozenset({"x1", "x2", "x3"})
    assert ksat_backtrack_table(CHARGE_CNFS[1]).entries["x1"][whole] == 1.0


@pytest.mark.parametrize("p0", [0.25, 0.5, 0.75])
def test_biased_charges_match_exact_enumeration(p0):
    """The biased table, under the product measure, dominates the exact
    charges, and is exact on the clause sets and the empty set."""
    for cnf in CHARGE_CNFS:
        dists = [{0: p0, 1: 1.0 - p0}] * cnf.num_vars
        table = ksat_biased_table(cnf, dists)
        for (v, intro), exact in exact_backtrack_charges(ksat_backtrack_biased(cnf, dists)).items():
            assert abs(exact - table.entries[v][intro]) < 1e-9
    whole = frozenset({"x1", "x2", "x3"})
    assert ksat_biased_table(CHARGE_CNFS[1], [{0: 0.5, 1: 0.5}] * 3).entries["x1"][whole] == 0.25


def test_count_partial_satisfying_matches_enumeration():
    cnf = CnfInstance(4, ((1, 2, 3), (-1, -2, 4)))
    problem = ksat_backtrack(cnf)
    states = list(problem.enumerate_states())
    assert count_partial_satisfying(cnf) == len(states)
    assert backtrack_lambda_init(cnf) == float(len(states))


def test_threshold_values():
    assert abs(backtracking_threshold(5) - 8192 / 3125) < 1e-12
    assert abs(backtracking_threshold(3) - (8 / 3) * (4 / 9)) < 1e-12
    assert abs(optimal_backtracking_weight(5) - 0.625) < 1e-12


def test_random_bounded_degree_respects_caps():
    rng = source_for_run(99, 0)
    cnf = random_bounded_degree_cnf(20, 5, 2, rng)
    assert cnf.degree() <= 2
    assert all(len(c) == 5 for c in cnf.clauses)
