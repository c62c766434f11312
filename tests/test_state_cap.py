"""One capped entry to oracle mode: every exact consumer reads
``problem.space``, which refuses a space past ``core.STATE_CAP`` before
any flaw scan, and under a ``ScopeLaw`` before drawing a state."""

import dataclasses
from collections import Counter

import pytest

from lll_lab import chain, core
from lll_lab.analysis import (PartialAvoidanceConfig, check_event_probability,
                              check_witness_tree_lemma, coloring_weight_analysis, labeled_problem,
                              output_distribution)
from lll_lab.core import LllError, all_charges, computed_init_ratio, event_charge, measure_of_flaws
from lll_lab.solvers import (CnfInstance, GraphInstance, WeightSpec, aec_backtrack, ksat_backtrack,
                             ksat_mt, variables, vertex_coloring_greedy)


def ksat_scoped():
    return ksat_mt(CnfInstance(5, ((1, 2, 3), (-3, 4, 5))))


def ksat_dictionary():
    problem = ksat_scoped()
    law = problem.action_distribution
    return dataclasses.replace(problem, action_distribution=lambda i, s: law(i, s))


def coloring():
    g = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    return vertex_coloring_greedy(g, 3, WeightSpec((0,), {0: 1}, {0: lambda colors: 1.0}))


PROBLEMS = {"ksat-scoped": ksat_scoped, "ksat-dictionary": ksat_dictionary,
            "coloring": coloring}
CONSUMERS = {
    "all_charges": all_charges,
    "event_charge": lambda p: event_charge(p, lambda s: True, lambda s: {s: 1.0}),
    "measure_of_flaws": measure_of_flaws,
    # a start from mu needs no space; a stated law is read over it
    "computed_init_ratio": lambda p: computed_init_ratio(
        dataclasses.replace(p, init_distribution=lambda s: 1.0)),
    "build_chain_tables": chain.build_chain_tables,
    "event": lambda p: check_event_probability(p, lambda s: True, psi=[0.1] * p.num_flaws,
                                               runs=10),
    "output_distribution": lambda p: output_distribution(p, psi=[0.1] * p.num_flaws, runs=10),
    "coloring_weight_analysis": lambda p: coloring_weight_analysis(p, runs=10),
}
CASES = [(problem, consumer) for problem in PROBLEMS for consumer in CONSUMERS
         if problem == "coloring" or consumer != "coloring_weight_analysis"]


def counted(problem, calls):
    """``problem`` with its flaw scans and its enumeration counted."""
    present, flaws_present = problem.present, problem.flaws_present
    enumerate_states = problem.enumerate_states

    def counting_present(i, s):
        calls["present"] += 1
        return present(i, s)

    def counting_flaws_present(s):
        calls["flaws_present"] += 1
        return flaws_present(s)

    def counting_enumerate():
        for s in enumerate_states():
            calls["states"] += 1
            yield s

    return dataclasses.replace(
        problem, present=counting_present, enumerate_states=counting_enumerate,
        flaws_present=counting_flaws_present if flaws_present is not None else None)


@pytest.mark.parametrize("name,consumer", CASES)
def test_consumers_refuse_past_the_cap_before_any_flaw_scan(monkeypatch, name, consumer):
    calls = Counter()
    problem = counted(PROBLEMS[name](), calls)
    states = len(list(PROBLEMS[name]().enumerate_states()))
    cap = states // 4
    monkeypatch.setattr(core, "STATE_CAP", cap)
    with pytest.raises(LllError, match="^state space exceeds oracle cap$"):
        CONSUMERS[consumer](problem)
    assert calls["present"] == calls["flaws_present"] == 0
    # under a ScopeLaw the count refuses before the first state is drawn
    assert calls["states"] == (0 if name == "ksat-scoped" else cap + 1)
    assert "space" not in problem.__dict__


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_a_space_at_the_cap_is_built(monkeypatch, name):
    problem = PROBLEMS[name]()
    states = len(list(PROBLEMS[name]().enumerate_states()))
    monkeypatch.setattr(core, "STATE_CAP", states)
    assert len(problem.space.states) == states
    assert all_charges(problem) == all_charges(PROBLEMS[name]())


def test_capped_space_applies_only_a_lower_cap(monkeypatch):
    problem = ksat_scoped()
    monkeypatch.setattr(core, "STATE_CAP", 16)
    with pytest.raises(LllError, match="^state space exceeds oracle cap$"):
        core.capped_space(problem, 64, "over 64")
    with pytest.raises(LllError, match="^over 8$"):
        core.capped_space(problem, 8, "over 8")
    monkeypatch.setattr(core, "STATE_CAP", 32)
    space = core.capped_space(problem, 64, "over 64")
    assert space is problem.space and len(space.states) == 32
    with pytest.raises(LllError, match="^over 8$"):
        core.capped_space(problem, 8, "over 8")


def matching(edges):
    return GraphInstance.from_edge_list(2 * edges, [(2 * e, 2 * e + 1) for e in range(edges)])


def test_backtracking_spaces_are_refused_by_count(monkeypatch):
    """A 6-edge matching at q = 10 has 11^6 partial colorings, past the
    cap: it declares no enumeration, so a suite refuses it without
    drawing a state (it used to draw 10^6 + 1 first).  11^5 colorings
    and the 3^12 assignments of a 12-variable ksat-backtrack still fit."""
    with pytest.raises(LllError, match="oracle mode"):
        check_witness_tree_lemma(aec_backtrack(matching(6), 10), runs=10)
    assert aec_backtrack(matching(5), 10).enumerate_states is not None
    cnf = CnfInstance(12, tuple((v, v + 1, v + 2) for v in range(1, 11)))
    assert ksat_backtrack(cnf).enumerate_states is not None
    # the count decides at the cap itself: 3 edges at q = 2 have 3^3 = 27
    monkeypatch.setattr(variables, "STATE_CAP", 26)
    assert aec_backtrack(matching(3), 2).enumerate_states is None
    monkeypatch.setattr(variables, "STATE_CAP", 27)
    calls = Counter()
    assert len(counted(aec_backtrack(matching(3), 2), calls).space.states) == 27
    assert calls["states"] == 27


def test_labeled_space_is_refused_by_count(monkeypatch):
    """Base states times label vectors past the cap is refused before
    the labeled enumeration yields a state; the base is drawn once."""
    base_calls, calls = Counter(), Counter()
    base = counted(ksat_scoped(), base_calls)
    cfg = PartialAvoidanceConfig.build(base, [0.05, 0.05])
    assert all(0.0 < p < 1.0 for p in cfg.keep_probs)  # 4 label vectors, 32 * 4 states
    monkeypatch.setattr(core, "STATE_CAP", 32 * 4 - 1)
    labeled = counted(labeled_problem(base, cfg), calls)
    with pytest.raises(LllError, match="^state space exceeds oracle cap$"):
        labeled.space
    assert calls["states"] == 0 and base_calls["states"] == 32
    monkeypatch.setattr(core, "STATE_CAP", 32 * 4)
    assert len(labeled_problem(ksat_scoped(), cfg).space.states) == 32 * 4
