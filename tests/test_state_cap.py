"""One capped entry to oracle mode: every exact consumer reads
``problem.space``, which refuses a space past ``core.STATE_CAP`` before
any flaw scan, and under a ``ScopeLaw`` before drawing a state."""

import dataclasses
from collections import Counter

import pytest

from lll_lab import chain, core
from lll_lab.analysis import check_event_probability, coloring_weight_analysis, output_distribution
from lll_lab.core import LllError, all_charges, computed_init_ratio, event_charge, measure_of_flaws
from lll_lab.solvers import (CnfInstance, GraphInstance, WeightSpec, ksat_mt,
                             vertex_coloring_greedy)


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
    "computed_init_ratio": lambda p: computed_init_ratio(dataclasses.replace(p, init_ratio=None)),
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
