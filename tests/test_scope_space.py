"""Oracle mode of the variable setting built from state ids: the present
lists and rows that ``StateSpace`` reads off a ``ScopeLaw`` by scope
arithmetic, against the dictionary path that the same law takes once it
is wrapped in a plain callable."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_lab import chain, cli, core
from lll_lab.core import (LllError, ScopeLaw, all_charges, capped_space, measure_of_flaws,
                          validate_problem)
from lll_lab.solvers import CnfInstance, GraphInstance, aec_clique_mt, ksat_mt
from lll_lab.witness import check_commutativity


def dictionary_built(problem):
    """The same problem with its law behind a plain callable, which the
    space builds from per-state dictionaries."""
    law = problem.action_distribution
    return dataclasses.replace(problem, action_distribution=lambda i, s: law(i, s))


@st.composite
def cnfs(draw):
    n = draw(st.integers(2, 8))
    clauses = []
    for _ in range(draw(st.integers(1, 5))):
        scope = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
        clauses.append(tuple(sorted((v if draw(st.booleans()) else -v for v in scope), key=abs)))
    return ksat_mt(CnfInstance(n, tuple(clauses)))


@st.composite
def colorings(draw):
    q = draw(st.sampled_from([2, 3]))
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=9 if q == 2 else 6,
                          unique=True))
    return aec_clique_mt(GraphInstance.from_edge_list(5, edges), q)[0]


@settings(max_examples=40, deadline=None)
@given(problem=st.one_of(cnfs(), colorings()), data=st.data())
def test_array_space_equals_the_dictionary_space(problem, data):
    reference = dictionary_built(problem)
    space, ref = problem.space, reference.space
    assert space.scoped is problem.action_distribution and ref.scoped is None
    m = problem.num_flaws
    for i in range(m):
        got, want = space.members[i], ref.members[i]
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        for got, want in zip(space.rows(i), ref.rows(i)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    priority = data.draw(st.permutations(range(m)))
    for order in (None, priority):
        got = chain.build_chain_tables(problem, order)
        want = chain.build_chain_tables(reference, order)
        for name in ("absorbing", "chosen_flaw", "row_targets", "row_cum", "init_ids",
                     "init_cum"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert check_commutativity(problem) == check_commutativity(reference)
    assert all_charges(problem) == all_charges(reference)
    assert measure_of_flaws(problem) == measure_of_flaws(reference)
    # with a flawless state every run is absorbed: addressing a flaw can
    # rewrite its scope to agree with that state, one variable more each time
    tables = chain.build_chain_tables(problem)
    if tables.absorbing.any() and (~tables.absorbing).sum() <= chain.DENSE_TRANSIENT_CAP:
        got = chain.exact_statistics(tables)
        want = chain.exact_statistics(chain.build_chain_tables(reference))
        assert got.expected_steps == want.expected_steps
        assert np.array_equal(got.expected_flaw_counts, want.expected_flaw_counts)
        assert got.absorption == want.absorption


# three clauses on five variables: 32 states, enumerable and commutative
CNF = "p cnf 5 3\n1 2 3 0\n-1 -2 4 0\n3 -4 5 0\n"


@pytest.mark.parametrize("suite", [["--suite", "distribution", "--psi", "0.25"],
                                   ["--suite", "witness"]])
def test_cli_suites_scan_no_state_and_call_no_law(tmp_path, capsys, monkeypatch, suite):
    calls = Counter()
    scan, law = core.SearchProblem.present_flaws, ScopeLaw.__call__

    def counting_scan(self, state):
        calls["present_flaws"] += 1
        return scan(self, state)

    def counting_law(self, i, state):
        calls["law"] += 1
        return law(self, i, state)

    monkeypatch.setattr(core.SearchProblem, "present_flaws", counting_scan)
    monkeypatch.setattr(ScopeLaw, "__call__", counting_law)
    path = tmp_path / "f.cnf"
    path.write_text(CNF)
    assert cli.main(["verify", "ksat-mt", str(path), *suite, "--runs", "2000",
                     "--seed", "3"]) == 0
    capsys.readouterr()
    assert calls == Counter()


def test_capped_space_refuses_before_drawing_a_state():
    problem = ksat_mt(CnfInstance(12, ((1, 2, 3), (-4, 5, 12))))
    drawn = Counter()
    enumerate_states = problem.enumerate_states

    def counting_enumerate():
        for s in enumerate_states():
            drawn["states"] += 1
            yield s

    counted = dataclasses.replace(problem, enumerate_states=counting_enumerate)
    with pytest.raises(LllError, match="^too many states$"):
        capped_space(counted, 2**12 - 1, "too many states")
    assert drawn == Counter() and "space" not in counted.__dict__
    space = capped_space(counted, 2**12, "too many states")
    assert drawn["states"] == 2**12 and space.scoped is not None
    assert counted.space is space


def test_validate_catches_a_present_that_reads_outside_its_scope():
    """Flaw 1 reads x1 as well as its clause's x2, x3: the tables, read on
    a probe state holding 0 outside each scope, miss the states where it
    also needs x1 = 1, and only the scan finds them."""
    problem = ksat_mt(CnfInstance(3, ((1, 2), (2, 3))))
    validate_problem(problem)
    reads_x1 = dataclasses.replace(
        problem, present=lambda i, s: problem.present(i, s) or (i == 1 and s == (1, 1, 1)))
    assert reads_x1.space.scoped is not None
    with pytest.raises(LllError, match=r"^scope tables list \[\] where present finds \[1\]$"):
        validate_problem(reads_x1)
    # the dictionary path scans every state with ``present`` itself
    assert 7 not in reads_x1.space.members[1]
    assert 7 in dictionary_built(reads_x1).space.members[1]


def test_validate_reads_the_array_built_rows(monkeypatch):
    """One wrong target in flaw 0's array-built row: the charge and the
    chain read that row, so ``validate_problem`` checks it, not the law."""
    cnf = CnfInstance(3, ((1, 2, 3), (-1, 2)))
    validate_problem(ksat_mt(cnf))
    scope_rows = core.StateSpace._scope_rows

    def one_wrong_target(self, i):
        rows = scope_rows(self, i)
        if i == 0:  # (0, 0, 0) steps to (0, 0, 1) where the law says (0, 0, 0)
            rows = rows._replace(targets=np.where(np.arange(rows.targets.size) == 0, 1,
                                                  rows.targets))
        return rows

    monkeypatch.setattr(core.StateSpace, "_scope_rows", one_wrong_target)
    wrong = ksat_mt(cnf)
    assert core.charge(wrong, 0) == 0.25 and wrong.declared_charges[0] == 0.125
    with pytest.raises(LllError, match=r"^inconsistent actions: flaw 0 at \(0, 0, 0\) declares "
                                       r"a law its sampler does not follow$"):
        validate_problem(wrong)
