"""One enumeration per problem: every exact computation of a CLI suite
reads the problem's shared ``StateSpace``.

The built problem is wrapped, as the benchmark's tracer wraps it, with
counting ``enumerate_states`` and ``action_distribution`` callables.
"""

import dataclasses
from collections import Counter

import pytest

from lll_lab import cli, core

# three clauses on five variables: 32 states, enumerable and commutative
CNF = "p cnf 5 3\n1 2 3 0\n-1 -2 4 0\n3 -4 5 0\n"


@pytest.fixture
def counted(monkeypatch):
    calls = Counter()
    dists = Counter()
    build = cli.build_problem

    def counting_build(spec):
        problem = build(spec)
        enumerate_states = problem.enumerate_states
        action_distribution = problem.action_distribution

        def counting_enumerate():
            calls["enumerate_states"] += 1
            return enumerate_states()

        def counting_distribution(i, s):
            dists[i, s] += 1
            return action_distribution(i, s)

        return dataclasses.replace(problem, enumerate_states=counting_enumerate,
                                   action_distribution=counting_distribution)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    return calls, dists


@pytest.mark.parametrize("suite", [["--suite", "distribution", "--psi", "0.25"],
                                   ["--suite", "witness"]])
def test_one_enumeration_per_cli_suite(tmp_path, capsys, counted, suite):
    calls, dists = counted
    path = tmp_path / "f.cnf"
    path.write_text(CNF)
    assert cli.main(["verify", "ksat-mt", str(path), *suite, "--runs", "2000",
                     "--seed", "3"]) == 0
    capsys.readouterr()
    assert calls["enumerate_states"] == 1
    assert dists and max(dists.values()) == 1


def test_event_suite_builds_one_state_space(tmp_path, capsys, monkeypatch, counted):
    """The event's commutativity pairs and its charge read the base
    problem's space: no second space is built for the extension.  The
    event neighbors every flaw, so no pair and no flaw's law is read."""
    calls, dists = counted
    built = []
    init = core.StateSpace.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(core.StateSpace, "__init__", counting_init)
    path = tmp_path / "f.cnf"
    path.write_text(CNF)
    assert cli.main(["verify", "ksat-mt", str(path), "--suite", "event", "--psi", "0.3",
                     "--runs", "2000", "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(built) == 1 and calls["enumerate_states"] == 1 and not dists
