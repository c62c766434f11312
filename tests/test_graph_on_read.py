"""The backtracking solvers' dependency graph is built on its first read:
a solve that reads only the flaw count builds none of it, and builds a
variable's backtrack reach only when a backtrack asks for it.  Whoever
reads ``adj`` sees the neighborhoods that an up-front build gives, in
the same iteration order."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lll_lab import cli
from lll_lab.build import build_problem
from lll_lab.core import recommended_strategy, run
from lll_lab.dependency import DependencyGraph
from lll_lab.solvers import CnfInstance, ksat_backtrack, ksat_mt


def eager_reach(cnf):
    """Every variable's neighborhood built up front: the variable, then
    the variables of each clause through it in clause order."""
    clauses_of = [[] for _ in range(cnf.num_vars)]
    for clause in cnf.clauses:
        vs = [abs(lit) - 1 for lit in clause]
        for u in vs:
            clauses_of[u].append(vs)
    reach = []
    for v, entries in enumerate(clauses_of):
        through = {v}
        for vs in entries:
            through.update(vs)
        reach.append(frozenset(through))
    return tuple(reach)


@st.composite
def cnfs(draw):
    """k-CNFs, k from 1 to 5, with every variable in at most ``degree``
    clauses (up to 4); some clauses reuse an earlier clause's variables."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 12))
    degree = draw(st.integers(1, 4))
    uses = [0] * (n + 1)
    clauses = []
    for _ in range(draw(st.integers(0, 14))):
        if clauses and draw(st.booleans()):
            vs = [abs(lit) for lit in draw(st.sampled_from(clauses))]
        else:
            vs = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        if any(uses[v] == degree for v in vs):
            continue
        for v in vs:
            uses[v] += 1
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in vs))
    return CnfInstance(n, tuple(clauses))


@settings(max_examples=150, deadline=None)
@given(cnf=cnfs(), data=st.data())
def test_adjacency_read_equals_the_up_front_build(cnf, data):
    graph = ksat_backtrack(cnf).graph
    # a backtrack may build some variables' reach before the graph is read
    for v in data.draw(st.lists(st.integers(0, cnf.num_vars - 1), max_size=4)):
        graph.neighbors(v)
    assert "adj" not in vars(graph)
    expected = eager_reach(cnf)
    assert graph.m == cnf.num_vars
    assert graph.adj == expected
    assert [list(a) for a in graph.adj] == [list(a) for a in expected]
    graph.check_symmetric()


def gen_ksat_text(capsys, n, k, degree, seed):
    assert cli.main(["gen", "ksat", "--n", str(n), "--k", str(k), "--degree", str(degree),
                     "--seed", str(seed)]) == 0
    return capsys.readouterr().out


def test_solve_builds_no_adjacency_and_few_reach_sets(capsys):
    n = 3200
    text = gen_ksat_text(capsys, n, 5, 2, 11)
    problem = build_problem({"solver": "ksat-backtrack", "instance_text": text})
    report = run(problem, recommended_strategy(problem), seed=11)
    assert report.terminated and report.steps > n
    assert "adj" not in vars(problem.graph)
    built = problem.graph.neighbors.cache_info().currsize
    assert 0 < built < n / 10


def test_trace_and_verify_read_the_full_adjacency(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.cnf"
    path.write_text(gen_ksat_text(capsys, 8, 3, 2, 4))
    built = []  # the problems the CLI builds
    monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(build_problem(spec))
                        or built[-1])
    assert cli.main(["solve", "ksat-backtrack", str(path), "--seed", "3", "--trace"]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert trace["witness_trees"] and trace["witness_forest"]["num_steps"] > 0
    assert cli.main(["verify", "ksat-backtrack", str(path), "--suite", "distribution",
                     "--psi", "0.3", "--runs", "50", "--seed", "3"]) == 0
    assert len(built) == 2
    cnf = built[0].metadata["cnf"]
    for problem in built:
        assert vars(problem.graph)["adj"] == eager_reach(cnf)
        assert problem.graph.neighbors.cache_info().currsize == cnf.num_vars


def test_up_front_graphs_hold_adj_as_a_plain_field():
    """Only an on-read graph's class carries ``adj`` as a property: on
    ``DependencyGraph`` itself a class attribute of that name would keep
    CPython from specializing the reads of every solver's graph."""
    assert not hasattr(DependencyGraph, "adj")
    graph = ksat_mt(CnfInstance(4, ((1, -2), (2, 3), (-4,)))).graph
    assert type(graph) is DependencyGraph
    assert vars(graph)["adj"] == (frozenset({0, 1}), frozenset({0, 1}), frozenset({2}))
    assert type(ksat_backtrack(CnfInstance(3, ((1, -2),))).graph) is not DependencyGraph
