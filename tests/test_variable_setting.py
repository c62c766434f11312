"""``variable_setting`` against the hand-written closures that ``ksat_mt``
and ``aec_clique_mt`` carried before they were built through it, kept
here as references: the same graph, ``affects``, exact distributions
(keys, key order and float bits), the same draws from equal streams and
the same present flaws."""

import itertools
import random

import pytest

from lll_lab.criteria import DependencyGraph
from lll_lab.rng import source_for_run
from lll_lab.solvers import CnfInstance, GraphInstance, aec_clique_mt, ksat_mt
from lll_lab.solvers.aec import (_cycle_order_from, enumerate_even_cycles,
                                 enumerate_two_paths, random_bounded_degree_graph)
from lll_lab.solvers.ksat import random_bounded_degree_cnf


# ---------------------------------------------------------------------------
# references: the closures as they were written per solver


def reference_ksat_mt(cnf):
    m = len(cnf.clauses)
    n = cnf.num_vars
    clause_var_lists = [sorted(cnf.clause_vars(i)) for i in range(m)]
    graph = DependencyGraph.from_scopes(clause_var_lists)

    def sample_action(i, state, rng):
        vals = list(state)
        for v in clause_var_lists[i]:
            vals[v - 1] = 1 if rng.coin() else 0
        return tuple(vals)

    def action_distribution(i, state):
        out = {}
        kvars = clause_var_lists[i]
        p = 0.5 ** len(kvars)
        for combo in itertools.product((0, 1), repeat=len(kvars)):
            vals = list(state)
            for v, b in zip(kvars, combo):
                vals[v - 1] = b
            out[tuple(vals)] = out.get(tuple(vals), 0.0) + p
        return out

    def sample_init(rng):
        return tuple(1 if rng.coin() else 0 for _ in range(n))

    return dict(
        graph=graph,
        present=lambda i, state: cnf.violated(state, i),
        affects=lambda i, s: graph.adj[i],
        sample_action=sample_action,
        action_distribution=action_distribution,
        sample_init=sample_init,
        enumerate_states=lambda: itertools.product((0, 1), repeat=n),
        init_distribution=lambda s: 0.5 ** n,
    )


def reference_aec_clique_mt(g, q):
    m_edges = len(g.edges)
    paths = enumerate_two_paths(g)
    cycles = list(enumerate_even_cycles(g))
    flaw_edges = [tuple(p) for p in paths] + [tuple(cy) for cy in cycles]
    graph = DependencyGraph.from_scopes(flaw_edges)
    ordered_cycles = [_cycle_order_from(g, cy, cy[0]) for cy in cycles]
    num_paths = len(paths)

    def _is_bichromatic(state, ordered):
        c0 = state[ordered[0]]
        c1 = state[ordered[1]]
        if c0 == c1:
            return False
        for pos, ei in enumerate(ordered):
            if state[ei] != (c0 if pos % 2 == 0 else c1):
                return False
        return True

    def present(i, state):
        es = flaw_edges[i]
        if i < num_paths:
            return state[es[0]] == state[es[1]]
        return _is_bichromatic(state, ordered_cycles[i - num_paths])

    def sample_action(i, state, rng):
        vals = list(state)
        for ei in flaw_edges[i]:
            vals[ei] = rng.randint(q)
        return tuple(vals)

    def action_distribution(i, state):
        es = flaw_edges[i]
        p = (1.0 / q) ** len(es)
        out = {}
        for combo in itertools.product(range(q), repeat=len(es)):
            vals = list(state)
            for ei, col in zip(es, combo):
                vals[ei] = col
            key = tuple(vals)
            out[key] = out.get(key, 0.0) + p
        return out

    def sample_init(rng):
        return tuple(rng.randint(q) for _ in range(m_edges))

    return dict(
        graph=graph,
        present=present,
        affects=lambda i, s: graph.adj[i],
        sample_action=sample_action,
        action_distribution=action_distribution,
        sample_init=sample_init,
        enumerate_states=lambda: itertools.product(range(q), repeat=m_edges),
        init_distribution=lambda s: (1.0 / q) ** m_edges,
    )


# ---------------------------------------------------------------------------
# instances


def small_cnf(seed):
    rng = source_for_run(seed, 0)
    n = 4 + seed % 5
    return random_bounded_degree_cnf(n, 2 + seed % 2, 2 + seed % 3, rng)


def small_graph(seed):
    rng = source_for_run(seed, 1)
    return random_bounded_degree_graph(5 + seed % 3, 3, rng, target_edges=5 + seed % 3)


def cases():
    for seed in range(8):
        cnf = small_cnf(seed)
        if cnf.clauses:
            yield f"ksat-{seed}", ksat_mt(cnf), reference_ksat_mt(cnf), 2
    for seed, q in itertools.product(range(4), (2, 3)):
        g = small_graph(seed)
        yield f"aec-{seed}-q{q}", aec_clique_mt(g, q)[0], reference_aec_clique_mt(g, q), q


CASES = list(cases())


def bits(dist):
    return [(k, p.hex()) for k, p in dist.items()]


@pytest.mark.parametrize("problem,ref,q", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_port_matches_the_hand_written_closures(problem, ref, q):
    assert problem.graph.m == ref["graph"].m == problem.num_flaws
    assert [list(a) for a in problem.graph.adj] == [list(a) for a in ref["graph"].adj]
    rng = random.Random(problem.num_flaws)
    n = len(ref["sample_init"](source_for_run(0, 0)))
    states = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(6)]
    for s in states:
        for i in range(problem.num_flaws):
            assert list(problem.affects(i, s)) == list(ref["affects"](i, s))
            assert bits(problem.action_distribution(i, s)) == bits(ref["action_distribution"](i, s))
    for run in range(4):
        ours, theirs = source_for_run(7, run), source_for_run(7, run)
        s, t = problem.sample_init(ours), ref["sample_init"](theirs)
        assert s == t
        for step in range(3 * problem.num_flaws):
            i = step % problem.num_flaws
            s, t = problem.sample_action(i, s, ours), ref["sample_action"](i, t, theirs)
            assert s == t
    assert problem.init_distribution is None  # runs start from the measure
    if problem.enumerate_states is not None:
        listed = list(problem.enumerate_states())
        assert listed == list(ref["enumerate_states"]())
        assert [problem.space.mu[s] for s in listed] == pytest.approx(
            [ref["init_distribution"](s) for s in listed], rel=1e-12)
        assert [problem.present_flaws(s) for s in listed] == [
            [i for i in range(problem.num_flaws) if ref["present"](i, s)] for s in listed]


def test_enumeration_follows_the_declared_bound():
    # 2^20 states exceed ``core.STATE_CAP``, which ``problem.space`` enforces
    wide = CnfInstance(20, ((1, 2, 3),))
    assert ksat_mt(wide).enumerate_states is None
    assert ksat_mt(CnfInstance(19, ((1, 2, 3),))).enumerate_states is not None
    path = lambda n: GraphInstance.from_edge_list(n + 1, [(v, v + 1) for v in range(n)])
    assert aec_clique_mt(path(12), 3)[0].enumerate_states is None  # 3^12 > 400,000
    assert aec_clique_mt(path(11), 3)[0].enumerate_states is not None
