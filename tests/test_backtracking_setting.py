"""``backtracking_setting`` against the hand-written closures that the
backtracking solvers (``ksat_backtrack``, ``ksat_backtrack_biased`` and
``aec_backtrack``) carried before they were built through it, kept here
as references: the same present flaws, graph, unassigned sets (read
off the labels of the present flaws), enumeration, exact distributions
replayed from the sampler (keys, key order and float bits) and draws
from equal streams.  The derived ``affects`` must pass
``validate_problem`` and return ``(i,)`` on every step that does not
backtrack."""

import itertools
import random
from operator import itemgetter

import pytest

from lll_lab.core import action_law, validate_problem
from lll_lab.criteria import DependencyGraph
from lll_lab.rng import exact_distribution, source_for_run
from lll_lab.solvers import GraphInstance, aec_backtrack, ksat_backtrack, ksat_backtrack_biased
from lll_lab.solvers.aec import (UNCOLORED, _coloring_canon, bichromatic_cycle_through,
                                 coloring_is_acyclic, four_available, random_bounded_degree_graph)
from lll_lab.solvers.ksat import UNSET, random_bounded_degree_cnf


# ---------------------------------------------------------------------------
# references: the closures as they were written per solver


def reference_ksat_backtrack(cnf, value_probs, product_measure):
    n = cnf.num_vars
    clauses_of = [[] for _ in range(n)]
    adj_sets = [{v} for v in range(n)]
    falsifying = bytearray(n)
    for clause in cnf.clauses:
        vs = [abs(lit) - 1 for lit in clause]
        for lit, u in zip(clause, vs):
            falsifying[u] = 0 if lit > 0 else 1
        get = itemgetter(*vs)
        entry = (vs, get, get(falsifying))
        for u in vs:
            clauses_of[u].append(entry)
            adj_sets[u].update(vs)
    adj = tuple(map(frozenset, adj_sets))

    def violated_clause(vals, v):
        for vs, get, want in clauses_of[v]:
            if get(vals) == want:
                return vs
        return None

    def assign_outcome(state, v, val):
        vals = bytearray(state)
        vals[v] = val
        vs = violated_clause(vals, v)
        if vs is not None:
            for u in vs:
                vals[u] = UNSET
        return bytes(vals)

    def sample_action(i, state, rng):
        p0 = value_probs[i][0]
        val = 0 if rng.u01() < p0 else 1
        return assign_outcome(state, i, val)

    def action_distribution(i, state):
        out = {}
        for val in (0, 1):
            p = value_probs[i][val]
            if p > 0.0:
                nxt = assign_outcome(state, i, val)
                out[nxt] = out.get(nxt, 0.0) + p
        return out

    def product_weight(state):
        w = 1.0
        for v in range(n):
            val = state[v]
            if val != UNSET:
                w *= value_probs[v][val]
        return w

    empty = bytes([UNSET]) * n

    def enumerate_states():
        vals = bytearray(empty)

        def rec(v):
            if v == n:
                yield bytes(vals)
                return
            for val in (UNSET, 0, 1):
                vals[v] = val
                if val == UNSET or violated_clause(vals, v) is None:
                    yield from rec(v + 1)
            vals[v] = UNSET

        return rec(0)

    return dict(
        present=lambda i, state: state[i] == UNSET,
        sample_action=sample_action,
        graph=DependencyGraph(n, adj),
        sample_init=lambda rng: empty,
        canon=bytes,
        weight=product_weight if product_measure else (lambda s: 1.0),
        action_distribution=action_distribution,
        enumerate_states=enumerate_states if n <= 12 else None,
        init_distribution=(lambda s: 1.0 if s == empty else 0.0),
        unassigned=lambda s: frozenset(f"x{v}" for v in range(1, n + 1) if s[v - 1] == UNSET),
        flaw_labels=tuple(f"x{v}" for v in range(1, n + 1)),
    )


def reference_aec_backtrack(g, q):
    m = len(g.edges)
    incident = g.incident()

    def _outcome(state, edge_id, color):
        test = list(state)
        test[edge_id] = color
        cycles = []
        (u, v) = g.edges[edge_id]
        nearby_colors = set()
        for ei in incident[u]:
            if ei != edge_id and test[ei] != UNCOLORED:
                nearby_colors.add(test[ei])
        for c2 in nearby_colors:
            cyc = bichromatic_cycle_through(g, test, edge_id, c2)
            if cyc is not None and len(cyc) >= 6:
                cycles.append(cyc)
        if cycles:
            cyc = min(cycles, key=lambda path: tuple(sorted(path)))
            for ei in cyc[:-2]:
                test[ei] = UNCOLORED
        return tuple(test)

    def sample_action(i, state, rng):
        avail = four_available(g, state, i, q, incident)
        color = avail[rng.randint(len(avail))]
        return _outcome(state, i, color)

    def action_distribution(i, state):
        avail = four_available(g, state, i, q, incident)
        p = 1.0 / len(avail)
        out = {}
        for c in avail:
            nxt = _outcome(state, i, c)
            out[nxt] = out.get(nxt, 0.0) + p
        return out

    blank = tuple([UNCOLORED] * m)
    all_flaws = frozenset(range(m))

    def enumerate_states():
        def rec(prefix):
            if len(prefix) == m:
                yield tuple(prefix)
                return
            prefix.append(UNCOLORED)
            yield from rec(prefix)
            prefix.pop()
            for c in range(q):
                cand = prefix + [c] + [UNCOLORED] * (m - len(prefix) - 1)
                if coloring_is_acyclic(g, cand):
                    prefix.append(c)
                    yield from rec(prefix)
                    prefix.pop()

        return rec([])

    return dict(
        present=lambda i, state: state[i] == UNCOLORED,
        sample_action=sample_action,
        graph=DependencyGraph(m, (all_flaws,) * m),
        sample_init=lambda rng: blank,
        canon=_coloring_canon(1, q),
        weight=lambda s: 1.0,
        action_distribution=action_distribution,
        enumerate_states=enumerate_states if m <= 6 and q <= 10 else None,
        init_distribution=(lambda s: 1.0 if s == blank else 0.0),
        unassigned=lambda s: frozenset(f"e{i}" for i in range(m) if s[i] == UNCOLORED),
        flaw_labels=tuple(f"e{i}" for i in range(m)),
    )


# ---------------------------------------------------------------------------
# instances


def small_cnf(seed):
    rng = source_for_run(seed, 0)
    return random_bounded_degree_cnf(4 + seed % 5, 2 + seed % 2, 2 + seed % 3, rng)


def small_graph(seed):
    rng = source_for_run(seed, 1)
    return random_bounded_degree_graph(5 + seed % 3, 3, rng, target_edges=4 + seed % 2)


HEXAGON = GraphInstance.from_edge_list(6, [(v, (v + 1) % 6) for v in range(6)])


def cases():
    for seed in range(6):
        cnf = small_cnf(seed)
        uniform = ((0.5, 0.5),) * cnf.num_vars
        yield f"ksat-{seed}", ksat_backtrack(cnf), reference_ksat_backtrack(cnf, uniform, False)
    for seed, p0 in itertools.product(range(2), (0.0, 0.25, 0.5, 1.0)):
        cnf = small_cnf(seed + 6)
        dists = [{0: p0, 1: 1.0 - p0}] * cnf.num_vars
        probs = ((p0, 1.0 - p0),) * cnf.num_vars
        yield (f"biased-{seed}-p{p0}", ksat_backtrack_biased(cnf, dists),
               reference_ksat_backtrack(cnf, probs, True))
    for seed, q in zip(range(4), (5, 6, 7, 7)):
        g = small_graph(seed)
        yield f"aec-{seed}-q{q}", aec_backtrack(g, q), reference_aec_backtrack(g, q)
    # a bichromatic 6-cycle can close: the only way an aec step backtracks
    yield "aec-hexagon-q5", aec_backtrack(HEXAGON, 5), reference_aec_backtrack(HEXAGON, 5)
    rng = source_for_run(5, 2)
    wide = random_bounded_degree_graph(12, 3, rng, target_edges=16)
    yield "aec-wide-q5", aec_backtrack(wide, 5), reference_aec_backtrack(wide, 5)


CASES = list(cases())


def bits(dist):
    return [(k, p.hex()) for k, p in dist.items()]


def walk(fields, m, run_index):
    """States of a lowest-index run drawn from the run's stream with the
    ``present``, ``sample_init`` and ``sample_action`` of ``fields``."""
    rng = source_for_run(11, run_index)
    state = fields["sample_init"](rng)
    states = [state]
    for _ in range(40 * m):
        present = [i for i in range(m) if fields["present"](i, state)]
        if not present:
            break
        state = fields["sample_action"](min(present), state, rng)
        states.append(state)
    return states


def port_fields(problem):
    return dict(present=problem.present, sample_init=problem.sample_init,
                sample_action=problem.sample_action)


@pytest.mark.parametrize("problem,ref", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_port_matches_the_hand_written_closures(problem, ref):
    m = problem.num_flaws
    assert problem.graph.m == ref["graph"].m == m
    assert [list(a) for a in problem.graph.adj] == [list(a) for a in ref["graph"].adj]
    assert problem.flaw_labels == ref["flaw_labels"]
    assert problem.metadata["strategy"] == "lowest_index"
    assert problem.sample_init(source_for_run(0, 0)) == ref["sample_init"](source_for_run(0, 0))
    walks = [walk(port_fields(problem), m, run) for run in range(4)]
    assert walks == [walk(ref, m, run) for run in range(4)]
    if problem.enumerate_states is None:
        assert ref["enumerate_states"] is None
        states = sorted({s for states in walks for s in states})
    else:
        states = list(problem.enumerate_states())
        assert states == list(ref["enumerate_states"]())
    for s in states:
        present = problem.present_flaws(s)
        assert present == [i for i in range(m) if ref["present"](i, s)]
        assert frozenset(problem.label(i) for i in present) == ref["unassigned"](s)
        assert problem.canon(s) == ref["canon"](s)
        assert problem.weight(s).hex() == ref["weight"](s).hex()
        assert problem.init_distribution(s) == ref["init_distribution"](s)
        for i in present:
            dist = exact_distribution(problem.sample_action, i, s)
            assert bits(dist) == bits(ref["action_distribution"](i, s))
            for t in dist:
                stepped = t[i] != s[i]  # i assigned: no backtrack
                assert list(problem.affects(i, t)) == (
                    [i] if stepped else list(problem.graph.adj[i]))


@pytest.mark.parametrize("problem", [c[1] for c in CASES if c[1].enumerate_states is not None],
                         ids=[c[0] for c in CASES if c[1].enumerate_states is not None])
def test_derived_problem_validates(problem):
    validate_problem(problem)


def test_cases_cover_backtracks():
    """Some enumerated transition of each solver backtracks, leaving the
    addressed variable unassigned, so the ``reach`` branch of ``affects``
    is checked."""
    backtracked = set()
    for name, problem, _ in CASES:
        if problem.enumerate_states is None:
            continue
        law = action_law(problem)
        for s in problem.space.states:
            for i in problem.present_flaws(s):
                if any(t[i] == s[i] for t in law(i, s)):
                    backtracked.add(name.split("-")[0])
    assert backtracked == {"ksat", "biased", "aec"}


def test_random_states_draw_alike():
    """Equal streams give equal draws at states no lowest-index run visits."""
    rng = random.Random(3)
    for name, problem, ref in CASES:
        if problem.enumerate_states is None:
            continue
        states = problem.space.states
        for _ in range(20):
            s = states[rng.randrange(len(states))]
            present = problem.present_flaws(s)
            if not present:
                continue
            i = rng.choice(present)
            k = rng.randrange(100)
            assert problem.sample_action(i, s, source_for_run(k, 3)) == \
                ref["sample_action"](i, s, source_for_run(k, 3))
