"""Action laws replayed from the samplers (``rng.exact_distribution``)
against the laws the solvers used to write by hand, kept here as
references: vertex coloring's, the rainbow switch walk's in ``Fraction``
arithmetic and ``labeled_problem``'s.  The backtracking solvers' laws are
compared with their references in ``test_backtracking_setting.py``.
Also: the replay rules on small samplers, ``validate_problem``'s
comparison of declared laws with their replays, and the initial laws of
the solvers that start from their measure."""

import dataclasses
from fractions import Fraction
from math import comb

import pytest

from lll_lab.analysis import PartialAvoidanceConfig, labeled_problem
from lll_lab.core import LllError, action_law, validate_problem
from lll_lab.formats import generate_colored_clique
from lll_lab.rng import exact_distribution, source_for_run
from lll_lab.solvers import (CnfInstance, GraphInstance, aec_backtrack, aec_clique_mt,
                             ksat_backtrack, ksat_backtrack_biased, ksat_mt, rainbow_matching,
                             vertex_coloring_greedy)
from lll_lab.solvers.coloring import adjacency_lists
from lll_lab.solvers.ksat import UNSET
from lll_lab.solvers.matchings import matching_edges, perfect_matchings
from lll_lab.solvers.variables import variable_setting


def bits(dist):
    return [(k, p.hex()) for k, p in dist.items()]


# ---------------------------------------------------------------------------
# references: the hand-written laws


def reference_coloring_law(g, q):
    delta = g.max_degree()
    adj = adjacency_lists(g)

    def allowed_colors(state, v):
        used = {state[w] for w in adj[v]}
        return [c for c in range(q) if c not in used][: q - delta]

    def action_distribution(i, state):
        (u, v) = g.edges[i // q]
        out = {}
        first = allowed_colors(list(state), u)
        p1 = 1.0 / len(first)
        for cu in first:
            mid = list(state)
            mid[u] = cu
            second = allowed_colors(mid, v)
            p2 = 1.0 / len(second)
            for cv in second:
                nxt = list(mid)
                nxt[v] = cv
                key = tuple(nxt)
                out[key] = out.get(key, 0.0) + p1 * p2
        return out

    return action_distribution


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def partner_state(edges, n2):
    work = bytearray(n2)
    for u, v in edges:
        work[u], work[v] = v, u
    return bytes(work)


def reference_switch_walk_law(matching, pair):
    out = {}

    def rec(current, queue, pr):
        if not queue:
            out[current] = out.get(current, Fraction(0)) + pr
            return
        (u, v) = queue[0]
        rest = sorted(e for e in current if e not in queue)
        r = len(rest)
        p_pick = Fraction(1, 2 * r)
        p_switch = Fraction(2 * r, 2 * r + 1)
        for e in rest:
            for (x, y) in (e, (e[1], e[0])):
                switched = set(current)
                switched.discard((u, v))
                switched.discard(_edge(x, y))
                switched.add(_edge(u, y))
                switched.add(_edge(v, x))
                rec(frozenset(switched), queue[1:], pr * p_pick * p_switch)
                rec(current, queue[1:], pr * p_pick * (1 - p_switch))

    rec(matching, (pair[0], pair[1]), Fraction(1))
    return {k: float(v) for k, v in out.items()}


def reference_labeled_law(problem, cfg):
    def action_distribution(i, st):
        s, labels = st
        out = {}
        p_keep = cfg.keep_probs[i]
        for t, p in action_law(problem)(i, s).items():
            if p_keep > 0.0:
                out[(t, labels | (1 << i))] = out.get((t, labels | (1 << i)), 0.0) + p * p_keep
            if p_keep < 1.0:
                out[(t, labels & ~(1 << i))] = (out.get((t, labels & ~(1 << i)), 0.0)
                                                + p * (1 - p_keep))
        return out

    return action_distribution


def replayed_laws(problem):
    """(flaw, state, replayed law) at every enumerated (flaw, state) pair."""
    for s in problem.space.states:
        for i in problem.present_flaws(s):
            yield i, s, exact_distribution(problem.sample_action, i, s)


def clique(n2, seed):
    """K_{n2} with each color on at most two edges: several conflicts."""
    return generate_colored_clique(n2 // 2, 2, source_for_run(seed, 0))


PATH4 = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
SQUARE = GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR = GraphInstance.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
CNF = CnfInstance(4, ((1, 2, 3), (-2, 3, 4), (-1, -3, -4)))


# ---------------------------------------------------------------------------
# the solvers' laws against the references


@pytest.mark.parametrize("g,q", [(PATH4, 4), (SQUARE, 5), (STAR, 5)],
                         ids=["path4", "square", "star"])
def test_vertex_coloring_law_has_the_reference_bits_and_order(g, q):
    problem = vertex_coloring_greedy(g, q)
    reference = reference_coloring_law(g, q)
    count = 0
    for i, s, law in replayed_laws(problem):
        assert bits(law) == bits(reference(i, s))
        count += 1
    assert count > 0


@pytest.mark.parametrize("n2,seed", [(6, 1), (8, 2)], ids=["K6", "K8"])
def test_rainbow_law_matches_the_fraction_reference(n2, seed):
    k = clique(n2, seed)
    problem = rainbow_matching(k)
    pairs = k.conflict_pairs()
    assert pairs
    matchings = [partner_state(m, n2) for m in perfect_matchings(range(n2))]
    count = 0
    for i in range(problem.num_flaws):
        for s in matchings:
            if not problem.present(i, s):
                continue
            law = exact_distribution(problem.sample_action, i, s)
            reference = {partner_state(t, n2): p for t, p in
                         reference_switch_walk_law(frozenset(matching_edges(s)), pairs[i]).items()}
            assert law.keys() == reference.keys()
            assert all(abs(law[t] - p) <= 1e-15 for t, p in reference.items())
            count += 1
    assert count > 0


@pytest.mark.parametrize("base", [
    lambda: ksat_mt(CnfInstance(3, ((1, 2), (-2, 3)))),
    lambda: ksat_backtrack(CnfInstance(3, ((1, 2), (-2, 3)))),
], ids=["ksat_mt", "ksat_backtrack"])
def test_labeled_law_has_the_reference_bits(base):
    problem = base()
    m = problem.num_flaws
    planted = dataclasses.replace(problem, declared_charges=tuple(0.5 - 0.1 * i for i in range(m)))
    cfg = PartialAvoidanceConfig.build(planted, [0.3] * m)
    assert 0.0 < min(cfg.keep_probs) and max(cfg.keep_probs) < 1.0
    labeled = labeled_problem(problem, cfg)
    assert labeled.action_distribution is None
    reference = reference_labeled_law(problem, cfg)
    for i, s, law in replayed_laws(labeled):
        assert sorted(bits(law)) == sorted(bits(reference(i, s)))


def path(n):
    return GraphInstance.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])


@pytest.mark.parametrize("build,states", [
    (lambda: ksat_mt(CnfInstance(4, ((1, 2, 3), (-2, -3, 4)))), 16),
    (lambda: aec_clique_mt(path(5), 4)[0], 256),
    (lambda: vertex_coloring_greedy(path(4), 3), 81),
], ids=["ksat-mt", "aec-clique-mt", "vertex-coloring"])
def test_initial_sampler_draws_the_measure(build, states):
    """These solvers state no ``init_distribution``: their runs start from
    mu, which every bound's lambda_init = 1 assumes, so the replay of
    ``sample_init`` must give mu exactly.  ``rainbow_matching`` draws its
    start with ``shuffle``, which the replay does not follow, so it is not
    checked here."""
    problem = build()
    assert problem.init_distribution is None
    assert len(problem.space.states) == states
    assert exact_distribution(problem.sample_init) == problem.space.mu


def test_biased_backtracking_draws_one_with_one_minus_p0():
    """The sampler assigns 1 when its uniform is at least p0, so the law
    gives 1 - p0 to the value 1, not the declared p1 (0.2 against
    0.19999999999999996 at p0 = 0.8)."""
    p0 = 0.8
    problem = ksat_backtrack_biased(CNF, [{0: p0, 1: 0.2}] * CNF.num_vars)
    blank = bytes([UNSET]) * CNF.num_vars
    law = action_law(problem)(0, blank)
    assert bits(law) == [(bytes([0]) + blank[1:], p0.hex()),
                         (bytes([1]) + blank[1:], (1 - p0).hex())]
    assert (1 - p0) != 0.2


# ---------------------------------------------------------------------------
# the replay rules


def test_branch_order_and_probabilities_of_each_primitive():
    assert bits(exact_distribution(lambda rng: rng.randint(3))) == [
        (0, (1 / 3).hex()), (1, (1 / 3).hex()), (2, (1 / 3).hex())]
    assert exact_distribution(lambda rng: rng.coin()) == {True: 0.5, False: 0.5}
    assert list(exact_distribution(lambda rng: rng.coin())) == [True, False]
    assert bits(exact_distribution(lambda rng: rng.bernoulli(0.8))) == [
        (True, (0.8).hex()), (False, (1 - 0.8).hex())]
    assert bits(exact_distribution(lambda rng: rng.choice({"b": 0.25, "a": 0.0, "c": 0.75}))) == [
        ("b", (0.25).hex()), ("c", (0.75).hex())]
    assert exact_distribution(lambda rng: "fixed") == {"fixed": 1.0}


def test_certain_bernoulli_makes_one_branch():
    calls = []

    def sample(p, rng):
        calls.append(p)
        return rng.bernoulli(p)

    assert exact_distribution(sample, 0.0) == {False: 1.0}
    assert exact_distribution(sample, 1.0) == {True: 1.0}
    assert calls == [0.0, 1.0]


def test_first_draw_varies_slowest_and_products_follow_draw_order():
    law = exact_distribution(lambda rng: (rng.randint(2), rng.bernoulli(0.3)))
    assert list(law) == [(0, True), (0, False), (1, True), (1, False)]
    assert law[(1, False)] == 1.0 * 0.5 * (1 - 0.3)


def test_draw_count_may_depend_on_earlier_draws():
    def sample(rng):
        n = 1 + rng.randint(3)  # one to three further coins
        return sum(rng.coin() for _ in range(n))

    law = exact_distribution(sample)
    expected = {}
    for n in (1, 2, 3):
        for heads in range(n + 1):
            expected[heads] = expected.get(heads, 0.0) + comb(n, heads) / 2 ** n / 3
    assert law.keys() == expected.keys()
    assert all(abs(law[k] - p) < 1e-15 for k, p in expected.items())
    assert list(law) == [1, 0, 2, 3]  # first reached: one coin, heads


def test_outcomes_reached_twice_add_in_visiting_order():
    law = exact_distribution(lambda rng: rng.randint(3) % 2)
    assert bits(law) == [(0, (1 / 3 + 1 / 3).hex()), (1, (1 / 3).hex())]


def test_raw_uniform_is_refused():
    with pytest.raises(LllError, match="u01"):
        exact_distribution(lambda rng: rng.u01() < 0.5)


def test_replayed_law_matches_the_sampler_on_streams():
    """choice draws one uniform and walks the cumulative sums in key
    order, as the replay's branches do."""
    dist = {"a": 0.2, "b": 0.0, "c": 0.5, "d": 0.3}
    rng = source_for_run(4, 0)
    draws = [rng.choice(dist) for _ in range(20000)]
    law = exact_distribution(lambda r: r.choice(dist))
    assert list(law) == ["a", "c", "d"]
    for t, p in law.items():
        assert abs(draws.count(t) / len(draws) - p) < 4 * (p * (1 - p) / len(draws)) ** 0.5


# ---------------------------------------------------------------------------
# validate_problem against declared laws


def test_validate_refuses_a_declared_law_its_sampler_does_not_follow():
    """A variable-setting draw that is not uniform: the declared product
    law has the right support and the wrong probabilities."""
    cnf = CnfInstance(3, ((1, 2), (-2, 3)))
    good = ksat_mt(cnf)
    validate_problem(good)
    biased = variable_setting(
        3, 2, [[0, 1], [1, 2]], present=lambda i, s: cnf.violated(s, i),
        draw=lambda rng: 1 if rng.bernoulli(0.6) else 0, canon=bytes, enumerable=True)
    with pytest.raises(LllError, match="inconsistent actions: flaw 0"):
        validate_problem(biased)
