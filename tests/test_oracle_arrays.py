"""Oracle mode on per-flaw transition arrays: ``StateSpace.rows`` and its
consumers (charges, chain tables, the commutativity check) against the
per-state dictionary loops they replaced, kept here as references."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_lab import chain, core
from lll_lab.analysis import PartialAvoidanceConfig, labeled_problem
from lll_lab.core import (LllError, SearchProblem, action_law, all_charges, charge,
                          event_charge, measure_of_flaws)
from lll_lab.criteria import DependencyGraph
from lll_lab.solvers import (CnfInstance, GraphInstance, ksat_backtrack, ksat_mt,
                             vertex_coloring_greedy)
from lll_lab.solvers.matchings import EdgeColoredClique, rainbow_matching
from lll_lab.witness import PRODUCT_REL_TOL, check_commutativity

SRC = Path(__file__).resolve().parents[1] / "src"


def colored_k6():
    colors = {(u, v): 6 * u + v for u in range(6) for v in range(u + 1, 6)}
    colors[(2, 3)] = colors[(0, 1)]
    return EdgeColoredClique(6, colors)


def labeled():
    base = ksat_mt(CnfInstance(4, ((1, 2), (3, 4))))
    cfg = PartialAvoidanceConfig.build(base, psi=[0.05, 0.05])
    assert all(0 < p < 1 for p in cfg.keep_probs)
    return labeled_problem(base, cfg)


def random_rows():
    """Rows of 1 to 20 outcomes with uneven probabilities: summing 8 or
    more of them pairwise and one by one gives different totals."""
    import random

    n = 60

    def action_distribution(i, s):
        rng = random.Random(1000 * i + s)
        targets = rng.sample(range(n), rng.randint(1, 20))
        weights = [rng.random() for _ in targets]
        return {t: w / sum(weights) for t, w in zip(targets, weights)}

    return SearchProblem(
        present=lambda i, s: s % (i + 2) == 0,
        sample_action=lambda i, s, rng: s, graph=DependencyGraph.from_edges(3, []),
        sample_init=lambda rng: 0, canon=lambda s: bytes([s]),
        weight=lambda s: 1.0 + s % 7, action_distribution=action_distribution,
        enumerate_states=lambda: range(n), init_distribution=lambda s: 1.0 / n)


BUILDERS = {
    "random_rows": random_rows,
    "ksat_mt": lambda: ksat_mt(CnfInstance(6, ((1, 2, 3), (-1, 4, 5), (4, -5, 6), (2, -6)))),
    "ksat_mt_disjoint": lambda: ksat_mt(CnfInstance(4, ((1, 2), (3, 4)))),
    "ksat_backtrack": lambda: ksat_backtrack(CnfInstance(5, ((1, 2, 3), (-1, -2, 4), (3, -4, 5)))),
    "vertex_coloring_greedy": lambda: vertex_coloring_greedy(
        GraphInstance.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4),
    "rainbow_k6": lambda: rainbow_matching(colored_k6()),
    "labeled_problem": labeled,
}
PROBLEMS: dict[str, SearchProblem] = {}


def problem_named(name):
    if name not in PROBLEMS:
        PROBLEMS[name] = BUILDERS[name]()
    return PROBLEMS[name]


# ---------------------------------------------------------------------------
# references: the per-state dictionary loops


def scanned(problem):
    """Each state's present flaws, from ``present_flaws`` at every state."""
    return [problem.present_flaws(s) for s in problem.space.states]


def reference_charge(space, members, dist_of):
    incoming = {}
    for s in members:
        for t, p in dist_of(s).items():
            if p == 0.0:
                continue
            incoming[t] = incoming.get(t, 0.0) + space.mu[s] * p
    worst = 0.0
    for t, mass in incoming.items():
        if space.mu[t] > 0.0:
            worst = max(worst, mass / space.mu[t])
    return worst


def reference_tables(problem, priority=None, flaw_subset=None):
    space = problem.space
    states, index = space.states, space.index
    n = len(states)
    law = action_law(problem)
    rank = {f: r for r, f in enumerate(priority)} if priority is not None else None
    absorbing = np.zeros(n, dtype=bool)
    chosen = np.full(n, -1, dtype=np.int64)
    rows = {}
    for k, (s, present) in enumerate(zip(states, scanned(problem))):
        if flaw_subset is not None:
            present = [i for i in present if i in flaw_subset]
        if not present:
            absorbing[k] = True
            continue
        i = min(present, key=(lambda f: rank[f]) if rank is not None else (lambda f: f))
        chosen[k] = i
        dist = law(i, s)
        targets = np.array([index[t] for t in dist], dtype=np.int64)
        probs = np.array(list(dist.values()), dtype=float)
        total = probs.sum()
        order = np.argsort(targets)
        cum = np.cumsum(probs[order] / total)
        cum[-1] = 1.0
        rows[k] = targets[order], cum
    width = max((t.size for t, _ in rows.values()), default=1)
    row_targets = np.repeat(np.arange(n, dtype=np.int64)[:, None], width, axis=1)
    row_cum = np.ones((n, width))
    for k, (targets, cum) in rows.items():
        row_targets[k, :targets.size] = targets
        row_targets[k, targets.size:] = targets[-1]
        row_cum[k, :cum.size] = cum
    return absorbing, chosen, row_targets, row_cum


def _matching_key(bucket, p):
    return next((q for q in bucket if abs(q - p) <= PRODUCT_REL_TOL * max(q, p)), p)


def reference_commutativity(problem, max_violations=3):
    """(commutative, checked_pairs) from the per-path product buckets,
    stopping at the ``max_violations``-th flaw pair that does not commute."""
    space = problem.space
    present_map = dict(zip(space.states, scanned(problem)))
    law = action_law(problem)

    def two_step_products(i, j):
        out = {}
        for s1 in space.states:
            if i not in present_map[s1]:
                continue
            for s2, p12 in law(i, s1).items():
                if p12 <= 0 or j not in present_map[s2]:
                    continue
                for s3, p23 in law(j, s2).items():
                    if p23 <= 0:
                        continue
                    bucket = out.setdefault((s1, s3), {})
                    key = _matching_key(bucket, p12 * p23)
                    bucket[key] = bucket.get(key, 0) + 1
        return out

    violations, checked = 0, 0
    m = problem.num_flaws
    for i in range(m):
        for j in range(i + 1, m):
            if j in problem.graph.adj[i]:
                continue
            checked += 1
            fwd, bwd = two_step_products(i, j), two_step_products(j, i)
            if any(f.get(_matching_key(f, p), 0) != b.get(_matching_key(b, p), 0)
                   for f, b in ((fwd.get(key, {}), bwd.get(key, {}))
                                for key in set(fwd) | set(bwd))
                   for p in set(f) | set(b)):
                violations += 1
                if violations >= max_violations:
                    return False, checked
    return not violations, checked


def perturbed(problem, flaw, state, delta):
    """``problem`` with ``delta`` of flaw ``flaw``'s probability at
    ``state`` moved from its first outcome to its last."""
    base = action_law(problem)

    def action_distribution(i, s):
        dist = base(i, s)
        if (i, s) == (flaw, state):
            dist = dict(dist)
            first, last = list(dist)[0], list(dist)[-1]
            dist[first] -= delta
            dist[last] += delta
        return dist

    return dataclasses.replace(problem, action_distribution=action_distribution)


# ---------------------------------------------------------------------------
# exactness


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_rows_reproduce_every_distribution_in_order(name):
    problem = problem_named(name)
    space, law, present_lists = problem.space, action_law(problem), scanned(problem)
    for i in range(problem.num_flaws):
        assert space.members[i].dtype == np.int64
        assert space.members[i].tolist() == [k for k, p in enumerate(present_lists) if i in p]
        rows = space.rows(i)
        assert rows.indptr.size == len(space.states) + 1
        for k, (s, present) in enumerate(zip(space.states, present_lists)):
            lo, hi = rows.indptr[k], rows.indptr[k + 1]
            if i not in present:
                assert lo == hi
                continue
            dist = law(i, s)
            assert [space.states[t] for t in rows.targets[lo:hi].tolist()] == list(dist)
            assert rows.probs[lo:hi].tolist() == list(dist.values())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_charges_and_measures_equal_the_dictionary_loops(name):
    problem = problem_named(name)
    space, law, present_lists = problem.space, action_law(problem), scanned(problem)
    expected = [reference_charge(space, [s for s, p in zip(space.states, present_lists) if i in p],
                                 lambda s, i=i: law(i, s))
                for i in range(problem.num_flaws)]
    assert all_charges(problem) == expected
    assert measure_of_flaws(problem) == [
        sum(space.mu[s] for s, p in zip(space.states, present_lists) if i in p)
        for i in range(problem.num_flaws)]
    event = lambda s: space.index[s] % 3 == 0
    dense = lambda s: space.mu
    assert event_charge(problem, event, dense) == reference_charge(
        space, [s for s in space.states if event(s)], dense)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_measure_of_flaws_builds_no_action_distribution(name):
    """Membership comes from the present lists alone, so the flaw
    measures of a problem whose actions fan out widely cost no rows."""
    problem = BUILDERS[name]()
    calls = []

    def counting(i, s):
        calls.append((i, s))
        return problem.action_distribution(i, s)

    fake = dataclasses.replace(problem, action_distribution=counting)
    assert measure_of_flaws(fake) == measure_of_flaws(problem)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BUILDERS)))
def test_chain_tables_equal_the_per_row_builder(data, name):
    problem = problem_named(name)
    m = problem.num_flaws
    priority = data.draw(st.none() | st.permutations(range(m)))
    subset = data.draw(st.none() | st.sets(st.integers(0, m - 1)))
    tables = chain.build_chain_tables(problem, priority, subset)
    absorbing, chosen, row_targets, row_cum = reference_tables(problem, priority, subset)
    assert np.array_equal(tables.absorbing, absorbing)
    assert np.array_equal(tables.chosen_flaw, chosen)
    assert np.array_equal(tables.row_targets, row_targets)
    assert np.array_equal(tables.row_cum, row_cum)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_commutativity_equals_the_bucket_check(name):
    problem = problem_named(name)
    report = check_commutativity(problem)
    assert (report.commutative, report.checked_pairs) == reference_commutativity(problem)
    # two conflict pairs of K6 always share a vertex
    assert report.checked_pairs > 0 or name == "rainbow_k6"


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(["ksat_mt_disjoint", "ksat_mt", "labeled_problem"]),
       delta=st.sampled_from([1e-6, 1e-3, 0.05]))
def test_one_perturbed_probability_equals_the_bucket_check(data, name, delta):
    base = problem_named(name)
    flaw = data.draw(st.integers(0, base.num_flaws - 1))
    members = [s for s, p in zip(base.space.states, scanned(base)) if flaw in p]
    state = data.draw(st.sampled_from(members))
    problem = perturbed(base, flaw, state, delta)
    report = check_commutativity(problem)
    assert (report.commutative, report.checked_pairs) == reference_commutativity(problem)
    if name == "ksat_mt_disjoint":  # every member state lies on a swapped path
        assert not report.commutative and report.violations
        viol = report.violations[0]
        assert viol["flaws"] == (0, 1) and viol["count_forward"] != viol["count_backward"]
        assert set(viol) == {"flaws", "endpoints", "product", "count_forward",
                             "count_backward"}


# ---------------------------------------------------------------------------
# refusals


def escaping(flaw_leaves: int):
    """Two flaws on two bits; flaw ``flaw_leaves`` can step to (2, 2),
    which is not an enumerated state."""
    states = [(a, b) for a in (0, 1) for b in (0, 1)]

    def action_distribution(i, s):
        t = list(s)
        t[i] = 0
        out = {tuple(t): 0.5}
        out[(2, 2) if i == flaw_leaves else tuple(t)] = 0.5
        return out

    return SearchProblem(
        present=lambda i, s: s[i] == 1,
        sample_action=lambda i, s, rng: tuple(0 if k == i else v for k, v in enumerate(s)),
        graph=DependencyGraph.from_edges(2, []), sample_init=lambda rng: (1, 1),
        canon=lambda s: bytes(s), action_distribution=action_distribution,
        enumerate_states=lambda: list(states), init_distribution=lambda s: 0.25)


@pytest.mark.parametrize("flaw", [0, 1])
def test_transitions_outside_the_states_are_refused(flaw):
    with pytest.raises(LllError, match=f"^flaw {flaw} leads outside the enumerated states$"):
        chain.build_chain_tables(escaping(flaw))
    with pytest.raises(LllError, match=f"^flaw {flaw} leads outside the enumerated states$"):
        check_commutativity(escaping(flaw))


def test_rows_past_the_entry_budget_are_refused(monkeypatch, two_clause_mt):
    monkeypatch.setattr(core, "ROW_ENTRY_BUDGET", 15)
    # flaw 0 is present at one state of 8 outcomes: within the budget
    assert charge(two_clause_mt, 0) == pytest.approx(0.125)
    space = two_clause_mt.space
    # the dense event rows hold all 8 states for each of the 3 members
    with pytest.raises(LllError, match="the event has more than 15 transition entries"):
        event_charge(two_clause_mt, lambda s: sum(s) <= 1 and s[2] == 0, lambda s: space.mu)
    monkeypatch.setattr(core, "ROW_ENTRY_BUDGET", 7)
    fresh = ksat_mt(CnfInstance(3, ((1, 2, 3), (-1, -2, 3))))
    with pytest.raises(LllError, match="flaw 0 has more than 7 transition entries"):
        charge(fresh, 0)


def test_dense_solve_past_its_cap_is_refused(monkeypatch, two_clause_mt):
    tables = chain.build_chain_tables(two_clause_mt)
    transient = int((~tables.absorbing).sum())
    monkeypatch.setattr(chain, "DENSE_TRANSIENT_CAP", transient)
    chain.exact_statistics(tables)
    monkeypatch.setattr(chain, "DENSE_TRANSIENT_CAP", transient - 1)
    with pytest.raises(LllError, match=f"{transient} transient states exceed"):
        chain.exact_statistics(tables)


# ---------------------------------------------------------------------------
# tooling


def test_witness_suite_does_not_load_scipy(tmp_path):
    """The arrays are numpy only: scipy is not a declared dependency."""
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 4 3\n1 2 3 0\n-1 -2 3 0\n2 -3 4 0\n")
    code = ("import sys\nfrom lll_lab import cli\n"
            f"code = cli.main(['verify', 'ksat-mt', {str(path)!r}, '--suite', 'witness',"
            " '--runs', '500', '--seed', '1'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
