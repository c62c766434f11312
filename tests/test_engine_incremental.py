"""Incremental flaw tracking in ``run`` against a full rescan.

Problems that declare ``affects`` let the engine re-evaluate only the
flaws an action can touch.  These properties check, on random small
CNFs, on random small graphs for ``aec_clique_mt`` and
``vertex_coloring_greedy``, and on random graphs for ``aec_backtrack``,
that the tracked present set always equals a full rescan and that whole
runs match a reference loop that rescans every flaw at every step, traced
and untraced: an untraced run steps one working state in place.  They
also check the byte-string states of the backtracking solvers.
"""

from dataclasses import replace

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lll_lab.core import FlawChoiceStrategy, InPlaceAction, make_strategy, run, validate_problem
from lll_lab.rng import source_for_run
from lll_lab.solvers import (
    CnfInstance,
    GraphInstance,
    aec_backtrack,
    aec_clique_mt,
    ksat_backtrack,
    ksat_backtrack_biased,
    ksat_mt,
    vertex_coloring_greedy,
)
from lll_lab.solvers.ksat import UNSET, count_partial_satisfying

MAX_STEPS = 200
BACKTRACKING = ("ksat_backtrack", "ksat_backtrack_biased")
GRAPH_SOLVERS = ("aec_clique_mt", "vertex_coloring_greedy")
SOLVERS = ("ksat_mt", *BACKTRACKING, *GRAPH_SOLVERS)


@st.composite
def cnfs(draw, max_vars=6, max_clauses=5):
    n = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(1, max_clauses))):
        vs = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(3, n), unique=True))
        clauses.append(tuple(sorted((v if draw(st.booleans()) else -v for v in vs), key=abs)))
    return CnfInstance(n, tuple(clauses))


@st.composite
def small_graphs(draw, max_vertices=5, max_edges=6):
    """Graphs small enough to enumerate every coloring."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_edges, unique=True))
    return GraphInstance.from_edge_list(n, edges)


@st.composite
def problems(draw, solvers=SOLVERS):
    solver = draw(st.sampled_from(solvers))
    if solver == "aec_clique_mt":
        return aec_clique_mt(draw(small_graphs()), draw(st.integers(2, 3)))[0]
    if solver == "vertex_coloring_greedy":
        g = draw(small_graphs())
        return vertex_coloring_greedy(g, g.max_degree() + draw(st.integers(1, 2)))
    cnf = draw(cnfs())
    if solver == "ksat_mt":
        return ksat_mt(cnf)
    if solver == "ksat_backtrack":
        return ksat_backtrack(cnf)
    p0 = st.sampled_from((0.0, 0.25, 0.5, 0.9, 1.0))
    dists = [{0: p, 1: 1.0 - p} for p in draw(st.lists(p0, min_size=cnf.num_vars,
                                                        max_size=cnf.num_vars))]
    return ksat_backtrack_biased(cnf, dists)


def reference_run(problem, choose, max_steps, seed):
    """Full rescan at every step; ``choose(present, last_addressed)``.
    Returns (terminated, steps, counts, final state, witness sequence,
    every state visited)."""
    rng = source_for_run(seed, 0)
    states = [problem.sample_init(rng)]
    counts = [0] * problem.num_flaws
    last_addressed: dict[int, int] = {}
    history: list[int] = []
    while True:
        present = [j for j in range(problem.num_flaws) if problem.present(j, states[-1])]
        if not present or len(history) >= max_steps:
            return (not present, len(history), tuple(counts), states[-1], tuple(history),
                    states)
        i = choose(present, last_addressed)
        states.append(problem.sample_action(i, states[-1], rng))
        counts[i] += 1
        last_addressed[i] = len(history)
        history.append(i)


def reference_rule(spec):
    if spec == "lowest_index":
        return lambda present, last: min(present)
    if spec == "recency":
        return lambda present, last: max(present, key=lambda i: (last.get(i, -1), -i))
    rank = {f: r for r, f in enumerate(spec[1])}
    return lambda present, last: min(present, key=rank.__getitem__)


def check_runs_match_reference(problem, perm, seed, max_steps=MAX_STEPS):
    """Traced and untraced runs, with and without ``affects``, end where the
    reference ends, in a state of the type ``sample_init`` draws.  A traced
    run records the reference's states, each one a new object: a recorded
    state that aliased the working state would change with it."""
    frozen = type(problem.sample_init(source_for_run(seed, 0)))
    for spec in ("lowest_index", "recency", ("fixed_priority", perm)):
        want = reference_run(problem, reference_rule(spec), max_steps, seed)
        for engine_problem in (problem, replace(problem, affects=None)):
            for traced in (True, False):
                rep = run(engine_problem, make_strategy(spec), max_steps, seed,
                          record_trajectory=traced)
                got = (rep.terminated, rep.steps, rep.resample_counts, rep.final_state)
                assert got == want[:4], (spec, engine_problem.affects, traced)
                assert type(rep.final_state) is frozen
                if traced:
                    states = rep.trajectory.states()
                    assert rep.trajectory.witness_sequence == want[4] and states == want[5]
                    assert all(type(s) is frozen for s in states)
                    # one-byte ``bytes`` objects are interned: equal ones are one object
                    assert all(a is not b for a, b in zip(states, states[1:]) if len(a) > 1)
    return want


def check_tracked_present_set(problem, seed, max_steps=MAX_STEPS):
    """A custom strategy sees the tracked present list before every step;
    after the last step, termination must agree with a rescan."""
    checked = []

    class Check(FlawChoiceStrategy):
        def choose(self, present, state):
            assert present == problem.present_flaws(state)
            checked.append(state)
            return present[-1]

    rep = run(problem, Check(), max_steps, seed)
    assert len(checked) == rep.steps
    assert rep.terminated == (not problem.present_flaws(rep.final_state))


@settings(max_examples=150, deadline=None)
@given(problem=problems(), seed=st.integers(0, 2**16), data=st.data())
def test_run_matches_full_rescan_reference(problem, seed, data):
    assert problem.affects is not None
    check_runs_match_reference(problem, data.draw(st.permutations(range(problem.num_flaws))),
                               seed)


@settings(max_examples=150, deadline=None)
@given(problem=problems(), seed=st.integers(0, 2**16))
def test_tracked_present_set_equals_rescan(problem, seed):
    check_tracked_present_set(problem, seed)


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_declared_affects_pass_validation(problem):
    """The affects cover holds on every enumerated transition."""
    assert problem.affects is not None
    validate_problem(problem)


@settings(max_examples=100, deadline=None)
@given(problem=problems(BACKTRACKING), seed=st.integers(0, 2**16))
def test_backtracking_states_are_byte_strings(problem, seed):
    """Every state is ``bytes`` over {0, 1, UNSET}, is its own canonical
    encoding and violates no clause; enumeration yields each partial
    satisfying assignment once."""
    cnf = problem.metadata["cnf"]
    rep = run(problem, "lowest_index", MAX_STEPS, seed, record_trajectory=True)
    for s in rep.trajectory.states():
        assert type(s) is bytes and len(s) == cnf.num_vars
        assert set(s) <= {0, 1, UNSET}
        assert problem.canon(s) == s
        assert not any(cnf.violated(s, ci) for ci in range(len(cnf.clauses)))
    states = list(problem.enumerate_states())
    assert all(type(s) is bytes for s in states)
    assert len(set(states)) == len(states) == count_partial_satisfying(cnf)


# ---------------------------------------------------------------------------
# aec_backtrack: a step that closes a cycle falls back to every flaw

AEC_MAX_STEPS = 2000
# K_{3,3} at q = 5: seed 16 closes bichromatic 6-cycles and backtracks
K33 = GraphInstance.from_edge_list(6, [(a, b) for a in range(3) for b in range(3, 6)])


@st.composite
def max_degree_3_graphs(draw):
    """Random graphs of max degree 3: on 6-12 vertices, or bipartite with
    3-5 vertices a side, whose many 6-cycles make runs backtrack."""
    if draw(st.booleans()):
        a, b = draw(st.integers(3, 5)), draw(st.integers(3, 5))
        pairs = [(x, a + y) for x in range(a) for y in range(b)]
    else:
        a, b = draw(st.integers(6, 12)), 0
        pairs = [(x, y) for x in range(a) for y in range(x + 1, a)]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    deg = [0] * (a + b)
    edges = []
    for (x, y) in pairs:
        if deg[x] < 3 and deg[y] < 3:
            edges.append((x, y))
            deg[x] += 1
            deg[y] += 1
    return GraphInstance.from_edge_list(a + b, edges)


@st.composite
def aec_cases(draw):
    """An ``aec_backtrack`` problem with q from 2(maxdeg - 1) + 1 upward,
    and a flaw permutation for the fixed-priority strategy."""
    g = draw(max_degree_3_graphs())
    q = 2 * (g.max_degree() - 1) + 1 + draw(st.sampled_from((0, 0, 1, 4)))
    return aec_backtrack(g, q), draw(st.permutations(range(len(g.edges))))


@settings(max_examples=200, deadline=None)
@given(case=aec_cases(), seed=st.integers(0, 2**16))
@example(case=(aec_backtrack(K33, 5), tuple(reversed(range(9)))), seed=16)
def test_aec_run_matches_full_rescan_reference(case, seed):
    problem, perm = case
    assert problem.affects is not None
    terminated, steps, *_ = check_runs_match_reference(problem, perm, seed, AEC_MAX_STEPS)
    assert terminated
    event("backtracks" if steps > problem.num_flaws else "no backtrack")


@settings(max_examples=200, deadline=None)
@given(case=aec_cases(), seed=st.integers(0, 2**16))
@example(case=(aec_backtrack(K33, 5), ()), seed=16)
def test_aec_tracked_present_set_equals_rescan(case, seed):
    check_tracked_present_set(case[0], seed, AEC_MAX_STEPS)


def test_aec_example_backtracks():
    """The explicit example above exercises the all-flaws fallback."""
    rep = run(aec_backtrack(K33, 5), "lowest_index", AEC_MAX_STEPS, 16)
    assert rep.terminated and rep.steps > len(K33.edges)


class CopyingFormRaises(InPlaceAction):
    """An in-place action whose pure, copying form must not be called."""

    def __call__(self, i, state, rng):
        raise AssertionError(f"flaw {i} was addressed through the copying form")


def test_runs_never_take_the_copying_form():
    """With the pure ``sample_action`` of a backtracking problem replaced by
    one that raises, runs still finish, traced or not, with the same
    report: every step goes through the in-place update."""
    cnf = CnfInstance(6, ((1, 2), (-2, 3), (-1, -3), (4, -5), (5, 6), (-4, -6)))
    for problem, seed in ((aec_backtrack(K33, 5), 16), (ksat_backtrack(cnf), 3)):
        action = problem.sample_action
        raising = replace(problem, sample_action=CopyingFormRaises(action.update, action.frozen))
        for traced in (False, True):
            want = run(problem, "lowest_index", AEC_MAX_STEPS, seed, record_trajectory=traced)
            assert run(raising, "lowest_index", AEC_MAX_STEPS, seed,
                       record_trajectory=traced) == want
        assert want.terminated and want.steps > problem.num_flaws
