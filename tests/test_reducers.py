"""The exact-chain batch sampler and the reducers of ``run_many``.

``chain.run_batch`` samples every alive run in one vectorized pass per
step over padded transition rows; these properties check it against a
reference copy of the per-state loop it replaced.  ``BatchStats`` keeps
distinct outputs with their run counts instead of a per-run list, and
witness sequences as a prefix trie; on both paths the counts and the
sequences read back from the trie must equal those rebuilt run by run,
and the witness suite's tree counts must equal a run-by-run count with
``witness.occurs``.  Start draws through the guide table and the fold
of final states must equal their ``searchsorted`` and ``np.unique``
references.
Censored runs must count against a bound or be refused, and a chain in
which a run can reach a state that never reaches absorption is refused
before its first draw.
"""

import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lll_lab.analysis as analysis
from lll_lab import chain
from lll_lab.analysis import (
    PartialAvoidanceConfig,
    _iter_runs,
    check_resample_bounds,
    check_witness_tree_lemma,
    output_distribution,
    partial_avoidance,
    run_core_truncated,
    run_many,
)
from lll_lab.core import DEFAULT_MAX_STEPS, LllError, SearchProblem, Trajectory
from lll_lab.criteria import DependencyGraph
from lll_lab.rng import BATCH_TAG, run_stream
from lll_lab.solvers import CnfInstance, ksat_mt
from lll_lab.witness import enumerate_witness_trees, occurs


@st.composite
def ksat_mt_problems(draw, max_vars=6, max_clauses=5):
    n = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(1, max_clauses))):
        vs = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(3, n), unique=True))
        clauses.append(tuple(sorted((v if draw(st.booleans()) else -v for v in vs), key=abs)))
    return ksat_mt(CnfInstance(n, tuple(clauses)))


def reference_batch(problem, runs, seed, max_steps, sequence_cap):
    """The sampler before padded rows: one ``searchsorted`` per distinct
    current state, over per-row arrays built without the pin to 1.0."""
    states = list(problem.enumerate_states())
    index = {s: k for k, s in enumerate(states)}
    n, m = len(states), problem.num_flaws
    absorbing = np.zeros(n, dtype=bool)
    chosen = np.full(n, -1, dtype=np.int64)
    row_targets, row_cum = [None] * n, [None] * n
    for k, s in enumerate(states):
        present = problem.present_flaws(s)
        if not present:
            absorbing[k] = True
            continue
        chosen[k] = i = min(present)
        dist = problem.action_distribution(i, s)
        targets = np.array([index[t] for t in dist], dtype=np.int64)
        probs = np.array(list(dist.values()), dtype=float)
        order = np.argsort(targets)
        row_targets[k] = targets[order]
        row_cum[k] = np.cumsum(probs[order] / probs.sum())
    theta = problem.init_distribution or problem.space.mu.get  # None: a start from mu
    init_p = np.array([theta(s) for s in states], dtype=float)
    init_p = init_p / init_p.sum()
    init_ids = np.nonzero(init_p > 0)[0]
    init_cum = np.cumsum(init_p[init_p > 0])

    rng = run_stream(seed, 0, BATCH_TAG)
    current = init_ids[np.searchsorted(init_cum, rng.random(runs))]
    steps = np.zeros(runs, dtype=np.int64)
    counts = np.zeros((runs, m), dtype=np.int32)
    seqs = np.full((runs, sequence_cap), -1, dtype=np.int64)
    overflow = np.zeros(runs, dtype=bool)
    alive = ~absorbing[current]
    t = 0
    while alive.any() and t < max_steps:
        idx = np.nonzero(alive)[0]
        cur = current[idx]
        draws = rng.random(idx.size)
        nxt = np.empty(idx.size, dtype=np.int64)
        flaws = chosen[cur]
        for s in np.unique(cur):
            mask = cur == s
            nxt[mask] = row_targets[s][np.searchsorted(row_cum[s], draws[mask])]
        np.add.at(counts, (idx, flaws), 1)
        if t < sequence_cap:
            seqs[idx, t] = flaws
        else:
            overflow[idx] = True
        current[idx] = nxt
        steps[idx] += 1
        alive[idx] = ~absorbing[nxt]
        t += 1
    return steps, current, ~alive, counts, seqs, overflow


def reference_sequences(seqs, overflow, terminated):
    """The reference's runs x cap matrix read row by row: a run's witness
    sequence, or None when it overflowed the record or was censored."""
    return [None if over or not done else tuple(int(f) for f in row if f >= 0)
            for row, over, done in zip(seqs, overflow, terminated)]


def trie_sequences(record):
    """Each run's witness sequence rebuilt from a result's prefix trie
    along the parent links, in run order; None for an unknown run (-1)."""
    parent, flaw = record.prefix_parent.tolist(), record.prefix_flaw.tolist()
    # a parent's id is below its children's
    assert all(p < k for k, p in enumerate(parent) if k)
    out = []
    for k in record.sequence_ids.tolist():
        seq = []
        while k > 0:
            seq.append(flaw[k])
            k = parent[k]
        out.append(None if k < 0 else tuple(reversed(seq)))
    return out


@settings(max_examples=60, deadline=None)
@given(ksat_mt_problems(), st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.integers(0, 40), st.integers(1, 8))
def test_run_batch_matches_per_state_loop(problem, seed, runs, max_steps, cap):
    tables = chain.build_chain_tables(problem)
    # a run moves the lowest violated clause's variables to a satisfying
    # assignment's values with positive probability, so every state of a
    # satisfiable formula reaches absorption; an unsatisfiable one has none
    if not tables.absorbing.any():
        with pytest.raises(LllError, match="^the chain is never absorbed"):
            chain.run_batch(tables, runs, seed, max_steps)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain, "SEQUENCE_CAP", cap)
        result = chain.run_batch(tables, runs, seed, max_steps, record_sequences=True)
    steps, final_ids, terminated, counts, seqs, overflow = reference_batch(
        problem, runs, seed, max_steps, cap)
    assert (result.steps == steps).all()
    assert (result.final_ids == final_ids).all()
    assert (result.terminated == terminated).all()
    assert (result.flaw_counts == counts).all()
    assert (result.sequence_ids[overflow] == -1).all()
    assert trie_sequences(result) == reference_sequences(seqs, overflow, terminated)


LAWS = {
    "point-mass": np.ones(1),
    "uniform": np.full(1000, 1e-3),
    # one bucket of the guide table spans all the small entries, so draws
    # there outlast the walk's passes and take the binary search
    "skewed": np.append(np.full(1000, 1e-9), 1.0 - 1e-6),
}


@pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
def test_guide_table_draw_equals_searchsorted(law):
    cum = chain._pinned_cumsum(law / law.sum())
    u = np.concatenate([np.random.default_rng(5).random(200_000), cum[:-1],
                        np.nextafter(cum[:-1], 0.0), [0.0]])
    assert (chain._draw_starts(cum, u) == np.searchsorted(cum, u, side="left")).all()


def test_final_counts_match_the_unique_reference(two_clause_mt):
    rng = np.random.default_rng(7)
    result = chain.run_batch(chain.build_chain_tables(two_clause_mt), 3_000, 4)
    for final_ids in (result.final_ids, rng.integers(0, 50, 5_000), rng.zipf(1.5, 5_000),
                      np.array([7]), np.array([], dtype=np.int64)):
        ids, first, mult = np.unique(final_ids, return_index=True, return_counts=True)
        order = np.argsort(first)
        got_ids, got_mult = chain.final_counts(final_ids)
        assert got_ids.tolist() == ids[order].tolist()
        assert got_mult.tolist() == mult[order].tolist()


def test_sequence_record_memory_at_1e5_runs():
    """Peak traced memory of a recorded batch and its sequence counts: a
    runs x 96 record and its byte-string sort took 17.9 MB, prefix ids
    and one bincount over them take 11.1 MB."""
    problem = ksat_mt(CnfInstance(10, ((1, 2, 3), (-2, 4, 5), (-1, -4, 6), (3, -5, 7),
                                       (-6, 8, 9), (-7, -8, 10))))
    tables = chain.build_chain_tables(problem)
    tracemalloc.start()
    try:
        result = chain.run_batch(tables, 10**5, 3, record_sequences=True)
        known = result.sequence_ids[result.sequence_ids >= 0]
        counts = np.bincount(known, minlength=result.prefix_parent.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() + (result.sequence_ids < 0).sum() == 10**5
    assert peak < 15 * 2**20


def test_concat_joins_bare_run_counts_and_refuses_more(two_clause_mt):
    """``BatchStats.concat`` joins per-run counts run after run, as one
    fold over all the indices makes them.  A part that holds outputs,
    final ids or a trie is refused: the join would drop it."""
    fold = lambda indices, **kw: analysis.step_stats(two_clause_mt, indices, 5, **kw)
    joined = chain.BatchStats.concat([fold(range(k, k + 10), collect_outputs=False)
                                      for k in (0, 10, 20)])
    whole = fold(range(30), collect_outputs=False)
    assert joined.runs == 30
    for name in ("steps", "terminated", "flaw_counts"):
        assert (getattr(joined, name) == getattr(whole, name)).all()
    chained = chain.run_batch(chain.build_chain_tables(two_clause_mt), 10, 5)
    for part in (fold(range(3)), fold(range(3), collect_sequences=True, collect_outputs=False),
                 chained):
        with pytest.raises(LllError, match="only batches of bare run counts"):
            chain.BatchStats.concat([whole, part])


# ---------------------------------------------------------------------------
# stub problems: exact ends of rows and wide flaw ids


def fan_out(outcomes):
    """State 0 has flaw 0; addressing it moves to one of ``outcomes``
    flawless states, uniformly."""
    return SearchProblem(
        present=lambda i, s: s == 0,
        sample_action=lambda i, s, rng: 1 + rng.randint(outcomes),
        graph=DependencyGraph.from_edges(1, [], self_loops=[0]),
        sample_init=lambda rng: 0,
        canon=lambda s: bytes([s]),
        action_distribution=lambda i, s: {t: 1.0 / outcomes for t in range(1, outcomes + 1)},
        enumerate_states=lambda: range(outcomes + 1),
        init_distribution=lambda s: float(s == 0),
    )


class TopDraws:
    """Every uniform draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("outcomes", [10, 21])
def test_row_end_pinned_to_one(monkeypatch, outcomes):
    """Rounding leaves the cumulative sum of ten 0.1 outcomes at
    0.9999999999999999 and of 21 outcomes of 1/21 six units lower; the
    pin makes the largest possible draw land on the last outcome."""
    probs = np.full(outcomes, 1.0 / outcomes)
    assert np.cumsum(probs / probs.sum())[-1] < 1.0
    tables = chain.build_chain_tables(fan_out(outcomes))
    assert tables.row_cum[0, outcomes - 1] == 1.0 and tables.init_cum[-1] == 1.0
    monkeypatch.setattr(chain, "run_stream", lambda *args: TopDraws())
    result = chain.run_batch(tables, 3, seed=0)
    assert result.terminated.all() and (result.steps == 1).all()
    assert [tables.states[k] for k in result.final_ids] == [outcomes] * 3
    # the same for a uniform initial state: the top draw starts in the last one
    tables = chain.build_chain_tables(replace(fan_out(outcomes), init_distribution=lambda s: 1.0))
    assert tables.init_cum[-1] == 1.0
    result = chain.run_batch(tables, 3, seed=0)
    assert (result.steps == 0).all()
    assert [tables.states[k] for k in result.final_ids] == [outcomes] * 3


def test_flaw_ids_beyond_int16_are_recorded():
    m = 40_000
    problem = SearchProblem(
        present=lambda i, s: s == 0 and i == m - 1,
        sample_action=lambda i, s, rng: 1,
        graph=DependencyGraph.from_edges(m, [], self_loops=range(m)),
        sample_init=lambda rng: 0,
        canon=lambda s: bytes([s]),
        action_distribution=lambda i, s: {1: 1.0},
        enumerate_states=lambda: [0, 1],
        init_distribution=lambda s: float(s == 0),
        flaws_present=lambda s: [m - 1] if s == 0 else [],
    )
    stats = run_many(problem, 5, 1, collect_sequences=True)
    # one prefix beyond the empty one, flaw m - 1, holding all 5 runs
    assert stats.prefix_parent.tolist() == [0, 0] and stats.prefix_flaw[1] == m - 1
    assert list(stats.sequences) == [1] * 5
    assert (stats.flaw_counts[:, m - 1] == 1).all()


def loop_or_exit(init_distribution, sample_init):
    """Flaw 0 is present at states 0 and 1: addressing it moves state 0 to
    the flawless state 2, and leaves state 1 where it is."""
    return SearchProblem(
        present=lambda i, s: s < 2,
        sample_action=lambda i, s, rng: 2 if s == 0 else 1,
        action_distribution=lambda i, s: {2 if s == 0 else 1: 1.0},
        graph=DependencyGraph.from_edges(1, [], self_loops=[0]),
        sample_init=sample_init,
        canon=lambda s: bytes([s]),
        enumerate_states=lambda: range(3),
        init_distribution=init_distribution,
        declared_charges=(0.1,),
    )


def test_chain_never_absorbed_from_a_drawable_state_is_refused_before_drawing(monkeypatch):
    """A run drawn at state 1 never ends: it used to run to the step cap
    and count as censored.  The refusal names the drawable states that
    cannot reach absorption; it comes before the sampler's first draw, in
    ``run_many`` and in ``run_core_truncated`` alike."""
    def drawn(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(chain, "run_stream", drawn)
    from_mu = loop_or_exit(None, lambda rng: rng.randint(3))
    message = ("^the chain is never absorbed: no absorbing state is reachable from 1 of the 3 "
               "states its initial law draws$")
    for call in (lambda: run_many(from_mu, 100, 0),
                 lambda: run_core_truncated(from_mu, [0], [0.5], runs=100)):
        with pytest.raises(LllError, match=message):
            call()
    stuck = loop_or_exit(lambda s: float(s == 1), lambda rng: 1)
    with pytest.raises(LllError, match="reachable from 1 of the 1 states its initial"):
        run_many(stuck, 100, 0)
    monkeypatch.undo()
    # started at state 0 the same chain is absorbed after one step
    stats = run_many(loop_or_exit(lambda s: float(s == 0), lambda rng: 0), 100, 0)
    assert stats.censored == 0 and (stats.steps == 1).all()


def test_chain_that_can_reach_a_stuck_state_is_refused_before_drawing(monkeypatch):
    """Every start draws state 0, which reaches absorption, but half its
    runs step to state 1 and stay there: at 10^4 steps 46 of 100 runs
    used to be censored, and at 10^6 steps the batch ran for 11 s."""
    stub = SearchProblem(
        present=lambda i, s: s < 2,
        sample_action=lambda i, s, rng: 1 + rng.randint(2) if s == 0 else 1,
        action_distribution=lambda i, s: {1: 0.5, 2: 0.5} if s == 0 else {1: 1.0},
        graph=DependencyGraph.from_edges(1, [], self_loops=[0]),
        sample_init=lambda rng: 0,
        canon=lambda s: bytes([s]),
        enumerate_states=lambda: range(3),
        init_distribution=lambda s: float(s == 0),
        declared_charges=(0.1,),
    )

    def drawn(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(chain, "run_stream", drawn)
    message = ("^the chain is never absorbed: no absorbing state is reachable from 1 of the 3 "
               "states its runs can visit$")
    for call in (lambda: run_many(stub, 100, 1, max_steps=10**4),
                 lambda: run_core_truncated(stub, [0], [0.5], runs=100)):
        with pytest.raises(LllError, match=message):
            call()


# ---------------------------------------------------------------------------
# reducers against per-run counts


@settings(max_examples=25, deadline=None)
@given(ksat_mt_problems(), st.integers(0, 2**32 - 1), st.integers(2, 60),
       st.sampled_from(["lowest_index", "recency"]), st.integers(0, 6))
def test_step_path_reducers_match_per_run_reports(problem, seed, runs, strategy, max_steps):
    problem = replace(problem, metadata={**problem.metadata, "strategy": strategy})
    # without an enumeration run_many takes the step path
    problem = replace(problem, enumerate_states=None)
    stats = run_many(problem, runs, seed, max_steps, collect_sequences=True)
    reports = list(_iter_runs(problem, range(runs), seed, max_steps, record_trajectory=True))
    outputs = Counter(problem.canon(rep.final_state) for rep in reports)
    assert {c: n for c, (_, n) in stats.outputs.items()} == outputs
    assert list(stats.outputs) == list(outputs)  # order of first occurrence
    firsts = {}
    for rep in reports:
        firsts.setdefault(problem.canon(rep.final_state), rep.final_state)
    assert {c: s for c, (s, _) in stats.outputs.items()} == firsts
    sequences = [rep.trajectory.witness_sequence if rep.terminated else None
                 for rep in reports]
    assert trie_sequences(stats) == sequences
    assert len(set(stats.sequences) - {None}) == len(set(sequences) - {None})
    assert stats.censored == sum(not rep.terminated for rep in reports)


def test_chain_path_outputs_in_order_of_first_occurrence(two_clause_mt):
    stats = run_many(two_clause_mt, 2_000, 4)
    tables = chain.build_chain_tables(two_clause_mt)
    result = chain.run_batch(tables, 2_000, 4)
    finals = [tables.states[k] for k in result.final_ids]
    outputs = Counter(two_clause_mt.canon(s) for s in finals)
    assert list(stats.outputs) == list(outputs)
    assert {c: n for c, (_, n) in stats.outputs.items()} == outputs


# ---------------------------------------------------------------------------
# witness-tree counts against a run-by-run matcher

# four overlapping clauses on 4 variables: some runs take 3 steps or more
WITNESS_FORMULA = CnfInstance(4, ((1, 2, 3), (-1, -2, 3), (2, -3, 4), (1, -2, -4)))


def check_witness_counts(monkeypatch, problem, runs, seed, sequences):
    """Run the witness suite and compare each tree's empirical value with
    the share of ``sequences`` (one per run, None when unknown) in which
    ``witness.occurs`` finds it, an unknown run counting for every tree.
    Returns the sequences the suite built trees of, one per call."""
    built = []
    real = analysis.trees_of_sequence
    monkeypatch.setattr(analysis, "trees_of_sequence",
                        lambda seq, *args: built.append(tuple(seq)) or real(seq, *args))
    report = check_witness_tree_lemma(problem, runs=runs, seed=seed)
    charges = analysis.problem_charges(problem)
    trees = {f"tree[{t.canonical().decode()}]": t for root in range(problem.num_flaws)
             for t, _ in enumerate_witness_trees(root, problem.graph, charges, 3)}
    assert len(report["verdicts"]) == len(trees)
    for v in report["verdicts"]:
        hits = sum(mult for seq, mult in Counter(sequences).items()
                   if seq is None or occurs(trees[v.name], Trajectory(None, tuple(
                       (f, None) for f in seq)), problem.graph) is not None)
        assert v.empirical == hits / runs, v.name
    # one tree built per distinct prefix of a known run, and no other
    known = {seq[:k] for seq in sequences if seq is not None for k in range(1, len(seq) + 1)}
    assert sorted(built) == sorted(known)
    return built


def test_witness_counts_on_the_chain_path(monkeypatch):
    problem = ksat_mt(WITNESS_FORMULA)
    runs, seed = 3_000, 11
    _, _, terminated, _, seqs, overflow = reference_batch(
        problem, runs, seed, DEFAULT_MAX_STEPS, chain.SEQUENCE_CAP)
    assert terminated.all() and not overflow.any()
    check_witness_counts(monkeypatch, problem, runs, seed,
                         reference_sequences(seqs, overflow, terminated))


def test_witness_counts_on_the_step_path(monkeypatch):
    problem = ksat_mt(WITNESS_FORMULA)
    problem = replace(problem, metadata={**problem.metadata, "strategy": "recency"})
    runs, seed = 1_000, 12
    reports = _iter_runs(problem, range(runs), seed, record_trajectory=True)
    sequences = [rep.trajectory.witness_sequence if rep.terminated else None
                 for rep in reports]
    assert max(map(len, sequences)) > 2
    check_witness_counts(monkeypatch, problem, runs, seed, sequences)


def test_witness_counts_past_the_sequence_cap(monkeypatch):
    """With a record of 2 steps, runs of 3 steps or more are unknown: they
    count for every tree, and the prefixes only they reach build no tree."""
    monkeypatch.setattr(chain, "SEQUENCE_CAP", 2)
    problem = ksat_mt(WITNESS_FORMULA)
    runs, seed = 200, 11
    _, _, terminated, _, seqs, overflow = reference_batch(problem, runs, seed,
                                                          DEFAULT_MAX_STEPS, 2)
    assert overflow.any()
    sequences = reference_sequences(seqs, overflow, terminated)
    built = check_witness_counts(monkeypatch, problem, runs, seed, sequences)
    overflowed = {tuple(int(f) for f in row[:k]) for row in seqs[overflow] for k in (1, 2)}
    assert overflowed - set(built)  # the check above is not vacuous


def test_witness_counts_of_censored_runs(monkeypatch):
    problem = ksat_mt(WITNESS_FORMULA)
    real = analysis.run_many
    monkeypatch.setattr(analysis, "run_many", lambda *a, **k: real(*a, **{**k, "max_steps": 1}))
    runs, seed = 3_000, 11
    _, _, terminated, _, seqs, overflow = reference_batch(problem, runs, seed, 1,
                                                          chain.SEQUENCE_CAP)
    assert not terminated.all()
    check_witness_counts(monkeypatch, problem, runs, seed,
                         reference_sequences(seqs, overflow, terminated))


# ---------------------------------------------------------------------------
# censored runs


@pytest.fixture
def one_step_runs(monkeypatch):
    """``run_many`` with every run cut after one step."""
    real = analysis.run_many
    monkeypatch.setattr(analysis, "run_many", lambda *a, **k: real(*a, **{**k, "max_steps": 1}))


def test_censored_runs_are_charged_to_every_tree(two_clause_mt, one_step_runs):
    stats = analysis.run_many(two_clause_mt, 4_000, 2, collect_sequences=True)
    assert stats.censored > 0
    assert (stats.sequence_ids == -1).sum() == stats.censored
    report = check_witness_tree_lemma(two_clause_mt, runs=4_000, seed=2)
    assert all(v.empirical >= stats.censored / 4_000 for v in report["verdicts"])


def test_resample_bounds_refuse_censored_stats(two_clause_mt):
    with pytest.raises(LllError, match="censored"):
        check_resample_bounds(two_clause_mt, psi=[0.25, 0.25],
                              sample=lambda: run_many(two_clause_mt, 4_000, 2, max_steps=1))


def test_distribution_refuses_censored_runs(two_clause_mt, one_step_runs):
    with pytest.raises(LllError, match="censored"):
        output_distribution(two_clause_mt, psi=[0.25, 0.25], runs=4_000, seed=2)


def test_partial_avoidance_refuses_censored_runs(two_clause_mt, one_step_runs):
    cfg = PartialAvoidanceConfig.build(two_clause_mt, [0.3, 0.3])
    with pytest.raises(LllError, match="censored"):
        partial_avoidance(two_clause_mt, cfg, runs=4_000, seed=2)


def counting_canon(problem, calls):
    """``problem`` with a ``canon`` that logs each state it encodes."""

    def canon(state):
        calls.append(state)
        return problem.canon(state)

    return replace(problem, canon=canon)


def test_resample_and_witness_suites_call_no_canon(two_clause_mt):
    """Neither suite reads the outputs, so neither collects them: no
    ``canon`` call on the chain path, nor on the step path that a
    strategy with no fixed order takes.  Collecting them calls ``canon``
    once per distinct final state."""
    recency = replace(two_clause_mt, metadata={**two_clause_mt.metadata, "strategy": "recency"})
    calls = []
    for problem in (two_clause_mt, recency):
        counted = counting_canon(problem, calls)
        check_resample_bounds(counted, psi=[0.25, 0.25], runs=2_000, seed=1)
        check_witness_tree_lemma(counted, runs=2_000, seed=1)
        assert run_many(counted, 2_000, 1, collect_outputs=False).outputs == {}
    assert calls == []
    for problem in (two_clause_mt, recency):
        stats = run_many(counting_canon(problem, calls), 2_000, 1)
        assert len(calls) == len(stats.outputs) > 1
        assert sum(c for _, c in stats.outputs.values()) == 2_000
        calls.clear()
