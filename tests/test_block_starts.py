"""Batched starts: ``_iter_runs`` starts the runs of a problem whose
``sample_init`` is a ``BlockStart`` a block of streams at a time.  Run by
run, its reports equal ``run``'s, trajectories included; a problem that
replaced the start's scan falls back to one ``run`` per index; and the
streams of the runs that walk on come from the block, not from the
per-run memo.  ``step_stats`` walks the runs of a block together
(``analysis._run_block``), and its record equals the per-run fold."""

from dataclasses import replace

import numpy as np
import pytest

from lll_lab import analysis, cli, rng
from lll_lab.core import BlockStart, recommended_strategy, run
from lll_lab.errors import LllError
from lll_lab.formats import generate_colored_clique, serialize_colored_clique
from lll_lab.rng import source_for_run
from lll_lab.solvers import rainbow_matching

SEED = 5


@pytest.fixture(scope="module")
def k12_clique():
    """The clique of ``gen colored-clique --n 6 --multiplicity 2 --seed 5``."""
    return generate_colored_clique(6, 2, source_for_run(5, 0))


@pytest.fixture(scope="module")
def k12(k12_clique):
    return rainbow_matching(k12_clique)


def single_runs(problem, indices, traced, max_steps=10**6):
    strategy = recommended_strategy(problem)
    return [run(problem, strategy, max_steps, SEED, r, record_trajectory=traced) for r in indices]


def no_single_runs(*args, **kwargs):
    raise AssertionError("a batched start called run")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("indices", [
    range(10_000),
    range(1000, 3500),
    range(2**32 - 3, 2**32 + 3),
    [4, 5, 6, 900, 2**32 - 1, 2**32, 2**32 + 1, 3, 3],
], ids=["first-10k", "offset", "across-2^32", "scattered"])
def test_batched_runs_equal_single_runs(k12, indices, traced, monkeypatch):
    assert isinstance(k12.sample_init, BlockStart)
    want = single_runs(k12, indices, traced)
    monkeypatch.setattr(analysis, "run", no_single_runs)
    got = list(analysis._iter_runs(k12, indices, SEED, record_trajectory=traced))
    assert got == want
    if len(want) >= 1000:  # both kinds of start are exercised
        flawless = sum(rep.steps == 0 for rep in want)
        assert 0 < flawless < len(want)


def test_censored_batched_starts_equal_single_runs(k12, monkeypatch):
    want = single_runs(k12, range(300), True, max_steps=0)
    assert any(not rep.terminated for rep in want)
    monkeypatch.setattr(analysis, "run", no_single_runs)
    assert list(analysis._iter_runs(k12, range(300), SEED, 0, record_trajectory=True)) == want
    with pytest.raises(LllError, match="max_steps"):
        next(analysis._iter_runs(k12, range(3), SEED, -1))


@pytest.mark.parametrize("replaced", ["flaws_present", "sample_init"])
def test_a_replaced_scan_or_sampler_falls_back_to_single_runs(k12, replaced, monkeypatch):
    """The batched start stands only for the scan and the sampler it was
    declared with: a problem that replaced either calls ``run`` once per
    run index, with the same reports."""
    wrapped = {"flaws_present": lambda state: k12.flaws_present(state),
               "sample_init": lambda source: k12.sample_init(source)}
    problem = replace(k12, **{replaced: wrapped[replaced]})
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    indices = range(200, 700)
    got = list(analysis._iter_runs(problem, indices, SEED, record_trajectory=True))
    assert len(calls) == len(indices)
    assert got == single_runs(k12, indices, True)


def test_runs_that_walk_on_take_their_words_from_the_block(k12_clique, tmp_path, capsys,
                                                           monkeypatch):
    """One ``_state_words`` call per block of a 10^4-run suite: a run whose
    start holds a flaw is handed its block's words, and never rebuilds its
    stream through the per-run memo, whose blocks its scattered indices
    would keep missing."""
    path = tmp_path / "k12.txt"
    path.write_text(serialize_colored_clique(k12_clique))
    calls = []
    words = rng._state_words

    def counted(*args):
        calls.append(args)
        return words(*args)

    monkeypatch.setattr(rng, "_state_words", counted)
    rng._blocks.clear()
    assert cli.main(["verify", "rainbow", str(path), "--suite", "resamples",
                     "--runs", "10000", "--seed", "3"]) == 0
    capsys.readouterr()
    blocks = -(-10_000 // rng._MAX_BLOCK)
    assert [(start, count) for _, _, start, count in calls] == [
        (k * rng._MAX_BLOCK, min(rng._MAX_BLOCK, 10_000 - k * rng._MAX_BLOCK))
        for k in range(blocks)]


def per_run(problem):
    """The problem with its ``BlockStart`` hidden: one ``run`` per index."""
    return replace(problem, sample_init=lambda source: problem.sample_init(source))


def assert_same_record(got, want):
    for name in ("steps", "terminated", "flaw_counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert list(got.outputs.items()) == list(want.outputs.items())


def no_per_run_walks(*args, **kwargs):
    raise AssertionError("a block walk built a per-run walk or stream")


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_block_walk_folds_as_the_runs_do(k12, seed, monkeypatch):
    """10^4 runs from index 1000, so every block boundary is crossed
    mid-block, walked to the end with outputs and without; the block fold
    builds no ``RandomSource``, report or per-run walk."""
    indices = range(1000, 11_000)
    want = analysis.step_stats(per_run(k12), indices, seed)
    monkeypatch.setattr(rng.StreamBlock, "source", no_per_run_walks)
    monkeypatch.setattr(analysis, "run_from", no_per_run_walks)
    monkeypatch.setattr(analysis, "run", no_per_run_walks)
    assert_same_record(analysis.step_stats(k12, indices, seed), want)
    bare = analysis.step_stats(k12, indices, seed, collect_outputs=False)
    assert bare.outputs == {}
    assert np.array_equal(bare.flaw_counts, want.flaw_counts)
    assert want.censored == 0 and 0 < np.count_nonzero(want.steps) < want.runs


@pytest.mark.parametrize("max_steps", [0, 1, 2])
@pytest.mark.parametrize("indices", [range(3000, 4500), range(2**32 - 700, 2**32 + 500)],
                         ids=["across-blocks", "across-2^32"])
def test_censored_block_walks_fold_as_the_runs_do(k12, max_steps, indices):
    want = analysis.step_stats(per_run(k12), indices, SEED, max_steps)
    assert want.censored > 0
    assert_same_record(analysis.step_stats(k12, indices, SEED, max_steps), want)


def test_block_walk_stands_only_for_its_action_and_a_fixed_order(k12, monkeypatch):
    """A problem that replaced the action, or a strategy without a fixed
    order, or a fold that collects sequences, reads per-run reports."""
    calls, run_from = [], analysis.run_from

    def counted(*args, **kwargs):
        calls.append(args)
        return run_from(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_from", counted)
    indices = range(600)
    want = analysis.step_stats(per_run(k12), indices, SEED)
    replaced = replace(k12, sample_action=lambda i, state, source: k12.sample_action(
        i, state, source))
    recency = replace(k12, metadata={**k12.metadata, "strategy": "recency"})
    for problem, sequences in ((replaced, False), (recency, False), (k12, True)):
        calls.clear()
        got = analysis.step_stats(problem, indices, SEED, collect_sequences=sequences)
        assert len(calls) == np.count_nonzero(want.steps)
        if problem is not recency:
            assert_same_record(got, want)
    with pytest.raises(LllError, match="max_steps"):
        analysis.step_stats(k12, indices, SEED, -1)


def test_verify_resamples_stdout_is_the_same_on_two_processes(k12_clique, tmp_path, capsys):
    path = tmp_path / "k12.txt"
    path.write_text(serialize_colored_clique(k12_clique))
    outs = []
    for workers in ("1", "2"):
        assert cli.main(["verify", "rainbow", str(path), "--suite", "resamples", "--runs",
                         "10000", "--seed", "3", "--parallel", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "pass" in outs[0]
