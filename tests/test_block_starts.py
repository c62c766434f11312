"""Block walks: a problem whose ``sample_init`` is a ``BlockStart`` walks
its runs a block of streams at a time (``analysis._run_block``).
``_iter_runs`` reads its reports off the block, trajectories included,
and run by run they equal ``run``'s; ``step_stats`` folds the block's
arrays, and its record equals the per-run fold.  Each block's streams
come from one derivation of its words, not from the per-run memo.  A
problem that replaced the start's scan, its sampler or its action, or
whose strategy has no fixed order, falls back to one ``run`` per
index."""

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


def test_a_suite_derives_each_blocks_words_once(k12_clique, tmp_path, capsys, monkeypatch):
    """One ``_state_words`` call per block of a 10^4-run suite: every run,
    flawed at its start or not, walks on its lane of its block, and no
    stream is rebuilt through the per-run memo."""
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
    builds no ``RandomSource`` and calls no ``run``."""
    indices = range(1000, 11_000)
    want = analysis.step_stats(per_run(k12), indices, seed)
    monkeypatch.setattr(rng.RandomSource, "__init__", no_per_run_walks)
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


@pytest.mark.parametrize("width", [1, 7, 1024, rng._MAX_BLOCK])
def test_block_width_never_changes_a_record(k12, width, monkeypatch):
    """Each lane is its own run's stream, so the width at which ``cover``
    cuts the blocks changes no record of ``step_stats`` and no report of
    ``_iter_runs``: two full blocks and a part of one from index 500, and
    the indices around 2^32, against one ``run`` per index."""
    indices = [*range(500, 500 + 2 * width + 300), *range(2**32 - 9, 2**32 + 5)]
    record = analysis.step_stats(per_run(k12), indices, SEED)
    reports = single_runs(k12, indices, True)
    monkeypatch.setattr(rng, "_MAX_BLOCK", width)
    assert max(block.count for block in rng.StreamBlock.cover(SEED, indices)) == width
    assert_same_record(analysis.step_stats(k12, indices, SEED), record)
    assert list(analysis._iter_runs(k12, indices, SEED, record_trajectory=True)) == reports


def test_block_walk_stands_only_for_its_action_and_a_fixed_order(k12, monkeypatch):
    """A problem that replaced the action or the scan, or whose strategy
    has no fixed order, calls ``run`` once per index; a fold that collects
    sequences reads its reports off the block walk, and calls it for none."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    indices = range(600)
    want = analysis.step_stats(per_run(k12), indices, SEED)
    replaced = replace(k12, sample_action=lambda i, state, source: k12.sample_action(
        i, state, source))
    rescanned = replace(k12, flaws_present=lambda state: k12.flaws_present(state))
    recency = replace(k12, metadata={**k12.metadata, "strategy": "recency"})
    for problem, sequences, runs in ((replaced, False, len(indices)),
                                     (rescanned, False, len(indices)),
                                     (recency, False, len(indices)), (k12, True, 0)):
        calls.clear()
        got = analysis.step_stats(problem, indices, SEED, collect_sequences=sequences)
        assert len(calls) == runs
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


def test_verify_event_stdout_is_the_same_with_one_run_per_index(tmp_path, capsys, monkeypatch):
    """``verify rainbow --suite event`` on the K8 of ``gen colored-clique
    --n 4 --multiplicity 2 --seed 5`` reads its trajectories off the block
    walk and calls ``run`` for no index; with the ``BlockStart`` hidden it
    calls ``run`` once per index and prints the same report."""
    path = tmp_path / "k8.txt"
    path.write_text(serialize_colored_clique(generate_colored_clique(4, 2, source_for_run(5, 0))))
    calls, real_run, build = [], analysis.run, cli.build_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", counted)
    argv = ["verify", "rainbow", str(path), "--suite", "event", "--runs", "20000", "--seed", "3"]
    outs = []
    for hidden in (False, True):
        if hidden:
            monkeypatch.setattr(cli, "build_problem", lambda spec: per_run(build(spec)))
        calls.clear()
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
        assert len(calls) == (20_000 if hidden else 0)
    assert outs[0] == outs[1] and '"pass": true' in outs[0]
