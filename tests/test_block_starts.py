"""Batched starts: ``_iter_runs`` starts the runs of a problem whose
``sample_init`` is a ``BlockStart`` a block of streams at a time.  Run by
run, its reports equal ``run``'s, trajectories included; a problem that
replaced the start's scan falls back to one ``run`` per index; and the
streams of the runs that walk on come from the block, not from the
per-run memo."""

from dataclasses import replace

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
