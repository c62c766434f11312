"""Per-run streams: the batched derivation against numpy's SeedSequence,
the memo that holds its blocks, the buffered RandomSource, and the
StreamBlock lanes against run_stream, with their hand-off."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lll_lab import analysis, rng
from lll_lab.core import run
from lll_lab.rng import BATCH_TAG, INIT_TAG, RandomSource, run_stream, source_for_run
from lll_lab.solvers import CnfInstance, ksat_mt

TAGS = st.sampled_from([0, BATCH_TAG, INIT_TAG])
# run indices on both sides of 2^32 and of 2^64, where a run index gains
# entropy words
RUN_INDICES = st.one_of(
    st.integers(0, 2**16),
    st.integers(2**32 - 8, 2**32 + 8),
    st.integers(2**64 - 8, 2**64 + 8),
    st.integers(0, 2**80),
)


def reference(seed, run_index, tag):
    return np.random.SeedSequence((seed, run_index, tag))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), start=RUN_INDICES, count=st.integers(1, 5), tag=TAGS)
@example(seed=0, start=0, count=1, tag=0)
@example(seed=2**96 - 1, start=2**32 - 2, count=2, tag=INIT_TAG)
@example(seed=2**96, start=2**32, count=3, tag=BATCH_TAG)
def test_state_words_equal_seed_sequence(seed, start, count, tag):
    count = min(count, (((start >> 32) + 1) << 32) - start)  # one r >> 32 per block
    block = rng._state_words(seed, tag, start, count)
    assert block.dtype == np.uint64 and block.shape == (count, 4)
    for k in range(count):
        ss = reference(seed, start + k, tag)
        assert np.array_equal(block[k], ss.generate_state(4, np.uint64))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), run_index=RUN_INDICES, tag=TAGS)
def test_run_stream_equals_seed_sequence_pcg64(seed, run_index, tag):
    ours = run_stream(seed, run_index, tag)
    ref = np.random.Generator(np.random.PCG64(reference(seed, run_index, tag)))
    assert np.array_equal(ours.random(200), ref.random(200))


def test_blocks_never_straddle_a_multiple_of_2_32():
    rng._blocks.clear()
    for r in range(2**32 - 5, 2**32 + 40):
        run_stream(11, r).random()  # a run of consecutive indices grows the block
        start, block = rng._blocks[(11, 0)]
        assert start >> 32 == (start + len(block) - 1) >> 32
    for r in (2**32 - 1, 2**32):
        ref = np.random.Generator(np.random.PCG64(reference(11, r, 0)))
        assert run_stream(11, r).random() == ref.random()


def test_consecutive_indices_double_the_block_and_lone_ones_do_not():
    rng._blocks.clear()
    run_stream(5, 100)
    assert len(rng._blocks[(5, 0)][1]) == 1
    sizes = []
    for r in range(101, 5000):
        run_stream(5, r)
        sizes.append(len(rng._blocks[(5, 0)][1]))
    assert sorted(set(sizes)) == [2**k for k in range(1, 11)]
    run_stream(5, 7)  # not a continuation: one index
    start, block = rng._blocks[(5, 0)]
    assert start == 7 and len(block) == 1


@pytest.mark.parametrize("run_index", [0, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3])
@pytest.mark.parametrize("tag", [0, BATCH_TAG])
def test_lone_index_blocks_equal_seed_sequence(run_index, tag):
    """A lone index is derived by ``SeedSequence`` itself; the index after
    it continues the block through the vectorized derivation, unless the
    block would cross a multiple of 2^32."""
    seed = 2**70 + 9
    room = 2**32 - (run_index + 1) % 2**32  # indices left before the next multiple
    rng._blocks.clear()
    for r, size in ((run_index, 1), (run_index + 1, min(2, room))):
        words = rng._run_words(seed, r, tag)
        assert np.array_equal(words, reference(seed, r, tag).generate_state(4, np.uint64))
        start, block = rng._blocks[(seed, tag)]
        assert (start, block.shape, block.dtype) == (r, (size, 4), np.uint64)


def test_negative_inputs_refused():
    with pytest.raises(ValueError):
        run_stream(-1, 0)
    with pytest.raises(ValueError):
        run_stream(1, -1)


@pytest.mark.parametrize("strategy", ["lowest_index", "recency", "fixed_priority"])
def test_run_independent_of_visit_order(strategy):
    """``run`` depends on (seed, run index) alone: runs visited in a
    shuffled order, interleaved with another seed's runs and with a
    batch-tagged stream, equal fresh single-index runs."""
    spec = ("fixed_priority", [3, 1, 0, 2]) if strategy == "fixed_priority" else strategy
    problem = ksat_mt(CnfInstance(5, ((1, 2, 3), (-1, -2, 3), (2, -3, 4), (-4, 5, 1))))
    problem = dataclasses.replace(problem, metadata={**problem.metadata, "strategy": spec})
    indices = list(range(300)) + [2**32 - 1, 2**32, 2**32 + 1]
    fresh = {}
    for seed in (17, 18):
        for r in indices:
            rng._blocks.clear()
            fresh[seed, r] = run(problem, spec, seed=seed, run_index=r,
                                 record_trajectory=True)
    order = indices[:]
    random.Random(3).shuffle(order)
    backward = order[::-1]
    rng._blocks.clear()
    seen = {}
    first = analysis._iter_runs(problem, order, 17, record_trajectory=True)
    second = analysis._iter_runs(problem, backward, 18, record_trajectory=True)
    for k, (a, b) in enumerate(zip(first, second)):
        seen[17, order[k]] = a
        seen[18, backward[k]] = b
        run_stream(17, k, BATCH_TAG).random()
    assert seen == fresh


REFILLS = [1, 2, 63, 64, 65, 66, 200]


@pytest.mark.parametrize("n", REFILLS)
@pytest.mark.parametrize("drawn", [0, 1, 60])
def test_shuffle_matches_u01_fisher_yates(n, drawn):
    """The buffered shuffle gives the permutation of, and leaves the
    stream where, a Fisher-Yates drawing one ``u01`` per swap does."""
    ours, ref = RandomSource(run_stream(4, n)), RandomSource(run_stream(4, n))
    for _ in range(drawn):  # start partway into a block
        assert ours.u01() == ref.u01()
    items, expected = list(range(n)), list(range(n))
    ours.shuffle(items)
    for i in range(n - 1, 0, -1):
        j = int(ref.u01() * (i + 1))
        expected[i], expected[j] = expected[j], expected[i]
    assert items == expected
    assert [ours.u01() for _ in range(300)] == [ref.u01() for _ in range(300)]


def test_random_source_values_do_not_depend_on_block_sizes():
    small = RandomSource(run_stream(9, 0), block=1, cap=3)
    large = RandomSource(run_stream(9, 0))
    assert [small.u01() for _ in range(500)] == [large.u01() for _ in range(500)]


@pytest.mark.parametrize("block", [1, 16, 64])
def test_random_source_draws_are_the_stream_whatever_the_first_block(block):
    """``u01`` hands out the stream's consecutive doubles, past several
    refills, whatever the first block."""
    ours = RandomSource(run_stream(13, 2), block=block)
    draws = [ours.u01() for _ in range(300)]
    assert draws == run_stream(13, 2).random(300).tolist()
    run_source = source_for_run(13, 2)
    assert [run_source.u01() for _ in range(300)] == draws


BLOCK_SEEDS = [0, 1, 2**40 + 3, 2**63]
# (start, count): lone runs, a first block, a block ending at 2^32 - 1
# and one starting at 2^32, where the run index gains an entropy word
BLOCKS = [(0, 1), (2**32 - 1, 1), (0, 1024), (2**32 - 1024, 1024), (2**32, 1024)]


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("tag", [0, INIT_TAG])
@pytest.mark.parametrize("start,count", BLOCKS)
def test_stream_block_draws_equal_run_streams(seed, tag, start, count):
    """Each lane hands out its run's doubles bit for bit, across calls."""
    block = rng.StreamBlock(seed, start, count, tag)
    draws = np.hstack([block.random(5), block.random(0), block.random(7)])
    assert draws.shape == (count, 12) and block.drawn == 12
    for lane in range(count):
        assert np.array_equal(draws[lane], run_stream(seed, start + lane, tag).random(12))


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("lane", [0, 517, 1023])
def test_stream_block_hands_off_a_source_where_the_run_stands(seed, lane):
    """A run leaves the block as the ``RandomSource`` of its stream, past
    the doubles handed out: draws 11 to 210 cross its buffer's refill."""
    block = rng.StreamBlock(seed, 2**32 - 1024, 1024)
    block.random(11)
    source = block.source(lane)
    expected = source_for_run(seed, 2**32 - 1024 + lane)
    expected_draws = [expected.u01() for _ in range(211)][11:]
    assert [source.u01() for _ in range(200)] == expected_draws


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
@pytest.mark.parametrize("tag", [0, INIT_TAG])
@pytest.mark.parametrize("start,count", [(0, 300), (2**32 - 300, 300)])
def test_taken_lanes_draw_on_their_run_streams(seed, tag, start, count):
    """Ragged masks, taken twice in a row, then lane indices: each lane
    still taken draws on from where its run's stream stands, and the lanes
    left out draw nothing more."""
    pick = np.random.default_rng(seed % 2**32 + tag)
    block = rng.StreamBlock(seed, start, count, tag)
    runs = np.arange(start, start + count)
    drawn = dict(zip(runs.tolist(), block.random(2).tolist()))
    for _ in range(2):
        mask = pick.random(block.count) < 0.6
        block, runs = block.take(mask), runs[mask]
        assert block.count == len(runs) and block.drawn == len(drawn[int(runs[0])])
        assert not hasattr(block, "start")  # lane k is no longer run start + k
        for k, row in enumerate(block.random(3).tolist()):
            drawn[int(runs[k])] += row
    lanes = np.array([len(runs) - 1, 0, len(runs) // 2])
    block, runs = block.take(lanes), runs[lanes]
    for k, row in enumerate(block.random(1).tolist()):
        drawn[int(runs[k])] += row
    for r, values in drawn.items():
        assert values == run_stream(seed, r, tag).random(len(values)).tolist()
    assert {len(values) for values in drawn.values()} == {2, 5, 8, 9}


@pytest.mark.parametrize("seed", BLOCK_SEEDS)
def test_a_taken_block_hands_off_a_source_where_the_run_stands(seed):
    """``take(...).source(lane)`` continues the lane's stream past every
    double drawn before and after the take."""
    start = 2**32 - 1024
    block = rng.StreamBlock(seed, start, 1024)
    block.random(7)
    lanes = np.array([1023, 5, 600])
    taken = block.take(lanes)
    taken.random(4)
    for k, lane in enumerate(lanes.tolist()):
        expected = source_for_run(seed, start + lane)
        expected_draws = [expected.u01() for _ in range(111)][11:]
        source = taken.source(k)
        assert [source.u01() for _ in range(100)] == expected_draws


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 200])
def test_skip_passes_over_the_streams_doubles(k):
    source, reference_source = source_for_run(3, 8), source_for_run(3, 8)
    source.skip(k)
    for _ in range(k):
        reference_source.u01()
    assert [source.u01() for _ in range(100)] == [reference_source.u01() for _ in range(100)]


def block_spans(run_indices):
    return [(b.start, b.count) for b in rng.StreamBlock.cover(4, run_indices)]


def test_cover_cuts_blocks_at_the_cap_and_at_multiples_of_2_32():
    cap = rng._MAX_BLOCK
    assert block_spans(range(0)) == []
    assert block_spans(range(2 * cap + 5)) == [(0, cap), (cap, cap), (2 * cap, 5)]
    assert block_spans(range(2**32 - 3, 2**32 + 2)) == [(2**32 - 3, 3), (2**32, 2)]
    assert block_spans([7, 8, 9, 3, 4, 4, 2**32 - 1, 2**32]) == [
        (7, 3), (3, 2), (4, 1), (2**32 - 1, 1), (2**32, 1)]


def test_stream_block_refuses_negative_inputs_and_straddling_blocks():
    for args in ((-1, 0, 1), (0, -1, 1), (0, 0, 1, -1), (0, 2**32 - 1, 2), (0, 5, 0)):
        with pytest.raises(ValueError):
            rng.StreamBlock(*args)
