"""Per-run streams: the batched derivation against numpy's SeedSequence,
the memo that holds its blocks, and the buffered RandomSource."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lll_lab import analysis, rng
from lll_lab.core import run
from lll_lab.rng import BATCH_TAG, INIT_TAG, RandomSource, run_stream
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
    first = analysis.iter_runs(problem, order, 17, record_trajectory=True)
    second = analysis.iter_runs(problem, backward, 18, record_trajectory=True)
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
