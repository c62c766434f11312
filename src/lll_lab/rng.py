"""Deterministic randomness plumbing shared by the whole package.

All randomness is PCG64 (O'Neill's XSL-RR 128/64, as numpy implements
it), stepped by numpy's own ``PCG64`` or, a block of runs at a time, by
``StreamBlock`` on arrays.  A run is identified by the triple (master
seed, run index, tag); its stream is bit for bit
``PCG64(SeedSequence((master_seed, run_index, tag)))``, with tag 0 for
the per-run streams of ``core.run``.  Monte-Carlo drivers may fan runs
out across workers and still aggregate identical statistics because each
run owns an independent, reproducible stream.

``SeedSequence`` hashing costs more than a short run, so this module
does that step itself, vectorized over a block of consecutive run
indices: the same uint32 hash and mixing rounds on arrays, giving each
run the four uint64 words that ``SeedSequence.generate_state(4,
np.uint64)`` returns.

Those words seed a run's stream in one of two ways, with the same bits.
``run_stream`` and ``source_for_run`` seed numpy's own ``PCG64`` from
them, a bit generator per run.  Their words come from a per-process memo
of the last block computed for each (master seed, tag): a run index that
continues it doubles the block (up to ``_MAX_BLOCK``), any other
computes that index alone, through ``SeedSequence`` itself, which costs
less than the arrays for one index.  ``StreamBlock`` instead steps PCG64
itself on uint64 arrays, one lane per run of a block, so a batched start
draws the first doubles of every run at once and builds no generator,
and ``take`` keeps only the lanes still drawing, so a batched walk
(``analysis._run_block``) draws on for the runs still going.  A run that
walks alone instead leaves the block as a ``RandomSource`` seeded from
the block's words, past the doubles the block handed out; only then is
``numpy.random`` loaded.

A stream depends only on its triple, never on the order in which indices
are asked for or on the path that draws it.  The tests compare every
word with ``SeedSequence`` and every block's draws with ``run_stream``.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import LllError

SEED_ENV_VAR = "LLL_LAB_SEED"

# substream tags so batch drivers never collide with per-run streams
BATCH_TAG = 0x62617463  # "batc"
INIT_TAG = 0x696E6974  # "init"


def resolve_seed(seed: int | None) -> int:
    """Explicit seed, else the LLL_LAB_SEED environment variable, else 0.
    Refuses anything but a non-negative integer."""
    source = "seed"
    if seed is None:
        seed = os.environ.get(SEED_ENV_VAR, 0)
        source = SEED_ENV_VAR
    try:
        value = int(seed)
    except ValueError:
        value = -1
    if value < 0:
        raise LllError(f"{source} must be a non-negative integer, got {seed!r}")
    return value


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_PCG64_WORDS = 4  # uint64 words PCG64 asks its seed sequence for
_MAX_BLOCK = 1024
_MEMO_KEYS = 16  # (seed, tag) pairs kept; a few streams interleave at most


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative integer into uint32 words,
    least significant first; 0 is one word, and no word is padded."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@functools.cache
def _hash_chain(h: int, mult: int, steps: int) -> np.ndarray:
    """SeedSequence's hash constant over ``steps`` steps of
    ``h <- h * mult``, as a column of ``steps + 1`` uint32 values."""
    seq = [h]
    for _ in range(steps):
        seq.append(seq[-1] * mult & _MASK32)
    return np.array(seq, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, chain: np.ndarray, at: int, n: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` at hash-constant steps ``at`` to
    ``at + n - 1``, one step per row of the result."""
    values = (values ^ chain[at:at + n]) * chain[at + 1:at + n + 1]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


_OTHERS = [[d for d in range(_POOL_SIZE) if d != src] for src in range(_POOL_SIZE)]
_CYCLE = list(range(_POOL_SIZE)) * 2  # generate_state reads the pool cyclically


def _state_words(seed: int, tag: int, start: int, count: int) -> np.ndarray:
    """``SeedSequence((seed, r, tag)).generate_state(4, np.uint64)`` for
    the ``count`` run indices r from ``start``, one row per index.

    The indices must share ``r >> 32``: an index of 2^32 or more adds
    entropy words, and the high words must be the same across the block.
    All arithmetic is on uint32 arrays, which wrap without a warning.
    """
    head = _uint32_words(seed)
    high = start >> 32
    words = head + [0] + (_uint32_words(high) if high else []) + _uint32_words(tag)
    extra = max(0, len(words) - _POOL_SIZE)
    words += [0] * (_POOL_SIZE - len(words))  # the pool fill hashes 0 past the entropy
    entropy = np.array(words, dtype=np.uint32)[:, None].repeat(count, axis=1)
    low = start & _MASK32
    entropy[len(head)] = np.arange(low, low + count, dtype=np.uint32)

    chain = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    pool = _hashmix(entropy[:_POOL_SIZE], chain, 0, _POOL_SIZE)
    at = _POOL_SIZE
    # every pool word into every other one, sources in order
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, at, len(dst)))
        at += len(dst)
    # entropy words past the pool (long seeds or run indices) into every pool word
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, chain, at, _POOL_SIZE))
        at += _POOL_SIZE

    chain = _hash_chain(_INIT_B, _MULT_B, 2 * _PCG64_WORDS)
    state = _hashmix(pool[_CYCLE], chain, 0, 2 * _PCG64_WORDS).astype(np.uint64)
    # uint32 pairs read as little-endian uint64, as SeedSequence does
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


_EMPTY = np.zeros((0, _PCG64_WORDS), dtype=np.uint64)
_blocks: dict[tuple[int, int], tuple[int, np.ndarray]] = {}


def _run_words(seed: int, run_index: int, tag: int) -> np.ndarray:
    """The four PCG64 seed words of one run, from the per-process memo."""
    key = (seed, tag)
    start, block = _blocks.get(key, (0, _EMPTY))
    k = run_index - start
    if 0 <= k < len(block):
        return block[k]
    if min(seed, run_index, tag) < 0:
        raise ValueError("expected non-negative integer")
    count = min(2 * len(block), _MAX_BLOCK) if block.size and k == len(block) else 1
    count = min(count, (((run_index >> 32) + 1) << 32) - run_index)  # one r >> 32 per block
    _blocks.pop(key, None)
    if len(_blocks) >= _MEMO_KEYS:
        del _blocks[next(iter(_blocks))]  # the least recently extended
    if count == 1:  # SeedSequence itself costs less than the arrays for one index
        block = np.random.SeedSequence((seed, run_index, tag)).generate_state(
            _PCG64_WORDS, np.uint64)[None]
    else:
        block = _state_words(seed, tag, run_index, count)
    _blocks[key] = (run_index, block)
    return block[0]


@functools.cache
def _state_words_type() -> type:
    """An ``ISeedSequence`` that hands numpy's PCG64 seeding the words
    SeedSequence would generate.  Built on first use: ``numpy.random``
    loads lazily, and importing it costs more than building a problem."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _PCG64_WORDS or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are stored")
            return self.words

    return StateWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """numpy's PCG64 seeded from a run's four seed words."""
    return np.random.Generator(np.random.PCG64(_state_words_type()(words)))


def run_stream(master_seed: int, run_index: int = 0, tag: int = 0) -> np.random.Generator:
    """Generator for one run, derived from (master_seed, run_index, tag):
    the stream of ``PCG64(SeedSequence((master_seed, run_index, tag)))``."""
    return _generator(_run_words(int(master_seed), int(run_index), int(tag)))


# PCG64 (O'Neill's XSL-RR 128/64, as numpy implements it) on uint64 arrays:
# a 128-bit value is a (high, low) pair of arrays, one lane per run.  Every
# constant is an np.uint64, so the arithmetic stays on arrays, which wrap
# silently; 0-d scalars would warn on overflow.
_MULT_HI = np.uint64(0x2360ED051FC65DA4)  # PCG_DEFAULT_MULTIPLIER_128, high half
_MULT_LO = np.uint64(0x4385DF649FCCF645)  # low half, and its two 32-bit halves:
_MULT_LO_0 = np.uint64(0x9FCCF645)
_MULT_LO_1 = np.uint64(0x4385DF64)
_LOW32 = np.uint64(_MASK32)
_ONE, _U11, _U32 = np.uint64(1), np.uint64(11), np.uint64(32)
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)
_DOUBLE_ULP = 1.0 / 9007199254740992.0  # 2^-53: a double from a draw's top 53 bits


class StreamBlock:
    """The streams of the ``count`` consecutive run indices from
    ``start``, stepped together: one PCG64 lane per run, seeded from the
    words ``_state_words`` computes for the block.  ``random(k)`` hands out
    each lane's next k doubles, bit for bit those of ``run_stream(seed,
    start + lane, tag)``, and no numpy ``Generator`` is built.  ``take``
    narrows the block to some of its lanes, and a run that draws alone
    leaves it as ``source(lane)``.  A taken block has no ``start``: its
    lane k is no longer run ``start + k``.

    The indices must share ``r >> 32``, as ``_state_words`` requires;
    ``cover`` cuts a sequence of run indices into such blocks.
    """

    __slots__ = ("start", "count", "drawn", "_words", "_hi", "_lo", "_inc_hi", "_inc_lo")

    def __init__(self, seed: int, start: int, count: int, tag: int = 0):
        if min(seed, start, tag) < 0:
            raise ValueError("expected non-negative integer")
        if count < 1 or start >> 32 != (start + count - 1) >> 32:
            raise ValueError("a block holds at least one run index, all with one r >> 32")
        self.start, self.count, self.drawn = start, count, 0
        self._words = words = _state_words(seed, tag, start, count)
        # numpy's seeding: state 0 and increment 2 * initseq + 1, one step,
        # add initstate, one step; initstate and initseq are words 0-1 and
        # 2-3, high half first
        state_hi, state_lo, seq_hi, seq_lo = words.T
        self._inc_hi = (seq_hi << _ONE) | (seq_lo >> _U63)
        self._inc_lo = (seq_lo << _ONE) | _ONE
        self._lo = self._inc_lo + state_lo
        self._hi = self._inc_hi + state_hi + (self._lo < state_lo)
        self._step()

    @classmethod
    def cover(cls, seed: int, run_indices: Iterable[int]) -> Iterator[StreamBlock]:
        """Tag-0 blocks over ``run_indices`` in order: each stretch of
        consecutive indices, cut after ``_MAX_BLOCK`` indices and before
        every multiple of 2^32."""
        start = count = 0
        for r in run_indices:
            if count and r == start + count and count < _MAX_BLOCK and r & _MASK32:
                count += 1
                continue
            if count:
                yield cls(seed, start, count)
            start, count = r, 1
        if count:
            yield cls(seed, start, count)

    def _step(self) -> None:
        """state <- state * multiplier + increment, modulo 2^128."""
        lo = self._lo
        lo_0, lo_1 = lo & _LOW32, lo >> _U32
        p01, p10 = lo_0 * _MULT_LO_1, lo_1 * _MULT_LO_0
        mid = ((lo_0 * _MULT_LO_0) >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
        carries = lo_1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
        self._lo = lo * _MULT_LO + self._inc_lo
        self._hi = (carries + lo * _MULT_HI + self._hi * _MULT_LO + self._inc_hi
                    + (self._lo < self._inc_lo))

    def random(self, k: int) -> np.ndarray:
        """Each lane's next ``k`` doubles in [0, 1), one row per lane."""
        out = np.empty((self.count, k), order="F")
        for d in range(k):
            self._step()
            hi = self._hi
            x = hi ^ self._lo
            rot = hi >> _U58
            out[:, d] = ((x >> rot) | (x << ((_U64 - rot) & _U63))) >> _U11
        out *= _DOUBLE_ULP
        self.drawn += k
        return out

    def take(self, lanes: np.ndarray) -> StreamBlock:
        """The block of the chosen ``lanes`` (a boolean mask or lane
        indices), continuing their streams: each keeps its words and
        position, and ``drawn`` is kept, so ``source`` still hands a lane
        off past the doubles it has drawn.  Lanes are numbered anew, in the
        order taken, and ``start`` is left unset."""
        block = object.__new__(StreamBlock)
        block.drawn = self.drawn
        for name in ("_words", "_hi", "_lo", "_inc_hi", "_inc_lo"):
            setattr(block, name, getattr(self, name)[lanes])
        block.count = len(block._lo)
        return block

    def source(self, lane: int) -> RandomSource:
        """The ``RandomSource`` of ``lane``'s run, past the doubles the
        block has handed out: numpy's PCG64 seeded from the block's words,
        those doubles passed over through the source's own buffer."""
        source = RandomSource(_generator(self._words[lane]))
        source.skip(self.drawn)
        return source


class RandomSource:
    """Buffered uniform deviates drawn from a single PCG64 stream.

    Hot loops consume ``u01``/``randint`` from pre-drawn blocks, which is
    roughly an order of magnitude faster than per-call Generator methods.
    Blocks start small (cheap for short runs) and double up to a cap.
    ``Generator.random(k)`` draws the stream's next k doubles, so the
    values handed out, one per primitive call in call order, are the
    stream's consecutive doubles whatever the block sizes.
    """

    __slots__ = ("_gen", "_buf", "_pos", "_block", "_cap")

    def __init__(self, generator: np.random.Generator, block: int = 64, cap: int = 8192):
        self._gen = generator
        self._block = block
        self._cap = cap
        self._buf = generator.random(block)
        self._pos = 0

    def _refill(self) -> None:
        self._block = min(self._block * 2, self._cap)
        self._buf = self._gen.random(self._block)
        self._pos = 0

    def u01(self) -> float:
        """Uniform float in [0, 1)."""
        if self._pos >= self._block:
            self._refill()
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def skip(self, k: int) -> None:
        """Pass over the stream's next ``k`` doubles."""
        while k > self._block - self._pos:
            k -= self._block - self._pos
            self._refill()
        self._pos += k

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n).  Scaling bias is O(2^-53), negligible
        against the statistical tolerances used anywhere in this package."""
        return int(self.u01() * n)

    def coin(self) -> bool:
        return self.u01() < 0.5

    def bernoulli(self, p: float) -> bool:
        return self.u01() < p

    def choice(self, dist: dict):
        """A key of ``dist`` ({outcome: probability}): the first, in key
        order, whose cumulative probability exceeds one uniform."""
        u = self.u01()
        acc = 0.0
        for t, p in dist.items():
            acc += p
            if u < acc:
                return t
        return t

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this source's stream: position i,
        from the last down to 1, swaps with ``randint(i + 1)``.  The
        uniforms are read from the buffer a slice at a time."""
        i = len(items) - 1
        while i > 0:
            if self._pos >= self._block:
                self._refill()
            take = min(i, self._block - self._pos)
            draws = self._buf[self._pos:self._pos + take].tolist()
            self._pos += take
            for u in draws:
                j = int(u * (i + 1))
                items[i], items[j] = items[j], items[i]
                i -= 1


def source_for_run(master_seed: int, run_index: int = 0) -> RandomSource:
    return RandomSource(run_stream(master_seed, run_index))


class _Replay:
    """``RandomSource``'s primitives along one branch of their draws: draw
    d takes branch ``path[d]``, or 0 past the path, and records its width."""

    def __init__(self, path: list[int]):
        self.path = path
        self.widths: list[int] = []
        self.prob = 1.0

    def _branch(self, width: int) -> int:
        d = len(self.widths)
        self.widths.append(width)
        return self.path[d] if d < len(self.path) else 0

    def u01(self):
        raise LllError("a raw u01() draw has no exact law")

    def randint(self, n: int) -> int:
        self.prob *= 1.0 / n
        return self._branch(n)

    def bernoulli(self, p: float) -> bool:
        return self.choice({True: p, False: 1.0 - p})

    def coin(self) -> bool:
        return self.bernoulli(0.5)

    def choice(self, dist: dict):
        outcomes = [t for t, p in dist.items() if p > 0.0]
        t = outcomes[self._branch(len(outcomes))]
        self.prob *= dist[t]
        return t


def exact_distribution(sample, *args) -> dict:
    """The law {outcome: probability} of ``sample(*args, rng)`` when
    ``rng`` draws through ``randint``, ``coin``, ``bernoulli`` and
    ``choice``: one run along every branch of the draws, the first draw
    varying slowest.  A draw's branches follow the order of the uniforms
    they cover; one of probability zero is skipped.  A branch's probability
    is the product of its draws' in draw order; an outcome's adds its
    branches' in visiting order."""
    out: dict = {}
    paths: list[list[int]] = [[]]  # a stack: the next path to run is on top
    while paths:
        path = paths.pop()
        rng = _Replay(path)
        t = sample(*args, rng)
        out[t] = out.get(t, 0.0) + rng.prob
        # the other branches of each draw past the path, the last draw's on top
        for d in range(len(path), len(rng.widths)):
            paths += [path + [0] * (d - len(path)) + [k] for k in range(rng.widths[d] - 1, 0, -1)]
    return out
