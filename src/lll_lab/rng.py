"""Deterministic randomness plumbing shared by the whole package.

All randomness flows through numpy's PCG64.  A run is identified by the
pair (master seed, run index); its stream is PCG64 seeded with
``SeedSequence((master_seed, run_index))``.  Monte-Carlo drivers may fan
runs out across workers and still aggregate identical statistics because
each run owns an independent, reproducible stream.
"""

from __future__ import annotations

import os

import numpy as np

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
        from .core import LllError  # core imports this module

        raise LllError(f"{source} must be a non-negative integer, got {seed!r}")
    return value


def run_stream(master_seed: int, run_index: int = 0, tag: int = 0) -> np.random.Generator:
    """Generator for one run, derived from (master_seed, run_index, tag)."""
    ss = np.random.SeedSequence((int(master_seed), int(run_index), int(tag)))
    return np.random.Generator(np.random.PCG64(ss))


class RandomSource:
    """Buffered uniform deviates drawn from a single PCG64 stream.

    Hot loops consume ``u01``/``randint`` from pre-drawn blocks, which is
    roughly an order of magnitude faster than per-call Generator methods.
    Blocks start small (cheap for short runs) and double up to a cap; the
    block schedule is fixed, so the consumption order -- one u01 per
    primitive call -- stays deterministic per seed.
    """

    __slots__ = ("_gen", "_buf", "_pos", "_block", "_cap")

    def __init__(self, generator: np.random.Generator, block: int = 64, cap: int = 8192):
        self._gen = generator
        self._block = block
        self._cap = cap
        self._buf = generator.random(block)
        self._pos = 0

    def u01(self) -> float:
        """Uniform float in [0, 1)."""
        if self._pos >= self._block:
            self._block = min(self._block * 2, self._cap)
            self._buf = self._gen.random(self._block)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n).  Scaling bias is O(2^-53), negligible
        against the statistical tolerances used anywhere in this package."""
        return int(self.u01() * n)

    def coin(self) -> bool:
        return self.u01() < 0.5

    def bernoulli(self, p: float) -> bool:
        return self.u01() < p

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this source's stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def source_for_run(master_seed: int, run_index: int = 0) -> RandomSource:
    return RandomSource(run_stream(master_seed, run_index))
