"""Exact-chain machinery for enumerable problems.

When the state space enumerates and the flaw choice is a deterministic
function of the current state (lowest index or a fixed priority), a run
is a Markov chain with known per-state transition rows.  This module
builds those rows once, solves absorbing-chain statistics exactly, and
samples large run batches vectorized — the same distributions the
step-by-step runner uses, an order of magnitude faster.

A batch keeps no per-run record beyond fixed-width counters: witness
sequences are prefix ids into a trie that grows by one level per step,
with ``-1`` for a run whose sequence is unknown (longer than
``SEQUENCE_CAP`` steps, or censored), and final states fold into counts
by one ``bincount``, so its bookkeeping costs time linear in the steps
taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import DEFAULT_MAX_STEPS, LllError, SearchProblem
from .rng import BATCH_TAG, run_stream

# transient states of the dense absorbing-chain solve: 128 MB of float64
DENSE_TRANSIENT_CAP = 4096
# steps of a run its recorded witness sequence holds; a longer run's is unknown
SEQUENCE_CAP = 96


@dataclass
class ChainTables:
    """Transition rows padded to one width: row ``k`` lists its targets in
    ascending order with their cumulative probabilities, the last real
    entry pinned to exactly 1.0; padding repeats the last target at
    cumulative 1.0, so no draw in [0, 1) ever reaches it.  Absorbing rows
    hold the state itself."""

    problem: SearchProblem
    states: list
    absorbing: np.ndarray  # bool per state
    chosen_flaw: np.ndarray  # int per state, -1 when absorbing
    row_targets: np.ndarray  # states x width state ids
    row_cum: np.ndarray  # states x width cumulative probabilities
    init_ids: np.ndarray
    init_cum: np.ndarray


def build_chain_tables(
    problem: SearchProblem,
    priority: Sequence[int] | None = None,
    flaw_subset: set[int] | None = None,
) -> ChainTables:
    """Transition rows under lowest-index (or fixed-priority) flaw choice,
    selected from each chosen flaw's ``space.rows``.

    ``flaw_subset`` restricts attention to a core subset: only those flaws
    are ever addressed and absorption means none of them is present.  The
    chain starts from mu unless the problem states its initial law.
    """
    space = problem.space
    states = space.states
    n = len(states)
    # members scattered in reverse priority: each state keeps its first flaw
    chosen = np.full(n, -1, dtype=np.int64)
    for i in reversed(range(problem.num_flaws) if priority is None else priority):
        if flaw_subset is None or i in flaw_subset:
            chosen[space.members[i]] = i
    absorbing = chosen < 0
    flaws = np.unique(chosen[~absorbing]).tolist()
    sizes = np.zeros(n, dtype=np.int64)
    for i in flaws:
        sizes[chosen == i] = np.diff(space.rows(i).indptr)[chosen == i]
    width = int(sizes.max(initial=1))
    row_targets = np.repeat(np.arange(n, dtype=np.int64)[:, None], width, axis=1)
    row_cum = np.ones((n, width))
    for i in flaws:
        rows = space.rows(i)
        # rows of one length stacked: ``sum(axis=1)`` adds each row as
        # ``probs.sum()`` adds it alone, so every normalized row is unchanged
        for size in np.unique(sizes[chosen == i]).tolist():
            ks = np.flatnonzero((chosen == i) & (sizes == size))
            at = rows.indptr[ks, None] + np.arange(size)
            total = rows.probs[at].sum(axis=1)
            bad = np.abs(total - 1.0) > 1e-9
            if bad.any():
                raise LllError(f"action distribution sums to {total[bad][0]}")
            at = np.take_along_axis(at, np.argsort(rows.targets[at], axis=1), axis=1)
            row_targets[ks, :size] = rows.targets[at]
            row_targets[ks, size:] = rows.targets[at[:, -1:]]
            row_cum[ks, :size] = _pinned_cumsum(rows.probs[at] / total[:, None])
    init = problem.init_distribution
    init_p = space.mu_vector if init is None else np.array([init(s) for s in states], dtype=float)
    if init_p.sum() <= 0:
        raise LllError("initial distribution has no mass")
    init_p = init_p / init_p.sum()
    keep = init_p > 0
    init_ids = np.nonzero(keep)[0]
    init_cum = _pinned_cumsum(init_p[keep])
    return ChainTables(problem, states, absorbing, chosen, row_targets, row_cum, init_ids,
                       init_cum)


def _pinned_cumsum(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums whose last entry is exactly 1.0: rounding can leave
    it just below (``cumsum([0.1] * 10)[-1]`` is 0.9999999999999999), and
    a draw above it would then map past the last outcome."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _reaches_absorption(tables: ChainTables) -> np.ndarray:
    """Per state, whether an absorbing state is reachable from it along
    entries of positive probability, found backwards one step per round."""
    reaches, rest = tables.absorbing.copy(), np.flatnonzero(~tables.absorbing)
    while rest.size:
        live = np.diff(tables.row_cum[rest], prepend=0.0, axis=1) > 0  # padding adds 0
        now = (reaches[tables.row_targets[rest]] & live).any(axis=1)
        if not now.any():
            break
        reaches[rest[now]] = True
        rest = rest[~now]
    return reaches


def _reachable_from_start(tables: ChainTables) -> np.ndarray:
    """Per state, whether a run can visit it: the initial law's support
    closed forward along entries of positive probability."""
    seen = np.zeros(len(tables.states), dtype=bool)
    seen[tables.init_ids] = True
    frontier = tables.init_ids
    while frontier.size:
        live = np.diff(tables.row_cum[frontier], prepend=0.0, axis=1) > 0  # padding adds 0
        nxt = np.unique(tables.row_targets[frontier][live])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return seen


def _refuse_unabsorbed(tables: ChainTables) -> None:
    """Refuse a chain in which a run can reach a state that never reaches
    absorption: every run through it would be censored."""
    reaches = _reaches_absorption(tables)
    if reaches.all():
        return
    drawn = int(np.count_nonzero(~reaches[tables.init_ids]))
    if drawn:
        raise LllError(f"the chain is never absorbed: no absorbing state is reachable from "
                       f"{drawn} of the {tables.init_ids.size} states its initial law draws")
    seen = _reachable_from_start(tables)
    stuck = int(np.count_nonzero(seen & ~reaches))
    if stuck:
        raise LllError(f"the chain is never absorbed: no absorbing state is reachable from "
                       f"{stuck} of the {int(np.count_nonzero(seen))} states its runs can visit")


# passes of the guide-table walk before the draws left fall back to a binary search
GUIDE_PASSES = 4


def _draw_starts(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="left")`` for sorted ``cum`` ending
    at 1.0 and draws in [0, 1), through a guide table: bucket ``b`` of
    2^k >= len(cum) holds the first entry not below b / 2^k, and a draw
    walks forward from its bucket's entry.  ``u * 2^k`` is exact, so a
    draw never starts past its answer.  A law whose mass sits on few
    entries can leave many entries in one bucket; draws still unresolved
    after ``GUIDE_PASSES`` passes take the binary search."""
    buckets = 1 << (cum.size - 1).bit_length()
    guide = np.searchsorted(cum, np.arange(buckets) / buckets)
    pos = guide[(u * buckets).astype(np.intp)]
    todo = np.flatnonzero(cum[pos] < u)
    for _ in range(GUIDE_PASSES):
        if not todo.size:
            return pos
        pos[todo] += 1
        todo = todo[cum[pos[todo]] < u[todo]]
    pos[todo] = np.searchsorted(cum, u[todo])
    return pos


@dataclass
class BatchStats:
    """One batch of runs, whichever sampler ran it: per-run step and
    address counts and termination flags, a reducer of the outputs and
    the prefix trie of the witness sequences (when collected).

    ``outputs`` maps each distinct final canon to (the first final state
    with that canon, its run count), in order of first occurrence; it is
    empty when the outputs were not collected.  ``final_ids`` holds each
    run's final state id on the chain path (``run_batch``) and is None on
    the step path (``analysis.step_stats``).  The trie: per run a prefix
    id (0 is the empty sequence; -1 when censored or past
    ``SEQUENCE_CAP``, which only the chain path applies), per prefix its
    parent and last flaw, a parent's id below its children's.
    """

    steps: np.ndarray  # per-run step count (censored runs hit max_steps)
    terminated: np.ndarray
    flaw_counts: np.ndarray  # runs x m address counts
    outputs: dict[bytes, tuple[object, int]] = field(default_factory=dict)
    sequence_ids: np.ndarray | None = None
    prefix_parent: np.ndarray | None = None
    prefix_flaw: np.ndarray | None = None
    final_ids: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return len(self.steps)

    @property
    def censored(self) -> int:
        return self.runs - int(np.count_nonzero(self.terminated))

    @property
    def sequences(self) -> Iterator[int | None] | None:
        """One prefix id per run, in run order; ``None`` for an unknown run."""
        if self.sequence_ids is None:
            return None
        return (None if k < 0 else k for k in self.sequence_ids.tolist())

    @staticmethod
    def concat(parts: Sequence[BatchStats]) -> BatchStats:
        """The record of consecutive batches, run after run.  Only their
        per-run counts and flags join: a part that holds outputs, final
        ids or a trie is refused rather than dropped."""
        if any(p.outputs or p.final_ids is not None or p.sequence_ids is not None
               for p in parts):
            raise LllError("only batches of bare run counts concatenate")
        join = lambda name: np.concatenate([getattr(p, name) for p in parts])
        return BatchStats(join("steps"), join("terminated"), join("flaw_counts"))


def run_batch(
    tables: ChainTables,
    runs: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_sequences: bool = False,
) -> BatchStats:
    """Sample ``runs`` independent chains; statistics only depend on
    (seed, runs), not on how callers batch them.

    Each step draws one uniform per alive run, in run order, and maps it
    to the first row entry whose cumulative probability is not below it
    (``searchsorted`` with ``side="left"``), one column at a time.
    With ``record_sequences`` the first ``SEQUENCE_CAP`` steps of each
    run extend its prefix id: the alive runs' (prefix, flaw) pairs of a
    step get new ids in sorted order, so equal sequences share one id.
    The pairs are ranked through a presence table over the prefixes the
    previous step made, no larger than ``counts``, instead of by a sort.
    Refused before any draw when a run can reach a state that never
    reaches absorption: every run through it would be censored.
    """
    _refuse_unabsorbed(tables)
    rng = run_stream(seed, 0, BATCH_TAG)
    n_runs = int(runs)
    m = tables.problem.num_flaws
    current = tables.init_ids[_draw_starts(tables.init_cum, rng.random(n_runs))]
    steps = np.zeros(n_runs, dtype=np.int64)
    counts = np.zeros((n_runs, m), dtype=np.int32)
    seq_ids = prefix_parent = prefix_flaw = None
    if record_sequences:
        seq_ids = np.zeros(n_runs, dtype=np.int64)
        parents, last_flaws, next_id = [np.zeros(1, dtype=np.int64)], [np.full(1, -1)], 1
        made = 0  # the alive runs' prefix ids lie in made..next_id-1
    # the last column is 1.0 in every row, never below a draw: skip it
    cum_columns = np.ascontiguousarray(tables.row_cum[:, :-1].T)
    idx = np.nonzero(~tables.absorbing[current])[0]
    t = 0
    while idx.size and t < max_steps:
        cur = current[idx]
        draws = rng.random(idx.size)
        pos = np.zeros(idx.size, dtype=np.intp)
        for column in cum_columns:
            pos += column[cur] < draws
        nxt = tables.row_targets[cur, pos]
        flaws = tables.chosen_flaw[cur]
        counts[idx, flaws] += 1  # run indices are unique within a step
        if record_sequences and t < SEQUENCE_CAP:
            pairs = (seq_ids[idx] - made) * m + flaws
            seen = np.zeros((next_id - made) * m, dtype=bool)
            seen[pairs] = True
            keys = np.flatnonzero(seen)
            parents.append(made + keys // m)
            last_flaws.append(keys % m)
            made = next_id
            rank = np.cumsum(seen, dtype=np.int32)  # a key's 1-based rank among the keys
            seq_ids[idx] = np.int64(next_id - 1) + rank[pairs]
            next_id += keys.size
        current[idx] = nxt
        steps[idx] += 1
        idx = idx[~tables.absorbing[nxt]]
        t += 1
    terminated = tables.absorbing[current]
    if record_sequences:
        seq_ids[~terminated | (steps > SEQUENCE_CAP)] = -1
        prefix_parent, prefix_flaw = np.concatenate(parents), np.concatenate(last_flaws)
    return BatchStats(steps, terminated, counts, {}, seq_ids, prefix_parent, prefix_flaw,
                      final_ids=current)


def final_counts(final_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct final state ids in order of first occurrence, with
    their run counts: one ``bincount`` and one ``minimum.at``, in time
    linear in the runs and the states."""
    mult = np.bincount(final_ids)
    first = np.full(mult.size, final_ids.size, dtype=np.intp)
    np.minimum.at(first, final_ids, np.arange(final_ids.size))
    ids = np.flatnonzero(mult)
    ids = ids[np.argsort(first[ids])]
    return ids, mult[ids]


# ---------------------------------------------------------------------------
# exact absorbing-chain statistics


@dataclass
class ExactChainStats:
    expected_steps: float
    expected_flaw_counts: np.ndarray  # E[N_i]
    absorption: dict  # state -> probability over absorbing states


def exact_statistics(tables: ChainTables) -> ExactChainStats:
    """Solve the absorbing chain: expected per-flaw address counts,
    expected steps, and the exact output distribution.  Only the
    transient states a run can visit enter the solve; the others get no
    visits whatever their rows hold."""
    n = len(tables.states)
    trans_ids = np.flatnonzero(~tables.absorbing & _reachable_from_start(tables))
    init_full = np.zeros(n)
    init_full[tables.init_ids] = np.diff(tables.init_cum, prepend=0.0)
    nt = trans_ids.size
    if nt > DENSE_TRANSIENT_CAP:
        raise LllError(f"{nt} transient states exceed the dense solve cap {DENSE_TRANSIENT_CAP}")
    # (I - P) is singular unless every transient state can reach absorption
    stuck = nt - int(np.count_nonzero(_reaches_absorption(tables)[trans_ids]))
    if stuck:
        raise LllError(f"the chain is never absorbed: no absorbing state is reachable from "
                       f"{stuck} of the {nt} transient states its runs can visit")
    pos = np.full(n, -1, dtype=np.int64)
    pos[trans_ids] = np.arange(nt)
    targets = tables.row_targets[trans_ids]
    probs = np.diff(tables.row_cum[trans_ids], prepend=0.0, axis=1)  # padding adds 0
    rows = np.broadcast_to(np.arange(nt)[:, None], targets.shape)
    to_absorbing = tables.absorbing[targets]
    p_tt = np.zeros((nt, nt))
    p_ta = np.zeros((nt, n))
    np.add.at(p_ta, (rows[to_absorbing], targets[to_absorbing]), probs[to_absorbing])
    keep = ~to_absorbing
    np.add.at(p_tt, (rows[keep], pos[targets[keep]]), probs[keep])
    init_t = init_full[trans_ids]
    # expected visits: v = init_t (I - P)^-1, solved as (I - P)^T v = init_t
    visits_t = np.linalg.solve(np.eye(nt) - p_tt.T, init_t)
    expected_steps = float(visits_t.sum())
    m = tables.problem.num_flaws
    flaw_counts = np.zeros(m)
    np.add.at(flaw_counts, tables.chosen_flaw[trans_ids], visits_t)
    absorbed = visits_t @ p_ta
    absorbed_full = absorbed + np.where(tables.absorbing, init_full, 0.0)
    absorption = {
        tables.states[k]: float(absorbed_full[k])
        for k in range(n)
        if tables.absorbing[k] and absorbed_full[k] > 0
    }
    return ExactChainStats(expected_steps, flaw_counts, absorption)
