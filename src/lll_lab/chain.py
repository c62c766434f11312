"""Exact-chain machinery for enumerable problems.

When the state space enumerates and the flaw choice is a deterministic
function of the current state (lowest index or a fixed priority), a run
is a Markov chain with known per-state transition rows.  This module
builds those rows once, solves absorbing-chain statistics exactly, and
samples large run batches vectorized — the same distributions the
step-by-step runner uses, an order of magnitude faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LllError, SearchProblem, state_list
from .rng import BATCH_TAG, run_stream


@dataclass
class ChainTables:
    problem: SearchProblem
    states: list
    index: dict
    absorbing: np.ndarray  # bool per state
    chosen_flaw: np.ndarray  # int per state, -1 when absorbing
    row_targets: list[np.ndarray | None]
    row_cum: list[np.ndarray | None]
    init_ids: np.ndarray
    init_cum: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.states)


def build_chain_tables(
    problem: SearchProblem,
    priority: list[int] | None = None,
    flaw_subset: set[int] | None = None,
) -> ChainTables:
    """Transition rows under lowest-index (or fixed-priority) flaw choice.

    ``flaw_subset`` restricts attention to a core subset: only those flaws
    are ever addressed and absorption means none of them is present.
    """
    if problem.action_distribution is None or problem.enumerate_states is None:
        raise LllError("chain tables require oracle mode")
    if problem.init_distribution is None:
        raise LllError("chain tables require an explicit initial distribution")
    states = state_list(problem)
    index = {s: k for k, s in enumerate(states)}
    n = len(states)
    rank = {f: r for r, f in enumerate(priority)} if priority is not None else None
    absorbing = np.zeros(n, dtype=bool)
    chosen = np.full(n, -1, dtype=np.int64)
    row_targets: list[np.ndarray | None] = [None] * n
    row_cum: list[np.ndarray | None] = [None] * n
    for k, s in enumerate(states):
        present = problem.present_flaws(s)
        if flaw_subset is not None:
            present = [i for i in present if i in flaw_subset]
        if not present:
            absorbing[k] = True
            continue
        i = min(present, key=(lambda f: rank[f]) if rank is not None else (lambda f: f))
        chosen[k] = i
        dist = problem.action_distribution(i, s)
        targets = np.array([index[t] for t in dist], dtype=np.int64)
        probs = np.array(list(dist.values()), dtype=float)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise LllError(f"action distribution sums to {total}")
        order = np.argsort(targets)
        row_targets[k] = targets[order]
        row_cum[k] = np.cumsum(probs[order] / total)
    init_p = np.array([problem.init_distribution(s) for s in states], dtype=float)
    if init_p.sum() <= 0:
        raise LllError("initial distribution has no mass")
    init_p = init_p / init_p.sum()
    keep = init_p > 0
    init_ids = np.nonzero(keep)[0]
    init_cum = np.cumsum(init_p[keep])
    return ChainTables(problem, states, index, absorbing, chosen, row_targets, row_cum,
                       init_ids, init_cum)


@dataclass
class BatchResult:
    steps: np.ndarray  # per-run step count (censored runs hit max_steps)
    final_ids: np.ndarray
    terminated: np.ndarray
    flaw_counts: np.ndarray  # runs x m address counts
    sequences: np.ndarray | None  # runs x cap int16 flaw ids, -1 padding
    sequence_overflow: np.ndarray | None


def run_batch(
    tables: ChainTables,
    runs: int,
    seed: int,
    max_steps: int = 10**6,
    record_sequences: bool = False,
    sequence_cap: int = 64,
) -> BatchResult:
    """Sample ``runs`` independent chains; statistics only depend on
    (seed, runs), not on how callers batch them."""
    rng = run_stream(seed, 0, BATCH_TAG)
    n_runs = int(runs)
    m = tables.problem.num_flaws
    u = rng.random(n_runs)
    current = tables.init_ids[np.searchsorted(tables.init_cum, u)]
    steps = np.zeros(n_runs, dtype=np.int64)
    counts = np.zeros((n_runs, m), dtype=np.int32)
    seqs = np.full((n_runs, sequence_cap), -1, dtype=np.int16) if record_sequences else None
    overflow = np.zeros(n_runs, dtype=bool) if record_sequences else None
    alive = ~tables.absorbing[current]
    t = 0
    while alive.any() and t < max_steps:
        idx = np.nonzero(alive)[0]
        cur = current[idx]
        draws = rng.random(idx.size)
        nxt = np.empty(idx.size, dtype=np.int64)
        flaws = tables.chosen_flaw[cur]
        for s in np.unique(cur):
            mask = cur == s
            nxt[mask] = tables.row_targets[s][np.searchsorted(tables.row_cum[s], draws[mask])]
        np.add.at(counts, (idx, flaws), 1)
        if record_sequences:
            if t < sequence_cap:
                seqs[idx, t] = flaws.astype(np.int16)
            else:
                overflow[idx] = True
        current[idx] = nxt
        steps[idx] += 1
        alive[idx] = ~tables.absorbing[nxt]
        t += 1
    return BatchResult(steps, current, ~alive, counts, seqs, overflow)


# ---------------------------------------------------------------------------
# exact absorbing-chain statistics


@dataclass
class ExactChainStats:
    expected_steps: float
    expected_flaw_counts: np.ndarray  # E[N_i]
    absorption: dict  # state -> probability over absorbing states
    transient_visits: np.ndarray  # expected visits per state


def exact_statistics(tables: ChainTables) -> ExactChainStats:
    """Solve the absorbing chain: expected visits, expected per-flaw
    address counts, expected steps, and the exact output distribution."""
    n = tables.num_states
    trans_ids = np.nonzero(~tables.absorbing)[0]
    if trans_ids.size == 0:
        init = np.zeros(n)
        init[tables.init_ids] = np.diff(np.concatenate([[0.0], tables.init_cum]))
        absorption = {tables.states[k]: float(init[k]) for k in range(n) if init[k] > 0}
        return ExactChainStats(0.0, np.zeros(tables.problem.num_flaws), absorption, np.zeros(n))
    pos = {s: k for k, s in enumerate(trans_ids)}
    nt = trans_ids.size
    p_tt = np.zeros((nt, nt))
    p_ta = np.zeros((nt, n))
    for row, s in enumerate(trans_ids):
        targets = tables.row_targets[s]
        cum = tables.row_cum[s]
        probs = np.diff(np.concatenate([[0.0], cum]))
        for t_id, p in zip(targets, probs):
            if tables.absorbing[t_id]:
                p_ta[row, t_id] += p
            else:
                p_tt[row, pos[t_id]] += p
    init_full = np.zeros(n)
    init_full[tables.init_ids] = np.diff(np.concatenate([[0.0], tables.init_cum]))
    init_t = init_full[trans_ids]
    # expected visits: v = init_t (I - P)^-1, solved as (I - P)^T v = init_t
    visits_t = np.linalg.solve(np.eye(nt) - p_tt.T, init_t)
    expected_steps = float(visits_t.sum())
    m = tables.problem.num_flaws
    flaw_counts = np.zeros(m)
    for row, s in enumerate(trans_ids):
        flaw_counts[tables.chosen_flaw[s]] += visits_t[row]
    absorbed = visits_t @ p_ta
    absorbed_full = absorbed + np.where(tables.absorbing, init_full, 0.0)
    absorption = {
        tables.states[k]: float(absorbed_full[k])
        for k in range(n)
        if tables.absorbing[k] and absorbed_full[k] > 0
    }
    visits = np.zeros(n)
    visits[trans_ids] = visits_t
    return ExactChainStats(expected_steps, flaw_counts, absorption, visits)
