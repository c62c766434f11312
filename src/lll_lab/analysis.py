"""Exact oracles on enumerable instances and seeded Monte-Carlo verdicts.

Every distributional claim this package certifies is one-sided: the
theory gives an upper (or lower) bound, and a verdict allows a slack of
``SE_SLACK`` (four) standard errors, with run counts chosen so the slack
is small against each bound.  Only the distribution report's per-output
intervals are Wilson intervals; no verdict reads them.  A verdict
failure is a hard test failure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import chain, core
from .core import (
    DEFAULT_MAX_STEPS,
    LllError,
    RunReport,
    SearchProblem,
    all_charges,
    computed_init_ratio,
    measure_of_flaws,
    recommended_strategy,
    run,
)
from .criteria import (
    ShearerReport,
    cluster_expansion_check,
    independent_weight_sum,
    neighborhood_sum,
    shearer_polynomials,
)
from .dependency import DependencyGraph
from .witness import (
    CommutativityReport,
    check_commutativity,
    enumerate_witness_trees,
    trees_of_sequence,
)

SE_SLACK = 4.0
ORACLE_SHEARER_CAP = 20  # most flaws whose Shearer polynomials build_oracle computes


@dataclass(frozen=True)
class Verdict:
    name: str
    empirical: float
    bound: float
    se: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "empirical": self.empirical,
            "bound": self.bound,
            "se": self.se,
            "pass": bool(self.passed),
        }


def upper_verdict(name: str, empirical: float, bound: float, se: float) -> Verdict:
    return Verdict(name, empirical, bound, se, empirical <= bound + SE_SLACK * se)


def proportion_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n) if n else float("inf")


def refuse_single_run(runs: int) -> None:
    """Refuse a mean over fewer than two runs: their spread, and so the
    verdict's slack, is undefined.  Mean-based suites call it before
    sampling."""
    if runs < 2:
        raise LllError("a mean needs at least two runs to estimate its standard error")


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error (``refuse_single_run`` first)."""
    values = np.asarray(values)
    refuse_single_run(len(values))
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def verdict_report(op: str, verdicts: list[Verdict], **fields) -> dict:
    """A suite's report: its fields, its verdicts and whether all pass.
    Refuses an empty verdict list, which would pass having tested nothing."""
    if not verdicts:
        raise LllError(f"{op}: no verdicts to check")
    return {"op": op, **fields, "verdicts": verdicts,
            "all_pass": all(v.passed for v in verdicts)}


def wilson_interval(successes: int, n: int, z: float = SE_SLACK) -> tuple[float, float]:
    """Wilson score interval; z defaults to the package's 4-sigma slack."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def problem_charges(problem: SearchProblem) -> list[float]:
    """The charges every suite reads: the problem's ``declared_charges``,
    else the exact ones (oracle mode)."""
    if problem.declared_charges is not None:
        return list(problem.declared_charges)
    return all_charges(problem)


def problem_weights(problem: SearchProblem, psi: Sequence[float] | None,
                    refusal: str) -> list[float]:
    """``psi``, else the prewired ``default_weights``; refused with
    ``refusal`` when neither is given, and refused unless it holds one
    positive, finite weight per flaw."""
    if psi is None:
        psi = problem.default_weights
    if psi is None:
        raise LllError(refusal)
    if len(psi) != problem.num_flaws:
        raise LllError(f"{len(psi)} weights given for {problem.num_flaws} flaws")
    if not all(0 < w < math.inf for w in psi):
        raise LllError("weights must be positive and finite")
    return list(psi)


# ---------------------------------------------------------------------------
# oracle tables


@dataclass
class OracleTables:
    problem: SearchProblem
    states: list
    mu: dict
    flawless: list
    lll_distribution: dict | None  # mu conditioned on flawlessness
    charges: list[float]
    flaw_measures: list[float]
    shearer: ShearerReport | None
    graph: DependencyGraph


def build_oracle(problem: SearchProblem) -> OracleTables:
    """Exact tables for an enumerable problem: normalized measure, the
    flawless set and conditioned distribution, exact charges, and the
    signed independent-set polynomials when the flaw count permits."""
    space = problem.space
    states, mu = space.states, space.mu
    flawed = np.zeros(len(states), dtype=bool)
    for ids in space.members:
        flawed[ids] = True
    flawless = [states[k] for k in np.flatnonzero(~flawed).tolist()]
    mass = sum(mu[s] for s in flawless)
    lll = {s: mu[s] / mass for s in flawless} if mass > 0 else None
    charges = all_charges(problem)
    flaw_measures = measure_of_flaws(problem)
    shearer = None
    if problem.num_flaws <= ORACLE_SHEARER_CAP:
        shearer = shearer_polynomials(charges, problem.graph)
    return OracleTables(problem, states, mu, flawless, lll, charges, flaw_measures,
                        shearer, problem.graph)


# ---------------------------------------------------------------------------
# batched running (chain fast path with a generic fallback)


def _iter_runs(
    problem: SearchProblem,
    run_indices: Iterable[int],
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_trajectory: bool = False,
) -> Iterator[RunReport]:
    """One ``run`` report per run index, in order; the package's only loop
    over run indices.  The problem's recommended strategy is resolved
    once; ``run`` resets it at the start of every run, whose stream is
    keyed by (seed, run index)."""
    strategy = recommended_strategy(problem)
    for r in run_indices:
        yield run(problem, strategy, max_steps, seed, r, record_trajectory=record_trajectory)


@dataclass
class BatchStats:
    """Per-run step and address counts, a reducer of the outputs and the
    prefix trie of the witness sequences (when collected).

    ``outputs`` maps each distinct final canon to (the first final state
    with that canon, its run count), in order of first occurrence; it is
    empty when the outputs were not collected.  The trie is the one of
    ``chain.BatchResult``: per run a prefix id (0 is the empty sequence;
    -1 when censored or past ``chain.SEQUENCE_CAP``, which only the chain
    path applies), per prefix its parent and last flaw, a parent's id
    below its children's.
    """

    runs: int
    steps: np.ndarray
    terminated: np.ndarray
    flaw_counts: np.ndarray
    outputs: dict[bytes, tuple[object, int]]
    sequence_ids: np.ndarray | None = None
    prefix_parent: np.ndarray | None = None
    prefix_flaw: np.ndarray | None = None

    @property
    def censored(self) -> int:
        return self.runs - int(np.count_nonzero(self.terminated))

    @property
    def sequences(self) -> Iterator[int | None] | None:
        """One prefix id per run, in run order; ``None`` for an unknown run."""
        if self.sequence_ids is None:
            return None
        return (None if k < 0 else k for k in self.sequence_ids.tolist())


def _output_counts(problem: SearchProblem, finals: Iterable[tuple[object, int]]) -> dict:
    """Fold (final state, runs) pairs, in order of first occurrence, into
    canon -> (first state, runs)."""
    out: dict[bytes, tuple[object, int]] = {}
    for state, c in finals:
        key = problem.canon(state)
        first, total = out.get(key, (state, 0))
        out[key] = (first, total + c)
    return out


def run_many(
    problem: SearchProblem,
    runs: int,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    collect_sequences: bool = False,
    collect_outputs: bool = True,
) -> BatchStats:
    """Sample independent runs under the problem's recommended strategy;
    uses the exact-chain sampler when the problem enumerates and the
    strategy is state-deterministic, else the step-by-step runner
    (``step_stats``).  Either way, no per-run state or sequence tuple
    outlives the reducers and the prefix trie of ``BatchStats``.  A suite
    that reads no output passes ``collect_outputs=False``: no final state
    is then kept and no ``canon`` called."""
    # the chain needs a choice that is a fixed order of the flaws
    prio = recommended_strategy(problem).priority(problem.num_flaws)
    if problem.enumerate_states is None or prio is None:
        return step_stats(problem, range(runs), seed, max_steps, collect_sequences,
                          collect_outputs)
    tables = chain.build_chain_tables(problem, prio[1])
    result = chain.run_batch(tables, runs, seed, max_steps, record_sequences=collect_sequences)
    outputs = {}
    if collect_outputs:
        ids, mult = chain.final_counts(result.final_ids)
        outputs = _output_counts(problem, ((tables.states[k], c)
                                           for k, c in zip(ids.tolist(), mult.tolist())))
    return BatchStats(runs, result.steps, result.terminated, result.flaw_counts, outputs,
                      result.sequence_ids, result.prefix_parent, result.prefix_flaw)


def step_stats(
    problem: SearchProblem,
    run_indices: Sequence[int],
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    collect_sequences: bool = False,
    collect_outputs: bool = True,
) -> BatchStats:
    """The step runner's fold: one ``_iter_runs`` report per run index,
    in order, into one row per run of ``BatchStats``.  ``run_many`` folds
    ``range(runs)``; a ``--parallel`` worker folds its chunk, without
    outputs.

    Steps, flags and sequence ids collect in lists, and each array is
    built once at the end.  Only a run that took a step has nonzero
    address counts, so only its row of the zeroed count array is written,
    as the run ends: no report outlives its run."""
    counts = np.zeros((len(run_indices), problem.num_flaws), dtype=np.int32)
    steps, terminated, finals, sequence_ids = [], [], {}, []
    # (parent id, flaw) -> prefix id, numbered from 1 in order of insertion
    prefix_id: dict[tuple[int, int], int] = {}
    reports = _iter_runs(problem, run_indices, seed, max_steps, record_trajectory=collect_sequences)
    for k, rep in enumerate(reports):
        steps.append(rep.steps)
        terminated.append(rep.terminated)
        if rep.steps:  # the counts sum to the steps, so a 0-step row stays zero
            counts[k] = rep.resample_counts
        if collect_outputs:
            finals[rep.final_state] = finals.get(rep.final_state, 0) + 1
        if collect_sequences:
            node = -1
            if rep.terminated:
                node = 0
                for flaw in rep.trajectory.witness_sequence:
                    node = prefix_id.setdefault((node, flaw), len(prefix_id) + 1)
            sequence_ids.append(node)
    trie = (np.array(sequence_ids, dtype=np.int64), *np.array([(0, -1), *prefix_id]).T) \
        if collect_sequences else ()
    return BatchStats(len(steps), np.array(steps, dtype=np.int64),
                      np.array(terminated, dtype=bool), counts,
                      _output_counts(problem, finals.items()), *trie)


def refuse_censored(stats: BatchStats, op: str) -> None:
    """Refuse a verdict over runs that include censored ones: their
    counts and outputs are those of a run cut short, not of the algorithm."""
    if stats.censored:
        raise LllError(f"{op}: {stats.censored} of {stats.runs} runs censored at the step cap")


def uncensored(reports: Iterable[RunReport], op: str) -> Iterator[RunReport]:
    """Pass run reports through; once they are used up, refuse as
    ``refuse_censored`` does if any run was censored."""
    runs = censored = 0
    for rep in reports:
        runs += 1
        censored += not rep.terminated
        yield rep
    if censored:
        raise LllError(f"{op}: {censored} of {runs} runs censored at the step cap")


# ---------------------------------------------------------------------------
# witness tree lemma


def check_witness_tree_lemma(
    problem: SearchProblem,
    runs: int = 10**5,
    max_tree_nodes: int = 3,
    seed: int = 0,
) -> dict:
    """Empirical occurrence frequency of every witness tree up to the node
    cap against its charge-product bound lambda_init * prod gamma.

    Refuses non-commutative problems: the bound provably fails in
    general without the swap property.
    """
    if not check_commutativity(problem).commutative:
        raise LllError(
            "witness-tree bound requires a commutative problem: without "
            "the swap property the bound provably fails (see the "
            "Harvey-Vondrak counterexample for resampling oracles)"
        )
    graph = problem.graph
    charges = problem_charges(problem)
    lam = computed_init_ratio(problem)
    trees = [tw for root in range(problem.num_flaws)
             for tw in enumerate_witness_trees(root, graph, charges, max_tree_nodes)]
    if not trees:
        raise LllError(f"no witness trees with at most {max_tree_nodes} nodes to check")
    stats = run_many(problem, runs, seed, collect_sequences=True, collect_outputs=False)
    canon_to_slot = {t.canonical(): k for k, (t, _) in enumerate(trees)}
    known = stats.sequence_ids[stats.sequence_ids >= 0]
    # an unknown run (censored, or past the sequence record) is charged to every tree
    hits = [runs - known.size] * len(trees)
    ends = np.bincount(known, minlength=stats.prefix_parent.size)  # known runs per end
    parent, last_flaw = stats.prefix_parent.tolist(), stats.prefix_flaw.tolist()
    # the prefixes some known run passes through: no tree is built for the rest
    marked = {0}
    for node in np.flatnonzero(ends).tolist():
        while node not in marked:
            marked.add(node)
            node = parent[node]
    # the tree of step k reads only the prefix seq[:k], so each marked
    # prefix is matched once; a parent's id is below its children's, so
    # its sequence and the slots of the trees along it are ready first
    along: dict[int, tuple[tuple[int, ...], frozenset[int]]] = {0: ((), frozenset())}
    for node in sorted(marked)[1:]:
        seq, slots = along[parent[node]]
        seq += (last_flaw[node],)
        found = trees_of_sequence(seq, graph, max_tree_nodes, [len(seq)])
        slots |= {canon_to_slot.get(tree.canonical()) for _, tree in found} - {None}
        along[node] = seq, slots
        for slot in slots:
            hits[slot] += ends[node]
    p_hats = np.array(hits) / runs
    verdicts = [upper_verdict(f"tree[{tree.canonical().decode()}]", p_hats[k], lam * w,
                              proportion_se(p_hats[k], runs))
                for k, (tree, w) in enumerate(trees)]
    return verdict_report("check_witness_tree_lemma", verdicts, runs=runs, trees=len(trees))


# ---------------------------------------------------------------------------
# resample-count and event bounds


def check_resample_bounds(
    problem: SearchProblem,
    psi: Sequence[float] | None = None,
    runs: int = 10**5,
    seed: int = 0,
    mode: str = "cluster",
    total_bound: float | None = None,
    sample: Callable[[], BatchStats] | None = None,
    zeta_override: Mapping[int, float] | None = None,
) -> dict:
    """Mean per-flaw address counts against lambda_init * psi_i (cluster
    mode) or lambda_init * q_i/q_empty (shearer mode); refuses when the
    matching criterion fails or ``runs`` is below two, before sampling,
    and when a run is censored.  ``sample`` replaces ``run_many`` as the
    source of the runs."""
    graph = problem.graph
    charges = problem_charges(problem)
    lam = computed_init_ratio(problem)
    if mode == "cluster":
        psi = problem_weights(problem, psi, "cluster mode needs a weight vector")
        rep = cluster_expansion_check(charges, graph, psi, zeta_override=zeta_override)
        if not rep.passed:
            raise LllError("cluster expansion condition fails; bound not applicable")
        bounds = [lam * p for p in psi]
    elif mode == "shearer":
        srep = shearer_polynomials(charges, graph)
        if not srep.passed:
            raise LllError("shearer condition fails; bound not applicable")
        bounds = [lam * r for r in srep.ratios]
    else:
        raise LllError(f"unknown mode {mode!r}")
    refuse_single_run(runs)
    if problem.enumerate_states is not None:
        problem.space  # the state cap refuses before any run
    stats = run_many(problem, runs, seed, collect_outputs=False) if sample is None else sample()
    refuse_censored(stats, "check_resample_bounds")
    verdicts = []
    for i in range(problem.num_flaws):
        mean, se = mean_se(stats.flaw_counts[:, i])
        verdicts.append(upper_verdict(f"N[{problem.label(i)}]", mean, bounds[i], se))
    total_mean, total_se = mean_se(stats.steps)
    tb = total_bound if total_bound is not None else float(sum(bounds))
    verdicts.append(upper_verdict("total_steps", total_mean, tb, total_se))
    return verdict_report("check_resample_bounds", verdicts, mode=mode, runs=stats.runs)


def check_event_probability(
    problem: SearchProblem,
    event: Callable,
    event_actions: Callable | None = None,
    event_neighbors: Sequence[int] | None = None,
    psi: Sequence[float] | None = None,
    runs: int = 10**5,
    seed: int = 0,
) -> dict:
    """Pr[the trajectory ever visits the event, initial state included]
    against lambda_init * charge(event) * independent-subset sum over the
    event's neighborhood.

    ``event_actions`` defaults to resampling from the measure itself
    (always a valid commutative extension); ``event_neighbors`` defaults
    to every flaw.  Refuses censored runs.
    """
    psi = problem_weights(problem, psi, "needs a weight vector")
    space = problem.space
    if event_actions is None:
        event_actions = lambda s: space.mu  # shared, never mutated
    event_neighbors = range(problem.num_flaws) if event_neighbors is None else event_neighbors
    # the event's state ids, one event call per state; its rows are built
    # once, at the first pair with the event or else for the charge
    held = [k for k, s in enumerate(space.states) if event(s)]
    rows = functools.cache(lambda: space.transition_rows(held, event_actions, "the event"))
    if not check_commutativity(problem, rows, event_neighbors).commutative:
        raise LllError("event extension is not commutative; bound not applicable")
    gamma_e = core.charge_of_rows(space, rows())  # ``event_charge`` exactly
    adj = problem.graph.adj
    zeta = independent_weight_sum(
        sorted(event_neighbors), {j: adj[j] for j in event_neighbors},
        {j: psi[j] for j in event_neighbors},
    )
    bound = computed_init_ratio(problem) * gamma_e * zeta
    member = dict.fromkeys(space.states, False)
    member.update((space.states[k], True) for k in held)
    reports = _iter_runs(problem, range(runs), seed, record_trajectory=True)
    hits = sum(
        member[rep.trajectory.initial_state] or any(member[s] for (_, s) in rep.trajectory.steps)
        for rep in uncensored(reports, "check_event_probability")
    )
    p_hat = hits / runs
    verdict = upper_verdict("event_probability", p_hat, bound, proportion_se(p_hat, runs))
    return verdict_report("check_event_probability", [verdict], runs=runs, charge=gamma_e)


# ---------------------------------------------------------------------------
# output distribution


@dataclass
class DistributionReport:
    runs: int
    nu: dict  # canonical state bytes -> empirical probability
    intervals: dict  # canonical -> (low, high) Wilson bounds
    entropy2: float
    entropy_inf: float
    support_observed: int

    def to_json_dict(self) -> dict:
        return {
            "runs": self.runs,
            "support_observed": self.support_observed,
            "entropy2": self.entropy2,
            "entropy_inf": self.entropy_inf,
            "nu": {k.hex(): v for k, v in sorted(self.nu.items())},
            "intervals": {k.hex(): list(v) for k, v in sorted(self.intervals.items())},
        }


def empirical_distribution(stats: BatchStats) -> DistributionReport:
    counts = {c: mult for c, (_, mult) in stats.outputs.items()}
    n = stats.runs
    nu = {k: v / n for k, v in counts.items()}
    intervals = {k: wilson_interval(v, n) for k, v in counts.items()}
    sq = sum(p * p for p in nu.values())
    h2 = -math.log(sq) if sq > 0 else float("inf")
    pmax = max(nu.values()) if nu else 1.0
    hinf = -math.log(pmax)
    return DistributionReport(n, nu, intervals, h2, hinf, len(nu))


def renyi_entropy(dist: Mapping, rho: float) -> float:
    if rho == float("inf"):
        return -math.log(max(dist.values()))
    s = sum(p ** rho for p in dist.values())
    return math.log(s) / (1.0 - rho)


def output_distribution(
    problem: SearchProblem,
    psi: Sequence[float] | None = None,
    runs: int = 10**5,
    seed: int = 0,
) -> dict:
    """Empirical output distribution with the pointwise density bound
    nu(s) <= lambda_init * (independent-set weight sum) * mu(s) and the
    entropy lower bounds for orders 2 and infinity.

    Entropy estimates are plug-in over observed states; the min-entropy
    verdict conservatively inflates the top frequency by its 4-sigma
    error before comparing.
    """
    psi = problem_weights(problem, psi, "needs a weight vector")
    mu = problem.space.mu
    flaws = range(problem.num_flaws)
    u_all = independent_weight_sum(
        list(flaws), dict(enumerate(problem.graph.adj)), {j: psi[j] for j in flaws})
    lam = computed_init_ratio(problem)
    factor = lam * u_all
    stats = run_many(problem, runs, seed)
    refuse_censored(stats, "output_distribution")
    report = empirical_distribution(stats)
    mu_by_canon = {problem.canon(s): p for s, p in mu.items()}
    verdicts = []
    for canon, p_hat in sorted(report.nu.items()):
        se = proportion_se(p_hat, runs)
        bound = factor * mu_by_canon.get(canon, 0.0)
        verdicts.append(upper_verdict(f"nu[{canon.hex()}]", p_hat, bound, se))
    # entropy verdicts: H_rho[nu] >= H_rho[mu] - rho/(rho-1) (ln u + ln lam).
    # A verdict fails only when the data refutes the bound at the 4-sigma
    # level: the test statistic is the unbiased collision estimate (order
    # 2) or the top frequency (order infinity), each deflated by 4 errors
    # before passing through -log.
    h2_mu = renyi_entropy(mu, 2.0)
    hinf_mu = renyi_entropy(mu, float("inf"))
    log_u = math.log(u_all) + math.log(lam)
    h2_bound = h2_mu - 2.0 * log_u
    hinf_bound = hinf_mu - log_u
    pmax = max(report.nu.values())
    pmax_se = proportion_se(pmax, runs)
    hinf_high = -math.log(max(pmax - SE_SLACK * pmax_se, 1.0 / runs))
    counts_sq = sum((p * runs) ** 2 for p in report.nu.values())
    sq_unbiased = (counts_sq - runs) / (runs * (runs - 1)) if runs > 1 else 1.0
    third = sum(p ** 3 for p in report.nu.values())
    sq = sum(p * p for p in report.nu.values())
    sq_se = 2.0 * math.sqrt(max(third - sq * sq, 0.0) / runs)
    h2_high = -math.log(max(sq_unbiased - SE_SLACK * sq_se, 1.0 / runs))
    verdicts.append(Verdict("entropy2", report.entropy2, h2_bound, sq_se,
                            h2_high >= h2_bound))
    verdicts.append(Verdict("entropy_inf", report.entropy_inf, hinf_bound, pmax_se,
                            hinf_high >= hinf_bound))
    return verdict_report("output_distribution", verdicts, runs=runs, distribution=report,
                          support_lower_bound=math.exp(hinf_bound))


# ---------------------------------------------------------------------------
# partial avoidance


@dataclass(frozen=True)
class PartialAvoidanceConfig:
    psi: tuple[float, ...]
    charges: tuple[float, ...]
    zeta: tuple[float, ...]
    keep_probs: tuple[float, ...]  # p_i = min(1, psi_i / (zeta_i gamma_i))

    @staticmethod
    def build(problem: SearchProblem, psi: Sequence[float] | None,
              zeta: Sequence[float] | None = None) -> "PartialAvoidanceConfig":
        """``zeta`` defaults to each flaw's exact neighborhood sum."""
        psi = problem_weights(problem, psi, "partial suite needs --psi or prewired weights")
        charges = problem_charges(problem)
        if zeta is None:
            zeta = [neighborhood_sum(i, problem.graph, psi) for i in range(problem.num_flaws)]
        keep = tuple(min(1.0, p / (z * g)) if g > 0 and z > 0 else 1.0
                     for p, g, z in zip(psi, charges, zeta))
        if not all(0.0 <= p <= 1.0 for p in keep):
            raise LllError("keep probability out of range")
        return PartialAvoidanceConfig(tuple(psi), tuple(charges), tuple(zeta), keep)


def labeled_problem(problem: SearchProblem, cfg: PartialAvoidanceConfig) -> SearchProblem:
    """The labeled-space construction: states carry one Bernoulli label per
    flaw, a flaw counts as present only while its label is up, and
    addressing also redraws the label."""
    m = problem.num_flaws

    def present(i, st):
        s, labels = st
        return bool(labels >> i & 1) and problem.present(i, s)

    def flaws_present(st):
        s, labels = st
        return [i for i in problem.present_flaws(s) if labels >> i & 1]

    def sample_action(i, st, rng):
        s, labels = st
        nxt = problem.sample_action(i, s, rng)
        keep = rng.bernoulli(cfg.keep_probs[i])
        new_labels = labels | (1 << i) if keep else labels & ~(1 << i)
        return (nxt, new_labels)

    def sample_init(rng):
        s = problem.sample_init(rng)
        labels = 0
        for i in range(m):
            if rng.bernoulli(cfg.keep_probs[i]):
                labels |= 1 << i
        return (s, labels)

    def label_prob(labels: int) -> float:
        p = 1.0
        for i in range(m):
            pi = cfg.keep_probs[i]
            p *= pi if labels >> i & 1 else (1.0 - pi)
        return p

    def enumerate_states():
        labelings = [labels for labels in range(1 << m) if label_prob(labels) > 0.0]
        # refused by count: the base space times its label vectors
        if len(problem.space.states) * len(labelings) > core.STATE_CAP:
            raise LllError("state space exceeds oracle cap")
        for s in problem.enumerate_states():
            for labels in labelings:
                yield (s, labels)

    return SearchProblem(
        present=present,
        flaws_present=flaws_present,
        sample_action=sample_action,
        graph=problem.graph,
        sample_init=sample_init,
        canon=lambda st: problem.canon(st[0]) + st[1].to_bytes((m + 7) // 8, "little"),
        weight=lambda st: problem.weight(st[0]) * label_prob(st[1]),
        enumerate_states=enumerate_states if problem.enumerate_states else None,
        init_distribution=None if problem.init_distribution is None else (
            lambda st: problem.init_distribution(st[0]) * label_prob(st[1])),
        metadata={"strategy": problem.metadata.get("strategy")},
    )


def rainbow_partial(clique: EdgeColoredClique, runs: int = 1, seed: int = 0,
                    max_steps: int = DEFAULT_MAX_STEPS) -> dict:
    """Many-edges regime: run the label-truncated matcher and strip one
    edge per surviving conflict pair, reporting sizes against the exact
    lower bound on the expected count (and its large-n asymptotic form).

    The per-flaw truncation probability uses the closed-form neighborhood
    sum (1 + (2n-1)(lam n - 1) psi)^4, a valid stand-in for the exact
    enumeration at any instance size.  Refuses ``runs`` below one, whose
    mean size is undefined.
    """
    from .solvers.matchings import (matching_edges, partial_weight, rainbow_matching,
                                    rainbow_partial_bound, strip_conflicts)

    if runs < 1:
        raise LllError("rainbow_partial needs at least one run")
    problem = rainbow_matching(clique)
    n, m = clique.half, problem.num_flaws
    if m:
        alpha = partial_weight(clique)
        zeta_closed = (1.0 + (2 * n - 1) * (clique.multiplicity() - 1) * alpha) ** 4
        cfg = PartialAvoidanceConfig.build(problem, [alpha] * m, zeta=[zeta_closed] * m)
        outs = [(rep.terminated, strip_conflicts(clique, rep.final_state[0]))
                for rep in _iter_runs(labeled_problem(problem, cfg), range(runs), seed, max_steps)]
        exact_bound, asymptotic = rainbow_partial_bound(clique, alpha)
    else:  # already rainbow: one plain run stands for every run
        rep = run(problem, recommended_strategy(problem), max_steps, seed, 0)
        outs = [(rep.terminated, matching_edges(rep.final_state))] * runs
        alpha, exact_bound, asymptotic = None, float(n), float(n)
    sizes = [len(matching) for _, matching in outs]
    last_matching = outs[-1][1] if outs else None
    return {
        "op": "rainbow_partial",
        "runs": runs,
        "sizes": sizes,
        "mean_size": float(sum(sizes) / len(sizes)),
        "exact_bound": exact_bound,
        "asymptotic_bound": asymptotic,
        "alpha": alpha,
        "all_terminated": all(terminated for terminated, _ in outs),
        "last_matching": sorted(sorted(e) for e in last_matching) if last_matching is not None else None,
    }


def partial_avoidance(
    problem: SearchProblem,
    cfg: PartialAvoidanceConfig,
    runs: int = 10**5,
    seed: int = 0,
) -> dict:
    """Run the label-truncated algorithm and check, per flaw, the output
    violation rate against max(0, gamma_i zeta_i - psi_i) and the mean
    address count against psi_i.  Requires the initial distribution to be
    the measure itself."""
    if abs(computed_init_ratio(problem) - 1.0) > 1e-9:
        raise LllError("partial avoidance requires the measure as initial distribution")
    refuse_single_run(runs)
    lp = labeled_problem(problem, cfg)
    if lp.enumerate_states is not None:
        lp.space  # the state cap refuses before any run
    stats = run_many(lp, runs, seed)
    refuse_censored(stats, "partial_avoidance")
    m = problem.num_flaws
    # final flaw presence is judged on the base state, labels ignored
    verdicts = []
    counts = np.zeros(m, dtype=np.int64)
    for st, mult in stats.outputs.values():
        for i in problem.present_flaws(st[0]):
            counts[i] += mult
    for i in range(m):
        p_hat = counts[i] / runs
        se = proportion_se(p_hat, runs)
        bound = max(0.0, cfg.charges[i] * cfg.zeta[i] - cfg.psi[i])
        verdicts.append(upper_verdict(f"nu[{problem.label(i)}]", p_hat, bound, se))
    for i in range(m):
        mean, se = mean_se(stats.flaw_counts[:, i])
        verdicts.append(upper_verdict(f"N[{problem.label(i)}]", mean, cfg.psi[i], se))
    return verdict_report("partial_avoidance", verdicts, runs=runs)


# ---------------------------------------------------------------------------
# core truncation


def run_core_truncated(
    problem: SearchProblem,
    core: Sequence[int],
    psi: Sequence[float],
    runs: int = 10**5,
    seed: int = 0,
) -> dict:
    """Address only the core flaws; at termination any present flaw is a
    failure.  The failure rate is bounded by the sum over non-core flaws
    of mu(f) times the independent-subset weight sum of its neighborhood.
    Requires the restricted condition gamma_i * (sum over independent
    subsets of the core part of the neighborhood) <= psi_i for every i.
    Runs address the core flaws in the order of ``recommended_strategy``,
    which must be a fixed one.
    """
    prio = recommended_strategy(problem).priority(problem.num_flaws)
    if prio is None:
        raise LllError("core truncation needs a fixed flaw order; the recommended strategy "
                       "has none")
    psi = problem_weights(problem, psi, "core truncation needs a weight vector")
    graph = problem.graph
    charges = problem_charges(problem)
    core_set = set(core)
    for i in range(problem.num_flaws):
        restricted = sorted(set(graph.adj[i]) & core_set)
        z = independent_weight_sum(restricted, {j: graph.adj[j] for j in restricted},
                                   {j: psi[j] for j in restricted})
        if charges[i] * z > psi[i] + 1e-12:
            raise LllError("restricted criterion fails; truncation bound not applicable")
    flaw_measures = measure_of_flaws(problem)
    bound = 0.0
    for i in range(problem.num_flaws):
        if i in core_set:
            continue
        z = neighborhood_sum(i, graph, psi)
        bound += flaw_measures[i] * z
    tables = chain.build_chain_tables(problem, prio[1], flaw_subset=core_set)
    result = chain.run_batch(tables, runs, seed)
    ids, mult = chain.final_counts(result.final_ids)
    failures = sum(c for k, c in zip(ids.tolist(), mult.tolist())
                   if problem.present_flaws(tables.states[k]))
    p_hat = failures / runs
    verdict = upper_verdict("non_core_failure", p_hat, bound, proportion_se(p_hat, runs))
    return verdict_report("run_core_truncated", [verdict], runs=runs,
                          mean_steps=float(result.steps.mean()))


# ---------------------------------------------------------------------------
# weighted outputs


def matching_weight_analysis(problem: SearchProblem, edge_weights: Mapping, runs: int = 10**4,
                             seed: int = 0) -> dict:
    """Expected output weight of the rainbow-matching solver against
    (1 + 3 lambda/2)^2 / (2n - 1) times the total edge weight; weights
    must be nonnegative for the bound to apply.  Refuses censored runs."""
    from .solvers.matchings import matching_edges

    clique = problem.metadata.get("clique")
    if clique is None:
        raise LllError("matching weight analysis needs a rainbow problem")
    if any(w < 0 for w in edge_weights.values()):
        raise LllError("edge weights must be nonnegative")
    n2 = clique.num_vertices
    lam = clique.color_ratio()
    total_w = sum(edge_weights.values())
    bound = (1.0 + 1.5 * lam) ** 2 / (n2 - 1) * total_w
    refuse_single_run(runs)
    reports = uncensored(_iter_runs(problem, range(runs), seed), "matching_weight_analysis")
    mean, se = mean_se(np.array(
        [sum(edge_weights.get(e, 0.0) for e in matching_edges(rep.final_state))
         for rep in reports], dtype=float))
    verdict = upper_verdict("expected_weight", mean, bound, se)
    return verdict_report("weight_analysis", [verdict], kind="matching", runs=runs)


def coloring_weight_analysis(problem: SearchProblem, runs: int = 10**4, seed: int = 0) -> dict:
    """Per-vertex weighted-output bound for the greedy coloring: the
    empirical mean of each local function against r_v * a_v times its
    expectation under uniform proper colorings.  Refuses a negative local
    function before sampling (``local_weight_bound`` evaluates it on every
    proper coloring, every output among them), and censored runs."""
    from .solvers.coloring import ball, coloring_is_proper_vertex, local_weight_bound

    if "weights" not in problem.metadata:  # only the greedy coloring declares the key
        raise LllError("coloring weight analysis needs a greedy coloring problem")
    g = problem.metadata["graph"]
    q = problem.metadata["q"]
    spec = problem.metadata["weights"]
    if spec is None:
        raise LllError("coloring weight analysis needs a weight spec")
    proper = [s for s in problem.space.states if coloring_is_proper_vertex(g, s)]
    bounds = [local_weight_bound(g, q, spec, v, proper) for v in spec.vertices]
    refuse_single_run(runs)
    reports = uncensored(_iter_runs(problem, range(runs), seed), "coloring_weight_analysis")
    outs = [rep.final_state for rep in reports]
    verdicts = []
    for v, (r_v, a_v, expectation) in zip(spec.vertices, bounds):
        fn = spec.functions[v]
        keep = sorted(ball(g, v, spec.radii[v]))
        mean, se = mean_se(np.array([fn({u: s[u] for u in keep}) for s in outs]))
        verdicts.append(upper_verdict(f"W[{v}]", mean, r_v * a_v * expectation, se))
    return verdict_report("weight_analysis", verdicts, kind="coloring", runs=runs)


def report_to_json_dict(report: dict) -> dict:
    out = {}
    for k, v in report.items():
        if isinstance(v, Verdict):
            out[k] = v.to_json_dict()
        elif isinstance(v, list) and v and isinstance(v[0], Verdict):
            out[k] = [x.to_json_dict() for x in v]
        elif isinstance(v, (DistributionReport, CommutativityReport)):
            out[k] = v.to_json_dict()
        elif isinstance(v, (bool, int, float, str)) or v is None:
            out[k] = v
        elif isinstance(v, np.floating):
            out[k] = float(v)
        else:
            out[k] = str(v)
    return out
