"""Exact oracles on enumerable instances and seeded Monte-Carlo verdicts.

Every distributional claim this package certifies is one-sided: the
theory gives an upper (or lower) bound; estimates use Wilson intervals
and a four-standard-error slack, with run counts chosen so the slack is
small against each bound.  A verdict failure is a hard test failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import chain
from .core import (
    DEFAULT_MAX_STEPS,
    LllError,
    RunReport,
    SearchProblem,
    all_charges,
    computed_init_ratio,
    make_strategy,
    measure_of_flaws,
    normalized_measure,
    recommended_strategy,
    run,
    state_list,
)
from .criteria import (
    DependencyGraph,
    ShearerReport,
    cluster_expansion_check,
    independent_weight_sum,
    neighborhood_sum,
    shearer_polynomials,
)
from .witness import (
    CommutativityReport,
    check_commutativity,
    enumerate_witness_trees,
    trees_of_sequence,
)

SE_SLACK = 4.0


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


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error.  Refuses fewer than two
    samples: their spread, and so the verdict's slack, is undefined."""
    values = np.asarray(values)
    if len(values) < 2:
        raise LllError("a mean needs at least two runs to estimate its standard error")
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

    def lll_probability(self, event: Callable) -> float:
        if self.lll_distribution is None:
            raise LllError("flawless set is empty")
        return sum(p for s, p in self.lll_distribution.items() if event(s))

    def mu_probability(self, event: Callable) -> float:
        return sum(p for s, p in self.mu.items() if event(s))


def build_oracle(problem: SearchProblem, state_cap: int = 10**6,
                 shearer_cap: int = 20) -> OracleTables:
    """Exact tables for an enumerable problem: normalized measure, the
    flawless set and conditioned distribution, exact charges, and the
    signed independent-set polynomials when the flaw count permits."""
    states = state_list(problem)
    if len(states) > state_cap:
        raise LllError("state space exceeds oracle cap")
    mu = normalized_measure(problem, states)
    flawless = [s for s in states if not problem.present_flaws(s)]
    mass = sum(mu[s] for s in flawless)
    lll = {s: mu[s] / mass for s in flawless} if mass > 0 else None
    charges = all_charges(problem)
    flaw_measures = measure_of_flaws(problem)
    graph = dependency_graph_of(problem)
    shearer = None
    if problem.num_flaws <= shearer_cap:
        shearer = shearer_polynomials(charges, graph)
    return OracleTables(problem, states, mu, flawless, lll, charges, flaw_measures,
                        shearer, graph)


def dependency_graph_of(problem: SearchProblem) -> DependencyGraph:
    return DependencyGraph(
        problem.num_flaws,
        tuple(frozenset(problem.neighbors(i)) for i in range(problem.num_flaws)),
    )


# ---------------------------------------------------------------------------
# batched running (chain fast path with a generic fallback)


def iter_runs(
    problem: SearchProblem,
    run_indices: Iterable[int],
    seed: int,
    strategy=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_trajectory: bool = False,
) -> Iterator[RunReport]:
    """One ``run`` report per run index, in order; the package's only loop
    over run indices.  The strategy (by default the problem's recommended
    one) is resolved once; ``run`` resets it at the start of every run,
    whose stream is keyed by (seed, run index)."""
    strategy = recommended_strategy(problem) if strategy is None else make_strategy(strategy)
    for r in run_indices:
        yield run(problem, strategy, max_steps, seed, r, record_trajectory=record_trajectory)


@dataclass
class BatchStats:
    runs: int
    steps: np.ndarray
    terminated: np.ndarray
    flaw_counts: np.ndarray
    final_canon: list[bytes]
    sequences: list[tuple[int, ...]] | None
    final_states: list | None = None


def run_many(
    problem: SearchProblem,
    runs: int,
    seed: int,
    strategy=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    collect_sequences: bool = False,
    use_chain: bool | None = None,
) -> BatchStats:
    """Sample independent runs; uses the exact-chain sampler when the
    problem enumerates and the strategy is state-deterministic, else the
    step-by-step runner (``iter_runs``)."""
    strategy = recommended_strategy(problem) if strategy is None else make_strategy(strategy)
    chain_ok = (
        problem.enumerate_states is not None
        and problem.action_distribution is not None
        and problem.init_distribution is not None
        and strategy.name in ("lowest_index", "fixed_priority")
    )
    if use_chain is None:
        use_chain = chain_ok
    if use_chain and not chain_ok:
        raise LllError("chain fast path unavailable for this problem/strategy")
    if use_chain:
        priority = None
        if strategy.name == "fixed_priority":
            priority = sorted(range(problem.num_flaws), key=lambda i: strategy.rank[i])
        tables = chain.build_chain_tables(problem, priority)
        cap = 96
        result = chain.run_batch(tables, runs, seed, max_steps,
                                 record_sequences=collect_sequences, sequence_cap=cap)
        final_states = [tables.states[k] for k in result.final_ids]
        final_canon = [problem.canon(s) for s in final_states]
        sequences = None
        if collect_sequences:
            # runs longer than the recording cap keep a None sentinel;
            # one-sided consumers must treat them conservatively
            sequences = [None if over else tuple(int(x) for x in row[row >= 0])
                         for row, over in zip(result.sequences, result.sequence_overflow)]
        return BatchStats(runs, result.steps, result.terminated, result.flaw_counts,
                          final_canon, sequences, final_states)
    steps = np.zeros(runs, dtype=np.int64)
    terminated = np.zeros(runs, dtype=bool)
    counts = np.zeros((runs, problem.num_flaws), dtype=np.int32)
    final_states: list = []
    sequences = [] if collect_sequences else None
    reports = iter_runs(problem, range(runs), seed, strategy, max_steps,
                        record_trajectory=collect_sequences)
    # filled row by row, so no report outlives its run: holding every
    # report's count tuple until the end grows peak memory with the runs
    for k, rep in enumerate(reports):
        steps[k], terminated[k], counts[k] = rep.steps, rep.terminated, rep.resample_counts
        final_states.append(rep.final_state)
        if collect_sequences:
            sequences.append(rep.trajectory.witness_sequence)
    return BatchStats(runs, steps, terminated, counts, [problem.canon(s) for s in final_states],
                      sequences, final_states)


# ---------------------------------------------------------------------------
# witness tree lemma


def check_witness_tree_lemma(
    problem: SearchProblem,
    strategy=None,
    runs: int = 10**5,
    max_tree_nodes: int = 3,
    seed: int = 0,
    charges: Sequence[float] | None = None,
    require_commutative: bool = True,
) -> dict:
    """Empirical occurrence frequency of every witness tree up to the node
    cap against its charge-product bound lambda_init * prod gamma.

    Refuses non-commutative problems: the bound provably fails in
    general without the swap property.
    """
    if require_commutative:
        comm = check_commutativity(problem)
        if not comm.commutative:
            raise LllError(
                "witness-tree bound requires a commutative problem: without "
                "the swap property the bound provably fails (see the "
                "Harvey-Vondrak counterexample for resampling oracles)"
            )
    graph = dependency_graph_of(problem)
    if charges is None:
        charges = problem.declared_charges or all_charges(problem)
    lam = computed_init_ratio(problem)
    trees = [tw for root in range(problem.num_flaws)
             for tw in enumerate_witness_trees(root, graph, list(charges), max_tree_nodes)]
    if not trees:
        raise LllError(f"no witness trees with at most {max_tree_nodes} nodes to check")
    stats = run_many(problem, runs, seed, strategy, collect_sequences=True)
    canon_to_slot = {t.canonical(): k for k, (t, _) in enumerate(trees)}
    hits = np.zeros(len(trees), dtype=np.int64)
    seq_counts: dict[tuple[int, ...], int] = {}
    overflow = 0
    for s in stats.sequences:
        if s is None:
            overflow += 1  # unrecorded long run: charge it to every tree
        else:
            seq_counts[s] = seq_counts.get(s, 0) + 1
    hits += overflow
    for seq, mult in seq_counts.items():
        seen_slots = set()
        for _, tree in trees_of_sequence(seq, graph, max_nodes=max_tree_nodes):
            slot = canon_to_slot.get(tree.canonical())
            if slot is not None:
                seen_slots.add(slot)
        for slot in seen_slots:
            hits[slot] += mult
    p_hats = hits / runs
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
    strategy=None,
    charges: Sequence[float] | None = None,
    total_bound: float | None = None,
    stats: "BatchStats | None" = None,
    zeta_override: Mapping[int, float] | None = None,
) -> dict:
    """Mean per-flaw address counts against lambda_init * psi_i (cluster
    mode) or lambda_init * q_i/q_empty (shearer mode); refuses when the
    matching criterion fails."""
    graph = dependency_graph_of(problem)
    if charges is None:
        charges = problem.declared_charges or all_charges(problem)
    lam = computed_init_ratio(problem)
    if mode == "cluster":
        if psi is None:
            psi = problem.default_weights
        if psi is None:
            raise LllError("cluster mode needs a weight vector")
        rep = cluster_expansion_check(list(charges), graph, list(psi),
                                      zeta_override=zeta_override)
        if not rep.passed:
            raise LllError("cluster expansion condition fails; bound not applicable")
        bounds = [lam * p for p in psi]
    elif mode == "shearer":
        srep = shearer_polynomials(list(charges), graph)
        if not srep.passed:
            raise LllError("shearer condition fails; bound not applicable")
        bounds = [lam * r for r in srep.ratios]
    else:
        raise LllError(f"unknown mode {mode!r}")
    if stats is None:
        stats = run_many(problem, runs, seed, strategy)
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
    strategy=None,
    check_extension: bool = True,
) -> dict:
    """Pr[the trajectory ever visits the event, initial state included]
    against lambda_init * charge(event) * independent-subset sum over the
    event's neighborhood.

    ``event_actions`` defaults to resampling from the measure itself
    (always a valid commutative extension); ``event_neighbors`` defaults
    to every flaw.
    """
    from .core import event_charge as _event_charge

    if psi is None:
        psi = problem.default_weights
    if psi is None:
        raise LllError("needs a weight vector")
    states = state_list(problem)
    mu = normalized_measure(problem, states)
    if event_actions is None:
        mu_items = list(mu.items())
        event_actions = lambda s: dict(mu_items)
    if event_neighbors is None:
        event_neighbors = list(range(problem.num_flaws))
    if check_extension:
        ext = extend_with_event(problem, event, event_actions, event_neighbors)
        comm = check_commutativity(ext)
        if not comm.commutative:
            raise LllError("event extension is not commutative; bound not applicable")
    gamma_e = _event_charge(problem, event, event_actions, states)
    graph = dependency_graph_of(problem)
    zeta = independent_weight_sum(
        sorted(event_neighbors), {j: graph.adj[j] for j in event_neighbors},
        {j: psi[j] for j in event_neighbors},
    )
    bound = computed_init_ratio(problem) * gamma_e * zeta
    # memoize per-state event membership for the trajectory scan
    member = {s: bool(event(s)) for s in states}
    hits = sum(
        member[rep.trajectory.initial_state] or any(member[s] for (_, s, _) in rep.trajectory.steps)
        for rep in iter_runs(problem, range(runs), seed, strategy, record_trajectory=True)
    )
    p_hat = hits / runs
    verdict = upper_verdict("event_probability", p_hat, bound, proportion_se(p_hat, runs))
    return verdict_report("check_event_probability", [verdict], runs=runs, charge=gamma_e)


def extend_with_event(problem: SearchProblem, event, event_actions,
                      event_neighbors: Sequence[int]) -> SearchProblem:
    """The problem plus one extra flaw for the event, with symmetric
    adjacency into the declared neighborhood."""
    m = problem.num_flaws
    extra = frozenset(event_neighbors) | {m}
    base_neighbors = problem.neighbors

    def neighbors(i):
        if i == m:
            return extra
        base = frozenset(base_neighbors(i))
        return base | {m} if i in extra else base

    def present(i, s):
        return event(s) if i == m else problem.present(i, s)

    def action_distribution(i, s):
        return event_actions(s) if i == m else problem.action_distribution(i, s)

    def sample_action(i, s, rng):
        if i != m:
            return problem.sample_action(i, s, rng)
        dist = event_actions(s)
        u = rng.u01()
        acc = 0.0
        for t, p in dist.items():
            acc += p
            if u < acc:
                return t
        return t

    from dataclasses import replace

    return replace(
        problem,
        name=problem.name + "+event",
        num_flaws=m + 1,
        present=present,
        sample_action=sample_action,
        action_distribution=action_distribution,
        neighbors=neighbors,
        flaws_present=None,
        # the base problem's affects sets never cover the event flaw m
        affects=None,
        declared_charges=None,
        default_weights=None,
        flaw_labels=None,
    )


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
    counts: dict[bytes, int] = {}
    for c in stats.final_canon:
        counts[c] = counts.get(c, 0) + 1
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
    strategy=None,
    oracle: OracleTables | None = None,
) -> dict:
    """Empirical output distribution with the pointwise density bound
    nu(s) <= lambda_init * (independent-set weight sum) * mu(s) and the
    entropy lower bounds for orders 2 and infinity.

    Entropy estimates are plug-in over observed states; the min-entropy
    verdict conservatively inflates the top frequency by its 4-sigma
    error before comparing.
    """
    if psi is None:
        psi = problem.default_weights
    if psi is None:
        raise LllError("needs a weight vector")
    if oracle is None:
        oracle = build_oracle(problem)
    graph = oracle.graph
    u_all = independent_weight_sum(
        list(range(problem.num_flaws)),
        {j: graph.adj[j] for j in range(problem.num_flaws)},
        {j: psi[j] for j in range(problem.num_flaws)},
    )
    lam = computed_init_ratio(problem)
    factor = lam * u_all
    stats = run_many(problem, runs, seed, strategy)
    report = empirical_distribution(stats)
    mu_by_canon = {problem.canon(s): p for s, p in oracle.mu.items()}
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
    h2_mu = renyi_entropy(oracle.mu, 2.0)
    hinf_mu = renyi_entropy(oracle.mu, float("inf"))
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
    def build(problem: SearchProblem, psi: Sequence[float],
              charges: Sequence[float] | None = None,
              zeta: Sequence[float] | None = None) -> "PartialAvoidanceConfig":
        graph = dependency_graph_of(problem)
        if charges is None:
            charges = problem.declared_charges or all_charges(problem)
        if zeta is None:
            zeta = [neighborhood_sum(i, graph, list(psi)) for i in range(problem.num_flaws)]
        keep = []
        for p, g, z in zip(psi, charges, zeta):
            keep.append(min(1.0, p / (z * g)) if g > 0 and z > 0 else 1.0)
        for p in keep:
            if not (0.0 <= p <= 1.0):
                raise LllError("keep probability out of range")
        return PartialAvoidanceConfig(tuple(psi), tuple(charges), tuple(zeta), tuple(keep))


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

    def action_distribution(i, st):
        s, labels = st
        out = {}
        p_keep = cfg.keep_probs[i]
        for t, p in problem.action_distribution(i, s).items():
            if p_keep > 0.0:
                out[(t, labels | (1 << i))] = out.get((t, labels | (1 << i)), 0.0) + p * p_keep
            if p_keep < 1.0:
                out[(t, labels & ~(1 << i))] = out.get((t, labels & ~(1 << i)), 0.0) + p * (1 - p_keep)
        return out

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
        for s in problem.enumerate_states():
            for labels in range(1 << m):
                if label_prob(labels) > 0.0:
                    yield (s, labels)

    base_init = problem.init_distribution

    return SearchProblem(
        name=problem.name + "+labels",
        num_flaws=m,
        present=present,
        flaws_present=flaws_present,
        sample_action=sample_action,
        neighbors=problem.neighbors,
        sample_init=sample_init,
        canon=lambda st: problem.canon(st[0]) + st[1].to_bytes((m + 7) // 8, "little"),
        weight=lambda st: problem.weight(st[0]) * label_prob(st[1]),
        action_distribution=action_distribution if problem.action_distribution else None,
        enumerate_states=enumerate_states if problem.enumerate_states else None,
        init_distribution=(lambda st: base_init(st[0]) * label_prob(st[1])) if base_init else None,
        init_ratio=problem.init_ratio,
        metadata={"base": problem, "config": cfg, "strategy": problem.metadata.get("strategy")},
    )


def partial_avoidance(
    problem: SearchProblem,
    cfg: PartialAvoidanceConfig,
    runs: int = 10**5,
    seed: int = 0,
    strategy=None,
) -> dict:
    """Run the label-truncated algorithm and check, per flaw, the output
    violation rate against max(0, gamma_i zeta_i - psi_i) and the mean
    address count against psi_i.  Requires the initial distribution to be
    the measure itself."""
    if abs(computed_init_ratio(problem) - 1.0) > 1e-9:
        raise LllError("partial avoidance requires the measure as initial distribution")
    lp = labeled_problem(problem, cfg)
    stats = run_many(lp, runs, seed, strategy)
    m = problem.num_flaws
    # final flaw presence is judged on the base state, labels ignored
    verdicts = []
    counts = np.zeros(m, dtype=np.int64)
    presence_cache: dict[bytes, list[int]] = {}
    for c, st in zip(stats.final_canon, stats.final_states):
        flags = presence_cache.get(c)
        if flags is None:
            flags = [i for i in range(m) if problem.present(i, st[0])]
            presence_cache[c] = flags
        for i in flags:
            counts[i] += 1
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
    """
    graph = dependency_graph_of(problem)
    charges = problem.declared_charges or all_charges(problem)
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
        z = neighborhood_sum(i, graph, list(psi))
        bound += flaw_measures[i] * z
    tables = chain.build_chain_tables(problem, flaw_subset=core_set)
    result = chain.run_batch(tables, runs, seed)
    failures = 0
    fail_by_state: dict[int, bool] = {}
    for k in np.unique(result.final_ids):
        fail_by_state[int(k)] = bool(problem.present_flaws(tables.states[int(k)]))
    for k in result.final_ids:
        if fail_by_state[int(k)]:
            failures += 1
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
    must be nonnegative for the bound to apply."""
    clique = problem.metadata.get("clique")
    if clique is None:
        raise LllError("matching weight analysis needs a rainbow problem")
    if any(w < 0 for w in edge_weights.values()):
        raise LllError("edge weights must be nonnegative")
    n2 = clique.num_vertices
    lam = clique.color_ratio()
    total_w = sum(edge_weights.values())
    bound = (1.0 + 1.5 * lam) ** 2 / (n2 - 1) * total_w
    mean, se = mean_se(np.array(
        [sum(edge_weights.get(e, 0.0) for e in rep.final_state)
         for rep in iter_runs(problem, range(runs), seed)], dtype=float))
    verdict = upper_verdict("expected_weight", mean, bound, se)
    return verdict_report("weight_analysis", [verdict], kind="matching", runs=runs)


def coloring_weight_analysis(problem: SearchProblem, runs: int = 10**4, seed: int = 0) -> dict:
    """Per-vertex weighted-output bound for the greedy coloring: the
    empirical mean of each local function against r_v * a_v times its
    expectation under uniform proper colorings."""
    from .solvers.coloring import local_weight_bound, coloring_is_proper_vertex

    g = problem.metadata["graph"]
    q = problem.metadata["q"]
    spec = problem.metadata.get("weights")
    if spec is None:
        raise LllError("coloring weight analysis needs a weight spec")
    proper = [s for s in problem.enumerate_states() if coloring_is_proper_vertex(g, s)]
    outs = [rep.final_state for rep in iter_runs(problem, range(runs), seed)]
    verdicts = []
    from .solvers.coloring import ball

    for v in spec.vertices:
        r_v, a_v, expectation = local_weight_bound(g, q, spec, v, proper)
        fn = spec.functions[v]
        keep = sorted(ball(g, v, spec.radii[v]))
        vals = np.array([fn({u: s[u] for u in keep}) for s in outs])
        if (vals < 0).any():
            raise LllError("local weight functions must be nonnegative")
        mean, se = mean_se(vals)
        verdicts.append(upper_verdict(f"W[{v}]", mean, r_v * a_v * expectation, se))
    return verdict_report("weight_analysis", verdicts, kind="coloring", runs=runs)


# ---------------------------------------------------------------------------
# exact chain statistics convenience


def exact_run_statistics(problem: SearchProblem, priority: list[int] | None = None):
    tables = chain.build_chain_tables(problem, priority)
    return chain.exact_statistics(tables)


def report_to_json_dict(report: dict) -> dict:
    out = {}
    for k, v in report.items():
        if isinstance(v, Verdict):
            out[k] = v.to_json_dict()
        elif isinstance(v, list) and v and isinstance(v[0], Verdict):
            out[k] = [x.to_json_dict() for x in v]
        elif isinstance(v, DistributionReport):
            out[k] = v.to_json_dict()
        elif isinstance(v, (CommutativityReport,)):
            out[k] = v.to_json_dict()
        elif isinstance(v, (bool, int, float, str)) or v is None:
            out[k] = v
        elif isinstance(v, np.floating):
            out[k] = float(v)
        else:
            out[k] = str(v)
    return out
