"""Span tracing of the package's layers, from outside the package.

``instrument`` replaces public functions of the package's modules (and
the callables a built ``SearchProblem`` carries) with wrappers that
record one span per call: a layer name, start, end and the index of the
enclosing span.  Spans stay in memory for one round of CLI calls and
are folded into per-layer totals when the round ends.  A layer's self
time is its span durations minus the time its traced child spans cover.

Hot per-step and per-run callables are traced only when their direct
parent is the engine call that owns them (``ONLY_UNDER``), so a flaw scan
inside an oracle build, or an ``incident()`` call inside output
validation, is charged to the enclosing layer instead.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "cli"

# span name -> the parent span names under which it is recorded
ONLY_UNDER = {
    "rng.source_for_run": ("core.run",),
    "solvers.init": ("core.run",),
    "core.flaw_scan": ("core.run",),
    "core.choose": ("core.run",),
    "solvers.action": ("core.run",),
    "solvers.aec.cycle_walk": ("solvers.action",),
    "solvers.aec.incident": ("solvers.action", "solvers.aec.cycle_walk"),
    "solvers.canon": ("analysis.run_many",),
}


class Tracer:
    """Span store for one round, plus the deterministic counts the
    wrappers read off return values."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.sequences: list = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts.clear()
        self.sequences.clear()

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name, fn, post=None, consume=False):
        """Wrapper recording a span per call.  ``post(result, args)`` runs
        after the span closes; ``consume`` drains a returned generator
        inside the span and hands the caller an iterator over the items."""
        nid = self.name_id(name)
        allowed = {self.name_id(p) for p in ONLY_UNDER.get(name, ())}
        tr = self

        def wrapper(*args, **kwargs):
            stack = tr.stack
            if allowed and not (stack and tr.span_name[stack[-1]] in allowed):
                return fn(*args, **kwargs)
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1] if stack else -1)
            tr.span_end.append(0.0)
            stack.append(idx)
            tr.span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = list(out)
            finally:
                tr.span_end[idx] = perf_counter()
                stack.pop()
            if post is not None:
                post(out, args)
            return iter(out) if consume else out

        return wrapper

    def fold(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (seconds) and span count per layer name for the
        spans recorded since the last reset."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        n = len(dur)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        totals = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        return ({self.names[i]: float(totals[i]) for i in range(k)},
                {self.names[i]: int(calls[i]) for i in range(k)})


def instrument(tracer: Tracer):
    """Patch the package for tracing; returns a function that undoes it."""
    from lll_lab import analysis, build, chain, cli, core, formats
    from lll_lab.solvers import aec

    counts = tracer.counts
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, **kw):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **kw))

    def after_run(rep, args):
        counts["core.runs"] += 1
        counts["core.steps"] += rep.steps
        counts["core.censored_runs"] += not rep.terminated

    def after_scan(present, args):
        counts["core.flaws_examined"] += args[0].num_flaws
        counts["core.flaws_returned"] += len(present)

    def after_batch(res, args):
        counts["chain.runs"] += len(res.steps)
        counts["chain.steps"] += int(res.steps.sum())
        counts["chain.batch_rounds"] += int(res.steps.max()) if len(res.steps) else 0
        counts["chain.censored_runs"] += int((~res.terminated).sum())

    def after_run_many(stats, args):
        if stats.sequences is not None:
            tracer.sequences.append(stats.sequences)

    def wrap_problem(problem, args):
        return dataclasses.replace(
            problem,
            sample_init=tracer.wrap("solvers.init", problem.sample_init),
            sample_action=tracer.wrap("solvers.action", problem.sample_action),
            canon=tracer.wrap("solvers.canon", problem.canon),
        )

    def traced_build(spec):
        return wrap_problem(build_problem(spec), None)

    build_problem = tracer.wrap("build.build_problem", build.build_problem)
    patched.append((cli, "build_problem", cli.build_problem))
    cli.build_problem = traced_build

    patch(cli, "main", ROOT)
    patch(cli, "_validate_output", "solvers.validate")
    patch(core, "source_for_run", "rng.source_for_run")
    patch(cli, "run", "core.run", post=after_run)
    patch(analysis, "run", "core.run", post=after_run)
    patch(core.SearchProblem, "present_flaws", "core.flaw_scan", post=after_scan)
    for cls in (core.LowestIndexStrategy, core.FixedPriorityStrategy, core.RecencyStrategy):
        patch(cls, "choose", "core.choose")
    patch(aec.GraphInstance, "incident", "solvers.aec.incident")
    patch(aec, "bichromatic_cycle_through", "solvers.aec.cycle_walk")
    patch(chain, "build_chain_tables", "chain.tables")
    patch(chain, "run_batch", "chain.batch", post=after_batch)
    patch(analysis, "run_many", "analysis.run_many", post=after_run_many)
    patch(analysis, "build_oracle", "analysis.oracle")
    for suite in ("check_witness_tree_lemma", "check_resample_bounds", "output_distribution"):
        patch(analysis, suite, "analysis.verdict")
    patch(analysis, "check_commutativity", "witness.commutativity")
    patch(analysis, "enumerate_witness_trees", "witness.tree_enum", consume=True)
    patch(analysis, "trees_of_sequence", "witness.tree_match", consume=True)
    patch(analysis, "cluster_expansion_check", "criteria.cluster")
    patch(analysis, "shearer_polynomials", "criteria.shearer")
    for parser in ("parse_dimacs", "parse_graph", "parse_colored_clique"):
        patch(formats, parser, "formats.parse")

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def layer_metrics(self_s: dict[str, float], calls: dict[str, int],
                  counts: Counter, sequences: list) -> dict[str, float]:
    """Per-layer metrics of one traced round, from its folded spans and
    counts."""
    t = lambda name: self_s.get(name, 0.0)
    n = lambda name: calls.get(name, 0)
    steps = counts["core.steps"]
    core_runs = counts["core.runs"]
    runs = core_runs + counts["chain.runs"]
    per = lambda x, d, scale=1e6: x * scale / d if d else 0.0
    recorded = [s for seqs in sequences for s in seqs]
    distinct = len({s for s in recorded if s is not None})
    return {
        "rng.stream_setup_us_per_run": per(t("rng.source_for_run"), runs),
        "core.flaw_scan_us_per_step": per(t("core.flaw_scan"), steps),
        "core.flaw_scans_per_step": per(n("core.flaw_scan"), steps, 1),
        "core.scan_yield": per(counts["core.flaws_returned"], counts["core.flaws_examined"], 1),
        "core.choose_us_per_step": per(t("core.choose"), steps),
        "core.run_self_us_per_step": per(t("core.run"), steps),
        "core.run_self_us_per_run": per(t("core.run"), core_runs),
        "core.runs": core_runs,
        "core.steps": steps,
        "core.censored_runs": counts["core.censored_runs"],
        "solvers.action_us_per_step": per(t("solvers.action"), steps),
        "solvers.aec.incident_calls_per_step": per(n("solvers.aec.incident"), steps, 1),
        "solvers.aec.incident_us_per_step": per(t("solvers.aec.incident"), steps),
        "solvers.aec.cycle_walks_per_step": per(n("solvers.aec.cycle_walk"), steps, 1),
        "solvers.aec.cycle_walk_us_per_step": per(t("solvers.aec.cycle_walk"), steps),
        "solvers.validate_s": t("solvers.validate"),
        "solvers.init_us_per_run": per(t("solvers.init"), runs),
        "solvers.canon_us_per_run": per(t("solvers.canon"), runs),
        "chain.tables_s": t("chain.tables"),
        "chain.batch_s": t("chain.batch"),
        "chain.batch_ns_per_step": per(t("chain.batch"), counts["chain.steps"], 1e9),
        "chain.batch_rounds": counts["chain.batch_rounds"],
        "chain.censored_runs": counts["chain.censored_runs"],
        "analysis.run_many_self_s": t("analysis.run_many"),
        "analysis.distinct_sequences_frac": per(distinct, len(recorded), 1),
        "witness.commutativity_s": t("witness.commutativity"),
        "witness.tree_enum_s": t("witness.tree_enum"),
        "witness.tree_match_s": t("witness.tree_match"),
        "analysis.oracle_s": t("analysis.oracle"),
        "criteria.cluster_s": t("criteria.cluster"),
        "criteria.shearer_s": t("criteria.shearer"),
        "analysis.verdict_s": t("analysis.verdict"),
        "formats.parse_s": t("formats.parse"),
        "build.build_problem_s": t("build.build_problem"),
        "cli.self_s": t(ROOT),
    }
