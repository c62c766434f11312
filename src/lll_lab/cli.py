"""Command-line front end.

Machine output is a single JSON document on stdout (byte-identical for
identical command line and seed); the human-readable summary goes to
stderr.  Exit codes: 0 success, 1 usage/parse error, 2 censored run,
3 criterion failure.  The default seed comes from LLL_LAB_SEED.

Each command loads the modules it runs when it runs.  Importing ``cli``
loads ``build``, ``formats``, ``core``, ``rng``, ``errors`` and
``dependency`` (the declarations every solver builds), and no solver.
On top of these:
 - ``solve <solver>`` loads that solver's modules: ``solvers.ksat`` for
   the three ``ksat`` solvers, ``solvers.aec`` for ``aec-backtrack`` and
   ``aec-clique-mt``, ``solvers.matchings`` for ``rainbow``, and
   ``solvers.coloring`` with ``solvers.aec`` for ``vertex-coloring``;
   every one but ``rainbow`` also loads ``solvers.variables``.
   ``--trace`` adds ``witness``, and ``solve rainbow-partial`` loads
   ``analysis`` (with ``criteria``, ``chain`` and ``witness``) and
   ``solvers.matchings``;
 - ``criteria`` loads ``criteria``;
 - ``verify`` loads ``analysis`` and the solver's modules, and
   ``--parallel`` the process pool;
 - ``gen`` loads the solver module of its family.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import formats
from .build import PIPELINE, SOLVER_NAMES, SOLVERS, build_problem
from .core import DEFAULT_MAX_STEPS, LllError, recommended_strategy, run
from .rng import resolve_seed, source_for_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CENSORED = 2
EXIT_CRITERION_FAIL = 3


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# solve


def _spec_from_args(args) -> dict:
    """The build spec of ``args``, refusing first a flag its solver does not read."""
    reads = SOLVERS[args.solver].reads if args.solver in SOLVERS else ()
    for flag in ("colors", "bias"):
        if getattr(args, flag) is not None and flag not in reads:
            raise LllError(f"{args.solver} does not read --{flag}")
    spec = {"solver": args.solver, "instance_text": _read(args.instance)}
    if args.colors is not None:
        spec["colors"] = args.colors
    if args.bias is not None:
        spec["bias"] = formats.parse_bias_json(_read(args.bias))
    return spec


def _validate_output(spec: dict, problem, state) -> bool:
    return SOLVERS[spec["solver"]].valid(problem, state)


def _trace_json(problem, report) -> dict:
    """Witness machinery of one run: the addressed-flaw sequence, the
    witness trees it builds (capped), and for backtracking solvers the
    witness forest with its replay."""
    from .witness import forest_from_trajectory, trees_of_sequence

    traj = report.trajectory
    seq = traj.witness_sequence
    out: dict = {"witness_sequence": [problem.label(w) for w in seq]}
    out["witness_trees"] = [
        {"step": k, **tree.to_json_dict()}
        for k, tree in trees_of_sequence(seq, problem.graph, max_nodes=8)
    ]
    if problem.unassigned is not None:
        out["witness_forest"] = forest_from_trajectory(traj, problem).to_json_dict()
    return out


def cmd_solve(args) -> int:
    if args.max_steps < 0:
        raise LllError("--max-steps must be non-negative")
    spec = _spec_from_args(args)
    if args.solver == PIPELINE:
        return _solve_rainbow_partial(args, spec["instance_text"])
    problem = build_problem(spec)
    if args.trace and problem.unassigned is not None and args.strategy not in (None, "lowest_index"):
        raise LllError(f"--trace needs --strategy lowest_index for {args.solver}, not "
                       f"{args.strategy}: its witness forest is defined only for that order")
    strategy = args.strategy if args.strategy else recommended_strategy(problem)
    report = run(problem, strategy, args.max_steps, args.seed,
                 record_trajectory=bool(args.trace))
    valid = report.terminated and _validate_output(spec, problem, report.final_state)
    doc = {
        "op": "solve",
        "solver": args.solver,
        "seed": args.seed,
        "max_steps": args.max_steps,
        "terminated": report.terminated,
        "steps": report.steps,
        "valid": valid,
        "final_state": SOLVERS[args.solver].state_json(report.final_state),
        "resample_counts": list(report.resample_counts),
    }
    if args.trace:
        doc["trace"] = _trace_json(problem, report)
    _emit(doc, args.json)
    if not report.terminated:
        _info(f"censored after {report.steps} steps")
        return EXIT_CENSORED
    _info(f"terminated in {report.steps} steps; output {'valid' if valid else 'INVALID'}")
    return EXIT_OK if valid else EXIT_USAGE


def _solve_rainbow_partial(args, text: str) -> int:
    from .analysis import rainbow_partial

    out = rainbow_partial(formats.parse_colored_clique(text), runs=1, seed=args.seed,
                          max_steps=args.max_steps)
    doc = {
        "op": "solve",
        "solver": PIPELINE,
        "seed": args.seed,
        "max_steps": args.max_steps,
        "terminated": out["all_terminated"],
        "size": out["sizes"][0],
        "exact_bound": out["exact_bound"],
        "asymptotic_bound": out["asymptotic_bound"],
        "final_state": out["last_matching"],
        "valid": True,  # stripping one edge per surviving pair is rainbow by construction
    }
    _emit(doc, args.json)
    if not out["all_terminated"]:
        _info("censored run")
        return EXIT_CENSORED
    _info(f"rainbow matching with {out['sizes'][0]} edges (bound {out['exact_bound']:.2f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# criteria


def _clique_check(criteria, parsed: dict, args):
    if "cliques" not in parsed:
        raise LllError("clique mode needs the criteria field 'cliques'")
    cliques = tuple(frozenset(cl) for cl in parsed["cliques"])
    return criteria.clique_lll_check(
        parsed["gamma"], criteria.CliqueLllConfig(parsed["graph"], cliques, parsed["x"]))


def _backtrack_check(criteria, parsed: dict, args):
    if "backtrack_table" not in parsed:
        raise LllError("backtrack mode needs the criteria field 'backtrack'")
    return criteria.backtracking_criterion(parsed["backtrack_table"], parsed["backtrack_psi"],
                                           lambda_init=parsed.get("lambda_init"))


# criterion mode -> its check of the parsed criteria file, given the
# ``criteria`` module that ``cmd_criteria`` loads; every report has
# ``passed`` and ``to_json_dict``
CRITERIA = {
    "general": lambda criteria, parsed, args: criteria.general_lll_check(
        parsed["gamma"], parsed["graph"], parsed["psi"]),
    "cluster": lambda criteria, parsed, args: criteria.cluster_expansion_check(
        parsed["gamma"], parsed["graph"], parsed["psi"], cap=args.cap),
    "shearer": lambda criteria, parsed, args: criteria.shearer_polynomials(
        parsed["gamma"], parsed["graph"]),
    "clique": _clique_check,
    "backtrack": _backtrack_check,
}


def cmd_criteria(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise LllError(f"--cap must be at least 1, got {args.cap}")
    from . import criteria

    if args.cap is None:
        args.cap = criteria.NEIGHBORHOOD_CAP
    parsed = formats.parse_criteria_json(_read(args.criteria))
    mode = args.mode or parsed["mode"]
    if not isinstance(mode, str) or mode not in CRITERIA:  # the file's mode is any JSON value
        raise LllError(f"unknown mode {mode!r}")
    rep = CRITERIA[mode](criteria, parsed, args)
    _emit({**rep.to_json_dict(), "mode": mode}, args.json)
    _info(f"criterion {mode}: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# verify


def _resamples(analysis, problem, spec: dict, args, psi):
    # workers sample only once the weights and the criterion have passed
    parallel = _processes(args.parallel, args.runs) > 1 and problem.enumerate_states is None
    sample = lambda: analysis.BatchStats(
        args.runs, *parallel_run_counts(spec, args.runs, args.seed, args.parallel), outputs={})
    return analysis.check_resample_bounds(problem, psi=psi, runs=args.runs, seed=args.seed,
                                          mode=args.mode or "cluster",
                                          sample=sample if parallel else None)


def _event(analysis, problem, spec: dict, args, psi):
    if not problem.num_flaws:  # the event is flaw 0's extension, the canonical one
        raise LllError("the event suite's event is flaw 0, and the problem has no flaws")
    return analysis.check_event_probability(problem, lambda s: problem.present(0, s), psi=psi,
                                            runs=args.runs, seed=args.seed)


class Suite(NamedTuple):
    """One verify suite: its call into ``analysis``, which ``cmd_verify``
    loads and passes in, so each suite function is looked up when it is
    called; and the optional flags it reads under the given flags."""

    run: Callable
    reads: Callable[[argparse.Namespace], tuple[str, ...]] = lambda args: ("psi",)


SUITES = {
    "witness": Suite(
        lambda analysis, problem, spec, args, psi: analysis.check_witness_tree_lemma(
            problem, runs=args.runs, seed=args.seed, max_tree_nodes=args.tree_nodes),
        reads=lambda args: ("tree_nodes",)),
    # shearer mode bounds by Shearer's polynomials, with no weight vector
    "resamples": Suite(_resamples, reads=lambda args: ("mode", "parallel") + (
        ("psi",) if (args.mode or "cluster") == "cluster" else ())),
    "distribution": Suite(
        lambda analysis, problem, spec, args, psi: analysis.output_distribution(
            problem, psi=psi, runs=args.runs, seed=args.seed)),
    "partial": Suite(
        lambda analysis, problem, spec, args, psi: analysis.partial_avoidance(
            problem, analysis.PartialAvoidanceConfig.build(problem, psi), runs=args.runs,
            seed=args.seed)),
    "event": Suite(_event),
}
# the optional verify flags in the order they are checked, each with its default
VERIFY_FLAGS = {"mode": None, "psi": None, "tree_nodes": 3, "parallel": 1}


def cmd_verify(args) -> int:
    from . import analysis

    if args.runs <= 0:
        raise LllError("--runs must be positive")
    if args.parallel is not None and args.parallel < 1:
        raise LllError("--parallel must be at least 1")
    suite = SUITES[args.suite]
    reads = suite.reads(args)
    for flag, default in VERIFY_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag == "mode" and flag not in reads:
            raise LllError(f"--mode applies only to the resamples suite, not {args.suite}")
        elif flag not in reads:
            mode = f" in {args.mode} mode" if args.mode else ""
            raise LllError(f"the {args.suite} suite{mode} does not read {_flag(flag)}")
    spec = _spec_from_args(args)
    problem = build_problem(spec)
    psi = None if args.psi is None else [args.psi] * problem.num_flaws
    report = suite.run(analysis, problem, spec, args, psi)
    doc = analysis.report_to_json_dict(report)
    doc.update({
        "solver": args.solver,
        "suite": args.suite,
        "seed": args.seed,
        "instance": args.instance,
        "params": {"runs": args.runs, "psi": args.psi, "mode": args.mode,
                   "tree_nodes": args.tree_nodes, "colors": args.colors},
    })
    _emit(doc, args.json)
    ok = bool(report.get("all_pass"))
    _info(f"suite {args.suite}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# gen


def _gen_ksat(args, rng) -> str:
    if args.k < 1:
        raise LllError(f"--k must be at least 1, got {args.k}")
    return formats.serialize_dimacs(formats.generate_ksat(args.n, args.k, args.degree, rng))


class Family(NamedTuple):
    """One ``gen`` family: its instance text, from the flags and the
    seed's run-0 stream, and the optional flags it reads, each with the
    default it takes when not given."""

    make: Callable[[argparse.Namespace, object], str]
    flags: dict[str, int | None]


FAMILIES = {
    "ksat": Family(_gen_ksat, {"k": 3, "degree": 2}),
    "graph": Family(lambda args, rng: formats.serialize_graph(
        formats.generate_graph(args.n, args.max_degree, rng, args.edges)),
        {"max_degree": 3, "edges": None}),
    "colored-clique": Family(lambda args, rng: formats.serialize_colored_clique(
        formats.generate_colored_clique(args.n, args.multiplicity, rng)),
        {"multiplicity": 2}),
}
# every family's optional flags, in table order; each parses to None when not given
GEN_FLAGS = tuple(dict.fromkeys(flag for family in FAMILIES.values() for flag in family.flags))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_gen(args) -> int:
    family = FAMILIES[args.family]
    for flag in GEN_FLAGS:
        if getattr(args, flag) is not None and flag not in family.flags:
            raise LllError(f"gen {args.family} does not read {_flag(flag)}")
    for flag, default in family.flags.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    for flag in ("n", "degree", "max_degree", "edges"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise LllError(f"{_flag(flag)} must be non-negative, got {value}")
    sys.stdout.write(family.make(args, source_for_run(args.seed, 0)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parallel Monte-Carlo helper (per-run streams make chunking irrelevant)


def _worker_counts(payload):
    """One chunk's steps, termination flags and address counts, folded
    by the serial runner's own ``step_stats``."""
    from . import analysis

    spec, seed, run_indices = payload
    stats = analysis.step_stats(build_problem(spec), run_indices, seed, collect_outputs=False)
    return stats.steps, stats.terminated, stats.flaw_counts


def _processes(workers: int, runs: int) -> int:
    """How many processes ``workers`` get for ``runs`` runs: no more than
    there are runs to share and cores to run them on."""
    return min(workers, runs, os.cpu_count() or 1)


def parallel_run_counts(spec: dict, runs: int, seed: int, workers: int):
    """Step/termination/address-count statistics fanned out over worker
    processes; aggregation is in run-index order, so the result is
    byte-identical to the single-process loop.  Each process gets one
    chunk of run indices, so it builds the problem once."""
    chunk = -(-runs // _processes(workers, runs))
    indices = range(runs)
    payloads = [(spec, seed, indices[k:k + chunk]) for k in range(0, runs, chunk)]
    processes = len(payloads)
    if processes <= 1:
        parts = [_worker_counts(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_worker_counts, payloads))
    steps = np.concatenate([p[0] for p in parts])
    terminated = np.concatenate([p[1] for p in parts])
    flaw_counts = np.concatenate([p[2] for p in parts])
    return steps, terminated, flaw_counts


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no
    state between calls, and each ``choices=`` is its live table."""
    parser = argparse.ArgumentParser(
        prog="lll-lab",
        description="stochastic local-search lab: solvers, criteria, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    on_solver = argparse.ArgumentParser(add_help=False)  # what solve and verify share
    on_solver.add_argument("solver", choices=SOLVER_NAMES)
    on_solver.add_argument("instance")
    on_solver.add_argument("--seed", type=int, default=None)
    on_solver.add_argument("--colors", "--q", type=int, default=None, dest="colors")
    on_solver.add_argument("--bias", default=None, help="JSON file of per-variable [p0,p1]")
    on_solver.add_argument("--json", default=None, help="write the JSON report here")

    p_solve = sub.add_parser("solve", parents=[on_solver], help="run a solver on an instance file")
    p_solve.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p_solve.add_argument("--strategy", choices=["lowest_index", "recency"], default=None)
    p_solve.add_argument("--trace", action="store_true",
                         help="embed the witness sequence/trees/forest in the report")
    p_solve.set_defaults(fn=cmd_solve)

    p_crit = sub.add_parser("criteria", help="evaluate a criterion from a JSON description")
    p_crit.add_argument("criteria")
    p_crit.add_argument("--mode", choices=CRITERIA, default=None)
    p_crit.add_argument("--cap", type=int, default=None,
                        help="neighborhood enumeration cap for cluster mode")
    p_crit.add_argument("--json", default=None)
    p_crit.set_defaults(fn=cmd_criteria)

    p_verify = sub.add_parser("verify", parents=[on_solver],
                              help="run a Monte-Carlo verdict suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--runs", type=int, default=10**5)
    p_verify.add_argument("--mode", choices=["cluster", "shearer"], default=None)
    p_verify.add_argument("--psi", type=float, default=None)
    p_verify.add_argument("--tree-nodes", type=int, default=None)
    p_verify.add_argument("--parallel", type=int, default=None,
                          help="worker processes for the resamples suite on "
                               "problems too large to enumerate")
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance on stdout")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--n", type=int, required=True)
    for flag in GEN_FLAGS:
        p_gen.add_argument(_flag(flag), type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(fn=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = resolve_seed(args.seed)
        return args.fn(args)
    except (LllError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
