"""Command-line front end.

Machine output is a single JSON document on stdout (byte-identical for
identical command line and seed); the human-readable summary goes to
stderr.  Exit codes: 0 success, 1 usage/parse error, 2 censored run,
3 criterion failure.  The default seed comes from LLL_LAB_SEED.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, formats
from .build import SOLVER_NAMES, build_problem
from .core import LllError, recommended_strategy, run
from .criteria import (
    CliqueLllConfig,
    backtracking_criterion,
    cluster_expansion_check,
    general_lll_check,
    clique_lll_check,
    shearer_polynomials,
)
from .rng import resolve_seed, source_for_run
from .solvers.aec import coloring_is_acyclic
from .solvers.coloring import coloring_is_proper_vertex
from .solvers.ksat import UNSET
from .solvers.matchings import rainbow_partial, rainbow_validity

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
    spec = {"solver": args.solver, "instance_text": _read(args.instance)}
    if getattr(args, "colors", None) is not None:
        spec["colors"] = args.colors
    if getattr(args, "bias", None):
        spec["bias"] = json.loads(_read(args.bias))
    return spec


def _validate_output(spec: dict, problem, state) -> bool:
    solver = spec["solver"]
    if solver in ("ksat-mt", "ksat-backtrack", "ksat-backtrack-biased"):
        cnf = problem.metadata["cnf"]
        if solver == "ksat-mt":
            return cnf.satisfied(state)
        return all(v != UNSET for v in state) and cnf.satisfied(state)
    if solver in ("aec-backtrack", "aec-clique-mt"):
        g = problem.metadata["graph"]
        full = all(c >= 0 for c in state)
        return full and coloring_is_acyclic(g, state)
    if solver == "rainbow":
        return rainbow_validity(problem.metadata["clique"], state)
    if solver == "vertex-coloring":
        return coloring_is_proper_vertex(problem.metadata["graph"], state)
    return True


def _state_json(spec: dict, problem, state):
    solver = spec["solver"]
    if solver == "rainbow":
        return sorted(list(e) for e in state)
    return list(state)


def _trace_json(problem, report) -> dict:
    """Witness machinery of one run: the addressed-flaw sequence, the
    witness trees it builds (capped), and for backtracking solvers the
    witness forest with its replay."""
    from .witness import forest_from_trajectory, trees_of_sequence

    traj = report.trajectory
    seq = traj.witness_sequence
    out: dict = {"witness_sequence": [problem.label(w) for w in seq]}
    graph = analysis.dependency_graph_of(problem)
    out["witness_trees"] = [
        {"step": k, **tree.to_json_dict()}
        for k, tree in trees_of_sequence(seq, graph, max_nodes=8)
    ]
    if problem.unassigned is not None:
        out["witness_forest"] = forest_from_trajectory(traj, problem).to_json_dict()
    return out


def cmd_solve(args) -> int:
    if args.solver == "rainbow-partial":
        return _solve_rainbow_partial(args)
    spec = _spec_from_args(args)
    problem = build_problem(spec)
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
        "final_state": _state_json(spec, problem, report.final_state),
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


def _solve_rainbow_partial(args) -> int:
    clique = formats.parse_colored_clique(_read(args.instance))
    out = rainbow_partial(clique, runs=1, seed=args.seed, max_steps=args.max_steps)
    doc = {
        "op": "solve",
        "solver": "rainbow-partial",
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


def cmd_criteria(args) -> int:
    parsed = formats.parse_criteria_json(_read(args.criteria))
    mode = args.mode or parsed.get("mode", "general")
    gamma, psi, graph = parsed["gamma"], parsed["psi"], parsed["graph"]
    if mode == "general":
        rep = general_lll_check(gamma, graph, psi)
        doc = rep.to_json_dict()
    elif mode == "cluster":
        rep = cluster_expansion_check(gamma, graph, psi, cap=args.cap)
        doc = rep.to_json_dict()
    elif mode == "shearer":
        srep = shearer_polynomials(gamma, graph)
        doc = srep.to_json_dict()
        rep = srep
    elif mode == "clique":
        cfg = CliqueLllConfig(
            graph,
            tuple(frozenset(cl) for cl in parsed["cliques"]),
            parsed["x"],
        )
        rep = clique_lll_check(gamma, cfg)
        doc = rep.to_json_dict()
    elif mode == "backtrack":
        rep = backtracking_criterion(
            parsed["backtrack_table"], parsed["backtrack_psi"],
            lambda_init=parsed.get("lambda_init"),
        )
        doc = rep.to_json_dict()
    else:
        raise LllError(f"unknown mode {mode!r}")
    doc["mode"] = mode
    _emit(doc, args.json)
    _info(f"criterion {mode}: {'pass' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    problem = build_problem(spec)
    suite = args.suite
    runs = args.runs
    if runs <= 0:
        raise LllError("--runs must be positive")
    psi = list(problem.default_weights) if problem.default_weights else None
    if args.psi is not None:
        psi = [args.psi] * problem.num_flaws
    if suite == "witness":
        report = analysis.check_witness_tree_lemma(
            problem, runs=runs, seed=args.seed, max_tree_nodes=args.tree_nodes,
        )
    elif suite == "resamples":
        stats = None
        if args.parallel > 1 and problem.enumerate_states is None:
            steps, terminated, flaw_counts = parallel_run_counts(
                spec, runs, args.seed, args.parallel
            )
            stats = analysis.BatchStats(runs, steps, terminated, flaw_counts, [], None)
        report = analysis.check_resample_bounds(
            problem, psi=psi, runs=runs, seed=args.seed, mode=args.mode or "cluster",
            stats=stats,
        )
    elif suite == "distribution":
        report = analysis.output_distribution(problem, psi=psi, runs=runs, seed=args.seed)
    elif suite == "partial":
        if psi is None:
            raise LllError("partial suite needs --psi or prewired weights")
        cfg = analysis.PartialAvoidanceConfig.build(problem, psi)
        report = analysis.partial_avoidance(problem, cfg, runs=runs, seed=args.seed)
    elif suite == "event":
        # canonical demonstration event: the first flaw's extension
        report = analysis.check_event_probability(
            problem,
            event=lambda s: problem.present(0, s),
            psi=psi,
            runs=runs,
            seed=args.seed,
        )
    else:
        raise LllError(f"unknown suite {suite!r}")
    doc = analysis.report_to_json_dict(report)
    doc.update({
        "solver": args.solver,
        "suite": suite,
        "seed": args.seed,
        "instance": args.instance,
        "params": {"runs": runs, "psi": args.psi, "mode": args.mode,
                   "tree_nodes": args.tree_nodes, "colors": args.colors},
    })
    _emit(doc, args.json)
    ok = bool(report.get("all_pass"))
    _info(f"suite {suite}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    rng = source_for_run(args.seed, 0)
    if args.family == "ksat":
        cnf = formats.generate_ksat(args.n, args.k, args.degree, rng)
        sys.stdout.write(formats.serialize_dimacs(cnf))
    elif args.family == "graph":
        g = formats.generate_graph(args.n, args.max_degree, rng, args.edges)
        sys.stdout.write(formats.serialize_graph(g))
    elif args.family == "colored-clique":
        k = formats.generate_colored_clique(args.n, args.multiplicity, rng)
        sys.stdout.write(formats.serialize_colored_clique(k))
    else:
        raise LllError(f"unknown family {args.family!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parallel Monte-Carlo helper (per-run streams make chunking irrelevant)


def _worker_counts(payload):
    spec, seed, run_indices = payload
    problem = build_problem(spec)
    rows = [(rep.steps, rep.terminated, rep.resample_counts)
            for rep in analysis.iter_runs(problem, run_indices, seed)]
    steps, terminated, flaw_counts = zip(*rows)
    return (np.array(steps, dtype=np.int64), np.array(terminated, dtype=bool),
            np.array(flaw_counts, dtype=np.int64).reshape(len(rows), problem.num_flaws))


def parallel_run_counts(spec: dict, runs: int, seed: int, workers: int):
    """Step/termination/address-count statistics fanned out over worker
    processes; aggregation is in run-index order, so the result is
    byte-identical to the single-process loop."""
    chunk = max(1, (runs + workers - 1) // workers)
    indices = range(runs)
    payloads = [(spec, seed, indices[k:k + chunk]) for k in range(0, runs, chunk)]
    if workers <= 1 or len(payloads) == 1:
        parts = [_worker_counts(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_worker_counts, payloads))
    steps = np.concatenate([p[0] for p in parts])
    terminated = np.concatenate([p[1] for p in parts])
    flaw_counts = np.concatenate([p[2] for p in parts])
    return steps, terminated, flaw_counts


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lll-lab",
        description="stochastic local-search lab: solvers, criteria, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on an instance file")
    p_solve.add_argument("solver", choices=SOLVER_NAMES)
    p_solve.add_argument("instance")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--max-steps", type=int, default=10**6)
    p_solve.add_argument("--strategy", choices=["lowest_index", "recency"], default=None)
    p_solve.add_argument("--colors", "--q", type=int, default=None, dest="colors")
    p_solve.add_argument("--bias", default=None, help="JSON file of per-variable [p0,p1]")
    p_solve.add_argument("--trace", action="store_true",
                         help="embed the witness sequence/trees/forest in the report")
    p_solve.add_argument("--json", default=None, help="write the JSON report here")
    p_solve.set_defaults(fn=cmd_solve)

    p_crit = sub.add_parser("criteria", help="evaluate a criterion from a JSON description")
    p_crit.add_argument("criteria")
    p_crit.add_argument("--mode", choices=["general", "cluster", "shearer", "clique", "backtrack"],
                        default=None)
    p_crit.add_argument("--cap", type=int, default=25,
                        help="neighborhood enumeration cap for cluster mode")
    p_crit.add_argument("--json", default=None)
    p_crit.set_defaults(fn=cmd_criteria)

    p_verify = sub.add_parser("verify", help="run a Monte-Carlo verdict suite")
    p_verify.add_argument("solver", choices=SOLVER_NAMES)
    p_verify.add_argument("instance")
    p_verify.add_argument("--suite", required=True,
                          choices=["witness", "resamples", "distribution", "partial", "event"])
    p_verify.add_argument("--runs", type=int, default=10**5)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--mode", choices=["cluster", "shearer"], default=None)
    p_verify.add_argument("--psi", type=float, default=None)
    p_verify.add_argument("--tree-nodes", type=int, default=3)
    p_verify.add_argument("--colors", "--q", type=int, default=None, dest="colors")
    p_verify.add_argument("--bias", default=None)
    p_verify.add_argument("--parallel", type=int, default=1,
                          help="worker processes for the resamples suite on "
                               "problems too large to enumerate")
    p_verify.add_argument("--json", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance on stdout")
    p_gen.add_argument("family", choices=["ksat", "graph", "colored-clique"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--degree", type=int, default=2)
    p_gen.add_argument("--max-degree", type=int, default=3)
    p_gen.add_argument("--edges", type=int, default=None)
    p_gen.add_argument("--multiplicity", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(fn=cmd_gen)

    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = resolve_seed(args.seed)
        return args.fn(args)
    except (LllError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
