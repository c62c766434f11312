"""Size ladders of the two solve workloads, for the doc's baselines.

Run from the root of a source checkout:

    python3 perfbench/ladder.py [--seed 1]

For ``ksat-backtrack`` at n = 100, 400, 1600, 6400 and ``aec-backtrack``
at about 45, 150, 450, 899 edges it makes one untraced and one traced
solve per rung.  It prints engine steps, the untraced call time per
step (median of three), the traced ``core.run`` time per step, and the
shares of that run time spent in the flaw scan and in ``incident()``.
Times are calibrated as in ``run.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import Workload, gen_graph, gen_ksat  # noqa: E402

RUNGS = (
    [(f"ksat n={n}", "ksat-backtrack", (), lambda rng, n=n: gen_ksat(rng, n, 5, 2))
     for n in (100, 400, 1600, 6400)]
    + [(f"aec m={m}", "aec-backtrack", ("--colors", "9"),
        lambda rng, v=v, m=m: gen_graph(rng, v, 3, m))
       for v, m in ((30, 45), (100, 150), (300, 450), (600, 899))]
)

# core.run and the spans recorded under it in a solve call
RUN_LAYERS = ("core.run", "rng.source_for_run", "solvers.init", "core.flaw_scan", "core.choose",
              "solvers.action", "solvers.aec.cycle_walk", "solvers.aec.incident")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    cli = run.import_package()
    import layers

    print("rung | steps | call us/step | run us/step (traced) | flaw scan | incident()")
    for label, solver, solver_args, generate in RUNGS:
        w = Workload(label, "solve", "ladder.txt", generate, solver, solver_args, ((),))
        session = run.Session(cli, w, args.seed, None)
        plain = sorted(session.rounds(0, 3), key=lambda r: r.cal_wall)[1]
        tracer = layers.Tracer()
        undo = layers.instrument(tracer)
        try:
            traced = session.round()
        finally:
            undo()
        self_s, _ = tracer.fold()
        if session.failures:
            print(f"{label}: FAILED {session.failures}")
            return 1
        run_s = sum(t for name, t in self_s.items() if name in RUN_LAYERS)
        scan, incident = (100.0 * self_s.get(name, 0.0) / run_s
                          for name in ("core.flaw_scan", "solvers.aec.incident"))
        run_us = 1e6 * run_s * traced.cal_wall / traced.wall / plain.work
        print(f"{label} | {plain.work} | {1e6 * plain.cal_wall / plain.work:.1f} | "
              f"{run_us:.1f} | {scan:.0f}% | {incident:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
