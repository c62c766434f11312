"""Layered benchmark of the lll-lab CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-ksat-backtrack --seed 1 --seconds 24 --trace 0

The workload seed generates the instance; every timed call goes through
``lll_lab.cli.main(argv)`` in this process, imported from ``src/``.
Rounds of the workload's calls repeat for ``--seconds`` after one
untimed warm-up round.  Every call is checked (exit code, validity,
verdicts, stdout digest against ``pins.json`` and against the first
round).  ``--trace 0`` prints the end-to-end metrics, with call times
scaled by a calibration kernel timed around every call; ``--trace 1``
runs untraced rounds for a third of the time, then traced rounds, and
prints the per-layer metrics.  The last stdout line is one JSON object;
a full record with machine facts goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench")
SETUP_PROBES = 9
MIN_ROUNDS = 3
DETERMINISTIC_UNITS = ("count", "1/step", "frac")  # per-layer values that must repeat
# Timings are scaled to a machine on which ``calibration_kernel`` takes
# CAL_REF_S: on a shared host the speed of the whole machine drifts by
# +-20% over tens of seconds, and a fixed pure-Python kernel timed around
# each measurement tracks that drift.  Never change the kernel or this
# constant: every timing recorded so far depends on them.
CAL_REF_S = 0.1
CAL_ITEMS = tuple(range(3000))


def calibration_kernel() -> float:
    """Seconds taken by a fixed interpreter-bound loop (list, tuple and
    dict work, like the package's hot loops)."""
    t0 = perf_counter()
    acc = 0
    for _ in range(600):
        odd = tuple([x for x in CAL_ITEMS if x & 1])
        table = {x: x + 1 for x in odd[:500]}
        acc += len(odd) + sum(table[x] for x in odd[:500] if x in table)
    return perf_counter() - t0


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = Path("src").resolve()
    if not (src / "lll_lab" / "cli.py").is_file():
        fail("run from the root of an lll-lab checkout: src/lll_lab not found")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from lll_lab import cli
    return cli


def probe(workload_name: str, seed: int, tiny: bool) -> None:
    """One set-up in a fresh interpreter: package import, instance
    generation, and ``build.build_problem`` (which parses the instance),
    followed by the calibration kernel.

    numpy is imported before the clock starts: loading it took 0.10 to
    0.18 s, in host phases that the kernel does not follow, while the
    pure-Python rest does."""
    import numpy  # noqa: F401

    t0 = perf_counter()
    import_package()
    from lll_lab.build import build_problem
    from workloads import workloads

    w = workloads(tiny)[workload_name]
    for text in w.texts(seed):
        build_problem(w.spec(text))
    setup = perf_counter() - t0
    print(json.dumps({"setup_s": setup, "calibration_s": calibration_kernel()}))


def measure_setup(workload_name: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, each scaled by
    the calibration kernel timed in the same interpreter, and the raw
    seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--probe", "--workload", workload_name,
           "--seed", str(seed)] + (["--tiny"] if tiny else [])
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        out = json.loads(done.stdout.splitlines()[-1])
        raw.append(out["setup_s"])
        scaled.append(out["setup_s"] * CAL_REF_S / out["calibration_s"])
    return scaled, raw


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_call(kind: str, code: int, stdout: str) -> tuple[int, str | None]:
    """(work done, failure reason or None) for one CLI call."""
    if code != 0:
        return 0, f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 0, "stdout is not JSON"
    if kind == "solve":
        if doc.get("terminated") is not True:
            return 0, "censored run"
        if doc.get("valid") is not True:
            return 0, "valid is not true"
        return int(doc["steps"]), None
    verdicts = doc.get("verdicts")
    if not isinstance(verdicts, list) or not verdicts:
        return 0, "verdicts is not a non-empty list"
    if not all(isinstance(v, dict) and v.get("pass") is True for v in verdicts):
        return 0, "a verdict failed"
    if doc.get("all_pass") is not True:
        return 0, "all_pass is not true"
    return int(doc["runs"]), None


@dataclass
class Round:
    """One pass over a workload's calls."""

    wall: float  # seconds in the CLI calls
    cal_wall: float  # the same, each call scaled to the reference speed
    work: int  # engine steps (solve) or Monte-Carlo runs (verify)
    digests: list[str]  # sha256 of each call's stdout
    cpu: float  # process CPU seconds in the CLI calls
    cal: float  # mean calibration kernel seconds around the calls


class Session:
    """The calls of one benchmark process, with their correctness checks."""

    def __init__(self, cli, workload, seed: int, pins: list[str] | None):
        self.cli = cli
        self.workload = workload
        self.argvs = workload.prepare(WORK_DIR, seed)
        self.pins = pins
        self.first: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # failed calls and any other broken check

    def round(self) -> Round:
        """Run every call once, each followed by the calibration kernel;
        a call's time is scaled by the mean of the kernels around it."""
        wall = cal_wall = cpu = cal_sum = 0.0
        work, digests = 0, []
        cal_before = calibration_kernel()
        for k, argv in enumerate(self.argvs):
            out, err = io.StringIO(), io.StringIO()
            t0, c0 = perf_counter(), process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            dt = perf_counter() - t0
            cpu += process_time() - c0
            cal_after = calibration_kernel()
            cal = (cal_before + cal_after) / 2
            wall += dt
            cal_wall += dt * CAL_REF_S / cal
            cal_sum += cal
            cal_before = cal_after
            digest = sha256(out.getvalue())
            done, why = check_call(self.workload.kind, code, out.getvalue())
            if why is None and self.pins is not None and digest != self.pins[k]:
                why = "stdout digest differs from the pinned one"
            if why is None and self.first is not None and digest != self.first[k]:
                why = "stdout digest differs from the first round"
            self.attempted += 1
            if why is not None:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: {why}")
            work += done
            digests.append(digest)
        if self.first is None:
            self.first = digests
        return Round(wall, cal_wall, work, digests, cpu, cal_sum / len(self.argvs))

    def rounds(self, seconds: float, min_rounds: int, before=None, after=None):
        """Repeat rounds for ``seconds`` (at least ``min_rounds``)."""
        out = []
        t_end = perf_counter() + seconds
        while len(out) < min_rounds or perf_counter() < t_end:
            if before is not None:
                before()
            out.append(self.round())
            if after is not None:
                after()
        return out


def tail(values: list[float], higher_is_better: bool) -> str:
    """The worst-side percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n})"
    pct = int(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")
    if higher_is_better:
        return f"p{100 - pct} {q[100 - pct - 1]:.6g} (n={n})"
    return f"p{pct} {q[pct - 1]:.6g} (n={n})"


def machine_facts() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit_measured(),
    }


def commit_measured() -> dict:
    """The git commit when the checkout has one, and always a digest of
    the package source measured."""
    h = hashlib.sha256()
    for f in sorted(Path("src").rglob("*.py")):
        h.update(str(f).encode() + b"\0" + f.read_bytes())
    out = {"src_sha256": h.hexdigest()}
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        out["git"] = ref
    return out


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(session: Session, seed: int, seconds: float, tiny: bool, lines: list,
               record: dict) -> dict:
    setup, setup_raw = measure_setup(session.workload.name, seed, tiny)
    session.round()  # warm-up
    rounds = session.rounds(seconds, MIN_ROUNDS)
    walls = [r.cal_wall for r in rounds]
    rates = [r.work / r.cal_wall for r in rounds]
    rate_name = "solve_steps_per_s" if session.workload.kind == "solve" else "verify_runs_per_s"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (median(walls), "s", walls),
        "work_per_s": (median(rates), "1/s", rates),
        "setup_s": (median(setup), "s", setup),
        "peak_rss_mb": (rss_mb, "MB", [rss_mb]),
    }
    failed_frac = session.failed / session.attempted
    lines.append("wall_s, work_per_s and setup_s calibrated to the reference speed "
                 "(raw values follow):")
    for name, (value, unit, samples) in metrics.items():
        alias = f" (= {rate_name})" if name == "work_per_s" else ""
        lines.append(f"  {name}{alias}: median {value:.6g} {unit}; "
                     f"{tail(samples, name == 'work_per_s')}")
    lines.append(f"  failed_frac: {failed_frac:.6g} frac (attempted {session.attempted})")
    raw = {"wall_s": [r.wall for r in rounds], "cpu_s": [r.cpu for r in rounds],
           "calibration_s": [r.cal for r in rounds], "setup_s": setup_raw}
    lines.append("raw:")
    for name, samples in raw.items():
        lines.append(f"  {name}: median {median(samples):.6g} s; {tail(samples, False)}")
    record["samples"] = dict(raw, setup_calibrated_s=setup)
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(session: Session, seconds: float, lines: list) -> dict:
    import layers

    session.round()  # warm-up
    plain = session.rounds(seconds / 3, 2)
    tracer = layers.Tracer()
    undo = layers.instrument(tracer)
    folded = []
    try:
        traced = session.rounds(
            seconds * 2 / 3, 2, before=tracer.reset,
            after=lambda: folded.append(layers.layer_metrics(*tracer.fold(), tracer.counts,
                                                              tracer.sequences)),
        )
    finally:
        undo()
    metrics = {}
    for name in folded[0]:
        values = [f[name] for f in folded]
        unit = trace_unit(name)
        if unit in DETERMINISTIC_UNITS:
            if len(set(values)) != 1:
                session.failures.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": median(values), "unit": unit}
    overhead = median(r.cal_wall for r in traced) / median(r.cal_wall for r in plain) - 1.0
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    lines.append(f"tracing overhead: {100 * overhead:+.1f}% "
                 f"({len(traced)} traced rounds against {len(plain)} untraced)")
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def trace_unit(name: str) -> str:
    for suffix, unit in (("_us_per_step", "us/step"), ("_us_per_run", "us/run"),
                         ("_ns_per_step", "ns/step"), ("_per_step", "1/step"),
                         ("_frac", "frac"), ("_yield", "frac"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if args.probe:
        probe(args.workload, args.seed, args.tiny)
        return 0
    cli = import_package()
    from workloads import workloads

    table = workloads(args.tiny)
    if args.workload not in table:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(table)}")
    w = table[args.workload]
    pins = None if args.tiny else (
        json.loads((HERE / "pins.json").read_text()).get(w.name, {}).get(str(args.seed)))
    facts = machine_facts()
    session = Session(cli, w, args.seed, pins)
    lines = [f"workload {w.name}, seed {args.seed}, trace {args.trace}, "
             f"stdout pinned: {'yes' if pins is not None else 'no (checked across rounds)'}"]
    extra: dict = {}
    if args.trace:
        metrics = per_layer(session, args.seconds, lines)
    else:
        metrics = end_to_end(session, args.seed, args.seconds, args.tiny, lines, extra)
    facts["loadavg_end"] = list(os.getloadavg())
    lines.append("machine: " + json.dumps(facts, sort_keys=True))
    lines.append("digests: " + " ".join(session.first))
    lines += [f"FAILED {f}" for f in session.failures]
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=w.name, seed=args.seed, trace=args.trace, facts=facts,
                  digests=session.first, failures=session.failures, log=lines, **extra)
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
