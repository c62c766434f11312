"""Self-test of the benchmark at tiny sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it runs the benchmark once untraced and twice traced
(``run.py --tiny``), and checks that every run is correct, that the two
traced runs report identical counts and count ratios, and that the metric names and units
printed are exactly those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "0.5"


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--tiny", "--workload", workload,
           "--seed", "3", "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import DETERMINISTIC_UNITS
    from workloads import workloads

    declared = json.loads(Path("BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads()):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in workloads(tiny=True):
        results = [run(name, 0), run(name, 1), run(name, 1)]
        for trace, res in zip((0, 1, 1), results):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} differ from {want[trace]}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: not correct")
        a, b = results[1]["metrics"], results[2]["metrics"]
        for k, v in a.items():
            if v["unit"] in DETERMINISTIC_UNITS and v["value"] != b[k]["value"]:
                problems.append(f"{name}: {k} {v['value']} != {b[k]['value']}")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
