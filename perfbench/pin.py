"""Record the stdout digests that ``run.py`` checks every call against.

Run from the root of a source checkout:

    python3 perfbench/pin.py --seeds 0-30 [--workload NAME]

For each workload and seed it runs one round of the workload's calls,
checks them as ``run.py`` does, and writes the sha256 of each call's
stdout to ``perfbench/pins.json``.  Re-pinning changes what counts as a
correct output, so do it only in a change that says which outputs moved
and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", default=None, help="pin only this workload")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    cli = run.import_package()
    from workloads import workloads

    pins_path = run.HERE / "pins.json"
    pins = json.loads(pins_path.read_text())
    for w in workloads().values():
        if args.workload not in (None, w.name):
            continue
        for seed in range(first, last + 1):
            session = run.Session(cli, w, seed, None)
            digests = session.round().digests
            if session.failures:
                print(f"{w.name} seed {seed}: FAILED {session.failures}")
                return 1
            pins.setdefault(w.name, {})[str(seed)] = digests
            print(f"{w.name} seed {seed}: {' '.join(digests)}", flush=True)
    pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
