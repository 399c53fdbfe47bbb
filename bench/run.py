#!/usr/bin/env python3
"""Benchmark of viewfilter: served filters, CLI filters and the change workflow.

Run from the root of a checkout:

    python3 bench/run.py --workload fixture --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick --seconds 1          # every workload, tiny sizes

With ``--trace 0`` it drives a ``viewfilter serve`` child and the CLI and
prints the end-to-end metrics; with ``--trace 1`` it sends the same seeded
operations to the modules in-process and prints per-layer metrics. The last
line of output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

from rounds import WORKLOADS, HttpRun


def run_one(name: str, seed: int, seconds: float, trace: int, quick: bool, root: Path) -> dict:
    work = root / ".bench_runs" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        from traced import TracedRun as cls
    else:
        cls = HttpRun
    run = cls(WORKLOADS[name], seed, quick, work, root / "src")
    try:
        run.setup()
        run.measure(seconds)
        (work / "samples.json").write_text(json.dumps(run.samples))
        for problem in run.problems[:10]:
            print(f"{name}: {problem}", file=sys.stderr)
        return run.result()
    finally:
        run.close()
        for store in work.glob("store*"):
            shutil.rmtree(store, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes; every workload unless --workload is given")
    args = parser.parse_args(argv)
    # A terminated run still stops its server child on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "viewfilter" / "__init__.py").is_file():
        print("bench/run.py: run it from the root of a viewfilter checkout (src/viewfilter is missing)", file=sys.stderr)
        return 2
    if args.workload is None and not args.quick:
        parser.error("--workload is required without --quick")
    sys.path.insert(1, str(root / "src"))

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        print(json.dumps(run_one(name, args.seed, args.seconds, args.trace, args.quick, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
