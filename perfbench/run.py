"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,kernel,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Human-readable lines come first; the last
line of standard output is the JSON result document.  Exits 2 without a
result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "kernel", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Import the checkout's program and this package, never the script's own
    # directory (its module names would shadow the standard library's).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import execute

    report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"], allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
