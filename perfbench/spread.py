"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload exact-5e4 --seeds 1 2 3 4 5

Runs the ``BENCHMARK.json`` command once per seed (untraced) on each
workload named, or on every workload of ``BENCHMARK.json``, then prints,
per workload and end-to-end metric, the median, the interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``) and the
metric's bound.  A spread below a third of the bound is marked steady.
The last line is a JSON object with every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread_of(workload: str, seeds, spec) -> list:
    """Run the benchmark once per seed; print each metric's spread."""
    runs = []
    for seed in seeds:
        command = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false, failed {result['failed']} "
                  f"of {result['attempted']}", file=sys.stderr)
        runs.append({"seed": seed, **result})
    print(f"{workload:<20}{'median':>14} {'unit':<8}{'iqr/median':>12}"
          f"{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        steady = "steady" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{name:<20}{median:>14.6g} {metric['unit']:<8}{spread:>12.4f}"
              f"{metric['bound']:>8}  {steady}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {name: spread_of(name, args.seeds, spec) for name in names}
    print(json.dumps({"runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
