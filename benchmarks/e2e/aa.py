"""A/A check: two interleaved sets of runs of the same checkout.

    python benchmarks/e2e/aa.py [--passes K] [--seed S] [--seconds T]
        [--workload NAME ...]

Pass ``i`` of either set runs every workload untraced with seed
``S + i``, and the two sets alternate which goes first, so drift of the
host lands on both.  For every workload x end-to-end metric it prints
both medians, their ratio, and each set's spread -- the distance between
the first and third quartile as a share of the median, over the ``K``
seeds -- beside the bound ``BENCHMARK.json`` fixes.  The spread is the
benchmark's noise floor: a difference between two commits smaller than
it is not a difference.  Exits non-zero when the two medians of any
pair differ by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional

from run import HERE, load_benchmark


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, as the driver computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=3,
                        help="runs per set (10 is what the driver does)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    workloads = args.workload or names

    samples: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {"A": {}, "B": {}} for w in workloads
    }
    for i in range(args.passes):
        for label in ("AB" if i % 2 == 0 else "BA"):
            for workload in workloads:
                values = run_once(workload, args.seed + i, args.seconds)
                for name, value in values.items():
                    samples[workload][label].setdefault(name, []).append(value)
                print(f"pass {i} set {label} {workload} "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)

    print(f"\n{'workload':<22}{'metric':<16}{'median A':>12}{'median B':>12}"
          f"{'B/A':>8}{'spread A':>10}{'spread B':>10}{'bound':>7}")
    worst = 0
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = samples[workload]["A"][name]
            b = samples[workload]["B"][name]
            ratio = median(b) / median(a)
            differs = abs(ratio - 1.0) > bound
            worst += differs
            print(f"{workload:<22}{name:<16}{median(a):>12.5g}"
                  f"{median(b):>12.5g}{ratio:>8.3f}{spread(a):>10.3f}"
                  f"{spread(b):>10.3f}{bound:>7.2f}"
                  + ("  DIFFERS" if differs else ""))
    print(f"\n{worst} pair(s) of medians differ by more than their bound")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
