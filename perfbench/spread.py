"""Run one workload over several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload recovery --seeds 1 2 3 4 5 [--seconds 15]

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median,
the figure ``BENCHMARK.json``'s bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}")
            return 1
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in runs[-1].items()))
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        s = spread(values) if len(values) >= 2 else float("nan")
        print(f"{m['name']:<13} median {median(values):.6g} {m['unit']:<4} "
              f"spread {s:.4f} (bound {m['bound']}, target < {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
