"""Record alternating parent/change runs of the benchmark as ``BENCH_<pr>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --parent DIR --change DIR --pr N \
        --workload W --seeds 1 2 ... 7919

Each seed makes one pair: the command of ``BENCHMARK.json`` with ``--workload
W --seed S --seconds T --trace 0``, T its ``run_seconds``, run in the parent
checkout and in the change checkout one after the other, the parent first in
even pairs and the change first in odd ones, so that drift of the machine's
speed falls on both sides alike. The last line a run prints is its JSON
result; the ``env:`` line before it is kept too, and names each run's commit
when the checkouts are git clones (an exported tree reads ``null``).

Each call appends one run set to the workload's list in ``BENCH_<N>.json`` at
the root of this checkout, so every set ever recorded stays in the record.
A run set holds every pair and, for each end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the parent's spread
and how many pairs the change won. A gain is claimable only when every run
exited 0 and passed its correctness check, no pair's change failed a larger
share of its ops than its parent, the change won at least nine tenths of the
pairs and the medians lie apart by more than the parent's interquartile
distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from stats import median, spread  # noqa: E402

SIDES = ("parent", "change")


def run_once(command: list[str], checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its exit code, env line and JSON result."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output, exit {proc.returncode}: {proc.stderr[-400:]}")
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), None)
    result = json.loads(lines[-1])
    return {
        "exit_code": proc.returncode,
        "env": env,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def runs_sound(pairs: list[dict]) -> bool:
    """Every run exited 0 and was correct, and no change failed more ops than its parent."""
    def failed_share(run):
        return run["failed"] / max(run["attempted"], 1)

    return all(
        p[s]["exit_code"] == 0 and p[s]["correct"] for p in pairs for s in SIDES
    ) and all(failed_share(p["change"]) <= failed_share(p["parent"]) for p in pairs)


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins, and the verdict."""
    sound = runs_sound(pairs)
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        wins = sum(
            (c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"])
        )
        sides = {}
        for s in SIDES:
            q1, _, q3 = statistics.quantiles(vals[s], n=4)
            sides[s] = {"median": median(vals[s]), "q1": q1, "q3": q3}
        par, chg = sides["parent"]["median"], sides["change"]["median"]
        # share by which the change's median is worse than the parent's (< 0: better)
        worse = (chg - par) / par * (-1 if higher else 1)
        parent_spread = spread(vals["parent"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **sides,
            "change_over_parent": chg / par,
            "change_worse_by": worse,
            "parent_spread": parent_spread,
            "change_wins": wins,
            "pairs": len(pairs),
            "gain_claimable": sound and wins >= 0.9 * len(pairs) and -worse > parent_spread,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(spec["command"], checkouts[side], args.workload, seed, seconds)
            m = pair[side]["metrics"]
            print(f"pair {i} seed {seed} {side}: " + ", ".join(f"{k} {v:.6g}" for k, v in m.items()),
                  flush=True)
        pairs.append(pair)

    run_set = {
        "command": " ".join(spec["command"])
        + f" --workload {args.workload} --seed S --seconds {seconds} --trace 0",
        "env": {side: pairs[0][side]["env"] for side in SIDES},
        "seeds": args.seeds,
        "sound": runs_sound(pairs),
        "summary": summarize(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    dest = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(dest.read_text()) if dest.exists() else {"pr": args.pr, "workloads": {}}
    record["workloads"].setdefault(args.workload, []).append(run_set)
    dest.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in run_set["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
              f"(x{s['change_over_parent']:.3f}), change wins {s['change_wins']}/{s['pairs']}, "
              f"parent spread {s['parent_spread']:.3f}, bound {s['bound']}, "
              f"gain claimable {s['gain_claimable']}")
    return 0 if run_set["sound"] else 1


if __name__ == "__main__":
    sys.exit(main())
