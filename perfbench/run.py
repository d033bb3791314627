"""Benchmark of gradcert: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {recovery,certify,cli} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs whole cycles of ops in a closed loop with one caller
until ``S`` seconds have passed, and reports the end-to-end metrics.
``--trace 1`` runs a fixed list of cycles untraced and then with the span
wrappers of ``tracer.py`` installed (``cli`` first runs it as subprocesses
too, then in-process), checks that every pass gives identical iteration
counts, reset events, verdicts and exit codes, writes the spans to
``.perfbench_spans/`` and reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object. The exit code is 0 only when
every op passed its correctness check.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads; every child process inherits it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench_out")  # relative to ROOT, removed after each run
SPANS_DIR = Path(".perfbench_spans")  # relative to ROOT, kept: one file per traced run
SETUP_REPS = 11
# later changes must not tune on this seed; a claimed gain is re-checked on it
HELD_OUT_SEED = 7919


def _import_package():
    """Import gradcert from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gradcert" / "__init__.py").is_file():
        print(f"error: {src / 'gradcert'} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import gradcert

    if Path(gradcert.__file__).resolve().parent != (src / "gradcert").resolve():
        print(f"error: imported gradcert from {gradcert.__file__}", file=sys.stderr)
        sys.exit(2)


def _blas_threads_observed():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _git_commit():
    """Commit of the checkout read from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_observed": _blas_threads_observed(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_op(op):
    """Time one op and judge it: (seconds, correct, fingerprint)."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises is a failed op; the run goes on
        dt = perf_counter() - t0
        print(f"op {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, False, None
    dt = perf_counter() - t0
    ok, fingerprint = op.check(result)
    if not ok:
        print(f"op {op.name} failed its correctness check: {fingerprint!r:.300}", file=sys.stderr)
    return dt, ok, fingerprint


def run_untraced(wl, seed: int, seconds: float) -> dict:
    setup, state = [], None
    for _ in range(SETUP_REPS):
        state = None  # free the previous set-up before building the next
        dt, state = wl.timed_setup(seed)
        setup.append(dt)
    latencies, failed = [], 0
    c = 0
    t0 = perf_counter()
    while True:
        for op in wl.cycle(state, c):
            dt, ok, _ = run_op(op)
            latencies.append(dt)
            failed += not ok
        c += 1
        if perf_counter() - t0 >= seconds:
            break
    elapsed = perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    n = len(latencies)
    p90 = stats.p90(latencies)
    rows = [
        ("setup_s", stats.median(setup), "s", f"median of {SETUP_REPS} set-ups"),
        ("ops_per_s", n / elapsed, "1/s", f"{n} ops in {c} cycles, {elapsed:.3f} s"),
        ("op_p50_s", stats.median(latencies), "s", f"n={n}"),
        ("op_p90_s", p90, "s", f"n={n}" if p90 is not None else f"omitted: n={n} < 100"),
        ("peak_rss_mb", resource.getrusage(who).ru_maxrss / 1024.0, "MB",
         "largest child process" if wl.name == "cli" else "this process"),
        ("failed_frac", failed / n, "ratio", f"{failed} failed of {n} attempted"),
    ]
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<13} {shown:>12} {unit:<6} ({note})")
    # failed_frac is always 0 on a correct run and op_p90_s needs 100 ops, so
    # neither fits the result's metrics; failed/attempted carry the former
    reported = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {r[0]: {"value": r[1], "unit": r[2]} for r in rows if r[0] in reported},
    }


def _pass(wl, seed, runner, tracer=None):
    """One pass of the trace-run op list: (wall seconds, fingerprints, failed)."""
    from workloads import dir_bytes

    t0 = perf_counter()
    state = wl.setup(seed)
    ops = [op for c in range(wl.trace_cycles) for op in wl.cycle(state, c)]
    prints, failed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        _, ok, fp = run_op(runner(op))
        prints.append(fp)
        failed += not ok
        if tracer is not None:
            if op.out is not None:
                tracer.counts["cli.artifact_bytes"] += dir_bytes(op.out)
            if not ok and wl.name == "cli":
                tracer.counts["cli.errors"] += 1
    return perf_counter() - t0, prints, failed


def run_traced(wl, seed: int) -> dict:
    from tracer import PER_LAYER, Tracer

    def in_process(op):
        return op if op.inproc is None else dataclasses.replace(op, call=op.inproc)

    passes = []
    if wl.name == "cli":  # the untraced reference is the subprocess run
        passes.append(("subprocess", *_pass(wl, seed, lambda op: op)[1:]))
    wall_plain, prints_plain, failed_plain = _pass(wl, seed, in_process)
    passes.append(("in-process untraced", prints_plain, failed_plain))
    tracer = Tracer()
    tracer.install()
    try:
        wall_traced, prints_traced, failed_traced = _pass(wl, seed, in_process, tracer)
    finally:
        tracer.restore()
    same = all(p == prints_traced for _, p, _ in passes)
    for label, _, f in passes:
        print(f"  pass {label}: {f} failed")
    print(f"  pass traced: {failed_traced} failed; fingerprints "
          f"{'identical' if same else 'DIFFER'} across passes")
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"{wl.name}-seed{seed}.csv.gz"
    tracer.dump(spans_file)
    print(f"  {len(tracer.name)} spans written to {spans_file}")
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = wall_traced / wall_plain - 1.0
    print(f"  wall untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s")
    print("  spans by name: calls, total s, self s")
    for name, (calls, total, own) in sorted(tracer.by_name().items()):
        print(f"    {name:<26} {calls:>9} {total:>11.6f} {own:>11.6f}")
    counts = {k: len(v) for k, v in sorted(tracer.samples.items())}
    print(f"  iters/evals-to-1e-6 sample counts: {counts}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    failed = failed_traced + sum(f for _, _, f in passes)
    return {
        "correct": failed == 0 and same,
        "attempted": len(prints_traced),
        "failed": failed_traced,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("recovery", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    os.chdir(ROOT)
    import workloads  # imports gradcert, so only after _import_package

    wl = {
        "recovery": workloads.Recovery,
        "certify": workloads.Certify,
        "cli": lambda: workloads.Cli(ROOT, OUT_DIR / "cli"),
    }[args.workload]()
    print(f"env: {json.dumps(environment(args.seed))}")
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            result = run_traced(wl, args.seed)
        else:
            result = run_untraced(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
