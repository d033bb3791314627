"""Print SHA-256 digests of solver traces, hashed from their arrays, not their CSV text.

Usage, from the root of a checkout:

    python3 tools/trace_digest.py

It prints one line per set, ``<set> <sha256>``, in a few seconds; the
``certify`` line adds ``n_evals=<total>``. A first line, ``blas_threads
<n>``, gives the thread count the loaded OpenBLAS reports (``None`` when it
cannot be read), since the ``recover`` and ``csv`` digests depend on it:
LAPACK's ``eigvalsh`` moves ``||A||^2`` in its last bits with the thread
count. Each digest but ``csv`` covers the raw bytes of every array and the
repr of every scalar field, so a change to how traces are written or read
cannot hide a moved bit. The ``quad`` and ``certify`` lines leave out the
``secant`` column, which has its own line, so they kept their digests when
that column was added:

- ``recover``: seeds 1-3, 256x512, k = 25, ``pm_one``, each of the four
  ``RECOVERY_VARIANTS``; the problem's ``A``, ``b``, ``x_true`` and ``alpha``,
  the result's curves and ``x_final``, and the dual trace's ``f``,
  ``grad_norm``, ``reset_event``, ``status`` and ``n_evals``;
- ``quad``: the 20x50 quads ``make_quadratic_composite(a, a @ x)`` with ``a``
  and ``x`` drawn from ``GaussianStream(s)``, s = 11-15, run from 0 under each
  ``SolverConfig.variant`` (adaptive under both policies) at its theory
  stepsize; every trace field, ``dist_to_sol``, ``f_star`` and the iterates
  included;
- ``certify``: the 8 solver runs of one ``perfbench`` ``certify`` cycle
  (``gd`` for thm2, thm3, thm1 and lemma2, ``nesterov``, ``restart_fixed``
  and both adaptive policies, up to 10,001 records each), built here as
  the workload builds them, on its quads 0-3 of workload seeds 1, 2 and
  7919; every trace field but ``n_evals``, the iterates where the run keeps
  them. The total of ``n_evals`` is printed beside the digest, so a change
  that only skips oracle calls keeps the digest;
- ``secant``: the ``secant`` column of every trace of the ``quad`` set, then
  of the ``certify`` set;
- ``checks``: for every trace of the ``quad`` set, then of the ``certify``
  set, and every id of ``THEOREM_IDS`` in order, the ``to_json()`` of
  ``check_bounds(trace, quad, id, cfg)`` with the run's own config, or the
  message of the ``ValueError`` it raises where the id rejects the run. It
  catches a moved verdict, violation or count of any bound check;
- ``estimates``: ``repr`` of the value, the witness arrays and
  ``samples_used`` of ``estimate_rsi`` and ``estimate_rlg``, or the type and
  message of the error an estimator raises, on f1 and f2 over (0, 10) and f3
  (beta = 1) over (-5, 5) at the ``certify`` workload's counts (10^5 samples
  for ``estimate_rsi``, 10^4 for ``estimate_rlg``, seed 0) and at the block
  edges of ``RSI_SIZES`` and ``RLG_SIZES`` in ``tests/test_properties.py``
  (seed n), then on the 20x50 quads of the ``quad`` set over the box
  [-3, 3]^50 at those block edges;
- ``csv``: the bytes the CLI's writer (``cli._write_atomic`` of
  ``csv_blocks()``) makes of every result of the ``recover`` set and every
  trace of the ``quad`` set, then of one 20,001-record ``nesterov`` trace
  (the first quad of that set, at its theory stepsize, from 0), whose text
  spans many blocks. It catches a moved CSV byte that the array digests
  cannot see. It moved when the ``secant`` column joined the trace CSV;
- ``artifacts``: the README's six ``gradcert`` lines as written, run in order
  through ``cli.main`` from an empty directory; each command's exit code,
  the name and bytes of every file it writes, in name order, and its
  stdout. The ``out`` and ``input`` values of ``config.json`` are
  normalized, so the digest does not depend on where the files are written.
  Its 256x512 ``recover`` makes it depend on the BLAS thread count, as
  ``recover`` does.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gradcert.certify import (  # noqa: E402
    _ROWS,
    THEOREM_IDS,
    check_bounds,
    estimate_rlg,
    estimate_rsi,
)
from gradcert.cli import _write_atomic, main as cli_main  # noqa: E402
from gradcert.numkit import GaussianStream  # noqa: E402
from gradcert.oracles import make_example_1d, make_quadratic_composite  # noqa: E402
from gradcert.solvers import SolverConfig, run_solver  # noqa: E402
from gradcert.sparse_recovery import RECOVERY_VARIANTS, gen_sparse_problem, recover  # noqa: E402


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found.

    The lookup of ``perfbench/run.py``, copied: importing that module would
    pin the threads to 1.
    """
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


def _feed(h, *items) -> None:
    """Hash each item: an array as its dtype, shape and bytes, anything else as its repr."""
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())
        h.update(b"|")


def _feed_checks(h, trace, oracle, cfg) -> None:
    """Hash every id's report on one run, or the message of its refusal."""
    for theorem_id in THEOREM_IDS:
        try:
            _feed(h, check_bounds(trace, oracle, theorem_id, cfg).to_json())
        except ValueError as exc:
            _feed(h, f"ValueError: {exc}")


def _csv_writer(h, path: Path):
    """A function that writes a trace or result as the CLI does and hashes the file."""
    def write(obj) -> None:
        _write_atomic(path, obj.csv_blocks())
        h.update(path.read_bytes())
    return write


def recover_digest(write_csv) -> str:
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        p = gen_sparse_problem(seed, 256, 512, 25, "pm_one")
        _feed(h, p.A, p.b, p.x_true, p.alpha)
        for variant in RECOVERY_VARIANTS:
            res = recover(p, variant)
            write_csv(res)
            _feed(h, variant, res.x_final, res.rel_error_curve, res.primal_residual_curve,
                  res.iters)
            tr = res.dual_trace
            _feed(h, tr.f, tr.grad_norm, tr.reset_event, tr.status, tr.n_evals)
    return h.hexdigest()


def _theory_configs(nu: float, big_r: float) -> list[SolverConfig]:
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    return [
        SolverConfig(stepsize_h=1.0 / (2.0 * big_r), max_iters=2000, variant="gd"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="nesterov"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=20 * k_len + 1,
                     variant="restart_fixed", restart_every=k_len),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="adaptive", policy="restart"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="adaptive", policy="skip"),
    ]


def _theory_quad(seed: int):
    stream = GaussianStream(seed)
    a = stream.normal((20, 50))
    return make_quadratic_composite(a, a @ stream.normal(50))


def quad_digest(write_csv, secant, checks) -> str:
    h = hashlib.sha256()
    for seed in (11, 12, 13, 14, 15):
        quad = _theory_quad(seed)
        for cfg in _theory_configs(quad.constants.nu, quad.constants.R):
            tr = run_solver(quad, np.zeros(50), cfg)
            write_csv(tr)
            _feed(h, cfg, tr.f, tr.grad_norm, tr.dist_to_sol, tr.reset_event, tr.status,
                  tr.f_star, tr.n_evals, *tr.iterates)
            _feed(secant, tr.secant)
            _feed_checks(checks, tr, quad, cfg)
    return h.hexdigest()


def _certify_runs(quad, grad0: float):
    """The workload's (x0, config, keep_iterates) of each solver run on one quad."""
    nu, big_r, lip = quad.constants.nu, quad.constants.R, quad.constants.L
    zeros, ones = np.zeros(quad.dim), np.ones(quad.dim)
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    tol = 1e-6 * grad0
    cfg = SolverConfig
    return [
        (zeros, cfg(1.0 / (2.0 * big_r), 4000), False),
        (zeros, cfg(1.0 / lip, 2500), False),
        (100.0 * ones, cfg(1.0 / big_r, 10_000), False),
        (zeros, cfg(1.0 / big_r, 5000, variant="nesterov"), False),
        (zeros, cfg(1.0 / big_r, 20 * k_len + 1, variant="restart_fixed", restart_every=k_len),
         False),
        (zeros, cfg(1.0 / big_r, 2000, tol, "adaptive", policy="restart"), False),
        (zeros, cfg(1.0 / big_r, 2000, tol, "adaptive", policy="skip"), False),
        (ones, cfg(1.0 / (2.0 * big_r), 300), True),
    ]


def certify_digest(secant, checks) -> tuple[str, int]:
    h = hashlib.sha256()
    n_evals = 0
    for seed in (1, 2, 7919):
        for i in range(4):
            stream = GaussianStream(seed * 1000 + i)
            a = stream.normal((20, 50))
            b = a @ stream.normal(50)
            quad = make_quadratic_composite(a, b)
            for x0, cfg, keep in _certify_runs(quad, float(np.linalg.norm(a.T @ b))):
                tr = run_solver(quad, x0, cfg, keep_iterates=keep)
                _feed(h, cfg, tr.f, tr.grad_norm, tr.dist_to_sol, tr.reset_event, tr.status,
                      tr.f_star, *(tr.iterates or ()))
                _feed(secant, tr.secant)
                _feed_checks(checks, tr, quad, cfg)
                n_evals += tr.n_evals
    return h.hexdigest(), n_evals


# sample counts at one and two blocks, less one, exact and plus one, as in
# tests/test_properties.py: rows for estimate_rsi, a sweep's 32 pairs per sample
# for estimate_rlg
RSI_SIZES = [k * _ROWS + d for k in (1, 2) for d in (-1, 0, 1)]
RLG_SIZES = [k * _ROWS // 32 + d for k in (1, 2) for d in (-1, 0, 1)]


def _feed_estimate(h, estimator, oracle, domain, n: int, seed: int) -> None:
    """Hash one estimate's value, witness and sample count, or the error it raises."""
    try:
        est = estimator(oracle, domain, n, seed)
    except (ArithmeticError, ValueError) as exc:
        _feed(h, estimator.__name__, n, f"{type(exc).__name__}: {exc}")
        return
    witness = est.witness if isinstance(est.witness, tuple) else (est.witness,)
    _feed(h, estimator.__name__, n, est.value, *witness, est.samples_used)


def estimates_digest() -> str:
    h = hashlib.sha256()
    one_d = [(make_example_1d("f1"), (0.0, 10.0)), (make_example_1d("f2"), (0.0, 10.0)),
             (make_example_1d("f3", beta=1.0), (-5.0, 5.0))]
    for oracle, domain in one_d:
        _feed_estimate(h, estimate_rsi, oracle, domain, 100_000, 0)
        _feed_estimate(h, estimate_rlg, oracle, domain, 10_000, 0)
    box = (-3.0 * np.ones(50), 3.0 * np.ones(50))
    quads = [(_theory_quad(seed), box) for seed in (11, 12, 13, 14, 15)]
    for oracle, domain in one_d + quads:
        for n in RSI_SIZES:
            _feed_estimate(h, estimate_rsi, oracle, domain, n, n)
        for n in RLG_SIZES:
            _feed_estimate(h, estimate_rlg, oracle, domain, n, n)
    return h.hexdigest()


README_LINES = [
    "solve --oracle quad:m=20,n=50,seed=7 --variant gd --h auto --max-iters 2000 "
    "--out out/solve --svg",
    "verify --oracle quad:m=20,n=50,seed=7 --variant gd --h auto --max-iters 2000 "
    "--theorem thm2_linear --out out/verify",
    "certify --oracle f1 --which rsi --box 0 10 --samples 100000 --out out/cert",
    "rates --input out/solve/trace.csv --model linear_geometric --window 50 1500 --out out/rates",
    "recover --m 256 --n 512 --k 25 --signal pm_one --seed 1 --variant skip "
    "--out out/recover --svg",
    "appendix --R 1 --nu 0.5 --out out/appendix",
]


def artifacts_digest() -> str:
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in README_LINES:
                argv = line.split()
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    _feed(h, line, cli_main(argv))
                for path in sorted(Path(argv[argv.index("--out") + 1]).iterdir()):
                    data = path.read_bytes()
                    if path.name == "config.json":
                        data = re.sub(rb'("(?:out|input)": )"[^"]*"', rb'\1"<path>"', data)
                    _feed(h, path.name)
                    h.update(data)
                _feed(h, stdout.getvalue())
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def main() -> None:
    print("blas_threads", _blas_threads())
    csv_hash, secant_hash, checks_hash = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        write_csv = _csv_writer(csv_hash, Path(tmp) / "out.csv")
        print("recover", recover_digest(write_csv))
        print("quad", quad_digest(write_csv, secant_hash, checks_hash))
        digest, n_evals = certify_digest(secant_hash, checks_hash)
        print("certify", digest, f"n_evals={n_evals}")
        print("secant", secant_hash.hexdigest())
        print("checks", checks_hash.hexdigest())
        quad = _theory_quad(11)
        cfg = SolverConfig(stepsize_h=1.0 / quad.constants.R, max_iters=20_000, variant="nesterov")
        write_csv(run_solver(quad, np.zeros(50), cfg, keep_iterates=False))
    print("csv", csv_hash.hexdigest())
    print("estimates", estimates_digest())
    print("artifacts", artifacts_digest())


if __name__ == "__main__":
    main()
