"""The benchmark's workloads: inputs made from the seed, ops, correctness checks.

Each workload is a closed loop with one caller: the runner starts the next
op when the previous one returns. Ops are grouped in cycles, and a run
stops only at the end of a cycle, so every run measures whole units of
work. Package functions are looked up on their modules at call time, so
the wrappers a traced run installs see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import gradcert.certify as cert
import gradcert.cli as cli
import gradcert.numkit as nk
import gradcert.oracles as orc
import gradcert.solvers as sol
import gradcert.sparse_recovery as sr

SQRT2 = math.sqrt(2.0)
NU_F1 = 2.0 / (4.0 - SQRT2)
NU_F2 = math.sqrt((SQRT2 - 1.0) / 2.0)
SUBPROCESS_TIMEOUT_S = 120


def derive(seed: int, part: int) -> int:
    """Seed of the part-th input of a run with the given workload seed."""
    return seed * 1000 + part


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` then judges its result.

    ``check`` returns ``(correct, fingerprint)``; the fingerprint holds the
    iteration counts, reset events, verdicts or exit codes that a traced
    run must reproduce exactly. ``inproc`` runs the same op inside this
    process when ``call`` starts a subprocess.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Any]]
    inproc: Callable[[], Any] | None = None
    out: Path | None = None


class Workload:
    name = ""
    trace_cycles = 1  # cycles run by a traced run

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def timed_setup(self, seed: int) -> tuple[float, Any]:
        t0 = perf_counter()
        state = self.setup(seed)
        return perf_counter() - t0, state

    def cycle(self, state: Any, c: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# recovery: the paper's 256x512 sparse-recovery experiment


class Recovery(Workload):
    """``recover`` with each variant on ``pm_one`` problems, one solve per op.

    With Gaussian amplitudes ``gd`` needs 1e3 to 3e4 iterations depending on
    the seed, so one problem would dominate a run; with +-1 amplitudes
    every solve reaches 1e-6 in a few hundred iterations.
    """

    name = "recovery"
    pool = 32  # problems generated per set-up; a cycle solves one of them
    trace_cycles = 16
    m, n, k = 256, 512, 25

    def setup(self, seed):
        return [
            sr.gen_sparse_problem(derive(seed, i), self.m, self.n, self.k, "pm_one")
            for i in range(self.pool)
        ]

    def cycle(self, state, c):
        problem = state[c % len(state)]
        return [
            Op(f"recover/{v}", lambda v=v: sr.recover(problem, v), _check_recovery)
            for v in sr.RECOVERY_VARIANTS
        ]


def _check_recovery(res):
    k6 = res.iterations_to(1e-6)
    trace = res.dual_trace
    ok = trace.status == "tol_reached" and k6 is not None
    return ok, (res.iters, trace.reset_event, trace.status, k6)


# ---------------------------------------------------------------------------
# certify: theorem certification on small problems


class Certify(Workload):
    """Bound checks after solver runs on 20x50 quads, plus the estimators.

    The matrices are tiny, so per-iteration Python overhead in the solvers
    and the vectorized certify layer set the cost.
    """

    name = "certify"
    quads = 4  # 20x50 quads per set-up; a cycle certifies one of them
    trace_cycles = 4
    rsi_samples = 100_000
    rlg_samples = 10_000
    grid_steps = 2000

    def setup(self, seed):
        quads, grad0 = [], []
        for i in range(self.quads):
            stream = nk.GaussianStream(derive(seed, i))
            a = stream.normal((20, 50))
            b = a @ stream.normal(50)
            quads.append(orc.make_quadratic_composite(a, b))
            grad0.append(float(np.linalg.norm(a.T @ b)))  # gradient norm at x = 0
        square = orc.make_quadratic_composite(
            nk.GaussianStream(derive(seed, 100)).normal((12, 12)),
            nk.GaussianStream(derive(seed, 101)).normal(12),
        )
        u = nk.GaussianStream(derive(seed, 200)).uniform(2)
        big_r = 0.5 + 4.0 * float(u[0])
        return {
            "quads": quads,
            "grad0": grad0,
            "square": square,
            "f1": orc.make_example_1d("f1"),
            "f2": orc.make_example_1d("f2"),
            "f3": orc.make_example_1d("f3", beta=1.0),
            "grid": (big_r, (0.05 + 0.9 * float(u[1])) * 2.0 * big_r),
            "rlg_seed": derive(seed, 300),
        }

    def cycle(self, state, c):
        i = c % len(state["quads"])
        q = state["quads"][i]
        # the adaptive runs stop 6 decades below the start gradient: closer to
        # the roundoff floor, lemma3_growth reports roundoff as a violation
        tol = 1e-6 * state["grad0"][i]
        nu, big_r, lip = q.constants.nu, q.constants.R, q.constants.L
        zeros, ones = np.zeros(q.dim), np.ones(q.dim)
        k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
        cfg = sol.SolverConfig
        runs = [
            ("gd_thm2", zeros, cfg(1.0 / (2.0 * big_r), 4000), "thm2_linear", False),
            ("gd_thm3", zeros, cfg(1.0 / lip, 2500), "thm3_linear", False),
            ("gd_thm1", 100.0 * ones, cfg(1.0 / big_r, 10_000), "thm1_sublinear", False),
            ("nesterov_thm4", zeros, cfg(1.0 / big_r, 5000, variant="nesterov"), "thm4_accel",
             False),
            ("restart_fixed_thm6", zeros,
             cfg(1.0 / big_r, 20 * k_len + 1, variant="restart_fixed", restart_every=k_len),
             "thm6_restart", False),
            ("adaptive_restart_lemma3", zeros,
             cfg(1.0 / big_r, 2000, tol, "adaptive", policy="restart"), "lemma3_growth", False),
            ("adaptive_skip_lemma3", zeros,
             cfg(1.0 / big_r, 2000, tol, "adaptive", policy="skip"), "lemma3_growth", False),
            ("gd_lemma2", ones, cfg(1.0 / (2.0 * big_r), 300), "lemma2_combined", True),
        ]
        ops = [
            Op(name, lambda a=(x0, c_, thm, keep): _solve_and_check(q, *a), _check_report)
            for name, x0, c_, thm, keep in runs
        ]

        sq = state["square"]
        sq_cfg = cfg(1.0 / (2.0 * sq.constants.R), 250)
        ops.append(Op("converse_secant", lambda: _converse(sq, sq_cfg), _check_converse))
        ops.append(Op(
            "thm2_converse",
            lambda: _solve_and_check(sq, np.ones(sq.dim), sq_cfg, "thm2_converse", True),
            _check_report,
        ))
        for fid, box, want, slack in (
            ("f1", (0.0, 10.0), NU_F1, 0.01 * NU_F1),
            ("f2", (0.0, 10.0), NU_F2, 0.01 * NU_F2),
            ("f3", (-5.0, 5.0), 1.0, 1e-9),
        ):
            ops.append(Op(
                f"estimate_rsi/{fid}",
                lambda o=state[fid], b=box: cert.estimate_rsi(o, b, self.rsi_samples),
                lambda est, w=want, t=slack: (abs(est.value - w) <= t, est.value),
            ))
        ops.append(Op(
            "estimate_rlg/f3",
            lambda: cert.estimate_rlg(state["f3"], (-5.0, 5.0), self.rlg_samples,
                                      seed=state["rlg_seed"]),
            lambda est: (abs(est.value - 1.0) <= 1e-9, est.value),
        ))
        big_r_g, nu_g = state["grid"]
        ops.append(Op(
            "appendix_grid",
            lambda: cert.appendix_grid(big_r_g, nu_g, self.grid_steps),
            lambda opt: (
                abs(opt.min_value - (1.0 - nu_g / (2.0 * big_r_g))) <= 1e-6,
                (opt.theta_star, opt.h_star, opt.min_value),
            ),
        ))
        return ops


def _solve_and_check(oracle, x0, cfg, theorem, keep):
    trace = sol.run_solver(oracle, x0, cfg, keep_iterates=keep)
    return trace, cert.check_bounds(trace, oracle, theorem, cfg)


def _check_report(result):
    trace, rep = result
    ok = rep.passed and trace.status != "diverged"
    return ok, (len(trace), trace.reset_event, trace.status,
                rep.passed, rep.max_violation, rep.first_fail_k)


def _converse(oracle, cfg):
    trace = sol.run_solver(oracle, np.ones(oracle.dim), cfg, keep_iterates=True)
    return trace, cert.converse_secant(trace, oracle, cfg.stepsize_h)


def _check_converse(result):
    trace, est = result
    return est.value > 0, (len(trace), trace.reset_event, est.value)


# ---------------------------------------------------------------------------
# cli: the README's command lines, each run as a subprocess


class Cli(Workload):
    """The README's CLI section, one ``gradcert`` invocation per op.

    Only this workload builds a paper-scale quad (``verify`` at 256x512),
    and it pays interpreter start-up, argument parsing and artifact
    writing on every op.
    """

    name = "cli"

    def __init__(self, root: Path, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.env = dict(os.environ)
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def setup(self, seed):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return seed

    def timed_setup(self, seed):
        """Wall time of a fresh interpreter that only imports the CLI module."""
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import gradcert.cli"], env=self.env, cwd=self.root,
            capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing gradcert.cli failed: {proc.stderr.decode()[-400:]}")
        return dt, self.setup(seed)

    def cycle(self, seed, c):
        s = derive(seed, c)
        d = self.out_dir
        invocations = [
            ("verify", ["verify", "--oracle", f"quad:m=256,n=512,seed={s}", "--variant", "gd",
                        "--h", "auto", "--max-iters", "2000", "--theorem", "thm2_linear"],
             _verdict_verify),
            ("solve", ["solve", "--oracle", f"quad:m=20,n=50,seed={s}", "--variant", "gd",
                       "--h", "auto", "--max-iters", "2000", "--svg"], _verdict_solve),
            ("rates", ["rates", "--input", str(d / "solve" / "trace.csv"),
                       "--model", "linear_geometric", "--window", "50", "1500"], _verdict_rates),
            ("recover", ["recover", "--m", "256", "--n", "512", "--k", "25", "--signal", "pm_one",
                         "--seed", str(s), "--variant", "skip", "--svg"], _verdict_recover),
            ("certify", ["certify", "--oracle", "f1", "--which", "rsi", "--box", "0", "10",
                         "--samples", "100000", "--seed", str(s)], _verdict_certify),
            ("appendix", ["appendix", "--R", "1", "--nu", "0.5"], _verdict_appendix),
        ]
        ops = []
        for name, argv, verdict in invocations:
            out = d / name
            argv = [*argv, "--out", str(out)]
            ops.append(Op(
                name,
                lambda a=argv: self._subprocess(a),
                lambda res, v=verdict, o=out: _check_cli(res, v, o),
                inproc=lambda a=argv: _in_process(a),
                out=out,
            ))
        return ops

    def _subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gradcert.cli", *argv], env=self.env, cwd=self.root,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout


def _in_process(argv):
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def dir_bytes(path: Path) -> int:
    """Total size of the regular files directly in ``path``."""
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _check_cli(result, verdict, out):
    rc, stdout = result
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    ok = rc == 0 and verdict(last)
    return ok, (rc, last, dir_bytes(out))


def _json_or_none(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def _verdict_verify(line):
    rep = _json_or_none(line)
    return rep is not None and rep["pass"] is True


def _verdict_solve(line):
    return line.startswith("status=max_iters records=2001 ")


def _verdict_rates(line):
    fit = _json_or_none(line)
    return fit is not None and 0.0 < fit["fitted_factor"] < 1.0


def _verdict_recover(line):
    s = _json_or_none(line)
    return s is not None and s["status"] == "tol_reached" and s["final_rel_error"] < 1e-6


def _verdict_certify(line):
    est = _json_or_none(line)
    return est is not None and abs(est["value"] - NU_F1) <= 0.01 * NU_F1


def _verdict_appendix(line):
    opt = _json_or_none(line)
    return opt is not None and abs(opt["min_value"] - opt["closed_form"]) <= 1e-6
