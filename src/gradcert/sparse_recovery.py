"""Sparse recovery through the dual of the augmented-l1 model.

Problems plant a k-sparse signal, measure it with a seeded Gaussian matrix,
and recover it by running any of the package's solvers on the negated dual
objective; the primal iterate falls out of each dual point y as
``alpha * shrink_1(A^T y)`` (linearized Bregman iteration).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import GaussianStream, as_vector
from .oracles import Objective, _augl1_point, make_augl1_dual
from .solvers import SolverConfig, SolverTrace, run_solver

__all__ = [
    "SparseProblem",
    "RecoveryResult",
    "gen_sparse_problem",
    "lbreg_step",
    "recover",
    "RECOVERY_VARIANTS",
]

RECOVERY_VARIANTS = ("gd", "nesterov", "restart", "skip")


@dataclass(frozen=True)
class SparseProblem:
    """Underdetermined sensing problem with a planted sparse signal.

    Consistency ``b = A x_true`` holds by construction. ``alpha`` is the
    augmentation weight of the recovery model (default 10 ||x_true||_inf).
    ``dual`` is the problem's augmented-l1 dual oracle, built on first use
    and then kept, so ``||A||^2`` is computed once per problem however many
    recoveries run on it. `gen_sparse_problem` stores ``A`` column-major, so
    that the columns the dual multiplies on the support of the primal point
    are contiguous, and makes ``A``, ``b`` and ``x_true`` read-only so that
    the kept oracle cannot go stale; a problem built by hand must not change
    its arrays after ``dual`` is first read.
    """

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    alpha: float
    seed: int

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @cached_property
    def dual(self) -> Objective:
        return make_augl1_dual(self.A, self.b, self.alpha)


@dataclass(frozen=True)
class RecoveryResult:
    """Per-iteration recovery curves and the final primal point.

    ``rel_error_curve`` is ``||x^(k) - x_true|| / ||x_true||`` (None when the
    planted signal is zero); ``primal_residual_curve`` is ``||A x^(k) - b||``.
    Both have one entry per dual iterate, so their length equals ``iters``.
    """

    x_final: np.ndarray
    rel_error_curve: np.ndarray | None
    primal_residual_curve: np.ndarray
    iters: int
    variant: str
    dual_trace: SolverTrace

    def iterations_to(self, rel_tol: float) -> int | None:
        """First iteration index with relative error below rel_tol."""
        if self.rel_error_curve is None:
            return None
        hits = np.nonzero(self.rel_error_curve < rel_tol)[0]
        return int(hits[0]) if hits.size else None

    def to_csv(self, dest) -> None:
        """Write columns k,rel_error,primal_residual,reset_event."""
        close = False
        if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
            fh = open(dest, "w", encoding="ascii")
            close = True
        else:
            fh = dest
        try:
            fh.write("k,rel_error,primal_residual,reset_event\n")
            for i in range(self.iters):
                rel = "" if self.rel_error_curve is None else repr(float(self.rel_error_curve[i]))
                fh.write(
                    f"{i},{rel},{float(self.primal_residual_curve[i])!r},"
                    f"{self.dual_trace.reset_event[i]}\n"
                )
        finally:
            if close:
                fh.close()


def gen_sparse_problem(
    seed: int,
    m: int,
    n: int,
    k: int,
    signal: str = "gaussian",
    alpha: float | None = None,
) -> SparseProblem:
    """Seeded sensing problem: iid standard-normal A, uniform k-sparse support.

    Nonzero amplitudes are standard normal (``signal="gaussian"``) or
    equiprobable +-1 (``signal="pm_one"``). Identical seeds give bitwise
    identical problems. ``alpha`` defaults to ``10 ||x_true||_inf`` (1.0 for
    the degenerate all-zero signal). ``b`` is computed from the row-major
    draw of A, which is then stored column-major (same values). The returned
    arrays are read-only.
    """
    if not m < n:
        raise ValueError(f"need m < n, got m = {m}, n = {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k = {k}")
    if signal not in ("gaussian", "pm_one"):
        raise ValueError(f"unknown signal kind {signal!r}")
    stream = GaussianStream(seed)
    A = stream.normal((m, n))
    support = stream.subset(n, k)
    x_true = np.zeros(n)
    if k:
        if signal == "gaussian":
            x_true[support] = stream.normal(k)
        else:
            x_true[support] = np.where(stream.uniform(k) < 0.5, -1.0, 1.0)
    if alpha is None:
        peak = float(np.max(np.abs(x_true))) if k else 0.0
        alpha = 10.0 * peak if peak > 0 else 1.0
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    b = A @ x_true
    A = np.asfortranarray(A)
    for arr in (A, b, x_true):
        arr.setflags(write=False)
    return SparseProblem(A=A, b=b, x_true=x_true, alpha=float(alpha), seed=int(seed))


def lbreg_step(problem: SparseProblem, y, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One linearized Bregman iteration on the dual variable.

        x_next = alpha * shrink_1(A^T y)
        y_next = y + h (b - A x_next)

    ``A x_next - b`` is computed as the dual oracle computes its gradient,
    so this is bit for bit a gradient step on ``problem.dual``.
    """
    yv = as_vector(y)
    if yv.shape[0] != problem.m:
        raise ValueError(f"dual variable has dim {yv.shape[0]}, expected {problem.m}")
    _, x_next, resid = _augl1_point(problem.A, problem.b, problem.alpha, problem.A.T @ yv)
    return x_next, yv - h * resid


def _degenerate_result(problem: SparseProblem, variant: str) -> RecoveryResult:
    y0 = np.zeros(problem.m)
    trace = SolverTrace(
        f=np.zeros(1),
        grad_norm=np.zeros(1),
        dist_to_sol=None,
        reset_event=("none",),
        status="tol_reached",
        f_star=None,
        iterates=(y0,),
        n_evals=0,
    )
    return RecoveryResult(
        x_final=np.zeros(problem.n),
        rel_error_curve=None,
        primal_residual_curve=np.zeros(1),
        iters=1,
        variant=variant,
        dual_trace=trace,
    )


def recover(
    problem: SparseProblem,
    variant: str,
    h: float | None = None,
    max_iters: int = 200_000,
) -> RecoveryResult:
    """Recover the planted signal by running a solver on the negated dual.

    Starts from y = 0 with the theory stepsize ``h = 1/(alpha ||A||^2)`` by
    default and stops once the primal residual satisfies
    ``||A x - b|| < 1e-14 ||b||`` (the dual gradient norm *is* that residual)
    or the budget runs out. ``variant`` is one of "gd", "nesterov",
    "restart", "skip" (the last two are the adaptive reset policies).
    The solver runs on ``problem.dual``, so repeated recoveries on one
    problem share one oracle, and the primal point of each iterate is the
    one that oracle computed in the evaluation just made. The residual
    curve is the trace's gradient norm, since the dual gradient is
    ``A x - b``.
    """
    if variant not in RECOVERY_VARIANTS:
        raise ValueError(f"unknown recovery variant {variant!r}")
    b_norm = float(np.linalg.norm(problem.b))
    if b_norm == 0.0:
        return _degenerate_result(problem, variant)

    oracle = problem.dual
    if h is None:
        h = 1.0 / oracle.constants.L
    cfg = SolverConfig(
        stepsize_h=h,
        max_iters=max_iters,
        grad_tol=1e-14 * b_norm,
        variant={"gd": "gd", "nesterov": "nesterov", "restart": "adaptive", "skip": "adaptive"}[
            variant
        ],
        policy=variant if variant in ("restart", "skip") else None,
    )

    x_norm = float(np.linalg.norm(problem.x_true))
    rel_curve: list[float] | None = [] if x_norm > 0 else None
    last_primal = np.zeros(problem.n)

    primal_of = oracle.primal

    def observe(_k: int, y: np.ndarray, _f: float, _g: np.ndarray) -> None:
        nonlocal last_primal
        last_primal = primal_of(y)  # the oracle's array: read, never written
        if rel_curve is not None:
            rel_curve.append(float(np.linalg.norm(last_primal - problem.x_true)) / x_norm)

    trace = run_solver(oracle, np.zeros(problem.m), cfg, callback=observe, keep_iterates=False)
    return RecoveryResult(
        x_final=last_primal.copy(),
        rel_error_curve=None if rel_curve is None else np.array(rel_curve),
        primal_residual_curve=trace.grad_norm.copy(),
        iters=len(trace),
        variant=variant,
        dual_trace=trace,
    )
