"""Sparse recovery through the dual of the augmented-l1 model.

Problems plant a k-sparse signal, measure it with a seeded Gaussian matrix,
and recover it by running any of the package's solvers on the negated dual
objective; the primal iterate falls out of each dual point y as
``alpha * shrink_1(A^T y)`` (linearized Bregman iteration).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import GaussianStream
from .oracles import Objective, make_augl1_dual
from .solvers import SolverConfig, SolverTrace, _csv_blocks, run_solver

__all__ = [
    "SparseProblem",
    "RecoveryResult",
    "gen_sparse_problem",
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
    recoveries run on it; it holds no per-run state, since each run releases
    its caches as it ends. `gen_sparse_problem` stores ``A`` column-major, so
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
    planted signal is zero, whatever b is); ``primal_residual_curve`` is
    ``||A x^(k) - b||``. Both have one entry per dual iterate, so their length
    equals ``iters``.
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

    def to_csv(self) -> str:
        """CSV text with columns k,rel_error,primal_residual,reset_event."""
        return "".join(self.csv_blocks())

    def csv_blocks(self):
        """The text of `to_csv` in str blocks of a fixed number of records."""
        return _csv_blocks(("k", "rel_error", "primal_residual", "reset_event"),
                           self.dual_trace.reset_event,
                           (self.rel_error_curve, self.primal_residual_curve))


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
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m = {m}, n = {n}")
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
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    b = A @ x_true
    A = np.asfortranarray(A)
    for arr in (A, b, x_true):
        arr.setflags(write=False)
    return SparseProblem(A=A, b=b, x_true=x_true, alpha=float(alpha), seed=int(seed))


def recover(
    problem: SparseProblem,
    variant: str,
    h: float | None = None,
    max_iters: int = 200_000,
) -> RecoveryResult:
    """Recover the planted signal by running a solver on the negated dual.

    Starts from y = 0 with the theory stepsize ``h = 1/(alpha ||A||^2)`` by
    default and stops once the primal residual satisfies
    ``||A x - b|| <= 1e-14 ||b||`` (the dual gradient norm *is* that residual)
    or the budget runs out; with b = 0 that is at y = 0, after one
    evaluation. ``variant`` is one of "gd", "nesterov", "restart", "skip"
    (the last two are the adaptive reset policies).
    The solver runs on ``problem.dual``, so repeated recoveries on one
    problem share one oracle, and the primal point of each iterate is the
    one that oracle computed in the evaluation just made. The residual
    curve is the trace's gradient norm, since the dual gradient is
    ``A x - b``.
    """
    if variant not in RECOVERY_VARIANTS:
        raise ValueError(f"unknown recovery variant {variant!r}")
    oracle = problem.dual
    if h is None:
        h = 1.0 / oracle.constants.L
    cfg = SolverConfig(
        stepsize_h=h,
        max_iters=max_iters,
        grad_tol=1e-14 * float(np.linalg.norm(problem.b)),
        variant={"gd": "gd", "nesterov": "nesterov", "restart": "adaptive", "skip": "adaptive"}[
            variant
        ],
        policy=variant if variant in ("restart", "skip") else None,
    )

    x_norm = float(np.linalg.norm(problem.x_true))
    rel_curve = array("d") if x_norm > 0 else None
    last_primal = np.zeros(problem.n)

    primal_of, x_true = oracle.primal, problem.x_true

    def observe(_k: int, y: np.ndarray, _f: float, _g: np.ndarray) -> None:
        nonlocal last_primal
        last_primal = primal_of(y)  # the oracle's array: read, never written
        if rel_curve is not None:
            d = last_primal - x_true
            rel_curve.append(math.sqrt(d.dot(d)) / x_norm)  # as np.linalg.norm computes it

    trace = run_solver(oracle, np.zeros(problem.m), cfg, callback=observe, keep_iterates=False)
    return RecoveryResult(
        x_final=last_primal.copy(),
        rel_error_curve=None if rel_curve is None else np.frombuffer(rel_curve),
        primal_residual_curve=trace.grad_norm.copy(),
        iters=len(trace),
        variant=variant,
        dual_trace=trace,
    )
