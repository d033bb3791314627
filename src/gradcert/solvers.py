"""Gradient descent, Nesterov acceleration, fixed restarts, and adaptive resets.

All solvers minimize, run with a constant stepsize, and return an immutable
`SolverTrace` recording the main iterates x^(0), x^(1), ... (for the
accelerated schemes these are the post-gradient-step points, not the
extrapolated ones). Identical inputs give bitwise-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import as_vector
from .oracles import Objective

__all__ = [
    "theta_step",
    "SolverConfig",
    "SolverTrace",
    "gradient_descent",
    "nesterov",
    "nesterov_restart_fixed",
    "nesterov_adaptive",
    "run_solver",
    "load_trace_csv",
]

VARIANTS = ("gd", "nesterov", "restart_fixed", "adaptive")
POLICIES = ("restart", "skip")

_sqrt = math.sqrt  # bound locally: theta_step sits on the per-iteration hot path

# per-iteration observer: (k, x, f, grad) -> None
Callback = Callable[[int, np.ndarray, float, np.ndarray], None]


def theta_step(theta_k: float) -> tuple[float, float]:
    """One update of the acceleration dampening sequence.

    From theta_k in (0, 1] returns (theta_{k+1}, beta_{k+1}) with

        theta_{k+1} = 2 theta_k / (sqrt(theta_k^2 + 4) + theta_k)
        beta_{k+1}  = (1 - theta_k) * theta_{k+1} / theta_k

    The theta update is the cancellation-free form of
    theta_k (sqrt(theta_k^2 + 4) - theta_k) / 2 and satisfies the recursion
    theta_{k+1}^2 = (1 - theta_{k+1}) theta_k^2.
    """
    if not (0.0 < theta_k <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta_k}")
    root = _sqrt(theta_k * theta_k + 4.0)
    theta_next = 2.0 * theta_k / (root + theta_k)
    beta_next = (1.0 - theta_k) * theta_next / theta_k
    return theta_next, beta_next


@dataclass(frozen=True)
class SolverConfig:
    """Stepsize, budget, stopping rule, and scheme selection.

    ``grad_tol`` stops the run once ``||grad f(x^(k))|| <= grad_tol``; the
    default 0 runs to ``max_iters`` so rate studies see full curves.
    ``restart_every`` is the epoch length K for variant "restart_fixed";
    ``policy`` ("restart" or "skip") selects the adaptive reaction.
    """

    stepsize_h: float
    max_iters: int
    grad_tol: float = 0.0
    variant: str = "gd"
    restart_every: int | None = None
    policy: str | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.stepsize_h) and self.stepsize_h > 0):
            raise ValueError(f"stepsize_h must be positive, got {self.stepsize_h}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "restart_fixed":
            if self.restart_every is None or self.restart_every < 1:
                raise ValueError("restart_fixed needs restart_every >= 1")
        if self.variant == "adaptive":
            if self.policy not in POLICIES:
                raise ValueError(f"adaptive needs policy in {POLICIES}, got {self.policy!r}")


@dataclass(frozen=True)
class SolverTrace:
    """Per-iteration record of a solver run (index k = 0 is the start point).

    ``dist_to_sol`` is present only when the oracle has a projection;
    ``iterates`` only when the run kept them. ``reset_event`` marks epoch
    boundaries ("restart") and adaptive reactions ("restart"/"skip").
    """

    f: np.ndarray
    grad_norm: np.ndarray
    dist_to_sol: np.ndarray | None
    reset_event: tuple[str, ...]
    status: str
    f_star: float | None = None
    iterates: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return int(self.f.shape[0])

    @property
    def k(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def gap(self) -> np.ndarray:
        if self.f_star is None:
            raise ValueError("objective gap needs a known f_star")
        return self.f - self.f_star

    def to_csv(self, dest) -> None:
        """Write columns k,f,fgap,grad_norm,dist_to_sol,reset_event."""
        close = False
        if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
            fh = open(dest, "w", encoding="ascii")
            close = True
        else:
            fh = dest
        try:
            fh.write("k,f,fgap,grad_norm,dist_to_sol,reset_event\n")
            for i in range(len(self)):
                gap = "" if self.f_star is None else repr(float(self.f[i] - self.f_star))
                dist = "" if self.dist_to_sol is None else repr(float(self.dist_to_sol[i]))
                fh.write(
                    f"{i},{float(self.f[i])!r},{gap},{float(self.grad_norm[i])!r},"
                    f"{dist},{self.reset_event[i]}\n"
                )
        finally:
            if close:
                fh.close()


def load_trace_csv(path) -> SolverTrace:
    """Read a trace written by `SolverTrace.to_csv` (status is not stored)."""
    f_vals: list[float] = []
    gaps: list[float | None] = []
    gn: list[float] = []
    dist: list[float | None] = []
    events: list[str] = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "k,f,fgap,grad_norm,dist_to_sol,reset_event":
            raise ValueError(f"unrecognized trace header: {header!r}")
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            _, f_s, gap_s, gn_s, dist_s, ev = line.split(",")
            f_vals.append(float(f_s))
            gaps.append(float(gap_s) if gap_s else None)
            gn.append(float(gn_s))
            dist.append(float(dist_s) if dist_s else None)
            events.append(ev)
    if not f_vals:
        raise ValueError(f"no records in {path}")
    f_star = None
    if gaps[0] is not None:
        f_star = f_vals[0] - gaps[0]
    dist_arr = None
    if dist[0] is not None:
        dist_arr = np.array([d for d in dist], dtype=np.float64)
    return SolverTrace(
        f=np.array(f_vals),
        grad_norm=np.array(gn),
        dist_to_sol=dist_arr,
        reset_event=tuple(events),
        status="max_iters",
        f_star=f_star,
    )


def _divergence_threshold(f0: float, f_star: float | None) -> float:
    gap = f0 - f_star if f_star is not None else 0.0
    scale = gap if gap > 0 else max(1.0, abs(f0))
    return f0 + 1e6 * scale


def _finite(f: float, g: np.ndarray) -> bool:
    return math.isfinite(f) and bool(np.all(np.isfinite(g)))


class _TraceBuilder:
    def __init__(self, oracle: Objective, callback: Callback | None, keep_iterates: bool):
        self.oracle = oracle
        self.callback = callback
        self.f: list[float] = []
        self.grad_norm: list[float] = []
        self.dist: list[float] | None = [] if oracle.project is not None else None
        self.events: list[str] = []
        self.iterates: list[np.ndarray] | None = [] if keep_iterates else None

    def push(self, x: np.ndarray, fv: float, g: np.ndarray, event: str) -> None:
        k = len(self.f)
        self.f.append(float(fv))
        self.grad_norm.append(float(np.linalg.norm(g)))
        if self.dist is not None:
            self.dist.append(float(np.linalg.norm(x - self.oracle.project(x))))
        self.events.append(event)
        if self.iterates is not None:
            self.iterates.append(x.copy())
        if self.callback is not None:
            self.callback(k, x, float(fv), g)

    def freeze(self, status: str, f_star: float | None) -> SolverTrace:
        return SolverTrace(
            f=np.array(self.f),
            grad_norm=np.array(self.grad_norm),
            dist_to_sol=None if self.dist is None else np.array(self.dist),
            reset_event=tuple(self.events),
            status=status,
            f_star=f_star,
            iterates=None if self.iterates is None else tuple(self.iterates),
        )


def _start(oracle: Objective, x0) -> tuple[np.ndarray, float, np.ndarray]:
    x = as_vector(x0).copy()
    if x.shape[0] != oracle.dim:
        raise ValueError(f"x0 has dim {x.shape[0]}, oracle expects {oracle.dim}")
    f0, g0 = oracle.eval(x)
    if not _finite(f0, g0):
        raise ValueError("objective is not finite at the start point")
    return x, f0, g0


def gradient_descent(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Constant-stepsize descent x^(k+1) = x^(k) - h grad f(x^(k))."""
    if cfg.variant != "gd":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'gd'")
    x, f_x, g_x = _start(oracle, x0)
    tb = _TraceBuilder(oracle, callback, keep_iterates)
    tb.push(x, f_x, g_x, "none")
    thresh = _divergence_threshold(f_x, oracle.f_star)
    status = "max_iters"
    while True:
        k = len(tb.f) - 1
        if tb.grad_norm[-1] <= cfg.grad_tol:
            status = "tol_reached"
            break
        if k >= cfg.max_iters:
            status = "max_iters"
            break
        x = x - cfg.stepsize_h * g_x
        f_x, g_x = oracle.eval(x)
        if not _finite(f_x, g_x):
            status = "diverged"
            break
        tb.push(x, f_x, g_x, "none")
        if f_x > thresh:
            status = "diverged"
            break
    return tb.freeze(status, oracle.f_star)


def _accelerated(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    callback: Callback | None,
    keep_iterates: bool,
) -> SolverTrace:
    x, f_x, g_x = _start(oracle, x0)
    tb = _TraceBuilder(oracle, callback, keep_iterates)
    tb.push(x, f_x, g_x, "none")
    thresh = _divergence_threshold(f_x, oracle.f_star)

    theta = 1.0
    y = x
    y_eval: tuple[float, np.ndarray] | None = (f_x, g_x)
    prev_y: np.ndarray | None = None
    prev_gy: np.ndarray | None = None
    status = "max_iters"

    while True:
        k = len(tb.f) - 1
        if tb.grad_norm[-1] <= cfg.grad_tol:
            status = "tol_reached"
            break
        if k >= cfg.max_iters:
            status = "max_iters"
            break
        if cfg.variant == "restart_fixed" and k > 0 and k % cfg.restart_every == 0:
            # epoch boundary: restart the scheme from the current iterate
            theta = 1.0
            y = x
            y_eval = (f_x, g_x)
            tb.events[-1] = "restart"
        if y_eval is None:
            fy, gy = oracle.eval(y)
            if not _finite(fy, gy):
                status = "diverged"
                break
            y_eval = (fy, gy)
        _, g_y = y_eval

        fired = False
        if cfg.variant == "adaptive" and prev_gy is not None:
            # momentum pointing uphill (minimization form of the gradient scheme)
            fired = float(prev_gy @ (y - prev_y)) > 0.0

        x_next = y - cfg.stepsize_h * g_y
        event = "none"
        if fired:
            if cfg.policy == "restart":
                theta = 1.0
            theta_next, _ = theta_step(theta)
            beta_next = 0.0
            event = cfg.policy
        else:
            theta_next, beta_next = theta_step(theta)

        prev_y = y
        prev_gy = g_y
        y = x_next + beta_next * (x_next - x)
        theta = theta_next

        f_x, g_x = oracle.eval(x_next)
        if not _finite(f_x, g_x):
            status = "diverged"
            break
        tb.push(x_next, f_x, g_x, event)
        x = x_next
        y_eval = (f_x, g_x) if beta_next == 0.0 else None
        if f_x > thresh:
            status = "diverged"
            break
    return tb.freeze(status, oracle.f_star)


def nesterov(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Accelerated gradient method with the dampened extrapolation sequence.

    Starting from y^(0) = x0 and theta_0 = 1, each iteration takes a gradient
    step at the extrapolated point, then extrapolates with weight beta_{k+1}:

        x^(k+1) = y^(k) - h grad f(y^(k))
        y^(k+1) = x^(k+1) + beta_{k+1} (x^(k+1) - x^(k))
    """
    if cfg.variant != "nesterov":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'nesterov'")
    return _accelerated(oracle, x0, cfg, callback, keep_iterates)


def nesterov_restart_fixed(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Accelerated method restarted every ``cfg.restart_every`` iterations.

    At each epoch boundary the scheme restarts from the latest iterate
    (theta back to 1, extrapolation anchor reset); boundary records carry
    ``reset_event == "restart"``.
    """
    if cfg.variant != "restart_fixed":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'restart_fixed'")
    return _accelerated(oracle, x0, cfg, callback, keep_iterates)


def nesterov_adaptive(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Accelerated method with a momentum-against-gradient trigger.

    The trigger fires when ``<grad f(y^(k-1)), y^(k) - y^(k-1)> > 0`` (the
    gradient already computed at the previous extrapolated point is reused,
    so triggering costs no extra oracle calls). Reaction per ``cfg.policy``:
    "restart" resets theta to 1 and zeroes the next extrapolation weight;
    "skip" only zeroes the weight, leaving theta untouched.
    """
    if cfg.variant != "adaptive":
        raise ValueError(f"config variant is {cfg.variant!r}, expected 'adaptive'")
    return _accelerated(oracle, x0, cfg, callback, keep_iterates)


def run_solver(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Dispatch on ``cfg.variant``."""
    fn = {
        "gd": gradient_descent,
        "nesterov": nesterov,
        "restart_fixed": nesterov_restart_fixed,
        "adaptive": nesterov_adaptive,
    }[cfg.variant]
    return fn(oracle, x0, cfg, callback=callback, keep_iterates=keep_iterates)
