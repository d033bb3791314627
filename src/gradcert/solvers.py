"""Gradient descent, Nesterov acceleration, fixed restarts, and adaptive resets.

One loop, `run_solver`, runs every scheme: a gradient step at an
extrapolated point, followed by extrapolation with a weight beta. Plain
gradient descent is the case beta = 0; restarts and adaptive reactions only
reset theta or zero beta. All schemes minimize, run with a constant stepsize,
and return an immutable `SolverTrace` recording the main iterates x^(0),
x^(1), ... (for the accelerated schemes these are the post-gradient-step
points, not the extrapolated ones). Identical inputs give bitwise-identical
traces.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import as_vector
from .oracles import Objective

__all__ = [
    "theta_step",
    "SolverConfig",
    "SolverTrace",
    "run_solver",
    "load_trace_csv",
]

VARIANTS = ("gd", "nesterov", "restart_fixed", "adaptive")
POLICIES = ("restart", "skip")
_TRACE_COLUMNS = ("k", "f", "fgap", "grad_norm", "dist_to_sol", "secant", "reset_event")
_CSV_ROWS = 512  # records per block of CSV text
_RUN_LINE = re.compile(
    r"# status=(\w+) f_star=(None|-?inf|nan|-?\d+(?:\.\d+)?(?:e[-+]\d+)?) n_evals=(None|\d+)")

_sqrt = math.sqrt  # bound locally: used on the per-iteration hot path

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
    ``policy`` ("restart" or "skip") selects the adaptive reaction. Each is
    rejected when set for any other variant, since it would be ignored.
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
        if not self.grad_tol >= 0:  # NaN never stops a run
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "restart_fixed":
            if self.restart_every is None or self.restart_every < 1:
                raise ValueError("restart_fixed needs restart_every >= 1")
        elif self.restart_every is not None:
            raise ValueError(f"restart_every applies only to restart_fixed, not {self.variant!r}")
        if self.variant == "adaptive":
            if self.policy not in POLICIES:
                raise ValueError(f"adaptive needs policy in {POLICIES}, got {self.policy!r}")
        elif self.policy is not None:
            raise ValueError(f"policy applies only to adaptive, not {self.variant!r}")


@dataclass(frozen=True)
class SolverTrace:
    """Per-iteration record of a solver run (index k = 0 is the start point).

    ``dist_to_sol`` (the distance ``||x_k - P(x_k)||`` to the minimizer
    set) and ``secant`` (``<g_k, x_k - P(x_k)>`` at the gradient g_k the run
    computed at x_k) are present only when the oracle has a projection;
    ``iterates`` only when the run kept them. ``reset_event`` marks epoch
    boundaries ("restart") and adaptive reactions ("restart"/"skip").
    A run stores 8 bytes per value and per event (a shared string's pointer),
    about 40 bytes per record with a projection, plus the iterates it keeps.
    ``n_evals`` is the number of ``oracle.eval`` calls the run made (gd makes
    none after a fixed point; see `run_solver`); None for hand-built traces.
    `to_csv` writes every field but ``iterates``, with the columns declared
    once in ``_TRACE_COLUMNS`` and a leading ``#`` line that carries
    ``status``, ``f_star`` and ``n_evals`` through `load_trace_csv`.
    """

    f: np.ndarray
    grad_norm: np.ndarray
    dist_to_sol: np.ndarray | None
    reset_event: tuple[str, ...]
    status: str
    f_star: float | None = None
    iterates: tuple[np.ndarray, ...] | None = None
    n_evals: int | None = None
    secant: np.ndarray | None = None

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

    def to_csv(self) -> str:
        """CSV text that `load_trace_csv` reads back, held whole: `csv_blocks` joined."""
        return "".join(self.csv_blocks())

    def csv_blocks(self):
        """The text of `to_csv` in blocks of at most ``_CSV_ROWS`` records: a ``#``
        line (status, f_star as a float's repr or None, n_evals), then ``_TRACE_COLUMNS``."""
        f_star = None if self.f_star is None else float(self.f_star)
        yield f"# status={self.status} f_star={f_star!r} n_evals={self.n_evals}\n"
        gap = None if f_star is None else lambda s: self.f[s] - self.f_star
        yield from _csv_blocks(_TRACE_COLUMNS, self.reset_event,
                               (self.f, gap, self.grad_norm, self.dist_to_sol, self.secant))


def _csv_blocks(header: tuple[str, ...], events, columns):
    """The ``header`` line, then blocks of ``_CSV_ROWS`` records: index k, the
    repr of each column's Python float (blank for a None column), the event.
    A column is an array, None, or a function giving its entries at a slice."""
    yield ",".join(header) + "\n"
    for r0 in range(0, len(events), _CSV_ROWS):
        rows = slice(r0, r0 + _CSV_ROWS)
        ev = events[rows]
        cells = ([""] * len(ev) if c is None else map(repr, np.asarray(
            c(rows) if callable(c) else c[rows], dtype=float).tolist()) for c in columns)
        yield "\n".join(map(",".join, zip(map(str, range(r0, r0 + len(ev))), *cells, ev))) + "\n"


def load_trace_csv(path) -> SolverTrace:
    """Read a trace CSV in the `SolverTrace.to_csv` format.

    The columns are checked against ``_TRACE_COLUMNS``. ``status``, ``f_star``
    and ``n_evals`` come from the ``#`` run line, which must come first: a
    file without it is refused, naming its first line (in a file written
    before that line existed, an older header without ``secant``).
    Raises ValueError naming the file and line of a malformed run line, of a
    row without 7 fields, with a non-numeric field, or with fgap,
    dist_to_sol or secant blank only on some rows.
    Values go line by line into ``array("d")`` buffers, events into shared
    strings, so it holds about 40 bytes per record, as a solver run does.
    """
    f, gn, dist, sec = array("d"), array("d"), array("d"), array("d")
    events: list[str] = []
    names: dict[str, str] = {}
    first_blanks = None
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
        run = _RUN_LINE.fullmatch(line)
        if run is None:
            raise ValueError(f"{path} line 1: unrecognized run line {line!r}")
        header = fh.readline().strip()
        if header != ",".join(_TRACE_COLUMNS):
            raise ValueError(f"unrecognized trace header: {header!r}")
        for lineno, line in enumerate(fh, start=3):
            fields = line.rstrip("\n").split(",")
            if fields == [""]:
                continue
            if len(fields) != len(_TRACE_COLUMNS):
                raise ValueError(f"{path} line {lineno}: "
                                 f"expected {len(_TRACE_COLUMNS)} fields, got {len(fields)}")
            k_s, f_s, gap_s, gn_s, dist_s, sec_s, ev = fields
            try:
                int(k_s)
                row = (float(f_s), float(gn_s), float(gap_s) if gap_s else None,
                       float(dist_s) if dist_s else None, float(sec_s) if sec_s else None)
            except ValueError:
                raise ValueError(
                    f"{path} line {lineno}: non-numeric field in {line.strip()!r}") from None
            blanks = (not gap_s, not dist_s, not sec_s)
            first_blanks = first_blanks or blanks
            if blanks != first_blanks:
                raise ValueError(f"{path} line {lineno}: "
                                 "fgap, dist_to_sol or secant is blank on some rows only")
            f.append(row[0])
            gn.append(row[1])
            if dist_s:
                dist.append(row[3])
            if sec_s:
                sec.append(row[4])
            events.append(names.setdefault(ev, ev))
    if not events:
        raise ValueError(f"no records in {path}")
    status, f_star_s, n_evals_s = run.groups()
    return SolverTrace(
        f=np.frombuffer(f),
        grad_norm=np.frombuffer(gn),
        dist_to_sol=None if first_blanks[1] else np.frombuffer(dist),
        reset_event=tuple(events),
        status=status,
        f_star=None if f_star_s == "None" else float(f_star_s),
        n_evals=None if n_evals_s == "None" else int(n_evals_s),
        secant=None if first_blanks[2] else np.frombuffer(sec),
    )


def _grad_norm(f: float, g: np.ndarray) -> float | None:
    """``||g||`` when ``f`` and ``g`` are finite, else None.

    Computed as ``sqrt(g.dot(g))``, which is how ``np.linalg.norm`` computes
    it, so the bits are the same. A sum of squares is finite only when every
    entry is, so the elementwise test runs only when it is not: a finite
    gradient whose squared norm overflows still counts as finite.
    """
    gg = g.dot(g)
    if math.isfinite(f) and (math.isfinite(gg) or bool(np.all(np.isfinite(g)))):
        return _sqrt(gg)
    return None


class _TraceBuilder:
    def __init__(self, oracle: Objective, callback: Callback | None, keep_iterates: bool):
        self.project = oracle.project
        self.callback = callback
        self.f, self.grad_norm = array("d"), array("d")
        self.dist, self.secant = array("d"), array("d")
        self.events: list[str] = []
        self.iterates: list[np.ndarray] | None = [] if keep_iterates else None

    def push(self, x: np.ndarray, fv: float, g: np.ndarray, gnorm: float, event: str) -> None:
        k = len(self.events)
        fv = float(fv)
        self.f.append(fv)
        self.grad_norm.append(gnorm)
        if self.project is not None:
            d = x - self.project(x)
            self.dist.append(_sqrt(d.dot(d)))
            self.secant.append(g.dot(d))
        self.events.append(event)
        if self.iterates is not None:
            self.iterates.append(x.copy())
        if self.callback is not None:
            self.callback(k, x, fv, g)

    def repeat(self, x: np.ndarray, g: np.ndarray, count: int) -> None:
        """Append ``count`` repeats of the record just pushed for ``x``, each
        as `push` records it: values, a "none" event, a copy and a callback."""
        k = len(self.events)
        for buf in (self.f, self.grad_norm, self.dist, self.secant):
            buf.extend(buf[-1:] * count)
        self.events.extend(["none"] * count)
        if self.iterates is not None:
            self.iterates.extend(x.copy() for _ in range(count))
        if self.callback is not None:
            for i in range(k, k + count):
                self.callback(i, x, self.f[-1], g)

    def freeze(self, status: str, f_star: float | None, n_evals: int) -> SolverTrace:
        return SolverTrace(
            f=np.frombuffer(self.f),
            grad_norm=np.frombuffer(self.grad_norm),
            dist_to_sol=None if self.project is None else np.frombuffer(self.dist),
            reset_event=tuple(self.events),
            status=status,
            f_star=f_star,
            iterates=None if self.iterates is None else tuple(self.iterates),
            n_evals=n_evals,
            secant=None if self.project is None else np.frombuffer(self.secant),
        )


def run_solver(
    oracle: Objective,
    x0,
    cfg: SolverConfig,
    *,
    callback: Callback | None = None,
    keep_iterates: bool = True,
) -> SolverTrace:
    """Run the scheme ``cfg.variant`` from ``x0`` and record its trace.

    Every variant takes a gradient step at an extrapolated point and then
    extrapolates with weight beta_{k+1}. Starting from y^(0) = x0, theta_0 = 1:

        x^(k+1) = y^(k) - h grad f(y^(k))
        y^(k+1) = x^(k+1) + beta_{k+1} (x^(k+1) - x^(k))

    - "gd": beta = 0 throughout, i.e. x^(k+1) = x^(k) - h grad f(x^(k)).
    - "nesterov": (theta_{k+1}, beta_{k+1}) from `theta_step`.
    - "restart_fixed": nesterov restarted every ``cfg.restart_every``
      iterations from the latest iterate (theta back to 1, extrapolation
      anchor reset); boundary records carry ``reset_event == "restart"``.
    - "adaptive": nesterov with a momentum-against-gradient trigger that
      fires when ``<grad f(y^(k-1)), y^(k) - y^(k-1)> > 0`` (the gradient
      already computed at the previous extrapolated point is reused, so
      triggering costs no extra oracle calls). Reaction per ``cfg.policy``:
      "restart" resets theta to 1 and zeroes the next extrapolation weight;
      "skip" only zeroes the weight, leaving theta untouched.

    Whenever beta is 0, y^(k+1) is x^(k+1) itself and its gradient is reused,
    so gd makes one oracle call per iteration until x^(k+1) has the same
    content (bytes) as x^(k). Every later iterate repeats it, since
    ``oracle.eval`` is a deterministic function of its point's content, so
    gd records them up to ``cfg.max_iters`` without calling the oracle and
    stops with status "max_iters"; only ``n_evals`` differs from a full
    loop's trace. Otherwise y^(k+1) comes from
    ``oracle.extrapolate(x^(k+1), x^(k), beta_{k+1})``, which is the formula
    above and lets an oracle prepare the evaluation of y^(k+1). Once the
    loop ends, whatever the status, ``oracle.release`` (if any) is called.
    """
    x = as_vector(x0).copy()
    if x.shape[0] != oracle.dim:
        raise ValueError(f"x0 has dim {x.shape[0]}, oracle expects {oracle.dim}")
    evaluate, extrapolate = oracle.eval, oracle.extrapolate
    f_x, g_x = evaluate(x)
    gnorm = _grad_norm(f_x, g_x)
    if gnorm is None:
        raise ValueError("objective is not finite at the start point")
    tb = _TraceBuilder(oracle, callback, keep_iterates)
    push = tb.push
    push(x, f_x, g_x, gnorm, "none")
    f_star = oracle.f_star
    gap0 = f_x - f_star if f_star is not None else 0.0
    thresh = f_x + 1e6 * (gap0 if gap0 > 0 else max(1.0, abs(f_x)))

    h, grad_tol, max_iters = cfg.stepsize_h, cfg.grad_tol, cfg.max_iters
    gd = cfg.variant == "gd"
    adaptive = cfg.variant == "adaptive"
    restart_every = cfg.restart_every if cfg.variant == "restart_fixed" else 0
    theta = 1.0
    y, g_y = x, g_x  # g_y is None while y awaits its oracle call
    prev_y = prev_gy = None
    n_evals = 1  # the start point
    k = 0
    status = "max_iters"
    while True:
        if gnorm <= grad_tol:
            status = "tol_reached"
            break
        if k >= max_iters:
            break
        if restart_every and k > 0 and k % restart_every == 0:
            # epoch boundary: restart the scheme from the current iterate
            theta = 1.0
            y, g_y = x, g_x
            tb.events[-1] = "restart"
        if g_y is None:
            f_y, g_y = evaluate(y)
            n_evals += 1
            if _grad_norm(f_y, g_y) is None:
                status = "diverged"
                break

        x_next = y - h * g_y
        event = "none"
        beta = 0.0
        if not gd:
            # momentum pointing uphill (minimization form of the gradient scheme)
            if adaptive and prev_gy is not None and float(prev_gy.dot(y - prev_y)) > 0.0:
                if cfg.policy == "restart":
                    theta = 1.0
                theta, _ = theta_step(theta)
                event = cfg.policy
            else:
                theta, beta = theta_step(theta)
            prev_y, prev_gy = y, g_y

        f_prev, gnorm_prev = f_x, gnorm
        f_x, g_x = evaluate(x_next)
        n_evals += 1
        gnorm = _grad_norm(f_x, g_x)
        if gnorm is None:
            status = "diverged"
            break
        push(x_next, f_x, g_x, gnorm, event)
        k += 1
        if f_x > thresh:
            status = "diverged"
            break
        if gd and f_x == f_prev and gnorm == gnorm_prev and x_next.tobytes() == x.tobytes():
            # a fixed point: the stopping checks passed these same values
            tb.repeat(x_next, g_x, max_iters - k)
            break
        if beta == 0.0:
            y, g_y = x_next, g_x
        else:
            y, g_y = extrapolate(x_next, x, beta), None
        x = x_next
    if oracle.release is not None:
        oracle.release()
    return tb.freeze(status, f_star, n_evals)
