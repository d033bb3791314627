"""Numerical certification: constant estimation, bound checking, rate fitting.

Estimators recover the secant constant nu and the restricted gradient
Lipschitz constant R from samples; `check_bounds` checks the recorded
columns of a solver trace against one displayed per-iteration inequality;
`fit_rate` extracts empirical geometric/sublinear rates; `appendix_grid`
verifies the (theta, h) stepsize optimization on a grid.

All inequality checks use a multiplicative slack of 1 + 1e-9 so verdicts
are scale-free across problems of different magnitudes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numkit import GaussianStream
from .oracles import Objective
from .solvers import SolverConfig, SolverTrace

__all__ = [
    "ConstantEstimate",
    "BoundReport",
    "RateFit",
    "GridOptimum",
    "estimate_rsi",
    "estimate_rlg",
    "check_bounds",
    "converse_secant",
    "fit_rate",
    "appendix_grid",
    "THEOREM_IDS",
]

SLACK = 1e-9
_TINY = 1e-300

THEOREM_IDS = (
    "thm1_sublinear",
    "thm2_linear",
    "thm2_converse",
    "thm3_linear",
    "thm4_accel",
    "thm6_restart",
    "thm8_augl1",
    "lemma1_part2",
    "lemma2_combined",
    "lemma3_growth",
)


@dataclass(frozen=True)
class ConstantEstimate:
    """A sampled curvature constant with the witness achieving it.

    ``method`` is "projection_ratio" (secant constant from projection
    ratios), "segment_sampling" (gradient ratios on descent segments; a
    lower-bound witness by construction), or "contraction_converse"
    (secant constant implied by an observed contraction).
    """

    value: float
    witness: np.ndarray | tuple[np.ndarray, np.ndarray]
    method: str
    samples_used: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"estimated constant must be finite and positive, got {self.value}")


@dataclass(frozen=True)
class BoundReport:
    """Verdict of one per-iteration bound check.

    ``n_checked`` counts the inequalities tested along the trace and
    ``n_vacuous`` those skipped as vacuous (iterate inside the solution set,
    bound below floating-point resolution), so a pass on nothing checked is
    visible as ``n_checked == 0``.
    """

    theorem_id: str
    passed: bool
    max_violation: float
    first_fail_k: int | None
    n_checked: int
    n_vacuous: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem_id": self.theorem_id,
                "pass": self.passed,
                "max_violation": self.max_violation,
                "first_fail_k": self.first_fail_k,
                "n_checked": self.n_checked,
                "n_vacuous": self.n_vacuous,
            }
        )


@dataclass(frozen=True)
class RateFit:
    """Least-squares rate fit on a gap curve.

    For "linear_geometric" the factor is the per-iteration contraction
    rho = exp(slope of log gap vs k); for the sublinear models it is the
    slope of log gap vs log k. ``window`` is the (k_start, k_end) actually
    used; ``truncated`` marks a window shrunk to its positive-gap prefix.
    """

    model: str
    fitted_factor: float
    r_squared: float
    window: tuple[int, int]
    truncated: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model,
                "fitted_factor": self.fitted_factor,
                "r_squared": self.r_squared,
                "window": list(self.window),
                "truncated": self.truncated,
            }
        )


@dataclass(frozen=True)
class GridOptimum:
    """Result of the (theta, h) contraction-factor grid search."""

    theta_star: float
    h_star: float
    min_value: float
    case_a_value: float
    case_b_value: float


# ---------------------------------------------------------------------------
# sampling helpers


def _box(domain, dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = domain
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64).ravel(), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64).ravel(), (dim,)).copy()
    if not np.all(hi > lo):
        raise ValueError("sampling box must have hi > lo in every coordinate")
    return lo, hi


_ROWS = 2**13  # rows per block in the sampled estimators


def _blocks(n: int):
    """Consecutive ``(start, stop)`` blocks of `_ROWS` rows over n rows, the last taking the
    rest: BLAS may round a product of fewer rows another way."""
    k = max(1, n // _ROWS)
    return ((j * _ROWS, n if j == k - 1 else (j + 1) * _ROWS) for j in range(k))


def _sample_blocks(oracle: Objective, domain, n: int, seed: int):
    """n sample points in the box by row blocks: a uniform grid in 1-D, uniform draws else.
    A 1-D block is its rows of ``np.linspace(lo, hi, n)``, computed as numpy does."""
    lo, hi = _box(domain, oracle.dim)
    step = (hi[0] - lo[0]) / (n - 1)
    stream = GaussianStream(seed)
    for r0, r1 in _blocks(n):
        if oracle.dim == 1:
            k = np.arange(r0, r1, dtype=np.float64)
            pts = (k * step if step else k / (n - 1) * (hi[0] - lo[0])) + lo[0]  # subnormal box
            if r1 == n:
                pts[-1] = hi[0]
            yield pts.reshape(-1, 1)
        else:
            yield lo + stream.uniform((r1 - r0) * oracle.dim).reshape(-1, oracle.dim) * (hi - lo)


def _eval_batch(oracle: Objective, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if oracle.eval_batch is None:
        raise ValueError(f"certification needs eval_batch; oracle {oracle.name!r} has none")
    vals, grads = oracle.eval_batch(pts)
    return np.asarray(vals, dtype=np.float64), np.asarray(grads, dtype=np.float64)


# ---------------------------------------------------------------------------
# constant estimators


def estimate_rsi(oracle: Objective, domain, n_samples: int, seed: int = 0) -> ConstantEstimate:
    """Sampled secant constant: min over x of <grad f(x), x-x_prj>/||x-x_prj||^2.

    Samples with ``||x - x_prj|| <= 1e-8`` (inside or hugging the solution
    set) and samples with non-finite gradients are excluded. The sampled
    minimum can only over-estimate the true infimum. It holds one block of
    samples at a time, whatever ``n_samples``.
    """
    if oracle.project is None:
        raise ValueError("secant estimation needs an oracle with a projection")
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    value, witness, used = np.inf, None, 0
    for pts in _sample_blocks(oracle, domain, n_samples, seed):
        _, grads = _eval_batch(oracle, pts)
        prj = np.asarray(oracle.project(pts), dtype=np.float64)
        if prj.shape != pts.shape:
            raise ValueError(f"projection of a {pts.shape} batch returned shape {prj.shape}")
        diff = pts - prj
        dn = np.linalg.norm(diff, axis=1)
        mask = (dn > 1e-8) & np.all(np.isfinite(grads), axis=1)
        if mask.any():
            ratios = np.einsum("ij,ij->i", grads[mask], diff[mask]) / dn[mask] ** 2
            i = int(np.argmin(ratios))
            # first occurrence, NaN first: np.argmin over all blocks at once
            if ratios[i] < value or np.isnan(ratios[i]):
                value, witness = float(ratios[i]), pts[mask][i].copy()
        used += int(mask.sum())
    if not used:
        raise ValueError("no sample fell outside the solution set; cannot estimate")
    return ConstantEstimate(value, witness, "projection_ratio", used)


def _pair_ratios(xa, xb, ga, gb) -> np.ndarray:
    dn = np.linalg.norm(xa - xb, axis=1)
    gn = np.linalg.norm(ga - gb, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(dn > 1e-12, gn / dn, -np.inf)
    return r


def _start_ratio(z: np.ndarray, gz: np.ndarray) -> tuple[float, tuple | None]:
    """The largest pairwise gradient ratio of a sample cloud, and its pair.

    In 1-D the cloud is `_sample_points`' sorted grid. For a < b < c the a-c
    slope is a weighted mean of the a-b and b-c slopes, so the largest ratio
    over all pairs is an adjacent one, and one pass over the adjacent pairs
    covers the whole grid. Otherwise all pairs of the first 1024 points are
    scanned, one row at a time. The value is ``-inf`` when no pair lies more
    than 1e-12 apart.
    """
    if z.shape[1] == 1:
        ratios = _pair_ratios(z[:-1], z[1:], gz[:-1], gz[1:])
        j = int(np.argmax(ratios))
        return float(ratios[j]), (z[j].copy(), z[j + 1].copy())
    p = min(z.shape[0], 1024)
    best = -np.inf
    witness = None
    for i in range(p - 1):
        ratios = _pair_ratios(
            np.broadcast_to(z[i], (p - i - 1, z.shape[1])),
            z[i + 1 : p],
            np.broadcast_to(gz[i], (p - i - 1, z.shape[1])),
            gz[i + 1 : p],
        )
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best = float(ratios[j])
            witness = (z[i].copy(), z[i + 1 + j].copy())
    return best, witness


def estimate_rlg(oracle: Objective, domain, n_samples: int, seed: int = 0) -> ConstantEstimate:
    """Sampled restricted gradient-Lipschitz constant (a lower-bound witness).

    Starts from the max pairwise gradient ratio on the sample cloud (over
    all pairs of the 1-D grid, found among its adjacent pairs; over all
    pairs of the first 1024 points in higher dimensions), then repeatedly
    sharpens it with gradient ratios between random point pairs on the
    descent segments from z to ``z - (1/R) grad f(z)``, keeping a running
    max until the value stops growing (relative 1e-6) or 50 sweeps. The
    sweeps are random, so more samples can give a slightly smaller estimate.
    It holds the cloud and its gradients plus one block of a sweep's pairs.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    z = np.concatenate(list(_sample_blocks(oracle, domain, n_samples, seed)))
    _, gz = _eval_batch(oracle, z)
    if not np.all(np.isfinite(gz)):
        bad = z[~np.all(np.isfinite(gz), axis=1)][0]
        raise ArithmeticError(f"gradient blow-up at sample z = {bad}")

    best, witness = _start_ratio(z, gz)
    if not np.isfinite(best) or best <= 0:
        raise ValueError("no usable gradient ratio in the sample cloud")

    # pair p * n + i lies on sample i's segment; a sweep draws the u of all
    # its xa, then of all its xb, so each block reads its u from two counters
    rows = 32 * n_samples
    draws_a, draws_b = GaussianStream(seed).split(0x5E6), GaussianStream(seed).split(0x5E6)
    draws_b.skip(rows)
    value = best
    for _ in range(50):
        seg, top = gz / value, -np.inf
        for r0, r1 in _blocks(rows):
            # endpoints z - (u / R) grad f(z) for two fresh u in [0, 1] per pair
            at = np.arange(r0, r1) % n_samples
            xa = z[at] - draws_a.uniform(r1 - r0)[:, None] * seg[at]
            xb = z[at] - draws_b.uniform(r1 - r0)[:, None] * seg[at]
            _, ga = _eval_batch(oracle, xa)
            _, gb = _eval_batch(oracle, xb)
            if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
                bad = xa[~np.all(np.isfinite(ga), axis=1)]
                zbad = bad[0] if bad.size else xb[~np.all(np.isfinite(gb), axis=1)][0]
                raise ArithmeticError(f"gradient blow-up on a segment near {zbad}")
            ratios = _pair_ratios(xa, xb, ga, gb)
            j = int(np.argmax(ratios))
            # first occurrence, NaN first: np.argmax over the whole sweep
            if ratios[j] > top or np.isnan(ratios[j]):
                top, pair = ratios[j], (xa[j].copy(), xb[j].copy())
        draws_a.skip(rows)
        draws_b.skip(rows)
        if not (np.isfinite(top) and top > value):
            break
        value, witness, last = float(top), pair, value
        if value - last <= 1e-6 * last:
            break
    return ConstantEstimate(value, witness, "segment_sampling", n_samples)


# ---------------------------------------------------------------------------
# bound checking


def _violations(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Scale-free violations of lhs <= rhs (negative or ~0 means satisfied)."""
    return (lhs - rhs) / np.maximum(np.abs(rhs), _TINY)


def _report(theorem_id: str, viol: np.ndarray, ks: np.ndarray, n_stated: int) -> BoundReport:
    """Verdict on the checked violations ``viol`` at iterations ``ks``.

    ``n_stated`` is the number of inequalities the theorem states along the
    trace; those without a violation entry were skipped as vacuous.
    """
    max_v = float(np.max(viol)) if viol.size else 0.0
    first = None if max_v <= SLACK else int(ks[int(np.argmax(viol > SLACK))])
    return BoundReport(theorem_id, first is None, max_v, first, viol.size, n_stated - viol.size)


def _need(trace: SolverTrace, oracle: Objective, *, dist=False, gap=False, secant=False):
    if dist and trace.dist_to_sol is None:
        raise ValueError("check needs dist_to_sol (oracle projection) in the trace")
    if secant and trace.secant is None:
        raise ValueError("check needs secant (oracle projection) in the trace")
    if gap and trace.f_star is None and oracle.f_star is None:
        raise ValueError("check needs a known f_star")


def _gap_of(trace: SolverTrace, oracle: Objective) -> np.ndarray:
    f_star = trace.f_star if trace.f_star is not None else oracle.f_star
    return trace.f - f_star


def _constant(oracle: Objective, *names: str) -> float:
    for name in names:
        v = getattr(oracle.constants, name)
        if v is not None:
            return v
    raise ValueError(f"oracle {oracle.name!r} lacks required constant {names[0]}")


def check_bounds(
    trace: SolverTrace, oracle: Objective, theorem_id: str, cfg: SolverConfig
) -> BoundReport:
    """Check one displayed per-iteration inequality along a trace.

    Supported ids and the inequality each verifies (slack 1 + 1e-9):

    * thm1_sublinear:  gap_k <= 1 / (1/gap_0 + k a(2-a)/(2 R r_0^2)), a = hR
    * thm2_linear:     r_{k+1} <= sqrt(1 - nu/(2R)) r_k   (while r_k >= 1e-12)
    * thm2_converse:   secant inequality with nu = delta/(2h) from the
      observed contraction (see `converse_secant`)
    * thm3_linear:     r_{k+1} <= sqrt(1 - nu/L) r_k
    * thm4_accel:      gap_k <= 4 R r_1^2 / (k+1)^2  for k >= 1
    * thm6_restart:    gap at epoch j <= e^-j gap_0 (epoch length from cfg)
    * thm8_augl1:      dual gap decays geometrically; the unknown dual f* is
      surrogated by the best value seen, and the verdict is a terminal-window
      geometric fit with rho < 1 and r^2 > 0.95
    * lemma1_part2:    ||g_k||^2/(2R) <= <g_k, x_k - x_prj>
    * lemma2_combined: <g_k, x_k-x_prj> >= ||g_k||^2/(4R) + (nu/2) r_k^2
    * lemma3_growth:   gap_k >= (nu/2) r_k^2

    Every check reads the trace's columns and the oracle's constants and
    f_star only, never its ``eval`` or ``project``: ``<g_k, x_k - x_prj>`` is
    the trace's ``secant``, formed by the run at the gradient it computed,
    so a trace read back from its CSV gives the same report.
    Iterates inside the solution set (r_k below 1e-12) and bound values
    below the objective's floating-point resolution are vacuous and skipped;
    the report counts them in ``n_vacuous`` beside the ``n_checked`` tested
    ones. A trace that starts at the optimum passes trivially, with
    ``n_checked == 0``; thm8_augl1 reports its fit window as ``n_checked``.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    r = trace.dist_to_sol
    ks = trace.k

    if theorem_id == "thm1_sublinear":
        _need(trace, oracle, dist=True, gap=True)
        big_r = _constant(oracle, "R", "L")
        alpha = cfg.stepsize_h * big_r
        if not 0 < alpha <= 1 + 1e-12:
            raise ValueError(f"thm1 needs h in (0, 1/R]; got h*R = {alpha}")
        gap = _gap_of(trace, oracle)
        if gap[0] <= 0 or r[0] <= 1e-12:
            # started at the optimum: nothing checkable
            return _report(theorem_id, np.empty(0), ks, ks.size)
        c = alpha * (2.0 - alpha) / (2.0 * big_r * r[0] ** 2)
        bound = 1.0 / (1.0 / gap[0] + ks * c)
        valid = bound >= gap[0] * 1e-15  # below fp resolution the bound is vacuous
        return _report(theorem_id, _violations(gap[valid], bound[valid]), ks[valid], ks.size)

    if theorem_id in ("thm2_linear", "thm3_linear"):
        _need(trace, oracle, dist=True)
        nu = _constant(oracle, "nu")
        if theorem_id == "thm2_linear":
            denom = 2.0 * _constant(oracle, "R", "L")
        else:
            denom = _constant(oracle, "L")
        if nu >= denom:
            raise ValueError(f"invalid constants: nu = {nu} >= {denom}")
        rho = math.sqrt(1.0 - nu / denom)
        valid = r[:-1] >= 1e-12
        viol = _violations(r[1:][valid], rho * r[:-1][valid])
        return _report(theorem_id, viol, ks[1:][valid], valid.size)

    if theorem_id == "thm2_converse":
        viol, ks_used = _converse_data(trace, oracle, cfg.stepsize_h)[3:]
        return _report(theorem_id, viol, ks_used, len(trace) - 1)

    if theorem_id == "thm4_accel":
        _need(trace, oracle, dist=True, gap=True)
        big_r = _constant(oracle, "R", "L")
        if len(trace) < 2:
            raise ValueError("thm4 check needs at least two records")
        gap = _gap_of(trace, oracle)
        r1 = r[1]
        if r1 <= 1e-12:
            return _report(theorem_id, np.empty(0), ks, len(trace) - 1)
        bound = 4.0 * big_r * r1**2 / (ks[1:] + 1.0) ** 2
        return _report(theorem_id, _violations(gap[1:], bound), ks[1:], len(trace) - 1)

    if theorem_id == "thm6_restart":
        _need(trace, oracle, gap=True)
        if cfg.restart_every is None:
            raise ValueError("thm6 check needs cfg.restart_every")
        gap = _gap_of(trace, oracle)
        epochs = np.arange(len(trace) // cfg.restart_every + 1)
        boundary = epochs * cfg.restart_every
        boundary = boundary[boundary < len(trace)]
        epochs = epochs[: boundary.size]
        if gap[0] <= 0:
            return _report(theorem_id, np.empty(0), boundary, boundary.size)
        bound = np.exp(-epochs.astype(float)) * gap[0]
        valid = bound >= gap[0] * 1e-15
        viol = _violations(gap[boundary][valid], bound[valid])
        return _report(theorem_id, viol, boundary[valid], boundary.size)

    if theorem_id == "thm8_augl1":
        fit = _terminal_geometric_fit(trace)
        passed = fit.fitted_factor < 1.0 and fit.r_squared > 0.95
        n_fit = fit.window[1] - fit.window[0] + 1
        return BoundReport(theorem_id, passed, fit.fitted_factor - 1.0, None, n_fit, 0)

    if theorem_id in ("lemma1_part2", "lemma2_combined"):
        _need(trace, oracle, dist=True, secant=True)
        big_r = _constant(oracle, "R", "L")
        gg = trace.grad_norm**2
        if theorem_id == "lemma1_part2":
            lhs = gg / (2.0 * big_r)
        else:
            lhs = gg / (4.0 * big_r) + 0.5 * _constant(oracle, "nu") * r**2
        valid = r >= 1e-12
        viol = _violations(lhs[valid], trace.secant[valid])
        return _report(theorem_id, viol, ks[valid], ks.size)

    # lemma3_growth
    _need(trace, oracle, dist=True, gap=True)
    nu = _constant(oracle, "nu")
    gap = _gap_of(trace, oracle)
    valid = (r >= 1e-12) & (gap >= gap[0] * 1e-15)  # below fp resolution: vacuous
    viol = _violations(0.5 * nu * r[valid] ** 2, gap[valid])
    return _report(theorem_id, viol, ks[valid], ks.size)


def _terminal_geometric_fit(trace: SolverTrace) -> RateFit:
    """Geometric fit on the terminal half of the positive-gap prefix.

    Uses the best objective value seen as the f_star surrogate when the
    trace carries none (the surrogate's own record necessarily drops out
    of the positive prefix).
    """
    f_star = trace.f_star if trace.f_star is not None else float(np.min(trace.f))
    gap = trace.f - f_star
    positive = np.nonzero(gap <= 0)[0]
    end = int(positive[0]) - 1 if positive.size else len(trace) - 1
    if end < 1:
        raise ValueError("no positive-gap prefix to fit")
    start = end // 2
    return fit_rate(trace, "linear_geometric", (start, end), f_star=f_star)


def _converse_data(trace: SolverTrace, oracle: Objective, h: float):
    _need(trace, oracle, dist=True, secant=True)
    if h <= 0:
        raise ValueError(f"stepsize must be positive, got {h}")
    r = trace.dist_to_sol
    valid = r[:-1] > 1e-8  # degenerate samples excluded from ratio estimation
    if not valid.any():
        raise ValueError("trace has no usable contraction ratios")
    ratios_sq = (r[1:][valid] / r[:-1][valid]) ** 2
    j = int(np.argmax(ratios_sq))
    delta = 1.0 - float(ratios_sq[j])
    if delta <= 0:
        raise ValueError(f"trace is not contracting (max ratio^2 = {ratios_sq[j]:.6f})")
    nu_hat = delta / (2.0 * h)

    # the contraction certifies the secant inequality at iterates with an
    # observed outgoing step, i.e. all but the final record
    viol = _violations(nu_hat * r[:-1][valid] ** 2, trace.secant[:-1][valid])
    return int(np.nonzero(valid)[0][j]), int(valid.sum()), nu_hat, viol, trace.k[:-1][valid]


def converse_secant(trace: SolverTrace, oracle: Objective, h: float) -> ConstantEstimate:
    """Secant constant certified by an observed gradient-descent contraction.

    From the worst squared ratio ``(r_{k+1}/r_k)^2 = 1 - delta`` the
    implied constant is ``nu = delta / (2h)``; the secant inequality with
    this nu is then verified at every iterate that has an observed outgoing
    step (the final record has none, so the contraction certifies nothing
    there). A failure indicates a corrupted trace, since the inequality
    holds by the same algebra that produces the estimate. Requires a unique
    minimizer, so that the projection is constant, and the trace's iterates,
    whose worst-ratio pair is the witness.
    """
    if trace.iterates is None:
        raise ValueError("converse_secant needs stored iterates (run with keep_iterates=True)")
    idx, n_ratios, nu_hat, viol, _ = _converse_data(trace, oracle, h)
    if viol.size and float(np.max(viol)) > SLACK:
        raise ArithmeticError(
            f"secant inequality violated along the trace (max violation "
            f"{float(np.max(viol)):.3e}); trace and oracle are inconsistent"
        )
    return ConstantEstimate(
        value=nu_hat,
        witness=(trace.iterates[idx].copy(), trace.iterates[idx + 1].copy()),
        method="contraction_converse",
        samples_used=n_ratios,
    )


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(
    trace: SolverTrace,
    model: str,
    window: tuple[int, int],
    f_star: float | None = None,
) -> RateFit:
    """Least-squares rate fit of the objective gap over ``window`` (inclusive).

    ``model`` is "linear_geometric" (log gap vs k), or "sublinear_1_over_k" /
    "sublinear_1_over_k2" (log gap vs log k; the window must start at k >= 1).
    Nonpositive gaps shrink the window to its positive prefix; fewer than 10
    surviving points is an error. When no f_star is known anywhere, the best
    value seen in the trace is used as a surrogate.
    """
    if model not in ("linear_geometric", "sublinear_1_over_k", "sublinear_1_over_k2"):
        raise ValueError(f"unknown rate model {model!r}")
    if f_star is None:
        f_star = trace.f_star
    if f_star is None:
        f_star = float(np.min(trace.f))
    k0, k1 = int(window[0]), int(window[1])
    if not (0 <= k0 <= k1 < len(trace)):
        raise ValueError(f"window {window} outside trace of length {len(trace)}")
    if model != "linear_geometric" and k0 < 1:
        raise ValueError("log-log fits need a window starting at k >= 1")
    gap = trace.f[k0 : k1 + 1] - f_star
    truncated = False
    nonpos = np.nonzero(gap <= 0)[0]
    if nonpos.size:
        gap = gap[: nonpos[0]]
        k1 = k0 + int(nonpos[0]) - 1
        truncated = True
    if gap.size < 10:
        raise ValueError(f"only {gap.size} positive gap points in window; need >= 10")
    ks = np.arange(k0, k1 + 1, dtype=np.float64)
    y = np.log(gap)
    x = ks if model == "linear_geometric" else np.log(ks)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= _TINY:
        r_sq = 1.0 if ss_res <= 1e-12 else 0.0
    else:
        r_sq = max(0.0, 1.0 - ss_res / ss_tot)
    factor = math.exp(slope) if model == "linear_geometric" else float(slope)
    return RateFit(model, factor, r_sq, (k0, k1), truncated)


# ---------------------------------------------------------------------------
# appendix grid verification


# rows whose windowed minimum lies this far above the smallest are passed
# over: far above the rounding of terms that stay below 100
_GRID_TIE = 1e-11


def _grid_case(thetas, lo, span, frac, s, c):
    """First-occurrence minimum ``(value, theta, h)`` of one grid case.

    Row r holds the stepsizes ``h = lo[r] + span[r] * frac`` and the values
    ``(s h)^2 - 2 c[r] h + 1``, convex in h with the vertex ``c[r] / s^2``.
    All rows are evaluated together at the 7 columns nearest the vertex and
    at both ends, which hold the row's exact minimizer, so each windowed
    minimum is within rounding of its row's minimum. The rows within
    `_GRID_TIE` of the smallest are then scanned in full, in order, keeping
    the first strictly smaller value: the result of a full scan of all rows.
    """

    def row(r, cols):
        h = lo[r] + span[r] * frac[cols]
        return (s * h) ** 2 - 2.0 * c[r] * h + 1.0, h

    last = frac.shape[0] - 1
    at = ((c / s**2 - lo) / span - frac[0]) / (frac[last] - frac[0]) * last
    at = np.rint(np.clip(at, 0, last)).astype(np.intp)
    row_min = np.full(thetas.shape, np.inf)
    for cols in (0, last, *(np.clip(at + d, 0, last) for d in range(-3, 4))):
        row_min = np.minimum(row_min, row(slice(None), cols)[0])
    best = (math.inf, 0.0, 0.0)
    for r in np.flatnonzero(row_min <= row_min.min() + _GRID_TIE):
        f, h = row(r, slice(None))
        i = int(np.argmin(f))
        if f[i] < best[0]:
            best = (float(f[i]), float(thetas[r]), float(h[i]))
    return best


def appendix_grid(big_r: float, nu: float, grid_steps: int) -> GridOptimum:
    """Grid-minimize the two contraction-factor cases over (theta, h).

    Case A (h in (0, theta/R]):  fa = nu^2 h^2 - 2((1-theta) nu + theta nu^2/(2R)) h + 1
    Case B (h in [theta/R, 4/R]): fb = 4 R^2 h^2 - 2(2 theta R + (1-theta) nu) h + 1

    Both attain the common minimum 1 - nu/(2R) at (theta, h) = (1/2, 1/(2R));
    case B's unbounded h-range is truncated at 4/R, past every minimizer.
    Each case's optimum is its first grid minimum, theta before h; case A
    wins a tie between the cases.
    """
    if big_r <= 0:
        raise ValueError(f"R must be positive, got {big_r}")
    if not 0 < nu < 2 * big_r:
        raise ValueError(f"need 0 < nu < 2R, got nu = {nu}, R = {big_r}")
    if grid_steps < 1000:
        raise ValueError(f"grid_steps must be >= 1000, got {grid_steps}")

    n = int(grid_steps)
    thetas = np.linspace(0.0, 1.0, n + 1)
    th = thetas[1:]  # case A leaves out theta = 0 and h = 0
    frac_a = np.arange(1, n + 1, dtype=np.float64) / n
    best_a = _grid_case(th, np.zeros(n), th / big_r, frac_a, nu,
                        (1.0 - th) * nu + th * nu**2 / (2.0 * big_r))
    lo = thetas / big_r
    best_b = _grid_case(thetas, lo, 4.0 / big_r - lo, np.linspace(0.0, 1.0, n + 1), 2.0 * big_r,
                        2.0 * thetas * big_r + (1.0 - thetas) * nu)
    if best_a[0] <= best_b[0]:
        min_value, theta_star, h_star = best_a
    else:
        min_value, theta_star, h_star = best_b
    return GridOptimum(
        theta_star=theta_star,
        h_star=h_star,
        min_value=min_value,
        case_a_value=best_a[0],
        case_b_value=best_b[0],
    )
