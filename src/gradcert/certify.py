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
from collections.abc import Callable
from dataclasses import asdict, dataclass

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
        fields = asdict(self)
        return json.dumps({"theorem_id": fields.pop("theorem_id"), "pass": fields.pop("passed"),
                           **fields})


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
        return json.dumps(asdict(self))


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
    samples at a time, whatever ``n_samples``: the block's points, gradients,
    projections and differences, and one ratio per row. Every row's ratio is
    formed in place; an excluded row's reads +inf, so it never wins the
    block's minimum, which is the first one, NaN first, among the kept rows.
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
        del prj
        keep = np.isfinite(grads).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.einsum("ij,ij->i", grads, diff)
            del grads
            dn = _row_norms(diff)
            del diff
            keep &= dn > 1e-8
            ratios /= np.square(dn, out=dn)
        ratios[~keep] = np.inf
        i = int(np.argmin(ratios))
        # first occurrence within a block, NaN first, and a finite minimum across
        # blocks as np.argmin over all blocks at once would take it. Two cases
        # differ from that: a later block's NaN replaces an earlier NaN, and a
        # run whose kept ratios are all +inf keeps witness = None. Both values
        # are refused by ConstantEstimate, so nothing reads the witness there.
        # A block whose kept ratios are all +inf, or that keeps no row, leaves
        # the minimum as it was
        if ratios[i] < value or np.isnan(ratios[i]):
            value, witness = float(ratios[i]), pts[i].copy()
        used += int(np.count_nonzero(keep))
    if not used:
        raise ValueError("no sample fell outside the solution set; cannot estimate")
    return ConstantEstimate(value, witness, "projection_ratio", used)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d, axis=1)`` with its bits, squaring d in place for its temporary."""
    sq = np.add.reduce(np.multiply(d, d, out=d), axis=1)
    return np.sqrt(sq, out=sq)


def _norm_ratios(gn: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """``gn / dn`` in place in gn, or -inf where ``dn <= 1e-12``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gn /= dn
    gn[~(dn > 1e-12)] = -np.inf
    return gn


def _pair_ratios(xa, xb, ga, gb) -> np.ndarray:
    return _norm_ratios(_row_norms(ga - gb), _row_norms(xa - xb))


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
    It holds the cloud once, filled block by block, and its gradients, plus
    one block of a sweep's pairs: the block's sample rows and segment
    directions, gathered once for both endpoints, become the endpoints'
    differences in place, and each block array is freed once it is used.
    """
    if n_samples < 100:
        raise ValueError(f"need at least 100 samples, got {n_samples}")
    z = np.empty((n_samples, oracle.dim))
    for (r0, r1), pts in zip(_blocks(n_samples), _sample_blocks(oracle, domain, n_samples, seed)):
        z[r0:r1] = pts
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
            # endpoints z - (u / R) grad f(z) for two fresh u in [0, 1] per pair,
            # xb in the gathered directions and xa - xb in the gathered rows
            at = np.arange(r0, r1) % n_samples
            zs, xb = z[at], seg[at]
            del at
            xa = np.multiply(draws_a.uniform(r1 - r0)[:, None], xb)
            np.subtract(zs, xa, out=xa)
            np.multiply(draws_b.uniform(r1 - r0)[:, None], xb, out=xb)
            np.subtract(zs, xb, out=xb)
            dn = _row_norms(np.subtract(xa, xb, out=zs))
            del zs
            _, ga = _eval_batch(oracle, xa)
            _, gb = _eval_batch(oracle, xb)
            if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
                bad = xa[~np.all(np.isfinite(ga), axis=1)]
                zbad = bad[0] if bad.size else xb[~np.all(np.isfinite(gb), axis=1)][0]
                raise ArithmeticError(f"gradient blow-up on a segment near {zbad}")
            gn = _row_norms(ga - gb)
            del ga, gb
            ratios = _norm_ratios(gn, dn)
            j = int(np.argmax(ratios))
            # first occurrence, NaN first: np.argmax over the whole sweep
            if ratios[j] > top or np.isnan(ratios[j]):
                top, pair = ratios[j], (xa[j].copy(), xb[j].copy())
            del xa, xb
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


def _report(theorem_id: str, lhs, rhs, ks: np.ndarray, valid) -> BoundReport:
    """Verdict on ``lhs <= rhs``, one inequality per record of ``ks``, checked where ``valid``.

    The entries outside ``valid`` are vacuous. A violation is scale-free,
    ``(lhs - rhs) / |rhs|``: negative or ~0 means satisfied.
    """
    rhs = rhs[valid]
    viol = (lhs[valid] - rhs) / np.maximum(np.abs(rhs), _TINY)
    max_v = float(np.max(viol)) if viol.size else 0.0
    first = None if max_v <= SLACK else int(ks[valid][int(np.argmax(viol > SLACK))])
    return BoundReport(theorem_id, first is None, max_v, first, viol.size, ks.size - viol.size)


def _need(trace: SolverTrace, oracle: Objective, columns) -> None:
    """Raise unless the trace carries each named column; "gap" needs a known f_star."""
    for name in columns:
        if name == "gap" and trace.f_star is None and oracle.f_star is None:
            raise ValueError("check needs a known f_star")
        if name != "gap" and getattr(trace, name) is None:
            raise ValueError(f"check needs {name} (oracle projection) in the trace")


def _constant(oracle: Objective, *names: str) -> float:
    for name in names:
        v = getattr(oracle.constants, name)
        if v is not None:
            return v
    raise ValueError(f"oracle {oracle.name!r} lacks required constant {names[0]}")


@dataclass(frozen=True)
class _Check:
    """One row of `_CHECKS`.

    ``sides(trace, gap, cfg, *constants)`` returns ``(lhs, rhs, ks, valid)``:
    the sides of ``lhs <= rhs``, one entry per inequality the theorem states
    along the trace (so n_stated is ``ks.size``); the record of each; and the
    entries that are not vacuous, as a mask, or as a slice where the rule
    keeps all or none. A fitted row returns its verdict instead. ``columns``
    are the trace columns it reads ("gap" needs f_star); ``constants`` are
    passed to ``sides``, each the first one set of its chain; a hypothesis
    ``(trace, oracle, cfg, *constants)`` returns its name if the run fails it.
    """

    sides: Callable
    columns: tuple[str, ...] = ()
    constants: tuple[tuple[str, ...], ...] = ()
    hypotheses: tuple[Callable, ...] = ()


def _thm1(trace, gap, cfg, big_r):
    r, ks = trace.dist_to_sol, trace.k
    if gap[0] <= 0 or r[0] <= 1e-12:  # started at the optimum: nothing checkable
        return gap, gap, ks, slice(0)
    alpha = cfg.stepsize_h * big_r
    bound = 1.0 / (1.0 / gap[0] + ks * (alpha * (2.0 - alpha) / (2.0 * big_r * r[0] ** 2)))
    return gap, bound, ks, bound >= gap[0] * 1e-15  # below fp resolution: vacuous


def _contraction(scale: float, c: tuple[str, ...]) -> _Check:
    """The row r_{k+1} <= sqrt(1 - nu/(scale c)) r_k, on the hypothesis nu < scale c."""

    def sides(trace, gap, cfg, nu, c):
        r, rho = trace.dist_to_sol, math.sqrt(1.0 - nu / (scale * c))
        return r[1:], rho * r[:-1], trace.k[1:], r[:-1] >= 1e-12

    def nu_below(trace, oracle, cfg, nu, c):
        return f"invalid constants: nu = {nu} >= {scale * c}" if nu >= scale * c else None

    return _Check(sides, ("dist_to_sol",), (("nu",), c), (nu_below,))


def _thm4(trace, gap, cfg, big_r):
    r1, ks = trace.dist_to_sol[1], trace.k[1:]
    bound = 4.0 * big_r * r1**2 / (ks + 1.0) ** 2
    return gap[1:], bound, ks, slice(0) if r1 <= 1e-12 else slice(None)


def _thm6(trace, gap, cfg):
    epochs = np.arange(len(trace) // cfg.restart_every + 1)
    boundary = epochs * cfg.restart_every
    boundary = boundary[boundary < len(trace)]
    bound = np.exp(-epochs[: boundary.size].astype(float)) * gap[0]
    return gap[boundary], bound, boundary, (gap[0] > 0) & (bound >= gap[0] * 1e-15)


def _thm8(trace, gap, cfg):
    """A geometric fit on the terminal half of the positive-gap prefix, with the best value
    seen as the f_star surrogate when the trace carries none (its record then drops out)."""
    f_star = trace.f_star if trace.f_star is not None else float(np.min(trace.f))
    nonpos = np.nonzero(trace.f - f_star <= 0)[0]
    end = int(nonpos[0]) - 1 if nonpos.size else len(trace) - 1
    if end < 1:
        raise ValueError("no positive-gap prefix to fit")
    fit = fit_rate(trace, "linear_geometric", (end // 2, end), f_star=f_star)
    passed = fit.fitted_factor < 1.0 and fit.r_squared > 0.95
    n_fit = fit.window[1] - fit.window[0] + 1
    return BoundReport("thm8_augl1", passed, fit.fitted_factor - 1.0, None, n_fit, 0)


def _lemma1(trace, gap, cfg, big_r):
    return trace.grad_norm**2 / (2.0 * big_r), trace.secant, trace.k, trace.dist_to_sol >= 1e-12


def _lemma2(trace, gap, cfg, big_r, nu):
    r = trace.dist_to_sol
    lhs = trace.grad_norm**2 / (4.0 * big_r) + 0.5 * nu * r**2
    return lhs, trace.secant, trace.k, r >= 1e-12


def _lemma3(trace, gap, cfg, nu):
    r = trace.dist_to_sol
    return 0.5 * nu * r**2, gap, trace.k, (r >= 1e-12) & (gap >= gap[0] * 1e-15)


_R, _DG, _DS = ("R", "L"), ("dist_to_sol", "gap"), ("dist_to_sol", "secant")
_CHECKS = {
    "thm1_sublinear": _Check(_thm1, _DG, (_R,), (
        lambda trace, oracle, cfg, big_r: None if 0 < cfg.stepsize_h * big_r <= 1 + 1e-12
        else f"thm1 needs h in (0, 1/R]; got h*R = {cfg.stepsize_h * big_r}",)),
    "thm2_linear": _contraction(2.0, _R),
    "thm2_converse": _Check(lambda trace, gap, cfg: _converse_data(trace, cfg.stepsize_h)[3], _DS),
    "thm3_linear": _contraction(1.0, ("L",)),
    "thm4_accel": _Check(_thm4, _DG, (_R,), (
        lambda trace, *_: None if len(trace) >= 2 else "thm4 check needs at least two records",)),
    "thm6_restart": _Check(_thm6, ("gap",), (), (
        lambda trace, oracle, cfg: None if cfg.restart_every is not None
        else "thm6 check needs cfg.restart_every",)),
    "thm8_augl1": _Check(_thm8, hypotheses=(
        lambda trace, oracle, cfg: None if oracle.primal is not None
        else f"thm8 needs the augmented-l1 dual (an oracle with primal), not {oracle.name!r}",)),
    "lemma1_part2": _Check(_lemma1, _DS, (_R,)),
    "lemma2_combined": _Check(_lemma2, _DS, (_R, ("nu",))),
    "lemma3_growth": _Check(_lemma3, _DG, (("nu",),)),
}
THEOREM_IDS = tuple(_CHECKS)


def check_bounds(
    trace: SolverTrace, oracle: Objective, theorem_id: str, cfg: SolverConfig
) -> BoundReport:
    """Check one displayed per-iteration inequality along a trace.

    Each id is a row of `_CHECKS`, checked with slack 1 + 1e-9. A row lists
    its inequality; the columns it reads; its constants, "R|L" meaning R,
    else L; its hypotheses on the run; what it states one inequality for
    (n_stated counts them); and its vacuity rule. r_k is ``dist_to_sol``,
    s_k = <g_k, x_k - x_prj> is ``secant`` and gap_k = f_k - f*:

    * thm1_sublinear:  gap_k <= 1 / (1/gap_0 + k a(2-a)/(2 R r_0^2)), a = hR;
      r, gap; R|L; hR in (0, 1]; each record; bound < 1e-15 gap_0, or every
      record if gap_0 <= 0 or r_0 <= 1e-12.
    * thm2_linear:     r_{k+1} <= sqrt(1 - nu/(2R)) r_k; r; nu, R|L; nu < 2R;
      each step; r_k < 1e-12.
    * thm2_converse:   nu r_k^2 <= s_k, nu = delta/(2h) from the observed
      contraction (see `converse_secant`); r, s; none; h > 0 and a
      contraction; each step; r_k <= 1e-8.
    * thm3_linear:     r_{k+1} <= sqrt(1 - nu/L) r_k; r; nu, L; nu < L; each
      step; r_k < 1e-12.
    * thm4_accel:      gap_k <= 4 R r_1^2 / (k+1)^2; r, gap; R|L; two records;
      each record from k = 1; every record if r_1 <= 1e-12.
    * thm6_restart:    gap at epoch j <= e^-j gap_0; gap; none;
      cfg.restart_every, the epoch length; each epoch start; bound < 1e-15
      gap_0, or every epoch if gap_0 <= 0.
    * thm8_augl1:      the dual gap decays geometrically: `_thm8`'s terminal-
      window fit, with the unknown dual f* surrogated by the best value seen,
      has rho < 1 and r^2 > 0.95; f; none; an oracle with ``primal``, i.e.
      the augmented-l1 dual; the fit window, all checked; none.
    * lemma1_part2:    ||g_k||^2/(2R) <= s_k; r, s; R|L; none; each record;
      r_k < 1e-12.
    * lemma2_combined: ||g_k||^2/(4R) + (nu/2) r_k^2 <= s_k; r, s; R|L, nu;
      none; each record; r_k < 1e-12.
    * lemma3_growth:   (nu/2) r_k^2 <= gap_k; r, gap; nu; none; each record;
      r_k < 1e-12 or gap_k < 1e-15 gap_0.

    Every row takes the same steps: an unknown id, a missing column or
    constant, and a run outside a hypothesis are refused in that order, each
    with a ``ValueError`` that names the cause; then the entries that are not
    vacuous are reported on and the rest counted in ``n_vacuous``, so a trace
    that starts at the optimum passes with ``n_checked == 0``. No check calls an
    oracle method: s_k is formed by the run at the gradient it computed, so
    a trace read back from its CSV gives the same report.
    """
    if theorem_id not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    row = _CHECKS[theorem_id]
    _need(trace, oracle, row.columns)
    consts = [_constant(oracle, *names) for names in row.constants]
    for hypothesis in row.hypotheses:
        unmet = hypothesis(trace, oracle, cfg, *consts)
        if unmet:
            raise ValueError(unmet)
    f_star = trace.f_star if trace.f_star is not None else oracle.f_star
    gap = trace.f - f_star if "gap" in row.columns else None
    out = row.sides(trace, gap, cfg, *consts)
    return out if isinstance(out, BoundReport) else _report(theorem_id, *out)


def _converse_data(trace: SolverTrace, h: float):
    """``(j, n, nu_hat, sides)``: the worst contraction's record j, the n records with
    r_k > 1e-8 and the secant inequality's `_report` arguments, one per step."""
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
    sides = nu_hat * r[:-1] ** 2, trace.secant[:-1], trace.k[:-1], valid
    return int(np.nonzero(valid)[0][j]), int(valid.sum()), nu_hat, sides


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
    _need(trace, oracle, ("dist_to_sol", "secant"))
    idx, n_ratios, nu_hat, sides = _converse_data(trace, h)
    worst = _report("thm2_converse", *sides).max_violation
    if worst > SLACK:
        raise ArithmeticError(
            f"secant inequality violated along the trace (max violation "
            f"{worst:.3e}); trace and oracle are inconsistent"
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
    x = np.arange(k0, k1 + 1, dtype=np.float64)
    if model != "linear_geometric":
        np.log(x, out=x)
    y = np.log(gap)
    # least squares over centred sums, a few arrays of the window
    x -= x.mean()
    y -= y.mean()
    slope = float(np.sum(x * y) / np.sum(x * x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y * y))
    if ss_tot <= _TINY:
        r_sq = 1.0 if ss_res <= 1e-12 else 0.0
    else:
        r_sq = max(0.0, 1.0 - ss_res / ss_tot)
    factor = math.exp(slope) if model == "linear_geometric" else slope
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
