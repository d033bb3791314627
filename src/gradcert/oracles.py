"""The objective zoo: every function exposed through one oracle interface.

An `Objective` bundles value+gradient evaluation, an optional exact
projection onto the minimizer set, and whatever curvature constants are
known for it:

* ``R``  -- gradient Lipschitz constant restricted to the descent segments
  between ``x`` and ``x - (1/R) grad f(x)``,
* ``L``  -- global gradient Lipschitz constant,
* ``nu`` -- secant constant: ``<grad f(x), x - x_prj> >= nu ||x - x_prj||^2``
  with ``x_prj`` the projection of x onto the minimizer set.

Members: three 1-D piecewise examples (two non-convex secant-inequality
functions and a soft-threshold quadratic), least-squares composites
``0.5 ||Ax - b||^2``, and the negated dual of the augmented-l1 model.
The matrix oracles form single-point products with ``ndarray.dot``, which
gives the bits of ``@`` at a smaller cost per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import (
    as_matrix,
    as_vector,
    cholesky_solve,
    sym_eig_summary,
)

__all__ = [
    "KnownConstants",
    "Objective",
    "shrink",
    "make_example_1d",
    "make_quadratic_composite",
    "make_augl1_dual",
    "compose_constants",
]

_SQRT2 = math.sqrt(2.0)


def shrink(x, beta: float) -> np.ndarray:
    """Elementwise soft-threshold: sign(x) * max(|x| - beta, 0)."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"shrink threshold beta must be finite and positive, got {beta}")
    a = np.asarray(x, dtype=np.float64)
    return np.sign(a) * np.maximum(np.abs(a) - beta, 0.0)


@dataclass(frozen=True)
class KnownConstants:
    """Curvature constants known analytically; missing ones stay None."""

    R: float | None = None
    L: float | None = None
    nu: float | None = None

    def __post_init__(self) -> None:
        for name in ("R", "L", "nu"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(v) and v > 0):
                raise ValueError(f"constant {name} must be finite and positive, got {v}")
        if self.nu is not None and self.L is not None and self.nu > self.L * (1 + 1e-12):
            raise ValueError(f"nu={self.nu} exceeds L={self.L}")


def _extrapolate(x_next: np.ndarray, x: np.ndarray, beta: float) -> np.ndarray:
    return x_next + beta * (x_next - x)


@dataclass(frozen=True)
class Objective:
    """Differentiable objective with optional solution-set projection.

    ``eval(x) -> (f, grad)`` for a single point; ``eval_batch`` (optional)
    takes an ``(s, dim)`` array and returns ``((s,), (s, dim))``; the
    certify estimators need it (the bound checks read solver traces only).
    A row's ``eval_batch`` bits may depend on how many rows its batch has,
    since BLAS picks its kernel by the product's size (and one row takes
    numpy's matrix-vector product), so they may differ in the last bits
    from a batch of other size and from ``eval``; a caller that needs
    stable bits keeps its block sizes fixed, as the certify estimators'
    ``_blocks`` do.
    ``project`` (optional) maps a point, or an ``(s, dim)`` batch, to the
    nearest minimizer. ``primal`` (optional, dual oracles only) maps a dual
    point to its primal point. ``extrapolate(x_next, x, beta)`` returns the
    solvers' extrapolated point ``x_next + beta * (x_next - x)``; an oracle
    may replace it to prepare the evaluation of that point, but the point
    itself must be exactly that expression.

    ``eval`` and ``project`` must be deterministic functions of their
    point's content (its bytes), except at a point that ``extrapolate`` has
    just prepared. Gradient descent never extrapolates, and `run_solver`
    relies on this when a gradient step leaves its point unchanged: it
    records the rest of the run without calling the oracle again. An oracle
    may reuse what its latest ``eval`` computed, keyed by point content, if
    the result keeps the bits of a fresh computation: the quad projects the
    point it has just evaluated from that evaluation's product ``A x``.
    ``release`` (optional) drops such caches; `run_solver` calls it once as a
    run ends, so a kept oracle holds no finished run's state and no bit moves.
    """

    dim: int
    eval: Callable[[np.ndarray], tuple[float, np.ndarray]]
    project: Callable[[np.ndarray], np.ndarray] | None = None
    constants: KnownConstants = KnownConstants()
    f_star: float | None = None
    eval_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    name: str = ""
    primal: Callable[[np.ndarray], np.ndarray] | None = None
    extrapolate: Callable[[np.ndarray, np.ndarray, float], np.ndarray] = _extrapolate
    release: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# 1-D piecewise examples

_F2_C = math.sqrt((_SQRT2 - 1.0) / 2.0)

# One row per secant example: arc 1 ends at j1; arc 2, centred at c with its
# top dropped by drop, ends at j2; then 0.5 * t^2 + offset with t = x - 1 + shift.
# The last entry is the secant constant nu.
_ARC_ROWS = {
    "f1": (1.0, 2.0, 0.0, 2.0 - _SQRT2 / 2.0, _SQRT2 / 2.0, (1.0 + _SQRT2) / 2.0,
           2.0 / (4.0 - _SQRT2)),
    "f2": (_SQRT2 / 2.0, _SQRT2, _SQRT2, 1.0, _F2_C,
           math.sqrt(2.0 * _SQRT2 - 2.0) + (5.0 - 5.0 * _SQRT2) / 4.0, _F2_C),
}


def _arc_kernel(x, j1, c, drop, j2, shift, offset) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros_like(x)
    g = np.zeros_like(x)
    m1 = (x > 0.0) & (x <= j1)
    m2 = (x > j1) & (x <= j2)
    m3 = x > j2
    if m1.any():
        s = np.sqrt(1.0 - x[m1] ** 2)
        v[m1] = 1.0 - s
        with np.errstate(divide="ignore"):
            g[m1] = x[m1] / s  # f1's gradient is +inf at x = 1
    if m2.any():
        d = x[m2] - c
        s = np.sqrt(1.0 - d**2)
        v[m2] = s - drop + 1.0
        g[m2] = -d / s
    if m3.any():
        t = x[m3] - 1.0 + shift
        v[m3] = 0.5 * t**2 + offset
        g[m3] = t
    return v, g


def _make_1d(kernel, project, constants: KnownConstants, name: str) -> Objective:
    def eval_one(x):
        xv = np.asarray(x, dtype=np.float64).reshape(-1)
        v, g = kernel(xv)
        return float(v[0]), g

    def eval_batch(xs):
        xs = np.asarray(xs, dtype=np.float64)
        v, g = kernel(xs[:, 0])
        return v, g.reshape(-1, 1)

    return Objective(
        dim=1,
        eval=eval_one,
        project=project,
        constants=constants,
        f_star=0.0,
        eval_batch=eval_batch,
        name=name,
    )


def make_example_1d(fid: str, beta: float | None = None) -> Objective:
    """One of the three 1-D examples: "f1", "f2", or "f3" (needs finite beta > 0).

    f1 and f2 are non-convex with minimizer set (-inf, 0]; their gradients
    satisfy the secant inequality with nu = 2/(4 - sqrt(2)) and
    sqrt((sqrt(2) - 1)/2) respectively. Each is a unit-circle arc, a second
    arc, then a parabola, evaluated by one kernel with its row of
    `_ARC_ROWS`. f1's gradient is +inf at x = 1, so it carries no Lipschitz
    constant. f3(x) = 0.5 * shrink_beta(x)^2 is convex but not strictly
    convex, with nu = 1 and minimizer set [-beta, beta].
    """
    if fid in _ARC_ROWS:
        *row, nu = _ARC_ROWS[fid]
        return _make_1d(
            lambda x: _arc_kernel(x, *row),
            lambda x: np.minimum(np.asarray(x, dtype=np.float64), 0.0),
            KnownConstants(nu=nu),
            fid,
        )
    if fid == "f3":
        if beta is None or not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"f3 requires a finite beta > 0, got {beta}")
        b = float(beta)

        def kernel(x):
            s = shrink(x, b)
            return 0.5 * s**2, s

        return _make_1d(
            kernel,
            lambda x: np.clip(np.asarray(x, dtype=np.float64), -b, b),
            KnownConstants(R=1.0, L=1.0, nu=1.0),
            f"f3:beta={b}",
        )
    raise ValueError(f"unknown 1-D example id {fid!r} (expected f1, f2, or f3)")


# ---------------------------------------------------------------------------
# Linear composites


def make_quadratic_composite(a, b) -> Objective:
    """Least-squares composite f(x) = 0.5 * ||Ax - b||^2 for full-row-rank A.

    The minimizer set is the affine solution set of ``Ax = b``; projection
    onto it is ``x + A^T (A A^T)^{-1} (b - Ax)``. Constants follow from the
    composition rules: ``L = R = ||A||^2`` and ``nu = lambda_min(A A^T)``.

    ``eval`` keeps the product ``A x`` of its point together with the
    point's content, so ``project`` of that same 1-D point takes ``A x``
    from there instead of a second product; the result has the bits of a
    fresh projection. Any other point, and any batch, is projected afresh.

    ``eval_batch`` forms ``resid @ A`` for the whole batch, so a row's
    gradient bits can depend on the batch's row count: on a 20x50 quad,
    most of the first 1,000 rows of an 8,192-row batch differ in the last
    bits from a 1,000-row batch of the same points (see `Objective`). Only
    the estimators, in fixed blocks, use it; no bound verdict does. The
    oracle holds ``A``, ``b``, the n x m projector and the latest ``(point,
    A point)``; the build frees each m x m temporary once it is used.
    """
    A = as_matrix(a)
    rhs = as_vector(b)
    m, n = A.shape
    if rhs.shape[0] != m:
        raise ValueError(f"matrix is {m}x{n} but b has length {rhs.shape[0]}")
    gram = A @ A.T  # exactly symmetric: numpy forms A A^T with syrk
    summary = sym_eig_summary(gram)
    if summary.lambda_min <= 1e-12 * summary.lambda_max:
        raise ValueError(
            f"A must have full row rank: lambda_min(AA^T) = {summary.lambda_min:.6e}"
        )
    norm_sq = summary.lambda_max  # ||A||^2 = lambda_max(A A^T)
    chol = np.linalg.cholesky(gram)
    del gram
    # fixed projector onto {x : Ax = b}: A^T (A A^T)^{-1}, built once
    inv = cholesky_solve(chol, np.eye(m))
    del chol
    proj = A.T @ inv

    last = None  # (point, A point) of the latest eval at a 1-D point

    def eval_one(x):
        nonlocal last
        x = np.asarray(x, dtype=np.float64)
        ax = A.dot(x)
        r = ax - rhs
        last = (x.tobytes(), ax) if x.ndim == 1 else None
        return 0.5 * float(r.dot(r)), r.dot(A)

    def eval_batch(xs):
        resid = xs @ A.T - rhs
        return 0.5 * np.einsum("ij,ij->i", resid, resid), resid @ A

    def project(x):
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim == 1:
            seen = last
            ax = seen[1] if seen is not None and seen[0] == pts.tobytes() else A.dot(pts)
            return pts + proj.dot(rhs - ax)
        return pts + (rhs - pts @ A.T) @ proj.T

    def release():
        nonlocal last
        last = None

    return Objective(
        dim=n,
        eval=eval_one,
        project=project,
        constants=KnownConstants(R=norm_sq, L=norm_sq, nu=summary.lambda_min),
        f_star=0.0,
        eval_batch=eval_batch,
        name=f"quad[{m}x{n}]",
        release=release,
    )


def _augl1_point(alpha: float, z: np.ndarray):
    """``(S, shrink_1(z)[S], x)`` with ``x = alpha * shrink_1(z)``, for z = A^T y.

    S is the support of ``shrink_1(z)``, where ``|z| - 1 > 0`` or is NaN;
    there the entries are ``+-(|z| - 1)``, the bits `shrink` computes,
    elsewhere +0.0 (`shrink` writes -0.0 there where z is negative). A NaN or
    infinite entry of z thus lands in ``x[S]``, and so in ``A[:, S] @ x[S]``.
    """
    u = np.abs(z) - 1.0
    S = (~(u <= 0.0)).nonzero()[0]
    s = np.copysign(u[S], z[S])
    x = np.zeros(z.shape[0])
    x[S] = alpha * s
    return S, s, x


def make_augl1_dual(a, b, alpha: float) -> Objective:
    """Negated dual of the augmented-l1 model, as a minimization oracle.

    The dual maximizes ``b^T y - (alpha/2) ||shrink_1(A^T y)||^2``; this
    oracle returns its negation so every solver in the package minimizes.
    The gradient is ``A x(y) - b`` with ``x(y) = alpha * shrink_1(A^T y)``,
    i.e. minus the primal residual of the recovered point. Only
    ``L = alpha * lambda_max(A A^T)`` is known (from LAPACK); the solution
    set has no closed form, so there is no projection and no f_star. A must
    be nonzero, so that L is positive; b = 0 is accepted, and then y = 0 is
    a minimizer with gradient exactly 0.

    ``A x(y)`` is a product with the columns of A on the support S of x(y)
    only, which is contiguous when A is column-major (as
    `gen_sparse_problem` stores it). The matrix is used as given; the
    gathered block ``A[:, S]`` is kept and gathered again only when the
    content of S changes, so the oracle holds at most m x |S| more floats.
    The kept block has the values and layout of a fresh gather, so the
    product keeps its bits.

    ``extrapolate(x_next, x, beta)`` returns ``x_next + beta * (x_next - x)``
    and, when ``A^T x_next`` and ``A^T x`` are the images of the two latest
    points whose ``eval`` made the product ``A^T y`` itself, forms the image
    of the returned point by linearity, ``A^T x_next + beta * (A^T x_next -
    A^T x)``. The next ``eval`` uses that image instead of a product if,
    and only if, it is called at exactly that point. So an accelerated step
    makes one dense product, and the image by linearity always combines
    images made by products. Points are matched by their content
    (``tobytes()``), so a point written to after its ``eval`` is a new point.

    ``primal(y)`` returns ``x(y)``. ``eval`` keeps the ``x(y)`` it computed
    together with the content of its point, so ``primal`` of that same
    point costs no matrix product; the returned array is that stored one
    and must not be written to. Any other point is computed afresh, with
    the same bits. ``release`` drops the block, the images and ``x(y)``.
    """
    A = as_matrix(a)
    rhs = as_vector(b)
    m, n = A.shape
    if rhs.shape[0] != m:
        raise ValueError(f"matrix is {m}x{n} but b has length {rhs.shape[0]}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not A.any():
        raise ValueError("A must be nonzero, so that L = alpha ||A||^2 is positive")
    norm_sq = sym_eig_summary(A @ A.T).lambda_max  # ||A||^2

    products: list[tuple[bytes, np.ndarray]] = []  # (point, A^T point) of the two latest products
    pending = None  # (point, image) formed by extrapolate, for the next eval only
    last = None  # (point, x(point)) of the latest eval
    block = None  # (support, A[:, support]) of the latest eval

    def block_of(S):
        nonlocal block
        key = S.tobytes()
        if block is None or block[0] != key:
            block = (key, A[:, S])
        return block[1]

    def image_of(key):
        for seen, z in products:
            if seen == key:
                return z
        return None

    def eval_one(y):
        nonlocal pending, last
        y = np.asarray(y, dtype=np.float64)
        key = y.tobytes()
        if pending is not None and pending[0] == key:
            z = pending[1]
        else:
            z = y.dot(A)
            products.append((key, z))
            if len(products) > 2:
                del products[0]
        pending = None
        S, s, primal = _augl1_point(alpha, z)
        last = (key, primal)
        grad = block_of(S).dot(primal[S]) - rhs
        return 0.5 * alpha * float(s.dot(s)) - float(rhs.dot(y)), grad

    def extrapolate(x_next, x, beta):
        nonlocal pending
        y = x_next + beta * (x_next - x)
        z_next, z = image_of(x_next.tobytes()), image_of(x.tobytes())
        if z_next is None or z is None:
            pending = None
        else:
            pending = (y.tobytes(), z_next + beta * (z_next - z))
        return y

    def primal_of(y):
        y = np.asarray(y, dtype=np.float64)
        seen = last
        if seen is not None and seen[0] == y.tobytes():
            return seen[1]
        return _augl1_point(alpha, y.dot(A))[2]

    def release():
        nonlocal pending, last, block
        pending = last = block = None
        products.clear()

    def eval_batch(ys):
        s = shrink(ys @ A, 1.0)
        vals = 0.5 * alpha * np.einsum("ij,ij->i", s, s) - ys @ rhs
        return vals, (alpha * s) @ A.T - rhs

    return Objective(
        dim=m,
        eval=eval_one,
        constants=KnownConstants(L=alpha * norm_sq),
        eval_batch=eval_batch,
        name=f"augl1-dual[{m}x{n}]",
        primal=primal_of,
        extrapolate=extrapolate,
        release=release,
    )


def compose_constants(g_constants: KnownConstants, a, mode: str) -> KnownConstants:
    """Constants of f(x) = g(Ax) from the constants of g.

    mode="surjective" (full-row-rank A, g with a unique minimizer):
        L_f = L_g * ||A||^2,  nu_f = nu_g * lambda_min(A A^T).
    mode="strictly_convex" (g strongly convex near the optimum; its modulus
    is passed in the ``nu`` field):
        L_f = L_g * ||A||^2,  nu_f = nu_g * lambda_min_pp(A^T A),
    where lambda_min_pp is the smallest strictly positive eigenvalue.
    """
    A = as_matrix(a)
    if g_constants.L is None:
        raise ValueError("composition requires g's Lipschitz constant L")
    if g_constants.nu is None:
        raise ValueError("composition requires g's modulus nu")
    if mode not in ("surjective", "strictly_convex"):
        raise ValueError(f"unknown composition mode {mode!r}")
    surjective = mode == "surjective"
    # ||A||^2 is lambda_max of either Gram matrix
    summary = sym_eig_summary(A @ A.T if surjective else A.T @ A)
    low = summary.lambda_min if surjective else summary.lambda_min_pp
    if surjective and low <= 1e-12 * summary.lambda_max:
        raise ValueError(f"surjective mode needs full row rank: lambda_min(AA^T) = {low:.6e}")
    if low is None:
        raise ValueError("A^T A has no strictly positive eigenvalue")
    return KnownConstants(L=g_constants.L * summary.lambda_max, nu=g_constants.nu * low)
