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
    "finite_diff_check",
]

_SQRT2 = math.sqrt(2.0)


def shrink(x, beta: float) -> np.ndarray:
    """Elementwise soft-threshold: sign(x) * max(|x| - beta, 0)."""
    if beta <= 0:
        raise ValueError(f"shrink threshold must be positive, got {beta}")
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
    takes an ``(s, dim)`` array and returns ``((s,), (s, dim))``. ``project``
    (optional) maps a point, or an ``(s, dim)`` batch, to the nearest
    minimizer. ``primal`` (optional, dual oracles only) maps a dual point
    to its primal point. ``extrapolate(x_next, x, beta)`` returns the
    solvers' extrapolated point ``x_next + beta * (x_next - x)``; an oracle
    may replace it to prepare the evaluation of that point, but the point
    itself must be exactly that expression.
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


# ---------------------------------------------------------------------------
# 1-D piecewise examples

_F1_JOIN = 2.0 - _SQRT2 / 2.0
_F1_NU = 2.0 / (4.0 - _SQRT2)

_F2_JOIN1 = _SQRT2 / 2.0
_F2_C = math.sqrt((_SQRT2 - 1.0) / 2.0)
_F2_OFFSET = math.sqrt(2.0 * _SQRT2 - 2.0) + (5.0 - 5.0 * _SQRT2) / 4.0
_F2_NU = math.sqrt((_SQRT2 - 1.0) / 2.0)


def _f1_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros_like(x)
    g = np.zeros_like(x)
    m1 = (x > 0.0) & (x < 1.0)
    m2 = (x >= 1.0) & (x <= _F1_JOIN)
    m3 = x > _F1_JOIN
    if m1.any():
        s = np.sqrt(1.0 - x[m1] ** 2)
        v[m1] = 1.0 - s
        g[m1] = x[m1] / s
    if m2.any():
        d = x[m2] - 2.0
        s = np.sqrt(1.0 - d**2)
        v[m2] = 1.0 + s
        with np.errstate(divide="ignore"):
            g[m2] = -d / s  # unbounded as x -> 1 from the right
    if m3.any():
        t = x[m3] - 1.0 + _SQRT2 / 2.0
        v[m3] = 0.5 * t**2 + (1.0 + _SQRT2) / 2.0
        g[m3] = t
    return v, g


def _f2_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.zeros_like(x)
    g = np.zeros_like(x)
    m1 = (x > 0.0) & (x <= _F2_JOIN1)
    m2 = (x > _F2_JOIN1) & (x <= 1.0)
    m3 = x > 1.0
    if m1.any():
        s = np.sqrt(1.0 - x[m1] ** 2)
        v[m1] = 1.0 - s
        g[m1] = x[m1] / s
    if m2.any():
        d = x[m2] - _SQRT2
        s = np.sqrt(1.0 - d**2)
        v[m2] = s - _SQRT2 + 1.0
        g[m2] = -d / s
    if m3.any():
        t = x[m3] - 1.0 + _F2_C
        v[m3] = 0.5 * t**2 + _F2_OFFSET
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
    """One of the three 1-D examples: "f1", "f2", or "f3" (needs beta > 0).

    f1 and f2 are non-convex with minimizer set (-inf, 0]; their gradients
    satisfy the secant inequality with nu = 2/(4 - sqrt(2)) and
    sqrt((sqrt(2) - 1)/2) respectively. f1's gradient blows up at x = 1, so
    it carries no Lipschitz constant. f3(x) = 0.5 * shrink_beta(x)^2 is
    convex but not strictly convex, with nu = 1 and minimizer set
    [-beta, beta].
    """
    if fid == "f1":
        return _make_1d(
            _f1_kernel,
            lambda x: np.minimum(np.asarray(x, dtype=np.float64), 0.0),
            KnownConstants(nu=_F1_NU),
            "f1",
        )
    if fid == "f2":
        return _make_1d(
            _f2_kernel,
            lambda x: np.minimum(np.asarray(x, dtype=np.float64), 0.0),
            KnownConstants(nu=_F2_NU),
            "f2",
        )
    if fid == "f3":
        if beta is None or beta <= 0:
            raise ValueError(f"f3 requires beta > 0, got {beta}")
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
    """
    A = as_matrix(a)
    rhs = as_vector(b)
    m, n = A.shape
    if rhs.shape[0] != m:
        raise ValueError(f"matrix is {m}x{n} but b has length {rhs.shape[0]}")
    gram = A @ A.T
    gram = 0.5 * (gram + gram.T)
    summary = sym_eig_summary(gram)
    if summary.lambda_min <= 1e-12 * summary.lambda_max:
        raise ValueError(
            f"A must have full row rank: lambda_min(AA^T) = {summary.lambda_min:.6e}"
        )
    norm_sq = summary.lambda_max  # ||A||^2 = lambda_max(A A^T)
    chol = np.linalg.cholesky(gram)
    # fixed projector onto {x : Ax = b}: A^T (A A^T)^{-1}, built once
    proj = A.T @ cholesky_solve(chol, np.eye(m))

    def eval_one(x):
        r = A @ x - rhs
        return 0.5 * float(r @ r), A.T @ r

    def eval_batch(xs):
        resid = xs @ A.T - rhs
        return 0.5 * np.einsum("ij,ij->i", resid, resid), resid @ A

    def project(x):
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim == 1:
            return pts + proj @ (rhs - A @ pts)
        return pts + (rhs - pts @ A.T) @ proj.T

    return Objective(
        dim=n,
        eval=eval_one,
        project=project,
        constants=KnownConstants(R=norm_sq, L=norm_sq, nu=summary.lambda_min),
        f_star=0.0,
        eval_batch=eval_batch,
        name=f"quad[{m}x{n}]",
    )


def _augl1_point(A: np.ndarray, rhs: np.ndarray, alpha: float, z: np.ndarray):
    """``(shrink_1(z)[S], x, A x - b)`` with ``x = alpha * shrink_1(z)``, for z = A^T y.

    S is the support of ``shrink_1(z)``, where ``|z| - 1 > 0`` or is NaN;
    there the entries are ``+-(|z| - 1)``, the bits `shrink` computes,
    elsewhere zero. A NaN or infinite entry of z thus reaches ``A x - b``.
    ``A x`` is ``A[:, S] @ x[S]``, a product with the support columns only.
    """
    u = np.abs(z) - 1.0
    S = np.flatnonzero(~(u <= 0.0))
    s = np.copysign(u[S], z[S])
    xs = alpha * s
    x = np.zeros(A.shape[1])
    x[S] = xs
    return s, x, A[:, S] @ xs - rhs


def make_augl1_dual(a, b, alpha: float) -> Objective:
    """Negated dual of the augmented-l1 model, as a minimization oracle.

    The dual maximizes ``b^T y - (alpha/2) ||shrink_1(A^T y)||^2``; this
    oracle returns its negation so every solver in the package minimizes.
    The gradient is ``A x(y) - b`` with ``x(y) = alpha * shrink_1(A^T y)``,
    i.e. minus the primal residual of the recovered point. Only
    ``L = alpha * lambda_max(A A^T)`` is known (from LAPACK); the solution
    set has no closed form, so there is no projection and no f_star.

    ``A x(y)`` is a product with the columns of A on the support of x(y)
    only, which is contiguous when A is column-major (as
    `gen_sparse_problem` stores it). The matrix is used as given, never
    copied.

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
    and must not be written to. Any other point is computed afresh.
    """
    A = as_matrix(a)
    rhs = as_vector(b)
    m, n = A.shape
    if rhs.shape[0] != m:
        raise ValueError(f"matrix is {m}x{n} but b has length {rhs.shape[0]}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not A.any() or not rhs.any():
        raise ValueError("A and b must both be nonzero")
    gram = A @ A.T
    norm_sq = sym_eig_summary(0.5 * (gram + gram.T)).lambda_max  # ||A||^2

    products: list[tuple[bytes, np.ndarray]] = []  # (point, A^T point) of the two latest products
    pending = None  # (point, image) formed by extrapolate, for the next eval only
    last = None  # (point, x(point)) of the latest eval

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
            z = A.T @ y
            products.append((key, z))
            if len(products) > 2:
                del products[0]
        pending = None
        s, primal, grad = _augl1_point(A, rhs, alpha, z)
        last = (key, primal)
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
        return alpha * shrink(A.T @ y, 1.0)

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
    # ||A||^2 is lambda_max of either Gram matrix
    if mode == "surjective":
        gram = A @ A.T
        summary = sym_eig_summary(0.5 * (gram + gram.T))
        if summary.lambda_min <= 1e-12 * summary.lambda_max:
            raise ValueError(
                f"surjective mode needs full row rank: lambda_min(AA^T) = "
                f"{summary.lambda_min:.6e}"
            )
        return KnownConstants(
            L=g_constants.L * summary.lambda_max, nu=g_constants.nu * summary.lambda_min
        )
    if mode == "strictly_convex":
        gram = A.T @ A
        summary = sym_eig_summary(0.5 * (gram + gram.T))
        if summary.lambda_min_pp is None:
            raise ValueError("A^T A has no strictly positive eigenvalue")
        return KnownConstants(
            L=g_constants.L * summary.lambda_max, nu=g_constants.nu * summary.lambda_min_pp
        )
    raise ValueError(f"unknown composition mode {mode!r}")


def finite_diff_check(oracle: Objective, points) -> float:
    """Worst relative error between the oracle gradient and central differences.

    Uses step ``1e-6 * (1 + ||x||)`` per coordinate. Callers are responsible
    for keeping sample points away from gradient kinks (e.g. at least 1e-3
    from any soft-threshold boundary).
    """
    worst = 0.0
    for p in points:
        x = as_vector(p)
        if x.shape[0] != oracle.dim:
            raise ValueError(f"point of dim {x.shape[0]} fed to oracle of dim {oracle.dim}")
        _, g = oracle.eval(x)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if oracle.eval_batch is not None:
            pert = np.repeat(x[None, :], 2 * oracle.dim, axis=0)
            idx = np.arange(oracle.dim)
            pert[2 * idx, idx] += h
            pert[2 * idx + 1, idx] -= h
            vals, _ = oracle.eval_batch(pert)
            fd = (vals[0::2] - vals[1::2]) / (2.0 * h)
        else:
            fd = np.empty(oracle.dim)
            for i in range(oracle.dim):
                step = np.zeros(oracle.dim)
                step[i] = h
                fp, _ = oracle.eval(x + step)
                fm, _ = oracle.eval(x - step)
                fd[i] = (fp - fm) / (2.0 * h)
        rel = float(np.linalg.norm(fd - g)) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, rel)
    return worst
