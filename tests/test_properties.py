"""Property tests of the oracles, the solver loop and the bound checks.

For f(x) = 0.5 ||Ax - b||^2 with m < n the constants are L = R = ||A||^2
and nu = lambda_min(A A^T); the secant inequality and Lemma 3's growth
bound must hold with that nu at every point. The dual oracle's ``primal``
must return ``alpha * shrink_1(A^T y)`` bit for bit, whatever point its
memo holds; its evaluation at an extrapolated point, from an image formed
by linearity, must match a fresh product to rounding, and must be a fresh
product whenever a point changed after its evaluation. The support form of
the shrink must be bitwise `shrink`, which must not expand distances. Gradient
descent and Nesterov's scheme must match plain in-test loops bit for bit;
the dampening sequence must satisfy its recursion; and ``check_bounds``
must place an injected violation at the right iteration.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcert.certify import check_bounds
from gradcert.numkit import GaussianStream
from gradcert.oracles import _augl1_point, make_augl1_dual, make_quadratic_composite, shrink
from gradcert.solvers import SolverConfig, SolverTrace, run_solver, theta_step
from gradcert.sparse_recovery import gen_sparse_problem

SLACK = 1e-9
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def quads(draw):
    """(A, b, quad, x): a seeded m x n quad with m < n <= 30 and a random point."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, n - 1))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    a, b = stream.normal((m, n)), stream.normal(m)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return a, b, make_quadratic_composite(a, b), scale * stream.normal(n)


@PROPERTY
@given(quads())
def test_quad_projection_idempotent_and_feasible(case):
    a, b, quad, x = case
    p = quad.project(x)
    size = np.linalg.norm(b) + np.linalg.norm(a, 2) * np.linalg.norm(p)
    assert np.linalg.norm(a @ p - b) <= 1e-10 * size
    assert np.linalg.norm(quad.project(p) - p) <= 1e-10 * (1.0 + np.linalg.norm(p))


@PROPERTY
@given(quads())
def test_quad_lipschitz_constant_is_spectral_norm(case):
    a, _, quad, _ = case
    want = np.linalg.norm(a, 2) ** 2
    assert quad.constants.L == pytest.approx(want, rel=1e-12)
    assert quad.constants.R == quad.constants.L


@PROPERTY
@given(quads())
def test_quad_secant_and_growth_with_lambda_min(case):
    a, _, quad, x = case
    nu = np.linalg.eigvalsh(a @ a.T)[0]
    assert quad.constants.nu == pytest.approx(nu, rel=1e-9)
    f, g = quad.eval(x)
    d = x - quad.project(x)
    r2 = float(d @ d)
    # secant inequality: <grad f(x), x - x_prj> >= nu ||x - x_prj||^2
    assert float(g @ d) >= nu * r2 * (1.0 - SLACK)
    # Lemma 3: f(x) - f* >= (nu/2) ||x - x_prj||^2
    assert f - quad.f_star >= 0.5 * nu * r2 * (1.0 - SLACK)


@st.composite
def dual_points(draw):
    """(problem, y, z): a small sparse problem and two distinct dual points."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n))
    problem = gen_sparse_problem(
        draw(st.integers(0, 2**32 - 1)), m, n, k, draw(st.sampled_from(["gaussian", "pm_one"]))
    )
    # scaled so that A^T y straddles the shrink threshold 1
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0])) / np.sqrt(m)
    return problem, scale * stream.normal(m), scale * stream.normal(m)


def _primal_ref(problem, y):
    return problem.alpha * shrink(problem.A.T @ y, 1.0)


@PROPERTY
@given(dual_points())
def test_dual_primal_is_bitwise_shrink(case):
    problem, y, z = case
    dual = problem.dual
    dual.eval(y)
    # the point just evaluated, served from the memo
    assert np.array_equal(dual.primal(y), _primal_ref(problem, y))
    # a point other than the last one evaluated
    assert np.array_equal(dual.primal(z), _primal_ref(problem, z))
    # the caller writes to the evaluated point afterwards
    dual.eval(y)
    y += z
    assert np.array_equal(dual.primal(y), _primal_ref(problem, y))


# The image by linearity, A^T x_next + beta (A^T x_next - A^T x), and the
# product A^T y differ by rounding of order m * eps times the magnitudes of
# the images (m < 24 here); shrink is 1-Lipschitz, so A x(y) differs by about
# alpha ||A|| times that. Measured worst over 20,000 random cases: 1.8e-14
# of ||b|| + ||A x(y)|| for the gradient and 4e-15 for the value.
LINEARITY_TOL = 1e-12


@PROPERTY
@given(dual_points(), st.floats(0.0, 1.0, exclude_max=True))
def test_dual_eval_at_extrapolated_point_matches_a_fresh_product(case, beta):
    problem, x, x_next = case
    dual = problem.dual
    dual.eval(x)
    dual.eval(x_next)
    y = dual.extrapolate(x_next, x, beta)
    assert np.array_equal(y, x_next + beta * (x_next - x))
    f, g = dual.eval(y)
    f_ref, g_ref = make_augl1_dual(problem.A, problem.b, problem.alpha).eval(y)
    primal = dual.primal(y)
    b_norm = np.linalg.norm(problem.b)
    assert np.linalg.norm(g - g_ref) <= LINEARITY_TOL * (b_norm + np.linalg.norm(g_ref + problem.b))
    f_size = abs(float(problem.b @ y)) + 0.5 * float(primal @ primal) / problem.alpha
    assert abs(f - f_ref) <= LINEARITY_TOL * f_size


@PROPERTY
@given(dual_points(), st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(["x_next", "y"]))
def test_dual_point_written_after_eval_gets_a_fresh_product(case, beta, written):
    problem, x, x_next = case
    dual = problem.dual
    dual.eval(x)
    dual.eval(x_next)
    if written == "x_next":
        x_next += x
        y = dual.extrapolate(x_next, x, beta)
    else:
        y = dual.extrapolate(x_next, x, beta)
        y += x
    f, g = dual.eval(y)
    f_ref, g_ref = make_augl1_dual(problem.A, problem.b, problem.alpha).eval(y)
    assert f == f_ref
    assert np.array_equal(g, g_ref)


_FINITE_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0),
                 np.nextafter(1.0, 0.0), 1e-300, 1e300]
_EDGES = _FINITE_EDGES + [np.nan, np.inf, -np.inf]


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(_EDGES), min_size=1, max_size=40))
def test_support_form_shrink_is_bitwise_shrink(values):
    z = np.array(values)
    with np.errstate(invalid="ignore"):  # inf * 0 in A x on non-finite z
        s, x, resid = _augl1_point(np.eye(z.size), np.zeros(z.size), 1.0, z)
    # shrink writes -0.0 below the threshold where the support form leaves
    # +0.0; adding 0.0 maps both to +0.0 and changes no other bit
    assert x.tobytes() == (shrink(z, 1.0) + 0.0).tobytes()
    assert s.tobytes() == x[x != 0.0].tobytes()
    if np.isfinite(z).all():
        assert np.array_equal(resid, x)
    else:
        # as in a dense product, a NaN or infinite x(y) spoils A x - b
        assert not np.isfinite(resid).all()


@PROPERTY
@given(st.data())
def test_shrink_does_not_expand_distances(data):
    n = data.draw(st.integers(1, 30))
    coords = st.floats(-1e6, 1e6) | st.sampled_from(_FINITE_EDGES[:-1])
    a = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    t = data.draw(st.floats(1e-6, 1e3))
    # shrink is 1-Lipschitz in each coordinate; the slack covers the rounding
    # of |x| - t on both sides and of the two differences
    slack = 4 * np.finfo(float).eps * (np.abs(a) + np.abs(b) + t)
    assert np.all(np.abs(shrink(a, t) - shrink(b, t)) <= np.abs(a - b) + slack)


@st.composite
def gd_runs(draw):
    """(quad, x0, h, iters): a seeded m x n quad with m < n <= 50, m <= 20."""
    n = draw(st.integers(2, 50))
    m = draw(st.integers(1, min(20, n - 1)))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    a = stream.normal((m, n))
    quad = make_quadratic_composite(a, stream.normal(m))
    x0 = draw(st.sampled_from([1e-3, 1.0, 1e3])) * stream.normal(n)
    h = draw(st.sampled_from([0.5, 1.0])) / quad.constants.L
    return quad, x0, h, draw(st.integers(1, 40))


@PROPERTY
@given(gd_runs(), st.sampled_from(["gd", "nesterov"]))
def test_gd_is_bitwise_the_plain_gradient_loop(case, variant):
    quad, x0, h, iters = case
    tr = run_solver(quad, x0, SolverConfig(stepsize_h=h, max_iters=iters, variant=variant))
    f, grad_norm, dist, xs = [], [], [], []
    x = x0.copy()
    y, theta = x, 1.0
    for k in range(iters + 1):
        fx, g = quad.eval(x)
        f.append(float(fx))
        grad_norm.append(float(np.linalg.norm(g)))
        dist.append(float(np.linalg.norm(x - quad.project(x))))
        xs.append(x)
        if grad_norm[-1] == 0.0:
            break
        if variant == "gd":
            x = x - h * g
        else:
            # gradient step at y, then y = x_next + beta (x_next - x)
            g_y = g if y is x else quad.eval(y)[1]
            x_next = y - h * g_y
            theta, beta = theta_step(theta)
            y = x_next + beta * (x_next - x)
            x = x_next
    assert np.array_equal(tr.f, f)
    assert np.array_equal(tr.grad_norm, grad_norm)
    assert np.array_equal(tr.dist_to_sol, dist)
    assert len(tr.iterates) == len(xs)
    assert all(np.array_equal(a, b) for a, b in zip(tr.iterates, xs))
    if variant == "gd":
        assert tr.n_evals == len(tr)


@PROPERTY
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_theta_recursion_identity(theta):
    # theta_{k+1}^2 = (1 - theta_{k+1}) theta_k^2, evaluated exactly on the
    # returned floats, so only theta_step's own rounding counts
    t_next, _ = theta_step(theta)
    t, th = Fraction(t_next), Fraction(theta)
    assert abs(t * t - (1 - t) * th * th) <= Fraction(1e-15) * th * th


@PROPERTY
@given(st.data())
def test_check_bounds_finds_injected_violation(data):
    # unit quad: nu = R = 1, so thm2 bounds r_{k+1} <= sqrt(1/2) r_k
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    n = data.draw(st.integers(2, 40))
    ratios = np.array(data.draw(st.lists(st.floats(0.01, 0.7), min_size=n - 1, max_size=n - 1)))
    r0 = data.draw(st.floats(1e-3, 1e3))
    checkable = np.flatnonzero(r0 * np.cumprod(np.r_[1.0, ratios[:-1]]) >= 1e-12) + 1
    k = data.draw(st.sampled_from(checkable.tolist()))
    ratios[k - 1] = data.draw(st.floats(0.75, 1.5))
    r = r0 * np.cumprod(np.r_[1.0, ratios])
    trace = SolverTrace(
        f=0.5 * r**2, grad_norm=r, dist_to_sol=r, reset_event=("none",) * n,
        status="max_iters", f_star=0.0,
    )
    report = check_bounds(trace, unit, "thm2_linear", SolverConfig(0.5, n - 1))
    assert not report.passed
    assert report.first_fail_k == k
    assert report.n_checked == np.count_nonzero(r[:-1] >= 1e-12)
    assert report.n_checked + report.n_vacuous == n - 1
