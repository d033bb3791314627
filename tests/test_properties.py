"""Property tests of the oracles, the solver loop and the bound checks.

For f(x) = 0.5 ||Ax - b||^2 with m < n the constants are L = R = ||A||^2
and nu = lambda_min(A A^T); the secant inequality and Lemma 3's growth
bound must hold with that nu at every point. The dual oracle's ``primal``
must return ``alpha * shrink_1(A^T y)`` bit for bit, its zeros +0.0,
whatever point its memo holds; its evaluation at an extrapolated point,
from an image formed by linearity, must match a fresh product to rounding,
and must be a fresh product whenever a point changed after its evaluation. Along a walk whose
support holds, changes size or changes content, the dual's evaluations must
be a fresh oracle's bit for bit, and so must the quad's projection of the
point it just evaluated. Every recovery variant must give the same bits
twice on one problem, whose kept dual each run releases, and once on a
fresh copy. The support form of the shrink must be bitwise
`shrink`, which must not expand distances. The quad's and the dual's
single-point products, formed with ``ndarray.dot``, must be bitwise the
``@`` forms for C- and F-ordered matrices. The start of the 1-D
`estimate_rlg`, over adjacent grid pairs, must be the all-pairs maximum to
rounding and, up to 1024 points, bitwise the former prefix start. Both
estimators, which work in row blocks, must return what their former
whole-array forms return, bit for bit, and keep their one-sided bounds:
`estimate_rlg` never above L, `estimate_rsi` never below lambda_min(A A^T).
On random quads started at 10 N(0, I), thm1, thm2, thm3, thm4, thm6,
lemma1 and lemma2 must pass at their theory stepsizes, each with at least
one checked inequality, and every check must give the same report, or
refusal, on a run of each scheme and on its CSV text read back. Reading
back a trace's CSV text must give the trace again, iterates aside, bit
for bit.
Moving the random stream's counter must skip exactly the draws passed
over, and splitting a draw into several calls must give the whole draw. Gradient
descent and Nesterov's scheme must match plain in-test loops bit for bit;
the dampening sequence must satisfy its recursion; ``check_bounds``
must place an injected violation at the right iteration; and
``appendix_grid`` must return exactly what a full scan of its grid returns.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradcert.certify import (
    THEOREM_IDS,
    _ROWS,
    GridOptimum,
    _blocks,
    _pair_ratios,
    _start_ratio,
    appendix_grid,
    check_bounds,
    estimate_rlg,
    estimate_rsi,
)
from gradcert.numkit import _BLOCK, GaussianStream, cholesky_solve
from gradcert.oracles import (
    _augl1_point,
    make_augl1_dual,
    make_example_1d,
    make_quadratic_composite,
    shrink,
)
from gradcert.solvers import SolverConfig, SolverTrace, load_trace_csv, run_solver, theta_step
from gradcert.sparse_recovery import RECOVERY_VARIANTS, gen_sparse_problem, recover

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


@PROPERTY
@given(quads())
def test_quad_projection_after_eval_is_the_fresh_projection(case):
    a, b, quad, x = case
    fresh = make_quadratic_composite(a, b)
    quad.eval(x)
    # the point just evaluated, projected from its kept product A x
    assert quad.project(x).tobytes() == fresh.project(x).tobytes()
    # the caller writes to the evaluated point afterwards
    quad.eval(x)
    x[0] += 1.0
    assert quad.project(x).tobytes() == fresh.project(x).tobytes()
    # a batch holding the evaluated point, with the same bytes
    quad.eval(x)
    assert quad.project(x[None, :]).tobytes() == fresh.project(x[None, :]).tobytes()


@st.composite
def ordered_matrices(draw):
    """(A, b, x, y): an m x n matrix with m < n, C- or F-ordered, and points."""
    n = draw(st.integers(2, 200))
    m = draw(st.integers(1, n - 1))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    a = stream.normal((m, n))
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    # y scaled so that A^T y straddles the shrink threshold 1
    return a, stream.normal(m), stream.normal(n), stream.normal(m) / np.sqrt(m)


@PROPERTY
@given(ordered_matrices())
def test_quad_products_are_bitwise_the_matmul_forms(case):
    a, b, x, _ = case
    quad = make_quadratic_composite(a, b)
    gram = a @ a.T
    proj = a.T @ cholesky_solve(np.linalg.cholesky(0.5 * (gram + gram.T)), np.eye(a.shape[0]))
    p_ref = x + proj @ (b - a @ x)
    # a point not evaluated before, then the point just evaluated
    assert quad.project(x).tobytes() == p_ref.tobytes()
    f, g = quad.eval(x)
    r = a @ x - b
    assert (f, g.tobytes()) == (0.5 * float(r @ r), (a.T @ r).tobytes())
    assert quad.project(x).tobytes() == p_ref.tobytes()


@PROPERTY
@given(ordered_matrices(), st.sampled_from([0.5, 1.0, 10.0]))
def test_dual_products_are_bitwise_the_matmul_forms(case, alpha):
    a, b, _, y = case
    dual = make_augl1_dual(a, b, alpha)
    z = a.T @ y
    u = np.abs(z) - 1.0
    S = (~(u <= 0.0)).nonzero()[0]
    s = np.copysign(u[S], z[S])
    f, g = dual.eval(y)
    assert f == 0.5 * alpha * float(s @ s) - float(b @ y)
    assert g.tobytes() == (a[:, S] @ (alpha * s) - b).tobytes()
    # a point other than the last one evaluated gets a fresh product; its
    # zeros are +0.0 where shrink writes -0.0, and adding 0.0 maps both to +0.0
    fresh = alpha * shrink(a.T @ (2.0 * y), 1.0) + 0.0
    assert dual.primal(2.0 * y).tobytes() == fresh.tobytes()


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


SUPPORT_STEPS = ("same", "size", "content")


@st.composite
def support_walks(draw):
    """(A, b, alpha, points, supports): dual points whose x(y) has the given supports.

    ``A = [D | B]`` with D diagonal and B small, so ``(A^T y)_i = D_ii y_i``
    for i < m and ``|A^T y| < 1`` beyond. From one support to the next the
    walk keeps it, changes its size or swaps one index, each at least once.
    """
    m = draw(st.integers(3, 12))
    n = m + draw(st.integers(1, 12))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    diag = 1.0 + stream.uniform(m)
    a = np.zeros((m, n))
    a[:, :m] = np.diag(diag)
    a[:, m:] = 1e-3 / n * stream.normal((m, n - m))
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    steps = list(draw(st.permutations(SUPPORT_STEPS)))
    steps += draw(st.lists(st.sampled_from(SUPPORT_STEPS), max_size=6))
    support = set(draw(st.permutations(range(m)))[: draw(st.integers(1, m - 1))])
    supports = [support]
    for step in steps:
        support = set(support)
        inside, outside = sorted(support), sorted(set(range(m)) - support)
        grow = len(support) == 1 or (len(support) < m - 1 and draw(st.booleans()))
        if step != "same" and (step == "content" or not grow):
            support.discard(draw(st.sampled_from(inside)))
        if step != "same" and (step == "content" or grow):
            support.add(draw(st.sampled_from(outside)))
        supports.append(support)
    points = []
    for support in supports:
        inside = np.isin(np.arange(m), sorted(support))
        u = stream.uniform(m)
        z = np.where(inside, 1.1 + 2.9 * u, 0.9 * u)
        points.append(np.where(stream.uniform(m) < 0.5, -z, z) / diag)
    alpha = draw(st.sampled_from([0.5, 1.0, 10.0]))
    return a, stream.normal(m), alpha, points, supports


@PROPERTY
@given(support_walks())
def test_dual_kept_support_block_gives_the_fresh_bits(walk):
    a, b, alpha, points, supports = walk
    dual = make_augl1_dual(a, b, alpha)
    for y, support in zip(points, supports):
        f, g = dual.eval(y)
        fresh = make_augl1_dual(a, b, alpha)
        f_ref, g_ref = fresh.eval(y)
        primal = dual.primal(y)
        assert np.flatnonzero(primal).tolist() == sorted(support)
        assert (f, g.tobytes()) == (f_ref, g_ref.tobytes())
        assert primal.tobytes() == fresh.primal(y).tobytes()


def _recovery_bits(res):
    tr = res.dual_trace
    return (tr.f.tobytes(), tr.grad_norm.tobytes(), tr.reset_event, tr.status, tr.n_evals,
            None if res.rel_error_curve is None else res.rel_error_curve.tobytes(),
            res.primal_residual_curve.tobytes(), res.x_final.tobytes())


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
def test_recovery_bits_repeat_on_a_kept_dual_and_a_fresh_copy(seed, m, data):
    n = m + data.draw(st.integers(1, 12))
    signal = data.draw(st.sampled_from(["gaussian", "pm_one"]))
    args = (seed, m, n, data.draw(st.integers(0, n)), signal)
    shared = gen_sparse_problem(*args)
    for variant in RECOVERY_VARIANTS:
        first, second = (recover(shared, variant, max_iters=200) for _ in range(2))
        fresh = recover(gen_sparse_problem(*args), variant, max_iters=200)
        assert _recovery_bits(first) == _recovery_bits(second) == _recovery_bits(fresh)


_FINITE_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0),
                 np.nextafter(1.0, 0.0), 1e-300, 1e300]
_EDGES = _FINITE_EDGES + [np.nan, np.inf, -np.inf]


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(_EDGES), min_size=1, max_size=40))
def test_support_form_shrink_is_bitwise_shrink(values):
    z = np.array(values)
    with np.errstate(invalid="ignore"):  # inf * 0 in A x on non-finite z
        S, s, x = _augl1_point(1.0, z)
        resid = np.eye(z.size)[:, S].dot(x[S])  # A x - b as the dual forms it, A = I, b = 0
    # shrink writes -0.0 below the threshold where the support form leaves
    # +0.0; adding 0.0 maps both to +0.0 and changes no other bit
    assert x.tobytes() == (shrink(z, 1.0) + 0.0).tobytes()
    assert s.tobytes() == x[x != 0.0].tobytes()
    assert S.tolist() == np.flatnonzero(x != 0.0).tolist()
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


def _full_scan_grid(big_r, nu, grid_steps):
    """`appendix_grid` as a scan of every grid row, one theta at a time."""
    n = int(grid_steps)
    thetas = np.linspace(0.0, 1.0, n + 1)
    frac_a = np.arange(1, n + 1, dtype=np.float64) / n
    frac_b = np.linspace(0.0, 1.0, n + 1)
    best_a = (math.inf, 0.0, 0.0)
    best_b = (math.inf, 0.0, 0.0)
    for theta in thetas:
        if theta > 0.0:
            h = (theta / big_r) * frac_a
            fa = (nu * h) ** 2 - 2.0 * ((1.0 - theta) * nu + theta * nu**2 / (2.0 * big_r)) * h + 1.0
            i = int(np.argmin(fa))
            if fa[i] < best_a[0]:
                best_a = (float(fa[i]), float(theta), float(h[i]))
        lo = theta / big_r
        h = lo + (4.0 / big_r - lo) * frac_b
        fb = (2.0 * big_r * h) ** 2 - 2.0 * (2.0 * theta * big_r + (1.0 - theta) * nu) * h + 1.0
        i = int(np.argmin(fb))
        if fb[i] < best_b[0]:
            best_b = (float(fb[i]), float(theta), float(h[i]))
    min_value, theta_star, h_star = best_a if best_a[0] <= best_b[0] else best_b
    return GridOptimum(theta_star, h_star, min_value, best_a[0], best_b[0])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(-2.0, 2.0), st.floats(0.001, 1.999, exclude_min=True, exclude_max=True),
       st.integers(1000, 3000))
def test_appendix_grid_is_the_full_scan(log_r, nu_over_r, steps):
    big_r = 10.0**log_r
    nu = nu_over_r * big_r
    assert appendix_grid(big_r, nu, steps) == _full_scan_grid(big_r, nu, steps)


def _prefix_start(z, gz):
    """The former start of `estimate_rlg`: all pairs of the first 1024 points."""
    p = min(z.shape[0], 1024)
    best, witness = -np.inf, None
    for i in range(p - 1):
        ratios = _pair_ratios(
            np.broadcast_to(z[i], (p - i - 1, 1)), z[i + 1 : p],
            np.broadcast_to(gz[i], (p - i - 1, 1)), gz[i + 1 : p],
        )
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, witness = float(ratios[j]), (z[i], z[i + 1 + j])
    return best, witness


@st.composite
def sorted_clouds(draw, max_size):
    """(z, gz): a sorted 1-D cloud, gaps at least 1e-6, and f1/f2/f3 gradients."""
    fid = draw(st.sampled_from(["f1", "f2", "f3"]))
    oracle = make_example_1d(fid, beta=draw(st.floats(0.1, 3.0)) if fid == "f3" else None)
    n = draw(st.integers(2, max_size))
    lo = draw(st.floats(-6.0, 3.0))
    width = draw(st.floats(0.01, 12.0))
    if draw(st.booleans()):
        z = np.linspace(lo, lo + width, n)
    else:
        gaps = 1e-6 + GaussianStream(draw(st.integers(0, 2**32 - 1))).uniform(n - 1)
        z = lo + width * np.r_[0.0, np.cumsum(gaps)] / (1e-6 * (n - 1) + gaps.sum())
    z = z.reshape(-1, 1)
    _, gz = oracle.eval_batch(z)
    assume(np.all(np.isfinite(gz)))  # f1's gradient is +inf at x = 1
    return z, gz


@PROPERTY
@given(sorted_clouds(1500))
def test_rlg_start_is_the_all_pairs_max(cloud):
    z, gz = cloud
    i, j = np.triu_indices(z.shape[0], 1)
    brute = float(np.max(_pair_ratios(z[i], z[j], gz[i], gz[j])))
    best, (xa, xb) = _start_ratio(z, gz)
    # the adjacent pairs are among all pairs, with the same bits
    assert best <= brute
    assert best >= brute * (1.0 - 1e-12)
    assert abs(float(xb[0] - xa[0])) > 1e-12


@PROPERTY
@given(sorted_clouds(1024))
def test_rlg_start_is_the_former_prefix_start(cloud):
    z, gz = cloud
    best, (xa, xb) = _start_ratio(z, gz)
    assert best == _prefix_start(z, gz)[0]
    # on a tie the witness may be another pair of the same ratio
    k = int(np.searchsorted(z[:, 0], xa[0]))
    assert xb[0] == z[k + 1, 0]
    assert best == float(_pair_ratios(z[k : k + 1], z[k + 1 : k + 2], gz[k : k + 1],
                                      gz[k + 1 : k + 2])[0])


def _whole_samples(oracle, domain, n, seed):
    """The former `_sample_points`: all n sample points at once."""
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=np.float64).ravel(), (oracle.dim,))
              for v in domain)
    if oracle.dim == 1:
        return np.linspace(lo[0], hi[0], n).reshape(-1, 1)
    return lo + GaussianStream(seed).uniform(n * oracle.dim).reshape(n, oracle.dim) * (hi - lo)


def _whole_rsi(oracle, domain, n, seed):
    """The former `estimate_rsi`, every sample at once: (value, witness, samples used)."""
    pts = _whole_samples(oracle, domain, n, seed)
    _, grads = oracle.eval_batch(pts)
    diff = pts - oracle.project(pts)
    dn = np.linalg.norm(diff, axis=1)
    mask = (dn > 1e-8) & np.all(np.isfinite(grads), axis=1)
    ratios = np.einsum("ij,ij->i", grads[mask], diff[mask]) / dn[mask] ** 2
    i = int(np.argmin(ratios))
    return float(ratios[i]), pts[mask][i], int(mask.sum())


def _whole_rlg(oracle, domain, n, seed):
    """The former `estimate_rlg`, each sweep's 32 n pairs at once: (value, witness, sweeps)."""
    z = _whole_samples(oracle, domain, n, seed)
    _, gz = oracle.eval_batch(z)
    value, witness = _start_ratio(z, gz)
    stream = GaussianStream(seed).split(0x5E6)
    for sweep in range(1, 51):
        u = stream.uniform(2 * 32 * n).reshape(2, 32, n, 1)
        seg = gz / value
        xa = (z[None, :, :] - u[0] * seg[None, :, :]).reshape(-1, z.shape[1])
        xb = (z[None, :, :] - u[1] * seg[None, :, :]).reshape(-1, z.shape[1])
        ratios = _pair_ratios(xa, xb, oracle.eval_batch(xa)[1], oracle.eval_batch(xb)[1])
        j = int(np.argmax(ratios))
        new_value = value
        if np.isfinite(ratios[j]) and ratios[j] > value:
            new_value, witness = float(ratios[j]), (xa[j], xb[j])
        if abs(new_value - value) <= 1e-6 * value:
            return new_value, witness, sweep
        value = new_value
    return value, witness, 50


def _bytes(witness):
    return tuple(w.tobytes() for w in witness) if isinstance(witness, tuple) else witness.tobytes()


# sample counts at one and two blocks, less one, exact and plus one: rows
# for estimate_rsi, a sweep's 32 pairs per sample for estimate_rlg
RSI_SIZES = [k * _ROWS + d for k in (1, 2) for d in (-1, 0, 1)]
RLG_SIZES = [k * _ROWS // 32 + d for k in (1, 2) for d in (-1, 0, 1)]
ONE_D = [("f1", (0.0, 10.0)), ("f2", (-1.0, 5.0)), ("f3", (-5.0, 5.0))]


@pytest.mark.parametrize("n", RSI_SIZES)
def test_blocked_rsi_is_the_whole_array_rsi(n, quad_20x50):
    box = (-3.0 * np.ones(50), 3.0 * np.ones(50))
    cases = [(make_example_1d(f, beta=1.0 if f == "f3" else None), b) for f, b in ONE_D]
    for oracle, domain in [*cases, (quad_20x50, box)]:
        est = estimate_rsi(oracle, domain, n, seed=n)
        value, witness, used = _whole_rsi(oracle, domain, n, n)
        assert (est.value, _bytes(est.witness), est.samples_used) == (
            value, _bytes(witness), used), oracle.name


@pytest.mark.parametrize("n", RLG_SIZES)
def test_blocked_rlg_is_the_whole_array_rlg(n, quad_20x50):
    box = (-3.0 * np.ones(50), 3.0 * np.ones(50))
    cases = [(make_example_1d(f, beta=1.0 if f == "f3" else None), b) for f, b in ONE_D[1:]]
    sweeps = []
    for oracle, domain in [*cases, (quad_20x50, box)]:
        est = estimate_rlg(oracle, domain, n, seed=n)
        value, witness, k = _whole_rlg(oracle, domain, n, n)
        assert (est.value, _bytes(est.witness), est.samples_used) == (
            value, _bytes(witness), n), oracle.name
        sweeps.append(k)
    # later sweeps read their draws where the former form read them
    assert max(sweeps) > 1


@PROPERTY
@given(st.integers(1, 5 * _ROWS))
def test_blocks_cover_the_rows_in_order_with_none_small(n):
    # a product of fewer rows may round another way, so no block is smaller
    # than the whole array or _ROWS rows
    blocks = list(_blocks(n))
    assert [r0 for r0, _ in blocks] == [0, *(r1 for _, r1 in blocks[:-1])]
    assert blocks[-1][1] == n
    assert all(min(n, _ROWS) <= r1 - r0 < 2 * _ROWS for r0, r1 in blocks)


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(0, 5000), st.integers(0, 500))
def test_stream_skip_passes_over_exactly_its_draws(seed, a, b):
    stream = GaussianStream(seed)
    stream.skip(a)
    assert np.array_equal(stream.uniform(b), GaussianStream(seed).uniform(a + b)[a:])


@PROPERTY
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 40) | st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]), max_size=6),
    st.sampled_from(["normal", "uniform"]),
)
def test_stream_draws_do_not_depend_on_call_chunking(seed, chunks, kind):
    whole_stream, stream = GaussianStream(seed), GaussianStream(seed)
    whole = getattr(whole_stream, kind)(sum(chunks))
    parts = [getattr(stream, kind)(c) for c in chunks]
    assert np.concatenate([whole[:0], *parts]).tobytes() == whole.tobytes()
    assert (stream._pos, stream._spare) == (whole_stream._pos, whole_stream._spare)

@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(1, 3 * _ROWS), st.integers(1, 3))
def test_blocked_sweeps_draw_what_whole_sweeps_draw(seed, rows, sweeps):
    # estimate_rlg's pattern: one counter for the xa of a sweep, one for its xb
    whole = GaussianStream(seed)
    draws_a, draws_b = GaussianStream(seed), GaussianStream(seed)
    draws_b.skip(rows)
    for _ in range(sweeps):
        u = whole.uniform(2 * rows)
        blocks = [(draws_a.uniform(r1 - r0), draws_b.uniform(r1 - r0)) for r0, r1 in _blocks(rows)]
        assert np.array_equal(np.concatenate([ua for ua, _ in blocks]), u[:rows])
        assert np.array_equal(np.concatenate([ub for _, ub in blocks]), u[rows:])
        draws_a.skip(rows)
        draws_b.skip(rows)
    assert np.array_equal(draws_a.uniform(7), whole.uniform(7))


@st.composite
def estimator_quads(draw):
    """(A, quad): a seeded m x n quad with 2 <= m < n <= 23."""
    n = draw(st.integers(3, 23))
    m = draw(st.integers(2, n - 1))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    a = stream.normal((m, n))
    return a, make_quadratic_composite(a, stream.normal(m))


ESTIMATORS = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@ESTIMATORS
@given(estimator_quads(), st.floats(0.1, 10.0), st.integers(100, 400), st.integers(0, 2**16))
def test_estimators_keep_their_one_sided_bounds_on_quads(case, width, n, seed):
    a, quad = case
    eig = np.linalg.eigvalsh(a @ a.T)  # nu = lambda_min(A A^T), L = lambda_max(A A^T)
    box = (-width * np.ones(quad.dim), width * np.ones(quad.dim))
    assert estimate_rlg(quad, box, n, seed=seed).value <= eig[-1] * (1.0 + SLACK)
    assert estimate_rsi(quad, box, n, seed=seed).value >= eig[0] * (1.0 - SLACK)


@ESTIMATORS
@given(st.floats(0.01, 4.0), st.floats(4.5, 20.0), st.integers(100, 3000), st.integers(0, 2**16))
def test_estimators_keep_their_one_sided_bounds_on_f3(beta, width, n, seed):
    f3 = make_example_1d("f3", beta=beta)  # L = nu = 1
    assert estimate_rlg(f3, (-width, width), n, seed=seed).value <= 1.0 + SLACK
    assert estimate_rsi(f3, (-width, width), n, seed=seed).value >= 1.0 - SLACK


@st.composite
def theorem_quads(draw):
    """(quad, x0): a consistent seeded m x n quad, 2 <= m < n <= 23, and a start 10 N(0, I)."""
    n = draw(st.integers(3, 23))
    m = draw(st.integers(2, n - 1))
    stream = GaussianStream(draw(st.integers(0, 2**32 - 1)))
    a = stream.normal((m, n))
    return make_quadratic_composite(a, a @ stream.normal(n)), 10.0 * stream.normal(n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(theorem_quads())
def test_theorem_checks_pass_at_their_theory_stepsizes(case):
    # lemma3_growth stays out: near the roundoff floor it can report a
    # violation on quads with few rows (ROADMAP item 1)
    quad, x0 = case
    big_r, nu = quad.constants.R, quad.constants.nu  # L = R on a quad
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    runs = [
        (SolverConfig(1.0 / (2.0 * big_r), 300), ("thm2_linear", "lemma1_part2", "lemma2_combined")),
        (SolverConfig(1.0 / big_r, 300), ("thm1_sublinear", "thm3_linear")),
        (SolverConfig(1.0 / big_r, 300, variant="nesterov"), ("thm4_accel",)),
        (SolverConfig(1.0 / big_r, 2 * k_len + 1, variant="restart_fixed", restart_every=k_len),
         ("thm6_restart",)),
    ]
    for cfg, theorems in runs:
        trace = run_solver(quad, x0, cfg)
        for theorem in theorems:
            report = check_bounds(trace, quad, theorem, cfg)
            assert report.passed and report.n_checked > 0, report


def _outcome(trace, quad, theorem, cfg) -> str:
    """One check's report as JSON, or the message of its refusal."""
    try:
        return check_bounds(trace, quad, theorem, cfg).to_json()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(theorem_quads())
def test_every_check_reads_the_same_from_the_trace_csv(tmp_path_factory, case):
    quad, x0 = case
    big_r, nu = quad.constants.R, quad.constants.nu
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    path = tmp_path_factory.getbasetemp() / "checks.csv"
    for cfg in (
        SolverConfig(1.0 / (2.0 * big_r), 200),
        SolverConfig(1.0 / big_r, 200, variant="nesterov"),
        SolverConfig(1.0 / big_r, 2 * k_len + 1, variant="restart_fixed", restart_every=k_len),
        SolverConfig(1.0 / big_r, 200, variant="adaptive", policy="restart"),
        SolverConfig(1.0 / big_r, 200, variant="adaptive", policy="skip"),
    ):
        trace = run_solver(quad, x0, cfg)
        path.write_text(trace.to_csv(), encoding="ascii")
        back = load_trace_csv(path)
        for theorem in THEOREM_IDS:
            assert _outcome(back, quad, theorem, cfg) == _outcome(trace, quad, theorem, cfg), (
                cfg, theorem)


# repr writes every NaN as "nan", so the canonical NaN is the one a CSV can carry
_CSV_FLOATS = st.floats(allow_nan=False) | st.just(math.nan)


@st.composite
def csv_traces(draw):
    """A hand-built trace of 1-60 records over every float, event, status and optional field."""
    n = draw(st.integers(1, 60))
    column = st.lists(_CSV_FLOATS, min_size=n, max_size=n).map(np.array)
    return SolverTrace(
        f=draw(column),
        grad_norm=draw(column),
        dist_to_sol=draw(st.none() | column),
        reset_event=tuple(draw(st.lists(st.sampled_from(["none", "restart", "skip"]),
                                        min_size=n, max_size=n))),
        status=draw(st.sampled_from(["max_iters", "tol_reached", "diverged"])),
        f_star=draw(st.none() | _CSV_FLOATS),
        n_evals=draw(st.none() | st.integers(0, 10**9)),
        secant=draw(st.none() | column),
    )


def _assert_reads_back(trace, path):
    path.write_text(trace.to_csv(), encoding="ascii")
    back = load_trace_csv(path)

    def bits(value):
        return None if value is None else np.asarray(value, dtype=float).tobytes()

    for name in ("f", "grad_norm", "dist_to_sol", "secant", "f_star"):
        assert bits(getattr(back, name)) == bits(getattr(trace, name)), name
    assert back.reset_event == trace.reset_event
    assert (back.status, back.n_evals, back.iterates) == (trace.status, trace.n_evals, None)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(csv_traces())
def test_hand_built_trace_reads_back_from_its_csv(tmp_path_factory, trace):
    _assert_reads_back(trace, tmp_path_factory.getbasetemp() / "roundtrip.csv")


@pytest.mark.parametrize(
    "variant, extra",
    [("gd", {}), ("nesterov", {}), ("restart_fixed", {"restart_every": 25}),
     ("adaptive", {"policy": "restart"}), ("adaptive", {"policy": "skip"})],
)
def test_solver_trace_reads_back_from_its_csv(tmp_path, quad_20x50, variant, extra):
    cfg = SolverConfig(1.0 / quad_20x50.constants.R, 300, variant=variant, **extra)
    _assert_reads_back(run_solver(quad_20x50, np.ones(50), cfg), tmp_path / "trace.csv")
