"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings. Every tolerance is pinned here; timing limits are
asserted against wall-clock time of the criterion's core computation.
"""

import math
import time

import numpy as np
import pytest

from gradcert.certify import (
    appendix_grid,
    check_bounds,
    converse_secant,
    estimate_rsi,
    fit_rate,
)
from gradcert.numkit import GaussianStream
from gradcert.oracles import (
    make_example_1d,
    make_quadratic_composite,
)
from gradcert.solvers import (
    SolverConfig,
    run_solver,
    theta_step,
)
from gradcert.sparse_recovery import gen_sparse_problem, recover
from conftest import finite_diff_check, sample_avoiding, seeded_quad

SLACK = 1.0 + 1e-9
SQRT2 = math.sqrt(2.0)
QUAD_SEEDS = (11, 12, 13, 14, 15)


def _verdict(cid, elapsed, detail=""):
    print(f"\nACCEPTANCE {cid}: PASS ({elapsed:.3f}s) {detail}")


@pytest.fixture(scope="module")
def quads():
    return [seeded_quad(s, 20, 50) for s in QUAD_SEEDS]


def test_c01_theta_sequence():
    n = 10**5
    t0 = time.perf_counter()
    thetas = np.empty(n + 1)
    thetas[0] = 1.0
    theta = 1.0
    for k in range(n):
        theta, _ = theta_step(theta)
        thetas[k + 1] = theta
    ks = np.arange(1, n + 1)
    assert np.all(thetas[1:] < 2.0 / (ks + 2))
    identity_residual = np.abs(thetas[1:] ** 2 - (1.0 - thetas[1:]) * thetas[:-1] ** 2)
    assert float(identity_residual.max()) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    _verdict("c01 theta-sequence", elapsed, f"max identity residual {identity_residual.max():.2e}")


def test_c02_theorem2_linear_rate(quads):
    t0 = time.perf_counter()
    worst_ratio_margin = math.inf
    for oracle in quads:
        seed_t0 = time.perf_counter()
        nu, big_r = oracle.constants.nu, oracle.constants.R
        cfg = SolverConfig(stepsize_h=1.0 / (2.0 * big_r), max_iters=4000, variant="gd")
        tr = run_solver(oracle, np.zeros(50), cfg)
        r = tr.dist_to_sol
        below = np.nonzero(r < 1e-12)[0]
        assert below.size, "run never reached the 1e-12 solution-error floor"
        stop = int(below[0])
        rho = math.sqrt(1.0 - nu / (2.0 * big_r))
        ratios = r[1 : stop + 1] / r[:stop]
        assert np.all(ratios <= rho * SLACK)
        worst_ratio_margin = min(worst_ratio_margin, float(np.min(rho - ratios)))
        envelope = 0.5 * big_r * r[0] ** 2 * (1.0 - nu / (2.0 * big_r)) ** np.arange(stop + 1)
        assert np.all(tr.gap[: stop + 1] <= envelope * SLACK)
        assert time.perf_counter() - seed_t0 < 1.0
    _verdict("c02 thm2 linear rate", time.perf_counter() - t0,
             f"5 seeds, min bound margin {worst_ratio_margin:.3e}")


def test_c03_theorem3_linear_rate(quads):
    t0 = time.perf_counter()
    for oracle in quads:
        nu, lip = oracle.constants.nu, oracle.constants.L
        cfg = SolverConfig(stepsize_h=1.0 / lip, max_iters=2500, variant="gd")
        tr = run_solver(oracle, np.zeros(50), cfg)
        r = tr.dist_to_sol
        keep = r[:-1] >= 1e-12
        rho = math.sqrt(1.0 - nu / lip)
        assert np.all(r[1:][keep] <= rho * r[:-1][keep] * SLACK)
        report = check_bounds(tr, oracle, "thm3_linear", cfg)
        assert report.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict("c03 thm3 linear rate", elapsed, "5 seeds")


def test_c04_theorem1_sublinear(quads):
    t0 = time.perf_counter()
    for oracle in quads[:1]:
        big_r = oracle.constants.R
        cfg = SolverConfig(stepsize_h=1.0 / big_r, max_iters=10_000, variant="gd")
        tr = run_solver(oracle, 100.0 * np.ones(50), cfg)
        gap = tr.gap
        r0 = tr.dist_to_sol[0]
        ks = tr.k
        bound = 1.0 / (1.0 / gap[0] + ks / (2.0 * big_r * r0**2))
        resolvable = bound >= gap[0] * 1e-15
        assert np.all(gap[resolvable] <= bound[resolvable] * SLACK)
        increases = np.diff(tr.dist_to_sol)
        assert np.all(increases <= 1e-13 * max(1.0, r0))  # monotone up to roundoff floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict("c04 thm1 sublinear", elapsed, "10^4 iterations")


def test_c05_theorem4_accelerated(quads):
    t0 = time.perf_counter()
    for oracle in quads:
        big_r = oracle.constants.R
        cfg = SolverConfig(stepsize_h=1.0 / big_r, max_iters=5000, variant="nesterov")
        tr = run_solver(oracle, np.zeros(50), cfg)
        gap = tr.gap
        r1 = tr.dist_to_sol[1]
        ks = tr.k[1:]
        bound = 4.0 * big_r * r1**2 / (ks + 1.0) ** 2
        assert np.all(gap[1:] <= bound * SLACK)
        assert check_bounds(tr, oracle, "thm4_accel", cfg).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _verdict("c05 thm4 accelerated bound", elapsed, "5 seeds, k <= 5000")


def test_c06_theorem6_restart(quads):
    t0 = time.perf_counter()
    for oracle in quads:
        nu, big_r = oracle.constants.nu, oracle.constants.R
        k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
        cfg = SolverConfig(
            stepsize_h=1.0 / big_r,
            max_iters=20 * k_len + 1,
            variant="restart_fixed",
            restart_every=k_len,
        )
        tr = run_solver(oracle, np.zeros(50), cfg)
        gap = tr.gap
        for j in range(21):
            k = j * k_len
            if k >= len(tr):
                break
            bound = math.exp(-j) * gap[0]
            if bound < gap[0] * 1e-15:
                break  # below fp resolution of the objective
            assert gap[k] <= bound * SLACK, (j, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _verdict("c06 thm6 fixed restart", elapsed, "epoch decay e^-j, 20 epochs, 5 seeds")


def test_c07_appendix_grid():
    t0 = time.perf_counter()
    opt = appendix_grid(1.0, 0.5, 2000)
    assert abs(opt.theta_star - 0.5) <= 1.0 / 2000 + 1e-12
    assert abs(opt.h_star - 0.5) <= 0.5 / 2000 + 1e-12
    assert abs(opt.min_value - 0.75) <= 1e-6
    stream = GaussianStream(99)
    for _ in range(10):
        big_r = 0.5 + 4.0 * float(stream.uniform(1)[0])
        nu = (0.05 + 0.9 * float(stream.uniform(1)[0])) * 2.0 * big_r
        opt = appendix_grid(big_r, nu, 1000)
        closed = 1.0 - nu / (2.0 * big_r)
        assert abs(opt.min_value - closed) <= 1e-6
        assert opt.min_value >= closed - 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _verdict("c07 appendix grid", elapsed, "reference + 10 random (R, nu) pairs")


def test_c08_rsi_constants():
    t0 = time.perf_counter()
    est1 = estimate_rsi(make_example_1d("f1"), (0.0, 10.0), 10**5)
    want1 = 2.0 / (4.0 - SQRT2)
    assert abs(est1.value - want1) <= 0.01 * want1
    est2 = estimate_rsi(make_example_1d("f2"), (0.0, 10.0), 10**5)
    want2 = math.sqrt((SQRT2 - 1.0) / 2.0)
    assert abs(est2.value - want2) <= 0.01 * want2
    est3 = estimate_rsi(make_example_1d("f3", beta=1.0), (-5.0, 5.0), 10**5)
    assert abs(est3.value - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _verdict("c08 secant constants", elapsed,
             f"f1 {est1.value:.4f}, f2 {est2.value:.4f}, f3 {est3.value:.10f}")


def test_c09_converse_necessity():
    t0 = time.perf_counter()
    sq = make_quadratic_composite(
        GaussianStream(5).normal((12, 12)), GaussianStream(6).normal(12)
    )
    h = 1.0 / (2.0 * sq.constants.R)
    cfg = SolverConfig(stepsize_h=h, max_iters=250, variant="gd")
    tr = run_solver(sq, np.ones(12), cfg)
    est = converse_secant(tr, sq, h)  # raises if the secant inequality fails
    assert est.value > 0
    report = check_bounds(tr, sq, "thm2_converse", cfg)
    assert report.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict("c09 converse necessity", elapsed, f"nu_hat {est.value:.6f}")


def test_c10_recovery_test2():
    t0 = time.perf_counter()
    budget = 200_000
    # (a) all four variants reach rel error < 1e-6 within the budget
    problem = gen_sparse_problem(1, 256, 512, 25, "pm_one")
    assert problem.alpha == 10.0  # max |x| = 1 forces alpha = 10
    gd_result = None
    iters_to_tol = {}
    evals = {}
    for variant in ("gd", "nesterov", "restart", "skip"):
        res = recover(problem, variant, max_iters=budget)
        k6 = res.iterations_to(1e-6)
        assert k6 is not None and k6 <= budget, variant
        iters_to_tol[variant] = k6
        evals[variant] = res.dual_trace.n_evals
        if variant == "gd":
            gd_result = res
    # (b) both adaptive policies beat plain acceleration on >= 4 of 5 seeds
    wins_restart = wins_skip = 0
    for seed in range(1, 6):
        p = gen_sparse_problem(seed, 256, 512, 25, "pm_one")
        iters = {v: recover(p, v, max_iters=budget).iters for v in ("nesterov", "restart", "skip")}
        wins_restart += iters["restart"] < iters["nesterov"]
        wins_skip += iters["skip"] < iters["nesterov"]
    assert wins_restart >= 4
    assert wins_skip >= 4
    # (c) the dual gap of the plain-descent run decays geometrically
    cfg = SolverConfig(stepsize_h=1.0, max_iters=1, variant="gd")  # h unused by this check
    report = check_bounds(gd_result.dual_trace, problem.dual, "thm8_augl1", cfg)
    assert report.passed
    f_star = float(np.min(gd_result.dual_trace.f))
    gaps_pos = np.nonzero(gd_result.dual_trace.f - f_star <= 0)[0]
    end = int(gaps_pos[0]) - 1
    fit = fit_rate(gd_result.dual_trace, "linear_geometric", (end // 2, end))
    assert fit.fitted_factor < 1.0
    assert fit.r_squared > 0.95
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict("c10 recovery (test 2)", elapsed,
             f"iters to 1e-6 {iters_to_tol}; oracle calls per run {evals}; "
             f"restart wins {wins_restart}/5, "
             f"skip wins {wins_skip}/5; dual-gap rho {fit.fitted_factor:.4f} "
             f"r2 {fit.r_squared:.4f}")


def test_c10_recovery_test1():
    t0 = time.perf_counter()
    problem = gen_sparse_problem(1, 256, 512, 25, "gaussian")
    assert problem.A.shape == (256, 512)
    assert np.count_nonzero(problem.x_true) == 25
    assert problem.alpha == pytest.approx(10.0 * np.max(np.abs(problem.x_true)))
    assert np.linalg.norm(problem.b - problem.A @ problem.x_true) <= 1e-12 * np.linalg.norm(
        problem.b
    )
    # the reset heuristics stay effective on Gaussian amplitudes
    res = recover(problem, "skip", max_iters=200_000)
    k6 = res.iterations_to(1e-6)
    assert k6 is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict("c10 recovery (test 1)", elapsed, f"skip reached 1e-6 at iteration {k6}")


def test_c11_oracle_integrity(quads):
    t0 = time.perf_counter()
    f1 = make_example_1d("f1")
    f2 = make_example_1d("f2")
    f3 = make_example_1d("f3", beta=1.0)
    quad = quads[0]
    dual_problem = gen_sparse_problem(8, 8, 16, 3, "pm_one")
    dual = dual_problem.dual

    # gradient checks at 200 kink-avoiding points per zoo member
    pts_f1 = sample_avoiding(-2.0, 10.0, 260, [0.0, 1.0, 2.0 - SQRT2 / 2], 0.1)[:200]
    assert finite_diff_check(f1, pts_f1.reshape(-1, 1)) < 1e-6
    pts_f2 = sample_avoiding(-2.0, 10.0, 260, [0.0, SQRT2 / 2, 1.0], 0.05)[:200]
    assert finite_diff_check(f2, pts_f2.reshape(-1, 1)) < 1e-6
    pts_f3 = sample_avoiding(-5.0, 5.0, 260, [-1.0, 1.0], 0.05)[:200]
    assert finite_diff_check(f3, pts_f3.reshape(-1, 1)) < 1e-6
    assert finite_diff_check(quad, GaussianStream(51).normal((200, 50))) < 1e-6
    dual_pts = []
    stream = GaussianStream(52)
    while len(dual_pts) < 200:
        y = stream.normal(8)
        if np.min(np.abs(np.abs(dual_problem.A.T @ y) - 1.0)) > 1e-3:  # off shrink kinks
            dual_pts.append(y)
    assert finite_diff_check(dual, dual_pts) < 1e-6

    # secant and growth inequalities at 10^4 samples on projectable oracles
    n = 10**4
    for oracle, lo, hi in ((f1, 0.0, 10.0), (f2, 0.0, 10.0), (f3, -5.0, 5.0)):
        xs = np.linspace(lo, hi, n).reshape(-1, 1)
        vals, grads = oracle.eval_batch(xs)
        finite = np.isfinite(grads[:, 0])
        prj = oracle.project(xs)
        d = xs - prj
        dn2 = (d**2).sum(axis=1)
        keep = (np.sqrt(dn2) > 1e-8) & finite
        inner = (grads * d).sum(axis=1)
        nu = oracle.constants.nu
        assert np.all(inner[keep] * SLACK >= nu * dn2[keep])
        assert np.all((vals[keep] - oracle.f_star) * SLACK >= 0.5 * nu * dn2[keep])
    pts = GaussianStream(53).normal((n, 50))
    vals, grads = quad.eval_batch(pts)
    prj = quad.project(pts)
    d = pts - prj
    dn2 = (d**2).sum(axis=1)
    inner = (grads * d).sum(axis=1)
    keep = np.sqrt(dn2) > 1e-8
    assert np.all(inner[keep] * SLACK >= quad.constants.nu * dn2[keep])
    assert np.all((vals[keep] - quad.f_star) * SLACK >= 0.5 * quad.constants.nu * dn2[keep])

    # descent lemma part 2 on the convex members with a known restricted constant
    for oracle, sample in ((f3, np.linspace(-5, 5, n).reshape(-1, 1)), (quad, pts)):
        _, grads = oracle.eval_batch(sample)
        prj = oracle.project(sample)
        inner = (grads * (sample - prj)).sum(axis=1)
        lhs = (grads**2).sum(axis=1) / (2.0 * oracle.constants.R)
        assert np.all(lhs <= inner * SLACK + 1e-15)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _verdict("c11 oracle integrity", elapsed, "5 zoo members, 10^4-point inequality sweeps")
