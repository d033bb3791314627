import dataclasses
import io
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from gradcert.oracles import make_example_1d, make_quadratic_composite
from gradcert.solvers import (
    SolverConfig,
    gradient_descent,
    load_trace_csv,
    nesterov,
    nesterov_adaptive,
    nesterov_restart_fixed,
    run_solver,
    theta_step,
)
from conftest import seeded_quad


def unit_quad():
    return make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))


def test_theta_step_first_value():
    t, b = theta_step(1.0)
    assert t == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    assert b == 0.0


def test_theta_step_range_check():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            theta_step(bad)


def test_theta_upper_bound_k100():
    theta = 1.0
    for _ in range(100):
        theta, _ = theta_step(theta)
    assert theta < 2.0 / 102.0


def test_theta_recursion_identity_long():
    theta = 1.0
    for _ in range(10_000):
        t_next, _ = theta_step(theta)
        assert abs(t_next**2 - (1.0 - t_next) * theta**2) <= 1e-12
        theta = t_next


def test_theta_matches_high_precision():
    # 50-digit decimal recomputation of the first 50 terms
    getcontext().prec = 50
    ref = Decimal(1)
    theta = 1.0
    for _ in range(50):
        root = (ref * ref + 4).sqrt()
        ref = ref * (root - ref) / 2
        theta, _ = theta_step(theta)
        assert abs(theta - float(ref)) <= 1e-14 * float(ref)


def test_theta_beta_consistent_with_direct_formula():
    theta = 1.0
    for _ in range(200):
        t_next, b_next = theta_step(theta)
        direct_beta = (1.0 - theta) * (math.sqrt(theta**2 + 4.0) - theta) / 2.0
        assert b_next == pytest.approx(direct_beta, rel=1e-13, abs=1e-15)
        theta = t_next


def test_gd_unit_quad_one_exact_step():
    cfg = SolverConfig(stepsize_h=1.0, max_iters=100, variant="gd")
    tr = gradient_descent(unit_quad(), np.array([5.0]), cfg)
    assert len(tr) == 2 and tr.status == "tol_reached"
    assert tr.f[1] == 0.0 and tr.grad_norm[1] == 0.0


def test_gd_f3_hand_sequence():
    f3 = make_example_1d("f3", beta=1.0)
    cfg = SolverConfig(stepsize_h=0.5, max_iters=6, variant="gd")
    tr = gradient_descent(f3, np.array([3.0]), cfg)
    xs = [float(x[0]) for x in tr.iterates]
    assert xs[:4] == [3.0, 2.0, 1.5, 1.25]
    r = tr.dist_to_sol
    assert np.allclose(r[:4], [2.0, 1.0, 0.5, 0.25])
    ratios = r[1:] / r[:-1]
    assert np.all(ratios <= math.sqrt(0.5) + 1e-12)


def test_gd_linear_contraction_seeded(quad_20x50):
    nu, big_r = quad_20x50.constants.nu, quad_20x50.constants.R
    cfg = SolverConfig(stepsize_h=1.0 / (2.0 * big_r), max_iters=400, variant="gd")
    tr = gradient_descent(quad_20x50, np.zeros(50), cfg)
    r = tr.dist_to_sol
    keep = r[:-1] >= 1e-12
    rho = math.sqrt(1.0 - nu / (2.0 * big_r))
    assert np.all(r[1:][keep] <= rho * r[:-1][keep] * (1 + 1e-9))


def test_gd_monotone_descent(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=300, variant="gd")
    tr = gradient_descent(quad_20x50, 10 * np.ones(50), cfg)
    assert np.all(np.diff(tr.f) <= 1e-12 * np.maximum(1.0, tr.f[:-1]))


def test_gd_distance_nonincreasing(quad_20x50):
    cfg = SolverConfig(stepsize_h=0.7 / quad_20x50.constants.R, max_iters=500, variant="gd")
    tr = gradient_descent(quad_20x50, 10 * np.ones(50), cfg)
    r = tr.dist_to_sol
    # exact monotonicity until the projection roundoff floor; the slack
    # covers only that floor
    assert np.all(np.diff(r) <= 1e-13 * max(1.0, r[0]))


def test_gd_deterministic_bitwise(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=50, variant="gd")
    t1 = gradient_descent(quad_20x50, np.ones(50), cfg)
    t2 = gradient_descent(quad_20x50, np.ones(50), cfg)
    assert np.array_equal(t1.f, t2.f)
    assert all(np.array_equal(a, b) for a, b in zip(t1.iterates, t2.iterates))


def test_gd_divergence_guard(quad_20x50):
    cfg = SolverConfig(stepsize_h=1000.0 / quad_20x50.constants.R, max_iters=5000, variant="gd")
    tr = gradient_descent(quad_20x50, np.ones(50), cfg)
    assert tr.status == "diverged"
    assert np.all(np.isfinite(tr.f))
    assert len(tr) < 5001


def test_grad_tol_stopping(quad_20x50):
    cfg = SolverConfig(
        stepsize_h=1.0 / quad_20x50.constants.R, max_iters=10_000, grad_tol=1e-6, variant="gd"
    )
    tr = gradient_descent(quad_20x50, np.ones(50), cfg)
    assert tr.status == "tol_reached"
    assert tr.grad_norm[-1] <= 1e-6
    assert np.all(tr.grad_norm[:-1] > 1e-6)


def test_variant_mismatch_rejected(quad_20x50):
    cfg = SolverConfig(stepsize_h=0.1, max_iters=5, variant="nesterov")
    with pytest.raises(ValueError):
        gradient_descent(quad_20x50, np.zeros(50), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=0.0, max_iters=5)
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=5, variant="restart_fixed")
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=5, variant="adaptive", policy="bogus")


def _reference_nesterov(grad, x0, h, n):
    """Verbatim transcript of the accelerated scheme, original formula forms."""
    theta = 1.0
    x = x0.copy()
    y = x0.copy()
    xs = [x0.copy()]
    for _ in range(n):
        g = grad(y)
        x_next = y - h * g
        beta = (1.0 - theta) * (math.sqrt(theta**2 + 4.0) - theta) / 2.0
        y = x_next + beta * (x_next - x)
        theta = theta * (math.sqrt(theta**2 + 4.0) - theta) / 2.0
        xs.append(x_next)
        x = x_next
    return xs


def test_nesterov_first_iteration_is_gradient_step(quad_20x50):
    h = 1.0 / quad_20x50.constants.R
    cfg = SolverConfig(stepsize_h=h, max_iters=1, variant="nesterov")
    x0 = np.ones(50)
    tr = nesterov(quad_20x50, x0, cfg)
    _, g0 = quad_20x50.eval(x0)
    assert np.array_equal(tr.iterates[1], x0 - h * g0)


def test_nesterov_matches_reference_transcript():
    a = np.diag([1.0, 3.0])
    quad = make_quadratic_composite(a, np.zeros(2))
    h = 1.0 / quad.constants.R
    x0 = np.array([5.0, 1.0])
    cfg = SolverConfig(stepsize_h=h, max_iters=40, variant="nesterov")
    tr = nesterov(quad, x0, cfg)
    ref = _reference_nesterov(lambda v: a.T @ (a @ v), x0, h, 40)
    for got, want in zip(tr.iterates, ref):
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_nesterov_unit_quad_converges():
    cfg = SolverConfig(stepsize_h=1.0, max_iters=50, variant="nesterov")
    tr = nesterov(unit_quad(), np.array([5.0]), cfg)
    assert tr.status == "tol_reached"
    assert tr.f[-1] <= 1e-20


def test_restart_full_interval_equals_plain(quad_20x50):
    h = 1.0 / quad_20x50.constants.R
    cfg_n = SolverConfig(stepsize_h=h, max_iters=120, variant="nesterov")
    cfg_r = SolverConfig(stepsize_h=h, max_iters=120, variant="restart_fixed", restart_every=120)
    tn = nesterov(quad_20x50, np.zeros(50), cfg_n)
    tr = nesterov_restart_fixed(quad_20x50, np.zeros(50), cfg_r)
    assert np.array_equal(tn.f, tr.f)
    assert all(np.array_equal(a, b) for a, b in zip(tn.iterates, tr.iterates))
    assert all(e == "none" for e in tr.reset_event)


def test_restart_every_step_equals_gd(quad_20x50):
    h = 1.0 / (2.0 * quad_20x50.constants.R)
    cfg_1 = SolverConfig(stepsize_h=h, max_iters=60, variant="restart_fixed", restart_every=1)
    cfg_g = SolverConfig(stepsize_h=h, max_iters=60, variant="gd")
    t1 = nesterov_restart_fixed(quad_20x50, np.ones(50), cfg_1)
    tg = gradient_descent(quad_20x50, np.ones(50), cfg_g)
    for a, b in zip(t1.iterates, tg.iterates):
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_restart_marks_epoch_boundaries(quad_20x50):
    h = 1.0 / quad_20x50.constants.R
    cfg = SolverConfig(stepsize_h=h, max_iters=50, variant="restart_fixed", restart_every=10)
    tr = nesterov_restart_fixed(quad_20x50, np.ones(50), cfg)
    marked = [i for i, e in enumerate(tr.reset_event) if e == "restart"]
    assert marked == [10, 20, 30, 40]


def test_restart_epoch_decay(quad_20x50):
    nu, big_r = quad_20x50.constants.nu, quad_20x50.constants.R
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    cfg = SolverConfig(
        stepsize_h=1.0 / big_r,
        max_iters=10 * k_len,
        variant="restart_fixed",
        restart_every=k_len,
    )
    tr = nesterov_restart_fixed(quad_20x50, np.zeros(50), cfg)
    gap = tr.gap
    for j in range(1, 1 + len(tr) // k_len if len(tr) > k_len else 1):
        k = j * k_len
        if k < len(tr):
            assert gap[k] <= math.exp(-j) * gap[0] * (1 + 1e-9)


def _reference_adaptive(grad, x0, h, n, policy):
    theta = 1.0
    x = x0.copy()
    y = x0.copy()
    xs = [x0.copy()]
    events = ["none"]
    prev_y = None
    prev_g = None
    for _ in range(n):
        g = grad(y)
        fired = prev_y is not None and float(prev_g @ (y - prev_y)) > 0.0
        x_next = y - h * g
        if fired and policy == "restart":
            theta = 1.0
        if fired:
            beta = 0.0
        else:
            beta = (1.0 - theta) * (math.sqrt(theta**2 + 4.0) - theta) / 2.0
        prev_y, prev_g = y, g
        y = x_next + beta * (x_next - x)
        theta = theta * (math.sqrt(theta**2 + 4.0) - theta) / 2.0
        xs.append(x_next)
        events.append(policy if fired else "none")
        x = x_next
    return xs, events


@pytest.mark.parametrize("policy", ["restart", "skip"])
def test_adaptive_matches_reference_transcript(policy):
    a = np.diag([1.0, 3.0])
    quad = make_quadratic_composite(a, np.zeros(2))
    h = 1.0 / quad.constants.R
    x0 = np.array([5.0, 1.0])
    cfg = SolverConfig(stepsize_h=h, max_iters=60, variant="adaptive", policy=policy)
    tr = nesterov_adaptive(quad, x0, cfg)
    ref_xs, ref_events = _reference_adaptive(lambda v: a.T @ (a @ v), x0, h, 60, policy)
    assert list(tr.reset_event) == ref_events[: len(tr)]
    assert any(e == policy for e in tr.reset_event)  # triggers actually fire
    for got, want in zip(tr.iterates, ref_xs):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_adaptive_restart_no_slower_than_plain_on_most_seeds():
    wins = 0
    for seed in (11, 12, 13, 14, 15):
        oracle = seeded_quad(seed, 20, 50)
        h = 1.0 / oracle.constants.R
        cfg_a = SolverConfig(
            stepsize_h=h, max_iters=20_000, grad_tol=1e-10, variant="adaptive", policy="restart"
        )
        cfg_n = SolverConfig(stepsize_h=h, max_iters=20_000, grad_tol=1e-10, variant="nesterov")
        ta = nesterov_adaptive(oracle, np.zeros(50), cfg_a)
        tn = nesterov(oracle, np.zeros(50), cfg_n)
        assert ta.status == tn.status == "tol_reached"
        wins += len(ta) <= len(tn)
    assert wins >= 4


def test_adaptive_without_triggers_equals_nesterov():
    # monotone 1-D descent: momentum never points uphill, trigger never fires
    f3 = make_example_1d("f3", beta=1.0)
    cfg_a = SolverConfig(stepsize_h=0.4, max_iters=80, variant="adaptive", policy="restart")
    cfg_n = SolverConfig(stepsize_h=0.4, max_iters=80, variant="nesterov")
    ta = nesterov_adaptive(f3, np.array([3.0]), cfg_a)
    tn = nesterov(f3, np.array([3.0]), cfg_n)
    assert all(e == "none" for e in ta.reset_event)
    assert np.array_equal(ta.f, tn.f)


def test_adaptive_skip_leaves_theta_untouched():
    # a skip run's extrapolation weights between triggers must match the
    # undisturbed dampening recursion; verified via the reference transcript
    a = np.diag([1.0, 4.0])
    quad = make_quadratic_composite(a, np.zeros(2))
    h = 1.0 / quad.constants.R
    cfg = SolverConfig(stepsize_h=h, max_iters=100, variant="adaptive", policy="skip")
    tr = nesterov_adaptive(quad, np.array([3.0, 1.0]), cfg)
    ref_xs, ref_events = _reference_adaptive(
        lambda v: a.T @ (a @ v), np.array([3.0, 1.0]), h, 100, "skip"
    )
    assert list(tr.reset_event) == ref_events[: len(tr)]
    for got, want in zip(tr.iterates, ref_xs):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_trace_csv_roundtrip(tmp_path, quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=30, variant="gd")
    tr = gradient_descent(quad_20x50, np.ones(50), cfg)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    back = load_trace_csv(path)
    assert np.array_equal(back.f, tr.f)
    assert np.array_equal(back.grad_norm, tr.grad_norm)
    assert np.array_equal(back.dist_to_sol, tr.dist_to_sol)
    assert back.reset_event == tr.reset_event
    assert back.f_star == tr.f_star
    assert tr.n_evals == len(tr)
    assert back.n_evals is None  # the CSV does not carry the oracle-call count


def test_trace_csv_header_and_blanks():
    # the dual oracle has neither f_star nor projection, so those columns stay blank
    from gradcert.oracles import make_augl1_dual
    from gradcert.numkit import GaussianStream

    a = GaussianStream(3).normal((3, 8))
    dual = make_augl1_dual(a, a @ np.ones(8), 2.0)
    cfg = SolverConfig(stepsize_h=1.0 / dual.constants.L, max_iters=5, variant="gd")
    tr = gradient_descent(dual, np.zeros(3), cfg)
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,f,fgap,grad_norm,dist_to_sol,reset_event"
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""  # fgap and dist blank


def test_callback_sees_every_record(quad_20x50):
    seen = []
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=20, variant="nesterov")
    nesterov(
        quad_20x50,
        np.ones(50),
        cfg,
        callback=lambda k, x, f, g: seen.append((k, f)),
        keep_iterates=False,
    )
    assert [k for k, _ in seen] == list(range(21))


def test_keep_iterates_off(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=10, variant="gd")
    tr = gradient_descent(quad_20x50, np.ones(50), cfg, keep_iterates=False)
    assert tr.iterates is None
    assert len(tr) == 11


def _counting(oracle):
    calls = []

    def eval_(x):
        calls.append(1)
        return oracle.eval(x)

    return dataclasses.replace(oracle, eval=eval_), calls


@pytest.mark.parametrize(
    "variant, extra",
    [
        ("gd", {}),
        ("gd", {"grad_tol": 1e-3}),
        ("nesterov", {}),
        ("restart_fixed", {"restart_every": 7}),
        ("adaptive", {"policy": "restart"}),
        ("adaptive", {"policy": "skip"}),
    ],
)
def test_n_evals_counts_every_oracle_call(quad_20x50, variant, extra):
    oracle, calls = _counting(quad_20x50)
    cfg = SolverConfig(1.0 / quad_20x50.constants.R, 200, variant=variant, **extra)
    tr = run_solver(oracle, np.ones(50), cfg, keep_iterates=False)
    assert tr.n_evals == len(calls)
    if variant == "gd":
        assert tr.n_evals == len(tr)
    else:
        assert len(tr) <= tr.n_evals <= 2 * len(tr) - 1


def test_n_evals_counts_the_diverging_call(quad_20x50):
    oracle, calls = _counting(quad_20x50)
    cfg = SolverConfig(3.0 / quad_20x50.constants.L, 10_000, variant="nesterov")
    tr = run_solver(oracle, np.ones(50), cfg, keep_iterates=False)
    assert tr.status == "diverged"
    assert tr.n_evals == len(calls)
