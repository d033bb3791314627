import dataclasses
import math
import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest

from gradcert.numkit import GaussianStream
from gradcert.oracles import Objective, make_example_1d, make_quadratic_composite
from gradcert.solvers import (
    SolverConfig,
    SolverTrace,
    _TraceBuilder,
    load_trace_csv,
    run_solver,
    theta_step,
)
from conftest import seeded_quad

HEADER = "k,f,fgap,grad_norm,dist_to_sol,secant,reset_event"


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
    tr = run_solver(unit_quad(), np.array([5.0]), cfg)
    assert len(tr) == 2 and tr.status == "tol_reached"
    assert tr.f[1] == 0.0 and tr.grad_norm[1] == 0.0


def test_gd_f3_hand_sequence():
    f3 = make_example_1d("f3", beta=1.0)
    cfg = SolverConfig(stepsize_h=0.5, max_iters=6, variant="gd")
    tr = run_solver(f3, np.array([3.0]), cfg)
    xs = [float(x[0]) for x in tr.iterates]
    assert xs[:4] == [3.0, 2.0, 1.5, 1.25]
    r = tr.dist_to_sol
    assert np.allclose(r[:4], [2.0, 1.0, 0.5, 0.25])
    ratios = r[1:] / r[:-1]
    assert np.all(ratios <= math.sqrt(0.5) + 1e-12)


def test_gd_linear_contraction_seeded(quad_20x50):
    nu, big_r = quad_20x50.constants.nu, quad_20x50.constants.R
    cfg = SolverConfig(stepsize_h=1.0 / (2.0 * big_r), max_iters=400, variant="gd")
    tr = run_solver(quad_20x50, np.zeros(50), cfg)
    r = tr.dist_to_sol
    keep = r[:-1] >= 1e-12
    rho = math.sqrt(1.0 - nu / (2.0 * big_r))
    assert np.all(r[1:][keep] <= rho * r[:-1][keep] * (1 + 1e-9))


def test_gd_monotone_descent(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=300, variant="gd")
    tr = run_solver(quad_20x50, 10 * np.ones(50), cfg)
    assert np.all(np.diff(tr.f) <= 1e-12 * np.maximum(1.0, tr.f[:-1]))


def test_gd_distance_nonincreasing(quad_20x50):
    cfg = SolverConfig(stepsize_h=0.7 / quad_20x50.constants.R, max_iters=500, variant="gd")
    tr = run_solver(quad_20x50, 10 * np.ones(50), cfg)
    r = tr.dist_to_sol
    # exact monotonicity until the projection roundoff floor; the slack
    # covers only that floor
    assert np.all(np.diff(r) <= 1e-13 * max(1.0, r[0]))


def test_gd_deterministic_bitwise(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=50, variant="gd")
    t1 = run_solver(quad_20x50, np.ones(50), cfg)
    t2 = run_solver(quad_20x50, np.ones(50), cfg)
    assert np.array_equal(t1.f, t2.f)
    assert all(np.array_equal(a, b) for a, b in zip(t1.iterates, t2.iterates))


def test_gd_divergence_guard(quad_20x50):
    cfg = SolverConfig(stepsize_h=1000.0 / quad_20x50.constants.R, max_iters=5000, variant="gd")
    tr = run_solver(quad_20x50, np.ones(50), cfg)
    assert tr.status == "diverged"
    assert np.all(np.isfinite(tr.f))
    assert len(tr) < 5001


def test_grad_tol_stopping(quad_20x50):
    cfg = SolverConfig(
        stepsize_h=1.0 / quad_20x50.constants.R, max_iters=10_000, grad_tol=1e-6, variant="gd"
    )
    tr = run_solver(quad_20x50, np.ones(50), cfg)
    assert tr.status == "tol_reached"
    assert tr.grad_norm[-1] <= 1e-6
    assert np.all(tr.grad_norm[:-1] > 1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=0.0, max_iters=5)
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=5, variant="restart_fixed")
    with pytest.raises(ValueError):
        SolverConfig(stepsize_h=1.0, max_iters=5, variant="adaptive", policy="bogus")
    for tol in (-1.0, math.nan):  # a NaN tolerance would never stop a run
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(stepsize_h=1.0, max_iters=5, grad_tol=tol)
    # a field the variant would ignore is rejected by name
    for variant, extra in (
        ("gd", {"restart_every": 3}),
        ("nesterov", {"restart_every": 3}),
        ("adaptive", {"policy": "skip", "restart_every": 3}),
    ):
        with pytest.raises(ValueError, match="restart_every"):
            SolverConfig(stepsize_h=1.0, max_iters=5, variant=variant, **extra)
    for variant, extra in (
        ("gd", {"policy": "skip"}),
        ("nesterov", {"policy": "restart"}),
        ("restart_fixed", {"restart_every": 3, "policy": "skip"}),
    ):
        with pytest.raises(ValueError, match="policy"):
            SolverConfig(stepsize_h=1.0, max_iters=5, variant=variant, **extra)


def test_infinite_grad_tol_stops_at_the_start(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0, max_iters=5, grad_tol=math.inf)
    tr = run_solver(quad_20x50, np.ones(50), cfg)
    assert tr.status == "tol_reached"
    assert len(tr) == 1 and tr.n_evals == 1


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
    tr = run_solver(quad_20x50, x0, cfg)
    _, g0 = quad_20x50.eval(x0)
    assert np.array_equal(tr.iterates[1], x0 - h * g0)


def test_nesterov_matches_reference_transcript():
    a = np.diag([1.0, 3.0])
    quad = make_quadratic_composite(a, np.zeros(2))
    h = 1.0 / quad.constants.R
    x0 = np.array([5.0, 1.0])
    cfg = SolverConfig(stepsize_h=h, max_iters=40, variant="nesterov")
    tr = run_solver(quad, x0, cfg)
    ref = _reference_nesterov(lambda v: a.T @ (a @ v), x0, h, 40)
    for got, want in zip(tr.iterates, ref):
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_nesterov_unit_quad_converges():
    cfg = SolverConfig(stepsize_h=1.0, max_iters=50, variant="nesterov")
    tr = run_solver(unit_quad(), np.array([5.0]), cfg)
    assert tr.status == "tol_reached"
    assert tr.f[-1] <= 1e-20


def test_restart_full_interval_equals_plain(quad_20x50):
    h = 1.0 / quad_20x50.constants.R
    cfg_n = SolverConfig(stepsize_h=h, max_iters=120, variant="nesterov")
    cfg_r = SolverConfig(stepsize_h=h, max_iters=120, variant="restart_fixed", restart_every=120)
    tn = run_solver(quad_20x50, np.zeros(50), cfg_n)
    tr = run_solver(quad_20x50, np.zeros(50), cfg_r)
    assert np.array_equal(tn.f, tr.f)
    assert all(np.array_equal(a, b) for a, b in zip(tn.iterates, tr.iterates))
    assert all(e == "none" for e in tr.reset_event)


def test_restart_every_step_equals_gd(quad_20x50):
    h = 1.0 / (2.0 * quad_20x50.constants.R)
    cfg_1 = SolverConfig(stepsize_h=h, max_iters=60, variant="restart_fixed", restart_every=1)
    cfg_g = SolverConfig(stepsize_h=h, max_iters=60, variant="gd")
    t1 = run_solver(quad_20x50, np.ones(50), cfg_1)
    tg = run_solver(quad_20x50, np.ones(50), cfg_g)
    for a, b in zip(t1.iterates, tg.iterates):
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_restart_marks_epoch_boundaries(quad_20x50):
    h = 1.0 / quad_20x50.constants.R
    cfg = SolverConfig(stepsize_h=h, max_iters=50, variant="restart_fixed", restart_every=10)
    tr = run_solver(quad_20x50, np.ones(50), cfg)
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
    tr = run_solver(quad_20x50, np.zeros(50), cfg)
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
    tr = run_solver(quad, x0, cfg)
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
        ta = run_solver(oracle, np.zeros(50), cfg_a)
        tn = run_solver(oracle, np.zeros(50), cfg_n)
        assert ta.status == tn.status == "tol_reached"
        wins += len(ta) <= len(tn)
    assert wins >= 4


def test_adaptive_without_triggers_equals_nesterov():
    # monotone 1-D descent: momentum never points uphill, trigger never fires
    f3 = make_example_1d("f3", beta=1.0)
    cfg_a = SolverConfig(stepsize_h=0.4, max_iters=80, variant="adaptive", policy="restart")
    cfg_n = SolverConfig(stepsize_h=0.4, max_iters=80, variant="nesterov")
    ta = run_solver(f3, np.array([3.0]), cfg_a)
    tn = run_solver(f3, np.array([3.0]), cfg_n)
    assert all(e == "none" for e in ta.reset_event)
    assert np.array_equal(ta.f, tn.f)


def test_adaptive_skip_leaves_theta_untouched():
    # a skip run's extrapolation weights between triggers must match the
    # undisturbed dampening recursion; verified via the reference transcript
    a = np.diag([1.0, 4.0])
    quad = make_quadratic_composite(a, np.zeros(2))
    h = 1.0 / quad.constants.R
    cfg = SolverConfig(stepsize_h=h, max_iters=100, variant="adaptive", policy="skip")
    tr = run_solver(quad, np.array([3.0, 1.0]), cfg)
    ref_xs, ref_events = _reference_adaptive(
        lambda v: a.T @ (a @ v), np.array([3.0, 1.0]), h, 100, "skip"
    )
    assert list(tr.reset_event) == ref_events[: len(tr)]
    for got, want in zip(tr.iterates, ref_xs):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_trace_csv_roundtrip(tmp_path, quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=30, variant="gd")
    tr = run_solver(quad_20x50, np.ones(50), cfg)
    path = tmp_path / "trace.csv"
    path.write_text(tr.to_csv(), encoding="ascii")
    back = load_trace_csv(path)
    assert np.array_equal(back.f, tr.f)
    assert np.array_equal(back.grad_norm, tr.grad_norm)
    assert np.array_equal(back.dist_to_sol, tr.dist_to_sol)
    assert np.array_equal(back.secant, tr.secant)
    assert back.reset_event == tr.reset_event
    assert back.f_star == tr.f_star
    assert tr.n_evals == len(tr)
    assert back.n_evals == tr.n_evals and back.status == tr.status


@pytest.mark.parametrize(
    "run_line",
    ["# status=max_iters", "# status=max_iters f_star=half n_evals=3",
     "# status=max_iters f_star=0.5 n_evals=-1", "#status=max_iters f_star=0.5 n_evals=3",
     # a file written before the run line and the secant column starts with this header
     "k,f,fgap,grad_norm,dist_to_sol,reset_event"],
)
def test_load_trace_csv_rejects_malformed_run_line(tmp_path, run_line):
    path = tmp_path / "trace.csv"
    path.write_text(f"{run_line}\n{HEADER}\n0,1.0,,2.0,,,none\n")
    with pytest.raises(ValueError) as info:
        load_trace_csv(path)
    assert str(info.value) == f"{path} line 1: unrecognized run line {run_line!r}"


@pytest.mark.parametrize(
    "second_row, message",
    [
        ("1,0.5,0.5,1.0", "expected 7 fields, got 4"),
        ("1,0.5,half,1.0,,,none", "non-numeric field in '1,0.5,half,1.0,,,none'"),
        ("1,0.5,,1.0,,,none", "fgap, dist_to_sol or secant is blank on some rows only"),
        ("1,0.5,0.5,1.0,0.25,,none", "fgap, dist_to_sol or secant is blank on some rows only"),
        ("1,0.5,0.5,1.0,,0.5,none", "fgap, dist_to_sol or secant is blank on some rows only"),
    ],
)
def test_load_trace_csv_rejects_malformed_rows(tmp_path, second_row, message):
    path = tmp_path / "trace.csv"
    run_line = "# status=max_iters f_star=0.0 n_evals=2"
    path.write_text(f"{run_line}\n{HEADER}\n0,1.0,1.0,2.0,,,none\n{second_row}\n")
    with pytest.raises(ValueError) as info:
        load_trace_csv(path)
    assert str(info.value) == f"{path} line 4: {message}"


def test_trace_csv_header_and_blanks():
    # the dual oracle has neither f_star nor projection, so those columns stay blank
    from gradcert.oracles import make_augl1_dual
    from gradcert.numkit import GaussianStream

    a = GaussianStream(3).normal((3, 8))
    dual = make_augl1_dual(a, a @ np.ones(8), 2.0)
    cfg = SolverConfig(stepsize_h=1.0 / dual.constants.L, max_iters=5, variant="gd")
    tr = run_solver(dual, np.zeros(3), cfg)
    lines = tr.to_csv().splitlines()
    assert lines[0] == "# status=max_iters f_star=None n_evals=6"
    assert lines[1] == HEADER
    first = lines[2].split(",")
    assert first[2] == first[4] == first[5] == ""  # fgap, dist and secant blank


def test_trace_csv_text_is_pinned():
    def trace(f_star, dist, secant):
        return SolverTrace(
            f=np.array([1.5, 0.1]),
            grad_norm=np.array([2.0, 1 / 3]),
            dist_to_sol=dist,
            reset_event=("none", "restart"),
            status="max_iters",
            f_star=f_star,
            secant=secant,
        )

    assert trace(0.5, np.array([3.0, 1e-20]), np.array([6.0, -0.0])).to_csv() == (
        "# status=max_iters f_star=0.5 n_evals=None\n"
        "k,f,fgap,grad_norm,dist_to_sol,secant,reset_event\n"
        "0,1.5,1.0,2.0,3.0,6.0,none\n"
        "1,0.1,-0.4,0.3333333333333333,1e-20,-0.0,restart\n"
    )
    assert trace(None, None, None).to_csv() == (
        "# status=max_iters f_star=None n_evals=None\n"
        "k,f,fgap,grad_norm,dist_to_sol,secant,reset_event\n"
        "0,1.5,,2.0,,,none\n"
        "1,0.1,,0.3333333333333333,,,restart\n"
    )


def test_callback_sees_every_record(quad_20x50):
    seen = []
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=20, variant="nesterov")
    run_solver(
        quad_20x50,
        np.ones(50),
        cfg,
        callback=lambda k, x, f, g: seen.append((k, f)),
        keep_iterates=False,
    )
    assert [k for k, _ in seen] == list(range(21))


def test_keep_iterates_off(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=10, variant="gd")
    tr = run_solver(quad_20x50, np.ones(50), cfg, keep_iterates=False)
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


@pytest.mark.parametrize("variant, n_evals", [("gd", 4), ("nesterov", 5)])
def test_finite_gradient_with_overflowing_norm_runs_on(variant, n_evals):
    # every entry of g is finite but ||g||^2 overflows: the point is finite,
    # so the run goes on with an infinite recorded gradient norm
    oracle = Objective(dim=2, eval=lambda x: (0.0, np.full(2, 1e200)))
    cfg = SolverConfig(stepsize_h=1e-200, max_iters=3, variant=variant)
    with np.errstate(over="ignore"):
        tr = run_solver(oracle, np.zeros(2), cfg)
    assert tr.status == "max_iters"
    assert len(tr) == 4 and np.all(np.isposinf(tr.grad_norm))
    assert tr.n_evals == n_evals


def test_nan_gradient_at_start_rejected():
    oracle = Objective(dim=2, eval=lambda x: (0.0, np.array([1.0, np.nan])))
    with pytest.raises(ValueError, match="start point"):
        run_solver(oracle, np.zeros(2), SolverConfig(stepsize_h=0.1, max_iters=5))


# gd's third call is x^(2); nesterov's fourth is y^(2), its first extrapolated
# point that is not an iterate (beta_1 = 0, so y^(1) = x^(1))
@pytest.mark.parametrize("variant, bad_call", [("gd", 3), ("nesterov", 4)])
@pytest.mark.parametrize("bad", [(0.0, np.array([1.0, np.nan])), (np.inf, np.ones(2))])
def test_non_finite_mid_run_diverges_and_is_counted(variant, bad_call, bad):
    calls = []

    def eval_(x):
        calls.append(1)
        return bad if len(calls) == bad_call else (0.0, np.ones(2))

    cfg = SolverConfig(stepsize_h=0.1, max_iters=10, variant=variant)
    tr = run_solver(Objective(dim=2, eval=eval_), np.zeros(2), cfg)
    assert tr.status == "diverged"
    assert tr.n_evals == len(calls) == bad_call
    assert len(tr) == bad_call - 1


# ---------------------------------------------------------------------------
# gradient descent at a floating-point fixed point


def _certify_quad():
    """The 20x50 quad of the certify benchmark's seed 1, quad 0."""
    stream = GaussianStream(1000)
    a = stream.normal((20, 50))
    return make_quadratic_composite(a, a @ stream.normal(50))


def _plain_gd(oracle, x0, h, iters):
    """gd's records as a plain ``x - h * g`` loop with one oracle call each."""
    xs, f, grad_norm, dist = [], [], [], []
    x = x0.copy()
    for _ in range(iters + 1):
        fx, g = oracle.eval(x)
        xs.append(x)
        f.append(float(fx))
        grad_norm.append(float(np.linalg.norm(g)))
        dist.append(float(np.linalg.norm(x - oracle.project(x))))
        x = x - h * g
    return xs, np.array(f), np.array(grad_norm), np.array(dist)


@pytest.mark.parametrize(
    "h_times_r, variant, policy",
    [(0.5, "gd", None), (1.0, "gd", None), (1.0, "nesterov", None), (1.0, "adaptive", "skip")],
)
def test_secant_is_the_inner_product_at_the_callback_gradient(h_times_r, variant, policy):
    # gd at h = 1/R reaches a fixed point at k = 746 and records repeats after it
    quad = _certify_quad()
    cfg = SolverConfig(h_times_r / quad.constants.R, 1000, variant=variant, policy=policy)
    seen = []
    tr = run_solver(quad, 100.0 * np.ones(50), cfg, keep_iterates=False,
                    callback=lambda k, x, fv, g: seen.append((x.copy(), g.copy())))
    assert len(seen) == len(tr) == tr.secant.size
    want = [float(g.dot(x - quad.project(x))) for x, g in seen]
    assert tr.secant.tobytes() == np.array(want).tobytes()


def _first_repeat(xs):
    return next(k for k in range(1, len(xs)) if xs[k].tobytes() == xs[k - 1].tobytes())


@pytest.mark.parametrize("keep", [True, False])
def test_gd_at_a_fixed_point_records_the_plain_loop_bitwise(keep):
    quad = _certify_quad()
    h, x0 = 1.0 / quad.constants.R, 100.0 * np.ones(50)
    xs, f, grad_norm, dist = _plain_gd(quad, x0, h, 1000)
    k_fixed = _first_repeat(xs)
    assert k_fixed < 1000  # the run reaches its fixed point well inside the budget
    oracle, calls = _counting(quad)
    seen = []
    cfg = SolverConfig(stepsize_h=h, max_iters=1000, variant="gd")
    tr = run_solver(oracle, x0, cfg, keep_iterates=keep,
                    callback=lambda k, x, fv, g: seen.append((k, x.tobytes(), fv)))
    assert tr.status == "max_iters" and len(tr) == 1001
    assert tr.f.tobytes() == f.tobytes()
    assert tr.grad_norm.tobytes() == grad_norm.tobytes()
    assert tr.dist_to_sol.tobytes() == dist.tobytes()
    assert tr.reset_event == ("none",) * 1001
    if keep:
        assert len(tr.iterates) == 1001
        assert all(a.tobytes() == b.tobytes() for a, b in zip(tr.iterates, xs))
        assert len({id(a) for a in tr.iterates}) == 1001  # one copy per record
    else:
        assert tr.iterates is None
    # the oracle is called up to the first repeated record and never after it
    assert tr.n_evals == len(calls) == k_fixed + 1
    # the callback sees every record once, in order, with the loop's point and value
    assert [k for k, _, _ in seen] == list(range(1001))
    assert all(xb == x.tobytes() and fv == fk for (_, xb, fv), x, fk in zip(seen, xs, f))


def test_a_step_that_only_flips_the_sign_of_zero_is_not_a_fixed_point():
    # -0.0 - (-0.0) is +0.0, which compares equal to -0.0 but is another
    # point: this oracle's gradient there moves x on
    def eval_(x):
        if np.signbit(x[0]):
            return 1.0, np.array([-0.0, 1e-20])
        return 1.0, np.array([1e-20, -0.0])

    oracle, calls = _counting(Objective(dim=2, eval=eval_))
    tr = run_solver(oracle, np.array([-0.0, 1.0]), SolverConfig(stepsize_h=1.0, max_iters=6))
    want = [[-0.0, 1.0], [0.0, 1.0]] + [[-1e-20, 1.0]] * 5
    assert [x.tobytes() for x in tr.iterates] == [np.array(w).tobytes() for w in want]
    assert tr.n_evals == len(calls) == 4  # x^(3) repeats x^(2)


def _stalled():
    # a gradient too small to move x = 1: every step returns the same point
    return Objective(dim=1, eval=lambda x: (0.0, np.array([1e-30])))


@pytest.mark.parametrize(
    "variant, extra, n_evals",
    [
        ("gd", {}, 2),
        ("nesterov", {}, 9),
        ("adaptive", {"policy": "restart"}, 9),
        ("restart_fixed", {"restart_every": 3}, 7),
    ],
)
def test_only_gd_stops_calling_a_stalled_oracle(variant, extra, n_evals):
    cfg = SolverConfig(stepsize_h=1.0, max_iters=5, variant=variant, **extra)
    seen = []
    tr = run_solver(_stalled(), np.ones(1), cfg, callback=lambda k, *_: seen.append(k))
    assert tr.status == "max_iters" and len(tr) == 6
    assert tr.n_evals == n_evals
    assert seen == list(range(6))
    assert all(x.tobytes() == np.ones(1).tobytes() for x in tr.iterates)


@pytest.mark.parametrize(
    "variant, extra, n_evals",
    [("nesterov", {}, 1999), ("adaptive", {"policy": "restart"}, 1967),
     ("adaptive", {"policy": "skip"}, 1947)],
)
def test_accelerated_runs_keep_their_oracle_calls(variant, extra, n_evals):
    quad = _certify_quad()
    cfg = SolverConfig(1.0 / quad.constants.R, 1000, variant=variant, **extra)
    tr = run_solver(quad, 100.0 * np.ones(50), cfg, keep_iterates=False)
    assert len(tr) == 1001 and tr.n_evals == n_evals


# ---------------------------------------------------------------------------
# the oracle's release as a run ends


def _square(x):
    return 0.5 * float(x.dot(x)), x.copy()


def _released(eval_):
    """An oracle on ``eval_`` whose release notes how many calls preceded it."""
    calls, released = [], []

    def counted(x):
        calls.append(1)
        return eval_(x)

    return Objective(dim=1, eval=counted, release=lambda: released.append(len(calls))), released


def _bad_on_call(n):
    """A factory of evals that are finite but for call n, which returns inf."""
    def make():
        calls = []

        def eval_(x):
            calls.append(1)
            return (np.inf, np.ones(1)) if len(calls) == n else (0.0, np.ones(1))

        return eval_

    return make


@pytest.mark.parametrize(
    "make_eval, cfg, status",
    [
        (lambda: _square, SolverConfig(0.5, 10, grad_tol=2.0), "tol_reached"),  # at the start
        (lambda: _square, SolverConfig(0.5, 10, grad_tol=0.3), "tol_reached"),
        (lambda: _square, SolverConfig(0.5, 3), "max_iters"),
        (lambda: _square, SolverConfig(2000.0, 10), "diverged"),  # f above the threshold
        (_bad_on_call(3), SolverConfig(0.1, 10), "diverged"),  # at x^(2)
        (_bad_on_call(4), SolverConfig(0.1, 10, variant="nesterov"), "diverged"),  # at y^(2)
        (lambda: _stalled().eval, SolverConfig(1.0, 5), "max_iters"),  # gd at a fixed point
    ],
)
def test_release_is_called_once_as_every_run_ends(make_eval, cfg, status):
    oracle, released = _released(make_eval())
    tr = run_solver(oracle, np.ones(1), cfg)
    assert tr.status == status
    assert released == [tr.n_evals]  # once, after the run's last oracle call
    # without a release the run is the same
    plain = run_solver(Objective(dim=1, eval=make_eval()), np.ones(1), cfg)
    assert (plain.f.tobytes(), plain.grad_norm.tobytes(), plain.status, plain.n_evals) == (
        tr.f.tobytes(), tr.grad_norm.tobytes(), tr.status, tr.n_evals)


def test_trace_builder_stores_8_bytes_per_value():
    # f, grad_norm and the event pointer take 24 B a record, about 32 B with
    # the buffers' spare room and the frozen event tuple; a tuple of boxed
    # floats per record took 224 B here
    n = 100_001
    oracle = dataclasses.replace(make_example_1d("f3", beta=1.0), project=None)
    x, g = np.array([2.0]), np.array([1.0])
    tracemalloc.start()
    try:
        tb = _TraceBuilder(oracle, None, keep_iterates=False)
        for i in range(n):
            tb.push(x, i + 0.5, g, i + 0.25, "none")
        tr = tb.freeze("max_iters", 0.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == n and tr.f[-1] == n - 0.5 and tr.grad_norm[-1] == n - 0.75
    assert peak <= 40 * n
