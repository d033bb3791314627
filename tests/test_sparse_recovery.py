import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gradcert import oracles, sparse_recovery
from gradcert.certify import fit_rate
from gradcert.numkit import GaussianStream
from gradcert.solvers import SolverConfig, SolverTrace, run_solver
from gradcert.sparse_recovery import (
    RECOVERY_VARIANTS,
    RecoveryResult,
    SparseProblem,
    gen_sparse_problem,
    recover,
)
from gradcert.oracles import make_augl1_dual, shrink


def small_problem(seed=3, m=30, n=60, k=4, signal="pm_one"):
    return gen_sparse_problem(seed, m, n, k, signal)


def lbreg_step(problem, y, h):
    """Textbook linearized Bregman iteration: x = alpha shrink_1(A^T y), y + h (b - A x)."""
    x_next = problem.alpha * shrink(problem.A.T @ y, 1.0)
    return x_next, y + h * (problem.b - problem.A @ x_next)


def gd_step(problem, y, h):
    """One `run_solver` gradient step on the problem's dual: (x(y), y_next)."""
    cfg = SolverConfig(stepsize_h=h, max_iters=1, variant="gd")
    tr = run_solver(problem.dual, y, cfg)
    return problem.dual.primal(tr.iterates[0]), tr.iterates[1]


def test_shrink_hand_values():
    assert np.array_equal(shrink(np.array([1.5, -0.3, 0.0]), 1.0), [0.5, 0.0, 0.0])


def test_shrink_vanishes_inside_threshold():
    x = GaussianStream(1).uniform(100) * 0.8  # strictly below 1 in magnitude
    assert not shrink(x, 1.0).any()


def test_shrink_nonexpansive():
    stream = GaussianStream(2)
    for _ in range(1000):
        a = 3.0 * stream.normal(6)
        b = 3.0 * stream.normal(6)
        assert np.linalg.norm(shrink(a, 0.7) - shrink(b, 0.7)) <= np.linalg.norm(a - b) + 1e-12


def test_shrink_composition_doubles_threshold():
    x = 5.0 * GaussianStream(3).normal(1000)
    assert np.allclose(shrink(shrink(x, 0.6), 0.6), shrink(x, 1.2), rtol=0, atol=1e-15)


def test_shrink_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        shrink(np.ones(3), 0.0)


def test_gen_paper_shapes_gaussian():
    p = gen_sparse_problem(5, 256, 512, 25, "gaussian")
    assert p.A.shape == (256, 512) and p.b.shape == (256,)
    assert np.count_nonzero(p.x_true) == 25
    assert p.alpha == pytest.approx(10.0 * np.max(np.abs(p.x_true)))
    assert np.linalg.norm(p.b - p.A @ p.x_true) <= 1e-12 * np.linalg.norm(p.b)


def test_gen_pm_one_values_and_alpha():
    p = gen_sparse_problem(6, 256, 512, 25, "pm_one")
    nz = p.x_true[p.x_true != 0]
    assert nz.size == 25 and set(np.unique(nz)) <= {-1.0, 1.0}
    assert p.alpha == 10.0


def test_gen_deterministic_bitwise():
    p1 = gen_sparse_problem(7, 40, 90, 6, "gaussian")
    p2 = gen_sparse_problem(7, 40, 90, 6, "gaussian")
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.x_true, p2.x_true)
    assert np.array_equal(p1.b, p2.b)


def test_gen_validation():
    with pytest.raises(ValueError):
        gen_sparse_problem(1, 60, 60, 5)  # m must be < n
    with pytest.raises(ValueError):
        gen_sparse_problem(1, 30, 60, 61)
    with pytest.raises(ValueError):
        gen_sparse_problem(1, 30, 60, 5, "bernoulli")


def test_gen_rejects_no_measurements():
    # with no rows b is empty, and recover would report a zero signal as found
    with pytest.raises(ValueError, match="1 <= m"):
        gen_sparse_problem(1, 0, 10, 2)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_nonfinite_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha"):
        gen_sparse_problem(1, 20, 40, 0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha"):
        gen_sparse_problem(1, 20, 40, 3, alpha=alpha)
    a = GaussianStream(2).normal((3, 7))
    with pytest.raises(ValueError, match="alpha"):
        make_augl1_dual(a, a @ np.ones(7), alpha)


def test_lbreg_step_from_zero():
    p = small_problem()
    for x_next, y_next in (lbreg_step(p, np.zeros(p.m), 0.25), gd_step(p, np.zeros(p.m), 0.25)):
        assert not x_next.any()
        assert np.array_equal(y_next, 0.25 * p.b)


def test_lbreg_fixed_point_hand_case():
    p = SparseProblem(
        A=np.array([[2.0]]), b=np.array([2.0]), x_true=np.array([1.0]), alpha=1.0, seed=0
    )
    x_next, y_next = lbreg_step(p, np.array([1.0]), 0.25)
    assert np.array_equal(x_next, [1.0])
    assert np.array_equal(y_next, [1.0])
    # the dual gradient vanishes exactly there, so gd stops at its start point
    cfg = SolverConfig(stepsize_h=0.25, max_iters=1, variant="gd")
    tr = run_solver(p.dual, np.array([1.0]), cfg)
    assert tr.status == "tol_reached" and tr.grad_norm[0] == 0.0
    assert np.array_equal(p.dual.primal(tr.iterates[0]), [1.0])


def test_gen_arrays_are_read_only():
    p = small_problem()
    for arr in (p.A, p.b, p.x_true):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_gen_matrix_is_column_major_and_read_only():
    p = small_problem()
    assert p.A.flags.f_contiguous and not p.A.flags.writeable
    # the same values as the row-major draw, and b = A x_true from that draw
    a = GaussianStream(p.seed).normal((p.m, p.n))
    assert np.array_equal(p.A, a)
    assert np.array_equal(p.b, a @ p.x_true)


def test_lbreg_step_equals_dual_gradient_step():
    # the textbook formula sums A x in another order than the dual oracle's
    # support form, so the two agree to rounding, not bit for bit
    p = small_problem()
    y = GaussianStream(9).normal(p.m)
    h = 0.01
    _, g = p.dual.eval(y)
    tol = 1e-12 * (1 + np.linalg.norm(g))
    x_ref, y_ref = lbreg_step(p, y, h)
    x_gd, y_gd = gd_step(p, y, h)
    assert np.count_nonzero(x_ref) > 0  # the step is not the trivial zero-primal one
    assert np.linalg.norm(x_gd - x_ref) <= tol
    assert np.linalg.norm(y_gd - y_ref) <= tol


@pytest.mark.parametrize("variant", ["gd", "nesterov", "restart", "skip"])
def test_recover_small_scale(variant):
    p = small_problem()
    res = recover(p, variant, max_iters=50_000)
    assert res.dual_trace.status == "tol_reached"
    assert res.rel_error_curve[-1] < 1e-6
    b_norm = np.linalg.norm(p.b)
    assert res.primal_residual_curve[-1] <= 1e-14 * b_norm
    assert np.max(np.abs(res.x_final)) <= np.max(np.abs(p.x_true)) * (1 + 1e-6)
    assert res.iters == len(res.rel_error_curve) == len(res.primal_residual_curve)


def test_recover_rejects_unknown_variant():
    with pytest.raises(ValueError):
        recover(small_problem(), "momentum")


def test_recover_residual_curve_is_dual_gradient():
    p = small_problem()
    res = recover(p, "gd", max_iters=10_000)
    assert np.array_equal(res.primal_residual_curve, res.dual_trace.grad_norm)


def test_recover_primal_dual_consistency():
    # replay the first dual iterates: b - A x^(k+1) must equal the ascent
    # direction of the dual update
    p = small_problem()
    dual = p.dual
    h = 1.0 / dual.constants.L
    y = np.zeros(p.m)
    for _ in range(25):
        x_next, y_next = lbreg_step(p, y, h)
        _, g = dual.eval(y)
        assert np.linalg.norm((p.b - p.A @ x_next) - (-g)) <= 1e-12 * (1 + np.linalg.norm(g))
        y = y_next


def test_recover_degenerate_zero_signal():
    p = gen_sparse_problem(3, 30, 60, 0)
    res = recover(p, "gd")
    assert res.iters == 1
    assert res.rel_error_curve is None
    assert not res.x_final.any()
    assert res.primal_residual_curve[0] == 0.0
    assert res.dual_trace.n_evals == 1  # the start point is evaluated


@pytest.mark.parametrize(
    "kwargs, message", [({"h": -1.0}, "stepsize_h"), ({"max_iters": 0}, "max_iters")]
)
def test_recover_zero_signal_checks_its_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        recover(gen_sparse_problem(3, 30, 60, 0), "gd", **kwargs)


def test_recover_zero_data_with_nonzero_signal():
    # x_true lies in the null space of A, so b = A x_true = 0 and x(y) stays 0
    a = np.array([[1.0, 1.0, 0.0]])
    x_true = np.array([1.0, -1.0, 0.0])
    res = recover(SparseProblem(A=a, b=a @ x_true, x_true=x_true, alpha=1.0, seed=0), "nesterov")
    assert res.rel_error_curve.tolist() == [1.0]
    assert res.dual_trace.status == "tol_reached" and res.iters == 1


def test_recover_iterations_to():
    res = recover(small_problem(), "skip", max_iters=50_000)
    k6 = res.iterations_to(1e-6)
    assert k6 is not None
    assert res.rel_error_curve[k6] < 1e-6
    assert np.all(res.rel_error_curve[:k6] >= 1e-6)


def test_recover_primal_error_geometric_envelope():
    res = recover(small_problem(), "gd", max_iters=50_000)
    rel = res.rel_error_curve
    pos = rel[rel > 0]
    tr = SolverTrace(
        f=pos,
        grad_norm=np.zeros_like(pos),
        dist_to_sol=None,
        reset_event=("none",) * pos.size,
        status="max_iters",
        f_star=0.0,
    )
    fit = fit_rate(tr, "linear_geometric", (pos.size // 2, pos.size - 1))
    assert fit.fitted_factor < 1.0


def test_recovery_csv_schema():
    res = recover(small_problem(), "restart", max_iters=50_000)
    lines = res.to_csv().splitlines()
    assert lines[0] == "k,rel_error,primal_residual,reset_event"
    assert len(lines) == res.iters + 1
    row = lines[1].split(",")
    assert row[0] == "0" and row[3] == "none"
    assert any(line.split(",")[3] == "restart" for line in lines[1:])


def test_recovery_csv_text_is_pinned():
    trace = SolverTrace(
        f=np.zeros(2),
        grad_norm=np.array([2.0, 0.1]),
        dist_to_sol=None,
        reset_event=("none", "skip"),
        status="max_iters",
    )

    def result(rel):
        return RecoveryResult(np.zeros(3), rel, np.array([2.0, 0.1]), 2, "skip", trace)

    assert result(np.array([1.0, 1 / 3])).to_csv() == (
        "k,rel_error,primal_residual,reset_event\n"
        "0,1.0,2.0,none\n"
        "1,0.3333333333333333,0.1,skip\n"
    )
    assert result(None).to_csv() == (
        "k,rel_error,primal_residual,reset_event\n0,,2.0,none\n1,,0.1,skip\n"
    )


def test_recover_custom_stepsize_still_converges():
    p = small_problem()
    dual_l = p.dual.constants.L
    res = recover(p, "gd", h=0.5 / dual_l, max_iters=100_000)
    assert res.dual_trace.status == "tol_reached"


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_dual_built_once_per_problem(monkeypatch):
    builds = _counting(monkeypatch, sparse_recovery, "make_augl1_dual")
    spectra = _counting(monkeypatch, oracles, "sym_eig_summary")
    p = small_problem()
    assert not builds  # built on first use, not by gen_sparse_problem
    for variant in RECOVERY_VARIANTS:
        recover(p, variant, max_iters=50_000)
    assert len(builds) == 1
    assert len(spectra) == 1


def _assert_same_result(r1, r2):
    for a, b in (
        (r1.dual_trace.f, r2.dual_trace.f),
        (r1.dual_trace.grad_norm, r2.dual_trace.grad_norm),
        (r1.rel_error_curve, r2.rel_error_curve),
        (r1.primal_residual_curve, r2.primal_residual_curve),
        (r1.x_final, r2.x_final),
    ):
        assert np.array_equal(a, b)
    assert r1.dual_trace.reset_event == r2.dual_trace.reset_event
    assert r1.dual_trace.n_evals == r2.dual_trace.n_evals


@pytest.mark.parametrize("variant", RECOVERY_VARIANTS)
def test_recover_on_shared_dual_is_bitwise_repeatable(variant):
    p = small_problem()
    first = recover(p, variant, max_iters=50_000)
    again = recover(p, variant, max_iters=50_000)
    fresh = recover(small_problem(), variant, max_iters=50_000)
    _assert_same_result(first, again)
    _assert_same_result(first, fresh)


def test_x_final_does_not_alias_the_oracle_memo(monkeypatch):
    handed_out = []
    build = sparse_recovery.make_augl1_dual

    def spying_build(*args):
        dual = build(*args)

        def primal(y):
            handed_out.append(dual.primal(y))
            return handed_out[-1]

        return dataclasses.replace(dual, primal=primal)

    monkeypatch.setattr(sparse_recovery, "make_augl1_dual", spying_build)
    p = small_problem()
    res = recover(p, "skip", max_iters=50_000)
    assert len(handed_out) == res.iters
    assert np.array_equal(res.x_final, handed_out[-1])
    assert not np.shares_memory(res.x_final, handed_out[-1])


def test_kept_dual_holds_no_run_state_after_recover():
    # a finished run leaves no support block, image or primal point (about
    # 10 KB here) in the kept oracle; the few hundred bytes that stay are
    # mostly numpy's cache of small buffers
    p = gen_sparse_problem(1, 64, 128, 6, "pm_one")
    p.dual  # the first build: A's norm and the closures stay with the problem
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for variant in RECOVERY_VARIANTS:
            assert recover(p, variant).dual_trace.status == "tol_reached"
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 2048


def test_dual_primal_bits_do_not_depend_on_the_last_eval():
    # where -1 <= A^T y < 0, shrink writes -0.0 and the memo of an eval +0.0;
    # primal gives +0.0 on both paths
    p = small_problem()
    y = GaussianStream(5).normal(p.m)
    z = p.A.T @ y
    assert ((z >= -1.0) & (z < 0.0)).any()
    dual = make_augl1_dual(p.A, p.b, p.alpha)
    before = dual.primal(y).tobytes()
    dual.eval(y)
    assert dual.primal(y).tobytes() == before
    assert before == (p.alpha * shrink(z, 1.0) + 0.0).tobytes()
