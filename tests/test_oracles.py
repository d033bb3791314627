import math

import numpy as np
import pytest

from gradcert.numkit import GaussianStream, sym_eig_summary
from gradcert.oracles import (
    KnownConstants,
    compose_constants,
    finite_diff_check,
    make_augl1_dual,
    make_example_1d,
    make_quadratic_composite,
    shrink,
)
from conftest import sample_avoiding, seeded_quad

SQRT2 = math.sqrt(2.0)
F1_NU = 2.0 / (4.0 - SQRT2)
F2_NU = math.sqrt((SQRT2 - 1.0) / 2.0)


def test_known_constants_validation():
    with pytest.raises(ValueError):
        KnownConstants(R=-1.0)
    with pytest.raises(ValueError):
        KnownConstants(L=1.0, nu=2.0)
    KnownConstants(L=1.0, nu=1.0)  # equality allowed


def test_f3_eval_and_project():
    f3 = make_example_1d("f3", beta=1.0)
    val, grad = f3.eval(np.array([3.0]))
    assert val == 2.0 and grad[0] == 2.0
    assert f3.project(np.array([3.0]))[0] == 1.0
    assert f3.project(np.array([-0.5]))[0] == -0.5
    assert f3.f_star == 0.0
    assert (f3.constants.R, f3.constants.L, f3.constants.nu) == (1.0, 1.0, 1.0)


def test_f3_rejects_bad_beta():
    with pytest.raises(ValueError):
        make_example_1d("f3", beta=0.0)
    with pytest.raises(ValueError):
        make_example_1d("f3")


def test_f1_f2_constants():
    assert make_example_1d("f1").constants.nu == pytest.approx(F1_NU, rel=1e-15)
    assert make_example_1d("f2").constants.nu == pytest.approx(F2_NU, rel=1e-15)
    # gradient of f1 is unbounded near x = 1, so no Lipschitz constant
    assert make_example_1d("f1").constants.L is None
    assert make_example_1d("f1").constants.R is None


@pytest.mark.parametrize("fid,joins", [("f1", [0.0, 2.0 - SQRT2 / 2]), ("f2", [0.0, SQRT2 / 2, 1.0])])
def test_piecewise_continuity(fid, joins):
    oracle = make_example_1d(fid)
    eps = 1e-9
    for j in joins:
        f_lo, g_lo = oracle.eval(np.array([j - eps]))
        f_hi, g_hi = oracle.eval(np.array([j + eps]))
        assert f_hi == pytest.approx(f_lo, abs=1e-7)
        assert g_hi[0] == pytest.approx(g_lo[0], abs=1e-4)


def test_f1_gradient_blows_up_at_one():
    _, g = make_example_1d("f1").eval(np.array([1.0]))
    assert np.isinf(g[0])


def test_f1_not_convex():
    f1 = make_example_1d("f1")
    mid, _ = f1.eval(np.array([1.075]))
    lo, _ = f1.eval(np.array([0.9]))
    hi, _ = f1.eval(np.array([1.25]))
    assert mid > 0.5 * (lo + hi)  # chord lies below the graph: non-convex


def _zoo_grid(oracle):
    xs = np.linspace(-2.0, 10.0, 12001).reshape(-1, 1)
    _, grads = oracle.eval_batch(xs)
    finite = np.isfinite(grads[:, 0])
    return xs[finite], grads[finite]


@pytest.mark.parametrize("fid", ["f1", "f2", "f3"])
def test_rsi_and_growth_inequalities_on_grid(fid):
    oracle = make_example_1d(fid, beta=1.0 if fid == "f3" else None)
    nu = oracle.constants.nu
    xs, grads = _zoo_grid(oracle)
    vals, _ = oracle.eval_batch(xs)
    prj = oracle.project(xs)
    d = xs - prj
    dn2 = (d**2).sum(axis=1)
    mask = np.sqrt(dn2) > 1e-8
    inner = (grads * d).sum(axis=1)
    assert np.all(inner[mask] >= nu * dn2[mask] * (1 - 1e-10))
    assert np.all(vals[mask] - oracle.f_star >= 0.5 * nu * dn2[mask] * (1 - 1e-10))


@pytest.mark.parametrize("make", [lambda: make_example_1d("f3", beta=1.0), lambda: seeded_quad(21, 10, 25)])
def test_descent_lemma_part2(make):
    # (1/2R) ||g||^2 <= <g, x - x_prj> for convex members with known R
    oracle = make()
    big_r = oracle.constants.R
    if oracle.dim == 1:
        pts = np.linspace(-2.0, 10.0, 5001).reshape(-1, 1)
    else:
        pts = GaussianStream(31).normal((2000, oracle.dim))
    _, grads = oracle.eval_batch(pts)
    prj = oracle.project(pts)
    inner = (grads * (pts - prj)).sum(axis=1)
    lhs = (grads**2).sum(axis=1) / (2.0 * big_r)
    assert np.all(lhs <= inner * (1 + 1e-10) + 1e-15)


@pytest.mark.parametrize("make", [lambda: make_example_1d("f3", beta=1.0), lambda: seeded_quad(22, 10, 25)])
def test_convexity_spot_check(make):
    oracle = make()
    stream = GaussianStream(77)
    for _ in range(200):
        x = 5.0 * stream.normal(oracle.dim)
        y = 5.0 * stream.normal(oracle.dim)
        lam = float(stream.uniform(1)[0])
        fx, _ = oracle.eval(x)
        fy, _ = oracle.eval(y)
        fm, _ = oracle.eval(lam * x + (1 - lam) * y)
        assert fm <= lam * fx + (1 - lam) * fy + 1e-9 * (1 + abs(fx) + abs(fy))


@pytest.mark.parametrize(
    "fid", ["f1", "f2", "f3"]
)
def test_projection_idempotent_and_stationary(fid):
    oracle = make_example_1d(fid, beta=1.0 if fid == "f3" else None)
    xs = np.linspace(-2.0, 10.0, 301).reshape(-1, 1)
    prj = oracle.project(xs)
    assert np.array_equal(oracle.project(prj), prj)
    for row in prj[::25]:
        _, g = oracle.eval(row)
        assert np.linalg.norm(g) <= 1e-10


def test_projection_idempotent_quad():
    quad = seeded_quad(23, 8, 20)
    pts = GaussianStream(24).normal((50, 20))
    prj = quad.project(pts)
    again = quad.project(prj)
    assert np.allclose(again, prj, rtol=0, atol=1e-9)
    for row in prj[::10]:
        fx, g = quad.eval(row)
        assert np.linalg.norm(g) <= 1e-9


def test_quad_identity_case():
    quad = make_quadratic_composite(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 2.0])
    val, grad = quad.eval(x)
    assert val == pytest.approx(0.5 * 9.0)
    assert np.array_equal(grad, x)
    assert np.allclose(quad.project(x), 0.0, atol=1e-12)


def test_quad_affine_projection_by_symmetry():
    quad = make_quadratic_composite(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(quad.project(np.zeros(2)), [1.0, 1.0], rtol=1e-12)


def test_quad_constants_match_composition_rule(quad_20x50):
    a = GaussianStream(11).normal((20, 50))
    assert quad_20x50.constants.L == pytest.approx(np.linalg.norm(a, 2) ** 2, rel=1e-12)
    gram = a @ a.T
    assert quad_20x50.constants.nu == pytest.approx(
        sym_eig_summary(0.5 * (gram + gram.T)).lambda_min, rel=1e-9
    )
    assert quad_20x50.f_star == 0.0


def test_quad_rejects_rank_deficient():
    with pytest.raises(ValueError, match="row rank"):
        make_quadratic_composite(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))


def test_quad_batch_matches_scalar(quad_20x50):
    pts = GaussianStream(14).normal((20, 50))
    vals, grads = quad_20x50.eval_batch(pts)
    for i in (0, 7, 19):
        v, g = quad_20x50.eval(pts[i])
        assert vals[i] == pytest.approx(v, rel=1e-13)
        assert np.allclose(grads[i], g, rtol=1e-12, atol=1e-12)


def test_dual_at_zero():
    b = np.array([1.0, -2.0])
    dual = make_augl1_dual(GaussianStream(4).normal((2, 6)), b, 3.0)
    val, grad = dual.eval(np.zeros(2))
    assert val == 0.0
    assert np.array_equal(grad, -b)


def test_dual_hand_example():
    dual = make_augl1_dual(np.array([[2.0]]), np.array([2.0]), 1.0)
    val, grad = dual.eval(np.array([1.0]))
    assert val == pytest.approx(-1.5, abs=1e-15)
    assert grad[0] == pytest.approx(0.0, abs=1e-15)


def test_dual_flat_region():
    a = GaussianStream(6).normal((3, 8))
    b = a @ GaussianStream(7).normal(8)
    dual = make_augl1_dual(a, b, 2.0)
    y = np.zeros(3)
    # scale y so that ||A^T y||_inf < 1: the shrink term vanishes
    y[0] = 0.5 / np.max(np.abs(a[0]))
    val, grad = dual.eval(y)
    assert val == pytest.approx(-float(b @ y), rel=1e-12)
    assert np.allclose(grad, -b, rtol=1e-12)


def test_dual_constants_and_capabilities():
    a = GaussianStream(8).normal((4, 12))
    dual = make_augl1_dual(a, a @ np.ones(12), 5.0)
    assert dual.constants.L == pytest.approx(5.0 * np.linalg.norm(a, 2) ** 2, rel=1e-12)
    assert dual.constants.nu is None and dual.f_star is None and dual.project is None


def test_dual_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_augl1_dual(np.array([[1.0]]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        make_augl1_dual(np.zeros((2, 3)), np.ones(2), 1.0)


def test_compose_identity():
    out = compose_constants(KnownConstants(L=1.0, nu=1.0), np.eye(3), "surjective")
    assert out.L == pytest.approx(1.0, rel=1e-9)
    assert out.nu == pytest.approx(1.0, rel=1e-9)


def test_compose_diagonal_surjective():
    out = compose_constants(KnownConstants(L=1.0, nu=1.0), np.diag([2.0, 3.0]), "surjective")
    assert out.L == pytest.approx(9.0, rel=1e-9)
    assert out.nu == pytest.approx(4.0, rel=1e-9)


def test_compose_rank_one_strictly_convex():
    out = compose_constants(KnownConstants(L=1.0, nu=1.0), np.array([[1.0, 1.0]]), "strictly_convex")
    assert out.L == pytest.approx(2.0, rel=1e-9)
    assert out.nu == pytest.approx(2.0, rel=1e-9)


def test_compose_missing_constant_named():
    with pytest.raises(ValueError, match="nu"):
        compose_constants(KnownConstants(L=1.0), np.eye(2), "surjective")
    with pytest.raises(ValueError, match="L"):
        compose_constants(KnownConstants(nu=1.0), np.eye(2), "surjective")


def test_finite_diff_quad(quad_20x50):
    pts = GaussianStream(41).normal((50, 50))
    assert finite_diff_check(quad_20x50, pts) < 1e-6


def test_finite_diff_f3_smooth_and_flat():
    f3 = make_example_1d("f3", beta=1.0)
    assert finite_diff_check(f3, [np.array([5.0])]) < 1e-7
    assert finite_diff_check(f3, [np.array([0.0])]) < 1e-10


def test_finite_diff_zoo_kink_avoiding():
    f1 = make_example_1d("f1")
    pts = sample_avoiding(-2.0, 10.0, 400, [0.0, 1.0, 2.0 - SQRT2 / 2], 0.1)
    assert finite_diff_check(f1, pts.reshape(-1, 1)) < 1e-6


def test_shrink_is_f3_gradient():
    f3 = make_example_1d("f3", beta=0.7)
    xs = np.linspace(-3, 3, 101)
    _, grads = f3.eval_batch(xs.reshape(-1, 1))
    assert np.array_equal(grads[:, 0], shrink(xs, 0.7))
