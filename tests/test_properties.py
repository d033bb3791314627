"""Property tests of the least-squares composite and of the augmented-l1 dual.

For f(x) = 0.5 ||Ax - b||^2 with m < n the constants are L = R = ||A||^2
and nu = lambda_min(A A^T); the secant inequality and Lemma 3's growth
bound must hold with that nu at every point. The dual oracle's ``primal``
must return ``alpha * shrink_1(A^T y)`` bit for bit, whatever point its
memo holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcert.numkit import GaussianStream
from gradcert.oracles import make_quadratic_composite, shrink
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
