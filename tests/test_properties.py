"""Property tests of the least-squares composite on random full-row-rank quads.

For f(x) = 0.5 ||Ax - b||^2 with m < n the constants are L = R = ||A||^2
and nu = lambda_min(A A^T); the secant inequality and Lemma 3's growth
bound must hold with that nu at every point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcert.numkit import GaussianStream
from gradcert.oracles import make_quadratic_composite

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
