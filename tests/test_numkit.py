import numpy as np
import pytest

from gradcert.numkit import (
    GaussianStream,
    as_matrix,
    as_vector,
    gram_spectral_norm,
    sym_eig_summary,
)
from gradcert.oracles import make_quadratic_composite


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


def test_spectral_norm_identity():
    assert gram_spectral_norm(np.eye(3)).value == pytest.approx(1.0, rel=1e-9)


def test_spectral_norm_diagonal():
    assert gram_spectral_norm(np.diag([3.0, 4.0])).value == pytest.approx(16.0, rel=1e-9)


def test_spectral_norm_matches_jacobi():
    a = GaussianStream(3).normal((20, 50))
    res = gram_spectral_norm(a)
    assert res.converged
    vals = np.linalg.eigvalsh(a @ a.T)
    assert res.value == pytest.approx(vals[-1], rel=1e-8)


def test_spectral_norm_rayleigh_upper_bound():
    stream = GaussianStream(17)
    a = stream.normal((10, 15))
    bound = gram_spectral_norm(a).value * (1 + 1e-9)
    for _ in range(100):
        x = stream.normal(15)
        assert (x @ (a.T @ (a @ x))) / (x @ x) <= bound


def test_spectral_norm_zero_matrix_rejected():
    with pytest.raises(ValueError):
        gram_spectral_norm(np.zeros((3, 3)))


def test_jacobi_diag_summary():
    s = sym_eig_summary(np.diag([0.0, 2.0, 5.0]))
    assert s.lambda_max == pytest.approx(5.0, abs=1e-12)
    assert s.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert s.lambda_min_pp == pytest.approx(2.0, abs=1e-12)


def test_jacobi_identity_summary():
    s = sym_eig_summary(np.eye(4))
    assert (s.lambda_max, s.lambda_min, s.lambda_min_pp) == (1.0, 1.0, 1.0)


def _eig_by_bisection(s, n_grid=20000):
    """Characteristic-polynomial roots by sign changes of det(S - t I)."""
    s = np.asarray(s)
    bound = float(np.max(np.sum(np.abs(s), axis=1))) + 1.0  # Gershgorin
    ts = np.linspace(-bound, bound, n_grid)
    dets = np.array([np.linalg.det(s - t * np.eye(s.shape[0])) for t in ts])
    roots = []
    for i in range(n_grid - 1):
        if dets[i] == 0.0:
            roots.append(ts[i])
        elif dets[i] * dets[i + 1] < 0:
            lo, hi = ts[i], ts[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                dm = np.linalg.det(s - mid * np.eye(s.shape[0]))
                if dets[i] * dm <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


def test_jacobi_matches_bisection_on_gram():
    a = GaussianStream(9).normal((5, 10))
    s = a @ a.T
    s = 0.5 * (s + s.T)
    summary = sym_eig_summary(s)
    roots = np.sort(_eig_by_bisection(s))
    assert roots.size == 5
    assert np.allclose(
        [summary.lambda_min, summary.lambda_max], roots[[0, -1]], rtol=1e-8, atol=1e-8
    )


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig_summary([[0.0, 1.0], [0.0, 0.0]])


def test_eig_summary_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        sym_eig_summary(np.ones((2, 3)))


def test_eig_summary_has_no_size_cap():
    s = sym_eig_summary(np.diag(np.arange(1.0, 1026.0)))
    assert (s.lambda_max, s.lambda_min, s.lambda_min_pp) == (1025.0, 1.0, 1.0)


def _min_norm(a, t):
    """Minimum-norm solution of ``A x = t``: the quad projection of the origin."""
    a = np.asarray(a, dtype=np.float64)
    return make_quadratic_composite(a, t).project(np.zeros(a.shape[1]))


def test_min_norm_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert np.allclose(_min_norm(np.eye(3), b), b, rtol=1e-12)


def test_min_norm_symmetry_case():
    x = _min_norm(np.array([[1.0, 1.0]]), [2.0])
    assert np.allclose(x, [1.0, 1.0], rtol=1e-12)


def test_min_norm_feasible_and_shortest():
    a = GaussianStream(7).normal((5, 10))
    t = a @ np.ones(10)
    x = _min_norm(a, t)
    assert np.linalg.norm(a @ x - t) <= 1e-10 * (1 + np.linalg.norm(t))
    assert np.linalg.norm(x) <= np.linalg.norm(np.ones(10)) + 1e-12


def test_min_norm_output_in_row_space():
    a = GaussianStream(8).normal((4, 9))
    x = _min_norm(a, a @ GaussianStream(9).normal(9))
    # component orthogonal to the row space must vanish
    z = _min_norm(a, a @ x)  # projection of x onto row space
    assert np.linalg.norm(x - z) <= 1e-10 * (1 + np.linalg.norm(x))


def test_min_norm_rejects_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="lambda_min"):
        _min_norm(a, [1.0, 2.0])


def test_stream_same_seed_bitwise():
    d1 = GaussianStream(42).normal(1000)
    d2 = GaussianStream(42).normal(1000)
    assert np.array_equal(d1, d2)


def test_stream_chunking_invariant():
    s1 = GaussianStream(5)
    a = np.concatenate([s1.normal(3), s1.normal(4), s1.normal(3)])
    b = GaussianStream(5).normal(10)
    assert np.array_equal(a, b)


def test_stream_moments():
    draws = GaussianStream(1).normal(10**6)
    assert -0.01 < draws.mean() < 0.01
    assert 0.99 < draws.var() < 1.01


def test_stream_uniform_range():
    u = GaussianStream(3).uniform(10**5)
    assert np.all((u > 0.0) & (u < 1.0))


def test_stream_split_differs():
    base = GaussianStream(10)
    assert not np.array_equal(base.split(1).normal(50), base.split(2).normal(50))


def test_stream_subset_uniform_and_sorted():
    s = GaussianStream(4)
    sub = s.subset(512, 25)
    assert sub.size == 25 and np.all(np.diff(sub) > 0)
    assert sub.min() >= 0 and sub.max() < 512
    # frequency sanity over many draws on a small instance
    counts = np.zeros(6)
    s2 = GaussianStream(12)
    for _ in range(3000):
        counts[s2.subset(6, 2)] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1 / 6) < 0.02)
