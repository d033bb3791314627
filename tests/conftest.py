import numpy as np
import pytest

from gradcert import GaussianStream, make_quadratic_composite
from gradcert.numkit import as_vector


def seeded_gaussian(seed, shape):
    return GaussianStream(seed).normal(shape)


def seeded_quad(seed=11, m=20, n=50):
    """Consistent least-squares composite with a seeded Gaussian matrix."""
    stream = GaussianStream(seed)
    a = stream.normal((m, n))
    return make_quadratic_composite(a, a @ stream.normal(n))


@pytest.fixture(scope="session")
def quad_20x50():
    return seeded_quad(11, 20, 50)


def sample_avoiding(lo, hi, n, exclusions, radius):
    """1-D grid on [lo, hi] with points near any exclusion dropped."""
    xs = np.linspace(lo, hi, n)
    keep = np.ones(n, dtype=bool)
    for c in exclusions:
        keep &= np.abs(xs - c) > radius
    return xs[keep]


def finite_diff_check(oracle, points) -> float:
    """Worst relative error between the oracle gradient and central differences.

    Uses step ``1e-6 * (1 + ||x||)`` per coordinate, evaluating the 2 dim
    perturbed points of each sample in one ``eval_batch`` call. Callers keep
    sample points away from gradient kinks (e.g. at least 1e-3 from any
    soft-threshold boundary).
    """
    if oracle.eval_batch is None:
        raise ValueError(f"finite_diff_check needs eval_batch; oracle {oracle.name!r} has none")
    worst = 0.0
    idx = np.arange(oracle.dim)
    for p in points:
        x = as_vector(p)
        if x.shape[0] != oracle.dim:
            raise ValueError(f"point of dim {x.shape[0]} fed to oracle of dim {oracle.dim}")
        _, g = oracle.eval(x)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        pert = np.repeat(x[None, :], 2 * oracle.dim, axis=0)
        pert[2 * idx, idx] += h
        pert[2 * idx + 1, idx] -= h
        vals, _ = oracle.eval_batch(pert)
        fd = (vals[0::2] - vals[1::2]) / (2.0 * h)
        rel = float(np.linalg.norm(fd - g)) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, rel)
    return worst
