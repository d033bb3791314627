import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import gradcert.numkit as numkit

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


@pytest.mark.parametrize("m", [2, 300, 1100])
def test_symmetry_check_reads_the_last_rows(m):
    # the check takes S - S^T by blocks of rows; 1,100 leaves a last block of one row
    a = GaussianStream(m).normal((m, 4))
    s = a @ a.T
    s[-1, 0] += 1e-6  # S - S^T is positive in the last row only
    want = f"not symmetric (max asymmetry {np.max(s - s.T):.3e})"
    with pytest.raises(ValueError, match=re.escape(want)):
        sym_eig_summary(s)


def test_eig_summary_holds_one_block_of_the_asymmetry():
    # 256 x 256: S - S^T at once is 0.5 MiB; a block of 32 rows is 64 KiB, and
    # numpy buffers the transposed operand in another 64 KiB
    a = GaussianStream(3).normal((256, 300))
    gram = a @ a.T
    tracemalloc.start()
    try:
        sym_eig_summary(gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * 2**20


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


def test_stream_rejects_a_negative_size():
    # -1 would otherwise slice an empty draw instead of failing
    for shape in (-1, (-1,), (2, -1)):
        with pytest.raises(ValueError):
            GaussianStream(3).normal(shape)
    with pytest.raises(ValueError):
        GaussianStream(3).uniform(-1)


def test_stream_integer_below_spans_at_most_one_word():
    # above 2**64 no word would pass the rejection test, so the draw never ended
    with pytest.raises(ValueError, match=r"bound 18446744073709551617 exceeds 2\*\*64"):
        GaussianStream(1).integer_below(2**64 + 1)
    s, raw = GaussianStream(1), GaussianStream(1)
    assert [s.integer_below(2**64) for _ in range(3)] == [raw._word() for _ in range(3)]
    assert s._pos == raw._pos == 3


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


_SEEDS = (0, 1, 7919, 2**64 - 1)
_BLOCK = 8192  # numkit._BLOCK when the digests were taken; the sizes straddle it
_SIZES = (0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, (256, 512))


def _plan(kind, s):
    """(stream, draw) pairs of one kind of draw plan on the stream s."""
    if kind == "normal":
        for size in _SIZES:
            t = GaussianStream(int(s.seed))
            yield t, t.normal(size)
    elif kind == "uniform":
        for size in _SIZES:
            t = GaussianStream(int(s.seed))
            yield t, t.uniform(int(np.prod(size)))
    elif kind == "spare":
        for size in (1, 3, 2, _BLOCK, _BLOCK + 1, (3, 5), 0, _BLOCK - 1, 1):
            yield s, s.normal(size)
    elif kind == "integer_below":
        for bound in (1, 2, 7, 512, 2**32 + 1, 2**63 + 1, 2**64):
            yield s, np.array([s.integer_below(bound) for _ in range(5)], dtype=np.uint64)
    elif kind == "subset":
        for n, k in ((512, 25), (6, 2), (10, 10), (5, 0), (1, 1), (100_000, 40)):
            yield s, s.subset(n, k)
    elif kind == "skip":
        for n, size in ((5, 7), (_BLOCK + 3, _BLOCK + 1), (1, 1), (0, 4)):
            s.skip(n)
            yield s, s.normal(size)
            s.skip(n)
            yield s, s.uniform(size)
    elif kind == "split":
        for i in (0, 3, 0x5E6, 2**64 - 1):
            t = s.split(i)
            yield t, t.normal(5)
            yield t, t.uniform(_BLOCK + 1)
            yield s, s.normal(3)


def _digest(kind):
    """SHA-256 of every draw of the plan over the seeds, with counter and spare after each."""
    h = hashlib.sha256()
    for seed in _SEEDS:
        for s, a in _plan(kind, GaussianStream(seed)):
            h.update(f"{a.dtype} {a.shape} {s._pos} {s._spare!r}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


# taken with the whole-array stream of commit a9deb91, which this stream must reproduce
_PINNED = {
    "normal": "aa8049198cf57542d88aae4a49309db47767d494dfada4c67a01ba0311dc1e76",
    "uniform": "1062eeba204e71edc6abe3afd7a84eebfb8551415d53123e82b32f736a1ce598",
    "spare": "9cb5aad71ca920ecccfd72d542df97245e9df7e48877712c882d335799a4f2cb",
    "integer_below": "1ee71455905088de7edc3a128586ff17eb039a56c6d1db25fa7f163c2f46200e",
    "subset": "726dabc3c0d80a3539df192deccdeb788bb080557012ffc7781432fd977ec06e",
    "skip": "f9424fb115cc8b80308103846f59dfbc6f2a725c127f603999724b5e7570ee6e",
    "split": "5fb26ec1082d808440ad3bdaf5fdf2d37fbe576e18bca15664c6098e1e9c96f3",
}


def test_stream_digests_are_pinned():
    assert {kind: _digest(kind) for kind in _PINNED} == _PINNED


def _mixed_plan(seed):
    s = GaussianStream(seed)
    draws = [s.normal(1), s.normal(131), s.uniform(77), s.normal((7, 29)), s.subset(50, 5),
             s.uniform(3), s.normal(3), s.split(9).normal(20)]
    return b"".join(a.tobytes() for a in draws), s._pos, s._spare


@pytest.mark.parametrize("block, few", [(2, 0), (6, 0), (64, 16), (1024, 200)])
def test_stream_bits_do_not_depend_on_block_size(monkeypatch, block, few):
    want = [_mixed_plan(seed) for seed in _SEEDS]
    monkeypatch.setattr(numkit, "_BLOCK", block)
    monkeypatch.setattr(numkit, "_FEW", few)
    assert [_mixed_plan(seed) for seed in _SEEDS] == want
