"""Dense linear algebra, spectral estimates, and deterministic random streams.

Everything here is plain float64 numpy with no hidden state: eigenvalues
(hence ``||A||^2 = lambda_max(A A^T)``) and linear solves come from LAPACK
through `numpy.linalg`, and the random stream is a counter-based generator
(splitmix64 + Box-Muller) whose raw word i depends only on (seed, i). The
stream is therefore evaluated block by block, in place in scratch buffers
reused from block to block, and its values depend neither on how draws are
chunked into calls nor on the block size.
`gram_spectral_norm`, a power iteration, is no longer used by the package;
it stays because the benchmark's tracer (``perfbench/tracer.py``) hooks it
by name.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "as_vector",
    "as_matrix",
    "PowerIterationResult",
    "gram_spectral_norm",
    "SpectralSummary",
    "sym_eig_summary",
    "GaussianStream",
]


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array; reject NaN/Inf."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf entries")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array; reject NaN/Inf."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


class PowerIterationResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def gram_spectral_norm(a, rel_tol: float = 1e-10, max_iters: int = 100_000) -> PowerIterationResult:
    """Largest eigenvalue of A^T A by power iteration.

    The start vector is the normalized all-ones vector, so the result is
    deterministic. If the iteration cap is hit before the eigenvalue estimate
    stabilizes to `rel_tol`, the best estimate is returned with
    ``converged=False``.
    """
    A = as_matrix(a)
    if not A.any():
        raise ValueError("spectral norm of the zero matrix is not supported")
    n = A.shape[1]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam_prev = -1.0
    lam = 0.0
    for it in range(1, max_iters + 1):
        u = A @ v
        lam = float(u @ u)
        w = A.T @ u
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # start vector fell in the null space; restart from the first
            # basis vector with a nonzero image (deterministic)
            j = int(np.argmax(np.linalg.norm(A, axis=0)))
            v = np.zeros(n)
            v[j] = 1.0
            lam_prev = -1.0
            continue
        v = w / nw
        if lam_prev >= 0.0 and abs(lam - lam_prev) <= rel_tol * lam:
            return PowerIterationResult(lam, True, it)
        lam_prev = lam
    return PowerIterationResult(lam, False, max_iters)


_SYM_CELLS = 2**13  # entries per row block of S - S^T in `_check_symmetric`


def _check_symmetric(S: np.ndarray) -> None:
    scale = max(1.0, float(max(S.max(), -S.min())))  # max |S|, without an |S| temporary
    # max |S - S^T|, since S - S^T is antisymmetric, one block of its rows at a time
    k = max(1, _SYM_CELLS // S.shape[1])
    asym = max(float(np.max(S[r : r + k] - S[:, r : r + k].T)) for r in range(0, len(S), k))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme eigenvalues of a symmetric matrix.

    ``lambda_min_pp`` is the smallest *strictly positive* eigenvalue, where
    eigenvalues below ``1e-10 * lambda_max`` count as zero; it is ``None``
    when no strictly positive eigenvalue exists.
    """

    lambda_max: float
    lambda_min: float
    lambda_min_pp: float | None

    def __post_init__(self) -> None:
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")
        if self.lambda_min_pp is not None and not (
            self.lambda_min <= self.lambda_min_pp <= self.lambda_max
        ):
            raise ValueError("lambda_min_pp outside [lambda_min, lambda_max]")


def sym_eig_summary(s) -> SpectralSummary:
    """SpectralSummary of a symmetric matrix from its LAPACK eigenvalues."""
    S = as_matrix(s)
    if S.shape[0] != S.shape[1] or S.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {S.shape}")
    _check_symmetric(S)
    vals = np.linalg.eigvalsh(S)  # ascending
    lam_max = float(vals[-1])
    lam_min = float(vals[0])
    zero_cut = 1e-10 * max(lam_max, 0.0)
    positive = vals[vals > zero_cut]
    lam_pp = float(positive[0]) if positive.size else None
    return SpectralSummary(lam_max, lam_min, lam_pp)


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T z = b`` for a lower-triangular L; b may be (n,) or (n, k)."""
    y = np.linalg.solve(L, b)
    del b  # so that a right-hand side built for this call alone is freed before the next solve
    return np.linalg.solve(L.T, y)


_U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U64 = _U64(_GOLDEN)
_MIX_STEPS = ((_U64(30), _U64(_MIX1)), (_U64(27), _U64(_MIX2)))
_S31, _S11 = _U64(31), _U64(11)
_BLOCK = 1 << 13  # raw words per scratch block of a draw; any even size gives the same bits
_FEW = 12  # draws of at most this many words take them one by one from `_word`
_TWO_PI = 2.0 * math.pi


class GaussianStream:
    """Deterministic scalar stream: splitmix64 counter generator + Box-Muller.

    The i-th raw word is ``mix(seed + (i+1) * golden)`` modulo 2^64, so word i
    depends only on (seed, i), and identical seeds give identical streams.
    Draws are therefore evaluated block by block: an array draw computes its
    words ``_BLOCK`` at a time, in place in scratch buffers reused from block
    to block, while single words (`integer_below`, `subset`) and draws of at
    most ``_FEW`` words are computed in exact Python integers. Every value
    depends only on the seed and the position of its words, not on how the
    draws are chunked into calls nor on the block size. A uniform takes one
    word; a pair of normals takes two adjacent ones, and the second normal of
    a pair left over by an odd-sized draw is kept for the next `normal` call.
    Derived streams use ``seed XOR i`` (see `split`).
    """

    def __init__(self, seed: int):
        self.seed = _U64(int(seed) & _MASK)
        self._pos = 0
        self._spare: float | None = None

    def _blocks(self, n: int, out: np.ndarray | None = None):
        """Yield the next n uniforms as consecutive blocks of at most ``_BLOCK``.

        The blocks are views of ``out``, a float64 array of n entries, or
        else of one scratch buffer that each block overwrites, so a caller
        consumes a block before it takes the next. Draws of at most ``_FEW``
        words take them from `_word`, which costs fewer numpy calls.
        """
        n = operator.index(n)
        if n <= _FEW:
            u = [(self._word() >> 11) * 2.0**-53 + 2.0**-54 for _ in range(n)]
            if out is None:
                yield np.array(u)
            else:
                out[:] = u
                yield out
            return
        size = min(n, _BLOCK)
        steps = np.arange(1, size + 1, dtype=_U64)
        np.multiply(steps, _GOLDEN_U64, out=steps)
        word = np.empty(size, _U64)
        tmp = np.empty(size, _U64)
        for lo in range(0, n, _BLOCK):
            m = min(_BLOCK, n - lo)
            w, t = word[:m], tmp[:m]
            # word pos + 1 + i is mix(seed + pos * golden + (i + 1) * golden)
            np.add(steps[:m], _U64((int(self.seed) + self._pos * _GOLDEN) & _MASK), out=w)
            self._pos += m
            for shift, mult in _MIX_STEPS:
                np.right_shift(w, shift, out=t)
                np.bitwise_xor(w, t, out=w)
                np.multiply(w, mult, out=w)
            np.right_shift(w, _S31, out=t)
            np.bitwise_xor(w, t, out=w)
            np.right_shift(w, _S11, out=w)
            # the 53-bit integers convert to float64 exactly, in place without out
            u = w.view(np.float64) if out is None else out[lo:lo + m]
            np.multiply(w.view(np.int64), 2.0**-53, out=u)
            np.add(u, 2.0**-54, out=u)
            yield u

    def _word(self) -> int:
        """The next raw word, in exact Python integer arithmetic."""
        self._pos += 1
        z = (int(self.seed) + self._pos * _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def skip(self, n: int) -> None:
        """Move the counter past n raw words without drawing them."""
        self._pos += operator.index(n)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles strictly inside (0, 1): ``(word >> 11) * 2^-53 + 2^-54``."""
        out = np.empty(n)
        for _ in self._blocks(n, out):
            pass
        return out

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws with the given shape (int or tuple).

        Box-Muller on adjacent words (u1, u2): ``r = sqrt(-2 log u1)`` gives
        ``r cos(2 pi u2)`` and then ``r sin(2 pi u2)``.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        n = math.prod(shape)
        if n < 0:
            raise ValueError(f"negative shape {shape}")
        start = 1 if self._spare is not None and n > 0 else 0
        pairs = (n - start + 1) // 2
        buf = np.empty(start + 2 * pairs)
        if start:
            buf[0] = self._spare
            self._spare = None
        lo = start
        for u in self._blocks(2 * pairs):
            z = buf[lo:lo + u.size]
            lo += u.size
            r, t = u[0::2], u[1::2]
            np.log(r, out=r)
            np.multiply(r, -2.0, out=r)
            np.sqrt(r, out=r)
            np.multiply(t, _TWO_PI, out=t)
            np.cos(t, out=z[0::2])
            np.multiply(z[0::2], r, out=z[0::2])
            np.sin(t, out=z[1::2])
            np.multiply(z[1::2], r, out=z[1::2])
        if buf.size > n:
            self._spare = float(buf[n])
        return buf[:n].reshape(shape)

    def integer_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias).

        ``bound`` may be at most 2**64, where the draw is the next raw word.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError(f"bound {bound} exceeds 2**64, the range of one raw word")
        span = (1 << 64) - ((1 << 64) % bound)
        while True:
            word = self._word()
            if word < span:
                return word % bound

    def subset(self, n: int, k: int) -> np.ndarray:
        """Sorted uniform k-subset of range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n}")
        pool = {}  # the entries of range(n) that the swaps have moved
        for i in range(k):
            j = i + self.integer_below(n - i)
            pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
        return np.sort(np.array([pool[i] for i in range(k)], dtype=np.intp))

    def split(self, i: int) -> "GaussianStream":
        """Independent derived stream for trial i (seed XOR i)."""
        return GaussianStream(int(self.seed) ^ int(i))
