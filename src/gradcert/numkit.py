"""Dense linear algebra, spectral estimates, and deterministic random streams.

Everything here is plain float64 numpy with no hidden state: eigenvalues
(hence ``||A||^2 = lambda_max(A A^T)``) and linear solves come from LAPACK
through `numpy.linalg`, and the random stream is a counter-based generator
(splitmix64 + Box-Muller) whose output depends only on (seed, position).
`gram_spectral_norm`, a power iteration, is no longer used by the package;
it stays because the benchmark's tracer (``perfbench/tracer.py``) hooks it
by name.
"""

from __future__ import annotations

import math
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


def _check_symmetric(S: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(S))))
    asym = float(np.max(np.abs(S - S.T)))
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
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


class GaussianStream:
    """Deterministic scalar stream: splitmix64 counter generator + Box-Muller.

    The i-th raw word is ``mix(seed + (i+1) * golden)``, so draws depend only
    on the seed and position; identical seeds give identical streams. Derived
    streams use ``seed XOR i`` (see `split`).
    """

    def __init__(self, seed: int):
        self.seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._pos = 0
        self._spare: float | None = None

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        with np.errstate(over="ignore"):
            return _mix(self.seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles strictly inside (0, 1)."""
        return (self._raw(n) >> _U64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws with the given shape (int or tuple)."""
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        n = int(np.prod(shape)) if shape else 1
        out = np.empty(n)
        start = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            start = 1
        need = n - start
        if need > 0:
            pairs = (need + 1) // 2
            u = self.uniform(2 * pairs)
            u1 = u[0::2]  # adjacent pairing keeps draws chunking-invariant
            u2 = u[1::2]
            r = np.sqrt(-2.0 * np.log(u1))
            z1 = r * np.cos(2.0 * np.pi * u2)
            z2 = r * np.sin(2.0 * np.pi * u2)
            inter = np.empty(2 * pairs)
            inter[0::2] = z1
            inter[1::2] = z2
            out[start:] = inter[:need]
            if 2 * pairs > need:
                self._spare = float(inter[need])
        return out.reshape(shape)

    def integer_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = (1 << 64) - ((1 << 64) % bound)
        while True:
            word = int(self._raw(1)[0])
            if word < span:
                return word % bound

    def subset(self, n: int, k: int) -> np.ndarray:
        """Sorted uniform k-subset of range(n) via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} of {n}")
        pool = np.arange(n)
        for i in range(k):
            j = i + self.integer_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return np.sort(pool[:k])

    def split(self, i: int) -> "GaussianStream":
        """Independent derived stream for trial i (seed XOR i)."""
        return GaussianStream(int(self.seed) ^ int(i))
