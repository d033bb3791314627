"""Print SHA-256 digests of solver traces, hashed from their arrays, not their CSV text.

Usage, from the root of a checkout:

    python3 tools/trace_digest.py

It prints one line per set, ``<set> <sha256>``, in a few seconds. Each digest
covers the raw bytes of every array and the repr of every scalar field, so a
change to how traces are written or read cannot hide a moved bit:

- ``recover``: seeds 1-3, 256x512, k = 25, ``pm_one``, each of the four
  ``RECOVERY_VARIANTS``; the problem's ``A``, ``b``, ``x_true`` and ``alpha``,
  the result's curves and ``x_final``, and the dual trace's ``f``,
  ``grad_norm``, ``reset_event``, ``status`` and ``n_evals``;
- ``quad``: the 20x50 quads ``make_quadratic_composite(a, a @ x)`` with ``a``
  and ``x`` drawn from ``GaussianStream(s)``, s = 11-15, run from 0 under each
  ``SolverConfig.variant`` (adaptive under both policies) at its theory
  stepsize; every trace field, ``dist_to_sol``, ``f_star`` and the iterates
  included.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gradcert.numkit import GaussianStream  # noqa: E402
from gradcert.oracles import make_quadratic_composite  # noqa: E402
from gradcert.solvers import SolverConfig, run_solver  # noqa: E402
from gradcert.sparse_recovery import RECOVERY_VARIANTS, gen_sparse_problem, recover  # noqa: E402


def _feed(h, *items) -> None:
    """Hash each item: an array as its dtype, shape and bytes, anything else as its repr."""
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())
        h.update(b"|")


def recover_digest() -> str:
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        p = gen_sparse_problem(seed, 256, 512, 25, "pm_one")
        _feed(h, p.A, p.b, p.x_true, p.alpha)
        for variant in RECOVERY_VARIANTS:
            res = recover(p, variant)
            _feed(h, variant, res.x_final, res.rel_error_curve, res.primal_residual_curve,
                  res.iters)
            tr = res.dual_trace
            _feed(h, tr.f, tr.grad_norm, tr.reset_event, tr.status, tr.n_evals)
    return h.hexdigest()


def _theory_configs(nu: float, big_r: float) -> list[SolverConfig]:
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    return [
        SolverConfig(stepsize_h=1.0 / (2.0 * big_r), max_iters=2000, variant="gd"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="nesterov"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=20 * k_len + 1,
                     variant="restart_fixed", restart_every=k_len),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="adaptive", policy="restart"),
        SolverConfig(stepsize_h=1.0 / big_r, max_iters=2000, variant="adaptive", policy="skip"),
    ]


def quad_digest() -> str:
    h = hashlib.sha256()
    for seed in (11, 12, 13, 14, 15):
        stream = GaussianStream(seed)
        a = stream.normal((20, 50))
        quad = make_quadratic_composite(a, a @ stream.normal(50))
        for cfg in _theory_configs(quad.constants.nu, quad.constants.R):
            tr = run_solver(quad, np.zeros(50), cfg)
            _feed(h, cfg, tr.f, tr.grad_norm, tr.dist_to_sol, tr.reset_event, tr.status,
                  tr.f_star, tr.n_evals, *tr.iterates)
    return h.hexdigest()


def main() -> None:
    print("recover", recover_digest())
    print("quad", quad_digest())


if __name__ == "__main__":
    main()
