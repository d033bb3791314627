"""Gradient methods under restricted curvature conditions.

Solvers (plain, accelerated, restarted, adaptive), an oracle zoo with known
secant/Lipschitz constants, numerical certification of per-iteration rate
bounds, and linearized-Bregman sparse recovery.
"""

from .numkit import (
    GaussianStream,
    SpectralSummary,
    sym_eig_summary,
)
from .oracles import (
    KnownConstants,
    Objective,
    compose_constants,
    make_augl1_dual,
    make_example_1d,
    make_quadratic_composite,
    shrink,
)
from .solvers import (
    SolverConfig,
    SolverTrace,
    run_solver,
    theta_step,
)
from .certify import (
    BoundReport,
    ConstantEstimate,
    GridOptimum,
    RateFit,
    appendix_grid,
    check_bounds,
    converse_secant,
    estimate_rlg,
    estimate_rsi,
    fit_rate,
)
from .sparse_recovery import (
    RecoveryResult,
    SparseProblem,
    gen_sparse_problem,
    recover,
)

__version__ = "0.1.0"
