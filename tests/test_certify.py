import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from gradcert.certify import (
    THEOREM_IDS,
    BoundReport,
    _CHECKS,
    _ROWS,
    _sample_blocks,
    appendix_grid,
    check_bounds,
    converse_secant,
    estimate_rlg,
    estimate_rsi,
    fit_rate,
)
from gradcert.numkit import GaussianStream
from gradcert.oracles import KnownConstants, Objective, make_example_1d, make_quadratic_composite
from gradcert.solvers import SolverConfig, SolverTrace, load_trace_csv, run_solver
from conftest import seeded_quad

SQRT2 = math.sqrt(2.0)


def make_trace(f, dist=None, f_star=0.0):
    f = np.asarray(f, dtype=np.float64)
    return SolverTrace(
        f=f,
        grad_norm=np.zeros_like(f),
        dist_to_sol=None if dist is None else np.asarray(dist, dtype=np.float64),
        reset_event=("none",) * f.size,
        status="max_iters",
        f_star=f_star,
    )


# ---------------------------------------------------------------------------
# secant constant estimation


def test_rsi_f1_recovers_paper_constant():
    est = estimate_rsi(make_example_1d("f1"), (0.0, 10.0), 100_000)
    assert est.value == pytest.approx(2.0 / (4.0 - SQRT2), rel=0.01)
    assert est.method == "projection_ratio"


def test_rsi_f2_recovers_paper_constant():
    est = estimate_rsi(make_example_1d("f2"), (0.0, 10.0), 100_000)
    assert est.value == pytest.approx(math.sqrt((SQRT2 - 1.0) / 2.0), rel=0.01)


def test_rsi_f3_is_exactly_one():
    est = estimate_rsi(make_example_1d("f3", beta=1.0), (-5.0, 5.0), 100_000)
    assert abs(est.value - 1.0) <= 1e-9


def test_rsi_overestimates_known_nu(quad_20x50):
    box = (-3.0 * np.ones(50), 3.0 * np.ones(50))
    est = estimate_rsi(quad_20x50, box, 2000, seed=5)
    assert est.value >= quad_20x50.constants.nu * 0.99


def test_rsi_witness_reproduces_value():
    oracle = make_example_1d("f1")
    est = estimate_rsi(oracle, (0.0, 10.0), 5000)
    x = est.witness
    _, g = oracle.eval(x)
    d = x - oracle.project(x)
    ratio = float(g @ d) / float(d @ d)
    assert ratio == pytest.approx(est.value, rel=1e-9)


def test_rsi_needs_projection_and_samples(quad_20x50):
    from gradcert.oracles import make_augl1_dual

    a = GaussianStream(2).normal((3, 7))
    dual = make_augl1_dual(a, a @ np.ones(7), 1.0)
    with pytest.raises(ValueError):
        estimate_rsi(dual, (-1.0, 1.0), 500)
    with pytest.raises(ValueError):
        estimate_rsi(quad_20x50, (-1.0, 1.0), 50)
    with pytest.raises(ValueError, match="at least 100 samples"):
        estimate_rlg(quad_20x50, (-1.0, 1.0), 50)
    # the sampling box needs finite bounds with hi > lo, in every coordinate
    for box, message in (((1.0, -1.0), "hi > lo"), ((0.0, 0.0), "hi > lo"),
                         ((0.0, np.inf), "must be finite, got 0.0 and inf"),
                         ((np.nan, 1.0), "must be finite, got nan and 1.0")):
        for estimate in (estimate_rsi, estimate_rlg):
            with pytest.raises(ValueError, match=re.escape(message)):
                estimate(quad_20x50, box, 500)


def test_rsi_reports_a_nan_ratio():
    # past x1 = 1.9e10 the inner product overflows to inf - inf: the NaN
    # ratio wins over every finite one, in whichever block it falls
    def eval_batch(xs):
        s = np.where(xs[:, :1] > 1.9e10, 1e300, 1.0)
        return np.zeros(len(xs)), np.hstack([s, -0.5 * s])

    oracle = Objective(dim=2, eval=None, project=np.zeros_like, eval_batch=eval_batch)
    with pytest.raises(ValueError, match="got nan"):
        estimate_rsi(oracle, (1e10, 2e10), 20_000)
    assert estimate_rsi(oracle, (1e10, 1.8e10), 20_000).value > 0


def test_rsi_rejects_all_interior_samples():
    f3 = make_example_1d("f3", beta=5.0)
    with pytest.raises(ValueError, match="solution set"):
        estimate_rsi(f3, (-1.0, 1.0), 200)


# ---------------------------------------------------------------------------
# restricted Lipschitz estimation


def test_rlg_exact_on_isotropic_composite():
    # rows scaled-orthonormal: the gradient ratio equals ||A||^2 on every
    # descent segment, so the sampled estimate is exact
    q = np.linalg.qr(GaussianStream(21).normal((10, 5)))[0].T
    oracle = make_quadratic_composite(3.0 * q, np.zeros(5))
    est = estimate_rlg(oracle, (-2.0, 2.0), 200, seed=3)
    assert est.value == pytest.approx(9.0, rel=0.01)
    assert est.method == "segment_sampling"


def test_rlg_f3_at_most_one():
    est = estimate_rlg(make_example_1d("f3", beta=1.0), (-4.0, 4.0), 200, seed=4)
    assert est.value <= 1.0 + 1e-9
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_rlg_unit_quadratic_exact():
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    est = estimate_rlg(unit, (-5.0, 5.0), 200, seed=5)
    assert abs(est.value - 1.0) <= 1e-9


def test_rlg_never_exceeds_true_norm(quad_20x50):
    box = (-2.0 * np.ones(50), 2.0 * np.ones(50))
    est = estimate_rlg(quad_20x50, box, 150, seed=6)
    assert est.value <= quad_20x50.constants.R * (1 + 1e-9)


def test_rlg_reports_a_gradient_blow_up():
    # linspace(0, 2, 101) holds x = 1, where f1's gradient is +inf
    with pytest.raises(ArithmeticError, match="at sample z = \\[1.\\]"):
        estimate_rlg(make_example_1d("f1"), (0.0, 2.0), 101)
    # finite on the cloud, infinite below 0.5, which the descent segments reach
    def eval_batch(xs):
        return 0.5 * xs[:, 0] ** 2, np.where(xs < 0.5, np.inf, xs)

    oracle = Objective(dim=1, eval=None, eval_batch=eval_batch)
    with pytest.raises(ArithmeticError, match="on a segment near"):
        estimate_rlg(oracle, (1.0, 2.0), 100)


def test_rlg_witness_reproduces_value():
    oracle = make_example_1d("f2")
    est = estimate_rlg(oracle, (0.0, 6.0), 150, seed=8)
    xa, xb = est.witness
    _, ga = oracle.eval(xa)
    _, gb = oracle.eval(xb)
    ratio = float(np.linalg.norm(ga - gb) / np.linalg.norm(xa - xb))
    assert ratio == pytest.approx(est.value, rel=1e-9)


# ---------------------------------------------------------------------------
# converse


def test_converse_hand_case():
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    cfg = SolverConfig(stepsize_h=0.5, max_iters=30, variant="gd")
    tr = run_solver(unit, np.array([4.0]), cfg)
    est = converse_secant(tr, unit, 0.5)
    # ratios are exactly 1/2, so delta = 3/4 and nu = delta / (2 * 0.5)
    assert est.value == pytest.approx(0.75, rel=1e-12)
    assert est.method == "contraction_converse"


def test_converse_on_square_composite():
    sq = make_quadratic_composite(GaussianStream(5).normal((12, 12)), GaussianStream(6).normal(12))
    cfg = SolverConfig(stepsize_h=1.0 / (2.0 * sq.constants.R), max_iters=200, variant="gd")
    tr = run_solver(sq, np.ones(12), cfg)
    est = converse_secant(tr, sq, cfg.stepsize_h)
    assert est.value > 0
    report = check_bounds(tr, sq, "thm2_converse", cfg)
    assert report.passed


def test_converse_never_beats_direct_sampling():
    sq = make_quadratic_composite(GaussianStream(15).normal((8, 8)), GaussianStream(16).normal(8))
    cfg = SolverConfig(stepsize_h=1.0 / (2.0 * sq.constants.R), max_iters=300, variant="gd")
    tr = run_solver(sq, np.ones(8), cfg)
    nu_conv = converse_secant(tr, sq, cfg.stepsize_h).value
    box = (-2.0 * np.ones(8), 2.0 * np.ones(8))
    nu_direct = estimate_rsi(sq, box, 2000, seed=9).value
    assert nu_conv <= nu_direct + 1e-6


def test_converse_rejects_degenerate_trace():
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    cfg = SolverConfig(stepsize_h=0.5, max_iters=10, variant="gd")
    tr = run_solver(unit, np.array([0.0]), cfg)  # starts at the optimum
    with pytest.raises(ValueError):
        converse_secant(tr, unit, 0.5)


# ---------------------------------------------------------------------------
# bound checks


def run_gd(oracle, h, iters, x0=None):
    cfg = SolverConfig(stepsize_h=h, max_iters=iters, variant="gd")
    x0 = np.zeros(oracle.dim) if x0 is None else x0
    return run_solver(oracle, x0, cfg), cfg


def test_thm2_passes_on_conforming_run(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 400)
    report = check_bounds(tr, quad_20x50, "thm2_linear", cfg)
    assert report.passed and report.max_violation <= 0
    assert report.first_fail_k is None


def test_thm3_passes_on_conforming_run(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / quad_20x50.constants.L, 400)
    assert check_bounds(tr, quad_20x50, "thm3_linear", cfg).passed


def test_thm1_passes_and_uses_proof_constant(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / quad_20x50.constants.R, 2000, x0=100 * np.ones(50))
    report = check_bounds(tr, quad_20x50, "thm1_sublinear", cfg)
    assert report.passed


def test_thm4_passes_on_nesterov(quad_20x50):
    cfg = SolverConfig(stepsize_h=1.0 / quad_20x50.constants.R, max_iters=800, variant="nesterov")
    tr = run_solver(quad_20x50, np.zeros(50), cfg)
    assert check_bounds(tr, quad_20x50, "thm4_accel", cfg).passed


def test_lemma_checks_pass_on_trace(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 150, x0=np.ones(50))
    for tid in ("lemma1_part2", "lemma2_combined", "lemma3_growth"):
        report = check_bounds(tr, quad_20x50, tid, cfg)
        assert report.passed, tid


def scaled_square(c):
    """f(x) = (c/2)||x||^2 in 2-D, with R = L = nu = c and minimizer 0."""
    return Objective(
        dim=2,
        eval=lambda x: (0.5 * c * float(x.dot(x)), c * x),
        eval_batch=lambda xs: (0.5 * c * np.einsum("ij,ij->i", xs, xs), c * xs),
        project=np.zeros_like,
        constants=KnownConstants(R=c, L=c, nu=c),
        f_star=0.0,
        name="scaled_square",
    )


def test_lemma_checks_pin_their_constants():
    # on (c/2)||x||^2, <g, x> = c r^2 and ||g||^2 = c^2 r^2, so the scale-free
    # violations are exactly 1/2 - 1 (lemma1, 1/(2R)) and 3/4 - 1 (lemma2, 1/(4R))
    oracle = scaled_square(4.0)
    tr, cfg = run_gd(oracle, 1.0 / 8.0, 20, x0=np.array([3.0, -1.0]))
    for tid, want in (("lemma1_part2", -0.5), ("lemma2_combined", -0.25)):
        report = check_bounds(tr, oracle, tid, cfg)
        assert report.passed and report.n_checked == len(tr), tid
        assert report.max_violation == pytest.approx(want, rel=1e-12), tid


def test_estimators_hold_one_block_of_samples():
    # a block of 8,192 rows is 64 KB per array here; all 32 n pairs of a
    # sweep at once peak at 29.5 MB, and all 100,000 samples at 7.1 MB. The
    # blocks peak at 1.01 MiB (estimate_rlg) and 0.76 MiB (estimate_rsi), and
    # the bound leaves a quarter of a MiB above the larger
    f1, f3 = make_example_1d("f1"), make_example_1d("f3", beta=1.0)
    for run in (lambda: estimate_rlg(f3, (-5.0, 5.0), 10_000),
                lambda: estimate_rsi(f1, (0.0, 10.0), 100_000)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


class _CloudBuilt(Exception):
    pass


def test_estimate_rlg_holds_its_cloud_once():
    # 400,000 grid rows are a 3.2 MB cloud of 48 blocks; joining the blocks
    # into a new array holds the cloud twice before its gradients (6.41 MB),
    # filling one array holds it once and the last block's few arrays (3.63 MB)
    def eval_batch(xs):
        raise _CloudBuilt(tracemalloc.get_traced_memory()[1])

    oracle = dataclasses.replace(make_example_1d("f3", beta=1.0), eval_batch=eval_batch)
    n = 400_000
    tracemalloc.start()
    try:
        with pytest.raises(_CloudBuilt) as built:
            estimate_rlg(oracle, (-5.0, 5.0), n)
    finally:
        tracemalloc.stop()
    assert 8 * n <= built.value.args[0] <= 1.25 * 8 * n


@pytest.mark.parametrize("box", [(0.0, 10.0), (-5.0, 5.0), (-1.0, 1.0 / 3.0), (0.0, 5e-324)])
@pytest.mark.parametrize("n", [100, 8191, 8192, 8193, 10**5, 123457])
def test_grid_blocks_are_the_linspace_rows(box, n):
    # (0, 5e-324) has a step that rounds to 0, where numpy divides first
    blocks = list(_sample_blocks(make_example_1d("f3", beta=1.0), box, n, 0))
    assert all(b.shape[0] < 2 * _ROWS for b in blocks)
    assert np.concatenate(blocks)[:, 0].tobytes() == np.linspace(*box, n).tobytes()


def test_certify_needs_eval_batch():
    oracle = dataclasses.replace(scaled_square(1.0), eval_batch=None)
    box = (-1.0, 1.0)
    with pytest.raises(ValueError, match="eval_batch"):
        estimate_rsi(oracle, box, 100)
    with pytest.raises(ValueError, match="eval_batch"):
        estimate_rlg(oracle, box, 100)


def test_batch_projection_must_keep_the_batch_shape():
    # one point back for a whole batch would broadcast in x - x_prj unnoticed
    oracle = dataclasses.replace(scaled_square(1.0), project=lambda p: np.zeros(2))
    with pytest.raises(ValueError, match="projection"):
        estimate_rsi(oracle, (-1.0, 1.0), 100)


_SECANT_CHECKS = ("lemma1_part2", "lemma2_combined", "thm2_converse")


def _secant_reports(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 300, x0=np.ones(50))
    return tr, cfg, [check_bounds(tr, quad_20x50, tid, cfg) for tid in _SECANT_CHECKS]


def test_secant_checks_call_no_oracle_method(quad_20x50):
    tr, cfg, reports = _secant_reports(quad_20x50)
    assert all(r.passed and r.n_checked > 0 for r in reports), reports

    def boom(*args):
        raise AssertionError("check_bounds called the oracle")

    cut = dataclasses.replace(quad_20x50, eval=boom, eval_batch=boom, project=boom)
    assert [check_bounds(tr, cut, tid, cfg) for tid in _SECANT_CHECKS] == reports


def test_secant_checks_read_the_same_from_the_trace_csv(tmp_path, quad_20x50):
    tr, cfg, reports = _secant_reports(quad_20x50)
    path = tmp_path / "trace.csv"
    path.write_text("".join(tr.csv_blocks()), encoding="ascii")
    back = load_trace_csv(path)
    assert back.iterates is None
    assert [check_bounds(back, quad_20x50, tid, cfg) for tid in _SECANT_CHECKS] == reports


def test_secant_checks_need_the_secant_column():
    tr = make_trace([1.0, 0.5], dist=[1.0, 0.5])
    cfg = SolverConfig(stepsize_h=0.5, max_iters=1)
    for tid in _SECANT_CHECKS:
        with pytest.raises(ValueError, match="secant"):
            check_bounds(tr, scaled_square(1.0), tid, cfg)


def test_converse_secant_needs_the_iterates_for_its_witness(quad_20x50):
    tr, cfg, _ = _secant_reports(quad_20x50)
    with pytest.raises(ValueError, match="iterates"):
        converse_secant(dataclasses.replace(tr, iterates=None), quad_20x50, cfg.stepsize_h)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_row_names_the_column_it_lacks(quad_20x50, theorem_id):
    # every field a check reads, f_star for the gap included, comes from the trace alone
    tr, cfg = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 20, x0=np.ones(50))
    for name in _CHECKS[theorem_id].fields:
        with pytest.raises(ValueError, match=name):
            check_bounds(dataclasses.replace(tr, **{name: None}), quad_20x50, theorem_id, cfg)


def test_thm8_needs_the_augl1_dual(quad_20x50):
    tr, cfg = run_gd(quad_20x50, 1.0 / quad_20x50.constants.L, 200)
    with pytest.raises(ValueError, match="augmented-l1 dual"):
        check_bounds(tr, quad_20x50, "thm8_augl1", cfg)


def test_gap_dominated_by_distance_bound(quad_20x50):
    # objective gap <= (R/2) r_k^2 at every recorded iterate
    tr, _ = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 200, x0=np.ones(50))
    big_r = quad_20x50.constants.R
    assert np.all(tr.gap <= 0.5 * big_r * tr.dist_to_sol**2 * (1 + 1e-9))


def test_check_bounds_detects_violation():
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    # contraction bound for unit quad is sqrt(1 - 1/2) ~ 0.707; feed ratios 0.9
    dist = 0.9 ** np.arange(30)
    tr = make_trace(0.5 * dist**2, dist=dist)
    cfg = SolverConfig(stepsize_h=0.5, max_iters=29, variant="gd")
    report = check_bounds(tr, unit, "thm2_linear", cfg)
    assert not report.passed
    assert report.first_fail_k == 1
    assert report.max_violation > 0.2


def test_check_bounds_trivial_at_optimum(quad_20x50):
    x_star = quad_20x50.project(np.zeros(50))
    tr, cfg = run_gd(quad_20x50, 1.0 / (2.0 * quad_20x50.constants.R), 10, x0=x_star)
    for tid in ("thm1_sublinear", "thm2_linear", "lemma3_growth"):
        report = check_bounds(tr, quad_20x50, tid, cfg)
        assert report.passed, tid
        assert report.n_checked == 0, tid
        assert report.n_vacuous > 0, tid


def test_lemma3_skips_gaps_below_resolution():
    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))  # nu = 1
    cfg = SolverConfig(stepsize_h=0.5, max_iters=3, variant="gd")
    gap = np.array([1.0, 0.5, 0.25, 1e-21])
    # growth holds with room to spare except in the roundoff tail, where
    # (nu/2) r^2 = 1.01 gap at r ~ 4.5e-11, well above the 1e-12 cut
    tail = np.sqrt(gap)
    tail[-1] = math.sqrt(2.0 * 1.01 * gap[-1])
    assert check_bounds(make_trace(gap, dist=tail), unit, "lemma3_growth", cfg).passed
    bad = np.sqrt(gap)
    bad[2] = math.sqrt(2.0 * 1.01 * gap[2])
    report = check_bounds(make_trace(gap, dist=bad), unit, "lemma3_growth", cfg)
    assert not report.passed
    assert report.first_fail_k == 2
    assert report.max_violation == pytest.approx(0.01, rel=1e-9)


def test_bound_report_counts_checked_and_vacuous():
    from gradcert.oracles import make_augl1_dual

    unit = make_quadratic_composite(np.array([[1.0]]), np.array([0.0]))
    cfg = SolverConfig(stepsize_h=0.5, max_iters=5, variant="gd")
    dist = np.array([1.0, 0.5, 0.25, 1e-13, 1e-14, 0.0])
    gap = 0.5 * dist**2
    # thm2 pairs (r_k, r_k+1) with r_k < 1e-12 are vacuous: k = 3, 4
    report = check_bounds(make_trace(gap, dist=dist), unit, "thm2_linear", cfg)
    assert (report.n_checked, report.n_vacuous) == (3, 2)
    # lemma3 records with r_k < 1e-12 or gap_k below resolution: k = 3, 4, 5
    report = check_bounds(make_trace(gap, dist=dist), unit, "lemma3_growth", cfg)
    assert (report.n_checked, report.n_vacuous) == (3, 3)
    # thm8 fits f - min f over the terminal half of its positive prefix,
    # here k = 19..38, and skips nothing; it is a theorem on the augl1 dual
    a = GaussianStream(2).normal((3, 7))
    dual = make_augl1_dual(a, a @ np.ones(7), 1.0)
    report = check_bounds(make_trace(0.5 ** np.arange(40), f_star=None), dual, "thm8_augl1", cfg)
    assert report.passed
    assert (report.n_checked, report.n_vacuous) == (20, 0)


def test_check_bounds_rejects_missing_capability():
    from gradcert.oracles import make_augl1_dual

    a = GaussianStream(2).normal((3, 7))
    dual = make_augl1_dual(a, a @ np.ones(7), 1.0)
    cfg = SolverConfig(stepsize_h=1.0 / dual.constants.L, max_iters=20, variant="gd")
    tr = run_solver(dual, np.zeros(3), cfg)
    with pytest.raises(ValueError, match="dist_to_sol"):
        check_bounds(tr, dual, "thm2_linear", cfg)
    with pytest.raises(ValueError, match="unknown theorem id"):
        check_bounds(tr, dual, "thm9_missing", cfg)
    # a gap check reads f_star from the trace alone, whatever the oracle knows
    quad = make_quadratic_composite(np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="f_star"):
        check_bounds(make_trace(np.ones(5), dist=np.ones(5), f_star=None), quad,
                     "lemma3_growth", cfg)
    # thm8 needs a positive gap over its best value seen at k = 0 and k = 1
    with pytest.raises(ValueError, match="no positive-gap prefix"):
        check_bounds(make_trace(np.ones(5), f_star=None), dual, "thm8_augl1", cfg)


def test_thm6_restart_check(quad_20x50):
    nu, big_r = quad_20x50.constants.nu, quad_20x50.constants.R
    k_len = math.ceil(math.sqrt(8.0 * math.e * big_r / nu))
    cfg = SolverConfig(
        stepsize_h=1.0 / big_r,
        max_iters=21 * k_len,
        variant="restart_fixed",
        restart_every=k_len,
    )
    tr = run_solver(quad_20x50, np.zeros(50), cfg)
    assert check_bounds(tr, quad_20x50, "thm6_restart", cfg).passed


def test_report_json_fields():
    report = BoundReport("thm2_linear", True, -0.5, None, 7, 2)
    payload = report.to_json()
    assert '"pass": true' in payload and '"theorem_id": "thm2_linear"' in payload
    assert json.loads(payload) == {
        "theorem_id": "thm2_linear",
        "pass": True,
        "max_violation": -0.5,
        "first_fail_k": None,
        "n_checked": 7,
        "n_vacuous": 2,
    }


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_exact_geometric():
    tr = make_trace(0.5 ** np.arange(60))
    fit = fit_rate(tr, "linear_geometric", (0, 59))
    assert fit.fitted_factor == pytest.approx(0.5, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_one_over_k_slope():
    ks = np.arange(80, dtype=np.float64)
    tr = make_trace(1.0 / np.maximum(ks, 1.0))
    fit = fit_rate(tr, "sublinear_1_over_k", (1, 79))
    assert fit.fitted_factor == pytest.approx(-1.0, abs=1e-6)


def test_fit_one_over_k2_slope():
    ks = np.arange(80, dtype=np.float64)
    tr = make_trace(1.0 / np.maximum(ks, 1.0) ** 2)
    fit = fit_rate(tr, "sublinear_1_over_k2", (1, 79))
    assert fit.fitted_factor == pytest.approx(-2.0, abs=1e-6)


def test_fit_window_shrinks_on_nonpositive():
    f = np.concatenate([0.5 ** np.arange(20), np.zeros(10)])
    tr = make_trace(f)
    fit = fit_rate(tr, "linear_geometric", (0, 29))
    assert fit.truncated and fit.window == (0, 19)
    assert fit.fitted_factor == pytest.approx(0.5, rel=1e-9)


def test_fit_too_few_points_raises():
    tr = make_trace(np.concatenate([0.5 ** np.arange(5), np.zeros(20)]))
    with pytest.raises(ValueError, match="need >= 10"):
        fit_rate(tr, "linear_geometric", (0, 24))
    # an unknown model, a window outside the trace and a log-log fit from k = 0
    for model, window, message in (("cubic", (0, 24), "unknown rate model 'cubic'"),
                                   ("linear_geometric", (0, 25), "outside trace of length 25"),
                                   ("linear_geometric", (-1, 10), "outside trace"),
                                   ("linear_geometric", (12, 11), "outside trace"),
                                   ("sublinear_1_over_k", (0, 24), "k >= 1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_rate(tr, model, window)


def test_fit_gd_rate_at_least_theorem_bound(quad_20x50):
    nu, big_r = quad_20x50.constants.nu, quad_20x50.constants.R
    tr, _ = run_gd(quad_20x50, 1.0 / (2.0 * big_r), 400)
    fit = fit_rate(tr, "linear_geometric", (50, 400))
    assert fit.fitted_factor <= (1.0 - nu / (2.0 * big_r)) + 1e-6
    assert fit.r_squared > 0.99


# ---------------------------------------------------------------------------
# appendix grid


def test_appendix_reference_case():
    opt = appendix_grid(1.0, 0.5, 2000)
    assert abs(opt.theta_star - 0.5) <= 1.0 / 2000 + 1e-12
    assert abs(opt.h_star - 0.5) <= 0.5 / 2000 + 1e-12
    assert opt.min_value == pytest.approx(0.75, abs=1e-6)


def test_appendix_scaled_case():
    opt = appendix_grid(10.0, 1.0, 2000)
    assert opt.min_value == pytest.approx(0.95, abs=1e-6)
    assert abs(opt.theta_star - 0.5) <= 1e-3
    assert abs(opt.h_star - 0.05) <= 1e-4


def test_appendix_cases_share_corner():
    opt = appendix_grid(2.0, 1.0, 1000)
    assert opt.case_a_value == pytest.approx(opt.case_b_value, abs=1e-9)
    assert opt.min_value == min(opt.case_a_value, opt.case_b_value)


def test_appendix_grid_is_upper_envelope_of_closed_form():
    stream = GaussianStream(33)
    for _ in range(20):
        big_r = 0.5 + 5.0 * float(stream.uniform(1)[0])
        nu = float(stream.uniform(1)[0]) * 1.9 * big_r + 1e-3
        nu = min(nu, 1.999 * big_r)
        opt = appendix_grid(big_r, nu, 1000)
        assert opt.min_value >= (1.0 - nu / (2.0 * big_r)) - 1e-12


def test_appendix_validates_inputs():
    with pytest.raises(ValueError):
        appendix_grid(1.0, 2.5, 1000)  # nu >= 2R
    with pytest.raises(ValueError):
        appendix_grid(1.0, 0.5, 500)  # grid too coarse
    # R must be positive, and (2R)^2 and 4/R finite
    for big_r, nu in ((0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                      (1e-310, 1e-311), (1e308, 1e307), (1e200, 1e200)):
        with pytest.raises(ValueError, match=re.escape(f"got {big_r}")):
            appendix_grid(big_r, nu, 1000)
