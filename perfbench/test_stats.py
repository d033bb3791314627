"""Tests of the benchmark's own arithmetic and of the tracer's accounting.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from gradcert import oracles, solvers, sparse_recovery  # noqa: E402


def test_p90_omitted_below_100_samples():
    assert stats.p90([0.1] * 99) is None
    assert stats.p90(list(range(99))) is None


def test_p90_leaves_at_least_10_samples_beyond_it():
    values = [float(i) for i in range(100)]
    q = stats.p90(values)
    assert q is not None
    assert sum(v > q for v in values) >= stats.MIN_BEYOND_TAIL
    assert stats.p90(list(reversed(values))) == q


def test_median_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.median([])


def test_self_time_with_nested_spans():
    #   0: root        [0, 10]
    #   1:   child     [1, 4]
    #   2:     grand   [2, 3]
    #   3:   child     [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert stats.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_self_time_sums_by_name():
    t = tracer_mod.Tracer()
    t.name = ["solvers.run", "oracles.eval", "oracles.eval", "solvers.run"]
    t.start = [0.0, 1.0, 3.0, 20.0]
    t.end = [10.0, 2.0, 5.0, 21.0]
    t.parent = [-1, 0, 0, -1]
    agg = t.by_name()
    assert agg["solvers.run"] == (2, 11.0, 8.0)
    assert agg["oracles.eval"] == (2, 3.0, 3.0)


def test_augl1_eval_flops_at_paper_scale():
    assert stats.augl1_eval_flops(256, 512) == 4 * 256 * 512 == 524_288


def test_traced_augl1_eval_counts_computed_flops():
    problem = sparse_recovery.gen_sparse_problem(3, 256, 512, 25, "pm_one")
    t = tracer_mod.Tracer()
    t.install()
    try:
        dual = oracles.make_augl1_dual(problem.A, problem.b, problem.alpha)
        dual.eval(np.zeros(256))
    finally:
        t.restore()
    assert t.counts["oracles.eval_flops"] == 524_288
    assert t.by_name()["oracles.eval"][0] == 1
    assert oracles.make_augl1_dual.__name__ == "make_augl1_dual"  # binding restored


def test_traced_solver_run_matches_untraced_and_counts_evals():
    a = np.arange(1.0, 13.0).reshape(3, 4) ** 0.5
    quad = oracles.make_quadratic_composite(a, a @ np.ones(4))
    cfg = solvers.SolverConfig(1.0 / quad.constants.R, 40, variant="nesterov")
    plain = solvers.run_solver(quad, np.zeros(4), cfg)
    t = tracer_mod.Tracer()
    t.install()
    try:
        traced_quad = oracles.make_quadratic_composite(a, a @ np.ones(4))
        traced = solvers.run_solver(traced_quad, np.zeros(4), cfg)
    finally:
        t.restore()
    assert np.array_equal(plain.f, traced.f)
    assert plain.reset_event == traced.reset_event
    m = t.metrics()
    assert m["solvers.runs"] == 1
    assert m["solvers.iters"] == len(plain) - 1
    evals = t.by_name()["oracles.eval"][0]
    assert m["solvers.evals_per_iter"] == evals / (len(plain) - 1)
    assert m["oracles.project_calls"] == len(plain)
    run_total, run_self = t.by_name()["solvers.run"][1:]
    children = sum(t.by_name()[n][1] for n in ("oracles.eval", "oracles.project"))
    assert run_self == pytest.approx(run_total - children, abs=1e-9)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == tracer_mod.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"
    ]
