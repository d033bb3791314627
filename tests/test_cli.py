import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gradcert.cli import main, oracle_from_id, resolve_stepsize
from gradcert.solvers import SolverTrace


def run_cli(*args):
    return main(list(args))


def test_empty_argv_is_usage_error(capsys):
    assert run_cli() == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 2


def test_oracle_from_id_zoo():
    assert oracle_from_id("f1").name == "f1"
    assert oracle_from_id("f3:beta=2.0").constants.nu == 1.0
    quad = oracle_from_id("quad:m=10,n=25,seed=7")
    assert quad.dim == 25 and quad.constants.nu is not None
    dual = oracle_from_id("augl1:m=20,n=40,k=3,signal=pm_one,seed=2")
    assert dual.dim == 20 and dual.constants.L is not None


def test_oracle_from_id_rejects_malformed():
    for bad in ("f9", "f3", "quad:m=3", "quad:m=3,n=6,seed=1,zap=2", "f1:x=1"):
        with pytest.raises(ValueError):
            oracle_from_id(bad)


def test_resolve_stepsize_rules():
    quad = oracle_from_id("quad:m=10,n=25,seed=7")
    assert resolve_stepsize(quad, "gd", "auto") == pytest.approx(1.0 / (2 * quad.constants.R))
    assert resolve_stepsize(quad, "nesterov", "auto") == pytest.approx(1.0 / quad.constants.R)
    dual = oracle_from_id("augl1:m=20,n=40,k=3,signal=pm_one,seed=2")
    assert resolve_stepsize(dual, "gd", "auto") == pytest.approx(1.0 / dual.constants.L)
    assert resolve_stepsize(quad, "gd", "0.125") == 0.125
    with pytest.raises(ValueError):
        resolve_stepsize(oracle_from_id("f1"), "gd", "auto")


def test_solve_writes_artifacts_and_reproduces(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["solve", "--oracle", "quad:m=10,n=25,seed=7", "--variant", "gd",
            "--max-iters", "100"]
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    cfg = json.loads((out1 / "config.json").read_text())
    quad = oracle_from_id("quad:m=10,n=25,seed=7")
    assert cfg["h"] == pytest.approx(1.0 / (2 * quad.constants.R))
    assert cfg["max_iters"] == 100


def test_solve_svg_is_wellformed(tmp_path):
    out = tmp_path / "s"
    assert run_cli("solve", "--oracle", "quad:m=8,n=20,seed=3", "--variant", "nesterov",
                   "--max-iters", "150", "--svg", "--out", str(out)) == 0
    root = ET.parse(out / "trace.svg").getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_verify_pass_and_fail(tmp_path):
    ok = run_cli("verify", "--oracle", "quad:m=10,n=25,seed=7", "--variant", "gd",
                 "--max-iters", "300", "--theorem", "thm2_linear",
                 "--out", str(tmp_path / "ok"))
    assert ok == 0
    report = json.loads((tmp_path / "ok" / "report.jsonl").read_text())
    assert report["pass"] is True
    # the accelerated method is not monotone in solution error, so checking it
    # against the descent contraction must fail
    bad = run_cli("verify", "--oracle", "quad:m=10,n=25,seed=7", "--variant", "nesterov",
                  "--max-iters", "300", "--theorem", "thm2_linear",
                  "--out", str(tmp_path / "bad"))
    assert bad == 1


def test_rates_on_synthetic_trace(tmp_path):
    ks = np.arange(50)
    trace = SolverTrace(
        f=0.5**ks,
        grad_norm=np.zeros(50),
        dist_to_sol=None,
        reset_event=("none",) * 50,
        status="max_iters",
        f_star=0.0,
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    out = tmp_path / "r"
    assert run_cli("rates", "--input", str(path), "--model", "linear_geometric",
                   "--window", "0", "49", "--out", str(out)) == 0
    fit = json.loads((out / "ratefit.jsonl").read_text())
    assert fit["fitted_factor"] == pytest.approx(0.5, rel=1e-9)


def test_recover_paper_test2_configuration(tmp_path):
    out = tmp_path / "rec"
    code = run_cli("recover", "--m", "40", "--n", "80", "--k", "4", "--signal", "pm_one",
                   "--seed", "2", "--variant", "skip", "--svg", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "tol_reached"
    assert summary["final_rel_error"] < 1e-6
    assert summary["alpha"] == 10.0
    assert summary["iters"] <= summary["n_evals"] < 2 * summary["iters"]
    lines = (out / "recovery.csv").read_text().splitlines()
    assert lines[0] == "k,rel_error,primal_residual,reset_event"
    ET.parse(out / "recovery.svg")


def test_appendix_command(tmp_path):
    out = tmp_path / "app"
    assert run_cli("appendix", "--R", "1", "--nu", "0.5", "--out", str(out)) == 0
    payload = json.loads((out / "appendix.json").read_text())
    assert payload["min_value"] == pytest.approx(0.75, abs=1e-6)
    assert payload["closed_form"] == 0.75


def test_certify_command(tmp_path):
    out = tmp_path / "cert"
    assert run_cli("certify", "--oracle", "f3:beta=1.0", "--which", "rsi",
                   "--box", "-5", "5", "--samples", "5000", "--out", str(out)) == 0
    rec = json.loads((out / "constants.jsonl").read_text().splitlines()[0])
    assert rec["constant"] == "nu"
    assert abs(rec["value"] - 1.0) < 1e-9


def test_config_file_merge_and_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"max_iters": 77, "variant": "gd"}))
    out = tmp_path / "o"
    assert run_cli("solve", "--oracle", "quad:m=8,n=20,seed=3", "--config", str(cfg_file),
                   "--out", str(out)) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["max_iters"] == 77
    out2 = tmp_path / "o2"
    assert run_cli("solve", "--oracle", "quad:m=8,n=20,seed=3", "--config", str(cfg_file),
                   "--max-iters", "33", "--out", str(out2)) == 0
    assert json.loads((out2 / "config.json").read_text())["max_iters"] == 33


def test_config_file_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"maximum_iterations": 5}))
    assert run_cli("solve", "--oracle", "f1", "--config", str(cfg_file),
                   "--out", str(tmp_path / "x")) == 2


def test_divergent_run_exits_numeric_abort(tmp_path):
    code = run_cli("solve", "--oracle", "quad:m=8,n=20,seed=3", "--variant", "gd",
                   "--h", "100.0", "--max-iters", "5000", "--out", str(tmp_path / "d"))
    assert code == 3


def test_unusable_sampling_box_is_rejected(tmp_path):
    # every sample sits inside the solution set, so estimation cannot start
    code = run_cli("certify", "--oracle", "f3:beta=9.0", "--which", "rsi",
                   "--box", "-1", "1", "--samples", "500", "--out", str(tmp_path / "z"))
    assert code == 2
