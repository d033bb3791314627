import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gradcert.cli import _write_atomic, main, oracle_from_id, resolve_stepsize
from gradcert.oracles import KnownConstants
from gradcert.solvers import _CSV_ROWS, SolverTrace, load_trace_csv
from gradcert.sparse_recovery import RecoveryResult


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
    # a repeated key would silently override its first value
    with pytest.raises(ValueError, match="repeated oracle parameter 'm'"):
        oracle_from_id("quad:m=20,n=50,seed=1,m=30")
    with pytest.raises(ValueError, match="repeated oracle parameter 'beta'"):
        oracle_from_id("f3:beta=1.0,beta=2.0")
    # every kind refuses a parameter it does not take, before it builds anything
    for bad, message in (("f3:beta=1.0,gamma=5", "unknown f3 parameters ['gamma']"),
                         ("f1:x=1", "unknown f1 parameters ['x']"),
                         ("quad:m=3,zap=2", "unknown quad parameters ['zap']"),
                         ("augl1:m=2,n=4,k=1,seed=0,beta=1", "unknown augl1 parameters ['beta']")):
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_from_id(bad)
    # a value that does not parse is named with its key and the id
    for bad, message in (("quad:m=x,n=5,seed=1", "quad parameter m='x' is not an int"),
                         ("f3:beta=abc", "f3 parameter beta='abc' is not a float"),
                         ("augl1:m=4,n=8,k=2,seed=1,alpha=zz",
                          "augl1 parameter alpha='zz' is not a float"),
                         # a value below its least one is named the same way
                         ("quad:m=0,n=5,seed=1", "quad parameter m=0 is below 1"),
                         ("quad:m=-1,n=5,seed=1", "quad parameter m=-1 is below 1"),
                         ("quad:m=3,n=0,seed=1", "quad parameter n=0 is below 1"),
                         ("augl1:m=0,n=8,k=2,seed=1", "augl1 parameter m=0 is below 1")):
        with pytest.raises(ValueError, match=re.escape(f"{message}, in {bad!r}")):
            oracle_from_id(bad)
    for bad, message in (("f3", "f3 needs beta; missing 'beta'"),
                         ("quad:m=3", "quad needs m, n, seed; missing 'n'"),
                         ("augl1:m=2,n=4,seed=0", "augl1 needs m, n, k, seed; missing 'k'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_from_id(bad)


def test_resolve_stepsize_rules():
    quad = oracle_from_id("quad:m=10,n=25,seed=7")
    assert resolve_stepsize(quad, "gd", "auto") == pytest.approx(1.0 / (2 * quad.constants.R))
    assert resolve_stepsize(quad, "nesterov", "auto") == pytest.approx(1.0 / quad.constants.R)
    dual = oracle_from_id("augl1:m=20,n=40,k=3,signal=pm_one,seed=2")
    assert resolve_stepsize(dual, "gd", "auto") == pytest.approx(1.0 / dual.constants.L)
    assert resolve_stepsize(dual, "nesterov", "auto") == 1.0 / dual.constants.L
    r_only = dataclasses.replace(quad, constants=KnownConstants(R=quad.constants.R))
    assert resolve_stepsize(r_only, "gd", "auto") == 1.0 / quad.constants.R
    assert resolve_stepsize(quad, "gd", "0.125") == 0.125
    with pytest.raises(ValueError):
        resolve_stepsize(oracle_from_id("f1"), "gd", "auto")


@pytest.mark.parametrize(
    "variant, extra, field",
    [
        ("gd", ["--restart-every", "3", "--policy", "skip"], "restart_every"),
        ("nesterov", ["--policy", "restart"], "policy"),
    ],
)
def test_solve_rejects_options_the_variant_ignores(tmp_path, capsys, variant, extra, field):
    code = run_cli("solve", "--oracle", "quad:m=20,n=50,seed=1", "--variant", variant,
                   "--h", "auto", "--max-iters", "10", *extra, "--out", str(tmp_path))
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_solve_rejects_nan_grad_tol(tmp_path, capsys):
    code = run_cli("solve", "--oracle", "quad:m=20,n=50,seed=1", "--variant", "gd",
                   "--h", "auto", "--max-iters", "10", "--grad-tol", "nan", "--out", str(tmp_path))
    assert code == 2
    assert "grad_tol" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        (("--m", "0", "--n", "10", "--k", "2"), "1 <= m"),
        (("--m", "20", "--n", "40", "--k", "0", "--alpha", "nan"), "alpha must be finite"),
        (("--m", "20", "--n", "40", "--k", "3", "--alpha", "nan"), "alpha must be finite"),
        (("--m", "20", "--n", "40", "--k", "3", "--alpha", "inf"), "alpha must be finite"),
        (("--m", "20", "--n", "40", "--k", "0", "--h", "-1", "--max-iters", "0"), "stepsize_h"),
        (("--m", "20", "--n", "40", "--k", "0", "--max-iters", "0"), "max_iters"),
    ],
)
def test_recover_rejects_bad_problem(tmp_path, capsys, extra, field):
    code = run_cli("recover", *extra, "--out", str(tmp_path))
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--oracle", "f3:beta=nan", "--which", "rsi", "--box", "-1", "1",
         "--samples", "200"),
        ("solve", "--oracle", "f3:beta=inf", "--variant", "gd", "--h", "auto",
         "--max-iters", "10"),
    ],
)
def test_non_finite_f3_beta_is_usage_error(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert "beta" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_on_zero_data_dual_stops_at_its_start(tmp_path, capsys):
    assert run_cli("solve", "--oracle", "augl1:m=20,n=40,k=0,seed=1", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("status=tol_reached records=1 ")


def test_rates_rejects_malformed_trace(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("# status=max_iters f_star=None n_evals=2\n"
                    "k,f,fgap,grad_norm,dist_to_sol,secant,reset_event\n"
                    "0,1.0,,1.0,,,none\n1,0.5\n")
    code = run_cli("rates", "--input", str(path), "--window", "0", "1", "--out", str(tmp_path))
    assert code == 2
    assert f"{path} line 4: expected 7 fields, got 2" in capsys.readouterr().err
    assert not (tmp_path / "ratefit.jsonl").exists()


def test_rates_missing_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.csv"
    code = run_cli("rates", "--input", str(path), "--window", "0", "1", "--out", str(tmp_path))
    assert code == 2
    assert f"cannot read --input {path}: No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "ratefit.jsonl").exists()


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


# The README's command lines, run in order from one directory (rates reads the
# trace that solve writes), with recover shrunk to 64x128, k = 6: at that size
# its bytes are the same under 1 and 2 BLAS threads, while the README's 256x512
# run moves with the thread count. Each command maps every file it writes, and
# its stdout, to their SHA-256; config.json's path-valued keys are normalized.
_PINNED_LINES = [
    ("solve --oracle quad:m=20,n=50,seed=7 --variant gd --h auto --max-iters 2000 "
     "--out out/solve --svg", {
        "config.json": "88a3d79449f47bb196d8987c2b235f07d2884d38e47e7178f876325b3353db6f",
        "trace.csv": "b03a42576374b366e0c8b4128dc1b6601b68081836e9101f13ee407ec0f14040",
        "trace.svg": "86dab9cb5ba67d9d18f4ab920143aaa56b7b6cfbdf1e31f9953d334f7f01ef66",
        "stdout": "705e0598040e3ca9517b8feb2139cc3bd38d1b12568b49d6928cd5c74070863d"}),
    ("verify --oracle quad:m=20,n=50,seed=7 --variant gd --h auto --max-iters 2000 "
     "--theorem thm2_linear --out out/verify", {
        "config.json": "2065676c262ecd70a0e0c4ccfc566221b0acedc7fcf48388242ace8dd65732c7",
        "report.jsonl": "e1043fdc80b786ef7fe603b20b8fa3693dfc7d393ac510ed60c7ee2b0d82f05c",
        "trace.csv": "b03a42576374b366e0c8b4128dc1b6601b68081836e9101f13ee407ec0f14040",
        "stdout": "e1043fdc80b786ef7fe603b20b8fa3693dfc7d393ac510ed60c7ee2b0d82f05c"}),
    ("certify --oracle f1 --which rsi --box 0 10 --samples 100000 --out out/cert", {
        "config.json": "34cb5ddb890217dd32fdfaafb17be74cf9c78df1f76d269f23fefa1dba04c5f4",
        "constants.jsonl": "367ea35853463aa3e776355398fe9c506f6c31e23e706de73b5e8118d048a706",
        "stdout": "367ea35853463aa3e776355398fe9c506f6c31e23e706de73b5e8118d048a706"}),
    ("rates --input out/solve/trace.csv --model linear_geometric --window 50 1500 "
     "--out out/rates", {
        "config.json": "76c2d1d35323b4aac4d85c6ca4e99459439ce30311c2c99e5d15461d93a3bc65",
        "ratefit.jsonl": "94f79504c1b09715c69c1511626f8d1d9524f528fbb141935df73bc5fa813268",
        "stdout": "94f79504c1b09715c69c1511626f8d1d9524f528fbb141935df73bc5fa813268"}),
    ("recover --m 64 --n 128 --k 6 --signal pm_one --seed 1 --variant skip "
     "--out out/recover --svg", {
        "config.json": "105e313f483e84e6109b2d4488dfb98d80cf9ea1dd6eaa157a9425f0d41560df",
        "recovery.csv": "4e93512a40be7110a0f13bb72a8f92151319cc0f075876590043904c5472e0ca",
        "recovery.svg": "296e294e1eb6317350213a91351e5406ec880b89b13486828fd22e6dc4e30725",
        "summary.json": "fa0b49fda450feb3c2d9191543fd5fb6a77da1c23a39bc99b498b58d554c8acd",
        "stdout": "5079290bc2943a7ce5abb293dd4204dabcad52ababcf70571737a6922b8e55a6"}),
    ("appendix --R 1 --nu 0.5 --out out/appendix", {
        "appendix.json": "ca6df650848914a491bf497dd327510f03f0ce0a609b635429798722fb3c1bc6",
        "config.json": "b35ecea429ad6f3a3098446bfb36d1e7c8637c0929cde2a14eb30b776bd66bb3",
        "stdout": "a5591dcd611fde895d2af368e35aa2c7622c6cc9163faff527b0ad4ccefa5b72"}),
]


def test_command_artifacts_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for line, pins in _PINNED_LINES:
        argv = line.split()
        assert run_cli(*argv) == 0, line
        got = {}
        for path in (tmp_path / argv[argv.index("--out") + 1]).iterdir():
            data = path.read_bytes()
            if path.name == "config.json":
                data = re.sub(rb'("(?:out|input)": )"[^"]*"', rb'\1"<path>"', data)
            got[path.name] = hashlib.sha256(data).hexdigest()
        got["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == pins, line


def test_x0_scale_sets_the_start_point(tmp_path, capsys):
    # f3 with beta = 1 is 0.5 (|x| - 1)^2 outside [-1, 1], so x0 = 5 gives f = 8
    assert run_cli("solve", "--oracle", "f3:beta=1.0", "--h", "0.5", "--max-iters", "3",
                   "--x0-scale", "5", "--out", str(tmp_path)) == 0
    assert load_trace_csv(tmp_path / "trace.csv").f[0] == 8.0
    assert json.loads((tmp_path / "config.json").read_text())["x0_scale"] == 5.0
    # the former --x0 flag is gone, and is not read as a prefix of --x0-scale
    for old in ("zeros", "ones"):
        assert run_cli("solve", "--oracle", "f3:beta=1.0", "--x0", old,
                       "--out", str(tmp_path / "x")) == 2
        assert f"unrecognized arguments: --x0 {old}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--oracle", "f3:beta=1.0", "--h", "0.5", "--max", "2"],
     "unrecognized arguments: --max 2"),
    (["solve", "--oracle", "f3:beta=1.0", "--h", "0.5", "--max-iters", "2", "--x0", "5"],
     "unrecognized arguments: --x0 5"),
    (["appendix", "--R", "1", "--nu", "0.5", "--grid", "10"], "unrecognized arguments: --grid 10"),
    (["appendix", "--R", "1", "--nu", "0.5", "--h"], "unrecognized arguments: --h"),
    (["rates", "--inp", "trace.csv", "--window", "0", "1"],
     "the following arguments are required: --input"),
    # nor is a prefix of --config read as the config file
    (["appendix", "--R", "1", "--nu", "0.5", "--conf", "cfg.json"],
     "unrecognized arguments: --conf cfg.json"),
])
def test_flags_must_be_spelled_in_full(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()



def test_solve_trace_reads_back_its_status_and_oracle_calls(tmp_path, capsys):
    # gd reaches an exactly zero gradient at k = 1178 on this quad
    assert run_cli("solve", "--oracle", "quad:m=20,n=50,seed=19013", "--variant", "gd",
                   "--h", "auto", "--max-iters", "2000", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.startswith("status=tol_reached records=1179 ")
    back = load_trace_csv(tmp_path / "trace.csv")
    assert (back.status, len(back), back.n_evals, back.f_star) == ("tol_reached", 1179, 1179, 0.0)


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


def test_verify_refuses_a_run_outside_the_hypothesis(tmp_path, capsys):
    # thm8 is a theorem on the augmented-l1 dual, so a quad run is a usage error
    code = run_cli("verify", "--oracle", "quad:m=20,n=50,seed=7", "--variant", "gd",
                   "--h", "auto", "--max-iters", "2000", "--theorem", "thm8_augl1",
                   "--out", str(tmp_path / "v"))
    assert code == 2
    assert "augmented-l1 dual" in capsys.readouterr().err


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
    path.write_text("".join(trace.csv_blocks()), encoding="ascii")
    out = tmp_path / "r"
    assert run_cli("rates", "--input", str(path), "--model", "linear_geometric",
                   "--window", "0", "49", "--out", str(out)) == 0
    fit = json.loads((out / "ratefit.jsonl").read_text())
    assert fit["fitted_factor"] == pytest.approx(0.5, rel=1e-9)


def test_rates_without_f_star_fits_against_the_best_value_seen(tmp_path):
    # the augl1 dual has no known f*, so its trace CSV carries none
    out = tmp_path / "s"
    assert run_cli("solve", "--oracle", "augl1:m=20,n=40,k=3,signal=pm_one,seed=2",
                   "--max-iters", "200", "--out", str(out)) == 0
    trace = load_trace_csv(out / "trace.csv")
    assert trace.f_star is None
    assert run_cli("rates", "--input", str(out / "trace.csv"), "--window", "10", "60",
                   "--out", str(tmp_path / "r")) == 0
    fit = json.loads((tmp_path / "r" / "ratefit.jsonl").read_text())
    log_gap = np.log(trace.f[10:61] - np.min(trace.f))
    slope = np.polyfit(np.arange(10, 61), log_gap, 1)[0]
    assert fit["window"] == [10, 60] and not fit["truncated"]
    assert fit["fitted_factor"] == pytest.approx(math.exp(slope), rel=1e-9)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--oracle", "f1", "--which", "rsi", "--box", "0", "10", "--samples", "200"),
        ("verify", "--oracle", "quad:m=5,n=12,seed=1", "--max-iters", "50",
         "--theorem", "thm2_linear"),
        ("rates", "--input", "trace.csv", "--window", "0", "10"),
        ("appendix", "--R", "1", "--nu", "0.5"),
    ],
)
def test_svg_is_rejected_where_no_chart_is_drawn(tmp_path, capsys, argv):
    # only solve and recover draw a chart; elsewhere --svg is a usage error
    out = tmp_path / "out"
    assert run_cli(*argv, "--svg", "--out", str(out)) == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err
    assert not out.exists()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"svg": True}))
    assert run_cli(*argv, "--config", str(cfg_file), "--out", str(out)) == 2
    assert "unknown config keys ['svg']" in capsys.readouterr().err

def test_appendix_command(tmp_path):
    out = tmp_path / "app"
    assert run_cli("appendix", "--R", "1", "--nu", "0.5", "--out", str(out)) == 0
    payload = json.loads((out / "appendix.json").read_text())
    assert payload["min_value"] == pytest.approx(0.75, abs=1e-6)
    assert payload["closed_form"] == 0.75
    assert "svg" not in json.loads((out / "config.json").read_text())


def test_certify_command(tmp_path):
    out = tmp_path / "cert"
    assert run_cli("certify", "--oracle", "f3:beta=1.0", "--which", "rsi",
                   "--box", "-5", "5", "--samples", "5000", "--out", str(out)) == 0
    rec = json.loads((out / "constants.jsonl").read_text().splitlines()[0])
    assert rec["constant"] == "nu"
    assert abs(rec["value"] - 1.0) < 1e-9


def test_certify_rlg_starts_from_the_whole_grid(tmp_path):
    # f2 is flat on [-1, 0]; the start covers every grid point, not only
    # the first 1024, which all lie in [-1, -0.39] at 10,000 samples
    out = tmp_path / "rlg"
    assert run_cli("certify", "--oracle", "f2", "--which", "rlg", "--box", "-1", "5",
                   "--samples", "10000", "--out", str(out)) == 0
    rec = json.loads((out / "constants.jsonl").read_text().splitlines()[0])
    assert rec["constant"] == "R"
    assert 2.8 < rec["value"] <= 2.83


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
    # an infinite bound is refused before any sample is drawn
    for which in ("rsi", "rlg"):
        code = run_cli("certify", "--oracle", "f3:beta=1", "--which", which,
                       "--box", "0", "inf", "--samples", "1000", "--out", str(tmp_path / "z"))
        assert code == 2


def _long_trace(n, f_star=0.25, dist=True):
    ks = np.arange(n, dtype=float)
    return SolverTrace(
        f=1.0 / (ks + 3.0) + (f_star or 0.0),
        grad_norm=np.sqrt(ks + 0.5),
        dist_to_sol=np.exp(-ks / 7.0) if dist else None,
        reset_event=tuple("restart" if k % 7 == 3 else "none" for k in range(n)),
        status="max_iters",
        f_star=f_star,
        n_evals=n + 1,
    )


def _rows_text(columns, events):
    # the text a one-shot writer makes: one line per record, floats as their repr
    return "".join(
        ",".join([str(k), *("" if c is None else repr(float(c[k])) for c in columns), ev]) + "\n"
        for k, ev in enumerate(events))


@pytest.mark.parametrize("n", [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 3 * _CSV_ROWS + 7])
@pytest.mark.parametrize("full", [True, False])
def test_csv_blocks_join_to_the_written_text(tmp_path, n, full):
    tr = _long_trace(n, 0.25 if full else None, dist=full)
    gap = tr.f - tr.f_star if full else None
    want = (f"# status=max_iters f_star={0.25 if full else None} n_evals={n + 1}\n"
            "k,f,fgap,grad_norm,dist_to_sol,secant,reset_event\n"
            + _rows_text((tr.f, gap, tr.grad_norm, tr.dist_to_sol, tr.secant), tr.reset_event))
    rec = RecoveryResult(np.zeros(3), tr.dist_to_sol, n, "skip", tr)
    rec_want = ("k,rel_error,primal_residual,reset_event\n"
                + _rows_text((tr.dist_to_sol, tr.grad_norm), tr.reset_event))
    for obj, text in ((tr, want), (rec, rec_want)):
        blocks = list(obj.csv_blocks())
        assert "".join(blocks) == text
        assert max(block.count("\n") for block in blocks) == min(n, _CSV_ROWS)
        _write_atomic(tmp_path / "out.csv", iter(blocks))
        assert (tmp_path / "out.csv").read_bytes() == text.encode("ascii")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


@pytest.mark.parametrize("before", [None, "old\n"])
def test_write_atomic_leaves_no_partial_file(tmp_path, before):
    path = tmp_path / "trace.csv"
    if before is not None:
        path.write_text(before)

    def blocks():
        yield "k,f\n"
        yield "0,1.0\n"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        _write_atomic(path, blocks())
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["trace.csv"])
    if before is not None:
        assert path.read_text() == before


# tracemalloc costs about a microsecond per allocation, so the traced traces
# are kept to 20,001 records (40 blocks), which keeps each test under 1 s
_TRACED_RECORDS = 20_001


def test_write_atomic_holds_a_few_blocks_of_text(tmp_path):
    # the writer holds the block it writes, never the file's text (about 1.5 MB)
    tr = _long_trace(_TRACED_RECORDS)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        _write_atomic(path, tr.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == "".join(tr.csv_blocks()).encode("ascii")
    # a block holds 1/40 of the text, so this is about ten blocks' text
    assert peak <= path.stat().st_size // 4


def test_load_trace_csv_stores_8_bytes_per_value(tmp_path):
    # 24 B of values and an 8 B event pointer per record, plus the event list
    # the tuple is copied from; a list of row tuples took about 250 B here
    n = _TRACED_RECORDS
    tr = _long_trace(n)
    path = tmp_path / "trace.csv"
    path.write_text("".join(tr.csv_blocks()), encoding="ascii")
    tracemalloc.start()
    try:
        back = load_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("f", "grad_norm", "dist_to_sol"):
        assert getattr(back, name).tobytes() == getattr(tr, name).tobytes()
    assert back.reset_event == tr.reset_event and back.f_star == tr.f_star
    assert peak <= 48 * n
