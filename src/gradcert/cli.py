"""Command-line front end: reproducible runs with CSV/JSON/SVG artifacts.

Subcommands
-----------
solve     run a solver on a zoo oracle, write the trace CSV
certify   estimate secant / restricted-Lipschitz constants
verify    run a solver and check one per-iteration bound
rates     fit an empirical rate to a stored trace CSV
recover   sparse recovery experiment (problem generation + solver)
appendix  grid-verify the (theta, h) stepsize optimization

Each command returns its exit code, its artifacts (file name to text, or to
text blocks written one at a time) in write order, and its stdout lines;
``main`` alone writes ``config.json``, then each artifact, then prints.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 numeric abort.
Oracle ids: "f1", "f2", "f3:beta=<v>", "quad:m=<m>,n=<n>,seed=<s>",
"augl1:m=<m>,n=<n>,k=<k>,signal=<gaussian|pm_one>,seed=<s>[,alpha=<a>]".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .certify import appendix_grid, check_bounds, estimate_rlg, estimate_rsi, fit_rate, THEOREM_IDS
from .numkit import GaussianStream
from .oracles import Objective, make_augl1_dual, make_example_1d, make_quadratic_composite
from .solvers import SolverConfig, load_trace_csv, run_solver, VARIANTS
from .sparse_recovery import gen_sparse_problem, recover, RECOVERY_VARIANTS

__all__ = ["main", "oracle_from_id", "resolve_stepsize"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def oracle_from_id(oracle_id: str) -> Objective:
    """Build a zoo member from its string id.

    Every kind refuses a parameter it does not take before it builds anything.
    """
    name, _, rest = oracle_id.partition(":")
    kv: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed oracle parameter {item!r} in {oracle_id!r}")
            if key in kv:
                raise ValueError(f"repeated oracle parameter {key!r} in {oracle_id!r}")
            kv[key] = val
    params = {"f1": (), "f2": (), "f3": ("beta",), "quad": ("m", "n", "seed"),
              "augl1": ("m", "n", "k", "signal", "seed", "alpha")}.get(name)
    if params is None:
        raise ValueError(f"unknown oracle id {oracle_id!r}")
    unknown = sorted(set(kv) - set(params))
    if unknown:
        raise ValueError(f"unknown {name} parameters {unknown}")
    if name in ("f1", "f2"):
        return make_example_1d(name)
    if name == "f3":
        if "beta" not in kv:
            raise ValueError("f3 needs beta, e.g. f3:beta=1.0")
        return make_example_1d("f3", beta=float(kv["beta"]))
    if name == "quad":
        try:
            m, n, seed = int(kv["m"]), int(kv["n"]), int(kv["seed"])
        except KeyError as exc:
            raise ValueError(f"quad needs m, n, seed; missing {exc}") from None
        stream = GaussianStream(seed)
        a = stream.normal((m, n))
        return make_quadratic_composite(a, a @ stream.normal(n))
    try:
        m, n, k, seed = int(kv["m"]), int(kv["n"]), int(kv["k"]), int(kv["seed"])
    except KeyError as exc:
        raise ValueError(f"augl1 needs m, n, k, seed; missing {exc}") from None
    alpha = float(kv["alpha"]) if "alpha" in kv else None
    problem = gen_sparse_problem(seed, m, n, k, kv.get("signal", "gaussian"), alpha=alpha)
    return make_augl1_dual(problem.A, problem.b, problem.alpha)


def resolve_stepsize(oracle: Objective, variant: str, h_arg: str) -> float:
    """Resolve --h, mapping "auto" to the theory stepsize for the variant.

    gd: 1/(2R) when the secant constant is known, else 1/L, else 1/R.
    Accelerated variants: 1/R, else 1/L.
    """
    if h_arg != "auto":
        h = float(h_arg)
        if h <= 0:
            raise ValueError(f"stepsize must be positive, got {h}")
        return h
    c = oracle.constants
    if variant == "gd":
        if c.R is not None and c.nu is not None:
            return 1.0 / (2.0 * c.R)
        if c.L is not None:
            return 1.0 / c.L
        if c.R is not None:
            return 1.0 / c.R
    else:
        if c.R is not None:
            return 1.0 / c.R
        if c.L is not None:
            return 1.0 / c.L
    raise ValueError(f"cannot resolve h=auto: oracle {oracle.name!r} has no known constants")


# ---------------------------------------------------------------------------
# artifact writers


def _write_atomic(path: Path, text) -> None:
    """Write a str, or str blocks held one at a time, via ``<name>.tmp`` (removed on error)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def svg_line_chart(series: dict[str, np.ndarray], title: str) -> str:
    """Standalone SVG chart of log10(|value|) vs iteration for each series."""
    width, height = 720, 460
    ml, mr, mt, mb = 70, 20, 40, 50
    plots = []
    for label, ys in series.items():
        ys = np.asarray(ys, dtype=np.float64)
        mask = ys > 0
        if mask.any():
            plots.append((label, np.nonzero(mask)[0], np.log10(ys[mask])))
    if not plots:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
                f'<text x="20" y="30">{title}: no positive data</text></svg>\n')
    x_max = max(int(xs[-1]) for _, xs, _ in plots) or 1
    y_lo = min(float(ys.min()) for _, _, ys in plots)
    y_hi = max(float(ys.max()) for _, _, ys in plots)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    sx = (width - ml - mr) / x_max
    sy = (height - mt - mb) / (y_hi - y_lo)

    def px(x: float) -> float:
        return ml + x * sx

    def py(y: float) -> float:
        return height - mb - (y - y_lo) * sy

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{ml}" y="24" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(width - mr + ml) / 2:.0f}" y="{height - 12}">iteration</text>',
        f'<text x="12" y="{(height - mb + mt) / 2:.0f}" transform="rotate(-90 12 '
        f'{(height - mb + mt) / 2:.0f})">log10</text>',
    ]
    for i in range(5):
        xv = x_max * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - mb + 16}" text-anchor="middle">{xv:.0f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(yv):.1f}" text-anchor="end">{yv:.1f}</text>'
        )
    for ci, (label, xs, ys) in enumerate(plots):
        color = palette[ci % len(palette)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(
            f'<text x="{width - mr - 150}" y="{mt + 16 * ci + 4}" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommand implementations


def _solver_config(args: argparse.Namespace, oracle: Objective) -> SolverConfig:
    return SolverConfig(
        stepsize_h=resolve_stepsize(oracle, args.variant, args.h),
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        variant=args.variant,
        restart_every=args.restart_every,
        policy=args.policy,
    )


def _cmd_solve(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    """solve, and verify, which checks one bound along the same run."""
    oracle = oracle_from_id(args.oracle)
    cfg = _solver_config(args, oracle)
    args.h = cfg.stepsize_h  # echo the resolved value
    trace = run_solver(oracle, args.x0_scale * np.ones(oracle.dim), cfg, keep_iterates=False)
    code = EXIT_NUMERIC if trace.status == "diverged" else EXIT_OK
    if args.command == "verify":
        report = check_bounds(trace, oracle, args.theorem, cfg)
        if code == EXIT_OK and not report.passed:
            code = EXIT_CHECK_FAILED
        line = report.to_json()
        return code, {"report.jsonl": line + "\n", "trace.csv": trace.csv_blocks()}, [line]
    artifacts = {"trace.csv": trace.csv_blocks()}
    if args.svg:
        series = {}
        if trace.f_star is not None:
            series["objective gap"] = trace.gap
        series["gradient norm"] = trace.grad_norm
        if trace.dist_to_sol is not None:
            series["distance to solution"] = trace.dist_to_sol
        artifacts["trace.svg"] = svg_line_chart(series, f"{args.oracle} / {args.variant}")
    return code, artifacts, [
        f"status={trace.status} records={len(trace)} final_grad={trace.grad_norm[-1]:.3e}"]


def _cmd_certify(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    oracle = oracle_from_id(args.oracle)
    box = (args.box[0], args.box[1])
    lines = []
    for which, est_fn in (("rsi", estimate_rsi), ("rlg", estimate_rlg)):
        if args.which not in (which, "both"):
            continue
        est = est_fn(oracle, box, args.samples, seed=args.seed)
        lines.append(
            json.dumps(
                {
                    "constant": "nu" if which == "rsi" else "R",
                    "value": est.value,
                    "method": est.method,
                    "samples_used": est.samples_used,
                }
            )
        )
    return EXIT_OK, {"constants.jsonl": "\n".join(lines) + "\n"}, lines


def _cmd_rates(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    try:
        trace = load_trace_csv(args.input)
    except OSError as exc:
        raise ValueError(f"cannot read --input {args.input}: {exc.strerror or exc}") from None
    line = fit_rate(trace, args.model, (args.window[0], args.window[1])).to_json()
    return EXIT_OK, {"ratefit.jsonl": line + "\n"}, [line]


def _cmd_recover(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = gen_sparse_problem(args.seed, args.m, args.n, args.k, args.signal, alpha=args.alpha)
    h = None if args.h == "auto" else float(args.h)
    result = recover(problem, args.variant, h=h, max_iters=args.max_iters)
    summary = {
        "variant": result.variant,
        "iters": result.iters,
        "n_evals": result.dual_trace.n_evals,
        "status": result.dual_trace.status,
        "final_rel_error": None
        if result.rel_error_curve is None
        else float(result.rel_error_curve[-1]),
        "final_residual": float(result.primal_residual_curve[-1]),
        "alpha": problem.alpha,
    }
    artifacts = {"recovery.csv": result.csv_blocks(),
                 "summary.json": json.dumps(summary, indent=2) + "\n"}
    if args.svg:
        series = {"primal residual": result.primal_residual_curve}
        if result.rel_error_curve is not None:
            series["relative error"] = result.rel_error_curve
        artifacts["recovery.svg"] = svg_line_chart(
            series, f"recovery {args.m}x{args.n} k={args.k} {args.variant}")
    code = EXIT_NUMERIC if result.dual_trace.status == "diverged" else EXIT_OK
    return code, artifacts, [json.dumps(summary)]


def _cmd_appendix(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    opt = appendix_grid(args.R, args.nu, args.grid_steps)
    payload = {**vars(opt), "closed_form": 1.0 - args.nu / (2.0 * args.R)}
    return EXIT_OK, {"appendix.json": json.dumps(payload, indent=2) + "\n"}, [json.dumps(payload)]


# ---------------------------------------------------------------------------
# parser


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="out", help="output directory (default: ./out)")
    sp.add_argument("--config", default=None, help="JSON file with defaults for this command")


def _add_solver_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--oracle", required=True, help="oracle id (see module docstring)")
    sp.add_argument("--variant", choices=VARIANTS, default="gd")
    sp.add_argument("--h", default="auto", help='stepsize, or "auto" for the theory value')
    sp.add_argument("--max-iters", type=int, default=1000, dest="max_iters")
    sp.add_argument("--grad-tol", type=float, default=0.0, dest="grad_tol")
    sp.add_argument("--restart-every", type=int, default=None, dest="restart_every",
                    help="epoch length K for variant restart_fixed")
    sp.add_argument("--policy", choices=("restart", "skip"), default=None,
                    help="reaction for variant adaptive")
    sp.add_argument("--x0-scale", type=float, default=0.0, dest="x0_scale",
                    help="start at S*(1,...,1) (default: 0, the origin)", metavar="S")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Gradient methods under restricted curvature: solve, certify, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("solve", help="run a solver and write the trace")
    _add_solver_opts(sp)
    sp.add_argument("--svg", action="store_true", help="emit an SVG chart of the trace")
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("certify", help="estimate curvature constants")
    sp.add_argument("--oracle", required=True)
    sp.add_argument("--which", choices=("rsi", "rlg", "both"), default="both")
    sp.add_argument("--box", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("verify", help="run a solver and check one bound")
    _add_solver_opts(sp)
    sp.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("rates", help="fit an empirical rate to a trace CSV")
    sp.add_argument("--input", required=True, help="trace CSV written by solve/verify")
    sp.add_argument(
        "--model",
        choices=("linear_geometric", "sublinear_1_over_k", "sublinear_1_over_k2"),
        default="linear_geometric",
    )
    sp.add_argument("--window", type=int, nargs=2, required=True, metavar=("K0", "K1"))
    _add_common(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("recover", help="sparse recovery experiment")
    sp.add_argument("--m", type=int, default=256)
    sp.add_argument("--n", type=int, default=512)
    sp.add_argument("--k", type=int, default=25)
    sp.add_argument("--signal", choices=("gaussian", "pm_one"), default="gaussian")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--variant", choices=RECOVERY_VARIANTS, default="gd")
    sp.add_argument("--alpha", type=float, default=None,
                    help="augmentation weight (default: 10 max|x_true|)")
    sp.add_argument("--h", default="auto")
    sp.add_argument("--max-iters", type=int, default=200000, dest="max_iters")
    sp.add_argument("--svg", action="store_true", help="emit an SVG chart of the recovery")
    _add_common(sp)
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("appendix", help="grid-verify the (theta, h) optimization")
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--grid-steps", type=int, default=2000, dest="grid_steps")
    _add_common(sp)
    sp.set_defaults(func=_cmd_appendix)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file values in as defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    with open(known.config, "r", encoding="ascii") as fh:
        file_values = json.load(fh)
    if not isinstance(file_values, dict):
        raise ValueError("config file must hold a JSON object")
    if not argv:
        raise ValueError("config file given without a subcommand")
    command = argv[0]
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sub = sub_actions[0].choices.get(command)
    if sub is None:
        raise ValueError(f"unknown command {command!r}")
    allowed = {a.dest for a in sub._actions}
    unknown = set(file_values) - allowed
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    sub.set_defaults(**file_values)
    return argv


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        argv = _apply_config_file(parser, argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, artifacts, lines = args.func(args)
        config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
        _write_atomic(out / "config.json", json.dumps(config, indent=2, default=str) + "\n")
        for name, text in artifacts.items():
            _write_atomic(out / name, text)
        for line in lines:
            print(line)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
