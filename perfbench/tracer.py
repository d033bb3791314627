"""Span tracing of the gradcert layers, installed only for a traced run.

`Tracer.install` replaces the module-level bindings through which callers
reach each layer (``gradcert.oracles.sym_eig_summary``,
``gradcert.sparse_recovery.run_solver``, ``gradcert.cli.check_bounds``, ...)
with wrappers that record a span per call: name, start, end, parent span
and op id. Objectives built while tracing get wrapped ``eval``,
``eval_batch`` and ``project`` callables through `dataclasses.replace`, and
the ``recover`` observer is wrapped through the solver's ``callback``
argument. Spans stay in memory; `Tracer.metrics` reduces them to the
per-layer metrics after the run. `Tracer.restore` puts every binding back.
"""

from __future__ import annotations

import dataclasses
import gzip
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import gradcert.certify
import gradcert.cli
import gradcert.numkit
import gradcert.oracles
import gradcert.solvers
import gradcert.sparse_recovery

from stats import augl1_eval_flops, median, self_times

RECOVERY_VARIANTS = gradcert.sparse_recovery.RECOVERY_VARIANTS
LAYERS = ("numkit", "oracles", "solvers", "sparse_recovery", "certify", "cli")

# (name, unit, better) of every metric a traced run reports
PER_LAYER = [
    ("numkit.eig_calls", "count", "lower"),
    ("numkit.eig_s", "s", "lower"),
    ("numkit.power_calls", "count", "lower"),
    ("numkit.power_iters", "count", "lower"),
    ("numkit.power_s", "s", "lower"),
    ("numkit.cholesky_solve_s", "s", "lower"),
    ("numkit.stream_draws", "count", "lower"),
    ("numkit.stream_s", "s", "lower"),
    ("oracles.build_calls", "count", "lower"),
    ("oracles.build_self_s", "s", "lower"),
    ("oracles.eval_calls", "count", "lower"),
    ("oracles.eval_s", "s", "lower"),
    ("oracles.eval_us_p50", "us", "lower"),
    ("oracles.eval_gflop_per_s", "GFLOP/s", "higher"),
    ("oracles.eval_batch_rows", "count", "lower"),
    ("oracles.eval_batch_s", "s", "lower"),
    ("oracles.project_calls", "count", "lower"),
    ("oracles.project_s", "s", "lower"),
    ("solvers.runs", "count", "lower"),
    ("solvers.iters", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.self_us_per_iter", "us", "lower"),
    ("solvers.evals_per_iter", "ratio", "lower"),
    ("solvers.resets", "count", "lower"),
    ("sparse_recovery.gen_self_s", "s", "lower"),
    ("sparse_recovery.observe_s", "s", "lower"),
    ("sparse_recovery.self_s", "s", "lower"),
    *[(f"sparse_recovery.iters_to_1e-6.{v}", "count", "lower") for v in RECOVERY_VARIANTS],
    *[(f"sparse_recovery.evals_to_1e-6.{v}", "count", "lower") for v in RECOVERY_VARIANTS],
    ("certify.check_calls", "count", "lower"),
    ("certify.check_s", "s", "lower"),
    ("certify.estimate_calls", "count", "lower"),
    ("certify.estimate_s", "s", "lower"),
    ("certify.grid_s", "s", "lower"),
    ("certify.fit_s", "s", "lower"),
    ("cli.invocations", "count", "higher"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    *[(f"{layer}.errors", "count", "lower") for layer in LAYERS],
    ("trace_overhead_frac", "ratio", "lower"),
]

_STREAM_METHODS = ("normal", "uniform", "integer_below", "subset")


def _matrix_flops(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    m, n = np.shape(a)
    return augl1_eval_flops(m, n)


def _no_flops(args, kwargs) -> int:
    return 0


class Tracer:
    """In-memory span recorder and the patches that feed it."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.error: list[bool] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.op_id = -1
        self.n_eval = 0
        self._stack: list[int] = []
        self._evals_at_k: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.error.append(False)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.error[idx] = True

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; an exception marks the span and propagates."""
        idx = self.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.exit(idx, failed=True)
            raise
        self.exit(idx)
        return out

    def wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    # -- patches -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace the caller-side bindings of every layer with wrappers."""
        nk, orc, sol = gradcert.numkit, gradcert.oracles, gradcert.solvers
        sr, cert, cli = gradcert.sparse_recovery, gradcert.certify, gradcert.cli

        self._patch(orc, "sym_eig_summary", self.wrap("numkit.eig", orc.sym_eig_summary))
        self._patch(orc, "cholesky_solve", self.wrap("numkit.cholesky_solve", orc.cholesky_solve))
        self._patch(nk, "gram_spectral_norm", self._power(nk.gram_spectral_norm))
        for meth in _STREAM_METHODS:
            self._patch(nk.GaussianStream, meth, self._stream(getattr(nk.GaussianStream, meth)))

        for owner in (orc, sr, cli):
            self._patch(
                owner, "make_augl1_dual", self._builder(owner.make_augl1_dual, _matrix_flops)
            )
        for owner in (orc, cli):
            self._patch(
                owner, "make_quadratic_composite",
                self._builder(owner.make_quadratic_composite, _matrix_flops),
            )
            self._patch(owner, "make_example_1d", self._builder(owner.make_example_1d, _no_flops))

        for owner in (sol, sr, cli):
            self._patch(owner, "run_solver", self._solver(owner.run_solver))
        for owner in (sr, cli):
            self._patch(owner, "gen_sparse_problem",
                        self.wrap("sparse_recovery.gen", owner.gen_sparse_problem))
            self._patch(owner, "recover", self._recover(owner.recover))

        for owner in (cert, cli):
            self._patch(owner, "check_bounds", self.wrap("certify.check", owner.check_bounds))
            self._patch(owner, "estimate_rsi", self.wrap("certify.estimate", owner.estimate_rsi))
            self._patch(owner, "estimate_rlg", self.wrap("certify.estimate", owner.estimate_rlg))
            self._patch(owner, "appendix_grid", self.wrap("certify.grid", owner.appendix_grid))
            self._patch(owner, "fit_rate", self.wrap("certify.fit", owner.fit_rate))
        self._patch(cert, "converse_secant", self.wrap("certify.estimate", cert.converse_secant))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrapper factories ---------------------------------------------------

    def _power(self, fn):
        tracer = self

        def gram_spectral_norm(*args, **kwargs):
            res = tracer.call("numkit.power", fn, *args, **kwargs)
            tracer.counts["numkit.power_iters"] += res.iterations
            return res

        return gram_spectral_norm

    def _stream(self, method):
        """Span the outermost stream call only; draws are raw words consumed."""
        tracer = self

        def traced(stream, *args, **kwargs):
            if tracer._stack and tracer.name[tracer._stack[-1]] == "numkit.stream":
                return method(stream, *args, **kwargs)
            pos = stream._pos
            out = tracer.call("numkit.stream", method, stream, *args, **kwargs)
            tracer.counts["numkit.stream_draws"] += stream._pos - pos
            return out

        return traced

    def _builder(self, fn, flops_of):
        tracer = self

        def build(*args, **kwargs):
            obj = tracer.call("oracles.build", fn, *args, **kwargs)
            return tracer._wrap_objective(obj, flops_of(args, kwargs))

        return build

    def _wrap_objective(self, obj, flops: int):
        """Copy of ``obj`` whose eval, eval_batch and project record spans."""
        tracer = self
        inner_eval = obj.eval

        def eval_(x):
            tracer.n_eval += 1
            tracer.counts["oracles.eval_flops"] += flops
            return tracer.call("oracles.eval", inner_eval, x)

        repl = {"eval": eval_}
        if obj.eval_batch is not None:
            inner_batch = obj.eval_batch

            def eval_batch(xs):
                tracer.counts["oracles.eval_batch_rows"] += int(np.shape(xs)[0])
                return tracer.call("oracles.eval_batch", inner_batch, xs)

            repl["eval_batch"] = eval_batch
        if obj.project is not None:
            repl["project"] = self.wrap("oracles.project", obj.project)
        return dataclasses.replace(obj, **repl)

    def _solver(self, fn):
        tracer = self

        def run_solver(oracle, x0, cfg, **kwargs):
            callback = kwargs.get("callback")
            evals_at_k: list[int] = []
            evals0 = tracer.n_eval
            if callback is not None:

                def observe(k, x, f, g):
                    evals_at_k.append(tracer.n_eval - evals0)
                    tracer.call("sparse_recovery.observe", callback, k, x, f, g)

                kwargs["callback"] = observe
            trace = tracer.call("solvers.run", fn, oracle, x0, cfg, **kwargs)
            tracer.counts["solvers.evals"] += tracer.n_eval - evals0
            tracer.counts["solvers.iters"] += len(trace) - 1
            tracer.counts["solvers.resets"] += sum(e != "none" for e in trace.reset_event)
            tracer._evals_at_k = evals_at_k
            return trace

        return run_solver

    def _recover(self, fn):
        tracer = self

        def recover(problem, variant, *args, **kwargs):
            tracer._evals_at_k = []
            res = tracer.call("sparse_recovery.recover", fn, problem, variant, *args, **kwargs)
            k6 = res.iterations_to(1e-6)
            if k6 is not None and k6 < len(tracer._evals_at_k):
                tracer.samples[f"iters_to.{variant}"].append(k6)
                tracer.samples[f"evals_to.{variant}"].append(tracer._evals_at_k[k6])
            return res

        return recover

    # -- reduction -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as gzipped CSV, times in seconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op,error\n")
            for i, name in enumerate(self.name):
                fh.write(f"{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.parent[i]},{self.op[i]},{int(self.error[i])}\n")

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        own = self_times(self.start, self.end, self.parent)
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, name in enumerate(self.name):
            row = out[name]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += own[i]
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (all of `PER_LAYER` except trace_overhead_frac)."""
        agg = self.by_name()

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return agg.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        c = self.counts
        eval_durs = [
            self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == "oracles.eval"
        ]
        iters = c["solvers.iters"]
        m = {
            "numkit.eig_calls": calls("numkit.eig"),
            "numkit.eig_s": total("numkit.eig"),
            "numkit.power_calls": calls("numkit.power"),
            "numkit.power_iters": c["numkit.power_iters"],
            "numkit.power_s": total("numkit.power"),
            "numkit.cholesky_solve_s": total("numkit.cholesky_solve"),
            "numkit.stream_draws": c["numkit.stream_draws"],
            "numkit.stream_s": total("numkit.stream"),
            "oracles.build_calls": calls("oracles.build"),
            "oracles.build_self_s": own("oracles.build"),
            "oracles.eval_calls": calls("oracles.eval"),
            "oracles.eval_s": total("oracles.eval"),
            "oracles.eval_us_p50": 1e6 * median(eval_durs) if eval_durs else 0.0,
            "oracles.eval_gflop_per_s": c["oracles.eval_flops"] / total("oracles.eval") / 1e9
            if eval_durs
            else 0.0,
            "oracles.eval_batch_rows": c["oracles.eval_batch_rows"],
            "oracles.eval_batch_s": total("oracles.eval_batch"),
            "oracles.project_calls": calls("oracles.project"),
            "oracles.project_s": total("oracles.project"),
            "solvers.runs": calls("solvers.run"),
            "solvers.iters": iters,
            "solvers.self_s": own("solvers.run"),
            "solvers.self_us_per_iter": 1e6 * own("solvers.run") / iters if iters else 0.0,
            "solvers.evals_per_iter": c["solvers.evals"] / iters if iters else 0.0,
            "solvers.resets": c["solvers.resets"],
            "sparse_recovery.gen_self_s": own("sparse_recovery.gen"),
            "sparse_recovery.observe_s": total("sparse_recovery.observe"),
            "sparse_recovery.self_s": own("sparse_recovery.recover"),
            "certify.check_calls": calls("certify.check"),
            "certify.check_s": total("certify.check"),
            "certify.estimate_calls": calls("certify.estimate"),
            "certify.estimate_s": total("certify.estimate"),
            "certify.grid_s": total("certify.grid"),
            "certify.fit_s": total("certify.fit"),
            "cli.invocations": calls("cli.main"),
            "cli.main_self_s": own("cli.main"),
            "cli.artifact_bytes": c["cli.artifact_bytes"],
        }
        for v in RECOVERY_VARIANTS:
            for kind in ("iters_to", "evals_to"):
                vals = self.samples.get(f"{kind}.{v}", [])
                m[f"sparse_recovery.{kind}_1e-6.{v}"] = median(vals) if vals else 0
        errors = Counter(n.split(".")[0] for n, e in zip(self.name, self.error) if e)
        for layer in LAYERS:
            m[f"{layer}.errors"] = errors[layer] + c[f"{layer}.errors"]
        return m
