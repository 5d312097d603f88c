"""The traced run: per-layer metrics measured from outside the program.

The traced run performs each solve of its operations three times:

1. ``solve()`` itself, untraced, as ``solutions.solve``;
2. the same pipeline composed from public calls, in the order
   ``solutions._integral_solution`` (or ``rodrigues_polynomial``) uses,
   with every call timed; its solution and residual must equal those of
   ``solve()`` exactly, or the run fails;
3. ``solve()`` again with ``Lattice.x_k`` and ``sigma_of_s`` wrapped by
   counting timers (inclusive time: sigma_of_s covers the x_k calls it
   makes), so the timers of pass 2 stay free of that overhead.

CLI operations are replayed in-process: first through the library layers
they use (``parse_problem_bytes``, ``run_identity_suite``,
``adjoint_coeffs``, ``format_scalar``), then through ``cli.main`` as a
whole.  Spans are kept in memory and written to one JSON file at the
end.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from hyperlat import (
    GridFunction,
    SingularSummand,
    Y_n,
    adjoint_coeffs,
    apply_L,
    cumulative_nabla_sum,
    format_scalar,
    iterated_delta,
    lambda_n,
    parse_problem_bytes,
    pearson_weight,
    run_identity_suite,
    sigma_of_s,
    weight_window_for,
)
from hyperlat import cli, equation, solutions
from hyperlat.lattice import QQuadraticLattice, QuadraticLattice

from checks import solve_spec
from timing import run_child

STAGES = (
    "equation.pearson_weight",
    "solutions.Y_n",
    "solutions.integrand",
    "grid.cumulative_nabla_sum",
    "grid.GridFunction.mul",
    "grid.iterated_delta",
    "grid.GridFunction.truediv",
    "equation.apply_L",
)

# name -> (unit, better); the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = {}
for _stage in STAGES:
    LAYER_METRICS.update({
        f"{_stage}.ms": ("ms", "lower"),
        f"{_stage}.calls": ("count", "lower"),
        f"{_stage}.max_bits": ("bits", "lower"),
        f"{_stage}.errors": ("count", "lower"),
    })
LAYER_METRICS.update({
    "solutions.solve.ms": ("ms", "lower"),
    "solutions.solve.calls": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "lattice.x_k.ms": ("ms", "lower"),
    "lattice.x_k.calls": ("count", "lower"),
    "equation.sigma_of_s.ms": ("ms", "lower"),
    "equation.sigma_of_s.calls": ("count", "lower"),
    "problem.parse_problem_bytes.ms": ("ms", "lower"),
    "problem.parse_problem_bytes.calls": ("count", "lower"),
    "problem.parse_problem_bytes.errors": ("count", "lower"),
    "identities.run_identity_suite.ms": ("ms", "lower"),
    "identities.run_identity_suite.calls": ("count", "lower"),
    "identities.run_identity_suite.failed_checks": ("count", "lower"),
    "equation.adjoint_coeffs.ms": ("ms", "lower"),
    "equation.adjoint_coeffs.calls": ("count", "lower"),
    "numerics.format_scalar.ms": ("ms", "lower"),
    "numerics.format_scalar.calls": ("count", "lower"),
    "numerics.format_scalar.errors": ("count", "lower"),
    "numerics.format_scalar.out_bytes": ("bytes", "lower"),
    "cli.main.ms": ("ms", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.errors": ("count", "lower"),
    "cli.interpreter.ms": ("ms", "lower"),
    "cli.import.ms": ("ms", "lower"),
})

PROBE_REPEATS = 3


def max_bits(values) -> int:
    return max((v.numerator.bit_length() + v.denominator.bit_length() for v in values),
               default=0)


@dataclass
class Stat:
    ns: int = 0
    calls: int = 0
    max_bits: int = 0
    errors: int = 0
    extra: int = 0   # failed_checks or out_bytes, where the layer has one


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.op = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def add(self, name: str, start: int, end: int, error: bool = False) -> None:
        s = self.stat(name)
        s.ns += end - start
        s.calls += 1
        s.errors += error
        self.spans.append((self.op, name, start, end))

    def call(self, name: str, fn, *args):
        start = time.perf_counter_ns()
        try:
            out = fn(*args)
        except Exception:
            self.add(name, start, time.perf_counter_ns(), error=True)
            raise
        self.add(name, start, time.perf_counter_ns())
        return out

    def bits(self, name: str, values) -> None:
        s = self.stat(name)
        s.max_bits = max(s.max_bits, max_bits(values))

    def staged(self, name: str, fn, *args) -> GridFunction:
        out = self.call(name, fn, *args)
        self.bits(name, out.values)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"op": op, "name": name, "start_ns": start, "end_ns": end}
                       for op, name, start, end in self.spans], handle)

    def metrics(self) -> dict:
        out = {}
        stage_ns = sum(self.stat(name).ns for name in STAGES)
        solve_ns = self.stat("solutions.solve").ns
        for name, (unit, _better) in LAYER_METRICS.items():
            if name == "trace.overhead":
                value = stage_ns / solve_ns - 1 if solve_ns else 0.0
            else:
                layer, field = name.rsplit(".", 1)
                s = self.stat(layer)
                value = {"ms": s.ns / 1e6, "calls": s.calls, "max_bits": s.max_bits,
                         "errors": s.errors, "failed_checks": s.extra,
                         "out_bytes": s.extra}[field]
            out[name] = {"value": value, "unit": unit}
        return out


def composed_solve(t: Tracer, eq, n, window, kind, N, P):
    """solve() rebuilt from public calls, one timed span per stage."""
    lat = eq.lattice
    weight = t.call("equation.pearson_weight", pearson_weight,
                    eq, weight_window_for(n, window), window.start)
    t.bits("equation.pearson_weight", weight.rho.values)
    lam = lambda_n(eq, n)
    enlarged = window.expand(1, 1)
    y_window = enlarged.expand(0, n)
    if kind == "polynomial":
        product = t.staged("solutions.Y_n", Y_n, eq, weight, n, y_window)
    else:
        if kind == "generalized":
            coeffs = tuple(P)

            def numerator(s):
                x = lat.x_k(-(n + 1), s)
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * x + c
                return acc
        else:
            def numerator(s):
                return Fraction(1)

        def summand(s):
            den = weight.value_at(s)
            for j in range(n + 1):
                den *= sigma_of_s(eq, s - j)
            if den == 0:
                raise SingularSummand(f"sigma product vanishes at t={s}", point=s)
            return numerator(s) / den

        g = t.staged("solutions.integrand", GridFunction.sample, y_window, summand)
        base = y_window.start if N is None else N
        factor = t.staged("grid.cumulative_nabla_sum", cumulative_nabla_sum, lat, -n, g, base)
        yn = t.staged("solutions.Y_n", Y_n, eq, weight, n, y_window)
        product = t.staged("grid.GridFunction.mul", operator.mul, yn, factor)
    numer = t.staged("grid.iterated_delta", iterated_delta, lat, -n, n, product)
    y = t.staged("grid.GridFunction.truediv", operator.truediv,
                 numer, weight.rho.restrict(enlarged))
    residual = t.staged("equation.apply_L", apply_L, eq.with_lambda(lam), y)
    return y.restrict(window), residual


@contextlib.contextmanager
def counting_calls(t: Tracer):
    """Wrap x_k and sigma_of_s with timers for the duration of the block."""
    patched = []

    def wrap(owner, attr, name):
        fn = getattr(owner, attr)

        def timed(*args):
            start = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                s = t.stat(name)
                s.ns += time.perf_counter_ns() - start
                s.calls += 1

        patched.append((owner, attr, fn))
        setattr(owner, attr, timed)

    wrap(QQuadraticLattice, "x_k", "lattice.x_k")
    wrap(QuadraticLattice, "x_k", "lattice.x_k")
    wrap(equation, "sigma_of_s", "equation.sigma_of_s")
    wrap(solutions, "sigma_of_s", "equation.sigma_of_s")
    try:
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def trace_solve(t: Tracer, spec, kind: str) -> tuple[str | None, object]:
    """Passes 1-3 for one solve; returns (failure, report of solve())."""
    report = t.call("solutions.solve", solve_spec, spec, kind)
    solution, residual = composed_solve(t, spec.equation(), spec.n, spec.window, kind,
                                        spec.sum_base, spec.poly_p)
    if solution != report.solution or residual != report.residual:
        return "composed pipeline differs from solve()", report
    with counting_calls(t):
        again = solve_spec(spec, kind)
    if again.solution != report.solution:
        return "counted solve() differs from solve()", report
    return None, report


def format_values(t: Tracer, values) -> None:
    s = t.stat("numerics.format_scalar")
    for v in values:
        try:
            text = t.call("numerics.format_scalar", format_scalar, v)
        except ValueError:
            continue   # the int->str digit limit; counted in .errors
        s.extra += len(text)


def run_cli_main(t: Tracer, argv: list[str]) -> tuple[int | None, bytes]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = t.call("cli.main", cli.main, argv)
        except Exception:   # the CLI lets some errors escape; counted in .errors
            code = None
    return code, out.getvalue().encode()


def trace_layers(t: Tracer, command: str, spec_bytes: bytes):
    """The library layers a CLI command passes through, called directly;
    returns the parsed problem."""
    spec = t.call("problem.parse_problem_bytes", parse_problem_bytes, spec_bytes)
    if command == "verify":
        results = t.call("identities.run_identity_suite", run_identity_suite, spec)
        t.stat("identities.run_identity_suite").extra += sum(not r.passed for r in results)
    elif command == "adjoint":
        coeffs = t.call("equation.adjoint_coeffs", adjoint_coeffs, spec.equation(), spec.window)
        format_values(t, coeffs.sigma_star.values + coeffs.tau_star.values)
    return spec


def probe_interpreter(t: Tracer) -> None:
    """Interpreter start alone and with ``import hyperlat``, as subprocesses."""
    for name, code in (("cli.interpreter", "pass"), ("cli.import", "import hyperlat")):
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter_ns()
            child = run_child([sys.executable, "-c", code], 30)
            if child.code != 0:
                raise RuntimeError(child.err.decode(errors="replace"))
            t.add(name, start, time.perf_counter_ns())

