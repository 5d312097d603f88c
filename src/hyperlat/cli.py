"""Command-line front end.

Four subcommands, each reading one problem file (see ``problem``):

    solve    build a solution (polynomial / second / generalized) and its residual
    verify   run the full identity suite on the problem's lattice and equation
    adjoint  tabulate sigma*, tau* on the window plus the lambda* scalars
    table    tabulate the coefficient ladder nu, alpha, kappa, lambda_k, hat_mu_k

Exit codes: 0 success, 1 identity/residual failure (a form check that
disagrees included), 2 usage or parse error, 3 singularity (Pearson zero,
singular summand, degenerate step).  Arithmetic is exact, so a residual
passes only when it is literally zero; no flag relaxes that.  Output is CSV
by default, JSON with ``--format json``; identical inputs produce byte
identical output.

``main`` loads the problem file once and hands it to the command.  Each
command builds its text and its JSON once, each as a zero-argument builder,
and passes both to ``_emit``, the only code that reads ``--format`` and
``--out``: it builds the form that was asked for and writes it.
"""

from __future__ import annotations

import argparse
import sys

from . import equation as eqn
from .errors import (
    DegenerateStep,
    HyperlatError,
    NonConstantLambdaStar,
    PearsonSingularity,
    ProblemFormatError,
    SingularSummand,
)
from .numerics import format_scalar
from .problem import ProblemSpec, parse_problem_bytes
from .solutions import solve, sum_base_for

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3

_SINGULAR = (PearsonSingularity, SingularSummand, DegenerateStep)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlat",
        description="Construct and verify solutions of hypergeometric "
                    "difference equations on nonuniform lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "generate a solution and its residual"),
            ("verify", "run the identity suite"),
            ("adjoint", "tabulate the adjoint coefficients"),
            ("table", "tabulate the coefficient ladder")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--spec", required=True, metavar="PATH",
                         help="problem specification file")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--out", metavar="PATH", default=None,
                         help="output path (default: standard output)")
        if name == "solve":
            cmd.add_argument("--kind", default="polynomial",
                             choices=("polynomial", "second", "generalized"))
    return parser


def _emit(args, lines, document) -> None:
    """The one writer: build only the form ``--format`` asks for, from
    ``lines()`` (CSV or text) or ``document()`` (JSON), and write it to
    ``--out`` or standard output."""
    if args.format == "json":
        import json   # only JSON output needs it
        text = json.dumps(document(), indent=2) + "\n"
    else:
        text = "\n".join(lines()) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_solve(args, spec: ProblemSpec) -> int:
    eq = spec.equation()
    if args.kind == "generalized" and spec.poly_p is None:
        print("error: --kind generalized requires P in the problem file",
              file=sys.stderr)
        return EXIT_USAGE
    report = solve(
        eq, spec.n, spec.window, kind=args.kind,
        N=spec.sum_base, P=spec.poly_p,
        residual_lam=eq.lam)
    _emit(args, lambda: ["s,value,residual"] + [
        f"{s},{format_scalar(value)},{format_scalar(report.residual.value_at(s))}"
        for s, value in report.solution.items()], report.to_json_dict)
    return EXIT_OK if report.is_exact_solution() else EXIT_FAILED


def _cmd_verify(args, spec: ProblemSpec) -> int:
    if spec.sum_base is not None:
        # a usage error, as for ``solve``, not a failed identity
        sum_base_for(spec.n, spec.window, spec.sum_base)
    from .identities import run_identity_suite   # only verify needs the suite

    results = run_identity_suite(spec)
    failed = [r.name for r in results if not r.passed]
    summary = f"FAILED: {failed[0]}" if failed else f"ok: {len(results)} identities"
    _emit(args, lambda: [f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}"
                         for r in results] + [summary],
          lambda: [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results])
    return EXIT_FAILED if failed else EXIT_OK


def _cmd_adjoint(args, spec: ProblemSpec) -> int:
    eq = spec.equation()
    coeffs = eqn.adjoint_coeffs(eq, spec.window)
    columns = {"s": [str(s) for s in spec.window.points()],
               "sigma_star": [format_scalar(v) for v in coeffs.sigma_star.values],
               "tau_star": [format_scalar(v) for v in coeffs.tau_star.values]}
    scalars = {"lambda_star": format_scalar(coeffs.lambda_star),
               "kappa_minus_one": format_scalar(eq.kappa(-1))}
    _emit(args, lambda: [",".join(columns), *map(",".join, zip(*columns.values())),
                         "", "name,value", *map(",".join, scalars.items())],
          lambda: {"window": {"start": str(spec.window.start), "length": spec.window.length},
                   **columns, **scalars})
    return EXIT_OK


def _cmd_table(args, spec: ProblemSpec) -> int:
    eq = spec.equation()
    lat = eq.lattice
    rows = []
    for k in range(spec.n + 1):
        values = {"nu": lat.nu(k), "alpha": lat.alpha(k), "kappa": eq.kappa(k),
                  "kappa_2k_plus_1": eq.kappa(2 * k + 1), "mu": eqn.mu_k(eq, k),
                  "lambda": eqn.lambda_n(eq, k), "hat_mu": eqn.hat_mu_n(eq, k)}
        rows.append({"k": k, **{key: format_scalar(v) for key, v in values.items()}})
    _emit(args, lambda: [",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)],
          lambda: rows)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "adjoint": _cmd_adjoint,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.spec, "rb") as handle:
            spec = parse_problem_bytes(handle.read())
        return _COMMANDS[args.command](args, spec)
    except ProblemFormatError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic, file=sys.stderr)
        if not exc.diagnostics:
            print("error: invalid input", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _SINGULAR as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (NonConstantLambdaStar, AssertionError) as exc:
        # an AssertionError is a form check that disagrees (a library bug)
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except HyperlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
