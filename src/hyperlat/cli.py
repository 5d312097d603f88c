"""Command-line front end.

Four subcommands, each reading one problem file (see ``problem``):

    solve    build a solution (polynomial / second / generalized) and its residual
    verify   run the full identity suite on the problem's lattice and equation
    adjoint  tabulate sigma*, tau* on the window plus the lambda* scalars
    table    tabulate the coefficient ladder nu, alpha, kappa, lambda_k, hat_mu_k

Exit codes: 0 success, 1 identity/residual failure, 2 usage or parse error,
3 singularity (Pearson zero, singular summand, degenerate step).  Arithmetic
is exact, so a residual passes only when it is literally zero; no flag
relaxes that.  Output is CSV by default, JSON with ``--format json``;
identical inputs produce byte identical output.
"""

from __future__ import annotations

import argparse
import json
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
from .identities import run_identity_suite
from .numerics import format_scalar
from .problem import ProblemSpec, parse_problem_bytes
from .solutions import solve

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


def _load_spec(path: str) -> ProblemSpec:
    with open(path, "rb") as handle:
        return parse_problem_bytes(handle.read())


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_solve(args) -> int:
    spec = _load_spec(args.spec)
    eq = spec.equation()
    if args.kind == "generalized" and spec.poly_p is None:
        print("error: --kind generalized requires P in the problem file",
              file=sys.stderr)
        return EXIT_USAGE
    report = solve(
        eq, spec.n, spec.window, kind=args.kind,
        N=spec.sum_base, P=spec.poly_p,
        residual_lam=eq.lam if spec.lam is not None else None)
    if args.format == "json":
        _emit(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        lines = ["s,value,residual"]
        for s, value in report.solution.items():
            lines.append(f"{s},{format_scalar(value)},"
                         f"{format_scalar(report.residual.value_at(s))}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.is_exact_solution() else EXIT_FAILED


def _cmd_verify(args) -> int:
    results = run_identity_suite(_load_spec(args.spec))
    first_failure = next((r for r in results if not r.passed), None)
    if args.format == "json":
        payload = [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = []
        for r in results:
            lines.append(f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}")
        if first_failure is None:
            lines.append(f"ok: {len(results)} identities")
        else:
            lines.append(f"FAILED: {first_failure.name}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if first_failure is None else EXIT_FAILED


def _cmd_adjoint(args) -> int:
    spec = _load_spec(args.spec)
    eq = spec.equation()
    coeffs = eqn.adjoint_coeffs(eq, spec.window)
    kappa_m1 = eq.kappa(-1)
    scalars = (("lambda_star", coeffs.lambda_star),
               ("kappa_minus_one", kappa_m1),
               ("lambda_minus_kappa_minus_one", eq.lam - kappa_m1))
    if args.format == "json":
        payload = {
            "window": {"start": str(spec.window.start), "length": spec.window.length},
            "s": [str(s) for s in spec.window.points()],
            "sigma_star": [format_scalar(v) for v in coeffs.sigma_star.values],
            "tau_star": [format_scalar(v) for v in coeffs.tau_star.values],
        }
        payload.update({name: format_scalar(v) for name, v in scalars})
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["s,sigma_star,tau_star"]
        for s in spec.window.points():
            lines.append(f"{s},{format_scalar(coeffs.sigma_star.value_at(s))},"
                         f"{format_scalar(coeffs.tau_star.value_at(s))}")
        lines.append("")
        lines.append("name,value")
        for name, value in scalars:
            lines.append(f"{name},{format_scalar(value)}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_table(args) -> int:
    spec = _load_spec(args.spec)
    eq = spec.equation()
    lat = eq.lattice
    rows = []
    for k in range(spec.n + 1):
        rows.append({
            "k": k,
            "nu": lat.nu(k),
            "alpha": lat.alpha(k),
            "kappa": eq.kappa(k),
            "kappa_2k_plus_1": eq.kappa(2 * k + 1),
            "mu": eqn.mu_k(eq, k),
            "lambda": eqn.lambda_n(eq, k),
            "hat_mu": eqn.hat_mu_n(eq, k),
        })
    if args.format == "json":
        payload = [{key: (value if key == "k" else format_scalar(value))
                    for key, value in row.items()} for row in rows]
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        header = ["k", "nu", "alpha", "kappa", "kappa_2k_plus_1", "mu", "lambda", "hat_mu"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                str(row["k"]) if key == "k" else format_scalar(row[key])
                for key in header))
        _emit(args, "\n".join(lines) + "\n")
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
        return _COMMANDS[args.command](args)
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
    except NonConstantLambdaStar as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except HyperlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
