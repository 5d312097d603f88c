"""Correctness checks applied to every benchmark operation.

An in-process solve passes only if its residual is literally zero and its
solution is not identically zero.  A CLI operation passes only if it exits
0 without a traceback and its stdout is well formed, with a literally zero
residual for ``solve``; demo invocations must match ``tests/golden/`` byte
for byte.  Exact values are hashed through ``int.to_bytes``, never ``str()``,
so hashing is not subject to the int->str digit limit.
"""

from __future__ import annotations

import json

from hyperlat import format_scalar, identity_names, solve


def hash_values(h, values) -> None:
    """Feed exact rationals to a hashlib object, sign and size included."""
    for v in values:
        for part in (v.numerator, v.denominator):
            size = (abs(part).bit_length() + 8) // 8
            h.update(size.to_bytes(4, "little"))
            h.update(part.to_bytes(size, "little", signed=True))


def solve_spec(spec, kind: str):
    """The ``solve()`` call the CLI makes for a problem file."""
    return solve(spec.equation(), spec.n, spec.window, kind=kind,
                 N=spec.sum_base, P=spec.poly_p)


def report_failure(report) -> str | None:
    if any(v != 0 for v in report.residual.values):
        return "nonzero residual"
    if all(v == 0 for v in report.solution.values):
        return "zero solution"
    return None


def error_class(stderr: bytes) -> str:
    """The exception class named on the last line of a traceback."""
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    return lines[-1].split(":", 1)[0] if lines else "no output"


def cli_failure(op, spec, returncode: int, stdout: bytes, stderr: bytes,
                golden: bytes | None) -> str | None:
    """Why a CLI operation's outcome is wrong, or None when it is right.

    ``spec`` is the parsed problem file; ``golden`` the expected stdout of
    demo invocations."""
    if b"Traceback" in stderr:
        return f"traceback {error_class(stderr)}"
    if returncode != 0:
        return f"exit {returncode}"
    if golden is not None:
        return None if stdout == golden else "golden mismatch"
    try:
        return _output_failure(op, spec, stdout.decode("utf-8"))
    except (UnicodeDecodeError, IndexError, KeyError, TypeError, ValueError):
        return "malformed output"


def _output_failure(op, spec, text: str) -> str | None:
    length = spec.window.length
    if op.command == "verify":
        ok = text.endswith(f"ok: {len(identity_names())} identities\n")
        return None if ok else "verify output"
    if op.command == "adjoint":
        lines = text.splitlines()
        ok = lines[0] == "s,sigma_star,tau_star" and lines[length + 1] == ""
        return None if ok else "adjoint output"
    if op.command == "table":
        ok = len(text.splitlines()) == spec.n + 2
        return None if ok else "table output"
    values, residuals = solve_columns(op, text)
    if len(values) != length:
        return "solve output length"
    if any(r != "0" for r in residuals):
        return "nonzero residual"
    return None


def solve_columns(op, text: str) -> tuple[list[str], list[str]]:
    """Solution values and residuals as printed by ``solve``."""
    if op.fmt == "json":
        payload = json.loads(text)
        return payload["values"], [payload["residual_max_abs"]]
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [r[1] for r in rows], [r[2] for r in rows]


def reference_mismatch(op, spec, stdout: bytes) -> bool:
    """Whether a CLI solve printed other values than ``solve()`` returns
    in-process for the same problem file."""
    values, _ = solve_columns(op, stdout.decode("utf-8"))
    report = solve_spec(spec, op.kind)
    return values != [format_scalar(v) for v in report.solution.values]
