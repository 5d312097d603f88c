"""The declarative problem text format and its parser.

A problem is a flat list of ``key = value`` lines (``#`` starts a comment):

    lattice = quadratic
    ct1 = 1
    ct2 = 1
    ct3 = 0
    sigma = 0, 1, 0          # sigma~(0), sigma~'(0), sigma~''/2
    tau = 1, -2              # tau~(0), tau~'
    n = 2
    window = 4..15           # inclusive, half-integers allowed (7/2..12)

A ``qquadratic`` lattice takes ``p, c1, c2, c3`` in place of ``ct1, ct2, ct3``;
``_FAMILIES`` lists each family's keys.  Optional keys: ``lambda`` (defaults
to lambda_n), ``sum_base``, ``P`` (the n+1 coefficients of the generalized
construction), ``allow_degenerate`` (kept on the lattice).  ``n`` is at most
``MAX_N`` = 16, a constant of the format.  All numbers are exact rationals;
no floating literals exist in the format, and any other key is an
``unknown key`` error.

The parser is total: any byte string produces either a ProblemSpec or a list
of diagnostics with 1-based line/column positions, never an exception from
arbitrary input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equation import HyperEquation, lambda_n
from .errors import (
    DivisionByZero,
    LatticeError,
    ProblemFormatError,
    RationalParseError,
)
from .grid import Window
from .lattice import HalfInt, Lattice, QQuadraticLattice, QuadraticLattice
from .numerics import Rational, format_rational, parse_rational

MAX_N = 16
MIN_WINDOW_MARGIN = 5  # window length must be at least n + this

_BASE_KEYS = ("lattice", "sigma", "tau", "n", "window")
# family name -> (lattice class, its keys in constructor order)
_FAMILIES = {
    "qquadratic": (QQuadraticLattice, ("p", "c1", "c2", "c3")),
    "quadratic": (QuadraticLattice, ("ct1", "ct2", "ct3")),
}


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


@dataclass(frozen=True)
class ProblemSpec:
    lattice: Lattice
    sigma_t: tuple
    tau_t: tuple
    n: int
    window: Window
    lam: Rational | None = None
    sum_base: HalfInt | None = None
    poly_p: tuple | None = None

    def equation(self) -> HyperEquation:
        """Build the equation, with lambda defaulted to lambda_n when the
        problem does not pin it."""
        eq = HyperEquation(self.lattice, self.sigma_t, self.tau_t)
        return eq.with_lambda(lambda_n(eq, self.n) if self.lam is None else self.lam)


# ---------------------------------------------------------------------------
# tokenizer

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_NUM_START = set("-0123456789")


@dataclass(frozen=True)
class _Token:
    kind: str   # ident | num | eq | comma | dotdot
    text: str
    column: int  # 1-based


def _tokenize_line(line: str, lineno: int, diagnostics: list) -> list[_Token] | None:
    """Split one raw line (comment already stripped) into tokens.
    Returns None when the line cannot be tokenized."""
    tokens: list[_Token] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch == "=":
            tokens.append(_Token("eq", "=", col))
            i += 1
        elif ch == ",":
            tokens.append(_Token("comma", ",", col))
            i += 1
        elif ch == ".":
            if line.startswith("..", i):
                tokens.append(_Token("dotdot", "..", col))
                i += 2
            else:
                diagnostics.append(ParseDiagnostic(lineno, col, "expected '..'"))
                return None
        elif ch in _IDENT_START:
            j = i + 1
            while j < len(line) and line[j] in _IDENT_CONT:
                j += 1
            tokens.append(_Token("ident", line[i:j], col))
            i = j
        elif ch in _NUM_START:
            j = i + 1
            while j < len(line) and (line[j].isdigit() or line[j] == "/"):
                j += 1
            tokens.append(_Token("num", line[i:j], col))
            i = j
        else:
            diagnostics.append(ParseDiagnostic(
                lineno, col, f"unexpected character {ch!r}"))
            return None
    return tokens


# ---------------------------------------------------------------------------
# value parsers (each consumes the full token tail of one line)


_SHOWN_CHARS = 24  # longer literals are cut short in diagnostics


def _shown(text: str) -> str:
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"'{text[:_SHOWN_CHARS]}...' ({len(text)} characters)"


def _parse_rational_token(tok: _Token, lineno: int, diagnostics: list) -> Fraction | None:
    try:
        return parse_rational(tok.text)
    except RationalParseError as exc:
        diagnostics.append(ParseDiagnostic(
            lineno, tok.column + exc.offset, f"bad rational {_shown(tok.text)}"))
    except DivisionByZero:
        diagnostics.append(ParseDiagnostic(
            lineno, tok.column, f"zero denominator in {_shown(tok.text)}"))
    return None


def _want_single(kind: str, tail: list[_Token], lineno: int, key: str,
                 diagnostics: list) -> _Token | None:
    if not tail:
        diagnostics.append(ParseDiagnostic(lineno, 1, f"missing value for '{key}'"))
        return None
    if tail[0].kind != kind:
        diagnostics.append(ParseDiagnostic(
            lineno, tail[0].column, f"bad value for '{key}'"))
        return None
    if len(tail) > 1:
        diagnostics.append(ParseDiagnostic(
            lineno, tail[1].column, f"unexpected trailing tokens after '{key}'"))
        return None
    return tail[0]


def _value_rational(tail, lineno, key, diagnostics):
    tok = _want_single("num", tail, lineno, key, diagnostics)
    if tok is None:
        return None
    return _parse_rational_token(tok, lineno, diagnostics)


def _half_int_token(tok: _Token, lineno: int, message: str,
                    diagnostics: list) -> HalfInt | None:
    value = _parse_rational_token(tok, lineno, diagnostics)
    if value is None:
        return None
    if value.denominator not in (1, 2):
        diagnostics.append(ParseDiagnostic(lineno, tok.column, message))
        return None
    return HalfInt(int(value * 2))


def _value_half_int(tail, lineno, key, diagnostics):
    tok = _want_single("num", tail, lineno, key, diagnostics)
    if tok is None:
        return None
    return _half_int_token(tok, lineno, f"'{key}' must be a half-integer", diagnostics)


def _value_ident(tail, lineno, key, diagnostics):
    return _want_single("ident", tail, lineno, key, diagnostics)


def _value_rational_list(tail, lineno, key, diagnostics):
    if not tail:
        diagnostics.append(ParseDiagnostic(lineno, 1, f"missing value for '{key}'"))
        return None
    values = []
    expect_num = True
    for tok in tail:
        if expect_num:
            if tok.kind != "num":
                diagnostics.append(ParseDiagnostic(
                    lineno, tok.column, f"expected a rational in '{key}' list"))
                return None
            value = _parse_rational_token(tok, lineno, diagnostics)
            if value is None:
                return None
            values.append(value)
        else:
            if tok.kind != "comma":
                diagnostics.append(ParseDiagnostic(
                    lineno, tok.column, f"expected ',' in '{key}' list"))
                return None
        expect_num = not expect_num
    if expect_num:
        diagnostics.append(ParseDiagnostic(
            lineno, tail[-1].column, f"trailing ',' in '{key}' list"))
        return None
    return tuple(values)


def _value_window(tail, lineno, key, diagnostics):
    shape_ok = (len(tail) == 3 and tail[0].kind == "num"
                and tail[1].kind == "dotdot" and tail[2].kind == "num")
    if not shape_ok:
        col = tail[0].column if tail else 1
        diagnostics.append(ParseDiagnostic(
            lineno, col, "window must be 'start..end'"))
        return None
    ends = []
    for tok in (tail[0], tail[2]):
        end = _half_int_token(tok, lineno, "window endpoints must be half-integers",
                              diagnostics)
        if end is None:
            return None
        ends.append(end)
    start, end = ends
    if end.twice < start.twice:
        diagnostics.append(ParseDiagnostic(
            lineno, tail[0].column, "window end precedes its start"))
        return None
    return Window.span(start, end)


_VALUE_PARSERS = {
    "lattice": _value_ident,
    "p": _value_rational, "c1": _value_rational, "c2": _value_rational,
    "c3": _value_rational,
    "ct1": _value_rational, "ct2": _value_rational, "ct3": _value_rational,
    "sigma": _value_rational_list,
    "tau": _value_rational_list,
    "lambda": _value_rational,
    "n": _value_rational,
    "window": _value_window,
    "sum_base": _value_half_int,
    "P": _value_rational_list,
    "allow_degenerate": _value_ident,
}


# ---------------------------------------------------------------------------
# driver


def parse_problem_with_diagnostics(text: str):
    """Parse problem text.  Returns (spec_or_None, diagnostics)."""
    diagnostics: list[ParseDiagnostic] = []
    seen: dict[str, tuple[int, int]] = {}   # key -> (line, column)
    values: dict[str, object] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        hash_pos = line.find("#")
        if hash_pos >= 0:
            line = line[:hash_pos]
        if not line.strip():
            continue
        tokens = _tokenize_line(line, lineno, diagnostics)
        if tokens is None:
            continue
        if tokens[0].kind != "ident" or len(tokens) < 2 or tokens[1].kind != "eq":
            diagnostics.append(ParseDiagnostic(
                lineno, tokens[0].column, "expected 'key = value'"))
            continue
        key = tokens[0].text
        if key not in _VALUE_PARSERS:
            diagnostics.append(ParseDiagnostic(
                lineno, tokens[0].column, f"unknown key '{key}'"))
            continue
        if key in seen:
            diagnostics.append(ParseDiagnostic(
                lineno, tokens[0].column, f"duplicate key '{key}'"))
            continue
        seen[key] = (lineno, tokens[0].column)
        value = _VALUE_PARSERS[key](tokens[2:], lineno, key, diagnostics)
        if value is not None:
            values[key] = value

    def diag_at(key: str, message: str) -> None:
        line, column = seen.get(key, (1, 1))
        diagnostics.append(ParseDiagnostic(line, column, message))

    # which keys the declared family requires / forbids
    cls, keys = None, ()
    if "lattice" in values:
        name = values["lattice"].text
        cls, keys = _FAMILIES.get(name, (None, ()))
        if cls is None:
            diag_at("lattice", f"lattice must be 'qquadratic' or 'quadratic', not '{name}'")
        else:
            for key in (k for _, other in _FAMILIES.values() for k in other):
                if key in seen and key not in keys:
                    diag_at(key, f"key '{key}' is not valid for a {name} lattice")
    missing = [k for k in _BASE_KEYS + keys if k not in seen]
    if missing:
        diagnostics.append(ParseDiagnostic(
            1, 1, "missing required keys: " + ", ".join(missing)))

    # simple value constraints
    allow_degenerate = False
    if "allow_degenerate" in values:
        flag = values["allow_degenerate"].text
        if flag not in ("true", "false"):
            diag_at("allow_degenerate", "allow_degenerate must be 'true' or 'false'")
        else:
            allow_degenerate = flag == "true"
    n = None
    if "n" in values:
        raw_n = values["n"]
        if raw_n.denominator != 1 or raw_n < 0:
            diag_at("n", "n must be a nonnegative integer")
        elif raw_n > MAX_N:
            diag_at("n", f"n must not exceed {MAX_N}")
        else:
            n = int(raw_n)
    bad_p = values.get("p") in (0, 1, -1)
    if bad_p:
        diag_at("p", "p must not be 0, 1, or -1")
    if "sigma" in values and len(values["sigma"]) != 3:
        diag_at("sigma", "sigma needs exactly 3 coefficients")
    if "tau" in values and len(values["tau"]) != 2:
        diag_at("tau", "tau needs exactly 2 coefficients")
    if n is not None and "window" in values:
        window = values["window"]
        if window.length < n + MIN_WINDOW_MARGIN:
            diag_at("window",
                    f"window must hold at least n + {MIN_WINDOW_MARGIN} = "
                    f"{n + MIN_WINDOW_MARGIN} points, got {window.length}")
    if n is not None and "P" in values and len(values["P"]) != n + 1:
        diag_at("P", f"P needs exactly n + 1 = {n + 1} coefficients")
    if "sum_base" in values and "window" in values:
        if (values["sum_base"].twice - values["window"].start.twice) % 2 != 0:
            diag_at("sum_base", "sum_base must step together with the window")

    lattice = None
    # a bad p is reported at its own line, not a second time by the constructor
    if cls is not None and all(k in values for k in keys) and not ("p" in keys and bad_p):
        try:
            lattice = cls(*(values[k] for k in keys), allow_degenerate)
        except LatticeError as exc:
            diag_at("lattice", str(exc))

    if diagnostics or lattice is None or n is None:
        return None, diagnostics

    spec = ProblemSpec(
        lattice=lattice,
        sigma_t=values["sigma"],
        tau_t=values["tau"],
        n=n,
        window=values["window"],
        lam=values.get("lambda"),
        sum_base=values.get("sum_base"),
        poly_p=values.get("P"),
    )
    return spec, []


def parse_problem(text: str) -> ProblemSpec:
    spec, diagnostics = parse_problem_with_diagnostics(text)
    if spec is None:
        raise ProblemFormatError(diagnostics)
    return spec


def parse_problem_bytes(data: bytes) -> ProblemSpec:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError([ParseDiagnostic(
            1, 1, f"input is not valid UTF-8 ({exc.reason} at byte {exc.start})")])
    return parse_problem(text)


# ---------------------------------------------------------------------------
# rendering


def render_problem(spec: ProblemSpec) -> str:
    """Canonical text form; parse_problem(render_problem(s)) == s."""
    lat = spec.lattice
    name, keys = next((name, keys) for name, (cls, keys) in _FAMILIES.items()
                      if isinstance(lat, cls))
    out = [f"lattice = {name}"]
    out += [f"{key} = {format_rational(getattr(lat, key))}" for key in keys]
    out.append("sigma = " + ", ".join(format_rational(c) for c in spec.sigma_t))
    out.append("tau = " + ", ".join(format_rational(c) for c in spec.tau_t))
    if spec.lam is not None:
        out.append(f"lambda = {format_rational(spec.lam)}")
    out.append(f"n = {spec.n}")
    out.append(f"window = {spec.window.start}..{spec.window.end}")
    if spec.sum_base is not None:
        out.append(f"sum_base = {spec.sum_base}")
    if spec.poly_p is not None:
        out.append("P = " + ", ".join(format_rational(c) for c in spec.poly_p))
    if lat.allow_degenerate:
        out.append("allow_degenerate = true")
    return "\n".join(out) + "\n"
