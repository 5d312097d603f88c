from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlat import (
    HalfInt,
    ProblemFormatError,
    ProblemSpec,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    parse_problem,
    parse_problem_bytes,
    format_rational,
    parse_problem_with_diagnostics,
)
from hyperlat.problem import _FAMILIES

MINIMAL_QUADRATIC = """\
# a comment line
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = 0, 0, 1
tau = 1, 2          # trailing comment
n = 2
window = -4..8
"""


def test_minimal_quadratic_spec():
    spec = parse_problem(MINIMAL_QUADRATIC)
    assert spec.lattice == QuadraticLattice(F(1), F(1), F(0))
    assert spec.sigma_t == (F(0), F(0), F(1))
    assert spec.tau_t == (F(1), F(2))
    assert spec.n == 2
    assert spec.window == Window(HalfInt.from_int(-4), 13)
    assert spec.lam is None and spec.sum_base is None and spec.poly_p is None


def test_qquadratic_spec_with_options():
    text = """\
lattice = qquadratic
p = 3/2
c1 = 1
c2 = -2
c3 = 1/3
sigma = 1, 0, 1
tau = 2, -3
lambda = -7/2
n = 3
window = 1/2..25/2
sum_base = 5/2
P = 1, 0, -1, 1/4
"""
    spec = parse_problem(text)
    assert spec.lattice == QQuadraticLattice(F(3, 2), F(1), F(-2), F(1, 3))
    assert spec.lam == F(-7, 2)
    assert spec.window == Window(HalfInt(1), 13)
    assert spec.sum_base == HalfInt(5)
    assert spec.poly_p == (F(1), F(0), F(-1), F(1, 4))
    eq = spec.equation()
    assert eq.lattice.p == F(3, 2) and eq.lam == F(-7, 2)


def test_window_end_truncates_to_grid():
    text = MINIMAL_QUADRATIC.replace("window = -4..8", "window = -7/2..5")
    spec = parse_problem(text)
    assert spec.window.start == HalfInt(-7)
    assert spec.window.end == HalfInt(9)


def _diagnostics(text):
    spec, diagnostics = parse_problem_with_diagnostics(text)
    assert spec is None
    return diagnostics


# a corpus with exact positions
DIAGNOSTIC_CORPUS = [
    ("lattice = quad\nn = 1\n",
     1, 1, "lattice must be 'qquadratic' or 'quadratic', not 'quad'"),
    ("lattice = qquadratic\np = 1\nc1 = 1\nc2 = 1\nc3 = 0\n"
     "sigma = 0, 0, 1\ntau = 1, 2\nn = 1\nwindow = 0..8\n",
     2, 1, "p must not be 0, 1, or -1"),
    (MINIMAL_QUADRATIC.replace("n = 2", "n = -1"),
     8, 1, "n must be a nonnegative integer"),
    (MINIMAL_QUADRATIC + "foo = 3\n", 10, 1, "unknown key 'foo'"),
    (MINIMAL_QUADRATIC + "n = 3\n", 10, 1, "duplicate key 'n'"),
    (MINIMAL_QUADRATIC.replace("ct1 = 1", "ct1 = 1//2"),
     3, 9, "bad rational '1//2'"),
    (MINIMAL_QUADRATIC.replace("window = -4..8", "window = 5..3"),
     9, 10, "window end precedes its start"),
    (MINIMAL_QUADRATIC.replace("sigma = 0, 0, 1", "sigma = 0, 1"),
     6, 1, "sigma needs exactly 3 coefficients"),
    (MINIMAL_QUADRATIC.replace("lattice = quadratic", "lattice quadratic"),
     2, 1, "expected 'key = value'"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment",
                               "tau = 1; 2"),
     7, 8, "unexpected character ';'"),
    # there is no arithmetic mode to select: all arithmetic is exact
    (MINIMAL_QUADRATIC + "backend = approx\n", 10, 1, "unknown key 'backend'"),
    # a literal longer than the interpreter's int/str digit limit
    (MINIMAL_QUADRATIC.replace("ct3 = 0", "ct3 = " + "1" * 5001),
     5, 7, "bad rational '111111111111111111111111...' (5001 characters)"),
    (MINIMAL_QUADRATIC.replace("n = 2", "n ="), 8, 1, "missing value for 'n'"),
    (MINIMAL_QUADRATIC.replace("n = 2", "n = 2 3"),
     8, 7, "unexpected trailing tokens after 'n'"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau = 1, .."),
     7, 10, "expected a rational in 'tau' list"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau = 1 2"),
     7, 9, "expected ',' in 'tau' list"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau = 1, 2,"),
     7, 11, "trailing ',' in 'tau' list"),
    (MINIMAL_QUADRATIC.replace("window = -4..8", "window = -4"),
     9, 10, "window must be 'start..end'"),
    # the lattice classes need no flag, and an old spec's flag is not read
    (MINIMAL_QUADRATIC + "allow_degenerate = true\n",
     10, 1, "unknown key 'allow_degenerate'"),
    # a constant x(s) is the one lattice rejected, at the lattice line
    (MINIMAL_QUADRATIC.replace("ct1 = 1", "ct1 = 0").replace("ct2 = 1", "ct2 = 0"),
     2, 1, "quadratic lattice needs ct1 or ct2 nonzero (x(s) is constant)"),
    (MINIMAL_QUADRATIC.replace("n = 2", "n = 17"), 8, 1, "n must not exceed 16"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau = 1, 2, 3"),
     7, 1, "tau needs exactly 2 coefficients"),
    (MINIMAL_QUADRATIC.replace("ct3 = 0", "ct3 = 1/0"), 5, 7, "zero denominator in '1/0'"),
    (MINIMAL_QUADRATIC + "sum_base = 1/3\n", 10, 12, "'sum_base' must be a half-integer"),
    (MINIMAL_QUADRATIC.replace("n = 2", "n = two"), 8, 5, "bad value for 'n'"),
    (MINIMAL_QUADRATIC.replace("window = -4..8", "window = 1.5..8"), 9, 11, "expected '..'"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau ="),
     7, 1, "missing value for 'tau'"),
    (MINIMAL_QUADRATIC.replace("tau = 1, 2          # trailing comment", "tau = 1/0, 2"),
     7, 7, "zero denominator in '1/0'"),
    (MINIMAL_QUADRATIC.replace("window = -4..8", "window = 1/3..8"),
     9, 10, "window endpoints must be half-integers"),
    (MINIMAL_QUADRATIC + "sum_base = 1//2\n", 10, 14, "bad rational '1//2'"),
    (MINIMAL_QUADRATIC + "sum_base =\n", 10, 1, "missing value for 'sum_base'"),
]


def _corpus_id(value):
    # keep the test id of the long-literal case readable
    if isinstance(value, str) and len(value) > 1000:
        return f"{len(value)}-character-input"
    return None


@pytest.mark.parametrize("text, line, column, message", DIAGNOSTIC_CORPUS, ids=_corpus_id)
def test_diagnostic_positions(text, line, column, message):
    diagnostics = _diagnostics(text)
    assert any(d.line == line and d.column == column and d.message == message
               for d in diagnostics), [str(d) for d in diagnostics]


@pytest.mark.parametrize("p", ["0", "1", "-1"])
def test_bad_p_is_reported_once(p):
    text = (f"lattice = qquadratic\np = {p}\nc1 = 1\nc2 = 1\nc3 = 0\n"
            "sigma = 0, 0, 1\ntau = 1, 2\nn = 1\nwindow = 0..8\n")
    assert [str(d) for d in _diagnostics(text)] == ["2:1: error: p must not be 0, 1, or -1"]


def test_missing_keys_reported_at_once():
    diagnostics = _diagnostics("lattice = quadratic\n")
    joined = "; ".join(d.message for d in diagnostics)
    for key in ("sigma", "tau", "n", "window", "ct1", "ct2", "ct3"):
        assert key in joined
    assert len([d for d in diagnostics if "missing required" in d.message]) == 1


def test_family_key_mismatch():
    text = MINIMAL_QUADRATIC + "p = 2\n"
    diagnostics = _diagnostics(text)
    assert any("not valid for a quadratic lattice" in d.message for d in diagnostics)


def test_window_too_short_for_n():
    text = MINIMAL_QUADRATIC.replace("window = -4..8", "window = 0..5")
    diagnostics = _diagnostics(text)
    assert any("n + 5" in d.message for d in diagnostics)


def test_p_length_checked_against_n():
    text = MINIMAL_QUADRATIC + "P = 1, 2\n"
    diagnostics = _diagnostics(text)
    assert any("P needs exactly n + 1 = 3" in d.message for d in diagnostics)


def test_special_lattice_parses_without_a_flag():
    text = MINIMAL_QUADRATIC.replace("ct2 = 1", "ct2 = 0")
    assert parse_problem(text).lattice == QuadraticLattice(F(1), F(0), F(0))


def test_sum_base_parity_checked():
    text = MINIMAL_QUADRATIC + "sum_base = 1/2\n"
    diagnostics = _diagnostics(text)
    assert any("step together" in d.message for d in diagnostics)


def test_error_raised_with_diagnostics():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem("nonsense\n")
    assert err.value.diagnostics


def test_crlf_accepted():
    spec = parse_problem(MINIMAL_QUADRATIC.replace("\n", "\r\n"))
    assert spec.n == 2


def test_invalid_utf8_is_diagnosed():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem_bytes(b"lattice = quadratic\xff\xfe\n")
    assert "UTF-8" in err.value.diagnostics[0].message


# ---------------------------------------------------------------------------
# generated round-trip property


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
    return "\n".join(out) + "\n"


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = small_rationals.filter(lambda v: v != 0)


@st.composite
def problem_specs(draw):
    # (c1, c2) or (ct1, ct2): both nonzero, or one of them 0 for the special
    # classes (q-linear, linear, ct2 = 0); never both, a constant x(s)
    zeroed = draw(st.sampled_from([None, None, 0, 1]))
    pair = tuple(F(0) if zeroed == i else draw(nonzero_rationals) for i in (0, 1))
    if draw(st.booleans()):
        p = draw(small_rationals.filter(lambda v: v not in (0, 1, -1)))
        lattice = QQuadraticLattice(p, *pair, draw(small_rationals))
    else:
        lattice = QuadraticLattice(*pair, draw(small_rationals))
    n = draw(st.integers(min_value=0, max_value=6))
    start = HalfInt(draw(st.integers(min_value=-16, max_value=16)))
    window = Window(start, draw(st.integers(min_value=n + 5, max_value=n + 14)))
    sum_base = None
    if draw(st.booleans()):
        sum_base = start + draw(st.integers(min_value=-3, max_value=3))
    poly = None
    if draw(st.booleans()):
        poly = tuple(draw(small_rationals) for _ in range(n + 1))
    return ProblemSpec(
        lattice=lattice,
        sigma_t=tuple(draw(small_rationals) for _ in range(3)),
        tau_t=tuple(draw(small_rationals) for _ in range(2)),
        n=n,
        window=window,
        lam=draw(st.one_of(st.none(), small_rationals)),
        sum_base=sum_base,
        poly_p=poly,
    )


@settings(max_examples=120)
@given(problem_specs())
def test_render_parse_round_trip(spec):
    assert parse_problem(render_problem(spec)) == spec


def test_render_parse_round_trip_special_lattice():
    spec = ProblemSpec(
        lattice=QuadraticLattice(F(1), F(0), F(0)),
        sigma_t=(F(0), F(0), F(1)), tau_t=(F(1), F(2)), n=2,
        window=Window(HalfInt.from_int(-4), 13))
    assert "ct2 = 0" in render_problem(spec)
    assert parse_problem(render_problem(spec)) == spec


def test_render_omits_absent_optionals():
    spec = parse_problem(MINIMAL_QUADRATIC)
    text = render_problem(spec)
    for absent in ("lambda", "sum_base", "P"):
        assert absent + " =" not in text


@settings(max_examples=300)
@given(st.text(max_size=200))
def test_parser_total_on_text(text):
    parse_problem_with_diagnostics(text)    # must not raise


@settings(max_examples=300)
@given(st.binary(max_size=200))
def test_parser_total_on_bytes(data):
    try:
        parse_problem_bytes(data)
    except ProblemFormatError:
        pass
