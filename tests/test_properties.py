"""Property tests over random lattices of both families, their special classes
(q-linear, linear and ct2 = 0) included, random coefficients, n <= 4 and
short windows.

Each property must hold wherever the library raises no HyperlatError (a
zero lattice step, a Pearson singularity or a vanishing summand ends the
example instead):

* the adjoint map is an involution: ``adjoint(adjoint(eq))`` is the
  equation and reads (sigma(s), tau(s)) on its tables;
* L*[rho y] = rho L[y] for the Pearson weight rho;
* the second-kind and generalized solutions of ``solve()`` equal, bit for
  bit, a reference built here from the definition over the whole window,
  with the integrand denominator rho(t) prod_{j=0..n} sigma(t-j) multiplied
  out by its own loop, for a sum base N anywhere in the weight window.
  Explicit examples reach each route of ``solve()``: the Casoratian
  recurrence with K = 0, the whole window when y_1 vanishes where the
  recurrence divides, when the formula there divides by a zero step, and
  when the head covers it;
* the polynomial kind of ``solve()`` equals the Rodrigues formula with the
  n-fold difference taken over the whole window, and fails where that
  formula's residual fails; where the formula itself meets a zero step,
  ``solve()`` certifies a solution or meets a zero step of its own.  Besides
  ``problems``, lattices symmetric about a known centre are drawn with
  windows on either side of it, across it, and shorter than n + 1 distinct
  x values;
* ``apply_L`` and ``apply_L_star``, which evaluate the three-term form
  A y(s+1) + B y(s) + C y(s-1) over one common denominator per point,
  equal the two-pass operator sig delta_{-1}(nabla_0 y) + tau delta_0 y +
  lambda y built here from ``nabla_k`` and ``delta_k``, in values and in
  the class and text of any exception, for integer and rational y of mixed
  sizes, also on windows that hold a mirror pair;
* on a window whose enlargement holds a mirror pair x(s1) = x(s2), L
  meets a zero step at the centre, so ``apply_L`` and every kind of
  ``solve()`` end in ``DegenerateStep`` (the integral kinds may first meet
  a vanishing summand, and any kind a singular weight);
* ``solve()`` on a window minus its first point equals ``solve()`` on the
  whole window, restricted: exactly for the polynomial kind, and times
  rho(start + 1) for the integral kinds, which are linear in 1/rho.

Over whole problem specs, drawn like ``_random_spec`` in
``test_acceptance``, every CLI command ends in an exit code 0-3 with no
exception escaping ``cli.main``; every check ``verify`` fails is one it
could not evaluate at a singular point or outside the window, or, when some
order m <= n is inadmissible, one with no unique polynomial or no second
independent solution, the latter naming the m of ``admissibility_violation``;
and wherever the polynomial and second
kinds both certify, the Casoratian constant K is one value on the window,
prod_{m<n} (lambda_n - lambda_m), so zero exactly when n is inadmissible;
and every ``DegenerateStep``, ``PearsonSingularity`` or ``SingularSummand``
that ``solve()`` raises, for any kind, carries its ``HalfInt`` point and
ends its message with it.
"""

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from hyperlat import (
    DegenerateStep,
    GridFunction,
    HalfInt,
    HyperEquation,
    HyperlatError,
    PearsonSingularity,
    ProblemSpec,
    QQuadraticLattice,
    QuadraticLattice,
    SingularSummand,
    Window,
    Y_n,
    admissibility_violation,
    apply_L,
    apply_L_star,
    casoratian,
    delta_k,
    iterated_delta,
    lambda_n,
    lambda_star,
    nabla_k,
    pearson_weight,
    run_identity_suite,
    sigma_of_s,
    sigma_star,
    solve,
    tau_of_s,
    tau_star,
    weight_window_for,
)
from hyperlat import cli
from hyperlat.equation import adjoint
from tests.conftest import qq_b, quad_a
from tests.test_problem import render_problem

# A failing example is reported as drawn: shrinking one took minutes, since
# every step reruns exact arithmetic on large rationals.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


def coefficient_pairs(a, b, zeroed=st.sampled_from([None, None, 0, 1])):
    """(u, v) drawn from a and b, with u set to 0 when ``zeroed`` draws 0 and
    v when it draws 1.  As (c1, c2) or (ct1, ct2) that gives the general
    lattice and the special classes (q-linear, linear, ct2 = 0), and never a
    constant x(s) when a and b draw no zero."""
    return st.builds(lambda u, v, z: (F(0) if z == 0 else u, F(0) if z == 1 else v),
                     a, b, zeroed)


qquadratic = st.builds(
    lambda p, c, c3: QQuadraticLattice(p, *c, c3),
    st.sampled_from([F(2), F(3, 2), F(-2), F(1, 3), F(5, 2)]),
    coefficient_pairs(nonzero, nonzero), small)
quadratic = st.builds(lambda ct, ct3: QuadraticLattice(*ct, ct3),
                      coefficient_pairs(nonzero, nonzero), small)

equations = st.builds(
    HyperEquation, st.one_of(qquadratic, quadratic),
    st.tuples(small, small, small), st.tuples(small, small), small)


@st.composite
def windows(draw, n: int, extra: int = 6) -> Window:
    start = HalfInt(draw(st.integers(-8, 16)))
    return Window(start, draw(st.integers(n + 3, n + extra)))


@st.composite
def problems(draw):
    n = draw(st.integers(0, 4))
    return draw(equations), n, draw(windows(n))


@st.composite
def centred_problems(draw):
    """A lattice symmetric about a known centre c, x(c + t) = x(c - t), with
    c on the half-integer grid, and a window from wholly left of c to wholly
    right of it, at times shorter than n + 1 distinct x values."""
    if draw(st.booleans()):
        # c2 / c1 = q^(2c) = p^(4c)
        p = draw(st.sampled_from([F(2), F(3, 2), F(-2), F(1, 3), F(5, 2)]))
        c1, twice_centre = draw(nonzero), draw(st.integers(-4, 4))
        lattice = QQuadraticLattice(p, c1, c1 * p ** (2 * twice_centre), draw(small))
    else:
        # ct2 / ct1 = -2c
        ct1, twice_centre = draw(nonzero), draw(st.integers(-8, 8).filter(bool))
        lattice = QuadraticLattice(ct1, -ct1 * twice_centre, draw(small))
    eq = HyperEquation(lattice, draw(st.tuples(small, small, small)),
                       draw(st.tuples(small, small)), draw(small))
    n = draw(st.integers(0, 6))
    length = draw(st.integers(1, 8))
    start = HalfInt(twice_centre + draw(st.integers(-2 * length - 6, 4)))
    return eq, n, Window(start, length)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(equations, windows(0))
def test_the_adjoint_of_the_adjoint_is_the_equation(eq, window):
    back = adjoint(adjoint(eq))
    assert back == eq
    for s in window.points():
        assert back.sigma_at(s.twice) == sigma_of_s(eq, s)
        assert back.tau_at(s.twice) == tau_of_s(eq, s)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(equations, windows(0), st.data())
def test_adjoint_intertwines_with_the_weight(eq, window, data):
    y = GridFunction(window.start, tuple(
        data.draw(small) for _ in range(window.length)))
    try:
        rho = pearson_weight(eq, window, window.start).rho
        lhs = apply_L_star(eq, rho * y)
        residual = apply_L(eq, y)
        rhs = rho.restrict(residual.window) * residual
    except HyperlatError:
        assume(False)
    assert lhs == rhs


def two_pass(eq, y, sig, tau, lam):
    """sig delta_{-1}(nabla_0 y) + tau delta_0 y + lam y from two passes of
    divided differences, with delta_0 y(s) = nabla_0 y(s+1)."""
    grad = nabla_k(eq.lattice, 0, y)
    second = delta_k(eq.lattice, -1, grad)
    return GridFunction(second.start, tuple(
        sig(eq, s) * d2 + tau(eq, s) * d1 + lam * v
        for s, d2, d1, v in zip(second.points(), second.values,
                                grad.values[1:], y.values[1:])))


def two_pass_star(eq, w):
    return two_pass(eq, w, sigma_star, tau_star, lambda_star(eq))


def outcome(fn, *args):
    """repr of the result, so the value types count too, or the exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


grid_values = st.one_of(
    st.integers(-50, 50), small,
    st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


# x = ct1 s^2 + ct3 or ct2 s + ct3: symmetric about s = 0, so a window may
# hold zero steps of nabla x_0 (at s = 1/2) and delta x_{-1} (at s = 0), or
# uniform
special_quadratic = st.builds(lambda ct, ct3: QuadraticLattice(*ct, ct3),
                              coefficient_pairs(nonzero, nonzero, st.sampled_from([0, 1])),
                              small)


@st.composite
def three_term_problems(draw):
    """An equation, a window of at least three points and y on it.  The
    window is drawn like ``problems``, or around the centre of a symmetric
    lattice, where it may hold a mirror pair, or on a special quadratic lattice."""
    branch = draw(st.integers(0, 2))
    if branch == 0:
        eq, window = draw(equations), draw(windows(0))
    elif branch == 1:
        eq, _, window = draw(centred_problems())
        window = window.expand(1, 1)
    else:
        eq = HyperEquation(draw(special_quadratic), draw(st.tuples(small, small, small)),
                           draw(st.tuples(small, small)), draw(small))
        window = draw(windows(0))
    values = draw(st.lists(grid_values, min_size=window.length, max_size=window.length))
    return eq, GridFunction(window.start, tuple(values))


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(three_term_problems())
def test_the_three_term_kernel_equals_the_two_pass_operator(problem):
    eq, y = problem
    assert outcome(apply_L, eq, y) == outcome(two_pass, eq, y, sigma_of_s, tau_of_s, eq.lam)
    assert outcome(apply_L_star, eq, y) == outcome(two_pass_star, eq, y)


def reference_solution(eq, n, window, N, numerator):
    """(1/rho) delta_{-n}^{(n)}[ Y_n(s) sum_{t=N..s} numerator(t) / den(t)
    nabla x_{-n}(t) ] over the whole y window, with
    den(t) = rho(t) prod_{j=0..n} sigma(t-j); x_k is the family formula.
    The sum from N is the running sum from the first point minus its value
    at N - 1, which is 0 when N is the first point."""
    lat = eq.lattice
    rho = pearson_weight(eq, weight_window_for(n, window), window.start)
    points = list(window.expand(1, 1 + n).points())

    def sigma_product(t, count):
        value = rho.value_at(t)
        for j in range(count):
            value *= sigma_of_s(eq, t - j)
        return value

    acc, sums = F(0), [F(0)]
    for t in points:
        acc += numerator(t) / sigma_product(t, n + 1) * (lat.x_k(-n, t) - lat.x_k(-n, t - 1))
        sums.append(acc)
    offset = sums[points.index(N)]
    values = [sigma_product(t, n) * (c - offset) for t, c in zip(points, sums[1:])]
    for level in range(-n, 0):
        values = [(b - a) / (lat.x_k(level, t + 1) - lat.x_k(level, t))
                  for t, a, b in zip(points, values, values[1:])]
    return tuple(v / rho.value_at(t) for t, v in zip(points[1:-1], values[1:-1]))


@st.composite
def integral_problems(draw):
    """A problem with a sum base N anywhere in the weight window, so the
    Rodrigues head of the integral kinds may reach past its first n + 2
    points, and a numerator P."""
    eq, n, window = draw(problems())
    y_window = weight_window_for(n, window)
    N = y_window.start + draw(st.integers(0, y_window.length - 1))
    return eq, n, window, N, tuple(draw(small) for _ in range(n + 1))


def _quadratic(ct1, ct2, ct3, sigma_t, tau_t):
    return HyperEquation(QuadraticLattice(F(ct1), F(ct2), F(ct3)),
                         tuple(map(F, sigma_t)), tuple(map(F, tau_t)))


# y_1 = tau~(x(s)) = 42 - s(s+1) vanishes at s = 6, inside the window, so
# the recurrence would divide by zero and the formula runs on the whole window
@example((_quadratic(1, 1, 0, (0, 1, 0), (42, -1)), 1, Window(HalfInt.from_int(4), 6),
          HalfInt.from_int(3), (F(1), F(2))))
# lambda_2 = lambda_0: the second kind is a multiple of y_1, and K = 0
@example((_quadratic(1, 1, 0, (0, 1, 1), (1, -1)), 2, Window(HalfInt.from_int(4), 6),
          HalfInt.from_int(5), (F(1), F(-1), F(1, 2))))
# x = -s^2/3 + 4s - 4/3 is symmetric about s = 6, so the whole-window formula
# divides by the zero step of x_-3 at s = 7 and solve() must raise with it;
# the recurrence, which never reads that step, would return values the
# definition does not have
@example((HyperEquation(QuadraticLattice(F(-1, 3), F(4), F(-4, 3)), (F(2), F(-2), F(7, 2)),
                        (F(-3), F(-1)), F(4)),
          3, Window(HalfInt.from_int(0), 6), HalfInt.from_int(6),
          (F(-8, 3), F(7, 3), F(0), F(1))))
# N is the last point of the weight window: the head covers the window
@example((quad_a(), 2, Window(HalfInt.from_int(4), 5), HalfInt.from_int(11),
          (F(0), F(1), F(1))))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(integral_problems())
def test_integral_kinds_match_the_definition(problem):
    eq, n, window, N, P = problem
    lat = eq.lattice

    def poly_numerator(t):
        x = lat.x_k(-(n + 1), t)
        return sum(c * x ** j for j, c in enumerate(P))

    for kind, numerator in (("second", lambda t: F(1)), ("generalized", poly_numerator)):
        try:
            report = solve(eq, n, window, kind, N=N, P=P)
        except HyperlatError:
            continue
        assert report.solution.values == reference_solution(eq, n, window, N, numerator)


def full_window_rodrigues(eq, n, window):
    """(1/rho) delta_{-n}^{(n)} [Y_n] at every point of window.expand(1, 1),
    with the n-fold difference taken over the whole window."""
    weight = pearson_weight(eq, weight_window_for(n, window), window.start)
    enlarged = window.expand(1, 1)
    product = Y_n(eq, weight, n, enlarged.expand(0, n))
    return iterated_delta(eq.lattice, -n, n, product) / weight.rho.restrict(enlarged)


def test_polynomial_kind_equals_the_full_window_formula_at_the_bench_size():
    # qq-b, n = 8, 44 points, as on the benchmark: rho on the weight window
    # reaches about 50k bits and the solution about 5k, so the integer
    # Horner extension runs on 37 points of large values
    eq, n, window = qq_b(), 8, Window(HalfInt.from_int(12), 44)
    report = solve(eq, n, window)
    y = full_window_rodrigues(eq, n, window)
    assert max(v.numerator.bit_length() + v.denominator.bit_length()
               for v in report.solution.values) > 5000
    assert report.solution == y.restrict(window)
    assert report.residual == apply_L(eq.with_lambda(lambda_n(eq, n)), y)
    assert report.residual.is_zero()


def same_error(got, expected: Exception) -> bool:
    return type(got) is type(expected) and str(got) == str(expected)


# quad-a is symmetric about s = -1/2
@example((quad_a(), 1, Window(HalfInt.from_int(0), 5)))     # x(-1) = x(0) in the window
@example((quad_a(), 4, Window(HalfInt.from_int(4), 2)))     # 4 distinct x for n = 4
@example((quad_a(), 0, Window(HalfInt.from_int(4), 5)))
@example((quad_a(), 2, Window(HalfInt.from_int(-10), 9)))   # left of the centre
@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(st.one_of(problems(), centred_problems()))
def test_polynomial_kind_equals_the_full_window_rodrigues_formula(problem):
    eq, n, window = problem
    try:
        report = solve(eq, n, window)
    except HyperlatError as exc:
        report = exc
    try:
        y = full_window_rodrigues(eq, n, window)
    except DegenerateStep:
        # a zero step the (n + 1)-point stencil may not meet
        assert isinstance(report, DegenerateStep) or report.residual.is_zero()
        return
    except HyperlatError as exc:
        assert same_error(report, exc)
        return
    try:
        residual = apply_L(eq.with_lambda(lambda_n(eq, n)), y)
    except HyperlatError as exc:
        assert same_error(report, exc)
        return
    assert residual.is_zero()
    assert report.solution == y.restrict(window) and report.residual == residual


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(centred_problems(), st.data())
def test_a_mirror_pair_in_the_enlarged_window_is_a_degenerate_step(problem, data):
    # x(c + t) = x(c - t) puts a zero step of nabla_0 or delta_{-1} at c, so
    # no kind can be certified on such a window
    eq, n, window = problem
    enlarged = window.expand(1, 1)
    xs = [eq.lattice.x(s) for s in enlarged.points()]
    assume(len(set(xs)) < len(xs))
    with pytest.raises(DegenerateStep):
        apply_L(eq, GridFunction(enlarged.start, tuple(data.draw(small) for _ in xs)))
    try:
        pearson_weight(eq, weight_window_for(n, window), window.start)
    except PearsonSingularity:
        assume(False)   # solve() stops at the weight, before any difference
    P = tuple(data.draw(small) for _ in range(n + 1))
    with pytest.raises(DegenerateStep):
        solve(eq, n, window, "polynomial")
    for kind in ("second", "generalized"):
        # a vanishing summand also ends the integral kinds before any difference
        with pytest.raises((DegenerateStep, SingularSummand)):
            solve(eq, n, window, kind, P=P)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(problems(), st.data())
def test_solve_on_a_shorter_window_moves_only_the_weight_scale(problem, data):
    # the shorter window normalizes rho at start + 1, not at start
    eq, n, window = problem
    P = tuple(data.draw(small) for _ in range(n + 1))
    N = window.start + 1
    shorter = Window(N, window.length - 1)
    for kind in ("polynomial", "second", "generalized"):
        try:
            whole = solve(eq, n, window, kind, N=N, P=P).solution
        except HyperlatError:
            continue
        scale = 1
        if kind != "polynomial":
            scale = pearson_weight(eq, Window(window.start, 2), window.start).value_at(N)
        assert solve(eq, n, shorter, kind, N=N, P=P).solution == scale * whole.restrict(shorter)


spec_rational = st.builds(F, st.integers(-12, 12), st.integers(1, 8))
spec_lattices = st.one_of(
    st.builds(lambda p, c, c3: QQuadraticLattice(p, *c, c3),
              st.builds(F, st.sampled_from([2, 3, 5, -2, 7]), st.sampled_from([1, 2, 3]))
              .filter(lambda p: p not in (0, 1, -1)),
              coefficient_pairs(st.sampled_from([F(1), F(2), F(-1)]),
                                st.sampled_from([F(1), F(3), F(-2)])),
              st.builds(F, st.integers(-3, 3))),
    st.builds(lambda ct, ct3: QuadraticLattice(*ct, ct3),
              coefficient_pairs(st.sampled_from([F(1), F(2), F(-1)]),
                                st.sampled_from([F(1), F(2), F(-3)])),
              st.builds(F, st.integers(-3, 3))))


@st.composite
def specs(draw) -> ProblemSpec:
    n = draw(st.integers(0, 6))
    start = HalfInt(draw(st.integers(-12, 12)))
    return ProblemSpec(
        lattice=draw(spec_lattices),
        sigma_t=draw(st.tuples(spec_rational, spec_rational, spec_rational)),
        tau_t=draw(st.tuples(spec_rational, spec_rational)),
        n=n,
        window=Window(start, draw(st.integers(n + 5, n + 12))),
        lam=draw(st.none() | spec_rational),
        sum_base=draw(st.none() | st.builds(lambda j: start + j, st.integers(-2, 4))),
        poly_p=draw(st.none() | st.tuples(*[spec_rational] * (n + 1))),
    )


COMMANDS = (["verify"], ["solve"], ["solve", "--kind", "second"],
            ["solve", "--kind", "generalized"], ["adjoint"], ["table"])


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(specs())
def test_every_command_ends_in_an_exit_code(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.spec")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_problem(spec))
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command[0], "--spec", path, *command[1:]])
            assert code in (0, 1, 2, 3), (command, render_problem(spec))


# a check may fail only where it cannot be evaluated (a singular point, or a
# point outside the window the spec allows) ...
UNEVALUATED = ("DegenerateStep", "PearsonSingularity", "SingularSummand", "OutOfWindow",
               "DegenerateAbscissae")
# ... or, when some order m <= n is inadmissible, because that order has no
# unique polynomial or no second independent solution
INADMISSIBLE = ("OracleDimensionError", "Casoratian vanishes (not independent)")


# lambda_1 = lambda_5, so the Casoratian vanishes and names m = 1
@example(ProblemSpec(QuadraticLattice(F(-1), F(1), F(1)), (F(9, 8), F(-8), F(-1, 7)),
                     (F(11, 2), F(5, 7)), 5, Window(HalfInt(9), 10)))
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(specs())
def test_verify_never_reports_a_false_identity(spec):
    eq = spec.equation()
    inadmissible = any(admissibility_violation(eq, m) is not None for m in range(spec.n + 1))
    allowed = UNEVALUATED + (INADMISSIBLE if inadmissible else ())
    for result in run_identity_suite(spec):
        assert result.passed or result.detail.startswith(allowed), (
            result, render_problem(spec))
        if result.detail.startswith("Casoratian vanishes"):
            # the order named is the one admissibility_violation finds
            assert result.detail.endswith(
                f": lambda_{admissibility_violation(eq, spec.n)} = lambda_n"), result


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(specs())
def test_the_casoratian_is_one_constant_nonzero_exactly_when_n_is_admissible(spec):
    # wherever the polynomial and second kinds both certify, K(s) takes one
    # value on the window, prod_{m<n} (lambda_n - lambda_m), so it vanishes
    # exactly when lambda_m = lambda_n for some m < n (the second kind is
    # then a multiple of y_1)
    eq, n, window = spec.equation(), spec.n, spec.window
    try:
        y1 = solve(eq, n, window)
        y = solve(eq, n, window, "second", N=spec.sum_base)
    except HyperlatError:
        assume(False)
    assume(y1.is_exact_solution() and y.is_exact_solution())
    weight = pearson_weight(eq, window, window.start)
    ks = {casoratian(eq, weight, y1.solution, y.solution, s)
          for s in list(window.points())[:-1]}
    assert len(ks) == 1
    k = ks.pop()
    assert (k != 0) == (admissibility_violation(eq, n) is None)
    lam = lambda_n(eq, n)
    assert k == math.prod(lam - lambda_n(eq, m) for m in range(n)), render_problem(spec)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(specs())
def test_a_singular_outcome_names_its_point(spec):
    eq = spec.equation()
    P = spec.poly_p or tuple(range(1, spec.n + 2))
    for kind in ("polynomial", "second", "generalized"):
        try:
            solve(eq, spec.n, spec.window, kind, N=spec.sum_base, P=P)
        except (DegenerateStep, PearsonSingularity, SingularSummand) as exc:
            assert isinstance(exc.point, HalfInt), (kind, render_problem(spec))
            assert str(exc).endswith(f"={exc.point}"), (kind, render_problem(spec))
        except HyperlatError:
            pass


def test_sum_base_shift_holds_where_the_polynomial_kind_vanishes():
    """At an inadmissible n the polynomial kind can vanish on the whole
    window (here tau~ = 0 and sigma~ is linear, so every lambda_m is 0), and
    moving the sum base then leaves the second kind unchanged: 0 = c y_n
    holds, and ``verify`` reports it as passed."""
    spec = ProblemSpec(QQuadraticLattice(F(5), F(-1), F(0), F(1)), (F(-6), F(10), F(0)),
                       (F(0), F(0)), 1, Window(HalfInt(-7), 7), lam=F(10))
    results = {r.name: r for r in run_identity_suite(spec)}
    assert results["sum-base-shift"].passed, results["sum-base-shift"]
