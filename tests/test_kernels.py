"""The integer kernels against the ``Fraction`` arithmetic they replace.

The n-fold differences (``grid``) and their division by rho, the
interpolation (``IntegerForm.through``), the algebra of integer forms, the
three-term residual (``apply_L``, ``apply_L_star``), the weight rho, the
weight product ``Y_n``, the integrand and the Casoratian recurrence of the
integral kinds, and the eigenvalue scan of ``admissibility_violation`` run
on integer numerators and denominators, and the discrete integral and the
adjoint map read steps and coefficients by the integer 2s.  Each property
compares one of them with a reference written here in plain ``Fraction``
arithmetic on half-integer points, with its own zero-step guard on steps
taken from the family formula ``x_k``, and sigma, tau and sigma* written
from sigma~ and tau~: values must be equal, and so must the class, text and
point of any exception.  Lattices come from both families and all four
classes (general, q-linear, ct2 = 0 and linear), with p of either sign, and
half of them are symmetric about a centre that the window often straddles,
so a zero step falls inside it.
"""

from fractions import Fraction as F
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlat import (
    AdjointCoefficients,
    DegenerateStep,
    PearsonWeight,
    SingularSummand,
    Y_n,
    admissibility_violation,
    pearson_weight,
    weight_window_for,
    GridFunction,
    HalfInt,
    HyperEquation,
    HyperlatError,
    NonConstantLambdaStar,
    OutOfWindow,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    WindowTooSmall,
    adjoint_coeffs,
    apply_L,
    apply_L_star,
    cumulative_nabla_sum,
    delta_k,
    dual_coefficients,
    format_rational,
    iterated_delta,
    iterated_nabla,
    lambda_n,
    lambda_star,
    nabla_k,
    sigma_of_s,
    sigma_star,
    solve,
    tau_of_s,
    tau_star,
)
from hyperlat.equation import lambda_star_at, pearson_steps, weight_from_steps
from hyperlat.grid import _passes
from hyperlat.numerics import IntegerForm
from hyperlat.solutions import sum_base_for

P_VALUES = [F(2), F(-2), F(3, 2), F(-3, 2), F(1, 3), F(-1, 3), F(-5, 4)]
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
big = st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 25))


@st.composite
def lattices_and_starts(draw):
    """A lattice and a window start at most 6 points left or 2 points right
    of a centre c (2c in -6..6); half of the lattices are symmetric about c,
    so their windows often straddle it."""
    twice_centre = draw(st.integers(-6, 6))
    symmetric = draw(st.booleans())
    if draw(st.booleans()):
        p = draw(st.sampled_from(P_VALUES))
        if symmetric:   # c2 / c1 = q^(2c) = p^(4c)
            c1 = draw(nonzero)
            lattice = QQuadraticLattice(p, c1, c1 * p ** (2 * twice_centre), draw(small))
        else:
            lattice = QQuadraticLattice(p, *draw(coefficient_pairs()), draw(small))
    elif symmetric:     # ct2 / ct1 = -2c
        ct1 = draw(nonzero)
        lattice = QuadraticLattice(ct1, -ct1 * twice_centre, draw(small))
    else:
        lattice = QuadraticLattice(*draw(coefficient_pairs()), draw(small))
    return lattice, HalfInt(twice_centre + draw(st.integers(-12, 4)))


@st.composite
def coefficient_pairs(draw):
    """Both nonzero, or one of them 0: (c1, c2) of a general or q-linear
    lattice, (ct1, ct2) of a general, linear or ct2 = 0 one."""
    u, v = draw(nonzero), draw(nonzero)
    zeroed = draw(st.sampled_from([None, None, 0, 1]))
    return F(0) if zeroed == 0 else u, F(0) if zeroed == 1 else v


@st.composite
def grid_values(draw, length):
    """Integers, small and large rationals, and rationals sharing a large
    denominator factor, as consecutive weight values do."""
    shared = draw(st.integers(1, 10 ** 12))
    value = st.one_of(st.integers(-5, 5), small, big,
                      st.builds(lambda a, b: F(a, b * shared),
                                st.integers(-10 ** 20, 10 ** 20), st.integers(1, 50)))
    return tuple(draw(value) for _ in range(length))


def outcome(fn, *args):
    try:
        result = fn(*args)
    except HyperlatError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "point", None)
    if isinstance(result, GridFunction):
        assert all(type(v) in (F, int) for v in result.values)
        return result.start, result.values
    return result


# ---------------------------------------------------------------------------
# references: the Fraction arithmetic the kernels replace


def ref_step(lat, k, s, forward):
    """delta x_k(s) (forward) or nabla x_k(s) from the family formula; a
    zero step raises DegenerateStep naming k and s."""
    step = (lat.x_k(k, s + 1) - lat.x_k(k, s)) if forward else (lat.x_k(k, s) - lat.x_k(k, s - 1))
    if step == 0:
        raise DegenerateStep(f"zero step of x_{k} at s={s}", point=s)
    return step


def ref_passes(lat, levels, f, forward, short):
    """One Fraction pass of divided differences per level, innermost first."""
    if len(f) < len(levels) + 1:
        raise WindowTooSmall(short)
    for k in levels:
        start, v = (f.start if forward else f.start + 1), f.values
        f = GridFunction(start, tuple((v[j + 1] - v[j]) / ref_step(lat, k, start + j, forward)
                                      for j in range(len(v) - 1)))
    return f


def ref_through(vs, ys):
    """Newton divided differences in Fraction, expanded by nested
    multiplication and cleared to integers over their lcm."""
    c = list(ys)
    for j in range(1, len(vs)):
        for i in range(len(vs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (vs[i] - vs[i - j])
    coeffs = [F(c[-1])]
    for vi, ci in zip(reversed(vs[:-1]), reversed(c[:-1])):
        coeffs = [ci - vi * coeffs[0],
                  *(a - vi * b for a, b in zip(coeffs, coeffs[1:])), coeffs[-1]]
    den = lcm(*(x.denominator for x in coeffs))
    return tuple(x.numerator * (den // x.denominator) for x in coeffs), den


def ref_three_term(lat, y, sig, tau, lam, short):
    """sig delta_{-1} nabla_0 y + tau delta_0 y + lam y as A y(s+1) + B y(s)
    + C y(s-1) in Fraction, with the steps read in the order the two passes
    read them: each nabla x_0, then each delta x_{-1}."""
    if len(y) < 3:
        raise WindowTooSmall(short)
    start, v = y.start + 1, y.values
    over_nabla = [1 / ref_step(lat, 0, start + j, False) for j in range(len(v) - 1)]
    over_delta = [1 / ref_step(lat, -1, start + j, True) for j in range(len(v) - 2)]
    out = []
    for j in range(len(v) - 2):
        s = start + j
        sig_over = sig(s) * over_delta[j]
        a = (sig_over + tau(s)) * over_nabla[j + 1]
        c = sig_over * over_nabla[j]
        out.append(a * v[j + 2] + (lam - a - c) * v[j + 1] + c * v[j])
    return GridFunction(start, tuple(out))


# ---------------------------------------------------------------------------
# the n-fold difference


@settings(max_examples=200, deadline=None)
@given(lattices_and_starts(), st.integers(-3, 3), st.integers(0, 5), st.integers(1, 9), st.data())
def test_differences_equal_the_fraction_passes(lattice_start, k, n, length, data):
    lat, start = lattice_start
    f = GridFunction(start, data.draw(grid_values(length)))
    cases = (
        (iterated_delta, (lat, k, n, f), range(k, k + n), True,
         f"iterated delta of order {n} needs {n + 1} points"),
        (iterated_nabla, (lat, k, n, f), range(k, k - n, -1), False,
         f"iterated nabla of order {n} needs {n + 1} points"),
        (delta_k, (lat, k, f), (k,), True, "delta_k needs at least two points"),
        (nabla_k, (lat, k, f), (k,), False, "nabla_k needs at least two points"),
    )
    for fn, args, levels, forward, short in cases:
        assert outcome(fn, *args) == outcome(ref_passes, lat, levels, f, forward, short), fn


@settings(max_examples=150, deadline=None)
@given(lattices_and_starts(), st.integers(-3, 3), st.integers(0, 5), st.integers(1, 9), st.data())
def test_the_pair_passes_divide_by_rho_as_the_fraction_quotient(lattice_start, k, n, length,
                                                                data):
    """The kernel the Rodrigues evaluator runs: the passes on reduced pairs,
    each output divided by the rho pair at its index, against the public
    difference divided by rho as grid functions."""
    lat, start = lattice_start
    f = GridFunction(start, data.draw(grid_values(length)))
    rho = [v or F(1) for v in data.draw(grid_values(max(1, length - n)))]
    values, pairs = [(v.numerator, v.denominator) for v in f.values], [
        (v.numerator, v.denominator) for v in rho]
    for fn, levels, shift, name in ((iterated_delta, range(k, k + n), 0, "delta"),
                                    (iterated_nabla, range(k, k - n, -1), 1, "nabla")):
        def expected():
            out = fn(lat, k, n, f)
            return out / GridFunction(out.start, rho)

        short = f"iterated {name} of order {n} needs {n + 1} points"
        got = outcome(_passes, f.start.twice, values, lat, levels, shift, short, pairs)
        assert got == outcome(expected), fn


# ---------------------------------------------------------------------------
# the interpolation


@st.composite
def interpolation_nodes(draw):
    """Points p^t of a q-lattice, points t, or distinct random rationals."""
    count = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["q", "t", "random"]))
    if kind == "q":
        p = draw(st.sampled_from(P_VALUES))
        first = draw(st.integers(-6, 2))
        return [p ** t for t in range(first, first + count)]
    if kind == "t":
        first = draw(st.integers(-8, 8))
        return [F(t) for t in range(first, first + count)]
    return draw(st.lists(st.one_of(small, big), min_size=count, max_size=count, unique=True))


@settings(max_examples=200, deadline=None)
@given(interpolation_nodes(), st.data())
def test_integer_form_equals_the_fraction_interpolant(vs, data):
    ys = data.draw(grid_values(len(vs)))
    form = IntegerForm.through(vs, ys)
    assert (form.coeffs, form.den, form.shift) == (*ref_through(vs, ys), 0)
    assert all(type(c) is int for c in form.coeffs) and type(form.den) is int


# ---------------------------------------------------------------------------
# the three-term residual


@st.composite
def residual_problems(draw):
    """An equation, a grid function on a window of 1..9 points, and the
    lambda L is applied at.  y is random, or the polynomial kind of solve()
    on the window with L taken at lambda_n (a zero residual) or at another
    lambda (a nonzero one)."""
    lat, start = draw(lattices_and_starts())
    eq = HyperEquation(lat, draw(st.tuples(small, small, small)),
                       draw(st.tuples(small, small)), draw(small))
    window = Window(start, draw(st.integers(1, 9)))
    if draw(st.booleans()):
        n = draw(st.integers(0, 3))
        try:
            y = solve(eq, n, window).solution
            lam = draw(st.sampled_from([lambda_n(eq, n), lambda_n(eq, n) + draw(nonzero)]))
            return eq.with_lambda(lam), y
        except HyperlatError:
            pass
    return eq, GridFunction(start, draw(grid_values(window.length)))


@settings(max_examples=150, deadline=None)
@given(residual_problems())
def test_three_term_residuals_equal_the_fraction_form(problem):
    eq, y = problem
    lat = eq.lattice
    assert outcome(apply_L, eq, y) == outcome(
        ref_three_term, lat, y, lambda s: sigma_of_s(eq, s), lambda s: tau_of_s(eq, s),
        eq.lam, "apply_L needs at least three points")
    assert outcome(apply_L_star, eq, y) == outcome(
        ref_three_term, lat, y, lambda s: sigma_star(eq, s), lambda s: tau_star(eq, s),
        lambda_star(eq), "apply_L_star needs at least three points")


# ---------------------------------------------------------------------------
# the discrete integral


def ref_cumulative(lat, k, g, N):
    """sum_{t=N..s} g(t) nabla x_k(t) at s >= N, and minus the sum over
    s < t < N at s < N."""
    if N not in g.window:
        raise OutOfWindow(f"sum base {N} must lie in {g.window}")
    i = g.window.index_of(N)
    terms = [v * (lat.x_k(k, t) - lat.x_k(k, t - 1)) for t, v in g.items()]
    return GridFunction(g.start, tuple(sum(terms[i:j + 1]) if j >= i else -sum(terms[j + 1:i])
                                       for j in range(len(terms))))


@settings(max_examples=150, deadline=None)
@given(lattices_and_starts(), st.integers(-3, 3), st.integers(1, 9), st.integers(-2, 10),
       st.data())
def test_cumulative_sum_equals_the_fraction_sum(lattice_start, k, length, base, data):
    lat, start = lattice_start
    g = GridFunction(start, data.draw(grid_values(length)))
    N = start + base
    assert outcome(cumulative_nabla_sum, lat, k, g, N) == outcome(ref_cumulative, lat, k, g, N)


# ---------------------------------------------------------------------------
# the adjoint map


def ref_coefficients(eq):
    """sigma, tau and sigma* as functions of s, from sigma~, tau~ and x_k:
    sigma(s) = sigma~(x(s)) - tau~(x(s)) nabla x_1(s) / 2, tau(s) = tau~(x(s))
    and sigma*(s) = sigma(s-1) + tau(s-1) nabla x_{-1}(s)."""
    lat = eq.lattice
    (a0, a1, a2), (b0, b1) = eq.sigma_t, eq.tau_t
    nabla = lambda k, s: lat.x_k(k, s) - lat.x_k(k, s - 1)
    tau = lambda s: b0 + b1 * lat.x_k(0, s)
    sigma = lambda s: (a0 + a1 * lat.x_k(0, s) + a2 * lat.x_k(0, s) ** 2
                       - tau(s) * nabla(1, s) / 2)
    star = lambda s: sigma(s - 1) + tau(s - 1) * nabla(-1, s)
    return sigma, tau, star


def ref_adjoint_tau(lat, sig, star, s):
    return (sig(s + 1) - star(s)) / ref_step(lat, -1, s, True)


def ref_lambda_shift(lat, sig, star, s):
    """delta_{-1}( [sigma*(s) - sigma(s)] / nabla x_0(s) ) for any sig, star."""
    h = lambda t: (star(t) - sig(t)) / ref_step(lat, 0, t, False)
    return (h(s + 1) - h(s)) / ref_step(lat, -1, s, True)


def ref_tau_star(eq, s):
    sigma, _, star = ref_coefficients(eq)
    return ref_adjoint_tau(eq.lattice, sigma, star, s)


def ref_lambda_star_at(eq, s):
    sigma, _, star = ref_coefficients(eq)
    return eq.lam - ref_lambda_shift(eq.lattice, sigma, star, s)


def ref_checked_lambda_star(eq, s):
    direct, closed = ref_lambda_star_at(eq, s), lambda_star(eq)
    if direct != closed:
        raise NonConstantLambdaStar(
            f"lambda* mismatch: direct {format_rational(direct)} vs closed form "
            f"{format_rational(closed)} at s={s}")
    return closed


def ref_adjoint_coeffs(eq, window):
    sigma_star_of = ref_coefficients(eq)[2]
    sig = GridFunction.sample(window, sigma_star_of)
    tau = GridFunction.sample(window, lambda s: ref_tau_star(eq, s))
    for s in window.points():
        ref_checked_lambda_star(eq, s)
    return AdjointCoefficients(sig, tau, lambda_star(eq))


def ref_dual(eq, s):
    """The adjoint map applied to (sigma*, tau*, lambda*)."""
    lat, star = eq.lattice, ref_coefficients(eq)[2]
    star_star = lambda t: (star(t - 1) + ref_tau_star(eq, t - 1)
                           * (lat.x_k(-1, t) - lat.x_k(-1, t - 1)))
    return (star_star(s), ref_adjoint_tau(lat, star, star_star, s),
            -ref_lambda_shift(lat, star, star_star, s) + ref_checked_lambda_star(eq, s))


@st.composite
def equations_and_windows(draw):
    lat, start = draw(lattices_and_starts())
    eq = HyperEquation(lat, draw(st.tuples(small, small, small)),
                       draw(st.tuples(small, small)), draw(small))
    return eq, Window(start, draw(st.integers(1, 9)))


@settings(max_examples=150, deadline=None)
@given(equations_and_windows())
def test_adjoint_map_equals_the_fraction_form(problem):
    eq, window = problem
    assert outcome(adjoint_coeffs, eq, window) == outcome(ref_adjoint_coeffs, eq, window)
    for s in window.points():
        assert outcome(tau_star, eq, s) == outcome(ref_tau_star, eq, s)
        assert outcome(lambda_star_at, eq, s) == outcome(ref_lambda_star_at, eq, s)
        assert outcome(dual_coefficients, eq, s) == outcome(ref_dual, eq, s)


# ---------------------------------------------------------------------------
# the algebra of integer forms


@st.composite
def laurent_forms(draw):
    """A form from rational coefficients of the powers v^-shift, ..., and
    those coefficients."""
    shift = draw(st.integers(0, 2))
    coeffs = draw(st.lists(st.one_of(small, big), min_size=shift + 1, max_size=shift + 4))
    return IntegerForm.of(coeffs, shift), coeffs, shift


def laurent_value(coeffs, shift, v):
    return sum(c * v ** (k - shift) for k, c in enumerate(coeffs))


def is_reduced(form):
    return (form.den > 0 and gcd(form.den, *form.coeffs) == 1
            and 0 <= form.shift < len(form.coeffs) and all(type(c) is int for c in form.coeffs))


@settings(max_examples=200, deadline=None)
@given(laurent_forms(), laurent_forms(), st.one_of(small, big).filter(bool),
       st.one_of(nonzero, big.filter(bool)), st.integers(-6, 6))
def test_form_algebra_equals_the_fraction_values(f, g, r, v, k):
    (f, fc, fs), (g, gc, gs) = f, g
    point = (v.numerator, v.denominator)
    fv, gv = laurent_value(fc, fs, v), laurent_value(gc, gs, v)
    cases = [(f, fv), (f + g, fv + gv), (f - g, fv - gv), (f * g, fv * gv),
             (r * f, r * fv), (f * r, r * fv), (r + f, r + fv), (f - r, fv - r),
             (f / r, fv / r), (f.dilated(r), laurent_value(fc, fs, r * v))]
    if fs == 0:
        cases.append((f.translated(k), laurent_value(fc, 0, v + k)))
    for form, expected in cases:
        assert form.at(*point) == expected
        assert is_reduced(form)


# ---------------------------------------------------------------------------
# the weight product, the integrand and the Casoratian recurrence


def ref_Y_n(eq, rho, n, window):
    """rho(s) sigma(s) sigma(s-1) ... sigma(s-n+1), one Fraction product per
    point, with sigma written from sigma~ and tau~."""
    sigma = ref_coefficients(eq)[0]

    def product(s):
        value = rho.value_at(s)
        for j in range(n):
            value *= sigma(s - j)
        return value

    return GridFunction.sample(window, product)


@st.composite
def weight_problems(draw):
    """An equation on either family, a window of 1..16 points and a point
    of it to anchor the Pearson scan at."""
    lat, start = draw(lattices_and_starts())
    eq = HyperEquation(lat, draw(st.tuples(small, small, small)), draw(st.tuples(small, small)))
    window = Window(start, draw(st.integers(1, 16)))
    return eq, window, draw(st.integers(0, window.length - 1))


@settings(max_examples=150, deadline=None)
@given(weight_problems())
def test_weight_pairs_equal_the_fraction_product_of_the_steps(problem):
    eq, window, base = problem
    try:
        steps = pearson_steps(eq, window, window.start + base)
    except HyperlatError:
        return
    rho = weight_from_steps(steps, window, base)
    expected = [F(1)] * window.length
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        expected[j] = expected[j - 1 if j > base else j + 1] * F(*steps[j])
    for (num, den), value in zip(rho, expected, strict=True):
        assert type(num) is int and type(den) is int
        assert den > 0 and gcd(num, den) == 1
        assert (num, den) == (value.numerator, value.denominator)


def with_sigma_zero_at(eq, s):
    """The equation with sigma~(0) moved so that sigma(s) = 0."""
    sigma = ref_coefficients(eq)[0]
    return HyperEquation(eq.lattice, (eq.sigma_t[0] - sigma(s), *eq.sigma_t[1:]), eq.tau_t,
                         eq.lam)


@settings(max_examples=150, deadline=None)
@given(equations_and_windows(), st.integers(0, 5), st.data())
def test_weight_product_equals_the_fraction_product(problem, n, data):
    """For n > 0, half of the equations have a zero of sigma among the
    factors, which the sliding product counts apart."""
    eq, window = problem
    if n and data.draw(st.booleans()):
        zero = data.draw(st.integers(1 - n, window.length - 1))
        eq = with_sigma_zero_at(eq, window.start + zero)
    rho = GridFunction(window.start - 1, data.draw(grid_values(window.length + 2)))
    product = Y_n(eq, PearsonWeight(rho), n, window)
    assert product.start == window.start
    assert product.values == ref_Y_n(eq, rho, n, window).values


def ref_rodrigues(eq, rho, n, window, N, P):
    """(1/rho) delta_{-n}^{(n)} [Y_n C] on the whole window in Fraction, with
    C the sum from N of P(x_{-(n+1)}(t)) / (Y_n(t) sigma(t-n)) nabla x_{-n}(t),
    P by Horner's rule."""
    lat, sigma = eq.lattice, ref_coefficients(eq)[0]
    span = window.expand(0, n)
    product = ref_Y_n(eq, rho, n, span)

    def integrand(t):
        den = product.value_at(t) * sigma(t - n)
        if den == 0:
            raise SingularSummand(f"sigma product vanishes at t={t}", point=t)
        x, acc = lat.x_k(-(n + 1), t), F(0)
        for c in reversed(P):
            acc = acc * x + c
        return acc / den

    C = ref_cumulative(lat, -n, GridFunction.sample(span, integrand), N)
    f = GridFunction(span.start, tuple(a * b for a, b in zip(product.values, C.values)))
    diff = ref_passes(lat, range(-n, 0), f, True, "")
    return GridFunction(window.start, tuple(v / rho.value_at(s) for s, v in diff.items()))


@settings(max_examples=150, deadline=None)
@given(lattices_and_starts(), st.tuples(small, small, small), st.tuples(small, small),
       st.integers(0, 4), st.integers(2, 12), st.booleans(), st.data())
def test_integral_kinds_equal_the_fraction_formula(lattice_start, sigma_t, tau_t, n, length,
                                                   second, data):
    """Past a head of three points each value comes from the integer
    Casoratian step, and must equal the whole-window formula, here in
    Fraction arithmetic with its own integrand and weight product."""
    lat, start = lattice_start
    eq = HyperEquation(lat, sigma_t, tau_t)
    window = Window(start, length)
    P = (1,) if second else tuple(data.draw(small) for _ in range(n)) + (data.draw(nonzero),)
    try:
        report = solve(eq, n, window, kind="second" if second else "generalized", P=P)
    except HyperlatError:
        return
    rho = pearson_weight(eq, weight_window_for(n, window), window.start).rho
    expected = ref_rodrigues(eq, rho, n, window.expand(1, 1), sum_base_for(n, window), P)
    assert report.solution.values == expected.restrict(window).values


# ---------------------------------------------------------------------------
# the eigenvalue scan


def ref_admissibility(eq, n):
    """The first m < n with lambda_n(eq, m) = lambda_n(eq, n), one closed form
    per m."""
    target = lambda_n(eq, n)
    return next((m for m in range(n) if lambda_n(eq, m) == target), None)


@st.composite
def eigen_problems(draw):
    """An equation on either family and an order n <= 12; in half of them
    tau~' is chosen so that lambda_m = lambda_n for a drawn m < n."""
    lat = draw(lattices_and_starts())[0]
    n = draw(st.integers(0, 12))
    sigma2, tau1 = draw(small), draw(small)
    if n and draw(st.booleans()):
        # lambda_k = -(alpha(k-1) tau~' + nu(k-1) sigma~''/2) nu(k) is linear in tau~'
        m = draw(st.integers(0, n - 1))
        slope = [-lat.alpha(k - 1) * lat.nu(k) for k in (m, n)]
        const = [-lat.nu(k - 1) * sigma2 * lat.nu(k) for k in (m, n)]
        if slope[0] != slope[1]:
            tau1 = (const[1] - const[0]) / (slope[0] - slope[1])
    return HyperEquation(lat, (F(0), F(1), sigma2), (F(1), tau1)), n


@settings(max_examples=300, deadline=None)
@given(eigen_problems())
def test_admissibility_equals_the_loop_over_lambda_n(problem):
    eq, n = problem
    assert admissibility_violation(eq, n) == ref_admissibility(eq, n)
