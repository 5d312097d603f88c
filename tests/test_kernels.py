"""The integer kernels against the ``Fraction`` arithmetic they replace.

The n-fold differences (``grid``), the interpolation (``IntegerForm.through``)
and the three-term residual (``apply_L``, ``apply_L_star``) run on integer
numerators and denominators.  Each property compares one of them with a
reference written here in plain ``Fraction`` arithmetic, with its own
zero-step guard on steps taken from the family formula ``x_k``: values must
be equal, and so must the class, text and point of any exception.  Lattices
come from both families and all four classes (general, q-linear, ct2 = 0 and
linear), with p of either sign, and half of them are symmetric about a
centre that the window often straddles, so a zero step falls inside it.
"""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlat import (
    DegenerateStep,
    GridFunction,
    HalfInt,
    HyperEquation,
    HyperlatError,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    WindowTooSmall,
    apply_L,
    apply_L_star,
    delta_k,
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
from hyperlat.numerics import IntegerForm

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


def ref_through(vs, ys, shift):
    """Newton divided differences in Fraction, expanded by nested
    multiplication and cleared to integers over their lcm."""
    c = [v ** shift * y for v, y in zip(vs, ys)]
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


# ---------------------------------------------------------------------------
# the interpolation


@st.composite
def interpolation_nodes(draw):
    """The points of a lattice's integer forms, p^t on the q-family (so a
    Laurent shift) or t on the quadratic one, or distinct random rationals."""
    count = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["q", "t", "random"]))
    if kind == "q":
        p = draw(st.sampled_from(P_VALUES))
        first = draw(st.integers(-6, 2))
        return [p ** t for t in range(first, first + count)], draw(st.integers(0, 4))
    if kind == "t":
        first = draw(st.integers(-8, 8))
        return [F(t) for t in range(first, first + count)], 0
    vs = draw(st.lists(st.one_of(small, big), min_size=count, max_size=count, unique=True))
    return vs, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(interpolation_nodes(), st.data())
def test_integer_form_equals_the_fraction_interpolant(nodes, data):
    vs, shift = nodes
    ys = data.draw(grid_values(len(vs)))
    form = IntegerForm.through(vs, ys, shift)
    assert (form.coeffs, form.den, form.shift) == (*ref_through(vs, ys, shift), shift)
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
