"""Property tests over random lattices of both families, random coefficients,
n <= 4 and short windows.

Each property must hold wherever the library raises no HyperlatError (a
zero lattice step, a Pearson singularity or a vanishing summand ends the
example instead):

* the adjoint map is an involution: ``dual_coefficients`` gives back
  (sigma(s), tau(s), lambda);
* L*[rho y] = rho L[y] for the Pearson weight rho;
* the second-kind and generalized solutions of ``solve()`` equal a
  reference built here from the definition, with the integrand denominator
  rho(t) prod_{j=0..n} sigma(t-j) multiplied out by its own loop.
"""

from fractions import Fraction as F

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from hyperlat import (
    GridFunction,
    HalfInt,
    HyperEquation,
    HyperlatError,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    apply_L,
    apply_L_star,
    dual_coefficients,
    pearson_weight,
    sigma_of_s,
    solve,
    tau_of_s,
    weight_window_for,
)

# A failing example is reported as drawn: shrinking one took minutes, since
# every step reruns exact arithmetic on large rationals.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))

qquadratic = st.builds(
    QQuadraticLattice,
    st.sampled_from([F(2), F(3, 2), F(-2), F(1, 3), F(5, 2)]), nonzero, nonzero, small)
quadratic = st.builds(QuadraticLattice, nonzero, nonzero, small)

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


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(equations, windows(0))
def test_dual_coefficients_invert_the_adjoint_map(eq, window):
    for s in window.points():
        try:
            dual = dual_coefficients(eq, s)
        except HyperlatError:
            continue
        assert dual == (sigma_of_s(eq, s), tau_of_s(eq, s), eq.lam)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(equations, windows(0), st.data())
def test_adjoint_intertwines_with_the_weight(eq, window, data):
    y = GridFunction(window.start, tuple(
        data.draw(small) for _ in range(window.length)))
    try:
        rho = pearson_weight(eq, window, window.start).rho
        lhs = apply_L_star(eq, rho * y)
        rhs = rho * apply_L(eq, y)
    except HyperlatError:
        assume(False)
    assert lhs == rhs


def reference_solution(eq, n, window, numerator):
    """(1/rho) delta_{-n}^{(n)}[ Y_n(s) sum_{t=N..s} numerator(t) / den(t)
    nabla x_{-n}(t) ] with N the first point of the y window and
    den(t) = rho(t) prod_{j=0..n} sigma(t-j); x_k is the family formula."""
    lat = eq.lattice
    rho = pearson_weight(eq, weight_window_for(n, window), window.start)
    points = list(window.expand(1, 1 + n).points())

    def sigma_product(t, count):
        value = rho.value_at(t)
        for j in range(count):
            value *= sigma_of_s(eq, t - j)
        return value

    acc, values = F(0), []
    for t in points:
        acc += numerator(t) / sigma_product(t, n + 1) * (lat.x_k(-n, t) - lat.x_k(-n, t - 1))
        values.append(sigma_product(t, n) * acc)
    for level in range(-n, 0):
        values = [(b - a) / (lat.x_k(level, t + 1) - lat.x_k(level, t))
                  for t, a, b in zip(points, values, values[1:])]
    return tuple(v / rho.value_at(t) for t, v in zip(points[1:-1], values[1:-1]))


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(problems(), st.data())
def test_integral_kinds_match_the_definition(problem, data):
    eq, n, window = problem
    P = tuple(data.draw(small) for _ in range(n + 1))
    lat = eq.lattice

    def poly_numerator(t):
        x = lat.x_k(-(n + 1), t)
        return sum(c * x ** j for j, c in enumerate(P))

    for kind, numerator in (("second", lambda t: F(1)), ("generalized", poly_numerator)):
        try:
            report = solve(eq, n, window, kind, P=P)
        except HyperlatError:
            continue
        assert report.solution.values == reference_solution(eq, n, window, numerator)
