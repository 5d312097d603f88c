"""The lattice and coefficient tables: each value is computed once per object,
from an integer form, composed from the form of x, that equals the closed
formula on every lattice class; the formulas run on values only at the check
nodes of the forms, and the tables never show in equality, hashing, repr or
the problem format."""

import gc
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlat import (
    HalfInt,
    HyperEquation,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    parse_problem,
    render_problem,
    solve,
)
from hyperlat.numerics import IntegerForm
from tests.conftest import ALL_CONFIGS, qq_b, quad_b

DEMOS = Path(__file__).resolve().parent.parent / "demos"
KINDS = ("polynomial", "second", "generalized")


def _count(monkeypatch, owner, name, record):
    """Replace owner.name by a wrapper that calls ``record`` with the
    arguments, then the original."""
    original = getattr(owner, name)

    def counted(*args):
        record(*args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_solve_computes_each_value_once(make, kind, window, monkeypatch):
    eq = make()
    n = 3
    x_points, sigma_points, tau_points = [], set(), set()
    formulas = {"sigma": 0, "tau": 0}

    for family in (QQuadraticLattice, QuadraticLattice):
        _count(monkeypatch, family, "x_k",
               lambda lat, k, s: x_points.append((id(lat), s.twice + k)))
    _count(monkeypatch, HyperEquation, "sigma_at", lambda _eq, t: sigma_points.add(t))
    _count(monkeypatch, HyperEquation, "tau_at", lambda _eq, t: tau_points.add(t))
    _count(monkeypatch, HyperEquation, "sigma_tilde",
           lambda _eq, _x: formulas.__setitem__("sigma", formulas["sigma"] + 1))
    _count(monkeypatch, HyperEquation, "tau_tilde",
           lambda _eq, _x: formulas.__setitem__("tau", formulas["tau"] + 1))

    P = tuple(F(j + 1, 2) for j in range(n + 1))
    report = solve(eq, n, window, kind=kind, P=P)

    assert report.is_exact_solution()
    assert x_points and len(x_points) == len(set(x_points))
    assert 0 < formulas["sigma"] <= len(sigma_points)
    assert 0 < formulas["tau"] <= len(tau_points)


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_tables_are_invisible(make, window):
    eq, fresh = make(), make()
    solve(eq, 3, window, kind="second")
    for used, new in ((eq, fresh), (eq.lattice, fresh.lattice)):
        assert used == new
        assert hash(used) == hash(new)
        assert repr(used) == repr(new)
    with pytest.raises(FrozenInstanceError):
        eq.lam = F(1)
    with pytest.raises(FrozenInstanceError):
        eq.lattice._table = {}


def test_with_lambda_shares_sigma_and_tau(monkeypatch):
    eq = quad_b()
    points = range(-3, 30)
    sigma = [eq.sigma_at(t) for t in points]
    tau = [eq.tau_at(t) for t in points]
    calls = []
    _count(monkeypatch, HyperEquation, "sigma_tilde", lambda _eq, x: calls.append(x))
    _count(monkeypatch, HyperEquation, "tau_tilde", lambda _eq, x: calls.append(x))
    star = [eq.sigma_star_at(t) for t in points]
    other = eq.with_lambda(F(5, 7))
    assert other.lam == F(5, 7) and other != eq
    assert [other.sigma_at(t) for t in points] == sigma
    assert [other.tau_at(t) for t in points] == tau
    assert [other.sigma_star_at(t) for t in points] == star
    assert calls == []


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_tables_match_the_formulas(make):
    eq = make()
    lat = eq.lattice
    for t in range(-9, 40):
        s = HalfInt(t)
        for k in (-3, -1, 0, 2):
            assert lat.x_at(t + k) == lat.x_k(k, s)
        nabla = lat.x_k(1, s) - lat.x_k(1, s - 1)
        x = lat.x_k(0, s)
        assert eq.tau_at(t) == eq.tau_tilde(x)
        assert eq.sigma_at(t) == eq.sigma_tilde(x) - eq.tau_tilde(x) * nabla / 2
        assert eq.sigma_star_at(t) == (eq.sigma_at(t - 2)
                                       + eq.tau_at(t - 2) * lat.nabla_x(-1, s))


@pytest.mark.parametrize("name", ["quadratic.spec", "qlattice.spec", "generalized.spec"])
def test_render_parse_round_trip_survives_a_solve(name):
    spec = parse_problem((DEMOS / name).read_text())
    text = render_problem(spec)
    solve(spec.equation(), spec.n, spec.window, kind="generalized" if spec.poly_p else "second",
          N=spec.sum_base, P=spec.poly_p)
    assert render_problem(spec) == text
    assert parse_problem(text) == spec


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def lattices(draw):
    """A lattice of either family, with p of either sign: x(s) general, or
    of a special class, with one of (c1, c2) or (ct1, ct2) zero (the
    q-linear lattice, the linear lattice and x = ct1 s^2 + ct3)."""
    u, v = draw(nonzero), draw(nonzero)
    zeroed = draw(st.sampled_from([None, 0, 1]))
    pair = (F(0) if zeroed == 0 else u, F(0) if zeroed == 1 else v)
    if draw(st.booleans()):
        p = draw(st.sampled_from([F(2), F(-2), F(3, 2), F(-3, 2), F(1, 3), F(-1, 3), F(-5, 4)]))
        return QQuadraticLattice(p, *pair, draw(small))
    return QuadraticLattice(*pair, draw(small))


@settings(max_examples=100, deadline=None)
@given(lattices(), st.tuples(small, small, small), st.tuples(small, small),
       st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_tables_equal_the_closed_formulas(lat, sigma_t, tau_t, points):
    """At any 2s, even or odd and of either sign, the tables filled from the
    integer forms equal the closed formulas, written here from x_k alone."""
    eq = HyperEquation(lat, sigma_t, tau_t)

    def x(t):
        return lat.x_k(0, HalfInt(t))

    def tau(t):
        return eq.tau_tilde(x(t))

    def sigma(t):
        return eq.sigma_tilde(x(t)) - tau(t) * (x(t + 1) - x(t - 1)) / 2

    for t in points:
        assert lat.x_at(t) == x(t)
        assert lat.step_at(t) == x(t + 2) - x(t)
        assert eq.tau_at(t) == tau(t)
        assert eq.sigma_at(t) == sigma(t)
        assert eq.sigma_star_at(t) == sigma(t - 2) + tau(t - 2) * (x(t - 1) - x(t - 3))


@pytest.mark.parametrize("make", ALL_CONFIGS)
def test_formulas_run_only_at_the_form_nodes(make, monkeypatch):
    """However long the window, the formulas run on values only at the check
    nodes of their forms: x_k at 2s = -2 and 2, sigma~ at x(-3/2) and x(3/2),
    tau~ at x(-1) and x(1).  sigma~ and tau~ also run once each on the form
    of x, to compose the forms of sigma and tau."""
    calls = []
    for family in (QQuadraticLattice, QuadraticLattice):
        _count(monkeypatch, family, "x_k",
               lambda _lat, k, s: calls.append(("x", s.twice + k)))
    _count(monkeypatch, HyperEquation, "sigma_tilde", lambda _eq, x: calls.append(("sigma", x)))
    _count(monkeypatch, HyperEquation, "tau_tilde", lambda _eq, x: calls.append(("tau", x)))
    n = 3
    P = tuple(F(j + 1, 2) for j in range(n + 1))
    for length in (6, 40):
        eq = make()
        calls.clear()
        for kind in KINDS:
            assert solve(eq, n, Window(HalfInt.from_int(4), length), kind=kind,
                         P=P).is_exact_solution()
        x_at = eq.lattice.x_at
        assert sorted(t for name, t in calls if name == "x") == [-2, 2]
        for name, nodes in (("sigma", (-3, 3)), ("tau", (-2, 2))):
            args = [x for kind, x in calls if kind == name]
            assert sum(isinstance(x, IntegerForm) for x in args) == 1
            assert (sorted(x for x in args if not isinstance(x, IntegerForm))
                    == sorted(x_at(t) for t in nodes))


def test_a_form_that_disagrees_with_its_formula_raises(monkeypatch):
    """A form is checked against its formula on values at one node past each
    end of t = -r..r; a wrong formula fails there."""
    quadratic = QuadraticLattice(F(1), F(1), F(0))
    with pytest.raises(AssertionError, match="order 2 disagrees with its formula at 2s=-3"):
        quadratic.checked(quadratic.x_form() * quadratic.x_form(), lambda t: F(t) ** 5, 2)
    qquadratic = QQuadraticLattice(F(2), F(1), F(1), F(0))
    with pytest.raises(AssertionError, match="order 1 disagrees with its formula at 2s=-2"):
        qquadratic.checked(qquadratic.x_form(), lambda t: F(t), 1)
    # sigma~ off by one on values only: the composed form of sigma is caught
    real = HyperEquation.sigma_tilde
    monkeypatch.setattr(HyperEquation, "sigma_tilde",
                        lambda eq, x: real(eq, x) + (not isinstance(x, IntegerForm)))
    for make in (quad_b, qq_b):
        with pytest.raises(AssertionError, match="order 2 disagrees with its formula at 2s=-3"):
            make().sigma_at(20)


@pytest.mark.parametrize("family, lattice", [
    (QuadraticLattice, QuadraticLattice(F(1), F(1), F(3, 2))),
    (QQuadraticLattice, QQuadraticLattice(F(3, 2), F(1), F(2), F(-1, 3))),
])
def test_a_sign_flip_of_the_constant_in_x_k_raises(family, lattice, monkeypatch):
    """The form of x is written from the coefficients and checked against
    x_k, so x_k with the constant term's sign flipped no longer passes."""
    real = family.x_k
    constant = lattice.ct3 if family is QuadraticLattice else lattice.c3
    monkeypatch.setattr(family, "x_k", lambda lat, k, s: real(lat, k, s) - 2 * constant)
    with pytest.raises(AssertionError, match="order 1 disagrees with its formula at 2s=-2"):
        lattice.x_at(7)


@st.composite
def lattices_of_every_class(draw):
    """A lattice of one of the six classes (general, and c1 = 0 or c2 = 0 on
    the q-family; general, linear and ct2 = 0 on the quadratic family), with
    a nonzero constant c3 or ct3."""
    u, v, constant = draw(nonzero), draw(nonzero), draw(nonzero)
    if draw(st.booleans()):
        p = draw(st.sampled_from([F(2), F(-2), F(3, 2), F(-3, 2), F(1, 3), F(-5, 4)]))
        c1, c2 = draw(st.sampled_from([(u, v), (F(0), v), (u, F(0))]))
        return QQuadraticLattice(p, c1, c2, constant)
    ct1, ct2 = draw(st.sampled_from([(u, v), (F(0), v), (u, F(0))]))
    return QuadraticLattice(ct1, ct2, constant)


@settings(max_examples=150, deadline=None)
@given(lattices_of_every_class(), st.tuples(small, small, small), st.tuples(small, small),
       st.lists(st.builds(lambda t, sign: sign * t, st.integers(8, 160), st.sampled_from([-1, 1])),
                min_size=1, max_size=4))
def test_composed_forms_equal_the_closed_formulas_far_from_the_nodes(lat, sigma_t, tau_t, points):
    """Each composed table equals its closed formula, written here from x_k
    alone, at points t = 2s far outside the nodes -3..3 of the checks."""
    eq = HyperEquation(lat, sigma_t, tau_t)

    def x(t):
        return lat.x_k(0, HalfInt(t))

    def tau(t):
        return eq.tau_tilde(x(t))

    def sigma(t):
        return eq.sigma_tilde(x(t)) - tau(t) * (x(t + 1) - x(t - 1)) / 2

    for t in points:
        assert lat.x_at(t) == x(t)
        assert lat.step_at(t) == x(t + 2) - x(t)
        assert eq.tau_at(t) == tau(t)
        assert eq.sigma_at(t) == sigma(t)
        assert eq.sigma_star_at(t) == sigma(t - 2) + tau(t - 2) * (x(t - 1) - x(t - 3))


@pytest.mark.parametrize("make", [quad_b, qq_b], ids=["quadratic", "q-quadratic"])
def test_a_lattice_and_an_equation_die_with_their_last_reference(make, window):
    """No table refers back to its owner: with the cycle collector off, a
    lattice, an equation and its ``with_lambda`` copy are freed as soon as
    the last reference is dropped, after a solve of every kind, so dropping
    an object frees its tables."""
    n = 3
    P = tuple(F(j + 1, 2) for j in range(n + 1))
    gc.collect()
    gc.disable()
    try:
        eq = make()
        for kind in KINDS:
            assert solve(eq, n, window, kind=kind, P=P).is_exact_solution()
        copy = eq.with_lambda(F(5, 7))
        assert copy.sigma_star_at(41) == eq.sigma_star_at(41)
        refs = [weakref.ref(obj) for obj in (eq, eq.lattice, copy)]
        del eq, copy
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
