"""The lattice and coefficient tables: each value is computed once per object,
and the tables never show in equality, hashing, repr or the problem format."""

from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperlat import (
    HalfInt,
    HyperEquation,
    QQuadraticLattice,
    QuadraticLattice,
    parse_problem,
    render_problem,
    solve,
)
from tests.conftest import ALL_CONFIGS, quad_b

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
    other = eq.with_lambda(F(5, 7))
    assert other.lam == F(5, 7) and other != eq
    assert [other.sigma_at(t) for t in points] == sigma
    assert [other.tau_at(t) for t in points] == tau
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


@pytest.mark.parametrize("name", ["quadratic.spec", "qlattice.spec", "generalized.spec"])
def test_render_parse_round_trip_survives_a_solve(name):
    spec = parse_problem((DEMOS / name).read_text())
    text = render_problem(spec)
    solve(spec.equation(), spec.n, spec.window, kind="generalized" if spec.poly_p else "second",
          N=spec.sum_base, P=spec.poly_p)
    assert render_problem(spec) == text
    assert parse_problem(text) == spec
