"""Shared test configurations.

Six reference setups, three per lattice family, the third of each on a
special class (x(s) = s^2 and the q-linear x(s) = q^s), chosen so that every
window used by the tests stays clear of degenerate steps (the symmetric
q-lattices have one at s = -(k+1)/2 per level k) and of zeros of sigma along
Pearson and summation ranges.
"""

from fractions import Fraction as F

import pytest

from hyperlat import (
    HalfInt,
    HyperEquation,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
)


def quad_a():
    # x(s) = s(s+1), sigma~(x) = x, tau~(x) = 1 - 2x
    lat = QuadraticLattice(F(1), F(1), F(0))
    return HyperEquation(lat, (F(0), F(1), F(0)), (F(1), F(-2)))


def quad_b():
    # x(s) = (s+1)^2, sigma~(x) = 1 + x, tau~(x) = 1 - x
    lat = QuadraticLattice(F(1), F(2), F(1))
    return HyperEquation(lat, (F(1), F(1), F(0)), (F(1), F(-1)))


def quad_c():
    # x(s) = s^2 (ct2 = 0), sigma~(x) = 1 + x, tau~(x) = 1 - x
    lat = QuadraticLattice(F(1), F(0), F(0))
    return HyperEquation(lat, (F(1), F(1), F(0)), (F(1), F(-1)))


def qq_a():
    # q = 4, x(s) = q^s + q^-s, sigma~(x) = x, tau~(x) = 1 - x
    lat = QQuadraticLattice(F(2), F(1), F(1), F(0))
    return HyperEquation(lat, (F(0), F(1), F(0)), (F(1), F(-1)))


def qq_b():
    # q = 9/4, x(s) = q^s + q^-s, sigma~(x) = x^2 + 1, tau~(x) = 2 - 3x
    lat = QQuadraticLattice(F(3, 2), F(1), F(1), F(0))
    return HyperEquation(lat, (F(1), F(0), F(1)), (F(2), F(-3)))


def qq_c():
    # q = 4, the q-linear x(s) = q^s (c2 = 0), sigma~(x) = x, tau~(x) = 1 - x
    lat = QQuadraticLattice(F(2), F(1), F(0), F(0))
    return HyperEquation(lat, (F(0), F(1), F(0)), (F(1), F(-1)))


ALL_CONFIGS = [
    pytest.param(quad_a, id="quad-a"),
    pytest.param(quad_b, id="quad-b"),
    pytest.param(quad_c, id="quad-c"),
    pytest.param(qq_a, id="qq-a"),
    pytest.param(qq_b, id="qq-b"),
    pytest.param(qq_c, id="qq-c"),
]


@pytest.fixture(params=ALL_CONFIGS)
def equation(request):
    return request.param()


@pytest.fixture
def window():
    return Window(HalfInt.from_int(4), 12)
