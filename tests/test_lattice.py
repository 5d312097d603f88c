from fractions import Fraction as F

import pytest

from hyperlat import (
    DegenerateLattice,
    HalfInt,
    HyperEquation,
    LatticeError,
    QQuadraticLattice,
    QuadraticLattice,
)


def test_half_int_basics():
    s = HalfInt(7)
    assert s.twice == 7 and str(s) == "7/2"
    assert str(HalfInt(-6)) == "-3"
    assert (s + 1).twice == 9 and (s - 2).twice == 3
    assert s.as_fraction() == F(7, 2)


def test_x_k_examples():
    assert QuadraticLattice(F(1), F(0), F(0), allow_degenerate=True).x_k(
        0, HalfInt.from_int(2)) == 4
    q = QQuadraticLattice(F(2), F(1), F(1), F(0))
    assert q.x_k(0, HalfInt.from_int(1)) == F(17, 4)
    assert QuadraticLattice(F(1), F(1), F(0)).x_k(1, HalfInt.from_int(0)) == F(3, 4)


def test_nu_examples():
    quad = QuadraticLattice(F(1), F(1), F(0))
    q = QQuadraticLattice(F(2), F(1), F(1), F(0))
    assert quad.nu(0) == 0 and q.nu(0) == 0
    assert quad.nu(5) == 5
    assert q.nu(3) == F(21, 4)
    assert quad.nu(1) == 1 and q.nu(1) == 1


def test_alpha_examples():
    quad = QuadraticLattice(F(1), F(1), F(0))
    q = QQuadraticLattice(F(2), F(1), F(1), F(0))
    assert quad.alpha(0) == 1 and q.alpha(0) == 1
    assert quad.alpha(9) == 1
    assert q.alpha(2) == F(17, 8)


def test_kappa_examples():
    quad = QuadraticLattice(F(1), F(1), F(0))
    q = QQuadraticLattice(F(2), F(1), F(1), F(0))
    tau_slope_one = ((F(0), F(0), F(0)), (F(0), F(1)))
    assert HyperEquation(quad, *tau_slope_one).kappa(1) == 1
    assert HyperEquation(q, *tau_slope_one).kappa(1) == 1
    assert HyperEquation(quad, (F(0), F(0), F(1)), (F(0), F(0))).kappa(4) == 3
    assert HyperEquation(q, *tau_slope_one).kappa(3) == F(17, 8)


@pytest.mark.parametrize("lat", [
    QuadraticLattice(F(1), F(1), F(0)),
    QuadraticLattice(F(1), F(2), F(1)),
    QQuadraticLattice(F(2), F(1), F(1), F(0)),
    QQuadraticLattice(F(3, 2), F(1), F(1), F(0)),
])
def test_suslov_sums(lat):
    for k in range(1, 13):
        assert sum(lat.alpha(2 * j) for j in range(k)) == lat.alpha(k - 1) * lat.nu(k)
        assert sum(lat.nu(2 * j) for j in range(k)) == lat.nu(k - 1) * lat.nu(k)


@pytest.mark.parametrize("lat", [
    QuadraticLattice(F(1), F(1), F(0)),
    QQuadraticLattice(F(2), F(1), F(1), F(0)),
    QQuadraticLattice(F(3, 2), F(2), F(-1), F(5)),
])
def test_midpoint_condition(lat):
    beta = lat.mean_shift_beta()
    for twice in range(-6, 7, 2):
        s = HalfInt(twice)
        assert (lat.x(s + 1) + lat.x(s)) / 2 == lat.alpha(1) * lat.x_k(1, s) + beta


def test_nu_alpha_symmetry():
    for lat in (QuadraticLattice(F(1), F(1), F(0)),
                QQuadraticLattice(F(2), F(1), F(1), F(0))):
        for mu in range(13):
            assert lat.nu(-mu) == -lat.nu(mu)
            assert lat.alpha(-mu) == lat.alpha(mu)


def test_level_shift_identity():
    for lat in (QuadraticLattice(F(1), F(2), F(1)),
                QQuadraticLattice(F(3, 2), F(1), F(1), F(0))):
        for k in range(-5, 6):
            for twice in range(-4, 6):
                s = HalfInt(twice)
                assert lat.x_k(k, s) == lat.x_k(k + 2, s - 1)


def test_invalid_p_rejected():
    for p in (F(0), F(1), F(-1)):
        with pytest.raises(LatticeError):
            QQuadraticLattice(p, F(1), F(1), F(0))


def test_degenerate_needs_flag():
    with pytest.raises(DegenerateLattice):
        QQuadraticLattice(F(2), F(1), F(0), F(0))
    with pytest.raises(DegenerateLattice):
        QuadraticLattice(F(1), F(0), F(0))
    # explicit override constructs, and reports itself as not nonuniform
    lat = QuadraticLattice(F(1), F(0), F(0), allow_degenerate=True)
    assert not lat.is_nonuniform
