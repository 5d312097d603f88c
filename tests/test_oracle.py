from fractions import Fraction as F

import pytest

from hyperlat import (
    DegenerateAbscissae,
    DegenerateStep,
    GridFunction,
    HalfInt,
    HyperEquation,
    OracleDimensionError,
    QuadraticLattice,
    Window,
    apply_L,
    brute_force_polynomial_oracle,
    nullspace,
    polynomial_coefficients,
    solve,
    tau_of_s,
)

S = HalfInt.from_int


def test_nullspace_small_cases():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0 and any(c != 0 for c in v)
    assert nullspace([[F(1), F(0)], [F(0), F(1)]]) == []


def test_oracle_order_zero_and_one(equation):
    c0 = brute_force_polynomial_oracle(equation, 0)
    assert len(c0) == 1 and c0[0] != 0
    c1 = brute_force_polynomial_oracle(equation, 1)
    # proportional to tau~: check by evaluating at two lattice points
    lat = equation.lattice
    s1, s2 = S(2), S(3)
    val = lambda c, s: c[0] + c[1] * lat.x(s)
    assert (val(c1, s1) * tau_of_s(equation, s2)
            == val(c1, s2) * tau_of_s(equation, s1))


def test_oracle_matches_rodrigues(equation, window):
    for n in range(5):
        report = solve(equation, n, window)
        mine = polynomial_coefficients(equation.lattice, report.solution, n)
        oracle = brute_force_polynomial_oracle(equation, n)
        scale = next(a / b for a, b in zip(mine, oracle) if b != 0)
        assert scale != 0
        assert all(a == scale * b for a, b in zip(mine, oracle))


def test_oracle_retries_past_repeated_x_and_zero_steps():
    # x(s) = s^2 - 5s is symmetric about s = 5/2, so x(2) = x(3): the sample
    # grids from 1 and 2 repeat an x-value, and the one from 3 reads the zero
    # step x(3) - x(2) in apply_L; the oracle must go on to a usable grid
    lat = QuadraticLattice(F(1), F(-5), F(0))
    eq = HyperEquation(lat, (F(0), F(1), F(0)), (F(1), F(-2)))
    assert lat.x(S(2)) == lat.x(S(3))
    window = Window(S(6), 8)
    for n in range(1, 5):
        with pytest.raises(DegenerateStep):
            apply_L(eq, GridFunction.sample(Window(S(2), n + 4), lat.x))
        report = solve(eq, n, window)
        mine = polynomial_coefficients(lat, report.solution, n)
        oracle = brute_force_polynomial_oracle(eq, n)
        scale = mine[-1] / oracle[-1]
        assert scale != 0
        assert all(a == scale * b for a, b in zip(mine, oracle))


def test_oracle_detects_inadmissible_lambda():
    # lambda_n = -n(n-2): lambda_2 = lambda_0412 = 0, so constants also solve at n=2
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(0), F(0), F(1)), (F(0), F(-1)))
    with pytest.raises(OracleDimensionError):
        brute_force_polynomial_oracle(eq, 2)


def test_interpolation_recovers_known_polynomial():
    lat = QuadraticLattice(F(1), F(1), F(0))
    coeffs = (F(2), F(-1, 3), F(5))
    f = GridFunction.sample(Window(S(1), 5),
                            lambda s: coeffs[0] + coeffs[1] * lat.x(s)
                            + coeffs[2] * lat.x(s) ** 2)
    assert tuple(polynomial_coefficients(lat, f, 2)) == coeffs


def test_interpolation_rejects_repeated_abscissae():
    # x(s) = s^2 repeats across s = -1, 1
    lat = QuadraticLattice(F(1), F(0), F(0))
    f = GridFunction.sample(Window(S(-1), 3), lambda s: lat.x(s))
    with pytest.raises(DegenerateAbscissae):
        polynomial_coefficients(lat, f, 2)
