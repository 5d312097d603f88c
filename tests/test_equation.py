import random
from fractions import Fraction as F

import pytest

from hyperlat import (
    GridFunction,
    HalfInt,
    HyperEquation,
    PearsonSingularity,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    admissibility_violation,
    apply_L,
    delta_k,
    lambda_n,
    mu_k,
    pearson_weight,
    rho_k,
    sigma_of_s,
    tau_k,
    tau_of_s,
)
from tests.conftest import qq_a, qq_b, quad_a

S = HalfInt.from_int


def test_sigma_of_s_examples():
    # tau~ = 0 leaves just sigma~(x(s))
    lat = QuadraticLattice(F(1), F(2), F(1))
    eq = HyperEquation(lat, (F(2), F(0), F(1)), (F(0), F(0)))
    s = S(3)
    assert sigma_of_s(eq, s) == eq.sigma_tilde(lat.x(s))
    # x(s) = s^2, sigma~ = x, tau~ = 1: sigma(s) = s^2 - s
    lat2 = QuadraticLattice(F(1), F(0), F(0), allow_degenerate=True)
    eq2 = HyperEquation(lat2, (F(0), F(1), F(0)), (F(1), F(0)))
    for v in (1, 2, 5):
        assert sigma_of_s(eq2, S(v)) == v * v - v
    # constant sigma~ on the q-lattice
    lat3 = QQuadraticLattice(F(2), F(1), F(1), F(0))
    eq3 = HyperEquation(lat3, (F(1), F(0), F(0)), (F(0), F(0)))
    assert sigma_of_s(eq3, HalfInt(5)) == 1


def test_tau_of_s_examples():
    lat = QuadraticLattice(F(1), F(0), F(0), allow_degenerate=True)
    eq = HyperEquation(lat, (F(0), F(1), F(0)), (F(3), F(2)))
    assert tau_of_s(eq, S(2)) == 11
    eq0 = HyperEquation(lat, (F(0), F(1), F(0)), (F(0), F(0)))
    assert tau_of_s(eq0, S(7)) == 0
    latq = QQuadraticLattice(F(2), F(1), F(1), F(0))
    eqq = HyperEquation(latq, (F(0), F(1), F(0)), (F(0), F(1)))
    assert tau_of_s(eqq, S(1)) == F(17, 4)


def test_tau_k_reduces_to_tau_at_level_zero(equation):
    for twice in range(6, 14, 2):
        s = HalfInt(twice)
        assert tau_k(equation, 0, s) == tau_of_s(equation, s)


def test_tau_k_affine_drift_is_constant(equation):
    # tau_k(s) - kappa_{2k+1} x_k(s) takes the same value at every s
    for k in range(-4, 5):
        kap = equation.kappa(2 * k + 1)
        drift = {tau_k(equation, k, HalfInt(t)) - kap * equation.lattice.x_k(k, HalfInt(t))
                 for t in range(8, 16, 2)}
        assert len(drift) == 1


def test_tau_k_slope_example():
    eq = HyperEquation(QuadraticLattice(F(1), F(1), F(0)),
                       (F(0), F(0), F(0)), (F(0), F(1)))
    s = S(3)
    slope = ((tau_k(eq, 1, s + 1) - tau_k(eq, 1, s))
             / (eq.lattice.x_k(1, s + 1) - eq.lattice.x_k(1, s)))
    assert slope == 1           # kappa_3 = alpha(2) tau~' = 1 on this family


def test_tau_nu_hand_evaluated_quotient():
    # x(s) = s^2, sigma~ = x, tau~ = 0, nu = 2, s = 1:
    # [sigma(3) - sigma(1)] / (x(5/2) - x(3/2)) = 8 / 4
    lat = QuadraticLattice(F(1), F(0), F(0), allow_degenerate=True)
    eq = HyperEquation(lat, (F(0), F(1), F(0)), (F(0), F(0)))
    assert tau_k(eq, 2, S(1)) == 2


def mu_sum_oracle(eq, k, s):
    """lambda + sum_{j<k} delta_j tau_j(s) through grid differences."""
    total = eq.lam
    for j in range(k):
        step = eq.lattice.delta_x(j, s)
        total += (tau_k(eq, j, s + 1) - tau_k(eq, j, s)) / step
    return total


def test_mu_k_examples_and_oracle():
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(0), F(0), F(0)), (F(0), F(1)))
    assert mu_k(eq, 0) == eq.lam
    assert mu_k(eq, 3) == 3
    assert mu_k(eq, 3) == mu_sum_oracle(eq, 3, S(5))
    latq = QQuadraticLattice(F(2), F(1), F(1), F(0))
    eqq = HyperEquation(latq, (F(0), F(0), F(1)), (F(0), F(0)), lam=F(1))
    assert mu_k(eqq, 2) == F(7, 2)
    assert mu_k(eqq, 2) == mu_sum_oracle(eqq, 2, S(4))


def test_mu_k_matches_sum_oracle(equation):
    for k in range(9):
        assert mu_k(equation, k) == mu_sum_oracle(equation, k, S(5))


def test_lambda_n_examples():
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(0), F(0), F(1)), (F(0), F(0)))
    assert lambda_n(eq, 0) == 0
    assert lambda_n(eq, 3) == -6
    eq2 = HyperEquation(lat, (F(0), F(0), F(0)), (F(2), F(-5)))
    assert lambda_n(eq2, 1) == 5            # -tau~'
    # the eigenvalue makes mu_n vanish
    for n in range(6):
        assert mu_k(eq.with_lambda(lambda_n(eq, n)), n) == 0


def test_admissibility_predicate():
    # lambda_n = -n(n-2) collides: lambda_2 = lambda_0 = 0
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(0), F(0), F(1)), (F(0), F(-1)))
    assert admissibility_violation(eq, 2) == 0
    assert admissibility_violation(eq, 1) is None
    good = quad_a()
    assert all(admissibility_violation(good, n) is None for n in range(8))


def test_pearson_constant_coefficients():
    for base in (quad_a(), qq_a()):
        eq = HyperEquation(base.lattice, (F(1), F(0), F(0)), (F(0), F(0)))
        weight = pearson_weight(eq, Window(S(1), 7), S(3))
        assert weight.rho.values == (F(1),) * 7


def test_pearson_residual_oracle(equation, window):
    weight = pearson_weight(equation, window, window.start + 2)
    assert weight.value_at(window.start + 2) == 1
    rho = weight.rho
    sigma_rho = GridFunction.sample(window, lambda s: sigma_of_s(equation, s)) * rho
    tau_rho = GridFunction.sample(window, lambda s: tau_of_s(equation, s)) * rho
    lhs = delta_k(equation.lattice, -1, sigma_rho)
    residual = lhs - tau_rho.restrict(lhs.window)
    assert residual.is_zero()


def test_pearson_singularity_named():
    # x(s) = s(s+1), sigma~ = x - 2, tau~ = 0: sigma(s) = (s+2)(s-1),
    # so the forward step dividing by sigma(1) blows up
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(-2), F(1), F(0)), (F(0), F(0)))
    assert sigma_of_s(eq, S(1)) == 0
    with pytest.raises(PearsonSingularity) as err:
        pearson_weight(eq, Window(S(-1), 6), S(0))
    assert err.value.point == S(1)


@pytest.mark.parametrize("window, anchor, point, message", [
    # forward: sigma*(2) = sigma(1) = 0 over sigma(2) = 4
    (Window(S(1), 3), S(1), S(2), "weight vanishes at s=2"),
    # backward from s = 2: its divisor sigma*(2) = sigma(1) is zero
    (Window(S(0), 4), S(2), S(1), "backward Pearson step vanishes at s=1"),
    # backward from s = 1: sigma(1) = 0 over sigma*(1) = sigma(0) = -2
    (Window(S(-1), 3), S(1), S(0), "weight vanishes at s=0"),
])
def test_pearson_zero_weight_and_backward_step_named(window, anchor, point, message):
    # the lattice and sigma(s) = (s+2)(s-1) above; tau~ = 0 makes sigma*(s) = sigma(s-1)
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(-2), F(1), F(0)), (F(0), F(0)))
    with pytest.raises(PearsonSingularity, match=message) as err:
        pearson_weight(eq, window, anchor)
    assert err.value.point == point


def test_rho_k_values_and_identity(equation):
    window = Window(S(3), 10)
    weight = pearson_weight(equation, window.expand(0, 5), S(4))
    s = S(5)
    assert rho_k(equation, weight, 0, s) == weight.value_at(s)
    assert rho_k(equation, weight, 1, s) == (weight.value_at(s + 1)
                                             * sigma_of_s(equation, s + 1))
    # level-k Pearson identity with sigma_k = sigma
    for k in (1, 2, 3):
        grid = GridFunction.sample(window, lambda t, k=k: rho_k(equation, weight, k, t))
        sigma_grid = GridFunction.sample(window, lambda t: sigma_of_s(equation, t))
        lhs = delta_k(equation.lattice, k - 1, sigma_grid * grid)
        for t in lhs.points():
            assert lhs.value_at(t) == tau_k(equation, k, t) * grid.value_at(t)


def test_apply_L_kills_constants():
    eq = quad_a().with_lambda(F(0))
    y = GridFunction(S(2), (F(4),) * 6)
    assert apply_L(eq, y).is_zero()


def test_apply_L_matches_three_point_stencil(equation):
    rng = random.Random(11)
    y = GridFunction(S(3), tuple(F(rng.randint(-9, 9), rng.randint(1, 5))
                                 for _ in range(7)))
    eq = equation.with_lambda(F(5, 3))
    lat = eq.lattice
    out = apply_L(eq, y)
    assert out.start == y.start + 1 and len(out) == len(y) - 2
    for s in out.points():
        # independent stencil: written directly from the raw differences
        nab = lambda t: (y.value_at(t) - y.value_at(t - 1)) / (lat.x(t) - lat.x(t - 1))
        second = (nab(s + 1) - nab(s)) / (lat.x_k(-1, s + 1) - lat.x_k(-1, s))
        first = (y.value_at(s + 1) - y.value_at(s)) / (lat.x(s + 1) - lat.x(s))
        expect = (sigma_of_s(eq, s) * second + tau_of_s(eq, s) * first
                  + eq.lam * y.value_at(s))
        assert out.value_at(s) == expect


@pytest.mark.parametrize("j", [1, 21, 42])
def test_a_perturbed_value_moves_the_residual_at_its_point_and_neighbours_only(j):
    # a 44-point second-kind solution on qq-b, n = 8, with values of about
    # 20k bits: L is a three-term operator, so changing y(s0) moves L[y] at
    # s0 - 1, s0 and s0 + 1 and nowhere else, whatever the denominators
    from hyperlat import solve

    eq = qq_b()
    report = solve(eq, 8, Window(S(12), 44), "second")
    eq = eq.with_lambda(report.lam_n)
    y = report.solution
    assert apply_L(eq, y).is_zero()
    s0 = y.start + j
    bumped = GridFunction(y.start, tuple(
        v + F(1, 7 ** 50) if s == s0 else v for s, v in y.items()))
    residual = apply_L(eq, bumped)
    assert {s for s, v in residual.items() if v != 0} == {
        s for s in (s0 - 1, s0, s0 + 1) if s in residual.window}


def test_self_adjoint_form_residual(equation, window):
    # for a solution y, delta_{-1}[sigma rho nabla_0 y] + lambda rho y = 0
    from hyperlat import nabla_k, solve

    n = 2
    weight = pearson_weight(equation, window, window.start)
    report = solve(equation, n, window)
    eq = equation.with_lambda(report.lam_n)
    y = report.solution
    inner = nabla_k(eq.lattice, 0, y)
    sigma_rho = GridFunction.sample(inner.window, lambda s: sigma_of_s(eq, s))
    product = sigma_rho * weight.rho.restrict(inner.window) * inner
    lhs = delta_k(eq.lattice, -1, product)
    for s in lhs.points():
        assert lhs.value_at(s) + eq.lam * weight.value_at(s) * y.value_at(s) == 0
