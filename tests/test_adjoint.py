import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperlat import (
    GridFunction,
    HalfInt,
    HyperEquation,
    NonConstantLambdaStar,
    QuadraticLattice,
    Window,
    adjoint_coeffs,
    apply_L,
    apply_L_star,
    delta_k,
    dual_coefficients,
    hat_mu_n,
    hat_tau_k,
    iterated_delta,
    lambda_n,
    lambda_star,
    nabla_k,
    parse_problem,
    pearson_weight,
    run_identity_suite,
    sigma_of_s,
    sigma_star,
    tau_k,
    tau_of_s,
    tau_star,
)
from hyperlat import cli

S = HalfInt.from_int

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def adjoint(equation):
    return adjoint_coeffs(equation.with_lambda(F(7, 3)), Window(S(3), 8))


def test_constant_case_is_self_adjoint():
    lat = QuadraticLattice(F(1), F(2), F(1))
    eq = HyperEquation(lat, (F(1), F(0), F(0)), (F(0), F(0)), lam=F(4))
    coeffs = adjoint_coeffs(eq, Window(S(2), 6))
    assert all(v == 1 for v in coeffs.sigma_star.values)
    assert coeffs.tau_star.is_zero()
    assert coeffs.lambda_star == eq.lam


def test_tau_star_is_minus_tau_minus_two(equation, adjoint):
    eq = equation.with_lambda(F(7, 3))
    for s in adjoint.tau_star.points():
        assert adjoint.tau_star.value_at(s) == -tau_k(eq, -2, s + 1)


def test_lambda_star_closed_form(equation):
    eq = equation.with_lambda(F(7, 3))
    assert lambda_star(eq) == eq.lam - eq.kappa(-1)


def test_adjoint_intertwines_weight(equation, window):
    eq = equation.with_lambda(F(-3, 2))
    weight = pearson_weight(eq, window, window.start)
    rng = random.Random(13)
    for _ in range(5):
        y = GridFunction(window.start, tuple(
            F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)))
        lhs = apply_L_star(eq, weight.rho.restrict(y.window) * y)
        rhs = weight.rho.restrict(lhs.window) * apply_L(eq, y)
        assert (lhs - rhs).is_zero()


def test_apply_L_star_zero_input(equation):
    eq = equation.with_lambda(F(1))
    w = GridFunction(S(4), (F(0),) * 5)
    assert apply_L_star(eq, w).is_zero()


def test_rewritten_adjoint_stencil(equation):
    # sigma(s+1) delta_{-1} nabla_0 w - tau_{-2}(s+1) nabla_0 w + (lam - kappa_{-1}) w
    eq = equation.with_lambda(F(2))
    lat = eq.lattice
    rng = random.Random(17)
    w = GridFunction(S(3), tuple(F(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(8)))
    via_star = apply_L_star(eq, w)
    inner = nabla_k(lat, 0, w)
    second = delta_k(lat, -1, inner)
    lam_rewritten = eq.lam - eq.kappa(-1)
    for s in second.points():
        rewritten = (sigma_of_s(eq, s + 1) * second.value_at(s)
                     - tau_k(eq, -2, s + 1) * inner.value_at(s)
                     + lam_rewritten * w.value_at(s))
        assert via_star.value_at(s) == rewritten


def test_dual_reconstruction(equation):
    eq = equation.with_lambda(F(11, 7))
    for twice in range(6, 16, 2):
        s = HalfInt(twice)
        sig, tau, lam = dual_coefficients(eq, s)
        assert sig == sigma_of_s(eq, s)
        assert tau == tau_of_s(eq, s)
        assert lam == eq.lam


def test_adjoint_sigma_tilde_star_is_quadratic(equation):
    # sigma~*(s) = sigma(s+1) + tau_{-2}(s+1) delta x_{-1}(s) / 2 must be a
    # polynomial of degree <= 2 in x(s): three forward differences kill it
    eq = equation
    lat = eq.lattice

    def value(s):
        return sigma_of_s(eq, s + 1) + tau_k(eq, -2, s + 1) * lat.delta_x(-1, s) / 2

    grid = GridFunction.sample(Window(S(3), 7), value)
    assert iterated_delta(lat, 0, 3, grid).is_zero()


def test_hat_tau_at_k_equals_n_is_tau_star(equation):
    for n in (1, 2, 4):
        for twice in range(6, 12, 2):
            s = HalfInt(twice)
            assert hat_tau_k(equation, n, n, s) == tau_star(equation, s)


def test_hat_tau_affine_drift_constant(equation):
    # hat_tau_k(s) + kappa_{2(n-k-2)+1} x_{k-n}(s) is independent of s
    lat = equation.lattice
    for n in (1, 2, 3):
        for k in range(n + 1):
            kap = equation.kappa(2 * (n - k - 2) + 1)
            drift = {hat_tau_k(equation, n, k, HalfInt(t))
                     + kap * lat.x_k(k - n, HalfInt(t))
                     for t in range(8, 16, 2)}
            assert len(drift) == 1


def test_hat_tau_small_index_case():
    # n = 1, k = 0 reduces to -tau_{-1}(s)
    eq = HyperEquation(QuadraticLattice(F(1), F(1), F(0)),
                       (F(0), F(1), F(0)), (F(1), F(-2)))
    for twice in (6, 8, 10):
        s = HalfInt(twice)
        assert hat_tau_k(eq, 1, 0, s) == -tau_k(eq, -1, s)


def test_hat_mu_examples():
    lat = QuadraticLattice(F(1), F(1), F(0))
    eq = HyperEquation(lat, (F(0), F(0), F(0)), (F(0), F(1)))
    assert hat_mu_n(eq, 2) == -3
    eq0 = HyperEquation(lat, (F(0), F(0), F(0)), (F(5), F(0)))
    assert hat_mu_n(eq0, 1) == 0


def test_hat_mu_equals_lambda_star_at_lambda_n(equation):
    for n in range(1, 7):
        eq_n = equation.with_lambda(lambda_n(equation, n))
        assert hat_mu_n(eq_n, n) == lambda_star(eq_n)


def test_hat_mu_both_closed_forms(equation):
    lat = equation.lattice
    for n in range(1, 8):
        value = hat_mu_n(equation, n)
        assert value == -equation.kappa(n - 1) * lat.nu(n + 1)
        assert value == -equation.kappa(-1) - equation.kappa(n) * lat.nu(n)


def test_sigma_star_pointwise_definition(equation):
    lat = equation.lattice
    for twice in range(6, 12, 2):
        s = HalfInt(twice)
        assert sigma_star(equation, s) == (sigma_of_s(equation, s - 1)
                                           + tau_of_s(equation, s - 1) * lat.nabla_x(-1, s))


@pytest.fixture
def wrong_kappa_minus_one(monkeypatch):
    """Put kappa_{-1} off by 1/7, so lambda - kappa_{-1} is no longer lambda*."""
    kappa = HyperEquation.kappa
    monkeypatch.setattr(HyperEquation, "kappa",
                        lambda eq, mu: kappa(eq, mu) + (F(1, 7) if mu == -1 else 0))


def _named_point(exc) -> str:
    return re.search(r"at s=(\S+)$", str(exc)).group(1)


def test_lambda_star_is_checked_where_it_is_used(equation, wrong_kappa_minus_one):
    window = Window(S(4), 6)
    points = {str(s) for s in window.points()}
    with pytest.raises(NonConstantLambdaStar) as exc:
        adjoint_coeffs(equation, window)
    assert _named_point(exc.value) in points
    w = pearson_weight(equation, window, window.start).rho
    with pytest.raises(NonConstantLambdaStar) as exc:
        apply_L_star(equation, w)
    assert _named_point(exc.value) in points - {str(window.start), str(window.end)}
    with pytest.raises(NonConstantLambdaStar) as exc:
        dual_coefficients(equation, S(5))
    assert _named_point(exc.value) == "5"


def test_wrong_lambda_star_fails_adjoint_and_verify(wrong_kappa_minus_one, capsys):
    spec = DEMOS / "quadratic.spec"
    assert cli.main(["adjoint", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("identity failure: ") and "Traceback" not in err
    results = {r.name: r for r in run_identity_suite(parse_problem(spec.read_text()))}
    for name in ("lambda-star-closed-form", "hat-mu-is-lambda-star"):
        assert not results[name].passed
        assert results[name].detail.startswith("NonConstantLambdaStar: ")
