import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlat import (
    GridFunction,
    HalfInt,
    HyperEquation,
    HyperlatError,
    NonConstantLambdaStar,
    QuadraticLattice,
    Window,
    adjoint_coeffs,
    apply_L,
    apply_L_star,
    delta_k,
    hat_mu_n,
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
    tau_k_line,
    tau_of_s,
    tau_star,
)
from hyperlat import cli
from hyperlat import equation as eqn
from tests.conftest import quad_a
from tests.test_kernels import lattices_and_starts, small

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
    back = eqn.adjoint(eqn.adjoint(eq))
    assert back == eq
    for twice in range(6, 16, 2):
        s = HalfInt(twice)
        assert back.sigma_at(twice) == sigma_of_s(eq, s)
        assert back.tau_at(twice) == tau_of_s(eq, s)


def test_adjoint_sigma_tilde_star_is_quadratic(equation):
    # sigma~*(s) = sigma(s+1) + tau_{-2}(s+1) delta x_{-1}(s) / 2 must be a
    # polynomial of degree <= 2 in x(s): three forward differences kill it
    eq = equation
    lat = eq.lattice

    def value(s):
        return sigma_of_s(eq, s + 1) + tau_k(eq, -2, s + 1) * lat.delta_x(-1, s) / 2

    grid = GridFunction.sample(Window(S(3), 7), value)
    assert iterated_delta(lat, 0, 3, grid).is_zero()


def hat_tau(eq, n, k, s):
    """The ladder coefficient of the equation of the weight product Y_n,
    hat_tau_k(s) = -tau_{n-k-2}(s+k-n+1), from its explicit quotient
    [sigma(s+k-n+1) - sigma(s-1) - tau(s-1) nabla x_{-1}(s)] / delta x_{k-n-1}(s)."""
    lat = eq.lattice
    return ((sigma_of_s(eq, s + k - n + 1) - sigma_of_s(eq, s - 1)
             - tau_of_s(eq, s - 1) * lat.nabla_x(-1, s)) / lat.delta_x(k - n - 1, s))


def test_hat_tau_at_k_equals_n_is_tau_star(equation):
    for n in (1, 2, 4):
        for twice in range(6, 12, 2):
            s = HalfInt(twice)
            assert hat_tau(equation, n, n, s) == tau_star(equation, s)


def test_hat_tau_affine_drift_constant(equation):
    # hat_tau_k(s) + kappa_{2(n-k-2)+1} x_{k-n}(s) is independent of s
    lat = equation.lattice
    for n in (1, 2, 3):
        for k in range(n + 1):
            kap = equation.kappa(2 * (n - k - 2) + 1)
            drift = {hat_tau(equation, n, k, HalfInt(t))
                     + kap * lat.x_k(k - n, HalfInt(t))
                     for t in range(8, 16, 2)}
            assert len(drift) == 1


def test_hat_tau_small_index_case():
    # n = 1, k = 0 reduces to -tau_{-1}(s)
    eq = HyperEquation(QuadraticLattice(F(1), F(1), F(0)),
                       (F(0), F(1), F(0)), (F(1), F(-2)))
    for twice in (6, 8, 10):
        s = HalfInt(twice)
        assert hat_tau(eq, 1, 0, s) == -tau_k(eq, -1, s)


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


def test_adjoint_coeffs_write_sigma_star_out_only_at_its_form_nodes(monkeypatch):
    """tau* and the lambda* check read the sigma* table: on a fresh quad-a
    equation and a 12-point window, sigma* is written out only at the 7
    nodes of its integer form (2s = -3..3)."""
    calls = []
    adjoint_sigma = eqn._adjoint_sigma
    monkeypatch.setattr(eqn, "_adjoint_sigma",
                        lambda *args: calls.append(args[-1]) or adjoint_sigma(*args))
    adjoint_coeffs(quad_a(), Window(S(4), 12))
    assert len(calls) <= 7


@pytest.fixture
def wrong_kappa_minus_one(monkeypatch):
    """Put kappa_{-1} off by 1/7, so lambda - kappa_{-1} is no longer lambda*."""
    kappa = HyperEquation.kappa
    monkeypatch.setattr(HyperEquation, "kappa",
                        lambda eq, mu: kappa(eq, mu) + (F(1, 7) if mu == -1 else 0))


LAMBDA_STAR_FAILURE = "lambda* != lambda - kappa_-1: tau_-1 is not the line of slope kappa_-1"


def test_lambda_star_is_checked_where_it_is_used(equation, wrong_kappa_minus_one):
    """The adjoint's build checks line -1 on the whole lattice, so the
    adjoint and every reader of it raise one error, which names no point."""
    assert tau_k_line(equation, -1) is None
    window = Window(S(4), 6)
    w = pearson_weight(equation, window, window.start).rho
    for read in (eqn.adjoint, lambda eq: adjoint_coeffs(eq, window),
                 lambda eq: apply_L_star(eq, w)):
        with pytest.raises(NonConstantLambdaStar) as exc:
            read(equation)
        assert str(exc.value) == LAMBDA_STAR_FAILURE


def test_wrong_lambda_star_fails_adjoint_and_verify(wrong_kappa_minus_one, capsys):
    spec = DEMOS / "quadratic.spec"
    assert cli.main(["adjoint", "--spec", str(spec)]) == 1
    assert capsys.readouterr() == ("", f"identity failure: {LAMBDA_STAR_FAILURE}\n")
    results = {r.name: r for r in run_identity_suite(parse_problem(spec.read_text()))}
    # line -1 read directly, and hat_mu_n against lambda* at lambda_n
    assert results["tau-k-slope"].detail == "tau_-1 slope != kappa_-1"
    assert results["hat-mu-is-lambda-star"].detail.startswith("NonConstantLambdaStar: ")
    # the adjoint is not built, so its involution fails on the build's error
    assert results["dual-reconstruction"].detail == f"NonConstantLambdaStar: {LAMBDA_STAR_FAILURE}"


def test_a_broken_adjoint_fails_its_identities_without_a_traceback(monkeypatch, capsys):
    """With the slope of tau~* off (kappa_{-3} off by 1/5), the adjoint's
    form check raises AssertionError; verify prints it as a FAIL line of
    each identity that builds the adjoint and runs the others."""
    kappa = HyperEquation.kappa
    monkeypatch.setattr(HyperEquation, "kappa",
                        lambda eq, mu: kappa(eq, mu) + (F(1, 5) if mu == -3 else 0))
    assert cli.main(["verify", "--spec", str(DEMOS / "quadratic.spec")]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = {line.split()[1].rstrip(":"): line for line in out.splitlines()[:-1]}
    assert len(lines) == 29
    assert lines["dual-reconstruction"].startswith("FAIL dual-reconstruction: AssertionError: ")
    assert lines["suslov-alpha-sum"] == "PASS suslov-alpha-sum"


def test_a_broken_adjoint_ends_the_adjoint_command_in_one_line(monkeypatch, capsys):
    """With the slope of tau~* off, the adjoint's form check raises
    AssertionError; ``hyperlat adjoint`` prints one ``identity failure``
    line, no output and no traceback, and exits 1."""
    kappa = HyperEquation.kappa
    monkeypatch.setattr(HyperEquation, "kappa",
                        lambda eq, mu: kappa(eq, mu) + (F(1, 5) if mu == -3 else 0))
    assert cli.main(["adjoint", "--spec", str(DEMOS / "quadratic.spec")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("identity failure: the adjoint's sigma and sigma* forms "
                   "are not sigma* and sigma\n")


@settings(max_examples=100, deadline=None)
@given(lattices_and_starts(), st.tuples(small, small, small), st.tuples(small, small), small)
def test_the_adjoint_is_an_equation_of_the_same_type(lattice_start, sigma_t, tau_t, lam):
    """On both families, symmetric lattices included, L* is the equation
    (sigma~*, tau~*, lambda*) on the same lattice: sigma~* (degree <= 2) and
    tau~* (degree <= 1) give sigma*(s) + tau*(s) nabla x_1(s)/2 and tau*(s),
    written here from x_k, on a span around the window, zero steps
    included; tau~*' = -kappa_{-3} and lambda* = lambda - kappa_{-1}; an
    equation built afresh from those coefficients has the sigma form of
    sigma* and the sigma* form of sigma; the adjoint of the adjoint is the
    equation; and its weight times rho is constant."""
    lat, start = lattice_start
    eq = HyperEquation(lat, sigma_t, tau_t, lam)
    adj = eqn.adjoint(eq)
    x = lambda t: lat.x_k(0, HalfInt(t))
    sigma = lambda t: eq.sigma_tilde(x(t)) - eq.tau_tilde(x(t)) * (x(t + 1) - x(t - 1)) / 2
    star = lambda t: sigma(t - 2) + eq.tau_tilde(x(t - 2)) * (x(t - 1) - x(t - 3))
    assert len(adj.sigma_t) == 3 and len(adj.tau_t) == 2
    for t in range(start.twice - 9, start.twice + 10):
        assert adj.sigma_tilde(x(t)) == (star(t) + sigma(t + 2)) / 2
        step = x(t + 1) - x(t - 1)
        if step:
            assert adj.tau_tilde(x(t)) == (sigma(t + 2) - star(t)) / step
    assert adj.tau_t[1] == -eq.kappa(-3) and adj.lam == eq.lam - eq.kappa(-1)
    fresh = HyperEquation(lat, adj.sigma_t, adj.tau_t, adj.lam)
    assert fresh._sigma.form == eq._star.form and fresh._star.form == eq._sigma.form
    assert eqn.adjoint(adj) == eq
    window = Window(start, 8)
    try:
        product = pearson_weight(eq, window, start).rho * pearson_weight(fresh, window, start).rho
    except HyperlatError:
        return
    assert set(product.values) == {1}


def test_a_with_lambda_copy_has_its_own_adjoint(equation):
    eq = equation.with_lambda(F(7, 3))
    first = eqn.adjoint(eq)
    copy = eq.with_lambda(F(-5, 2))
    assert eqn.adjoint(eq) is first
    assert eqn.adjoint(copy) is not first
    assert eqn.adjoint(copy).lam == F(-5, 2) - eq.kappa(-1)
