import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperlat import (
    GridFunction,
    HalfInt,
    OutOfWindow,
    PearsonWeight,
    QQuadraticLattice,
    QuadraticLattice,
    SingularSummand,
    Window,
    Y_n,
    apply_L,
    apply_L_star,
    gamma_ell_eta,
    iterated_delta,
    iterated_nabla,
    lambda_n,
    nabla_k,
    parse_problem,
    pearson_weight,
    rho_k,
    run_identity_suite,
    sigma_of_s,
    sigma_star,
    solve,
    tau_of_s,
    weight_window_for,
)
from hyperlat import equation as equation_module
from hyperlat import solutions

S = HalfInt.from_int
DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture
def weight(equation, window):
    return pearson_weight(equation, weight_window_for(5, window), window.start)


def test_Y_n_small_orders(equation, weight):
    win = Window(S(5), 6)
    y0 = Y_n(equation, weight, 0, win)
    assert y0 == weight.rho.restrict(win)
    y1 = Y_n(equation, weight, 1, win)
    for s in win.points():
        assert y1.value_at(s) == weight.value_at(s) * sigma_of_s(equation, s)


def test_Y_n_satisfies_first_order_equation(equation, weight):
    lat = equation.lattice
    for n in (1, 2, 3):
        win = Window(S(5), 7)
        product = Y_n(equation, weight, n, win)
        grad = nabla_k(lat, -n, product)
        for s in grad.points():
            nxn = lat.nabla_x(-n, s)
            rhs = ((sigma_of_s(equation, s - 1) - sigma_of_s(equation, s - n)) / nxn
                   + tau_of_s(equation, s - 1) * lat.nabla_x(-1, s) / nxn)
            assert sigma_of_s(equation, s - n) * grad.value_at(s) == rhs * product.value_at(s - 1)


def test_rodrigues_order_zero_is_one(equation, window):
    report = solve(equation, 0, window)
    assert report.solution.values == (F(1),) * window.length
    assert report.residual.is_zero()
    assert report.lam_n == 0


def test_rodrigues_order_one_is_tau(equation, window):
    report = solve(equation, 1, window)
    for s in window.points():
        assert report.solution.value_at(s) == tau_of_s(equation, s)


def test_rodrigues_residual_and_degree(equation, window):
    for n in range(6):
        report = solve(equation, n, window)
        assert report.kind == "polynomial"
        assert report.residual.window == window
        assert report.is_exact_solution()
        assert iterated_delta(equation.lattice, 0, n + 1, report.solution).is_zero()
        lowered = iterated_delta(equation.lattice, 0, n, report.solution)
        assert len(set(lowered.values)) == 1 and lowered.values[0] != 0
        assert report.inadmissible_m is None


def test_rodrigues_two_paths_agree(equation, weight):
    lat = equation.lattice
    window = Window(S(5), 7)
    for n in (1, 2, 3):
        via_delta = solve(equation, n, window).solution
        rho_n = GridFunction.sample(window.expand(n, 0),
                                    lambda s, n=n: rho_k(equation, weight, n, s))
        via_nabla = iterated_nabla(lat, n, n, rho_n) / weight.rho.restrict(window)
        assert (via_delta - via_nabla).is_zero()


def test_rodrigues_scale_invariance(equation, weight, window):
    # Y_n rescales with the weight (the scale cancels only in y)
    scaled = PearsonWeight(F(-7, 2) * weight.rho)
    assert (Y_n(equation, scaled, 2, window)
            - F(-7, 2) * Y_n(equation, weight, 2, window)).is_zero()


def test_wrong_lambda_residual_is_nonzero(equation, window):
    report = solve(equation, 2, window, residual_lam=F(999))
    assert not report.is_exact_solution()
    assert report.residual_lam == F(999)


def test_second_solution_residual_and_independence(equation, window):
    for n in range(4):
        report = solve(equation, n, window, "second")
        assert report.kind == "second_kind"
        assert report.is_exact_solution()
        assert not iterated_delta(equation.lattice, 0, n + 1, report.solution).is_zero()
        assert report.sum_base is not None


def test_second_solution_first_order_constancy(equation, weight):
    # with u1 = Y_n, the companion u2 = Y_n * C keeps
    # p1(s) nabla_{-n} u2 - p0(s) u2(s-1) constant in s
    lat = equation.lattice
    n = 2
    win = Window(S(5), 8)
    u1 = Y_n(equation, weight, n, win)
    factor = GridFunction.sample(win, lambda s: F(0))
    # rebuild the integral factor from its definition
    from hyperlat import cumulative_nabla_sum

    def summand(t):
        den = weight.value_at(t)
        for j in range(n + 1):
            den *= sigma_of_s(equation, t - j)
        return 1 / den

    g = GridFunction.sample(win, summand)
    factor = cumulative_nabla_sum(lat, -n, g, win.start)
    u2 = u1 * factor
    grad = nabla_k(lat, -n, u2)
    constants = set()
    for s in grad.points():
        nxn = lat.nabla_x(-n, s)
        p1 = sigma_of_s(equation, s - n)
        p0 = ((sigma_of_s(equation, s - 1) - sigma_of_s(equation, s - n)) / nxn
              + tau_of_s(equation, s - 1) * lat.nabla_x(-1, s) / nxn)
        constants.add(p1 * grad.value_at(s) - p0 * u2.value_at(s - 1))
    assert len(constants) == 1


def test_second_solution_base_shift_is_polynomial_multiple(equation, window):
    n = 2
    poly = solve(equation, n, window).solution
    a = solve(equation, n, window, "second").solution
    b = solve(equation, n, window, "second", N=window.start + 2).solution
    ratios = {(a.value_at(s) - b.value_at(s)) / poly.value_at(s)
              for s in window.points() if poly.value_at(s) != 0}
    assert len(ratios) == 1


def test_solution_combination_still_solves(equation, window):
    n = 3
    poly = solve(equation, n, window)
    second = solve(equation, n, window, "second")
    eq_n = equation.with_lambda(poly.lam_n)
    mix = F(2) * poly.solution + F(-5, 3) * second.solution
    assert apply_L(eq_n, mix).is_zero()


def test_second_sum_base_out_of_window(equation, window):
    with pytest.raises(OutOfWindow):
        solve(equation, 1, window, "second", N=window.start - 10)


def test_singular_summand_named():
    # sigma(s) = (s+2)(s-1) vanishes at s = 1: below the weight window, but
    # the n = 2 summand product sigma(t)sigma(t-1)sigma(t-2) reaches it
    from fractions import Fraction
    from hyperlat import HyperEquation, QuadraticLattice

    lat = QuadraticLattice(Fraction(1), Fraction(1), Fraction(0))
    eq = HyperEquation(lat, (Fraction(-2), Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(0)))
    window = Window(S(4), 6)
    with pytest.raises(SingularSummand) as err:
        solve(eq, 2, window, "second")
    assert err.value.point == S(3)


@pytest.mark.parametrize("zero_of, s0, message", [
    # in the last n points of the weight window, which no kind reads
    (sigma_of_s, 19, "sigma vanishes at s=19"),
    (sigma_star, 20, "weight vanishes at s=20"),
    # at the anchor: the backward step names the point left of it
    (sigma_of_s, 4, "weight vanishes at s=3"),
    (sigma_star, 4, "backward Pearson step vanishes at s=3"),
])
def test_every_kind_names_the_pearson_zero_of_the_whole_weight_window(zero_of, s0, message):
    # quad-a's lattice and tau with sigma~(x) = c + x + x^2/7, c chosen so
    # that sigma or sigma* vanishes at s0, its only zero on the weight window
    # 3..20 of n = 2 on 4..17; the polynomial stencil reads rho on 3..7
    from hyperlat import HyperEquation, PearsonSingularity, QuadraticLattice

    lat = QuadraticLattice(F(1), F(1), F(0))
    c = -zero_of(HyperEquation(lat, (F(0), F(1), F(1, 7)), (F(1), F(-2))), S(s0))
    eq = HyperEquation(lat, (c, F(1), F(1, 7)), (F(1), F(-2)))
    n, window = 2, Window(S(4), 14)
    with pytest.raises(PearsonSingularity) as expected:
        pearson_weight(eq, weight_window_for(n, window), window.start)
    assert str(expected.value) == message
    for kind in ("polynomial", "second", "generalized"):
        with pytest.raises(PearsonSingularity) as err:
            solve(eq, n, window, kind, P=(F(1), F(-1), F(2)))
        assert str(err.value) == message
        assert err.value.point == expected.value.point


def test_integral_kinds_name_the_zero_step_the_whole_window_route_meets():
    # x = s^2 + s - 3 is symmetric about s = -1/2, so delta x_0(-1) = 0: the
    # Casoratian K at the first point would divide by it, while the formula
    # on the whole window does not, and its residual meets it as nabla x_0(0)
    from hyperlat import DegenerateStep, HyperEquation, QuadraticLattice

    eq = HyperEquation(QuadraticLattice(F(1), F(1), F(-3)),
                       (F(9, 4), F(-8, 5), F(-9, 2)), (F(1, 5), F(-9, 7)))
    for kind in ("second", "generalized"):
        with pytest.raises(DegenerateStep) as err:
            solve(eq, 1, Window(S(0), 7), kind, P=(F(1), F(2)))
        assert str(err.value) == "zero step of x_0 at s=0"


def test_solve_makes_no_copy_of_the_equation(equation, window, monkeypatch):
    # the residual takes its lambda from solve's own arguments
    from hyperlat import HyperEquation

    def copy(self, lam):
        raise AssertionError("solve copied the equation")

    monkeypatch.setattr(HyperEquation, "with_lambda", copy)
    for kind in ("polynomial", "second", "generalized"):
        report = solve(equation, 3, window, kind, P=(F(1), F(-1), F(2), F(1, 3)))
        assert report.is_exact_solution()
        assert report.residual_lam == report.lam_n


@pytest.mark.parametrize("lattice, coeffs, window, message", [
    # x = s^2 + s - 3, symmetric about s = -1/2: delta x_0(-1) = 0
    (QuadraticLattice(F(1), F(1), F(-3)), ((F(9, 4), F(-8, 5), F(-9, 2)), (F(1, 5), F(-9, 7))),
     Window(S(0), 7), "zero step of x_0 at s=0"),
    # q = 9/4, x = q^s + q^-s, symmetric about s = 0: delta x_0(-1/2) = 0
    (QQuadraticLattice(F(3, 2), F(1), F(1), F(0)), ((F(1), F(0), F(1)), (F(2), F(-3))),
     Window(HalfInt(1), 8), "zero step of x_0 at s=1/2"),
], ids=["quadratic", "q-quadratic"])
def test_a_zero_first_step_keeps_the_head(lattice, coeffs, window, message, monkeypatch):
    # delta x_0 vanishes at the first point of the enlarged window, so K is
    # taken at the second, the integral formula runs on the head only, and
    # the residual names the zero step as the whole-window formula's does
    from hyperlat import DegenerateStep, HyperEquation

    eq = HyperEquation(lattice, *coeffs)
    enlarged = window.expand(1, 1)
    spans, real = [], solutions._rodrigues

    def spy(eq, weight, n, window, N=None, P=None):
        if P is not None:
            spans.append(window)
        return real(eq, weight, n, window, N, P)

    monkeypatch.setattr(solutions, "_rodrigues", spy)
    for kind in ("second", "generalized"):
        spans.clear()
        with pytest.raises(DegenerateStep) as err:
            solve(eq, 1, window, kind, P=(F(1), F(2)))
        assert str(err.value) == message
        assert spans and enlarged not in spans


def test_generalized_zero_polynomial(equation, window):
    report = solve(equation, 2, window, "generalized", P=(F(0), F(0), F(0)))
    assert report.solution.is_zero()
    assert report.residual.is_zero()


def test_generalized_constant_matches_second_at_order_zero(equation, window):
    a = solve(equation, 0, window, "generalized", P=(F(1),))
    b = solve(equation, 0, window, "second")
    assert a.solution == b.solution


def test_second_kind_is_the_generalized_formula_at_p_one(equation, window):
    for n in range(5):
        second = solve(equation, n, window, "second")
        general = solve(equation, n, window, "generalized", P=(F(1),) + (F(0),) * n)
        assert second.solution == general.solution
        assert second.residual == general.residual
        assert (second.kind, second.poly, second.sum_base) == ("second_kind", None, S(3))


def test_generalized_random_polynomials(equation, window):
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(3):
            P = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1))
            report = solve(equation, n, window, "generalized", P=P)
            assert report.is_exact_solution()
            assert report.poly == P


def test_generalized_needs_right_coefficient_count(equation, window):
    with pytest.raises(ValueError):
        solve(equation, 2, window, "generalized", P=(F(1), F(2)))


def test_gamma_ell_eta_consistency(equation):
    lat = equation.lattice
    for n in (1, 2, 3):
        etas = set()
        for twice in range(8, 18, 2):
            s = HalfInt(twice)
            gamma, ell, eta = gamma_ell_eta(equation, n, s)
            _, ell_next, _ = gamma_ell_eta(equation, n, s + 1)
            dsig = ((sigma_star(equation, s + 1) - sigma_star(equation, s))
                    / lat.delta_x(-(n + 1), s))
            assert ell_next * lat.delta_x(-n, s) / lat.delta_x(-(n + 1), s) + dsig == gamma
            etas.add(eta)
        assert len(etas) == 1
        assert etas.pop() == -equation.kappa(2 * n - 1)


def test_homogeneous_first_order_solution(equation, weight):
    lat = equation.lattice
    n = 2
    win = Window(S(5), 7)
    v = Y_n(equation, weight, n, win)
    grad = nabla_k(lat, -n, v)
    for s in grad.points():
        _, ell, _ = gamma_ell_eta(equation, n, s)
        assert sigma_star(equation, s) * grad.value_at(s) + ell * v.value_at(s) == 0


def test_weight_product_ladder_solves_adjoint(equation, weight):
    # w = delta_{-n}^(n) Y_n satisfies L*[w] = 0 at lambda = lambda_n
    for n in (1, 2, 3):
        eq_n = equation.with_lambda(lambda_n(equation, n))
        win = Window(S(5), 7 + n)
        w = iterated_delta(eq_n.lattice, -n, n, Y_n(eq_n, weight, n, win))
        assert apply_L_star(eq_n, w).is_zero()


def test_solve_dispatch_and_report_json(equation, window):
    report = solve(equation, 2, window, kind="second")
    payload = report.to_json_dict()
    assert payload["kind"] == "second_kind"
    assert payload["n"] == 2
    assert payload["residual_max_abs"] == "0"
    assert payload["window"] == {"start": str(window.start), "length": window.length}
    assert len(payload["values"]) == window.length
    assert payload["provenance"]["N"] is not None
    with pytest.raises(ValueError):
        solve(equation, 2, window, kind="generalized")   # P missing
    with pytest.raises(ValueError):
        solve(equation, 2, window, kind="nonsense")


def test_solve_makes_and_reads_no_pearson_weight(equation, window, monkeypatch):
    # solve() keeps rho as reduced pairs: with the weight's Fraction view
    # unusable, every kind still returns the same values
    problems = [(n, kind, P) for n in range(5) for kind, P in (
        ("polynomial", None), ("second", None),
        ("generalized", tuple(F(3 - j, j + 1) for j in range(n + 1))))]
    before = [solve(equation, n, window, kind, P=P) for n, kind, P in problems]

    def unusable(*args):
        raise AssertionError("solve() used the Fraction view of the weight")

    monkeypatch.setattr(PearsonWeight, "rho", property(unusable), raising=False)
    monkeypatch.setattr(PearsonWeight, "value_at", unusable)
    fresh = type(equation)(equation.lattice, equation.sigma_t, equation.tau_t)
    for (n, kind, P), report in zip(problems, before):
        again = solve(fresh, n, window, kind, P=P)
        assert (again.solution, again.residual) == (report.solution, report.residual)


def test_verify_solves_each_distinct_problem_once(monkeypatch):
    calls, weights, scans = [], [], []
    real_solve = solutions.solve
    real_weight, real_scan = equation_module.weight_from_steps, equation_module.pearson_steps

    def counted(eq, n, window, kind="polynomial", **options):
        calls.append((n, window, kind, tuple(sorted(options.items()))))
        return real_solve(eq, n, window, kind, **options)

    def counted_weight(steps, window, base):
        weights.append((window, base))
        return real_weight(steps, window, base)

    def counted_scan(eq, window, anchor):
        scans.append((window, anchor))
        return real_scan(eq, window, anchor)

    monkeypatch.setattr(solutions, "solve", counted)
    for module in (solutions, equation_module):
        monkeypatch.setattr(module, "weight_from_steps", counted_weight)
        monkeypatch.setattr(module, "pearson_steps", counted_scan)
    results = run_identity_suite(parse_problem((DEMOS / "qlattice.spec").read_text()))
    assert all(r.passed for r in results)
    assert calls and len(calls) == len(set(calls))
    # one Pearson scan and one weight per solve, and one of each per
    # distinct n (n, n + 3 and 0) that the checks read a weight at
    assert len(scans) == len(weights) == len(calls) + 3


def _meets_zero_step_by_set(lat, n, window):
    """The predicate as first written: every step key of every pass, as a set."""
    first = window.start.twice - n
    twice = {first + 2 * i + j for j in range(n) for i in range(window.length + n - 1 - j)}
    return any(lat.x_at(a + 2) == lat.x_at(a) for a in twice)


def test_meets_zero_step_scans_the_keys_the_passes_read():
    lattices = [
        QuadraticLattice(F(1), F(1), F(0)),        # symmetric about s = -1/2
        QuadraticLattice(F(1), F(0), F(2)),        # symmetric about s = 0
        QuadraticLattice(F(0), F(3, 2), F(1)),     # linear
        QQuadraticLattice(F(2), F(1), F(1), F(0)),   # symmetric about s = 0
        QQuadraticLattice(F(-2), F(1), F(16), F(1)),  # symmetric about s = 1
        QQuadraticLattice(F(3, 2), F(1), F(3), F(0)),  # no centre on the grid
        QQuadraticLattice(F(2), F(0), F(1), F(0)),   # q-linear
    ]
    rng = random.Random(24)
    outcomes = set()
    for _ in range(600):
        lat = rng.choice(lattices)
        n = rng.randint(0, 7)
        window = Window(HalfInt(rng.randint(-16, 12)), rng.randint(1, 10))
        expected = _meets_zero_step_by_set(lat, n, window)
        assert solutions._meets_zero_step(lat, n, window) == expected, (lat, n, window)
        outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["generalized", "quadratic", "qlattice", "qlinear"])
def test_verify_fails_on_a_wrong_integrand_past_the_first_two_head_values(monkeypatch, name):
    """The integral kinds' integrand doubled from product point n + 2 on.
    The first two head values read only the product points before it, so
    they stay right, and so does K: on a head of two points the Casoratian
    recurrence continued them to an exact solution of the right scale, and
    every identity passed.  The third head value reads the wrong point, and
    the residual at the head's interior point must show it."""
    spec = parse_problem((DEMOS / f"{name}.spec").read_text())
    assert all(r.passed for r in run_identity_suite(spec))
    real = solutions.cumulative_nabla_sum

    def wrong(lat, k, g, N):
        reach = 2 - k       # n + 2, on level k = -n
        values = g.values[:reach] + tuple(2 * v for v in g.values[reach:])
        return real(lat, k, GridFunction(g.start, values), N)

    monkeypatch.setattr(solutions, "cumulative_nabla_sum", wrong)
    failed = [r.name for r in run_identity_suite(spec) if not r.passed]
    assert "second-kind-residual" in failed
