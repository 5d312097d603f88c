"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so "zero" means literally zero.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria with a runtime budget assert it.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from hyperlat import (
    GridFunction,
    HalfInt,
    ProblemFormatError,
    ProblemSpec,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    adjoint_coeffs,
    apply_L,
    apply_L_star,
    brute_force_polynomial_oracle,
    cumulative_nabla_sum,
    delta_k,
    dual_coefficients,
    hat_mu_n,
    iterated_delta,
    lambda_n,
    mu_k,
    nabla_k,
    parse_problem,
    parse_problem_bytes,
    parse_problem_with_diagnostics,
    pearson_weight,
    polynomial_coefficients,
    render_problem,
    sigma_of_s,
    solve,
    tau_k,
    tau_star,
)
from tests.conftest import qq_a, qq_b, quad_a, quad_b
from tests.test_problem import DIAGNOSTIC_CORPUS

REPO = Path(__file__).resolve().parent.parent
WINDOW = Window(HalfInt.from_int(4), 12)
CONFIGS = [("quad-a", quad_a), ("quad-b", quad_b), ("qq-a", qq_a), ("qq-b", qq_b)]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_rodrigues_residual():
    with criterion(1, "Rodrigues residual exactly zero, n = 0..5, both families"):
        start = time.monotonic()
        for _, config in CONFIGS:
            eq = config()
            for n in range(6):
                report = solve(eq, n, WINDOW)
                assert report.residual.window.length == 12
                assert report.is_exact_solution(), (n, report.residual_max_abs())
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_second_kind_residual_and_independence():
    with criterion(2, "second-kind residual zero and degree test fails, n = 0..3"):
        start = time.monotonic()
        for _, config in CONFIGS:
            eq = config()
            for n in range(4):
                report = solve(eq, n, WINDOW, "second")
                assert report.is_exact_solution(), (n, report.residual_max_abs())
                lowered = iterated_delta(eq.lattice, 0, n + 1, report.solution)
                assert not lowered.is_zero(), f"n={n} not independent"
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_generalized_rodrigues():
    with criterion(3, "generalized residual zero, n = 1..3, 3 random P each"):
        start = time.monotonic()
        rng = random.Random(314159)
        for _, config in CONFIGS:
            eq = config()
            for n in (1, 2, 3):
                for _ in range(3):
                    P = tuple(F(rng.randint(-9, 9), rng.randint(1, 6))
                              for _ in range(n + 1))
                    report = solve(eq, n, WINDOW, "generalized", P=P)
                    assert report.is_exact_solution(), (n, P)
        elapsed = time.monotonic() - start
        assert elapsed <= 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle agrees with Rodrigues up to scale, n <= 4"):
        for _, config in CONFIGS:
            eq = config()
            for n in range(5):
                report = solve(eq, n, WINDOW)
                mine = polynomial_coefficients(eq.lattice, report.solution, n)
                oracle = brute_force_polynomial_oracle(eq, n)
                scale = next(a / b for a, b in zip(mine, oracle) if b != 0)
                assert scale != 0
                assert all(a == scale * b for a, b in zip(mine, oracle))


def test_criterion_5_closed_form_ladder():
    with criterion(5, "mu_k sum, Suslov sums, tau_k slope: all exact"):
        s = HalfInt.from_int(5)
        for _, config in CONFIGS:
            eq = config()
            lat = eq.lattice
            for k in range(9):
                total = eq.lam
                for j in range(k):
                    total += ((tau_k(eq, j, s + 1) - tau_k(eq, j, s))
                              / lat.delta_x(j, s))
                assert total == mu_k(eq, k)
            for k in range(1, 13):
                assert sum(lat.alpha(2 * j) for j in range(k)) == lat.alpha(k - 1) * lat.nu(k)
                assert sum(lat.nu(2 * j) for j in range(k)) == lat.nu(k - 1) * lat.nu(k)
            for k in range(-6, 7):
                slope = ((tau_k(eq, k, s + 1) - tau_k(eq, k, s))
                         / lat.delta_x(k, s))
                assert slope == eq.kappa(2 * k + 1)


def test_criterion_6_adjoint_suite():
    with criterion(6, "adjoint suite: intertwining, corollaries, duals, hat-mu"):
        rng = random.Random(271828)
        for _, config in CONFIGS:
            eq = config().with_lambda(F(rng.randint(-5, 5), rng.randint(1, 4)))
            lat = eq.lattice
            window = Window(HalfInt.from_int(4), 8)
            weight = pearson_weight(eq, window, window.start)
            for _ in range(20):
                y = GridFunction(window.start, tuple(
                    F(rng.randint(-9, 9), rng.randint(1, 7))
                    for _ in range(window.length)))
                lhs = apply_L_star(eq, weight.rho.restrict(window) * y)
                rhs = weight.rho.restrict(lhs.window) * apply_L(eq, y)
                assert (lhs - rhs).is_zero()
            coeffs = adjoint_coeffs(eq, window)
            for spot in window.points():
                assert coeffs.tau_star.value_at(spot) == -tau_k(eq, -2, spot + 1)
            assert coeffs.lambda_star == eq.lam - eq.kappa(-1)
            for spot in list(window.points())[:4]:
                sig, tau, lam = dual_coefficients(eq, spot)
                assert sig == sigma_of_s(eq, spot)
                assert tau == eq.tau_tilde(lat.x(spot))
                assert lam == eq.lam
            tilde_star = GridFunction.sample(
                window,
                lambda t: sigma_of_s(eq, t + 1)
                + tau_k(eq, -2, t + 1) * lat.delta_x(-1, t) / 2)
            assert iterated_delta(lat, 0, 3, tilde_star).is_zero()
            for n in range(1, 6):
                eq_n = eq.with_lambda(lambda_n(eq, n))
                assert hat_mu_n(eq_n, n) == eq_n.lam - eq_n.kappa(-1)


def test_criterion_7_calculus_suite():
    with criterion(7, "product rules, fundamental theorem, degree lowering"):
        rng = random.Random(161803)
        for lat in (quad_a().lattice, qq_a().lattice):
            window = Window(HalfInt.from_int(3), 7)
            f = GridFunction(window.start, tuple(
                F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(window.length)))
            g = GridFunction(window.start, tuple(
                F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                for _ in range(window.length)))
            for k in (-2, 0, 1):
                dfg, df, dg = (delta_k(lat, k, h) for h in (f * g, f, g))
                nfg, nf, ng = (nabla_k(lat, k, h) for h in (f * g, f, g))
                dq, nq = delta_k(lat, k, f / g), nabla_k(lat, k, f / g)
                for t in dfg.points():
                    assert dfg.value_at(t) == (f.value_at(t + 1) * dg.value_at(t)
                                               + g.value_at(t) * df.value_at(t))
                    assert dq.value_at(t) == ((g.value_at(t + 1) * df.value_at(t)
                                               - f.value_at(t + 1) * dg.value_at(t))
                                              / (g.value_at(t) * g.value_at(t + 1)))
                for t in nfg.points():
                    assert nfg.value_at(t) == (f.value_at(t - 1) * ng.value_at(t)
                                               + g.value_at(t) * nf.value_at(t))
                    assert nq.value_at(t) == ((g.value_at(t - 1) * nf.value_at(t)
                                               - f.value_at(t - 1) * ng.value_at(t))
                                              / (g.value_at(t) * g.value_at(t - 1)))
                cumulative = cumulative_nabla_sum(lat, k, f, window.start + 2)
                recovered = nabla_k(lat, k, cumulative)
                assert recovered == f.restrict(recovered.window)
            for deg in range(6):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(deg)] + [F(rng.randint(1, 5))]
                span = Window(HalfInt.from_int(3), deg + 4)

                def poly(t):
                    x = lat.x(t)
                    acc = F(0)
                    for c in reversed(coeffs):
                        acc = acc * x + c
                    return acc

                sample = GridFunction.sample(span, poly)
                assert iterated_delta(lat, 0, deg + 1, sample).is_zero()
                lowered = iterated_delta(lat, 0, deg, sample)
                assert len(set(lowered.values)) == 1 and lowered.values[0] != 0


def _random_spec(rng: random.Random) -> ProblemSpec:
    if rng.random() < 0.5:
        p = F(rng.choice([2, 3, 5, -2, 7]), rng.choice([1, 2, 3]))
        while p in (0, 1, -1):
            p = F(rng.choice([2, 3, 5]), rng.choice([1, 2]))
        lattice = QQuadraticLattice(
            p, F(rng.choice([1, 2, -1])), F(rng.choice([1, 3, -2])),
            F(rng.randint(-3, 3)))
    else:
        lattice = QuadraticLattice(
            F(rng.choice([1, 2, -1])), F(rng.choice([1, 2, -3])),
            F(rng.randint(-3, 3)))
    n = rng.randint(0, 6)
    start = HalfInt(rng.randint(-12, 12))
    window = Window(start, rng.randint(n + 5, n + 12))
    rational = lambda: F(rng.randint(-12, 12), rng.randint(1, 8))
    return ProblemSpec(
        lattice=lattice,
        sigma_t=(rational(), rational(), rational()),
        tau_t=(rational(), rational()),
        n=n,
        window=window,
        lam=rational() if rng.random() < 0.5 else None,
        sum_base=(start + rng.randint(-2, 4)) if rng.random() < 0.4 else None,
        poly_p=tuple(rational() for _ in range(n + 1)) if rng.random() < 0.4 else None,
    )


def test_criterion_8_parser():
    with criterion(8, "parser round-trip, fuzz totality, diagnostic corpus"):
        rng = random.Random(1729)
        for _ in range(100):
            spec = _random_spec(rng)
            assert parse_problem(render_problem(spec)) == spec
        for _ in range(10_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            try:
                parse_problem_bytes(blob)
            except ProblemFormatError:
                pass
        for text, line, column, message in DIAGNOSTIC_CORPUS:
            spec, diagnostics = parse_problem_with_diagnostics(text)
            assert spec is None
            assert any(d.line == line and d.column == column and d.message == message
                       for d in diagnostics), (text, [str(d) for d in diagnostics])


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "CLI golden outputs and exit-code contract"):
        def run(*args):
            return subprocess.run([sys.executable, "-m", "hyperlat", *args],
                                  capture_output=True, text=True, cwd=REPO)

        golden = REPO / "tests" / "golden"
        for name, args in [
                ("solve_quadratic.csv", ("solve", "--spec", "demos/quadratic.spec")),
                ("solve_qlattice_second.csv",
                 ("solve", "--spec", "demos/qlattice.spec", "--kind", "second")),
                ("verify_quadratic.txt", ("verify", "--spec", "demos/quadratic.spec")),
                ("verify_qlattice.txt", ("verify", "--spec", "demos/qlattice.spec")),
                ("adjoint_quadratic.csv", ("adjoint", "--spec", "demos/quadratic.spec")),
                ("table_qlattice.csv", ("table", "--spec", "demos/qlattice.spec"))]:
            result = run(*args)
            assert result.returncode == 0, (name, result.stderr)
            assert result.stdout == (golden / name).read_text(), name

        wrong = tmp_path / "wrong-lambda.spec"
        wrong.write_text((REPO / "demos" / "quadratic.spec").read_text()
                         + "lambda = 1\n")
        assert run("solve", "--spec", str(wrong)).returncode == 1

        broken = tmp_path / "broken.spec"
        broken.write_text("lattice = quadratic\nn = oops\n")
        assert run("solve", "--spec", str(broken)).returncode == 2

        singular = tmp_path / "singular.spec"
        singular.write_text(
            "lattice = quadratic\nct1 = 1\nct2 = 1\nct3 = 0\n"
            "sigma = -2, 1, 0\ntau = 0, 0\nn = 2\nwindow = -1..10\n")
        assert run("solve", "--spec", str(singular)).returncode == 3
