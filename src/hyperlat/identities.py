"""Named identity checks, parameterized by one problem specification.

Every structural fact the library relies on is re-checked here on the user's
own lattice and coefficients: ladder closed forms against their defining
sums, the adjoint corollaries, the dual reconstruction, the first-order
equation of the weight product, the exactness auxiliaries of the generalized
construction, and the residuals of all three solution families.  The CLI
``verify`` command prints one PASS/FAIL line per identity.

Checks run independently; a failure (including an exception, which degenerate
lattices can legitimately trigger) fails only its own identity and carries
the reason in the detail field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import equation as eqn
from . import solutions as sol
from .errors import HyperlatError
from .grid import (
    GridFunction,
    Window,
    cumulative_nabla_sum,
    delta_k,
    iterated_delta,
    iterated_nabla,
    nabla_k,
)
from .numerics import Scalar, format_rational
from .problem import ProblemSpec


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    detail: str = ""


class _CheckFailed(Exception):
    pass


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise _CheckFailed(message)


def _ensure_zero(value: Scalar, message: str) -> None:
    if value != 0:
        raise _CheckFailed(f"{message} (off by {format_rational(value)})")


@dataclass
class _Ctx:
    spec: ProblemSpec
    eq: eqn.HyperEquation
    rng: random.Random
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def lat(self):
        return self.eq.lattice

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def window(self) -> Window:
        return self.spec.window

    def _once(self, key, build):
        """build() once per key: several checks read the same solution or weight."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def solve(self, n: int, window: Window, kind: str = "polynomial",
              **options) -> sol.SolutionReport:
        """``sol.solve`` on the spec's equation.  An option given as None is
        the default, so it is left out of the key."""
        options = {name: v for name, v in options.items() if v is not None}
        return self._once(("solve", n, window, kind, tuple(sorted(options.items()))),
                          lambda: sol.solve(self.eq, n, window, kind, **options))

    def weight(self, n: int | None = None) -> eqn.PearsonWeight:
        # solve()'s rule for the window enlarged by one point per side: on the
        # shortest window adjoint-product reads 7 points of the n = 0 weight.
        n = self.n if n is None else n
        return self._once(("weight", n), lambda: eqn.pearson_weight(
            self.eq, sol.weight_window_for(n, self.window.expand(1, 1)), self.window.start))

    def random_grid(self, window: Window, nonzero: bool = False) -> GridFunction:
        def draw():
            num = self.rng.randint(1, 9) if nonzero else self.rng.randint(-9, 9)
            sign = self.rng.choice((-1, 1)) if nonzero else 1
            return Fraction(sign * num, self.rng.randint(1, 7))
        return GridFunction(window.start, tuple(draw() for _ in range(window.length)))


# --- lattice scalars -------------------------------------------------------


def _check_suslov_alpha(ctx: _Ctx):
    lat = ctx.lat
    for k in range(1, 13):
        total = sum(lat.alpha(2 * j) for j in range(k))
        _ensure_zero(total - lat.alpha(k - 1) * lat.nu(k), f"alpha sum fails at k={k}")


def _check_suslov_nu(ctx: _Ctx):
    lat = ctx.lat
    for k in range(1, 13):
        total = sum(lat.nu(2 * j) for j in range(k))
        _ensure_zero(total - lat.nu(k - 1) * lat.nu(k), f"nu sum fails at k={k}")


def _check_nu_alpha_symmetry(ctx: _Ctx):
    lat = ctx.lat
    for mu in range(13):
        _ensure_zero(lat.nu(-mu) + lat.nu(mu), f"nu(-{mu}) != -nu({mu})")
        _ensure_zero(lat.alpha(-mu) - lat.alpha(mu), f"alpha(-{mu}) != alpha({mu})")


def _check_mean_shift(ctx: _Ctx):
    lat = ctx.lat
    beta = lat.mean_shift_beta()
    for s in list(ctx.window.points())[:6]:
        lhs = (lat.x(s + 1) + lat.x(s)) / 2
        rhs = lat.alpha(1) * lat.x_at(s.twice + 1) + beta
        _ensure_zero(lhs - rhs, f"midpoint condition fails at s={s}")


def _check_level_shift(ctx: _Ctx):
    # The family formula itself: the lattice table would read one entry for
    # both sides and make the check a tautology.
    lat = ctx.lat
    for k in range(-4, 5):
        for s in list(ctx.window.points())[:5]:
            _ensure_zero(lat.x_k(k, s) - lat.x_k(k + 2, s - 1),
                         f"x_{k}(s) != x_{k + 2}(s-1) at s={s}")


# --- ladder closed forms ---------------------------------------------------


def _check_mu_closed_vs_sum(ctx: _Ctx):
    eq, lat = ctx.eq, ctx.lat
    s = ctx.window.start + 1
    for k in range(9):
        total = eq.lam
        for j in range(k):
            total += lat.delta_quotient(eqn.tau_k(eq, j, s + 1) - eqn.tau_k(eq, j, s), j, s)
        _ensure_zero(total - eqn.mu_k(eq, k), f"mu_{k} sum mismatch")


def _check_tau_k_slope(ctx: _Ctx):
    eq, lat = ctx.eq, ctx.lat
    s = ctx.window.start + 1
    for k in range(-6, 7):
        slope = lat.delta_quotient(eqn.tau_k(eq, k, s + 1) - eqn.tau_k(eq, k, s), k, s)
        _ensure_zero(slope - eq.kappa(2 * k + 1), f"tau_{k} slope != kappa_{2 * k + 1}")


# --- Pearson weight --------------------------------------------------------


def _check_pearson_residual(ctx: _Ctx):
    eq = ctx.eq
    weight = ctx.weight()
    rho = weight.rho
    sigma_rho = GridFunction.sample(rho.window, lambda s: eqn.sigma_of_s(eq, s)) * rho
    lhs = delta_k(ctx.lat, -1, sigma_rho)
    tau = GridFunction.sample(lhs.window, lambda s: eqn.tau_of_s(eq, s))
    rhs = tau * rho.restrict(lhs.window)
    _ensure((lhs - rhs).is_zero(), "Pearson residual is not zero")


def _check_rho_k_pearson(ctx: _Ctx):
    eq = ctx.eq
    weight = ctx.weight(ctx.n + 3)
    base = ctx.window
    for k in range(1, 4):
        grid = GridFunction.sample(base, lambda s, k=k: eqn.rho_k(eq, weight, k, s))
        sigma_grid = GridFunction.sample(base, lambda s: eqn.sigma_of_s(eq, s))
        lhs = delta_k(ctx.lat, k - 1, sigma_grid * grid)
        for s in lhs.points():
            rhs = eqn.tau_k(eq, k, s) * grid.value_at(s)
            _ensure_zero(lhs.value_at(s) - rhs,
                         f"level-{k} Pearson identity fails at s={s}")


# --- grid calculus ---------------------------------------------------------


def _check_product_rules(ctx: _Ctx):
    lat = ctx.lat
    window = Window(ctx.window.start, 6)
    f = ctx.random_grid(window)
    g = ctx.random_grid(window, nonzero=True)
    for k in (-1, 0, 2):
        dfg = delta_k(lat, k, f * g)
        df, dg = delta_k(lat, k, f), delta_k(lat, k, g)
        for j, s in enumerate(dfg.points()):
            expect = f.value_at(s + 1) * dg.values[j] + g.value_at(s) * df.values[j]
            _ensure_zero(dfg.values[j] - expect, f"delta product rule k={k}")
        dq = delta_k(lat, k, f / g)
        for j, s in enumerate(dq.points()):
            expect = ((g.value_at(s + 1) * df.values[j] - f.value_at(s + 1) * dg.values[j])
                      / (g.value_at(s) * g.value_at(s + 1)))
            _ensure_zero(dq.values[j] - expect, f"delta quotient rule k={k}")
        nfg = nabla_k(lat, k, f * g)
        nf, ng = nabla_k(lat, k, f), nabla_k(lat, k, g)
        for j, s in enumerate(nfg.points()):
            expect = f.value_at(s - 1) * ng.values[j] + g.value_at(s) * nf.values[j]
            _ensure_zero(nfg.values[j] - expect, f"nabla product rule k={k}")
        nq = nabla_k(lat, k, f / g)
        for j, s in enumerate(nq.points()):
            expect = ((g.value_at(s - 1) * nf.values[j] - f.value_at(s - 1) * ng.values[j])
                      / (g.value_at(s) * g.value_at(s - 1)))
            _ensure_zero(nq.values[j] - expect, f"nabla quotient rule k={k}")


def _check_fundamental_theorem(ctx: _Ctx):
    lat = ctx.lat
    window = Window(ctx.window.start, 8)
    g = ctx.random_grid(window)
    for k in (-2, 0, 1):
        for base_off in (0, 3):
            cumulative = cumulative_nabla_sum(lat, k, g, window.start + base_off)
            back = nabla_k(lat, k, cumulative)
            _ensure((back - g.restrict(back.window)).is_zero(),
                    f"nabla of the cumulative sum is not g (k={k})")


def _check_telescoping(ctx: _Ctx):
    lat = ctx.lat
    window = Window(ctx.window.start, 8)
    f = ctx.random_grid(window)
    for k in (-1, 0, 2):
        nf = nabla_k(lat, k, f)
        N = window.start + 2
        s = window.start + 6
        total = cumulative_nabla_sum(lat, k, nf, N).value_at(s)
        _ensure_zero(total - (f.value_at(s) - f.value_at(N - 1)),
                     f"telescoped sum is not f(s) - f(N-1) (k={k})")


def _check_degree_lowering(ctx: _Ctx):
    lat = ctx.lat
    for deg in range(6):
        coeffs = [Fraction(ctx.rng.randint(-5, 5), ctx.rng.randint(1, 4))
                  for _ in range(deg)] + [Fraction(ctx.rng.randint(1, 5))]
        for k in (0, -2):
            window = Window(ctx.window.start, deg + 4)

            def poly(s, k=k):
                x = lat.x_at(s.twice + k)
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * x + c
                return acc

            f = GridFunction.sample(window, poly)
            killed = iterated_delta(lat, k, deg + 1, f)
            _ensure(killed.is_zero(), f"degree {deg} not killed at level {k}")
            lowered = iterated_delta(lat, k, deg, f)
            _ensure(len(set(lowered.values)) == 1 and lowered.values[0] != 0,
                    f"degree-{deg} image is not a nonzero constant")


# --- adjoint machinery -----------------------------------------------------


def _check_adjoint_product(ctx: _Ctx):
    eq = ctx.eq
    weight = ctx.weight(0)
    window = Window(ctx.window.start, 7)
    y = ctx.random_grid(window)
    w = weight.rho.restrict(window) * y
    lhs = eqn.apply_L_star(eq, w)
    rhs = weight.rho.restrict(lhs.window) * eqn.apply_L(eq, y)
    _ensure((lhs - rhs).is_zero(), "L*[rho y] != rho L[y]")


def _check_tau_star_closed_form(ctx: _Ctx):
    eq = ctx.eq
    for s in list(ctx.window.points())[:6]:
        _ensure_zero(eqn.tau_star(eq, s) + eqn.tau_k(eq, -2, s + 1),
                     f"tau*(s) != -tau_-2(s+1) at s={s}")


def _check_lambda_star_closed_form(ctx: _Ctx):
    # adjoint_coeffs raises unless lambda* equals lambda - kappa_-1 at every point
    eqn.adjoint_coeffs(ctx.eq, Window(ctx.window.start, 6))


def _check_dual_reconstruction(ctx: _Ctx):
    eq = ctx.eq
    for s in list(ctx.window.points())[:5]:
        sig, tau, lam = eqn.dual_coefficients(eq, s)
        _ensure_zero(sig - eqn.sigma_of_s(eq, s), f"sigma not recovered at s={s}")
        _ensure_zero(tau - eqn.tau_of_s(eq, s), f"tau not recovered at s={s}")
        _ensure_zero(lam - eq.lam, f"lambda not recovered at s={s}")


def _check_sigma_star_degree(ctx: _Ctx):
    eq, lat = ctx.eq, ctx.lat
    window = Window(ctx.window.start, 7)

    def sigma_tilde_star(s):
        return (eqn.sigma_of_s(eq, s + 1)
                + eqn.tau_k(eq, -2, s + 1) * lat.delta_x(-1, s) / 2)

    grid = GridFunction.sample(window, sigma_tilde_star)
    _ensure(iterated_delta(lat, 0, 3, grid).is_zero(),
            "sigma~* is not a polynomial of degree <= 2 in x(s)")


def _check_hat_mu_equals_lambda_star(ctx: _Ctx):
    # hat_mu_n raises unless it equals lambda* at lambda = lambda_n
    for n in range(1, 6):
        eqn.hat_mu_n(ctx.eq, n)


def _check_hat_tau_constancy(ctx: _Ctx):
    eq, lat = ctx.eq, ctx.lat
    n = max(ctx.n, 1)
    pts = list(ctx.window.points())[:4]
    for k in range(n + 1):
        kap = eq.kappa(2 * (n - k - 2) + 1)
        values = {eqn.hat_tau_k(eq, n, k, s) + kap * lat.x_at(s.twice + k - n) for s in pts}
        _ensure(len(values) == 1, f"hat_tau_{k} drift is not constant (n={n})")
    for s in pts:
        _ensure_zero(eqn.hat_tau_k(eq, n, n, s) - eqn.tau_star(eq, s), "hat_tau_n != tau*")


# --- solution families -----------------------------------------------------


def _check_y1_matches_tau(ctx: _Ctx):
    report = ctx.solve(1, ctx.window)
    expected = GridFunction.sample(ctx.window, lambda s: eqn.tau_of_s(ctx.eq, s))
    _ensure((report.solution - expected).is_zero(), "y_1 != tau~(x(s))")


def _check_rodrigues_residual(ctx: _Ctx):
    report = ctx.solve(ctx.n, ctx.window)
    _ensure(report.is_exact_solution(),
            f"polynomial residual max {report.residual_max_abs()}")
    lowered = iterated_delta(ctx.lat, 0, ctx.n + 1,
                             report.solution)
    _ensure(lowered.is_zero(), "polynomial fails the degree test")


def _check_second_kind_residual(ctx: _Ctx):
    report = ctx.solve(ctx.n, ctx.window, "second", N=ctx.spec.sum_base)
    _ensure(report.is_exact_solution(),
            f"second-kind residual max {report.residual_max_abs()}")
    # independence: the Casoratian constant K with the polynomial kind is
    # one nonzero value on the window (rho is anchored where solve() anchors it)
    poly = ctx.solve(ctx.n, ctx.window).solution
    ks = {sol.casoratian(ctx.eq, ctx.weight(), poly, report.solution, s)
          for s in list(ctx.window.points())[:-1]}
    _ensure(len(ks) == 1, "Casoratian not constant")
    _ensure(ks.pop() != 0, "Casoratian vanishes (not independent)")


def _check_solution_linearity(ctx: _Ctx):
    poly = ctx.solve(ctx.n, ctx.window)
    second = ctx.solve(ctx.n, ctx.window, "second")
    mix = 3 * poly.solution + Fraction(-5, 2) * second.solution
    eq_n = ctx.eq.with_lambda(poly.lam_n)
    # one interior point is lost per side when re-applying L to the mix
    _ensure(eqn.apply_L(eq_n, mix).is_zero(),
            "a linear combination of the two solutions is not a solution")


def _check_rodrigues_paths(ctx: _Ctx):
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    weight = ctx.weight(n)
    window = Window(ctx.window.start, 6)
    report = ctx.solve(n, window)
    # backward route: rho_n(s) differenced n times at level n, then /rho
    rho_n = GridFunction.sample(
        window.expand(n, 0), lambda s: eqn.rho_k(eq, weight, n, s))
    back = iterated_nabla(lat, n, n, rho_n) / weight.rho.restrict(window)
    _ensure((back - report.solution).is_zero(),
            "nabla-path Rodrigues differs from the delta path")


def _check_scale_invariance(ctx: _Ctx):
    # the shorter window normalizes rho at start + 1: a rescaling by
    # 1/rho(start + 1) of the weight the full window uses
    n = ctx.n
    shorter = Window(ctx.window.start + 1, ctx.window.length - 1)
    a = ctx.solve(n, ctx.window)
    b = ctx.solve(n, shorter)
    _ensure((a.solution.restrict(shorter) - b.solution).is_zero(),
            "rescaling rho changed the polynomial solution")


def _check_sum_base_shift(ctx: _Ctx):
    n = ctx.n
    poly = ctx.solve(n, ctx.window)
    a = ctx.solve(n, ctx.window, "second")
    b = ctx.solve(n, ctx.window, "second", N=ctx.window.start + 1)
    diff = a.solution - b.solution
    ratios = {diff.value_at(s) / poly.solution.value_at(s)
              for s in diff.points() if poly.solution.value_at(s) != 0}
    _ensure(len(ratios) == 1,
            "moving the sum base did not shift by a multiple of y_n")


def _check_generalized_residual(ctx: _Ctx):
    n = max(ctx.n, 1)
    P = ctx.spec.poly_p
    if P is None or len(P) != n + 1:
        P = tuple(Fraction(j + 1, 2) for j in range(n + 1))
    report = ctx.solve(n, ctx.window, "generalized", P=P)
    _ensure(report.is_exact_solution(),
            f"generalized residual max {report.residual_max_abs()}")


def _check_oracle_agreement(ctx: _Ctx):
    n = min(ctx.n, 4)
    eq = ctx.eq
    report = ctx.solve(n, ctx.window)
    mine = sol.polynomial_coefficients(ctx.lat, report.solution, n)
    oracle = sol.brute_force_polynomial_oracle(eq, n)
    scale = next((a / b for a, b in zip(mine, oracle) if b != 0), None)
    _ensure(scale is not None and scale != 0, "no usable scale between routes")
    for a, b in zip(mine, oracle):
        _ensure_zero(a - scale * b, "oracle coefficients disagree")


def _check_yn_first_order(ctx: _Ctx):
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    weight = ctx.weight()
    window = Window(ctx.window.start, 6)
    product = sol.Y_n(eq, weight, n, window)
    grad = nabla_k(lat, -n, product)
    for s in grad.points():
        p0 = lat.nabla_quotient(eqn.sigma_star(eq, s) - eqn.sigma_of_s(eq, s - n), -n, s)
        lhs = eqn.sigma_of_s(eq, s - n) * grad.value_at(s)
        _ensure_zero(lhs - p0 * product.value_at(s - 1),
                     f"Y_{n} first-order equation fails at s={s}")


def _check_ell_gamma(ctx: _Ctx):
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    for s in list(ctx.window.points())[:5]:
        gamma, _ell, _eta = sol.gamma_ell_eta(eq, n, s)
        _, ell_next, _ = sol.gamma_ell_eta(eq, n, s + 1)
        dsig = lat.delta_quotient(eqn.sigma_star(eq, s + 1) - eqn.sigma_star(eq, s), -(n + 1), s)
        lhs = lat.delta_quotient(ell_next * lat.delta_x(-n, s), -(n + 1), s) + dsig
        _ensure_zero(lhs - gamma, f"ell/gamma consistency fails at s={s}")


def _check_eta_constant(ctx: _Ctx):
    eq, n = ctx.eq, max(ctx.n, 1)
    etas = {sol.gamma_ell_eta(eq, n, s)[2] for s in list(ctx.window.points())[:5]}
    _ensure(len(etas) == 1, "eta varies with s")
    _ensure_zero(etas.pop() + eq.kappa(2 * n - 1), "eta != -kappa_{2n-1}")


def _check_homogeneous_solution(ctx: _Ctx):
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    weight = ctx.weight()
    window = Window(ctx.window.start, 6)
    v = sol.Y_n(eq, weight, n, window)
    grad = nabla_k(lat, -n, v)
    for s in grad.points():
        _gamma, ell, _eta = sol.gamma_ell_eta(eq, n, s)
        _ensure_zero(eqn.sigma_star(eq, s) * grad.value_at(s) + ell * v.value_at(s),
                     f"homogeneous first-order equation fails at s={s}")


def _check_ladder_kills_weight_product(ctx: _Ctx):
    # w = delta_{-n}^(n) Y_n solves the adjoint equation at lambda = lambda_n
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    eq_n = eq.with_lambda(eqn.lambda_n(eq, n))
    weight = ctx.weight()
    window = Window(ctx.window.start, 6 + n)
    w = iterated_delta(lat, -n, n, sol.Y_n(eq_n, weight, n, window))
    _ensure(eqn.apply_L_star(eq_n, w).is_zero(),
            "delta^(n) Y_n does not solve the adjoint equation")


_CHECKS = [
    ("suslov-alpha-sum", _check_suslov_alpha),
    ("suslov-nu-sum", _check_suslov_nu),
    ("nu-alpha-symmetry", _check_nu_alpha_symmetry),
    ("midpoint-condition", _check_mean_shift),
    ("level-shift-identity", _check_level_shift),
    ("mu-closed-form", _check_mu_closed_vs_sum),
    ("tau-k-slope", _check_tau_k_slope),
    ("pearson-residual", _check_pearson_residual),
    ("level-k-pearson", _check_rho_k_pearson),
    ("product-rules", _check_product_rules),
    ("fundamental-theorem", _check_fundamental_theorem),
    ("telescoping-sum", _check_telescoping),
    ("degree-lowering", _check_degree_lowering),
    ("adjoint-product", _check_adjoint_product),
    ("tau-star-closed-form", _check_tau_star_closed_form),
    ("lambda-star-closed-form", _check_lambda_star_closed_form),
    ("dual-reconstruction", _check_dual_reconstruction),
    ("sigma-star-degree", _check_sigma_star_degree),
    ("hat-mu-is-lambda-star", _check_hat_mu_equals_lambda_star),
    ("hat-tau-constancy", _check_hat_tau_constancy),
    ("weight-product-ladder", _check_ladder_kills_weight_product),
    ("y1-is-tau", _check_y1_matches_tau),
    ("rodrigues-residual", _check_rodrigues_residual),
    ("second-kind-residual", _check_second_kind_residual),
    ("solution-linearity", _check_solution_linearity),
    ("rodrigues-two-paths", _check_rodrigues_paths),
    ("weight-scale-invariance", _check_scale_invariance),
    ("sum-base-shift", _check_sum_base_shift),
    ("generalized-residual", _check_generalized_residual),
    ("oracle-agreement", _check_oracle_agreement),
    ("weight-first-order", _check_yn_first_order),
    ("ell-gamma-consistency", _check_ell_gamma),
    ("eta-constancy", _check_eta_constant),
    ("homogeneous-solution", _check_homogeneous_solution),
]


def identity_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_identity_suite(spec: ProblemSpec) -> list[IdentityResult]:
    ctx = _Ctx(spec=spec, eq=spec.equation(), rng=random.Random(20201104))
    results = []
    for name, check in _CHECKS:
        try:
            check(ctx)
        except _CheckFailed as exc:
            results.append(IdentityResult(name, False, str(exc)))
        except (HyperlatError, ZeroDivisionError) as exc:
            results.append(IdentityResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(IdentityResult(name, True))
    return results
