"""Named identity checks, parameterized by one problem specification.

Every structural fact the library relies on is re-checked here on the user's
own lattice and coefficients.  The level-k lines of the ladder, the closed
forms they give (mu_k, hat_tau_k with tau* at k = n, eta) and the adjoint
as an equation and its involution are checked on the whole lattice; the
weight, the first-order equation of the weight product and the residuals of
the three solution families on window points.  lambda*, tau* and sigma~*
are checked once, where ``equation.adjoint`` builds L*, so every identity
that reads the adjoint fails on the build's error.  The CLI ``verify``
command prints one PASS/FAIL line per identity.

Checks run independently; a failure (including an exception at a singular
point, or the ``AssertionError`` of a form check that disagrees, a library
bug) fails only its own identity and carries the reason in the detail
field.  A Casoratian that vanishes because n is inadmissible is reported with
the order m < n that has lambda_m = lambda_n.

The references the checks read live here too, so a process that only
solves never compiles them: the weight rho (``pearson_weight``) and rho_k
in ``Fraction`` values, each multiplied out from its definition by products
of a large value and a small factor; the ``Fraction`` views of the kernels
of the weight product (``Y_n``) and the Casoratian constant
(``casoratian``); and a brute-force oracle that recovers the polynomial
kind by exact null-space extraction from samples of L applied to the
monomial basis, sharing no code path with the Rodrigues route
(``polynomial_coefficients`` expands the polynomial kind into that basis
for comparison).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import equation as eqn
from . import solutions as sol
from .errors import (
    DegenerateAbscissae,
    DegenerateStep,
    HyperlatError,
    OracleDimensionError,
    OutOfWindow,
    WindowTooSmall,
)
from .grid import (
    GridFunction,
    Window,
    cumulative_nabla_sum,
    delta_k,
    iterated_delta,
    iterated_nabla,
    nabla_k,
    pairs_of,
)
from .lattice import HalfInt, Lattice
from .numerics import IntegerForm, Record, Scalar, format_rational
from .problem import ProblemSpec


class IdentityResult(Record):
    """One named check: passed, or the reason it did not in ``detail``."""

    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class _CheckFailed(Exception):
    pass


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise _CheckFailed(message)


def _ensure_zero(value: Scalar, message: str) -> None:
    if value != 0:
        raise _CheckFailed(f"{message} (off by {format_rational(value)})")


# --- Fraction references for the solve kernels ------------------------------


class PearsonWeight(Record):
    """rho on a window, normalized to 1 at the anchor it was built from."""

    _fields = ("rho",)

    def __init__(self, rho: GridFunction):
        object.__setattr__(self, "rho", rho)

    @property
    def window(self) -> Window:
        return self.rho.window

    def value_at(self, s: HalfInt) -> Scalar:
        return self.rho.value_at(s)


def pearson_weight(eq: eqn.HyperEquation, window: Window, anchor: HalfInt) -> PearsonWeight:
    """Solve delta_{-1}[sigma rho] = tau rho on the window, rho(anchor) = 1.

    Forward:  rho(s+1) = rho(s) sigma*(s+1) / sigma(s+1)
    Backward: the same relation inverted.  Any zero of a divisor, or a zero
    weight value, is reported as a PearsonSingularity at the offending point
    (``equation.pearson_steps``).  Each value is its neighbour times one
    small step, a ``Fraction`` product.
    """
    steps = eqn.pearson_steps(eq, window, anchor)
    base = window.index_of(anchor)
    values = [Fraction(1)] * window.length
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        values[j] = values[j - 1 if j > base else j + 1] * Fraction(*steps[j])
    return PearsonWeight(GridFunction(window.start, tuple(values)))


def rho_k(eq: eqn.HyperEquation, weight: PearsonWeight, k: int, s: HalfInt) -> Scalar:
    """rho_k(s) = rho(s+k) * prod_{i=1..k} sigma(s+i); rho_0 = rho."""
    if k < 0:
        raise ValueError("rho_k is defined for nonnegative k")
    return weight.value_at(s + k) * math.prod(eqn.sigma_of_s(eq, s + i) for i in range(1, k + 1))


def Y_n(eq: eqn.HyperEquation, weight: PearsonWeight, n: int, window: Window) -> GridFunction:
    """Y_n(s) = rho(s) prod_{j=0..n-1} sigma(s-j), the level-n weight product
    rho_n(s-n): the ``Fraction`` view of ``solutions._weight_product``."""
    if not weight.window.covers(window):
        raise OutOfWindow(f"weight window {weight.window} does not cover {window}")
    rho = pairs_of(weight.rho.restrict(window))
    values = sol._weight_product(eq, rho, n, window)
    return GridFunction(window.start, tuple(Fraction(*v) for v in values))


def casoratian(eq: eqn.HyperEquation, weight: PearsonWeight, y1: GridFunction,
               y: GridFunction, s: HalfInt) -> Scalar:
    """K(s) = sigma(s+1) rho(s+1) W(s) / delta x_0(s) for two grid functions,
    with the Casoratian W(s) = y1(s) y(s+1) - y1(s+1) y(s).  For two
    solutions of L y = 0 it is one constant, nonzero exactly when they are
    independent."""
    r = weight.value_at(s + 1)
    return sol._casoratian(eq, (r.numerator, r.denominator), y1, y, s)


# --- independent polynomial oracle ------------------------------------------


def _row_reduce(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place fraction Gaussian elimination; returns (matrix, pivot columns)."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(rows: list[list]) -> list[list]:
    """Exact null-space basis of a rational matrix (reduced row echelon)."""
    if not rows:
        return []
    matrix = [list(row) for row in rows]
    matrix, pivots = _row_reduce(matrix)
    cols = len(matrix[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -matrix[r][fc]
        basis.append(vec)
    return basis


def brute_force_polynomial_oracle(eq: eqn.HyperEquation, n: int) -> list:
    """Coefficients (monomial basis of x(s), low order first) of the nonzero
    polynomial solution at lambda_n, found without the Rodrigues machinery.

    L is applied to each monomial x(s)^j on a sample grid; the residuals at
    n+2 points give an (n+2) x (n+1) linear system whose null space must be
    exactly one-dimensional.  Sample points are required to have pairwise
    distinct x-values so the system is honest.
    """
    lat = eq.lattice
    eq_n = eq.with_lambda(eqn.lambda_n(eq, n))
    candidates = [HalfInt.from_int(v) for v in (1, 2, 3, 4)] + [HalfInt(3), HalfInt(5)]
    last_error: Exception | None = None
    for start in candidates:
        grid = Window(start - 1, n + 4)   # residual points: start .. start+n+1
        xs = [lat.x(s) for s in grid.points()]
        if len({lat.x(start + i) for i in range(n + 2)}) != n + 2:
            last_error = DegenerateAbscissae(f"repeated x-values from {start}")
            continue
        try:
            rows = None
            for j in range(n + 1):
                mono = GridFunction(grid.start, tuple(x ** j for x in xs))
                res = eqn.apply_L(eq_n, mono)
                if rows is None:
                    rows = [[None] * (n + 1) for _ in range(len(res))]
                for i, v in enumerate(res.values):
                    rows[i][j] = v
        except DegenerateStep as exc:
            last_error = exc
            continue
        basis = nullspace(rows)
        if len(basis) != 1:
            raise OracleDimensionError(
                f"null space has dimension {len(basis)}, expected 1 "
                f"(lambda_{n} inadmissible, or a bug)")
        vec = basis[0]
        lead = next(v for v in reversed(vec) if v != 0)
        return [v / lead for v in vec]
    raise last_error if last_error else OracleDimensionError("no usable sample grid")


def polynomial_coefficients(lat: Lattice, f: GridFunction, degree: int) -> list:
    """The degree+1 monomial coefficients in x(s) (low order first) of the
    interpolant through the first degree+1 samples: the Newton form of the
    polynomial kind, expanded by nested multiplication.  Repeated abscissae
    are an error."""
    if len(f) < degree + 1:
        raise WindowTooSmall(f"need {degree + 1} samples for degree {degree}")
    samples = list(f.items())[:degree + 1]
    xs = [lat.x(s) for s, _ in samples]
    if len(set(xs)) != len(xs):
        raise DegenerateAbscissae("repeated x-values in interpolation samples")
    form = IntegerForm.through(xs, [v for _, v in samples])
    coeffs = [Fraction(c, form.den) for c in form.coeffs]
    return coeffs + [Fraction(0)] * (degree + 1 - len(coeffs))


# --- the suite ---------------------------------------------------------------


class _Ctx:
    """What the checks of one suite run share: the spec, its equation, one
    random stream and the memo of ``_once``."""

    def __init__(self, spec: ProblemSpec, eq: eqn.HyperEquation, rng: random.Random):
        self.spec, self.eq, self.rng = spec, eq, rng
        self._memo = {}

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

    def line(self, k: int) -> Scalar | None:
        """The intercept of the level-k line, or None (``equation.tau_k_line``)."""
        return self._once(("line", k), lambda: eqn.tau_k_line(self.eq, k))

    def solve(self, n: int, window: Window, kind: str = "polynomial",
              **options) -> sol.SolutionReport:
        """``sol.solve`` on the spec's equation.  An option given as None is
        the default, so it is left out of the key."""
        options = {name: v for name, v in options.items() if v is not None}
        return self._once(("solve", n, window, kind, tuple(sorted(options.items()))),
                          lambda: sol.solve(self.eq, n, window, kind, **options))

    def weight(self, n: int | None = None) -> PearsonWeight:
        # solve()'s rule for the window enlarged by one point per side: on the
        # shortest window adjoint-product reads 7 points of the n = 0 weight.
        n = self.n if n is None else n
        return self._once(("weight", n), lambda: pearson_weight(
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
    # delta_j tau_j = kappa_{2j+1} on the whole lattice where line j holds
    eq = ctx.eq
    for k in range(9):
        _ensure(all(ctx.line(j) is not None for j in range(k)), f"mu_{k} sum mismatch")
        total = eq.lam + sum(eq.kappa(2 * j + 1) for j in range(k))
        _ensure_zero(total - eqn.mu_k(eq, k), f"mu_{k} sum mismatch")


def _check_tau_k_slope(ctx: _Ctx):
    for k in range(-6, 7):
        _ensure(ctx.line(k) is not None, f"tau_{k} slope != kappa_{2 * k + 1}")


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
        grid = GridFunction.sample(base, lambda s, k=k: rho_k(eq, weight, k, s))
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


def _check_dual_reconstruction(ctx: _Ctx):
    _ensure(eqn.adjoint(eqn.adjoint(ctx.eq)) == ctx.eq, "the adjoint of the adjoint is not L")


def _check_hat_mu_equals_lambda_star(ctx: _Ctx):
    # hat_mu_n raises unless it equals lambda* at lambda = lambda_n
    for n in range(1, 6):
        eqn.hat_mu_n(ctx.eq, n)


def _check_hat_tau_constancy(ctx: _Ctx):
    # hat_tau_k(s) = -tau_{n-k-2}(s+k-n+1), of slope -kappa_{2(n-k-2)+1}
    # against x_{k-n}(s) where line n-k-2 holds; at k = n it is tau*(s)
    n = max(ctx.n, 1)
    for k in range(n + 1):
        _ensure(ctx.line(n - k - 2) is not None, f"hat_tau_{k} drift is not constant (n={n})")
    # tau*(s) = -tau_{-2}(s+1) = -c_{-2} - kappa_{-3} x(s), as x_{-2}(s+1) = x(s)
    c = ctx.line(-2)
    _ensure(c is not None and eqn.adjoint(ctx.eq).tau_t == (-c, -ctx.eq.kappa(-3)),
            "hat_tau_n != tau*")


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
    ks = {casoratian(ctx.eq, ctx.weight(), poly, report.solution, s)
          for s in list(ctx.window.points())[:-1]}
    _ensure(len(ks) == 1, "Casoratian not constant")
    k = ks.pop()
    if k == 0:
        m = eqn.admissibility_violation(ctx.eq, ctx.n)
        _ensure(m is None, f"Casoratian vanishes (not independent): lambda_{m} = lambda_n")
    # scale: K = prod_{m<n} (lambda_n - lambda_m), so a second kind off by a
    # constant factor fails here although its residual is zero
    lam = eqn.lambda_n(ctx.eq, ctx.n)
    _ensure_zero(k - math.prod(lam - eqn.lambda_n(ctx.eq, m) for m in range(ctx.n)),
                 "Casoratian is not prod_{m<n} (lambda_n - lambda_m)")


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
        window.expand(n, 0), lambda s: rho_k(eq, weight, n, s))
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
    # diff = c y_n for one c: one ratio where y_n is nonzero, and zero where
    # it vanishes (at an inadmissible n the polynomial kind may vanish on
    # the whole window)
    pairs = list(zip((a.solution - b.solution).values, poly.solution.values))
    ratios = {d / y for d, y in pairs if y != 0}
    _ensure(len(ratios) <= 1 and all(d == 0 for d, y in pairs if y == 0),
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
    mine = polynomial_coefficients(ctx.lat, report.solution, n)
    oracle = brute_force_polynomial_oracle(eq, n)
    scale = next((a / b for a, b in zip(mine, oracle) if b != 0), None)
    _ensure(scale is not None and scale != 0, "no usable scale between routes")
    for a, b in zip(mine, oracle):
        _ensure_zero(a - scale * b, "oracle coefficients disagree")


def _check_yn_first_order(ctx: _Ctx):
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    weight = ctx.weight()
    window = Window(ctx.window.start, 6)
    product = Y_n(eq, weight, n, window)
    grad = nabla_k(lat, -n, product)
    for s in grad.points():
        p0 = lat.nabla_quotient(eqn.sigma_star(eq, s) - eqn.sigma_of_s(eq, s - n), -n, s)
        lhs = eqn.sigma_of_s(eq, s - n) * grad.value_at(s)
        _ensure_zero(lhs - p0 * product.value_at(s - 1),
                     f"Y_{n} first-order equation fails at s={s}")


def _check_eta_constant(ctx: _Ctx):
    # eta = delta_{-(n+1)} ell, ell(s, n) = -tau_{n-1}(s-n): -kappa_{2n-1} on line n-1
    _ensure(ctx.line(max(ctx.n, 1) - 1) is not None, "eta != -kappa_{2n-1}")


def _check_ladder_kills_weight_product(ctx: _Ctx):
    # w = delta_{-n}^(n) Y_n solves the adjoint equation at lambda = lambda_n
    eq, lat, n = ctx.eq, ctx.lat, max(ctx.n, 1)
    eq_n = eq.with_lambda(eqn.lambda_n(eq, n))
    weight = ctx.weight()
    window = Window(ctx.window.start, 6 + n)
    w = iterated_delta(lat, -n, n, Y_n(eq_n, weight, n, window))
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
    ("dual-reconstruction", _check_dual_reconstruction),
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
    ("eta-constancy", _check_eta_constant),
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
        except (HyperlatError, ZeroDivisionError, AssertionError) as exc:
            results.append(IdentityResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(IdentityResult(name, True))
    return results
