"""Solution generators for the lattice hypergeometric equation at lambda_n.

All three kinds come from one Rodrigues route,

    y = (1/rho) delta_{-n}^{(n)} [ Y_n C ],     Y_n(s) = rho(s) prod_{j<n} sigma(s-j),

verified by attaching the exact residual of the operator L:

* the polynomial eigenfunction (the difference Rodrigues formula): C = 1;

* the second-kind companion: C is the discrete integral of
  1/(Y_n(t) sigma(t-n)) against nabla x_{-n}(t);

* the generalized construction, where an arbitrary degree-n polynomial P in
  x_{-(n+1)}(t) replaces the constant numerator of that integral.

A brute-force oracle recovers the polynomial solution independently, by exact
null-space extraction from samples of L applied to the monomial basis; it
shares no code path with the Rodrigues route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equation import (
    HyperEquation,
    PearsonWeight,
    admissibility_violation,
    apply_L,
    lambda_n,
    pearson_weight,
    rho_k,
    sigma_of_s,
    sigma_star,
)
from .errors import (
    DegenerateAbscissae,
    DegenerateStep,
    OracleDimensionError,
    OutOfWindow,
    SingularSummand,
    WindowTooSmall,
)
from .grid import GridFunction, Window, cumulative_nabla_sum, iterated_delta
from .lattice import HalfInt, Lattice, divide_by_step
from .numerics import Scalar, format_scalar


@dataclass(frozen=True)
class SolutionReport:
    """A generated solution bundled with its residual verification."""

    kind: str                      # polynomial | second_kind | generalized
    n: int
    lam_n: Scalar                  # the eigenvalue lambda_n used to build it
    solution: GridFunction
    residual: GridFunction         # apply_L output on the same window
    residual_lam: Scalar           # lambda the residual was evaluated with
    inadmissible_m: int | None     # first m < n with lambda_m = lambda_n
    sum_base: HalfInt | None = None
    poly: tuple | None = None

    def residual_max_abs(self) -> Scalar:
        return self.residual.max_abs()

    def is_exact_solution(self) -> bool:
        return self.residual.is_zero()

    def to_json_dict(self) -> dict:
        window = self.solution.window
        return {
            "kind": self.kind,
            "n": self.n,
            "lambda_n": format_scalar(self.lam_n),
            "window": {"start": str(window.start), "length": window.length},
            "values": [format_scalar(v) for v in self.solution.values],
            "residual_max_abs": format_scalar(self.residual_max_abs()),
            "provenance": {
                "N": None if self.sum_base is None else str(self.sum_base),
                "P": None if self.poly is None else [format_scalar(c) for c in self.poly],
                "residual_lambda": format_scalar(self.residual_lam),
            },
        }


def weight_window_for(n: int, window: Window) -> Window:
    """The rho window built for a solution on ``window``.

    ``solve()`` itself reads one extra point on the left and n + 1 on the
    right: one per side for the residual stencil, n more for the n-fold
    difference.  The second point on each side is for ``verify``: on the
    shortest window (n + 5 points) its ``adjoint-product`` check reads 7
    points of the n = 0 weight from ``window.start`` on, one more than
    ``expand(1, n + 1)`` would hold.  Every extra point costs a Pearson step
    and a larger weight value, so it allocates no more than that."""
    return window.expand(2, n + 2)


def Y_n(eq: HyperEquation, weight: PearsonWeight, n: int, window: Window) -> GridFunction:
    """Y_n(s) = rho(s) prod_{j=0..n-1} sigma(s-j), the level-n weight product
    rho_n(s-n)."""
    if not weight.window.covers(window):
        raise OutOfWindow(f"weight window {weight.window} does not cover {window}")
    return GridFunction.sample(window, lambda s: rho_k(eq, weight, n, s - n))


def _rodrigues(eq: HyperEquation, weight: PearsonWeight, n: int, window: Window,
               kind: str, residual_lam: Scalar | None, numerator=None,
               N: HalfInt | None = None, poly: tuple | None = None) -> SolutionReport:
    """y = (1/rho) delta_{-n}^{(n)} [ Y_n C ], with its residual attached.

    Without a ``numerator`` C is 1 (the polynomial kind).  With one, C is the
    discrete integral from N of numerator(t) / (Y_n(t) sigma(t-n)), taken
    against nabla x_{-n}; its denominator reuses the Y_n samples.
    """
    lam = lambda_n(eq, n)
    enlarged = window.expand(1, 1)
    y_window = enlarged.expand(0, n)
    if not weight.window.covers(y_window):
        what = "rodrigues_polynomial" if kind == "polynomial" else kind
        raise WindowTooSmall(f"{what}(n={n}) needs the weight on {y_window}, got {weight.window}")
    product = Y_n(eq, weight, n, y_window)
    if numerator is not None:
        if N is None:
            N = y_window.start
        if N not in y_window:
            raise OutOfWindow(f"sum base {N} must lie in {y_window}")

        def integrand(t: HalfInt, y_n: Scalar) -> Scalar:
            den = y_n * sigma_of_s(eq, t - n)
            if den == 0:
                raise SingularSummand(f"sigma product vanishes at t={t}", point=t)
            return numerator(t) / den

        g = GridFunction(y_window.start, tuple(integrand(t, v) for t, v in product.items()))
        product = product * cumulative_nabla_sum(eq.lattice, -n, g, N)
    y = iterated_delta(eq.lattice, -n, n, product) / weight.rho.restrict(enlarged)
    res_lam = lam if residual_lam is None else residual_lam
    residual = apply_L(eq.with_lambda(res_lam), y)
    return SolutionReport(
        kind=kind, n=n, lam_n=lam,
        solution=y.restrict(window), residual=residual,
        residual_lam=res_lam, inadmissible_m=admissibility_violation(eq, n),
        sum_base=N, poly=poly)


def rodrigues_polynomial(eq: HyperEquation, weight: PearsonWeight, n: int,
                         window: Window, residual_lam: Scalar | None = None) -> SolutionReport:
    """The degree-n polynomial eigenfunction via the n-fold forward
    difference of Y_n, divided by rho.

    The eigenvalue is pinned to lambda_n internally; ``residual_lam`` lets a
    caller verify the construction against a different spectral parameter
    (the residual is then nonzero unless the two agree).
    """
    return _rodrigues(eq, weight, n, window, "polynomial", residual_lam)


def second_solution(eq: HyperEquation, weight: PearsonWeight, n: int, window: Window,
                    N: HalfInt | None = None,
                    residual_lam: Scalar | None = None) -> SolutionReport:
    """The linearly independent companion of the degree-n eigenfunction:

        (1/rho) delta_{-n}^{(n)} [ Y_n(s) int_N^s (Y_n(t) sigma(t-n))^{-1} d_nabla x_{-n}(t) ]

    Changing N perturbs the result by a multiple of the polynomial solution
    only.  The result fails the degree-n test, which is its independence
    certificate.
    """
    return _rodrigues(eq, weight, n, window, "second_kind", residual_lam,
                      lambda t: Fraction(1), N)


def generalized_solution(eq: HyperEquation, weight: PearsonWeight, n: int, window: Window,
                         P, N: HalfInt | None = None,
                         residual_lam: Scalar | None = None) -> SolutionReport:
    """The P-dependent term of the extended Rodrigues family: the integrand
    numerator is P evaluated at x_{-(n+1)}(t), where P has degree n
    (n+1 coefficients, low order first)."""
    coeffs = tuple(P)
    if len(coeffs) != n + 1:
        raise ValueError(f"P needs exactly {n + 1} coefficients, got {len(coeffs)}")
    lat = eq.lattice

    def numerator(t: HalfInt) -> Scalar:
        x = lat.x_at(t.twice - (n + 1))
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return _rodrigues(eq, weight, n, window, "generalized", residual_lam,
                      numerator, N, coeffs)


def solve(eq: HyperEquation, n: int, window: Window, kind: str = "polynomial",
          N: HalfInt | None = None, P=None,
          residual_lam: Scalar | None = None) -> SolutionReport:
    """Convenience wrapper: build the Pearson weight on the derived window
    (``weight_window_for``), normalized to 1 at ``window.start``, and
    dispatch on ``kind`` (polynomial, second or generalized)."""
    weight = pearson_weight(eq, weight_window_for(n, window), window.start)
    if kind == "polynomial":
        return rodrigues_polynomial(eq, weight, n, window, residual_lam)
    if kind == "second":
        return second_solution(eq, weight, n, window, N, residual_lam)
    if kind == "generalized":
        if P is None:
            raise ValueError("generalized solutions need the coefficient list P")
        return generalized_solution(eq, weight, n, window, P, N, residual_lam)
    raise ValueError(f"unknown solution kind {kind!r}")


# ---------------------------------------------------------------------------
# exactness auxiliaries of the generalized construction


def gamma_ell_eta(eq: HyperEquation, n: int, s: HalfInt) -> tuple[Scalar, Scalar, Scalar]:
    """The exactness auxiliaries of the generalized construction:

        gamma(s,n) = [sigma(s-n+1) - sigma*(s)] / delta x_{-(n+1)}(s)
        ell(s,n)   = [sigma(s-n)   - sigma*(s)] / nabla x_{-n}(s)
        eta(n)     = delta_{-(n+1)} ell(s,n)    (independent of s)

    gamma satisfies
        ell(s+1,n) delta x_{-n}(s) / delta x_{-(n+1)}(s) + delta_{-(n+1)} sigma*(s) = gamma(s,n),
    and eta(n) equals the eigenvalue of the first-order pair (it is
    -kappa_{2n-1} in closed form).
    """
    lat = eq.lattice

    def ell_at(t: HalfInt) -> Scalar:
        return divide_by_step(sigma_of_s(eq, t - n) - sigma_star(eq, t),
                              lat.nabla_x(-n, t), -n, t)

    dx = lat.delta_x(-(n + 1), s)
    gamma = divide_by_step(sigma_of_s(eq, s - n + 1) - sigma_star(eq, s),
                           dx, -(n + 1), s)
    ell = ell_at(s)
    eta = divide_by_step(ell_at(s + 1) - ell, dx, -(n + 1), s)
    return gamma, ell, eta


# ---------------------------------------------------------------------------
# independent polynomial oracle


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


def brute_force_polynomial_oracle(eq: HyperEquation, n: int) -> list:
    """Coefficients (monomial basis of x(s), low order first) of the nonzero
    polynomial solution at lambda_n, found without the Rodrigues machinery.

    L is applied to each monomial x(s)^j on a sample grid; the residuals at
    n+2 points give an (n+2) x (n+1) linear system whose null space must be
    exactly one-dimensional.  Sample points are required to have pairwise
    distinct x-values so the system is honest.
    """
    lat = eq.lattice
    eq_n = eq.with_lambda(lambda_n(eq, n))
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
                res = apply_L(eq_n, mono)
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
    """Monomial coefficients in x(s) by exact interpolation through the first
    degree+1 samples; repeated abscissae are an error."""
    if len(f) < degree + 1:
        raise WindowTooSmall(f"need {degree + 1} samples for degree {degree}")
    points = [(lat.x(s), f.value_at(s)) for s in list(f.points())[:degree + 1]]
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DegenerateAbscissae("repeated x-values in interpolation samples")
    rows = [[x ** j for j in range(degree + 1)] + [y] for x, y in points]
    matrix, pivots = _row_reduce(rows)
    if pivots != list(range(degree + 1)):
        raise DegenerateAbscissae("interpolation system is singular")
    return [matrix[r][degree + 1] for r in range(degree + 1)]
