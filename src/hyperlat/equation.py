"""The second-order difference equation of hypergeometric type on a lattice.

An equation is the coefficient triple (sigma~, tau~, lambda): polynomials of
degree at most two and one in x(s), plus a constant.  Everything else is
derived from them:

    sigma(s) = sigma~(x(s)) - (1/2) tau~(x(s)) * nabla x_1(s)
    tau(s)   = tau~(x(s))
    L[y](s)  = sigma(s) delta_{-1} nabla_0 y + tau(s) delta_0 y + lambda y

The level-k ladder coefficients

    kappa_mu = alpha(mu-1) tau~' + nu(mu-1) sigma~''/2   (``HyperEquation.kappa``)
    tau_k(s) = [sigma(s+k) - sigma(s) + tau(s+k) nabla x_1(s+k)] / nabla x_{k+1}(s)
    mu_k     = lambda + kappa_k nu(k)
    lambda_n = -kappa_n nu(n)

drive the polynomial eigenfunctions, and the adjoint coefficients

    sigma*(s) = sigma(s-1) + tau(s-1) nabla x_{-1}(s)
    tau*(s)   = [sigma(s+1) - sigma(s-1) - tau(s-1) nabla x_{-1}(s)] / delta x_{-1}(s)
    lambda*   = lambda - kappa_{-1}

define the adjoint operator L*, which satisfies L*[rho y] = rho L[y] for the
Pearson weight rho.  By these definitions, since nabla x_{-1}(s+1) =
delta x_{-1}(s),

    sigma(s)  + tau(s)  delta x_{-1}(s) = sigma*(s+1),
    sigma*(s) + tau*(s) delta x_{-1}(s) = sigma(s+1).

L and L* are the same operator with different coefficients, evaluated in
the three-term form L[y](s) = A(s) y(s+1) + B(s) y(s) + C(s) y(s-1), where
by the identity above A reads sigma* for L and sigma for L*, so L reads
the tables of sigma and sigma* and no tau, and L* evaluates no tau*.  A, B
and C are integers over one denominator per point, and each value is
summed over one common denominator and normalized once (``_three_term``).
The adjoint map (sigma, tau, lambda) ->
(sigma*, tau*, lambda*) is written once, for any pair of coefficient
functions, and it is an involution: ``dual_coefficients`` applies it a
second time, to the starred coefficients, and must get back sigma, tau and
lambda.  ``lambda_star`` is the closed form above, checked against its
defining expression (``lambda_star_at``) wherever it is used: on the window
of ``adjoint_coeffs``, the output of ``apply_L_star`` and the point of
``dual_coefficients``.  hat_mu_n is lambda* at lambda = lambda_n.  The
weight itself is fixed only up to scale by

    delta_{-1}[sigma rho] = tau rho,  i.e.  rho(s+1) / rho(s) = sigma*(s+1) / sigma(s+1),

and is normalized here to rho(anchor) = 1.  sigma* is written out once
(``_adjoint_sigma``).  For the equation's own coefficients it is the closed
formula of the sigma* table, which tau_k = [sigma*(s+k+1) - sigma(s)] /
nabla x_{k+1}(s), the Pearson step, tau* and lambda* read.  tau* and
lambda* are written for readers of 2s of sigma and sigma*, since the
adjoint map also applies to the starred coefficients: ``dual_coefficients``
passes sigma* in place of sigma, and in place of sigma* the one built from
sigma* and tau*.

sigma(s), tau(s) and sigma*(s) are ``lattice.FormTable`` tables of
reduced integer pairs, filled from integer forms each composed from the
form of x by the formula above, which is written once and runs on forms as
on values.  The kernels (the Pearson scan, ``_three_term``) bind a table
once per call and read its pairs.  The Pearson step is the pair of the
quotient of two table pairs, with its zero tests on integers, and
``weight_from_steps`` multiplies the steps out into rho as reduced pairs,
with the cross gcds of ``Fraction``'s product.  ``solve()`` reads rho as
those pairs only; ``pearson_weight`` is their ``Fraction`` view, the
``PearsonWeight`` that ``verify`` and other callers read.  rho_k is its
definition, rho(s+k) sigma(s+1)...sigma(s+k) in ``Fraction`` arithmetic:
only ``verify`` reads it, and ``Y_n`` slides its own product.
``admissibility_violation`` scans the eigenvalues lambda_0..lambda_n in one
pass on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, prod

from .errors import (
    NonConstantLambdaStar,
    OutOfWindow,
    PearsonSingularity,
    WindowTooSmall,
)
from .grid import GridFunction, Window
from .lattice import FormTable, HalfInt, Lattice
from .numerics import Scalar, format_rational


@dataclass(frozen=True)
class HyperEquation:
    """Coefficients sigma_t = (sigma~(0), sigma~'(0), sigma~''/2) and
    tau_t = (tau~(0), tau~'), with the spectral parameter ``lam``.

    sigma(s), tau(s) and sigma*(s) are kept in tables indexed by 2s, like
    the lattice values they are made of (``lattice.FormTable``): each is
    declared once (``FormTable.declared``), and made on its first read with
    its integer form composed from the lattice's tables
    (``Lattice.composed``).  The tables live as long as the equation (and
    the copies ``with_lambda`` makes, which share the tables made so far)
    and take no part in equality, hashing or ``repr``.
    """

    lattice: Lattice
    sigma_t: tuple
    tau_t: tuple
    lam: Scalar = Fraction(0)

    def __post_init__(self):
        if len(self.sigma_t) != 3:
            raise ValueError("sigma_t must have exactly three coefficients")
        if len(self.tau_t) != 2:
            raise ValueError("tau_t must have exactly two coefficients")
        object.__setattr__(self, "sigma_t", tuple(self.sigma_t))
        object.__setattr__(self, "tau_t", tuple(self.tau_t))

    # Horner order with x on the left, so that on an integer form x each
    # product and sum runs the form's own operator
    def sigma_tilde(self, x: Scalar) -> Scalar:
        s0, s1, s2 = self.sigma_t
        return (x * s2 + s1) * x + s0

    def tau_tilde(self, x: Scalar) -> Scalar:
        return x * self.tau_t[1] + self.tau_t[0]

    # the tables; each formula runs on the integer forms once and on values
    # at the two check nodes of its form (``Lattice.composed``), with x and
    # tau readers of 2s
    @FormTable.declared
    def _tau(self) -> FormTable:
        lat = self.lattice
        return FormTable(lat.point, lat.composed(lambda x, t: self.tau_tilde(x(t)), 1, lat._table))

    @FormTable.declared
    def _sigma(self) -> FormTable:
        lat = self.lattice
        return FormTable(lat.point, lat.composed(
            lambda x, tau, t: self.sigma_tilde(x(t)) - tau(t) * (x(t + 1) - x(t - 1)) / 2,
            2, lat._table, self._tau))

    @FormTable.declared
    def _star(self) -> FormTable:
        lat = self.lattice
        return FormTable(lat.point, lat.composed(
            _adjoint_sigma, 2, lat._steps, self._sigma, self._tau))

    def sigma_at(self, twice: int) -> Scalar:
        """sigma(twice/2), from the table."""
        return self._sigma.fraction(twice)

    def tau_at(self, twice: int) -> Scalar:
        """tau(twice/2), from the table."""
        return self._tau.fraction(twice)

    def sigma_star_at(self, twice: int) -> Scalar:
        """sigma*(twice/2), from the table."""
        return self._star.fraction(twice)

    def with_lambda(self, lam: Scalar) -> "HyperEquation":
        """The same equation at another lambda; sigma, tau and sigma* do not
        depend on lambda, so the copy shares the tables made so far."""
        other = replace(self, lam=lam)
        for name, table in vars(self).items():
            if isinstance(table, FormTable):
                object.__setattr__(other, name, table)
        return other

    def kappa(self, mu: int) -> Scalar:
        lat = self.lattice
        return lat.alpha(mu - 1) * self.tau_t[1] + lat.nu(mu - 1) * self.sigma_t[2]


@dataclass(frozen=True)
class PearsonWeight:
    """rho on a window, normalized to 1 at the anchor it was built from."""

    rho: GridFunction

    @property
    def window(self) -> Window:
        return self.rho.window

    def value_at(self, s: HalfInt) -> Scalar:
        return self.rho.value_at(s)


@dataclass(frozen=True)
class AdjointCoefficients:
    sigma_star: GridFunction
    tau_star: GridFunction
    lambda_star: Scalar


def sigma_of_s(eq: HyperEquation, s: HalfInt) -> Scalar:
    return eq.sigma_at(s.twice)


def tau_of_s(eq: HyperEquation, s: HalfInt) -> Scalar:
    return eq.tau_at(s.twice)


def tau_k(eq: HyperEquation, k: int, s: HalfInt) -> Scalar:
    """Level-k linear coefficient; defined for every integer k (also
    negative), where it has slope kappa_{2k+1} against x_k(s)."""
    return eq.lattice.nabla_quotient(sigma_star(eq, s + k + 1) - sigma_of_s(eq, s), k + 1, s)


def mu_k(eq: HyperEquation, k: int) -> Scalar:
    """mu_k = lambda + kappa_k nu(k); equals lambda plus the telescoped sum
    of delta_j tau_j over j < k."""
    return eq.lam + eq.kappa(k) * eq.lattice.nu(k)


def lambda_n(eq: HyperEquation, n: int) -> Scalar:
    """The eigenvalue lambda_n = -kappa_n nu(n) that makes mu_n vanish."""
    return -eq.kappa(n) * eq.lattice.nu(n)


def admissibility_violation(eq: HyperEquation, n: int) -> int | None:
    """First m < n with lambda_m = lambda_n, or None when n is admissible.

    All lambda_m, m <= n, in one pass on integers.  On both families nu and
    alpha obey f(m+1) = c f(m) - f(m-1) with c = 2 alpha(1) = C/D, so
    nu(m) = N_m / D^(m-1) and alpha(m) = A_m / (2 D^m), where N and A obey
    g(m+1) = C g(m) - D^2 g(m-1) from N_0 = 0, N_1 = 1 and A_0 = 2, A_1 = C.
    With tau~' = B/E and sigma~''/2 = S/E,

        lambda_m = -(A_{m-1} B + 2 D N_{m-1} S) N_m / (2 E D^(2m-2)),

    and each is kept as that numerator times D^(2(n-m)), over the common
    denominator 2 E D^(2n-2); lambda_0 = 0.
    """
    c = 2 * eq.lattice.alpha(1)
    C, D = c.numerator, c.denominator
    tau1, sigma2 = eq.tau_t[1], eq.sigma_t[2]
    E = tau1.denominator * sigma2.denominator
    B, S = tau1.numerator * sigma2.denominator, sigma2.numerator * tau1.denominator
    dd = D * D
    scale = dd ** n
    values = [0]
    n_prev, n_cur, a_prev, a_cur = 0, 1, 2, C
    for _ in range(n):
        scale //= dd
        values.append(-(a_prev * B + 2 * D * n_prev * S) * n_cur * scale)
        n_prev, n_cur = n_cur, C * n_cur - dd * n_prev
        a_prev, a_cur = a_cur, C * a_cur - dd * a_prev
    m = values.index(values[n])
    return m if m < n else None


def pearson_weight(eq: HyperEquation, window: Window, anchor: HalfInt) -> PearsonWeight:
    """Solve delta_{-1}[sigma rho] = tau rho on the window, rho(anchor) = 1.

    Forward:  rho(s+1) = rho(s) sigma*(s+1) / sigma(s+1)
    Backward: the same relation inverted.  Any zero of a divisor, or a zero
    weight value, is reported as a PearsonSingularity at the offending point
    (``pearson_steps``).  Each value is its neighbour times one small step.
    The ``Fraction`` view of the pairs of ``weight_from_steps``.
    """
    rho = weight_from_steps(pearson_steps(eq, window, anchor), window, window.index_of(anchor))
    return PearsonWeight(GridFunction(window.start, tuple(Fraction(*r) for r in rho)))


def weight_from_steps(steps: list, window: Window, base: int) -> list:
    """rho on ``window`` as reduced pairs (num, den), den > 0, 1 at its
    point ``base``, multiplied out from the first ``window.length`` steps of
    ``pearson_steps`` anchored there: each step is normalized once as it is
    multiplied in, with the two cross gcds of ``Fraction``'s product."""
    values = [(1, 1)] * window.length
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        a, b = values[j - 1 if j > base else j + 1]
        c, d = steps[j]
        g = gcd(c, d) if d > 0 else -gcd(c, d)
        c, d = c // g, d // g
        g, h = gcd(a, d), gcd(c, b)
        values[j] = (a // g * (c // h), b // h * (d // g))
    return values


def pearson_steps(eq: HyperEquation, window: Window, anchor: HalfInt) -> list:
    """The Pearson recurrence checked on the whole window, not multiplied
    out: at each point t its step away from the anchor, rho(t) / rho(t-1) =
    sigma*(t) / sigma(t) on the right and rho(t) / rho(t+1) = sigma(t+1) /
    sigma*(t+1) on the left (1 at the anchor).  The scan runs forward from
    the anchor, then backward, and raises PearsonSingularity at the first
    point t whose divisor vanishes, or whose dividend and so rho(t) does.
    Each step is the integer pair (num, den) of the quotient of the sigma
    and sigma* table pairs, not reduced; ``weight_from_steps`` normalizes
    the ones it multiplies in."""
    if anchor not in window:
        raise OutOfWindow(f"anchor {anchor} not in window {window}")
    sigma, star = eq._sigma, eq._star
    steps = [(1, 1)] * window.length
    base = window.index_of(anchor)
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        forward = j > base
        twice = window.start.twice + 2 * j + (0 if forward else 2)
        sg, st = sigma[twice], star[twice]
        (nn, nd), (dn, dd) = (st, sg) if forward else (sg, st)
        if dn == 0:
            t = window.start + j
            raise PearsonSingularity(f"sigma vanishes at s={t}" if forward else
                                     f"backward Pearson step vanishes at s={t}", point=t)
        if nn == 0:
            t = window.start + j
            raise PearsonSingularity(f"weight vanishes at s={t}", point=t)
        steps[j] = (nn * dd, nd * dn)
    return steps


def rho_k(eq: HyperEquation, weight: PearsonWeight, k: int, s: HalfInt) -> Scalar:
    """rho_k(s) = rho(s+k) * prod_{i=1..k} sigma(s+i); rho_0 = rho."""
    if k < 0:
        raise ValueError("rho_k is defined for nonnegative k")
    return weight.value_at(s + k) * prod(sigma_of_s(eq, s + i) for i in range(1, k + 1))


_ZERO = Fraction(0)


def _three_term(lat: Lattice, y: GridFunction, sig: FormTable, star: FormTable,
                lam: Scalar) -> GridFunction:
    """sig delta_{-1} nabla_0 y + tau delta_0 y + lam y on the interior window
    (one point lost per side), for the tables sig and star of the pair
    (sigma, sigma*) of L or (sigma*, sigma) of L*: tau is read through
    sig(s) + tau(s) delta x_{-1}(s) = star(s+1) (module docstring).

    Written out, the two divided differences give the three-term form

        L[y](s) = A(s) y(s+1) + B(s) y(s) + C(s) y(s-1),
        A = star(s+1) / (delta x_{-1} delta x_0),
        C = sig / (delta x_{-1} nabla x_0),   B = lam - A - C,

    with coefficients far smaller than the values of y.  A, B and C are
    formed as integers over one denominator W per point, from the pairs of
    sig(s), star(s+1) and the three steps and the integers of lam, with no
    ``Fraction`` made.  The three products are summed in integers
    over the least common denominator of the three values of y, which share
    most of their factors, and each output value is one normalization of
    that sum over W times that denominator, or, when the sum is 0, as at
    every point of a certified solve, one shared ``Fraction(0)``.  Every
    step is read first,
    through ``Lattice.divisors``, in the order the two passes of divided
    differences read them (each nabla x_0, then each delta x_{-1}, left to
    right), so a zero step is named as by those passes.
    """
    first, v = y.start.twice + 2, y.values
    inner = range(len(v) - 2)
    # nabla x_0 at each output point s and one point further, since
    # nabla x_0(s + 1) = delta x_0(s); then delta x_{-1} at each s
    nablas = lat.divisors(first - 2, 0, first, len(v) - 1)
    deltas = lat.divisors(first - 1, -1, first, len(v) - 2)
    ln, ld = lam.numerator, lam.denominator
    out = []
    for j in inner:
        twice = first + 2 * j
        (sn, sd), (un, ud) = sig[twice], star[twice + 2]
        en, ed = deltas[j]          # delta x_{-1}
        an, ad = nablas[j + 1]      # delta x_0
        bn, bd = nablas[j]          # nabla x_0
        # A, B and C over W = base * ld
        base = sd * ud * en * an * bn
        a = un * sd * ed * ad * bn * ld
        c = sn * ud * ed * bd * an * ld
        num, den = 0, 1
        for coef, value in ((a, v[j + 2]), (ln * base - a - c, v[j + 1]), (c, v[j])):
            d = value.denominator
            g = gcd(den, d)
            num = num * (d // g) + coef * value.numerator * (den // g)
            den *= d // g
        out.append(Fraction(num, den * base * ld) if num else _ZERO)
    return GridFunction(y.start + 1, tuple(out))


def apply_L(eq: HyperEquation, y: GridFunction) -> GridFunction:
    """Residual of L[y] on the interior window (one point lost per side)."""
    if len(y) < 3:
        raise WindowTooSmall("apply_L needs at least three points")
    return _three_term(eq.lattice, y, eq._sigma, eq._star, eq.lam)


# ---------------------------------------------------------------------------
# adjoint machinery


def _adjoint_sigma(step, sig, tau, twice: int):
    """sigma*(s) = sigma(s-1) + tau(s-1) nabla x_{-1}(s) at s = twice/2, for
    readers sig and tau of 2s and a reader ``step`` of a = 2s + k; on
    values, or on integer forms (see ``HyperEquation``)."""
    return sig(twice - 2) + tau(twice - 2) * step(twice - 3)


def _adjoint_tau(lat: Lattice, sig, star, twice: int) -> Scalar:
    """tau*(s) = [sigma(s+1) - sigma*(s)] / delta x_{-1}(s) at s = twice/2,
    for readers sig and star (sigma*) of 2s."""
    return lat.quotient(sig(twice + 2) - star(twice), twice - 1, -1, twice)


def _adjoint_lambda_shift(lat: Lattice, sig, star, twice: int) -> Scalar:
    """lambda - lambda* = delta_{-1}([sigma*(s) - sigma(s)] / nabla x(s)) at
    s = twice/2, its defining expression, for readers sig and star (sigma*)
    of 2s."""
    def h(t: int) -> Scalar:
        return lat.quotient(star(t) - sig(t), t - 2, 0, t)

    return lat.quotient(h(twice + 2) - h(twice), twice - 1, -1, twice)


def sigma_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return eq.sigma_star_at(s.twice)


def _tau_star_at(eq: HyperEquation, twice: int) -> Scalar:
    return _adjoint_tau(eq.lattice, eq.sigma_at, eq.sigma_star_at, twice)


def tau_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return _tau_star_at(eq, s.twice)


def lambda_star_at(eq: HyperEquation, s: HalfInt) -> Scalar:
    """lambda* from its defining difference expression, evaluated at s."""
    return eq.lam - _adjoint_lambda_shift(eq.lattice, eq.sigma_at, eq.sigma_star_at, s.twice)


def lambda_star(eq: HyperEquation) -> Scalar:
    """lambda* = lambda - kappa_{-1}, the closed form."""
    return eq.lam - eq.kappa(-1)


def _checked_lambda_star(eq: HyperEquation, points) -> Scalar:
    """lambda_star(eq), once its defining expression has given the same value
    at each of the points; disagreement is a hard error naming the point."""
    closed = lambda_star(eq)
    for s in points:
        direct = lambda_star_at(eq, s)
        if direct != closed:
            raise NonConstantLambdaStar(
                f"lambda* mismatch: direct {format_rational(direct)} vs closed form "
                f"{format_rational(closed)} at s={s}")
    return closed


def adjoint_coeffs(eq: HyperEquation, window: Window) -> AdjointCoefficients:
    """sigma*, tau* sampled on the window, with the constant lambda*, which
    is checked against its defining expression at every window point."""
    sig = GridFunction.sample(window, lambda s: sigma_star(eq, s))
    tau = GridFunction.sample(window, lambda s: tau_star(eq, s))
    return AdjointCoefficients(sig, tau, _checked_lambda_star(eq, window.points()))


def apply_L_star(eq: HyperEquation, w: GridFunction) -> GridFunction:
    """Residual of L*[w] = sigma* delta_{-1} nabla_0 w + tau* delta_0 w + lambda* w,
    with lambda* checked at each output point (the residual needs its steps)."""
    if len(w) < 3:
        raise WindowTooSmall("apply_L_star needs at least three points")
    out = _three_term(eq.lattice, w, eq._star, eq._sigma, lambda_star(eq))
    _checked_lambda_star(eq, out.points())
    return out


def dual_coefficients(eq: HyperEquation, s: HalfInt):
    """Reconstruct (sigma(s), tau(s), lambda) by applying the adjoint map to
    (sigma*, tau*, lambda*); the map is an involution, so this must give back
    the originals.  lambda* is checked at s after the starred shift."""
    lat, sig = eq.lattice, eq.sigma_star_at

    def star_star(t: int) -> Scalar:
        return _adjoint_sigma(lat.step_at, sig, lambda u: _tau_star_at(eq, u), t)

    t = s.twice
    return (star_star(t), _adjoint_tau(lat, sig, star_star, t),
            -_adjoint_lambda_shift(lat, sig, star_star, t) + _checked_lambda_star(eq, (s,)))


# ---------------------------------------------------------------------------
# level-nu coefficient functions and the hat ladder


def hat_tau_k(eq: HyperEquation, n: int, k: int, s: HalfInt) -> Scalar:
    """Ladder coefficient of the equation satisfied by the n-th weight
    product Y_n: hat_tau_k(s) = -tau_{n-k-2}(s + k - n + 1).

    Equivalently the explicit quotient

        [sigma(s+k-n+1) - sigma(s-1) - tau(s-1) nabla x_{-1}(s)] / delta x_{k-n-1}(s),

    whose slope against x_{k-n}(s) is -kappa_{2(n-k-2)+1}.  At k = n it
    reduces to tau*(s) = -tau_{-2}(s+1).
    """
    return -tau_k(eq, n - k - 2, s + (k - n + 1))


def hat_mu_n(eq: HyperEquation, n: int) -> Scalar:
    """hat_mu_n = -kappa_{n-1} nu(n+1), cross-checked against lambda* at
    lambda = lambda_n."""
    primary = -eq.kappa(n - 1) * eq.lattice.nu(n + 1)
    other = lambda_star(eq.with_lambda(lambda_n(eq, n)))
    if primary != other:
        raise NonConstantLambdaStar(
            f"hat_mu_n closed forms disagree: {format_rational(primary)} "
            f"vs {format_rational(other)}")
    return primary
