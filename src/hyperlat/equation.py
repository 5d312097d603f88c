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
Pearson weight rho.  L and L* are the same operator with different
coefficients, evaluated in the three-term form L[y](s) = A(s) y(s+1) +
B(s) y(s) + C(s) y(s-1), with A, B and C integers over one denominator
per point and each value summed over one common denominator and normalized
once (``_three_term``).  The adjoint map (sigma, tau, lambda) ->
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
lambda* are written for callables sigma and sigma*, since the adjoint map
also applies to the starred coefficients: ``dual_coefficients`` passes
sigma* in place of sigma, and in place of sigma* the one built from sigma*
and tau*.

sigma(s), tau(s) and sigma*(s) are tables filled from integer forms (see
``lattice``).  The Pearson step is one normalized quotient of the
numerators and denominators of two table values, with its zero tests on
integers, and rho_k multiplies its sigma factors as integers and
normalizes once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from math import gcd

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
    the lattice values they are made of (``lattice.FormTable``): each table
    builds the integer form of its closed formula on first use, and fills
    each point from it.  The tables live as long as the equation (and the
    copies ``with_lambda`` makes, which share them) and take no part in
    equality, hashing or ``repr``.
    """

    lattice: Lattice
    sigma_t: tuple
    tau_t: tuple
    lam: Scalar = Fraction(0)
    _sigma: FormTable = field(default_factory=FormTable, init=False,
                              repr=False, compare=False, hash=False)
    _tau: FormTable = field(default_factory=FormTable, init=False,
                            repr=False, compare=False, hash=False)
    _star: FormTable = field(default_factory=FormTable, init=False,
                             repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.sigma_t) != 3:
            raise ValueError("sigma_t must have exactly three coefficients")
        if len(self.tau_t) != 2:
            raise ValueError("tau_t must have exactly two coefficients")
        object.__setattr__(self, "sigma_t", tuple(self.sigma_t))
        object.__setattr__(self, "tau_t", tuple(self.tau_t))

    def sigma_tilde(self, x: Scalar) -> Scalar:
        return self.sigma_t[0] + self.sigma_t[1] * x + self.sigma_t[2] * x * x

    def tau_tilde(self, x: Scalar) -> Scalar:
        return self.tau_t[0] + self.tau_t[1] * x

    # the closed formulas, run only at the nodes of the integer forms
    def _sigma_formula(self, twice: int) -> Scalar:
        x_at = self.lattice.x_at
        return (self.sigma_tilde(x_at(twice))
                - self.tau_at(twice) * (x_at(twice + 1) - x_at(twice - 1)) / 2)

    def _tau_formula(self, twice: int) -> Scalar:
        return self.tau_tilde(self.lattice.x_at(twice))

    def _star_formula(self, twice: int) -> Scalar:
        return _adjoint_sigma(self.lattice, *_coefficients(self), HalfInt(twice))

    def sigma_at(self, twice: int) -> Scalar:
        """sigma(twice/2), from the table."""
        value = self._sigma.get(twice)
        if value is None:
            value = self._sigma.fill(self.lattice, self._sigma_formula, 2, twice)
        return value

    def tau_at(self, twice: int) -> Scalar:
        """tau(twice/2), from the table."""
        value = self._tau.get(twice)
        if value is None:
            value = self._tau.fill(self.lattice, self._tau_formula, 1, twice)
        return value

    def sigma_star_at(self, twice: int) -> Scalar:
        """sigma*(twice/2), from the table."""
        value = self._star.get(twice)
        if value is None:
            value = self._star.fill(self.lattice, self._star_formula, 2, twice)
        return value

    def with_lambda(self, lam: Scalar) -> "HyperEquation":
        """The same equation at another lambda; sigma, tau and sigma* do not
        depend on lambda, so the copy shares their tables."""
        other = replace(self, lam=lam)
        for name in ("_sigma", "_tau", "_star"):
            object.__setattr__(other, name, getattr(self, name))
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
    """First m < n with lambda_m = lambda_n, or None when n is admissible."""
    target = lambda_n(eq, n)
    for m in range(n):
        if lambda_n(eq, m) == target:
            return m
    return None


def pearson_weight(eq: HyperEquation, window: Window, anchor: HalfInt) -> PearsonWeight:
    """Solve delta_{-1}[sigma rho] = tau rho on the window, rho(anchor) = 1.

    Forward:  rho(s+1) = rho(s) sigma*(s+1) / sigma(s+1)
    Backward: the same relation inverted.  Any zero of a divisor, or a zero
    weight value, is reported as a PearsonSingularity at the offending point
    (``pearson_steps``).  Each value is its neighbour times one small step.
    """
    steps = pearson_steps(eq, window, anchor)
    base = window.index_of(anchor)
    values = [Fraction(1)] * window.length
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        values[j] = values[j - 1 if j > base else j + 1] * steps[j]
    return PearsonWeight(GridFunction(window.start, tuple(values)))


def pearson_steps(eq: HyperEquation, window: Window, anchor: HalfInt) -> list:
    """The Pearson recurrence checked on the whole window, not multiplied
    out: at each point t its step away from the anchor, rho(t) / rho(t-1) =
    sigma*(t) / sigma(t) on the right and rho(t) / rho(t+1) = sigma(t+1) /
    sigma*(t+1) on the left (1 at the anchor).  The scan runs forward from
    the anchor, then backward, and raises PearsonSingularity at the first
    point t whose divisor vanishes, or whose dividend and so rho(t) does.
    Each step is one normalized quotient of the numerators and
    denominators of the sigma and sigma* table values."""
    if anchor not in window:
        raise OutOfWindow(f"anchor {anchor} not in window {window}")
    steps = [Fraction(1)] * window.length
    base = window.index_of(anchor)
    for j in (*range(base + 1, window.length), *range(base - 1, -1, -1)):
        forward = j > base
        twice = window.start.twice + 2 * j + (0 if forward else 2)
        sig, star = eq.sigma_at(twice), eq.sigma_star_at(twice)
        num, den = (star, sig) if forward else (sig, star)
        if den.numerator == 0:
            t = window.start + j
            raise PearsonSingularity(f"sigma vanishes at s={t}" if forward else
                                     f"backward Pearson step vanishes at s={t}", point=t)
        if num.numerator == 0:
            t = window.start + j
            raise PearsonSingularity(f"weight vanishes at s={t}", point=t)
        steps[j] = Fraction(num.numerator * den.denominator, num.denominator * den.numerator)
    return steps


def rho_k(eq: HyperEquation, weight: PearsonWeight, k: int, s: HalfInt) -> Scalar:
    """rho_k(s) = rho(s+k) * prod_{i=1..k} sigma(s+i); rho_0 = rho."""
    if k < 0:
        raise ValueError("rho_k is defined for nonnegative k")
    # rho(s+k) and the k sigma table values multiplied as integer numerators
    # and denominators: one normalization in place of k
    value = weight.value_at(s + k)
    num, den = value.numerator, value.denominator
    for twice in range(s.twice + 2, s.twice + 2 * k + 1, 2):
        factor = eq.sigma_at(twice)
        num *= factor.numerator
        den *= factor.denominator
    return Fraction(num, den)


def _three_term(lat: Lattice, y: GridFunction, sig, tau, lam: Scalar) -> GridFunction:
    """sig delta_{-1} nabla_0 y + tau delta_0 y + lam y on the interior window
    (one point lost per side); sig and tau are callables of s.

    Written out, the two divided differences give the three-term form

        L[y](s) = A(s) y(s+1) + B(s) y(s) + C(s) y(s-1),
        A = (sig + tau delta x_{-1}) / (delta x_{-1} delta x_0),
        C = sig / (delta x_{-1} nabla x_0),   B = lam - A - C,

    with coefficients far smaller than the values of y.  A, B and C are
    formed as integers over one denominator W per point, from the
    numerators and denominators of sig(s), tau(s), lam and the three steps,
    with no ``Fraction`` made.  The three products are summed in integers
    over the least common denominator of the three values of y, which share
    most of their factors, and each output value is one normalization of
    that sum over W times that denominator.  Every step is read first,
    through the zero-step guard, in the order the two passes of divided
    differences read them (each nabla x_0, then each delta x_{-1}, left to
    right), so a zero step is named as by those passes.
    """
    start, v = y.start + 1, y.values
    inner = range(len(v) - 2)
    # nabla x_0 at each output point s and one point further, since
    # nabla x_0(s + 1) = delta x_0(s); then delta x_{-1} at each s
    nablas = [lat.nabla_divisor(0, start + j) for j in range(len(v) - 1)]
    deltas = [lat.delta_divisor(-1, start + j) for j in inner]
    ln, ld = lam.numerator, lam.denominator
    out = []
    for j in inner:
        s = start + j
        sg, ta = sig(s), tau(s)
        sn, sd, tn, td = sg.numerator, sg.denominator, ta.numerator, ta.denominator
        en, ed = deltas[j].numerator, deltas[j].denominator            # delta x_{-1}
        an, ad = nablas[j + 1].numerator, nablas[j + 1].denominator    # delta x_0
        bn, bd = nablas[j].numerator, nablas[j].denominator            # nabla x_0
        # A, B and C over W = base * ld
        base = sd * td * en * an * bn
        a = (sn * td * ed + tn * en * sd) * ad * bn * ld
        c = sn * ed * bd * td * an * ld
        num, den = 0, 1
        for coef, value in ((a, v[j + 2]), (ln * base - a - c, v[j + 1]), (c, v[j])):
            d = value.denominator
            g = gcd(den, d)
            num = num * (d // g) + coef * value.numerator * (den // g)
            den *= d // g
        out.append(Fraction(num, den * base * ld))
    return GridFunction(start, tuple(out))


def _coefficients(eq: HyperEquation):
    """(sigma, tau) as callables of s."""
    return lambda s: sigma_of_s(eq, s), lambda s: tau_of_s(eq, s)


def apply_L(eq: HyperEquation, y: GridFunction) -> GridFunction:
    """Residual of L[y] on the interior window (one point lost per side)."""
    if len(y) < 3:
        raise WindowTooSmall("apply_L needs at least three points")
    return _three_term(eq.lattice, y, *_coefficients(eq), eq.lam)


# ---------------------------------------------------------------------------
# adjoint machinery


def _adjoint_sigma(lat: Lattice, sig, tau, s: HalfInt) -> Scalar:
    """sigma*(s) = sigma(s-1) + tau(s-1) nabla x_{-1}(s), for callables sig, tau."""
    prev = s - 1
    return sig(prev) + tau(prev) * lat.nabla_x(-1, s)


def _adjoint_tau(lat: Lattice, sig, star, s: HalfInt) -> Scalar:
    """tau*(s) = [sigma(s+1) - sigma*(s)] / delta x_{-1}(s), for callables
    sig and star (sigma*)."""
    return lat.delta_quotient(sig(s + 1) - star(s), -1, s)


def _adjoint_lambda_shift(lat: Lattice, sig, star, s: HalfInt) -> Scalar:
    """lambda - lambda*, from its defining difference expression at s:

        delta_{-1}( [sigma*(s) - sigma(s)] / nabla x(s) )

    for callables sig and star (sigma*).
    """
    def h(t: HalfInt) -> Scalar:
        return lat.nabla_quotient(star(t) - sig(t), 0, t)

    return lat.delta_quotient(h(s + 1) - h(s), -1, s)


def _star_coefficients(eq: HyperEquation):
    """(sigma*, tau*) as callables of s."""
    return lambda s: sigma_star(eq, s), lambda s: tau_star(eq, s)


def sigma_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return eq.sigma_star_at(s.twice)


def tau_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return _adjoint_tau(eq.lattice, partial(sigma_of_s, eq), partial(sigma_star, eq), s)


def lambda_star_at(eq: HyperEquation, s: HalfInt) -> Scalar:
    """lambda* from its defining difference expression, evaluated at s."""
    return eq.lam - _adjoint_lambda_shift(
        eq.lattice, partial(sigma_of_s, eq), partial(sigma_star, eq), s)


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
    out = _three_term(eq.lattice, w, *_star_coefficients(eq), lambda_star(eq))
    _checked_lambda_star(eq, out.points())
    return out


def dual_coefficients(eq: HyperEquation, s: HalfInt):
    """Reconstruct (sigma(s), tau(s), lambda) by applying the adjoint map to
    (sigma*, tau*, lambda*); the map is an involution, so this must give back
    the originals.  lambda* is checked at s after the starred shift."""
    lat, star = eq.lattice, _star_coefficients(eq)

    def star_star(t: HalfInt) -> Scalar:
        return _adjoint_sigma(lat, *star, t)

    return (star_star(s), _adjoint_tau(lat, star[0], star_star, s),
            -_adjoint_lambda_shift(lat, star[0], star_star, s) + _checked_lambda_star(eq, (s,)))


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
