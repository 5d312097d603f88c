"""The second-order difference equation of hypergeometric type on a lattice.

An equation is the coefficient triple (sigma~, tau~, lambda): polynomials of
degree at most two and one in x(s), plus a constant.  Everything else is
derived from them:

    sigma(s) = sigma~(x(s)) - (1/2) tau~(x(s)) * nabla x_1(s)
    tau(s)   = tau~(x(s))
    L[y](s)  = sigma(s) delta_{-1} nabla_0 y + tau(s) delta_0 y + lambda y

The level-k ladder coefficients

    tau_k(s) = [sigma(s+k) - sigma(s) + tau(s+k) nabla x_1(s+k)] / nabla x_{k+1}(s)
    mu_k     = lambda + kappa_k nu(k)
    lambda_n = -kappa_n nu(n)

drive the polynomial eigenfunctions, and the adjoint coefficients

    sigma*(s) = sigma(s-1) + tau(s-1) nabla x_{-1}(s)
    tau*(s)   = [sigma(s+1) - sigma(s-1) - tau(s-1) nabla x_{-1}(s)] / delta x_{-1}(s)
    lambda*   = lambda - kappa_{-1}

define the adjoint operator L*, which satisfies L*[rho y] = rho L[y] for the
Pearson weight rho.  L and L* are the same three-term operator with
different coefficients.  The adjoint map (sigma, tau, lambda) ->
(sigma*, tau*, lambda*) is written once, for any pair of coefficient
functions, and it is an involution: ``dual_coefficients`` applies it a
second time, to the starred coefficients, and must get back sigma, tau and
lambda.  The weight itself is fixed only up to scale by

    delta_{-1}[sigma rho] = tau rho,  i.e.  rho(s+1) / rho(s) = sigma*(s+1) / sigma(s+1),

and is normalized here to rho(anchor) = 1.  sigma* is written out once
(``_adjoint_sigma``); tau*, lambda*, tau_k = [sigma*(s+k+1) - sigma(s)] /
nabla x_{k+1}(s) and the Pearson step all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import (
    DegenerateStep,
    NonConstantLambdaStar,
    OutOfWindow,
    PearsonSingularity,
    WindowTooSmall,
)
from .grid import GridFunction, Window, delta_k, nabla_k
from .lattice import HalfInt, Lattice, divide_by_step, kappa
from .numerics import Scalar, format_rational


@dataclass(frozen=True)
class HyperEquation:
    """Coefficients sigma_t = (sigma~(0), sigma~'(0), sigma~''/2) and
    tau_t = (tau~(0), tau~'), with the spectral parameter ``lam``.

    sigma(s) and tau(s) are kept in tables indexed by 2s, like the lattice
    values they are made of: each is computed once per point, on first use.
    The tables live as long as the equation (and the copies ``with_lambda``
    makes, which share them) and take no part in equality, hashing or
    ``repr``.
    """

    lattice: Lattice
    sigma_t: tuple
    tau_t: tuple
    lam: Scalar = Fraction(0)
    _sigma: dict = field(default_factory=dict, init=False,
                         repr=False, compare=False, hash=False)
    _tau: dict = field(default_factory=dict, init=False,
                       repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.sigma_t) != 3:
            raise ValueError("sigma_t must have exactly three coefficients")
        if len(self.tau_t) != 2:
            raise ValueError("tau_t must have exactly two coefficients")
        object.__setattr__(self, "sigma_t", tuple(self.sigma_t))
        object.__setattr__(self, "tau_t", tuple(self.tau_t))

    @property
    def sigma2(self) -> Scalar:
        """sigma~'' (twice the stored leading coefficient)."""
        return 2 * self.sigma_t[2]

    @property
    def tau1(self) -> Scalar:
        """tau~'."""
        return self.tau_t[1]

    def sigma_tilde(self, x: Scalar) -> Scalar:
        return self.sigma_t[0] + self.sigma_t[1] * x + self.sigma_t[2] * x * x

    def tau_tilde(self, x: Scalar) -> Scalar:
        return self.tau_t[0] + self.tau_t[1] * x

    def sigma_at(self, twice: int) -> Scalar:
        """sigma(twice/2), from the table."""
        value = self._sigma.get(twice)
        if value is None:
            x_at = self.lattice.x_at
            value = self._sigma[twice] = (
                self.sigma_tilde(x_at(twice))
                - self.tau_at(twice) * (x_at(twice + 1) - x_at(twice - 1)) / 2)
        return value

    def tau_at(self, twice: int) -> Scalar:
        """tau(twice/2), from the table."""
        value = self._tau.get(twice)
        if value is None:
            value = self._tau[twice] = self.tau_tilde(self.lattice.x_at(twice))
        return value

    def with_lambda(self, lam: Scalar) -> "HyperEquation":
        """The same equation at another lambda; sigma and tau do not depend
        on lambda, so the copy shares their tables."""
        other = replace(self, lam=lam)
        object.__setattr__(other, "_sigma", self._sigma)
        object.__setattr__(other, "_tau", self._tau)
        return other

    def kappa(self, mu: int) -> Scalar:
        return kappa(self.lattice, self.sigma2, self.tau1, mu)


@dataclass(frozen=True)
class PearsonWeight:
    """rho on a window, normalized to rho(anchor) = 1."""

    rho: GridFunction
    anchor: HalfInt

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
    return divide_by_step(sigma_star(eq, s + k + 1) - sigma_of_s(eq, s),
                          eq.lattice.nabla_x(k + 1, s), k + 1, s)


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
    weight value, is reported as a PearsonSingularity at the offending point.
    """
    if anchor not in window:
        raise OutOfWindow(f"anchor {anchor} not in window {window}")
    values: list = [None] * window.length
    base = window.index_of(anchor)
    values[base] = Fraction(1)
    s = anchor
    for j in range(base + 1, window.length):
        s = s + 1
        den = sigma_of_s(eq, s)
        if den == 0:
            raise PearsonSingularity(f"sigma vanishes at s={s}", point=s)
        values[j] = values[j - 1] * sigma_star(eq, s) / den
        if values[j] == 0:
            raise PearsonSingularity(f"weight vanishes at s={s}", point=s)
    s = anchor
    for j in range(base - 1, -1, -1):
        prev = s - 1
        den = sigma_star(eq, s)
        if den == 0:
            raise PearsonSingularity(f"backward Pearson step vanishes at s={prev}", point=prev)
        values[j] = values[j + 1] * sigma_of_s(eq, s) / den
        if values[j] == 0:
            raise PearsonSingularity(f"weight vanishes at s={prev}", point=prev)
        s = prev
    return PearsonWeight(GridFunction(window.start, tuple(values)), anchor)


def rho_k(eq: HyperEquation, weight: PearsonWeight, k: int, s: HalfInt) -> Scalar:
    """rho_k(s) = rho(s+k) * prod_{i=1..k} sigma(s+i); rho_0 = rho."""
    if k < 0:
        raise ValueError("rho_k is defined for nonnegative k")
    value = weight.value_at(s + k)
    for i in range(1, k + 1):
        value *= sigma_of_s(eq, s + i)
    return value


def _three_term(lat: Lattice, y: GridFunction, sig, tau, lam: Scalar) -> GridFunction:
    """sig delta_{-1} nabla_0 y + tau delta_0 y + lam y on the interior window
    (one point lost per side); sig and tau are callables of s."""
    second = delta_k(lat, -1, nabla_k(lat, 0, y))   # on [start+1, end-1]
    first = delta_k(lat, 0, y)                       # on [start,   end-1]
    return GridFunction(second.start, tuple(
        sig(s) * second.value_at(s) + tau(s) * first.value_at(s) + lam * y.value_at(s)
        for s in second.points()))


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


def _adjoint_tau(lat: Lattice, sig, tau, s: HalfInt) -> Scalar:
    """tau*(s) = [sigma(s+1) - sigma*(s)] / delta x_{-1}(s)."""
    return divide_by_step(sig(s + 1) - _adjoint_sigma(lat, sig, tau, s),
                          lat.delta_x(-1, s), -1, s)


def _adjoint_lambda_shift(lat: Lattice, sig, tau, s: HalfInt) -> Scalar:
    """lambda - lambda*, from its defining difference expression at s:

        delta_{-1}( [sigma*(s) - sigma(s)] / nabla x(s) )
    """
    def h(t: HalfInt) -> Scalar:
        return divide_by_step(_adjoint_sigma(lat, sig, tau, t) - sig(t),
                              lat.nabla_x(0, t), 0, t)

    return divide_by_step(h(s + 1) - h(s), lat.delta_x(-1, s), -1, s)


def _star_coefficients(eq: HyperEquation):
    """(sigma*, tau*) as callables of s."""
    return lambda s: sigma_star(eq, s), lambda s: tau_star(eq, s)


def sigma_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return _adjoint_sigma(eq.lattice, *_coefficients(eq), s)


def tau_star(eq: HyperEquation, s: HalfInt) -> Scalar:
    return _adjoint_tau(eq.lattice, *_coefficients(eq), s)


def lambda_star_at(eq: HyperEquation, s: HalfInt) -> Scalar:
    """lambda* from its defining difference expression, evaluated at s."""
    return eq.lam - _adjoint_lambda_shift(eq.lattice, *_coefficients(eq), s)


def lambda_star(eq: HyperEquation) -> Scalar:
    """lambda* = lambda - kappa_{-1}, cross-checked against the defining
    expression at a regular grid point.  Disagreement is a hard error."""
    closed = eq.lam - eq.kappa(-1)
    s = _regular_point(eq.lattice)
    direct = lambda_star_at(eq, s)
    if direct != closed:
        raise NonConstantLambdaStar(
            f"lambda* mismatch: direct {format_rational(direct)} vs closed form "
            f"{format_rational(closed)} at s={s}")
    return closed


def _regular_point(lat: Lattice) -> HalfInt:
    # A point where every step used by lambda_star_at is nonzero.  The zero
    # set of the steps is finite, so a short scan suffices.
    for twice in list(range(4, 40)) + list(range(-4, -40, -1)):
        s = HalfInt(twice)
        if all(lat.nabla_x(0, s + d) != 0 for d in (0, 1)) and lat.delta_x(-1, s) != 0:
            return s
    raise DegenerateStep("no regular grid point found for this lattice")


def adjoint_coeffs(eq: HyperEquation, window: Window) -> AdjointCoefficients:
    """sigma*, tau* sampled on the window, with the constant lambda*.

    lambda* is evaluated from its defining expression at every window point
    and must be constant (and equal to lambda - kappa_{-1}); anything else
    signals an implementation or lattice-degeneracy fault.
    """
    sig = GridFunction.sample(window, lambda s: sigma_star(eq, s))
    tau = GridFunction.sample(window, lambda s: tau_star(eq, s))
    closed = eq.lam - eq.kappa(-1)
    for s in window.points():
        value = lambda_star_at(eq, s)
        if value != closed:
            raise NonConstantLambdaStar(
                f"lambda* varies: {format_rational(value)} at s={s}, "
                f"expected {format_rational(closed)}")
    return AdjointCoefficients(sig, tau, closed)


def apply_L_star(eq: HyperEquation, w: GridFunction) -> GridFunction:
    """Residual of L*[w] = sigma* delta_{-1} nabla_0 w + tau* delta_0 w + lambda* w."""
    if len(w) < 3:
        raise WindowTooSmall("apply_L_star needs at least three points")
    lam_star = lambda_star(eq)
    return _three_term(eq.lattice, w, *_star_coefficients(eq), lam_star)


def dual_coefficients(eq: HyperEquation, s: HalfInt):
    """Reconstruct (sigma(s), tau(s), lambda) by applying the adjoint map to
    the starred coefficients (sigma*, tau*, lambda*).  The map is an
    involution, so this second application must give back the originals."""
    lat, star = eq.lattice, _star_coefficients(eq)
    return (_adjoint_sigma(lat, *star, s), _adjoint_tau(lat, *star, s),
            lambda_star(eq) - _adjoint_lambda_shift(lat, *star, s))


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
    """hat_mu_n = -kappa_{n-1} nu(n+1), cross-checked against the equivalent
    form -kappa_{-1} - kappa_n nu(n)."""
    lat = eq.lattice
    primary = -eq.kappa(n - 1) * lat.nu(n + 1)
    other = -eq.kappa(-1) - eq.kappa(n) * lat.nu(n)
    if primary != other:
        raise NonConstantLambdaStar(
            f"hat_mu_n closed forms disagree: {format_rational(primary)} "
            f"vs {format_rational(other)}")
    return primary
