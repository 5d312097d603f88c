"""The two nonuniform lattice families and their shift/step geometry.

A lattice is a function x(s) of the form

    q-quadratic:  x(s) = c1*q^s + c2*q^(-s) + c3        (c1*c2 != 0)
    quadratic:    x(s) = ct1*s^2 + ct2*s + ct3          (ct1*ct2 != 0)

together with its shifted copies x_k(s) = x(s + k/2).  All evaluation points
are half-integers, and q is supplied through its square root p, so that
q^(s + k/2) = p^(2s + k) stays an exact rational.  Arguments are carried by
``HalfInt``, which stores twice the value as an integer.

The module holds geometry only.  Its scalars nu(mu) and alpha(mu),

    nu(mu)    = (q^(mu/2) - q^(-mu/2)) / (q^(1/2) - q^(-1/2))   or  mu
    alpha(mu) = (q^(mu/2) + q^(-mu/2)) / 2                      or  1

enter the eigenvalue structure through the ladder coefficient kappa_mu,
which also needs the equation's coefficients and so lives on the equation
(``equation.HyperEquation.kappa``).

Every divided difference of the library divides by a step of some x_k, and
``Lattice.delta_quotient`` and ``Lattice.nabla_quotient`` are the one place
that does it: each reads its own step, delta x_k(s) or nabla x_k(s), and a
zero step raises ``DegenerateStep`` naming k and s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateLattice, DegenerateStep, LatticeError
from .numerics import Rational, Scalar, format_rational


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integer s, stored as ``twice`` = 2s.

    Closed under unit steps (s + j for integer j); a half step s + k/2 is
    ``HalfInt(s.twice + k)``.  That is all the lattice calculus needs.
    """

    twice: int

    @classmethod
    def from_int(cls, value: int) -> "HalfInt":
        return cls(2 * value)

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, steps: int) -> "HalfInt":
        return HalfInt(self.twice + 2 * steps)

    def __sub__(self, steps: int) -> "HalfInt":
        return HalfInt(self.twice - 2 * steps)

    def __str__(self) -> str:
        return format_rational(self.as_fraction())


@dataclass(frozen=True)
class Lattice:
    """Common interface of the two families.  Instances are immutable.

    x_k(s) depends on k and s only through the integer 2s + k, so every
    value, step and mean below reads one table indexed by it (``x_at``),
    which the family formula ``x_k`` fills once per point, on first use.
    The table lives as long as the lattice, grows with the points asked for,
    and takes no part in equality, hashing or ``repr``.
    """

    _table: dict = field(default_factory=dict, init=False,
                         repr=False, compare=False, hash=False)

    def x_at(self, twice: int) -> Scalar:
        """x(twice/2), from the table; x_k(s) is ``x_at(2s + k)``."""
        value = self._table.get(twice)
        if value is None:
            value = self._table[twice] = self.x_k(0, HalfInt(twice))
        return value

    def x(self, s: HalfInt) -> Scalar:
        return self.x_at(s.twice)

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        """x(s + k/2), straight from the family formula (no table)."""
        raise NotImplementedError

    def nu(self, mu: int) -> Scalar:
        raise NotImplementedError

    def alpha(self, mu: int) -> Scalar:
        raise NotImplementedError

    @property
    def is_nonuniform(self) -> bool:
        raise NotImplementedError

    # step sizes; a unit step of s on level k
    def delta_x(self, k: int, s: HalfInt) -> Scalar:
        """x_k(s+1) - x_k(s)."""
        t = s.twice + k
        return self.x_at(t + 2) - self.x_at(t)

    def nabla_x(self, k: int, s: HalfInt) -> Scalar:
        """x_k(s) - x_k(s-1)."""
        t = s.twice + k
        return self.x_at(t) - self.x_at(t - 2)

    # the one place that divides by a lattice step
    def delta_quotient(self, num: Scalar, k: int, s: HalfInt) -> Scalar:
        """num / delta x_k(s); a zero step raises DegenerateStep naming s."""
        return _step_quotient(num, self.delta_x(k, s), k, s)

    def nabla_quotient(self, num: Scalar, k: int, s: HalfInt) -> Scalar:
        """num / nabla x_k(s); a zero step raises DegenerateStep naming s."""
        return _step_quotient(num, self.nabla_x(k, s), k, s)

    def mean_shift_beta(self) -> Scalar:
        """The constant beta with (x(s+1)+x(s))/2 = alpha(1)*x_1(s) + beta.

        The coefficient is forced to be alpha(1) = (q^(1/2)+q^(-1/2))/2 by the
        q-lattice algebra (1 on the quadratic family).  beta is a consequence
        of the lattice, not a free parameter; computed from s = 0.
        """
        return (self.x_at(2) + self.x_at(0)) / 2 - self.alpha(1) * self.x_at(1)


@dataclass(frozen=True)
class QQuadraticLattice(Lattice):
    """x(s) = c1*q^s + c2*q^(-s) + c3 with q = p^2."""

    p: Rational
    c1: Rational
    c2: Rational
    c3: Rational
    allow_degenerate: bool = False

    def __post_init__(self):
        if self.p == 0 or self.p == 1 or self.p == -1:
            raise LatticeError("p must not be 0, 1, or -1")
        if not self.is_nonuniform and not self.allow_degenerate:
            raise DegenerateLattice(
                "q-quadratic lattice needs c1*c2 != 0 (pass allow_degenerate to override)")

    @property
    def is_nonuniform(self) -> bool:
        return self.c1 * self.c2 != 0

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        e = s.twice + k  # 2s + k, always an integer
        pe = self.p ** e
        return self.c1 * pe + self.c2 / pe + self.c3

    def nu(self, mu: int) -> Scalar:
        pm = self.p ** mu
        return (pm - 1 / pm) / (self.p - 1 / self.p)

    def alpha(self, mu: int) -> Scalar:
        pm = self.p ** mu
        return (pm + 1 / pm) / 2


@dataclass(frozen=True)
class QuadraticLattice(Lattice):
    """x(s) = ct1*s^2 + ct2*s + ct3."""

    ct1: Rational
    ct2: Rational
    ct3: Rational
    allow_degenerate: bool = False

    def __post_init__(self):
        if not self.is_nonuniform and not self.allow_degenerate:
            raise DegenerateLattice(
                "quadratic lattice needs ct1*ct2 != 0 (pass allow_degenerate to override)")

    @property
    def is_nonuniform(self) -> bool:
        return self.ct1 * self.ct2 != 0

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        z = Fraction(s.twice + k, 2)
        return self.ct1 * z * z + self.ct2 * z + self.ct3

    def nu(self, mu: int) -> Scalar:
        return Fraction(mu)

    def alpha(self, mu: int) -> Scalar:
        return Fraction(1)


def _step_quotient(num: Scalar, step: Scalar, k: int, s: HalfInt) -> Scalar:
    """num / step for an increment ``step`` of x_k taken at s: a zero step
    raises DegenerateStep naming s instead of a bare ZeroDivisionError."""
    if step == 0:
        raise DegenerateStep(f"zero step of x_{k} at s={s}", point=s)
    return num / step
