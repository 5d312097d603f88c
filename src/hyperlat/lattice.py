"""The two lattice families and their shift/step geometry.

A lattice is a function x(s) of the form

    q-quadratic:  x(s) = c1*q^s + c2*q^(-s) + c3        (c1, c2 not both 0)
    quadratic:    x(s) = ct1*s^2 + ct2*s + ct3          (ct1, ct2 not both 0)

together with its shifted copies x_k(s) = x(s + k/2).  All evaluation points
are half-integers, and q is supplied through its square root p, so that
q^(s + k/2) = p^(2s + k) stays an exact rational.  Arguments are carried by
``HalfInt``, which stores twice the value as an integer.

Each family includes its special cases: the q-linear lattice (c1 = 0 or
c2 = 0), the lattice ct1*s^2 + ct3 (ct2 = 0) and the linear lattice
ct2*s + ct3 (ct1 = 0).  Only a constant x(s) is rejected, with a
``LatticeError``; where a special case makes a step vanish, the step quotient
below names the point.

The module holds geometry only.  Its scalars nu(mu) and alpha(mu),

    nu(mu)    = (q^(mu/2) - q^(-mu/2)) / (q^(1/2) - q^(-1/2))   or  mu
    alpha(mu) = (q^(mu/2) + q^(-mu/2)) / 2                      or  1

enter the eigenvalue structure through the ladder coefficient kappa_mu,
which also needs the equation's coefficients and so lives on the equation
(``equation.HyperEquation.kappa``).

Every divided difference of the library divides by a step of some x_k, and
reads it through one guard, ``Lattice.delta_divisor`` or
``Lattice.nabla_divisor``: each reads its own step, delta x_k(s) or
nabla x_k(s), and a zero step raises ``DegenerateStep`` naming k and s.
``delta_quotient`` and ``nabla_quotient`` divide a scalar by the guarded
step; the integer kernels of ``grid`` and ``equation`` divide by its
numerator and denominator.

Integer forms.  On either family x(s), its steps, and the equation's
sigma(s), tau(s) and sigma*(s) are Laurent polynomials in one point variable
of t = 2s (``Lattice.point``): t itself on the quadratic family, and
p^t = a/b on the q-family, with (a, b) = (num^t, den^t) for t >= 0 and
(den^-t, num^-t) for t < 0, where p = num/den.  A function of order r (1 for
x, its steps and tau, 2 for sigma and sigma*) spans the powers 0..2r of t,
or -r..r of p^t.  ``Lattice.integer_form`` interpolates its closed formula
at t = -r..r into a ``numerics.IntegerForm``, integer coefficients over one
denominator, and checks the form against the formula at t = -r-1 and r+1;
a mismatch is a library bug and raises ``AssertionError``.  A
``FormTable`` builds the form on its first miss and fills each value by one
integer Horner pass and one normalization, so the closed formulas run only
at those 2r + 3 nodes, however many points are read.  The lattice keeps x
in such a table (``x_at``), and its steps x_at(a + 2) - x_at(a) in another,
keyed by a = 2s + k (``step_at``), which ``delta_x``, ``nabla_x`` and so
every step quotient read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateStep, LatticeError
from .numerics import IntegerForm, Rational, Scalar, format_rational


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


class FormTable(dict):
    """The values of one function of t = 2s on a lattice, keyed by t, and
    the function's integer form, built on the first ``fill``.  The table
    holds no reference to its owner, so an owner and its tables are freed
    as soon as the owner is dropped.  Owners read a value by ``get`` and
    fill it on a miss."""

    form = None

    def fill(self, lattice: "Lattice", formula, order: int, twice: int) -> Scalar:
        """The value at t = twice, from the integer form of ``formula`` (a
        callable of t of the given order), kept in the table."""
        if self.form is None:
            self.form = lattice.integer_form(formula, order)
        value = self[twice] = self.form.at(*lattice.point(twice))
        return value


@dataclass(frozen=True)
class Lattice:
    """Common interface of the two families.  Instances are immutable.

    x_k(s) depends on k and s only through the integer 2s + k, so every
    value and mean below reads one table indexed by it (``x_at``), filled
    from the integer form of the family formula ``x_k``, and every step
    reads a second table indexed the same way (``step_at``).  The tables
    live as long as the lattice, grow with the points asked for, and take
    no part in equality, hashing or ``repr``.
    """

    _table: FormTable = field(default_factory=FormTable, init=False,
                              repr=False, compare=False, hash=False)
    _steps: FormTable = field(default_factory=FormTable, init=False,
                              repr=False, compare=False, hash=False)

    # whether a function of order r reaches down to the power -r of the
    # point variable (a Laurent polynomial) or starts at the power 0
    laurent = False

    def point(self, twice: int) -> tuple[int, int]:
        """The point variable at t = twice as integers (a, b), value a/b."""
        raise NotImplementedError

    def integer_form(self, formula, order: int) -> IntegerForm:
        """The integer form of ``formula``, a callable of t = 2s of the given
        order: interpolated at t = -order..order, and checked against the
        formula at one more node on each side."""
        nodes = range(-order - 1, order + 2)
        points = [self.point(t) for t in nodes]
        values = [formula(t) for t in nodes]
        form = IntegerForm.through([Fraction(a, b) for a, b in points[1:-1]],
                                   values[1:-1], order if self.laurent else 0)
        for j in (0, -1):
            if form.at(*points[j]) != values[j]:
                raise AssertionError(f"integer form of order {order} disagrees with "
                                     f"its formula at 2s={nodes[j]}")
        return form

    def x_at(self, twice: int) -> Scalar:
        """x(twice/2), from the table; x_k(s) is ``x_at(2s + k)``."""
        value = self._table.get(twice)
        if value is None:
            value = self._table.fill(self, self._x_formula, 1, twice)
        return value

    def _x_formula(self, twice: int) -> Scalar:
        return self.x_k(0, HalfInt(twice))

    def x(self, s: HalfInt) -> Scalar:
        return self.x_at(s.twice)

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        """x(s + k/2), straight from the family formula (no table)."""
        raise NotImplementedError

    def step_at(self, a: int) -> Scalar:
        """x_at(a + 2) - x_at(a), from the step table: delta x_k(s) at
        a = 2s + k, and nabla x_k(s) at a = 2s + k - 2.  The table is filled
        from the integer form of that difference, so it reads x only at the
        nodes of the form."""
        value = self._steps.get(a)
        if value is None:
            value = self._steps.fill(self, self._step_formula, 1, a)
        return value

    def _step_formula(self, a: int) -> Scalar:
        return self.x_at(a + 2) - self.x_at(a)

    def nu(self, mu: int) -> Scalar:
        raise NotImplementedError

    def alpha(self, mu: int) -> Scalar:
        raise NotImplementedError

    # step sizes; a unit step of s on level k
    def delta_x(self, k: int, s: HalfInt) -> Scalar:
        """x_k(s+1) - x_k(s)."""
        return self.step_at(s.twice + k)

    def nabla_x(self, k: int, s: HalfInt) -> Scalar:
        """x_k(s) - x_k(s-1)."""
        return self.step_at(s.twice + k - 2)

    # the one zero-step guard: every step a quotient divides by is read here
    def delta_divisor(self, k: int, s: HalfInt) -> Scalar:
        """delta x_k(s); a zero step raises DegenerateStep naming s."""
        return _nonzero_step(self.delta_x(k, s), k, s)

    def nabla_divisor(self, k: int, s: HalfInt) -> Scalar:
        """nabla x_k(s); a zero step raises DegenerateStep naming s."""
        return _nonzero_step(self.nabla_x(k, s), k, s)

    def delta_quotient(self, num: Scalar, k: int, s: HalfInt) -> Scalar:
        """num / delta x_k(s), through the guard."""
        return num / self.delta_divisor(k, s)

    def nabla_quotient(self, num: Scalar, k: int, s: HalfInt) -> Scalar:
        """num / nabla x_k(s), through the guard."""
        return num / self.nabla_divisor(k, s)

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

    laurent = True

    def __post_init__(self):
        if self.p == 0 or self.p == 1 or self.p == -1:
            raise LatticeError("p must not be 0, 1, or -1")
        if self.c1 == 0 and self.c2 == 0:
            raise LatticeError(
                "q-quadratic lattice needs c1 or c2 nonzero (x(s) is constant)")

    def point(self, twice: int) -> tuple[int, int]:
        """p^twice as (a, b), p = num/den: (num^t, den^t), or (den^-t, num^-t)
        for t = twice < 0."""
        num, den = self.p.numerator, self.p.denominator
        return (num ** twice, den ** twice) if twice >= 0 else (den ** -twice, num ** -twice)

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

    def __post_init__(self):
        if self.ct1 == 0 and self.ct2 == 0:
            raise LatticeError(
                "quadratic lattice needs ct1 or ct2 nonzero (x(s) is constant)")

    def point(self, twice: int) -> tuple[int, int]:
        return twice, 1

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        z = Fraction(s.twice + k, 2)
        return self.ct1 * z * z + self.ct2 * z + self.ct3

    def nu(self, mu: int) -> Scalar:
        return Fraction(mu)

    def alpha(self, mu: int) -> Scalar:
        return Fraction(1)


def _nonzero_step(step: Scalar, k: int, s: HalfInt) -> Scalar:
    """``step``, an increment of x_k taken at s, checked before anything
    divides by it: zero raises DegenerateStep naming s instead of a bare
    ZeroDivisionError."""
    if step == 0:
        raise DegenerateStep(f"zero step of x_{k} at s={s}", point=s)
    return step
