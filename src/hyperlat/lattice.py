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
reads it through one guard, ``Lattice.divisors(a, k, twice, count)``: it
returns the table pairs of ``step_at(a + 2j)`` for j < count (a = 2s + k
for delta x_k(s), 2s + k - 2 for nabla x_k(s)), and the first zero step
raises ``DegenerateStep`` naming k and its s = twice/2 + j.  ``quotient``
(and ``nabla_quotient``) divide a scalar by one guarded step; the integer
kernels of ``grid`` and ``equation`` read a run of pairs in one call and
divide by their numerators and denominators.

Integer forms.  On either family x(s), its steps, and the equation's
sigma(s), tau(s) and sigma*(s) are Laurent polynomials in one point variable
of t = 2s (``Lattice.point``): t itself on the quadratic family, and
p^t = a/b on the q-family, with (a, b) = (num^t, den^t) for t >= 0 and
(den^-t, num^-t) for t < 0, where p = num/den.  Each is kept as a
``numerics.IntegerForm``, integer coefficients over one denominator, built
by exact integer algebra: the lattice writes the form of x from the family's
coefficients (``written_x``), and every other form is composed from it by
sums, products, rational scalings and the move t -> t + k
(``Lattice.shifted``: a Taylor shift of t on the quadratic family, a scaling
of each power of p^t on the q-family).  Each formula is written once, as a
function of readers of 2s, and runs on forms (readers of moved forms, at
t = 0) and on ``Fraction`` values (``Fraction`` views of the tables)
alike (``Lattice.composed``).  A form of order r (1 for x, its steps and
tau, 2 for sigma and sigma*) is checked against its formula on values at
t = -r-1 and r+1 (``Lattice.checked``; the form of x against the family
formula ``x_k``); a mismatch is a library bug and raises ``AssertionError``.

Each of the five functions is kept in one ``FormTable``, the only code that
gets, fills or builds: its owner declares it once (``FormTable.declared``),
its form is built on the first read, and each missing value is filled by
one integer Horner pass (``IntegerForm.evaluated``) and one gcd into a
reduced pair (num, den), den > 0, with no ``Fraction`` made, so the
formulas run on values only at the check nodes, however many points are
read.  The lattice keeps x and its steps x(a + 2) - x(a), keyed by
a = 2s + k, which the guard and so every step quotient read; the equation
keeps sigma, tau and sigma*.  The kernels bind a table once per call and
read its pairs; the public readers (``x_at``, ``step_at`` and the
equation's ``sigma_at``, ``tau_at`` and ``sigma_star_at``) return
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, total_ordering
from math import gcd

from .errors import DegenerateStep, LatticeError
from .numerics import IntegerForm, Rational, Record, Scalar, format_rational


@total_ordering
class HalfInt(Record):
    """An exact half-integer s, stored as ``twice`` = 2s, and ordered by it.

    Closed under unit steps (s + j for integer j); a half step s + k/2 is
    ``HalfInt(s.twice + k)``.  That is all the lattice calculus needs.
    """

    _fields = ("twice",)

    def __init__(self, twice: int):
        object.__setattr__(self, "twice", twice)

    def __lt__(self, other):
        return self.twice < other.twice if other.__class__ is self.__class__ else NotImplemented

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
    """The values of one function of t = 2s on a lattice, keyed by t, as
    reduced pairs (num, den) with den > 0: each missing value is filled
    from the function's integer form ``form`` at the point ``point(t)`` by
    one Horner pass (``IntegerForm.evaluated``) and one gcd, and no
    ``Fraction`` is made.  ``fraction`` reads a value as a ``Fraction``.
    The point reader is a function of t alone, so a table holds no
    reference to its owner, and an owner and its tables are freed as soon
    as the owner is dropped."""

    def __init__(self, point, form: IntegerForm):
        self.point, self.form = point, form

    def __missing__(self, twice: int) -> tuple[int, int]:
        num, den = self.form.evaluated(*self.point(twice))
        g = gcd(num, den)
        value = self[twice] = (num // g, den // g) if den > 0 else (-num // g, -den // g)
        return value

    def fraction(self, twice: int) -> Scalar:
        """The value at t as a ``Fraction``."""
        return Fraction(*self[twice])

    class declared:
        """An owner's table (or the equation's adjoint), declared by the
        method that makes it: made on the first read of the attribute and
        then stored on the owner by ``object.__setattr__``, past the frozen
        ``__setattr__`` of a ``numerics.Record``.  It is not one of the
        owner's ``_fields``, so it takes no part in equality, hashing or
        ``repr``.  Unlike ``functools.cached_property`` it leaves the owner's
        ``__dict__`` alone: materializing it makes every other attribute
        read of the owner slower."""

        def __init__(self, make):
            self.make, self.name = make, make.__name__

        def __get__(self, owner, cls=None):
            if owner is None:
                return self
            table = self.make(owner)
            object.__setattr__(owner, self.name, table)
            return table


class Lattice(Record):
    """Common interface of the two families.  Instances are immutable.

    x_k(s) depends on k and s only through the integer 2s + k, so every
    value and mean below reads one ``FormTable`` indexed by it (``x_at``),
    built from the integer form of x written from the family's
    coefficients, and every step reads a second table indexed the same way
    (``step_at``, and as pairs ``divisors``).  Each table is declared once
    (``FormTable.declared``): it lives as long as the lattice, grows with
    the points asked for, and takes no part in equality, hashing or
    ``repr``.
    """

    def point(self, twice: int) -> tuple[int, int]:
        """The point variable at t = twice as integers (a, b), value a/b.
        Each family's reader is a function of t alone, so the tables that
        keep it hold no reference to the lattice."""
        raise NotImplementedError

    def written_x(self) -> IntegerForm:
        """The form of x(t/2), written from the family's coefficients."""
        raise NotImplementedError

    def shifted(self, form: IntegerForm, k: int) -> IntegerForm:
        """The form of f(t + k), for the form of f(t)."""
        raise NotImplementedError

    def checked(self, form: IntegerForm, formula, order: int) -> IntegerForm:
        """``form``, once it equals ``formula``, a callable of t = 2s, at one
        node past each end of t = -order..order; the form's integers are
        compared with the formula's value by cross-multiplication."""
        for t in (-order - 1, order + 1):
            num, den = form.evaluated(*self.point(t))
            value = formula(t)
            if num * value.denominator != den * value.numerator:
                raise AssertionError(f"integer form of order {order} disagrees with "
                                     f"its formula at 2s={t}")
        return form

    def composed(self, formula, order: int, *tables: FormTable) -> IntegerForm:
        """The checked form of ``formula``, a function of readers of 2s and
        of a point 2s, of the given order: run on readers of the tables'
        moved forms at t = 0, and checked against its run on the tables."""
        forms = [self._mover(table.form) for table in tables]
        values = [table.fraction for table in tables]
        return self.checked(formula(*forms, 0), lambda t: formula(*values, t), order)

    def _mover(self, form: IntegerForm):
        """The reader of ``form`` moved by k: the form of f(t + k)."""
        return lambda k: self.shifted(form, k) if k else form

    @FormTable.declared
    def _table(self) -> FormTable:
        """x, its form written from the coefficients and checked against
        the family formula ``x_k``."""
        return FormTable(self.point, self.checked(
            self.written_x(), lambda t: self.x_k(0, HalfInt(t)), 1))

    @FormTable.declared
    def _steps(self) -> FormTable:
        """The step x_at(t + 2) - x_at(t)."""
        return FormTable(self.point, self.composed(lambda x, t: x(t + 2) - x(t), 1, self._table))

    def x_form(self) -> IntegerForm:
        """The integer form of x."""
        return self._table.form

    def x_at(self, twice: int) -> Scalar:
        """x(twice/2), from the table; x_k(s) is ``x_at(2s + k)``."""
        return self._table.fraction(twice)

    def x(self, s: HalfInt) -> Scalar:
        return self.x_at(s.twice)

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        """x(s + k/2), straight from the family formula (no table)."""
        raise NotImplementedError

    def step_at(self, a: int) -> Scalar:
        """x_at(a + 2) - x_at(a), from the step table: delta x_k(s) at
        a = 2s + k, and nabla x_k(s) at a = 2s + k - 2."""
        return self._steps.fraction(a)

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
    def divisors(self, a: int, k: int, twice: int, count: int) -> list:
        """The pairs of ``count`` steps of x_k, ``step_at(a + 2j)`` taken at
        s = twice/2 + j, checked before anything divides by them: the first
        zero raises DegenerateStep naming its s instead of a bare
        ZeroDivisionError."""
        steps = self._steps
        run = [steps[a + 2 * j] for j in range(count)]
        for j, step in enumerate(run):
            if step[0] == 0:
                s = HalfInt(twice + 2 * j)
                raise DegenerateStep(f"zero step of x_{k} at s={s}", point=s)
        return run

    def quotient(self, num: Scalar, a: int, k: int, twice: int) -> Scalar:
        """num / step_at(a), a step of x_k taken at s = twice/2, through the
        guard."""
        return num / Fraction(*self.divisors(a, k, twice, 1)[0])

    def nabla_quotient(self, num: Scalar, k: int, s: HalfInt) -> Scalar:
        """num / nabla x_k(s), through the guard."""
        return self.quotient(num, s.twice + k - 2, k, s.twice)

    def mean_shift_beta(self) -> Scalar:
        """The constant beta with (x(s+1)+x(s))/2 = alpha(1)*x_1(s) + beta.

        The coefficient is forced to be alpha(1) = (q^(1/2)+q^(-1/2))/2 by the
        q-lattice algebra (1 on the quadratic family).  beta is a consequence
        of the lattice, not a free parameter; computed from s = 0.
        """
        return (self.x_at(2) + self.x_at(0)) / 2 - self.alpha(1) * self.x_at(1)


def _power_point(num: int, den: int, t: int) -> tuple[int, int]:
    """p^t as (a, b), p = num/den: (num^t, den^t), or (den^-t, num^-t) for
    t < 0."""
    return (num ** t, den ** t) if t >= 0 else (den ** -t, num ** -t)


class QQuadraticLattice(Lattice):
    """x(s) = c1*q^s + c2*q^(-s) + c3 with q = p^2."""

    _fields = ("p", "c1", "c2", "c3")

    def __init__(self, p: Rational, c1: Rational, c2: Rational, c3: Rational):
        if p == 0 or p == 1 or p == -1:
            raise LatticeError("p must not be 0, 1, or -1")
        if c1 == 0 and c2 == 0:
            raise LatticeError(
                "q-quadratic lattice needs c1 or c2 nonzero (x(s) is constant)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        # the point reader holds the integers of p, not the lattice
        object.__setattr__(self, "point", partial(_power_point, p.numerator, p.denominator))

    def written_x(self) -> IntegerForm:
        """c2 (p^t)^-1 + c3 + c1 p^t."""
        return IntegerForm.of((self.c2, self.c3, self.c1), 1)

    def shifted(self, form: IntegerForm, k: int) -> IntegerForm:
        """p^(t + k) = p^k p^t: each power of p^t gains its power of p^k."""
        return form.dilated(self.p ** k)

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


class QuadraticLattice(Lattice):
    """x(s) = ct1*s^2 + ct2*s + ct3."""

    _fields = ("ct1", "ct2", "ct3")

    def __init__(self, ct1: Rational, ct2: Rational, ct3: Rational):
        if ct1 == 0 and ct2 == 0:
            raise LatticeError(
                "quadratic lattice needs ct1 or ct2 nonzero (x(s) is constant)")
        object.__setattr__(self, "ct1", ct1)
        object.__setattr__(self, "ct2", ct2)
        object.__setattr__(self, "ct3", ct3)

    @staticmethod
    def point(twice: int) -> tuple[int, int]:
        return twice, 1

    def written_x(self) -> IntegerForm:
        """ct3 + (ct2/2) t + (ct1/4) t^2, since s = t/2."""
        return IntegerForm.of((self.ct3, Fraction(self.ct2, 2), Fraction(self.ct1, 4)))

    def shifted(self, form: IntegerForm, k: int) -> IntegerForm:
        """A Taylor shift of t."""
        return form.translated(k)

    def x_k(self, k: int, s: HalfInt) -> Scalar:
        z = Fraction(s.twice + k, 2)
        return self.ct1 * z * z + self.ct2 * z + self.ct3

    def nu(self, mu: int) -> Scalar:
        return Fraction(mu)

    def alpha(self, mu: int) -> Scalar:
        return Fraction(1)

