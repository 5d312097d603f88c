"""Grid-sampled functions and the divided-difference calculus on them.

A ``GridFunction`` samples f on a contiguous half-integer window
s0, s0+1, ..., s0+m-1.  The forward and backward operators at level k divide
by increments of the shifted lattice x_k(s):

    delta_k f(s) = (f(s+1) - f(s)) / (x_k(s+1) - x_k(s))
    nabla_k f(s) = (f(s) - f(s-1)) / (x_k(s) - x_k(s-1))

and the discrete integral is the sum

    int_N^s g(t) d_nabla x_k(t) = sum_{t=N..s} g(t) * (x_k(t) - x_k(t-1)).

Since nabla x_k(s) = delta x_k(s-1), nabla_k f(s) = delta_k f(s-1): both
operators form the same quotients of consecutive values, and ``nabla_k``
places them one point right.  Windows shrink by exactly one point per
operator application: on the right for delta, on the left for nabla.  That
bookkeeping is the main thing the tests police.  A zero step is named at the
point its quotient sits at: s - 1 by ``delta_k`` and s by ``nabla_k`` for the
same step x_k(s) - x_k(s-1).

The four difference operators share one kernel on integers (``_passes``):
it takes the values as reduced (numerator, denominator) pairs, carries each
pair from the first pass to the last, reduced by the gcds ``Fraction``
takes, and makes one ``Fraction`` per output value.  The Rodrigues
evaluator hands it its pairs directly, with the pairs of the weight rho,
and the kernel divides each last-pass value by its rho pair with the cross
gcds of ``Fraction``'s division before it makes that ``Fraction``; the
public operators are views that read a ``GridFunction``'s values as pairs.
No common denominator is carried across the window: on q-lattices the lcm
of the weight's denominators and the step numerators grows with the
window, and that was slower than reducing each quotient.

Arithmetic between two grid functions needs one window (the same start and
length) and works value by value; to combine functions on different windows,
restrict them to a common one first.  A scalar multiplies from the left.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from .errors import OutOfWindow, WindowTooSmall
from .lattice import HalfInt, Lattice
from .numerics import Scalar


@dataclass(frozen=True)
class Window:
    """A contiguous run of unit-step half-integer points."""

    start: HalfInt
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise WindowTooSmall("window length must be at least 1")

    @classmethod
    def span(cls, start: HalfInt, end: HalfInt) -> "Window":
        """All points start, start+1, ... not exceeding ``end``.

        ``end`` itself need not lie on the grid induced by ``start``.
        """
        gap = end.twice - start.twice
        if gap < 0:
            raise WindowTooSmall(f"empty window {start}..{end}")
        return cls(start, gap // 2 + 1)

    @property
    def end(self) -> HalfInt:
        return self.start + (self.length - 1)

    def points(self) -> Iterator[HalfInt]:
        for j in range(self.length):
            yield self.start + j

    def __contains__(self, s: HalfInt) -> bool:
        gap = s.twice - self.start.twice
        return gap % 2 == 0 and 0 <= gap // 2 < self.length

    def index_of(self, s: HalfInt) -> int:
        if s not in self:
            raise OutOfWindow(f"{s} not in window {self.start}..{self.end}")
        return (s.twice - self.start.twice) // 2

    def expand(self, left: int, right: int) -> "Window":
        return Window(self.start - left, self.length + left + right)

    def covers(self, other: "Window") -> bool:
        return other.start in self and other.end in self

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


@dataclass(frozen=True)
class GridFunction:
    """Values of a function on a window; value j belongs to start + j."""

    start: HalfInt
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise WindowTooSmall("a grid function needs at least one value")

    @classmethod
    def sample(cls, window: Window, fn: Callable[[HalfInt], Scalar]) -> "GridFunction":
        return cls(window.start, tuple(fn(s) for s in window.points()))

    @property
    def window(self) -> Window:
        return Window(self.start, len(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, s: HalfInt) -> Scalar:
        gap = s.twice - self.start.twice
        if gap % 2 == 0 and 0 <= gap < 2 * len(self.values):
            return self.values[gap // 2]
        return self.values[self.window.index_of(s)]  # raises OutOfWindow

    def points(self) -> Iterator[HalfInt]:
        return self.window.points()

    def items(self):
        for j, s in enumerate(self.points()):
            yield s, self.values[j]

    def restrict(self, window: Window) -> "GridFunction":
        if not self.window.covers(window):
            raise OutOfWindow(f"window {window} not contained in {self.window}")
        lo = self.window.index_of(window.start)
        return GridFunction(window.start, self.values[lo:lo + window.length])

    def _combine(self, other, op):
        """op value by value; both operands must share one window."""
        if not isinstance(other, GridFunction):
            return NotImplemented
        if other.start != self.start or len(other) != len(self):
            raise OutOfWindow(f"window {other.window} is not {self.window}; restrict first")
        return GridFunction(self.start, tuple(map(op, self.values, other.values)))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        return self._combine(other, operator.mul)

    def __rmul__(self, scalar):
        return GridFunction(self.start, tuple(scalar * v for v in self.values))

    def __truediv__(self, other):
        return self._combine(other, operator.truediv)

    def max_abs(self) -> Scalar:
        return max(abs(v) for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def delta_k(lat: Lattice, k: int, f: GridFunction) -> GridFunction:
    """Forward divided difference; window loses its right endpoint."""
    return _passes(f.start.twice, pairs_of(f), lat, (k,), 0, "delta_k needs at least two points")


def nabla_k(lat: Lattice, k: int, f: GridFunction) -> GridFunction:
    """Backward divided difference: the forward quotients placed one point
    right, so the window loses its left endpoint."""
    return _passes(f.start.twice, pairs_of(f), lat, (k,), 1, "nabla_k needs at least two points")


def iterated_delta(lat: Lattice, k: int, n: int, f: GridFunction) -> GridFunction:
    """delta_{k+n-1} ... delta_{k+1} delta_k f (innermost first); n = 0 is f."""
    return _passes(f.start.twice, pairs_of(f), lat, range(k, k + n), 0,
                   f"iterated delta of order {n} needs {n + 1} points")


def iterated_nabla(lat: Lattice, k: int, n: int, f: GridFunction) -> GridFunction:
    """nabla_{k-n+1} ... nabla_{k-1} nabla_k f (innermost first); n = 0 is f."""
    return _passes(f.start.twice, pairs_of(f), lat, range(k, k - n, -1), 1,
                   f"iterated nabla of order {n} needs {n + 1} points")


def pairs_of(f: GridFunction) -> list:
    """f's values as reduced pairs (num, den), den > 0."""
    return [(v.numerator, v.denominator) for v in f.values]


def _passes(left: int, pairs: list, lat: Lattice, levels, shift: int, short: str,
            rho: list | None = None) -> GridFunction:
    """One divided-difference pass per level, innermost first, each placing
    its quotients ``shift`` points right of the left point of their pair,
    over the reduced pairs of the values at 2s = left, left + 2, ...
    Values stay (num, den) pairs and points integers 2s to the last pass.
    With ``rho``, reduced pairs from the first output point on, each output
    value is divided by the pair at its own index, with the two cross gcds ``Fraction``'s
    division takes; then one ``Fraction`` is made per output value."""
    if len(pairs) < len(levels) + 1:
        raise WindowTooSmall(short)
    for k in levels:
        pairs = _quotients(pairs, lat, k, left, left + 2 * shift, k == levels[-1])
        left += 2 * shift
    if rho is not None:
        out = []
        for (t, d), (rn, rd) in zip(pairs, rho):
            g, h = gcd(t, rn), gcd(d, rd)
            out.append(Fraction(t // g * (rd // h), d // h * (rn // g)))
        return GridFunction(HalfInt(left), tuple(out))
    return GridFunction(HalfInt(left), tuple(Fraction(num, den) for num, den in pairs))


def _quotients(pairs: list, lat: Lattice, k: int, left: int, at: int, last: bool) -> list:
    """The quotients of consecutive canonical pairs on level k: pair j, from
    the point (left + 2j)/2, divides by ``step_at(left + k + 2j)`` and sits
    at (at + 2j)/2, the point a zero step is named at; the pass reads its
    steps through the guard ``Lattice.divisors`` first.  The gcds are those
    of ``Fraction``'s subtraction and division, so the output pairs are
    canonical too; the ``last`` pass skips the one that reduces the
    difference by a factor of the two denominators, which the ``Fraction``
    made from each output pair takes at about the same cost."""
    out = []
    na, da = pairs[0]
    for j, (p, q) in enumerate(lat.divisors(left + k, k, at, len(pairs) - 1)):
        nb, db = na, da
        na, da = pairs[j + 1]
        g = gcd(da, db)
        if g == 1:
            t, d = na * db - da * nb, da * db
        else:
            da_g = da // g
            t = na * (db // g) - nb * da_g
            g = 1 if last else gcd(t, g)
            t, d = t // g, da_g * (db // g)
        g = gcd(t, p)
        if g > 1:
            t, p = t // g, p // g
        g = gcd(q, d)
        if g > 1:
            q, d = q // g, d // g
        out.append((t * q, p * d) if p > 0 else (-t * q, -p * d))
    return out


def cumulative_nabla_sum(lat: Lattice, k: int, g: GridFunction, N: HalfInt) -> GridFunction:
    """C(s) = int_N^s g d_nabla x_k on g's whole window.

    Extended two-sidedly around the base point: C(N-1) = 0 (the empty sum)
    and C(s) = C(s+1) - g(s+1) nabla x_k(s+1) to the left, so that
    nabla_k C = g holds across the entire window.
    """
    window = g.window
    if N not in window:
        raise OutOfWindow(f"sum base {N} must lie in {window}")
    base = window.index_of(N)
    values: list = [None] * len(g)
    # nabla x_k at point j of the window is the step at a + 2j
    a = window.start.twice + k - 2
    acc = 0
    for j in range(base, len(g)):
        acc += g.values[j] * lat.step_at(a + 2 * j)
        values[j] = acc
    acc = 0
    for j in range(base - 1, -1, -1):
        values[j] = acc
        acc -= g.values[j] * lat.step_at(a + 2 * j)
    return GridFunction(window.start, tuple(values))
