"""Grid-sampled functions and the divided-difference calculus on them.

A ``GridFunction`` samples f on a contiguous half-integer window
s0, s0+1, ..., s0+m-1.  The forward and backward operators at level k divide
by increments of the shifted lattice x_k(s):

    delta_k f(s) = (f(s+1) - f(s)) / (x_k(s+1) - x_k(s))
    nabla_k f(s) = (f(s) - f(s-1)) / (x_k(s) - x_k(s-1))

and the discrete integral is the sum

    int_N^s g(t) d_nabla x_k(t) = sum_{t=N..s} g(t) * (x_k(t) - x_k(t-1)).

Windows shrink by exactly one point per operator application: on the right
for delta, on the left for nabla.  That bookkeeping is the main thing the
tests police.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import OutOfWindow, WindowTooSmall
from .lattice import HalfInt, Lattice, divide_by_step, unit_steps
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
        return self.values[self.window.index_of(s)]

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

    def map(self, fn: Callable[[Scalar], Scalar]) -> "GridFunction":
        return GridFunction(self.start, tuple(fn(v) for v in self.values))

    def _combine(self, other, op):
        if isinstance(other, GridFunction):
            lo = max(self.start, other.start, key=lambda h: h.twice)
            hi = min(self.window.end, other.window.end, key=lambda h: h.twice)
            n = unit_steps(lo, hi) + 1
            if n < 1:
                raise OutOfWindow("grid functions do not overlap")
            window = Window(lo, n)
            return GridFunction(lo, tuple(
                op(self.value_at(s), other.value_at(s)) for s in window.points()))
        return GridFunction(self.start, tuple(op(v, other) for v in self.values))

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    def __rmul__(self, scalar):
        return self.map(lambda v: scalar * v)

    def __truediv__(self, other):
        return self._combine(other, lambda a, b: a / b)

    def max_abs(self) -> Scalar:
        return max(abs(v) for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def delta_k(lat: Lattice, k: int, f: GridFunction) -> GridFunction:
    """Forward divided difference; window loses its right endpoint."""
    if len(f) < 2:
        raise WindowTooSmall("delta_k needs at least two points")
    out = []
    for j, s in enumerate(f.points()):
        if j == len(f) - 1:
            break
        out.append(divide_by_step(f.values[j + 1] - f.values[j], lat.delta_x(k, s), k, s))
    return GridFunction(f.start, tuple(out))


def nabla_k(lat: Lattice, k: int, f: GridFunction) -> GridFunction:
    """Backward divided difference; window loses its left endpoint."""
    if len(f) < 2:
        raise WindowTooSmall("nabla_k needs at least two points")
    out = []
    for j, s in enumerate(f.points()):
        if j == 0:
            continue
        out.append(divide_by_step(f.values[j] - f.values[j - 1], lat.nabla_x(k, s), k, s))
    return GridFunction(f.start + 1, tuple(out))


def iterated_delta(lat: Lattice, k: int, n: int, f: GridFunction) -> GridFunction:
    """delta_{k+n-1} ... delta_{k+1} delta_k f (innermost first); n = 0 is f."""
    if len(f) < n + 1:
        raise WindowTooSmall(f"iterated delta of order {n} needs {n + 1} points")
    for j in range(n):
        f = delta_k(lat, k + j, f)
    return f


def iterated_nabla(lat: Lattice, k: int, n: int, f: GridFunction) -> GridFunction:
    """nabla_{k-n+1} ... nabla_{k-1} nabla_k f (innermost first); n = 0 is f."""
    if len(f) < n + 1:
        raise WindowTooSmall(f"iterated nabla of order {n} needs {n + 1} points")
    for j in range(n):
        f = nabla_k(lat, k - j, f)
    return f


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
    acc = 0
    for j in range(base, len(g)):
        s = window.start + j
        acc += g.values[j] * lat.nabla_x(k, s)
        values[j] = acc
    acc = 0
    for j in range(base - 1, -1, -1):
        values[j] = acc
        s = window.start + j
        acc -= g.values[j] * lat.nabla_x(k, s)
    return GridFunction(window.start, tuple(values))
