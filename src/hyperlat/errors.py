"""Exception types shared across the library.

Grid points are reported through the ``point`` attribute where a specific
lattice location is to blame, so callers (and the CLI) can name the offending
``s`` in diagnostics.
"""

from __future__ import annotations


class HyperlatError(Exception):
    """Base class for all library-specific errors."""


class DivisionByZero(HyperlatError, ZeroDivisionError):
    """Division by an exact zero in rational arithmetic."""


class RationalParseError(HyperlatError, ValueError):
    """Malformed rational literal; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class LatticeError(HyperlatError, ValueError):
    """Invalid lattice parameters (p in {0, 1, -1}, or a constant x(s))."""


class WindowTooSmall(HyperlatError, ValueError):
    """A grid operation needs a longer sample window than was supplied."""


class OutOfWindow(HyperlatError, ValueError):
    """A requested grid point lies outside the sampled window."""


class _PointError(HyperlatError, ArithmeticError):
    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class DegenerateStep(_PointError):
    """A divided difference hit a zero lattice increment."""


class PearsonSingularity(_PointError):
    """The weight recurrence hit a zero of sigma (or a zero weight value)."""


class SingularSummand(_PointError):
    """A discrete-integral summand is undefined at ``point``."""


class NonConstantLambdaStar(HyperlatError, ArithmeticError):
    """The adjoint eigenvalue expression failed its constancy cross-check."""


class OracleDimensionError(HyperlatError, ArithmeticError):
    """The polynomial-solution null space is not one-dimensional."""


class DegenerateAbscissae(HyperlatError, ValueError):
    """Interpolation sample points do not have pairwise distinct x-values."""


class ProblemFormatError(HyperlatError, ValueError):
    """Problem text failed to parse; ``diagnostics`` lists every fault found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics) or "invalid problem text"
        super().__init__(lines)
