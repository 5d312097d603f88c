"""Solution generators for the lattice hypergeometric equation at lambda_n.

``solve`` is the one entry point.  It checks the Pearson recurrence on the
whole weight window in one scan, multiplies the weight rho out from that
scan's steps where each kind reads it, and runs all three kinds through
one evaluator (``_rodrigues``) of the Rodrigues formula

    y = (1/rho) delta_{-n}^{(n)} [ Y_n C ],     Y_n(s) = rho(s) prod_{j<n} sigma(s-j),

verified by attaching the exact residual of the operator L on the whole
window.  rho is fixed by the Pearson equation up to a constant, which
cancels in the polynomial kind and scales the integral kinds by its
inverse; for every kind rho is 1 at ``window.start``, where the scan is
anchored.  rho and Y_n stay reduced integer pairs through the evaluator:
Y_n C is a pair times a ``Fraction``, the n-fold difference runs on pairs
and divides its last pass by the rho pairs (``grid._passes``), and the
Casoratian recurrence and its K read the rho pairs, so ``solve()`` makes
a ``Fraction`` only for a value it returns or for a value of C, K or the
integrand, and never from a pair already reduced.  ``verify``'s
``Fraction`` references for rho, Y_n and K (``pearson_weight``, ``Y_n``,
``casoratian``) live in ``identities``, which only ``verify`` imports.  The
kinds are:

* the polynomial eigenfunction (the standard formula): C = 1.  y is a
  polynomial of degree at most n in x(s), so the formula runs on the first
  n + 1 points, reading rho on 2n + 1, and their interpolant, expanded once
  over one common denominator, gives each other point by one integer Horner
  pass.  The Pearson scan still covers the whole weight window, so a
  singular point is named as for the other kinds;

* the generalized construction: C is the discrete integral of
  P(x_{-(n+1)}(t)) / (Y_n(t) sigma(t-n)) against nabla x_{-n}(t), for a
  degree-n polynomial P;

* the second-kind companion: the generalized construction at P = 1.

The two integral kinds run the formula only on a head: the first
max(3, i - n + 1) points, where the sum base N is point i of the weight
window, so the head's product window still holds N.  The rest follows from
the Casoratian W(s) = y1(s) y(s+1) - y1(s+1) y(s) with the polynomial kind
y1, a discrete Liouville-Ostrogradsky identity (Nikiforov, Suslov and
Uvarov, ch. 3): for any two solutions at lambda_n,

    K = sigma(s+1) rho(s+1) W(s) / delta x_0(s)             (``_casoratian``)

is one constant, so with K taken at the first point where delta x_0 is
nonzero (x(s+1) = x(s) holds for at most one s, so that point is the first
or the second, and both have their y(s+1) in the head)

    y(s+1) = (K delta x_0(s) / (sigma(s+1) rho(s+1)) + y1(s+1) y(s)) / y1(s),

O(m) operations in place of an n-fold difference over m points.  Each step
forms K delta x_0 / (sigma rho) + y1(s+1) y(s) from the numerators and
denominators of its seven values, summed over the lcm of its two
denominators as ``Fraction`` adds and divided by y1(s) with the cross gcds
``Fraction`` divides with, and makes one ``Fraction`` per value.
The values are those of the formula on the whole window, bit for bit.  K = 0 (n
inadmissible, y a multiple of y1) needs no special case.  The formula runs
on the whole window instead in exactly three cases: the head covers it, its
n-fold difference there divides by a zero lattice step
(``_meets_zero_step``), or y1 vanishes at a point the recurrence divides
by.  So a window where the formula has no value (a zero step inside its
n-fold difference, which the recurrence never reads) raises the formula's
own ``DegenerateStep``, and every error names what the whole-window formula
and its residual name: a zero delta x_0 at the first point, which the
formula never divides by, is met by the residual as nabla x_0 one point on.

A zero residual on the whole window certifies the polynomial kind's n + 1
formula values and their interpolant, and the integral kinds' y1, rho,
recurrence and head.  The head has at least three points, so the residual
at its interior point reads formula values only and checks the integrand
there: any two head values would continue to an exact solution.  Past the
head no value reads C.  ``verify`` also pins the second kind's K, which
fixes its scale.

When two of the first n + 1 points share x(s), the polynomial kind runs the
formula on the whole window.  Such a window is never certified: on both
lattice families x repeats only in mirror pairs about one centre c, and L
divides by a zero step there (``nabla_0`` when c lies between grid points,
``delta_{-1}`` when it is one), so the residual raises ``DegenerateStep``.

``verify``'s brute-force oracle, which recovers the polynomial kind by exact
null-space extraction and shares no code path with this module, lives in
``identities`` with those references.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .equation import (
    HyperEquation,
    _three_term,
    admissibility_violation,
    lambda_n,
    pearson_steps,
    sigma_of_s,  # not called here: the traced benchmark wraps solutions.sigma_of_s
    weight_from_steps,
)
from .errors import OutOfWindow, SingularSummand
from .grid import GridFunction, Window, _passes, cumulative_nabla_sum
from .lattice import HalfInt, Lattice
from .numerics import IntegerForm, Record, Scalar, format_scalar


class SolutionReport(Record):
    """A generated solution bundled with its residual verification."""

    _fields = ("kind", "n", "lam_n", "solution", "residual", "residual_lam",
               "inadmissible_m", "sum_base", "poly")

    def __init__(self,
                 kind: str,                   # polynomial | second_kind | generalized
                 n: int,
                 lam_n: Scalar,               # the eigenvalue lambda_n used to build it
                 solution: GridFunction,
                 residual: GridFunction,      # L over window.expand(1, 1), on the solution window
                 residual_lam: Scalar,        # lambda the residual was evaluated with
                 inadmissible_m: int | None,  # first m < n with lambda_m = lambda_n
                 sum_base: HalfInt | None = None,
                 poly: tuple | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam_n", lam_n)
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "residual_lam", residual_lam)
        object.__setattr__(self, "inadmissible_m", inadmissible_m)
        object.__setattr__(self, "sum_base", sum_base)
        object.__setattr__(self, "poly", poly)

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
    """The weight window of a solution on ``window``: one extra point on the
    left and n + 1 on the right (one per side for the residual stencil, n
    more for the n-fold difference).  ``solve()`` checks the Pearson
    recurrence on all of it for every kind, and multiplies rho out where a
    kind reads it: on the first 2n + 1 points for the polynomial stencil, on
    all of it for the integral kinds."""
    return window.expand(1, n + 1)


def sum_base_for(n: int, window: Window, N: HalfInt | None = None) -> HalfInt:
    """The sum base of the integral kinds on ``window``: N, by default the
    first point of ``weight_window_for(n, window)``, in which it must lie."""
    y_window = weight_window_for(n, window)
    N = y_window.start if N is None else N
    if N not in y_window:
        raise OutOfWindow(f"sum base {N} must lie in {y_window}")
    return N


def _weight_product(eq: HyperEquation, rho: list, n: int, window: Window) -> list:
    """Y_n on ``window`` as reduced pairs, from the reduced pairs ``rho`` of
    rho on it.  The product of sigma slides along the window on integer
    numerators and denominators, reading the pairs of the sigma table by
    2s: each step multiplies in sigma(s+1) and divides out sigma(s-n+1)
    exactly, with zero factors counted apart, and each value is one gcd."""
    # factor i is sigma at 2s = first + 2i; point j reads factors j..j+n-1
    first, sigma = window.start.twice - 2 * (n - 1), eq._sigma
    factors = [sigma[first + 2 * i] for i in range(window.length + n - 1)]
    nums, dens = [f[0] for f in factors], [f[1] for f in factors]
    num, den, zeros = prod(v or 1 for v in nums[:n]), prod(dens[:n]), nums[:n].count(0)
    values = []
    for j, (rn, rd) in enumerate(rho):
        if zeros:
            values.append((0, 1))
        else:
            a, b = rn * num, rd * den
            g = gcd(a, b)
            values.append((a // g, b // g))
        if j + n < len(factors):   # factor j + n comes in, factor j goes out
            num = num * (nums[j + n] or 1) // (nums[j] or 1)
            den = den * dens[j + n] // dens[j]
            zeros += (nums[j + n] == 0) - (nums[j] == 0)
    return values


def solve(eq: HyperEquation, n: int, window: Window, kind: str = "polynomial",
          N: HalfInt | None = None, P=None,
          residual_lam: Scalar | None = None) -> SolutionReport:
    """y = (1/rho) delta_{-n}^{(n)} [ Y_n C ] on ``window``, with its residual.

    ``kind`` is polynomial, second or generalized (see the module docstring);
    it and ``P`` (n+1 coefficients, low order first) are checked before any
    arithmetic.  The integral in C starts at N, by default the first point
    read; moving N moves the second kind by a multiple of the polynomial
    solution only.  One Pearson scan checks all of
    ``weight_window_for(n, window)``, and rho, 1 at ``window.start``, is
    multiplied out from its steps where each kind reads it.  The
    polynomial kind runs the formula on the first n + 1 points of
    ``window.expand(1, 1)``, reading rho on 2n + 1 points, and extends it
    by one integer Horner pass per point; the integral kinds run it on a
    head of that window, holding N in its product window, and continue by
    the Casoratian recurrence with the polynomial kind, or run it on the
    whole window in the three cases of the module docstring.  For every
    kind the residual covers all of the enlarged window, with the
    three-term kernel of L on ``eq`` itself.  The eigenvalue is pinned to
    lambda_n; ``residual_lam`` lets a caller verify the construction
    against a different spectral parameter (the residual is then nonzero
    unless the two agree).
    """
    if kind == "polynomial":
        label, N, P = kind, None, None
    elif kind == "second":
        label, P = "second_kind", None
    elif kind == "generalized":
        if P is None:
            raise ValueError("generalized solutions need the coefficient list P")
        label, P = kind, tuple(P)
        if len(P) != n + 1:
            raise ValueError(f"P needs exactly {n + 1} coefficients, got {len(P)}")
    else:
        raise ValueError(f"unknown solution kind {kind!r}")
    enlarged = window.expand(1, 1)
    lam = lambda_n(eq, n)
    # one scan checks the whole weight window, anchored at window.start, the
    # second point of every span that rho is multiplied out on (a one-point
    # span, the stencil at n = 0, takes its only point)
    weights = weight_window_for(n, window)
    steps = pearson_steps(eq, weights, window.start)
    if kind == "polynomial":
        y = _polynomial_kind(
            eq, lambda span: weight_from_steps(steps, span, min(1, span.length - 1)), n, enlarged)
    else:
        N = sum_base_for(n, window, N)
        y = _integral_kind(eq, weight_from_steps(steps, weights, 1), n, enlarged, N,
                           (1,) if P is None else P)
    res_lam = lam if residual_lam is None else residual_lam
    residual = _three_term(eq.lattice, y, eq._sigma, eq._star, res_lam)
    return SolutionReport(
        kind=label, n=n, lam_n=lam,
        solution=y.restrict(window), residual=residual,
        residual_lam=res_lam, inadmissible_m=admissibility_violation(eq, n),
        sum_base=N, poly=P)


def _rodrigues(eq: HyperEquation, weight: list, n: int, window: Window,
               N: HalfInt | None = None, P: tuple | None = None) -> GridFunction:
    """(1/rho) delta_{-n}^{(n)} [Y_n C] on ``window``, reading rho and
    sigma on ``window.expand(0, n)``, where ``weight`` holds the reduced
    pairs of rho from ``window.start`` on.  C = 1 without P; with it, C is
    the discrete integral from N of P(x_{-(n+1)}(t)) / (Y_n(t) sigma(t-n))
    against nabla x_{-n}(t), and N must lie in that product window.  P is
    one ``IntegerForm`` in x, read once per point, and each integrand value
    is one normalization of the integers of P(x), Y_n and sigma, read as
    the Horner pass of P at the pair of x and the pair of sigma.  Y_n stays
    pairs, Y_n C is a pair times a ``Fraction`` with the cross gcds of
    ``Fraction``'s product, and the n-fold difference divides by rho in its
    last pass (``grid._passes``), so one ``Fraction`` is made per output
    value.  The callers pass a stencil or a head, and the whole enlarged
    window only in the cases the module docstring names."""
    lat = eq.lattice
    span = window.expand(0, n)
    product = _weight_product(eq, weight[:span.length], n, span)
    if P is not None:
        p_form, xs, sigma = IntegerForm.of(P), lat._table, eq._sigma

        def integrand(twice: int, yn: int, yd: int) -> Scalar:
            # P(x) / (Y_n sigma), normalized once
            sn, sd = sigma[twice - 2 * n]
            if yn == 0 or sn == 0:
                t = HalfInt(twice)
                raise SingularSummand(f"sigma product vanishes at t={t}", point=t)
            pn, pd = p_form.evaluated(*xs[twice - (n + 1)])
            return Fraction(pn * yd * sd, pd * yn * sn)

        first = span.start.twice
        C = cumulative_nabla_sum(lat, -n, GridFunction(span.start, tuple(
            integrand(first + 2 * j, *v) for j, v in enumerate(product))), N).values
        for j, ((yn, yd), c) in enumerate(zip(product, C)):
            cn, cd = c.numerator, c.denominator
            g, h = gcd(yn, cd), gcd(cn, yd)
            product[j] = (yn // g * (cn // h), yd // h * (cd // g))
    return _passes(span.start.twice, product, lat, range(-n, 0), 0,
                   f"iterated delta of order {n} needs {n + 1} points", weight)


def _polynomial_kind(eq: HyperEquation, weight_on, n: int, window: Window) -> GridFunction:
    """``_rodrigues`` on the first n + 1 points of ``window``, reading rho
    from ``weight_on(span)`` on the points ``span`` it reads, and their
    interpolant sum C_k x^k / D elsewhere, an ``IntegerForm``: at x(s) = a/b
    one integer Horner pass, sum C_k a^k b^(d-k), normalized once by D b^d.
    On the whole window if those points are all of it or two of them share
    x(s)."""
    table, first = eq.lattice._table, window.start.twice
    stencil = Window(window.start, min(n + 1, window.length))
    xs = [table[first + 2 * j] for j in range(stencil.length)]
    if stencil == window or len(set(xs)) < len(xs):
        return _rodrigues(eq, weight_on(window.expand(0, n)), n, window)
    ys = _rodrigues(eq, weight_on(stencil.expand(0, n)), n, stencil)
    form = IntegerForm.through(xs, ys.values)
    values = list(ys.values)
    for j in range(stencil.length, window.length):
        values.append(form.at(*table[first + 2 * j]))
    return GridFunction(window.start, tuple(values))


def _casoratian(eq: HyperEquation, rho: tuple, y1: GridFunction, y: GridFunction,
                s: HalfInt) -> Scalar:
    """K(s) = sigma(s+1) rho(s+1) W(s) / delta x_0(s), with the Casoratian
    W(s) = y1(s) y(s+1) - y1(s+1) y(s) and the pair ``rho`` of rho(s+1): the
    integers of sigma(s+1), rho(s+1), W(s) and the guarded step, normalized
    once."""
    t = s + 1
    w = y1.value_at(s) * y.value_at(t) - y1.value_at(t) * y.value_at(s)
    (sn, sd), (rn, rd) = eq._sigma[t.twice], rho
    (dn, dd), = eq.lattice.divisors(s.twice, 0, s.twice, 1)
    return Fraction(sn * rn * w.numerator * dd, sd * rd * w.denominator * dn)


def _meets_zero_step(lat: Lattice, n: int, window: Window) -> bool:
    """Whether the n-fold difference of ``_rodrigues`` on ``window`` divides
    by a zero step: its j-th pass divides by delta x_{j-n}(t) at the first
    len(window) + n - 1 - j points t, which is ``lat.step_at(2t + j - n)``.
    From a = 2 window.start - n on, the passes read every a up to
    a + 2(len(window) + n - 2) for n >= 2, and every other one for n = 1."""
    if n == 0:
        return False
    first, steps = window.start.twice - n, lat._steps
    last = first + 2 * (window.length + n - 2)
    return any(steps[a][0] == 0 for a in range(first, last + 1, 1 if n > 1 else 2))


def _integral_kind(eq: HyperEquation, weight: list, n: int, window: Window,
                   N: HalfInt, P: tuple) -> GridFunction:
    """``_rodrigues`` with numerator P on a head of ``window``, continued by
    the Casoratian recurrence with the polynomial kind y1, with K at the
    first point where delta x_0 is nonzero; on the whole window in the three
    cases of the module docstring.  y1's zeros are checked before the head
    is built."""
    lat = eq.lattice
    head = Window(window.start, max(3, window.expand(0, n).index_of(N) - n + 1))
    if head.length >= window.length or _meets_zero_step(lat, n, window):
        return _rodrigues(eq, weight, n, window, N, P)
    y1 = _polynomial_kind(eq, lambda span: weight, n, window)
    u = y1.values
    if any(v == 0 for v in u[head.length - 1:-1]):
        return _rodrigues(eq, weight, n, window, N, P)
    y = _rodrigues(eq, weight, n, head, N, P)
    # K where delta x_0 is nonzero: at the first point or else the second
    first = window.start.twice
    steps, sigma = lat._steps, eq._sigma
    i = int(steps[first][0] == 0)
    K = _casoratian(eq, weight[i + 1], y1, y, window.start + i)
    kn, kd = K.numerator, K.denominator
    values = list(y.values)
    for j in range(head.length - 1, window.length - 1):
        twice = first + 2 * j     # delta x_0(s) and sigma(s + 1) at s = twice/2
        (dn, dd), (sn, sd), (rn, rd) = steps[twice], sigma[twice + 2], weight[j + 1]
        a, b, c = u[j + 1], values[j], u[j]
        # y(s+1) = (tn/td + a b) / c with tn/td = K dx / (sg r): the sum over
        # lcm(td, pd) as Fraction adds, then divided by c with the cross
        # gcds Fraction's division takes, so the one normalization left
        # works on numbers the size of the value
        tn = kn * dn * sd * rd
        td = kd * dd * sn * rn
        pd = a.denominator * b.denominator
        g = gcd(td, pd)
        td_g = td // g
        sn, sd = tn * (pd // g) + a.numerator * b.numerator * td_g, td_g * pd
        h, k = gcd(sn, c.numerator), gcd(sd, c.denominator)
        values.append(Fraction(sn // h * (c.denominator // k), sd // k * (c.numerator // h)))
    return GridFunction(window.start, tuple(values))

