import random
from fractions import Fraction as F

import pytest

from hyperlat import (
    DegenerateStep,
    GridFunction,
    HalfInt,
    OutOfWindow,
    QQuadraticLattice,
    QuadraticLattice,
    Window,
    WindowTooSmall,
    cumulative_nabla_sum,
    delta_k,
    iterated_delta,
    iterated_nabla,
    nabla_k,
)

S0 = HalfInt.from_int(0)


def x_grid(lat, k, window):
    return GridFunction.sample(window, lambda s: lat.x_k(k, s))


def random_grid(rng, window, nonzero=False):
    values = []
    for _ in range(window.length):
        num = rng.randint(1, 9) if nonzero else rng.randint(-9, 9)
        values.append(F(num, rng.randint(1, 7)))
    return GridFunction(window.start, tuple(values))


def test_window_span_truncates_to_grid():
    w = Window.span(HalfInt(-7), HalfInt(10))
    assert w.start == HalfInt(-7)
    assert w.end == HalfInt(9)          # 9/2 is the last on-grid point <= 5
    assert w.length == 9
    assert HalfInt(-3) in w and HalfInt(-2) not in w


def test_window_bookkeeping():
    lat = QuadraticLattice(F(1), F(1), F(0))
    f = x_grid(lat, 0, Window(HalfInt.from_int(2), 6))
    d = delta_k(lat, 0, f)
    assert d.start == f.start and len(d) == 5          # right endpoint lost
    n = nabla_k(lat, 0, f)
    assert n.start == f.start + 1 and len(n) == 5      # left endpoint lost
    d2 = iterated_delta(lat, 0, 3, f)
    assert d2.start == f.start and len(d2) == 3
    n2 = iterated_nabla(lat, 0, 3, f)
    assert n2.start == f.start + 3 and len(n2) == 3


def test_delta_of_lattice_itself_is_one():
    lat = QuadraticLattice(F(1), F(1), F(0))
    f = x_grid(lat, 0, Window(S0, 5))
    assert delta_k(lat, 0, f).values == (F(1),) * 4
    qlat = QQuadraticLattice(F(2), F(1), F(1), F(0))
    g = x_grid(qlat, -1, Window(HalfInt.from_int(1), 5))
    assert nabla_k(qlat, -1, g).values == (F(1),) * 4


def test_delta_of_constant_is_zero():
    lat = QuadraticLattice(F(1), F(1), F(0))
    f = GridFunction(S0, (F(5),) * 4)
    assert delta_k(lat, 2, f).is_zero()
    assert nabla_k(lat, -3, f).is_zero()


def test_delta_square_example():
    # x(s) = s^2: divided difference of x^2 is x(s+1) + x(s)
    lat = QuadraticLattice(F(1), F(0), F(0))
    f = GridFunction.sample(Window(S0, 4), lambda s: lat.x(s) ** 2)
    assert delta_k(lat, 0, f).values == (F(1), F(5), F(13))


def test_nabla_is_shifted_delta():
    lat = QQuadraticLattice(F(3, 2), F(1), F(1), F(0))
    rng = random.Random(5)
    f = random_grid(rng, Window(HalfInt.from_int(1), 7))
    d = delta_k(lat, 0, f)
    n = nabla_k(lat, 0, f)
    for s in n.points():
        ratio = lat.delta_x(0, s - 1) / lat.nabla_x(0, s)
        assert n.value_at(s) == d.value_at(s - 1) * ratio


def test_iterated_delta_degree_and_orders():
    lat = QuadraticLattice(F(1), F(0), F(0))
    f = GridFunction.sample(Window(S0, 4), lambda s: lat.x(s) ** 2)
    assert iterated_delta(lat, 0, 0, f) == f
    second = iterated_delta(lat, 0, 2, f)
    assert second.values == (F(2), F(2))
    assert iterated_delta(lat, 0, 3, f).values == (F(0),)


def test_iterated_nabla_order_one_is_nabla():
    lat = QuadraticLattice(F(1), F(2), F(1))
    rng = random.Random(6)
    f = random_grid(rng, Window(HalfInt.from_int(2), 5))
    assert iterated_nabla(lat, 1, 1, f) == nabla_k(lat, 1, f)
    assert iterated_nabla(lat, 1, 0, f) == f


def test_window_too_small_boundary():
    lat = QuadraticLattice(F(1), F(1), F(0))
    f = GridFunction(S0, (F(1), F(2), F(3)))
    iterated_delta(lat, 0, 2, f)
    with pytest.raises(WindowTooSmall):
        iterated_delta(lat, 0, 3, f)
    with pytest.raises(WindowTooSmall):
        delta_k(lat, 0, GridFunction(S0, (F(1),)))


def test_degenerate_step_reported():
    # x(s) = s^2 has x_1(0) = x_1(-1), a zero backward step at s = 0
    lat = QuadraticLattice(F(1), F(0), F(0))
    f = GridFunction(HalfInt.from_int(-1), (F(1), F(2), F(3)))
    with pytest.raises(DegenerateStep) as err:
        nabla_k(lat, 1, f)
    assert err.value.point == HalfInt.from_int(0)
    # delta_k forms the same quotient and names the point it sits at, s = -1
    with pytest.raises(DegenerateStep) as err:
        delta_k(lat, 1, f)
    assert err.value.point == HalfInt.from_int(-1)
    assert "zero step of x_1 at s=-1" in str(err.value)


def test_short_windows_name_their_operator():
    lat = QuadraticLattice(F(1), F(1), F(0))
    one = GridFunction(S0, (F(1),))
    with pytest.raises(WindowTooSmall, match="delta_k needs at least two points"):
        delta_k(lat, 0, one)
    with pytest.raises(WindowTooSmall, match="nabla_k needs at least two points"):
        nabla_k(lat, 0, one)


def test_nabla_sum_examples():
    lat = QuadraticLattice(F(1), F(1), F(0))
    w = Window(HalfInt.from_int(1), 6)
    g = GridFunction(w.start, (F(3),) * 6)
    N = HalfInt.from_int(1)
    assert cumulative_nabla_sum(lat, 0, g, N).value_at(N) == 3 * lat.nabla_x(0, N)
    zero = GridFunction(w.start, (F(0),) * 6)
    assert cumulative_nabla_sum(lat, 2, zero, N).value_at(w.end) == 0
    with pytest.raises(OutOfWindow):
        cumulative_nabla_sum(lat, 0, g, N).value_at(w.end + 1)
    with pytest.raises(OutOfWindow):
        cumulative_nabla_sum(lat, 0, g, w.end + 1)      # base outside the window


def test_telescoping_convention():
    # summing nabla_k f from N to s gives f(s) - f(N-1) under the literal
    # sum convention
    lat = QQuadraticLattice(F(2), F(1), F(1), F(0))
    rng = random.Random(7)
    f = random_grid(rng, Window(HalfInt.from_int(1), 8))
    nf = nabla_k(lat, 0, f)
    N = HalfInt.from_int(3)
    for s in (HalfInt.from_int(4), HalfInt.from_int(7)):
        total = cumulative_nabla_sum(lat, 0, nf, N).value_at(s)
        assert total == f.value_at(s) - f.value_at(N - 1)


def test_fundamental_theorem():
    lat = QuadraticLattice(F(1), F(2), F(1))
    rng = random.Random(8)
    g = random_grid(rng, Window(HalfInt.from_int(1), 9))
    for k in (-2, 0, 3):
        for base in (g.start, g.start + 4, g.window.end):
            cumulative = cumulative_nabla_sum(lat, k, g, base)
            recovered = nabla_k(lat, k, cumulative)
            assert recovered == g.restrict(recovered.window)


def test_product_and_quotient_rules():
    rng = random.Random(9)
    for lat in (QuadraticLattice(F(1), F(1), F(0)),
                QQuadraticLattice(F(3, 2), F(1), F(1), F(0))):
        w = Window(HalfInt.from_int(2), 5)
        f = random_grid(rng, w)
        g = random_grid(rng, w, nonzero=True)
        for k in (-2, 0, 1):
            dfg = delta_k(lat, k, f * g)
            df, dg = delta_k(lat, k, f), delta_k(lat, k, g)
            nfg = nabla_k(lat, k, f * g)
            nf, ng = nabla_k(lat, k, f), nabla_k(lat, k, g)
            dq = delta_k(lat, k, f / g)
            nq = nabla_k(lat, k, f / g)
            for s in dfg.points():
                assert dfg.value_at(s) == (f.value_at(s + 1) * dg.value_at(s)
                                           + g.value_at(s) * df.value_at(s))
                assert dfg.value_at(s) == (g.value_at(s + 1) * df.value_at(s)
                                           + f.value_at(s) * dg.value_at(s))
                assert dq.value_at(s) == ((g.value_at(s + 1) * df.value_at(s)
                                           - f.value_at(s + 1) * dg.value_at(s))
                                          / (g.value_at(s) * g.value_at(s + 1)))
            for s in nfg.points():
                assert nfg.value_at(s) == (f.value_at(s - 1) * ng.value_at(s)
                                           + g.value_at(s) * nf.value_at(s))
                assert nq.value_at(s) == ((g.value_at(s - 1) * nf.value_at(s)
                                           - f.value_at(s - 1) * ng.value_at(s))
                                          / (g.value_at(s) * g.value_at(s - 1)))


def test_grid_function_ops_and_access():
    f = GridFunction(HalfInt(1), (F(1), F(2), F(3)))
    assert f.value_at(HalfInt(3)) == 2
    with pytest.raises(OutOfWindow):
        f.value_at(HalfInt.from_int(1))     # wrong parity
    with pytest.raises(OutOfWindow):
        f.value_at(HalfInt(9))
    total = f + 2 * f
    assert total.values == (F(3), F(6), F(9))
    clipped = f.restrict(Window(HalfInt(3), 2))
    assert clipped.values == (F(2), F(3))


def test_arithmetic_needs_one_window():
    f = GridFunction(HalfInt(1), (F(1), F(2), F(3)))
    shorter = f.restrict(Window(HalfInt(3), 2))
    shifted = GridFunction(HalfInt(3), (F(1), F(2), F(3)))
    other_parity = GridFunction(HalfInt(2), (F(1), F(2), F(3)))
    for g in (shorter, shifted, other_parity):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(OutOfWindow):
                op(f, g)
            with pytest.raises(OutOfWindow):
                op(g, f)
    assert (f * f).values == (F(1), F(4), F(9))
    assert (f - f).is_zero()
    assert (F(1, 2) * f).values == (F(1, 2), F(1), F(3, 2))
    with pytest.raises(TypeError):
        f * 2               # a scalar multiplies from the left only


def test_value_at_names_the_window_on_a_miss():
    f = GridFunction(HalfInt(2), (F(1), F(2), F(3)))
    assert [f.value_at(HalfInt(t)) for t in (2, 4, 6)] == [1, 2, 3]
    for twice, text in ((0, "0 not in window 1..3"), (8, "4 not in window 1..3"),
                        (3, "3/2 not in window 1..3"), (-7, "-7/2 not in window 1..3")):
        with pytest.raises(OutOfWindow) as caught:
            f.value_at(HalfInt(twice))
        assert str(caught.value) == text
        with pytest.raises(OutOfWindow) as by_window:
            f.window.index_of(HalfInt(twice))
        assert str(by_window.value) == text
