"""The adjoint equation and its closed-form corollaries.

Substituting w = rho * y into the self-adjoint form produces a second
equation L*[w] = sigma* delta_{-1} nabla_0 w + tau* delta_0 w + lambda* w
with the intertwining property L*[rho y] = rho L[y].  Its coefficients have
closed forms through the ladder machinery:

    tau*(s)  = -tau_{-2}(s+1)
    lambda*  = lambda - kappa_{-1}

L* is again an equation of hypergeometric type on the same lattice, with
sigma~* of degree <= 2 and tau~* of slope -kappa_{-3} in x(s), and the
adjoint of the adjoint is the original equation.
"""

import random
from fractions import Fraction as F

from hyperlat import (
    GridFunction,
    HalfInt,
    HyperEquation,
    QQuadraticLattice,
    Window,
    adjoint_coeffs,
    apply_L,
    apply_L_star,
    pearson_weight,
    tau_k,
)
from hyperlat.equation import adjoint

lattice = QQuadraticLattice(F(3, 2), F(1), F(1), F(0))   # q = 9/4
equation = HyperEquation(lattice, (F(1), F(0), F(1)), (F(2), F(-3)), lam=F(5, 2))
window = Window(HalfInt.from_int(4), 7)

coeffs = adjoint_coeffs(equation, window)
print("s, sigma*(s), tau*(s), -tau_-2(s+1):")
for s in list(window.points())[:4]:
    print(f"  {s}, {coeffs.sigma_star.value_at(s)}, {coeffs.tau_star.value_at(s)},"
          f" {-tau_k(equation, -2, s + 1)}")
print(f"lambda* = {coeffs.lambda_star} = lambda - kappa_-1 ="
      f" {equation.lam} - ({equation.kappa(-1)})")
print()

# intertwining: L*[rho y] = rho L[y] for an arbitrary grid function y
weight = pearson_weight(equation, window, window.start)
rng = random.Random(3)
y = GridFunction(window.start,
                 tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(7)))
lhs = apply_L_star(equation, weight.rho * y)
rhs = weight.rho.restrict(lhs.window) * apply_L(equation, y)
print("L*[rho y] == rho L[y] pointwise:", (lhs - rhs).is_zero())

# the adjoint as an equation (sigma~*, tau~*, lambda*), and its adjoint
star = adjoint(equation)
print("sigma~*(x) coefficients (1, x, x^2):", ", ".join(map(str, star.sigma_t)))
print("tau~*(x) coefficients (1, x):", ", ".join(map(str, star.tau_t)),
      f"with slope -kappa_-3 = {-equation.kappa(-3)}")
print("the adjoint of the adjoint is the equation:", adjoint(star) == equation)
