"""Exact solutions of hypergeometric-type difference equations on nonuniform
lattices: polynomial eigenfunctions via the difference Rodrigues formula,
their second-kind companions, the generalized Rodrigues family, and the
adjoint-equation machinery that certifies all of them with exact residuals.
"""

from .equation import (
    AdjointCoefficients,
    HyperEquation,
    PearsonWeight,
    adjoint_coeffs,
    admissibility_violation,
    apply_L,
    apply_L_star,
    dual_coefficients,
    hat_mu_n,
    hat_tau_k,
    lambda_n,
    lambda_star,
    mu_k,
    pearson_weight,
    rho_k,
    sigma_of_s,
    sigma_star,
    tau_k,
    tau_of_s,
    tau_star,
)
from .errors import (
    DegenerateAbscissae,
    DegenerateLattice,
    DegenerateStep,
    DivisionByZero,
    HyperlatError,
    LatticeError,
    NonConstantLambdaStar,
    OracleDimensionError,
    OutOfWindow,
    PearsonSingularity,
    ProblemFormatError,
    RationalParseError,
    SingularSummand,
    WindowTooSmall,
)
from .grid import (
    GridFunction,
    Window,
    cumulative_nabla_sum,
    delta_k,
    iterated_delta,
    iterated_nabla,
    nabla_k,
)
from .identities import IdentityResult, identity_names, run_identity_suite
from .lattice import (
    HalfInt,
    Lattice,
    QQuadraticLattice,
    QuadraticLattice,
)
from .numerics import (
    Rational,
    Scalar,
    format_rational,
    format_scalar,
    parse_rational,
)
from .problem import (
    ParseDiagnostic,
    ProblemSpec,
    parse_problem,
    parse_problem_bytes,
    parse_problem_with_diagnostics,
    render_problem,
)
from .solutions import (
    SolutionReport,
    Y_n,
    brute_force_polynomial_oracle,
    casoratian,
    gamma_ell_eta,
    nullspace,
    polynomial_coefficients,
    solve,
    weight_window_for,
)

__version__ = "0.1.0"
