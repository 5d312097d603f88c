"""Exact solutions of hypergeometric-type difference equations on nonuniform
lattices: polynomial eigenfunctions via the difference Rodrigues formula,
their second-kind companions, the generalized Rodrigues family, and the
adjoint-equation machinery that certifies all of them with exact residuals.

The identity suite (``IdentityResult``, ``identity_names``,
``run_identity_suite``) and the references it reads (the ``Fraction`` views
``PearsonWeight``, ``pearson_weight``, ``rho_k``, ``Y_n`` and
``casoratian``, and the brute-force oracle
``brute_force_polynomial_oracle``, ``nullspace`` and
``polynomial_coefficients``) live in ``identities``, imported on first
access, so a process that only solves never loads it; ``__all__`` names
them too, so ``from hyperlat import *`` imports it.
"""

from .equation import (
    AdjointCoefficients,
    HyperEquation,
    adjoint_coeffs,
    admissibility_violation,
    apply_L,
    apply_L_star,
    hat_mu_n,
    lambda_n,
    lambda_star,
    mu_k,
    sigma_of_s,
    sigma_star,
    tau_k,
    tau_k_line,
    tau_of_s,
    tau_star,
)
from .errors import (
    DegenerateAbscissae,
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
)
from .solutions import (
    SolutionReport,
    solve,
    weight_window_for,
)

__version__ = "0.1.0"

_IDENTITIES = (
    "IdentityResult", "identity_names", "run_identity_suite",
    "PearsonWeight", "pearson_weight", "rho_k", "Y_n", "casoratian",
    "brute_force_polynomial_oracle", "nullspace", "polynomial_coefficients",
)

__all__ = [
    # equation
    "AdjointCoefficients", "HyperEquation", "adjoint_coeffs", "admissibility_violation",
    "apply_L", "apply_L_star", "hat_mu_n", "lambda_n", "lambda_star", "mu_k",
    "sigma_of_s", "sigma_star", "tau_k", "tau_k_line", "tau_of_s", "tau_star",
    # errors
    "DegenerateAbscissae", "DegenerateStep", "DivisionByZero", "HyperlatError",
    "LatticeError", "NonConstantLambdaStar", "OracleDimensionError", "OutOfWindow",
    "PearsonSingularity", "ProblemFormatError", "RationalParseError", "SingularSummand",
    "WindowTooSmall",
    # grid
    "GridFunction", "Window", "cumulative_nabla_sum", "delta_k", "iterated_delta",
    "iterated_nabla", "nabla_k",
    # lattice
    "HalfInt", "Lattice", "QQuadraticLattice", "QuadraticLattice",
    # numerics
    "Rational", "Scalar", "format_rational", "format_scalar", "parse_rational",
    # problem
    "ParseDiagnostic", "ProblemSpec", "parse_problem", "parse_problem_bytes",
    "parse_problem_with_diagnostics",
    # solutions
    "SolutionReport", "solve", "weight_window_for",
    # identities, imported on first access
    *_IDENTITIES,
]


def __getattr__(name: str):
    """The names of ``identities``, imported on first access (PEP 562)."""
    if name in _IDENTITIES:
        from . import identities
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
