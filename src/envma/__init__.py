"""Uniformly elliptic concave extension of the projected-determinant-root
operator det^{1/2n}(proj(.)) on Sym(2n), with certificates, an independent
grid oracle, and a policy-iteration Dirichlet solver for the induced
Bellman-form equation.
"""

from .envelope import (
    CertificateBatch,
    EnvelopeCertificate,
    PropertyReport,
    ThetaBox,
    conjugate_intercept,
    conjugate_maximizer,
    ellipticity_gap,
    envelope_batch,
    envelope_eval,
    envelope_eval_bruteforce,
    envelope_value,
    verify_envelope,
)
from .matrixcore import (
    HermitianMatrix,
    admissible_theta,
    as_symmetric,
    complex_structure,
    det_root,
    embed,
    extract,
    in_theta_box,
    project,
    spectral_norm,
    trace_inner,
)
from .solver import (
    ConvergenceRow,
    GridSpec,
    MembershipReport,
    PolicyField,
    ScalarField,
    SolveReport,
    builtin_solution,
    check_premises,
    convergence_study,
    discrete_hessian,
    residual_field,
    solve_dirichlet,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateBatch",
    "EnvelopeCertificate",
    "PropertyReport",
    "ThetaBox",
    "conjugate_intercept",
    "conjugate_maximizer",
    "ellipticity_gap",
    "envelope_batch",
    "envelope_eval",
    "envelope_eval_bruteforce",
    "envelope_value",
    "verify_envelope",
    "HermitianMatrix",
    "admissible_theta",
    "as_symmetric",
    "complex_structure",
    "det_root",
    "embed",
    "extract",
    "in_theta_box",
    "project",
    "spectral_norm",
    "trace_inner",
    "ConvergenceRow",
    "GridSpec",
    "MembershipReport",
    "PolicyField",
    "ScalarField",
    "SolveReport",
    "builtin_solution",
    "check_premises",
    "convergence_study",
    "discrete_hessian",
    "residual_field",
    "solve_dirichlet",
    "__version__",
]
