"""Uniformly elliptic concave extension of the projected-determinant-root
operator det^{1/2n}(proj(.)) on Sym(2n), with certificates, an independent
grid oracle, and a policy-iteration Dirichlet solver for the induced
Bellman-form equation.

The names of `__all__` are loaded on first access (PEP 562), so importing
the package, or a command that needs no solver, does not load the solver,
and one that verifies nothing does not load `envma.verify`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "envelope": (
        "EnvelopeCertificate",
        "ThetaBox",
        "conjugate_maximizer",
        "envelope_batch",
        "envelope_eval",
        "verify_envelope",
    ),
    "matrixcore": (
        "admissible_theta",
        "as_symmetric",
        "complex_structure",
        "det_root",
        "embed",
        "extract",
        "in_theta_box",
        "project",
    ),
    "solver": (
        "ConvergenceRow",
        "GridSpec",
        "MembershipReport",
        "ScalarField",
        "SolveReport",
        "builtin_solution",
        "check_premises",
        "convergence_study",
        "solve_dirichlet",
    ),
    "verify": (
        "PropertyReport",
        "ellipticity_gap",
        "envelope_eval_bruteforce",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _EXPORTS:
        # the modules of the exported names are attributes of the package too
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
