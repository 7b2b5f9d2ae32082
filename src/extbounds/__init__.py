"""Guaranteed, fully computable upper and lower bounds for the energy-norm
error of approximations to exterior-domain diffusion problems, together
with numerical verification of every inequality constant they rely on."""

from .constants import (
    ConstantReport,
    ConstantsBundle,
    boundary_extension_constant,
    exterior_poincare_constant,
    interface_trace_constant,
    interior_friedrichs_constant,
    interior_weight_constant,
)
from .fields import (
    Coefficient,
    ScalarField,
    VectorField,
    energy_norm,
    log_weighted_norm,
    weighted_norm,
)
from .geometry import ExteriorDomain, QuadratureRule, build_quadrature, integrate
from .majorant import (
    EquilibrationError,
    MajorantReport,
    boundary_term,
    constants_bundle,
    estimate_I,
    estimate_II,
    estimate_III,
)
from .minorant import TestBasis, default_basis, minorant_report
from .problems import (
    CATALOG,
    ManufacturedProblem,
    Problem,
    builtin,
    make_bundle,
    perturb,
    true_error,
    with_interface_radius,
)
from .traces import SphereTrace, analyze, normal_trace, sobolev_norm

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "Coefficient",
    "ConstantReport",
    "ConstantsBundle",
    "EquilibrationError",
    "ExteriorDomain",
    "MajorantReport",
    "ManufacturedProblem",
    "Problem",
    "QuadratureRule",
    "ScalarField",
    "SphereTrace",
    "TestBasis",
    "VectorField",
    "analyze",
    "boundary_extension_constant",
    "boundary_term",
    "build_quadrature",
    "builtin",
    "constants_bundle",
    "default_basis",
    "energy_norm",
    "estimate_I",
    "estimate_II",
    "estimate_III",
    "exterior_poincare_constant",
    "integrate",
    "interface_trace_constant",
    "interior_friedrichs_constant",
    "interior_weight_constant",
    "log_weighted_norm",
    "make_bundle",
    "minorant_report",
    "normal_trace",
    "perturb",
    "sobolev_norm",
    "true_error",
    "weighted_norm",
    "with_interface_radius",
]
