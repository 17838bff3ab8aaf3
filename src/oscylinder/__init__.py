"""Exact time-harmonic creeping flow around an infinite circular cylinder.

Velocity, pressure, stress, and force per unit length for a cylinder in
a cross-flow oscillating as v0 e^{-i omega t}, evaluated from the
closed-form modified-Bessel solution, together with finite-difference
residual checks that verify the fields against the governing equations.
"""

from .bessel import SERIES_RADIUS, BesselDomainError, bessel_k0, bessel_k1
from .flow import (AIR_20C, J_MINUS, J_PLUS, Fluid, FlowState, Perturbation,
                   PolarPoint, RecoveryNotFoundError, Scenario, ValidityReport,
                   coefficient_B, coefficient_C, f_of_r, flow_state, pressure,
                   recovery_radius, reynolds_number, validity_report, velocity)
from .forces import (ForceResult, StressTensor, force_analytic,
                     force_buoyancy, force_quadrature, force_viscous_approx,
                     stress_tensor, traction)
from .residuals import (Check, ResidualReport, boundary_suite, convergence_order,
                        residual_report, residual_tolerance, validate_checks)

__version__ = "0.1.0"

__all__ = [
    "AIR_20C",
    "BesselDomainError",
    "Check",
    "Fluid",
    "FlowState",
    "ForceResult",
    "J_MINUS",
    "J_PLUS",
    "Perturbation",
    "PolarPoint",
    "RecoveryNotFoundError",
    "ResidualReport",
    "SERIES_RADIUS",
    "Scenario",
    "StressTensor",
    "ValidityReport",
    "bessel_k0",
    "bessel_k1",
    "boundary_suite",
    "coefficient_B",
    "coefficient_C",
    "convergence_order",
    "f_of_r",
    "flow_state",
    "force_analytic",
    "force_buoyancy",
    "force_quadrature",
    "force_viscous_approx",
    "pressure",
    "recovery_radius",
    "residual_report",
    "residual_tolerance",
    "reynolds_number",
    "stress_tensor",
    "traction",
    "validate_checks",
    "validity_report",
    "velocity",
]
