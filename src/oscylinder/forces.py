"""Stress, surface traction, and force per unit length on the cylinder.

All quantities are phasors (multiply by nothing, take .real for the
instantaneous physical value) and all forces are per unit length of
cylinder [N/m].

The analytic force along x is

    F = -i 2 pi rho0 v0 omega a^2 (1 + f(a)/(beta a)) e^{-i omega t}

which splits into a pressure (buoyancy-like) part, the term "1", and a
viscous part, the term f(a)/(beta a).  force_analytic() returns exactly
the float sum of the two parts so the decomposition identity holds to
the last bit.

force_quadrature() integrates the traction with the composite
trapezoidal rule on a uniform theta grid.  The integrand is a
trigonometric polynomial of degree two, so the rule is exact (up to
roundoff) for every n >= 4; the quadrature-vs-analytic comparison
therefore tests only the algebra connecting stress to force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .flow import PolarPoint, Scenario, _check_radius, _phase, _radial


@dataclass(frozen=True)
class StressTensor:
    """Polar components of the stress phasor [Pa] at one point."""

    pi_rr: complex
    pi_rtheta: complex
    pi_thetatheta: complex

    @property
    def pi_thetar(self) -> complex:
        """Symmetry partner of pi_rtheta (the tensor is symmetric)."""
        return self.pi_rtheta


@dataclass(frozen=True)
class ForceResult:
    """Force per unit length [N/m] and the evaluation path that produced it."""

    fx: complex
    fy: complex
    method: str


def _stress(s: Scenario, rho: float, radial: tuple, c: float, sn: float,
            ph: complex) -> tuple[complex, complex, complex]:
    """(Pi_rr, Pi_rtheta, Pi_thetatheta) from the radial brackets at rho,
    the angle factors c = cos(theta), sn = sin(theta) and the phase."""
    br, bth, dbr, dbth, pb = radial
    scale = s.fluid.rho0 * s.omega * s.v0 * s.a
    iba2 = 1.0 / (s.ba * s.ba)
    sum_b = (br + bth) / rho
    return (scale * c * ph * (-1j * pb + 2.0 * dbr * iba2),
            scale * sn * ph * ((dbth - sum_b) * iba2),
            scale * c * ph * (-1j * pb + 2.0 * sum_b * iba2))


def stress_tensor(s: Scenario, pt: PolarPoint, t: float) -> StressTensor:
    """Stress phasor Pi = -p I + 2 mu0 D at a field point.

    In bracket variables (rho = r/a, ba = beta a, P and B_r, B_theta the
    pressure and velocity brackets):

        Pi_rr          = rho0 omega v0 a cos(theta) e^{-iwt}
                         [ -i P(rho) + 2 B_r'(rho)/ba^2 ]
        Pi_rtheta      = rho0 omega v0 a sin(theta) e^{-iwt}
                         [ B_theta'(rho) - (B_r + B_theta)/rho ] / ba^2
        Pi_thetatheta  = rho0 omega v0 a cos(theta) e^{-iwt}
                         [ -i P(rho) + 2 (B_r + B_theta)/(rho ba^2) ]

    since mu0 v0/a = rho0 omega v0 a / ba^2.
    """
    rho = _check_radius(s, pt.r)
    return StressTensor(*_stress(s, rho, _radial(s, rho), math.cos(pt.theta),
                                 math.sin(pt.theta), _phase(s, t)))


def _traction(s: Scenario, radial: tuple, theta: float,
              ph: complex) -> tuple[complex, complex]:
    c = math.cos(theta)
    sn = math.sin(theta)
    rr, rt, _ = _stress(s, 1.0, radial, c, sn, ph)
    return rr * c - rt * sn, rr * sn + rt * c


def traction(s: Scenario, theta: float, t: float) -> tuple[complex, complex]:
    """Cartesian traction phasor (t_x, t_y) [Pa] on the surface r = a."""
    return _traction(s, _radial(s, 1.0), theta, _phase(s, t))


def _common_factor(s: Scenario, t: float) -> complex:
    return -1j * 2.0 * math.pi * s.fluid.rho0 * s.v0 * s.omega * s.a * s.a * _phase(s, t)


def force_buoyancy(s: Scenario, t: float) -> ForceResult:
    """Pressure part of the force: the inertial/buoyancy-like term.

    F_p = -i 2 pi rho0 v0 omega a^2 e^{-i omega t}; its magnitude is the
    displaced fluid mass per unit length times the flow acceleration.
    """
    return ForceResult(fx=_common_factor(s, t), fy=0j, method="buoyancy")


def force_viscous_approx(s: Scenario, t: float) -> ForceResult:
    """Viscous part of the force: F_v = F_p * f(a)/(beta a)."""
    return ForceResult(fx=_common_factor(s, t) * s._coefficients.g1, fy=0j, method="viscous")


def force_analytic(s: Scenario, t: float) -> ForceResult:
    """Total closed-form force, by construction the exact float sum of
    force_buoyancy and force_viscous_approx."""
    fx = force_buoyancy(s, t).fx + force_viscous_approx(s, t).fx
    return ForceResult(fx=fx, fy=0j, method="analytic")


def _pairwise_sum(values: list[complex]) -> complex:
    """Pairwise (tree) summation: deterministic and low-error for any order-
    preserving caller."""
    n = len(values)
    if n == 1:
        return values[0]
    m = n // 2
    return _pairwise_sum(values[:m]) + _pairwise_sum(values[m:])


def force_quadrature(s: Scenario, t: float, n_nodes: int = 512) -> ForceResult:
    """Force by trapezoidal integration of the surface traction.

    Uses theta_k = 2 pi k/n on [0, 2 pi) and weight a 2 pi/n.  Node
    tractions are accumulated with pairwise summation so the result is
    bitwise reproducible for a given n regardless of how callers
    parallelize around this function.
    """
    if not isinstance(n_nodes, int) or n_nodes < 8:
        raise ValueError(f"n_nodes must be an integer >= 8, got {n_nodes!r}")
    radial = _radial(s, 1.0)  # every node sits at rho = 1
    ph = _phase(s, t)
    txs: list[complex] = []
    tys: list[complex] = []
    step = 2.0 * math.pi / n_nodes
    for k in range(n_nodes):
        tx, ty = _traction(s, radial, step * k, ph)
        txs.append(tx)
        tys.append(ty)
    w = s.a * step
    return ForceResult(
        fx=w * _pairwise_sum(txs),
        fy=w * _pairwise_sum(tys),
        method=f"quadrature(n={n_nodes})",
    )
