"""Stress, surface traction, and force per unit length on the cylinder.

All quantities are phasors (multiply by nothing, take .real for the
instantaneous physical value) and all forces are per unit length of
cylinder [N/m].

The analytic force along x is

    F = -i 2 pi rho0 v0 omega a^2 (1 + f(a)/(beta a)) e^{-i omega t}

which splits into a pressure (buoyancy-like) part, the term "1", and a
viscous part, the term f(a)/(beta a).  force_analytic() returns exactly
the float sum of the two parts so the decomposition identity holds to
the last bit; `oscylinder force`, which prints both parts, adds them itself.

force_quadrature() integrates the traction with the composite
trapezoidal rule on a uniform theta grid.  The integrand is a
trigonometric polynomial of degree two, so the rule is exact (up to
roundoff) for every n >= 4, and the node sum factors into three angular
sums that depend on n alone.  The wall constants come from the stress
tensor, so the quadrature-vs-analytic comparison tests the algebra
connecting stress to force.

Every force is built from one phase, the common factor and, for the
quadrature, the wall stress; _force_row takes each once for a row of
`oscylinder force`, bit for bit the public functions' values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .flow import PolarPoint, Scenario, _check_radius, _phase, _radial, _slopes


class StressTensor(namedtuple("StressTensor", "pi_rr pi_rtheta pi_thetatheta")):
    """Polar components of the stress phasor [Pa] at one point."""

    __slots__ = ()
    pi_rr: complex
    pi_rtheta: complex
    pi_thetatheta: complex

    @property
    def pi_thetar(self) -> complex:
        """Symmetry partner of pi_rtheta (the tensor is symmetric)."""
        return self.pi_rtheta


class ForceResult(namedtuple("ForceResult", "fx fy method")):
    """Force per unit length [N/m] and the evaluation path that produced it."""

    __slots__ = ()
    fx: complex
    fy: complex
    method: str


def _scales(s: Scenario) -> tuple[float, float]:
    """Pressure and viscous stress scales rho0 omega v0 a and mu0 v0/a [Pa]."""
    return s.fluid.rho0 * s.omega * s.v0 * s.a, s.fluid.mu0 * s.v0 / s.a


def _stress(scales: tuple[float, float], rho: float, brackets: tuple, slopes: tuple,
            c: float, sn: float, ph: complex) -> tuple[complex, complex, complex]:
    """(Pi_rr, Pi_rtheta, Pi_thetatheta) from the _scales pair, the radial
    brackets and slopes at rho, the angle factors c = cos(theta), sn =
    sin(theta) and the phase."""
    br, bth, pb = brackets
    dbr, dbth = slopes
    scale, visc = scales
    p = -1j * scale * pb
    sum_b = (br + bth) / rho
    return (c * ph * (p + 2.0 * visc * dbr),
            sn * ph * (visc * (dbth - sum_b)),
            c * ph * (p + 2.0 * visc * sum_b))


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

    since mu0 v0/a = rho0 omega v0 a / ba^2.  The viscous terms are
    scaled by mu0 v0/a itself, which stays finite where 1/ba^2 overflows.
    """
    rho = _check_radius(s, pt.r)
    return StressTensor(*_stress(_scales(s), rho, _radial(s, rho), _slopes(s, rho),
                                 math.cos(pt.theta), math.sin(pt.theta), _phase(s, t)))


def _wall_stress(s: Scenario) -> tuple[complex, complex, complex]:
    """(A, Bv, A + Bv) on the surface, where Pi_rr = cos(theta) e^{-iwt} A
    and Pi_rtheta = sin(theta) e^{-iwt} Bv, so that

        t_x = e^{-iwt} (cos^2 A - sin^2 Bv),  t_y = e^{-iwt} sin cos (A + Bv).

    A and Bv carry the large pole term g1 with opposite signs, so A + Bv
    is summed from its own terms.  At rho = 1, B_theta' = B_r' + i b ba'^2
    (q + g1r) (ba' = beta a with the beta factor), which gives

        A + Bv = -i rho0 omega v0 a [(1 + c) + c g1 - b (ba'/ba)^2 (q + g1r)]
                 + (mu0 v0/a) (3 B_r' - B_r - B_theta).

    Unperturbed, the g1 parts cancel bitwise and the brackets vanish, so
    t_y carries no roundoff from the large terms.
    """
    k = s._coefficients
    brackets, slopes = _radial(s, 1.0), _slopes(s, 1.0)
    br, bth, _ = brackets
    dbr = slopes[0]
    scales = scale, visc = _scales(s)
    a, bv, _ = _stress(scales, 1.0, brackets, slopes, 1.0, 1.0, 1.0)
    beta_factor = k.ba / s.ba
    g1_parts = k.c * k.g1 - k.b * (beta_factor * beta_factor) * (k.q + k.g1r)
    a_bv = -1j * scale * ((1.0 + k.c) + g1_parts) + visc * (3.0 * dbr - br - bth)
    return a, bv, a_bv


def traction(s: Scenario, theta: float, t: float) -> tuple[complex, complex]:
    """Cartesian traction phasor (t_x, t_y) [Pa] on the surface r = a."""
    if not -math.inf < theta < math.inf:
        raise ValueError(f"traction angle theta = {theta!r} rad is out of range "
                         f"(not finite)")
    a, bv, a_bv = _wall_stress(s)
    c, sn = math.cos(theta), math.sin(theta)
    ph = _phase(s, t)
    return ph * (c * c * a - sn * sn * bv), ph * (sn * c * a_bv)


@lru_cache(maxsize=64)
def _angular_sums(n: int) -> tuple[float, float, float]:
    """(sum cos^2, sum sin^2, sum sin cos) over theta_k = 2 pi k/n, k < n."""
    step = 2.0 * math.pi / n
    nodes = [(math.cos(step * k), math.sin(step * k)) for k in range(n)]
    return (math.fsum(c * c for c, _ in nodes),
            math.fsum(sn * sn for _, sn in nodes),
            math.fsum(sn * c for c, sn in nodes))


def _common_factor(s: Scenario, ph: complex) -> complex:
    """-i 2 pi rho0 v0 omega a^2 times the phase ph: the buoyancy force."""
    return -1j * 2.0 * math.pi * s.fluid.rho0 * s.v0 * s.omega * s.a * s.a * ph


def _quadrature(s: Scenario, ph: complex, n_nodes: int) -> tuple[complex, complex]:
    """(F_x, F_y) of the n_nodes-point trapezoidal rule at phase ph."""
    if not isinstance(n_nodes, int) or n_nodes < 8:
        raise ValueError(f"n_nodes must be an integer >= 8, got {n_nodes!r}")
    a, bv, a_bv = _wall_stress(s)
    s_cc, s_ss, s_sc = _angular_sums(n_nodes)
    w_ph = s.a * (2.0 * math.pi / n_nodes) * ph
    return w_ph * (s_cc * a - s_ss * bv), w_ph * (s_sc * a_bv)


def _closed_form(s: Scenario, ph: complex) -> tuple[complex, complex]:
    """(F_b, F_v) at phase ph: the buoyancy force and F_b f(a)/(beta a)."""
    fb = _common_factor(s, ph)
    return fb, fb * s._coefficients.g1


def _force_row(s: Scenario, t: float, n_nodes: int) -> tuple[complex, complex, complex]:
    """F_x of force_buoyancy, force_viscous_approx and force_quadrature(s, t,
    n_nodes), from one phase, one common factor and one wall stress."""
    ph = _phase(s, t)
    return (*_closed_form(s, ph), _quadrature(s, ph, n_nodes)[0])


def force_buoyancy(s: Scenario, t: float) -> ForceResult:
    """Pressure part of the force: the inertial/buoyancy-like term.

    F_p = -i 2 pi rho0 v0 omega a^2 e^{-i omega t}; its magnitude is the
    displaced fluid mass per unit length times the flow acceleration.
    """
    return ForceResult(fx=_common_factor(s, _phase(s, t)), fy=0j, method="buoyancy")


def force_viscous_approx(s: Scenario, t: float) -> ForceResult:
    """Viscous part of the force: F_v = F_p * f(a)/(beta a)."""
    return ForceResult(fx=_closed_form(s, _phase(s, t))[1], fy=0j, method="viscous")


def force_analytic(s: Scenario, t: float) -> ForceResult:
    """Total closed-form force, by construction the exact float sum of
    force_buoyancy and force_viscous_approx."""
    fb, fv = _closed_form(s, _phase(s, t))
    return ForceResult(fx=fb + fv, fy=0j, method="analytic")


def force_quadrature(s: Scenario, t: float, n_nodes: int = 512) -> ForceResult:
    """Force by trapezoidal integration of the surface traction.

    Uses theta_k = 2 pi k/n on [0, 2 pi) and weight w = a 2 pi/n.  The
    node sum factors as F_x = w e^{-iwt} (S_cc A - S_ss Bv) and
    F_y = w e^{-iwt} S_sc (A + Bv), with the angular sums S of
    _angular_sums(n) and the wall constants of _wall_stress.
    """
    fx, fy = _quadrature(s, _phase(s, t), n_nodes)
    return ForceResult(fx=fx, fy=fy, method=f"quadrature(n={n_nodes})")
