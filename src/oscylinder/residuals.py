"""Finite-difference verification that the fields satisfy the governing
equations, plus boundary-condition spot checks.

The closed-form fields are treated as a black box: residuals are formed
by differencing samples of flow._fields, the kernel that flow_state,
velocity() and pressure() wrap (a test pins the two together bitwise),
on small stencils and substituting into the continuity equation, both
linearized momentum equations, and the pressure Laplace equation.  Every
residual is reported dimensionless:

    continuity          |div v|            / (v0/a)
    momentum            |dv/dt + grad p/rho0 - nu0 lap v| / (v0 omega)
    pressure Laplacian  |lap p|            / (rho0 omega v0 / a)

Radial steps use central second-order differences, switching to
one-sided second-order stencils (into the fluid) when r - h would fall
below the surface, so no stencil ever crosses r = a.  Azimuthal steps
use the arc-length-matched h_theta = h/r.

validate_checks is the self-check as one table of Check rows (name,
value, tol, ok), the rows `oscylinder validate` prints; NaN fails a row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .flow import PolarPoint, Scenario, _check_radius, _fields, _phase
from .forces import force_analytic, force_quadrature

#: boundary_suite thresholds
NO_SLIP_TOL = 1e-12
FAR_FIELD_TOL = 1e-3
PRESSURE_FORM_TOL = 1e-13
SYMMETRY_TOL = 1e-13

_QUANTITIES = ("continuity", "momentum_r", "momentum_theta", "pressure_laplacian")
_VR, _VT, _P = range(3)  # positions of v_r, v_theta and p in a _fields sample


@dataclass(frozen=True)
class ResidualReport:
    """Dimensionless equation residuals at one point and step size."""

    location: PolarPoint
    t: float
    h: float              # radial step [m]
    one_sided: bool       # True when the wall forced a one-sided stencil
    continuity: float
    momentum_r: float
    momentum_theta: float
    pressure_laplacian: float


class _Stencil:
    """(v_r, v_theta, p) samples from _fields around one point, with one phase
    and one rho = r/a per stencil, plus second-order difference operators."""

    def __init__(self, s: Scenario, pt: PolarPoint, t: float, h: float | None):
        rho = _check_radius(s, pt.r)
        self.h = h = _resolve_step(pt, h)
        r, theta = pt.r, pt.theta
        self.ht = h / r
        self.one_sided = (r - h) < s.a
        ph = _phase(s, t)
        # the samples at radius r come back to back: one radial evaluation
        thetas = (theta, theta - self.ht, theta + self.ht)
        self.center, self.west, self.east = (
            _fields(s, rho, math.cos(th), math.sin(th), ph) for th in thetas)
        c, sn = math.cos(theta), math.sin(theta)
        radii = (r + h, r + 2.0 * h, r + 3.0 * h) if self.one_sided else (r - h, r + h)
        off = [_fields(s, _check_radius(s, rr), c, sn, ph) for rr in radii]
        self.radial = ((self.center, *off) if self.one_sided
                       else (off[0], self.center, off[1]))

    def d1r(self, i: int) -> complex:
        f = [st[i] for st in self.radial]
        if self.one_sided:
            return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * self.h)
        return (f[2] - f[0]) / (2.0 * self.h)

    def d2r(self, i: int) -> complex:
        f = [st[i] for st in self.radial]
        if self.one_sided:
            return (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (self.h * self.h)
        return (f[2] - 2.0 * f[1] + f[0]) / (self.h * self.h)

    def d1t(self, i: int) -> complex:
        return (self.east[i] - self.west[i]) / (2.0 * self.ht)

    def d2t(self, i: int) -> complex:
        return ((self.east[i] - 2.0 * self.center[i] + self.west[i])
                / (self.ht * self.ht))


def _resolve_step(pt: PolarPoint, h: float | None) -> float:
    if h is None:
        h = 1e-4 * pt.r
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if h * h < sys.float_info.min:
        raise ValueError(f"step h = {h!r} m is too small: h*h underflows, "
                         f"so second differences cannot be formed")
    r, theta, ht = pt.r, pt.theta, h / pt.r
    if r + h == r or theta + ht == theta or theta - ht == theta:
        raise ValueError(f"step h = {h!r} m is too small: the stencil points "
                         f"round onto r = {r!r} m or theta = {theta!r}")
    return h


def residual_report(s: Scenario, pt: PolarPoint, t: float = 0.0,
                    h: float | None = None) -> ResidualReport:
    """All four equation residuals at one point (default step 1e-4 r)."""
    st = _Stencil(s, pt, t, h)
    r = pt.r
    inv_r = 1.0 / r
    inv_r2 = inv_r * inv_r
    nu0 = s.fluid.nu0
    rho0 = s.fluid.rho0
    omega = s.omega
    vnorm = s.v0 if s.v0 > 0 else 1.0

    vr0 = st.center[_VR]
    vt0 = st.center[_VT]
    d1r_vr = st.d1r(_VR)
    d1r_vt = st.d1r(_VT)
    d1r_p = st.d1r(_P)
    d1t_vr = st.d1t(_VR)
    d1t_vt = st.d1t(_VT)
    d1t_p = st.d1t(_P)

    cont = d1r_vr + vr0 * inv_r + d1t_vt * inv_r

    lap_vr = (st.d2r(_VR) + st.d2t(_VR) * inv_r2 + d1r_vr * inv_r
              - 2.0 * d1t_vt * inv_r2 - vr0 * inv_r2)
    lap_vt = (st.d2r(_VT) + st.d2t(_VT) * inv_r2 + d1r_vt * inv_r
              + 2.0 * d1t_vr * inv_r2 - vt0 * inv_r2)
    mom_r = -1j * omega * vr0 + d1r_p / rho0 - nu0 * lap_vr
    mom_t = -1j * omega * vt0 + d1t_p * inv_r / rho0 - nu0 * lap_vt

    lap_p = st.d2r(_P) + d1r_p * inv_r + st.d2t(_P) * inv_r2

    return ResidualReport(
        location=pt,
        t=t,
        h=st.h,
        one_sided=st.one_sided,
        continuity=abs(cont) * s.a / vnorm,
        momentum_r=abs(mom_r) / (vnorm * omega),
        momentum_theta=abs(mom_t) / (vnorm * omega),
        pressure_laplacian=abs(lap_p) * s.a / (rho0 * omega * vnorm),
    )


def continuity_pair(s: Scenario, pt: PolarPoint, t: float = 0.0,
                    h: float | None = None) -> tuple[float, float]:
    """Continuity residual by two groupings of the same stencil values.

    The mass balance can be written div v = dv_r/dr + v_r/r
    + (1/r) dv_theta/dtheta, or regrouped through d(r v_r)/dr
    + dv_theta/dtheta = 0.  Both forms are evaluated from the same
    field samples, so they agree to regrouping roundoff (~1e-15); a
    larger gap would mean the two code paths diverged.
    """
    st = _Stencil(s, pt, t, h)
    r = pt.r
    vnorm = s.v0 if s.v0 > 0 else 1.0
    vr0 = st.center[_VR]
    d1r_vr = st.d1r(_VR)
    d1t_vt = st.d1t(_VT)
    expanded = abs(d1r_vr + vr0 / r + d1t_vt / r) * s.a / vnorm
    regrouped = abs(vr0 + r * d1r_vr + d1t_vt) * s.a / (r * vnorm)
    return expanded, regrouped


def convergence_order(s: Scenario, pt: PolarPoint, t: float = 0.0,
                      h: float | None = None,
                      quantity: str = "momentum_theta") -> float:
    """Measured convergence order of one residual under step halving.

    Evaluates the residual at h, h/2 and h/4 and averages the two
    log2 ratios.  Central differencing should give ~2 while truncation
    dominates; pick h large enough that roundoff does not (default
    1e-3 r).
    """
    if quantity not in _QUANTITIES:
        raise ValueError(f"quantity must be one of {_QUANTITIES}, got {quantity!r}")
    if h is None:
        h = 1e-3 * pt.r
    vals = [getattr(residual_report(s, pt, t, hh), quantity)
            for hh in (h, 0.5 * h, 0.25 * h)]
    if min(vals) <= 0.0:
        raise ArithmeticError("residual vanished exactly; order is undefined")
    return 0.5 * (math.log2(vals[0] / vals[1]) + math.log2(vals[1] / vals[2]))


def residual_tolerance(s: Scenario, rho: float, h_rel: float = 1e-4) -> float:
    """Pass threshold for equation residuals at rho = r/a, step h = h_rel r.

    The floor is 1e-6.  Two mechanistic error sources can exceed it at
    extreme parameters and are folded into the envelope:

    * O(h^2) truncation of the algebraic a^2/r^2 terms, which scales
      like h_rel^2/((beta a)^2 rho^4) (calibrated so it equals
      3e-7/((beta a)^2 rho^4) at h_rel = 1e-4);
    * roundoff amplification of second differences, ~eps/h^2 on fields
      of size v0, i.e. ~40 eps/((beta a) rho h_rel)^2 after the
      momentum normalization by v0 omega.

    An infinite envelope would pass anything, so it raises ValueError.
    """
    ba = s.ba
    eps = sys.float_info.epsilon
    try:
        truncation = 3e-7 * (h_rel / 1e-4) ** 2 / ((ba * ba) * rho ** 4)
        roundoff = 40.0 * eps / ((ba * rho * h_rel) ** 2)
        tol = max(1e-6, truncation, roundoff)
    except ZeroDivisionError:  # a power of beta a underflowed to 0
        tol = math.inf
    if tol == math.inf:
        raise ValueError(f"residual tolerance overflows at beta a = {ba:g}")
    return tol


@dataclass(frozen=True)
class BoundaryReport:
    """Maximum deviations from the four boundary/structure conditions.

    All maxima are normalized: velocities by v0, pressures by the
    reference pressure at theta = 0 of the same radius and time.
    """

    no_slip_max: float        # |v(a, theta, t)|/v0
    far_field_max: float      # |v(R) - v_inf|/v0 at R = far_radius
    pressure_form_max: float  # theta-dependence of p/cos(theta)
    symmetry_max: float       # p(r,-theta)=p(r,theta), p(r,pi-theta)=-p(r,theta)
    far_radius: float         # [m]
    no_slip_ok: bool
    far_field_ok: bool
    pressure_form_ok: bool
    symmetry_ok: bool

    @property
    def passed(self) -> bool:
        return (self.no_slip_ok and self.far_field_ok
                and self.pressure_form_ok and self.symmetry_ok)


def nan_rank(value: float) -> tuple[bool, float]:
    """Sort key ranking NaN above every number: max(..., key=nan_rank)
    keeps a NaN that plain max() would drop, so `<= tol` then fails."""
    return math.isnan(value), value


def boundary_suite(s: Scenario) -> BoundaryReport:
    """Check no slip, far-field recovery, and the pressure ansatz shape.

    * no slip: |v| <= 1e-12 v0 on 64 angles x 4 phases at r = a;
    * far field: |v - v_inf| <= 1e-3 v0 at R = max(1e3 a, 20 delta),
      where delta is the boundary-layer thickness (the max keeps R
      outside both the algebraic 1/r^2 tails and the Bessel skin);
    * pressure form: p/cos(theta) is theta-independent to 1e-13;
    * pressure symmetry: p even under theta -> -theta and odd under
      theta -> pi - theta, to 1e-13.
    """
    vnorm = s.v0 if s.v0 > 0 else 1.0
    period = 2.0 * math.pi / s.omega
    times4 = (0.0, period / 6.0, period / 4.0, period / 2.0)

    # one radius check and one phase per (radius, time) block
    no_slip = []
    wall = _check_radius(s, s.a)  # exactly 1.0
    for t in times4:
        ph = _phase(s, t)
        for k in range(64):
            theta = 2.0 * math.pi * k / 64.0
            vr, vt, _ = _fields(s, wall, math.cos(theta), math.sin(theta), ph)
            no_slip.append(math.hypot(abs(vr), abs(vt)) / vnorm)

    far_radius = max(1e3 * s.a, 20.0 * s.delta)
    far_rho = _check_radius(s, far_radius)
    far = []
    for t in (0.0, period / 5.0):
        ph_inf = complex(math.cos(s.omega * t), -math.sin(s.omega * t))
        ph = _phase(s, t)
        for k in range(32):
            theta = 2.0 * math.pi * k / 32.0
            c, sn = math.cos(theta), math.sin(theta)
            vr, vt, _ = _fields(s, far_rho, c, sn, ph)
            vinf_r = s.v0 * c * ph_inf
            vinf_t = -s.v0 * sn * ph_inf
            far.append(math.hypot(abs(vr - vinf_r), abs(vt - vinf_t)) / vnorm)

    # angles keep |cos| >= 0.25 so the division is well-conditioned
    form_thetas = (0.3, 0.8, 1.2, 2.1, 2.8, 3.6, 4.2, 5.1)
    form = []
    sym = []
    for rr in (1.5 * s.a, 3.0 * s.a):
        rho = _check_radius(s, rr)
        for t in (0.0, period / 5.0):
            ph = _phase(s, t)
            p0 = _fields(s, rho, 1.0, 0.0, ph)[_P]  # theta = 0
            pnorm = abs(p0) if abs(p0) > 0.0 else 1.0
            for theta in form_thetas:
                p = _fields(s, rho, math.cos(theta), math.sin(theta), ph)[_P]
                form.append(abs(p / math.cos(theta) - p0) / pnorm)
                p_neg = _fields(s, rho, math.cos(-theta), math.sin(-theta), ph)[_P]
                sup = math.pi - theta
                p_sup = _fields(s, rho, math.cos(sup), math.sin(sup), ph)[_P]
                sym += [abs(p_neg - p) / pnorm, abs(p_sup + p) / pnorm]
    no_slip, far, form, sym = (max(v, key=nan_rank) for v in (no_slip, far, form, sym))

    return BoundaryReport(
        no_slip_max=no_slip,
        far_field_max=far,
        pressure_form_max=form,
        symmetry_max=sym,
        far_radius=far_radius,
        no_slip_ok=no_slip <= NO_SLIP_TOL,
        far_field_ok=far <= FAR_FIELD_TOL,
        pressure_form_ok=form <= PRESSURE_FORM_TOL,
        symmetry_ok=sym <= SYMMETRY_TOL,
    )


@dataclass(frozen=True)
class Check:
    """One validate row; name is the text before "=" in the printed line."""

    name: str
    value: float
    tol: float
    ok: bool


def validate_checks(s: Scenario, t: float = 0.0,
                    h_rel: float = 1e-4) -> list[Check]:
    """The ten rows `oscylinder validate` prints, in order: each equation's
    largest residual (step h_rel r) on 5 radii in [1.1a, 100a] x 5 angles,
    passing only if each meets the residual_tolerance of its own radius; the
    boundary_suite maxima; the force_quadrature-vs-analytic and |Fy/Fx| ratios."""
    if not (math.isfinite(h_rel) and 0.0 < h_rel < 0.1):
        raise ValueError(f"h_rel must lie in (0, 0.1), got {h_rel!r}")
    s._coefficients  # an unusable beta a fails here, naming it, before any tol
    # (value, tol) pairs; (0, 1) is what prints when every residual is 0
    found = {q: [(0.0, 1.0)] for q in _QUANTITIES}
    for rho in (1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)):
        tol = residual_tolerance(s, rho, h_rel)
        for theta in (0.35, 1.05, 1.85, 2.65, 3.45):
            rep = residual_report(s, PolarPoint(rho * s.a, theta), t,
                                  h=h_rel * rho * s.a)
            for q, pairs in found.items():
                pairs.append((getattr(rep, q), tol))
    checks = []
    for q, pairs in found.items():
        value, tol = max(pairs, key=lambda pair: nan_rank(pair[0]))
        checks.append(Check(f"residual {q} max", value, tol,
                            all(v <= tl for v, tl in pairs)))

    b = boundary_suite(s)
    for q, tol in (("no_slip", NO_SLIP_TOL), ("far_field", FAR_FIELD_TOL),
                   ("pressure_form", PRESSURE_FORM_TOL), ("symmetry", SYMMETRY_TOL)):
        checks.append(Check(f"boundary {q} max", getattr(b, f"{q}_max"), tol,
                            getattr(b, f"{q}_ok")))

    fq, fa = force_quadrature(s, t, 512), force_analytic(s, t)
    # != 0 rather than abs() > 0, so that NaN reaches the <= checks below
    rel = abs(fq.fx - fa.fx) / abs(fa.fx) if fa.fx != 0 else 0.0
    transverse = abs(fq.fy) / abs(fq.fx) if fq.fx != 0 else 0.0
    for name, value, tol in (("force quadrature_vs_analytic rel", rel, 1e-9),
                             ("force transverse rel", transverse, 1e-12)):
        checks.append(Check(name, value, tol, value <= tol))
    return checks
