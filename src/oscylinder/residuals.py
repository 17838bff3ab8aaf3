"""Finite-difference verification that the fields satisfy the governing
equations, plus boundary-condition spot checks.

The closed-form fields are treated as a black box: residuals are formed
by differencing samples of flow._fields, the block kernel that
flow_state, velocity() and pressure() call one point at a time (a test
pins the two together bitwise), on small stencils and substituting into
the continuity equation, both linearized momentum equations, and the
pressure Laplace equation.  Samples are taken by block, one kernel call
per (radius, time): _stencils samples the points sharing a radius with one
call at r for all their angles plus one per off-radius point, _reports
forms every difference from those samples inline, and boundary_suite
makes 10 calls in all.  Every residual is reported dimensionless:

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
from collections import namedtuple

from .flow import PolarPoint, Scenario, _check_radius, _fields, _phase
from .forces import force_analytic, force_quadrature

#: boundary_suite thresholds, then its four checks in BoundaryReport order
NO_SLIP_TOL = 1e-12
FAR_FIELD_TOL = 1e-3
PRESSURE_FORM_TOL = 1e-13
SYMMETRY_TOL = 1e-13
_BOUNDARY_CHECKS = (("no_slip", NO_SLIP_TOL), ("far_field", FAR_FIELD_TOL),
                    ("pressure_form", PRESSURE_FORM_TOL), ("symmetry", SYMMETRY_TOL))

#: boundary_suite's (cos theta, sin theta) tables: the wall and far-field
#: rings, then theta = 0 and theta, -theta, pi - theta for each pressure-form
#: angle (those keep |cos| >= 0.25 so dividing by it is well-conditioned)
_RING64, _RING32 = ([(math.cos(th), math.sin(th))
                     for th in (2.0 * math.pi * k / n for k in range(n))]
                    for n in (64, 32))
_FORM_ANGLES = [(1.0, 0.0)] + [(math.cos(th), math.sin(th))
                               for theta in (0.3, 0.8, 1.2, 2.1, 2.8, 3.6, 4.2, 5.1)
                               for th in (theta, -theta, math.pi - theta)]


class ResidualReport(namedtuple("ResidualReport", "location t h one_sided continuity "
                                "momentum_r momentum_theta pressure_laplacian")):
    """Dimensionless equation residuals at one point and step size."""

    __slots__ = ()
    location: PolarPoint
    t: float
    h: float              # radial step [m]
    one_sided: bool       # True when the wall forced a one-sided stencil
    continuity: float
    momentum_r: float
    momentum_theta: float
    pressure_laplacian: float


_RESIDUALS = slice(4, 8)  # the residual columns of a ResidualReport
_QUANTITIES = ResidualReport._fields[_RESIDUALS]


def _resolve_step(r: float, thetas, h: float | None) -> float:
    if h is None:
        h = 1e-4 * r
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if h * h < sys.float_info.min:
        raise ValueError(f"step h = {h!r} m is too small: h*h underflows, "
                         f"so second differences cannot be formed")
    ht = h / r
    for theta in thetas:
        if r + h == r or theta + ht == theta or theta - ht == theta:
            raise ValueError(f"step h = {h!r} m is too small: the stencil points "
                             f"round onto r = {r!r} m or theta = {theta!r}")
    return h


def _stencils(s: Scenario, pts, t: float, h: float | None):
    """(h, ht, one_sided, ring, off) for points sharing one radius r: the
    steps, whether the wall forces one-sided radial stencils, the (v_r,
    v_theta, p) samples at theta, theta -+ ht of each point in turn, and per
    point its samples at r -+ h, or r + h, 2h, 3h when one-sided."""
    r = pts[0].r
    rho = _check_radius(s, r)
    h = _resolve_step(r, [pt.theta for pt in pts], h)
    ht = h / r
    one_sided = (r - h) < s.a
    ph = _phase(s, t)
    angles = [(math.cos(th), math.sin(th)) for pt in pts
              for th in (pt.theta, pt.theta - ht, pt.theta + ht)]
    ring = _fields(s, rho, angles, ph)
    radii = (r + h, r + 2.0 * h, r + 3.0 * h) if one_sided else (r - h, r + h)
    off = list(zip(*[_fields(s, _check_radius(s, rr), angles[::3], ph)
                     for rr in radii]))
    return h, ht, one_sided, ring, off


def _reports(s: Scenario, pts, t: float, h: float | None) -> list[ResidualReport]:
    """residual_report at each of pts, which share one radius: one _stencils
    block, then second-order differences formed inline, point by point."""
    h, ht, one_sided, ring, off = _stencils(s, pts, t, h)
    inv_r = 1.0 / pts[0].r
    inv_r2 = inv_r * inv_r
    h2, hh, ht2, htht = 2.0 * h, h * h, 2.0 * ht, ht * ht
    a, nu0, rho0, iw = s.a, s.fluid.nu0, s.fluid.rho0, -1j * s.omega
    vnorm = s.v0 if s.v0 > 0 else 1.0
    mnorm, pnorm = vnorm * s.omega, rho0 * s.omega * vnorm
    reports = []
    for pt, (vr0, vt0, p0), (vr_w, vt_w, p_w), (vr_e, vt_e, p_e), radial in zip(
            pts, ring[::3], ring[1::3], ring[2::3], off):
        if one_sided:  # samples at r + h, r + 2h, r + 3h
            (vr1, vt1, p1), (vr2, vt2, p2), (vr3, vt3, p3) = radial
            d1r_vr = (-3.0 * vr0 + 4.0 * vr1 - vr2) / h2
            d1r_vt = (-3.0 * vt0 + 4.0 * vt1 - vt2) / h2
            d1r_p = (-3.0 * p0 + 4.0 * p1 - p2) / h2
            d2r_vr = (2.0 * vr0 - 5.0 * vr1 + 4.0 * vr2 - vr3) / hh
            d2r_vt = (2.0 * vt0 - 5.0 * vt1 + 4.0 * vt2 - vt3) / hh
            d2r_p = (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) / hh
        else:  # samples at r - h, r + h
            (vr1, vt1, p1), (vr2, vt2, p2) = radial
            d1r_vr = (vr2 - vr1) / h2
            d1r_vt = (vt2 - vt1) / h2
            d1r_p = (p2 - p1) / h2
            d2r_vr = (vr2 - 2.0 * vr0 + vr1) / hh
            d2r_vt = (vt2 - 2.0 * vt0 + vt1) / hh
            d2r_p = (p2 - 2.0 * p0 + p1) / hh
        d1t_vr = (vr_e - vr_w) / ht2
        d1t_vt = (vt_e - vt_w) / ht2
        d1t_p = (p_e - p_w) / ht2
        d2t_vr = (vr_e - 2.0 * vr0 + vr_w) / htht
        d2t_vt = (vt_e - 2.0 * vt0 + vt_w) / htht
        d2t_p = (p_e - 2.0 * p0 + p_w) / htht
        cont = d1r_vr + vr0 * inv_r + d1t_vt * inv_r
        lap_vr = (d2r_vr + d2t_vr * inv_r2 + d1r_vr * inv_r
                  - 2.0 * d1t_vt * inv_r2 - vr0 * inv_r2)
        lap_vt = (d2r_vt + d2t_vt * inv_r2 + d1r_vt * inv_r
                  + 2.0 * d1t_vr * inv_r2 - vt0 * inv_r2)
        mom_r = iw * vr0 + d1r_p / rho0 - nu0 * lap_vr
        mom_t = iw * vt0 + d1t_p * inv_r / rho0 - nu0 * lap_vt
        lap_p = d2r_p + d1r_p * inv_r + d2t_p * inv_r2
        reports.append(ResidualReport(pt, t, h, one_sided, abs(cont) * a / vnorm,
                                      abs(mom_r) / mnorm, abs(mom_t) / mnorm,
                                      abs(lap_p) * a / pnorm))
    return reports


def residual_report(s: Scenario, pt: PolarPoint, t: float = 0.0,
                    h: float | None = None) -> ResidualReport:
    """All four equation residuals at one point (default step 1e-4 r)."""
    return _reports(s, [pt], t, h)[0]


def continuity_pair(s: Scenario, pt: PolarPoint, t: float = 0.0,
                    h: float | None = None) -> tuple[float, float]:
    """Continuity residual by two groupings of the same stencil values.

    The mass balance can be written div v = dv_r/dr + v_r/r
    + (1/r) dv_theta/dtheta, or regrouped through d(r v_r)/dr
    + dv_theta/dtheta = 0.  Both forms are evaluated from the same
    field samples, so they agree to regrouping roundoff (~1e-15); a
    larger gap would mean the two code paths diverged.
    """
    h, ht, one_sided, ((vr0, _, _), (_, vt_w, _), (_, vt_e, _)), (radial,) = \
        _stencils(s, [pt], t, h)
    vr1, vr2 = radial[0][0], radial[1][0]
    d1r_vr = ((-3.0 * vr0 + 4.0 * vr1 - vr2) if one_sided else (vr2 - vr1)) / (2.0 * h)
    d1t_vt = (vt_e - vt_w) / (2.0 * ht)
    r = pt.r
    vnorm = s.v0 if s.v0 > 0 else 1.0
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


class BoundaryReport(namedtuple("BoundaryReport", "no_slip_max far_field_max "
                                "pressure_form_max symmetry_max far_radius no_slip_ok "
                                "far_field_ok pressure_form_ok symmetry_ok")):
    """Maximum deviations from the four boundary/structure conditions.

    All maxima are normalized: velocities by v0, pressures by the
    reference pressure at theta = 0 of the same radius and time.
    """

    __slots__ = ()
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


def _nan_max(values: list[float] | tuple[float, ...]) -> float:
    """max(values, key=nan_rank) without a per-element key call."""
    return math.nan if any(map(math.isnan, values)) else max(values)


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
    # one kernel call, so one radius check and one phase, per (radius, time)
    no_slip = []
    wall = _check_radius(s, s.a)  # exactly 1.0
    for t in (0.0, period / 6.0, period / 4.0, period / 2.0):
        no_slip += [math.hypot(abs(vr), abs(vt)) / vnorm
                    for vr, vt, _ in _fields(s, wall, _RING64, _phase(s, t))]

    far_radius = max(1e3 * s.a, 20.0 * s.delta)
    far_rho = _check_radius(s, far_radius)
    far = []
    for t in (0.0, period / 5.0):
        ph_inf = complex(math.cos(s.omega * t), -math.sin(s.omega * t))
        samples = _fields(s, far_rho, _RING32, _phase(s, t))
        for (c, sn), (vr, vt, _) in zip(_RING32, samples):
            vinf_r = s.v0 * c * ph_inf
            vinf_t = -s.v0 * sn * ph_inf
            far.append(math.hypot(abs(vr - vinf_r), abs(vt - vinf_t)) / vnorm)

    form = []
    sym = []
    for rr in (1.5 * s.a, 3.0 * s.a):
        rho = _check_radius(s, rr)
        for t in (0.0, period / 5.0):
            p0, *ps = (p for _, _, p in _fields(s, rho, _FORM_ANGLES, _phase(s, t)))
            pnorm = abs(p0) if abs(p0) > 0.0 else 1.0
            for k in range(0, len(ps), 3):
                p, p_neg, p_sup = ps[k:k + 3]
                form.append(abs(p / _FORM_ANGLES[k + 1][0] - p0) / pnorm)
                sym += [abs(p_neg - p) / pnorm, abs(p_sup + p) / pnorm]
    maxima = [_nan_max(v) for v in (no_slip, far, form, sym)]
    return BoundaryReport(*maxima, far_radius,
                          *(m <= tol for m, (_, tol) in zip(maxima, _BOUNDARY_CHECKS)))


class Check(namedtuple("Check", "name value tol ok")):
    """One validate row; name is the text before "=" in the printed line."""

    __slots__ = ()
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
    # per residual column, one (block max, tol) pair per radius; (0, 1) is
    # what prints when every residual is 0
    found = [[(0.0, 1.0)] for _ in _QUANTITIES]
    for rho in (1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)):
        tol = residual_tolerance(s, rho, h_rel)
        pts = [PolarPoint(rho * s.a, theta) for theta in (0.35, 1.05, 1.85, 2.65, 3.45)]
        columns = list(zip(*_reports(s, pts, t, h_rel * rho * s.a)))[_RESIDUALS]
        for pairs, column in zip(found, columns):
            pairs.append((_nan_max(column), tol))
    checks = []
    for q, pairs in zip(_QUANTITIES, found):
        value = _nan_max([v for v, _ in pairs])
        tol = next(tl for v, tl in pairs if v == value or v != v)  # first NaN/max
        checks.append(Check(f"residual {q} max", value, tol,
                            all(v <= tl for v, tl in pairs)))

    b = boundary_suite(s)
    for q, tol in _BOUNDARY_CHECKS:
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
