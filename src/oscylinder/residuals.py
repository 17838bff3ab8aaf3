"""Finite-difference verification that the fields satisfy the governing
equations, plus boundary-condition spot checks.

The closed-form fields are treated as a black box: residuals are formed
by differencing field samples on small stencils and substituting into
the continuity equation, both linearized momentum equations, and the
pressure Laplace equation.  Each sample is angle x flow._radial x phase,
with flow_state's products in flow_state's order.  _residual_block takes
one radius at a time: one _radial call at r and one per off radius, one
phase, then one loop over the block's angles that forms every sample,
each field's differences and the four residuals inline, and returns the
four residual columns.  boundary_suite makes one _radial call at each
of its two radii, the wall and the far radius, forms only v_r and
v_theta there on angle tables built at import, and skips the no-slip
ring when both wall brackets are exactly 0.  Tests pin both bit for bit
to references built on flow_state() and velocity().  Every residual is
reported dimensionless:

    continuity          |div v|            / (v0/a)
    momentum            |dv/dt + grad p/rho0 - nu0 lap v| / (v0 omega)
    pressure Laplacian  |lap p|            / (rho0 omega v0 / a)

Radial steps use central second-order differences, switching to
one-sided second-order stencils (into the fluid) when r - h would fall
below the surface, so no stencil ever crosses r = a.  Azimuthal steps
use the arc-length-matched h_theta = h/r.  The fields are sampled at
unit amplitude (v0 = 1), since every residual above is relative to v0,
and lengths are measured in the largest power of two not above r
(_length_unit), so h^2, 1/r^2 and the pressure's second differences stay
in range at every r.

validate_checks is the self-check as one table of Check rows (name,
value, tol, ok), the rows `oscylinder validate` prints, boundary_suite's
two among them and two force rows formed from forces._force_row, the
row `oscylinder force` prints; NaN fails a row.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .flow import PolarPoint, Scenario, _check_radius, _phase, _radial
from .forces import _force_row

#: boundary_suite thresholds, then its two rows in the order validate prints them
NO_SLIP_TOL = 1e-12
FAR_FIELD_TOL = 1e-3
_BOUNDARY_CHECKS = (("no_slip", NO_SLIP_TOL), ("far_field", FAR_FIELD_TOL))

#: boundary_suite's tables: (cos, sin) on the wall ring, (cos, sin, -sin) on
#: the far ring
_WALL_RING = [(math.cos(th), math.sin(th))
              for th in (2.0 * math.pi * k / 64 for k in range(64))]
_FAR_RING = [(math.cos(th), math.sin(th), -math.sin(th))
             for th in (2.0 * math.pi * k / 32 for k in range(32))]


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


class Check(namedtuple("Check", "name value tol ok")):
    """One validate row; name is the text before "=" in the printed line."""

    __slots__ = ()
    name: str
    value: float
    tol: float
    ok: bool


_QUANTITIES = ResidualReport._fields[4:]  # the residual columns


def _length_unit(r: float) -> float:
    """The largest power of two not above r.  In it r lies in [1, 2), so
    h*h, 1/r^2 and p/h^2 stay in range at every r; in metres 1/r^2
    underflows from r ~ 6.7e153, (1e-4 r)^2 overflows from 1.3e158 and
    p/h^2 overflows at tiny r and huge omega."""
    return math.ldexp(1.0, math.frexp(r)[1] - 1)


def _residual_block(s: Scenario, r: float, thetas, t: float,
                    h: float) -> list[tuple[float, ...]]:
    """The four residual columns (continuity, momentum_r, momentum_theta,
    pressure_laplacian) at radius r, one value per angle in thetas, step h.

    One _radial call at r, then one per off radius: r -+ h, or r + h, 2h,
    3h when the wall forces one-sided stencils.  Each sample is angle x
    bracket x phase, flow_state's products in its order at v0 = 1: every
    residual is relative to v0 and the fields are linear in it, so s.v0 is
    not read.  One loop over the angles forms, field by field, the samples
    at theta, theta -+ ht and the off radii and their differences, in
    lengths of L = _length_unit(r) (grad p returns to metres to meet rho0),
    then the four residuals."""
    rho = _check_radius(s, r)
    if isinstance(h, bool) or not (isinstance(h, (int, float))
                                   and 0 < h <= sys.float_info.max):
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    if h * h < sys.float_info.min:
        raise ValueError(f"step h = {h!r} m is too small: h*h underflows, "
                         f"so second differences cannot be formed")
    ht, L = h / r, _length_unit(r)
    hl = h / L
    if not (ht * ht < math.inf and hl * hl < math.inf):
        raise ValueError(f"step h = {h!r} m is too large at r = {r!r} m: its "
                         f"square overflows, so second differences cannot be formed")
    for theta in thetas:
        if r + h == r or theta + ht == theta or theta - ht == theta:
            raise ValueError(f"step h = {h!r} m is too small: the stencil points "
                             f"round onto r = {r!r} m or theta = {theta!r}")
    ph = _phase(s, t)
    one_sided = (r - h) < s.a
    radii = (r + h, r + 2.0 * h, r + 3.0 * h) if one_sided else (r - h, r + h)
    # per field (v_r, v_theta, p): its brackets at r, then at each off radius
    b_vr, b_vt, b_p = zip(_radial(s, rho),
                          *[_radial(s, _check_radius(s, rr)) for rr in radii])
    inv_r = L / r
    inv_r2 = inv_r * inv_r
    h2, hh, ht2, htht = 2.0 * hl, hl * hl, 2.0 * ht, ht * ht
    a, nu0, rho0, iw = s.a / L, s.fluid.nu0 / L / L, s.fluid.rho0, -1j * s.omega
    omega, pnorm = s.omega, rho0 * s.omega * L
    pv = 1j * rho0 * s.omega * s.a
    cos, sin = math.cos, math.sin
    rows = []
    for theta in thetas:
        c, cw, ce = cos(theta), cos(theta - ht), cos(theta + ht)
        sn, sw, se = sin(theta), sin(theta - ht), sin(theta + ht)
        d = []  # per field: its value, d/dr, d2/dr2, d/dtheta, d2/dtheta2
        # per field: angle x phase at theta, theta - ht, theta + ht; brackets
        for f, w, e, b in ((c * ph, cw * ph, ce * ph, b_vr), (sn * ph, sw * ph, se * ph, b_vt),
                           (pv * c * ph, pv * cw * ph, pv * ce * ph, b_p)):
            b0 = b[0]
            f0, f1, f2, fw, fe = f * b0, f * b[1], f * b[2], w * b0, e * b0
            d1t, d2t = (fe - fw) / ht2, (fe - 2.0 * f0 + fw) / htht
            if one_sided:  # samples at r + h, r + 2h, r + 3h
                d += (f0, (-3.0 * f0 + 4.0 * f1 - f2) / h2,
                      (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f * b[3]) / hh, d1t, d2t)
            else:  # samples at r - h, r + h
                d += f0, (f2 - f1) / h2, (f2 - 2.0 * f0 + f1) / hh, d1t, d2t
        (vr0, d1r_vr, d2r_vr, d1t_vr, d2t_vr, vt0, d1r_vt, d2r_vt, d1t_vt, d2t_vt,
         _, d1r_p, d2r_p, d1t_p, d2t_p) = d
        cont = d1r_vr + vr0 * inv_r + d1t_vt * inv_r
        lap_vr = (d2r_vr + d2t_vr * inv_r2 + d1r_vr * inv_r
                  - 2.0 * d1t_vt * inv_r2 - vr0 * inv_r2)
        lap_vt = (d2r_vt + d2t_vt * inv_r2 + d1r_vt * inv_r
                  + 2.0 * d1t_vr * inv_r2 - vt0 * inv_r2)
        mom_r = iw * vr0 + d1r_p / L / rho0 - nu0 * lap_vr
        mom_t = iw * vt0 + d1t_p * inv_r / L / rho0 - nu0 * lap_vt
        lap_p = d2r_p + d1r_p * inv_r + d2t_p * inv_r2
        rows.append((abs(cont) * a, abs(mom_r) / omega, abs(mom_t) / omega,
                     abs(lap_p) * a / pnorm))
    return list(zip(*rows))


def residual_report(s: Scenario, pt: PolarPoint, t: float = 0.0,
                    h: float | None = None) -> ResidualReport:
    """All four equation residuals at one point (default step 1e-4 r): a
    one-angle _residual_block, wrapped in its ResidualReport."""
    if h is None:
        h = 1e-4 * pt.r
    columns = _residual_block(s, pt.r, (pt.theta,), t, h)
    return ResidualReport(pt, t, h, (pt.r - h) < s.a, *[v for v, in columns])


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

    An envelope that is infinite or leaves double range raises ValueError.
    """
    ba = s.ba
    eps = sys.float_info.epsilon
    try:
        truncation = 3e-7 * (h_rel / 1e-4) ** 2 / ((ba * ba) * rho ** 4)
        roundoff = 40.0 * eps / ((ba * rho * h_rel) ** 2)
        tol = max(1e-6, truncation, roundoff)
    except (ZeroDivisionError, OverflowError):  # a power under- or overflowed
        tol = math.inf
    if tol == math.inf:
        raise ValueError(f"residual tolerance is out of range at beta a = "
                         f"{ba:g}, r/a = {rho:g}")
    return tol


def _nan_max(values: list[float] | tuple[float, ...]) -> float:
    """max(values), but NaN if any value is NaN (plain max() can drop it)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def boundary_suite(s: Scenario) -> list[Check]:
    """validate_checks' two boundary rows, no slip and far-field recovery,
    each the largest deviation, relative to v0, against its tol.

    * no slip: |v| <= 1e-12 v0 on 64 angles x 4 phases at r = a;
    * far field: |v - v_inf| <= 1e-3 v0 at R = max(1e3 a, 20 delta),
      where delta is the boundary-layer thickness (the max keeps R
      outside both the algebraic 1/r^2 tails and the Bessel skin).

    The fields are sampled at unit amplitude, so s.v0 is not read.  One
    _radial call per radius (rho = 1, then far) and one phase per (radius,
    time) block, on module tables of angles and signs.  When B_r(1) == 0
    and B_theta(1) == 0, each no-slip sample is finite angle x finite phase
    x 0, exactly 0.0, so the ring is not formed (NaN != 0, so a NaN wall is
    sampled and fails); every refusal still runs, in order.
    """
    hypot = math.hypot
    period = 2.0 * math.pi / s.omega
    if not period < math.inf:
        raise ValueError(f"the period 2 pi/omega overflows at f = {s.frequency:g} Hz")
    # flow_state's products in its order, at v0 = 1
    no_slip = []
    br, bth, _ = _radial(s, _check_radius(s, s.a))  # rho exactly 1.0
    zero_wall = br == 0 and bth == 0  # then every sample is exactly 0.0
    for t in (0.0, period / 6.0, period / 4.0, period / 2.0):
        ph = _phase(s, t)
        no_slip.append(0.0 if zero_wall else _nan_max(
            [hypot(abs(c * ph * br), abs(sn * ph * bth)) for c, sn in _WALL_RING]))

    far_radius = max(1e3 * s.a, 20.0 * s.delta)
    if not far_radius < math.inf:
        raise ValueError(f"the far radius max(1e3 a, 20 delta) = {far_radius!r} m overflows "
                         f"at a = {s.a:g} m, delta = {s.delta:g} m")
    far = []
    br, bth, _ = _radial(s, _check_radius(s, far_radius))
    for t in (0.0, period / 5.0):
        ph = _phase(s, t)
        ph_inf = complex(math.cos(s.omega * t), -math.sin(s.omega * t))
        far += [hypot(abs(c * ph * br - c * ph_inf), abs(sn * ph * bth - nsn * ph_inf))
                for c, sn, nsn in _FAR_RING]
    maxima = [_nan_max(no_slip), _nan_max(far)]
    return [Check(f"boundary {q} max", m, tol, m <= tol)
            for m, (q, tol) in zip(maxima, _BOUNDARY_CHECKS)]


def validate_checks(s: Scenario, t: float = 0.0,
                    h_rel: float = 1e-4) -> list[Check]:
    """The eight rows `oscylinder validate` prints, in order: each equation's
    largest residual (step h_rel r) on 5 radii in [1.1a, 100a] x 5 angles,
    one _residual_block per radius, whose columns are read directly,
    passing only if each meets the residual_tolerance of its own radius; the
    boundary_suite rows; the quadrature-vs-analytic and |Fy/Fx| ratios of
    one forces._force_row at 512 nodes, with analytic = F_b + F_v, which
    refuses by name a (beta a)^2 that overflows.

    Every row is relative to v0 and the fields are linear in it, so the
    checks run on the unit-amplitude scenario: the verdict and the printed
    values do not depend on v0, which can be 0, subnormal or near overflow."""
    if not 0.0 < h_rel < 0.1:
        raise ValueError(f"h_rel must lie in (0, 0.1), got {h_rel!r}")
    if s.v0 != 1.0:
        s = s._replace(v0=1.0)
    s._coefficients  # an unusable beta a fails here, naming it, before any tol
    # per residual column, one (block max, tol) pair per radius; (0, 1) is
    # what prints when every residual is 0
    found = [[(0.0, 1.0)] for _ in _QUANTITIES]
    for rho in (1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)):
        tol = residual_tolerance(s, rho, h_rel)
        columns = _residual_block(s, rho * s.a, (0.35, 1.05, 1.85, 2.65, 3.45), t,
                                  h_rel * rho * s.a)
        for pairs, column in zip(found, columns):
            pairs.append((_nan_max(column), tol))
    checks = []
    for q, pairs in zip(_QUANTITIES, found):
        value = _nan_max([v for v, _ in pairs])
        tol = next(tl for v, tl in pairs if v == value or v != v)  # first NaN/max
        checks.append(Check(f"residual {q} max", value, tol,
                            all(v <= tl for v, tl in pairs)))

    checks += boundary_suite(s)

    fb, fv, fx, fy = _force_row(s, t, 512)
    fa = fb + fv
    # != 0 rather than abs() > 0, so that NaN reaches the <= checks below
    rel = abs(fx - fa) / abs(fa) if fa != 0 else 0.0
    transverse = abs(fy) / abs(fx) if fx != 0 else 0.0
    for name, value, tol in (("force quadrature_vs_analytic rel", rel, 1e-9),
                             ("force transverse rel", transverse, 1e-12)):
        checks.append(Check(name, value, tol, value <= tol))
    return checks
