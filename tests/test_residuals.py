"""Tests for the finite-difference equation residuals and boundary checks.

The truncation-level reference values were computed with an independent
50-digit implementation (scripts/reference_values.py) differencing its
own fields with the same stencils; at 50 digits those residuals are pure
truncation error.  Quantities whose double-precision evaluation is
dominated by that truncation (the first-difference continuity residual,
and the azimuthal momentum residual far out) must land within a few
percent of the reference; the rest carry visible roundoff and are held
to the documented tolerance envelope instead.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscylinder.flow
import oscylinder.forces
import oscylinder.residuals
from oscylinder import (
    AIR_20C,
    BoundaryReport,
    Perturbation,
    PolarPoint,
    ResidualReport,
    Scenario,
    boundary_suite,
    continuity_pair,
    convergence_order,
    flow_state,
    pressure,
    residual_report,
    residual_tolerance,
    validate_checks,
    velocity,
)
from oscylinder.residuals import (FAR_FIELD_TOL, NO_SLIP_TOL, PRESSURE_FORM_TOL,
                                  SYMMETRY_TOL, nan_rank)


def scenario(a, f, v0=1.0, perturbation=None):
    return Scenario.from_frequency(AIR_20C, a, v0, f, perturbation=perturbation)


S1 = scenario(1e-6, 10.0)
S2 = scenario(1e-6, 100.0)
S3 = scenario(1e-4, 1000.0)

# truncation levels at (a = 1e-4 m, f = 1000 Hz), theta = 0.7, t = 0,
# h = 1e-4 r, central stencils
ORACLE_TRUNCATION = {
    1.1: {"continuity": 2.6042403578875376e-8},
    3.1623: {"continuity": 2.9826250564674340e-9},
    100.0: {"continuity": 1.2801755915097790e-11,
            "momentum_theta": 1.0738793677732088e-9},
}


# ----------------------------------------------------------------------
# residual magnitudes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rho", [1.1, 3.1623, 100.0])
def test_truncation_matches_reference(rho):
    rep = residual_report(S3, PolarPoint(rho * S3.a, 0.7))
    assert not rep.one_sided
    for quantity, want in ORACLE_TRUNCATION[rho].items():
        got = getattr(rep, quantity)
        assert abs(got - want) < 0.05 * want


def test_residual_grid_below_tolerance():
    # 5 log-spaced radii x 5 angles at the stiffest of the three
    # standing scenarios
    rhos = [1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)]
    thetas = (0.35, 1.05, 1.85, 2.65, 3.45)
    for rho in rhos:
        tol = residual_tolerance(S3, rho)
        for theta in thetas:
            rep = residual_report(S3, PolarPoint(rho * S3.a, theta))
            assert rep.continuity <= tol
            assert rep.momentum_r <= tol
            assert rep.momentum_theta <= tol
            assert rep.pressure_laplacian <= tol


@pytest.mark.parametrize("s", [S1, S2])
def test_residuals_other_scenarios(s):
    # thick-layer scenarios have larger relative tails; the envelope
    # captures the (beta a)^-2 growth
    for rho in (1.5, 10.0):
        tol = residual_tolerance(s, rho)
        rep = residual_report(s, PolarPoint(rho * s.a, 0.9), t=1e-3)
        assert rep.continuity <= tol
        assert rep.momentum_r <= tol
        assert rep.momentum_theta <= tol
        assert rep.pressure_laplacian <= tol


def test_one_sided_stencil_near_wall():
    # r - h would cross the surface, so the stencil must switch to the
    # one-sided form and still meet the envelope at the default step
    pt = PolarPoint(1.00005 * S3.a, 0.8)
    rep = residual_report(S3, pt)
    assert rep.one_sided
    tol = residual_tolerance(S3, 1.00005)
    assert rep.continuity <= tol
    assert rep.momentum_r <= tol
    assert rep.momentum_theta <= tol
    assert rep.pressure_laplacian <= tol


def test_central_stencil_flag():
    rep = residual_report(S3, PolarPoint(1.1 * S3.a, 0.8))
    assert not rep.one_sided


# ----------------------------------------------------------------------
# convergence order
# ----------------------------------------------------------------------

@pytest.mark.parametrize("quantity", ["continuity", "momentum_r",
                                      "momentum_theta", "pressure_laplacian"])
def test_convergence_order_is_second(quantity):
    pt = PolarPoint(1.1 * S3.a, 0.7)
    order = convergence_order(S3, pt, h=2e-3 * pt.r, quantity=quantity)
    assert 1.8 <= order <= 2.2


def test_convergence_order_rejects_unknown_quantity():
    with pytest.raises(ValueError):
        convergence_order(S3, PolarPoint(2.0 * S3.a, 0.7), quantity="vorticity")


def test_convergence_order_undefined_for_null_field():
    s0 = scenario(1e-4, 1000.0, v0=0.0)
    with pytest.raises(ArithmeticError):
        convergence_order(s0, PolarPoint(2.0 * s0.a, 0.7))


# ----------------------------------------------------------------------
# continuity regrouping identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rho", [1.0, 1.00005, 1.1, 2.0, 20.0])
def test_continuity_pair_agrees(rho):
    expanded, regrouped = continuity_pair(S3, PolarPoint(rho * S3.a, 1.1))
    assert abs(expanded - regrouped) <= 1e-12


# ----------------------------------------------------------------------
# tolerance envelope
# ----------------------------------------------------------------------

def test_tolerance_floor_at_reference_scenario():
    # at the (a = 1e-4, f = 1000) scenario and default step the envelope
    # sits on its 1e-6 floor across the whole test annulus
    for rho in (1.1, 3.0, 100.0):
        assert residual_tolerance(S3, rho) == 1e-6


@pytest.mark.parametrize("a, f", [(1e-6, 10.0), (1e-9, 1e-3), (1e-150, 1.0)])
@pytest.mark.parametrize("rho, h_rel", [(1.1, 1e-4), (100.0, 1e-4), (3.0, 1e-7)])
def test_finite_tolerance_is_the_envelope(a, f, rho, h_rel):
    # the max of the floor, the truncation and the roundoff terms, bit for bit
    s = Scenario.from_frequency(AIR_20C, a, 1.0, f)
    ba = s.ba
    want = max(1e-6, 3e-7 * (h_rel / 1e-4) ** 2 / ((ba * ba) * rho ** 4),
               40.0 * 2.0 ** -52 / ((ba * rho * h_rel) ** 2))
    assert math.isfinite(want)
    assert residual_tolerance(s, rho, h_rel) == want


@pytest.mark.parametrize("a", [1e-200, 1e-250, 1e-300])
def test_tolerance_refuses_underflowing_beta_a(a):
    # (beta a)^2 underflows to 0; the envelope would divide by it
    s = Scenario.from_frequency(AIR_20C, a, 1.0, 1000.0)
    with pytest.raises(ValueError, match="beta a"):
        residual_tolerance(s, 1.1)


def test_tolerance_grows_for_thick_layers():
    # ba ~ 2e-3 amplifies the algebraic-tail truncation by ba^-2
    assert residual_tolerance(S1, 1.1) > 1e-6
    assert residual_tolerance(S1, 1.1) > residual_tolerance(S1, 3.0)


def test_tolerance_tracks_step_size():
    # in the truncation-dominated regime doubling the step quadruples
    # the allowance; at (S1, rho=30, h_rel=1e-3) truncation exceeds both
    # the 1e-6 floor and the roundoff term at both steps
    base = residual_tolerance(S1, 30.0, h_rel=1e-3)
    assert base > 1e-6
    assert residual_tolerance(S1, 30.0, h_rel=2e-3) == pytest.approx(4.0 * base)


# ----------------------------------------------------------------------
# report structure and argument validation
# ----------------------------------------------------------------------

def test_report_fields():
    pt = PolarPoint(3.0 * S2.a, 0.4)
    rep = residual_report(S2, pt, t=1e-3, h=2e-9)
    assert rep.location == pt
    assert rep.t == 1e-3
    assert rep.h == 2e-9
    assert isinstance(rep, ResidualReport)
    with pytest.raises(Exception):
        rep.continuity = 0.0  # frozen


@pytest.mark.parametrize("h", [0.0, -1e-9, float("inf"), float("nan")])
def test_bad_step_rejected(h):
    with pytest.raises(ValueError):
        residual_report(S2, PolarPoint(3.0 * S2.a, 0.4), h=h)


@pytest.mark.parametrize("theta, h_rel", [(0.4, 1e-20), (1e6, 1e-12)])
def test_collapsed_stencil_rejected(theta, h_rel):
    # a step below half an ulp of r (or h/r below half an ulp of theta)
    # rounds the stencil points back onto the centre point
    r = 3.0 * S2.a
    with pytest.raises(ValueError, match="step h"):
        residual_report(S2, PolarPoint(r, theta), h=h_rel * r)


def test_inside_cylinder_rejected():
    with pytest.raises(ValueError):
        residual_report(S2, PolarPoint(0.5 * S2.a, 0.0))


def test_null_field_residuals_vanish():
    s0 = scenario(1e-4, 1000.0, v0=0.0)
    rep = residual_report(s0, PolarPoint(2.0 * s0.a, 0.7))
    assert rep.continuity == 0.0
    assert rep.momentum_r == 0.0
    assert rep.momentum_theta == 0.0
    assert rep.pressure_laplacian == 0.0


# ----------------------------------------------------------------------
# boundary suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("s", [S1, S2, S3])
def test_boundary_suite_passes(s):
    rep = boundary_suite(s)
    assert isinstance(rep, BoundaryReport)
    assert rep.no_slip_ok
    assert rep.far_field_ok
    assert rep.pressure_form_ok
    assert rep.symmetry_ok
    assert rep.passed


def test_far_radius_rule():
    # 20 boundary-layer thicknesses when the layer is thick, 1000 a when
    # the algebraic tail is the slower decay
    assert boundary_suite(S1).far_radius == 20.0 * S1.delta
    assert boundary_suite(S3).far_radius == 1e3 * S3.a
    assert 20.0 * S1.delta > 1e3 * S1.a
    assert 1e3 * S3.a > 20.0 * S3.delta


def test_null_field_boundary_suite():
    rep = boundary_suite(scenario(1e-6, 100.0, v0=0.0))
    assert rep.passed


@pytest.mark.parametrize("name", ["B", "C", "f_a"])
def test_no_slip_detects_coefficient_mutation(name):
    mutated = scenario(1e-4, 1000.0, perturbation=Perturbation(name, 1.001))
    rep = boundary_suite(mutated)
    assert not rep.no_slip_ok
    assert rep.no_slip_max > 1e-4


def test_boundary_suite_fails_on_nan(monkeypatch):
    # a NaN field must fail the check and show in the reported maximum,
    # not vanish in the reduction
    monkeypatch.setattr(oscylinder.flow, "_radial",
                        lambda s, rho: (complex("nan"),) * 5)
    rep = boundary_suite(S3)
    assert not rep.passed
    assert not rep.no_slip_ok and math.isnan(rep.no_slip_max)
    assert not rep.far_field_ok and math.isnan(rep.far_field_max)


def test_momentum_detects_beta_mutation():
    # a perturbed wavenumber leaves the boundary conditions intact but
    # unbalances the momentum equation against the true viscosity
    mutated = scenario(1e-4, 1000.0, perturbation=Perturbation("beta", 1.001))
    assert boundary_suite(mutated).no_slip_ok
    rep = residual_report(mutated, PolarPoint(1.5 * mutated.a, 0.7))
    tol = residual_tolerance(mutated, 1.5)
    assert max(rep.momentum_r, rep.momentum_theta) > 100.0 * tol


# ----------------------------------------------------------------------
# the checks against a public-API reference
# ----------------------------------------------------------------------
#
# residual_report and boundary_suite sample flow._fields directly, one
# phase per stencil or boundary block.  The references below sample every
# point through velocity(), pressure() and flow_state() alone, with the
# same arithmetic, so the checks still treat the fields as a black box.

#: S1 and S3, clean and under each 0.1% coefficient perturbation
REFERENCE_SCENARIOS = [scenario(a, f, perturbation=pert)
                       for a, f in ((1e-6, 10.0), (1e-4, 1000.0))
                       for pert in [None] + [Perturbation(n, 1.001)
                                             for n in ("B", "C", "f_a", "beta")]]
REFERENCE_IDS = [f"{name}-{pert}" for name in ("S1", "S3")
                 for pert in ("clean", "B", "C", "f_a", "beta")]


def reference_residual_report(s, pt, t, h):
    r, theta = pt.r, pt.theta
    ht = h / r
    one_sided = (r - h) < s.a
    center, west, east = (flow_state(s, PolarPoint(r, th), t)
                          for th in (theta, theta - ht, theta + ht))
    radii = (r + h, r + 2.0 * h, r + 3.0 * h) if one_sided else (r - h, r + h)
    off = [flow_state(s, PolarPoint(rr, theta), t) for rr in radii]
    radial = (center, *off) if one_sided else (off[0], center, off[1])

    def d1r(attr):
        f = [getattr(x, attr) for x in radial]
        if one_sided:
            return (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        return (f[2] - f[0]) / (2.0 * h)

    def d2r(attr):
        f = [getattr(x, attr) for x in radial]
        if one_sided:
            return (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
        return (f[2] - 2.0 * f[1] + f[0]) / (h * h)

    def d1t(attr):
        return (getattr(east, attr) - getattr(west, attr)) / (2.0 * ht)

    def d2t(attr):
        return ((getattr(east, attr) - 2.0 * getattr(center, attr)
                 + getattr(west, attr)) / (ht * ht))

    inv_r = 1.0 / r
    inv_r2 = inv_r * inv_r
    nu0, rho0, omega = s.fluid.nu0, s.fluid.rho0, s.omega
    vnorm = s.v0 if s.v0 > 0 else 1.0
    vr0, vt0 = center.vr, center.vtheta
    d1r_vr, d1r_vt, d1r_p = d1r("vr"), d1r("vtheta"), d1r("p")
    d1t_vr, d1t_vt, d1t_p = d1t("vr"), d1t("vtheta"), d1t("p")
    cont = d1r_vr + vr0 * inv_r + d1t_vt * inv_r
    lap_vr = (d2r("vr") + d2t("vr") * inv_r2 + d1r_vr * inv_r
              - 2.0 * d1t_vt * inv_r2 - vr0 * inv_r2)
    lap_vt = (d2r("vtheta") + d2t("vtheta") * inv_r2 + d1r_vt * inv_r
              + 2.0 * d1t_vr * inv_r2 - vt0 * inv_r2)
    mom_r = -1j * omega * vr0 + d1r_p / rho0 - nu0 * lap_vr
    mom_t = -1j * omega * vt0 + d1t_p * inv_r / rho0 - nu0 * lap_vt
    lap_p = d2r("p") + d1r_p * inv_r + d2t("p") * inv_r2
    return ResidualReport(
        location=pt, t=t, h=h, one_sided=one_sided,
        continuity=abs(cont) * s.a / vnorm,
        momentum_r=abs(mom_r) / (vnorm * omega),
        momentum_theta=abs(mom_t) / (vnorm * omega),
        pressure_laplacian=abs(lap_p) * s.a / (rho0 * omega * vnorm))


def reference_boundary_suite(s):
    vnorm = s.v0 if s.v0 > 0 else 1.0
    period = 2.0 * math.pi / s.omega
    no_slip = []
    for t in (0.0, period / 6.0, period / 4.0, period / 2.0):
        for k in range(64):
            vr, vt = velocity(s, PolarPoint(s.a, 2.0 * math.pi * k / 64.0), t)
            no_slip.append(math.hypot(abs(vr), abs(vt)) / vnorm)
    far_radius = max(1e3 * s.a, 20.0 * s.delta)
    far = []
    for t in (0.0, period / 5.0):
        ph = complex(math.cos(s.omega * t), -math.sin(s.omega * t))
        for k in range(32):
            theta = 2.0 * math.pi * k / 32.0
            vr, vt = velocity(s, PolarPoint(far_radius, theta), t)
            vinf_r = s.v0 * math.cos(theta) * ph
            vinf_t = -s.v0 * math.sin(theta) * ph
            far.append(math.hypot(abs(vr - vinf_r), abs(vt - vinf_t)) / vnorm)
    form, sym = [], []
    for rr in (1.5 * s.a, 3.0 * s.a):
        for t in (0.0, period / 5.0):
            p0 = pressure(s, PolarPoint(rr, 0.0), t)
            pnorm = abs(p0) if abs(p0) > 0.0 else 1.0
            for theta in (0.3, 0.8, 1.2, 2.1, 2.8, 3.6, 4.2, 5.1):
                p = pressure(s, PolarPoint(rr, theta), t)
                form.append(abs(p / math.cos(theta) - p0) / pnorm)
                p_neg = pressure(s, PolarPoint(rr, -theta), t)
                p_sup = pressure(s, PolarPoint(rr, math.pi - theta), t)
                sym += [abs(p_neg - p) / pnorm, abs(p_sup + p) / pnorm]
    no_slip, far, form, sym = (max(v, key=nan_rank) for v in (no_slip, far, form, sym))
    return BoundaryReport(
        no_slip_max=no_slip, far_field_max=far, pressure_form_max=form,
        symmetry_max=sym, far_radius=far_radius,
        no_slip_ok=no_slip <= NO_SLIP_TOL, far_field_ok=far <= FAR_FIELD_TOL,
        pressure_form_ok=form <= PRESSURE_FORM_TOL, symmetry_ok=sym <= SYMMETRY_TOL)


@pytest.mark.parametrize("s", REFERENCE_SCENARIOS, ids=REFERENCE_IDS)
def test_boundary_suite_matches_public_reference(s):
    assert boundary_suite(s) == reference_boundary_suite(s)


@pytest.mark.parametrize("s", REFERENCE_SCENARIOS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("rho, theta, t", [
    (1.5, 0.7, 0.0),         # central stencil
    (3.0, 2.9, 3.1e-4),      # central stencil, later time
    (1.00005, 0.35, 0.0),    # r - h < a: one-sided stencil
    (1.0, 4.0, 1.7e-3),      # on the wall: one-sided stencil
])
def test_residual_report_matches_public_reference(s, rho, theta, t):
    pt = PolarPoint(rho * s.a, theta)
    h = 1e-4 * pt.r
    got = residual_report(s, pt, t, h)
    want = reference_residual_report(s, pt, t, h)
    assert got.one_sided == (rho < 1.0001)
    assert got == want
    assert residual_report(s, pt, t) == want  # default step 1e-4 r


def reference_continuity_pair(s, pt, t, h):
    r, theta = pt.r, pt.theta
    ht = h / r
    vr0 = flow_state(s, pt, t).vr
    vt_w, vt_e = (flow_state(s, PolarPoint(r, th), t).vtheta
                  for th in (theta - ht, theta + ht))
    one_sided = (r - h) < s.a
    vr1, vr2 = (flow_state(s, PolarPoint(rr, theta), t).vr
                for rr in ((r + h, r + 2.0 * h) if one_sided else (r - h, r + h)))
    if one_sided:
        d1r_vr = (-3.0 * vr0 + 4.0 * vr1 - vr2) / (2.0 * h)
    else:
        d1r_vr = (vr2 - vr1) / (2.0 * h)
    d1t_vt = (vt_e - vt_w) / (2.0 * ht)
    vnorm = s.v0 if s.v0 > 0 else 1.0
    return (abs(d1r_vr + vr0 / r + d1t_vt / r) * s.a / vnorm,
            abs(vr0 + r * d1r_vr + d1t_vt) * s.a / (r * vnorm))


@pytest.mark.parametrize("s", REFERENCE_SCENARIOS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("rho, theta, t", [
    (1.0, 4.0, 1.7e-3),      # on the wall: one-sided stencil
    (1.00005, 0.35, 0.0),    # r - h < a: one-sided stencil
    (1.5, 0.7, 3.1e-4),      # central stencil
])
def test_continuity_pair_matches_public_reference(s, rho, theta, t):
    pt = PolarPoint(rho * s.a, theta)
    want = reference_continuity_pair(s, pt, t, 1e-4 * pt.r)
    assert continuity_pair(s, pt, t, 1e-4 * pt.r) == want
    assert continuity_pair(s, pt, t) == want  # default step 1e-4 r


@given(st.floats(min_value=-9.0, max_value=4.0),
       st.sampled_from([None] + [Perturbation(n, 1.001)
                                 for n in ("B", "C", "f_a", "beta")]),
       st.one_of(st.sampled_from([1.0, 1.00005]),
                 st.floats(min_value=1.0, max_value=100.0)),
       st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_residual_report_matches_reference_over_beta_a(log_ba, pert, rho, theta,
                                                       phase):
    # residual_report and the validate grid share one kernel, so the
    # flow_state reference is what pins them: bit for bit for beta a in
    # [1e-9, 1e4], clean and perturbed, one-sided (rho = 1, 1.00005) and
    # central stencils, any angle and time in a period
    f = 1000.0
    a = 10.0 ** log_ba / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0)
    s = scenario(a, f, perturbation=pert)
    pt = PolarPoint(rho * a, theta)
    t = phase / f
    h = 1e-4 * pt.r
    got = residual_report(s, pt, t, h)
    assert got.one_sided or rho not in (1.0, 1.00005)
    assert repr(got) == repr(reference_residual_report(s, pt, t, h))


def test_checks_sample_once_per_block(monkeypatch):
    # boundary_suite takes one phase per (radius, time) block, 10 in all,
    # and a stencil one; neither samples a point through the public API
    phases = []
    phase = oscylinder.flow._phase

    def counted(s, t):
        phases.append(t)
        return phase(s, t)

    def refused(*args):
        raise AssertionError("a check sampled a point through the public API")

    for module in (oscylinder.flow, oscylinder.residuals):
        monkeypatch.setattr(module, "_phase", counted, raising=False)
        for name in ("flow_state", "velocity", "pressure"):
            monkeypatch.setattr(module, name, refused, raising=False)
    assert boundary_suite(S3).passed
    assert 0 < len(phases) <= 10
    phases.clear()
    residual_report(S3, PolarPoint(1.5 * S3.a, 0.7))
    residual_report(S3, PolarPoint(S3.a, 0.7))
    assert len(phases) == 2


# ----------------------------------------------------------------------
# validate_checks
# ----------------------------------------------------------------------

def test_validate_checks_nan_fails_every_row(monkeypatch):
    # NaN fields reach all ten rows: residual and boundary maxima keep the
    # NaN, and the force ratios' != 0 guards let it through to <=
    for module in (oscylinder.flow, oscylinder.forces):
        monkeypatch.setattr(module, "_radial",
                            lambda s, rho: (complex("nan"),) * 5)
    checks = validate_checks(S3)
    assert len(checks) == 10
    assert [c.ok for c in checks] == [False] * 10


def test_validate_checks_nan_row_reports_tol_of_first_nan(monkeypatch):
    # NaN only beyond rho = 10: each residual row prints NaN with the tol of
    # the first radius that produced it, not of the last or the largest value
    s = Scenario.from_frequency(AIR_20C, 1e-6, 1.0, 10.0)  # tol varies by rho
    fields = oscylinder.residuals._fields
    monkeypatch.setattr(
        oscylinder.residuals, "_fields",
        lambda s, rho, angles, ph: ([(complex("nan"),) * 3] * len(angles)
                                    if rho > 10.0 else fields(s, rho, angles, ph)))
    rhos = [1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)]
    tols = [residual_tolerance(s, rho) for rho in rhos]
    assert len(set(tols[2:])) == 3
    for row in validate_checks(s)[:4]:
        assert math.isnan(row.value) and not row.ok
        assert row.tol == tols[2]


@pytest.mark.parametrize("h_rel", [0.0, 0.1, math.nan, 0.5])
def test_validate_checks_rejects_step_outside_range(h_rel):
    with pytest.raises(ValueError, match="h_rel"):
        validate_checks(S3, h_rel=h_rel)


@pytest.mark.parametrize("ba", [1e-8, 1e-3, 1.0, 30.0, 1e3, 1e4])
def test_every_mutation_fails_a_validate_row(ba):
    # the clean scenario passes every row, and each 0.1% coefficient
    # mutation fails at least one, across the supported beta a range
    f = 1000.0
    a = ba / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0)
    assert all(c.ok for c in validate_checks(scenario(a, f)))
    for name in ("B", "C", "f_a", "beta"):
        mutated = scenario(a, f, perturbation=Perturbation(name, 1.001))
        assert not all(c.ok for c in validate_checks(mutated)), name


def test_validate_residual_row_fails_on_any_radius(monkeypatch):
    # the printed (max, tol) pair can pass while a smaller residual fails
    # the tighter tolerance of its own radius: the row must still fail
    def reports(s, pts, t, h):
        inner = pts[0].r < 2.0 * s.a
        return [ResidualReport(pt, t, h, False, *(4 * [1.0 if inner else 1e-3]))
                for pt in pts]

    monkeypatch.setattr(oscylinder.residuals, "_reports", reports)
    monkeypatch.setattr(oscylinder.residuals, "residual_tolerance",
                        lambda s, rho, h_rel: 2.0 if rho < 2.0 else 1e-6)
    for c in validate_checks(S3)[:4]:
        assert (c.value, c.tol, c.ok) == (1.0, 2.0, False)


@pytest.mark.parametrize("h_rel", [1e-4, 0.095])
@pytest.mark.parametrize("s, t", [(S1, 0.0), (S3, 3.1e-4),
                                  (scenario(1e-4, 1000.0, perturbation=
                                            Perturbation("beta", 1.001)), 0.0)])
def test_validate_grid_reports_match_residual_report(monkeypatch, s, t, h_rel):
    # the grid samples a radius at a time; each of its 25 reports equals
    # residual_report at that point and step.  At h_rel = 0.095 the
    # innermost radius rho = 1.1 takes the one-sided stencil.
    grid = []
    reports = oscylinder.residuals._reports

    def recording(*args):
        got = reports(*args)
        grid.extend(got)
        return got

    monkeypatch.setattr(oscylinder.residuals, "_reports", recording)
    validate_checks(s, t, h_rel)
    monkeypatch.undo()
    assert len(grid) == 25
    assert sum(rep.one_sided for rep in grid) == (5 if h_rel == 0.095 else 0)
    for rep in grid:
        assert rep == residual_report(s, rep.location, t, rep.h)


@pytest.mark.parametrize("h_rel", [1e-4, 0.095])
def test_checks_sample_by_block(monkeypatch, h_rel):
    # boundary_suite makes one kernel call per (radius, time) block, and the
    # residual grid one at each radius plus one per off-radius stencil point
    calls = []
    fields = oscylinder.residuals._fields

    def counted(*args):
        calls.append(args[1])
        return fields(*args)

    monkeypatch.setattr(oscylinder.residuals, "_fields", counted)
    boundary_suite(S3)
    assert len(calls) <= 10
    per_radius = []
    reports = oscylinder.residuals._reports

    def recording(*args):
        before = len(calls)
        got = reports(*args)
        per_radius.append(len(calls) - before)
        return got

    monkeypatch.setattr(oscylinder.residuals, "_reports", recording)
    validate_checks(S3, h_rel=h_rel)
    assert len(per_radius) == 5
    assert all(n <= 4 for n in per_radius)
