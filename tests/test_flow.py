"""Tests for the closed-form flow fields.

Frozen expected values were computed with an mpmath oracle at 50
significant digits (scripts/reference_values.py) for three scenarios in
air at 20 C with v0 = 1 m/s:

    S1: a = 1e-6 m, f = 10 Hz     (beta a ~ 2.0e-3, pole-subtracted branch)
    S2: a = 1e-6 m, f = 100 Hz    (beta a ~ 6.4e-3, pole-subtracted branch)
    S3: a = 1e-4 m, f = 1000 Hz   (beta a ~ 2.0,    direct scaled branch)
"""

import cmath
import importlib.util
import math
import pathlib
import random
import re
import sys
import threading

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscylinder import (AIR_20C, J_MINUS, J_PLUS, BesselDomainError, Fluid,
                        Perturbation, PolarPoint, RecoveryNotFoundError, Scenario,
                        bessel_k0, bessel_k1, coefficient_B, coefficient_C,
                        f_of_r, flow_state, force_analytic, pressure,
                        recovery_radius, reynolds_number, validity_report,
                        velocity)
import oscylinder.cli
import oscylinder.flow
from oscylinder.cli import main
from oscylinder.bessel import _TEMME_RADIUS, bessel_k_pair
from oscylinder.flow import _check_radius, _phase, _radial, _slopes


def scenario(a, f, pert=None):
    return Scenario.from_frequency(AIR_20C, a, 1.0, f, perturbation=pert)


S1 = scenario(1e-6, 10.0)
S2 = scenario(1e-6, 100.0)
S3 = scenario(1e-4, 1000.0)

EXPECTED = {
    "S1": dict(s=S1, ba=0.0020391900435887123,
               C=complex(-5.6772672192718264e-6, 7.0650276524715860e-7),
               B=complex(0.0092049256752232054, 0.0071674605028229278),
               fa=complex(19.042269516892889, 153.03497007228213)),
    "S2": dict(s=S2, ba=0.0064484851196783687,
               C=complex(-6.8918981039108663e-6, 1.0488802640370370e-6),
               B=complex(0.036208380564175051, 0.026642426785513452),
               fa=complex(8.9343696383951745, 58.747608841163293)),
    "S3": dict(s=S3, ba=2.0391900435887123,
               C=complex(-6.9277529827877973e-5, 0.00012902332214714369),
               B=complex(1.9600786549922940, -3.1671652403914584),
               fa=complex(1.4387297866402901, 1.8674274601523424)),
}


def rel(x, ref):
    return abs(x - ref) / abs(ref)


def _w_small(ba, k0_za, rho):
    """W(rho): G(rho) = f(a rho)/(beta a) with its K1 pole q/rho split off."""
    z = J_MINUS * (ba * rho)
    return 2.0 * J_PLUS * bessel_k_pair(z)[1] / (ba * k0_za)


def _g_direct(ba, k0s_za, rho):
    """G(rho) from scaled Bessel values, k0s_za = e^za K0(za)."""
    z = J_MINUS * (ba * rho)
    decay = cmath.exp(-J_MINUS * (ba * (rho - 1.0)))
    return 2.0 * J_PLUS * bessel_k1(z, scaled=True) * decay / (ba * k0s_za)


def _reference_module():
    """scripts/reference_values.py, loaded by path as bench/checks.py loads
    it, without writing bytecode."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("reference_values", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# ----------------------------------------------------------------------
# frozen-value checks
# ----------------------------------------------------------------------

def test_reference_case_matches_package():
    # the benchmark's correctness gate compares every workload with this
    # 50-digit Case; here the Case is compared with the package once, at
    # one radius on the Temme branch (|z| = 0.27) and one on the trapezoidal
    # rule's (|z| = 7.3)
    a, f, t = 2e-5, 200.0, 3.1e-4
    s = scenario(a, f)
    with mpmath.workdps(50):  # the module sets mp.dps = 50 on import
        case = _reference_module().Case("test", a, f)
        for r, theta in ((1.5 * a, 0.3), (40.0 * a, 2.0)):
            got = flow_state(s, PolarPoint(r, theta), t)
            for name, value in (("vr", got.vr), ("vtheta", got.vtheta),
                                ("pressure", got.p)):
                assert rel(value, complex(getattr(case, name)(r, theta, t))) <= 1e-12, name
        assert rel(force_analytic(s, t).fx, complex(case.force_analytic(t))) <= 1e-12


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_frequency_parameter(name):
    case = EXPECTED[name]
    assert rel(case["s"].ba, case["ba"]) < 1e-14


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_coefficient_C(name):
    case = EXPECTED[name]
    assert rel(coefficient_C(case["s"]), case["C"]) < 1e-13


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_coefficient_B(name):
    case = EXPECTED[name]
    assert rel(coefficient_B(case["s"]), case["B"]) < 1e-13


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_f_at_surface(name):
    case = EXPECTED[name]
    assert rel(f_of_r(case["s"], case["s"].a), case["fa"]) < 1e-13


def test_velocity_samples():
    vr = velocity(S1, PolarPoint(5e-6, 0.0), 0.0)[0]
    assert rel(vr, complex(0.17623023588678838, -0.021919936617313416)) < 5e-13
    vt = velocity(S1, PolarPoint(5e-6, math.pi / 2), 0.0)[1]
    assert rel(vt, complex(-0.32602212827417504, 0.040538417696708978)) < 5e-13


def test_pressure_sample():
    p = pressure(S1, PolarPoint(2e-6, 0.0), 0.0)
    assert rel(p, complex(-2.8386336096359132, 0.35340268172577619)) < 5e-13


def test_recovery_radius_values():
    assert rel(recovery_radius(S1, 0.9), 0.00056375274256251538) < 5e-6
    assert rel(recovery_radius(S2, 0.9), 0.00020911814882357216) < 5e-6
    s1k = scenario(1e-6, 1000.0)
    assert rel(recovery_radius(s1k, 0.9), 7.9113301885485264e-5) < 5e-6


def test_azimuthal_overshoot_exists():
    # |v_theta| exceeds the far-field amplitude in an annulus (peak
    # ~1.047 v0 near r ~ 940 a for S1)
    peak = abs(velocity(S1, PolarPoint(940.0 * S1.a, math.pi / 2), 0.0)[1])
    assert peak > 1.04


# ----------------------------------------------------------------------
# structure: no slip, separability, symmetry
# ----------------------------------------------------------------------

@pytest.mark.parametrize("s", [S1, S2, S3], ids=["S1", "S2", "S3"])
def test_no_slip_is_exact(s):
    for k in range(32):
        theta = 2.0 * math.pi * k / 32.0
        for t in (0.0, 0.0123, 1.0 / 7.0):
            vr, vt = velocity(s, PolarPoint(s.a, theta), t)
            assert vr == 0j
            assert vt == 0j


def test_bracket_zero_bitwise():
    # B_r(1), B_theta(1) and B_r'(1) are exactly zero at S1-S3 and at 2,000
    # seeded clean scenarios, beta a from 1e-9 to 1e4 (a K0 ratio formed as
    # K0(za)/K0(za) leaves ~1e-17 in about 9% of them)
    rng = random.Random(34)
    draws = [(10.0 ** rng.uniform(-9.0, 4.0), 10.0 ** rng.uniform(0.0, 5.0))
             for _ in range(2000)]
    for s in [S1, S2, S3] + [scenario(ba / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0), f)
                             for ba, f in draws]:
        assert _radial(s, 1.0)[:2] == (0j, 0j), s
        assert _slopes(s, 1.0)[0] == 0, s


@given(st.floats(min_value=1e-7, max_value=1e-3),
       st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_no_slip_across_parameters(a, f):
    s = scenario(a, f)
    vr, vt = velocity(s, PolarPoint(a, 0.87), 0.001)
    assert math.hypot(abs(vr), abs(vt)) <= 1e-15


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=1.001, max_value=80.0))
@settings(max_examples=80, deadline=None)
def test_linearity_in_v0(lam, rho):
    base = Scenario.from_frequency(AIR_20C, 1e-5, 1.0, 50.0)
    scaled = Scenario.from_frequency(AIR_20C, 1e-5, lam, 50.0)
    pt = PolarPoint(rho * base.a, 0.8)
    vr1, vt1 = velocity(base, pt, 0.002)
    vr2, vt2 = velocity(scaled, pt, 0.002)
    assert abs(vr2 - lam * vr1) <= 1e-14 * lam * abs(vr1)
    assert abs(vt2 - lam * vt1) <= 1e-14 * lam * abs(vt1)
    p1 = pressure(base, pt, 0.002)
    p2 = pressure(scaled, pt, 0.002)
    assert abs(p2 - lam * p1) <= 1e-14 * lam * abs(p1)


def test_angular_separability():
    # v_r/cos(theta), v_theta/sin(theta) and p/cos(theta) do not depend on
    # theta, read through velocity() and pressure(), the public routes
    for s in (S1, S3):
        for rho in (1.5, 3.0):
            r = rho * s.a
            vr0 = velocity(s, PolarPoint(r, 0.0), 0.0)[0]
            vt0 = velocity(s, PolarPoint(r, 0.5 * math.pi), 0.0)[1]
            p0 = pressure(s, PolarPoint(r, 0.0), 0.0)
            for theta in (0.4, 1.0, 2.2, -0.9, 3.0):
                vr, vt = velocity(s, PolarPoint(r, theta), 0.0)
                p = pressure(s, PolarPoint(r, theta), 0.0)
                assert abs(vr / math.cos(theta) - vr0) <= 1e-14 * abs(vr0)
                assert abs(vt / math.sin(theta) - vt0) <= 1e-14 * abs(vt0)
                assert abs(p / math.cos(theta) - p0) <= 1e-14 * abs(p0)


def test_phasor_separability():
    for s in (S1, S3):
        pt = PolarPoint(2.5 * s.a, 0.7)
        base = flow_state(s, pt, 0.0)
        for t in (0.001, 0.02, 0.31):
            ph = cmath.exp(-1j * s.omega * t)
            st_t = flow_state(s, pt, t)
            assert abs(st_t.vr - base.vr * ph) <= 1e-15 * abs(base.vr)
            assert abs(st_t.vtheta - base.vtheta * ph) <= 1e-15 * abs(base.vtheta)
            assert abs(st_t.p - base.p * ph) <= 1e-15 * abs(base.p)


def test_pressure_symmetries():
    for s in (S1, S3):
        for rr in (1.3 * s.a, 4.0 * s.a):
            for theta in (0.3, 1.1, 2.0):
                p = pressure(s, PolarPoint(rr, theta), 0.0)
                p_neg = pressure(s, PolarPoint(rr, -theta), 0.0)
                p_sup = pressure(s, PolarPoint(rr, math.pi - theta), 0.0)
                assert abs(p_neg - p) <= 1e-14 * abs(p)
                assert abs(p_sup + p) <= 1e-14 * abs(p)


# ----------------------------------------------------------------------
# far field and decay
# ----------------------------------------------------------------------

def test_far_field_recovery():
    for s in (S1, S2, S3):
        R = max(1e3 * s.a, 20.0 * s.delta)
        ph = cmath.exp(-1j * s.omega * 0.003)
        vr, vt = velocity(s, PolarPoint(R, 0.6), 0.003)
        vinf_r = s.v0 * math.cos(0.6) * ph
        vinf_t = -s.v0 * math.sin(0.6) * ph
        assert math.hypot(abs(vr - vinf_r), abs(vt - vinf_t)) <= 1e-3 * s.v0


def far_field_velocity(s: Scenario, t: float) -> tuple[complex, complex]:
    """Cartesian velocity phasor (vx, vy) of the undisturbed stream."""
    return s.v0 * _phase(s, t), 0j


def far_field_pressure(s: Scenario, x: float, t: float) -> complex:
    """Pressure phasor of the undisturbed stream at Cartesian station x."""
    return 1j * x * s.fluid.rho0 * s.omega * s.v0 * _phase(s, t)


def test_far_field_helpers():
    vx, vy = far_field_velocity(S1, 0.01)
    assert vy == 0j
    assert rel(vx, cmath.exp(-1j * S1.omega * 0.01)) < 1e-15
    x = 1e5 * S3.a
    p_exact = pressure(S3, PolarPoint(x, 0.0), 0.02)
    assert rel(far_field_pressure(S3, x, 0.02), p_exact) < 1e-9


def test_f_of_r_decays():
    for s in (S1, S3):
        fa = f_of_r(s, s.a)
        far = f_of_r(s, s.a + 60.0 / s.beta)
        assert abs(far) <= 1e-15 * abs(fa)
        # deep in the wake the Bessel tail underflows gracefully
        assert abs(f_of_r(s, 1e9 * s.a)) < math.inf


# ----------------------------------------------------------------------
# consistency between evaluation forms
# ----------------------------------------------------------------------

def radial_velocity_from_constants(s: Scenario, pt: PolarPoint, t: float) -> complex:
    """v_r rebuilt from the constants form
    [v0 + B K1(j- beta r)/(rho0 omega r) + iC/(rho0 omega r^2)] cos(theta) e^{-iwt}.

    Exists as an independent consistency path for tests; production
    evaluation goes through the conditioned brackets of velocity().
    """
    rho = _check_radius(s, pt.r)
    B = coefficient_B(s)
    C = coefficient_C(s)
    r = pt.r
    rho0, omega = s.fluid.rho0, s.omega
    z = J_MINUS * (s._coefficients.ba * rho)
    k1 = bessel_k1(z, scaled=True) * cmath.exp(-z)
    bracket = s.v0 + B * k1 / (rho0 * omega * r) + 1j * C / (rho0 * omega * r * r)
    return bracket * math.cos(pt.theta) * _phase(s, t)


def test_constants_form_matches_brackets_direct_branch():
    # beta a ~ 2: the B/C constants form is well conditioned and must
    # reproduce v_r from the bracket evaluation
    for rho in (1.5, 3.0, 7.0):
        pt = PolarPoint(rho * S3.a, 0.7)
        v_b = velocity(S3, pt, 0.0)[0]
        v_c = radial_velocity_from_constants(S3, pt, 0.0)
        assert rel(v_c, v_b) < 1e-12
    # a B or C perturbation multiplies that coefficient of the constants
    # form v0 + b B K1/(rho0 omega r) + c iC/(rho0 omega r^2), B and C
    # being the unperturbed constants
    B, C = coefficient_B(S3), coefficient_C(S3)
    rho0, omega = S3.fluid.rho0, S3.omega
    for name, b, c in (("B", 1.001, 1.0), ("C", 1.0, 1.001)):
        mutated = scenario(1e-4, 1000.0, Perturbation(name, 1.001))
        for rho in (1.0, 1.5, 3.0, 7.0):
            r = rho * S3.a
            pt = PolarPoint(r, 0.7)
            k1 = bessel_k1(J_MINUS * (S3.beta * r))
            v_c = (S3.v0 + b * B * k1 / (rho0 * omega * r)
                   + c * 1j * C / (rho0 * omega * r * r)) * math.cos(0.7)
            assert rel(velocity(mutated, pt, 0.0)[0], v_c) < 1e-12
            assert rel(radial_velocity_from_constants(mutated, pt, 0.0), v_c) < 1e-12


def test_constants_form_small_ba_sanity():
    # at beta a ~ 2e-3 the constants form loses ~5 digits to
    # cancellation; it must still agree at that reduced accuracy
    pt = PolarPoint(3.0 * S1.a, 0.0)
    v_b = velocity(S1, pt, 0.0)[0]
    v_c = radial_velocity_from_constants(S1, pt, 0.0)
    assert rel(v_c, v_b) < 1e-9


def test_branch_forms_agree_above_switch():
    # ba = 1.3 uses the direct scaled ratio; rebuild the brackets from
    # the pole-subtracted form and compare
    f = (1.3 / 1e-4) ** 2 * AIR_20C.nu0 / (2.0 * math.pi)
    s = Scenario.from_frequency(AIR_20C, 1e-4, 1.0, f)
    assert s.ba == pytest.approx(1.3, rel=1e-12)
    za = J_MINUS * s.ba
    k0_za = bessel_k0(za)
    w1 = _w_small(s.ba, k0_za, 1.0)
    for rho in (1.2, 2.0, 5.0):
        w = _w_small(s.ba, k0_za, rho)
        br_small = (1.0 - 1.0 / rho ** 2) + w / rho - w1 / rho ** 2
        br = _radial(s, rho)[0]
        assert abs(br_small - br) < 1e-12 * max(1.0, abs(br))


def test_branch_forms_agree_below_switch():
    # ba = 0.8 uses the pole-subtracted form; rebuild from the direct
    # scaled ratio and compare
    f = (0.8 / 1e-4) ** 2 * AIR_20C.nu0 / (2.0 * math.pi)
    s = Scenario.from_frequency(AIR_20C, 1e-4, 1.0, f)
    assert s.ba == pytest.approx(0.8, rel=1e-12)
    k0s_za = bessel_k0(J_MINUS * s.ba, scaled=True)
    g1 = _g_direct(s.ba, k0s_za, 1.0)
    for rho in (1.2, 2.0, 5.0):
        g = _g_direct(s.ba, k0s_za, rho)
        br_direct = (1.0 - 1.0 / rho ** 2) + g / rho - g1 / rho ** 2
        br = _radial(s, rho)[0]
        assert abs(br_direct - br) < 1e-12 * max(1.0, abs(br))


def test_coefficient_relations():
    for s in (S1, S2, S3):
        g1 = f_of_r(s, s.a) / s.ba
        want = 1j * s.fluid.rho0 * s.a ** 2 * s.omega * s.v0 * (1.0 + g1)
        assert rel(coefficient_C(s), want) < 1e-14
        # B from its defining relation -(rho0 a^2 omega v0 + iC)/(a K1(za))
        k1_za = bessel_k1(J_MINUS * s.ba)
        b_def = -(s.fluid.rho0 * s.a ** 2 * s.omega * s.v0
                  + 1j * coefficient_C(s)) / (s.a * k1_za)
        assert rel(coefficient_B(s), b_def) < 1e-10


def test_coefficient_B_overflow():
    # B grows like e^{beta a/sqrt 2}; past double range it must raise
    s = scenario(1e-2, 2.5e5)
    assert s.ba > 1100.0
    with pytest.raises(OverflowError):
        coefficient_B(s)
    # at beta a = 1e3, e^{za} is finite but B itself overflows to nan
    f = 1e3
    edge = scenario(1e3 / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0), f)
    assert edge.ba == pytest.approx(1e3, rel=1e-12)
    with pytest.raises(OverflowError):
        coefficient_B(edge)


# ----------------------------------------------------------------------
# per-radius memo in _radial
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a, f", [(1e-6, 10.0), (1e-4, 1000.0)],
                         ids=["S1", "S3"])
def test_radial_memo_returns_fresh_values(a, f):
    # repeated and alternating radii give the same tuples as a scenario
    # that has evaluated nothing yet
    s = scenario(a, f)
    for rho in (1.7, 3.0, 1.7, 1.7, 1.0, 1.0):
        assert _radial(s, rho) == _radial(scenario(a, f), rho)


@pytest.mark.parametrize("a, f", [(1e-6, 10.0), (1e-4, 1000.0)],
                         ids=["S1", "S3"])
@pytest.mark.parametrize("name", ["B", "C", "f_a", "beta"])
def test_radial_memo_is_per_scenario(a, f, name):
    # scenarios that differ only in the perturbation never share a result
    clean = scenario(a, f)
    mutated = scenario(a, f, Perturbation(name, 1.001))
    want_clean = _radial(scenario(a, f), 2.0)
    want_mutated = _radial(scenario(a, f, Perturbation(name, 1.001)), 2.0)
    assert want_clean != want_mutated
    for _ in range(2):
        assert _radial(clean, 2.0) == want_clean
        assert _radial(mutated, 2.0) == want_mutated


def test_field_evaluates_each_radius_once(monkeypatch, capsys):
    # the default 41 x 41 map runs terms() once per distinct rho != 1 it
    # samples, and never at rho = 1, where the coefficient set forms g1r
    # from the surface pair it fetched; the grid is exactly symmetric,
    # so mirror points share their rho and the map samples at most 200; row
    # -y reuses row y's brackets, so _radial runs for at most 21 rows of 41
    sampled, evaluated = [], []
    radial, terms = oscylinder.flow._radial, oscylinder.flow._Coefficients.terms

    def recording_radial(s, rho):
        sampled.append(rho)
        return radial(s, rho)

    def recording_terms(self, rho):
        evaluated.append(rho)
        return terms(self, rho)

    for module in (oscylinder.flow, oscylinder.cli):
        monkeypatch.setattr(module, "_radial", recording_radial)
    monkeypatch.setattr(oscylinder.flow._Coefficients, "terms", recording_terms)
    assert main(["field"]) == 0
    capsys.readouterr()
    assert len(sampled) > len(set(sampled)) > 100
    assert len(set(sampled)) <= 200
    assert len(sampled) <= 21 * 41
    assert sorted(evaluated) == sorted(set(sampled) - {1.0})


def _coefficients_the_old_way(s):
    """A _Coefficients built with a weight dict and g1r = terms(1.0)[0], a
    second lookup of the surface Bessel pair."""
    k = object.__new__(oscylinder.flow._Coefficients)
    weight = dict.fromkeys(oscylinder.flow.PERTURBABLE, 1.0)
    if s.perturbation is not None:
        weight[s.perturbation.coefficient] = s.perturbation.factor
    ba = k.ba = s.ba * weight["beta"]
    c = k.c = weight["C"]
    k.b = weight["B"]
    k.za = J_MINUS * ba
    k.small = ba < oscylinder.flow.SMALL_BA
    k.k0_za = oscylinder.flow.bessel_k_pair(k.za, scaled=not k.small)[0]
    if k.small:
        k.q = 2j / (ba * ba * k.k0_za)
        k.pole = -(2.0 / k.k0_za)
    else:
        k.q = k.pole = 0j
    k.g1r = k.terms(1.0)[0]
    g1 = k.q + k.g1r
    fa = weight["f_a"]
    k.g1 = g1 * fa
    k.excess = c * ((fa - 1.0) * g1) + (c - k.b) * k.q
    return k


_BETA_1KHZ = math.sqrt(2.0 * math.pi * 1000.0 / AIR_20C.nu0)


@pytest.mark.parametrize("pert", [None, Perturbation("B", 1.001), Perturbation("C", 1.001),
                                  Perturbation("f_a", 1.001), Perturbation("beta", 1.001),
                                  Perturbation("beta", 0.999)])
@pytest.mark.parametrize("ba", [1e-9, 1e-5, 2e-3, 0.5, 0.9995, 1.0, 1.0005, 2.0, 17.5,
                                300.0, 1e4])
def test_coefficient_set_is_built_bit_for_bit(ba, pert):
    # one bessel_k_pair lookup gives every slot the bits of the weight-dict
    # plus terms(1.0) construction; beta a = 0.9995 and 1.0005 cross
    # SMALL_BA under the beta perturbations
    s = Scenario.from_frequency(AIR_20C, ba / _BETA_1KHZ, 1.0, 1000.0, pert)
    new, old = s._coefficients, _coefficients_the_old_way(s)
    assert len(oscylinder.flow._Coefficients.__slots__) == 12
    for slot in oscylinder.flow._Coefficients.__slots__:
        if slot != "memo":
            assert repr(getattr(new, slot)) == repr(getattr(old, slot)), slot


def _hoisted_radial_and_slopes(k, rho):
    """(B_r, B_theta, P, B_r', B_theta') by terms(), _radial and _slopes as
    they stood when the coefficient set held the first products ba k0_za,
    2c, i ba^2, c g1r, 2c g1r, c g1 and 2 excess."""
    b, c, ba = k.b, k.c, k.ba
    ba_k0, c2, iba2 = ba * k.k0_za, 2.0 * c, 1j * (ba * ba)
    c_g1r, c2_g1r, c_g1, excess2 = c * k.g1r, c2 * k.g1r, c * k.g1, 2.0 * k.excess
    j2 = 2.0 * J_PLUS
    if rho == 1.0:  # K0(za)/K0(za) is exactly 1
        gr, k0r = k.g1r, 1.0
    elif k.small:
        k0, k1m = bessel_k_pair(J_MINUS * (ba * rho))
        gr, k0r = j2 * k1m / ba_k0, k0 / k.k0_za
    else:
        k0s, k1s = bessel_k_pair(J_MINUS * (ba * rho), scaled=True)
        decay = cmath.exp(-J_MINUS * (ba * (rho - 1.0)))
        gr, k0r = j2 * k1s * decay / ba_k0, k0s * decay / k.k0_za
    inv = 1.0 / rho
    inv2 = 1.0 / (rho * rho)
    inv3 = inv2 * inv
    tail = b * gr / rho - c_g1r * inv2
    wall = k.excess * inv2
    br = (1.0 - c * inv2) + tail - wall
    bth = (-1.0 - c * inv2 + b * (2.0 * k0r)) + tail - wall
    pb = (rho + c / rho) + c_g1 / rho
    dbr = (c2 * inv3 - b * (2.0 * k0r * inv) - b * (2.0 * gr * inv2)
           + c2_g1r * inv3)
    dbth = dbr + b * (iba2 * gr) + b * (k.pole * inv)
    dwall = excess2 * inv3
    return br, bth, pb, dbr + dwall, dbth + dwall


@pytest.mark.parametrize("pert", [None, Perturbation("B", 1.001), Perturbation("C", 1.001),
                                  Perturbation("f_a", 1.001), Perturbation("beta", 1.001),
                                  Perturbation("beta", 0.999)])
@pytest.mark.parametrize("ba", [1e-9, 1e-5, 2e-3, 0.5, 0.9995, 1.0, 1.0005, 2.0, 17.5,
                                300.0, 1e4])
def test_brackets_keep_the_hoisted_products_bit_for_bit(ba, pert):
    # forming the first products inline in terms(), _radial and _slopes
    # keeps their operand order: every bracket and slope has the bits of
    # the hoisted-product formulas, at the wall, one Stokes-layer thickness
    # out, and far away
    s = Scenario.from_frequency(AIR_20C, ba / _BETA_1KHZ, 1.0, 1000.0, pert)
    for rho in (1.0, 1.0 + s.delta / s.a, 2.0, 1e3):
        want = _hoisted_radial_and_slopes(s._coefficients, rho)
        assert repr(_radial(s, rho) + _slopes(s, rho)) == repr(want), rho


@pytest.mark.parametrize("pert", [None, *(Perturbation(name, 1.001)
                                          for name in oscylinder.flow.PERTURBABLE)])
@pytest.mark.parametrize("ba", [2e-3, 0.5, 2.0, 300.0])
def test_coefficient_set_looks_up_the_surface_pair_once(monkeypatch, ba, pert):
    # on both branches (beta a < 1 and >= 1) and under every perturbation,
    # building a coefficient set makes exactly one bessel_k_pair call
    calls = []

    def counting_pair(z, scaled=False):
        calls.append(z)
        return bessel_k_pair(z, scaled)

    monkeypatch.setattr(oscylinder.flow, "bessel_k_pair", counting_pair)
    s = Scenario.from_frequency(AIR_20C, ba / _BETA_1KHZ, 1.0, 1000.0, pert)
    k = s._coefficients
    assert k.small == (ba < 1.0)
    assert calls == [k.za]


def test_coefficient_set_crosses_the_branch_switch_under_beta():
    # beta a just below 1, perturbed to just above, and the other way round
    up = scenario(0.9995 / _BETA_1KHZ, 1000.0, Perturbation("beta", 1.001))
    down = scenario(1.0005 / _BETA_1KHZ, 1000.0, Perturbation("beta", 0.999))
    assert up.ba < 1.0 and not up._coefficients.small
    assert down.ba > 1.0 and down._coefficients.small


def test_radial_memo_is_bounded_and_exact():
    # 5000 distinct radii overflow the memo; it stays within 4096 entries
    # and every value, computed or remembered, equals a fresh scenario's
    s = scenario(1e-6, 100.0)
    rhos = [1.0 + 0.001 * k for k in range(5000)]
    first = [_radial(s, rho) for rho in rhos]
    assert len(s._coefficients.memo) <= 4096
    for rho, value in zip(rhos, first):
        assert value == _radial(scenario(1e-6, 100.0), rho)
        assert _radial(s, rho) == value


def test_radial_memo_shared_across_threads():
    # threads alternating radii on one Scenario each get the value for the
    # radius they asked for: each memo lookup or store is one dict operation
    s = scenario(1e-4, 1000.0)
    rhos = (1.0, 1.7, 3.0)
    want = {rho: _radial(scenario(1e-4, 1000.0), rho) for rho in rhos}
    wrong = []

    def work(offset):
        for i in range(10000):
            rho = rhos[(i + offset) % 3]
            if _radial(s, rho) != want[rho]:
                wrong.append(rho)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


# ----------------------------------------------------------------------
# the radial terms behind _radial
# ----------------------------------------------------------------------

def _terms_public(k, rho):
    """_Coefficients.terms(rho) formed from the public Bessel functions."""
    z = J_MINUS * (k.ba * rho)
    if k.small:
        k0 = (bessel_k0(z) if abs(z) < _TEMME_RADIUS
              else bessel_k0(z, scaled=True) * cmath.exp(-z))
        return _w_small(k.ba, k.k0_za, rho), k0 / k.k0_za
    decay = cmath.exp(-J_MINUS * (k.ba * (rho - 1.0)))
    return (_g_direct(k.ba, k.k0_za, rho),
            bessel_k0(z, scaled=True) * decay / k.k0_za)


@pytest.mark.parametrize("ba", [0.05, 0.7, 1.2, 1.9])
@pytest.mark.parametrize("abs_z", [1.999, 2.001, _TEMME_RADIUS - 1e-3,
                                   _TEMME_RADIUS + 1e-3, 16.999, 17.001, 400.0])
def test_terms_match_public_bessel_route(ba, abs_z):
    # one bessel_k_pair call per rho gives the public-function values bit
    # for bit, on both branches, on both sides of |z| = _TEMME_RADIUS and
    # far past it
    s = scenario(ba / math.sqrt(2.0 * math.pi * 1000.0 / AIR_20C.nu0), 1000.0)
    k = s._coefficients
    assert k.small == (ba < 1.0)
    assert k.k0_za == bessel_k0(k.za, scaled=not k.small)
    rho = abs_z / k.ba
    assert rho >= 1.0
    assert k.terms(rho) == _terms_public(k, rho)


def _radial_reference(ba, b, c, fa, rho):
    """(B_r, B_theta, B_r', B_theta', P) from the closed form with mpmath's
    Bessel K at 40 digits; ba is beta a with the beta factor applied."""
    with mpmath.workdps(40):
        jp = mpmath.mpc(1, 1) / mpmath.sqrt(2)
        jm = mpmath.mpc(1, -1) / mpmath.sqrt(2)
        ba, rho = mpmath.mpf(ba), mpmath.mpf(rho)
        k0a = mpmath.besselk(0, jm * ba)

        def G(x):
            return 2 * jp * mpmath.besselk(1, jm * ba * x) / (ba * k0a)

        g, k0r = G(rho), mpmath.besselk(0, jm * ba * rho) / k0a
        wall = c * (1 + fa * G(1))
        br = 1 + b * g / rho - wall / rho**2
        bth = -1 + b * (2 * k0r + g / rho) - wall / rho**2
        dbr = b * (-2 * k0r / rho - 2 * g / rho**2) + 2 * wall / rho**3
        dbth = dbr + 1j * b * ba**2 * g
        return br, bth, dbr, dbth, rho + wall / rho


# beta a over the supported range 1e-9 .. 1e4 (both bracket branches) and
# rho = 1 .. 1e6, clean and under each 1.001 perturbation
@given(st.floats(min_value=-9.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=6.0),
       st.sampled_from([None, *oscylinder.flow.PERTURBABLE]))
@settings(max_examples=60, deadline=None)
def test_radial_matches_mpmath_closed_form(log_ba, log_rho, name):
    beta = math.sqrt(2.0 * math.pi * 1000.0 / AIR_20C.nu0)
    s = scenario(10.0 ** log_ba / beta, 1000.0,
                 None if name is None else Perturbation(name, 1.001))
    weight = dict.fromkeys(oscylinder.flow.PERTURBABLE, 1.0)
    if name is not None:
        weight[name] = 1.001
    rho = 10.0 ** log_rho
    want = _radial_reference(s.ba * weight["beta"], weight["B"], weight["C"],
                             weight["f_a"], rho)
    br, bth, pb = _radial(s, rho)
    dbr, dbth = _slopes(s, rho)
    with mpmath.workdps(40):
        for got, ref, label in zip((br, bth, dbr, dbth, pb), want,
                                   ("B_r", "B_theta", "B_r'", "B_theta'", "P")):
            err = abs(mpmath.mpc(got.real, got.imag) - ref) / max(1, abs(ref))
            assert err < 1e-13, label


def _radial_inline(s, weight, rho):
    """(B_r, B_theta, B_r', B_theta', P) with every per-scenario product
    written inline, as the five expressions stood before the coefficient set
    held them and before _slopes took the derivatives out of _radial, and
    the Bessel terms taken through the public functions (_terms_public)."""
    k = s._coefficients
    b, c, fa, ba, q = weight["B"], weight["C"], weight["f_a"], k.ba, k.q
    g1r = _terms_public(k, 1.0)[0]
    gr, k0r = _terms_public(k, rho)
    if rho == 1.0:  # K0(za)/K0(za) is exactly 1
        k0r = 1.0
    pole = -(2.0 / k.k0_za) if k.small else 0j
    g1 = (q + g1r) * fa
    excess = c * ((fa - 1.0) * (q + g1r)) + (c - b) * q
    inv = 1.0 / rho
    inv2 = 1.0 / (rho * rho)
    inv3 = inv2 * inv
    tail = b * gr / rho - c * g1r * inv2
    wall = excess * inv2
    br = (1.0 - c * inv2) + tail - wall
    bth = (-1.0 - c * inv2 + b * (2.0 * k0r)) + tail - wall
    dbr = (2.0 * c * inv3 - b * (2.0 * k0r * inv) - b * (2.0 * gr * inv2)
           + 2.0 * c * g1r * inv3)
    dbth = dbr + b * (1j * (ba * ba) * gr) + b * (pole * inv)
    dwall = 2.0 * excess * inv3
    pb = (rho + c / rho) + c * g1 / rho
    return br, bth, dbr + dwall, dbth + dwall, pb


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


# the same range as the mpmath property above; rho = 1 (log_rho = 0) is
# where _radial and _slopes reuse the coefficient set's g1r and a K0 ratio
# of exactly 1
@given(st.floats(min_value=-9.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=6.0),
       st.sampled_from([None, *oscylinder.flow.PERTURBABLE]))
@example(-3.0, 0.0, None)
@example(2.0, 0.0, "B")
@settings(max_examples=200, deadline=None)
def test_radial_matches_inline_products_bitwise(log_ba, log_rho, name):
    # the per-scenario products ba k0_za, 2c, i ba^2, c g1r, 2c g1r, c g1 and
    # 2 excess, and the slopes split from the brackets, leave every value bit
    # for bit as written out here
    beta = math.sqrt(2.0 * math.pi * 1000.0 / AIR_20C.nu0)
    s = scenario(10.0 ** log_ba / beta, 1000.0,
                 None if name is None else Perturbation(name, 1.001))
    weight = dict.fromkeys(oscylinder.flow.PERTURBABLE, 1.0)
    if name is not None:
        weight[name] = 1.001
    rho = 10.0 ** log_rho
    br, bth, dbr, dbth, pb = _radial_inline(s, weight, rho)
    assert _bits(_radial(s, rho)) == _bits((br, bth, pb))
    assert _bits(_slopes(s, rho)) == _bits((dbr, dbth))


@pytest.mark.parametrize("f", [100.0, 1e9])
def test_infinite_radius_ratio_raises_domain_error(f):
    # r/a overflows to rho = inf; the one Bessel lookup per rho must still
    # refuse the infinite argument, on the beta a < 1 (f = 100) and the
    # beta a >= 1 (f = 1e9) branch alike, rather than return NaN
    s = scenario(1e-5, f)
    assert (s.ba < 1.0) == (f == 100.0)
    with pytest.raises(BesselDomainError, match="argument must be finite"):
        flow_state(s, PolarPoint(1e305, 0.3), 0.0)


# ----------------------------------------------------------------------
# validation and errors
# ----------------------------------------------------------------------

def test_inputs_rejected():
    with pytest.raises(ValueError):
        Fluid(nu0=0.0, rho0=1.2)
    with pytest.raises(ValueError):
        Fluid(nu0=1e-5, rho0=-1.0)
    with pytest.raises(ValueError):
        Scenario(AIR_20C, a=-1e-6, v0=1.0, omega=10.0)
    with pytest.raises(ValueError):
        Scenario(AIR_20C, a=1e-6, v0=1.0, omega=0.0)
    with pytest.raises(ValueError):
        Scenario(AIR_20C, a=1e-6, v0=-0.5, omega=10.0)
    with pytest.raises(ValueError):
        Scenario.from_frequency(AIR_20C, 1e-6, 1.0, f=-10.0)
    with pytest.raises(ValueError):
        Perturbation("X", 1.001)
    with pytest.raises(ValueError):
        Perturbation("B", -1.0)
    with pytest.raises(ValueError):
        PolarPoint(float("nan"), 0.0)


def test_scenario_refuses_raw_perturbation():
    # a raw tuple would bypass Perturbation's name and factor checks
    for bad in (("Q", -5.0), ("B", 1.001), "B"):
        with pytest.raises(ValueError, match=r"perturbation must be None or a "
                                             rf"Perturbation, got {re.escape(repr(bad))}"):
            Scenario(AIR_20C, 1e-6, 1.0, 628.0, perturbation=bad)
    for ok in (Perturbation("B", 1.001), None):
        assert Scenario(AIR_20C, 1e-6, 1.0, 628.0, perturbation=ok).perturbation == ok


def test_inside_cylinder_rejected():
    for fn in (lambda: velocity(S1, PolarPoint(0.5 * S1.a, 0.0), 0.0),
               lambda: pressure(S1, PolarPoint(0.9999 * S1.a, 0.0), 0.0),
               lambda: f_of_r(S1, 0.0)):
        with pytest.raises(ValueError):
            fn()


@pytest.mark.parametrize("r, message", [
    (math.inf, "field point radius inf is out of range (not finite)"),
    (math.nan, "field point radius nan is out of range (not finite)"),
    (0.5 * S1.a, "field point radius 5e-07 is below the cylinder surface a=1e-06"),
])
def test_radius_refusal_names_the_fault(r, message):
    with pytest.raises(ValueError) as exc:
        f_of_r(S1, r)
    assert str(exc.value) == message


def test_recovery_errors():
    with pytest.raises(ValueError):
        recovery_radius(S1, 0.0)
    with pytest.raises(ValueError):
        recovery_radius(S1, 1.0)
    with pytest.raises(RecoveryNotFoundError):
        recovery_radius(S3, 1.0 - 1e-13)


def test_recovery_radius_is_a_when_already_recovered():
    # a C mode 1.5 times too large leaves |v_r(a)|/v0 ~ 4.6e3 and no grid
    # sample below one half, so the flow has recovered at the surface itself
    s = scenario(1e-6, 100.0, Perturbation("C", 1.5))
    assert _recovery_radius_forward(s, 0.5) == s.a
    assert recovery_radius(s, 0.5) == s.a == 1e-6


def _recovery_radius_forward(s, fraction):
    """Reference: scan the whole grid outward, keep the last sample below
    the fraction, then bisect as recovery_radius does."""
    n = oscylinder.flow._RECOVERY_GRID_N
    rhos = [10.0 ** (oscylinder.flow._RECOVERY_GRID_DECADES * j / n)
            for j in range(n + 1)]
    below = [j for j, rho in enumerate(rhos) if abs(_radial(s, rho)[0]) < fraction]
    if not below:
        return s.a
    if below[-1] == n:
        return RecoveryNotFoundError
    lo, hi = rhos[below[-1]], rhos[below[-1] + 1]
    while hi - lo > 1e-6 * lo:
        mid = math.sqrt(lo * hi)
        if abs(_radial(s, mid)[0]) >= fraction:
            hi = mid
        else:
            lo = mid
    return s.a * 0.5 * (lo + hi)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.999999])
def test_recovery_radius_matches_forward_scan(fraction):
    """The inward scan finds the same grid crossing as a full outward scan,
    bit for bit, for beta a from 1e-9 to 1e4 (r90 and the not-found error)."""
    a = 1e-4
    outcomes = set()
    for k in range(27):
        ba = 10.0 ** (-9 + 0.5 * k)
        s = Scenario(AIR_20C, a, 1.0, (ba / a) ** 2 * AIR_20C.nu0)
        want = _recovery_radius_forward(s, fraction)
        if want is RecoveryNotFoundError:
            with pytest.raises(RecoveryNotFoundError):
                recovery_radius(s, fraction)
        else:
            assert recovery_radius(s, fraction) == want
        outcomes.add(want is RecoveryNotFoundError)
    if fraction == 0.9:
        assert outcomes == {True, False}  # both branches are exercised


def test_fluid_properties():
    assert AIR_20C.mu0 == pytest.approx(15.11e-6 * 1.204, rel=1e-15)
    assert S1.frequency == pytest.approx(10.0, rel=1e-15)
    assert S1.delta == pytest.approx(math.sqrt(2.0 * AIR_20C.nu0 / S1.omega),
                                     rel=1e-15)


def test_direction_constants():
    assert abs(J_PLUS * J_PLUS - 1j) < 1e-15
    assert abs(J_MINUS * J_MINUS + 1j) < 1e-15
    assert abs(J_PLUS * J_MINUS - 1.0) < 1e-15
    assert abs(abs(J_PLUS) - 1.0) < 1e-15


def test_reynolds_and_validity():
    assert reynolds_number(S1) == pytest.approx(1e-6 / 15.11e-6, rel=1e-14)
    rep = validity_report(S1)
    assert not rep.warn_nonlinear
    assert not rep.warn_long_range
    assert rep.recovery_radius_90 == pytest.approx(0.00056375274256251538,
                                                   rel=1e-5)
    fast = Scenario.from_frequency(AIR_20C, 1e-6, 10.0, 10.0)
    assert validity_report(fast).warn_nonlinear
    slow = scenario(1e-6, 1.0)
    assert validity_report(slow).warn_long_range
    # at beta a ~ 2e-8 the velocity does not recover to 90 % within 1e6 a
    lost = validity_report(Scenario.from_frequency(AIR_20C, 1e-6, 1.0, 1e-9))
    assert lost.recovery_radius_90 is None and lost.warn_long_range


def test_v0_zero_gives_null_field():
    s = Scenario.from_frequency(AIR_20C, 1e-6, 0.0, 10.0)
    st0 = flow_state(s, PolarPoint(3e-6, 0.8), 0.01)
    assert st0.vr == 0j and st0.vtheta == 0j and st0.p == 0j
