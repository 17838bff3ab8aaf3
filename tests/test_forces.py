"""Tests for stress, traction, and force per unit length.

Expected values were computed with an independent 50-digit
implementation of the closed-form solution (scripts/reference_values.py)
and frozen here as literals.  The reference builds the surface traction
from the analytic radial derivatives at r = a rather than from the
bracket algebra used by the package, so the comparison crosses two
genuinely different evaluation paths.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscylinder import (
    AIR_20C,
    J_MINUS,
    J_PLUS,
    Perturbation,
    PolarPoint,
    Scenario,
    f_of_r,
    flow_state,
    force_analytic,
    force_buoyancy,
    force_quadrature,
    force_viscous_approx,
    pressure,
    stress_tensor,
    traction,
)


def scenario(a, f, v0=1.0):
    return Scenario.from_frequency(AIR_20C, a, v0, f)


S1 = scenario(1e-6, 10.0)
S2 = scenario(1e-6, 100.0)
S3 = scenario(1e-4, 1000.0)


def rel(got, want):
    return abs(got - want) / abs(want)


# ----------------------------------------------------------------------
# frozen reference values
# ----------------------------------------------------------------------

# surface traction at theta = pi/4, t = 0 for the (a = 1e-6 m, f = 100 Hz)
# scenario [Pa]
S2_TRACTION_X = complex(6.8918981039108663, -1.0488802640370370)
S2_TRACTION_Y = complex(1.6036588260553174e-50, -0.00075649551098442221)

# |F_x| of the closed-form force at t = 0 [N/m]
S1_FORCE_ABS = 3.5946470091439193e-5
S2_FORCE_ABS = 4.3801692850628857e-5
S2_FORCE_BUOYANCY_ABS = 4.7532014795646351e-9


def test_traction_frozen_values():
    tx, ty = traction(S2, math.pi / 4.0, 0.0)
    assert rel(tx, S2_TRACTION_X) < 5e-13
    assert abs(ty - S2_TRACTION_Y) < 1e-12 * abs(S2_TRACTION_Y)


def test_force_magnitudes_frozen():
    assert rel(abs(force_analytic(S1, 0.0).fx), S1_FORCE_ABS) < 1e-13
    assert rel(abs(force_analytic(S2, 0.0).fx), S2_FORCE_ABS) < 1e-13
    assert rel(abs(force_buoyancy(S2, 0.0).fx), S2_FORCE_BUOYANCY_ABS) < 1e-13


# ----------------------------------------------------------------------
# structure of the force results
# ----------------------------------------------------------------------

@pytest.mark.parametrize("s", [S1, S2, S3])
@pytest.mark.parametrize("t", [0.0, 3.1e-4])
def test_decomposition_is_exact(s, t):
    # the closed form is constructed as the float sum of its two parts,
    # so the decomposition identity holds bitwise
    total = force_analytic(s, t)
    assert total.fx == force_buoyancy(s, t).fx + force_viscous_approx(s, t).fx
    assert total.fy == 0j
    assert force_buoyancy(s, t).fy == 0j
    assert force_viscous_approx(s, t).fy == 0j


def test_method_labels():
    assert force_buoyancy(S1, 0.0).method == "buoyancy"
    assert force_viscous_approx(S1, 0.0).method == "viscous"
    assert force_analytic(S1, 0.0).method == "analytic"
    assert force_quadrature(S1, 0.0, n_nodes=16).method == "quadrature(n=16)"


def test_viscous_to_buoyancy_ratio():
    # the ratio of the parts is f(a)/(beta a) by construction
    for s in (S1, S2, S3):
        got = force_viscous_approx(s, 0.0).fx / force_buoyancy(s, 0.0).fx
        want = f_of_r(s, s.a) / s.ba
        assert rel(got, want) < 1e-14


def test_viscous_dominates_at_small_ba():
    # thick Stokes layer (ba ~ 2e-3): drag is almost entirely viscous
    assert abs(force_viscous_approx(S1, 0.0).fx) > 100.0 * abs(force_buoyancy(S1, 0.0).fx)


def test_buoyancy_dominates_at_large_ba():
    # thin Stokes layer: the viscous correction f(a)/(beta a) ~ 2/(beta a)
    ba_target = 1e4
    f = (ba_target / 1e-3) ** 2 * AIR_20C.nu0 / (2.0 * math.pi)
    s = scenario(1e-3, f)
    assert s.ba == pytest.approx(ba_target, rel=1e-12)
    ratio = force_analytic(s, 0.0).fx / force_buoyancy(s, 0.0).fx
    assert abs(ratio - 1.0) < 1e-2


# ----------------------------------------------------------------------
# limit laws of g1 = f(a)/(beta a) at both ends (Stokes 1851)
# ----------------------------------------------------------------------
#
# g1 is read off the force as F_viscous/F_buoyancy and set against closed
# forms that use only log and rational arithmetic, never the Bessel kernel.

EULER_GAMMA = 0.57721566490153286


def g1_and_ba(ba, perturbation=None):
    f = 100.0
    a = ba / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0)
    s = Scenario.from_frequency(AIR_20C, a, 1.0, f, perturbation=perturbation)
    return force_viscous_approx(s, 0.0).fx / force_buoyancy(s, 0.0).fx, s.ba


def small_ba_error(ba, perturbation=None):
    # g1 -> 2i/((beta a)^2 (-ln(j- beta a/2) - gamma)), error O((beta a)^2 ln)
    g1, x = g1_and_ba(ba, perturbation)
    law = 2j / (x * x * (-cmath.log(J_MINUS * x / 2.0) - EULER_GAMMA))
    return rel(g1, law), 2.0 * x * x * abs(math.log(x))


def large_ba_error(ba, perturbation=None):
    # g1 = (2 j+/beta a) K1/K0 with K1/K0 = 1 + 1/(2z) - 1/(8z^2) + ..., z = j- beta a
    g1, x = g1_and_ba(ba, perturbation)
    z = J_MINUS * x
    return rel(g1, (2.0 * J_PLUS / x) * (1.0 + 1.0 / (2.0 * z) - 1.0 / (8.0 * z * z)))


@pytest.mark.parametrize("ba", [1e-9, 1e-8, 1e-6])
def test_g1_small_ba_limit_law(ba):
    err, bound = small_ba_error(ba)
    assert err <= bound


@pytest.mark.parametrize("ba, bound", [(3e3, 1e-11), (1e4, 1e-12)])
def test_g1_large_ba_limit_law(ba, bound):
    assert large_ba_error(ba) <= bound


def test_g1_limit_laws_detect_f_a_mutation():
    # a 1e-9 relative change of f(a) breaks both gates at their pinned ends
    pert = Perturbation("f_a", 1.0 + 1e-9)
    err, bound = small_ba_error(1e-6, pert)
    assert err > bound
    assert large_ba_error(1e4, pert) > 1e-12


# ----------------------------------------------------------------------
# quadrature against the closed form
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a", [1e-6, 1e-5, 1e-4])
@pytest.mark.parametrize("f", [10.0, 1000.0])
def test_quadrature_matches_analytic(a, f):
    s = scenario(a, f)
    q = force_quadrature(s, 0.0, n_nodes=512)
    an = force_analytic(s, 0.0)
    assert rel(q.fx, an.fx) < 1e-9
    assert abs(q.fy) <= 1e-12 * abs(q.fx)


def test_quadrature_node_insensitivity():
    # the integrand is a degree-2 trigonometric polynomial, so the
    # trapezoidal rule is already exact at modest n
    f64 = force_quadrature(S2, 0.0, n_nodes=64)
    f128 = force_quadrature(S2, 0.0, n_nodes=128)
    f512 = force_quadrature(S2, 0.0, n_nodes=512)
    assert rel(f64.fx, f512.fx) < 1e-12
    assert rel(f128.fx, f512.fx) < 1e-12


@pytest.mark.parametrize("bad", [0, 4, 7, -16, 512.0, "64"])
def test_quadrature_rejects_bad_node_counts(bad):
    with pytest.raises(ValueError):
        force_quadrature(S1, 0.0, n_nodes=bad)


@given(
    ae=st.floats(min_value=-7.0, max_value=-3.0),
    fe=st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=25, deadline=None)
def test_quadrature_property(ae, fe):
    s = scenario(10.0 ** ae, 10.0 ** fe)
    q = force_quadrature(s, 0.0, n_nodes=64)
    an = force_analytic(s, 0.0)
    assert rel(q.fx, an.fx) < 1e-9
    assert abs(q.fy) <= 1e-12 * abs(q.fx)


@pytest.mark.parametrize("a, f", [(1e-6, 10.0), (1e-4, 1000.0)],
                         ids=["S1", "S3"])
@pytest.mark.parametrize("name", ["B", "C"])
def test_coefficient_mutation_reaches_stress_and_force(a, f, name):
    # stress and surface force follow the same perturbed coefficients as
    # the velocity, so the quadrature leaves the closed-form force
    clean = scenario(a, f)
    mutated = Scenario.from_frequency(AIR_20C, a, 1.0, f,
                                      perturbation=Perturbation(name, 1.001))
    pt = PolarPoint(r=2.0 * a, theta=0.9)
    st0 = stress_tensor(clean, pt, 0.0)
    st1 = stress_tensor(mutated, pt, 0.0)
    for comp in ("pi_rr", "pi_rtheta", "pi_thetatheta"):
        assert rel(getattr(st1, comp), getattr(st0, comp)) > 1e-5
    q = force_quadrature(mutated, 0.0)
    assert rel(q.fx, force_quadrature(clean, 0.0).fx) > 1e-5
    assert rel(q.fx, force_analytic(mutated, 0.0).fx) > 1e-9


# ----------------------------------------------------------------------
# stress tensor consistency
# ----------------------------------------------------------------------

def test_stress_is_symmetric():
    st_ = stress_tensor(S2, PolarPoint(r=3e-6, theta=0.9), t=0.0)
    assert st_.pi_thetar == st_.pi_rtheta


@pytest.mark.parametrize("s", [S1, S2, S3])
@pytest.mark.parametrize("theta", [0.0, 0.9, 2.5])
def test_surface_normal_stress_is_pressure(s, theta):
    # on r = a the radial velocity vanishes identically in theta, so
    # dv_r/dr = 0 there (continuity) and Pi_rr reduces to -p
    st_ = stress_tensor(s, PolarPoint(r=s.a, theta=theta), t=0.0)
    want = -pressure(s, PolarPoint(r=s.a, theta=theta), 0.0)
    assert abs(st_.pi_rr - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("s", [S1, S2, S3])
def test_surface_shear_from_boundary_derivative(s):
    # at r = a the only nonzero velocity gradient is
    # dv_theta/dr = i beta f(a) v0 sin(theta) e^{-i omega t}
    theta = 0.7
    t = 1e-4
    dvth_dr = 1j * s.beta * f_of_r(s, s.a) * s.v0 * math.sin(theta) * cmath.exp(
        complex(0.0, -s.omega * t))
    want = s.fluid.mu0 * dvth_dr
    st_ = stress_tensor(s, PolarPoint(r=s.a, theta=theta), t=t)
    assert rel(st_.pi_rtheta, want) < 1e-12


def test_stress_fd_consistency_interior():
    # rebuild Pi_rr and Pi_rtheta at r = 2a from centered differences of
    # the velocity field and compare against the bracket algebra
    s = S3
    r = 2.0 * s.a
    theta = 0.9
    t = 0.0
    h = 1e-5 * r
    mu0 = s.fluid.mu0

    def state(rr, th):
        return flow_state(s, PolarPoint(r=rr, theta=th), t)

    f0 = state(r, theta)
    dvr_dr = (state(r + h, theta).vr - state(r - h, theta).vr) / (2.0 * h)
    dvth_dr = (state(r + h, theta).vtheta - state(r - h, theta).vtheta) / (2.0 * h)
    ht = h / r
    dvr_dth = (state(r, theta + ht).vr - state(r, theta - ht).vr) / (2.0 * ht)

    want_rr = -f0.p + 2.0 * mu0 * dvr_dr
    want_rth = mu0 * (dvr_dth / r + dvth_dr - f0.vtheta / r)
    st_ = stress_tensor(s, PolarPoint(r=r, theta=theta), t)
    scale = abs(st_.pi_rr) + abs(st_.pi_rtheta)
    assert abs(st_.pi_rr - want_rr) < 1e-7 * scale
    assert abs(st_.pi_rtheta - want_rth) < 1e-7 * scale


def test_traction_has_period_pi():
    # every stress component carries one cos/sin factor and the surface
    # projection another, so the traction vector repeats after half a turn
    for theta in (0.0, 0.4, 1.3, 2.2):
        t0 = traction(S2, theta, 0.0)
        t1 = traction(S2, theta + math.pi, 0.0)
        assert abs(t0[0] - t1[0]) <= 1e-13 * max(1e-300, abs(t0[0]))
        assert abs(t0[1] - t1[1]) <= 1e-13 * max(abs(t0[0]), abs(t0[1]))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_traction_refuses_non_finite_angle(theta):
    with pytest.raises(ValueError, match=rf"traction angle theta = {theta!r} rad "
                                         r"is out of range \(not finite\)"):
        traction(S2, theta, 0.0)


def test_force_scales_linearly_with_v0():
    # doubling v0 doubles every force bitwise: v0 enters each path as a
    # single power-of-two factor
    s1 = scenario(1e-5, 50.0, v0=1.0)
    s2 = scenario(1e-5, 50.0, v0=2.0)
    assert force_analytic(s2, 0.0).fx == 2.0 * force_analytic(s1, 0.0).fx
    q1 = force_quadrature(s1, 0.0, n_nodes=32)
    q2 = force_quadrature(s2, 0.0, n_nodes=32)
    assert q2.fx == 2.0 * q1.fx


# ----------------------------------------------------------------------
# moment-form quadrature against the node-by-node sum
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 9, 63, 512])
@pytest.mark.parametrize("a, f", [(1e-6, 10.0), (1e-4, 1000.0)],
                         ids=["S1", "S3"])
@pytest.mark.parametrize("name", [None, "B", "C", "f_a", "beta"])
def test_quadrature_matches_node_sum(n, a, f, name):
    # force_quadrature sums three angular moments instead of n node
    # tractions; both are the same trapezoidal sum, so they agree to
    # roundoff relative to the size of the summed terms
    pert = Perturbation(name, 1.001) if name else None
    s = Scenario.from_frequency(AIR_20C, a, 1.0, f, perturbation=pert)
    t = 3.1e-4
    step = 2.0 * math.pi / n
    w = s.a * step
    nodes = [traction(s, step * k, t) for k in range(n)]

    def node_sum(i):
        return w * complex(math.fsum(v[i].real for v in nodes),
                           math.fsum(v[i].imag for v in nodes))

    q = force_quadrature(s, t, n)
    scale = w * math.fsum(abs(tx) + abs(ty) for tx, ty in nodes)
    assert abs(q.fx - node_sum(0)) + abs(q.fy - node_sum(1)) <= 1e-14 * scale
