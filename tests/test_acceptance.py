"""Acceptance gate: ten numbered criteria, one test per criterion.

Running ``pytest -v tests/test_acceptance.py`` therefore emits exactly
one PASS/FAIL line per criterion.  Every test also prints a one-line
measurement summary (visible with -s or in failure reports).  The
tolerances below are fixed contract values, not tuned to the
implementation; see individual docstrings.
"""

import math

import pytest

from oscylinder import (
    AIR_20C,
    Perturbation,
    PolarPoint,
    Scenario,
    bessel_k0,
    bessel_k1,
    boundary_suite,
    convergence_order,
    force_analytic,
    force_buoyancy,
    force_quadrature,
    force_viscous_approx,
    recovery_radius,
    residual_report,
    residual_tolerance,
    velocity,
)
from oscylinder.cli import main as cli_main

from bessel_i import bessel_i0, bessel_i1
from test_bessel import _sample_points


def scenario(a, f, v0=1.0, perturbation=None):
    return Scenario.from_frequency(AIR_20C, a, v0, f, perturbation=perturbation)


GRID_A = (1e-6, 1e-5, 1e-4)
GRID_F = (10.0, 100.0, 1000.0)

# the residual criterion is pinned to one scenario and one stencil
RESIDUAL_SCENARIO = dict(a=1e-4, f=1000.0)
RESIDUAL_RHOS = tuple(1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5))
RESIDUAL_THETAS = (0.35, 1.05, 1.85, 2.65, 3.45)


def _no_slip_max(s):
    period = 2.0 * math.pi / s.omega
    worst = 0.0
    for t in (0.0, period / 6.0, period / 4.0, period / 2.0):
        for k in range(64):
            theta = 2.0 * math.pi * k / 64.0
            vr, vt = velocity(s, PolarPoint(s.a, theta), t)
            worst = max(worst, math.hypot(abs(vr), abs(vt)))
    return worst / (s.v0 if s.v0 > 0 else 1.0)


def _residual_grid_ok(s, rhos=RESIDUAL_RHOS, thetas=RESIDUAL_THETAS):
    worst_ratio = 0.0
    for rho in rhos:
        tol = residual_tolerance(s, rho)
        for theta in thetas:
            rep = residual_report(s, PolarPoint(rho * s.a, theta))
            value = max(rep.continuity, rep.momentum_r,
                        rep.momentum_theta, rep.pressure_laplacian)
            worst_ratio = max(worst_ratio, value / tol)
    return worst_ratio


def _quadrature_rel(s):
    q = force_quadrature(s, 0.0, 512)
    an = force_analytic(s, 0.0)
    rel = abs(q.fx - an.fx) / abs(an.fx)
    transverse = abs(q.fy) / abs(q.fx)
    return rel, transverse


def test_criterion_01_no_slip():
    """|v(a, theta, t)| <= 1e-12 v0 on 64 angles x 4 phases, 3x3 (a, f) grid."""
    worst = 0.0
    for a in GRID_A:
        for f in GRID_F:
            worst = max(worst, _no_slip_max(scenario(a, f)))
    ok = worst <= 1e-12
    print(f"criterion 01 no_slip: {'PASS' if ok else 'FAIL'} "
          f"max|v|/v0={worst:.3e} tol=1.0e-12")
    assert ok


def test_criterion_02_residuals():
    """FD residuals <= 1e-6 on the pinned scenario (a=1e-4 m, f=1000 Hz),
    5 log radii in [1.1a, 100a] x 5 angles, step h = 1e-4 r; measured
    convergence order in [1.8, 2.2] for all four residuals."""
    s = scenario(**RESIDUAL_SCENARIO)
    worst = 0.0
    for rho in RESIDUAL_RHOS:
        assert residual_tolerance(s, rho) == 1e-6
        for theta in RESIDUAL_THETAS:
            rep = residual_report(s, PolarPoint(rho * s.a, theta))
            worst = max(worst, rep.continuity, rep.momentum_r,
                        rep.momentum_theta, rep.pressure_laplacian)
    orders = [convergence_order(s, PolarPoint(1.1 * s.a, 0.7),
                                h=2e-3 * 1.1 * s.a, quantity=q)
              for q in ("continuity", "momentum_r", "momentum_theta",
                        "pressure_laplacian")]
    ok = worst <= 1e-6 and all(1.8 <= o <= 2.2 for o in orders)
    print(f"criterion 02 residuals: {'PASS' if ok else 'FAIL'} "
          f"max_residual={worst:.3e} tol=1.0e-06 "
          f"orders={' '.join(f'{o:.3f}' for o in orders)} window=[1.8,2.2]")
    assert ok


def test_criterion_03_force_quadrature():
    """512-node quadrature force matches the closed form to 1e-9 relative
    and the transverse component stays below 1e-12 |F_x|, 3x3 grid."""
    worst_rel = 0.0
    worst_tr = 0.0
    for a in GRID_A:
        for f in GRID_F:
            rel, tr = _quadrature_rel(scenario(a, f))
            worst_rel = max(worst_rel, rel)
            worst_tr = max(worst_tr, tr)
    ok = worst_rel <= 1e-9 and worst_tr <= 1e-12
    print(f"criterion 03 force_quadrature: {'PASS' if ok else 'FAIL'} "
          f"max_rel={worst_rel:.3e} tol=1.0e-09 "
          f"max_transverse={worst_tr:.3e} tol=1.0e-12")
    assert ok


def test_criterion_04_decomposition():
    """F_analytic equals F_buoyancy + F_viscous to 1e-15 relative."""
    worst = 0.0
    for a in GRID_A:
        for f in GRID_F:
            s = scenario(a, f)
            total = force_analytic(s, 0.0).fx
            parts = force_buoyancy(s, 0.0).fx + force_viscous_approx(s, 0.0).fx
            worst = max(worst, abs(total - parts) / abs(total))
    ok = worst <= 1e-15
    print(f"criterion 04 decomposition: {'PASS' if ok else 'FAIL'} "
          f"max_rel={worst:.3e} tol=1.0e-15")
    assert ok


def test_criterion_05_bessel_identities():
    """Wronskian K0 I1 + K1 I0 = 1/z to 1e-12 on 200 points with
    |z| in [1e-3, 30]; derivative identities dK0 = -K1 and
    dK1 = -K0 - K1/z against central differences (h = 1e-6 |z|) to 1e-7."""
    worst_w = 0.0
    pts = _sample_points(200, seed=20240817)
    for z in pts:
        w = bessel_k0(z) * bessel_i1(z) + bessel_k1(z) * bessel_i0(z)
        worst_w = max(worst_w, abs(w * z - 1.0))
    worst_d = 0.0
    for z in _sample_points(40, seed=7, lo=0.05, hi=25.0):
        h = 1e-6 * abs(z)
        dk0 = (bessel_k0(z + h) - bessel_k0(z - h)) / (2.0 * h)
        dk1 = (bessel_k1(z + h) - bessel_k1(z - h)) / (2.0 * h)
        ref0 = -bessel_k1(z)
        ref1 = -bessel_k0(z) - bessel_k1(z) / z
        worst_d = max(worst_d, abs(dk0 - ref0) / max(1.0, abs(ref0)),
                      abs(dk1 - ref1) / max(1.0, abs(ref1)))
    ok = worst_w <= 1e-12 and worst_d <= 1e-7
    print(f"criterion 05 bessel_identities: {'PASS' if ok else 'FAIL'} "
          f"max_wronskian={worst_w:.3e} tol=1.0e-12 "
          f"max_derivative={worst_d:.3e} tol=1.0e-07")
    assert ok


def test_criterion_06_azimuthal_overshoot():
    """|v_theta(r, pi/2)| exceeds v0 somewhere outside the layer
    (a = 1e-6 m, f = 10 Hz)."""
    s = scenario(1e-6, 10.0)
    best = 0.0
    for k in range(400):
        r = s.a * 2000.0 ** (k / 399.0)
        vt = velocity(s, PolarPoint(r, 0.5 * math.pi), 0.0)[1]
        best = max(best, abs(vt) / s.v0)
    ok = best > 1.0
    print(f"criterion 06 azimuthal_overshoot: {'PASS' if ok else 'FAIL'} "
          f"max|v_theta|/v0={best:.6f} threshold=1.0")
    assert ok


def test_criterion_07_recovery_monotone():
    """The 90%-recovery radius shrinks strictly as frequency rises
    (a = 1e-6 m, f = 10/100/1000 Hz)."""
    radii = [recovery_radius(scenario(1e-6, f), fraction=0.9)
             for f in GRID_F]
    ok = radii[0] > radii[1] > radii[2] > 0.0
    print(f"criterion 07 recovery_monotone: {'PASS' if ok else 'FAIL'} "
          f"radii_m={' '.join(f'{r:.6e}' for r in radii)}")
    assert ok


def test_criterion_08_force_growth_and_buoyancy_fraction():
    """|F|/v0 grows strictly with f over 10 log-spaced points in
    [100, 1000] Hz at a = 1e-5 m, and the buoyancy fraction stays below
    0.1 at a = 1e-6 m over the same frequencies."""
    fs = [100.0 * 10.0 ** (k / 9.0) for k in range(10)]
    mags = [abs(force_analytic(scenario(1e-5, f), 0.0).fx) for f in fs]
    increasing = all(m1 > m0 for m0, m1 in zip(mags, mags[1:]))
    frac = max(abs(force_buoyancy(scenario(1e-6, f), 0.0).fx)
               / abs(force_analytic(scenario(1e-6, f), 0.0).fx) for f in fs)
    ok = increasing and frac < 0.1
    print(f"criterion 08 force_growth: {'PASS' if ok else 'FAIL'} "
          f"monotone={increasing} max_buoyancy_fraction={frac:.3e} limit=0.1")
    assert ok


def test_criterion_09_mutation_sensitivity():
    """Multiplying any one solution coefficient (B, C, f_a, beta) by
    1.001 must break at least one of criteria 1-3; the unmutated
    solution must break none of them."""
    s_ref = scenario(**RESIDUAL_SCENARIO)

    def broken(s):
        hits = []
        if _no_slip_max(s) > 1e-12:
            hits.append("no_slip")
        if _residual_grid_ok(s, rhos=(1.1, 3.0, 10.0),
                             thetas=(0.35, 1.85)) > 1.0:
            hits.append("residuals")
        rel, tr = _quadrature_rel(s)
        if rel > 1e-9 or tr > 1e-12:
            hits.append("quadrature")
        return hits

    assert broken(s_ref) == []
    summary = []
    ok = True
    for name in ("B", "C", "f_a", "beta"):
        mutated = scenario(perturbation=Perturbation(name, 1.001),
                           **RESIDUAL_SCENARIO)
        hits = broken(mutated)
        summary.append(f"{name}->{'+'.join(hits) if hits else 'NONE'}")
        ok &= bool(hits)
    print(f"criterion 09 mutation_sensitivity: {'PASS' if ok else 'FAIL'} "
          + " ".join(summary))
    assert ok


def test_criterion_10_determinism(tmp_path):
    """The force CSV is byte-identical across repeated runs and across
    worker-thread counts."""
    base = ["force", "--f-range", "10:1000:40", "--nodes", "128"]
    outputs = []
    for tag, extra in (("r1", ["--jobs", "1"]), ("r2", ["--jobs", "1"]),
                       ("t4", ["--jobs", "4"])):
        out = tmp_path / f"{tag}.csv"
        assert cli_main(base + extra + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    print(f"criterion 10 determinism: {'PASS' if ok else 'FAIL'} "
          f"bytes={len(outputs[0])} identical={ok}")
    assert ok
