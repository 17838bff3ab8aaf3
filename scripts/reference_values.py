"""Generate high-precision reference values for the test suite.

Everything here is computed with mpmath at 50 significant digits,
independently of the package implementation: Bessel kernels come from
mpmath.besselk / mpmath.besseli, flow fields are assembled directly
from the closed-form solution, and finite-difference truncation levels
are measured in extended precision where double roundoff is absent.

Run:  python scripts/reference_values.py
The printed constants are frozen (copy-pasted) into tests/.  Case is
also loaded by path as the benchmark's correctness reference
(bench/checks.py), and tests/test_flow.py checks it against the package.
"""

from mpmath import mp, mpf, mpc, besselk, besseli, cos, sin, exp, log, pi, sqrt, fabs

mp.dps = 50

I = mpc(0, 1)
JP = (1 + I) / sqrt(2)
JM = (1 - I) / sqrt(2)

NU0 = mpf("15.11e-6")   # kinematic viscosity, dry air 20 C [m^2/s]
RHO0 = mpf("1.204")     # density, dry air 20 C [kg/m^3]


def c17(z):
    """Format a complex mpmath number as a Python complex literal (17 sig digits)."""
    z = mpc(z)
    return f"complex({mp.nstr(z.real, 17, strip_zeros=False)}, {mp.nstr(z.imag, 17, strip_zeros=False)})"


def r17(x):
    return mp.nstr(mpf(x), 17, strip_zeros=False)


# ----------------------------------------------------------------------
# Section 1: Bessel reference values
# ----------------------------------------------------------------------

BESSEL_POINTS = [
    ("one", mpc(1, 0)),
    ("half", mpc("0.5", 0)),
    ("arg45_mid", JM * mpf("2.0394")),
    ("arg45_small", JM * mpf("2.0394e-3")),
    ("generic", mpc(3, 4)),
    ("arg45_band4", JM * mpf(4)),
    ("arg45_band8", JM * mpf(8)),
    ("cross_lo", JM * mpf("16.9")),
    ("cross_hi", JM * mpf("17.1")),
    ("deep", JM * mpf("120.0")),
    ("tiny", mpc("1e-4", 0)),
    ("imag5", mpc(0, 5)),
    ("imag25", mpc(0, 25)),
    ("near_imag", mpc("0.3", "29.9")),
]

SCALED_ONLY_POINTS = [
    ("extreme", mpc(700, 0)),
]


def section_bessel():
    print("# === Bessel reference values ===")
    print("# name: (z, K0, K1, I0, I1)  [unscaled]")
    print("BESSEL_REFERENCE = {")
    for name, z in BESSEL_POINTS:
        k0 = besselk(0, z)
        k1 = besselk(1, z)
        i0 = besseli(0, z)
        i1 = besseli(1, z)
        print(f'    "{name}": ({c17(z)},')
        print(f"        {c17(k0)},")
        print(f"        {c17(k1)},")
        print(f"        {c17(i0)},")
        print(f"        {c17(i1)}),")
    print("}")
    print()
    print("# name: (z, e^z K0, e^z K1, e^-z I0, e^-z I1)  [scaled]")
    print("BESSEL_REFERENCE_SCALED = {")
    for name, z in BESSEL_POINTS + SCALED_ONLY_POINTS:
        k0 = besselk(0, z) * exp(z)
        k1 = besselk(1, z) * exp(z)
        i0 = besseli(0, z) * exp(-z)
        i1 = besseli(1, z) * exp(-z)
        print(f'    "{name}": ({c17(z)},')
        print(f"        {c17(k0)},")
        print(f"        {c17(k1)},")
        print(f"        {c17(i0)},")
        print(f"        {c17(i1)}),")
    print("}")
    print()
    print("# K1(z) - 1/z at small/medium arguments (pole-removed remainder)")
    print("BESSEL_K1M_REFERENCE = {")
    for name, z in BESSEL_POINTS:
        if fabs(z) <= 17:
            k1m = besselk(1, z) - 1 / z
            print(f'    "{name}": ({c17(z)}, {c17(k1m)}),')
    print("}")
    print()


# ----------------------------------------------------------------------
# Section 2: flow-field reference values
# ----------------------------------------------------------------------

class Case:
    def __init__(self, name, a, f, v0=mpf(1)):
        self.name = name
        self.a = mpf(a)
        self.f = mpf(f)
        self.v0 = mpf(v0)
        self.omega = 2 * pi * self.f
        self.beta = sqrt(self.omega / NU0)
        self.ba = self.beta * self.a
        self.za = JM * self.ba

    def K0a(self):
        return besselk(0, self.za)

    def K1a(self):
        return besselk(1, self.za)

    def f_of_r(self, r):
        return 2 * JP * besselk(1, JM * self.beta * r) / self.K0a()

    def G(self, rho):
        return self.f_of_r(self.a * rho) / self.ba

    def coefficient_C(self):
        return I * RHO0 * self.a**2 * self.omega * self.v0 * (
            1 + (2 * JP / self.ba) * self.K1a() / self.K0a())

    def coefficient_B(self):
        C = self.coefficient_C()
        return -(RHO0 * self.a**2 * self.omega * self.v0 + I * C) / (self.a * self.K1a())

    def vr(self, r, theta, t):
        a, beta = self.a, self.beta
        bracket = (1 - a**2 / r**2 + self.f_of_r(r) / (beta * r)
                   - a * self.f_of_r(a) / (beta * r**2))
        return self.v0 * cos(theta) * exp(-I * self.omega * t) * bracket

    def vtheta(self, r, theta, t):
        a, beta = self.a, self.beta
        bracket = (-1 - a**2 / r**2
                   + 2 * besselk(0, JM * beta * r) / self.K0a()
                   + self.f_of_r(r) / (beta * r)
                   - a * self.f_of_r(a) / (beta * r**2))
        return self.v0 * sin(theta) * exp(-I * self.omega * t) * bracket

    def pressure(self, r, theta, t):
        a, beta = self.a, self.beta
        bracket = r + a**2 / r + a * self.f_of_r(a) / (beta * r)
        return I * self.v0 * RHO0 * self.omega * cos(theta) * exp(-I * self.omega * t) * bracket

    def vr_from_constants(self, r, theta, t):
        """Eq.-vrinh style evaluation through B and C (structural identity)."""
        B = self.coefficient_B()
        C = self.coefficient_C()
        bracket = (self.v0 + B * besselk(1, JM * self.beta * r) / (RHO0 * self.omega * r)
                   + I * C / (RHO0 * self.omega * r**2))
        return bracket * cos(theta) * exp(-I * self.omega * t)

    def force_analytic(self, t):
        fa = self.f_of_r(self.a)
        return (-I * 2 * pi * RHO0 * self.v0 * self.omega * self.a
                * (self.a + fa / self.beta) * exp(-I * self.omega * t))

    def force_buoyancy(self, t):
        return -I * 2 * pi * RHO0 * self.v0 * self.omega * self.a**2 * exp(-I * self.omega * t)

    def traction(self, theta, t):
        """Cartesian traction on r = a from the analytic stress tensor."""
        a = self.a
        mu0 = RHO0 * NU0
        # analytic radial derivatives at r = a: dvr/dr = 0, dvtheta/dr = i beta f(a) * v0 sin(theta) e^{-iwt}
        fa = self.f_of_r(a)
        phase = exp(-I * self.omega * t)
        p_a = self.pressure(a, theta, t)
        dvr_dr = mpc(0)
        dvth_dr = I * self.beta * fa * self.v0 * sin(theta) * phase
        # at r=a: vr = vtheta = 0 and d(vr)/dtheta = 0
        pi_rr = -p_a + 2 * mu0 * dvr_dr
        pi_rth = mu0 * dvth_dr
        tx = pi_rr * cos(theta) - pi_rth * sin(theta)
        ty = pi_rr * sin(theta) + pi_rth * cos(theta)
        return tx, ty

    def recovery_radius(self, fraction, n_grid=512):
        """Mirror of the production algorithm: 513-point log grid to 1e6 a, bisection."""
        frac = mpf(fraction)

        def g(rho):
            return fabs(self.vr(self.a * rho, 0, 0)) / self.v0

        rhos = [mpf(10) ** (mpf(6) * j / n_grid) for j in range(n_grid + 1)]
        vals = [g(rho) for rho in rhos]
        last_below = None
        for j, v in enumerate(vals):
            if v < frac:
                last_below = j
        if last_below is None:
            return self.a  # entire grid already recovered
        if last_below == n_grid:
            raise RuntimeError("recovery fraction not reached within 1e6 a")
        lo, hi = rhos[last_below], rhos[last_below + 1]
        while hi - lo > mpf("1e-7") * lo:
            mid = sqrt(lo * hi)
            if g(mid) >= frac:
                hi = mid
            else:
                lo = mid
        return self.a * (lo + hi) / 2


def section_flow():
    s1 = Case("S1", "1e-6", 10)
    s2 = Case("S2", "1e-6", 100)
    s3 = Case("S3", "1e-4", 1000)

    print("# === flow reference values (air20, v0 = 1) ===")
    for s in (s1, s2, s3):
        print(f"# --- {s.name}: a = {r17(s.a)} m, f = {r17(s.f)} Hz ---")
        print(f'"{s.name}_ba": {r17(s.ba)},')
        print(f'"{s.name}_C": {c17(s.coefficient_C())},')
        print(f'"{s.name}_B": {c17(s.coefficient_B())},')
        print(f'"{s.name}_fa": {c17(s.f_of_r(s.a))},')
    print()
    print("# S1 field samples")
    print(f'"S1_vr_5a": {c17(s1.vr(5 * s1.a, 0, 0))},')
    print(f'"S1_vtheta_5a": {c17(s1.vtheta(5 * s1.a, pi / 2, 0))},')
    print(f'"S1_p_2a": {c17(s1.pressure(2 * s1.a, 0, 0))},')
    print(f'"S1_force_abs": {r17(fabs(s1.force_analytic(0)))},')
    print()
    print("# S2 traction and forces")
    tx, ty = s2.traction(pi / 4, 0)
    print(f'"S2_traction_x": {c17(tx)},')
    print(f'"S2_traction_y": {c17(ty)},')
    print(f'"S2_force_abs": {r17(fabs(s2.force_analytic(0)))},')
    print(f'"S2_force_buoyancy_abs": {r17(fabs(s2.force_buoyancy(0)))},')
    print()
    print("# structural identity check (S3): bracket form vs constants form at r=3a")
    v_direct = s3.vr(3 * s3.a, mpf("0.7"), 0)
    v_consts = s3.vr_from_constants(3 * s3.a, mpf("0.7"), 0)
    print(f"#   bracket  : {c17(v_direct)}")
    print(f"#   constants: {c17(v_consts)}")
    print(f"#   rel diff : {r17(fabs(v_direct - v_consts) / fabs(v_direct))}")
    print()

    print("# recovery radii (fraction 0.9, a = 1e-6 m)")
    mp.dps = 25
    rec = {}
    for s in (s1, s2, Case("S1k", "1e-6", 1000)):
        rec[s.name] = s.recovery_radius(mpf("0.9"))
        print(f'"{s.name}_recovery09": {r17(rec[s.name])},')
    mp.dps = 50
    print(f"# monotone decreasing with f: {rec['S1'] > rec['S2'] > rec['S1k']}")
    print()

    print("# |v_theta(r, pi/2)|/v0 overshoot check (S1): max over log grid")
    mp.dps = 25
    best = (mpf(0), mpf(1))
    for j in range(601):
        rho = mpf(10) ** (mpf(4) * j / 600)
        val = fabs(s1.vtheta(s1.a * rho, pi / 2, 0)) / s1.v0
        if val > best[0]:
            best = (val, rho)
    mp.dps = 50
    print(f"#   max |v_theta|/v0 = {r17(best[0])} at r/a = {r17(best[1])}")
    print()

    print("# criterion sanity: |F|/v0 at a=1e-5 over f=100..1000 (10 pts) monotone?")
    mp.dps = 30
    prev = None
    mono = True
    ratios = []
    for k in range(10):
        f = mpf(100) * (mpf(10) ** (mpf(k) / 9))
        s = Case("tmp", "1e-5", f)
        val = fabs(s.force_analytic(0))
        if prev is not None and val <= prev:
            mono = False
        prev = val
        s6 = Case("tmp6", "1e-6", f)
        ratios.append(fabs(s6.force_buoyancy(0)) / fabs(s6.force_analytic(0)))
    mp.dps = 50
    print(f"#   monotone increasing: {mono}")
    print(f"#   max |F_p|/|F| at a=1e-6 over same range: {r17(max(ratios))}")
    print()


# ----------------------------------------------------------------------
# Section 3: finite-difference truncation levels (pure truncation, no roundoff)
# ----------------------------------------------------------------------

def fd_residuals(s, r, theta, rel_h):
    """Normalized PDE residuals via central differences in extended precision."""
    h = rel_h * r
    ht = h / r
    w, nu = s.omega, NU0

    def vr(rr, th):
        return s.vr(rr, th, 0)

    def vth(rr, th):
        return s.vtheta(rr, th, 0)

    def p(rr, th):
        return s.pressure(rr, th, 0)

    def d_r(fn, rr, th):
        return (fn(rr + h, th) - fn(rr - h, th)) / (2 * h)

    def d_rr(fn, rr, th):
        return (fn(rr + h, th) - 2 * fn(rr, th) + fn(rr - h, th)) / h**2

    def d_t(fn, rr, th):
        return (fn(rr, th + ht) - fn(rr, th - ht)) / (2 * ht)

    def d_tt(fn, rr, th):
        return (fn(rr, th + ht) - 2 * fn(rr, th) + fn(rr, th - ht)) / ht**2

    vr0 = vr(r, theta)
    vth0 = vth(r, theta)

    cont = d_r(vr, r, theta) + vr0 / r + d_t(vth, r, theta) / r
    cont_n = fabs(cont) / (s.v0 / s.a)

    mom_r = (-I * w * vr0
             - (-d_r(p, r, theta) / RHO0
                + nu * (d_rr(vr, r, theta) + d_tt(vr, r, theta) / r**2
                        + d_r(vr, r, theta) / r - 2 * d_t(vth, r, theta) / r**2
                        - vr0 / r**2)))
    mom_t = (-I * w * vth0
             - (-d_t(p, r, theta) / (r * RHO0)
                + nu * (d_rr(vth, r, theta) + d_tt(vth, r, theta) / r**2
                        + d_r(vth, r, theta) / r + 2 * d_t(vr, r, theta) / r**2
                        - vth0 / r**2)))
    mom_rn = fabs(mom_r) / (s.v0 * w)
    mom_tn = fabs(mom_t) / (s.v0 * w)

    lap = d_rr(p, r, theta) + d_r(p, r, theta) / r + d_tt(p, r, theta) / r**2
    lap_n = fabs(lap) / (RHO0 * w * s.v0 / s.a)
    return cont_n, mom_rn, mom_tn, lap_n


def section_residuals():
    s3 = Case("S3", "1e-4", 1000)
    print("# === FD truncation levels at S3 (a=1e-4 m, f=1000 Hz), h = 1e-4 r ===")
    for rho in (mpf("1.1"), mpf("3.1623"), mpf("100")):
        vals = fd_residuals(s3, s3.a * rho, mpf("0.7"), mpf("1e-4"))
        print(f"#   rho = {r17(rho)}: cont={r17(vals[0])} mom_r={r17(vals[1])} "
              f"mom_t={r17(vals[2])} lap={r17(vals[3])}")
    print("# order check at rho=1.1: h and h/2")
    a = fd_residuals(s3, s3.a * mpf("1.1"), mpf("0.7"), mpf("2e-3"))
    b = fd_residuals(s3, s3.a * mpf("1.1"), mpf("0.7"), mpf("1e-3"))
    for i, nm in enumerate(["cont", "mom_r", "mom_t", "lap"]):
        print(f"#   {nm}: order = {r17(log(a[i] / b[i]) / log(2))}")
    print()


if __name__ == "__main__":
    section_bessel()
    section_flow()
    section_residuals()
