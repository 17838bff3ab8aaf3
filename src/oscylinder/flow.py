"""Closed-form time-harmonic creeping flow past a circular cylinder.

A cylinder of radius a sits in fluid whose velocity far away oscillates
as v0 e^{-i omega t} along x.  With beta = sqrt(omega/nu0),
j- = (1-i)/sqrt(2) and f(r) = 2 j+ K1(j- beta r)/K0(j- beta a), every
phasor field for r >= a is an angle factor times a radial bracket in
rho = r/a times the phase:

    v_r     = v0 cos(theta) e^{-i omega t} B_r(rho)
    v_theta = v0 sin(theta) e^{-i omega t} B_theta(rho)
    p       = i v0 rho0 omega a cos(theta) e^{-i omega t} P(rho)

    B_r     =  1 + b G(rho)/rho - c (1 + g1)/rho^2
    B_theta = -1 + b (2 K0(j- ba rho)/K0(j- ba) + G(rho)/rho)
                 - c (1 + g1)/rho^2
    P       = rho + c (1 + g1)/rho

where ba = beta a, G(rho) = f(a rho)/ba and g1 = f(a)/ba.  b and c weigh
the B mode (the K1 term) and the C mode (the dipole) of the general
solution; both are 1 for the physical solution, which then has no slip
at rho = 1.  Physical fields are the real parts.

Each Scenario builds one coefficient set (_Coefficients) on first use:
ba with the beta factor applied, b, c, and g1 with the f_a factor
applied, plus the Bessel values at the surface, from one Bessel lookup.
_radial(s, rho) returns B_r, B_theta and P, the brackets every field
sampler reads, memoised per rho; _slopes(s, rho) forms the
rho-derivatives B_r' and B_theta' that only the stress in forces reads.
A rho whose Bessel argument ba rho is not finite is refused in both,
naming rho and ba.  _fields, the block sampler, is angle x _radial x
phase for v_r, v_theta and p over one rho, one phase and a sequence of
angles, with one _radial lookup per block; it serves flow_state (a
single angle) and the residual stencils in residuals.
residuals.boundary_suite, the field and profile commands in cli and
forces._stress form the same products from _radial themselves, each only
the columns it reads; tests pin the boundary checks to a flow_state
reference and the cli rows to flow_state, bit for bit.  Stress, traction
and force are angle x (_radial, _slopes) x phase products too, so a
Perturbation reaches every field the same way.  Every field is linear in
v0, so what is relative to v0 (the residual and boundary checks, the
profile and force columns) is formed at unit amplitude, v0 = 1.  The
phase e^{-i omega t} (_phase) refuses an omega t that is not finite,
naming t, f and omega t; one phase serves each block, stress point or
force row.

Two evaluation branches keep the brackets well-conditioned:

* ba < 1: K1(z) carries a 1/z pole, so G(rho) = q/rho + W(rho) with
  q = 2i/(ba^2 K0(j- ba)) ~ 1/ba^2 and W regular (K1 - 1/z, bessel_k_pair).
  The q/rho^2 parts of b G/rho and c g1/rho^2 merge into one wall term
  of weight c f_a - b, exactly zero unperturbed, so only W is evaluated
  at each radius.
* ba >= 1: no pole (q = 0), but K decays like e^{-beta r/sqrt(2)}, so
  ratios are formed from scaled Bessel values with an explicit
  e^{-j- ba (rho-1)} factor that can underflow harmlessly.

The pole-subtracted form develops its own cancellation once ba is
large, hence the branch switch at ba = 1 where both forms are healthy.
At rho = 1 the no-slip zeros come out bitwise: the rho-dependent and
a-dependent terms share the same floats and cancel exactly.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from functools import cached_property

from .bessel import BesselDomainError, bessel_k_pair

_SQRT1_2 = 1.0 / math.sqrt(2.0)
J_PLUS = complex(_SQRT1_2, _SQRT1_2)    # (1+i)/sqrt(2)
J_MINUS = complex(_SQRT1_2, -_SQRT1_2)  # (1-i)/sqrt(2)
_2J_PLUS = 2.0 * J_PLUS

#: bracket-evaluation branch switch (see module docstring)
SMALL_BA = 1.0

#: coefficients that can be perturbed for sensitivity checks
PERTURBABLE = ("B", "C", "f_a", "beta")

#: _make of the checked records, so that _replace also runs __new__'s checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class RecoveryNotFoundError(RuntimeError):
    """Velocity never recovers to the requested fraction within the scan range."""


def _positive(name, value):
    # a comparison, not math.isfinite, which raises OverflowError on an int
    # too large for a float; it also refuses NaN and inf
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


class Fluid(namedtuple("Fluid", "nu0 rho0")):
    """Newtonian fluid, described by kinematic viscosity and density."""

    __slots__ = ()
    _make = _checked_make
    nu0: float   # kinematic viscosity [m^2/s]
    rho0: float  # density [kg/m^3]

    def __new__(cls, nu0, rho0):
        _positive("nu0", nu0)
        _positive("rho0", rho0)
        return tuple.__new__(cls, (nu0, rho0))

    @property
    def mu0(self) -> float:
        """Dynamic viscosity [Pa s], always rho0 * nu0."""
        return self.rho0 * self.nu0


#: dry air at 20 C
AIR_20C = Fluid(nu0=15.11e-6, rho0=1.204)


class Perturbation(namedtuple("Perturbation", "coefficient factor")):
    """Multiply one solution coefficient by `factor` (sensitivity hook).

    Coefficient names: "B" and "C" are the constants of the general
    radial solution, "f_a" is the surface value f(a), "beta" the
    inverse viscous length.  Exactly one coefficient is perturbed.
    """

    __slots__ = ()
    _make = _checked_make
    coefficient: str
    factor: float

    def __new__(cls, coefficient, factor):
        if coefficient not in PERTURBABLE:
            raise ValueError(
                f"coefficient must be one of {PERTURBABLE}, got {coefficient!r}")
        _positive("factor", factor)
        return tuple.__new__(cls, (coefficient, factor))


class PolarPoint(namedtuple("PolarPoint", "r theta")):
    __slots__ = ()
    _make = _checked_make
    r: float       # radius [m]
    theta: float   # azimuth [rad]; any real value, used through cos/sin

    def __new__(cls, r, theta):
        fmax = sys.float_info.max
        if not (-fmax <= r <= fmax and -fmax <= theta <= fmax):
            raise ValueError("PolarPoint components must be finite")
        return tuple.__new__(cls, (r, theta))


class FlowState(namedtuple("FlowState", "vr vtheta p")):
    """Field phasors at one point: multiply by nothing, take .real for physics."""

    __slots__ = ()
    vr: complex      # [m/s]
    vtheta: complex  # [m/s]
    p: complex       # [Pa]


class _Coefficients:
    """One scenario's coefficient set, with its perturbation folded in.

    ba is the Bessel-argument scale (beta factor applied), b and c the B-
    and C-mode weights, g1 = f(a)/ba (f_a factor applied).  k0_za is
    K0(za) at za = j- ba, scaled by e^za on the ba >= 1 branch.  G(rho)
    splits into q/rho plus a regular part (q = 0 for ba >= 1); g1r and
    k0r1 are the regular part and the K0 ratio at rho = 1, which _radial
    and _slopes reuse there; pole = i ba^2 q is the pole part of
    i ba^2 G(rho) rho, kept exact as -2/K0(za).  `excess` is the wall term
    beyond c (1 + g1r): c (f_a - 1) g1 + (c - b) q, zero unperturbed.
    The surface pair is fetched once and passed to _ratios at rho = 1 for
    g1r and k0r1.  `memo` maps rho to its _radial brackets, so _radial
    runs terms() once per distinct rho; it is emptied when it reaches 4096
    entries.
    """

    __slots__ = ("ba", "small", "za", "k0_za", "b", "c", "q", "pole", "g1r",
                 "k0r1", "g1", "excess", "memo")

    def __init__(self, s: Scenario):
        p = s.perturbation
        name, factor = (None, 1.0) if p is None else p
        ba = self.ba = s.ba * (factor if name == "beta" else 1.0)
        c = self.c = factor if name == "C" else 1.0
        self.b = factor if name == "B" else 1.0
        self.za = J_MINUS * ba
        small = self.small = ba < SMALL_BA
        try:
            k0, k1 = bessel_k_pair(self.za, scaled=not small)
            self.k0_za = k0
            if small:
                self.q = 2j / (ba * ba * k0)
                self.pole = -(2.0 / k0)
            else:
                self.q = self.pole = 0j
            self.g1r, self.k0r1 = self._ratios(1.0, k0, k1)
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"the solution cannot be evaluated at "
                             f"beta a = {ba:g}: {exc}") from None
        g1 = self.q + self.g1r
        fa = factor if name == "f_a" else 1.0
        self.g1 = g1 * fa
        if not cmath.isfinite(self.g1):
            raise ValueError(f"f(a)/(beta a) = {self.g1} is not finite at "
                             f"beta a = {ba:g}")
        self.excess = c * ((fa - 1.0) * g1) + (c - self.b) * self.q
        self.memo = {}

    def terms(self, rho: float) -> tuple[complex, complex]:
        """Regular part of G(rho) and K0(j- ba rho)/K0(j- ba), underflow-safe."""
        ba = self.ba
        x = ba * rho
        if not x < math.inf:  # r/a is inf or NaN, or a finite r/a overflows here
            raise BesselDomainError(f"r/a = {rho!r} is out of range at beta a = "
                                    f"{ba:g}: the Bessel argument must be finite, "
                                    f"got beta a * r/a = {x!r}")
        return self._ratios(rho, *bessel_k_pair(J_MINUS * x, scaled=not self.small))

    def _ratios(self, rho: float, k0: complex, k1: complex) -> tuple[complex, complex]:
        """terms(rho) from (k0, k1) = bessel_k_pair(j- ba rho), scaled when ba >= 1."""
        ba = self.ba
        if self.small:
            return _2J_PLUS * k1 / (ba * self.k0_za), k0 / self.k0_za
        decay = cmath.exp(-J_MINUS * (ba * (rho - 1.0)))
        return _2J_PLUS * k1 * decay / (ba * self.k0_za), k0 * decay / self.k0_za


class Scenario(namedtuple("Scenario", "fluid a v0 omega perturbation")):
    """One flow problem: fluid, cylinder radius, far-field amplitude, frequency."""

    _make = _checked_make
    fluid: Fluid
    a: float       # cylinder radius [m]
    v0: float      # far-field speed amplitude [m/s]
    omega: float   # angular frequency [rad/s]
    perturbation: Perturbation | None

    def __new__(cls, fluid, a, v0, omega, perturbation=None):
        if not isinstance(fluid, Fluid):
            raise ValueError(f"fluid must be a Fluid, got {fluid!r}")
        _positive("a", a)
        _positive("omega", omega)  # omega = 0 has no bounded 2-D solution
        if isinstance(v0, bool) or not (isinstance(v0, (int, float))
                                        and 0 <= v0 <= sys.float_info.max):
            raise ValueError(f"v0 must be finite and >= 0, got {v0!r}")
        if not (perturbation is None or isinstance(perturbation, Perturbation)):
            raise ValueError(f"perturbation must be None or a Perturbation, "
                             f"got {perturbation!r}")
        return tuple.__new__(cls, (fluid, a, v0, omega, perturbation))

    def __setattr__(self, name, value):  # __dict__ (no __slots__) holds only the cache
        raise AttributeError(f"cannot assign to field {name!r}")

    @classmethod
    def from_frequency(cls, fluid: Fluid, a: float, v0: float, f: float,
                       perturbation: Perturbation | None = None) -> "Scenario":
        _positive("f", f)
        return cls(fluid=fluid, a=a, v0=v0, omega=2.0 * math.pi * f,
                   perturbation=perturbation)

    @property
    def beta(self) -> float:
        """Inverse viscous length sqrt(omega/nu0) [1/m]."""
        return math.sqrt(self.omega / self.fluid.nu0)

    @property
    def ba(self) -> float:
        """Dimensionless frequency parameter beta * a."""
        return self.beta * self.a

    @property
    def delta(self) -> float:
        """Oscillatory boundary-layer thickness sqrt(2 nu0/omega) [m]."""
        return math.sqrt(2.0 * self.fluid.nu0 / self.omega)

    @property
    def frequency(self) -> float:
        return self.omega / (2.0 * math.pi)

    @cached_property
    def _coefficients(self) -> _Coefficients:
        return _Coefficients(self)


# ----------------------------------------------------------------------
# bracket evaluation
# ----------------------------------------------------------------------

def _radial(s: Scenario, rho: float) -> tuple[complex, complex, complex]:
    """(B_r, B_theta, P) at rho = r/a, the brackets every field sampler reads.

    At rho = 1 the velocity brackets vanish bitwise when unperturbed: every
    term evaluated there reuses the floats cached in the coefficient set.
    Results are kept in the set's memo by rho and returned on later calls;
    each dict get or set is atomic, so threads sharing a Scenario agree.
    """
    k = s._coefficients
    hit = k.memo.get(rho)
    if hit is not None:
        return hit
    b, c = k.b, k.c
    gr, k0r = (k.g1r, k.k0r1) if rho == 1.0 else k.terms(rho)
    inv2 = 1.0 / (rho * rho)
    tail = b * gr / rho - (c * k.g1r) * inv2
    wall = k.excess * inv2
    br = (1.0 - c * inv2) + tail - wall
    bth = (-1.0 - c * inv2 + b * (2.0 * k0r)) + tail - wall
    pb = (rho + c / rho) + (c * k.g1) / rho
    result = br, bth, pb
    if len(k.memo) >= 4096:  # as many entries as the Bessel cache holds
        k.memo.clear()
    k.memo[rho] = result
    return result


def _slopes(s: Scenario, rho: float) -> tuple[complex, complex]:
    """(dB_r/drho, dB_theta/drho) at rho = r/a, for the stress in forces.

    dK0/dz = -K1 and dK1/dz = -K0 - K1/z give G'(rho) = -2 k0r(rho) -
    G(rho)/rho for the K0 ratio k0r, and B_theta - B_r = 2 b k0r - 2, so
    B_theta' = B_r' + i b ba^2 G(rho).  At rho = 1, B_r' vanishes bitwise
    when unperturbed, as the brackets do in _radial.
    """
    k = s._coefficients
    b, c2, ba = k.b, 2.0 * k.c, k.ba
    gr, k0r = (k.g1r, k.k0r1) if rho == 1.0 else k.terms(rho)
    inv = 1.0 / rho
    inv2 = 1.0 / (rho * rho)
    inv3 = inv2 * inv
    dbr = (c2 * inv3 - b * (2.0 * k0r * inv) - b * (2.0 * gr * inv2)
           + (c2 * k.g1r) * inv3)
    dbth = dbr + b * (1j * (ba * ba) * gr) + b * (k.pole * inv)
    dwall = (2.0 * k.excess) * inv3
    return dbr + dwall, dbth + dwall


def _check_radius(s: Scenario, r: float) -> float:
    if not abs(r) <= sys.float_info.max:  # not math.isfinite: see _positive
        raise ValueError(f"field point radius {r!r} is out of range (not finite)")
    if r < s.a:
        raise ValueError(f"field point radius {r!r} is below the cylinder surface a={s.a!r}")
    return r / s.a


def _phase(s: Scenario, t: float) -> complex:
    """e^{-i omega t}; a t or omega t that is not finite is refused by name."""
    if not abs(t) <= sys.float_info.max:  # before omega * t, which a huge int overflows
        raise ValueError(f"time t = {t!r} s is out of range (not finite)")
    wt = s.omega * t
    if not -math.inf < wt < math.inf:
        raise ValueError(f"the phase omega t = {wt!r} at t = {t!r} s, "
                         f"f = {s.frequency:g} Hz is out of range (not finite)")
    return cmath.exp(complex(0.0, -wt))


def _fields(s: Scenario, rho: float, angles,
            ph: complex) -> list[tuple[complex, complex, complex]]:
    """(v_r, v_theta, p) at rho = r/a and phase ph, one per (cos theta, sin
    theta) pair in angles: one _radial lookup for the whole block."""
    br, bth, pb = _radial(s, rho)
    v0 = s.v0
    pv = 1j * v0 * s.fluid.rho0 * s.omega * s.a
    return [(v0 * c * ph * br, v0 * sn * ph * bth, pv * c * ph * pb)
            for c, sn in angles]


# ----------------------------------------------------------------------
# public field evaluation
# ----------------------------------------------------------------------

def flow_state(s: Scenario, pt: PolarPoint, t: float) -> FlowState:
    """Velocity [m/s] and pressure [Pa] phasors at a point, time t [s]."""
    angle = ((math.cos(pt.theta), math.sin(pt.theta)),)
    return FlowState(*_fields(s, _check_radius(s, pt.r), angle, _phase(s, t))[0])


def velocity(s: Scenario, pt: PolarPoint, t: float) -> tuple[complex, complex]:
    """Velocity phasors (v_r, v_theta) at a point, time t [s]."""
    return flow_state(s, pt, t)[:2]


def pressure(s: Scenario, pt: PolarPoint, t: float) -> complex:
    """Pressure phasor [Pa] at a point, time t [s]."""
    return flow_state(s, pt, t).p


def f_of_r(s: Scenario, r: float) -> complex:
    """The Bessel abbreviation f(r) = 2 j+ K1(j- beta r)/K0(j- beta a)."""
    rho = _check_radius(s, r)
    k = s._coefficients
    return k.ba * (k.q / rho + k.terms(rho)[0])


def coefficient_C(s: Scenario) -> complex:
    """Pressure-dipole constant C [Pa m] of the solution, c-weighted."""
    k = s._coefficients
    return k.c * (1j * s.fluid.rho0 * s.a * s.a * s.omega * s.v0 * (1.0 + k.g1))


def coefficient_B(s: Scenario) -> complex:
    """Constant B multiplying K1(j- beta r) in the radial solution, b-weighted.

    Algebraically B = -(rho0 a^2 omega v0 + iC)/(a K1(j- beta a)), which
    collapses to 2 j+ rho0 a omega v0/(ba K0(j- beta a)).  The collapsed
    form avoids dividing by K1 values that underflow at large ba; B
    itself still grows like e^{ba/sqrt 2} and raises OverflowError once
    it leaves double range.
    """
    k = s._coefficients
    num = k.b * 2.0 * J_PLUS * s.fluid.rho0 * s.a * s.omega * s.v0
    try:
        value = (num / (k.ba * k.k0_za) if k.small
                 else num * cmath.exp(k.za) / (k.ba * k.k0_za))
    except OverflowError:  # e^za itself leaves double range
        value = math.inf
    if not cmath.isfinite(value):
        raise OverflowError(f"coefficient B ~ e^(beta a/sqrt 2) exceeds double "
                            f"range at beta a = {k.ba:g}")
    return value


def reynolds_number(s: Scenario) -> float:
    """Re = v0 a / nu0 (convective scale; report ba separately)."""
    return s.v0 * s.a / s.fluid.nu0


#: grid used by recovery_radius: 513 log-spaced points spanning [a, 1e6 a]
_RECOVERY_GRID_DECADES = 6.0
_RECOVERY_GRID_N = 512


def recovery_radius(s: Scenario, fraction: float) -> float:
    """Smallest radius where |v_r(r, 0)|/v0 has recovered to `fraction`.

    Scans a log-spaced grid inward from 1e6 a for the outermost sample
    below the fraction, then bisects to 1e-6 relative tolerance in r.  Raises
    RecoveryNotFoundError when even the outermost sample is below the
    fraction.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")

    def g(rho: float) -> float:
        return abs(_radial(s, rho)[0])

    n = _RECOVERY_GRID_N
    rhos = [10.0 ** (_RECOVERY_GRID_DECADES * j / n) for j in range(n + 1)]
    last_below = next((j for j in range(n, -1, -1) if g(rhos[j]) < fraction), None)
    if last_below is None:
        return s.a
    if last_below == n:
        raise RecoveryNotFoundError(
            f"|v_r|/v0 stays below {fraction} out to 1e6 a (beta a = {s.ba:g})")
    lo, hi = rhos[last_below], rhos[last_below + 1]
    while hi - lo > 1e-6 * lo:
        mid = math.sqrt(lo * hi)
        if g(mid) >= fraction:
            hi = mid
        else:
            lo = mid
    return s.a * 0.5 * (lo + hi)


class ValidityReport(namedtuple("ValidityReport", "reynolds frequency_parameter "
                                "boundary_layer_thickness recovery_radius_90 "
                                "warn_nonlinear warn_long_range")):
    """Regime diagnostics for one scenario."""

    __slots__ = ()
    reynolds: float                 # v0 a / nu0
    frequency_parameter: float      # beta a
    boundary_layer_thickness: float  # sqrt(2 nu0/omega) [m]
    recovery_radius_90: float | None  # [m]; None if not reached within 1e6 a
    warn_nonlinear: bool            # Re >= 0.1: convective term not negligible
    warn_long_range: bool           # 90 % recovery farther than 1e3 a


def validity_report(s: Scenario) -> ValidityReport:
    re = reynolds_number(s)
    try:
        r90 = recovery_radius(s, 0.9)
        long_range = r90 > 1e3 * s.a
    except RecoveryNotFoundError:
        r90 = None
        long_range = True
    return ValidityReport(re, s.ba, s.delta, r90, re >= 0.1, long_range)
