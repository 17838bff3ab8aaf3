"""Command-line interface: CSV emitters and a self-check command.

Subcommands
-----------
profile   radial decay of |v_r(r, 0)| and |v_theta(r, pi/2)|
field     Cartesian grid of pressure and velocity around the cylinder
force     force per unit length versus frequency (four evaluation paths)
validate  prints residuals.validate_checks; exit 0 on pass, 1 on fail

All CSV output is byte-deterministic: floats are written with 17
significant digits (round-trip exact), rows are emitted in a fixed
order, and line endings are always "\\n".  Each subcommand accepts only
the options it reads: field and validate evaluate the one frequency --f,
while profile and force also take --f-list/--f-range, deduplicated and
sorted ascending before any computation, so the row order never depends
on input order; --mode belongs to profile and --v0 to field: profile,
force and validate print values relative to v0, formed at unit amplitude
(RunConfig.scenario).  force computes each row in one pass, serially:
forces._force_row takes one phase, one common factor and one wall stress
for the buoyancy, viscous and quadrature columns, and |F_b + F_v| is the
exact force_analytic column; --jobs (>= 1) is accepted but starts no
threads.

profile and field form each point as angle x flow._radial x phase, the
products flow._fields forms for flow_state and the residual checks, in the
same order (forces._stress builds the stress the same way); tests pin
every row to flow_state bit for bit.  field formats each grid row with one
"%" (x in a per-column prefix, y in the row template, masked points
literal): "%.16e" % v is f"{v:.16e}".  A radius, r/a or grid span that is
NaN or overflows is refused with a message naming it, as are a Bessel
argument beta a r/a, a field pressure |p| and a force value beyond double
range.

Exit codes: 0 success, 1 validation failure, 2 invalid input or I/O
error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import math
import os
import sys
from collections import namedtuple
from functools import lru_cache

from .bessel import BesselDomainError
from .flow import AIR_20C, Fluid, Perturbation, Scenario, _phase, _radial
from .forces import _force_row
from .residuals import validate_checks

_MODES = ("re", "im", "abs", "phase")

#: per-command fallbacks when --a / frequency flags are omitted
_DEFAULT_A = {"profile": 1e-6, "field": 1e-6, "force": 1e-6, "validate": 1e-4}
_DEFAULT_F = {"profile": 10.0, "field": 100.0, "validate": 1000.0}
_DEFAULT_F_RANGE = "1:1e4:200"  # force command: log-spaced sweep


class RunConfig(namedtuple("RunConfig", "fluid a t frequencies out perturbation")):
    """Scenario and I/O settings shared by every subcommand."""

    __slots__ = ()
    fluid: Fluid
    a: float
    t: float
    frequencies: tuple[float, ...]
    out: str | None
    perturbation: Perturbation | None

    def scenario(self, f: float) -> Scenario:
        """The unit-amplitude (v0 = 1) scenario at frequency f."""
        return Scenario.from_frequency(self.fluid, self.a, 1.0, f,
                                       perturbation=self.perturbation)


def _mode_value(z: complex, mode: str) -> float:
    if mode == "re":
        return z.real
    if mode == "im":
        return z.imag
    if mode == "phase":
        return cmath.phase(z)
    return abs(z)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
        sys.stdout.flush()  # a reader that left raises here, inside main()
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            yield fh


def _write_csv(stream, header: list[str], lines) -> None:
    """Header, then the pre-joined "\\n"-terminated lines, one write per
    string (a field grid row is one string): a single large write to a pipe
    whose reader left can come back short without raising BrokenPipeError."""
    stream.write(",".join(header) + "\n")
    stream.writelines(lines)


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _parse_float(parser, text, name, positive=True):
    try:
        value = float(text)
    except ValueError:
        parser.error(f"{name}: not a number: {text!r}")
    if not math.isfinite(value) or (positive and value <= 0.0):
        parser.error(f"{name}: must be a positive finite number, got {text!r}")
    return value


def _parse_f_list(parser, text) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        parser.error("--f-list: empty list")
    return [_parse_float(parser, piece, "--f-list entry") for piece in items]


def _parse_f_range(parser, text) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--f-range: expected LO:HI:N, got {text!r}")
    lo = _parse_float(parser, parts[0], "--f-range LO")
    hi = _parse_float(parser, parts[1], "--f-range HI")
    try:
        n = int(parts[2])
    except ValueError:
        parser.error(f"--f-range: N must be an integer, got {parts[2]!r}")
    if n < 2 or hi <= lo:
        parser.error("--f-range: need HI > LO and N >= 2")
    la, lb = math.log10(lo), math.log10(hi)
    return [10.0 ** (la + (lb - la) * k / (n - 1)) for k in range(n)]


def _parse_grid(parser, text) -> tuple[float, float, int, float, float, int]:
    try:
        xpart, ypart = text.split(",")
        x0s, x1s, nxs = xpart.split(":")
        y0s, y1s, nys = ypart.split(":")
        x0, x1, y0, y1 = float(x0s), float(x1s), float(y0s), float(y1s)
        nx, ny = int(nxs), int(nys)
    except ValueError:
        parser.error(f"--grid: expected XMIN:XMAX:NX,YMIN:YMAX:NY, got {text!r}")
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        parser.error("--grid: bounds must be finite")
    if x1 <= x0 or y1 <= y0 or nx < 2 or ny < 2:
        parser.error("--grid: need XMAX > XMIN, YMAX > YMIN and NX, NY >= 2")
    return x0, x1, nx, y0, y1, ny


def _parse_mutate(parser, text) -> Perturbation:
    parts = text.split(":")
    if len(parts) != 2:
        parser.error(f"--mutate: expected COEFF:FACTOR, got {text!r}")
    names = {"B": "B", "C": "C", "fa": "f_a", "f_a": "f_a", "beta": "beta"}
    if parts[0] not in names:
        parser.error(f"--mutate: unknown coefficient {parts[0]!r} "
                     f"(choose from B, C, fa, beta)")
    factor = _parse_float(parser, parts[1], "--mutate FACTOR")
    return Perturbation(coefficient=names[parts[0]], factor=factor)


@lru_cache(maxsize=None)  # one parser per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscylinder",
        description="Oscillatory creeping flow around a circular cylinder: "
                    "closed-form fields, forces, and residual checks.")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    fluid_group = common.add_argument_group(
        "fluid", f"default: air at 20 C (nu0 = {AIR_20C.nu0:g} m^2/s, "
                 f"rho0 = {AIR_20C.rho0:g} kg/m^3)")
    fluid_group.add_argument("--nu0", type=float, default=None,
                             help="kinematic viscosity [m^2/s] (with --rho0)")
    fluid_group.add_argument("--rho0", type=float, default=None,
                             help="density [kg/m^3] (with --nu0)")
    common.add_argument("--a", type=float, default=None,
                        help="cylinder radius [m]")
    common.add_argument("--t", type=float, default=0.0, help="time [s] (default 0)")
    common.add_argument("--out", default=None,
                        help="output CSV path (default: stdout)")
    common.add_argument("--mutate", default=None, metavar="COEFF:FACTOR",
                        help="multiply one solution coefficient (B, C, fa, beta) "
                             "by FACTOR before evaluating")

    # field and validate evaluate one frequency; profile and force sweep a list
    single = argparse.ArgumentParser(add_help=False, parents=[common])
    single.add_argument("--f", type=float, default=None, help="frequency [Hz]")
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    freq = sweep.add_mutually_exclusive_group()
    freq.add_argument("--f", type=float, default=None, help="frequency [Hz]")
    freq.add_argument("--f-list", default=None,
                      help="comma-separated frequencies [Hz]")
    freq.add_argument("--f-range", default=None,
                      help="LO:HI:N log-spaced frequencies [Hz]")

    p_profile = sub.add_parser("profile", parents=[sweep],
                               help="radial velocity-magnitude profile CSV")
    p_profile.add_argument("--mode", choices=_MODES, default="abs",
                           help="complex-to-real reduction of the velocity "
                                "columns (default abs)")
    p_profile.add_argument("--rmax-factor", type=float, default=1e4,
                           help="outer radius as multiple of a (default 1e4)")
    p_profile.add_argument("--nr", type=int, default=200,
                           help="number of log-spaced radii (default 200)")

    p_field = sub.add_parser("field", parents=[single],
                             help="Cartesian field-map CSV")
    p_field.add_argument("--v0", type=float, default=1.0,
                         help="far-field speed amplitude [m/s] (default 1)")
    p_field.add_argument("--grid", default=None,
                         metavar="XMIN:XMAX:NX,YMIN:YMAX:NY",
                         help="grid bounds [m] and point counts "
                              "(default: +-4a, 41x41)")

    p_force = sub.add_parser("force", parents=[sweep],
                             help="force per unit length vs frequency CSV")
    p_force.add_argument("--nodes", type=int, default=512,
                         help="quadrature nodes on the surface (default 512)")
    p_force.add_argument("--jobs", type=int, default=1,
                         help="accepted for compatibility (>= 1); rows are "
                              "computed serially (default 1)")

    p_validate = sub.add_parser("validate", parents=[single],
                                help="equation residuals and boundary checks")
    p_validate.add_argument("--h-rel", type=float, default=1e-4,
                            help="radial FD step as fraction of r (default 1e-4)")

    return parser


def _resolve_config(parser, args) -> RunConfig:
    if (args.nu0 is None) != (args.rho0 is None):
        parser.error("--nu0 and --rho0 must be given together")
    if args.nu0 is not None:
        if not (math.isfinite(args.nu0) and args.nu0 > 0):
            parser.error(f"--nu0: must be positive, got {args.nu0}")
        if not (math.isfinite(args.rho0) and args.rho0 > 0):
            parser.error(f"--rho0: must be positive, got {args.rho0}")
        fluid = Fluid(nu0=args.nu0, rho0=args.rho0)
    else:
        fluid = AIR_20C

    a = args.a if args.a is not None else _DEFAULT_A[args.command]
    if not (math.isfinite(a) and a > 0):
        parser.error(f"--a: must be positive, got {a}")
    if args.command == "field" and not (math.isfinite(args.v0) and args.v0 >= 0):
        parser.error(f"--v0: must be >= 0, got {args.v0}")
    if not math.isfinite(args.t):
        parser.error(f"--t: must be finite, got {args.t}")

    if args.f is not None:
        if not (math.isfinite(args.f) and args.f > 0):
            parser.error(f"--f: must be positive, got {args.f}")
        fs = [args.f]
    elif getattr(args, "f_list", None) is not None:  # profile and force only
        fs = _parse_f_list(parser, args.f_list)
    elif getattr(args, "f_range", None) is not None:
        fs = _parse_f_range(parser, args.f_range)
    elif args.command == "force":
        fs = _parse_f_range(parser, _DEFAULT_F_RANGE)
    else:
        fs = [_DEFAULT_F[args.command]]
    frequencies = tuple(sorted(set(fs)))

    perturbation = _parse_mutate(parser, args.mutate) if args.mutate else None

    return RunConfig(fluid=fluid, a=a, t=args.t,
                     frequencies=frequencies, out=args.out,
                     perturbation=perturbation)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_profile(cfg: RunConfig, mode: str, nr: int, rmax_factor: float) -> int:
    if nr < 2:
        raise ValueError(f"--nr must be >= 2, got {nr}")
    if not (math.isfinite(rmax_factor) and rmax_factor > 1.0):
        raise ValueError(f"--rmax-factor must exceed 1, got {rmax_factor}")
    unit = "[rad]" if mode == "phase" else "[-]"
    header = ["f [Hz]", "r [m]", "r_over_a [-]",
              f"{mode}_vr_over_v0 {unit}", f"{mode}_vtheta_over_v0 {unit}"]
    a = cfg.a
    if not a * rmax_factor < math.inf:
        raise ValueError(f"--rmax-factor: the outer radius a * rmax_factor = "
                         f"{a * rmax_factor!r} m is out of range (not finite)")
    rows = []
    for f in cfg.frequencies:
        s = cfg.scenario(f)
        # v_r at theta = 0 and v_theta at pi/2, where cos 0 == sin(pi/2) == 1.0
        # makes flow._fields' v0 * c * ph exactly s.v0 * ph, with s.v0 = 1.0
        vph = s.v0 * _phase(s, cfg.t)
        row = f"{f:.16e},%.16e,%.16e,%.16e,%.16e\n"
        for j in range(nr):
            # j = 0 gives exactly r = a, where the columns are exactly zero;
            # a <= r <= a * rmax_factor, so r and rho are finite
            r = a * rmax_factor ** (j / (nr - 1))
            rho = r / a
            br, bth, _ = _radial(s, rho)
            rows.append(row % (r, rho, _mode_value(vph * br, mode),
                               _mode_value(vph * bth, mode)))
    with _open_out(cfg.out) as stream:
        _write_csv(stream, header, rows)
    return 0


def cmd_field(cfg: RunConfig, grid, v0: float) -> int:
    if grid is None:
        x0, x1, nx = -4.0 * cfg.a, 4.0 * cfg.a, 41
        y0, y1, ny = -4.0 * cfg.a, 4.0 * cfg.a, 41
    else:
        x0, x1, nx, y0, y1, ny = grid
    for name, lo, hi in (("X", x0, x1), ("Y", y0, y1)):
        if not hi - lo < math.inf:
            raise ValueError(f"field grid span {name}MAX - {name}MIN = {hi!r} - "
                             f"({lo!r}) is out of range (not finite)")
    a = cfg.a
    s = cfg.scenario(cfg.frequencies[0])
    ph = _phase(s, cfg.t)
    pv = 1j * v0 * s.fluid.rho0 * s.omega * s.a
    radial, inf = _radial, math.inf
    hypot, atan2, cos, sin = math.hypot, math.atan2, math.cos, math.sin
    header = ["x [m]", "y [m]", "masked [-]",
              "re_p [Pa]", "abs_p [Pa]", "re_vx [m/s]", "re_vy [m/s]"]
    columns = [(x, f"{x:.16e},") for x in
               (x0 + (x1 - x0) * ix / (nx - 1) for ix in range(nx))]
    rows = []
    for iy in range(ny):
        y = y0 + (y1 - y0) * iy / (ny - 1)
        ys = f"{y:.16e}"
        point, masked = ys + ",0,%.16e,%.16e,%.16e,%.16e\n", ys + ",1,,,,\n"
        template, values = [], []
        for x, xs in columns:
            r = hypot(x, y)
            if r < a:
                template += (xs, masked)
                continue
            rho = r / a
            if not rho < inf:  # NaN, or r or r/a overflowed
                raise ValueError(f"field point ({x!r}, {y!r}): radius r = {r!r} m, "
                                 f"r/a = {rho!r} is out of range (not finite)")
            theta = atan2(y, x)
            c, sn = cos(theta), sin(theta)
            # flow._fields' products, angle x _radial x phase, as in forces._stress
            br, bth, pb = radial(s, rho)
            vr = v0 * c * ph * br
            vt = v0 * sn * ph * bth
            p = pv * c * ph * pb
            ap = abs(p)
            if not ap < inf:  # p grows like r/a and can leave double range
                raise ValueError(f"field point ({x!r}, {y!r}): the pressure |p| = "
                                 f"{ap!r} Pa at r/a = {rho!r} is not finite")
            vx = vr * c - vt * sn
            vy = vr * sn + vt * c
            template += (xs, point)
            values += (p.real, ap, vx.real, vy.real)
        rows.append("".join(template) % tuple(values))
    with _open_out(cfg.out) as stream:
        _write_csv(stream, header, rows)
    return 0


def cmd_force(cfg: RunConfig, nodes: int, jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    header = ["f [Hz]",
              "abs_F_analytic_over_v0 [N s/m^2]",
              "abs_F_buoyancy_over_v0 [N s/m^2]",
              "abs_F_viscous_over_v0 [N s/m^2]",
              "abs_F_quadrature_over_v0 [N s/m^2]"]

    rows = []
    for f in cfg.frequencies:
        s = cfg.scenario(f)
        fb, fv, fq = _force_row(s, cfg.t, nodes)
        row = (abs(fb + fv), abs(fb), abs(fv), abs(fq))
        if not sum(row) < math.inf:  # inf or NaN in some column: name the first
            for name, v in zip(header[1:], row):
                if not v < math.inf:
                    raise ValueError(f"force at f = {f!r} Hz, a = {s.a!r} m: the "
                                     f"column {name} = {v!r} is not finite")
        rows.append("%.16e,%.16e,%.16e,%.16e,%.16e\n" % (f, *row))
    with _open_out(cfg.out) as stream:
        _write_csv(stream, header, rows)
    return 0


def cmd_validate(cfg: RunConfig, h_rel: float) -> int:
    checks = validate_checks(cfg.scenario(cfg.frequencies[0]), cfg.t, h_rel)
    ok_all = all(c.ok for c in checks)
    with _open_out(cfg.out) as stream:
        for c in checks:
            stream.write(f"{c.name}={c.value:.3e} tol={c.tol:.3e} "
                         f"{'PASS' if c.ok else 'FAIL'}\n")
        stream.write(f"RESULT {'PASS' if ok_all else 'FAIL'}\n")
    return 0 if ok_all else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _resolve_config(parser, args)
        if args.command == "profile":
            return cmd_profile(cfg, args.mode, args.nr, args.rmax_factor)
        if args.command == "field":
            grid = _parse_grid(parser, args.grid) if args.grid else None
            return cmd_field(cfg, grid, args.v0)
        if args.command == "force":
            return cmd_force(cfg, args.nodes, args.jobs)
        return cmd_validate(cfg, args.h_rel)
    except BrokenPipeError:
        # stdout's reader left (`| head`): exit quietly, flush later to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, OverflowError, BesselDomainError, OSError) as exc:
        print(f"oscylinder: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
