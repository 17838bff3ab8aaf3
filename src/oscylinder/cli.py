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
(RunConfig.scenario).  _declare declares a subcommand's options once, each
with its default and its type= check, so a bad value exits 2 under that
subcommand's usage; _COMMANDS gives each subcommand's help, default --a
and default frequencies.  An argv that starts with a subcommand is parsed
by _command_parser(name) alone; build_parser(), whose subparsers declare
no options, serves the rest: none, -h or an unknown command.  Only the
--nu0/--rho0 pairing is checked after parsing; --nr, --rmax-factor,
--nodes, --jobs and --h-rel are checked where they are used.  force
computes each row in one pass, serially: it reads F_b, F_v and F_x of
forces._force_row, the row validate's force checks read, which takes one
phase, one closed form and one wall stress and refuses an overflowing
(beta a)^2 by name; |F_b + F_v| is the exact force_analytic column;
--jobs (>= 1) is accepted but starts no threads.

profile and field form each point as angle x flow._radial x phase, the
products flow_state and the residual checks form, in the same order
(forces._stress builds the stress the same way); tests pin every row to
flow_state bit for bit.  field measures point k of n on each
axis from the nearer bound (_axis): both bounds are printed exactly, and a
range symmetric about 0 gives an exactly symmetric grid, whose mirror
points share one r/a.  A row y < 0 whose mirror -y is on the axis is
formed, then row -y at once: a point of row -y reuses row y's brackets,
v_r and printed pressure where its r and cos theta equal row y's bit for
bit, and row y's printed v_x (v_y sign-flipped) where the value is equal
(opposite) and nonzero, as 0.0 == -0.0 print apart; other values are
formatted afresh.  field formats each grid row with one "%" (x in a
per-column prefix, y in the row template, masked points and reused values
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

from .flow import AIR_20C, Fluid, Perturbation, Scenario, _phase, _radial
from .forces import _force_row
from .residuals import validate_checks

_MODES = ("re", "im", "abs", "phase")


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

def _checked(ok, wanted: str):
    """A type= converter: float(text), refused unless ok(value)."""
    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return convert


_positive = _checked(lambda v: 0.0 < v < math.inf, "a positive finite number")
_finite = _checked(math.isfinite, "a finite number")
_nonnegative = _checked(lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _frequency(text: str) -> tuple[float]:
    return (_positive(text),)


def _f_list(text: str) -> tuple[float, ...]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(_positive(piece) for piece in items)


def _f_range(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected LO:HI:N, got {text!r}")
    lo, hi = _positive(parts[0]), _positive(parts[1])
    try:
        n = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"N must be an integer, got {parts[2]!r}") from None
    if n < 2 or hi <= lo:
        raise argparse.ArgumentTypeError("need HI > LO and N >= 2")
    la, lb = math.log10(lo), math.log10(hi)
    return tuple(10.0 ** (la + (lb - la) * k / (n - 1)) for k in range(n))


def _grid(text: str) -> tuple[float, float, int, float, float, int]:
    try:
        xpart, ypart = text.split(",")
        x0s, x1s, nxs = xpart.split(":")
        y0s, y1s, nys = ypart.split(":")
        x0, x1, y0, y1 = float(x0s), float(x1s), float(y0s), float(y1s)
        nx, ny = int(nxs), int(nys)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected XMIN:XMAX:NX,YMIN:YMAX:NY, got {text!r}") from None
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise argparse.ArgumentTypeError("bounds must be finite")
    if x1 <= x0 or y1 <= y0 or nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError(
            "need XMAX > XMIN, YMAX > YMIN and NX, NY >= 2")
    return x0, x1, nx, y0, y1, ny


def _mutation(text: str) -> Perturbation:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected COEFF:FACTOR, got {text!r}")
    names = {"B": "B", "C": "C", "fa": "f_a", "f_a": "f_a", "beta": "beta"}
    if parts[0] not in names:
        raise argparse.ArgumentTypeError(f"unknown coefficient {parts[0]!r} "
                                         f"(choose from B, C, fa, beta)")
    return Perturbation(coefficient=names[parts[0]], factor=_positive(parts[1]))


#: subcommand: help, default --a [m], default frequencies [Hz] (force's
#: is --f-range 1:1e4:200), and whether it takes --f-list/--f-range
_COMMANDS = {
    "profile": ("radial velocity-magnitude profile CSV", 1e-6, (10.0,), True),
    "field": ("Cartesian field-map CSV", 1e-6, (100.0,), False),
    "force": ("force per unit length vs frequency CSV", 1e-6,
              _f_range("1:1e4:200"), True),
    "validate": ("equation residuals and boundary checks", 1e-4, (1000.0,), False),
}


def _declare(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Declare subcommand name's options on p, each with its default and check."""
    _, a, frequencies, sweep = _COMMANDS[name]
    fluid_group = p.add_argument_group(
        "fluid", f"default: air at 20 C (nu0 = {AIR_20C.nu0:g} m^2/s, "
                 f"rho0 = {AIR_20C.rho0:g} kg/m^3)")
    fluid_group.add_argument("--nu0", type=_positive,
                             help="kinematic viscosity [m^2/s] (with --rho0)")
    fluid_group.add_argument("--rho0", type=_positive,
                             help="density [kg/m^3] (with --nu0)")
    p.add_argument("--a", type=_positive, default=a, help="cylinder radius [m]")
    p.add_argument("--t", type=_finite, default=0.0, help="time [s] (default 0)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--mutate", type=_mutation, metavar="COEFF:FACTOR",
                   help="multiply one solution coefficient (B, C, fa, beta) "
                        "by FACTOR before evaluating")
    # field and validate evaluate one frequency; profile and force sweep a list
    freq = p.add_mutually_exclusive_group() if sweep else p
    freq.add_argument("--f", type=_frequency, dest="frequencies",
                      metavar="F", help="frequency [Hz]")
    if sweep:
        freq.add_argument("--f-list", type=_f_list, dest="frequencies",
                          metavar="F_LIST", help="comma-separated frequencies [Hz]")
        freq.add_argument("--f-range", type=_f_range, dest="frequencies",
                          metavar="F_RANGE",
                          help="LO:HI:N log-spaced frequencies [Hz]")
    p.set_defaults(frequencies=frequencies)

    if name == "profile":
        p.add_argument("--mode", choices=_MODES, default="abs",
                       help="complex-to-real reduction of the velocity "
                            "columns (default abs)")
        p.add_argument("--rmax-factor", type=float, default=1e4,
                       help="outer radius as multiple of a (default 1e4)")
        p.add_argument("--nr", type=int, default=200,
                       help="number of log-spaced radii (default 200)")
    elif name == "field":
        p.add_argument("--v0", type=_nonnegative, default=1.0,
                       help="far-field speed amplitude [m/s] (default 1)")
        p.add_argument("--grid", type=_grid, metavar="XMIN:XMAX:NX,YMIN:YMAX:NY",
                       help="grid bounds [m] and point counts "
                            "(default: +-4a, 41x41)")
    elif name == "force":
        p.add_argument("--nodes", type=int, default=512,
                       help="quadrature nodes on the surface (default 512)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility (>= 1); rows are "
                            "computed serially (default 1)")
    else:
        p.add_argument("--h-rel", type=float, default=1e-4,
                       help="radial FD step as fraction of r (default 1e-4)")
    return p


@lru_cache(maxsize=None)  # built once per process; parse_args keeps no state
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand name's parser: every argv that starts with name."""
    return _declare(argparse.ArgumentParser(prog=f"oscylinder {name}"), name)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its subparsers declare no options."""
    parser = argparse.ArgumentParser(
        prog="oscylinder",
        description="Oscillatory creeping flow around a circular cylinder: "
                    "closed-form fields, forces, and residual checks.")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, *_) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def _resolve_config(parser, args) -> RunConfig:
    if (args.nu0 is None) != (args.rho0 is None):
        parser.error("--nu0 and --rho0 must be given together")
    fluid = AIR_20C if args.nu0 is None else Fluid(nu0=args.nu0, rho0=args.rho0)
    return RunConfig(fluid=fluid, a=args.a, t=args.t,
                     frequencies=tuple(sorted(set(args.frequencies))),
                     out=args.out, perturbation=args.mutate)


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
        # makes flow_state's v0 * c * ph exactly s.v0 * ph, with s.v0 = 1.0
        vph = s.v0 * _phase(s, cfg.t)
        row = f"{f:.16e},%.16e,%.16e,%.16e,%.16e\n"
        for j in range(nr):
            # j = 0 gives exactly r = a, where unperturbed columns are exactly zero;
            # a <= r <= a * rmax_factor, so r and rho are finite
            r = a * rmax_factor ** (j / (nr - 1))
            rho = r / a
            br, bth, _ = _radial(s, rho)
            rows.append(row % (r, rho, _mode_value(vph * br, mode),
                               _mode_value(vph * bth, mode)))
    with _open_out(cfg.out) as stream:
        _write_csv(stream, header, rows)
    return 0


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, point k measured from the nearer bound.

    Both bounds are exact, no product leaves double range when hi - lo is
    finite, and a range symmetric about 0 gives point k == -point n-1-k bit
    for bit, so mirror points share one radius and one _radial memo entry."""
    span, m = hi - lo, n - 1
    return [lo + span * (k / m) if 2 * k <= m else hi - span * ((m - k) / m)
            for k in range(n)]


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
    columns = [(x, f"{x:.16e},") for x in _axis(x0, x1, nx)]
    nones = [None] * nx

    def row(y, mirror, keep):
        """Row y's text, formatted with one "%", and with keep its per-point
        data and lines for row -y.  mirror is row -y's (data, lines): its
        brackets, v_r and printed values are reused where the operands or
        the values are equal bit for bit."""
        ys = f"{y:.16e}"
        live, masked = ys + ",0,", ys + ",1,,,,\n"
        point = live + "%.16e,%.16e,%.16e,%.16e\n"
        template, values, data = [], [], []
        olds, lines = mirror or (nones, nones)
        for (x, xs), old, line in zip(columns, olds, lines):
            r = hypot(x, y)
            if r < a:
                template += (xs, masked)
                data.append(None)
                continue
            theta = atan2(y, x)
            c, sn = cos(theta), sin(theta)
            if old and old[0] == r and old[1] == c:  # r > 0, and cos is never 0
                bth, vr, p = old[2], old[3], None
            else:
                rho = r / a
                if not rho < inf:  # NaN, or r or r/a overflowed
                    raise ValueError(f"field point ({x!r}, {y!r}): radius r = {r!r} m, "
                                     f"r/a = {rho!r} is out of range (not finite)")
                # flow_state's products, angle x _radial x phase, as in forces._stress
                br, bth, pb = radial(s, rho)
                vr = v0 * c * ph * br
                p = pv * c * ph * pb
                ap = abs(p)
                if not ap < inf:  # p grows like r/a and can leave double range
                    raise ValueError(f"field point ({x!r}, {y!r}): the pressure |p| = "
                                     f"{ap!r} Pa at r/a = {rho!r} is not finite")
            vt = v0 * sn * ph * bth
            vx = (vr * c - vt * sn).real
            vy = (vr * sn + vt * c).real
            if keep:
                data.append((r, c, bth, vr, vx, vy))
            if old is None:
                template += (xs, point)
                values += (p.real, ap, vx, vy)
                continue
            # row -y's text where v_x is equal and v_y opposite: a nonzero -v
            # prints as "-" + v, but 0.0 == -0.0 and the two print apart
            _, _, _, re_p, abs_p, re_vx, re_vy = line.split(",")
            pt = f"{re_p},{abs_p}," if p is None else "%.16e,%.16e," % (p.real, ap)
            if not (vx == old[4] and vx):
                re_vx = "%.16e" % vx
            if vy == -old[5] and vy:
                re_vy = re_vy[1:] if re_vy[0] == "-" else "-" + re_vy
            else:
                re_vy = "%.16e" % vy
            template.append(f"{xs}{live}{pt}{re_vx},{re_vy}\n")
        text = "".join(template) % tuple(values)
        return text, (data, text.split("\n")) if keep else None

    ys = _axis(y0, y1, ny)
    at = {y: k for k, y in enumerate(ys)}
    rows = [None] * ny
    for k, y in enumerate(ys):
        if rows[k] is not None:
            continue
        j = at.get(-y) if y < 0 else None
        rows[k], kept = row(y, None, j is not None)
        if kept:
            # a mirror row that raises is formed again in row order, so the
            # error names the point that the row-by-row scan meets first
            with contextlib.suppress(ValueError):
                rows[j] = row(-y, kept, False)[0]
            kept = None  # one row of per-point data at a time
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
        fb, fv, fq, _ = _force_row(s, cfg.t, nodes)
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
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        # no arguments, -h or an unknown command: the top-level parser exits
        # 0 on -h and 2 on an argv it refuses, so only [] gets past it
        parser = build_parser()
        parser.parse_args(argv)
        parser.print_help(sys.stderr)
        return 2
    command = argv[0]
    parser = _command_parser(command)
    args = parser.parse_args(argv[1:])
    try:
        cfg = _resolve_config(parser, args)
        if command == "profile":
            return cmd_profile(cfg, args.mode, args.nr, args.rmax_factor)
        if command == "field":
            return cmd_field(cfg, args.grid, args.v0)
        if command == "force":
            return cmd_force(cfg, args.nodes, args.jobs)
        return cmd_validate(cfg, args.h_rel)
    except BrokenPipeError:
        # stdout's reader left (`| head`): exit quietly, flush later to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"oscylinder: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
