"""End-to-end tests of the command-line interface.

Each test drives ``oscylinder.cli.main`` in-process with an argv list
and inspects the exit code plus the CSV/plain-text output.  Parse-level
errors surface as ``SystemExit(2)`` from argparse; semantic errors are
converted by ``main`` into a return value of 2.
"""

import argparse
import cmath
import csv
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import oscylinder.cli
import oscylinder.flow
import oscylinder.forces
import oscylinder.residuals
from oscylinder import (AIR_20C, Perturbation, PolarPoint, Scenario, flow_state,
                        force_analytic, force_buoyancy, force_quadrature,
                        force_viscous_approx, residual_report, residual_tolerance,
                        validate_checks)
from oscylinder.cli import _COMMANDS, _command_parser, build_parser, main

from test_residuals import nan_rank, reference_boundary_suite

AIR_RHO0 = 1.204
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# a subprocess finds the package under test through PYTHONPATH
SRC_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(
    os.path.dirname(os.path.abspath(oscylinder.cli.__file__)))}


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def parse_csv(data):
    rows = list(csv.reader(data.decode("ascii").splitlines()))
    return rows[0], rows[1:]


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------

def test_profile_csv_shape_and_wall_row(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv", [
        "profile", "--a", "1e-6", "--f", "10", "--nr", "50"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["f [Hz]", "r [m]", "r_over_a [-]",
                      "abs_vr_over_v0 [-]", "abs_vtheta_over_v0 [-]"]
    assert len(rows) == 50
    # first radius is exactly a and the no-slip columns are exactly zero
    assert float(rows[0][1]) == 1e-6
    assert float(rows[0][3]) == 0.0
    assert float(rows[0][4]) == 0.0
    # radii increase log-spaced up to rmax_factor * a
    r_over_a = [float(row[2]) for row in rows]
    assert r_over_a == sorted(r_over_a)
    assert r_over_a[-1] == pytest.approx(1e4, rel=1e-12)
    # far field: the magnitudes recover the free stream
    assert float(rows[-1][3]) == pytest.approx(1.0, abs=2e-3)
    assert float(rows[-1][4]) == pytest.approx(1.0, abs=2e-3)


def test_profile_all_rows_full_precision(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv", [
        "profile", "--f", "100", "--nr", "10"])
    assert code == 0
    _, rows = parse_csv(data)
    for row in rows:
        for cell in row:
            float(cell)             # every cell parses
            assert "e" in cell      # fixed scientific format


def test_profile_phase_mode_header(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv", [
        "profile", "--mode", "phase", "--nr", "5"])
    assert code == 0
    header, _ = parse_csv(data)
    assert header[3] == "phase_vr_over_v0 [rad]"
    assert header[4] == "phase_vtheta_over_v0 [rad]"


def test_profile_to_stdout(capsys):
    assert main(["profile", "--nr", "4", "--f", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("f [Hz],")
    assert out.count("\n") == 5


def test_profile_multiple_frequencies(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv", [
        "profile", "--f-list", "100,10", "--nr", "4"])
    assert code == 0
    _, rows = parse_csv(data)
    # sorted ascending regardless of input order
    assert [float(r[0]) for r in rows] == [10.0] * 4 + [100.0] * 4


# ----------------------------------------------------------------------
# field
# ----------------------------------------------------------------------

def test_field_default_grid(tmp_path):
    code, data = run_to_file(tmp_path, "f.csv", ["field", "--a", "1e-6"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header == ["x [m]", "y [m]", "masked [-]",
                      "re_p [Pa]", "abs_p [Pa]", "re_vx [m/s]", "re_vy [m/s]"]
    assert len(rows) == 41 * 41
    masked = [row for row in rows if row[2] == "1"]
    live = [row for row in rows if row[2] == "0"]
    assert masked and live
    assert len(masked) + len(live) == len(rows)
    # masked rows carry empty field cells
    for row in masked:
        assert row[3:] == ["", "", "", ""]
        assert math.hypot(float(row[0]), float(row[1])) < 1e-6
    # the grid is exactly symmetric, so every live row off the x = 0 column
    # has a live mirror (-x, y), where the pressure is p(-x, y) = -p(x, y)
    by_xy = {(row[0], row[1]): row for row in rows}
    pmax = max(abs(float(row[4])) for row in live)
    off_axis = [row for row in live if float(row[0]) != 0.0]
    assert len(off_axis) > 100
    for row in off_axis:
        mirror = by_xy.get((format(-float(row[0]), ".16e"), row[1]))
        assert mirror is not None and mirror[2] == "0"
        assert abs(float(mirror[3]) + float(row[3])) < 1e-12 * pmax


def test_field_custom_grid_no_mask(tmp_path):
    code, data = run_to_file(tmp_path, "f.csv", [
        "field", "--a", "1e-6", "--f", "50",
        "--grid=2e-6:4e-6:5,1e-6:2e-6:4"])
    assert code == 0
    _, rows = parse_csv(data)
    assert len(rows) == 20
    assert all(row[2] == "0" for row in rows)
    # y-outer, x-inner ordering
    assert [float(r[0]) for r in rows[:5]] == pytest.approx(
        [2e-6, 2.5e-6, 3e-6, 3.5e-6, 4e-6])
    assert len({r[1] for r in rows[:5]}) == 1


@pytest.mark.parametrize("grid", [
    "1e-6:3.3e-6:3,-1e-6:2e-6:4",  # lo + (hi - lo) * k / (n - 1) rounds XMAX to 3.2999999999999997e-06
    "-4e-6:4e-6:41,-3.3e-6:3.3e-6:6",
    "-1e-6:1e-6:2,-7e-6:7e-6:101",
])
def test_field_grid_bounds_are_exact_and_symmetric_ranges_mirror(grid, tmp_path):
    code, data = run_to_file(tmp_path, "f.csv", ["field", "--a", "1e-6", f"--grid={grid}"])
    assert code == 0
    _, rows = parse_csv(data)
    (x0, x1, nx), (y0, y1, ny) = [spec.split(":") for spec in grid.split(",")]
    nx, ny = int(nx), int(ny)
    assert len(rows) == nx * ny
    xs = [float(row[0]) for row in rows[:nx]]
    ys = [float(row[1]) for row in rows[::nx]]
    for lo, hi, axis in ((float(x0), float(x1), xs), (float(y0), float(y1), ys)):
        assert (axis[0], axis[-1]) == (lo, hi)
        assert axis == sorted(axis)
        if lo == -hi:  # exactly, so point k and n-1-k print as x and -x
            assert axis == [-v for v in reversed(axis)]


# field and profile form angle x _radial x phase per point themselves; every
# row must print, bit for bit, the values formatted from flow_state (whose
# products the residual and boundary checks form too) at its point;
# v0 is field's: profile and force print values relative to v0, formed at
# unit amplitude
PINNED_RUNS = [  # a, f, v0, t, perturbation
    (1e-6, 100.0, 1.0, 0.0, None),                      # the default run
    (1e-3, 1000.0, 1.0, 0.0, None),                     # beta a ~ 20 >= 1
    (1e-6, 100.0, 1.0, 0.0, Perturbation("B", 1.001)),
    (1e-4, 1000.0, 2.5, 0.00037, None),                 # beta a ~ 2, t != 0
]


def _pinned_run(capsys, command, a, f, v0, t, pert, *extra):
    """The run's CSV data lines and its Scenario at amplitude v0."""
    argv = [command, "--a", repr(a), "--f", repr(f), "--t", repr(t), *extra]
    if pert is not None:
        argv += ["--mutate", f"{pert.coefficient}:{pert.factor!r}"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    return lines, Scenario.from_frequency(AIR_20C, a, v0, f, pert)


def _mode_reference(z, mode):
    return {"re": z.real, "im": z.imag, "abs": abs(z), "phase": cmath.phase(z)}[mode]


#: grids, amplitudes and mutations beyond PINNED_RUNS that test where row -y
#: reuses row y's brackets and printed values and where it must not: points
#: on r = a (9 x 9 over +-4a), where exact zeros print "0.0" or "-0.0"
#: apart; v0 = 0 and a subnormal v0; n = 40, with no y = 0 row; t != 0; each
#: mutation; beta a >= 1; and a y-range that is not symmetric
_SURFACE_GRID = "-4e-6:4e-6:9,-4e-6:4e-6:9"
FIELD_RUNS = [  # a, f, v0, t, perturbation, grid (None: +-4a, 41 x 41)
    (1e-6, 100.0, 1.0, 0.0, None, _SURFACE_GRID),
    (1e-6, 100.0, 0.0, 0.0, None, None),
    (1e-6, 100.0, 0.0, 0.0, None, _SURFACE_GRID),
    (1e-6, 100.0, 5e-324, 0.0, None, None),
    (1e-6, 100.0, 5e-324, 0.0, None, _SURFACE_GRID),
    (1e-6, 100.0, 1.0, 0.0, None, "-4e-6:4e-6:40,-4e-6:4e-6:40"),
    (1e-6, 100.0, 1.0, 0.00037, None, _SURFACE_GRID),
    *[(1e-6, 100.0, 1.0, 0.0, Perturbation(name, 1.001), _SURFACE_GRID)
      for name in ("B", "C", "f_a", "beta")],
    (1e-3, 1000.0, 1.0, 0.0, None, "-4e-3:4e-3:9,-4e-3:4e-3:9"),  # beta a ~ 20
    (1e-6, 100.0, 1.0, 0.0, None, "-4e-6:4e-6:41,-3e-6:4e-6:41"),
]


def _check_field_rows(lines, s, t):
    """Assert that each line prints flow_state at its point; return the live count."""
    live = 0
    for line in lines:
        xs, ys = line.split(",")[:2]
        x, y = float(xs), float(ys)
        r = math.hypot(x, y)
        if r < s.a:
            assert line == f"{xs},{ys},1,,,,"
            continue
        theta = math.atan2(y, x)
        c, sn = math.cos(theta), math.sin(theta)
        vr, vt, p = flow_state(s, PolarPoint(r, theta), t)
        vx, vy = vr * c - vt * sn, vr * sn + vt * c
        assert line == (f"{xs},{ys},0,{p.real:.16e},{abs(p):.16e},"
                        f"{vx.real:.16e},{vy.real:.16e}"), line
        live += 1
    return live


@pytest.mark.parametrize("a, f, v0, t, pert", PINNED_RUNS)
def test_field_rows_match_flow_state(a, f, v0, t, pert, capsys):
    lines, s = _pinned_run(capsys, "field", a, f, v0, t, pert, "--v0", repr(v0))
    assert len(lines) == 41 * 41
    assert _check_field_rows(lines, s, t) > 1500


@pytest.mark.parametrize("a, f, v0, t, pert, grid", FIELD_RUNS)
def test_field_rows_match_flow_state_where_mirror_rows_reuse_values(
        a, f, v0, t, pert, grid, capsys):
    extra = ["--v0", repr(v0)] + ([f"--grid={grid}"] if grid else [])
    lines, s = _pinned_run(capsys, "field", a, f, v0, t, pert, *extra)
    (_, _, nx), (_, _, ny) = [spec.split(":") for spec in (grid or "::41,::41").split(",")]
    assert len(lines) == int(nx) * int(ny)
    assert _check_field_rows(lines, s, t) > len(lines) // 2


def test_field_rows_match_flow_state_under_an_atan2_that_is_not_odd(monkeypatch, capsys):
    # row -y reuses row y's brackets and text only where its own operands or
    # values equal row y's bit for bit, so nothing rests on atan2(-y, x) ==
    # -atan2(y, x): nudged by one ulp above the x-axis, every row still
    # prints what flow_state gives at its (nudged) angle
    atan2 = math.atan2
    monkeypatch.setattr(math, "atan2",
                        lambda y, x: math.nextafter(atan2(y, x), 4.0) if y > 0 else atan2(y, x))
    for v0, grid in ((1.0, None), (1.0, _SURFACE_GRID), (0.0, _SURFACE_GRID)):
        extra = ["--v0", repr(v0)] + ([f"--grid={grid}"] if grid else [])
        lines, s = _pinned_run(capsys, "field", 1e-6, 100.0, v0, 0.0, None, *extra)
        assert _check_field_rows(lines, s, 0.0) > len(lines) // 2


def test_field_error_names_the_first_bad_point_in_row_order(monkeypatch, capsys):
    # row y = 2e-6 is formed right after its mirror row -2e-6, before row 0;
    # with an atan2 that is NaN from y = 0 up, both rows meet a pressure that
    # is not finite, and the error still names row 0's point, as a row-by-row
    # scan does
    atan2 = math.atan2
    monkeypatch.setattr(math, "atan2", lambda y, x: math.nan if y >= 0 else atan2(y, x))
    assert main(["field", "--a", "1e-6", "--grid=2e-6:3e-6:2,-2e-6:2e-6:3"]) == 2
    assert capsys.readouterr().err == (
        "oscylinder: error: field point (2e-06, 0.0): the pressure |p| = nan Pa "
        "at r/a = 2.0 is not finite\n")


@pytest.mark.parametrize("mode", ["re", "im", "abs", "phase"])
@pytest.mark.parametrize("a, f, v0, t, pert", PINNED_RUNS)
def test_profile_rows_match_flow_state(a, f, v0, t, pert, mode, capsys):
    lines, s = _pinned_run(capsys, "profile", a, f, 1.0, t, pert, "--mode", mode)
    assert len(lines) == 200
    for line in lines:
        fs, rs = line.split(",")[:2]
        r = float(rs)
        vr = flow_state(s, PolarPoint(r, 0.0), t).vr
        vt = flow_state(s, PolarPoint(r, 0.5 * math.pi), t).vtheta
        assert line == (f"{fs},{rs},{r / s.a:.16e},"
                        f"{_mode_reference(vr, mode):.16e},"
                        f"{_mode_reference(vt, mode):.16e}"), line


# ----------------------------------------------------------------------
# force
# ----------------------------------------------------------------------

def test_force_csv_columns_consistent(tmp_path):
    code, data = run_to_file(tmp_path, "force.csv", [
        "force", "--a", "1e-6", "--f-list", "10,100", "--nodes", "64"])
    assert code == 0
    header, rows = parse_csv(data)
    assert header[0] == "f [Hz]"
    assert len(rows) == 2
    for row in rows:
        f = float(row[0])
        total, buoy, visc, quad = map(float, row[1:])
        # quadrature agrees with the closed form
        assert abs(quad - total) < 1e-9 * total
        # buoyancy part is the displaced-mass reaction 2 pi rho0 omega a^2
        want_buoy = 2.0 * math.pi * AIR_RHO0 * (2.0 * math.pi * f) * 1e-12
        assert buoy == pytest.approx(want_buoy, rel=1e-12)
        # parts bound the total (they are complex, not collinear)
        assert total <= buoy + visc + 1e-30


#: PINNED_RUNS, a run with beta a ~ 200 > 17 and an --f-list run whose
#: beta a crosses 1 (about 0.2, 0.6 and 2 at a = 1e-4 m)
FORCE_RUNS = [(a, [repr(f)], v0, t, pert, "512") for a, f, v0, t, pert in PINNED_RUNS] + [
    (1e-2, ["1000.0"], 1.0, 0.0, None, "512"),
    (1e-4, ["10.0", "100.0", "1000.0"], 2.5, 0.00037, None, "64"),
]


@pytest.mark.parametrize("a, fs, v0, t, pert, nodes", FORCE_RUNS)
def test_force_rows_match_the_public_forces(a, fs, v0, t, pert, nodes, capsys):
    # every force row prints, bit for bit, |F| of the four public force
    # functions at unit amplitude, whose single pass per row cmd_force shares
    argv = ["force", "--a", repr(a), "--f-list", ",".join(fs),
            "--t", repr(t), "--nodes", nodes]
    if pert is not None:
        argv += ["--mutate", f"{pert.coefficient}:{pert.factor!r}"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(fs)
    for line, f in zip(lines, map(float, fs)):
        s = Scenario.from_frequency(AIR_20C, a, 1.0, f, pert)
        parts = (force_analytic(s, t), force_buoyancy(s, t),
                 force_viscous_approx(s, t), force_quadrature(s, t, int(nodes)))
        assert line == "%.16e,%.16e,%.16e,%.16e,%.16e" % (
            f, *(abs(part.fx) for part in parts)), line


def test_force_takes_one_phase_and_wall_stress_per_row(monkeypatch, capsys):
    calls = {"_phase": 0, "_wall_stress": 0}

    def counted(name):
        inner = getattr(oscylinder.forces, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oscylinder.forces, name, counted(name))
    assert main(["force", "--f-range", "1:1e4:7"]) == 0
    capsys.readouterr()
    assert calls == {"_phase": 7, "_wall_stress": 7}


def test_force_deduplicates_and_sorts(tmp_path):
    code, data = run_to_file(tmp_path, "force.csv", [
        "force", "--f-list", "100,10,100", "--nodes", "16"])
    assert code == 0
    _, rows = parse_csv(data)
    assert [float(r[0]) for r in rows] == [10.0, 100.0]


def test_force_rerun_byte_identical(tmp_path):
    argv = ["force", "--f-range", "10:1000:24", "--nodes", "64"]
    _, first = run_to_file(tmp_path, "f1.csv", argv)
    _, second = run_to_file(tmp_path, "f2.csv", argv)
    assert first == second


def test_force_jobs_byte_identical(tmp_path):
    base = ["force", "--f-range", "10:1000:24", "--nodes", "64"]
    _, serial = run_to_file(tmp_path, "s.csv", base + ["--jobs", "1"])
    _, threaded = run_to_file(tmp_path, "t.csv", base + ["--jobs", "3"])
    assert serial == threaded


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "RESULT PASS"
    assert sum(1 for ln in lines if ln.startswith("residual ")) == 4
    assert sum(1 for ln in lines if ln.startswith("boundary ")) == 2
    assert sum(1 for ln in lines if ln.startswith("force ")) == 2
    assert all(ln.endswith(" PASS") for ln in lines[:-1])


def test_validate_detects_coefficient_mutation(capsys):
    assert main(["validate", "--mutate", "C:1.001"]) == 1
    out = capsys.readouterr().out
    assert "RESULT FAIL" in out
    assert any(ln.startswith("boundary no_slip") and ln.endswith("FAIL")
               for ln in out.splitlines())


def test_validate_detects_wavenumber_mutation(capsys):
    assert main(["validate", "--mutate", "beta:1.001"]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-1] == "RESULT FAIL"
    assert any(ln.startswith("residual momentum") and ln.endswith("FAIL")
               for ln in lines)
    # boundary conditions are untouched by a wavenumber change
    assert all(ln.endswith("PASS") for ln in lines if ln.startswith("boundary "))


def test_validate_mutate_fa_alias(capsys):
    assert main(["validate", "--mutate", "fa:1.001"]) == 1
    assert "RESULT FAIL" in capsys.readouterr().out


def test_validate_detects_B_mutation_at_large_ba(capsys):
    # at beta a = 1e3 the constant B overflows; the fields never use it,
    # so the mutation still breaks no slip instead of turning into NaN
    f = 1000.0
    a = 1e3 / math.sqrt(2.0 * math.pi * f / AIR_20C.nu0)
    assert main(["validate", "--a", repr(a), "--f", repr(f),
                 "--mutate", "B:1.001"]) == 1
    assert "RESULT FAIL" in capsys.readouterr().out


#: validate --a 1e-3's exit codes at each beta a: clean, then under B, C,
#: f_a and beta at 1.001.  f_a slips the wall by ~2e-3/(beta a), below
#: no_slip's 1e-12 from beta a ~ 5e9 on; beta shows only in the quadrature
#: ratio above ~1e3, and falls below its 1e-9 from ~1e7 on
DETECTION_MATRIX = {
    **{10.0 ** e: (0, 1, 1, 1, 1) for e in range(-150, 1, 10)},
    1e3: (0, 1, 1, 1, 1),
    1e7: (0, 1, 1, 1, 0),
    5e9: (0, 1, 1, 0, 0),
    1e10: (0, 1, 1, 0, 0),
    1e11: (0, 1, 1, 0, 0),
    1e16: (0, 1, 1, 0, 0),
}


@pytest.mark.parametrize("ba", sorted(DETECTION_MATRIX), ids="{:g}".format)
def test_validate_detection_matrix(ba, capsys):
    # which mutation validate catches at which beta a; a row that moves the
    # blind spots changes this table on purpose
    f = (ba / 1e-3) ** 2 * AIR_20C.nu0 / (2.0 * math.pi)
    argv = ["validate", "--a", "1e-3", "--f", repr(f)]
    codes = tuple(main(argv + (["--mutate", m] if m else []))
                  for m in (None, "B:1.001", "C:1.001", "fa:1.001", "beta:1.001"))
    capsys.readouterr()
    assert codes == DETECTION_MATRIX[ba]


@pytest.mark.parametrize("pert", [None, Perturbation("beta", 1.001)], ids=["clean", "beta"])
@pytest.mark.parametrize("ba", sorted(DETECTION_MATRIX), ids="{:g}".format)
def test_boundary_suite_at_the_detection_matrix(ba, pert):
    # bit for bit with the velocity() reference from beta a =
    # 1e-150 to 1e16; a wall whose brackets are both zero, which the clean
    # and the beta-mutated flow have, reads exactly 0.0 without its ring
    f = (ba / 1e-3) ** 2 * AIR_20C.nu0 / (2.0 * math.pi)
    s = Scenario.from_frequency(AIR_20C, 1e-3, 1.0, f, pert)
    rows = oscylinder.residuals.boundary_suite(s)
    assert repr(rows) == repr(reference_boundary_suite(s))
    assert oscylinder.flow._radial(s, 1.0)[:2] == (0j, 0j)
    assert repr(rows[0].value) == "0.0"


def test_validate_fails_on_nan_field(monkeypatch, capsys):
    for module in (oscylinder.flow, oscylinder.residuals):
        monkeypatch.setattr(module, "_radial", lambda s, rho: (complex("nan"),) * 3)
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "boundary no_slip max=nan tol=1.000e-12 FAIL" in lines
    assert lines[-1] == "RESULT FAIL"


@pytest.mark.parametrize("argv", [
    ["profile"], ["field"], ["validate"],
    ["validate", "--a", "1e-6", "--f", "10"],
    ["validate", "--mutate", "B:1.001"],
])
def test_radial_memo_leaves_output_unchanged(argv, monkeypatch, capsys):
    # the memo in flow._radial only skips recomputing a pure function of
    # (coefficients, rho): clearing it before every call gives the same bytes
    code = main(argv)
    with_memo = capsys.readouterr().out
    radial = oscylinder.flow._radial

    def without_memo(s, rho):
        s._coefficients.memo.clear()
        return radial(s, rho)

    for module in (oscylinder.flow, oscylinder.forces, oscylinder.cli,
                   oscylinder.residuals):
        monkeypatch.setattr(module, "_radial", without_memo)
    assert main(argv) == code
    # a bool, so that a failure does not diff thousands of CSV lines
    moved = capsys.readouterr().out != with_memo
    assert not moved


def reference_validate_report(s, t=0.0, h_rel=1e-4):
    """validate's 9 report lines and exit code, computed here row by row
    from residual_report, the velocity() boundary reference and the
    public forces, independently of residuals.validate_checks."""
    lines = []
    ok_all = True
    rhos = [1.1 * (100.0 / 1.1) ** (k / 4.0) for k in range(5)]
    thetas = (0.35, 1.05, 1.85, 2.65, 3.45)
    found = {q: [(0.0, 1.0)] for q in ("continuity", "momentum_r",
                                       "momentum_theta", "pressure_laplacian")}
    for rho in rhos:
        tol = residual_tolerance(s, rho, h_rel)
        for theta in thetas:
            rep = residual_report(s, PolarPoint(rho * s.a, theta), t,
                                  h=h_rel * rho * s.a)
            for q, pairs in found.items():
                pairs.append((getattr(rep, q), tol))
    for q, pairs in found.items():
        value, tol = max(pairs, key=lambda pair: nan_rank(pair[0]))
        ok = all(v <= tl for v, tl in pairs)
        ok_all &= ok
        lines.append(f"residual {q} max={value:.3e} tol={tol:.3e} "
                     f"{'PASS' if ok else 'FAIL'}")
    for name, value, tol, ok in reference_boundary_suite(s):
        ok_all &= ok
        lines.append(f"{name}={value:.3e} tol={tol:.3e} {'PASS' if ok else 'FAIL'}")
    fq = force_quadrature(s, t, 512)
    fa = force_analytic(s, t)
    rel = abs(fq.fx - fa.fx) / abs(fa.fx) if fa.fx != 0 else 0.0
    transverse = abs(fq.fy) / abs(fq.fx) if fq.fx != 0 else 0.0
    ok_force = rel <= 1e-9
    ok_transverse = transverse <= 1e-12
    ok_all &= ok_force and ok_transverse
    lines.append(f"force quadrature_vs_analytic rel={rel:.3e} tol=1.000e-09 "
                 f"{'PASS' if ok_force else 'FAIL'}")
    lines.append(f"force transverse rel={transverse:.3e} tol=1.000e-12 "
                 f"{'PASS' if ok_transverse else 'FAIL'}")
    lines.append(f"RESULT {'PASS' if ok_all else 'FAIL'}")
    return lines, 0 if ok_all else 1


#: (a, f, v0, t, mutate): the default scenario, also at a later time, a
#: thick-layer scenario, then beta a from 1e-8 to 1e4 at 1 kHz, each clean
#: and under every 0.1% coefficient mutation; v0 is 1.0, the amplitude
#: validate checks
VALIDATE_CASES = [(1e-4, 1000.0, 1.0, 0.0, None),
                  (1e-4, 1000.0, 1.0, 3.1e-4, None), (1e-6, 10.0, 1.0, 0.0, None)] + [
    (ba / math.sqrt(2.0 * math.pi * 1000.0 / AIR_20C.nu0), 1000.0, 1.0, 0.0, mutate)
    for ba in (1e-8, 1e-5, 1e-3, 0.1, 1.0, 30.0, 1e3, 1e4)
    for mutate in (None, "B:1.001", "C:1.001", "fa:1.001", "beta:1.001")]


@pytest.mark.parametrize("a, f, v0, t, mutate", VALIDATE_CASES)
def test_validate_prints_the_reference_report(a, f, v0, t, mutate, capsys):
    argv = ["validate", "--a", repr(a), "--f", repr(f), "--t", repr(t)]
    perturbation = None
    if mutate:
        argv += ["--mutate", mutate]
        name, factor = mutate.split(":")
        perturbation = Perturbation({"fa": "f_a"}.get(name, name), float(factor))
    code = main(argv)
    s = Scenario.from_frequency(AIR_20C, a, v0, f, perturbation=perturbation)
    assert (capsys.readouterr().out.splitlines(), code) == \
        reference_validate_report(s, t)


@pytest.mark.parametrize("v0", ["0", "1e-310", "2.5", "1e300"])
@pytest.mark.parametrize("extra", [[], ["--a", "1e-125", "--f", "1"]])
def test_validate_report_does_not_depend_on_v0(v0, extra, capsys):
    # validate takes no --v0: every row is relative to v0, so what it prints
    # is validate_checks at any v0, subnormal and near overflow included
    assert main(["validate", *extra]) == 0
    captured = capsys.readouterr()
    a, f = (float(x) for x in extra[1::2]) if extra else (1e-4, 1000.0)
    checks = validate_checks(Scenario.from_frequency(AIR_20C, a, float(v0), f))
    assert captured.out == "".join(
        f"{c.name}={c.value:.3e} tol={c.tol:.3e} {'PASS' if c.ok else 'FAIL'}\n"
        for c in checks) + "RESULT PASS\n"
    assert captured.err == ""


@pytest.mark.parametrize("argv, t, f", [
    (["force"], "1e+305", "296.73"),
    (["field"], "1e+306", "100"),
    (["validate"], "1e+306", "1000"),
])
def test_overflowing_phase_is_refused(argv, t, f, capsys):
    # omega t overflows inside e^{-i omega t}; the refusal names t, f and omega t
    assert main([*argv, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"oscylinder: error: the phase omega t = inf at t = {t} s, "
                            f"f = {f} Hz is out of range (not finite)\n")


def test_profile_at_huge_finite_phase_writes_finite_rows(capsys):
    # at 10 Hz, omega t = 6.3e307 is still finite
    assert main(["profile", "--t", "1e306", "--f", "10"]) == 0
    _, rows = parse_csv(capsys.readouterr().out.encode("ascii"))
    assert len(rows) == 200
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_validate_writes_file(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    assert out.read_text(encoding="ascii").strip().endswith("RESULT PASS")


# ----------------------------------------------------------------------
# error handling and exit codes
# ----------------------------------------------------------------------

def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # field and validate evaluate one frequency; --mode is profile's alone
    (["field", "--f-list", "100,10"], "unrecognized arguments: --f-list 100,10"),
    (["field", "--f-range", "1:1e4:5"], "unrecognized arguments: --f-range 1:1e4:5"),
    (["field", "--mode", "phase"], "unrecognized arguments: --mode phase"),
    (["validate", "--f-list", "100,10"], "unrecognized arguments: --f-list 100,10"),
    (["validate", "--f-range", "1:1e4:5"], "unrecognized arguments: --f-range 1:1e4:5"),
    (["validate", "--mode", "phase"], "unrecognized arguments: --mode phase"),
    (["force", "--mode", "phase"], "unrecognized arguments: --mode phase"),
    (["bessel-eval", "2.0", "1.0"], "invalid choice: 'bessel-eval'"),
    # --v0 is field's: the other commands print values relative to v0
    (["profile", "--v0", "2"], "unrecognized arguments: --v0 2"),
    (["force", "--v0", "1e-310"], "unrecognized arguments: --v0 1e-310"),
    (["validate", "--v0", "0"], "unrecognized arguments: --v0 0"),
    # air at 20 C is the one preset, so a preset option could change nothing
    (["profile", "--fluid", "air20"], "unrecognized arguments: --fluid air20"),
])
def test_options_a_subcommand_does_not_read_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    # a subcommand's own parser refuses it; an unknown command, the tree
    usage = f"oscylinder {argv[0]} " if argv[0] in _COMMANDS else "oscylinder [-h] "
    assert captured.err.startswith("usage: " + usage)


@pytest.mark.parametrize("argv", [
    ["profile", "--a", "notanumber"],
    ["profile", "--a", "-1e-6"],
    ["profile", "--f", "10", "--f-list", "1,2"],
    ["force", "--f-range", "10:1000"],
    ["force", "--f-range", "1000:10:50"],
    ["field", "--grid", "junk"],
    ["validate", "--mutate", "Q:1.001"],
    ["validate", "--mutate", "B:0"],
    ["profile", "--nu0", "1e-5"],
])
def test_parse_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (["profile", "--a=-1"], "--a"),
    (["profile", "--t", "nan"], "--t"),
    (["profile", "--f", "0"], "--f"),
    (["profile", "--f-list", ","], "--f-list"),
    (["force", "--f-range", "1:2"], "--f-range"),
    (["field", "--grid", "junk"], "--grid"),
    (["validate", "--mutate", "Q:1"], "--mutate"),
    (["profile", "--nu0", "0", "--rho0", "1"], "--nu0"),
    (["field", "--v0=-1"], "--v0"),
    (["force", "--f-range", "1:2:x"], "--f-range"),
    (["field", "--grid=0:inf:2,0:1:2"], "--grid"),
    (["field", "--grid=1:0:2,0:1:2"], "--grid"),
    (["validate", "--mutate", "B"], "--mutate"),
])
def test_value_errors_show_the_subcommand_usage(argv, option, capsys):
    # each value is checked where its subcommand declares it, so the refusal
    # comes with that subcommand's usage, not the top-level one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: oscylinder {argv[0]} ")
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith(f"oscylinder {argv[0]}: error: argument {option}: ")


@pytest.mark.parametrize("argv", [
    ["profile", "--nr", "1"],
    ["profile", "--rmax-factor", "0.5"],
    ["force", "--nodes", "4"],
    ["force", "--jobs", "0"],
    ["validate", "--h-rel", "0.5"],
])
def test_semantic_errors_return_2(argv, capsys):
    assert main(argv) == 2
    assert "oscylinder: error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # XMAX - XMIN overflows, so every x would be NaN
    (["field", "--a", "1e-6", "--grid=-1e308:1e308:3,-1e308:1e308:3"],
     "field grid span XMAX - XMIN = 1e+308 - (-1e+308) is out of range (not finite)"),
    # the outer radius a * rmax_factor overflows
    (["profile", "--a", "1e10", "--rmax-factor", "1e300", "--nr", "3"],
     "outer radius a * rmax_factor = inf m is out of range (not finite)"),
    # r is finite but r/a overflows before it reaches the Bessel kernel
    (["field", "--a", "1e-6", "--grid=0:1.7e308:2,0:1.7e308:2"],
     "field point (1.7e+308, 0.0): radius r = 1.7e+308 m, r/a = inf "
     "is out of range (not finite)"),
    # r/a is finite but beta a * r/a (beta a ~ 20) overflows in the kernel
    (["profile", "--a", "1e-6", "--f", "1e9", "--rmax-factor", "1e308", "--nr", "2"],
     "r/a = 1e+308 is out of range at beta a = 20.3919: the Bessel argument "
     "must be finite, got beta a * r/a = inf"),
    (["field", "--a", "1e-6", "--f", "1e9", "--grid=0:1e302:2,0:1:2"],
     "r/a = 1.0000000000000002e+308 is out of range at beta a = 20.3919"),
    # the Bessel argument is finite, but |p| ~ r/a leaves double range
    (["field", "--a", "1e-6", "--f", "1e9", "--grid=0:1e300:2,0:1e300:2"],
     "field point (1e+300, 0.0): the pressure |p| = inf Pa at "
     "r/a = 1.0000000000000002e+306 is not finite"),
])
def test_radius_domain_edges_fail_clearly(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "below the cylinder surface" not in captured.err
    assert "(inf-infj)" not in captured.err  # the kernel's raw argument


@pytest.mark.parametrize("argv, n_rows", [
    # a decade inside each refused edge above: every value written is finite
    pytest.param(["profile", "--a", "1e-6", "--f", "1e9", "--rmax-factor", "1e306",
                  "--nr", "4"], 4, id="argv0"),
    pytest.param(["field", "--a", "1e-6", "--f", "1e9", "--grid=0:1e298:2,0:1:2"], 4,
                 id="argv1"),
    # XMAX is finite, and no grid point overflows on the way to it
    pytest.param(["field", "--a", "1e300", "--f", "1e-300", "--grid=0:1.7e308:3,0:1:2"], 6,
                 id="argv2"),
])
def test_radius_domain_edges_inside_write_finite_rows(argv, n_rows, capsys):
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",") if v]
    assert len(rows) == n_rows and all(math.isfinite(v) for v in values)


#: (a, f) over double range: every 25 decades with a up to 1e308 and f down
#: to 1e-310, a seeded sample, and the tiny-a, huge-f point where validate
#: once printed a NaN pressure Laplacian
_EDGE_RNG = random.Random(22)
EDGE_SCAN = ([(10.0 ** ea, 10.0 ** ef) for ea in [*range(-300, 301, 25), 308]
              for ef in [-310, *range(-300, 301, 25)]]
             + [(10.0 ** _EDGE_RNG.uniform(-300, 300), 10.0 ** _EDGE_RNG.uniform(-300, 300))
                for _ in range(12)]
             + [(1e-12, 1e300)])


def _edge_argv(command, a, v0):
    if command == "profile":
        return ["--nr", "4"]
    if command == "field":  # +-4a, clamped where 4a overflows
        b = min(4 * a, 1e308)
        return [f"--grid={-b!r}:{b!r}:3,{-b!r}:{b!r}:3", "--v0", repr(v0)]
    return ["--nodes", "8"] if command == "force" else []


@pytest.mark.parametrize("command, v0", [("profile", 1.0), ("force", 1.0), ("validate", 1.0)]
                         + [("field", v0) for v0 in (0.0, 1e-310, 1.0, 1e300)])
def test_domain_edge_scan(command, v0, capsys):
    # over the whole double range each run ends in an exit code: 0 with no
    # inf or NaN written, or 2 with one error line; a clean run never exits 1
    problems = []
    for a, f in EDGE_SCAN:
        argv = [command, "--a", repr(a), "--f", repr(f), *_edge_argv(command, a, v0)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("oscylinder: error: ")]
        if not (code == 0 and not re.search(r"\b(nan|inf)\b", out)
                or code == 2 and len(errors) == 1):
            problems.append((argv, code, out[-200:], err[-200:]))
    assert problems == []


@pytest.mark.parametrize("argv", [["field", "--a", "1e-300"],
                                  ["force", "--a", "1e-160"]])
def test_tiny_beta_a_fails_loudly(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "beta a" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("a", ["1e-200", "1e-250", "1e-300"])
def test_validate_at_tiny_beta_a_fails_loudly(a):
    # (beta a)^2 underflows to 0 here: exit 2 with one message, no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "oscylinder.cli", "validate", "--a", a],
        capture_output=True, text=True, timeout=60, env=SRC_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "beta a" in lines[0]
    assert "Traceback" not in proc.stderr


def test_force_at_tiny_beta_a_is_finite(capsys):
    # 1/(beta a)^2 overflows here while f(a)/(beta a) is still finite
    assert main(["force", "--a", "1e-158", "--f", "1"]) == 0
    _, rows = parse_csv(capsys.readouterr().out.encode("ascii"))
    total, _, _, quad = map(float, rows[0][1:])
    assert math.isfinite(quad)
    assert abs(quad - total) <= 1e-9 * total


@pytest.mark.parametrize("f, message", [
    # (beta a r/a h_rel)^2 overflows in the residual tolerance
    ("1e-300", "residual tolerance is out of range at beta a = 6.44849e+158, "
               "r/a = 1.1"),
    # the boundary checks' period 2 pi/omega overflows
    ("1e-310", "overflows at f = 1e-310 Hz"),
], ids=["tolerance", "period"])
def test_validate_at_huge_a_tiny_f_fails_clearly(f, message, capsys):
    assert main(["validate", "--a", "1e306", "--f", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Numerical result out of range" not in captured.err
    assert "math domain error" not in captured.err


def test_validate_refuses_overflowing_far_radius(capsys):
    # the boundary checks' far radius 1e3 a overflows at a = 1e306
    assert main(["validate", "--a", "1e306", "--f", "1e-306"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "far radius max(1e3 a, 20 delta) = inf m overflows at a = 1e+306 m" in captured.err
    assert "below the cylinder surface" not in captured.err


def test_validate_refuses_overflowing_shear_scale(capsys):
    # beta a ~ 2e155 at a = 1e305, f = 1e-305: every residual and boundary
    # row passes, but (beta a)^2 overflows in the wall stress and would print
    # NaN force rows
    assert main(["validate", "--a", "1e305", "--f", "1e-305"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("force at f = 1e-305 Hz, a = 1e+305 m: the shear stress scale "
            "(beta a)^2 = inf overflows at beta a = 2.03919e+155") in captured.err


def test_validate_inside_shear_scale_edge_passes(capsys):
    # a decade inside the edge: (beta a)^2 ~ 1.7e307 at f = 4e-308
    assert main(["validate", "--a", "1e305", "--f", "4e-308"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[-1] == "RESULT PASS"
    assert all(ln.endswith("PASS") for ln in lines)


@pytest.mark.parametrize("a, f", [("1e150", "1e-100"), ("1e172", "1e-100"),
                                  ("1e305", "4e-308")])
def test_validate_at_huge_a_forms_pressure_laplacian(a, f, capsys):
    # in metres 1/r^2 underflows from r ~ 6.7e153 and h*h overflows from
    # r ~ 1.3e158, which dropped terms of the pressure Laplacian: a false
    # max=2.562e-01 FAIL at a = 1e172 and a vacuous max=0 at a = 1e305;
    # residuals._residual_block measures lengths in a power of two near r instead
    assert main(["validate", "--a", a, "--f", f]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[-1] == "RESULT PASS"
    row, name, value, tol, verdict = lines[3].split()
    assert (row, name, verdict) == ("residual", "pressure_laplacian", "PASS")
    assert tol == "tol=1.000e-06"
    assert 0.0 < float(value.removeprefix("max=")) < 1e-6


@pytest.mark.parametrize("f", ["1e-6", "1", "1e9"])
def test_validate_at_tiny_a_prints_no_nan(f, capsys):
    # in metres the pressure's second differences overflowed at a = 1e-148,
    # printing a NaN pressure_laplacian row; residuals._residual_block measures
    # lengths in a power of two near r instead.  The tolerance there is
    # still the vacuous small beta a envelope (~1e284), so PASS is not
    # asserted, only that the rows are finite and every mutation still fails
    assert main(["validate", "--a", "1e-148", "--f", f]) in (0, 1)
    out = capsys.readouterr().out
    assert "nan" not in out and "inf" not in out
    for mutate in ("B:1.001", "C:1.001", "fa:1.001", "beta:1.001"):
        assert main(["validate", "--a", "1e-148", "--f", f, "--mutate", mutate]) == 1
        capsys.readouterr()


def test_force_refuses_overflowing_force(capsys):
    # (beta a)^2 ~ 6e8 is finite at nu0 = 1e300, but the force scale
    # 2 pi rho0 omega a^2 overflows at a = 1e154: forces._force_row names it
    # for both commands, where force named a NaN column and validate
    # printed a NaN quadrature row
    argv = ["--a", "1e154", "--f", "1", "--nu0", "1e300", "--rho0", "1"]
    for command in ("force", "validate"):
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("oscylinder: error: force at f = 1 Hz, a = 1e+154 m: the "
                                "force scale 2 pi rho0 omega a^2 = inf overflows at "
                                "rho0 = 1 kg/m^3\n")


@pytest.mark.parametrize("a, f, ba", [("1e154", "1", "6.44849e+156"),
                                      ("1e305", "1e-305", "2.03919e+155")])
def test_force_refuses_overflowing_shear_scale(a, f, ba, capsys):
    # force and validate share forces._force_row, and with it validate's
    # refusal, before a NaN quadrature column could be formed
    assert main(["force", "--a", a, "--f", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"oscylinder: error: force at f = {float(f):g} Hz, a = "
                            f"{float(a):g} m: the shear stress scale (beta a)^2 = inf "
                            f"overflows at beta a = {ba}\n")
    if a == "1e305":  # validate reaches its force rows here and prints the same
        assert main(["validate", "--a", a, "--f", f]) == 2
        assert capsys.readouterr().err == captured.err


def test_force_inside_overflow_edge_is_finite(capsys):
    assert main(["force", "--a", "1e150", "--f", "1"]) == 0
    _, rows = parse_csv(capsys.readouterr().out.encode("ascii"))
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0])


def test_validate_refuses_underflowing_step(capsys):
    # the default stencil step 1e-4 r is ~1e-162 m, and h*h underflows
    assert main(["validate", "--a", "1e-158", "--f", "1"]) == 2
    captured = capsys.readouterr()
    assert "step h" in captured.err
    assert captured.out == ""


def test_validate_refuses_collapsed_stencil(capsys):
    # at h = 1e-20 r the stencil points round back onto r, so every
    # difference is 0 or noise and the roundoff allowance passes anything
    assert main(["validate", "--h-rel", "1e-20"]) == 2
    captured = capsys.readouterr()
    h = 1e-20 * 1.1 * 1e-4  # innermost validate radius 1.1 a, default a
    assert f"step h = {h!r}" in captured.err
    assert captured.out == ""


def test_unwritable_output_returns_2(capsys):
    assert main(["profile", "--nr", "4", "--out",
                 "/nonexistent-dir/x.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_custom_fluid_accepted(tmp_path):
    code, data = run_to_file(tmp_path, "p.csv", [
        "profile", "--nu0", "1e-6", "--rho0", "1000.0",
        "--f", "50", "--nr", "4"])
    assert code == 0
    _, rows = parse_csv(data)
    assert len(rows) == 4


@pytest.mark.parametrize("command, defaults", [
    ("profile", ["--a", "1e-6", "--f", "10"]),
    ("field", ["--a", "1e-6", "--f", "100"]),
    ("force", ["--a", "1e-6", "--f-range", "1:1e4:200"]),
    ("validate", ["--a", "1e-4", "--f", "1000"]),
])
def test_bare_commands_use_their_documented_defaults(command, defaults, capsys):
    # the defaults README states: a bare command writes the same bytes as
    # the command with them spelled out
    assert main([command]) == 0
    bare = capsys.readouterr().out
    assert main([command, *defaults]) == 0
    # a bool, so that a failure does not diff thousands of CSV lines
    same = capsys.readouterr().out == bare
    assert bare and same


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # each cached parser is built on its first use and serves every later
    # main() call: a subcommand's own parser for `name ...`, the tree for
    # anything else, with the same codes, stdout and stderr as parsers
    # built afresh for each call
    argvs = [["validate"],
             ["validate", "--f", "1", "--f-list", "2"],  # argparse SystemExit
             ["validate", "--mutate", "Q:1.001"],  # refused by its type converter
             ["force"],
             ["profile", "--mode", "phase"],
             [],  # help on stderr, exit 2
             ["force", "--nodes", "7"],  # refused where it is used
             ["-h"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def clear():
        _command_parser.cache_clear()
        build_parser.cache_clear()

    fresh = []
    for argv in argvs:
        clear()
        fresh.append(run(argv))

    reused = []
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((len(reused), self.prog))

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    clear()
    for argv in argvs:
        reused.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 2, 0, 0, 2, 2, 0]
    # by the run that first needs it: validate's, force's and profile's own
    # parser, then the tree, with its four subparsers, for []
    assert built == [(0, "oscylinder validate"), (3, "oscylinder force"),
                     (4, "oscylinder profile"), (5, "oscylinder"),
                     *((5, f"oscylinder {name}") for name in _COMMANDS)]


def test_module_entry_point():
    # main(None) reads sys.argv[1:] itself: the tree for none or -h, a
    # subcommand's own parser for `force ...`
    for argv, code, stream, start in [
            (["force", "--f", "10", "--nodes", "8"], 0, "stdout",
             "f [Hz],abs_F_analytic_over_v0 [N s/m^2],"),
            ([], 2, "stderr", "usage: oscylinder [-h] "),
            (["-h"], 0, "stdout", "usage: oscylinder [-h] "),
            (["force", "-h"], 0, "stdout", "usage: oscylinder force ")]:
        proc = subprocess.run([sys.executable, "-m", "oscylinder.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=SRC_ENV)
        assert proc.returncode == code, argv
        assert getattr(proc, stream).startswith(start), argv


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_quietly(unbuffered):
    # the default 41 x 41 map is ~200 KB, more than a pipe buffer holds, so
    # the writer is still writing when the reader closes after one line
    env = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "oscylinder.cli", "field"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline().startswith(b"x [m],")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == 2


def test_closed_pipe_after_header_exits_quietly():
    # a 301 x 301 map is ~9 MB in 301 writes of one grid row each; a reader
    # that closes right after the header must still end the run quietly.
    # Exit 2 with an empty stderr is main's BrokenPipeError handler, which runs
    # in the child, where a line trace of the test process cannot see it
    grid = "--grid=-4e-6:4e-6:301,-4e-6:4e-6:301"
    with subprocess.Popen([sys.executable, "-m", "oscylinder.cli", "field", grid],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=SRC_ENV) as proc:
        assert proc.stdout.readline().startswith(b"x [m],")
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == 2


def test_runtime_imports_only_stdlib():
    # the package and its CLI load nothing outside the standard library
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import oscylinder, oscylinder.cli\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name.partition('.')[0] not in\n"
            "             sys.stdlib_module_names | {'oscylinder'}))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# documentation
# ----------------------------------------------------------------------

def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
