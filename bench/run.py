"""oscylinder benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload force_sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

The program is driven only from outside: ``oscylinder.cli.main(argv)``
in-process and one public library call, each timed pass in a fresh
child interpreter (``bench/child.py``), all load from one
single-threaded process.  See ``bench/README.md`` for why each workload
exists and which end-to-end metric each per-layer metric should move.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same untraced passes plus one traced pass and reports the per-layer
metrics.  The last line of stdout is one JSON object; the lines before
it print every metric with its unit and sample count.  Per-unit records
(with commit, Python, nproc, CPU and the SHA-256 of each unit's stdout)
and the traced run's counts and spans go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import checks
from calib import CALIB_REF_S, calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
CHILD = os.path.join(BENCH_DIR, "child.py")
SRC_DIR = "src"
PACKAGE_FILE = os.path.join(SRC_DIR, "oscylinder", "cli.py")

NU0_AIR = 15.11e-6        # kinematic viscosity of the default fluid (air20)
SETUP_SPAWNS = 25         # fresh interpreters timed for setup_s in each run
MIN_PASSES = 3            # timed passes per run, even if --seconds runs out
CHILD_TIMEOUT_S = 120

WORKLOADS = ("force_sweep", "field_map", "verify")
END_TO_END = (("wall_s", "s"), ("rows_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_rate", "ratio"))
PER_LAYER = (
    ("bessel.calls", "count"), ("bessel.distinct_arg_ratio", "ratio"),
    ("bessel.series_share", "ratio"), ("bessel.self_s", "s"),
    ("bessel.cold_us", "us"),
    ("forces.stress_tensor.calls", "count"), ("forces.traction.calls", "count"),
    ("forces.quadrature_nodes", "count"), ("forces.self_s", "s"),
    ("flow.velocity.calls", "count"), ("flow.pressure.calls", "count"),
    ("flow.flow_state.calls", "count"), ("flow.brackets.calls", "count"),
    ("flow.distinct_radius_ratio", "ratio"), ("flow.recovery_radius.s", "s"),
    ("flow.self_s", "s"),
    ("residuals.residual_report.calls", "count"),
    ("residuals.flow_state_per_report", "ratio"),
    ("residuals.boundary_suite.s", "s"), ("residuals.self_s", "s"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


# ----------------------------------------------------------------------
# workloads: units generated from the seed
# ----------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def force_sweep(rng: random.Random) -> list[dict]:
    """One 200-frequency x 512-node force sweep; beta*a from 6e-4 to 6."""
    a = _log_uniform(rng, 1e-6, 1e-4)
    argv = ["force", "--a", repr(a), "--f-range", "1:1e4:200",
            "--nodes", "512", "--jobs", "1"]
    return [{"kind": "cli", "argv": argv, "check": "force", "a": a,
             "rows": 200, "samples": 8}]


def field_map(rng: random.Random) -> list[dict]:
    """field 101x101 over +-4a, profile, recovery_radius for one scenario."""
    a = _log_uniform(rng, 5e-7, 2e-6)
    f = _log_uniform(rng, 10.0, 1000.0)
    n = 101
    grid = f"--grid={-4 * a!r}:{4 * a!r}:{n},{-4 * a!r}:{4 * a!r}:{n}"
    common = ["--a", repr(a), "--f", repr(f)]
    return [
        {"kind": "cli", "argv": ["field", *common, grid], "check": "field",
         "a": a, "f": f, "n": n, "rows": n * n, "samples": 12},
        {"kind": "cli", "argv": ["profile", *common], "check": "profile",
         "a": a, "f": f, "rows": 200, "samples": 8},
        {"kind": "recovery_radius", "a": a, "f": f, "fraction": 0.9,
         "check": "recovery_radius", "rows": 0},
    ]


#: validate prints 4 residual + 4 boundary + 2 force lines and RESULT
_VALIDATE_LINES = 11
_MUTATIONS = (None, "B:1.001", "C:1.001", "fa:1.001", "beta:1.001")
#: fixed edge point where --mutate B:1.001 passes silently (velocity is
#: NaN and the reductions' max(0.0, nan) drops it); kept so it stays visible
_EDGE_BA = 1e3


def verify(rng: random.Random) -> list[dict]:
    """validate at one beta*a per decade 1e-8..1e4 plus beta*a = 1e3,
    each clean and under four 0.1% coefficient mutations."""
    points = []
    for decade in range(-8, 4):
        points.append((10.0 ** (decade + rng.random()),
                       _log_uniform(rng, 1.0, 1e4)))
    points.append((_EDGE_BA, 1000.0))
    units = []
    for ba, f in points:
        a = ba / math.sqrt(2.0 * math.pi * f / NU0_AIR)
        for mutate in _MUTATIONS:
            argv = ["validate", "--a", repr(a), "--f", repr(f)]
            if mutate:
                argv += ["--mutate", mutate]
            units.append({"kind": "cli", "argv": argv, "check": "validate",
                          "mutate": mutate, "ba": ba,
                          "rows": _VALIDATE_LINES})
    return units


GENERATORS = {"force_sweep": force_sweep, "field_map": field_map,
              "verify": verify}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, spawns: int) -> tuple[list[float], float]:
    """Seconds from spawning a fresh interpreter to `import oscylinder.cli`
    done, per spawn, and the calibration time around the spawns."""
    code = ("import time, oscylinder.cli, sys; "
            "sys.stdout.write(str(time.monotonic_ns()))")
    samples = []
    calib_before = calibrate()
    for _ in range(spawns):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append((int(proc.stdout) - t0) / 1e9)
    return samples, 0.5 * (calib_before + calibrate())


def run_pass(env: dict, units: list[dict], spans_path: str | None = None) -> dict:
    spec = {"units": [{k: u[k] for k in ("kind", "argv", "a", "f", "fraction")
                       if k in u} for u in units],
            "trace": {"spans_path": spans_path} if spans_path else None}
    proc = subprocess.run([sys.executable, CHILD], input=json.dumps(spec),
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"timed pass failed (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _layer_sum(table: dict, layer: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(layer + "."))


def per_layer_metrics(tr: dict, traced_wall: float, untraced_wall: float,
                      cli_bytes: int) -> dict:
    calls, self_ns, incl = tr["calls"], tr["self_ns"], tr["inclusive_ns"]

    def ratio(num, den):
        return num / den if den else 0.0

    bessel_calls = _layer_sum(calls, "bessel")
    bessel_self = _layer_sum(self_ns, "bessel") / 1e9
    reports = calls.get("residuals.residual_report", 0)
    return {
        "bessel.calls": bessel_calls,
        "bessel.distinct_arg_ratio": ratio(tr["bessel_distinct_args"], bessel_calls),
        "bessel.series_share": ratio(tr["bessel_series_calls"], bessel_calls),
        "bessel.self_s": bessel_self,
        "bessel.cold_us": ratio(bessel_self * 1e6, tr["bessel_distinct_args"]),
        "forces.stress_tensor.calls": calls.get("forces.stress_tensor", 0),
        "forces.traction.calls": calls.get("forces.traction", 0),
        "forces.quadrature_nodes": tr["quadrature_nodes"],
        "forces.self_s": _layer_sum(self_ns, "forces") / 1e9,
        "flow.velocity.calls": calls.get("flow.velocity", 0),
        "flow.pressure.calls": calls.get("flow.pressure", 0),
        "flow.flow_state.calls": calls.get("flow.flow_state", 0),
        "flow.brackets.calls": sum(v for k, v in calls.items()
                                   if k.startswith("flow.") and "bracket" in k),
        "flow.distinct_radius_ratio": ratio(tr["radial_distinct"], tr["radial_calls"]),
        "flow.recovery_radius.s": incl.get("flow.recovery_radius", 0) / 1e9,
        "flow.self_s": _layer_sum(self_ns, "flow") / 1e9,
        "residuals.residual_report.calls": reports,
        "residuals.flow_state_per_report": ratio(tr["flow_state_from_report"], reports),
        "residuals.boundary_suite.s": incl.get("residuals.boundary_suite", 0) / 1e9,
        "residuals.self_s": _layer_sum(self_ns, "residuals") / 1e9,
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": _layer_sum(self_ns, "cli") / 1e9,
        "cli.bytes_out": cli_bytes,
        "trace.spans": tr["spans"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ----------------------------------------------------------------------
# metadata
# ----------------------------------------------------------------------

def _commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Digest of the package sources: identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "oscylinder")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    return {"commit": _commit(), "src_sha256": _src_sha256(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    units = GENERATORS[name](random.Random(f"{name}-{seed}"))
    env = _child_env()
    os.makedirs(RESULTS_DIR, exist_ok=True)

    measure_setup(env, 1)  # writes bytecode once; not counted
    raw_setup, setup_calib = measure_setup(env, SETUP_SPAWNS)
    setup = [t * CALIB_REF_S / setup_calib for t in raw_setup]

    # start a pass only if a typical pass still ends within --seconds
    passes, cycles = [], []
    t_end = time.monotonic() + seconds
    while (len(passes) < MIN_PASSES
           or time.monotonic() + statistics.median(cycles) <= t_end):
        t0 = time.monotonic()
        passes.append(run_pass(env, units))
        cycles.append(time.monotonic() - t0)
    # each pass is rescaled by the calibration timed around it in its child
    raw_walls = [p["wall_s"] for p in passes]
    calibs = [p["calib_s"] for p in passes]
    walls = [w * CALIB_REF_S / c for w, c in zip(raw_walls, calibs)]
    rows = sum(u["rows"] for u in units)
    rates = [rows / w for w in walls]
    rss = [p["maxrss_kb"] / 1024.0 for p in passes]

    # correctness gate, outside the timed window; identical bytes are
    # checked once
    verdicts = {}
    unit_records = []
    failed = 0
    for p_index, p in enumerate(passes):
        for u_index, (unit, rec) in enumerate(zip(units, p["units"])):
            key = (u_index, rec["rc"], rec["sha256"])
            if key not in verdicts:
                verdicts[key] = checks.check_unit(unit, rec["rc"],
                                                  rec.pop("stdout"), seed)
            problems = verdicts[key]
            failed += bool(problems)
            unit_records.append({"pass": p_index, "unit": u_index,
                                 "argv": unit.get("argv"), "rc": rec["rc"],
                                 "sha256": rec["sha256"], "bytes": rec["bytes"],
                                 "problems": problems})
    attempted = len(units) * len(passes)
    # every failed unit counts in `failed`; `correct` covers the computed
    # values, so a mutated validate run that is not detected (the self-check
    # missed the perturbation) fails its unit without making `correct` false
    correct = not any(problems for (u_index, _, _), problems in verdicts.items()
                      if not units[u_index].get("mutate"))

    e2e = {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "pass_rate": (attempted - failed) / attempted,
    }
    samples = {"wall_s": walls, "rows_per_s": rates, "setup_s": setup,
               "peak_rss_mb": rss, "raw_wall_s": raw_walls, "calib_s": calibs,
               "raw_setup_s": raw_setup, "setup_calib_s": setup_calib}

    layer = None
    if trace:
        spans_path = os.path.join(RESULTS_DIR, f"{name}.spans.tsv.gz")
        traced = run_pass(env, units, spans_path=spans_path)
        if ([u["sha256"] for u in traced["units"]]
                != [u["sha256"] for u in passes[0]["units"]]):
            raise RuntimeError("the traced pass wrote different output")
        cli_bytes = sum(rec["bytes"] for rec, unit in zip(traced["units"], units)
                        if unit["kind"] == "cli")
        traced_wall = traced["wall_s"] * CALIB_REF_S / traced["calib_s"]
        layer = per_layer_metrics(traced["trace"], traced_wall, e2e["wall_s"],
                                  cli_bytes)
        with open(os.path.join(RESULTS_DIR, f"{name}-seed{seed}.counts.json"),
                  "w", encoding="ascii") as fh:
            json.dump({"workload": name, "seed": seed,
                       "calls": traced["trace"]["calls"],
                       "spans": traced["trace"]["spans"],
                       "maxrss_kb": traced["maxrss_kb"],
                       "spans_file": os.path.basename(spans_path)},
                      fh, indent=1, sort_keys=True)

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "meta": metadata(), "units_per_pass": len(units),
              "rows_per_pass": rows, "passes": len(passes),
              "end_to_end": e2e, "samples": samples, "per_layer": layer,
              "attempted": attempted, "failed": failed, "correct": correct,
              "unit_records": unit_records}
    with open(os.path.join(RESULTS_DIR, f"{name}-seed{seed}.json"), "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict, trace: bool) -> dict:
    """Print every metric with unit and sample count; return the JSON line."""
    name = record["workload"]
    print(f"# {name}  seed={record['seed']}  passes={record['passes']}  "
          f"units/pass={record['units_per_pass']}  rows/pass={record['rows_per_pass']}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"correct={record['correct']}")
    for metric, unit in END_TO_END:
        value = record["end_to_end"][metric]
        values = record["samples"].get(metric)
        if values:
            q1, q3 = _quartiles(values)
            print(f"  {metric:32s} {value:.6g} {unit}  "
                  f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
        else:
            print(f"  {metric:32s} {value:.6g} {unit}  "
                  f"({record['attempted']} units)")
    smp = record["samples"]
    print(f"  unscaled: wall_s {statistics.median(smp['raw_wall_s']):.6g} s, "
          f"setup_s {statistics.median(smp['raw_setup_s']):.6g} s; calibration "
          f"{statistics.median(smp['calib_s']):.6g} s in passes, "
          f"{smp['setup_calib_s']:.6g} s around set-up, reference {CALIB_REF_S} s")
    if trace:
        for metric, unit in PER_LAYER:
            print(f"  {metric:32s} {record['per_layer'][metric]:.6g} {unit}  "
                  "(one traced pass)")
    for rec in record["unit_records"]:
        if rec["pass"] == 0 and rec["problems"]:
            print(f"  FAILED unit {rec['unit']} {' '.join(rec['argv'] or [])}: "
                  f"{'; '.join(rec['problems'])}")
    table = PER_LAYER if trace else END_TO_END
    source = record["per_layer"] if trace else record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m: {"value": source[m], "unit": u} for m, u in table}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (PACKAGE_FILE, checks.REFERENCE_PATH)
               if not os.path.isfile(p)]
    if missing:
        print(f"bench: run from the root of an oscylinder checkout; "
              f"missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(record, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
