"""One timed pass of a workload, run in a fresh interpreter.

Reads a JSON spec on stdin, runs its units in order and writes one JSON
object to stdout.  Every unit's output is captured in memory; hashing
and reporting happen after the clock stops.  A fresh process per pass
means the Bessel ``lru_cache``s start cold, as they do for a CLI user.

The pass is bracketed by a fixed calibration kernel, timed just before
and just after it, so that the caller can tell a slower program from a
slower host.

Units:
  {"kind": "cli", "argv": [...]}          oscylinder.cli.main(argv)
  {"kind": "recovery_radius", "a": A, "f": F, "fraction": X}
      recovery_radius(Scenario.from_frequency(AIR_20C, A, 1.0, F), X)
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import oscylinder
import oscylinder.cli
from calib import calibrate


def peak_rss_kb() -> int:
    """Peak resident set of this process [KiB].

    Linux carries the spawning parent's peak into ru_maxrss across exec,
    so VmHWM of the process's own address space is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _run_recovery(unit):
    s = oscylinder.Scenario.from_frequency(oscylinder.AIR_20C, unit["a"], 1.0,
                                           unit["f"])
    return 0, repr(oscylinder.recovery_radius(s, unit["fraction"])) + "\n", ""


def main() -> int:
    spec = json.load(sys.stdin)
    trace = spec.get("trace")
    tracer = None
    cli_main = oscylinder.cli.main
    if trace:
        from tracer import Tracer
        tracer = Tracer(getattr(oscylinder.bessel, "SERIES_RADIUS", 17.0))
        tracer.install()
        cli_main = tracer.wrap(cli_main)

    results = []
    calib_before = calibrate()
    t0 = time.perf_counter()
    for uid, unit in enumerate(spec["units"]):
        if tracer is not None:
            tracer.set_unit(uid)
        if unit["kind"] == "cli":
            results.append(_run_cli(cli_main, unit["argv"]))
        else:
            results.append(_run_recovery(unit))
    wall = time.perf_counter() - t0
    calib_s = 0.5 * (calib_before + calibrate())
    maxrss_kb = peak_rss_kb()

    units = []
    for rc, out, err in results:
        data = out.encode()
        units.append({"rc": rc, "sha256": hashlib.sha256(data).hexdigest(),
                      "bytes": len(data), "stdout": out, "stderr": err[-300:]})
    report = {"wall_s": wall, "calib_s": calib_s, "maxrss_kb": maxrss_kb,
              "units": units}
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(trace["spans_path"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
