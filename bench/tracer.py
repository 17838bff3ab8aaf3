"""Out-of-program span tracer for the oscylinder layers.

The tracer never edits the package: it rebinds names in the module
namespaces.  It scans every oscylinder module for functions that one
module imports from another (the package ``__init__`` counts as an
importer, so each module's public API is included) and replaces every
binding of such a function, in its defining module as well, with a
wrapper that records a span.  Discovery is by scanning, not by a fixed
list, so the tracer keeps working when functions are renamed or moved.

``doubledouble`` is reached from ``bessel`` only through a module alias
(``dd.c_mul`` ...), which the scan does not wrap: its time stays inside
``bessel`` self time.

Spans live in parallel arrays and are written out once, after the pass.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

#: the program's layers, in the order metrics are reported
LAYERS = ("cli", "flow", "forces", "residuals", "bessel")
#: modules whose time is booked to another layer
_LAYER_OF_MODULE = {"doubledouble": "bessel"}
#: flow functions evaluated at one (scenario, radius) pair
_RADIAL_NAMES = ("velocity", "pressure", "flow_state")


def _layer(module_name: str) -> str | None:
    package, _, leaf = module_name.partition(".")
    if package != "oscylinder" or not leaf:
        return None
    leaf = _LAYER_OF_MODULE.get(leaf, leaf)
    return leaf if leaf in LAYERS else None


def _is_traceable(obj) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and _layer(getattr(obj, "__module__", "") or "") is not None)


class Tracer:
    """Records spans (name, start, end, parent, unit) for one process."""

    def __init__(self, series_radius: float):
        self.series_radius = series_radius
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._unit = [-1]
        self.bessel_args: set[complex] = set()
        self.bessel_series = 0
        self.radial_keys: set = set()
        self.radial_calls = 0
        self.quadrature_nodes = 0

    def set_unit(self, unit_id: int) -> None:
        self._unit[0] = unit_id

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # --- argument hooks: counts measured where the work happens ---------

    def _bessel_hook(self, args, kwargs):
        if not args:
            return
        z = complex(args[0])
        self.bessel_args.add(z)
        if abs(z) <= self.series_radius:
            self.bessel_series += 1

    def _radial_hook(self, args, kwargs):
        if len(args) < 2:
            return
        s, where = args[0], args[1]
        rho = where.r / s.a if hasattr(where, "r") else where
        self.radial_keys.add((s, rho))
        self.radial_calls += 1

    def _quadrature_hook(self, signature):
        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.quadrature_nodes += bound.arguments["n_nodes"]
        return hook

    def _hook_for(self, layer: str, fn):
        name = fn.__name__
        if layer == "bessel":
            return self._bessel_hook
        if layer == "flow" and (name in _RADIAL_NAMES or "bracket" in name):
            return self._radial_hook
        if layer == "forces" and name == "force_quadrature":
            return self._quadrature_hook(inspect.signature(fn))
        return None

    def wrap(self, fn):
        """Return a span-recording wrapper around one layer function."""
        layer = _layer(fn.__module__)
        nid = self._name_id(f"{layer}.{fn.__name__}")
        hook = self._hook_for(layer, fn)
        names, parents, units, starts, ends = (
            self.name, self.parent, self.unit, self.start, self.end)
        stack, unit = self._stack, self._unit
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(unit[0])
            ends.append(0)
            if hook is not None:
                hook(args, kwargs)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Rebind every cross-module function in every oscylinder namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "oscylinder" or name.startswith("oscylinder.")}
        crossing = {}
        for mod_name, mod in modules.items():
            for obj in vars(mod).values():
                if _is_traceable(obj) and obj.__module__ != mod_name:
                    crossing[id(obj)] = obj
        wrappers = {key: self.wrap(fn) for key, fn in crossing.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is crossing[id(obj)]:
                    setattr(mod, attr, wrappers[id(obj)])

    # --- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name counts, per-layer self time and inclusive time [ns]."""
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        children = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                children[p] += ends[i] - starts[i]
        k = len(self.names)
        calls = [0] * k
        incl = [0] * k
        self_ns = [0] * k
        for i in range(n):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            incl[nid] += d
            self_ns[nid] += d - children[i]
        flow_state_from_report = 0
        nid_fs = self._name_ids.get("flow.flow_state")
        nid_rr = self._name_ids.get("residuals.residual_report")
        if nid_fs is not None and nid_rr is not None:
            flow_state_from_report = sum(
                1 for i in range(n)
                if names[i] == nid_fs and parents[i] >= 0
                and names[parents[i]] == nid_rr)
        return {
            "spans": n,
            "calls": dict(zip(self.names, calls)),
            "inclusive_ns": dict(zip(self.names, incl)),
            "self_ns": dict(zip(self.names, self_ns)),
            "bessel_distinct_args": len(self.bessel_args),
            "bessel_series_calls": self.bessel_series,
            "radial_distinct": len(self.radial_keys),
            "radial_calls": self.radial_calls,
            "quadrature_nodes": self.quadrature_nodes,
            "flow_state_from_report": flow_state_from_report,
        }

    def write_spans(self, path: str) -> None:
        """Write every span as gzip'd TSV; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        names = self.names
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("unit\tspan\tparent\tname\tstart_ns\tend_ns\n")
            chunk = []
            for i in range(len(self.start)):
                chunk.append(f"{self.unit[i]}\t{i}\t{self.parent[i]}\t"
                             f"{names[self.name[i]]}\t{self.start[i] - t0}\t"
                             f"{self.end[i] - t0}\n")
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))
