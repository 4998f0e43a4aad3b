"""Span tracing of metricprobe from outside the library.

The tracer replaces public functions and methods with timing wrappers at
every binding the program looks them up through: a function imported by
name into another module (``from .quadrature import integrate``) is a
separate binding, so patching only the defining module would miss those
calls.  Methods are patched on their class, which covers every instance.

Spans (name, start, end, parent, op id, counts, error, counting time of
the span's children) are kept in memory and written out by the caller
when the run ends.  ``uninstall`` restores the original objects, so
traced and untraced ops can alternate in one process.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from typing import Callable, Optional

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _points(x) -> int:
    return math.prod(np.shape(x)[:-1])


def _tensor_counts(args, kwargs, out):
    nonzero = np.any(out != 0.0, axis=(-2, -1))
    return {"points": int(nonzero.size), "nonzero": int(np.count_nonzero(nonzero))}


def _points_at(index: int, name: str):
    def count(args, kwargs, out):
        return {"points": _points(_arg(args, kwargs, index, name))}
    return count


def _nodes_at(index: int):
    def count(args, kwargs, out):
        # imported here: run.py imports this module without the library
        from metricprobe.quadrature import region_rules
        region = _arg(args, kwargs, index, "region")
        return {"nodes": math.prod(len(x) for x, _ in region_rules(region))}
    return count


def _modes(args, kwargs, out):
    return {"modes": len(_arg(args, kwargs, 0, "state").spectrum.lattice)}


def _samples(args, kwargs, out):
    return {"samples": int(np.size(out))}


def _bytes(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


#: (span name, "module:attribute" or "module:Class.method", counter).
#: Every layer boundary the benchmark reports on.  fock, verify and cli
#: are not traced: the first two are test oracles, cli is measured
#: through the set-up time.
SPANS = (
    ("scenarios.parse", "scenarios:parse_scenario", None),
    ("scenarios.build", "scenarios:build_family", None),
    ("scenarios.build", "scenarios:build_field", None),
    ("scenarios.build", "scenarios:build_region", None),
    ("scenarios.build", "scenarios:build_state", None),
    ("scenarios.build", "scenarios:build_sim_params", None),
    ("scenarios.run", "scenarios:run_bound", None),
    ("scenarios.run", "scenarios:run_simulate", None),
    ("geometry.eval", "geometry:MetricFamily.eval", _points_at(2, "x")),
    ("geometry.deriv", "geometry:MetricFamily.deriv", _points_at(1, "x")),
    ("geometry.bump", "geometry:BumpProfile.__call__", _points_at(1, "x")),
    ("stress_energy.tensor", "stress_energy:StressEnergyField.tensor", _tensor_counts),
    ("stress_energy.divergence", "stress_energy:covariant_divergence", _points_at(2, "x")),
    ("stress_energy.christoffel", "stress_energy:christoffel", _points_at(1, "x")),
    ("quadrature.integrate", "quadrature:integrate", _nodes_at(1)),
    ("generator.density", "generator:generator_density", _points_at(2, "x")),
    ("generator.integrate", "generator:integrate_generator", _nodes_at(2)),
    ("generator.trace_null", "generator:trace_null_residual", None),
    ("generator.boundary", "generator:boundary_term", None),
    ("generator.audit", "generator:coordinate_independence_check", None),
    ("probe.spectrum", "probe:monochromatic_spectrum", None),
    ("probe.spectrum", "probe:gaussian_band_spectrum", None),
    ("probe.spectrum", "probe:flat_band_spectrum", None),
    ("probe.crlb", "probe:crlb_amplitude", _modes),
    ("simulate.rng", "simulate:counter_normals", _samples),
    ("simulate.readout", "simulate:simulate_readout", None),
    ("simulate.model", "simulate:model_from_state", None),
    ("simulate.estimator", "simulate:linear_estimator", None),
    ("simulate.fisher", "simulate:classical_fisher", None),
    ("simulate.histogram", "simulate:histogram_fisher", None),
    ("simulate.saturation", "simulate:crb_saturation_check", None),
    ("reports.dump", "reports:dumps_report", _bytes),
)

# span fields; COUNTING is time the counters of child spans took inside
# this span, which is left out of its self time
NAME, START, END, PARENT, OP, COUNTS, ERROR, COUNTING = range(8)


class Tracer:
    """Installs the wrappers listed in SPANS and records their spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op: Optional[int] = None
        self._patched: list = []   # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        for name, target, count in SPANS:
            module_name, _, attr = target.partition(":")
            module = sys.modules[f"metricprobe.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(name, owner.__dict__[meth], count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "metricprobe" and not mod_name.startswith("metricprobe."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, clock(), 0.0, parent, self._op, None, False, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                stack.pop()
                span[END] = clock()
            if count is not None:
                span[COUNTS] = count(args, kwargs, out)
                if parent is not None:
                    spans[parent][COUNTING] += clock() - span[END]
            return out

        return functools.wraps(fn)(traced)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; spans opened until end_op belong to it."""
        self._op = op_id
        self.spans.append(["op", time.perf_counter(), 0.0, None, op_id, None, False, 0.0])
        self._stack.append(len(self.spans) - 1)

    def end_op(self, failed: bool = False) -> None:
        root = self.spans[self._stack.pop()]
        root[END] = time.perf_counter()
        root[ERROR] = failed
        self._op = None


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Bytes of one T^munu evaluation: 16 float64 components.  Computed from
#: array sizes, not measured traffic.
TENSOR_BYTES_PER_POINT = 16 * 8


def summarize(spans: list) -> dict:
    """{op id: {name: record}} over a tracer's span list.

    A record holds calls, errors, self_s (duration minus the time covered
    by child spans and their counters), busy_s (summed duration of the
    spans not nested in a span of the same name) and the summed counts.
    The name of a module ("simulate") gets a record too, whose busy_s
    covers its outermost spans.
    """
    child_time: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    out: dict = {}
    for i, s in enumerate(spans):
        recs = out.setdefault(s[OP], {})
        dur = s[END] - s[START]
        rec = recs.setdefault(s[NAME], {"calls": 0, "errors": 0, "self_s": 0.0, "busy_s": 0.0})
        rec["calls"] += 1
        rec["errors"] += int(s[ERROR])
        rec["self_s"] += dur - child_time.get(i, 0.0) - s[COUNTING]
        for key, val in (s[COUNTS] or {}).items():
            rec[key] = rec.get(key, 0) + val
        module = s[NAME].split(".")[0]
        same_name = same_module = False
        parent = s[PARENT]
        while parent is not None:
            pname = spans[parent][NAME]
            same_name |= pname == s[NAME]
            same_module |= pname.split(".")[0] == module
            parent = spans[parent][PARENT]
        if not same_name:
            rec["busy_s"] += dur
        if not same_module and module != s[NAME]:
            mod = recs.setdefault(module, {"busy_s": 0.0})
            mod["busy_s"] += dur
    return out


def layer_value(metric: str, recs: dict) -> float:
    """Value of one per-layer metric for one op's records: a derived
    metric below, or "<span>.<field>" read from a record of summarize()."""
    def get(name, field):
        return recs.get(name, {}).get(field, 0)

    if metric == "stress_energy.tensor.nonzero_ratio":
        points = get("stress_energy.tensor", "points")
        return get("stress_energy.tensor", "nonzero") / points if points else 0.0
    if metric == "stress_energy.tensor.bytes":
        return get("stress_energy.tensor", "points") * TENSOR_BYTES_PER_POINT
    if metric == "generator.t_evals_per_node":
        nodes = get("quadrature.integrate", "nodes") + get("generator.integrate", "nodes")
        return get("stress_energy.tensor", "points") / nodes if nodes else 0.0
    if metric == "probe.modes":
        return get("probe.crlb", "modes")
    name, field = metric.rsplit(".", 1)
    return get(name, field)


def layer_medians(spans: list, metrics) -> dict:
    """Median over traced ops of each of the named metrics."""
    per_op = [recs for op, recs in summarize(spans).items() if op is not None]
    return {metric: statistics.median(layer_value(metric, recs) for recs in per_op)
            for metric in metrics}


def call_counts(spans: list) -> dict:
    """{span name: (calls, errors)} summed over the whole run."""
    out: dict = {}
    for s in spans:
        calls, errors = out.get(s[NAME], (0, 0))
        out[s[NAME]] = (calls + 1, errors + int(s[ERROR]))
    return out
