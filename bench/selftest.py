"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

For one op of each workload it checks that

* tracing changes no output: the traced report bytes equal the untraced ones;
* every per-layer metric is nonzero on a workload that calls its layer and
  zero on one that does not (NOT_CALLED);
* the traced op's oracle passes, and the layer the workload was chosen to
  stress takes more than half of the traced op time;

and that the set-up metrics read from ``-X importtime`` are nonzero.  Prints
every failed check and exits 1 if there was one.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from metricprobe import reports, scenarios  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metric prefixes of layers a workload never calls.
NOT_CALLED = {
    "chart-audit": ("generator.trace_null", "probe.", "simulate."),
    "bound-sweep": ("geometry.bump", "stress_energy.divergence", "stress_energy.christoffel",
                    "generator.boundary", "generator.audit", "simulate."),
    "readout-mc": ("geometry.bump", "stress_energy.divergence", "stress_energy.christoffel",
                   "generator.boundary", "generator.audit", "generator.trace_null"),
}


def check_workload(name: str, reference: dict) -> list:
    wl = workloads.Workload(name, seed=7, scenarios=scenarios)
    plain = [text for _, text in workloads.run_jobs(wl.jobs(1), scenarios, reports)]

    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(1)
    t0 = time.perf_counter()
    jobs = wl.jobs(1)
    try:
        results = workloads.run_jobs(jobs, scenarios, reports)
    finally:
        wall = time.perf_counter() - t0
        tracer.end_op()
        tracer.uninstall()

    bad = []
    if [text for _, text in results] != plain:
        bad.append("traced report bytes differ from untraced ones")
    for job, (rep, _) in zip(jobs, results):
        bad += workloads.check(name, job, rep, reference)
    metrics = tracing.layer_medians(tracer.spans, run.SPAN_METRICS)
    for metric, value in metrics.items():
        idle = metric.startswith(NOT_CALLED[name])
        if idle and value != 0:
            bad.append(f"{metric} = {value!r} on a workload that never calls it")
        if not idle and not value > 0:
            bad.append(f"{metric} = {value!r}, expected nonzero")
    stressed = run.STRESSED[name]
    if not metrics[stressed] > 0.5 * wall:
        bad.append(f"{stressed} = {metrics[stressed]:.4g} s is not over half of {wall:.4g} s")
    if any(s[tracing.ERROR] for s in tracer.spans):
        bad.append("a traced call raised")
    if hasattr(scenarios.run_bound, "__wrapped__"):
        bad.append("uninstall left a wrapper in place")
    return bad


def main() -> int:
    reference = workloads.load_reference()
    failed = False
    for name in workloads.SCENARIOS:
        bad = check_workload(name, reference)
        print(f"{name}: {'ok' if not bad else 'FAILED'}")
        for msg in bad:
            print(f"  {msg}")
        failed |= bool(bad)
    setup = run.import_times("readout-mc", time.monotonic() + 60)
    zero = [k for k, v in setup.items() if not v > 0]
    print(f"setup metrics: {'ok' if not zero else 'zero: ' + ', '.join(zero)}"
          f" (metricprobe import {setup['setup.import.metricprobe_s']:.3f} s)")
    return 1 if failed or zero else 0


if __name__ == "__main__":
    sys.exit(main())
