"""metricprobe benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload chart-audit|bound-sweep|readout-mc \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh child
process (bench/worker.py) as a closed loop with one client; this process
then reads the child's peak RSS and, with --trace 0, times fresh
interpreters that import the CLI and resolve the workload's bundled
scenarios (set-up), or, with --trace 1, runs one such interpreter under
``-X importtime``.  Every timing is divided by the host slowdown that
the kernel in hostspeed.py measured during the op loop.  It prints a table of
every metric with its unit and sample count, the host, and as its last
line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Everything measured, spans included, is also written to
.bench_out/<workload>-seed<N>-trace<T>.json.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 3
#: Seconds after which the run is abandoned and its child killed; the
#: whole run must end within 180 s.
RUN_DEADLINE_S = 170
#: The run is flagged as started under load when the 1-minute load
#: average is at least this share of the cores (one busy core of two is
#: not flagged: it is what the previous run leaves behind).
LOAD_FLAG_SHARE = 0.75

#: Names and units of the metrics, in the order printed: "end_to_end" and
#: "per_layer" of BENCHMARK.json.  This file and tracing.py only derive
#: the values.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {section: {m["name"]: m["unit"] for m in SPEC[section]}
         for section in ("end_to_end", "per_layer")}
SETUP_IMPORTS = {
    "setup.import.metricprobe_s": "metricprobe",
    "setup.import.scipy_interpolate_s": "scipy.interpolate",
    "setup.import.scipy_sparse_s": "scipy.sparse",
    "setup.import.scipy_special_s": "scipy.special",
}
#: Per-layer metrics read from spans; the setup.* ones come from
#: -X importtime and trace.overhead_s from the op times.
SPAN_METRICS = tuple(m for m in UNITS["per_layer"] if not m.startswith(("setup.", "trace.")))
#: The layer each workload was chosen to stress, as the traced busy time
#: that must exceed half of the traced op time.
STRESSED = {
    "chart-audit": "stress_energy.divergence.busy_s",
    "bound-sweep": "generator.integrate.busy_s",
    "readout-mc": "simulate.busy_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_snippet(workload: str) -> str:
    names = workloads.SCENARIOS[workload]
    return ("import time\n"
            "import metricprobe.cli\n"
            "from metricprobe.scenarios import resolve_scenario\n"
            "t = time.perf_counter()\n"
            f"for name in {names!r}:\n"
            "    resolve_scenario(name)\n"
            "print(time.perf_counter() - t)\n")


def _run_child(cmd: list, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; kill it and raise if it is still running
    at the time.monotonic() deadline."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} still running at the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {cmd[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_times(workload: str, deadline: float) -> list:
    """Wall times of SETUP_RUNS fresh interpreters importing the CLI and
    resolving the workload's bundled scenarios."""
    out = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", _setup_snippet(workload)], deadline)
        out.append(time.perf_counter() - t0)
    return out


def import_times(workload: str, deadline: float) -> dict:
    """setup.* metrics from one fresh interpreter under -X importtime:
    cumulative import time of the named packages, and scenario load time."""
    proc = _run_child([sys.executable, "-X", "importtime", "-c", _setup_snippet(workload)],
                      deadline)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    out = {metric: cumulative.get(pkg, 0.0) for metric, pkg in SETUP_IMPORTS.items()}
    out["setup.scenario_load_s"] = float(proc.stdout.split()[-1])
    return out


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  With fewer than 22 samples that
    percentile lies at or below the median and is no tail, so the maximum
    is returned instead, as p100 with none beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n < 22:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n - 1 - k


def read_loadavg() -> list:
    with open("/proc/loadavg") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def host_record() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": read_loadavg()}


def end_to_end(ops: list, loop_s: float, probes: list, rss_mb: float, setup: list) -> tuple:
    """End-to-end metrics.  Every timing is divided by a host slowdown
    (hostspeed.py): an op's by that of the kernel runs just before and
    after it, the rest by the median over the op loop.  Set-up runs
    right after the loop; kernel runs beside each set-up interpreter
    gave a noisier reading than the loop's."""
    slows = [hostspeed.slowdown(probes[i:i + 2]) for i in range(len(ops))]
    run_slow = hostspeed.slowdown(probes)
    walls = [op["wall"] / s for op, s in zip(ops, slows)]
    value, pct, beyond = tail(walls)
    # time between ops: the oracle and bookkeeping
    between = (loop_s - sum(op["wall"] for op in ops)) / run_slow
    failed = sum(1 for op in ops if op["failures"])
    metrics = {
        "setup_s": statistics.median(setup) / run_slow,
        "op_s.p50": statistics.median(walls),
        "op_s.tail": value,
        "ops_per_s": len(ops) / (sum(walls) + between),
        "cpu_s_per_op": statistics.median(op["cpu"] / s for op, s in zip(ops, slows)),
        "peak_rss_mb": rss_mb,
        "pass_ratio": 1.0 - failed / len(ops),
    }
    raw_walls = [op["wall"] for op in ops]
    notes = {
        "setup_s": (f"median of {len(setup)} fresh interpreters; as measured "
                    f"{statistics.median(setup):.4g}"),
        "op_s.p50": f"n={len(walls)}; as measured {statistics.median(raw_walls):.4g}",
        "op_s.tail": (f"p{pct:.1f}, n={len(walls)}, {beyond} beyond" if beyond else
                      f"max, n={len(walls)}: under 22 ops, p(n-11) is no tail"),
        "ops_per_s": f"{len(ops)} ops; as measured {len(ops) / loop_s:.4g} in {loop_s:.2f} s",
        "cpu_s_per_op": f"median, n={len(ops)}",
        "peak_rss_mb": "workload child, getrusage(RUSAGE_CHILDREN)",
        "pass_ratio": f"fail_ratio {failed / len(ops):.4g} = {failed}/{len(ops)}",
    }
    return metrics, notes


def per_layer(ops: list, spans: list, slow: float, setup: dict) -> tuple:
    """Per-layer metrics.  Timings are divided by the median host slowdown
    over the op loop, as setup_s is."""
    metrics = tracing.layer_medians(spans, SPAN_METRICS)
    metrics.update(setup)
    traced = [op["wall"] for op in ops if op["traced"]]
    plain = [op["wall"] for op in ops if not op["traced"]]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name in metrics:
        if UNITS["per_layer"].get(name) == "s":
            metrics[name] /= slow
    notes = {m: f"median over {len(traced)} traced ops, host slowdown {slow:.3f}"
             for m in metrics}
    notes.update({m: f"one fresh interpreter, -X importtime, host slowdown {slow:.3f}"
                  for m in setup})
    notes["trace.overhead_s"] = (f"traced p50 {statistics.median(traced):.4g} s (n={len(traced)})"
                                 f" - untraced p50 {statistics.median(plain):.4g} s"
                                 f" (n={len(plain)}) as measured, host slowdown {slow:.3f}")
    return metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="metricprobe benchmark: one run of one workload")
    p.add_argument("--workload", required=True, choices=tuple(workloads.SCENARIOS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "metricprobe" / "__init__.py").is_file():
        sys.stderr.write(f"error: no metricprobe sources under {SRC}; "
                         "run from the root of a metricprobe checkout\n")
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    host = host_record()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = OUT_DIR / f"{stem}.worker.json"
    try:
        _run_child([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(raw_path)], deadline)
        # only the worker has ended so far, so this is its peak RSS (KiB on Linux)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        with open(raw_path) as fh:
            raw = json.load(fh)
        raw_path.unlink()
        ops = raw["ops"]
        slow = hostspeed.slowdown(raw["probes"])
        if args.trace:
            metrics, notes = per_layer(ops, raw["spans"], slow,
                                       import_times(args.workload, deadline))
            units = UNITS["per_layer"]
        else:
            metrics, notes = end_to_end(ops, raw["loop_s"], raw["probes"], rss_mb,
                                        setup_times(args.workload, deadline))
            units = UNITS["end_to_end"]
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are derived here "
                             "or named in BENCHMARK.json, not both")
        metrics = {name: metrics[name] for name in units}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    host.update(raw["versions"])
    host["loadavg_end"] = read_loadavg()
    host["slowdown"] = slow
    host["started_under_load"] = host["loadavg_start"][0] >= LOAD_FLAG_SHARE * host["nproc"]
    failed = sum(1 for op in ops if op["failures"])

    width = max(len(m) for m in metrics)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(ops)} ops in {raw['loop_s']:.2f} s "
          f"(+1 warm-up op)")
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:<14.6g} {units[name]:<10} {notes[name]}")
    if args.trace:
        share = metrics[STRESSED[args.workload]] * slow / statistics.median(
            op["wall"] for op in ops if op["traced"])
        print(f"  stressed layer: {STRESSED[args.workload]} is {share:.1%} of traced op time")
        for name, (calls, errors) in sorted(tracing.call_counts(raw["spans"]).items()):
            print(f"  calls {name:<28} {calls:>8}  errors {errors}")
    for op in ops:
        for msg in op["failures"]:
            print(f"  FAILED op {op['index']}: {msg}")
    print("host " + json.dumps(host, sort_keys=True))
    if host["started_under_load"]:
        print(f"  WARNING: started under load (1-min load {host['loadavg_start'][0]} "
              f"on {host['nproc']} cores)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "metrics": metrics, "notes": notes,
              "ops": ops, "probes": raw["probes"], "spans": raw["spans"]}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh)

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
