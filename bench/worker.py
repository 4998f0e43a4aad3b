"""One workload run in a fresh process: a closed loop with one client.

Started by run.py, which reads this process's peak RSS once it exits.
After one untimed warm-up op, ops run back to back until the next one
would end after --seconds.  Every op's report is checked.  The host
speed kernel (hostspeed.py) runs before every op and after the last; its
time is left out of the loop time.  With --trace 1 the ops alternate
untraced and traced, so one run gives both the per-layer spans and the
tracing overhead.  The result, spans
included, is written as JSON to --out.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out PATH
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from metricprobe import reports, scenarios  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def versions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def run_op(wl, index: int, reference: dict) -> dict:
    jobs = wl.jobs(index)
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        results = workloads.run_jobs(jobs, scenarios, reports)
    except Exception:  # an op that raises counts as failed; the loop goes on
        error = traceback.format_exc(limit=3)
    rec = {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0}
    if error:
        rec["failures"] = [error]
        return rec
    try:
        rec["failures"] = [msg for job, (rep, _) in zip(jobs, results)
                           for msg in workloads.check(wl.name, job, rep, reference)]
    except (KeyError, TypeError) as exc:
        rec["failures"] = [f"report lacks an expected entry: {exc!r}"]
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.SCENARIOS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    reference = workloads.load_reference()
    wl = workloads.Workload(args.workload, args.seed, scenarios)
    tracer = tracing.Tracer() if args.trace else None

    warm = run_op(wl, 0, reference)
    ops = []
    probes = []
    last = warm["wall"]
    start = time.perf_counter()
    index = 1
    # at least one op, and with tracing one traced and one untraced
    while len(ops) < 1 + args.trace or time.perf_counter() - start + last <= args.seconds:
        traced = tracer is not None and index % 2 == 0
        probes.append(hostspeed.probe())
        if traced:
            tracer.install()
            tracer.begin_op(index)
        rec = run_op(wl, index, reference)
        if traced:
            tracer.end_op(failed=bool(rec["failures"]))
            tracer.uninstall()
        rec["index"] = index
        rec["traced"] = traced
        ops.append(rec)
        last = rec["wall"]
        index += 1
    probes.append(hostspeed.probe())
    loop_s = time.perf_counter() - start - sum(probes)

    result = {"workload": args.workload, "seed": args.seed, "loop_s": loop_s,
              "warmup": warm, "ops": ops, "probes": probes, "versions": versions(),
              "spans": tracer.spans if tracer else []}
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
