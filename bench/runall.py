"""Run every workload of the benchmark over several seeds and summarize.

    python3 bench/runall.py [--out PATH --label COMMIT]

It makes SEEDS untraced runs of bench/run.py per workload, with seeds
1..SEEDS at the run length in BENCHMARK.json, then one traced run per
workload.  The workloads take turns (seed 1 of each, then seed 2 of
each, ...), so that a slow or fast phase of the host falls on all of
them rather than on one workload's whole set.  It prints, per
end-to-end metric, the unit, the median, the quartiles and their
distance as a share of the median (the spread that must stay below the
metric's bound).  With --out it also writes every value, the per-layer
metrics and the host records there as JSON; bench/BASELINE.json was
written this way.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced runs per workload.
SEEDS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
    return {"seed": seed, "host": host, **json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the results to this JSON file")
    p.add_argument("--label", default="", help="what was measured, such as a commit id")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    names = [w["name"] for w in spec["workloads"]]
    untraced = {wl: [] for wl in names}
    for seed in range(1, SEEDS + 1):
        for wl in names:
            untraced[wl].append(one_run(wl, seed, seconds, 0))
    for wl in names:
        runs = untraced[wl]
        traced = [one_run(wl, 1, seconds, 1)]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        out["workloads"][wl] = {
            "end_to_end": metrics,
            "per_layer": [{"seed": r["seed"], "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for r in traced],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "hosts": [r["host"] for r in runs + traced],
        }
        print(f"{wl}: {len(runs)} runs of {seconds} s, {out['workloads'][wl]['attempted']} ops, "
              f"{out['workloads'][wl]['failed']} failed; median over runs of each metric")
        for name, s in metrics.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of bound)"
            print(f"  {name:<14} {s['median']:<12.6g} {units[name]:<6} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        for r in traced:
            print(f"  traced run, seed {r['seed']}, {r['attempted']} ops:")
            for name, m in r["metrics"].items():
                print(f"    {name:<36} {m['value']:<12.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
