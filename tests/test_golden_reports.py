"""Bundled reports against values frozen in tests/data/golden_reports.json.

Covers ``run_bound`` of every bundled scenario (the coordinate check both
at its own 33^4 grid and at ``resolution_mult=0.5``, 17^4 nodes) and
``run_simulate`` of every bundled scenario with a simulation block.
Keys, strings, bools and ints must match exactly; floats must match to
rel 1e-12 / abs 1e-15, loose enough for other CPUs' rounding and tight
enough to catch any change of the numerics.

Regenerate the file (only when a report is meant to change, and say so in
CHANGES.md) with

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""
import json
import math
from pathlib import Path

import pytest

from metricprobe.scenarios import (bundled_scenario_names, load_bundled,
                                   run_bound, run_simulate)

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_reports.json"
RTOL = 1e-12
ATOL = 1e-15
# the coordinate check is also frozen at a coarser grid than it runs by default
CHART_AUDIT_MULT = 0.5


def _cases():
    cases = []
    for name in bundled_scenario_names():
        sc = load_bundled(name)
        cases.append(("bound", name))
        if sc.kind == "coordinate-check":
            cases.append((f"bound@{CHART_AUDIT_MULT}", name))
            continue
        if "simulation" in sc.raw:
            cases.append(("simulate", name))
    return cases


def _report(mode: str, name: str) -> dict:
    sc = load_bundled(name)
    if mode == "simulate":
        rep = run_simulate(sc)
    elif mode == "bound":
        rep = run_bound(sc)
    else:
        rep = run_bound(sc, resolution_mult=CHART_AUDIT_MULT)
    # the JSON round trip turns tuples into lists, as in the golden file
    return json.loads(json.dumps(rep))


def _diff(got, want, path: str, out: list) -> None:
    if isinstance(want, float) and type(got) is float:
        if math.isnan(want):
            if not math.isnan(got):
                out.append(f"{path}: {got!r} != NaN")
        elif got != want and (math.isinf(want)
                              or abs(got - want) > ATOL + RTOL * abs(want)):
            out.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want):
        out.append(f"{path}: type {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if list(got) != list(want):
            out.append(f"{path}: keys {list(got)} != {list(want)}")
        else:
            for key in want:
                _diff(got[key], want[key], f"{path}.{key}", out)
    elif isinstance(want, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _diff(g, w, f"{path}[{i}]", out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_the_bundled_library(golden):
    assert sorted(golden) == sorted(f"{mode}/{name}" for mode, name in _cases())


@pytest.mark.parametrize("mode,name", _cases())
def test_report_matches_golden(golden, mode, name):
    bad = []
    _diff(_report(mode, name), golden[f"{mode}/{name}"], f"{mode}/{name}", bad)
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    out = {f"{mode}/{name}": _report(mode, name) for mode, name in _cases()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
