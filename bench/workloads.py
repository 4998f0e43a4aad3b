"""Benchmark workloads: inputs made from the seed, the op, and its oracle.

An op turns scenario dicts into reports through the public API:
``scenarios.parse_scenario`` -> ``scenarios.run_bound`` or
``scenarios.run_simulate`` -> ``reports.dumps_report``.  The program sees
only the generated dicts; op ``i`` of seed ``s`` is a pure function of
(s, i).  Each report is checked against the values in reference.json,
which ``python3 bench/workloads.py`` writes from the library it imports.
"""
from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

COORDINATE_CHECK = "schwarzschild-coordinate-check"
#: The seven bundled scenarios other than the coordinate check.
SWEEP = ("desitter-em-probe", "flrw-em-probe", "gw-broadband-coherent",
         "gw-monochromatic-coherent", "gw-squeezed-r1", "proper-time-reduction",
         "unruh-component")
READOUT = ("gw-monochromatic-coherent", "gw-squeezed-r1", "gw-broadband-coherent")

#: Bundled scenarios each workload draws on.
SCENARIOS = {
    "chart-audit": (COORDINATE_CHECK,),
    "bound-sweep": SWEEP,
    "readout-mc": READOUT,
}

#: chart-audit runs the coordinate check at half resolution: 17^4 nodes per
#: integral, 9^4 for the nested coarse estimate.
CHART_RESOLUTION_MULT = 0.5
#: Largest margin added to each side of the chart-audit region box; the
#: bump support stays inside the box and the node count stays fixed.
CHART_MARGIN = 0.05
#: Relative tolerance on the non-conserved chart difference against the
#: reference.  Box margins up to CHART_MARGIN move it by about 1e-4.
CHART_DIFFERENCE_RTOL = 1e-3
AMPLITUDE_RANGE = (0.5, 2.0)
PHOTON_RANGE = (1e3, 1e5)
#: Relative tolerance on P_total ~ amplitude^2 and crlb ~ 1/n_photons.
SCALING_RTOL = 1e-9
#: The empirical estimator variance must lie within VARIANCE_K * sqrt(2/N)
#: of the bound.  Its relative error is close to normal with that standard
#: deviation, so a correct program fails about 2e-9 of the ops.
VARIANCE_K = 6.0


@dataclass
class Job:
    """One scenario run inside an op."""

    doc: dict
    simulate: bool = False
    resolution_mult: float = 1.0
    expect: dict = field(default_factory=dict)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class Workload:
    """Inputs of one workload and seed, built from bundled scenario dicts."""

    def __init__(self, name: str, seed: int, scenarios):
        if name not in SCENARIOS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(SCENARIOS)}")
        self.name = name
        self.seed = int(seed)
        self.bases = {n: copy.deepcopy(scenarios.load_bundled(n).raw) for n in SCENARIOS[name]}

    def jobs(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        if self.name == "chart-audit":
            doc = copy.deepcopy(self.bases[COORDINATE_CHECK])
            box = np.asarray(doc["region"]["box"], dtype=float)
            margin = rng.uniform(0.0, CHART_MARGIN, size=(4, 2))
            box[:, 0] -= margin[:, 0]
            box[:, 1] += margin[:, 1]
            doc["region"]["box"] = box.tolist()
            return [Job(doc, resolution_mult=CHART_RESOLUTION_MULT)]
        if self.name == "bound-sweep":
            jobs = []
            for k in rng.permutation(len(SWEEP)):
                doc = copy.deepcopy(self.bases[SWEEP[k]])
                expect = {"scenario": SWEEP[k]}
                em = doc["stress_energy"]["em"]
                expect["amplitude_scale"] = _log_uniform(rng, *AMPLITUDE_RANGE)
                em["amplitude"] = em["amplitude"] * expect["amplitude_scale"]
                if "probe" in doc:
                    expect["n_photons"] = _log_uniform(rng, *PHOTON_RANGE)
                    doc["probe"]["spectrum"]["n_photons"] = expect["n_photons"]
                jobs.append(Job(doc, expect=expect))
            return jobs
        name = READOUT[(self.seed + index) % len(READOUT)]
        doc = copy.deepcopy(self.bases[name])
        doc["simulation"]["seed"] = int(rng.integers(2 ** 32))
        doc["probe"]["spectrum"]["n_photons"] = _log_uniform(rng, *PHOTON_RANGE)
        return [Job(doc, simulate=True)]


def run_jobs(jobs: list, scenarios, reports) -> list:
    """The op: (report, report text) per job."""
    out = []
    for job in jobs:
        sc = scenarios.parse_scenario(job.doc)
        if job.simulate:
            rep = scenarios.run_simulate(sc, resolution_mult=job.resolution_mult)
        else:
            rep = scenarios.run_bound(sc, resolution_mult=job.resolution_mult)
        out.append((rep, reports.dumps_report(rep)))
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _val(node) -> float:
    return node["value"]


def _rel_ok(got: float, want: float, rtol: float) -> bool:
    if math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * abs(want)


def check(workload: str, job: Job, report: dict, reference: dict) -> list:
    """Failed checks of one report, as messages; empty when it is correct."""
    bad = []
    if workload == "chart-audit":
        cc = report["coordinate_check"]
        for label in ("conserved", "nonconserved"):
            if cc[label]["consistent"] is not True:
                bad.append(f"{label}: routes inconsistent")
        if cc["conserved"]["conserved"] is not True:
            bad.append("conserved source flagged non-conserved")
        if cc["nonconserved"]["conserved"] is not False:
            bad.append("non-conserved source flagged conserved")
        want = reference["chart-audit"]["nonconserved_difference"]
        got = _val(cc["nonconserved"]["difference"])
        if not _rel_ok(got, want, CHART_DIFFERENCE_RTOL):
            bad.append(f"non-conserved difference {got!r}, reference {want!r}")
        return bad

    if workload == "bound-sweep":
        name = job.expect["scenario"]
        ref = reference["bound-sweep"][name]
        scale = job.expect["amplitude_scale"]
        got = _val(report["generator"]["P_total"])
        want = ref["P_total"] * scale ** 2
        if abs(got - want) > SCALING_RTOL * abs(want) + 1e-15 * scale ** 2:
            bad.append(f"{name}: P_total {got!r}, want {want!r}")
        if "crlb" in ref:
            got = _val(report["crlb"]["crlb"])
            want = ref["crlb"] * ref["n_photons"] / job.expect.get("n_photons", ref["n_photons"])
            if not _rel_ok(got, want, SCALING_RTOL):
                bad.append(f"{name}: crlb {got!r}, want {want!r}")
        bad += [f"{name}: {m}" for m in _criteria(name, job.doc, report)]
        return bad

    sim = report["simulation"]
    if sim["saturation"]["saturated"] is not True:
        bad.append("readout does not saturate the bound")
    n = _val(sim["n_samples"])
    crlb = _val(sim["crlb"])
    dev = abs(_val(sim["empirical_variance"]) - crlb) / crlb
    if dev > VARIANCE_K * math.sqrt(2.0 / n):
        bad.append(f"empirical variance off the bound by {dev:.3e} relative")
    return bad


def _criteria(name: str, doc: dict, report: dict) -> list:
    """The report's own residuals, held to acceptance criteria 1, 5 and 7."""
    bad = []
    if name == "gw-monochromatic-coherent":
        sp = doc["probe"]["spectrum"]
        shot = 1.0 / ((sp["omega"] * sp["tau"]) ** 2 * sp["n_photons"])
        resid = abs(_val(report["crlb"]["crlb"]) - shot) / shot
        if resid > 1e-9:
            bad.append(f"shot-noise residual {resid:.3e} (criterion 1)")
    if name in ("flrw-em-probe", "desitter-em-probe"):
        tn = report["trace_null"]
        if _val(tn["residual"]) > 1e-12 or tn["traceless_coupling"] is not True:
            bad.append(f"trace-null residual {_val(tn['residual']):.3e} (criterion 5)")
    if name == "proper-time-reduction":
        pt = report["proper_time"]
        for key in ("mean_residual", "reduction_residual"):
            if _val(pt[key]) > 1e-9:
                bad.append(f"{key} {_val(pt[key]):.3e} (criterion 7)")
    if name == "unruh-component":
        resid = _val(report["unruh"]["product_residual"])
        if resid > 1e-12:
            bad.append(f"product residual {resid:.3e} (criterion 7)")
    return bad


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def make_reference(scenarios) -> dict:
    """Reference values from the library as imported: the chart difference
    on the bundled box, and P_total and crlb of each sweep scenario at its
    bundled amplitude and photon number."""
    doc = copy.deepcopy(scenarios.load_bundled(COORDINATE_CHECK).raw)
    rep = scenarios.run_bound(scenarios.parse_scenario(doc),
                              resolution_mult=CHART_RESOLUTION_MULT)
    ref = {"chart-audit": {
        "nonconserved_difference": _val(rep["coordinate_check"]["nonconserved"]["difference"])},
        "bound-sweep": {}}
    for name in SWEEP:
        doc = copy.deepcopy(scenarios.load_bundled(name).raw)
        rep = scenarios.run_bound(scenarios.parse_scenario(doc))
        entry = {"P_total": _val(rep["generator"]["P_total"])}
        if "probe" in doc:
            entry["crlb"] = _val(rep["crlb"]["crlb"])
            entry["n_photons"] = doc["probe"]["spectrum"]["n_photons"]
        ref["bound-sweep"][name] = entry
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    from metricprobe import scenarios as _scenarios

    with open(REFERENCE_PATH, "w") as fh:
        json.dump(make_reference(_scenarios), fh, indent=2)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
