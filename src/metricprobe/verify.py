"""Self-check suites behind the ``verify`` CLI command.

Each check reports {name, passed, residual, tolerance, comparison}.
Most are residual <= tolerance; a few are lower bounds (refinement
ratios, detection significance) and say so via comparison ">=".
Every tolerance is fixed; a check that restates a report verdict reads
that verdict's threshold from the module that computes it.
"""
from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .generator import (DIVERGENCE_TOL, conserved_test_tensor,
                        coordinate_independence_check, nonconserved_test_tensor,
                        trace_null_residual)
from .fock import probe_state_moments
from .probe import (GaussianProbeState, ModeLattice, ModeSpectrum,
                    commutator_constant, crlb_amplitude,
                    effective_constant_C, effective_mode_coefficients,
                    flat_band_spectrum, monochromatic_spectrum,
                    quadrature_variances, remainder_variance_lattice,
                    smeared_correlator_check)
from .scenarios import TRACE_NULL_TOL, load_bundled, run_bound
from .simulate import SATURATION_GAP, crb_saturation_check


def _check(name: str, residual: float, tolerance: float,
           comparison: str = "<=") -> dict:
    """One check result: residual compared with tolerance, as an upper
    ("<=") or a lower (">=") bound."""
    if comparison not in ("<=", ">="):
        raise ValueError(f"bad comparison {comparison!r}")
    passed = residual <= tolerance if comparison == "<=" else residual >= tolerance
    return {"name": name, "passed": bool(passed), "residual": float(residual),
            "tolerance": tolerance, "comparison": comparison}


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _representative_families() -> list:
    prof = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))
    return [
        geo.gw_plane_wave(0.3),
        geo.minkowski_component(1, 1, 0.2),
        geo.minkowski_component(0, 2, -0.15),
        geo.g00_profile_perturbation(prof, 0.1),
        geo.schwarzschild(1.0),
        geo.isotropic(1.0),
        geo.flrw_closed(2.0),
        geo.de_sitter(1.5),
        geo.localize(geo.gw_plane_wave(0.3), geo.BumpProfile(
            plateau=[[-0.5, 0.5]] * 4, support=[[-1.0, 1.0]] * 4)),
    ]


def _derivative_residual(fam) -> float:
    pts = geo.box_grid(fam.sample_box, 4)
    fd = geo.finite_difference_derivative(fam, pts)
    an = fam.deriv(pts)
    scale = max(1.0, float(np.max(np.abs(an))))
    return float(np.max(np.abs(fd - an))) / scale


def _suite_identities() -> list:
    checks = []

    spec = flat_band_spectrum(7.0, 700.0, n_photons=1.0e4, tau=1.0,
                              n_modes=100000)
    C = effective_constant_C(spec)
    comm = commutator_constant(spec, spec.conjugate())
    checks.append(_check("commutator-lattice-100k", abs(comm - C) / C, 1e-12))
    c = effective_mode_coefficients(spec)
    checks.append(_check("effective-mode-normalization",
                         abs(float(np.sum(np.abs(c) ** 2)) - 1.0), 1e-12))

    mono = monochromatic_spectrum(62.83185307179586, 1.0e4, tau=1.0)
    for label, r in (("saturation-coherent", 0.0), ("saturation-squeezed-r1", 1.0)):
        gap = crb_saturation_check(GaussianProbeState(mono, squeeze_r=r))["relative_gap"]
        checks.append(_check(label, gap, SATURATION_GAP))

    for label, scen in (("trace-null-flrw", "flrw-em-probe"),
                        ("trace-null-desitter", "desitter-em-probe")):
        sc = load_bundled(scen)
        checks.append(_check(label, trace_null_residual(sc.field, sc.family, sc.region),
                             TRACE_NULL_TOL))

    worst = max(_derivative_residual(f) for f in _representative_families())
    checks.append(_check("metric-derivative-crosscheck", worst, 1e-6))

    for label, (dt, dx) in (("correlator-equal-time", (0.0, 1.0)),
                            ("correlator-offset", (0.5, 1.5))):
        rep = smeared_correlator_check(dt, dx, width=0.05)
        checks.append(_check(label, rep["relative_error"], 1e-2))

    r1 = crlb_amplitude(GaussianProbeState(
        monochromatic_spectrum(62.83185307179586, 1.0e4, tau=1.0),
        squeeze_r=0.8)).remainder_ratio
    r2 = crlb_amplitude(GaussianProbeState(
        monochromatic_spectrum(62.83185307179586, 4.0e4, tau=1.0),
        squeeze_r=0.8)).remainder_ratio
    # amplitude scale doubles when nbar quadruples
    slope = math.log(r2 / r1) / math.log(2.0)
    checks.append(_check("remainder-slope", abs(slope + 2.0), 1e-9))
    return checks


# ---------------------------------------------------------------------------
# coordinate independence
# ---------------------------------------------------------------------------

def _suite_coordinate() -> list:
    checks = []
    region = load_bundled("schwarzschild-coordinate-check").region

    cons = conserved_test_tensor()
    rep_fine = coordinate_independence_check(cons, region)
    d_fine = abs(rep_fine.difference)
    checks.append(_check("conserved-chart-agreement",
                         d_fine / rep_fine.error_estimate, 1.0))
    checks.append(_check("conserved-divergence-residual",
                         rep_fine.divergence_residual, DIVERGENCE_TOL))

    # the chart difference on the half-interval grid, from the all-even
    # half rules of the fine pass
    d_coarse = abs(rep_fine.difference_half)
    ratio = d_coarse / d_fine if d_fine > 0 else math.inf
    checks.append(_check("conserved-refinement-ratio", ratio, 3.0, ">="))

    ncons = nonconserved_test_tensor()
    rep_n = coordinate_independence_check(ncons, region)
    d_n = rep_n.difference
    checks.append(_check("nonconserved-detects",
                         abs(d_n) / rep_n.error_estimate, 5.0, ">="))
    checks.append(_check("nonconserved-dual-route",
                         abs(d_n - rep_n.flux_minus_divergence)
                         / rep_n.error_estimate, 1.0))
    return checks


# ---------------------------------------------------------------------------
# Wick route against exact Fock arithmetic
# ---------------------------------------------------------------------------

_WICK_STATES = (
    ("coherent-1mode", ((7.0, 2.0 + 0.0j),), 0.0),
    ("coherent-phase-1mode", ((7.0, 1.2 - 0.9j),), 0.0),
    ("squeezed-r04-1mode", ((7.0, 2.0 + 0.0j),), 0.4),
    ("squeezed-r08-1mode", ((7.0, 1.4 + 1.1j),), 0.8),
    ("coherent-2mode", ((6.5, 1.1 + 0.4j), (8.0, -0.8 + 0.9j)), 0.0),
    ("squeezed-r05-2mode", ((6.5, 1.3 + 0.0j), (8.0, 0.7 - 0.6j)), 0.5),
    ("squeezed-r08-2mode", ((6.5, 0.9 + 0.8j), (8.0, -1.0 + 0.3j)), 0.8),
)


def _lattice_state(modes, r) -> GaussianProbeState:
    k = np.array([(om, 0.0, 0.0) for om, _ in modes])
    alphas = np.array([al for _, al in modes], dtype=complex)
    spec = ModeSpectrum(lattice=ModeLattice(k=k), alpha=alphas, tau=1.0)
    return GaussianProbeState(spec, squeeze_r=r)


def _suite_wick_fock() -> list:
    checks = []
    for label, modes, r in _WICK_STATES:
        state = _lattice_state(modes, r)
        var1, var2 = quadrature_variances(state)
        rem = remainder_variance_lattice(state)
        fock = probe_state_moments(state)
        resid = max(abs(fock["var_X1"] - var1), abs(fock["var_X2"] - var2),
                    abs(fock["var_F"] - rem))
        checks.append(_check(f"wick-fock-{label}", resid, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _suite_reductions() -> list:
    checks = []
    rep = run_bound(load_bundled("proper-time-reduction"))
    pt = rep["proper_time"]
    checks.append(_check("proper-time-mean", pt["mean_residual"]["value"], 1e-10))
    checks.append(_check("proper-time-bound", pt["reduction_residual"]["value"], 1e-12))
    rep = run_bound(load_bundled("unruh-component"))
    checks.append(_check("unruh-product",
                         rep["unruh"]["product_residual"]["value"], 1e-12))
    return checks


SUITES = {
    "identities": _suite_identities,
    "coordinate-independence": _suite_coordinate,
    "wick-fock": _suite_wick_fock,
    "reductions": _suite_reductions,
}


def run_verify(suite_names=None) -> dict:
    from . import __version__
    names = list(suite_names) if suite_names else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: "
                             + ", ".join(SUITES))
    suites = {}
    for name in names:
        checks = SUITES[name]()
        suites[name] = {"checks": checks,
                        "passed": all(c["passed"] for c in checks)}
    return {
        "version": __version__,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
