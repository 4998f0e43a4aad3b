"""End-to-end acceptance gate.

One test per headline requirement, each asserting the advertised
tolerance and, where stated, the runtime budget.  Frozen reference
numbers come from closed forms evaluated independently of the library
code.  Run with -v to get the one-line pass/fail listing per criterion.
"""
import copy
import math
import time
from dataclasses import replace

import numpy as np

from metricprobe.generator import conserved_test_tensor, coordinate_independence_check
from metricprobe.geometry import (BUILTIN_FAMILIES, de_sitter, flrw_closed,
                                  g00_profile_perturbation, gw_plane_wave,
                                  finite_difference_derivative, isotropic,
                                  minkowski_component, schwarzschild)
from metricprobe.fock import probe_state_moments
from metricprobe.probe import (GaussianProbeState, ModeLattice, ModeSpectrum,
                               commutator_constant, crlb_amplitude,
                               effective_constant_C, flat_band_spectrum,
                               monochromatic_spectrum, quadrature_variances,
                               remainder_variance_lattice,
                               smeared_correlator_check)
from metricprobe.quadrature import RegionSpec
from metricprobe.scenarios import (load_bundled, parse_scenario,
                                   run_bound, run_simulate)

OMEGA_TAU = 2.0 * math.pi * 10.0
NBAR = 1.0e4
SHOT = 1.0 / (OMEGA_TAU ** 2 * NBAR)


def _line(n, text):
    print(f"[PASS] criterion {n:02d}: {text}")


def test_criterion_01_monochromatic_shot_noise():
    t0 = time.perf_counter()
    rep = run_bound(load_bundled("gw-monochromatic-coherent"))
    elapsed = time.perf_counter() - t0
    crlb = rep["crlb"]["crlb"]["value"]
    resid = abs(crlb - SHOT) / SHOT
    assert resid <= 1e-9, f"shot-noise residual {resid:.3e}"
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f} s"
    _line(1, f"shot noise 1/((omega tau)^2 nbar), residual {resid:.1e}, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_squeezing_gain():
    base = load_bundled("gw-monochromatic-coherent")
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        doc = copy.deepcopy(base.raw)
        doc["probe"]["reference"] = "squeezed-vacuum"
        doc["probe"]["squeeze_r"] = r
        rep = run_bound(parse_scenario(doc))
        gain = rep["crlb"]["crlb"]["value"] / rep["crlb"]["shot_noise"]["value"]
        resid = abs(gain - math.exp(-2.0 * r)) / math.exp(-2.0 * r)
        worst = max(worst, resid)
        assert resid <= 1e-9, f"r={r}: gain residual {resid:.3e}"
    _line(2, f"e^-2r gain for r in (0.5, 1, 2), worst residual {worst:.1e}")


def test_criterion_03_broadband_shot_noise():
    sc = load_bundled("gw-broadband-coherent")
    rep = run_bound(sc)
    crlb = rep["crlb"]["crlb"]["value"]
    spec = sc.state.spectrum
    direct = 1.0 / float(np.sum((spec.lattice.omega * spec.tau) ** 2
                                * np.abs(spec.alpha) ** 2))
    formula_resid = abs(crlb - direct) / direct
    assert formula_resid <= 1e-12, f"closed form residual {formula_resid:.3e}"

    fine_doc = copy.deepcopy(sc.raw)
    fine_doc["probe"]["spectrum"]["n_modes"] = 801
    fine = run_bound(parse_scenario(fine_doc))["crlb"]["crlb"]["value"]
    refine_resid = abs(crlb - fine) / fine
    assert refine_resid <= 1e-3, f"lattice refinement shift {refine_resid:.3e}"
    _line(3, f"generalized shot noise, refinement shift {refine_resid:.1e}")


def test_criterion_04_commutator_identity_100k_modes():
    t0 = time.perf_counter()
    spec = flat_band_spectrum(7.0, 700.0, NBAR, tau=1.0, n_modes=100000)
    C = effective_constant_C(spec)
    comm = commutator_constant(spec, spec.conjugate())
    elapsed = time.perf_counter() - t0
    resid = abs(comm - C) / C
    assert resid <= 1e-12, f"commutator residual {resid:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _line(4, f"[X1, X2] = i hbar C on 1e5 modes, residual {resid:.1e}, "
             f"{elapsed * 1e3:.0f} ms")


def test_criterion_05_trace_null_scenarios():
    worst = 0.0
    for name in ("flrw-em-probe", "desitter-em-probe"):
        rep = run_bound(load_bundled(name))
        resid = rep["trace_null"]["residual"]["value"]
        worst = max(worst, resid)
        assert resid <= 1e-12, f"{name}: density/scale ratio {resid:.3e}"
        assert rep["trace_null"]["traceless_coupling"] is True
    _line(5, f"conformal-scale density cancels pointwise, worst {worst:.1e}")


def test_criterion_06_coordinate_independence():
    t0 = time.perf_counter()
    rep = run_bound(load_bundled("schwarzschild-coordinate-check"))
    cons = rep["coordinate_check"]["conserved"]
    diff_fine = abs(cons["difference"]["value"])
    assert diff_fine <= cons["error_estimate"]["value"], \
        f"conserved difference {diff_fine:.3e} above estimate"
    # halving the spacing (17 -> 33 nodes per axis)
    coarse = coordinate_independence_check(
        conserved_test_tensor(),
        RegionSpec(box=load_bundled("schwarzschild-coordinate-check").region.box,
                   resolution=17))
    diff_coarse = abs(coarse.P_isotropic - coarse.P_schwarzschild)
    ratio = diff_coarse / diff_fine
    assert ratio >= 3.0, f"refinement ratio {ratio:.2f} < 3"
    non = rep["coordinate_check"]["nonconserved"]
    gap = abs(non["difference"]["value"] - non["angular_integral"]["value"])
    assert gap <= non["error_estimate"]["value"], \
        f"nonconserved angular-integral gap {gap:.3e} above estimate"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _line(6, f"chart-independent generator, refinement ratio {ratio:.1f}, "
             f"{elapsed:.1f} s")


def test_criterion_07_reductions():
    pt = run_bound(load_bundled("proper-time-reduction"))["proper_time"]
    mean_resid = pt["mean_residual"]["value"]
    red_resid = pt["reduction_residual"]["value"]
    assert mean_resid <= 1e-9, f"kappa residual {mean_resid:.3e}"
    assert red_resid <= 1e-9, f"time-energy residual {red_resid:.3e}"
    un = run_bound(load_bundled("unruh-component"))["unruh"]
    prod_resid = un["product_residual"]["value"]
    assert prod_resid <= 1e-12, f"product residual {prod_resid:.3e}"
    _line(7, f"time-energy {red_resid:.1e}, component product {prod_resid:.1e}")


def test_criterion_08_monte_carlo_saturation():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("gw-monochromatic-coherent", "gw-squeezed-r1"):
        rep = run_simulate(load_bundled(name))
        sim = rep["simulation"]
        n = sim["n_samples"]["value"]
        assert n == 10 ** 6
        guard = 3.0 * math.sqrt(2.0 / n)
        resid = abs(sim["empirical_variance"]["value"] - sim["crlb"]["value"]) \
            / sim["crlb"]["value"]
        worst = max(worst, resid)
        assert resid <= guard, f"{name}: variance off by {resid:.3e} > {guard:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _line(8, f"CRB saturation at 1e6 samples, worst {worst:.2e}, "
             f"{elapsed:.1f} s")


def test_criterion_09_wick_versus_fock():
    t0 = time.perf_counter()

    def state(omegas, alphas, r):
        om = np.asarray(omegas, dtype=float)
        k = np.zeros((om.size, 3))
        k[:, 0] = om
        spec = ModeSpectrum(lattice=ModeLattice(k=k),
                            alpha=np.asarray(alphas, dtype=complex), tau=1.0)
        return GaussianProbeState(spectrum=spec, squeeze_r=r)

    cases = (
        state([7.0], [2.0], 0.0),
        state([7.0], [2.0], 0.8),
        state([6.5, 8.0], [1.5, 1.2 + 0.8j], 0.0),
        state([6.5, 8.0], [1.5, 1.2 + 0.8j], 0.8),
    )
    worst = 0.0
    for st in cases:
        mom = probe_state_moments(st)
        v1, v2 = quadrature_variances(st)
        for got, want in ((mom["var_X1"], v1), (mom["var_X2"], v2),
                          (mom["var_F"], remainder_variance_lattice(st))):
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst Fock-route disagreement {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _line(9, f"Wick vs number-basis moments, worst {worst:.1e}, "
             f"{elapsed:.1f} s")


def test_criterion_10_mean_field_dominance():
    spec = monochromatic_spectrum(OMEGA_TAU, 100.0, tau=1.0)
    lams = (1.0, 10.0, 100.0)
    ratios = []
    for lam in lams:
        scaled = replace(spec, alpha=lam * spec.alpha)
        st = GaussianProbeState(spectrum=scaled, squeeze_r=0.8)
        ratios.append(crlb_amplitude(st).remainder_ratio)
    slope = float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
    assert abs(slope + 2.0) <= 0.1, f"log-log slope {slope:.3f}"
    _line(10, f"remainder_ratio ~ 1/lambda^2, slope {slope:+.3f}")


def test_criterion_11_smeared_correlator():
    worst = 0.0
    for t, x in ((0.0, 1.0), (0.5, 1.5)):
        out = smeared_correlator_check(t, x, width=0.05)
        worst = max(worst, out["relative_error"])
        assert out["relative_error"] <= 1e-2, \
            f"(t={t}, x={x}): relative error {out['relative_error']:.3e}"
    _line(11, f"light-cone kernel vs 1/(x^2 - t^2), worst {worst:.1e}")


def test_criterion_12_derivative_cross_check():
    instances = {
        "gw_plane_wave": gw_plane_wave(0.3),
        "minkowski_component": minkowski_component(1, 1, 0.2),
        "g00_profile_perturbation": g00_profile_perturbation(
            lambda x: np.exp(-np.sum(x ** 2, axis=-1)), 0.1),
        "schwarzschild": schwarzschild(1.0),
        "isotropic": isotropic(1.0),
        "flrw_closed": flrw_closed(2.0),
        "de_sitter": de_sitter(1.5),
    }
    assert set(instances) == set(BUILTIN_FAMILIES)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for name, fam in instances.items():
        box = fam.sample_box
        pts = rng.uniform(box[:, 0], box[:, 1], size=(100, 4))
        analytic = fam.deriv(pts)
        fd = finite_difference_derivative(fam, pts)
        resid = float(np.max(np.abs(analytic - fd))
                      / max(float(np.max(np.abs(analytic))), 1e-30))
        worst = max(worst, resid)
        assert resid <= 1e-6, f"{name}: derivative residual {resid:.3e}"
    _line(12, f"analytic vs finite-difference dg/dtheta, worst {worst:.1e}")
