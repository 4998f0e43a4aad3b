import math
from dataclasses import replace

import numpy as np
import pytest

from metricprobe.probe import (GaussianProbeState, ModeLattice, ModeSpectrum,
                               commutator_constant, crlb_amplitude,
                               effective_constant_C,
                               effective_mode_coefficients,
                               flat_band_spectrum, gaussian_band_spectrum,
                               load_spectrum_table, monochromatic_spectrum,
                               quadrature_variances,
                               reference_remainder_variance,
                               remainder_variance_lattice,
                               save_spectrum_table, smeared_correlator_check,
                               hamiltonian_variance)

OMEGA = 2.0 * math.pi * 10.0
NBAR = 1.0e4
MONO_SHOT = 2.5330295910584447e-08  # 1 / ((omega tau)^2 nbar) at the values above


def _mono_state(r=0.0):
    return GaussianProbeState(monochromatic_spectrum(OMEGA, NBAR, tau=1.0), squeeze_r=r)


def _two_mode_spectrum(tau=1.0):
    lat = ModeLattice(k=np.array([[7.0, 0.0, 0.0], [9.0, 0.0, 0.0]]))
    return ModeSpectrum(lattice=lat, alpha=np.array([math.sqrt(3.0), math.sqrt(2.0)],
                                                    dtype=complex), tau=tau)


def test_single_mode_constant():
    spec = monochromatic_spectrum(OMEGA, NBAR, tau=1.0)
    assert math.isclose(effective_constant_C(spec), 0.5 * OMEGA ** 2 * NBAR,
                        rel_tol=1e-15)


def test_two_mode_constant():
    # (1/2) [(7)^2 3 + (9)^2 2] = 154.5
    assert math.isclose(effective_constant_C(_two_mode_spectrum()), 154.5,
                        rel_tol=1e-14)


def test_constant_scales_with_hbar_and_window():
    spec = _two_mode_spectrum()
    assert effective_constant_C(spec, hbar=3.0) == 3.0 * effective_constant_C(spec)
    spec2 = _two_mode_spectrum(tau=2.0)
    assert math.isclose(effective_constant_C(spec2), 4.0 * effective_constant_C(spec),
                        rel_tol=1e-14)


def test_dc_cutoff_masks_slow_modes():
    lat = ModeLattice(k=np.array([[1.0, 0, 0], [7.0, 0, 0], [9.0, 0, 0]]))
    spec = ModeSpectrum(lattice=lat, alpha=np.array([5.0, math.sqrt(3.0), math.sqrt(2.0)],
                                                    dtype=complex), tau=1.0)
    assert spec.n_dc_excluded == 1
    assert math.isclose(float(np.sum(np.abs(spec.alpha[spec.active]) ** 2)), 5.0,
                        rel_tol=1e-14)
    # the omega = 1 mode contributes nothing to C
    assert math.isclose(effective_constant_C(spec), 154.5, rel_tol=1e-14)


def test_all_modes_below_cutoff_raises():
    lat = ModeLattice(k=np.array([[1.0, 0, 0]]))
    spec = ModeSpectrum(lattice=lat, alpha=np.array([2.0 + 0j]), tau=1.0)
    with pytest.raises(ValueError):
        effective_constant_C(spec)


def test_conjugate_spectrum():
    spec = _two_mode_spectrum()
    conj = spec.conjugate()
    assert np.array_equal(conj.alpha, 1j * spec.alpha)
    assert np.array_equal(conj.conjugate().alpha, -spec.alpha)


def test_commutator_closes_on_conjugate_pair():
    spec = _two_mode_spectrum()
    C = effective_constant_C(spec)
    assert commutator_constant(spec, spec.conjugate()) == C
    assert commutator_constant(spec, spec) == 0.0


def test_commutator_tracks_readout_phase():
    spec = _two_mode_spectrum()
    C = effective_constant_C(spec)
    for phi in (0.3, 1.0, 2.5):
        rot = replace(spec, alpha=np.exp(1j * phi) * spec.alpha)
        assert math.isclose(commutator_constant(spec, rot), C * math.sin(phi),
                            rel_tol=1e-13)


def test_commutator_rejects_mismatched_spectra():
    spec = _two_mode_spectrum()
    other = monochromatic_spectrum(7.0, 3.0, tau=1.0)
    with pytest.raises(ValueError):
        commutator_constant(spec, other)
    with pytest.raises(ValueError):
        commutator_constant(spec, _two_mode_spectrum(tau=2.0))
    # every mode of the second spectrum is under its cutoff 4 pi
    s1 = monochromatic_spectrum(7.0, 4.0, tau=1.0)
    s2 = monochromatic_spectrum(7.0, 4.0, tau=1.0, dc_cutoff_mult=2.0)
    with pytest.raises(ValueError, match="DC cutoff"):
        commutator_constant(s1, s2.conjugate())


def test_quadrature_variances_coherent_and_squeezed():
    state = _mono_state()
    C = effective_constant_C(state.spectrum)
    v1, v2 = quadrature_variances(state)
    assert v1 == v2 == 0.5 * C
    sq = _mono_state(r=1.0)
    s1, s2 = quadrature_variances(sq)
    assert math.isclose(s1, 0.5 * C * math.e ** 2, rel_tol=1e-14)
    assert math.isclose(s2, 0.5 * C * math.e ** -2, rel_tol=1e-14)
    assert math.isclose(s1 * s2, (0.5 * C) ** 2, rel_tol=1e-13)


def test_shot_noise_frozen_value():
    rep = crlb_amplitude(_mono_state())
    assert rep.crlb == rep.shot_noise
    assert math.isclose(rep.crlb, MONO_SHOT, rel_tol=1e-15)
    assert rep.n_dc_excluded == 0
    assert rep.flags == ()
    assert rep.commutator_residual <= 1e-15


def test_squeezing_gain():
    for r in (0.5, 1.0, 1.7):
        rep = crlb_amplitude(_mono_state(r=r))
        assert math.isclose(rep.crlb, rep.shot_noise * math.exp(-2.0 * r),
                            rel_tol=1e-13)


def test_crlb_identities():
    for r in (0.0, 0.8):
        rep = crlb_amplitude(_mono_state(r=r))
        # hbar^2 / 4 saturation of the uncertainty product
        assert math.isclose(rep.crlb * rep.var_X1, 0.25, rel_tol=1e-14)
        # optimal linear readout from X2 attains the bound
        assert math.isclose(rep.crlb, rep.var_X2 / rep.C ** 2, rel_tol=1e-13)


def test_crlb_independent_of_hbar():
    spec = monochromatic_spectrum(OMEGA, NBAR, tau=1.0)
    a = crlb_amplitude(GaussianProbeState(spectrum=spec))
    b = crlb_amplitude(GaussianProbeState(spectrum=spec, hbar=3.0))
    assert math.isclose(a.crlb, b.crlb, rel_tol=1e-14)


def test_band_constant_matches_direct_mode_sum():
    spec = gaussian_band_spectrum(OMEGA, 0.1, NBAR, tau=1.0, n_modes=101)
    direct = 0.5 * float(np.sum((spec.lattice.omega * spec.tau) ** 2
                                * np.abs(spec.alpha) ** 2))
    assert math.isclose(effective_constant_C(spec), direct, rel_tol=1e-14)
    assert math.isclose(float(np.sum(np.abs(spec.alpha[spec.active]) ** 2)), NBAR,
                        rel_tol=1e-12)
    # finite width spreads weight to higher omega^2, beating the carrier
    rep = crlb_amplitude(GaussianProbeState(spectrum=spec))
    assert rep.crlb < MONO_SHOT


def test_flat_band_spectrum_weights():
    spec = flat_band_spectrum(7.0, 14.0, 10.0, tau=1.0, n_modes=8)
    assert len(spec.lattice) == 8
    assert math.isclose(float(np.sum(np.abs(spec.alpha[spec.active]) ** 2)), 10.0,
                        rel_tol=1e-14)
    assert np.allclose(np.abs(spec.alpha) ** 2, 10.0 / 8.0, rtol=1e-14)


def test_amplitude_rescaling_moves_bound_inversely():
    spec = monochromatic_spectrum(OMEGA, NBAR, tau=1.0)
    lam = 7.0
    boosted = replace(spec, alpha=math.sqrt(lam) * spec.alpha)
    a = crlb_amplitude(GaussianProbeState(spectrum=spec))
    b = crlb_amplitude(GaussianProbeState(spectrum=boosted))
    assert math.isclose(b.C, lam * a.C, rel_tol=1e-14)
    assert math.isclose(b.crlb, a.crlb / lam, rel_tol=1e-14)


def test_effective_mode_single():
    spec = monochromatic_spectrum(OMEGA, NBAR, tau=1.0)
    c = effective_mode_coefficients(spec)
    assert c.shape == (1,)
    assert math.isclose(abs(c[0]), 1.0, rel_tol=1e-14)
    assert math.isclose(c[0].real, 1.0, rel_tol=1e-14)


def test_effective_mode_two_equal():
    lat = ModeLattice(k=np.array([[8.0, 0, 0], [8.0, 0, 0]]))
    spec = ModeSpectrum(lattice=lat, alpha=np.array([2.0 + 0j, 2.0 + 0j]), tau=1.0)
    c = effective_mode_coefficients(spec)
    assert np.allclose(np.abs(c), 1.0 / math.sqrt(2.0), rtol=1e-14)


def test_effective_mode_normalized_and_masks_dc():
    lat = ModeLattice(k=np.array([[0.5, 0, 0], [7.0, 0, 0], [11.0, 0, 0]]))
    spec = ModeSpectrum(lattice=lat, alpha=np.array([3.0, 1.0 - 2.0j, 0.5j]), tau=1.0)
    c = effective_mode_coefficients(spec)
    assert c[0] == 0.0
    assert math.isclose(float(np.sum(np.abs(c) ** 2)), 1.0, rel_tol=1e-13)


def test_remainder_vanishes_on_coherent_reference():
    assert reference_remainder_variance(_mono_state()) == 0.0
    rep = crlb_amplitude(_mono_state())
    assert rep.remainder_ratio == 0.0


def test_remainder_single_mode_routes_agree():
    state = _mono_state(r=0.8)
    assert math.isclose(reference_remainder_variance(state),
                        remainder_variance_lattice(state), rel_tol=1e-13)


def test_remainder_ratio_quadratic_in_amplitude():
    # alpha -> lambda alpha: var X1 grows as lambda^2 while the remainder
    # variance is amplitude independent, so the ratio falls as lambda^-2
    base = _mono_state(r=0.8)
    r1 = crlb_amplitude(base).remainder_ratio
    spec10 = replace(base.spectrum, alpha=10.0 * base.spectrum.alpha)
    r2 = crlb_amplitude(replace(base, spectrum=spec10)).remainder_ratio
    assert r1 > 0.0
    assert math.isclose(r2 / r1, 1e-2, rel_tol=1e-12)


def test_zero_mean_field_is_flagged_not_raised():
    lat = ModeLattice(k=np.array([[8.0, 0, 0]]))
    spec = ModeSpectrum(lattice=lat, alpha=np.array([0.0 + 0j]), tau=1.0)
    rep = crlb_amplitude(GaussianProbeState(spectrum=spec))
    assert rep.crlb == math.inf
    assert rep.shot_noise == math.inf
    assert math.isnan(rep.remainder_ratio)
    assert any("zero-mean-field" in f for f in rep.flags)


def test_counter_rotating_scale():
    rep = crlb_amplitude(_mono_state())
    assert math.isclose(rep.counter_rotating_scale, 1.0 / OMEGA, rel_tol=1e-14)


def test_hamiltonian_variance_coherent_mode_sum():
    spec = _two_mode_spectrum()
    state = GaussianProbeState(spectrum=spec)
    direct = float(np.sum((spec.lattice.omega * np.abs(spec.alpha)) ** 2))
    assert math.isclose(hamiltonian_variance(state), direct, rel_tol=1e-14)


def test_hamiltonian_variance_squeezed_positive_and_continuous():
    v0 = hamiltonian_variance(_mono_state())
    tiny = hamiltonian_variance(_mono_state(r=1e-8))
    assert v0 > 0.0
    assert math.isclose(tiny, v0, rel_tol=1e-6)
    assert hamiltonian_variance(_mono_state(r=0.5)) > 0.0


def test_probe_objects_own_their_arrays():
    # a later write into the caller's arrays reaches neither object, and
    # the objects' own arrays refuse writes
    k = np.array([[7.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
    alpha = np.array([math.sqrt(3.0), 1.0 - 1.0j])
    lat = ModeLattice(k=k)
    spec = ModeSpectrum(lattice=lat, alpha=alpha, tau=1.0)

    def outputs():
        rep = crlb_amplitude(GaussianProbeState(spec, squeeze_r=0.5))
        return lat.omega.tobytes(), effective_constant_C(spec), rep.C, rep.crlb

    before = outputs()
    k[:] = [[0.0, 0.0, 1.0]] * 2
    alpha[:] = math.nan
    assert outputs() == before
    for own in (lat.k, spec.alpha):
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        ModeLattice(k=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ModeLattice(k=np.array([[0.0, 0.0, 0.0]]))
    for bad in (math.nan, math.inf):
        # a NaN |k| fails no comparison, so the mode would drop out as DC
        with pytest.raises(ValueError, match="k must be finite"):
            ModeLattice(k=np.array([[bad, 0.0, 0.0], [8.0, 0.0, 0.0]]))
    lat = ModeLattice(k=np.array([[8.0, 0, 0]]))
    with pytest.raises(ValueError):
        ModeSpectrum(lattice=lat, alpha=np.array([1.0, 2.0], dtype=complex), tau=1.0)
    with pytest.raises(ValueError):
        ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=0.0)
    with pytest.raises(ValueError):
        ModeSpectrum(lattice=lat, alpha=np.array([math.nan + 0j]), tau=1.0)
    # NaN fails every comparison, so each check is written to refuse it;
    # an infinite window would report a bound of 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau"):
            ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=bad)
    for bad in (-5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dc_cutoff_mult"):
            ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=1.0,
                         dc_cutoff_mult=bad)
    # no cutoff at all is a valid choice
    assert ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=1.0,
                        dc_cutoff_mult=0.0).omega_min == 0.0
    spec = ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=1.0)
    for r in (-0.5, math.nan):
        with pytest.raises(ValueError, match="squeeze_r"):
            GaussianProbeState(spectrum=spec, squeeze_r=r)
    for hbar in (0.0, math.nan):
        with pytest.raises(ValueError, match="hbar"):
            GaussianProbeState(spectrum=spec, hbar=hbar)
    with pytest.raises(ValueError):
        monochromatic_spectrum(-1.0, 1.0, tau=1.0)
    with pytest.raises(ValueError):
        gaussian_band_spectrum(10.0, 0.1, 1.0, tau=1.0, n_modes=2)
    # a negative width or carrier would mirror the band, or point it along -x
    for omega0, width, n_photons in ((10.0, -0.1, 1.0), (10.0, 0.0, 1.0),
                                     (-10.0, 0.1, 1.0), (10.0, 0.1, -1.0)):
        with pytest.raises(ValueError):
            gaussian_band_spectrum(omega0, width, n_photons, tau=1.0)
    with pytest.raises(ValueError):
        flat_band_spectrum(10.0, 5.0, 1.0, tau=1.0)
    for n_modes, n_photons in ((0, 1.0), (-1, 1.0), (4, -1.0)):
        with pytest.raises(ValueError):
            flat_band_spectrum(5.0, 10.0, n_photons, tau=1.0, n_modes=n_modes)


def test_band_spectra_default_to_the_scenario_readers_lattice():
    # the scenario reader's n_modes default is 101 for both band families
    assert len(flat_band_spectrum(60.0, 65.0, 1.0e4, tau=1.0).lattice) == 101
    assert len(gaussian_band_spectrum(60.0, 0.1, 1.0e4, tau=1.0).lattice) == 101


def test_paraxial_warning_for_off_axis_modes():
    lat = ModeLattice(k=np.array([[0.0, 8.0, 0.0]]))
    with pytest.warns(UserWarning):
        ModeSpectrum(lattice=lat, alpha=np.array([1.0 + 0j]), tau=1.0)


def test_spectrum_table_round_trip(tmp_path):
    lat = ModeLattice(k=np.array([[7.0, 0, 0], [9.5, 0, 0]]))
    spec = ModeSpectrum(lattice=lat,
                        alpha=np.array([1.0 + 2.0j, 0.5 - 0.3j]), tau=1.0)
    path = tmp_path / "spec.txt"
    save_spectrum_table(path, spec)
    loaded = load_spectrum_table(path, tau=1.0)
    assert np.array_equal(loaded.lattice.k, spec.lattice.k)
    assert np.array_equal(loaded.alpha, spec.alpha)
    assert math.isclose(effective_constant_C(loaded), effective_constant_C(spec),
                        rel_tol=1e-15)


def test_spectrum_table_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    np.savetxt(path, np.ones((3, 4)))
    with pytest.raises(ValueError):
        load_spectrum_table(path, tau=1.0)


def test_smeared_correlator_two_separations():
    eq = smeared_correlator_check(0.0, 1.0, width=0.05)
    assert math.isclose(eq["analytic"], 1.0, rel_tol=1e-15)
    assert eq["relative_error"] < 1e-2
    off = smeared_correlator_check(0.5, 1.5, width=0.05)
    assert math.isclose(off["analytic"], 0.5, rel_tol=1e-15)
    assert off["relative_error"] < 1e-2


def test_smeared_correlator_rejects_light_cone_graze():
    with pytest.raises(ValueError):
        smeared_correlator_check(0.95, 1.0, width=0.05)
    with pytest.raises(ValueError):
        smeared_correlator_check(0.0, -1.0, width=0.05)
