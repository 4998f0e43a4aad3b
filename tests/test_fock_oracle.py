import math

import numpy as np
import pytest
import scipy.sparse as sp

from metricprobe.fock import (build_state, destroy, expectation,
                              mode_operators, probe_state_moments, variance)
from metricprobe.probe import (GaussianProbeState, ModeLattice, ModeSpectrum,
                               hamiltonian_variance, quadrature_variances,
                               remainder_variance_lattice)


def _state(omegas, alphas, r=0.0, tau=1.0):
    om = np.asarray(omegas, dtype=float)
    k = np.zeros((om.size, 3))
    k[:, 0] = om
    spec = ModeSpectrum(lattice=ModeLattice(k=k),
                        alpha=np.asarray(alphas, dtype=complex), tau=tau)
    return GaussianProbeState(spectrum=spec, squeeze_r=r)


def test_destroy_matrix_elements():
    a = destroy(4).toarray()
    n = np.arange(5)
    num = (a.conj().T @ a).diagonal()
    assert np.allclose(num, n, atol=1e-15)
    assert a[0, 1] == 1.0
    assert math.isclose(a[2, 3], math.sqrt(3.0), rel_tol=1e-15)


def test_mode_operators_commute_across_modes():
    a1, a2 = mode_operators(5, 2)
    comm = (a1 @ a2 - a2 @ a1).toarray()
    assert np.max(np.abs(comm)) == 0.0
    num1 = (a1.conj().T @ a1).diagonal()
    assert math.isclose(num1.max(), 5.0, rel_tol=1e-14)


def test_coherent_state_moments():
    alpha = 1.2 - 0.7j
    psi, ops = build_state([alpha], [1.0], r=0.0, n_max=60)
    assert math.isclose(np.linalg.norm(psi), 1.0, rel_tol=1e-14)
    a = ops[0]
    assert abs(expectation(a, psi) - alpha) < 1e-10
    nbar = expectation(a.conj().T @ a, psi).real
    assert math.isclose(nbar, abs(alpha) ** 2, rel_tol=1e-10)
    # Poisson number variance
    num = a.conj().T @ a
    assert math.isclose(variance(num, psi), abs(alpha) ** 2, rel_tol=1e-9)


def test_squeezed_vacuum_occupation():
    r = 0.5
    psi, ops = build_state([0.0], [1.0], r=r, n_max=60)
    a = ops[0]
    nbar = expectation(a.conj().T @ a, psi).real
    assert math.isclose(nbar, math.sinh(r) ** 2, rel_tol=1e-10)
    # even-photon support only
    probs = np.abs(psi) ** 2
    assert probs[1::2].max() < 1e-20


def test_moments_match_gaussian_coherent():
    st = _state([7.0], [2.0])
    mom = probe_state_moments(st, n_max=80)
    v1, v2 = quadrature_variances(st)
    assert abs(mom["var_X1"] - v1) < 1e-8
    assert abs(mom["var_X2"] - v2) < 1e-8
    assert abs(mom["var_F"]) < 1e-10
    assert mom["truncation_mass"] < 1e-12


def test_moments_match_gaussian_squeezed():
    st = _state([7.0], [2.0], r=0.8)
    mom = probe_state_moments(st)
    v1, v2 = quadrature_variances(st)
    assert abs(mom["var_X1"] - v1) < 1e-8
    assert abs(mom["var_X2"] - v2) < 1e-8
    assert mom["var_X2"] < mom["var_X1"]
    assert abs(mom["var_F"] - remainder_variance_lattice(st)) < 1e-8


def test_moments_match_gaussian_two_mode():
    st = _state([7.0, 9.0], [1.5, 1.0 + 0.5j], r=0.5)
    mom = probe_state_moments(st, n_max=60)
    v1, v2 = quadrature_variances(st)
    assert abs(mom["var_X1"] - v1) < 1e-8
    assert abs(mom["var_X2"] - v2) < 1e-8
    assert abs(mom["var_F"] - remainder_variance_lattice(st)) < 1e-8


def test_mean_displacement_along_x1():
    # <X1> = hbar tau sum omega |alpha|^2 for the in-phase spectrum
    st = _state([7.0], [2.0])
    mom = probe_state_moments(st, n_max=80)
    assert abs(mom["mean_X1"] - 7.0 * 4.0) < 1e-8
    st2 = _state([7.0, 9.0], [1.5, 1.0])
    mom2 = probe_state_moments(st2, n_max=50)
    assert abs(mom2["mean_X1"] - (7.0 * 2.25 + 9.0 * 1.0)) < 1e-8


def test_hamiltonian_variance_against_explicit_operator():
    hbar = 1.0
    for omegas, alphas, r, n_max in (
            ([7.0], [2.0], 0.8, 120),
            ([7.0, 9.0], [1.5, 1.0 + 0.5j], 0.5, 60)):
        st = _state(omegas, alphas, r=r)
        from metricprobe.probe import effective_mode_coefficients
        c = effective_mode_coefficients(st.spectrum, hbar)
        psi, ops = build_state(alphas, c, r, n_max)
        dH = None
        for om, al, ak in zip(omegas, np.asarray(alphas, dtype=complex), ops):
            eye = sp.identity(ak.shape[0], format="csr")
            da = ak - al * eye
            term = hbar * om * (np.conj(al) * da + al * da.conj().T)
            dH = term if dH is None else dH + term
        assert abs(variance(dH, psi) - hamiltonian_variance(st)) < 1e-8


def test_truncation_guard_and_mode_limit():
    st = _state([7.0], [2.0])
    with pytest.raises(ValueError):
        probe_state_moments(st, n_max=20)
    st3 = _state([7.0, 8.0, 9.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        probe_state_moments(st3)


def test_truncation_mass_shrinks_with_depth():
    st = _state([7.0], [2.0], r=0.8)
    shallow = probe_state_moments(st, n_max=40)["truncation_mass"]
    deep = probe_state_moments(st, n_max=120)["truncation_mass"]
    assert deep < shallow
    assert deep < 1e-12


def test_build_state_length_mismatch():
    with pytest.raises(ValueError):
        build_state([1.0, 2.0], [1.0], r=0.0, n_max=40)
