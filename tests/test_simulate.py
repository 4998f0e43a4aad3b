import math

import numpy as np
import pytest

from metricprobe.probe import (GaussianProbeState, crlb_amplitude,
                               monochromatic_spectrum, quadrature_variances)
from metricprobe.simulate import (EstimatorRun, MeasurementModel, classical_fisher,
                                  counter_normals, crb_saturation_check,
                                  histogram_fisher, linear_estimator,
                                  model_from_state, simulate_readout)


def _state(nbar=1.0e4, r=0.0, omega=2.0 * math.pi * 10.0):
    return GaussianProbeState(monochromatic_spectrum(omega, nbar, tau=1.0), squeeze_r=r)


def test_model_from_state():
    st = _state(r=0.6)
    model = model_from_state(st, a_true=2.0e-4)
    rep = crlb_amplitude(st)
    assert model.slope_c == rep.C
    assert model.var_x2 == quadrature_variances(st)[1]
    assert model.mean == rep.C * 2.0e-4


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(slope_c=1.0, var_x2=-1.0)
    with pytest.raises(ValueError):
        MeasurementModel(slope_c=1.0, var_x2=math.nan)
    with pytest.raises(ValueError):
        MeasurementModel(slope_c=0.0, var_x2=1.0)


def test_counter_normals_sample_count():
    with pytest.raises(ValueError):
        counter_normals(1, -1)
    assert counter_normals(1, 0).size == 0


def test_counter_normals_moments():
    z = counter_normals(7, 1_000_000)
    assert abs(float(np.mean(z))) < 5.0 / math.sqrt(z.size)
    assert abs(float(np.var(z)) - 1.0) < 5.0 * math.sqrt(2.0 / z.size)
    # distinct seeds decorrelate
    z2 = counter_normals(8, 1_000_000)
    corr = float(np.corrcoef(z, z2)[0, 1])
    assert abs(corr) < 5.0 / math.sqrt(z.size)


def test_simulate_readout_degenerate_variance():
    model = MeasurementModel(slope_c=2.0, var_x2=0.0, a_true=0.5)
    x = simulate_readout(model, 5, seed=0)
    assert np.all(x == model.mean)
    with pytest.raises(ValueError):
        simulate_readout(model, 0, seed=0)


def test_simulate_readout_deterministic():
    st = _state()
    model = model_from_state(st, a_true=3.0e-4)
    a = simulate_readout(model, 1000, seed=42)
    b = simulate_readout(model, 1000, seed=42)
    assert np.array_equal(a, b)
    c = simulate_readout(model, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_simulate_readout_mean():
    st = _state()
    model = model_from_state(st, a_true=3.0e-4)
    n = 20000
    x = simulate_readout(model, n, seed=11)
    se = math.sqrt(model.var_x2 / n)
    assert abs(float(np.mean(x)) - model.mean) < 5.0 * se


def test_linear_estimator_unbiased_and_efficient():
    st = _state(r=1.0)
    a_true = 3.0e-4
    model = model_from_state(st, a_true=a_true)
    rep = crlb_amplitude(st)
    n = 40000
    x = simulate_readout(model, n, seed=5)
    run = linear_estimator(x, model, rep.crlb)
    assert isinstance(run, EstimatorRun)
    assert run.n_samples == n
    se = math.sqrt(run.analytic_variance / n)
    assert abs(run.mean_estimate - a_true) < 5.0 * se
    assert math.isclose(run.analytic_variance, model.var_x2 / model.slope_c ** 2,
                        rel_tol=1e-15)
    # the optimal linear readout attains the quantum bound
    assert math.isclose(run.analytic_variance, rep.crlb, rel_tol=1e-12)
    assert abs(run.variance_relative_error) < 3.0 * run.sampling_rel_std
    assert math.isclose(run.sampling_rel_std, math.sqrt(2.0 / (n - 1)), rel_tol=1e-15)


def test_linear_estimator_needs_two_samples():
    model = MeasurementModel(slope_c=1.0, var_x2=1.0)
    with pytest.raises(ValueError):
        linear_estimator(np.array([1.0]), model, 1.0)


def test_classical_fisher_closed_form():
    model = MeasurementModel(slope_c=3.0, var_x2=2.0)
    assert classical_fisher(model) == 4.5
    degenerate = MeasurementModel(slope_c=3.0, var_x2=0.0)
    assert classical_fisher(degenerate) == math.inf


def test_histogram_fisher_matches_closed_form():
    st = _state(nbar=100.0)
    model = model_from_state(st)
    x = simulate_readout(model, 200000, seed=9)
    est = histogram_fisher(x, model)
    exact = classical_fisher(model)
    assert abs(est - exact) / exact < 0.05
    with pytest.raises(ValueError):
        histogram_fisher(x, MeasurementModel(slope_c=1.0, var_x2=0.0))


def test_saturation_coherent_and_squeezed():
    for r in (0.0, 1.0):
        out = crb_saturation_check(_state(r=r))
        assert out["saturated"]
        assert out["relative_gap"] <= 1e-9


def test_inflated_noise_breaks_saturation():
    st = _state()
    rep = crlb_amplitude(st)
    model = model_from_state(st)
    noisy = MeasurementModel(slope_c=model.slope_c, var_x2=2.0 * model.var_x2)
    inv_fisher = 1.0 / classical_fisher(noisy)
    assert math.isclose(inv_fisher, 2.0 * rep.crlb, rel_tol=1e-12)


def test_empirical_variance_never_beats_the_bound():
    # random probe states: the simulated estimator variance respects the
    # quantum bound within Monte Carlo spread
    rng = np.random.default_rng(2024)
    n = 4000
    guard = 3.0 * math.sqrt(2.0 / (n - 1))
    for trial in range(20):
        omega = float(rng.uniform(7.0, 40.0))
        nbar = float(rng.uniform(10.0, 1.0e4))
        r = float(rng.choice([0.0, 0.3, 0.8]))
        st = _state(nbar=nbar, r=r, omega=omega)
        rep = crlb_amplitude(st)
        model = model_from_state(st, a_true=1.0e-3)
        x = simulate_readout(model, n, seed=3000 + trial)
        run = linear_estimator(x, model, rep.crlb)
        assert run.empirical_variance >= rep.crlb * (1.0 - guard)
