"""Monte Carlo readout simulation and classical estimation.

The simulated measurement is the homodyne X2 readout of the probe: for
true amplitude A the outcome is Gaussian with mean C * A and variance
var X2 (the Gaussian location model; more general POVMs are out of
scope).  The unbiased linear estimator inverts the mean map, and
its classical Fisher information C^2 / var X2 saturates the quantum
bound for the minimum-uncertainty states.

Randomness comes from a counter-based generator (Philox) driving
inverse-CDF normals, one 64-bit draw per sample, so the samples are a
pure function of the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .probe import GaussianProbeState, crlb_amplitude, effective_constant_C, quadrature_variances


@dataclass(frozen=True)
class MeasurementModel:
    """Gaussian location model for the X2 readout."""

    slope_c: float
    var_x2: float
    a_true: float = 0.0

    def __post_init__(self):
        if not (self.var_x2 >= 0 and np.isfinite(self.var_x2)):
            raise ValueError("var_x2 must be finite and nonnegative")
        if self.slope_c <= 0:
            raise ValueError("slope_c must be positive")

    @property
    def mean(self) -> float:
        return self.slope_c * self.a_true


def model_from_state(state: GaussianProbeState, a_true: float = 0.0) -> MeasurementModel:
    _, v2 = quadrature_variances(state)
    C = effective_constant_C(state.spectrum, state.hbar)
    return MeasurementModel(slope_c=C, var_x2=v2, a_true=a_true)


SEEDS = range(2 ** 128)  # the seeds counter_normals takes: Philox's keys


def counter_normals(seed: int, n: int) -> np.ndarray:
    """n standard normals from a counter-based stream.

    Sample i is a pure function of (seed, i): Philox raw 64-bit words
    mapped to (0, 1) uniforms and through the inverse normal CDF.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    raw = np.random.Philox(key=int(seed)).random_raw(int(n))
    u = (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    u = u + 2.0 ** -54  # strictly inside (0, 1)
    return ndtri(u)


def simulate_readout(model: MeasurementModel, n: int, seed: int) -> np.ndarray:
    """n independent X2 outcomes.  Degenerate variance gives the exact
    mean for every sample."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    if model.var_x2 == 0.0:
        return np.full(n, model.mean)
    return model.mean + math.sqrt(model.var_x2) * counter_normals(seed, n)


@dataclass(frozen=True)
class EstimatorRun:
    """Summary of a linear-estimator Monte Carlo run."""

    n_samples: int
    mean_estimate: float
    empirical_variance: float
    analytic_variance: float
    crlb: float
    variance_relative_error: float
    sampling_rel_std: float


def linear_estimator(samples: np.ndarray, model: MeasurementModel,
                     crlb: float) -> EstimatorRun:
    """Unbiased estimate A~ = x / C per sample, summarized against the
    bound crlb.

    The analytic estimator variance is var X2 / C^2; the empirical one
    uses the ddof = 1 sample variance, whose chi-square sampling spread
    is sqrt(2 / (n - 1)) relative.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise ValueError("need at least 2 samples to estimate a variance")
    est = samples / model.slope_c
    emp = float(np.var(est, ddof=1))
    crlb = float(crlb)
    return EstimatorRun(
        n_samples=n,
        mean_estimate=float(np.mean(est)),
        empirical_variance=emp,
        analytic_variance=model.var_x2 / model.slope_c ** 2,
        crlb=crlb,
        variance_relative_error=(emp - crlb) / crlb if crlb > 0 else math.nan,
        sampling_rel_std=math.sqrt(2.0 / (n - 1)),
    )


def classical_fisher(model: MeasurementModel) -> float:
    """Fisher information of the Gaussian location model: C^2 / var X2."""
    if model.var_x2 == 0.0:
        return math.inf
    return model.slope_c ** 2 / model.var_x2


def histogram_fisher(samples: np.ndarray, model: MeasurementModel) -> float:
    """Nonparametric Fisher estimate from binned samples.

    The outcome density is histogrammed on 64 uniform bins spanning
    +- 6 standard deviations around the model mean; since the
    parameter shifts the distribution rigidly, dp/dA = -C dp/dx, and the
    Fisher integral sum_bins (dp/dA)^2 / p dx uses a central difference
    across bins.  Validates the closed form at the few-percent level.
    """
    if model.var_x2 <= 0.0:
        raise ValueError("histogram Fisher needs a nondegenerate model")
    samples = np.asarray(samples, dtype=float)
    sigma = math.sqrt(model.var_x2)
    counts, edges = np.histogram(samples, bins=64,
                                 range=(model.mean - 6.0 * sigma, model.mean + 6.0 * sigma))
    dx = edges[1] - edges[0]
    p = counts / (samples.size * dx)
    dp_dx = np.zeros_like(p)
    dp_dx[1:-1] = (p[2:] - p[:-2]) / (2.0 * dx)
    good = p > 0
    integrand = np.zeros_like(p)
    integrand[good] = (model.slope_c * dp_dx[good]) ** 2 / p[good]
    return float(np.sum(integrand) * dx)


#: largest relative gap of a saturating readout (see crb_saturation_check)
SATURATION_GAP = 1e-9


def crb_saturation_check(state: GaussianProbeState) -> dict:
    """Quantum bound versus inverse classical Fisher of the X2 readout;
    saturated means a relative gap of at most SATURATION_GAP."""
    report = crlb_amplitude(state)
    model = model_from_state(state)
    inv_fisher = 1.0 / classical_fisher(model)
    gap = abs(inv_fisher - report.crlb) / report.crlb
    return {
        "quantum_bound": report.crlb,
        "classical_fisher_inverse": inv_fisher,
        "relative_gap": gap,
        "saturated": bool(gap <= SATURATION_GAP),
    }
