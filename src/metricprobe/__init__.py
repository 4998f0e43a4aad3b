"""Estimation bounds for classical metric parameters read out by
Gaussian states of a quantized probe field.

The pipeline runs metric family -> stress-energy source -> generator
integral over a readout region -> probe-state variance -> quantum
Cramer-Rao bound, with independent cross-check routes (exact Fock
arithmetic, boundary-flux identities, chart changes) kept deliberately
separate from the production path.
"""

__version__ = "0.1.0"

from .geometry import (BUILTIN_FAMILIES, BumpProfile, MetricFamily,
                       de_sitter, flrw_closed, g00_profile_perturbation,
                       gw_plane_wave, isotropic, localize,
                       minkowski_component, schwarzschild)
from .stress_energy import (StressEnergyField, em_plane_wave, em_stress_tensor,
                            em_uniform, in_orthonormal_frame)
from .quadrature import RegionSpec, integrate
from .generator import (GeneratorResult, CoordinateCheckReport,
                        coordinate_independence_check, generator_density,
                        integrate_generator, trace_null_residual)
from .probe import (CrlbReport, GaussianProbeState, ModeSpectrum,
                    commutator_constant, crlb_amplitude, effective_constant_C,
                    effective_mode_coefficients, flat_band_spectrum,
                    gaussian_band_spectrum, hamiltonian_variance,
                    monochromatic_spectrum, quadrature_variances,
                    remainder_variance_lattice, smeared_correlator_check)
from .simulate import (EstimatorRun, MeasurementModel, classical_fisher,
                       crb_saturation_check, histogram_fisher, linear_estimator,
                       model_from_state, simulate_readout)
from .scenarios import (Scenario, ScenarioError, bundled_scenario_names,
                        load_bundled, load_scenario, resolve_scenario,
                        run_bound, run_simulate)
from .reports import dumps_report, render_summary, write_report
from .verify import run_verify

__all__ = [
    "__version__",
    "BUILTIN_FAMILIES", "BumpProfile", "MetricFamily",
    "de_sitter", "flrw_closed", "g00_profile_perturbation", "gw_plane_wave",
    "isotropic", "localize", "minkowski_component", "schwarzschild",
    "StressEnergyField", "em_plane_wave", "em_stress_tensor", "em_uniform",
    "in_orthonormal_frame",
    "RegionSpec", "integrate",
    "GeneratorResult", "CoordinateCheckReport",
    "coordinate_independence_check", "generator_density",
    "integrate_generator", "trace_null_residual",
    "CrlbReport", "GaussianProbeState", "ModeSpectrum",
    "commutator_constant", "crlb_amplitude", "effective_constant_C",
    "effective_mode_coefficients", "flat_band_spectrum",
    "gaussian_band_spectrum", "hamiltonian_variance",
    "monochromatic_spectrum", "quadrature_variances",
    "remainder_variance_lattice", "smeared_correlator_check",
    "EstimatorRun", "MeasurementModel", "classical_fisher",
    "crb_saturation_check", "histogram_fisher", "linear_estimator",
    "model_from_state", "simulate_readout",
    "Scenario", "ScenarioError", "bundled_scenario_names", "load_bundled",
    "load_scenario", "resolve_scenario", "run_bound", "run_simulate",
    "dumps_report", "render_summary", "write_report",
    "run_verify",
]
