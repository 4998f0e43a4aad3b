"""Scenario configs: parse, validate, build pipeline objects, run.

A scenario is one YAML document describing a complete estimation setup:
metric family, optional bump localization, stress-energy source, region,
probe state, and simulation parameters.  `parse_scenario` builds each
section once, so a malformed document fails before any quadrature.  The
bundled library covers one scenario per headline result; `run_bound` and
`run_simulate` turn a scenario into a plain report dict (rendering lives
in reports.py).
"""
from __future__ import annotations

import importlib.resources
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from . import geometry as geo
from . import stress_energy as se
from .generator import (GeneratorResult, coordinate_independence_check,
                        bundled_coordinate_bump, conserved_test_tensor,
                        integrate_generator, nonconserved_test_tensor,
                        spherical_test_box, trace_null_residual)
from .probe import (CrlbReport, GaussianProbeState, crlb_amplitude,
                    effective_constant_C, flat_band_spectrum,
                    gaussian_band_spectrum, hamiltonian_variance,
                    load_spectrum_table, monochromatic_spectrum)
from .quadrature import RegionSpec, integrate
from .simulate import (SEEDS, crb_saturation_check, histogram_fisher, linear_estimator,
                       model_from_state, classical_fisher, simulate_readout)

KINDS = ("generator-crlb", "coordinate-check", "unruh-product", "proper-time")
_SOURCE = ("family", "stress_energy", "region")
#: sections parse_scenario requires: those a kind reads, or a section is built with
_NEEDS = {"generator-crlb": _SOURCE, "unruh-product": _SOURCE + ("probe",),
          "proper-time": _SOURCE + ("probe",), "bump": ("family",),
          "stress_energy": ("family", "region")}
_SECTIONS = ("family", "bump", "stress_energy", "region", "probe", "simulation")
#: largest trace-null residual at which a source counts as traceless
TRACE_NULL_TOL = 1e-12
#: largest squeeze_r whose e^(2 r) is a finite float
_MAX_SQUEEZE_R = 0.5 * math.log(np.finfo(float).max)


class ScenarioError(ValueError):
    """Config validation failure, naming the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"scenario key '{key}': {message}")


@contextmanager
def _keyed(key: str, errors=ValueError):
    """Raise the errors of the block as a ScenarioError naming key."""
    try:
        yield
    except errors as exc:
        raise ScenarioError(key, str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario document: raw as given, and the objects built from
    its sections, None for a section it leaves out.  region is at
    resolution multiplier 1; simulation holds n_samples, seed and a_true."""

    name: str
    kind: str
    description: str
    raw: dict
    family: Optional[geo.MetricFamily]
    field: Optional[se.StressEnergyField]
    region: Optional[RegionSpec]
    state: Optional[GaussianProbeState]
    simulation: dict


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "must be a mapping")
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"{path}.{key}", "missing")
    return d[key]


def _num(d: dict, key: str, path: str, default=None):
    if key not in d and default is not None:
        return default
    v = _need(d, key, path)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}", f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ScenarioError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _int(d: dict, key: str, path: str, default: int) -> int:
    v = d.get(key, default)
    if not _is_int(v):
        raise ScenarioError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _array(d: dict, key: str, path: str) -> np.ndarray:
    v = _need(d, key, path)
    try:
        arr = np.asarray(v, dtype=float)
        if np.all(np.isfinite(arr)):
            return arr
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{path}.{key}", f"expected an array of finite numbers, got {v!r}")


def _vector(d: dict, key: str, path: str) -> np.ndarray:
    arr = _array(d, key, path)
    if arr.shape != (3,):
        raise ScenarioError(f"{path}.{key}", f"expected 3 numbers, got {d[key]!r}")
    return arr


def _only(d: dict, key: str, path: str, value: str) -> None:
    """Accept an optional key whose one allowed value is also its default."""
    if d.get(key, value) != value:
        raise ScenarioError(f"{path}.{key}", f"must be {value!r}, got {d[key]!r}")


def load_scenario(path) -> Scenario:
    """The scenario in a YAML file; a file that cannot be read, decoded as
    UTF-8 or parsed as YAML is a ScenarioError at the document root."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ScenarioError("<root>", f"cannot read {str(path)!r}: {exc}") from exc
    return parse_scenario(doc)


def parse_scenario(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("<root>", "document must be a mapping")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "must be a nonempty string")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ScenarioError("kind", f"must be one of {', '.join(KINDS)}; got {kind!r}")
    for key in doc:
        if key not in _SECTIONS + ("name", "kind", "description"):
            raise ScenarioError(key, "unknown section")
    present = [key for key in _SECTIONS if doc.get(key) is not None]
    for need in [kind] + present:
        for key in _NEEDS.get(need, ()):
            if key not in present:
                raise ScenarioError(key, f"section is required by {need!r}")
    family = build_family(doc) if "family" in present else None
    region = build_region(doc) if "region" in present else None
    field = build_field(doc, family, region) if "stress_energy" in present else None
    state = build_state(doc) if "probe" in present else None
    if kind == "proper-time" and hamiltonian_variance(state) == 0.0:
        raise ScenarioError("probe.spectrum", "proper-time needs a probe whose energy "
                            "fluctuates (no active photons)")
    return Scenario(name=name, kind=kind, description=str(doc.get("description", "")), raw=doc,
                    family=family, field=field, region=region, state=state,
                    simulation=build_sim_params(doc))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_profile(spec: dict, path: str):
    kind = _need(spec, "kind", path)
    if kind == "constant":
        value = _num(spec, "value", path, default=1.0)
        return lambda x: np.full(np.asarray(x).shape[:-1], value)
    if kind == "bump":
        return _build_bump(spec, path)
    raise ScenarioError(f"{path}.kind", f"unknown profile kind {kind!r}")


def _build_bump(spec: dict, path: str) -> geo.BumpProfile:
    plateau = _array(spec, "plateau", path)
    support = _array(spec, "support", path)
    _only(spec, "kind_name", path, "smoothstep")
    order = _int(spec, "order", path, default=3)
    with _keyed(path):
        return geo.BumpProfile(plateau=plateau, support=support, order=order)


def build_family(doc: dict) -> geo.MetricFamily:
    spec = _mapping(doc["family"], "family")
    name = _need(spec, "name", "family")
    params = dict(_mapping(spec.get("parameters") or {}, "family.parameters"))
    if "theta0" in params:
        params["theta0"] = _num(params, "theta0", "family.parameters")
    for key in ("mu0", "nu0"):
        if key in params:
            params[key] = _int(params, key, "family.parameters", 0)
    if not isinstance(name, str) or name not in geo.BUILTIN_FAMILIES:
        raise ScenarioError("family.name",
                            f"unknown family {name!r}; built-ins: "
                            + ", ".join(sorted(geo.BUILTIN_FAMILIES)))
    if name == "g00_profile_perturbation":
        path = "family.parameters.profile"
        params["profile"] = _build_profile(_mapping(params.pop("profile", None), path), path)
    with _keyed("family.parameters", (TypeError, ValueError)):
        fam = geo.BUILTIN_FAMILIES[name](**params)
    if doc.get("bump") is not None:
        bump = _build_bump(_mapping(doc["bump"], "bump"), "bump")
        with _keyed("bump", geo.ChartDomainError):
            fam = geo.localize(fam, bump)
    return fam


def build_field(doc: dict, family: geo.MetricFamily,
                region: RegionSpec) -> se.StressEnergyField:
    """The scenario's source over the region, which must lie in the
    family's chart domain; family supplies the chart a grid file must be
    tabulated on and the metric of an orthonormal frame."""
    with _keyed("region.box", geo.ChartDomainError):
        # integrate_generator's check, made before any quadrature
        family.domain.require(geo.box_corners(region.box))
    spec = _mapping(doc["stress_energy"], "stress_energy")
    em_spec = spec.get("em")
    grid_spec = spec.get("grid")
    if (em_spec is None) == (grid_spec is None):
        raise ScenarioError("stress_energy",
                            "exactly one of 'em' or 'grid' must be given")
    frame = spec.get("frame", "chart")
    if frame not in ("chart", "orthonormal"):
        raise ScenarioError("stress_energy.frame",
                            f"must be 'chart' or 'orthonormal', got {frame!r}")
    if grid_spec is not None:
        fn = _build_grid(_mapping(grid_spec, "stress_energy.grid"), family, region.box)
    else:
        fn = _build_em(_mapping(em_spec, "stress_energy.em"), "stress_energy.em")
    if frame == "orthonormal":
        with _keyed("stress_energy.frame"):
            fn = se.in_orthonormal_frame(fn, family)
    return se.StressEnergyField(fn)


def _build_grid(spec: dict, family: geo.MetricFamily, box: np.ndarray):
    """Interpolant of a grid file on the family's chart that covers the
    region box."""
    key = "stress_energy.grid.path"
    path = _need(spec, "path", "stress_energy.grid")
    if not isinstance(path, str):
        raise ScenarioError(key, f"expected a file path, got {path!r}")
    with _keyed(key, (OSError, ValueError)):
        grid = se.load_grid(path)
    if grid.chart != family.chart_name:
        raise ScenarioError(key, f"grid is on chart {grid.chart!r}, the family "
                            f"on {family.chart_name!r}")
    ends = np.array([[ax[0], ax[-1]] for ax in grid.axes()])
    if np.any(box[:, 0] < ends[:, 0]) or np.any(box[:, 1] > ends[:, 1]):
        raise ScenarioError("region.box", f"reaches outside the grid {ends.tolist()}")
    return grid.interpolate


def _build_em(spec: dict, path: str):
    kind = _need(spec, "kind", path)
    if kind == "plane-wave":
        return se.em_plane_wave(amplitude=_num(spec, "amplitude", path),
                                omega=_num(spec, "omega", path),
                                phase=_num(spec, "phase", path, default=0.0))
    if kind == "uniform":
        return se.em_uniform(_vector(spec, "E", path), _vector(spec, "B", path))
    raise ScenarioError(f"{path}.kind", f"unknown EM configuration {kind!r}")


def build_region(doc: dict) -> RegionSpec:
    spec = _mapping(doc["region"], "region")
    box = _array(spec, "box", "region")
    res = _need(spec, "resolution", "region")
    if not all(_is_int(n) for n in (res if isinstance(res, list) else [res])):
        raise ScenarioError("region.resolution",
                            f"expected an integer or a list of integers, got {res!r}")
    _only(spec, "rule", "region", "trapezoid")
    with _keyed("region.box"):
        geo._checked_box(box, "box")
    with _keyed("region.resolution"):
        return RegionSpec(box=box, resolution=tuple(np.atleast_1d(res)))


def build_state(doc: dict) -> GaussianProbeState:
    spec = _mapping(doc["probe"], "probe")
    sp = _mapping(spec.get("spectrum"), "probe.spectrum")
    fam = _need(sp, "family", "probe.spectrum")
    tau = _num(sp, "tau", "probe.spectrum")
    cutoff = _num(sp, "dc_cutoff_mult", "probe.spectrum", default=1.0)
    if fam == "monochromatic":
        make, kwargs = monochromatic_spectrum, dict(
            omega=_num(sp, "omega", "probe.spectrum"),
            n_photons=_num(sp, "n_photons", "probe.spectrum"))
    elif fam == "gaussian-band":
        make, kwargs = gaussian_band_spectrum, dict(
            omega0=_num(sp, "omega", "probe.spectrum"),
            fractional_width=_num(sp, "fractional_width", "probe.spectrum"),
            n_photons=_num(sp, "n_photons", "probe.spectrum"),
            n_modes=_int(sp, "n_modes", "probe.spectrum", default=101))
    elif fam == "flat-band":
        make, kwargs = flat_band_spectrum, dict(
            omega_lo=_num(sp, "omega_lo", "probe.spectrum"),
            omega_hi=_num(sp, "omega_hi", "probe.spectrum"),
            n_photons=_num(sp, "n_photons", "probe.spectrum"),
            n_modes=_int(sp, "n_modes", "probe.spectrum", default=101))
    elif fam == "table":
        path = _need(sp, "path", "probe.spectrum")
        if not isinstance(path, str):
            raise ScenarioError("probe.spectrum.path", f"expected a file path, got {path!r}")
        make, kwargs = load_spectrum_table, dict(path=path)
    else:
        raise ScenarioError("probe.spectrum.family",
                            f"unknown spectrum family {fam!r}")
    with _keyed("probe.spectrum.path", OSError), _keyed("probe.spectrum"):
        spectrum = make(tau=tau, dc_cutoff_mult=cutoff, **kwargs)
    if not np.any(spectrum.active):
        raise ScenarioError("probe.spectrum", "no modes survive the DC cutoff "
                            f"omega >= {spectrum.omega_min:g}")
    squeeze_r = _num(spec, "squeeze_r", "probe", default=0.0)
    hbar = _num(spec, "hbar", "probe", default=1.0)
    # squeeze_r alone sets the state; the reference name must agree with it
    reference = spec.get("reference", "vacuum-coherent")
    if reference not in ("vacuum-coherent", "squeezed-vacuum"):
        raise ScenarioError("probe.reference", "must be 'vacuum-coherent' or "
                            f"'squeezed-vacuum', got {reference!r}")
    if reference == "vacuum-coherent" and squeeze_r != 0.0:
        raise ScenarioError("probe.reference", "vacuum-coherent is the unsqueezed "
                            f"state, but squeeze_r = {squeeze_r!r}")
    # the bound and the readout take e^(2 r) and square hbar and C
    if squeeze_r > _MAX_SQUEEZE_R:
        raise ScenarioError("probe.squeeze_r", f"e^(2 r) overflows above "
                            f"{_MAX_SQUEEZE_R!r}, got {squeeze_r!r}")
    if not math.isfinite(hbar * hbar):
        raise ScenarioError("probe.hbar", f"hbar^2 overflows, got {hbar!r}")
    with np.errstate(over="ignore"):
        C = effective_constant_C(spectrum, hbar)
    if not math.isfinite(C * C):
        raise ScenarioError("probe.spectrum", f"the mode sum C = {C!r} squared overflows")
    with _keyed("probe"):
        return GaussianProbeState(spectrum=spectrum, squeeze_r=squeeze_r, hbar=hbar)


def build_sim_params(doc: dict) -> dict:
    spec = doc.get("simulation")
    spec = {} if spec is None else _mapping(spec, "simulation")
    n = spec.get("n_samples", 10 ** 6)
    if not _is_int(n) or n < 2:
        # the estimator's sample variance needs two samples
        raise ScenarioError("simulation.n_samples", f"must be an integer >= 2, got {n!r}")
    seed = _int(spec, "seed", "simulation", default=0)
    if seed not in SEEDS:
        raise ScenarioError("simulation.seed", f"must lie in [0, 2^128), got {seed!r}")
    return {"n_samples": n, "seed": seed,
            "a_true": _num(spec, "a_true", "simulation", default=0.0)}


# ---------------------------------------------------------------------------
# runners (plain dict reports; serialization lives in reports.py)
# ---------------------------------------------------------------------------

def _q(value, units: str) -> dict:
    return {"value": value, "units": units}


def _generator_block(res: GeneratorResult) -> dict:
    return {
        "P_total": _q(res.P_total, "geometric (G=c=1)"),
        "P_plateau": _q(res.P_plateau, "geometric (G=c=1)"),
        "P_shell": _q(res.P_shell, "geometric (G=c=1)"),
        "error_estimate": _q(res.error_estimate, "geometric (G=c=1)"),
        "warnings": list(res.warnings),
    }


def _crlb_block(rep) -> dict:
    return {
        "C": _q(rep.C, "hbar/amplitude^2"),
        "var_X1": _q(rep.var_X1, "hbar^2/amplitude^2"),
        "var_X2": _q(rep.var_X2, "hbar^2/amplitude^2"),
        "crlb": _q(rep.crlb, "amplitude^2"),
        "shot_noise": _q(rep.shot_noise, "amplitude^2"),
        "remainder_ratio": _q(rep.remainder_ratio, "dimensionless"),
        "n_dc_excluded": _q(rep.n_dc_excluded, "count"),
        "commutator_residual": _q(rep.commutator_residual, "dimensionless"),
        "counter_rotating_scale": _q(rep.counter_rotating_scale, "dimensionless"),
        "flags": list(rep.flags),
    }


def run_bound(sc: Scenario, resolution_mult: float = 1.0) -> dict:
    """Metric -> stress-energy -> generator -> probe chain for one
    scenario; returns the report body."""
    from . import __version__
    report = {"scenario": dict(sc.raw), "name": sc.name, "kind": sc.kind,
              "version": __version__}
    # a factor that is not positive and finite, or gives over MAX_NODES nodes
    with _keyed("--resolution"):
        # a coordinate check without a region audits the spherical test box
        region = (sc.region or RegionSpec(box=spherical_test_box(), resolution=33)
                  ).scaled(resolution_mult)
    if sc.kind == "coordinate-check":
        report["coordinate_check"] = _run_coordinate_check(region)
        return report

    fam, field, state = sc.family, sc.field, sc.state
    res = integrate_generator(field, fam, region)
    report["generator"] = _generator_block(res)

    if fam.label in ("flrw_closed", "de_sitter"):
        resid = trace_null_residual(field, fam, region)
        report["trace_null"] = {
            "residual": _q(resid, "dimensionless"),
            "traceless_coupling": bool(resid <= TRACE_NULL_TOL),
        }

    if state is not None:
        rep = crlb_amplitude(state)
        report["crlb"] = _crlb_block(rep)
    elif "trace_null" in report:
        # conformally coupled probe: no mean-field information at all
        report["crlb"] = {
            "crlb": _q(math.inf, "amplitude^2"),
            "flags": ["traceless probe: generator vanishes pointwise; "
                      "the scale parameter is invisible at this order"],
        }

    if sc.kind == "unruh-product":
        report["unruh"] = _run_unruh(state, rep, res)
    elif sc.kind == "proper-time":
        report["proper_time"] = _run_proper_time(state, rep, field, region, res)
    return report


def _run_coordinate_check(region: RegionSpec) -> dict:
    bump = bundled_coordinate_bump()
    out = {}
    for label, tensor in (("conserved", conserved_test_tensor()),
                          ("nonconserved", nonconserved_test_tensor())):
        try:
            rep = coordinate_independence_check(tensor, region, bump=bump)
        except geo.ChartDomainError as exc:
            # raised by the region check that precedes any quadrature
            raise ScenarioError("region.box", str(exc)) from exc
        dP = rep.P_isotropic - rep.P_schwarzschild
        out[label] = {
            "P_schwarzschild": _q(rep.P_schwarzschild, "geometric (G=c=1)"),
            "P_isotropic": _q(rep.P_isotropic, "geometric (G=c=1)"),
            "difference": _q(dP, "geometric (G=c=1)"),
            "angular_integral": _q(rep.angular_integral, "geometric (G=c=1)"),
            "flux_minus_divergence": _q(rep.flux_minus_divergence,
                                        "geometric (G=c=1)"),
            "error_estimate": _q(rep.error_estimate, "geometric (G=c=1)"),
            "divergence_residual": _q(rep.divergence_residual, "dimensionless"),
            "conserved": rep.conserved,
            "consistent": bool(abs(dP - rep.angular_integral) <= rep.error_estimate
                               and abs(dP - rep.flux_minus_divergence)
                               <= rep.error_estimate),
        }
    # both sources share the region and bump, so they share these warnings
    out["warnings"] = list(rep.warnings)
    return out


def _run_unruh(state: GaussianProbeState, rep: CrlbReport, res: GeneratorResult) -> dict:
    """Product of the component-estimation bound with the variance of
    the windowed component integral; 2 P_total is the mean of that
    integral, and for the bundled null probe the integral itself is
    tau times the field Hamiltonian."""
    tau = state.spectrum.tau
    var_int_T = tau ** 2 * hamiltonian_variance(state)
    product = rep.crlb * var_int_T
    rhs = state.hbar ** 2
    return {
        "mean_int_T": _q(2.0 * res.P_total, "geometric (G=c=1)"),
        "var_int_T": _q(var_int_T, "hbar^2"),
        "product": _q(product, "hbar^2"),
        "rhs": _q(rhs, "hbar^2"),
        "product_residual": _q(abs(product - rhs) / rhs, "dimensionless"),
    }


def _run_proper_time(state: GaussianProbeState, rep: CrlbReport,
                     field: se.StressEnergyField, region: RegionSpec,
                     res: GeneratorResult) -> dict:
    """Time-energy reduction for a uniform lapse perturbation.

    Classical side: the generator integral must equal half the window
    length times the (constant) field energy; the energy route samples
    thin spatial slabs, independent of the 4D quadrature.  Quantum
    side: the amplitude bound pulled back to proper time through
    d tau / d theta = -tau_w / 2 must land on hbar^2 / (4 var H).
    """
    box = region.box
    tau_window = box[0, 1] - box[0, 0]
    slab_box = box.copy()
    energies = []
    for t in np.linspace(box[0, 0], box[0, 1], 5):
        width = 1e-3 * tau_window
        slab_box[0] = (t - width, t + width) if t > box[0, 0] else (t, t + 2 * width)
        # 3D energy at fixed time via a thin normalized slab
        slab = RegionSpec(box=slab_box, resolution=(2,) + region.resolution[1:])

        def t00(pts, tt=t):
            p = pts.copy()
            p[..., 0] = tt
            return field.tensor(p)[..., 0, 0]

        energies.append(integrate(t00, slab)[0] / (slab_box[0, 1] - slab_box[0, 0]))
    energies = np.asarray(energies)
    H_bar = float(np.mean(energies))
    if H_bar == 0.0:
        raise ScenarioError("stress_energy", "proper-time needs a source of nonzero energy")
    H_spread = float(np.ptp(energies))
    kappa = res.P_total / H_bar
    mean_ratio = kappa / (0.5 * tau_window)

    crlb_tau = (0.5 * tau_window) ** 2 * rep.crlb
    var_H = hamiltonian_variance(state)
    rhs = state.hbar ** 2 / (4.0 * var_H)
    return {
        "H_bar": _q(H_bar, "geometric (G=c=1)"),
        "H_spread": _q(H_spread, "geometric (G=c=1)"),
        "tau_window": _q(tau_window, "length"),
        "kappa": _q(kappa, "length"),
        "kappa_over_half_window": _q(mean_ratio, "dimensionless"),
        "mean_residual": _q(abs(mean_ratio - 1.0), "dimensionless"),
        "var_H": _q(var_H, "hbar^2/length^2"),
        "crlb_proper_time": _q(crlb_tau, "length^2"),
        "time_energy_rhs": _q(rhs, "length^2"),
        "reduction_residual": _q(abs(crlb_tau - rhs) / rhs, "dimensionless"),
    }


def run_simulate(sc: Scenario, seed: Optional[int] = None,
                 resolution_mult: float = 1.0) -> dict:
    """Monte Carlo readout run with CRB comparison embedded."""
    if sc.state is None:
        raise ScenarioError("probe", "simulate needs a probe section")
    report = run_bound(sc, resolution_mult=resolution_mult)
    bound = report["crlb"]
    if bound["C"]["value"] <= 0.0:
        raise ScenarioError("probe", "simulation needs a responding probe (C > 0)")
    params = sc.simulation
    seed = params["seed"] if seed is None else int(seed)
    model = model_from_state(sc.state, a_true=params["a_true"])
    # histogram_fisher bins the samples 64 to +- 6 sigma around the mean;
    # the bin edges must be distinct floats for the noise to show
    sigma = math.sqrt(model.var_x2)
    if not 12.0 * sigma / 64 > 2.0 * math.ulp(abs(model.mean) + 6.0 * sigma):
        raise ScenarioError("simulation.a_true", f"the readout mean C a_true = "
                            f"{model.mean!r} hides its noise sigma = {sigma!r}")
    samples = simulate_readout(model, params["n_samples"], seed)
    run = linear_estimator(samples, model, bound["crlb"]["value"])
    fisher = classical_fisher(model)
    fisher_hist = histogram_fisher(samples, model)
    sat = crb_saturation_check(sc.state)
    report["simulation"] = {
        "n_samples": _q(run.n_samples, "count"),
        "seed": _q(seed, "count"),
        "mean_estimate": _q(run.mean_estimate, "amplitude"),
        "a_true": _q(params["a_true"], "amplitude"),
        "empirical_variance": _q(run.empirical_variance, "amplitude^2"),
        "analytic_variance": _q(run.analytic_variance, "amplitude^2"),
        "crlb": _q(run.crlb, "amplitude^2"),
        "variance_relative_error": _q(run.variance_relative_error, "dimensionless"),
        "sampling_rel_std": _q(run.sampling_rel_std, "dimensionless"),
        "classical_fisher": _q(fisher, "amplitude^-2"),
        "histogram_fisher": _q(fisher_hist, "amplitude^-2"),
        "saturation": {
            "quantum_bound": _q(sat["quantum_bound"], "amplitude^2"),
            "classical_fisher_inverse": _q(sat["classical_fisher_inverse"],
                                           "amplitude^2"),
            "relative_gap": _q(sat["relative_gap"], "dimensionless"),
            "saturated": sat["saturated"],
        },
    }
    return report


# ---------------------------------------------------------------------------
# bundled library
# ---------------------------------------------------------------------------

def bundled_scenario_names() -> list:
    root = importlib.resources.files("metricprobe") / "data" / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_bundled(name: str) -> Scenario:
    root = importlib.resources.files("metricprobe") / "data" / "scenarios"
    path = root / f"{name}.yaml"
    if not path.is_file():
        raise ScenarioError("name", f"no bundled scenario {name!r}; available: "
                            + ", ".join(bundled_scenario_names()))
    return load_scenario(path)


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a filesystem path or a bundled scenario name."""
    return load_scenario(ref) if os.path.exists(ref) else load_bundled(ref)
