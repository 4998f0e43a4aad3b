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
from .generator import (conserved_test_tensor, coordinate_independence_check,
                        integrate_generator, nonconserved_test_tensor, trace_null_residual)
from .probe import (BAND_MODES, GaussianProbeState, crlb_amplitude, effective_constant_C,
                    flat_band_spectrum, gaussian_band_spectrum, hamiltonian_variance,
                    load_spectrum_table, monochromatic_spectrum)
from .quadrature import RegionSpec, face_integral
from .simulate import (SEEDS, crb_saturation_check, histogram_fisher, linear_estimator,
                       model_from_state, classical_fisher, simulate_readout)

_SOURCE = ("family", "stress_energy", "region")
#: sections parse_scenario requires of a section, which is built with them;
#: those of a kind, which it reads, are in the kind table _KINDS
_NEEDS = {"bump": ("family",), "stress_energy": ("family", "region")}
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class _Reader:
    """One mapping of a scenario document at its key path; each getter
    records the key it reads, so check_read can refuse the keys no one took.
    base is the directory that the document's relative file paths name
    files in."""

    def __init__(self, value, path: str = "", base: str = ""):
        if not isinstance(value, dict):
            raise ScenarioError(path or "<root>", "must be a mapping")
        self.data, self.path, self.base, self.read, self.subs = value, path, base, set(), {}

    def key(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.data.get(key, default)

    def need(self, key: str):
        if key not in self.data:
            raise ScenarioError(self.key(key), "missing")
        return self.get(key)

    def num(self, key: str, default=None) -> float:
        if key not in self.data and default is not None:
            return default
        v = self.need(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ScenarioError(self.key(key), f"expected a number, got {v!r}")
        if not math.isfinite(v):
            raise ScenarioError(self.key(key), f"expected a finite number, got {v!r}")
        return float(v)

    def int(self, key: str, default: int) -> int:
        v = self.get(key, default)
        if not _is_int(v):
            raise ScenarioError(self.key(key), f"expected an integer, got {v!r}")
        return v

    def array(self, key: str, shape=None) -> np.ndarray:
        """Finite numbers, of the given shape if one is given."""
        v = self.need(key)
        try:
            arr = np.asarray(v, dtype=float)
            if np.all(np.isfinite(arr)) and shape in (None, arr.shape):
                return arr
        except (TypeError, ValueError):
            pass
        raise ScenarioError(self.key(key), "expected an array of finite numbers"
                            + (f" of shape {shape}" if shape else "") + f", got {v!r}")

    def file(self, key: str) -> str:
        """A file path, joined onto the document's base directory."""
        v = self.need(key)
        if not isinstance(v, str):
            raise ScenarioError(self.key(key), f"expected a file path, got {v!r}")
        return os.path.join(self.base, v)

    def only(self, key: str, value: str) -> None:
        """Accept an optional key whose one allowed value is also its default."""
        if self.get(key, value) != value:
            raise ScenarioError(self.key(key), f"must be {value!r}, got {self.data[key]!r}")

    def sub(self, key: str, optional: bool = False) -> "_Reader":
        """The mapping at key; an optional one may be missing or null."""
        value = self.get(key)
        self.subs[key] = _Reader({} if optional and value is None else value, self.key(key),
                                 self.base)
        return self.subs[key]

    def kwargs(self) -> dict:
        """Every key, each counted as read: keyword arguments passed on whole."""
        self.read.update(self.data)
        return dict(self.data)

    def check_read(self) -> None:
        """Refuse the first key, in document order and at any depth, no getter read."""
        for key in self.data:
            if key not in self.read:
                raise ScenarioError(self.key(key), "unknown key")
            if key in self.subs:
                self.subs[key].check_read()


def load_scenario(path) -> Scenario:
    """The scenario in a YAML file; a file that cannot be read, decoded as
    UTF-8 or parsed as YAML is a ScenarioError at the document root.  A
    relative grid or spectrum-table path in it names a file relative to
    the YAML file's directory; raw keeps the path as written."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ScenarioError("<root>", f"cannot read {str(path)!r}: {exc}") from exc
    return parse_scenario(doc, os.path.dirname(path))


def parse_scenario(doc, base: str = "") -> Scenario:
    """The scenario of a parsed document; a relative grid or spectrum-table
    path in it names a file relative to the directory base."""
    root = _Reader(doc, base=base)
    name = root.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "must be a nonempty string")
    kind = root.get("kind")
    if kind not in KINDS:
        raise ScenarioError("kind", f"must be one of {', '.join(KINDS)}; got {kind!r}")
    present = [key for key in _SECTIONS if root.get(key) is not None]
    for need, keys in [(kind, _KINDS[kind][0])] + [(k, _NEEDS.get(k, ())) for k in present]:
        for key in keys:
            if key not in present:
                raise ScenarioError(key, f"section is required by {need!r}")
    family = build_family(root) if "family" in present else None
    region = build_region(root) if "region" in present else None
    field = build_field(root, family, region) if "stress_energy" in present else None
    state = build_state(root) if "probe" in present else None
    if kind == "proper-time" and hamiltonian_variance(state) == 0.0:
        raise ScenarioError("probe.spectrum", "proper-time needs a probe whose energy "
                            "fluctuates (no active photons)")
    sc = Scenario(name=name, kind=kind, description=str(root.get("description", "")), raw=doc,
                  family=family, field=field, region=region, state=state,
                  simulation=build_sim_params(root))
    root.check_read()
    return sc


# ---------------------------------------------------------------------------
# build_* functions: each takes the document's reader and reads its section
# ---------------------------------------------------------------------------

def _build_profile(spec: _Reader):
    kind = spec.need("kind")
    if kind == "constant":
        value = spec.num("value", default=1.0)
        return lambda x: np.full(np.asarray(x).shape[:-1], value)
    if kind == "bump":
        return _build_bump(spec)
    raise ScenarioError(spec.key("kind"), f"unknown profile kind {kind!r}")


def _build_bump(spec: _Reader) -> geo.BumpProfile:
    plateau, support = spec.array("plateau"), spec.array("support")
    spec.only("kind_name", "smoothstep")
    order = spec.int("order", default=3)
    with _keyed(spec.path):
        return geo.BumpProfile(plateau=plateau, support=support, order=order)


def build_family(doc: _Reader) -> geo.MetricFamily:
    spec = doc.sub("family")
    name = spec.need("name")
    params_spec = spec.sub("parameters", optional=True)
    params = params_spec.kwargs()
    for key in [k for k in ("theta0", "mu0", "nu0") if k in params]:
        params[key] = params_spec.num(key) if key == "theta0" else params_spec.int(key, 0)
    if not isinstance(name, str) or name not in geo.BUILTIN_FAMILIES:
        raise ScenarioError(spec.key("name"), f"unknown family {name!r}; built-ins: "
                            + ", ".join(sorted(geo.BUILTIN_FAMILIES)))
    if name == "g00_profile_perturbation":
        params["profile"] = _build_profile(params_spec.sub("profile"))
    with _keyed(params_spec.path, (TypeError, ValueError)):
        fam = geo.BUILTIN_FAMILIES[name](**params)
    if doc.get("bump") is not None:
        bump = _build_bump(doc.sub("bump"))
        with _keyed("bump", geo.ChartDomainError):
            fam = geo.localize(fam, bump)
    return fam


def build_field(doc: _Reader, family: geo.MetricFamily,
                region: RegionSpec) -> se.StressEnergyField:
    """The scenario's source over the region, which must lie in the
    family's chart domain; family supplies the chart a grid file must be
    tabulated on and the metric of an orthonormal frame, which must have
    no zero diagonal component on the region."""
    corners = geo.box_grid(region.box, 2)
    with _keyed("region.box", geo.ChartDomainError):
        # integrate_generator's check, made before any quadrature
        family.domain.require(corners)
    spec = doc.sub("stress_energy")
    em_spec, grid_spec = spec.get("em"), spec.get("grid")
    if (em_spec is None) == (grid_spec is None):
        raise ScenarioError(spec.path, "exactly one of 'em' or 'grid' must be given")
    frame = spec.get("frame", "chart")
    if frame not in ("chart", "orthonormal"):
        raise ScenarioError(spec.key("frame"), f"must be 'chart' or 'orthonormal', got {frame!r}")
    fn = (_build_grid(spec.sub("grid"), family, region.box) if grid_spec is not None
          else _build_em(spec.sub("em")))
    if frame == "orthonormal":
        # the built-in charts degenerate only at closed-axis ends: box corners
        g = family.eval(family.theta0, corners)
        zero = np.any(np.diagonal(g, axis1=-2, axis2=-1) == 0.0, axis=-1)
        if np.any(zero):
            raise ScenarioError("region.box", f"the metric has a zero diagonal component at "
                                f"{corners[zero][0].tolist()}: no orthonormal frame there")
        with _keyed(spec.key("frame")):
            fn = se.in_orthonormal_frame(fn, family)
    return se.StressEnergyField(fn)


def _build_grid(spec: _Reader, family: geo.MetricFamily, box: np.ndarray):
    """Interpolant of a grid file on the family's chart that covers the
    region box."""
    path, key = spec.file("path"), spec.key("path")
    with _keyed(key, (OSError, ValueError)):
        grid = se.load_grid(path)
    if grid.chart != family.chart_name:
        raise ScenarioError(key, f"grid is on chart {grid.chart!r}, the family "
                            f"on {family.chart_name!r}")
    ends = np.array([[ax[0], ax[-1]] for ax in grid.axes()])
    if np.any(box[:, 0] < ends[:, 0]) or np.any(box[:, 1] > ends[:, 1]):
        raise ScenarioError("region.box", f"reaches outside the grid {ends.tolist()}")
    return grid.interpolate


def _build_em(spec: _Reader):
    kind = spec.need("kind")
    if kind == "plane-wave":
        return se.em_plane_wave(amplitude=spec.num("amplitude"), omega=spec.num("omega"),
                                phase=spec.num("phase", default=0.0))
    if kind == "uniform":
        return se.em_uniform(spec.array("E", (3,)), spec.array("B", (3,)))
    raise ScenarioError(spec.key("kind"), f"unknown EM configuration {kind!r}")


def build_region(doc: _Reader) -> RegionSpec:
    spec = doc.sub("region")
    box = spec.array("box")
    res = spec.need("resolution")
    if not all(_is_int(n) for n in (res if isinstance(res, list) else [res])):
        raise ScenarioError(spec.key("resolution"),
                            f"expected an integer or a list of integers, got {res!r}")
    spec.only("rule", "trapezoid")
    with _keyed(spec.key("box")):
        geo._checked_box(box, "box")
    with _keyed(spec.key("resolution")):
        return RegionSpec(box=box, resolution=tuple(np.atleast_1d(res)))


def build_state(doc: _Reader) -> GaussianProbeState:
    spec = doc.sub("probe")
    sp = spec.sub("spectrum")
    fam = sp.need("family")
    tau = sp.num("tau")
    cutoff = sp.num("dc_cutoff_mult", default=1.0)
    if fam == "monochromatic":
        make, kwargs = monochromatic_spectrum, dict(
            omega=sp.num("omega"), n_photons=sp.num("n_photons"))
    elif fam == "gaussian-band":
        make, kwargs = gaussian_band_spectrum, dict(
            omega0=sp.num("omega"), fractional_width=sp.num("fractional_width"),
            n_photons=sp.num("n_photons"), n_modes=sp.int("n_modes", default=BAND_MODES))
    elif fam == "flat-band":
        make, kwargs = flat_band_spectrum, dict(
            omega_lo=sp.num("omega_lo"), omega_hi=sp.num("omega_hi"),
            n_photons=sp.num("n_photons"), n_modes=sp.int("n_modes", default=BAND_MODES))
    elif fam == "table":
        make, kwargs = load_spectrum_table, dict(path=sp.file("path"))
    else:
        raise ScenarioError(sp.key("family"), f"unknown spectrum family {fam!r}")
    with _keyed(sp.key("path"), OSError), _keyed(sp.path):
        spectrum = make(tau=tau, dc_cutoff_mult=cutoff, **kwargs)
    if not np.any(spectrum.active):
        raise ScenarioError(sp.path, "no modes survive the DC cutoff "
                            f"omega >= {spectrum.omega_min:g}")
    squeeze_r = spec.num("squeeze_r", default=0.0)
    hbar = spec.num("hbar", default=1.0)
    # squeeze_r alone sets the state; the reference name must agree with it
    reference = spec.get("reference", "vacuum-coherent")
    if reference not in ("vacuum-coherent", "squeezed-vacuum"):
        raise ScenarioError(spec.key("reference"), "must be 'vacuum-coherent' or "
                            f"'squeezed-vacuum', got {reference!r}")
    if reference == "vacuum-coherent" and squeeze_r != 0.0:
        raise ScenarioError(spec.key("reference"), "vacuum-coherent is the unsqueezed "
                            f"state, but squeeze_r = {squeeze_r!r}")
    if reference == "squeezed-vacuum" and squeeze_r == 0.0:
        spec.check_read()  # a misspelt squeeze_r is the likelier fault
        raise ScenarioError(spec.key("reference"), "squeezed-vacuum needs squeeze_r > 0, "
                            "but squeeze_r = 0.0 is the coherent state")
    # the bound and the readout take e^(2 r) and square hbar and C
    if squeeze_r > _MAX_SQUEEZE_R:
        raise ScenarioError(spec.key("squeeze_r"), f"e^(2 r) overflows above "
                            f"{_MAX_SQUEEZE_R!r}, got {squeeze_r!r}")
    if not math.isfinite(hbar * hbar):
        raise ScenarioError(spec.key("hbar"), f"hbar^2 overflows, got {hbar!r}")
    with np.errstate(over="ignore"):
        C = effective_constant_C(spectrum, hbar)
    if not math.isfinite(C * C):
        raise ScenarioError(sp.path, f"the mode sum C = {C!r} squared overflows")
    with _keyed(spec.path):
        return GaussianProbeState(spectrum=spectrum, squeeze_r=squeeze_r, hbar=hbar)


def build_sim_params(doc: _Reader) -> dict:
    spec = doc.sub("simulation", optional=True)
    n = spec.get("n_samples", 10 ** 6)
    if not _is_int(n) or n < 2:
        # the estimator's sample variance needs two samples
        raise ScenarioError(spec.key("n_samples"), f"must be an integer >= 2, got {n!r}")
    seed = spec.int("seed", default=0)
    if seed not in SEEDS:
        raise ScenarioError(spec.key("seed"), f"must lie in [0, 2^128), got {seed!r}")
    return {"n_samples": n, "seed": seed, "a_true": spec.num("a_true", default=0.0)}


# ---------------------------------------------------------------------------
# runners (plain dict reports; serialization lives in reports.py)
# ---------------------------------------------------------------------------

_GEOM = "geometric (G=c=1)"
#: units of each report block's entries, in report order; None copies an
#: entry (a bool, warnings, flags or a nested block) as is
_GENERATOR = {"P_total": _GEOM, "P_plateau": _GEOM, "P_shell": _GEOM, "error_estimate": _GEOM,
              "warnings": None}
_TRACE_NULL = {"residual": "dimensionless", "traceless_coupling": None}
_CRLB = {"C": "hbar/amplitude^2", "var_X1": "hbar^2/amplitude^2",
         "var_X2": "hbar^2/amplitude^2", "crlb": "amplitude^2", "shot_noise": "amplitude^2",
         "remainder_ratio": "dimensionless", "n_dc_excluded": "count",
         "commutator_residual": "dimensionless", "counter_rotating_scale": "dimensionless",
         "flags": None}
_COORDINATE_CHECK = {"P_schwarzschild": _GEOM, "P_isotropic": _GEOM, "difference": _GEOM,
                     "angular_integral": _GEOM, "flux_minus_divergence": _GEOM,
                     "error_estimate": _GEOM, "divergence_residual": "dimensionless",
                     "conserved": None, "consistent": None}
_UNRUH = {"mean_int_T": _GEOM, "var_int_T": "hbar^2", "product": "hbar^2", "rhs": "hbar^2",
          "product_residual": "dimensionless"}
_PROPER_TIME = {"H_bar": _GEOM, "H_spread": _GEOM, "tau_window": "length", "kappa": "length",
                "kappa_over_half_window": "dimensionless", "mean_residual": "dimensionless",
                "var_H": "hbar^2/length^2", "crlb_proper_time": "length^2",
                "time_energy_rhs": "length^2", "reduction_residual": "dimensionless"}
_SIMULATION = {"n_samples": "count", "seed": "count", "mean_estimate": "amplitude",
               "a_true": "amplitude", "empirical_variance": "amplitude^2",
               "analytic_variance": "amplitude^2", "crlb": "amplitude^2",
               "variance_relative_error": "dimensionless", "sampling_rel_std": "dimensionless",
               "classical_fisher": "amplitude^-2", "histogram_fisher": "amplitude^-2",
               "saturation": None}
_SATURATION = {"quantum_bound": "amplitude^2", "classical_fisher_inverse": "amplitude^2",
               "relative_gap": "dimensionless", "saturated": None}


def _block(values, units: dict) -> dict:
    """The report block of units' keys, in its order: each entry of
    values as a {value, units} leaf, or as is where its units are None."""
    return {key: values[key] if u is None else {"value": values[key], "units": u}
            for key, u in units.items()}


def _run_generator_crlb(sc: Scenario, region: RegionSpec, report: dict):
    """Generator -> trace-null -> bound chain: adds the generator block,
    then trace_null for a closed conformal family and crlb for a probe or
    a traceless source; returns the generator result and the bound, None
    without a probe."""
    fam, field = sc.family, sc.field
    res = integrate_generator(field, fam, region)
    report["generator"] = _block(vars(res), _GENERATOR)

    if fam.label in ("flrw_closed", "de_sitter"):
        resid = trace_null_residual(field, fam, region)
        report["trace_null"] = _block({"residual": resid,
                                       "traceless_coupling": bool(resid <= TRACE_NULL_TOL)},
                                      _TRACE_NULL)

    rep = None if sc.state is None else crlb_amplitude(sc.state)
    if rep is not None:
        report["crlb"] = _block(vars(rep), _CRLB)
    elif "trace_null" in report:
        # conformally coupled probe: no mean-field information at all
        report["crlb"] = {
            "crlb": {"value": math.inf, "units": _CRLB["crlb"]},
            "flags": ["traceless probe: generator vanishes pointwise; "
                      "the scale parameter is invisible at this order"],
        }
    return res, rep


def _run_coordinate_check(sc: Scenario, region: RegionSpec, report: dict) -> None:
    out = {}
    for label, tensor in (("conserved", conserved_test_tensor()),
                          ("nonconserved", nonconserved_test_tensor())):
        try:
            rep = coordinate_independence_check(tensor, region)
        except geo.ChartDomainError as exc:
            # raised by the region check that precedes any quadrature
            raise ScenarioError("region.box", str(exc)) from exc
        out[label] = _block(vars(rep), _COORDINATE_CHECK)
    # both sources share the region and bump, so they share these warnings
    out["warnings"] = list(rep.warnings)
    report["coordinate_check"] = out


def _run_unruh(sc: Scenario, region: RegionSpec, report: dict) -> None:
    """Product of the component-estimation bound with the variance of
    the windowed component integral; 2 P_total is the mean of that
    integral, and for the bundled null probe the integral itself is
    tau times the field Hamiltonian."""
    res, rep = _run_generator_crlb(sc, region, report)
    state = sc.state
    var_int_T = state.spectrum.tau ** 2 * hamiltonian_variance(state)
    product = rep.crlb * var_int_T
    rhs = state.hbar ** 2
    report["unruh"] = _block({"mean_int_T": 2.0 * res.P_total, "var_int_T": var_int_T,
                              "product": product, "rhs": rhs,
                              "product_residual": abs(product - rhs) / rhs}, _UNRUH)


def _run_proper_time(sc: Scenario, region: RegionSpec, report: dict) -> None:
    """Time-energy reduction for a uniform lapse perturbation.

    Classical side: the generator integral must equal half the window
    length times the (constant) field energy; the energy route takes the
    region's spatial rule at five fixed times, independent of the 4D
    quadrature.  Quantum side: the amplitude bound pulled back to proper
    time through d tau / d theta = -tau_w / 2 must land on
    hbar^2 / (4 var H).
    """
    res, rep = _run_generator_crlb(sc, region, report)
    state, field, box = sc.state, sc.field, region.box
    tau_window = box[0, 1] - box[0, 0]
    energies = np.array([face_integral(lambda pts: field.tensor(pts)[..., 0, 0], region, 0, t)
                         for t in np.linspace(box[0, 0], box[0, 1], 5)])
    H_bar = float(np.mean(energies))
    if H_bar == 0.0:
        raise ScenarioError("stress_energy", "proper-time needs a source of nonzero energy")
    kappa = res.P_total / H_bar
    mean_ratio = kappa / (0.5 * tau_window)

    crlb_tau = (0.5 * tau_window) ** 2 * rep.crlb
    var_H = hamiltonian_variance(state)
    rhs = state.hbar ** 2 / (4.0 * var_H)
    report["proper_time"] = _block({
        "H_bar": H_bar, "H_spread": float(np.ptp(energies)), "tau_window": tau_window,
        "kappa": kappa, "kappa_over_half_window": mean_ratio,
        "mean_residual": abs(mean_ratio - 1.0), "var_H": var_H, "crlb_proper_time": crlb_tau,
        "time_energy_rhs": rhs, "reduction_residual": abs(crlb_tau - rhs) / rhs}, _PROPER_TIME)


#: each kind: the sections parse_scenario requires of it, and the runner
#: that adds its blocks to run_bound's report
_KINDS = {"generator-crlb": (_SOURCE, _run_generator_crlb),
          "coordinate-check": (("region",), _run_coordinate_check),
          "unruh-product": (_SOURCE + ("probe",), _run_unruh),
          "proper-time": (_SOURCE + ("probe",), _run_proper_time)}
KINDS = tuple(_KINDS)


def run_bound(sc: Scenario, resolution_mult: float = 1.0) -> dict:
    """Metric -> stress-energy -> generator -> probe chain for one
    scenario; returns the report body."""
    from . import __version__
    report = {"scenario": dict(sc.raw), "name": sc.name, "kind": sc.kind,
              "version": __version__}
    # a factor that is not positive and finite, or gives over MAX_NODES nodes
    with _keyed("--resolution"):
        region = sc.region.scaled(resolution_mult)
    _KINDS[sc.kind][1](sc, region, report)
    return report


def run_simulate(sc: Scenario, seed: Optional[int] = None,
                 resolution_mult: float = 1.0) -> dict:
    """Monte Carlo readout run with CRB comparison embedded."""
    if sc.state is None:
        raise ScenarioError("probe", "simulate needs a probe section")
    if sc.kind == "coordinate-check":
        raise ScenarioError("kind", "coordinate-check has no bound for simulate to read out")
    # the refusals that read only the built state come before the quadrature
    if effective_constant_C(sc.state.spectrum, sc.state.hbar) <= 0.0:
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
    report = run_bound(sc, resolution_mult=resolution_mult)
    samples = simulate_readout(model, params["n_samples"], seed)
    run = linear_estimator(samples, model, report["crlb"]["crlb"]["value"])
    report["simulation"] = _block({
        **vars(run), "seed": seed, "a_true": params["a_true"],
        "classical_fisher": classical_fisher(model),
        "histogram_fisher": histogram_fisher(samples, model),
        "saturation": _block(crb_saturation_check(sc.state), _SATURATION)}, _SIMULATION)
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
    """The scenario file ref, when it exists or looks like a path (it holds a
    path separator or ends in .yaml or .yml), else the bundled scenario ref."""
    looks_like_path = os.path.dirname(ref) != "" or ref.endswith((".yaml", ".yml"))
    return load_scenario(ref) if looks_like_path or os.path.exists(ref) else load_bundled(ref)
