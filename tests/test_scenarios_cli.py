import copy
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricprobe import generator, quadrature, scenarios, stress_energy, verify
from metricprobe.cli import main
from metricprobe.geometry import MAX_SMOOTHSTEP_ORDER
from metricprobe.probe import flat_band_spectrum, save_spectrum_table
from metricprobe.reports import dumps_report, render_summary, write_report
from metricprobe.quadrature import MAX_NODES
from metricprobe.stress_energy import TensorGrid, in_orthonormal_frame, load_grid, save_grid
from metricprobe.scenarios import (KINDS, Scenario, ScenarioError,
                                   bundled_scenario_names, load_bundled,
                                   parse_scenario, resolve_scenario, run_bound,
                                   run_simulate)

EXPECTED_SCENARIOS = [
    "desitter-em-probe",
    "flrw-em-probe",
    "gw-broadband-coherent",
    "gw-monochromatic-coherent",
    "gw-squeezed-r1",
    "proper-time-reduction",
    "schwarzschild-coordinate-check",
    "unruh-component",
]

MONO_CRLB = 2.5330295910584447e-08
MONO_P_TOTAL = 0.0012433979929054322  # V4 / 16 pi on the alias-free grid


def _tiny_doc():
    return {
        "name": "tiny",
        "kind": "generator-crlb",
        "description": "minimal in-memory scenario for tests",
        "family": {"name": "gw_plane_wave", "parameters": {"theta0": 0.0}},
        "stress_energy": {"em": {"kind": "plane-wave", "amplitude": 1.0,
                                 "omega": 62.83185307179586}},
        "region": {"box": [[0.0, 1.0], [0.0, 1.0], [0.0, 0.25], [0.0, 0.25]],
                   "resolution": [5, 5, 3, 3]},
        "probe": {"spectrum": {"family": "monochromatic",
                               "omega": 62.83185307179586,
                               "n_photons": 1.0e4, "tau": 1.0}},
        "simulation": {"n_samples": 20000, "seed": 7, "a_true": 3.0e-4},
    }


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_rejects_non_mapping():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario([1, 2, 3])
    assert exc.value.key == "<root>"


def test_parse_requires_name_and_kind():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"kind": "generator-crlb"})
    assert exc.value.key == "name"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": "x", "kind": "frobnicate"})
    assert exc.value.key == "kind"
    assert "generator-crlb" in str(exc.value)


def test_parse_rejects_unknown_section():
    doc = _tiny_doc()
    doc["extras"] = {}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "extras"


def test_parse_accepts_all_kinds():
    # the tiny document has every section; the audit reads only region
    for kind in KINDS:
        sc = parse_scenario(dict(_tiny_doc(), kind=kind))
        assert isinstance(sc, Scenario)
        assert sc.kind == kind
        assert sc.state is not None
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": "x", "kind": "coordinate-check"})
    assert exc.value.key == "region"
    sc = parse_scenario({"name": "x", "kind": "coordinate-check",
                         "region": _tiny_doc()["region"]})
    assert (sc.family, sc.field, sc.state) == (None,) * 3
    assert sc.simulation == {"n_samples": 10 ** 6, "seed": 0, "a_true": 0.0}


def test_missing_section_names_the_key():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario({"name": "x", "kind": "generator-crlb"})
    assert exc.value.key == "family"
    # a source and a bump are built with the family, whatever the kind;
    # the audit itself reads only its region
    for section in ("stress_energy", "bump"):
        doc = {"name": "x", "kind": "coordinate-check", section: {}}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.key == "region"
        assert "required by 'coordinate-check'" in str(exc.value)
        doc["region"] = _tiny_doc()["region"]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert exc.value.key == "family"
        assert f"required by '{section}'" in str(exc.value)


# the sections each kind requires, as README's "Scenario files" states them
KIND_SECTIONS = {
    "generator-crlb": ("family", "stress_energy", "region"),
    "coordinate-check": ("region",),
    "unruh-product": ("family", "stress_energy", "region", "probe"),
    "proper-time": ("family", "stress_energy", "region", "probe"),
}


@pytest.mark.parametrize("kind,section", [
    (kind, section) for kind, sections in KIND_SECTIONS.items() for section in sections])
def test_each_kind_requires_its_sections(kind, section):
    assert set(KIND_SECTIONS) == set(KINDS)
    doc = dict(_tiny_doc(), kind=kind)
    parse_scenario({key: doc[key] for key in ("name", "kind") + KIND_SECTIONS[kind]})
    del doc[section]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == section
    assert f"required by {kind!r}" in str(exc.value)


def test_section_must_be_mapping():
    doc = _tiny_doc()
    doc["region"] = 5
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "region"


def test_unknown_family_lists_builtins():
    doc = _tiny_doc()
    doc["family"]["name"] = "kerr"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "family.name"
    assert "gw_plane_wave" in str(exc.value)


def test_bad_family_parameters():
    doc = _tiny_doc()
    doc["family"]["parameters"] = {"theta0": 0.0, "bogus": 1}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "family.parameters"


def test_field_requires_exactly_one_source():
    doc = _tiny_doc()
    del doc["stress_energy"]["em"]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "stress_energy"


def test_field_frame_validation():
    doc = _tiny_doc()
    doc["stress_energy"]["frame"] = "comoving"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "stress_energy.frame"


def test_grid_field_honours_the_orthonormal_frame(tmp_path):
    # frame applies to a grid source as to an EM one
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, 3, 3, 3, 4, 4))
    path = tmp_path / "grid.txt"
    save_grid(path, TensorGrid(values=values + np.swapaxes(values, -1, -2),
                               origin=[1.0, 0.5, 0.8, -0.5], spacing=np.full(4, 0.5),
                               chart="conformal-flrw"))
    doc = _tiny_doc()
    doc["family"] = {"name": "flrw_closed", "parameters": {"theta0": 2.0}}
    doc["region"]["box"] = [[1.0, 2.0], [0.5, 1.5], [0.8, 1.8], [-0.5, 0.5]]
    doc["stress_energy"] = {"frame": "orthonormal", "grid": {"path": str(path)}}
    sc = parse_scenario(doc)
    fam, field = sc.family, sc.field
    grid = load_grid(path)
    pts = rng.uniform([1.0, 0.5, 0.8, -0.5], [2.0, 1.5, 1.8, 0.5], size=(20, 4))
    got = field.tensor(pts)
    assert np.array_equal(got, in_orthonormal_frame(grid.interpolate, fam)(pts))
    assert not np.array_equal(got, grid.interpolate(pts))


def test_field_unknown_em_kind():
    doc = _tiny_doc()
    doc["stress_energy"]["em"]["kind"] = "dipole"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "stress_energy.em.kind"


def test_probe_rejects_string_numbers():
    # YAML 1.1 parses '1.0e4' (no signed exponent) as a string; the
    # builder must flag it instead of crashing downstream
    doc = _tiny_doc()
    doc["probe"]["spectrum"]["n_photons"] = "1.0e4"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "probe.spectrum.n_photons"


def test_probe_unknown_spectrum_family():
    doc = _tiny_doc()
    doc["probe"]["spectrum"]["family"] = "comb"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "probe.spectrum.family"


def test_probe_reference_mismatch_is_scenario_error():
    doc = _tiny_doc()
    doc["probe"]["squeeze_r"] = 1.0  # vacuum-coherent reference
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "probe.reference"


def test_squeezed_vacuum_reference_needs_squeezing():
    # squeeze_r alone sets the state, and r = 0 is the coherent state
    doc = _tiny_doc()
    doc["probe"]["reference"] = "squeezed-vacuum"
    with pytest.raises(ScenarioError, match="needs squeeze_r > 0") as exc:
        parse_scenario(doc)
    assert exc.value.key == "probe.reference"
    doc["probe"]["squeeze_r"] = 0.5
    assert parse_scenario(doc).state.squeeze_r == 0.5


def test_sim_params_validation_and_defaults():
    doc = _tiny_doc()
    doc["simulation"]["n_samples"] = True
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "simulation.n_samples"
    doc["simulation"] = {"n_samples": 0}
    with pytest.raises(ScenarioError):
        parse_scenario(doc)
    doc["simulation"] = {"seed": True}
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.key == "simulation.seed"
    del doc["simulation"]
    params = parse_scenario(doc).simulation
    assert params == {"n_samples": 10 ** 6, "seed": 0, "a_true": 0.0}


def test_resolution_multiplier_scales_region():
    region = load_bundled("gw-monochromatic-coherent").region
    assert tuple(region.resolution) == (17, 17, 9, 9)
    assert tuple(region.scaled(2.0).resolution) == (33, 33, 17, 17)
    assert region.scaled(1.0) is region


def test_run_simulate_builds_each_section_once_at_parse(monkeypatch):
    names = ("build_family", "build_field", "build_region", "build_state",
             "build_sim_params")
    calls = []
    for name in names:
        def spy(*args, _real=getattr(scenarios, name), _name=name):
            calls.append((_name, sys._getframe(1).f_code.co_name))
            return _real(*args)
        monkeypatch.setattr(scenarios, name, spy)
    run_simulate(parse_scenario(_tiny_doc()))
    assert sorted(calls) == [(name, "parse_scenario") for name in sorted(names)]


# ---------------------------------------------------------------------------
# bundled library
# ---------------------------------------------------------------------------

def test_bundled_names():
    assert bundled_scenario_names() == EXPECTED_SCENARIOS


def test_all_bundled_parse_with_descriptions():
    for name in EXPECTED_SCENARIOS:
        sc = load_bundled(name)
        assert sc.name == name
        assert sc.kind in KINDS
        assert sc.description.strip()


def test_load_bundled_unknown_name():
    with pytest.raises(ScenarioError) as exc:
        load_bundled("no-such-thing")
    assert "gw-monochromatic-coherent" in str(exc.value)


def test_resolve_scenario_path_and_name(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(_tiny_doc()))
    sc = resolve_scenario(str(path))
    assert sc.name == "tiny"
    assert resolve_scenario("gw-squeezed-r1").name == "gw-squeezed-r1"


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_bound_report_frozen_values_and_determinism():
    sc = load_bundled("gw-monochromatic-coherent")
    rep1 = run_bound(sc)
    rep2 = run_bound(sc)
    assert dumps_report(rep1) == dumps_report(rep2)
    assert rep1["generator"]["P_total"]["value"] == pytest.approx(
        MONO_P_TOTAL, rel=1e-13)
    assert rep1["crlb"]["crlb"]["value"] == pytest.approx(MONO_CRLB, rel=1e-13)
    assert rep1["crlb"]["crlb"]["value"] == rep1["crlb"]["shot_noise"]["value"]
    assert rep1["scenario"] == sc.raw


def test_bound_squeezed_gain_over_shot_noise():
    rep = run_bound(load_bundled("gw-squeezed-r1"))
    crlb = rep["crlb"]["crlb"]["value"]
    shot = rep["crlb"]["shot_noise"]["value"]
    assert math.isclose(crlb, shot * math.exp(-2.0), rel_tol=1e-12)


def test_bound_traceless_scenarios():
    for name in ("flrw-em-probe", "desitter-em-probe"):
        rep = run_bound(load_bundled(name))
        assert rep["trace_null"]["residual"]["value"] == 0.0
        assert rep["trace_null"]["traceless_coupling"] is True
        assert rep["crlb"]["crlb"]["value"] == math.inf
        assert any("invisible" in f for f in rep["crlb"]["flags"])


def test_bound_unruh_product():
    rep = run_bound(load_bundled("unruh-component"))
    block = rep["unruh"]
    assert block["product"]["value"] == block["rhs"]["value"] == 1.0
    assert block["product_residual"]["value"] == 0.0
    assert block["mean_int_T"]["value"] == pytest.approx(
        2.0 * rep["generator"]["P_total"]["value"], rel=1e-15)


def test_bound_proper_time_reduction():
    rep = run_bound(load_bundled("proper-time-reduction"))
    block = rep["proper_time"]
    assert block["mean_residual"]["value"] <= 1e-12
    assert block["reduction_residual"]["value"] <= 1e-12
    assert block["kappa"]["value"] == pytest.approx(0.5, rel=1e-12)
    assert block["H_spread"]["value"] <= 1e-12 * block["H_bar"]["value"]


def test_bound_smoke_all_non_coordinate_scenarios():
    for name in EXPECTED_SCENARIOS:
        if name == "schwarzschild-coordinate-check":
            continue
        rep = run_bound(load_bundled(name))
        assert rep["name"] == name
        assert "generator" in rep


def test_coordinate_check_scenario_structure():
    # shrunk resolution: the full-resolution run belongs to the
    # acceptance suite
    rep = run_bound(load_bundled("schwarzschild-coordinate-check"),
                    resolution_mult=0.25)
    assert rep["coordinate_check"]["conserved"]["conserved"] is True
    assert rep["coordinate_check"]["nonconserved"]["conserved"] is False
    diff = rep["coordinate_check"]["conserved"]["difference"]["value"]
    est = rep["coordinate_check"]["conserved"]["error_estimate"]["value"]
    assert abs(diff) <= est
    assert rep["coordinate_check"]["warnings"] == []


def test_coordinate_check_reports_its_generator_warnings():
    # an even node count given in YAML does not halve, and the audit says so
    doc = copy.deepcopy(load_bundled("schwarzschild-coordinate-check").raw)
    doc["region"]["resolution"] = [9, 10, 9, 9]
    warnings = run_bound(parse_scenario(doc))["coordinate_check"]["warnings"]
    assert len(warnings) == 1
    assert "axis 1 has 10 nodes" in warnings[0]
    assert "this axis does not halve" in warnings[0]


def test_simulate_run_seeded(tmp_path):
    sc = parse_scenario(_tiny_doc())
    rep = run_simulate(sc)
    sim = rep["simulation"]
    assert sim["n_samples"]["value"] == 20000
    assert sim["seed"]["value"] == 7
    assert sim["saturation"]["saturated"] is True
    se = math.sqrt(sim["analytic_variance"]["value"] / 20000)
    assert abs(sim["mean_estimate"]["value"] - 3.0e-4) < 5.0 * se
    assert abs(sim["variance_relative_error"]["value"]) \
        < 3.0 * sim["sampling_rel_std"]["value"]
    # deterministic at fixed seed, perturbed by an override
    assert dumps_report(run_simulate(sc)) == dumps_report(rep)
    other = run_simulate(sc, seed=99)
    assert other["simulation"]["seed"]["value"] == 99
    assert other["simulation"]["mean_estimate"]["value"] \
        != sim["mean_estimate"]["value"]


def test_simulate_requires_probe():
    with pytest.raises(ScenarioError) as exc:
        run_simulate(load_bundled("flrw-em-probe"))
    assert exc.value.key == "probe"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class _SeenRegion(Exception):
    pass


def test_plane_wave_bound_runs_det_and_maxwell_once_per_distinct_point(monkeypatch):
    # at theta0 the gw metric is constant and the plane wave reads only t
    # and x, so on the 17 x 17 x 9 x 9 region the y and z axes collapse:
    # det and em_stress_tensor each see at most 1/81 of the nodes
    counts = {"nodes": 0, "det": 0, "em": 0}
    real_integrate, real_det = generator.integrate, np.linalg.det
    real_em = stress_energy.em_stress_tensor

    def points(x, core_ndim):
        return math.prod(np.shape(x)[:np.ndim(x) - core_ndim])

    def integrate(fn, region, support=None):
        def counted(pts):
            counts["nodes"] += points(pts, 1)
            return fn(pts)
        return real_integrate(counted, region, support)

    def det(a):
        counts["det"] += points(a, 2)
        return real_det(a)

    def em(E, B):
        counts["em"] += points(E, 1)
        return real_em(E, B)

    monkeypatch.setattr(generator, "integrate", integrate)
    monkeypatch.setattr(np.linalg, "det", det)
    monkeypatch.setattr(stress_energy, "em_stress_tensor", em)
    sc = load_bundled("gw-monochromatic-coherent")
    assert sc.region.resolution == (17, 17, 9, 9)
    assert run_bound(sc)["generator"]["P_total"]["value"] == pytest.approx(
        MONO_P_TOTAL, rel=1e-13)
    assert counts["nodes"] == 17 * 17 * 9 * 9
    assert 0 < counts["det"] <= counts["nodes"] / 81
    assert 0 < counts["em"] <= counts["nodes"] / 81


def test_proper_time_energies_take_the_face_rule(monkeypatch):
    # one integrate call, the 4D generator at 33 * 33 * 5 * 5 nodes; the
    # five fixed-time energies each take T once on the 33 * 5 * 5 nodes
    # of a face
    counts = {"integrate": 0, "T": 0}
    real_integrate, real_tensor = generator.integrate, stress_energy.StressEnergyField.tensor

    def integrate(*args, **kwargs):
        counts["integrate"] += 1
        return real_integrate(*args, **kwargs)

    def tensor(self, x):
        counts["T"] += math.prod(np.shape(x)[:-1])
        return real_tensor(self, x)

    # any integrate that the runner imports is counted too
    for module in (generator, scenarios):
        monkeypatch.setattr(module, "integrate", integrate, raising=False)
    monkeypatch.setattr(stress_energy.StressEnergyField, "tensor", tensor)
    pt = run_bound(load_bundled("proper-time-reduction"))["proper_time"]
    assert counts == {"integrate": 1, "T": 33 * 33 * 5 * 5 + 5 * 33 * 5 * 5}
    assert counts["T"] == 31_350
    assert pt["mean_residual"]["value"] <= 1e-10


@pytest.mark.parametrize("mult", [1.0, 0.5])
def test_bundled_grids_nest_under_coarsening(monkeypatch, mult):
    # every generator integral of every bundled scenario keeps the nested
    # error estimate; the chart audit's sources share one region, so its
    # first generator integral stands for the rest
    seen = []
    real = generator.integrate_generator

    def spy(T, family, region):
        res = real(T, family, region)
        seen.append(res.warnings)
        if stop:
            raise _SeenRegion
        return res

    monkeypatch.setattr(generator, "integrate_generator", spy)
    monkeypatch.setattr(scenarios, "integrate_generator", spy)
    for name in EXPECTED_SCENARIOS:
        sc = load_bundled(name)
        stop = sc.kind == "coordinate-check"
        if stop:
            with pytest.raises(_SeenRegion):
                run_bound(sc, resolution_mult=mult)
        else:
            run_bound(sc, resolution_mult=mult)
    assert len(seen) == len(EXPECTED_SCENARIOS)
    assert not any("does not halve" in w for ws in seen for w in ws)


def test_report_json_round_trips_exactly(tmp_path):
    rep = run_bound(load_bundled("gw-monochromatic-coherent"))
    text = dumps_report(rep)
    parsed = json.loads(text)
    assert parsed["crlb"]["crlb"]["value"] == rep["crlb"]["crlb"]["value"]
    assert parsed["generator"]["P_total"]["value"] \
        == rep["generator"]["P_total"]["value"]
    path = tmp_path / "rep.json"
    write_report(rep, path)
    assert json.loads(path.read_text()) == parsed


def test_report_serializes_infinity_and_nan():
    text = dumps_report({"a": math.inf, "b": -math.inf, "c": math.nan,
                         "d": None, "e": [True, False], "f": ()})
    parsed = json.loads(text)
    assert parsed["a"] == math.inf
    assert parsed["b"] == -math.inf
    assert math.isnan(parsed["c"])
    assert parsed["d"] is None
    assert parsed["e"] == [True, False]
    assert parsed["f"] == []


@settings(database=None)
@given(st.floats())
@example(-0.0)
@example(0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
def test_report_float_round_trips_bit_exactly(x):
    back = float(json.loads(dumps_report({"x": x}))["x"])
    if math.isnan(x):
        assert math.isnan(back)
    else:
        assert struct.pack("<d", back) == struct.pack("<d", x)


def test_report_rejects_foreign_types():
    with pytest.raises(TypeError):
        dumps_report({"a": {1, 2}})
    with pytest.raises(TypeError):
        dumps_report({"a": np.int64(3)})


def test_report_writer_bytes():
    # the writer's text, not only what parses back from it
    report = {"empty_dict": {}, "empty_list": [], "empty_tuple": (), "neg_zero": -0.0,
              "none": None, "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
              "flag": True, "count": 3, "label": 'a "b"',
              "nested": {"leaf": {"value": 0.1, "units": "s"}, "list": [1, 2.5]}}
    assert dumps_report(report) == """{
  "empty_dict": {},
  "empty_list": [],
  "empty_tuple": [],
  "neg_zero": -0.0,
  "none": null,
  "nan": NaN,
  "inf": Infinity,
  "ninf": -Infinity,
  "flag": true,
  "count": 3,
  "label": "a \\"b\\"",
  "nested": {
    "leaf": {
      "value": 0.10000000000000001,
      "units": "s"
    },
    "list": [
      1,
      2.5
    ]
  }
}
"""
    summary = {"scenario": {"name": "echo"}, "x": 1.5, "neg": -0.0, "empty": [],
               "nothing": {}, "leaf": {"value": 2.0, "units": "s"},
               "n": {"value": 3, "units": "count"}, "flags": ("a", "b"), "ok": False}
    assert render_summary(summary) == ("x      1.5\n"
                                       "neg    -0.0\n"
                                       "leaf   2  [s]\n"
                                       "n      3\n"
                                       "flags  a\n"
                                       "flags  b\n"
                                       "ok     no\n")


def test_render_summary_shape():
    rep = run_bound(load_bundled("flrw-em-probe"))
    text = render_summary(rep)
    assert "scenario." not in text
    assert "trace_null.traceless_coupling" in text
    assert "yes" in text
    assert "Infinity" in text
    # unit tags shown for dimensionful leaves, suppressed for counts
    assert "Infinity  [amplitude^2]" in text
    assert "[dimensionless]" not in text
    assert "geometric (G=c=1)" in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_SCENARIOS:
        assert name in out


def test_cli_bound_writes_report(tmp_path, capsys):
    out_path = tmp_path / "bound.json"
    rc = main(["bound", "--config", "gw-monochromatic-coherent",
               "--out", str(out_path)])
    assert rc == 0
    console = capsys.readouterr().out
    assert "crlb.crlb" in console
    parsed = json.loads(out_path.read_text())
    assert parsed["crlb"]["crlb"]["value"] == pytest.approx(MONO_CRLB, rel=1e-13)


def test_cli_bound_accepts_path_and_resolution(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(_tiny_doc()))
    assert main(["bound", "--config", str(path), "--resolution", "2.0"]) == 0
    assert "generator.P_total" in capsys.readouterr().out


def test_cli_simulate_seed_override(tmp_path, capsys):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(_tiny_doc()))
    out_path = tmp_path / "sim.json"
    rc = main(["simulate", "--config", str(path), "--seed", "99",
               "--out", str(out_path)])
    assert rc == 0
    capsys.readouterr()
    parsed = json.loads(out_path.read_text())
    assert parsed["simulation"]["seed"]["value"] == 99


def test_cli_unknown_scenario_exits_2(capsys):
    assert main(["bound", "--config", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario key 'name': no bundled scenario 'no-such-scenario'; "
                          "available: desitter-em-probe, "), err


# a --config with a path separator or a YAML suffix names a file, never a
# bundled scenario, so a missing one is a file that cannot be read
@pytest.mark.parametrize("config", ["nope/typo.yaml", "typo.yml", "nope/typo"])
def test_cli_missing_config_file_exits_2_naming_the_root(tmp_path, capsys, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    assert main(["bound", "--config", config]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: scenario key '<root>': cannot read '{config}': ")


def test_cli_bad_config_exits_2(tmp_path, capsys):
    doc = _tiny_doc()
    doc["kind"] = "bogus"
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(path)]) == 2
    assert "kind" in capsys.readouterr().err


_BUMP = {"plateau": [[0.3, 0.7], [0.3, 0.7], [0.1, 0.15], [0.1, 0.15]],
         "support": [[0.1, 0.9], [0.1, 0.9], [0.05, 0.2], [0.05, 0.2]]}
_FLAT_BAND = {"family": "flat-band", "omega_lo": 60.0, "omega_hi": 65.0,
              "n_photons": 1.0e4, "tau": 1.0}
_GAUSSIAN_BAND = {"family": "gaussian-band", "omega": 60.0, "fractional_width": 0.1,
                  "n_photons": 1.0e4, "tau": 1.0}


# section is a dotted path into the tiny scenario, "" for its root
@pytest.mark.parametrize("section,key,value,path", [
    ("stress_energy.em", "omega", math.inf, "stress_energy.em.omega"),
    ("stress_energy.em", "amplitude", math.nan, "stress_energy.em.amplitude"),
    ("probe.spectrum", "omega", math.nan, "probe.spectrum.omega"),
    ("probe.spectrum", "tau", -1.0, "probe.spectrum"),
    # a negative multiplier would put the cutoff below omega = 0: no cutoff
    ("probe.spectrum", "dc_cutoff_mult", -5.0, "probe.spectrum"),
    # sections that are not mappings
    ("family", "parameters", [1, 2], "family.parameters"),
    ("", "bump", "oops", "bump"),
    ("stress_energy", "em", [1], "stress_energy.em"),
    ("region", "box", "x", "region.box"),
    ("region", "box", [[0.0, math.inf]] * 4, "region.box"),
    # every mode under the DC cutoff 2 pi / tau
    ("probe", "spectrum", {"family": "flat-band", "omega_lo": 1.0, "omega_hi": 2.0,
                           "n_photons": 10.0, "tau": 1.0, "n_modes": 2},
     "probe.spectrum"),
    # integer fields given non-integers or bools
    ("probe", "spectrum", dict(_FLAT_BAND, n_modes=2.5), "probe.spectrum.n_modes"),
    ("region", "resolution", [5.5, 5, 3, 3], "region.resolution"),
    ("", "bump", dict(_BUMP, order=2.5), "bump.order"),
    ("", "bump", dict(_BUMP, order=True), "bump.order"),
    # a bad probe number is named once, not inside a 'probe' error
    ("probe", "squeeze_r", "1", "probe.squeeze_r"),
    # the one quadrature rule and the one bump shape
    ("region", "rule", "gauss-legendre", "region.rule"),
    ("region", "rule", "simpson", "region.rule"),
    ("", "bump", dict(_BUMP, kind_name="mollifier"), "bump.kind_name"),
    # non-finite boxes, which RegionSpec and BumpProfile reject too
    ("region", "box", [[0.0, math.nan]] * 4, "region.box"),
    ("", "bump", dict(_BUMP, plateau=[[0.3, math.nan]] + _BUMP["plateau"][1:]), "bump.plateau"),
    # family parameters: theta0 is a finite number, mu0/nu0 integers,
    # and a value the family constructor refuses names the parameters
    ("family", "parameters", {"theta0": "abc"}, "family.parameters.theta0"),
    ("family", "parameters", {"theta0": math.nan}, "family.parameters.theta0"),
    ("family", "parameters", {"theta0": True}, "family.parameters.theta0"),
    ("", "family", {"name": "flrw_closed", "parameters": {"theta0": -1.0}},
     "family.parameters"),
    ("", "family", {"name": "minkowski_component", "parameters": {"mu0": 1.5, "nu0": 1}},
     "family.parameters.mu0"),
    # uniform field vectors: three finite numbers each
    ("stress_energy", "em", {"kind": "uniform", "E": [math.inf, 0.0, 0.0], "B": [0.0] * 3},
     "stress_energy.em.E"),
    ("stress_energy", "em", {"kind": "uniform", "E": [0.0] * 3, "B": [math.nan, 0.0, 0.0]},
     "stress_energy.em.B"),
    ("stress_energy", "em", {"kind": "uniform", "E": [1.0, 2.0], "B": [0.0] * 3},
     "stress_energy.em.E"),
    ("stress_energy", "em", {"kind": "uniform", "E": ["a", 0.0, 0.0], "B": [0.0] * 3},
     "stress_energy.em.E"),
    # numpy would read a list of strings as the table's lines
    ("probe", "spectrum", {"family": "table", "path": [1, 2], "tau": 1.0},
     "probe.spectrum.path"),
    # band spectra: no modes to share the photons, a mirrored band, a band along -x
    ("probe", "spectrum", dict(_FLAT_BAND, n_modes=0), "probe.spectrum"),
    ("probe", "spectrum", dict(_GAUSSIAN_BAND, fractional_width=-0.1), "probe.spectrum"),
    ("probe", "spectrum", dict(_GAUSSIAN_BAND, omega=-60.0), "probe.spectrum"),
    # names that are not one of the allowed strings
    ("family", "name", {"a": 1}, "family.name"),
    ("probe", "reference", "thermal", "probe.reference"),
    # seeds outside Philox's key range [0, 2^128); bound checks them too
    ("simulation", "seed", -1, "simulation.seed"),
    ("simulation", "seed", 2 ** 128, "simulation.seed"),
])
def test_cli_bad_number_exits_2_naming_the_key(tmp_path, capsys, section, key, value, path):
    doc = _tiny_doc()
    node = doc
    for part in filter(None, section.split(".")):
        node = node[part]
    node[key] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(config)]) == 2
    assert f"error: scenario key '{path}':" in capsys.readouterr().err


@pytest.mark.parametrize("order", [0, MAX_SMOOTHSTEP_ORDER + 1, 20, 600])
@pytest.mark.parametrize("where", ["bump", "family.parameters.profile"])
def test_cli_smoothstep_order_outside_the_bound_exits_2(tmp_path, capsys, monkeypatch,
                                                        where, order):
    # above the bound the smoothstep leaves [0, 1]; at 600 it overflowed
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    doc = _tiny_doc()
    if where == "bump":
        doc["bump"] = dict(_BUMP, order=order)
    else:
        doc["family"] = {"name": "g00_profile_perturbation", "parameters": {
            "theta0": 0.0, "profile": dict(_BUMP, kind="bump", order=order)}}
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario key '{where}':"), err
    assert f"from 1 to {MAX_SMOOTHSTEP_ORDER} " in err and f"got {order}" in err, err


def _bundled_doc(name):
    return copy.deepcopy(load_bundled(name).raw)


# keys no reader takes: an optional key renamed, whose default would
# replace the value given, a misspelling beside a required key, and a key
# of another branch (a band's width on a monochromatic spectrum)
@pytest.mark.parametrize("name,section,key,renamed", [
    ("gw-squeezed-r1", "probe", "squeez_r", "squeeze_r"),
    ("gw-monochromatic-coherent", "simulation", "a_ture", "a_true"),
    ("gw-monochromatic-coherent", "region", "reslution", None),
    ("gw-monochromatic-coherent", "stress_energy.em", "amplitdue", None),
    ("gw-monochromatic-coherent", "family", "nme", None),
    ("gw-monochromatic-coherent", "probe.spectrum", "omgea", None),
    ("gw-monochromatic-coherent", "probe.spectrum", "fractional_width", None),
])
def test_cli_unknown_key_exits_2_naming_its_path(tmp_path, capsys, monkeypatch, name,
                                                 section, key, renamed):
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    doc = _bundled_doc(name)
    node = doc
    for part in section.split("."):
        node = node[part]
    node[key] = node.pop(renamed) if renamed else 0.1
    config = tmp_path / "typo.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: scenario key '{section}.{key}': unknown key\n"


def _grid_doc(tmp_path, **grid):
    # the tiny scenario's source read from a grid on the family's chart
    # that just covers its region
    doc = _tiny_doc()
    path = tmp_path / "grid.txt"
    save_grid(path, TensorGrid(values=np.zeros((3, 3, 2, 2, 4, 4)), origin=np.zeros(4),
                               spacing=[0.5, 0.5, 0.25, 0.25], **grid))
    doc["stress_energy"] = {"grid": {"path": str(path)}}
    return doc


def _grid_without_chart_header(tmp_path):
    doc = _grid_doc(tmp_path)
    path = tmp_path / "grid.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("# chart:")))
    return doc


def _grid_on_another_chart(tmp_path):
    return _grid_doc(tmp_path, chart="schwarzschild")


def _region_beyond_the_grid(tmp_path):
    doc = _grid_doc(tmp_path)
    doc["region"]["box"][0][1] = 1.5
    return doc


def _orthonormal_frame_of_a_non_diagonal_metric(tmp_path):
    doc = _tiny_doc()
    doc["family"] = {"name": "minkowski_component",
                     "parameters": {"mu0": 0, "nu0": 1, "theta0": 0.1}}
    doc["stress_energy"]["frame"] = "orthonormal"
    return doc


def _region_before_the_big_bang(tmp_path):
    doc = _bundled_doc("flrw-em-probe")
    doc["region"]["box"][0][0] = -1.0
    return doc


def _bump_before_the_big_bang(tmp_path):
    doc = _bundled_doc("flrw-em-probe")
    doc["bump"] = {"plateau": [[1.2, 2.3], [0.7, 1.3], [1.0, 2.0], [-0.3, 0.3]],
                   "support": [[-0.5, 2.5], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]}
    return doc


def _audit_region_through_the_centre(tmp_path):
    doc = _bundled_doc("schwarzschild-coordinate-check")
    doc["region"]["box"][1][0] = -1.0
    return doc


def _audit_without_a_region(tmp_path):
    doc = _bundled_doc("schwarzschild-coordinate-check")
    del doc["region"]
    return doc


def _orthonormal_frame_on_the_chart_pole(tmp_path):
    # chi = 0 lies in the closed chart domain, but there g_22 = g_33 = 0
    doc = _bundled_doc("desitter-em-probe")
    doc["region"]["box"][1] = [0.0, 1.5]
    return doc


def _unsqueezed_squeezed_vacuum(tmp_path):
    doc = _bundled_doc("gw-squeezed-r1")
    doc["probe"]["squeeze_r"] = 0.0
    return doc


def _hbar_squared_overflows(tmp_path):
    doc = _tiny_doc()
    doc["probe"]["hbar"] = 1e300
    return doc


def _squeezing_beyond_the_floats(tmp_path):
    doc = _bundled_doc("gw-squeezed-r1")
    doc["probe"]["squeeze_r"] = 355.0
    return doc


def _unknown_spectrum_family(tmp_path):
    doc = _tiny_doc()
    doc["probe"]["spectrum"]["family"] = "comb"
    return doc


def _unruh_without_a_probe(tmp_path):
    doc = _bundled_doc("unruh-component")
    del doc["probe"]
    return doc


def _one_sample(tmp_path):
    doc = _tiny_doc()
    doc["simulation"]["n_samples"] = 1
    return doc


def _negative_seed(tmp_path):
    doc = _tiny_doc()
    doc["simulation"]["seed"] = -1
    return doc


def _zero_photons(tmp_path):
    doc = _tiny_doc()
    doc["probe"]["spectrum"]["n_photons"] = 0.0
    return doc


def _mean_hiding_the_noise(tmp_path):
    doc = _tiny_doc()
    doc["simulation"]["a_true"] = 1e300
    return doc


def _coordinate_check(tmp_path):
    return _bundled_doc("schwarzschild-coordinate-check")


def _coordinate_check_with_a_probe(tmp_path):
    doc = _bundled_doc("schwarzschild-coordinate-check")
    doc["probe"] = _bundled_doc("gw-monochromatic-coherent")["probe"]
    return doc


def _missing_spectrum_table(tmp_path):
    doc = _tiny_doc()
    doc["probe"]["spectrum"] = {"family": "table", "path": str(tmp_path / "none.txt"),
                                "tau": 1.0}
    return doc


def _region_above_the_node_ceiling(tmp_path):
    doc = _tiny_doc()
    doc["region"]["resolution"] = [1001, 1001, 101, 101]
    return doc


@pytest.mark.parametrize("command,make_doc,path", [
    ("bound", _grid_without_chart_header, "stress_energy.grid.path"),
    ("bound", _grid_on_another_chart, "stress_energy.grid.path"),
    ("bound", _region_beyond_the_grid, "region.box"),
    ("bound", _orthonormal_frame_of_a_non_diagonal_metric, "stress_energy.frame"),
    ("bound", _region_before_the_big_bang, "region.box"),
    ("bound", _bump_before_the_big_bang, "bump"),
    ("bound", _audit_region_through_the_centre, "region.box"),
    ("bound", _audit_without_a_region, "region"),
    ("bound", _orthonormal_frame_on_the_chart_pole, "region.box"),
    ("bound", _unsqueezed_squeezed_vacuum, "probe.reference"),
    ("bound", _hbar_squared_overflows, "probe.hbar"),
    ("bound", _squeezing_beyond_the_floats, "probe.squeeze_r"),
    ("bound", _unknown_spectrum_family, "probe.spectrum.family"),
    ("bound", _unruh_without_a_probe, "probe"),
    ("bound", _one_sample, "simulation.n_samples"),
    ("bound", _negative_seed, "simulation.seed"),
    ("bound", _missing_spectrum_table, "probe.spectrum.path"),
    ("bound", _region_above_the_node_ceiling, "region.resolution"),
    # the audit has no probe to read out
    ("simulate", _coordinate_check, "probe"),
    # nor, given one, a bound to read it out against
    ("simulate", _coordinate_check_with_a_probe, "kind"),
    # a probe that does not respond (C = 0) and a readout mean that hides
    # its noise are refused from the built state alone
    ("simulate", _zero_photons, "probe"),
    ("simulate", _mean_hiding_the_noise, "simulation.a_true"),
])
def test_cli_exits_2_before_any_quadrature(tmp_path, capsys, monkeypatch, command,
                                           make_doc, path):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the scenario reached the quadrature")

    monkeypatch.setattr(generator, "integrate", no_quadrature)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(make_doc(tmp_path)))
    assert main([command, "--config", str(config)]) == 2
    assert f"error: scenario key '{path}':" in capsys.readouterr().err


def _first_row_field_set(path, column, value):
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[row].split()
    fields[column] = value
    lines[row] = " ".join(fields) + "\n"
    path.write_text("".join(lines))


def _grid_with_t00(value):
    def make(tmp_path):
        doc = _grid_doc(tmp_path)
        # the first node's T^00, after its 4 coordinates
        _first_row_field_set(tmp_path / "grid.txt", 4, value)
        return doc
    return make


def _table_with_kx(value):
    def make(tmp_path):
        path = tmp_path / "table.txt"
        save_spectrum_table(path, flat_band_spectrum(60.0, 65.0, n_photons=1.0e4, tau=1.0,
                                                     n_modes=5))
        _first_row_field_set(path, 0, value)
        doc = _tiny_doc()
        doc["probe"]["spectrum"] = {"family": "table", "path": str(path), "tau": 1.0}
        return doc
    return make


# non-finite numbers in a data file: an inf grid component ran to a NaN
# bound, a NaN one was refused as asymmetric, a NaN kx dropped its mode as
# a DC one and an inf kx overflowed the mode sum
@pytest.mark.parametrize("make_doc,path", [
    (_grid_with_t00("inf"), "stress_energy.grid.path"),
    (_grid_with_t00("nan"), "stress_energy.grid.path"),
    (_table_with_kx("nan"), "probe.spectrum"),
    (_table_with_kx("inf"), "probe.spectrum"),
], ids=["grid-inf", "grid-nan", "table-nan-kx", "table-inf-kx"])
def test_cli_non_finite_data_file_exits_2(tmp_path, capsys, monkeypatch, make_doc, path):
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(make_doc(tmp_path)))
    assert main(["bound", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario key '{path}':") and "must be finite" in err, err


@pytest.mark.parametrize("command,option,value", [
    (command, "--resolution", value) for command in ("bound", "simulate")
    for value in ("0", "-1", "nan", "inf", "abc")
] + [
    ("simulate", "--seed", "1.5"),
    # outside Philox's key range [0, 2^128)
    ("simulate", "--seed", "-1"),
    ("simulate", "--seed", str(2 ** 128)),
])
def test_cli_bad_argument_exits_2_naming_it(capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "gw-monochromatic-coherent", option, value])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


# bundled scenarios with one value set where the run has nothing to compute
@pytest.mark.parametrize("command,name,section,key,value,path", [
    # the estimator's sample variance needs two samples
    ("simulate", "gw-monochromatic-coherent", "simulation", "n_samples", 1,
     "simulation.n_samples"),
    # no field energy to pull the generator back to proper time
    ("bound", "proper-time-reduction", "stress_energy.em", "amplitude", 0.0, "stress_energy"),
    # no probe energy variance for the time-energy bound
    ("bound", "proper-time-reduction", "probe.spectrum", "n_photons", 0.0, "probe.spectrum"),
    # finite inputs whose squares, exponentials or sums leave the floats
    ("bound", "gw-monochromatic-coherent", "probe", "hbar", 1e300, "probe.hbar"),
    ("bound", "gw-squeezed-r1", "probe", "squeeze_r", 355.0, "probe.squeeze_r"),
    ("simulate", "gw-monochromatic-coherent", "probe.spectrum", "n_photons", 1e300,
     "probe.spectrum"),
    ("simulate", "gw-monochromatic-coherent", "probe.spectrum", "tau", 1e300, "probe.spectrum"),
    # a readout mean so large that the float spacing there hides the noise
    ("simulate", "gw-monochromatic-coherent", "simulation", "a_true", 1e300,
     "simulation.a_true"),
])
def test_cli_degenerate_scenario_exits_2(tmp_path, capsys, command, name, section, key,
                                         value, path):
    doc = _bundled_doc(name)
    node = doc
    for part in section.split("."):
        node = node[part]
    node[key] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main([command, "--config", str(config), "--resolution", "0.25"]) == 2
    assert f"error: scenario key '{path}':" in capsys.readouterr().err


def _no_quadrature(*args, **kwargs):
    raise AssertionError("the run reached the quadrature")


# config files that cannot be read (None: a directory), decoded as UTF-8
# or parsed as YAML: one ScenarioError at the document root
@pytest.mark.parametrize("content", [
    None, b"name: caf\xe9\n", b"name: [unclosed\n", b"name: x\n\tkind: y\n",
], ids=["directory", "non-utf8", "unclosed-list", "tab-indent"])
def test_cli_unreadable_config_exits_2_naming_the_root(tmp_path, capsys, monkeypatch,
                                                       content):
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    config = tmp_path / "config.yaml"
    if content is None:
        config.mkdir()
    else:
        config.write_bytes(content)
    assert main(["bound", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: scenario key '<root>': cannot read '{config}': ")


@pytest.mark.parametrize("argv", [
    ["bound", "--config", "gw-monochromatic-coherent"],
    ["simulate", "--config", "gw-monochromatic-coherent"],
    ["verify", "--suite", "reductions"],
])
@pytest.mark.parametrize("out", ["missing/r.json", ".", "", "r/"])
def test_cli_out_is_checked_before_any_run(tmp_path, capsys, monkeypatch, argv, out):
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    assert exc.value.code == 2
    assert "argument --out: expected a file path in an existing directory" \
        in capsys.readouterr().err


@pytest.mark.parametrize("mult", ["1e30", "100", "1e308"])
def test_cli_resolution_above_the_node_ceiling_exits_2(capsys, monkeypatch, mult):
    # at 100 the region would be (1601, 1601, 801, 801) nodes; at 1e308 an
    # axis's scaled interval count is no finite float
    monkeypatch.setattr(generator, "integrate", _no_quadrature)
    assert main(["bound", "--config", "gw-monochromatic-coherent", "--resolution", mult]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario key '--resolution': resolution ("), err
    assert f"exceeds the ceiling of {MAX_NODES} nodes" in err


def test_cli_anisotropic_audit_under_the_ceiling_runs(tmp_path, capsys, monkeypatch):
    # a boundary face takes the region's rules on its three free axes, so
    # it holds at most half the region's nodes: a region with 3 * 3 * 3 * 9
    # nodes at the ceiling runs
    doc = _bundled_doc("schwarzschild-coordinate-check")
    doc["region"]["resolution"] = [3, 3, 3, 9]
    monkeypatch.setattr(quadrature, "MAX_NODES", 3 * 3 * 3 * 9)
    config = tmp_path / "audit.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(config)]) == 0
    assert "coordinate_check.nonconserved.flux_minus_divergence" in capsys.readouterr().out


def test_grid_source_on_the_family_chart_runs(tmp_path):
    # the grid that the cases above break, intact
    assert run_bound(parse_scenario(_grid_doc(tmp_path)))["generator"]["P_total"]["value"] == 0.0


def test_cli_reads_relative_file_paths_next_to_the_scenario(tmp_path, capsys, monkeypatch):
    # the grid and the spectrum table sit next to the scenario file, which
    # names them relative to itself; the run starts in another directory
    here = tmp_path / "scenario"
    here.mkdir()
    doc = _grid_doc(here)
    doc["stress_energy"]["grid"]["path"] = "grid.txt"
    save_spectrum_table(here / "table.txt", flat_band_spectrum(
        60.0, 65.0, n_photons=1.0e4, tau=1.0, n_modes=5))
    doc["probe"]["spectrum"] = {"family": "table", "path": "table.txt", "tau": 1.0}
    (here / "tiny.yaml").write_text(yaml.safe_dump(doc))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["bound", "--config", "../scenario/tiny.yaml", "--out", "bound.json"]) == 0, \
        capsys.readouterr().err
    report = json.loads(Path("bound.json").read_text())
    # the report echoes the paths as written
    assert report["scenario"]["stress_energy"]["grid"]["path"] == "grid.txt"
    assert report["scenario"]["probe"]["spectrum"]["path"] == "table.txt"
    assert report["generator"]["P_total"]["value"] == 0.0
    # an in-memory document has no file, so its paths name files in the
    # working directory
    with pytest.raises(ScenarioError, match="'stress_energy.grid.path'"):
        parse_scenario(doc)


def test_parse_scenario_resolves_file_paths_against_its_base(tmp_path, monkeypatch):
    # relative grid and table paths name files in base, absolute ones are
    # kept; the run starts in a directory that holds neither file
    here = tmp_path / "scenario"
    here.mkdir()
    doc = _grid_doc(here)
    table = flat_band_spectrum(60.0, 65.0, n_photons=1.0e4, tau=1.0, n_modes=5)
    save_spectrum_table(here / "table.txt", table)
    monkeypatch.chdir(tmp_path)
    for grid_path, table_path, base in (("grid.txt", "table.txt", str(here)),
                                        (str(here / "grid.txt"), str(here / "table.txt"),
                                         str(tmp_path / "elsewhere"))):
        doc["stress_energy"]["grid"]["path"] = grid_path
        doc["probe"]["spectrum"] = {"family": "table", "path": table_path, "tau": 1.0}
        written = copy.deepcopy(doc)
        sc = parse_scenario(doc, base)
        # raw is the document as written
        assert sc.raw == written and doc == written
        assert sc.raw["stress_energy"]["grid"]["path"] == grid_path
        assert np.array_equal(sc.state.spectrum.lattice.k, table.lattice.k)
        assert run_bound(sc)["generator"]["P_total"]["value"] == 0.0


@pytest.mark.parametrize("section,value,key", [
    ("stress_energy", {"grid": {"path": 5}}, "stress_energy.grid.path"),
    ("stress_energy", {"grid": {"path": None}}, "stress_energy.grid.path"),
    ("probe", {"spectrum": {"family": "table", "path": ["t.txt"], "tau": 1.0}},
     "probe.spectrum.path"),
    ("probe", {"spectrum": {"family": "table", "path": {"a": 1}, "tau": 1.0}},
     "probe.spectrum.path"),
])
def test_cli_file_path_that_is_not_a_string_exits_2_naming_its_key(tmp_path, capsys,
                                                                  section, value, key):
    doc = _tiny_doc()
    doc[section] = value
    (tmp_path / "scenario").mkdir()
    config = tmp_path / "scenario" / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    assert main(["bound", "--config", str(config)]) == 2
    assert f"error: scenario key '{key}': expected a file path, got " in capsys.readouterr().err


def test_cli_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "argument --suite: invalid choice: 'nope'" in capsys.readouterr().err


def test_cli_verify_forced_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "identities",
                        lambda: [verify._check("forced", 1.0, 0.5)])
    rc = main(["verify", "--suite", "identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] forced: residual 1.000e+00 <= 5.000e-01" in out
    assert "CHECKS FAILED" in out


def test_cli_verify_single_suite_passes(capsys):
    rc = main(["verify", "--suite", "reductions"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite reductions" in out
    assert "all checks passed" in out
    assert "FAIL" not in out
