import dataclasses
import json

import numpy as np
import pytest

from metricprobe import geometry, verify
from metricprobe.generator import (conserved_test_tensor,
                                   coordinate_independence_check, nonconserved_test_tensor)
from metricprobe.quadrature import RegionSpec
from metricprobe.reports import dumps_report
from metricprobe.scenarios import load_bundled
from metricprobe.verify import SUITES, run_verify


def test_suite_registry():
    assert set(SUITES) == {"identities", "coordinate-independence",
                           "wick-fock", "reductions"}


def test_unknown_suite_lists_available():
    with pytest.raises(ValueError) as exc:
        run_verify(["identities", "nope"])
    msg = str(exc.value)
    assert "nope" in msg
    assert "reductions" in msg


def test_check_compares_both_ways_and_refuses_any_other_comparison():
    assert verify._check("upper", 1.0, 1.0)["passed"]
    assert not verify._check("upper", 1.5, 1.0)["passed"]
    assert verify._check("lower", 1.0, 1.0, ">=")["passed"]
    assert not verify._check("lower", 0.5, 1.0, ">=")["passed"]
    for comparison in ("<", ">", "=="):
        with pytest.raises(ValueError, match="bad comparison"):
            verify._check("typo", 0.0, 1.0, comparison)


def test_derivative_crosscheck_takes_a_localized_family_through_its_transition():
    # a localized family's finite differences run eval's bump branch, so
    # the crosscheck covers the bump wherever it is neither 0 nor 1
    localized = [f for f in verify._representative_families() if f.bump is not None]
    assert localized
    for fam in localized:
        chi = fam.bump(geometry.box_grid(fam.sample_box, 4))
        assert np.any((chi > 0.0) & (chi < 1.0))
        assert verify._derivative_residual(fam) <= 1e-6


def test_reductions_suite_report_shape():
    report = run_verify(["reductions"])
    assert report["all_passed"]
    assert list(report["suites"]) == ["reductions"]
    checks = report["suites"]["reductions"]["checks"]
    names = [c["name"] for c in checks]
    assert names == ["proper-time-mean", "proper-time-bound", "unruh-product"]
    for c in checks:
        assert c["passed"]
        assert c["comparison"] in ("<=", ">=")
        assert c["residual"] <= c["tolerance"]
    # the report body serializes cleanly
    assert json.loads(dumps_report(report))["all_passed"] is True


def test_wick_fock_suite_passes():
    report = run_verify(["wick-fock"])
    assert report["all_passed"]
    checks = report["suites"]["wick-fock"]["checks"]
    assert len(checks) == 7
    assert all(c["residual"] <= 1e-8 for c in checks)


def test_coordinate_suite_reads_the_refinement_ratio_from_the_fine_audits(monkeypatch):
    # 9^4 instead of the scenario's 33^4 keeps this fast; the suite at
    # full resolution runs in acceptance criterion 06
    box = load_bundled("schwarzschild-coordinate-check").region.box
    monkeypatch.setattr(verify, "load_bundled", lambda name: dataclasses.replace(
        load_bundled(name), region=RegionSpec(box=box, resolution=9)))
    audits = []

    def spy(testT, region):
        rep = coordinate_independence_check(testT, region)
        audits.append((testT.support.tolist(), region.resolution, rep))
        return rep

    monkeypatch.setattr(verify, "coordinate_independence_check", spy)
    checks = run_verify(["coordinate-independence"])["suites"]["coordinate-independence"]["checks"]
    assert [(support, res) for support, res, _ in audits] == [
        (conserved_test_tensor().support.tolist(), (9,) * 4),
        (nonconserved_test_tensor().support.tolist(), (9,) * 4)]

    fine = audits[0][2]
    coarse = coordinate_independence_check(conserved_test_tensor(),
                                           RegionSpec(box=box, resolution=5))
    ratio = (abs(coarse.P_isotropic - coarse.P_schwarzschild)
             / abs(fine.P_isotropic - fine.P_schwarzschild))
    got = next(c for c in checks if c["name"] == "conserved-refinement-ratio")
    assert got["residual"] == ratio
