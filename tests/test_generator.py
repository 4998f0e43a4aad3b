import dataclasses
import itertools
import math

import numpy as np
import pytest

from metricprobe import generator, stress_energy
from metricprobe.generator import (_FD_STEP, _TEST_CENTER, _TEST_HALFW, _poly_bump,
                                   _poly_bump_derivs,
                                   CoordinateCheckReport, boundary_term,
                                   bundled_coordinate_bump,
                                   conserved_test_tensor,
                                   coordinate_independence_check,
                                   generator_density, integrate_generator,
                                   nonconserved_test_tensor, trace_null_residual)
from metricprobe.geometry import (BumpProfile, ChartDomainError, de_sitter,
                                  flrw_closed, gw_plane_wave, localize,
                                  minkowski_component, schwarzschild)
from metricprobe.quadrature import RegionSpec, integrate
from metricprobe.scenarios import load_bundled, run_bound
from metricprobe.stress_energy import (StressEnergyField, christoffel, covariant_divergence,
                                       em_plane_wave, em_uniform, in_orthonormal_frame,
                                       stencil_box)

FOURPI = 4.0 * math.pi
#: the bundled chart audit's region and its box
AUDIT_REGION = load_bundled("schwarzschild-coordinate-check").region
AUDIT_BOX = AUDIT_REGION.box


def _plane_wave_field(amplitude=1.0, omega=2.0 * math.pi * 10.0, phase=0.0):
    return StressEnergyField(em_plane_wave(amplitude, omega, phase=phase))


def test_density_gw_against_plane_wave_pointwise():
    # dg has +1 in the xx slot and -1 in yy, so the density collapses to
    # (T^xx - T^yy)/2 = a(x)^2 / 8 pi with a the instantaneous amplitude
    fam = gw_plane_wave(0.0)
    field = _plane_wave_field(amplitude=1.3, omega=5.0, phase=0.4)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(40, 4))
    a = 1.3 * np.cos(5.0 * (pts[:, 1] - pts[:, 0]) + 0.4)
    expected = a ** 2 / (2.0 * FOURPI)
    got = generator_density(field, fam, pts)
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-16)


def _dust(x):
    """Comoving pressureless dust of density 2.5: only T^00 is nonzero."""
    T = np.zeros(x.shape[:-1] + (4, 4))
    T[..., 0, 0] = 2.5
    return T


def test_density_dust_invisible_to_gw():
    fam = gw_plane_wave(0.0)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(25, 4))
    d = generator_density(StressEnergyField(_dust), fam, pts)
    assert np.all(d == 0.0)


def test_density_component_family_picks_one_slot():
    field = _plane_wave_field(amplitude=1.0, omega=3.0)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 4))
    a2 = np.cos(3.0 * (pts[:, 1] - pts[:, 0])) ** 2
    # T^xx = a^2/4pi, T^yy = 0: the (1,1) family sees the full slot, the
    # (2,2) family sees nothing
    d_xx = generator_density(field, minkowski_component(1, 1), pts)
    d_yy = generator_density(field, minkowski_component(2, 2), pts)
    assert np.allclose(d_xx, 0.5 * a2 / FOURPI, rtol=1e-13, atol=1e-16)
    assert np.all(d_yy == 0.0)


def test_density_zero_field_is_zero():
    fam = gw_plane_wave(0.0)
    field = StressEnergyField(em_uniform([0, 0, 0], [0, 0, 0]))
    pts = np.zeros((4, 4))
    assert np.all(generator_density(field, fam, pts) == 0.0)


def test_density_linear_in_stress_energy():
    fam = gw_plane_wave(0.0)

    def t1(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        T[..., 1, 1] = np.sin(pts[..., 0])
        return T

    def t2(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        T[..., 1, 1] = pts[..., 2] ** 2
        T[..., 2, 2] = 0.3
        return T

    def tsum(pts):
        return t1(pts) + t2(pts)

    region = RegionSpec(box=np.array([[0.0, 1.0]] * 4), resolution=5)
    p1 = integrate_generator(StressEnergyField(t1), gw_plane_wave(0.0), region)
    p2 = integrate_generator(StressEnergyField(t2), fam, region)
    ps = integrate_generator(StressEnergyField(tsum), fam, region)
    assert math.isclose(ps.P_total, p1.P_total + p2.P_total, rel_tol=1e-12)


def test_uniform_field_closed_form():
    # static E along y: T^xx = T^00 = E^2/8pi, T^yy = -E^2/8pi, and the
    # gw coupling gives a constant density E^2/8pi, integrated exactly
    E = 0.7
    field = StressEnergyField(em_uniform([0.0, E, 0.0], [0.0, 0.0, 0.0]))
    box = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 1.5], [0.0, 0.5]])
    region = RegionSpec(box=box, resolution=3)
    res = integrate_generator(field, gw_plane_wave(0.0), region)
    vol4 = 2.0 * 1.0 * 1.5 * 0.5
    assert math.isclose(res.P_total, vol4 * E ** 2 / (2.0 * FOURPI), rel_tol=1e-13)
    assert res.P_shell == 0.0
    assert res.P_plateau == res.P_total


def test_split_adds_up_and_estimate_behaves():
    bump = BumpProfile(plateau=np.array([[0.3, 0.7]] * 4),
                       support=np.array([[0.1, 0.9]] * 4), order=3)
    fam = localize(gw_plane_wave(0.0), bump)
    field = _plane_wave_field(amplitude=1.0, omega=4.0)
    region = RegionSpec(box=np.array([[0.0, 1.0]] * 4), resolution=(17, 17, 9, 9))
    res = integrate_generator(field, fam, region)
    assert math.isclose(res.P_total, res.P_plateau + res.P_shell, rel_tol=1e-12)
    assert res.P_shell != 0.0
    assert res.error_estimate > 0.0
    assert res.warnings == ()


def test_bumped_generator_computes_the_bump_twice_per_point(monkeypatch):
    # the fiducial metric eval(theta0, x) needs no chi; deriv and the
    # plateau/shell split compute it once each
    points = {"bump": 0, "density": 0}
    bump_call, density = BumpProfile.__call__, generator.generator_density

    def bump_spy(self, x):
        points["bump"] += math.prod(np.shape(x)[:-1])
        return bump_call(self, x)

    def density_spy(T, family, x):
        points["density"] += math.prod(np.shape(x)[:-1])
        return density(T, family, x)

    monkeypatch.setattr(BumpProfile, "__call__", bump_spy)
    monkeypatch.setattr(generator, "generator_density", density_spy)
    bump = BumpProfile(plateau=np.array([[0.3, 0.7]] * 4),
                       support=np.array([[0.1, 0.9]] * 4), order=3)
    region = RegionSpec(box=np.array([[0.0, 1.0]] * 4), resolution=9)
    integrate_generator(_plane_wave_field(amplitude=1.0, omega=4.0),
                        localize(gw_plane_wave(0.0), bump), region)
    assert points["density"] == 9 ** 4
    assert points["bump"] / points["density"] == 2.0


@pytest.mark.parametrize("localized", [False, True], ids=["bare", "localized"])
def test_half_is_the_total_on_the_half_interval_region(localized):
    bump = BumpProfile(plateau=np.array([[0.3, 0.7]] * 4),
                       support=np.array([[0.1, 0.9]] * 4), order=3)
    fam = localize(gw_plane_wave(0.0), bump) if localized else gw_plane_wave(0.0)
    field = _plane_wave_field(amplitude=1.0, omega=4.0)
    box = np.array([[0.0, 1.0]] * 4)
    fine = integrate_generator(field, fam, RegionSpec(box=box, resolution=(17, 17, 9, 9)))
    coarse = integrate_generator(field, fam, RegionSpec(box=box, resolution=(9, 9, 5, 5)))
    assert fine.P_half == coarse.P_total
    assert fine.P_half != fine.P_total


def test_localized_matches_base_when_source_sits_on_plateau():
    # a source supported strictly inside the plateau cannot feel the
    # transition shell, so localized and bare integrals agree exactly
    bump = BumpProfile(plateau=np.array([[0.2, 0.8]] * 4),
                       support=np.array([[0.05, 0.95]] * 4), order=2)

    def tfun(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        prof = np.ones(pts.shape[:-1])
        for ax in range(4):
            u = (pts[..., ax] - 0.5) / 0.28
            prof = prof * np.where(np.abs(u) < 1.0, np.cos(0.5 * math.pi * u) ** 2, 0.0)
        T[..., 1, 1] = prof
        return T

    field = StressEnergyField(tfun)
    region = RegionSpec(box=np.array([[0.0, 1.0]] * 4), resolution=9)
    base = integrate_generator(field, gw_plane_wave(0.0), region)
    loc = integrate_generator(field, localize(gw_plane_wave(0.0), bump), region)
    assert loc.P_total == base.P_total
    assert loc.P_shell == 0.0


def test_clipped_support_warns():
    bump = BumpProfile(plateau=np.array([[0.3, 0.7]] * 4),
                       support=np.array([[-0.5, 1.5]] * 4), order=1)
    fam = localize(gw_plane_wave(0.0), bump)
    region = RegionSpec(box=np.array([[0.0, 1.0]] * 4), resolution=5)
    with pytest.warns(UserWarning):
        res = integrate_generator(_plane_wave_field(), fam, region)
    assert len(res.warnings) == 1
    assert "clips" in res.warnings[0]


def test_non_nested_coarsening_warns():
    field = _plane_wave_field(amplitude=1.0, omega=4.0)
    box = np.array([[0.0, 1.0]] * 4)
    region = RegionSpec(box=box, resolution=(17, 5, 5, 5))
    assert integrate_generator(field, gw_plane_wave(0.0), region).warnings == ()
    # --resolution grids always halve
    assert region.scaled(1.3).resolution[0] == 21
    assert integrate_generator(field, gw_plane_wave(0.0), region.scaled(1.3)).warnings == ()
    # an even count given directly does not; 2 nodes keep their fine rule silently
    res = integrate_generator(field, gw_plane_wave(0.0),
                              RegionSpec(box=box, resolution=(18, 5, 2, 5)))
    assert len(res.warnings) == 1
    assert "axis 0 has 18 nodes" in res.warnings[0]
    assert "this axis does not halve" in res.warnings[0]


def test_region_outside_chart_raises():
    fam = schwarzschild(1.0)
    region = RegionSpec(box=np.array([[0.0, 1.0], [1.0, 4.0], [1.0, 2.0], [0.0, 1.0]]),
                        resolution=5)
    with pytest.raises(ChartDomainError):
        integrate_generator(_plane_wave_field(), fam, region)


# ---------------------------------------------------------------------------
# trace-null coupling
# ---------------------------------------------------------------------------

def _flrw_probe(family):
    return StressEnergyField(in_orthonormal_frame(em_plane_wave(1.0, 3.0), family))


def test_trace_null_exact_for_conformal_families():
    region = RegionSpec(box=np.array([[1.0, 2.5], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]),
                        resolution=5)
    fam = flrw_closed(2.0)
    assert trace_null_residual(_flrw_probe(fam), fam, region) == 0.0
    ds_region = RegionSpec(box=np.array([[0.2, 1.2], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]),
                           resolution=5)
    ds = de_sitter(1.5)
    assert trace_null_residual(_flrw_probe(ds), ds, ds_region) == 0.0


def test_trace_null_generic_uniform_field_at_rounding_level():
    region = RegionSpec(box=np.array([[1.0, 2.5], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]),
                        resolution=5)
    fam = flrw_closed(2.0)
    field = StressEnergyField(
        in_orthonormal_frame(em_uniform([0.3, -0.7, 0.2], [0.5, 0.1, -0.4]), fam))
    assert trace_null_residual(field, fam, region) <= 1e-12


def test_trace_null_flags_traceful_source():
    region = RegionSpec(box=np.array([[1.0, 2.5], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]),
                        resolution=5)
    fam = flrw_closed(2.0)

    def fn(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        T[..., 0, 0] = 1.0
        return T

    dusty = StressEnergyField(fn)
    assert trace_null_residual(dusty, fam, region) > 0.5


def test_gw_density_vanishes_nowhere_special():
    # the integrated monochromatic value: V4 * A^2 / 16 pi when the grid
    # steps the doubled carrier phase through full cycles
    field = _plane_wave_field(amplitude=1.0, omega=2.0 * math.pi * 10.0)
    region = RegionSpec(box=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 0.25], [0.0, 0.25]]),
                        resolution=(17, 17, 9, 9))
    res = integrate_generator(field, gw_plane_wave(0.0), region)
    assert math.isclose(res.P_total, 0.0625 / (16.0 * math.pi), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# boundary flux
# ---------------------------------------------------------------------------

#: the identity corpus's box whose faces cut both bundled sources
#: (tools/identity.py FACE_CUTTING_BOX)
FACE_CUTTING_BOX = np.array([[-0.5, 0.5], [1.6, 3.5], [0.94, 2.21], [-0.61, 0.61]])


def _bits(x):
    return np.float64(x).tobytes()


def test_boundary_term_zero_for_compact_source():
    # the support reaches no face, so none is evaluated; without it every
    # face is evaluated and sums to the same exact 0
    T = conserved_test_tensor()

    def never(pts):
        raise AssertionError("T evaluated on a face its support does not reach")

    assert _bits(boundary_term(StressEnergyField(never, T.support), _check_region(9))) \
        == _bits(boundary_term(StressEnergyField(T.fn), _check_region(9))) == _bits(0.0)


@pytest.mark.parametrize("source", [conserved_test_tensor, nonconserved_test_tensor],
                         ids=["conserved", "nonconserved"])
@pytest.mark.parametrize("box", [AUDIT_BOX, FACE_CUTTING_BOX], ids=["audit", "face-cutting"])
def test_boundary_term_keeps_every_bit_with_the_support(source, box):
    T = source()
    region = RegionSpec(box=box, resolution=AUDIT_REGION.resolution)
    got = boundary_term(T, region)
    assert _bits(got) == _bits(boundary_term(StressEnergyField(T.fn), region))
    assert (got != 0.0) == (box is FACE_CUTTING_BOX)


def test_boundary_term_radial_shell_oracle():
    # T^rr = 1 against X^r = 1 in flat spherical coordinates: the flux is
    # int r^2 sin(th) dt dth dph over the two r faces with opposite sign
    def fn(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        T[..., 1, 1] = 1.0
        return T

    box = np.array([[0.0, 0.5], [2.0, 3.0], [0.8, 2.2], [-0.4, 0.4]])
    val = boundary_term(StressEnergyField(fn), RegionSpec(box=box, resolution=65))
    dt, dph = 0.5, 0.8
    oracle = dt * dph * (math.cos(0.8) - math.cos(2.2)) * (3.0 ** 2 - 2.0 ** 2)
    assert math.isclose(val, oracle, rel_tol=1e-3)


def test_audit_faces_take_the_region_rules(monkeypatch):
    # a face along axis a has the region's nodes on the other three axes,
    # so on a [3, 3, 3, 9] region no face holds more than 3 * 3 * 9 points
    counts = []
    real = generator.boundary_term

    def spy(T, *args, **kwargs):
        def fn(pts):
            counts.append(pts[..., 0].size)
            return T.tensor(pts)
        return real(StressEnergyField(fn), *args, **kwargs)

    monkeypatch.setattr(generator, "boundary_term", spy)
    coordinate_independence_check(nonconserved_test_tensor(),
                                  RegionSpec(box=AUDIT_BOX, resolution=(3, 3, 3, 9)))
    assert sorted(counts) == [27, 27] + [81] * 6


def test_coordinate_check_takes_one_volume_pass_beside_its_generators(monkeypatch):
    # the two charts' generator integrals, each stacking its total,
    # plateau and shell, then one pass stacking the angular and the
    # divergence integrands
    outputs = []
    real = generator.integrate

    def spy(fn, region, support=None):
        outputs.append(real(fn, region, support))
        return outputs[-1]

    monkeypatch.setattr(generator, "integrate", spy)
    rep = coordinate_independence_check(nonconserved_test_tensor(), _check_region(5))
    assert [np.shape(value) for value, _, _ in outputs] == [(3,), (3,), (2,)]
    (schw, _, schw_half), (iso, _, iso_half), (routes, _, _) = outputs
    assert _bits(rep.difference) == _bits(iso[0] - schw[0])
    assert _bits(rep.difference_half) == _bits(iso_half[0] - schw_half[0])
    assert _bits(rep.angular_integral) == _bits(routes[0])


@pytest.mark.parametrize("make", [conserved_test_tensor, nonconserved_test_tensor],
                         ids=["conserved", "nonconserved"])
def test_divergence_route_keeps_the_bits_of_a_lone_pass(make):
    # the divergence integrand, stacked beside the angular one, sums to
    # the bits it has on its own over the stencil's reach of the support
    T = make()
    region = _check_region(5)
    flat = schwarzschild(0.0)

    def metric(pts):
        return flat.eval(0.0, pts)

    def gamma(pts):
        # at every node, not once per (r, theta) as in the audit
        return christoffel(metric, pts, _FD_STEP)

    def div_r_density(pts):
        vol = np.sqrt(np.abs(np.linalg.det(metric(pts))))
        return vol * covariant_divergence(T, gamma, pts, T.tensor(pts), _FD_STEP)[..., 1]

    div, div_est, _ = integrate(div_r_density, region, stencil_box(T, _FD_STEP))
    rep = coordinate_independence_check(T, region)
    assert _bits(rep.flux_minus_divergence) == _bits(boundary_term(T, region) - div)
    est = rep.error_estimate
    assert rep.consistent == (abs(rep.difference - rep.angular_integral) <= est
                              and abs(rep.difference - rep.flux_minus_divergence) <= est)


def test_flat_metric_reads_neither_t_nor_phi():
    # the audit's Christoffel symbols are broadcast over t and phi on this
    # ground: points that differ only there, signed zeros and negative t
    # included, get the bits of t = phi = +0.0
    t = np.array([-1.3, -1e-300, -0.0, 0.0, 0.4, 1.3])
    phi = np.array([-0.61, -0.0, 0.0, 0.3, 2.0 * math.pi])
    r_theta = np.random.default_rng(8).uniform([1.6, 0.94], [4.6, 2.21], size=(4, 2))
    pts = np.empty((4, len(t), len(phi), 4))
    pts[..., 0] = t[:, None]
    pts[..., 1:3] = r_theta[:, None, None, :]
    pts[..., 3] = phi
    zeroed = pts.copy()
    zeroed[..., [0, 3]] = 0.0
    g = generator._flat_metric(pts).view(np.uint64)
    assert np.array_equal(g, generator._flat_metric(zeroed).view(np.uint64))
    assert np.array_equal(g, np.broadcast_to(g[:, :1, :1], g.shape))


@pytest.mark.parametrize("make", [conserved_test_tensor, nonconserved_test_tensor],
                         ids=["conserved", "nonconserved"])
def test_flat_christoffel_keeps_the_bits_of_every_node(monkeypatch, make):
    # on every block of the audit's volume pass, the Christoffel symbols
    # once per (r, theta) are those of christoffel at every node
    blocks = []
    real = generator._flat_christoffel

    def spy(pts):
        blocks.append(np.array(pts))
        return real(pts)

    monkeypatch.setattr(generator, "_flat_christoffel", spy)
    coordinate_independence_check(make(), AUDIT_REGION.scaled(0.5))
    # blocks of several t slices, so the t axis is collapsed too
    assert blocks and max(pts.shape[0] for pts in blocks) > 1
    for pts in blocks:
        got = real(pts)
        want = christoffel(generator._flat_metric, pts, _FD_STEP)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_audit_takes_christoffel_once_per_r_theta_pair(monkeypatch):
    # in the bundled audit at --resolution 0.5, christoffel sees at most
    # n1 * n2 points for a volume-pass block of shape (m, n1, n2, n3, 4)
    blocks, inside = [], []
    real_divergence, real_christoffel = covariant_divergence, christoffel

    def divergence(field, gamma, x, T, h):
        inside.append(0)
        try:
            return real_divergence(field, gamma, x, T, h)
        finally:
            blocks.append((np.shape(x), inside.pop()))

    def counted(metric_eval, x, h):
        if inside:
            inside[-1] += math.prod(np.shape(x)[:-1])
        return real_christoffel(metric_eval, x, h)

    monkeypatch.setattr(generator, "covariant_divergence", divergence)
    monkeypatch.setattr(stress_energy, "christoffel", counted)
    monkeypatch.setattr(generator, "christoffel", counted, raising=False)
    run_bound(load_bundled("schwarzschild-coordinate-check"), resolution_mult=0.5)
    assert len(blocks) > 2 and all(len(shape) == 5 for shape, _ in blocks)
    assert all(0 < n <= shape[1] * shape[2] for shape, n in blocks)


def test_audit_takes_christoffel_only_through_the_flat_chart(monkeypatch):
    # the volume pass and the residual sample both take their Christoffel
    # symbols from _flat_christoffel, once per distinct (r, theta)
    real_flat, real_christoffel = generator._flat_christoffel, christoffel
    inside, outside, shapes = [], [], []

    def flat(pts):
        shapes.append(np.shape(pts))
        inside.append(True)
        try:
            return real_flat(pts)
        finally:
            inside.pop()

    def counted(metric_eval, x, h):
        if not inside:
            outside.append(np.shape(x))
        return real_christoffel(metric_eval, x, h)

    monkeypatch.setattr(generator, "_flat_christoffel", flat)
    monkeypatch.setattr(generator, "christoffel", counted)
    monkeypatch.setattr(stress_energy, "christoffel", counted)
    run_bound(load_bundled("schwarzschild-coordinate-check"), resolution_mult=0.5)
    assert shapes and not outside
    # the residual's sample, a flat list of points after the support filter
    assert any(len(shape) == 2 for shape in shapes)


@pytest.mark.parametrize("make", [conserved_test_tensor, nonconserved_test_tensor],
                         ids=["conserved", "nonconserved"])
def test_volume_pass_takes_t_at_17_points_per_node(monkeypatch, make):
    # the angular integrand and the divergence share T at the node, so
    # each node costs T there and at its 16 stencil points
    T = make()
    taken, per_node = [0], []

    def fn(x):
        taken[0] += math.prod(np.shape(x)[:-1])
        return T.fn(x)

    real = generator.integrate

    def spy(f, region, support=None):
        def counted(pts):
            before = taken[0]
            out = f(pts)
            if np.array_equal(support, stencil_box(T, _FD_STEP)):
                per_node.append((taken[0] - before) / math.prod(pts.shape[:-1]))
            return out
        return real(counted, region, support)

    monkeypatch.setattr(generator, "integrate", spy)
    coordinate_independence_check(StressEnergyField(fn, T.support), AUDIT_REGION.scaled(0.5))
    assert per_node and set(per_node) == {17.0}


# ---------------------------------------------------------------------------
# chart independence
# ---------------------------------------------------------------------------

def _check_region(n):
    return RegionSpec(box=AUDIT_BOX, resolution=n)


def test_conserved_source_gives_chart_independent_generator():
    rep = coordinate_independence_check(conserved_test_tensor(), _check_region(17))
    assert isinstance(rep, CoordinateCheckReport)
    assert rep.conserved
    diff = abs(rep.P_isotropic - rep.P_schwarzschild)
    assert diff <= rep.error_estimate
    assert abs(rep.angular_integral) <= rep.error_estimate
    assert max(abs(rep.P_schwarzschild), abs(rep.P_isotropic)) > 0.0
    assert rep.divergence_residual <= 1e-6


def test_nonconserved_source_splits_charts():
    rep = coordinate_independence_check(nonconserved_test_tensor(), _check_region(17))
    assert not rep.conserved
    diff = rep.P_isotropic - rep.P_schwarzschild
    assert abs(diff) > 5.0 * rep.error_estimate
    # both routes to the difference land on the same number
    assert abs(diff - rep.angular_integral) <= rep.error_estimate
    assert abs(rep.angular_integral - rep.flux_minus_divergence) <= max(
        rep.error_estimate, 2e-2 * abs(rep.angular_integral))


#: seed 1, op 45 of the chart-audit benchmark: the bundled region widened
#: by that op's margins, where a single coarse grid underestimated the error
_OP45_BOX = np.array([[-1.327772678425007, 1.3096765751476565],
                      [1.5765159125150967, 4.639886111638504],
                      [0.9355678964875002, 2.2105762997175242],
                      [-0.6361574921648561, 0.6306307904565561]])


def test_conserved_routes_agree_within_the_estimate_on_a_widened_box():
    rep = coordinate_independence_check(conserved_test_tensor(),
                                        RegionSpec(box=_OP45_BOX, resolution=17))
    diff = rep.P_isotropic - rep.P_schwarzschild
    assert abs(diff - rep.flux_minus_divergence) <= rep.error_estimate
    # the angular integral of a conserved source is exactly 0
    assert abs(rep.angular_integral) <= rep.error_estimate
    assert abs(diff - rep.angular_integral) <= rep.error_estimate


def _nonconserved_angular_closed_form():
    """The nonconserved angular integral without quadrature: T^phph = 0,
    chi = 1 on the T^thth bump, which lies inside the plateau, so the
    integrand A r^3 sin(theta) prod_ax (1 - u_ax^2)^6 separates."""
    plateau = bundled_coordinate_bump().plateau
    center = 0.5 * (plateau[:, 0] + plateau[:, 1])
    half = 0.425 * (plateau[:, 1] - plateau[:, 0])
    u, w = np.polynomial.legendre.leggauss(60)
    prof = (1.0 - u * u) ** 6
    t_ax, r_ax, th_ax, ph_ax = (half[ax] * np.sum(w * prof * g(center[ax] + half[ax] * u))
                                for ax, g in enumerate((np.ones_like, lambda r: r ** 3,
                                                        np.sin, np.ones_like)))
    return 0.1 * t_ax * r_ax * th_ax * ph_ax


@pytest.mark.parametrize("n", [9, 17])
def test_nonconserved_angular_integral_within_its_estimate_of_the_closed_form(n):
    exact = _nonconserved_angular_closed_form()
    assert math.isclose(exact, 0.05201622089669556, rel_tol=1e-13)
    T = nonconserved_test_tensor()
    bump = bundled_coordinate_bump()
    region = _check_region(n)

    def angular_density(pts):
        Tv = T.tensor(pts)
        r, sth = pts[..., 1], np.sin(pts[..., 2])
        return r * r * sth * bump(pts) * r * (Tv[..., 2, 2] + sth ** 2 * Tv[..., 3, 3])

    value, estimate, _ = integrate(angular_density, region, T.support)
    assert value == coordinate_independence_check(T, region).angular_integral
    assert abs(value - exact) <= estimate


@pytest.mark.parametrize("make", [conserved_test_tensor, nonconserved_test_tensor])
def test_declared_support_is_sound(make):
    # the support-aware chart audit rests on T being exactly 0 outside
    # the declared box
    T = make()
    box = T.support
    lo, hi = box[:, 0], box[:, 1]
    rng = np.random.default_rng(20261018)
    pts = AUDIT_BOX[:, 0] + (AUDIT_BOX[:, 1] - AUDIT_BOX[:, 0]) * rng.random((200_000, 4))
    outside = pts[np.any((pts < lo) | (pts > hi), axis=-1)][:100_000]
    assert len(outside) == 100_000
    assert np.all(T.tensor(outside) == 0.0)
    # points just outside each of the 8 faces, and as far out as the
    # divergence stencil reaches
    face = lo + (hi - lo) * rng.random((2000, 4))
    for ax in range(4):
        for side, sign in ((0, -1.0), (1, 1.0)):
            for offset in (1e-9, 2.02 * _FD_STEP):
                near = face.copy()
                near[:, ax] = box[ax, side] + sign * offset
                assert np.all(T.tensor(near) == 0.0), (ax, side, offset)
    assert np.any(T.tensor(face) != 0.0)


def test_poly_bump_derivs_keep_every_bit_of_the_separate_kernels():
    # the masked (1 - u^2)^6 and its two derivatives as three separate
    # kernels computed them
    rng = np.random.default_rng(3)
    u = np.concatenate([rng.uniform(-1.5, 1.5, 3990), [-1.0, 1.0, 0.0, -0.0],
                        np.nextafter([-1.0, -1.0, 1.0, 1.0], [-2.0, 0.0, 0.0, 2.0]),
                        [-np.inf, np.inf]]).reshape(10, 2, -1)
    p = 6
    inside = np.abs(u) < 1.0
    ui = u[inside]
    d1, d2 = np.zeros_like(u), np.zeros_like(u)
    d1[inside] = -2.0 * p * ui * (1.0 - ui ** 2) ** (p - 1)
    d2[inside] = (-2.0 * p * (1.0 - ui ** 2) ** (p - 1)
                  + 4.0 * p * (p - 1) * ui ** 2 * (1.0 - ui ** 2) ** (p - 2))
    got = _poly_bump_derivs(u)
    assert got.shape == (3,) + u.shape
    for have, want in zip(got, (_poly_bump(u), d1, d2)):
        assert np.array_equal(have.view(np.int64), want.view(np.int64))
    b = np.zeros_like(u)
    b[inside] = (1.0 - ui ** 2) ** p
    assert np.array_equal(_poly_bump(u).view(np.int64), b.view(np.int64))


def test_conserved_support_covers_its_cartesian_cube():
    # the conserved source can be nonzero anywhere in the open Cartesian
    # cube; its extreme r, theta and phi lie on the cube's edges and
    # corners, which random chart points almost never reach
    lo = _TEST_CENTER - _TEST_HALFW
    hi = _TEST_CENTER + _TEST_HALFW
    rng = np.random.default_rng(7)
    cube = lo + (hi - lo) * rng.random((30_000, 4))
    for i, j in itertools.combinations(range(1, 4), 2):
        for a in (lo, hi):
            for b in (lo, hi):
                edge = cube[:1000].copy()
                edge[:, i], edge[:, j] = a[i], b[j]
                cube = np.concatenate([cube, edge])
    t, x, y, z = np.moveaxis(cube, -1, 0)
    r = np.sqrt(x * x + y * y + z * z)
    chart = np.stack([t, r, np.arccos(z / r), np.arctan2(y, x)], axis=-1)
    box = conserved_test_tensor().support
    assert np.all((chart >= box[:, 0]) & (chart <= box[:, 1]))


@pytest.mark.parametrize("make", [conserved_test_tensor, nonconserved_test_tensor])
def test_coordinate_check_keeps_every_bit_with_declared_support(make):
    T = make()
    undeclared = dataclasses.replace(T, support=None)
    with_support = coordinate_independence_check(T, _check_region(9))
    without = coordinate_independence_check(undeclared, _check_region(9))
    assert repr(dataclasses.astuple(with_support)) == repr(dataclasses.astuple(without))


def test_zero_source_everything_vanishes():
    def fn(pts):
        return np.zeros(pts.shape[:-1] + (4, 4))

    rep = coordinate_independence_check(
        StressEnergyField(fn), _check_region(9))
    assert rep.P_schwarzschild == 0.0
    assert rep.P_isotropic == 0.0
    assert rep.angular_integral == 0.0
    assert rep.flux_minus_divergence == 0.0
    assert rep.conserved
