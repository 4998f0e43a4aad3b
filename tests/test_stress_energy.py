import math

import numpy as np
import pytest

from metricprobe import stress_energy
from metricprobe.generator import conserved_test_tensor, nonconserved_test_tensor
from metricprobe.geometry import box_grid, flrw_closed, schwarzschild
from metricprobe.scenarios import load_bundled
from metricprobe.stress_energy import (StressEnergyField, TensorGrid, christoffel,
                                       covariant_divergence, divergence_residual,
                                       em_plane_wave, em_stress_tensor, em_uniform,
                                       in_orthonormal_frame, load_grid, save_grid,
                                       stencil_box)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
FOUR_PI = 4.0 * math.pi


def flat_metric(x):
    return np.broadcast_to(ETA, np.asarray(x).shape[:-1] + (4, 4)).copy()


def flat_gamma(h):
    """The Christoffel symbols of flat_metric, as covariant_divergence takes them."""
    return lambda x: christoffel(flat_metric, x, h)


def dust(density):
    """Comoving pressureless dust: T^00 = density, all other components 0."""
    def fn(x):
        T = np.zeros(x.shape[:-1] + (4, 4))
        T[..., 0, 0] = density
        return T

    return StressEnergyField(fn)


def test_em_stress_tensor_vacuum_is_zero():
    T = em_stress_tensor(np.zeros(3), np.zeros(3))
    assert np.array_equal(T, np.zeros((4, 4)))


def test_em_stress_tensor_null_plane_wave_components():
    E = np.array([0.0, 1.0, 0.0])
    B = np.array([0.0, 0.0, 1.0])
    T = em_stress_tensor(E, B)
    # energy density, Poynting flux along x, and the xx/yy split
    assert math.isclose(T[0, 0], 1.0 / FOUR_PI, rel_tol=1e-15)
    assert math.isclose(T[0, 1], 1.0 / FOUR_PI, rel_tol=1e-15)
    assert math.isclose(0.5 * (T[1, 1] - T[2, 2]), 1.0 / (8.0 * math.pi),
                        rel_tol=1e-15)


def test_em_stress_tensor_symmetric_for_random_fields():
    rng = np.random.default_rng(17)
    E = rng.standard_normal((40, 3))
    B = rng.standard_normal((40, 3))
    T = em_stress_tensor(E, B)
    scale = np.max(np.abs(T))
    assert np.max(np.abs(T - np.swapaxes(T, -1, -2))) <= 1e-14 * scale


def test_maxwell_trace_free_on_flat_background():
    rng = np.random.default_rng(29)
    E = rng.standard_normal((100, 3))
    B = rng.standard_normal((100, 3))
    T = em_stress_tensor(E, B)
    g = np.broadcast_to(ETA, T.shape)
    t00 = T[..., 0, 0]
    assert np.max(np.abs(np.einsum("...ij,...ij->...", g, T))) <= 1e-12 * np.max(t00)


def test_uniform_field_takes_the_maxwell_tensor_once_at_construction(monkeypatch):
    # every call broadcasts the one read-only tensor made at construction
    E, B = np.array([0.6, -0.8, 0.5]), np.array([0.2, 0.7, -0.4])
    calls = []

    def counted(*args):
        calls.append(args)
        return em_stress_tensor(*args)

    monkeypatch.setattr(stress_energy, "em_stress_tensor", counted)
    fn = em_uniform(E, B)
    assert len(calls) == 1
    want = em_stress_tensor(E, B).view(np.uint64)
    for x in (np.zeros(4), np.zeros((3, 4)), np.ones((2, 5, 1, 4))):
        T = fn(x)
        assert T.shape == x.shape[:-1] + (4, 4)
        assert np.array_equal(T.view(np.uint64), np.broadcast_to(want, T.shape))
        with pytest.raises(ValueError, match="read-only"):
            T[...] = 0.0
    assert len(calls) == 1


def test_plane_wave_trace_free_against_curved_metric_in_orthonormal_frame():
    # tetrad conversion keeps the null structure: the chart-frame trace
    # against the curved metric is exact float zero
    fam = flrw_closed(2.0)
    field = StressEnergyField(in_orthonormal_frame(em_plane_wave(1.0, 3.0), fam))
    pts = np.array([[1.3, 0.9, 1.4, 0.1], [2.0, 0.6, 1.9, -0.3]])
    T = field.tensor(pts)
    g = fam.eval(fam.theta0, pts)
    assert np.max(np.abs(np.einsum("...ij,...ij->...", g, T))) == 0.0


@pytest.mark.parametrize("support", [
    np.zeros((3, 2)),
    [[0.0, 1.0]] * 3 + [[0.0, np.inf]],
    [[0.0, 1.0]] * 3 + [[np.nan, 1.0]],
    [[0.0, 1.0]] * 3 + [[1.0, 1.0]],
    [[0.0, 1.0]] * 3 + [[2.0, 1.0]],
], ids=["shape", "inf", "nan", "lo-equals-hi", "lo-above-hi"])
def test_field_rejects_malformed_support(support):
    with pytest.raises(ValueError, match="support"):
        StressEnergyField(em_uniform(np.zeros(3), np.zeros(3)), support=support)


def test_field_keeps_support_as_float_box():
    field = StressEnergyField(em_uniform(np.zeros(3), np.zeros(3)),
                              support=[[0, 1], [2, 3], [4, 5], [6, 7]])
    assert field.support.dtype == float
    assert np.array_equal(field.support, [[0, 1], [2, 3], [4, 5], [6, 7]])
    assert StressEnergyField(field.fn).support is None


def test_field_owns_its_support():
    # a later write into the caller's support reaches neither the field
    # nor what is computed from it, and the field's own box refuses writes
    support = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
    field = StressEnergyField(dust(1.0).fn, support=support)
    before = stencil_box(field, 1e-3).tobytes()
    support[:] = [[-1.0, 9.0]] * 4
    assert stencil_box(field, 1e-3).tobytes() == before
    with pytest.raises(ValueError, match="read-only"):
        field.support[0, 0] = 0.5


def test_covariant_divergence_of_plane_wave_is_small():
    field = StressEnergyField(em_plane_wave(1.0, 3.0))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, size=(30, 4))
    res = divergence_residual(field, flat_gamma(1e-3), pts, h=1e-3)
    assert res <= 1e-6


def test_covariant_divergence_of_constant_dust_vanishes():
    field = dust(1.0)
    pts = np.array([[0.0, 0.1, 0.2, 0.3]])
    div = covariant_divergence(field, flat_gamma(1e-3), pts, field.tensor(pts), h=1e-3)
    assert np.max(np.abs(div)) <= 1e-12


def test_nonconserved_tensor_divergence_component():
    # T^munu = x^0 delta^mu0 delta^nu0: time component of the divergence is 1
    def fn(x):
        T = np.zeros(x.shape[:-1] + (4, 4))
        T[..., 0, 0] = x[..., 0]
        return T

    field = StressEnergyField(fn)
    pt = np.array([[0.7, 0.0, 0.0, 0.0]])
    div = covariant_divergence(field, flat_gamma(1e-3), pt, field.tensor(pt), h=1e-3)
    np.testing.assert_allclose(div[0], [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_divergence_residual_converges_at_stencil_order():
    """Residual of an exactly conserved field drops ~2^4 per halving.

    Any single-axis wave superposition has Fourier support only on the
    light-cone lines |omega| = |k|, where the central-difference errors
    of the time and space terms cancel exactly at any step; two beams
    crossed along different axes break that degeneracy and expose the
    true stencil error.
    """
    def crossed(x):
        E = np.zeros(x.shape[:-1] + (3,))
        E[..., 1] = np.cos(x[..., 1] - x[..., 0])
        E[..., 2] = np.cos(2.0 * (x[..., 2] - x[..., 0]))
        B = np.zeros(x.shape[:-1] + (3,))
        B[..., 2] = np.cos(x[..., 1] - x[..., 0])
        B[..., 0] = np.cos(2.0 * (x[..., 2] - x[..., 0]))
        return em_stress_tensor(E, B)

    field = StressEnergyField(crossed)
    pts = np.array([[0.3, -0.2, 0.5, 0.1], [0.9, 0.4, 0.0, 0.0]])
    T = field.tensor(pts)
    r1 = np.max(np.abs(covariant_divergence(field, flat_gamma(0.08), pts, T, h=0.08)))
    r2 = np.max(np.abs(covariant_divergence(field, flat_gamma(0.04), pts, T, h=0.04)))
    assert 12.0 <= r1 / r2 <= 20.0


def _straddling_box(support):
    """A box around the middle of the support whose r range runs from
    0.3 below the support's lower r edge to 0.3 above it."""
    mid = 0.5 * (support[:, 0] + support[:, 1])
    box = np.stack([mid - 0.1, mid + 0.1], axis=-1)
    box[1] = support[1, 0] - 0.3, support[1, 0] + 0.3
    return box


@pytest.mark.parametrize("h", [1e-3], ids=["scalar-h"])
@pytest.mark.parametrize("sample", ["audit", "straddling"])
@pytest.mark.parametrize("source", [conserved_test_tensor, nonconserved_test_tensor],
                         ids=["conserved", "nonconserved"])
def test_divergence_residual_keeps_every_bit_with_the_support(source, sample, h):
    T = source()
    if sample == "audit":
        # the chart audit's conservation sample
        box = load_bundled("schwarzschild-coordinate-check").region.box
        pts = box_grid(box, 7)[1:-1, 1:-1, 1:-1, 1:-1]
    else:
        pts = box_grid(_straddling_box(T.support), 9)
    metric = lambda x: schwarzschild(0.0).eval(0.0, x)
    gamma = lambda x: christoffel(metric, x, h)
    counts = []

    def counted(x):
        counts.append(x[..., 0].size)
        return T.fn(x)

    full = divergence_residual(StressEnergyField(T.fn), gamma, pts, h=h)
    pruned = divergence_residual(StressEnergyField(counted, T.support), gamma, pts, h=h)
    assert full > 0.0
    assert np.float64(pruned).tobytes() == np.float64(full).tobytes()
    # T once on the whole sample, then only the stencil points of fewer
    # points: the divergence takes T at its points from that sample
    assert counts[0] == pts[..., 0].size
    assert 0 < sum(counts[1:]) < 16 * pts[..., 0].size
    assert sum(counts[1:]) % 16 == 0


def test_divergence_residual_sees_the_support_from_two_steps_out():
    # T jumps at the closed support's edge, so a point 1.9 steps outside
    # it sees it through its outer stencil point, and one 2.5 steps out
    # does not; at the centre T is constant and its divergence is 0
    box = np.array([[-1.0, 1.0]] * 4)

    def step(x):
        T = np.zeros(x.shape[:-1] + (4, 4))
        T[..., 1, 1] = np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=-1)
        return T

    h = 1e-3
    pts = np.array([[0.0, -1.0 - d * h, 0.0, 0.0] for d in (2.5, 1.9)] + [[0.0] * 4])
    full = divergence_residual(StressEnergyField(step), flat_gamma(h), pts, h=h)
    assert full > 0.0
    assert divergence_residual(StressEnergyField(step, box), flat_gamma(h), pts, h=h) == full


def _sampled_grid(fn, shape):
    """TensorGrid of fn's values on the nodes of the unit box."""
    spacing = 1.0 / (np.array(shape) - 1.0)
    axes = [np.arange(n) * d for n, d in zip(shape, spacing)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return TensorGrid(values=fn(mesh), origin=np.zeros(4), spacing=spacing)


def test_grid_round_trip(tmp_path):
    def fn(x):
        T = np.zeros(x.shape[:-1] + (4, 4))
        T[..., 1, 2] = T[..., 2, 1] = np.cos(x[..., 0])
        T[..., 0, 0] = 1.0 + x[..., 3] ** 2
        return T

    grid = _sampled_grid(fn, (5, 4, 3, 6))
    path = tmp_path / "grid.txt"
    save_grid(path, grid)
    loaded = load_grid(path)
    assert loaded.chart == grid.chart
    np.testing.assert_allclose(loaded.values, grid.values, rtol=1e-15)
    pts = np.array([[0.25, 0.5, 0.5, 0.125]])
    np.testing.assert_allclose(
        StressEnergyField(loaded.interpolate).tensor(pts), grid.interpolate(pts), rtol=1e-12)


def test_grid_interpolation_is_exact_on_multilinear_fields():
    def fn(x):
        T = np.zeros(x.shape[:-1] + (4, 4))
        T[..., 0, 0] = 2.0 + x[..., 0] - 0.5 * x[..., 3]
        return T

    field = StressEnergyField(_sampled_grid(fn, (3, 3, 3, 3)).interpolate)
    pts = np.array([[0.37, 0.11, 0.92, 0.64]])
    np.testing.assert_allclose(field.tensor(pts), fn(pts), rtol=1e-14)


@pytest.mark.parametrize("field", ["values", "origin", "spacing"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_grid_refuses_non_finite_numbers(field, bad):
    # checked before symmetry, which a NaN component would fail instead
    args = {"values": np.zeros((2, 2, 2, 2, 4, 4)), "origin": np.zeros(4),
            "spacing": np.ones(4)}
    args[field].flat[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        TensorGrid(**args)


def test_grid_owns_its_arrays():
    # a later write into the caller's arrays reaches neither the grid nor
    # its axes and interpolated values, and the grid's own arrays refuse
    # writes
    values = np.arange(3 * 2 * 2 * 2 * 16, dtype=float).reshape(3, 2, 2, 2, 4, 4)
    values = values + np.swapaxes(values, -1, -2)
    origin, spacing = np.zeros(4), np.full(4, 0.5)
    grid = TensorGrid(values=values, origin=origin, spacing=spacing)
    pts = np.array([[0.3, 0.1, 0.45, 0.2], [1.0, 0.5, 0.0, 0.25]])

    def outputs():
        return [a.tobytes() for a in grid.axes()], grid.interpolate(pts).tobytes()

    before = outputs()
    values[:] = math.nan
    origin[:] = 1.0
    spacing[:] = -1.0
    assert outputs() == before
    for own in (grid.values, grid.origin, grid.spacing):
        with pytest.raises(ValueError, match="read-only"):
            own.flat[0] = 0.0


def test_each_grid_interpolates_its_own_values():
    # grids made and dropped in turn reuse memory, and so ids; an
    # interpolator kept past its grid would answer for the next one
    pt = np.full((1, 4), 0.5)
    wrong = []
    for k in range(50):
        got = TensorGrid(values=np.full((2, 2, 2, 2, 4, 4), float(k)),
                         origin=np.zeros(4), spacing=np.ones(4)).interpolate(pt)[0, 0, 0]
        if got != k:
            wrong.append((k, got))
    assert not wrong


@pytest.mark.parametrize("fd", [
    lambda: christoffel(flat_metric, np.zeros(4)),
    lambda: covariant_divergence(dust(1.0), flat_gamma(1e-3), np.zeros(4), np.zeros((4, 4))),
    lambda: divergence_residual(dust(1.0), flat_gamma(1e-3), np.zeros((1, 4))),
], ids=["christoffel", "covariant_divergence", "divergence_residual"])
def test_finite_differences_take_their_step_from_the_caller(fd):
    # no default step: the chart audit's is the one every caller passes
    with pytest.raises(TypeError, match="'h'"):
        fd()


@pytest.mark.parametrize("h", [1e-3], ids=["scalar"])
def test_stencil_box_is_the_support_widened_by_two_steps_and_a_margin(h):
    support = np.array([[-0.8, 0.8], [2.2, 3.97], [1.222, 1.92], [-0.349, 0.349]])
    reach = np.full(4, 2.0 * h * 1.01)
    want = np.stack([support[:, 0] - reach, support[:, 1] + reach], axis=-1)
    field = StressEnergyField(em_uniform(np.zeros(3), np.zeros(3)), support=support)
    assert stencil_box(field, h).tobytes() == want.tobytes()
    assert stencil_box(StressEnergyField(field.fn), h) is None
