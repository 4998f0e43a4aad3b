import math
import re

import numpy as np
import pytest

from metricprobe.generator import _PLATEAU_EPS
from metricprobe.geometry import (BUILTIN_FAMILIES, MAX_SMOOTHSTEP_ORDER, BumpProfile,
                                  ChartDomainError, MetricFamily, _per_distinct,
                                  _smoothstep, de_sitter, finite_difference_derivative,
                                  flrw_closed, g00_profile_perturbation,
                                  gw_plane_wave, isotropic, localize,
                                  minkowski_component, schwarzschild)
from metricprobe.stress_energy import em_plane_wave, em_stress_tensor, in_orthonormal_frame

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def representative_families():
    prof = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))
    return [
        gw_plane_wave(0.3),
        minkowski_component(1, 1, 0.2),
        minkowski_component(0, 2, -0.15),
        g00_profile_perturbation(prof, 0.1),
        schwarzschild(1.0),
        isotropic(1.0),
        flrw_closed(2.0),
        de_sitter(1.5),
    ]


def sample_points(fam, n, rng):
    box = fam.sample_box
    u = rng.random((n, 4))
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


def test_eval_symmetric_at_random_points():
    rng = np.random.default_rng(11)
    for fam in representative_families():
        pts = sample_points(fam, 100, rng)
        g = fam.eval(fam.theta0, pts)
        scale = np.max(np.abs(g))
        asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
        assert asym <= 1e-14 * scale


def test_flat_background_families_are_exactly_minkowski():
    pts = np.array([[0.0, 0.3, -0.2, 0.7], [1.0, -1.0, 0.5, 0.0]])
    for fam in (gw_plane_wave(), minkowski_component(1, 1),
                g00_profile_perturbation(lambda x: np.ones(x.shape[:-1]))):
        g = fam.eval(fam.theta0, pts)
        assert np.array_equal(g, np.broadcast_to(ETA, g.shape))


def test_flrw_at_eta_pi_hits_maximal_scale_factor():
    # prefactor (a_max^2/4)(1 - cos pi)^2 = a_max^2
    a_max = 2.0
    fam = flrw_closed(a_max)
    chi, th = 0.7, 1.1
    x = np.array([math.pi, chi, th, 0.3])
    g = fam.eval(a_max, x)
    expect = a_max ** 2 * np.diag(
        [-1.0, 1.0, math.sin(chi) ** 2, (math.sin(chi) * math.sin(th)) ** 2])
    np.testing.assert_allclose(g, expect, rtol=1e-14, atol=1e-14)


def test_schwarzschild_gtt_at_r_4m():
    m = 0.8
    fam = schwarzschild(m)
    x = np.array([0.0, 4.0 * m, 1.2, 0.4])
    g = fam.eval(m, x)
    assert math.isclose(g[0, 0], -0.5, rel_tol=1e-14)


def test_evaluate_metric_rejects_chart_violations():
    fam = schwarzschild(1.0)
    inside_horizon = np.array([0.0, 2.0, 1.0, 0.0])
    with pytest.raises(ChartDomainError):
        fam.domain.require(inside_horizon)
    fam = flrw_closed(1.0)
    with pytest.raises(ChartDomainError):
        fam.domain.require(np.array([7.0, 0.5, 1.0, 0.0]))
    # the horizon margins are open lower bounds on the radius
    m = 0.8
    for fam, edge in ((schwarzschild(m), 2.5 * m), (isotropic(m), 1.25 * m)):
        with pytest.raises(ChartDomainError):
            fam.domain.require(np.array([0.0, edge, 1.0, 0.0]))
        fam.domain.require(np.array([0.0, np.nextafter(edge, np.inf), 1.0, 0.0]))


def test_gw_derivative_components():
    fam = gw_plane_wave()
    d = fam.deriv(np.zeros((3, 4)))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    expect[2, 2] = -1.0
    assert np.array_equal(d[0], expect)


def test_minkowski_component_derivative_slots():
    fam = minkowski_component(0, 2)
    d = fam.deriv(np.zeros(4))
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[2, 0] = 1.0
    assert np.array_equal(d, expect)


def test_flrw_derivative_is_2_over_amax_times_metric():
    fam = flrw_closed(2.0)
    rng = np.random.default_rng(5)
    pts = sample_points(fam, 50, rng)
    d = fam.deriv(pts)
    g = fam.eval(fam.theta0, pts)
    np.testing.assert_allclose(d, (2.0 / 2.0) * g, rtol=1e-12, atol=1e-14)


def test_de_sitter_derivative_is_minus_metric_over_lambda():
    lam = 1.5
    fam = de_sitter(lam)
    rng = np.random.default_rng(6)
    pts = sample_points(fam, 50, rng)
    np.testing.assert_allclose(fam.deriv(pts), -(1.0 / lam) * fam.eval(lam, pts),
                               rtol=1e-10, atol=1e-12)


def test_analytic_derivative_matches_finite_differences():
    """Every built-in family, 100 random chart points, 1e-6 relative."""
    rng = np.random.default_rng(2024)
    for fam in representative_families():
        pts = sample_points(fam, 100, rng)
        an = fam.deriv(pts)
        fd = finite_difference_derivative(fam, pts)
        scale = max(np.max(np.abs(an)), 1e-10)
        assert np.max(np.abs(fd - an)) <= 1e-6 * scale, fam.label


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("fam", representative_families(), ids=lambda f: f.label)
def test_eval_fn_of_a_per_point_theta_is_the_pointwise_eval_bit_for_bit(fam):
    # a bump passes theta0 + (theta - theta0) chi(x), one theta per point;
    # each point goes in as a batch of one, since numpy's 0-d scalars
    # round x ** 2 through pow
    rng = np.random.default_rng(8)
    pts = sample_points(fam, 30, rng)
    thetas = fam.theta0 + 0.1 * max(1.0, abs(fam.theta0)) * (rng.random(30) - 0.5)
    pointwise = np.concatenate([fam.eval_fn(float(t), pts[i:i + 1])
                                for i, t in enumerate(thetas)])
    assert np.array_equal(_bits(fam.eval_fn(thetas, pts)), _bits(pointwise))


@pytest.mark.parametrize("fam", representative_families(), ids=lambda f: f.label)
def test_eval_fn_and_deriv_fn_return_fresh_arrays(fam):
    # the flat families scale their direction in place, so a shared
    # array would carry one call's theta into the next
    pts = sample_points(fam, 5, np.random.default_rng(9))
    outs = [fam.eval_fn(fam.theta0, pts), fam.eval_fn(fam.theta0 + 0.1, pts),
            fam.deriv_fn(pts), fam.deriv_fn(pts)]
    for i, a in enumerate(outs):
        for b in outs[i + 1:]:
            assert not np.shares_memory(a, b)


def test_representative_families_cover_every_builtin():
    labels = {fam.label for fam in representative_families()}
    assert {name for name in BUILTIN_FAMILIES
            if not any(label.startswith(name) for label in labels)} == set()


@pytest.mark.parametrize("fam, axis", [(schwarzschild(1.0), 2), (isotropic(1.0), 2),
                                       (flrw_closed(1.0), 1), (de_sitter(1.0), 2)],
                         ids=["schwarzschild-theta", "isotropic-theta", "flrw-chi",
                              "de-sitter-theta"])
def test_closed_axis_takes_its_bounds_and_nothing_beyond(fam, axis):
    assert axis in fam.domain.closed_axes
    x = fam.sample_box.mean(axis=1)
    for edge, beyond in zip(fam.domain.box[axis], (-np.inf, np.inf)):
        x[axis] = edge
        fam.domain.require(x)
        x[axis] = np.nextafter(edge, beyond)
        with pytest.raises(ChartDomainError):
            fam.domain.require(x)


@pytest.mark.parametrize("missing", ["deriv_fn", "sample_box"])
def test_family_requires_derivative_and_sample_box(missing):
    fam = gw_plane_wave()
    kwargs = dict(label=fam.label, chart_name=fam.chart_name, theta0=fam.theta0,
                  eval_fn=fam.eval_fn, deriv_fn=fam.deriv_fn, sample_box=fam.sample_box)
    del kwargs[missing]
    with pytest.raises(TypeError):
        MetricFamily(**kwargs)


def test_schwarzschild_and_isotropic_coincide_at_zero_mass():
    s = schwarzschild(0.0)
    i = isotropic(0.0)
    pts = np.array([[0.0, 2.0, 1.0, 0.5], [1.0, 3.5, 0.7, 2.0]])
    gs = s.eval(0.0, pts)
    gi = i.eval(0.0, pts)
    assert np.array_equal(gs, gi)
    assert np.array_equal(gs[0], np.diag([-1.0, 1.0, 4.0, (2.0 * math.sin(1.0)) ** 2]))


# ---------------------------------------------------------------------------
# bump profiles
# ---------------------------------------------------------------------------

def unit_bump(order=3):
    plateau = np.array([[-1.0, 1.0]] * 4)
    support = np.array([[-2.0, 2.0]] * 4)
    return BumpProfile(plateau=plateau, support=support, order=order)


def test_bump_plateau_and_support_values():
    bump = unit_bump()
    assert bump(np.zeros(4)) == 1.0
    assert bump(np.array([0.0, 0.0, 0.0, 3.0])) == 0.0
    assert bump(np.array([2.0, 0.0, 0.0, 0.0])) == 0.0


def test_bump_transition_midpoint_is_half():
    bump = unit_bump(order=3)
    x = np.array([1.5, 0.0, 0.0, 0.0])
    assert math.isclose(float(bump(x)), 0.5, rel_tol=1e-14)


ACCEPTED_ORDERS = range(1, MAX_SMOOTHSTEP_ORDER + 1)


@pytest.mark.parametrize("order", ACCEPTED_ORDERS, ids=lambda n: f"smoothstep-{n}")
def test_bump_bounded_and_monotone_on_transition(order):
    # the one-ramp bump needs S(0) = 0 and S(1) = 1 exactly
    assert _smoothstep(np.array([0.0, 1.0]), order).tolist() == [0.0, 1.0]
    bump = unit_bump(order=order)
    t = np.linspace(-2.5, 2.5, 401)
    pts = np.zeros((t.size, 4))
    pts[:, 0] = t
    vals = bump(pts)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    rising = vals[(t > -2.0) & (t < -1.0)]
    assert np.all(np.diff(rising) >= 0.0)


def test_order_bound_is_the_last_order_within_the_plateau_eps():
    # within 1e-12 of [0, 1] and of monotone, the generator's plateau test
    # cannot take a transition node for a plateau one
    u = np.linspace(0.0, 1.0, 20001)

    def worst(order):
        s = _smoothstep(u, order)
        return max(-s.min(), s.max() - 1.0, -np.diff(s).min())

    assert max(worst(k) for k in ACCEPTED_ORDERS) <= _PLATEAU_EPS
    assert worst(MAX_SMOOTHSTEP_ORDER + 1) > _PLATEAU_EPS


@pytest.mark.parametrize("order", [0, MAX_SMOOTHSTEP_ORDER + 1, 20, 600])
def test_bump_refuses_orders_outside_the_bound(order):
    with pytest.raises(ValueError, match=f"from 1 to {MAX_SMOOTHSTEP_ORDER} "):
        unit_bump(order=order)


@pytest.mark.parametrize("order", [2.5, True, 3.0])
def test_bump_refuses_an_order_that_is_not_an_integer(order):
    # a float or a bool was once truncated to an integer order
    with pytest.raises(ValueError, match="must be an integer"):
        unit_bump(order=order)


def test_bump_takes_a_numpy_integer_order():
    x = np.random.default_rng(5).uniform(-2.5, 2.5, size=(2000, 4))
    assert unit_bump(order=np.int64(3))(x).tobytes() == unit_bump(order=3)(x).tobytes()


def _two_ramp_bump(bump, x):
    """The bump as two smoothsteps per axis, the edge's one chosen by
    np.where: the formula the one-ramp bump replaced."""
    out = np.ones(x.shape[:-1])
    for ax in range(4):
        s0, s1 = bump.support[ax]
        p0, p1 = bump.plateau[ax]
        c = x[..., ax]
        lo = _smoothstep((c - s0) / (p0 - s0), bump.order)
        hi = _smoothstep((s1 - c) / (s1 - p1), bump.order)
        prof = np.where(c < p0, lo, np.where(c > p1, hi, 1.0))
        prof = np.where((c <= s0) | (c >= s1), 0.0, prof)
        out = out * prof
    return out


@pytest.mark.parametrize("order", ACCEPTED_ORDERS, ids=lambda n: f"smoothstep-{n}")
def test_bump_keeps_every_bit_of_the_two_ramp_formula(order):
    plateau = np.array([[-0.9, 0.9], [2.1, 4.1], [1.15, 2.0], [-0.4, 0.4]])
    support = np.array([[-1.25, 1.25], [1.65, 4.55], [0.97, 2.18], [-0.58, 0.58]])
    bump = BumpProfile(plateau=plateau, support=support, order=order)
    rng = np.random.default_rng(order)
    lo, hi = support[:, 0] - 0.2, support[:, 1] + 0.2
    pts = [lo + rng.random((4000, 4)) * (hi - lo)]
    # each of s0, p0, p1, s1 and one float either side, on each axis, with
    # the other axes on the plateau, in the transition or off the support
    edges = np.concatenate([support, plateau], axis=1)
    for ax in range(4):
        for edge in edges[ax]:
            for c in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                block = lo + rng.random((8, 4)) * (hi - lo)
                block[:4] = plateau.mean(axis=1)
                block[:, ax] = c
                pts.append(block)
    x = np.concatenate(pts).reshape(-1, 2, 4)
    got, want = bump(x), _two_ramp_bump(bump, x)
    assert got.shape == want.shape == x.shape[:-1]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_smoothstep_seam_derivatives_vanish_to_declared_order():
    # numeric derivatives of chi at the support edge stay O(h) small up
    # to the declared order, one above blows up to O(1)
    order = 3
    bump = unit_bump(order=order)
    h = 1e-3
    t = np.arange(-8, 9) * h - 2.0

    def chi(tv):
        p = np.zeros((np.size(tv), 4))
        p[:, 0] = tv
        return bump(p)

    vals = chi(t)
    for k in range(1, order + 1):
        vals = np.diff(vals) / h
        assert abs(vals[len(vals) // 2]) < 1.0, k


def test_bump_requires_plateau_strictly_inside_support():
    plateau = np.array([[-1.0, 1.0]] * 4)
    support = plateau.copy()
    with pytest.raises(ValueError):
        BumpProfile(plateau=plateau, support=support)


@pytest.mark.parametrize("box", ["plateau", "support"])
@pytest.mark.parametrize("end", [math.nan, math.inf])
def test_bump_rejects_non_finite_boxes(box, end):
    boxes = {"plateau": np.array([[-1.0, 1.0]] * 4), "support": np.array([[-2.0, 2.0]] * 4)}
    boxes[box][1, 1] = end
    with pytest.raises(ValueError, match="finite"):
        BumpProfile(**boxes)


def test_bump_owns_its_boxes():
    # a later write into the caller's boxes reaches neither the bump nor
    # its values, and the bump's own boxes refuse writes
    plateau = np.array([[-1.0, 1.0]] * 4)
    support = np.array([[-2.0, 2.0]] * 4)
    bump = BumpProfile(plateau=plateau, support=support)
    pts = np.random.default_rng(2).uniform(-2.5, 2.5, size=(50, 4))
    before = bump(pts).tobytes()
    plateau[:] = [[0.0, 0.5]] * 4
    support[:] = [[-0.1, 0.6]] * 4
    assert bump(pts).tobytes() == before
    for own in (bump.plateau, bump.support):
        with pytest.raises(ValueError, match="read-only"):
            own[0, 0] = 0.0


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localized_family_invariant():
    bump = unit_bump()
    base = gw_plane_wave()
    fam = localize(base, bump)
    assert fam.bump is bump and fam.label == base.label and base.bump is None
    theta = 0.25
    # plateau point: full perturbation
    x_in = np.array([0.5, -0.5, 0.2, 0.0])
    np.testing.assert_array_equal(fam.eval(theta, x_in), base.eval(theta, x_in))
    # outside support: fiducial metric regardless of theta
    x_out = np.array([0.0, 0.0, 0.0, 2.5])
    assert np.array_equal(fam.eval(theta, x_out), ETA)
    # theta0 reproduces the fiducial metric everywhere
    x_shell = np.array([1.5, 0.0, 0.0, 0.0])
    assert np.array_equal(fam.eval(0.0, x_shell), ETA)


def test_localized_fiducial_metric_skips_the_bump_with_the_same_bits():
    # theta0 + (theta0 - theta0) chi == theta0, so eval need not compute chi
    rng = np.random.default_rng(5)
    for base in (gw_plane_wave(0.3), schwarzschild(0.0), isotropic(0.0), flrw_closed(2.0)):
        lo, width = base.sample_box[:, 0], np.ptp(base.sample_box, axis=1)
        bump = BumpProfile(plateau=lo[:, None] + width[:, None] * [0.3, 0.7],
                           support=lo[:, None] + width[:, None] * [0.1, 0.9])
        fam = localize(base, bump)
        pts = rng.uniform(lo, lo + width, size=(500, 4))
        bumped = fam.eval_fn(fam.theta0 + (fam.theta0 - fam.theta0) * bump(pts), pts)
        assert np.array_equal(fam.eval(fam.theta0, pts), bumped)


def test_localized_derivative_is_chi_times_base():
    bump = unit_bump()
    base = gw_plane_wave()
    fam = localize(base, bump)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.2, 2.2, size=(200, 4))
    chi = bump(pts)
    expect = chi[:, None, None] * base.deriv(pts)
    assert np.max(np.abs(fam.deriv(pts) - expect)) <= 1e-10


def test_localized_derivative_matches_finite_difference_on_shell():
    bump = unit_bump()
    fam = localize(gw_plane_wave(), bump)
    x = np.array([1.37, 0.4, -0.9, 0.0])
    h = 1e-6
    fd = (fam.eval(h, x) - fam.eval(-h, x)) / (2.0 * h)
    np.testing.assert_allclose(fd, fam.deriv(x), rtol=1e-8, atol=1e-10)


def test_localize_rejects_support_outside_chart_domain():
    bump = BumpProfile(plateau=np.array([[-0.5, 0.5]] * 4),
                       support=np.array([[-1.0, 1.0]] * 4))
    with pytest.raises(ChartDomainError):
        localize(schwarzschild(1.0), bump)  # support crosses r <= 2.5 m


def _schwarzschild_support(r_lo, theta_hi=2.0):
    return BumpProfile(plateau=np.array([[-0.5, 0.5], [3.0, 4.0], [1.0, 1.5], [-0.5, 0.5]]),
                       support=np.array([[-1.0, 1.0], [r_lo, 4.5], [0.5, theta_hi],
                                         [-1.0, 1.0]]))


def test_localize_rejects_a_support_whose_one_outside_point_is_a_corner():
    # theta is a closed axis: a support reaching pi is inside, one ulp
    # beyond it is not, and the point the check names is a corner
    fam = schwarzschild(1.0)
    assert localize(fam, _schwarzschild_support(2.6, math.pi)).bump is not None
    theta_hi = float(np.nextafter(math.pi, np.inf))
    corner = [-1.0, 2.6, theta_hi, -1.0]
    with pytest.raises(ChartDomainError, match=re.escape(f"point {corner} outside")):
        localize(fam, _schwarzschild_support(2.6, theta_hi))


def test_localize_checks_the_open_r_face_exactly():
    fam = schwarzschild(1.0)
    with pytest.raises(ChartDomainError):
        localize(fam, _schwarzschild_support(2.5))
    assert localize(fam, _schwarzschild_support(np.nextafter(2.5, np.inf))).bump is not None


def _plateau_shell_outside_points(rng, n=200):
    # unit_bump: plateau |x_i| <= 1, support |x_i| < 2
    plateau = rng.uniform(-1.0, 1.0, size=(n, 4))
    shell = rng.uniform(-1.0, 1.0, size=(n, 4))
    shell[:, 0] = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    outside = rng.uniform(-3.0, 3.0, size=(n, 4))
    outside[:, 1] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
    return np.concatenate([plateau, shell, outside])


@pytest.mark.parametrize("theta0", [0.0, 0.3, -0.0])
def test_localized_fiducial_metric_is_bitwise_the_base(theta0):
    base = gw_plane_wave(theta0)
    fam = localize(base, unit_bump())
    pts = _plateau_shell_outside_points(np.random.default_rng(11))
    assert np.array_equal(fam.eval(fam.theta0, pts), base.eval(base.theta0, pts))


def test_localized_orthonormal_frame_is_bitwise_the_base():
    base = flrw_closed(2.0)
    bump = BumpProfile(plateau=np.array([[1.0, 2.0], [0.5, 1.0], [1.0, 2.0], [0.0, 1.0]]),
                       support=np.array([[0.8, 2.2], [0.4, 1.1], [0.8, 2.3], [-0.5, 1.5]]))
    fam = localize(base, bump)
    fn = em_plane_wave(1.0, 3.0)
    rng = np.random.default_rng(12)
    box = np.array([[0.7, 2.3], [0.35, 1.15], [0.7, 2.4], [-0.6, 1.6]])
    pts = rng.uniform(box[:, 0], box[:, 1], size=(500, 4))
    assert np.array_equal(in_orthonormal_frame(fn, fam)(pts),
                          in_orthonormal_frame(fn, base)(pts))


def test_builtin_family_registry_names():
    assert set(BUILTIN_FAMILIES) == {
        "gw_plane_wave", "minkowski_component", "g00_profile_perturbation",
        "schwarzschild", "isotropic", "flrw_closed", "de_sitter"}


# ---------------------------------------------------------------------------
# kernels run once per distinct input
# ---------------------------------------------------------------------------

#: (kernel, core axes, core shape of each input); the matrices get 4 I
#: added so that det and inv stay well conditioned
KERNELS = {
    "det": (np.linalg.det, 2, [(4, 4)]),
    "inv": (np.linalg.inv, 2, [(4, 4)]),
    "em_stress_tensor": (em_stress_tensor, 1, [(3,), (3,)]),
}
_NAN_A = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
_NAN_B = np.array([0x7FF8000000000002], dtype=np.uint64).view(float)[0]
#: (batch shape, axes repeated by construction, twist, batch shape the
#: kernel must see).  A twist changes index 1 of axis 1 in one input
#: only: a +0.0 becomes -0.0, a NaN payload becomes another one, or any
#: value changes in the last input; or it changes index 2 of axis 1, past
#: the index-1 slice that is compared first; or the inputs stay
#: zero-stride views.
CASES = {
    "one-repeated-axis": ((3, 4, 5), {1}, None, (3, 1, 5)),
    "two-repeated-axes": ((3, 4, 5), {0, 2}, None, (1, 4, 1)),
    "all-repeated": ((2, 3, 4, 5), {0, 1, 2, 3}, None, (1, 1, 1, 1)),
    "none-repeated": ((3, 4, 5), set(), None, (3, 4, 5)),
    "length-1-axis": ((3, 1, 5), {2}, None, (3, 1, 1)),
    "zero-size": ((0, 4, 5), {1}, None, (0, 1, 1)),
    "no-batch": ((), set(), None, ()),
    "signed-zero": ((3, 4, 5), {1}, "signed-zero", (3, 4, 5)),
    "nan-payloads": ((3, 4, 5), {1}, "nan-payloads", (3, 4, 5)),
    "same-nan-payload": ((3, 4, 5), {1}, "same-nan-payload", (3, 1, 5)),
    "last-input-differs": ((3, 4, 5), {1}, "last-input-differs", (3, 4, 5)),
    "later-index-differs": ((3, 4, 5), {1}, "later-index-differs", (3, 4, 5)),
    "broadcast-views": ((3, 4, 5), {0, 2}, "broadcast-views", (1, 4, 1)),
}


def _inputs(kernel_name, case, rng):
    _, core_ndim, cores = KERNELS[kernel_name]
    shape, repeated, twist, _ = CASES[case]
    distinct = tuple(1 if ax in repeated else n for ax, n in enumerate(shape))
    arrays = []
    for core in cores:
        base = rng.standard_normal(distinct + core) + (4.0 * np.eye(4) if core == (4, 4) else 0.0)
        view = np.broadcast_to(base, shape + core)
        arrays.append(view if twist == "broadcast-views" else np.ascontiguousarray(view))
    first = (0,) * len(cores[0])
    at_1 = (slice(None), 1, Ellipsis) + first
    if twist == "signed-zero":
        arrays[0][(Ellipsis,) + first] = 0.0
        arrays[0][at_1] = -0.0
    elif twist in ("nan-payloads", "same-nan-payload"):
        arrays[0][(Ellipsis,) + first] = _NAN_A
        arrays[0][at_1] = _NAN_B if twist == "nan-payloads" else _NAN_A
    elif twist == "last-input-differs":
        arrays[-1][at_1] += 1.0
    elif twist == "later-index-differs":
        arrays[0][(slice(None), 2, Ellipsis) + first] += 1.0
    return arrays


def _bits(a):
    """The uint64 bits of a, with the sign bit of every NaN cleared: where
    two NaNs of opposite sign meet in an addition (the diagonal of
    em_stress_tensor), numpy's loops return either, depending on the
    array's length, so the sign of a NaN output depends on the batch
    shape even for the kernel alone.  Its payload does not."""
    a = np.asarray(a)
    bits = a.view(np.uint64).copy()
    bits[np.isnan(a)] &= np.uint64(0x7FFFFFFFFFFFFFFF)
    return bits


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_per_distinct_matches_the_kernel_bit_for_bit(kernel_name, case):
    kernel, core_ndim, _ = KERNELS[kernel_name]
    arrays = _inputs(kernel_name, case, np.random.default_rng(5))
    seen = []

    def spy(*args):
        seen.append(args[0].shape[:args[0].ndim - core_ndim])
        return kernel(*args)

    with np.errstate(invalid="ignore"):
        direct = kernel(*arrays)
        out = _per_distinct(spy, core_ndim, *arrays)
    assert seen == [CASES[case][3]]
    assert out.shape == direct.shape
    assert np.array_equal(_bits(out), _bits(direct))
    assert not out.flags.writeable
    if out.size:
        with pytest.raises(ValueError, match="read-only"):
            out[(0,) * out.ndim] = 1.0
