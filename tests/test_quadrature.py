import itertools
import math

import numpy as np
import pytest

from metricprobe import quadrature
from metricprobe.quadrature import RegionSpec, axis_rule, face_integral, integrate, region_rules

UNIT_BOX = np.array([[0.0, 1.0]] * 4)


def test_region_validation():
    with pytest.raises(ValueError):
        RegionSpec(box=np.array([[0.0, 1.0]] * 3), resolution=(3, 3, 3, 3))
    with pytest.raises(ValueError):
        RegionSpec(box=np.array([[1.0, 0.0]] + [[0.0, 1.0]] * 3),
                   resolution=(3, 3, 3, 3))
    with pytest.raises(ValueError):
        RegionSpec(box=UNIT_BOX, resolution=(1, 3, 3, 3))
    for end in (math.nan, math.inf, -math.inf):
        box = UNIT_BOX.copy()
        box[2, 1] = end
        with pytest.raises(ValueError, match="finite"):
            RegionSpec(box=box, resolution=3)
    # scalar resolution broadcasts
    r = RegionSpec(box=UNIT_BOX, resolution=5)
    assert r.resolution == (5, 5, 5, 5)


def test_region_owns_its_box():
    # a later write into the caller's box reaches neither the region nor
    # its rules and integrals, and the region's own box refuses writes
    box = np.array([[-0.5, 1.5], [2.0, 2.75], [0.1, 3.1], [-4.0, -1.0]])
    region = RegionSpec(box=box, resolution=(3, 2, 5, 4))

    def outputs():
        rules = [a.tobytes() for rule in region_rules(region) for a in rule]
        return rules, integrate(lambda p: p[..., 0] * p[..., 1], region)

    before = outputs()
    box[:] = [[1.0, 0.0]] * 4
    assert outputs() == before
    with pytest.raises(ValueError, match="read-only"):
        region.box[0, 0] = 0.0


@pytest.mark.parametrize("axis", [0, 1, 3])
def test_face_integral_is_exact_on_multilinear_integrands(axis):
    # the trapezoid rule integrates a function linear in each free axis
    # exactly, whatever the node counts of a non-cubic box
    box = np.array([[-0.5, 1.5], [2.0, 2.75], [0.1, 3.1], [-4.0, -1.0]])
    region = RegionSpec(box=box, resolution=(3, 2, 5, 4))
    value = 0.3 * box[axis, 0] + 0.7 * box[axis, 1]
    free = [a for a in range(4) if a != axis]
    slopes = {0: 0.25, 1: -1.5, 2: 2.0, 3: 0.5}

    def fn(pts):
        assert pts.shape == tuple(region.resolution[a] for a in free) + (4,)
        assert np.all(pts[..., axis] == value)
        return math.prod(1.0 + slopes[a] * pts[..., a] for a in free)

    exact = math.prod((hi - lo) * (1.0 + slopes[a] * 0.5 * (lo + hi))
                      for a, (lo, hi) in enumerate(box) if a != axis)
    assert face_integral(fn, region, axis, value) == pytest.approx(exact, rel=1e-14)


def test_scaled_resolution():
    r = RegionSpec(box=UNIT_BOX, resolution=(17, 17, 9, 9))
    assert r.scaled(2.0).resolution == (33, 33, 17, 17)
    assert r.scaled(0.5).resolution == (9, 9, 5, 5)
    assert r.scaled(0.01).resolution == (2, 2, 2, 2)
    for mult in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            r.scaled(mult)
    # the factor 1 keeps the region, even an axis with an even node count
    even = RegionSpec(box=UNIT_BOX, resolution=(10, 9, 9, 9))
    assert even.scaled(1.0) is even
    # the interval count rounds to an even number, so every axis halves
    assert RegionSpec(box=UNIT_BOX, resolution=17).scaled(1.3).resolution[0] == 21
    assert RegionSpec(box=UNIT_BOX, resolution=33).scaled(0.4).resolution[0] == 13
    for mult in np.linspace(0.05, 3.0, 60):
        for n in (3, 9, 13, 17, 33):
            # one scaled axis: 97^4 nodes would exceed MAX_NODES
            m = RegionSpec(box=UNIT_BOX, resolution=(n, 2, 2, 2)).scaled(mult).resolution[0]
            assert m == 2 or m % 2 == 1


def test_node_ceiling():
    assert RegionSpec(box=UNIT_BOX, resolution=(2, 2, 2048, 4096)).resolution[3] == 4096
    with pytest.raises(ValueError, match="ceiling"):
        RegionSpec(box=UNIT_BOX, resolution=(2, 2, 2048, 4097))
    # the finest bundled run, the chart audit at --resolution 2.0, fits;
    # its next refinement does not
    audit = RegionSpec(box=UNIT_BOX, resolution=33)
    assert math.prod(audit.scaled(2.0).resolution) == 65 ** 4 <= quadrature.MAX_NODES
    for mult in (3.0, 1e30):
        with pytest.raises(ValueError, match="ceiling"):
            audit.scaled(mult)


def test_trapezoid_exact_on_multilinear():
    r = RegionSpec(box=UNIT_BOX, resolution=3)
    val, est, _ = integrate(lambda p: 2.0 + p[..., 0] - 3.0 * p[..., 3], r)
    assert math.isclose(val, 2.0 + 0.5 - 1.5, rel_tol=1e-14)
    # every half rule is exact too
    assert est <= 1e-14


def test_trapezoid_volume_of_box():
    box = np.array([[0.0, 2.0], [1.0, 4.0], [-1.0, 1.0], [0.0, 0.5]])
    r = RegionSpec(box=box, resolution=(4, 3, 5, 2))
    val = integrate(lambda p: np.ones(p.shape[:-1]), r)[0]
    assert math.isclose(val, 2.0 * 3.0 * 2.0 * 0.5, rel_tol=1e-14)


def test_trapezoid_second_order_on_generic_smooth_integrand():
    exact = (1.0 - math.cos(1.0)) * 1.0
    errs = []
    for n in (5, 9, 17):
        r = RegionSpec(box=UNIT_BOX, resolution=(n, 2, 2, 2))
        errs.append(abs(integrate(lambda p: np.sin(p[..., 0]), r)[0] - exact))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_error_estimate_bounds_true_error():
    # compactly supported smooth bump: trapezoid converges fast, and the
    # |fine - coarse| estimate stays above the true fine-grid error
    def bump(p):
        u = 2.0 * p[..., 0] - 1.0
        out = np.zeros_like(u)
        m = np.abs(u) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return out

    exact_r = RegionSpec(box=UNIT_BOX, resolution=(257, 2, 2, 2))
    exact = integrate(bump, exact_r)[0]
    r = RegionSpec(box=UNIT_BOX, resolution=(17, 2, 2, 2))
    val, est, _ = integrate(bump, r)
    assert abs(val - exact) <= est
    assert est < 1e-2


def test_estimate_is_zero_when_no_axis_halves():
    fn = lambda p: np.cos(p[..., 0] * p[..., 1]) + p[..., 3]
    val, est, half = integrate(fn, RegionSpec(box=UNIT_BOX, resolution=(9, 9, 3, 3)))
    assert est > 0.0
    # 2 nodes or an even count: every axis keeps its fine rule
    val, est, half = integrate(fn, RegionSpec(box=UNIT_BOX, resolution=(2, 4, 2, 6)))
    assert est == 0.0
    assert half == val


def test_integration_deterministic():
    r = RegionSpec(box=UNIT_BOX, resolution=(9, 9, 9, 9))
    fn = lambda p: np.exp(-np.sum(p ** 2, axis=-1))
    assert integrate(fn, r) == integrate(fn, r)


def test_stacked_integrands_sum_as_they_would_alone():
    region = RegionSpec(box=np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]]),
                        resolution=(9, 7, 5, 6))
    fns = [lambda x: np.exp(-np.sum(x ** 2, axis=-1)),
           lambda x: np.sin(3.0 * x[..., 0]) * x[..., 1] * x[..., 3],
           lambda x: np.where(x[..., 2] > 0.6, x[..., 1], 0.0)]
    values, estimates, halves = integrate(lambda x: np.stack([f(x) for f in fns]), region)
    assert values.shape == estimates.shape == halves.shape == (3,)
    assert list(zip(values.tolist(), estimates.tolist(), halves.tolist())) \
        == [integrate(f, region) for f in fns]


def _vanishing_outside(box):
    """A smooth integrand that is exactly 0 outside the closed box."""
    box = np.asarray(box, dtype=float)

    def fn(x):
        u = (2.0 * x - box[:, 0] - box[:, 1]) / (box[:, 1] - box[:, 0])
        return np.prod(np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0), axis=-1) \
            * (1.0 + x[..., 0] - x[..., 2] * x[..., 3])
    return fn


_SUPPORT_REGION = RegionSpec(box=np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]]),
                             resolution=(9, 7, 5, 6))


@pytest.mark.parametrize("box", [
    [[-0.6, 0.2], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]],    # not aligned to nodes
    [[-2.0, 1.0], [-1.0, 3.0], [0.0, 2.0], [-1.0, 1.0]],    # covers the region
    [[-0.6, 0.2], [0.4, 1.5], [1.2, 1.5], [-0.5, 0.3]],     # beyond the grid on axis 2
    [[-0.98, -0.85], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]],  # between axis-0 nodes
], ids=["unaligned", "covering", "beyond-axis2", "between-axis0-nodes"])
@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
def test_support_evaluates_only_inside_and_keeps_every_bit(box, stacked):
    f = _vanishing_outside(box)
    fn = (lambda x: np.stack([f(x), -2.0 * f(x) * x[..., 1], f(x) ** 2])) if stacked else f
    seen = []

    def counted(x):
        seen.append(x.reshape(-1, 4))
        return fn(x)

    full = integrate(fn, _SUPPORT_REGION)
    pruned = integrate(counted, _SUPPORT_REGION, support=box)
    for got, want in zip(pruned, full, strict=True):
        assert type(got) is type(want)
        assert np.shape(got) == ((3,) if stacked else ())
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    pts = np.concatenate(seen)
    lo, hi = np.asarray(box)[:, 0], np.asarray(box)[:, 1]
    assert np.all((pts >= lo) & (pts <= hi))
    inside = np.prod([np.count_nonzero((x >= a) & (x <= b)) for (x, _), (a, b)
                      in zip(region_rules(_SUPPORT_REGION), box)])
    assert len(pts) == inside
    if inside == 0:
        assert np.all(np.asarray(pruned) == 0.0)


@pytest.mark.parametrize("axis, box", [
    (0, [[0.6, 0.9], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]]),   # beyond both axis-0 faces
    (1, [[-0.6, 0.2], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]]),  # between the axis-1 faces
    (3, [[-0.6, 0.2], [0.4, 1.5], [1.2, 1.5], [-0.8, 0.8]]),   # no face node on axis 2
], ids=["axis0-beyond", "axis1-between", "axis3-off-grid"])
def test_face_support_that_misses_the_face_skips_it(axis, box):
    def never(pts):
        raise AssertionError("fn called on a face the support misses")

    for side in (0, 1):
        value = _SUPPORT_REGION.box[axis, side]
        got = face_integral(never, _SUPPORT_REGION, axis, value, support=box)
        assert type(got) is float and got == 0.0
        assert face_integral(_vanishing_outside(box), _SUPPORT_REGION, axis, value) == 0.0


@pytest.mark.parametrize("axis", [0, 1, 2, 3])
def test_face_support_that_cuts_the_face_keeps_every_bit(axis):
    box = np.array([[-1.2, 0.2], [0.4, 2.5], [0.2, 0.9], [-0.5, 0.8]])
    value = 0.5 * (box[axis, 0] + box[axis, 1])
    f = _vanishing_outside(box)
    seen = []

    def counted(pts):
        seen.append(pts.reshape(-1, 4))
        return f(pts)

    full = face_integral(f, _SUPPORT_REGION, axis, value)
    cut = face_integral(counted, _SUPPORT_REGION, axis, value, support=box)
    assert full != 0.0
    assert np.float64(cut).tobytes() == np.float64(full).tobytes()
    pts = np.concatenate(seen)
    assert np.all((pts >= box[:, 0]) & (pts <= box[:, 1]))
    assert len(pts) == np.prod([np.count_nonzero((x >= lo) & (x <= hi))
                                for a, ((x, _), (lo, hi)) in enumerate(zip(
                                    region_rules(_SUPPORT_REGION), box)) if a != axis])


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("axis", [0, 2])
def test_face_on_the_support_edge_is_evaluated(axis, side):
    # the support is closed: a face lying exactly on its edge, where fn
    # is not 0, is evaluated
    box = np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]])
    value = _SUPPORT_REGION.box[axis, side]
    box[axis] = (value, value + 0.4) if side == 0 else (value - 0.4, value)

    def fn(pts):
        inside = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=-1)
        return np.where(inside, 1.0 + pts[..., 1] * pts[..., 3], 0.0)

    full = face_integral(fn, _SUPPORT_REGION, axis, value)
    assert full != 0.0
    assert face_integral(fn, _SUPPORT_REGION, axis, value, support=box) == full


def _one_sum_face_integral(fn, region, axis, value, support=None):
    """The face rule as one sum: fn on the face nodes inside support,
    written into a zeroed full face, times the product of the three free
    axes' weights, in one np.sum; 0.0 for a face the support misses."""
    free = [a for a in range(4) if a != axis]
    (xa, wa), (xb, wb), (xc, wc) = (axis_rule(*region.box[a], region.resolution[a])
                                    for a in free)
    w3 = wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
    face = (slice(None),) * 3
    if support is not None:
        box = np.asarray(support, dtype=float)
        face = tuple(slice(int(np.searchsorted(x, box[a, 0], side="left")),
                           int(np.searchsorted(x, box[a, 1], side="right")))
                     for x, a in zip((xa, xb, xc), free))
        if not box[axis, 0] <= value <= box[axis, 1] or any(s.start >= s.stop for s in face):
            return 0.0
    mesh = np.stack(np.meshgrid(xa[face[0]], xb[face[1]], xc[face[2]], indexing="ij"), axis=-1)
    vals = np.zeros(w3.shape)
    vals[face] = fn(np.insert(mesh, axis, value, axis=-1))
    return float(np.sum(vals * w3))


_FACE_CUT = np.array([[-1.2, 0.2], [0.4, 2.5], [0.2, 0.9], [-0.5, 0.8]])


@pytest.mark.parametrize("support", [None, _FACE_CUT], ids=["whole-face", "cut-face"])
@pytest.mark.parametrize("resolution", [(9, 7, 5, 6), (19, 33, 17, 21)])
@pytest.mark.parametrize("axis", [0, 1, 2, 3])
def test_face_integral_keeps_the_one_sum_bits(axis, resolution, support):
    region = RegionSpec(box=_SUPPORT_REGION.box, resolution=resolution)
    f = _vanishing_outside(_FACE_CUT)
    fn = f if support is not None else (
        lambda pts: np.exp(np.sin(3.0 * pts[..., 0]) + pts[..., 1] * pts[..., 2]) - pts[..., 3])
    x = region_rules(region)[axis][0]
    for value in (x[0], x[len(x) // 2], 0.37 * x[1] + 0.63 * x[2], x[-1]):
        got = face_integral(fn, region, axis, value, support)
        want = _one_sum_face_integral(fn, region, axis, value, support)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_estimate_passes_support_through():
    box = [[-0.6, 0.2], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]]
    fn = _vanishing_outside(box)
    assert (integrate(fn, _SUPPORT_REGION, support=box)
            == integrate(fn, _SUPPORT_REGION))


def _per_slice_reference(fn, region):
    """The documented sums with one fn call per axis-0 slice on the full
    grid: weighted slices summed per integrand, and per node class of
    the half rules, then weighted along axis 0.  The first class takes
    the even nodes on every halving axis: the all-even half rule."""
    (x0, w0), (x1, w1), (x2, w2), (x3, w3) = region_rules(region)
    w123 = w1[:, None, None] * w2[None, :, None] * w3[None, None, :]
    mesh = np.stack(np.meshgrid(x1, x2, x3, indexing="ij"), axis=-1)
    halves = [[slice(0, None, 2), slice(1, None, 2)] if n >= 3 and n % 2 else [slice(None)]
              for n in region.resolution]
    classes = list(itertools.product(*halves[1:]))
    rows, parts = [], []
    for t in x0:
        pts = np.concatenate([np.full(mesh.shape[:-1] + (1,), t), mesh], axis=-1)
        values = np.asarray(fn(pts), dtype=float)
        slabs = (values * w123).reshape((-1,) + w123.shape)
        rows.append([np.sum(slab) for slab in slabs])
        parts.append([[np.sum(slab[c]) for c in classes] for slab in slabs])
    rows, parts = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (rows, parts))
    value = np.sum(rows * w0, axis=-1)
    scale = 2.0 ** sum(len(h) == 2 for h in halves)
    estimate = np.max([np.abs(value[:, None] - scale * np.sum(parts[..., c] * w0[c], axis=-1))
                       for c in halves[0]], axis=(0, 2))
    even = halves[0][0]
    half = scale * np.sum(parts[:, 0, even] * w0[even], axis=-1)
    if values.ndim == 4:
        return value, estimate, half
    return float(value[0]), float(estimate[0]), float(half[0])


_BLOCK_REGION = RegionSpec(box=np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]]),
                           resolution=(13, 7, 5, 6))


@pytest.mark.parametrize("budget", [None, 500, 100, 20],
                         ids=["default", "two-slices", "one-slice", "under-one-slice"])
@pytest.mark.parametrize("support", [
    None,
    [[-0.6, 0.2], [0.4, 1.5], [0.45, 0.9], [-0.5, 0.3]],
    [[-0.6, 0.2], [0.4, 1.5], [1.2, 1.5], [-0.5, 0.3]],
], ids=["no-support", "support", "support-misses-grid"])
@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
def test_blocks_keep_every_bit_and_stay_within_budget(monkeypatch, budget, support, stacked):
    if budget is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", budget)
    box = support if support is not None else _BLOCK_REGION.box
    f = _vanishing_outside(box) if support is not None else \
        (lambda x: np.exp(-np.sum(x ** 2, axis=-1)) * np.cos(3.0 * x[..., 0]))
    fn = (lambda x: np.stack([f(x), -2.0 * f(x) * x[..., 1], f(x) ** 2])) if stacked else f
    calls = []

    def recorded(x):
        calls.append(x.reshape(-1, 4).copy())
        return fn(x)

    got = integrate(recorded, _BLOCK_REGION, support=support)
    want = _per_slice_reference(fn, _BLOCK_REGION)
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    counts = [np.count_nonzero((x >= lo) & (x <= hi)) for (x, _), (lo, hi)
              in zip(region_rules(_BLOCK_REGION), box)]
    n_slices, per_slice = counts[0], int(np.prod(counts[1:]))
    if per_slice == 0:
        n_slices = 1   # a missed box still makes one empty call
    limit = quadrature._BLOCK_NODES
    assert all(len(x) <= max(limit, per_slice) for x in calls)
    assert len(calls) == -(-n_slices // max(1, limit // max(1, per_slice)))
    pts = np.concatenate(calls)
    assert len(pts) == n_slices * per_slice
    assert len(np.unique(pts, axis=0)) == len(pts)
    lo, hi = np.asarray(box)[:, 0], np.asarray(box)[:, 1]
    assert np.all((pts >= lo) & (pts <= hi))


def _half_rule_weights(lo, hi, n, parity):
    """One nested half rule on an n-node axis, built from scratch: the
    trapezoid rule on the even nodes (parity 0) or the midpoint rule on
    the odd nodes (parity 1), each with spacing 2 (hi - lo) / (n - 1).
    An axis with 2 nodes or an even count keeps its fine rule."""
    if n < 3 or n % 2 == 0:
        return axis_rule(lo, hi, n)[1]
    w = np.zeros(n)
    if parity == 0:
        w[0::2] = axis_rule(lo, hi, (n + 1) // 2)[1]
    else:
        w[1::2] = 2.0 * (hi - lo) / (n - 1)
    return w


@pytest.mark.parametrize("support", [None, [[-0.6, 0.2], [0.2, 1.9], [0.2, 1.1], [-0.5, 0.3]]],
                         ids=["no-support", "support"])
def test_estimate_matches_brute_force_half_rules(support):
    # axis 1 has an even count and axis 2 has 2 nodes: both keep the fine
    # rule, so of the 16 parity choices 4 distinct half rules remain
    region = RegionSpec(box=np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]]),
                        resolution=(9, 6, 2, 7))
    f = _vanishing_outside(support) if support is not None else \
        (lambda x: np.exp(-np.sum(x ** 2, axis=-1)) * np.cos(3.0 * x[..., 0]))
    fn = lambda x: np.stack([f(x), -2.0 * f(x) * x[..., 1], np.sin(4.0 * x[..., 3] + 1.0) * f(x)])
    value, estimate, half = integrate(fn, region, support=support)

    nodes = [x for x, _ in region_rules(region)]
    grid = fn(np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1))

    def rule_sum(weights):
        return np.einsum("kabcd,a,b,c,d->k", grid, *weights)

    fine = rule_sum([w for _, w in region_rules(region)])
    halves = [rule_sum([_half_rule_weights(lo, hi, n, p) for (lo, hi), n, p
                        in zip(region.box, region.resolution, parities)])
              for parities in itertools.product((0, 1), repeat=4)]
    brute = np.max(np.abs(fine - np.array(halves)), axis=0)
    scale = np.abs(fine)
    assert np.all(np.abs(value - fine) <= 1e-14 * scale)
    assert np.all(np.abs(estimate - brute) <= 1e-14 * scale)
    # the parities are enumerated with all-even first
    assert np.all(np.abs(half - halves[0]) <= 1e-14 * scale)
    assert np.all(brute > 1e-6 * scale)


def _half_interval_region(region):
    """The region of integrate's half: (n + 1) // 2 nodes on each axis
    with an odd count n >= 3, the fine count on the others."""
    return RegionSpec(box=region.box, resolution=tuple(
        (n + 1) // 2 if n >= 3 and n % 2 else n for n in region.resolution))


@pytest.mark.parametrize("resolution", [(9, 7, 5, 3), (5, 6, 2, 9), (2, 9, 4, 2), (33, 17, 2, 33)],
                         ids=["odd", "odd-even-2node", "2node-leading", "fine"])
@pytest.mark.parametrize("support", [
    None,
    [[-1.2, 0.2], [0.4, 1.5], [0.2, 1.1], [-0.8, 0.3]],
    [[-0.6, 0.2], [0.4, 1.5], [1.2, 1.5], [-0.5, 0.3]],
], ids=["no-support", "support", "support-misses-grid"])
@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stacked"])
def test_half_is_the_half_interval_region_bit_for_bit(resolution, support, stacked):
    region = RegionSpec(box=np.array([[-1.0, 0.5], [0.0, 2.0], [0.3, 1.0], [-0.7, 0.7]]),
                        resolution=resolution)
    f = _vanishing_outside(support) if support is not None else \
        (lambda x: np.exp(-np.sum(x ** 2, axis=-1)) * np.cos(3.0 * x[..., 0]))
    fn = (lambda x: np.stack([f(x), -2.0 * f(x) * x[..., 1], f(x) ** 2])) if stacked else f
    _, _, half = integrate(fn, region, support=support)
    coarse = integrate(fn, _half_interval_region(region), support=support)[0]
    assert type(half) is type(coarse)
    assert np.shape(half) == ((3,) if stacked else ())
    assert np.asarray(half).tobytes() == np.asarray(coarse).tobytes()
    # not a trivial 0 == 0, except where the box misses the grid
    misses = support is not None and support[2][0] > region.box[2, 1]
    assert np.all((np.asarray(half) == 0.0) == misses)
