"""Tensor-product composite trapezoid quadrature over 4D coordinate boxes.

The trapezoid rule is superalgebraic on smooth compactly supported
integrands.  On an axis with an odd node count the nodes hold two nested
half-resolution rules, the trapezoid rule on the even nodes and the
midpoint rule on the odd ones, whose average is the fine rule; integrate
estimates its error from them, and returns the all-even one, without
evaluating any node twice.  Sums are accumulated with numpy's pairwise
reduction, which is deterministic for a fixed evaluation order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import _checked_box

#: node budget of one fn call in integrate: whole axis-0 slices are
#: grouped up to this many nodes, a larger slice is evaluated alone
_BLOCK_NODES = 2048
#: most nodes a region may have, about 76^4: the finest bundled run, the
#: chart audit at --resolution 2.0 (65^4), fits, its next refinement does
#: not; an axis-0 slice, never split, can hold up to half of them
MAX_NODES = 2 ** 25


@dataclass(frozen=True)
class RegionSpec:
    """A coordinate box with per-axis resolution: trapezoid nodes per
    axis (>= 2, endpoints included), at most MAX_NODES in all."""

    box: np.ndarray
    resolution: tuple

    def __post_init__(self):
        b = _checked_box(self.box, "box")
        res = tuple(int(n) for n in np.broadcast_to(self.resolution, (4,)))
        if any(n < 2 for n in res):
            raise ValueError("trapezoid rule needs at least 2 nodes per axis")
        if math.prod(res) > MAX_NODES:
            raise ValueError(f"resolution {res} exceeds the ceiling of {MAX_NODES} nodes")
        object.__setattr__(self, "box", b)
        object.__setattr__(self, "resolution", res)

    def scaled(self, mult: float) -> "RegionSpec":
        """Resolution scaled by a positive finite factor (CLI --resolution
        knob); interval counts round to even, so every axis halves or has
        2 nodes, except at the factor 1, which returns the region itself;
        a half count over MAX_NODES is capped there, so it cannot overflow."""
        if not (np.isfinite(mult) and mult > 0):
            raise ValueError(f"resolution multiplier must be positive and finite, got {mult!r}")
        if mult == 1.0:
            return self
        return replace(self, resolution=tuple(
            max(2, 2 * int(round(min((n - 1) * mult / 2, MAX_NODES))) + 1)
            for n in self.resolution))


def axis_rule(lo: float, hi: float, n: int):
    """Nodes and weights of the n-node trapezoid rule on [lo, hi]."""
    x = np.linspace(lo, hi, n)
    w = np.full(n, (hi - lo) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def region_rules(region: RegionSpec):
    """Per-axis (nodes, weights) lists for the region."""
    return [axis_rule(region.box[ax, 0], region.box[ax, 1], region.resolution[ax])
            for ax in range(4)]


def face_integral(fn: Callable[[np.ndarray], np.ndarray], region: RegionSpec,
                  axis: int, value: float, support=None) -> float:
    """Integral of fn over the face of the region's box where coordinate
    axis is value: integrate's slice sum at that one node, over the
    region's trapezoid rules on the three free axes, inside support as
    in integrate.  fn maps points (na, nb, nc, 4) to (na, nb, nc); it is
    not called on a face that holds no support node, which is 0.0."""
    rules = region_rules(region)
    rules[axis] = (np.array([value], dtype=float), None)
    sums = _slice_sums(lambda pts: fn(pts[0])[None], rules, axis, support,
                       [(slice(None),) * 3])
    return 0.0 if sums is None else float(sums[0, 0])


def _nodes_inside(x: np.ndarray, lo: float, hi: float) -> slice:
    """Index range of the ascending nodes x that lie in [lo, hi]."""
    return slice(int(np.searchsorted(x, lo, side="left")),
                 int(np.searchsorted(x, hi, side="right")))


def integrate(fn: Callable[[np.ndarray], np.ndarray], region: RegionSpec,
              support=None):
    """Integrate fn over the region.  fn maps points (..., 4) to values
    (...), or to k stacked integrands (k, ...), and must be vectorized.
    Returns (value, estimate, half): floats, or (k,) arrays when stacked.

    fn is called on blocks of consecutive axis-0 slices, as many whole
    slices as fit in _BLOCK_NODES nodes and at least one, which bounds
    memory on fine grids; a block's points have shape (m, n1, n2, n3, 4).
    Each slice's values are weighted and written into a zeroed full
    slice.  Per integrand, the whole slice and each node class of the
    half rules are summed on their own, and these rows of slice sums are
    weighted along axis 0.  value is the whole-slice row's sum: the
    trapezoid sum.  estimate is the largest |value - I_c| over the up to
    16 nested half rules I_c, which take the even or the odd nodes, at
    twice the fine weights, on each axis with an odd node count n >= 3
    and keep the fine rule on the other axes (an even count above 2
    does not halve, so its error is left out).  half is the half rule
    that takes the even nodes on every halving axis: the trapezoid rule
    of the region with (n + 1) // 2 nodes on each of those axes.  Its
    nodes and weights are that rule's exactly (2 w_fine == w_coarse),
    and while each slice of it holds at most np.getbufsize() nodes
    (8192 by default; 17^3 at 33^4) numpy sums it in the same order as
    integrate over that coarse region, so the two have the same bits;
    on larger slices they can differ by rounding.  All three outputs have
    the same bits whatever the block size, and an integrand sums to the
    same bits whether or not it is stacked with others.

    support, a (4, 2) box outside which fn is exactly 0, restricts
    evaluation to the nodes inside it: axis-0 nodes outside the box are
    skipped with slice sums of 0, and each remaining slice is evaluated
    only on its inside nodes before the zero fill.  A node where fn is 0
    adds nothing to a sum, so every output has the same bits as without
    support.  Without support every node is evaluated.
    """
    rules = region_rules(region)
    halves = [(slice(0, None, 2), slice(1, None, 2)) if n >= 3 and n % 2 else (slice(None),)
              for n in region.resolution]
    classes = [(slice(None),) * 3] + list(itertools.product(*halves[1:]))
    sums = _slice_sums(fn, rules, 0, support, classes)
    if sums is None:
        # the box misses the grid: evaluate one empty block, only to
        # learn how many integrands fn stacks
        stack = np.asarray(fn(np.empty((1, 0, 0, 0, 4))), dtype=float).shape[:-4]
        sums = np.zeros(stack + (len(classes), region.resolution[0]))
    stacked, sums = sums.ndim > 2, sums.reshape((-1,) + sums.shape[-2:])
    w0 = rules[0][1]
    value = np.sum(sums[:, 0] * w0, axis=-1)
    scale = 2.0 ** sum(len(h) == 2 for h in halves)
    halved = np.stack([scale * np.sum(sums[:, 1:, c] * w0[c], axis=-1) for c in halves[0]], 1)
    estimate = np.max(np.abs(value[:, None, None] - halved), axis=(1, 2))
    outputs = (value, estimate, halved[:, 0, 0])
    return outputs if stacked else tuple(float(out[0]) for out in outputs)


def _slice_sums(fn, rules, axis: int, support, classes):
    """The slice loop of integrate and face_integral.  rules are the four
    per-axis (nodes, weights); for each node of axis, fn times the other
    three axes' weights is summed over each node class, an index of the
    slice.  Returns these sums as (k..., len(classes), n) for fn's k...
    stacked integrands, or None, without calling fn, when no node is
    inside the support box.  fn is called as integrate describes, along
    axis."""
    others = [a for a in range(4) if a != axis]
    x0 = rules[axis][0]
    (x1, w1), (x2, w2), (x3, w3) = (rules[a] for a in others)
    w123 = w1[:, None, None] * w2[None, :, None] * w3[None, None, :]
    box = None if support is None else np.asarray(support, dtype=float)
    inside = [slice(0, len(x)) if box is None else _nodes_inside(x, *box[a])
              for a, (x, _) in enumerate(rules)]
    if any(s.start >= s.stop for s in inside):
        return None
    block = tuple(inside[a] for a in others)
    mesh = np.stack(np.meshgrid(x1[block[0]], x2[block[1]], x3[block[2]], indexing="ij"),
                    axis=-1)
    slices = range(len(x0))[inside[axis]]
    per_block = max(1, _BLOCK_NODES // mesh[..., 0].size)
    sums = None
    for start in range(0, len(slices), per_block):
        group = slices[start:start + per_block]
        pts = np.empty((len(group),) + mesh.shape[:-1] + (4,))
        pts[..., axis] = x0[group, None, None, None]
        pts[..., others] = mesh
        values = np.asarray(fn(pts), dtype=float)
        for j, i in enumerate(group):
            weighted = np.zeros(values.shape[:-4] + w123.shape)
            weighted[(Ellipsis,) + block] = values[..., j, :, :, :] * w123[block]
            slabs = weighted.reshape((-1,) + w123.shape)
            if sums is None:
                sums = np.zeros((len(slabs), len(classes), len(x0)))
            sums[:, :, i] = [[np.sum(slab[c]) for c in classes] for slab in slabs]
    return sums.reshape(values.shape[:-4] + sums.shape[1:])
