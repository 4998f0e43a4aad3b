"""Tensor-product composite trapezoid quadrature over 4D coordinate boxes.

The trapezoid rule is superalgebraic on smooth compactly supported
integrands, and its grids nest (2n - 1 nodes refine n), so callers form
a conservative error estimate as |I_fine - I_coarse|.  Sums are
accumulated with numpy's pairwise reduction, which is deterministic for
a fixed evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

#: node budget of one fn call in integrate: whole axis-0 slices are
#: grouped up to this many nodes, a larger slice is evaluated alone
_BLOCK_NODES = 2048


@dataclass(frozen=True)
class RegionSpec:
    """A coordinate box with per-axis resolution: trapezoid nodes per
    axis (>= 2, endpoints included)."""

    box: np.ndarray
    resolution: tuple

    def __post_init__(self):
        b = np.asarray(self.box, dtype=float)
        if b.shape != (4, 2):
            raise ValueError("box must have shape (4, 2)")
        if np.any(b[:, 1] <= b[:, 0]):
            raise ValueError("box must have positive extent on every axis")
        res = tuple(int(n) for n in np.broadcast_to(self.resolution, (4,)))
        if any(n < 2 for n in res):
            raise ValueError("trapezoid rule needs at least 2 nodes per axis")
        object.__setattr__(self, "box", b)
        object.__setattr__(self, "resolution", res)

    def refined(self) -> "RegionSpec":
        """Nested refinement: intervals double (2n - 1 nodes)."""
        return replace(self, resolution=tuple(2 * n - 1 for n in self.resolution))

    def coarsened(self) -> "RegionSpec":
        """Nested coarsening (inverse of refined for odd node counts)."""
        return replace(self, resolution=tuple(max(2, (n + 1) // 2)
                                              for n in self.resolution))

    def scaled(self, mult: float) -> "RegionSpec":
        """Resolution scaled by a positive factor (CLI --resolution knob)."""
        if mult <= 0:
            raise ValueError("resolution multiplier must be positive")
        return replace(self, resolution=tuple(max(2, int(round((n - 1) * mult)) + 1)
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


def _nodes_inside(x: np.ndarray, lo: float, hi: float) -> slice:
    """Index range of the ascending nodes x that lie in [lo, hi]."""
    return slice(int(np.searchsorted(x, lo, side="left")),
                 int(np.searchsorted(x, hi, side="right")))


def integrate(fn: Callable[[np.ndarray], np.ndarray], region: RegionSpec,
              support=None):
    """Integrate fn over the region.  fn maps points (..., 4) to values
    (...), or to k stacked integrands (k, ...), and must be vectorized.
    Returns the quadrature sum: a float, or a (k,) array when stacked.

    fn is called on blocks of consecutive axis-0 slices, as many whole
    slices as fit in _BLOCK_NODES nodes and at least one, which bounds
    memory on fine grids; a block's points have shape (m, n1, n2, n3, 4).
    Each slice's values are weighted, written into a zeroed full slice
    and summed on their own per integrand, then the row of slice sums is
    weighted along axis 0.  So the result has the same bits whatever the
    block size, and an integrand sums to the same bits whether or not it
    is stacked with others.

    support, a (4, 2) box outside which fn is exactly 0, restricts
    evaluation to the nodes inside it: axis-0 nodes outside the box are
    skipped with slice sums of 0, and each remaining slice is evaluated
    only on its inside nodes before the zero fill.  A node where fn is 0
    adds nothing to a sum, so the result has the same bits as without
    support.  Without support every node is evaluated.
    """
    rules = region_rules(region)
    (x0, w0), (x1, w1), (x2, w2), (x3, w3) = rules
    w123 = w1[:, None, None] * w2[None, :, None] * w3[None, None, :]
    if support is None:
        inside = [slice(None)] * 4
    else:
        inside = [_nodes_inside(x, lo, hi)
                  for (x, _), (lo, hi) in zip(rules, np.asarray(support, dtype=float))]
        if any(s.start >= s.stop for s in inside):
            # the box misses the grid: evaluate one empty block, only to
            # learn how many integrands fn stacks
            inside = [slice(0, 1)] + [slice(0, 0)] * 3
    block = tuple(inside[1:])
    mesh123 = np.stack(np.meshgrid(x1[block[0]], x2[block[1]], x3[block[2]],
                                   indexing="ij"), axis=-1)
    slices = range(len(x0))[inside[0]]
    per_block = max(1, _BLOCK_NODES // max(1, mesh123[..., 0].size))
    rows = None
    for start in range(0, len(slices), per_block):
        group = slices[start:start + per_block]
        pts = np.empty((len(group),) + mesh123.shape[:-1] + (4,))
        pts[..., 0] = x0[group, None, None, None]
        pts[..., 1:] = mesh123
        values = np.asarray(fn(pts), dtype=float)
        for j, i in enumerate(group):
            weighted = np.zeros(values.shape[:-4] + w123.shape)
            weighted[(Ellipsis,) + block] = values[..., j, :, :, :] * w123[block]
            sums = [np.sum(slab) for slab in weighted.reshape((-1,) + w123.shape)]
            if rows is None:
                rows = np.zeros((len(sums), len(x0)))
            rows[:, i] = sums
    out = np.sum(rows * w0, axis=-1)
    return out if weighted.ndim == 4 else float(out[0])


def integrate_with_estimate(fn, region: RegionSpec, support=None):
    """(value at the region's own resolution, conservative error estimate
    |I - I_coarsened| from one nested coarsening step).  support is
    passed to integrate."""
    fine = integrate(fn, region, support)
    coarse = integrate(fn, region.coarsened(), support)
    return fine, abs(fine - coarse)
