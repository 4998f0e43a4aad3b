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


def integrate(fn: Callable[[np.ndarray], np.ndarray], region: RegionSpec):
    """Integrate fn over the region.  fn maps points (..., 4) to values
    (...), or to k stacked integrands (k, ...), and must be vectorized.
    Returns the quadrature sum: a float, or a (k,) array when stacked.

    Evaluation goes one axis-0 node at a time to bound memory on fine
    grids.  Each integrand's weighted slice is summed on its own, then
    its row of slice sums is weighted along axis 0, so an integrand sums
    to the same bits whether or not it is stacked with others.
    """
    (x0, w0), (x1, w1), (x2, w2), (x3, w3) = region_rules(region)
    w123 = w1[:, None, None] * w2[None, :, None] * w3[None, None, :]
    mesh123 = np.stack(np.meshgrid(x1, x2, x3, indexing="ij"), axis=-1)
    slice_sums = []
    for t in x0:
        pts = np.empty(mesh123.shape[:-1] + (4,))
        pts[..., 0] = t
        pts[..., 1:] = mesh123
        weighted = np.asarray(fn(pts), dtype=float) * w123
        slice_sums.append([np.sum(slab) for slab in weighted.reshape((-1,) + w123.shape)])
    rows = np.ascontiguousarray(np.transpose(slice_sums))
    out = np.sum(rows * w0, axis=-1)
    return out if weighted.ndim == 4 else float(out[0])


def integrate_with_estimate(fn, region: RegionSpec):
    """(value at the region's own resolution, conservative error estimate
    |I - I_coarsened| from one nested coarsening step)."""
    fine = integrate(fn, region)
    coarse = integrate(fn, region.coarsened())
    return fine, abs(fine - coarse)
