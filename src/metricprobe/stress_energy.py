"""Stress-energy fields: Maxwell tensors of plane-wave and uniform
fields, tabulated grids and their text format, the orthonormal-frame
conversion, and the fourth-order finite-difference covariant divergence
that checks conservation.

A field is one function from points (..., 4) to T^munu (..., 4, 4) with
an optional declared support; each source above is such a function, and
in_orthonormal_frame wraps any of them.  The probe is treated at the
mean-field level: fields entering these tensors are classical
expectation values, with quantum fluctuations handled separately by the
probe module.  Components are contravariant T^munu in the chart of the
metric they are paired with, units with G = c = 1 and Gaussian
electromagnetic units (energy density (E^2 + B^2) / 8 pi).

The plane wave's Maxwell tensor runs once per distinct input and the
uniform field's once at construction; the generator runs det once per
distinct input and the audit's Christoffel symbols once per distinct
(r, theta).  So T, and those values, may be read-only broadcast views
that repeat one point's value along the axes on which it repeats;
callers build new arrays from them and never write into them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .geometry import MetricFamily, _checked_box, _per_distinct, box_grid

_COMPONENT_ORDER = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_COMPONENT_NAMES = [f"T{i}{j}" for i, j in _COMPONENT_ORDER]


# ---------------------------------------------------------------------------
# Maxwell sources and the orthonormal frame
# ---------------------------------------------------------------------------

def em_stress_tensor(E: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Maxwell stress-energy from field 3-vectors of shape (..., 3).

    T^00 = (E^2 + B^2) / 8 pi, T^0i = (E x B)_i / 4 pi,
    T^ij = [ delta_ij (E^2 + B^2) / 2 - E_i E_j - B_i B_j ] / 4 pi.

    Traceless against the Minkowski background by construction.
    """
    E = np.asarray(E, dtype=float)
    B = np.asarray(B, dtype=float)
    if E.shape != B.shape or E.shape[-1] != 3:
        raise ValueError("E and B must both have shape (..., 3)")
    u = np.sum(E * E, axis=-1) + np.sum(B * B, axis=-1)
    T = np.zeros(E.shape[:-1] + (4, 4))
    T[..., 0, 0] = u / (8.0 * math.pi)
    S = np.cross(E, B) / (4.0 * math.pi)
    for i in range(3):
        T[..., 0, i + 1] = S[..., i]
        T[..., i + 1, 0] = S[..., i]
    for i in range(3):
        for j in range(i, 3):
            val = -(E[..., i] * E[..., j] + B[..., i] * B[..., j]) / (4.0 * math.pi)
            if i == j:
                val = val + u / (8.0 * math.pi)
            T[..., i + 1, j + 1] = val
            T[..., j + 1, i + 1] = val
    return T


def em_plane_wave(amplitude: float, omega: float,
                  phase: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """T^munu of a plane wave along +x, linearly polarized along y
    (E_y = B_z), the probe-beam geometry used against a z-propagating
    gravitational wave."""

    def fn(x):
        f = amplitude * np.cos(omega * (x[..., 1] - x[..., 0]) + phase)
        E = np.zeros(x.shape[:-1] + (3,))
        B = np.zeros(x.shape[:-1] + (3,))
        E[..., 1] = f
        B[..., 2] = f
        return _per_distinct(em_stress_tensor, 1, E, B)

    return fn


def em_uniform(E_vec, B_vec) -> Callable[[np.ndarray], np.ndarray]:
    """T^munu of spatially uniform static field vectors: one read-only
    (4, 4) array, broadcast to each call's points."""
    E0 = np.asarray(E_vec, dtype=float)
    B0 = np.asarray(B_vec, dtype=float)
    if E0.shape != (3,) or B0.shape != (3,):
        raise ValueError("E_vec and B_vec must be 3-vectors")
    T0 = em_stress_tensor(E0, B0)
    T0.setflags(write=False)
    return lambda x: np.broadcast_to(T0, x.shape[:-1] + (4, 4))


def _require_diagonal(g: np.ndarray) -> None:
    off = g * (1.0 - np.eye(4))
    if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
        raise ValueError("orthonormal-frame conversion requires a diagonal metric")


def in_orthonormal_frame(fn: Callable[[np.ndarray], np.ndarray],
                         family: MetricFamily) -> Callable[[np.ndarray], np.ndarray]:
    """T^munu in the chart of a diagonal fiducial metric, from fn's
    components T^ab in its local orthonormal frame, through the tetrad
    e^mu_a = delta^mu_a / sqrt(|g_mumu|): T^munu = e^mu_a e^nu_b T^ab.
    The conversion keeps a traceless tensor traceless against the curved
    metric exactly.  Raises ValueError at once when the metric is not
    diagonal at the corners of the family's sample_box, and at any later
    call on points where it is not."""

    _require_diagonal(family.eval(family.theta0, box_grid(family.sample_box, 2)))

    def chart_fn(x):
        T_frame = fn(x)
        g = family.eval(family.theta0, x)
        _require_diagonal(g)
        diag = np.stack([g[..., k, k] for k in range(4)], axis=-1)
        e = 1.0 / np.sqrt(np.abs(diag))
        return T_frame * e[..., :, None] * e[..., None, :]

    return chart_fn


# ---------------------------------------------------------------------------
# tabulated grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorGrid:
    """Uniform 4D grid of symmetric rank-2 components.

    values has shape (n0, n1, n2, n3, 4, 4); origin and spacing are
    per-axis; each is kept as a read-only copy.  The text format is
    self-describing: a commented header with chart, axes, origin,
    spacing, shape, units and component order, then one row per node
    with the 4 node coordinates followed by the 10 independent
    components in row-major node order.
    """

    values: np.ndarray
    origin: np.ndarray
    spacing: np.ndarray
    chart: str = "cartesian"
    units: str = "geometric (G=c=1)"

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 6 or v.shape[-2:] != (4, 4):
            raise ValueError("values must have shape (n0, n1, n2, n3, 4, 4)")
        o = np.array(self.origin, dtype=float).reshape(4)
        s = np.array(self.spacing, dtype=float).reshape(4)
        if not all(np.all(np.isfinite(a)) for a in (v, o, s)):
            raise ValueError("grid values, origin and spacing must be finite")
        if not np.allclose(v, np.swapaxes(v, -1, -2), rtol=0, atol=0):
            raise ValueError("grid components must be symmetric")
        if np.any(s <= 0):
            raise ValueError("grid spacing must be positive")
        for name, a in (("values", v), ("origin", o), ("spacing", s)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def shape(self):
        return self.values.shape[:4]

    def axes(self):
        return [self.origin[i] + self.spacing[i] * np.arange(self.shape[i]) for i in range(4)]

    @cached_property
    def _interpolator(self) -> RegularGridInterpolator:
        # built on first use and kept on the instance, so it lives and
        # dies with the grid it interpolates
        return RegularGridInterpolator(tuple(self.axes()), self.values,
                                       method="linear", bounds_error=True)

    def interpolate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self._interpolator(x.reshape(-1, 4))
        return vals.reshape(x.shape[:-1] + (4, 4))


def save_grid(path, grid: TensorGrid) -> None:
    axes = grid.axes()
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    comps = np.stack([grid.values[..., i, j].reshape(-1) for i, j in _COMPONENT_ORDER], axis=-1)
    header = [
        "stress-energy grid v1",
        f"chart: {grid.chart}",
        "axes: x0 x1 x2 x3",
        "origin: " + " ".join(repr(float(v)) for v in grid.origin),
        "spacing: " + " ".join(repr(float(v)) for v in grid.spacing),
        "shape: " + " ".join(str(n) for n in grid.shape),
        f"units: {grid.units}",
        "columns: x0 x1 x2 x3 " + " ".join(_COMPONENT_NAMES),
    ]
    np.savetxt(path, np.hstack([mesh, comps]), header="\n".join(header))


def load_grid(path) -> TensorGrid:
    meta = {}
    with open(path, "r") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            text = line[1:].strip()
            if ":" in text:
                k, v = text.split(":", 1)
                meta[k.strip()] = v.strip()
    for req in ("chart", "origin", "spacing", "shape"):
        if req not in meta:
            raise ValueError(f"grid file missing header field {req!r}")
    origin = np.array([float(v) for v in meta["origin"].split()])
    spacing = np.array([float(v) for v in meta["spacing"].split()])
    shape = tuple(int(v) for v in meta["shape"].split())
    data = np.loadtxt(path)
    n_nodes = int(np.prod(shape))
    if data.shape != (n_nodes, 14):
        raise ValueError(f"grid file has shape {data.shape}, expected ({n_nodes}, 14)")
    values = np.zeros(shape + (4, 4))
    for col, (i, j) in enumerate(_COMPONENT_ORDER):
        comp = data[:, 4 + col].reshape(shape)
        values[..., i, j] = comp
        values[..., j, i] = comp
    grid = TensorGrid(values=values, origin=origin, spacing=spacing,
                      chart=meta["chart"], units=meta.get("units", "geometric (G=c=1)"))
    # coordinate columns must match the declared lattice
    mesh = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 4)
    if not np.allclose(mesh, data[:, :4], rtol=0, atol=1e-10 * np.max(np.abs(mesh) + 1)):
        raise ValueError("grid file coordinates disagree with its declared origin/spacing/shape")
    return grid


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StressEnergyField:
    """A queryable T^munu(x): fn maps points (..., 4) to contravariant
    components (..., 4, 4) in the chart of the metric they are paired with.

    support, when given, is a closed (4, 2) chart-coordinate box outside
    which every component of T is exactly 0, so integrals of densities
    that vanish with T need evaluating only inside it.  None means T may
    be nonzero anywhere.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.support is not None:
            object.__setattr__(self, "support", _checked_box(self.support, "support"))

    def tensor(self, x: np.ndarray) -> np.ndarray:
        """T^munu at points (..., 4), shape (..., 4, 4).  It may be a
        read-only broadcast view; callers must not write into it."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 4:
            raise ValueError("points must have shape (..., 4)")
        return np.asarray(self.fn(x), dtype=float)


# ---------------------------------------------------------------------------
# covariant divergence (finite differences)
# ---------------------------------------------------------------------------

def _partials(fn, x: np.ndarray, h: float):
    """Fourth-order central differences, of step h on every axis, of a
    (..., 4) -> (...)+tail map: its partials stacked along a new axis 0."""
    outs = []
    for ax in range(4):
        e = np.zeros(4)
        e[ax] = 1.0
        d = (8.0 * (fn(x + h * e) - fn(x - h * e))
             - (fn(x + 2.0 * h * e) - fn(x - 2.0 * h * e))) / (12.0 * h)
        outs.append(d)
    return np.stack(outs, axis=0)


def christoffel(metric_eval: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                h: float) -> np.ndarray:
    """Christoffel symbols Gamma^lam_munu from finite differences of the
    metric: 0.5 g^lamrho (d_mu g_rhonu + d_nu g_rhomu - d_rho g_munu).
    Returns shape (..., 4, 4, 4) indexed [lam, mu, nu]."""
    x = np.asarray(x, dtype=float)
    g = metric_eval(x)
    ginv = np.linalg.inv(g)
    dg = np.moveaxis(_partials(metric_eval, x, h), 0, -3)
    # dg[..., rho, mu, nu] = d_rho g_munu
    lower = 0.5 * (np.einsum("...mrn->...rmn", dg)      # d_mu g_rhonu
                   + np.einsum("...nrm->...rmn", dg)    # d_nu g_rhomu
                   - dg)                                # d_rho g_munu
    return np.einsum("...lr,...rmn->...lmn", ginv, lower)


def covariant_divergence(field: StressEnergyField, gamma: Callable[[np.ndarray], np.ndarray],
                         x: np.ndarray, T: np.ndarray, h: float) -> np.ndarray:
    """nabla_mu T^munu at x via central differences, returning (..., 4).

    T is field.tensor(x), which every caller already holds; gamma maps
    points to the Christoffel symbols, as christoffel of the metric in
    the field's chart gives them.  For grid-backed fields the stencil
    step should stay at or above the grid spacing (interpolation is only
    piecewise linear); analytic sources converge at fourth order as h
    shrinks.
    """
    x = np.asarray(x, dtype=float)
    dT = _partials(field.tensor, x, h)                 # (rho, ..., mu, nu) with rho = deriv axis
    div = np.einsum("m...mn->...n", dT)
    gam = gamma(x)
    gam_trace = np.einsum("...mml->...l", gam)         # Gamma^mu_mulam
    div = div + np.einsum("...l,...ln->...n", gam_trace, T)
    div = div + np.einsum("...nml,...ml->...n", gam, T)
    return div


def stencil_box(field: StressEnergyField, h: float) -> Optional[np.ndarray]:
    """field's support widened on every axis by how far the order-4
    stencil of step h can see it: two steps, with a margin against
    rounding; None when field declares no support."""
    if field.support is None:
        return None
    reach = 2.0 * h * 1.01
    return field.support + np.array([-reach, reach])


def divergence_residual(field: StressEnergyField, gamma: Callable[[np.ndarray], np.ndarray],
                        x: np.ndarray, h: float) -> float:
    """Max |nabla_mu T^munu| over the sample points, normalized by the
    local component scale max|T| / L with L the smallest coordinate range
    spanned by the samples (or 1 for a single point), with gamma as
    covariant_divergence takes it.

    T, max|T| and L come from the whole sample.  When the field declares
    a support, the divergence is evaluated only at the sample points
    within the stencil's reach of it, with their rows of T: at every
    other point each stencil value of T is exactly 0, and so is the
    divergence wherever the Christoffel symbols are finite, so the
    residual has the same bits as without support."""
    x = np.asarray(x, dtype=float)
    T = field.tensor(x)
    scale = float(np.max(np.abs(T)))
    if scale == 0.0:
        return 0.0
    pts = x.reshape(-1, 4)
    spans = pts.max(axis=0) - pts.min(axis=0)
    spans = spans[spans > 0]
    L = float(spans.min()) if spans.size else 1.0
    box = stencil_box(field, h)
    if box is not None:
        near = np.all((x >= box[:, 0]) & (x <= box[:, 1]), axis=-1)
        x, T = x[near], T[near]
    div = covariant_divergence(field, gamma, x, T, h)
    return float(np.max(np.abs(div), initial=0.0) / (scale / L))
