"""Metric families, their parameter derivatives, bump localization.

Conventions
-----------
* signature (-, +, +, +), geometric units G = c = 1
* points are arrays of shape (..., 4) in the family's chart
* metric components are arrays of shape (..., 4, 4), index order matching
  the chart's coordinate order
* a family is a one-parameter set of metrics theta -> g_munu(theta, x)
  with a declared fiducial value theta0 and its analytic derivative there

The built-ins take three shapes, one builder each: flat space plus theta
times a fixed tensor, a mass on a spherical chart, and a scale parameter
on a closed conformal chart.

A family with a bump replaces the global parameter dependence by
theta0 + (theta - theta0) * chi(x) with chi a smooth bump that equals 1
on a plateau box and 0 outside a support box, so that the perturbation
is confined to a compact region while the fiducial geometry is untouched.
It is a family like any other: ``localize`` only attaches the bump.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])

class ChartDomainError(ValueError):
    """A point lies outside the declared chart domain."""


def _checked_box(box, name: str) -> np.ndarray:
    """box as a fresh read-only float (4, 2) array of per-axis (lo, hi)
    bounds; raises ValueError naming it unless each is finite and lo < hi."""
    b = np.array(box, dtype=float)
    if b.shape != (4, 2):
        raise ValueError(f"{name} must have shape (4, 2)")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} must be finite")
    if np.any(b[:, 1] <= b[:, 0]):
        raise ValueError(f"{name} must have lo < hi on every axis")
    b.setflags(write=False)
    return b


def box_grid(box, n: int) -> np.ndarray:
    """The uniform grid of n points per axis, ends included, shape
    (n, n, n, n, 4), of a (4, 2) box of per-axis (lo, hi) bounds.  At
    n = 2 these are the 16 corners; a ChartDomain is a box too, so a box
    lies inside it exactly when the corners do."""
    axes = [np.linspace(lo, hi, n) for lo, hi in np.asarray(box, dtype=float)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _per_distinct(kernel: Callable, core_ndim: int, *arrays) -> np.ndarray:
    """kernel(*arrays) for a kernel that maps each point of a batch on its
    own, run once per distinct input along repeated axes.  The arrays
    share their batch shape, all but their last core_ndim axes.  A batch
    axis along which every array holds the bits of its index 0 at every
    index is cut to that index before the call, and the result is
    broadcast back over it.  Bits are compared, index 1 first, so -0.0 and
    0.0, or two NaN payloads, are distinct, and an axis whose index 1
    differs costs no full comparison.  Returns a read-only broadcast view;
    callers must not write into it."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    batch = arrays[0].shape[:arrays[0].ndim - core_ndim]
    for ax, n in enumerate(batch):
        first, second = ((slice(None),) * ax + (slice(i, i + 1),) for i in (0, 1))
        bits = [a.view(np.uint64) for a in arrays]
        if n > 1 and all(np.all(b[second] == b[first]) for b in bits) \
                and all(np.all(b == b[first]) for b in bits):
            # the arrays are their index-0 slice repeated along ax, so the
            # later axes compare the same on that slice alone
            arrays = [a[first] for a in arrays]
    out = kernel(*arrays)
    return np.broadcast_to(out, batch + out.shape[len(batch):])


@dataclass(frozen=True)
class ChartDomain:
    """Validity region of a coordinate chart.

    :param box: per-axis (lo, hi) bounds; infinite ends allowed.  Finite
        ends are treated as open unless listed in ``closed_axes``.
    :param note: human-readable description used in error messages.
    """

    box: tuple = (((-math.inf, math.inf),) * 4)
    closed_axes: tuple = ()
    note: str = ""

    def require(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        ok = np.ones(x.shape[:-1], dtype=bool)
        for ax, (lo, hi) in enumerate(self.box):
            c = x[..., ax]
            if ax in self.closed_axes:
                ok &= (c >= lo) & (c <= hi)
            else:
                if np.isfinite(lo):
                    ok &= c > lo
                if np.isfinite(hi):
                    ok &= c < hi
        if not np.all(ok):
            bad = x.reshape(-1, 4)[~ok.reshape(-1)][0]
            msg = f"point {bad.tolist()} outside chart domain"
            if self.note:
                msg += f" ({self.note})"
            raise ChartDomainError(msg)


@dataclass(frozen=True)
class MetricFamily:
    """One-parameter family of metrics on a fixed chart.

    ``eval_fn(theta, x)`` must accept points of shape (..., 4) and return
    (..., 4, 4) symmetric components; ``deriv_fn(x)`` returns the analytic
    d g_munu / d theta at theta0.  ``sample_box`` is a finite box well
    inside the chart domain, used by validation sweeps.  With a ``bump``
    chi the metric is eval_fn(theta0 + (theta - theta0) chi(x), x), theta
    then an array of shape x.shape[:-1]; at theta = theta0, the fiducial
    geometry everywhere, eval skips chi.  The derivative is chi(x) deriv_fn(x).
    """

    label: str
    chart_name: str
    theta0: float
    eval_fn: Callable[[float, np.ndarray], np.ndarray]
    deriv_fn: Callable[[np.ndarray], np.ndarray]
    sample_box: np.ndarray
    domain: ChartDomain = field(default_factory=ChartDomain)
    bump: Optional[BumpProfile] = None

    def eval(self, theta: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.bump is None or theta == self.theta0:
            return self.eval_fn(float(theta), x)
        t0 = self.theta0
        return self.eval_fn(t0 + (float(theta) - t0) * self.bump(x), x)

    def deriv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.bump is None:
            return self.deriv_fn(x)
        return self.bump(x)[..., None, None] * self.deriv_fn(x)


def finite_difference_derivative(family: MetricFamily, x: np.ndarray) -> np.ndarray:
    """d g_munu / d theta at theta0 by central finite differences with one
    Richardson extrapolation pass: the reference the tests and verify
    check the analytic derivatives against.  The step is 1e-6 |theta0|,
    floored at 1e-8 to stay sane at theta0 = 0."""
    x = np.asarray(x, dtype=float)
    t0 = family.theta0
    h = max(1e-6 * abs(t0), 1e-8)

    def central(step):
        return (family.eval(t0 + step, x) - family.eval(t0 - step, x)) / (2.0 * step)

    d1 = central(h)
    d2 = central(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _ipow(q, n: int):
    """q ** n for an integer n >= 1 by repeated squaring: products alone,
    whose bits, unlike np.power's, do not depend on numpy's SIMD level."""
    out = None
    while n:
        if n & 1:
            out = q if out is None else out * q
        n >>= 1
        if n:
            q = q * q
    return out


def _sym_zeros(x: np.ndarray) -> np.ndarray:
    return np.zeros(x.shape[:-1] + (4, 4))


def _constant(e: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The direction x -> e at every point, as a fresh array."""
    return lambda x: np.broadcast_to(e, x.shape[:-1] + (4, 4)).copy()


def _flat_plus(label: str, direction: Callable[[np.ndarray], np.ndarray],
               theta0: float) -> MetricFamily:
    """g = eta + theta e(x) on the Cartesian chart, so dg/dtheta = e(x);
    eval scales in place the fresh (..., 4, 4) array direction(x) returns."""

    def ev(theta, x):
        g = direction(x)
        g *= np.asarray(theta)[..., None, None]
        g += MINKOWSKI
        return g

    return MetricFamily(
        label=label, chart_name="cartesian", theta0=float(theta0),
        eval_fn=ev, deriv_fn=direction,
        sample_box=np.array([[-2.0, 2.0]] * 4),
    )


def gw_plane_wave(theta0: float = 0.0) -> MetricFamily:
    """Linearly polarized plane gravitational wave on a Cartesian chart
    (t, x, y, z), propagating along z in the broadband approximation:
    g = eta + A (dx^2 - dy^2), the constant-amplitude limit."""
    return _flat_plus("gw_plane_wave", _constant(np.diag([0.0, 1.0, -1.0, 0.0])), theta0)


def minkowski_component(mu0: int, nu0: int, theta0: float = 0.0) -> MetricFamily:
    """Constant perturbation of a single Minkowski component on a Cartesian
    chart: g = eta + theta * e, where e has 1 in the (mu0, nu0) slot (and
    its symmetric partner when mu0 != nu0)."""
    if not (0 <= mu0 <= 3 and 0 <= nu0 <= 3):
        raise ValueError("component indices must be in 0..3")
    e = np.zeros((4, 4))
    e[mu0, nu0] = e[nu0, mu0] = 1.0
    return _flat_plus(f"minkowski_component_{mu0}{nu0}", _constant(e), theta0)


def g00_profile_perturbation(profile: Callable[[np.ndarray], np.ndarray],
                             theta0: float = 0.0) -> MetricFamily:
    """Perturbation of g_00 alone by a given spacetime profile a(x):
    g_00 = -1 + theta * a(x).  With a constant profile this is the
    uniform lapse perturbation behind the proper-time reduction."""

    def direction(x):
        e = _sym_zeros(x)
        e[..., 0, 0] = np.asarray(profile(x), dtype=float)
        return e

    return _flat_plus("g00_profile_perturbation", direction, theta0)


def _spherical(label: str, m0: float, ev, dv, r_lo: float, r_min: float,
               note: str) -> MetricFamily:
    """A mass family on the chart (t, r, theta, phi) named label: r > r_lo,
    the polar angle closed, samples from r_min out."""
    dom = ChartDomain(
        box=((-math.inf, math.inf), (r_lo, math.inf), (0.0, math.pi), (-math.inf, math.inf)),
        closed_axes=(2,), note=note,
    )
    return MetricFamily(
        label=label, chart_name=label, theta0=m0,
        eval_fn=ev, deriv_fn=dv, domain=dom,
        sample_box=np.array([[-1.0, 1.0], [r_min, r_min + 6.0], [0.4, math.pi - 0.4],
                             [0.0, 2.0 * math.pi]]),
    )


def schwarzschild(theta0: float = 0.0) -> MetricFamily:
    """Schwarzschild exterior on the chart (t, r, theta, phi), mass as the
    family parameter.  The domain excludes r <= 2.5 m to stay clear of the
    horizon; at m = 0 the chart is flat spherical coordinates."""
    m0 = float(theta0)

    def ev(theta, x):
        r = x[..., 1]
        th = x[..., 2]
        f = 1.0 - 2.0 * theta / r
        g = _sym_zeros(x)
        g[..., 0, 0] = -f
        g[..., 1, 1] = 1.0 / f
        g[..., 2, 2] = r ** 2
        g[..., 3, 3] = (r * np.sin(th)) ** 2
        return g

    def dv(x):
        r = x[..., 1]
        f = 1.0 - 2.0 * m0 / r
        d = _sym_zeros(x)
        d[..., 0, 0] = 2.0 / r
        d[..., 1, 1] = 2.0 / (r * f ** 2)
        return d

    return _spherical("schwarzschild", m0, ev, dv, max(0.0, 2.5 * m0), max(0.5, 3.0 * m0),
                      "Schwarzschild chart: r > max(0, 2.5 m)")


def isotropic(theta0: float = 0.0) -> MetricFamily:
    """Schwarzschild exterior in isotropic coordinates (t, rho, theta, phi),
    mass as the family parameter.  At m = 0 it coincides exactly with the
    flat spherical chart of ``schwarzschild``."""
    m0 = float(theta0)

    def ev(theta, x):
        rho = x[..., 1]
        th = x[..., 2]
        u = theta / (2.0 * rho)
        psi4 = _ipow(1.0 + u, 4)
        g = _sym_zeros(x)
        g[..., 0, 0] = -((1.0 - u) / (1.0 + u)) ** 2
        g[..., 1, 1] = psi4
        g[..., 2, 2] = psi4 * rho ** 2
        g[..., 3, 3] = psi4 * (rho * np.sin(th)) ** 2
        return g

    def dv(x):
        rho = x[..., 1]
        th = x[..., 2]
        u = m0 / (2.0 * rho)
        d = _sym_zeros(x)
        # d/dm [-((1-u)/(1+u))^2] = (2/rho) (1-u)/(1+u)^3
        d[..., 0, 0] = (2.0 / rho) * (1.0 - u) / _ipow(1.0 + u, 3)
        dpsi4 = (2.0 / rho) * _ipow(1.0 + u, 3)
        d[..., 1, 1] = dpsi4
        d[..., 2, 2] = dpsi4 * rho ** 2
        d[..., 3, 3] = dpsi4 * (rho * np.sin(th)) ** 2
        return d

    return _spherical("isotropic", m0, ev, dv, max(0.0, 1.25 * m0), max(0.5, 2.0 * m0),
                      "isotropic chart: rho > max(0, 1.25 m)")


def _closed_conformal(label: str, chart_name: str, theta0: float, scale, d_scale: float,
                      factor, eta_box: tuple, eta_sample: list, note: str) -> MetricFamily:
    """g = scale(theta) factor(eta) [-deta^2 + dchi^2 + sin^2 chi (dtheta^2
    + sin^2 theta dphi^2)] on the chart (eta, chi, theta, phi); d_scale is
    d scale / d theta at theta0, so dg/dtheta = d_scale factor(eta) [...]."""

    def shape(x):
        chi = x[..., 1]
        th = x[..., 2]
        g = _sym_zeros(x)
        pref = factor(x[..., 0])
        g[..., 0, 0] = -pref
        g[..., 1, 1] = pref
        g[..., 2, 2] = pref * np.sin(chi) ** 2
        g[..., 3, 3] = pref * (np.sin(chi) * np.sin(th)) ** 2
        return g

    def ev(theta, x):
        return scale(np.asarray(theta, dtype=float))[..., None, None] * shape(x)

    def dv(x):
        return d_scale * shape(x)

    dom = ChartDomain(box=(eta_box, (0.0, math.pi), (0.0, math.pi), (-math.inf, math.inf)),
                      closed_axes=(1, 2), note=note)
    return MetricFamily(
        label=label, chart_name=chart_name, theta0=theta0,
        eval_fn=ev, deriv_fn=dv, domain=dom,
        sample_box=np.array([eta_sample, [0.3, 1.3], [0.5, math.pi - 0.5], [0.0, 2.0]]),
    )


def flrw_closed(theta0: float = 1.0) -> MetricFamily:
    """Closed matter-dominated FLRW universe in conformal coordinates
    (eta, chi, theta, phi) with the maximal scale factor a_max as the
    family parameter:

        ds^2 = (a_max^2/4) (1 - cos eta)^2 [-deta^2 + dchi^2
               + sin^2 chi (dtheta^2 + sin^2 theta dphi^2)]

    Every component scales as a_max^2, so dg/da_max = (2/a_max) g.
    """
    a0 = float(theta0)
    if a0 <= 0:
        raise ValueError("a_max must be positive")
    return _closed_conformal(
        "flrw_closed", "conformal-flrw", a0, lambda t: t ** 2, 2.0 * a0,
        lambda eta: 0.25 * (1.0 - np.cos(eta)) ** 2, (0.0, 2.0 * math.pi), [0.6, 2.6],
        "conformal FLRW chart: 0 < eta < 2 pi")


def de_sitter(theta0: float = 1.0) -> MetricFamily:
    """de Sitter spacetime in closed conformal coordinates
    (eta, chi, theta, phi) with the cosmological constant Lambda as the
    family parameter:

        ds^2 = (3/Lambda) sec^2 eta [-deta^2 + dchi^2
               + sin^2 chi (dtheta^2 + sin^2 theta dphi^2)]

    Components scale as 1/Lambda, so dg/dLambda = -(1/Lambda) g.
    """
    lam0 = float(theta0)
    if lam0 <= 0:
        raise ValueError("Lambda must be positive")
    return _closed_conformal(
        "de_sitter", "conformal-desitter", lam0, lambda t: 3.0 / t, -3.0 / lam0 ** 2,
        lambda eta: 1.0 / np.cos(eta) ** 2, (-0.5 * math.pi, 0.5 * math.pi), [-1.0, 1.0],
        "conformal de Sitter chart: |eta| < pi/2")


BUILTIN_FAMILIES = {
    "gw_plane_wave": gw_plane_wave,
    "minkowski_component": minkowski_component,
    "g00_profile_perturbation": g00_profile_perturbation,
    "schwarzschild": schwarzschild,
    "isotropic": isotropic,
    "flrw_closed": flrw_closed,
    "de_sitter": de_sitter,
}


# ---------------------------------------------------------------------------
# bump profiles and localization
# ---------------------------------------------------------------------------

#: The highest accepted order: the largest whose S_k, as _smoothstep
#: evaluates it, stays within 1e-12 of [0, 1] and of monotone (worst 4.4e-13
#: at 5, 3.4e-12 at 6, 8e-9 at 10).  BumpProfile needs S(0) = 0 and S(1) = 1.
MAX_SMOOTHSTEP_ORDER = 5


def _smoothstep(u: np.ndarray, k: int) -> np.ndarray:
    """The order-k polynomial smoothstep S_k of u clipped to [0, 1]: the
    unique degree 2k+1 polynomial with S(0)=0, S(1)=1 and k vanishing
    derivatives at both ends, by Horner's rule on its ascending powers."""
    coeffs = np.zeros(2 * k + 2)
    for n in range(k + 1):
        coeffs[k + 1 + n] = math.comb(k + n, n) * math.comb(2 * k + 1, k - n) * (-1.0) ** n
    u = np.clip(u, 0.0, 1.0)
    out = np.zeros_like(u)
    for c in coeffs[::-1]:
        out = out * u + c
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Separable bump chi(x) = prod_i chi_i(x_i), equal to 1 on the plateau
    box, 0 outside the support box, with a polynomial smoothstep
    transition in between whose seams are C^order.  The per-axis margins
    (support minus plateau) are the transition widths; sensitivity to
    them shows up in the shell contribution reported by the generator
    quadrature.
    """

    plateau: np.ndarray
    support: np.ndarray
    order: int = 3

    def __post_init__(self):
        p = _checked_box(self.plateau, "plateau")
        s = _checked_box(self.support, "support")
        if np.any(p[:, 0] <= s[:, 0]) or np.any(p[:, 1] >= s[:, 1]):
            raise ValueError("plateau must lie strictly inside support on every axis")
        if isinstance(self.order, bool) or not isinstance(self.order, (int, np.integer)):
            raise ValueError(f"smoothstep order must be an integer, got {self.order!r}")
        if not 1 <= self.order <= MAX_SMOOTHSTEP_ORDER:
            raise ValueError(f"smoothstep order must be from 1 to {MAX_SMOOTHSTEP_ORDER} (higher "
                             f"orders leave [0, 1] in floating point), got {self.order!r}")
        object.__setattr__(self, "plateau", p)
        object.__setattr__(self, "support", s)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones(x.shape[:-1])
        for ax in range(4):
            s0, s1 = self.support[ax]
            p0, p1 = self.plateau[ax]
            c = x[..., ax]
            # the nearer edge's ramp; S is exactly 0 off the support, 1 on the plateau
            ramp = np.minimum((c - s0) / (p0 - s0), (s1 - c) / (s1 - p1))
            out = out * _smoothstep(ramp, self.order)
        return out


def localize(family: MetricFamily, bump: BumpProfile) -> MetricFamily:
    """The family with its parameter change confined by a bump.  The bump
    support must lie inside the chart domain."""
    family.domain.require(box_grid(bump.support, 2))
    return replace(family, bump=bump)
