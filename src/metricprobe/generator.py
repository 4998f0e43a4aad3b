"""The perturbation generator: volume integrals coupling stress-energy
to the metric parameter derivative.

The central object is the density

    p(x) = (1/2) sqrt(|det g(theta0, x)|) T^munu(x) dg_munu/dtheta (x),

whose integral over the measurement region is the mean-field generator
of state changes under the parameter.  For a bump-localized family the
derivative carries the bump factor, so the integral splits into a
plateau part (bump = 1) and a transition-shell part (0 < bump < 1).
Cross terms between the metric perturbation and field fluctuations are
dropped throughout (flat-background Gaussian model).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import BumpProfile, _per_distinct, box_grid, localize, schwarzschild, isotropic
from .quadrature import RegionSpec, face_integral, integrate
from .stress_energy import (StressEnergyField, christoffel, covariant_divergence,
                            divergence_residual, stencil_box)

_PLATEAU_EPS = 1e-12
# finite-difference step of the coordinate check's covariant divergence,
# and the divergence residual below which its source counts as conserved
_FD_STEP = 1e-3
DIVERGENCE_TOL = 1e-6
#: the flat spherical chart (t, r, theta, phi) of the coordinate check
_FLAT = schwarzschild(0.0)


def _flat_metric(pts: np.ndarray) -> np.ndarray:
    """The flat spherical metric's components at points (..., 4)."""
    return _FLAT.eval(0.0, pts)


def _flat_christoffel(pts: np.ndarray) -> np.ndarray:
    """christoffel of the flat chart at points (..., 4), run once per
    distinct (r, theta): t and phi set to +0.0 keep every node's bits."""
    rth = np.array(pts, dtype=float)
    rth[..., [0, 3]] = 0.0
    return _per_distinct(lambda x: christoffel(_flat_metric, x, _FD_STEP), 1, rth)


def _volume(g: np.ndarray) -> np.ndarray:
    """sqrt(|det g|) of metric components (..., 4, 4)."""
    return np.sqrt(np.abs(_per_distinct(np.linalg.det, 2, g)))


@dataclass(frozen=True)
class GeneratorResult:
    """Quadrature of the generator density over a region.

    P_total = P_plateau + P_shell up to accumulated rounding;
    error_estimate is integrate's nested estimate for P_total, P_half
    its all-even half rule for P_total, and warnings name the axes that
    do not halve and a clipped bump support.
    """

    P_total: float
    P_plateau: float
    P_shell: float
    error_estimate: float
    P_half: float
    warnings: tuple = ()


def _density_terms(T: StressEnergyField, family, x: np.ndarray):
    """(sqrt|det g|, T^munu, dg_munu/dtheta) at points of shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    g0 = family.eval(family.theta0, x)
    dg = family.deriv(x)
    return _volume(g0), T.tensor(x), dg


def generator_density(T: StressEnergyField, family, x: np.ndarray) -> np.ndarray:
    """Density p(x) at points of shape (..., 4); vectorized."""
    vol, Tv, dg = _density_terms(T, family, x)
    return 0.5 * vol * np.einsum("...ij,...ij->...", Tv, dg)


def integrate_generator(T: StressEnergyField, family, region: RegionSpec) -> GeneratorResult:
    """Integrate the generator density over the region.

    For a family with a bump the region must contain the bump support;
    a region that clips the support is flagged (the reported bound would
    ignore perturbation outside the window).  Nodes outside the chart
    domain raise through the family evaluation.  The density is
    evaluated only inside T's declared support, if it has one.
    """
    notes = []
    bump = family.bump
    if bump is not None:
        s = bump.support
        b = region.box
        if np.any(s[:, 0] < b[:, 0]) or np.any(s[:, 1] > b[:, 1]):
            msg = "region clips the bump support; bound validity compromised"
            warnings.warn(msg)
            notes.append(msg)

    notes += [f"axis {ax} has {n} nodes, an even count: this axis does not halve, "
              "so error_estimate leaves out its error"
              for ax, n in enumerate(region.resolution) if n > 2 and n % 2 == 0]

    family.domain.require(box_grid(region.box, 2))

    def dens(pts):
        return generator_density(T, family, pts)

    if bump is None:
        total, est, half = integrate(dens, region, T.support)
        plateau, shell = total, 0.0
    else:
        def split(pts):
            # the full density, then its plateau (chi = 1) and shell
            # (0 < chi < 1) parts, summed in one pass
            d = dens(pts)
            chi = bump(pts)
            return np.stack([
                d, np.where(chi >= 1.0 - _PLATEAU_EPS, d, 0.0),
                np.where((chi > _PLATEAU_EPS) & (chi < 1.0 - _PLATEAU_EPS), d, 0.0)])

        (total, plateau, shell), (est, _, _), (half, _, _) = integrate(split, region, T.support)

    return GeneratorResult(P_total=float(total), P_plateau=float(plateau),
                           P_shell=float(shell), error_estimate=float(est),
                           P_half=float(half), warnings=tuple(notes))


def trace_null_residual(T: StressEnergyField, family, region: RegionSpec) -> float:
    """Pointwise cancellation diagnostic for scale-factor families.

    When the parameter derivative is proportional to the metric itself,
    the density reduces to a multiple of the trace g_munu T^munu, which
    vanishes identically for a traceless probe.  Returns
    max |density| / max |density with all contraction terms taken
    positive| over a uniform 9^4 sample grid, so an exactly traceless
    coupling shows up at rounding level regardless of field strength.
    """
    vol, Tv, dg = _density_terms(T, family, box_grid(region.box, 9))
    dens = 0.5 * vol * np.einsum("...ij,...ij->...", Tv, dg)
    scale = 0.5 * vol * np.einsum("...ij,...ij->...", np.abs(Tv), np.abs(dg))
    top = float(np.max(np.abs(dens)))
    bot = float(np.max(scale))
    if bot == 0.0:
        return 0.0
    return top / bot


# ---------------------------------------------------------------------------
# boundary flux
# ---------------------------------------------------------------------------

def boundary_term(T: StressEnergyField, region: RegionSpec) -> float:
    """Flux of T against the radial chart-map deformation through the
    boundary of the region's box in flat spherical coordinates:

        B = sum_faces sign int sqrt(|det g|) T^{a nu} X_nu d^3x,

    with a the face's fixed axis and sign +1 on the upper face.  X is the
    m-derivative of the isotropic -> Schwarzschild radial map
    r = rho (1 + m / 2 rho)^2 at m = 0, X^r = 1 and its other components
    0, so X_nu = g_{nu r}.  This is the coordinate form of the surface
    element, which is what makes the discrete divergence identity close.
    Each face is a face_integral, upper side before lower, axis by axis,
    evaluated only inside T's declared support, if it has one.
    """
    total = 0.0
    for axis in range(4):
        def flux_density(pts):
            g = _flat_metric(pts)
            return _volume(g) * np.einsum("...j,...j->...", T.tensor(pts)[..., axis, :],
                                          g[..., :, 1])

        for side, sign in ((1, 1.0), (0, -1.0)):
            total += sign * face_integral(flux_density, region, axis,
                                          region.box[axis, side], T.support)
    return total


# ---------------------------------------------------------------------------
# coordinate-independence check (mass families at m0 = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateCheckReport:
    """Both charts' generator integrals for the same source and their
    difference P_isotropic - P_schwarzschild, the two sides of the
    surface-integral identity that explains it, and a conservation
    diagnostic for the source.

    angular_integral quadratures the identity's right-hand side
    directly; flux_minus_divergence reaches the same number through
    Gauss's theorem, with finite-difference Christoffels and partial
    derivatives, so agreement between the two is a nontrivial check of
    the differential plumbing rather than a rearrangement of the same
    sums; consistent says both are within error_estimate of difference.
    difference_half is the difference of the two integrals' all-even
    half rules, and warnings are those of the two integrals."""

    P_schwarzschild: float
    P_isotropic: float
    difference: float
    difference_half: float
    angular_integral: float
    flux_minus_divergence: float
    divergence_residual: float
    error_estimate: float
    conserved: bool
    consistent: bool
    warnings: tuple


def coordinate_independence_check(testT: StressEnergyField,
                                  region: RegionSpec) -> CoordinateCheckReport:
    """Compare the mass-derivative generator in Schwarzschild versus
    isotropic coordinates at m0 = 0 (charts coincide there, so the same
    T components serve both), both localized by bundled_coordinate_bump.

    The difference P_iso - P_schw equals the angular integral

        int_K (r T^thth + r sin^2 th T^phph) sqrt(|g|) chi d^4x,

    which by Gauss's theorem also equals

        oint_dK n_alpha T^{alpha r} dlambda
        - int_K nabla_alpha T^{alpha r} sqrt(|g|) d^4x.

    The second form is evaluated with the boundary flux of the radial
    chart-map deformation and a finite-difference covariant divergence.
    For a conserved source with support inside the region everything
    vanishes; for a non-conserved source the three quantities agree at
    a nonzero value within quadrature error.  The source counts as
    conserved when its divergence residual is at most 1e-6.

    The angular and divergence integrands share one pass and its T.  Its
    Christoffel symbols, and the residual's, are broadcast over t and phi
    from one evaluation per distinct (r, theta), with every node's bits:
    the flat chart is static and axisymmetric and the stencil moves one
    axis at a time, so no metric value it takes depends on t or phi.
    When testT declares a support, the generator integrals and the
    boundary flux evaluate only inside it, and that pass and the residual
    sample only within the stencil's reach of it.
    """
    chi = bundled_coordinate_bump()
    res_s = integrate_generator(testT, localize(_FLAT, chi), region)
    res_i = integrate_generator(testT, localize(isotropic(0.0), chi), region)

    def volume_densities(pts):
        # the angular integrand, then the volume-weighted div_r
        Tv = testT.tensor(pts)
        r = pts[..., 1]
        sth = np.sin(pts[..., 2])
        angular = (r * r * sth) * chi(pts) * r * (Tv[..., 2, 2] + sth ** 2 * Tv[..., 3, 3])
        div = covariant_divergence(testT, _flat_christoffel, pts, Tv, _FD_STEP)
        return np.stack([angular, _volume(_flat_metric(pts)) * div[..., 1]])

    (angular, div_integral), (angular_est, div_est), _ = integrate(
        volume_densities, region, stencil_box(testT, _FD_STEP))
    flux = boundary_term(testT, region)

    # conservation diagnostic on a moderate interior sample
    sample = box_grid(region.box, 7)[1:-1, 1:-1, 1:-1, 1:-1]
    resid = divergence_residual(testT, _flat_christoffel, sample, _FD_STEP)

    diff = res_i.P_total - res_s.P_total
    angular, routes = float(angular), float(flux - div_integral)
    est = float(res_s.error_estimate + res_i.error_estimate + angular_est + div_est)
    return CoordinateCheckReport(
        P_schwarzschild=res_s.P_total, P_isotropic=res_i.P_total, difference=diff,
        difference_half=res_i.P_half - res_s.P_half, angular_integral=angular,
        flux_minus_divergence=routes, divergence_residual=float(resid), error_estimate=est,
        conserved=bool(resid <= DIVERGENCE_TOL),
        consistent=bool(abs(diff - angular) <= est and abs(diff - routes) <= est),
        warnings=res_s.warnings)


# ---------------------------------------------------------------------------
# bundled test tensors for the coordinate check
# ---------------------------------------------------------------------------

#: exponent p of the bundled sources' polynomial bumps (1 - u^2)^p
_POLY_P = 6


def _poly_bump(u: np.ndarray) -> np.ndarray:
    """(1 - u^2)^p on |u| < 1, else 0; C^(p-1) at the edges."""
    inside = np.abs(u) < 1.0
    out = np.zeros_like(u)
    out[inside] = (1.0 - u[inside] ** 2) ** _POLY_P
    return out


def _poly_bump_derivs(u: np.ndarray) -> np.ndarray:
    """_poly_bump(u) and its first and second u-derivatives, stacked."""
    p, inside = _POLY_P, np.abs(u) < 1.0
    ui = u[inside]
    q = 1.0 - ui ** 2
    qp1 = q ** (p - 1)
    out = np.zeros((3,) + u.shape)
    out[0][inside] = q ** p
    out[1][inside] = -2.0 * p * ui * qp1
    out[2][inside] = -2.0 * p * qp1 + 4.0 * p * (p - 1) * ui ** 2 * q ** (p - 2)
    return out


#: Cartesian center and half-widths of the bundled sources, placed on the
#: +x axis so the spherical chart is regular over the support.
_TEST_CENTER = np.array([0.0, 3.0, 0.0, 0.0])
_TEST_HALFW = np.array([0.8, 0.8, 0.8, 0.8])
_TEST_AMP = 0.1
#: Spherical-chart bounding box of that Cartesian cube, rounded outward:
#: the conserved source's support.  r runs from 2.2 (near face) to
#: sqrt(3.8^2 + 2 * 0.8^2) = 3.9648 (far corners); |theta - pi/2| and
#: |phi| reach atan(0.8 / 2.2) = 0.34877 on the near face's edges.
_CONSERVED_SUPPORT = np.array([
    [-0.8, 0.8], [2.2, 3.97], [1.222, 1.92], [-0.349, 0.349]])
#: (frac, shift) of the nonconserved source's T^thth, T^rr and T^tr bumps
_NONCONSERVED_BUMPS = ((0.425, 0.0), (0.36, 0.05), (0.30, -0.06))


def conserved_test_tensor() -> StressEnergyField:
    """Exactly divergence-free compact source, given in spherical chart
    components.

    Construction: an Airy-type stress function phi(t, x, y, z) compactly
    supported in a Cartesian box yields T^xx = d2phi/dy2,
    T^yy = d2phi/dx2, T^xy = -d2phi/dxdy with identically vanishing
    Cartesian divergence; the components are then tensor-transformed to
    the spherical chart, where the covariant divergence also vanishes.
    """
    c = _TEST_CENTER
    w = _TEST_HALFW
    A = _TEST_AMP

    def cart_tensor(t, xc, yc, zc):
        u = [(t - c[0]) / w[0], (xc - c[1]) / w[1], (yc - c[2]) / w[2], (zc - c[3]) / w[3]]
        bt, bz = _poly_bump(u[0]), _poly_bump(u[3])
        bx, d1x, d2x = _poly_bump_derivs(u[1])
        by, d1y, d2y = _poly_bump_derivs(u[2])
        Txx = A * bt * bx * (d2y / w[2] ** 2) * bz
        Tyy = A * bt * (d2x / w[1] ** 2) * by * bz
        Txy = -A * bt * (d1x / w[1]) * (d1y / w[2]) * bz
        return Txx, Tyy, Txy

    def fn(pts):
        t = pts[..., 0]
        r = pts[..., 1]
        th = pts[..., 2]
        ph = pts[..., 3]
        sth, cth = np.sin(th), np.cos(th)
        sph, cph = np.sin(ph), np.cos(ph)
        xc = r * sth * cph
        yc = r * sth * sph
        zc = r * cth
        Txx, Tyy, Txy = cart_tensor(t, xc, yc, zc)
        # Jacobian d(spherical)/d(cartesian) rows: r, theta, phi
        Jrx, Jry = sth * cph, sth * sph
        Jtx, Jty = cth * cph / r, cth * sph / r
        Jpx, Jpy = -sph / (r * sth), cph / (r * sth)
        T = np.zeros(pts.shape[:-1] + (4, 4))
        rows = ((1, Jrx, Jry), (2, Jtx, Jty), (3, Jpx, Jpy))
        for a, (i, Jix, Jiy) in enumerate(rows):
            # each pair once: IEEE products and sums commute, so T^ji has T^ij's bits
            for (j, Jjx, Jjy) in rows[a:]:
                T[..., i, j] = T[..., j, i] = (Jix * Jjx * Txx + Jiy * Jjy * Tyy
                                               + (Jix * Jjy + Jiy * Jjx) * Txy)
        return T

    return StressEnergyField(fn, support=_CONSERVED_SUPPORT.copy())


def nonconserved_test_tensor() -> StressEnergyField:
    """Compact source, deliberately not conserved, in the spherical
    chart.

    The T^thth bump sets the angular integral that separates the two
    charts' generators.  The T^rr and T^tr bumps drop out of that
    difference (their derivative-tensor couplings coincide at m = 0)
    but feed the covariant-divergence route through genuine radial and
    time derivatives, so the Gauss-theorem comparison cannot reduce to
    a resummation of the direct one.  Each bump is centered at
    center + shift * extent of the plateau and vanishes outside
    +- frac * extent of that, so the support is the union of the three
    boxes."""
    plateau = _COORD_PLATEAU
    center = 0.5 * (plateau[:, 0] + plateau[:, 1])
    extent = plateau[:, 1] - plateau[:, 0]

    def prod_bump(pts, frac, shift):
        val = np.full(pts.shape[:-1], _TEST_AMP)
        for ax in range(4):
            c = center[ax] + shift * extent[ax]
            val = val * _poly_bump((pts[..., ax] - c) / (frac * extent[ax]))
        return val

    def fn(pts):
        T = np.zeros(pts.shape[:-1] + (4, 4))
        thth, rr, trt = (prod_bump(pts, frac, shift) for frac, shift in _NONCONSERVED_BUMPS)
        T[..., 2, 2] = thth
        T[..., 1, 1] = rr
        T[..., 0, 1] = trt
        T[..., 1, 0] = trt
        return T

    lo = [center + shift * extent - frac * extent for frac, shift in _NONCONSERVED_BUMPS]
    hi = [center + shift * extent + frac * extent for frac, shift in _NONCONSERVED_BUMPS]
    # c +- frac * extent is rounded; one ulp outward covers every point
    # the bump's own arithmetic can place inside
    support = np.nextafter(np.stack([np.min(lo, axis=0), np.max(hi, axis=0)], axis=-1),
                           [-np.inf, np.inf])
    return StressEnergyField(fn, support=support)

#: Spherical-chart boxes for the bundled coordinate check.  The conserved
#: source's Cartesian cube (center (3, 0, 0), half-width 0.8) maps into
#: t [-0.8, 0.8], r [2.2, 3.97], theta [1.19, 1.95], phi [-0.35, 0.35];
#: the plateau covers that and the support adds the transition shell,
#: all clear of origin and poles.
_COORD_PLATEAU = np.array([
    [-0.9, 0.9], [2.1, 4.1], [1.15, 2.00], [-0.40, 0.40]])
_COORD_SUPPORT = np.array([
    [-1.25, 1.25], [1.65, 4.55], [0.97, 2.18], [-0.58, 0.58]])


def bundled_coordinate_bump() -> BumpProfile:
    """Bump whose plateau covers the bundled sources."""
    return BumpProfile(plateau=_COORD_PLATEAU.copy(), support=_COORD_SUPPORT.copy(),
                       order=3)
