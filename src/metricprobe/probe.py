"""Gaussian probe states in mode space and the amplitude bound.

For a probe beam along +x, y-polarized, interacting for a window tau,
the mean-field generator reduces to the beam quadrature

    X1 = sqrt(hbar C / 2) (b + b^dagger),
    C  = (1/2) hbar sum_k (omega_k tau)^2 |alpha_k|^2,

with b the effective single mode built from the mean-field spectrum
alpha_k (discrete normalization: the mode-cell weight is absorbed into
|alpha_k|^2, so nbar = sum |alpha_k|^2).  The conjugate readout
quadrature X2 uses the pi/2-rotated spectrum i alpha, and thermodynamic
consistency is the commutation identity [X1, X2] = i hbar C.

The minimum-uncertainty Gaussian reference states give

    var X1 = (hbar C / 2) e^{+2r},   var X2 = (hbar C / 2) e^{-2r},
    crlb   = hbar^2 / (4 var X1)     (variance bound on the amplitude),

so the coherent shot-noise limit is hbar / 2C and squeezing the readout
quadrature by r wins a factor e^{-2r}.  Modes with omega below the
window's resolution 2 pi / tau carry no accumulated phase and are
excluded (DC cutoff); counter-rotating contributions, suppressed as
1/(omega tau), are dropped and surfaced as a diagnostic scale.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

#: the band spectra's lattice size when none is given, in the API and in
#: a scenario's probe.spectrum
BAND_MODES = 101


@dataclass(frozen=True)
class ModeLattice:
    """Discrete set of probe modes of the standard y-polarized beam:
    wavevectors (N, 3), kept as a read-only copy, frequencies |k| (units
    c = 1).  Mode-cell weights are absorbed into the spectrum's |alpha_k|^2."""

    k: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=float, ndmin=2)
        if k.ndim != 2 or k.shape[1] != 3 or k.shape[0] == 0:
            raise ValueError("k must have shape (N, 3) with N >= 1")
        if not np.all(np.isfinite(k)):
            raise ValueError("k must be finite")
        if np.any(np.linalg.norm(k, axis=1) <= 0):
            raise ValueError("every mode needs omega = |k| > 0")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    @property
    def omega(self) -> np.ndarray:
        return np.linalg.norm(self.k, axis=1)

    def __len__(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class ModeSpectrum:
    """Mean-field amplitude alpha_k on a lattice, kept as a read-only copy,
    with the finite window tau.  Modes with omega < dc_cutoff_mult * 2 pi /
    tau are masked out of every mode sum and counted in ``n_dc_excluded``;
    dc_cutoff_mult is finite and >= 0, and 0 keeps every mode."""

    lattice: ModeLattice
    alpha: np.ndarray
    tau: float
    dc_cutoff_mult: float = 1.0

    def __post_init__(self):
        a = np.array(self.alpha, dtype=complex, ndmin=1)
        if a.shape != (len(self.lattice),):
            raise ValueError("alpha must have one amplitude per mode")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("alpha must be finite")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if not (math.isfinite(self.dc_cutoff_mult) and self.dc_cutoff_mult >= 0):
            raise ValueError("dc_cutoff_mult must be finite and nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "tau", float(self.tau))
        self._paraxial_warning()

    @property
    def omega_min(self) -> float:
        return self.dc_cutoff_mult * 2.0 * math.pi / self.tau

    @property
    def active(self) -> np.ndarray:
        return self.lattice.omega >= self.omega_min

    @property
    def n_dc_excluded(self) -> int:
        return int(np.sum(~self.active))

    def conjugate(self) -> "ModeSpectrum":
        """The pi/2-rotated spectrum i alpha defining the conjugate
        readout quadrature."""
        return replace(self, alpha=1j * self.alpha)

    def _paraxial_warning(self):
        a2 = np.abs(self.alpha) ** 2
        total = float(np.sum(a2))
        if total == 0.0:
            return
        khat_x = self.lattice.k[:, 0] / self.lattice.omega
        off_axis = float(np.sum(a2[khat_x < 0.99])) / total
        if off_axis > 1e-9:
            warnings.warn("spectrum is not paraxial along +x; the beam-quadrature "
                          "reduction assumes k ~ omega x-hat "
                          f"(off-axis weight {off_axis:.2e})")


def effective_constant_C(spec: ModeSpectrum, hbar: float = 1.0) -> float:
    """C = (1/2) hbar sum (omega tau)^2 |alpha|^2 over active modes."""
    m = spec.active
    if not m.any():
        raise ValueError("no modes survive the DC cutoff")
    al = spec.alpha[m]
    a2 = al.real ** 2 + al.imag ** 2
    return 0.5 * hbar * float(np.sum((spec.lattice.omega[m] * spec.tau) ** 2 * a2))


def commutator_constant(spec1: ModeSpectrum, spec2: ModeSpectrum, hbar: float = 1.0) -> float:
    """(1/2) hbar sum (omega tau)^2 Im(alpha1* alpha2): the constant in
    [X1, X2] = i hbar x (this value).  Equals C when alpha2 = i alpha1."""
    if spec1.lattice is not spec2.lattice and not np.array_equal(spec1.lattice.k, spec2.lattice.k):
        raise ValueError("spectra must share a mode lattice")
    if spec1.tau != spec2.tau:
        raise ValueError("spectra must share the window tau")
    if spec1.dc_cutoff_mult != spec2.dc_cutoff_mult:
        raise ValueError("spectra must share the DC cutoff")
    m = spec1.active
    om = spec1.lattice.omega[m]
    prod = np.conj(spec1.alpha[m]) * spec2.alpha[m]
    return 0.5 * hbar * float(np.sum((om * spec1.tau) ** 2 * prod.imag))


def effective_mode_coefficients(spec: ModeSpectrum, hbar: float = 1.0) -> np.ndarray:
    """Coefficients c_k of the effective mode b = sum c_k a_k (zero on
    DC-excluded modes), normalized so sum |c_k|^2 = 1:
    c_k = hbar omega_k tau conj(alpha_k) / sqrt(2 hbar C)."""
    C = effective_constant_C(spec, hbar)
    if C == 0.0:
        raise ValueError("zero mean field: effective mode undefined")
    c = np.zeros(len(spec.lattice), dtype=complex)
    m = spec.active
    om = spec.lattice.omega[m]
    c[m] = hbar * om * spec.tau * np.conj(spec.alpha[m]) / math.sqrt(2.0 * hbar * C)
    return c


# ---------------------------------------------------------------------------
# states and the bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianProbeState:
    """Minimum-uncertainty Gaussian probe: a mean-field spectrum plus
    squeezed-vacuum fluctuations of the effective mode.  squeeze_r > 0
    shrinks the readout quadrature X2; squeeze_r = 0 is the coherent
    state, so squeeze_r alone says which reference the probe is in."""

    spectrum: ModeSpectrum
    squeeze_r: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if not self.squeeze_r >= 0:
            raise ValueError("squeeze_r must be >= 0")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")


def quadrature_variances(state: GaussianProbeState) -> tuple:
    """(var X1, var X2) = (hbar C / 2) (e^{2r}, e^{-2r})."""
    C = effective_constant_C(state.spectrum, state.hbar)
    half = 0.5 * state.hbar * C
    r = state.squeeze_r
    return half * math.exp(2.0 * r), half * math.exp(-2.0 * r)


def _squeeze_moments(r: float) -> tuple:
    """(n, m) = (<b~^dagger b~>, <b~ b~>) = (sinh^2 r, sinh r cosh r):
    the second moments of the effective mode's fluctuation operator in
    squeezed vacuum."""
    return math.sinh(r) ** 2, math.sinh(r) * math.cosh(r)


def hamiltonian_variance(state: GaussianProbeState) -> float:
    """Variance of the linearized free Hamiltonian,
    dH = sum_k hbar omega_k (alpha_k* da_k + alpha_k da_k^dagger).

    On the coherent reference this is sum (hbar omega_k)^2 |alpha_k|^2;
    squeezing modifies the part of dH that lies along the effective
    mode.  This is the energy-fluctuation route into the time-energy
    bound, independent of the frequency-tau weighting in C.
    """
    spec = state.spectrum
    hbar = state.hbar
    m = spec.active
    v = hbar * spec.lattice.omega[m] * np.conj(spec.alpha[m])
    total = float(np.sum(np.abs(v) ** 2))
    r = state.squeeze_r
    if r == 0.0:
        return total
    c = effective_mode_coefficients(spec, hbar)[m]
    p = complex(np.sum(v * np.conj(c)))
    n, mm = _squeeze_moments(r)
    # p b + p* b^dagger on the squeezed reference
    along = abs(p) ** 2 * (2.0 * n + 1.0) + 2.0 * (p ** 2).real * mm
    return total - abs(p) ** 2 + along


@dataclass(frozen=True)
class CrlbReport:
    """Amplitude-estimation bound and its diagnostics.  All quantities
    in geometric units with the declared hbar; 'flags' collects
    out-of-model conditions (zero mean field between them)."""

    C: float
    var_X1: float
    var_X2: float
    crlb: float
    shot_noise: float
    remainder_ratio: float
    n_dc_excluded: int
    commutator_residual: float
    counter_rotating_scale: float
    flags: tuple = ()


def reference_remainder_variance(state: GaussianProbeState) -> float:
    """Variance of the quadratic remainder of the generator in the
    reference state, single-effective-mode model.

    The remainder restricted to the effective mode is
    F = g b~^dagger b~ with g = (hbar tau / 2) sum omega_k |c_k|^2 and
    b~ the fluctuation operator; for a zero-mean Gaussian state with
    second moments n = <b~^dagger b~>, m = <b~ b~> the fourth-moment
    (Wick) variance is g^2 (n^2 + n + |m|^2).  Coherent reference: 0.
    """
    if state.squeeze_r == 0.0:
        return 0.0
    spec = state.spectrum
    c = effective_mode_coefficients(spec, state.hbar)
    om = spec.lattice.omega
    g = 0.5 * state.hbar * spec.tau * float(np.sum(om * np.abs(c) ** 2))
    n, m = _squeeze_moments(state.squeeze_r)
    return g ** 2 * (n ** 2 + n + m ** 2)


def remainder_variance_lattice(state: GaussianProbeState) -> float:
    """Exact multimode Wick variance of the quadratic remainder
    F = (hbar tau / 2) sum_k omega_k da_k^dagger da_k on the occupied
    lattice, with squeezing along the effective mode.  Used as the
    cross-check route against the single-mode model and the Fock oracle.
    """
    spec = state.spectrum
    c = effective_mode_coefficients(spec, state.hbar)
    om = spec.lattice.omega
    h = 0.5 * state.hbar * spec.tau * om
    n, m = _squeeze_moments(state.squeeze_r)
    c2 = np.abs(c) ** 2
    g1 = float(np.sum(h * c2))
    g2 = float(np.sum(h ** 2 * c2))
    # N_jk = n c_j c_k*, M_jk = m c_j* c_k*:
    # Var = (n^2 + |m|^2) g1^2 + n g2
    return (n ** 2 + m ** 2) * g1 ** 2 + n * g2


def crlb_amplitude(state: GaussianProbeState) -> CrlbReport:
    """Bound report for the amplitude parameter.

    crlb = hbar^2 / (4 var X1); for the minimum-uncertainty references
    this equals var X2 / C^2, the variance of the optimal linear
    estimator from the X2 readout.  A zero mean field (C = 0) leaves
    the amplitude invisible at mean-field level and is flagged rather
    than raised.
    """
    spec = state.spectrum
    hbar = state.hbar
    C = effective_constant_C(spec, hbar)
    if C == 0.0:
        values = dict(var_X1=0.0, var_X2=0.0, crlb=math.inf, shot_noise=math.inf,
                      remainder_ratio=math.nan, commutator_residual=0.0,
                      flags=("zero-mean-field: bound undefined at mean-field level",))
    else:
        v1, v2 = quadrature_variances(state)
        comm = commutator_constant(spec, spec.conjugate(), hbar)
        values = dict(var_X1=v1, var_X2=v2, crlb=hbar ** 2 / (4.0 * v1),
                      shot_noise=hbar / (2.0 * C),
                      remainder_ratio=reference_remainder_variance(state) / v1,
                      commutator_residual=abs(comm - C) / C)
    return CrlbReport(C=C, n_dc_excluded=spec.n_dc_excluded,
                      counter_rotating_scale=_cr_scale(spec), **values)


def _cr_scale(spec: ModeSpectrum) -> float:
    """Size of the dropped counter-rotating terms, ~ 1 / (omega tau) on
    the slowest occupied mode."""
    m = spec.active & (np.abs(spec.alpha) > 0)
    if not m.any():
        return 0.0
    return float(np.max(1.0 / (spec.lattice.omega[m] * spec.tau)))


# ---------------------------------------------------------------------------
# spectrum constructors
# ---------------------------------------------------------------------------

def _axis_lattice(omegas: np.ndarray) -> ModeLattice:
    k = np.zeros((len(omegas), 3))
    k[:, 0] = omegas
    return ModeLattice(k=k)


def monochromatic_spectrum(omega: float, n_photons: float, tau: float,
                           dc_cutoff_mult: float = 1.0) -> ModeSpectrum:
    """Single mode along +x with |alpha|^2 = n_photons."""
    if omega <= 0 or n_photons < 0:
        raise ValueError("omega must be positive and n_photons nonnegative")
    lat = _axis_lattice(np.array([omega]))
    return ModeSpectrum(lattice=lat, alpha=np.array([math.sqrt(n_photons)], dtype=complex),
                        tau=tau, dc_cutoff_mult=dc_cutoff_mult)


def gaussian_band_spectrum(omega0: float, fractional_width: float, n_photons: float,
                           tau: float, n_modes: int = BAND_MODES,
                           dc_cutoff_mult: float = 1.0) -> ModeSpectrum:
    """Gaussian band around omega0 with rms width fractional_width * omega0,
    sampled on n_modes uniformly spaced frequencies spanning +- 4 widths,
    amplitudes normalized to sum |alpha|^2 = n_photons."""
    if n_modes < 3:
        raise ValueError("need at least 3 modes to resolve the band")
    if omega0 <= 0 or fractional_width <= 0 or n_photons < 0:
        raise ValueError("omega0 and fractional_width must be positive and n_photons "
                         "nonnegative")
    sigma = fractional_width * omega0
    lo = max(omega0 - 4.0 * sigma, 1e-6 * omega0)
    om = np.linspace(lo, omega0 + 4.0 * sigma, n_modes)
    w = np.exp(-0.5 * ((om - omega0) / sigma) ** 2)
    a2 = n_photons * w / np.sum(w)
    lat = _axis_lattice(om)
    return ModeSpectrum(lattice=lat, alpha=np.sqrt(a2).astype(complex), tau=tau,
                        dc_cutoff_mult=dc_cutoff_mult)


def flat_band_spectrum(omega_lo: float, omega_hi: float, n_photons: float, tau: float,
                       n_modes: int = BAND_MODES, dc_cutoff_mult: float = 1.0) -> ModeSpectrum:
    """Top-hat band on [omega_lo, omega_hi] with equal per-mode weight."""
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    if n_modes < 1 or n_photons < 0:
        raise ValueError("n_modes must be at least 1 and n_photons nonnegative")
    om = np.linspace(omega_lo, omega_hi, n_modes)
    a2 = np.full(n_modes, n_photons / n_modes)
    return ModeSpectrum(lattice=_axis_lattice(om), alpha=np.sqrt(a2).astype(complex),
                        tau=tau, dc_cutoff_mult=dc_cutoff_mult)


def load_spectrum_table(path, tau: float, dc_cutoff_mult: float = 1.0) -> ModeSpectrum:
    """Tabulated spectrum: rows of (kx, ky, kz, Re alpha, Im alpha)."""
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 5:
        raise ValueError("spectrum table needs columns kx ky kz Re(alpha) Im(alpha)")
    lat = ModeLattice(k=data[:, :3])
    return ModeSpectrum(lattice=lat, alpha=data[:, 3] + 1j * data[:, 4], tau=tau,
                        dc_cutoff_mult=dc_cutoff_mult)


def save_spectrum_table(path, spec: ModeSpectrum) -> None:
    rows = np.hstack([spec.lattice.k, spec.alpha.real[:, None], spec.alpha.imag[:, None]])
    np.savetxt(path, rows, header="kx ky kz Re(alpha) Im(alpha)")


# ---------------------------------------------------------------------------
# smeared light-cone kernel check
# ---------------------------------------------------------------------------

def smeared_correlator_check(separation_t: float, separation_x: float,
                             width: float) -> dict:
    """Field-commutator kernel at spacelike separation, two routes.

    The mode-sum route evaluates, on a uniform radial frequency lattice
    of 20001 points up to 10 / width with a Gaussian cutoff at 1/width,

        D_num = (1/r) int_0^inf sin(omega r) cos(omega t)
                e^{-omega^2 width^2 / 2} domega,

    (the angular mode integral done in closed form gives the sin factor);
    the closed-form route is D = 1 / (r^2 - t^2).  Spacelike separation
    with margin is required: r > |t| + 3 width.
    """
    r = float(separation_x)
    t = float(separation_t)
    w = float(width)
    if r <= 0 or w <= 0:
        raise ValueError("separation_x and width must be positive")
    if r <= abs(t) + 3.0 * w:
        raise ValueError("separation too close to the light cone for the smearing width")
    om = np.linspace(0.0, 10.0 / w, 20001)
    integrand = np.sin(om * r) * np.cos(om * t) * np.exp(-0.5 * (om * w) ** 2)
    dom = om[1] - om[0]
    numeric = float(dom * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])) / r)
    analytic = 1.0 / (r ** 2 - t ** 2)
    return {"numeric": numeric, "analytic": analytic,
            "relative_error": abs(numeric - analytic) / abs(analytic)}
