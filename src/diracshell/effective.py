"""The effective curve operator governing the O(1) spectral term.

For a closed planar curve the operator acts on C^2-valued functions of
arclength as a covariant Schroedinger operator: derivative coupled to the
matrix one-form -kappa(s)*a_3 with coupling (1/2 - 1/pi), plus the scalar
potential -kappa^2/pi^2.  A global phase change splits it into two copies
of the scalar magnetic operator (-i d/ds + (pi-2)/L)^2 - kappa^2/pi^2.

Two discretizations are provided.  ``scheme="fourier"`` is a spectral
Galerkin truncation onto the modes |m| <= n_s//2 - 1 (machine-exact on the
circle, spectrally accurate otherwise) and is the default for spectra.
``scheme="link"`` is the gauge-covariant finite-difference form whose
hopping terms carry midpoint link phases exp(i * integral of the gauge
field over the link); it converges at second order and satisfies the
splitting as an exact matrix identity, which the plain multiply-then-
difference scheme does not.

The one-form is diagonal in spin, so the C^2 matrix is block diagonal
with two isospectral blocks.  For the Fourier scheme the spin-down block
is conj(P B_up P), with P the reversal of the modes m -> -m (kappa is
real, so its Fourier coefficients satisfy c_{-r} = conj(c_r)); for the
link scheme it is the entrywise conjugate of the spin-up block.
``effective_eigenvalues`` therefore solves only the spin-up block, for
eigenvalues alone and only the wanted ones, and reports each twice.

``converged_eigenvalues`` picks the Fourier size itself: it doubles n_s
from AUTO_NS_START until the lowest values stop moving, up to AUTO_NS_CAP.
The reference converges spectrally, so on smooth curves this stops far
below the cap (256 on ellipse(2,1), 128 on the circle, where it is exact).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .clifford import CliffordFamily, gamma
from .eigsolve import HermitianPencil
from .geometry import CurveSpec

__all__ = [
    "DEFAULT_COUPLING",
    "EffectiveFormAssembly",
    "MagneticFormAssembly",
    "omega_oneform",
    "assemble_effective",
    "assemble_magnetic",
    "ConvergedReference",
    "converged_eigenvalues",
    "gauge_transform_check",
    "magnetic_circle_spectrum",
    "effective_spectrum_csv",
]

DEFAULT_COUPLING = 0.5 - 1.0 / math.pi

# converged_eigenvalues doubles n_s from AUTO_NS_START up to AUTO_NS_CAP.  The
# cap keeps the dense C^2 matrix at 2046^2 complex (67 MB); at 4096 it would
# be 8190^2, about 1.07 GB.
AUTO_NS_START = 64
AUTO_NS_CAP = 1024
AUTO_RTOL = 1e-10


@dataclass(frozen=True)
class EffectiveFormAssembly:
    curve: CurveSpec
    n_s: int
    scheme: str
    coupling: float
    pencil: HermitianPencil


@dataclass(frozen=True)
class MagneticFormAssembly:
    curve: CurveSpec
    n_s: int
    scheme: str
    flux: float                 # (pi - 2)/L
    pencil: HermitianPencil


def omega_oneform(fam: CliffordFamily, curve: CurveSpec, s) -> np.ndarray:
    """The matrix one-form -i Gamma(nu'(s)) Gamma(nu(s)); equals -kappa(s)*a_3 in 2D."""
    if fam.n != 2:
        raise ValueError("the curve pipeline requires the n=2 matrix family")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty((s_arr.size, fam.N, fam.N), dtype=complex)
    nu = curve.normal(s_arr)
    dnu = curve.normal_derivative(s_arr)
    for i in range(s_arr.size):
        out[i] = -1.0j * gamma(fam, dnu[i]).gamma @ gamma(fam, nu[i]).gamma
    return out[0] if np.isscalar(s) or np.asarray(s).ndim == 0 else out


def _potential_2d(curve: CurveSpec, s: np.ndarray) -> np.ndarray:
    # (1/2 + 2/pi^2) H_2 - H_1^2 / pi^2 with H_2 = 0 for a curve
    return -curve.curvature(s) ** 2 / math.pi**2


def _fourier_wavenumbers(n_s: int, length: float) -> np.ndarray:
    m_max = n_s // 2 - 1
    modes = np.arange(-m_max, m_max + 1)
    return modes, 2.0 * math.pi * modes / length


def _fourier_coefficients(values: np.ndarray, r_max: int) -> np.ndarray:
    """Coefficients c_r, |r| <= r_max, of a periodic sample set (alias-free grid)."""
    n = values.size
    coef = np.fft.fft(values) / n
    out = np.empty(2 * r_max + 1, dtype=complex)
    for r in range(-r_max, r_max + 1):
        out[r + r_max] = coef[r % n]
    return out


def _toeplitz_from_coeffs(coeffs: np.ndarray, dim: int, r_max: int) -> np.ndarray:
    idx = np.arange(dim)
    diff = idx[:, None] - idx[None, :]
    return coeffs[diff + r_max]


def _fourier_blocks(curve: CurveSpec, n_s: int, coupling: float):
    """Per-spin-component spectral Galerkin matrices of the covariant form."""
    modes, k = _fourier_wavenumbers(n_s, curve.length)
    dim = modes.size
    fine = 4 * n_s
    s = np.arange(fine) * (curve.length / fine)
    kappa = curve.curvature(s)
    r_max = 2 * (n_s // 2 - 1)
    kap_c = _fourier_coefficients(kappa, r_max)
    kap2_c = _fourier_coefficients(kappa**2, r_max)
    t_kap = _toeplitz_from_coeffs(kap_c, dim, r_max)
    t_kap2 = _toeplitz_from_coeffs(kap2_c, dim, r_max)
    ksum = k[:, None] + k[None, :]
    blocks = {}
    for sign in (+1, -1):
        a = np.diag(k.astype(complex) ** 2)
        # cross terms of (f' + i sign*coupling*kappa f); sign tracks the a_3 eigenvalue
        a = a + sign * coupling * ksum * t_kap
        a = a + coupling**2 * t_kap2
        a = a - t_kap2 / math.pi**2
        blocks[sign] = 0.5 * (a + a.conj().T)
    return blocks, k


def _link_phases(curve: CurveSpec, n_s: int) -> tuple[np.ndarray, float]:
    """Midpoint-rule link integrals of kappa over each grid interval."""
    h = curve.length / n_s
    mids = (np.arange(n_s) + 0.5) * h
    return curve.curvature(mids) * h, h


def _link_block(link_angles: np.ndarray, potential: np.ndarray, h: float) -> np.ndarray:
    """Covariant-difference stiffness: hopping exp(i*angle) on each link, plus potential.

    Represents (1/h^2) * sum_i |f_{i+1} - exp(i angle_i) f_i|^2 + sum_i V_i |f_i|^2
    as a matrix acting on grid values (the 1/h mass factor is folded in).
    """
    n = link_angles.size
    a = np.zeros((n, n), dtype=complex)
    links = np.exp(1.0j * link_angles)
    for i in range(n):
        j = (i + 1) % n
        a[i, i] += 1.0 / h**2
        a[j, j] += 1.0 / h**2
        a[j, i] -= links[i] / h**2
        a[i, j] -= np.conj(links[i]) / h**2
    a += np.diag(potential.astype(complex))
    return a


def assemble_effective(
    fam: CliffordFamily,
    curve: CurveSpec,
    n_s: int,
    scheme: str = "fourier",
    coupling: float = DEFAULT_COUPLING,
) -> EffectiveFormAssembly:
    """Hermitian pencil of the covariant curve operator on C^2-valued functions.

    DOFs are ordered [spin-up block, spin-down block]; the one-form is
    diagonal in that splitting, so the two blocks only differ by the sign
    of the coupling term.
    """
    if fam.n != 2:
        raise ValueError("effective assembly is implemented for n = 2")
    if n_s < 16 or n_s % 2:
        raise ValueError("n_s must be even and >= 16")
    if scheme == "fourier":
        blocks, _ = _fourier_blocks(curve, n_s, coupling)
        a = _block_diag(blocks[+1], blocks[-1])
        pencil = HermitianPencil.make(a, None)
    elif scheme == "link":
        angles, h = _link_phases(curve, n_s)
        pot = _potential_2d(curve, np.arange(n_s) * h)
        # spin-up gauge field is -coupling*kappa, spin-down is +coupling*kappa
        up = _link_block(-coupling * angles, pot, h)
        down = _link_block(+coupling * angles, pot, h)
        pencil = HermitianPencil.make(_block_diag(up, down), None)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return EffectiveFormAssembly(
        curve=curve, n_s=n_s, scheme=scheme, coupling=coupling, pencil=pencil,
    )


def assemble_magnetic(
    curve: CurveSpec, n_s: int, scheme: str = "fourier", flux: float | None = None
) -> MagneticFormAssembly:
    """Scalar magnetic operator (-i d/ds + (pi-2)/L)^2 - kappa^2/pi^2.

    ``flux`` overrides the default (pi-2)/L; shifting it by any integer
    multiple of 2*pi/L relabels the Fourier modes and leaves the spectrum
    invariant.
    """
    if n_s < 16 or n_s % 2:
        raise ValueError("n_s must be even and >= 16")
    if flux is None:
        flux = (math.pi - 2.0) / curve.length
    if scheme == "fourier":
        modes, k = _fourier_wavenumbers(n_s, curve.length)
        dim = modes.size
        fine = 4 * n_s
        s = np.arange(fine) * (curve.length / fine)
        r_max = 2 * (n_s // 2 - 1)
        kap2_c = _fourier_coefficients(curve.curvature(s) ** 2, r_max)
        a = np.diag((k + flux).astype(complex) ** 2) - _toeplitz_from_coeffs(kap2_c, dim, r_max) / math.pi**2
        a = 0.5 * (a + a.conj().T)
        pencil = HermitianPencil.make(a, None)
    elif scheme == "link":
        h = curve.length / n_s
        pot = _potential_2d(curve, np.arange(n_s) * h)
        a = _link_block(np.full(n_s, flux * h), pot, h)
        pencil = HermitianPencil.make(a, None)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return MagneticFormAssembly(
        curve=curve, n_s=n_s, scheme=scheme, flux=flux, pencil=pencil,
    )


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def magnetic_circle_spectrum(radius: float, count: int) -> np.ndarray:
    """Analytic eigenvalues {((2 pi n + pi - 2)/L)^2 - 1/(pi R)^2 ... } on the circle.

    On a circle of radius R the flux term is constant and the potential is
    -1/(pi^2 R^2); the eigenvalues over integer Fourier modes n are
    ((2 pi n + pi - 2)/L)^2 - 1/(pi^2 R^2) with L = 2 pi R.
    """
    length = 2.0 * math.pi * radius
    ns = np.arange(-count - 2, count + 3)
    vals = ((2.0 * math.pi * ns + math.pi - 2.0) / length) ** 2 - 1.0 / (math.pi * radius) ** 2
    return np.sort(vals)[:count]


def _lowest_values(a: np.ndarray, count: int) -> np.ndarray:
    return scipy.linalg.eigh(
        a, eigvals_only=True, subset_by_index=[0, count - 1], check_finite=False
    )


def effective_eigenvalues(assembly, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues, ascending, without eigenvectors.

    For an EffectiveFormAssembly only the spin-up block is solved, for its
    ceil(count/2) lowest eigenvalues; the spin-down block is isospectral
    (see the module docstring), so each value is reported twice.  A
    MagneticFormAssembly has a single block and is solved directly.
    """
    a = assembly.pencil.a
    if isinstance(assembly, EffectiveFormAssembly):
        n = a.shape[0] // 2
        return np.repeat(_lowest_values(a[:n, :n], (count + 1) // 2), 2)[:count]
    return _lowest_values(a, count)


@dataclass(frozen=True)
class ConvergedReference:
    eigenvalues: np.ndarray     # the count lowest, at the finest size solved
    n_s: int                    # that size
    err: float | None           # largest change from the size before (None: one size only)
    converged: bool


def converged_eigenvalues(fam: CliffordFamily, curve: CurveSpec, count: int) -> ConvergedReference:
    """The ``count`` lowest Fourier-reference eigenvalues at a self-chosen n_s.

    Doubles n_s from AUTO_NS_START and at each size solves for the lowest
    ceil(count/2) + 1 spin-up values (one beyond those reported).  It stops
    once every one of them moved by at most AUTO_RTOL * max(1, |mu|) since
    the previous size, and reports the finer size's values.  At AUTO_NS_CAP
    without that, the values at the cap come back with ``converged`` False.
    """
    wanted = 2 * ((count + 1) // 2 + 1)
    prev, err, n_s = None, None, AUTO_NS_START
    while True:
        vals = effective_eigenvalues(assemble_effective(fam, curve, n_s), wanted)
        up = vals[::2]
        if prev is not None:
            change = np.abs(up - prev)
            err = float(change.max())
            if np.all(change <= AUTO_RTOL * np.maximum(1.0, np.abs(up))):
                return ConvergedReference(vals[:count], n_s, err, True)
        if 2 * n_s > AUTO_NS_CAP:
            return ConvergedReference(vals[:count], n_s, err, False)
        prev, n_s = up, 2 * n_s


@dataclass(frozen=True)
class GaugeCheckResult:
    spectral_distance: float
    phase_residual: float
    similarity_residual: float
    eigenvalues_effective: np.ndarray
    eigenvalues_magnetic_pair: np.ndarray


def gauge_transform_check(
    fam: CliffordFamily,
    curve: CurveSpec,
    n_s: int,
    count: int = 8,
    coupling: float = DEFAULT_COUPLING,
) -> GaugeCheckResult:
    """Three observables of the splitting into two scalar magnetic copies.

    1. max distance between the lowest ``count`` eigenvalues of the
       covariant operator and of the doubled magnetic operator (spectral
       Galerkin for both);
    2. the periodicity defect of the gauge phase, |V(L)|, which vanishes
       with the total-curvature identity;
    3. the exact matrix identity for the link scheme: conjugating the
       covariant stiffness by the accumulated link-phase gauge must
       reproduce blockdiag(magnetic, conj(magnetic)) entrywise.
    """
    eff = assemble_effective(fam, curve, n_s, scheme="fourier", coupling=coupling)
    mag = assemble_magnetic(curve, n_s, scheme="fourier")
    mu_eff = effective_eigenvalues(eff, count)
    mu_mag = effective_eigenvalues(mag, count)
    doubled = np.sort(np.concatenate([mu_mag, mu_mag]))[:count]
    distance = float(np.abs(mu_eff - doubled).max())

    total = curve.total_curvature()
    phase_residual = abs(coupling * (total + 2.0 * math.pi))

    # exact discrete identity on the link scheme
    angles, h = _link_phases(curve, n_s)
    pot = _potential_2d(curve, np.arange(n_s) * h)
    up = _link_block(-coupling * angles, pot, h)
    down = _link_block(+coupling * angles, pot, h)
    flux = (math.pi - 2.0) / curve.length
    mag_link = _link_block(np.full(n_s, flux * h), pot, h)
    # accumulated gauge phases: V_{i+1} - V_i = coupling*(I_i + 2*pi*h/L)
    incr = coupling * (angles + 2.0 * math.pi * h / curve.length)
    v = np.concatenate([[0.0], np.cumsum(incr)])[:-1]
    d_up = np.diag(np.exp(-1.0j * v))
    d_down = np.diag(np.exp(+1.0j * v))
    sim_up = np.abs(d_up.conj().T @ up @ d_up - mag_link).max()
    sim_down = np.abs(d_down.conj().T @ down @ d_down - mag_link.conj()).max()
    # rounding floor scales with the 1/h^2 hopping entries, so normalize
    similarity = float(max(sim_up, sim_down) / max(1.0, np.abs(mag_link).max()))
    return GaugeCheckResult(
        spectral_distance=distance,
        phase_residual=float(phase_residual),
        similarity_residual=similarity,
        eigenvalues_effective=mu_eff,
        eigenvalues_magnetic_pair=doubled,
    )


def effective_spectrum_csv(
    path, fam, curve, n_s: int, count: int = 8, coupling: float = DEFAULT_COUPLING
) -> GaugeCheckResult:
    """Write rows (index, mu_effective, mu_magnetic_pair, abs diff)."""
    result = gauge_transform_check(fam, curve, n_s, count=count, coupling=coupling)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mu_effective", "mu_magnetic_pair", "abs_diff"])
        for i in range(count):
            a = result.eigenvalues_effective[i]
            b = result.eigenvalues_magnetic_pair[i]
            writer.writerow([i + 1, repr(a), repr(b), repr(abs(a - b))])
    return result
