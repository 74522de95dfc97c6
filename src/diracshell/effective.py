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

The one-form is diagonal in spin, so the operator is the direct sum of two
scalar blocks with gauge fields -/+ coupling*kappa, and both
discretizations assemble one scalar routine, ``_covariant_block``.  The
blocks are isospectral: complex conjugation maps one onto the other
(kappa is real).  ``assemble_effective`` therefore assembles the spin-up
block only, as a ``paired`` EffectiveFormAssembly; the spin-down block is
the same assembly with the coupling negated.  ``effective_eigenvalues``
solves a paired block for the wanted eigenvalues alone, through the dense
oracle ``eigsolve.dense_hermitian_eig``, and reports each twice, with its
residual.
``assemble_magnetic`` returns the scalar magnetic block, unpaired.
Every assembler takes the curve alone: the curve operator is the n = 2
operator by construction, its one-form -kappa*a_3 written into the blocks.
Only ``omega_oneform``, which evaluates that one-form from the Clifford
matrices, takes a family.

``converged_eigenvalues`` picks the Fourier size itself: it doubles n_s
from AUTO_NS_START until the lowest values stop moving, up to its cap.
The reference converges spectrally, so on smooth curves this stops far
below the cap (256 on ellipse(2,1), 128 on the circle, where it is exact).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordFamily, gamma
from .eigsolve import DENSE_DIM_LIMIT, HermitianPencil, SpectrumResult, dense_hermitian_eig
from .geometry import CurveSpec

__all__ = [
    "DEFAULT_COUPLING",
    "EffectiveFormAssembly",
    "omega_oneform",
    "assemble_effective",
    "assemble_magnetic",
    "ConvergedReference",
    "converged_eigenvalues",
    "valid_ns",
    "gauge_transform_check",
    "magnetic_circle_spectrum",
    "effective_spectrum_csv",
]

DEFAULT_COUPLING = 0.5 - 1.0 / math.pi

# converged_eigenvalues doubles n_s from AUTO_NS_START up to its cap, by default
# AUTO_NS_CAP.  That default keeps the dense spin-up block at 1023^2 complex
# (17 MB); at 4096 it would be 4095^2, about 268 MB.
AUTO_NS_START = 64
AUTO_NS_CAP = 1024
AUTO_RTOL = 1e-10
# smallest n_s an effective assembly accepts; see valid_ns
MIN_NS = 16


def valid_ns(n_s: int) -> bool:
    """Whether n_s is an effective grid size: even, at least MIN_NS, and with a
    block of dim n_s - 1 within the dense oracle's cap DENSE_DIM_LIMIT."""
    return n_s >= MIN_NS and n_s % 2 == 0 and n_s - 1 <= DENSE_DIM_LIMIT


@dataclass(frozen=True)
class EffectiveFormAssembly:
    pencil: HermitianPencil
    paired: bool    # True: the spin-up block, each eigenvalue counted twice


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


def _covariant_block(curve: CurveSpec, n_s: int, scheme: str, alpha: float, beta: float) -> np.ndarray:
    """Galerkin matrix of (-i d/ds + A)^2 - kappa^2/pi^2 with A = alpha*kappa + beta.

    The potential is (1/2 + 2/pi^2) H_2 - H_1^2/pi^2 with H_2 = 0 for a curve.
    ``"fourier"``: modes |m| <= n_s//2 - 1, the matrix
    diag(k^2) + (k_i + k_j) T[A] + T[A^2 - kappa^2/pi^2], where T[f] holds
    f's Fourier coefficient c_{i-j}, taken from 4*n_s samples.  ``"link"``:
    n_s grid values, hopping exp(i*A(mid)*h) on each link and the potential
    at the grid points.  The link matrix discretizes (-i d/ds - A)^2, the
    complex-conjugate operator, which has the same spectrum.
    """
    if not valid_ns(n_s):
        raise ValueError(f"n_s must be even with {MIN_NS} <= n_s and n_s - 1 <= {DENSE_DIM_LIMIT}")
    if scheme == "fourier":
        fine = 4 * n_s
        kappa = curve.curvature(np.arange(fine) * (curve.length / fine))
        gauge = alpha * kappa + beta
        t_a, t_b = np.fft.fft([gauge, gauge**2 - kappa**2 / math.pi**2]) / fine
        k = 2.0 * math.pi * np.arange(1 - n_s // 2, n_s // 2) / curve.length
        diff = (np.arange(k.size)[:, None] - np.arange(k.size)[None, :]) % fine
        a = np.diag(k.astype(complex) ** 2) + (k[:, None] + k[None, :]) * t_a[diff] + t_b[diff]
        return 0.5 * (a + a.conj().T)
    if scheme == "link":
        h = curve.length / n_s
        # even samples are the grid points, odd ones the link midpoints
        kappa = curve.curvature(np.arange(2 * n_s) * (h / 2.0))
        angles = (alpha * kappa[1::2] + beta) * h
        return _link_block(angles, -kappa[::2] ** 2 / math.pi**2, h)
    raise ValueError(f"unknown scheme {scheme!r}")


def _link_block(link_angles: np.ndarray, potential: np.ndarray, h: float) -> np.ndarray:
    """Covariant-difference stiffness: hopping exp(i*angle) on each link, plus potential.

    Represents (1/h^2) * sum_i |f_{i+1} - exp(i angle_i) f_i|^2 + sum_i V_i |f_i|^2
    as a matrix acting on grid values (the 1/h mass factor is folded in).
    """
    i = np.arange(link_angles.size)
    j = (i + 1) % i.size
    a = np.diag((2.0 / h**2 + potential).astype(complex))
    links = np.exp(1.0j * link_angles) / h**2
    a[j, i] -= links
    a[i, j] -= np.conj(links)
    return a


def assemble_effective(
    curve: CurveSpec, n_s: int, scheme: str = "fourier", coupling: float = DEFAULT_COUPLING
) -> EffectiveFormAssembly:
    """Hermitian pencil of the spin-up block of the covariant curve operator on ``curve``.

    The block has gauge field -coupling*kappa.  The spin-down block, with
    gauge field +coupling*kappa, is ``assemble_effective(..., coupling=-coupling)``
    and has the same spectrum (see the module docstring).
    """
    a = _covariant_block(curve, n_s, scheme, -coupling, 0.0)
    return EffectiveFormAssembly(HermitianPencil.make(a), paired=True)


def assemble_magnetic(curve: CurveSpec, n_s: int, scheme: str = "fourier") -> EffectiveFormAssembly:
    """Scalar magnetic operator (-i d/ds + (pi-2)/L)^2 - kappa^2/pi^2."""
    a = _covariant_block(curve, n_s, scheme, 0.0, (math.pi - 2.0) / curve.length)
    return EffectiveFormAssembly(HermitianPencil.make(a), paired=False)


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


def effective_eigenvalues(assembly: EffectiveFormAssembly, count: int) -> SpectrumResult:
    """The ``count`` lowest eigenvalues and their residuals, ascending, from the dense oracle.

    A ``paired`` assembly holds the spin-up block; it is solved for its
    ceil(count/2) lowest eigenvalues, and each is reported twice with its
    residual, since the spin-down block is isospectral (see the module
    docstring).  The result holds no eigenvectors.  A block that fails the
    oracle's hermiticity check raises ValueError.
    """
    copies = 2 if assembly.paired else 1
    res = dense_hermitian_eig(assembly.pencil.a, count=-(-count // copies))
    return SpectrumResult(
        eigenvalues=np.repeat(res.eigenvalues, copies)[:count],
        residuals=np.repeat(res.residuals, copies)[:count],
        iterations=0,
    )


@dataclass(frozen=True)
class ConvergedReference:
    eigenvalues: np.ndarray     # the count lowest, at the finest size solved
    n_s: int                    # that size
    cap: int                    # the largest size it was allowed
    err: float | None           # largest change from the size before (None: one size only)
    converged: bool
    residual_max: float         # the dense oracle's largest residual over the values reported


def converged_eigenvalues(curve: CurveSpec, count: int, cap: int | None = None) -> ConvergedReference:
    """The ``count`` lowest Fourier-reference eigenvalues at a self-chosen n_s <= cap.

    Doubles n_s from min(AUTO_NS_START, cap) while 2 n_s <= cap (``cap``
    None: AUTO_NS_CAP, read at the call), and at each size solves for the
    lowest ceil(count/2) + 1 spin-up values (one beyond those reported).  It
    stops once every one of them moved by at most AUTO_RTOL * max(1, |mu|)
    since the previous size, and reports the finer size's values and their
    largest residual.  Without that at the last size, its values come back
    with ``converged`` False (and ``err`` None when it was the only size).
    """
    cap = AUTO_NS_CAP if cap is None else cap
    wanted = 2 * ((count + 1) // 2 + 1)
    prev, err, n_s = None, None, min(AUTO_NS_START, cap)
    while True:
        res = effective_eigenvalues(assemble_effective(curve, n_s), wanted)
        up = res.eigenvalues[::2]
        converged = False
        if prev is not None:
            change = np.abs(up - prev)
            err = float(change.max())
            converged = bool(np.all(change <= AUTO_RTOL * np.maximum(1.0, np.abs(up))))
        if converged or 2 * n_s > cap:
            return ConvergedReference(
                res.eigenvalues[:count], n_s, cap, err, converged, float(res.residuals[:count].max())
            )
        prev, n_s = up, 2 * n_s


@dataclass(frozen=True)
class GaugeCheckResult:
    spectral_distance: float
    phase_residual: float
    similarity_residual: float
    eigenvalues_effective: np.ndarray
    eigenvalues_magnetic_pair: np.ndarray


def gauge_transform_check(
    curve: CurveSpec, n_s: int, count: int = 8, coupling: float = DEFAULT_COUPLING
) -> GaugeCheckResult:
    """Three observables of the splitting into two scalar magnetic copies.

    1. max distance between the lowest ``count`` eigenvalues of the
       covariant operator and of the doubled magnetic operator (spectral
       Galerkin for both);
    2. the periodicity defect of the gauge phase, |V(L)|, which vanishes
       with the total-curvature identity;
    3. the matrix identity for the link scheme: conjugating the spin-up
       and spin-down blocks by the accumulated link-phase gauge must
       reproduce the magnetic matrix and its conjugate entrywise.  It is
       exact only as far as the midpoint sum of kappa(mid_i)*h closes to
       -2*pi; otherwise the wrap-around link keeps that phase defect.  The
       similarity residual is about 1e-15 on ellipse(2,1) at n_s 256 and
       512, but 5.06e-9 on ellipse(4,1) at n_s=256 (the sum misses -2*pi
       by 5.6e-8 there) and 1.1e-15 at 512.
    """
    eff = assemble_effective(curve, n_s, scheme="fourier", coupling=coupling)
    mag = assemble_magnetic(curve, n_s, scheme="fourier")
    mu_eff = effective_eigenvalues(eff, count).eigenvalues
    mu_mag = effective_eigenvalues(mag, count).eigenvalues
    doubled = np.sort(np.concatenate([mu_mag, mu_mag]))[:count]
    distance = float(np.abs(mu_eff - doubled).max())

    total = curve.total_curvature()
    phase_residual = abs(coupling * (total + 2.0 * math.pi))

    # exact discrete identity on the link scheme
    up = assemble_effective(curve, n_s, scheme="link", coupling=coupling).pencil.a
    down = assemble_effective(curve, n_s, scheme="link", coupling=-coupling).pencil.a
    mag_link = assemble_magnetic(curve, n_s, scheme="link").pencil.a
    h = curve.length / n_s
    angles = curve.curvature((np.arange(n_s) + 0.5) * h) * h
    # accumulated gauge phases: V_{i+1} - V_i = coupling*(I_i + 2*pi*h/L), with
    # I_i = kappa(mid_i)*h the midpoint link integral of kappa
    incr = coupling * (angles + 2.0 * math.pi * h / curve.length)
    v = np.concatenate([[0.0], np.cumsum(incr)])[:-1]
    # D^H M D with D = diag(phase), as row and column phase factors
    phase = np.exp(-1.0j * v)
    sim_up = np.abs(phase.conj()[:, None] * up * phase[None, :] - mag_link).max()
    sim_down = np.abs(phase[:, None] * down * phase.conj()[None, :] - mag_link.conj()).max()
    # rounding floor scales with the 1/h^2 hopping entries, so normalize
    similarity = float(max(sim_up, sim_down) / max(1.0, np.abs(mag_link).max()))
    return GaugeCheckResult(
        spectral_distance=distance,
        phase_residual=float(phase_residual),
        similarity_residual=similarity,
        eigenvalues_effective=mu_eff,
        eigenvalues_magnetic_pair=doubled,
    )


def effective_spectrum_csv(path, curve: CurveSpec, n_s: int, count: int = 8) -> GaugeCheckResult:
    """Write rows (index, mu_effective, mu_magnetic_pair, abs diff) at the derived coupling."""
    result = gauge_transform_check(curve, n_s, count=count)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mu_effective", "mu_magnetic_pair", "abs_diff"])
        for i in range(count):
            a = result.eigenvalues_effective[i]
            b = result.eigenvalues_magnetic_pair[i]
            writer.writerow([i + 1, repr(a), repr(b), repr(abs(a - b))])
    return result
