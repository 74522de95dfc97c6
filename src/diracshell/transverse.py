"""The one-dimensional transverse Dirac operator on (-1, 1).

For mass m >= 0 and a unit direction x the operator acts as
T f = -i Gamma(x) f' + m a_{n+1} f on spinors with the infinite-mass
boundary constraint -i a_{n+1} Gamma(x) f(+-1) = +-f(+-1).  Its spectrum
is {+-E_p(m)} with E_p = sqrt(m^2 + k_p^2) and k_p the unique root of
m sin(2k) + k cos(2k) = 0 in [(2p-1)pi/4, p*pi/2].

Eigenmodes are trigonometric, so every integral here uses a fixed
64-node Gauss-Legendre rule on (-1, 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clifford import CliffordFamily, gamma

__all__ = [
    "secular",
    "solve_k",
    "k1_series",
    "energy",
    "level",
    "normalization",
    "TransverseMode",
    "mode",
    "quadratic_form_identity_check",
    "mode_perturbation_check",
    "transverse_table",
    "gauss_legendre",
]

_GL64 = np.polynomial.legendre.leggauss(64)


def gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-node rule on (-1, 1)."""
    return _GL64


def secular(k: float, m: float) -> float:
    """g(k) = m sin(2k) + k cos(2k); transverse momenta are its positive roots."""
    return m * math.sin(2.0 * k) + k * math.cos(2.0 * k)


def _secular_prime(k: float, m: float) -> float:
    return 2.0 * m * math.cos(2.0 * k) + math.cos(2.0 * k) - 2.0 * k * math.sin(2.0 * k)


def bracket(p: int) -> tuple[float, float]:
    """Root bracket [(2p-1)pi/4, p*pi/2] of the p-th band."""
    return (2 * p - 1) * math.pi / 4.0, p * math.pi / 2.0


def solve_k(m: float, p: int) -> float:
    """The p-th transverse momentum k_p(m), by bisection and one Newton step.

    The bracket endpoints have opposite secular signs for m > 0; at m = 0
    the left endpoint is the root exactly.  Bisection halves the bracket
    until its ends are adjacent floats.
    """
    if m < 0:
        raise ValueError("mass must be nonnegative")
    if p < 1:
        raise ValueError("band index must be >= 1")
    lo, hi = bracket(p)
    if m == 0.0:
        return lo
    lo_positive = secular(lo, m) > 0
    k = 0.5 * (lo + hi)
    while lo < k < hi:
        if (secular(k, m) > 0) == lo_positive:
            lo = k
        else:
            hi = k
        k = 0.5 * (lo + hi)
    # one polish step pushes the residual to the rounding floor
    df = _secular_prime(k, m)
    if df != 0.0:
        k_pol = k - secular(k, m) / df
        if abs(secular(k_pol, m)) < abs(secular(k, m)):
            k = k_pol
    return k


def k1_series(m: float) -> float:
    """Small-mass expansion of the first momentum: pi/4 + 2m/pi - 16 m^2/pi^3.

    Cross-check only (documented validity m <= 0.3); assembly always uses
    solve_k.
    """
    return math.pi / 4.0 + (2.0 / math.pi) * m - (16.0 / math.pi**3) * m * m


def energy(m: float, p: int) -> float:
    """E_p(m) = sqrt(m^2 + k_p(m)^2)."""
    return math.hypot(m, solve_k(m, p))


def level(m: float, eps: float, p: int = 1) -> float:
    """The p-th transverse level E_p(m eps)^2/eps^2 of a shell of width eps.

    It is (k^2 + (m eps)^2)/eps^2 with k = solve_k(m eps, p).  Every shell
    eigenvalue sits O(1) above the ground level p = 1; this is the one
    place the package evaluates it.
    """
    me = m * eps
    k = solve_k(me, p)
    return (k * k + me * me) / eps**2


def normalization(m: float, p: int) -> float:
    """Positive constant N with 1 = 2 N^2 (2 E^2 - m^2 sin(4k)/(2k) + m sin(2k)^2).

    This closed form makes the explicit eigenmodes L^2-normalized on
    (-1, 1); at m = 0 it reduces to 1/(2 E_p), i.e. 2/pi for the first band.
    """
    k = solve_k(m, p)
    e2 = m * m + k * k
    val = 2.0 * e2 - m * m * math.sin(4.0 * k) / (2.0 * k) + m * math.sin(2.0 * k) ** 2
    return 1.0 / math.sqrt(2.0 * val)


@dataclass(frozen=True)
class TransverseMode:
    """One explicit eigenmode of the transverse operator.

    ``profile`` maps an array of t values to spinor samples of shape
    (len(t), N); ``derivative`` is its exact t-derivative.
    """

    m: float
    p: int
    sign: int
    j: int
    k: float
    E: float
    profile: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


def mode(fam: CliffordFamily, x: np.ndarray, m: float, p: int, j: int, sign: int) -> TransverseMode:
    """Explicit eigenmode with eigenvalue sign*E_p(m) and spinor index j.

    The plus-mode is built on the constant vector eps_j and the minus-mode
    on i beta(x)* eps_j, which fixes the phases and makes the family over
    j an orthonormal basis of each eigenspace.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    half = fam.N // 2
    if not 1 <= j <= half:
        raise ValueError(f"spinor index j must lie in 1..{half}")
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError("x must be a unit vector")
    bx = gamma(fam, x).beta
    k = solve_k(m, p)
    E = energy(m, p)
    Nc = normalization(m, p)
    ej = np.zeros(half, dtype=complex)
    ej[j - 1] = 1.0
    if sign == +1:
        cos_vec = np.concatenate([ej, -1.0j * (bx @ ej)])
        sin_vec = np.concatenate([(E + m) * ej, 1.0j * (E - m) * (bx @ ej)])
    else:
        bstar = bx.conj().T
        cos_vec = np.concatenate([1.0j * (bstar @ ej), ej])
        sin_vec = np.concatenate([1.0j * (m - E) * (bstar @ ej), (E + m) * ej])

    def profile(t):
        t = np.asarray(t, dtype=float)
        phase = k * (t + 1.0)
        return Nc * (
            k * np.cos(phase)[..., None] * cos_vec + np.sin(phase)[..., None] * sin_vec
        )

    def derivative(t):
        t = np.asarray(t, dtype=float)
        phase = k * (t + 1.0)
        return Nc * (
            -(k * k) * np.sin(phase)[..., None] * cos_vec
            + k * np.cos(phase)[..., None] * sin_vec
        )

    return TransverseMode(
        m=float(m), p=int(p), sign=int(sign), j=int(j), k=k, E=E,
        profile=profile, derivative=derivative,
    )


def boundary_residual(fam: CliffordFamily, x: np.ndarray, f: Callable) -> float:
    """Max-norm violation of -i a_{n+1} Gamma(x) f(+-1) = +- f(+-1)."""
    bmat = -1.0j * fam.alpha_last @ gamma(fam, x).gamma
    res = 0.0
    for t, sgn in ((1.0, +1.0), (-1.0, -1.0)):
        val = np.atleast_2d(f(np.array([t])))[0]
        res = max(res, float(np.abs(bmat @ val - sgn * val).max()))
    return res


def quadratic_form_identity_check(
    fam: CliffordFamily, x: np.ndarray, m: float, f: Callable, fprime: Callable
) -> tuple[float, float]:
    """Both sides of ||T f||^2 = ||f'||^2 + m^2 ||f||^2 + m(|f(1)|^2 + |f(-1)|^2).

    f and fprime map t-arrays to spinor samples of shape (len(t), N); f must
    satisfy the boundary constraint to within 1e-8.
    """
    if boundary_residual(fam, x, f) > 1e-8:
        raise ValueError("spinor violates the boundary constraint")
    nodes, weights = _GL64
    gx = gamma(fam, x).gamma
    fv = f(nodes)
    dv = fprime(nodes)
    tf = (-1.0j) * dv @ gx.T + m * fv @ fam.alpha_last.T
    lhs = float(weights @ np.sum(np.abs(tf) ** 2, axis=1))
    rhs = float(
        weights @ np.sum(np.abs(dv) ** 2, axis=1)
        + m * m * (weights @ np.sum(np.abs(fv) ** 2, axis=1))
    )
    for t in (1.0, -1.0):
        val = np.atleast_2d(f(np.array([t])))[0]
        rhs += m * float(np.sum(np.abs(val) ** 2))
    return lhs, rhs


def mode_perturbation_check(fam: CliffordFamily, x: np.ndarray, deltas) -> dict:
    """Sup-norm distances ||phi^delta - phi^0||_inf and their log-log slope.

    The distances of the first plus-mode (p = j = 1, on 1001 points of
    [-1, 1]) scale linearly in delta; the fitted growth order over the
    given delta grid is returned alongside the table.
    """
    deltas = [float(d) for d in deltas]
    t = np.linspace(-1.0, 1.0, 1001)
    base = mode(fam, x, 0.0, 1, 1, +1).profile(t)
    distances = []
    for d in deltas:
        pert = mode(fam, x, d, 1, 1, +1).profile(t)
        distances.append(float(np.linalg.norm(pert - base, axis=1).max()))
    positive = [(d, v) for d, v in zip(deltas, distances) if d > 0 and v > 0]
    if len(positive) >= 2:
        ld = np.log([d for d, _ in positive])
        lv = np.log([v for _, v in positive])
        order = float(np.polyfit(ld, lv, 1)[0])
    else:
        order = math.nan
    return {"deltas": deltas, "distances": distances, "order": order}


def transverse_table(ms, ps) -> list[tuple[float, int, float, float, float]]:
    """Rows (m, p, k_p, E_p, N_{m,p}) for CSV export."""
    rows = []
    for m in ms:
        for p in ps:
            rows.append((float(m), int(p), solve_k(m, p), energy(m, p), normalization(m, p)))
    return rows


def write_transverse_table(path, ms, ps) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "p", "k", "E", "N"])
        for row in transverse_table(ms, ps):
            writer.writerow([repr(v) for v in row])
