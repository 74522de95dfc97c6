"""The one-dimensional transverse Dirac operator on (-1, 1).

For mass m >= 0 and a unit direction x the operator acts as
T f = -i Gamma(x) f' + m a_{n+1} f on spinors with the infinite-mass
boundary constraint -i a_{n+1} Gamma(x) f(+-1) = +-f(+-1).  Its spectrum
is {+-E_p(m)} with E_p = sqrt(m^2 + k_p^2) and k_p the unique root of
m sin(2k) + k cos(2k) = 0 in [(2p-1)pi/4, p*pi/2].

The module holds closed forms only: momenta, energies, levels, the
normalization and the explicit eigenmodes.  ``checks`` integrates them and
compares them with the operator.
"""

from __future__ import annotations

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
    "transverse_table",
]


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


def energy(m: float, p: int, k: float | None = None) -> float:
    """E_p(m) = sqrt(m^2 + k_p(m)^2), at the root ``k`` when the caller has solved it (None: solve_k(m, p))."""
    return math.hypot(m, solve_k(m, p) if k is None else k)


def level(m: float, eps: float, p: int = 1) -> float:
    """The p-th transverse level E_p(m eps)^2/eps^2 of a shell of width eps.

    It is (k^2 + (m eps)^2)/eps^2 with k = solve_k(m eps, p).  Every shell
    eigenvalue sits O(1) above the ground level p = 1; this is the one
    place the package evaluates it.
    """
    me = m * eps
    k = solve_k(me, p)
    return (k * k + me * me) / eps**2


def normalization(m: float, p: int, k: float | None = None) -> float:
    """Positive constant N with 1 = 2 N^2 (2 E^2 - m^2 sin(4k)/(2k) + m sin(2k)^2).

    This closed form makes the explicit eigenmodes L^2-normalized on
    (-1, 1); at m = 0 it reduces to 1/(2 E_p), i.e. 2/pi for the first band.
    ``k`` is the root k_p(m) when the caller has solved it (None:
    ``solve_k(m, p)``).  Raises OverflowError where 2 N^-2, about
    4 E_p(m)^2, leaves double range (m from about 6.7e153 on): 1/sqrt would
    return 0.0 there in place of N ~ 1/(2m).
    """
    k = solve_k(m, p) if k is None else k
    e2 = m * m + k * k
    val = 2.0 * e2 - m * m * math.sin(4.0 * k) / (2.0 * k) + m * math.sin(2.0 * k) ** 2
    if not math.isfinite(2.0 * val):
        raise OverflowError(f"normalization at m={m!r}, p={p}: 4 E_p(m)^2 is not a finite float")
    return 1.0 / math.sqrt(2.0 * val)


@dataclass(frozen=True)
class TransverseMode:
    """One explicit eigenmode of the transverse operator.

    ``E`` is E_p(m), the mode's eigenvalue up to its sign; ``profile`` maps
    an array of t values to spinor samples of shape (len(t), N);
    ``derivative`` is its exact t-derivative.
    """

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
    k = solve_k(m, p)  # the one root solve of the mode
    E = energy(m, p, k)
    Nc = normalization(m, p, k)
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

    return TransverseMode(E=E, profile=profile, derivative=derivative)


def transverse_table(ms, ps) -> list[tuple[float, int, float, float, float]]:
    """Rows (m, p, k_p, E_p, N_{m,p}) for CSV export, one root solve per row."""
    rows = []
    for m in ms:
        for p in ps:
            k = solve_k(m, p)
            rows.append((float(m), int(p), k, energy(m, p, k), normalization(m, p, k)))
    return rows

