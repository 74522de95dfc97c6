"""Anticommuting hermitian matrix families and their symbol maps.

Builds, for a spatial dimension n, the n+1 hermitian matrices of size
N = 2^floor((n+1)/2) satisfying a_j a_k + a_k a_j = 2 delta_jk I, together
with the linear symbol Gamma(x) = sum_j x_j a_j, its off-diagonal block
beta(x), and the transverse intertwiner between two unit directions.

All entries are drawn from {0, +-1, +-i}, so the algebraic identities hold
exactly in floating point and tests may demand bitwise equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CliffordFamily",
    "SymbolMatrix",
    "build_clifford",
    "gamma",
    "theta",
]

# dense-storage cap on the spatial dimension: N = 2^6 = 64 at n = MAX_N
MAX_N = 12

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class CliffordFamily:
    """An ordered family (a_1, ..., a_{n+1}) of anticommuting hermitian matrices."""

    n: int
    N: int
    alphas: tuple[np.ndarray, ...]

    @property
    def alpha_last(self) -> np.ndarray:
        """The mass matrix, diag(I, -I)."""
        return self.alphas[self.n]


@dataclass(frozen=True)
class SymbolMatrix:
    """Gamma(x) together with its lower-left block beta(x)."""

    gamma: np.ndarray
    beta: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _gamma_tower(n: int) -> list[np.ndarray]:
    """Hermitian matrices g_1(n)..g_n(n) of size 2^floor(n/2), built recursively.

    The base case is the two off-diagonal Pauli matrices for n = 2, which
    ``build_clifford`` reaches from every n >= 1.  The even step stacks the
    previous family off-diagonally and appends offdiag(-iI, iI); the odd
    step keeps the previous family and appends diag(I, -I).
    """
    if n == 2:
        return [_PAULI_X.copy(), _PAULI_Y.copy()]
    prev = _gamma_tower(n - 1)
    size = prev[0].shape[0]
    if n % 2 == 0:
        # size doubles: stack the previous family off-diagonally
        zero = np.zeros((size, size), dtype=complex)
        eye = np.eye(size, dtype=complex)
        out = [np.block([[zero, g], [g, zero]]) for g in prev]
        out.append(np.block([[zero, -1.0j * eye], [1.0j * eye, zero]]))
    else:
        # size unchanged: keep the previous family, append diag(I, -I)
        half = size // 2
        out = [g.copy() for g in prev]
        out.append(np.diag(np.concatenate([np.ones(half), -np.ones(half)])).astype(complex))
    return out


def build_clifford(n: int) -> CliffordFamily:
    """Construct the family (a_1, ..., a_{n+1}) for spatial dimension n.

    Deterministic: the same n always yields bit-identical matrices.  The
    last matrix is always diag(I_{N/2}, -I_{N/2}) and every other member is
    purely off-diagonal in the N/2 block structure.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"spatial dimension must be an integer >= 1, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the dense-storage cap MAX_N={MAX_N}")
    N = 2 ** ((n + 1) // 2)
    tower = _gamma_tower(n + 1)
    alphas = [tower[j] for j in range(n)]
    half = N // 2
    eye = np.eye(half, dtype=complex)
    zero = np.zeros((half, half), dtype=complex)
    # For even n this equals g_{n+1}(n+1); for odd n it replaces the
    # off-diagonal g_{n+1}(n+1) so that the mass matrix is diagonal.
    alphas.append(np.block([[eye, zero], [zero, -eye]]))
    return CliffordFamily(n=int(n), N=N, alphas=tuple(_freeze(a) for a in alphas))


def gamma(fam: CliffordFamily, x: np.ndarray) -> SymbolMatrix:
    """The symbol Gamma(x) = sum_j x_j a_j and its lower-left N/2 block."""
    x = np.asarray(x, dtype=float)
    if x.shape != (fam.n,):
        raise ValueError(f"x must be a real vector of length n={fam.n}, got shape {x.shape}")
    g = np.zeros((fam.N, fam.N), dtype=complex)
    for xj, aj in zip(x, fam.alphas[: fam.n]):
        g += xj * aj
    half = fam.N // 2
    return SymbolMatrix(gamma=_freeze(g), beta=_freeze(g[half:, :half].copy()))


def theta(fam: CliffordFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unitary intertwiner U = (I + i Gamma(y)) (I - i Gamma(x)) / 2 for unit x, y.

    U maps the spinor subspaces attached to direction x onto those of y:
    U (a_{n+1} Gamma(x)) U* = a_{n+1} Gamma(y), and U = I when x = y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, v in (("x", x), ("y", y)):
        if v.shape != (fam.n,):
            raise ValueError(f"{name} must have length n={fam.n}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"{name} must be a unit vector within 1e-12")
    eye = np.eye(fam.N, dtype=complex)
    gx = gamma(fam, x).gamma
    gy = gamma(fam, y).gamma
    return 0.5 * (eye + 1.0j * gy) @ (eye - 1.0j * gx)

