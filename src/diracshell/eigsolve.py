"""Hermitian eigensolvers for the discretized quadratic forms.

The production route for the shell-scale sparse pencils is shift-invert
ARPACK (spectral transformation, Ericsson & Ruhe 1980; Lehoucq, Sorensen
& Yang 1998) at a shift sigma below the wanted cluster.  Before the
iteration, the inertia of A - sigma B (spectrum slicing by Sylvester's law,
Parlett) certifies that no eigenvalue lies below sigma, so the eigenvalues
nearest sigma are the lowest ones and none is skipped.  A dense path
(LAPACK via numpy/scipy, with Cholesky reduction for generalized pencils)
is the oracle the production route is tested against.  Both return the
same SpectrumResult record with per-pair residuals ||A x - mu B x|| / ||B x||.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "HermitianPencil",
    "SpectrumResult",
    "EigensolveError",
    "dense_hermitian_eig",
    "ring_inertia",
    "shift_invert_smallest",
]

DENSE_DIM_LIMIT = 8192
# shifts tried, each lower than the last, before a solve is uncertified
MAX_SHIFTS = 8


class EigensolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class HermitianPencil:
    """Pair (A, B) with A hermitian and B hermitian positive definite.

    ``b`` may be None, meaning the identity (standard problem).  Matrices
    may be dense arrays or scipy sparse.
    """

    a: object
    b: object | None
    dim: int

    @staticmethod
    def make(a, b=None) -> "HermitianPencil":
        dim = a.shape[0]
        if a.shape != (dim, dim):
            raise ValueError("A must be square")
        if b is not None and b.shape != (dim, dim):
            raise ValueError("B must match A")
        return HermitianPencil(a=a, b=b, dim=dim)

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        return x if self.b is None else self.b @ x


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    iterations: int                     # shift-invert: inverse applications; dense: 0
    converged: bool
    vectors: np.ndarray | None = None
    shift: float | None = None          # shift-invert: the certified shift
    negative_pivots: int | None = None  # and the eigenvalue count below it


def _as_dense(mat) -> np.ndarray:
    if sp.issparse(mat):
        return mat.toarray()
    return np.asarray(mat)


def _check_hermitian(a: np.ndarray, tol: float = 1e-12) -> None:
    scale = max(np.abs(a).max(), 1.0)
    dev = np.abs(a - a.conj().T).max()
    if dev > tol * scale:
        raise ValueError(f"matrix is not hermitian: deviation {dev:g} at scale {scale:g}")


def _residuals(pencil: HermitianPencil, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    av = pencil.apply_a(vecs)
    bv = pencil.apply_b(vecs)
    num = np.linalg.norm(av - bv * vals[None, :], axis=0)
    den = np.linalg.norm(bv, axis=0)
    return num / np.where(den > 0, den, 1.0)


def dense_hermitian_eig(a, b=None, check: bool = True) -> SpectrumResult:
    """Full ascending spectrum of the pencil (A, B) by dense factorization.

    B, when given, must pass a Cholesky positivity check; the generalized
    problem is reduced through that factorization (scipy.linalg.eigh).
    """
    a = _as_dense(a).astype(complex)
    dim = a.shape[0]
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dense path capped at dim {DENSE_DIM_LIMIT}, got {dim}")
    if check:
        _check_hermitian(a)
    if b is None:
        vals, vecs = np.linalg.eigh(a)
        pencil = HermitianPencil.make(a)
    else:
        b = _as_dense(b).astype(complex)
        if check:
            _check_hermitian(b)
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("B is not positive definite") from exc
        vals, vecs = scipy.linalg.eigh(a, b)
        pencil = HermitianPencil.make(a, b)
    res = _residuals(pencil, vals, vecs)
    return SpectrumResult(eigenvalues=vals, residuals=res, iterations=0, converged=True, vectors=vecs)


def _pivot(d: np.ndarray):
    """Split the inverse of a Hermitian pivot block as d^-1 = H^H S H.

    Returns the number of negative eigenvalues of d, the map r -> H r and
    the signs S (a column, or 1.0).  A positive definite block takes its
    Cholesky factor, H = L^-1; otherwise d = Q diag(w) Q^H gives
    H = |w|^-1/2 Q^H and S = sign(w).  A singular block raises
    EigensolveError.
    """
    try:
        chol = np.linalg.cholesky(d)
        return 0, lambda r: scipy.linalg.solve_triangular(chol, r, lower=True, check_finite=False), 1.0
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(d)
        if np.abs(w).min() <= 1e-12 * np.abs(w).max():
            raise EigensolveError("singular pivot block: the shift sits on an eigenvalue") from None
        scale = 1.0 / np.sqrt(np.abs(w))
        return int(np.count_nonzero(w < 0.0)), lambda r: scale[:, None] * (q.conj().T @ r), np.sign(w)[:, None]


def ring_inertia(m, blocks: int) -> int:
    """Number of negative eigenvalues of a Hermitian periodic block-tridiagonal matrix.

    ``m`` has ``blocks`` equal diagonal blocks, and block i couples only to
    blocks i - 1 and i + 1 modulo ``blocks`` (P1 elements along a closed
    curve give this layout).  Block elimination along the ring, carrying
    the coupling to the last block as a dense border, yields one pivot
    block per ring block; by Sylvester's law of inertia applied blockwise
    (Haynsworth additivity) their negative eigenvalues add up to those of
    ``m``.  A pivot block that passes Cholesky has none; only an indefinite
    one is diagonalized, and a singular one raises EigensolveError.  The
    count holds a few dense blocks at a time, so unlike the diagonal of a
    sparse LU (which scipy only hands out as full copies of both factors)
    it adds next to nothing to the memory of a solve.
    """
    coo = sp.coo_matrix(m)
    coo.sum_duplicates()
    dim = coo.shape[0]
    if blocks < 3 or dim % blocks:
        raise ValueError(f"dim {dim} does not split into {blocks} >= 3 ring blocks")
    size = dim // blocks
    ring = coo.row // size
    hop = (coo.col // size - ring) % blocks
    if np.any((hop > 1) & (hop < blocks - 1) & (coo.data != 0)):
        raise ValueError("matrix couples blocks that are not ring neighbours")
    # entries of block (i, i) under key 2i and of block (i, i+1) under 2i+1;
    # Hermitian symmetry makes the blocks (i, i-1) redundant
    upper = np.flatnonzero(hop <= 1)
    key = 2 * ring[upper] + hop[upper]
    order = np.argsort(key, kind="stable")
    upper = upper[order]
    starts = np.searchsorted(key[order], np.arange(2 * blocks + 1))
    rows, cols, vals = coo.row[upper] % size, coo.col[upper] % size, coo.data[upper]

    def block(k):
        out = np.zeros((size, size), dtype=complex)
        cut = slice(starts[k], starts[k + 1])
        out[rows[cut], cols[cut]] = vals[cut]
        return out

    last = blocks - 1
    tail = block(2 * last)
    d, border = block(0), block(2 * last + 1).conj().T
    below = 0
    for i in range(last - 1):
        count, half, sign = _pivot(d)
        below += count
        # with y = H [e, border], the Schur updates are y^H S y products
        y = half(np.hstack([block(2 * i + 1), border]))
        ye, yw = y[:, :size], y[:, size:]
        syw = sign * yw
        tail -= yw.conj().T @ syw
        d = block(2 * i + 2) - ye.conj().T @ (sign * ye)
        border = -(ye.conj().T @ syw)
    border += block(2 * last - 1)
    count, half, sign = _pivot(d)
    below += count
    yw = half(border)
    tail -= yw.conj().T @ (sign * yw)
    return below + _pivot(0.5 * (tail + tail.conj().T))[0]


def shift_invert_smallest(
    pencil: HermitianPencil,
    count: int,
    sigma: float,
    blocks: int,
    tol: float = 1e-8,
    seed: int = 0,
) -> SpectrumResult:
    """The ``count`` smallest eigenpairs by shift-invert ARPACK below a certified shift.

    ``sigma`` should lie just below the wanted cluster, and the pencil
    must have the periodic block-tridiagonal layout of ``ring_inertia``
    with ``blocks`` ring blocks.  While A - sigma B has negative pivots
    (eigenvalues below sigma) or a singular pivot block, sigma is lowered
    by a doubling step, at most MAX_SHIFTS times.  The certified
    A - sigma B is positive definite, so its sparse LU needs no pivoting:
    a minimum-degree ordering on A + A^H with a symmetric permutation keeps
    about half the fill of the default COLAMD ordering.  ARPACK (complex
    Hermitian pencils go through its Arnoldi routines, Lanczos in exact
    arithmetic) then finds the ``count`` eigenvalues nearest sigma from a
    start vector drawn from ``default_rng(seed)``; the result's
    ``iterations`` counts its applications of the factored inverse, which
    repeat exactly for a fixed seed.  Raises EigensolveError
    when no shift can be certified, when ARPACK does not converge, or when
    a residual exceeds ``tol`` (the partial result attached as ``partial``
    in the last case).
    """
    dim = pencil.dim
    if count < 1 or count >= dim - 1:
        raise ValueError("count must lie in 1..dim-2")
    b = sp.identity(dim, format="csr") if pencil.b is None else pencil.b
    step = 1e-2 * max(1.0, abs(sigma))
    for attempt in range(1, MAX_SHIFTS + 1):
        shifted = pencil.a - sigma * b
        try:
            below = ring_inertia(shifted, blocks)
        except EigensolveError:
            below = None  # singular pivot block
        if below == 0:
            break
        if attempt == MAX_SHIFTS:
            found = "a singular pivot block" if below is None else f"{below} eigenvalues below it"
            raise EigensolveError(f"no shift certified in {MAX_SHIFTS} tries; sigma={sigma:g} has {found}")
        sigma -= step
        step *= 2.0
    lu = spla.splu(
        sp.csc_matrix(shifted),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    del shifted

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # scipy's ARPACK wrapper keeps its operators in a reference cycle that
    # only the cyclic collector frees; the LU is reached through ``factor``
    # alone, so clearing it frees the factor at once, and a young-generation
    # collection frees the ARPACK workspace before the next solve
    factor = [lu]
    applied = 0

    def apply_inverse(x):
        nonlocal applied
        applied += 1
        return factor[0].solve(x)

    opinv = spla.LinearOperator((dim, dim), matvec=apply_inverse, dtype=complex)
    try:
        vals, vecs = spla.eigsh(pencil.a, k=count, M=pencil.b, sigma=sigma, OPinv=opinv, v0=v0)
    except spla.ArpackError as exc:
        raise EigensolveError(f"ARPACK failed at shift {sigma:g}: {exc}") from exc
    finally:
        del lu, opinv
        factor.clear()
        gc.collect(1)

    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = _residuals(pencil, vals, vecs)
    out = SpectrumResult(
        eigenvalues=vals,
        residuals=res,
        iterations=applied,
        converged=bool(np.all(res <= tol)),
        vectors=vecs,
        shift=float(sigma),
        negative_pivots=0,
    )
    if not out.converged:
        err = EigensolveError(
            f"shift-invert residual {res.max():g} above tol={tol:g} at shift {sigma:g}"
        )
        err.partial = out
        raise err
    return out


# Nothing calls this name.  Its only reader is bench/tracer.py, which wraps
# ``lobpcg_smallest`` here and in ``shell`` by name.
lobpcg_smallest = None
