"""Hermitian eigensolvers for the discretized quadratic forms.

The production route for the shell-scale sparse pencils is shift-invert
ARPACK (spectral transformation, Ericsson & Ruhe 1980; Lehoucq, Sorensen
& Yang 1998) at a shift sigma below the wanted cluster.  ARPACK iterates
with OP = (A - sigma B)^{-1} B, whose eigenvalues nu = 1/(lambda - sigma)
are largest for the lambda nearest sigma, and lambda = sigma + 1/nu.  The
inverse is applied through a symmetric, unpivoted sparse LU, and the
signs of that factorization's pivots are the inertia of A - sigma B
(spectrum slicing by Sylvester's law, Parlett): with none negative, no
eigenvalue lies below sigma, so the eigenvalues nearest sigma are the
lowest ones and none is skipped.  A dense path (LAPACK via scipy, with
Cholesky reduction for generalized pencils) is the oracle the production
route is tested against; it can return the lowest few pairs only.  Both
return the same SpectrumResult record with per-pair residuals
||A x - mu B x|| / ||B x||.
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
    "inertia",
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
    av = pencil.a @ vecs
    bv = vecs if pencil.b is None else pencil.b @ vecs
    num = np.linalg.norm(av - bv * vals[None, :], axis=0)
    den = np.linalg.norm(bv, axis=0)
    return num / np.where(den > 0, den, 1.0)


def dense_hermitian_eig(a, b=None, check: bool = True, count: int | None = None) -> SpectrumResult:
    """Ascending spectrum of the pencil (A, B) by dense factorization.

    B, when given, must be positive definite: the generalized problem is
    reduced through its Cholesky factor (scipy.linalg.eigh), and a failed
    factorization raises ValueError.  With ``count`` only the ``count``
    lowest pairs are computed (LAPACK's index-subset drivers) and only
    their residuals are formed; a ``count`` outside 1..dim raises
    ValueError.
    """
    a = _as_dense(a).astype(complex)
    dim = a.shape[0]
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dense path capped at dim {DENSE_DIM_LIMIT}, got {dim}")
    if count is not None and not 1 <= count <= dim:
        raise ValueError(f"count must lie in 1..{dim}, got {count}")
    if check:
        _check_hermitian(a)
    if b is not None:
        b = _as_dense(b).astype(complex)
        if check:
            _check_hermitian(b)
    subset = None if count is None else [0, count - 1]
    try:
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=subset)
    except np.linalg.LinAlgError as exc:
        if b is None:
            raise
        raise ValueError("B is not positive definite") from exc
    res = _residuals(HermitianPencil.make(a, b), vals, vecs)
    return SpectrumResult(eigenvalues=vals, residuals=res, iterations=0, converged=True, vectors=vecs)


def inertia(m):
    """Factor a Hermitian matrix and count its negative eigenvalues.

    Returns ``(negatives, lu)``.  The sparse LU takes a minimum-degree
    ordering on M + M^H, a symmetric permutation and no pivoting; when its
    row and column permutations agree, P M P^T = L D L^H, so by Sylvester's
    law the negative entries of D, the diagonal of U, count the negative
    eigenvalues of ``m`` (spectrum slicing).  A pivot taken off the
    diagonal or a singular pivot raises EigensolveError.
    """
    try:
        lu = spla.splu(sp.csc_matrix(m), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise EigensolveError(f"singular factor: {exc}") from None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolveError("a pivot was taken off the diagonal")
    d = lu.U.diagonal().real  # the copy of U is dropped at once
    if np.abs(d).min() <= 1e-12 * np.abs(d).max():
        raise EigensolveError("singular pivot: the shift sits on an eigenvalue")
    return int(np.count_nonzero(d < 0.0)), lu


def shift_invert_smallest(
    pencil: HermitianPencil,
    count: int,
    sigma: float,
    tol: float = 1e-8,
    seed: int = 0,
) -> SpectrumResult:
    """The ``count`` smallest eigenpairs by shift-invert ARPACK below a certified shift.

    ``sigma`` should lie just below the wanted cluster.  Each tried shift
    is factored once by ``inertia``: while A - sigma B has negative pivots
    (eigenvalues below sigma) or a singular or off-diagonal pivot, sigma is
    lowered by a doubling step, at most MAX_SHIFTS times.  The factor whose
    pivots are all positive is the certificate and the inverse ARPACK
    applies; its minimum-degree ordering on A + A^H keeps about half the
    fill of the default COLAMD ordering.  ARPACK's standard-mode Arnoldi
    iteration then finds the ``count`` eigenvalues nu of largest magnitude
    of OP = (A - sigma B)^{-1} B, one B product and one triangular solve
    per application, from a start vector drawn from ``default_rng(seed)``;
    with no eigenvalue below sigma these are the lowest lambda = sigma +
    1/nu.  The result's ``iterations`` counts the applications of OP,
    which repeat exactly for a fixed seed.  Raises EigensolveError when no
    shift can be certified, when ARPACK does not converge, or when a
    residual exceeds ``tol`` (the partial result attached as ``partial``
    in the last case).
    """
    dim = pencil.dim
    if count < 1 or count >= dim - 1:
        raise ValueError("count must lie in 1..dim-2")
    b = sp.identity(dim, format="csr") if pencil.b is None else pencil.b
    step = 1e-2 * max(1.0, abs(sigma))
    for attempt in range(1, MAX_SHIFTS + 1):
        try:
            below, lu = inertia(pencil.a - sigma * b)
        except EigensolveError:
            below, lu = None, None  # a singular or off-diagonal pivot
        if below == 0:
            break
        del lu  # the rejected factor is freed before the next one is built
        if attempt == MAX_SHIFTS:
            found = "a singular or off-diagonal pivot" if below is None else f"{below} eigenvalues below it"
            raise EigensolveError(f"no shift certified in {MAX_SHIFTS} tries; sigma={sigma:g} has {found}")
        sigma -= step
        step *= 2.0

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # scipy's ARPACK wrapper keeps its operators in a reference cycle that
    # only the cyclic collector frees; the LU is reached through ``factor``
    # alone, so clearing it frees the factor at once, and a young-generation
    # collection frees the ARPACK workspace before the next solve
    factor = [lu]
    applied = 0

    def apply_op(x):
        nonlocal applied
        applied += 1
        return factor[0].solve(b @ x)

    op = spla.LinearOperator((dim, dim), matvec=apply_op, dtype=complex)
    try:
        nu, vecs = spla.eigs(op, k=count, which="LM", v0=v0)
    except spla.ArpackError as exc:
        raise EigensolveError(f"ARPACK failed at shift {sigma:g}: {exc}") from exc
    finally:
        del lu, op
        factor.clear()
        gc.collect(1)

    vals = sigma + 1.0 / nu.real
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
