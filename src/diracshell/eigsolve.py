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
import time
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
# shifts tried down the doubling steps, each lower than the last, before a
# solve is uncertified (a guess tried before them adds one)
MAX_SHIFTS = 8
# largest residual ||A x - mu B x|| / ||B x|| a shift-invert pair may have
RESIDUAL_TOL = 1e-8
# relative bound of the dense oracle's hermiticity check
_HERMITIAN_RTOL = 1e-12
# columns per block of that check: its temporaries
# stay below LAPACK's workspace (dim 1024: 0.7 against 1.1 MB)
_CHECK_BLOCK = 16


class EigensolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class HermitianPencil:
    """Pair (A, B) with A hermitian and B hermitian positive definite.

    ``b`` None means the identity (a standard problem), for the dense oracle
    only; the sparse solver needs B.  Matrices may be dense or scipy sparse.
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
    vectors: np.ndarray | None = None   # dense oracle only
    shift: float | None = None          # shift-invert: the certified shift,
    negative_pivots: int | None = None  # the eigenvalue count below it
    factorizations: int | None = None   # and the shifts factored to find it,
    factor_s: float | None = None       # in this many seconds of inertia calls

    def __iter__(self):
        """The ascending (eigenvalue, residual) pairs, as Python floats."""
        return ((float(v), float(r)) for v, r in zip(self.eigenvalues, self.residuals))

    def record(self) -> dict:
        """The solve's facts, in the order of each ``sweep.json`` solve record."""
        return {
            "shift": self.shift,
            "negative_pivots": self.negative_pivots,
            "factorizations": self.factorizations,
            "iterations": self.iterations,
            "residual_max": float(self.residuals.max()),
            "factor_s": self.factor_s,
        }


def _check_hermitian(a: np.ndarray) -> None:
    """Raise unless max|A - A^H| <= _HERMITIAN_RTOL * max(max|A|, 1), both taken one column block at a time."""
    scale = dev = 0.0
    for j in range(0, a.shape[1], _CHECK_BLOCK):
        cols = a[:, j : j + _CHECK_BLOCK]
        scale = max(scale, np.abs(cols).max())
        dev = max(dev, np.abs(cols - a[j : j + _CHECK_BLOCK, :].conj().T).max())
    scale = max(scale, 1.0)
    if dev > _HERMITIAN_RTOL * scale:
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
    ValueError, both before anything is densified.  A and B, dense or scipy
    sparse, are left unchanged: LAPACK overwrites one complex
    Fortran-ordered copy of each; the residuals use the originals.
    """
    pencil = HermitianPencil.make(a, b)
    dim = pencil.dim
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(f"dense path capped at dim {DENSE_DIM_LIMIT}, got {dim}")
    if count is not None and not 1 <= count <= dim:
        raise ValueError(f"count must lie in 1..{dim}, got {count}")
    work = [m.astype(complex).toarray(order="F") if sp.issparse(m) else np.array(m, dtype=complex, order="F")
            for m in (a, b) if m is not None]
    if check:
        for m in work:
            _check_hermitian(m)
    subset = None if count is None else [0, count - 1]
    try:
        vals, vecs = scipy.linalg.eigh(*work, subset_by_index=subset, overwrite_a=True, overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        if b is None:
            raise
        raise ValueError("B is not positive definite") from exc
    del work  # freed before the residuals are formed
    res = _residuals(pencil, vals, vecs)
    return SpectrumResult(eigenvalues=vals, residuals=res, iterations=0, vectors=vecs)


def inertia(pencil: HermitianPencil, sigma: float):
    """Factor M = A - sigma B and count the eigenvalues below sigma.

    Returns ``(below, lu)``.  The sparse LU takes a minimum-degree ordering
    on M + M^H, a symmetric permutation and no pivoting; when its row and
    column permutations agree, P M P^T = L D L^H, so by Sylvester's law the
    negative entries of D, the diagonal of U, count the eigenvalues of the
    pencil below sigma (spectrum slicing).  A pivot taken off the diagonal
    or a singular pivot raises EigensolveError.
    """
    shifted = pencil.a - sigma * pencil.b
    try:
        lu = spla.splu(sp.csc_matrix(shifted), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise EigensolveError(f"singular factor: {exc}") from None
    del shifted  # freed before the pivots are read
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolveError("a pivot was taken off the diagonal")
    d = lu.U.diagonal().real  # reading U caches CSC copies of L and U on the factor until it is freed
    if np.abs(d).min() <= 1e-12 * np.abs(d).max():
        raise EigensolveError("singular pivot: the shift sits on an eigenvalue")
    return int(np.count_nonzero(d < 0.0)), lu


def shift_invert_smallest(
    pencil: HermitianPencil,
    count: int,
    sigma: float,
    seed: int = 0,
    fallback: float | None = None,
) -> SpectrumResult:
    """The ``count`` smallest eigenpairs by shift-invert ARPACK below a certified shift.

    ``sigma`` should lie just below the wanted cluster.  Each tried shift
    is factored once by ``inertia``: while A - sigma B has negative pivots
    (eigenvalues below sigma) or a singular or off-diagonal pivot, the
    next shift is tried.  Without ``fallback`` these are sigma lowered by
    a doubling step, MAX_SHIFTS shifts in all.  With ``fallback`` sigma is
    a guess tried once, and the first retry lands on ``fallback``, from
    which the same MAX_SHIFTS shifts follow as from a call with sigma =
    fallback.  The factor whose pivots are all positive is the certificate
    and the inverse ARPACK applies; its minimum-degree ordering on A + A^H
    keeps about half the fill of the default COLAMD ordering.  ARPACK's
    standard-mode Arnoldi iteration then finds the ``count`` eigenvalues
    nu of largest magnitude of OP = (A - sigma B)^{-1} B, one B product
    and one triangular solve per application, from a start vector drawn
    from ``default_rng(seed)``; with no eigenvalue below sigma these are
    the lowest lambda = sigma + 1/nu.  The result holds no eigenvectors;
    its ``iterations`` counts the applications of OP, which repeat exactly
    for a fixed seed, ``factorizations`` the shifts factored and
    ``factor_s`` the seconds spent in those ``inertia`` calls.  Raises
    EigensolveError when no shift can be certified, when ARPACK does not
    converge, or when a residual exceeds RESIDUAL_TOL.
    """
    dim = pencil.dim
    if count < 1 or count >= dim - 1:
        raise ValueError("count must lie in 1..dim-2")
    shifts = []
    if fallback is not None:
        shifts, sigma = [sigma], fallback
    step = 1e-2 * max(1.0, abs(sigma))
    for _ in range(MAX_SHIFTS):
        shifts.append(sigma)
        sigma -= step
        step *= 2.0
    factor_s = 0.0
    for factorizations, sigma in enumerate(shifts, start=1):
        t0 = time.perf_counter()
        try:
            below, lu = inertia(pencil, sigma)
        except EigensolveError:
            below, lu = None, None  # a singular or off-diagonal pivot
        factor_s += time.perf_counter() - t0
        if below == 0:
            break
        del lu  # the rejected factor is freed before the next one is built
    else:
        found = "a singular or off-diagonal pivot" if below is None else f"{below} eigenvalues below it"
        raise EigensolveError(f"no shift certified in {len(shifts)} tries; sigma={sigma:g} has {found}")

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
        return factor[0].solve(pencil.b @ x)

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
    if not np.all(res <= RESIDUAL_TOL):
        raise EigensolveError(
            f"shift-invert residual {res.max():g} above tol={RESIDUAL_TOL:g} at shift {sigma:g}"
        )
    return SpectrumResult(
        eigenvalues=vals,
        residuals=res,
        iterations=applied,
        shift=float(sigma),
        negative_pivots=0,
        factorizations=factorizations,
        factor_s=factor_s,
    )


# Nothing calls this name.  Its only reader is bench/tracer.py, which wraps
# ``lobpcg_smallest`` here and in ``shell`` by name.
lobpcg_smallest = None
