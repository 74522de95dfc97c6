"""Quadratic forms of the squared shell operator in tubular coordinates.

The exact weak form on the strip [0, L) x (-1, 1) reads, per spinor
component,

    eps/(1+eps*t*kappa) |d_s v|^2  +  (1+eps*t*kappa)/eps |d_t v|^2
    + m^2 eps (1+eps*t*kappa) |v|^2
    + boundary terms  (m (1 +- eps*kappa) +- kappa/2) |v(s, +-1)|^2,

with the L^2 weight eps*(1+eps*t*kappa).  The spinor boundary constraint
-i a_3 Gamma(nu(s)) w(s, +-1) = +- w(s, +-1) is imposed by construction:
each boundary node carries a single complex DOF along the unit spinor
spanning the +-1 eigenspace of -i a_3 Gamma(nu(s)).

Discretization is a tensor-product Galerkin space, P1 (periodic) in s and
quadratic Lagrange elements in t, with 2x3 Gauss quadrature per cell and
all coefficients evaluated at quadrature points.  The curvature is the only
coefficient that varies in s; it is evaluated once per assembly, at the
2*n_s distinct s-abscissae (i + xi_q)*h_s, and broadcast over t and over
every coefficient built from it.  The quadratic t-element
keeps the transverse eigenvalue error far below the O(1) effective term
even on the coarse sweep grids; convergence in the s-direction stays
second order.

The companion bracketing forms replace the exact coefficients by their
flat-metric bounds with slack constant c:

    (1 +- c*eps) |d_s w|^2 + (1/eps^2) |d_t w|^2 - kappa^2/4 |w|^2
    + (m^2 +- c*eps) |w|^2 + (m*eps +- c*eps^3)/eps^2 boundary terms.

The lowest eigenvalues of every pencil sit O(1) above the transverse
ground level E_1(m eps)^2/eps^2.  ``lowest_eigenvalues`` places a shift
just below that level (``ladder_shift``) and hands the pencil to the
certified shift-invert solver in ``eigsolve``, which sees a well-separated
cluster next to the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .clifford import CliffordFamily, gamma
# lobpcg_smallest is None; its only reader is bench/tracer.py, which wraps it here by name
from .eigsolve import HermitianPencil, lobpcg_smallest, shift_invert_smallest  # noqa: F401
from .geometry import ShellMetric2D
from .transverse import solve_k

__all__ = [
    "ShellFormAssembly",
    "SandwichFormAssembly",
    "assemble_shell",
    "assemble_sandwich",
    "lowest_eigenvalues",
    "Eigenpairs",
    "ladder_shift",
    "boundary_spinor",
    "default_nt",
    "flat_strip_levels",
    "MAX_COUNT",
]

# largest eigenvalue count lowest_eigenvalues (and so a sweep) computes
MAX_COUNT = 12

# 2-point and 3-point Gauss rules on [0, 1]
_QS_P, _QS_W = (np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)]),
                np.array([0.5, 0.5]))
_QT_P = np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)])
_QT_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def default_nt(eps: float) -> int:
    """Transverse element count: max(8, ceil(4/sqrt(eps)))."""
    return max(8, math.ceil(4.0 / math.sqrt(eps)))


def boundary_spinor(fam: CliffordFamily, nu: np.ndarray, side: int) -> np.ndarray:
    """Unit spinor spanning the side-eigenspace of -i a_{n+1} Gamma(nu).

    Deterministic phase: the first nonzero component is made real
    positive.  Requires N = 2 so that the eigenspace is a line.
    """
    if fam.N != 2:
        raise ValueError("boundary elimination implemented for N = 2")
    bmat = -1.0j * fam.alpha_last @ gamma(fam, np.asarray(nu, dtype=float)).gamma
    vals, vecs = np.linalg.eigh(bmat)
    idx = int(np.argmin(np.abs(vals - side)))
    if abs(vals[idx] - side) > 1e-10:
        raise ValueError("boundary matrix does not have the expected +-1 eigenvalues")
    v = vecs[:, idx]
    pivot = int(np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())[0])
    phase = v[pivot] / abs(v[pivot])
    return v / phase


@dataclass(frozen=True)
class ShellFormAssembly:
    metric: ShellMetric2D
    m: float
    n_s: int
    n_t: int
    pencil: HermitianPencil
    dof_count: int
    h_s: float
    h_t: float


@dataclass(frozen=True)
class SandwichFormAssembly:
    metric: ShellMetric2D
    m: float
    c: float
    n_s: int
    n_t: int
    pencil_minus: HermitianPencil
    pencil_plus: HermitianPencil
    dof_count: int
    h_s: float
    h_t: float


class _TensorGalerkin:
    """Scalar P1(s, periodic) x P2(t) assembler on [0, L) x (-1, 1)."""

    def __init__(self, length: float, n_s: int, n_t: int):
        self.length = length
        self.n_s = n_s
        self.n_t = n_t
        self.h_s = length / n_s
        self.h_t = 2.0 / n_t
        self.n_tn = 2 * n_t + 1
        self.dim = n_s * self.n_tn

        # local 1D bases on the reference cell [0, 1]
        xs = _QS_P
        self.val_s = np.vstack([1.0 - xs, xs])                      # (2, 2)
        self.der_s = np.vstack([-np.ones(2), np.ones(2)]) / self.h_s
        xt = _QT_P
        self.val_t = np.vstack([
            (1.0 - xt) * (1.0 - 2.0 * xt),
            4.0 * xt * (1.0 - xt),
            xt * (2.0 * xt - 1.0),
        ])                                                          # (3, 3)
        self.der_t = np.vstack([
            4.0 * xt - 3.0,
            4.0 - 8.0 * xt,
            4.0 * xt - 1.0,
        ]) / self.h_t

        # tensorized 6-node, 6-point tables: local node a = (as, at)
        self.loc_nodes = [(a_s, a_t) for a_s in range(2) for a_t in range(3)]
        nq = xs.size * xt.size
        self.nq = nq
        self.val = np.empty((6, nq))
        self.ds = np.empty((6, nq))
        self.dt = np.empty((6, nq))
        for a, (a_s, a_t) in enumerate(self.loc_nodes):
            v = np.outer(self.val_s[a_s], self.val_t[a_t]).ravel()
            dvs = np.outer(self.der_s[a_s], self.val_t[a_t]).ravel()
            dvt = np.outer(self.val_s[a_s], self.der_t[a_t]).ravel()
            self.val[a], self.ds[a], self.dt[a] = v, dvs, dvt
        self.wq = (np.outer(_QS_W, _QT_W).ravel()) * self.h_s * self.h_t

        es = np.arange(n_s)
        et = np.arange(n_t)
        self.elem_s, self.elem_t = np.meshgrid(es, et, indexing="ij")
        self.elem_s = self.elem_s.ravel()
        self.elem_t = self.elem_t.ravel()
        # the 2*n_s distinct s-abscissae (i + xi_q)*h_s, shape (n_s, 2), and
        # t at the quadrature points of each element, shape (n_el, nq)
        self.s_abscissae = (es[:, None] + xs[None, :]) * self.h_s
        tq = -1.0 + (self.elem_t[:, None] + xt[None, :]) * self.h_t
        self.quad_t = (tq[:, None, :] + np.zeros((1, xs.size, 1))).reshape(-1, nq)
        # global index per element and local node
        gidx = np.empty((self.elem_s.size, 6), dtype=np.int64)
        for a, (a_s, a_t) in enumerate(self.loc_nodes):
            si = (self.elem_s + a_s) % n_s
            ti = 2 * self.elem_t + a_t
            gidx[:, a] = si * self.n_tn + ti
        self.gidx = gidx

    def at_quad(self, per_s: np.ndarray) -> np.ndarray:
        """Broadcast values at ``s_abscissae`` over t to every quadrature point."""
        return np.repeat(np.repeat(per_s, self.n_t, axis=0), _QT_P.size, axis=1)

    def volume_matrix(self, c_tan, c_trans, c_mass, c_cross=None) -> sp.csr_matrix:
        """Assemble c_tan*ds*ds + c_trans*dt*dt + c_mass*val*val (+ cross term).

        Each coefficient is a scalar or an array of its values at the
        quadrature points, shape (n_el, nq); pass None to skip a term.
        ``c_cross`` adds the hermitian gauge coupling i*c*(du/ds * v - u * dv/ds)
        arising from a covariant tangential derivative d_s + i*c(s,t).
        """
        shape = self.quad_t.shape
        local = np.zeros((shape[0], 6, 6), dtype=complex)
        for coef, table in ((c_tan, self.ds), (c_trans, self.dt), (c_mass, self.val)):
            if coef is None:
                continue
            cvals = np.broadcast_to(coef, shape) * self.wq[None, :]
            local += np.einsum("eq,aq,bq->eab", cvals, table, table)
        if c_cross is not None:
            cvals = np.broadcast_to(c_cross, shape) * self.wq[None, :]
            e_mat = np.einsum("eq,aq,bq->eab", cvals, self.ds, self.val)
            local += 1.0j * (e_mat - e_mat.swapaxes(1, 2))
        rows = np.repeat(self.gidx, 6, axis=1).ravel()
        cols = np.tile(self.gidx, (1, 6)).ravel()
        mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(self.dim, self.dim))
        return mat.tocsr()

    def boundary_matrix(self, side: int, coef) -> sp.csr_matrix:
        """1D mass matrix sum_i int coef(s) u v ds on the t = side line.

        ``coef`` is a scalar or its values at ``s_abscissae``.
        """
        ti = 0 if side < 0 else self.n_tn - 1
        es = np.arange(self.n_s)
        cvals = np.broadcast_to(coef, self.s_abscissae.shape) * (_QS_W[None, :] * self.h_s)
        local = np.einsum("eq,aq,bq->eab", cvals, self.val_s, self.val_s)
        g = np.empty((self.n_s, 2), dtype=np.int64)
        g[:, 0] = es * self.n_tn + ti
        g[:, 1] = ((es + 1) % self.n_s) * self.n_tn + ti
        rows = np.repeat(g, 2, axis=1).ravel()
        cols = np.tile(g, (1, 2)).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(self.dim, self.dim)).tocsr()


def _constraint_basis(grid: _TensorGalerkin, spinors: dict) -> sp.csr_matrix:
    """Sparse map from reduced DOFs to the full 2-component node values.

    ``spinors`` gives the unit boundary spinor per side; in the gauged
    frame they are the constant vectors (1, -i)/sqrt(2) and (1, i)/sqrt(2).
    Reduced DOFs are grouped by s-column: for each grid index i the block
    [boundary(-1), component-0 interior, component-1 interior, boundary(+1)]
    is contiguous, so the pencils are periodic block-tridiagonal over the
    n_s columns, the layout ``eigsolve.ring_inertia`` certifies shifts on.
    """
    n_s, n_tn, dim = grid.n_s, grid.n_tn, grid.dim
    interior = n_tn - 2
    block = 2 * interior + 2
    rows, cols, vals = [], [], []
    for i in range(n_s):
        red = i * block
        for comp in range(2):
            rows.append(comp * dim + i * n_tn + 0)
            cols.append(red)
            vals.append(spinors[-1][comp])
        for comp in range(2):
            base = comp * dim + i * n_tn
            for jt in range(1, n_tn - 1):
                rows.append(base + jt)
                cols.append(red + 1 + comp * interior + (jt - 1))
                vals.append(1.0 + 0.0j)
        for comp in range(2):
            rows.append(comp * dim + i * n_tn + (n_tn - 1))
            cols.append(red + block - 1)
            vals.append(spinors[+1][comp])
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * dim, n_s * block)).tocsr()


# boundary spinors in the gauged frame diag(1, nu(s)): constant in s
_GAUGED_SPINORS = {
    -1: np.array([1.0, -1.0j]) / math.sqrt(2.0),
    +1: np.array([1.0, +1.0j]) / math.sqrt(2.0),
}


def _reduce(z: sp.csr_matrix, a_comp0: sp.csr_matrix, a_comp1: sp.csr_matrix | None = None) -> sp.csr_matrix:
    if a_comp1 is None:
        a_comp1 = a_comp0
    full = sp.block_diag([a_comp0, a_comp1], format="csr")
    out = (z.conj().T @ full @ z).tocsr()
    out.eliminate_zeros()
    return out


def assemble_shell(
    fam: CliffordFamily,
    metric: ShellMetric2D,
    m: float,
    n_s: int,
    n_t: int | None = None,
) -> ShellFormAssembly:
    """Pencil of the exact tubular-coordinate form with eliminated boundary DOFs."""
    if fam.n != 2:
        raise ValueError("shell assembly is implemented for n = 2")
    if m < 0:
        raise ValueError("mass must be nonnegative")
    if n_t is None:
        n_t = default_nt(metric.eps)
    if n_s < 32 or n_t < 8:
        raise ValueError("grid too coarse: need n_s >= 32 and n_t >= 8")
    eps = metric.eps
    grid = _TensorGalerkin(metric.curve.length, n_s, n_t)
    kap_s = metric.curve.curvature(grid.s_abscissae)
    kap = grid.at_quad(kap_s)
    w = 1.0 + eps * grid.quad_t * kap
    q_tan = eps / w
    q_trans = w / eps
    mass = m * m * eps * w

    # spinor components are assembled in the gauged frame diag(1, nu(s)),
    # where the boundary constraint is s-independent (the discrete space
    # then satisfies it exactly for every s, not only at the nodes); the
    # price is the covariant coupling d_s + i*kappa on the second component
    a_comp0 = grid.volume_matrix(q_tan, q_trans, mass if m > 0 else None)
    a_comp1 = grid.volume_matrix(q_tan, q_trans, mass + q_tan * kap**2, c_cross=q_tan * kap)
    # (m + H/2)*h with the exact curvature H = side*kappa/(1+side*eps*kappa)
    # and weight h = 1+side*eps*kappa collapses to m*h + side*kappa/2
    bnd = [
        grid.boundary_matrix(side, m * (1.0 + side * eps * kap_s) + side * kap_s / 2.0)
        for side in (+1, -1)
    ]
    a_comp0 = a_comp0 + bnd[0] + bnd[1]
    a_comp1 = a_comp1 + bnd[0] + bnd[1]
    b_sc = grid.volume_matrix(None, None, eps * w)

    z = _constraint_basis(grid, _GAUGED_SPINORS)
    pencil = HermitianPencil.make(_reduce(z, a_comp0, a_comp1), _reduce(z, b_sc))
    return ShellFormAssembly(
        metric=metric, m=float(m), n_s=n_s, n_t=n_t, pencil=pencil,
        dof_count=pencil.dim, h_s=grid.h_s, h_t=grid.h_t,
    )


def assemble_sandwich(
    fam: CliffordFamily,
    metric: ShellMetric2D,
    m: float,
    c: float,
    n_s: int,
    n_t: int | None = None,
) -> SandwichFormAssembly:
    """The two flat-metric bracketing pencils sharing one mass matrix."""
    if fam.n != 2:
        raise ValueError("sandwich assembly is implemented for n = 2")
    if c < 0:
        raise ValueError("slack constant c must be nonnegative")
    if n_t is None:
        n_t = default_nt(metric.eps)
    if n_s < 32 or n_t < 8:
        raise ValueError("grid too coarse: need n_s >= 32 and n_t >= 8")
    eps = metric.eps
    grid = _TensorGalerkin(metric.curve.length, n_s, n_t)
    kap = grid.at_quad(metric.curve.curvature(grid.s_abscissae))
    kap2 = kap**2

    pencils = {}
    b_sc = grid.volume_matrix(None, None, 1.0)
    z = _constraint_basis(grid, _GAUGED_SPINORS)
    b_red = _reduce(z, b_sc)
    for sign in (-1, +1):
        tan_coef = 1.0 + sign * c * eps
        shift = m * m + sign * c * eps
        mass0 = shift - kap2 / 4.0
        a0 = grid.volume_matrix(c_tan=tan_coef, c_trans=1.0 / eps**2, c_mass=mass0)
        a1 = grid.volume_matrix(
            c_tan=tan_coef,
            c_trans=1.0 / eps**2,
            c_mass=mass0 + tan_coef * kap2,
            c_cross=tan_coef * kap,
        )
        bcoef = (m * eps + sign * c * eps**3) / eps**2
        bnd = sum(grid.boundary_matrix(side, bcoef) for side in (+1, -1))
        pencils[sign] = HermitianPencil.make(_reduce(z, a0 + bnd, a1 + bnd), b_red)
    return SandwichFormAssembly(
        metric=metric, m=float(m), c=float(c), n_s=n_s, n_t=n_t,
        pencil_minus=pencils[-1], pencil_plus=pencils[+1],
        dof_count=pencils[+1].dim, h_s=grid.h_s, h_t=grid.h_t,
    )


class Eigenpairs(list):
    """Ascending (eigenvalue, residual) pairs of one certified solve.

    ``shift`` is the shift the pencil was factored at,
    ``negative_pivots`` the number of its eigenvalues below that shift,
    which a returned solve always has at 0, and ``iterations`` the number
    of times ARPACK applied the factored inverse.
    """

    def __init__(self, pairs, shift: float, negative_pivots: int, iterations: int):
        super().__init__(pairs)
        self.shift = shift
        self.negative_pivots = negative_pivots
        self.iterations = iterations


def ladder_shift(assembly) -> float:
    """A shift below the lowest eigenvalue of a shell or bracketing pencil.

    The transverse ground level (k^2 + (m eps)^2)/eps^2 with
    k = solve_k(m eps, 1), lowered by the largest curvature potential
    kappa_max^2/4 plus one, and for the bracketing pencils also by their
    slack 2 c eps.  The solver certifies the shift and lowers it further
    if an eigenvalue lies below.
    """
    eps = assembly.metric.eps
    me = assembly.m * eps
    k1 = solve_k(me, 1)
    sigma = (k1 * k1 + me * me) / eps**2 - assembly.metric.curve.kappa_max**2 / 4.0 - 1.0
    if isinstance(assembly, SandwichFormAssembly):
        sigma -= 2.0 * assembly.c * eps
    return sigma


def lowest_eigenvalues(
    assembly,
    count: int,
    tol: float = 1e-8,
    seed: int = 0,
    which: str = "shell",
) -> Eigenpairs:
    """The count smallest (eigenvalue, residual) pairs of an assembled pencil.

    Accepts a ShellFormAssembly (``which="shell"``) or a
    SandwichFormAssembly (pick the side with ``which="minus"``/``"plus"``);
    any other ``which`` raises ValueError.  The pencil is solved by
    ``eigsolve.shift_invert_smallest`` below ``ladder_shift(assembly)``
    with a start vector from ``seed``.  A solve that cannot be certified
    or misses ``tol`` raises EigensolveError.
    """
    if count > MAX_COUNT:
        raise ValueError(f"count capped at {MAX_COUNT}")
    if isinstance(assembly, ShellFormAssembly):
        pencils = {"shell": assembly.pencil}
    elif isinstance(assembly, SandwichFormAssembly):
        pencils = {"minus": assembly.pencil_minus, "plus": assembly.pencil_plus}
    else:
        raise TypeError("expected a ShellFormAssembly or a SandwichFormAssembly")
    if which not in pencils:
        raise ValueError(f"which must be one of {sorted(pencils)} for this assembly, got {which!r}")
    res = shift_invert_smallest(
        pencils[which], count, ladder_shift(assembly), assembly.n_s, tol=tol, seed=seed
    )
    return Eigenpairs(
        [(float(v), float(r)) for v, r in zip(res.eigenvalues, res.residuals)],
        shift=res.shift,
        negative_pivots=res.negative_pivots,
        iterations=res.iterations,
    )


def boundary_values(assembly: ShellFormAssembly, reduced: np.ndarray) -> dict:
    """Ungauged boundary spinors w(s_i, +-1) of a reduced coefficient vector.

    Undoes the diag(1, nu(s)) frame so that the returned spinors satisfy
    -i a_3 Gamma(nu(s_i)) w(s_i, +-1) = +- w(s_i, +-1) exactly (to rounding);
    this is the boundary-condition-by-construction property of the DOF map.
    """
    n_s, n_t = assembly.n_s, assembly.n_t
    block = 4 * n_t
    s_nodes = np.arange(n_s) * assembly.h_s
    nu = assembly.metric.curve.normal(s_nodes)
    nu_c = nu[:, 0] + 1j * nu[:, 1]
    out = {}
    for side, offset in ((-1, 0), (+1, block - 1)):
        coef = reduced[offset::block][:n_s]
        gauged = coef[:, None] * _GAUGED_SPINORS[side][None, :]
        ungauged = gauged.copy()
        ungauged[:, 1] *= nu_c
        out[side] = ungauged
    return out


def flat_strip_levels(length: float, m: float, eps: float, count: int) -> np.ndarray:
    """Separated reference spectrum on the zero-curvature strip.

    Levels (2 pi q / L)^2 + E_p(m*eps)^2/eps^2 with multiplicity two per
    (q, p); the transverse factor follows from the 1D operator at mass
    m*eps.
    """
    levels = []
    for p in range(1, 6):
        kp = solve_k(m * eps, p)
        ep2 = (m * eps) ** 2 + kp**2
        for q in range(-count, count + 1):
            levels.extend([(2.0 * math.pi * q / length) ** 2 + ep2 / eps**2] * 2)
    return np.sort(np.array(levels))[:count]
