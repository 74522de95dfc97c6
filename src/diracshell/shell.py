"""Quadratic forms of the squared shell operator in tubular coordinates.

The exact weak form on the strip [0, L) x (-1, 1) reads, per spinor
component,

    eps/(1+eps*t*kappa) |d_s v|^2  +  (1+eps*t*kappa)/eps |d_t v|^2
    + m^2 eps (1+eps*t*kappa) |v|^2
    + boundary terms  (m (1 +- eps*kappa) +- kappa/2) |v(s, +-1)|^2,

with the L^2 weight eps*(1+eps*t*kappa), each coefficient built from the
stretch 1+eps*t*kappa that ``ShellMetric2D.stretch`` states and the
metric-identity check certifies.  The spinor boundary constraint
-i a_3 Gamma(nu(s)) w(s, +-1) = +- w(s, +-1) is imposed by construction:
in the gauged frame diag(1, nu(s)) its +-1 eigenspaces are constant in s,
and each boundary node carries a single complex DOF along one of them.  The
map from node values to these reduced DOFs (a column and a weight per node,
``_TensorGalerkin.column`` and ``weight``) is index arithmetic on the node
layout, and it is the only place that knows the order of the reduced DOFs.

Discretization is a tensor-product Galerkin space, P1 (periodic) in s and
quadratic Lagrange elements in t, with 2x3 Gauss quadrature per cell and all
coefficients evaluated at quadrature points.  Both factors and the boundary
lines come from one 1D element (``_line_element``: Gauss rule, basis tables
and cell-to-node map), and no other module builds a line.  Each reduced
matrix is assembled in one pass: a real product of the weighted coefficients
with basis-pair tables gives the per-cell matrices, and each of their
entries is added straight into the reduced CSR pattern, built once per
assembly and shared by all matrices.  The curvature is the only coefficient
that varies in s; it is evaluated once per assembly, at the 2*n_s distinct
s-abscissae (i + xi_q)*h_s, and broadcast over t and over every coefficient
built from it.  The quadratic t-element keeps the transverse eigenvalue
error far below the O(1) effective term even on the coarse sweep grids;
convergence in the s-direction stays second order.  The shell form and the
bracketing forms below share one covariant assembler, ``_covariant_pencil``:
the same code builds each component c's form from its connection A_c in
d_s + i*A_c ((0, kappa) in the gauged frame), and B from the form's L^2 weight.

The same P2 line gives criterion 4's transverse pencils
(``discretized_transverse_energies``), N components per node, the boundary
constraint eliminated against the +-1 eigenspaces of -i a_{n+1} Gamma(x),
in their own reduced order [plus, minus, interior node-major]: the shell's
order would move criterion 4's pinned spectra distance 1.03029e-13 (to
9.23706e-14), and theirs every shell pencil.

A bracketing form replaces the exact coefficients by their flat-metric
bounds with a signed slack c:

    (1 + c*eps) |d_s w|^2 + (1/eps^2) |d_t w|^2 - kappa^2/4 |w|^2
    + (m^2 + c*eps) |w|^2 + (m*eps + c*eps^3)/eps^2 boundary terms;

c < 0 gives the lower form and c > 0 the upper one, so the shell form sits
between the forms at -c and +c.  Every assembly holds one pencil, and a
``ShellFormAssembly`` records its slack (0.0 for the exact form).

The lowest eigenvalues of every pencil sit O(1) above the transverse ground
level E_1(m eps)^2/eps^2, the assembly's ``ground``, evaluated once; for the
shell pencil that O(1) term is, up to o(1), an eigenvalue of the effective
curve operator.  ``lowest_eigenvalues`` alone chooses the shifts the certified
shift-invert solver in ``eigsolve`` tries.  Given that predicted level, the
first goes LEVEL_MARGIN below the predicted lowest eigenvalue, where ARPACK
sees the wanted cluster well separated next to the shift; without one, or when
the predicted shift cannot be certified, the ladder down from ``ladder_shift``
(below the ground level, lowered by a curvature bound) follows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import transverse
from .clifford import CliffordFamily, gamma
# lobpcg_smallest is None; its only reader is bench/tracer.py, which wraps it here by name
from .eigsolve import HermitianPencil, SpectrumResult, certify_cut, lobpcg_smallest, shift_invert_smallest  # noqa: F401
from .geometry import ShellMetric2D

__all__ = [
    "ShellFormAssembly",
    "assemble_shell",
    "assemble_sandwich",
    "lowest_eigenvalues",
    "ladder_shift",
    "default_nt",
    "checked_grid",
    "flat_strip_levels",
    "discretized_transverse_energies",
    "MAX_COUNT",
    "MIN_NS",
    "MIN_NT",
    "MAX_DOF",
]

# largest eigenvalue count lowest_eigenvalues (and so a sweep) computes
MAX_COUNT = 12
# coarsest grid the assemblers (and so a sweep config) accept
MIN_NS, MIN_NT = 32, 8
# most reduced dofs a grid may have (see checked_grid): 10 % above the finest grid
# measured for this element, 512 x 29 (59 392 dofs).  One solve at the cap took
# 1.6 s and 342 MB peak on a 2-core machine with one BLAS thread; both grow about
# linearly with the dof count.
MAX_DOF = 65_536

# the (p+1)-point Gauss rule on [0, 1] of the degree-p element: points, weights
_GAUSS = {
    1: (np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)]), np.array([0.5, 0.5])),
    2: (np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)]),
        np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])),
}


def default_nt(eps: float) -> int:
    """Transverse element count: max(8, ceil(4/sqrt(eps)))."""
    return max(8, math.ceil(4.0 / math.sqrt(eps)))


def checked_grid(eps: float, n_s: int, n_t: int | None = None) -> tuple[int, int]:
    """The grid (n_s, n_t) an assembly at width eps builds (n_t None: default_nt(eps)).

    ValueError unless n_s >= MIN_NS, n_t >= MIN_NT and the grid has at most
    MAX_DOF reduced dofs.  It has 4 per t-cell and s-node: each of the two
    components has 2 n_t - 1 interior t-nodes, and each boundary node one dof.
    """
    if n_t is None:
        n_t = default_nt(eps)
    if n_s < MIN_NS or n_t < MIN_NT:
        raise ValueError(f"grid too coarse: need n_s >= {MIN_NS} and n_t >= {MIN_NT}")
    if 4 * n_s * n_t > MAX_DOF:
        raise ValueError(f"grid too fine: n_s={n_s}, n_t={n_t} has {4 * n_s * n_t} dofs, above {MAX_DOF}")
    return n_s, n_t


def _line_element(p: int, n: int, h: float, periodic: bool = False):
    """The degree-p Lagrange element (p = 1 or 2) on n cells of width h.

    Returns ``(x, w, val, der, conn)``: the Gauss points x and weights w
    (summing to 1) on the reference cell [0, 1]; the values and d/dx of the
    basis functions of the nodes a/p (rows) at x (columns); and the
    cell-to-node map, which sends local node a of cell e to node p*e + a
    of the p*n + 1 nodes, or of the p*n nodes wrapped around if periodic.
    """
    x, w = _GAUSS[p]
    nodes = np.arange(p + 1) / p
    val, der = np.ones((p + 1, x.size)), np.zeros((p + 1, x.size))
    for a in range(p + 1):
        for b in range(p + 1):
            if b != a:
                # product rule for the factor (x - x_b)/(x_a - x_b)
                factor = (x - nodes[b]) / (nodes[a] - nodes[b])
                der[a] = der[a] * factor + val[a] / (nodes[a] - nodes[b])
                val[a] = val[a] * factor
    conn = (p * np.arange(n)[:, None] + np.arange(p + 1)) % (p * n + (0 if periodic else 1))
    return x, w, val, der / h, conn


def _scatter(local: np.ndarray, conn: np.ndarray, dim: int) -> sp.csr_matrix:
    """Sum the per-cell matrices local[e] into a dim x dim CSR matrix.

    Entry (a, b) of cell e's matrix is added at (conn[e, a], conn[e, b]).
    """
    k = conn.shape[1]
    rows, cols = np.repeat(conn, k, axis=1).ravel(), np.tile(conn, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(dim, dim)).tocsr()


@functools.lru_cache(maxsize=8)
def _p2_transverse_pencil(N: int, m: float, n_t: int):
    """The x-independent P2 matrices on n_t cells of (-1, 1), N spinor components per node.

    Returns the form ||f'||^2 + m^2||f||^2 + m(|f(1)|^2+|f(-1)|^2) and the
    mass, both CSR over the full node set, before the boundary elimination.
    """
    h = 2.0 / n_t
    n_nodes = 2 * n_t + 1
    _, w, val, der, conn = _line_element(2, n_t, h)
    # every cell has the same local stiffness and mass
    k1d, m1d = (
        _scatter(np.broadcast_to(np.einsum("q,aq,bq->ab", w * h, t, t), (n_t, 3, 3)), conn, n_nodes)
        for t in (der, val)
    )
    boundary = np.concatenate([np.full(N, m), np.zeros((n_nodes - 2) * N), np.full(N, m)])
    a_full = sp.kron(k1d + m * m * m1d, sp.eye(N), format="csr").astype(complex) + sp.diags(boundary)
    b_full = sp.kron(m1d, sp.eye(N), format="csr").astype(complex)
    return a_full, b_full


def _transverse_pencil(fam: CliffordFamily, x, m: float, n_t: int):
    """The P2 pencil with the boundary constraint eliminated.

    Node 0 is kept on the -1 and the last node on the +1 eigenspace of
    -i a_{n+1} Gamma(x), N/2 components each.
    """
    a_full, b_full = _p2_transverse_pencil(fam.N, float(m), n_t)
    vals_b, vecs_b = np.linalg.eigh(-1.0j * fam.alpha_last @ gamma(fam, x).gamma)
    plus = vecs_b[:, np.abs(vals_b - 1) < 1e-10]
    minus = vecs_b[:, np.abs(vals_b + 1) < 1e-10]
    # rows: node 0, the interior nodes, the last node; columns: plus, minus, interior
    interior = sp.identity((2 * n_t - 1) * fam.N)
    z = sp.bmat([[None, minus, None], [None, None, interior], [plus, None, None]], format="csr")
    zh = z.conj().T.tocsr()
    return (zh @ a_full @ z).tocsr(), (zh @ b_full @ z).tocsr()


def discretized_transverse_energies(fam: CliffordFamily, x, m: float, n_t: int, count: int) -> np.ndarray:
    """The count lowest eigenvalues of the squared transverse operator on n_t P2 cells of (-1, 1).

    Solved at the one shift -1 (seed 0), which certifies that none lies
    below it, and ``certify_cut`` certifies that none is missing below the
    top returned one; EigensolveError when a certificate or the residual gate fails.
    """
    pencil = HermitianPencil.make(*_transverse_pencil(fam, x, m, n_t))
    # the form is positive for m >= 0, so the one shift -1 certifies at once
    res = shift_invert_smallest(pencil, count, [-1.0])
    certify_cut(pencil, res.eigenvalues)
    return res.eigenvalues


@dataclass(frozen=True)
class ShellFormAssembly:
    """One assembled pencil: the exact shell form (c = 0.0) or the bracketing form with slack c."""

    metric: ShellMetric2D
    m: float
    c: float
    n_s: int
    n_t: int
    pencil: HermitianPencil

    @property
    def dof_count(self) -> int:
        return self.pencil.dim

    @property
    def h_s(self) -> float:
        return self.metric.curve.length / self.n_s

    @property
    def h_t(self) -> float:
        return 2.0 / self.n_t

    @functools.cached_property
    def ground(self) -> float:
        """The transverse ground level E_1(m eps)^2/eps^2 the pencil's spectrum sits O(1) above."""
        return transverse.level(self.m, self.metric.eps)


# boundary spinors in the gauged frame diag(1, nu(s)): constant in s
_GAUGED_SPINORS = {
    -1: np.array([1.0, -1.0j]) / math.sqrt(2.0),
    +1: np.array([1.0, +1.0j]) / math.sqrt(2.0),
}
_GAUGED_CONNECTION = (0.0, 1.0)  # the frame's connection (0, kappa), per component in units of kappa


def _pairs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The products left[a, q]*right[b, q] of two basis tables, shape (points, a*k + b)."""
    return (left[:, None, :] * right[None, :, :]).reshape(-1, left.shape[1]).T


class _TensorGalerkin:
    """Scalar P1(s, periodic) x P2(t) element on [0, L) x (-1, 1), its
    constraint map Z and the CSR pattern of the reduced matrices.

    The product of the periodic P1 s-line and the P2 t-line, the one place
    that names the two degrees.  Cell (i, j) is row i*n_t + j of the
    per-cell arrays; its local nodes and quadrature points are the (s, t)
    pairs, the t index running fastest.

    It knows no form: ``local`` and ``add_boundary`` turn an assembler's
    coefficients into per-cell matrices, and ``matrix`` reduces one set per
    component.  Z is index arithmetic on the node layout, and only it knows
    the reduced layout: node (i, jt) of component c holds reduced DOF
    ``column[c, i*n_tn + jt]`` times ``weight[c, i*n_tn + jt]``.  The two
    components of a boundary node share a column, weighted by its side's
    ``_GAUGED_SPINORS``; every other node has its own, weight 1.  For each
    s-node i the block [boundary(-1), component-0 interior, component-1
    interior, boundary(+1)] of ``block`` columns is contiguous (this order
    fixes the fill of the LU).  Entry (a, b) of cell e's component-c matrix
    adds to entry ``slot[((c*cells + e)*k + a)*k + b]`` of the data of
    Z^H diag(A_0, A_1) Z times conj(w_a)*w_b, a weight that differs from 1
    only in the ``edge`` t-cells.
    """

    def __init__(self, length: float, n_s: int, n_t: int):
        self.n_s = n_s
        self.n_t = n_t
        self.h_s = length / n_s
        self.h_t = 2.0 / n_t
        xs, self.ws, self.val_s, der_s, self.conn_s = _line_element(1, n_s, self.h_s, periodic=True)
        xt, wt, val_t, der_t, self.conn_t = _line_element(2, n_t, self.h_t)
        self.n_tn = int(self.conn_t.max()) + 1
        self.nq_t = xt.size  # Gauss points per cell in t
        self.dim = n_s * self.n_tn
        # the entries (a_s, a_t, b_s, b_t) of the per-cell matrices of both components, by cell (i, j)
        self.cell_shape = (2, n_s, n_t, *(len(self.val_s), len(val_t)) * 2)
        # the node and point tables of the product
        self.val = np.kron(self.val_s, val_t)
        self.ds = np.kron(der_s, val_t)
        self.dt = np.kron(self.val_s, der_t)
        self.wq = np.kron(self.ws, wt) * self.h_s * self.h_t
        # basis-pair tables: the volume form's (ds ds, dt dt, val val), the mass,
        # and the covariant coupling E - E^T with E = ds val
        self.mass_pairs = _pairs(self.val, self.val)
        self.form_pairs = np.vstack([_pairs(self.ds, self.ds), _pairs(self.dt, self.dt), self.mass_pairs])
        self.cross_pairs = _pairs(self.ds, self.val) - _pairs(self.val, self.ds)
        # the 2*n_s distinct s-abscissae (i + xi_q)*h_s, shape (n_s, 2), and
        # t at the quadrature points of each cell, shape (n_s*n_t, points per cell)
        self.s_abscissae = (np.arange(n_s)[:, None] + xs) * self.h_s
        self.quad_t = np.tile(-1.0 + (np.arange(n_t)[:, None] + xt) * self.h_t, (n_s, xs.size))
        inner = self.n_tn - 2
        self.block = 2 * inner + 2
        i, jt = np.divmod(np.arange(self.dim), self.n_tn)
        c = np.arange(2)[:, None]
        ends = [jt == 0, jt == self.n_tn - 1]
        self.column = i * self.block + np.select(ends, [0, self.block - 1], c * inner + jt)
        self.weight = np.select(ends, [_GAUGED_SPINORS[-1][c], _GAUGED_SPINORS[+1][c]], 1.0 + 0.0j)
        # the pattern; t-node jt of component c is row red[c, jt] of a block (its column at i = 0)
        red, w = self.column[:, self.conn_t], self.weight[:, self.conn_t]
        ptr_s, slot_s = _line_pattern(self.conn_s[:, :, None] * n_s + self.conn_s[:, None, :], n_s)
        ptr_t, slot_t = _line_pattern(red[..., :, None] * self.block + red[..., None, :], self.block)
        nnz_t, self.nnz = ptr_t[-1], int(ptr_s[-1] * ptr_t[-1])
        # row (i, r) starts at ptr_s[i]*nnz_t + len_s[i]*ptr_t[r]; the entry in its k_s-th
        # s-column and k_t-th block column lies k_s*len_t[r] + k_t further on, and its column
        # is s[3] + t[3].  Computed as (c, j, a_t, b_t) x (i, a_s, b_s), stored per cell.
        first_s, first_t = ptr_s[self.conn_s][..., None], ptr_t[red][..., None]
        s = [np.broadcast_to(x, slot_s.shape).reshape(1, -1) for x in (
            first_s * nnz_t, np.diff(ptr_s)[self.conn_s][..., None], slot_s - first_s,
            self.conn_s[:, None, :] * self.block)]
        t = [np.broadcast_to(x, slot_t.shape).reshape(-1, 1) for x in (
            first_t, np.diff(ptr_t)[red][..., None], slot_t - first_t, red[..., None, :])]
        slot = s[0] + s[1] * t[0] + s[2] * t[1] + t[2]
        idx = np.int32 if self.nnz < 2**31 else np.int64
        self.indices = np.empty(self.nnz, idx)
        self.indices[slot] = s[3] + t[3]
        k_s, k_t = self.cell_shape[3:5]
        self.slot = slot.reshape(2, n_t, k_t, k_t, n_s, k_s, k_s).transpose(0, 4, 1, 5, 2, 6, 3).ravel()
        self.indptr = np.append(ptr_s[:-1, None] * nnz_t + np.diff(ptr_s)[:, None] * ptr_t[:-1], self.nnz).astype(idx)
        w = w.conj()[..., :, None] * w[..., None, :]
        self.edge = np.flatnonzero((w != 1.0).any(axis=(0, 2, 3)))
        self.edge_weight = w[:, self.edge][:, None, :, None, :, None, :]

    def at_quad(self, per_s: np.ndarray) -> np.ndarray:
        """Broadcast values at ``s_abscissae`` over t to every quadrature point."""
        return np.repeat(np.repeat(per_s, self.n_t, axis=0), self.nq_t, axis=1)

    def local(self, pairs: np.ndarray, *coefs) -> np.ndarray:
        """The per-cell matrices sum_q coef*wq*pairs, shape (cells, k*k), of stacked basis-pair
        tables, one coefficient each: a scalar or its values at the quadrature points."""
        return np.hstack([np.broadcast_to(c, self.quad_t.shape) * self.wq for c in coefs]) @ pairs

    def add_boundary(self, local: np.ndarray, coefs) -> None:
        """Add sum_i int coef(s) u v ds on t = +1 (t-node -1 of t-cell -1) and t = -1 (t-node 0
        of t-cell 0) to ``local``, each coefficient a scalar or its values at ``s_abscissae``."""
        cells = local.reshape(self.cell_shape[1:])
        for coef, j in zip(coefs, (-1, 0)):
            line = np.broadcast_to(coef, self.s_abscissae.shape) * (self.ws * self.h_s) @ _pairs(self.val_s, self.val_s)
            cells[:, j, :, j, :, j] += line.reshape(cells[:, j, :, j, :, j].shape)

    def matrix(self, re: np.ndarray, im: np.ndarray | None = None) -> sp.csr_matrix:
        """Z^H diag(A_0, A_1) Z of the components' per-cell matrices re + i*im (None: 0), shape
        (2, cells, k*k), in the shared pattern; re and im are weighted in place."""
        if im is None:
            im = np.zeros_like(re)
        cells_re, cells_im = re.reshape(self.cell_shape), im.reshape(self.cell_shape)
        z = (cells_re[:, :, self.edge] + 1j * cells_im[:, :, self.edge]) * self.edge_weight
        cells_re[:, :, self.edge], cells_im[:, :, self.edge] = z.real, z.imag
        data = np.bincount(self.slot, re.ravel(), self.nnz).astype(complex)
        data.imag = np.bincount(self.slot, im.ravel(), self.nnz)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n_s * self.block,) * 2)


def _line_pattern(keys: np.ndarray, n: int):
    """The canonical CSR ``indptr`` on n x n of the entries row*n + col = keys, and the slot of each."""
    unique, slot = np.unique(keys, return_inverse=True)
    return np.searchsorted(unique, np.arange(n + 1) * n), slot.reshape(keys.shape)


def _grid(fam: CliffordFamily, metric: ShellMetric2D, m: float, n_s: int, n_t: int | None):
    """After refusing a negative or NaN mass m, the validated grid, the curvature (one call)
    at its s-abscissae and at its quadrature points, and the gauged frame's connection there."""
    if not m >= 0:
        raise ValueError("mass must be nonnegative")
    if fam.n != 2:
        raise ValueError("shell assembly is implemented for n = 2")
    grid = _TensorGalerkin(metric.curve.length, *checked_grid(metric.eps, n_s, n_t))
    kap_s = metric.curve.curvature(grid.s_abscissae)
    kap = grid.at_quad(kap_s)
    return grid, kap_s, kap, [f * kap for f in _GAUGED_CONNECTION]


def _covariant_pencil(grid, connection, tan, trans, mass, boundary, weight) -> HermitianPencil:
    """The reduced pencil of a form with one connection A_c per spinor component.

    Component c carries tan|(d_s + i*A_c)u|^2 + trans|d_t u|^2 + mass|u|^2:
    tan*A_c^2 on the mass pairs and the cross term tan*A_c*i(du/ds v - u dv/ds).
    ``boundary`` holds the coefficients on the t = +1 and t = -1 lines, and
    ``weight`` the L^2 weight of the mass matrix B.
    """
    a = grid.local(grid.form_pairs, tan, trans, mass)
    grid.add_boundary(a, boundary)
    re = np.stack([a + grid.local(grid.mass_pairs, tan * conn**2) for conn in connection])
    im = np.stack([grid.local(grid.cross_pairs, tan * conn) for conn in connection])
    b = grid.matrix(np.stack([grid.local(grid.mass_pairs, weight)] * 2))
    return HermitianPencil.make(grid.matrix(re, im), b)


def assemble_shell(
    fam: CliffordFamily,
    metric: ShellMetric2D,
    m: float,
    n_s: int,
    n_t: int | None = None,
) -> ShellFormAssembly:
    """Pencil of the exact tubular-coordinate form with eliminated boundary DOFs."""
    grid, kap_s, kap, connection = _grid(fam, metric, m, n_s, n_t)
    eps = metric.eps
    w = metric.stretch(grid.quad_t, kap)
    # (m + H/2)*h with the exact curvature H = side*kappa/(1+side*eps*kappa)
    # and weight h = stretch(side, kappa) collapses to m*h + side*kappa/2
    boundary = [m * metric.stretch(side, kap_s) + side * kap_s / 2.0 for side in (+1, -1)]
    pencil = _covariant_pencil(grid, connection, eps / w, w / eps, m * m * eps * w, boundary, eps * w)
    return ShellFormAssembly(metric=metric, m=float(m), c=0.0, n_s=grid.n_s, n_t=grid.n_t, pencil=pencil)


def assemble_sandwich(
    fam: CliffordFamily,
    metric: ShellMetric2D,
    m: float,
    c: float,
    n_s: int,
    n_t: int | None = None,
) -> ShellFormAssembly:
    """Pencil of the flat-metric bracketing form with signed slack c.

    c < 0 gives the lower form and c > 0 the upper one; the shell form lies
    between the forms at -c and +c once |c| covers the metric's deviation.
    """
    grid, _, kap, connection = _grid(fam, metric, m, n_s, n_t)
    eps = metric.eps
    bcoef = (m * eps + c * eps**3) / eps**2
    pencil = _covariant_pencil(grid, connection, 1.0 + c * eps, 1.0 / eps**2, m * m + c * eps - kap**2 / 4.0,
                               (bcoef, bcoef), 1.0)
    return ShellFormAssembly(metric=metric, m=float(m), c=float(c), n_s=grid.n_s, n_t=grid.n_t, pencil=pencil)


# how far below the predicted lowest eigenvalue lowest_eigenvalues puts the
# shift; it covers the o(1) gap between a shell eigenvalue and its prediction
LEVEL_MARGIN = 0.1
# shifts lowest_eigenvalues tries down the ladder before a solve is uncertified
MAX_SHIFTS = 8


def ladder_shift(assembly: ShellFormAssembly) -> float:
    """A shift below the lowest eigenvalue of a shell or bracketing pencil.

    The assembly's ``ground`` E_1(m eps)^2/eps^2, lowered by the largest
    curvature potential kappa_max^2/4 plus one and by the slack 2 |c| eps
    (zero for the shell form).  It needs no knowledge of the effective
    operator, so it heads the ladder of shifts ``lowest_eigenvalues`` tries;
    it lies further below the lowest eigenvalue than the prediction (about 1.18 on the unit circle and 1.94
    on ellipse(2, 1)), which costs ARPACK more applications.
    """
    eps = assembly.metric.eps
    return assembly.ground - assembly.metric.curve.kappa_max**2 / 4.0 - 1.0 - 2.0 * abs(assembly.c) * eps


def lowest_eigenvalues(
    assembly: ShellFormAssembly, count: int, seed: int = 0, level: float | None = None
) -> SpectrumResult:
    """The certified solve for the count smallest eigenvalues of an assembly's pencil.

    The pencil is solved by ``eigsolve.shift_invert_smallest`` with a start
    vector from ``seed``; a count above MAX_COUNT raises ValueError.  It
    tries the ladder: MAX_SHIFTS shifts down from sigma = ``ladder_shift``,
    the first step 1e-2 max(1, |sigma|) and each step twice the last.
    ``level`` predicts the lowest eigenvalue's height above the assembly's
    ``ground`` E_1(m eps)^2/eps^2, as the lowest effective eigenvalue does
    for the shell pencil; the shift LEVEL_MARGIN below the predicted
    eigenvalue, when above the ladder, is tried before it.  The solver's
    ``SpectrumResult`` comes back as it is: its eigenvalues and residuals,
    ascending (iterating it gives the (eigenvalue, residual) pairs), and its
    ``record()``.  A solve that cannot be certified or misses the solver's
    residual tolerance raises EigensolveError.
    """
    if count > MAX_COUNT:
        raise ValueError(f"count capped at {MAX_COUNT}")
    shifts = [ladder_shift(assembly)]
    step = 1e-2 * max(1.0, abs(shifts[0]))
    for k in range(MAX_SHIFTS - 1):
        shifts.append(shifts[-1] - step * 2.0**k)
    if level is not None:
        predicted = assembly.ground + level - LEVEL_MARGIN
        if predicted > shifts[0]:
            shifts.insert(0, predicted)
    return shift_invert_smallest(assembly.pencil, count, shifts, seed=seed)


def flat_strip_levels(length: float, m: float, eps: float, count: int) -> np.ndarray:
    """Separated reference spectrum on the zero-curvature strip.

    Levels (2 pi q / L)^2 + E_p(m*eps)^2/eps^2 with multiplicity two per
    (q, p); the transverse level is ``transverse.level(m, eps, p)``.  The
    q = 0 levels of bands 1..ceil(count/2) are already ``count`` values, so
    bands up to ceil(count/2) + 1 hold the ``count`` lowest, however short
    the strip.
    """
    levels = []
    for p in range(1, math.ceil(count / 2) + 2):
        level_p = transverse.level(m, eps, p)
        for q in range(-count, count + 1):
            levels.extend([(2.0 * math.pi * q / length) ** 2 + level_p] * 2)
    return np.sort(np.array(levels))[:count]
