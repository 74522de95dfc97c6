import math

import numpy as np
import pytest
import scipy.sparse as sp

from diracshell import eigsolve
from diracshell.eigsolve import (
    EigensolveError,
    HermitianPencil,
    dense_hermitian_eig,
    lobpcg_smallest,
    ring_inertia,
    shift_invert_smallest,
)


def test_dense_diagonal():
    res = dense_hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0])
    assert res.converged and res.iterations == 0


def test_dense_pauli_spectrum():
    res = dense_hermitian_eig(np.array([[0.0, -1j], [1j, 0.0]]))
    assert np.allclose(res.eigenvalues, [-1.0, 1.0])


def test_dense_trace_identity(rng):
    # trace identity oracle on a random 50x50 hermitian matrix
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    a = a + a.conj().T
    res = dense_hermitian_eig(a)
    assert abs(res.eigenvalues.sum() - np.real(np.trace(a))) < 1e-10
    assert res.residuals.max() < 1e-11


def test_dense_generalized_and_rayleigh(rng):
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    a = a + a.conj().T
    b = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = b @ b.conj().T + 40.0 * np.eye(40)
    res = dense_hermitian_eig(a, b)
    assert res.residuals.max() < 1e-11
    assert np.all(np.diff(res.eigenvalues) >= 0.0)
    v = res.vectors[:, 0]
    rq = np.real(v.conj() @ a @ v) / np.real(v.conj() @ b @ v)
    assert abs(rq - res.eigenvalues[0]) <= 1e-12 * (1.0 + abs(rq))


def test_dense_rejects_indefinite_b(rng):
    a = np.eye(8, dtype=complex)
    b = np.diag([1.0] * 7 + [-1.0]).astype(complex)
    with pytest.raises(ValueError):
        dense_hermitian_eig(a, b)


def test_dense_rejects_non_hermitian():
    with pytest.raises(ValueError):
        dense_hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_dense_deterministic(rng):
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    a = a + a.conj().T
    r1 = dense_hermitian_eig(a)
    r2 = dense_hermitian_eig(a.copy())
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)


def dirichlet_laplacian(n):
    return sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr().astype(complex)


def test_lobpcg_laplacian_closed_form():
    # closed-form tridiagonal spectrum oracle: 4 sin^2(j pi / (2(n+1)))
    n = 100
    pen = HermitianPencil.make(dirichlet_laplacian(n))
    res = lobpcg_smallest(pen, 3, tol=1e-10, dense_cutoff=0, seed=1)
    exact = np.array([4.0 * math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in (1, 2, 3)])
    assert res.converged
    assert np.abs(res.eigenvalues - exact).max() < 1e-10
    # B-orthonormal block at exit (B = I here)
    gram = res.vectors.conj().T @ res.vectors
    assert np.abs(gram - np.eye(3)).max() < 1e-8


def test_lobpcg_matches_dense_generalized(rng):
    n = 160
    a = dirichlet_laplacian(n) + sp.diags(np.linspace(0.0, 1.0, n)).astype(complex)
    b = sp.diags(np.linspace(1.0, 2.0, n)).tocsr().astype(complex)
    pen = HermitianPencil.make(a.tocsr(), b)
    res = lobpcg_smallest(pen, 4, tol=1e-10, dense_cutoff=0, seed=0)
    dense = dense_hermitian_eig(a.toarray(), b.toarray())
    assert res.converged
    assert np.abs(res.eigenvalues - dense.eigenvalues[:4]).max() <= 1e-8
    # Rayleigh quotients agree with the returned eigenvalues
    for i in range(4):
        v = res.vectors[:, i]
        rq = np.real(v.conj() @ (a @ v)) / np.real(v.conj() @ (b @ v))
        assert abs(rq - res.eigenvalues[i]) <= 1e-12 * (1.0 + abs(rq))


def test_lobpcg_dense_fallback_small_problem():
    pen = HermitianPencil.make(dirichlet_laplacian(64))
    res = lobpcg_smallest(pen, 2, dense_cutoff=2048)
    assert res.iterations == 0 and res.converged


def test_lobpcg_seed_reproducible():
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    r1 = lobpcg_smallest(pen, 2, tol=1e-9, dense_cutoff=0, seed=7)
    r2 = lobpcg_smallest(pen, 2, tol=1e-9, dense_cutoff=0, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert r1.iterations == r2.iterations


def test_lobpcg_partial_result_on_iteration_cap():
    pen = HermitianPencil.make(dirichlet_laplacian(256))
    res = lobpcg_smallest(pen, 2, tol=1e-13, maxiter=2, dense_cutoff=0, preconditioner="none")
    assert not res.converged
    assert res.eigenvalues.shape == (2,)


def test_lobpcg_input_validation():
    pen = HermitianPencil.make(dirichlet_laplacian(32))
    with pytest.raises(ValueError):
        lobpcg_smallest(pen, 0)
    with pytest.raises(ValueError):
        lobpcg_smallest(pen, 17)
    with pytest.raises(ValueError):
        lobpcg_smallest(pen, 10)  # dim < 4*count
    with pytest.raises(ValueError):
        lobpcg_smallest(HermitianPencil.make(dirichlet_laplacian(128)), 2,
                        preconditioner="ssor", dense_cutoff=0)


def random_ring(rng, blocks, size):
    """Hermitian matrix whose blocks couple only to their ring neighbours."""
    dim = blocks * size
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(blocks):
        for j in (i, (i + 1) % blocks):
            m[i * size:(i + 1) * size, j * size:(j + 1) * size] = (
                rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            )
    return m + m.conj().T


def test_ring_inertia_matches_eigvalsh(rng):
    # indefinite random pivots exercise the eigenvalue path of every block
    for blocks, size in ((3, 4), (7, 5), (12, 3)):
        m = random_ring(rng, blocks, size)
        lam = np.linalg.eigvalsh(m)
        for shift in (lam[0] - 1.0, 0.0, 0.5 * (lam[4] + lam[5]), lam[-1] + 1.0):
            shifted = sp.csr_matrix(m - shift * np.eye(m.shape[0]))
            assert ring_inertia(shifted, blocks) == np.count_nonzero(lam < shift)


def test_ring_inertia_rejects_other_layouts(rng):
    m = random_ring(rng, 6, 4)
    m[0, 10] = m[10, 0] = 1.0  # block 0 to block 2
    with pytest.raises(ValueError):
        ring_inertia(sp.csr_matrix(m), 6)
    with pytest.raises(ValueError):
        ring_inertia(sp.csr_matrix(random_ring(rng, 6, 4)), 5)


def test_shift_invert_laplacian_closed_form():
    n = 128
    pen = HermitianPencil.make(dirichlet_laplacian(n))
    exact = np.array([4.0 * math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in (1, 2, 3)])
    res = shift_invert_smallest(pen, 3, -0.01, blocks=8, seed=1)
    assert res.converged and res.negative_pivots == 0 and res.shift == -0.01
    assert np.abs(res.eigenvalues - exact).max() < 1e-12
    assert res.residuals.max() <= 1e-8
    # a shift above the lowest eigenvalue is lowered until certified
    raised = shift_invert_smallest(pen, 3, exact[1], blocks=8, seed=1)
    assert raised.shift < exact[0]
    assert np.abs(raised.eigenvalues - exact).max() < 1e-12


def test_shift_invert_matches_dense_generalized():
    n = 160
    a = dirichlet_laplacian(n) + sp.diags(np.linspace(0.0, 1.0, n)).astype(complex)
    b = sp.diags(np.linspace(1.0, 2.0, n)).tocsr().astype(complex)
    pen = HermitianPencil.make(a.tocsr(), b)
    res = shift_invert_smallest(pen, 4, 0.0, blocks=10, seed=0)
    dense = dense_hermitian_eig(a.toarray(), b.toarray())
    assert np.abs(res.eigenvalues - dense.eigenvalues[:4]).max() <= 1e-10


def test_shift_invert_seed_reproducible():
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    r1 = shift_invert_smallest(pen, 2, -0.01, blocks=8, seed=7)
    r2 = shift_invert_smallest(pen, 2, -0.01, blocks=8, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    # the count of inverse applications repeats exactly
    assert r1.iterations == r2.iterations > 0


def test_shift_invert_uncertified_raises(monkeypatch):
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    monkeypatch.setattr(eigsolve, "MAX_SHIFTS", 1)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, 0.01, blocks=8)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, -0.01, blocks=8, tol=1e-30)
