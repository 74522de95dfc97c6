import math

import numpy as np
import pytest
import scipy.sparse as sp

from diracshell import eigsolve
from diracshell.eigsolve import (
    EigensolveError,
    HermitianPencil,
    dense_hermitian_eig,
    inertia,
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


def random_pencil(rng, dim, generalized):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a + a.conj().T
    if not generalized:
        return a, None
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a, b @ b.conj().T + dim * np.eye(dim)


@pytest.mark.parametrize("generalized", [False, True])
def test_dense_count_is_the_head_of_the_full_spectrum(rng, generalized):
    dim = 60
    a, b = random_pencil(rng, dim, generalized)
    full = dense_hermitian_eig(a, b).eigenvalues
    for k in (1, 5, dim):
        res = dense_hermitian_eig(a, b, count=k)
        assert np.abs(res.eigenvalues - full[:k]).max() <= 1e-12 * max(1.0, np.abs(full).max())
        assert res.vectors.shape == (dim, k) and res.residuals.shape == (k,)
        assert res.residuals.max() <= 1e-10


def test_dense_count_outside_the_dimension_raises(rng):
    a, b = random_pencil(rng, 10, True)
    for k in (0, -1, 11):
        with pytest.raises(ValueError):
            dense_hermitian_eig(a, b, count=k)


def dirichlet_laplacian(n):
    return sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr().astype(complex)


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


def random_sparse_hermitian(rng, dim, density):
    """Hermitian matrix with a random sparsity pattern and a nonzero diagonal."""
    m = sp.random(dim, dim, density=density, random_state=rng, format="csr") * (1.0 + 1.0j)
    return (m + m.conj().T + sp.diags(rng.standard_normal(dim))).toarray()


def test_inertia_matches_eigvalsh(rng):
    # indefinite random matrices: ring-coupled blocks and general sparsity
    cases = [random_ring(rng, blocks, size) for blocks, size in ((3, 4), (7, 5), (12, 3))]
    cases += [random_sparse_hermitian(rng, dim, 0.1) for dim in (20, 40, 60)]
    for m in cases:
        lam = np.linalg.eigvalsh(m)
        for shift in (lam[0] - 1.0, 0.0, 0.5 * (lam[4] + lam[5]), lam[-1] + 1.0):
            shifted = sp.csr_matrix(m - shift * np.eye(m.shape[0]))
            assert inertia(shifted)[0] == np.count_nonzero(lam < shift)


def test_inertia_rejects_singular_and_off_diagonal_pivots():
    # an exactly singular factor, and a zero diagonal that forces an
    # off-diagonal pivot
    for m in (np.diag([1.0, 0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(EigensolveError):
            inertia(sp.csr_matrix(m.astype(complex)))


def test_shift_invert_factors_once_per_tried_shift(monkeypatch):
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    splu = eigsolve.spla.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigsolve.spla, "splu", counting)
    # an already-certified shift: the certificate's factor is the one ARPACK uses
    res = shift_invert_smallest(pen, 2, -0.01, seed=1)
    assert len(calls) == 1 and res.shift == -0.01
    # 0.025 and 0.015 lie above eigenvalues; the third try, -0.005, certifies
    calls.clear()
    res = shift_invert_smallest(pen, 2, 0.025, seed=1)
    assert len(calls) == 3 and abs(res.shift + 0.005) < 1e-15


def test_shift_invert_laplacian_closed_form():
    n = 128
    pen = HermitianPencil.make(dirichlet_laplacian(n))
    exact = np.array([4.0 * math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in (1, 2, 3)])
    res = shift_invert_smallest(pen, 3, -0.01, seed=1)
    assert res.converged and res.negative_pivots == 0 and res.shift == -0.01
    assert np.abs(res.eigenvalues - exact).max() < 1e-12
    assert res.residuals.max() <= 1e-8
    # a shift above the lowest eigenvalue is lowered until certified
    raised = shift_invert_smallest(pen, 3, exact[1], seed=1)
    assert raised.shift < exact[0]
    assert np.abs(raised.eigenvalues - exact).max() < 1e-12


def test_shift_invert_matches_dense_generalized():
    n = 160
    a = dirichlet_laplacian(n) + sp.diags(np.linspace(0.0, 1.0, n)).astype(complex)
    b = sp.diags(np.linspace(1.0, 2.0, n)).tocsr().astype(complex)
    pen = HermitianPencil.make(a.tocsr(), b)
    res = shift_invert_smallest(pen, 4, 0.0, seed=0)
    dense = dense_hermitian_eig(a.toarray(), b.toarray())
    assert np.abs(res.eigenvalues - dense.eigenvalues[:4]).max() <= 1e-10


def test_shift_invert_seed_reproducible():
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    r1 = shift_invert_smallest(pen, 2, -0.01, seed=7)
    r2 = shift_invert_smallest(pen, 2, -0.01, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    # the count of inverse applications repeats exactly
    assert r1.iterations == r2.iterations > 0


def test_shift_invert_uncertified_raises(monkeypatch):
    pen = HermitianPencil.make(dirichlet_laplacian(128))
    monkeypatch.setattr(eigsolve, "MAX_SHIFTS", 1)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, 0.01)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, -0.01, tol=1e-30)


def test_shift_invert_badly_scaled_b_with_a_double_level(rng):
    # A = S Q diag(lam) Q^H S with B = S^2 spanning 1e-3 ... 1e3: the pencil's
    # eigenvalues are lam, with 2 a double level, and OP = (A - sigma B)^-1 B
    # is far from normal in the Euclidean inner product ARPACK iterates in
    dim = 80
    lam = np.concatenate([[1.0, 2.0, 2.0, 3.0], np.linspace(4.0, 20.0, dim - 4)])
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    s = np.sqrt(np.logspace(-3.0, 3.0, dim))
    a = s[:, None] * (q * lam) @ q.conj().T * s[None, :]
    a = 0.5 * (a + a.conj().T)
    b = sp.diags(s**2).tocsr().astype(complex)
    pen = HermitianPencil.make(sp.csr_matrix(a), b)
    res = shift_invert_smallest(pen, 4, 0.5, seed=0)
    dense = dense_hermitian_eig(a, b.toarray(), count=4)
    assert res.shift == 0.5 and res.negative_pivots == 0
    assert np.abs(res.eigenvalues - dense.eigenvalues).max() <= 1e-10
    assert np.abs(dense.eigenvalues - lam[:4]).max() <= 1e-10
    # both copies of the double level: the inertia between the levels counts them
    for cut, below in ((1.5, 1), (2.5, 3), (3.5, 4)):
        assert inertia(pen.a - cut * b)[0] == below == np.count_nonzero(res.eigenvalues < cut)
