import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
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
    assert res.iterations == 0


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


def test_hermiticity_check_keeps_its_relative_bound(rng):
    # the check compares A with A^H one column block at a time, with the test
    # max|A - A^H| <= 1e-12 * max(max|A|, 1): an entry 1e-11 of the scale off
    # fails and 1e-13 off passes, in any block and in either memory layout
    dim = 3 * eigsolve._CHECK_BLOCK + 5
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = a + a.conj().T
    scale = np.abs(a).max()
    for i, j, step in ((0, dim - 1, 1.0), (dim - 1, 2, 1.0), (20, 37, 1.0), (dim - 2, dim - 2, 1j)):
        for rel, hermitian in ((1e-11, False), (1e-13, True)):
            off = a.copy()
            off[i, j] += rel * scale * step
            for layout in (off, np.asfortranarray(off)):
                if hermitian:
                    eigsolve._check_hermitian(layout)
                else:
                    with pytest.raises(ValueError, match="not hermitian"):
                        eigsolve._check_hermitian(layout)
    a[0, dim - 1] += 1e-11 * scale
    with pytest.raises(ValueError, match="not hermitian"):
        dense_hermitian_eig(a, count=1)


def test_hermiticity_check_allocates_nothing_of_the_matrix_size():
    # the dim-1024 oracle of the eigensolver-agreement criterion: the check
    # adds to the traced peak only the few hundred bytes of its Python
    # objects, far below one 16.8 MB temporary of A's size (the full-matrix
    # check built three and added 32.6 MB)
    from diracshell import clifford, geometry, shell

    met = geometry.shell_metric(geometry.make_curve("circle", r=1.0), 0.1)
    asm = shell.assemble_shell(clifford.build_clifford(2), met, 0.3, 32, 8)
    assert asm.pencil.dim == 1024
    peaks = []
    for check in (False, True):
        tracemalloc.start()
        try:
            dense_hermitian_eig(asm.pencil.a, asm.pencil.b, check=check, count=6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024


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


def test_dense_leaves_its_inputs_unchanged(rng):
    a, b = random_pencil(rng, 30, True)
    for pencil in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (sp.csr_matrix(a), sp.csr_matrix(b)),
                   (a.real.copy(), None)):
        before = [None if m is None else (m.toarray() if sp.issparse(m) else m.copy()) for m in pencil]
        dense_hermitian_eig(*pencil, count=5)
        for m, kept in zip(pencil, before):
            if m is not None:
                assert np.array_equal(m.toarray() if sp.issparse(m) else m, kept)


@pytest.mark.parametrize("generalized", [False, True])
def test_dense_spectrum_is_bit_identical_across_input_layouts(rng, generalized):
    a, b = random_pencil(rng, 40, generalized)

    def layouts(m):
        return (m, np.asfortranarray(m), sp.csr_matrix(m), sp.csc_matrix(m))

    bs = layouts(b) if generalized else (None,) * 4
    results = [dense_hermitian_eig(x, y, count=6) for x, y in zip(layouts(a), bs)]
    assert all(np.array_equal(r.eigenvalues, results[0].eigenvalues) for r in results)


@pytest.mark.parametrize("sparse", [False, True])
def test_dense_hands_lapack_fortran_copies_to_overwrite(rng, monkeypatch, sparse):
    a, b = random_pencil(rng, 20, True)
    if sparse:
        a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    seen = []
    eigh = scipy.linalg.eigh

    def spy(*arrays, **kwargs):
        seen.append(([m.flags.f_contiguous and m.dtype == complex for m in arrays], kwargs))
        return eigh(*arrays, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    dense_hermitian_eig(a, b, count=3)
    dense_hermitian_eig(a, count=3)
    assert [flags for flags, _ in seen] == [[True, True], [True]]
    assert all(kw["overwrite_a"] and kw["overwrite_b"] for _, kw in seen)


def test_dense_checks_the_cap_and_count_before_densifying(monkeypatch):
    class NoDense(sp.csr_matrix):
        def toarray(self, *args, **kwargs):
            raise AssertionError("densified before the checks")

    mat = NoDense(sp.identity(5, dtype=complex, format="csr"))
    with pytest.raises(ValueError, match="count"):
        dense_hermitian_eig(mat, mat, count=6)
    monkeypatch.setattr(eigsolve, "DENSE_DIM_LIMIT", 4)
    with pytest.raises(ValueError, match="capped at dim 4"):
        dense_hermitian_eig(mat, mat)


def dirichlet_laplacian(n):
    return sp.diags([[-1.0] * (n - 1), [2.0] * n, [-1.0] * (n - 1)], [-1, 0, 1]).tocsr().astype(complex)


def standard(a) -> HermitianPencil:
    """The standard pencil (A, I): the sparse solver takes a generalized pencil."""
    return HermitianPencil.make(a, sp.identity(a.shape[0], format="csr"))


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


def positive_tridiagonal(rng, dim):
    """Hermitian positive definite B: diagonal >= 2, complex off-diagonals of modulus 1/2."""
    diag = 2.0 + rng.uniform(0.0, 1.0, dim)
    return sp.diags([[0.5j] * (dim - 1), diag, [-0.5j] * (dim - 1)], [-1, 0, 1]).tocsr()


def test_inertia_matches_eigvalsh(rng):
    # indefinite random matrices: ring-coupled blocks and general sparsity,
    # as standard pencils and with a positive definite tridiagonal B
    cases = [random_ring(rng, blocks, size) for blocks, size in ((3, 4), (7, 5), (12, 3))]
    cases += [random_sparse_hermitian(rng, dim, 0.1) for dim in (20, 40, 60)]
    for m in cases:
        for b in (None, positive_tridiagonal(rng, m.shape[0])):
            lam = scipy.linalg.eigvalsh(m, None if b is None else b.toarray())
            pencil = standard(sp.csr_matrix(m)) if b is None else HermitianPencil.make(sp.csr_matrix(m), b)
            for shift in (lam[0] - 1.0, 0.0, 0.5 * (lam[4] + lam[5]), lam[-1] + 1.0):
                assert inertia(pencil, shift)[0] == np.count_nonzero(lam < shift)


def test_inertia_rejects_singular_and_off_diagonal_pivots():
    # an exactly singular factor, and a zero diagonal that forces an
    # off-diagonal pivot
    for m in (np.diag([1.0, 0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(EigensolveError):
            inertia(standard(sp.csr_matrix(m.astype(complex))), 0.0)


def test_shift_invert_factors_once_per_tried_shift(monkeypatch):
    pen = standard(dirichlet_laplacian(128))
    splu = eigsolve.spla.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigsolve.spla, "splu", counting)
    # an already-certified shift: the certificate's factor is the one ARPACK uses
    res = shift_invert_smallest(pen, 2, -0.01, seed=1)
    assert len(calls) == 1 and res.shift == -0.01 and res.factorizations == 1
    # 0.025 and 0.015 lie above eigenvalues; the third try, -0.005, certifies
    calls.clear()
    res = shift_invert_smallest(pen, 2, 0.025, seed=1)
    assert len(calls) == res.factorizations == 3 and abs(res.shift + 0.005) < 1e-15
    # a failed guess retries at the fallback itself, then steps down from it
    # exactly as a call at the fallback would: 0.015, 0.005, then -0.015
    for fallback, tries, shift in ((-0.01, 2, -0.01), (0.015, 4, 0.015 - 0.01 - 0.02)):
        calls.clear()
        res = shift_invert_smallest(pen, 2, 0.025, seed=1, fallback=fallback)
        assert len(calls) == res.factorizations == tries and res.shift == shift


def test_shift_invert_laplacian_closed_form():
    n = 128
    pen = standard(dirichlet_laplacian(n))
    exact = np.array([4.0 * math.sin(math.pi * j / (2 * (n + 1))) ** 2 for j in (1, 2, 3)])
    res = shift_invert_smallest(pen, 3, -0.01, seed=1)
    assert res.negative_pivots == 0 and res.shift == -0.01
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
    pen = standard(dirichlet_laplacian(128))
    r1 = shift_invert_smallest(pen, 2, -0.01, seed=7)
    r2 = shift_invert_smallest(pen, 2, -0.01, seed=7)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    # the count of inverse applications repeats exactly
    assert r1.iterations == r2.iterations > 0


def test_shift_invert_uncertified_raises(monkeypatch):
    pen = standard(dirichlet_laplacian(128))
    monkeypatch.setattr(eigsolve, "MAX_SHIFTS", 1)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, 0.01)
    monkeypatch.setattr(eigsolve, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(EigensolveError):
        shift_invert_smallest(pen, 2, -0.01)


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
        assert inertia(pen, cut)[0] == below == np.count_nonzero(res.eigenvalues < cut)
