import numpy as np
import pytest

from diracshell.clifford import (
    MAX_N,
    build_clifford,
    gamma,
    theta,
)


def anticommutator(a, b):
    return a @ b + b @ a


@pytest.mark.parametrize("n", range(1, 9))
def test_relations_exact(n):
    fam = build_clifford(n)
    assert fam.N == 2 ** ((n + 1) // 2)
    eye = np.eye(fam.N)
    for j in range(n + 1):
        aj = fam.alphas[j]
        assert np.array_equal(aj, aj.conj().T)
        for k in range(n + 1):
            expect = 2.0 * (j == k) * eye
            assert np.array_equal(anticommutator(aj, fam.alphas[k]), expect)


def test_pauli_base_case(fam2):
    assert np.array_equal(fam2.alphas[0], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(fam2.alphas[1], np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(fam2.alphas[2], np.array([[1, 0], [0, -1]], dtype=complex))


def test_n5_size_and_mass_matrix():
    fam = build_clifford(5)
    assert fam.N == 8
    assert np.array_equal(fam.alphas[5], np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex))


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_clifford(0)
    with pytest.raises(ValueError):
        build_clifford(MAX_N + 1)
    assert build_clifford(MAX_N).N == 2 ** ((MAX_N + 1) // 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_symbol_relations(n, rng):
    fam = build_clifford(n)
    eye = np.eye(fam.N)
    half = np.eye(fam.N // 2)
    for _ in range(100):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        sx, sy = gamma(fam, x), gamma(fam, y)
        dot = 2.0 * (x @ y)
        assert np.abs(anticommutator(sx.gamma, sy.gamma) - dot * eye).max() <= 1e-12
        bb = sx.beta.conj().T @ sy.beta + sy.beta.conj().T @ sx.beta
        assert np.abs(bb - dot * half).max() <= 1e-12


def test_block_structure_and_linearity(fam3, rng):
    half = fam3.N // 2
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    sx = gamma(fam3, x)
    assert np.all(sx.gamma[:half, :half] == 0)
    assert np.all(sx.gamma[half:, half:] == 0)
    # gamma reconstructs exactly from the beta blocks
    rebuilt = np.zeros_like(sx.gamma)
    rebuilt[half:, :half] = sx.beta
    rebuilt[:half, half:] = sx.beta.conj().T
    assert np.array_equal(rebuilt, sx.gamma)
    # x -> beta(x) is linear
    s_sum = gamma(fam3, 2.0 * x - 3.0 * y)
    assert np.abs(s_sum.beta - (2.0 * sx.beta - 3.0 * gamma(fam3, y).beta)).max() <= 1e-12


def test_gamma_basis_vector(fam2):
    assert np.array_equal(gamma(fam2, np.array([1.0, 0.0])).gamma, fam2.alphas[0])


def test_gamma_orthogonal_directions(fam2):
    gx = gamma(fam2, np.array([1.0, 0.0])).gamma
    gy = gamma(fam2, np.array([0.0, 1.0])).gamma
    assert np.abs(anticommutator(gx, gy)).max() == 0.0


def test_boundary_symbol_squares_to_identity(fam2, rng):
    # direct 2x2 multiplication oracle for -i a_3 Gamma(x), |x| = 1
    for _ in range(20):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        bmat = -1j * fam2.alphas[2] @ gamma(fam2, x).gamma
        assert np.abs(bmat @ bmat - np.eye(2)).max() <= 1e-14


def test_gamma_dimension_mismatch(fam2):
    with pytest.raises(ValueError):
        gamma(fam2, np.array([1.0, 0.0, 0.0]))


def test_theta_identity_at_equal_arguments(fam3, rng):
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    assert np.abs(theta(fam3, x, x) - np.eye(fam3.N)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_theta_unitary_and_intertwines(n, rng):
    # direct multiplication oracle: U must be unitary and carry the
    # boundary symbol of direction x onto that of direction y
    fam = build_clifford(n)
    eye = np.eye(fam.N)
    for _ in range(50):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        u = theta(fam, x, y)
        assert np.abs(u.conj().T @ u - eye).max() <= 1e-13
        assert np.abs(u @ u.conj().T - eye).max() <= 1e-13
        ax = fam.alpha_last @ gamma(fam, x).gamma
        ay = fam.alpha_last @ gamma(fam, y).gamma
        assert np.abs(u @ ax @ u.conj().T - ay).max() <= 1e-12


def test_theta_rejects_non_unit(fam2):
    with pytest.raises(ValueError):
        theta(fam2, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="y must have length n=2"):
        theta(fam2, np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_matrices_immutable(fam2):
    with pytest.raises(ValueError):
        fam2.alphas[0][0, 0] = 5.0
