import dataclasses
import math

import numpy as np
import pytest

from diracshell.clifford import gamma
from diracshell.eigsolve import dense_hermitian_eig, inertia
from diracshell.geometry import flat_strip, shell_metric
from diracshell.shell import (
    MAX_COUNT,
    assemble_sandwich,
    assemble_shell,
    default_nt,
    flat_strip_levels,
    ladder_shift,
    lowest_eigenvalues,
)
from diracshell.transverse import solve_k


def test_default_nt_rule():
    assert default_nt(0.1) == 13
    assert default_nt(0.07) == 16
    assert default_nt(0.05) == 18
    assert default_nt(0.035) == 22
    assert default_nt(0.3) == 8


def test_pencil_hermitian_positive(fam2, circle):
    met = shell_metric(circle, 0.1)
    asm = assemble_shell(fam2, met, 0.3, 32, 8)
    a = asm.pencil.a.toarray()
    b = asm.pencil.b.toarray()
    assert np.abs(a - a.conj().T).max() <= 1e-12 * np.abs(a).max()
    assert np.abs(b - b.conj().T).max() <= 1e-12 * np.abs(b).max()
    np.linalg.cholesky(b)  # positive definite
    assert asm.dof_count == 4 * 32 * 8


def test_flat_strip_separation(fam2):
    # separation-of-variables oracle: transverse energies x Fourier momenta
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = shell_metric(flat_strip(length), eps)
    asm = assemble_shell(fam2, met, m, 32, 8)
    res = dense_hermitian_eig(asm.pencil.a.toarray(), asm.pencil.b.toarray(), check=False, count=6)
    ref = flat_strip_levels(length, m, eps, 6)
    assert np.abs(res.eigenvalues - ref).max() / ref[0] <= 5e-4
    # ground level is exactly the first transverse energy over eps^2
    k1 = solve_k(m * eps, 1)
    assert ref[0] == pytest.approx(((m * eps) ** 2 + k1**2) / eps**2, abs=1e-12)


def test_flat_strip_convergence_order(fam2):
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = shell_metric(flat_strip(length), eps)
    ref = flat_strip_levels(length, m, eps, 4)
    errs = []
    for ns, nt in ((32, 8), (64, 16)):
        vals = [v for v, _ in lowest_eigenvalues(assemble_shell(fam2, met, m, ns, nt), 4)]
        errs.append(abs(vals[2] - ref[2]))
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_circle_leading_order(fam2, circle):
    # mu_1 * eps^2 lands near pi^2/16 with the O(1) shift of the curve term
    met = shell_metric(circle, 0.05)
    asm = assemble_shell(fam2, met, 0.0, 48, default_nt(0.05))
    vals = [v for v, _ in lowest_eigenvalues(asm, 2)]
    assert 0.55 <= vals[0] * 0.05**2 <= 0.68
    # near-degenerate pair; the split closes like h_s^2 under s-refinement
    assert vals[1] == pytest.approx(vals[0], rel=1e-4)


def test_lowest_eigenvalues_sorted_and_residuals(fam2, circle):
    met = shell_metric(circle, 0.1)
    asm = assemble_shell(fam2, met, 0.0, 32, 8)
    pairs = lowest_eigenvalues(asm, 5)
    vals = [v for v, _ in pairs]
    assert vals == sorted(vals)
    assert all(r <= 1e-8 for _, r in pairs)
    with pytest.raises(ValueError):
        lowest_eigenvalues(asm, 13)


def test_dense_vs_iterative_paths(fam2, circle):
    met = shell_metric(circle, 0.1)
    asm = assemble_shell(fam2, met, 0.3, 32, 8)
    dense = dense_hermitian_eig(asm.pencil.a.toarray(), asm.pencil.b.toarray(), check=False, count=6)
    production = np.array([v for v, _ in lowest_eigenvalues(asm, 6)])
    assert np.abs(production - dense.eigenvalues).max() <= 1e-8


@pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
def test_negative_pivots_match_dense_count(fam2, curve_name, request):
    # spectrum slicing: the inertia of A - sigma B counts the eigenvalues
    # below sigma, on the shell pencil and both bracketing pencils
    crv = request.getfixturevalue(curve_name)
    met = shell_metric(crv, 0.1)
    asm = assemble_shell(fam2, met, 0.3, 32, 8)
    sand = assemble_sandwich(fam2, met, 0.3, 3.0 * (1.0 + crv.kappa_max), 32, 8)
    for pen in (asm.pencil, sand.pencil_minus, sand.pencil_plus):
        # every sigma lies below lam[4], so the lowest five decide each count
        lam = dense_hermitian_eig(pen.a, pen.b, check=False, count=5).eigenvalues
        for sigma, expected in ((lam[0] - 0.5, 0), (0.5 * (lam[1] + lam[2]), 2), (0.5 * (lam[3] + lam[4]), 4)):
            assert np.count_nonzero(lam < sigma) == expected
            assert inertia(pen.a - sigma * pen.b)[0] == expected


def test_solve_record_certifies_the_shift(fam2, ellipse):
    met = shell_metric(ellipse, 0.1)
    asm = assemble_shell(fam2, met, 0.0, 32, 8)
    pairs = lowest_eigenvalues(asm, 2)
    assert pairs.negative_pivots == 0
    assert pairs.shift == ladder_shift(asm) < pairs[0][0]
    assert inertia(asm.pencil.a - pairs.shift * asm.pencil.b)[0] == 0


def test_which_must_name_a_pencil(fam2, circle):
    met = shell_metric(circle, 0.1)
    asm = assemble_shell(fam2, met, 0.0, 32, 8)
    sand = assemble_sandwich(fam2, met, 0.0, 6.0, 32, 8)
    for bad in ("shell", "lower", "Minus"):
        with pytest.raises(ValueError):
            lowest_eigenvalues(sand, 1, which=bad)
    with pytest.raises(ValueError):
        lowest_eigenvalues(asm, 1, which="plus")
    with pytest.raises(ValueError):
        lowest_eigenvalues(asm, MAX_COUNT + 1)
    with pytest.raises(TypeError):
        lowest_eigenvalues(asm.pencil, 1)


def _counting_curvature(curve):
    """The curve with a curvature that records the array of every call."""
    calls = []
    kappa = curve.curvature

    def curvature(s):
        calls.append(np.array(s, copy=True))
        return kappa(s)

    return dataclasses.replace(curve, curvature=curvature), calls


def test_assembly_evaluates_curvature_once(fam2, ellipse):
    curve, calls = _counting_curvature(ellipse)
    met = shell_metric(curve, 0.1)
    n_s = 32
    xi = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    # the 2*n_s Gauss abscissae (i + xi_q)*h_s and nothing else
    abscissae = np.sort(np.add.outer(np.arange(n_s), xi).ravel()) * (ellipse.length / n_s)
    assemble_shell(fam2, met, 0.5, n_s, 8)
    assert len(calls) == 1
    assemble_sandwich(fam2, met, 0.5, 6.0, n_s, 8)
    assert len(calls) == 2
    for s in calls:
        assert np.allclose(np.sort(s.ravel()), abscissae, rtol=0, atol=1e-13)


def test_curvature_broadcast_matches_quadrature_points():
    # every quadrature point of element (i, j) gets the value at its own
    # s-abscissa, in the (s, t) point order of the basis tables
    from diracshell.shell import _QS_P, _TensorGalerkin

    grid = _TensorGalerkin(5.0, 32, 8)
    sq = (grid.elem_s[:, None] + _QS_P[None, :]) * grid.h_s
    expected = np.repeat(sq, 3, axis=1)
    assert np.array_equal(grid.at_quad(grid.s_abscissae), expected)
    assert grid.at_quad(grid.s_abscissae).shape == grid.quad_t.shape


def test_boundary_condition_exact_by_construction(fam2, ellipse):
    # the DOF map enforces the spinor constraint at every boundary node:
    # reconstruct an eigenvector's boundary values and apply the constraint
    from diracshell.shell import boundary_values

    met = shell_metric(ellipse, 0.1)
    asm = assemble_shell(fam2, met, 0.2, 32, 8)
    res = dense_hermitian_eig(asm.pencil.a.toarray(), asm.pencil.b.toarray(), check=False, count=1)
    vec = res.vectors[:, 0]
    vals = boundary_values(asm, vec)
    s_nodes = np.arange(asm.n_s) * asm.h_s
    nus = ellipse.normal(s_nodes)
    for side in (+1, -1):
        for i in range(asm.n_s):
            bmat = -1j * fam2.alpha_last @ gamma(fam2, nus[i]).gamma
            w = vals[side][i]
            assert np.abs(bmat @ w - side * w).max() <= 1e-12


def _bracket_tol(asm, mu):
    # criterion 12's grid tolerance: it scales with the level left after
    # the m = 0 ladder pi^2/(16 eps^2), not with mu itself
    eps = asm.metric.eps
    return 10.0 * max(asm.h_s, asm.h_t) ** 2 * max(1.0, abs(mu - math.pi**2 / (16.0 * eps**2)))


def test_sandwich_brackets_shell_ellipse(fam2, ellipse):
    # the bracketing holds on the ellipse as well; two levels at eps = 0.1
    eps, m = 0.1, 0.0
    c = 3.0 * (1.0 + ellipse.kappa_max)
    met = shell_metric(ellipse, eps)
    asm = assemble_shell(fam2, met, m, 64, 13)
    sand = assemble_sandwich(fam2, met, m, c, 64, 13)
    mus = [v for v, _ in lowest_eigenvalues(asm, 2)]
    lo = [v for v, _ in lowest_eigenvalues(sand, 2, which="minus")]
    hi = [v for v, _ in lowest_eigenvalues(sand, 2, which="plus")]
    tol = [_bracket_tol(asm, v) for v in mus]
    for j in range(2):
        assert lo[j] - tol[j] <= mus[j] <= hi[j] + tol[j]


def test_sandwich_brackets_shell(fam2, circle):
    eps, m = 0.1, 0.0
    c = 3.0 * (1.0 + circle.kappa_max)
    met = shell_metric(circle, eps)
    asm = assemble_shell(fam2, met, m, 48, 13)
    sand = assemble_sandwich(fam2, met, m, c, 48, 13)
    mu = lowest_eigenvalues(asm, 1)[0][0]
    mu_minus = lowest_eigenvalues(sand, 1, which="minus")[0][0]
    mu_plus = lowest_eigenvalues(sand, 1, which="plus")[0][0]
    tol = _bracket_tol(asm, mu)
    assert mu_minus - tol <= mu <= mu_plus + tol


def test_sandwich_difference_positive(fam2, circle):
    met = shell_metric(circle, 0.1)
    sand = assemble_sandwich(fam2, met, 0.3, 6.0, 32, 8)
    diff = (sand.pencil_plus.a - sand.pencil_minus.a).toarray()
    vals = np.linalg.eigvalsh(diff)
    assert vals[0] >= -1e-10


def test_sandwich_degenerate_at_zero_slack(fam2, circle):
    met = shell_metric(circle, 0.1)
    sand = assemble_sandwich(fam2, met, 0.3, 0.0, 32, 8)
    assert np.abs((sand.pencil_plus.a - sand.pencil_minus.a)).max() == 0.0


def test_form_ordering_all_vectors(fam2, circle, rng):
    # c_minus[w] <= c_plus[w] for arbitrary admissible discrete vectors
    met = shell_metric(circle, 0.1)
    sand = assemble_sandwich(fam2, met, 0.2, 4.0, 32, 8)
    for _ in range(20):
        w = rng.standard_normal(sand.dof_count) + 1j * rng.standard_normal(sand.dof_count)
        lo = np.real(w.conj() @ (sand.pencil_minus.a @ w))
        hi = np.real(w.conj() @ (sand.pencil_plus.a @ w))
        assert lo <= hi + 1e-10 * abs(hi)


def test_grid_and_guard_validation(fam2, circle, ellipse):
    met = shell_metric(circle, 0.1)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, 0.0, 16, 8)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, 0.0, 32, 4)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, -0.1, 32, 8)
    with pytest.raises(ValueError):
        shell_metric(ellipse, 0.5)
    with pytest.raises(ValueError):
        assemble_sandwich(fam2, met, 0.0, -1.0, 32, 8)
