import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from diracshell import eigsolve, shell, transverse
from diracshell.clifford import gamma
from diracshell.eigsolve import dense_hermitian_eig, inertia
from diracshell.geometry import flat_strip, shell_metric
from diracshell.shell import (
    MAX_COUNT,
    MAX_DOF,
    assemble_sandwich,
    assemble_shell,
    checked_grid,
    default_nt,
    flat_strip_levels,
    ladder_shift,
    _line_element,
    lowest_eigenvalues,
    _scatter,
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
    res = dense_hermitian_eig(asm.pencil.a, asm.pencil.b, check=False, count=6)
    ref = flat_strip_levels(length, m, eps, 6)
    assert np.abs(res.eigenvalues - ref).max() / ref[0] <= 5e-4
    # ground level is exactly the first transverse energy over eps^2
    k1 = solve_k(m * eps, 1)
    assert ref[0] == pytest.approx(((m * eps) ** 2 + k1**2) / eps**2, abs=1e-12)


@pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
def test_ladder_shift_reads_the_transverse_level(fam2, curve_name, request, monkeypatch):
    # the shift is the ground level (k^2 + (m eps)^2)/eps^2 as the shell has
    # always evaluated it, so every shift, and every eigenvalue solved at it,
    # is the same float
    crv = request.getfixturevalue(curve_name)
    calls = []
    solve = transverse.solve_k
    monkeypatch.setattr(transverse, "solve_k", lambda m, p: calls.append((m, p)) or solve(m, p))
    for m in (0.0, 0.5, 1.0):
        for eps in (0.1, 0.035):
            met = shell_metric(crv, eps)
            me = m * eps
            k1 = solve_k(me, 1)
            ground = (k1 * k1 + me * me) / eps**2 - crv.kappa_max**2 / 4.0 - 1.0
            asm = assemble_shell(fam2, met, m, 32, 8)
            sandwiches = {c: assemble_sandwich(fam2, met, m, c, 32, 8) for c in (-2.0, 2.0)}
            # each assembly's ground level is transverse.level, its root solved at the first read only
            level = transverse.level(m, eps)
            for each in (asm, *sandwiches.values()):
                calls.clear()
                assert each.ground == level and len(calls) == 1
                assert each.ground == level and len(calls) == 1
            assert ladder_shift(asm) == ground
            # either bracketing form lies 2|c| eps further down
            for c in (-2.0, 2.0):
                assert ladder_shift(sandwiches[c]) == ground - 2.0 * abs(c) * eps
            # the shifts read the cached levels: no root after the last first read
            assert len(calls) == 1


def test_flat_strip_levels_within_an_ulp_of_the_separated_formula():
    # (m eps)^2 + k^2 against k*k + (m eps)^2: the rounding may differ in the last bit
    rng = np.random.default_rng(0)
    length = 2.0 * math.pi
    for m, eps in zip(rng.uniform(0.0, 2.0, 200), rng.uniform(0.01, 0.5, 200)):
        expected = []
        for p in range(1, 6):
            kp = solve_k(m * eps, p)
            ep2 = (m * eps) ** 2 + kp**2
            for q in range(-8, 9):
                expected.extend([(2.0 * math.pi * q / length) ** 2 + ep2 / eps**2] * 2)
        expected = np.sort(np.array(expected))[:8]
        assert np.all(np.abs(flat_strip_levels(length, m, eps, 8) - expected) <= np.spacing(expected))


@pytest.mark.parametrize("length", [0.01, 2.0 * math.pi])
def test_flat_strip_levels_match_a_sum_over_every_band(length):
    # on a short strip the tangential levels (2 pi q / L)^2 lie above many
    # transverse bands; the brute force takes every band p <= count
    for m in (0.0, 0.3):
        for count in range(1, 17):
            expected = sorted(
                (2.0 * math.pi * q / length) ** 2 + transverse.level(m, 0.2, p)
                for p in range(1, count + 1)
                for q in range(-count, count + 1)
                for _ in range(2)
            )[:count]
            assert flat_strip_levels(length, m, 0.2, count).tolist() == expected


def test_flat_strip_convergence_order(fam2):
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = shell_metric(flat_strip(length), eps)
    ref = flat_strip_levels(length, m, eps, 4)
    errs = []
    for ns, nt in ((32, 8), (64, 16)):
        vals = [v for v, _ in lowest_eigenvalues(assemble_shell(fam2, met, m, ns, nt), 4)]
        errs.append(abs(vals[2] - ref[2]))
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_constant_connection_shifts_the_flat_strip_momenta(fam2):
    # both components on d_s + i*beta: the separated levels (2 pi q/L + beta)^2
    # + E_p(m eps)^2/eps^2, two per (q, p), approached at second order in h
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = shell_metric(flat_strip(length), eps)
    for beta in (0.3, 0.5, 1.0):
        ref = np.sort([(2.0 * math.pi * q / length + beta) ** 2 + transverse.level(m, eps, p)
                       for p in (1, 2) for q in range(-4, 5) for _ in range(2)])[:4]
        errs = []
        for n_s, n_t in ((32, 8), (64, 16), (128, 32)):
            grid = shell._TensorGalerkin(length, n_s, n_t)
            # the exact form on the flat strip: stretch 1, boundary coefficient m on either side
            pencil = shell._covariant_pencil(grid, (beta, beta), eps, 1.0 / eps, m * m * eps, (m, m), eps)
            asm = shell.ShellFormAssembly(metric=met, m=m, c=0.0, n_s=n_s, n_t=n_t, pencil=pencil)
            errs.append(np.abs(lowest_eigenvalues(asm, 4).eigenvalues - ref).max())
        assert min(math.log2(errs[i] / errs[i + 1]) for i in range(2)) >= 1.9, (beta, errs)


def test_circle_leading_order(fam2, circle):
    # mu_1 * eps^2 lands near pi^2/16 with the O(1) shift of the curve term
    met = shell_metric(circle, 0.05)
    asm = assemble_shell(fam2, met, 0.0, 48, default_nt(0.05))
    vals = [v for v, _ in lowest_eigenvalues(asm, 2)]
    assert 0.55 <= vals[0] * 0.05**2 <= 0.68
    # near-degenerate pair; the split closes like h_s^2 under s-refinement
    assert vals[1] == pytest.approx(vals[0], rel=1e-4)


def test_shift_invert_frees_each_factor_without_the_cyclic_collector(fam2, circle, monkeypatch):
    # with the cyclic collector off, reference counting alone frees every factor
    # inertia returns: a rejected one before the next shift is factored, the
    # certified one before the residuals are formed; nothing calls gc.collect
    events = []

    class Factor:
        def __init__(self, lu):
            self.lu = lu
            weakref.finalize(self, events.append, "freed")

        def solve(self, x):
            return self.lu.solve(x)

    real_inertia, real_residuals = eigsolve.inertia, eigsolve._residuals

    def inertia(pencil, sigma):
        below, lu = real_inertia(pencil, sigma)
        events.append("factored")
        return below, Factor(lu)

    def residuals(*args):
        events.append("residuals")
        return real_residuals(*args)

    monkeypatch.setattr(eigsolve, "inertia", inertia)
    monkeypatch.setattr(eigsolve, "_residuals", residuals)
    monkeypatch.setattr(gc, "collect", lambda *args: events.append("collect") or 0)
    asm = assemble_shell(fam2, shell_metric(circle, 0.1), 0.5, 32, 8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = lowest_eigenvalues(asm, 4)
    finally:
        if enabled:
            gc.enable()
    assert events == ["factored", "freed"] * res.factorizations + ["residuals"]


@pytest.mark.parametrize("m", [-1.0, math.nan], ids=["negative", "nan"])
def test_every_assembly_refuses_a_negative_or_nan_mass(fam2, circle, m):
    # both assemblers build their grid through the one mass rule, before any work
    met = shell_metric(circle, 0.1)
    with pytest.raises(ValueError, match="mass must be nonnegative"):
        assemble_shell(fam2, met, m, 32, 8)
    for c in (-1.0, 1.0):
        with pytest.raises(ValueError, match="mass must be nonnegative"):
            assemble_sandwich(fam2, met, m, c, 32, 8)


@pytest.mark.parametrize("c", [-6.0, -1.0 / 0.45, math.nan], ids=["below", "zero", "nan"])
def test_sandwich_refuses_a_slack_that_leaves_the_lower_form_unbounded(fam2, circle, monkeypatch, c):
    # 1 + c*eps <= 0 makes the tangential coefficient nonpositive; the refusal
    # comes at assembly, before the shift ladder factors anything
    def no_factor(*args):
        raise AssertionError("a shift was factored")

    monkeypatch.setattr(eigsolve, "inertia", no_factor)
    met = shell_metric(circle, 0.45)
    with pytest.raises(ValueError, match=r"1 \+ c\*eps <= 0"):
        assemble_sandwich(fam2, met, 0.0, c, 32, 8)


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
    dense = dense_hermitian_eig(asm.pencil.a, asm.pencil.b, check=False, count=6)
    production = np.array([v for v, _ in lowest_eigenvalues(asm, 6)])
    assert np.abs(production - dense.eigenvalues).max() <= 1e-8


def _sides(fam, met, m, c, n_s, n_t):
    """The lower and upper bracketing assemblies, at slack -c and +c."""
    return tuple(assemble_sandwich(fam, met, m, slack, n_s, n_t) for slack in (-c, c))


@pytest.mark.parametrize("curve_name", ["circle", "ellipse"])
def test_negative_pivots_match_dense_count(fam2, curve_name, request):
    # spectrum slicing: the inertia of A - sigma B counts the eigenvalues
    # below sigma, on the shell pencil and both bracketing pencils
    crv = request.getfixturevalue(curve_name)
    met = shell_metric(crv, 0.1)
    asms = (assemble_shell(fam2, met, 0.3, 32, 8), *_sides(fam2, met, 0.3, 3.0 * (1.0 + crv.kappa_max), 32, 8))
    for pen in (asm.pencil for asm in asms):
        # every sigma lies below lam[4], so the lowest five decide each count
        lam = dense_hermitian_eig(pen.a, pen.b, check=False, count=5).eigenvalues
        for sigma, expected in ((lam[0] - 0.5, 0), (0.5 * (lam[1] + lam[2]), 2), (0.5 * (lam[3] + lam[4]), 4)):
            assert np.count_nonzero(lam < sigma) == expected
            assert inertia(pen, sigma)[0] == expected


def test_solve_record_certifies_the_shift(fam2, ellipse):
    met = shell_metric(ellipse, 0.1)
    asm = assemble_shell(fam2, met, 0.0, 32, 8)
    res = lowest_eigenvalues(asm, 2)
    assert res.negative_pivots == 0
    assert res.shift == ladder_shift(asm) < res.eigenvalues[0]
    assert inertia(asm.pencil, res.shift)[0] == 0


def test_predicted_level_too_high_falls_back_to_the_ladder_shift(fam2, ellipse):
    # a level far above the lowest eigenvalue leaves negative pivots at the
    # predicted shift; the first retry is the ladder shift, which certifies
    # the same pairs as a call without a level
    met = shell_metric(ellipse, 0.1)
    asm = assemble_shell(fam2, met, 0.0, 32, 8)
    default = lowest_eigenvalues(asm, 2)
    res = lowest_eigenvalues(asm, 2, level=5.0)
    assert default.factorizations == 1
    assert res.shift == ladder_shift(asm) and res.factorizations == 2
    assert res.negative_pivots == 0 and all(r <= 1e-8 for _, r in res)
    assert np.abs(np.array(list(res)) - np.array(list(default))).max() <= 1e-10


def test_lowest_eigenvalues_hands_the_solver_the_ladder_after_the_prediction(fam2, ellipse, monkeypatch):
    # the ladder is MAX_SHIFTS = 8 shifts down from ladder_shift, the first step
    # 1e-2 max(1, |sigma|) and each step twice the last; a predicted shift above
    # it is tried first, and one below it is not tried at all
    handed = []
    monkeypatch.setattr(shell, "shift_invert_smallest",
                        lambda pencil, count, shifts, seed=0: handed.append(list(shifts)))
    asm = assemble_shell(fam2, shell_metric(ellipse, 0.1), 0.5, 32, 8)
    sigma = top = ladder_shift(asm)
    step = 1e-2 * max(1.0, abs(sigma))
    ladder = []
    for _ in range(8):
        ladder.append(sigma)
        sigma -= step
        step *= 2.0
    predicted = transverse.level(0.5, 0.1) + 1.0 - shell.LEVEL_MARGIN
    assert predicted > top > transverse.level(0.5, 0.1) - 5.0 - shell.LEVEL_MARGIN
    for level in (None, 1.0, -5.0):
        lowest_eigenvalues(asm, 2, level=level)
    assert handed == [ladder, [predicted, *ladder], ladder]


def test_count_is_capped_at_max_count(fam2, circle):
    met = shell_metric(circle, 0.1)
    for asm in (assemble_shell(fam2, met, 0.0, 32, 8), assemble_sandwich(fam2, met, 0.0, -6.0, 32, 8)):
        with pytest.raises(ValueError):
            lowest_eigenvalues(asm, MAX_COUNT + 1)


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
    from diracshell.shell import _GAUSS, _TensorGalerkin

    _QS_P = _GAUSS[1][0]
    grid = _TensorGalerkin(5.0, 32, 8)
    elem_s = np.repeat(np.arange(grid.n_s), grid.n_t)
    sq = (elem_s[:, None] + _QS_P[None, :]) * grid.h_s
    expected = np.repeat(sq, 3, axis=1)
    assert np.array_equal(grid.at_quad(grid.s_abscissae), expected)
    assert grid.at_quad(grid.s_abscissae).shape == grid.quad_t.shape


def test_shell_assembly_integrates_the_metric_stretch(fam2, ellipse, monkeypatch):
    # the shell pencil reads 1 + eps*t*kappa from ShellMetric2D.stretch, the
    # weight the metric-identity check certifies, and states none of its own
    from diracshell.geometry import ShellMetric2D
    from diracshell.shell import _TensorGalerkin

    eps, n_s, n_t = 0.1, 32, 8
    met = shell_metric(ellipse, eps)
    stretch, seen = ShellMetric2D.stretch, []

    def recording(self, t, kappa):
        seen.append(t)
        return stretch(self, t, kappa)

    monkeypatch.setattr(ShellMetric2D, "stretch", recording)
    assemble_shell(fam2, met, 0.5, n_s, n_t)
    quad_t = _TensorGalerkin(ellipse.length, n_s, n_t).quad_t
    assert len(seen) == 3 and np.array_equal(seen[0], quad_t) and seen[1:] == [1, -1]
    # a unit stretch leaves eps times the flat mass matrix of the bracketing forms
    monkeypatch.setattr(ShellMetric2D, "stretch", lambda self, t, kappa: np.ones(np.broadcast(t, kappa).shape))
    b = assemble_shell(fam2, met, 0.5, n_s, n_t).pencil.b
    flat = assemble_sandwich(fam2, met, 0.5, 1.0, n_s, n_t).pencil.b
    assert abs(b - eps * flat).max() <= 1e-15 * abs(flat).max()


# reference: the closed forms of the P1 and P2 elements on [0, 1] at their Gauss points
def _p1_closed_form(h):
    x = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
    return x, np.vstack([1.0 - x, x]), np.vstack([-np.ones(2), np.ones(2)]) / h


def _p2_closed_form(h):
    x = np.array([0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)])
    val = np.vstack([(1.0 - x) * (1.0 - 2.0 * x), 4.0 * x * (1.0 - x), x * (2.0 * x - 1.0)])
    der = np.vstack([4.0 * x - 3.0, 4.0 - 8.0 * x, 4.0 * x - 1.0]) / h
    return x, val, der


@pytest.mark.parametrize("h", [2.0 / 13, 0.25, 2.0 / 29, 5.0 / 48])
def test_line_element_matches_closed_forms(h):
    # the product rule reproduces the closed forms bit for bit
    for p, closed_form in ((1, _p1_closed_form), (2, _p2_closed_form)):
        x, w, val, der, _ = _line_element(p, 8, h)
        for got, ref in zip((x, val, der), closed_form(h)):
            assert np.array_equal(got, ref)
        assert w.sum() == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("p, periodic, length", [(1, True, 5.0), (2, False, 2.0)])
def test_line_element_mass_and_stiffness(p, periodic, length):
    # the mass matrix sums to the length, the stiffness matrix sends constants to 0
    n = 16
    h = length / n
    _, w, val, der, conn = _line_element(p, n, h, periodic)
    n_nodes = p * n + (0 if periodic else 1)
    assert conn.min() == 0 and conn.max() == n_nodes - 1
    mass, stiff = (
        _scatter(np.broadcast_to(np.einsum("q,aq,bq->ab", w * h, t, t), (n, p + 1, p + 1)), conn, n_nodes)
        for t in (val, der)
    )
    assert mass.sum() == pytest.approx(length, rel=1e-14)
    assert np.abs(stiff @ np.ones(n_nodes)).max() <= 1e-12 * np.abs(stiff.data).max()


def test_tensor_grid_mass_and_stiffness():
    # through the node map: reduced coefficients whose component-0 node values
    # are all 1, on matrices that give component 1 no form
    from diracshell.shell import _TensorGalerkin

    grid = _TensorGalerkin(5.0, 32, 8)
    ones = np.zeros(grid.n_s * grid.block, dtype=complex)
    ones[grid.column[0]] = 1.0 / grid.weight[0]

    def component_0(local):
        return grid.matrix(np.stack([local, np.zeros_like(local)]))

    volume = grid.local(grid.mass_pairs, 1.0)
    assert (ones.conj() @ component_0(volume) @ ones).real == pytest.approx(2.0 * 5.0, rel=1e-14)
    line = np.zeros_like(volume)
    grid.add_boundary(line, (1.0, 0.0))
    assert (ones.conj() @ component_0(line) @ ones).real == pytest.approx(5.0, rel=1e-14)
    stiff = component_0(grid.local(grid.form_pairs, 1.0, 1.0, 0.0))
    assert np.abs(stiff @ ones).max() <= 1e-12 * np.abs(stiff.data).max()


@pytest.mark.parametrize("n_s, n_t", [(32, 8), (48, 13)])
def test_tensor_grid_matches_per_node_loop(n_s, n_t):
    # reference: the product tables built per local node (a_s, a_t)
    from diracshell.shell import _TensorGalerkin

    grid = _TensorGalerkin(5.0, n_s, n_t)
    _, w_s, val_s, der_s, _ = _line_element(1, n_s, grid.h_s, periodic=True)
    x_t, w_t, val_t, der_t, _ = _line_element(2, n_t, grid.h_t)
    elem_t = np.tile(np.arange(n_t), n_s)
    for a, (a_s, a_t) in enumerate((a_s, a_t) for a_s in range(2) for a_t in range(3)):
        assert np.array_equal(grid.val[a], np.outer(val_s[a_s], val_t[a_t]).ravel())
        assert np.array_equal(grid.ds[a], np.outer(der_s[a_s], val_t[a_t]).ravel())
        assert np.array_equal(grid.dt[a], np.outer(val_s[a_s], der_t[a_t]).ravel())
    assert np.array_equal(grid.wq, np.outer(w_s, w_t).ravel() * grid.h_s * grid.h_t)
    t_q = -1.0 + (elem_t[:, None] + x_t[None, :]) * grid.h_t
    assert np.array_equal(grid.quad_t, np.hstack([t_q, t_q]))


def _constraint_basis_by_nodes(grid):
    # reference: the constraint map built node by node, column block by column block
    from diracshell.shell import _GAUGED_SPINORS

    n_s, n_tn, dim = grid.n_s, grid.n_tn, grid.dim
    interior = n_tn - 2
    block = 2 * interior + 2
    rows, cols, vals = [], [], []
    for i in range(n_s):
        red = i * block
        for comp in range(2):
            rows.append(comp * dim + i * n_tn + 0)
            cols.append(red)
            vals.append(_GAUGED_SPINORS[-1][comp])
        for comp in range(2):
            base = comp * dim + i * n_tn
            for jt in range(1, n_tn - 1):
                rows.append(base + jt)
                cols.append(red + 1 + comp * interior + (jt - 1))
                vals.append(1.0 + 0.0j)
        for comp in range(2):
            rows.append(comp * dim + i * n_tn + (n_tn - 1))
            cols.append(red + block - 1)
            vals.append(_GAUGED_SPINORS[+1][comp])
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * dim, n_s * block)).tocsr()


@pytest.mark.parametrize("n_s, n_t", [(32, 8), (48, 13), (64, 29)])
def test_constraint_basis_matches_node_loop(n_s, n_t):
    # full node row comp*dim + node holds one entry: its column and weight in the node map
    from diracshell.shell import _TensorGalerkin

    grid = _TensorGalerkin(5.0, n_s, n_t)
    ref = _constraint_basis_by_nodes(grid)
    assert ref.shape == (grid.column.size, n_s * grid.block)
    assert np.array_equal(ref.indptr, np.arange(grid.column.size + 1))
    assert np.array_equal(ref.indices, grid.column.ravel())
    assert np.array_equal(ref.data, grid.weight.ravel())


def _volume_by_scatter(grid, c_tan, c_trans, c_mass, c_cross=None):
    # reference: each term's per-cell einsum, scattered into the full node space through the
    # cell-to-node map, local node (a_s, a_t) of cell (i, j) at ((i + a_s) % n_s)*n_tn + 2j + a_t
    i, j = np.divmod(np.arange(grid.n_s * grid.n_t), grid.n_t)
    conn = np.stack([((i + a_s) % grid.n_s) * grid.n_tn + 2 * j + a_t for a_s in range(2) for a_t in range(3)], axis=1)
    shape, k = grid.quad_t.shape, conn.shape[1]
    local = np.zeros((shape[0], k, k), dtype=complex)
    for coef, table in ((c_tan, grid.ds), (c_trans, grid.dt), (c_mass, grid.val)):
        if coef is not None:
            local += np.einsum("eq,aq,bq->eab", np.broadcast_to(coef, shape) * grid.wq, table, table)
    if c_cross is not None:
        e_mat = np.einsum("eq,aq,bq->eab", np.broadcast_to(c_cross, shape) * grid.wq, grid.ds, grid.val)
        local += 1.0j * (e_mat - e_mat.swapaxes(1, 2))
    return _scatter(local, conn, grid.dim)


def _boundary_by_scatter(grid, side, coef):
    # reference: the s-line mass on the t = side nodes
    cvals = np.broadcast_to(coef, grid.s_abscissae.shape) * (grid.ws[None, :] * grid.h_s)
    local = np.einsum("eq,aq,bq->eab", cvals, grid.val_s, grid.val_s)
    return _scatter(local, grid.conn_s * grid.n_tn + (0 if side < 0 else grid.n_tn - 1), grid.dim)


def _reduce_by_product(grid, a_comp0, a_comp1):
    # reference: Z^H diag(A0, A1) Z with the node-loop constraint map
    z = _constraint_basis_by_nodes(grid)
    out = (z.conj().T @ sp.block_diag([a_comp0, a_comp1], format="csr") @ z).tocsr()
    out.eliminate_zeros()
    return out


def _gauged_by_scatter(grid, connection, tan, trans, mass, boundary):
    # component c's form: tan|(d_s + i A_c)u|^2 + trans|d_t u|^2 + mass|u|^2 plus the boundary lines
    bnd = _boundary_by_scatter(grid, +1, boundary[0]) + _boundary_by_scatter(grid, -1, boundary[1])
    a = _volume_by_scatter(grid, tan, trans, mass) + bnd
    return _reduce_by_product(
        grid, *[a + _volume_by_scatter(grid, None, None, tan * conn**2, c_cross=tan * conn) for conn in connection]
    )


def _pencils_by_scatter(curve, m, eps, c, n_s, n_t):
    # reference: the shell (A, B) and both bracketing (A, B), assembled per component and reduced
    from diracshell.shell import _TensorGalerkin

    grid = _TensorGalerkin(curve.length, n_s, n_t)
    kap_s = curve.curvature(grid.s_abscissae)
    kap = grid.at_quad(kap_s)
    w = 1.0 + eps * grid.quad_t * kap
    connection = (0.0, kap)  # the gauged frame diag(1, nu(s))
    boundary = [m * (1.0 + side * eps * kap_s) + side * kap_s / 2.0 for side in (+1, -1)]
    out = {
        "shell a": _gauged_by_scatter(grid, connection, eps / w, w / eps, m * m * eps * w, boundary),
        "shell b": _reduce_by_product(grid, *[_volume_by_scatter(grid, None, None, eps * w)] * 2),
    }
    flat_b = _reduce_by_product(grid, *[_volume_by_scatter(grid, None, None, 1.0)] * 2)
    for sign, name in ((-1, "minus"), (+1, "plus")):
        bcoef = (m * eps + sign * c * eps**3) / eps**2
        out[f"{name} a"] = _gauged_by_scatter(
            grid, connection, 1.0 + sign * c * eps, 1.0 / eps**2, m * m + sign * c * eps - kap**2 / 4.0, (bcoef, bcoef)
        )
        out[f"{name} b"] = flat_b
    return out


@pytest.mark.parametrize(
    "curve_name, m, eps, n_s, n_t",
    [("circle", 0.5, 0.035, 48, 22), ("ellipse", 0.0, 0.1, 64, 13), ("wobble", 0.3, 0.05, 64, None),
     ("strip", 0.3, 0.2, 48, 12)],
)
def test_reduced_assembly_matches_scatter_and_product(fam2, request, curve_name, m, eps, n_s, n_t):
    # the one-pass assembly into the shared pattern against the per-component
    # scatter and Z^H diag(A0, A1) Z: the same CSR pattern, values to rounding
    curve = flat_strip(2.0 * math.pi) if curve_name == "strip" else request.getfixturevalue(curve_name)
    met = shell_metric(curve, eps)
    c = 3.0 * (1.0 + curve.kappa_max)
    asm = assemble_shell(fam2, met, m, n_s, n_t)
    lower, upper = _sides(fam2, met, m, c, n_s, n_t)
    got = {"shell a": asm.pencil.a, "shell b": asm.pencil.b, "minus a": lower.pencil.a, "minus b": lower.pencil.b,
           "plus a": upper.pencil.a, "plus b": upper.pencil.b}
    ref = _pencils_by_scatter(curve, m, eps, c, n_s, asm.n_t)
    for name, matrix in got.items():
        assert matrix.shape == ref[name].shape, name
        assert np.array_equal(matrix.indptr, ref[name].indptr), name
        assert np.array_equal(matrix.indices, ref[name].indices), name
        assert np.abs(matrix.data - ref[name].data).max() <= 1e-15 * np.abs(ref[name].data).max(), name


def test_boundary_condition_exact_by_construction(fam2, ellipse):
    # the DOF map enforces the spinor constraint at every boundary node:
    # read an eigenvector's node values through the grid's map (each node's
    # reduced column times its weight), undo the diag(1, nu(s)) frame and
    # apply the constraint -i a_3 Gamma(nu(s_i)) w(s_i, +-1) = +- w(s_i, +-1)
    from diracshell.shell import _TensorGalerkin

    met = shell_metric(ellipse, 0.1)
    asm = assemble_shell(fam2, met, 0.2, 32, 8)
    res = dense_hermitian_eig(asm.pencil.a, asm.pencil.b, check=False, count=1)
    grid = _TensorGalerkin(ellipse.length, asm.n_s, asm.n_t)
    nodes = (res.vectors[:, 0][grid.column] * grid.weight).reshape(2, grid.n_s, grid.n_tn)
    nus = ellipse.normal(np.arange(asm.n_s) * asm.h_s)
    frame = np.stack([np.ones(asm.n_s), nus[:, 0] + 1j * nus[:, 1]], axis=1)
    for side, jt in ((-1, 0), (+1, grid.n_tn - 1)):
        vals = nodes[:, :, jt].T * frame
        for i in range(asm.n_s):
            bmat = -1j * fam2.alpha_last @ gamma(fam2, nus[i]).gamma
            assert np.abs(bmat @ vals[i] - side * vals[i]).max() <= 1e-12


def _bracket_tol(asm, mu):
    # criterion 12's grid tolerance: it scales with the level left after
    # the transverse ground level, not with mu itself
    return 10.0 * max(asm.h_s, asm.h_t) ** 2 * max(1.0, abs(mu - transverse.level(0.0, asm.metric.eps)))


def test_sandwich_brackets_shell_ellipse(fam2, ellipse):
    # the bracketing holds on the ellipse as well; two levels at eps = 0.1
    eps, m = 0.1, 0.0
    c = 3.0 * (1.0 + ellipse.kappa_max)
    met = shell_metric(ellipse, eps)
    asm = assemble_shell(fam2, met, m, 64, 13)
    lower, upper = _sides(fam2, met, m, c, 64, 13)
    mus = [v for v, _ in lowest_eigenvalues(asm, 2)]
    lo = [v for v, _ in lowest_eigenvalues(lower, 2)]
    hi = [v for v, _ in lowest_eigenvalues(upper, 2)]
    tol = [_bracket_tol(asm, v) for v in mus]
    for j in range(2):
        assert lo[j] - tol[j] <= mus[j] <= hi[j] + tol[j]


def test_sandwich_brackets_shell(fam2, circle):
    eps, m = 0.1, 0.0
    c = 3.0 * (1.0 + circle.kappa_max)
    met = shell_metric(circle, eps)
    asm = assemble_shell(fam2, met, m, 48, 13)
    lower, upper = _sides(fam2, met, m, c, 48, 13)
    mu = lowest_eigenvalues(asm, 1).eigenvalues[0]
    mu_minus = lowest_eigenvalues(lower, 1).eigenvalues[0]
    mu_plus = lowest_eigenvalues(upper, 1).eigenvalues[0]
    tol = _bracket_tol(asm, mu)
    assert mu_minus - tol <= mu <= mu_plus + tol


def test_sandwich_difference_positive(fam2, circle):
    met = shell_metric(circle, 0.1)
    lower, upper = _sides(fam2, met, 0.3, 6.0, 32, 8)
    diff = (upper.pencil.a - lower.pencil.a).toarray()
    vals = np.linalg.eigvalsh(diff)
    assert vals[0] >= -1e-10


def test_sandwich_degenerate_at_zero_slack(fam2, circle):
    met = shell_metric(circle, 0.1)
    lower, upper = _sides(fam2, met, 0.3, 0.0, 32, 8)
    assert np.abs((upper.pencil.a - lower.pencil.a)).max() == 0.0


def test_form_ordering_all_vectors(fam2, circle, rng):
    # c_minus[w] <= c_plus[w] for arbitrary admissible discrete vectors
    met = shell_metric(circle, 0.1)
    lower, upper = _sides(fam2, met, 0.2, 4.0, 32, 8)
    for _ in range(20):
        w = rng.standard_normal(upper.dof_count) + 1j * rng.standard_normal(upper.dof_count)
        lo = np.real(w.conj() @ (lower.pencil.a @ w))
        hi = np.real(w.conj() @ (upper.pencil.a @ w))
        assert lo <= hi + 1e-10 * abs(hi)


def test_checked_grid_counts_the_assembled_dofs(fam2, circle):
    # 4 n_s n_t is the dim of every assembled pencil, and MAX_DOF caps it
    met = shell_metric(circle, 0.1)
    for n_s, n_t in ((32, 8), (40, 9), (48, 13)):
        assert checked_grid(0.1, n_s, n_t) == (n_s, n_t)
        assert assemble_shell(fam2, met, 0.0, n_s, n_t).dof_count == 4 * n_s * n_t
        assert assemble_sandwich(fam2, met, 0.0, 1.0, n_s, n_t).dof_count == 4 * n_s * n_t
    assert checked_grid(0.1, 32) == (32, default_nt(0.1))
    # the largest grid in use, and the finest n_t at its n_s
    assert checked_grid(0.02, 512, 29) == (512, 29)
    n_t = MAX_DOF // (4 * 512)
    assert checked_grid(0.02, 512, n_t) == (512, n_t)
    with pytest.raises(ValueError, match="too fine"):
        checked_grid(0.02, 512, n_t + 1)
    with pytest.raises(ValueError, match="too fine"):
        assemble_shell(fam2, met, 0.0, MAX_DOF, 8)


def test_grid_and_guard_validation(fam2, fam3, circle, ellipse):
    met = shell_metric(circle, 0.1)
    with pytest.raises(ValueError, match="implemented for n = 2"):
        assemble_shell(fam3, met, 0.0, 32, 8)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, 0.0, 16, 8)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, 0.0, 32, 4)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, -0.1, 32, 8)
    with pytest.raises(ValueError):
        assemble_shell(fam2, met, math.nan, 32, 8)
    with pytest.raises(ValueError):
        shell_metric(ellipse, 0.5)
