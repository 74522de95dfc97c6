"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The heavy shell sweeps (criteria 11 and 13) share a module-scoped fixture;
everything else runs at the grids and tolerances stated with the criterion.
"""

import math
import time

import numpy as np
import pytest

from diracshell.checks import discretized_transverse_energies
from diracshell.clifford import build_clifford, theta
from diracshell.effective import (
    assemble_effective,
    assemble_magnetic,
    effective_eigenvalues,
    gauge_transform_check,
    magnetic_circle_spectrum,
)
from diracshell.eigsolve import dense_hermitian_eig, lobpcg_smallest
from diracshell.geometry import flat_strip, shell_metric
from diracshell.shell import (
    assemble_sandwich,
    assemble_shell,
    default_nt,
    flat_strip_levels,
    lowest_eigenvalues,
)
from diracshell.transverse import (
    k1_series,
    mode,
    mode_perturbation_check,
    quadratic_form_identity_check,
    solve_k,
)

def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep_data(circle, fam2):
    """Shell spectra for criteria 11 and 13: circle, both masses, pinned grids."""
    eps_list = (0.1, 0.07, 0.05, 0.035)
    data = {}
    for m in (0.0, 0.5):
        per_eps = {}
        for eps in eps_list:
            met = shell_metric(circle, eps)
            asm = assemble_shell(fam2, met, m, 192, default_nt(eps))
            per_eps[eps] = [v for v, _ in lowest_eigenvalues(asm, 2)]
        data[m] = per_eps
    mu_eff = effective_eigenvalues(assemble_effective(fam2, circle, 1024), 2)
    return eps_list, data, mu_eff


def test_criterion_01_clifford_relations_exact():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        fam = build_clifford(n)
        eye = np.eye(fam.N)
        for j in range(n + 1):
            for k in range(n + 1):
                anti = fam.alphas[j] @ fam.alphas[k] + fam.alphas[k] @ fam.alphas[j]
                worst = max(worst, np.abs(anti - 2.0 * (j == k) * eye).max())
    elapsed = time.time() - t0
    _report(1, worst == 0.0 and elapsed < 1.0, f"max deviation {worst:g} in {elapsed:.2f}s")


def test_criterion_02_secular_root_series():
    t0 = time.time()
    errs = {m: abs(solve_k(m, 1) - k1_series(m)) for m in (0.01, 0.02, 0.04, 0.08)}
    ratios = [errs[0.02] / errs[0.01], errs[0.04] / errs[0.02], errs[0.08] / errs[0.04]]
    c_fit = max(errs[m] / m**3 for m in errs)
    bound_ok = all(errs[m] <= c_fit * m**3 for m in errs) and c_fit < 1.0
    ratio_ok = all(6.5 <= r <= 9.5 for r in ratios)
    elapsed = time.time() - t0
    _report(
        2,
        bound_ok and ratio_ok and elapsed < 1.0,
        f"C={c_fit:.3f}, ratios {', '.join(f'{r:.2f}' for r in ratios)} in {elapsed:.2f}s",
    )


def test_criterion_03_transverse_form_identity(fam2):
    t0 = time.time()
    rng = np.random.default_rng(42)
    x = np.array([0.6, 0.8])
    m = 0.4
    mods = [mode(fam2, x, m, p, 1, sgn) for p in (1, 2, 3) for sgn in (+1, -1)]
    worst = 0.0
    for _ in range(20):
        cs = rng.standard_normal(len(mods)) + 1j * rng.standard_normal(len(mods))
        f = lambda t: sum(c * md.profile(t) for c, md in zip(cs, mods))
        fp = lambda t: sum(c * md.derivative(t) for c, md in zip(cs, mods))
        lhs, rhs = quadratic_form_identity_check(fam2, x, m, f, fp)
        worst = max(worst, abs(lhs - rhs) / (1.0 + lhs))
    elapsed = time.time() - t0
    _report(3, worst <= 1e-8 and elapsed < 5.0, f"worst relative gap {worst:g} in {elapsed:.1f}s")


def test_criterion_04_intertwining():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_u = 0.0
    worst_spec = 0.0
    for n in (2, 3):
        fam = build_clifford(n)
        eye = np.eye(fam.N)
        for _ in range(20):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(n)
            y /= np.linalg.norm(y)
            u = theta(fam, x, y)
            worst_u = max(worst_u, np.abs(u.conj().T @ u - eye).max())
            ex = discretized_transverse_energies(fam, x, 0.3, 6)
            ey = discretized_transverse_energies(fam, y, 0.3, 6)
            worst_spec = max(worst_spec, np.abs(ex - ey).max())
    elapsed = time.time() - t0
    ok = worst_u <= 1e-12 and worst_spec <= 1e-10 and elapsed < 30.0
    _report(4, ok, f"unitarity {worst_u:g}, spectra {worst_spec:g} in {elapsed:.1f}s")


def test_criterion_05_mode_perturbation(fam2):
    t0 = time.time()
    rep = mode_perturbation_check(fam2, np.array([0.0, 1.0]), [0.01, 0.02, 0.04])
    elapsed = time.time() - t0
    ok = 0.95 <= rep["order"] <= 1.2 and elapsed < 5.0
    _report(5, ok, f"log-log slope {rep['order']:.3f} in {elapsed:.1f}s")


def test_criterion_06_total_curvature(circle, ellipse, wobble):
    t0 = time.time()
    worst = max(abs(c.total_curvature() + 2.0 * math.pi) for c in (circle, ellipse, wobble))
    elapsed = time.time() - t0
    _report(6, worst <= 1e-8 and elapsed < 5.0, f"worst closure defect {worst:g} in {elapsed:.1f}s")


def test_criterion_07_metric_identity(circle, ellipse):
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        crv = (circle, ellipse)[rng.integers(2)]
        eps = float(rng.uniform(0.02, min(0.4, 0.8 / crv.kappa_max)))
        met = shell_metric(crv, eps)
        s0 = float(rng.uniform(0.0, crv.length))
        t0_ = float(rng.uniform(-1.0, 1.0))
        h = 1e-5
        jac = np.zeros((2, 2))
        jac[:, 0] = (met.tubular_map(np.array([s0 + h]), np.array([t0_]))[0]
                     - met.tubular_map(np.array([s0 - h]), np.array([t0_]))[0]) / (2 * h)
        jac[:, 1] = (met.tubular_map(np.array([s0]), np.array([t0_ + h]))[0]
                     - met.tubular_map(np.array([s0]), np.array([t0_ - h]))[0]) / (2 * h)
        det_fd = abs(np.linalg.det(jac))
        det_formula = math.sqrt(float(met.det_g(s0, t0_)))
        worst = max(worst, abs(det_fd - det_formula) / det_formula)
    elapsed = time.time() - t0
    _report(7, worst <= 1e-9 and elapsed < 5.0, f"worst relative error {worst:g} in {elapsed:.1f}s")


def test_criterion_08_gauge_equivalence(fam2, ellipse):
    t0 = time.time()
    res = gauge_transform_check(fam2, ellipse, 512)
    elapsed = time.time() - t0
    ok = res.spectral_distance <= 1e-5 and res.similarity_residual <= 1e-12 and elapsed < 30.0
    _report(
        8, ok,
        f"spectral distance {res.spectral_distance:g}, link similarity "
        f"{res.similarity_residual:g} in {elapsed:.1f}s",
    )


def test_criterion_09_circle_analytic_spectrum(circle):
    t0 = time.time()
    mu = effective_eigenvalues(assemble_magnetic(circle, 512), 5)
    worst = float(np.abs(mu - magnetic_circle_spectrum(1.0, 5)).max())
    elapsed = time.time() - t0
    _report(9, worst <= 1e-6 and elapsed < 10.0, f"max deviation {worst:g} in {elapsed:.1f}s")


def test_criterion_10_flat_strip_separation(fam2):
    t0 = time.time()
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = shell_metric(flat_strip(length), eps)
    ref = flat_strip_levels(length, m, eps, 4)
    errs_t, errs_s = [], []
    for ns, nt in ((32, 8), (64, 16), (128, 32)):
        vals = [v for v, _ in lowest_eigenvalues(assemble_shell(fam2, met, m, ns, nt), 4)]
        errs_t.append(abs(vals[0] - ref[0]))
        errs_s.append(abs(vals[2] - ref[2]))
    order_t = min(math.log2(errs_t[i] / errs_t[i + 1]) for i in range(2))
    order_s = min(math.log2(errs_s[i] / errs_s[i + 1]) for i in range(2))
    elapsed = time.time() - t0
    ok = order_t >= 1.9 and order_s >= 1.9 and elapsed < 120.0
    _report(10, ok, f"orders {order_t:.2f} (transverse level), {order_s:.2f} "
                    f"(tangential level) in {elapsed:.1f}s")


def test_criterion_11_theorem_at_desk_scale(sweep_data):
    t0 = time.time()
    eps_list, data, mu_eff = sweep_data
    oks, details = [], []
    for m, per_eps in data.items():
        const = m * m - (4.0 / math.pi**2) * m * m
        rs = [per_eps[e][0] - math.pi**2 / (16 * e**2) - m / e - const for e in eps_list]
        design = np.vstack([np.ones(len(eps_list)), np.array(eps_list)]).T
        (a1, b1), *_ = np.linalg.lstsq(design, np.array(rs), rcond=None)
        rel = abs(a1 - mu_eff[0]) / abs(mu_eff[0])
        diffs = np.diff(rs)
        monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
        oks.append(rel <= 0.10 and monotone)
        details.append(f"m={m}: a1={a1:.6f} (rel err {rel:.4f}), slope {b1:.4f}, monotone={monotone}")
    elapsed = time.time() - t0
    _report(11, all(oks) and elapsed < 600.0, "; ".join(details) + f" [fit in {elapsed:.1f}s]")


def test_criterion_12_sandwich_inequality(fam2, circle):
    t0 = time.time()
    m = 0.0
    c = 3.0 * (1.0 + circle.kappa_max)
    oks, details = [], []
    for eps in (0.1, 0.05):
        met = shell_metric(circle, eps)
        nt = default_nt(eps)
        asm = assemble_shell(fam2, met, m, 96, nt)
        sand = assemble_sandwich(fam2, met, m, c, 96, nt)
        mu = lowest_eigenvalues(asm, 1)[0][0]
        mu_minus = lowest_eigenvalues(sand, 1, which="minus")[0][0]
        mu_plus = lowest_eigenvalues(sand, 1, which="plus")[0][0]
        tol = 10.0 * max(asm.h_s, asm.h_t) ** 2 * abs(mu)
        oks.append(mu_minus - tol <= mu <= mu_plus + tol)
        details.append(f"eps={eps}: {mu_minus:.4f} <= {mu:.4f} <= {mu_plus:.4f}")
    elapsed = time.time() - t0
    _report(12, all(oks) and elapsed < 180.0, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_13_corollary_leading_term(sweep_data):
    eps_list, data, _ = sweep_data
    mu2 = data[0.0][0.035][1]
    pairing = abs(data[0.0][0.035][1] - data[0.0][0.035][0]) / abs(mu2)
    lam1 = math.sqrt(mu2)
    rel = abs(lam1 * 0.035 - math.pi / 4.0) / (math.pi / 4.0)
    ok = rel <= 0.02 and pairing <= 1e-6
    _report(13, ok, f"lambda_1*eps deviates {rel:.5f} from pi/4; pair split {pairing:.2e}")


def test_criterion_14_eigensolver_cross_validation(fam2, circle):
    t0 = time.time()
    met = shell_metric(circle, 0.1)
    asm = assemble_shell(fam2, met, 0.3, 32, 8)
    dense = dense_hermitian_eig(asm.pencil.a.toarray(), asm.pencil.b.toarray(), check=False)
    it = lobpcg_smallest(asm.pencil, 6, tol=1e-9, dense_cutoff=0, seed=3)
    worst = float(np.abs(it.eigenvalues - dense.eigenvalues[:6]).max())
    production = np.array([v for v, _ in lowest_eigenvalues(asm, 6)])
    worst_prod = float(np.abs(production - dense.eigenvalues[:6]).max())
    elapsed = time.time() - t0
    ok = it.converged and worst <= 1e-8 and worst_prod <= 1e-8 and elapsed < 30.0
    _report(14, ok, f"max difference {worst:g} (LOBPCG), {worst_prod:g} (shift-invert) in {elapsed:.1f}s")
