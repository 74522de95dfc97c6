"""The criterion registry behind the ``check`` verb and the acceptance tests.

Each entry of ``REGISTRY`` is a zero-argument function returning a
CheckResult.  An entry owns its parameters (seeds, grids), its numeric
bounds and, where it has one, its wall-time budget; ``run_all`` executes
the registry in order for ``diracshell check``, and the acceptance tests
run the same entries, both printing one ``format_result`` line each.  The
entries cover the package's defining identities: exact anticommutators,
secular root residuals, quadrature normalization, gauge equivalence of the
effective operator, sandwich ordering of the bracketing forms, and the
cross-check of the production shift-invert solver against the dense
oracle.  The transverse spectra of the intertwining entry come from that
same certified shift-invert solver, with an inertia cut below the top
returned value; a unit test checks them against the dense oracle.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import clifford, effective, eigsolve, geometry, shell, transverse

__all__ = ["CheckResult", "format_result", "run_all", "REGISTRY"]

# P2 elements on (-1, 1) of the transverse pencils behind the intertwining entry
_N_ELEM = 64


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float | None = None   # the entry's wall time; None: not made by a registry entry


def format_result(res: CheckResult) -> str:
    return f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"


def _entry(name: str, budget_s: float | None = None):
    """Make a function returning (passed, detail) the registry entry ``name``.

    The entry returns a CheckResult named ``name`` that carries its wall
    time in ``seconds``.  A function that raises
    EigensolveError, ValueError (the dense oracle's refusals) or LinAlgError
    fails the entry, with the exception as its detail, so ``run_all`` goes on
    to the next entry; any other exception propagates.  With a budget the
    entry also fails when the function takes ``budget_s`` seconds or more,
    and reports the time taken.  Keyword arguments pass through (negative
    controls).
    """

    def wrap(fn):
        @functools.wraps(fn)
        def entry(**params) -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = fn(**params)
            except (eigsolve.EigensolveError, ValueError, np.linalg.LinAlgError) as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                passed = passed and elapsed < budget_s
                detail = f"{detail} in {elapsed:.2f}s (budget {budget_s:g}s)"
            return CheckResult(name=name, passed=bool(passed), detail=detail, seconds=elapsed)

        entry.suite = name
        return entry

    return wrap


@_entry("clifford-relations", budget_s=1.0)
def check_clifford_relations():
    worst = 0.0
    for n in range(1, 9):
        fam = clifford.build_clifford(n)
        eye = np.eye(fam.N)
        for j in range(n + 1):
            for k in range(n + 1):
                anti = fam.alphas[j] @ fam.alphas[k] + fam.alphas[k] @ fam.alphas[j]
                worst = max(worst, np.abs(anti - 2.0 * (j == k) * eye).max())
    return worst == 0.0, f"max anticommutator deviation {worst:g}"


@_entry("symbol-relations")
def check_symbol_relations():
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(1, 9):
        fam = clifford.build_clifford(n)
        eye = np.eye(fam.N)
        half = np.eye(fam.N // 2)
        for _ in range(100):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            sx, sy = clifford.gamma(fam, x), clifford.gamma(fam, y)
            worst = max(worst, np.abs(sx.gamma @ sy.gamma + sy.gamma @ sx.gamma - 2 * (x @ y) * eye).max())
            worst = max(
                worst,
                np.abs(
                    sx.beta.conj().T @ sy.beta + sy.beta.conj().T @ sx.beta - 2 * (x @ y) * half
                ).max(),
            )
    return worst <= 1e-12, f"max symbol residual {worst:g}"


@_entry("secular-roots")
def check_secular_roots():
    worst = 0.0
    for m in np.linspace(0.0, 2.0, 9):
        for p in range(1, 7):
            k = transverse.solve_k(float(m), p)
            lo, hi = transverse.bracket(p)
            if not lo <= k <= hi:
                return False, f"root escaped bracket at m={m}, p={p}"
            worst = max(worst, abs(transverse.secular(k, float(m))))
    return worst <= 1e-13, f"max secular residual {worst:g}"


@_entry("series-order", budget_s=1.0)
def check_series_order():
    # third order: doubling m multiplies the error by about 8, and C = max err/m^3 < 1
    errs = {m: abs(transverse.k1_series(m) - transverse.solve_k(m, 1)) for m in (0.01, 0.02, 0.04, 0.08)}
    ratios = [errs[0.02] / errs[0.01], errs[0.04] / errs[0.02], errs[0.08] / errs[0.04]]
    c_fit = max(errs[m] / m**3 for m in errs)
    ok = all(6.5 <= r <= 9.5 for r in ratios) and c_fit < 1.0
    return ok, f"C={c_fit:.3f}, doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios)


@_entry("mode-normalization")
def check_mode_normalization():
    fam = clifford.build_clifford(2)
    x = np.array([0.6, 0.8])
    nodes, weights = transverse.gauss_legendre()
    worst_norm = 0.0
    worst_bc = 0.0
    for m in (0.0, 0.05, 0.3, 1.0):
        for p in (1, 2, 3):
            for sign in (+1, -1):
                md = transverse.mode(fam, x, m, p, 1, sign)
                vals = md.profile(nodes)
                worst_norm = max(worst_norm, abs(weights @ np.sum(np.abs(vals) ** 2, axis=1) - 1.0))
                worst_bc = max(worst_bc, transverse.boundary_residual(fam, x, md.profile))
    ok = worst_norm <= 1e-10 and worst_bc <= 1e-10
    return ok, f"norm defect {worst_norm:g}, bc residual {worst_bc:g}"


@_entry("form-identity", budget_s=5.0)
def check_form_identity():
    fam = clifford.build_clifford(2)
    x = np.array([0.6, 0.8])
    m = 0.4
    mods = [transverse.mode(fam, x, m, p, 1, sgn) for p in (1, 2, 3) for sgn in (+1, -1)]
    worst = 0.0
    for seed in (0, 42):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            cs = rng.standard_normal(len(mods)) + 1j * rng.standard_normal(len(mods))
            f = lambda t: sum(c * md.profile(t) for c, md in zip(cs, mods))
            fp = lambda t: sum(c * md.derivative(t) for c, md in zip(cs, mods))
            lhs, rhs = transverse.quadratic_form_identity_check(fam, x, m, f, fp)
            worst = max(worst, abs(lhs - rhs) / (1.0 + lhs))
    return worst <= 1e-8, f"worst relative mismatch {worst:g} (seeds 0, 42)"


@_entry("mode-perturbation", budget_s=5.0)
def check_mode_perturbation():
    fam = clifford.build_clifford(2)
    x = np.array([0.0, 1.0])
    rep = transverse.mode_perturbation_check(fam, x, [0.01, 0.02, 0.04])
    ratio = rep["distances"][1] / rep["distances"][0]
    ok = 0.95 <= rep["order"] <= 1.2 and 1.8 <= ratio <= 2.2
    return ok, f"order {rep['order']:.3f}, doubling ratio {ratio:.3f}"


@functools.lru_cache(maxsize=8)
def _p2_transverse_pencil(N: int, m: float):
    """The x-independent P2 matrices on (-1, 1), N spinor components per node.

    The stiffness and mass of the shell's P2 line (``shell.line_element``).

    Returns the form ||f'||^2 + m^2||f||^2 + m(|f(1)|^2+|f(-1)|^2) and the
    mass, both CSR over the full node set, before the boundary elimination.
    """
    h = 2.0 / _N_ELEM
    n_nodes = 2 * _N_ELEM + 1
    _, w, val, der, conn = shell.line_element(2, _N_ELEM, h)
    # every cell has the same local stiffness and mass
    k1d, m1d = (
        shell.scatter(np.broadcast_to(np.einsum("q,aq,bq->ab", w * h, t, t), (_N_ELEM, 3, 3)), conn, n_nodes)
        for t in (der, val)
    )

    boundary = np.zeros(n_nodes * N)
    boundary[:N] = m
    boundary[-N:] = m
    a_full = sp.kron(k1d + m * m * m1d, sp.eye(N), format="csr").astype(complex) + sp.diags(boundary)
    b_full = sp.kron(m1d, sp.eye(N), format="csr").astype(complex)
    return a_full, b_full


def _transverse_pencil(fam, x, m: float):
    """The P2 pencil with the boundary constraint eliminated.

    Node 0 is kept on the -1 and the last node on the +1 eigenspace of
    -i a_{n+1} Gamma(x), N/2 components each.
    """
    a_full, b_full = _p2_transverse_pencil(fam.N, float(m))
    vals_b, vecs_b = np.linalg.eigh(-1.0j * fam.alpha_last @ clifford.gamma(fam, x).gamma)
    plus = vecs_b[:, np.abs(vals_b - 1) < 1e-10]
    minus = vecs_b[:, np.abs(vals_b + 1) < 1e-10]
    # rows: node 0, the interior nodes, the last node; columns: plus, minus, interior
    interior = sp.identity((2 * _N_ELEM - 1) * fam.N)
    z = sp.bmat([[None, minus, None], [None, None, interior], [plus, None, None]], format="csr")
    zh = z.conj().T.tocsr()
    return (zh @ a_full @ z).tocsr(), (zh @ b_full @ z).tocsr()


def _certify_cut(pencil, values: np.ndarray) -> None:
    """Raise EigensolveError unless no eigenvalue below the top returned one is missing.

    The cut c sits just below the largest returned value v, at
    v - 1e-6 max(1, |v|); the inertia of A - c B counts the eigenvalues
    below c, and they must be exactly the returned values below c.  A copy
    of a multiple eigenvalue that the solver skipped has a higher value
    returned in its place, so the count comes out one larger.
    """
    top = float(values[-1])
    cut = top - 1e-6 * max(1.0, abs(top))
    below = eigsolve.inertia(pencil, cut)[0]
    returned = int(np.count_nonzero(values < cut))
    if below != returned:
        raise eigsolve.EigensolveError(f"{below} eigenvalues below the cut {cut:g}, {returned} returned")


def discretized_transverse_energies(fam, x, m: float, count: int) -> np.ndarray:
    """Lowest eigenvalues of the squared transverse operator on (-1, 1).

    Galerkin P2 discretization of ||f'||^2 + m^2||f||^2 + m(|f(1)|^2+|f(-1)|^2)
    over spinors with the boundary constraint eliminated against the
    +-1 eigenspaces of -i a_{n+1} Gamma(x), solved by the production
    shift-invert solver (seed 0) and certified from both sides: no
    eigenvalue below the shift, none missing below the top returned one.
    Raises EigensolveError when either certificate or the residual gate
    fails.
    """
    pencil = eigsolve.HermitianPencil.make(*_transverse_pencil(fam, x, m))
    # the form is positive for m >= 0, so the shift -1 certifies at once
    res = eigsolve.shift_invert_smallest(pencil, count, sigma=-1.0)
    _certify_cut(pencil, res.eigenvalues)
    return res.eigenvalues


@_entry("intertwining", budget_s=30.0)
def check_intertwining():
    worst_unitary = 0.0
    worst_spec = 0.0
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        for n in (2, 3):
            fam = clifford.build_clifford(n)
            for _ in range(20):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                y = rng.standard_normal(n)
                y /= np.linalg.norm(y)
                u = clifford.theta(fam, x, y)
                worst_unitary = max(worst_unitary, np.abs(u.conj().T @ u - np.eye(fam.N)).max())
                ex = discretized_transverse_energies(fam, x, 0.3, 6)
                ey = discretized_transverse_energies(fam, y, 0.3, 6)
                worst_spec = max(worst_spec, np.abs(ex - ey).max())
    ok = worst_unitary <= 1e-12 and worst_spec <= 1e-10
    return ok, f"unitarity {worst_unitary:g}, spectra {worst_spec:g} (seeds 0, 7)"


@_entry("total-curvature", budget_s=5.0)
def check_total_curvature():
    curves = [
        geometry.make_curve("circle", r=1.0),
        geometry.make_curve("ellipse", a=2.0, b=1.0),
        geometry.make_curve("fourier", coeffs=[(1, 1.0, 0.0), (-2, 0.15, 0.0)]),
    ]
    worst = max(abs(c.total_curvature() + 2.0 * math.pi) for c in curves)
    return worst <= 1e-8, f"worst closure defect {worst:g}"


@_entry("metric-identity", budget_s=5.0)
def check_metric_identity():
    curves = [geometry.make_curve("circle", r=1.0), geometry.make_curve("ellipse", a=2.0, b=1.0)]
    worst = 0.0
    for seed in (0, 11):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            crv = curves[rng.integers(len(curves))]
            eps = float(rng.uniform(0.02, min(0.4, 0.8 / crv.kappa_max)))
            met = geometry.shell_metric(crv, eps)
            s0 = float(rng.uniform(0, crv.length))
            t0 = float(rng.uniform(-1, 1))
            h = 1e-5
            jac = np.zeros((2, 2))
            jac[:, 0] = (met.tubular_map(np.array([s0 + h]), np.array([t0]))[0]
                         - met.tubular_map(np.array([s0 - h]), np.array([t0]))[0]) / (2 * h)
            jac[:, 1] = (met.tubular_map(np.array([s0]), np.array([t0 + h]))[0]
                         - met.tubular_map(np.array([s0]), np.array([t0 - h]))[0]) / (2 * h)
            det_fd = abs(np.linalg.det(jac))
            det_formula = math.sqrt(float(met.det_g(s0, t0)))
            worst = max(worst, abs(det_fd - det_formula) / det_formula)
    return worst <= 1e-9, f"worst relative error {worst:g} (seeds 0, 11)"


@_entry("metric-sandwich")
def check_metric_sandwich():
    """Two-sided comparability of the shell metric with the flat one.

    Uses c = 3*max|kappa| and samples eps up to a quarter of the
    injectivity guard, where that concrete constant is provably valid.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for crv in (geometry.make_curve("circle", r=1.0), geometry.make_curve("ellipse", a=2.0, b=1.0)):
        c = 3.0 * crv.kappa_max
        for _ in range(200):
            eps = float(rng.uniform(0.001, 0.225 / crv.kappa_max))
            met = geometry.shell_metric(crv, eps)
            s0 = float(rng.uniform(0, crv.length))
            t0 = float(rng.uniform(-1, 1))
            ratio = 1.0 / float(met.g11(s0, t0))
            if not (1.0 - c * eps <= ratio <= 1.0 + c * eps):
                worst = max(worst, abs(ratio - 1.0) - c * eps)
    return worst == 0.0, f"worst excess {worst:g}"


@_entry("gauge-equivalence", budget_s=30.0)
def check_gauge_equivalence(coupling: float = effective.DEFAULT_COUPLING, grids=(256, 512)):
    curve = geometry.make_curve("ellipse", a=2.0, b=1.0)
    ok = True
    details = []
    for n_s in grids:
        res = effective.gauge_transform_check(curve, n_s, coupling=coupling)
        ok = ok and (
            res.spectral_distance <= 1e-5
            and res.phase_residual <= 1e-8
            and res.similarity_residual <= 1e-12
        )
        details.append(
            f"n_s={n_s}: spectral {res.spectral_distance:g}, phase {res.phase_residual:g}, "
            f"similarity {res.similarity_residual:g}"
        )
    return ok, "; ".join(details)


@_entry("magnetic-circle", budget_s=10.0)
def check_magnetic_circle():
    curve = geometry.make_curve("circle", r=1.0)
    mag = effective.assemble_magnetic(curve, 512)
    mu = effective.effective_eigenvalues(mag, 5).eigenvalues
    ana = effective.magnetic_circle_spectrum(1.0, 5)
    worst = float(np.abs(mu - ana).max())
    return worst <= 1e-6, f"max deviation {worst:g}"


@_entry("effective-degeneracy")
def check_effective_degeneracy():
    # both spin blocks, assembled separately, from the dense oracle:
    # effective_eigenvalues assumes the pairing this check certifies
    curve = geometry.make_curve("ellipse", a=2.0, b=1.0)

    def lowest(coupling):
        asm = effective.assemble_effective(curve, 256, coupling=coupling)
        return eigsolve.dense_hermitian_eig(asm.pencil.a, count=4).eigenvalues

    up, down = lowest(effective.DEFAULT_COUPLING), lowest(-effective.DEFAULT_COUPLING)
    worst = float(np.abs(up - down).max())
    scale = 1e-8 * (1.0 + float(np.abs(np.concatenate([up, down])).max()))
    return worst <= scale, f"worst pair split {worst:g}"


@_entry("effective-convergence")
def check_effective_convergence():
    curve = geometry.make_curve("ellipse", a=2.0, b=1.0)
    ref = effective.converged_eigenvalues(curve, 5)
    if not ref.converged:
        return False, f"Fourier reference not converged by n_s={ref.n_s} (cap {ref.cap})"
    errs = []
    for n_s in (64, 128, 256):
        link = effective.assemble_effective(curve, n_s, scheme="link")
        mu = effective.effective_eigenvalues(link, 5).eigenvalues
        errs.append(float(np.abs(mu - ref.eigenvalues).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    return all(o >= 1.9 for o in orders), "orders " + ", ".join(f"{o:.2f}" for o in orders)


@_entry("flat-strip", budget_s=120.0)
def check_flat_strip():
    # relative error on one grid, and second-order convergence of a
    # transverse (ref[0]) and a tangential (ref[2]) level over three grids
    fam = clifford.build_clifford(2)
    length, m, eps = 2.0 * math.pi, 0.3, 0.2
    met = geometry.shell_metric(geometry.flat_strip(length), eps)
    ref = shell.flat_strip_levels(length, m, eps, 6)

    def levels(n_s, n_t, count):
        asm = shell.assemble_shell(fam, met, m, n_s, n_t)
        return shell.lowest_eigenvalues(asm, count).eigenvalues

    worst = float((np.abs(levels(48, 12, 6) - ref) / ref).max())
    errs_t, errs_s = [], []
    for n_s, n_t in ((32, 8), (64, 16), (128, 32)):
        vals = levels(n_s, n_t, 4)
        errs_t.append(abs(vals[0] - ref[0]))
        errs_s.append(abs(vals[2] - ref[2]))
    order_t = min(math.log2(errs_t[i] / errs_t[i + 1]) for i in range(2))
    order_s = min(math.log2(errs_s[i] / errs_s[i + 1]) for i in range(2))
    ok = worst <= 5e-4 and order_t >= 1.9 and order_s >= 1.9
    return ok, (f"worst relative error {worst:g} (48x12), orders {order_t:.2f} (transverse level), "
                f"{order_s:.2f} (tangential level)")


@_entry("shell-sandwich", budget_s=180.0)
def check_shell_sandwich():
    fam = clifford.build_clifford(2)
    circle = geometry.make_curve("circle", r=1.0)
    ellipse = geometry.make_curve("ellipse", a=2.0, b=1.0)
    ok = True
    details = []
    # the m = 0 circle's lowest mode is constant in s, so one s-grid covers
    # it; the ellipse leg adds a curvature that varies along the curve
    legs = [(ellipse, 0.1, 48, 13)] + [(circle, eps, 96, shell.default_nt(eps)) for eps in (0.1, 0.05)]
    for curve, eps, n_s, n_t in legs:
        c = 3.0 * (1.0 + curve.kappa_max)
        met = geometry.shell_metric(curve, eps)
        asm = shell.assemble_shell(fam, met, 0.0, n_s, n_t)
        mu = shell.lowest_eigenvalues(asm, 1).eigenvalues[0]
        # the lower and upper bracketing forms, at slack -c and +c
        mu_minus, mu_plus = (
            shell.lowest_eigenvalues(shell.assemble_sandwich(fam, met, 0.0, slack, n_s, n_t), 1).eigenvalues[0]
            for slack in (-c, c)
        )
        # the grid error scales with the level left after the transverse
        # ground level, not with mu itself
        tol = 10.0 * max(asm.h_s, asm.h_t) ** 2 * max(1.0, abs(mu - transverse.level(0.0, eps)))
        ok = ok and mu_minus - tol <= mu <= mu_plus + tol
        # the circle is the entry's reference curve; any other is named
        label = "" if curve is circle else f"{curve.name} "
        details.append(
            f"{label}eps={eps} {n_s}x{n_t}: {mu_minus:.4f} <= {mu:.4f} <= {mu_plus:.4f} (tol {tol:.3f})"
        )
    return ok, "; ".join(details)


@_entry("eigensolver-agreement", budget_s=30.0)
def check_eigensolver_agreement():
    fam = clifford.build_clifford(2)
    met = geometry.shell_metric(geometry.make_curve("circle", r=1.0), 0.1)
    asm = shell.assemble_shell(fam, met, 0.3, 32, 8)
    dense = eigsolve.dense_hermitian_eig(asm.pencil.a, asm.pencil.b, count=6)
    production = shell.lowest_eigenvalues(asm, 6).eigenvalues
    worst = float(np.abs(production - dense.eigenvalues).max())
    return worst <= 1e-8, f"max difference {worst:g} (shift-invert)"


REGISTRY: list[Callable[[], CheckResult]] = [
    check_clifford_relations,
    check_symbol_relations,
    check_secular_roots,
    check_series_order,
    check_mode_normalization,
    check_form_identity,
    check_mode_perturbation,
    check_intertwining,
    check_total_curvature,
    check_metric_identity,
    check_metric_sandwich,
    check_gauge_equivalence,
    check_magnetic_circle,
    check_effective_degeneracy,
    check_effective_convergence,
    check_flat_strip,
    check_shell_sandwich,
    check_eigensolver_agreement,
]


def run_all() -> list[CheckResult]:
    """Run every registry entry in order, printing its line as it finishes."""
    results = []
    for fn in REGISTRY:
        results.append(fn())
        print(format_result(results[-1]))
    return results
