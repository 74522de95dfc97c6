"""The criterion registry behind the ``check`` verb and the acceptance tests.

Each entry of ``REGISTRY`` is a zero-argument function returning a
CheckResult, declared once: ``@_entry`` appends it to the registry where
it is defined, so the registry runs in definition order.  An entry owns
its parameters (seeds, grids), its numeric bounds and, where it has one,
its wall-time budget; ``cli.run_checks`` executes the registry in order
for ``diracshell check``, and the acceptance tests run the same entries,
both printing one ``format_result`` line each, so this module only
declares criteria.  The entries cover the package's defining
identities: exact anticommutators, secular root residuals, quadrature
normalization, gauge equivalence of the effective operator, sandwich
ordering of the bracketing forms, and the cross-check of the production
shift-invert solver against the dense oracle.  The intertwining
entry takes its transverse spectra on 64 P2 cells from
``shell.discretized_transverse_energies``, certified from both sides by
``eigsolve``.  That pencil keeps its own reduced order, not the shell
grid's: the shell's order moves the entry's pinned spectra distance.

This is the one module that makes a comparison, and it builds no pencil.
``effective``, ``transverse`` and ``shell`` hold the operators, their
discretizations and closed forms; the quadrature rule, the boundary
residual, both sides of the transverse form identity and the gauge
observables are private helpers here, read by the entries alone.  It reads
no pivot: both inertia certificates are ``eigsolve``'s.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import clifford, effective, eigsolve, geometry, shell, transverse

__all__ = ["CheckResult", "format_result", "REGISTRY"]

# (nodes, weights) of the 64-node Gauss-Legendre rule on (-1, 1): the
# transverse eigenmodes are trigonometric, so every integral over (-1, 1)
# here uses this fixed rule
_GL64 = np.polynomial.legendre.leggauss(64)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float | None = None   # the entry's wall time; None: not made by a registry entry


def format_result(res: CheckResult) -> str:
    return f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"


# every entry in definition order, appended by ``_entry``; ``cli.run_checks``
# reads the list at call time, so a caller may replace it
REGISTRY: list[Callable[[], CheckResult]] = []


def _entry(name: str, budget_s: float | None = None):
    """Make a function returning (passed, detail) the registry entry ``name``, appended to ``REGISTRY``.

    The entry returns a CheckResult named ``name`` that carries its wall
    time in ``seconds``.  A function that raises
    EigensolveError, ValueError (the dense oracle's refusals) or LinAlgError
    fails the entry, with the exception as its detail, so ``cli.run_checks``
    goes on to the next entry; any other exception propagates.  With a budget
    the entry also fails when the function takes ``budget_s`` seconds or more,
    and reports the time taken.  Neither the entry nor the function takes
    arguments: a negative control patches what the function reads.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def entry() -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except (eigsolve.EigensolveError, ValueError, np.linalg.LinAlgError) as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                passed = passed and elapsed < budget_s
                detail = f"{detail} in {elapsed:.2f}s (budget {budget_s:g}s)"
            return CheckResult(name=name, passed=bool(passed), detail=detail, seconds=elapsed)

        entry.suite = name
        REGISTRY.append(entry)
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


def _boundary_residual(fam, x, f: Callable) -> float:
    """Max-norm violation of -i a_{n+1} Gamma(x) f(+-1) = +- f(+-1)."""
    bmat = -1.0j * fam.alpha_last @ clifford.gamma(fam, x).gamma
    res = 0.0
    for t, sgn in ((1.0, +1.0), (-1.0, -1.0)):
        val = np.atleast_2d(f(np.array([t])))[0]
        res = max(res, float(np.abs(bmat @ val - sgn * val).max()))
    return res


def _form_identity_sides(fam, x, m: float, f: Callable, fprime: Callable) -> tuple[float, float]:
    """Both sides of ||T f||^2 = ||f'||^2 + m^2 ||f||^2 + m(|f(1)|^2 + |f(-1)|^2).

    f and fprime map t-arrays to spinor samples of shape (len(t), N); f must
    satisfy the boundary constraint to within 1e-8, else ValueError.
    """
    if _boundary_residual(fam, x, f) > 1e-8:
        raise ValueError("spinor violates the boundary constraint")
    nodes, weights = _GL64
    gx = clifford.gamma(fam, x).gamma
    fv = f(nodes)
    dv = fprime(nodes)
    tf = (-1.0j) * dv @ gx.T + m * fv @ fam.alpha_last.T
    lhs = float(weights @ np.sum(np.abs(tf) ** 2, axis=1))
    rhs = float(
        weights @ np.sum(np.abs(dv) ** 2, axis=1)
        + m * m * (weights @ np.sum(np.abs(fv) ** 2, axis=1))
    )
    for t in (1.0, -1.0):
        val = np.atleast_2d(f(np.array([t])))[0]
        rhs += m * float(np.sum(np.abs(val) ** 2))
    return lhs, rhs


@_entry("mode-normalization")
def check_mode_normalization():
    fam = clifford.build_clifford(2)
    x = np.array([0.6, 0.8])
    nodes, weights = _GL64
    worst_norm = 0.0
    worst_bc = 0.0
    for m in (0.0, 0.05, 0.3, 1.0):
        for p in (1, 2, 3):
            for sign in (+1, -1):
                md = transverse.mode(fam, x, m, p, 1, sign)
                vals = md.profile(nodes)
                worst_norm = max(worst_norm, abs(weights @ np.sum(np.abs(vals) ** 2, axis=1) - 1.0))
                worst_bc = max(worst_bc, _boundary_residual(fam, x, md.profile))
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
            lhs, rhs = _form_identity_sides(fam, x, m, f, fp)
            worst = max(worst, abs(lhs - rhs) / (1.0 + lhs))
    return worst <= 1e-8, f"worst relative mismatch {worst:g} (seeds 0, 42)"


@_entry("mode-perturbation", budget_s=5.0)
def check_mode_perturbation():
    # the sup-norm distances ||phi^delta - phi^0||_inf of the first plus-mode
    # (p = j = 1, on 1001 points of [-1, 1]) scale linearly in the mass delta:
    # their log-log slope and their doubling ratio
    fam = clifford.build_clifford(2)
    x = np.array([0.0, 1.0])
    deltas = [0.01, 0.02, 0.04]
    t = np.linspace(-1.0, 1.0, 1001)
    base = transverse.mode(fam, x, 0.0, 1, 1, +1).profile(t)
    distances = [float(np.linalg.norm(transverse.mode(fam, x, d, 1, 1, +1).profile(t) - base, axis=1).max())
                 for d in deltas]
    order = float(np.polyfit(np.log(deltas), np.log(distances), 1)[0])
    ratio = distances[1] / distances[0]
    ok = 0.95 <= order <= 1.2 and 1.8 <= ratio <= 2.2
    return ok, f"order {order:.3f}, doubling ratio {ratio:.3f}"


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
                # the six lowest levels on 64 P2 cells, at each direction
                ex, ey = (shell.discretized_transverse_energies(fam, d, 0.3, 64, 6) for d in (x, y))
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
    return worst <= geometry.CLOSURE_TOL, f"worst closure defect {worst:g}"


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
            det_formula = met.eps * float(met.stretch(t0, crv.curvature(s0)))
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
            ratio = 1.0 / float(met.stretch(t0, crv.curvature(s0))) ** 2
            if not (1.0 - c * eps <= ratio <= 1.0 + c * eps):
                worst = max(worst, abs(ratio - 1.0) - c * eps)
    return worst == 0.0, f"worst excess {worst:g}"


def _gauge_observables(curve, n_s: int, coupling: float = effective.DEFAULT_COUPLING) -> tuple[float, float, float]:
    """Three observables of the splitting into two scalar magnetic copies.

    1. spectral: max distance between the 4 lowest eigenvalues of the
       spin-up block and of the magnetic block (spectral Galerkin for both);
    2. phase: the periodicity defect of the gauge phase, |V(L)|, which
       vanishes with the total-curvature identity;
    3. similarity: the matrix identity for the link scheme: conjugating the
       spin-up and spin-down blocks by the accumulated link-phase gauge must
       reproduce the magnetic matrix and its conjugate entrywise.  It is
       exact only as far as the midpoint sum of kappa(mid_i)*h closes to
       -2*pi; otherwise the wrap-around link keeps that phase defect.  The
       similarity residual is about 1e-15 on ellipse(2,1) at n_s 256 and
       512, but 5.06e-9 on ellipse(4,1) at n_s=256 (the sum misses -2*pi
       by 5.6e-8 there) and 1.1e-15 at 512.
    """
    eff = effective.assemble_effective(curve, n_s, scheme="fourier", coupling=coupling)
    mag = effective.assemble_magnetic(curve, n_s, scheme="fourier")
    mu_eff = effective.effective_eigenvalues(eff, 4).eigenvalues
    mu_mag = effective.effective_eigenvalues(mag, 4).eigenvalues
    distance = float(np.abs(mu_eff - mu_mag).max())

    phase_residual = float(abs(coupling * (curve.total_curvature() + 2.0 * math.pi)))

    # exact discrete identity on the link scheme
    up = effective.assemble_effective(curve, n_s, scheme="link", coupling=coupling).pencil.a
    down = effective.assemble_effective(curve, n_s, scheme="link", coupling=-coupling).pencil.a
    mag_link = effective.assemble_magnetic(curve, n_s, scheme="link").pencil.a
    h = curve.length / n_s
    angles = curve.curvature((np.arange(n_s) + 0.5) * h) * h
    # accumulated gauge phases: V_{i+1} - V_i = coupling*(I_i + 2*pi*h/L), with
    # I_i = kappa(mid_i)*h the midpoint link integral of kappa
    incr = coupling * (angles + 2.0 * math.pi * h / curve.length)
    v = np.cumsum(np.append(0.0, incr[:-1]))
    # D^H M D with D = diag(phase), as row and column phase factors
    phase = np.exp(-1.0j * v)
    sim_up = np.abs(phase.conj()[:, None] * up * phase[None, :] - mag_link).max()
    sim_down = np.abs(phase[:, None] * down * phase.conj()[None, :] - mag_link.conj()).max()
    # rounding floor scales with the 1/h^2 hopping entries, so normalize
    similarity = float(max(sim_up, sim_down) / max(1.0, np.abs(mag_link).max()))
    return distance, phase_residual, similarity


@_entry("gauge-equivalence", budget_s=30.0)
def check_gauge_equivalence():
    curve = geometry.make_curve("ellipse", a=2.0, b=1.0)
    ok = True
    details = []
    for n_s in (256, 512):
        spectral, phase, similarity = _gauge_observables(curve, n_s)
        ok = ok and spectral <= 1e-5 and phase <= 1e-8 and similarity <= 1e-12
        details.append(f"n_s={n_s}: spectral {spectral:g}, phase {phase:g}, similarity {similarity:g}")
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
    # both spin blocks, assembled separately, from the dense oracle: the sweep maps
    # each pair of shell eigenvalues onto one spin-up value, the pairing certified here
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
    ref = effective.converged_eigenvalues(curve, 3)
    if not ref.converged:
        return False, f"Fourier reference not converged by n_s={ref.n_s} (cap {ref.cap})"
    errs = []
    for n_s in (64, 128, 256):
        link = effective.assemble_effective(curve, n_s, scheme="link")
        mu = effective.effective_eigenvalues(link, 3).eigenvalues
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
        tol = 10.0 * max(asm.h_s, asm.h_t) ** 2 * max(1.0, abs(mu - asm.ground))
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
