"""Workloads and metric names shared by the harness and the reference generator.

A sweep workload is a ``SweepConfig`` payload without the seed; the
benchmark seed is added as ``SweepConfig.seed`` (the LOBPCG start block)
and reaches the program nowhere else.  The ``check`` workload runs the
whole property-check registry through ``cli.run_checks``; it takes no
seed.  This module imports nothing heavy, so the parent process of a run
stays free of numpy.
"""

from __future__ import annotations

SWEEPS = {
    # ROADMAP acceptance curve, mass and eps list on a coarser s-grid
    # (ns=48 instead of 192) so one sweep fits a benchmark run; dims
    # 2 496-4 224 stay above the dense cutoff, so LOBPCG dominates.  The
    # circle's Fourier reference is exact at any eff_ns, hence 256.
    "sweep-circle": {
        "curve": {"kind": "circle", "r": 1.0},
        "m": 0.5,
        "eps": [0.1, 0.07, 0.05, 0.035],
        "ns": 48,
        "count": 4,
        "eff_ns": 256,
    },
    # non-circular, massless, small grids (dims 2 304-3 328) and the
    # default eff_ns=1024 dense effective reference, which dominates
    "sweep-ellipse": {
        "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0},
        "m": 0.0,
        "eps": [0.2, 0.14, 0.1],
        "ns": 64,
        "count": 2,
    },
}

CHECK = "check"
NAMES = (*SWEEPS, CHECK)

# eigenvalue agreement with the dense-oracle reference (ROADMAP aim 2)
REFERENCE_RTOL = 1e-8
# j=1 fitted intercept against the effective eigenvalue (criterion 11)
INTERCEPT_RTOL = 0.10

# CheckResult.name of every registry suite, in registry order
CHECK_SUITES = (
    "clifford-relations",
    "symbol-relations",
    "secular-roots",
    "series-order",
    "mode-normalization",
    "form-identity",
    "mode-perturbation",
    "intertwining",
    "total-curvature",
    "metric-identity",
    "metric-sandwich",
    "gauge-equivalence",
    "magnetic-circle",
    "effective-degeneracy",
    "effective-convergence",
    "flat-strip",
    "shell-sandwich",
    "eigensolver-agreement",
)

# name -> unit; reported with --trace 0
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# name -> unit; reported with --trace 1 (0 where a workload skips the layer)
PER_LAYER = {
    "geometry.curve_build_s": "s",
    "geometry.curvature_calls": "count",
    "geometry.curvature_points": "count",
    "geometry.curvature_s": "s",
    "effective.assemble_s": "s",
    "effective.eigh_s": "s",
    "effective.dim": "count",
    "shell.assemble_s": "s",
    "shell.dof": "count",
    "shell.nnz": "count",
    "eigsolve.solve_s": "s",
    "eigsolve.residual_max": "1",
    "eigsolve.iterations": "count",
    "cli.self_s": "s",
    "cli.intercept_err_max": "1",
    **{f"checks.{suite}_s": "s" for suite in CHECK_SUITES},
    "trace.overhead_frac": "ratio",
}
