"""Acceptance gate: the criterion registry plus the two shell-sweep criteria.

Criteria 01-10, 12 and 14 are entries of ``checks.REGISTRY``, which owns
their seeds, grids, bounds and wall-time budgets; each numbered test runs
its entry, and ``test_registry_entry`` runs the entries without a number,
so every entry runs once and prints the same line as ``diracshell check``.
Criteria 11 and 13 read the sweep reports of a module-scoped fixture,
made by ``cli.run_sweep``, the function behind ``diracshell sweep``.
"""

import math
import time

import numpy as np
import pytest

from diracshell import checks
from diracshell.checks import CheckResult, format_result
from diracshell.cli import run_sweep


def _report(res):
    print(format_result(res))
    assert res.passed, format_result(res)


def _run(entry):
    res = entry()
    assert res.name == entry.suite
    _report(res)
    return res


@pytest.fixture(scope="module")
def sweep_data():
    """Sweep reports for criteria 11 and 13, per mass: circle, pinned grids."""
    reports = {}
    for m in (0.0, 0.5):
        report = run_sweep({"curve": {"kind": "circle", "r": 1.0}, "m": m, "eps": [0.1, 0.07, 0.05, 0.035],
                            "ns": 192, "count": 2, "eff_ns": 1024})
        assert not report.partial, report.failures
        reports[m] = report
    return reports


def test_criterion_01_clifford_relations_exact():
    _run(checks.check_clifford_relations)


def test_criterion_02_secular_root_series():
    _run(checks.check_series_order)


def test_criterion_03_transverse_form_identity():
    _run(checks.check_form_identity)


def test_criterion_04_intertwining():
    res = _run(checks.check_intertwining)
    # shift-invert solves at seed 0 are deterministic; the numbers must not move
    assert res.detail.startswith("unitarity 4.44089e-16, spectra 1.03029e-13 (seeds 0, 7) in ")


def test_criterion_05_mode_perturbation():
    _run(checks.check_mode_perturbation)


def test_criterion_06_total_curvature():
    _run(checks.check_total_curvature)


def test_criterion_07_metric_identity():
    _run(checks.check_metric_identity)


def test_criterion_08_gauge_equivalence():
    _run(checks.check_gauge_equivalence)


def test_criterion_09_circle_analytic_spectrum():
    _run(checks.check_magnetic_circle)


def test_criterion_10_flat_strip_separation():
    _run(checks.check_flat_strip)


def test_criterion_11_theorem_at_desk_scale(sweep_data):
    t0 = time.time()
    oks, details = [], []
    for m, report in sweep_data.items():
        a1, b1 = report.fits[0]["intercept"], report.fits[0]["slope"]
        mu_eff = report.mu_effective[0]
        rel = abs(a1 - mu_eff) / abs(mu_eff)
        diffs = np.diff([report.residuals[e][0] for e in report.eps])
        monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
        oks.append(rel <= 0.10 and monotone)
        details.append(f"m={m}: a1={a1:.6f} (rel err {rel:.4f}), slope {b1:.4f}, monotone={monotone}")
    elapsed = time.time() - t0
    _report(CheckResult("criterion-11", all(oks) and elapsed < 600.0,
                        "; ".join(details) + f" [fit in {elapsed:.1f}s]"))


def test_criterion_12_sandwich_inequality():
    _run(checks.check_shell_sandwich)


def test_criterion_13_corollary_leading_term(sweep_data):
    mu1, mu2 = sweep_data[0.0].mu_shell[0.035]
    pairing = abs(mu2 - mu1) / abs(mu2)
    lam1 = math.sqrt(mu2)
    rel = abs(lam1 * 0.035 - math.pi / 4.0) / (math.pi / 4.0)
    ok = rel <= 0.02 and pairing <= 1e-6
    _report(CheckResult("criterion-13", ok,
                        f"lambda_1*eps deviates {rel:.5f} from pi/4; pair split {pairing:.2e}"))


def test_criterion_14_eigensolver_cross_validation():
    _run(checks.check_eigensolver_agreement)


NUMBERED = (
    checks.check_clifford_relations,
    checks.check_series_order,
    checks.check_form_identity,
    checks.check_intertwining,
    checks.check_mode_perturbation,
    checks.check_total_curvature,
    checks.check_metric_identity,
    checks.check_gauge_equivalence,
    checks.check_magnetic_circle,
    checks.check_flat_strip,
    checks.check_shell_sandwich,
    checks.check_eigensolver_agreement,
)


@pytest.mark.parametrize(
    "entry", [e for e in checks.REGISTRY if e not in NUMBERED], ids=lambda e: e.suite
)
def test_registry_entry(entry):
    _run(entry)
