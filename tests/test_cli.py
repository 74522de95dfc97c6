import json
import math

import numpy as np
import pytest
import scipy

from diracshell import cli, effective
from diracshell.cli import (
    EXIT_PARTIAL,
    ConfigError,
    SweepConfig,
    main,
    run_corollary,
    run_sweep,
)
from diracshell.clifford import build_clifford
from diracshell.effective import AUTO_RTOL, assemble_effective, effective_eigenvalues
from diracshell.eigsolve import EigensolveError
from diracshell.geometry import curve_from_json
from diracshell.shell import MAX_COUNT
from diracshell.threads import blas_threads

SMALL = {
    "curve": {"kind": "circle", "r": 1.0},
    "m": 0.0,
    "eps": [0.1, 0.08, 0.06],
    "ns": 48,
    "count": 2,
    "eff_ns": 256,
}
AUTO = {k: v for k, v in SMALL.items() if k != "eff_ns"}


def _direct_reference(n_s):
    curve = curve_from_json(SMALL["curve"])
    return effective_eigenvalues(assemble_effective(build_clifford(2), curve, n_s), SMALL["count"])


def test_config_validation(monkeypatch):
    cfg = SweepConfig.from_dict(SMALL)
    assert cfg.ns == 48 and cfg.nt is None
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "eps": [0.05, 0.1]})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "eps": [0.1, 0.1]})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "m": -1.0})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "count": 0})
    assert SweepConfig.from_dict({**SMALL, "count": MAX_COUNT}).count == MAX_COUNT
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "count": MAX_COUNT + 1})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"m": 0.0})
    # the effective reference size: "auto" (the default) or an even integer >= 16
    assert SweepConfig.from_dict(AUTO).eff_ns == "auto"
    assert SweepConfig.from_dict({**SMALL, "eff_ns": "auto"}).eff_ns == "auto"
    assert SweepConfig.from_dict({**SMALL, "eff_ns": 16}).eff_ns == 16
    # grids the assemblies would reject are config errors, not tracebacks
    for bad in ({"eff_ns": 15}, {"eff_ns": 14}, {"eff_ns": "256"}, {"eff_ns": "fast"},
                {"eff_ns": None}, {"ns": 16}, {"nt": 4}):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({**SMALL, **bad})
    assert SweepConfig.from_dict({**SMALL, "ns": 32, "nt": 8}).nt == 8
    # a SweepConfig built directly is validated too, before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the effective reference was computed for a bad config")

    monkeypatch.setattr(cli, "converged_eigenvalues", no_solve)
    monkeypatch.setattr(cli, "effective_eigenvalues", no_solve)
    coarse = SweepConfig(curve=SMALL["curve"], ns=16)
    for run in (run_sweep, run_corollary):
        with pytest.raises(ConfigError):
            run(coarse)
    with pytest.raises(ConfigError):
        SweepConfig(curve=SMALL["curve"], eff_ns="bogus").validate()
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(curve=SMALL["curve"], eff_ns="bogus"))


def test_run_sweep_small(tmp_path):
    report = run_sweep(SMALL, out_dir=tmp_path / "out")
    assert not report.partial
    assert len(report.fits) == 2
    # intercept of the first level approximates the effective ground level
    v = report.verdicts()[0]
    assert v["intercept_error"] <= 0.1 * abs(v["mu_effective"])
    csv_text = (tmp_path / "out" / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == "eps,j,mu_shell,residual,mu_eff_ref"
    assert len(csv_text.splitlines()) == 1 + 3 * 2
    summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert summary["partial"] is False
    # one certified solve record per eps
    assert sorted(summary["solves"]) == sorted(repr(e) for e in SMALL["eps"])
    for eps in SMALL["eps"]:
        rec = summary["solves"][repr(eps)]
        assert rec["dof"] == 4 * 48 * max(8, math.ceil(4.0 / math.sqrt(eps)))
        assert rec["negative_pivots"] == 0
        assert rec["shift"] < report.mu_shell[eps][0]
        assert 0.0 < rec["residual_max"] <= 1e-8
        assert rec["assemble_s"] > 0.0 and rec["solve_s"] > 0.0
        assert rec["iterations"] > 0
    # run record: effective reference time and size, versions, BLAS threads in effect
    assert summary["effective_s"] > 0.0
    assert summary["effective_ns"] == 256 and summary["effective_err"] is None
    # an explicit eff_ns is solved at that size, as by a direct call
    assert report.mu_effective == _direct_reference(256).tolist()
    assert summary["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}
    assert summary["blas_threads"] == blas_threads()
    assert set(summary["blas_threads"]["env"]) >= {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"}


def test_sweep_reproducible_bytes(tmp_path):
    r1 = run_sweep(SMALL, out_dir=tmp_path / "a")
    r2 = run_sweep(SMALL, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    assert r1.residuals == r2.residuals
    solves = [json.loads((tmp_path / d / "sweep.json").read_text())["solves"] for d in "ab"]
    assert [r["iterations"] for r in solves[0].values()] == [r["iterations"] for r in solves[1].values()]


def test_sweep_auto_effective_reference(tmp_path):
    report = run_sweep(AUTO, out_dir=tmp_path / "out")
    assert not report.partial
    summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
    # the circle's Fourier reference is exact, so the doubling stops at 128
    assert summary["effective_ns"] == report.effective_ns == 128
    assert 0.0 <= summary["effective_err"] <= AUTO_RTOL
    assert np.abs(np.array(report.mu_effective) - _direct_reference(256)).max() <= 1e-9


def test_sweep_partial_when_effective_reference_not_converged(tmp_path, monkeypatch):
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 64)
    report = run_sweep(AUTO)
    assert report.partial and report.effective_ns == 64
    assert list(report.failures) == ["effective"]
    assert "not converged" in report.failures["effective"]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(AUTO))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    summary = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert summary["partial"] is True and list(summary["failures"]) == ["effective"]
    assert summary["effective_ns"] == 64 and summary["effective_err"] is None


def test_sweep_threaded_matches_serial(tmp_path):
    serial = run_sweep(SMALL, out_dir=None, threads=1)
    threaded = run_sweep(SMALL, out_dir=None, threads=3)
    for eps in serial.mu_shell:
        assert np.allclose(serial.mu_shell[eps], threaded.mu_shell[eps], rtol=0, atol=1e-13)


def test_fit_stability_drop_largest_eps():
    # dropping the largest eps moves the intercept by less than 3 stderr
    cfg = SweepConfig.from_dict({**SMALL, "eps": [0.1, 0.08, 0.06, 0.045]})
    full = run_sweep(cfg)
    reduced = run_sweep(SweepConfig.from_dict({**SMALL, "eps": [0.08, 0.06, 0.045]}))
    change = abs(full.fits[0]["intercept"] - reduced.fits[0]["intercept"])
    assert change <= 3.0 * full.fits[0]["stderr_intercept"] + 1e-12


def test_run_corollary_small(tmp_path):
    report = run_corollary({**SMALL, "eps": [0.1, 0.08, 0.06, 0.045]}, out_dir=tmp_path / "out")
    assert len(report.linear_coeffs) == 1
    assert abs(report.linear_coeffs[0] - report.references[0]) <= 0.15 * abs(report.references[0])
    # pair split closes like h_s^2: ~2e-5 on this miniature grid, <1e-8 at
    # the production grid asserted in the acceptance suite
    assert max(report.pairing_defect.values()) <= 1e-4
    rows = (tmp_path / "out" / "corollary.csv").read_text().splitlines()
    assert rows[0] == "eps,p,lambda,linear_coeff_partial"
    # leading term: lambda_1 * eps near pi/4
    lam = report.lam[0.045][0]
    assert abs(lam * 0.045 - math.pi / 4.0) <= 0.02 * (math.pi / 4.0)


def _fail_below(monkeypatch, eps_cut):
    """Make every eps point below eps_cut fail its solve."""
    solve = cli.lowest_eigenvalues

    def flaky(asm, *args, **kwargs):
        if asm.metric.eps < eps_cut:
            raise EigensolveError("forced failure")
        return solve(asm, *args, **kwargs)

    monkeypatch.setattr(cli, "lowest_eigenvalues", flaky)


def test_corollary_partial_when_too_few_points_solve(monkeypatch):
    _fail_below(monkeypatch, 0.09)
    report = run_corollary(SMALL)
    assert report.partial
    assert report.linear_coeffs == [] and report.references == []
    assert list(report.lam) == [0.1]
    assert list(report.failures) == [0.08, 0.06]
    # a single eps point is a short list, not a crash, and no fit either
    single = run_corollary({**SMALL, "eps": [0.1]})
    assert single.partial and single.linear_coeffs == []


def test_sweep_partial_report(monkeypatch):
    _fail_below(monkeypatch, 0.07)
    report = run_sweep(SMALL)
    assert report.partial and report.fits == []
    assert list(report.failures) == [0.06]
    assert list(report.solves) == [0.1, 0.08]


def test_main_partial_exit_code(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(SMALL))
    _fail_below(monkeypatch, 0.07)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    assert json.loads((tmp_path / "s" / "sweep.json").read_text())["partial"] is True
    assert main(["corollary", "--config", str(cfg), "--out", str(tmp_path / "c")]) == EXIT_PARTIAL
    corollary = json.loads((tmp_path / "c" / "corollary.json").read_text())
    assert corollary["partial"] is True and list(corollary["failures"]) == ["0.06"]
    assert "partial" in capsys.readouterr().out


def test_corollary_needs_even_count():
    with pytest.raises(ConfigError):
        run_corollary({**SMALL, "count": 3})


def test_main_dump_clifford(capsys):
    assert main(["dump-clifford", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3 and payload["N"] == 4
    alphas = [
        np.array([[complex(re, im) for re, im in row] for row in a])
        for a in payload["alphas"]
    ]
    for j, aj in enumerate(alphas):
        for k, ak in enumerate(alphas):
            anti = aj @ ak + ak @ aj
            assert np.abs(anti - 2.0 * (j == k) * np.eye(4)).max() == 0.0


def test_main_transverse_table(tmp_path):
    out = tmp_path / "tt.csv"
    assert main(["transverse-table", "--m", "0,0.5", "--bands", "2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "m,p,k,E,N"
    assert len(rows) == 5
    first = rows[1].split(",")
    assert float(first[2]) == math.pi / 4.0


def test_main_effective_spectrum(tmp_path):
    out = tmp_path / "eff.csv"
    code = main(
        ["effective-spectrum", "--curve", '{"kind": "circle", "r": 1.0}', "--ns", "64",
         "--count", "4", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


def test_main_config_errors(tmp_path, capsys):
    assert main(["sweep", "--curve", str(tmp_path / "missing.json")]) == 2
    assert main(["sweep"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, "eps": [0.1, 0.2]}))
    assert main(["sweep", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({**SMALL, "eff_ns": 15}))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "eff_ns" in capsys.readouterr().err


def test_main_sweep_with_config_file(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(SMALL))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
