import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.sparse

from diracshell import checks, cli, effective, eigsolve, transverse
from diracshell.cli import (
    EXIT_PARTIAL,
    ConfigError,
    SweepConfig,
    main,
    run_sweep,
)
from diracshell.clifford import build_clifford
from diracshell.effective import AUTO_RTOL, assemble_effective, assemble_magnetic, effective_eigenvalues
from diracshell.eigsolve import DENSE_DIM_LIMIT, EigensolveError, dense_hermitian_eig
from diracshell.geometry import curve_from_json, shell_metric
from diracshell.shell import MAX_COUNT, MAX_DOF, MIN_NS, MIN_NT, assemble_shell, ladder_shift, lowest_eigenvalues
from diracshell.threads import set_blas_threads

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
    # the spin-up block values behind SMALL's paired levels
    curve = curve_from_json(SMALL["curve"])
    return effective_eigenvalues(assemble_effective(curve, n_s), SMALL["count"] // 2).eigenvalues


def test_config_validation(monkeypatch, capsys):
    cfg = SweepConfig.from_dict(SMALL)
    assert cfg.ns == 48 and cfg.nt is None
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "eps": [0.05, 0.1]})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "eps": [0.1, 0.1]})
    # the mass and the widths are finite numbers
    for bad in ({"m": -1.0}, {"m": math.nan}, {"m": math.inf}, {"eps": [math.inf, 0.1, 0.05]}):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({**SMALL, **bad})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "count": 0})
    assert SweepConfig.from_dict({**SMALL, "count": MAX_COUNT}).count == MAX_COUNT
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({**SMALL, "count": MAX_COUNT + 1})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"m": 0.0})
    with pytest.raises(ConfigError, match="a sweep config is a JSON object"):
        SweepConfig.from_dict([SMALL])
    # a misspelled field is an error naming it, never a silent default
    with pytest.raises(ConfigError, match="counts, eff_n, n_s"):
        SweepConfig.from_dict({"curve": SMALL["curve"], "eff_n": 64, "n_s": 48, "counts": 8})
    with pytest.raises(ConfigError, match="nt_"):
        SweepConfig.from_dict({**SMALL, "nt_": 8})
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
    # integer fields are integers, never truncated to a different grid
    for bad in ({"ns": 48.5}, {"nt": 8.5}, {"count": 2.7}, {"eff_ns": 256.9}, {"seed": 1.5},
                {"count": True}):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({**SMALL, **bad})
    # a JSON true is no mass or width either, never read as 1
    for bad in ({"m": True}, {"eps": [True, 0.5, 0.2]}, {"m": True, "eps": [True, 0.5, 0.2]}):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({**SMALL, "curve": {"kind": "circle", "r": 5.0}, **bad})
    integral = SweepConfig.from_dict({**SMALL, "ns": 48.0, "eff_ns": 256.0})
    assert (integral.ns, integral.eff_ns) == (48, 256) and isinstance(integral.ns, int)
    # a JSON string is no number, for m or a width
    for bad in ({"eps": ["0.1", "0.05"]}, {"m": "0.5"}):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({**SMALL, **bad})
    # a SweepConfig built directly is checked at construction, before any solve
    for bad in ({"eff_ns": None}, {"ns": 48.5}, {"count": 2.5}, {"nt": 8.5}, {"seed": 1.5},
                {"seed": -1}, {"m": None}, {"eps": 0.1}, {"eps": (0.1, "x")}, {"ns": 16},
                {"count": None}, {"count": "4"}, {"m": math.nan}, {"eff_ns": "bogus"},
                {"eps": (0.1, 0.1)}, {"eps": (0.05, 0.1)}, {"m": True}, {"eps": (True, 0.5)},
                {"eps": ("0.1", "0.05")}, {"m": "0.5"}, {"ns": "48"}):
        with pytest.raises(ConfigError):
            SweepConfig(curve=SMALL["curve"], **bad)
    # and normalized as the JSON path normalizes: integral floats become ints, m and eps floats
    for values in ({"ns": 48.0}, {"nt": 8.0, "count": 2.0, "seed": 3.0}, {"eff_ns": 256.0}, {"m": 1},
                   {"eps": [1, 0.5]}, {"eps": (0.1, 0.05)}, {}):
        direct = SweepConfig(curve=SMALL["curve"], **values)
        assert direct == SweepConfig.from_dict({"curve": SMALL["curve"], **values})
        assert all(type(getattr(direct, k)) is int for k in ("ns", "count", "seed"))
        assert type(direct.m) is float and all(type(e) is float for e in direct.eps)
    assert SweepConfig(curve=SMALL["curve"], m=1).m == 1.0
    assert SweepConfig(curve=SMALL["curve"], nt=8.0, eff_ns=256.0).nt == 8
    # and stays as checked: no field can be set, and a list of widths is kept as a tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = -1
    assert SweepConfig(curve=SMALL["curve"], eps=[0.1, 0.05]).eps == (0.1, 0.05)
    # a seed is a nonnegative integer (numpy's start vector takes no other)
    assert SweepConfig.from_dict({**SMALL, "seed": 0}).seed == 0
    with pytest.raises(ConfigError, match="seed"):
        SweepConfig.from_dict({**SMALL, "seed": -1})
    def no_solve(*args, **kwargs):
        raise AssertionError("the effective reference was computed for a bad config")

    monkeypatch.setattr(cli, "converged_eigenvalues", no_solve)
    with pytest.raises(ConfigError, match="seed"):
        run_sweep({**SMALL, "seed": -1})
    assert main(["sweep", "--curve", json.dumps(SMALL["curve"]), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error: seed")


def test_config_checks_and_copies_its_curve():
    # a curve that is not a JSON object with a kind is a config error at construction
    for bad in (5, None, "circle", '{"kind": "circle", "r": 1.0}', [], {}, {"r": 1.0}):
        with pytest.raises(ConfigError, match="curve must be a JSON object with a kind"):
            SweepConfig(curve=bad)
    with pytest.raises(ConfigError, match="curve"):
        SweepConfig.from_dict({**SMALL, "curve": 5})
    # the config holds a copy: changing the caller's dict afterwards does not change the job
    circle = {"kind": "circle", "r": 1.0}
    cfg = SweepConfig(curve=circle)
    circle["r"] = 2.0
    assert cfg.curve == {"kind": "circle", "r": 1.0}
    fourier = {"kind": "fourier", "coeffs": [[1.0, 0.0, 0.1, 0.0]]}
    cfg = SweepConfig.from_dict({**SMALL, "curve": fourier})
    fourier["coeffs"][0][2] = 0.5
    assert cfg.curve["coeffs"] == [[1.0, 0.0, 0.1, 0.0]]


def _accepts(call):
    try:
        call()
    except ValueError:  # ConfigError is a ValueError
        return False
    return True


def test_config_and_assemblers_share_the_grid_minimums():
    # a SweepConfig admits exactly the grids the assemblies accept, at the boundary
    fam = build_clifford(2)
    curve = curve_from_json(SMALL["curve"])
    met = shell_metric(curve, SMALL["eps"][0])
    for ns, nt in ((MIN_NS - 1, MIN_NT), (MIN_NS, MIN_NT - 1), (MIN_NS, MIN_NT)):
        config = _accepts(lambda: SweepConfig(curve=SMALL["curve"], ns=ns, nt=nt))
        assembly = _accepts(lambda: assemble_shell(fam, met, 0.0, ns, nt))
        assert config == assembly == (ns >= MIN_NS and nt >= MIN_NT)
    for eff_ns in (effective.MIN_NS - 2, effective.MIN_NS - 1, effective.MIN_NS, effective.MIN_NS + 1):
        config = _accepts(lambda: SweepConfig(curve=SMALL["curve"], eff_ns=eff_ns))
        assembly = _accepts(lambda: assemble_effective(curve, eff_ns))
        assert config == assembly == (eff_ns == effective.MIN_NS)
    # and exactly the sizes whose block, of dim eff_ns - 1, the dense oracle takes; a
    # count of 0 makes the oracle refuse each block, but only a block above its cap as that
    for eff_ns in (DENSE_DIM_LIMIT, DENSE_DIM_LIMIT + 2):
        config = _accepts(lambda: SweepConfig(curve=SMALL["curve"], eff_ns=eff_ns))
        with pytest.raises(ValueError) as refusal:
            dense_hermitian_eig(scipy.sparse.identity(eff_ns - 1, format="csr"), count=0)
        assert config == ("capped" not in str(refusal.value)) == (eff_ns == DENSE_DIM_LIMIT)


def test_config_checks_each_eps_at_construction():
    # every per-eps rule that needs no curve refuses the config itself, before a sweep is called
    with pytest.raises(ConfigError, match=f"eps=1e-06: grid too fine: .* above {MAX_DOF}"):
        SweepConfig(curve=SMALL["curve"], eps=(1e-6,), ns=32)
    with pytest.raises(ConfigError, match="eps=1e-200, .*the transverse level .* is not a finite float"):
        SweepConfig(curve=SMALL["curve"], eps=(1e-200,))
    # the level is finite, but the residual norm would square it out of range
    with pytest.raises(ConfigError, match=r"eps=0.1, m=1e\+100: the transverse level 1e\+200 squared is not"):
        SweepConfig(curve=SMALL["curve"], m=1e100)
    assert SweepConfig(curve=SMALL["curve"], m=1e70).m == 1e70


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
    assert summary["partial"] is False and summary["no_fit_reason"] is None
    # each verdict carries its fit's intercept standard error
    assert [v["stderr_intercept"] for v in summary["verdicts"]] == [f["stderr_intercept"] for f in report.fits]
    assert all(v["stderr_intercept"] > 0.0 for v in summary["verdicts"])
    # one certified solve record per eps, its keys in a fixed order
    assert sorted(summary["solves"]) == sorted(repr(e) for e in SMALL["eps"])
    assert list(report.solves[0.1]) == [
        "ns", "nt", "dof", "shift", "negative_pivots", "factorizations", "iterations", "residual_max",
        "factor_s", "assemble_s", "solve_s",
    ]
    for eps in SMALL["eps"]:
        rec = summary["solves"][repr(eps)]
        # the grid assembled: nt follows eps through default_nt
        assert (rec["ns"], rec["nt"]) == (48, max(8, math.ceil(4.0 / math.sqrt(eps))))
        assert rec["dof"] == 4 * rec["ns"] * rec["nt"]
        assert rec["negative_pivots"] == 0
        assert rec["shift"] < report.mu_shell[eps][0]
        assert 0.0 < rec["residual_max"] <= 1e-8
        assert rec["assemble_s"] > 0.0 and rec["solve_s"] > 0.0
        # the inertia calls of a solve, a part of its seconds
        assert 0.0 < rec["factor_s"] < rec["solve_s"]
        assert rec["iterations"] > 0
    # run record: the job, effective reference time, size and residual, versions, BLAS threads in effect
    assert summary["config"] == {**SMALL, "nt": None, "seed": 0} and "m" not in summary and "eps" not in summary
    assert summary["effective_s"] > 0.0
    # eff_ns 256 caps the doubling, which stops at 128: the circle's Fourier reference is exact
    assert summary["effective_ns"] == 128 and 0.0 <= summary["effective_err"] <= AUTO_RTOL
    assert 0.0 < summary["effective_residual_max"] <= 1e-10
    assert np.abs(np.array(report.mu_effective) - np.repeat(_direct_reference(256), 2)).max() <= 1e-9
    assert summary["versions"] == {"numpy": np.__version__, "scipy": scipy.__version__}
    assert summary["blas_threads"] == set_blas_threads()
    assert set(summary["blas_threads"]["env"]) >= {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one core whatever it is asked")
def test_run_sweep_runs_blas_on_one_thread():
    # run_sweep called from Python, not through main, in a process started with
    # OPENBLAS_NUM_THREADS=2: each OpenBLAS copy records one thread for its solves
    code = (
        "import json, sys, numpy; from diracshell.cli import run_sweep; "
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name']; "
        "print(json.dumps([blas, run_sweep(json.loads(sys.argv[1])).blas_threads['openblas']]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(SMALL)], env=env, capture_output=True, text=True, check=True
    )
    blas, counts = json.loads(out.stdout)
    if blas != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas}, not scipy-openblas")
    assert counts and set(counts.values()) == {1}


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
    assert summary["effective_ns"] == report.effective.n_s == 128
    assert 0.0 <= summary["effective_err"] <= AUTO_RTOL
    assert np.abs(np.array(report.mu_effective) - np.repeat(_direct_reference(256), 2)).max() <= 1e-9


def test_sweep_partial_when_effective_reference_not_converged(tmp_path):
    # below 128 the cap admits one size only, so the reference is never checked
    job = {**SMALL, "eff_ns": 64}
    report = run_sweep(job)
    assert report.partial and report.effective.n_s == 64 and not report.effective.converged
    assert list(report.failures) == ["effective"]
    assert "not converged" in report.failures["effective"]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    summary = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert summary["partial"] is True and list(summary["failures"]) == ["effective"]
    assert summary["effective_ns"] == 64 and summary["effective_err"] is None


def test_unconverged_reference_names_the_size_solved_and_the_cap():
    # eff_ns 100 admits 64 only: the message gives the size solved and the cap apart
    report = run_sweep({**SMALL, "eff_ns": 100})
    assert report.effective.n_s == 64 and report.effective.cap == 100
    assert report.failures["effective"] == (
        "effective reference not converged by n_s=64 (cap 100): last change None"
    )


def test_sweep_reference_stays_within_eff_ns(monkeypatch):
    # eff_ns caps the doubling of the one converged reference: no larger size is
    # assembled, and a reference that has not converged within it makes the report partial
    sizes = []
    assemble = effective.assemble_effective

    def recording(curve, n_s, *args, **kwargs):
        sizes.append(n_s)
        return assemble(curve, n_s, *args, **kwargs)

    monkeypatch.setattr(effective, "assemble_effective", recording)
    assert not run_sweep(SMALL).partial and sizes == [64, 128]
    ellipse = {**SMALL, "curve": {"kind": "ellipse", "a": 2.0, "b": 1.0}}
    # 64 -> 128 still moves the ellipse's values by about 5e-10, and 16 alone is 4e-4 off
    for eff_ns, solved in ((200, [64, 128]), (16, [16])):
        sizes.clear()
        report = run_sweep({**ellipse, "eff_ns": eff_ns})
        assert sizes == solved and report.effective.n_s == solved[-1]
        assert report.partial and list(report.failures) == ["effective"] and len(report.fits) == 2


def test_sweep_shift_at_the_predicted_level():
    # each solve is shifted just below the lowest eigenvalue that the effective
    # reference predicts, above the ladder shift, and certifies at the first
    # factorization; ARPACK then needs fewer applications than at the ladder
    # shift (both counts repeat exactly for a fixed seed)
    report = run_sweep(SMALL)
    fam = build_clifford(2)
    curve = curve_from_json(SMALL["curve"])
    for eps, rec in report.solves.items():
        asm = assemble_shell(fam, shell_metric(curve, eps), SMALL["m"], SMALL["ns"])
        at_ladder = lowest_eigenvalues(asm, SMALL["count"], seed=0)
        assert ladder_shift(asm) < rec["shift"] < report.mu_shell[eps][0]
        assert rec["factorizations"] == 1 and rec["negative_pivots"] == 0
        assert rec["iterations"] < at_ladder.iterations
        assert np.abs(np.array(report.mu_shell[eps]) - [v for v, _ in at_ladder]).max() <= 1e-10


def test_sweep_falls_back_to_the_ladder_shift_at_large_mass():
    # at m = 3 the predicted shift lies above the lowest shell eigenvalue, so
    # each solve's first factorization fails to certify and the second, at the
    # ladder shift, succeeds; the eigenvalues still match the dense oracle
    job = {"curve": SMALL["curve"], "m": 3.0, "eps": [0.8, 0.6, 0.4], "ns": 32, "count": 4}
    report = run_sweep(job)
    assert not report.partial
    fam = build_clifford(2)
    curve = curve_from_json(job["curve"])
    for eps, rec in report.solves.items():
        asm = assemble_shell(fam, shell_metric(curve, eps), job["m"], job["ns"])
        assert rec["factorizations"] == 2 and rec["shift"] == ladder_shift(asm)
        assert rec["iterations"] == 35
    dense = dense_hermitian_eig(asm.pencil.a, asm.pencil.b, count=job["count"]).eigenvalues
    assert np.abs(np.array(report.mu_shell[0.4]) - dense).max() <= 1e-10


def test_sweep_json_solve_record_is_the_solve_record(tmp_path):
    # each written solve record, less its grid, dof and seconds, is the record
    # of the same solve made directly: same assembly, count, seed and level
    report = run_sweep(SMALL, out_dir=tmp_path)
    solves = json.loads((tmp_path / "sweep.json").read_text())["solves"]
    fam = build_clifford(2)
    curve = curve_from_json(SMALL["curve"])
    for eps in SMALL["eps"]:
        asm = assemble_shell(fam, shell_metric(curve, eps), SMALL["m"], SMALL["ns"])
        direct = lowest_eigenvalues(asm, SMALL["count"], seed=0, level=report.mu_effective[0])
        own = ("ns", "nt", "dof", "factor_s", "assemble_s", "solve_s")
        written = {k: v for k, v in solves[repr(eps)].items() if k not in own}
        assert written == {k: v for k, v in direct.record().items() if k not in own}


def test_sweep_json_config_reruns_the_job(tmp_path):
    # the config block of a written sweep.json is a job config: run again, it
    # gives the same sweep.csv bytes, and its record holds the same config
    # (nt null: the per-eps rule)
    job = {**SMALL, "seed": 3}
    run_sweep(job, out_dir=tmp_path / "first")
    config = json.loads((tmp_path / "first" / "sweep.json").read_text())["config"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "again")]) == 0
    first, again = ((tmp_path / d / "sweep.csv").read_bytes() for d in ("first", "again"))
    assert first == again
    assert json.loads((tmp_path / "again" / "sweep.json").read_text())["config"] == config
    assert SweepConfig.from_dict(config) == SweepConfig.from_dict(job)


def test_a_sweep_solves_each_transverse_root_twice_per_eps(monkeypatch):
    # once when the config checks the eps, once for the assembly's ground level,
    # which the shift ladder, the predicted shift and the residuals all read
    calls = []
    solve_k = transverse.solve_k

    def counted(m, p):
        calls.append((m, p))
        return solve_k(m, p)

    monkeypatch.setattr(transverse, "solve_k", counted)
    job = {**SMALL, "m": 0.5}
    assert not run_sweep(job).partial
    assert calls == [(0.5 * eps, 1) for eps in job["eps"]] * 2


def test_sweep_residual_is_mu_less_the_transverse_level():
    report = run_sweep({**SMALL, "m": 0.5})
    for eps, mus in report.mu_shell.items():
        assert report.residuals[eps] == [mu - transverse.level(0.5, eps) for mu in mus]


def test_massless_sweep_keeps_the_closed_form_residuals(tmp_path):
    # at m = 0 the level is pi^2/(16 eps^2) bit for bit, so the residuals, the
    # fits and the sweep.csv bytes are those of the closed-form ladder
    report = run_sweep(SMALL, out_dir=tmp_path)
    closed = {eps: [mu - math.pi**2 / (16.0 * eps**2) for mu in mus] for eps, mus in report.mu_shell.items()}
    assert report.residuals == closed
    eps = np.array(SMALL["eps"])
    for j, fit in enumerate(report.fits):
        assert fit == cli._affine_fit(eps, np.array([closed[e][j] for e in SMALL["eps"]]))
    rows = ["eps,j,mu_shell,residual,mu_eff_ref"] + [
        f"{e!r},{j + 1},{mu!r},{closed[e][j]!r},{report.mu_effective[j]!r}"
        for e in SMALL["eps"]
        for j, mu in enumerate(report.mu_shell[e])
    ]
    assert (tmp_path / "sweep.csv").read_bytes() == ("\r\n".join(rows) + "\r\n").encode()


def test_fit_stability_drop_largest_eps():
    # dropping the largest eps moves the intercept by less than 3 stderr
    cfg = SweepConfig.from_dict({**SMALL, "eps": [0.1, 0.08, 0.06, 0.045]})
    full = run_sweep(cfg)
    reduced = run_sweep(SweepConfig.from_dict({**SMALL, "eps": [0.08, 0.06, 0.045]}))
    change = abs(full.fits[0]["intercept"] - reduced.fits[0]["intercept"])
    assert change <= 3.0 * full.fits[0]["stderr_intercept"] + 1e-12


def test_run_corollary_small(tmp_path):
    cor = run_sweep({**SMALL, "eps": [0.1, 0.08, 0.06, 0.045]}, out_dir=tmp_path / "out").corollary
    assert len(cor["linear_coeffs"]) == 1
    assert abs(cor["linear_coeffs"][0] - cor["references"][0]) <= 0.15 * abs(cor["references"][0])
    # pair split closes like h_s^2: ~2e-5 on this miniature grid, <1e-8 at
    # the production grid asserted in the acceptance suite
    assert max(cor["pairing_defect"].values()) <= 1e-4
    rows = (tmp_path / "out" / "corollary.csv").read_text().splitlines()
    assert rows[0] == "eps,p,lambda,linear_coeff_partial"
    # leading term: lambda_1 * eps near pi/4
    lam = cor["lam"][0.045][0]
    assert abs(lam * 0.045 - math.pi / 4.0) <= 0.02 * (math.pi / 4.0)


def test_corollary_subtracts_the_transverse_energy(tmp_path):
    # lambda_p less E_1(m eps)/eps, the square root of the level, leaves (2/pi) mu_{2p} eps
    job = {**SMALL, "m": 0.5, "eps": [0.1, 0.08, 0.06, 0.045], "count": 4}
    report = run_sweep(job, out_dir=tmp_path)
    cor = report.corollary
    mu_eff = report.mu_effective
    assert cor["references"] == [(2.0 / math.pi) * mu_eff[2 * p + 1] for p in range(2)]
    rows = list(csv.reader((tmp_path / "corollary.csv").read_text().splitlines()))[1:]
    assert len(rows) == 8
    for eps, p, lam, partial in rows:
        eps, lam = float(eps), float(lam)
        assert lam == cor["lam"][eps][int(p) - 1]
        assert float(partial) == (lam - math.sqrt(transverse.level(0.5, eps))) / eps
    for p, coeff in enumerate(cor["linear_coeffs"]):
        ys = [cor["lam"][e][p] - math.sqrt(transverse.level(0.5, e)) for e in job["eps"]]
        assert coeff == cli._affine_fit(np.array(job["eps"]), np.array(ys))["slope"]
        assert abs(coeff - cor["references"][p]) <= 0.15 * abs(cor["references"][p])


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
    report = run_sweep(SMALL)
    cor = report.corollary
    assert cor["partial"]
    assert cor["linear_coeffs"] == [] and cor["references"] == []
    assert list(cor["lam"]) == [0.1]
    assert list(report.failures) == [0.08, 0.06]
    assert cor["no_fit_reason"] == "1 of 3 eps solved; the corollary fit needs 2"
    # a single eps point is a short list, not a crash, and no fit either
    single = run_sweep({**SMALL, "eps": [0.1]}).corollary
    assert single["partial"] and single["linear_coeffs"] == []


def test_sweep_partial_report(monkeypatch):
    _fail_below(monkeypatch, 0.07)
    report = run_sweep(SMALL)
    assert report.partial and report.fits == []
    assert list(report.failures) == [0.06]
    assert list(report.solves) == [0.1, 0.08]


def test_sweep_without_a_fit_says_why(tmp_path, capsys):
    # two eps solve and none fails: the sweep has no fit, is partial and says
    # why, outside ``failures``; the corollary block's two-point fit runs, not partial
    two = {**SMALL, "eps": [0.1, 0.08]}
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(two))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    reason = "2 of 2 eps solved; the affine fit needs 3"
    assert capsys.readouterr().out.splitlines()[-1] == f"warning: report is partial; {reason}"
    summary = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert summary["partial"] is True and summary["failures"] == {} and summary["verdicts"] == []
    assert summary["no_fit_reason"] == reason
    corollary = summary["corollary"]
    assert corollary["partial"] is False and corollary["no_fit_reason"] is None
    assert len(corollary["linear_coeffs"]) == 1


def test_main_partial_exit_code(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(SMALL))
    _fail_below(monkeypatch, 0.07)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    summary = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert summary["partial"] is True
    assert summary["corollary"]["partial"] is True and list(summary["failures"]) == ["0.06"]
    assert "partial" in capsys.readouterr().out


def _arpack_fails_on_the_third_solve(monkeypatch):
    # SMALL's eps are solved in order, so the third shift-invert solve is eps = 0.06
    eigs = eigsolve.spla.eigs
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise eigsolve.spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return eigs(*args, **kwargs)

    monkeypatch.setattr(eigsolve.spla, "eigs", flaky)


def test_arpack_failure_is_a_partial_report(tmp_path, monkeypatch):
    _arpack_fails_on_the_third_solve(monkeypatch)
    report = run_sweep(SMALL)
    assert report.partial and list(report.failures) == [0.06] and list(report.solves) == [0.1, 0.08]
    assert report.failures[0.06].startswith("ARPACK failed at shift ")
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(SMALL))
    _arpack_fails_on_the_third_solve(monkeypatch)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == EXIT_PARTIAL
    summary = json.loads((tmp_path / "s" / "sweep.json").read_text())
    assert summary["partial"] is True and list(summary["failures"]) == ["0.06"]


def test_corollary_needs_even_count(tmp_path):
    # the corollary pairs the spectrum 2p-1, 2p: an odd count gives no block and no corollary.csv
    report = run_sweep({**SMALL, "count": 3}, out_dir=tmp_path)
    assert report.corollary is None
    assert json.loads((tmp_path / "sweep.json").read_text())["corollary"] is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.json"]


def test_odd_count_removes_an_earlier_corollary_csv(tmp_path):
    # an even-count run then an odd-count run into one directory: no corollary.csv
    # is left beside a sweep.json whose corollary is null
    run_sweep({**SMALL, "count": 2}, out_dir=tmp_path)
    assert (tmp_path / "corollary.csv").exists()
    run_sweep({**SMALL, "count": 3}, out_dir=tmp_path)
    assert json.loads((tmp_path / "sweep.json").read_text())["corollary"] is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.json"]


def test_corollary_verb_is_a_usage_error(capsys):
    # the corollary is a block of the sweep's report; there is no verb of its own
    with pytest.raises(SystemExit) as exc:
        main(["corollary", "--curve", CIRCLE])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: diracshell")


def test_dump_clifford_out_writes_what_stdout_prints(tmp_path, capsys):
    assert main(["dump-clifford", "--n", "3"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "clifford.json"
    assert main(["dump-clifford", "--n", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() + "\n" == printed


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
    # the [re, im] pairs restore every matrix exactly
    assert len(alphas) == 4
    assert all(np.array_equal(a, back) for a, back in zip(build_clifford(3).alphas, alphas))


def test_main_transverse_table(tmp_path):
    out = tmp_path / "tt.csv"
    assert main(["transverse-table", "--m", "0,0.5", "--bands", "2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "m,p,k,E,N"
    assert len(rows) == 5
    first = rows[1].split(",")
    assert float(first[2]) == math.pi / 4.0


def test_transverse_table_keeps_tiny_mass_roots_in_their_bands(tmp_path):
    # band 7 used to read k = E = 1.0675904604795505e-12 at m = 1e-20
    out = tmp_path / "tt.csv"
    assert main(["transverse-table", "--m", "1e-20", "--bands", "8", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[7] == "1e-20,7,10.210176124166829,10.210176124166829,0.048970751720583176"
    for row in rows[1:]:
        _, p, k, _, _ = row.split(",")
        lo, hi = transverse.bracket(int(p))
        assert lo <= float(k) <= hi


def test_transverse_table_normalization_out_of_double_range_is_a_config_error(tmp_path, capsys):
    # N = 1/sqrt(2*val) with 2*val about 4 E_1(m)^2, which overflows for m = 1e200:
    # the verb exits 2 naming the mass and writes nothing, never N = 0.0
    out = tmp_path / "tt.csv"
    assert main(["transverse-table", "--m", "0,1e200", "--bands", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: --m: normalization at m=1e+200, p=1: 4 E_p(m)^2 is not a finite float\n")
    assert not out.exists()
    # at m = 1e150, 4 E^2 = 4e300 is finite and N is 1/(2m)
    assert main(["transverse-table", "--m", "1e150", "--bands", "1", "--out", str(out)]) == 0
    n = float(out.read_text().splitlines()[1].split(",")[4])
    assert abs(n - 1.0 / (2.0 * 1e150)) <= 1e-15 * n


def test_main_effective_spectrum(tmp_path):
    out = tmp_path / "eff.csv"
    code = main(
        ["effective-spectrum", "--curve", '{"kind": "circle", "r": 1.0}', "--ns", "64",
         "--count", "4", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 5


def test_effective_csv_cells_are_the_checked_eigenvalues(tmp_path):
    # every value cell is a plain float: the block eigenvalue it came from, never np.float64(...)
    out = tmp_path / "eff.csv"
    assert main(["effective-spectrum", "--curve", CIRCLE, "--ns", "128", "--count", "6", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["index", "mu_effective", "mu_magnetic_pair", "abs_diff"]
    assert len(rows) == 7
    # each row pair holds one value of each block, solved directly
    curve = curve_from_json(SMALL["curve"])
    mu_eff = effective_eigenvalues(assemble_effective(curve, 128), 3).eigenvalues
    mu_mag = effective_eigenvalues(assemble_magnetic(curve, 128), 3).eigenvalues
    for i, (index, cell_eff, cell_mag, diff) in enumerate(rows[1:]):
        a, b = mu_eff[i // 2], mu_mag[i // 2]
        assert int(index) == i + 1
        assert (float(cell_eff), float(cell_mag), float(diff)) == (a, b, abs(a - b))
    assert max(float(row[3]) for row in rows[1:]) == float(np.abs(mu_eff - mu_mag).max()) <= 1e-8


def test_effective_spectrum_runs_no_gauge_check(tmp_path, monkeypatch, capsys):
    # the verb solves the two blocks it writes; the link scheme, which only the
    # gauge check assembles, is never built, and the CSV and its line stay the same
    argv = ["effective-spectrum", "--curve", CIRCLE, "--ns", "64", "--count", "4", "--out"]
    assert main([*argv, str(tmp_path / "plain.csv")]) == 0
    plain = capsys.readouterr().out

    def no_link(*args, **kwargs):
        raise AssertionError("effective-spectrum assembled the link scheme")

    monkeypatch.setattr(effective, "_link_block", no_link)
    assert main([*argv, str(tmp_path / "patched.csv")]) == 0
    assert capsys.readouterr().out == plain.replace("plain.csv", "patched.csv")
    assert (tmp_path / "patched.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_effective_spectrum_names_the_curve_that_is_not_closed(capsys):
    # exit 2 before any assembly is BAD_INVOCATIONS' effective-curve-not-closed; the message names the curve
    assert main(["effective-spectrum", "--curve", '{"kind": "strip", "length": 6.28}']) == 2
    assert capsys.readouterr().err == ("config error: effective-spectrum needs a closed curve of total curvature "
                                       "-2*pi; strip(6.28) has total curvature 0\n")


def test_main_config_errors(tmp_path, capsys):
    assert main(["sweep", "--curve", str(tmp_path / "missing.json")]) == 2
    assert main(["sweep"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, "eps": [0.1, 0.2]}))
    assert main(["sweep", "--config", str(bad)]) == 2
    bad.write_text(json.dumps({**SMALL, "eff_ns": 15}))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "eff_ns" in capsys.readouterr().err
    bad.write_text(json.dumps({**SMALL, "coutn": 4}))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "coutn" in capsys.readouterr().err
    # a config file holds one JSON object, and a job has a curve from it or from --curve
    for payload in ([SMALL], 5, {k: v for k, v in SMALL.items() if k != "curve"}):
        bad.write_text(json.dumps(payload))
        assert main(["sweep", "--config", str(bad)]) == 2
    assert "Traceback" not in capsys.readouterr().err


CIRCLE = json.dumps(SMALL["curve"])


def test_eff_ns_and_ns_refusals_print_the_one_grid_rule(tmp_path, capsys):
    # the sweep's eff_ns and effective-spectrum's --ns are refused with the same rule text
    with pytest.raises(ValueError) as refusal:
        effective.checked_ns(15)
    rule = str(refusal.value)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({**SMALL, "eff_ns": 15}))
    assert main(["sweep", "--config", str(config)]) == 2
    sweep = capsys.readouterr().err
    assert main(["effective-spectrum", "--curve", CIRCLE, "--ns", "15"]) == 2
    spectrum = capsys.readouterr().err
    assert sweep.startswith("config error: eff_ns") and spectrum.startswith("config error: --ns")
    assert rule in sweep and rule in spectrum and "15" in rule
# "{config}" stands for a job config whose curve is the number 5
BAD_INVOCATIONS = {
    "curve-lacks-radius": ["sweep", "--curve", '{"kind": "circle"}'],
    "curve-negative-radius": ["sweep", "--curve", '{"kind": "circle", "r": -1}'],
    "curve-unknown-kind": ["sweep", "--curve", '{"kind": "blob"}'],
    "curve-unknown-key": ["sweep", "--curve", '{"kind": "circle", "r": 1.0, "a": 5.0}'],
    "curve-not-an-object": ["sweep", "--config", "{config}"],
    "eps-empty-entry": ["sweep", "--curve", CIRCLE, "--eps", "0.1,,0.05"],
    "eps-beyond-guard": ["sweep", "--curve", CIRCLE, "--eps", "0.95,0.5,0.3"],
    "eps-not-a-number": ["sweep", "--curve", CIRCLE, "--eps", "nan,0.1"],
    "eps-infinite": ["sweep", "--curve", '{"kind": "strip", "length": 6}', "--eps", "inf,0.1,0.05"],
    "mass-not-a-number": ["sweep", "--curve", CIRCLE, "--m", "nan"],
    "effective-odd-ns": ["effective-spectrum", "--curve", CIRCLE, "--ns", "15"],
    "effective-bad-curve": ["effective-spectrum", "--curve", '{"kind": "circle", "r": -1}'],
    "masses-not-numbers": ["transverse-table", "--m", "a"],
    "mass-negative": ["transverse-table", "--m", "-1"],
    "mass-infinite": ["transverse-table", "--m", "0,inf"],
    "eps-empty": ["sweep", "--curve", CIRCLE, "--eps", ""],
    "flag-overrides-with-bad-value": ["sweep", "--config", "{config}", "--curve", CIRCLE, "--count", "0"],
    "bands-zero": ["transverse-table", "--bands", "0"],
    "effective-count-beyond-block": ["effective-spectrum", "--curve", CIRCLE, "--ns", "16", "--count", "40"],
    "clifford-n-zero": ["dump-clifford", "--n", "0"],
    "seed-negative": ["sweep", "--curve", CIRCLE, "--seed", "-1"],
    "curve-radius-not-a-number": ["sweep", "--curve", '{"kind": "circle", "r": NaN}'],
    "curve-radius-infinite": ["sweep", "--curve", '{"kind": "circle", "r": Infinity}'],
    "curve-radius-true": ["sweep", "--curve", '{"kind": "circle", "r": true}'],
    "curve-radius-string": ["sweep", "--curve", '{"kind": "circle", "r": "2"}'],
    "curve-coefficient-not-a-number": ["sweep", "--curve", '{"kind": "fourier", "coeffs": [[1, NaN, 0]]}'],
    "curve-wavenumber-fractional": ["sweep", "--curve", '{"kind": "fourier", "coeffs": [[1.7, 1, 0]]}'],
    "curve-strip-infinite": ["sweep", "--curve", '{"kind": "strip", "length": Infinity}'],
    "effective-curve-not-a-number": ["effective-spectrum", "--curve", '{"kind": "ellipse", "a": 2, "b": NaN}'],
    # the magnetic operator's flux assumes total curvature -2*pi; a strip has 0
    "effective-curve-not-closed": ["effective-spectrum", "--curve", '{"kind": "strip", "length": 6.28}'],
    # eps^2 underflows to 0, so the transverse level divides by zero (and default_nt asks for 4e100 cells)
    "eps-level-underflows": ["sweep", "--curve", CIRCLE, "--ns", "32", "--eps", "1e-200,1e-201,1e-202"],
    "eps-level-underflows-fixed-nt": [
        "sweep", "--curve", CIRCLE, "--ns", "32", "--nt", "8", "--eps", "1e-200,1e-201,1e-202"
    ],
    "mass-level-overflows": ["sweep", "--curve", CIRCLE, "--ns", "32", "--m", "1e200"],
    "eps-grid-above-max-dof": ["sweep", "--curve", CIRCLE, "--ns", "32", "--eps", "1e-6,9e-7,8e-7"],
    # the level is finite but its square is not, so the residual norm would overflow
    "mass-residual-overflows": ["sweep", "--curve", CIRCLE, "--ns", "32", "--m", "1e100"],
}


@pytest.mark.parametrize("curve", [
    {"kind": "circle", "r": 1e150}, {"kind": "ellipse", "a": 1e-300, "b": 1}, {"kind": "circle", "r": 1e300},
], ids=["kappa-overflows", "kappa-underflows", "length-overflows"])
@pytest.mark.parametrize("verb", [
    ["sweep", "--eps", "0.1,0.07,0.05", "--ns", "32", "--count", "2"], ["effective-spectrum"],
], ids=["sweep", "effective-spectrum"])
def test_curve_out_of_double_range_is_a_config_error(verb, curve, tmp_path, monkeypatch, capsys):
    # a curve whose length or curvature left double range exits 2 naming it,
    # never a sweep of the wrong curve or a traceback, and writes nothing
    monkeypatch.chdir(tmp_path)
    assert main([verb[0], "--curve", json.dumps(curve), *verb[1:]]) == 2
    err = capsys.readouterr().err
    name = f"{curve['kind']}({','.join(f'{v:g}' for k, v in curve.items() if k != 'kind')})"
    assert err.startswith(f"config error: {name} is out of double range") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("length, eff_ns", [(1e-300, "auto"), (1e-152, "auto"), (1e-300, 64), (1e-100, "auto")])
def test_strip_too_short_for_the_reference_is_a_config_error(length, eff_ns, tmp_path, monkeypatch, capsys):
    # the reference's largest mode (pi*cap/L)^2 overflows, or at 1e-100 its square
    # does (the residual norm squares it), so the sweep exits 2 naming the length
    # and the cap before any solve, never a traceback, and writes nothing
    monkeypatch.chdir(tmp_path)
    config = {"curve": {"kind": "strip", "length": length}, "eps": [0.1, 0.07, 0.05], "ns": 32, "count": 2,
              "eff_ns": eff_ns}
    (tmp_path / "job.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", "job.json", "--out", "out"]) == 2
    cap = effective.AUTO_NS_CAP if eff_ns == "auto" else eff_ns
    rule = "= 1.03e+207 squared is not a finite float" if length == 1e-100 else "overflows"
    assert capsys.readouterr().err == (f"config error: curve length {length!r} is too short: the effective "
                                       f"reference's largest mode (pi*{cap}/L)^2 {rule}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_effective_spectrum_applies_the_length_rule(tmp_path, monkeypatch, capsys):
    # the sweep's length rule at --ns: a curve so short that (pi*ns/L)^2 squared overflows
    # exits 2 on one line before --out is opened, with no overflowing assembly
    monkeypatch.chdir(tmp_path)
    assert main(["effective-spectrum", "--curve", '{"kind": "circle", "r": 1e-100}', "--out", "eff.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: curve length") and "(pi*512/L)^2" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["m", "eps"])
def test_integer_beyond_double_range_is_a_config_error(key, tmp_path, monkeypatch, capsys):
    # a mass or width written as 1 followed by 400 zeros is refused as geometry._real refuses
    # a curve parameter, never left to fail in float(): exit 2, one line, nothing written
    value = 10**400 if key == "m" else [10**400]
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        SweepConfig(curve=SMALL["curve"], **{key: value})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text(json.dumps({**SMALL, key: value}))
    assert main(["sweep", "--config", "job.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--curve", "[1,2]", "--ns", "32"],
    ["effective-spectrum", "--curve", "[1,2]"],
], ids=["sweep", "effective-spectrum"])
def test_curve_given_as_a_json_array_is_a_wrong_type(argv, tmp_path, monkeypatch, capsys):
    # an inline JSON array is read as JSON and refused as not a curve object, not looked up as a file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: curve") and "must be a JSON object" in err and "[1, 2]" in err


@pytest.mark.parametrize("verb", [["sweep", "--ns", "32"], ["effective-spectrum"]], ids=["sweep", "effective-spectrum"])
@pytest.mark.parametrize("text, file, expected", [
    ("5", None, ("config error: curve", "must be a JSON object", "got 5\n")),
    ("5", '{"kind": "blob"}', ("config error: unknown curve config kind 'blob'\n",)),
    ("nofile.json", None, ("config error: [Errno 2] No such file or directory: 'nofile.json'\n",)),
], ids=["number", "file-named-5", "missing-file"])
def test_curve_text_is_a_path_before_it_is_json(verb, text, file, expected, tmp_path, monkeypatch, capsys):
    # text that does not start with { or [ names a file; only when no such file
    # exists is it read as JSON, so a bare 5 is refused by type, not as a missing file
    monkeypatch.chdir(tmp_path)
    if file is not None:
        (tmp_path / text).write_text(file)
    assert main([*verb, "--curve", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith(expected[0]) and all(part in err for part in expected) and "Traceback" not in err


@pytest.mark.parametrize("argv", BAD_INVOCATIONS.values(), ids=BAD_INVOCATIONS)
def test_main_bad_option_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    # exit 2 with a one-line message before any solve, never a traceback or an output file
    def no_solve(*args, **kwargs):
        raise AssertionError("the effective reference was computed for a bad option")

    monkeypatch.setattr(cli, "converged_eigenvalues", no_solve)
    monkeypatch.setattr(cli, "effective_eigenvalues", no_solve)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({**SMALL, "curve": 5}))
    monkeypatch.chdir(tmp_path)
    assert main([arg.replace("{config}", str(config)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_effective_size_above_the_dense_cap_is_a_config_error(tmp_path, monkeypatch, capsys):
    # the reference block has dim n_s - 1: a size whose block the dense oracle
    # would refuse exits 2 before any block is assembled, never after allocating it
    def no_assembly(*args, **kwargs):
        raise AssertionError("an effective block was assembled for a size above the dense cap")

    monkeypatch.setattr(effective, "_covariant_block", no_assembly)
    assert SweepConfig(curve=SMALL["curve"], eff_ns=DENSE_DIM_LIMIT).eff_ns == DENSE_DIM_LIMIT
    with pytest.raises(ConfigError, match="eff_ns"):
        SweepConfig(curve=SMALL["curve"], eff_ns=DENSE_DIM_LIMIT + 2)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "job.json"
    config.write_text(json.dumps({**SMALL, "eff_ns": DENSE_DIM_LIMIT + 2}))
    assert main(["sweep", "--config", str(config)]) == 2
    assert main(["effective-spectrum", "--curve", CIRCLE, "--ns", str(DENSE_DIM_LIMIT + 2)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # an output location that cannot be written exits 2 before the first suite or solve
    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the output location was checked")

    monkeypatch.setattr(checks, "REGISTRY", [no_work])
    monkeypatch.setattr(cli, "converged_eigenvalues", no_work)
    monkeypatch.setattr(cli, "lowest_eigenvalues", no_work)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["check", "--out", str(tmp_path / "missing" / "checks.json")]) == 2
    assert main(["sweep", "--curve", CIRCLE, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: ") == 2 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_effective_spectrum_opens_its_out_before_any_assembly(tmp_path, monkeypatch, capsys):
    # an --out in a missing directory exits 2 before the dense block solves
    def no_assembly(*args, **kwargs):
        raise AssertionError("effective-spectrum assembled before it opened --out")

    monkeypatch.setattr(cli, "assemble_effective", no_assembly)
    argv = ["effective-spectrum", "--curve", CIRCLE, "--ns", "64", "--out", str(tmp_path / "missing" / "eff.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "No such file or directory" in err


def test_threads_flag_is_a_usage_error(capsys):
    # the eps points are solved one after another; there is no thread-count flag
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sweep", "--curve", CIRCLE])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: diracshell")


@pytest.mark.parametrize(
    "value", ["inf", "nan"], ids=["effective-coupling-infinite", "effective-coupling-not-a-number"]
)
def test_coupling_flag_is_a_usage_error(value, capsys):
    # effective-spectrum compares against the magnetic operator of the derived
    # coupling; there is no flag to set another one, whatever its value
    with pytest.raises(SystemExit) as exc:
        main(["effective-spectrum", "--curve", CIRCLE, "--coupling", value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: diracshell")


def _record_configs(monkeypatch) -> list:
    """Make the sweep verb record the config main() built, in place of running it."""
    built = []

    def record(cfg, out_dir=None):
        built.append(cfg)
        return SimpleNamespace(verdicts=list, partial=False, corollary=None)

    monkeypatch.setattr(cli, "run_sweep", record)
    return built


def test_main_defaults_are_the_config_defaults(monkeypatch):
    # the CLI options restate no default: without flags the config is SweepConfig(curve=...)
    built = _record_configs(monkeypatch)
    curve = {"kind": "circle", "r": 1.0}
    assert main(["sweep", "--curve", json.dumps(curve)]) == 0
    assert built == [SweepConfig(curve=curve)]


def test_main_flags_replace_config_keys(tmp_path, monkeypatch):
    # the config file's keys are the base of the job; each flag given replaces
    # its key, every other key is kept, and with no flag the job is the file's
    built = _record_configs(monkeypatch)
    job = {**SMALL, "nt": 8, "seed": 3}
    flags = {"curve": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "m": 0.5, "eps": [0.2, 0.15, 0.1],
             "ns": 32, "nt": 10, "count": 4, "seed": 7}
    argv = ["--curve", json.dumps(flags["curve"]), "--m", "0.5", "--eps", "0.2,0.15,0.1",
            "--ns", "32", "--nt", "10", "--count", "4", "--seed", "7"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["sweep", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), *argv]) == 0
    assert main(["sweep", "--config", str(path), "--ns", "64"]) == 0
    assert built == [
        SweepConfig.from_dict(job),
        SweepConfig.from_dict({**job, **flags}),
        SweepConfig.from_dict({**job, "ns": 64}),
    ]
    assert built[1].eff_ns == SMALL["eff_ns"]


def test_main_sweep_with_config_file(tmp_path, capsys):
    # with no flags the run is the config's own; flags reach the written outputs
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(SMALL))
    run_sweep(SMALL, out_dir=tmp_path / "direct")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == (tmp_path / "direct" / "sweep.csv").read_bytes()
    wide = {"kind": "circle", "r": 2.0}
    flags = ["--curve", json.dumps(wide), "--eps", "0.1,0.07,0.05", "--ns", "32", "--count", "4"]
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), *flags, "--out", str(tmp_path / "sweep")]) == 0
    # an even count prints one p= line per pair of the corollary after the j= lines
    out = capsys.readouterr().out.splitlines()
    assert [line[:2] for line in out] == ["j="] * 4 + ["p="] * 2
    assert out[4].startswith("p=1: fitted linear coefficient ") and out[5].startswith("p=2: ")
    summary = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert summary["config"]["eps"] == [0.1, 0.07, 0.05] and summary["curve"] == curve_from_json(wide).name
    assert {eps: rec["dof"] for eps, rec in summary["solves"].items()} == {
        repr(e): 4 * 32 * max(8, math.ceil(4.0 / math.sqrt(e))) for e in (0.1, 0.07, 0.05)
    }
    assert len(summary["verdicts"]) == 4
    # the sweep's record holds the corollary block of its even count
    assert len(summary["corollary"]["linear_coeffs"]) == 2
    rows = [r.split(",") for r in (tmp_path / "sweep" / "corollary.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [(e, p) for e in ("0.1", "0.07", "0.05") for p in "12"]
