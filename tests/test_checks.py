import ast
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from diracshell import checks, clifford, effective, eigsolve, geometry, shell, transverse
from diracshell.checks import REGISTRY, CheckResult, check_gauge_equivalence
from diracshell.cli import main

BENCH_SPEC = Path(__file__).resolve().parents[1] / "bench" / "spec.py"


def test_registry_names_unique():
    # the benchmark reports one span per suite under the names in bench/spec.py
    tree = ast.parse(BENCH_SPEC.read_text())
    bench_names = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CHECK_SUITES"
    )
    names = [fn.suite for fn in REGISTRY]
    assert len(set(names)) == len(names)
    assert tuple(names) == bench_names


def test_an_entry_joins_the_registry_where_it_is_defined(monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [])
    first = checks._entry("first")(lambda: (True, "first"))
    second = checks._entry("second")(lambda: (True, "second"))
    assert checks.REGISTRY == [first, second]


def test_gauge_suite_negative_control(monkeypatch):
    # tampering with the connection coefficient must break the equivalence; the
    # entry takes no arguments, so the tamper goes through the observables it reads
    monkeypatch.setattr(checks, "_gauge_observables", functools.partial(checks._gauge_observables, coupling=0.30))
    tampered = check_gauge_equivalence()
    assert not tampered.passed
    monkeypatch.undo()
    honest = check_gauge_equivalence()
    assert honest.passed


def test_shell_sandwich_solves_each_transverse_root_three_times_per_leg(monkeypatch):
    # per leg: the shell assembly's ground level, read by its shift ladder and the
    # tolerance, and the ladder of each bracketing form
    calls = []
    solve_k = transverse.solve_k

    def counted(m, p):
        calls.append((m, p))
        return solve_k(m, p)

    monkeypatch.setattr(transverse, "solve_k", counted)
    assert checks.check_shell_sandwich().passed
    assert len(calls) == 9


def test_secular_roots_fails_on_a_root_outside_its_bracket(monkeypatch):
    # solve_k keeps its root in the bracket by construction, so only a tampered
    # solver can show that the criterion still fails
    monkeypatch.setattr(transverse, "solve_k", lambda m, p: transverse.bracket(p)[1] + 0.1)
    res = checks.check_secular_roots()
    assert not res.passed and "root escaped bracket" in res.detail


def test_metric_sandwich_fails_on_a_tampered_stretch(monkeypatch):
    # twice the curvature term leaves the flat-metric sandwich at c = 3 max|kappa|
    monkeypatch.setattr(geometry.ShellMetric2D, "stretch", lambda self, t, kappa: 1.0 + 2.0 * self.eps * t * kappa)
    res = checks.check_metric_sandwich()
    assert not res.passed
    assert float(res.detail.split("worst excess ")[1].split()[0]) > 0.0


def _directions(n, count=2):
    rng = np.random.default_rng(n)
    for _ in range(count):
        x = rng.standard_normal(n)
        yield x / np.linalg.norm(x)


@pytest.mark.parametrize("n", [2, 3])
def test_transverse_energies_match_dense_oracle(n):
    fam = clifford.build_clifford(n)
    for x in _directions(n):
        a, b = shell._transverse_pencil(fam, x, 0.3, 64)
        # the shift -1 is certified at once: nothing below it
        assert eigsolve.inertia(eigsolve.HermitianPencil.make(a, b), -1.0)[0] == 0
        dense = eigsolve.dense_hermitian_eig(a, b).eigenvalues
        vals = shell.discretized_transverse_energies(fam, x, 0.3, 64, 6)
        assert np.abs(vals - dense[:6]).max() <= 1e-10
        # every level is N-fold, so count = 6 cuts through a cluster when N = 4
        assert np.count_nonzero(np.abs(dense - dense[0]) <= 1e-8 * abs(dense[0])) == fam.N


def test_cut_certificate_catches_a_dropped_value():
    fam = clifford.build_clifford(3)
    x = next(_directions(3))
    pencil = eigsolve.HermitianPencil.make(*shell._transverse_pencil(fam, x, 0.3, 64))
    vals = shell.discretized_transverse_energies(fam, x, 0.3, 64, 6)
    eigsolve.certify_cut(pencil, vals)
    with pytest.raises(eigsolve.EigensolveError, match="below the cut"):
        eigsolve.certify_cut(pencil, vals[1:])


def test_intertwining_fails_when_the_solver_skips_a_value(monkeypatch):
    solve = shell.shift_invert_smallest

    def skipping(pencil, count, *args, **kwargs):
        # one copy of the lowest level skipped, the next value returned in its place
        res = solve(pencil, count + 1, *args, **kwargs)
        return dataclasses.replace(res, eigenvalues=res.eigenvalues[1:])

    monkeypatch.setattr(shell, "shift_invert_smallest", skipping)
    res = checks.check_intertwining()
    assert not res.passed
    assert "below the cut" in res.detail


def test_intertwining_fails_after_one_factorization_when_its_shift_does_not_certify(monkeypatch):
    # the transverse form is positive, so -1 is the one shift tried: a failed
    # certificate fails the entry at once, with no lower shift factored
    tried = []

    def uncertified(pencil, sigma):
        tried.append(sigma)
        return 1, None

    monkeypatch.setattr(eigsolve, "inertia", uncertified)
    res = checks.check_intertwining()
    assert not res.passed and "no shift certified in 1 tries" in res.detail
    assert tried == [-1.0]


def test_shell_sandwich_fails_when_the_shell_level_leaves_the_bracket(monkeypatch):
    solve = shell.lowest_eigenvalues

    def raised(assembly, count, *args, **kwargs):
        # raise the exact form's level (slack 0.0), not the bracketing ones
        res = solve(assembly, count, *args, **kwargs)
        return dataclasses.replace(res, eigenvalues=res.eigenvalues + 2.0) if assembly.c == 0.0 else res

    monkeypatch.setattr(shell, "lowest_eigenvalues", raised)
    assert not checks.check_shell_sandwich().passed


def test_effective_convergence_fails_without_a_converged_reference(monkeypatch):
    # with the doubling capped at its start size the Fourier reference cannot converge
    assert checks.check_effective_convergence().passed
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 64)
    res = checks.check_effective_convergence()
    assert not res.passed
    assert "not converged" in res.detail


def _stub(name, passed):
    return lambda: CheckResult(name=name, passed=passed, detail=f"stub {name}")


def test_check_verb_all_suites_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [_stub("first", True), _stub("second", True)])
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 0
    # a stub is no registry entry, so nothing timed it
    assert json.loads(out.read_text()) == {
        "first": {"passed": True, "detail": "stub first", "seconds": None},
        "second": {"passed": True, "detail": "stub second", "seconds": None},
    }
    assert capsys.readouterr().out.splitlines() == ["[PASS] first: stub first", "[PASS] second: stub second"]


def test_check_out_records_each_entrys_seconds(tmp_path, monkeypatch):
    # each registry entry times itself; a budgeted entry's detail states the same time
    monkeypatch.setattr(checks, "REGISTRY", [checks.check_clifford_relations, checks.check_symbol_relations])
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert list(summary) == ["clifford-relations", "symbol-relations"]
    for entry in summary.values():
        assert set(entry) == {"passed", "detail", "seconds"}
        assert isinstance(entry["seconds"], float) and entry["seconds"] > 0.0
    clifford_entry = summary["clifford-relations"]
    assert f"in {clifford_entry['seconds']:.2f}s (budget 1s)" in clifford_entry["detail"]


def test_check_verb_exits_1_on_a_failing_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [_stub("first", True), _stub("second", False)])
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())
    assert list(summary) == ["first", "second"]
    assert [entry["passed"] for entry in summary.values()] == [True, False]
    assert capsys.readouterr().out.splitlines() == ["[PASS] first: stub first", "[FAIL] second: stub second"]


def test_check_verb_fails_an_entry_that_raises_and_goes_on(tmp_path, capsys, monkeypatch):
    # a solver that raises fails its entry with the exception text; the later
    # entries still run and the --out file is still written
    def refused(*args, **kwargs):
        raise eigsolve.EigensolveError("no shift certified")

    monkeypatch.setattr(shell, "lowest_eigenvalues", refused)
    monkeypatch.setattr(
        checks, "REGISTRY", [_stub("first", True), checks.check_eigensolver_agreement, _stub("third", True)]
    )
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())
    assert {name: entry["passed"] for name, entry in summary.items()} == {
        "first": True, "eigensolver-agreement": False, "third": True
    }
    assert summary["eigensolver-agreement"]["detail"].startswith("raised EigensolveError: no shift certified in ")
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[1].startswith("[FAIL] eigensolver-agreement: raised EigensolveError")


@pytest.mark.parametrize("error", [ValueError("B is not positive definite"), np.linalg.LinAlgError("no conv")])
def test_an_entry_fails_on_an_oracle_refusal_and_propagates_other_errors(error, monkeypatch):
    # each entry made here joins a throwaway registry, never the package's
    monkeypatch.setattr(checks, "REGISTRY", [])

    def raising():
        raise error

    res = checks._entry("refused")(raising)()
    assert not res.passed and res.detail == f"raised {type(error).__name__}: {error}"

    def broken():
        raise KeyError("a bug, not a refusal")

    with pytest.raises(KeyError):
        checks._entry("broken")(broken)()
