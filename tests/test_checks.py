import ast
import json
from pathlib import Path

from diracshell import checks
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


def test_gauge_suite_negative_control():
    # tampering with the connection coefficient must break the equivalence
    tampered = check_gauge_equivalence(coupling=0.30, grids=(128,))
    assert not tampered.passed
    honest = check_gauge_equivalence(grids=(128,))
    assert honest.passed


def _stub(name, passed):
    return lambda: CheckResult(name=name, passed=passed, detail=f"stub {name}")


def test_check_verb_all_suites_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [_stub("first", True), _stub("second", True)])
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "first": {"passed": True, "detail": "stub first"},
        "second": {"passed": True, "detail": "stub second"},
    }
    assert capsys.readouterr().out.splitlines() == ["[PASS] first: stub first", "[PASS] second: stub second"]


def test_check_verb_exits_1_on_a_failing_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "REGISTRY", [_stub("first", True), _stub("second", False)])
    out = tmp_path / "checks.json"
    assert main(["check", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())
    assert list(summary) == ["first", "second"]
    assert [entry["passed"] for entry in summary.values()] == [True, False]
    assert capsys.readouterr().out.splitlines() == ["[PASS] first: stub first", "[FAIL] second: stub second"]
