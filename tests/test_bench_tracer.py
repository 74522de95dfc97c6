"""The benchmark's tracer rebinds names in diracshell modules by lookup.

``bench/tracer.py`` wraps each ``(module, attribute)`` of its ``TARGETS``
and ``checks.REGISTRY`` inside ``Tracer().installed()``.  A deleted or
renamed attribute makes that block fail with AttributeError, which would
break ``bench/run.py --trace 1``; this test catches it first.
"""

import importlib.util
from pathlib import Path

from diracshell import checks, eigsolve, geometry, shell

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    tracer = _load_tracer()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in tracer.TARGETS]
    registry = checks.REGISTRY
    with tracer.Tracer().installed():
        for mod, attr, original in saved:
            assert getattr(mod, attr).__wrapped__ is original
        assert [fn.__wrapped__ for fn in checks.REGISTRY] == registry
    for mod, attr, original in saved:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"
    assert checks.REGISTRY is registry
    # the placeholder the tracer still looks up; nothing calls it
    assert eigsolve.lobpcg_smallest is None and shell.lobpcg_smallest is None


def test_traced_sandwich_counts_dof_and_nnz(fam2, circle):
    # the shell span's counter reads the assembly's fields; a change of the
    # return type must fail here, not in the benchmark's --trace 1 run
    tracer = _load_tracer()
    with tracer.Tracer().installed() as tr:
        met = geometry.shell_metric(circle, 0.1)
        sand = shell.assemble_sandwich(fam2, met, 0.0, 6.0, 32, 8)
        shell.lowest_eigenvalues(sand, 1, which="minus")
    counts = {name: c for name, _, _, _, _, c in tr.spans}
    assert counts[tracer._SHELL]["dof"] == sand.dof_count > 0
    assert counts[tracer._SHELL]["nnz"] > 0
    assert counts[tracer._SOLVE]["residual_max"] <= 1e-8
