import json
import os
import subprocess
import sys

import numpy as np
import pytest

from diracshell import threads


def test_set_blas_threads_leaves_the_environment_alone(monkeypatch):
    # no thread variable is set: BLAS read them when numpy loaded, so setting
    # one now would limit nothing
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    record = threads.set_blas_threads()
    assert record["env"]["OMP_NUM_THREADS"] is None
    assert record["env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ
    assert threads.blas_threads() == record


def test_set_blas_threads_scans_the_libraries_once(monkeypatch):
    # one read of the process's libraries both sets each copy and reads it back
    calls = []
    scan = threads._loaded_openblas

    def counted():
        calls.append(1)
        return scan()

    monkeypatch.setattr(threads, "_loaded_openblas", counted)
    record = threads.set_blas_threads()
    assert len(calls) == 1
    assert record == threads.blas_threads()


def test_blas_threads_reports_the_environment_as_it_is(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert threads.set_blas_threads()["env"]["OMP_NUM_THREADS"] == "2"
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert threads.blas_threads()["env"]["OMP_NUM_THREADS"] == "5"


def test_blas_threads_before_any_call_reads_the_environment(monkeypatch):
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    record = threads.blas_threads()
    assert set(record) == {"env", "openblas"}
    assert record["env"]["MKL_NUM_THREADS"] == "4"


def _openblas_copies():
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS next to numpy's)

    counts = threads.blas_threads()["openblas"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas["name"] != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas['name']}, not scipy-openblas")
    return counts


def test_blas_threads_reads_each_loaded_openblas():
    # numpy's 64-bit-int copy and scipy's copy each answer their own thread
    # count; the session set OPENBLAS_NUM_THREADS=1 before either loaded
    counts = _openblas_copies()
    assert any(name.startswith("libscipy_openblas64_") for name in counts)
    assert any(name.startswith("libscipy_openblas-") for name in counts)
    if os.environ["OPENBLAS_NUM_THREADS"] == "1":
        assert set(counts.values()) == {1}


def test_an_openblas_without_a_known_getter_reads_null(monkeypatch):
    monkeypatch.setattr(threads, "_OPENBLAS_GETTERS", ("no_such_getter",))
    counts = _openblas_copies()
    assert counts and set(counts.values()) == {None}


def test_blas_threads_loads_no_library():
    # before numpy loads there is no OpenBLAS in the process, and reading the
    # record maps none
    code = (
        "import json; from diracshell import threads; "
        "record = threads.blas_threads()['openblas']; "
        "mapped = [line for line in open('/proc/self/maps') if 'openblas' in line]; "
        "print(json.dumps([record, mapped]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [{}, []]


def test_set_blas_threads_sets_each_loaded_openblas():
    # a process started with OPENBLAS_NUM_THREADS=2 runs both copies at 2
    # threads (on a machine with at least 2 cores) until the call sets them
    code = (
        "import json, numpy, scipy.linalg; from diracshell import threads; "
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']['name']; "
        "before = threads.blas_threads()['openblas']; "
        "print(json.dumps([blas, before, threads.set_blas_threads()['openblas']]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    blas, before, after = json.loads(out.stdout)
    if blas != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas}, not scipy-openblas")
    assert after and after.keys() == before.keys()
    assert set(after.values()) == {1}
