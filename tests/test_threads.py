import os
import sys

from diracshell import threads


def test_env_set_after_numpy_is_not_reported_as_in_effect(monkeypatch):
    # without threadpoolctl, variables set once numpy (and its BLAS) is
    # loaded do not limit it: the record keeps the inherited values
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(threads, "_in_effect", None)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    record = threads.set_blas_threads(1)
    assert record["threadpoolctl_limit"] is None
    assert record["env"]["OMP_NUM_THREADS"] is None
    assert record["env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert threads.blas_threads() == record
    # the default still reaches child processes
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_env_set_before_numpy_is_in_effect(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(threads, "_in_effect", None)
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    record = threads.set_blas_threads(2)
    assert record["threadpoolctl_limit"] is None
    assert record["env"]["OMP_NUM_THREADS"] == "2"


def test_blas_threads_before_any_call_reads_the_environment(monkeypatch):
    monkeypatch.setattr(threads, "_in_effect", None)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    record = threads.blas_threads()
    assert record["threadpoolctl_limit"] is None
    assert record["env"]["MKL_NUM_THREADS"] == "4"
