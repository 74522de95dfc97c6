import os
import sys
import types

from diracshell import threads


def test_set_blas_threads_leaves_the_environment_alone(monkeypatch):
    # without threadpoolctl nothing is limited and no thread variable is set:
    # BLAS read them when numpy loaded, so setting one now would limit nothing
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(threads, "_limiter", None)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    record = threads.set_blas_threads()
    assert record["threadpoolctl_limit"] is None
    assert record["env"]["OMP_NUM_THREADS"] is None
    assert record["env"]["OPENBLAS_NUM_THREADS"] == "3"
    assert "OMP_NUM_THREADS" not in os.environ
    assert threads.blas_threads() == record


def test_blas_threads_reports_the_environment_as_it_is(monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert threads.set_blas_threads()["env"]["OMP_NUM_THREADS"] == "2"
    monkeypatch.setenv("OMP_NUM_THREADS", "5")
    assert threads.blas_threads()["env"]["OMP_NUM_THREADS"] == "5"


def test_threadpoolctl_limits_the_loaded_blas(monkeypatch):
    calls = []

    class Limiter:
        def __init__(self, limits, user_api):
            calls.append(("limit", limits, user_api))

        def unregister(self):
            calls.append(("unregister",))

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = Limiter
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    monkeypatch.setattr(threads, "_limiter", None)
    assert threads.blas_threads()["threadpoolctl_limit"] is None
    assert threads.set_blas_threads()["threadpoolctl_limit"] == 1
    assert threads.blas_threads()["threadpoolctl_limit"] == 1
    # a second call keeps the first limit: no second registration, none undone
    assert threads.set_blas_threads()["threadpoolctl_limit"] == 1
    assert calls == [("limit", 1, "blas")]


def test_blas_threads_before_any_call_reads_the_environment(monkeypatch):
    monkeypatch.setattr(threads, "_limiter", None)
    monkeypatch.setenv("MKL_NUM_THREADS", "4")
    record = threads.blas_threads()
    assert record["threadpoolctl_limit"] is None
    assert record["env"]["MKL_NUM_THREADS"] == "4"
