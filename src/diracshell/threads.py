"""BLAS thread-count control.

Dense kernels on the small blocks used throughout this package are faster
and bit-reproducible with a single BLAS thread; oversubscribed thread
pools in containers make them pathologically slow.  ``set_blas_threads``
limits the loaded BLAS libraries to one thread through threadpoolctl when
it is installed, and otherwise does nothing: BLAS reads the usual thread
environment variables (``OMP_NUM_THREADS`` and friends) only when numpy
loads, so they must be set before the process starts.  ``blas_threads``
reports the threadpoolctl limit applied, those variables as they are, and
the thread count each OpenBLAS copy already loaded in the process answers.
"""

from __future__ import annotations

import ctypes
import os

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the thread-count getters of the OpenBLAS builds numpy (64-bit ints) and scipy ship
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")

_limiter = None  # the threadpoolctl limit, once set


def set_blas_threads() -> dict:
    """Limit the loaded BLAS to one thread through threadpoolctl, once; returns ``blas_threads()``."""
    global _limiter
    if _limiter is None:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            pass
        else:
            _limiter = threadpool_limits(limits=1, user_api="blas")
    return blas_threads()


def blas_threads() -> dict:
    """The BLAS thread settings in effect.

    ``threadpoolctl_limit`` is 1 once ``set_blas_threads`` limited the
    loaded BLAS through threadpoolctl, else None.  ``env`` holds the thread
    variables of the process environment (None: unset, the library default).
    ``openblas`` maps the file name of each OpenBLAS library already loaded
    to the thread count it reports (None: it has no known getter).
    """
    limit = None if _limiter is None else 1
    return {
        "threadpoolctl_limit": limit,
        "env": {var: os.environ.get(var) for var in _ENV_VARS},
        "openblas": _openblas_threads(),
    }


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS copy in the process, by file name.

    The copies are the mapped files of ``/proc/self/maps`` (none where that
    cannot be read); each is opened with RTLD_NOLOAD, so a library that is
    not already loaded stays unloaded, and nothing is set.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return {}
    counts = {}
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        getter = next((getattr(lib, name) for name in _OPENBLAS_GETTERS if hasattr(lib, name)), None)
        counts[os.path.basename(path)] = None if getter is None else int(getter())
    return counts
