"""BLAS thread-count control.

Dense kernels on the small blocks used throughout this package are faster
and bit-reproducible with a single BLAS thread; oversubscribed thread
pools in containers make them pathologically slow.  ``set_blas_threads``
limits the loaded BLAS libraries to one thread through threadpoolctl when
it is installed, and otherwise does nothing: BLAS reads the usual thread
environment variables (``OMP_NUM_THREADS`` and friends) only when numpy
loads, so they must be set before the process starts.  ``blas_threads``
reports the threadpoolctl limit applied and those variables as they are.
"""

from __future__ import annotations

import os

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

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
    """
    limit = None if _limiter is None else 1
    return {"threadpoolctl_limit": limit, "env": {var: os.environ.get(var) for var in _ENV_VARS}}
