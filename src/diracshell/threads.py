"""BLAS thread-count control.

Dense kernels on the small blocks used throughout this package are faster
and bit-reproducible with a single BLAS thread; oversubscribed thread
pools in containers make them pathologically slow.  ``set_blas_threads``
limits the loaded BLAS libraries through threadpoolctl when it is
installed, and otherwise does nothing: BLAS reads the usual thread
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

_limiter = None
_limit = None


def set_blas_threads(n: int = 1) -> dict:
    """Limit the loaded BLAS to n threads through threadpoolctl; returns ``blas_threads()``."""
    global _limiter, _limit
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        _limit = None
    else:
        if _limiter is not None:
            _limiter.unregister()
        _limiter = threadpool_limits(limits=n, user_api="blas")
        _limit = n
    return blas_threads()


def blas_threads() -> dict:
    """The BLAS thread settings in effect.

    ``threadpoolctl_limit`` is n when the last ``set_blas_threads(n)``
    limited the loaded BLAS through threadpoolctl, else None.  ``env``
    holds the thread variables of the process environment (None: unset,
    the library default).
    """
    return {"threadpoolctl_limit": _limit, "env": {var: os.environ.get(var) for var in _ENV_VARS}}
