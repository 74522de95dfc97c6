"""BLAS thread-count control.

Dense kernels on the small blocks used throughout this package are faster
and bit-reproducible with a single BLAS thread; oversubscribed thread
pools in containers make them pathologically slow.  ``set_blas_threads``
limits the loaded BLAS libraries through threadpoolctl when it is
installed.  It also sets the usual thread environment variables where
they are unset, but BLAS reads those only when it is loaded: once numpy
has been imported they reach child processes only.  ``set_blas_threads``
returns, and ``blas_threads`` reports, what is in effect rather than
what was asked for.
"""

from __future__ import annotations

import os
import sys

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_limiter = None
_in_effect = None


def _env() -> dict:
    return {var: os.environ.get(var) for var in _ENV_VARS}


def set_blas_threads(n: int = 1) -> dict:
    """Limit BLAS to n threads as far as possible; returns ``blas_threads()``.

    ``threadpoolctl_limit`` is n when threadpoolctl limited the loaded
    BLAS, else None.  ``env`` holds the thread variables BLAS was loaded
    with (None: unset, the library default): the values set here when
    numpy was not yet imported, else the ones inherited from the process
    environment.
    """
    global _limiter, _in_effect
    numpy_loaded = "numpy" in sys.modules
    inherited = _env()
    for var in _ENV_VARS:
        os.environ.setdefault(var, str(n))
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        limit = None
    else:
        if _limiter is not None:
            _limiter.unregister()
        _limiter = threadpool_limits(limits=n, user_api="blas")
        limit = n
    _in_effect = {"threadpoolctl_limit": limit, "env": inherited if numpy_loaded else _env()}
    return blas_threads()


def blas_threads() -> dict:
    """The BLAS thread settings in effect, as ``set_blas_threads`` returns them.

    Before any ``set_blas_threads`` call this is the current environment
    with no threadpoolctl limit.
    """
    if _in_effect is None:
        return {"threadpoolctl_limit": None, "env": _env()}
    return {"threadpoolctl_limit": _in_effect["threadpoolctl_limit"], "env": dict(_in_effect["env"])}
