"""BLAS thread-count control.

Dense kernels on the small blocks used throughout this package are faster
and bit-reproducible with a single BLAS thread; oversubscribed thread
pools in containers make them pathologically slow.  ``set_blas_threads``
sets each OpenBLAS copy already loaded in the process (numpy's and
scipy's) to one thread through its own ``scipy_openblas_set_num_threads*``
symbol.  Any other BLAS reads the usual thread environment variables
(``OMP_NUM_THREADS`` and friends) only when numpy loads, so for those they
must be set before the process starts.  The record it returns reports
those variables as they are and the thread count each loaded OpenBLAS
copy answers.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["set_blas_threads"]

_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the thread-count setters and getters of the OpenBLAS builds numpy (64-bit ints) and scipy ship
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def set_blas_threads() -> dict:
    """Set each OpenBLAS copy already loaded to one thread, then read back the settings in effect.

    ``env`` holds the thread variables of the process environment (None:
    unset, the library default).  ``openblas`` maps the file name of each
    OpenBLAS library already loaded to the thread count it reports (None:
    it has no known getter).
    """
    counts = {}
    for name, lib in _loaded_openblas().items():
        setter, getter = _symbol(lib, _OPENBLAS_SETTERS), _symbol(lib, _OPENBLAS_GETTERS)
        if setter is not None:
            setter(1)
        counts[name] = None if getter is None else int(getter())
    return {"env": {var: os.environ.get(var) for var in _ENV_VARS}, "openblas": counts}


def _loaded_openblas() -> dict:
    """Each OpenBLAS copy in the process, by file name.

    The copies are the mapped files of ``/proc/self/maps`` (none where that
    cannot be read); each is opened with RTLD_NOLOAD, so a library that is
    not already loaded stays unloaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return {}
    libs = {}
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            libs[os.path.basename(path)] = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
    return libs


def _symbol(lib, names):
    """The first of ``names`` that ``lib`` exports, or None."""
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
