import os

# one BLAS thread: BLAS reads these variables only when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from diracshell.clifford import build_clifford  # noqa: E402
from diracshell.geometry import make_curve  # noqa: E402
from diracshell.threads import set_blas_threads  # noqa: E402

set_blas_threads()


def pytest_configure(config):
    # a ComplexWarning (the imaginary part of a complex array dropped on a cast
    # to real) fails the test that raised it.  These filters are added here, not in
    # pyproject.toml, because pytest imports a filter's category when it reads
    # the ini file, which would load numpy before the thread variables above are
    # set; the builtin categories there load nothing
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")
    # and a silent sparse-format conversion (say splu handed a CSR matrix, which
    # pays a CSC copy per factorization) fails the test that made it
    config.addinivalue_line("filterwarnings", "error::scipy.sparse.SparseEfficiencyWarning")


@pytest.fixture(scope="session")
def fam2():
    return build_clifford(2)


@pytest.fixture(scope="session")
def fam3():
    return build_clifford(3)


@pytest.fixture(scope="session")
def circle():
    return make_curve("circle", r=1.0)


@pytest.fixture(scope="session")
def ellipse():
    return make_curve("ellipse", a=2.0, b=1.0)


@pytest.fixture(scope="session")
def wobble():
    # simple closed analytic test curve with sign-varying curvature gradient
    return make_curve("fourier", coeffs=[(1, 1.0, 0.0), (-2, 0.15, 0.0)])


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
