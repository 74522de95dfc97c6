"""Numerical laboratory for Dirac operators with infinite-mass boundary
conditions in thin planar shells.

Modules: ``clifford`` (anticommuting matrix families), ``geometry``
(closed curves and shell metrics), ``transverse`` (the 1D normal-direction
operator), ``effective`` (the curve operator governing the O(1) spectral
term), ``shell`` (the 2D shell quadratic forms and every Lagrange line,
criterion 4's transverse pencils included), ``eigsolve`` (the certified
shift-invert eigensolver, its inertia certificates and the dense oracle),
``checks`` (the criterion registry), ``threads`` (BLAS thread control) and
``cli`` (the command-line verbs and the sweep driver).
"""

__version__ = "0.1.0"
