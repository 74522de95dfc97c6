"""Numerical laboratory for Dirac operators with infinite-mass boundary
conditions in thin planar shells.

Subpackages: ``clifford`` (anticommuting matrix families), ``geometry``
(closed curves and shell metrics), ``transverse`` (the 1D normal-direction
operator), ``effective`` (the curve operator governing the O(1) spectral
term), ``shell`` (the 2D shell quadratic forms), ``eigsolve`` (the certified
shift-invert eigensolver and the dense oracle), ``cli`` (sweep driver and
checks).
"""

__version__ = "0.1.0"
