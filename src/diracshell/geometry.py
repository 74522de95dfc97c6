"""Closed planar curves and tubular-shell metric quantities.

Curves are stored clockwise with unit-speed arclength parametrization, so
the signed curvature of a circle of radius R is -1/R and the total
curvature of every simple closed curve is -2*pi: ``make_curve`` builds
each clockwise.  The outward normal of the bounded domain, nu = (-tau_2,
tau_1), is derived from the tangent; the shell metric's stretch
1 + eps*t*kappa is stated once, in ShellMetric2D.

Arclength reparametrization: the generating parametrization p(theta) is
integrated with composite Gauss-Legendre panels into a cumulative length
table, and theta(s) is recovered by vectorized safeguarded Newton sweeps
against that table.  Curvature comes from analytic derivatives of p
composed with theta(s); no finite differences enter the primary path.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CurveSpec",
    "ShellMetric2D",
    "make_curve",
    "flat_strip",
    "curve_from_json",
    "shell_metric",
]

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_TWO_PI = 2.0 * math.pi
_PANELS, _SAMPLES = 2048, 4096  # arclength-table theta panels; samples of periodic sums
# shell_metric admits eps < GUARD/max|kappa|, inside the injectivity scale 1/max|kappa|
GUARD = 0.9
# |total curvature + 2*pi| a closed curve may show: the total-curvature check's bound
CLOSURE_TOL = 1e-8


class CurveError(ValueError):
    """Rejected curve input (self-intersecting, degenerate, bad config)."""


@dataclass(frozen=True)
class CurveSpec:
    """A planar curve in unit-speed parametrization.

    ``position``, ``tangent`` and ``curvature`` accept arrays of arclength
    values and broadcast.  ``normal`` is derived from the tangent: nu(s) =
    (-tau_2, tau_1), whose derivative is kappa(s) * (-nu_2, nu_1).
    """

    name: str
    length: float
    kappa_max: float
    position: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]

    def normal(self, s: np.ndarray) -> np.ndarray:
        tau = self.tangent(s)
        return np.stack([-tau[..., 1], tau[..., 0]], axis=-1)

    def total_curvature(self) -> float:
        """Periodic trapezoid quadrature of kappa over one period."""
        s = np.arange(_SAMPLES) * (self.length / _SAMPLES)
        return float(np.sum(self.curvature(s)) * self.length / _SAMPLES)


class _Parametrization:
    """Analytic generator p(theta) on [0, 2*pi) with two derivatives."""

    def __init__(self, p, dp, ddp):
        self.p, self.dp, self.ddp = p, dp, ddp

    def speed(self, theta):
        d = self.dp(np.asarray(theta, dtype=float))
        return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)


def _orient(a, b, c):
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _check_simple(par: _Parametrization) -> None:
    """Reject a curve whose 256-gon has two crossing non-adjacent edges (all pairs at once)."""
    n = 256
    pts = par.p(np.arange(n) * (_TWO_PI / n))
    i, j = np.triu_indices(n, k=2)
    keep = (i > 0) | (j < n - 1)
    i, j = i[keep], j[keep]
    a, b, c, d = pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
    crosses = ((_orient(c, d, a) > 0) != (_orient(c, d, b) > 0)) & (
        (_orient(a, b, c) > 0) != (_orient(a, b, d) > 0)
    )
    if crosses.any():
        raise CurveError("curve is self-intersecting (sampled polygon test)")


class _ArclengthTable:
    """Cumulative arclength over uniform theta panels with 8-point Gauss rules."""

    def __init__(self, par: _Parametrization):
        self.par = par
        self.theta_grid = np.linspace(0.0, _TWO_PI, _PANELS + 1)
        h = _TWO_PI / _PANELS
        mid = 0.5 * (self.theta_grid[:-1] + self.theta_grid[1:])
        nodes = mid[:, None] + 0.5 * h * _GL8_NODES[None, :]
        speeds = par.speed(nodes)
        panel_len = 0.5 * h * speeds @ _GL8_WEIGHTS
        self.cumlen = np.concatenate([[0.0], np.cumsum(panel_len)])
        self.length = float(self.cumlen[-1])
        if self.length <= 0.0 or np.min(panel_len) <= 0.0:
            raise CurveError("degenerate parametrization (vanishing speed)")

    def _partial(self, theta_lo, theta):
        """Integral of speed over [theta_lo, theta], elementwise."""
        half = 0.5 * (theta - theta_lo)
        nodes = 0.5 * (theta + theta_lo)[..., None] + half[..., None] * _GL8_NODES
        return half * (self.par.speed(nodes) @ _GL8_WEIGHTS)

    def theta_of_s(self, s: np.ndarray) -> np.ndarray:
        s = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.clip(np.searchsorted(self.cumlen, s, side="right") - 1, 0, _PANELS - 1)
        theta_lo = self.theta_grid[idx]
        base = self.cumlen[idx]
        theta = theta_lo + (s - base) / self.par.speed(theta_lo)
        for _ in range(4):
            resid = base + self._partial(theta_lo, theta) - s
            theta = theta - resid / self.par.speed(theta)
        return theta


def _curve_from_parametrization(name: str, par: _Parametrization) -> CurveSpec:
    """The unit-speed curve of a clockwise parametrization.

    Every closed curve has max|kappa| * L >= the integral of |kappa| ds >= 2*pi, so a
    length or max|kappa| that is not finite, or a product below 2*pi (1 - 1e-9), is
    an overflow in the curve's construction: CurveError.
    """

    def kappa_theta(theta):
        d = par.dp(theta)
        dd = par.ddp(theta)
        return (d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]) / par.speed(theta) ** 3

    def position(s):
        return par.p(table.theta_of_s(np.asarray(s, dtype=float)))

    def tangent(s):
        theta = table.theta_of_s(np.asarray(s, dtype=float))
        return par.dp(theta) / par.speed(theta)[..., None]

    def curvature(s):
        return kappa_theta(table.theta_of_s(np.asarray(s, dtype=float)))

    with np.errstate(all="ignore"):  # an overflow here is refused below
        table = _ArclengthTable(par)
        kappa_max = float(np.max(np.abs(kappa_theta(np.linspace(0.0, _TWO_PI, 4096, endpoint=False)))))
    length = table.length
    if not (math.isfinite(length) and math.isfinite(kappa_max) and kappa_max * length >= _TWO_PI * (1.0 - 1e-9)):
        raise CurveError(f"{name} is out of double range: length {length:g}, max|kappa| {kappa_max:g}")
    return CurveSpec(
        name=name,
        length=length,
        kappa_max=kappa_max,
        position=position,
        tangent=tangent,
        curvature=curvature,
    )


def _real(key: str, value) -> float:
    """A numeric curve parameter: a finite real number (an int inside double range), never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise CurveError(f"curve parameter {key} must be a finite number, got {value!r}")
    return float(value)


def _wavenumber(key: str, value) -> int:
    k = _real(key, value)
    if not k.is_integer():
        raise CurveError(f"curve parameter {key} must be an integer, got {value!r}")
    return int(k)


# the parameters each curve kind takes
_CURVE_KEYS = {"circle": {"r"}, "ellipse": {"a", "b"}, "fourier": {"coeffs"}, "strip": {"length"}}


def make_curve(kind: str, **params) -> CurveSpec:
    """Factory for test geometries: circle(r), ellipse(a, b), fourier(coeffs), strip(length).

    Each kind takes exactly its own parameters (``_CURVE_KEYS``): an unknown
    kind (one that is not a string included), a key of another kind or a
    missing key raises CurveError naming it.  A strip is ``flat_strip``.
    The closed curves are reparametrized to unit speed and stored clockwise,
    so convex curves carry non-positive curvature; circle and ellipse are
    so by construction.  Fourier curves are given as z(theta) = sum c_k
    exp(i k theta) by a list (or tuple) of triples (k, re, im); one whose
    signed area pi sum_k k |c_k|^2 (c_k summed per k) is positive is stored
    with every k negated.  They are rejected if the sampled polygon
    self-intersects.  Every parameter is a finite real number and each k an
    integer (an integral float such as 2.0 is taken as 2);
    anything else, a bool or a string included, raises CurveError naming it.
    """
    if not isinstance(kind, str) or kind not in _CURVE_KEYS:
        raise CurveError(f"unknown curve config kind {kind!r}")
    for what, keys in (("unknown", set(params) - _CURVE_KEYS[kind]), ("missing", _CURVE_KEYS[kind] - set(params))):
        if keys:
            raise CurveError(f"{what} {kind} curve config keys: " + ", ".join(sorted(keys)))
    if kind == "strip":
        return flat_strip(params["length"])
    if kind in ("circle", "ellipse"):
        # the circle is the ellipse with a = b = r
        keys = ("r", "r") if kind == "circle" else ("a", "b")
        a, b = (_real(key, params[key]) for key in keys)
        name = f"circle({a:g})" if kind == "circle" else f"ellipse({a:g},{b:g})"
        if a <= 0 or b <= 0:
            raise CurveError(f"{name}: radii must be positive")
        par = _Parametrization(
            p=lambda th: np.stack([a * np.cos(th), -b * np.sin(th)], axis=-1),
            dp=lambda th: np.stack([-a * np.sin(th), -b * np.cos(th)], axis=-1),
            ddp=lambda th: np.stack([-a * np.cos(th), b * np.sin(th)], axis=-1),
        )
        return _curve_from_parametrization(name, par)
    # the one kind left: fourier
    coeffs = params["coeffs"]
    if not isinstance(coeffs, (list, tuple)) or not all(isinstance(c, (list, tuple)) and len(c) == 3 for c in coeffs):
        raise CurveError(f"curve parameter coeffs must be a list of (k, re, im) triples, got {coeffs!r}")
    coeffs = [
        (_wavenumber(f"coeffs[{i}] k", k), _real(f"coeffs[{i}] re", re), _real(f"coeffs[{i}] im", im))
        for i, (k, re, im) in enumerate(coeffs)
    ]
    if not coeffs:
        raise CurveError("fourier curve needs at least one coefficient")
    merged = {}  # the signed area needs c_k summed per k: a config may repeat one
    for k, re, im in coeffs:
        merged[k] = merged.get(k, 0.0) + complex(re, im)
    if sum(k * abs(c) ** 2 for k, c in merged.items()) > 0.0:  # counterclockwise: take z(-theta)
        coeffs = [(-k, re, im) for k, re, im in coeffs]

    def z(th, order):
        th = np.asarray(th, dtype=float)
        out = np.zeros(th.shape, dtype=complex)
        for k, re, im in coeffs:
            c = complex(re, im) * (1.0j * k) ** order
            out = out + c * np.exp(1.0j * k * th)
        return out

    def as_xy(w):
        return np.stack([w.real, w.imag], axis=-1)

    par = _Parametrization(
        p=lambda th: as_xy(z(th, 0)),
        dp=lambda th: as_xy(z(th, 1)),
        ddp=lambda th: as_xy(z(th, 2)),
    )
    _check_simple(par)
    return _curve_from_parametrization("fourier", par)


def flat_strip(length: float) -> CurveSpec:
    """Straight periodic line of given period: kappa == 0, constant normal.

    Test harness for separation-of-variables references; not a closed
    curve, so the total-curvature identity does not apply to it.
    """
    if not _real("length", length) > 0:
        raise CurveError(f"strip length must be positive, got {length!r}")

    def position(s):
        s = np.asarray(s, dtype=float)
        return np.stack([s, np.zeros_like(s)], axis=-1)

    def tangent(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.ones_like(s), np.zeros_like(s)], axis=-1)

    def curvature(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return CurveSpec(
        name=f"strip({length:g})",
        length=float(length),
        kappa_max=0.0,
        position=position,
        tangent=tangent,
        curvature=curvature,
    )


def curve_from_json(config: dict) -> CurveSpec:
    """Build a curve from a parsed {"kind": "ellipse", "a": 2.0, "b": 1.0}-style config.

    ``make_curve`` applies the rules of each kind and refuses what it
    cannot build with CurveError.  This adds one rule: the config is a
    dict with string keys, as a JSON object is (JSON text is not: ``cli``
    parses it).
    """
    if not isinstance(config, dict) or not all(isinstance(key, str) for key in config):
        raise CurveError(f"curve config must be a JSON object, got {config!r}")
    return make_curve(config.get("kind"), **{k: v for k, v in config.items() if k != "kind"})


@dataclass(frozen=True)
class ShellMetric2D:
    """Metric data of the thin shell of half-width eps around a curve.

    ``stretch`` = 1 + eps*t*kappa, kappa the clockwise signed curvature, is
    the one statement of the metric: the volume factor sqrt(det g) is
    eps*stretch, the tangential coefficient g11 is stretch^2, and
    ``shell.assemble_shell`` integrates the same stretch.  ``tubular_map``
    offsets along -nu, the direction for which the Jacobian determinant of
    the map equals eps*stretch; the ``metric-identity`` and
    ``metric-sandwich`` checks read ``stretch`` itself.
    """

    curve: CurveSpec
    eps: float

    def stretch(self, t, kappa):
        """The radial weight over eps, 1 + eps*t*kappa, at transverse t and curvature values kappa."""
        return 1.0 + self.eps * t * kappa

    def tubular_map(self, s, t) -> np.ndarray:
        offset = self.eps * np.asarray(t, dtype=float)[..., None]
        return self.curve.position(s) - offset * self.curve.normal(s)


def shell_metric(curve: CurveSpec, eps: float) -> ShellMetric2D:
    """Shell metric with the injectivity-scale guard eps < GUARD/max|kappa|."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if curve.kappa_max > 0 and eps >= GUARD / curve.kappa_max:
        raise ValueError(
            f"eps={eps:g} violates the guard {GUARD:g}/max|kappa|={GUARD / curve.kappa_max:g}"
        )
    return ShellMetric2D(curve=curve, eps=float(eps))
