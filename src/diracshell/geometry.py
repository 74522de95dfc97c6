"""Closed planar curves and tubular-shell metric quantities.

Curves are stored clockwise with unit-speed arclength parametrization, so
the signed curvature of a circle of radius R is -1/R and the total
curvature of every simple closed curve is -2*pi.  The outward normal of
the bounded domain, nu = (-tau_2, tau_1), is derived from the tangent; the
shell metric's stretch 1 + eps*t*kappa is stated once, in ShellMetric2D.

Arclength reparametrization: the generating parametrization p(theta) is
integrated with composite Gauss-Legendre panels into a cumulative length
table, and theta(s) is recovered by vectorized safeguarded Newton sweeps
against that table.  Curvature comes from analytic derivatives of p
composed with theta(s); no finite differences enter the primary path.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CurveSpec",
    "ShellMetric2D",
    "make_curve",
    "flat_strip",
    "curve_from_json",
    "mean_curvatures",
    "shell_metric",
]

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_TWO_PI = 2.0 * math.pi
_PANELS, _SAMPLES = 2048, 4096  # arclength-table theta panels; samples of periodic sums
# shell_metric admits eps < GUARD/max|kappa|, inside the injectivity scale 1/max|kappa|
GUARD = 0.9


class CurveError(ValueError):
    """Rejected curve input (self-intersecting, degenerate, bad config)."""


@dataclass(frozen=True)
class CurveSpec:
    """A planar curve in unit-speed parametrization.

    ``position``, ``tangent`` and ``curvature`` accept arrays of arclength
    values and broadcast.  The rest is derived from them: ``normal``
    returns nu(s) = (-tau_2, tau_1) and ``normal_derivative`` nu'(s), which
    for a clockwise curve equals -kappa(s) * tangent(s).
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

    def normal_derivative(self, s: np.ndarray) -> np.ndarray:
        return -self.curvature(s)[..., None] * self.tangent(s)

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

    def signed_area(self) -> float:
        theta = np.arange(_SAMPLES) * (_TWO_PI / _SAMPLES)
        p = self.p(theta)
        d = self.dp(theta)
        return float(0.5 * np.sum(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]) * _TWO_PI / _SAMPLES)

    def flipped(self) -> "_Parametrization":
        return _Parametrization(
            p=lambda th: self.p(-np.asarray(th, dtype=float)),
            dp=lambda th: -self.dp(-np.asarray(th, dtype=float)),
            ddp=lambda th: self.ddp(-np.asarray(th, dtype=float)),
        )


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
    if par.signed_area() > 0.0:
        par = par.flipped()
    table = _ArclengthTable(par)
    length = table.length

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

    theta_dense = np.linspace(0.0, _TWO_PI, 4096, endpoint=False)
    kappa_max = float(np.max(np.abs(kappa_theta(theta_dense))))
    return CurveSpec(
        name=name,
        length=length,
        kappa_max=kappa_max,
        position=position,
        tangent=tangent,
        curvature=curvature,
    )


def _real(key: str, value) -> float:
    """A numeric curve parameter: a finite real number, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise CurveError(f"curve parameter {key} must be a finite number, got {value!r}")
    return float(value)


def _wavenumber(key: str, value) -> int:
    k = _real(key, value)
    if not k.is_integer():
        raise CurveError(f"curve parameter {key} must be an integer, got {value!r}")
    return int(k)


def make_curve(kind: str, **params) -> CurveSpec:
    """Factory for test geometries: circle(r), ellipse(a, b), fourier(coeffs).

    All curves are reparametrized to unit speed and stored clockwise, so
    convex curves carry non-positive curvature.  Fourier curves are given
    as z(theta) = sum c_k exp(i k theta) by triples (k, re, im) and are
    rejected if the sampled polygon self-intersects.  Every parameter is a
    finite real number and each k an integer (an integral float such as
    2.0 is taken as 2); anything else, a bool or a string included, raises
    CurveError naming it.
    """
    kind = kind.lower()
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
    if kind == "fourier":
        coeffs = [
            (_wavenumber(f"coeffs[{i}] k", k), _real(f"coeffs[{i}] re", re), _real(f"coeffs[{i}] im", im))
            for i, (k, re, im) in enumerate(params["coeffs"])
        ]
        if not coeffs:
            raise CurveError("fourier curve needs at least one coefficient")

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
    raise CurveError(f"unknown curve kind {kind!r}")


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


# the parameters each curve config kind takes, besides "kind"
_CURVE_KEYS = {"circle": {"r"}, "ellipse": {"a", "b"}, "fourier": {"coeffs"}, "strip": {"length"}}


def curve_from_json(config: dict | str) -> CurveSpec:
    """Build a curve from {"kind": "ellipse", "a": 2.0, "b": 1.0}-style configs.

    Each kind takes only its own parameters (``_CURVE_KEYS``).  A config it
    cannot build, whatever the reason, an unknown key included, raises
    CurveError.
    """
    try:
        if isinstance(config, str):
            config = json.loads(config)
        if not isinstance(config, dict):
            raise CurveError(f"curve config must be a JSON object, got {config!r}")
        kind = config.get("kind")
        if kind not in _CURVE_KEYS:
            raise CurveError(f"unknown curve config kind {kind!r}")
        unknown = sorted(map(str, set(config) - _CURVE_KEYS[kind] - {"kind"}))
        if unknown:
            raise CurveError(f"unknown {kind} curve config keys: " + ", ".join(unknown))
        if kind == "strip":
            return flat_strip(config["length"])
        return make_curve(kind, **{k: v for k, v in config.items() if k != "kind"})
    except CurveError:
        raise
    except KeyError as exc:
        raise CurveError(f"curve config {config!r} lacks the parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CurveError(f"bad curve config {config!r}: {exc}") from exc


def mean_curvatures(principal) -> list[float]:
    """Elementary symmetric polynomials H_1..H_{n-1} of the principal curvatures."""
    principal = list(map(float, principal))
    coeffs = [1.0]
    for kappa in principal:
        coeffs = [coeffs[0]] + [coeffs[i] + kappa * coeffs[i - 1] for i in range(1, len(coeffs))] + [
            kappa * coeffs[-1]
        ]
    return coeffs[1:]


@dataclass(frozen=True)
class ShellMetric2D:
    """Metric data of the thin shell of half-width eps around a curve.

    ``stretch`` = 1 + eps*t*kappa, kappa the clockwise signed curvature, is
    the one statement of the metric: sqrt(det_g) = eps*stretch, g11 =
    stretch^2, and ``shell.assemble_shell`` integrates the same stretch.
    ``tubular_map`` offsets along -nu, the direction for which the Jacobian
    determinant of the map equals eps*stretch.
    """

    curve: CurveSpec
    eps: float

    def stretch(self, t, kappa):
        """The radial weight over eps, 1 + eps*t*kappa, at transverse t and curvature values kappa."""
        return 1.0 + self.eps * t * kappa

    def g11(self, s, t) -> np.ndarray:
        return self.stretch(np.asarray(t, dtype=float), self.curve.curvature(s)) ** 2

    def det_g(self, s, t) -> np.ndarray:
        return self.eps**2 * self.g11(s, t)

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
