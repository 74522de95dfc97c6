"""Closed planar curves and tubular-shell metric quantities.

Curves are stored clockwise with unit-speed arclength parametrization, so
the signed curvature of a circle of radius R is -1/R and the total
curvature of every simple closed curve is -2*pi.  The outward normal of
the bounded domain is nu = (-tau_2, tau_1).

Arclength reparametrization: the generating parametrization p(theta) is
integrated with composite Gauss-Legendre panels into a cumulative length
table, and theta(s) is recovered by vectorized safeguarded Newton sweeps
against that table.  Curvature comes from analytic derivatives of p
composed with theta(s); no finite differences enter the primary path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CurveSpec",
    "ShellMetric2D",
    "make_curve",
    "flat_strip",
    "curve_from_json",
    "mean_curvatures",
    "boundary_mean_curvature_exact",
    "shell_metric",
]

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_TWO_PI = 2.0 * math.pi


class CurveError(ValueError):
    """Rejected curve input (self-intersecting, degenerate, bad config)."""


@dataclass(frozen=True)
class CurveSpec:
    """A planar curve in unit-speed parametrization.

    ``position``, ``tangent``, ``normal`` and ``curvature`` accept arrays of
    arclength values and broadcast; ``normal_derivative`` returns nu'(s),
    which for a clockwise curve equals -kappa(s) * tangent(s).
    """

    name: str
    length: float
    closed: bool
    kappa_max: float
    position: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    normal: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]

    def normal_derivative(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        kap = self.curvature(s)
        tau = self.tangent(s)
        return -kap[..., None] * tau

    def total_curvature(self, samples: int = 4096) -> float:
        """Periodic trapezoid quadrature of kappa over one period."""
        s = np.arange(samples) * (self.length / samples)
        return float(np.sum(self.curvature(s)) * self.length / samples)

    def injectivity_bound(self) -> float:
        """Largest half-width 1/max|kappa| at which the tubular map stays injective."""
        return math.inf if self.kappa_max == 0.0 else 1.0 / self.kappa_max


class _Parametrization:
    """Analytic generator p(theta) on [0, 2*pi) with two derivatives."""

    def __init__(self, p, dp, ddp):
        self.p, self.dp, self.ddp = p, dp, ddp

    def speed(self, theta):
        d = self.dp(np.asarray(theta, dtype=float))
        return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)

    def signed_area(self, samples: int = 4096) -> float:
        theta = np.arange(samples) * (_TWO_PI / samples)
        p = self.p(theta)
        d = self.dp(theta)
        return float(0.5 * np.sum(p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]) * _TWO_PI / samples)

    def flipped(self) -> "_Parametrization":
        return _Parametrization(
            p=lambda th: self.p(-np.asarray(th, dtype=float)),
            dp=lambda th: -self.dp(-np.asarray(th, dtype=float)),
            ddp=lambda th: self.ddp(-np.asarray(th, dtype=float)),
        )


def _segments_intersect(p, q, r, s):
    """Proper intersection test for segments pq and rs (vectorized-free, small n)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(r, s, p), orient(r, s, q)
    d3, d4 = orient(p, q, r), orient(p, q, s)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple(par: _Parametrization, samples: int = 256) -> None:
    theta = np.arange(samples) * (_TWO_PI / samples)
    pts = par.p(theta)
    for i in range(samples):
        a, b = pts[i], pts[(i + 1) % samples]
        for j in range(i + 2, samples):
            if i == 0 and j == samples - 1:
                continue
            c, d = pts[j], pts[(j + 1) % samples]
            if _segments_intersect(a, b, c, d):
                raise CurveError("curve is self-intersecting (sampled polygon test)")


class _ArclengthTable:
    """Cumulative arclength over uniform theta panels with 8-point Gauss rules."""

    def __init__(self, par: _Parametrization, panels: int = 2048):
        self.par = par
        self.panels = panels
        self.theta_grid = np.linspace(0.0, _TWO_PI, panels + 1)
        h = _TWO_PI / panels
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
        idx = np.clip(np.searchsorted(self.cumlen, s, side="right") - 1, 0, self.panels - 1)
        theta_lo = self.theta_grid[idx]
        base = self.cumlen[idx]
        theta = theta_lo + (s - base) / self.par.speed(theta_lo)
        for _ in range(4):
            resid = base + self._partial(theta_lo, theta) - s
            theta = theta - resid / self.par.speed(theta)
        return theta


def _curve_from_parametrization(name: str, par: _Parametrization, panels: int = 2048) -> CurveSpec:
    if par.signed_area() > 0.0:
        par = par.flipped()
    table = _ArclengthTable(par, panels=panels)
    length = table.length

    def kappa_theta(theta):
        d = par.dp(theta)
        dd = par.ddp(theta)
        sp = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
        return (d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]) / sp**3

    def position(s):
        return par.p(table.theta_of_s(np.asarray(s, dtype=float)))

    def tangent(s):
        d = par.dp(table.theta_of_s(np.asarray(s, dtype=float)))
        sp = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
        return d / sp[..., None]

    def normal(s):
        tau = tangent(s)
        return np.stack([-tau[..., 1], tau[..., 0]], axis=-1)

    def curvature(s):
        return kappa_theta(table.theta_of_s(np.asarray(s, dtype=float)))

    theta_dense = np.linspace(0.0, _TWO_PI, 4096, endpoint=False)
    kappa_max = float(np.max(np.abs(kappa_theta(theta_dense))))
    return CurveSpec(
        name=name,
        length=length,
        closed=True,
        kappa_max=kappa_max,
        position=position,
        tangent=tangent,
        normal=normal,
        curvature=curvature,
    )


def make_curve(kind: str, **params) -> CurveSpec:
    """Factory for test geometries: circle(r), ellipse(a, b), fourier(coeffs).

    All curves are reparametrized to unit speed and stored clockwise, so
    convex curves carry non-positive curvature.  Fourier curves are given
    as z(theta) = sum c_k exp(i k theta) by triples (k, re, im) and are
    rejected if the sampled polygon self-intersects.
    """
    kind = kind.lower()
    if kind == "circle":
        r = float(params["r"])
        if r <= 0:
            raise CurveError("circle radius must be positive")
        par = _Parametrization(
            p=lambda th: np.stack([r * np.cos(th), -r * np.sin(th)], axis=-1),
            dp=lambda th: np.stack([-r * np.sin(th), -r * np.cos(th)], axis=-1),
            ddp=lambda th: np.stack([-r * np.cos(th), r * np.sin(th)], axis=-1),
        )
        return _curve_from_parametrization(f"circle({r:g})", par)
    if kind == "ellipse":
        a, b = float(params["a"]), float(params["b"])
        if a <= 0 or b <= 0:
            raise CurveError("ellipse semi-axes must be positive")
        par = _Parametrization(
            p=lambda th: np.stack([a * np.cos(th), -b * np.sin(th)], axis=-1),
            dp=lambda th: np.stack([-a * np.sin(th), -b * np.cos(th)], axis=-1),
            ddp=lambda th: np.stack([-a * np.cos(th), b * np.sin(th)], axis=-1),
        )
        return _curve_from_parametrization(f"ellipse({a:g},{b:g})", par)
    if kind == "fourier":
        coeffs = [(int(k), float(re), float(im)) for k, re, im in params["coeffs"]]
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

    def position(s):
        s = np.asarray(s, dtype=float)
        return np.stack([s, np.zeros_like(s)], axis=-1)

    def tangent(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.ones_like(s), np.zeros_like(s)], axis=-1)

    def normal(s):
        s = np.asarray(s, dtype=float)
        return np.stack([np.zeros_like(s), np.ones_like(s)], axis=-1)

    def curvature(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return CurveSpec(
        name=f"strip({length:g})",
        length=float(length),
        closed=False,
        kappa_max=0.0,
        position=position,
        tangent=tangent,
        normal=normal,
        curvature=curvature,
    )


def curve_from_json(config: dict | str) -> CurveSpec:
    """Build a curve from {"kind": "ellipse", "a": 2.0, "b": 1.0}-style configs."""
    if isinstance(config, str):
        config = json.loads(config)
    kind = config.get("kind")
    if kind == "circle":
        return make_curve("circle", r=config["r"])
    if kind == "ellipse":
        return make_curve("ellipse", a=config["a"], b=config["b"])
    if kind == "fourier":
        return make_curve("fourier", coeffs=config["coeffs"])
    if kind == "strip":
        return flat_strip(config["length"])
    raise CurveError(f"unknown curve config kind {kind!r}")


def mean_curvatures(principal) -> list[float]:
    """Elementary symmetric polynomials H_1..H_{n-1} of the principal curvatures."""
    principal = list(map(float, principal))
    coeffs = [1.0]
    for kappa in principal:
        coeffs = [coeffs[0]] + [coeffs[i] + kappa * coeffs[i - 1] for i in range(1, len(coeffs))] + [
            kappa * coeffs[-1]
        ]
    return coeffs[1:]


def boundary_mean_curvature_exact(curve: CurveSpec, eps: float, side: int, s) -> np.ndarray:
    """Mean curvature of the shifted boundary curve: side*kappa/(1 + side*eps*kappa)."""
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    if eps >= curve.injectivity_bound():
        raise ValueError(
            f"eps={eps:g} is at or beyond the injectivity scale 1/max|kappa|="
            f"{curve.injectivity_bound():g}"
        )
    kap = curve.curvature(np.asarray(s, dtype=float))
    return side * kap / (1.0 + side * eps * kap)


@dataclass(frozen=True)
class ShellMetric2D:
    """Metric data of the thin shell of half-width eps around a curve.

    The radial weight is phi(s,t) = eps*(1 + eps*t*kappa(s)) and the
    tangential coefficient g11(s,t) = (1 + eps*t*kappa(s))^2, with kappa
    the clockwise signed curvature.  ``tubular_map`` offsets along the
    direction for which the Jacobian determinant of the map equals
    eps*(1 + eps*t*kappa), i.e. opposite to the stored outward normal.
    """

    curve: CurveSpec
    eps: float
    guard: float = field(default=0.9)

    def _w(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return 1.0 + self.eps * t * self.curve.curvature(s)

    def phi(self, s, t) -> np.ndarray:
        return self.eps * self._w(s, t)

    def g11(self, s, t) -> np.ndarray:
        return self._w(s, t) ** 2

    def det_g(self, s, t) -> np.ndarray:
        return self.eps**2 * self._w(s, t) ** 2

    def boundary_weight(self, side: int, s) -> np.ndarray:
        """h(s) = phi(s, side)/eps = 1 + side*eps*kappa(s)."""
        return self._w(s, float(side))

    def boundary_mean_curvature(self, side: int, s) -> np.ndarray:
        return boundary_mean_curvature_exact(self.curve, self.eps, side, s)

    def tubular_map(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        pos = self.curve.position(s)
        nu = self.curve.normal(s)
        return pos - self.eps * t[..., None] * nu


def shell_metric(curve: CurveSpec, eps: float, guard: float = 0.9) -> ShellMetric2D:
    """Shell metric with the injectivity-scale guard eps < guard/max|kappa|."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if curve.kappa_max > 0 and eps >= guard / curve.kappa_max:
        raise ValueError(
            f"eps={eps:g} violates the guard {guard:g}/max|kappa|={guard / curve.kappa_max:g}"
        )
    return ShellMetric2D(curve=curve, eps=float(eps), guard=guard)
