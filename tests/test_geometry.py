import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshell.geometry import (
    CurveError,
    boundary_mean_curvature_exact,
    curve_from_json,
    flat_strip,
    make_curve,
    mean_curvatures,
    shell_metric,
)

TWO_PI = 2.0 * math.pi


def test_circle_basics(circle):
    assert abs(circle.length - TWO_PI) < 1e-12
    s = np.linspace(0.0, circle.length, 37, endpoint=False)
    assert np.abs(circle.curvature(s) + 1.0).max() < 1e-12
    assert abs(circle.total_curvature() + TWO_PI) < 1e-10


@pytest.mark.parametrize("name", ["circle", "ellipse", "wobble"])
def test_unit_speed_and_frenet(name, request):
    curve = request.getfixturevalue(name)
    s = np.linspace(0.0, curve.length, 48, endpoint=False)
    h = 1e-6
    dp = (curve.position(s + h) - curve.position(s - h)) / (2.0 * h)
    speed = np.hypot(dp[:, 0], dp[:, 1])
    assert np.abs(speed - 1.0).max() < 1e-8
    # Frenet: nu' = (-kappa nu_2, kappa nu_1), via central differences
    nu_fd = (curve.normal(s + h) - curve.normal(s - h)) / (2.0 * h)
    kap = curve.curvature(s)
    nu = curve.normal(s)
    frenet = np.stack([-kap * nu[:, 1], kap * nu[:, 0]], axis=-1)
    assert np.abs(nu_fd - frenet).max() < 1e-6
    assert np.abs(curve.normal_derivative(s) - nu_fd).max() < 1e-6


@pytest.mark.parametrize("name", ["circle", "ellipse", "wobble"])
def test_total_curvature(name, request):
    curve = request.getfixturevalue(name)
    assert abs(curve.total_curvature() + TWO_PI) <= 1e-8


def test_frenet_fd_convergence_order(ellipse):
    # finite-difference nu' converges to the Frenet value at order >= 1.9
    s = np.linspace(0.0, ellipse.length, 16, endpoint=False)
    kap = ellipse.curvature(s)
    nu = ellipse.normal(s)
    exact = np.stack([-kap * nu[:, 1], kap * nu[:, 0]], axis=-1)
    errs = []
    for h in (1e-2, 5e-3):
        fd = (ellipse.normal(s + h) - ellipse.normal(s - h)) / (2.0 * h)
        errs.append(np.abs(fd - exact).max())
    order = math.log2(errs[0] / errs[1]) / math.log2(2.0)
    assert order >= 1.9


def test_ellipse_curvature_extremes(ellipse):
    # closed-form oracle: |kappa| = a*b/(a^2 sin^2 + b^2 cos^2)^{3/2},
    # extremes b/a^2 and a/b^2; clockwise storage makes both negative
    a, b = 2.0, 1.0
    theta = np.linspace(0.0, TWO_PI, 20001)
    oracle = -a * b / (a**2 * np.sin(theta) ** 2 + b**2 * np.cos(theta) ** 2) ** 1.5
    s = np.linspace(0.0, ellipse.length, 20001)
    kap = ellipse.curvature(s)
    assert abs(kap.max() - oracle.max()) < 1e-9
    assert abs(kap.min() - oracle.min()) < 1e-9
    assert abs(kap.max() + b / a**2) < 1e-9
    assert abs(kap.min() + a / b**2) < 1e-9
    assert abs(ellipse.kappa_max - 2.0) < 1e-9


def test_mean_curvatures_small_cases():
    assert mean_curvatures([0.7]) == [0.7]
    assert mean_curvatures([1.0, 1.0]) == [2.0, 1.0]
    assert mean_curvatures([2.0, 3.0, 5.0]) == [10.0, 31.0, 30.0]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=6)
)
def test_mean_curvatures_match_enumeration(principal):
    # brute-force subset enumeration oracle
    got = mean_curvatures(principal)
    for p in range(1, len(principal) + 1):
        expect = sum(
            math.prod(combo) for combo in itertools.combinations(principal, p)
        )
        assert got[p - 1] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_boundary_curvature_circle(circle):
    # direct evaluation oracle with kappa = -1
    val = boundary_mean_curvature_exact(circle, 0.1, +1, 0.0)
    assert val == pytest.approx(-10.0 / 9.0, abs=1e-14)


def test_boundary_curvature_small_eps_limit(ellipse):
    s = np.linspace(0.0, ellipse.length, 11)
    kap = ellipse.curvature(s)
    for side in (+1, -1):
        vals = boundary_mean_curvature_exact(ellipse, 1e-9, side, s)
        assert np.abs(vals - side * kap / (1.0 + side * 1e-9 * kap)).max() == 0.0
        assert np.abs(vals - side * kap).max() < 1e-7


def test_boundary_curvature_expansion_bound(circle):
    # second-order remainder bound of the exact formula around the expansion
    eps = 0.05
    s = np.linspace(0.0, circle.length, 9)
    kap = circle.curvature(s)
    h_plus = boundary_mean_curvature_exact(circle, eps, +1, s)
    expansion = kap - eps * kap**2
    bound = 2.0 * eps**2 * np.abs(kap) ** 3 / (1.0 - eps * np.abs(kap))
    assert np.all(np.abs(h_plus - expansion) <= bound)


def test_boundary_curvature_guard(circle):
    with pytest.raises(ValueError):
        boundary_mean_curvature_exact(circle, 1.0, +1, 0.0)


def test_shell_metric_values(circle):
    met = shell_metric(circle, 0.1)
    assert met.phi(0.3, 1.0) / 0.1 == pytest.approx(0.9, abs=1e-14)
    assert met.g11(0.3, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert met.phi(1.2, 0.0) == pytest.approx(0.1, abs=1e-15)
    assert met.boundary_weight(+1, 0.0) == pytest.approx(0.9)
    assert met.boundary_weight(-1, 0.0) == pytest.approx(1.1)


def test_shell_metric_guard(ellipse):
    with pytest.raises(ValueError):
        shell_metric(ellipse, 0.46)   # beyond 0.9/max|kappa| = 0.45
    shell_metric(ellipse, 0.44)


def test_det_g_matches_jacobian(circle, ellipse, rng):
    # finite-difference Jacobian oracle of the tubular map
    worst = 0.0
    for _ in range(50):
        crv = (circle, ellipse)[rng.integers(2)]
        eps = float(rng.uniform(0.02, min(0.4, 0.8 / crv.kappa_max)))
        met = shell_metric(crv, eps)
        s0 = float(rng.uniform(0.0, crv.length))
        t0 = float(rng.uniform(-1.0, 1.0))
        h = 1e-5
        jac = np.zeros((2, 2))
        jac[:, 0] = (
            met.tubular_map(np.array([s0 + h]), np.array([t0]))[0]
            - met.tubular_map(np.array([s0 - h]), np.array([t0]))[0]
        ) / (2.0 * h)
        jac[:, 1] = (
            met.tubular_map(np.array([s0]), np.array([t0 + h]))[0]
            - met.tubular_map(np.array([s0]), np.array([t0 - h]))[0]
        ) / (2.0 * h)
        det_fd = abs(np.linalg.det(jac))
        det_formula = math.sqrt(float(met.det_g(s0, t0)))
        worst = max(worst, abs(det_fd - det_formula) / det_formula)
    assert worst <= 1e-9


def test_metric_positive_below_guard(ellipse, rng):
    met = shell_metric(ellipse, 0.4)
    s = rng.uniform(0.0, ellipse.length, size=200)
    t = rng.uniform(-1.0, 1.0, size=200)
    assert np.all(met.phi(s, t) > 0.0)


def test_metric_sandwich_bound(circle, ellipse, rng):
    # two-sided flat-metric comparability with c = 3*max|kappa|, checked on
    # eps at most a quarter of the injectivity guard where the concrete
    # constant provably works
    for crv in (circle, ellipse):
        c = 3.0 * crv.kappa_max
        for _ in range(200):
            eps = float(rng.uniform(1e-3, 0.225 / crv.kappa_max))
            met = shell_metric(crv, eps)
            s0 = float(rng.uniform(0.0, crv.length))
            t0 = float(rng.uniform(-1.0, 1.0))
            ratio = 1.0 / float(met.g11(s0, t0))
            assert 1.0 - c * eps <= ratio <= 1.0 + c * eps


def test_flat_strip_harness():
    strip = flat_strip(5.0)
    assert not strip.closed
    assert strip.kappa_max == 0.0
    s = np.array([0.0, 1.0, 2.5])
    assert np.all(strip.curvature(s) == 0.0)
    assert np.all(strip.normal(s) == np.array([0.0, 1.0]))
    met = shell_metric(strip, 0.3)
    assert np.all(met.phi(s, np.array([0.5, -0.5, 1.0])) == 0.3)


def test_factory_rejections():
    with pytest.raises(CurveError):
        make_curve("circle", r=-1.0)
    with pytest.raises(CurveError):
        make_curve("ellipse", a=0.0, b=1.0)
    with pytest.raises(CurveError):
        # limacon with an inner loop: r = 1 + 2 cos(theta)
        make_curve("fourier", coeffs=[(0, 1.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 0.0)])
    with pytest.raises(CurveError):
        make_curve("trefoil")


def test_orientation_forced_clockwise():
    # counterclockwise input coefficients are flipped on construction
    ccw = make_curve("fourier", coeffs=[(-1, 1.0, 0.0)])
    assert abs(ccw.total_curvature() + TWO_PI) < 1e-9
    assert np.abs(ccw.curvature(np.array([0.0, 1.0])) + 1.0).max() < 1e-10


def test_curve_json_and_csv():
    crv = curve_from_json({"kind": "ellipse", "a": 2.0, "b": 1.0})
    assert abs(crv.kappa_max - 2.0) < 1e-9
    crv2 = curve_from_json('{"kind": "circle", "r": 2.0}')
    assert abs(crv2.length - 2.0 * TWO_PI) < 1e-10
    with pytest.raises(CurveError):
        curve_from_json({"kind": "pentagon"})
