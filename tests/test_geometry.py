import math

import numpy as np
import pytest

from diracshell.geometry import (
    CurveError,
    curve_from_json,
    flat_strip,
    make_curve,
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


def test_shell_metric_values(circle):
    met = shell_metric(circle, 0.1)
    # the tangential coefficient stretch^2 and the volume factor eps*stretch
    assert met.stretch(0.0, circle.curvature(0.3)) ** 2 == pytest.approx(1.0, abs=1e-14)
    assert (met.eps * met.stretch(1.0, circle.curvature(0.3))) ** 2 == pytest.approx((0.1 * 0.9) ** 2, abs=1e-15)


def test_shell_metric_guard(ellipse):
    with pytest.raises(ValueError):
        shell_metric(ellipse, 0.46)   # beyond 0.9/max|kappa| = 0.45
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps must be positive"):
            shell_metric(ellipse, eps)
    shell_metric(ellipse, 0.44)


def test_shell_metric_refuses_a_nan_or_infinite_width(circle):
    # the strip's kappa_max = 0 skips the injectivity guard, so +inf reached it too
    strip = flat_strip(TWO_PI)
    for crv, eps in ((circle, math.nan), (strip, math.nan), (strip, math.inf)):
        with pytest.raises(ValueError, match="eps must be positive"):
            shell_metric(crv, eps)


def test_strip_tubular_map_is_the_scaled_product():
    # the strip's embedding (s, t) -> (s, -eps t); no production path reads its position
    met = shell_metric(flat_strip(3.0), 0.2)
    s = np.linspace(0.0, 3.0, 7)
    t = np.linspace(-1.0, 1.0, 7)
    assert np.array_equal(met.tubular_map(s, t), np.stack([s, -0.2 * t], axis=-1))


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
        det_formula = met.eps * float(met.stretch(t0, crv.curvature(s0)))
        worst = max(worst, abs(det_fd - det_formula) / det_formula)
    assert worst <= 1e-9


def test_metric_positive_below_guard(ellipse, rng):
    met = shell_metric(ellipse, 0.4)
    s = rng.uniform(0.0, ellipse.length, size=200)
    t = rng.uniform(-1.0, 1.0, size=200)
    assert np.all(met.stretch(t, ellipse.curvature(s)) > 0.0)  # the radial weight over eps


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
            ratio = 1.0 / float(met.stretch(t0, crv.curvature(s0))) ** 2
            assert 1.0 - c * eps <= ratio <= 1.0 + c * eps


def test_flat_strip_harness():
    strip = flat_strip(5.0)
    assert strip.length == 5.0
    assert strip.kappa_max == 0.0
    s = np.array([0.0, 1.0, 2.5])
    assert np.all(strip.curvature(s) == 0.0)
    assert np.all(strip.normal(s) == np.array([0.0, 1.0]))
    met = shell_metric(strip, 0.3)
    assert np.all((met.eps * met.stretch(np.array([0.5, -0.5, 1.0]), strip.curvature(s))) ** 2 == 0.3**2)


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
    with pytest.raises(CurveError, match="at least one coefficient"):
        make_curve("fourier", coeffs=[])
    with pytest.raises(CurveError, match="vanishing speed"):
        make_curve("fourier", coeffs=[(0, 1.0, 0.0)])   # a point, not a curve
    # every parameter is a finite real number, each wavenumber an integer; the error names it
    for kind, params, key in (
        ("circle", {"r": math.nan}, "r"),
        ("circle", {"r": math.inf}, "r"),
        ("circle", {"r": True}, "r"),
        ("ellipse", {"a": 2.0, "b": "1"}, "b"),
        ("fourier", {"coeffs": [(1, 1.0, 0.0), (-2, math.nan, 0.0)]}, r"coeffs\[1\] re"),
        ("fourier", {"coeffs": [(1, 1.0, -math.inf)]}, r"coeffs\[0\] im"),
        ("fourier", {"coeffs": [(1.7, 1.0, 0.0)]}, r"coeffs\[0\] k"),
        ("fourier", {"coeffs": [(True, 1.0, 0.0)]}, r"coeffs\[0\] k"),
    ):
        with pytest.raises(CurveError, match=f"curve parameter {key} must be"):
            make_curve(kind, **params)
    for length in (math.inf, math.nan, "6", True):
        with pytest.raises(CurveError, match="length"):
            flat_strip(length)
    # an integral float wavenumber is that integer
    integral, integer = (make_curve("fourier", coeffs=[(k, 1.0, 0.0), (-2, 0.15, 0.0)]) for k in (1.0, 1))
    assert integral.length == integer.length


def test_curve_out_of_double_range_is_refused(ellipse, wobble):
    # every closed curve has max|kappa| * L >= 2*pi; computed values short of that,
    # or not finite, mean the curve left double range
    for kind, params in (
        ("circle", {"r": 1e150}),           # speed^3 overflows, so kappa reads 0
        ("ellipse", {"a": 1e-300, "b": 1.0}),  # max|kappa| b/a^2 = 1e300 reads 4e-252
        ("circle", {"r": 1e300}),           # infinite length, kappa NaN
    ):
        with pytest.raises(CurveError, match="out of double range"):
            make_curve(kind, **params)
    # the bound holds to rounding on curves inside that range
    curves = [make_curve("circle", r=r) for r in (1e-100, 1e-10, 1.0, 1e10, 1e100)]
    curves += [make_curve("ellipse", a=a, b=b) for a, b in ((1.0, 2.0), (30.0, 1.0))] + [ellipse, wobble]
    assert min(c.kappa_max * c.length / TWO_PI for c in curves) - 1.0 >= -1e-12


def _loop_polygon_is_simple(coeffs, n=256):
    # reference: the pairwise segment test, one pair at a time
    th = np.arange(n) * (TWO_PI / n)
    z = sum(complex(re, im) * np.exp(1.0j * k * th) for k, re, im in coeffs)
    pts = np.stack([z.real, z.imag], axis=-1)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 2, n - (i == 0)):
            c, d = pts[j], pts[(j + 1) % n]
            if ((orient(c, d, a) > 0) != (orient(c, d, b) > 0)) and (
                (orient(a, b, c) > 0) != (orient(a, b, d) > 0)
            ):
                return False
    return True


def test_self_intersection_test_matches_loop_reference():
    # the vectorized polygon test makes the loop's decision on simple
    # curves and on curves with loops (the last three)
    cases = [
        [(1, 1.0, 0.0), (-2, 0.15, 0.0)],
        [(1, 1.0, 0.0), (-2, 0.3, 0.0)],
        [(1, 1.0, 0.0), (3, 0.2, 0.1)],
        [(0, 1.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 0.0)],
        [(1, 1.0, 0.0), (-2, 0.55, 0.0)],
        [(1, 1.0, 0.0), (3, 0.4, 0.1)],
    ]
    decisions = []
    for coeffs in cases:
        try:
            make_curve("fourier", coeffs=coeffs)
            decisions.append(True)
        except CurveError:
            decisions.append(False)
    assert decisions == [_loop_polygon_is_simple(c) for c in cases] == [True] * 3 + [False] * 3


def test_orientation_forced_clockwise():
    # the unit circle traversed clockwise (k = -1) is kept, counterclockwise (k = 1) flipped
    for k in (-1, 1):
        crv = make_curve("fourier", coeffs=[(k, 1.0, 0.0)])
        assert abs(crv.total_curvature() + TWO_PI) < 1e-9
        assert np.abs(crv.curvature(np.array([0.0, 1.0])) + 1.0).max() < 1e-10


@pytest.mark.parametrize("merged", [
    [(1, 1.0, 0.0), (-2, 0.15, 0.0)],
    # counterclockwise only once the repeated k = 1 is summed: term by term, the
    # area pi * sum k |c|^2 would read pi * (0.25 + 0.25 - 0.5625) < 0
    [(1, 1.0, 0.0), (-1, 0.75, 0.0)],
], ids=["wobble", "ellipse"])
def test_repeated_wavenumber_is_stored_clockwise(merged):
    (k, re, im), rest = merged[0], merged[1:]
    split = make_curve("fourier", coeffs=[(k, re / 2, im / 2), (k, re / 2, im / 2), *rest])
    assert abs(split.total_curvature() + TWO_PI) < 1e-9
    s = np.linspace(0.0, 20.0, 2001)
    assert np.array_equal(split.curvature(s), make_curve("fourier", coeffs=merged).curvature(s))


def test_make_curve_applies_the_config_rules():
    # the Python factory refuses what curve_from_json refuses, in the same words
    for kind, params, message in (
        ("circle", {"r": 1.0, "a": 5.0}, "unknown circle curve config keys: a$"),
        ("circle", {}, "missing circle curve config keys: r$"),
        ("Circle", {"r": 1.0}, "unknown curve config kind 'Circle'$"),
    ):
        with pytest.raises(CurveError, match=message):
            make_curve(kind, **params)
    assert make_curve("strip", length=6.0).name == flat_strip(6.0).name == "strip(6)"


def test_make_curve_refuses_malformed_input_as_curve_error():
    # the factory itself refuses what it cannot build, so a Python caller
    # that catches CurveError sees every refusal
    for args, params, message in (
        (("fourier",), {"coeffs": 5}, r"coeffs must be a list of \(k, re, im\) triples, got 5$"),
        (("fourier",), {"coeffs": [[1, 2]]}, r"coeffs must be a list of \(k, re, im\) triples"),
        ((["circle"],), {}, r"unknown curve config kind \['circle'\]$"),
        (("circle",), {"r": 10**400}, "curve parameter r must be a finite number"),
    ):
        with pytest.raises(CurveError, match=message):
            make_curve(*args, **params)


def test_curve_json_and_csv():
    crv = curve_from_json({"kind": "ellipse", "a": 2.0, "b": 1.0})
    assert abs(crv.kappa_max - 2.0) < 1e-9
    crv2 = curve_from_json({"kind": "circle", "r": 2.0})
    assert abs(crv2.length - 2.0 * TWO_PI) < 1e-10
    # JSON text is parsed by the CLI, never here
    with pytest.raises(CurveError, match="must be a JSON object"):
        curve_from_json('{"kind": "circle", "r": 2.0}')
    with pytest.raises(CurveError):
        curve_from_json({"kind": "pentagon"})


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "circle"},
        5,
        {"kind": "circle", "r": "x"},
        {"kind": "fourier", "coeffs": 5},
        {"kind": "fourier", "coeffs": [[1, 2]]},
        {"kind": "strip", "length": 0},
        {"kind": "circle", "r": math.nan},
        {"kind": "circle", "r": math.inf},
        {"kind": "circle", "r": True},
        {"kind": "circle", "r": "2"},
        {"kind": "fourier", "coeffs": [[1, math.nan, 0]]},
        {"kind": "fourier", "coeffs": [[1.7, 1, 0]]},
        {"kind": "strip", "length": math.inf},
        {"kind": "strip", "length": "6"},
        {"kind": ["circle"]},
        {"kind": "circle", "r": 1.0, 1: 2},
    ],
    ids=[
        "missing-key", "not-an-object", "radius-not-a-number", "coeffs-not-a-list", "short-coeff",
        "empty-strip", "radius-nan", "radius-infinite", "radius-true", "radius-string",
        "coefficient-nan", "wavenumber-fractional", "strip-infinite", "strip-string",
        "kind-not-a-string", "key-not-a-string",
    ],
)
def test_curve_from_json_rejects_what_it_cannot_build(config):
    with pytest.raises(CurveError):
        curve_from_json(config)


def test_curve_from_json_rejects_a_key_of_another_kind():
    # each kind takes only its own parameters; any other key is named, never ignored
    own = {
        "circle": {"r": 1.0},
        "ellipse": {"a": 2.0, "b": 1.0},
        "fourier": {"coeffs": [[1, 1.0, 0.0]]},
        "strip": {"length": 6.0},
    }
    for kind, params in own.items():
        assert curve_from_json({"kind": kind, **params}).length > 0.0
        with pytest.raises(CurveError, match=f"unknown {kind} curve config keys: rotation$"):
            curve_from_json({"kind": kind, **params, "rotation": 0.3})
    # an ellipse key on a circle would otherwise build circle(1)
    with pytest.raises(CurveError, match="unknown circle curve config keys: a, rotation$"):
        curve_from_json({"kind": "circle", "r": 1.0, "a": 5.0, "rotation": 0.3})
