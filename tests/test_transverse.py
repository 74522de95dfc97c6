import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshell import checks, shell, transverse
from diracshell.clifford import gamma
from diracshell.transverse import (
    bracket,
    energy,
    k1_series,
    level,
    mode,
    normalization,
    secular,
    solve_k,
    transverse_table,
)


def bisect_oracle(m, p, steps=60):
    lo, hi = bracket(p)
    flo = secular(lo, m)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (secular(mid, m) > 0) == (flo > 0):
            lo, flo = mid, secular(mid, m)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_roots_at_zero_mass():
    assert solve_k(0.0, 1) == math.pi / 4.0
    assert solve_k(0.0, 2) == 3.0 * math.pi / 4.0


def test_root_against_bisection_oracle():
    for p in range(1, 7):
        for m in (0.0, 1e-3, 0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0):
            k = solve_k(m, p)
            assert abs(k - bisect_oracle(m, p)) <= 2.0 * np.spacing(k)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0), st.integers(min_value=1, max_value=6))
def test_root_bracket_and_residual(m, p):
    k = solve_k(m, p)
    lo, hi = bracket(p)
    assert lo <= k <= hi
    assert abs(secular(k, m)) <= 1e-13
    # bracket exclusivity: secular changes sign across the bracket
    if m > 0:
        assert secular(lo, m) * secular(hi, m) < 0


def test_root_input_validation():
    for m in (-0.1, math.nan):
        with pytest.raises(ValueError, match="mass must be nonnegative"):
            solve_k(m, 1)
    with pytest.raises(ValueError):
        solve_k(0.1, 0)


@pytest.mark.parametrize("m", [0.0, 5e-324, 1e-300, 1e-20, 1e-14, 0.3, 1e6, 1e16, 1e200])
def test_every_root_stays_in_its_bracket_at_any_mass(m):
    # the bracket's left end has g = (-1)^(p+1) m, whose float sign is rounding
    # noise for tiny m; the root must still lie in its band, at the left end for m -> 0
    for p in range(1, 41):
        lo, hi = bracket(p)
        k = solve_k(m, p)
        assert lo <= k <= hi, p
        if m <= 1e-13:
            assert abs(k - lo) <= 1e-12, p


def test_tiny_mass_levels_stay_in_their_bands():
    # a root that left band 7 used to read k ~ 1e-12, so the level read ~ 3e-23
    assert level(1e-15, 0.2, 7) == pytest.approx(level(0.0, 0.2, 7), rel=1e-12)
    assert level(0.0, 0.2, 7) == pytest.approx((13.0 * math.pi / 4.0) ** 2 / 0.04, rel=1e-15)
    strip = shell.flat_strip_levels(2.0 * math.pi, 1e-15, 0.2, 12)
    assert np.allclose(strip, shell.flat_strip_levels(2.0 * math.pi, 0.0, 0.2, 12), rtol=1e-12, atol=0.0)


def test_series_values_and_order():
    assert k1_series(0.0) == math.pi / 4.0
    assert abs(k1_series(0.01) - solve_k(0.01, 1)) < 5e-6
    # Richardson ratio oracle: the defect is third order in the mass
    errs = {m: abs(k1_series(m) - solve_k(m, 1)) for m in (0.01, 0.02, 0.04, 0.08)}
    for small, big in ((0.01, 0.02), (0.02, 0.04), (0.04, 0.08)):
        assert 6.5 <= errs[big] / errs[small] <= 9.5
    c_fit = max(errs[m] / m**3 for m in errs)
    assert c_fit < 1.0
    assert all(errs[m] <= c_fit * m**3 for m in errs)


def test_energy_values():
    assert energy(0.0, 1) == math.pi / 4.0
    k = solve_k(0.2, 1)
    assert energy(0.2, 1) == pytest.approx(math.hypot(0.2, k), abs=1e-15)
    for m in (0.0, 0.3, 1.5):
        for p in (1, 2, 5):
            e = energy(m, p)
            assert e >= max(m, solve_k(m, p))
            assert e > m  # spectrum avoids [-m, m]


def test_energy_expansion_third_order():
    # E_1(d)^2 = pi^2/16 + d + (1 - 4/pi^2) d^2 + O(d^3)
    def resid(d):
        return abs(energy(d, 1) ** 2 - (math.pi**2 / 16.0 + d + (1.0 - 4.0 / math.pi**2) * d * d))

    assert resid(0.02) / 0.02**3 < 0.5
    ratio = resid(0.02) / resid(0.01)
    assert 6.5 <= ratio <= 9.5


def test_level_is_the_transverse_energy_squared_over_eps_squared():
    for m in (0.0, 0.5, 1.0, 3.0):
        for eps in (0.2, 0.1, 0.035):
            for p in (1, 2, 4):
                me = m * eps
                k = solve_k(me, p)
                assert level(m, eps, p) == (k * k + me * me) / eps**2
                assert level(m, eps, p) == pytest.approx((energy(me, p) / eps) ** 2, rel=1e-14)


def test_massless_level_is_the_closed_form_bit_for_bit():
    # at m = 0 the level is (pi/4)^2/eps^2, which equals pi^2/(16 eps^2) exactly,
    # so the massless residuals are the same floats as with the closed form
    for eps in np.random.default_rng(0).uniform(0.001, 1.0, 10_000):
        assert level(0.0, eps) == math.pi**2 / (16.0 * eps**2)


def test_normalization_closed_forms():
    assert normalization(0.0, 1) == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert normalization(0.0, 2) == pytest.approx(2.0 / (3.0 * math.pi), abs=1e-15)


@pytest.mark.parametrize("m", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sign", [+1, -1])
def test_modes_normalized_and_admissible(fam2, m, p, sign):
    # 64-node Gauss-Legendre quadrature oracle
    x = np.array([0.6, 0.8])
    nodes, weights = checks._GL64
    md = mode(fam2, x, m, p, 1, sign)
    vals = md.profile(nodes)
    norm = weights @ np.sum(np.abs(vals) ** 2, axis=1)
    assert abs(norm - 1.0) <= 1e-10
    assert checks._boundary_residual(fam2, x, md.profile) <= 1e-10
    assert md.E == energy(m, p)


def test_mode_is_eigenfunction(fam2):
    x = np.array([0.6, 0.8])
    gx = gamma(fam2, x).gamma
    t = np.linspace(-1.0, 1.0, 9)
    for m in (0.0, 0.2):
        for sign in (+1, -1):
            md = mode(fam2, x, m, 1, 1, sign)
            tphi = (-1j) * md.derivative(t) @ gx.T + m * md.profile(t) @ fam2.alpha_last.T
            assert np.abs(tphi - sign * md.E * md.profile(t)).max() <= 1e-12


def test_zero_mass_mode_closed_form(fam2):
    # at m=0, p=1 the plus-mode at t=-1 is (eps_j, -i beta(x) eps_j)/2
    x = np.array([0.6, 0.8])
    md = mode(fam2, x, 0.0, 1, 1, +1)
    got = md.profile(np.array([-1.0]))[0]
    bx = gamma(fam2, x).beta
    expect = 0.5 * np.concatenate([[1.0 + 0j], -1j * (bx @ np.array([1.0 + 0j]))])
    assert np.abs(got - expect).max() <= 1e-15


def test_eigenspace_orthonormal_basis(fam3):
    # Gram matrix of the N modes of band p within 1e-10 of the identity
    x = np.array([1.0, 2.0, -0.5])
    x /= np.linalg.norm(x)
    nodes, weights = checks._GL64
    mods = [mode(fam3, x, 0.3, 1, j, sgn) for sgn in (+1, -1) for j in (1, 2)]
    gram = np.zeros((4, 4), dtype=complex)
    for a, ma in enumerate(mods):
        va = ma.profile(nodes)
        for b, mb in enumerate(mods):
            gram[a, b] = weights @ np.sum(va.conj() * mb.profile(nodes), axis=1)
    assert np.abs(gram - np.eye(4)).max() <= 1e-10


def test_plus_minus_orthogonality(fam2):
    x = np.array([0.0, 1.0])
    nodes, weights = checks._GL64
    plus = mode(fam2, x, 0.0, 1, 1, +1).profile(nodes)
    minus = mode(fam2, x, 0.0, 1, 1, -1).profile(nodes)
    inner = weights @ np.sum(plus.conj() * minus, axis=1)
    assert abs(inner) <= 1e-12


def test_mode_input_validation(fam2):
    with pytest.raises(ValueError):
        mode(fam2, np.array([1.0, 1.0]), 0.1, 1, 1, +1)
    with pytest.raises(ValueError):
        mode(fam2, np.array([1.0, 0.0]), 0.1, 1, 2, +1)
    with pytest.raises(ValueError):
        mode(fam2, np.array([1.0, 0.0]), 0.1, 1, 1, 0)


def test_form_identity_on_eigenmode(fam2):
    x = np.array([0.6, 0.8])
    m = 0.25
    md = mode(fam2, x, m, 1, 1, +1)
    lhs, rhs = checks._form_identity_sides(fam2, x, m, md.profile, md.derivative)
    assert lhs == pytest.approx(md.E**2, abs=1e-12)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs)


def test_form_identity_zero_mass(fam2):
    x = np.array([0.6, 0.8])
    md = mode(fam2, x, 0.0, 1, 1, +1)
    lhs, rhs = checks._form_identity_sides(fam2, x, 0.0, md.profile, md.derivative)
    assert lhs == pytest.approx(math.pi**2 / 16.0, abs=1e-13)
    assert rhs == pytest.approx(math.pi**2 / 16.0, abs=1e-13)


def test_form_identity_random_combinations(fam2, rng):
    x = np.array([0.6, 0.8])
    m = 0.4
    mods = [mode(fam2, x, m, p, 1, sgn) for p in (1, 2, 3) for sgn in (+1, -1)]
    for _ in range(20):
        cs = rng.standard_normal(len(mods)) + 1j * rng.standard_normal(len(mods))
        f = lambda t: sum(c * md.profile(t) for c, md in zip(cs, mods))
        fp = lambda t: sum(c * md.derivative(t) for c, md in zip(cs, mods))
        lhs, rhs = checks._form_identity_sides(fam2, x, m, f, fp)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + lhs)


def test_form_identity_rejects_bad_boundary(fam2):
    x = np.array([0.6, 0.8])
    f = lambda t: np.stack([np.cos(t), np.zeros_like(t)], axis=-1).astype(complex)
    fp = lambda t: np.stack([-np.sin(t), np.zeros_like(t)], axis=-1).astype(complex)
    with pytest.raises(ValueError):
        checks._form_identity_sides(fam2, x, 0.1, f, fp)


def test_mode_perturbation_linear():
    # dense t-sampling oracle (1001 points) and doubling-ratio oracle, both
    # in the registry entry, which passes iff 0.95 <= order <= 1.2 and the
    # doubling ratio lies in [1.8, 2.2]
    res = checks.check_mode_perturbation()
    assert res.passed, res.detail


def test_each_mode_and_table_row_solves_its_root_once(fam2, monkeypatch):
    # k_p(m) is solved once; E_p and N_{m,p} come from that root, bit for bit
    expected = [(m, p, solve_k(m, p), energy(m, p), normalization(m, p)) for m in (0.0, 0.5) for p in (1, 2)]
    calls = []

    def counted(m, p):
        calls.append((m, p))
        return solve_k(m, p)

    monkeypatch.setattr(transverse, "solve_k", counted)
    md = mode(fam2, np.array([0.6, 0.8]), 0.5, 2, 1, +1)
    assert calls == [(0.5, 2)] and md.E == expected[3][3]
    calls.clear()
    assert transverse_table([0.0, 0.5], [1, 2]) == expected
    assert calls == [(m, p) for m, p, *_ in expected]


def test_transverse_table_rows():
    rows = transverse_table([0.0, 0.5], [1, 2])
    assert len(rows) == 4
    m, p, k, e, n = rows[0]
    assert (m, p) == (0.0, 1)
    assert k == math.pi / 4.0 and e == math.pi / 4.0
    assert n == pytest.approx(2.0 / math.pi)
