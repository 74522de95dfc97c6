import math

import numpy as np
import pytest

from diracshell import effective
from diracshell.effective import (
    AUTO_RTOL,
    DEFAULT_COUPLING,
    assemble_effective,
    assemble_magnetic,
    converged_eigenvalues,
    effective_eigenvalues,
    effective_spectrum_csv,
    gauge_transform_check,
    magnetic_circle_spectrum,
    omega_oneform,
)
from diracshell.eigsolve import dense_hermitian_eig


def analytic_circle_levels(count):
    # independent Fourier diagonalization oracle on the unit circle
    ns = np.arange(-count - 2, count + 3)
    vals = ((2.0 * math.pi * ns + math.pi - 2.0) / (2.0 * math.pi)) ** 2 - 1.0 / math.pi**2
    return np.sort(vals)[:count]


def test_omega_circle_is_alpha3(fam2, circle):
    om = omega_oneform(fam2, circle, 0.5)
    assert np.abs(om - np.diag([1.0, -1.0])).max() <= 1e-12


def test_omega_structure_matches_curvature(fam2, ellipse):
    # two independent formulas: -i Gamma(nu') Gamma(nu) versus -kappa a_3
    for s in (0.0, 1.3, 4.0, 7.7):
        om = omega_oneform(fam2, ellipse, s)
        kap = float(ellipse.curvature(np.array([s]))[0])
        assert np.abs(om - (-kap) * np.diag([1.0, -1.0])).max() <= 1e-10
        assert np.abs(om - om.conj().T).max() <= 1e-12


def test_omega_vanishing_curvature(fam2):
    from diracshell.geometry import flat_strip

    om = omega_oneform(fam2, flat_strip(5.0), 1.0)
    assert np.abs(om).max() == 0.0


def test_magnetic_circle_analytic(circle):
    mag = assemble_magnetic(circle, 512)
    mu = effective_eigenvalues(mag, 5)
    assert np.abs(mu - analytic_circle_levels(5)).max() <= 1e-6
    assert np.abs(mu - magnetic_circle_spectrum(1.0, 5)).max() <= 1e-6


def test_magnetic_zero_curvature_strip():
    from diracshell.geometry import flat_strip

    mag = assemble_magnetic(flat_strip(2.0 * math.pi), 128)
    mu = effective_eigenvalues(mag, 1)
    assert mu[0] == pytest.approx(((math.pi - 2.0) / (2.0 * math.pi)) ** 2, abs=1e-12)


def test_magnetic_flux_periodicity(ellipse):
    # gauge-periodicity oracle: shifting the flux by 2*pi/L relabels modes
    base = effective_eigenvalues(assemble_magnetic(ellipse, 256), 5)
    flux = (math.pi - 2.0) / ellipse.length
    shifted = effective_eigenvalues(
        assemble_magnetic(ellipse, 256, flux=flux + 2.0 * math.pi / ellipse.length), 5
    )
    assert np.abs(base - shifted).max() <= 1e-9


def test_effective_circle_ground_level(fam2, circle):
    mu = effective_eigenvalues(assemble_effective(fam2, circle, 256), 4)
    expect = ((math.pi - 2.0) / (2.0 * math.pi)) ** 2 - 1.0 / math.pi**2
    assert mu[0] == pytest.approx(expect, abs=1e-10)
    assert mu[1] == pytest.approx(expect, abs=1e-10)
    assert mu[2] - mu[1] > 1e-3


def test_effective_hermitian_real(fam2, ellipse):
    asm = assemble_effective(fam2, ellipse, 128)
    a = asm.pencil.a
    assert np.abs(a - a.conj().T).max() <= 1e-12 * np.abs(a).max()
    mu = effective_eigenvalues(asm, 8)
    assert np.all(np.isreal(mu))


def test_effective_even_multiplicity(fam2, ellipse):
    # full C^2 pencil from the dense oracle, independent of the doubling
    # that effective_eigenvalues relies on
    asm = assemble_effective(fam2, ellipse, 256)
    mu = dense_hermitian_eig(asm.pencil.a).eigenvalues[:8]
    pairs = mu.reshape(4, 2)
    scale = 1e-8 * (1.0 + np.abs(mu).max())
    assert np.abs(pairs[:, 1] - pairs[:, 0]).max() <= scale


@pytest.mark.parametrize("scheme", ["fourier", "link"])
@pytest.mark.parametrize("curve_name", ["circle", "ellipse", "wobble"])
def test_lowest_values_match_full_dense_spectrum(request, fam2, scheme, curve_name):
    # the spin-up block solve, doubled, against the full pencil's spectrum;
    # and the single-block magnetic solve against its own full spectrum
    curve = request.getfixturevalue(curve_name)
    for asm in (
        assemble_effective(fam2, curve, 128, scheme=scheme),
        assemble_magnetic(curve, 128, scheme=scheme),
    ):
        full = dense_hermitian_eig(asm.pencil.a).eigenvalues
        for count in (1, 4, 5):
            mu = effective_eigenvalues(asm, count)
            assert mu.shape == (count,)
            scale = 1e-9 * (1.0 + np.abs(full[:count]).max())
            assert np.abs(mu - full[:count]).max() <= scale


def test_converged_reference_stops_at_128_on_the_circle(fam2, circle):
    # the Fourier reference is exact on the circle: 64 and 128 agree to rounding
    ref = converged_eigenvalues(fam2, circle, 4)
    assert ref.converged and ref.n_s == 128
    assert ref.err <= AUTO_RTOL
    assert np.abs(ref.eigenvalues - analytic_circle_levels(2).repeat(2)).max() <= 1e-12


def test_converged_reference_on_the_ellipse(fam2, ellipse, monkeypatch):
    # the doubling goes through the module-level names, which tracing wraps
    sizes = []

    def recording(fam, curve, n_s, *args, **kwargs):
        sizes.append(n_s)
        return assemble_effective(fam, curve, n_s, *args, **kwargs)

    monkeypatch.setattr(effective, "assemble_effective", recording)
    ref = converged_eigenvalues(fam2, ellipse, 4)
    assert sizes == [64, 128, 256]
    assert ref.converged and ref.n_s == 256 and ref.err <= AUTO_RTOL
    assert ref.eigenvalues.shape == (4,)
    fine = effective_eigenvalues(assemble_effective(fam2, ellipse, 1024), 4)
    assert np.abs(ref.eigenvalues - fine).max() <= 1e-9


def test_converged_reference_not_converged_at_the_cap(fam2, ellipse, monkeypatch):
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 128)
    ref = converged_eigenvalues(fam2, ellipse, 2)
    # 64 -> 128 still moves by about 5e-10 on ellipse(2, 1)
    assert not ref.converged and ref.n_s == 128
    assert AUTO_RTOL < ref.err < 1e-8
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 64)
    one = converged_eigenvalues(fam2, ellipse, 2)
    assert not one.converged and one.n_s == 64 and one.err is None


def test_effective_agrees_with_doubled_magnetic(fam2, circle, ellipse):
    for curve, tol in ((circle, 1e-6), (ellipse, 1e-5)):
        res = gauge_transform_check(fam2, curve, 512)
        assert res.spectral_distance <= tol
        assert res.phase_residual <= 1e-8
        assert res.similarity_residual <= 1e-12


def test_phase_periodicity_uses_total_curvature(fam2, wobble):
    res = gauge_transform_check(fam2, wobble, 128)
    assert res.phase_residual <= 1e-8


def test_coupling_tamper_breaks_gauge(fam2, ellipse):
    # negative control: any coupling other than the derived one must fail
    res = gauge_transform_check(fam2, ellipse, 128, coupling=0.30)
    assert res.spectral_distance > 1e-3


def test_link_scheme_convergence_order(fam2, ellipse):
    # three-grid convergence oracle against a converged spectral reference
    ref = effective_eigenvalues(assemble_effective(fam2, ellipse, 1024), 5)
    errs = []
    for n_s in (64, 128, 256):
        mu = effective_eigenvalues(assemble_effective(fam2, ellipse, n_s, scheme="link"), 5)
        errs.append(np.abs(mu - ref).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)


def test_link_scheme_gauge_similarity_exact(fam2, wobble):
    res = gauge_transform_check(fam2, wobble, 256)
    assert res.similarity_residual <= 1e-12


def test_potential_sign(fam2, ellipse):
    # the link scheme carries the potential on the diagonal of each spin
    # block, next to the 2/h^2 of the covariant difference
    n_s = 64
    h = ellipse.length / n_s
    asm = assemble_effective(fam2, ellipse, n_s, scheme="link")
    diag = np.real(np.diagonal(asm.pencil.a))
    for block in (diag[:n_s], diag[n_s:]):
        potential = block - 2.0 / h**2
        assert np.all(potential <= 0.0)
        assert np.allclose(potential, -ellipse.curvature(np.arange(n_s) * h) ** 2 / math.pi**2)


def test_assembly_validation(fam2, circle):
    with pytest.raises(ValueError):
        assemble_effective(fam2, circle, 8)
    with pytest.raises(ValueError):
        assemble_effective(fam2, circle, 33)
    with pytest.raises(ValueError):
        assemble_effective(fam2, circle, 64, scheme="chebyshev")
    from diracshell.clifford import build_clifford

    with pytest.raises(ValueError):
        assemble_effective(build_clifford(3), circle, 64)


def test_effective_spectrum_csv(tmp_path, fam2, circle):
    path = tmp_path / "eff.csv"
    res = effective_spectrum_csv(path, fam2, circle, 128, count=6)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "index,mu_effective,mu_magnetic_pair,abs_diff"
    assert len(rows) == 7
    assert res.spectral_distance <= 1e-8


def test_coupling_constant_value():
    assert DEFAULT_COUPLING == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-16)
