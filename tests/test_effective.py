import math

import numpy as np
import pytest

from diracshell import checks, effective
from diracshell.effective import (
    AUTO_RTOL,
    DEFAULT_COUPLING,
    EffectiveFormAssembly,
    assemble_effective,
    assemble_magnetic,
    converged_eigenvalues,
    effective_eigenvalues,
    magnetic_circle_spectrum,
)
from diracshell.eigsolve import HermitianPencil, dense_hermitian_eig


def analytic_circle_levels(count):
    # independent Fourier diagonalization oracle on the unit circle
    ns = np.arange(-count - 2, count + 3)
    vals = ((2.0 * math.pi * ns + math.pi - 2.0) / (2.0 * math.pi)) ** 2 - 1.0 / math.pi**2
    return np.sort(vals)[:count]


def test_magnetic_circle_analytic(circle):
    mag = assemble_magnetic(circle, 512)
    mu = effective_eigenvalues(mag, 5).eigenvalues
    assert np.abs(mu - analytic_circle_levels(5)).max() <= 1e-6
    assert np.abs(mu - magnetic_circle_spectrum(1.0, 5)).max() <= 1e-6


def test_magnetic_zero_curvature_strip():
    from diracshell.geometry import flat_strip

    mag = assemble_magnetic(flat_strip(2.0 * math.pi), 128)
    mu = effective_eigenvalues(mag, 1).eigenvalues
    assert mu[0] == pytest.approx(((math.pi - 2.0) / (2.0 * math.pi)) ** 2, abs=1e-12)


def test_magnetic_flux_periodicity(ellipse):
    # gauge-periodicity oracle: shifting the flux by 2*pi/L relabels modes
    base = effective_eigenvalues(assemble_magnetic(ellipse, 256), 5).eigenvalues
    flux = (math.pi - 2.0) / ellipse.length + 2.0 * math.pi / ellipse.length
    shifted = effective._covariant_block(ellipse, 256, "fourier", 0.0, flux)
    assert np.abs(base - dense_hermitian_eig(shifted, count=5).eigenvalues).max() <= 1e-9


def test_effective_eigenvalues_rejects_a_non_hermitian_block(circle):
    # the reference is solved by the dense oracle, which checks hermiticity first
    a = assemble_effective(circle, 64).pencil.a.copy()
    a[0, 1] += 1e-9 * np.abs(a).max()
    with pytest.raises(ValueError, match="not hermitian"):
        effective_eigenvalues(EffectiveFormAssembly(HermitianPencil.make(a)), 2)


def test_effective_circle_ground_level(circle):
    # block values: the ground level, then a gap to the next level
    mu = effective_eigenvalues(assemble_effective(circle, 256), 2).eigenvalues
    expect = ((math.pi - 2.0) / (2.0 * math.pi)) ** 2 - 1.0 / math.pi**2
    assert mu[0] == pytest.approx(expect, abs=1e-10)
    assert mu[1] - mu[0] > 1e-3


def test_effective_hermitian_real(ellipse):
    asm = assemble_effective(ellipse, 128)
    a = asm.pencil.a
    assert np.abs(a - a.conj().T).max() <= 1e-12 * np.abs(a).max()
    mu = effective_eigenvalues(asm, 8).eigenvalues
    assert np.all(np.isreal(mu))


def _spin_blocks(curve, n_s, scheme="fourier"):
    # spin-up and spin-down blocks: the spin-down one is the coupling-negated assembly
    return [
        assemble_effective(curve, n_s, scheme=scheme, coupling=c)
        for c in (DEFAULT_COUPLING, -DEFAULT_COUPLING)
    ]


def test_effective_even_multiplicity(ellipse):
    # the C^2 spectrum from the dense oracle on both blocks, independent of
    # the pairing that the sweep relies on
    blocks = _spin_blocks(ellipse, 256)
    mu = np.sort(np.concatenate([dense_hermitian_eig(b.pencil.a).eigenvalues for b in blocks]))[:8]
    pairs = mu.reshape(4, 2)
    scale = 1e-8 * (1.0 + np.abs(mu).max())
    assert np.abs(pairs[:, 1] - pairs[:, 0]).max() <= scale


@pytest.mark.parametrize("scheme", ["fourier", "link"])
@pytest.mark.parametrize("curve_name", ["circle", "ellipse", "wobble"])
def test_lowest_values_match_full_dense_spectrum(request, scheme, curve_name):
    # the spin-up and the magnetic block solves against their own full
    # spectra; and the spin-up values, doubled, against the C^2 spectrum
    # (both blocks from the dense oracle)
    curve = request.getfixturevalue(curve_name)
    blocks = _spin_blocks(curve, 128, scheme)
    mag = assemble_magnetic(curve, 128, scheme=scheme)
    c2 = np.sort(np.concatenate([dense_hermitian_eig(b.pencil.a).eigenvalues for b in blocks]))
    for asm in (blocks[0], mag):
        full = dense_hermitian_eig(asm.pencil.a).eigenvalues
        for count in (1, 4, 5):
            res = effective_eigenvalues(asm, count)
            assert res.eigenvalues.shape == res.residuals.shape == (count,)
            scale = 1e-9 * (1.0 + np.abs(full[:count]).max())
            assert np.abs(res.eigenvalues - full[:count]).max() <= scale
            # each reported value carries the oracle's residual
            assert 0.0 < res.residuals.max() <= scale
            if asm is blocks[0]:
                assert np.abs(np.repeat(res.eigenvalues, 2) - c2[: 2 * count]).max() <= scale


def test_effective_eigenvalues_keeps_the_oracle_vectors(ellipse):
    # one block eigenvector per value, each giving the residual the oracle reports for it
    asm = assemble_effective(ellipse, 128)
    res = effective_eigenvalues(asm, 3)
    assert res.vectors.shape == (127, 3)
    a, vecs = asm.pencil.a, res.vectors
    again = np.linalg.norm(a @ vecs - vecs * res.eigenvalues[None, :], axis=0) / np.linalg.norm(vecs, axis=0)
    assert np.array_equal(again, res.residuals)
    assert res.residuals.max() <= 1e-9 * np.abs(res.eigenvalues).max()


def test_converged_reference_stops_at_128_on_the_circle(circle):
    # the Fourier reference is exact on the circle: 64 and 128 agree to rounding
    ref = converged_eigenvalues(circle, 2)
    assert ref.converged and ref.n_s == 128
    assert ref.err <= AUTO_RTOL
    assert np.abs(ref.eigenvalues - analytic_circle_levels(2)).max() <= 1e-12


def test_converged_reference_on_the_ellipse(ellipse, monkeypatch):
    # the doubling goes through the module-level names, which tracing wraps
    sizes = []

    def recording(curve, n_s, *args, **kwargs):
        sizes.append(n_s)
        return assemble_effective(curve, n_s, *args, **kwargs)

    monkeypatch.setattr(effective, "assemble_effective", recording)
    ref = converged_eigenvalues(ellipse, 2)
    assert sizes == [64, 128, 256]
    assert ref.converged and ref.n_s == 256 and ref.err <= AUTO_RTOL
    assert ref.eigenvalues.shape == (2,)
    fine = effective_eigenvalues(assemble_effective(ellipse, 1024), 2).eigenvalues
    assert np.abs(ref.eigenvalues - fine).max() <= 1e-9
    # the residual of the values reported, at the size reported, solved with one value beyond them
    at_256 = effective_eigenvalues(assemble_effective(ellipse, 256), 3)
    assert ref.residual_max == at_256.residuals[:2].max() > 0.0


def test_converged_reference_not_converged_at_the_cap(ellipse, monkeypatch):
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 128)
    ref = converged_eigenvalues(ellipse, 2)
    # 64 -> 128 still moves by about 5e-10 on ellipse(2, 1)
    assert not ref.converged and ref.n_s == 128
    assert AUTO_RTOL < ref.err < 1e-8
    monkeypatch.setattr(effective, "AUTO_NS_CAP", 64)
    one = converged_eigenvalues(ellipse, 2)
    assert not one.converged and one.n_s == 64 and one.err is None


def test_effective_agrees_with_doubled_magnetic(circle, ellipse):
    for curve, tol in ((circle, 1e-6), (ellipse, 1e-5)):
        spectral, phase, similarity = checks._gauge_observables(curve, 512)
        assert spectral <= tol
        assert phase <= 1e-8
        assert similarity <= 1e-12


def test_phase_periodicity_uses_total_curvature(wobble):
    _, phase, _ = checks._gauge_observables(wobble, 128)
    assert phase <= 1e-8


def test_coupling_tamper_breaks_gauge(ellipse):
    # negative control: any coupling other than the derived one must fail
    spectral, _, _ = checks._gauge_observables(ellipse, 128, coupling=0.30)
    assert spectral > 1e-3


def test_link_scheme_convergence_order(ellipse):
    # three-grid convergence oracle against a converged spectral reference
    ref = effective_eigenvalues(assemble_effective(ellipse, 1024), 5).eigenvalues
    errs = []
    for n_s in (64, 128, 256):
        mu = effective_eigenvalues(assemble_effective(ellipse, n_s, scheme="link"), 5).eigenvalues
        errs.append(np.abs(mu - ref).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)


def test_link_scheme_gauge_similarity_exact(wobble):
    _, _, similarity = checks._gauge_observables(wobble, 256)
    assert similarity <= 1e-12


def _link_block_by_links(link_angles, potential, h):
    # reference: the stiffness summed link by link, then the potential
    n = link_angles.size
    a = np.zeros((n, n), dtype=complex)
    links = np.exp(1.0j * link_angles)
    for i in range(n):
        j = (i + 1) % n
        a[i, i] += 1.0 / h**2
        a[j, j] += 1.0 / h**2
        a[j, i] -= links[i] / h**2
        a[i, j] -= np.conj(links[i]) / h**2
    a += np.diag(potential.astype(complex))
    return a


@pytest.mark.parametrize("n", [3, 7, effective.MIN_NS])
def test_link_block_matches_link_loop(rng, n):
    angles, potential = rng.uniform(-math.pi, math.pi, n), rng.standard_normal(n)
    for h in (0.1, 2.0 * math.pi / n, 0.37):
        got = effective._link_block(angles, potential, h)
        assert np.array_equal(got, _link_block_by_links(angles, potential, h))


def test_potential_sign(ellipse):
    # the link scheme carries the potential on the diagonal of each spin
    # block, next to the 2/h^2 of the covariant difference
    n_s = 64
    h = ellipse.length / n_s
    for asm in _spin_blocks(ellipse, n_s, "link"):
        potential = np.real(np.diagonal(asm.pencil.a)) - 2.0 / h**2
        assert np.all(potential <= 0.0)
        assert np.allclose(potential, -ellipse.curvature(np.arange(n_s) * h) ** 2 / math.pi**2)


def test_assembly_validation(circle):
    with pytest.raises(ValueError):
        assemble_effective(circle, 8)
    with pytest.raises(ValueError):
        assemble_effective(circle, 33)
    with pytest.raises(ValueError):
        assemble_effective(circle, 64, scheme="chebyshev")


def test_coupling_constant_value():
    assert DEFAULT_COUPLING == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-16)
