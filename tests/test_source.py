import math

import numpy as np
import pytest

from homsim.errors import DegenerateFilterError, InvalidArgumentError
from homsim.schmidt import herald, purity, schmidt_decompose
from homsim.source import (
    BandpassFilter,
    JointSpectralAmplitude,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
    jsi,
    marginal_intensity_fwhm,
)
from homsim.spectral import fwhm_wavelength_to_angular, make_grid


@pytest.fixture(scope="module")
def grid():
    return make_grid(780.0, 10.0, 4.0, 512)


@pytest.fixture(scope="module")
def default_jsa(grid):
    return build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)


def gaussian_column(grid, width, center=0.0):
    return np.exp(-((grid.detunings - center) ** 2) / (2 * width**2))


def separable_jsa(grid):
    # Product stub g(W_s) h(W_i): exactly one Schmidt mode.
    g = gaussian_column(grid, 0.012)
    h = gaussian_column(grid, 0.02)
    return JointSpectralAmplitude(grid, grid, np.outer(g, h))


def test_jsa_is_normalized(default_jsa):
    assert default_jsa.norm == pytest.approx(1.0, abs=1e-12)


def test_separable_stub_has_rank_one(grid):
    decomp = schmidt_decompose(separable_jsa(grid), mass=1.0)
    assert decomp.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)


def test_type_ii_jsi_is_anticorrelated(grid):
    # Tilted intensity ridge: signal/idler detunings anti-correlate.
    pm = PhaseMatching(model="sinc")
    intensity = jsi(build_jsa(PumpSpectrum(), pm, grid, grid))
    w = grid.detunings
    # Centred: the grid is mirror-exact and the pump and phase-matching
    # arguments are odd in the detunings, so the JSI is exactly
    # centrosymmetric and its centroid vanishes up to rounding.
    assert np.array_equal(intensity, intensity[::-1, ::-1])
    total = np.sum(intensity)
    centroid = (
        np.sum(intensity * w[:, None]) / total,
        np.sum(intensity * w[None, :]) / total,
    )
    assert max(abs(c) for c in centroid) < 1e-12 * grid.spacing
    cov = np.sum(intensity * w[:, None] * w[None, :]) / total
    assert cov < 0  # anti-correlated ridge


def test_jsi_nonnegative_and_normalized(default_jsa, grid):
    intensity = jsi(default_jsa)
    assert np.all(intensity >= 0)
    total = intensity.sum() * grid.spacing**2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_jsi_of_separable_jsa_is_outer_product(grid):
    intensity = jsi(separable_jsa(grid))
    row = intensity[grid.n_points // 2, :]
    col = intensity[:, grid.n_points // 2]
    rebuilt = np.outer(col, row) / intensity[grid.n_points // 2, grid.n_points // 2]
    assert np.allclose(rebuilt, intensity, atol=1e-12)


def test_jsa_point_reflection_symmetry(default_jsa):
    mag = np.abs(default_jsa.amplitudes)
    assert np.allclose(mag, mag[::-1, ::-1], atol=1e-12)
    pm_sinc = PhaseMatching(model="sinc")
    grid = default_jsa.grid_signal
    mag2 = np.abs(build_jsa(PumpSpectrum(), pm_sinc, grid, grid).amplitudes)
    assert np.allclose(mag2, mag2[::-1, ::-1], atol=1e-12)


def test_grid_center_mismatch_rejected(grid):
    bad = make_grid(800.0, 10.0, 4.0, 512)
    with pytest.raises(InvalidArgumentError):
        build_jsa(PumpSpectrum(), PhaseMatching(), bad, bad)
    with pytest.raises(InvalidArgumentError):
        build_jsa(PumpSpectrum(), PhaseMatching(), grid, bad)


def test_identity_filters_change_nothing(default_jsa):
    flat = BandpassFilter(780.0, math.inf, shape="flattop")
    out = apply_filters(default_jsa, flat, flat)
    assert np.allclose(out.amplitudes, default_jsa.amplitudes, atol=1e-14)
    out_none = apply_filters(default_jsa, None, None)
    assert np.allclose(out_none.amplitudes, default_jsa.amplitudes, atol=1e-14)


def test_narrow_signal_filter_purifies_heralded_state(default_jsa):
    narrow = apply_filters(
        default_jsa, BandpassFilter(780.0, 1.0), BandpassFilter(780.0, 10.0)
    )
    assert purity(herald(schmidt_decompose(narrow))) >= 0.95


def test_wide_filters_leave_spectral_correlation(default_jsa):
    wide = apply_filters(
        default_jsa, BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0)
    )
    assert purity(herald(schmidt_decompose(wide))) < 1.0 - 1e-3


def test_degenerate_filter_raises(default_jsa):
    # Flat-top far outside the grid removes every sample.
    off_grid = BandpassFilter(700.0, 0.01, shape="flattop")
    with pytest.raises(DegenerateFilterError):
        apply_filters(default_jsa, off_grid, None)


def test_filtering_is_contractive_in_bandwidth(default_jsa):
    grid = default_jsa.grid_signal
    unfiltered = marginal_intensity_fwhm(default_jsa, "signal")
    for fwhm_nm in (2.0, 5.0, 10.0):
        filt = BandpassFilter(780.0, fwhm_nm)
        out = apply_filters(default_jsa, filt, None)
        width = marginal_intensity_fwhm(out, "signal")
        bound = min(fwhm_wavelength_to_angular(fwhm_nm, 780.0), unfiltered)
        assert width <= bound + grid.spacing


def test_double_gaussian_filter_composition(default_jsa):
    # Applying the same Gaussian twice == one filter with FWHM / sqrt(2).
    twice = apply_filters(
        apply_filters(default_jsa, BandpassFilter(780.0, 6.0), None),
        BandpassFilter(780.0, 6.0),
        None,
    )
    once = apply_filters(default_jsa, BandpassFilter(780.0, 6.0 / math.sqrt(2)), None)
    assert np.allclose(twice.amplitudes, once.amplitudes, atol=1e-10)


def test_invariants_of_config_types():
    with pytest.raises(InvalidArgumentError):
        PumpSpectrum(pulse_duration_fwhm=0.0)
    with pytest.raises(InvalidArgumentError):
        PhaseMatching(crystal_length=0.0)
    with pytest.raises(InvalidArgumentError):
        PhaseMatching(gvm_signal=100.0, gvm_idler=100.0)
    with pytest.raises(InvalidArgumentError):
        BandpassFilter(780.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        PhaseMatching(model="lorentzian")


def test_pump_angular_fwhm_matches_time_bandwidth_product():
    pump = PumpSpectrum(pulse_duration_fwhm=140.0)
    assert pump.angular_fwhm == pytest.approx(2 * math.pi * 0.441 / 140.0, rel=1e-15)
