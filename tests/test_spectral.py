import math

import numpy as np
import pytest

from helpers import inner_products, pure_state
from homsim.errors import IncompatibleGridError, InvalidArgumentError
from homsim.spectral import (
    HeraldedState,
    fwhm_wavelength_to_angular,
    gaussian_mode,
    make_grid,
)


def inner_product(f: HeraldedState, g: HeraldedState) -> complex:
    """<f|g> of two rank-1 states."""
    return complex(inner_products(f, g)[0, 0])

C = 299.792458  # nm/fs


def test_fwhm_conversion_matches_direct_arithmetic():
    # oracle: 2*pi*c*dl/l^2 evaluated independently
    assert fwhm_wavelength_to_angular(10.0, 780.0) == pytest.approx(
        2 * math.pi * C * 10.0 / 780.0**2, rel=1e-15
    )
    assert fwhm_wavelength_to_angular(10.0, 780.0) == pytest.approx(0.0309607, abs=1e-7)
    assert fwhm_wavelength_to_angular(1.0, 780.0) == pytest.approx(0.00309607, abs=1e-8)
    assert fwhm_wavelength_to_angular(0.0, 780.0) == 0.0


def test_fwhm_conversion_linear_in_delta():
    assert fwhm_wavelength_to_angular(10.0, 780.0) == pytest.approx(
        10 * fwhm_wavelength_to_angular(1.0, 780.0), rel=1e-12
    )


def test_fwhm_conversion_rejects_bad_center():
    with pytest.raises(InvalidArgumentError):
        fwhm_wavelength_to_angular(1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        fwhm_wavelength_to_angular(-1.0, 780.0)


def test_make_grid_default_span():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    expected_half = 4.0 * 2 * math.pi * C * 10.0 / 780.0**2
    assert grid.detunings[-1] == pytest.approx(expected_half, rel=1e-12)
    assert grid.detunings[0] == pytest.approx(-expected_half, rel=1e-12)
    assert grid.n_points == 512


@pytest.mark.parametrize("n_points", [8, 9, 512, 513])
def test_grid_symmetry_and_uniform_spacing(n_points):
    grid = make_grid(780.0, 10.0, 4.0, n_points)
    det = grid.detunings
    assert np.array_equal(det, -det[::-1])
    steps = np.diff(det)
    assert np.allclose(steps, grid.spacing, rtol=1e-13, atol=0)


def test_make_grid_rejects_degenerate_inputs():
    with pytest.raises(InvalidArgumentError):
        make_grid(780.0, 0.0, 4.0, 512)
    with pytest.raises(InvalidArgumentError):
        make_grid(-780.0, 10.0, 4.0, 512)
    with pytest.raises(InvalidArgumentError):
        make_grid(780.0, 10.0, 1.0, 512)
    with pytest.raises(InvalidArgumentError):
        make_grid(780.0, 10.0, 4.0, 7)


def test_grid_minimum_size_is_valid():
    grid = make_grid(780.0, 10.0, 4.0, 8)
    assert grid.n_points == 8
    assert np.array_equal(grid.detunings, -grid.detunings[::-1])


def test_normalized_inner_product_is_one():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    f = gaussian_mode(grid, 0.02)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_supports_are_orthogonal():
    grid = make_grid(780.0, 10.0, 4.0, 512)
    half = grid.n_points // 2
    a = np.zeros(grid.n_points, dtype=complex)
    b = np.zeros(grid.n_points, dtype=complex)
    a[:half] = 1.0
    b[half:] = 1.0
    fa = pure_state(grid, a)
    fb = pure_state(grid, b)
    assert inner_product(fa, fb) == 0


def test_offset_gaussian_overlap():
    # Two unit-norm Gaussian amplitudes exp(-(w - w0)^2 / (2 s^2)), offset by
    # the 1/e half-width s of their intensity: overlap integral e^{-1/4}.
    grid = make_grid(780.0, 10.0, 6.0, 2048)
    s = 0.01
    x = grid.detunings
    f = pure_state(grid, np.exp(-(x**2) / (2 * s**2)))
    g = pure_state(grid, np.exp(-((x - s) ** 2) / (2 * s**2)))
    assert inner_product(f, g).real == pytest.approx(math.exp(-0.25), rel=1e-9)


def test_inner_product_is_sesquilinear():
    grid = make_grid(780.0, 10.0, 4.0, 256)
    rng = np.random.default_rng(3)
    f = HeraldedState([1.0], [rng.normal(size=256) + 1j * rng.normal(size=256)], grid)
    g = HeraldedState([1.0], [rng.normal(size=256) + 1j * rng.normal(size=256)], grid)
    alpha = 0.7 - 1.3j
    scaled = HeraldedState([1.0], alpha * f.modes, grid)
    assert inner_product(scaled, g) == pytest.approx(
        np.conj(alpha) * inner_product(f, g), rel=1e-12
    )
    assert inner_product(f, g) == pytest.approx(
        np.conj(inner_product(g, f)), rel=1e-12
    )


def test_grid_mismatch_raises():
    g1 = make_grid(780.0, 10.0, 4.0, 256)
    g2 = make_grid(780.0, 10.0, 4.0, 255)
    f = gaussian_mode(g1, 0.02)
    g = gaussian_mode(g2, 0.02)
    with pytest.raises(IncompatibleGridError):
        inner_product(f, g)


def test_refinement_consistency():
    # Doubling the point count changes smooth-Gaussian overlaps by < 1e-8.
    values = []
    for n in (512, 1024):
        grid = make_grid(780.0, 10.0, 4.0, n)
        f = gaussian_mode(grid, 0.025, center_detuning=0.004)
        g = gaussian_mode(grid, 0.018, center_detuning=-0.003)
        values.append(inner_product(f, g).real)
    assert values[0] == pytest.approx(values[1], rel=1e-8)


def test_grid_detunings_are_immutable():
    grid = make_grid(780.0, 10.0, 4.0, 64)
    with pytest.raises(ValueError):
        grid.detunings[0] = 1.0


def test_state_modes_must_match_weights_and_grid():
    grid = make_grid(780.0, 10.0, 4.0, 64)
    modes = np.ones((2, 64))
    state = HeraldedState([0.25, 0.75], modes, grid)
    assert state.modes.dtype == np.float64 and state.modes.shape == (2, 64)
    assert HeraldedState([0.25, 0.75], modes * 1j, grid).modes.dtype == np.complex128
    assert gaussian_mode(grid, 0.02).modes.dtype == np.float64
    with pytest.raises(ValueError):
        state.modes[0, 0] = 0.0
    with pytest.raises(ValueError):
        state.weights[0] = 0.0
    for weights, bad in (
        ([1.0], modes),  # one weight, two modes
        ([0.25, 0.75], np.ones((2, 63))),  # another grid size
        ([0.25, 0.75], np.ones(64)),  # not a matrix
        ([], np.ones((0, 64))),  # no mode
    ):
        with pytest.raises(InvalidArgumentError):
            HeraldedState(weights, bad, grid)
    with pytest.raises(InvalidArgumentError):
        HeraldedState([0.5, 0.6], modes, grid)  # weights sum to 1.1
