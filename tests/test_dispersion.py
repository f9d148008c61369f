import math

import numpy as np
import pytest

from helpers import DispersiveElement, gvd_phase
from homsim.dispersion import broadened_duration
from homsim.errors import InvalidArgumentError
from homsim.hom import ScanConfig, scan
from homsim.schmidt import herald, schmidt_decompose
from homsim.source import BandpassFilter, PhaseMatching, PumpSpectrum, apply_filters, build_jsa
from homsim.spectral import make_grid

BETA_FUSED_SILICA = 37.802  # fs^2/mm at 780 nm


# A window of 25 delays over the dip: every probability that matters.
DIP_WINDOW = ScanConfig(-600.0, 600.0, 25)


@pytest.fixture(scope="module")
def state():
    grid = make_grid(780.0, 10.0, 4.0, 256)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    jsa = apply_filters(jsa, BandpassFilter(780.0, 10.0), BandpassFilter(780.0, 10.0))
    return herald(schmidt_decompose(jsa))


def test_gvd_phase_values():
    assert gvd_phase(0.0, 1e9) == 0.0
    beta_l = BETA_FUSED_SILICA * 6000.0
    assert beta_l == pytest.approx(226812.0, abs=1e-9)
    assert gvd_phase(0.02, beta_l) == pytest.approx(45.3624, abs=1e-10)
    w = np.linspace(-0.1, 0.1, 33)
    assert np.array_equal(gvd_phase(w, beta_l), gvd_phase(-w, beta_l))


def test_gvd_phase_is_exactly_quadratic():
    beta_l = 226812.0
    h = 4.8e-4
    w = np.arange(-20, 20) * h
    theta = gvd_phase(w, beta_l)
    second = theta[2:] - 2 * theta[1:-1] + theta[:-2]
    assert np.allclose(second, beta_l * h**2, rtol=1e-10)


def test_element_invariants():
    e = DispersiveElement(beta=BETA_FUSED_SILICA, length=6000.0)
    assert e.beta_l == BETA_FUSED_SILICA * 6000.0
    with pytest.raises(InvalidArgumentError):
        DispersiveElement(beta=1.0, length=-1.0)


def test_zero_length_is_identity(state):
    beta_l = DispersiveElement(BETA_FUSED_SILICA, 0.0).beta_l
    out = scan(state, state, beta_l, DIP_WINDOW).probabilities
    assert np.array_equal(out, scan(state, state, 0.0, DIP_WINDOW).probabilities)
    assert beta_l == 0.0


def test_phase_additivity(state):
    split = (
        DispersiveElement(BETA_FUSED_SILICA, 2000.0).beta_l
        + DispersiveElement(BETA_FUSED_SILICA, 4000.0).beta_l
    )
    joined = DispersiveElement(BETA_FUSED_SILICA, 6000.0).beta_l
    a = scan(state, state, split, DIP_WINDOW).probabilities
    b = scan(state, state, joined, DIP_WINDOW).probabilities
    assert np.max(np.abs(a - b)) < 1e-12
    assert split == pytest.approx(joined, rel=1e-15)


def test_dispersion_preserves_weights_norm_and_purity(state):
    # The phase exp(i beta*L w^2/2) has unit modulus, so over one alias period
    # 2 pi/dw the dip area is pi * sum_k rho(w_k, w_k)^2 dw (Parseval), which
    # only the weights and the mode norms fix: 28 m of fiber leave it alone.
    grid = state.grid
    n_steps = grid.n_points + 1
    dtau = 2.0 * math.pi / (n_steps * grid.spacing)
    cfg = ScanConfig(-0.5 * n_steps * dtau, (0.5 * n_steps - 1) * dtau, n_steps)
    diagonal = state.weights @ np.abs(state.modes) ** 2
    expected = math.pi * np.sum(diagonal**2) * grid.spacing
    for beta_l in (0.0, DispersiveElement(BETA_FUSED_SILICA, 28000.0).beta_l):
        probs = scan(state, state, beta_l, cfg).probabilities
        assert np.sum(0.5 - probs) * dtau == pytest.approx(expected, rel=1e-12)


def test_dispersion_round_trip(state):
    there = DispersiveElement(BETA_FUSED_SILICA, 6000.0).beta_l
    back = there + DispersiveElement(-BETA_FUSED_SILICA, 6000.0).beta_l
    a = scan(state, state, back, DIP_WINDOW).probabilities
    b = scan(state, state, 0.0, DIP_WINDOW).probabilities
    assert np.max(np.abs(a - b)) < 1e-12
    assert back == pytest.approx(0.0, abs=1e-9)


def test_transform_limited_duration():
    # 10 nm at 780 nm: tau0 = 2 pi 0.441/dOmega ~ 89.5 fs
    assert broadened_duration(10.0, 780.0, 0.0) == pytest.approx(0.0894967, abs=1e-6)


def test_broadening_length_ratio():
    b6 = broadened_duration(10.0, 780.0, BETA_FUSED_SILICA * 6000.0)
    b28 = broadened_duration(10.0, 780.0, BETA_FUSED_SILICA * 28000.0)
    assert b28 / b6 == pytest.approx(28.0 / 6.0, rel=1e-3)


def test_six_meter_broadening_gaussian_model():
    # Gaussian closed form gives ~7.0 ps for 10 nm through 6 m of fused
    # silica; reported experimental values use a different (unstated)
    # spectral-shape convention and come out ~40% larger.
    value = broadened_duration(10.0, 780.0, BETA_FUSED_SILICA * 6000.0)
    assert value == pytest.approx(7.027, abs=2e-3)


def test_broadening_limits_and_symmetry():
    tau0 = broadened_duration(10.0, 780.0, 0.0)
    assert broadened_duration(10.0, 780.0, 1e5) == broadened_duration(10.0, 780.0, -1e5)
    lengths = [0.0, 1e4, 1e5, 1e6]
    values = [broadened_duration(10.0, 780.0, b) for b in lengths]
    assert values[0] == tau0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_broadening_with_explicit_input_duration():
    out = broadened_duration(10.0, 780.0, 226812.0, input_duration=200.0)
    expected = 0.2 * math.sqrt(1 + (4 * math.log(2) * 226812.0 / 200.0**2) ** 2)
    assert out == pytest.approx(expected, rel=1e-12)


def test_broadening_rejects_bad_bandwidth():
    with pytest.raises(InvalidArgumentError):
        broadened_duration(0.0, 780.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        broadened_duration(-1.0, 780.0, 1.0)
