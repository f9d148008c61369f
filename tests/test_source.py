import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import jsi, marginal_intensity_fwhm
from homsim import runner, source
from homsim.constants import TWO_LN2
from homsim.errors import DegenerateFilterError, InvalidArgumentError
from homsim.scenario import load_preset, scenario_from_dict
from homsim.schmidt import herald, purity, schmidt_decompose
from homsim.source import (
    SINC_GAUSSIAN_GAMMA,
    BandpassFilter,
    JointSpectralAmplitude,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
)
from homsim.spectral import FrequencyGrid, fwhm_wavelength_to_angular, gaussian_mode, make_grid


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


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda grid: PumpSpectrum(pulse_duration_fwhm=NAN),
        lambda grid: PumpSpectrum(center_wavelength=NAN),
        lambda grid: PhaseMatching(crystal_length=NAN),
        lambda grid: BandpassFilter(780.0, NAN),
        lambda grid: BandpassFilter(NAN, 10.0),
        lambda grid: FrequencyGrid(780.0, 8, NAN, np.zeros(8)),
        lambda grid: make_grid(780.0, 10.0, NAN, 64),
        lambda grid: JointSpectralAmplitude(grid, grid, np.full((512, 512), NAN)),
        lambda grid: build_jsa(PumpSpectrum(), PhaseMatching(gvm_signal=NAN), grid, grid),
        lambda grid: gaussian_mode(grid, NAN),
    ],
    ids=[
        "pulse-duration",
        "pump-wavelength",
        "crystal-length",
        "filter-fwhm",
        "filter-wavelength",
        "grid-spacing",
        "grid-span",
        "jsa-norm",
        "gvm-slope",
        "mode-width",
    ],
)
def test_nan_parameters_are_rejected(grid, build):
    # A NaN passes a `<= 0` check; each of these would otherwise build an
    # all-NaN JSA or mode that fails only later, e.g. in the SVD as numpy's
    # LinAlgError.
    with pytest.raises(InvalidArgumentError):
        build(grid)


def test_pump_angular_fwhm_matches_time_bandwidth_product():
    pump = PumpSpectrum(pulse_duration_fwhm=140.0)
    assert pump.angular_fwhm == pytest.approx(2 * math.pi * 0.441 / 140.0, rel=1e-15)


# --- oracles for the single-exponential real build --------------------------


def normalized(amp, grid_signal, grid_idler):
    norm = math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid_signal.spacing * grid_idler.spacing)
    return amp / norm


def oracle_build_jsa(pump, pm, grid_signal, grid_idler):
    """Pump envelope times phase matching as two N_s x N_i exponentials,
    normalized in complex arithmetic."""
    ws = grid_signal.detunings[:, None]
    wi = grid_idler.detunings[None, :]
    pump_amp = np.exp(-TWO_LN2 * ((ws + wi) / pump.angular_fwhm) ** 2)
    x = 0.5 * pm.crystal_length * (pm.gvm_signal * ws + pm.gvm_idler * wi)
    if pm.model == "sinc":
        matching = np.sinc(x / math.pi)
    else:
        matching = np.exp(-SINC_GAUSSIAN_GAMMA * x**2)
    return normalized(np.asarray(pump_amp * matching, dtype=complex), grid_signal, grid_idler)


def oracle_apply_filters(amp, grid_signal, grid_idler, filter_signal, filter_idler):
    ts = (
        filter_signal.amplitude_transmission(grid_signal)
        if filter_signal is not None
        else np.ones(grid_signal.n_points)
    )
    ti = (
        filter_idler.amplitude_transmission(grid_idler)
        if filter_idler is not None
        else np.ones(grid_idler.n_points)
    )
    return normalized(amp * ts[:, None] * ti[None, :], grid_signal, grid_idler)


# No filter, or a Gaussian or flat-top one, centred up to 6 nm off 780 nm.
FILTERS = st.one_of(
    st.none(),
    st.builds(
        BandpassFilter,
        center_wavelength=st.floats(774.0, 786.0),
        fwhm=st.floats(1.0, 20.0),
        shape=st.sampled_from(["gaussian", "flattop"]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    duration=st.floats(60.0, 400.0),
    length=st.floats(0.3, 4.0),
    gvm=st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
    model=st.sampled_from(["gaussian-approx", "sinc"]),
    n=st.tuples(st.integers(16, 160), st.integers(16, 160)),
    span=st.tuples(st.floats(2.0, 6.0), st.floats(2.0, 6.0)),
    filter_signal=FILTERS,
    filter_idler=FILTERS,
)
def test_real_build_matches_two_exponential_oracle(
    duration, length, gvm, model, n, span, filter_signal, filter_idler
):
    assume(gvm[0] != gvm[1])
    pump = PumpSpectrum(pulse_duration_fwhm=duration)
    pm = PhaseMatching(crystal_length=length, model=model, gvm_signal=gvm[0], gvm_idler=gvm[1])
    grid_s = make_grid(780.0, 10.0, span[0], n[0])
    grid_i = make_grid(780.0, 10.0, span[1], n[1])
    expected = oracle_build_jsa(pump, pm, grid_s, grid_i)
    jsa = build_jsa(pump, pm, grid_s, grid_i)
    assert jsa.amplitudes.dtype == np.float64
    assert np.max(np.abs(jsa.amplitudes - expected)) <= 1e-13 * np.max(np.abs(expected))

    try:
        filtered = apply_filters(jsa, filter_signal, filter_idler)
    except DegenerateFilterError:
        assume(False)  # a flat-top between the samples of a coarse grid
    expected = oracle_apply_filters(expected, grid_s, grid_i, filter_signal, filter_idler)
    assert filtered.amplitudes.dtype == np.float64
    assert np.max(np.abs(filtered.amplitudes - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(
    duration=st.floats(60.0, 400.0),
    length=st.floats(0.3, 4.0),
    gvm_signal=st.floats(-400.0, 400.0),
    gvm_idler=st.one_of(st.just(None), st.floats(-400.0, 400.0)),
    n=st.tuples(st.integers(16, 160), st.integers(16, 160)),
    span=st.tuples(st.floats(2.0, 6.0), st.floats(2.0, 6.0)),
)
def test_sinc_build_matches_product_form(duration, length, gvm_signal, gvm_idler, n, span):
    """The in-place sin(x)/x build against np.sinc(x/pi) times the pump.  An
    idler slope drawn as None is -gvm_signal on the signal's grid, which puts
    x = 0 on the whole diagonal."""
    grid_s = make_grid(780.0, 10.0, span[0], n[0])
    grid_i = make_grid(780.0, 10.0, span[1], n[1])
    if gvm_idler is None:
        gvm_idler, grid_i = -gvm_signal, grid_s
    assume(gvm_signal != gvm_idler)
    pump = PumpSpectrum(pulse_duration_fwhm=duration)
    pm = PhaseMatching(
        crystal_length=length, model="sinc", gvm_signal=gvm_signal, gvm_idler=gvm_idler
    )
    expected = oracle_build_jsa(pump, pm, grid_s, grid_i)
    got = build_jsa(pump, pm, grid_s, grid_i).amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_jsa_keeps_the_kind_of_matrix_it_is_given(default_jsa, grid):
    amp = default_jsa.amplitudes
    assert amp.dtype == np.float64
    assert JointSpectralAmplitude(grid, grid, np.ones((512, 512), dtype=int)).amplitudes.dtype == np.float64
    # A complex JSA stays complex through filtering and decomposes as its
    # real counterpart does: a signal-only spectral phase is local, so it
    # moves no Schmidt eigenvalue.
    phase = np.exp(1j * 50.0 * grid.detunings)
    rotated = JointSpectralAmplitude(grid, grid, amp * phase[:, None])
    assert rotated.amplitudes.dtype == np.complex128
    f = BandpassFilter(781.0, 6.0)
    real, cplx = (apply_filters(j, f, f) for j in (default_jsa, rotated))
    assert cplx.amplitudes.dtype == np.complex128
    assert np.allclose(np.abs(cplx.amplitudes), real.amplitudes, rtol=0, atol=1e-12)
    lam_real = schmidt_decompose(real, rank=6).eigenvalues
    lam_cplx = schmidt_decompose(cplx, rank=6).eigenvalues
    assert np.allclose(lam_cplx, lam_real, rtol=0, atol=1e-12)


def test_jsa_never_mutates_the_callers_array(grid, monkeypatch):
    # The public constructor scales a copy: the caller's array keeps its
    # values and stays writable, and the JSA's own matrix is read-only.
    real = np.outer(gaussian_column(grid, 0.012), gaussian_column(grid, 0.02))
    for raw in (real, real * (2.0 + 1.0j)):
        before = raw.copy()
        jsa = JointSpectralAmplitude(grid, grid, raw)
        assert np.array_equal(raw, before) and raw.flags.writeable
        assert not np.shares_memory(jsa.amplitudes, raw)
        assert not jsa.amplitudes.flags.writeable
        filtered = apply_filters(jsa, BandpassFilter(781.0, 6.0), None)
        assert not np.shares_memory(filtered.amplitudes, jsa.amplitudes)
        assert not filtered.amplitudes.flags.writeable

    # build_jsa and apply_filters scale the matrix they made in place; the
    # bits are those of the copying constructor.
    f = BandpassFilter(781.0, 6.0)
    phase = np.exp(1j * 50.0 * grid.detunings)[:, None]

    def pipeline():
        jsas = [
            build_jsa(PumpSpectrum(), PhaseMatching(model=m), grid, grid)
            for m in ("gaussian-approx", "sinc")
        ]
        jsas.append(JointSpectralAmplitude(grid, grid, jsas[0].amplitudes * phase))
        return jsas + [apply_filters(j, f, f) for j in jsas]

    in_place = pipeline()
    monkeypatch.setattr(source, "_owning_jsa", JointSpectralAmplitude)
    copied = pipeline()
    for a, b in zip(in_place, copied):
        assert not a.amplitudes.flags.writeable
        assert a.amplitudes.dtype == b.amplitudes.dtype
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


FILTER_ARMS = {
    "none": None,
    "gaussian": BandpassFilter(781.0, 6.0),
    "flattop": BandpassFilter(779.0, 8.0, shape="flattop"),
}


@pytest.mark.parametrize("model", ["gaussian-approx", "sinc"])
@pytest.mark.parametrize("signal", sorted(FILTER_ARMS))
@pytest.mark.parametrize("idler", sorted(FILTER_ARMS))
def test_filtered_build_has_the_bits_of_apply_filters(model, signal, idler):
    # build_jsa filters its raw matrix and normalises it once: the bits of
    # the copying constructor on raw x t_s x t_i.  apply_filters normalises
    # an already normalised matrix again, so it agrees to rounding only.
    # Unequal, off-centre grids and filters, so a swapped arm shows.
    grid_s = make_grid(780.0, 10.0, 4.0, 200)
    grid_i = make_grid(780.0, 10.0, 3.0, 150)
    pump, pm = PumpSpectrum(), PhaseMatching(model=model)
    fs, fi = FILTER_ARMS[signal], FILTER_ARMS[idler]
    one = build_jsa(pump, pm, grid_s, grid_i, fs, fi)
    raw = source._amplitude_matrix(pump, pm, grid_s.detunings, grid_i.detunings)
    if fs is not None:
        raw = raw * fs.amplitude_transmission(grid_s)[:, None]
    if fi is not None:
        raw = raw * fi.amplitude_transmission(grid_i)
    assert np.array_equal(one.amplitudes, JointSpectralAmplitude(grid_s, grid_i, raw).amplitudes)
    two = apply_filters(build_jsa(pump, pm, grid_s, grid_i), fs, fi)
    assert one.amplitudes.dtype == two.amplitudes.dtype == np.float64
    assert not one.amplitudes.flags.writeable
    assert np.all(np.abs(one.amplitudes - two.amplitudes) <= 4e-15 * np.abs(two.amplitudes))


def test_filtered_build_raises_the_degenerate_filter_error_of_apply_filters(grid):
    off_grid = BandpassFilter(700.0, 0.01, shape="flattop")
    # Far-off Gaussians: 24,960 cells stay nonzero, and the filtered matrix's
    # norm is 9.5e-18 before normalisation (4.0e-16 after one).
    far_pair = (BandpassFilter(744.0, 1.0), BandpassFilter(816.0, 1.0))
    pump, pm = PumpSpectrum(), PhaseMatching()
    for arms in ((off_grid, None), (None, off_grid), far_pair):
        with pytest.raises(DegenerateFilterError) as one:
            build_jsa(pump, pm, grid, grid, *arms)
        with pytest.raises(DegenerateFilterError) as two:
            apply_filters(build_jsa(pump, pm, grid, grid), *arms)
        assert str(one.value) == str(two.value)


def test_one_norm_per_jsa(grid, monkeypatch):
    # build_jsa with filters takes the norm once, of the filtered matrix, and
    # the Schmidt step trusts it: no N x N reduction besides the SVD's.
    calls = {"norm": 0, "einsum": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(source, "_norm", counted("norm", source._norm))
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    f = BandpassFilter(781.0, 6.0)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid, f, f)
    assert calls == {"norm": 1, "einsum": 1}
    schmidt_decompose(jsa)
    assert calls == {"norm": 1, "einsum": 1}


def test_a_run_builds_its_filtered_jsa_in_one_matrix():
    # apply_filters(build_jsa(...)) held two N x N arrays at its peak
    # (16.09 MiB at N = 1024 against 8.00 for one).
    sc = scenario_from_dict(
        {
            "name": "one-matrix",
            "mode": "two-photon-scan",
            "source": {"grid": {"n_points": 1024}},
            "filters": {
                "signal": {"center_wavelength_nm": 780.0, "fwhm_nm": 4.0},
                "idler": {"center_wavelength_nm": 780.0, "fwhm_nm": 10.0},
            },
        }
    )
    runner._filtered_jsa(sc)  # imports and first-call set-up
    tracemalloc.start()
    try:
        jsa = runner._filtered_jsa(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jsa.amplitudes.shape == (1024, 1024)
    assert peak <= 1.25 * jsa.amplitudes.nbytes


def two_array_sinc(pump, pm, ws, wi):
    """The exact sinc build over whole matrices, in two N_s x N_i arrays."""
    x = np.add.outer(pm.gvm_signal * ws, pm.gvm_idler * wi)
    x *= 0.5 * pm.crystal_length
    x[x == 0.0] = 1e-300
    amp = np.sin(x)
    amp /= x
    pump_amp = np.add.outer(ws / pump.angular_fwhm, wi / pump.angular_fwhm, out=x)
    pump_amp *= pump_amp
    pump_amp *= -TWO_LN2
    amp *= np.exp(pump_amp, out=pump_amp)
    return amp


@pytest.mark.parametrize("shape", [(64, 64), (257, 255), (1001, 67), (3, 70000)])
@pytest.mark.parametrize("slopes", [(340.0, 120.0), (200.0, -200.0)])
def test_sinc_row_blocks_have_the_bits_of_the_whole_matrix(shape, slopes):
    # Row blocks of 64 Ki cells: one block, several with a short last one,
    # and rows wider than a block.  Opposite slopes on the square's shared
    # axis put x = 0 on the diagonal.
    pump = PumpSpectrum()
    pm = PhaseMatching(crystal_length=2.0, model="sinc", gvm_signal=slopes[0], gvm_idler=slopes[1])
    ws = np.linspace(-0.05, 0.05, shape[0])
    wi = np.linspace(-0.05, 0.05, shape[1])
    got = source._amplitude_matrix(pump, pm, ws, wi)
    assert np.array_equal(got, two_array_sinc(pump, pm, ws, wi))


def test_sinc_build_makes_one_matrix():
    # The whole-matrix formula peaked at two N x N arrays (16.14 MiB at
    # N = 1024); the row blocks add one block's scratch to the output.
    pump, pm = PumpSpectrum(), PhaseMatching(model="sinc")
    ws = np.linspace(-0.05, 0.05, 1024)
    source._amplitude_matrix(pump, pm, ws, ws)  # first-call set-up
    tracemalloc.start()
    try:
        amp = source._amplitude_matrix(pump, pm, ws, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * amp.nbytes


# --- closed-form Gaussian purity --------------------------------------------


def filter_exponent(f, centre_nm):
    """2 ln2/w^2, the quadratic-form term of a centred Gaussian filter of FWHM w."""
    if f is None:
        return 0.0
    assert f.shape == "gaussian" and f.center_wavelength_nm == centre_nm
    return TWO_LN2 / fwhm_wavelength_to_angular(f.fwhm_nm, f.center_wavelength_nm) ** 2


def gaussian_purity(sc):
    """sqrt(1 - R^2/PQ) of the filtered JSA exp(-(P ws^2 + Q wi^2 + 2R ws wi)).

    A Gaussian pump gives 2 ln2/dw_p^2 (ws + wi)^2, Gaussian phase matching
    0.193 (L/2)^2 (gvm_s ws + gvm_i wi)^2, and a centred Gaussian filter of
    FWHM w adds 2 ln2/w^2 to its own arm (Grice & Walmsley, PRA 56, 1627
    (1997); Law, Walmsley & Eberly, PRL 84, 5304 (2000)).
    """
    src = sc.source
    pm = src.phase_matching
    assert pm.model == "gaussian-approx"
    centre = 2.0 * src.pump.center_wavelength_nm
    a = TWO_LN2 / PumpSpectrum(pulse_duration_fwhm=src.pump.pulse_duration_fwhm_fs).angular_fwhm ** 2
    g = SINC_GAUSSIAN_GAMMA * (0.5 * pm.crystal_length_mm) ** 2
    gs, gi = pm.gvm_signal_fs_per_mm, pm.gvm_idler_fs_per_mm
    p = a + g * gs**2 + filter_exponent(sc.filters.signal, centre)
    q = a + g * gi**2 + filter_exponent(sc.filters.idler, centre)
    r = a + g * gs * gi
    return math.sqrt(1.0 - r**2 / (p * q))


@pytest.mark.parametrize("preset", ["fig1c", "fig2a", "fig2b", "fig2c", "fig3"])
def test_gaussian_presets_match_closed_form_purity(preset):
    sc = load_preset(preset)
    assert sc.source.grid.n_points == 512
    decomp = schmidt_decompose(runner._filtered_jsa(sc), mass=1 - 1e-12)
    assert abs(purity(herald(decomp)) - gaussian_purity(sc)) <= 1e-6
