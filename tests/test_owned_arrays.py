"""Values own their arrays: a value never makes its caller's array
read-only, and writing to a writable array or a view it was given does not
change the value.  An array that is already read-only, C-ordered and owns
its memory is shared."""

import numpy as np

from homsim.hom import InterferenceScan
from homsim.schmidt import SchmidtDecomposition
from homsim.spectral import FrequencyGrid, HeraldedState, make_grid


def _grid() -> FrequencyGrid:
    return make_grid(780.0, 10.0, 4.0, 16)


def _assert_owned(value, name: str, caller: np.ndarray, base: np.ndarray) -> None:
    """``value.<name>`` is read-only, the caller's ``base`` (or the array
    viewed from it) stays writable, and writing to it leaves the value as
    it was."""
    stored = getattr(value, name)
    before = stored.copy()
    assert not stored.flags.writeable
    assert caller.flags.writeable and base.flags.writeable
    base[...] = 99.0
    assert np.array_equal(stored, before), name


def test_heralded_state_owns_its_arrays():
    grid = _grid()
    weights = np.array([1.0, 0.0])
    base = np.ones((2, grid.n_points), dtype=complex)
    state = HeraldedState(weights[:1], base[:1], grid)
    _assert_owned(state, "modes", base[:1], base)
    _assert_owned(state, "weights", weights[:1], weights)


def test_interference_scan_owns_its_arrays():
    taus, probs = np.linspace(-1.0, 1.0, 5), np.full(5, 0.25)
    result = InterferenceScan(taus, probs)
    _assert_owned(result, "taus", taus, taus)
    _assert_owned(result, "probabilities", probs, probs)


def test_frequency_grid_owns_its_detunings():
    grid = _grid()
    base = np.stack([grid.detunings, grid.detunings])  # writable
    copy = FrequencyGrid(grid.center_wavelength, grid.n_points, grid.spacing, base[0])
    _assert_owned(copy, "detunings", base[0], base)


def test_schmidt_decomposition_owns_its_arrays():
    grid = _grid()
    eigenvalues = np.array([0.75, 0.25, 0.0])
    signal = np.ones((3, grid.n_points), dtype=complex)
    idler = np.ones((3, grid.n_points), dtype=complex)
    decomp = SchmidtDecomposition(eigenvalues[:2], signal[:2], idler[:2], grid, grid)
    _assert_owned(decomp, "eigenvalues", eigenvalues[:2], eigenvalues)
    _assert_owned(decomp, "signal_modes", signal[:2], signal)
    _assert_owned(decomp, "idler_modes", idler[:2], idler)


def test_a_read_only_view_of_a_writable_array_is_copied_and_a_value_array_shared():
    grid = _grid()
    base = np.ones((2, grid.n_points), dtype=complex)
    view = base[:1]
    view.setflags(write=False)
    state = HeraldedState([1.0], view, grid)
    assert state.modes is not view
    base[...] = 99.0
    assert np.all(state.modes == 1.0)
    # An array that a value owns is read-only and owns its memory: shared.
    assert HeraldedState(state.weights, state.modes, grid).modes is state.modes
    # So is such an array of the caller's, which stays the caller's: numpy
    # lets its owner make it writable again, and writing then moves the value.
    owned = np.ones((1, grid.n_points), dtype=complex)
    owned.setflags(write=False)
    shared = HeraldedState([1.0], owned, grid)
    assert shared.modes is owned
    owned.setflags(write=True)
    owned[0, 0] = 99.0
    assert shared.modes[0, 0] == 99.0
