"""The one constructor of the value classes and scenario sections."""

import inspect
import math

import numpy as np
import pytest

from homsim import hom, network, schmidt, source, spectral
from homsim.frozen import REQUIRED, Frozen
from homsim.scenario import _Section
from homsim.spectral import FrequencyGrid, make_grid

_HALF = complex(1.0 / math.sqrt(2.0))

# Each value class's parameters (name, default), in order, as
# ``inspect.signature`` reported them when each class wrote its own
# ``__init__``.  A library caller's code depends on exactly this.
SIGNATURES = {
    source.PumpSpectrum: [("center_wavelength", 390.0), ("pulse_duration_fwhm", 140.0)],
    source.PhaseMatching: [
        ("crystal_length", 1.0),
        ("model", "gaussian-approx"),
        ("gvm_signal", 340.0),
        ("gvm_idler", 120.0),
    ],
    source.BandpassFilter: [
        ("center_wavelength", REQUIRED),
        ("fwhm", REQUIRED),
        ("shape", "gaussian"),
    ],
    source.JointSpectralAmplitude: [
        ("grid_signal", REQUIRED),
        ("grid_idler", REQUIRED),
        ("amplitudes", REQUIRED),
    ],
    spectral.FrequencyGrid: [
        ("center_wavelength", REQUIRED),
        ("n_points", REQUIRED),
        ("spacing", REQUIRED),
        ("detunings", REQUIRED),
    ],
    spectral.HeraldedState: [("weights", REQUIRED), ("modes", REQUIRED), ("grid", REQUIRED)],
    hom.ScanConfig: [("tau_min", REQUIRED), ("tau_max", REQUIRED), ("n_steps", REQUIRED)],
    hom.InterferenceScan: [("taus", REQUIRED), ("probabilities", REQUIRED)],
    hom.DipMetrics: [
        ("visibility", REQUIRED),
        ("fwhm", REQUIRED),
        ("baseline", REQUIRED),
        ("fit_residual", REQUIRED),
        ("raw_visibility", REQUIRED),
        ("center_fs", REQUIRED),
    ],
    schmidt.SchmidtDecomposition: [
        ("eigenvalues", REQUIRED),
        ("signal_modes", REQUIRED),
        ("idler_modes", REQUIRED),
        ("grid_signal", REQUIRED),
        ("grid_idler", REQUIRED),
        ("tail_mass", 0.0),
        ("truncation_warning", False),
    ],
    network.SourceNode: [("id", REQUIRED), ("delay", 0.0)],
    network.BeamSplitterNode: [("id", REQUIRED), ("unitary", ((_HALF, _HALF), (_HALF, -_HALF)))],
    network.DetectorNode: [("id", REQUIRED)],
    network.NetworkEdge: [("start", REQUIRED), ("end", REQUIRED), ("beta_l", 0.0)],
    network.PathDispersion: [
        ("source", REQUIRED),
        ("beam_splitter", REQUIRED),
        ("beta_l", REQUIRED),
        ("via", ()),
    ],
    network.CancellationReport: [
        ("satisfied", REQUIRED),
        ("violations", REQUIRED),
        ("tolerance", REQUIRED),
    ],
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _grid(n_points: int = 16) -> FrequencyGrid:
    return make_grid(780.0, 10.0, 4.0, n_points)


def _arguments() -> dict:
    """Valid arguments, in field order, for each value class."""
    grid = _grid()
    mode = np.exp(-((grid.detunings / 0.02) ** 2)).astype(complex)
    modes = np.stack([mode, mode[::-1]])
    path = network.PathDispersion("a", "A", 1.0)
    return {
        source.PumpSpectrum: (400.0, 150.0),
        source.PhaseMatching: (2.0, "sinc", 300.0, 100.0),
        source.BandpassFilter: (781.0, 5.0, "flattop"),
        source.JointSpectralAmplitude: (grid, grid, np.outer(mode.real, mode.real)),
        spectral.FrequencyGrid: (780.0, 16, grid.spacing, grid.detunings),
        spectral.HeraldedState: ([0.75, 0.25], modes, grid),
        hom.ScanConfig: (-100.0, 100.0, 5),
        hom.InterferenceScan: ([0.0, 1.0], [0.25, 0.5]),
        hom.DipMetrics: (0.9, 0.3, 0.5, 1e-6, 0.89, 0.0),
        schmidt.SchmidtDecomposition: ([0.75, 0.25], modes, modes, grid, grid, 1e-3, True),
        network.SourceNode: ("a", 60.0),
        network.BeamSplitterNode: ("A", ((0.6, 0.8), (0.8, -0.6))),
        network.DetectorNode: ("d",),
        network.NetworkEdge: ("a", "A.in0", 1e4),
        network.PathDispersion: ("a", "A", 1.0, ("A",)),
        network.CancellationReport: (False, ((path, path),), 1e-6),
    }


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def test_every_value_class_keeps_its_parameters():
    classes = {
        cls
        for module in (source, spectral, hom, schmidt, network)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Frozen) and cls.__module__ == module.__name__
    }
    assert classes == set(SIGNATURES)
    for cls, parameters in SIGNATURES.items():
        assert [(name, default) for name, _, default in cls._fields] == parameters, cls


def test_only_the_section_base_defines_init_and_it_forwards_keywords():
    defining = [cls for cls in _subclasses(Frozen) if "__init__" in vars(cls)]
    assert defining == [_Section]
    parameters = list(inspect.signature(_Section.__init__).parameters.values())
    assert [p.kind for p in parameters[1:]] == [inspect.Parameter.VAR_KEYWORD]


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_give_equal_values(cls):
    args = _arguments()[cls]
    names = [name for name, _, _ in cls._fields]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
    for value in (by_keyword, mixed):
        assert list(value.__dict__) == names
        for name in names:
            assert _same(value.__dict__[name], by_position.__dict__[name]), (cls, name)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_a_missing_unknown_or_doubled_argument_is_named(cls):
    args = _arguments()[cls]
    first = cls._fields[0][0]
    required = [name for name, _, default in cls._fields if default is REQUIRED]
    if required:
        kwargs = dict(zip([name for name, _, _ in cls._fields], args))
        del kwargs[required[-1]]
        with pytest.raises(TypeError, match=f"missing argument '{required[-1]}'"):
            cls(**kwargs)
    with pytest.raises(TypeError, match="unexpected keyword argument 'colour'"):
        cls(*args, colour="red")
    with pytest.raises(TypeError, match=f"multiple values for '{first}'"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(args)} arguments, got {len(args) + 1}"):
        cls(*args, None)


def test_private_annotations_are_not_fields_and_values_are_frozen():
    class Point(Frozen):
        _cache: dict
        x: float
        y: float = 0.0

    assert Point._fields == (("x", float, REQUIRED), ("y", float, 0.0))
    assert not hasattr(Point, "y")  # the default lives in _fields
    point = Point(1.0)
    assert point.__dict__ == {"x": 1.0, "y": 0.0}
    with pytest.raises(AttributeError):
        point.x = 2.0
    with pytest.raises(AttributeError):
        del point.y
