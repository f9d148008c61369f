"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SimulationError, ValueError):
    """A parameter is outside its documented domain."""


class IncompatibleGridError(SimulationError, ValueError):
    """Two spectral objects do not share the same frequency grid."""


class DegenerateFilterError(SimulationError):
    """A bandpass filter annihilated the joint spectral amplitude."""


class DegenerateStateError(SimulationError):
    """A state construction produced a (numerically) zero-norm mode."""


class NoDipError(SimulationError):
    """An interference scan contains no measurable dip to fit."""


class FitFailureError(SimulationError):
    """Nonlinear dip fit did not converge; carries the initial guess."""

    def __init__(self, message: str, initial_guess: tuple[float, float, float, float]):
        super().__init__(message)
        self.initial_guess = initial_guess


class InvalidNetworkError(SimulationError):
    """Network wiring violates the DAG / port-usage rules.

    ``where`` names the faulty input of ``NetworkSpec``: the argument, the
    index in it and, for an edge, the endpoint, e.g. ``("edges", 2, "end")``.
    """

    def __init__(self, message: str, where: tuple = ()):
        super().__init__(message)
        self.where = where


class UnsupportedNetworkError(SimulationError):
    """Network is valid but outside the supported simulation class."""


class ScenarioError(SimulationError):
    """Base class for scenario configuration problems."""


class ScenarioNotFoundError(ScenarioError):
    """Scenario file or preset name does not exist."""


class ScenarioParseError(ScenarioError):
    """Scenario file is malformed; message carries line/key context."""
