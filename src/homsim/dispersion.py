"""Group-velocity-dispersion phase and Gaussian pulse-broadening estimates.

Only the product beta*L (fs^2) is physically relevant; the quadratic phase is
evaluated on detunings, with the constant and linear (group-delay) terms
dropped because they cancel from the interference observables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FOUR_LN2, GAUSSIAN_TIME_BANDWIDTH
from .errors import InvalidArgumentError
from .spectral import fwhm_wavelength_to_angular


@dataclass(frozen=True)
class DispersiveElement:
    """A dispersive medium: GVD parameter beta (fs^2/mm) and length (mm)."""

    beta: float
    length: float

    def __post_init__(self) -> None:
        if self.length < 0:
            raise InvalidArgumentError(f"length must be >= 0, got {self.length}")

    @property
    def beta_l(self) -> float:
        return self.beta * self.length


def gvd_phase(detuning, beta_l: float):
    """Quadratic spectral phase 0.5 * beta*L * W^2 (radians); even in W.

    Accepts a scalar or an array of detunings.
    """
    return 0.5 * beta_l * np.square(detuning)


def broadened_duration(
    bandwidth_fwhm: float,
    center: float,
    beta_l: float,
    input_duration: float | None = None,
) -> float:
    """Gaussian-pulse duration (intensity FWHM, in ps) after dispersion beta*L.

    If ``input_duration`` (fs) is omitted the pulse is taken transform
    limited for the given wavelength bandwidth (FWHM, nm) at ``center`` (nm):
    tau0 = 2*pi*0.441/delta_omega.  The closed form
    tau_out = tau0 * sqrt(1 + (4 ln2 * beta*L / tau0^2)^2) uses intensity-FWHM
    conventions throughout.
    """
    if bandwidth_fwhm <= 0:
        raise InvalidArgumentError(
            f"bandwidth_fwhm must be > 0, got {bandwidth_fwhm}"
        )
    if input_duration is None:
        delta_omega = fwhm_wavelength_to_angular(bandwidth_fwhm, center)
        tau0 = 2.0 * math.pi * GAUSSIAN_TIME_BANDWIDTH / delta_omega
    else:
        if input_duration <= 0:
            raise InvalidArgumentError(
                f"input_duration must be > 0, got {input_duration}"
            )
        tau0 = float(input_duration)
    tau_out = tau0 * math.sqrt(1.0 + (FOUR_LN2 * beta_l / tau0**2) ** 2)
    return tau_out / 1000.0
