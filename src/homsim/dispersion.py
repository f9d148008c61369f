"""Gaussian pulse broadening by group-velocity dispersion.

Only the product beta*L (fs^2) of a medium is physically relevant.  The
interference code applies the quadratic phase exp(-i beta*L w^2/2) on
detunings itself (``hom``, ``network``); the constant and linear
(group-delay) terms are dropped because they cancel from the interference
observables.
"""

from __future__ import annotations

import math

from .constants import FOUR_LN2, GAUSSIAN_TIME_BANDWIDTH, fwhm_wavelength_to_angular
from .errors import InvalidArgumentError


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
