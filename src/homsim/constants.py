"""Physical constants, unit conventions and the scalar defaults and
conversions that modules without arrays need.

All quantities in this package use a single internal unit system chosen so
that typical magnitudes stay close to unity:

* time            fs
* angular detuning rad/fs
* wavelength      nm
* length          mm
* dispersion beta fs^2/mm

With these units a fiber dispersion product beta*L is of order 1e5 fs^2 and
quadratic spectral phases stay well inside double precision.

This module imports no numpy: the scenario loader, the broadening closed
form and the network audit read it without loading the array modules.
"""

import math

from .errors import InvalidArgumentError

# Speed of light in nm/fs (equivalently mm/ps, um/ps*1e-3).
SPEED_OF_LIGHT_NM_PER_FS = 299.792458

# Time-bandwidth product (intensity FWHM conventions) of a transform-limited
# Gaussian pulse: delta_nu * delta_t = 0.441.
GAUSSIAN_TIME_BANDWIDTH = 0.441

# 2*ln(2) and 4*ln(2) appear throughout FWHM <-> Gaussian-exponent conversions.
TWO_LN2 = 2.0 * math.log(2.0)
FOUR_LN2 = 4.0 * math.log(2.0)

# Tuned group-velocity-mismatch slopes (fs/mm) for the default 1 mm type-II
# crystal; chosen to reproduce the reference dip metrics (see ``source``).
DEFAULT_GVM_SIGNAL = 340.0
DEFAULT_GVM_IDLER = 120.0

# Schmidt truncation: keep eigenvalues until this cumulative mass by default,
# then renormalize (``schmidt.schmidt_decompose`` and the scenario's
# ``truncation.value``).
DEFAULT_MASS = 0.999


def fwhm_wavelength_to_angular(delta_lambda: float, center_lambda: float) -> float:
    """Convert a wavelength FWHM (nm) at ``center_lambda`` (nm) to rad/fs.

    Uses the first-order relation d(omega) = 2*pi*c*d(lambda)/lambda^2.
    """
    if center_lambda <= 0:
        raise InvalidArgumentError(f"center_lambda must be > 0, got {center_lambda}")
    if delta_lambda < 0:
        raise InvalidArgumentError(f"delta_lambda must be >= 0, got {delta_lambda}")
    return 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_FS * delta_lambda / center_lambda**2
