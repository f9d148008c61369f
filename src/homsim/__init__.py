"""Simulator for dispersion-cancelled quantum interference between
independent heralded single photons.

Pipeline: build an SPDC joint spectral amplitude, filter it, Schmidt
decompose via a randomized SVD, propagate the heralded photon through
dispersive media, evaluate the two-photon coincidence dip versus delay, and
audit multi-path networks for dispersion-cancellation conditions.
"""

__version__ = "0.1.0"

from .hom import (
    ScanConfig,
    coincidence_probability_oracle,
    default_scan_config,
    fit_dip,
    scan,
)
from .schmidt import herald, postulate_pure_state, purity, schmidt_decompose
from .source import BandpassFilter, PhaseMatching, PumpSpectrum, apply_filters, build_jsa
from .spectral import make_grid

# The library of the README's example, plus the pure-state and oracle entry
# points; every other name is imported from its module (homsim.network,
# homsim.scenario, homsim.runner, ...).
__all__ = [
    "BandpassFilter",
    "PhaseMatching",
    "PumpSpectrum",
    "ScanConfig",
    "apply_filters",
    "build_jsa",
    "coincidence_probability_oracle",
    "default_scan_config",
    "fit_dip",
    "herald",
    "make_grid",
    "postulate_pure_state",
    "purity",
    "scan",
    "schmidt_decompose",
]
