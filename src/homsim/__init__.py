"""Simulator for dispersion-cancelled quantum interference between
independent heralded single photons.

Pipeline: build an SPDC joint spectral amplitude, filter it, Schmidt
decompose via a randomized SVD, propagate the heralded photon through
dispersive media, evaluate the two-photon coincidence dip versus delay, and
audit multi-path networks for dispersion-cancellation conditions.

The public names below load from their home modules on first access (PEP
562), so ``import homsim`` and ``import homsim.cli`` load no numpy.
"""

__version__ = "0.1.0"

# The library of the README's example, plus the pure-state and oracle entry
# points, each with its home module; every other name is imported from its
# module (homsim.network, homsim.scenario, homsim.runner, ...).
_HOMES = {
    "BandpassFilter": "source",
    "PhaseMatching": "source",
    "PumpSpectrum": "source",
    "ScanConfig": "hom",
    "apply_filters": "source",
    "build_jsa": "source",
    "coincidence_probability_oracle": "hom",
    "default_scan_config": "hom",
    "fit_dip": "hom",
    "herald": "schmidt",
    "make_grid": "spectral",
    "postulate_pure_state": "schmidt",
    "purity": "schmidt",
    "scan": "hom",
    "schmidt_decompose": "schmidt",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
