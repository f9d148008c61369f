"""Simulator for dispersion-cancelled quantum interference between
independent heralded single photons.

Pipeline: build an SPDC joint spectral amplitude, filter it, Schmidt
decompose via a randomized SVD, propagate the heralded photon through
dispersive media, evaluate the two-photon coincidence dip versus delay, and
audit multi-path networks for dispersion-cancellation conditions.
"""

__version__ = "0.1.0"

from .dispersion import DispersiveElement, broadened_duration, gvd_phase
from .errors import (
    DegenerateFilterError,
    DegenerateStateError,
    FitFailureError,
    IncompatibleGridError,
    InvalidArgumentError,
    InvalidNetworkError,
    NoDipError,
    ScenarioError,
    ScenarioNotFoundError,
    ScenarioParseError,
    SimulationError,
    UnsupportedNetworkError,
)
from .hom import (
    DipMetrics,
    InterferenceScan,
    ScanConfig,
    coincidence_probability,
    coincidence_probability_oracle,
    default_scan_config,
    fit_dip,
    scan,
    visibility_curve,
)
from .network import (
    BeamSplitterNode,
    CancellationReport,
    DetectorNode,
    NetworkEdge,
    NetworkSpec,
    PathDispersion,
    SourceNode,
    accumulated_dispersion,
    check_cancellation,
    cascade_network,
    outcome_probabilities,
    three_photon_coincidence,
)
from .scenario import Scenario, list_presets, load_preset, parse_scenario
from .schmidt import (
    HeraldedState,
    SchmidtDecomposition,
    herald,
    postulate_pure_state,
    purity,
    schmidt_decompose,
    schmidt_number,
)
from .source import (
    BandpassFilter,
    JointSpectralAmplitude,
    PhaseMatching,
    PumpSpectrum,
    apply_filters,
    build_jsa,
    jsi,
)
from .spectral import (
    FrequencyGrid,
    SpectralFunction,
    fwhm_wavelength_to_angular,
    gaussian_mode,
    inner_product,
    make_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
