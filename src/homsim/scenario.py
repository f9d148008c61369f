"""Declarative scenario files: schema, strict parsing, and named presets.

Scenarios are YAML (JSON works too) with a strict schema: unknown keys are
rejected with the offending key named, and every physics default is
materialized into the run manifest so a figure is reproducible from the
manifest alone.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Literal

import yaml
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from .errors import ScenarioNotFoundError, ScenarioParseError
from .source import DEFAULT_GVM_IDLER, DEFAULT_GVM_SIGNAL


class _StrictModel(BaseModel):
    model_config = ConfigDict(extra="forbid")


class PumpConfig(_StrictModel):
    center_wavelength_nm: float = Field(390.0, gt=0)
    pulse_duration_fwhm_fs: float = Field(140.0, gt=0)


class PhaseMatchingConfig(_StrictModel):
    crystal_length_mm: float = Field(1.0, gt=0)
    model: Literal["sinc", "gaussian-approx"] = "gaussian-approx"
    gvm_signal_fs_per_mm: float = DEFAULT_GVM_SIGNAL
    gvm_idler_fs_per_mm: float = DEFAULT_GVM_IDLER


class GridConfig(_StrictModel):
    n_points: int = Field(512, ge=8)
    span_factor: float = Field(4.0, ge=2)
    reference_bandwidth_fwhm_nm: float = Field(10.0, gt=0)


class SourceConfig(_StrictModel):
    pump: PumpConfig = PumpConfig()
    phase_matching: PhaseMatchingConfig = PhaseMatchingConfig()
    grid: GridConfig = GridConfig()


class FilterConfig(_StrictModel):
    center_wavelength_nm: float = Field(780.0, gt=0)
    fwhm_nm: float = Field(..., gt=0)
    shape: Literal["gaussian", "flattop"] = "gaussian"


class FiltersConfig(_StrictModel):
    signal: FilterConfig | None = None
    idler: FilterConfig | None = None


class DispersionConfig(_StrictModel):
    beta_fs2_per_mm: float = 37.802
    length_1_mm: float = Field(0.0, ge=0)
    length_2_mm: float = Field(0.0, ge=0)
    delta_lengths_mm: list[float] | None = None


class TruncationConfig(_StrictModel):
    kind: Literal["mass", "rank", "threshold"] = "mass"
    value: float = 0.999


class ScanSettings(_StrictModel):
    tau_min_fs: float = -3000.0
    tau_max_fs: float = 3000.0
    n_steps: int = Field(241, ge=3)


class NetworkSourceConfig(_StrictModel):
    id: str
    delay_fs: float = 0.0


class NetworkSplitterConfig(_StrictModel):
    id: str
    # Optional 2x2 unitary as [[ [re, im], [re, im] ], [ ... ]]; 50/50 if omitted.
    unitary: list[list[list[float]]] | None = None


class NetworkEdgeConfig(_StrictModel):
    start: str
    end: str
    beta_fs2_per_mm: float | None = None
    length_mm: float | None = Field(None, ge=0)
    beta_l_fs2: float | None = None

    @model_validator(mode="after")
    def _one_dispersion_form(self) -> "NetworkEdgeConfig":
        has_pair = self.beta_fs2_per_mm is not None or self.length_mm is not None
        if has_pair and self.beta_l_fs2 is not None:
            raise ValueError("give either beta+length or beta_l_fs2, not both")
        if (self.beta_fs2_per_mm is None) != (self.length_mm is None):
            raise ValueError("beta_fs2_per_mm and length_mm must be given together")
        return self


class NetworkGridConfig(_StrictModel):
    center_wavelength_nm: float = Field(780.0, gt=0)
    # None: the runner derives it from the network and writes it to the manifest.
    n_points: int | None = Field(None, ge=8)
    span_factor: float = Field(4.0, ge=2)
    reference_bandwidth_fwhm_nm: float = Field(10.0, gt=0)


class DelayScanConfig(_StrictModel):
    source: str
    min_fs: float = -150.0
    max_fs: float = 150.0
    n_steps: int = Field(5, ge=2)


class NetworkConfig(_StrictModel):
    sources: list[NetworkSourceConfig]
    beam_splitters: list[NetworkSplitterConfig]
    detectors: list[str]
    edges: list[NetworkEdgeConfig]
    grid: NetworkGridConfig = NetworkGridConfig()
    photon_bandwidth_fwhm_nm: float = Field(10.0, gt=0)
    tolerance_fs2: float = Field(1e-6, gt=0)
    delay_scan: DelayScanConfig | None = None


class BroadeningConfig(_StrictModel):
    bandwidth_fwhm_nm: float = Field(10.0, gt=0)
    center_wavelength_nm: float = Field(780.0, gt=0)
    beta_fs2_per_mm: float = 37.802
    lengths_mm: list[float]
    input_duration_fs: float | None = Field(None, gt=0)


class OutputConfig(_StrictModel):
    directory: str = "."
    basename: str | None = None
    emit_jsi: bool = False
    emit_eigenvalues: bool = False
    emit_gnuplot: bool = False


Mode = Literal[
    "two-photon-scan",
    "visibility-curve",
    "network-check",
    "network-sim",
    "broadening",
]


class Scenario(_StrictModel):
    name: str
    mode: Mode
    source: SourceConfig = SourceConfig()
    filters: FiltersConfig = FiltersConfig()
    dispersion: DispersionConfig = DispersionConfig()
    truncation: TruncationConfig = TruncationConfig()
    purity_mode: Literal["mixed", "postulated-pure"] = "mixed"
    scan: ScanSettings | None = None
    network: NetworkConfig | None = None
    broadening: BroadeningConfig | None = None
    output: OutputConfig = OutputConfig()

    @model_validator(mode="after")
    def _mode_requirements(self) -> "Scenario":
        if self.mode in ("network-check", "network-sim") and self.network is None:
            raise ValueError(f"mode {self.mode} requires a network section")
        if self.mode == "broadening" and self.broadening is None:
            raise ValueError("mode broadening requires a broadening section")
        if self.mode == "visibility-curve" and not self.dispersion.delta_lengths_mm:
            raise ValueError(
                "mode visibility-curve requires dispersion.delta_lengths_mm"
            )
        return self


def _format_validation_error(exc: ValidationError) -> str:
    lines = []
    for err in exc.errors():
        loc = ".".join(str(p) for p in err["loc"]) or "<root>"
        lines.append(f"{loc}: {err['msg']}")
    return "; ".join(lines)


def scenario_from_dict(data: dict, origin: str = "<memory>") -> Scenario:
    """Validate a raw mapping against the strict scenario schema.

    Accepts either a bare scenario or a run manifest (mapping with a
    ``scenario`` key and optional ``meta``), so emitted manifests re-run
    directly.
    """
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{origin}: top level must be a mapping")
    if "scenario" in data:
        extra = set(data) - {"scenario", "meta"}
        if extra:
            raise ScenarioParseError(
                f"{origin}: unexpected top-level keys alongside 'scenario': {sorted(extra)}"
            )
        data = data["scenario"]
    try:
        return Scenario.model_validate(data)
    except ValidationError as exc:
        raise ScenarioParseError(f"{origin}: {_format_validation_error(exc)}") from exc


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario (or manifest) file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioNotFoundError(f"scenario file not found: {p}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{p}: {exc}") from exc
    return scenario_from_dict(data, origin=str(p))


def _preset_dir():
    return resources.files("homsim").joinpath("presets")


def list_presets() -> list[str]:
    return sorted(
        entry.name[: -len(".yaml")]
        for entry in _preset_dir().iterdir()
        if entry.name.endswith(".yaml")
    )


def load_preset(name: str) -> Scenario:
    entry = _preset_dir().joinpath(f"{name}.yaml")
    if not entry.is_file():
        raise ScenarioNotFoundError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    data = yaml.safe_load(entry.read_text(encoding="utf-8"))
    return scenario_from_dict(data, origin=f"preset:{name}")
