"""Declarative scenario files: schema, strict parsing, and named presets.

Scenarios are YAML (JSON works too).  The schema is the section classes
below, one annotated field per key; ``scenario_from_dict`` walks the raw
mapping against their fields and materializes every physics default, so
that the run manifest alone reproduces a figure.  The loader is strict:

- a key the schema does not name is rejected;
- a float field takes a finite int or float (an int is stored as a float,
  so ``fwhm_nm: 10`` dumps as ``10.0``; NaN, the infinities and ints too
  large for a float are rejected); an int field takes an int or an integral
  float; booleans, strings and quoted numbers are not numbers;
- a string field takes a string and a boolean field ``true``/``false``;
- a choice field (``mode``, ``shape``, ``truncation.kind``, ...) takes one of
  its listed strings;
- the ``gt``/``ge`` bounds a field declares are checked;
- a field without a default is required;
- after its fields, a section checks its cross-field rules (differing
  signal and idler GVM slopes, the dispersion forms of a network edge, a
  splitter unitary of 2 rows of 2 ``[re, im]`` pairs, an integral rank >= 1
  for a rank truncation, a threshold <= 1, a delay scan naming one of the
  network's sources, a scan window with tau_min_fs < tau_max_fs, curve
  offsets no longer than length_1_mm, the sections a mode requires, 2 to
  ``MAX_PHOTONS`` sources for ``network-sim``, no ``output.emit_*`` flag
  outside ``two-photon-scan``).

Every problem found is reported, in one ``ScenarioParseError`` whose message
is ``<origin>: <path>: <problem>; <path>: <problem>; ...``.  The path is the
dotted key path with list indices, e.g. ``network.edges.1.length_mm``; a
cross-field rule is reported at the key it faults (``truncation.value``) or
at its section, and a rule of the whole scenario without a path.

The sections are immutable: a run resolves its defaults into a new scenario
with ``replace``, and ``dump`` gives the plain form written to the run
manifest.  A section class declares its fields as annotations with an
optional default, as every value class does: ``frozen.Frozen`` reads them
once, when the class is created, and its one constructor builds every
section and value class, so no code is generated per class.  Sections take
keyword arguments only, and a ``_bounded`` default leaves its bound in the
class's ``_bounds``; private annotations such as ``_bounds`` are not fields.
"""

import sys
import typing
from importlib import resources
from pathlib import Path
from typing import Literal

import yaml

from .constants import DEFAULT_GVM_IDLER, DEFAULT_GVM_SIGNAL, DEFAULT_MASS
from .errors import ScenarioNotFoundError, ScenarioParseError
from .frozen import REQUIRED, Frozen
from .network import MAX_PHOTONS


class _Bounded:
    """A field's default together with its ``gt`` or ``ge`` bound."""

    def __init__(self, default, bound: dict):
        self.default, self.bound = default, bound


def _bounded(default=REQUIRED, **bound):
    """A field with a ``gt`` or ``ge`` bound, required when no default is given."""
    return _Bounded(default, bound)


class _Section(Frozen):
    """Base of the scenario sections.

    ``Frozen`` reads the fields; a ``_bounded`` default leaves its bound in
    ``_bounds``, by field name.  A section is built with keyword arguments
    only.
    """

    _bounds: dict = {}

    def __init_subclass__(cls) -> None:
        cls._bounds = {}
        for name, value in list(cls.__dict__.items()):
            if isinstance(value, _Bounded):
                cls._bounds[name] = value.bound
                setattr(cls, name, value.default)
        super().__init_subclass__()
        if not cls._fields:
            raise TypeError(f"scenario section {cls.__name__} declares no fields")

    def __init__(self, **values) -> None:
        super().__init__(**values)


def replace(section: _Section, **changes) -> _Section:
    """A copy of ``section`` with the given fields changed."""
    return type(section)(**{**section.__dict__, **changes})


class PumpConfig(_Section):
    """Pump pulse: centre wavelength (nm) and intensity FWHM duration (fs)."""

    center_wavelength_nm: float = _bounded(390.0, gt=0)
    pulse_duration_fwhm_fs: float = _bounded(140.0, gt=0)


class PhaseMatchingConfig(_Section):
    """Crystal length (mm), phase-matching model and mismatch slopes (fs/mm)."""

    crystal_length_mm: float = _bounded(1.0, gt=0)
    model: Literal["sinc", "gaussian-approx"] = "gaussian-approx"
    gvm_signal_fs_per_mm: float = DEFAULT_GVM_SIGNAL
    gvm_idler_fs_per_mm: float = DEFAULT_GVM_IDLER

    def rule_violation(self) -> tuple[tuple, str] | None:
        # Equal slopes leave no type-II asymmetry; source.PhaseMatching rejects them.
        if self.gvm_signal_fs_per_mm == self.gvm_idler_fs_per_mm:
            return (), (
                f"gvm_signal_fs_per_mm and gvm_idler_fs_per_mm must differ, both are "
                f"{self.gvm_signal_fs_per_mm!r}"
            )
        return None


class GridConfig(_Section):
    """Detuning grid of both photons (see ``spectral.make_grid``)."""

    n_points: int = _bounded(512, ge=8)
    span_factor: float = _bounded(4.0, ge=2)
    reference_bandwidth_fwhm_nm: float = _bounded(10.0, gt=0)


class SourceConfig(_Section):
    """The down-conversion source: pump, phase matching and grid."""

    pump: PumpConfig = PumpConfig()
    phase_matching: PhaseMatchingConfig = PhaseMatchingConfig()
    grid: GridConfig = GridConfig()


class FilterConfig(_Section):
    """One bandpass filter (nm)."""

    center_wavelength_nm: float = _bounded(780.0, gt=0)
    fwhm_nm: float = _bounded(gt=0)
    shape: Literal["gaussian", "flattop"] = "gaussian"


class FiltersConfig(_Section):
    """Signal and idler filters; an absent one leaves its arm unfiltered."""

    signal: FilterConfig | None = None
    idler: FilterConfig | None = None


class DispersionConfig(_Section):
    """Fiber GVD (fs^2/mm) and the two arm lengths (mm), or a curve's offsets."""

    beta_fs2_per_mm: float = 37.802
    length_1_mm: float = _bounded(0.0, ge=0)
    length_2_mm: float = _bounded(0.0, ge=0)
    delta_lengths_mm: list[float] | None = None

    def rule_violation(self) -> tuple[tuple, str] | None:
        # Fiber 2 is length_1_mm - delta long, so no offset may exceed length_1_mm.
        over = [d for d in self.delta_lengths_mm or () if not d <= self.length_1_mm]
        if over:
            return ("delta_lengths_mm",), (
                f"every offset must be <= length_1_mm = {self.length_1_mm!r}, got {over}"
            )
        return None


class TruncationConfig(_Section):
    """Schmidt truncation rule: a kept mass, rank or eigenvalue threshold."""

    kind: Literal["mass", "rank", "threshold"] = "mass"
    value: float = DEFAULT_MASS

    def rule_violation(self) -> tuple[tuple, str] | None:
        if self.kind == "rank" and not (self.value >= 1 and self.value.is_integer()):
            return ("value",), f"a rank must be an integer >= 1, got {self.value!r}"
        if self.kind == "mass" and not 0.0 < self.value <= 1.0:
            return ("value",), f"a mass must be in (0, 1], got {self.value!r}"
        # The eigenvalues sum to 1, so a threshold above 1 keeps no mode.
        if self.kind == "threshold" and self.value > 1.0:
            return ("value",), f"a threshold must be <= 1, got {self.value!r}"
        return None


class ScanSettings(_Section):
    """Explicit delay-scan window (fs) and sample count."""

    tau_min_fs: float = -3000.0
    tau_max_fs: float = 3000.0
    n_steps: int = _bounded(241, ge=3)

    def rule_violation(self) -> tuple[tuple, str] | None:
        if not self.tau_min_fs < self.tau_max_fs:
            return (), (
                f"tau_min_fs must be < tau_max_fs, got [{self.tau_min_fs!r}, "
                f"{self.tau_max_fs!r}]"
            )
        return None


class NetworkSourceConfig(_Section):
    """A network photon source and its delay (fs)."""

    id: str
    delay_fs: float = 0.0


class NetworkSplitterConfig(_Section):
    """A 2x2 beam splitter, 50/50 unless a unitary is given."""

    id: str
    # Optional 2x2 unitary as [[ [re, im], [re, im] ], [ ... ]]; 50/50 if omitted.
    unitary: list[list[list[float]]] | None = None

    def rule_violation(self) -> tuple[tuple, str] | None:
        u = self.unitary
        if u is not None and [[len(c) for c in row] for row in u] != [[2, 2], [2, 2]]:
            return ("unitary",), f"must be 2 rows of 2 [re, im] pairs, got {u!r}"
        return None


class NetworkEdgeConfig(_Section):
    """A wire between two ports, with beta+length or beta_l_fs2 dispersion."""

    start: str
    end: str
    beta_fs2_per_mm: float | None = None
    length_mm: float | None = _bounded(None, ge=0)
    beta_l_fs2: float | None = None

    def rule_violation(self) -> tuple[tuple, str] | None:
        has_pair = self.beta_fs2_per_mm is not None or self.length_mm is not None
        if has_pair and self.beta_l_fs2 is not None:
            return (), "give either beta+length or beta_l_fs2, not both"
        if (self.beta_fs2_per_mm is None) != (self.length_mm is None):
            return (), "beta_fs2_per_mm and length_mm must be given together"
        return None


class NetworkGridConfig(_Section):
    """Detuning grid of the network photons."""

    center_wavelength_nm: float = _bounded(780.0, gt=0)
    # None: the runner derives it from the network and writes it to the manifest.
    n_points: int | None = _bounded(None, ge=8)
    span_factor: float = _bounded(4.0, ge=2)
    reference_bandwidth_fwhm_nm: float = _bounded(10.0, gt=0)


class DelayScanConfig(_Section):
    """Delay scan of one network source (fs)."""

    source: str
    min_fs: float = -150.0
    max_fs: float = 150.0
    n_steps: int = _bounded(5, ge=2)


class NetworkConfig(_Section):
    """Nodes, edges, grid and photon bandwidth of a network scenario."""

    sources: list[NetworkSourceConfig]
    beam_splitters: list[NetworkSplitterConfig]
    detectors: list[str]
    edges: list[NetworkEdgeConfig]
    grid: NetworkGridConfig = NetworkGridConfig()
    photon_bandwidth_fwhm_nm: float = _bounded(10.0, gt=0)
    tolerance_fs2: float = _bounded(1e-6, gt=0)
    delay_scan: DelayScanConfig | None = None

    def rule_violation(self) -> tuple[tuple, str] | None:
        ids = [s.id for s in self.sources]
        if self.delay_scan is not None and self.delay_scan.source not in ids:
            listed = ", ".join(map(repr, ids))
            return ("delay_scan", "source"), (
                f"must be one of the source ids {listed}, got {self.delay_scan.source!r}"
            )
        return None


class BroadeningConfig(_Section):
    """Gaussian pulse-broadening table over fiber lengths (mm)."""

    bandwidth_fwhm_nm: float = _bounded(10.0, gt=0)
    center_wavelength_nm: float = _bounded(780.0, gt=0)
    beta_fs2_per_mm: float = 37.802
    lengths_mm: list[float]
    input_duration_fs: float | None = _bounded(None, gt=0)


class OutputConfig(_Section):
    """Output directory, file basename and optional extra files; the extra
    files (JSI, eigenvalues, gnuplot script) exist only for
    ``two-photon-scan``."""

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


class Scenario(_Section):
    """One simulation run: its mode and every section it reads."""

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

    def rule_violation(self) -> tuple[tuple, str] | None:
        if self.mode in ("network-check", "network-sim") and self.network is None:
            return (), f"mode {self.mode} requires a network section"
        if self.mode == "network-sim" and not 2 <= len(self.network.sources) <= MAX_PHOTONS:
            return ("network", "sources"), (
                f"mode network-sim simulates 2 to {MAX_PHOTONS} photons, got "
                f"{len(self.network.sources)} sources"
            )
        if self.mode == "broadening" and self.broadening is None:
            return (), "mode broadening requires a broadening section"
        if self.mode == "visibility-curve" and not self.dispersion.delta_lengths_mm:
            return (), "mode visibility-curve requires dispersion.delta_lengths_mm"
        if self.mode != "two-photon-scan":
            for flag in ("emit_jsi", "emit_eigenvalues", "emit_gnuplot"):
                if getattr(self.output, flag):
                    return ("output", flag), (
                        f"applies only to mode two-photon-scan, got mode {self.mode}"
                    )
        return None


def _load(tp, value, path: tuple, errors: list[tuple]):
    """``value`` checked and converted to the schema type ``tp``.

    Appends ``(path, problem)`` to ``errors`` for every problem found; the
    returned value is meaningless once ``errors`` is non-empty.
    """
    if tp is float or tp is int:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if tp is float:
                # False for NaN, the infinities and ints too large for a float.
                if abs(value) <= sys.float_info.max:
                    return float(value)
            elif isinstance(value, int) or value.is_integer():
                return int(value)
        kind = "a finite number" if tp is float else "an integer"
        errors.append((path, f"must be {kind}, got {value!r}"))
        return value
    if tp is str or tp is bool:
        if not isinstance(value, tp):
            kind = "a string" if tp is str else "true or false"
            errors.append((path, f"must be {kind}, got {value!r}"))
        return value
    if isinstance(tp, type) and issubclass(tp, _Section):
        return _load_section(tp, value, path, errors)
    origin = typing.get_origin(tp)
    if origin is Literal:
        choices = typing.get_args(tp)
        if value not in choices:
            listed = ", ".join(map(repr, choices))
            errors.append((path, f"must be one of {listed}, got {value!r}"))
        return value
    if origin is list:
        if not isinstance(value, list):
            errors.append((path, f"must be a list, got {value!r}"))
            return value
        (item,) = typing.get_args(tp)
        return [_load(item, v, path + (i,), errors) for i, v in enumerate(value)]
    # ``T | None``, the one union in the schema.
    if value is None:
        return None
    (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    return _load(tp, value, path, errors)


def _bound_violation(value, bound) -> str | None:
    if "gt" in bound and not value > bound["gt"]:
        return f"must be > {bound['gt']}, got {value!r}"
    if "ge" in bound and not value >= bound["ge"]:
        return f"must be >= {bound['ge']}, got {value!r}"
    return None


def _load_section(cls, data, path: tuple, errors: list[tuple]):
    if not isinstance(data, dict):
        errors.append((path, f"must be a mapping, got {data!r}"))
        return None
    n_errors = len(errors)
    values = {}
    for name, tp, default in cls._fields:
        key = path + (name,)
        if name not in data:
            if default is REQUIRED:
                errors.append((key, "required"))
            continue
        before = len(errors)
        values[name] = value = _load(tp, data[name], key, errors)
        if len(errors) == before and value is not None and name in cls._bounds:
            problem = _bound_violation(value, cls._bounds[name])
            if problem is not None:
                errors.append((key, problem))
    names = {name for name, *_ in cls._fields}
    errors.extend((path + (key,), "unknown key") for key in data if key not in names)
    if len(errors) > n_errors:
        return None
    section = cls(**values)
    violation = section.rule_violation() if hasattr(section, "rule_violation") else None
    if violation is not None:
        keys, problem = violation
        errors.append((path + keys, problem))
    return section


def dump(value):
    """A ``Scenario`` (or any section of one) as plain dicts, lists and
    scalars: the form written to the run manifest and read back by
    ``scenario_from_dict``."""
    if isinstance(value, _Section):
        return {name: dump(value.__dict__[name]) for name, *_ in value._fields}
    if isinstance(value, list):
        return [dump(v) for v in value]
    return value


def _format_errors(errors: list[tuple]) -> str:
    return "; ".join(
        f"{'.'.join(map(str, path))}: {problem}" if path else problem
        for path, problem in errors
    )


def scenario_from_dict(data: dict, origin: str = "<memory>") -> Scenario:
    """Validate a raw mapping against the strict scenario schema.

    Accepts either a bare scenario or a run manifest (mapping with a
    ``scenario`` key and optional ``meta``), so emitted manifests re-run
    directly.  The rules and the error format are in the module docstring.
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
    errors: list[tuple] = []
    scenario = _load_section(Scenario, data, (), errors)
    if errors:
        raise ScenarioParseError(f"{origin}: {_format_errors(errors)}")
    return scenario


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario (or manifest) file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioNotFoundError(f"scenario file not found: {p}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"{p}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
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
