"""Scenario execution: pipelines, output files, and the run manifest.

Every run writes ``<basename>_manifest.yaml`` holding the fully resolved
scenario (all defaults materialized) plus the list of emitted files; feeding
the manifest back to ``run`` reproduces those files byte for byte.

The two-photon modes import the array pipelines (``source``, ``schmidt``,
``hom``, ``spectral``) when they run, and ``network-sim`` imports
``spectral``; the broadening and ``network-check`` modes load no numpy.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from . import __version__, io
from .constants import GAUSSIAN_TIME_BANDWIDTH, fwhm_wavelength_to_angular
from .dispersion import broadened_duration
from .errors import InvalidArgumentError, InvalidNetworkError, ScenarioParseError
from .network import (
    SPLITTER_50_50,
    BeamSplitterNode,
    DetectorNode,
    NetworkEdge,
    NetworkSpec,
    SourceNode,
    check_cancellation,
    detector_dispersion_spread,
    outcome_probabilities,
)
from .scenario import NetworkConfig, Scenario, dump, replace

NETWORK_MIN_POINTS = 48
# Numerical-health threshold on |sum of network outcome probabilities - 1|.
PROBABILITY_SUM_TOLERANCE = 1e-9


class RunResult:
    """What a run wrote: the resolved scenario, the output directory, the
    file names and the numerical-health warnings."""

    def __init__(
        self,
        scenario: Scenario,
        out_dir: Path,
        files: list[str],
        warnings: list[str] | None = None,
    ) -> None:
        self.scenario = scenario
        self.out_dir = out_dir
        self.files = files
        # Numerical-health warnings; the CLI prints each one as a stderr line.
        self.warnings = [] if warnings is None else warnings


def _heralded_state(sc: Scenario, jsa_decomp):
    from .schmidt import herald, postulate_pure_state

    if sc.purity_mode == "mixed":
        return herald(jsa_decomp)
    return postulate_pure_state(jsa_decomp)


def build_network(cfg: NetworkConfig) -> NetworkSpec:
    """The validated spec of a network section; a wiring or splitter fault
    is a ``ScenarioParseError`` at its key path, in the loader's form."""
    sources = [SourceNode(s.id, s.delay_fs) for s in cfg.sources]
    splitters = []
    for i, b in enumerate(cfg.beam_splitters):
        u = SPLITTER_50_50 if b.unitary is None else [[complex(*c) for c in r] for r in b.unitary]
        try:
            splitters.append(BeamSplitterNode(b.id, u))
        except InvalidArgumentError as exc:
            raise ScenarioParseError(f"network.beam_splitters.{i}.unitary: {exc}") from None
    detectors = [DetectorNode(d) for d in cfg.detectors]
    edges = []
    for e in cfg.edges:
        if e.beta_l_fs2 is not None:
            beta_l = e.beta_l_fs2
        elif e.beta_fs2_per_mm is not None:
            beta_l = e.beta_fs2_per_mm * e.length_mm
        else:
            beta_l = 0.0
        edges.append(NetworkEdge(e.start, e.end, beta_l))
    try:
        return NetworkSpec(sources, splitters, detectors, edges)
    except InvalidNetworkError as exc:
        path = ".".join(map(str, ("network",) + exc.where))
        raise ScenarioParseError(f"{path}: {exc}") from None


def _network_grid_points(cfg: NetworkConfig, net: NetworkSpec) -> int:
    """Default network grid size K (at least ``NETWORK_MIN_POINTS``).

    The grid's alias period 2*pi/dw must be twice the broadened wavepacket's
    extent: the largest beta*L spread into one detector times the photon's
    FWHM bandwidth, plus the spread of the source delays (the delay scan's
    range included) and the coherence time.  Twice, because the Gaussian
    tails reach past that FWHM-based extent.
    """
    width = fwhm_wavelength_to_angular(
        cfg.photon_bandwidth_fwhm_nm, cfg.grid.center_wavelength_nm
    )
    delays = [s.delay_fs for s in cfg.sources]
    if cfg.delay_scan is not None:
        delays += [cfg.delay_scan.min_fs, cfg.delay_scan.max_fs]
    extent = (
        detector_dispersion_spread(net) * width
        + (max(delays, default=0.0) - min(delays, default=0.0))
        + 2.0 * math.pi * GAUSSIAN_TIME_BANDWIDTH / width
    )
    # make_grid spans 2 * span_factor * (reference FWHM) over K - 1 steps, so
    # 2*pi/dw >= 2 * extent means K - 1 >= span * extent / pi.
    span = 2.0 * cfg.grid.span_factor * fwhm_wavelength_to_angular(
        cfg.grid.reference_bandwidth_fwhm_nm, cfg.grid.center_wavelength_nm
    )
    return max(NETWORK_MIN_POINTS, math.ceil(1.0 + span * extent / math.pi))


def _scan_config(sc: Scenario, delta_beta_l: float):
    from .hom import ScanConfig, default_scan_config

    if sc.scan is not None:
        return ScanConfig(sc.scan.tau_min_fs, sc.scan.tau_max_fs, sc.scan.n_steps)
    return default_scan_config(delta_beta_l)


def _filtered_jsa(sc: Scenario):
    from .source import BandpassFilter, PhaseMatching, PumpSpectrum, build_jsa
    from .spectral import make_grid

    src, g, pmc = sc.source, sc.source.grid, sc.source.phase_matching
    center = 2.0 * src.pump.center_wavelength_nm
    grid = make_grid(center, g.reference_bandwidth_fwhm_nm, g.span_factor, g.n_points)
    pump = PumpSpectrum(src.pump.center_wavelength_nm, src.pump.pulse_duration_fwhm_fs)
    pm = PhaseMatching(
        pmc.crystal_length_mm, pmc.model, pmc.gvm_signal_fs_per_mm, pmc.gvm_idler_fs_per_mm
    )
    signal, idler = (
        None if f is None else BandpassFilter(f.center_wavelength_nm, f.fwhm_nm, f.shape)
        for f in (sc.filters.signal, sc.filters.idler)
    )
    return build_jsa(pump, pm, grid, grid, signal, idler)


def _decomposition(sc: Scenario, warnings: list[str]):
    """The filtered JSA and its Schmidt decomposition under the scenario's
    truncation; a truncation that discards too much mass adds a warning."""
    from .schmidt import TRUNCATION_WARNING_MASS, schmidt_decompose

    jsa = _filtered_jsa(sc)
    decomp = schmidt_decompose(jsa, **{sc.truncation.kind: sc.truncation.value})
    if decomp.truncation_warning:
        warnings.append(
            f"Schmidt truncation discards {decomp.tail_mass:.3g} of the eigenvalue "
            f"mass (more than {TRUNCATION_WARNING_MASS:g})"
        )
    return jsa, decomp


def _run_two_photon_scan(sc: Scenario, out: Path, base: str, warnings: list[str]) -> list[str]:
    from .hom import fit_dip, scan
    from .schmidt import purity, schmidt_number

    jsa, decomp = _decomposition(sc, warnings)
    # The JSI is the JSA's last reader: it is written now and the N x N
    # matrix is released before the scan and the fit.
    if sc.output.emit_jsi:
        io.write_jsi_csv(out / f"{base}_jsi.csv", jsa)
    del jsa
    state = _heralded_state(sc, decomp)
    delta_beta_l = sc.dispersion.beta_fs2_per_mm * (
        sc.dispersion.length_1_mm - sc.dispersion.length_2_mm
    )
    cfg = _scan_config(sc, delta_beta_l)
    result = scan(state, state, delta_beta_l, cfg)
    metrics = fit_dip(result)

    files = []
    io.write_scan_csv(out / f"{base}_scan.csv", result)
    files.append(f"{base}_scan.csv")
    payload = io.metrics_payload(metrics)
    payload.update(
        {
            "delta_beta_l_fs2": delta_beta_l,
            "purity": purity(state),
            "schmidt_number": schmidt_number(decomp),
            "schmidt_rank": decomp.rank,
            "truncation_tail_mass": decomp.tail_mass,
            "schmidt_truncation_warning": decomp.truncation_warning,
            "purity_mode": sc.purity_mode,
        }
    )
    io.write_json(out / f"{base}_metrics.json", payload)
    files.append(f"{base}_metrics.json")
    if sc.output.emit_jsi:
        files.append(f"{base}_jsi.csv")
    if sc.output.emit_eigenvalues:
        io.write_eigenvalues_csv(out / f"{base}_eigenvalues.csv", decomp.eigenvalues)
        files.append(f"{base}_eigenvalues.csv")
    if sc.output.emit_gnuplot:
        io.write_text(
            out / f"{base}.gnuplot",
            io.gnuplot_scan_script(f"{base}_scan.csv", sc.name),
        )
        files.append(f"{base}.gnuplot")
    return files


def _run_visibility_curve(sc: Scenario, out: Path, base: str, warnings: list[str]) -> list[str]:
    from .hom import visibility_curve
    from .schmidt import herald, postulate_pure_state

    beta = sc.dispersion.beta_fs2_per_mm
    deltas = sc.dispersion.delta_lengths_mm
    length_1 = sc.dispersion.length_1_mm
    # Without a scan section, visibility_curve sizes each offset's window.
    explicit_cfg = None if sc.scan is None else _scan_config(sc, 0.0)
    # The curves read only the modes: the JSA is released before they run.
    decomp = _decomposition(sc, warnings)[1]
    mixed, pure = (
        visibility_curve(state, beta, length_1, deltas, explicit_cfg)
        for state in (herald(decomp), postulate_pure_state(decomp))
    )
    rows = [(dl, vm, wm, vp, wp) for (dl, vm, wm), (_, vp, wp) in zip(mixed, pure)]
    name = f"{base}_curve.csv"
    io.write_curve_csv(
        out / name,
        ["delta_l_mm", "visibility_mixed", "fwhm_ps_mixed", "visibility_pure", "fwhm_ps_pure"],
        rows,
    )
    return [name]


def _run_network_check(sc: Scenario, net: NetworkSpec, out: Path, base: str) -> list[str]:
    report = check_cancellation(net, tolerance=sc.network.tolerance_fs2)
    name = f"{base}_report.json"
    io.write_json(out / name, report.to_json_dict())
    return [name]


def _run_network_sim(
    sc: Scenario, net: NetworkSpec, out: Path, base: str, warnings: list[str]
) -> list[str]:
    import numpy as np

    from .spectral import gaussian_mode, make_grid

    cfg = sc.network
    grid = make_grid(
        cfg.grid.center_wavelength_nm,
        cfg.grid.reference_bandwidth_fwhm_nm,
        cfg.grid.span_factor,
        cfg.grid.n_points,
    )
    width = fwhm_wavelength_to_angular(
        cfg.photon_bandwidth_fwhm_nm, cfg.grid.center_wavelength_nm
    )
    photons = [gaussian_mode(grid, width) for _ in net.sources]
    delays = [s.delay for s in net.sources]
    coincidence = (1,) * len(photons)  # one photon per detector; see homsim.network
    probs = outcome_probabilities(net, photons, delays)
    sum_error = sum(probs.values()) - 1.0
    if abs(sum_error) > PROBABILITY_SUM_TOLERANCE:
        warnings.append(
            f"network outcome probabilities sum to {1.0 + sum_error:.12g}, "
            f"{abs(sum_error):.3g} away from 1 (more than {PROBABILITY_SUM_TOLERANCE:g})"
        )
    report = check_cancellation(net, tolerance=cfg.tolerance_fs2)
    payload = {
        "coincidence_probability": probs[coincidence],
        "outcome_probability_sum_error": sum_error,
        "delays_fs": {s.id: s.delay for s in net.sources},
        "cancellation": report.to_json_dict(),
        "grid_points": cfg.grid.n_points,
        "photon_bandwidth_fwhm_nm": cfg.photon_bandwidth_fwhm_nm,
    }
    name = f"{base}_sim.json"
    io.write_json(out / name, payload)
    files = [name]
    if cfg.delay_scan is not None:
        ds = cfg.delay_scan
        idx = [s.id for s in net.sources].index(ds.source)
        rows = []
        for d in np.linspace(ds.min_fs, ds.max_fs, ds.n_steps):
            dd = list(delays)
            dd[idx] = float(d)
            rows.append((float(d), outcome_probabilities(net, photons, dd)[coincidence]))
        scan_name = f"{base}_delay_scan.csv"
        io.write_curve_csv(out / scan_name, ["delay_fs", "probability"], rows)
        files.append(scan_name)
    return files


def _run_broadening(sc: Scenario, out: Path, base: str) -> list[str]:
    b = sc.broadening
    rows = []
    for length in b.lengths_mm:
        beta_l = b.beta_fs2_per_mm * length
        tl = broadened_duration(
            b.bandwidth_fwhm_nm, b.center_wavelength_nm, 0.0, b.input_duration_fs
        )
        widened = broadened_duration(
            b.bandwidth_fwhm_nm, b.center_wavelength_nm, beta_l, b.input_duration_fs
        )
        rows.append((length, beta_l, tl, widened))
    name = f"{base}_broadening.csv"
    io.write_curve_csv(
        out / name,
        ["length_mm", "beta_l_fs2", "transform_limited_fwhm_ps", "broadened_fwhm_ps"],
        rows,
    )
    return [name]


def run(scenario: Scenario, out_dir: str | Path | None = None) -> RunResult:
    """Execute a scenario and write its outputs plus the run manifest."""
    # The resolved scenario replaces only the sections the run fills in; the
    # caller's scenario is left as it was.
    output = replace(
        scenario.output,
        directory=scenario.output.directory if out_dir is None else str(out_dir),
        basename=scenario.name if scenario.output.basename is None else scenario.output.basename,
    )
    # One network per run, built (and so validated) before anything is written.
    network = scenario.network
    net = None if network is None else build_network(network)
    if network is not None and network.grid.n_points is None:
        grid = replace(network.grid, n_points=_network_grid_points(network, net))
        network = replace(network, grid=grid)
    resolved = replace(scenario, output=output, network=network)
    out = Path(resolved.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    base = resolved.output.basename

    warnings: list[str] = []
    if resolved.mode == "two-photon-scan":
        files = _run_two_photon_scan(resolved, out, base, warnings)
    elif resolved.mode == "visibility-curve":
        files = _run_visibility_curve(resolved, out, base, warnings)
    elif resolved.mode == "network-check":
        files = _run_network_check(resolved, net, out, base)
    elif resolved.mode == "network-sim":
        files = _run_network_sim(resolved, net, out, base, warnings)
    else:
        files = _run_broadening(resolved, out, base)

    manifest = {
        "scenario": dump(resolved),
        "meta": {"package": "homsim", "version": __version__, "outputs": sorted(files)},
    }
    manifest_name = f"{base}_manifest.yaml"
    io.write_text(
        out / manifest_name,
        yaml.safe_dump(manifest, sort_keys=True, default_flow_style=False),
    )
    files.append(manifest_name)
    return RunResult(scenario=resolved, out_dir=out, files=files, warnings=warnings)
