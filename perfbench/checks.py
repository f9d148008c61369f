"""Correctness checks on each operation's outputs, and the oracles they use.

Every ``check_*`` function returns ``None`` for a correct output and a short
reason otherwise; the benchmark counts an operation with a reason as failed.
Oracles are computed by the benchmark outside the timed region, through
homsim's public functions or its scenario interface.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Tolerances the acceptance suite asserts for the reference dips.
FIG2A = {"visibility": (0.704, 0.08), "fwhm_ps": (0.255, 0.4375)}
FIG2C = {"visibility": (0.229, 0.08), "fwhm_ps": (0.96, 1.6)}
PURITY_TOL = 2e-3
PURE_VISIBILITY_TOL = 1e-4
EIGENVALUE_TOL = 1e-9
ORACLE_TOL = 1e-10
CASCADE_TOL = 1e-9


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path: Path) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


# --- cli-cold -------------------------------------------------------------


def check_cli(preset: str, returncode: int, payload: dict | None) -> str | None:
    """``payload`` is the metrics JSON (fig2a, fig2c) or report JSON (fig5)."""
    if returncode != 0:
        return f"{preset}: exit code {returncode}"
    if preset in ("fig2a", "fig2c"):
        ref = FIG2A if preset == "fig2a" else FIG2C
        v, tol = ref["visibility"]
        lo, hi = ref["fwhm_ps"]
        if abs(payload["visibility"] - v) > tol:
            return f"{preset}: visibility {payload['visibility']!r}, expected {v}+-{tol}"
        if not lo <= payload["fwhm_ps"] <= hi:
            return f"{preset}: fwhm {payload['fwhm_ps']!r} ps outside [{lo}, {hi}]"
        if preset == "fig2a" and abs(payload["visibility"] - payload["purity"]) > PURITY_TOL:
            return f"{preset}: |V - purity| > {PURITY_TOL}"
    if preset.startswith("fig5") and payload.get("satisfied") is not True:
        return f"{preset}: cancellation report not satisfied"
    return None


def check_same_bytes(before: dict[str, bytes], after: dict[str, bytes]) -> str | None:
    """A manifest re-run must reproduce every output byte for byte."""
    if before.keys() != after.keys():
        return f"manifest re-run wrote {sorted(after)}, expected {sorted(before)}"
    changed = sorted(name for name in before if before[name] != after[name])
    return f"manifest re-run changed {changed}" if changed else None


# --- spectral-sweep -------------------------------------------------------


def filtered_jsa(scenario):
    """The scenario's filtered JSA, built through the public source functions."""
    from homsim import BandpassFilter, PhaseMatching, PumpSpectrum, apply_filters, build_jsa, make_grid

    src = scenario.source
    grid = make_grid(
        2.0 * src.pump.center_wavelength_nm,
        src.grid.reference_bandwidth_fwhm_nm,
        src.grid.span_factor,
        src.grid.n_points,
    )
    jsa = build_jsa(
        PumpSpectrum(src.pump.center_wavelength_nm, src.pump.pulse_duration_fwhm_fs),
        PhaseMatching(
            crystal_length=src.phase_matching.crystal_length_mm,
            model=src.phase_matching.model,
            gvm_signal=src.phase_matching.gvm_signal_fs_per_mm,
            gvm_idler=src.phase_matching.gvm_idler_fs_per_mm,
        ),
        grid,
        grid,
    )
    filters = [
        BandpassFilter(f.center_wavelength_nm, f.fwhm_nm, f.shape)
        for f in (scenario.filters.signal, scenario.filters.idler)
    ]
    return apply_filters(jsa, *filters)


def eigen_oracle(scenario) -> list[float]:
    """Kept eigenvalues by a plain ``np.linalg.svd`` of the filtered JSA.

    Applies the scenario's mass rule to the full spectrum and renormalises
    the kept eigenvalues, as the Schmidt step documents.
    """
    import numpy as np

    amp = filtered_jsa(scenario).amplitudes
    if not np.any(amp.imag):
        amp = amp.real  # the same matrix; a real SVD is cheaper
    lam = np.linalg.svd(amp, compute_uv=False) ** 2
    cum = np.cumsum(lam) / lam.sum()
    keep = min(int(np.searchsorted(cum, scenario.truncation.value)) + 1, len(lam))
    return [float(x) for x in lam[:keep] / lam[:keep].sum()]


def check_spectral(
    eigenvalues: list[float], metrics: dict, oracle: list[float], matched: bool
) -> str | None:
    if len(eigenvalues) != len(oracle):
        return f"kept {len(eigenvalues)} modes, oracle keeps {len(oracle)}"
    worst = max(abs(a - b) for a, b in zip(eigenvalues, oracle))
    if worst > EIGENVALUE_TOL:
        return f"eigenvalues differ from the SVD oracle by {worst:.2e}"
    if matched and abs(metrics["visibility"] - metrics["purity"]) > PURITY_TOL:
        return (
            f"matched dip: |V - purity| = "
            f"{abs(metrics['visibility'] - metrics['purity']):.2e} > {PURITY_TOL}"
        )
    return None


# --- dip-scan -------------------------------------------------------------


def dip_states(scenario):
    """Mixed and postulated-pure heralded states of a curve scenario, built
    through the public pipeline functions."""
    from homsim import herald, postulate_pure_state, schmidt_decompose

    decomp = schmidt_decompose(filtered_jsa(scenario))
    return herald(decomp), postulate_pure_state(decomp)


def dip_scan_samples(state, delta_beta_l: float, scan_cfg, indices) -> list[tuple[float, float]]:
    """(scan, oracle) probability pairs at the given delay indices."""
    from homsim import ScanConfig, coincidence_probability_oracle, scan

    cfg = ScanConfig(scan_cfg.tau_min_fs, scan_cfg.tau_max_fs, scan_cfg.n_steps)
    result = scan(state, state, delta_beta_l, cfg)
    return [
        (
            float(result.probabilities[i]),
            coincidence_probability_oracle(state, state, delta_beta_l, float(result.taus[i])),
        )
        for i in indices
    ]


def check_dip(
    rows: list[list[float]],
    offsets: list[float],
    purity: float,
    samples: list[tuple[float, float]],
) -> str | None:
    """``rows`` are the curve CSV rows (delta_l, V_mixed, w_mixed, V_pure, w_pure)."""
    if [r[0] for r in rows] != [float(x) for x in offsets]:
        return "curve rows do not match the requested delta-L offsets"
    for dl, vm, wm, vp, wp in rows:
        if not (0.0 <= vm <= 1.0 and 0.0 <= vp <= 1.0 and wm > 0 and wp > 0):
            return f"delta-L {dl}: visibility or width out of range"
    zero = rows[0]
    if abs(zero[3] - 1.0) > PURE_VISIBILITY_TOL:
        return f"pure-state visibility at delta-L 0 is {zero[3]!r}, expected 1"
    if abs(zero[1] - purity) > PURITY_TOL:
        return f"mixed visibility at delta-L 0 is {zero[1]!r}, purity {purity!r}"
    worst = max(abs(a - b) for a, b in samples)
    if worst > ORACLE_TOL:
        return f"scan samples differ from the density-matrix oracle by {worst:.2e}"
    return None


# --- cascade-sim ----------------------------------------------------------


def cascade_cancels(network: dict, tolerance: float = 1e-6) -> bool:
    """Cancellation conditions of the cascade, from the scenario dict alone."""
    beta = {(e["start"], e["end"]): e.get("beta_l_fs2", 0.0) for e in network["edges"]}
    b1, b2 = beta[("s1", "A.in0")], beta[("s2", "A.in1")]
    b12, b3 = beta[("A.out1", "B.in0")], beta[("s3", "B.in1")]
    return abs(b1 - b2) <= tolerance and abs(b1 + b12 - b3) <= tolerance


def check_cascade(
    sim: dict, scan_rows: list[list[float]], cancels: bool, references: list[tuple[float, float]]
) -> str | None:
    """``references`` pairs each checked probability with the dispersion-free
    cascade's value at the same delays (empty when cancellation fails)."""
    probs = [sim["coincidence_probability"]] + [r[1] for r in scan_rows]
    if not all(0.0 <= p <= 1.0 for p in probs):
        return "coincidence probability outside [0, 1]"
    if sim["cancellation"]["satisfied"] is not cancels:
        return f"cancellation report says {sim['cancellation']['satisfied']}, expected {cancels}"
    for p, ref in references:
        if abs(p - ref) > CASCADE_TOL:
            return f"cancelled cascade differs from the dispersion-free one by {abs(p - ref):.2e}"
    return None
