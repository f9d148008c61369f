"""Deterministic file writers: CSV ('.' decimals, LF, UTF-8) and sorted JSON.

Identical inputs produce byte-identical files, which the run manifest relies
on for reproducibility checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .hom import DipMetrics, InterferenceScan
from .source import JointSpectralAmplitude, jsi


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_scan_csv(path: Path, scan: InterferenceScan) -> None:
    lines = ["tau_fs,probability"]
    for t, p in zip(scan.taus, scan.probabilities):
        lines.append(f"{_fmt(t)},{_fmt(p)}")
    write_text(path, "\n".join(lines) + "\n")


def metrics_payload(metrics: DipMetrics) -> dict:
    return {
        "visibility": metrics.visibility,
        "fwhm_ps": metrics.fwhm,
        "baseline": metrics.baseline,
        "fit_residual": metrics.fit_residual,
        "raw_visibility": metrics.raw_visibility,
        "center_fs": metrics.center_fs,
    }


def write_curve_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def write_eigenvalues_csv(path: Path, eigenvalues: np.ndarray) -> None:
    lines = ["index,eigenvalue"]
    for i, lam in enumerate(eigenvalues):
        lines.append(f"{i},{_fmt(lam)}")
    write_text(path, "\n".join(lines) + "\n")


def write_jsi_csv(path: Path, jsa: JointSpectralAmplitude) -> None:
    """JSI matrix (rows = signal index, columns = idler index) with a
    two-line grid-metadata header."""
    gs, gi = jsa.grid_signal, jsa.grid_idler
    header = [
        f"# signal: center_nm={_fmt(gs.center_wavelength)} n={gs.n_points} "
        f"spacing_rad_fs={_fmt(gs.spacing)}",
        f"# idler: center_nm={_fmt(gi.center_wavelength)} n={gi.n_points} "
        f"spacing_rad_fs={_fmt(gi.spacing)}",
    ]
    intensity = jsi(jsa)
    # One %-format per row; the same text as format(v, ".8g") per cell.
    row_format = ",".join(["%.8g"] * intensity.shape[1])
    lines = header + [row_format % tuple(row) for row in intensity.tolist()]
    write_text(path, "\n".join(lines) + "\n")


def gnuplot_scan_script(csv_name: str, title: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 'delay (fs)'\n"
        "set ylabel 'coincidence probability'\n"
        f"plot '{csv_name}' skip 1 using 1:2 with linespoints notitle\n"
    )
