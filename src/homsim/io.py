"""Deterministic file writers: CSV ('.' decimals, LF, UTF-8) and sorted JSON.

Identical inputs produce byte-identical files, which the run manifest relies
on for reproducibility checks.  The JSI writer streams its rows, so its extra
memory is O(N) for an N x N matrix; no writer imports numpy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

    from .hom import DipMetrics, InterferenceScan
    from .source import JointSpectralAmplitude


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_json(path: Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_scan_csv(path: Path, scan: InterferenceScan) -> None:
    write_curve_csv(path, ["tau_fs", "probability"], zip(scan.taus, scan.probabilities))


def metrics_payload(metrics: DipMetrics) -> dict:
    return {
        "visibility": metrics.visibility,
        "fwhm_ps": metrics.fwhm,
        "baseline": metrics.baseline,
        "fit_residual": metrics.fit_residual,
        "raw_visibility": metrics.raw_visibility,
        "center_fs": metrics.center_fs,
    }


def write_curve_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    """One line per row, every value as ``format(float(v), ".17g")``: an
    integral value prints as an integer (``3``, not ``3.0``)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def write_eigenvalues_csv(path: Path, eigenvalues: np.ndarray) -> None:
    write_curve_csv(path, ["index", "eigenvalue"], enumerate(eigenvalues))


def write_jsi_csv(path: Path, jsa: JointSpectralAmplitude) -> None:
    """JSI matrix (rows = signal index, columns = idler index) with a
    two-line grid-metadata header.

    The rows are streamed: each line is formed from one row of
    ``jsa.amplitudes``, squared in place to |A|^2, and written before the
    next row is read.  The writer's
    extra memory is O(N), one row and its line, never the matrix or the file.
    """
    gs, gi = jsa.grid_signal, jsa.grid_idler
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# signal: center_nm={_fmt(gs.center_wavelength)} n={gs.n_points} "
            f"spacing_rad_fs={_fmt(gs.spacing)}\n"
            f"# idler: center_nm={_fmt(gi.center_wavelength)} n={gi.n_points} "
            f"spacing_rad_fs={_fmt(gi.spacing)}\n"
        )
        for amplitudes in jsa.amplitudes:
            intensity = abs(amplitudes)
            intensity *= intensity
            fh.write(jsi_line(intensity) + "\n")


def jsi_line(intensity: np.ndarray) -> str:
    """One JSI row (a float64 vector) as its CSV line, without the newline.

    One %-format over the band from the first to the last cell that is not
    +0.0 (-0.0 prints "-0"), and "0" outside it: the same text as
    ``format(v, ".8g")`` per cell.
    """
    n = len(intensity)
    # +0.0 is the one float64 whose bits are all zero.
    (band,) = intensity.view("i8").nonzero()
    if not len(band):
        return "0," * (n - 1) + "0"
    a, b = int(band[0]), int(band[-1]) + 1
    cells = ("%.8g," * (b - a))[:-1] % tuple(intensity[a:b].tolist())
    return "0," * a + cells + ",0" * (n - b)


def gnuplot_scan_script(csv_name: str, title: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 'delay (fs)'\n"
        "set ylabel 'coincidence probability'\n"
        f"plot '{csv_name}' skip 1 using 1:2 with linespoints notitle\n"
    )
