"""Deterministic file writers: CSV ('.' decimals, LF, UTF-8) and sorted JSON.

Identical inputs produce byte-identical files, which the run manifest relies
on for reproducibility checks.  Only the JSI writer uses numpy, and imports
it when it runs.
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
    two-line grid-metadata header."""
    gs, gi = jsa.grid_signal, jsa.grid_idler
    header = [
        f"# signal: center_nm={_fmt(gs.center_wavelength)} n={gs.n_points} "
        f"spacing_rad_fs={_fmt(gs.spacing)}",
        f"# idler: center_nm={_fmt(gi.center_wavelength)} n={gi.n_points} "
        f"spacing_rad_fs={_fmt(gi.spacing)}",
    ]
    import numpy as np

    from .source import jsi

    intensity = jsi(jsa)
    # One %-format per row over its band from the first to the last cell that
    # is not +0.0 (-0.0 prints "-0"); the same text as format(v, ".8g") per cell.
    nonzero = (intensity != 0) | np.signbit(intensity)
    n = intensity.shape[1]
    firsts = nonzero.argmax(axis=1).tolist()
    ends = (n - nonzero[:, ::-1].argmax(axis=1)).tolist()
    zero_row = ",".join(["0"] * n)
    lines = header
    for row, any_nonzero, a, b in zip(intensity, nonzero.any(axis=1), firsts, ends):
        if not any_nonzero:
            lines.append(zero_row)
            continue
        band = ",".join(["%.8g"] * (b - a)) % tuple(row[a:b].tolist())
        lines.append("0," * a + band + ",0" * (n - b))
    write_text(path, "\n".join(lines) + "\n")


def gnuplot_scan_script(csv_name: str, title: str) -> str:
    return (
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 'delay (fs)'\n"
        "set ylabel 'coincidence probability'\n"
        f"plot '{csv_name}' skip 1 using 1:2 with linespoints notitle\n"
    )
