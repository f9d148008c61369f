"""Regenerate the golden files of ``tests/golden/``, one JSON per scenario.

Run from the repository root after a change that moves a printed number on
purpose:

    PYTHONPATH=src python tests/regenerate_golden.py

Each file holds the scenario (a preset name or a scenario dict) and, per
output file of the run (the manifest aside), the parsed values and a bound
per quantity.  ``tests/test_golden.py`` re-runs the scenario and compares:
strings, ints and booleans exactly, floats within the bound of their
quantity.  A quantity is a JSON key path with list indices dropped (a
bound on ``violations`` covers every float under it) or a CSV column.

The bounds below were measured, not guessed: every scenario was run under
the default OpenBLAS settings and under ``OPENBLAS_CORETYPE=Prescott``,
``Haswell`` and ``Sandybridge``, ``OPENBLAS_NUM_THREADS=1`` and ``4`` and
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``, and
each bound keeps a margin over the largest difference seen
(``SCENARIO_BOUNDS`` widens a shared bound for one scenario whose values
are larger).  A two-photon preset enters the same way: its metrics JSON by
key, its scan, curve and eigenvalue CSVs by column, and its JSI as its two
grid-header lines and the sums of its rows and of its columns
(``row_marginal``, ``column_marginal``) rather than the N x N cells.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

from homsim.runner import run
from homsim.scenario import dump, load_preset, scenario_from_dict

GOLDEN = Path(__file__).resolve().parent / "golden"

EXACT = (
    "plain-Python sums and products of scenario inputs, or values copied "
    "from the scenario; no BLAS or SIMD reduction touches them, and every "
    "setting measured left them bit-identical"
)
BOUNDS = {
    "tolerance_fs2": (0.0, EXACT),
    "violations": (0.0, EXACT),
    "cancellation": (0.0, EXACT),
    "delays_fs": (0.0, EXACT),
    "delay_fs": (0.0, "the scan's delays, an elementwise linspace; measured bit-identical"),
    "photon_bandwidth_fwhm_nm": (0.0, EXACT),
    "coincidence_probability": (
        1e-14,
        "a sum of n!^2 products of Gram entries, whose GEMM and exp kernels "
        "follow the BLAS kernel set and numpy's SIMD level; the largest "
        "difference measured was 2.8e-16 (OPENBLAS_CORETYPE=Haswell)",
    ),
    "probability": (
        1e-14,
        "as coincidence_probability, one engine call per delay; the largest "
        "difference measured was 1.3e-15 (Prescott, one thread).  A "
        "two-photon scan's chirp-z GEMMs moved by up to 6.7e-16 (Prescott, "
        "one thread, NPY_DISABLE_CPU_FEATURES)",
    ),
    "outcome_probability_sum_error": (
        1e-14,
        "sum of all pattern probabilities minus 1, a rounding residue near "
        "1e-16, so only an absolute bound fits; the largest difference "
        "measured was 6.7e-16 (Haswell)",
    ),
    # Two-photon presets: metrics JSON, scan, curve and eigenvalue CSVs, the
    # JSI's marginals; the broadening tables.
    "delta_beta_l_fs2": (0.0, EXACT),
    "delta_l_mm": (0.0, EXACT),
    "index": (0.0, EXACT),
    "length_mm": (0.0, EXACT),
    "beta_l_fs2": (0.0, EXACT),
    "transform_limited_fwhm_ps": (0.0, EXACT),
    "broadened_fwhm_ps": (0.0, EXACT),
    "tau_fs": (0.0, "the scan's delays, an elementwise linspace; measured bit-identical"),
    "visibility": (
        1e-14,
        "fitted by Levenberg-Marquardt from scan probabilities that follow the "
        "BLAS kernel set; the largest difference measured was 6.7e-16 (Sandybridge)",
    ),
    "raw_visibility": (
        1e-14,
        "1 - min/baseline of the scan probabilities; the largest difference "
        "measured was 1.1e-15 (Prescott, one thread, NPY_DISABLE_CPU_FEATURES)",
    ),
    "baseline": (
        1e-14,
        "the fitted baseline, near 0.5; measured bit-identical, and the bound "
        "is that of the visibility fitted with it",
    ),
    "fwhm_ps": (
        1e-14,
        "the fitted width, up to 1.3 ps; the largest difference measured was "
        "4.4e-16 (Prescott, one thread, NPY_DISABLE_CPU_FEATURES)",
    ),
    "fit_residual": (
        1e-16,
        "RMS of the fit's residuals, up to 2.5e-5; the largest difference "
        "measured was 5.5e-18 (Prescott)",
    ),
    "center_fs": (
        1e-10,
        "the fitted dip centre, a zero at rounding level (|value| <= 9.2e-13 "
        "fs) whose digits are noise, so only an absolute bound fits; the "
        "largest difference measured was 1.7e-13 fs (Prescott, one thread, "
        "NPY_DISABLE_CPU_FEATURES), and the bound is 1/500000 of the 50 fs "
        "scan step",
    ),
    "purity": (
        1e-14,
        "sum of the squared kept eigenvalues, a numpy reduction whose order "
        "may follow the SIMD width; measured bit-identical",
    ),
    "schmidt_number": (
        1e-14,
        "1 / the sum of the squared eigenvalues, up to 1.4; measured bit-identical",
    ),
    "truncation_tail_mass": (
        1e-14,
        "1 - the kept eigenvalue mass, near 9.2e-4; the largest difference "
        "measured was 3.3e-16 (NPY_DISABLE_CPU_FEATURES)",
    ),
    "eigenvalue": (
        1e-15,
        "a kept Schmidt eigenvalue from the randomized SVD's GEMMs; the largest "
        "difference measured was 1.0e-17 (Prescott, one thread, "
        "NPY_DISABLE_CPU_FEATURES)",
    ),
    "visibility_mixed": (
        1e-14,
        "as visibility, one fit per curve offset; the largest difference "
        "measured was 4.4e-16 (Prescott, one thread, NPY_DISABLE_CPU_FEATURES)",
    ),
    "visibility_pure": (
        1e-14,
        "as visibility; the largest difference measured was 3.3e-16 "
        "(NPY_DISABLE_CPU_FEATURES)",
    ),
    "fwhm_ps_mixed": (
        1e-14,
        "as fwhm_ps, up to 2.2 ps; the largest difference measured was 8.9e-16 "
        "(Prescott, one thread, NPY_DISABLE_CPU_FEATURES)",
    ),
    "fwhm_ps_pure": (
        1e-14,
        "as fwhm_ps; the largest difference measured was 4.4e-16 "
        "(NPY_DISABLE_CPU_FEATURES)",
    ),
    "row_marginal": (
        0.01,
        "fsum of one JSI row's printed cells (8 significant digits, up to "
        "1.8e4, so a flip of a last digit moves a sum by up to 1e-3); the JSI "
        "was bit-identical under every setting, and the bound admits ten flips",
    ),
    "column_marginal": (0.01, "as row_marginal, over one JSI column"),
}

# A scenario's own bound where the shared one leaves too little margin.
SCENARIO_BOUNDS = {
    "sinc-flattop-threshold": {
        "schmidt_number": (
            1e-13,
            "1 / the sum of 26 squared eigenvalues, 11.0; the largest "
            "difference measured was 8.9e-15 (Prescott)",
        ),
    },
}

# The README's cascade: condition (i) broken by the 226812 fs^2 on s3's arm.
README_CASCADE = {
    "name": "cascade-sim",
    "mode": "network-sim",
    "network": {
        "sources": [{"id": "s1", "delay_fs": 60.0}, {"id": "s2"}, {"id": "s3", "delay_fs": -40.0}],
        "beam_splitters": [{"id": "A"}, {"id": "B"}],
        "detectors": ["d1", "d2", "d3"],
        "edges": [
            {"start": "s1", "end": "A.in0", "beta_fs2_per_mm": 37.802, "length_mm": 6000.0},
            {"start": "s2", "end": "A.in1", "beta_fs2_per_mm": 37.802, "length_mm": 6000.0},
            {"start": "A.out0", "end": "d1"},
            {"start": "A.out1", "end": "B.in0"},
            {"start": "s3", "end": "B.in1", "beta_l_fs2": 226812.0},
            {"start": "B.out0", "end": "d2"},
            {"start": "B.out1", "end": "d3"},
        ],
        "delay_scan": {"source": "s1", "min_fs": -150.0, "max_fs": 150.0, "n_steps": 31},
    },
}


def _cascade_with_real_splitter() -> dict:
    sc = copy.deepcopy(README_CASCADE)
    sc["name"] = "cascade-0.6-0.8"
    sc["network"]["beam_splitters"][1]["unitary"] = [
        [[0.6, 0.0], [0.8, 0.0]],
        [[0.8, 0.0], [-0.6, 0.0]],
    ]
    return sc


# Both outputs of a complex 0.6/0.8 splitter recombine at a 50/50 one, over
# arms of unequal dispersion.
MACH_ZEHNDER = {
    "name": "mach-zehnder",
    "mode": "network-sim",
    "network": {
        "sources": [{"id": "a", "delay_fs": 30.0}, {"id": "b"}],
        "beam_splitters": [
            {"id": "A", "unitary": [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.6, 0.0]]]},
            {"id": "B"},
        ],
        "detectors": ["d1", "d2"],
        "edges": [
            {"start": "a", "end": "A.in0", "beta_l_fs2": 5.0e4},
            {"start": "b", "end": "A.in1"},
            {"start": "A.out0", "end": "B.in0", "beta_l_fs2": 2.0e4},
            {"start": "A.out1", "end": "B.in1", "beta_l_fs2": 7.0e4},
            {"start": "B.out0", "end": "d1"},
            {"start": "B.out1", "end": "d2", "beta_l_fs2": 1.0e4},
        ],
        "delay_scan": {"source": "a", "min_fs": -200.0, "max_fs": 200.0, "n_steps": 9},
    },
}


def _ladder_check(k: int) -> dict:
    """Two sources through k 50/50 splitters in series (out0 -> in0 over
    1e4 fs^2, out1 -> in1 without): 2^(j+1) paths but 2(j + 1) classes of
    distinct beta*L reach splitter L<j>."""
    edges = [
        {"start": "a", "end": "L0.in0", "beta_l_fs2": 3e3},
        {"start": "b", "end": "L0.in1"},
    ]
    for j in range(k - 1):
        edges.append({"start": f"L{j}.out0", "end": f"L{j + 1}.in0", "beta_l_fs2": 1e4})
        edges.append({"start": f"L{j}.out1", "end": f"L{j + 1}.in1"})
    edges += [
        {"start": f"L{k - 1}.out0", "end": "d0"},
        {"start": f"L{k - 1}.out1", "end": "d1"},
    ]
    return {
        "name": f"ladder-{k}",
        "mode": "network-check",
        "network": {
            "sources": [{"id": "a"}, {"id": "b"}],
            "beam_splitters": [{"id": f"L{j}"} for j in range(k)],
            "detectors": ["d0", "d1"],
            "edges": edges,
        },
    }


def _preset_variant(preset: str, name: str, **changes) -> dict:
    """The scenario dict of ``preset`` under a new name, with top-level keys
    replaced."""
    return {**dump(load_preset(preset)), "name": name, **changes}


# A postulated-pure photon over mismatched fibers, with the eigenvalue and
# JSI files: the only run that emits a pure state's scan and those files.
POSTULATED_PURE = _preset_variant(
    "fig2c",
    "postulated-pure-scan",
    purity_mode="postulated-pure",
    output={"emit_jsi": True, "emit_eigenvalues": True},
)

# The exact sinc phase matching behind two flat-top filters of a 3 ps pump:
# the boxes leave a rank-26 JSA whose eigenvalues fall from 9.7e-5 to the
# rounding floor (~1e-34), so the 1e-7 threshold keeps 26 modes, orders of
# magnitude from either side, and the Schmidt step reaches its exact
# full-width block (16 -> 32 -> 64 columns).  The 10.6 ps alias period of the 64-point
# grid holds the 4.3 ps wide dip and its +-5 ps window.
SINC_FLATTOP = {
    "name": "sinc-flattop-threshold",
    "mode": "two-photon-scan",
    "source": {
        "pump": {"pulse_duration_fwhm_fs": 3000.0},
        "phase_matching": {"model": "sinc"},
        "grid": {"n_points": 64, "span_factor": 2.0, "reference_bandwidth_fwhm_nm": 3.0},
    },
    "filters": {
        "signal": {"fwhm_nm": 5.0, "shape": "flattop"},
        "idler": {"fwhm_nm": 5.0, "shape": "flattop"},
    },
    "dispersion": {"length_1_mm": 6000.0, "length_2_mm": 6000.0},
    "truncation": {"kind": "threshold", "value": 1e-7},
    "scan": {"tau_min_fs": -5000.0, "tau_max_fs": 5000.0, "n_steps": 201},
}

# fig2a without filters: the bare JSA, built without a filtering pass (7
# modes at mass 0.999).
UNFILTERED = _preset_variant("fig2a", "unfiltered-fig2a", filters={})

SCENARIOS = {
    **{
        name: {"preset": name}
        for name in ("fig1c", "fig2a", "fig2b", "fig2c", "fig3", "broadening-6m", "broadening-28m")
    },
    "fig5-cond-i": {"preset": "fig5-cond-i"},
    "fig5-cond-ii": {"preset": "fig5-cond-ii"},
    "readme-cascade-sim": {"scenario": README_CASCADE},
    "cascade-0.6-0.8": {"scenario": _cascade_with_real_splitter()},
    "mach-zehnder": {"scenario": MACH_ZEHNDER},
    "ladder-6-check": {"scenario": _ladder_check(6)},
    "postulated-pure-scan": {"scenario": POSTULATED_PURE},
    "sinc-flattop-threshold": {"scenario": SINC_FLATTOP},
    "unfiltered-fig2a": {"scenario": UNFILTERED},
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    if path.name.endswith("_jsi.csv"):
        # The N x N matrix as its grid header and its two marginals.
        with open(path, encoding="utf-8") as fh:
            header = [next(fh).rstrip("\n"), next(fh).rstrip("\n")]
            rows = [[float(cell) for cell in line.split(",")] for line in fh]
        return {
            "header": header,
            "row_marginal": [math.fsum(row) for row in rows],
            "column_marginal": [math.fsum(column) for column in zip(*rows)],
        }
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}


def quantities(value, path: str = ""):
    """Every (quantity, leaf) of a parsed output: dict keys joined by dots,
    list indices dropped."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from quantities(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from quantities(item, path)
    else:
        yield path, value


def bound_key(bounds: dict, quantity: str) -> str:
    """``quantity``, or its closest enclosing key that ``bounds`` holds."""
    while quantity not in bounds and "." in quantity:
        quantity = quantity.rpartition(".")[0]
    return quantity


def outputs(entry: dict) -> dict:
    """Run a golden entry's scenario in a fresh directory and return each
    output file's parsed values, by file name; the manifest is left out."""
    if "preset" in entry:
        scenario = load_preset(entry["preset"])
    else:
        scenario = scenario_from_dict(copy.deepcopy(entry["scenario"]))
    with tempfile.TemporaryDirectory() as out:
        result = run(scenario, out_dir=out)
        return {
            name: _parse(Path(out) / name)
            for name in sorted(result.files)
            if not name.endswith("_manifest.yaml")
        }


def golden_entry(scenario: str, entry: dict) -> dict:
    table = {**BOUNDS, **SCENARIO_BOUNDS.get(scenario, {})}
    files = {}
    for name, values in outputs(entry).items():
        bounds = {}
        for quantity, leaf in quantities(values):
            if isinstance(leaf, float):
                key = bound_key(table, quantity)
                abs_bound, why = table[key]  # a new quantity needs a measured bound
                bounds[key] = {"abs": abs_bound, "why": why}
        files[name] = {"bounds": bounds, "values": values}
    return {**entry, "outputs": files}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, entry in SCENARIOS.items():
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(golden_entry(name, entry), indent=1) + "\n", encoding="utf-8")
        print(path, file=sys.stderr)


if __name__ == "__main__":
    main()
