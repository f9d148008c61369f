import copy
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml

import homsim
import homsim.hom
import homsim.network
import homsim.runner
import homsim.source
from helpers import coincidence_probability, write_jsi_csv_whole
from homsim.cli import main
from homsim.runner import run
from homsim.scenario import dump, list_presets, load_preset, parse_scenario, scenario_from_dict
from homsim.source import JointSpectralAmplitude
from homsim.spectral import fwhm_wavelength_to_angular, gaussian_mode, make_grid

NETWORK_SIM = {
    "name": "cascade-sim",
    "mode": "network-sim",
    "network": {
        "sources": [
            {"id": "s1", "delay_fs": 60.0},
            {"id": "s2", "delay_fs": 0.0},
            {"id": "s3", "delay_fs": -40.0},
        ],
        "beam_splitters": [{"id": "A"}, {"id": "B"}],
        "detectors": ["d1", "d2", "d3"],
        "edges": [
            {"start": "s1", "end": "A.in0", "beta_l_fs2": 226812.0},
            {"start": "s2", "end": "A.in1", "beta_l_fs2": 226812.0},
            {"start": "A.out0", "end": "d1"},
            {"start": "A.out1", "end": "B.in0"},
            {"start": "s3", "end": "B.in1", "beta_l_fs2": 226812.0},
            {"start": "B.out0", "end": "d2"},
            {"start": "B.out1", "end": "d3"},
        ],
        "grid": {"n_points": 32},
        "delay_scan": {"source": "s1", "min_fs": -100.0, "max_fs": 100.0, "n_steps": 5},
    },
}


def read(path):
    return path.read_bytes()


def invoke(capsys, args):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exit_info:
        main(args, prog_name="sim")
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


def test_two_photon_run_outputs(tmp_path):
    result = run(load_preset("fig2a"), out_dir=tmp_path)
    scan_csv = tmp_path / "fig2a_scan.csv"
    metrics_json = tmp_path / "fig2a_metrics.json"
    manifest = tmp_path / "fig2a_manifest.yaml"
    assert scan_csv.exists() and metrics_json.exists() and manifest.exists()
    header = scan_csv.read_text().splitlines()[0]
    assert header == "tau_fs,probability"
    metrics = json.loads(metrics_json.read_text())
    for key in ("visibility", "fwhm_ps", "baseline", "fit_residual"):
        assert key in metrics
    assert set(result.files) == {
        "fig2a_scan.csv",
        "fig2a_metrics.json",
        "fig2a_manifest.yaml",
    }


def test_runs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(load_preset("fig2a"), out_dir=a)
    run(load_preset("fig2a"), out_dir=b)
    for name in ("fig2a_scan.csv", "fig2a_metrics.json"):
        assert read(a / name) == read(b / name)


@pytest.mark.parametrize("preset", list_presets())
def test_manifest_reproduces_outputs_byte_identically(tmp_path, preset):
    first = tmp_path / "first"
    result = run(load_preset(preset), out_dir=first)
    manifest_name = f"{preset}_manifest.yaml"
    outputs = [name for name in result.files if name != manifest_name]
    written = read(first / manifest_name)
    manifest = parse_scenario(first / manifest_name)
    second = tmp_path / "second"
    run(manifest, out_dir=second)
    for name in outputs:
        assert read(first / name) == read(second / name)
    # Without an override the manifest re-runs into its recorded directory
    # and reproduces itself too.
    run(manifest)
    assert read(first / manifest_name) == written


def test_fig1c_emits_jsi_and_eigenvalues(tmp_path):
    run(load_preset("fig1c"), out_dir=tmp_path)
    jsi_lines = (tmp_path / "fig1c_jsi.csv").read_text().splitlines()
    assert jsi_lines[0].startswith("#") and jsi_lines[1].startswith("#")
    assert len(jsi_lines) == 2 + 512
    ev_lines = (tmp_path / "fig1c_eigenvalues.csv").read_text().splitlines()
    assert ev_lines[0] == "index,eigenvalue"
    metrics = json.loads((tmp_path / "fig1c_metrics.json").read_text())
    # narrow heralded filters: nearly pure, near-unit visibility
    assert metrics["visibility"] > 0.95


def test_visibility_curve_run(tmp_path):
    run(load_preset("fig3"), out_dir=tmp_path)
    lines = (tmp_path / "fig3_curve.csv").read_text().splitlines()
    assert lines[0] == (
        "delta_l_mm,visibility_mixed,fwhm_ps_mixed,visibility_pure,fwhm_ps_pure"
    )
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert [r[0] for r in rows] == [0.0, 500.0, 1000.0, 1500.0, 2500.0, 3500.0, 5000.0]
    vis_mixed = [r[1] for r in rows]
    assert all(a > b for a, b in zip(vis_mixed, vis_mixed[1:]))


def test_visibility_curve_releases_the_jsa_before_its_curves(tmp_path, monkeypatch):
    # The curves read only the Schmidt modes, so the N x N JSA is gone
    # before the first one is scanned.
    build, curve = homsim.source.build_jsa, homsim.hom.visibility_curve
    built, alive = [], []

    def tracked_build(*args, **kwargs):
        jsa = build(*args, **kwargs)
        built.append(weakref.ref(jsa))
        return jsa

    def checked_curve(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        return curve(*args, **kwargs)

    monkeypatch.setattr(homsim.source, "build_jsa", tracked_build)
    monkeypatch.setattr(homsim.hom, "visibility_curve", checked_curve)
    run(load_preset("fig3"), out_dir=tmp_path)
    assert alive == [[False], [False]]


@pytest.mark.parametrize("preset", ["fig2a", "fig3"])
def test_two_photon_runs_call_only_real_lapack(tmp_path, monkeypatch, preset):
    # Every JSA, mode and Gram matrix of a preset is real, so no complex
    # LAPACK routine (and no complex kernel library pages) is ever touched.
    seen = set()
    for name in ("qr", "svd", "eigh", "solve"):
        fn = getattr(np.linalg, name)

        def wrapped(a, *args, _fn=fn, _name=name, **kwargs):
            seen.add((_name, np.asarray(a).dtype.name))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    run(load_preset(preset), out_dir=tmp_path)
    assert {name for name, _ in seen} >= {"qr", "svd", "eigh"}
    assert {kind for _, kind in seen} == {"float64"}


def test_visibility_curve_honours_truncation(tmp_path):
    # Keeping one Schmidt mode makes the heralded state pure, so the mixed
    # columns of the curve must equal the pure ones.
    data = dump(load_preset("fig3"))
    data["truncation"] = {"kind": "rank", "value": 1}
    run(scenario_from_dict(data), out_dir=tmp_path)
    lines = (tmp_path / "fig3_curve.csv").read_text().splitlines()[1:]
    rows = np.array([list(map(float, line.split(","))) for line in lines])
    assert np.max(np.abs(rows[:, 1:3] - rows[:, 3:5])) <= 1e-12


def test_network_check_run(tmp_path):
    run(load_preset("fig5-cond-i"), out_dir=tmp_path)
    report = json.loads((tmp_path / "fig5-cond-i_report.json").read_text())
    assert report["satisfied"] is True
    assert report["violations"] == []


def test_network_sim_run(tmp_path):
    scenario_file = tmp_path / "sim.yaml"
    scenario_file.write_text(yaml.safe_dump(NETWORK_SIM), encoding="utf-8")
    scenario = parse_scenario(scenario_file)
    run(scenario, out_dir=tmp_path)
    payload = json.loads((tmp_path / "cascade-sim_sim.json").read_text())
    assert 0.0 <= payload["coincidence_probability"] <= 1.0
    assert payload["cancellation"]["satisfied"] is True
    scan_lines = (tmp_path / "cascade-sim_delay_scan.csv").read_text().splitlines()
    assert scan_lines[0] == "delay_fs,probability"
    assert len(scan_lines) == 6


SPLITTER_SIM = {
    "name": "splitter-sim",
    "mode": "network-sim",
    "network": {
        "sources": [{"id": "a", "delay_fs": 60.0}, {"id": "b"}],
        "beam_splitters": [{"id": "A"}],
        "detectors": ["d1", "d2"],
        "edges": [
            {"start": "a", "end": "A.in0", "beta_l_fs2": 226812.0},
            {"start": "b", "end": "A.in1", "beta_l_fs2": 216812.0},
            {"start": "A.out0", "end": "d1"},
            {"start": "A.out1", "end": "d2"},
        ],
        "delay_scan": {"source": "a", "min_fs": -300.0, "max_fs": 300.0, "n_steps": 7},
    },
}


@pytest.mark.parametrize("n_points", [None, 48, 200])
def test_two_photon_network_sim_is_the_hom_dip(tmp_path, capsys, n_points):
    # The paper's two-photon case: one splitter, arms b1 and b2, photon a
    # delayed by tau, is the two-photon dip at delta_beta_l = b1 - b2.
    scenario = copy.deepcopy(SPLITTER_SIM)
    if n_points is not None:
        scenario["network"]["grid"] = {"n_points": n_points}
    path = tmp_path / "splitter.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    payload = json.loads((tmp_path / "splitter-sim_sim.json").read_text())
    grid = make_grid(780.0, 10.0, 4.0, payload["grid_points"])
    state = gaussian_mode(grid, fwhm_wavelength_to_angular(10.0, 780.0))

    def dip(tau):
        return coincidence_probability(state, state, 226812.0 - 216812.0, tau)

    assert abs(payload["coincidence_probability"] - dip(60.0)) <= 1e-12
    lines = (tmp_path / "splitter-sim_delay_scan.csv").read_text().splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert [tau for tau, _ in rows] == list(np.linspace(-300.0, 300.0, 7))
    assert max(abs(p - dip(tau)) for tau, p in rows) <= 1e-12
    assert 0.1 < min(p for _, p in rows) < max(p for _, p in rows) - 0.1


def test_network_sim_calls_the_engine_once_per_delay(tmp_path, monkeypatch):
    calls = []
    engine = homsim.network.outcome_probabilities

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(homsim.network, "outcome_probabilities", counted)
    monkeypatch.setattr(homsim.runner, "outcome_probabilities", counted)
    run(scenario_from_dict(copy.deepcopy(NETWORK_SIM)), out_dir=tmp_path)
    assert len(calls) == 1 + NETWORK_SIM["network"]["delay_scan"]["n_steps"]


@pytest.mark.parametrize("explicit_grid", [True, False])
def test_network_sim_walks_the_graph_once(tmp_path, monkeypatch, explicit_grid):
    # The spec walks its graph when it is built, and a run builds one spec:
    # the grid rule, the engine calls and the cancellation audit share it.
    walks = []
    walk = homsim.network._walk

    def counted(net):
        walks.append(net)
        return walk(net)

    monkeypatch.setattr(homsim.network, "_walk", counted)
    scenario = copy.deepcopy(NETWORK_SIM)
    if not explicit_grid:
        del scenario["network"]["grid"]  # the runner derives n_points
    run(scenario_from_dict(scenario), out_dir=tmp_path)
    assert len(walks) == 1


def _wired_sources(n):
    """A network of n sources wired straight to n detectors."""
    return {
        "sources": [{"id": f"s{k}"} for k in range(n)],
        "beam_splitters": [],
        "detectors": [f"d{k}" for k in range(n)],
        "edges": [{"start": f"s{k}", "end": f"d{k}"} for k in range(n)],
    }


def _splitter_check(unitary=None, wired=4):
    """A network-check of the two-photon splitter at an explicit grid size,
    with only its first ``wired`` edges."""
    network = {**copy.deepcopy(SPLITTER_SIM["network"]), "grid": {"n_points": 48}}
    del network["edges"][wired:]
    if unitary is not None:
        network["beam_splitters"] = [{"id": "A", "unitary": unitary}]
    return {"name": "check", "mode": "network-check", "network": network}


def _miswired(i, start, end):
    """The splitter network-check with its edge ``i`` rewired."""
    scenario = _splitter_check()
    scenario["network"]["edges"][i] = {"start": start, "end": end}
    return scenario


# 0.707 is a rounded 1/sqrt(2); the splitter is not unitary to 1e-12.
ROUNDED_UNITARY = [[[0.707, 0.0], [0.707, 0.0]], [[0.707, 0.0], [-0.707, 0.0]]]
# 0.70711 is closer: its rows' norms are off by 9.1e-6, which a relative
# tolerance of 1e-5 on the diagonal would let through.
NEAR_UNITARY = [[[0.70711, 0.0], [0.70711, 0.0]], [[0.70711, 0.0], [-0.70711, 0.0]]]

# Each case: the scenario and what its stderr line must contain ({file} is the
# scenario file).
BAD_NETWORKS = {
    "one-photon": (
        {"name": "one", "mode": "network-sim", "network": _wired_sources(1)},
        "{file}: network.sources: ",
    ),
    "seven-photons": (
        {"name": "seven", "mode": "network-sim", "network": _wired_sources(7)},
        "{file}: network.sources: ",
    ),
    # No comparison with NaN is true, so a NaN beta*L passes every
    # cancellation check.
    "nan-dispersion": (
        {
            "name": "nan",
            "mode": "network-check",
            "network": {
                **copy.deepcopy(SPLITTER_SIM["network"]),
                "edges": [
                    {"start": "a", "end": "A.in0", "beta_l_fs2": float("nan")},
                    {"start": "b", "end": "A.in1"},
                    {"start": "A.out0", "end": "d1"},
                    {"start": "A.out1", "end": "d2"},
                ],
                "grid": {"n_points": 48},
            },
        },
        "{file}: network.edges.0.beta_l_fs2: ",
    ),
    # The spec and the splitters are checked when the runner builds the
    # network, which it does before it writes anything, whatever n_points is.
    "dangling-port": (
        _splitter_check(wired=3),
        "configuration error: network.beam_splitters.0: output 'A.out1' is not connected",
    ),
    "unknown-endpoint": (
        _miswired(1, "b", "A.inX"),
        "configuration error: network.edges.1.end: unknown or non-input endpoint 'A.inX'",
    ),
    "repeated-endpoint": (
        _miswired(1, "b", "A.in0"),
        "configuration error: network.edges.1.end: input 'A.in0' wired more than once",
    ),
    "repeated-output": (
        _miswired(3, "A.out0", "d2"),
        "configuration error: network.edges.3.start: output 'A.out0' wired more than once",
    ),
    "cycle": (
        {
            "name": "cycle",
            "mode": "network-check",
            "network": {
                "sources": [{"id": "a"}, {"id": "b"}],
                "beam_splitters": [{"id": "A"}, {"id": "B"}],
                "detectors": ["d1", "d2"],
                "edges": [
                    {"start": "a", "end": "A.in0"},
                    {"start": "b", "end": "B.in0"},
                    {"start": "A.out0", "end": "B.in1"},
                    {"start": "B.out0", "end": "A.in1"},
                    {"start": "A.out1", "end": "d1"},
                    {"start": "B.out1", "end": "d2"},
                ],
            },
        },
        "configuration error: network.beam_splitters.0: network contains a cycle through 'A'",
    ),
    "rounded-unitary": (
        _splitter_check(unitary=ROUNDED_UNITARY),
        "configuration error: network.beam_splitters.0.unitary: "
        "beam splitter A: matrix is not unitary",
    ),
    "near-unitary": (
        _splitter_check(unitary=NEAR_UNITARY),
        "configuration error: network.beam_splitters.0.unitary: "
        "beam splitter A: matrix is not unitary",
    ),
    "second-splitter-rounded": (
        {
            **NETWORK_SIM,
            "network": {
                **NETWORK_SIM["network"],
                "beam_splitters": [{"id": "A"}, {"id": "B", "unitary": ROUNDED_UNITARY}],
            },
        },
        "configuration error: network.beam_splitters.1.unitary: "
        "beam splitter B: matrix is not unitary",
    ),
    "network-beside-broadening": (
        {
            **dump(load_preset("broadening-6m")),
            "network": _splitter_check(unitary=ROUNDED_UNITARY)["network"],
        },
        "configuration error: network.beam_splitters.0.unitary: "
        "beam splitter A: matrix is not unitary",
    ),
}


@pytest.mark.parametrize("scenario,message", BAD_NETWORKS.values(), ids=BAD_NETWORKS.keys())
def test_cli_bad_network_is_rejected_before_writing(tmp_path, capsys, scenario, message):
    scenario_path = tmp_path / "net.yaml"
    scenario_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, ["run", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert message.format(file=scenario_path) in err
    assert not out.exists()


# Each case: a two-photon scenario that only the loader's cross-field rules
# reject, and the key path its stderr line must name.
BAD_SOURCES = {
    # Equal slopes leave no type-II asymmetry; PhaseMatching would reject
    # them only once the run had begun.
    "equal-gvm": (
        {
            "name": "equal-gvm",
            "mode": "two-photon-scan",
            "source": {
                "phase_matching": {"gvm_signal_fs_per_mm": 200.0, "gvm_idler_fs_per_mm": 200.0}
            },
        },
        "{file}: source.phase_matching: ",
    ),
    # The eigenvalues sum to 1, so no mode reaches a threshold above 1.
    "threshold-above-one": (
        {
            "name": "threshold",
            "mode": "two-photon-scan",
            "truncation": {"kind": "threshold", "value": 1.5},
        },
        "{file}: truncation.value: ",
    ),
}


@pytest.mark.parametrize("scenario,message", BAD_SOURCES.values(), ids=BAD_SOURCES.keys())
def test_cli_bad_source_is_rejected_before_writing(tmp_path, capsys, scenario, message):
    scenario_path = tmp_path / "source.yaml"
    scenario_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, ["run", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert "configuration error: " + message.format(file=scenario_path) in err
    assert not out.exists()


def cascade_scenario(name, arms_m, n_points=None):
    """The README cascade with delays (60, 0, -40) fs and fiber arms in metres
    (s1, s2, s3, A->B connection); the grid size is left unset by default."""
    beta_per_m = 37802.0
    scenario = copy.deepcopy(NETWORK_SIM)
    scenario["name"] = name
    net = scenario["network"]
    del net["delay_scan"]
    if n_points is None:
        del net["grid"]
    else:
        net["grid"]["n_points"] = n_points
    arm_edges = [("s1", "A.in0"), ("s2", "A.in1"), ("s3", "B.in1"), ("A.out1", "B.in0")]
    arms = dict(zip(arm_edges, arms_m))
    for edge in net["edges"]:
        edge.pop("beta_l_fs2", None)
        if arms.get((edge["start"], edge["end"])):
            edge["beta_l_fs2"] = beta_per_m * arms[(edge["start"], edge["end"])]
    return scenario_from_dict(scenario)


@pytest.mark.parametrize(
    "arms_m, reference",
    [((6.0, 6.0, 3.5, 0.0), 0.11174), ((6.0, 6.0, 6.0, 3.5), 0.11291)],
    ids=["third-arm-short", "connection-long"],
)
def test_default_network_grid_resolves_dispersion(tmp_path, arms_m, reference):
    # The references are the K = 768 results; K = 48 was 7-8 % low.
    run(cascade_scenario("cascade", arms_m), out_dir=tmp_path)
    payload = json.loads((tmp_path / "cascade_sim.json").read_text())
    assert payload["coincidence_probability"] == pytest.approx(reference, rel=1e-3)
    manifest = yaml.safe_load((tmp_path / "cascade_manifest.yaml").read_text())
    k = manifest["scenario"]["network"]["grid"]["n_points"]
    assert k == payload["grid_points"] > 48
    sim_bytes = read(tmp_path / "cascade_sim.json")
    rerun = tmp_path / "rerun"
    run(parse_scenario(tmp_path / "cascade_manifest.yaml"), out_dir=rerun)
    assert read(rerun / "cascade_sim.json") == sim_bytes


def test_cancelled_network_keeps_minimum_grid(tmp_path):
    run(cascade_scenario("cancelled", (6.0, 6.0, 6.0, 0.0)), out_dir=tmp_path)
    assert json.loads((tmp_path / "cancelled_sim.json").read_text())["grid_points"] == 48
    run(load_preset("fig5-cond-ii"), out_dir=tmp_path)
    manifest = yaml.safe_load((tmp_path / "fig5-cond-ii_manifest.yaml").read_text())
    assert manifest["scenario"]["network"]["grid"]["n_points"] == 48


def test_probability_sum_warning_reaches_sim_json_and_stderr(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sim.yaml"
    path.write_text(yaml.safe_dump(NETWORK_SIM), encoding="utf-8")
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    payload = json.loads((tmp_path / "cascade-sim_sim.json").read_text())
    assert abs(payload["outcome_probability_sum_error"]) <= 1e-12

    monkeypatch.setattr(
        "homsim.runner.outcome_probabilities", lambda *args: {(1, 1, 1): 0.5, (3, 0, 0): 0.4}
    )
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert err.startswith("warning: network outcome probabilities sum")
    assert len(err.splitlines()) == 1
    payload = json.loads((tmp_path / "cascade-sim_sim.json").read_text())
    assert payload["outcome_probability_sum_error"] == pytest.approx(-0.1, abs=1e-15)


def test_broadening_run(tmp_path):
    run(load_preset("broadening-6m"), out_dir=tmp_path)
    lines = (tmp_path / "broadening-6m_broadening.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["length_mm"] == 6000.0
    assert row["beta_l_fs2"] == pytest.approx(226812.0)
    assert row["broadened_fwhm_ps"] == pytest.approx(7.027, abs=2e-3)


def test_cli_presets_lists_builtins(capsys):
    code, out, _ = invoke(capsys, ["presets"])
    assert code == 0
    assert "fig2a" in out
    assert "broadening-28m" in out


def test_cli_runs_preset(tmp_path, capsys):
    code, out, err = invoke(capsys, ["run", "--preset", "broadening-6m", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "broadening-6m_broadening.csv").exists()
    # stdout lists the written files, one path a line, manifest last.
    assert out.splitlines() == [
        str(tmp_path / "broadening-6m_broadening.csv"),
        str(tmp_path / "broadening-6m_manifest.yaml"),
    ]
    assert err == ""


def test_cli_requires_exactly_one_source(tmp_path, capsys):
    assert invoke(capsys, ["run"])[0] == 2
    code, out, err = invoke(capsys, ["run", "x.yaml", "--preset", "fig2a", "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert "give exactly one of SCENARIO_FILE or --preset" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [[], ["bogus"], ["run", "--bogus"], ["run", "--preset"], ["run", "a.yaml", "b.yaml"]],
    ids=["no-command", "unknown-command", "unknown-option", "option-without-value", "two-files"],
)
def test_cli_usage_errors_exit_2(args, capsys):
    code, out, err = invoke(capsys, args)
    assert code == 2
    assert out == ""
    assert "usage: sim" in err


def test_cli_main_always_ends_in_system_exit(tmp_path, monkeypatch, capsys):
    # The caller sees the exit code as SystemExit, 0 included, never as a
    # return value: perfbench/cli_shim.py calls main() and relies on that.
    assert invoke(capsys, ["run", "--preset", "fig5-cond-i", "--out", str(tmp_path)])[0] == 0
    monkeypatch.setattr(sys, "argv", ["sim", "run", str(tmp_path / "absent.yaml")])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 2


def test_cli_missing_scenario_file_is_config_error(tmp_path, capsys):
    code, _, err = invoke(capsys, ["run", str(tmp_path / "absent.yaml")])
    assert code == 2
    assert "configuration error" in err


def test_cli_invalid_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nmode: two-photon-scan\nbogus_key: 1\n", encoding="utf-8")
    code, _, err = invoke(capsys, ["run", str(bad)])
    assert code == 2
    assert "bogus_key" in err


def test_cli_scenario_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.yaml"
    path.write_bytes(b"\xff\xfe" + "name: x\n".encode("utf-16-le"))
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, ["run", str(path), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert f"configuration error: {path}: not UTF-8 text" in err
    assert not out.exists()


def test_cli_unknown_delay_scan_source_is_config_error(tmp_path, capsys):
    scenario = copy.deepcopy(NETWORK_SIM)
    scenario["network"]["delay_scan"]["source"] = "nope"
    path = tmp_path / "sim.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(out)])
    assert code == 2
    assert "network.delay_scan.source" in err
    assert not out.exists() or not any(out.iterdir())


CURVE = {
    "name": "curve",
    "mode": "visibility-curve",
    "dispersion": {"length_1_mm": 6000.0, "length_2_mm": 6000.0, "delta_lengths_mm": [0.0, 500.0]},
    "scan": {"tau_min_fs": -6000.0, "tau_max_fs": 6000.0, "n_steps": 241},
}


@pytest.mark.parametrize(
    "section,values,path",
    [
        ("scan", {"tau_min_fs": 100.0, "tau_max_fs": -100.0}, "scan"),
        ("dispersion", {"length_1_mm": 400.0}, "dispersion.delta_lengths_mm"),
        ("output", {"emit_jsi": True}, "output.emit_jsi"),
        ("output", {"emit_eigenvalues": True}, "output.emit_eigenvalues"),
        ("output", {"emit_gnuplot": True}, "output.emit_gnuplot"),
    ],
    ids=["inverted-scan-window", "offset-past-first-fiber", "jsi", "eigenvalues", "gnuplot"],
)
def test_cli_bad_curve_configuration_is_rejected_before_writing(
    tmp_path, capsys, section, values, path
):
    scenario = copy.deepcopy(CURVE)
    scenario.setdefault(section, {}).update(values)
    scenario_path = tmp_path / "curve.yaml"
    scenario_path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, err = invoke(capsys, ["run", str(scenario_path), "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert f"{scenario_path}: {path}: " in err
    assert not out.exists()


def test_cli_mass_above_one_is_config_error(tmp_path, capsys):
    path = tmp_path / "mass.yaml"
    data = {"name": "mass", "mode": "two-photon-scan", "truncation": {"kind": "mass", "value": 1.5}}
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(out)])
    assert code == 2
    assert "truncation.value" in err
    assert not out.exists()


def test_curve_truncation_warning_matches_the_scan(tmp_path, capsys):
    # A curve keeps the scenario's truncation, so it warns as a two-photon
    # scan of the same source does; the run still succeeds.
    curve = {**copy.deepcopy(CURVE), "truncation": {"kind": "rank", "value": 1}}
    single = {**curve, "name": "single", "mode": "two-photon-scan"}
    warnings = []
    for scenario in (curve, single):
        path = tmp_path / f"{scenario['name']}.yaml"
        path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
        code, stdout, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert len(err.splitlines()) == 1
        warnings.append(err)
    assert warnings[0] == warnings[1]
    assert warnings[0].startswith("warning: Schmidt truncation discards 0.367 ")


def test_cli_numerical_error_exit_code(tmp_path, capsys):
    # A flat-top filter far off the grid annihilates the JSA.
    scenario = {
        "name": "dead",
        "mode": "two-photon-scan",
        "filters": {
            "signal": {"center_wavelength_nm": 700.0, "fwhm_nm": 0.01, "shape": "flattop"},
            "idler": {"fwhm_nm": 10.0},
        },
    }
    path = tmp_path / "dead.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical error" in err


def test_truncation_warning_reaches_metrics_and_stderr(tmp_path, capsys):
    # Keeping a single Schmidt mode of the fig2a source discards ~16% of the
    # eigenvalue mass: the run still succeeds, but says so.
    scenario = {
        "name": "rank1",
        "mode": "two-photon-scan",
        "truncation": {"kind": "rank", "value": 1},
    }
    path = tmp_path / "rank1.yaml"
    path.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    code, _, err = invoke(capsys, ["run", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert err.startswith("warning: Schmidt truncation discards")
    assert len(err.splitlines()) == 1
    metrics = json.loads((tmp_path / "rank1_metrics.json").read_text())
    assert metrics["schmidt_truncation_warning"] is True
    assert metrics["truncation_tail_mass"] > 0.05

    code, _, err = invoke(capsys, ["run", "--preset", "fig2a", "--out", str(tmp_path)])
    assert code == 0
    assert err == ""
    metrics = json.loads((tmp_path / "fig2a_metrics.json").read_text())
    assert metrics["schmidt_truncation_warning"] is False


def test_cli_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way", encoding="utf-8")
    code, _, err = invoke(capsys, ["run", "--preset", "broadening-6m", "--out", str(blocker)])
    assert code == 4
    assert "i/o error" in err


@pytest.mark.parametrize("package", ["scipy", "pydantic"])
def test_cli_import_does_not_load(package):
    src = str(Path(homsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys, homsim.cli; "
        f"print(any(m.split('.')[0] == {package!r} for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_closure():
    # A cold `sim run` pays for every module `import homsim.cli` loads: only
    # the stdlib, yaml and homsim itself.  numpy is loaded by the modes that
    # do array work, when they run, and `import homsim` loads no more.
    src = str(Path(homsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    allowed = set(sys.stdlib_module_names) | {"yaml", "homsim"}
    for module in ("homsim", "homsim.cli"):
        probe = (
            f"import sys; before = set(sys.modules); import {module}; "
            "print(*sorted(set(sys.modules) - before))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        loaded = proc.stdout.split()
        # Cython-built extensions (libyaml's) register these two.
        foreign = [
            m
            for m in loaded
            if m.split(".")[0] not in allowed and not m.startswith(("_cython_", "cython_runtime"))
        ]
        assert foreign == [], module
        assert module in loaded


@pytest.mark.parametrize(
    "preset", ["broadening-6m", "broadening-28m", "fig5-cond-i", "fig5-cond-ii"]
)
def test_array_free_presets_run_without_numpy(tmp_path, preset):
    # The broadening closed form and the network audit do no array work; with
    # numpy made unimportable the run must still write its outputs.
    src = str(Path(homsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys; sys.modules['numpy'] = None; from homsim.cli import main; "
        f"main(['run', '--preset', {preset!r}, '--out', {str(tmp_path)!r}])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{preset}_manifest.yaml").is_file()


@pytest.mark.parametrize("preset", list_presets())
def test_presets_run_without_dataclasses_or_numpy_random(tmp_path, preset):
    # The scenario sections and value classes are plain classes, and the
    # Schmidt test block comes from homsim's own generator: no preset needs
    # either module, so with both made unimportable every run still writes.
    src = str(Path(homsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys; sys.modules['dataclasses'] = None; sys.modules['numpy.random'] = None; "
        "from homsim.cli import main; "
        f"main(['run', '--preset', {preset!r}, '--out', {str(tmp_path)!r}])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"{preset}_manifest.yaml").is_file()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS reads its thread count when numpy loads, so each count needs
    # its own process.  Every byte must match but the manifest's record of
    # the output directory.
    src = str(Path(homsim.__file__).resolve().parents[1])
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        probe = (
            "from homsim.cli import main; "
            f"main(['run', '--preset', 'fig2a', '--out', {str(out)!r}])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        written[threads] = {
            f.name: [line for line in f.read_text().splitlines() if str(out) not in line]
            for f in out.iterdir()
        }
    assert written["1"] == written["2"]


def _splitmix64_normals(count: int) -> list[float]:
    """The first ``count`` normals of the Schmidt test block, in Python ints
    and ``math``: splitmix64 from the seed, 53-bit uniforms in (0, 1],
    Box-Muller pairs."""
    from homsim.schmidt import _SEED

    mask = (1 << 64) - 1
    uniforms = []
    for i in range(count + count % 2):
        z = (_SEED + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        uniforms.append(((z >> 11) + 1) / 2.0**53)
    normals = []
    for u1, u2 in zip(uniforms[0::2], uniforms[1::2]):
        radius = math.sqrt(-2.0 * math.log(u1))
        normals += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return normals[:count]


@pytest.mark.parametrize(
    "n, k, last",
    [
        (64, 16, 0.23645161183692298),
        (64, 32, -1.1279281388026405),
        (1024, 16, -0.6213691893827048),
        (1024, 32, -1.0412396480823458),
    ],
)
def test_schmidt_test_block_is_pinned(n, k, last):
    from homsim.schmidt import _test_block

    block = _test_block(n, k)
    assert block.shape == (n, k) and block.dtype == np.float64
    # Row-major, so every shape starts with the same normals.
    first = [-0.3324111650007086, -0.714050587485064, 1.5127983103509017, 0.4916967392121708]
    np.testing.assert_allclose(block.ravel()[:4], first, rtol=1e-14, atol=0)
    assert block[-1, -1] == pytest.approx(last, rel=1e-14)
    np.testing.assert_allclose(block.ravel()[:64], _splitmix64_normals(64), rtol=1e-14, atol=1e-15)
    assert np.array_equal(_test_block(n, k), block)
    assert abs(block.mean()) < 0.05 and abs(block.std() - 1.0) < 0.05


def test_value_objects_are_immutable():
    from homsim.hom import DipMetrics, InterferenceScan, ScanConfig
    from homsim.network import (
        BeamSplitterNode,
        CancellationReport,
        DetectorNode,
        NetworkEdge,
        PathDispersion,
        SourceNode,
    )
    from homsim.schmidt import schmidt_decompose
    from homsim.source import BandpassFilter, PhaseMatching, PumpSpectrum, build_jsa

    grid = make_grid(780.0, 10.0, 4.0, 64)
    jsa = build_jsa(PumpSpectrum(), PhaseMatching(), grid, grid)
    decomp = schmidt_decompose(jsa, rank=2)
    values = [
        (grid, "spacing"),
        (gaussian_mode(grid, 0.02), "weights"),
        (PumpSpectrum(), "center_wavelength"),
        (PhaseMatching(), "model"),
        (BandpassFilter(780.0, 10.0), "fwhm"),
        (jsa, "amplitudes"),
        (decomp, "tail_mass"),
        (ScanConfig(-1.0, 1.0, 3), "n_steps"),
        (InterferenceScan([0.0], [0.25]), "taus"),
        (DipMetrics(0.5, 0.3, 0.5, 0.0, 0.5, 0.0), "visibility"),
        (SourceNode("a"), "delay"),
        (BeamSplitterNode("A"), "unitary"),
        (DetectorNode("d"), "id"),
        (NetworkEdge("a", "A.in0"), "beta_l"),
        (PathDispersion("a", "A", 0.0), "via"),
        (CancellationReport(True, (), 1e-6), "satisfied"),
    ]
    for obj, name in values:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_public_names_resolve_to_their_home_modules():
    homes = {
        "hom": "ScanConfig coincidence_probability_oracle default_scan_config fit_dip scan",
        "schmidt": "herald postulate_pure_state purity schmidt_decompose",
        "source": "BandpassFilter PhaseMatching PumpSpectrum apply_filters build_jsa",
        "spectral": "make_grid",
    }
    homes = {module: names.split() for module, names in homes.items()}
    assert sorted(homsim.__all__) == sorted(name for names in homes.values() for name in names)
    for module, names in homes.items():
        home = __import__(f"homsim.{module}", fromlist=names)
        for name in names:
            namespace = {}
            exec(f"from homsim import {name}", namespace)
            assert namespace[name] is getattr(home, name)
    with pytest.raises(ImportError):
        exec("from homsim import SpectralFunction", {})


def test_jsi_writer_matches_per_cell_format():
    from homsim import io

    special = [0.0, -0.0, 5e-324, 1e-300, 1.23456789e-5, 123456789.0, 0.1, 2.5e-308, 1e22]
    # The writer formats each row's band between its first and last cell that
    # is not +0.0, so rows of zero runs, all zeros and -0.0 edges join in.
    banded = np.zeros((6, 8))
    banded[1, 3] = 0.25  # zero runs on both sides
    banded[2, :5] = special[2:7]  # a trailing zero run
    banded[3, 4:] = special[5:]  # a leading zero run
    banded[4, [0, 7]] = -0.0, 5e-324  # -0.0 prints "-0", so it opens the band
    banded[5] = -0.0
    # Eight rows, each a different rotation of the special values, then the bands.
    values = np.vstack([np.resize(np.array(special), (8, 8)), banded])
    # |A|^2 never holds -0.0, so the rows go straight to the writer's row seam.
    lines = [io.jsi_line(row) for row in values]
    assert lines == [",".join(format(v, ".8g") for v in row) for row in values]
    assert lines[0].split(",")[:2] == ["0", "-0"]
    assert lines[8] == ",".join(["0"] * 8)
    assert lines[9] == "0,0,0,0.25,0,0,0,0"
    assert lines[12] == "-0,0,0,0,0,0,0,4.9406565e-324"


def _fig1c_jsa(n_points):
    from homsim.runner import _filtered_jsa
    from homsim.scenario import replace

    sc = load_preset("fig1c")
    return _filtered_jsa(
        replace(sc, source=replace(sc.source, grid=replace(sc.source.grid, n_points=n_points)))
    )


def _edge_band_jsa():
    # Rows whose band is empty, one cell at either edge, starts or ends at an
    # edge, or spans the whole row.
    amp = np.zeros((8, 9))
    amp[1, 0] = amp[2, 8] = 1.0
    amp[3, :3] = amp[4, 2:] = amp[5] = 0.5
    amp[6, [0, 8]] = -2.0
    grid_signal, grid_idler = make_grid(780.0, 10.0, 4.0, 8), make_grid(780.0, 10.0, 4.0, 9)
    return JointSpectralAmplitude(grid_signal, grid_idler, amp)


def _random_jsa(complex_amplitudes):
    rng = np.random.default_rng(22)
    amp = rng.normal(size=(96, 64))
    if complex_amplitudes:
        amp = amp + 1j * rng.normal(size=amp.shape)
    grid_signal, grid_idler = make_grid(780.0, 10.0, 4.0, 96), make_grid(790.0, 8.0, 3.0, 64)
    return JointSpectralAmplitude(grid_signal, grid_idler, amp)


JSI_CASES = {
    "fig1c-512": lambda: _fig1c_jsa(512),
    "fig1c-1024": lambda: _fig1c_jsa(1024),
    "unequal-grids": lambda: _random_jsa(False),
    "complex": lambda: _random_jsa(True),
    "edge-bands": _edge_band_jsa,
}


@pytest.mark.parametrize("case", JSI_CASES)
def test_streamed_jsi_writer_matches_whole_matrix_writer(tmp_path, case):
    from homsim import io

    jsa = JSI_CASES[case]()
    io.write_jsi_csv(tmp_path / "streamed.csv", jsa)
    write_jsi_csv_whole(tmp_path / "whole.csv", jsa)
    assert read(tmp_path / "streamed.csv") == read(tmp_path / "whole.csv")


def test_jsi_writer_memory_is_one_row(tmp_path):
    # The whole-matrix writer traces ~16 MB here (~29 MB on fig1c at this N;
    # the JSA is 8 MB).  A diagonal keeps the traced formatting quick, and
    # one full row gives the longest line.
    import tracemalloc

    from homsim import io

    amp = np.eye(1024)
    amp[100] = 1.0
    grid = make_grid(780.0, 10.0, 4.0, 1024)
    jsa = JointSpectralAmplitude(grid, grid, amp)
    tracemalloc.start()
    try:
        io.write_jsi_csv(tmp_path / "jsi.csv", jsa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
