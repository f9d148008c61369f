import copy
import re
import textwrap

import pytest
import yaml

from homsim.errors import ScenarioNotFoundError, ScenarioParseError
from homsim.scenario import (
    FilterConfig,
    Scenario,
    dump,
    list_presets,
    load_preset,
    parse_scenario,
    replace,
    scenario_from_dict,
)

MINIMAL = textwrap.dedent(
    """
    name: demo
    mode: two-photon-scan
    dispersion:
      beta_fs2_per_mm: 37.802
      length_1_mm: 6000.0
      length_2_mm: 6000.0
    filters:
      signal: {fwhm_nm: 10.0}
      idler: {fwhm_nm: 10.0}
    """
)


def test_minimal_scenario_parses(tmp_path):
    path = tmp_path / "demo.yaml"
    path.write_text(MINIMAL, encoding="utf-8")
    sc = parse_scenario(path)
    assert sc.mode == "two-photon-scan"
    assert sc.source.pump.center_wavelength_nm == 390.0  # default materialized
    assert sc.source.phase_matching.gvm_signal_fs_per_mm == 340.0
    assert sc.filters.signal.fwhm_nm == 10.0


def test_all_presets_parse_and_are_listed():
    names = list_presets()
    assert names == sorted(names)
    expected = {
        "fig1c",
        "fig2a",
        "fig2b",
        "fig2c",
        "fig3",
        "fig5-cond-i",
        "fig5-cond-ii",
        "broadening-6m",
        "broadening-28m",
    }
    assert expected <= set(names)
    for name in names:
        sc = load_preset(name)
        assert isinstance(sc, Scenario)


def test_preset_values_match_reference_conditions():
    fig2a = load_preset("fig2a")
    assert fig2a.dispersion.beta_fs2_per_mm == 37.802
    assert fig2a.dispersion.length_1_mm == 6000.0
    assert fig2a.dispersion.length_2_mm == 6000.0
    assert fig2a.mode == "two-photon-scan"
    fig2c = load_preset("fig2c")
    assert (fig2c.dispersion.length_1_mm, fig2c.dispersion.length_2_mm) == (6000.0, 3500.0)
    cond_ii = load_preset("fig5-cond-ii")
    assert cond_ii.mode == "network-check"
    by_end = {e.end: e for e in cond_ii.network.edges}
    beta_l = lambda e: e.beta_fs2_per_mm * e.length_mm  # noqa: E731
    assert beta_l(by_end["A.in0"]) == beta_l(by_end["A.in1"])
    assert beta_l(by_end["A.in0"]) + beta_l(by_end["B.in0"]) == beta_l(by_end["B.in1"])


def test_unknown_preset_rejected():
    with pytest.raises(ScenarioNotFoundError):
        load_preset("fig99")


def test_missing_file_raises_not_found(tmp_path):
    with pytest.raises(ScenarioNotFoundError):
        parse_scenario(tmp_path / "nope.yaml")


def test_file_that_is_not_utf8_raises_parse_error_naming_it(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ScenarioParseError, match=f"{path}: not UTF-8 text"):
        parse_scenario(path)


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL + "\nunknown_knob: 3\n", encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="unknown_knob"):
        parse_scenario(path)


def test_negative_length_names_offending_key(tmp_path):
    data = yaml.safe_load(MINIMAL)
    data["dispersion"]["length_1_mm"] = -1.0
    path = tmp_path / "neg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ScenarioParseError, match="length_1_mm"):
        parse_scenario(path)


def test_invalid_yaml_reports_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n", encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        parse_scenario(path)


def test_mode_requirements_enforced():
    with pytest.raises(ScenarioParseError, match="network"):
        scenario_from_dict({"name": "x", "mode": "network-check"})
    with pytest.raises(ScenarioParseError, match="broadening"):
        scenario_from_dict({"name": "x", "mode": "broadening"})
    with pytest.raises(ScenarioParseError, match="delta_lengths_mm"):
        scenario_from_dict({"name": "x", "mode": "visibility-curve"})


SPLITTER = {
    "sources": [{"id": "a"}, {"id": "b"}],
    "beam_splitters": [{"id": "A"}],
    "detectors": ["d1", "d2"],
    "edges": [
        {"start": "a", "end": "A.in0"},
        {"start": "b", "end": "A.in1"},
        {"start": "A.out0", "end": "d1"},
        {"start": "A.out1", "end": "d2"},
    ],
}


@pytest.mark.parametrize("flag", ["emit_jsi", "emit_eigenvalues", "emit_gnuplot"])
@pytest.mark.parametrize(
    "mode,section",
    [
        ("visibility-curve", {"dispersion": {"delta_lengths_mm": [0.0]}}),
        ("broadening", {"broadening": {"lengths_mm": [1000.0]}}),
        ("network-check", {"network": SPLITTER}),
        ("network-sim", {"network": SPLITTER}),
    ],
)
def test_emit_flags_apply_only_to_two_photon_scans(mode, section, flag):
    data = {"name": "x", "mode": mode, **section}
    assert not getattr(scenario_from_dict(copy.deepcopy(data)).output, flag)
    data["output"] = {flag: True}
    with pytest.raises(ScenarioParseError, match=rf"<memory>: output\.{flag}: applies only to "):
        scenario_from_dict(data)
    data.update(mode="two-photon-scan", name="y")
    assert getattr(scenario_from_dict(data).output, flag)


def test_manifest_wrapper_is_accepted():
    inner = yaml.safe_load(MINIMAL)
    sc = scenario_from_dict({"scenario": inner, "meta": {"outputs": []}})
    assert sc.name == "demo"
    with pytest.raises(ScenarioParseError):
        scenario_from_dict({"scenario": inner, "surprise": 1})


def test_edge_dispersion_forms_are_exclusive():
    base = {
        "name": "n",
        "mode": "network-check",
        "network": {
            "sources": [{"id": "a"}, {"id": "b"}],
            "beam_splitters": [{"id": "A"}],
            "detectors": ["d1", "d2"],
            "edges": [
                {"start": "a", "end": "A.in0", "beta_l_fs2": 5.0, "length_mm": 1.0,
                 "beta_fs2_per_mm": 5.0},
                {"start": "b", "end": "A.in1"},
                {"start": "A.out0", "end": "d1"},
                {"start": "A.out1", "end": "d2"},
            ],
        },
    }
    with pytest.raises(ScenarioParseError, match="beta"):
        scenario_from_dict(base)


# --- loader contract ------------------------------------------------------
# A scenario that fills every section, so that each field below can be
# pushed past its bound, removed or replaced on its own.
FULL = {
    "name": "contract",
    "mode": "two-photon-scan",
    "source": {
        "pump": {"center_wavelength_nm": 390.0, "pulse_duration_fwhm_fs": 140.0},
        "phase_matching": {"crystal_length_mm": 1.0, "model": "sinc"},
        "grid": {"n_points": 64, "span_factor": 4.0, "reference_bandwidth_fwhm_nm": 10.0},
    },
    "filters": {
        "signal": {"center_wavelength_nm": 780.0, "fwhm_nm": 10.0, "shape": "gaussian"},
        "idler": {"fwhm_nm": 10.0},
    },
    "dispersion": {"length_1_mm": 10.0, "length_2_mm": 10.0, "delta_lengths_mm": [0.0, 5.0]},
    "truncation": {"kind": "mass", "value": 0.999},
    "scan": {"tau_min_fs": -100.0, "tau_max_fs": 100.0, "n_steps": 5},
    "network": {
        "sources": [{"id": "a"}, {"id": "b", "delay_fs": 1.0}],
        "beam_splitters": [{"id": "A"}],
        "detectors": ["d1", "d2"],
        "edges": [
            {"start": "a", "end": "A.in0", "beta_l_fs2": 5.0},
            {"start": "b", "end": "A.in1", "beta_fs2_per_mm": 5.0, "length_mm": 1.0},
            {"start": "A.out0", "end": "d1"},
            {"start": "A.out1", "end": "d2"},
        ],
        "grid": {
            "center_wavelength_nm": 780.0,
            "n_points": 48,
            "span_factor": 4.0,
            "reference_bandwidth_fwhm_nm": 10.0,
        },
        "photon_bandwidth_fwhm_nm": 10.0,
        "tolerance_fs2": 1e-6,
        "delay_scan": {"source": "a", "n_steps": 3},
    },
    "broadening": {
        "bandwidth_fwhm_nm": 10.0,
        "center_wavelength_nm": 780.0,
        "lengths_mm": [1.0],
        "input_duration_fs": 100.0,
    },
    "output": {"basename": "c", "emit_jsi": False},
}


def edited(path: str, value=None, delete: bool = False) -> dict:
    """A deep copy of FULL with the dotted ``path`` set to ``value`` (or deleted)."""
    data = copy.deepcopy(FULL)
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = data
    for key in parents:
        node = node[key]
    if delete:
        del node[last]
    else:
        node[last] = value
    return data


def rejects_at(path: str, data: dict) -> None:
    """The loader rejects ``data`` and names the full dotted ``path``."""
    with pytest.raises(ScenarioParseError, match=rf"(: |; ){re.escape(path)}:"):
        scenario_from_dict(data)


def test_full_scenario_parses():
    sc = scenario_from_dict(copy.deepcopy(FULL))
    assert sc.network.edges[1].length_mm == 1.0
    assert sc.broadening.input_duration_fs == 100.0
    assert sc.dispersion.delta_lengths_mm == [0.0, 5.0]


@pytest.mark.parametrize(
    "path",
    ["bogus", "source.pump.bogus", "filters.signal.bogus", "network.edges.1.bogus",
     "network.sources.0.bogus", "network.delay_scan.bogus"],
)
def test_unknown_key_is_rejected_with_its_path(path):
    rejects_at(path, edited(path, 1))


BOUND_CASES = [
    ("source.pump.center_wavelength_nm", 0.0),
    ("source.pump.pulse_duration_fwhm_fs", 0.0),
    ("source.phase_matching.crystal_length_mm", 0.0),
    ("source.grid.n_points", 7),
    ("source.grid.span_factor", 1.999),
    ("source.grid.reference_bandwidth_fwhm_nm", 0.0),
    ("filters.signal.center_wavelength_nm", 0.0),
    ("filters.signal.fwhm_nm", 0.0),
    ("filters.idler.fwhm_nm", -1e-12),
    ("dispersion.length_1_mm", -1e-9),
    ("dispersion.length_2_mm", -1e-9),
    ("scan.n_steps", 2),
    ("network.edges.1.length_mm", -1e-9),
    ("network.grid.center_wavelength_nm", 0.0),
    ("network.grid.n_points", 7),
    ("network.grid.span_factor", 1.999),
    ("network.grid.reference_bandwidth_fwhm_nm", 0.0),
    ("network.photon_bandwidth_fwhm_nm", 0.0),
    ("network.tolerance_fs2", 0.0),
    ("network.delay_scan.n_steps", 1),
    ("broadening.bandwidth_fwhm_nm", 0.0),
    ("broadening.center_wavelength_nm", 0.0),
    ("broadening.input_duration_fs", 0.0),
]


@pytest.mark.parametrize("path,value", BOUND_CASES, ids=[c[0] for c in BOUND_CASES])
def test_value_just_past_its_bound_is_rejected(path, value):
    rejects_at(path, edited(path, value))


@pytest.mark.parametrize(
    "path,value",
    [("mode", "two-photon"), ("filters.signal.shape", "square"),
     ("truncation.kind", "fraction"), ("source.phase_matching.model", "exact"),
     ("purity_mode", "pure")],
)
def test_value_outside_its_choices_is_rejected(path, value):
    rejects_at(path, edited(path, value))


@pytest.mark.parametrize(
    "path", ["filters.signal.fwhm_nm", "network.sources", "network.edges.0.start",
             "broadening.lengths_mm", "name"],
)
def test_missing_required_field_is_rejected(path):
    rejects_at(path, edited(path, delete=True))


@pytest.mark.parametrize(
    "path,value",
    [("source.grid.n_points", 64.5), ("scan.n_steps", 5.5), ("network.grid.n_points", 48.25),
     ("network.delay_scan.n_steps", 3.5)],
)
def test_non_integral_float_for_int_field_is_rejected(path, value):
    rejects_at(path, edited(path, value))


@pytest.mark.parametrize("value", [2.5, 0.0, 0.5, float("inf"), float("nan")])
def test_rank_truncation_takes_an_integral_rank(value):
    data = edited("truncation", {"kind": "rank", "value": value})
    rejects_at("truncation.value", data)
    data["truncation"]["value"] = 2
    assert scenario_from_dict(data).truncation.value == 2.0


@pytest.mark.parametrize("value", [1.5, 0.0, -0.5, float("inf"), float("nan")])
def test_mass_truncation_lies_in_the_unit_interval(value):
    data = edited("truncation", {"kind": "mass", "value": value})
    rejects_at("truncation.value", data)
    data["truncation"]["value"] = 1.0
    assert scenario_from_dict(data).truncation.value == 1.0


@pytest.mark.parametrize("tau_max", [-100.0, 100.0])
def test_scan_window_must_be_ordered(tau_max):
    rejects_at("scan", edited("scan", {"tau_min_fs": 100.0, "tau_max_fs": tau_max}))


@pytest.mark.parametrize("offsets", [[0.0, 10.5], [12.0, 0.0]])
def test_curve_offsets_fit_in_the_first_fiber(offsets):
    rejects_at("dispersion.delta_lengths_mm", edited("dispersion.delta_lengths_mm", offsets))
    data = edited("dispersion.delta_lengths_mm", [-3.0, 10.0])  # length_1_mm is 10
    assert scenario_from_dict(data).dispersion.delta_lengths_mm == [-3.0, 10.0]


NON_FINITE_CASES = [
    ("scan.tau_max_fs", float("nan")),
    ("dispersion.delta_lengths_mm.0", float("nan")),
    ("dispersion.beta_fs2_per_mm", float("inf")),
    ("source.phase_matching.gvm_signal_fs_per_mm", float("-inf")),
    ("network.sources.1.delay_fs", float("nan")),
    ("network.edges.0.beta_l_fs2", float("nan")),
    ("network.edges.1.beta_fs2_per_mm", float("inf")),
    ("network.edges.1.length_mm", float("inf")),
    ("source.pump.center_wavelength_nm", float("inf")),
    ("broadening.lengths_mm.0", float("-inf")),
]


@pytest.mark.parametrize(
    "path,value",
    [pytest.param(p, v, id=f"{p}={v}") for p, v in NON_FINITE_CASES]
    + [pytest.param("broadening.lengths_mm.0", 10**400, id="broadening.lengths_mm.0=10**400")],
)
def test_non_finite_number_is_rejected(path, value):
    rejects_at(path, edited(path, value))


@pytest.mark.parametrize(
    "unitary",
    [
        [[[1.0, 0.0], [0.0, 0.0]]],
        [[[1.0, 0.0]], [[0.0, 0.0]]],
        [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[1.0, 0.0, 9.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    ],
    ids=["one-row", "rows-of-one", "short-entry", "long-entry"],
)
def test_splitter_unitary_is_two_rows_of_two_pairs(unitary):
    path = "network.beam_splitters.0.unitary"
    rejects_at(path, edited(path, unitary))
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert scenario_from_dict(edited(path, identity)).network.beam_splitters[0].unitary == identity


def test_delay_scan_names_a_network_source():
    rejects_at("network.delay_scan.source", edited("network.delay_scan.source", "nope"))


def test_integral_yaml_numbers_dump_as_floats_in_the_manifest(tmp_path):
    from homsim.runner import run

    path = tmp_path / "ints.yaml"
    path.write_text(
        textwrap.dedent(
            """
            name: ints
            mode: broadening
            filters:
              signal: {fwhm_nm: 10}
            broadening:
              lengths_mm: [6000]
            """
        ),
        encoding="utf-8",
    )
    sc = parse_scenario(path)
    assert type(sc.filters.signal.fwhm_nm) is float
    run(sc, out_dir=tmp_path)
    manifest = (tmp_path / "ints_manifest.yaml").read_text(encoding="utf-8")
    assert "    fwhm_nm: 10.0\n" in manifest
    assert "    - 6000.0\n" in manifest


def test_sections_are_keyword_only_immutable_and_replaced_by_copy():
    sc = load_preset("fig2a")
    with pytest.raises(AttributeError):
        sc.name = "other"
    with pytest.raises(AttributeError):
        del sc.source.pump.center_wavelength_nm
    changed = replace(sc, name="other")
    assert (changed.name, sc.name) == ("other", "fig2a")
    assert changed.source is sc.source
    assert dump(replace(changed, name="fig2a")) == dump(sc)
    assert FilterConfig(fwhm_nm=5.0).center_wavelength_nm == 780.0
    with pytest.raises(TypeError, match="fwhm_nm"):
        FilterConfig()  # a field without a default is required
    with pytest.raises(TypeError):
        FilterConfig(780.0, 5.0)  # keyword-only
    with pytest.raises(TypeError, match="colour"):
        replace(sc, colour="red")


def test_a_section_reads_its_own_annotated_fields_and_needs_at_least_one():
    from homsim.scenario import _Section

    assert [name for name, *_ in FilterConfig._fields] == [
        "center_wavelength_nm",
        "fwhm_nm",
        "shape",
    ]
    assert [name for name, *_ in Scenario._fields][:2] == ["name", "mode"]
    with pytest.raises(TypeError, match="declares no fields"):

        class Empty(_Section):
            pass
