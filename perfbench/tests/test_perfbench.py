"""Tests of the benchmark's own machinery: generator, checks and tracer."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

FIG2A = {"visibility": 0.7046, "fwhm_ps": 0.3447, "purity": 0.7049}


@pytest.mark.parametrize("name", sorted(generate.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert generate.generate(name, 3) == generate.generate(name, 3)
    assert generate.generate(name, 3) != generate.generate(name, 5)


def test_generated_inputs_are_valid_scenarios():
    from homsim.scenario import scenario_from_dict

    for name in ("spectral-sweep", "dip-scan", "cascade-sim"):
        for data in generate.generate(name, 0):
            scenario_from_dict(data)
    assert sorted(generate.generate("cli-cold", 0)) == sorted(generate.PRESETS)


def test_cascade_pool_alternates_cancellation():
    pool = generate.generate("cascade-sim", 11)
    assert [checks.cascade_cancels(d["network"]) for d in pool] == [
        i % 2 == 0 for i in range(len(pool))
    ]


def test_cli_failures_are_detected():
    assert checks.check_cli("fig2a", 0, FIG2A) is None
    assert checks.check_cli("fig2a", 3, None) is not None  # non-zero exit
    assert checks.check_cli("broadening-6m", 2, None) is not None
    assert checks.check_cli("fig2a", 0, {**FIG2A, "visibility": 0.5}) is not None
    assert checks.check_cli("fig2a", 0, {**FIG2A, "purity": 0.69}) is not None
    assert checks.check_cli("fig2c", 0, {"visibility": 0.22, "fwhm_ps": 0.34}) is not None
    assert checks.check_cli("fig5-cond-i", 0, {"satisfied": False}) is not None
    assert checks.check_cli("fig5-cond-ii", 0, {"satisfied": True}) is None


def test_changed_manifest_output_is_detected():
    before = {"a.csv": b"1\n", "a_manifest.yaml": b"x\n"}
    assert checks.check_same_bytes(before, dict(before)) is None
    assert checks.check_same_bytes(before, {**before, "a.csv": b"2\n"}) is not None
    assert checks.check_same_bytes(before, {"a.csv": b"1\n"}) is not None


def test_spectral_failures_are_detected():
    oracle = [0.6, 0.3, 0.1]
    metrics = {"visibility": 0.4601, "purity": 0.46}
    assert checks.check_spectral(oracle, metrics, oracle, matched=True) is None
    assert checks.check_spectral([0.6, 0.3 + 1e-6, 0.1], metrics, oracle, True) is not None
    assert checks.check_spectral(oracle[:2], metrics, oracle, True) is not None
    wrong_v = {**metrics, "visibility": 0.47}
    assert checks.check_spectral(oracle, wrong_v, oracle, matched=True) is not None
    assert checks.check_spectral(oracle, wrong_v, oracle, matched=False) is None


def test_dip_failures_are_detected():
    rows = [[0.0, 0.7, 0.34, 1.0, 0.3], [500.0, 0.6, 0.5, 0.9, 0.4]]
    samples = [(0.1, 0.1 + 1e-12)]
    assert checks.check_dip(rows, [0.0, 500.0], 0.7005, samples) is None
    assert checks.check_dip(rows, [0.0, 600.0], 0.7005, samples) is not None
    bad_pure = [[0.0, 0.7, 0.34, 0.99, 0.3]] + rows[1:]
    assert checks.check_dip(bad_pure, [0.0, 500.0], 0.7005, samples) is not None
    assert checks.check_dip(rows, [0.0, 500.0], 0.75, samples) is not None
    assert checks.check_dip(rows, [0.0, 500.0], 0.7005, [(0.1, 0.1 + 1e-9)]) is not None


def test_cascade_failures_are_detected():
    sim = {"coincidence_probability": 0.2, "cancellation": {"satisfied": True}}
    rows = [[-150.0, 0.21], [150.0, 0.19]]
    assert checks.check_cascade(sim, rows, True, [(0.2, 0.2)]) is None
    assert checks.check_cascade(sim, rows, True, [(0.2, 0.2 + 1e-8)]) is not None
    assert checks.check_cascade(sim, rows, False, []) is not None
    assert checks.check_cascade(sim, [[0.0, 1.2]], True, []) is not None


class _FakeWorkload:
    def __init__(self, verdicts):
        self.verdicts = verdicts

    def op(self, i, tracer):
        return {"i": i, "ms": 1.0, "error": None, "out": i}

    def check(self, rec):
        verdict = self.verdicts[rec["i"]]
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


def test_failed_checks_count_as_failed_operations():
    wl = _FakeWorkload([None, "wrong visibility", KeyError("visibility"), None])
    records = [wl.op(i, None) for i in range(4)]
    records.append({"i": 4, "ms": 1.0, "error": "RuntimeError: boom"})
    failures = workload.check_all(wl, records)
    assert [f.split(":")[0] for f in failures] == ["op 1", "op 2", "op 4"]


def test_closed_loop_runs_at_least_min_ops():
    wl = _FakeWorkload([None] * 100)
    records, _ = workload.closed_loop(wl, 0.0, min_ops=11, first=3)
    assert [r["i"] for r in records] == list(range(3, 14))


@pytest.fixture
def fake_layer(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def broken():
        raise ValueError("broken layer")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_tracer_reports_missing_names_as_untraced(fake_layer):
    names = (
        ("perfbench_fake_layer", "outer", "fake.outer", None),
        ("perfbench_fake_layer", "renamed_away", "fake.gone", None),
        ("perfbench_no_such_module", "f", "fake.module", None),
    )
    tr = tracer.Tracer(names)
    tr.install()
    try:
        assert fake_layer.outer(1) == 4
    finally:
        tr.uninstall()
    assert tr.untraced == [
        "perfbench_fake_layer.renamed_away",
        "perfbench_no_such_module.f",
    ]
    assert [s["layer"] for s in tr.spans] == ["fake.outer"]


def test_tracer_spans_nest_and_restore(fake_layer):
    originals = (fake_layer.inner, fake_layer.outer)
    names = (
        ("perfbench_fake_layer", "inner", "fake.inner", lambda a, k, r: {"calls_seen": 1}),
        ("perfbench_fake_layer", "outer", "fake.outer", None),
        ("perfbench_fake_layer", "broken", "fake.broken", None),
    )
    tr = tracer.Tracer(names)
    tr.install()
    try:
        tr.op = 7
        fake_layer.outer(1)
        with pytest.raises(ValueError):
            fake_layer.broken()
    finally:
        tr.uninstall()
    assert (fake_layer.inner, fake_layer.outer) == originals
    outer, inner, broken = tr.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert broken["failed"] and not outer["failed"]
    assert all(s["op"] == 7 for s in tr.spans)

    summary = tracer.summarize(tr.spans, ops=1)
    layers = summary["layers"]
    outer_s = outer["end"] - outer["start"]
    inner_s = inner["end"] - inner["start"]
    assert layers["fake.outer"]["self_s"] == pytest.approx(outer_s - inner_s)
    assert layers["fake.inner"]["counters"] == {"calls_seen": 1}
    assert layers["fake.broken"]["failed"] == 1



def test_reported_metrics_match_benchmark_json():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    raw = {
        "workload": "dip-scan",
        "attempted": 12,
        "failed": 0,
        "op_ms": [float(i) for i in range(12)],
        "elapsed_s": 1.0,
        "peak_rss_mb": 1.0,
        "trace": {
            "summary": {
                "ops": 1, "layers": {}, "curve_runs": 0, "curve_jsa_builds": 0, "top_level_s": 0.0
            },
            "imports_ms": {"homsim.cli": 1.0, "scipy.optimize": 1.0},
            "failed_ops": 0,
            "untraced_ops_per_s": 1.0,
            "traced_ops_per_s": 1.0,
            "traced_op_s": 1.0,
            "untraced_names": [],
        },
    }
    e2e, _ = run.end_to_end(raw, [1.0])
    layers, _ = run.per_layer(raw)
    for reported, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {k: v["unit"] for k, v in reported.items()} == {m["name"]: m["unit"] for m in listed}
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
