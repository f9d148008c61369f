"""Golden numbers: every number a scenario's run writes, against the values
stored in ``tests/golden/`` (see ``tests/regenerate_golden.py``)."""

import json
from pathlib import Path

import pytest

from regenerate_golden import GOLDEN, SCENARIOS, bound_key, outputs, quantities

FILES = sorted(GOLDEN.glob("*.json"))


def test_every_scenario_has_a_golden_file():
    assert sorted(f.stem for f in FILES) == sorted(SCENARIOS)


@pytest.mark.parametrize("path", FILES, ids=[f.stem for f in FILES])
def test_outputs_match_golden(path: Path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    actual = outputs(golden)
    assert sorted(actual) == sorted(golden["outputs"])
    for name, stored in golden["outputs"].items():
        bounds = stored["bounds"]
        want = list(quantities(stored["values"]))
        got = list(quantities(actual[name]))
        assert [q for q, _ in got] == [q for q, _ in want], name
        for (quantity, value), (_, expected) in zip(got, want):
            if isinstance(expected, float) and isinstance(value, float):
                limit = bounds[bound_key(bounds, quantity)]["abs"]
                assert abs(value - expected) <= limit, (name, quantity, value, expected)
            else:
                assert (type(value), value) == (type(expected), expected), (name, quantity)
