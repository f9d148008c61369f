"""Layer spans recorded from outside homsim.

The tracer replaces the module attributes through which homsim's modules
call each layer (``homsim.runner.schmidt_decompose``, ``homsim.hom.scan``,
...) with timing wrappers.  Spans (layer, start, end, parent, operation) stay
in memory and are summarised at the end.  A name that no longer exists is
reported as untraced; the tracer never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time


def _jsa_counters(args, kwargs, result):
    return {"jsa_cells": int(result.amplitudes.size)}


def _schmidt_counters(args, kwargs, result):
    jsa = args[0] if args else kwargs["jsa"]
    return {"kept": int(result.rank), "computed": int(min(jsa.amplitudes.shape))}


def _scan_counters(args, kwargs, result):
    s1, s2 = args[0], args[1]
    t, n = len(result.taus), s1.grid.n_points
    return {"delays": t, "macs": t * n * len(s1.weights) * (1 + len(s2.weights))}


def _coincidence_counters(args, kwargs, result):
    modes = args[1] if len(args) > 1 else kwargs["pure_modes"]
    n, k = len(modes), modes[0].grid.n_points
    return {"quadrature_points": math.factorial(n) * k**n}


def _write_counters(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _run_counters(args, kwargs, result):
    return {"mode": result.scenario.mode}


# (module, attribute, layer, counters).  Each attribute is the name through
# which another homsim module (or the benchmark) calls the layer.
WRAPPED = (
    ("homsim.scenario", "scenario_from_dict", "scenario.validate", None),
    ("homsim.cli", "run_scenario", "runner.run", _run_counters),
    ("homsim.runner", "run", "runner.run", _run_counters),
    ("homsim.runner", "build_jsa", "source.build_jsa", _jsa_counters),
    ("homsim.hom", "build_jsa", "source.build_jsa", _jsa_counters),
    ("homsim.runner", "apply_filters", "source.apply_filters", None),
    ("homsim.hom", "apply_filters", "source.apply_filters", None),
    ("homsim.runner", "schmidt_decompose", "schmidt.decompose", _schmidt_counters),
    ("homsim.hom", "schmidt_decompose", "schmidt.decompose", _schmidt_counters),
    ("homsim.runner", "herald", "schmidt.state", None),
    ("homsim.hom", "herald", "schmidt.state", None),
    ("homsim.runner", "postulate_pure_state", "schmidt.state", None),
    ("homsim.hom", "postulate_pure_state", "schmidt.state", None),
    ("homsim.runner", "visibility_curve", "hom.curve", None),
    ("homsim.runner", "scan", "hom.scan", _scan_counters),
    ("homsim.hom", "scan", "hom.scan", _scan_counters),
    ("homsim.runner", "fit_dip", "hom.fit", None),
    ("homsim.hom", "fit_dip", "hom.fit", None),
    ("homsim.runner", "build_network", "network.build", None),
    ("homsim.runner", "check_cancellation", "network.check", None),
    ("homsim.runner", "three_photon_coincidence", "network.coincidence", _coincidence_counters),
    ("homsim.runner", "broadened_duration", "dispersion.broadening", None),
    ("homsim.io", "write_text", "io.write", _write_counters),
    # The formatting writers call write_text; nested io spans split self time.
    ("homsim.io", "write_json", "io.write", None),
    ("homsim.io", "write_scan_csv", "io.write", None),
    ("homsim.io", "write_curve_csv", "io.write", None),
    ("homsim.io", "write_eigenvalues_csv", "io.write", None),
    ("homsim.io", "write_jsi_csv", "io.write", None),
)

# Modules the wrapped layers belong to (a layer is "<module>.<name>"); each
# gets a failure count.  CLI failures are non-zero exits, counted per operation.
MODULES = ("scenario", "source", "schmidt", "hom", "network", "dispersion", "runner", "io")


class Tracer:
    """Wraps ``names`` on :meth:`install`; :meth:`uninstall` restores them."""

    def __init__(self, names=WRAPPED):
        self.names = names
        self.spans: list[dict] = []
        self.untraced: list[str] = []
        self.op = 0  # operation the next spans belong to
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module, attr, layer, counters in self.names:
            try:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.untraced.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(original, layer, counters))
            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def absorb(self, spans: list[dict], op: int, untraced=()) -> None:
        """Append spans recorded by another process as operation ``op``."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "id": s["id"] + base, "parent": parent, "op": op})
        self.untraced.extend(name for name in untraced if name not in self.untraced)

    def _wrap(self, fn, layer, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "layer": layer,
                "start": time.perf_counter(),
                "end": None,
                "failed": False,
                "counters": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                try:
                    span["counters"] = counters(args, kwargs, result)
                except Exception:  # a renamed field must not break the run
                    span["counters"] = {"counter_error": 1}
            return result

        return traced


def summarize(spans: list[dict], ops: int) -> dict:
    """Per-layer self time (s), calls, failures and counters, plus derived
    quantities; every figure is a total over ``ops`` operations and the
    set-up work traced with them (``op`` -1)."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    layers: dict[str, dict] = {}
    for s in spans:
        entry = layers.setdefault(
            s["layer"], {"self_s": 0.0, "calls": 0, "failed": 0, "counters": {}}
        )
        entry["self_s"] += s["end"] - s["start"] - children.get(s["id"], 0.0)
        entry["calls"] += 1
        entry["failed"] += int(s["failed"])
        for key, value in s["counters"].items():
            if isinstance(value, (int, float)):
                entry["counters"][key] = entry["counters"].get(key, 0) + value

    # build_jsa calls per visibility-curve run: walk each build up to its run.
    by_id = {s["id"]: s for s in spans}
    curve_runs = {
        s["id"] for s in spans
        if s["layer"] == "runner.run" and s["counters"].get("mode") == "visibility-curve"
    }
    curve_builds = 0
    for s in spans:
        if s["layer"] != "source.build_jsa":
            continue
        p = s["parent"]
        while p is not None and p not in curve_runs:
            p = by_id[p]["parent"]
        curve_builds += p is not None
    top_level_s = sum(
        s["end"] - s["start"] for s in spans if s["parent"] is None and s["op"] >= 0
    )
    return {
        "ops": ops,
        "layers": layers,
        "curve_runs": len(curve_runs),
        "curve_jsa_builds": curve_builds,
        "top_level_s": top_level_s,
    }
