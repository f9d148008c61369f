"""One benchmark workload in a process of its own.

Started by ``run.py``.  After set-up (interpreter start, ``import
homsim.cli``, generating and validating the inputs) it prints ``ready``.
Then one client runs operations in a closed loop: the next operation starts
when the previous one returns.  Every operation's outputs are checked outside
the timed region, and the raw results go to stdout as one JSON line.

With ``--trace 1`` the first half of the time runs untraced and the second
half with the layer tracer installed, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import generate
import tracer as tracing

HERE = Path(__file__).resolve().parent
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
CLI_TIMEOUT_S = 60


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class InProcess:
    """Operations are ``homsim.runner.run`` calls cycling over a scenario pool."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name, self.seed, self.out = name, seed, out
        self.dicts = generate.generate(name, seed)
        self.oracles, self.states, self.refs = {}, {}, {}

    def setup(self) -> None:
        import homsim.cli  # noqa: F401  every cold run pays this import
        import homsim.runner
        import homsim.scenario

        self.runner, self.scenario = homsim.runner, homsim.scenario
        self.validate()

    def validate(self) -> None:
        self.pool = [
            self.scenario.scenario_from_dict(d, origin=f"{self.name}:{d['name']}")
            for d in self.dicts
        ]

    def op(self, i: int, tracer) -> dict:
        k = i % len(self.pool)
        start = time.perf_counter()
        try:
            self.runner.run(self.pool[k], out_dir=self.out)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            return {"i": i, "ms": (time.perf_counter() - start) * 1e3, "error": _error(exc)}
        ms = (time.perf_counter() - start) * 1e3
        try:
            out = self.capture(self.dicts[k]["name"])
        except (OSError, ValueError, KeyError) as exc:
            return {"i": i, "ms": ms, "error": f"unreadable output: {_error(exc)}"}
        return {"i": i, "ms": ms, "error": None, "out": out}

    def sizes(self, records) -> dict:
        return dict(generate.WORKLOADS[self.name].sizes)


class SpectralSweep(InProcess):
    def capture(self, base: str) -> dict:
        return {
            "eigenvalues": [r[1] for r in checks.read_csv(self.out / f"{base}_eigenvalues.csv")],
            "metrics": checks.read_json(self.out / f"{base}_metrics.json"),
        }

    def check(self, rec: dict) -> str | None:
        k = rec["i"] % len(self.pool)
        if k not in self.oracles:
            self.oracles[k] = checks.eigen_oracle(self.pool[k])
        d = self.dicts[k]["dispersion"]
        return checks.check_spectral(
            rec["out"]["eigenvalues"],
            rec["out"]["metrics"],
            self.oracles[k],
            matched=d["length_1_mm"] == d["length_2_mm"],
        )

    def sizes(self, records) -> dict:
        ranks = [len(r["out"]["eigenvalues"]) for r in records if r.get("out")]
        return {**super().sizes(records), "R": [min(ranks), max(ranks)] if ranks else None}


class DipScan(InProcess):
    def capture(self, base: str) -> dict:
        return {"rows": checks.read_csv(self.out / f"{base}_curve.csv")}

    def check(self, rec: dict) -> str | None:
        from homsim import purity

        k = rec["i"] % len(self.pool)
        if k not in self.states:
            self.states[k] = checks.dip_states(self.pool[k])[0]
        mixed, sc, d = self.states[k], self.pool[k], self.dicts[k]
        rng = random.Random(f"dip-check:{self.seed}:{rec['i']}")
        offset = rng.choice(d["dispersion"]["delta_lengths_mm"])
        indices = sorted(rng.sample(range(sc.scan.n_steps), 3))
        samples = checks.dip_scan_samples(
            mixed, d["dispersion"]["beta_fs2_per_mm"] * offset, sc.scan, indices
        )
        return checks.check_dip(
            rec["out"]["rows"], d["dispersion"]["delta_lengths_mm"], purity(mixed), samples
        )

    def sizes(self, records) -> dict:
        ranks = sorted({len(m.weights) for m in self.states.values()})
        return {**super().sizes(records), "R": ranks or None}


class CascadeSim(InProcess):
    def capture(self, base: str) -> dict:
        return {
            "sim": checks.read_json(self.out / f"{base}_sim.json"),
            "rows": checks.read_csv(self.out / f"{base}_delay_scan.csv"),
        }

    def reference(self, network: dict, delays: list[float]) -> float:
        """P of the same cascade without dispersion, through the scenario interface."""
        ref = {
            "name": "reference",
            "mode": "network-sim",
            "network": generate.cascade_network(
                (0.0, 0.0, 0.0, 0.0), delays, network["grid"]["n_points"], delay_scan=False
            ),
        }
        out = self.out / "reference"
        self.runner.run(self.scenario.scenario_from_dict(ref), out_dir=out)
        return checks.read_json(out / "reference_sim.json")["coincidence_probability"]

    def check(self, rec: dict) -> str | None:
        k = rec["i"] % len(self.pool)
        network = self.dicts[k]["network"]
        cancels = checks.cascade_cancels(network)
        sim, rows = rec["out"]["sim"], rec["out"]["rows"]
        pairs = []
        if cancels:
            delays = [s["delay_fs"] for s in network["sources"]]
            j = random.Random(f"cascade-check:{self.seed}:{k}").randrange(len(rows))
            if k not in self.refs:
                self.refs[k] = (
                    self.reference(network, delays),
                    self.reference(network, [rows[j][0]] + delays[1:]),
                )
            pairs = [(sim["coincidence_probability"], self.refs[k][0]), (rows[j][1], self.refs[k][1])]
        return checks.check_cascade(sim, rows, cancels, pairs)

    def sizes(self, records) -> dict:
        return {**super().sizes(records), "R": [1]}


class CliCold:
    """Each operation is a fresh ``python -m homsim.cli run --preset <p>``."""

    def __init__(self, name: str, seed: int, out: Path):
        self.out = out
        self.order = generate.generate(name, seed)

    def setup(self) -> None:
        import homsim.cli  # noqa: F401  the import every operation pays

    def validate(self) -> None:
        """Scenario validation happens inside each CLI process."""

    def op(self, i: int, tracer) -> dict:
        preset = self.order[i % len(self.order)]
        out = self.out / f"op{i}"
        cmd = ["run", "--preset", preset, "--out", str(out)]
        spans_file = self.out / f"op{i}_spans.json"
        if tracer is None:
            argv = [sys.executable, "-m", "homsim.cli", *cmd]
        else:
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(spans_file), *cmd]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return {"i": i, "ms": (time.perf_counter() - start) * 1e3, "error": _error(exc)}
        ms = (time.perf_counter() - start) * 1e3
        rec = {"i": i, "ms": ms, "error": None, "preset": preset, "returncode": proc.returncode}
        if tracer is not None and spans_file.exists():
            shim = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.absorb(shim["spans"], op=i, untraced=shim["untraced"])
            spans_file.unlink()
        payload = None
        try:
            if proc.returncode == 0 and preset in ("fig2a", "fig2c"):
                payload = checks.read_json(out / f"{preset}_metrics.json")
            elif proc.returncode == 0 and preset.startswith("fig5"):
                payload = checks.read_json(out / f"{preset}_report.json")
        except (OSError, ValueError) as exc:
            rec["error"] = f"unreadable output: {_error(exc)}"
        rec["out"] = payload
        if i > 0:  # op 0 is kept for the manifest re-run
            shutil.rmtree(out, ignore_errors=True)
        return rec

    def check(self, rec: dict) -> str | None:
        error = checks.check_cli(rec["preset"], rec["returncode"], rec["out"])
        if error is not None or rec["i"] != 0:
            return error
        out = self.out / "op0"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = out / f"{rec['preset']}_manifest.yaml"
        proc = subprocess.run(
            [sys.executable, "-m", "homsim.cli", "run", str(manifest)],
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return f"manifest re-run: exit code {proc.returncode}"
        return checks.check_same_bytes(before, {p.name: p.read_bytes() for p in out.iterdir()})

    def sizes(self, records) -> dict:
        ranks = sorted(
            {r["out"]["schmidt_rank"] for r in records if r.get("preset") in ("fig2a", "fig2c") and r.get("out")}
        )
        return {**generate.WORKLOADS["cli-cold"].sizes, "R": ranks or None}


WORKLOADS = {
    "cli-cold": CliCold,
    "spectral-sweep": SpectralSweep,
    "dip-scan": DipScan,
    "cascade-sim": CascadeSim,
}


def closed_loop(wl, seconds: float, min_ops: int, first: int = 0, tracer=None):
    """Run operations until ``seconds`` have passed and ``min_ops`` are done."""
    records = []
    start = time.perf_counter()
    while True:
        i = first + len(records)
        if tracer is not None:
            tracer.op = i
        records.append(wl.op(i, tracer))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= min_ops:
            return records, elapsed


def check_all(wl, records: list[dict]) -> list[str]:
    """Check every operation that returned; a failed or unrunnable check
    marks its operation failed.  Returns one line per failed operation."""
    for rec in records:
        if rec["error"] is None:
            try:
                rec["error"] = wl.check(rec)
            except Exception as exc:  # a check that cannot run is a failed check
                rec["error"] = f"check raised {_error(exc)}"
    return [f"op {r['i']}: {r['error']}" for r in records if r["error"] is not None]


def import_times(probes: int = 3) -> dict:
    """Median cumulative import time (ms) of homsim.cli and scipy.optimize
    in fresh interpreters, from ``-X importtime``."""
    found = {"homsim.cli": [], "scipy.optimize": []}
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import homsim.cli"],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                seen[m.group(2)] = int(m.group(1)) / 1e3
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def _openblas() -> dict:
    """OpenBLAS version and thread count of the loaded library, if any."""
    info = {"openblas": "unknown", "blas_threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            return {"openblas": config().decode(), "blas_threads": threads()}
    return info


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True, help="directory for the operations' outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.workload, args.seed, args.out)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        untraced, untraced_s = closed_loop(wl, args.seconds / 2, 1)
        tr = tracing.Tracer()
        tr.install()
        tr.op = -1  # set-up work, outside any operation
        wl.validate()
        traced, traced_s = closed_loop(wl, args.seconds / 2, 1, len(untraced), tr)
        tr.uninstall()
        records, elapsed = untraced + traced, untraced_s + traced_s
        result["trace"] = {
            "untraced_ops_per_s": len(untraced) / untraced_s,
            "traced_ops_per_s": len(traced) / traced_s,
            "traced_op_s": sum(r["ms"] for r in traced) / 1e3,
            "summary": tracing.summarize(tr.spans, len(traced)),
            "untraced_names": tr.untraced,
            "imports_ms": import_times(),
        }
        results = args.out.parent / "results"
        results.mkdir(parents=True, exist_ok=True)
        spans_path = results / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tr.spans), encoding="utf-8")
    else:
        records, elapsed = closed_loop(wl, args.seconds, MIN_OPS)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    failures = check_all(wl, records)
    if args.trace:
        result["trace"]["failed_ops"] = sum(r["error"] is not None for r in traced)
    result.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "attempted": len(records),
            "failed": len(failures),
            "failures": failures[:10],
            "op_ms": [r["ms"] for r in records],
            "elapsed_s": elapsed,
            "peak_rss_mb": peak_rss_mb,
            "sizes": wl.sizes(records),
            "provenance": provenance(),
        }
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
