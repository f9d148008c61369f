"""homsim benchmark: one command, four workloads, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dip-scan --seed 1 --seconds 25 --trace 0

Each run starts the workload in fresh processes (``workload.py``): a few
set-up-only processes and one that then runs the closed loop.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Results, with the
software stack they were measured on, also go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import generate
import tracer as tracing

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, probes and checks included
TAIL_BEYOND = 10


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_workload(root: Path, argv: list[str], env: dict, limit_s: float):
    """Spawn a workload process; return it, its set-up time and a kill timer."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(limit_s, 1.0), proc.kill)
    timer.daemon = True
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.wait()
        timer.cancel()
        raise RuntimeError(f"workload did not get ready (exit code {proc.returncode})")
    return proc, setup_s, timer


def finish(proc, timer) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited with code {proc.returncode}")
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise RuntimeError(f"{len(ordered)} operations are too few for the tail")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(raw: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = raw["op_ms"]
    tail_ms, tail_pct = tail(ops)
    completed = raw["attempted"] - raw["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (completed / raw["elapsed_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": f"{len(ops)} ops",
        "op_tail_ms": f"p{tail_pct:.0f} of {len(ops)} ops, {TAIL_BEYOND} beyond",
        "ops_per_s": f"{completed} ops in {raw['elapsed_s']:.2f} s",
        "peak_rss_mb": "max RSS of the "
        + ("CLI child processes" if raw["workload"] == "cli-cold" else "workload process"),
    }
    lines = [
        f"  {name:<12} {value:>12.4f} {unit:<4} ({notes[name]})"
        for name, (value, unit) in metrics.items()
    ]
    ratio = raw["failed"] / raw["attempted"]
    lines.append(f"  {'fail_ratio':<12} {ratio:>12.4f} {'':<4} ({raw['failed']}/{raw['attempted']})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    t = raw["trace"]
    s = t["summary"]
    ops = s["ops"]
    layers = s["layers"]

    def ms(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names) * 1e3 / ops

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / ops

    def count(name, key):
        return layers.get(name, {}).get("counters", {}).get(key, 0) / ops

    schmidt = layers.get("schmidt.decompose", {}).get("counters", {})
    metrics = {
        "cli.import_ms": (t["imports_ms"]["homsim.cli"], "ms"),
        "cli.import_scipy_ms": (t["imports_ms"]["scipy.optimize"], "ms"),
        "scenario.validate_ms": (ms("scenario.validate"), "ms/op"),
        "scenario.calls": (calls("scenario.validate"), "1/op"),
        "source.build_jsa_ms": (ms("source.build_jsa"), "ms/op"),
        "source.apply_filters_ms": (ms("source.apply_filters"), "ms/op"),
        "source.jsa_cells": (count("source.build_jsa", "jsa_cells"), "cells/op"),
        "schmidt.decompose_ms": (ms("schmidt.decompose"), "ms/op"),
        "schmidt.calls": (calls("schmidt.decompose"), "1/op"),
        "schmidt.state_ms": (ms("schmidt.state"), "ms/op"),
        "schmidt.kept_ratio": (
            schmidt.get("kept", 0) / schmidt["computed"] if schmidt.get("computed") else 0.0,
            "ratio",
        ),
        "hom.scan_ms": (ms("hom.scan"), "ms/op"),
        "hom.scan_delays": (count("hom.scan", "delays"), "1/op"),
        "hom.scan_macs_computed": (count("hom.scan", "macs"), "MAC/op"),
        "hom.fit_ms": (ms("hom.fit"), "ms/op"),
        "hom.fit_calls": (calls("hom.fit"), "1/op"),
        "hom.curve_jsa_builds": (
            s["curve_jsa_builds"] / s["curve_runs"] if s["curve_runs"] else 0.0,
            "1/curve",
        ),
        "network.coincidence_ms": (ms("network.coincidence"), "ms/op"),
        "network.coincidence_calls": (calls("network.coincidence"), "1/op"),
        "network.quadrature_points_computed": (
            count("network.coincidence", "quadrature_points"),
            "points/op",
        ),
        "network.build_ms": (ms("network.build"), "ms/op"),
        "network.check_ms": (ms("network.check"), "ms/op"),
        "dispersion.broadening_ms": (ms("dispersion.broadening"), "ms/op"),
        "runner.self_ms": (ms("runner.run"), "ms/op"),
        "io.write_ms": (ms("io.write"), "ms/op"),
        "io.bytes_written": (count("io.write", "bytes"), "B/op"),
        "cli.failed": (t["failed_ops"] if raw["workload"] == "cli-cold" else 0, "count"),
    }
    for module in tracing.MODULES:
        failed = sum(v["failed"] for k, v in layers.items() if k.split(".")[0] == module)
        metrics[f"{module}.failed"] = (failed, "count")
    overhead = 100.0 * (t["untraced_ops_per_s"] - t["traced_ops_per_s"]) / t["untraced_ops_per_s"]
    unattributed = (t["traced_op_s"] - s["top_level_s"]) * 1e3 / ops
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.untraced"] = (len(t["untraced_names"]), "count")
    metrics["trace.unattributed_ms"] = (unattributed, "ms/op")

    # Which layer takes the largest share of an operation?
    shares = {name: ms(name) for name in layers if not name.startswith(("schmidt.", "hom.curve"))}
    shares["schmidt"] = ms("schmidt.decompose", "schmidt.state")
    if raw["workload"] == "cli-cold":  # every operation imports homsim.cli
        shares["cli.import"] = t["imports_ms"]["homsim.cli"]
    dominant = max(shares, key=shares.get)
    expected = generate.WORKLOADS[raw["workload"]].dominant
    op_ms = t["traced_op_s"] * 1e3 / ops
    lines = [f"  {k:<36} {v:>14.4f} {u}" for k, (v, u) in metrics.items()]
    lines.append(
        f"  dominant layer: {dominant} at {shares[dominant]:.1f} ms of a {op_ms:.1f} ms op "
        f"({100 * shares[dominant] / op_ms:.0f}%); expected {expected}: "
        + ("confirmed" if dominant == expected else "NOT confirmed")
    )
    lines.append(
        f"  tracing overhead: {t['untraced_ops_per_s']:.4f} ops/s untraced, "
        f"{t['traced_ops_per_s']:.4f} traced ({ops} traced ops)"
    )
    if t["untraced_names"]:
        lines.append(f"  untraced (name not found): {', '.join(t['untraced_names'])}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def source_identity(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of the
    package sources either way."""
    digest = hashlib.sha256()
    pkg = root / "src" / "homsim"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "homsim" / "__init__.py").is_file():
        return fail(f"no homsim sources under {root / 'src'}; run from a checkout root")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    state = root / ".perfbench"
    out = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    wl_args = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]

    proc = None
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s, timer = start_workload(
                root, wl_args + ["--setup-only"], env, deadline - time.perf_counter()
            )
            finish(proc, timer)
            setups.append(setup_s)
        proc, setup_s, timer = start_workload(
            root,
            wl_args + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
            deadline - time.perf_counter(),
        )
        setups.append(setup_s)
        raw = json.loads(finish(proc, timer).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(str(exc))
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(out, ignore_errors=True)

    raw["provenance"].update(source_identity(root))
    if args.trace:
        metrics, lines = per_layer(raw)
    else:
        metrics, lines = end_to_end(raw, setups)
    prov = raw["provenance"]
    sizes = " ".join(f"{k}={v}" for k, v in raw["sizes"].items())
    print(
        f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'}; "
        f"held-out seed {generate.HELD_OUT_SEED}): {sizes}; closed loop, 1 client"
    )
    print("\n".join(lines))
    print(
        f"  stack: python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
        f"{prov['openblas']}, BLAS threads {prov['blas_threads']}, nproc {prov['nproc']}, "
        f"commit {prov['git_commit']}, source {prov['source_sha256'][:12]}"
    )
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": generate.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": raw["sizes"],
        "provenance": prov,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "setup_samples_s": setups,
        "op_ms": raw["op_ms"],
        "metrics": metrics,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    summary = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
