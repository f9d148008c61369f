"""Seeded inputs for the benchmark workloads.

A workload seed becomes the workload's inputs: a preset order for
``cli-cold`` and a pool of scenario dicts in homsim's scenario schema for the
others.  homsim only ever receives these generated inputs.  The same seed
always gives the same inputs; nothing here imports homsim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed reserved for confirming a performance claim after the change is
# written; never use it while tuning the benchmark or a change.
HELD_OUT_SEED = 7919

BETA = 37.802  # fs^2/mm, the GVD the presets use for fused silica at 780 nm

# The nine built-in presets at the commit that defined this benchmark.  A
# preset that disappears shows up as failed operations, not as a smaller mix.
PRESETS = (
    "broadening-28m",
    "broadening-6m",
    "fig1c",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig3",
    "fig5-cond-i",
    "fig5-cond-ii",
)

SPECTRAL_POOL = 6
DIP_POOL = 4
CASCADE_POOL = 6
DIP_OFFSETS = 11  # delta-L values per visibility curve, 0 included
DIP_STEPS = 2001
CASCADE_POINTS = 96
CASCADE_STEPS = 11


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload's sizes and the layer that should dominate it.  Why each
    workload was chosen is recorded in BENCHMARK.json and README.md."""

    sizes: dict  # N grid points, T delays per scan, n photons; R is observed
    dominant: str  # layer that should take the largest share of an operation


WORKLOADS = {
    "cli-cold": WorkloadSpec(
        sizes={"N": 512, "T": 241, "n": 2},
        dominant="cli.import",
    ),
    "spectral-sweep": WorkloadSpec(
        sizes={"N": 1024, "T": 241, "n": 2},
        dominant="schmidt",
    ),
    "dip-scan": WorkloadSpec(
        sizes={"N": 512, "T": DIP_STEPS, "n": 2},
        dominant="hom.scan",
    ),
    "cascade-sim": WorkloadSpec(
        sizes={"N": CASCADE_POINTS, "T": CASCADE_STEPS, "n": 3},
        dominant="network.coincidence",
    ),
}


def _source(n_points: int) -> dict:
    return {
        "pump": {"center_wavelength_nm": 390.0, "pulse_duration_fwhm_fs": 140.0},
        "phase_matching": {
            "crystal_length_mm": 1.0,
            "model": "gaussian-approx",
            "gvm_signal_fs_per_mm": 340.0,
            "gvm_idler_fs_per_mm": 120.0,
        },
        "grid": {"n_points": n_points, "span_factor": 4.0, "reference_bandwidth_fwhm_nm": 10.0},
    }


def _filter(fwhm_nm: float) -> dict:
    return {"center_wavelength_nm": 780.0, "fwhm_nm": fwhm_nm, "shape": "gaussian"}


def cli_cold(rng: random.Random) -> list[str]:
    """One seeded permutation of the presets; operations cycle through it."""
    order = list(PRESETS)
    rng.shuffle(order)
    return order


def spectral_sweep(rng: random.Random) -> list[dict]:
    pool = []
    for i in range(SPECTRAL_POOL):
        # Every third scenario is matched (delta-L = 0), where V = purity.
        delta_l = 0.0 if i % 3 == 0 else round(rng.uniform(0.0, 2500.0), 1)
        pool.append(
            {
                "name": f"sweep{i}",
                "mode": "two-photon-scan",
                "source": _source(1024),
                "filters": {
                    "signal": _filter(round(rng.uniform(1.0, 12.0), 3)),
                    "idler": _filter(10.0),
                },
                "dispersion": {
                    "beta_fs2_per_mm": BETA,
                    "length_1_mm": 6000.0,
                    "length_2_mm": 6000.0 - delta_l,
                },
                "purity_mode": "mixed" if i % 2 == 0 else "postulated-pure",
                "truncation": {"kind": "mass", "value": 0.999},
                "output": {"emit_eigenvalues": True},
            }
        )
    return pool


def dip_scan(rng: random.Random) -> list[dict]:
    pool = []
    for i in range(DIP_POOL):
        offsets = [0.0] + sorted(
            round(rng.uniform(1.0, 2500.0), 1) for _ in range(DIP_OFFSETS - 1)
        )
        pool.append(
            {
                "name": f"curve{i}",
                "mode": "visibility-curve",
                "source": _source(512),
                "filters": {"signal": _filter(10.0), "idler": _filter(10.0)},
                "dispersion": {
                    "beta_fs2_per_mm": BETA,
                    "length_1_mm": 6000.0,
                    "length_2_mm": 6000.0,
                    "delta_lengths_mm": offsets,
                },
                "truncation": {"kind": "mass", "value": 0.999},
                # fig2c's window, sampled densely.
                "scan": {"tau_min_fs": -6000.0, "tau_max_fs": 6000.0, "n_steps": DIP_STEPS},
            }
        )
    return pool


def cascade_arms(satisfied: bool, rng: random.Random) -> tuple[float, float, float, float]:
    """beta*L (fs^2) on the s1, s2, s3 arms and the A->B connection.

    Satisfied cascades alternate between cancellation conditions (i) and
    (ii); violated ones unbalance the two arms into the first splitter.
    """
    x = BETA * round(rng.uniform(2000.0, 10000.0), 1)
    y = BETA * round(rng.uniform(500.0, 3000.0), 1)
    if not satisfied:
        return (x, x + BETA * round(rng.uniform(300.0, 3000.0), 1), x + y, y)
    if rng.random() < 0.5:
        return (x, x, x, 0.0)
    return (x, x, x + y, y)


def cascade_network(arms, delays, n_points: int, delay_scan: bool) -> dict:
    """Network section of a cascade scenario; zero-dispersion edges carry none."""

    def edge(start, end, beta_l):
        e = {"start": start, "end": end}
        if beta_l:
            e["beta_l_fs2"] = beta_l
        return e

    b1, b2, b3, b12 = arms
    net = {
        "sources": [{"id": f"s{k + 1}", "delay_fs": d} for k, d in enumerate(delays)],
        "beam_splitters": [{"id": "A"}, {"id": "B"}],
        "detectors": ["d1", "d2", "d3"],
        "edges": [
            edge("s1", "A.in0", b1),
            edge("s2", "A.in1", b2),
            edge("A.out0", "d1", 0.0),
            edge("A.out1", "B.in0", b12),
            edge("s3", "B.in1", b3),
            edge("B.out0", "d2", 0.0),
            edge("B.out1", "d3", 0.0),
        ],
        "grid": {"n_points": n_points},
    }
    if delay_scan:
        net["delay_scan"] = {
            "source": "s1",
            "min_fs": -150.0,
            "max_fs": 150.0,
            "n_steps": CASCADE_STEPS,
        }
    return net


def cascade_sim(rng: random.Random) -> list[dict]:
    pool = []
    for i in range(CASCADE_POOL):
        arms = cascade_arms(i % 2 == 0, rng)
        delays = [round(rng.uniform(-150.0, 150.0), 2) for _ in range(3)]
        pool.append(
            {
                "name": f"cascade{i}",
                "mode": "network-sim",
                "network": cascade_network(arms, delays, CASCADE_POINTS, delay_scan=True),
            }
        )
    return pool


_GENERATORS = {
    "cli-cold": cli_cold,
    "spectral-sweep": spectral_sweep,
    "dip-scan": dip_scan,
    "cascade-sim": cascade_sim,
}


def generate(workload: str, seed: int) -> list:
    """The workload's inputs for ``seed``; deterministic."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
