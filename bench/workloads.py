"""Seeded scenario generator for the benchmark workloads.

Every workload is an imperfect model (epsilon = 0.1, g = 1) on the grid
[0, T], T = pi/(2g), with a sampling block at t = T/2. The workload seed
fixes the Haar-random initial coefficients c and the sampling seed; the
sizes below are fixed. The program only ever sees the generated JSON.

Each pass of every workload runs all three commands (run, check, sample),
so every end-to-end and per-layer metric exists on every workload; the
sizes decide which command and which layer dominates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

G = 1.0
EPSILON = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    points: int
    trials: int


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Per-point Python overhead and CSV emit dominate at dim 6.
        Workload("long-grid", n=2, points=20001, trials=10_000),
        # Dense O(D^3) work dominates at dim 420.
        Workload("wide-model", n=20, points=2001, trials=10_000),
        # The per-trial loop of sample_trials dominates.
        Workload("sampling", n=8, points=201, trials=1_000_000),
    )
}


def couplings(n: int) -> list[float]:
    """Branch couplings g_i of the imperfect model: g(1 - epsilon), then g."""
    return [G * (1.0 - EPSILON)] + [G] * (n - 1)


def scenario(workload: Workload, seed: int) -> dict:
    """The workload's scenario document for one benchmark seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    # Haar-random unit vector: i.i.d. complex Gaussians, normalized.
    z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(workload.n)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in z))
    duration = math.pi / (2.0 * G)
    return {
        "model": "imperfect",
        "n": workload.n,
        "g": G,
        "epsilon": EPSILON,
        "c": [[x.real / norm, x.imag / norm] for x in z],
        "grid": {"t0": 0.0, "t1": duration, "points": workload.points},
        "sampling": {
            "t": duration / 2.0,
            "trials": workload.trials,
            "seed": rng.randrange(2**32),
        },
    }


def write_scenario(workload: Workload, seed: int, path: str) -> dict:
    doc = scenario(workload, seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return doc
