"""Benchmark workloads: fixed lists of `isotropy` CLI invocations.

Each invocation fixes its experiment's shape (n, M, trials, truncation).
The workload seed picks only the master seed and the trial seed lists, so
every seed does the same amount of work.  A truncated invocation declares
the sampler mode its cut forces: a rejection cut keeps about half of the
cube, and a hit-and-run cut is thin enough that every seed reaches the
pilot's largest stage (a single 2,097,152-draw batch), so the peak memory
of that workload does not depend on which seeds were drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `isotropy <command> --config <name>.cfg --out <name>.csv`."""

    name: str
    command: str
    params: dict
    n_seeds: int
    truncated_mode: str | None = None  # "rejection" or "hit-and-run" for truncated runs

    def config(self, master_seed: int, seeds: list[int]) -> dict:
        return {"kind": self.command, **self.params, "workers": 1, "seed": master_seed, "seeds": seeds}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


POW4_GRID = [256, 1024, 4096, 16384, 65536]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "concentration",
            "the main inequality and its uses: bulk draws, one second-moment product and one spectral call (B=1)",
            (
                Invocation("sweep-cube8", "sweep", {"sampler": "cube", "n": 8, "m_grid": POW4_GRID}, 10),
                Invocation("sweep-simplex16", "sweep", {"sampler": "simplex", "n": 16, "m_grid": POW4_GRID}, 5),
                Invocation(
                    "whiten-cube8",
                    "whiten",
                    {"sampler": "cube", "n": 8, "m": 100_000, "eps": 0.1, "distortion": [2, 1, 1, 1, 1, 1, 1, 0.5]},
                    10,
                ),
                Invocation(
                    "truncated-rejection-cube16",
                    "truncated",
                    {"sampler": "cube", "n": 16, "r": 1.0, "eps": 0.2, "c0": 128},
                    5,
                    truncated_mode="rejection",
                ),
                Invocation(
                    "john-simplex4",
                    "john-sparsify",
                    {"fixture": "simplex", "n": 4, "eps": 0.25, "c": 2, "max_attempts": 16},
                    20,
                ),
                Invocation(
                    "john-cross16",
                    "john-sparsify",
                    {"fixture": "cross-polytope", "n": 16, "eps": 0.25, "c": 6, "max_attempts": 16},
                    10,
                ),
            ),
        ),
        Workload(
            "signed_sums",
            "Rademacher sums: the same spectral layer in batches of B=trials, plus signed-sum construction",
            (
                Invocation(
                    "ratio-cube8",
                    "bernoulli",
                    {"mode": "ratio", "sampler": "cube", "n": 8, "m_grid": [2**k for k in range(3, 13)], "trials": 400},
                    3,
                ),
                Invocation(
                    "ratio-simplex16",
                    "bernoulli",
                    {"mode": "ratio", "sampler": "simplex", "n": 16, "m_grid": [64, 256, 1024, 4096], "trials": 400},
                    2,
                ),
                Invocation(
                    "symmetrize-cube4",
                    "bernoulli",
                    {"mode": "symmetrize", "sampler": "cube", "n": 4, "m": 256, "trials": 200},
                    5,
                ),
                Invocation(
                    "symmetrize-ball16",
                    "bernoulli",
                    {"mode": "symmetrize", "sampler": "ball", "n": 16, "m": 1024, "trials": 400},
                    2,
                ),
            ),
        ),
        Workload(
            "hitrun_truncated",
            "thin truncations force hit-and-run: chord and membership oracles, almost no spectral work",
            (
                Invocation(
                    "hitrun-cube16",
                    "truncated",
                    {"sampler": "cube", "n": 16, "r": 0.5, "eps": 0.5, "c0": 16},
                    2,
                    truncated_mode="hit-and-run",
                ),
                Invocation(
                    "hitrun-simplex8",
                    "truncated",
                    {"sampler": "simplex", "n": 8, "r": 0.25, "eps": 0.5, "c0": 256},
                    1,
                    truncated_mode="hit-and-run",
                ),
            ),
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[tuple[Invocation, dict]]:
    """Each invocation with its config, drawn from the workload seed."""
    rng = random.Random(seed)
    out = []
    for inv in workload.invocations:
        master = rng.randrange(1, 2**31)
        seeds = rng.sample(range(1_000_000), inv.n_seeds)
        out.append((inv, inv.config(master, seeds)))
    return out


def config_text(cfg: dict) -> str:
    lines = []
    for key, val in cfg.items():
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"
