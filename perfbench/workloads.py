"""Workload definitions: a seed becomes the flag lists of one pass.

A pass is a fixed sequence of `qrelay` commands. Every input that varies is
drawn from ``random.Random`` seeded by the benchmark's ``--seed``, so the same
seed always gives the same sequence of passes. The program sees only the
generated flags.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# One sentence per workload on why it was chosen; BENCHMARK.json carries the
# same text in its "why" fields.
WHY = {
    "sweep": "Large exact-chain, placement, cutoff-bisection and report "
             "sweeps with no fockspace: the closed-form chain shows here "
             "and the device does not.",
    "simulate": "The device (fockspace, qnd_measure) and the Monte Carlo "
                "sampler, skipping the exact sweeps: a sampler or "
                "device change shows here, and its chunk arrays set peak "
                "memory.",
}


@dataclass(frozen=True)
class Launch:
    """One `qrelay` command of a pass.

    ``argv`` holds the arguments after ``qrelay``; ``{out}`` stands for the
    output file the runner picks. ``check`` names the checker in check.py
    that validates the launch, with ``expect`` the values it was given.
    """

    cmd: str
    argv: tuple[str, ...]
    check: str
    expect: dict
    output: Optional[str] = None   # file suffix when the command writes one

    def args(self, out_path: Optional[str]) -> list[str]:
        return [a.replace("{out}", out_path or "") for a in self.argv]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _qubit(rng: random.Random) -> str:
    """A random normalized qubit as the `--input` text `alpha,beta`."""
    theta = rng.uniform(0.05, math.pi / 2 - 0.05)
    b = math.sin(theta) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return f"{math.cos(theta):.9f},{b.real:.9f}{b.imag:+.9f}j"


def sweep_pass(rng: random.Random) -> list[Launch]:
    a = f"{rng.uniform(55.0, 65.0):.6f}"
    snr_ns = [0, 1, 2, 4, 8, 16, 32, 64]
    tp_ns = list(range(9))
    return [
        Launch("snr", ("snr", "--n-relays", ",".join(map(str, snr_ns)),
                       "--steps", "1000", "--alpha-x-max", a,
                       "--format", "json", "--output", "{out}"),
               "snr_json", {"n_relays": snr_ns, "grid": [0.0, float(a), 1000]},
               output=".json"),
        Launch("throughput", ("throughput", "--n-relays",
                              ",".join(map(str, tp_ns)), "--steps", "1000",
                              "--alpha-x-max", a, "--output", "{out}"),
               "throughput_csv", {"n_relays": tp_ns,
                                  "grid": [0.0, float(a), 1000]},
               output=".csv"),
        Launch("optimize", ("optimize", "--distance-km", "2000",
                            "--n-relays", "64", "--output", "{out}"),
               "optimize_json", {"distance_km": 2000.0, "n_relays": 64},
               output=".json"),
    ]


def simulate_pass(rng: random.Random) -> list[Launch]:
    s = _seed(rng)
    qubit = _qubit(rng)
    return [
        Launch("verify-circuit", ("verify-circuit", "--trials", "2000",
                                  "--seed", str(s), f"--input={qubit}",
                                  "--output", "{out}"),
               "verify_json", {"trials": 2000, "input": qubit},
               output=".json"),
        Launch("sample", ("sample", "--alpha-x", "5", "--n-relays", "4",
                          "--trials", "20000000", "--seed", str(s),
                          "--output", "{out}"),
               "sample_json", {"alpha_x": 5.0, "n_relays": 4,
                               "trials": 20000000, "seed": s},
               output=".json"),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Launch]]] = {
    "sweep": sweep_pass,
    "simulate": simulate_pass,
}

COMMANDS = ("verify-circuit", "snr", "throughput", "optimize", "sample")
