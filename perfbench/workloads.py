"""Workload definitions and small statistics shared by the runner and the
iteration process.

Kept free of numpy and safeobench imports so the runner can read it
without paying for them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 20220709

_STYBLINSKI_S1 = {"objective": "styblinski-tang", "percentile": 75.0, "scenario": "s1"}


@dataclass(frozen=True)
class Workload:
    """One benchmark matrix: problem, algorithms, run indices and jobs.

    ``problem`` and ``ea`` are config sections in the schema that
    ``harness.normalize_config`` accepts; the master seed is added per
    iteration.
    """

    name: str
    algorithms: tuple[str, ...]
    n_runs: int
    jobs: int
    problem: dict
    ea: dict = field(default_factory=dict)

    def config(self, master_seed: int) -> dict:
        return {
            "problem": {**self.problem, "master_seed": int(master_seed)},
            "ea": dict(self.ea),
        }


WORKLOADS = {
    w.name: w
    for w in (
        # The full-grid posterior with its whitened cross-kernel V and the
        # modified expanders dominate; the Lipschitz path and the EAs are
        # bypassed. msafeopt here is the paper's most expensive cell.
        Workload(
            name="lipfree-sphere",
            algorithms=("msafeopt", "msafe-ucb"),
            n_runs=1,
            jobs=1,
            problem={"objective": "sphere", "percentile": 95.0, "noise_std": 0.1},
        ),
        # Lipschitz expanders and the KD-tree safe-set update dominate; V is
        # never built and the GP is queried on subsets only.
        Workload(
            name="lipschitz-styblinski",
            algorithms=("safeopt", "safe-ucb"),
            n_runs=2,
            jobs=1,
            problem=dict(_STYBLINSKI_S1),
        ),
        # mutation_std=1.0 makes VA screening reject about a third of the
        # candidates (at 0.1 it rejects almost none); budget 500 grows the
        # history every nearest-neighbour screen scans; short runs at two
        # jobs expose pool overhead and CSV write/read. No GP work.
        Workload(
            name="ea-va-long",
            algorithms=("va-ea", "unsafe-ea"),
            n_runs=20,
            jobs=2,
            problem={**_STYBLINSKI_S1, "eval_budget": 500},
            ea={"mutation_std": 1.0},
        ),
    )
}


def iteration_seed(seed: int, iteration: int) -> int:
    """Master seed of one timed iteration.

    Iteration 0 uses the given seed itself; later iterations, and the
    untimed warm-up as iteration -1, get distinct seeds derived from it,
    so one run of the benchmark covers more inputs than a single matrix
    holds.
    """
    if iteration == 0:
        return int(seed)
    digest = hashlib.sha256(f"{int(seed)}/{int(iteration)}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def percentile(values, p: float) -> float:
    """Percentile with linear interpolation between closest ranks.

    The value at position (n - 1) * p / 100 of the sorted values; p = 50
    gives the usual median.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples above it.

    Never below 50: with 20 samples or fewer the tail is the median, and
    fewer than ten samples may lie above it.
    """
    if n <= 11:
        return 50
    return max(50, (100 * (n - 11)) // (n - 1))


def samples_above(n: int, p: float) -> int:
    """How many of ``n`` sorted samples lie above the ``p``-th percentile."""
    return n - 1 - math.floor((n - 1) * p / 100.0)
