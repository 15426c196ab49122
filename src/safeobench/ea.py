"""Generational EA with (mu+lambda)-ES survival, with and without
violation avoidance.

The violation-avoidance (VA) variant screens every candidate offspring
against the search history: a candidate whose nearest previously
evaluated point was unsafe is discarded and regenerated from scratch
(fresh tournaments, crossover, mutation). Rejected candidates cost no
budget. Both variants handle noise by averaging: every solution's
fitness is the mean of all noisy observations recorded at exactly that
point, so duplicates share one fitness value.

Bookkeeping costs O(1) per evaluation: :class:`EvalHistory` caches each
point's mean when an observation arrives and keeps the distinct points
in a growing float64 buffer for the VA nearest-neighbour scan, and the
optimizer builds its box bounds array once. The variation operators and
the VA scan call numpy's ufuncs directly and write into arrays they own,
which keeps the fixed cost of each evaluation low. They stay numpy
arithmetic: Python's ``min``/``max`` would differ from numpy's ``clip``
in the sign of a zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .safeop import Observation, Oracle, SafeOpProblem

__all__ = [
    "EaParams",
    "Individual",
    "EvalHistory",
    "EaOptimizer",
    "binary_tournament",
    "uniform_crossover",
    "gaussian_mutation",
    "va_filter",
    "mu_plus_lambda_select",
]


@dataclass(frozen=True)
class EaParams:
    """Variation and selection settings.

    ``mutation_prob=None`` resolves to 1/d at construction time. The
    retry cap bounds VA regeneration per offspring slot; when exhausted
    the last candidate is force-accepted and flagged.
    """

    mu: int
    lam: int
    crossover_prob: float = 0.8
    mutation_prob: Optional[float] = None
    mutation_mean: float = 0.0
    mutation_std: float = 0.1
    retry_cap: int = 100


@dataclass
class Individual:
    point: tuple[float, ...]
    fitness: float
    birth: int  # creation order; lower = older, used for tie-breaking


class EvalHistory:
    """All evaluated points with their noisy values and safety flags.

    Keyed by exact coordinate tuple. Supports the averaging scheme and
    nearest-neighbor safety lookups for VA, each at O(1) bookkeeping per
    evaluation: ``record`` refreshes the point's cached mean together with
    its latest safety flag, so ``mean_at`` is a dict lookup, and appends a
    new point to a float64 buffer, doubled when full, that ``nearest``
    scans in place. The mean is ``np.mean`` over the point's values once
    it has several; a first value ``y`` is stored as ``y + 0.0``, which is
    what ``np.mean([y])`` returns (its sum starts from 0.0, so -0.0 comes
    out as 0.0).
    """

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        self._order: list[tuple[float, ...]] = []
        # point -> (its values, their mean, safety flag of its latest record)
        self._data: dict[tuple[float, ...], tuple[list[float], float, bool]] = {}
        # Rows [0, len(self)) hold the distinct points in insertion order.
        self._points: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, point) -> bool:
        return tuple(point) in self._data

    def record(self, obs: Observation) -> None:
        point, y = obs.point, obs.y
        entry = self._data.get(point)
        if entry is None:
            self._append_point(point)
            self._data[point] = ([y], float(y) + 0.0, obs.is_unsafe)
        else:
            ys = entry[0]
            ys.append(y)
            self._data[point] = (ys, float(np.mean(ys)), obs.is_unsafe)

    def _append_point(self, point: tuple[float, ...]) -> None:
        n = len(self._order)
        if self._points is None:
            self._points = np.empty((self._INITIAL_CAPACITY, len(point)))
        elif n == self._points.shape[0]:
            grown = np.empty((2 * n, self._points.shape[1]))
            grown[:n] = self._points
            self._points = grown
        self._points[n] = point
        self._order.append(point)

    def mean_at(self, point) -> float:
        try:
            return self._data[tuple(point)][1]
        except KeyError:
            raise KeyError(f"{tuple(point)} was never evaluated") from None

    def last_unsafe_at(self, point) -> bool:
        """Safety flag of the most recent observation at a point."""
        return self._data[tuple(point)][2]

    def nearest(self, candidate) -> tuple[float, ...]:
        """History point closest to the candidate (Euclidean).

        Ties go to the earliest-inserted point.
        """
        if not self._order:
            raise RuntimeError("history is empty")
        dist = self._points[: len(self._order)] - np.asarray(candidate, dtype=float)
        np.square(dist, out=dist)
        dist = dist.sum(axis=1)
        # sqrt before argmin: distinct squared distances can round to equal
        # distances, and the tie then goes to the earlier point.
        np.sqrt(dist, out=dist)
        return self._order[dist.argmin()]


def binary_tournament(pop: Sequence[Individual], rng: np.random.Generator) -> Individual:
    """Draw two individuals with replacement, keep the fitter (tie: first)."""
    if not pop:
        raise ValueError("population is empty")
    i = int(rng.integers(len(pop)))
    j = int(rng.integers(len(pop)))
    return pop[j] if pop[j].fitness > pop[i].fitness else pop[i]


def uniform_crossover(
    p1: np.ndarray, p2: np.ndarray, crossover_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform crossover: per-coordinate swap with probability 1/2.

    With probability 1 - crossover_prob the parents pass through
    unchanged.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal dimension")
    if rng.random() < crossover_prob:
        swap = rng.random(p1.size) < 0.5
        return np.where(swap, p2, p1), np.where(swap, p1, p2)
    return p1.copy(), p2.copy()


def gaussian_mutation(
    x: np.ndarray,
    mutation_prob: float,
    mutation_std: float,
    bounds: Sequence[tuple[float, float]] | np.ndarray,
    rng: np.random.Generator,
    mutation_mean: float = 0.0,
) -> np.ndarray:
    """Per-coordinate Gaussian perturbation, clamped to the box.

    ``bounds`` holds one (lo, hi) pair per coordinate, as a sequence of
    pairs or as a (d, 2) float array (which is used without a copy).
    """
    x = np.asarray(x, dtype=float)
    mask = rng.random(x.size) < mutation_prob
    noise = rng.normal(mutation_mean, mutation_std, size=x.size)
    out = x.copy()
    np.add(x, noise, out=out, where=mask)
    bounds = np.asarray(bounds, dtype=float)
    # At a zero bound numpy's clip returns the bound's sign of zero, where
    # Python's min/max would return x's.
    return out.clip(bounds[:, 0], bounds[:, 1], out=out)


def va_filter(candidate, history: EvalHistory) -> bool:
    """Accept a candidate iff its nearest evaluated neighbor was safe.

    "Was safe" refers to the most recent observation at the neighbor.
    """
    return not history.last_unsafe_at(history.nearest(candidate))


def mu_plus_lambda_select(
    parents: Sequence[Individual], offspring: Sequence[Individual], mu: int
) -> list[Individual]:
    """Keep the best mu of parents + offspring (ties: older first)."""
    pool = sorted(
        list(parents) + list(offspring), key=lambda ind: (-ind.fitness, ind.birth)
    )
    return pool[:mu]


class EaOptimizer:
    """Generational EA driven step-by-step through the evaluation oracle.

    One ``step`` call runs one generation: pairs of parents are chosen by
    binary tournament, recombined and mutated into two offspring at a
    time until lam candidates have been evaluated (or the oracle
    terminates mid-generation), then (mu+lambda) truncation survival is
    applied on refreshed averaged fitness values.
    """

    def __init__(
        self,
        problem: SafeOpProblem,
        seed_observations: Sequence[Observation],
        rng: np.random.Generator,
        params: Optional[EaParams] = None,
        va_enabled: bool = False,
    ):
        if not seed_observations:
            raise ValueError("need at least one seed observation")
        self.bounds = np.asarray(problem.objective.bounds, dtype=float)
        self.rng = rng
        self.va_enabled = va_enabled
        n_seeds = len(seed_observations)
        if params is None:
            params = EaParams(mu=n_seeds, lam=n_seeds)
        if params.mutation_prob is None:
            params = replace(params, mutation_prob=1.0 / problem.objective.dimension)
        self.params = params
        self.history = EvalHistory()
        for obs in seed_observations:
            self.history.record(obs)
        self._births = 0
        self.population = [
            Individual(
                point=obs.point,
                fitness=self.history.mean_at(obs.point),
                birth=self._next_birth(),
            )
            for obs in seed_observations
        ]
        self.generation = 0
        self.diagnostics: list[dict] = []

    def _next_birth(self) -> int:
        b = self._births
        self._births += 1
        return b

    def _candidate_pair(self) -> tuple[np.ndarray, np.ndarray]:
        a = binary_tournament(self.population, self.rng)
        b = binary_tournament(self.population, self.rng)
        c1, c2 = uniform_crossover(
            np.asarray(a.point), np.asarray(b.point), self.params.crossover_prob, self.rng
        )
        p = self.params
        c1 = gaussian_mutation(
            c1, p.mutation_prob, p.mutation_std, self.bounds, self.rng, p.mutation_mean
        )
        c2 = gaussian_mutation(
            c2, p.mutation_prob, p.mutation_std, self.bounds, self.rng, p.mutation_mean
        )
        return c1, c2

    def _screen(self, candidate: np.ndarray) -> tuple[np.ndarray, bool]:
        """Apply VA, regenerating rejected candidates up to the retry cap.

        Returns the accepted candidate and whether it was force-accepted.
        """
        if not self.va_enabled or va_filter(candidate, self.history):
            return candidate, False
        for _ in range(self.params.retry_cap):
            candidate = self._candidate_pair()[0]
            if va_filter(candidate, self.history):
                return candidate, False
        return candidate, True

    def step(self, oracle: Oracle) -> list[Observation]:
        """Run one generation; returns the offspring observations."""
        lam = self.params.lam
        offspring: list[Individual] = []
        observations: list[Observation] = []
        forced_slots: list[int] = []
        while len(offspring) < lam and oracle.running:
            for cand in self._candidate_pair():
                if len(offspring) >= lam or not oracle.running:
                    break
                cand, forced = self._screen(cand)
                obs = oracle.evaluate(cand)
                self.history.record(obs)
                if forced:
                    forced_slots.append(len(offspring))
                offspring.append(
                    Individual(
                        point=obs.point,
                        fitness=self.history.mean_at(obs.point),
                        birth=self._next_birth(),
                    )
                )
                observations.append(obs)
        # Re-evaluated duplicates shift the shared average, so refresh
        # every fitness before survival selection.
        for ind in self.population + offspring:
            ind.fitness = self.history.mean_at(ind.point)
        self.population = mu_plus_lambda_select(
            self.population, offspring, self.params.mu
        )
        self.generation += 1
        self.diagnostics.append(
            {
                "generation": self.generation,
                "n_offspring": len(offspring),
                "forced_accepts": forced_slots,
                "best_fitness": max(i.fitness for i in self.population),
            }
        )
        return observations
