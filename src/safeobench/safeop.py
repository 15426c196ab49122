"""Turning a plain objective into a safe optimization problem.

A safe optimization problem wraps an objective with: a finite uniform
discretization of its box domain, a safety threshold set at a percentile
of the objective values on that grid, Gaussian evaluation noise, an
evaluation budget and a safety budget, and a rule for sampling initial
safe seeds. :class:`SafeOpProblem` is built from those parameters alone
and derives the grid, the threshold and the Lipschitz estimate itself.
The :class:`Oracle` is the only thing algorithms are allowed to query:
it returns noisy observations, flags unsafe ones (observed value below
the threshold) and terminates the run when its record budget or the
safety budget runs out. The record budget is the caller's to set: the
harness passes ``harness.max_run_length``, which decides whether seed
evaluations count against the problem's evaluation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .problems import Objective, Scenario, scenario_mask, validate_scenario

__all__ = [
    "Grid",
    "SafeOpProblem",
    "Observation",
    "Oracle",
    "TerminationReason",
    "TerminatedRunError",
    "InfeasibleScenarioError",
    "GP_VARIANTS",
    "LIPSCHITZ_VARIANTS",
    "discretize",
    "percentile_threshold",
    "estimate_lipschitz",
    "seed_eligibility",
    "sample_safe_seeds",
]


class TerminationReason(str, Enum):
    RUNNING = "running"
    BUDGET_EXHAUSTED = "budget_exhausted"
    SAFETY_EXHAUSTED = "safety_exhausted"


class TerminatedRunError(RuntimeError):
    """Raised when an evaluation is requested after the run terminated."""


class InfeasibleScenarioError(ValueError):
    """Raised when a seed-sampling region holds fewer points than requested."""


# The GP-based optimizers of ``safegp``, and those of them that certify
# safety through the Lipschitz estimate. Named here, in a module that does
# not import scipy, so that the harness and the CLI can list and check
# them without importing the GP stack.
GP_VARIANTS = ("safeopt", "safe-ucb", "msafeopt", "msafe-ucb")
LIPSCHITZ_VARIANTS = ("safeopt", "safe-ucb")


@dataclass
class Grid:
    """Uniform rectangular discretization of a box domain.

    ``points`` holds the full Cartesian product in row-major order (first
    axis slowest), ``values`` the objective cached at every node. Treated
    as immutable after construction.
    """

    axes: tuple[np.ndarray, ...]
    points: np.ndarray
    values: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @cached_property
    def min_spacing(self) -> float:
        """The smallest gap between adjacent nodes of any axis (inf when
        no axis has two nodes), computed once per grid."""
        gaps = [np.diff(a).min() for a in self.axes if a.size > 1]
        return float(min(gaps)) if gaps else math.inf

    def index_of(self, point: Sequence[float]) -> int:
        """Exact index lookup for a point that is a grid node.

        Where nodes coincide in floating point, the last of them. One
        binary search per axis: the axes are sorted and ``points`` is
        their row-major product.
        """
        key = tuple(float(c) for c in point)
        if len(key) == self.dimension:
            # the last axis node <= c; -1 when c is below the whole axis
            index = [
                int(np.searchsorted(axis, c, side="right")) - 1
                for axis, c in zip(self.axes, key)
            ]
            if all(i >= 0 and axis[i] == c for axis, c, i in zip(self.axes, key, index)):
                return int(np.ravel_multi_index(index, self.shape))
        raise KeyError(f"{key} is not a grid node")


def discretize(objective: Objective, nodes_per_axis: int) -> Grid:
    """Uniformly discretize an objective's box domain and cache its values.

    ``nodes_per_axis`` (>= 2) nodes on every axis, endpoints included.
    """
    n = int(nodes_per_axis)
    if n < 2:
        raise ValueError(f"nodes_per_axis must be >= 2, got {n}")
    axes = tuple(np.linspace(lo, hi, n) for lo, hi in objective.bounds)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    values = objective.eval_batch(points)
    return Grid(axes=axes, points=points, values=values)


def percentile_threshold(grid: Grid, k: float) -> float:
    """Nearest-rank percentile of the grid's cached objective values.

    Sorts values ascending and returns the element at 1-based index
    ceil(k/100 * N). ``k`` must lie in (0, 100].
    """
    if not 0.0 < k <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {k}")
    n = grid.values.size
    rank = math.ceil(k * n / 100.0)
    return float(np.sort(grid.values)[rank - 1])


def estimate_lipschitz(grid: Grid) -> float:
    """Lipschitz constant estimate: max gradient norm over the grid.

    Gradients use central finite differences of the cached values in the
    interior and one-sided differences at the boundaries; the returned
    constant is the maximum Euclidean norm over all nodes. Nodes that
    coincide in floating point, or lie so close that a difference
    quotient or its square overflows, give a non-finite estimate, which
    ``harness.make_plan`` rejects for the variants that use it.
    """
    shape = grid.shape
    values = grid.values.reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if len(shape) == 1:
            grads = [np.gradient(values, grid.axes[0])]
        else:
            grads = np.gradient(values, *grid.axes)
        sq = np.zeros(shape)
        for g in grads:
            sq += np.square(g)
    return float(np.sqrt(sq.max()))


@dataclass
class SafeOpProblem:
    """A safe optimization problem over a discretized box domain.

    ``grid``, ``threshold`` and ``lipschitz`` are derived at construction
    and cannot be passed in: the grid has ``nodes_per_axis`` nodes on
    every axis (:func:`discretize`), the threshold is its nearest-rank
    ``percentile`` (:func:`percentile_threshold`) and the Lipschitz
    estimate is :func:`estimate_lipschitz` of the grid.
    ``safety_budget=None`` means unlimited. Immutable by convention;
    share freely across runs.
    """

    objective: Objective
    nodes_per_axis: int
    percentile: float
    noise_std: float
    eval_budget: int
    safety_budget: Optional[int] = None
    seed_confidence: float = 1.96
    scenario: Scenario = Scenario.NONE
    grid: Grid = field(init=False)
    threshold: float = field(init=False)
    lipschitz: float = field(init=False)

    def __post_init__(self) -> None:
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.eval_budget < 1:
            raise ValueError("eval_budget must be >= 1")
        if self.safety_budget is not None and self.safety_budget < 0:
            raise ValueError("safety_budget must be >= 0 or None")
        self.scenario = Scenario(self.scenario)
        validate_scenario(self.scenario, self.objective)
        self.grid = discretize(self.objective, self.nodes_per_axis)
        self.threshold = percentile_threshold(self.grid, self.percentile)
        self.lipschitz = estimate_lipschitz(self.grid)


def seed_eligibility(
    problem: SafeOpProblem,
) -> tuple[np.ndarray, list[tuple[Scenario, np.ndarray]]]:
    """Grid points safe with margin, f(x) - noise_std * seed_confidence >= h.

    Returns their mask and the regions seeds are drawn from, each with its
    eligible points' mask: S3's top-left and bottom-right quadrants, in
    that order, otherwise the problem's scenario region.
    """
    grid = problem.grid
    safe = (
        grid.values - problem.noise_std * problem.seed_confidence
        >= problem.threshold
    )
    if problem.scenario is Scenario.S3:
        regions = [Scenario.S2_TOP_LEFT, Scenario.S2_BOTTOM_RIGHT]
    else:
        regions = [problem.scenario]
    return safe, [(r, safe & scenario_mask(r, grid.points)) for r in regions]


def sample_safe_seeds(
    problem: SafeOpProblem, n: int, rng: np.random.Generator
) -> list[tuple[float, ...]]:
    """Sample n distinct grid points that are safe with margin.

    The draw is split over :func:`seed_eligibility`'s regions: for
    scenario S3, ceil(n/2) from the top-left quadrant and floor(n/2) from
    the bottom-right.
    """
    if n < 1:
        raise ValueError("seed count must be >= 1")
    _, regions = seed_eligibility(problem)
    chosen: list[int] = []
    for j, (region, mask) in enumerate(regions):
        count = (n + len(regions) - 1 - j) // len(regions)
        if count == 0:
            continue
        eligible = np.flatnonzero(mask)
        if eligible.size < count:
            raise InfeasibleScenarioError(
                f"region {region.value!r} has only {eligible.size} eligible "
                f"seed points, {count} requested"
            )
        chosen.extend(rng.choice(eligible, size=count, replace=False).tolist())
    return [
        tuple(float(c) for c in problem.grid.points[i]) for i in chosen
    ]


@dataclass(slots=True)
class Observation:
    """One oracle query, the run record the harness persists: where, what
    was observed, whether it was safe, and the best true value so far."""

    point: tuple[float, ...]
    y: float
    f_true: float
    is_unsafe: bool
    step_index: int
    bsf_true: float


class Oracle:
    """Budget-tracking noisy evaluation oracle for a single run.

    The run terminates once the log holds ``budget`` records (by default
    the problem's ``eval_budget``; seed evaluations count like any
    other) or once the unsafe evaluations exceed the problem's
    ``safety_budget``. Draws observation noise from its own random
    stream, so two oracles constructed with identical streams reproduce
    identical observation sequences for identical queries. Once
    terminated, further evaluation requests raise
    :class:`TerminatedRunError`.
    """

    def __init__(
        self,
        problem: SafeOpProblem,
        rng: np.random.Generator,
        budget: Optional[int] = None,
    ):
        self.problem = problem
        self.rng = rng
        self.budget = problem.eval_budget if budget is None else budget
        self.log: list[Observation] = []
        self.unsafe_used = 0
        self._bsf_true = -math.inf
        self.termination = TerminationReason.RUNNING

    @property
    def running(self) -> bool:
        return self.termination is TerminationReason.RUNNING

    def evaluate(self, x: Sequence[float]) -> Observation:
        """Observe f(x) + noise, update budgets, maybe terminate the run."""
        if not self.running:
            raise TerminatedRunError(
                f"run already terminated ({self.termination.value})"
            )
        problem = self.problem
        objective = problem.objective
        point = tuple(map(float, x))
        # contains() rejects a wrong dimension and non-finite coordinates,
        # the checks Objective.eval would repeat.
        if not objective.contains(point):
            raise ValueError(f"point {point} outside the box domain")
        f = float(objective.fn(np.array([point]))[0])
        eps = float(self.rng.normal(0.0, problem.noise_std))
        y = f + eps
        unsafe = y < problem.threshold
        self._bsf_true = max(self._bsf_true, f)
        obs = Observation(
            point=point,
            y=y,
            f_true=f,
            is_unsafe=unsafe,
            step_index=len(self.log) + 1,
            bsf_true=self._bsf_true,
        )
        self.log.append(obs)
        if unsafe:
            self.unsafe_used += 1
        safety_budget = problem.safety_budget
        if unsafe and safety_budget is not None and self.unsafe_used > safety_budget:
            self.termination = TerminationReason.SAFETY_EXHAUSTED
        elif len(self.log) >= self.budget:
            self.termination = TerminationReason.BUDGET_EXHAUSTED
        return obs

    def prime(self, seeds: Sequence[Sequence[float]]) -> list[Observation]:
        """Evaluate the initial safe seeds, returning their observations.

        Seed evaluations appear in the log as the first steps and count
        against ``budget``. Stops early (without raising) if a budget
        terminates the run mid-priming.
        """
        if not seeds:
            raise ValueError("need at least one seed")
        out = []
        for s in seeds:
            if not self.running:
                break
            out.append(self.evaluate(s))
        return out
