"""Benchmark objective functions and seed-location scenarios.

Objectives are noiseless, deterministic maximization targets on a box
domain. Evaluation noise, safety thresholds and budgets are layered on
top by :mod:`safeobench.safeop`. The objectives are the rows of one
name-keyed table. A row is one vectorized function, mapping an (n, d)
array to its n values, and the per-axis location of its maximum; a new
row adds an objective without touching any other code. Single points
are evaluated as one-row arrays, so one function serves every caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Scenario",
    "Objective",
    "make_objective",
    "objective_names",
    "scenario_mask",
    "validate_scenario",
]


class Scenario(str, Enum):
    """Quadrant constraint on where initial safe seeds may be sampled.

    The quadrant scenarios are defined relative to the four optima of the
    2-D Styblinski-Tang function and are invalid for anything else.
    """

    NONE = "none"
    S1 = "s1"
    S2_TOP_LEFT = "s2-topleft"
    S2_BOTTOM_RIGHT = "s2-bottomright"
    S3 = "s3"


@dataclass(frozen=True)
class Objective:
    """A deterministic box-constrained maximization problem.

    Parameters
    ----------
    name : str
        Table key, e.g. ``"sphere"``.
    dimension : int
        Number of decision variables, >= 1.
    bounds : tuple of (lo, hi)
        Closed per-axis interval; one pair per dimension.
    fn : callable
        Vectorized evaluation, maps an (n, ``dimension``) float array to
        its n values. It does no checking of its own: :meth:`eval` and
        :meth:`eval_batch` are the public checked paths, and
        :class:`~safeobench.safeop.Oracle` calls ``fn`` on a one-row
        array only after :meth:`contains` has accepted the point, which
        rules out a wrong length and non-finite coordinates.
    optimum_location, optimum_value : optional
        Global maximum, when known analytically.
    """

    name: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    fn: Callable[[np.ndarray], np.ndarray]
    optimum_location: Optional[tuple[float, ...]] = None
    optimum_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if len(self.bounds) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} bound pairs, got {len(self.bounds)}"
            )
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid axis interval [{lo}, {hi}]")

    def eval(self, x: Sequence[float]) -> float:
        """Evaluate the noiseless objective at a single point."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(
                f"{self.name}: expected point of dimension {self.dimension}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.name}: point has non-finite coordinates")
        return float(self.fn(arr[None, :])[0])

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the objective at every row of an (n, d) array."""
        arr = np.asarray(xs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValueError(
                f"{self.name}: expected (n, {self.dimension}) array, got {arr.shape}"
            )
        return np.asarray(self.fn(arr), dtype=float)

    def contains(self, x: Sequence[float]) -> bool:
        """True when every coordinate lies inside the closed box.

        False for a point of the wrong dimension and for NaN coordinates.
        """
        if len(x) != self.dimension:
            return False
        for c, (lo, hi) in zip(x, self.bounds):
            if not lo <= float(c) <= hi:
                return False
        return True


def _sphere(xs: np.ndarray) -> np.ndarray:
    """Sphere function, f(x) = -||x||^2, maximized at the origin with value 0."""
    return -np.square(xs).sum(axis=1)


def _styblinski_tang(xs: np.ndarray) -> np.ndarray:
    """Styblinski-Tang function (negated, so a maximization problem).

    f(x) = -(1/2) * sum_k (x_k^4 - 16 x_k^2 + 5 x_k). Separable, with
    one maximum per quadrant in [-5, 5]^2 and the global maximum near
    (-2.903534, ..., -2.903534).
    """
    return -0.5 * (xs**4 - 16.0 * xs**2 + 5.0 * xs).sum(axis=1)


# name -> (fn, per-axis location of the global maximum); the
# Styblinski-Tang location to the precision usually quoted for it.
_OBJECTIVES = {
    "sphere": (_sphere, 0.0),
    "styblinski-tang": (_styblinski_tang, -2.903534),
}


def objective_names() -> list[str]:
    return sorted(_OBJECTIVES)


def make_objective(name: str, dimension: int = 2, bounds=None) -> Objective:
    """Build a tabled objective by name, on [-5, 5] per axis by default.

    The optimum value is the one attained at the optimum location, so the
    two fields agree to full float precision (``+ 0.0`` turns the sphere's
    ``-0.0`` into ``0.0``).

    Raises
    ------
    ValueError
        If ``name`` is not in the table.
    """
    try:
        fn, argmax = _OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; registered: {objective_names()}"
        ) from None
    loc = (argmax,) * dimension
    return Objective(
        name=name,
        dimension=dimension,
        bounds=tuple(map(tuple, bounds)) if bounds else ((-5.0, 5.0),) * dimension,
        fn=fn,
        optimum_location=loc,
        optimum_value=float(fn(np.array([loc]))[0]) + 0.0,
    )


def scenario_mask(scenario: Scenario, points: np.ndarray) -> np.ndarray:
    """Vectorized scenario membership over an (n, d) point array.

    S1 is the strictly positive quadrant, the S2 tags the top-left and
    bottom-right quadrants, and S3 is the union of the two S2 quadrants
    (its 50/50 seed split is enforced by the seed sampler, not here).
    """
    points = np.asarray(points, dtype=float)
    scenario = Scenario(scenario)
    if scenario is Scenario.NONE:
        return np.ones(points.shape[0], dtype=bool)
    x1, x2 = points[:, 0], points[:, 1]
    if scenario is Scenario.S1:
        return (x1 > 0) & (x2 > 0)
    if scenario is Scenario.S2_TOP_LEFT:
        return (x1 < 0) & (x2 > 0)
    if scenario is Scenario.S2_BOTTOM_RIGHT:
        return (x1 > 0) & (x2 < 0)
    # S3, the last member: Scenario() above rejected anything else.
    return ((x1 < 0) & (x2 > 0)) | ((x1 > 0) & (x2 < 0))


def validate_scenario(scenario: Scenario, objective: Objective) -> None:
    """Reject scenario/objective pairings that make no sense.

    The quadrant scenarios refer to the optima layout of the 2-D
    Styblinski-Tang function; everything else only supports ``NONE``.
    """
    scenario = Scenario(scenario)
    if scenario is Scenario.NONE:
        return
    if objective.name != "styblinski-tang" or objective.dimension != 2:
        raise ValueError(
            f"scenario {scenario.value!r} is only valid for the 2-D "
            f"styblinski-tang objective, not {objective.name} "
            f"(d={objective.dimension})"
        )
