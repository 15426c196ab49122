"""Benchmark objective functions and seed-location scenarios.

Objectives are noiseless, deterministic maximization targets on a box
domain. Evaluation noise, safety thresholds and budgets are layered on
top by :mod:`safeobench.safeop`. New objectives can be added through the
name-keyed registry without touching any algorithm code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Scenario",
    "Objective",
    "register_objective",
    "make_objective",
    "objective_names",
    "sphere_eval",
    "styblinski_tang_eval",
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
        Registry key, e.g. ``"sphere"``.
    dimension : int
        Number of decision variables, >= 1.
    bounds : tuple of (lo, hi)
        Closed per-axis interval; one pair per dimension.
    fn : callable
        Scalar evaluation, maps a 1-D float array of length ``dimension``
        to a float. It does no checking of its own: :meth:`eval` is the
        public checked path, and :class:`~safeobench.safeop.Oracle` calls
        ``fn`` directly only after :meth:`contains` has accepted the
        point, which rules out a wrong length and non-finite coordinates.
    batch_fn : callable
        Vectorized evaluation over an (n, d) array, returns shape (n,).
        Must agree with ``fn`` elementwise.
    optimum_location, optimum_value : optional
        Global maximum, when known analytically.
    """

    name: str
    dimension: int
    bounds: tuple[tuple[float, float], ...]
    fn: Callable[[np.ndarray], float]
    batch_fn: Callable[[np.ndarray], np.ndarray]
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
        return float(self.fn(arr))

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate the objective at every row of an (n, d) array."""
        arr = np.asarray(xs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValueError(
                f"{self.name}: expected (n, {self.dimension}) array, got {arr.shape}"
            )
        return np.asarray(self.batch_fn(arr), dtype=float)

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


def sphere_eval(x: np.ndarray) -> float:
    """Sphere function, maximized at the origin with value 0.

    f(x) = -||x||^2 with the Euclidean norm.
    """
    return -float(np.square(np.asarray(x, dtype=float)).sum())


def _sphere_batch(xs: np.ndarray) -> np.ndarray:
    return -np.sum(np.square(xs), axis=1)


def styblinski_tang_eval(x: np.ndarray) -> float:
    """Styblinski-Tang function (negated, so a maximization problem).

    f(x) = -(1/2) * sum_k (x_k^4 - 16 x_k^2 + 5 x_k). Separable, with
    one maximum per quadrant in [-5, 5]^2 and the global maximum near
    (-2.903534, ..., -2.903534).
    """
    x = np.asarray(x, dtype=float)
    # numpy, not Python floats: numpy's float64 power can differ from
    # Python's ** in the last bit, which would change recorded outputs.
    return -0.5 * float((x**4 - 16.0 * x**2 + 5.0 * x).sum())


def _styblinski_batch(xs: np.ndarray) -> np.ndarray:
    return -0.5 * np.sum(xs**4 - 16.0 * xs**2 + 5.0 * xs, axis=1)


_REGISTRY: dict[str, Callable[..., Objective]] = {}


def register_objective(name: str):
    """Decorator registering an objective factory under ``name``."""

    def wrap(factory: Callable[..., Objective]) -> Callable[..., Objective]:
        _REGISTRY[name] = factory
        return factory

    return wrap


def objective_names() -> list[str]:
    return sorted(_REGISTRY)


def _default_bounds(dimension: int) -> tuple[tuple[float, float], ...]:
    return tuple((-5.0, 5.0) for _ in range(dimension))


@register_objective("sphere")
def _make_sphere(dimension: int = 2, bounds=None) -> Objective:
    bounds = tuple(map(tuple, bounds)) if bounds else _default_bounds(dimension)
    loc = tuple(0.0 for _ in range(dimension))
    return Objective(
        name="sphere",
        dimension=dimension,
        bounds=bounds,
        fn=sphere_eval,
        batch_fn=_sphere_batch,
        optimum_location=loc,
        optimum_value=0.0,
    )


# Per-axis location of the global maximum, to the precision usually quoted
# for this function.
_STYBLINSKI_ARGMAX = -2.903534


@register_objective("styblinski-tang")
def _make_styblinski(dimension: int = 2, bounds=None) -> Objective:
    bounds = tuple(map(tuple, bounds)) if bounds else _default_bounds(dimension)
    loc = tuple(_STYBLINSKI_ARGMAX for _ in range(dimension))
    # Store the value actually attained at the stored location so the two
    # fields stay mutually consistent to full float precision.
    value = styblinski_tang_eval(np.asarray(loc))
    return Objective(
        name="styblinski-tang",
        dimension=dimension,
        bounds=bounds,
        fn=styblinski_tang_eval,
        batch_fn=_styblinski_batch,
        optimum_location=loc,
        optimum_value=value,
    )


def make_objective(name: str, dimension: int = 2, bounds=None) -> Objective:
    """Build a registered objective by name.

    Raises
    ------
    ValueError
        If ``name`` is not registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; registered: {objective_names()}"
        ) from None
    return factory(dimension=dimension, bounds=bounds)


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
    if scenario is Scenario.S3:
        return ((x1 < 0) & (x2 > 0)) | ((x1 > 0) & (x2 < 0))
    raise ValueError(f"unknown scenario {scenario!r}")


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
