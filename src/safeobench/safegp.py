"""GP-based safe optimizers over a discretized domain.

Four step-wise state machines share one skeleton: update the GP with
the newest observation, recompute confidence bounds, grow the safe set,
pick the next point, evaluate it through the oracle.

The GP update is incremental: each step appends one row to the previous
Cholesky factor and one entry to the model's whitened targets z (see
``gp.gp_fit``), then the matching row to the whitened cross-kernel
V = L^-1 k(X, tracked points), and updates the posterior mean and
variance at the tracked points in O(n * tracked) instead of re-solving.
The Lipschitz-free variants track the whole grid; the Lipschitz ones,
which read bounds only at safe points, track each point from when it
first turns safe. z is the model's only weight vector. A full
factorization, and a full solve at the tracked points, happen only on
the first step and when the extension breaks down.

* ``safeopt`` / ``safe-ucb`` certify safety with a Lipschitz bound
  around previously-safe points: x is safe iff some safe x_s satisfies
  l(x_s) - L * d(x_s, x) >= h. They differ only in selection. The
  safe-set update tests each certifying x_s against the grid nodes in
  the bounding box of its ball, found by binary search on the grid's
  sorted axes. The expanders need each safe point's distance to the
  nearest outside point, which depends only on the safe set, so the
  optimizer caches it until the safe set changes.
* ``msafeopt`` / ``msafe-ucb`` drop the Lipschitz constant and certify
  directly from the GP lower bound, l(x) >= h. Their safe set is unioned
  with the previous one so the initial seeds can never drop out when a
  pessimistic refit dips the bounds. A boundary point c is an expander
  when a fictitious noiseless observation u(c) at c would lift some
  outside point u to l(u) >= h. In closed form that depends on u only
  through one threshold per grid point, computed once per step, so each
  (c, u) pair costs one entry of a matmul, k(c, u) - v_c . v_u, and one
  comparison. The outside points with the highest lower bounds are
  tested first; candidates still undecided then sweep the grid in
  contiguous column blocks of V.

Selection: the "opt" variants pick the widest confidence interval among
maximizers (safe points whose upper bound reaches the best safe lower
bound) and expanders (safe points whose optimistic evaluation could
certify an outside point); the "ucb" variants simply pick the safe point
with the highest upper bound. All ties break to the lowest grid index.

Internally all bound computations run on standardized targets; only grid
points cross the module boundary.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .gp import (
    ConfidenceBounds,
    GpModel,
    KernelSpec,
    TargetTransform,
    gp_fit,
    # Not called here: perfbench/tracer.py wraps safegp.gp_posterior to
    # count posterior queries on the run path, so the name must resolve.
    gp_posterior,  # noqa: F401
    kernel_matrix,
    posterior_detail,
)
from .safeop import GP_VARIANTS as VARIANTS
from .safeop import (
    LIPSCHITZ_VARIANTS,
    Grid,
    Observation,
    Oracle,
    SafeOpProblem,
    StalledAlgorithmError,
)

__all__ = [
    "VARIANTS",
    "StalledAlgorithmError",
    "SafeGpOptimizer",
    "update_safe_set_lipschitz",
    "update_safe_set_gp",
    "compute_maximizers",
    "compute_expanders",
    "select_next",
    "boundary_candidates",
]

_WIDTH_VARIANTS = ("safeopt", "msafeopt")  # the others select by UCB

# Posterior variance below this is treated as an already-known point when
# screening expander candidates.
_VAR_FLOOR = 1e-12
# Expander scan (``_expanders_modified``): the outside points tested first,
# then the width of the grid-order column blocks tested after them.
_FIRST_BLOCK = 128
_COLUMN_BLOCK = 2048
_SQRT2 = math.sqrt(2.0)


def update_safe_set_lipschitz(
    prev_mask: np.ndarray,
    bounds: ConfidenceBounds,
    lipschitz: float,
    grid: Grid,
    threshold: float,
) -> np.ndarray:
    """Safe-set update through the Lipschitz bound.

    Marks x safe iff l(x_s) - lipschitz * d(x_s, x) >= threshold for at
    least one x_s in the previous safe set (Euclidean d). Only the bound
    entries at previous members are read.

    Members with l < threshold can certify nothing and are skipped. Each
    remaining member can only certify points inside a ball of radius
    (l - threshold) / lipschitz around it, so its candidates are the grid
    nodes inside the bounding box of that ball, the radius padded well
    beyond float rounding. One binary search per box edge over the grid's
    sorted axes gives the box's index range on each axis, and the exact
    inequality is then evaluated on the box's nodes only.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be > 0")
    prev_idx = np.flatnonzero(prev_mask)
    if prev_idx.size == 0:
        raise ValueError("previous safe set is empty")
    n = prev_mask.size
    l_prev = bounds.lower[prev_idx]
    keep = l_prev >= threshold
    certifiers = prev_idx[keep]
    if certifiers.size == 0:
        return np.zeros(n, dtype=bool)
    l_cert = l_prev[keep]
    # Largest certified margin first: its ball marks the most points and
    # already-marked points are skipped below.
    order = np.argsort(-l_cert)
    certifiers = certifiers[order]
    l_cert = l_cert[order]
    mask = np.zeros(n, dtype=bool)
    mask[certifiers] = True  # distance zero always passes

    radius = (l_cert - threshold) / lipschitz
    slack = 1e-9 * (1.0 + radius) + 1e-9 * (
        np.abs(l_cert) + abs(threshold) + 1.0
    ) / lipschitz
    r_query = radius + slack

    points = grid.points
    centres = points[certifiers]
    lo = np.empty((grid.dimension, certifiers.size), dtype=np.intp)
    hi = np.empty_like(lo)
    for k, axis in enumerate(grid.axes):
        # The first node at or above the box's lower edge and one past the
        # last node at or below its upper edge: nodes equal to an edge in
        # float stay inside.
        lo[k] = np.searchsorted(axis, centres[:, k] - r_query, side="left")
        hi[k] = np.searchsorted(axis, centres[:, k] + r_query, side="right")
    index = np.arange(n).reshape(grid.shape)  # row-major, as ``points``
    for ci, (first, end) in enumerate(zip(lo.T.tolist(), hi.T.tolist())):
        box = index[tuple(map(slice, first, end))].reshape(-1)
        members = box[~mask[box]]
        if members.size == 0:
            continue
        dist = np.sqrt(np.sum(np.square(points[members] - centres[ci]), axis=1))
        hit = l_cert[ci] - lipschitz * dist >= threshold
        mask[members[hit]] = True
    return mask


def update_safe_set_gp(
    prev_mask: np.ndarray, bounds: ConfidenceBounds, threshold: float
) -> np.ndarray:
    """Safe-set update from GP lower bounds, unioned with the previous set."""
    return prev_mask | (bounds.lower >= threshold)


def compute_maximizers(safe_mask: np.ndarray, bounds: ConfidenceBounds) -> np.ndarray:
    """Safe points whose upper bound reaches the best safe lower bound."""
    idx = np.flatnonzero(safe_mask)
    if idx.size == 0:
        raise ValueError("safe set is empty")
    best_lower = bounds.lower[idx].max()
    mask = np.zeros(safe_mask.size, dtype=bool)
    mask[idx[bounds.upper[idx] >= best_lower]] = True
    return mask


def boundary_candidates(safe_mask: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Indices of safe points with at least one non-safe axis neighbor."""
    m = safe_mask.reshape(shape)
    outer = np.zeros_like(m)
    for ax in range(m.ndim):
        lo = [slice(None)] * m.ndim
        hi = [slice(None)] * m.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        outer[lo] |= ~m[hi]
        outer[hi] |= ~m[lo]
    return np.flatnonzero((m & outer).reshape(-1))


def _nearest_outside_distance(safe_mask: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each safe point, in index order, to the
    nearest grid point outside the safe set (inf when there is none)."""
    inside = np.flatnonzero(safe_mask)
    outside = np.flatnonzero(~safe_mask)
    if outside.size == 0:
        return np.full(inside.size, np.inf)
    _, nn = cKDTree(points[outside]).query(points[inside])
    return np.sqrt(
        np.sum(np.square(points[inside] - points[outside[nn]]), axis=1)
    )


def _expanders_lipschitz(
    safe_mask: np.ndarray,
    bounds: ConfidenceBounds,
    lipschitz: float,
    outside_dist: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Expanders for the Lipschitz variants.

    A safe point c expands iff u(c) - lipschitz * d(c, o) >= threshold for
    some outside point o. The test is monotone in distance, so the nearest
    outside point decides it: ``outside_dist`` holds that distance for each
    safe point (``_nearest_outside_distance``). It depends only on the
    safe set, so the optimizer caches it across steps.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be > 0")
    mask = np.zeros(safe_mask.size, dtype=bool)
    inside = np.flatnonzero(safe_mask)
    u_in = bounds.upper[inside]
    mask[inside[u_in - lipschitz * outside_dist >= threshold]] = True
    return mask


def _lift_thresholds(
    safe_mask: np.ndarray,
    mean: np.ndarray,
    std: np.ndarray,
    beta: float,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance thresholds at which a fictitious observation lifts a point.

    Conditioning on a noiseless observation (c, u(c)) of a candidate c
    gives an outside point u the lower bound
    mu_u + beta * sd_u * (rho - sqrt(1 - rho^2)), with
    rho = cov(c, u) / (sd_c * sd_u). That reaches the threshold h iff
    rho - sqrt(1 - rho^2) >= t_u = (h - mu_u) / (beta * sd_u). With
    s = sqrt(2 - t_u^2) the roots are (t_u -+ s) / 2, so c lifts u iff
    cov(c, u) >= need[u] * sd_c or cov(c, u) <= low[u] * sd_c, where

    * t_u > 1: no rho reaches; need = inf (safe points too);
    * -sqrt(2) < t_u <= 1: need = sd_u * (t_u + s) / 2;
    * -sqrt(2) < t_u <= -1: also low = sd_u * (t_u - s) / 2, otherwise
      low = -inf. Only a point whose lower bound already reaches h has
      such a t_u, and the optimizer's safe set always contains those;
    * t_u <= -sqrt(2): every rho reaches; need = -inf.

    With beta * sd_u = 0 the bound is mu_u whatever c is observed, so
    t_u is -inf where mu_u reaches h and inf where it does not.
    """
    scale = beta * std
    margin = threshold - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        t = margin / scale
    flat = scale == 0
    t[flat] = np.where(margin[flat] > 0, np.inf, -np.inf)
    t[safe_mask] = np.inf
    need = np.full(t.size, np.inf)
    low = np.full(t.size, -np.inf)
    roots = np.flatnonzero((t <= 1.0) & (t > -_SQRT2))
    t_r, sd_r = t[roots], std[roots]
    s = np.sqrt(2.0 - np.square(t_r))
    need[roots] = 0.5 * (t_r + s) * sd_r
    need[t <= -_SQRT2] = -np.inf
    band = t_r <= -1.0
    low[roots[band]] = 0.5 * (t_r[band] - s[band]) * sd_r[band]
    return need, low


def _expanders_modified(
    safe_mask: np.ndarray,
    shape: tuple[int, ...],
    points: np.ndarray,
    model: GpModel,
    mean: np.ndarray,
    std: np.ndarray,
    beta: float,
    threshold: float,
    v_grid: np.ndarray,
) -> np.ndarray:
    """Expanders for the Lipschitz-free variants.

    A safe boundary point c expands iff conditioning the GP on a
    fictitious noiseless observation (c, u(c)) lifts the lower bound of
    some outside point u to the threshold. In closed form
    (``_lift_thresholds``) that compares the posterior covariance
    k(c, u) - v_c . v_u with a threshold per point u, scaled by sd_c (a
    second comparison only where some point's lower bound already
    reaches the threshold); restricting candidates to the safe-set
    boundary keeps the cost linear in the boundary size. ``v_grid`` is
    the whitened cross-kernel L^-1 k(X, points) of ``model``; candidates
    whose posterior variance is at most ``_VAR_FLOOR`` never expand.

    Outside points close to the threshold need the smallest lift, so the
    ``_FIRST_BLOCK`` liftable outside points with the highest lower bound
    are tested first, and most expanders are decided there. Candidates
    still undecided then sweep the grid in contiguous blocks of
    ``_COLUMN_BLOCK`` columns, which slice ``v_grid`` and ``points``
    without gathers; safe and unliftable points in a block have an
    infinite threshold and never count.
    """
    mask = np.zeros(safe_mask.size, dtype=bool)
    need, low = _lift_thresholds(safe_mask, mean, std, beta, threshold)
    live = np.flatnonzero(need < np.inf)
    if live.size == 0:
        return mask
    cand = boundary_candidates(safe_mask, shape)
    cand = cand[np.square(std[cand]) > _VAR_FLOOR]
    if cand.size == 0:
        return mask
    v_cand = v_grid[:, cand]
    sd_cand = std[cand][:, None]
    two_sided = bool(np.any(low[live] > -np.inf))

    def lifts(rows: np.ndarray, cols) -> np.ndarray:
        """For each candidate position in ``rows``, whether it lifts some
        grid point in ``cols``."""
        cov = kernel_matrix(model.kernel, points[cand[rows]], points[cols])
        cov -= v_cand[:, rows].T @ v_grid[:, cols]
        sd = sd_cand[rows]
        hit = cov >= sd * need[cols]
        if two_sided:
            hit |= cov <= sd * low[cols]
        return hit.any(axis=1)

    undecided = np.arange(cand.size)
    first = live
    if live.size > _FIRST_BLOCK:
        lower = mean[live] - beta * std[live]
        first = live[np.argpartition(-lower, _FIRST_BLOCK - 1)[:_FIRST_BLOCK]]
    hit = lifts(undecided, first)
    mask[cand[hit]] = True
    undecided = undecided[~hit]
    if first.size < live.size:
        end = live[-1] + 1
        for start in range(live[0], end, _COLUMN_BLOCK):
            if undecided.size == 0:
                break
            hit = lifts(undecided, slice(start, min(start + _COLUMN_BLOCK, end)))
            mask[cand[undecided[hit]]] = True
            undecided = undecided[~hit]
    return mask


def compute_expanders(
    safe_mask: np.ndarray, bounds: ConfidenceBounds, state: "SafeGpOptimizer"
) -> np.ndarray:
    """Safe points whose optimistic evaluation could grow the safe set."""
    if state.uses_lipschitz:
        return _expanders_lipschitz(
            safe_mask,
            bounds,
            state.lipschitz,
            state.outside_distance(safe_mask),
            state.threshold_z,
        )
    return _expanders_modified(
        safe_mask,
        state.grid.shape,
        state.grid.points,
        state.model,
        state._mean,
        state._std,
        state.beta,
        state.threshold_z,
        state._v,
    )


def select_next(
    variant: str,
    safe_mask: np.ndarray,
    bounds: ConfidenceBounds,
    m_mask: np.ndarray,
    g_mask: np.ndarray,
) -> tuple[int, bool]:
    """Pick the next grid index per ``variant``.

    Width-based variants take the widest interval over maximizers union
    expanders, falling back to the whole safe set when both are empty
    (the fallback is flagged). UCB variants take the highest upper bound
    over the safe set. Ties break to the lowest grid index.
    """
    safe_idx = np.flatnonzero(safe_mask)
    if safe_idx.size == 0:
        raise StalledAlgorithmError("safe set is empty")
    if variant not in _WIDTH_VARIANTS:
        return int(safe_idx[np.argmax(bounds.upper[safe_idx])]), False
    cand = np.flatnonzero(m_mask | g_mask)
    fallback = cand.size == 0
    if fallback:
        cand = safe_idx
    width = bounds.upper[cand] - bounds.lower[cand]
    return int(cand[np.argmax(width)]), fallback


class SafeGpOptimizer:
    """One run's worth of mutable state for a GP-based safe optimizer.

    Parameters
    ----------
    variant : str
        One of ``safeopt``, ``safe-ucb``, ``msafeopt``, ``msafe-ucb``.
    problem : SafeOpProblem
    seed_observations : list of Observation
        Observations of the initial safe seeds (grid points). They fix
        the target standardization and the initial safe set.
    kernel : KernelSpec, optional
    beta : float
        Confidence-interval width multiplier.

    The Lipschitz variants certify with ``problem.lipschitz``, which must
    be positive.
    """

    def __init__(
        self,
        variant: str,
        problem: SafeOpProblem,
        seed_observations: Sequence[Observation],
        kernel: Optional[KernelSpec] = None,
        beta: float = 2.0,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected {VARIANTS}")
        if not seed_observations:
            raise ValueError("need at least one seed observation")
        self.variant = variant
        self.uses_lipschitz = variant in LIPSCHITZ_VARIANTS
        if self.uses_lipschitz:
            self.lipschitz = problem.lipschitz
            if not self.lipschitz > 0:
                raise ValueError(f"{variant} requires a positive lipschitz constant")
        else:
            self.lipschitz = 0.0
        self.grid = problem.grid
        self.kernel = kernel or KernelSpec()
        self.beta = float(beta)

        ys = [o.y for o in seed_observations]
        self.transform = TargetTransform.from_observations(ys)
        self.threshold_z = float(self.transform.forward(problem.threshold))
        self.noise_var_z = (problem.noise_std / self.transform.scale) ** 2

        self._x: list[tuple[float, ...]] = [o.point for o in seed_observations]
        self._y: list[float] = list(ys)
        self.safe_mask = np.zeros(self.grid.n_points, dtype=bool)
        for o in seed_observations:
            self.safe_mask[self.grid.index_of(o.point)] = True

        self.model: Optional[GpModel] = None
        self.m_mask = np.zeros(self.grid.n_points, dtype=bool)
        self.g_mask = np.zeros(self.grid.n_points, dtype=bool)
        # Posterior kept across steps at the tracked grid points, in the
        # order first tracked: the whole grid (a slice, so the arrays are
        # views) for the Lipschitz-free variants, every point ever marked
        # safe for the Lipschitz ones. _mean, _var, _std and V's columns
        # follow that order. V's rows pair with the model's z and fill a
        # buffer sized for the longest run (evaluation budget plus seeds)
        # top-down; _v views its first n rows and tracked columns. Column-
        # major, so the expander test's column blocks are plain slices and
        # the Lipschitz variants touch only the buffer's leading pages.
        # Bounds span the grid and stay NaN where not tracked.
        if self.uses_lipschitz:
            self._track = np.flatnonzero(self.safe_mask)
            self._tracked = self.safe_mask.copy()
        else:
            self._track = slice(None)
        rows = problem.eval_budget + len(seed_observations)
        self._v_buffer = np.empty((rows, self.grid.n_points), order="F")
        self._v: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        nan = np.full(self.grid.n_points, np.nan)
        self._bounds = ConfidenceBounds(nan, nan.copy())
        # Lipschitz expanders: nearest-outside distances of the safe points
        # and the safe mask they were computed for.
        self._outside_dist: Optional[np.ndarray] = None
        self._outside_dist_mask: Optional[np.ndarray] = None
        self.diagnostics: list[dict] = []

    def _refit(self) -> GpModel:
        self.model = gp_fit(
            self.kernel,
            self.noise_var_z,
            np.asarray(self._x, dtype=float),
            self.transform.forward(self._y),
            prev=self.model,
        )
        return self.model

    def _set_bounds(self, idx, mean: np.ndarray, std: np.ndarray) -> None:
        self._bounds.lower[idx] = mean - self.beta * std
        self._bounds.upper[idx] = mean + self.beta * std

    def _track_more(self, added: np.ndarray) -> None:
        """Track the grid points ``added``: one solve gives their posterior,
        and their V columns follow the tracked ones."""
        n, k = self.model.n_train, self._mean.size
        mean, std, v = posterior_detail(self.model, self.grid.points[added])
        self._v_buffer[:n, k : k + added.size] = v
        self._v = self._v_buffer[:n, : k + added.size]
        self._track = np.concatenate([self._track, added])
        self._tracked[added] = True
        self._mean = np.concatenate([self._mean, mean])
        self._var = np.concatenate([self._var, np.square(std)])
        self._std = np.concatenate([self._std, std])
        self._set_bounds(added, mean, std)

    def _update(self) -> None:
        """Bring the tracked posterior to the new model, then update the
        bounds and the safe set."""
        model = self.model
        n = model.n_train
        points = self.grid.points[self._track]
        if model.extended:
            # The model grew the previous step's model, which the tracked
            # posterior was computed for, by one point x. With the new
            # factor row [l^T, d], V gains the row (k(x, .) - l^T V) / d,
            # and with the model's newest weight z_n the mean and variance
            # change by z_n * row and -row^2.
            l, d = model.chol[-1, :-1], model.chol[-1, -1]
            row = kernel_matrix(self.kernel, model.train_points[-1:], points)[0]
            row -= l @ self._v
            row /= d
            self._v_buffer[n - 1, : row.size] = row
            self._mean += model.z[-1] * row
            self._var -= np.square(row)
        else:
            self._mean, std, v = posterior_detail(model, points)
            self._var = np.square(std)
            self._v_buffer[:n, : v.shape[1]] = v
        self._v = self._v_buffer[:n, : self._mean.size]
        self._std = np.sqrt(np.clip(self._var, 0.0, None))
        self._set_bounds(self._track, self._mean, self._std)
        if not self.uses_lipschitz:
            self.safe_mask = update_safe_set_gp(
                self.safe_mask, self._bounds, self.threshold_z
            )
            return
        new_mask = update_safe_set_lipschitz(
            self.safe_mask,
            self._bounds,
            self.lipschitz,
            self.grid,
            self.threshold_z,
        )
        if not new_mask.any():
            raise StalledAlgorithmError(
                "no previously-safe point can certify anything"
            )
        added = np.flatnonzero(new_mask & ~self._tracked)
        if added.size:
            self._track_more(added)
        self.safe_mask = new_mask

    def outside_distance(self, safe_mask: np.ndarray) -> np.ndarray:
        """``_nearest_outside_distance`` of ``safe_mask`` over the grid,
        recomputed only when the mask differs from the cached one's."""
        if not np.array_equal(safe_mask, self._outside_dist_mask):
            self._outside_dist = _nearest_outside_distance(safe_mask, self.grid.points)
            self._outside_dist_mask = safe_mask.copy()
        return self._outside_dist

    def step(self, oracle: Oracle) -> Observation:
        """Run one iteration: refit, update sets, select, evaluate."""
        self._refit()
        self._update()
        if self.variant in _WIDTH_VARIANTS:
            self.m_mask = compute_maximizers(self.safe_mask, self._bounds)
            self.g_mask = compute_expanders(self.safe_mask, self._bounds, self)
        idx, fallback = select_next(
            self.variant, self.safe_mask, self._bounds, self.m_mask, self.g_mask
        )
        obs = oracle.evaluate(self.grid.points[idx])
        self._x.append(obs.point)
        self._y.append(obs.y)
        self.diagnostics.append(
            {
                "step": obs.step_index,
                "safe_size": int(self.safe_mask.sum()),
                "n_maximizers": int(self.m_mask.sum()),
                "n_expanders": int(self.g_mask.sum()),
                "chosen_index": idx,
                "fallback": fallback,
                "gp_jitter": self.model.jitter,
                "gp_refactored": not self.model.extended,
            }
        )
        return obs
