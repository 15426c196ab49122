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
which read bounds only at safe points, track their safe set, each point
from the step it turns safe. z is the model's only weight vector. A full
factorization, and a full solve at the tracked points, happen only on
the first step and when the extension breaks down. The training points
and standardized targets live in buffers allocated with V's, one row
written per step; each fit gets views of their filled rows. Every
training point is a tracked node, so one kernel row per step, of the
newest training point over the tracked points, serves both the
factor's new row (its entries at the other training points) and V's.
It is computed from a column-major copy of the tracked points: the
grid's, made once, for the Lipschitz-free variants, the safe set's,
renewed when it grows, for the Lipschitz ones. These also keep the row
of each node they query until the safe set grows, so a node queried
again, as on most Lipschitz steps, reuses its row.

The safe set is kept both as a mask over the grid and as its sorted
indices, rebuilt only when the set grows, and each set function takes
the one form it reads. So with n training points and a safe set S, a
step of the Lipschitz variants does O(n * |S|) GP work and O(|S|)
bookkeeping, besides the fresh mask the safe-set update returns and
one count of it, and scans boxes only for balls wider than the grid
spacing; a step of the Lipschitz-free variants does O(n * grid) work.

* ``safeopt`` / ``safe-ucb`` certify safety with a Lipschitz bound
  around previously-safe points: x is safe iff some safe x_s satisfies
  l(x_s) - L * d(x_s, x) >= h. They differ only in selection. The
  safe-set update tests each certifying x_s against the grid nodes in
  the bounding box of its ball, found by binary search on the grid's
  sorted axes; a box that holds only x_s itself is skipped, and a ball
  narrower than a quarter of the smallest node spacing is skipped
  before any search. The expanders need each safe point's distance to
  the nearest outside point. On a rectilinear grid that point always
  has a safe axis neighbour, so only the outer boundary of the safe set
  is scanned. The distance depends only on the safe set, so the
  optimizer caches it until the safe set grows.
* ``msafeopt`` / ``msafe-ucb`` drop the Lipschitz constant and certify
  directly from the GP lower bound, l(x) >= h. A boundary point c is an
  expander when a fictitious noiseless observation u(c) at c would lift
  some outside point u to l(u) >= h. In closed form that depends on u only
  through one threshold per grid point, computed once per step, so each
  (c, u) pair costs one entry of the posterior covariance
  k(c, u) - v_c . v_u and one comparison. The outside points with the
  highest lower bounds are tested first. Most candidates still undecided
  then are the same from step to step, so the optimizer keeps their
  covariance rows over the grid: each step downdates them by the new
  V row r, cov(c, .) -= r_c * r, and a kept row decides its candidate
  with one comparison over the live columns. At most ``_ROW_CAP`` = 96
  rows are kept, 96 * n_points floats (7.7 MB at 100x100), enough for
  every undecided candidate of the paper's configs; candidates past the
  cap are computed and compared in column blocks, and a refactored GP
  drops every row.

All four safe sets only grow (S_t contains S_{t-1}), as in SafeOpt:
each update returns the previous set plus the points certified now, so
a pessimistic refit that dips the bounds never drops a point, and no
safe set is ever empty, since every run starts from at least one seed.

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
    squared_distances,
)
from .safeop import GP_VARIANTS as VARIANTS
from .safeop import (
    LIPSCHITZ_VARIANTS,
    Grid,
    Observation,
    Oracle,
    SafeOpProblem,
)

__all__ = [
    "VARIANTS",
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
# the most covariance rows the optimizer keeps for candidates undecided by
# them, and the most entries in one block of rows computed on the fly.
# Together they bound the scan's memory: _ROW_CAP * n_points floats kept
# across steps (7.7 MB at 100x100), and a few blocks of _BLOCK floats
# within one. The cap is above the most undecided candidates seen in any
# step of the paper's configs (77), so rows are computed in blocks only
# for larger boundaries.
_FIRST_BLOCK = 128
_ROW_CAP = 96
_BLOCK = 1 << 14
_SQRT2 = math.sqrt(2.0)


def update_safe_set_lipschitz(
    safe_idx: np.ndarray,
    bounds: ConfidenceBounds,
    lipschitz: float,
    grid: Grid,
    threshold: float,
) -> np.ndarray:
    """Safe-set update through the Lipschitz bound.

    ``safe_idx`` holds the grid indices of the previous safe set. Returns
    the mask of the previous safe set plus every x with
    l(x_s) - lipschitz * d(x_s, x) >= threshold for at least one x_s in
    the previous safe set (Euclidean d), so the set never shrinks. Only
    the bound entries at previous members are read.

    Members with l < threshold can certify nothing and are skipped. Each
    remaining member can only certify points inside a ball of radius
    (l - threshold) / lipschitz around it, so its candidates are the grid
    nodes inside the bounding box of that ball, the radius padded well
    beyond float rounding. A member whose padded radius r is below a
    quarter of the grid's smallest node spacing g (``Grid.min_spacing``)
    is dropped before any search: its box holds only its centre c, the
    member itself, which is marked already. The float margin: adjacent
    nodes of an axis are at least one ulp apart, so the box edge c +- r,
    rounded to nearest, lands on a neighbour only if r reaches half their
    gap; a radius below a quarter gap stays a quarter gap short, far more
    than the rounding of g itself. For the other members one binary
    search per box edge over the grid's sorted axes gives the box's
    index range on each axis, boxes of one node are dropped as well, and
    the exact inequality is then evaluated on the box's unmarked nodes
    only, in an order that does not change the result.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be > 0")
    if safe_idx.size == 0:
        raise ValueError("previous safe set is empty")
    mask = np.zeros(grid.n_points, dtype=bool)
    mask[safe_idx] = True
    l_prev = bounds.lower[safe_idx]
    keep = l_prev >= threshold
    l_cert = l_prev[keep]
    radius = (l_cert - threshold) / lipschitz
    slack = 1e-9 * (1.0 + radius) + 1e-9 * (
        np.abs(l_cert) + abs(threshold) + 1.0
    ) / lipschitz
    r_query = radius + slack
    far = r_query >= 0.25 * grid.min_spacing
    if not far.any():
        return mask
    certifiers = safe_idx[keep][far]
    l_cert, r_query = l_cert[far], r_query[far]

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
    wide = np.flatnonzero(np.prod(hi - lo, axis=0) > 1)
    if wide.size == 0:
        return mask
    # Largest certified margin first: its ball marks the most points and
    # already-marked points are skipped below.
    wide = wide[np.argsort(-l_cert[wide])]
    centres, l_cert, lo, hi = centres[wide], l_cert[wide], lo[:, wide], hi[:, wide]
    index = np.arange(grid.n_points).reshape(grid.shape)  # row-major, as ``points``
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


def compute_maximizers(safe_idx: np.ndarray, bounds: ConfidenceBounds) -> np.ndarray:
    """Mask of the safe points, of grid indices ``safe_idx``, whose upper
    bound reaches the best safe lower bound."""
    if safe_idx.size == 0:
        raise ValueError("safe set is empty")
    best_lower = bounds.lower[safe_idx].max()
    mask = np.zeros(bounds.lower.size, dtype=bool)
    mask[safe_idx[bounds.upper[safe_idx] >= best_lower]] = True
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


def _nearest_outside_distance(
    safe_mask: np.ndarray, shape: tuple[int, ...], points: np.ndarray
) -> np.ndarray:
    """Euclidean distance from each safe point, in index order, to the
    nearest grid point outside the safe set (inf when there is none).

    ``points`` are the row-major nodes of a rectilinear grid of ``shape``.
    Walking from an outside node o to a safe node s one axis step at a
    time never moves away from s, in floating point too, so the last
    outside node on the way, which has a safe axis neighbour, is at most
    as far from s as o. Only this outer boundary of the safe set is
    scanned, in row blocks of at most ``_BLOCK`` distances, and the
    minimum is the one over all outside nodes, bit for bit.
    """
    inside = np.flatnonzero(safe_mask)
    rim = points[boundary_candidates(~safe_mask, shape)]
    if rim.shape[0] == 0:
        return np.full(inside.size, np.inf)
    nearest = np.empty(inside.size)
    rows = max(1, _BLOCK // rim.shape[0])
    for i in range(0, inside.size, rows):
        block = inside[i : i + rows]
        nearest[i : i + rows] = squared_distances(points[block], rim).min(axis=1)
    return np.sqrt(nearest)


def _expanders_lipschitz(
    safe_idx: np.ndarray,
    bounds: ConfidenceBounds,
    lipschitz: float,
    outside_dist: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Expanders for the Lipschitz variants, as a mask over the grid.

    A safe point c expands iff u(c) - lipschitz * d(c, o) >= threshold for
    some outside point o. The test is monotone in distance, so the nearest
    outside point decides it: ``outside_dist`` holds that distance for each
    safe point of ``safe_idx`` (``_nearest_outside_distance``). It depends
    only on the safe set, so the optimizer caches it across steps.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be > 0")
    mask = np.zeros(bounds.upper.size, dtype=bool)
    u_in = bounds.upper[safe_idx]
    mask[safe_idx[u_in - lipschitz * outside_dist >= threshold]] = True
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


class _CovarianceRows:
    """Posterior covariance rows cov(c, .) = k(c, .) - v_c . V over the
    whole grid, for at most ``_ROW_CAP`` expander candidates c, kept
    across steps by one optimizer.

    ``slot`` maps each grid point that has a row to its row of
    ``buffer``, which holds at most ``_ROW_CAP`` * n_points floats (7.7 MB
    at 100x100). The buffer and the downdate's scratch row are allocated
    on the first claim, and the buffer's pages are touched only as slots
    fill, lowest first.
    """

    def __init__(self, n_points: int) -> None:
        self.n_points = n_points
        self.cap = _ROW_CAP
        self.slot: dict[int, int] = {}
        self.buffer: Optional[np.ndarray] = None
        self.scratch: Optional[np.ndarray] = None

    def downdate(self, r: np.ndarray) -> None:
        """Condition every row on one more training point whose V row, in
        grid order, is ``r``."""
        for c, i in self.slot.items():
            np.multiply(r, r[c], out=self.scratch)
            self.buffer[i] -= self.scratch

    def clear(self) -> None:
        self.slot.clear()

    def keep(self, idx: np.ndarray) -> None:
        """Drop the rows of the grid points not in ``idx``."""
        kept = set(idx.tolist())
        self.slot = {c: i for c, i in self.slot.items() if c in kept}

    def claim(self, idx: np.ndarray) -> tuple[list[int], list[int]]:
        """Free slots for the points of ``idx`` that have no row, in order,
        while slots last; returns the slots and their points, whose rows
        the caller fills."""
        free = sorted(set(range(self.cap)).difference(self.slot.values()))
        new = [c for c in idx.tolist() if c not in self.slot][: len(free)]
        free = free[: len(new)]
        if new and self.buffer is None:
            self.buffer = np.empty((self.cap, self.n_points))
            self.scratch = np.empty(self.n_points)
        self.slot.update(zip(new, free))
        return free, new


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
    rows: _CovarianceRows,
) -> np.ndarray:
    """Expanders for the Lipschitz-free variants.

    A safe boundary point c expands iff conditioning the GP on a
    fictitious noiseless observation (c, u(c)) lifts the lower bound of
    some outside point u to the threshold. In closed form
    (``_lift_thresholds``) that compares the posterior covariance
    cov(c, u) = k(c, u) - v_c . v_u with a threshold per point u, scaled
    by sd_c (a second comparison only where some point's lower bound
    already reaches the threshold); restricting candidates to the
    safe-set boundary keeps the cost linear in the boundary size.
    ``v_grid`` is the whitened cross-kernel L^-1 k(X, points) of
    ``model``; candidates whose posterior variance is at most
    ``_VAR_FLOOR`` never expand.

    Outside points close to the threshold need the smallest lift, so the
    ``_FIRST_BLOCK`` liftable outside points with the highest lower bound
    are tested first, and most expanders are decided there. A candidate
    still undecided needs every live column, and it is mostly one of the
    last step's. ``rows`` keeps such candidates' covariance rows across
    calls:

    * the optimizer downdates every kept row with each new V row, and
      drops them all when the GP is refactored;
    * here, the rows of points no longer undecided are dropped, and each
      new undecided point gets a row while fewer than ``_ROW_CAP`` = 96
      are kept (96 * n_points floats, 7.7 MB at 100x100), which holds
      every undecided candidate of the paper's configs;
    * a kept row decides its candidate with one comparison over the span
      of live columns.

    The candidates past the cap are computed and compared over the span
    in contiguous column blocks of at most ``_BLOCK`` entries, which slice
    ``v_grid`` and ``points`` without gathers, and drop out once decided.
    New rows are filled in blocks of the same size. Safe and unliftable
    points have an infinite threshold and never count.
    """
    mask = np.zeros(safe_mask.size, dtype=bool)
    need, low = _lift_thresholds(safe_mask, mean, std, beta, threshold)
    live = np.flatnonzero(need < np.inf)
    cand = boundary_candidates(safe_mask, shape)
    cand = cand[np.square(std[cand]) > _VAR_FLOOR]
    if live.size == 0 or cand.size == 0:
        rows.clear()
        return mask
    two_sided = bool(np.any(low[live] > -np.inf))

    def cov(idx, cols) -> np.ndarray:
        """Posterior covariance of grid points ``idx`` with ``cols``."""
        out = kernel_matrix(model.kernel, points[idx], points[cols])
        out -= v_grid[:, idx].T @ v_grid[:, cols]
        return out

    def lifts(cov_c: np.ndarray, sd, cols) -> np.ndarray:
        """Whether each covariance row lifts some point in ``cols``."""
        hit = cov_c >= sd * need[cols]
        if two_sided:
            hit |= cov_c <= sd * low[cols]
        return hit.any(axis=-1)

    def blocks(n_rows: int, start: int, stop: int):
        """Column slices of [start, stop) with at most ``_BLOCK`` entries
        for ``n_rows`` rows."""
        width = max(1, _BLOCK // max(n_rows, 1))
        return (slice(j, min(j + width, stop)) for j in range(start, stop, width))

    first = live
    if live.size > _FIRST_BLOCK:
        lower = mean[live] - beta * std[live]
        first = live[np.argpartition(-lower, _FIRST_BLOCK - 1)[:_FIRST_BLOCK]]
    hit = lifts(cov(cand, first), std[cand][:, None], first)
    mask[cand[hit]] = True
    undecided = cand[~hit]
    rows.keep(undecided)
    if first.size == live.size or undecided.size == 0:
        return mask

    slots, new = rows.claim(undecided)
    if new:
        for cols in blocks(len(new), 0, rows.n_points):
            rows.buffer[slots, cols] = cov(new, cols)
    span = slice(live[0], live[-1] + 1)
    for c, i in rows.slot.items():
        mask[c] = lifts(rows.buffer[i, span], std[c], span)

    rest = np.array([c for c in undecided.tolist() if c not in rows.slot], dtype=np.intp)
    for cols in blocks(rest.size, span.start, span.stop):
        if rest.size == 0:
            break
        hit = lifts(cov(rest, cols), std[rest][:, None], cols)
        mask[rest[hit]] = True
        rest = rest[~hit]
    return mask


def compute_expanders(bounds: ConfidenceBounds, state: "SafeGpOptimizer") -> np.ndarray:
    """Mask of the points of ``state``'s safe set whose optimistic
    evaluation could grow it."""
    if state.uses_lipschitz:
        return _expanders_lipschitz(
            state.safe_idx,
            bounds,
            state.lipschitz,
            state.outside_distance(),
            state.threshold_z,
        )
    return _expanders_modified(
        state.safe_mask,
        state.grid.shape,
        state.grid.points,
        state.model,
        state._mean,
        state._std,
        state.beta,
        state.threshold_z,
        state._v,
        state._cov_rows,
    )


def select_next(
    variant: str,
    safe_idx: np.ndarray,
    bounds: ConfidenceBounds,
    m_mask: np.ndarray,
    g_mask: np.ndarray,
) -> tuple[int, bool]:
    """Pick the next grid index per ``variant`` from the safe set, given by
    its sorted grid indices ``safe_idx``.

    Width-based variants take the widest interval over maximizers union
    expanders, falling back to the whole safe set when both are empty
    (the fallback is flagged). The maximizer and expander masks hold
    safe points only, so only their entries at ``safe_idx`` are read.
    UCB variants take the highest upper bound over the safe set. Ties
    break to the lowest grid index.
    """
    if safe_idx.size == 0:
        raise ValueError("safe set is empty")
    if variant not in _WIDTH_VARIANTS:
        return int(safe_idx[np.argmax(bounds.upper[safe_idx])]), False
    cand = safe_idx[m_mask[safe_idx] | g_mask[safe_idx]]
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
        self.grid = problem.grid
        self.kernel = kernel or KernelSpec()
        self.beta = float(beta)

        ys = [o.y for o in seed_observations]
        self.transform = TargetTransform.from_observations(ys)
        self.threshold_z = float(self.transform.forward(problem.threshold))
        self.noise_var_z = (problem.noise_std / self.transform.scale) ** 2

        # The training points and standardized targets: the seeds' here,
        # then buffers with V's row count from the first ``step`` on, each
        # step writing one row of each. A model holds views of the first
        # _n_train rows, which no later step rewrites.
        self._points = np.array([o.point for o in seed_observations], dtype=float)
        self._targets = self.transform.forward(ys)
        self._n_train = len(ys)
        seed_idx = np.array([self.grid.index_of(o.point) for o in seed_observations])
        # The safe set as a mask over the grid and as its sorted indices,
        # both replaced only when the set grows.
        self.safe_mask = np.zeros(self.grid.n_points, dtype=bool)
        self.safe_mask[seed_idx] = True
        self.safe_idx = np.flatnonzero(self.safe_mask)

        # The Lipschitz variants' constant and the tracked grid points,
        # where the posterior is kept across steps in the order first
        # tracked: the safe set, in the order its points turned safe, for
        # the Lipschitz variants, the whole grid (a slice, so the arrays
        # are views) for the others. _mean, _var, _std and V's columns
        # follow that order, and _column maps a grid index to its tracked
        # column (-1 if untracked). Every training point is a tracked
        # node, so the kernel row of the newest one over the tracked
        # points holds its kernel values with all the others too; _cols
        # holds each training point's column.
        if self.uses_lipschitz:
            self.lipschitz = problem.lipschitz
            if not self.lipschitz > 0:
                raise ValueError(f"{variant} requires a positive lipschitz constant")
            self._track = self.safe_idx
            self._column = np.full(self.grid.n_points, -1, dtype=np.intp)
            self._column[self._track] = np.arange(self._track.size)
        else:
            self.lipschitz = 0.0
            self._track = slice(None)
            self._column = np.arange(self.grid.n_points)
        self._cols = self._column[seed_idx]
        # The tracked points, column-major as ``kernel_matrix`` reads them,
        # copied once for the whole grid and again each time a Lipschitz
        # safe set grows. The Lipschitz variants keep the kernel row over
        # them of each node queried since they last grew, by tracked
        # column, so a node queried again reuses its row; at most (distinct
        # queried nodes) x |S| floats.
        self._tracked_points = np.asfortranarray(self.grid.points[self._track])
        self._rows: dict[int, np.ndarray] = {}
        self.model: Optional[GpModel] = None
        self.m_mask = np.zeros(self.grid.n_points, dtype=bool)
        self.g_mask = np.zeros(self.grid.n_points, dtype=bool)
        # V's rows pair with the model's z and fill top-down a buffer that
        # the first ``step`` sizes from its oracle: a row for each training
        # point so far and each record the oracle can still log. _v views
        # its first n rows and tracked columns. Column-major, so the
        # expander test's column blocks are plain slices and the Lipschitz
        # variants touch only the buffer's leading pages. Bounds span the
        # grid and stay NaN where not tracked.
        self._v_buffer: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        nan = np.full(self.grid.n_points, np.nan)
        self._bounds = ConfidenceBounds(nan, nan.copy())
        # Lipschitz-free expanders: the covariance rows kept across steps.
        # ``_update`` downdates them with V's new row in tracked order,
        # which is grid order for the variants that keep rows.
        self._cov_rows = _CovarianceRows(self.grid.n_points)
        # Lipschitz expanders: nearest-outside distances of the safe points,
        # one per point, so their size tells which safe set they are for.
        self._outside_dist: Optional[np.ndarray] = None
        self.diagnostics: list[dict] = []

    def _refit(self, row: Optional[np.ndarray]) -> GpModel:
        """Fit the model to the training buffers; ``row`` is the newest
        training point's kernel row over the tracked points, if any."""
        n = self._n_train
        self.model = gp_fit(
            self.kernel,
            self.noise_var_z,
            self._points[:n],
            self._targets[:n],
            prev=self.model,
            kx=None if row is None else row[self._cols[: n - 1]],
        )
        return self.model

    def _kernel_row(self) -> np.ndarray:
        """The newest training point's kernel row over the tracked points,
        as an array of the caller's own, which ``_update`` overwrites."""
        n = self._n_train
        col = int(self._cols[n - 1])
        row = self._rows.get(col)
        if row is None:
            new = self._points[n - 1 : n]
            row = kernel_matrix(self.kernel, new, self._tracked_points)[0]
            if not self.uses_lipschitz:
                return row
            self._rows[col] = row
        return row.copy()

    def _set_bounds(self, idx, mean: np.ndarray, std: np.ndarray) -> None:
        """Bounds mean -+ beta * std at the grid points ``idx``."""
        width = self.beta * std
        self._bounds.lower[idx] = mean - width
        self._bounds.upper[idx] = mean + width

    def _track_more(self, added: np.ndarray) -> None:
        """Track the grid points ``added``: one solve gives their posterior,
        and their V columns follow the tracked ones."""
        n, k = self.model.n_train, self._mean.size
        mean, std, v = posterior_detail(self.model, self.grid.points[added])
        self._v_buffer[:n, k : k + added.size] = v
        self._v = self._v_buffer[:n, : k + added.size]
        self._column[added] = np.arange(k, k + added.size)
        self._track = np.concatenate([self._track, added])
        self._tracked_points = np.asfortranarray(self.grid.points[self._track])
        self._rows.clear()
        self._mean = np.concatenate([self._mean, mean])
        self._var = np.concatenate([self._var, np.square(std)])
        self._std = np.concatenate([self._std, std])
        self._set_bounds(added, mean, std)

    def _update(self, row: Optional[np.ndarray]) -> None:
        """Bring the tracked posterior to the new model, then update the
        bounds and the safe set. ``row`` is the newest training point's
        kernel row over the tracked points, or None on the first step; it
        is overwritten."""
        model = self.model
        n = model.n_train
        if model.extended:
            # The model grew the previous step's model, which the tracked
            # posterior was computed for, by one point x. With the new
            # factor row [l^T, d], V gains the row (k(x, .) - l^T V) / d,
            # and with the model's newest weight z_n the mean and variance
            # change by z_n * row and -row^2, each kept covariance row of a
            # point c by -row[c] * row.
            l, d = model.chol[-1, :-1], model.chol[-1, -1]
            row -= l @ self._v
            row /= d
            self._v_buffer[n - 1, : row.size] = row
            self._mean += model.z[-1] * row
            self._var -= np.square(row)
            self._cov_rows.downdate(row)
        else:
            self._mean, std, v = posterior_detail(model, self.grid.points[self._track])
            self._var = np.square(std)
            self._v_buffer[:n, : v.shape[1]] = v
            self._cov_rows.clear()
        self._v = self._v_buffer[:n, : self._mean.size]
        self._std = np.sqrt(np.maximum(self._var, 0.0))
        self._set_bounds(self._track, self._mean, self._std)
        if self.uses_lipschitz:
            new_mask = update_safe_set_lipschitz(
                self.safe_idx,
                self._bounds,
                self.lipschitz,
                self.grid,
                self.threshold_z,
            )
        else:
            new_mask = update_safe_set_gp(self.safe_mask, self._bounds, self.threshold_z)
        # The set only grows, so its size tells whether it changed.
        if np.count_nonzero(new_mask) > self.safe_idx.size:
            safe_idx = np.flatnonzero(new_mask)
            if self.uses_lipschitz:
                self._track_more(safe_idx[~self.safe_mask[safe_idx]])
            self.safe_idx, self.safe_mask = safe_idx, new_mask

    def outside_distance(self) -> np.ndarray:
        """``_nearest_outside_distance`` of the safe set, one entry per
        point of ``safe_idx``, recomputed only when the set has grown."""
        if self._outside_dist is None or self._outside_dist.size != self.safe_idx.size:
            self._outside_dist = _nearest_outside_distance(
                self.safe_mask, self.grid.shape, self.grid.points
            )
        return self._outside_dist

    def step(self, oracle: Oracle) -> Observation:
        """Run one iteration: refit, update sets, select, evaluate."""
        if self._v_buffer is None:
            rows = self._n_train + oracle.budget - len(oracle.log)
            self._v_buffer = np.empty((rows, self.grid.n_points), order="F")
            pad = rows - self._n_train
            self._points = np.concatenate(
                [self._points, np.empty((pad, self.grid.dimension))]
            )
            self._targets = np.concatenate([self._targets, np.empty(pad)])
            self._cols = np.concatenate([self._cols, np.empty(pad, dtype=np.intp)])
        # The newest training point's kernel row over the tracked points
        # gives the factor extension its k(x, X) and V its new row. The
        # first step's model is factorized from scratch.
        row = None if self.model is None else self._kernel_row()
        self._refit(row)
        self._update(row)
        if self.variant in _WIDTH_VARIANTS:
            self.m_mask = compute_maximizers(self.safe_idx, self._bounds)
            self.g_mask = compute_expanders(self._bounds, self)
        idx, fallback = select_next(
            self.variant, self.safe_idx, self._bounds, self.m_mask, self.g_mask
        )
        obs = oracle.evaluate(self.grid.points[idx])
        node = idx
        if obs.point != tuple(self.grid.points[idx].tolist()):
            node = self.grid.index_of(obs.point)  # an oracle that observed elsewhere
        self._points[self._n_train] = obs.point
        self._targets[self._n_train] = self.transform.forward(obs.y)
        self._cols[self._n_train] = self._column[node]
        self._n_train += 1
        self.diagnostics.append(
            {
                "step": obs.step_index,
                "safe_size": int(self.safe_idx.size),
                "n_maximizers": int(np.count_nonzero(self.m_mask)),
                "n_expanders": int(np.count_nonzero(self.g_mask)),
                "chosen_index": idx,
                "fallback": fallback,
                "gp_jitter": self.model.jitter,
                "gp_refactored": not self.model.extended,
            }
        )
        return obs
