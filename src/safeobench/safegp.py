"""GP-based safe optimizers over a discretized domain.

Four step-wise state machines share one skeleton: update the GP with
the newest observation, recompute confidence bounds, grow the safe set,
pick the next point, evaluate it through the oracle.

The GP update is incremental: each step appends one row to the previous
Cholesky factor and one entry to the model's whitened targets z (see
``gp.gp_fit``), and the Lipschitz-free variants append the matching row
to the whitened grid cross-kernel V and update the grid posterior mean
and variance in O(n * grid) instead of re-solving the whole grid. The
model's z is the only weight vector; the optimizer reads its newest
entry and keeps no copy. A full factorization, and a full grid solve,
happen only on the first step and when the extension breaks down.

* ``safeopt`` / ``safe-ucb`` certify safety with a Lipschitz bound
  around previously-safe points: x is safe iff some safe x_s satisfies
  l(x_s) - L * d(x_s, x) >= h. They differ only in selection. Their
  geometry depends only on the grid and the safe set, so it is not
  rebuilt every step: the safe-set update reads the domain diameter from
  the optimizer's grid KD-tree, and the optimizer caches each safe
  point's distance to the nearest outside point until the safe set
  changes.
* ``msafeopt`` / ``msafe-ucb`` drop the Lipschitz constant and certify
  directly from the GP lower bound, l(x) >= h. Their safe set is unioned
  with the previous one so the initial seeds can never drop out when a
  pessimistic refit dips the bounds.

Selection: the "opt" variants pick the widest confidence interval among
maximizers (safe points whose upper bound reaches the best safe lower
bound) and expanders (safe points whose optimistic evaluation could
certify an outside point); the "ucb" variants simply pick the safe point
with the highest upper bound. All ties break to the lowest grid index.

Internally all bound computations run on standardized targets; only grid
points cross the module boundary.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .gp import (
    ConfidenceBounds,
    GpModel,
    KernelSpec,
    TargetTransform,
    gp_fit,
    gp_posterior,
    kernel_matrix,
    posterior_detail,
)
from .safeop import Observation, Oracle, SafeOpProblem

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

VARIANTS = ("safeopt", "safe-ucb", "msafeopt", "msafe-ucb")
LIPSCHITZ_VARIANTS = ("safeopt", "safe-ucb")
_WIDTH_VARIANTS = ("safeopt", "msafeopt")  # the others select by UCB

# Posterior variance below this is treated as an already-known point when
# screening expander candidates.
_VAR_FLOOR = 1e-12


class StalledAlgorithmError(RuntimeError):
    """Safe set became empty; the algorithm cannot propose a point."""


def update_safe_set_lipschitz(
    prev_mask: np.ndarray,
    bounds: ConfidenceBounds,
    lipschitz: float,
    points: np.ndarray,
    threshold: float,
    tree: Optional[cKDTree] = None,
) -> np.ndarray:
    """Safe-set update through the Lipschitz bound.

    Marks x safe iff l(x_s) - lipschitz * d(x_s, x) >= threshold for at
    least one x_s in the previous safe set (Euclidean d). Only the bound
    entries at previous members are read.

    Members with l < threshold can certify nothing and are skipped. Each
    remaining member can only certify points inside a ball of radius
    (l - threshold) / lipschitz around it, so candidate points come from
    a KD-tree ball query (radius padded well beyond float rounding) and
    the exact inequality is then evaluated on those candidates only.
    When the largest ball reaches half the domain diameter, a dense scan
    replaces the ball queries. ``tree`` may pass a prebuilt cKDTree over
    ``points`` (one is built otherwise); the diameter comes from its
    bounding box, ``tree.maxes - tree.mins``, which equals the per-axis
    extent of ``points`` exactly.
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

    if tree is None:
        tree = cKDTree(points)
    diameter = float(np.sqrt(np.sum(np.square(tree.maxes - tree.mins))))
    if float(r_query.max()) >= 0.5 * diameter:
        # Balls cover a large fraction of the domain: a dense scan is
        # cheaper than per-ball queries.
        for start in range(0, certifiers.size, 256):
            c = slice(start, start + 256)
            dist = cdist(points, points[certifiers[c]])
            hit = np.any(
                l_cert[c][None, :] - lipschitz * dist >= threshold, axis=1
            )
            mask |= hit
        return mask

    balls = tree.query_ball_point(points[certifiers], r_query)
    for ci, members in enumerate(balls):
        members = np.asarray(members, dtype=int)
        members = members[~mask[members]]
        if members.size == 0:
            continue
        dist = np.sqrt(
            np.sum(np.square(points[members] - points[certifiers[ci]]), axis=1)
        )
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
    some outside point to the threshold. The conditioning is done in
    closed form via the posterior covariance; restricting candidates to
    the safe-set boundary keeps the cost linear in the boundary size.
    ``v_grid`` is the whitened cross-kernel L^-1 k(X, points) of ``model``.
    """
    mask = np.zeros(safe_mask.size, dtype=bool)
    outside = np.flatnonzero(~safe_mask)
    if outside.size == 0:
        return mask
    cand = boundary_candidates(safe_mask, shape)
    if cand.size == 0:
        return mask
    v_c = v_grid[:, cand]
    var_c = np.square(std[cand])
    usable = var_c > _VAR_FLOOR
    var_c = np.where(usable, var_c, 1.0)
    gain = beta / np.sqrt(var_c)

    # Outside points already close to the threshold need the smallest
    # lift, so scanning them first lets most true expanders exit after
    # the first chunk.
    order = np.argsort(-(mean[outside] - beta * std[outside]))
    outside = outside[order]
    undecided = np.flatnonzero(usable)
    expands = np.zeros(cand.size, dtype=bool)
    chunk = 2048
    for start in range(0, outside.size, chunk):
        if undecided.size == 0:
            break
        out_idx = outside[start : start + chunk]
        rows = cand[undecided]
        v_u = v_grid[:, out_idx]
        cross = kernel_matrix(model.kernel, points[rows], points[out_idx])
        cross -= v_c[:, undecided].T @ v_u
        # new_var = var_u - cross^2 / var_c, then lower bound of the
        # conditioned posterior; arithmetic kept in-place on two buffers.
        lift = np.square(cross)
        lift /= var_c[undecided, None]
        np.subtract(np.square(std[out_idx])[None, :], lift, out=lift)
        np.clip(lift, 0.0, None, out=lift)
        np.sqrt(lift, out=lift)
        lift *= -beta
        cross *= gain[undecided, None]
        cross += lift
        cross += mean[out_idx][None, :]
        newly = np.any(cross >= threshold, axis=1)
        expands[undecided[newly]] = True
        undecided = undecided[~newly]
    mask[cand[expands]] = True
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
        state._v_grid,
    )


def select_next(state: "SafeGpOptimizer") -> tuple[int, bool]:
    """Pick the next grid index per the state's variant.

    Width-based variants take the widest interval over maximizers union
    expanders, falling back to the whole safe set when both are empty
    (the fallback is flagged). UCB variants take the highest upper bound
    over the safe set. Ties break to the lowest grid index.
    """
    safe_idx = np.flatnonzero(state.safe_mask)
    if safe_idx.size == 0:
        raise StalledAlgorithmError("safe set is empty")
    bounds = state._bounds
    if state.variant not in _WIDTH_VARIANTS:
        return int(safe_idx[np.argmax(bounds.upper[safe_idx])]), False
    cand = np.flatnonzero(state.m_mask | state.g_mask)
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
        self.problem = problem
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
        self._bounds: Optional[ConfidenceBounds] = None
        self._grid_tree: Optional[cKDTree] = None
        # Lipschitz expanders: nearest-outside distances of the safe points
        # and the safe mask they were computed for.
        self._outside_dist: Optional[np.ndarray] = None
        self._outside_dist_mask: Optional[np.ndarray] = None
        # Grid posterior of the Lipschitz-free variants, kept across steps:
        # mean, variance and std over the grid and V = L^-1 k(X, grid),
        # whose rows pair with the model's z. V's rows live in a
        # buffer sized for the longest possible run (the evaluation budget
        # plus the seeds), filled top-down; _v_grid views its first n rows.
        self._mean: Optional[np.ndarray] = None
        self._var: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._v_buffer: Optional[np.ndarray] = None
        self._v_grid: Optional[np.ndarray] = None
        self._max_rows = problem.eval_budget + len(seed_observations)
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

    def _bounds_at(self, idx: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        mu, sd = gp_posterior(self.model, self.grid.points[idx])
        lower[idx] = mu - self.beta * sd
        upper[idx] = mu + self.beta * sd

    def _update_lipschitz(self) -> None:
        n = self.grid.n_points
        lower = np.full(n, np.nan)
        upper = np.full(n, np.nan)
        prev_idx = np.flatnonzero(self.safe_mask)
        self._bounds_at(prev_idx, lower, upper)
        self._bounds = ConfidenceBounds(lower, upper)
        if self._grid_tree is None:
            self._grid_tree = cKDTree(self.grid.points)
        new_mask = update_safe_set_lipschitz(
            self.safe_mask,
            self._bounds,
            self.lipschitz,
            self.grid.points,
            self.threshold_z,
            tree=self._grid_tree,
        )
        if not new_mask.any():
            raise StalledAlgorithmError(
                "no previously-safe point can certify anything"
            )
        # Members of the previous safe set already hold their bounds.
        added = np.flatnonzero(new_mask & ~self.safe_mask)
        if added.size:
            self._bounds_at(added, lower, upper)
        self.safe_mask = new_mask

    def outside_distance(self, safe_mask: np.ndarray) -> np.ndarray:
        """``_nearest_outside_distance`` of ``safe_mask`` over the grid,
        recomputed only when the mask differs from the cached one's."""
        if not np.array_equal(safe_mask, self._outside_dist_mask):
            self._outside_dist = _nearest_outside_distance(safe_mask, self.grid.points)
            self._outside_dist_mask = safe_mask.copy()
        return self._outside_dist

    def _append_grid_row(self) -> None:
        """Grow the grid posterior by the model's newest training point.

        With the new factor row [l^T, d]: V gains the row
        (k(x, grid) - l^T V) / d, and with the model's newest weight z_n
        the mean and variance change by z_n * row and -row^2.
        """
        model = self.model
        n = model.n_train
        l, d = model.chol[-1, :-1], model.chol[-1, -1]
        row = kernel_matrix(self.kernel, model.train_points[-1:], self.grid.points)[0]
        row -= l @ self._v_grid
        row /= d
        self._v_buffer[n - 1] = row
        self._v_grid = self._v_buffer[:n]
        self._mean += model.z[-1] * row
        self._var -= np.square(row)

    def _solve_grid(self) -> None:
        """Grid posterior of the model from scratch, through one full solve."""
        model = self.model
        n = model.n_train
        mean, std, v = posterior_detail(model, self.grid.points)
        if self._v_buffer is None:
            # Column-major, so the expander test gathers grid columns of V
            # from contiguous memory.
            self._v_buffer = np.empty((self._max_rows, self.grid.n_points), order="F")
        self._v_buffer[:n] = v
        self._v_grid = self._v_buffer[:n]
        self._mean, self._var = mean, np.square(std)

    def _update_modified(self) -> None:
        # An extended model grows the previous step's model, which the
        # grid posterior was computed for, by one row.
        if self.model.extended:
            self._append_grid_row()
        else:
            self._solve_grid()
        mean = self._mean
        std = self._std = np.sqrt(np.clip(self._var, 0.0, None))
        self._bounds = ConfidenceBounds(mean - self.beta * std, mean + self.beta * std)
        self.safe_mask = update_safe_set_gp(
            self.safe_mask, self._bounds, self.threshold_z
        )

    def step(self, oracle: Oracle) -> Observation:
        """Run one iteration: refit, update sets, select, evaluate."""
        self._refit()
        if self.uses_lipschitz:
            self._update_lipschitz()
        else:
            self._update_modified()
        if self.variant in _WIDTH_VARIANTS:
            self.m_mask = compute_maximizers(self.safe_mask, self._bounds)
            self.g_mask = compute_expanders(self.safe_mask, self._bounds, self)
        else:
            self.m_mask[:] = False
            self.g_mask[:] = False
        idx, fallback = select_next(self)
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
