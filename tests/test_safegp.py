from pathlib import Path

import numpy as np
import pytest

from safeobench import harness, safegp
from safeobench.gp import (
    ConfidenceBounds,
    KernelSpec,
    gp_fit,
    gp_posterior,
    kernel_matrix,
    posterior_detail,
)
from safeobench.problems import Scenario, make_objective
from safeobench.safeop import (
    Grid,
    Observation,
    Oracle,
    SafeOpProblem,
    sample_safe_seeds,
)
from safeobench.safegp import (
    SafeGpOptimizer,
    _expanders_lipschitz,
    _expanders_modified,
    _nearest_outside_distance,
    boundary_candidates,
    compute_maximizers,
    select_next,
    update_safe_set_gp,
    update_safe_set_lipschitz,
)

# ---------------------------------------------------------------------------
# Independent oracles


def brute_force_lipschitz_update(prev_mask, lower, lipschitz, points, threshold):
    """The previous set plus an exhaustive scan over (previous member, grid
    point) pairs.

    One distance row per previous member against every point, with the
    per-pair expression of the plain double loop.
    """
    out = np.array(prev_mask, dtype=bool)
    for i in np.flatnonzero(prev_mask):
        d = np.sqrt(np.sum(np.square(points[i] - points), axis=1))
        out |= lower[i] - lipschitz * d >= threshold
    return out


def brute_force_nearest_outside(safe_mask, points):
    """Distance from each safe point to every outside point, then the least."""
    outside = points[~safe_mask]
    if outside.shape[0] == 0:
        return np.full(int(safe_mask.sum()), np.inf)
    return np.array(
        [
            np.sqrt(np.sum(np.square(points[c] - outside), axis=1)).min()
            for c in np.flatnonzero(safe_mask)
        ]
    )


def brute_force_lipschitz_expanders(safe_mask, upper, lipschitz, points, threshold):
    """any(u(c) - L * |c - o| >= h for o outside), one safe point c at a time."""
    out = np.zeros(len(safe_mask), dtype=bool)
    outside = points[~safe_mask]
    for c in np.flatnonzero(safe_mask):
        d = np.sqrt(np.sum(np.square(points[c] - outside), axis=1))
        out[c] = bool(np.any(upper[c] - lipschitz * d >= threshold))
    return out


def conditioned_lower_oracle(model, c, value_c, queries, beta):
    """Dense refit with a noiseless extra observation (c, value_c).

    Independent route: explicit joint covariance with heterogeneous noise
    and a plain dense inverse.
    """
    kernel = model.kernel

    def k(a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return kernel.signal_variance * np.exp(-0.5 * d2 / kernel.lengthscale**2)

    X = np.vstack([model.train_points, [c]])
    y = np.append(model.train_targets, value_c)
    noise = np.append(
        np.full(model.n_train, model.noise_variance), 0.0
    )
    kinv = np.linalg.inv(k(X, X) + np.diag(noise))
    kq = k(X, queries)
    mean = kq.T @ kinv @ y
    var = kernel.signal_variance - np.einsum("ij,ji->i", kq.T @ kinv, kq)
    return mean - beta * np.sqrt(np.clip(var, 0.0, None))


def reference_expanders_modified(
    safe_mask, shape, points, model, mean, std, beta, threshold, v_grid
):
    """The expander test written out per pair, as the optimizer once ran it.

    For each boundary candidate c and outside point u, in order of
    decreasing lower bound and in chunks of 2048 outside points: the
    conditioned mean mu_u + beta * cov / sd_c and variance
    var_u - cov^2 / var_c, clipped at 0, then the lower bound against the
    threshold.
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
    usable = var_c > 1e-12
    var_c = np.where(usable, var_c, 1.0)
    gain = beta / np.sqrt(var_c)
    outside = outside[np.argsort(-(mean[outside] - beta * std[outside]))]
    undecided = np.flatnonzero(usable)
    expands = np.zeros(cand.size, dtype=bool)
    for start in range(0, outside.size, 2048):
        if undecided.size == 0:
            break
        out_idx = outside[start : start + 2048]
        cross = kernel_matrix(model.kernel, points[cand[undecided]], points[out_idx])
        cross -= v_c[:, undecided].T @ v_grid[:, out_idx]
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


def expanders_modified(*args):
    """``_expanders_modified`` with a fresh row store, as on an optimizer's
    first expander test."""
    return _expanders_modified(*args, safegp._CovarianceRows(args[0].size))


def grid_of(*axes):
    """Grid over sorted ``axes``: their row-major product, zero values."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return Grid(axes=axes, points=points, values=np.zeros(len(points)))


def random_lipschitz_instance(rng):
    dim = int(rng.integers(1, 3))
    if dim == 1:
        n = int(rng.integers(2, 300))
        grid = grid_of(np.sort(rng.uniform(-5, 5, size=n)))
    else:
        nx, ny = int(rng.integers(2, 18)), int(rng.integers(2, 18))
        grid = grid_of(np.linspace(-5, 5, nx), np.linspace(-3, 4, ny))
        n = grid.n_points
    lower = rng.normal(0, 2, size=n)
    prev = np.zeros(n, dtype=bool)
    prev[rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)] = True
    lipschitz = float(rng.choice([0.01, 0.1, 1.0, 5.0, rng.uniform(0, 10)]))
    threshold = float(rng.normal(0, 1))
    return prev, lower, lipschitz, grid, threshold


def fake_bounds(lower, upper=None):
    lower = np.asarray(lower, dtype=float)
    if upper is None:
        upper = lower
    return ConfidenceBounds(lower=lower, upper=np.asarray(upper, dtype=float))


def lipschitz_expanders(safe_mask, bounds, lipschitz, shape, points, threshold):
    dist = _nearest_outside_distance(safe_mask, shape, points)
    return _expanders_lipschitz(
        np.flatnonzero(safe_mask), bounds, lipschitz, dist, threshold
    )


# ---------------------------------------------------------------------------


class TestLipschitzSafeSetUpdate:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            prev, lower, L, grid, h = random_lipschitz_instance(rng)
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(lower), L, grid, h
            )
            want = brute_force_lipschitz_update(prev, lower, L, grid.points, h)
            np.testing.assert_array_equal(got, want)

    def test_result_contains_prev_on_random_instances(self):
        # whatever the bounds at the previous members, none of them drops
        # out; in every other instance no member reaches the threshold
        rng = np.random.default_rng(31)
        for trial in range(50):
            prev, lower, L, grid, h = random_lipschitz_instance(rng)
            if trial % 2:
                lower[prev] = h - rng.uniform(0.0, 5.0, size=int(prev.sum())) - 1e-9
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(lower), L, grid, h
            )
            assert got.dtype == bool and got.shape == prev.shape
            assert np.all(got[prev])

    def test_1d_worked_example(self):
        # grid {0..4}, prev = {2}, l(2) = 5, h = 3, L = 1:
        # 5 - |2 - x| >= 3 iff |2 - x| <= 2, so the whole grid is safe
        grid = grid_of(np.arange(5.0))
        prev = np.array([False, False, True, False, False])
        lower = np.array([np.nan, np.nan, 5.0, np.nan, np.nan])
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 3.0
        )
        assert got.all()

    def test_radius_rounded_below_an_edge_node(self):
        # l = 0.7 * 0.1 certifies the node at 0.1 with equality, but the
        # radius (l - h) / L rounds to just below 0.1
        grid = grid_of(np.linspace(0, 1, 11))
        prev = np.zeros(11, bool)
        prev[0] = True
        lower = np.full(11, np.nan)
        lower[0] = 0.7 * 0.1
        assert lower[0] / 0.7 < grid.axes[0][1]
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 0.7, grid, 0.0
        )
        np.testing.assert_array_equal(got, np.arange(11) < 2)

    def test_box_edge_rounded_onto_a_node(self):
        # around 1e8 the node spacing of float is 1.5e-8, so the padded
        # lower edge 1e8 - (1 + slack) rounds onto the node 1e8 - 1, which
        # the ball reaches exactly
        c = 1e8
        grid = grid_of(c + np.arange(-2.0, 3.0))
        prev = np.array([False, False, True, False, False])
        lower = np.array([np.nan, np.nan, 1.0, np.nan, np.nan])
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 0.0
        )
        np.testing.assert_array_equal(got, [False, True, True, True, False])

    def test_zero_lipschitz_rejected(self):
        grid = grid_of(np.arange(4.0))
        prev = np.array([True, False, False, False])
        lower = np.array([3.5, np.nan, np.nan, np.nan])
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="lipschitz"):
                update_safe_set_lipschitz(
                    np.flatnonzero(prev), fake_bounds(lower), bad, grid, 3.0
                )

    def test_huge_lipschitz_adds_nothing(self):
        grid = grid_of(np.linspace(0, 1, 6))
        prev = np.array([True, True, False, False, False, True])
        lower = np.full(6, np.nan)
        lower[[0, 1, 5]] = [4.0, 2.0, 3.5]  # member 1 is below h, and stays
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 1e9, grid, 3.0
        )
        np.testing.assert_array_equal(got, prev)

    def test_no_certifier_keeps_prev(self):
        grid = grid_of(np.arange(3.0))
        prev = np.array([True, True, False])
        lower = np.array([1.0, 2.0, np.nan])
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 3.0
        )
        np.testing.assert_array_equal(got, prev)

    def test_no_certifier_on_a_2d_grid_keeps_prev(self):
        # every member's lower bound is below h, one of them by a rounding
        # step: the box scan runs over no certifier at all
        grid = grid_of(np.linspace(0, 1, 4), np.linspace(-1, 1, 5))
        prev = np.zeros(grid.n_points, bool)
        prev[[0, 7, 19]] = True
        lower = np.full(grid.n_points, np.nan)
        lower[[0, 7, 19]] = [-2.0, np.nextafter(3.0, 0.0), 2.5]
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 0.5, grid, 3.0
        )
        assert got.dtype == bool and got.shape == (grid.n_points,)
        np.testing.assert_array_equal(got, prev)

    def test_empty_prev_rejected(self):
        grid = grid_of(np.arange(3.0))
        with pytest.raises(ValueError):
            update_safe_set_lipschitz(
                np.array([], dtype=np.intp), fake_bounds(np.zeros(3)), 1.0, grid, 0.0
            )

    def test_balls_larger_than_the_domain(self):
        # radii of 0 to 120 on a 10 x 7 domain: most boxes clip to the grid
        rng = np.random.default_rng(12)
        grid = grid_of(np.linspace(-5, 5, 9), np.linspace(-3, 4, 8))
        n = grid.n_points
        prev = np.zeros(n, bool)
        prev[rng.choice(n, size=10, replace=False)] = True
        lower = np.where(prev, rng.uniform(3, 9, n), np.nan)
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 0.05, grid, 3.0
        )
        want = brute_force_lipschitz_update(prev, lower, 0.05, grid.points, 3.0)
        np.testing.assert_array_equal(got, want)
        assert got.all()

    def test_irregular_axes_match_brute_force(self):
        # spacings that vary along each axis: a box taken as a fixed
        # number of nodes around the centre would miss or add nodes
        rng = np.random.default_rng(23)
        grid = grid_of(
            np.cumsum(rng.uniform(0.01, 1.0, size=25)),
            np.cumsum(rng.uniform(0.01, 1.0, size=21)),
        )
        n = grid.n_points
        for _ in range(20):
            prev = np.zeros(n, bool)
            prev[rng.choice(n, size=int(rng.integers(1, 30)), replace=False)] = True
            lower = rng.normal(0, 2, size=n)
            L = float(rng.uniform(0.2, 5))
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(lower), L, grid, 0.0
            )
            want = brute_force_lipschitz_update(prev, lower, L, grid.points, 0.0)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_radii_around_the_smallest_spacing(self, dim, uniform):
        # With L = 1 and h = 0 the radius is l itself. Just below the
        # smallest axis spacing a box reaches the nearest neighbours but
        # the ball does not; at it, a box edge lands exactly on a
        # neighbouring node, which stays inside; just above, the ball
        # holds it. Far smaller radii give boxes of their centre only.
        rng = np.random.default_rng(100 * dim + uniform)
        for _ in range(10):
            grid = random_rectilinear_grid(rng, dim, uniform)
            n = grid.n_points
            gaps = [np.diff(axis) for axis in grid.axes]
            spacing = min(g.min() for g in gaps)
            radii = [np.nextafter(spacing, 0.0), spacing, np.nextafter(spacing, np.inf),
                     0.25 * spacing, -1.0]
            prev = rng.random(n) < 0.3
            lower = np.where(prev, rng.choice(radii, size=n), np.nan)
            # One certifier at a node of the smallest gap, radius equal to
            # that gap: its neighbour across the gap is certified.
            k = next(k for k, g in enumerate(gaps) if g.min() == spacing)
            node = [int(rng.integers(size)) for size in grid.shape]
            node[k] = int(np.argmin(gaps[k]))
            c = int(np.ravel_multi_index(node, grid.shape))
            node[k] += 1
            neighbour = int(np.ravel_multi_index(node, grid.shape))
            prev[c], lower[c] = True, spacing
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 0.0
            )
            want = brute_force_lipschitz_update(prev, lower, 1.0, grid.points, 0.0)
            np.testing.assert_array_equal(got, want)
            assert got[neighbour]
            # Only centre-only boxes: they certify no point outside prev.
            centred = np.where(prev, np.minimum(lower, 0.25 * spacing), np.nan)
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(centred), 1.0, grid, 0.0
            )
            np.testing.assert_array_equal(got, prev)

    @pytest.mark.parametrize("offset", [0.0, -1e6, 1e6])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_spacing_pre_test_matches_brute_force(self, dim, offset):
        # Certifiers whose padded radius falls just below, at and just
        # above a quarter of the smallest spacing g, and at a neighbour's
        # distance g, on evenly spaced axes of their own spacing each and
        # on uneven ones, shifted by up to 1e6 where the ulp is 1.2e-10.
        # With L = 1 and h = 0 the padded radius is about l (1 + 2e-9).
        rng = np.random.default_rng(40 + 10 * dim + int(np.sign(offset)))
        for trial in range(12):
            axes = []
            for _ in range(dim):
                n = int(rng.integers(2, 12 if dim < 3 else 7))
                if trial % 2:
                    span = rng.uniform(0.5, 20.0)
                    axes.append(offset + np.linspace(-span, span, n))
                else:
                    axes.append(offset + np.cumsum(rng.uniform(0.05, 3.0, size=n)))
            grid = grid_of(*axes)
            g = grid.min_spacing
            q = 0.25 * g / (1.0 + 4e-9)  # a padded radius near g / 4
            radii = [np.nextafter(q, 0.0), q, np.nextafter(q, np.inf), 1.01 * q,
                     0.99 * q, g, np.nextafter(g, 0.0), 0.0]
            n = grid.n_points
            prev = rng.random(n) < 0.4
            prev[rng.integers(n)] = True
            lower = np.where(prev, rng.choice(radii, size=n), np.nan)
            got = update_safe_set_lipschitz(
                np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 0.0
            )
            want = brute_force_lipschitz_update(prev, lower, 1.0, grid.points, 0.0)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, -1e6, 1e6])
    def test_boxes_below_a_quarter_spacing_hold_their_centre_only(self, offset):
        # The float margin of the pre-test, on axes whose adjacent nodes
        # are as close as floats allow: 1 to 3 ulps apart around the
        # offset, then ordinary gaps. A box edge c +- r with r below a
        # quarter of the smallest gap finds c alone on its axis.
        axis = [offset - 2.0]
        for ulps in (1, 3, 2, 1):
            node = axis[-1]
            for _ in range(ulps):
                node = np.nextafter(node, np.inf)
            axis.append(node)
        axis = np.array(axis + [axis[-1] + 0.5, axis[-1] + 1.75])
        grid = grid_of(axis)
        g = grid.min_spacing
        assert g == axis[1] - axis[0] and axis[1] == np.nextafter(axis[0], np.inf)
        for r in (np.nextafter(0.25 * g, 0.0), 0.1 * g, 0.0):
            lo = np.searchsorted(axis, axis - r, side="left")
            hi = np.searchsorted(axis, axis + r, side="right")
            np.testing.assert_array_equal(lo, np.arange(axis.size))
            np.testing.assert_array_equal(hi, np.arange(axis.size) + 1)
        prev = np.ones(axis.size, dtype=bool)
        prev[[2, 5]] = False
        lower = np.where(prev, np.nextafter(0.25 * g, 0.0) / (1 + 4e-9), np.nan)
        got = update_safe_set_lipschitz(
            np.flatnonzero(prev), fake_bounds(lower), 1.0, grid, 0.0
        )
        want = brute_force_lipschitz_update(prev, lower, 1.0, grid.points, 0.0)
        np.testing.assert_array_equal(got, want)

    def test_styblinski_run_has_only_centre_only_boxes(self, monkeypatch):
        # Pins the traffic of safeopt run 0 on the paper's Styblinski-Tang
        # s1 config: every certifier's ball, padded well beyond the
        # update's float slack, stays inside its centre's box of one node,
        # so each safe set is exactly its certifiers.
        path = Path(__file__).resolve().parents[1] / "configs" / "styblinski_s1.json"
        plan = harness.make_plan(
            harness.normalize_config(harness.load_config(path)), ["safeopt"], 1
        )
        update = safegp.update_safe_set_lipschitz
        calls = []

        def spy(safe_idx, bounds, lipschitz, grid, threshold):
            got = update(safe_idx, bounds, lipschitz, grid, threshold)
            prev_mask = np.zeros(grid.n_points, dtype=bool)
            prev_mask[safe_idx] = True
            certified = prev_mask & (bounds.lower >= threshold)
            radius = (bounds.lower[certified] - threshold) / lipschitz
            spacing = min(np.diff(axis).min() for axis in grid.axes)
            assert np.all(radius * (1 + 1e-6) + 1e-6 < spacing)
            np.testing.assert_array_equal(got, certified)
            calls.append(int(certified.sum()))
            return got

        monkeypatch.setattr(safegp, "update_safe_set_lipschitz", spy)
        result = harness.run(plan, "safeopt", 0)
        assert result.termination == "budget_exhausted"
        assert len(calls) == len(result.records) - plan.config["problem"]["n_seeds"]
        assert sum(calls) > len(calls)  # boxes of several certifiers per call

    def test_sphere_run_safe_set_never_shrinks(self):
        # safeopt run 15 on the paper's sphere-95 config: a rebuilt safe
        # set, which keeps only the points certified now, lost 38 points
        # in one step of it (504 -> 466)
        path = Path(__file__).resolve().parents[1] / "configs" / "sphere.json"
        plan = harness.make_plan(
            harness.normalize_config(harness.load_config(path)), ["safeopt"], 16
        )
        result = harness.run(plan, "safeopt", 15)
        assert result.termination == "budget_exhausted"
        sizes = [d["safe_size"] for d in result.diagnostics]
        assert len(sizes) == len(result.records) - plan.config["problem"]["n_seeds"]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] > sizes[0]


class TestGpSafeSetUpdate:
    def test_all_below_threshold_keeps_prev(self):
        prev = np.array([True, False, True])
        got = update_safe_set_gp(prev, fake_bounds([-1.0, -2.0, -3.0]), 5.0)
        np.testing.assert_array_equal(got, prev)

    def test_prior_only_wide_threshold(self):
        # zero-mean prior with s = 1, beta = 2: l = -2 >= h = -3 everywhere
        bounds = fake_bounds(np.full(11, -2.0), np.full(11, 2.0))
        prev = np.zeros(11, bool)
        prev[5] = True
        assert update_safe_set_gp(prev, bounds, -3.0).all()

    def test_infinite_threshold_keeps_prev(self):
        prev = np.array([False, True])
        got = update_safe_set_gp(prev, fake_bounds([0.0, 0.0]), np.inf)
        np.testing.assert_array_equal(got, prev)

    def test_monotone_union(self):
        rng = np.random.default_rng(3)
        prev = rng.random(50) < 0.3
        prev[0] = True
        got = update_safe_set_gp(prev, fake_bounds(rng.normal(size=50)), 0.2)
        assert np.all(got[prev])


class TestMaximizers:
    def test_singleton(self):
        safe = np.array([False, True, False])
        m = compute_maximizers(
            np.flatnonzero(safe),
            fake_bounds([np.nan, 1.0, np.nan], [np.nan, 2.0, np.nan]),
        )
        np.testing.assert_array_equal(m, safe)

    def test_identical_bounds_select_all(self):
        safe = np.ones(4, bool)
        m = compute_maximizers(np.flatnonzero(safe), fake_bounds([1.0] * 4, [2.0] * 4))
        np.testing.assert_array_equal(m, safe)

    def test_worked_example(self):
        # (l, u) = (0,1), (2,3), (-1, 2.5): max l = 2, M = points 2 and 3
        safe = np.ones(3, bool)
        m = compute_maximizers(
            np.flatnonzero(safe), fake_bounds([0.0, 2.0, -1.0], [1.0, 3.0, 2.5])
        )
        np.testing.assert_array_equal(m, [False, True, True])

    def test_restricted_to_safe(self):
        safe = np.array([True, False, True])
        m = compute_maximizers(
            np.flatnonzero(safe), fake_bounds([0.0, 99.0, 1.0], [5.0, 100.0, 2.0])
        )
        assert not m[1]
        assert m.sum() >= 1


class TestLipschitzExpanders:
    def test_full_grid_safe_has_no_expanders(self):
        pts = np.arange(3.0).reshape(-1, 1)
        g = lipschitz_expanders(np.ones(3, bool), fake_bounds([1.0] * 3), 1.0, (3,), pts, 0.0)
        assert not g.any()

    def test_zero_lipschitz(self):
        pts = np.arange(3.0).reshape(-1, 1)
        safe = np.array([True, True, False])
        bounds = fake_bounds([np.nan] * 3, [1.0, -5.0, np.nan])
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="lipschitz"):
                lipschitz_expanders(safe, bounds, bad, (3,), pts, 0.0)

    def test_1d_worked_example(self):
        # S = {1}, u(1) = 4, h = 3: with L = 2, 4 - 2*1 = 2 < 3 (no);
        # with L = 0.5, 4 - 0.5 = 3.5 >= 3 (yes)
        pts = np.arange(3.0).reshape(-1, 1)
        safe = np.array([False, True, False])
        bounds = fake_bounds([np.nan] * 3, [np.nan, 4.0, np.nan])
        assert not lipschitz_expanders(safe, bounds, 2.0, (3,), pts, 3.0)[1]
        assert lipschitz_expanders(safe, bounds, 0.5, (3,), pts, 3.0)[1]

    def test_subset_of_safe(self):
        rng = np.random.default_rng(5)
        grid = grid_of(np.sort(rng.uniform(-2, 2, 6)), np.sort(rng.uniform(-2, 2, 10)))
        safe = rng.random(60) < 0.4
        safe[0] = True
        bounds = fake_bounds(np.zeros(60), rng.normal(1, 1, 60))
        g = lipschitz_expanders(safe, bounds, 1.0, grid.shape, grid.points, 0.5)
        assert np.all(safe[g])

    def test_matches_brute_force_on_random_instances(self):
        # 1-D scattered points and 2-D grids; every fifth safe set is the
        # whole grid, the others cover 5% to 95% of it.
        rng = np.random.default_rng(19)
        n_expanders = n_safe = 0
        for trial in range(40):
            _, upper, L, grid, h = random_lipschitz_instance(rng)
            pts, n = grid.points, grid.n_points
            if trial % 5 == 0:
                safe = np.ones(n, dtype=bool)
            else:
                safe = rng.random(n) < rng.uniform(0.05, 0.95)
                safe[rng.integers(n)] = True
            bounds = fake_bounds(np.zeros(n), upper)
            got = lipschitz_expanders(safe, bounds, L, grid.shape, pts, h)
            want = brute_force_lipschitz_expanders(safe, upper, L, pts, h)
            np.testing.assert_array_equal(got, want)
            n_expanders += int(got.sum())
            n_safe += int(safe.sum())
        assert 0 < n_expanders < n_safe  # both outcomes are exercised

    @pytest.mark.parametrize("margin, expands", [(0.0, True), (-1e-9, False)])
    def test_equal_distance_ties(self, margin, expands):
        # Integer grids, so every distance is exact. 1-D: the safe point 3
        # has outside points 2 and 4 at distance 1. 2-D, a safe 3x3 block
        # in a 5x5 grid: the centre has four outside points at distance 2,
        # each corner two at distance 1, each edge middle one at distance 1.
        # u(c) = h + L * d(c) sits exactly on the certification boundary.
        L, h = 2.0, 1.0
        line = np.arange(7.0).reshape(-1, 1)
        mesh = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
        square = np.stack([m.ravel() for m in mesh], axis=1)
        cases = (
            ((7,), line, np.arange(7) == 3, np.ones(7)),
            (
                (5, 5),
                square,
                (np.abs(square - 2.0) <= 1.0).all(axis=1),
                np.where((square == 2.0).all(axis=1), 2.0, 1.0),
            ),
        )
        for shape, pts, safe, dist in cases:
            upper = np.where(safe, h + L * dist + margin, np.nan)
            bounds = fake_bounds(np.zeros(len(pts)), upper)
            got = lipschitz_expanders(safe, bounds, L, shape, pts, h)
            want = brute_force_lipschitz_expanders(safe, upper, L, pts, h)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, safe if expands else np.zeros_like(safe))


def random_rectilinear_grid(rng, dim, uniform):
    """A grid of 2 to 14 nodes per axis: evenly spaced, or sorted uniform
    draws over scales from 1e-2 to 1e2 per axis."""
    axes = []
    for _ in range(dim):
        n = int(rng.integers(2, 15 if dim < 3 else 9))
        if uniform:
            lo = rng.uniform(-5, 0)
            axes.append(np.linspace(lo, lo + rng.uniform(0.5, 10), n))
        else:
            axes.append(np.sort(rng.uniform(-1, 1, size=n)) * 10.0 ** rng.uniform(-2, 2))
    return grid_of(*axes)


class TestNearestOutsideDistance:
    """``_nearest_outside_distance`` scans only the outer boundary of the
    safe set; it must equal the least distance over every outside node,
    bit for bit."""

    @staticmethod
    def assert_matches_brute_force(safe, grid):
        got = _nearest_outside_distance(safe, grid.shape, grid.points)
        want = brute_force_nearest_outside(safe, grid.points)
        assert got.tobytes() == want.tobytes()
        return got

    @staticmethod
    def masks(rng, grid):
        """Random, ball-shaped and edge-touching safe sets, the whole grid
        and the whole grid but one node."""
        pts, n = grid.points, grid.n_points
        centre = pts[rng.integers(n)]
        radius = rng.uniform(0.1, 0.7) * np.ptp(pts, axis=0).max()
        edge = pts[:, 0] <= np.median(grid.axes[0])
        one_out = np.ones(n, dtype=bool)
        one_out[rng.integers(n)] = False
        return [
            rng.random(n) < rng.uniform(0.05, 0.95),
            np.linalg.norm(pts - centre, axis=1) <= radius,
            edge,
            edge & (np.abs(pts[:, -1] - centre[-1]) <= radius),
            np.ones(n, dtype=bool),
            one_out,
        ]

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_brute_force_on_random_grids(self, dim, uniform):
        rng = np.random.default_rng(60 + 10 * dim + uniform)
        n_finite = 0
        for _ in range(12):
            grid = random_rectilinear_grid(rng, dim, uniform)
            for safe in self.masks(rng, grid):
                got = self.assert_matches_brute_force(safe, grid)
                n_finite += int(np.isfinite(got).sum())
        assert n_finite > 0

    def test_all_safe_and_one_outside_node(self):
        grid = grid_of(np.arange(4.0), [0.0, 0.5, 4.0])
        safe = np.ones(12, dtype=bool)
        assert np.all(self.assert_matches_brute_force(safe, grid) == np.inf)
        safe[4] = False  # node (1, 0.5)
        got = self.assert_matches_brute_force(safe, grid)
        inside = np.flatnonzero(safe)
        assert got[inside == 3][0] == 0.5  # node (1, 0)
        assert got[inside == 1][0] == 1.0  # node (0, 0.5)

    def test_the_nearest_node_is_off_axis(self):
        # On a 2 x 3 grid spaced 1 and 10 apart, node (0, 0) has safe axis
        # neighbours; its nearest outside node (1, 10) is diagonal, nearer
        # than the outside node (0, 20) on its own axis.
        grid = grid_of([0.0, 1.0], np.arange(3) * 10.0)
        safe = np.array([True, True, False, True, False, True])
        got = self.assert_matches_brute_force(safe, grid)
        assert got[0] == np.sqrt(101.0)

    def test_small_blocks(self, monkeypatch):
        monkeypatch.setattr(safegp, "_BLOCK", 3)
        rng = np.random.default_rng(8)
        for dim in (1, 2, 3):
            grid = random_rectilinear_grid(rng, dim, uniform=False)
            for safe in self.masks(rng, grid):
                self.assert_matches_brute_force(safe, grid)


class TestBoundaryCandidates:
    def test_block_boundary(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        cand = boundary_candidates(mask.reshape(-1), (5, 5))
        cand_2d = {divmod(int(i), 5) for i in cand}
        # the 3x3 block's ring is boundary, its center is interior
        assert (2, 2) not in cand_2d
        assert cand_2d == {
            (i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (2, 2)
        }

    def test_full_mask_has_no_boundary(self):
        mask = np.ones(12, dtype=bool)
        assert boundary_candidates(mask, (3, 4)).size == 0

    def test_1d(self):
        mask = np.array([True, True, False, True])
        np.testing.assert_array_equal(boundary_candidates(mask, (4,)), [1, 3])


class TestModifiedExpanders:
    def _setup(self, seed, n_grid=20):
        rng = np.random.default_rng(seed)
        pts = np.linspace(-3, 3, n_grid).reshape(-1, 1)
        kernel = KernelSpec(lengthscale=0.8, signal_variance=2.0)
        train = rng.uniform(-1, 1, size=(5, 1))
        targets = rng.normal(size=5)
        model = gp_fit(kernel, 0.05, train, targets)
        mean, std = gp_posterior(model, pts)
        safe = np.zeros(n_grid, bool)
        center = n_grid // 2
        safe[center - 2 : center + 3] = True
        return pts, model, mean, std, safe

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_refit_oracle(self, seed):
        pts, model, mean, std, safe = self._setup(seed)
        beta, h = 2.0, float(np.percentile(mean, 60))
        got = expanders_modified(
            safe, (pts.shape[0],), pts, model, mean, std, beta, h,
            posterior_detail(model, pts)[2],
        )
        outside = np.flatnonzero(~safe)
        for c in boundary_candidates(safe, (pts.shape[0],)):
            u_c = mean[c] + beta * std[c]
            lower = conditioned_lower_oracle(model, pts[c], u_c, pts[outside], beta)
            margin = float(lower.max() - h)
            if abs(margin) > 1e-8:
                assert got[c] == (margin >= 0)

    def test_conditioning_values_match_oracle(self):
        # the closed-form rank-one update must equal a dense refit
        pts, model, mean, std, safe = self._setup(11)
        beta = 2.0
        outside = np.flatnonzero(~safe)
        cand = boundary_candidates(safe, (pts.shape[0],))
        c = int(cand[0])
        u_c = mean[c] + beta * std[c]
        oracle_lower = conditioned_lower_oracle(model, pts[c], u_c, pts[outside], beta)

        _, _, v_all = posterior_detail(model, pts)
        cross = (
            kernel_matrix(model.kernel, pts[[c]], pts[outside])
            - v_all[:, [c]].T @ v_all[:, outside]
        )[0]
        var_c = std[c] ** 2
        new_mean = mean[outside] + cross * beta / np.sqrt(var_c)
        new_var = np.clip(std[outside] ** 2 - cross**2 / var_c, 0.0, None)
        mine = new_mean - beta * np.sqrt(new_var)
        np.testing.assert_allclose(mine, oracle_lower, atol=1e-8)

    def test_no_outside_points(self):
        pts = np.arange(4.0).reshape(-1, 1)
        model = gp_fit(KernelSpec(), 0.1, [[0.0]], [1.0])
        mean, std = gp_posterior(model, pts)
        g = expanders_modified(
            np.ones(4, bool), (4,), pts, model, mean, std, 2.0, 0.0,
            posterior_detail(model, pts)[2],
        )
        assert not g.any()

    @staticmethod
    def assert_matches_oracle(pts, shape, model, mean, std, safe, beta, h):
        """Expanders against a dense refit per boundary candidate whose
        variance is above the floor; returns how many of those do not
        expand and how many do."""
        got = expanders_modified(
            safe, shape, pts, model, mean, std, beta, h, posterior_detail(model, pts)[2]
        )
        outside = np.flatnonzero(~safe)
        cand = boundary_candidates(safe, shape)
        usable = np.square(std[cand]) > safegp._VAR_FLOOR
        assert not got[np.setdiff1d(np.arange(safe.size), cand[usable])].any()
        decided = [0, 0]
        for c in cand[usable]:
            u_c = mean[c] + beta * std[c]
            lower = conditioned_lower_oracle(model, pts[c], u_c, pts[outside], beta)
            margin = float(lower.max() - h)
            if abs(margin) > 1e-8:
                assert got[c] == (margin >= 0), c
                decided[margin >= 0] += 1
        return decided

    @pytest.mark.parametrize(
        "blocks", [None, (1, 0, 100), (1, 1, 100)],
        ids=["default-blocks", "small-blocks", "one-row-small-blocks"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_2d_matches_dense_refit_oracle(self, seed, blocks, monkeypatch):
        # More liftable outside points than the first block, more rows x
        # columns than one block holds, and one outside point whose lower
        # bound already reaches h (t_u in (-sqrt 2, -1]). With small blocks
        # most expanders are decided past a first block of one: by the
        # blocks computed on the fly, with no kept row or with one.
        if blocks:
            monkeypatch.setattr(safegp, "_FIRST_BLOCK", blocks[0])
            monkeypatch.setattr(safegp, "_ROW_CAP", blocks[1])
            monkeypatch.setattr(safegp, "_BLOCK", blocks[2])
        rng = np.random.default_rng(seed)
        axis = np.linspace(-3, 3, 48)
        pts = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        model = gp_fit(
            KernelSpec(lengthscale=0.8, signal_variance=2.0),
            0.05,
            rng.uniform(-1.5, 1.5, size=(8, 2)),
            rng.normal(size=8),
        )
        mean, std = gp_posterior(model, pts)
        beta = 2.0
        safe = np.linalg.norm(pts - [0.3, -0.2], axis=1) < 1.2
        outside = np.flatnonzero(~safe)
        lower = mean - beta * std
        top = outside[np.argmax(lower[outside])]
        h = float(lower[top] - 0.01 * beta * std[top])

        t = (h - mean[outside]) / (beta * std[outside])
        assert np.sum(t <= -1) == 1 and t.min() > -np.sqrt(2)
        assert np.sum(t <= 1) > safegp._FIRST_BLOCK
        n_cand = boundary_candidates(safe, (48, 48)).size
        assert n_cand * pts.shape[0] > safegp._BLOCK
        n_no, n_yes = self.assert_matches_oracle(
            pts, (48, 48), model, mean, std, safe, beta, h
        )
        assert n_no > 0 and n_yes > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beta_zero(self, seed):
        # Bounds collapse to the mean and observing the mean moves nothing:
        # every usable candidate expands iff some outside mean reaches h.
        pts, model, mean, std, safe = self._setup(seed)
        outside_best = float(mean[~safe].max())
        cases = ((outside_best - 0.1, True), (outside_best, True), (outside_best + 0.1, False))
        for h, expands in cases:
            got = expanders_modified(
                safe, (pts.shape[0],), pts, model, mean, std, 0.0, h,
                posterior_detail(model, pts)[2],
            )
            want = np.zeros_like(safe)
            if expands:
                want[boundary_candidates(safe, (pts.shape[0],))] = True
            np.testing.assert_array_equal(got, want)
            self.assert_matches_oracle(
                pts, (pts.shape[0],), model, mean, std, safe, 0.0, h
            )

    @pytest.mark.parametrize("target", [-3.0, 3.0], ids=["below-h", "at-or-above-h"])
    def test_zero_std_at_an_outside_point(self, target):
        # A noiseless training point outside the safe set: its variance
        # clips to 0, so no observation moves its bound, which is its mean.
        # Below h it is never lifted; at or above h every candidate lifts it.
        pts = np.linspace(-3, 3, 20).reshape(-1, 1)
        train = np.array([[-0.4], [0.1], [0.6], [pts[15, 0]]])
        model = gp_fit(KernelSpec(lengthscale=0.8, signal_variance=2.0), 0.0, train,
                       [0.5, -0.2, 0.3, target])
        mean, std = gp_posterior(model, pts)
        std[15] = 0.0
        safe = np.zeros(20, bool)
        safe[8:13] = True
        h = 0.0
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = expanders_modified(
                safe, (20,), pts, model, mean, std, 2.0, h, posterior_detail(model, pts)[2]
            )
        cand = boundary_candidates(safe, (20,))
        if target > h:
            assert got[cand].all()
        self.assert_matches_oracle(pts, (20,), model, mean, std, safe, 2.0, h)

    def test_lift_through_the_lower_root(self):
        # A noiseless observation midway between c and u makes them strongly
        # anti-correlated: rho = -exp(-d^2 / l^2) = -0.951. u is outside but
        # its lower bound already reaches h, with t_u = -1.4: conditioning
        # keeps it there iff rho >= -0.6 or rho <= -0.8, so c expands only
        # through the lower root. The far points at +-10 have t = 1.5.
        d, beta, h = 0.2236, 1.0, 1.5
        pts = np.array([[-10.0], [-d], [0.0], [d], [10.0]])
        sd_u = np.sqrt(1.0 - np.exp(-d * d))
        y = (h + 1.4 * beta * sd_u) * np.exp(d * d / 2)
        model = gp_fit(KernelSpec(lengthscale=1.0, signal_variance=1.0), 0.0, [[0.0]], [y])
        mean, std = gp_posterior(model, pts)
        safe = np.array([False, True, True, False, False])
        need, low = safegp._lift_thresholds(safe, mean, std, beta, h)
        np.testing.assert_allclose([need[3] / std[3], low[3] / std[3]], [-0.6, -0.8])
        got = expanders_modified(
            safe, (5,), pts, model, mean, std, beta, h, posterior_detail(model, pts)[2]
        )
        np.testing.assert_array_equal(got, [False, True, False, False, False])
        assert self.assert_matches_oracle(pts, (5,), model, mean, std, safe, beta, h) == [0, 1]

    def test_last_grid_column_decides(self, monkeypatch):
        # The one outside point c can lift is the last grid index; the far
        # point at -10 has the higher lower bound, so it alone fills a first
        # block of one. Without a kept row the blocks of two columns must
        # reach the final one; a kept row must span it.
        monkeypatch.setattr(safegp, "_FIRST_BLOCK", 1)
        monkeypatch.setattr(safegp, "_BLOCK", 2)
        pts = np.array([[-10.0], [-1.0], [0.0], [0.3]])
        model = gp_fit(KernelSpec(lengthscale=1.0, signal_variance=1.0), 0.1, [[-1.0]], [-0.5])
        mean, std = gp_posterior(model, pts)
        safe = np.array([False, False, True, False])
        lower = mean - std
        assert lower[0] > lower[3]
        for cap in (0, 1):
            monkeypatch.setattr(safegp, "_ROW_CAP", cap)
            rows = safegp._CovarianceRows(4)
            got = _expanders_modified(
                safe, (4,), pts, model, mean, std, 1.0, 0.0, posterior_detail(model, pts)[2], rows
            )
            np.testing.assert_array_equal(got, safe)
            assert list(rows.slot) == [2] * cap
        assert self.assert_matches_oracle(pts, (4,), model, mean, std, safe, 1.0, 0.0) == [0, 1]

    def test_thresholds_match_the_direct_condition(self):
        # c lifts u iff rho - sqrt(1 - rho^2) >= t_u, rho = cov / (sd_c sd_u)
        rho = np.linspace(-1.0, 1.0, 4001)
        direct = rho - np.sqrt(1.0 - np.square(rho))
        ts = np.concatenate([np.linspace(-1.6, 1.2, 57), [-np.sqrt(2), -1.0, 1.0]])
        sd_u = 0.7
        safe = np.zeros(ts.size, bool)
        safe[-1] = True  # safe points are never lifted
        mean = 1.0 - 2.0 * sd_u * ts
        need, low = safegp._lift_thresholds(safe, mean, np.full(ts.size, sd_u), 2.0, 1.0)
        assert need[-1] == np.inf
        for t, need_u, low_u in zip(ts[:-1], need[:-1], low[:-1]):
            lifted = (rho * sd_u >= need_u) | (rho * sd_u <= low_u)
            clear = np.abs(direct - t) > 1e-9
            np.testing.assert_array_equal(lifted[clear], (direct >= t)[clear])
            assert (low_u > -np.inf) == (-np.sqrt(2) < t <= -1.0)


class TestReferenceExpanders:
    """``_expanders_modified`` against ``reference_expanders_modified`` at
    every step of msafeopt runs on the paper's configs, and each kept
    covariance row against a fresh k(c, grid) - v_c^T V both when the
    step's test starts (downdated since the last step) and when it ends
    (new rows filled)."""

    @staticmethod
    def assert_rows_fresh(points, model, v_grid, rows):
        for c, i in rows.slot.items():
            fresh = kernel_matrix(model.kernel, points[[c]], points)[0] - v_grid[:, c] @ v_grid
            np.testing.assert_allclose(rows.buffer[i], fresh, rtol=0, atol=1e-9)

    def run_checked(self, config, noise_std, monkeypatch):
        """Run 0 of msafeopt with every step checked; returns the number of
        rows kept from the previous step at each step."""
        path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        cfg = harness.load_config(path)
        cfg["problem"]["noise_std"] = noise_std
        plan = harness.make_plan(harness.normalize_config(cfg), ["msafeopt"], 1)
        fast = safegp._expanders_modified
        masks, carried = [], []

        def both(*args):
            points, model, v_grid, rows = args[2], args[3], args[8], args[9]
            self.assert_rows_fresh(points, model, v_grid, rows)
            carried.append(len(rows.slot))
            got = fast(*args)
            self.assert_rows_fresh(points, model, v_grid, rows)
            assert len(rows.slot) <= safegp._ROW_CAP
            np.testing.assert_array_equal(got, reference_expanders_modified(*args[:9]))
            masks.append(got)
            return got

        monkeypatch.setattr(safegp, "_expanders_modified", both)
        result = harness.run(plan, "msafeopt", 0)
        assert result.termination == "budget_exhausted"
        assert len(masks) == len(result.records) - plan.config["problem"]["n_seeds"]
        assert sum(int(m.sum()) for m in masks) > 0
        return carried

    @pytest.mark.parametrize("noise_std", [0.1, 0.0])
    @pytest.mark.parametrize("config", ["sphere", "styblinski_s1"])
    def test_same_masks_every_step(self, config, noise_std, monkeypatch):
        carried = self.run_checked(config, noise_std, monkeypatch)
        assert max(carried) > 0

    @pytest.mark.parametrize("cap", [0, 1])
    def test_candidates_past_the_cap(self, cap, monkeypatch):
        # About 45 candidates per step are undecided after the first block
        # on Styblinski-Tang s1, so all but ``cap`` take the blocks.
        monkeypatch.setattr(safegp, "_ROW_CAP", cap)
        assert max(self.run_checked("styblinski_s1", 0.1, monkeypatch)) == cap

    def test_every_undecided_candidate_keeps_a_row(self, monkeypatch):
        # Most steps of this run have more than 32 candidates undecided
        # after the first block; at _ROW_CAP every one of them gets a row,
        # so no step computes rows in blocks.
        claims = []
        claim = safegp._CovarianceRows.claim

        def spy(rows, idx):
            missing = sum(c not in rows.slot for c in idx.tolist())
            free, new = claim(rows, idx)
            claims.append((idx.size, missing, len(new)))
            return free, new

        monkeypatch.setattr(safegp._CovarianceRows, "claim", spy)
        self.run_checked("styblinski_s1", 0.1, monkeypatch)
        assert [m for _, m, granted in claims if m != granted] == []
        assert 2 * sum(size > 32 for size, _, _ in claims) > len(claims)

    def test_refactorization_drops_the_kept_rows(self, monkeypatch):
        # As in test_reevaluated_noiseless_point_forces_a_refactorization:
        # the first seed evaluated again without noise gives l = (s, 0, ...)
        # and d^2 = s^2 - l.l = 0 exactly (s = 2), so the next step cannot
        # extend the factor and refactors it with jitter.
        problem = small_sphere_problem(noise=0.0)
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer("msafeopt", problem, seed_obs)
        fast = safegp._expanders_modified
        kept_on_entry = []

        def spy(*args):
            kept_on_entry.append(len(args[9].slot))
            return fast(*args)

        monkeypatch.setattr(safegp, "_expanders_modified", spy)
        while not opt._cov_rows.slot:
            opt.step(oracle)
        evaluate = oracle.evaluate
        oracle.evaluate = lambda point: evaluate(opt._points[0])
        opt.step(oracle)
        del oracle.evaluate
        assert kept_on_entry[-1] > 0 and not opt.diagnostics[-1]["gp_refactored"]
        opt.step(oracle)
        assert opt.diagnostics[-1]["gp_refactored"] and opt.model.jitter > 0.0
        assert kept_on_entry[-1] == 0
        assert opt._cov_rows.slot  # refilled for the refactored model
        self.assert_rows_fresh(problem.grid.points, opt.model, opt._v, opt._cov_rows)


class TestSelectNext:
    def test_ucb_takes_max_upper(self):
        safe = np.array([True, True, True, False])
        bounds = fake_bounds([0.0] * 4, [1.0, 3.0, 2.0, 9.0])
        none = np.zeros(4, bool)
        idx, fb = select_next("safe-ucb", np.flatnonzero(safe), bounds, none, none)
        assert (idx, fb) == (1, False)

    def test_width_tie_breaks_to_lowest_index(self):
        safe = np.ones(3, bool)
        bounds = fake_bounds([0.0, 0.0, 0.0], [1.0, 1.0, 0.5])
        m = np.array([True, True, False])
        idx, fb = select_next(
            "safeopt", np.flatnonzero(safe), bounds, m, np.zeros(3, bool)
        )
        assert (idx, fb) == (0, False)

    def test_singleton_safe_set(self):
        safe = np.array([False, True])
        bounds = fake_bounds([np.nan, 0.0], [np.nan, 1.0])
        m = np.array([False, True])
        none = np.zeros(2, bool)
        idx, _ = select_next("safeopt", np.flatnonzero(safe), bounds, m, none)
        assert idx == 1
        idx, _ = select_next("msafe-ucb", np.flatnonzero(safe), bounds, none, none)
        assert idx == 1

    def test_fallback_when_both_sets_empty(self):
        safe = np.array([True, True, False])
        bounds = fake_bounds([0.0, -1.0, np.nan], [0.5, 1.0, np.nan])
        none = np.zeros(3, bool)
        idx, fb = select_next("msafeopt", np.flatnonzero(safe), bounds, none, none)
        assert fb is True
        assert idx == 1  # widest over the safe set

    def test_empty_safe_set_raises(self):
        none = np.zeros(3, bool)
        with pytest.raises(ValueError, match="safe set is empty"):
            select_next(
                "safeopt", np.flatnonzero(none), fake_bounds([0.0] * 3), none, none
            )


# ---------------------------------------------------------------------------
# Integration


def small_sphere_problem(noise=0.1, budget=30, percentile=90.0):
    return SafeOpProblem(
        make_objective("sphere"),
        nodes_per_axis=30,
        percentile=percentile,
        noise_std=noise,
        eval_budget=budget,
    )


def primed(problem, n_seeds=5, master=123):
    oracle = Oracle(problem, np.random.default_rng(master))
    seeds = sample_safe_seeds(problem, n_seeds, np.random.default_rng(master + 1))
    return oracle, oracle.prime(seeds)


@pytest.mark.parametrize("variant", ["safeopt", "safe-ucb", "msafeopt", "msafe-ucb"])
class TestOptimizerIntegration:
    def test_run_and_invariants(self, variant):
        problem = small_sphere_problem()
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer(variant, problem, seed_obs)
        seed_idx = [problem.grid.index_of(o.point) for o in seed_obs]
        first = True
        prev_mask = opt.safe_mask.copy()
        while oracle.running:
            opt.step(oracle)
            assert opt.safe_mask.any()
            diag = opt.diagnostics[-1]
            assert opt.safe_mask[diag["chosen_index"]]
            assert np.all(opt.safe_mask[opt.m_mask])  # M subset of S
            assert np.all(opt.safe_mask[opt.g_mask])  # G subset of S
            if first:
                assert all(opt.safe_mask[i] for i in seed_idx)
                first = False
            assert np.all(opt.safe_mask[prev_mask])  # monotone
            prev_mask = opt.safe_mask.copy()
        assert len(oracle.log) == problem.eval_budget
        for obs in oracle.log:
            problem.grid.index_of(obs.point)  # all queries are grid nodes

    def test_deterministic_query_sequence(self, variant):
        problem = small_sphere_problem()
        seqs = []
        for _ in range(2):
            oracle, seed_obs = primed(problem)
            opt = SafeGpOptimizer(variant, problem, seed_obs)
            while oracle.running:
                opt.step(oracle)
            seqs.append([o.point for o in oracle.log])
        assert seqs[0] == seqs[1]


class TestKeptSafeIndices:
    """After every step of runs 0-2 of both paper configs: the kept safe
    indices are the safe mask's, the maximizer and expander masks lie in
    the safe set (``select_next`` reads them there only), and the cached
    nearest-outside distances are a fresh computation's."""

    @pytest.mark.parametrize("variant", ["safeopt", "safe-ucb", "msafeopt", "msafe-ucb"])
    @pytest.mark.parametrize("config", ["sphere", "styblinski_s1"])
    def test_invariants_at_every_step(self, config, variant, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        plan = harness.make_plan(
            harness.normalize_config(harness.load_config(path)), [variant], 3
        )
        step = SafeGpOptimizer.step
        sizes = []

        def checked_step(opt, oracle):
            obs = step(opt, oracle)
            np.testing.assert_array_equal(opt.safe_idx, np.flatnonzero(opt.safe_mask))
            assert np.all(opt.safe_mask[opt.m_mask])
            assert np.all(opt.safe_mask[opt.g_mask])
            if opt.uses_lipschitz:
                grid = opt.grid
                fresh = _nearest_outside_distance(opt.safe_mask, grid.shape, grid.points)
                assert opt.outside_distance().tobytes() == fresh.tobytes()
            assert opt.diagnostics[-1]["safe_size"] == opt.safe_idx.size
            sizes.append(opt.safe_idx.size)
            return obs

        monkeypatch.setattr(SafeGpOptimizer, "step", checked_step)
        for run_index in range(3):
            result = harness.run(plan, variant, run_index)
            assert result.termination == "budget_exhausted"
        assert len(sizes) == 3 * 90
        if config == "sphere":
            assert max(sizes) > 10  # the safe set grows past the seeds


class TestIncrementalGridPosterior:
    @pytest.mark.parametrize("variant", ["safeopt", "safe-ucb", "msafeopt", "msafe-ucb"])
    def test_matches_a_full_refit_after_every_step(self, variant):
        # The Lipschitz variants' safe set stays at the seeds at the 90th
        # percentile and grows at the 50th, where the posterior at added
        # points is checked too. They track their safe set, in the order
        # its points turned safe, and keep each V column in the next slot.
        percentile = 50.0 if variant in ("safeopt", "safe-ucb") else 90.0
        problem = small_sphere_problem(budget=25, percentile=percentile)
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer(variant, problem, seed_obs)
        safe_grown = tracked_grown = False
        while oracle.running:
            n_tracked = problem.grid.points[opt._track].shape[0]
            opt.step(oracle)
            model = opt.model
            refit = gp_fit(model.kernel, model.noise_variance, model.train_points,
                           model.train_targets)
            safe = opt.safe_mask
            safe_grown |= safe.sum() > len(seed_obs)
            mean, std = gp_posterior(refit, problem.grid.points[safe])
            np.testing.assert_allclose(opt._bounds.lower[safe], mean - opt.beta * std,
                                       atol=1e-10)
            np.testing.assert_allclose(opt._bounds.upper[safe], mean + opt.beta * std,
                                       atol=1e-10)
            tracked = problem.grid.points[opt._track]
            tracked_grown |= tracked.shape[0] > n_tracked
            if opt.uses_lipschitz:
                np.testing.assert_array_equal(np.sort(opt._track), np.flatnonzero(safe))
            else:
                assert tracked.shape[0] == problem.grid.n_points
            mean, std, v = posterior_detail(refit, tracked)
            np.testing.assert_allclose(opt._mean, mean, atol=1e-10)
            np.testing.assert_allclose(opt._std, std, atol=1e-10)
            np.testing.assert_allclose(opt._v_buffer[:model.n_train, :v.shape[1]], v,
                                       atol=1e-10)
        assert safe_grown
        assert tracked_grown == opt.uses_lipschitz
        diags = opt.diagnostics
        assert len(diags) == 20
        assert [d["gp_refactored"] for d in diags] == [True] + [False] * 19
        assert all(d["gp_jitter"] == 0.0 for d in diags)

    @pytest.mark.parametrize("variant", ["msafe-ucb", "safe-ucb"])
    def test_reevaluated_noiseless_point_forces_a_refactorization(self, variant):
        # One seed just above the threshold and one far below it in the
        # grid's far corner: only the first is certified after the first
        # step, so the optimizer evaluates it again. The duplicate row has
        # d^2 = 4 - (4 / 2)^2 - 0^2 = 0 exactly (the far seed's entry of l
        # cancels), the extension breaks down and the jitter ladder takes
        # over. safe-ucb keeps the low seed safe, although it certifies
        # nothing, and tracks exactly its safe set.
        problem = small_sphere_problem(noise=0.0)
        grid = problem.grid
        i = int(np.flatnonzero(grid.values >= problem.threshold)[0])
        j = grid.n_points - 1
        seeds = [
            Observation(point=tuple(grid.points[k]), y=problem.threshold + dy,
                        f_true=grid.values[k], is_unsafe=dy < 0, step_index=s,
                        bsf_true=grid.values[k])
            for s, (k, dy) in enumerate([(i, 1e-3), (j, -50.0)], start=1)
        ]
        opt = SafeGpOptimizer(variant, problem, seeds)
        oracle = Oracle(problem, np.random.default_rng(0))
        for _ in range(3):
            opt.step(oracle)
            model = opt.model
            refit = gp_fit(model.kernel, model.noise_variance, model.train_points,
                           model.train_targets)
            mean, std, _ = posterior_detail(refit, grid.points[opt._track])
            np.testing.assert_allclose(opt._mean, mean, atol=1e-10)
            np.testing.assert_allclose(opt._std, std, atol=1e-10)
        first, second, third = opt.diagnostics
        assert first["chosen_index"] == i
        assert (first["gp_refactored"], first["gp_jitter"]) == (True, 0.0)
        assert second["gp_refactored"] and second["gp_jitter"] > 0.0
        assert third["gp_refactored"]  # a jittered factor is never extended
        if opt.uses_lipschitz:
            assert opt.safe_mask[j]
            np.testing.assert_array_equal(np.sort(opt._track), np.flatnonzero(opt.safe_mask))


class TestTrainingBuffers:
    """Each model sees the optimizer's training history, as a list of the
    observations so far would give it, through views of buffers that grow
    by one row per step."""

    @staticmethod
    def assert_history(model, transform, points, ys):
        want_x = np.asarray(points, dtype=float)
        want_y = transform.forward(ys)
        assert model.train_points.shape == want_x.shape
        assert model.train_points.tobytes() == want_x.tobytes()
        assert model.train_targets.shape == want_y.shape
        assert model.train_targets.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("variant", ["safeopt", "safe-ucb", "msafeopt", "msafe-ucb"])
    def test_every_model_sees_the_history(self, variant):
        problem = small_sphere_problem(budget=25, percentile=50.0)
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer(variant, problem, seed_obs)
        points = [o.point for o in seed_obs]
        ys = [o.y for o in seed_obs]
        while oracle.running:
            obs = opt.step(oracle)
            self.assert_history(opt.model, opt.transform, points, ys)
            assert opt.model.extended == (len(opt.diagnostics) > 1)
            points.append(obs.point)
            ys.append(obs.y)
        assert len(points) == 25

    @pytest.mark.parametrize("variant", ["msafe-ucb", "safe-ucb"])
    def test_refactorization_sees_the_history(self, variant):
        # The setup of test_reevaluated_noiseless_point_forces_a_refactorization:
        # the re-evaluated noiseless seed breaks the extension down, and the
        # full refits factorize the buffers' rows.
        problem = small_sphere_problem(noise=0.0)
        grid = problem.grid
        i = int(np.flatnonzero(grid.values >= problem.threshold)[0])
        j = grid.n_points - 1
        seeds = [
            Observation(point=tuple(grid.points[k]), y=problem.threshold + dy,
                        f_true=grid.values[k], is_unsafe=dy < 0, step_index=s,
                        bsf_true=grid.values[k])
            for s, (k, dy) in enumerate([(i, 1e-3), (j, -50.0)], start=1)
        ]
        opt = SafeGpOptimizer(variant, problem, seeds)
        oracle = Oracle(problem, np.random.default_rng(0))
        points = [o.point for o in seeds]
        ys = [o.y for o in seeds]
        for _ in range(3):
            obs = opt.step(oracle)
            model = opt.model
            self.assert_history(model, opt.transform, points, ys)
            fresh = gp_fit(model.kernel, model.noise_variance, np.asarray(points),
                           opt.transform.forward(ys))
            assert model.chol.tobytes() == fresh.chol.tobytes()
            assert model.z.tobytes() == fresh.z.tobytes()
            points.append(obs.point)
            ys.append(obs.y)
        assert [d["gp_refactored"] for d in opt.diagnostics] == [True] * 3
        assert points[2] == points[0]


class TestLipschitzExpanderCache:
    # On the sphere at the 50th percentile the safe set grows on most
    # steps; on Styblinski-Tang s1 it stays at the seeds.
    @pytest.mark.parametrize(
        "objective, percentile, scenario, grows",
        [
            ("sphere", 50.0, Scenario.NONE, True),
            ("styblinski-tang", 75.0, Scenario.S1, False),
        ],
    )
    def test_cached_distances_match_brute_force(
        self, objective, percentile, scenario, grows, monkeypatch
    ):
        computed = []
        nearest = safegp._nearest_outside_distance

        def counting(safe_mask, *args):
            computed.append(safe_mask.copy())
            return nearest(safe_mask, *args)

        monkeypatch.setattr(safegp, "_nearest_outside_distance", counting)
        problem = SafeOpProblem(
            make_objective(objective),
            nodes_per_axis=30,
            percentile=percentile,
            noise_std=0.1,
            eval_budget=25,
            scenario=scenario,
        )
        pts = problem.grid.points
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer("safeopt", problem, seed_obs)
        masks = []
        while oracle.running:
            opt.step(oracle)
            want = brute_force_lipschitz_expanders(
                opt.safe_mask, opt._bounds.upper, opt.lipschitz, pts, opt.threshold_z
            )
            np.testing.assert_array_equal(opt.g_mask, want)
            np.testing.assert_array_equal(computed[-1], opt.safe_mask)
            dist = brute_force_nearest_outside(opt.safe_mask, pts)
            assert opt.outside_distance().tobytes() == dist.tobytes()
            masks.append(opt.safe_mask.copy())
        changes = 1 + sum(not np.array_equal(a, b) for a, b in zip(masks, masks[1:]))
        if grows:
            assert changes >= 10
            assert any(d["n_expanders"] for d in opt.diagnostics)
        else:
            assert changes == 1
        # One distance computation per distinct safe mask.
        assert len(computed) == changes


class TestVBufferSize:
    # V's buffer holds a row for each training point the run can reach,
    # which the oracle decides, not the problem's evaluation budget.
    @pytest.mark.parametrize("variant", ["msafeopt", "safeopt"])
    def test_oracle_budget_above_the_problem_budget(self, variant):
        problem = SafeOpProblem(make_objective("sphere"), nodes_per_axis=20,
                                percentile=90.0, noise_std=0.1, eval_budget=20)
        oracle = Oracle(problem, np.random.default_rng(0), budget=40)
        seeds = sample_safe_seeds(problem, 3, np.random.default_rng(1))
        opt = SafeGpOptimizer(variant, problem, oracle.prime(seeds))
        while oracle.running:
            opt.step(oracle)
        assert len(oracle.log) == 40
        assert opt._v_buffer.shape[0] == 40

    @pytest.mark.parametrize("seeds_consume_budget", [True, False])
    @pytest.mark.parametrize("variant", ["msafeopt", "safe-ucb"])
    def test_rows_are_the_max_run_length(self, variant, seeds_consume_budget, monkeypatch):
        cfg = harness.normalize_config({"problem": {
            "nodes_per_axis": 20, "eval_budget": 12, "n_seeds": 4,
            "seeds_consume_budget": seeds_consume_budget,
        }})
        built = []
        build = harness._build_optimizer

        def keep(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(harness, "_build_optimizer", keep)
        result = harness.run(harness.make_plan(cfg, [variant], 1), variant, 0)
        assert result.n_steps == harness.max_run_length(cfg)
        assert built[0]._v_buffer.shape[0] == harness.max_run_length(cfg)


class TestOptimizerConstruction:
    def test_lipschitz_required(self):
        # a 2x2 grid on the symmetric sphere domain is flat: estimate L = 0
        flat = SafeOpProblem(
            make_objective("sphere"),
            nodes_per_axis=2,
            percentile=100.0,
            noise_std=0.0,
            eval_budget=5,
        )
        assert flat.lipschitz == 0.0
        _, seed_obs = primed(flat, n_seeds=2)
        for variant in ("safeopt", "safe-ucb"):
            with pytest.raises(ValueError, match="lipschitz"):
                SafeGpOptimizer(variant, flat, seed_obs)
        SafeGpOptimizer("msafeopt", flat, seed_obs)  # fine without

    def test_unknown_variant(self):
        problem = small_sphere_problem()
        _, seed_obs = primed(problem)
        with pytest.raises(ValueError, match="unknown variant"):
            SafeGpOptimizer("stageopt", problem, seed_obs)

    def test_noiseless_sphere_run_never_unsafe(self):
        problem = small_sphere_problem(noise=0.0)
        oracle, seed_obs = primed(problem)
        opt = SafeGpOptimizer("safeopt", problem, seed_obs)
        while oracle.running:
            opt.step(oracle)
        assert oracle.unsafe_used == 0

    def test_seeds_that_certify_nothing_stay_the_safe_set(self):
        problem = small_sphere_problem(noise=0.0)
        grid = problem.grid
        # craft seed observations far below the threshold: no seed
        # certifies anything, at the first refit or later, since each
        # query re-observes an unsafe seed
        idx = [0, 1]
        obs = [
            Observation(
                point=tuple(grid.points[i]),
                y=problem.threshold - 50.0 - i,
                f_true=grid.values[i],
                is_unsafe=True,
                step_index=i + 1,
                bsf_true=grid.values[i],
            )
            for i in idx
        ]
        opt = SafeGpOptimizer("safeopt", problem, obs)
        oracle = Oracle(problem, np.random.default_rng(0))
        while oracle.running:
            opt.step(oracle)
            np.testing.assert_array_equal(np.flatnonzero(opt.safe_mask), idx)
        assert oracle.termination.value == "budget_exhausted"
        assert len(oracle.log) == problem.eval_budget
        assert {grid.index_of(o.point) for o in oracle.log} <= set(idx)
