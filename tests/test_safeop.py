import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeobench.problems import Objective, Scenario, make_objective
from safeobench.safeop import (
    Grid,
    InfeasibleScenarioError,
    Oracle,
    SafeOpProblem,
    TerminatedRunError,
    TerminationReason,
    discretize,
    estimate_lipschitz,
    make_problem,
    percentile_threshold,
    sample_safe_seeds,
)


def custom_objective(fn, batch_fn, dimension=2, bounds=None):
    return Objective(
        name="custom",
        dimension=dimension,
        bounds=tuple(bounds or [(-5.0, 5.0)] * dimension),
        fn=fn,
        batch_fn=batch_fn,
    )


def grid_from_values(values):
    """1-D stand-in grid for percentile tests."""
    values = np.asarray(values, dtype=float)
    axis = np.arange(values.size, dtype=float)
    return Grid(axes=(axis,), points=axis.reshape(-1, 1), values=values)


@pytest.fixture(scope="module")
def sphere_grid_500():
    return discretize(make_objective("sphere"), 500)


class TestDiscretize:
    def test_full_scale_grid(self, sphere_grid_500):
        assert sphere_grid_500.n_points == 250_000
        assert sphere_grid_500.shape == (500, 500)

    def test_two_nodes_gives_corners(self):
        grid = discretize(make_objective("sphere"), 2)
        corners = {(-5.0, -5.0), (-5.0, 5.0), (5.0, -5.0), (5.0, 5.0)}
        assert {tuple(p) for p in grid.points} == corners

    def test_1d_eleven_nodes(self):
        obj = custom_objective(
            lambda x: float(x[0]),
            lambda xs: xs[:, 0].copy(),
            dimension=1,
        )
        grid = discretize(obj, 11)
        assert np.array_equal(grid.axes[0], np.arange(-5.0, 6.0))

    def test_row_major_order(self):
        grid = discretize(make_objective("sphere"), 3)
        expected = [
            (-5.0, -5.0), (-5.0, 0.0), (-5.0, 5.0),
            (0.0, -5.0), (0.0, 0.0), (0.0, 5.0),
            (5.0, -5.0), (5.0, 0.0), (5.0, 5.0),
        ]
        assert [tuple(p) for p in grid.points] == expected

    def test_values_cached(self):
        obj = make_objective("sphere")
        grid = discretize(obj, 5)
        for p, v in zip(grid.points, grid.values):
            assert obj.eval(p) == v

    def test_too_few_nodes(self):
        with pytest.raises(ValueError, match=">= 2"):
            discretize(make_objective("sphere"), 1)

    def test_index_of(self):
        grid = discretize(make_objective("sphere"), 7)
        for i in (0, 13, 48):
            assert grid.index_of(tuple(grid.points[i])) == i
        with pytest.raises(KeyError):
            grid.index_of((0.123, 0.456))


class TestPercentileThreshold:
    def test_maximum(self):
        assert percentile_threshold(grid_from_values([10, 20, 30, 40]), 100) == 40

    def test_median_rule(self):
        # ceil(0.5 * 4) = 2nd sorted element
        assert percentile_threshold(grid_from_values([10, 20, 30, 40]), 50) == 20

    def test_95th_of_range(self):
        # ceil(0.95 * 100) = 95th sorted element of 0..99 = 94
        assert percentile_threshold(grid_from_values(np.arange(100)), 95) == 94

    def test_bad_k(self):
        g = grid_from_values([1.0, 2.0])
        for k in (0.0, -1.0, 100.5):
            with pytest.raises(ValueError):
                percentile_threshold(g, k)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=37)
        a = percentile_threshold(grid_from_values(vals), 72.5)
        b = percentile_threshold(grid_from_values(vals[::-1].copy()), 72.5)
        assert a == b

    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(0.5, 100.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fraction_below_threshold(self, n, k, seed):
        # with distinct values: frac strictly below h in (k/100 - 1/n, k/100]
        rng = np.random.default_rng(seed)
        vals = rng.permutation(np.arange(n, dtype=float) + rng.random())
        h = percentile_threshold(grid_from_values(vals), k)
        frac = np.mean(vals < h)
        assert frac <= k / 100.0 + 1e-12
        assert frac >= k / 100.0 - 1.0 / n - 1e-12


class TestEstimateLipschitz:
    def test_constant_objective(self):
        obj = custom_objective(lambda x: 1.5, lambda xs: np.full(len(xs), 1.5))
        assert estimate_lipschitz(discretize(obj, 20)) == 0.0

    def test_linear_objective_exact(self):
        obj = custom_objective(lambda x: float(x[0]), lambda xs: xs[:, 0].copy())
        for n in (10, 37, 101):
            assert estimate_lipschitz(discretize(obj, n)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_sphere_closed_form(self, sphere_grid_500):
        # |grad f| = 2 |x|, maximized at the corners: 2 * sqrt(50)
        expected = 2.0 * math.sqrt(50.0)
        assert estimate_lipschitz(sphere_grid_500) == pytest.approx(
            expected, rel=0.02
        )

    def test_1d_grid(self):
        obj = custom_objective(
            lambda x: float(x[0] ** 2),
            lambda xs: xs[:, 0] ** 2,
            dimension=1,
        )
        # derivative 2x, max 10 at the edges; one-sided estimate slightly low
        assert estimate_lipschitz(discretize(obj, 201)) == pytest.approx(10.0, rel=0.02)


def small_problem(**kw):
    defaults = dict(
        objective=make_objective("sphere"),
        nodes_per_axis=100,
        percentile=95.0,
        noise_std=0.1,
        eval_budget=100,
    )
    defaults.update(kw)
    return make_problem(**defaults)


class TestProblemConstruction:
    def test_threshold_matches_percentile(self):
        prob = small_problem()
        assert prob.threshold == percentile_threshold(prob.grid, prob.percentile)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_problem(noise_std=-0.1)
        with pytest.raises(ValueError):
            small_problem(eval_budget=0)
        with pytest.raises(ValueError):
            small_problem(safety_budget=-1)
        with pytest.raises(ValueError, match="only valid"):
            small_problem(scenario=Scenario.S1)

    def test_lipschitz_cached(self):
        prob = small_problem()
        assert prob.lipschitz == prob.lipschitz
        assert prob.lipschitz == pytest.approx(2 * math.sqrt(50), rel=0.02)

    def test_inconsistent_threshold_rejected(self):
        grid = discretize(make_objective("sphere"), 20)
        with pytest.raises(ValueError, match="percentile"):
            SafeOpProblem(
                objective=make_objective("sphere"),
                grid=grid,
                noise_std=0.1,
                threshold=123.0,
                percentile=95.0,
                eval_budget=10,
            )


class TestSampleSafeSeeds:
    def test_margin_predicate_exact(self):
        prob = small_problem()
        rng = np.random.default_rng(11)
        for x in sample_safe_seeds(prob, 10, rng):
            f = prob.objective.eval(x)
            assert f - prob.noise_std * prob.seed_confidence >= prob.threshold

    def test_seeds_distinct_and_on_grid(self):
        prob = small_problem()
        seeds = sample_safe_seeds(prob, 10, np.random.default_rng(1))
        assert len(set(seeds)) == 10
        for s in seeds:
            prob.grid.index_of(s)  # raises if off-grid

    def test_membership_in_enumerated_eligible_set(self):
        prob = small_problem()
        eligible = {
            tuple(p)
            for p, v in zip(prob.grid.points, prob.grid.values)
            if v - prob.noise_std * prob.seed_confidence >= prob.threshold
        }
        seeds = sample_safe_seeds(prob, 10, np.random.default_rng(5))
        assert set(seeds) <= eligible
        for s in seeds:
            assert prob.objective.eval(s) >= prob.threshold + 0.196 - 1e-12

    def test_scenario_s1_quadrant(self):
        prob = make_problem(
            make_objective("styblinski-tang"),
            nodes_per_axis=100,
            percentile=75.0,
            noise_std=0.1,
            eval_budget=100,
            scenario=Scenario.S1,
        )
        for x in sample_safe_seeds(prob, 10, np.random.default_rng(2)):
            assert x[0] > 0 and x[1] > 0

    def test_scenario_s3_split(self):
        prob = make_problem(
            make_objective("styblinski-tang"),
            nodes_per_axis=100,
            percentile=65.0,
            noise_std=0.1,
            eval_budget=100,
            scenario=Scenario.S3,
        )
        seeds = sample_safe_seeds(prob, 5, np.random.default_rng(3))
        top_left = sum(1 for x in seeds if x[0] < 0 and x[1] > 0)
        bottom_right = sum(1 for x in seeds if x[0] > 0 and x[1] < 0)
        assert (top_left, bottom_right) == (3, 2)

    def test_infeasible_names_region(self):
        prob = make_problem(
            make_objective("styblinski-tang"),
            nodes_per_axis=20,
            percentile=99.9,
            noise_std=0.1,
            eval_budget=100,
            scenario=Scenario.S1,
        )
        with pytest.raises(InfeasibleScenarioError, match="s1"):
            sample_safe_seeds(prob, 400, np.random.default_rng(0))

    def test_determinism(self):
        prob = small_problem()
        a = sample_safe_seeds(prob, 10, np.random.default_rng(42))
        b = sample_safe_seeds(prob, 10, np.random.default_rng(42))
        assert a == b


def noiseless_problem(**kw):
    return small_problem(noise_std=0.0, **kw)


class TestOracle:
    def test_noiseless_safe_evaluation(self):
        prob = noiseless_problem()
        oracle = Oracle(prob, np.random.default_rng(0))
        obs = oracle.evaluate((0.0, 0.0))  # f = 0 >= h
        assert obs.y == prob.objective.eval((0.0, 0.0))
        assert obs.f_true == obs.y
        assert not obs.is_unsafe
        assert obs.step_index == 1

    def test_unsafe_flag_is_observed_value(self):
        prob = noiseless_problem()
        oracle = Oracle(prob, np.random.default_rng(0))
        obs = oracle.evaluate((5.0, 5.0))  # f = -50 < h
        assert obs.is_unsafe

    def test_zero_safety_budget_terminates_after_recording(self):
        prob = noiseless_problem(safety_budget=0)
        oracle = Oracle(prob, np.random.default_rng(0))
        obs = oracle.evaluate((5.0, 5.0))
        assert obs.is_unsafe
        assert len(oracle.log) == 1
        assert oracle.termination is TerminationReason.SAFETY_EXHAUSTED
        with pytest.raises(TerminatedRunError):
            oracle.evaluate((0.0, 0.0))

    def test_budget_exhaustion_and_error_on_next(self):
        prob = noiseless_problem(eval_budget=100)
        oracle = Oracle(prob, np.random.default_rng(0))
        for _ in range(100):
            oracle.evaluate((0.0, 0.0))
        assert oracle.termination is TerminationReason.BUDGET_EXHAUSTED
        assert len(oracle.log) == 100
        with pytest.raises(TerminatedRunError):
            oracle.evaluate((0.0, 0.0))

    def test_out_of_bounds(self):
        oracle = Oracle(noiseless_problem(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="outside"):
            oracle.evaluate((6.0, 0.0))

    def test_counters_match_log(self):
        prob = small_problem(safety_budget=None)
        oracle = Oracle(prob, np.random.default_rng(9))
        pts = [(0.0, 0.0), (5.0, 5.0), (1.0, 1.0), (4.0, -4.0)]
        for p in pts:
            oracle.evaluate(p)
        assert len(oracle.log) == 4
        assert oracle.unsafe_used == sum(o.is_unsafe for o in oracle.log)
        f = [o.f_true for o in oracle.log]
        assert [o.bsf_true for o in oracle.log] == [max(f[: t + 1]) for t in range(4)]

    def test_determinism_bitwise(self):
        prob = small_problem()
        pts = [(0.1010101010101010e1, 0.0), (0.0, 0.0), (2.0, 2.0)]
        logs = []
        for _ in range(2):
            oracle = Oracle(prob, np.random.default_rng(314159))
            logs.append([oracle.evaluate(p).y for p in pts])
        assert logs[0] == logs[1]

    def test_finite_budget_at_most_b_plus_one_unsafe(self):
        prob = small_problem(safety_budget=2)
        oracle = Oracle(prob, np.random.default_rng(1))
        while oracle.running:
            oracle.evaluate((5.0, 5.0))  # always unsafe
        assert oracle.unsafe_used == 3  # B + 1
        assert oracle.termination is TerminationReason.SAFETY_EXHAUSTED


class TestPriming:
    def test_counts(self):
        prob = small_problem()
        oracle = Oracle(prob, np.random.default_rng(0))
        seeds = sample_safe_seeds(prob, 10, np.random.default_rng(0))
        obs = oracle.prime(seeds)
        assert len(obs) == 10
        assert len(oracle.log) == 10
        assert [o.step_index for o in obs] == list(range(1, 11))

    def test_noiseless_seeds_all_safe(self):
        prob = noiseless_problem()
        oracle = Oracle(prob, np.random.default_rng(0))
        seeds = sample_safe_seeds(prob, 10, np.random.default_rng(0))
        assert not any(o.is_unsafe for o in oracle.prime(seeds))

    def test_remaining_budget_after_two_seeds(self):
        prob = small_problem(eval_budget=100)
        oracle = Oracle(prob, np.random.default_rng(0))
        oracle.prime(sample_safe_seeds(prob, 2, np.random.default_rng(0)))
        assert oracle.effective_budget - len(oracle.log) == 98

    def test_seeds_exempt_from_budget_when_configured(self):
        prob = small_problem(eval_budget=5)
        oracle = Oracle(prob, np.random.default_rng(0), seeds_consume_budget=False)
        oracle.prime(sample_safe_seeds(prob, 3, np.random.default_rng(0)))
        for _ in range(5):
            oracle.evaluate((0.0, 0.0))
        assert not oracle.running
        assert len(oracle.log) == 8

    def test_empty_seed_list_rejected(self):
        oracle = Oracle(small_problem(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            oracle.prime([])
