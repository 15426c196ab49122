import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeobench.problems import (
    Scenario,
    make_objective,
    objective_names,
    scenario_mask,
    validate_scenario,
)


def sphere_oracle(x):
    # independent scalar route: plain python accumulation
    return -sum(float(c) * float(c) for c in x)


def styblinski_term(c):
    return -0.5 * (c**4 - 16.0 * c**2 + 5.0 * c)


class TestSphere:
    def test_origin_is_zero(self):
        obj = make_objective("sphere")
        assert obj.eval((0.0, 0.0)) == 0.0

    def test_hand_values(self):
        obj = make_objective("sphere")
        assert obj.eval((3.0, 4.0)) == pytest.approx(sphere_oracle((3, 4)), abs=1e-12)
        assert obj.eval((3.0, 4.0)) == -25.0
        assert obj.eval((-5.0, -5.0)) == -50.0

    @given(
        st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_independent_oracle(self, coords):
        obj = make_objective("sphere", dimension=len(coords))
        assert obj.eval(coords) == pytest.approx(
            sphere_oracle(coords), rel=1e-12, abs=1e-12
        )

    def test_dimension_mismatch(self):
        obj = make_objective("sphere", dimension=2)
        with pytest.raises(ValueError):
            obj.eval((1.0, 2.0, 3.0))

    def test_nonfinite_rejected(self):
        obj = make_objective("sphere")
        with pytest.raises(ValueError):
            obj.eval((np.nan, 0.0))

    def test_grid_argmax_is_origin(self):
        # sphere maximized uniquely at the origin on any symmetric grid
        axis = np.linspace(-5, 5, 21)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        obj = make_objective("sphere")
        vals = obj.eval_batch(pts)
        best = pts[np.argmax(vals)]
        assert tuple(best) == (0.0, 0.0)


class TestStyblinskiTang:
    def test_global_optimum_value(self):
        obj = make_objective("styblinski-tang")
        assert obj.eval((-2.903534, -2.903534)) == pytest.approx(78.33198, abs=1e-3)

    def test_origin(self):
        obj = make_objective("styblinski-tang")
        assert obj.eval((0.0, 0.0)) == 0.0

    def test_corner_value(self):
        # per dimension at 5: 625 - 400 + 25 = 250, f = -(250 + 250) / 2
        obj = make_objective("styblinski-tang")
        assert obj.eval((5.0, 5.0)) == -250.0

    @given(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    )
    def test_separable(self, a, b):
        whole = make_objective("styblinski-tang").eval((a, b))
        parts = styblinski_term(a) + styblinski_term(b)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-9)

    def test_four_quadrant_maxima(self):
        # brute-force argmax within each open quadrant of a fine grid must
        # be a strict local maximum among its 8 neighbors
        n = 201
        axis = np.linspace(-5, 5, n)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        obj = make_objective("styblinski-tang")
        vals = obj.eval_batch(np.stack([xx.ravel(), yy.ravel()], axis=1))
        vals = vals.reshape(n, n)
        quadrants = [
            (axis < 0, axis < 0),
            (axis < 0, axis > 0),
            (axis > 0, axis < 0),
            (axis > 0, axis > 0),
        ]
        peaks = []
        for mx, my in quadrants:
            masked = np.where(np.outer(mx, my), vals, -np.inf)
            i, j = np.unravel_index(np.argmax(masked), masked.shape)
            assert 0 < i < n - 1 and 0 < j < n - 1
            center = vals[i, j]
            neighborhood = vals[i - 1 : i + 2, j - 1 : j + 2].copy()
            neighborhood[1, 1] = -np.inf
            assert np.all(center > neighborhood)
            peaks.append((axis[i], axis[j], center))
        # global maximum sits in the (-,-) quadrant
        best = max(peaks, key=lambda p: p[2])
        assert best[0] < 0 and best[1] < 0

    def test_optimum_fields_consistent(self):
        for name in objective_names():
            obj = make_objective(name)
            assert obj.eval(obj.optimum_location) == pytest.approx(
                obj.optimum_value, abs=1e-6
            )


class TestPurityAndBatch:
    @pytest.mark.parametrize("name", ["sphere", "styblinski-tang"])
    def test_repeated_calls_bit_identical(self, name):
        obj = make_objective(name)
        x = (1.234567, -3.9876)
        assert obj.eval(x) == obj.eval(x)

    @pytest.mark.parametrize("name", ["sphere", "styblinski-tang"])
    def test_batch_matches_scalar(self, name):
        # dimensions on both sides of numpy's 8-wide unrolled summation,
        # magnitudes up to 1e6 and signed zeros; equal bit for bit
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 8, 9, 17, 33):
            obj = make_objective(name, dimension=d, bounds=[(-1e6, 1e6)] * d)
            scale = 10.0 ** rng.uniform(-3, 6, size=(64, 1))
            pts = np.vstack([
                rng.uniform(-1, 1, size=(64, d)) * scale,
                np.zeros((1, d)),
                np.full((1, d), -0.0),
                np.full((1, d), 1e6),
            ])
            batch = obj.eval_batch(pts)
            for row, v in zip(pts, batch):
                assert np.float64(obj.eval(row)).tobytes() == v.tobytes()


class TestContains:
    OBJ = make_objective("sphere", dimension=2, bounds=[(-1.0, 2.0), (-3.0, 4.0)])

    def test_interior_point(self):
        assert self.OBJ.contains((0.5, 0.0))
        assert self.OBJ.contains(np.array([0.5, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        assert not self.OBJ.contains((bad, 0.0))
        assert not self.OBJ.contains((0.0, bad))

    @pytest.mark.parametrize("x", [(), (0.0,), (0.0, 0.0, 0.0)])
    def test_wrong_length_rejected(self, x):
        assert not self.OBJ.contains(x)
        assert not self.OBJ.contains(np.asarray(x, dtype=float))

    def test_exact_bounds_inclusive(self):
        for corner in ((-1.0, -3.0), (-1.0, 4.0), (2.0, -3.0), (2.0, 4.0)):
            assert self.OBJ.contains(corner)

    def test_one_ulp_outside_rejected(self):
        bounds = self.OBJ.bounds
        for axis, (lo, hi) in enumerate(bounds):
            for edge, away in ((lo, -np.inf), (hi, np.inf)):
                x = [0.0, 0.0]
                x[axis] = float(np.nextafter(edge, away))
                assert not self.OBJ.contains(tuple(x))
                x[axis] = float(np.nextafter(edge, -away))
                assert self.OBJ.contains(tuple(x))


class TestRegistry:
    def test_names(self):
        assert set(objective_names()) >= {"sphere", "styblinski-tang"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown objective"):
            make_objective("rosenbrock")

    def test_custom_dimension_and_bounds(self):
        obj = make_objective("sphere", dimension=3, bounds=[(-1, 1)] * 3)
        assert obj.dimension == 3
        assert obj.bounds == ((-1, 1), (-1, 1), (-1, 1))

    def test_default_bounds_and_optimum(self):
        sphere = make_objective("sphere", dimension=3)
        assert sphere.bounds == ((-5.0, 5.0),) * 3
        assert sphere.optimum_location == (0.0,) * 3
        assert np.copysign(1.0, sphere.optimum_value) == 1.0  # 0.0, not -0.0
        st_obj = make_objective("styblinski-tang")
        assert st_obj.optimum_location == (-2.903534, -2.903534)
        assert st_obj.optimum_value == st_obj.eval(st_obj.optimum_location)


class TestScenarios:
    def test_s1_membership(self):
        pts = [(1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)]  # the last is on the edge
        assert scenario_mask(Scenario.S1, pts).tolist() == [True, False, False]

    def test_s2_quadrants(self):
        pts = [(-3.0, 3.0), (3.0, 3.0), (3.0, -3.0)]
        assert scenario_mask(Scenario.S2_TOP_LEFT, pts).tolist() == [True, False, False]
        assert scenario_mask(Scenario.S2_BOTTOM_RIGHT, pts).tolist() == [False, False, True]

    def test_s3_is_union_of_s2(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, size=(200, 2))
        union = scenario_mask(Scenario.S2_TOP_LEFT, pts) | scenario_mask(
            Scenario.S2_BOTTOM_RIGHT, pts
        )
        assert np.array_equal(scenario_mask(Scenario.S3, pts), union)

    def test_none_accepts_everything(self):
        assert scenario_mask(Scenario.NONE, [(4.9, -4.9)]).tolist() == [True]

    def test_validation(self):
        styb = make_objective("styblinski-tang")
        validate_scenario(Scenario.S1, styb)  # fine
        validate_scenario(Scenario.NONE, make_objective("sphere"))  # fine
        with pytest.raises(ValueError, match="only valid"):
            validate_scenario(Scenario.S1, make_objective("sphere"))
        with pytest.raises(ValueError, match="only valid"):
            validate_scenario(Scenario.S3, make_objective("styblinski-tang", dimension=3))
