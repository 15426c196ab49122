import numpy as np
import pytest

from safeobench import Observation
from safeobench.harness import RunResult
from safeobench.report import (
    _widen,
    aggregate_bsf,
    emit_bsf_csv,
    emit_bsf_svg,
    emit_trajectory_csv,
    emit_unsafe_csv,
    emit_unsafe_svg,
    summarize_unsafe,
)


def make_result(bsf_values, unsafe_flags=None, algo="a", idx=0):
    unsafe_flags = unsafe_flags or [False] * len(bsf_values)
    records = [
        Observation(
            point=(float(i), 0.0),
            y=v,
            f_true=v,
            is_unsafe=u,
            step_index=i + 1,
            bsf_true=v,
        )
        for i, (v, u) in enumerate(zip(bsf_values, unsafe_flags))
    ]
    return RunResult(algo, idx, records, "budget_exhausted")


class TestAggregateBsf:
    def test_identical_runs_have_zero_se(self):
        results = [make_result([1.0, 2.0, 3.0], idx=i) for i in range(4)]
        agg = aggregate_bsf(results, 3)
        np.testing.assert_array_equal(agg.se, np.zeros(3))
        np.testing.assert_array_equal(agg.mean, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(agg.padded_frac, np.zeros(3))

    def test_two_run_standard_error(self):
        # final BSF 0 and -2: mean -1, sd = sqrt(2), se = sqrt(2)/sqrt(2) = 1
        results = [make_result([0.0]), make_result([-2.0], idx=1)]
        agg = aggregate_bsf(results, 1)
        assert agg.mean[0] == -1.0
        assert agg.se[0] == pytest.approx(1.0)

    def test_padding_carry_forward(self):
        results = [
            make_result([1.0, 2.0], idx=0),  # terminated early
            make_result([0.0, 1.0, 1.5, 1.5], idx=1),
        ]
        agg = aggregate_bsf(results, 4)
        np.testing.assert_array_equal(agg.padded_frac, [0.0, 0.0, 0.5, 0.5])
        assert agg.mean[3] == pytest.approx((2.0 + 1.5) / 2)

    def test_single_run_warns_instead_of_failing(self):
        agg = aggregate_bsf([make_result([1.0, 2.0])], 2)
        assert agg.n_runs == 1
        np.testing.assert_array_equal(agg.se, np.zeros(2))

    def test_mean_series_nondecreasing(self):
        rng = np.random.default_rng(0)
        results = []
        for i in range(6):
            vals = np.maximum.accumulate(rng.normal(size=10))
            results.append(make_result(list(vals), idx=i))
        agg = aggregate_bsf(results, 10)
        assert np.all(np.diff(agg.mean) >= -1e-12)

    def test_permutation_invariant(self):
        results = [make_result([float(i)], idx=i) for i in range(5)]
        a = aggregate_bsf(results, 1)
        b = aggregate_bsf(results[::-1], 1)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.se, b.se)

    def test_run_longer_than_budget_rejected(self):
        with pytest.raises(ValueError):
            aggregate_bsf([make_result([1.0, 2.0, 3.0])], 2)


class TestSummarizeUnsafe:
    def test_all_safe(self):
        results = [make_result([1.0] * 3, idx=i) for i in range(3)]
        s = summarize_unsafe(results)
        assert s.counts == [0, 0, 0]
        assert s.mean == 0.0 and s.maximum == 0.0

    def test_worked_example(self):
        flag_sets = [
            [False] * 4,
            [False] * 4,
            [True] + [False] * 3,
            [True, True, True, False],
        ]
        results = [
            make_result([0.0] * 4, flags, idx=i)
            for i, flags in enumerate(flag_sets)
        ]
        s = summarize_unsafe(results)
        assert s.counts == [0, 0, 1, 3]
        assert s.mean == 1.0
        assert s.median == 0.5
        assert (s.minimum, s.maximum) == (0.0, 3.0)


class TestEmission:
    def _aggregates(self):
        runs_a = [make_result([1.0, 2.0], idx=i) for i in range(3)]
        runs_b = [make_result([0.0, 0.5], idx=i, algo="b") for i in range(3)]
        return {
            "algo-a": aggregate_bsf(runs_a, 2),
            "algo-b": aggregate_bsf(runs_b, 2),
        }

    def test_bsf_csv_row_count(self, tmp_path):
        path = tmp_path / "bsf.csv"
        emit_bsf_csv(self._aggregates(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,step,mean,se,padded_frac"
        assert len(lines) == 1 + 2 * 2  # algorithms x budget

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("one", "two"):
            csv_p = tmp_path / f"{name}.csv"
            svg_p = tmp_path / f"{name}.svg"
            emit_bsf_csv(self._aggregates(), csv_p)
            emit_bsf_svg(self._aggregates(), svg_p)
            paths.append((csv_p, svg_p))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_unsafe_outputs(self, tmp_path):
        summaries = {
            "x": summarize_unsafe([make_result([0.0], [True], idx=i) for i in range(3)]),
            "y": summarize_unsafe([make_result([0.0], idx=i) for i in range(3)]),
        }
        csv_p = tmp_path / "u.csv"
        emit_unsafe_csv(summaries, csv_p)
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "algorithm,run_index,final_unsafe"
        assert len(lines) == 7
        svg_p = tmp_path / "u.svg"
        emit_unsafe_svg(summaries, svg_p)
        text = svg_p.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_trajectory_rows(self, tmp_path):
        results = {
            ("a", 0): make_result([1.0, 2.0]),
            ("a", 1): make_result([1.0], idx=1),
        }
        path = tmp_path / "t.csv"
        emit_trajectory_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,run_index,step,x1,x2"
        assert len(lines) == 4

    def test_svg_is_valid_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = tmp_path / "b.svg"
        emit_bsf_svg(self._aggregates(), path)
        ET.fromstring(path.read_text())


class TestFlatRange:
    @pytest.mark.parametrize("lo", [0.0, -3.5, 1e15, -4e15, 2.0**53 - 1.0])
    def test_widened_by_one_where_one_is_representable(self, lo):
        assert _widen(lo) == lo + 1.0

    @pytest.mark.parametrize("lo", [2.0**53, 1.8e16, -1.8e16, 1e300])
    def test_widened_past_the_float_spacing(self, lo):
        assert lo + 1.0 == lo
        assert _widen(lo) > lo

    def test_flat_bsf_svg_past_1e16(self, tmp_path):
        import xml.etree.ElementTree as ET

        results = [make_result([-9.0e15] * 4, idx=i) for i in range(3)]
        path = tmp_path / "b.svg"
        emit_bsf_svg({"a": aggregate_bsf(results, 4)}, path)
        assert ET.fromstring(path.read_text()).tag.endswith("svg")
