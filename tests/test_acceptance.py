"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The expensive
benchmarks are module-scoped fixtures shared between criteria; the whole
module is sized to finish well under fifteen minutes on two cores.
"""

import math

import numpy as np
import pytest

from safeobench import harness, report
from safeobench.ea import EaOptimizer, EaParams, va_filter
from safeobench.gp import KernelSpec, gp_fit, gp_posterior
from safeobench.problems import Scenario, make_objective
from safeobench.safegp import update_safe_set_lipschitz
from safeobench.safeop import (
    Oracle,
    SafeOpProblem,
    discretize,
    estimate_lipschitz,
    sample_safe_seeds,
)

from test_gp import dense_oracle, random_instance
from test_safegp import brute_force_lipschitz_update, fake_bounds, grid_of

MASTER_SEED = 20220709
N_RUNS = 20
N_JOBS = 2


def run_benchmark(problem_overrides, algorithms):
    raw = {"problem": {"master_seed": MASTER_SEED, **problem_overrides}}
    cfg = harness.normalize_config(raw)
    plan = harness.make_plan(cfg, algorithms, N_RUNS)
    return plan, harness.benchmark(plan, n_jobs=N_JOBS)


def final_unsafe(results, algo):
    return [results[(algo, i)].n_unsafe for i in range(N_RUNS)]


def final_bsf(results, algo):
    return [results[(algo, i)].final_bsf for i in range(N_RUNS)]


# --------------------------------------------------------------------------
# Shared benchmark fixtures


@pytest.fixture(scope="module")
def bench_noiseless_sphere():
    """Sphere, sigma = 0, h = 95th, exact L: the safety guarantee setup."""
    return run_benchmark({"noise_std": 0.0}, ["safeopt", "safe-ucb"])


@pytest.fixture(scope="module")
def bench_sphere_10seeds():
    """Sphere, h = 95th, sigma = 0.1, 10 seeds, all six algorithms."""
    return run_benchmark({}, list(harness.ALGORITHMS))


@pytest.fixture(scope="module")
def bench_sphere_2seeds():
    return run_benchmark({"n_seeds": 2}, ["va-ea", "unsafe-ea"])


@pytest.fixture(scope="module")
def bench_styblinski_s1():
    """Styblinski-Tang, h = 75th, scenario 1, all six algorithms."""
    return run_benchmark(
        {"objective": "styblinski-tang", "percentile": 75.0, "scenario": "s1"},
        list(harness.ALGORITHMS),
    )


@pytest.fixture(scope="module")
def bench_zero_budget_sphere():
    return run_benchmark({"safety_budget": 0}, list(harness.ALGORITHMS))


@pytest.fixture(scope="module")
def bench_zero_budget_styblinski():
    # seeds split across two quadrants: crossover mixes coordinates into
    # unsafe territory, so the safety-blind baseline fails early
    return run_benchmark(
        {
            "objective": "styblinski-tang",
            "percentile": 75.0,
            "scenario": "s3",
            "safety_budget": 0,
        },
        ["unsafe-ea"],
    )


# --------------------------------------------------------------------------


def test_c01_gp_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(50):
        kernel, noise, X, y, Q = random_instance(rng, int(rng.integers(1, 9)))
        model = gp_fit(kernel, noise, X, y)
        mean, std = gp_posterior(model, Q)
        omean, ostd = dense_oracle(kernel, noise, X, y, Q)
        np.testing.assert_allclose(mean, omean, atol=1e-8)
        np.testing.assert_allclose(std, ostd, atol=1e-8)
    print("ACCEPTANCE C1: PASS - 50 random GP posteriors match the dense "
          "oracle within 1e-8")


def test_c02_safe_set_brute_force_equality():
    rng = np.random.default_rng(MASTER_SEED + 1)
    for trial in range(100):
        dim = int(rng.integers(1, 3))
        if dim == 1:
            n = int(rng.integers(2, 1001))
            grid = grid_of(np.sort(rng.uniform(-5, 5, size=n)))
        else:
            nx = int(rng.integers(2, 32))
            ny = int(rng.integers(2, 32))
            grid = grid_of(np.linspace(-5, 5, nx), np.linspace(-4, 6, ny))
            n = grid.n_points
        lower = rng.normal(0, 2, size=n)
        prev = np.zeros(n, dtype=bool)
        prev[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = True
        lipschitz = float(rng.choice([0.01, 0.05, 0.5, 2.0, rng.uniform(0, 20)]))
        threshold = float(rng.normal(0, 1.5))
        got = update_safe_set_lipschitz(
            prev, fake_bounds(lower), lipschitz, grid, threshold
        )
        want = brute_force_lipschitz_update(
            prev, lower, lipschitz, grid.points, threshold
        )
        np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
    print("ACCEPTANCE C2: PASS - Lipschitz safe-set update equals exhaustive "
          "evaluation on 100 random instances (exact mask equality)")


def test_c03_noiseless_safety_guarantee(bench_noiseless_sphere):
    _, results = bench_noiseless_sphere
    for algo in ("safeopt", "safe-ucb"):
        counts = final_unsafe(results, algo)
        assert counts == [0] * N_RUNS, f"{algo} made unsafe evaluations: {counts}"
        for i in range(N_RUNS):
            assert results[(algo, i)].termination == "budget_exhausted"
    print("ACCEPTANCE C3: PASS - zero unsafe evaluations in all 20 noiseless "
          "runs for both Lipschitz-based optimizers")


def test_c04_test_function_values():
    styb = make_objective("styblinski-tang")
    assert styb.eval((-2.903534, -2.903534)) == pytest.approx(78.33198, abs=1e-3)
    sphere = make_objective("sphere")
    assert sphere.eval((0.0, 0.0)) == 0.0
    grid = discretize(sphere, 500)
    expected = 2.0 * math.sqrt(50.0)  # closed form: max |grad| = 2 |x| at corners
    assert estimate_lipschitz(grid) == pytest.approx(expected, rel=0.02)
    print("ACCEPTANCE C4: PASS - published objective values and the 500x500 "
          "Lipschitz estimate (2% of 14.142) reproduced")


def test_c05_scenario1_confinement(bench_styblinski_s1):
    plan, results = bench_styblinski_s1
    # derived reference: best objective value inside the top-right quadrant
    problem = harness.build_problem(plan.config)
    quadrant = (problem.grid.points[:, 0] > 0) & (problem.grid.points[:, 1] > 0)
    local_best = float(problem.grid.values[quadrant].max())
    assert local_best == pytest.approx(50.06, abs=0.1)
    means = {}
    for algo in plan.algorithms:
        means[algo] = float(np.mean(final_bsf(results, algo)))
        assert means[algo] <= 52.0, f"{algo} escaped scenario 1: {means[algo]:.2f}"
    summary = ", ".join(f"{a}={v:.1f}" for a, v in means.items())
    print(f"ACCEPTANCE C5: PASS - every algorithm confined to the top-right "
          f"optimum ({local_best:.2f}); mean final BSF: {summary}")


def test_c06_modified_variant_risk_ordering(bench_sphere_10seeds):
    _, results = bench_sphere_10seeds
    pairs = [("msafeopt", "safeopt"), ("msafe-ucb", "safe-ucb")]
    stats = {}
    for modified, original in pairs:
        m = float(np.mean(final_unsafe(results, modified)))
        o = float(np.mean(final_unsafe(results, original)))
        stats[modified] = (m, o)
        assert m >= o, f"expected {modified} >= {original}, got {m} < {o}"
    text = "; ".join(f"{k}: {m:.2f} >= {o:.2f}" for k, (m, o) in stats.items())
    print(f"ACCEPTANCE C6: PASS - Lipschitz-free variants evaluate at least "
          f"as many unsafe points ({text})")


def test_c07_va_vs_unsafe_ea(bench_sphere_10seeds, bench_sphere_2seeds):
    lines = []
    for label, (_, results) in (
        ("10 seeds", bench_sphere_10seeds),
        ("2 seeds", bench_sphere_2seeds),
    ):
        va = float(np.mean(final_unsafe(results, "va-ea")))
        blind = float(np.mean(final_unsafe(results, "unsafe-ea")))
        assert va <= blind, f"{label}: VA {va} > UnsafeEA {blind}"
        lines.append(f"{label}: {va:.2f} <= {blind:.2f}")
    print(f"ACCEPTANCE C7: PASS - violation avoidance never evaluates more "
          f"unsafe points on average ({'; '.join(lines)})")


def test_c08_zero_budget_termination(
    bench_zero_budget_sphere, bench_zero_budget_styblinski
):
    for _, results in (bench_zero_budget_sphere, bench_zero_budget_styblinski):
        for result in results.values():
            flags = [r.is_unsafe for r in result.records]
            assert sum(flags) <= 1
            if sum(flags) == 1:
                assert result.records[-1].is_unsafe  # terminated on the failure
                assert result.termination == "safety_exhausted"

    _, styb = bench_zero_budget_styblinski
    failures = [
        r.first_failure_step()
        for r in styb.values()
        if r.first_failure_step() is not None
    ]
    assert failures, "expected at least one failed safety-blind run"
    lo, mid, hi = (
        int(np.min(failures)),
        float(np.median(failures)),
        int(np.max(failures)),
    )
    assert lo <= mid <= hi
    print(f"ACCEPTANCE C8: PASS - zero-budget runs stop at their first unsafe "
          f"evaluation; safety-blind first failures on Styblinski-Tang: "
          f"min={lo}, median={mid:g}, max={hi} over {len(failures)}/{N_RUNS} "
          f"failed runs")


def test_c09_byte_identical_reruns(tmp_path):
    cfg = harness.normalize_config(
        {
            "problem": {
                "nodes_per_axis": 50,
                "eval_budget": 30,
                "n_seeds": 4,
                "master_seed": MASTER_SEED,
            }
        }
    )
    outputs = []
    for name in ("first", "second"):
        plan = harness.make_plan(cfg, ["safeopt", "msafe-ucb", "va-ea"], 3)
        results = harness.benchmark(plan, n_jobs=N_JOBS)
        outdir = harness.save_benchmark(results, plan, tmp_path / name)
        by_algo = {}
        for (algo, _), r in sorted(results.items()):
            by_algo.setdefault(algo, []).append(r)
        aggregates = {a: report.aggregate_bsf(rs, 30) for a, rs in by_algo.items()}
        report.emit_bsf_svg(aggregates, outdir / "bsf.svg")
        summaries = {a: report.summarize_unsafe(rs) for a, rs in by_algo.items()}
        report.emit_unsafe_svg(summaries, outdir / "unsafe.svg")
        outputs.append(outdir)
    first, second = outputs
    compared = 0
    for path in sorted(first.iterdir()):
        if path.suffix in (".csv", ".svg"):
            assert path.read_bytes() == (second / path.name).read_bytes(), path.name
            compared += 1
    assert compared >= 11  # 9 run CSVs + 2 SVGs
    print(f"ACCEPTANCE C9: PASS - rerun with the same master seed reproduced "
          f"{compared} CSV/SVG files byte-for-byte")


class _CheckedEa(EaOptimizer):
    """EA that asserts the VA contract for every accepted candidate."""

    violations = 0

    def _screen(self, candidate):
        accepted, forced = super()._screen(candidate)
        if self.va_enabled and not forced and not va_filter(accepted, self.history):
            type(self).violations += 1
        return accepted, forced


def test_c10_ea_invariants():
    rng = np.random.default_rng(MASTER_SEED + 10)
    total_generations = 0
    runs = 0
    while total_generations < 1000:
        runs += 1
        mu = int(rng.choice([2, 3, 4, 6]))
        generations = int(rng.integers(30, 50))
        problem = SafeOpProblem(
            make_objective("sphere"),
            nodes_per_axis=25,
            percentile=float(rng.uniform(50, 90)),
            noise_std=float(rng.uniform(0.0, 0.6)),
            eval_budget=mu * (generations + 1),
        )
        oracle = Oracle(problem, np.random.default_rng(rng.integers(2**32)))
        seeds = sample_safe_seeds(
            problem, mu, np.random.default_rng(rng.integers(2**32))
        )
        seed_obs = oracle.prime(seeds)
        opt = _CheckedEa(
            problem,
            seed_obs,
            np.random.default_rng(rng.integers(2**32)),
            params=EaParams(
                mu=mu,
                lam=mu,
                crossover_prob=float(rng.uniform(0, 1)),
                mutation_prob=float(rng.uniform(0.1, 1.0)),
                mutation_std=float(rng.uniform(0.05, 1.5)),
            ),
            va_enabled=bool(rng.integers(2)),
        )
        while oracle.running:
            prev_pop = list(opt.population)
            opt.step(oracle)
            total_generations += 1
            assert len(opt.population) == mu
            for ind in opt.population:
                assert problem.objective.contains(ind.point)
                assert ind.fitness == opt.history.mean_at(ind.point)
            prev_best_refreshed = max(
                opt.history.mean_at(i.point) for i in prev_pop
            )
            best = max(i.fitness for i in opt.population)
            assert best >= prev_best_refreshed - 1e-12
    assert _CheckedEa.violations == 0
    print(f"ACCEPTANCE C10: PASS - population size, box bounds, post-update "
          f"elitism and the VA contract held over {total_generations} "
          f"generations across {runs} randomized runs")
