import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from safeobench import ea as ea_module
from safeobench.ea import (
    EaOptimizer,
    EaParams,
    EvalHistory,
    Individual,
    binary_tournament,
    gaussian_mutation,
    mu_plus_lambda_select,
    uniform_crossover,
    va_filter,
)
from safeobench.problems import make_objective
from safeobench.safeop import (
    Observation,
    Oracle,
    SafeOpProblem,
    TerminatedRunError,
    TerminationReason,
    sample_safe_seeds,
)


class ScriptRng:
    """Plays back a fixed script of integer draws."""

    def __init__(self, ints):
        self.ints = list(ints)

    def integers(self, n):
        return self.ints.pop(0)


def ind(point, fitness, birth=0):
    return Individual(point=tuple(point), fitness=fitness, birth=birth)


def obs(point, y, unsafe=False, step=1):
    return Observation(
        point=tuple(point), y=y, f_true=y, is_unsafe=unsafe, step_index=step,
        bsf_true=y,
    )


class TestBinaryTournament:
    def test_singleton_population(self):
        pop = [ind((0.0,), 1.0)]
        assert binary_tournament(pop, np.random.default_rng(0)) is pop[0]

    def test_higher_fitness_wins(self):
        pop = [ind((0.0,), 5.0), ind((1.0,), 3.0)]
        assert binary_tournament(pop, ScriptRng([0, 1])) is pop[0]
        assert binary_tournament(pop, ScriptRng([1, 0])) is pop[0]

    def test_tie_goes_to_first_drawn(self):
        pop = [ind((0.0,), 2.0), ind((1.0,), 2.0)]
        assert binary_tournament(pop, ScriptRng([1, 0])) is pop[1]

    def test_uniform_selection_frequency(self):
        # equal fitness: selection should be uniform (chi-square, alpha=0.01)
        mu = 8
        pop = [ind((float(i),), 1.0, birth=i) for i in range(mu)]
        rng = np.random.default_rng(2718)
        counts = np.zeros(mu)
        for _ in range(8000):
            counts[binary_tournament(pop, rng).birth] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_empty_population(self):
        with pytest.raises(ValueError):
            binary_tournament([], np.random.default_rng(0))


class TestUniformCrossover:
    def test_no_crossover_copies_parents(self):
        p1, p2 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        c1, c2 = uniform_crossover(p1, p2, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(c1, p1)
        np.testing.assert_array_equal(c2, p2)
        assert c1 is not p1  # copies, not aliases

    def test_identical_parents(self):
        p = np.array([1.5, -2.5])
        c1, c2 = uniform_crossover(p, p.copy(), 1.0, np.random.default_rng(1))
        np.testing.assert_array_equal(c1, p)
        np.testing.assert_array_equal(c2, p)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_multiset_preserved_per_coordinate(self, seed):
        rng = np.random.default_rng(seed)
        p1 = rng.uniform(-5, 5, 2)
        p2 = rng.uniform(-5, 5, 2)
        c1, c2 = uniform_crossover(p1, p2, 1.0, rng)
        for k in range(2):
            assert {c1[k], c2[k]} == {p1[k], p2[k]}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            uniform_crossover(
                np.zeros(2), np.zeros(3), 0.5, np.random.default_rng(0)
            )


class TestGaussianMutation:
    BOUNDS = [(-5.0, 5.0), (-5.0, 5.0)]

    def test_zero_probability_is_identity(self):
        x = np.array([1.0, 2.0])
        out = gaussian_mutation(x, 0.0, 0.1, self.BOUNDS, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_zero_std_is_identity(self):
        x = np.array([1.0, 2.0])
        out = gaussian_mutation(x, 1.0, 0.0, self.BOUNDS, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_clamped_at_bounds(self):
        x = np.array([5.0, 5.0])
        rng = np.random.default_rng(0)
        hit_bound = False
        for _ in range(50):
            out = gaussian_mutation(x, 1.0, 100.0, self.BOUNDS, rng)
            assert np.all(out >= -5.0) and np.all(out <= 5.0)
            hit_bound = hit_bound or np.any(out == 5.0) or np.any(out == -5.0)
        assert hit_bound

    def test_mean_shift_applied(self):
        x = np.zeros(2)
        rng = np.random.default_rng(4)
        outs = np.array(
            [
                gaussian_mutation(
                    x, 1.0, 0.01, self.BOUNDS, rng, mutation_mean=2.0
                )
                for _ in range(200)
            ]
        )
        assert abs(outs.mean() - 2.0) < 0.05


class TestVaFilter:
    def test_single_safe_history_accepts_all(self):
        h = EvalHistory()
        h.record(obs((0.0, 0.0), 1.0, unsafe=False))
        assert va_filter((4.0, 4.0), h)

    def test_single_unsafe_history_rejects_all(self):
        h = EvalHistory()
        h.record(obs((0.0, 0.0), 1.0, unsafe=True))
        assert not va_filter((4.0, 4.0), h)

    def test_nearest_neighbor_decides(self):
        h = EvalHistory()
        h.record(obs((0.0, 0.0), 1.0, unsafe=False))
        h.record(obs((1.0, 0.0), -1.0, unsafe=True))
        assert not va_filter((0.9, 0.0), h)  # NN is the unsafe point
        assert va_filter((0.1, 0.0), h)  # NN is the safe point

    def test_distance_tie_uses_earliest_insertion(self):
        h = EvalHistory()
        h.record(obs((-1.0, 0.0), 1.0, unsafe=False))
        h.record(obs((1.0, 0.0), -1.0, unsafe=True))
        assert va_filter((0.0, 0.0), h)  # equidistant, first point is safe

    def test_most_recent_flag_at_reevaluated_point(self):
        h = EvalHistory()
        h.record(obs((0.0, 0.0), 1.0, unsafe=False))
        h.record(obs((0.0, 0.0), -1.0, unsafe=True))  # re-evaluated, now unsafe
        assert not va_filter((0.5, 0.5), h)


class TestAveragedFitness:
    def test_single_observation(self):
        h = EvalHistory()
        h.record(obs((1.0,), 4.2))
        assert h.mean_at((1.0,)) == 4.2

    def test_mean_of_three(self):
        h = EvalHistory()
        for v in (1.0, 2.0, 3.0):
            h.record(obs((1.0,), v))
        assert h.mean_at((1.0,)) == 2.0

    def test_unknown_point(self):
        with pytest.raises(KeyError):
            EvalHistory().mean_at((0.0,))


class TestEvalHistory:
    @staticmethod
    def brute_force_nearest(order, candidate):
        # first point with the smallest squared distance, in insertion order
        best, best_d2 = None, None
        for p in order:
            d2 = sum((a - b) ** 2 for a, b in zip(p, candidate))
            if best_d2 is None or d2 < best_d2:
                best, best_d2 = p, d2
        return best

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nearest_matches_brute_force(self, seed):
        # integer coordinates: many duplicates and exact distance ties
        rng = np.random.default_rng(seed)
        h = EvalHistory()
        order = []
        for _ in range(int(rng.integers(1, 120))):
            p = tuple(float(c) for c in rng.integers(-3, 4, size=2))
            h.record(obs(p, float(rng.normal()), unsafe=bool(rng.random() < 0.3)))
            if p not in order:
                order.append(p)
            cand = tuple(float(c) for c in rng.integers(-4, 5, size=2) / 2)
            assert h.nearest(cand) == self.brute_force_nearest(order, cand)
        assert len(h) == len(order)

    def test_buffer_grows_past_initial_capacity(self):
        h = EvalHistory()
        n = 3 * EvalHistory._INITIAL_CAPACITY + 5
        pts = [(float(i), float(-i)) for i in range(n)]
        for i, p in enumerate(pts):
            h.record(obs(p, float(i), unsafe=i % 2 == 1))
        assert len(h) == n
        for i, p in enumerate(pts):
            assert h.nearest(np.array(p) + 0.1) == p
            assert h.last_unsafe_at(p) == (i % 2 == 1)
            assert h.mean_at(p) == float(i)
        assert h.nearest((1e9, -1e9)) == pts[-1]

    def test_mean_at_equals_numpy_mean_after_reevaluations(self):
        rng = np.random.default_rng(3)
        h = EvalHistory()
        p = (0.25, -1.5)
        h.record(obs((9.0, 9.0), 100.0))  # another point, left untouched
        values = []
        for count in range(1, 21):
            values.append(float(rng.normal(0.0, 1e3)))
            h.record(obs(p, values[-1]))
            if count in (1, 7, 8, 20):
                assert h.mean_at(p) == float(np.mean(values))
        assert h.mean_at((9.0, 9.0)) == 100.0
        assert len(h) == 2

    @pytest.mark.parametrize("y", [-0.0, 0.0, 5e-324, -1.5, 1e308])
    def test_first_value_mean_has_numpy_mean_bits(self, y):
        h = EvalHistory()
        h.record(obs((1.0, 2.0), y))
        assert repr(h.mean_at((1.0, 2.0))) == repr(float(np.mean([y])))

    def test_last_unsafe_follows_latest_record(self):
        h = EvalHistory()
        p = (1.0, 2.0)
        for flag in (False, True, True, False, True):
            h.record(obs(p, 0.0, unsafe=flag))
            assert h.last_unsafe_at(p) is flag
        assert p in h and (2.0, 1.0) not in h

    def test_empty_history(self):
        with pytest.raises(RuntimeError):
            EvalHistory().nearest((0.0, 0.0))


class TestSurvivalSelection:
    def test_all_offspring_worse(self):
        parents = [ind((0.0,), 5.0, 0), ind((1.0,), 4.0, 1)]
        offspring = [ind((2.0,), 1.0, 2), ind((3.0,), 0.5, 3)]
        assert mu_plus_lambda_select(parents, offspring, 2) == parents

    def test_all_offspring_better(self):
        parents = [ind((0.0,), 1.0, 0), ind((1.0,), 0.5, 1)]
        offspring = [ind((2.0,), 5.0, 2), ind((3.0,), 4.0, 3)]
        assert mu_plus_lambda_select(parents, offspring, 2) == offspring

    def test_worked_example(self):
        parents = [ind((0.0,), 5.0, 0), ind((1.0,), 1.0, 1)]
        offspring = [ind((2.0,), 3.0, 2), ind((3.0,), 2.0, 3)]
        kept = mu_plus_lambda_select(parents, offspring, 2)
        assert [k.fitness for k in kept] == [5.0, 3.0]

    def test_tie_prefers_older(self):
        parents = [ind((0.0,), 3.0, 0)]
        offspring = [ind((1.0,), 3.0, 5)]
        kept = mu_plus_lambda_select(parents, offspring, 1)
        assert kept[0].birth == 0


# ---------------------------------------------------------------------------
# Whole-generation behavior


def ea_problem(noise=0.1, budget=60, percentile=80.0):
    return SafeOpProblem(
        make_objective("sphere"),
        nodes_per_axis=40,
        percentile=percentile,
        noise_std=noise,
        eval_budget=budget,
    )


def primed_ea(problem, n_seeds=4, va=False, master=7, **params):
    oracle = Oracle(problem, np.random.default_rng(master))
    seeds = sample_safe_seeds(problem, n_seeds, np.random.default_rng(master + 1))
    seed_obs = oracle.prime(seeds)
    opt = EaOptimizer(
        problem,
        seed_obs,
        np.random.default_rng(master + 2),
        params=EaParams(mu=n_seeds, lam=n_seeds, **params) if params else None,
        va_enabled=va,
    )
    return oracle, opt


class TestGenerationStep:
    def test_lambda_evaluations_per_generation(self):
        problem = ea_problem()
        oracle, opt = primed_ea(problem, n_seeds=4)
        before = len(oracle.log)
        out = opt.step(oracle)
        assert len(out) == 4
        assert len(oracle.log) == before + 4

    def test_population_size_constant_and_in_bounds(self):
        problem = ea_problem()
        oracle, opt = primed_ea(problem, n_seeds=4)
        while oracle.running:
            opt.step(oracle)
            assert len(opt.population) == 4
            for i in opt.population:
                assert problem.objective.contains(i.point)

    def test_truncated_generation_at_budget(self):
        problem = ea_problem(budget=10)
        oracle, opt = primed_ea(problem, n_seeds=4)
        opt.step(oracle)  # 4 evals -> 8 used
        out = opt.step(oracle)  # only 2 left
        assert len(out) == 2
        assert not oracle.running

    def test_va_equals_plain_ea_while_history_all_safe(self):
        # with no unsafe observation the filter is vacuous: identical streams
        logs = []
        for va in (False, True):
            problem = ea_problem(noise=0.0, percentile=99.0, budget=40)
            oracle, opt = primed_ea(problem, n_seeds=4, va=va, master=13)
            while oracle.running:
                opt.step(oracle)
            assert oracle.unsafe_used == 0
            logs.append([o.point for o in oracle.log])
        assert logs[0] == logs[1]

    def test_elitism_on_refreshed_fitness(self):
        problem = ea_problem()
        oracle, opt = primed_ea(problem, n_seeds=4)
        while oracle.running:
            prev_pop = list(opt.population)
            opt.step(oracle)
            prev_best_now = max(
                opt.history.mean_at(i.point) for i in prev_pop
            )
            new_best = max(i.fitness for i in opt.population)
            assert new_best >= prev_best_now - 1e-12

    def test_fitness_always_matches_history_average(self):
        problem = ea_problem()
        oracle, opt = primed_ea(problem, n_seeds=4)
        for _ in range(5):
            opt.step(oracle)
        for i in opt.population:
            assert i.fitness == opt.history.mean_at(i.point)

    def test_duplicate_reevaluation_updates_shared_fitness(self):
        problem = ea_problem()
        oracle, opt = primed_ea(problem, n_seeds=4)
        # force duplicates: no crossover, no mutation -> offspring repeat
        # parent points exactly and re-evaluations accumulate
        opt.params = EaParams(
            mu=4, lam=4, crossover_prob=0.0, mutation_prob=0.0, mutation_std=0.0
        )
        opt.step(oracle)
        pts = [i.point for i in opt.population]
        dup = max(set(pts), key=pts.count)
        copies = [i for i in opt.population if i.point == dup]
        assert len({i.fitness for i in copies}) == 1

    def test_diagnostics_record_generations(self):
        problem = ea_problem(budget=20)
        oracle, opt = primed_ea(problem, n_seeds=4)
        while oracle.running:
            opt.step(oracle)
        assert [d["generation"] for d in opt.diagnostics] == list(
            range(1, len(opt.diagnostics) + 1)
        )


class RecordingEa(EaOptimizer):
    """Asserts the VA contract at submission time for every candidate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = 0

    def _screen(self, candidate):
        accepted, forced = super()._screen(candidate)
        if self.va_enabled and not forced:
            assert va_filter(accepted, self.history)
            self.checked += 1
        return accepted, forced


class TestVaScreening:
    def test_va_contract_at_submission_time(self):
        problem = ea_problem(noise=0.3, percentile=95.0, budget=80)
        oracle = Oracle(problem, np.random.default_rng(21))
        seeds = sample_safe_seeds(problem, 4, np.random.default_rng(22))
        seed_obs = oracle.prime(seeds)
        opt = RecordingEa(
            problem, seed_obs, np.random.default_rng(23), va_enabled=True
        )
        while oracle.running:
            opt.step(oracle)
        assert opt.checked > 0

    def test_forced_accept_when_everything_rejected(self):
        problem = ea_problem(noise=0.0, budget=12)
        oracle = Oracle(problem, np.random.default_rng(0))
        seeds = sample_safe_seeds(problem, 2, np.random.default_rng(1))
        seed_obs = oracle.prime(seeds)
        opt = EaOptimizer(
            problem,
            seed_obs,
            np.random.default_rng(2),
            params=EaParams(mu=2, lam=2, retry_cap=5),
            va_enabled=True,
        )
        # poison the history: a duplicate of every seed marked unsafe makes
        # every nearest neighbor unsafe, so all candidates are rejected
        for o in seed_obs:
            opt.history.record(
                Observation(
                    point=o.point,
                    y=problem.threshold - 10,
                    f_true=o.f_true,
                    is_unsafe=True,
                    step_index=99,
                    bsf_true=o.bsf_true,
                )
            )
        opt.step(oracle)
        assert any(d["forced_accepts"] for d in opt.diagnostics)

    def test_rejections_cost_no_budget(self):
        problem = ea_problem(noise=0.0, budget=12)
        oracle = Oracle(problem, np.random.default_rng(0))
        seeds = sample_safe_seeds(problem, 2, np.random.default_rng(1))
        seed_obs = oracle.prime(seeds)
        opt = EaOptimizer(
            problem,
            seed_obs,
            np.random.default_rng(2),
            params=EaParams(mu=2, lam=2, retry_cap=50),
            va_enabled=True,
        )
        evals_before = len(oracle.log)
        opt.step(oracle)
        assert len(oracle.log) == evals_before + 2  # only accepted ones


class NaiveEvalHistory:
    """Reference history: a list of values per point and a full scan of
    every point for each nearest-neighbour query."""

    def __init__(self):
        self._order = []
        self._data = {}

    def __len__(self):
        return len(self._order)

    def __contains__(self, point):
        return tuple(point) in self._data

    def record(self, o):
        entry = self._data.get(o.point)
        if entry is None:
            self._data[o.point] = [(o.y, o.is_unsafe)]
            self._order.append(o.point)
        else:
            entry.append((o.y, o.is_unsafe))

    def mean_at(self, point):
        return float(np.mean([y for y, _ in self._data[tuple(point)]]))

    def last_unsafe_at(self, point):
        return self._data[tuple(point)][-1][1]

    def nearest(self, candidate):
        pts = np.asarray(self._order, dtype=float)
        cand = np.asarray(candidate, dtype=float)
        dist = np.sqrt(np.sum(np.square(pts - cand), axis=1))
        return self._order[int(np.argmin(dist))]


class TestReferenceHistory:
    def run_va_ea(self, history_cls, monkeypatch):
        problem = SafeOpProblem(
            make_objective("styblinski-tang"),
            nodes_per_axis=100,
            percentile=95.0,
            noise_std=0.1,
            eval_budget=300,
        )
        oracle = Oracle(problem, np.random.default_rng(41))
        seeds = sample_safe_seeds(problem, 10, np.random.default_rng(42))
        seed_obs = oracle.prime(seeds)
        with monkeypatch.context() as m:
            m.setattr(ea_module, "EvalHistory", history_cls)
            opt = EaOptimizer(
                problem,
                seed_obs,
                np.random.default_rng(43),
                params=EaParams(mu=10, lam=10, mutation_std=1.0, retry_cap=3),
                va_enabled=True,
            )
        assert isinstance(opt.history, history_cls)
        while oracle.running:
            opt.step(oracle)
        return oracle, opt

    def test_matches_naive_history(self, monkeypatch):
        ref_oracle, ref = self.run_va_ea(NaiveEvalHistory, monkeypatch)
        oracle, opt = self.run_va_ea(EvalHistory, monkeypatch)
        assert oracle.log == ref_oracle.log
        assert [(i.point, i.fitness, i.birth) for i in opt.population] == [
            (i.point, i.fitness, i.birth) for i in ref.population
        ]
        assert opt.diagnostics == ref.diagnostics
        # the run exercised rejections, forced accepts and re-evaluations
        assert oracle.unsafe_used > 0
        assert any(d["forced_accepts"] for d in opt.diagnostics)
        assert len(opt.history) < len(oracle.log)


# Reference implementations of the oracle step and the variation operators:
# each numpy call made plainly, the objective reached through the checked
# Objective.eval. The optimized paths must reproduce them bit for bit.


def naive_evaluate(self, x):
    if not self.running:
        raise TerminatedRunError(f"run already terminated ({self.termination.value})")
    point = tuple(float(c) for c in x)
    if not self.problem.objective.contains(point):
        raise ValueError(f"point {point} outside the box domain")
    f = self.problem.objective.eval(point)
    eps = float(self.rng.normal(0.0, self.problem.noise_std))
    y = f + eps
    unsafe = y < self.problem.threshold
    o = Observation(point=point, y=y, f_true=f, is_unsafe=unsafe, step_index=len(self.log) + 1,
                    bsf_true=max([r.f_true for r in self.log] + [f]))
    self.log.append(o)
    if unsafe:
        self.unsafe_used += 1
    budget = self.problem.safety_budget
    if unsafe and budget is not None and self.unsafe_used > budget:
        self.termination = TerminationReason.SAFETY_EXHAUSTED
    elif len(self.log) >= self.budget:
        self.termination = TerminationReason.BUDGET_EXHAUSTED
    return o


def naive_uniform_crossover(p1, p2, crossover_prob, rng):
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must have equal dimension")
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() < crossover_prob:
        swap = rng.random(p1.size) < 0.5
        c1[swap], c2[swap] = p2[swap], p1[swap]
    return c1, c2


def naive_gaussian_mutation(x, mutation_prob, mutation_std, bounds, rng, mutation_mean=0.0):
    x = np.asarray(x, dtype=float)
    mask = rng.random(x.size) < mutation_prob
    noise = rng.normal(mutation_mean, mutation_std, size=x.size)
    out = np.where(mask, x + noise, x)
    bounds = np.asarray(bounds, dtype=float)
    return np.clip(out, bounds[:, 0], bounds[:, 1])


NAIVE_OBJECTIVES = {
    "sphere": lambda x: -float(np.sum(np.square(x))),
    "styblinski-tang": lambda x: -0.5 * float(np.sum(x**4 - 16.0 * x**2 + 5.0 * x)),
}


def float_bits(values):
    return [float(v).hex() for v in values]


class TestReferenceOracleAndVariation:
    """The oracle and the variation operators against the references above.

    ``repr`` of the log, the population and the diagnostics tells -0.0
    from 0.0, which ``==`` does not.
    """

    def run_ea(self, problem, va, monkeypatch, naive):
        oracle = Oracle(problem, np.random.default_rng(41))
        seeds = sample_safe_seeds(problem, 10, np.random.default_rng(42))
        with monkeypatch.context() as m:
            if naive:
                m.setattr(Oracle, "evaluate", naive_evaluate)
                m.setattr(ea_module, "uniform_crossover", naive_uniform_crossover)
                m.setattr(ea_module, "gaussian_mutation", naive_gaussian_mutation)
                m.setattr(ea_module, "EvalHistory", NaiveEvalHistory)
            seed_obs = oracle.prime(seeds)
            opt = EaOptimizer(
                problem,
                seed_obs,
                np.random.default_rng(43),
                params=EaParams(mu=10, lam=10, mutation_std=1.0, retry_cap=3),
                va_enabled=va,
            )
            while oracle.running:
                opt.step(oracle)
        return oracle, opt

    def assert_same_run(self, problem, va, monkeypatch):
        ref_oracle, ref = self.run_ea(problem, va, monkeypatch, naive=True)
        oracle, opt = self.run_ea(problem, va, monkeypatch, naive=False)
        assert isinstance(ref.history, NaiveEvalHistory)
        assert isinstance(opt.history, EvalHistory)
        assert repr(oracle.log) == repr(ref_oracle.log)
        assert repr(opt.population) == repr(ref.population)
        assert repr(opt.diagnostics) == repr(ref.diagnostics)
        return oracle, opt

    @pytest.mark.parametrize("va", [True, False], ids=["va-ea", "unsafe-ea"])
    def test_styblinski_with_noise(self, va, monkeypatch):
        problem = SafeOpProblem(
            make_objective("styblinski-tang"),
            nodes_per_axis=100,
            percentile=95.0,
            noise_std=0.1,
            eval_budget=300,
        )
        oracle, opt = self.assert_same_run(problem, va, monkeypatch)
        assert oracle.unsafe_used > 0
        if va:
            assert any(d["forced_accepts"] for d in opt.diagnostics)

    @pytest.mark.parametrize("va", [True, False], ids=["va-ea", "unsafe-ea"])
    def test_zero_bounds_give_signed_zeros(self, va, monkeypatch):
        # The first grid node on axis 1 is +0.0, and seeds sit there; numpy's
        # clip returns the bound -0.0 for it, as for every negative value.
        objective = make_objective("sphere", bounds=[(-0.0, 3.0), (-3.0, 0.0)])
        problem = SafeOpProblem(
            objective, nodes_per_axis=6, percentile=50.0, noise_std=0.1, eval_budget=300
        )
        oracle, _ = self.assert_same_run(problem, va, monkeypatch)
        zeros = {repr(o.point[0]) for o in oracle.log if o.point[0] == 0.0}
        assert zeros == {"0.0", "-0.0"}

    @pytest.mark.parametrize("va", [True, False], ids=["va-ea", "unsafe-ea"])
    def test_noise_free_reevaluations(self, va, monkeypatch):
        problem = SafeOpProblem(
            make_objective("styblinski-tang"),
            nodes_per_axis=30,
            percentile=60.0,
            noise_std=0.0,
            eval_budget=300,
        )
        oracle, opt = self.assert_same_run(problem, va, monkeypatch)
        assert len(opt.history) < len(oracle.log)

    @pytest.mark.parametrize("name", sorted(NAIVE_OBJECTIVES))
    def test_oracle_f_true_has_objective_eval_bits(self, name):
        objective = make_objective(name)
        rng = np.random.default_rng(5)
        corners = [(lo, hi) for lo in (-5.0, 5.0) for hi in (-5.0, 5.0)]
        zeros = [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (-0.0, 5.0)]
        points = [tuple(p) for p in rng.uniform(-5.0, 5.0, size=(300, 2))] + corners + zeros
        problem = SafeOpProblem(
            objective, nodes_per_axis=5, percentile=50.0, noise_std=0.1,
            eval_budget=len(points),
        )
        oracle = Oracle(problem, np.random.default_rng(6))
        f_true = [oracle.evaluate(p).f_true for p in points]
        expected = [objective.eval(p) for p in points]
        naive = [NAIVE_OBJECTIVES[name](np.asarray(p, dtype=float)) for p in points]
        assert float_bits(f_true) == float_bits(expected) == float_bits(naive)
