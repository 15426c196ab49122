"""Tests for the benchmark's span tracer (perfbench/tracer.py)."""

import json
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))
sys.path.insert(0, str(_HERE.parents[1] / "src"))

import tracer as layer_tracer  # noqa: E402
from safeobench import ea, harness, report, safegp, safeop  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    t = layer_tracer.Tracer(clock=clock, keep_durations=("leaf",))
    t.enter("outer")
    clock.advance(1.0)
    t.enter("mid")
    clock.advance(2.0)
    t.enter("leaf")
    clock.advance(4.0)
    t.exit()
    clock.advance(8.0)
    t.exit()
    t.enter("leaf")
    clock.advance(16.0)
    t.exit()
    clock.advance(32.0)
    t.exit()

    outer, mid, leaf = t.stats["outer"], t.stats["mid"], t.stats["leaf"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 63.0, 33.0)
    assert (mid.calls, mid.total_s, mid.self_s) == (1, 14.0, 10.0)
    assert (leaf.calls, leaf.total_s, leaf.self_s) == (2, 20.0, 20.0)
    assert leaf.durations == [4.0, 16.0]
    assert mid.durations == []
    assert sum(st.self_s for st in t.stats.values()) == outer.total_s


def test_wrapped_call_returns_the_same_object_and_propagates_errors():
    sentinel = object()

    def identity(x, *, twice=False):
        if twice:
            raise ValueError("boom")
        return x

    t = layer_tracer.Tracer()
    seen = []
    wrapped = t.wrap(identity, "f", on_return=lambda tr, a, k, r: seen.append(r))
    assert wrapped(sentinel) is identity(sentinel)
    assert seen == [sentinel]
    with pytest.raises(ValueError):
        wrapped(sentinel, twice=True)
    assert t.calls("f") == 2
    assert t.calls(layer_tracer.HOOK_SPAN) == 1
    assert wrapped.__name__ == "identity"


def _namespaces():
    owners = (safegp, ea, harness, report, safeop.Oracle, safegp.SafeGpOptimizer,
              ea.EaOptimizer)
    return {id(o): dict(vars(o)) for o in owners}


def test_uninstall_restores_every_wrapped_name():
    before = _namespaces()
    t = layer_tracer.install(layer_tracer.Tracer())
    assert safegp.gp_fit is not before[id(safegp)]["gp_fit"]
    assert safeop.Oracle.evaluate is not before[id(safeop.Oracle)]["evaluate"]
    t.uninstall()
    after = _namespaces()
    for key, names in before.items():
        assert {k: v for k, v in after[key].items() if k in names} == names
        assert set(after[key]) == set(names)


TINY = {"problem": {"nodes_per_axis": 10, "eval_budget": 12, "n_seeds": 2}}


def _tiny_plan():
    return harness.make_plan(harness.normalize_config(TINY), list(harness.ALGORITHMS), 2)


@pytest.fixture(scope="module")
def tiny_traced():
    t = layer_tracer.install(layer_tracer.Tracer(keep_durations=("safegp.step",)))
    try:
        results = harness.benchmark(_tiny_plan(), n_jobs=1)
    finally:
        t.uninstall()
    return t, results


def test_traced_results_equal_untraced(tiny_traced):
    _, traced = tiny_traced
    plain = harness.benchmark(_tiny_plan(), n_jobs=1)
    assert set(plain) == set(traced)
    for key in plain:
        assert plain[key].termination == traced[key].termination
        assert [(r.point, r.y) for r in plain[key].records] == [
            (r.point, r.y) for r in traced[key].records
        ]


def test_counts_are_exact_on_a_tiny_plan(tiny_traced):
    t, results = tiny_traced
    n_seeds = TINY["problem"]["n_seeds"]
    gp_runs = [r for (a, _), r in results.items() if a in safegp.VARIANTS]
    ea_runs = [r for (a, _), r in results.items() if a not in safegp.VARIANTS]
    assert all(r.termination == "budget_exhausted" for r in results.values())
    assert all(r.n_steps == 12 for r in results.values())

    c = t.counters
    assert t.calls("harness.run") == len(results) == 12
    assert t.calls("safeop.oracle") == sum(r.n_steps for r in results.values())
    assert c["safeop.unsafe_evals"] == sum(
        rec.is_unsafe for r in results.values() for rec in r.records
    )

    diags = [d for r in gp_runs for d in r.diagnostics]
    assert t.calls("safegp.step") == len(diags) == sum(r.n_steps - n_seeds for r in gp_runs)
    assert len(t.stats["safegp.step"].durations) == len(diags)
    assert t.calls("gp.fit") == len(diags)
    assert c["gp.fit.train_rows"] == sum(
        n_seeds + k for r in gp_runs for k in range(len(r.diagnostics))
    )
    assert t.calls("safegp.safe_set") == t.calls("safegp.select") == len(diags)
    assert c["safegp.safe_set.size_sum"] == sum(d["safe_size"] for d in diags)
    assert c["safegp.select.fallbacks"] == sum(d["fallback"] for d in diags)
    width = [d for (a, _), r in results.items() if a in ("safeopt", "msafeopt")
             for d in r.diagnostics]
    assert t.calls("safegp.expanders") == t.calls("safegp.maximizers") == len(width)
    assert c["safegp.expanders.count_sum"] == sum(d["n_expanders"] for d in width)
    assert c["safegp.maximizers.count_sum"] == sum(d["n_maximizers"] for d in width)

    generations = sum(len(r.diagnostics) for r in ea_runs)
    assert t.calls("ea.step") == t.calls("ea.survival") == generations
    assert t.calls("ea.variation") % 5 == 0  # 2 tournaments, 1 crossover, 2 mutations
    va = [r for (a, _), r in results.items() if a == "va-ea"]
    forced = sum(len(d["forced_accepts"]) for r in va for d in r.diagnostics)
    assert c["ea.va_screen.accepts"] == sum(r.n_steps - n_seeds for r in va) - forced


def test_layer_metrics_match_benchmark_json(tiny_traced):
    import measure

    t, results = tiny_traced
    forced = sum(len(d.get("forced_accepts", ())) for r in results.values()
                 for d in r.diagnostics)
    layers = measure.layer_metrics(t, forced, wall_s=1.0)
    spec = json.loads((_HERE.parents[1] / "BENCHMARK.json").read_text())
    added_by_runner = {"harness.pool_busy_ratio", "trace.wall_s", "trace.overhead_s",
                       "blas.default_threads.slowdown"}
    assert set(layers) | added_by_runner == {m["name"] for m in spec["per_layer"]}
    assert layers["gp.fit.calls"] == t.calls("gp.fit")
    assert layers["safegp.step.p50_ms"] <= layers["safegp.step.p99_ms"]
