"""The config gate: ``normalize_config`` rejects every bad value up front.

A value it accepts must carry a run through the whole pipeline; a value
it rejects must stop the CLI with exit code 2 before any run starts.
"""

import dataclasses
import inspect
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from safeobench import cli
from safeobench.ea import EaParams
from safeobench.gp import KernelSpec
from safeobench.harness import (
    ALGORITHMS,
    CONFIG_SCHEMA,
    TERMINATION_FAILED,
    ConfigError,
    benchmark,
    make_plan,
    normalize_config,
    save_benchmark,
)
from safeobench.problems import Scenario
from safeobench.safegp import SafeGpOptimizer
from safeobench.safeop import InfeasibleScenarioError, SafeOpProblem

FAST_PROBLEM = {"nodes_per_axis": 30, "eval_budget": 20, "n_seeds": 4}

BAD_VALUES = [
    "problem.n_seeds=0",
    'problem.n_seeds="a"',
    'problem.master_seed="x"',
    "gp.lengthscale=0",
    "gp.signal_variance=null",
    "ea.mutation_std=-1",
    'problem.seeds_consume_budget="no"',
    "problem.eval_budget=1.5",
    "gp.beta=-1",
    "problem.noise_std=1e300",
    "gp.beta=1e7",
    "gp.beta=1e-200",
    "ea.crossover_prob=2",
    "ea.retry_cap=-1",
]


@pytest.mark.parametrize("command", ["run", "benchmark"])
@pytest.mark.parametrize("override", BAD_VALUES)
def test_cli_rejects_bad_value(tmp_path, capsys, command, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": FAST_PROBLEM}))
    out = tmp_path / "out"
    extra = ["--algo", "va-ea"] if command == "run" else ["--runs", "1"]
    rc = cli.main([command, str(cfg), *extra, "--out", str(out), "--set", override])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_lipschitz_variants_need_a_positive_estimate(tmp_path, capsys):
    # sphere on a 2-node grid: every node has the same value, so L = 0
    cfg = normalize_config({"problem": {"nodes_per_axis": 2, "noise_std": 0.0, "n_seeds": 2}})
    with pytest.raises(ConfigError, match="safeopt, safe-ucb need a finite positive"):
        make_plan(cfg, ALGORITHMS, 1)
    plan = make_plan(cfg, ["msafeopt", "msafe-ucb", "va-ea", "unsafe-ea"], 1)
    assert all(r.termination != TERMINATION_FAILED for r in benchmark(plan).values())

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["run", str(path), "--algo", "safe-ucb", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_library_defaults_are_the_config_defaults():
    def default(section, key):
        return CONFIG_SCHEMA[section][key][0]

    ea = {f.name: f.default for f in dataclasses.fields(EaParams)}
    assert ea == {key: default("ea", key) for key in CONFIG_SCHEMA["ea"]}
    assert KernelSpec() == KernelSpec(
        lengthscale=default("gp", "lengthscale"),
        signal_variance=default("gp", "signal_variance"),
    )
    beta = inspect.signature(SafeGpOptimizer).parameters["beta"].default
    assert beta == default("gp", "beta")
    fields = {f.name: f.default for f in dataclasses.fields(SafeOpProblem)}
    assert fields["seed_confidence"] == default("problem", "seed_confidence")


# ---------------------------------------------------------------------------
# Property: every accepted config runs end to end


# Values of the wrong type for any key, then out-of-range values per key.
WRONG_TYPE = [None, True, "x", [1], float("nan"), math.inf]
OUT_OF_RANGE = {
    ("problem", "objective"): ["rosenbrock"],
    ("problem", "dimension"): [0, -1, 2.0],
    ("problem", "bounds"): [[[0, 1]] * 4, [[1, 0], [0, 1]], [[-2e6, 0]] * 3, "[-5, 5]"],
    ("problem", "nodes_per_axis"): [1, 0, 4.5, "10"],
    ("problem", "percentile"): [0, -5, 100.5],
    ("problem", "noise_std"): [-0.1, 1.5e6, 7.3e153],
    ("problem", "seed_confidence"): [-1],
    ("problem", "eval_budget"): [0, 1.5],
    ("problem", "safety_budget"): ["none", -1],
    ("problem", "scenario"): ["s4"],
    ("problem", "n_seeds"): [0, 2.0],
    ("problem", "master_seed"): [-1, 1e3],
    ("problem", "seeds_consume_budget"): ["no", 1, 0],
    ("gp", "lengthscale"): [0, -1, 1e-200, 1e200],
    ("gp", "signal_variance"): [0, -4, 1e300, 1e-200, 5e-324],
    ("gp", "beta"): [-1, 1.5e6, 5.7e307],
    ("ea", "crossover_prob"): [2, -0.5],
    ("ea", "mutation_prob"): [1.5, -0.1],
    ("ea", "mutation_std"): [-1],
    ("ea", "mutation_mean"): [],
    ("ea", "retry_cap"): [-1, 2.5],
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(0, allow_infinity=False)
PROBABILITY = st.floats(0, 1)


def _valid_sections(dimension):
    """Each key's whole accepted range, except the sizes that set the
    cost of a run: grid, budget, seed count and retry cap."""
    pair = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2)
    return {
        "problem": {
            "objective": st.sampled_from(["sphere", "styblinski-tang"]),
            "dimension": st.just(dimension),
            "bounds": st.none() | st.lists(pair, min_size=dimension, max_size=dimension),
            "nodes_per_axis": st.integers(2, 12),
            "percentile": st.floats(0, 100, exclude_min=True),
            "noise_std": st.floats(0, 1e6),
            "seed_confidence": NON_NEGATIVE,
            "eval_budget": st.integers(1, 15),
            "safety_budget": st.just("unlimited") | st.integers(0),
            "scenario": st.sampled_from([s.value for s in Scenario]),
            "n_seeds": st.integers(1, 4),
            "master_seed": st.integers(0),
            "seeds_consume_budget": st.booleans(),
        },
        "gp": {
            "lengthscale": st.floats(1e-150, 1e150),
            "signal_variance": st.floats(1e-150, 1e6),
            "beta": st.floats(0, 1e6),
        },
        "ea": {
            "crossover_prob": PROBABILITY,
            "mutation_prob": st.none() | PROBABILITY,
            "mutation_std": NON_NEGATIVE,
            "mutation_mean": FINITE,
            "retry_cap": st.integers(0, 20),
        },
    }


@st.composite
def raw_configs(draw):
    """A config with each key drawn from its accepted type and range (the
    cross-field rules may still fail) and at most one key spoiled.

    Grids, budgets and seed counts stay small (nodes 2-12, budget <= 15,
    n_seeds <= 4) even when those keys are left out.
    """
    sections = _valid_sections(draw(st.integers(1, 3)))
    raw = {
        name: draw(st.fixed_dictionaries({}, optional=keys))
        for name, keys in sections.items()
    }
    for key, default in (("nodes_per_axis", 6), ("eval_budget", 8), ("n_seeds", 2)):
        raw["problem"].setdefault(key, default)
    spoiled = draw(st.none() | st.sampled_from(sorted(OUT_OF_RANGE)))
    if spoiled is not None:
        section, key = spoiled
        raw[section][key] = draw(st.sampled_from(WRONG_TYPE + OUT_OF_RANGE[spoiled]))
    return raw


# feasible sphere problems for the examples below
EDGE = {"nodes_per_axis": 10, "eval_budget": 12, "percentile": 50.0}
LOW_THRESHOLD = {"nodes_per_axis": 6, "eval_budget": 12, "percentile": 1.0}


# derandomize fixes the seed, not the draws: hypothesis also draws literals
# it collects from every loaded local module (``_get_local_constants`` in
# hypothesis/internal/conjecture/providers.py, with no setting to turn it
# off), so these 1000 examples change whenever src/ or tests/ change and a
# latent fault can surface in an unrelated change. Larger runs with random
# seeds, outside this suite, cover more draws; CHANGES.md records them.
@settings(derandomize=True, deadline=None, max_examples=1000)
@given(raw=raw_configs())
# a grid the objective is constant on (Lipschitz estimate 0), one whose
# nodes coincide in floating point (estimate NaN), and one-step runs
@example(raw={"problem": {"nodes_per_axis": 2, "noise_std": 0.0, "n_seeds": 2}})
@example(raw={"problem": {"bounds": [[1, 1 + 1e-15]] * 2, "nodes_per_axis": 12, "n_seeds": 1,
                          "noise_std": 0.0, "seed_confidence": 0.0, "percentile": 100.0}})
@example(raw={"problem": {"nodes_per_axis": 6, "eval_budget": 1, "percentile": 50.0}})
# GP hyperparameters, noise and bounds at the edges of their ranges, and
# beyond them. Each of these overflowed once: the shortest lengthscale
# over a long distance (the scaled squared distance, harmlessly), a
# subnormal signal_variance (the noiseless GP weights), noise_std near the
# float maximum (the target standardization) and beta near it (the
# expander test).
@example(raw={"problem": EDGE, "gp": {"lengthscale": 1e-150, "signal_variance": 1e6}})
@example(raw={"problem": EDGE, "gp": {"lengthscale": 1e150, "signal_variance": 1e6}})
@example(raw={"problem": {"dimension": 1, "bounds": [[0, 18962]], "nodes_per_axis": 2,
                          "n_seeds": 1, "eval_budget": 1, "seeds_consume_budget": False,
                          "noise_std": 0.0, "seed_confidence": 0.0, "percentile": 1.0},
              "gp": {"lengthscale": 1e-150}})
@example(raw={"problem": EDGE, "gp": {"lengthscale": 1e-200}})
@example(raw={"problem": EDGE, "gp": {"lengthscale": 1e200}})
@example(raw={"problem": EDGE, "gp": {"signal_variance": 1e300}})
@example(raw={"problem": {**EDGE, "noise_std": 0.0, "n_seeds": 2}, "gp": {"signal_variance": 1e-150}})
@example(raw={"problem": {**EDGE, "noise_std": 0.0, "n_seeds": 2}, "gp": {"signal_variance": 5e-324}})
@example(raw={"problem": {**EDGE, "noise_std": 1e6}})
@example(raw={"problem": {**EDGE, "noise_std": 7.3e153}})
@example(raw={"problem": LOW_THRESHOLD, "gp": {"beta": 1e6, "lengthscale": 1e6}})
@example(raw={"problem": LOW_THRESHOLD, "gp": {"beta": 5.7e307, "lengthscale": 1e6}})
# a subnormal beta (the expander test's margin / (beta * std) overflowed)
# and an axis so short that the Lipschitz estimate's squares overflowed
@example(raw={"problem": {"dimension": 3, "nodes_per_axis": 6, "n_seeds": 2},
              "gp": {"beta": 5e-324}})
@example(raw={"problem": {"bounds": [[0.0, 21171.0], [-6.278131143047874e-161, 0.0]],
                          "nodes_per_axis": 6, "n_seeds": 2}})
@example(raw={"problem": {**EDGE, "objective": "styblinski-tang", "bounds": [[-1e6, 1e6]] * 2}})
@example(raw={"problem": {**EDGE, "objective": "styblinski-tang", "bounds": [[-1e300, 1e300]] * 2}})
def test_accepted_configs_run_end_to_end(raw):
    try:
        cfg = normalize_config(raw)
    except ConfigError:
        event("rejected by normalize_config")
        return
    assert normalize_config(cfg) == cfg
    try:
        plan = make_plan(cfg, ALGORITHMS, 1)
    except InfeasibleScenarioError:
        event("infeasible scenario")
        return
    except ConfigError:  # no finite positive Lipschitz estimate on the grid
        event("rejected by make_plan")
        return
    event("ran end to end")
    results = benchmark(plan)
    failed = {k: r.error for k, r in results.items() if r.termination == TERMINATION_FAILED}
    assert not failed
    with tempfile.TemporaryDirectory() as tmp:
        outdir = save_benchmark(results, plan, Path(tmp) / "bench")
        for metric, fmt in (
            ("bsf", "csv"),
            ("bsf", "svg"),
            ("unsafe", "csv"),
            ("unsafe", "svg"),
            ("trajectory", "csv"),
        ):
            out = Path(tmp) / f"{metric}.{fmt}"
            args = ["report", str(outdir), "--metric", metric, "--format", fmt]
            assert cli.main([*args, "--out", str(out)]) == 0
