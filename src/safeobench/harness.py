"""Benchmark orchestration: shared seed sets, run loops, persistence.

A benchmark executes every (algorithm, run index) pair on one problem,
re-using the same per-run seed set across algorithms. ``run(plan,
algorithm, run_index)`` is the one code path that sets up and executes a
run: ``benchmark`` maps it over the plan (serially or in worker
processes) and the CLI's ``run`` subcommand calls it on a one-algorithm
plan. ``normalize_config`` is the one place that checks config values;
everything downstream reads them as given. All randomness is
derived from a single master seed through named streams, so identical
plans reproduce byte-identical output regardless of execution order or
parallelism. Each run is persisted as one CSV of per-step records plus
an entry in a benchmark-level JSON manifest: ``save_benchmark`` writes
both, for ``benchmark`` and for the CLI's one-run ``run --out`` alike,
and ``load_benchmark`` reads them back into ``RunResult``s.

This module imports neither the GP stack (``gp``, ``safegp``) nor scipy,
so an EA-only benchmark and ``report`` never load them. ``make_plan``
imports ``safegp`` when the plan holds a GP variant, in the caller's
process, so the workers ``benchmark`` forks inherit it;
``_build_optimizer`` takes the optimizer class from there. ``benchmark``
starts at most one worker per run, and each worker, through its
initializer, sets every bundled OpenBLAS it has loaded to one thread.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import logging
import math
import os
import sys
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .ea import EaOptimizer, EaParams
from .problems import Scenario, make_objective, validate_scenario
from .safeop import (
    GP_VARIANTS,
    LIPSCHITZ_VARIANTS,
    Observation,
    Oracle,
    SafeOpProblem,
    sample_safe_seeds,
)

__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "RunResult",
    "BenchmarkPlan",
    "load_config",
    "build_problem",
    "max_run_length",
    "make_seed_sets",
    "run",
    "benchmark",
    "save_benchmark",
    "load_run_csv",
]

log = logging.getLogger(__name__)

EA_VARIANTS = ("va-ea", "unsafe-ea")
ALGORITHMS = GP_VARIANTS + EA_VARIANTS

TERMINATION_FAILED = "failed"


class ConfigError(ValueError):
    """Invalid or missing configuration values."""


# ---------------------------------------------------------------------------
# Configuration


def _integer(lo: int, alternative: str = ""):
    def rule(v):
        if isinstance(v, bool) or not isinstance(v, int) or v < lo:
            raise ValueError(f"must be an integer >= {lo}{alternative}")
        return v

    return rule


def _real(within=lambda x: True, where: str = ""):
    def rule(v):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            x = float(v)
            if math.isfinite(x) and within(x):
                return x
        raise ValueError(f"must be a finite number{where}")

    return rule


_FINITE = _real()
_NON_NEGATIVE = _real(lambda x: x >= 0, " >= 0")
_PROBABILITY = _real(lambda x: 0 <= x <= 1, " in [0, 1]")


def _flag(v):
    if not isinstance(v, bool):
        raise ValueError("must be true or false")
    return v


def _text(v):  # objective and scenario names are checked in normalize_config
    if not isinstance(v, str):
        raise ValueError("must be a string")
    return v


# Keeps the objective values and squared distances on the box far from
# float overflow (Styblinski-Tang overflows beyond about 1e77).
_BOUND = _real(lambda x: abs(x) <= 1e6, " in [-1e6, 1e6]")


def _bounds(v):
    if v is None:
        return None
    if not isinstance(v, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in v
    ):
        raise ValueError("must be null or a list of [lo, hi] pairs")
    return [[_BOUND(lo), _BOUND(hi)] for lo, hi in v]


def _either(special, rule):
    return lambda v: v if v == special else rule(v)


# One table per section: key -> (default, rule). A rule returns the value
# in its final type or raises ValueError saying what it accepts.
CONFIG_SCHEMA = {
    "problem": {
        "objective": ("sphere", _text),
        "dimension": (2, _integer(1)),
        "bounds": (None, _bounds),
        "nodes_per_axis": (100, _integer(2)),
        "percentile": (95.0, _real(lambda x: 0 < x <= 100, " in (0, 100]")),
        # Observations, their standardization and the squared noise in
        # standardized units must stay finite.
        "noise_std": (0.1, _real(lambda x: 0 <= x <= 1e6, " in [0, 1e6]")),
        "seed_confidence": (1.96, _NON_NEGATIVE),
        "eval_budget": (100, _integer(1)),
        "safety_budget": (
            "unlimited",
            _either("unlimited", _integer(0, ' or "unlimited"')),
        ),
        "scenario": ("none", _text),
        "n_seeds": (10, _integer(1)),
        "master_seed": (20220709, _integer(0)),
        "seeds_consume_budget": (True, _flag),
    },
    # kernel_matrix scales squared distances by 0.5 / lengthscale**2,
    # which must stay finite and nonzero; gp_fit's largest jitter, 1e-6,
    # must stay above the rounding error of a Gram matrix whose diagonal
    # is signal_variance, and a subnormal signal_variance rounds every
    # kernel value to a few bits (at 5e-324, to 0 or 5e-324), so the
    # posterior mean loses its precision. beta scales std (at most
    # sqrt(signal_variance) <= 1e3) in the bounds mean +- beta * std, and
    # the expander test divides each margin h - mean by beta * std; the
    # range keeps both far inside the float range (a zero beta * std is
    # a bound no observation moves, which the test handles). A nonzero
    # std is at least about 1e-83 (the square root of signal_variance
    # times the float epsilon), so a positive beta of at least 1e-150
    # keeps that quotient finite, where a subnormal one overflows it.
    "gp": {
        "lengthscale": (1.0, _real(lambda x: 1e-150 <= x <= 1e150, " in [1e-150, 1e150]")),
        "signal_variance": (4.0, _real(lambda x: 1e-150 <= x <= 1e6, " in [1e-150, 1e6]")),
        "beta": (
            2.0,
            _real(lambda x: x == 0 or 1e-150 <= x <= 1e6, " 0 or in [1e-150, 1e6]"),
        ),
    },
    "ea": {
        "crossover_prob": (0.8, _PROBABILITY),
        "mutation_prob": (
            None,
            _either(None, _real(lambda x: 0 <= x <= 1, " in [0, 1] or null")),
        ),
        "mutation_std": (0.1, _NON_NEGATIVE),
        "mutation_mean": (0.0, _FINITE),
        "retry_cap": (100, _integer(0)),
    },
}


def load_config(path) -> dict:
    """Read a JSON experiment configuration, applying defaults.

    See README for the schema. Unknown keys are rejected so typos fail
    loudly.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return normalize_config(raw)


def _normalize_section(name: str, schema: dict, given) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    out = {}
    for key, (default, rule) in schema.items():
        value = given.get(key, default)
        try:
            out[key] = rule(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{name}.{key} {exc}, got {value!r}") from None
    return out


def normalize_config(raw: dict) -> dict:
    """Check a raw config against ``CONFIG_SCHEMA`` and apply its defaults.

    The only place config values are checked: every value comes back in
    its final type (ints as ``int``, floats as finite ``float``, flags as
    ``bool``), and the objective, its bounds and the scenario are checked
    against each other. Idempotent. Raises :class:`ConfigError`.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    out = {
        name: _normalize_section(name, schema, raw.get(name, {}))
        for name, schema in CONFIG_SCHEMA.items()
    }
    p = out["problem"]
    try:
        objective = make_objective(
            p["objective"], dimension=p["dimension"], bounds=p["bounds"]
        )
        validate_scenario(Scenario(p["scenario"]), objective)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return out


def build_problem(cfg: dict) -> SafeOpProblem:
    """Construct the SafeOpProblem described by a normalized config."""
    p = cfg["problem"]
    sb = p["safety_budget"]
    return SafeOpProblem(
        make_objective(p["objective"], dimension=p["dimension"], bounds=p["bounds"]),
        nodes_per_axis=p["nodes_per_axis"],
        percentile=p["percentile"],
        noise_std=p["noise_std"],
        eval_budget=p["eval_budget"],
        safety_budget=None if sb == "unlimited" else sb,
        seed_confidence=p["seed_confidence"],
        scenario=Scenario(p["scenario"]),
    )


def max_run_length(cfg: dict) -> int:
    """Most records one run of a normalized config can hold.

    The evaluation budget, plus the seed evaluations when seeds do not
    consume it. The one place that reads ``problem.seeds_consume_budget``:
    ``run`` hands this number to the oracle as its record budget,
    ``load_benchmark`` bounds persisted runs by it and the CLI's
    ``report`` pads runs to it.
    """
    p = cfg["problem"]
    return p["eval_budget"] + (0 if p["seeds_consume_budget"] else p["n_seeds"])


# ---------------------------------------------------------------------------
# Deterministic stream derivation


def derive_rng(master_seed: int, run_index: int, purpose: str) -> np.random.Generator:
    """Named per-run random stream.

    Streams are spawned from a SeedSequence over (master_seed, run_index,
    crc32(purpose)), so every (run, purpose) pair is an independent,
    reproducible stream. Purposes deliberately do not include the
    algorithm name: algorithms compared at the same run index share the
    seed set, the oracle noise stream and the optimizer stream, making
    the comparison paired (identical runs until behavior diverges).
    """
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(run_index), tag])
    )


def make_seed_sets(
    problem: SafeOpProblem, n_runs: int, n_seeds: int, master_seed: int
) -> list[list[tuple[float, ...]]]:
    """One seed set per run index, shared by all algorithms of a benchmark."""
    return [
        sample_safe_seeds(problem, n_seeds, derive_rng(master_seed, i, "seed-set"))
        for i in range(n_runs)
    ]


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunResult:
    """One run: its oracle's log of observations and how the run ended."""

    algorithm: str
    run_index: int
    records: list[Observation]
    termination: str
    diagnostics: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    error: Optional[str] = None

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def final_bsf(self) -> Optional[float]:
        """Best true value of the run, None for a run without records."""
        return self.records[-1].bsf_true if self.records else None

    @property
    def n_unsafe(self) -> int:
        """Number of unsafe evaluations in the run."""
        return sum(r.is_unsafe for r in self.records)

    def bsf_series(self) -> np.ndarray:
        return np.array([r.bsf_true for r in self.records])

    def first_failure_step(self) -> Optional[int]:
        for r in self.records:
            if r.is_unsafe:
                return r.step_index
        return None


@dataclass
class BenchmarkPlan:
    algorithms: list[str]
    config: dict  # normalized experiment config
    n_runs: int
    problem: SafeOpProblem  # built once from config, shared by every run
    seed_sets: list[list[tuple[float, ...]]]


def make_plan(cfg: dict, algorithms: Sequence[str], n_runs: int) -> BenchmarkPlan:
    """Build the problem and the shared seed sets of a benchmark from its config.

    ``algorithms`` must name at least one of ``ALGORITHMS``, each once.
    """
    algorithms = list(algorithms)
    if not algorithms:
        raise ConfigError("no algorithm given")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}")
    if len(set(algorithms)) < len(algorithms):
        raise ConfigError(f"algorithm listed twice in {algorithms}")
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    problem = build_problem(cfg)
    certified = [name for name in algorithms if name in LIPSCHITZ_VARIANTS]
    if certified and not 0 < problem.lipschitz < math.inf:
        # e.g. an objective that is constant on the grid, or grid nodes that
        # coincide in floating point
        raise ConfigError(
            f"{', '.join(certified)} need a finite positive Lipschitz "
            f"estimate, got {problem.lipschitz} on this grid"
        )
    if any(name in GP_VARIANTS for name in algorithms):
        # The GP stack, and scipy with it, is imported here, in the caller's
        # process, so that the workers ``benchmark`` forks inherit it rather
        # than each importing it. EA-only plans never import it.
        importlib.import_module(".safegp", __package__)
    p = cfg["problem"]
    return BenchmarkPlan(
        algorithms=algorithms,
        config=cfg,
        n_runs=n_runs,
        problem=problem,
        seed_sets=make_seed_sets(problem, n_runs, p["n_seeds"], p["master_seed"]),
    )


def _build_optimizer(
    name: str,
    problem: SafeOpProblem,
    seed_obs,
    rng: np.random.Generator,
    cfg: dict,
):
    if name in EA_VARIANTS:
        return EaOptimizer(
            problem=problem,
            seed_observations=seed_obs,
            rng=rng,
            params=EaParams(**cfg["ea"]),
            va_enabled=(name == "va-ea"),
        )
    from .gp import KernelSpec
    from .safegp import SafeGpOptimizer

    g = cfg["gp"]
    return SafeGpOptimizer(
        variant=name,
        problem=problem,
        seed_observations=seed_obs,
        kernel=KernelSpec(
            lengthscale=g["lengthscale"], signal_variance=g["signal_variance"]
        ),
        beta=g["beta"],
    )


def run(plan: BenchmarkPlan, algorithm: str, run_index: int) -> RunResult:
    """Execute one algorithm run of a plan to termination and extract its metrics.

    The run uses the plan's problem, its seed set at ``run_index`` and
    the oracle and optimizer streams derived from the plan's master seed.
    """
    t0 = time.perf_counter()
    p = plan.config["problem"]
    oracle = Oracle(
        plan.problem,
        derive_rng(p["master_seed"], run_index, "oracle"),
        budget=max_run_length(plan.config),
    )
    seed_obs = oracle.prime(plan.seed_sets[run_index])
    diagnostics: list[dict] = []
    if oracle.running:
        optimizer = _build_optimizer(
            algorithm,
            plan.problem,
            seed_obs,
            derive_rng(p["master_seed"], run_index, "optimizer"),
            plan.config,
        )
        while oracle.running:
            optimizer.step(oracle)
        diagnostics = optimizer.diagnostics
    return RunResult(
        algorithm=algorithm,
        run_index=run_index,
        records=oracle.log,
        termination=oracle.termination.value,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - t0,
    )


def _run_task(plan: BenchmarkPlan, key: tuple[str, int]) -> RunResult:
    algorithm, run_index = key
    try:
        return run(plan, algorithm, run_index)
    except Exception as exc:  # noqa: BLE001 - failures are recorded per run
        log.warning("run %s/%d failed: %s", algorithm, run_index, exc)
        return RunResult(
            algorithm=algorithm,
            run_index=run_index,
            records=[],
            termination=TERMINATION_FAILED,
            error=f"{type(exc).__name__}: {exc}",
        )


# Thread-count setters of the OpenBLAS builds that numpy's and scipy's
# wheels bundle in ``numpy.libs/`` and ``scipy.libs/``.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Pool worker initializer: one thread for each bundled OpenBLAS this
    worker has loaded, numpy's and, once scipy is imported, scipy's.

    Each worker already runs one task at a time on its own core; a BLAS
    thread pool per worker only oversubscribes the cores. A forked worker
    has loaded whatever its parent had, and ``RTLD_NOLOAD`` only finds a
    library that is already loaded, so the lookup loads nothing.
    """
    found = False
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libdir = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else ():
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            symbol = next((s for s in _BLAS_THREAD_SETTERS if hasattr(lib, s)), None)
            if symbol is not None:
                setter = getattr(lib, symbol)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                found = True
    if not found:
        log.info("no bundled OpenBLAS is loaded; this worker keeps the default BLAS threads")


def benchmark(
    plan: BenchmarkPlan, n_jobs: int = 1
) -> dict[tuple[str, int], RunResult]:
    """Run every (algorithm, run index) pair of the plan.

    Individual run failures are recorded in their RunResult; the rest of
    the benchmark still completes. Output is independent of n_jobs. With
    ``n_jobs > 1`` the runs go to at most ``n_jobs`` worker processes, no
    more than there are runs, each with one BLAS thread; the caller's own
    BLAS settings are left alone.
    """
    keys = [(algo, i) for algo in plan.algorithms for i in range(plan.n_runs)]
    task = functools.partial(_run_task, plan)
    if n_jobs <= 1:
        return dict(zip(keys, map(task, keys)))
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, len(keys)), initializer=_one_blas_thread
    ) as pool:
        return dict(zip(keys, pool.map(task, keys)))


# ---------------------------------------------------------------------------
# Persistence


def _fmt(v: float) -> str:
    return repr(float(v))


def run_csv_name(algorithm: str, run_index: int) -> str:
    return f"{algorithm}_run{run_index}.csv"


def _csv_header(dim: int) -> str:
    coords = "".join(f"x{i + 1}," for i in range(dim))
    return f"step,{coords}y,f_true,is_unsafe,bsf_true"


def write_run_csv(result: RunResult, path) -> None:
    """Write a run's records as CSV: one header row, then one row per step.

    The bytes are those of the ``csv`` module's default dialect: ``\\r\\n``
    line ends and no quoting, which none of the fields (``repr`` floats,
    integers, ``0``/``1`` flags) ever needs.
    """
    dim = len(result.records[0].point) if result.records else 0
    lines = [_csv_header(dim)]
    for r in result.records:
        lines.append(
            f"{r.step_index},{','.join(map(_fmt, r.point))},{_fmt(r.y)},"
            f"{_fmt(r.f_true)},{1 if r.is_unsafe else 0},{_fmt(r.bsf_true)}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def load_run_csv(path) -> list[Observation]:
    """Read the records of a run CSV that ``write_run_csv`` wrote;
    ``load_benchmark`` pairs them with the run's manifest entry.

    Accepts ``\\r\\n`` and ``\\n`` line ends. Raises :class:`ConfigError`
    for a file that is empty, has a header other than the writer's, or
    has a row of the wrong width, with a field that does not parse, with
    an ``is_unsafe`` other than ``0`` or ``1``, or with a ``step`` that
    breaks the count 1, 2, ..., n.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ConfigError(f"{path} is empty; a run CSV starts with its header row")
    width = lines[0].count(",") + 1
    if lines[0] != _csv_header(width - 5):
        raise ConfigError(f"{path} has no run CSV header: {lines[0]!r}")
    records = []
    try:
        for line in lines[1:]:
            row = line.split(",")  # step, x1..xd, y, f_true, is_unsafe, bsf_true
            if len(row) != width:
                raise ValueError(f"{len(row)} fields, the header has {width}")
            step = len(records) + 1
            if row[0] != str(step):
                raise ValueError(f"step {row[0]!r}, expected {step}")
            if row[-2] not in ("0", "1"):
                raise ValueError(f"is_unsafe {row[-2]!r}, expected 0 or 1")
            records.append(
                Observation(
                    point=tuple(map(float, row[1:-4])),
                    y=float(row[-4]),
                    f_true=float(row[-3]),
                    is_unsafe=row[-2] == "1",
                    step_index=step,
                    bsf_true=float(row[-1]),
                )
            )
    except ValueError as exc:
        raise ConfigError(f"{path} line {len(records) + 2}: {exc}") from None
    return records


def save_benchmark(
    results: dict[tuple[str, int], RunResult], plan: BenchmarkPlan, outdir
) -> Path:
    """Write one CSV per run plus the benchmark manifest; returns outdir.

    ``results`` may hold any of the plan's runs (``run --out`` saves one).
    A ``manifest.json`` already in ``outdir`` is replaced.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runs_meta: dict[str, dict] = {}
    for (algo, i) in sorted(results):
        result = results[(algo, i)]
        write_run_csv(result, outdir / run_csv_name(algo, i))
        runs_meta.setdefault(algo, {})[str(i)] = {
            "termination": result.termination,
            "n_steps": result.n_steps,
            "final_bsf": result.final_bsf,
            "final_unsafe": result.n_unsafe,
            "first_failure_step": result.first_failure_step(),
            "wall_time": round(result.wall_time, 4),
            "error": result.error,
        }
    manifest = {
        "config": plan.config,
        "algorithms": plan.algorithms,
        "n_runs": plan.n_runs,
        "seed_sets": [[list(p) for p in s] for s in plan.seed_sets],
        "runs": runs_meta,
        "versions": {
            "safeobench": __version__,
            "numpy": np.__version__,
        },
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outdir


def _field(mapping, key: str, where, kind: type = object):
    """``mapping[key]``; ConfigError naming ``where`` when ``mapping`` is
    not a dict, lacks ``key`` or holds something other than a ``kind``
    (a JSON ``true`` or ``false`` is not an ``int``)."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{where} has no {key!r}")
    value = mapping[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _run_index(text: str) -> Optional[int]:
    """The run index ``text`` spells in the only form ``save_benchmark``
    writes, a decimal without leading zeros, or None for any other text."""
    # isdecimal() admits only characters int() parses
    return int(text) if text.isdecimal() and str(int(text)) == text else None


def load_benchmark(outdir) -> tuple[dict, dict[tuple[str, int], RunResult]]:
    """Load a persisted benchmark: (manifest, results keyed by algo/run).

    Raise ConfigError for a manifest that is not JSON or lacks ``config``,
    ``runs`` or a run's ``n_steps`` or ``termination``, a ``runs`` key
    that is not in ``ALGORITHMS``, a run index other than ``str(i)`` for
    an ``int`` i >= 0 (the only form ``save_benchmark`` writes, so no two
    keys name the same run), a config that does not normalize, and
    a run CSV that does not load, whose record count is not the
    manifest's ``n_steps`` or exceeds the config's ``max_run_length``,
    and a run CSV name (``<algorithm>_run<i>.csv``) in ``outdir`` that the
    manifest does not list, such as one an earlier ``save_benchmark`` into
    the same directory left. The manifest comes back with its config
    normalized.
    """
    outdir = Path(outdir)
    manifest_path = outdir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {outdir}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc}") from None
    config = normalize_config(_field(manifest, "config", manifest_path))
    manifest["config"] = config
    limit = max_run_length(config)
    results = {}
    all_runs = _field(manifest, "runs", manifest_path, dict)
    for algo in all_runs:
        if algo not in ALGORITHMS:
            raise ConfigError(f"{manifest_path}: unknown algorithm {algo!r}")
        runs = _field(all_runs, algo, f"{manifest_path} runs", dict)
        for idx_str in runs:
            where = f"{manifest_path} run {algo}/{idx_str}"
            meta = _field(runs, idx_str, where, dict)
            n_steps = _field(meta, "n_steps", where, int)
            termination = _field(meta, "termination", where, str)
            i = _run_index(idx_str)
            if i is None:
                raise ConfigError(
                    f"{where}: run index is not a number without leading zeros"
                )
            path = outdir / run_csv_name(algo, i)
            records = load_run_csv(path)
            if len(records) != n_steps:
                raise ConfigError(
                    f"{path} holds {len(records)} records, "
                    f"the manifest says {n_steps}"
                )
            if n_steps > limit:
                raise ConfigError(
                    f"{path} holds {n_steps} records, more than the "
                    f"{limit} a run of the manifest's config can hold"
                )
            results[(algo, i)] = RunResult(
                algo, i, records, termination, error=meta.get("error")
            )
    for path in sorted(outdir.glob("*_run*.csv")):
        algo, _, idx_str = path.name[: -len(".csv")].rpartition("_run")
        i = _run_index(idx_str)
        if algo in ALGORITHMS and i is not None and (algo, i) not in results:
            raise ConfigError(
                f"{path} is a run CSV that {manifest_path} does not list, "
                f"left by an earlier save into {outdir}; write each "
                f"benchmark to a directory of its own"
            )
    return manifest, results
