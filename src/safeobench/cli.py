"""Command line interface.

Subcommands: ``problem inspect``, ``run``, ``benchmark``, ``report``.
Any config key can be overridden from the command line with repeated
``--set section.key=value`` flags. Exit codes: 0 success, 2 config
error, malformed results directory or a file or directory that cannot
be read or written (any ``OSError``), 3 infeasible seed scenario, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness, report
from .problems import Scenario
from .safeop import InfeasibleScenarioError, seed_eligibility

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    raw = json.loads(json.dumps(cfg))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise harness.ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        parts = key.split(".")
        if len(parts) != 2:
            raise harness.ConfigError(f"--set key must be section.key, got {key!r}")
        section, name = parts
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare strings allowed, e.g. scenario=s1
        raw.setdefault(section, {})[name] = parsed
    return harness.normalize_config(raw)


def _load(args) -> dict:
    cfg = harness.load_config(args.config)
    return _apply_overrides(cfg, args.set or [])


def cmd_inspect(args) -> int:
    cfg = _load(args)
    problem = harness.build_problem(cfg)
    grid = problem.grid
    print(f"objective        : {problem.objective.name} (d={grid.dimension})")
    print(f"grid             : {'x'.join(map(str, grid.shape))} = {grid.n_points} points")
    print(f"value range      : [{grid.values.min():.6g}, {grid.values.max():.6g}]")
    print(f"threshold h      : {problem.threshold:.6g} ({problem.percentile:g}th percentile)")
    print(f"lipschitz L      : {problem.lipschitz:.6g}")
    print(f"noise std        : {problem.noise_std:g}")
    print(f"scenario         : {problem.scenario.value}")
    safe, regions = seed_eligibility(problem)
    print(f"eligible seeds   : {int(safe.sum())} grid points (any scenario region)")
    if problem.scenario is not Scenario.NONE:
        for region, eligible in regions:
            print(f"  in {region.value:<15}: {int(eligible.sum())}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.run_index < 0:
        raise harness.ConfigError("--run-index must be >= 0")
    plan = harness.make_plan(cfg, [args.algo], args.run_index + 1)
    result = harness.run(plan, args.algo, args.run_index)
    print(
        f"{args.algo} run {args.run_index}: {result.n_steps} evaluations, "
        f"termination={result.termination}, "
        f"final BSF={result.final_bsf:.6g}, unsafe={result.n_unsafe}"
    )
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / harness.run_csv_name(args.algo, args.run_index)
        harness.write_run_csv(result, path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = _load(args)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    plan = harness.make_plan(cfg, algos, args.runs)
    results = harness.benchmark(plan, n_jobs=args.jobs)
    outdir = harness.save_benchmark(results, plan, args.out)
    n_failed = sum(
        1 for r in results.values() if r.termination == harness.TERMINATION_FAILED
    )
    print(f"{len(results)} runs written to {outdir}" + (f" ({n_failed} failed)" if n_failed else ""))
    return EXIT_OK


def cmd_report(args) -> int:
    manifest, results = harness.load_benchmark(args.results_dir)
    budget = harness.max_run_length(manifest["config"])
    by_algo: dict[str, list] = {}
    for (algo, _), result in sorted(results.items()):
        if result.records:
            by_algo.setdefault(algo, []).append(result)
    if not by_algo:
        raise harness.ConfigError(f"no run in {args.results_dir} has records")
    out = Path(args.out)
    if args.metric == "bsf":
        aggregates = {
            a: report.aggregate_bsf(rs, budget) for a, rs in by_algo.items()
        }
        if args.format == "csv":
            report.emit_bsf_csv(aggregates, out)
        else:
            report.emit_bsf_svg(aggregates, out)
    elif args.metric == "unsafe":
        summaries = {a: report.summarize_unsafe(rs) for a, rs in by_algo.items()}
        if args.format == "csv":
            report.emit_unsafe_csv(summaries, out)
        else:
            report.emit_unsafe_svg(summaries, out)
    else:  # trajectory
        if args.format == "svg":
            raise harness.ConfigError(
                "trajectory export supports csv only"
            )
        report.emit_trajectory_csv(results, out)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeobench",
        description="Safe-optimization benchmark harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    problem = sub.add_parser("problem", help="problem utilities")
    psub = problem.add_subparsers(dest="subcommand", required=True)
    inspect = psub.add_parser("inspect", help="print derived problem quantities")
    inspect.add_argument("config")
    inspect.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    inspect.set_defaults(func=cmd_inspect)

    runp = sub.add_parser("run", help="execute a single algorithm run")
    runp.add_argument("config")
    runp.add_argument("--algo", required=True, choices=harness.ALGORITHMS)
    runp.add_argument("--run-index", type=int, default=0)
    runp.add_argument("--out", help="directory for the run CSV")
    runp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    runp.set_defaults(func=cmd_run)

    bench = sub.add_parser("benchmark", help="run an algorithm x run-index matrix")
    bench.add_argument("config")
    bench.add_argument(
        "--algos", default=",".join(harness.ALGORITHMS), help="comma-separated names"
    )
    bench.add_argument("--runs", type=int, default=20)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    bench.set_defaults(func=cmd_benchmark)

    rep = sub.add_parser("report", help="aggregate a results directory")
    rep.add_argument("results_dir")
    rep.add_argument("--format", choices=("csv", "svg"), default="csv")
    rep.add_argument("--metric", choices=("bsf", "unsafe", "trajectory"), default="bsf")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleScenarioError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except np.linalg.LinAlgError as exc:  # gp.FactorizationError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (harness.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
