"""Measure one workload in a fresh process; started by ``run.py``.

Each iteration drives the public API the way ``safeobench benchmark``
followed by ``safeobench report`` does: ``make_plan`` -> ``benchmark`` ->
``save_benchmark`` -> ``load_benchmark`` -> ``aggregate_bsf`` /
``summarize_unsafe`` -> ``emit_*``, into a fresh directory, and checks
the outputs. One warm-up iteration, on a seed of its own, fills caches
and finishes lazy set-up; its outputs are checked but not timed. Timed
iterations follow, each on its own master seed, until ``--seconds``
have passed since the warm-up began, or ``--iterations`` times when that
is given. One JSON document of measurements is written to ``--out``.

    python3 perfbench/measure.py --workload lipfree-sphere --seed 20220709 \\
        --jobs 1 --seconds 0 --trace 0 --launched <time.time()> \\
        --workdir <dir> --out <file.json>
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from workloads import SRC, WORKLOADS, iteration_seed, percentile

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="master seed of the first iteration")
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--iterations", type=int, default=0,
                        help="run exactly this many iterations (0: until --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _blas_threads(module) -> dict:
    """Thread count of each OpenBLAS bundled with ``module`` (numpy, scipy)."""
    libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    found = {}
    for lib_path in sorted(libdir.glob("*openblas*.so*")) if libdir.is_dir() else ():
        lib = ctypes.CDLL(str(lib_path))
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[lib_path.name] = int(fn())
                break
    return found


def _blas_info(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": _blas_threads(module),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_info(numpy),
        "scipy_blas": _blas_info(scipy),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_results(results, loaded, eval_budget: int) -> list[str]:
    """Output checks: no failed run, full budget-exhausted runs, round trip."""
    problems = []
    for (algo, i), r in sorted(results.items()):
        if r.termination == "failed":
            problems.append(f"{algo}/{i} failed: {r.error}")
        if r.termination == "budget_exhausted" and r.n_steps != eval_budget:
            problems.append(
                f"{algo}/{i} exhausted its budget with {r.n_steps} records, "
                f"expected {eval_budget}"
            )
        back = loaded.get((algo, i))
        if back is None or back.n_steps != r.n_steps or back.termination != r.termination:
            problems.append(f"{algo}/{i} did not survive save -> load")
    if set(loaded) != set(results):
        problems.append("loaded runs differ from the benchmarked runs")
    return problems


def outcomes(results) -> dict:
    """Per-algorithm outcome sums; reported beside the metrics, never gated."""
    out: dict[str, dict] = {}
    for (algo, _), r in sorted(results.items()):
        o = out.setdefault(algo, {"runs": 0, "final_bsf_sum": 0.0, "unsafe_evals": 0,
                                  "stalled_runs": 0, "forced_accepts": 0, "fallbacks": 0})
        o["runs"] += 1
        if r.records:
            o["final_bsf_sum"] += r.records[-1].bsf_true
        o["unsafe_evals"] += sum(rec.is_unsafe for rec in r.records)
        o["stalled_runs"] += r.termination == "stalled"
        for d in r.diagnostics:
            o["forced_accepts"] += len(d.get("forced_accepts", ()))
            o["fallbacks"] += bool(d.get("fallback", False))
    return out


def layer_metrics(tracer, forced_accepts: int, wall_s: float) -> dict:
    """Per-layer metrics of traced iterations, keyed by metric name.

    A layer the workload does not exercise reads 0, and so do means and
    ratios over zero calls. ``trace.coverage`` is the sum of the self
    times of every span except the orchestration glue, over ``wall_s``.
    """
    from tracer import GLUE_SPANS, HOOK_SPAN

    c = tracer.counters
    s = tracer.self_s
    n = tracer.calls
    step = tracer.stats.get("safegp.step")
    steps_ms = [d * 1e3 for d in step.durations] if step else []
    screens = n("ea.va_screen")
    layer_self = sum(st.self_s for name, st in tracer.stats.items() if name not in GLUE_SPANS)

    def mean_per_call(counter, span):
        return c[counter] / n(span) if n(span) else 0.0

    return {
        "gp.fit.calls": n("gp.fit"),
        "gp.fit.self_s": s("gp.fit"),
        "gp.fit.train_rows": int(c["gp.fit.train_rows"]),
        "gp.posterior_detail.self_s": s("gp.posterior_detail"),
        "gp.posterior_detail.query_points": int(c["gp.posterior_detail.query_points"]),
        "gp.posterior_detail.solve_flops": int(c["gp.posterior_detail.solve_flops"]),
        "gp.kernel_matrix.self_s": s("gp.kernel_matrix"),
        "gp.kernel_matrix.bytes": int(c["gp.kernel_matrix.bytes"]),
        "gp.posterior.self_s": s("gp.posterior"),
        "gp.posterior.query_points": int(c["gp.posterior.query_points"]),
        "safegp.safe_set.self_s": s("safegp.safe_set"),
        "safegp.safe_set.size_mean": mean_per_call("safegp.safe_set.size_sum", "safegp.safe_set"),
        "safegp.expanders.self_s": s("safegp.expanders"),
        "safegp.expanders.count_mean": mean_per_call("safegp.expanders.count_sum",
                                                     "safegp.expanders"),
        "safegp.maximizers.self_s": s("safegp.maximizers"),
        "safegp.maximizers.count_mean": mean_per_call("safegp.maximizers.count_sum",
                                                      "safegp.maximizers"),
        "safegp.select.self_s": s("safegp.select"),
        "safegp.select.fallbacks": int(c["safegp.select.fallbacks"]),
        "safegp.step.self_s": s("safegp.step"),
        "safegp.step.p50_ms": percentile(steps_ms, 50) if steps_ms else 0.0,
        "safegp.step.p99_ms": percentile(steps_ms, 99) if steps_ms else 0.0,
        "safeop.oracle.calls": n("safeop.oracle"),
        "safeop.oracle.self_s": s("safeop.oracle"),
        "safeop.unsafe_evals": int(c["safeop.unsafe_evals"]),
        "ea.variation.calls": n("ea.variation"),
        "ea.variation.self_s": s("ea.variation"),
        "ea.va_screen.calls": screens,
        "ea.va_screen.self_s": s("ea.va_screen"),
        "ea.va_screen.accept_ratio": c["ea.va_screen.accepts"] / screens if screens else 0.0,
        "ea.forced_accepts": forced_accepts,
        "ea.survival.self_s": s("ea.survival"),
        "ea.step.self_s": s("ea.step"),
        "harness.plan.self_s": s("harness.plan"),
        # Orchestration outside every layer span: building optimizers and
        # records in harness.run, rebuilding the problem in harness.benchmark.
        "harness.run.self_s": s("harness.run") + s("harness.benchmark"),
        "harness.save.self_s": s("harness.save"),
        "harness.save.bytes": int(c["harness.save.bytes"]),
        "report.load.self_s": s("report.load"),
        "report.aggregate.self_s": s("report.aggregate"),
        "report.emit.self_s": s("report.emit"),
        "trace.hooks_s": s(HOOK_SPAN),
        "trace.coverage": layer_self / wall_s,
    }


def run_iteration(harness, report, workload, cfg: dict, jobs: int, workdir: Path) -> dict:
    """Plan -> benchmark -> save -> load -> report in ``workdir``, timed end to end."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    plan = harness.make_plan(cfg, list(workload.algorithms), workload.n_runs)
    tb0 = time.perf_counter()
    results = harness.benchmark(plan, n_jobs=jobs)
    bench_s = time.perf_counter() - tb0
    results_dir = harness.save_benchmark(results, plan, workdir / "results")
    manifest, loaded = harness.load_benchmark(results_dir)
    budget = int(manifest["config"]["problem"]["eval_budget"])
    by_algo: dict[str, list] = {}
    for (algo, _), r in sorted(loaded.items()):
        if r.records:
            by_algo.setdefault(algo, []).append(r)
    aggregates = {a: report.aggregate_bsf(rs, budget) for a, rs in by_algo.items()}
    summaries = {a: report.summarize_unsafe(rs) for a, rs in by_algo.items()}
    report_dir = workdir / "report"
    report_dir.mkdir(parents=True)
    report.emit_bsf_csv(aggregates, report_dir / "bsf.csv")
    report.emit_bsf_svg(aggregates, report_dir / "bsf.svg")
    report.emit_unsafe_csv(summaries, report_dir / "unsafe.csv")
    report.emit_unsafe_svg(summaries, report_dir / "unsafe.svg")
    report.emit_trajectory_csv(loaded, report_dir / "trajectory.csv")
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    cpu_s = sum(
        getattr(after, f) - getattr(before, f)
        for before, after in ((self0, self1), (kids0, kids1))
        for f in ("ru_utime", "ru_stime")
    )
    n_seeds = int(cfg["problem"]["n_seeds"])
    evals = sum(max(0, r.n_steps - n_seeds) for r in results.values())
    digests = {p.name: _sha256(p) for p in sorted(results_dir.glob("*.csv"))}
    digests.update({f"report/{p.name}": _sha256(p) for p in sorted(report_dir.iterdir())})
    problems = check_results(results, loaded, budget)
    shutil.rmtree(workdir)
    return {
        "master_seed": int(cfg["problem"]["master_seed"]),
        "wall_s": wall_s,
        "bench_s": bench_s,
        "cpu_s": cpu_s,
        "evals": evals,
        # One sample per run index, summed over the workload's algorithms: the
        # algorithms differ several-fold in cost, so the pooled per-run times
        # are bimodal and their median would sit in the gap between modes.
        "run_s": [sum(results[(a, i)].wall_time for a in plan.algorithms)
                  for i in range(plan.n_runs)],
        "ops": len(results),
        "failed": sum(r.termination == "failed" for r in results.values()),
        "problems": problems,
        "digests": digests,
        "outcomes": outcomes(results),
    }


def iterate(harness, report, workload, args, cfg: dict, start: float) -> list[dict]:
    """Run iterations until ``--seconds`` have passed since ``start``, or
    ``--iterations`` of them."""
    iterations = []
    longest = 0.0
    while (len(iterations) < args.iterations if args.iterations
           else not iterations or time.monotonic() - start + longest <= args.seconds):
        if iterations:
            cfg = harness.normalize_config(
                workload.config(iteration_seed(args.seed, len(iterations))))
        t = time.monotonic()
        workdir = Path(args.workdir) / f"m{len(iterations)}"
        iterations.append(run_iteration(harness, report, workload, cfg, args.jobs, workdir))
        longest = max(longest, time.monotonic() - t)
    return iterations


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    from safeobench import harness, report

    if not Path(harness.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"safeobench imported from {harness.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cfg = harness.normalize_config(workload.config(args.seed))
    out: dict = {"setup_s": time.time() - args.launched}
    if not args.setup_only:
        start = time.monotonic()
        warmup_cfg = harness.normalize_config(workload.config(iteration_seed(args.seed, -1)))
        warmup = run_iteration(harness, report, workload, warmup_cfg, args.jobs,
                               Path(args.workdir) / "warmup")
        out["warmup"] = {k: warmup[k] for k in ("master_seed", "wall_s", "problems")}
        tracer = None
        if args.trace:
            import tracer as layer_tracer

            tracer = layer_tracer.install(layer_tracer.Tracer(keep_durations=("safegp.step",)))
        try:
            iterations = iterate(harness, report, workload, args, cfg, start)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            forced = sum(o["forced_accepts"] for it in iterations for o in it["outcomes"].values())
            out["layers"] = layer_metrics(tracer, forced, sum(it["wall_s"] for it in iterations))
        # ru_maxrss is in KiB on Linux: this process plus its largest worker.
        # Each iteration's runs are freed before the next, so this is the
        # largest peak of any one iteration, not the sum over iterations.
        peak_kib = sum(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        out.update(iterations=iterations, peak_rss_mb=peak_kib / 1024.0, env=environment())
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
