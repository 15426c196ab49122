"""safeobench benchmark: end-to-end timings and per-layer traces.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports the package from
``src/``. Each workload is measured in a fresh Python process
(``measure.py``) with OpenBLAS pinned to one thread per process. With
their default thread counts numpy's and scipy's OpenBLAS each keep a
spinning worker thread, so on a machine of a few shared cores the
timings measure the scheduler more than the program. ``--trace 1``
repeats the untraced iterations with the BLAS thread variables of the
calling environment left untouched and reports the slowdown, so a
change to how the program uses BLAS threads still shows.

``--trace 0`` repeats the workload's matrix for ``--seconds`` seconds,
after one untimed warm-up iteration, each iteration on its own master
seed derived from ``--seed``, and
reports the end-to-end metrics: medians over the iterations, run times
per run index pooled over all of them, and the median set-up time of
several fresh processes. ``--trace 1`` runs the matrix untraced at the workload's ``--jobs`` for
part of ``--seconds``, then the same iterations traced at ``--jobs 1``
(plus an untraced ``--jobs 1`` run as the overhead baseline when the
workload uses more jobs), and reports the per-layer metrics.

Every iteration's outputs are checked: no run fails, every
budget-exhausted run holds exactly ``eval_budget`` records, and saved
runs load back. In trace mode the SHA-256 of every run CSV and report
file must also match between the untraced and the traced run, which
checks that neither tracing nor ``--jobs`` changes results. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 1 means a check
failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS, percentile, samples_above, \
    tail_percentile

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
DEADLINE_S = 170.0  # every run of this command ends well within 180 s
SETUP_PROBES = 8  # setup-only processes, on top of the measuring process
BLAS_THREADS_VAR = "OPENBLAS_NUM_THREADS"


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed of the first iteration (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


class Runner:
    """Starts measuring processes inside one scratch directory."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self._count = 0

    def launch(self, workload: str, seed: int, jobs: int, seconds: float = 0.0,
               iterations: int = 0, trace: bool = False, setup_only: bool = False,
               default_blas: bool = False) -> dict:
        """Run ``measure.py`` in a fresh process and return its JSON document.

        OpenBLAS runs one thread per process, unless ``default_blas`` keeps
        the thread variables of the calling environment.
        """
        self._count += 1
        workdir = self.scratch / f"p{self._count}"
        workdir.mkdir()
        out = workdir / "result.json"
        cmd = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
            "--seconds", repr(seconds), "--iterations", str(iterations),
            "--trace", str(int(trace)),
            "--workdir", str(workdir), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        env = {**os.environ, "TMPDIR": str(workdir)}
        if not default_blas:
            env[BLAS_THREADS_VAR] = "1"
        proc = subprocess.Popen(cmd + ["--launched", repr(time.time())], env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Stop the process, if still running, and any worker it left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise BenchError(f"{workload} measurement exceeded the time limit")
        if code != 0:
            raise BenchError(f"{workload} measurement exited with code {code}")
        result = json.loads(out.read_text())
        shutil.rmtree(workdir)
        return result


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _merge_outcomes(iterations) -> dict:
    merged: dict[str, dict] = {}
    for it in iterations:
        for algo, o in it["outcomes"].items():
            m = merged.setdefault(algo, dict.fromkeys(o, 0))
            for k, v in o.items():
                m[k] += v
    for m in merged.values():
        m["mean_final_bsf"] = m.pop("final_bsf_sum") / m["runs"]
    return merged


def end_to_end(proc: dict, setups: list) -> tuple[dict, str]:
    iterations = proc["iterations"]
    run_s = [t for it in iterations for t in it["run_s"]]
    q = tail_percentile(len(run_s))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "evals_per_s": statistics.median(it["evals"] / it["bench_s"] for it in iterations),
        "run_s.p50": percentile(run_s, 50),
        "run_s.tail": percentile(run_s, q),
        "peak_rss_mb": proc["peak_rss_mb"],
    }
    walls = ", ".join(f"{it['wall_s']:.3f}" for it in iterations)
    note = (f"wall_s of each iteration: {walls}; "
            f"run_s: {len(run_s)} run indices from {len(iterations)} iterations, each "
            "summed over the workload's algorithms; "
            f"tail is p{q} with {samples_above(len(run_s), q)} samples above it; "
            f"setup_s: median of {len(setups)} process start-ups")
    return values, note


def timed(runner: Runner, name: str, seed: int, seconds: float):
    jobs = WORKLOADS[name].jobs
    setups = [runner.launch(name, seed, jobs, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    proc = runner.launch(name, seed, jobs, seconds=seconds)
    setups.append(proc["setup_s"])
    values, note = end_to_end(proc, setups)
    return [proc], values, [note]


def traced(runner: Runner, name: str, seed: int, seconds: float):
    """Per-layer metrics, plus the byte-identity check of untraced vs traced outputs.

    The untraced run at the workload's jobs J is time-boxed to
    ``seconds / (2 + 2 J)``; the traced run, the untraced run with default
    BLAS threads (both at ``--jobs 1``) and the untraced ``--jobs 1``
    baseline when J > 1 repeat exactly its iterations, on the same seeds,
    so the whole measurement takes about ``seconds``.
    """
    jobs = WORKLOADS[name].jobs
    timed_p = runner.launch(name, seed, jobs, seconds=seconds / (2 + 2 * jobs))
    k = len(timed_p["iterations"])
    base_p = timed_p if jobs == 1 else runner.launch(name, seed, 1, iterations=k)
    traced_p = runner.launch(name, seed, 1, iterations=k, trace=True)
    blas_p = runner.launch(name, seed, 1, iterations=k, default_blas=True)
    problems = []
    for label, p in ((f"--jobs {jobs}", timed_p), ("--jobs 1", base_p)):
        for it, tr in zip(p["iterations"], traced_p["iterations"]):
            differ = sorted(f for f in set(it["digests"]) | set(tr["digests"])
                            if it["digests"].get(f) != tr["digests"].get(f))
            if differ:
                problems.append(f"seed {it['master_seed']}: untraced {label} and traced "
                                f"outputs differ: {differ[:5]}")
    walls = {label: sum(it["wall_s"] for it in p["iterations"])
             for label, p in (("base", base_p), ("traced", traced_p), ("blas", blas_p))}
    layers = dict(traced_p["layers"])
    layers["harness.pool_busy_ratio"] = sum(
        sum(it["run_s"]) for it in timed_p["iterations"]) / (
        jobs * sum(it["bench_s"] for it in timed_p["iterations"]))
    layers["trace.wall_s"] = walls["traced"]
    layers["trace.overhead_s"] = walls["traced"] - walls["base"]
    layers["blas.default_threads.slowdown"] = walls["blas"] / walls["base"]
    n_files = sum(len(it["digests"]) for it in traced_p["iterations"])
    notes = [f"byte identity: {n_files} files from {k} iterations compared between the "
             f"untraced --jobs {jobs} and the traced --jobs 1 run",
             f"--jobs 1 wall_s over {k} iterations: untraced {walls['base']!r} s, "
             f"traced {walls['traced']!r} s, default BLAS threads {walls['blas']!r} s",
             "BLAS threads with the calling environment's settings: numpy "
             f"{blas_p['env']['numpy_blas']['threads']}, scipy "
             f"{blas_p['env']['scipy_blas']['threads']}"]
    procs = [timed_p, traced_p, blas_p] + ([base_p] if base_p is not timed_p else [])
    return procs, layers, notes, problems


def metric_units(trace: bool) -> dict:
    """Names and units of the metrics one mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(runner: Runner, name: str, args, env: dict, units: dict) -> dict:
    if args.trace:
        procs, values, notes, problems = traced(runner, name, args.seed, args.seconds)
    else:
        procs, values, notes = timed(runner, name, args.seed, args.seconds)
        problems = []
    iterations = [it for p in procs for it in p["iterations"]]
    checked = iterations + [p["warmup"] for p in procs]
    problems = [msg for it in checked for msg in it["problems"]] + problems
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    env = {**env, **procs[0]["env"], "workload": name, "master_seed": args.seed,
           "iteration_seeds": [it["master_seed"] for it in iterations]}
    print("env " + json.dumps(env, sort_keys=True))
    for algo, o in _merge_outcomes(iterations).items():
        print(f"outcome {name} {algo} " + json.dumps(o, sort_keys=True))
    warmups = ", ".join(f"{p['warmup']['wall_s']:.3f}" for p in procs)
    notes = notes + [f"untimed warm-up iteration wall_s: {warmups}"]
    for note in notes:
        print(f"note {name} {note}")
    for metric, m in metrics.items():
        print(f"metric {name} {metric} = {m['value']!r} {m['unit']}")
    for p in problems:
        print(f"check {name} FAILED {p}")
    print(f"check {name} {'ok' if not problems else 'FAILED'}")
    return {
        "correct": not problems,
        "attempted": sum(it["ops"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "safeobench" / "__init__.py").is_file():
        print(f"no safeobench sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    env = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    runner = Runner(scratch, time.monotonic() + DEADLINE_S * len(names))
    try:
        outputs = {name: run_workload(runner, name, args, env, units) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        final = outputs[names[0]]
    else:
        for name, out in outputs.items():
            print(f"result {name} " + json.dumps(out))
        final = {
            "correct": all(o["correct"] for o in outputs.values()),
            "attempted": sum(o["attempted"] for o in outputs.values()),
            "failed": sum(o["failed"] for o in outputs.values()),
            "metrics": {f"{n}:{k}": v for n, o in outputs.items()
                        for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
