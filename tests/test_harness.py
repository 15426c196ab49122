import csv
import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import safeobench
from safeobench import Observation, cli, harness
from safeobench.harness import (
    ConfigError,
    RunResult,
    benchmark,
    build_problem,
    derive_rng,
    load_run_csv,
    make_plan,
    make_seed_sets,
    normalize_config,
    run,
    save_benchmark,
    write_run_csv,
)

FAST_CFG = {
    "problem": {
        "nodes_per_axis": 30,
        "percentile": 90.0,
        "eval_budget": 20,
        "n_seeds": 4,
        "master_seed": 99,
    }
}


@pytest.fixture(scope="module")
def fast_cfg():
    return normalize_config(FAST_CFG)


@pytest.fixture(scope="module")
def fast_problem(fast_cfg):
    return build_problem(fast_cfg)


@pytest.fixture(scope="module")
def fast_plan(fast_cfg):
    return make_plan(fast_cfg, list(harness.ALGORITHMS), 1)


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this checkout."""
    src = str(Path(safeobench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def record(step, unsafe=False, f=0.0):
    return Observation(
        point=(0.0, 0.0), y=f, f_true=f, is_unsafe=unsafe, step_index=step, bsf_true=f
    )


class TestConfig:
    def test_defaults_applied(self):
        cfg = normalize_config({})
        assert cfg["problem"]["eval_budget"] == 100
        assert cfg["gp"]["beta"] == 2.0
        assert cfg["ea"]["crossover_prob"] == 0.8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            normalize_config({"problem": {"evaluation_budget": 10}})
        with pytest.raises(ConfigError, match="sections"):
            normalize_config({"problems": {}})

    def test_safety_budget_forms(self):
        assert normalize_config({"problem": {"safety_budget": 3}})
        assert normalize_config({"problem": {"safety_budget": "unlimited"}})
        with pytest.raises(ConfigError):
            normalize_config({"problem": {"safety_budget": "none"}})
        with pytest.raises(ConfigError):
            normalize_config({"problem": {"safety_budget": True}})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(FAST_CFG))
        cfg = harness.load_config(path)
        assert cfg["problem"]["eval_budget"] == 20

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            make_plan(normalize_config(FAST_CFG), ["cmaes"], 1)


class TestRngDerivation:
    def test_deterministic(self):
        a = derive_rng(1, 2, "oracle:x").normal(size=4)
        b = derive_rng(1, 2, "oracle:x").normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_purpose_and_run(self):
        base = derive_rng(1, 0, "oracle:x").normal(size=4)
        assert not np.array_equal(base, derive_rng(1, 1, "oracle:x").normal(size=4))
        assert not np.array_equal(base, derive_rng(1, 0, "oracle:y").normal(size=4))
        assert not np.array_equal(base, derive_rng(2, 0, "oracle:x").normal(size=4))


class TestSeedSets:
    def test_shapes(self, fast_problem):
        sets = make_seed_sets(fast_problem, 5, 4, 99)
        assert len(sets) == 5
        assert all(len(s) == 4 for s in sets)

    def test_deterministic(self, fast_problem):
        assert make_seed_sets(fast_problem, 3, 4, 7) == make_seed_sets(
            fast_problem, 3, 4, 7
        )

    def test_distinct_across_runs(self, fast_problem):
        sets = make_seed_sets(fast_problem, 4, 4, 7)
        assert len({tuple(s) for s in sets}) == 4


class TestRun:
    def test_exact_record_count(self, fast_plan):
        result = run(fast_plan, "unsafe-ea", 0)
        assert result.n_steps == 20
        assert [r.step_index for r in result.records] == list(range(1, 21))
        assert result.termination == "budget_exhausted"

    def test_bsf_is_running_max_of_true_values(self, fast_plan):
        result = run(fast_plan, "va-ea", 0)
        best = -np.inf
        for r in result.records:
            best = max(best, r.f_true)
            assert r.bsf_true == best
        assert np.all(np.diff(result.bsf_series()) >= 0)

    def test_zero_safety_budget_stops_at_first_failure(self):
        cfg = normalize_config(
            {
                "problem": {
                    **FAST_CFG["problem"],
                    "safety_budget": 0,
                    "percentile": 70.0,
                    "noise_std": 0.5,
                    "eval_budget": 200,
                },
                # large blind jumps so the safety-blind EA fails quickly
                "ea": {"mutation_std": 2.5, "mutation_prob": 1.0},
            }
        )
        result = run(make_plan(cfg, ["unsafe-ea"], 1), "unsafe-ea", 0)
        assert result.termination == "safety_exhausted"
        assert result.records[-1].is_unsafe
        assert sum(r.is_unsafe for r in result.records) == 1
        assert result.first_failure_step() == result.records[-1].step_index

    def test_summary_examples(self):
        rr = RunResult("x", 0, [record(i + 1) for i in range(5)], "budget_exhausted")
        assert (rr.n_unsafe, rr.first_failure_step()) == (0, None)
        recs = [record(i + 1, unsafe=(i + 1 in (3, 7)), f=-i) for i in range(10)]
        rr = RunResult("x", 0, recs, "budget_exhausted")
        assert (rr.n_unsafe, rr.first_failure_step(), rr.final_bsf) == (2, 3, -9)
        empty = RunResult("x", 0, [], "failed")
        assert (empty.n_unsafe, empty.first_failure_step(), empty.final_bsf) == (0, None, None)


class TestBenchmark:
    def test_counts_and_shared_seeds(self, fast_cfg):
        plan = make_plan(fast_cfg, ["va-ea", "unsafe-ea"], 3)
        results = benchmark(plan)
        assert len(results) == 6
        # same run index uses the same seed set for each algorithm
        for i in range(3):
            a = [r.point for r in results[("va-ea", i)].records[:4]]
            b = [r.point for r in results[("unsafe-ea", i)].records[:4]]
            assert a == list(map(tuple, plan.seed_sets[i]))
            assert b == list(map(tuple, plan.seed_sets[i]))

    def test_parallel_equals_sequential(self, fast_cfg, tmp_path):
        plan = make_plan(fast_cfg, ["va-ea", "safe-ucb"], 2)
        seq = benchmark(plan, n_jobs=1)
        par = benchmark(plan, n_jobs=2)
        d1, d2 = tmp_path / "seq", tmp_path / "par"
        save_benchmark(seq, plan, d1)
        save_benchmark(par, plan, d2)
        for p1 in sorted(d1.glob("*.csv")):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()

    def test_failures_recorded_not_raised(self, fast_cfg, monkeypatch):
        plan = make_plan(fast_cfg, ["va-ea"], 2)
        real_run = harness.run

        def flaky(plan, algorithm, run_index):
            if run_index == 1:
                raise RuntimeError("boom")
            return real_run(plan, algorithm, run_index)

        monkeypatch.setattr(harness, "run", flaky)
        results = benchmark(plan)
        assert results[("va-ea", 0)].termination == "budget_exhausted"
        assert results[("va-ea", 1)].termination == "failed"
        assert "boom" in results[("va-ea", 1)].error


def _bundled_blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy's and scipy's wheels bundle."""
    counts = {}
    for package in ("numpy", "scipy"):
        libdir = Path(sys.modules[package].__file__).resolve().parents[1] / f"{package}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    counts[path.name] = getter()
    return counts


class TestPool:
    def test_workers_run_one_blas_thread(self, fast_cfg, monkeypatch):
        import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS too

        before = _bundled_blas_threads()
        if not before:
            pytest.skip("numpy and scipy bundle no OpenBLAS here")

        def report_threads(plan, algorithm, run_index):
            return RunResult(algorithm, run_index, [], "done",
                             diagnostics=[_bundled_blas_threads()])

        # The forked workers inherit the patched module.
        monkeypatch.setattr(harness, "run", report_threads)
        results = benchmark(make_plan(fast_cfg, ["va-ea"], 3), n_jobs=2)
        for result in results.values():
            assert result.diagnostics == [dict.fromkeys(before, 1)]
        assert _bundled_blas_threads() == before  # the caller's are left alone

    def test_pool_capped_at_task_count(self, fast_cfg, monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        benchmark(make_plan(fast_cfg, ["va-ea"], 1), n_jobs=8)
        benchmark(make_plan(fast_cfg, ["va-ea", "unsafe-ea"], 2), n_jobs=3)
        assert sizes == [1, 3]


class TestImports:
    def test_ea_benchmark_and_report_never_import_scipy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_CFG))
        code = f"""
import json, sys
from safeobench import cli, harness, report
for jobs in ("1", "2"):
    out = {str(tmp_path)!r} + "/jobs" + jobs
    assert cli.main(["benchmark", {str(cfg)!r}, "--algos", "va-ea,unsafe-ea",
                     "--runs", "3", "--jobs", jobs, "--out", out]) == 0
    for metric, fmt in (("bsf", "csv"), ("bsf", "svg"), ("unsafe", "csv"),
                        ("unsafe", "svg"), ("trajectory", "csv")):
        assert cli.main(["report", out, "--metric", metric, "--format", fmt,
                         "--out", out + "/" + metric + "." + fmt]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        for p in sorted((tmp_path / "jobs1").glob("*.csv")):
            assert p.read_bytes() == (tmp_path / "jobs2" / p.name).read_bytes()

    def test_gp_benchmark_never_imports_scipy_spatial(self, tmp_path):
        # The GP stack computes its distances with numpy: scipy.linalg is
        # the one scipy package a GP run loads.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FAST_CFG))
        code = f"""
import json, sys
from safeobench import cli
assert cli.main(["benchmark", {str(cfg)!r}, "--algos", "safeopt,msafeopt",
                 "--runs", "2", "--jobs", "1", "--out", {str(tmp_path / "out")!r}]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "scipy.linalg" in loaded
        assert [m for m in loaded if m.startswith("scipy.spatial")] == []

    def test_gp_plan_imports_the_gp_stack_before_forking(self):
        code = f"""
import sys
from safeobench import harness
cfg = harness.normalize_config({FAST_CFG!r})
harness.make_plan(cfg, ["va-ea"], 1)
print("safeobench.safegp" in sys.modules)
harness.make_plan(cfg, ["va-ea", "msafe-ucb"], 1)
print("safeobench.safegp" in sys.modules, "scipy.linalg" in sys.modules)
"""
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "True True"]


class TestPersistence:
    def test_csv_round_trip(self, fast_plan, tmp_path):
        result = run(fast_plan, "safe-ucb", 0)
        path = tmp_path / "r.csv"
        write_run_csv(result, path)
        loaded = load_run_csv(path)
        assert len(loaded) == len(result.records)
        for a, b in zip(loaded, result.records):
            assert a == b

    def test_csv_header(self, fast_plan, tmp_path):
        result = run(fast_plan, "va-ea", 0)
        path = tmp_path / "r.csv"
        write_run_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "step,x1,x2,y,f_true,is_unsafe,bsf_true"

    @staticmethod
    def csv_module_writer(result, path):
        """Reference writer: one ``csv.writer`` row per record."""
        dim = len(result.records[0].point) if result.records else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step"] + [f"x{i + 1}" for i in range(dim)]
                + ["y", "f_true", "is_unsafe", "bsf_true"]
            )
            for r in result.records:
                writer.writerow(
                    [r.step_index] + [repr(float(c)) for c in r.point]
                    + [repr(float(r.y)), repr(float(r.f_true)), int(r.is_unsafe),
                       repr(float(r.bsf_true))]
                )

    EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e16, -2.5e-7,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, -3.0)

    @classmethod
    def edge_result(cls, dim, n_records):
        values = cls.EDGE_VALUES
        records = [
            Observation(
                point=tuple(values[(t + k) % len(values)] for k in range(dim)),
                y=values[(t + 3) % len(values)],
                f_true=values[(t + 5) % len(values)],
                is_unsafe=t % 3 == 1,
                step_index=t + 1,
                bsf_true=values[(t + 7) % len(values)],
            )
            for t in range(n_records)
        ]
        return RunResult("va-ea", 0, records, "budget_exhausted")

    @pytest.mark.parametrize("dim,n_records", [(1, 12), (2, 10), (3, 25), (2, 0)])
    def test_writer_bytes_equal_csv_module(self, dim, n_records, tmp_path):
        result = self.edge_result(dim, n_records)
        write_run_csv(result, tmp_path / "new.csv")
        self.csv_module_writer(result, tmp_path / "ref.csv")
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()
        assert data.count(b"\r\n") == n_records + 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reader_round_trips_bit_patterns(self, dim, tmp_path):
        result = self.edge_result(dim, 30)
        write_run_csv(result, tmp_path / "r.csv")
        loaded = load_run_csv(tmp_path / "r.csv")
        # repr tells -0.0 from 0.0; == does not
        assert repr(loaded) == repr(result.records)

    def test_reader_accepts_newline_only_line_ends(self, tmp_path):
        result = self.edge_result(2, 10)
        write_run_csv(result, tmp_path / "crlf.csv")
        lf = (tmp_path / "crlf.csv").read_bytes().replace(b"\r\n", b"\n")
        assert b"\r" not in lf
        (tmp_path / "lf.csv").write_bytes(lf)
        loaded = load_run_csv(tmp_path / "lf.csv")
        assert repr(loaded) == repr(result.records)

    def test_reader_reads_header_only_file(self, tmp_path):
        write_run_csv(self.edge_result(2, 0), tmp_path / "r.csv")
        assert load_run_csv(tmp_path / "r.csv") == []

    def test_reader_rejects_empty_file(self, tmp_path):
        (tmp_path / "r.csv").write_bytes(b"")
        with pytest.raises(ConfigError, match="empty"):
            load_run_csv(tmp_path / "r.csv")

    @pytest.mark.parametrize("header", [b"step", b"a,b,c,d,e,f", b"step,x1,y,f_true,is_unsafe"])
    def test_reader_rejects_other_headers(self, header, tmp_path):
        (tmp_path / "r.csv").write_bytes(header + b"\r\n")
        with pytest.raises(ConfigError, match="header"):
            load_run_csv(tmp_path / "r.csv")

    def test_save_and_load_benchmark(self, fast_cfg, tmp_path):
        plan = make_plan(fast_cfg, ["va-ea"], 2)
        results = benchmark(plan)
        outdir = save_benchmark(results, plan, tmp_path / "bench")
        manifest, loaded = harness.load_benchmark(outdir)
        assert manifest["n_runs"] == 2
        assert set(loaded) == {("va-ea", 0), ("va-ea", 1)}
        assert loaded[("va-ea", 0)].termination == "budget_exhausted"
        assert (outdir / "va-ea_run0.csv").exists()

    def test_rerun_is_byte_identical(self, fast_cfg, tmp_path):
        for name in ("a", "b"):
            plan = make_plan(fast_cfg, ["va-ea", "safe-ucb"], 2)
            save_benchmark(benchmark(plan), plan, tmp_path / name)
        for p in sorted((tmp_path / "a").glob("*.csv")):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()


class TestInformationHiding:
    def test_algorithm_modules_never_read_f_true(self):
        # only the observed y may steer the algorithms; the true value and
        # the best true value so far are logged out-of-band by the oracle
        src_dir = Path(harness.__file__).parent
        for module in ("safegp.py", "ea.py"):
            text = (src_dir / module).read_text()
            assert not re.search(r"\.(f_true|bsf_true)\b", text), module


# Ways to damage a two-run va-ea results directory.


def _cut_to_header(outdir):
    path = outdir / "va-ea_run1.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _edit_row(outdir, edit):
    path = outdir / "va-ea_run1.csv"
    lines = path.read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _short_row(outdir):
    _edit_row(outdir, lambda fields: fields[:3])


def _non_numeric_field(outdir):
    _edit_row(outdir, lambda fields: fields[:3] + ["y?"] + fields[4:])


def _is_unsafe_two(outdir):
    _edit_row(outdir, lambda fields: fields[:-2] + ["2"] + fields[-1:])


def _is_unsafe_minus_one(outdir):
    _edit_row(outdir, lambda fields: fields[:-2] + ["-1"] + fields[-1:])


def _step_repeated(outdir):
    _edit_row(outdir, lambda fields: ["1"] + fields[1:])


def _step_zero_padded(outdir):
    _edit_row(outdir, lambda fields: ["0" + fields[0]] + fields[1:])


def _steps_from_zero(outdir):
    path = outdir / "va-ea_run1.csv"
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        step, rest = lines[i].split(",", 1)
        lines[i] = f"{int(step) - 1},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _truncate_manifest(outdir):
    path = outdir / "manifest.json"
    path.write_text(path.read_text()[:200])


def _edit_manifest(outdir, edit):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _drop_config(outdir):
    _edit_manifest(outdir, lambda m: m.pop("config"))


def _drop_runs(outdir):
    _edit_manifest(outdir, lambda m: m.pop("runs"))


def _drop_n_steps(outdir):
    _edit_manifest(outdir, lambda m: m["runs"]["va-ea"]["1"].pop("n_steps"))


def _drop_termination(outdir):
    _edit_manifest(outdir, lambda m: m["runs"]["va-ea"]["0"].pop("termination"))


def _non_numeric_run_index(outdir):
    def rename(manifest):
        runs = manifest["runs"]["va-ea"]
        runs["x"] = runs.pop("1")

    _edit_manifest(outdir, rename)


def _superscript_run_index(outdir):
    def rename(manifest):
        runs = manifest["runs"]["va-ea"]
        runs["\u00b2"] = runs.pop("1")  # str.isdigit() is true for it

    _edit_manifest(outdir, rename)


def _zero_padded_run_index(outdir):
    # "00" names run 0 a second time
    _edit_manifest(
        outdir, lambda m: m["runs"]["va-ea"].update({"00": m["runs"]["va-ea"]["0"]})
    )


def _bool_n_steps(outdir):
    # a one-record run whose n_steps is true, equal to 1 as an int
    path = outdir / "va-ea_run1.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
    _edit_manifest(outdir, lambda m: m["runs"]["va-ea"]["1"].update(n_steps=True))


def _run_longer_than_budget(outdir):
    # the run CSVs and their n_steps stay; only the config's budget shrinks
    _edit_manifest(outdir, lambda m: m["config"]["problem"].update(eval_budget=1))


def _path_as_algorithm(outdir):
    # a valid copy next to the results, named through the algorithm key
    shutil.copytree(outdir, outdir.parent / "dup")

    def rename(manifest):
        manifest["runs"]["../dup/va-ea"] = manifest["runs"].pop("va-ea")

    _edit_manifest(outdir, rename)


class TestCli:
    def _write_cfg(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FAST_CFG))
        return str(path)

    def test_problem_inspect(self, tmp_path, capsys):
        rc = cli.main(["problem", "inspect", self._write_cfg(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "threshold h" in out
        assert "lipschitz L" in out

    def test_module_entry_point(self):
        # python -m safeobench runs the same command line as cli.main.
        config = Path(__file__).resolve().parents[1] / "configs" / "sphere.json"
        proc = fresh_python("-m", "safeobench", "problem", "inspect", str(config))
        assert proc.returncode == 0, proc.stderr
        assert "threshold h" in proc.stdout

    def test_run_subcommand(self, tmp_path, capsys):
        # run --out writes a one-run results directory that report reads
        cfg = self._write_cfg(tmp_path)
        one = tmp_path / "out"
        args = ["run", cfg, "--algo", "va-ea", "--run-index", "1"]
        assert cli.main([*args, "--out", str(one)]) == 0
        assert sorted(p.name for p in one.iterdir()) == ["manifest.json", "va-ea_run1.csv"]
        bench = tmp_path / "bench"
        args = ["benchmark", cfg, "--algos", "va-ea", "--runs", "2"]
        assert cli.main([*args, "--out", str(bench)]) == 0
        csv_name = "va-ea_run1.csv"
        assert (one / csv_name).read_bytes() == (bench / csv_name).read_bytes()
        for metric, fmt in (("bsf", "csv"), ("bsf", "svg"), ("unsafe", "csv"),
                            ("unsafe", "svg"), ("trajectory", "csv")):
            out = tmp_path / f"{metric}.{fmt}"
            args = ["report", str(one), "--metric", metric, "--format", fmt]
            assert cli.main([*args, "--out", str(out)]) == 0
        unsafe_rows = (tmp_path / "unsafe.csv").read_text().splitlines()
        assert len(unsafe_rows) == 2 and unsafe_rows[1].startswith("va-ea,1,")

    def test_benchmark_and_report(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        outdir = str(tmp_path / "bench")
        assert (
            cli.main(
                [
                    "benchmark",
                    cfg,
                    "--algos",
                    "va-ea,unsafe-ea",
                    "--runs",
                    "2",
                    "--out",
                    outdir,
                ]
            )
            == 0
        )
        for metric, fmt, name in (
            ("bsf", "csv", "bsf.csv"),
            ("bsf", "svg", "bsf.svg"),
            ("unsafe", "csv", "unsafe.csv"),
            ("unsafe", "svg", "unsafe.svg"),
            ("trajectory", "csv", "traj.csv"),
        ):
            rc = cli.main(
                [
                    "report",
                    outdir,
                    "--metric",
                    metric,
                    "--format",
                    fmt,
                    "--out",
                    str(tmp_path / name),
                ]
            )
            assert rc == 0
            assert (tmp_path / name).exists()

    def test_bsf_svg_of_a_flat_range_past_1e16(self, tmp_path, capsys):
        # objective values near -9e15 and every algorithm's mean BSF +- SE
        # on one value: widening that range by 1.0 is a no-op
        import xml.etree.ElementTree as ET

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": {
            "objective": "styblinski-tang", "bounds": [[-21, 0], [-11587, -11586]],
            "nodes_per_axis": 6, "eval_budget": 8, "n_seeds": 2, "noise_std": 0.0,
            "master_seed": 0,
        }}))
        outdir = str(tmp_path / "bench")
        assert cli.main(["benchmark", str(path), "--runs", "1", "--out", outdir]) == 0
        svg = tmp_path / "bsf.svg"
        args = ["report", outdir, "--metric", "bsf", "--format", "svg", "--out", str(svg)]
        assert cli.main(args) == 0
        assert ET.fromstring(svg.read_text()).tag.endswith("svg")

    def test_report_pads_runs_whose_seeds_are_free(self, tmp_path, capsys):
        # with seeds outside the budget a run holds eval_budget + n_seeds records
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"problem": {"nodes_per_axis": 30, "seeds_consume_budget": False}})
        )
        outdir = str(tmp_path / "bench")
        args = ["benchmark", str(path), "--algos", "va-ea", "--runs", "2", "--out", outdir]
        assert cli.main(args) == 0
        for metric, fmt, name in (
            ("bsf", "csv", "bsf.csv"),
            ("bsf", "svg", "bsf.svg"),
            ("unsafe", "csv", "unsafe.csv"),
            ("unsafe", "svg", "unsafe.svg"),
            ("trajectory", "csv", "traj.csv"),
        ):
            args = ["report", outdir, "--metric", metric, "--format", fmt]
            assert cli.main([*args, "--out", str(tmp_path / name)]) == 0
        rows = (tmp_path / "bsf.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["va-ea", str(s)] for s in range(1, 111)]

    INSPECT_COMMON = (
        "grid             : 100x100 = 10000 points\n"
        "value range      : [-250, 78.3113]\n"
        "threshold h      : 39.0507 (75th percentile)\n"
        "lipschitz L      : 234.524\n"
        "noise std        : 0.1\n"
    )

    @pytest.mark.parametrize("config,overrides,expected", [
        ("sphere", [], (
            "objective        : sphere (d=2)\n"
            "grid             : 100x100 = 10000 points\n"
            "value range      : [-50, -0.00510152]\n"
            "threshold h      : -1.65799 (95th percentile)\n"
            "lipschitz L      : 13.9993\n"
            "noise std        : 0.1\n"
            "scenario         : none\n"
            "eligible seeds   : 448 grid points (any scenario region)\n"
        )),
        ("styblinski_s1", [], (
            "objective        : styblinski-tang (d=2)\n" + INSPECT_COMMON
            + "scenario         : s1\n"
            "eligible seeds   : 2462 grid points (any scenario region)\n"
            "  in s1             : 249\n"
        )),
        ("styblinski_s1", ["--set", "problem.scenario=s3"], (
            "objective        : styblinski-tang (d=2)\n" + INSPECT_COMMON
            + "scenario         : s3\n"
            "eligible seeds   : 2462 grid points (any scenario region)\n"
            "  in s2-topleft     : 617\n"
            "  in s2-bottomright : 617\n"
        )),
    ])
    def test_problem_inspect_output(self, config, overrides, expected, capsys):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        assert cli.main(["problem", "inspect", str(path), *overrides]) == 0
        assert capsys.readouterr().out == expected

    def test_summaries_agree_with_run_csv(self, tmp_path, capsys):
        # large blind jumps over a low threshold: the runs evaluate unsafe points
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": {**FAST_CFG["problem"], "percentile": 70.0, "noise_std": 0.5},
            "ea": {"mutation_std": 2.5, "mutation_prob": 1.0},
        }))
        outdir = tmp_path / "bench"
        args = ["benchmark", str(path), "--algos", "unsafe-ea", "--runs", "2"]
        assert cli.main([*args, "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        lines = {}
        for i in (0, 1):
            with open(outdir / f"unsafe-ea_run{i}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            unsafe = [int(r["step"]) for r in rows if r["is_unsafe"] == "1"]
            assert unsafe
            meta = manifest["runs"]["unsafe-ea"][str(i)]
            assert meta["n_steps"] == len(rows)
            assert meta["final_bsf"] == float(rows[-1]["bsf_true"])
            assert meta["final_unsafe"] == len(unsafe)
            assert meta["first_failure_step"] == unsafe[0]
            lines[i] = (
                f"unsafe-ea run {i}: {len(rows)} evaluations, "
                f"termination={meta['termination']}, "
                f"final BSF={float(rows[-1]['bsf_true']):.6g}, unsafe={len(unsafe)}\n"
            )
        capsys.readouterr()
        for i in (0, 1):
            assert cli.main(["run", str(path), "--algo", "unsafe-ea", "--run-index", str(i)]) == 0
            assert capsys.readouterr().out == lines[i]

    def test_unsafe_csv_keeps_the_index_of_each_run(self, tmp_path, monkeypatch):
        # run 1 of 3 fails; report drops it, and runs 0 and 2 keep their index
        real_run = harness.run

        def flaky(plan, algorithm, run_index):
            if run_index == 1:
                raise RuntimeError("boom")
            return real_run(plan, algorithm, run_index)

        monkeypatch.setattr(harness, "run", flaky)
        outdir = tmp_path / "bench"
        args = ["benchmark", self._write_cfg(tmp_path), "--algos", "unsafe-ea"]
        assert cli.main([*args, "--runs", "3", "--out", str(outdir)]) == 0
        runs = json.loads((outdir / "manifest.json").read_text())["runs"]["unsafe-ea"]
        assert runs["1"]["termination"] == "failed"
        out = tmp_path / "unsafe.csv"
        assert cli.main(["report", str(outdir), "--metric", "unsafe", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["algorithm,run_index,final_unsafe"] + [
            f"unsafe-ea,{i},{runs[str(i)]['final_unsafe']}" for i in (0, 2)
        ]

    @pytest.mark.parametrize("first,second", [
        (["benchmark", "--algos", "va-ea", "--runs", "3"],
         ["benchmark", "--algos", "unsafe-ea", "--runs", "2"]),
        (["run", "--algo", "va-ea", "--run-index", "0"],
         ["run", "--algo", "va-ea", "--run-index", "1"]),
    ], ids=["benchmark", "run"])
    def test_report_on_run_csvs_of_an_earlier_save_exits_2(
        self, first, second, tmp_path, capsys
    ):
        cfg, outdir = self._write_cfg(tmp_path), tmp_path / "bench"
        report = ["report", str(outdir), "--metric", "unsafe"]

        def save(command, *options):
            assert cli.main([command, cfg, *options, "--out", str(outdir)]) == 0

        save(*first)
        # report outputs and other CSVs in the directory are no run CSVs
        for name in ("unsafe.csv", "notes_run0.csv", "va-ea_run01.csv"):
            (outdir / name).write_text("x\n")
        assert cli.main([*report, "--out", str(outdir / "unsafe.csv")]) == 0
        save(*second)
        capsys.readouterr()
        assert cli.main([*report, "--out", str(tmp_path / "unsafe.csv")]) == 2
        assert "va-ea_run0.csv is a run CSV that" in capsys.readouterr().err
        assert not (tmp_path / "unsafe.csv").exists()

    @pytest.mark.parametrize("command", ["benchmark", "run"])
    @pytest.mark.parametrize("overrides,code", [
        (["problem.n_seeds=0"], 2),
        (["problem.objective=styblinski-tang", "problem.scenario=s1",
          "problem.percentile=99.9", "problem.nodes_per_axis=20",
          "problem.n_seeds=300"], 3),
    ], ids=["config", "infeasible"])
    def test_rejected_command_leaves_no_out_dir(
        self, command, overrides, code, tmp_path, capsys
    ):
        outdir = tmp_path / "out"
        args = {
            "benchmark": ["benchmark", self._write_cfg(tmp_path), "--algos", "va-ea"],
            "run": ["run", self._write_cfg(tmp_path), "--algo", "va-ea"],
        }[command]
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert cli.main([*args, *sets, "--out", str(outdir)]) == code
        assert not outdir.exists()

    @pytest.mark.parametrize("algos", [",", "va-ea,va-ea"])
    def test_benchmark_without_distinct_algorithms_exits_2(
        self, algos, tmp_path, capsys
    ):
        outdir = tmp_path / "bench"
        args = ["benchmark", self._write_cfg(tmp_path), "--algos", algos]
        assert cli.main([*args, "--runs", "1", "--out", str(outdir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_benchmark_rejects_jobs_below_one(self, jobs, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "bench"
        calls = []
        monkeypatch.setattr(harness, "benchmark", lambda *a, **k: calls.append(a))
        args = ["benchmark", self._write_cfg(tmp_path), "--algos", "va-ea", "--runs", "2"]
        assert cli.main([*args, "--jobs", jobs, "--out", str(outdir)]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert calls == [] and not outdir.exists()

    @pytest.mark.parametrize("corrupt", [
        _cut_to_header, _short_row, _non_numeric_field, _is_unsafe_two,
        _is_unsafe_minus_one, _step_repeated, _step_zero_padded, _steps_from_zero,
        _truncate_manifest,
        _drop_config, _drop_runs, _drop_n_steps, _drop_termination,
        _non_numeric_run_index, _superscript_run_index, _zero_padded_run_index,
        _bool_n_steps, _run_longer_than_budget, _path_as_algorithm,
    ], ids=lambda f: f.__name__[1:])
    def test_report_on_malformed_results_exits_2(self, corrupt, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"problem": {"nodes_per_axis": 10, "eval_budget": 5, "n_seeds": 2}}
        ))
        outdir = tmp_path / "bench"
        args = ["benchmark", str(path), "--algos", "va-ea", "--runs", "2"]
        assert cli.main([*args, "--out", str(outdir)]) == 0
        corrupt(outdir)
        args = ["report", str(outdir), "--metric", "bsf"]
        assert cli.main([*args, "--out", str(tmp_path / "bsf.csv")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bsf.csv").exists()

    @pytest.mark.parametrize("metric,fmt", [
        ("bsf", "csv"), ("bsf", "svg"), ("unsafe", "csv"), ("unsafe", "svg"),
        ("trajectory", "csv"),
    ])
    def test_report_on_all_failed_runs_exits_2(
        self, metric, fmt, tmp_path, capsys, monkeypatch
    ):
        # every run fails, so each is saved as a header-only CSV
        from safeobench import safegp

        def fail(self, oracle):
            raise RuntimeError("boom")

        monkeypatch.setattr(safegp.SafeGpOptimizer, "step", fail)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"problem": {"nodes_per_axis": 10, "eval_budget": 5, "n_seeds": 2}}
        ))
        outdir = tmp_path / "bench"
        args = ["benchmark", str(path), "--algos", "msafeopt", "--runs", "2"]
        assert cli.main([*args, "--out", str(outdir)]) == 0
        assert (outdir / "msafeopt_run1.csv").read_text().count("\n") == 1
        out = tmp_path / f"report.{fmt}"
        args = ["report", str(outdir), "--metric", metric, "--format", fmt]
        assert cli.main([*args, "--out", str(out)]) == 2
        assert "no run" in capsys.readouterr().err
        assert not out.exists()

    def test_set_overrides(self, tmp_path, capsys):
        rc = cli.main(
            [
                "problem",
                "inspect",
                self._write_cfg(tmp_path),
                "--set",
                "problem.percentile=50",
                "--set",
                "problem.objective=styblinski-tang",
            ]
        )
        assert rc == 0
        assert "styblinski-tang" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"typo_key": 1}}))
        assert cli.main(["problem", "inspect", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["problem", "inspect", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["benchmark", "run", "report"])
    def test_unusable_out_path_exits_2(self, command, tmp_path, capsys, monkeypatch):
        cfg = self._write_cfg(tmp_path)
        bench = tmp_path / "bench"
        one_run = ["--algos", "va-ea", "--runs", "1"]
        assert cli.main(["benchmark", cfg, *one_run, "--out", str(bench)]) == 0
        taken = tmp_path / "taken"
        if command == "report":  # a directory where the report file goes
            taken.mkdir()
            args = ["report", str(bench)]
        else:  # a file where the output directory goes
            taken.write_text("")
            args = {
                "benchmark": ["benchmark", cfg, *one_run],
                "run": ["run", cfg, "--algo", "va-ea"],
            }[command]
        calls = []
        monkeypatch.setattr(harness, "benchmark", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
        capsys.readouterr()
        assert cli.main([*args, "--out", str(taken)]) == 2
        assert "config error" in capsys.readouterr().err
        assert calls == []  # the unusable --out failed before any run

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        cfg = {
            "problem": {
                **FAST_CFG["problem"],
                "objective": "styblinski-tang",
                "scenario": "s1",
                "percentile": 99.9,
                "nodes_per_axis": 20,
                "n_seeds": 300,
            }
        }
        path.write_text(json.dumps(cfg))
        rc = cli.main(
            ["run", str(path), "--algo", "va-ea", "--run-index", "0"]
        )
        assert rc == 3

    def test_factorization_error_exit_code(self, tmp_path, monkeypatch, capsys):
        from safeobench import gp, safegp

        def fail(*args, **kwargs):
            raise gp.FactorizationError("not positive definite")

        monkeypatch.setattr(safegp, "gp_fit", fail)
        rc = cli.main(["run", self._write_cfg(tmp_path), "--algo", "msafe-ucb"])
        assert rc == 4
        assert "numerical failure: not positive definite" in capsys.readouterr().err

    def test_trajectory_svg_rejected(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        outdir = str(tmp_path / "bench2")
        cli.main(["benchmark", cfg, "--algos", "va-ea", "--runs", "2", "--out", outdir])
        rc = cli.main(
            [
                "report",
                outdir,
                "--metric",
                "trajectory",
                "--format",
                "svg",
                "--out",
                str(tmp_path / "t.svg"),
            ]
        )
        assert rc == 2
