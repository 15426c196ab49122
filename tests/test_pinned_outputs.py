"""Pinned outputs: a pure refactor leaves every output byte unchanged.

Runs all six algorithms, two runs each with an evaluation budget of 50,
on both paper configs, writes the results directory and the five report
files, prints ``problem inspect`` for each config (and for
Styblinski-Tang under scenario s3), and compares their SHA-256 digests
with those recorded in ``pinned_outputs.json``. The manifest is compared
with its wall times removed. Float results depend on the numpy and scipy
builds, so the test skips when their versions differ from the recorded
ones.

A change that alters outputs on purpose records new digests with::

    PYTHONPATH=src python tests/test_pinned_outputs.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from safeobench import cli, harness

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("pinned_outputs.json")
CONFIGS = ("sphere", "styblinski_s1")
REPORTS = (
    ("bsf", "csv"),
    ("bsf", "svg"),
    ("unsafe", "csv"),
    ("unsafe", "svg"),
    ("trajectory", "csv"),
)
INSPECTS = (
    ("sphere", ()),
    ("styblinski_s1", ()),
    ("styblinski_s1", ("--set", "problem.scenario=s3")),
)


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digests(workdir: Path) -> dict:
    """SHA-256 of every output file of both configs, keyed by config/name."""
    digests = {}
    for name in CONFIGS:
        cfg = harness.load_config(ROOT / "configs" / f"{name}.json")
        cfg["problem"]["eval_budget"] = 50
        plan = harness.make_plan(harness.normalize_config(cfg), harness.ALGORITHMS, 2)
        outdir = harness.save_benchmark(harness.benchmark(plan), plan, workdir / name)
        manifest = json.loads((outdir / "manifest.json").read_text())
        for runs in manifest["runs"].values():
            for meta in runs.values():
                del meta["wall_time"]
        files = {"manifest.json": json.dumps(manifest, sort_keys=True).encode()}
        for path in sorted(outdir.glob("*.csv")):
            files[path.name] = path.read_bytes()
        for metric, fmt in REPORTS:
            out = workdir / f"{name}-{metric}.{fmt}"
            args = ["report", str(outdir), "--metric", metric, "--format", fmt]
            assert cli.main([*args, "--out", str(out)]) == 0
            files[f"{metric}.{fmt}"] = out.read_bytes()
        for key, data in files.items():
            digests[f"{name}/{key}"] = hashlib.sha256(data).hexdigest()
    for name, overrides in INSPECTS:
        config = ROOT / "configs" / f"{name}.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["problem", "inspect", str(config), *overrides]) == 0
        key = " ".join([f"{name}/inspect", *overrides])
        digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def test_outputs_match_pinned_digests(tmp_path, capsys):
    pinned = json.loads(PINNED.read_text())
    if pinned["versions"] != versions():
        pytest.skip(
            f"digests were recorded with {pinned['versions']}, "
            f"this environment has {versions()}"
        )
    assert output_digests(tmp_path) == pinned["digests"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pinned_outputs.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": versions(), "digests": output_digests(Path(tmp))}
    PINNED.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {PINNED}")
