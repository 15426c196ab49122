"""Aggregation of run collections into plot-ready tables and charts.

Two families of outputs: mean best-so-far (BSF) curves with standard
error bands over evaluation steps, and distributions of the final unsafe
evaluation counts. Everything here operates on persisted run logs only;
objective functions are never re-evaluated. SVG output is hand-rolled
minimal markup so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .harness import RunResult

__all__ = [
    "AggregateSeries",
    "UnsafeSummary",
    "aggregate_bsf",
    "summarize_unsafe",
    "emit_bsf_csv",
    "emit_unsafe_csv",
    "emit_trajectory_csv",
    "emit_bsf_svg",
    "emit_unsafe_svg",
]


@dataclass
class AggregateSeries:
    """Per-step mean and standard error of BSF over a set of runs.

    Early-terminated runs are padded by carrying their last BSF value
    forward; ``padded_frac[t]`` is the fraction of runs padded at step t.
    Over a single run the standard error is undefined and reported as 0.
    """

    mean: np.ndarray
    se: np.ndarray
    n_runs: int
    padded_frac: np.ndarray


@dataclass
class UnsafeSummary:
    """Final unsafe-evaluation counts across runs with summary stats."""

    counts: list[int]
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _padded_bsf(result: RunResult, budget: int) -> tuple[np.ndarray, np.ndarray]:
    series = result.bsf_series()
    if series.size == 0:
        raise ValueError(
            f"run {result.algorithm}/{result.run_index} has no records"
        )
    if series.size > budget:
        raise ValueError(
            f"run has {series.size} steps but budget is {budget}"
        )
    padded = np.concatenate(
        [series, np.full(budget - series.size, series[-1])]
    )
    pad_mask = np.arange(budget) >= series.size
    return padded, pad_mask


def aggregate_bsf(results: Sequence[RunResult], eval_budget: int) -> AggregateSeries:
    """Carry-forward pad each run's BSF and compute per-step mean and SE."""
    if not results:
        raise ValueError("no runs to aggregate")
    rows, pads = zip(*(_padded_bsf(r, eval_budget) for r in results))
    data = np.vstack(rows)
    pad = np.vstack(pads)
    n = data.shape[0]
    mean = data.mean(axis=0)
    if n >= 2:
        se = data.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        se = np.zeros(eval_budget)
    return AggregateSeries(
        mean=mean,
        se=se,
        n_runs=n,
        padded_frac=pad.mean(axis=0),
    )


def summarize_unsafe(results: Sequence[RunResult]) -> UnsafeSummary:
    """Five-number summary plus mean of final unsafe counts, one per run."""
    counts = [r.n_unsafe for r in results]
    arr = np.asarray(counts, dtype=float)
    return UnsafeSummary(
        counts=counts,
        minimum=float(arr.min()),
        q1=float(np.percentile(arr, 25)),
        median=float(np.median(arr)),
        q3=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(v: float) -> str:
    return repr(float(v))


def emit_bsf_csv(aggregates: dict[str, AggregateSeries], path) -> None:
    """Long-format table: algorithm,step,mean,se,padded_frac."""
    lines = ["algorithm,step,mean,se,padded_frac"]
    for algo in sorted(aggregates):
        agg = aggregates[algo]
        for t in range(agg.mean.size):
            lines.append(
                f"{algo},{t + 1},{_fmt(agg.mean[t])},{_fmt(agg.se[t])},"
                f"{_fmt(agg.padded_frac[t])}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def emit_unsafe_csv(summaries: dict[str, UnsafeSummary], path) -> None:
    """Per-run final unsafe counts: algorithm,run_index,final_unsafe."""
    lines = ["algorithm,run_index,final_unsafe"]
    for algo in sorted(summaries):
        for i, c in enumerate(summaries[algo].counts):
            lines.append(f"{algo},{i},{c}")
    Path(path).write_text("\n".join(lines) + "\n")


def emit_trajectory_csv(results: dict[tuple[str, int], RunResult], path) -> None:
    """Per-run point sequences for external trajectory plotting."""
    keys = sorted(results)
    dim = 0
    for k in keys:
        if results[k].records:
            dim = len(results[k].records[0].point)
            break
    header = "algorithm,run_index,step," + ",".join(
        f"x{i + 1}" for i in range(dim)
    )
    lines = [header]
    for algo, i in keys:
        prefix = f"{algo},{i},"
        for rec in results[(algo, i)].records:
            lines.append(f"{prefix}{rec.step_index},{','.join(map(_fmt, rec.point))}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG emission

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 60, 16, 24, 44


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _widen(lo: float) -> float:
    """Upper end for a flat range at ``lo``.

    ``lo + 1``, unless 1 is below the float spacing at ``lo`` (|lo| past
    about 1e16, where ``lo + 1 == lo``); then the next float above ``lo``.
    """
    hi = lo + 1.0
    return hi if hi > lo else math.nextafter(lo, math.inf)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<title>{title}</title>',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


def _axes(xlo, xhi, ylo, yhi, xlabel, ylabel) -> list[str]:
    parts = []
    if xhi <= xlo:  # one-step runs: the unit span px() in emit_bsf_svg uses
        xhi = xlo + 1
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for tx in _ticks(xlo, xhi):
        px = x0 + (tx - xlo) / (xhi - xlo) * (x1 - x0)
        parts.append(
            f'<line x1="{_coord(px)}" y1="{y0}" x2="{_coord(px)}" y2="{y0 + 4}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_coord(px)}" y="{y0 + 16}" text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(ylo, yhi):
        py = y0 - (ty - ylo) / (yhi - ylo) * (y0 - y1)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_coord(py)}" x2="{x0}" y2="{_coord(py)}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{_coord(py + 3)}" text-anchor="end">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.0f})">{ylabel}</text>'
    )
    return parts


def emit_bsf_svg(aggregates: dict[str, AggregateSeries], path) -> None:
    """Line chart of mean BSF per algorithm with shaded +-SE bands."""
    algos = sorted(aggregates)
    if not algos:
        raise ValueError("nothing to plot")
    budget = aggregates[algos[0]].mean.size
    ylo = min(float((a.mean - a.se).min()) for a in aggregates.values())
    yhi = max(float((a.mean + a.se).max()) for a in aggregates.values())
    if yhi <= ylo:
        yhi = _widen(ylo)
    span = yhi - ylo
    ylo -= 0.05 * span
    yhi += 0.05 * span
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT

    def px(step: float) -> float:
        return x0 + (step - 1) / max(budget - 1, 1) * (x1 - x0)

    def py(v: float) -> float:
        return y0 - (v - ylo) / (yhi - ylo) * (y0 - y1)

    parts = _svg_header("mean best-so-far objective value")
    parts += _axes(1, budget, ylo, yhi, "function evaluations", "mean BSF")
    for ci, algo in enumerate(algos):
        agg = aggregates[algo]
        color = _PALETTE[ci % len(_PALETTE)]
        steps = range(1, budget + 1)
        upper = [(px(t), py(m + s)) for t, m, s in zip(steps, agg.mean, agg.se)]
        lower = [(px(t), py(m - s)) for t, m, s in zip(steps, agg.mean, agg.se)]
        band = " ".join(
            f"{_coord(x)},{_coord(y)}" for x, y in upper + lower[::-1]
        )
        parts.append(f'<polygon points="{band}" fill="{color}" opacity="0.15"/>')
        line = " ".join(
            f"{_coord(px(t))},{_coord(py(m))}" for t, m in zip(steps, agg.mean)
        )
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 14 * ci
        parts.append(
            f'<line x1="{x1 - 130}" y1="{ly}" x2="{x1 - 110}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{x1 - 105}" y="{ly + 4}">{algo}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def emit_unsafe_svg(summaries: dict[str, UnsafeSummary], path) -> None:
    """Box-style chart of final unsafe counts per algorithm."""
    algos = sorted(summaries)
    if not algos:
        raise ValueError("nothing to plot")
    yhi = max(max(s.maximum for s in summaries.values()), 1.0) * 1.1
    ylo = 0.0
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    slot = (x1 - x0) / len(algos)

    def py(v: float) -> float:
        return y0 - (v - ylo) / (yhi - ylo) * (y0 - y1)

    parts = _svg_header("final unsafe evaluation counts")
    parts += _axes(0, len(algos), ylo, yhi, "", "unsafe evaluations")
    for ci, algo in enumerate(algos):
        s = summaries[algo]
        color = _PALETTE[ci % len(_PALETTE)]
        cx = x0 + slot * (ci + 0.5)
        wid = slot * 0.3
        parts.append(
            f'<line x1="{_coord(cx)}" y1="{_coord(py(s.minimum))}" '
            f'x2="{_coord(cx)}" y2="{_coord(py(s.maximum))}" stroke="{color}"/>'
        )
        top, bot = py(s.q3), py(s.q1)
        parts.append(
            f'<rect x="{_coord(cx - wid)}" y="{_coord(top)}" '
            f'width="{_coord(2 * wid)}" height="{_coord(max(bot - top, 0.5))}" '
            f'fill="{color}" opacity="0.3" stroke="{color}"/>'
        )
        parts.append(
            f'<line x1="{_coord(cx - wid)}" y1="{_coord(py(s.median))}" '
            f'x2="{_coord(cx + wid)}" y2="{_coord(py(s.median))}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{_coord(cx)}" cy="{_coord(py(s.mean))}" r="2.5" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_coord(cx)}" y="{y0 + 16}" text-anchor="middle">{algo}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
