"""Span-stack tracer that times safeobench's layers from outside the program.

Each traced function is replaced, for the duration of a traced run, by a
wrapper installed where the calling layer looks the name up: a module
global (``safegp.gp_fit``, ``ea.va_filter``, ...) or a class attribute
(``Oracle.evaluate``). The program's own code is unchanged; uninstalling
restores the original objects.

A span's self time is its duration minus the durations of its direct
child spans. Spans nest strictly (one thread), so the children's
durations are exactly the part of the interval they cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Time spent in counting hooks is booked here, not on any layer span.
HOOK_SPAN = "trace.hooks"

# Spans that only orchestrate other layers; they are not counted when the
# per-layer self times are compared against the run's wall time.
GLUE_SPANS = ("harness.benchmark", "harness.run", HOOK_SPAN)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Span stack with per-name call counts, self times and counters.

    ``clock`` returns seconds; tests pass a fake one. Durations of every
    call are kept only for the span names in ``keep_durations``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep_durations=()):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._keep = frozenset(keep_durations)
        self._stack: list[list] = []  # [name, start, child duration]
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child
        if name in self._keep:
            st.durations.append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn: Callable, name: str, on_return: Optional[Callable] = None) -> Callable:
        """Wrapper that records a ``name`` span around each call of ``fn``.

        ``on_return(tracer, args, kwargs, result)`` runs after the call,
        inside a span of its own, so counting costs no layer any time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_return is not None:
                self.enter(HOOK_SPAN)
                try:
                    on_return(self, args, kwargs, result)
                finally:
                    self.exit()
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_return))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0


# ---------------------------------------------------------------------------
# Counting hooks: on_return(tracer, args, kwargs, result)


def _count(key: str, value: Callable) -> Callable:
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += value(args, kwargs, result)

    return hook


def _n_train(args, kwargs):
    return (args[0] if args else kwargs["model"]).n_train


def _posterior_detail_hook(tracer, args, kwargs, result):
    m = result[0].size
    tracer.counters["gp.posterior_detail.query_points"] += m
    tracer.counters["gp.posterior_detail.solve_flops"] += _n_train(args, kwargs) ** 2 * m


def _saved_bytes(args, kwargs, result):
    return sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced name of the safeobench layers; returns ``tracer``."""
    from safeobench import ea, harness, report, safegp, safeop

    mask_size = lambda a, k, r: int(r.sum())  # noqa: E731
    for attr, name, hook in (
        ("gp_fit", "gp.fit", _count("gp.fit.train_rows", lambda a, k, r: r.n_train)),
        ("gp_posterior", "gp.posterior",
         _count("gp.posterior.query_points", lambda a, k, r: r[0].size)),
        ("posterior_detail", "gp.posterior_detail", _posterior_detail_hook),
        ("kernel_matrix", "gp.kernel_matrix",
         _count("gp.kernel_matrix.bytes", lambda a, k, r: r.nbytes)),
        ("update_safe_set_lipschitz", "safegp.safe_set",
         _count("safegp.safe_set.size_sum", mask_size)),
        ("update_safe_set_gp", "safegp.safe_set",
         _count("safegp.safe_set.size_sum", mask_size)),
        ("compute_maximizers", "safegp.maximizers",
         _count("safegp.maximizers.count_sum", mask_size)),
        ("compute_expanders", "safegp.expanders",
         _count("safegp.expanders.count_sum", mask_size)),
        ("select_next", "safegp.select",
         _count("safegp.select.fallbacks", lambda a, k, r: int(r[1]))),
    ):
        tracer.patch(safegp, attr, name, hook)

    for attr in ("binary_tournament", "uniform_crossover", "gaussian_mutation"):
        tracer.patch(ea, attr, "ea.variation")
    tracer.patch(ea, "va_filter", "ea.va_screen",
                 _count("ea.va_screen.accepts", lambda a, k, r: int(bool(r))))
    tracer.patch(ea, "mu_plus_lambda_select", "ea.survival")

    tracer.patch(safeop.Oracle, "evaluate", "safeop.oracle",
                 _count("safeop.unsafe_evals", lambda a, k, r: int(r.is_unsafe)))
    tracer.patch(safegp.SafeGpOptimizer, "step", "safegp.step")
    tracer.patch(ea.EaOptimizer, "step", "ea.step")

    tracer.patch(harness, "make_plan", "harness.plan")
    tracer.patch(harness, "benchmark", "harness.benchmark")
    tracer.patch(harness, "run", "harness.run")
    tracer.patch(harness, "save_benchmark", "harness.save",
                 _count("harness.save.bytes", _saved_bytes))
    tracer.patch(harness, "load_benchmark", "report.load")
    for attr in ("aggregate_bsf", "summarize_unsafe"):
        tracer.patch(report, attr, "report.aggregate")
    for attr in report.__all__:
        if attr.startswith("emit_"):
            tracer.patch(report, attr, "report.emit")
    return tracer
