"""Span recording around the program's layer boundaries.

The benchmark times calls into each layer's public functions from its
own files: :class:`Tracer` replaces each name listed in :data:`TARGETS`
with a wrapper that records a span — layer, target, start, end, parent
span id — and restores every name on exit.  A name is patched in each
module that calls it (``repro.analysis.twca.analyze_latency`` as well
as ``repro.analysis.latency.analyze_latency``), because a module that
imported a function by name keeps its own binding.

Spans are kept in memory and written out when the run ends.  A layer's
self time is the summed duration of its spans minus the part covered
by their direct children.  Parent ids follow the calling thread only:
a span opened on another thread (the daemon's compute pool) starts a
new root.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``attr`` is ``function`` or ``Class.method``
    in ``module``; ``moves`` names the workload the issue says this
    layer should move, where the name must be called at least once."""

    layer: str
    module: str
    attr: str
    moves: str

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


def _targets(layer: str, moves: str, names: Iterable[str]) -> List[Target]:
    out = []
    for name in names:
        module, _, attr = name.partition(":")
        out.append(Target(layer, module, attr, moves))
    return out


TARGETS: Tuple[Target, ...] = tuple(
    _targets(
        "model.serialization",
        "corpus_sweep",
        [
            "repro.model.serialization:system_from_dict",
            "repro.model.serialization:system_to_dict",
            "repro.runner.jobs:system_from_dict",
            "repro.runner.jobs:canonical_system_json",
            "repro.synth.corpus:system_from_json",
        ],
    )
    + _targets(
        "model.serialization",
        "deep_window",
        [
            "repro.runner.loader:system_from_json",
            "repro.model.serialization:canonical_system_json",
        ],
    )
    + _targets(
        "model.serialization",
        "daemon_mixed",
        [
            "repro.service.api:system_from_dict",
            "repro.service.api:canonical_system_json",
            "repro.service.core:system_from_json",
        ],
    )
    + _targets(
        "model.serialization",
        "sim_soak",
        [
            "repro.cli:load_system_file",
            "repro.model.serialization:system_from_json",
        ],
    )
    + _targets(
        "arrivals",
        "corpus_sweep",
        [
            "repro.arrivals.staircase:StaircaseKernel.eta_plus",
            "repro.arrivals.staircase:StaircaseKernel.eta_plus_many",
        ],
    )
    + _targets(
        "arrivals",
        "sim_soak",
        [
            "repro.arrivals.staircase:StaircaseKernel.delta",
            "repro.arrivals.staircase:StaircaseKernel.delta_many",
        ],
    )
    + _targets(
        "analysis.latency",
        "corpus_sweep",
        ["repro.analysis.twca:analyze_latency"],
    )
    + _targets(
        "analysis.busy_window",
        "corpus_sweep",
        [
            "repro.analysis.twca:criterion_loads",
            "repro.analysis.latency:_busy_times_block",
        ],
    )
    + _targets(
        "analysis.busy_window",
        "deep_window",
        ["repro.analysis.twca:_busy_times_block"],
    )
    + _targets(
        "analysis.combinations",
        "deep_window",
        [
            "repro.analysis.twca:search_combinations",
            "repro.analysis.twca:overload_active_segments",
            "repro.analysis.twca:_build_verdict",
        ],
    )
    + _targets(
        "analysis.twca",
        "corpus_sweep",
        [
            "repro.runner.jobs:analyze_twca",
            "repro.analysis.twca:ChainTwcaResult.dmm_curve",
        ],
    )
    + _targets(
        "kernel",
        "deep_window",
        [
            "repro.analysis.busy_window:solve_monotone_fixed_points",
            "repro.analysis.twca:solve_monotone_fixed_points_2d",
        ],
    )
    + _targets(
        "ilp",
        "deep_window",
        [
            "repro.ilp.engine:PackingEngine.resolve",
            "repro.analysis.twca:ChainTwcaResult.packing_stats",
        ],
    )
    + _targets(
        "runner.jobs",
        "corpus_sweep",
        ["repro.runner.batch:execute_job"],
    )
    + _targets(
        "runner.jobs",
        "deep_window",
        ["repro.runner.loader:run_chain_job"],
    )
    + _targets(
        "runner.jobs",
        "daemon_mixed",
        ["repro.service.core:run_chain_job"],
    )
    + _targets(
        "runner.diskcache",
        "daemon_mixed",
        ["repro.runner.diskcache:DiskStore.store"],
    )
    + _targets(
        "service.parse",
        "daemon_mixed",
        ["repro.service.api:AnalysisRequest.from_dict"],
    )
    + _targets(
        "service.analyze",
        "daemon_mixed",
        ["repro.service.core:AnalysisService.analyze"],
    )
    + _targets(
        "service.compute",
        "daemon_mixed",
        ["repro.service.core:AnalysisService._execute"],
    )
    + _targets(
        "sim.activations",
        "sim_soak",
        ["repro.sim.metrics:worst_case_activations"],
    )
    + _targets(
        "sim.run",
        "sim_soak",
        ["repro.sim.engine:Simulator.run"],
    )
    + _targets(
        "sim.report",
        "sim_soak",
        [
            "repro.sim.engine:SimulationResult.latencies",
            "repro.sim.engine:SimulationResult.miss_count",
            "repro.cli:render_gantt",
        ],
    )
)


def _add_counts(counts: Dict[str, float], target: Target, result: Any) -> None:
    """Counters read off return values at the boundary."""
    if target.attr == "analyze_twca":
        counts["analysis.combinations.nodes"] += result.search_nodes
        counts["analysis.combinations.checks"] += result.search_checks
    elif target.attr == "ChainTwcaResult.packing_stats":
        counts["ilp.cold_solves"] += result.get("cold_solves", 0)
        counts["ilp.warm_starts"] += result.get("warm_starts", 0)
    elif target.attr == "worst_case_activations":
        counts["sim.events"] += sum(len(stream) for stream in result.values())


#: Span record: (id, parent id, target index, start, end).
Span = Tuple[int, int, int, float, float]


class Tracer:
    """Context manager that wraps every :data:`TARGETS` name while
    active and keeps the spans it records."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, index: int, fn: Callable) -> Callable:
        target = TARGETS[index]
        spans = self.spans
        counts = self.counts
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end))
            _add_counts(counts, target, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for index, target in enumerate(TARGETS):
            owner = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self.span(index, raw.__func__))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self.span(index, raw.__func__))
            else:
                patched = self.span(index, raw)
            self._restore.append((owner, name, raw))
            setattr(owner, name, patched)
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, name, raw = self._restore.pop()
            setattr(owner, name, raw)

    # -- reduction -------------------------------------------------------
    def calls_by_target(self) -> Dict[str, int]:
        calls: Dict[str, int] = defaultdict(int)
        for _, _, index, _, _ in self.spans:
            calls[TARGETS[index].key] += 1
        return dict(calls)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, total span seconds ``total_s`` and
        ``self_s`` (total minus time covered by direct children)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span_id, _, index, start, end in self.spans:
            entry = totals[TARGETS[index].layer]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, layer,
        target, start and end (seconds, ``perf_counter`` clock)."""
        names = [(t.layer, t.key) for t in TARGETS]
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, index, start, end in self.spans:
                layer, key = names[index]
                handle.write(
                    json.dumps([span_id, parent, layer, key, round(start, 7), round(end, 7)])
                    + "\n"
                )


def cache_ratios(cache: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """``runner.cache.<category>.hit_ratio`` from per-category
    hit/miss counters (as printed by the CLI or served by
    ``GET /cache/stats``)."""
    from .metrics import CACHE_CATEGORIES

    ratios = {}
    for category in CACHE_CATEGORIES:
        stats = cache.get(category, {})
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        ratios[f"runner.cache.{category}.hit_ratio"] = (
            stats.get("hits", 0) / lookups if lookups else 0.0
        )
    return ratios


def layer_metrics(
    run: Callable[[], Any], spans_path: Optional[Path] = None
) -> Tuple[Dict[str, float], Any]:
    """Time ``run`` traced, and untraced before and after.

    Returns the per-layer metrics of the traced run — every
    per-layer name ``BENCHMARK.json`` declares, 0 where no span landed —
    with the tracing overhead (traced minus untraced wall time), and
    the traced run's return value.  The spans go to ``spans_path``.
    """
    from .metrics import SPAN_LAYERS, declared

    def timed() -> float:
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    # Untraced runs on both sides of the traced one, so drift in the
    # host's speed does not read as tracing overhead.
    before = timed()
    with Tracer() as tracer:
        started = time.perf_counter()
        result = run()
        traced = time.perf_counter() - started
    untraced = (before + timed()) / 2
    if spans_path is not None:
        tracer.write(spans_path)
    totals = tracer.layer_totals()
    calls = tracer.calls_by_target()
    counts = tracer.counts

    def total(layer: str, key: str = "total_s") -> float:
        return totals.get(layer, {}).get(key, 0.0)

    values: Dict[str, float] = {name: 0.0 for name in declared("per_layer")}
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = total(layer, "calls")
        values[f"{layer}.self_s"] = total(layer, "self_s")
    analyze = total("service.analyze")
    values.update(
        {
            "analysis.combinations.nodes": counts["analysis.combinations.nodes"],
            "analysis.combinations.checks": counts["analysis.combinations.checks"],
            "ilp.resolves": calls.get("repro.ilp.engine.PackingEngine.resolve", 0),
            "ilp.cold_solves": counts["ilp.cold_solves"],
            "ilp.warm_starts": counts["ilp.warm_starts"],
            "ilp.self_s": total("ilp", "self_s"),
            "runner.diskcache.stores": total("runner.diskcache", "calls"),
            "runner.diskcache.store_s": total("runner.diskcache"),
            "service.analyze_s": analyze,
            "service.parse_s": total("service.parse"),
            "service.queue_wait_s": max(analyze - total("service.compute"), 0.0),
            "sim.activations_s": total("sim.activations"),
            "sim.run_s": total("sim.run"),
            "sim.report_s": total("sim.report"),
            "sim.events": counts["sim.events"],
            "trace.untraced_s": untraced,
            "trace.traced_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.spans": len(tracer.spans),
        }
    )
    return values, result
