"""Metric declarations and the result a workload run hands back.

``BENCHMARK.json`` declares every metric's name, unit and direction;
:func:`declared` reads them from there.  This module holds only what
that file cannot: the layers and cache categories the traced run
derives names from.  Every workload reports every end-to-end metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Cache categories whose hit ratio the traced run reports.
CACHE_CATEGORIES = ("busy_time", "combo_exact", "jobs", "packing", "segments", "omega")

#: Layers whose spans give ``<layer>.calls`` and ``<layer>.self_s``.
SPAN_LAYERS = (
    "model.serialization",
    "arrivals",
    "analysis.latency",
    "analysis.busy_window",
    "analysis.combinations",
    "analysis.twca",
    "kernel",
    "runner.jobs",
)


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``kind`` (``end_to_end`` or
    ``per_layer``), in ``BENCHMARK.json`` order."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    values: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED: {note}")

    def result(self, units: Dict[str, str]) -> Dict:
        """The final report line: every metric of ``units`` (name ->
        unit) that this run measured.  A run that misses one of them is
        not correct."""
        metrics = {
            name: {"value": self.values[name], "unit": unit}
            for name, unit in units.items()
            if name in self.values
        }
        return {
            "correct": self.failed == 0 and self.attempted > 0 and len(metrics) == len(units),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
