"""ASCII Gantt rendering of simulation traces.

Produces a compact textual schedule view — the library's counterpart of
the paper's Fig. 3 execution diagram — without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .engine import SimulationResult


def render_gantt(
    result: SimulationResult, *, until: Optional[float] = None, width: int = 100
) -> str:
    """Render the processor schedule as one text row per task.

    Each column is a time quantum of ``until / width``; a letter marks
    which task ran (first character of the slice owner), ``.`` idle.
    Busy windows of each chain with a finite deadline are marked under
    the task rows with ``^`` at activation instants.

    Only the slices starting before ``until`` and the instances
    activated before it are built (a finish never precedes its
    activation, so they hold every mark the window can show);
    ``until=None`` renders up to the end of the schedule.
    """
    if until is None:
        until = result.schedule_end()
    if until <= 0:
        return "(empty schedule)"
    scale = width / until

    task_rows: Dict[str, List[str]] = {}
    order: List[str] = []
    for chain in result.system.chains:
        for task in chain.tasks:
            task_rows[task.name] = ["."] * width
            order.append(task.name)

    for piece in result.slices_before(until):
        row = task_rows.get(piece.task)
        if row is None:
            continue
        begin = int(piece.start * scale)
        end = max(begin + 1, int(math.ceil(min(piece.end, until) * scale)))
        mark = str(piece.instance % 10)
        for column in range(begin, min(end, width)):
            row[column] = mark

    label_width = max(len(name) for name in order) + 1
    lines = []
    for name in order:
        lines.append(f"{name:<{label_width}}|{''.join(task_rows[name])}|")

    for chain in result.system.chains:
        marks = [" "] * width
        for rec in result.instances_before(chain.name, until):
            marks[min(int(rec.activation * scale), width - 1)] = "^"
            if rec.finish is not None and rec.finish < until:
                column = min(int(rec.finish * scale), width - 1)
                marks[column] = "v" if marks[column] == " " else "*"
        lines.append(f"{chain.name:<{label_width}}|{''.join(marks)}|")
    lines.append(f"{'':<{label_width}} 0{'':>{width - len(str(until)) - 1}}{until}")
    return "\n".join(lines)
