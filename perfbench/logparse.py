"""Parsers for the observability lines the program prints on stderr.

* ``repro shard -v``: ``[shard <tag>] <elapsed>s <message>`` per chunk
  event, one ``dispatching`` and one ``merged`` line from the
  coordinator.
* ``repro batch|shard --json``: the ``N jobs in Xs with W worker(s),
  ... [category Hh/Mm/Dd, ...]`` summary line, and with ``--timings``
  one ``[job NNNN] label/chain: Xs`` line per job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

_SHARD_LINE = re.compile(r"^\[shard [^\]]+\]\s+[0-9.]+s (?P<msg>.*)$")
_DISPATCH = re.compile(r"^dispatching (?P<jobs>\d+) jobs as (?P<chunks>\d+) chunks")
_START = re.compile(r"^chunk \d+ start: \d+ jobs(?P<stolen> \(stolen\))?$")
_DUPLICATE = re.compile(r"^chunk \d+ done \(duplicate, discarded\) in [0-9.]+s$")
_MERGED = re.compile(r"^merged \d+ chunks \(retries=(?P<retries>\d+), steals=\d+\)$")
_SUMMARY = re.compile(
    r"^\d+ jobs in (?P<wall>[0-9.]+)s with (?P<workers>\d+) worker\(s\), "
    r"kernel \w+, cache hit rate \d+%(?: \[(?P<cats>[^\]]*)\])?$"
)
_CATEGORY = re.compile(r"^(?P<name>\w+) (?P<h>\d+)h/(?P<m>\d+)m/(?P<d>\d+)d$")
_JOB_TIMING = re.compile(r"^\[job \d+\] .*: (?P<s>[0-9.]+)s$")


@dataclass
class ShardRun:
    """What one ``repro shard -v`` log says about its chunk schedule."""

    jobs: int = 0
    chunks: int = 0
    executions: int = 0
    steals: int = 0
    duplicates: int = 0
    retries: int = 0

    @property
    def useful_ratio(self) -> float:
        """Chunks kept per chunk executed (1.0 = no wasted execution)."""
        return self.chunks / self.executions if self.executions else 0.0


def parse_shard_log(lines: Iterable[str]) -> ShardRun:
    run = ShardRun()
    for line in lines:
        match = _SHARD_LINE.match(line.rstrip("\n"))
        if match is None:
            continue
        message = match["msg"]
        if (m := _DISPATCH.match(message)) is not None:
            run.jobs = int(m["jobs"])
            run.chunks = int(m["chunks"])
        elif (m := _START.match(message)) is not None:
            run.executions += 1
            if m["stolen"]:
                run.steals += 1
        elif _DUPLICATE.match(message) is not None:
            run.duplicates += 1
        elif (m := _MERGED.match(message)) is not None:
            run.retries = int(m["retries"])
    return run


def is_dispatch_line(line: str) -> bool:
    match = _SHARD_LINE.match(line.rstrip("\n"))
    return match is not None and _DISPATCH.match(match["msg"]) is not None


def is_merged_line(line: str) -> bool:
    match = _SHARD_LINE.match(line.rstrip("\n"))
    return match is not None and _MERGED.match(match["msg"]) is not None


@dataclass
class BatchSummary:
    """The ``N jobs in Xs ...`` stderr line of ``repro batch|shard``."""

    wall: float
    workers: int
    cache: Dict[str, Dict[str, int]]


def parse_batch_summary(lines: Iterable[str]) -> Optional[BatchSummary]:
    found = None
    for line in lines:
        match = _SUMMARY.match(line.rstrip("\n"))
        if match is None:
            continue
        cache: Dict[str, Dict[str, int]] = {}
        for part in (match["cats"] or "").split(", "):
            if (m := _CATEGORY.match(part)) is not None:
                cache[m["name"]] = {
                    "hits": int(m["h"]),
                    "misses": int(m["m"]),
                    "disk_hits": int(m["d"]),
                }
        found = BatchSummary(
            wall=float(match["wall"]), workers=int(match["workers"]), cache=cache
        )
    return found


def parse_job_timings(lines: Iterable[str]) -> List[float]:
    """Per-job compute seconds from ``--timings`` stderr lines."""
    return [
        float(m["s"])
        for line in lines
        if (m := _JOB_TIMING.match(line.rstrip("\n"))) is not None
    ]
