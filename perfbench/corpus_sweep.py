"""``corpus_sweep``: a cold ``repro shard --corpus <WATERS corpus>
--shards 2 -v --json`` — the sweep users run.

Its cost is spread over many small jobs: per-job set-up, staircase
curves, busy windows, serialization and process fan-out.  Each sweep is
timed from spawn: ``setup_s`` to the coordinator's ``dispatching``
line, ``ops_per_s`` ((system, chain) jobs per second) to its ``merged``
line.  The time from ``merged`` to exit is the shard teardown, reported
on its own (``runner.shard.*``) because ``LocalShardWorker.close()``
sometimes waits out a 5 s join timeout there.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from . import inputs, logparse
from .common import WORK, Program, another_fits, import_times, repro, run_cli_inprocess
from .metrics import Outcome
from .trace import cache_ratios, layer_metrics

#: Corpus size: 200 WATERS systems, 600 (system, chain) jobs.  Which
#: corpus a seed draws moves ops_per_s by up to a sixth; doubling the
#: corpus halves the sweeps that fit in a run around the teardown
#: stalls and leaves the spread no smaller.
SYSTEMS = 200
SHARDS = 2
#: A teardown longer than this counts as a stall.
STALL_S = 1.0
MIN_SWEEPS = 3


class CorpusSweep:
    name = "corpus_sweep"

    def __init__(self, seed: int):
        self.root = WORK / "corpus"
        self.digest = inputs.write_corpus(seed, SYSTEMS, self.root)
        self.corpus = str(self.root.relative_to(WORK.parent))
        self.reference = run_cli_inprocess(self.serial_argv()).encode("utf-8")

    def serial_argv(self) -> List[str]:
        return ["shard", "--corpus", self.corpus, "--serial", "--json"]

    def sweep_argv(self) -> List[str]:
        return repro("shard", "--corpus", self.corpus, "--shards", str(SHARDS), "-v", "--json")

    def inputs_note(self) -> str:
        return f"inputs: WATERS corpus of {SYSTEMS} systems, manifest digest {self.digest}"

    # ------------------------------------------------------------------
    def _sweeps(self, seconds: float, outcome: Outcome) -> List[Dict]:
        """Back-to-back sweeps filling ``seconds`` (at least MIN_SWEEPS)."""
        records, durations = [], []
        started = time.perf_counter()
        while another_fits(started, seconds, durations, MIN_SWEEPS):
            outcome.attempted += 1
            program = Program(self.sweep_argv())
            dispatched = program.wait_line(logparse.is_dispatch_line, 120.0)
            clean = program.finish()
            durations.append(time.perf_counter() - program.spawned_at)
            lines = program.stderr_lines
            merged = program.line_time(logparse.is_merged_line)
            log = logparse.parse_shard_log(lines)
            if not clean or program.returncode != 0 or dispatched is None or merged is None:
                outcome.fail(f"sweep exited {program.returncode}: {lines[-3:]}")
                continue
            if program.stdout != self.reference:
                outcome.fail("sweep export differs from the serial BatchRunner export")
                continue
            records.append(
                {
                    "setup_s": dispatched - program.spawned_at,
                    "merge_s": merged - program.spawned_at,
                    "teardown_s": program.exit_at - merged,
                    "jobs": log.jobs,
                    "log": log,
                    "summary": logparse.parse_batch_summary(lines),
                    "rss_kb": program.max_rss_kb,
                }
            )
        return records

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        records = self._sweeps(seconds, outcome)
        if not records:
            return outcome
        teardowns = [r["teardown_s"] for r in records]
        outcome.values = {
            "setup_s": statistics.median([r["setup_s"] for r in records]),
            "ops_per_s": statistics.median([r["jobs"] / r["merge_s"] for r in records]),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        }
        outcome.notes.append(
            f"sweeps {len(records)}: merge "
            f"{statistics.median([r['merge_s'] for r in records]):.3f}s median, "
            f"teardown {statistics.median(teardowns):.3f}s median / {max(teardowns):.3f}s max, "
            f"stalls (> {STALL_S:g}s) {sum(t > STALL_S for t in teardowns)}"
        )
        return outcome

    def trace(self, seconds: float) -> Outcome:
        outcome = Outcome()
        import_s, numpy_s = import_times()
        records = self._sweeps(seconds, outcome)
        outcome.attempted += 1
        argv = self.serial_argv()
        layers, text = layer_metrics(
            lambda: run_cli_inprocess(argv), WORK / f"spans-{self.name}.jsonl"
        )
        if text.encode("utf-8") != self.reference:
            outcome.fail("traced serial export differs from the reference")
        values = dict(layers)
        values["startup.import_s"] = import_s
        values["startup.numpy_import_s"] = numpy_s
        if records:
            logs = [r["log"] for r in records]
            teardowns = [r["teardown_s"] for r in records]
            executions = sum(log.executions for log in logs)
            values.update(
                {
                    "runner.shard.sweeps": len(records),
                    "runner.shard.chunks": sum(log.chunks for log in logs),
                    "runner.shard.steals": sum(log.steals for log in logs),
                    "runner.shard.duplicates": sum(log.duplicates for log in logs),
                    "runner.shard.useful_ratio": (
                        sum(log.chunks for log in logs) / executions if executions else 0.0
                    ),
                    "runner.shard.retries": sum(log.retries for log in logs),
                    "runner.shard.teardown_s": sum(teardowns) / len(teardowns),
                    "runner.shard.teardown_max_s": max(teardowns),
                    "runner.shard.stalls": sum(t > STALL_S for t in teardowns),
                }
            )
            summary = records[-1]["summary"]
            if summary is not None:
                values.update(cache_ratios(summary.cache))
        outcome.values = values
        return outcome

