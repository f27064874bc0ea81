"""``deep_window``: a cold ``repro batch --system <deep-window family>
--workers 2 --k 1 10 100 250 --json``.

Every victim's busy window spans dozens of activations and its
deadline lies between its typical and full WCL, so each job runs the
Def. 10 fixed points and the combination search over 6-9 overload
ISRs — the regime where the numpy kernel wins.  It also runs the
``ProcessPoolExecutor`` fan-out of ``BatchRunner``.  ``ops_per_s``
is (system, chain) jobs per second from spawn to exit.  ``batch``
prints nothing before it is done, so ``setup_s`` is the spawn-to-exit
time of the same command on the family's first system at ``--k 1``:
interpreter start, system loading, the pool's start and the export.
"""

from __future__ import annotations

import json
from typing import List

from . import inputs, logparse
from .common import WORK, import_times, measure_repeated, repro, run_cli_inprocess, run_program
from .metrics import Outcome
from .trace import cache_ratios, layer_metrics

SYSTEMS = 64
WORKERS = 2
KS = ("1", "10", "100", "250")
MIN_BATCHES = 3

#: Fields ``--timings`` adds to the export and to each of its jobs.
_TIMING_FIELDS = ("elapsed", "cache", "packing", "kernel")
_EXPORT_FIELDS = ("job_count", "jobs", "status_counts")


class DeepWindow:
    name = "deep_window"

    def __init__(self, seed: int):
        systems = inputs.deep_window_family(seed, SYSTEMS)
        self.digest = inputs.systems_digest(systems)
        self.paths = inputs.write_systems(systems, WORK / "deep")
        text = run_cli_inprocess(self.batch_args(workers=1))
        self.reference = text.encode("utf-8")
        export = json.loads(text)
        victims = [job for job in export["jobs"] if job["chain"] == "victim"]
        if len(victims) != SYSTEMS or any(j["status"] != "weakly-hard" for j in victims):
            raise RuntimeError("deep-window family: every victim must classify weakly-hard")
        self.jobs = export["job_count"]
        self.setup_reference = run_cli_inprocess(self.setup_args(workers=1)).encode("utf-8")

    def batch_args(self, workers: int) -> List[str]:
        return ["batch", "--system", *self.paths, "--workers", str(workers), "--k", *KS, "--json"]

    def setup_args(self, workers: int) -> List[str]:
        return ["batch", "--system", self.paths[0], "--workers", str(workers), "--k", "1", "--json"]

    def inputs_note(self) -> str:
        return f"inputs: deep-window family of {SYSTEMS} systems, digest {self.digest}"

    def measure(self, seconds: float) -> Outcome:
        return measure_repeated(
            repro(*self.batch_args(WORKERS)),
            self.reference,
            self.jobs,
            seconds,
            MIN_BATCHES,
            repro(*self.setup_args(WORKERS)),
            self.setup_reference,
        )

    def trace(self, seconds: float) -> Outcome:
        outcome = Outcome()
        import_s, numpy_s = import_times()
        # One fan-out run with --timings: pool efficiency, cache counters.
        outcome.attempted += 1
        program = run_program(repro(*self.batch_args(WORKERS), "--timings"))
        lines = program.stderr_lines
        summary = logparse.parse_batch_summary(lines)
        values = {}
        if program.returncode != 0 or summary is None:
            outcome.fail(f"batch --timings exited {program.returncode}")
        else:
            if _deterministic(json.loads(program.stdout)) != json.loads(self.reference):
                outcome.fail("batch --timings export differs from the reference")
            busy = sum(logparse.parse_job_timings(lines))
            values["runner.batch.efficiency"] = busy / (summary.workers * summary.wall)
            values.update(cache_ratios(summary.cache))
        outcome.attempted += 1
        argv = self.batch_args(workers=1)
        layers, text = layer_metrics(
            lambda: run_cli_inprocess(argv), WORK / f"spans-{self.name}.jsonl"
        )
        if text.encode("utf-8") != self.reference:
            outcome.fail("traced serial export differs from the reference")
        layers.update(values)
        layers["startup.import_s"] = import_s
        layers["startup.numpy_import_s"] = numpy_s
        outcome.values = layers
        return outcome


def _deterministic(export: dict) -> dict:
    """A ``--timings`` export without its timing fields."""
    for job in export["jobs"]:
        for name in _TIMING_FIELDS:
            job.pop(name, None)
    return {key: export[key] for key in _EXPORT_FIELDS}
