"""``sim_soak``: ``repro simulate`` on the ``repro.synth.soak`` system
over a horizon releasing about :data:`EVENTS` activations.

The simulator is the one layer the other workloads never touch.
``ops_per_s`` is released activations per second from spawn to exit.
The released count is taken once in set-up from the critical-instant
streams the command simulates, so activations still pending at the
horizon count as well.  ``simulate`` prints nothing before it is done,
so ``setup_s`` is the spawn-to-exit time of the same command over a
horizon :data:`SETUP_SHARE` as long: interpreter start, system loading,
the simulator's construction and its report.
"""

from __future__ import annotations

from typing import List

from . import inputs
from .common import WORK, import_times, measure_repeated, repro, run_cli_inprocess, run_program
from .metrics import Outcome
from .trace import layer_metrics

EVENTS = 200_000
MIN_RUNS = 3
#: The set-up probe's horizon as a share of the measured one.
SETUP_SHARE = 1 / 200


class SimSoak:
    name = "sim_soak"

    def __init__(self, seed: int):
        from repro.sim.metrics import worst_case_activations

        system, self.horizon = inputs.soak_input(seed, EVENTS)
        self.digest = inputs.systems_digest([system])
        (self.path,) = inputs.write_systems([system], WORK / "soak")
        self.setup_horizon = max(int(self.horizon * SETUP_SHARE), 1)
        # The scalar engine is the reference the default kernel must match.
        self.reference = _scalar_stdout(self.args(self.horizon))
        self.setup_reference = _scalar_stdout(self.args(self.setup_horizon))
        streams = worst_case_activations(system, self.horizon)
        self.events = sum(len(stream) for stream in streams.values())

    def args(self, horizon: int) -> List[str]:
        return ["simulate", "--system", self.path, "--horizon", str(horizon)]

    def inputs_note(self) -> str:
        return (
            f"inputs: soak system, horizon {self.horizon} ({self.events} activations), "
            f"digest {self.digest}"
        )

    def measure(self, seconds: float) -> Outcome:
        return measure_repeated(
            repro(*self.args(self.horizon)),
            self.reference,
            self.events,
            seconds,
            MIN_RUNS,
            repro(*self.args(self.setup_horizon)),
            self.setup_reference,
        )

    def trace(self, seconds: float) -> Outcome:
        outcome = Outcome()
        import_s, numpy_s = import_times()
        outcome.attempted += 1
        argv = self.args(self.horizon)
        layers, text = layer_metrics(
            lambda: run_cli_inprocess(argv), WORK / f"spans-{self.name}.jsonl"
        )
        if text.encode("utf-8") != self.reference:
            outcome.fail("traced simulation differs from the scalar engine's")
        layers["startup.import_s"] = import_s
        layers["startup.numpy_import_s"] = numpy_s
        outcome.values = layers
        return outcome


def _scalar_stdout(args: List[str]) -> bytes:
    program = run_program(repro(*args, "--kernel", "python"))
    if program.returncode != 0:
        raise RuntimeError(f"reference simulation failed: {program.stderr_lines[-3:]}")
    return program.stdout
