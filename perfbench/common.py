"""Shared plumbing: checkout paths, the program's environment, and a
process wrapper that timestamps stderr lines as they arrive and
records each invocation's exit time and peak resident set."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs and caches; inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Ceiling for any single program invocation.
PROCESS_TIMEOUT = 120.0


def program_env() -> Dict[str, str]:
    """The environment every program invocation runs under: the
    checkout's sources on the path, temporary files inside the
    checkout.  ``REPRO_KERNEL`` passes through untouched, so a run under
    ``REPRO_KERNEL=python`` measures the pure-Python kernel."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def repro(*args: str) -> List[str]:
    """The argv of ``repro <args>`` as a user without an installed
    entry point runs it."""
    return [sys.executable, "-m", "repro.cli", *args]


class Program:
    """One spawned program invocation.

    The process leads its own session, so every process it starts can
    be found and stopped.  stdout is collected whole; stderr lines are
    kept with the ``perf_counter`` time they were read.  A waiter thread
    reaps the process with ``wait4`` to take its exit time, peak RSS
    (the largest of the process and its reaped descendants) and CPU
    time (user plus system, the process and its reaped descendants).
    """

    def __init__(self, argv: Sequence[str]):
        self.argv = list(argv)
        self.lines: List[Tuple[float, str]] = []
        self.stdout = b""
        self.exit_at: Optional[float] = None
        self.max_rss_kb = 0
        self.cpu_s = 0.0
        self.returncode: Optional[int] = None
        self._cond = threading.Condition()
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self._threads = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
            threading.Thread(target=self._reap, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _read_stdout(self) -> None:
        self.stdout = self.proc.stdout.read()

    def _read_stderr(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip("\n")
            with self._cond:
                self.lines.append((time.perf_counter(), line))
                self._cond.notify_all()

    def _reap(self) -> None:
        _, status, usage = os.wait4(self.proc.pid, 0)
        ended = time.perf_counter()
        with self._cond:
            self.exit_at = ended
            self.max_rss_kb = usage.ru_maxrss
            self.cpu_s = usage.ru_utime + usage.ru_stime
            self.returncode = os.waitstatus_to_exitcode(status)
            # Popen must not try to reap the pid again.
            self.proc.returncode = self.returncode
            self._cond.notify_all()

    def wait_line(self, predicate: Callable[[str], bool], timeout: float) -> Optional[float]:
        """The read time of the first stderr line matching
        ``predicate``; ``None`` if the process ends or ``timeout``
        passes first."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            seen = 0
            while True:
                for at, line in self.lines[seen:]:
                    if predicate(line):
                        return at
                seen = len(self.lines)
                remaining = deadline - time.perf_counter()
                if self.exit_at is not None or remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def line_time(self, predicate: Callable[[str], bool]) -> Optional[float]:
        with self._cond:
            for at, line in self.lines:
                if predicate(line):
                    return at
        return None

    @property
    def stderr_lines(self) -> List[str]:
        with self._cond:
            return [line for _, line in self.lines]

    def signal(self, signum: int) -> None:
        if self.exit_at is None:
            try:
                os.killpg(self.proc.pid, signum)
            except ProcessLookupError:
                pass

    def finish(self, timeout: float = PROCESS_TIMEOUT) -> bool:
        """Wait for the process and its output; on timeout kill the
        whole session.  Returns False when it had to be killed.  Either
        way no process of the session is left when this returns."""
        self._threads[2].join(timeout)
        clean = not self._threads[2].is_alive()
        if not clean:
            self.signal(signal.SIGKILL)
            self._threads[2].join()
        stop_session(self.proc.pid)
        for thread in self._threads[:2]:
            thread.join()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return clean

    @property
    def wall(self) -> float:
        assert self.exit_at is not None
        return self.exit_at - self.spawned_at


def stop_session(pgid: int, grace: float = 5.0) -> None:
    """Kill whatever is left of process group ``pgid`` and wait until
    the group is empty."""
    deadline = time.perf_counter() + grace
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        if not killed:
            os.killpg(pgid, signal.SIGKILL)
            killed = True
        if time.perf_counter() > deadline:
            return
        time.sleep(0.01)


def run_program(argv: Sequence[str]) -> Program:
    program = Program(argv)
    program.finish()
    return program


def run_cli_inprocess(argv: Sequence[str]) -> str:
    """Run ``repro <argv>`` inside this interpreter and return what it
    printed on stdout (its stderr is swallowed)."""
    import contextlib
    import io

    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}: {err.getvalue()[-500:]}")
    return out.getvalue()


def import_times(samples: int = 3) -> Tuple[float, float]:
    """Median seconds a fresh interpreter spends importing the CLI
    (``repro`` and ``repro.cli`` cumulative), and the numpy share of
    it, from ``-X importtime``."""
    import statistics

    totals, numpys = [], []
    for _ in range(samples):
        program = run_program([sys.executable, "-X", "importtime", "-c", "import repro.cli"])
        if program.returncode != 0:
            raise RuntimeError("importing repro.cli failed")
        total = numpy = 0
        for line in program.stderr_lines:
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1])
            name = parts[2]
            if name.strip() in ("repro", "repro.cli") and name == " " + name.strip():
                total += cumulative
            if name.strip() == "numpy":
                numpy = max(numpy, cumulative)
        totals.append(total / 1e6)
        numpys.append(numpy / 1e6)
    return statistics.median(totals), statistics.median(numpys)


def another_fits(started: float, seconds: float, durations: Sequence[float], minimum: int) -> bool:
    """Whether a measuring loop runs one more iteration: always until
    ``minimum`` are done, then while a typical (median) iteration still
    ends within ``seconds`` of ``started``."""
    import statistics

    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


#: Start-ups per run behind a ``setup_s`` median.
SETUP_SAMPLES = 7


def measure_repeated(
    argv: Sequence[str],
    reference: bytes,
    units: int,
    seconds: float,
    minimum: int,
    setup_argv: Sequence[str],
    setup_reference: bytes,
):
    """Run the workload's command on its smallest input
    :data:`SETUP_SAMPLES` times (``setup_argv``), then ``argv`` back to
    back while another run fits in ``seconds`` (at least ``minimum``
    times).  Each stdout is checked against its reference.

    Returns an :class:`~perfbench.metrics.Outcome` with ``setup_s``
    (median spawn-to-exit seconds of the smallest input: the fixed
    cost of one invocation), ``ops_per_s`` (median ``units`` per second
    from spawn to exit) and ``peak_rss_mb``.
    """
    import statistics

    from .metrics import Outcome

    outcome = Outcome()
    rss = 0

    def checked(command: Sequence[str], expected: bytes) -> Optional[Program]:
        nonlocal rss
        outcome.attempted += 1
        program = run_program(command)
        if program.returncode != 0:
            outcome.fail(f"exited {program.returncode}: {program.stderr_lines[-3:]}")
            return None
        if program.stdout != expected:
            outcome.fail("output differs from the reference")
            return None
        rss = max(rss, program.max_rss_kb)
        return program

    setups = []
    for _ in range(SETUP_SAMPLES):
        if (program := checked(setup_argv, setup_reference)) is not None:
            setups.append(program.wall)
    rates, durations = [], []
    started = time.perf_counter()
    while another_fits(started, seconds, durations, minimum):
        began = time.perf_counter()
        program = checked(argv, reference)
        durations.append(time.perf_counter() - began)
        if program is not None:
            rates.append(units / program.wall)
    if setups and rates:
        outcome.values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": rss / 1024.0,
        }
    outcome.notes.append(f"start-ups {len(setups)}, runs {len(rates)}, {units} units each")
    return outcome
