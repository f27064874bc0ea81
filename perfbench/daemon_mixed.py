"""``daemon_mixed``: ``repro serve --workers 2 --cache-dir <fresh dir>``
under a fixed cold/warm mix.

About one request in four is cold — a system never sent before, so the
daemon computes and writes to its cache; the rest are warm resends of a
system already answered in this run, served as a ``jobs`` cache read.
A run has two phases:

* an open loop: seeded Poisson arrivals at :data:`RATE` req/s over at
  most two client connections.  Each request is timed from its due
  time, so a stall also delays the requests queued behind it; the
  report says how late the generator ran.
* a closed loop: two connections, each sending its next request as
  soon as the previous one is answered.

Each request opens its own connection, as ``ServiceClient`` does.  The
daemon is started :data:`~perfbench.common.SETUP_SAMPLES` times per
run; ``setup_s`` is the median time from spawn to the first 200 from
``GET /healthz``, and the last start serves the traffic.

End to end the run reports ``setup_s``, ``ops_per_s`` (the closed
loop's answered requests per second: the median over windows of
:data:`CLOSED_WINDOW` consecutive completions, so one slow cache write
moves one window, not the figure) and ``peak_rss_mb``.  The open-loop
latencies and the daemon's CPU per request are reported by the traced
run as ``daemon.*`` figures, without a bound: on a shared 2-CPU host
they swing by a third or more between runs of the same inputs (cold
requests write ~14 cache files each; without ``--cache-dir`` the cold
median swings by under a tenth), wider than the largest bound a metric
may have.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import threading
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import inputs
from .common import SETUP_SAMPLES, WORK, Program, import_times, repro
from .metrics import Outcome
from .stats import highest_percentile, percentile, windowed_rate
from .trace import cache_ratios, layer_metrics

#: Open-loop arrival rate (req/s): about a third of a fresh daemon's
#: closed-loop capacity with two connections on a 2-CPU host (~137
#: req/s); at half of it the two connections queue behind cold
#: requests and even the warm median swings by half between runs.
RATE = 45.0
#: Seconds of the run given to the closed loop; the open loop gets the
#: rest.
CLOSED_S = 8.0
#: Closed-loop requests per second of CLOSED_S: about a fresh daemon's
#: capacity with two connections on a 2-CPU host (210-320 req/s).
CLOSED_RATE = 300.0
#: Completions per closed-loop window behind ``ops_per_s``.
CLOSED_WINDOW = 200
CONNECTIONS = 2
WORKERS = 2
REQUEST_TIMEOUT = 30.0
#: Requests replayed serially in-process by the traced run.
TRACE_REQUESTS = 400

_LISTENING = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")

#: (latency from due or send time, generator lateness, status, body)
Answer = Tuple[float, float, int, bytes]


def post(port: int, body: bytes) -> Tuple[int, bytes]:
    """One ``POST /analyze`` on a fresh connection; status 0 when the
    transport failed."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        connection.request("POST", "/analyze", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        connection.close()


def get(port: int, path: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        connection.close()


def canonical_jobs(payload: Dict) -> str:
    return json.dumps(payload["jobs"], sort_keys=True)


class Daemon:
    """One ``repro serve`` process on an OS-chosen port."""

    def __init__(self, cache_dir: str):
        self.program = Program(
            repro("serve", "--workers", str(WORKERS), "--port", "0", "--cache-dir", cache_dir)
        )
        self.port: Optional[int] = None
        self.ready_s: Optional[float] = None
        listening = self.program.wait_line(lambda line: _LISTENING.search(line) is not None, 60.0)
        if listening is None:
            return
        for line in self.program.stderr_lines:
            if (match := _LISTENING.search(line)) is not None:
                self.port = int(match[1])
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline and self.program.exit_at is None:
            status, _ = get(self.port, "/healthz")
            if status == 200:
                self.ready_s = time.perf_counter() - self.program.spawned_at
                return
            time.sleep(0.002)

    def stop(self) -> bool:
        """SIGINT (the daemon's clean shutdown), then wait."""
        self.program.signal(signal.SIGINT)
        return self.program.finish(30.0) and self.program.returncode == 0


class DaemonMixed:
    name = "daemon_mixed"

    def __init__(self, seed: int, seconds: float):
        open_count = max(int(RATE * (seconds - CLOSED_S)), 8)
        closed_count = max(int(CLOSED_RATE * min(CLOSED_S, seconds / 2)), 8)
        self.open, self.closed, count = inputs.daemon_schedule(
            seed, open_count, closed_count, RATE
        )
        systems = inputs.daemon_systems(seed, count)
        self.bodies = [inputs.request_body(system) for system in systems]
        self.digest = inputs.digest_texts(
            [inputs.systems_digest(systems), inputs.schedule_digest(self.open, self.closed)]
        )
        self.expected = self._reference()
        self._caches = 0

    def _reference(self) -> List[str]:
        """Every system's ``jobs`` from an in-process ``AnalysisService``."""
        from repro.service import AnalysisRequest, AnalysisService

        with AnalysisService(workers=1) as service:
            return [
                canonical_jobs(
                    service.analyze(AnalysisRequest.from_dict(json.loads(body))).to_dict()
                )
                for body in self.bodies
            ]

    def inputs_note(self) -> str:
        cold = sum(r.cold for r in self.open)
        return (
            f"inputs: {len(self.open)} open-loop requests ({cold} cold) at {RATE:g} req/s, "
            f"{len(self.closed)} closed-loop, {len(self.bodies)} systems, digest {self.digest}"
        )

    def _cache_dir(self) -> str:
        self._caches += 1
        path = WORK / f"daemon-cache-{self._caches}"
        shutil.rmtree(path, ignore_errors=True)
        return str(path.relative_to(WORK.parent))

    # ------------------------------------------------------------------
    def _open_loop(self, port: int) -> List[Answer]:
        requests = self.open
        answers: List[Optional[Answer]] = [None] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()
        origin = time.perf_counter() + 0.05

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = origin + requests[index].due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = post(port, self.bodies[requests[index].system])
                answers[index] = (time.perf_counter() - due, sent - due, status, body)

        _run_clients(client)
        return answers  # type: ignore[return-value]

    def _closed_loop(self, port: int) -> Tuple[List[Answer], List[float], float]:
        """Answers, each request's completion time, and the start."""
        requests = self.closed
        answers: List[Optional[Answer]] = [None] * len(requests)
        done_at = [0.0] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()
        origin = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sent = time.perf_counter()
                status, body = post(port, self.bodies[requests[index].system])
                done_at[index] = time.perf_counter()
                answers[index] = (done_at[index] - sent, 0.0, status, body)

        _run_clients(client)
        return answers, done_at, origin  # type: ignore[return-value]

    def _check(
        self, requests: Sequence[inputs.Request], answers: Sequence[Answer], outcome: Outcome
    ) -> List[bool]:
        """Per request: answered 200 with the reference ``jobs``."""
        good = []
        for request, (_, _, status, body) in zip(requests, answers):
            outcome.attempted += 1
            ok = False
            if status == 200:
                try:
                    ok = canonical_jobs(json.loads(body)) == self.expected[request.system]
                except (ValueError, KeyError):
                    ok = False
            if not ok:
                outcome.fail(f"request for system {request.system}: status {status}")
            good.append(ok)
        return good

    @staticmethod
    def _stop(daemon: Daemon, outcome: Outcome) -> None:
        if not daemon.stop():
            outcome.fail(
                f"daemon did not shut down cleanly (exit {daemon.program.returncode}): "
                f"{daemon.program.stderr_lines[-4:]}"
            )

    def _traffic(self, outcome: Outcome) -> Tuple[Dict, Dict]:
        """Start the daemon SETUP_SAMPLES times, drive both phases on
        the last start, return (end-to-end values, /cache/stats)."""
        readies, rss = [], 0
        daemon = None
        for sample in range(SETUP_SAMPLES):
            daemon = Daemon(self._cache_dir())
            if daemon.ready_s is None:
                daemon.stop()
                outcome.fail(f"daemon never became ready: {daemon.program.stderr_lines[-3:]}")
                return {}, {}
            readies.append(daemon.ready_s)
            if sample < SETUP_SAMPLES - 1:
                self._stop(daemon, outcome)
                rss = max(rss, daemon.program.max_rss_kb)
        assert daemon is not None and daemon.port is not None
        opened = self._open_loop(daemon.port)
        closed, done_at, origin = self._closed_loop(daemon.port)
        _, stats_body = get(daemon.port, "/cache/stats")
        self._stop(daemon, outcome)
        rss = max(rss, daemon.program.max_rss_kb)

        open_ok = self._check(self.open, opened, outcome)
        closed_ok = self._check(self.closed, closed, outcome)
        cold, warm, late = [], [], []
        for request, answer, ok in zip(self.open, opened, open_ok):
            # A failed request misses every latency limit.
            latency_ms = answer[0] * 1e3 if ok else float("inf")
            (cold if request.cold else warm).append(latency_ms)
            late.append(answer[1] * 1e3)
        closed_s = max(done_at) - origin
        good_done = [at for at, ok in zip(done_at, closed_ok) if ok]
        values = {
            "setup_s": statistics.median(readies),
            "peak_rss_mb": rss / 1024.0,
            "daemon.warm_p50_ms": percentile(warm, 50),
            "daemon.cold_p50_ms": percentile(cold, 50),
            "daemon.cold_p95_ms": percentile(cold, 95),
            "daemon.warm_p95_ms": percentile(warm, 95),
            "daemon.generator_late_p99_ms": percentile(late, 99),
            # The serving daemon's CPU per answered request, both phases.
            "daemon.cpu_ms_per_request": daemon.program.cpu_s * 1e3 / len(opened + closed),
        }
        if good_done:
            values["ops_per_s"] = windowed_rate(good_done, origin, CLOSED_WINDOW)
        outcome.notes.append(
            f"open loop: {len(cold)} cold (highest percentile with 10 beyond: "
            f"p{highest_percentile(len(cold))}), {len(warm)} warm "
            f"(p{highest_percentile(len(warm))}); generator late p50 "
            f"{percentile(late, 50):.3f} ms, p99 {percentile(late, 99):.3f} ms, "
            f"max {max(late):.3f} ms"
        )
        outcome.notes.append(
            f"closed loop: {len(closed)} requests in {closed_s:.3f}s "
            f"({sum(closed_ok) / closed_s:.1f} req/s overall)"
        )
        try:
            stats = json.loads(stats_body)
        except ValueError:
            stats = {}
            outcome.fail("GET /cache/stats did not answer")
        return values, stats

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        outcome.values, _ = self._traffic(outcome)
        return outcome

    # ------------------------------------------------------------------
    def _serial_pass(self, requests: Sequence[inputs.Request]) -> Tuple[float, List[bool]]:
        """Replay ``requests`` one at a time against an in-process
        daemon on a fresh cache; returns client seconds and checks."""
        from repro.service import AnalysisOptions, AnalysisService, start_server

        service = AnalysisService(AnalysisOptions(cache_dir=self._cache_dir()), workers=WORKERS)
        server = start_server(service)
        port = server.server_address[1]
        client_s, good = 0.0, []
        try:
            for request in requests:
                sent = time.perf_counter()
                status, body = post(port, self.bodies[request.system])
                client_s += time.perf_counter() - sent
                good.append(
                    status == 200
                    and canonical_jobs(json.loads(body)) == self.expected[request.system]
                )
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        return client_s, good

    def trace(self, seconds: float) -> Outcome:
        outcome = Outcome()
        import_s, numpy_s = import_times()
        traffic, stats = self._traffic(outcome)
        replay = (list(self.open) + list(self.closed))[:TRACE_REQUESTS]
        layers, (client_s, good) = layer_metrics(
            lambda: self._serial_pass(replay), WORK / f"spans-{self.name}.jsonl"
        )
        outcome.attempted += len(good)
        for ok in good:
            if not ok:
                outcome.fail("traced in-process request answered wrongly")
        service = stats.get("service", {})
        layers.update({k: v for k, v in traffic.items() if k.startswith("daemon.")})
        layers.update(cache_ratios(stats.get("cache", {})))
        layers.update(
            {
                "startup.import_s": import_s,
                "startup.numpy_import_s": numpy_s,
                "service.requests": service.get("requests", 0),
                "service.computes": service.get("computes", 0),
                "service.coalesced": service.get("coalesced", 0),
                "service.transport_s": max(client_s - layers["service.analyze_s"], 0.0),
            }
        )
        outcome.values = layers
        return outcome


def _run_clients(client) -> None:
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
