"""End-to-end benchmark of the ``repro`` TWCA program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus_sweep --seed 1 --seconds 24 --trace 0

Each workload builds its inputs from ``--seed``, computes the
reference outputs once in-process, then launches the program the way a
user does (``repro shard``, ``repro batch``, ``repro serve``, ``repro
simulate``) for ``--seconds`` seconds and checks every output.

``--trace 0`` reports every end-to-end metric.  ``--trace 1``
reports the per-layer metrics: counters from the program's public
surfaces (``-v`` shard lines, ``GET /cache/stats``, ``--timings``) and
spans recorded around each layer's functions during a serial
in-process run, together with the tracing overhead (traced minus
untraced wall time of that run).

Human-readable notes go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus_sweep", "deep_window", "daemon_mixed", "sim_soak")


def build(name: str, seed: int, seconds: float):
    if name == "corpus_sweep":
        from perfbench.corpus_sweep import CorpusSweep

        return CorpusSweep(seed)
    if name == "deep_window":
        from perfbench.deep_window import DeepWindow

        return DeepWindow(seed)
    if name == "daemon_mixed":
        from perfbench.daemon_mixed import DaemonMixed

        return DaemonMixed(seed, seconds)
    from perfbench.sim_soak import SimSoak

    return SimSoak(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    # A shell that starts this in the background ignores SIGINT, and the
    # program inherits that; restore it so `repro serve` stops on SIGINT
    # the way it does on a user's Ctrl-C.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from perfbench.common import WORK
    from perfbench.metrics import declared

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")

    started = time.perf_counter()
    workload = build(args.workload, args.seed, args.seconds)
    # Set-up leaves a large heap; keep the collector from pausing the
    # daemon's client threads while they are timing requests.
    gc.collect()
    gc.freeze()
    print(f"{args.workload} seed {args.seed}: set-up {time.perf_counter() - started:.2f}s")
    print(workload.inputs_note())
    outcome = workload.trace(args.seconds) if args.trace else workload.measure(args.seconds)
    for note in outcome.notes:
        print(note)
    units = declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps(outcome.result(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
