"""Record the host facts and a kernel comparison in ``perfbench/baseline.json``.

Host facts: ``nproc``, the Python and numpy versions, and the time of a
fixed pure-Python calibration loop, so figures from two hosts can be
put side by side.  Then every workload runs under the default kernel
and under ``REPRO_KERNEL=python`` (alternating, same seeds), and the
medians of their end-to-end metrics are recorded with the shard
teardown stalls the sweeps showed.

    python3 perfbench/baseline.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("default", "python")


def calibration_s(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop."""

    def loop() -> float:
        started = time.perf_counter()
        sum(i * i % 7 for i in range(2_000_000))
        return time.perf_counter() - started

    return statistics.median(loop() for _ in range(repeats))


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "calibration_s": round(calibration_s(), 4),
    }


def run(workload: str, seed: int, seconds: int, kernel: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    if kernel != "default":
        env["REPRO_KERNEL"] = kernel
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} under {kernel}: incorrect\n{done.stdout}")
    stalls = 0
    for line in lines:
        if (match := re.search(r"stalls \(> 1s\) (\d+)", line)) is not None:
            stalls += int(match[1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()}, "stalls": stalls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workload", nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"host": host_facts(), "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = {kernel: [] for kernel in KERNELS}
        for index, seed in enumerate(args.seeds):
            order = KERNELS if index % 2 == 0 else KERNELS[::-1]
            for kernel in order:
                runs[kernel].append(run(workload, seed, seconds, kernel))
        entry = {}
        for kernel, results in runs.items():
            names = results[0]["metrics"]
            entry[kernel] = {
                name: round(statistics.median(r["metrics"][name] for r in results), 4)
                for name in names
            }
            if workload == "corpus_sweep":
                entry[kernel]["shard_stalls"] = sum(r["stalls"] for r in results)
        report["workloads"][workload] = entry
        print(workload, json.dumps(entry), flush=True)
    out = ROOT / "perfbench" / "baseline.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
