"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` once per seed for each named workload and
prints, per metric, the median, the interquartile distance as a share
of the median, and that share against the metric's bound in
``BENCHMARK.json``.  A spread above :data:`SHARE` of its bound is
flagged, ``setup_s`` included, and the script then exits 1.

    python3 perfbench/spread.py --workload deep_window --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_iqr  # noqa: E402

#: Share of a metric's bound its spread may use before it is flagged.
SHARE = 1 / 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    flagged = False
    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n" + "\n".join(lines[:-1]))
                flagged = True
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            share = relative_iqr(series)
            bound = bounds[name]
            mark = "" if share <= bound * SHARE else "  <-- wide"
            flagged |= bool(mark)
            print(
                f"{workload:14s} {name:16s} median {statistics.median(series):12.4f}"
                f"  spread {share:6.3f}"
                f"  bound {bound:5.3f}{mark}"
            )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
