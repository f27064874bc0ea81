"""BENCHMARK.json meets the benchmark contract and covers what the
workloads report."""

import json
import re
from pathlib import Path

from perfbench.metrics import CACHE_CATEGORIES, SPAN_LAYERS, Outcome, declared
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_keys_and_command():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_every_span_derived_metric_is_declared():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    derived = {f"{layer}.{kind}" for layer in SPAN_LAYERS for kind in ("calls", "self_s")}
    derived |= {f"runner.cache.{category}.hit_ratio" for category in CACHE_CATEGORIES}
    assert derived <= per_layer


def test_names_units_and_bounds():
    seen = set()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert metric["name"] not in seen
        seen.add(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(m for m in SPEC["end_to_end"][0]) == {"name", "unit", "better", "bound"}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_a_run_missing_a_metric_is_not_correct():
    units = declared("end_to_end")
    values = {name: 1.0 for name in units}
    assert Outcome(attempted=1, values=values).result(units)["correct"]
    values.pop("setup_s")
    result = Outcome(attempted=1, values=values).result(units)
    assert not result["correct"]
    assert "setup_s" not in result["metrics"]
