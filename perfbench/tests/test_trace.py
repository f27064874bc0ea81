"""The span recorder: each wrapped name is really called on the
workload the layer table says it moves, and patching is undone."""

import importlib

import pytest

from perfbench import inputs
from perfbench.common import run_cli_inprocess
from perfbench.trace import TARGETS, Tracer


def _corpus(root):
    inputs.write_corpus(1, 4, root / "corpus")
    run_cli_inprocess(["shard", "--corpus", str(root / "corpus"), "--serial", "--json"])


def _deep(root):
    paths = inputs.write_systems(inputs.deep_window_family(1, 2), root / "deep")
    run_cli_inprocess(["batch", "--system", *paths, "--workers", "1", "--k", "1", "10", "--json"])


def _daemon(root):
    from repro.service import AnalysisOptions, AnalysisService, start_server

    from perfbench.daemon_mixed import post

    bodies = [inputs.request_body(system) for system in inputs.daemon_systems(1, 2)]
    service = AnalysisService(AnalysisOptions(cache_dir=str(root / "cache")), workers=2)
    server = start_server(service)
    try:
        for body in bodies + bodies:  # cold, then warm
            status, _ = post(server.server_address[1], body)
            assert status == 200
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _soak(root):
    system, horizon = inputs.soak_input(1, 2000)
    (path,) = inputs.write_systems([system], root / "soak")
    run_cli_inprocess(["simulate", "--system", path, "--horizon", str(horizon)])


RUNS = {"corpus_sweep": _corpus, "deep_window": _deep, "daemon_mixed": _daemon, "sim_soak": _soak}


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    observed = {}
    for workload, run in RUNS.items():
        with Tracer() as tracer:
            run(root)
        observed[workload] = tracer.calls_by_target()
        totals = tracer.layer_totals()
        for layer, entry in totals.items():
            assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9, layer
    return observed


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.moves}:{t.key}")
def test_every_wrapped_name_is_called_where_its_layer_moves(calls, target):
    assert calls[target.moves].get(target.key, 0) >= 1


def test_tracer_restores_every_name():
    def current(target):
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)

    before = [current(target) for target in TARGETS]
    with Tracer():
        assert [current(target) for target in TARGETS] != before
    assert [current(target) for target in TARGETS] == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [(1, 0, 0, 0.0, 1.0), (2, 1, 1, 0.2, 0.5), (3, 2, 1, 0.3, 0.4)]
    totals = tracer.layer_totals()
    first, second = TARGETS[0].layer, TARGETS[1].layer
    assert first == second == "model.serialization"
    entry = totals[first]
    assert entry["calls"] == 3
    assert entry["total_s"] == pytest.approx(1.0 + 0.3 + 0.1)
    assert entry["self_s"] == pytest.approx(0.7 + 0.2 + 0.1)
