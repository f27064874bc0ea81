"""The size-aware ``auto`` kernel and its lazy numpy import.

* Under ``auto`` a batch below :data:`repro.kernel.VECTOR_MIN` cells
  takes the pure-Python path and a batch of ``VECTOR_MIN`` cells or
  more the numpy path; the forced kernels ignore the size.
* At ``VECTOR_MIN - 1`` and ``VECTOR_MIN`` the batched Theorem 1
  totals, the multi-q and block Def. 10 evaluators and the simplex
  return the same values under ``auto``, ``python`` and ``numpy``.
* Whole exports whose batches straddle the threshold are
  byte-identical under all three settings.
* numpy is imported only by the first vector batch: start-up,
  ``--help`` and a small sweep under the default kernel never import it;
  the daemons import it before they serve.
* Spawned workers inherit ``auto`` itself, not a resolved name.
"""

import math
import multiprocessing
import os
import random
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import PeriodicModel, SporadicModel, SystemBuilder, analyze_latency
from repro.analysis import busy_window, twca
from repro.analysis.busy_window import _InterferenceModel, criterion_loads
from repro.analysis.combinations import iter_combinations
from repro.analysis.twca import _build_verdict, overload_active_segments
from repro.ilp import simplex
from repro.ilp.simplex import _Tableau, solve_lp
from repro.kernel import (
    HAVE_NUMPY,
    VECTOR_MIN,
    kernel_name,
    numpy_for,
    set_kernel,
    using_kernel,
)
from repro.runner import BatchRunner
from repro.synth import CorpusManifest, CorpusSpec, generate_corpus

SETTINGS = ("auto", "python", "numpy") if HAVE_NUMPY else ("auto", "python")
SIZES = (VECTOR_MIN - 1, VECTOR_MIN)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def deep_window_system(deadline=None):
    """A periodic victim under one heavy long-period interferer and six
    sporadic overload ISRs: its busy window holds 84 activations, so
    its q batches run from 1 to far above ``VECTOR_MIN``.  With the
    default deadline (half-way between the typical and the full WCL)
    the victim is weakly-hard."""
    builder = SystemBuilder("deep", allow_shared_priorities=True)
    builder.chain("victim", PeriodicModel(100), deadline=deadline or math.inf)
    builder.task("victim.a", priority=2, wcet=24)
    builder.task("victim.b", priority=3, wcet=15)
    builder.chain("heavy", PeriodicModel(12000), deadline=12000)
    builder.task("heavy.a", priority=5, wcet=4900)
    for i in range(6):
        builder.chain(f"isr{i:02d}", SporadicModel(60000 + 500 * i), overload=True)
        builder.task(f"isr{i:02d}.t", priority=10 + i, wcet=20 + 3 * i)
    system = builder.build()
    if deadline is not None:
        return system
    victim = system["victim"]
    typical = analyze_latency(system, victim, include_overload=False).wcl
    full = analyze_latency(system, victim, include_overload=True).wcl
    return deep_window_system(round(typical + 0.5 * (full - typical), 3))


@pytest.fixture(scope="module")
def deep():
    return deep_window_system()


# ----------------------------------------------------------------------
# The policy itself
# ----------------------------------------------------------------------
class TestPolicy:
    @needs_numpy
    def test_auto_splits_at_the_threshold(self):
        with using_kernel("auto"):
            assert numpy_for(VECTOR_MIN - 1) is None
            assert numpy_for(VECTOR_MIN) is not None

    @needs_numpy
    def test_forced_numpy_vectorizes_every_size(self):
        with using_kernel("numpy"):
            assert numpy_for(1) is not None
            assert numpy_for(0) is not None

    def test_forced_python_never_vectorizes(self):
        with using_kernel("python"):
            assert numpy_for(10**6) is None

    @needs_numpy
    def test_totals_many_takes_the_path_of_its_size(self, deep):
        model = _InterferenceModel(deep, deep["victim"], True)
        with using_kernel("auto"):
            small = model.totals_many(range(1, VECTOR_MIN), [5000.0] * (VECTOR_MIN - 1))
            large = model.totals_many(range(1, VECTOR_MIN + 1), [5000.0] * VECTOR_MIN)
        assert isinstance(small, list)
        assert not isinstance(large, list)

    @needs_numpy
    def test_tableau_takes_the_path_of_its_rows(self):
        with using_kernel("auto"):
            for rows in SIZES:
                objective, matrix, rhs = packing_lp(rows, seed=rows)
                tableau = _Tableau(objective, matrix, rhs)
                assert (tableau._matrix is None) == (rows < VECTOR_MIN)


# ----------------------------------------------------------------------
# Differential: values at VECTOR_MIN - 1 and VECTOR_MIN
# ----------------------------------------------------------------------
def per_setting(compute):
    results = {}
    for setting in SETTINGS:
        with using_kernel(setting):
            results[setting] = compute()
    return results


@pytest.mark.parametrize("size", SIZES)
def test_totals_many_identical_at_the_threshold(deep, size):
    rng = random.Random(size)
    qs = list(range(1, size + 1))
    horizons = [float(rng.randint(1_000, 40_000)) for _ in qs]
    for include_overload in (True, False):
        model = _InterferenceModel(deep, deep["victim"], include_overload)
        results = per_setting(
            lambda: [float(t) for t in model.totals_many(qs, horizons, 7.0)]
        )
        assert len({tuple(v) for v in results.values()}) == 1, results
        reference = [
            model.evaluate(q, horizon, 7.0).total for q, horizon in zip(qs, horizons)
        ]
        assert results["python"] == reference


def verdict_at(system, size):
    """Def. 10 inputs of the victim restricted to ``q = 1..size``."""
    victim = system["victim"]
    deltas = {q: victim.activation.delta_minus(q) for q in range(1, size + 1)}
    loads = criterion_loads(system, victim, tuple(deltas))
    segments = overload_active_segments(system, victim)
    signatures = sorted({c.signature for c in iter_combinations(segments)})
    verdict = _build_verdict(
        system, victim, deltas, loads, segments, exact_criterion=True
    )
    return verdict, signatures


@pytest.mark.parametrize("size", SIZES)
def test_def10_evaluators_identical_at_the_threshold(deep, size):
    def compute():
        verdict, signatures = verdict_at(deep, size)
        multi_q = [verdict.exact_check(s) for s in signatures]
        block = [verdict.exact_check_many([s])[0] for s in signatures]
        return multi_q, block, verdict.exact_check_many(signatures)

    results = per_setting(compute)
    multi_q, block, whole = results["python"]
    assert multi_q == block == whole
    assert True in multi_q and False in multi_q
    assert all(value == results["python"] for value in results.values()), results


def packing_lp(rows, seed):
    rng = random.Random(seed)
    width = rows + 3
    objective = [float(rng.randint(1, 9)) for _ in range(width)]
    matrix = [[float(rng.randint(0, 3)) for _ in range(width)] for _ in range(rows)]
    rhs = [float(rng.randint(5, 30)) for _ in range(rows)]
    return objective, matrix, rhs


@pytest.mark.parametrize("rows", SIZES)
def test_simplex_identical_at_the_threshold(rows):
    objective, matrix, rhs = packing_lp(rows, seed=rows)

    def compute():
        result = solve_lp(objective, matrix, rhs)
        return result.status, result.objective, result.values, result.pivots

    results = per_setting(compute)
    assert results["python"][0] == "optimal"
    assert len(set(results.values())) == 1, results


# ----------------------------------------------------------------------
# Differential: whole exports that straddle the threshold
# ----------------------------------------------------------------------
@pytest.fixture
def batch_sizes(monkeypatch):
    """Record ``(site, size >= VECTOR_MIN)`` for every sized batch."""
    seen = Counter()

    def recording(size):
        site = traceback.extract_stack(limit=2)[0].name
        seen[(site, size >= VECTOR_MIN)] += 1
        return numpy_for(size)

    for module in (busy_window, twca, simplex):
        monkeypatch.setattr(module, "numpy_for", recording)
    return seen


def exports(systems):
    def export():
        runner = BatchRunner(workers=1, ks=(1, 10, 100), use_cache=False)
        return runner.run_systems(systems).to_json()

    return per_setting(export)


def test_deep_window_export_identical(deep, batch_sizes):
    results = exports([deep])
    assert len(set(results.values())) == 1
    assert '"weakly-hard"' in results["python"]
    assert batch_sizes[("totals_many", False)] and batch_sizes[("totals_many", True)]
    assert batch_sizes[("exact_unschedulable_block", True)]


def test_corpus_slice_export_identical(tmp_path, batch_sizes):
    generate_corpus(CorpusSpec(count=24, seed=301, family="waters"), tmp_path / "c")
    systems = list(CorpusManifest.load(tmp_path / "c").systems())
    results = exports(systems)
    assert len(set(results.values())) == 1
    sides = {above for (_, above) in batch_sizes}
    assert sides == {False, True}


# ----------------------------------------------------------------------
# What is imported
# ----------------------------------------------------------------------
def run_fresh(code):
    """Run ``code`` in a fresh interpreter under the default kernel and
    return its last stdout line."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


CLI = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:
        pass
print("numpy" in sys.modules)
"""


class TestLazyImport:
    def test_import_cli_leaves_numpy_out(self):
        code = "import sys, repro.cli; print('numpy' in sys.modules)"
        assert run_fresh(code) == "False"

    def test_help_leaves_numpy_out(self):
        assert run_fresh(CLI.format(argv=["--help"])) == "False"

    def test_small_batch_leaves_numpy_out(self):
        argv = ["batch", "--random", "5"]
        assert run_fresh(CLI.format(argv=argv)) == "False"

    def test_default_simulate_leaves_numpy_out(self):
        assert run_fresh(CLI.format(argv=["simulate"])) == "False"

    @needs_numpy
    def test_forced_numpy_imports_it(self):
        argv = ["batch", "--random", "5", "--kernel", "numpy"]
        assert run_fresh(CLI.format(argv=argv)) == "True"

    @pytest.mark.parametrize(
        "argv, forced_python",
        [
            (["serve", "--port", "0"], False),
            (["shard-worker", "--port", "0"], False),
            (["serve", "--port", "0", "--kernel", "python"], True),
        ],
    )
    def test_daemon_preloads_before_serving(self, argv, forced_python):
        # The daemon is stopped the moment it would start serving; numpy
        # is loaded by then whenever it is installed and not forced off.
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.kernel import HAVE_NUMPY\n"
            "from repro.service.http import AnalysisServer\n"
            "def stop(self):\n"
            "    raise KeyboardInterrupt\n"
            "AnalysisServer.serve_forever = stop\n"
            f"main({argv!r})\n"
            "print('numpy' in sys.modules, HAVE_NUMPY)\n"
        )
        loaded, installed = run_fresh(code).split()
        assert loaded == ("False" if forced_python else installed)


# ----------------------------------------------------------------------
# Worker inheritance
# ----------------------------------------------------------------------
class TestWorkerInheritance:
    def test_set_kernel_mirrors_the_request(self):
        with using_kernel("python"):
            set_kernel("auto")
            assert os.environ["REPRO_KERNEL"] == "auto"
            set_kernel(" Python ")
            assert os.environ["REPRO_KERNEL"] == "python"

    def test_spawned_worker_inherits_auto(self):
        with using_kernel("auto") as active:
            context = multiprocessing.get_context("spawn")
            with context.Pool(1) as pool:
                assert pool.apply(os.getenv, ("REPRO_KERNEL",)) == "auto"
                assert pool.apply(kernel_name) == active
