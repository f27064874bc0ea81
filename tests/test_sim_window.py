"""Windowed views of a simulation result, and the reports built on them.

* ``slices_before(u)`` and ``instances_before(chain, u)`` equal the full
  views filtered by ``start < u`` and ``activation < u`` under every
  kernel setting, for cut-offs at 0, at an activation, on a slice
  boundary, inside a slice, inside a contended stretch and past the
  horizon.
* ``render_gantt`` equals a reference rendering over the full views.
* Rendering the head of a long calendar trace builds no object past
  its window.
* ``repro simulate`` prints the same bytes under every kernel setting,
  and the simulator picks its backend by the number of activations.
"""

import math

import pytest

from repro import PeriodicModel, SystemBuilder
from repro.cli import main
from repro.kernel import HAVE_NUMPY, VECTOR_MIN, using_kernel
from repro.model.serialization import system_to_json
from repro.sim import Simulator, calendar, render_gantt
from repro.synth import soak_workload
from repro.synth.soak import soak_system

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

SETTINGS = ["python", "auto", pytest.param("numpy", marks=needs_numpy)]


def reference_gantt(result, until=None, width=100):
    """The Gantt chart drawn from the full ``slices`` and ``instances``
    views, scanning every slice and every instance."""
    if until is None:
        until = max((s.end for s in result.slices), default=0.0)
    if until <= 0:
        return "(empty schedule)"
    scale = width / until
    rows = {}
    order = []
    for chain in result.system.chains:
        for task in chain.tasks:
            rows[task.name] = ["."] * width
            order.append(task.name)
    for piece in result.slices:
        if piece.start >= until:
            continue
        begin = int(piece.start * scale)
        end = max(begin + 1, int(math.ceil(min(piece.end, until) * scale)))
        for column in range(begin, min(end, width)):
            rows[piece.task][column] = str(piece.instance % 10)
    label_width = max(len(name) for name in order) + 1
    lines = [f"{name:<{label_width}}|{''.join(rows[name])}|" for name in order]
    for chain in result.system.chains:
        marks = [" "] * width
        for rec in result.instances[chain.name]:
            if rec.activation < until:
                marks[min(int(rec.activation * scale), width - 1)] = "^"
            if rec.finish is not None and rec.finish < until:
                column = min(int(rec.finish * scale), width - 1)
                marks[column] = "v" if marks[column] == " " else "*"
        lines.append(f"{chain.name:<{label_width}}|{''.join(marks)}|")
    lines.append(f"{'':<{label_width}} 0{'':>{width - len(str(until)) - 1}}{until}")
    return "\n".join(lines)


def simulate(workload, kernel):
    system, activations, horizon = workload
    with using_kernel(kernel):
        return Simulator(system).run(activations, horizon)


def contended_cut(result):
    """A cut-off at which an activated instance waits for the processor:
    halfway between its activation and its first slice."""
    first = {}
    for piece in result.slices:
        first.setdefault((piece.chain, piece.instance), piece)
    for (chain, instance), piece in first.items():
        activation = result.instances[chain][instance].activation
        if piece.start > activation:
            return (activation + piece.start) / 2
    raise AssertionError("the workload has no contention")


@pytest.fixture(scope="module")
def soak():
    return soak_workload(events=4_000, utilization=0.3)


@pytest.fixture(scope="module")
def reference(soak):
    return simulate(soak, "python")


@pytest.fixture(scope="module")
def cuts(soak, reference):
    piece = reference.slices[len(reference.slices) // 2]
    records = reference.instances[soak[0].chains[0].name]
    return {
        "zero": 0.0,
        "activation": records[len(records) // 2].activation,
        "slice_start": piece.start,
        "slice_end": piece.end,
        "inside_slice": (piece.start + piece.end) / 2,
        "contended": contended_cut(reference),
        "past_horizon": 2 * soak[2],
    }


class TestWindowedViews:
    @pytest.mark.parametrize("kernel", SETTINGS)
    def test_views_equal_filtered_full_views(self, soak, reference, cuts, kernel):
        result = simulate(soak, kernel)
        for name, until in cuts.items():
            expected = [s for s in reference.slices if s.start < until]
            assert result.slices_before(until) == expected, name
            for chain in soak[0].chains:
                expected = [
                    rec
                    for rec in reference.instances[chain.name]
                    if rec.activation < until
                ]
                assert result.instances_before(chain.name, until) == expected, name

    @pytest.mark.parametrize("kernel", SETTINGS)
    def test_views_of_built_results_agree(self, soak, cuts, kernel):
        result = simulate(soak, kernel)
        windowed = {until: result.slices_before(until) for until in cuts.values()}
        assert result.slices and result.instances  # build the full views
        for until, pieces in windowed.items():
            assert result.slices_before(until) == pieces

    @needs_numpy
    def test_contended_cut_splits_a_stretch(self, soak, cuts):
        result = simulate(soak, "numpy")
        until = cuts["contended"]
        stretches = [
            chunk
            for chunk in result._trace.slice_chunks
            if isinstance(chunk, list) and chunk[0].start < until <= chunk[-1].start
        ]
        assert stretches, "no scalar stretch straddles the contended cut-off"
        kept = result.slices_before(until)
        for chunk in stretches:
            head = [piece for piece in chunk if piece.start < until]
            assert 0 < len(head) < len(chunk)
            assert all(piece in kept for piece in head)

    @pytest.mark.parametrize("kernel", SETTINGS)
    def test_activation_times(self, soak, reference, kernel):
        result = simulate(soak, kernel)
        for chain in soak[0].chains:
            times = [float(t) for t in result.activation_times(chain.name)]
            assert times == [rec.activation for rec in reference.instances[chain.name]]


class TestGantt:
    @pytest.mark.parametrize("kernel", SETTINGS)
    def test_matches_reference_rendering(self, soak, reference, cuts, kernel):
        result = simulate(soak, kernel)
        for until in [None, *cuts.values()]:
            for width in (100, 37):
                expected = reference_gantt(reference, until=until, width=width)
                assert render_gantt(result, until=until, width=width) == expected

    @pytest.mark.parametrize("kernel", SETTINGS)
    def test_empty_schedule(self, kernel):
        system = (
            SystemBuilder("e")
            .chain("c", PeriodicModel(50), deadline=50)
            .task("c.a", priority=1, wcet=10)
            .build()
        )
        with using_kernel(kernel):
            result = Simulator(system).run({"c": []}, 100)
        assert render_gantt(result) == reference_gantt(result) == "(empty schedule)"

    @needs_numpy
    def test_rendering_stays_windowed(self, monkeypatch):
        workload = soak_workload(events=30_000)
        result = simulate(workload, "numpy")
        until = 600.0
        records, pieces = [], []
        real_record, real_slice = calendar.InstanceRecord, calendar.ExecutionSlice

        def record(*args):
            records.append(args[2])
            return real_record(*args)

        def piece(*args):
            pieces.append(args[3])
            return real_slice(*args)

        monkeypatch.setattr(calendar, "InstanceRecord", record)
        monkeypatch.setattr(calendar, "ExecutionSlice", piece)
        text = render_gantt(result, until=until)
        assert result._slices is None and result._instances is None
        assert records and pieces
        assert max(records) < until
        assert max(pieces) < until
        monkeypatch.undo()
        assert text == reference_gantt(result, until=until)


class TestSimulateCli:
    @pytest.fixture(scope="class")
    def soak_file(self, tmp_path_factory):
        system = soak_system()
        rate = sum(chain.activation.rate() for chain in system.chains)
        path = tmp_path_factory.mktemp("soak") / "soak.json"
        path.write_text(system_to_json(system) + "\n", encoding="utf-8")
        return str(path), str(round(20_000 / rate))

    def test_stdout_identical_across_kernels(self, soak_file, capsys):
        path, horizon = soak_file
        outputs = {}
        for kernel in ["python", "auto"] + (["numpy"] if HAVE_NUMPY else []):
            argv = ["simulate", "--system", path, "--horizon", horizon]
            with using_kernel(kernel):
                assert main([*argv, "--kernel", kernel]) == 0
            outputs[kernel] = capsys.readouterr().out
        assert "max latency" in outputs["python"]
        assert "|" in outputs["python"].splitlines()[-2]
        for kernel, out in outputs.items():
            assert out == outputs["python"], kernel


class TestBackendChoice:
    def _run(self, events):
        system = (
            SystemBuilder("one")
            .chain("c", PeriodicModel(10), deadline=10)
            .task("c.a", priority=1, wcet=2)
            .build()
        )
        return Simulator(system).run({"c": [10.0 * i for i in range(events)]}, 1e9)

    def test_auto_sizes_by_activations(self):
        with using_kernel("auto"):
            assert self._run(VECTOR_MIN - 1)._trace is None
            calendar_run = self._run(VECTOR_MIN)._trace is not None
        assert calendar_run == HAVE_NUMPY

    @needs_numpy
    def test_forced_numpy_takes_the_calendar_at_every_size(self):
        with using_kernel("numpy"):
            assert self._run(1)._trace is not None

    def test_forced_python_never_takes_the_calendar(self):
        with using_kernel("python"):
            assert self._run(4 * VECTOR_MIN)._trace is None
