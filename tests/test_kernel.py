"""Kernel parity: numpy and pure-Python numeric kernels are bit-identical.

The contracts under test:

* ``eta_plus_many`` equals the scalar ``eta_plus`` pointwise, and both
  equal the generic galloping pseudo-inverse search, for every shipped
  event model under either kernel (hypothesis property test);
* the batched multi-q Kleene iteration (``busy_times``, the block-mode
  latency scan, the multi-q Def. 10 exact check) lands on the
  bit-identical fixed points and verdicts as the scalar reference, on
  randomized systems, serial and parallel, cold and cached;
* the numpy simplex tableau pivots exactly like the pure-Python one on
  randomized LPs: same statuses, same objectives, same values, same
  pivot counts, for cold solves and warm rhs-only re-solve schedules;
* deterministic batch exports are byte-identical under both kernels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PeriodicModel, SporadicModel, SystemBuilder, analyze_twca
from repro.analysis import analyze_latency, busy_time, criterion_loads
from repro.analysis.busy_window import busy_times
from repro.analysis.combinations import (
    iter_combinations,
    overload_active_segments,
)
from repro.analysis.exceptions import BusyWindowDivergence
from repro.analysis.twca import _build_verdict
from repro.arrivals import ArrivalCurve, SporadicBurstModel, StaircaseKernel
from repro.arrivals.algebra import scaled, tightest
from repro.ilp.simplex import IncrementalLp, solve_lp
from repro.kernel import (
    HAVE_NUMPY,
    KernelUnavailable,
    kernel_name,
    set_kernel,
    using_kernel,
)
from repro.runner import AnalysisCache, BatchRunner
from repro.synth import GeneratorConfig, generate_feasible_system

KERNELS = ("python", "numpy") if HAVE_NUMPY else ("python",)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def random_system(seed, overload_chains=2):
    rng = random.Random(seed)
    return generate_feasible_system(
        rng,
        GeneratorConfig(
            chains=2,
            overload_chains=overload_chains,
            utilization=0.5,
            overload_utilization=0.06,
            tasks_per_chain=(2, 4),
        ),
    )


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelSwitch:
    def test_resolves_to_a_concrete_kernel(self):
        assert kernel_name() in ("auto", "numpy", "python")

    def test_using_kernel_restores(self):
        before = kernel_name()
        with using_kernel("python") as active:
            assert active == "python"
            assert kernel_name() == "python"
        assert kernel_name() == before

    def test_set_kernel_rejects_junk(self):
        with pytest.raises(ValueError):
            set_kernel("fortran")

    def test_auto_resolves_by_availability(self):
        with using_kernel("auto") as active:
            assert active == ("auto" if HAVE_NUMPY else "python")

    @pytest.mark.skipif(HAVE_NUMPY, reason="needs a numpy-free interpreter")
    def test_numpy_request_fails_loud_without_numpy(self):
        with pytest.raises(KernelUnavailable):
            set_kernel("numpy")


# ----------------------------------------------------------------------
# Staircase kernel: eta_plus_many == scalar eta_plus pointwise
# ----------------------------------------------------------------------
periodic_models = (
    st.tuples(
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=50),
    )
    .filter(lambda pjd: pjd[1] < pjd[0] and pjd[2] <= pjd[0])
    .map(lambda pjd: PeriodicModel(pjd[0], jitter=pjd[1], min_distance=pjd[2]))
)

sporadic_models = st.builds(
    SporadicModel, min_distance=st.integers(min_value=1, max_value=1000)
)

burst_models = st.builds(
    lambda inner, burst, slack: SporadicBurstModel(
        inner, burst, burst * inner + slack
    ),
    inner=st.integers(min_value=1, max_value=50),
    burst=st.integers(min_value=1, max_value=6),
    slack=st.integers(min_value=0, max_value=500),
)


@st.composite
def curve_models(draw):
    increments = draw(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6)
    )
    points = [0, 0]
    for inc in increments:
        points.append(points[-1] + inc)
    tail = draw(st.integers(min_value=1, max_value=500))
    return ArrivalCurve(points, tail_distance=tail)


@st.composite
def algebra_models(draw):
    base = draw(st.one_of(periodic_models, sporadic_models, burst_models))
    if draw(st.booleans()):
        return scaled(base, draw(st.integers(min_value=1, max_value=5)))
    other = draw(st.one_of(periodic_models, sporadic_models))
    return tightest(base, other)


any_model = st.one_of(
    periodic_models, sporadic_models, burst_models, curve_models(), algebra_models()
)

windows = st.lists(
    st.one_of(
        st.integers(min_value=-5, max_value=100_000),
        st.floats(
            min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
        ),
    ),
    min_size=1,
    max_size=20,
)


class TestEtaParity:
    @settings(max_examples=120, deadline=None)
    @given(model=any_model, dts=windows)
    def test_batched_equals_scalar_equals_search(self, model, dts):
        reference = [
            model._eta_plus_search(dt) if dt > 0 else 0 for dt in dts
        ]
        for kernel in KERNELS:
            with using_kernel(kernel):
                assert [model.eta_plus(dt) for dt in dts] == reference
                assert [int(v) for v in model.eta_plus_many(dts)] == reference

    @settings(max_examples=60, deadline=None)
    @given(model=any_model, k=st.integers(min_value=2, max_value=48))
    def test_kernel_delta_matches_model_delta(self, model, k):
        kernel = model.staircase_kernel()
        if kernel is None:
            return
        assert kernel.delta(k) == model.delta_minus(k)

    def test_float_jittered_periodic_keeps_the_pseudo_inverse_contract(self):
        """Non-integral jittered periodic models must not compile a
        kernel: the tail's ``breaks[L-1] + c*P`` associates differently
        from ``(k-1)*P - J`` and an ulp drift across a boundary
        *under*-counts an interfering activation (unsound)."""
        model = PeriodicModel(0.1, 0.31000000000000005, 0.010000000000000002)
        assert model.staircase_kernel() is None
        dt = 38.790000000000006
        assert model.delta_minus(392) < dt  # 392 events fit strictly below
        for kernel in KERNELS:
            with using_kernel(kernel):
                assert model.eta_plus(dt) == 392
                assert [int(v) for v in model.eta_plus_many([dt])] == [392]

    def test_zero_jitter_float_periodic_still_compiles(self):
        model = PeriodicModel(0.30000000000000004)
        kernel = model.staircase_kernel()
        assert kernel is not None  # exact: tail is float-identical
        for k in range(2, 64):
            assert kernel.delta(k) == model.delta_minus(k)

    def test_float_scaled_models_keep_the_pseudo_inverse_contract(self):
        """Fractional scale factors must not compile a composed kernel:
        kernel tail arithmetic associates differently from the scaled
        model's own ``delta_minus`` and can drift an ulp across a
        staircase boundary.  The model falls back to the authoritative
        galloping search instead."""
        model = scaled(SporadicModel(9.48126033806018), 1.214729314448362)
        assert model.staircase_kernel() is None
        for k in range(2, 40):
            boundary = model.delta_minus(k)
            for kernel in KERNELS:
                with using_kernel(kernel):
                    assert model.eta_plus(boundary) <= k - 1
                    assert model.eta_plus(boundary + 1) >= k
                    assert [int(v) for v in model.eta_plus_many([boundary])] == [
                        model.eta_plus(boundary)
                    ]

    def test_integer_scaled_models_compose_exactly(self):
        model = scaled(SporadicModel(700), 3)
        kernel = model.staircase_kernel()
        assert kernel is not None
        for k in range(2, 64):
            assert kernel.delta(k) == model.delta_minus(k)

    def test_too_dense_curve_overflows_like_before(self):
        curve = ArrivalCurve([0, 0])  # zero tail: infinitely dense
        with pytest.raises(OverflowError):
            curve.eta_plus(1)
        for kernel in KERNELS:
            with using_kernel(kernel):
                with pytest.raises(OverflowError):
                    curve.eta_plus_many([1.0])

    def test_kernel_validates_breaks(self):
        with pytest.raises(ValueError):
            StaircaseKernel([0, 1], 1, 1.0)  # delta_minus(1) must be 0
        with pytest.raises(ValueError):
            StaircaseKernel([0, 0, 5, 3], 1, 1.0)  # not monotone
        with pytest.raises(ValueError):
            StaircaseKernel([0, 0], 5, 1.0)  # tail period exceeds prefix


# ----------------------------------------------------------------------
# Batched multi-q Kleene bit-identity
# ----------------------------------------------------------------------
def strip(breakdown):
    """Every breakdown field except the ``iterations`` diagnostic."""
    return (
        breakdown.q,
        breakdown.base,
        breakdown.self_interference,
        breakdown.arbitrary,
        breakdown.deferred_async,
        breakdown.deferred_sync,
        breakdown.combination,
        breakdown.total,
    )


class TestBatchedKleene:
    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_busy_times_matches_scalar(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 3)
        for chain in system.typical_chains:
            qs = (1, 2, 3, 5)
            try:
                scalar = {q: busy_time(system, chain, q) for q in qs}
            except BusyWindowDivergence:
                continue
            per_kernel = {}
            for kernel in KERNELS:
                with using_kernel(kernel):
                    batched = busy_times(system, chain, qs)
                per_kernel[kernel] = {q: strip(b) for q, b in batched.items()}
                assert per_kernel[kernel] == {
                    q: strip(b) for q, b in scalar.items()
                }
            assert len(set(map(str, per_kernel.values()))) == 1

    @pytest.mark.parametrize("seed", (1, 7, 13))
    def test_busy_times_under_cache_matches_and_hits(self, seed):
        system = random_system(seed)
        chain = next(iter(system.typical_chains))
        qs = (1, 2, 4)
        cold = {q: busy_time(system, chain, q) for q in qs}
        cache = AnalysisCache()
        with cache.activate():
            first = busy_times(system, chain, qs)
            second = busy_times(system, chain, qs)
        assert {q: strip(b) for q, b in first.items()} == {
            q: strip(b) for q, b in cold.items()
        }
        # The second batch is served entirely from the cache — the
        # batched path stores under exactly the scalar keys.
        assert {q: strip(b) for q, b in second.items()} == {
            q: strip(b) for q, b in first.items()
        }
        assert cache.stats()["busy_time"].hits >= len(qs)

    @pytest.mark.parametrize("seed", range(0, 24, 5))
    def test_latency_scan_matches_across_kernels(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 2)
        for chain in system.typical_chains:
            outcomes = {}
            for kernel in KERNELS:
                with using_kernel(kernel):
                    try:
                        result = analyze_latency(system, chain)
                        outcomes[kernel] = (
                            result.max_queue,
                            result.wcl,
                            result.critical_q,
                            tuple(result.latencies),
                            tuple(strip(b) for b in result.busy_times),
                        )
                    except BusyWindowDivergence:
                        outcomes[kernel] = "diverged"
            values = list(outcomes.values())
            assert all(v == values[0] for v in values)

    @pytest.mark.parametrize("seed", range(0, 36, 4))
    def test_multi_q_exact_check_matches_scalar_reference(self, seed):
        system = random_system(seed, overload_chains=1 + seed % 3)
        for chain in system.typical_chains:
            try:
                full = analyze_latency(system, chain, include_overload=True)
            except BusyWindowDivergence:
                continue
            if full.wcl <= chain.deadline:
                continue  # schedulable: no Def. 10 stage
            deltas = {
                q: chain.activation.delta_minus(q)
                for q in range(1, full.max_queue + 1)
            }
            loads = criterion_loads(system, chain, tuple(deltas))
            segments = overload_active_segments(system, chain)
            multi = _build_verdict(
                system, chain, deltas, loads, segments,
                exact_criterion=True, multi_q=True,
            )
            scalar = _build_verdict(
                system, chain, deltas, loads, segments,
                exact_criterion=True, multi_q=False,
            )
            for combo in iter_combinations(segments):
                assert multi(combo.signature) == scalar(combo.signature)

    @pytest.mark.parametrize("seed", (2, 9, 21))
    def test_analyze_twca_identical_across_kernels(self, seed):
        system = random_system(seed, overload_chains=2)
        for chain in system.typical_chains:
            per_kernel = []
            for kernel in KERNELS:
                with using_kernel(kernel):
                    result = analyze_twca(system, chain)
                    per_kernel.append(
                        (
                            result.status,
                            result.n_b,
                            result.min_slack,
                            result.combination_count,
                            result.unschedulable_count,
                            result.dmm_curve((1, 3, 10, 50)),
                        )
                    )
            assert all(entry == per_kernel[0] for entry in per_kernel)


# ----------------------------------------------------------------------
# Simplex tableau parity
# ----------------------------------------------------------------------
def random_lp(rng, num_vars, num_rows):
    objective = [rng.randint(0, 5) + rng.choice([0.0, rng.random()]) for _ in range(num_vars)]
    rows = [
        [rng.choice([0.0, 0.0, 1.0, 2.0, rng.random() * 3]) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    rhs = [rng.choice([rng.randint(-2, 10), rng.random() * 8]) for _ in range(num_rows)]
    return objective, rows, rhs


@needs_numpy
class TestTableauParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_cold_solves_pivot_identically(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            objective, rows, rhs = random_lp(
                rng, rng.randint(1, 12), rng.randint(1, 10)
            )
            outcomes = {}
            for kernel in KERNELS:
                with using_kernel(kernel):
                    result = solve_lp(objective, rows, rhs)
                    outcomes[kernel] = (
                        result.status,
                        result.objective,
                        result.values,
                        result.pivots,
                    )
            assert outcomes["python"] == outcomes["numpy"]

    @pytest.mark.parametrize("seed", range(8))
    def test_warm_rhs_schedules_pivot_identically(self, seed):
        rng = random.Random(1000 + seed)
        objective, rows, _ = random_lp(rng, rng.randint(1, 10), rng.randint(1, 8))
        schedule = [
            [float(rng.randint(0, 8)) for _ in rows] for _ in range(15)
        ]
        outcomes = {}
        for kernel in KERNELS:
            with using_kernel(kernel):
                lp = IncrementalLp(objective, rows)
                runs = [
                    (r.status, r.objective, r.values, r.pivots)
                    for r in (lp.solve(rhs) for rhs in schedule)
                ]
                outcomes[kernel] = (runs, lp.warm_solves, lp.cold_solves)
        assert outcomes["python"] == outcomes["numpy"]


# ----------------------------------------------------------------------
# End to end: byte-identical exports
# ----------------------------------------------------------------------
class TestExportIdentity:
    def hotpath_system(self):
        builder = SystemBuilder("kernel-export", allow_shared_priorities=True)
        builder.chain("victim", PeriodicModel(200), deadline=233)
        builder.task("victim.a", priority=2, wcet=25)
        builder.task("victim.b", priority=3, wcet=15)
        for index in range(4):
            name = f"isr{index}"
            builder.chain(name, SporadicModel(5000 + 100 * index), overload=True)
            builder.task(f"{name}.t", priority=10 + index, wcet=9 + index)
        return builder.build()

    def test_serial_export_identical_across_kernels(self, tmp_path):
        system = self.hotpath_system()
        exports = {}
        for kernel in KERNELS:
            with using_kernel(kernel):
                cache_dir = str(tmp_path / f"cache-{kernel}")
                batch = BatchRunner(
                    workers=1, ks=(1, 5, 25), cache_dir=cache_dir
                ).run_systems([system])
                exports[kernel] = batch.to_json()
        assert len(set(exports.values())) == 1

    @needs_numpy
    def test_parallel_export_identical_across_kernels(self):
        system = self.hotpath_system()
        exports = {}
        for kernel in KERNELS:
            with using_kernel(kernel):
                batch = BatchRunner(
                    workers=2, ks=(1, 10), use_cache=False
                ).run_systems([system])
                exports[kernel] = batch.to_json()
        assert len(set(exports.values())) == 1

    def test_timing_export_names_the_kernel(self):
        system = self.hotpath_system()
        with using_kernel("python"):
            batch = BatchRunner(workers=1, use_cache=False).run_systems([system])
            payload = batch.jobs[0].to_dict(deterministic=False)
        assert payload["kernel"] == "python"
        deterministic = batch.jobs[0].to_dict()
        assert "kernel" not in deterministic
