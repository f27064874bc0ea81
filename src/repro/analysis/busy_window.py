"""The q-event busy time of a chain (Theorem 1 / Eq. 1, 3 and 4).

``B_b(q)`` bounds the time needed to process ``q`` activations of chain
sigma_b inside one sigma_b-busy-window.  Theorem 1 expresses it as a fixed
point over five interference components; Eq. (3) and Eq. (4) of the paper
are variants of the same sum — Eq. (3) singles out the contribution of a
*combination* of overload active segments, Eq. (4) (``L_b(q)``) evaluates
the arrival curves over the fixed window ``delta_minus(q) + D_b`` instead
of the fixed point, yielding the linear schedulability criterion Eq. (5).

This module implements all three through one parameterized evaluator
(:class:`_InterferenceModel`) that records a per-component breakdown for
auditability.  The q-independent interference structures (interferer
lists, deferred-segment decompositions, static costs) are computed once
per model, which is what makes the batched :func:`criterion_loads` cheap:
one structure scan serves the whole ``q`` range of Eq. (5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from ..kernel import numpy_for, numpy_or_none, solve_monotone_fixed_points
from ..model import System, TaskChain
from .exceptions import BusyWindowDivergence
from .interference import is_deferred
from .memo import active_cache, content_key
from .segments import critical_segment, header_segment, segments

#: Hard ceiling on any busy-window length; exceeding it is treated as
#: divergence (utilization at or above 1 within the relevant scope).
MAX_WINDOW = 10.0**12

#: Hard ceiling on fixed-point iterations.
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class BusyTimeBreakdown:
    """The five components of Theorem 1 for one value of ``q``.

    ``arbitrary``, ``deferred_async`` and ``deferred_sync`` map interferer
    chain names to their contribution; ``combination`` is the summed WCET
    of overload active segments injected by Eq. (3)/(5).
    """

    q: int
    base: float
    self_interference: float
    arbitrary: Dict[str, float] = field(default_factory=dict)
    deferred_async: Dict[str, float] = field(default_factory=dict)
    deferred_sync: Dict[str, float] = field(default_factory=dict)
    combination: float = 0.0
    total: float = 0.0
    iterations: int = 0

    def interference_total(self) -> float:
        """Everything except the base demand ``q * C_b``."""
        return self.total - self.base


class _InterferenceModel:
    """The q-independent structures of the Theorem 1 sum for one
    (system, target, include_overload) configuration.

    Building the model performs the interferer classification and the
    deferred-segment scans; :meth:`evaluate` then applies the sum for
    any ``(q, horizon)`` without repeating them.  One model instance
    serves a whole fixed-point iteration — and, through
    :func:`criterion_loads`, a whole Eq. (5) ``q`` range.
    """

    def __init__(self, system: System, target: TaskChain, include_overload: bool):
        self.target_wcet = target.total_wcet
        self.header_cost = sum(t.wcet for t in target.header_prefix())
        self.self_activation = (
            target.activation
            if target.is_asynchronous and self.header_cost > 0
            else None
        )
        # Interferers whose term depends on the window, in system order:
        # ``(name, activation, weight, static)`` with ``static`` None
        # for an arbitrary interferer (``eta * total_wcet``) and the
        # static segment cost of a deferred asynchronous one
        # (``eta * header_wcet + static``).  Deferred synchronous
        # interferers cost a constant: ``(name, static)``.
        self.window_terms = []
        self.sync_terms = []
        for chain in system.others(target):
            if chain.overload and not include_overload:
                continue
            if not is_deferred(chain, target):
                self.window_terms.append(
                    (chain.name, chain.activation, chain.total_wcet, None)
                )
            elif chain.is_asynchronous:
                self.window_terms.append(
                    (
                        chain.name,
                        chain.activation,
                        header_segment(chain, target).wcet,
                        sum(seg.wcet for seg in segments(chain, target)),
                    )
                )
            else:
                crit = critical_segment(chain, target)
                self.sync_terms.append((chain.name, crit.wcet if crit else 0.0))
        self.sync_total = sum(static for _, static in self.sync_terms)

    def evaluate(
        self,
        q: int,
        horizon: float,
        combination_cost: float = 0.0,
        base_demand: Optional[float] = None,
    ) -> BusyTimeBreakdown:
        """One application of the Theorem 1 sum at window ``horizon``."""
        base = q * self.target_wcet if base_demand is None else base_demand
        arbitrary: Dict[str, float] = {}
        deferred_async: Dict[str, float] = {}
        self_interference = 0.0
        if self.self_activation is not None:
            backlog = max(0, self.self_activation.eta_plus(horizon) - q)
            self_interference = backlog * self.header_cost
        for name, activation, weight, static in self.window_terms:
            if static is None:
                arbitrary[name] = activation.eta_plus(horizon) * weight
            else:
                deferred_async[name] = activation.eta_plus(horizon) * weight + static
        deferred_sync = dict(self.sync_terms)
        total = (
            base
            + self_interference
            + sum(arbitrary.values())
            + sum(deferred_async.values())
            + self.sync_total
            + combination_cost
        )
        return BusyTimeBreakdown(
            q=q,
            base=base,
            self_interference=self_interference,
            arbitrary=arbitrary,
            deferred_async=deferred_async,
            deferred_sync=deferred_sync,
            combination=combination_cost,
            total=total,
        )

    def total(self, q: int, horizon: float, combination_cost: float = 0.0) -> float:
        """``evaluate(q, horizon, combination_cost).total`` without the
        breakdown: the same terms, probed and summed in the same order,
        so the value is identical."""
        self_interference = 0.0
        if self.self_activation is not None:
            backlog = max(0, self.self_activation.eta_plus(horizon) - q)
            self_interference = backlog * self.header_cost
        arbitrary = []
        deferred_async = []
        for _, activation, weight, static in self.window_terms:
            if static is None:
                arbitrary.append(activation.eta_plus(horizon) * weight)
            else:
                deferred_async.append(activation.eta_plus(horizon) * weight + static)
        return (
            q * self.target_wcet
            + self_interference
            + sum(arbitrary)
            + sum(deferred_async)
            + self.sync_total
            + combination_cost
        )

    def totals_many(
        self,
        qs: Sequence[int],
        horizons: Sequence[float],
        combination_cost: float = 0.0,
    ) -> Sequence[float]:
        """Theorem 1 totals for many ``(q, horizon)`` pairs at once.

        A batch origin when ``horizons`` is a plain sequence: the numpy
        path is taken when :func:`~repro.kernel.numpy_for` says so for
        ``len(qs)`` pairs.  An ndarray ``horizons`` comes from a vector
        caller and always takes the numpy path.  There every arrival
        curve is evaluated once over the whole horizon vector (one
        ``searchsorted`` per chain instead of one scalar probe per
        ``q`` per Kleene step), and the five components are accumulated
        in exactly the order of :meth:`evaluate`, so the totals are
        value-identical.  The pure-Python path loops :meth:`total` —
        the differential reference of the kernel parity tests.
        """
        if hasattr(horizons, "dtype"):  # an ndarray from a vector caller
            np = numpy_or_none()
        else:
            np = numpy_for(len(qs))
        if np is None:
            total = self.total
            return [
                total(q, horizon, combination_cost)
                for q, horizon in zip(qs, horizons)
            ]
        q_arr = np.asarray(qs, dtype=np.int64)
        h_arr = np.asarray(horizons, dtype=np.float64)
        total = q_arr * float(self.target_wcet)
        if self.self_activation is not None:
            backlog = self.self_activation.eta_plus_many(h_arr) - q_arr
            total = total + np.maximum(backlog, 0) * float(self.header_cost)
        arbitrary_sum = 0.0
        async_sum = 0.0
        for _, activation, weight, static in self.window_terms:
            eta = activation.eta_plus_many(h_arr)
            if static is None:
                arbitrary_sum = arbitrary_sum + eta * float(weight)
            else:
                async_sum = async_sum + (eta * float(weight) + float(static))
        total = total + arbitrary_sum + async_sum + self.sync_total
        if combination_cost:
            total = total + combination_cost
        return total


def _check_membership(system: System, target: TaskChain) -> None:
    if target.name not in system or system[target.name] != target:
        raise ValueError(f"chain {target.name!r} not in system")


def _busy_key(
    digest: str,
    target: TaskChain,
    q: int,
    include_overload: bool,
    combination_cost: float,
    window: Optional[float],
    base_demand: Optional[float],
):
    """The ``busy_time`` cache-category key layout (shared by the
    single-q and the batched evaluation paths)."""
    return (
        digest,
        target.name,
        q,
        include_overload,
        combination_cost,
        window,
        base_demand,
    )


def _warm_start_horizon(
    cache,
    digest,
    target: TaskChain,
    q: int,
    include_overload: bool,
    combination_cost: float,
    horizon: float,
) -> float:
    """Raise ``horizon`` to the best sound cached lower bound at hand.

    Two warm starts the cache may already hold: the fixed point of
    ``q - 1`` in the same configuration (the sum is pointwise monotone
    in ``q``), and — when overload is included — the overload-free
    fixed point of the same ``q``.  Probed via ``peek`` so warm-start
    probes never skew hit/miss accounting.  Shared by the scalar
    :func:`busy_time` and the batched block so the two paths can never
    desynchronize on key layout or soundness conditions.
    """
    peek = getattr(cache, "peek", None) if cache is not None else None
    if peek is None or digest is None:
        return horizon
    if q > 1:
        previous = peek(
            "busy_time",
            _busy_key(
                digest, target, q - 1, include_overload, combination_cost,
                None, None,
            ),
        )
        if previous is not None and previous.total > horizon:
            horizon = previous.total
    if include_overload:
        typical = peek(
            "busy_time",
            _busy_key(digest, target, q, False, combination_cost, None, None),
        )
        if typical is not None and typical.total > horizon:
            horizon = typical.total
    return horizon


def busy_time(
    system: System,
    target: TaskChain,
    q: int,
    *,
    include_overload: bool = True,
    combination_cost: float = 0.0,
    window: Optional[float] = None,
    base_demand: Optional[float] = None,
    seed: Optional[float] = None,
) -> BusyTimeBreakdown:
    """Evaluate the Theorem 1 sum for ``q`` activations of ``target``.

    Parameters
    ----------
    system, target:
        The uniprocessor system and the analyzed chain (must belong to
        ``system``).
    q:
        Number of chain activations processed in the busy window
        (``q >= 1``).
    include_overload:
        When False, overload chains are removed from every interference
        term — this is the *typical* busy time of Eq. (3)/(4), to which a
        combination's cost can be added via ``combination_cost``.
    combination_cost:
        Summed WCET of the overload active segments of a combination
        (the last line of Eq. (3)); only sensible with
        ``include_overload=False``.
    window:
        ``None`` computes the fixed point of Theorem 1.  A number
        evaluates the sum with every arrival curve applied to that fixed
        window instead — Eq. (4) uses ``delta_minus(q) + D_b``.
    base_demand:
        Override for the ``q * C_b`` base term; used by the per-stage
        latency analysis (``(q-1) * C_b + C_prefix``).
    seed:
        Warm start for the Kleene iteration.  Must be a *sound* lower
        bound on the least fixed point — e.g. the fixed point of the
        same configuration at ``q - 1`` (the sum is pointwise monotone
        in ``q``) or the overload-free fixed point of the same ``q``.
        Any seed at or below the least fixed point yields the
        bit-identical breakdown (every component of the Theorem 1 sum is
        monotone in the horizon, so the converged evaluation is unique);
        only the ``iterations`` diagnostic shrinks.  Ignored in window
        mode.

    Returns
    -------
    BusyTimeBreakdown
        With ``total`` the busy time bound and the per-chain components.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_membership(system, target)

    # Memoization: the breakdown is a pure function of system content
    # and the scalar arguments, so an installed AnalysisCache can return
    # earlier fixed points (the dominant cost of the whole TWCA).
    cache = active_cache()
    cache_key = None
    digest = None
    if cache is not None:
        digest = content_key(system)
        if digest is not None:
            cache_key = _busy_key(
                digest, target, q, include_overload, combination_cost, window,
                base_demand,
            )
            hit = cache.lookup("busy_time", cache_key)
            if hit is not None:
                return hit

    model = _InterferenceModel(system, target, include_overload)

    if window is not None:
        result = model.evaluate(q, window, combination_cost, base_demand)
        if cache_key is not None:
            cache.store("busy_time", cache_key, result)
        return result

    # Kleene iteration from the minimal demand, warm-started when a
    # sound better lower bound is at hand.  The sum is monotone in the
    # horizon, so from any start at or below the least fixed point the
    # iteration converges to exactly that fixed point — seeds change
    # the step count, never the result.
    base = q * target.total_wcet if base_demand is None else base_demand
    horizon = base if base > 0 else 1
    if seed is not None and seed > horizon:
        horizon = seed
    if cache_key is not None and base_demand is None:
        horizon = _warm_start_horizon(
            cache, digest, target, q, include_overload, combination_cost,
            horizon,
        )
    iterations = 0
    while True:
        try:
            current = model.evaluate(q, horizon, combination_cost, base_demand)
        except OverflowError as exc:
            # An arrival curve refused a huge window: the fixed point is
            # running away, which is a divergence, not a curve bug.
            raise BusyWindowDivergence(target.name, q, str(exc)) from exc
        iterations += 1
        if current.total <= horizon:
            break
        if current.total > MAX_WINDOW:
            raise BusyWindowDivergence(
                target.name, q, f"busy time exceeded {MAX_WINDOW:g} time units"
            )
        if iterations > MAX_ITERATIONS:
            raise BusyWindowDivergence(
                target.name, q, f"no fixed point after {iterations} steps"
            )
        horizon = current.total
    result = BusyTimeBreakdown(
        q=current.q,
        base=current.base,
        self_interference=current.self_interference,
        arbitrary=current.arbitrary,
        deferred_async=current.deferred_async,
        deferred_sync=current.deferred_sync,
        combination=current.combination,
        total=current.total,
        iterations=iterations,
    )
    if cache_key is not None:
        cache.store("busy_time", cache_key, result)
    return result


#: Per-q outcome of a batched block: the breakdown, or the divergence
#: the equivalent scalar call would have raised.
BusyOutcome = Union[BusyTimeBreakdown, BusyWindowDivergence]


def _busy_times_block(
    system: System,
    target: TaskChain,
    qs: Sequence[int],
    *,
    include_overload: bool = True,
    combination_cost: float = 0.0,
    seeds: Optional[Mapping[int, float]] = None,
) -> Dict[int, BusyOutcome]:
    """Batched Theorem 1 fixed points with per-``q`` failure capture.

    The engine behind :func:`busy_times` and the block-mode q-scan of
    :func:`repro.analysis.latency.analyze_latency`: one
    :class:`_InterferenceModel` serves every ``q``, the Kleene iteration
    advances all of them simultaneously (per-``q`` convergence masking,
    one batched curve evaluation per interferer per sweep), and a
    diverging ``q`` becomes a recorded :class:`BusyWindowDivergence`
    instead of poisoning the batch.  Cache keys, warm-start seeds and
    the converged breakdowns are exactly those of the scalar
    :func:`busy_time` — the least fixed point is unique, and the final
    breakdown is evaluated through the scalar (type-preserving) path.
    """
    _check_membership(system, target)
    order = []
    seen = set()
    for q in qs:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if q not in seen:
            seen.add(q)
            order.append(q)
    cache = active_cache()
    digest = content_key(system) if cache is not None else None
    outcomes: Dict[int, BusyOutcome] = {}
    pending = []
    for q in order:
        if digest is not None:
            hit = cache.lookup(
                "busy_time",
                _busy_key(
                    digest, target, q, include_overload, combination_cost,
                    None, None,
                ),
            )
            if hit is not None:
                outcomes[q] = hit
                continue
        pending.append(q)
    if not pending:
        return outcomes

    model = _InterferenceModel(system, target, include_overload)
    starts = []
    for q in pending:
        base = q * target.total_wcet
        horizon = base if base > 0 else 1
        seed = None if seeds is None else seeds.get(q)
        if seed is not None and seed > horizon:
            horizon = seed
        starts.append(
            _warm_start_horizon(
                cache, digest, target, q, include_overload, combination_cost,
                horizon,
            )
        )

    def totals_many(indices, horizons):
        return model.totals_many(
            [pending[i] for i in indices], horizons, combination_cost
        )

    def totals_one(index, horizon):
        return model.total(pending[index], horizon, combination_cost)

    values, iterations, failures = solve_monotone_fixed_points(
        starts,
        totals_many,
        totals_one,
        max_window=MAX_WINDOW,
        max_iterations=MAX_ITERATIONS,
    )
    for q, value, iters, failure in zip(pending, values, iterations, failures):
        if failure is not None:
            if failure == "window":
                message = f"busy time exceeded {MAX_WINDOW:g} time units"
            elif failure == "iterations":
                message = f"no fixed point after {iters} steps"
            else:
                message = failure[len("overflow: "):]
            outcomes[q] = BusyWindowDivergence(target.name, q, message)
            continue
        final = model.evaluate(q, value, combination_cost)
        breakdown = BusyTimeBreakdown(
            q=final.q,
            base=final.base,
            self_interference=final.self_interference,
            arbitrary=final.arbitrary,
            deferred_async=final.deferred_async,
            deferred_sync=final.deferred_sync,
            combination=final.combination,
            total=final.total,
            iterations=iters,
        )
        if digest is not None:
            cache.store(
                "busy_time",
                _busy_key(
                    digest, target, q, include_overload, combination_cost,
                    None, None,
                ),
                breakdown,
            )
        outcomes[q] = breakdown
    return outcomes


def busy_times(
    system: System,
    target: TaskChain,
    qs: Sequence[int],
    *,
    include_overload: bool = True,
    combination_cost: float = 0.0,
    seeds: Optional[Mapping[int, float]] = None,
) -> Dict[int, BusyTimeBreakdown]:
    """Batched :func:`busy_time` over a whole ``q`` range.

    Bit-identical to calling :func:`busy_time` per ``q`` — same cache
    keys, same converged breakdowns (``iterations`` is the one
    diagnostic allowed to differ) — but the whole range advances as one
    masked Kleene iteration over a single interference structure.
    Raises :class:`BusyWindowDivergence` for the smallest diverging
    ``q``, matching an ascending scalar loop.
    """
    outcomes = _busy_times_block(
        system,
        target,
        qs,
        include_overload=include_overload,
        combination_cost=combination_cost,
        seeds=seeds,
    )
    for q in sorted(outcomes):
        if isinstance(outcomes[q], BusyWindowDivergence):
            raise outcomes[q]
    return {q: outcomes[q] for q in qs}


def typical_busy_time(
    system: System, target: TaskChain, q: int, combination_cost: float = 0.0
) -> BusyTimeBreakdown:
    """Eq. (3): the busy time with overload chains replaced by an
    explicit combination cost (fixed-point form)."""
    return busy_time(
        system, target, q, include_overload=False, combination_cost=combination_cost
    )


def criterion_loads(
    system: System, target: TaskChain, qs: Iterable[int]
) -> Dict[int, float]:
    """Batched ``L_b(q)`` of Eq. (4) over a whole ``q`` range.

    Byte-identical to calling :func:`criterion_load` per ``q`` — same
    cache keys, same arithmetic — but the interferer classification and
    deferred-segment scans are performed once for the entire range
    instead of once per ``q``, and cached values short-circuit before
    any structure is built.
    """
    if not target.has_deadline:
        raise ValueError(f"L_b(q) needs a finite deadline for chain {target.name!r}")
    _check_membership(system, target)
    order = tuple(qs)
    cache = active_cache()
    digest = content_key(system) if cache is not None else None
    loads: Dict[int, float] = {}
    horizons: Dict[int, float] = {}
    pending = []
    for q in order:
        if q in loads or q in horizons:
            continue
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        horizon = target.activation.delta_minus(q) + target.deadline
        horizons[q] = horizon
        if digest is not None:
            hit = cache.lookup(
                "busy_time", _busy_key(digest, target, q, False, 0.0, horizon, None)
            )
            if hit is not None:
                loads[q] = hit.total
                continue
        pending.append(q)
    if pending:
        model = _InterferenceModel(system, target, include_overload=False)
        for q in pending:
            result = model.evaluate(q, horizons[q])
            if digest is not None:
                cache.store(
                    "busy_time",
                    _busy_key(digest, target, q, False, 0.0, horizons[q], None),
                    result,
                )
            loads[q] = result.total
    return {q: loads[q] for q in order}


def criterion_load(system: System, target: TaskChain, q: int) -> float:
    """``L_b(q)`` of Eq. (4): the typical interference evaluated over the
    fixed window ``delta_minus_b(q) + D_b``."""
    return criterion_loads(system, target, (q,))[q]
